//! Everything the seed determines before serving starts: the paper's model
//! (frozen, compiled and saved as `.thnt2` bytes), the quantized engine's
//! calibration, and every session's audio.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use thnt_core::artifact::save_quantized_thnt2_with;
use thnt_core::{
    save_thnt2_with, AlignedBytes, HybridConfig, InferenceMeta, PackedStHybrid, QuantizedStHybrid,
    SaveOptions, StHybridNet,
};
use thnt_dsp::MfccConfig;
use thnt_nn::Model;
use thnt_quant::CalibrationMethod;
use thnt_strassen::Strassenified;
use thnt_tensor::gaussian;

/// Samples between windows (0.5 s at 16 kHz).
pub const HOP: usize = 8_000;
/// Samples in one analysis window (1 s at 16 kHz).
pub const WINDOW: usize = 16_000;
/// Distinct noise chunks the streams draw their hops from.
const POOL: usize = 32;

/// The served model as artifact bytes, plus the dense network it came from.
pub struct Artifacts {
    pub net: StHybridNet,
    /// Inline (zero-copy loadable) v3 artifact of the packed engine.
    pub packed: AlignedBytes,
    /// v3 artifact of the quantized engine, with its `QNT8` section.
    pub quantized: Vec<u8>,
}

impl Artifacts {
    /// Builds `StHybridNet::new(HybridConfig::paper())` from `seed`, freezes
    /// and compiles it, calibrates the quantized engine on seeded clips, and
    /// saves both engines with their serving metadata.
    pub fn build(seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut net = StHybridNet::new(HybridConfig::paper(), &mut rng);
        net.activate_quantization();
        net.freeze_ternary();
        let engine = PackedStHybrid::compile(&net);
        let calib = gaussian(&[8, 1, 49, 10], 0.0, 1.0, &mut rng);
        let quantized =
            QuantizedStHybrid::calibrate_and_compile(&engine, &calib, CalibrationMethod::default())
                .expect("calibrate the quantized engine");
        let meta = InferenceMeta {
            mfcc: MfccConfig::paper(),
            norm_mean: vec![0.0; 10],
            norm_std: vec![1.0; 10],
        };
        let mut packed = Vec::new();
        save_thnt2_with(&engine, Some(&meta), SaveOptions::v3(), &mut packed)
            .expect("save the packed artifact");
        let mut quant = Vec::new();
        save_quantized_thnt2_with(&quantized, Some(&meta), SaveOptions::v3(), &mut quant)
            .expect("save the quantized artifact");
        Self { net, packed: AlignedBytes::from_slice(&packed), quantized: quant }
    }

    /// Largest absolute difference between the packed engine loaded from
    /// the artifact and the dense frozen network, on one seeded clip.
    pub fn packed_vs_dense(&mut self, seed: u64) -> f32 {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC11F);
        let clip = gaussian(&[1, 1, 49, 10], 0.0, 1.0, &mut rng);
        let (engine, _) = PackedStHybrid::load_ref(self.packed.as_slice()).expect("load packed");
        let packed = engine.forward(&clip);
        let dense = self.net.forward(&clip, false);
        packed.data().iter().zip(dense.data()).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max)
    }
}

/// Seeded Gaussian-noise audio for every session. A stream is a sequence of
/// hop-sized chunks drawn from a seeded pool, so any hop of any session can
/// be regenerated for the oracle replay without storing the streams.
pub struct Audio {
    pool: Vec<Vec<f32>>,
    seed: u64,
}

impl Audio {
    pub fn new(seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA0D10);
        let pool =
            (0..POOL).map(|_| gaussian(&[HOP], 0.0, 0.1, &mut rng).data().to_vec()).collect();
        Self { pool, seed }
    }

    /// Chunk `hop` (0-based from the stream's start) of `session`'s stream.
    pub fn chunk(&self, session: u64, hop: u64) -> &[f32] {
        let h = mix(mix(self.seed ^ session.wrapping_mul(0x9E37_79B9)) ^ hop);
        &self.pool[(h % POOL as u64) as usize]
    }

    /// The first full window of `session`: the two chunks that prefill its
    /// ring.
    pub fn prefill(&self, session: u64) -> Vec<f32> {
        [self.chunk(session, 0), self.chunk(session, 1)].concat()
    }

    /// Window `k` of `session` (ending at sample `WINDOW + k·HOP`).
    pub fn window(&self, session: u64, k: u64) -> Vec<f32> {
        [self.chunk(session, k), self.chunk(session, k + 1)].concat()
    }
}

/// SplitMix64 finaliser: a seeded, well-spread hash of `x`.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audio_is_a_function_of_the_seed() {
        let (a, b, c) = (Audio::new(3), Audio::new(3), Audio::new(4));
        assert_eq!(a.chunk(5, 9), b.chunk(5, 9));
        assert_ne!(a.chunk(5, 9), c.chunk(5, 9));
        assert_eq!(a.window(2, 1)[..HOP], *a.chunk(2, 1));
        assert_eq!(a.prefill(2), a.window(2, 0));
    }
}
