//! The end-to-end MFCC extractor.
//!
//! [`Mfcc`] is a thin wrapper over the planned pipeline in
//! [`crate::plan`]: construction builds an [`MfccPlan`] (cached FFT
//! tables, sparse mel bands, folded DCT matrix) and [`Mfcc::compute`]
//! extracts frames serially through it. The original straight-line
//! pipeline survives as [`ReferenceMfcc`] / [`reference_mfcc`] — the
//! slow-but-obvious oracle the optimized path is tested and benchmarked
//! against.

use thnt_tensor::Tensor;

use crate::fft::power_spectrum;
use crate::mel::{mel_filterbank, MelBank};
use crate::plan::MfccPlan;
use crate::window::{frame_signal, hann_window};

/// Configuration of the MFCC pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MfccConfig {
    /// Input sample rate in Hz.
    pub sample_rate: f32,
    /// Analysis frame length in samples.
    pub frame_len: usize,
    /// Hop (stride) between frames in samples.
    pub hop: usize,
    /// FFT size (power of two, ≥ `frame_len`).
    pub fft_size: usize,
    /// Number of mel filters.
    pub num_mel: usize,
    /// Number of cepstral coefficients kept after the DCT.
    pub num_coeffs: usize,
    /// Lower band edge in Hz.
    pub f_lo: f32,
    /// Upper band edge in Hz.
    pub f_hi: f32,
    /// Pre-emphasis coefficient (`0.0` disables).
    pub preemphasis: f32,
}

impl MfccConfig {
    /// The paper's configuration: 16 kHz audio, 40 ms frames, 20 ms stride,
    /// 40 mel filters, 10 coefficients → a 49×10 map for 1 s of audio.
    pub fn paper() -> Self {
        Self {
            sample_rate: 16_000.0,
            frame_len: 640,
            hop: 320,
            fft_size: 1024,
            num_mel: 40,
            num_coeffs: 10,
            f_lo: 20.0,
            f_hi: 7_600.0,
            preemphasis: 0.97,
        }
    }

    /// Number of frames produced for a signal of `num_samples` samples.
    pub fn num_frames(&self, num_samples: usize) -> usize {
        if num_samples < self.frame_len {
            0
        } else {
            (num_samples - self.frame_len) / self.hop + 1
        }
    }
}

impl Default for MfccConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// MFCC feature extractor.
///
/// Construction precomputes the full pipeline plan (window, real-FFT
/// tables, sparse mel filterbank, folded DCT matrix); [`Mfcc::compute`]
/// then turns raw audio into a `[frames, num_coeffs]` tensor, extracting
/// frames serially.
///
/// Pipeline: pre-emphasis → framing → Hann window → power spectrum → mel
/// filterbank → `ln(energy + ε)` → DCT-II → truncate.
///
/// Callers that manage their own buffers and threading (batched servers,
/// dataset loaders) should reach through [`Mfcc::plan`] for the
/// allocation-free [`MfccPlan::compute_into`] drivers.
#[derive(Debug, Clone)]
pub struct Mfcc {
    plan: MfccPlan,
}

impl Mfcc {
    /// Builds the extractor for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `fft_size` is smaller than `frame_len`, not a power of two,
    /// or the mel band is invalid.
    pub fn new(config: MfccConfig) -> Self {
        Self { plan: MfccPlan::new(config) }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &MfccConfig {
        self.plan.config()
    }

    /// The underlying pipeline plan, for callers that want the
    /// allocation-free `compute_into` drivers or a reusable scratch.
    pub fn plan(&self) -> &MfccPlan {
        &self.plan
    }

    /// Computes the MFCC feature map of `audio`: shape
    /// `[num_frames, num_coeffs]`.
    pub fn compute(&self, audio: &[f32]) -> Tensor {
        self.plan.compute(audio)
    }
}

/// The original per-call MFCC pipeline, kept verbatim as the testing and
/// benchmarking oracle for the planned path.
///
/// Every stage re-derives its work each call: dense complex FFT via
/// [`power_spectrum`], dense mel rows, per-frame `cos()` DCT, and a frame
/// buffer copy. Do not use in serving paths — that is the point.
#[derive(Debug, Clone)]
pub struct ReferenceMfcc {
    config: MfccConfig,
    window: Vec<f32>,
    bank: MelBank,
}

impl ReferenceMfcc {
    /// Builds the reference extractor (precomputes window and filterbank,
    /// exactly like the pre-plan implementation did).
    ///
    /// # Panics
    ///
    /// Same contract as [`Mfcc::new`].
    pub fn new(config: MfccConfig) -> Self {
        assert!(
            config.fft_size >= config.frame_len,
            "fft_size {} < frame_len {}",
            config.fft_size,
            config.frame_len
        );
        let window = hann_window(config.frame_len);
        let bank = mel_filterbank(
            config.num_mel,
            config.fft_size,
            config.sample_rate,
            config.f_lo,
            config.f_hi,
        );
        Self { config, window, bank }
    }

    /// Computes the MFCC feature map with the straight-line pipeline.
    pub fn compute(&self, audio: &[f32]) -> Tensor {
        let c = &self.config;
        // Pre-emphasis: y[t] = x[t] - a·x[t-1].
        let emphasized: Vec<f32> = if c.preemphasis > 0.0 {
            std::iter::once(audio.first().copied().unwrap_or(0.0))
                .chain(audio.windows(2).map(|w| w[1] - c.preemphasis * w[0]))
                .collect()
        } else {
            audio.to_vec()
        };
        let (frames, num_frames) = frame_signal(&emphasized, c.frame_len, c.hop);
        let mut out = Tensor::zeros(&[num_frames, c.num_coeffs]);
        let mut scratch = vec![0.0f32; c.frame_len];
        for f in 0..num_frames {
            let frame = &frames[f * c.frame_len..(f + 1) * c.frame_len];
            for ((s, &x), &w) in scratch.iter_mut().zip(frame).zip(&self.window) {
                *s = x * w;
            }
            let ps = power_spectrum(&scratch, c.fft_size);
            let mel = self.bank.apply(&ps);
            let logged: Vec<f32> = mel.iter().map(|&e| (e + 1e-6).ln()).collect();
            let coeffs = crate::dct::dct_ii(&logged, c.num_coeffs);
            out.row_mut(f).copy_from_slice(&coeffs);
        }
        out
    }
}

/// One-shot convenience wrapper over [`ReferenceMfcc`] for tests.
pub fn reference_mfcc(config: &MfccConfig, audio: &[f32]) -> Tensor {
    ReferenceMfcc::new(*config).compute(audio)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f32, len: usize, fs: f32) -> Vec<f32> {
        (0..len).map(|t| (2.0 * std::f32::consts::PI * freq * t as f32 / fs).sin()).collect()
    }

    #[test]
    fn paper_shape_is_49x10() {
        let mfcc = Mfcc::new(MfccConfig::paper());
        let feats = mfcc.compute(&vec![0.0; 16_000]);
        assert_eq!(feats.dims(), &[49, 10]);
    }

    #[test]
    fn silence_gives_constant_rows() {
        let mfcc = Mfcc::new(MfccConfig::paper());
        let feats = mfcc.compute(&vec![0.0; 16_000]);
        let first = feats.row(0).to_vec();
        for f in 1..49 {
            for (a, b) in feats.row(f).iter().zip(first.iter()) {
                assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn different_tones_give_different_features() {
        let mfcc = Mfcc::new(MfccConfig::paper());
        let lo = mfcc.compute(&tone(300.0, 16_000, 16_000.0));
        let hi = mfcc.compute(&tone(3_000.0, 16_000, 16_000.0));
        let dist: f32 =
            lo.data().iter().zip(hi.data()).map(|(a, b)| (a - b).powi(2)).sum::<f32>().sqrt();
        assert!(dist > 1.0, "tones should be separable, dist={dist}");
    }

    #[test]
    fn louder_signal_raises_c0() {
        let mfcc = Mfcc::new(MfccConfig::paper());
        let quiet = mfcc
            .compute(&tone(500.0, 16_000, 16_000.0).iter().map(|x| x * 0.1).collect::<Vec<_>>());
        let loud = mfcc.compute(&tone(500.0, 16_000, 16_000.0));
        // c0 tracks log-energy.
        assert!(loud.at(&[24, 0]) > quiet.at(&[24, 0]));
    }

    #[test]
    fn feature_count_scales_with_signal_length() {
        let mfcc = Mfcc::new(MfccConfig::paper());
        let feats = mfcc.compute(&vec![0.0; 8_000]);
        assert_eq!(feats.dims()[0], MfccConfig::paper().num_frames(8_000));
    }

    #[test]
    fn wrapper_matches_reference_on_a_tone() {
        let cfg = MfccConfig::paper();
        let mfcc = Mfcc::new(cfg);
        // Tone plus broadband noise: keeps every mel energy well above the
        // ln(e + ε) floor, where the log would amplify FFT rounding noise.
        let mut state = 0x8765_4321u32;
        let audio: Vec<f32> = tone(700.0, 16_000, 16_000.0)
            .into_iter()
            .map(|x| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                x + ((state >> 8) as f32 / (1u32 << 24) as f32 - 0.5) * 0.1
            })
            .collect();
        let got = mfcc.compute(&audio);
        let want = reference_mfcc(&cfg, &audio);
        assert_eq!(got.dims(), want.dims());
        for (a, b) in got.data().iter().zip(want.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }
}
