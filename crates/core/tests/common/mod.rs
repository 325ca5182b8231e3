//! Shared fixtures for the streaming/serving integration tests.
//!
//! Each integration test binary compiles its own copy of this module, so
//! items unused by one binary are expected.
#![allow(dead_code)]

use rand::rngs::SmallRng;
use rand::SeedableRng;
use thnt_core::ShardedStreamServer;
use thnt_dsp::MfccConfig;
use thnt_nn::InferenceBackend;
use thnt_tensor::Tensor;

/// Deterministic input-dependent stub backend: every logit is a fixed
/// linear functional of its own window's features — row-independent by
/// construction (like the real backends), so any difference in window
/// contents, normalisation, or batching shows up in the detections.
pub struct Probe {
    pub classes: usize,
}

impl InferenceBackend for Probe {
    fn infer(&self, x: &Tensor) -> Tensor {
        let n = x.dims()[0];
        let per = x.numel() / n.max(1);
        let mut out = Tensor::zeros(&[n, self.classes]);
        for s in 0..n {
            let row = &x.data()[s * per..(s + 1) * per];
            for c in 0..self.classes {
                let mut acc = 0.0f32;
                for (i, &v) in row.iter().enumerate() {
                    acc += v * (((i * 31 + c * 17) % 7) as f32 - 3.0);
                }
                out.data_mut()[s * self.classes + c] = acc;
            }
        }
        out
    }
    fn num_classes(&self) -> usize {
        self.classes
    }
    fn adds_per_sample(&self) -> u64 {
        0
    }
    fn model_bytes(&self) -> usize {
        0
    }
}

/// Small MFCC front-end so debug-mode tests stay fast: a 2000-sample
/// window of 8 frames.
pub fn small_mfcc() -> MfccConfig {
    MfccConfig {
        sample_rate: 2_000.0,
        frame_len: 256,
        hop: 256,
        fft_size: 256,
        num_mel: 20,
        num_coeffs: 10,
        f_lo: 20.0,
        f_hi: 950.0,
        preemphasis: 0.97,
    }
}

/// The stream hops every serving schedule runs at, against
/// [`small_mfcc`]'s 256-sample frame stride. At 500 no two windows share a
/// frame, so the server extracts all 7 frames of every window; 512 is two
/// strides, so consecutive windows share 5 frames and each frame is
/// extracted once for all the windows that read it.
pub const HOPS: [usize; 2] = [500, 512];

/// Ends of the windows that fall due while a stream's consumed sample count
/// goes from `before` to `after`: the first once `max(window, hop)` samples
/// have arrived, then one every `max(hop, 1)` samples. Written from that
/// definition alone, so the oracles share no window code with the server;
/// each window is then sliced out of the whole stream as
/// `stream[end - window..end]`.
pub fn window_ends(window: usize, hop: usize, before: usize, after: usize) -> Vec<usize> {
    let (first, step) = (window.max(hop), hop.max(1));
    let skip = if before < first { 0 } else { (before - first) / step + 1 };
    (skip..).map(|k| first + k * step).take_while(|&end| end <= after).collect()
}

/// A deterministic test stream with enough structure that detections
/// actually fire: a slow chirp (`f0 + df·t` Hz over a `sample_rate` clock)
/// plus seeded noise.
pub fn chirp_stream(len: usize, seed: u64, sample_rate: f32, f0: f32, df: f32) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let noise = thnt_tensor::gaussian(&[len], 0.0, 0.05, &mut rng);
    noise
        .data()
        .iter()
        .enumerate()
        .map(|(t, &n)| {
            let phase = t as f32 / sample_rate;
            (2.0 * std::f32::consts::PI * (f0 + df * phase) * phase).sin() * 0.4 + n
        })
        .collect()
}

/// Asserts the ledger identity in every shard × model cell at a quiescent
/// point: `windows_fed == windows_accounted() + pending`. Every other
/// ledger the server reports is a sum of cells, so this is the whole
/// reconciliation.
pub fn assert_cells_reconcile(server: &ShardedStreamServer, context: &str) {
    let snaps = server.shard_snapshots().expect("every shard is alive");
    for snap in &snaps {
        for (m, cell) in snap.per_model.iter().enumerate() {
            assert_eq!(
                cell.windows_fed,
                cell.windows_accounted() + snap.per_model_pending[m] as u64,
                "{context}: cell (shard {}, model {m}) drifted: {cell:?}",
                snap.shard
            );
        }
    }
}

/// From-scratch single-window pipeline: MFCC → normalise → infer → softmax
/// → smoothing vote → threshold. Everything the serving layer does per
/// window, reimplemented independently so oracle-based tests share no
/// serving code with the system under test — in particular it extracts
/// every frame of every window, sharing none with the previous one.
pub struct PipelineOracle {
    mfcc: thnt_dsp::Mfcc,
    probe: Probe,
    config: thnt_core::StreamingConfig,
    norm_mean: Vec<f32>,
    norm_std: Vec<f32>,
    recent: std::collections::VecDeque<Vec<f32>>,
}

impl PipelineOracle {
    /// An oracle over a [`Probe`] backend with the given front-end and
    /// post-processing parameters.
    pub fn new(
        classes: usize,
        mfcc: MfccConfig,
        config: thnt_core::StreamingConfig,
        norm_mean: Vec<f32>,
        norm_std: Vec<f32>,
    ) -> Self {
        Self {
            mfcc: thnt_dsp::Mfcc::new(mfcc),
            probe: Probe { classes },
            config,
            norm_mean,
            norm_std,
            recent: std::collections::VecDeque::new(),
        }
    }

    /// Runs one analysis window through the full pipeline and returns the
    /// detection it votes for, if any.
    pub fn detect(&mut self, window: &[f32], at_sample: usize) -> Option<thnt_core::Detection> {
        let cfg = self.config;
        let plan = self.mfcc.plan();
        let mut scratch = plan.scratch();
        let coeffs = self.norm_mean.len();
        let frames = self.mfcc.config().num_frames(window.len());
        let mut features = vec![0.0f32; frames * coeffs];
        plan.compute_into(&mut scratch, window, &mut features);
        for row in features.chunks_mut(coeffs) {
            for ((v, &m), &s) in row.iter_mut().zip(&self.norm_mean).zip(&self.norm_std) {
                *v = (*v - m) / s;
            }
        }
        let x = Tensor::from_vec(features, &[1, 1, frames, coeffs]);
        let probs_t = thnt_nn::softmax(&self.probe.infer(&x));
        let probs = probs_t.row(0);
        // The serving layer's smoothing vote: mean over the recent windows
        // (at least one), argmax keeping the last maximum among finite
        // entries.
        self.recent.push_back(probs.to_vec());
        if self.recent.len() > cfg.smoothing.max(1) {
            self.recent.pop_front();
        }
        let mut smoothed = vec![0.0f32; probs.len()];
        for row in self.recent.iter() {
            for (m, &v) in smoothed.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut smoothed {
            *m /= self.recent.len() as f32;
        }
        let mut best: Option<(usize, f32)> = None;
        for (c, &v) in smoothed.iter().enumerate() {
            if v.is_finite() && best.is_none_or(|(_, bv)| v >= bv) {
                best = Some((c, v));
            }
        }
        let (class, confidence) = best?;
        (class < self.probe.classes - cfg.suppress_trailing && confidence >= cfg.threshold)
            .then_some(thnt_core::Detection { class, confidence, at_sample })
    }
}
