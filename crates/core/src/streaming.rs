//! Streaming keyword detection — the always-on deployment posture the
//! paper's introduction motivates.
//!
//! A microcontroller KWS system does not see pre-segmented one-second clips:
//! it slides a window over a continuous microphone stream and smooths the
//! per-window posteriors before raising a detection. [`StreamingDetector`]
//! implements that loop on top of any [`InferenceBackend`] — the dense
//! frozen path through [`thnt_nn::DenseBackend`] or the packed add-only
//! engine ([`crate::engine::PackedStHybrid`]), including one reloaded from a
//! `.thnt2` artifact with no training stack in the process:
//!
//! * maintains a one-second circular buffer of audio,
//! * recomputes MFCC features every `hop` samples,
//! * mean-smooths the posteriors of the last `smoothing` windows,
//! * reports a detection only when the smoothed class is a keyword and its
//!   confidence clears `threshold`.
//!
//! The per-stream buffering lives in [`SessionState`] so that the
//! multi-session server ([`crate::serve::StreamServer`]) can reuse it: the
//! ring is index-based (head pointer plus wrap-aware window extraction into
//! a reusable scratch buffer), so pushing a sample is a single write — no
//! per-sample shifting — and the per-window cost collapses to MFCC plus
//! backend inference.
//!
//! The backend is held by shared reference: inference is `&self`, so one
//! compiled engine can serve many concurrent detectors.

// Serving hot path: failures must surface as values (skipped votes, typed
// errors in `serve`), never as panics — one bad stream must not take down a
// multiplexed server. CI additionally greps this file's non-test region.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;

use thnt_dsp::{Mfcc, MfccConfig, MfccScratch};
use thnt_nn::{softmax, InferenceBackend};
use thnt_tensor::Tensor;

use crate::artifact::InferenceMeta;

/// Configuration of the streaming loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingConfig {
    /// Samples between successive inferences (default: 8000 = 0.5 s).
    pub hop: usize,
    /// Number of recent windows in the majority vote.
    pub smoothing: usize,
    /// Minimum smoothed posterior for a detection.
    pub threshold: f32,
    /// Number of trailing classes that are *not* keywords and never raise a
    /// detection. The keyword range is derived from the backend's class
    /// count as `0..num_classes − suppress_trailing`; the default of 2
    /// matches the speech-commands convention of appending silence and
    /// unknown after the keywords.
    pub suppress_trailing: usize,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        Self { hop: 8_000, smoothing: 3, threshold: 0.5, suppress_trailing: 2 }
    }
}

/// A detection event emitted by the streaming loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Keyword class index, in `0..num_keywords` where `num_keywords` is the
    /// backend's class count minus [`StreamingConfig::suppress_trailing`].
    pub class: usize,
    /// Smoothed posterior of the detected class.
    pub confidence: f32,
    /// Stream position (in samples) at the end of the triggering window.
    pub at_sample: usize,
}

/// Per-stream audio buffering: an index-based circular window buffer plus
/// the hop bookkeeping that decides when a window is due for inference.
///
/// Appending a sample is one array write (the head pointer wraps); the
/// window is materialised contiguously only when due, with at most two
/// `copy_from_slice` calls into a reusable scratch buffer. This is the state
/// a serving layer keeps **per session**, while the expensive parts (the
/// MFCC extractor and the inference backend) are shared across sessions —
/// see [`crate::serve::StreamServer`].
#[derive(Debug, Clone)]
pub struct SessionState {
    ring: Vec<f32>,
    /// Next write position; once the ring is full this is also the position
    /// of the oldest sample.
    head: usize,
    filled: usize,
    since_infer: usize,
    consumed: usize,
    /// Scratch the due window is unwrapped into.
    window: Vec<f32>,
}

impl SessionState {
    /// Creates an empty state for windows of `window_len` samples.
    ///
    /// # Panics
    ///
    /// Panics if `window_len` is zero.
    pub fn new(window_len: usize) -> Self {
        assert!(window_len > 0, "window length must be positive");
        Self {
            ring: vec![0.0; window_len],
            head: 0,
            filled: 0,
            since_infer: 0,
            consumed: 0,
            window: vec![0.0; window_len],
        }
    }

    /// Total samples consumed over the lifetime of the stream.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Window length in samples.
    pub fn window_len(&self) -> usize {
        self.ring.len()
    }

    /// Feeds `samples`, invoking `on_window(window, at_sample)` for every
    /// window that becomes due: the buffer is full and `hop` samples arrived
    /// since the previous due window. `window` is the contiguous last
    /// `window_len` samples, `at_sample` the stream position at its end.
    ///
    /// The loop copies samples in trigger-boundary-sized chunks, so the cost
    /// is O(samples) plus the callback — not O(samples × window).
    pub fn feed<F: FnMut(&[f32], usize)>(&mut self, samples: &[f32], hop: usize, mut on_window: F) {
        let len = self.ring.len();
        let mut rest = samples;
        while !rest.is_empty() {
            // Samples until the next possible trigger: the buffer must be
            // full AND a full hop must have elapsed. `.max(1)` keeps a
            // degenerate hop of 0 (trigger every sample) from stalling.
            let fill_deficit = len - self.filled;
            let hop_deficit = hop.saturating_sub(self.since_infer);
            let need = fill_deficit.max(hop_deficit).max(1);
            let take = need.min(rest.len());
            let (chunk, tail) = rest.split_at(take);
            rest = tail;
            if take >= len {
                // The chunk overwrites the whole ring; only its tail lands.
                self.ring.copy_from_slice(&chunk[take - len..]);
                self.head = 0;
            } else {
                let first = take.min(len - self.head);
                self.ring[self.head..self.head + first].copy_from_slice(&chunk[..first]);
                self.ring[..take - first].copy_from_slice(&chunk[first..]);
                self.head = (self.head + take) % len;
            }
            self.filled = (self.filled + take).min(len);
            self.since_infer += take;
            self.consumed += take;
            if take == need {
                self.since_infer = 0;
                // Unwrap the circular contents: oldest sample sits at head.
                let split = len - self.head;
                self.window[..split].copy_from_slice(&self.ring[self.head..]);
                self.window[split..].copy_from_slice(&self.ring[..self.head]);
                on_window(&self.window, self.consumed);
            }
        }
    }
}

/// Standardises a feature buffer in place: `v ← (v − mean[c]) / std[c]`,
/// row by row. The MFCC plan writes features straight into the inference
/// input buffer, so normalisation no longer copies between tensors.
pub(crate) fn normalize_in_place(data: &mut [f32], mean: &[f32], std: &[f32]) {
    let coeffs = mean.len();
    for row in data.chunks_mut(coeffs) {
        for ((v, &m), &s) in row.iter_mut().zip(mean).zip(std) {
            *v = (*v - m) / s;
        }
    }
}

/// Pushes one window's posteriors into the smoothing history and returns the
/// `(class, confidence)` of the best smoothed class — the shared vote step
/// of [`StreamingDetector`] and [`crate::serve::StreamServer`].
///
/// NaN-safe: non-finite smoothed posteriors are ignored by the argmax, and
/// `None` is returned when no class has a finite smoothed posterior (empty
/// row, or every class poisoned by `NaN`/`±inf`) — the window then simply
/// casts no vote instead of panicking or detecting on garbage. A poisoned
/// window still enters the history, so it suppresses detections until it
/// slides out of the smoothing span; callers that can identify bad windows
/// earlier (the server's quarantine) keep them out of the history entirely.
pub(crate) fn push_vote(
    recent: &mut VecDeque<Vec<f32>>,
    probs: &[f32],
    smoothing: usize,
) -> Option<(usize, f32)> {
    recent.push_back(probs.to_vec());
    if recent.len() > smoothing {
        recent.pop_front();
    }
    // Smoothed posterior = mean over the recent windows.
    let mut mean = vec![0.0f32; probs.len()];
    for row in recent.iter() {
        for (m, &v) in mean.iter_mut().zip(row) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= recent.len() as f32;
    }
    // Argmax over the finite entries, keeping the *last* maximum on ties —
    // the tie-breaking the pre-hardening `Iterator::max_by` implementation
    // had, which the serve-equivalence oracles pin down.
    let mut best: Option<(usize, f32)> = None;
    for (c, &v) in mean.iter().enumerate() {
        if v.is_finite() && best.is_none_or(|(_, bv)| v >= bv) {
            best = Some((c, v));
        }
    }
    best
}

/// Sliding-window keyword detector over a continuous audio stream, serving
/// any [`InferenceBackend`].
pub struct StreamingDetector<'m, B: InferenceBackend + ?Sized> {
    backend: &'m B,
    mfcc: Mfcc,
    config: StreamingConfig,
    num_keywords: usize,
    norm_mean: Vec<f32>,
    norm_std: Vec<f32>,
    state: SessionState,
    recent: VecDeque<Vec<f32>>,
    /// Reusable MFCC workspace; no per-window allocation.
    scratch: MfccScratch,
    /// Reused `[1, 1, frames, coeffs]` input; the MFCC plan writes features
    /// straight into its buffer and normalisation happens in place.
    input: Tensor,
}

impl<'m, B: InferenceBackend + ?Sized> StreamingDetector<'m, B> {
    /// Creates a detector around an inference backend and the
    /// per-coefficient normalisation statistics its training data used,
    /// with the paper's MFCC front-end.
    ///
    /// # Panics
    ///
    /// Panics if the statistics do not have one entry per MFCC coefficient,
    /// or if the backend's class count does not exceed
    /// [`StreamingConfig::suppress_trailing`] (there would be no detectable
    /// keyword class).
    pub fn new(
        backend: &'m B,
        config: StreamingConfig,
        norm_mean: Vec<f32>,
        norm_std: Vec<f32>,
    ) -> Self {
        Self::with_mfcc(backend, config, MfccConfig::paper(), norm_mean, norm_std)
    }

    /// [`Self::new`] with an explicit MFCC configuration (e.g. the one
    /// embedded in a `.thnt2` artifact). The analysis window is one second
    /// of audio at the configured sample rate.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::new`].
    pub fn with_mfcc(
        backend: &'m B,
        config: StreamingConfig,
        mfcc_cfg: MfccConfig,
        norm_mean: Vec<f32>,
        norm_std: Vec<f32>,
    ) -> Self {
        assert_eq!(norm_mean.len(), mfcc_cfg.num_coeffs, "mean length mismatch");
        assert_eq!(norm_std.len(), mfcc_cfg.num_coeffs, "std length mismatch");
        let classes = backend.num_classes();
        assert!(
            classes > config.suppress_trailing,
            "backend has {classes} classes but {} are suppressed — nothing can be detected",
            config.suppress_trailing
        );
        let window_len = mfcc_cfg.sample_rate as usize;
        let frames = mfcc_cfg.num_frames(window_len);
        let mfcc = Mfcc::new(mfcc_cfg);
        let scratch = mfcc.plan().scratch();
        Self {
            backend,
            mfcc,
            config,
            num_keywords: classes - config.suppress_trailing,
            norm_mean,
            norm_std,
            state: SessionState::new(window_len),
            recent: VecDeque::new(),
            scratch,
            input: Tensor::zeros(&[1, 1, frames, mfcc_cfg.num_coeffs]),
        }
    }

    /// Builds a detector straight from the serving metadata embedded in a
    /// `.thnt2` artifact: artifact in, always-on pipeline out, with no
    /// `thnt-nn` model construction anywhere on the path.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::new`].
    pub fn from_meta(backend: &'m B, config: StreamingConfig, meta: &InferenceMeta) -> Self {
        Self::with_mfcc(backend, config, meta.mfcc, meta.norm_mean.clone(), meta.norm_std.clone())
    }

    /// Number of detectable keyword classes (the backend's class count
    /// minus the suppressed trailing classes).
    pub fn num_keywords(&self) -> usize {
        self.num_keywords
    }

    /// Feeds audio samples; returns any detections they trigger.
    pub fn push(&mut self, samples: &[f32]) -> Vec<Detection> {
        let mut detections = Vec::new();
        let Self {
            backend,
            mfcc,
            config,
            num_keywords,
            norm_mean,
            norm_std,
            state,
            recent,
            scratch,
            input,
        } = self;
        state.feed(samples, config.hop, |window, at_sample| {
            // Features land directly in the reused input tensor.
            mfcc.plan().compute_into(scratch, window, input.data_mut());
            normalize_in_place(input.data_mut(), norm_mean, norm_std);
            let logits = backend.infer(input);
            let classes = logits.dims()[1];
            assert_eq!(
                classes,
                *num_keywords + config.suppress_trailing,
                "backend produced {classes} logits, expected its advertised class count"
            );
            let probs = softmax(&logits);
            // Keywords only: the trailing filler classes never detect. A
            // vote of `None` (all-NaN posteriors) detects nothing.
            if let Some((best, confidence)) = push_vote(recent, probs.row(0), config.smoothing) {
                if best < *num_keywords && confidence >= config.threshold {
                    detections.push(Detection { class: best, confidence, at_sample });
                }
            }
        });
        detections
    }
}

impl<B: InferenceBackend + ?Sized> std::fmt::Debug for StreamingDetector<'_, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingDetector")
            .field("config", &self.config)
            .field("backend", &self.backend.backend_name())
            .field("consumed", &self.state.consumed())
            .finish()
    }
}

#[cfg(test)]
// Tests may unwrap freely; the panic-free discipline covers the serving
// path above, not its assertions.
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// A stub backend that always emits fixed logits.
    #[derive(Debug)]
    struct Fixed(Vec<f32>);
    impl InferenceBackend for Fixed {
        fn infer(&self, _x: &Tensor) -> Tensor {
            Tensor::from_vec(self.0.clone(), &[1, self.0.len()])
        }
        fn num_classes(&self) -> usize {
            self.0.len()
        }
        fn adds_per_sample(&self) -> u64 {
            0
        }
        fn model_bytes(&self) -> usize {
            self.0.len() * 4
        }
    }

    fn detector_over(model: &Fixed, threshold: f32) -> StreamingDetector<'_, Fixed> {
        StreamingDetector::new(
            model,
            StreamingConfig { hop: 4_000, smoothing: 2, threshold, ..Default::default() },
            vec![0.0; 10],
            vec![1.0; 10],
        )
    }

    #[test]
    fn no_detection_until_buffer_fills() {
        let mut logits = vec![0.0f32; 12];
        logits[3] = 10.0;
        let model = Fixed(logits);
        let mut det = detector_over(&model, 0.5);
        // 15k samples: buffer not yet full, no inference at all.
        assert!(det.push(&vec![0.0; 15_999]).is_empty());
        // Crossing 16k fills the buffer; next hop boundary triggers.
        let d = det.push(&vec![0.0; 8_001]);
        assert!(!d.is_empty());
        assert_eq!(d[0].class, 3);
    }

    #[test]
    fn silence_class_never_detects() {
        let mut logits = vec![0.0f32; 12];
        logits[10] = 10.0; // silence
        let model = Fixed(logits);
        let mut det = detector_over(&model, 0.1);
        assert!(det.push(&vec![0.0; 40_000]).is_empty());
    }

    #[test]
    fn threshold_gates_detections() {
        // Uniform logits -> per-class posterior 1/12 < 0.5 threshold.
        let model = Fixed(vec![1.0; 12]);
        let mut det = detector_over(&model, 0.5);
        assert!(det.push(&vec![0.0; 40_000]).is_empty());
    }

    #[test]
    fn detections_report_stream_position() {
        let mut logits = vec![0.0f32; 12];
        logits[0] = 10.0;
        let model = Fixed(logits);
        let mut det = detector_over(&model, 0.5);
        let d = det.push(&vec![0.0; 32_000]);
        assert!(!d.is_empty());
        assert!(d[0].at_sample >= 16_000);
        assert!(d[0].at_sample <= 32_000);
    }

    #[test]
    fn keyword_range_derives_from_backend_classes() {
        // A 5-class backend with the default 2 suppressed classes detects
        // keywords 0..3: class 2 fires, class 3 (first filler) never does.
        let mut logits = vec![0.0f32; 5];
        logits[2] = 10.0;
        let model = Fixed(logits);
        let mut det = detector_over(&model, 0.5);
        assert_eq!(det.num_keywords(), 3);
        let d = det.push(&vec![0.0; 32_000]);
        assert_eq!(d[0].class, 2);

        let mut filler = vec![0.0f32; 5];
        filler[3] = 10.0;
        let model = Fixed(filler);
        let mut det = detector_over(&model, 0.1);
        assert!(det.push(&vec![0.0; 40_000]).is_empty());
    }

    #[test]
    #[should_panic(expected = "suppressed")]
    fn backend_with_only_filler_classes_is_rejected() {
        let model = Fixed(vec![0.0; 2]);
        detector_over(&model, 0.5);
    }

    #[test]
    fn shared_backend_serves_multiple_detectors() {
        let mut logits = vec![0.0f32; 12];
        logits[1] = 10.0;
        let model = Fixed(logits);
        let mut a = detector_over(&model, 0.5);
        let mut b = detector_over(&model, 0.5);
        assert_eq!(a.push(&vec![0.0; 24_000])[0].class, 1);
        assert_eq!(b.push(&vec![0.0; 24_000])[0].class, 1);
    }

    #[test]
    fn session_state_windows_match_a_naive_shift_buffer() {
        // Feed a counting signal in deliberately awkward chunk sizes and
        // check every due window against a naive shift-register model.
        let window_len = 100;
        let hop = 30;
        let mut state = SessionState::new(window_len);
        let mut naive: Vec<f32> = vec![0.0; window_len];
        let mut pushed = 0usize;
        let mut due = Vec::new();
        let signal: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        for chunk in signal.chunks(7) {
            state.feed(chunk, hop, |w, at| due.push((w.to_vec(), at)));
            for &s in chunk {
                naive.rotate_left(1);
                naive[window_len - 1] = s;
                pushed += 1;
            }
        }
        // Window k ends at sample 100 + k·30 (fill first, then every hop).
        assert_eq!(due.len(), 1 + (pushed - window_len) / hop);
        for (k, (w, at)) in due.iter().enumerate() {
            let end = window_len + k * hop;
            assert_eq!(*at, end);
            let want: Vec<f32> = (end - window_len..end).map(|i| i as f32).collect();
            assert_eq!(w, &want, "window {k} contents");
        }
        assert_eq!(state.consumed(), pushed);
    }

    #[test]
    fn nan_logits_detect_nothing_and_never_panic() {
        // A backend whose every logit is NaN: softmax propagates the NaN,
        // the vote abstains, and the stream keeps flowing.
        let model = Fixed(vec![f32::NAN; 12]);
        let mut det = detector_over(&model, 0.0);
        assert!(det.push(&vec![0.0; 64_000]).is_empty());
    }

    #[test]
    fn vote_ignores_non_finite_classes() {
        use std::collections::VecDeque;
        let mut recent = VecDeque::new();
        // Class 1 is poisoned; the argmax must pick the best finite class
        // (class 2), not panic and not return the NaN.
        let got = push_vote(&mut recent, &[0.1, f32::NAN, 0.7, 0.2], 3);
        assert_eq!(got, Some((2, 0.7)));
        // An all-NaN window abstains...
        assert_eq!(push_vote(&mut recent, &[f32::NAN; 4], 3), None);
        // ...and keeps suppressing until it leaves the smoothing span.
        assert_eq!(push_vote(&mut recent, &[0.0, 0.0, 0.0, 1.0], 3), None);
        assert_eq!(push_vote(&mut recent, &[0.0, 0.0, 0.0, 1.0], 3), None);
        let (best, conf) = push_vote(&mut recent, &[0.0, 0.0, 0.0, 1.0], 3).unwrap();
        assert_eq!(best, 3);
        assert!((conf - 1.0).abs() < 1e-6);
    }

    #[test]
    fn vote_keeps_the_last_maximum_on_ties() {
        use std::collections::VecDeque;
        let mut recent = VecDeque::new();
        // Uniform posteriors: the pre-hardening `max_by` picked the last
        // maximal class, and the serve-equivalence oracles depend on it.
        assert_eq!(push_vote(&mut recent, &[0.25; 4], 3), Some((3, 0.25)));
    }

    #[test]
    fn session_state_handles_chunks_larger_than_the_window() {
        // A single chunk far larger than the ring: only the tail survives.
        let mut state = SessionState::new(10);
        let signal: Vec<f32> = (0..35).map(|i| i as f32).collect();
        let mut windows = Vec::new();
        state.feed(&signal, 10, |w, at| windows.push((w.to_vec(), at)));
        // Triggers at samples 10, 20, 30 — then 5 leftover samples.
        assert_eq!(windows.len(), 3);
        for (k, (w, at)) in windows.iter().enumerate() {
            let end = 10 * (k + 1);
            assert_eq!(*at, end);
            let want: Vec<f32> = (end - 10..end).map(|i| i as f32).collect();
            assert_eq!(w, &want);
        }
        // The next 5 samples complete the fourth hop.
        let tail: Vec<f32> = (35..40).map(|i| i as f32).collect();
        state.feed(&tail, 10, |w, at| windows.push((w.to_vec(), at)));
        assert_eq!(windows.len(), 4);
        assert_eq!(windows[3].1, 40);
        assert_eq!(windows[3].0, (30..40).map(|i| i as f32).collect::<Vec<_>>());
    }
}
