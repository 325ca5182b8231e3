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
//! * extracts each MFCC frame once, as soon as its last sample arrives,
//!   keeping only the samples of the frames still being filled,
//! * every `hop` samples, runs the finished features of the one-second
//!   window that ends there through the backend,
//! * mean-smooths the posteriors of the last `smoothing` windows,
//! * reports a detection only when the smoothed class is a keyword and its
//!   confidence clears `threshold`.
//!
//! The per-stream state is a crate-private frame stream, which the
//! multi-session server ([`crate::serve::ShardedStreamServer`]) keeps per
//! session too: one frame of pre-emphasised samples plus the feature rows
//! of the windows not yet due. At the paper's geometry and default hop that
//! is about 7 KB, and no window of audio is ever held.
//!
//! The backend is held by shared reference: inference is `&self`, so one
//! compiled engine can serve many concurrent detectors.

// Serving hot path: failures must surface as values (skipped votes, typed
// errors in `serve`), never as panics — one bad stream must not take down a
// multiplexed server. CI additionally greps this file's non-test region.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;

use thnt_dsp::{MfccConfig, MfccPlan, MfccScratch};
use thnt_nn::{softmax, InferenceBackend};
use thnt_tensor::Tensor;

use crate::artifact::InferenceMeta;

/// Configuration of the streaming loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingConfig {
    /// Samples between successive inferences (default: 8000 = 0.5 s).
    ///
    /// Each frame is extracted once, however many windows read it. A hop
    /// that is a multiple of the MFCC frame stride makes consecutive
    /// windows share frames: the default is 25 strides of the paper's
    /// 320-sample stride, so each window adds 25 new frames to the 24 it
    /// shares. Any other hop extracts every window's frames once.
    pub hop: usize,
    /// Number of recent windows in the majority vote; 0 is treated as 1.
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

/// Standardises feature rows in place: `v ← (v − mean[c]) / std[c]`, row
/// by row.
fn normalize_in_place(data: &mut [f32], mean: &[f32], std: &[f32]) {
    let coeffs = mean.len();
    for row in data.chunks_mut(coeffs) {
        for ((v, &m), &s) in row.iter_mut().zip(mean).zip(std) {
            *v = (*v - m) / s;
        }
    }
}

/// What a [`FrameStream`] extracts with: the MFCC plan, a reusable
/// workspace, the per-coefficient normalisation, and the window geometry.
/// [`StreamingDetector`] holds one, and every serving shard holds one per
/// model; the streams fed through it hold only their own samples and rows.
pub(crate) struct FrontEnd {
    plan: MfccPlan,
    scratch: MfccScratch,
    /// The row of the frame being extracted (`num_coeffs`).
    row: Vec<f32>,
    norm_mean: Vec<f32>,
    norm_std: Vec<f32>,
    /// Samples per analysis window: one second at the configured rate.
    window: usize,
    /// Frames per window.
    frames: usize,
}

impl FrontEnd {
    /// Builds the front end of `config` with its normalisation statistics.
    ///
    /// # Panics
    ///
    /// Panics if the statistics do not have one entry per MFCC coefficient,
    /// if the sample rate makes a window of no samples, or on an MFCC
    /// configuration [`MfccPlan::new`] rejects.
    pub(crate) fn new(config: MfccConfig, norm_mean: Vec<f32>, norm_std: Vec<f32>) -> Self {
        assert_eq!(norm_mean.len(), config.num_coeffs, "mean length mismatch");
        assert_eq!(norm_std.len(), config.num_coeffs, "std length mismatch");
        let window = config.sample_rate as usize;
        assert!(window > 0, "window length must be positive");
        let plan = MfccPlan::new(config);
        Self {
            scratch: plan.scratch(),
            row: vec![0.0; config.num_coeffs],
            frames: config.num_frames(window),
            window,
            plan,
            norm_mean,
            norm_std,
        }
    }

    /// A window's feature map shape: frames × coefficients.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.frames, self.row.len())
    }
}

/// A window that has started but is not yet due.
struct OpenWindow {
    /// Stream position at its end.
    end: usize,
    /// Its normalised rows extracted so far, in frame order.
    rows: Vec<f32>,
}

/// One stream's features in the making: the pre-emphasised samples that
/// unextracted frames still read, and the rows of every window that has
/// started but is not yet due.
///
/// Windows end where they always have: the first once `max(window, hop)`
/// samples have arrived, then one every `max(hop, 1)` samples. A window
/// opens when its first sample is next. Each sample is pre-emphasised once,
/// on arrival, against its predecessor in the stream. Each distinct frame
/// start that some window reads is extracted exactly once, when that
/// frame's last sample arrives, and its normalised row is copied into every
/// open window that reads it. A hop of whole frame strides therefore shares
/// rows between consecutive windows, and any other hop extracts each
/// window's frames once. A due window hands its finished rows over.
///
/// For finite audio the rows are bit for bit those of extracting the whole
/// window with [`MfccPlan::compute_into`] and normalising it: the one
/// sample pre-emphasised differently is a window's first, which has a
/// predecessor in the stream but not in the window, and the periodic Hann
/// window's first tap (exactly `0.0`) keeps it out of the spectrum. A
/// non-finite sample poisons every frame that reads it, and through
/// pre-emphasis a frame that starts right after it.
///
/// Memory: at most one frame of samples, in a buffer allocated once, one
/// next start per frame of a window, and the rows of the open windows —
/// `⌈window / max(hop, 1)⌉` of them. At the paper's geometry and default
/// hop that is 2 560 B of samples, 392 B of starts and two windows of
/// 1 960 B. A hop much shorter than a frame stride keeps many windows open:
/// a 1-sample hop keeps one per sample of the window.
///
/// Fed only through the one [`FrontEnd`] it was made for.
pub(crate) struct FrameStream {
    /// Samples consumed over the stream's life.
    consumed: usize,
    /// The last sample consumed: the next one's pre-emphasis predecessor.
    prev: Option<f32>,
    /// Pre-emphasised samples `consumed − tail.len()..consumed`. Never
    /// longer than one frame.
    tail: Vec<f32>,
    /// Samples between window ends: `max(hop, 1)`.
    period: usize,
    /// End of the next window to open.
    next_end: usize,
    /// For each frame index `j`, where frame `j` of the first window whose
    /// frame `j` is not yet extracted starts. Equal entries are one frame
    /// that several windows read.
    next_start: Vec<usize>,
    /// The least of `next_start`: where the next frame to extract starts.
    /// `None` for a front end with no frames per window.
    next_frame: Option<usize>,
    /// Open windows, oldest first.
    open: VecDeque<OpenWindow>,
}

impl FrameStream {
    /// An empty stream through `front` at stream hop `hop`.
    pub(crate) fn new(front: &FrontEnd, hop: usize) -> Self {
        let config = front.plan.config();
        let first_end = front.window.max(hop);
        let first_start = first_end - front.window;
        Self {
            consumed: 0,
            prev: None,
            tail: Vec::with_capacity(config.frame_len),
            period: hop.max(1),
            next_end: first_end,
            next_start: (0..front.frames).map(|j| first_start + j * config.hop).collect(),
            next_frame: (front.frames > 0).then_some(first_start),
            open: VecDeque::new(),
        }
    }

    /// Total samples consumed over the lifetime of the stream.
    pub(crate) fn consumed(&self) -> usize {
        self.consumed
    }

    /// Feeds `samples`, invoking `on_window(features, at_sample)` for every
    /// window that becomes due: `features` is its finished `frames ×
    /// coeffs` normalised map, `at_sample` the stream position at its end.
    pub(crate) fn feed<F: FnMut(Vec<f32>, usize)>(
        &mut self,
        front: &mut FrontEnd,
        samples: &[f32],
        mut on_window: F,
    ) {
        let mut rest = samples;
        loop {
            self.settle(front, &mut on_window);
            if rest.is_empty() {
                return;
            }
            // Up to the next event, samples are only appended.
            let take = self.next_event(front).saturating_sub(self.consumed).min(rest.len());
            let (chunk, tail) = rest.split_at(take);
            rest = tail;
            self.append(front, chunk);
        }
    }

    /// The next stream position at which a frame completes, a window falls
    /// due or a window opens.
    fn next_event(&self, front: &FrontEnd) -> usize {
        let completes = self.next_frame.map(|f| f + front.plan.config().frame_len);
        let due = self.open.front().map(|w| w.end);
        let opens = self.next_end - front.window;
        [completes, due].into_iter().flatten().fold(opens, usize::min)
    }

    /// Handles the events at the current position, in order: the frame
    /// that completes here is extracted into every open window that reads
    /// it, the window that ends here is handed over, and the window that
    /// starts here opens.
    fn settle<F: FnMut(Vec<f32>, usize)>(&mut self, front: &mut FrontEnd, on_window: &mut F) {
        let FrontEnd { plan, scratch, row, norm_mean, norm_std, window, frames } = front;
        let (frame_len, stride) = (plan.config().frame_len, plan.config().hop);
        if let Some(start) = self.next_frame.filter(|&f| f + frame_len == self.consumed) {
            let at = start + self.tail.len() - self.consumed;
            plan.frame_into(scratch, &self.tail[at..at + frame_len], row);
            normalize_in_place(row, norm_mean, norm_std);
            // The window that reads it as frame `j` starts `j` strides
            // earlier; windows start `period` apart from the oldest open one.
            let oldest = self.open.front().map_or(0, |w| w.end - *window);
            let mut next_frame = usize::MAX;
            for (j, next) in self.next_start.iter_mut().enumerate() {
                if *next == start {
                    let index = (start - j * stride - oldest) / self.period;
                    if let Some(w) = self.open.get_mut(index) {
                        w.rows.extend_from_slice(row);
                    }
                    *next += self.period;
                }
                next_frame = next_frame.min(*next);
            }
            self.next_frame = Some(next_frame);
        }
        if self.open.front().is_some_and(|w| w.end == self.consumed) {
            if let Some(w) = self.open.pop_front() {
                on_window(w.rows, w.end);
            }
        }
        if self.next_end - *window == self.consumed {
            let rows = Vec::with_capacity(*frames * row.len());
            self.open.push_back(OpenWindow { end: self.next_end, rows });
            self.next_end += self.period;
        }
    }

    /// Consumes `chunk`, which holds no event: drops the samples that no
    /// unextracted frame reads any more (none reads before `next_frame`)
    /// and pre-emphasises the rest into the tail.
    fn append(&mut self, front: &FrontEnd, chunk: &[f32]) {
        let keep_from = self.next_frame.unwrap_or(usize::MAX);
        let stale = keep_from.saturating_sub(self.consumed - self.tail.len());
        self.tail.drain(..stale.min(self.tail.len()));
        let skip = keep_from.saturating_sub(self.consumed).min(chunk.len());
        let prev = match skip {
            0 => self.prev,
            s => Some(chunk[s - 1]),
        };
        front.plan.preemphasize_into(prev, &chunk[skip..], &mut self.tail);
        self.prev = chunk.last().copied().or(self.prev);
        self.consumed += chunk.len();
    }
}

/// Pushes one window's posteriors into the smoothing history and returns the
/// `(class, confidence)` of the best smoothed class — the shared vote step
/// of [`StreamingDetector`] and [`crate::serve::ShardedStreamServer`]'s
/// shards. The history keeps the last `smoothing` windows, at least one.
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
    if recent.len() > smoothing.max(1) {
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
    front: FrontEnd,
    config: StreamingConfig,
    num_keywords: usize,
    stream: FrameStream,
    recent: VecDeque<Vec<f32>>,
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
        let front = FrontEnd::new(mfcc_cfg, norm_mean, norm_std);
        let classes = backend.num_classes();
        assert!(
            classes > config.suppress_trailing,
            "backend has {classes} classes but {} are suppressed — nothing can be detected",
            config.suppress_trailing
        );
        Self {
            backend,
            stream: FrameStream::new(&front, config.hop),
            front,
            config,
            num_keywords: classes - config.suppress_trailing,
            recent: VecDeque::new(),
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
        let Self { backend, front, config, num_keywords, stream, recent } = self;
        let (frames, coeffs) = front.shape();
        stream.feed(front, samples, |features, at_sample| {
            let logits = backend.infer(&Tensor::from_vec(features, &[1, 1, frames, coeffs]));
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
            .field("consumed", &self.stream.consumed())
            .finish()
    }
}

#[cfg(test)]
// Tests may unwrap freely; the panic-free discipline covers the serving
// path above, not its assertions.
#[allow(clippy::unwrap_used, clippy::expect_used)]
pub(crate) mod tests {
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

    /// A small front end that keeps debug-build tests fast: 2 kHz audio,
    /// 256-sample frames at a 256-sample stride, 7 frames per 2000-sample
    /// window. The serving tests share it.
    pub(crate) fn small_mfcc() -> MfccConfig {
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

    /// A noisy chirp: broadband, so no mel band sits at the log floor.
    fn noisy_chirp(config: &MfccConfig, len: usize, rng: &mut impl rand::Rng) -> Vec<f32> {
        (0..len)
            .map(|t| {
                let phase = t as f32 / config.sample_rate;
                (2.0 * std::f32::consts::PI * (90.0 + 70.0 * phase) * phase).sin() * 0.4
                    + rng.gen_range(-0.05f32..0.05)
            })
            .collect()
    }

    /// Per-coefficient normalisation statistics that move every row.
    fn test_norm(coeffs: usize) -> (Vec<f32>, Vec<f32>) {
        let mean = (0..coeffs).map(|c| 0.3 * c as f32 - 1.0).collect();
        let std = (0..coeffs).map(|c| 0.5 + 0.25 * c as f32).collect();
        (mean, std)
    }

    /// Extracts and normalises one whole window from scratch.
    fn whole_window_rows(
        config: MfccConfig,
        window: &[f32],
        mean: &[f32],
        std: &[f32],
    ) -> Vec<f32> {
        let plan = MfccPlan::new(config);
        let mut rows = vec![0.0f32; config.num_frames(window.len()) * config.num_coeffs];
        plan.compute_into(&mut plan.scratch(), window, &mut rows);
        normalize_in_place(&mut rows, mean, std);
        rows
    }

    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Feeds a noisy chirp through one [`FrameStream`] in random chunks of
    /// 1 sample to more than a window, at a hop of kind `kind`: 0 whole
    /// strides shorter than a window, 1 off the stride, 2 longer than a
    /// window, 3 zero. Every due window must end where the window schedule
    /// puts it, and its rows must equal extracting and normalising that
    /// window's samples from scratch, bit for bit.
    fn frame_stream_matches_whole_windows(config: MfccConfig, seed: u64, kind: usize) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(seed);
        let (len, stride) = (config.sample_rate as usize, config.hop);
        let (frames, coeffs) = (config.num_frames(len), config.num_coeffs);
        let hop = match kind {
            0 => stride * rng.gen_range(1..frames),
            1 => stride * rng.gen_range(0..frames) + rng.gen_range(1..stride),
            2 => len + rng.gen_range(1..len),
            _ => 0,
        };
        let (first, period) = (len.max(hop), hop.max(1));
        let total = first + 7 * period + rng.gen_range(0..period);
        let stream = noisy_chirp(&config, total, &mut rng);
        let (mean, std) = test_norm(coeffs);

        let mut front = FrontEnd::new(config, mean.clone(), std.clone());
        let mut frame_stream = FrameStream::new(&front, hop);
        let mut due = Vec::new();
        let mut fed = 0;
        while fed < total {
            let most = if rng.gen_bool(0.5) { stride } else { 2 * len };
            let chunk = rng.gen_range(1..=most).min(total - fed);
            frame_stream
                .feed(&mut front, &stream[fed..fed + chunk], |rows, end| due.push((rows, end)));
            fed += chunk;
        }
        assert_eq!(frame_stream.consumed(), total);
        let ends: Vec<usize> = due.iter().map(|&(_, end)| end).collect();
        let want_ends: Vec<usize> = (0..8).map(|k| first + k * period).collect();
        assert_eq!(ends, want_ends, "window ends at hop {hop} (seed {seed})");

        for (rows, end) in &due {
            let want = whole_window_rows(config, &stream[end - len..*end], &mean, &std);
            assert!(
                same_bits(rows, &want),
                "window ending at {end} differs at hop {hop} (seed {seed})"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(3))]

        /// The frame stream on the paper's 49×10 front end, at every
        /// non-zero hop kind per case (hop 0 has its own test: it extracts
        /// a frame per sample, which is slow in debug builds).
        #[test]
        fn frame_stream_matches_whole_windows_on_the_paper_front_end(seed in 0u64..10_000) {
            for kind in 0..3 {
                frame_stream_matches_whole_windows(MfccConfig::paper(), seed, kind);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(8))]

        /// The frame stream on the serving tests' 256-stride front end, at
        /// every hop kind per case.
        #[test]
        fn frame_stream_matches_whole_windows_on_the_small_front_end(seed in 0u64..10_000) {
            for kind in 0..4 {
                frame_stream_matches_whole_windows(small_mfcc(), seed, kind);
            }
        }
    }

    #[test]
    fn frame_stream_matches_whole_windows_at_hop_zero_on_the_paper_front_end() {
        frame_stream_matches_whole_windows(MfccConfig::paper(), 11, 3);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(8))]

        /// The rows the frame stream shares between windows on the serving
        /// tests' 256-stride front end. At a hop of `k` whole strides
        /// shorter than a window, fed in random chunks up to each window's
        /// end, every window falls due at that end, its first `7 − k` rows
        /// are its predecessor's last `7 − k`, and it equals a whole-window
        /// extraction bit for bit.
        #[test]
        fn frame_cache_matches_whole_windows_on_the_small_front_end(seed in 0u64..10_000) {
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};

            let config = small_mfcc();
            let len = config.sample_rate as usize;
            let (frames, coeffs) = (config.num_frames(len), config.num_coeffs);
            let mut rng = SmallRng::seed_from_u64(seed);
            let k = rng.gen_range(1..frames);
            let hop = k * config.hop;
            let audio = noisy_chirp(&config, len + 23 * hop, &mut rng);
            let (mean, std) = test_norm(coeffs);
            let mut front = FrontEnd::new(config, mean.clone(), std.clone());
            let mut stream = FrameStream::new(&front, hop);
            let mut fed = 0;
            let mut prev: Option<Vec<f32>> = None;
            for n in 0..24 {
                let end = len + n * hop;
                let mut due = Vec::new();
                while fed < end {
                    let chunk = rng.gen_range(1..=config.hop).min(end - fed);
                    stream.feed(&mut front, &audio[fed..fed + chunk], |rows, at| due.push((rows, at)));
                    fed += chunk;
                }
                proptest::prop_assert_eq!(due.len(), 1, "window {} at hop {}", n, hop);
                let (rows, at) = due.pop().unwrap();
                proptest::prop_assert_eq!(at, end);
                if let Some(prev) = &prev {
                    let shared = (frames - k) * coeffs;
                    proptest::prop_assert!(
                        same_bits(&rows[..shared], &prev[k * coeffs..]),
                        "window {} shares no rows at hop {}", n, hop
                    );
                }
                let want = whole_window_rows(config, &audio[end - len..end], &mean, &std);
                proptest::prop_assert!(same_bits(&rows, &want), "window {} at hop {}", n, hop);
                prev = Some(rows);
            }
        }
    }

    #[test]
    fn session_state_windows_match_a_naive_shift_buffer() {
        // Feed a chirp in deliberately awkward 7-sample chunks at an
        // off-stride hop, and check every due window against a naive
        // shift-register model of the last window's samples.
        let config = small_mfcc();
        let (window_len, hop) = (2_000, 300);
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(3);
        let signal = noisy_chirp(&config, 5_000, &mut rng);
        let (mean, std) = test_norm(config.num_coeffs);
        let mut front = FrontEnd::new(config, mean.clone(), std.clone());
        let mut stream = FrameStream::new(&front, hop);
        let mut naive: Vec<f32> = vec![0.0; window_len];
        let mut snapshots = Vec::new();
        let mut pushed = 0usize;
        let mut due = Vec::new();
        for chunk in signal.chunks(7) {
            stream.feed(&mut front, chunk, |rows, at| due.push((rows, at)));
            for &s in chunk {
                naive.rotate_left(1);
                naive[window_len - 1] = s;
                pushed += 1;
                if pushed >= window_len && (pushed - window_len).is_multiple_of(hop) {
                    snapshots.push((naive.clone(), pushed));
                }
            }
        }
        // Window k ends at sample 2000 + k·300 (fill first, then every hop).
        assert_eq!(due.len(), 1 + (pushed - window_len) / hop);
        assert_eq!(due.len(), snapshots.len());
        for (k, ((rows, at), (naive, end))) in due.iter().zip(&snapshots).enumerate() {
            assert_eq!(at, end, "window {k} end");
            let want = whole_window_rows(config, naive, &mean, &std);
            assert!(same_bits(rows, &want), "window {k} contents");
        }
        assert_eq!(stream.consumed(), pushed);
    }

    #[test]
    fn session_state_handles_chunks_larger_than_the_window() {
        // A single chunk of three and a half windows: only the samples of
        // the frame in progress survive it.
        let config = small_mfcc();
        let window_len = 2_000;
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(5);
        let signal = noisy_chirp(&config, 8_000, &mut rng);
        let (mean, std) = test_norm(config.num_coeffs);
        let mut front = FrontEnd::new(config, mean.clone(), std.clone());
        let mut stream = FrameStream::new(&front, window_len);
        let mut windows = Vec::new();
        stream.feed(&mut front, &signal[..7_000], |rows, at| windows.push((rows, at)));
        // Due at samples 2000, 4000 and 6000, with 1000 samples left over.
        assert_eq!(windows.len(), 3);
        assert!(stream.tail.len() <= config.frame_len, "{} samples kept", stream.tail.len());
        assert!(stream.tail.capacity() <= config.frame_len, "{}", stream.tail.capacity());
        // The next 1000 samples complete the fourth window.
        stream.feed(&mut front, &signal[7_000..], |rows, at| windows.push((rows, at)));
        assert_eq!(windows.len(), 4);
        for (k, (rows, at)) in windows.iter().enumerate() {
            let end = window_len * (k + 1);
            assert_eq!(*at, end);
            let want = whole_window_rows(config, &signal[end - window_len..end], &mean, &std);
            assert!(same_bits(rows, &want), "window {k} contents");
        }
    }

    #[test]
    fn a_stream_holds_one_frame_of_samples_plus_its_open_windows_rows() {
        use rand::SeedableRng;

        // Ten seconds of paper-geometry audio in hop-sized chunks: a sample
        // buffer that ever held a whole chunk would keep that capacity.
        let config = MfccConfig::paper();
        let mut front = FrontEnd::new(config, vec![0.0; 10], vec![1.0; 10]);
        let mut stream = FrameStream::new(&front, 8_000);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let audio = noisy_chirp(&config, 160_000, &mut rng);
        let mut windows = 0;
        for chunk in audio.chunks(8_000) {
            stream.feed(&mut front, chunk, |rows, _| {
                assert_eq!(rows.len(), 49 * 10);
                windows += 1;
            });
            assert!(stream.tail.capacity() <= config.frame_len, "{}", stream.tail.capacity());
            // ⌈16 000 / 8 000⌉ windows are open between feeds.
            assert!(stream.open.len() <= 2, "{} open windows", stream.open.len());
            for w in &stream.open {
                assert!(w.rows.capacity() <= 49 * 10, "{}", w.rows.capacity());
            }
        }
        // Windows end at 16 000, 24 000, …, 160 000.
        assert_eq!(windows, 19);
    }

    #[test]
    fn zero_smoothing_votes_like_one() {
        let mut recent = VecDeque::new();
        assert_eq!(push_vote(&mut recent, &[0.2, 0.8], 0), Some((1, 0.8)));
        assert_eq!(push_vote(&mut recent, &[0.9, 0.1], 0), Some((0, 0.9)));
        assert_eq!(recent.len(), 1);

        let mut logits = vec![0.0f32; 12];
        logits[3] = 10.0;
        let model = Fixed(logits);
        let detect = |smoothing| {
            let config = StreamingConfig { hop: 8_000, smoothing, ..Default::default() };
            StreamingDetector::new(&model, config, vec![0.0; 10], vec![1.0; 10])
                .push(&vec![0.0; 40_000])
        };
        let once = detect(1);
        assert_eq!(once.len(), 4, "windows at 16 000, 24 000, 32 000 and 40 000 detect");
        assert_eq!(detect(0), once);
    }
}
