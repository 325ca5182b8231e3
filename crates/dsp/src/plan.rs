//! The planned MFCC front-end: every table computed once, every per-frame
//! temporary reused.
//!
//! The original per-call pipeline ([`crate::mfcc::reference_mfcc`], kept as
//! the testing oracle) re-derived its trigonometry on every frame: a full
//! complex FFT with iteratively-accumulated twiddles, a dense 40×513 mel
//! product, and — worst of all — 400 fresh `cos()` evaluations per frame
//! inside `dct_ii`, plus a `Complex` buffer allocation per power spectrum.
//! At the paper's 49-frames-per-second-window geometry that made MFCC the
//! serving bottleneck (~2.4 ms/window against ~0.3 ms of packed inference).
//!
//! [`MfccPlan`] precomputes all of it at construction:
//!
//! * the Hann window,
//! * a real-input half-spectrum FFT plan ([`RealFft`]: bit-reversal and
//!   split twiddle tables, conjugate-symmetry unpacking),
//! * the mel filterbank as a **sparse band matrix** — each triangular
//!   filter stored as `(start_bin, weights)` so applying it is one short
//!   dot product instead of a 513-wide row scan,
//! * the DCT-II folded into a `num_coeffs × num_mel` matrix applied as a
//!   small GEMV — zero `cos()` calls at runtime.
//!
//! All per-frame temporaries (windowed frame, FFT scratch, power spectrum,
//! mel energies, log buffer) live in a caller-owned reusable
//! [`MfccScratch`], so a steady-state stream performs **no allocation per
//! frame**. The FFT, mel accumulation, log-energy pass and DCT GEMV route
//! through the [`crate::simd`] dispatch (AVX2/NEON with scalar fallback,
//! honouring `THNT_KERNEL` exactly like the packed inference kernels).
//!
//! Two steps make up extraction, and both are public.
//! [`MfccPlan::preemphasize_into`] is the one pre-emphasis formula, and
//! [`MfccPlan::frame_into`] turns one frame of pre-emphasised samples into
//! its row of coefficients. [`MfccPlan::compute_into`] runs them over a
//! whole signal, serially. The serving path (the streaming detector and
//! every serving shard, serving's only parallelism) runs them as audio
//! arrives instead: each sample is pre-emphasised once, and each frame is
//! extracted once, when its last sample arrives.
//! [`MfccPlan::compute_into_par`] fans a whole signal's frames out over
//! `tensor::par` workers. It computes the same bits as the serial driver
//! but is slower on small hosts, so [`MfccPlan::compute`] runs serially
//! too.

use thnt_tensor::{parallel_zip_chunks, Tensor};

use crate::mel::mel_filterbank;
use crate::mfcc::MfccConfig;
use crate::rfft::RealFft;
use crate::simd::DspDispatch;
use crate::window::hann_window;

/// Reusable per-frame workspace of one worker thread.
///
/// Obtained from [`MfccPlan::scratch`]; sized for exactly that plan's
/// geometry. One scratch serves any number of sequential
/// [`MfccPlan::compute_into`] and [`MfccPlan::frame_into`] calls with zero
/// steady-state allocation; for concurrent extraction give each worker its
/// own (the plan itself is immutable and freely shared).
#[derive(Debug, Clone)]
pub struct MfccScratch {
    /// Pre-emphasized samples of the signal being extracted (filled only
    /// when pre-emphasis is enabled; grown to the longest signal and reused
    /// across calls).
    emph: Vec<f32>,
    /// Per-frame buffers.
    bufs: FrameBufs,
}

/// The strictly per-frame buffers: everything downstream of framing.
#[derive(Debug, Clone)]
struct FrameBufs {
    /// Windowed frame samples (`frame_len`).
    windowed: Vec<f32>,
    /// FFT workspace: the `fft_size / 2`-point complex signal split
    /// `re | im` (`fft_size` floats).
    fft: Vec<f32>,
    /// Half-spectrum power (`fft_size / 2 + 1`).
    power: Vec<f32>,
    /// Mel filter energies (`num_mel`).
    mel: Vec<f32>,
    /// Log energies (`num_mel`).
    logmel: Vec<f32>,
}

/// A fully precomputed MFCC pipeline for one [`MfccConfig`].
///
/// Immutable after construction and `Sync`: one plan is shared by every
/// stream, session and worker thread of a serving process. See the module
/// docs for what is precomputed.
///
/// # Example
///
/// ```
/// use thnt_dsp::{MfccConfig, MfccPlan};
///
/// let plan = MfccPlan::new(MfccConfig::paper());
/// let mut scratch = plan.scratch();
/// let audio = vec![0.0f32; 16_000];
/// let mut feats = vec![0.0f32; 49 * 10];
/// let frames = plan.compute_into(&mut scratch, &audio, &mut feats);
/// assert_eq!(frames, 49);
/// ```
#[derive(Debug, Clone)]
pub struct MfccPlan {
    config: MfccConfig,
    /// Periodic Hann window (`frame_len`).
    window: Vec<f32>,
    /// Real-input FFT plan (twiddles, bit-reversal, unpack tables).
    rfft: RealFft,
    /// First spectrum bin of each mel filter's support.
    mel_start: Vec<usize>,
    /// Prefix offsets into [`Self::mel_weights`] (`num_mel + 1` entries).
    mel_off: Vec<usize>,
    /// Concatenated per-filter triangle weights (band-trimmed).
    mel_weights: Vec<f32>,
    /// Folded orthonormal DCT-II: `num_coeffs × num_mel`, row-major.
    dct: Vec<f32>,
    /// The SIMD backend the hot loops route through (resolved once): the
    /// FFT, the mel and DCT dot products and the log-energy pass.
    dispatch: DspDispatch,
}

impl MfccPlan {
    /// Builds the plan for `config`, precomputing every table.
    ///
    /// # Panics
    ///
    /// Panics if `fft_size` is smaller than `frame_len` or not a power of
    /// two, if the mel band is invalid, or if `num_coeffs > num_mel`.
    pub fn new(config: MfccConfig) -> Self {
        assert!(
            config.fft_size >= config.frame_len,
            "fft_size {} < frame_len {}",
            config.fft_size,
            config.frame_len
        );
        assert!(
            config.num_coeffs <= config.num_mel,
            "cannot keep {} coefficients of {} mel energies",
            config.num_coeffs,
            config.num_mel
        );
        let window = hann_window(config.frame_len);
        let rfft = RealFft::new(config.fft_size);
        // Band-trim the dense triangular filterbank into a sparse layout:
        // each filter is non-zero only on its triangle's support.
        let bank = mel_filterbank(
            config.num_mel,
            config.fft_size,
            config.sample_rate,
            config.f_lo,
            config.f_hi,
        );
        let mut mel_start = Vec::with_capacity(config.num_mel);
        let mut mel_off = Vec::with_capacity(config.num_mel + 1);
        let mut mel_weights = Vec::new();
        mel_off.push(0);
        for f in 0..config.num_mel {
            let (start, weights) = bank.band(f);
            mel_start.push(start);
            mel_weights.extend_from_slice(weights);
            mel_off.push(mel_weights.len());
        }
        // Fold the orthonormal DCT-II into a dense matrix (f64 tables cast
        // to f32 — more accurate than the per-call f32 cos it replaces).
        let n = config.num_mel;
        let mut dct = Vec::with_capacity(config.num_coeffs * n);
        for k in 0..config.num_coeffs {
            let scale = if k == 0 { (1.0 / n as f64).sqrt() } else { (2.0 / n as f64).sqrt() };
            for t in 0..n {
                let angle = std::f64::consts::PI * k as f64 * (2 * t + 1) as f64 / (2 * n) as f64;
                dct.push((scale * angle.cos()) as f32);
            }
        }
        Self {
            config,
            window,
            rfft,
            mel_start,
            mel_off,
            mel_weights,
            dct,
            dispatch: *DspDispatch::get(),
        }
    }

    /// The configuration this plan was built for.
    pub fn config(&self) -> &MfccConfig {
        &self.config
    }

    /// The SIMD backend the plan's hot loops execute on.
    pub fn dispatch(&self) -> DspDispatch {
        self.dispatch
    }

    /// Allocates a scratch workspace sized for this plan's geometry.
    pub fn scratch(&self) -> MfccScratch {
        MfccScratch { emph: Vec::new(), bufs: self.frame_bufs() }
    }

    fn frame_bufs(&self) -> FrameBufs {
        FrameBufs {
            windowed: vec![0.0; self.config.frame_len],
            fft: vec![0.0; self.rfft.scratch_len()],
            power: vec![0.0; self.rfft.num_bins()],
            mel: vec![0.0; self.config.num_mel],
            logmel: vec![0.0; self.config.num_mel],
        }
    }

    /// Appends the pre-emphasised `samples` to `out`: each sample minus
    /// `preemphasis ×` its predecessor. The first sample's predecessor is
    /// `prev`; with `None` (the start of a signal) it passes through. With
    /// pre-emphasis disabled (`preemphasis <= 0`) the samples are appended
    /// as they are.
    ///
    /// This is the one pre-emphasis formula. [`Self::compute_into`] applies
    /// it to a whole signal; a stream applies it to each piece as it
    /// arrives, passing the last sample of the piece before as `prev`, and
    /// gets the same values bit for bit.
    pub fn preemphasize_into(&self, prev: Option<f32>, samples: &[f32], out: &mut Vec<f32>) {
        let a = self.config.preemphasis;
        if a <= 0.0 {
            out.extend_from_slice(samples);
            return;
        }
        let Some(&first) = samples.first() else { return };
        out.push(prev.map_or(first, |p| first - a * p));
        out.extend(samples.windows(2).map(|w| w[1] - a * w[0]));
    }

    /// Extracts one frame of `frame_len` already pre-emphasised samples
    /// (see [`Self::preemphasize_into`]) into its `num_coeffs`
    /// coefficients: Hann window → real FFT → sparse mel → log → DCT GEMV.
    ///
    /// This is the per-frame step of [`Self::compute_into`]. A frame cut
    /// from a stream's pre-emphasised samples therefore equals the matching
    /// row of extracting any window that contains it, bit for bit, for
    /// finite audio. That includes a window's frame 0, whose first sample a
    /// stream pre-emphasises against a predecessor the window does not
    /// hold: the periodic Hann window's first tap is exactly `0.0`, so that
    /// sample never reaches the spectrum.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not `frame_len` samples long or `row` is not
    /// `num_coeffs` long.
    pub fn frame_into(&self, scratch: &mut MfccScratch, frame: &[f32], row: &mut [f32]) {
        assert_eq!(frame.len(), self.config.frame_len, "frame length mismatch");
        assert_eq!(row.len(), self.config.num_coeffs, "row length mismatch");
        self.extract_frame(&mut scratch.bufs, frame, row);
    }

    /// One frame through window → rfft → sparse mel → log → DCT GEMV.
    fn extract_frame(&self, bufs: &mut FrameBufs, frame: &[f32], row: &mut [f32]) {
        let FrameBufs { windowed, fft, power, mel, logmel } = bufs;
        for ((w, &x), &h) in windowed.iter_mut().zip(frame).zip(&self.window) {
            *w = x * h;
        }
        self.rfft.power_into_with(&self.dispatch, windowed, fft, power);
        for (m, e) in mel.iter_mut().enumerate() {
            let weights = &self.mel_weights[self.mel_off[m]..self.mel_off[m + 1]];
            let start = self.mel_start[m];
            *e = self.dispatch.dot(weights, &power[start..start + weights.len()]);
        }
        self.dispatch.ln_eps(mel, logmel);
        let n = self.config.num_mel;
        for (k, o) in row.iter_mut().enumerate() {
            *o = self.dispatch.dot(&self.dct[k * n..(k + 1) * n], logmel);
        }
    }

    /// The samples the first `frames` (at least one) frames of `audio`
    /// read, pre-emphasised into `emph` and returned — or borrowed from
    /// `audio` itself when pre-emphasis is disabled (no copy).
    fn preemphasized<'a>(
        &self,
        audio: &'a [f32],
        frames: usize,
        emph: &'a mut Vec<f32>,
    ) -> &'a [f32] {
        let c = &self.config;
        let audio = &audio[..(frames - 1) * c.hop + c.frame_len];
        if c.preemphasis <= 0.0 {
            return audio;
        }
        emph.clear();
        self.preemphasize_into(None, audio, emph);
        emph
    }

    /// Extracts MFCC features serially: writes `num_frames × num_coeffs`
    /// values into `out` and returns the frame count. Zero allocation in
    /// steady state (the scratch is reused).
    ///
    /// [`Self::compute_into_par`] computes the same bits across
    /// `tensor::par` workers.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not `num_frames(audio.len()) * num_coeffs`.
    pub fn compute_into(&self, scratch: &mut MfccScratch, audio: &[f32], out: &mut [f32]) -> usize {
        let c = &self.config;
        let frames = c.num_frames(audio.len());
        assert_eq!(out.len(), frames * c.num_coeffs, "output buffer size mismatch");
        if frames == 0 {
            return 0;
        }
        let MfccScratch { emph, bufs } = scratch;
        let signal = self.preemphasized(audio, frames, emph);
        for (f, row) in out.chunks_mut(c.num_coeffs).enumerate() {
            self.extract_frame(bufs, &signal[f * c.hop..f * c.hop + c.frame_len], row);
        }
        frames
    }

    /// [`Self::compute_into`] with the frames fanned out across
    /// `tensor::par` workers (each worker gets its own per-frame buffers;
    /// `scratch` is used for the shared pre-emphasis pass). Results are
    /// identical to the serial driver — frames are independent.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::compute_into`].
    pub fn compute_into_par(
        &self,
        scratch: &mut MfccScratch,
        audio: &[f32],
        out: &mut [f32],
    ) -> usize {
        let c = &self.config;
        let frames = c.num_frames(audio.len());
        assert_eq!(out.len(), frames * c.num_coeffs, "output buffer size mismatch");
        if frames == 0 {
            return 0;
        }
        let signal = self.preemphasized(audio, frames, &mut scratch.emph);
        parallel_zip_chunks(out, c.num_coeffs, |f0, chunk| {
            let mut bufs = self.frame_bufs();
            for (df, row) in chunk.chunks_mut(c.num_coeffs).enumerate() {
                let f = f0 + df;
                self.extract_frame(&mut bufs, &signal[f * c.hop..f * c.hop + c.frame_len], row);
            }
        });
        frames
    }

    /// Allocating convenience wrapper: serial extraction
    /// ([`Self::compute_into`]) into a fresh `[num_frames, num_coeffs]`
    /// tensor.
    pub fn compute(&self, audio: &[f32]) -> Tensor {
        let c = self.config;
        let frames = c.num_frames(audio.len());
        let mut out = Tensor::zeros(&[frames, c.num_coeffs]);
        self.compute_into(&mut self.scratch(), audio, out.data_mut());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mfcc::reference_mfcc;

    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
    }

    /// A chirp plus deterministic broadband noise. The noise floor matters:
    /// with a pure tone, out-of-band mel energies sit at the `ln(e + ε)`
    /// floor where the log amplifies tiny FFT rounding differences; real
    /// audio (and the golden fixture) is broadband.
    fn chirp(len: usize) -> Vec<f32> {
        let mut state = 0x1234_5678u32;
        (0..len)
            .map(|t| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let noise = (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5;
                let t = t as f32;
                (2.0 * std::f32::consts::PI * (200.0 + 0.05 * t) * t / 16_000.0).sin() * 0.5
                    + noise * 0.1
            })
            .collect()
    }

    #[test]
    fn matches_the_reference_pipeline_on_paper_config() {
        let cfg = MfccConfig::paper();
        let plan = MfccPlan::new(cfg);
        let audio = chirp(16_000);
        let want = reference_mfcc(&cfg, &audio);
        let got = plan.compute(&audio);
        assert_eq!(got.dims(), want.dims());
        let diff = max_abs_diff(got.data(), want.data());
        assert!(diff < 1e-4, "planned pipeline diverged from reference: {diff}");
    }

    #[test]
    fn serial_and_parallel_drivers_agree() {
        let cfg = MfccConfig::paper();
        let plan = MfccPlan::new(cfg);
        let audio = chirp(16_000);
        let mut scratch = plan.scratch();
        let mut serial = vec![0.0f32; 49 * 10];
        plan.compute_into(&mut scratch, &audio, &mut serial);
        let mut par = vec![0.0f32; 49 * 10];
        plan.compute_into_par(&mut scratch, &audio, &mut par);
        // Frames are fully independent; the drivers must agree bitwise.
        assert_eq!(serial, par);
    }

    #[test]
    fn stream_preemphasised_frames_match_the_whole_window_bit_for_bit() {
        for preemphasis in [0.97, 0.0] {
            let cfg = MfccConfig { preemphasis, ..MfccConfig::paper() };
            let plan = MfccPlan::new(cfg);
            let mut scratch = plan.scratch();
            // The window starts 3000 samples into the stream, so the stream
            // pre-emphasises its first sample against a predecessor the
            // window does not hold.
            let stream = chirp(20_000);
            let start = 3_000;
            let mut whole = vec![0.0f32; 49 * 10];
            plan.compute_into(&mut scratch, &stream[start..start + 16_000], &mut whole);
            // Pre-emphasise the stream piece by piece, as it would arrive.
            let mut emph = Vec::new();
            let mut prev = None;
            for piece in stream.chunks(777) {
                plan.preemphasize_into(prev, piece, &mut emph);
                prev = piece.last().copied();
            }
            let mut once = Vec::new();
            plan.preemphasize_into(None, &stream, &mut once);
            assert!(
                emph.iter().zip(&once).all(|(a, b)| a.to_bits() == b.to_bits()),
                "piecewise pre-emphasis differs from one pass (preemphasis {preemphasis})"
            );
            let mut row = [0.0f32; 10];
            for (f, want) in whole.chunks(10).enumerate() {
                let at = start + f * cfg.hop;
                plan.frame_into(&mut scratch, &emph[at..at + cfg.frame_len], &mut row);
                assert!(
                    row.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "frame {f} differs from the whole window (preemphasis {preemphasis})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "frame length mismatch")]
    fn rejects_a_frame_of_the_wrong_length() {
        let plan = MfccPlan::new(MfccConfig::paper());
        plan.frame_into(&mut plan.scratch(), &[0.0; 639], &mut [0.0; 10]);
    }

    #[test]
    fn scratch_is_reusable_across_signals() {
        let cfg = MfccConfig::paper();
        let plan = MfccPlan::new(cfg);
        let mut scratch = plan.scratch();
        let a = chirp(16_000);
        let mut out_a = vec![0.0f32; 49 * 10];
        plan.compute_into(&mut scratch, &a, &mut out_a);
        // A different (shorter) signal through the same scratch.
        let b = vec![0.25f32; 8_000];
        let frames_b = cfg.num_frames(8_000);
        let mut out_b = vec![0.0f32; frames_b * 10];
        plan.compute_into(&mut scratch, &b, &mut out_b);
        // And the first signal again — identical to the first pass.
        let mut out_a2 = vec![0.0f32; 49 * 10];
        plan.compute_into(&mut scratch, &a, &mut out_a2);
        assert_eq!(out_a, out_a2);
    }

    #[test]
    fn disabled_preemphasis_borrows_the_input() {
        let cfg = MfccConfig { preemphasis: 0.0, ..MfccConfig::paper() };
        let plan = MfccPlan::new(cfg);
        let audio = chirp(16_000);
        let mut scratch = plan.scratch();
        let mut out = vec![0.0f32; 49 * 10];
        plan.compute_into(&mut scratch, &audio, &mut out);
        assert!(scratch.emph.is_empty(), "no-preemphasis path must not copy the signal");
        let want = reference_mfcc(&cfg, &audio);
        assert!(max_abs_diff(&out, want.data()) < 1e-4);
    }

    #[test]
    fn short_signal_yields_no_frames() {
        let plan = MfccPlan::new(MfccConfig::paper());
        let mut scratch = plan.scratch();
        let mut out = [0.0f32; 0];
        assert_eq!(plan.compute_into(&mut scratch, &[0.0; 100], &mut out), 0);
        assert_eq!(plan.compute(&[0.0; 100]).dims(), &[0, 10]);
    }

    #[test]
    #[should_panic(expected = "cannot keep")]
    fn rejects_more_coeffs_than_mel_filters() {
        MfccPlan::new(MfccConfig { num_mel: 8, num_coeffs: 9, ..MfccConfig::paper() });
    }
}
