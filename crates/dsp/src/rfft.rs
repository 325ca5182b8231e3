//! Planned real-input FFT: half-spectrum power from one N/2-point complex
//! transform, on a split `re | im` layout that the SIMD dispatch runs.
//!
//! The streaming front-end only ever transforms *real* audio frames, yet the
//! generic [`crate::fft::fft_in_place`] path pays for a full N-point complex
//! FFT per frame — and recomputes every twiddle factor with a chain of
//! complex multiplications on every call. [`RealFft`] is the planned
//! replacement:
//!
//! * **Pack** the N real samples into an N/2-point complex signal
//!   (`z[m] = x[2m] + i·x[2m+1]`), halving the butterfly work. The signal
//!   lives in one `f32` scratch laid out split, `re[N/2] | im[N/2]`, and the
//!   pack scatters straight into bit-reversed order.
//! * **Transform** with tables computed once at plan construction: the
//!   bit-reversal permutation and one twiddle factor per butterfly
//!   (`exp(−2πik/len)` for every stage), computed in f64, rounded to f32 and
//!   stored split like the scratch. Looking them up is also *more* accurate
//!   than the iterative `w·wlen` recurrence.
//! * **Unpack** the half-spectrum using the conjugate-symmetry
//!   post-processing twiddles `W_N^k` (split the same way), emitting
//!   `|X[k]|²` for the `N/2 + 1` non-negative frequency bins directly — no
//!   full complex spectrum is ever materialised.
//!
//! The split layout puts eight real parts (or eight imaginary parts) of
//! neighbouring butterflies in one 256-bit register, so the transform
//! routes through [`DspDispatch`] like the mel dot products. The `scalar`
//! and `neon` backends run the portable loops below. The `avx2` backend
//! runs the first three stages inside each 8-lane block with shuffles and
//! sign flips, every later stage eight butterflies per instruction, and the
//! unpack eight bins at a time; sizes below N = 16 take the portable loops.
//!
//! **Every backend computes the same bits.** Each butterfly keeps the
//! operands, twiddle values and operation order of the array-of-`Complex`
//! transform this module replaced (kept in the tests as the oracle): no
//! fused multiply-add, no constant twiddles where the table holds a rounded
//! one, and no rewrite but exact ones such as `x − y` as `x + (−y)`.
//!
//! The plan owns no per-call state: callers pass a reusable scratch of
//! [`RealFft::scratch_len`] floats, so a hot loop performs zero
//! allocations.

use std::array::from_fn;

use crate::simd::DspDispatch;
#[cfg(target_arch = "x86_64")]
use crate::simd::{avx2, DspKernel};

/// A precomputed real-input FFT of one fixed power-of-two size.
///
/// Construction computes the bit-reversal and twiddle tables once;
/// [`RealFft::power_into`] then produces half-spectrum power from a real
/// signal with no allocation and no trigonometry.
#[derive(Debug, Clone)]
pub struct RealFft {
    /// Full transform size N (power of two, ≥ 2).
    n: usize,
    /// N/2 — the size of the packed complex transform.
    half: usize,
    /// Bit-reversal permutation for the N/2-point transform.
    bitrev: Vec<u32>,
    /// Stage twiddles `exp(−2πik/len)` for `len = 2, 4, …, N/2`, split
    /// `re[N/2 − 1] | im[N/2 − 1]`; in each half, the stage with butterfly
    /// span `len` starts at offset `len/2 − 1`.
    twiddles: Vec<f32>,
    /// Unpack twiddles `W_N^k = exp(−2πik/N)` for `k ≤ N/4`, split
    /// `re | im`.
    post: Vec<f32>,
}

/// `exp(iθ)` for each angle θ, computed in f64, rounded to f32 and laid
/// out split: every real part, then every imaginary part.
fn split_unit_roots(angles: &[f64]) -> Vec<f32> {
    let re = angles.iter().map(|a| a.cos() as f32);
    re.chain(angles.iter().map(|a| a.sin() as f32)).collect()
}

impl RealFft {
    /// Builds the plan for transforms of `n` real samples.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or is smaller than 2.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT size must be a power of two, got {n}");
        assert!(n >= 2, "real FFT needs at least 2 samples, got {n}");
        let half = n / 2;
        let bits = half.trailing_zeros();
        let bitrev = (0..half)
            .map(|i| if half <= 1 { 0 } else { (i.reverse_bits() >> (usize::BITS - bits)) as u32 })
            .collect();
        // One twiddle per butterfly index of every stage: stage `len` uses
        // `exp(−2πik/len)` for k in 0..len/2, stored at `len/2 − 1 + k`.
        let mut stage_angles = Vec::with_capacity(half.saturating_sub(1));
        let mut len = 2usize;
        while len <= half {
            for k in 0..len / 2 {
                stage_angles.push(-2.0 * std::f64::consts::PI * k as f64 / len as f64);
            }
            len <<= 1;
        }
        let post_angles: Vec<f64> =
            (0..=half / 2).map(|k| -2.0 * std::f64::consts::PI * k as f64 / n as f64).collect();
        Self {
            n,
            half,
            bitrev,
            twiddles: split_unit_roots(&stage_angles),
            post: split_unit_roots(&post_angles),
        }
    }

    /// The full transform size N.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Required scratch length: N floats, the N/2-point complex signal
    /// split `re | im`.
    pub fn scratch_len(&self) -> usize {
        self.n
    }

    /// Number of output bins: N/2 + 1 (non-negative frequencies).
    pub fn num_bins(&self) -> usize {
        self.half + 1
    }

    /// Power spectrum of a real signal, zero-padded to N: writes
    /// `|X[k]|² / N` for `k = 0..=N/2` into `out` (periodogram convention,
    /// matching [`crate::fft::power_spectrum`]), on the process-wide
    /// [`DspDispatch::get`] backend.
    ///
    /// `scratch` is caller-owned reusable workspace of
    /// [`Self::scratch_len`] floats; its prior contents are ignored and
    /// overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `signal.len() > N`, `scratch.len() != N`, or
    /// `out.len() != N/2 + 1`.
    pub fn power_into(&self, signal: &[f32], scratch: &mut [f32], out: &mut [f32]) {
        self.power_into_with(DspDispatch::get(), signal, scratch, out);
    }

    /// [`Self::power_into`] on an explicit backend. Every backend writes
    /// the same bits.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::power_into`].
    pub fn power_into_with(
        &self,
        dispatch: &DspDispatch,
        signal: &[f32],
        scratch: &mut [f32],
        out: &mut [f32],
    ) {
        let (n, half) = (self.n, self.half);
        assert!(signal.len() <= n, "signal ({}) longer than fft size ({n})", signal.len());
        assert_eq!(scratch.len(), n, "scratch length must be N");
        assert_eq!(out.len(), half + 1, "output length must be N/2 + 1");
        let (re, im) = scratch.split_at_mut(half);
        // Pack `z[m] = x[2m] + i·x[2m+1]` scattered straight into
        // bit-reversed order (bit reversal is an involution), fusing the
        // permutation pass into the fill; unwritten slots are the zero pad.
        re.fill(0.0);
        im.fill(0.0);
        for (m, pair) in signal.chunks_exact(2).enumerate() {
            let at = self.bitrev[m] as usize;
            re[at] = pair[0];
            im[at] = pair[1];
        }
        if signal.len() % 2 == 1 {
            re[self.bitrev[signal.len() / 2] as usize] = signal[signal.len() - 1];
        }
        let (tw_re, tw_im) = self.twiddles.split_at(half - 1);
        let (post_re, post_im) = self.post.split_at(half / 2 + 1);
        let inv_n = 1.0 / n as f32;
        // The first bin the portable unpack loop below still owes.
        let first_bin = match dispatch.kernel() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `DspDispatch` construction verified AVX2 support.
            // `re` and `im` are `half` floats each (`scratch.len() == n` is
            // asserted above), `half` is a power of two ≥ 8, the stage
            // tables hold `half − 1` and the unpack tables `half/2 + 1`
            // entries (sized in `new`), and `out` is `half + 1` long
            // (asserted above): the preconditions both kernels document.
            DspKernel::Avx2 if half >= 8 => unsafe {
                avx2::fft_stages(re, im, tw_re, tw_im);
                avx2::fft_unpack(re, im, post_re, post_im, inv_n, out)
            },
            _ => {
                butterflies(re, im, tw_re, tw_im);
                1
            }
        };
        // Unpack via conjugate symmetry. For k in 1..=N/4 with j = N/2 − k:
        //   Ze = (Z[k] + conj(Z[j])) / 2     (spectrum of the even samples)
        //   Zo = (Z[k] − conj(Z[j])) / 2i    (spectrum of the odd samples)
        //   X[k] = Ze + W_N^k·Zo,   X[j] = conj(Ze − W_N^k·Zo)
        // and the conjugation is irrelevant to |X|². DC and Nyquist come
        // straight from Z[0]. At k = j = N/4 the X[j] write lands last.
        out[0] = (re[0] + im[0]) * (re[0] + im[0]) * inv_n;
        out[half] = (re[0] - im[0]) * (re[0] - im[0]) * inv_n;
        for k in first_bin..=half / 2 {
            let j = half - k;
            let (ze_re, ze_im) = ((re[k] + re[j]) * 0.5, (im[k] - im[j]) * 0.5);
            let (zo_re, zo_im) = ((im[k] + im[j]) * 0.5, (re[j] - re[k]) * 0.5);
            let (w_re, w_im) = (post_re[k], post_im[k]);
            let t_re = zo_re * w_re - zo_im * w_im;
            let t_im = zo_re * w_im + zo_im * w_re;
            let (xk_re, xk_im) = (ze_re + t_re, ze_im + t_im);
            let (xj_re, xj_im) = (ze_re - t_re, ze_im - t_im);
            out[k] = (xk_re * xk_re + xk_im * xk_im) * inv_n;
            out[j] = (xj_re * xj_re + xj_im * xj_im) * inv_n;
        }
    }

    /// Allocating convenience wrapper around [`RealFft::power_into`].
    pub fn power(&self, signal: &[f32]) -> Vec<f32> {
        let mut scratch = vec![0.0f32; self.scratch_len()];
        let mut out = vec![0.0f32; self.num_bins()];
        self.power_into(signal, &mut scratch, &mut out);
        out
    }
}

/// The portable in-place DIT butterfly passes over a split N/2-point signal
/// already in bit-reversed order, with the stage twiddles split the same
/// way (`N/2 − 1` of each part).
///
/// The first two stages use only the trivial twiddles `1` and `−i`, so
/// they run multiply-free. Later stages take four butterflies at a time as
/// `[f32; 4]` values, which the compiler turns into 4-lane instructions on
/// any target; lane-parallel element-wise arithmetic computes the same bits.
fn butterflies(re: &mut [f32], im: &mut [f32], tw_re: &[f32], tw_im: &[f32]) {
    let half = re.len();
    if half >= 2 {
        for (r, i) in re.chunks_exact_mut(2).zip(im.chunks_exact_mut(2)) {
            (r[0], r[1]) = (r[0] + r[1], r[0] - r[1]);
            (i[0], i[1]) = (i[0] + i[1], i[0] - i[1]);
        }
    }
    if half >= 4 {
        for (r, i) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
            // Twiddle of the odd butterfly is −i: (re, im) → (im, −re).
            let (v_re, v_im) = (i[3], -r[3]);
            (r[0], r[2]) = (r[0] + r[2], r[0] - r[2]);
            (i[0], i[2]) = (i[0] + i[2], i[0] - i[2]);
            (r[1], r[3]) = (r[1] + v_re, r[1] - v_re);
            (i[1], i[3]) = (i[1] + v_im, i[1] - v_im);
        }
    }
    let mut len = 8usize;
    while len <= half {
        let h = len / 2;
        let (w_re, w_im) = (&tw_re[h - 1..len - 1], &tw_im[h - 1..len - 1]);
        for (r, i) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
            let (x_re, y_re) = r.split_at_mut(h);
            let (x_im, y_im) = i.split_at_mut(h);
            let mut k = 0;
            while k < h {
                let (xr, xi) = (lanes(x_re, k), lanes(x_im, k));
                let (yr, yi) = (lanes(y_re, k), lanes(y_im, k));
                let (wr, wi) = (lanes(w_re, k), lanes(w_im, k));
                let v_re: [f32; 4] = from_fn(|l| yr[l] * wr[l] - yi[l] * wi[l]);
                let v_im: [f32; 4] = from_fn(|l| yr[l] * wi[l] + yi[l] * wr[l]);
                y_re[k..k + 4].copy_from_slice(&from_fn::<_, 4, _>(|l| xr[l] - v_re[l]));
                y_im[k..k + 4].copy_from_slice(&from_fn::<_, 4, _>(|l| xi[l] - v_im[l]));
                x_re[k..k + 4].copy_from_slice(&from_fn::<_, 4, _>(|l| xr[l] + v_re[l]));
                x_im[k..k + 4].copy_from_slice(&from_fn::<_, 4, _>(|l| xi[l] + v_im[l]));
                k += 4;
            }
        }
        len <<= 1;
    }
}

/// The four floats of `s` from `k` as one value.
#[inline(always)]
fn lanes(s: &[f32], k: usize) -> [f32; 4] {
    s[k..k + 4].try_into().expect("a four-float range converts to [f32; 4]")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{power_spectrum, Complex};
    use crate::simd::DspKernel;
    use proptest::prelude::*;

    /// The array-of-`Complex` transform [`RealFft`] replaced, kept verbatim
    /// as the bitwise oracle: its own f64-computed tables, its butterflies
    /// and its unpack, unchanged.
    struct ComplexFft {
        n: usize,
        half: usize,
        bitrev: Vec<u32>,
        twiddles: Vec<Complex>,
        post: Vec<Complex>,
    }

    impl ComplexFft {
        fn new(n: usize) -> Self {
            let half = n / 2;
            let bits = half.trailing_zeros();
            let bitrev =
                (0..half)
                    .map(|i| {
                        if half <= 1 {
                            0
                        } else {
                            (i.reverse_bits() >> (usize::BITS - bits)) as u32
                        }
                    })
                    .collect();
            let mut twiddles = Vec::with_capacity(half.saturating_sub(1));
            let mut len = 2usize;
            while len <= half {
                for k in 0..len / 2 {
                    let angle = -2.0 * std::f64::consts::PI * k as f64 / len as f64;
                    twiddles.push(Complex::new(angle.cos() as f32, angle.sin() as f32));
                }
                len <<= 1;
            }
            let post = (0..=half / 2)
                .map(|k| {
                    let angle = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
                    Complex::new(angle.cos() as f32, angle.sin() as f32)
                })
                .collect();
            Self { n, half, bitrev, twiddles, post }
        }

        fn butterflies(&self, buf: &mut [Complex]) {
            let half = self.half;
            if half >= 2 {
                for pair in buf.chunks_exact_mut(2) {
                    let (u, b) = (pair[0], pair[1]);
                    pair[0] = Complex::new(u.re + b.re, u.im + b.im);
                    pair[1] = Complex::new(u.re - b.re, u.im - b.im);
                }
            }
            if half >= 4 {
                for quad in buf.chunks_exact_mut(4) {
                    let (u0, u1, b0, b1) = (quad[0], quad[1], quad[2], quad[3]);
                    // Twiddle of the odd butterfly is −i: (re, im) → (im, −re).
                    let v1 = Complex::new(b1.im, -b1.re);
                    quad[0] = Complex::new(u0.re + b0.re, u0.im + b0.im);
                    quad[2] = Complex::new(u0.re - b0.re, u0.im - b0.im);
                    quad[1] = Complex::new(u1.re + v1.re, u1.im + v1.im);
                    quad[3] = Complex::new(u1.re - v1.re, u1.im - v1.im);
                }
            }
            let mut len = 8usize;
            while len <= half {
                let tw = &self.twiddles[len / 2 - 1..len - 1];
                for chunk in buf.chunks_exact_mut(len) {
                    let (a, b) = chunk.split_at_mut(len / 2);
                    for ((x, y), &w) in a.iter_mut().zip(b.iter_mut()).zip(tw) {
                        let v = Complex::new(y.re * w.re - y.im * w.im, y.re * w.im + y.im * w.re);
                        *y = Complex::new(x.re - v.re, x.im - v.im);
                        *x = Complex::new(x.re + v.re, x.im + v.im);
                    }
                }
                len <<= 1;
            }
        }

        fn power_into(&self, signal: &[f32], scratch: &mut [Complex], out: &mut [f32]) {
            let (n, half) = (self.n, self.half);
            assert!(signal.len() <= n, "signal ({}) longer than fft size ({n})", signal.len());
            assert_eq!(scratch.len(), half, "scratch length must be N/2");
            assert_eq!(out.len(), half + 1, "output length must be N/2 + 1");
            scratch.fill(Complex::default());
            let pairs = signal.len() / 2;
            for (m, pair) in signal.chunks_exact(2).enumerate() {
                scratch[self.bitrev[m] as usize] = Complex::new(pair[0], pair[1]);
            }
            if signal.len() % 2 == 1 {
                scratch[self.bitrev[pairs] as usize] = Complex::new(signal[signal.len() - 1], 0.0);
            }
            self.butterflies(scratch);
            let inv_n = 1.0 / n as f32;
            let z0 = scratch[0];
            out[0] = (z0.re + z0.im) * (z0.re + z0.im) * inv_n;
            out[half] = (z0.re - z0.im) * (z0.re - z0.im) * inv_n;
            for k in 1..=half / 2 {
                let j = half - k;
                let (zk, zj) = (scratch[k], scratch[j]);
                let ze = Complex::new((zk.re + zj.re) * 0.5, (zk.im - zj.im) * 0.5);
                let zo = Complex::new((zk.im + zj.im) * 0.5, (zj.re - zk.re) * 0.5);
                let w = self.post[k];
                let t = Complex::new(zo.re * w.re - zo.im * w.im, zo.re * w.im + zo.im * w.re);
                let xk = Complex::new(ze.re + t.re, ze.im + t.im);
                let xj = Complex::new(ze.re - t.re, ze.im - t.im);
                out[k] = xk.norm_sq() * inv_n;
                out[j] = xj.norm_sq() * inv_n;
            }
        }

        /// The power spectrum and the N/2-point complex spectrum `Z` the
        /// butterflies leave in the scratch.
        fn power(&self, signal: &[f32]) -> (Vec<f32>, Vec<Complex>) {
            let mut scratch = vec![Complex::default(); self.half];
            let mut out = vec![0.0f32; self.half + 1];
            self.power_into(signal, &mut scratch, &mut out);
            (out, scratch)
        }
    }

    /// A deterministic signal of `len` samples: a `zeros` share (out of
    /// 100) of exact zeros of either sign, the rest uniform in
    /// `±scale`.
    fn signal(len: usize, seed: u64, scale: f32, zeros: u64) -> Vec<f32> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let unit = (state >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0;
                match state % 100 {
                    z if z < zeros / 2 => 0.0,
                    z if z < zeros => -0.0,
                    _ => unit * scale,
                }
            })
            .collect()
    }

    /// Asserts that every backend's power spectrum of `x` at size `n`, and
    /// the complex spectrum `Z` its butterflies leave in the scratch, equal
    /// the oracle's bit for bit. The scratch and output start as NaN, so a
    /// slot the call fails to write shows too. `Z` is checked because
    /// `|X|²` can absorb a difference in the last bits of a butterfly: a
    /// stage-3 twiddle of exactly `0` instead of the table's 6.1e-17 leaves
    /// every power bin unchanged on the signals tried, but not `Z`.
    fn assert_bitwise(n: usize, x: &[f32]) {
        let (want_power, want_z) = ComplexFft::new(n).power(x);
        let plan = RealFft::new(n);
        for kernel in DspKernel::available() {
            let dispatch = DspDispatch::new(kernel).unwrap();
            let mut scratch = vec![f32::NAN; plan.scratch_len()];
            let mut out = vec![f32::NAN; plan.num_bins()];
            plan.power_into_with(&dispatch, x, &mut scratch, &mut out);
            let len = x.len();
            for (k, (got, want)) in out.iter().zip(&want_power).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{kernel} N={n} len={len} bin {k}: {got:e} vs {want:e}"
                );
            }
            let (re, im) = scratch.split_at(n / 2);
            for (m, want) in want_z.iter().enumerate() {
                assert_eq!(
                    (re[m].to_bits(), im[m].to_bits()),
                    (want.re.to_bits(), want.im.to_bits()),
                    "{kernel} N={n} len={len} Z[{m}]: ({:e}, {:e}) vs {want:?}",
                    re[m],
                    im[m]
                );
            }
        }
    }

    #[test]
    fn every_size_and_length_matches_the_complex_oracle_bit_for_bit() {
        // Every power of two up to the loader's 4096 cap, at signal lengths
        // 0, 1, odd, N/2, N − 1 and N, from zeros-only through a few
        // impulses (whose butterflies meet exact zeros) to ±1e4.
        for log_n in 1..=12 {
            let n = 1usize << log_n;
            for len in [0, 1, (n / 3) | 1, n / 2, n - 1, n] {
                for (scale, zeros) in [(1.0, 100), (1.0, 95), (1.0, 0), (1e-3, 30), (1e4, 10)] {
                    assert_bitwise(n, &signal(len, (n * 31 + len) as u64, scale, zeros));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn any_signal_matches_the_complex_oracle_bit_for_bit(
            log_n in 1u32..13,
            len_frac in 0.0f64..1.0,
            seed in 0u64..u64::MAX,
            log_scale in -6i32..5,
            zeros in 0u64..101,
        ) {
            let n = 1usize << log_n;
            let len = ((n + 1) as f64 * len_frac) as usize;
            let x = signal(len, seed, 10f32.powi(log_scale), zeros);
            assert_bitwise(n, &x);
        }
    }

    #[test]
    fn matches_complex_path_on_a_tone() {
        let n = 512;
        let signal: Vec<f32> = (0..n)
            .map(|t| (2.0 * std::f32::consts::PI * 1000.0 * t as f32 / 16_000.0).sin())
            .collect();
        let plan = RealFft::new(n);
        let fast = plan.power(&signal);
        let slow = power_spectrum(&signal, n);
        assert_eq!(fast.len(), slow.len());
        for (k, (a, b)) in fast.iter().zip(&slow).enumerate() {
            assert!((a - b).abs() < 1e-3, "bin {k}: {a} vs {b}");
        }
    }

    #[test]
    fn handles_zero_padding_and_odd_lengths() {
        for sig_len in [0usize, 1, 7, 100, 128] {
            let signal: Vec<f32> =
                (0..sig_len).map(|t| ((t * 37 % 19) as f32 - 9.0) / 9.0).collect();
            let plan = RealFft::new(128);
            let fast = plan.power(&signal);
            let slow = power_spectrum(&signal, 128);
            for (k, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert!((a - b).abs() < 1e-4, "len {sig_len} bin {k}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn smallest_size_is_exact() {
        // N = 2: X[0] = x0 + x1, X[1] = x0 − x1.
        let plan = RealFft::new(2);
        let p = plan.power(&[3.0, 1.0]);
        assert_eq!(p.len(), 2);
        assert!((p[0] - 16.0 / 2.0).abs() < 1e-6);
        assert!((p[1] - 4.0 / 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        RealFft::new(12);
    }

    #[test]
    #[should_panic(expected = "scratch length must be N")]
    fn rejects_a_short_scratch() {
        // One float short: a vector kernel would write past the scratch.
        let plan = RealFft::new(1024);
        plan.power_into(&[1.0; 640], &mut [0.0; 1023], &mut [0.0; 513]);
    }

    #[test]
    #[should_panic(expected = "output length must be N/2 + 1")]
    fn rejects_a_short_output() {
        // One bin short: the unpack would write past `out`.
        let plan = RealFft::new(1024);
        plan.power_into(&[1.0; 640], &mut [0.0; 1024], &mut [0.0; 512]);
    }

    #[test]
    #[should_panic(expected = "longer than fft size")]
    fn rejects_a_signal_longer_than_the_transform() {
        let plan = RealFft::new(16);
        plan.power_into(&[1.0; 17], &mut [0.0; 16], &mut [0.0; 9]);
    }

    #[test]
    fn tables_have_expected_sizes() {
        let plan = RealFft::new(1024);
        assert_eq!(plan.scratch_len(), 1024);
        assert_eq!(plan.num_bins(), 513);
        assert_eq!(plan.twiddles.len(), 2 * 511);
        assert_eq!(plan.post.len(), 2 * 257);
    }
}
