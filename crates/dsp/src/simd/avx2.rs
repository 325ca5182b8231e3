//! AVX2 implementations of the front-end primitives: 8-lane dot products,
//! a Cephes-style polynomial `ln` and the split-layout real FFT.
//!
//! The dot product keeps two independent 8-lane accumulators (breaking the
//! addition dependency chain, same trick as the packed matvec kernel) and
//! folds them at the end; the ragged tail is scalar. The log follows the
//! classic `sse_mathfun` / Cephes `logf` reduction: split the float into
//! exponent and mantissa, normalise the mantissa into `[√½, √2)`, evaluate
//! a degree-9 polynomial, and reassemble with `e·ln 2` split into a
//! high/low pair so the result keeps full f32 accuracy (absolute error
//! ≲ 3e-7 across the normal range). Inputs are clamped to the smallest
//! positive normal, so zero mel energies resolve to `ln(ε)` rather than
//! `-inf` garbage — callers add ε before the call.
//!
//! The FFT kernels ([`fft_stages`], [`fft_unpack`]) run the exact
//! operations of `rfft.rs`'s portable loops, eight butterflies or bins per
//! instruction, so their output is bit for bit the scalar backend's.
#![allow(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::{
    __m256, _mm256_add_ps, _mm256_and_ps, _mm256_blend_ps, _mm256_broadcast_ps,
    _mm256_castps256_ps128, _mm256_castps_si256, _mm256_castsi256_ps, _mm256_cmp_ps,
    _mm256_cvtepi32_ps, _mm256_extractf128_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_movehdup_ps,
    _mm256_moveldup_ps, _mm256_mul_ps, _mm256_or_ps, _mm256_permute2f128_ps, _mm256_permute_ps,
    _mm256_permutevar8x32_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32, _mm256_setr_ps,
    _mm256_setzero_ps, _mm256_srli_epi32, _mm256_storeu_ps, _mm256_sub_epi32, _mm256_sub_ps,
    _mm256_xor_ps, _mm_add_ps, _mm_add_ss, _mm_cvtss_f32, _mm_loadu_ps, _mm_movehl_ps,
    _mm_shuffle_ps, _CMP_LT_OQ,
};

use super::LOG_EPS;

/// Horizontal sum of all 8 lanes.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime. It reads no
/// memory: every operand is already a register.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hsum(v: __m256) -> f32 {
    let s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
    let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    _mm_cvtss_f32(_mm_add_ss(s, _mm_shuffle_ps(s, s, 1)))
}

/// `Σ a[i]·b[i]` with two 8-lane accumulators and a scalar tail.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime. Slices must have
/// equal length.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let (mut acc0, mut acc1) = (_mm256_setzero_ps(), _mm256_setzero_ps());
    let mut i = 0usize;
    // SAFETY: every load reads 8 floats at `i` or `i + 8` with `i + 16 <= n`
    // (or `i + 8 <= n` below), and `n == a.len() == b.len()`, which
    // `DspDispatch::dot` asserts before dispatching here.
    while i + 16 <= n {
        acc0 = _mm256_add_ps(
            acc0,
            _mm256_mul_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i))),
        );
        acc1 = _mm256_add_ps(
            acc1,
            _mm256_mul_ps(_mm256_loadu_ps(pa.add(i + 8)), _mm256_loadu_ps(pb.add(i + 8))),
        );
        i += 16;
    }
    if i + 8 <= n {
        acc0 = _mm256_add_ps(
            acc0,
            _mm256_mul_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i))),
        );
        i += 8;
    }
    let mut sum = hsum(_mm256_add_ps(acc0, acc1));
    for j in i..n {
        sum += a[j] * b[j];
    }
    sum
}

/// 8-lane natural log via the Cephes reduction; valid for `x > 0`. The
/// polynomial and ln2-split constants are Cephes' exact literals;
/// 0.693_359_375 in particular is 355/512, the hi half of the split, and
/// must not be "simplified" to a shorter decimal.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime. It reads no
/// memory: every operand is already a register.
#[allow(clippy::excessive_precision)]
#[target_feature(enable = "avx2")]
unsafe fn ln_ps(x: __m256) -> __m256 {
    let one = _mm256_set1_ps(1.0);
    // Clamp away zeros/denormals; callers guarantee positivity.
    let x = _mm256_max_ps(x, _mm256_set1_ps(f32::MIN_POSITIVE));
    let xi = _mm256_castps_si256(x);
    // Unbiased exponent + 1 (the mantissa below is folded into [0.5, 1)).
    let emm0 = _mm256_sub_epi32(_mm256_srli_epi32::<23>(xi), _mm256_set1_epi32(0x7e));
    let mut e = _mm256_cvtepi32_ps(emm0);
    // Mantissa in [0.5, 1): keep the fraction bits, force exponent of 0.5.
    let mant = _mm256_or_ps(
        _mm256_and_ps(x, _mm256_castsi256_ps(_mm256_set1_epi32(0x007f_ffff))),
        _mm256_set1_ps(0.5),
    );
    // Normalise into [√½, √2): below √½, double the mantissa and drop the
    // exponent by one.
    let mask = _mm256_cmp_ps::<_CMP_LT_OQ>(mant, _mm256_set1_ps(std::f32::consts::FRAC_1_SQRT_2));
    let tmp = _mm256_and_ps(mant, mask);
    let m = _mm256_add_ps(_mm256_sub_ps(mant, one), tmp);
    e = _mm256_sub_ps(e, _mm256_and_ps(one, mask));
    // Degree-9 Cephes polynomial for ln(1 + m).
    let z = _mm256_mul_ps(m, m);
    let mut y = _mm256_set1_ps(7.037_683_6e-2);
    for &c in &[
        -1.151_461e-1,
        1.167_699_9e-1,
        -1.242_014_1e-1,
        1.424_932_3e-1,
        -1.666_805_7e-1,
        2.000_071_5e-1,
        -2.499_999_4e-1,
        3.333_333_1e-1,
    ] {
        y = _mm256_add_ps(_mm256_mul_ps(y, m), _mm256_set1_ps(c));
    }
    y = _mm256_mul_ps(_mm256_mul_ps(y, m), z);
    // e·ln2 split into a low/high pair for accuracy.
    y = _mm256_add_ps(y, _mm256_mul_ps(e, _mm256_set1_ps(-2.121_944_4e-4)));
    y = _mm256_sub_ps(y, _mm256_mul_ps(z, _mm256_set1_ps(0.5)));
    let r = _mm256_add_ps(m, y);
    _mm256_add_ps(r, _mm256_mul_ps(e, _mm256_set1_ps(0.693_359_375)))
}

/// `dst[i] = ln(src[i] + ε)`: full 8-lane blocks through [`ln_ps`], the
/// ragged tail through scalar `f32::ln`.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime. Slices must have
/// equal length; inputs must be non-negative.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn ln_eps(src: &[f32], dst: &mut [f32]) {
    let n = src.len();
    let eps = _mm256_set1_ps(LOG_EPS);
    let mut i = 0usize;
    // SAFETY: each step loads and stores 8 floats at `i` with `i + 8 <= n`,
    // and `n == src.len() == dst.len()`, which `DspDispatch::ln_eps` asserts
    // before dispatching here.
    while i + 8 <= n {
        let v = _mm256_add_ps(_mm256_loadu_ps(src.as_ptr().add(i)), eps);
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), ln_ps(v));
        i += 8;
    }
    for j in i..n {
        dst[j] = (src[j] + LOG_EPS).ln();
    }
}

/// `−0.0` in the lanes whose `sign` entry is set, `+0.0` elsewhere: XOR
/// with it negates exactly those lanes, so `a + (b ^ mask)` computes
/// `a − b` there, bit for bit what a subtraction gives.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime. It reads no
/// memory: every operand is already a register.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sign_mask(sign: [bool; 8]) -> __m256 {
    let s = |i: usize| if sign[i] { -0.0 } else { 0.0 };
    _mm256_setr_ps(s(0), s(1), s(2), s(3), s(4), s(5), s(6), s(7))
}

/// The complex products `y·w` of eight butterflies, split: the real parts
/// `y.re·w.re − y.im·w.im` and imaginary parts `y.re·w.im + y.im·w.re`,
/// each product rounded before the sum, as the portable loop computes them.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime. It reads no
/// memory: every operand is already a register.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn cmul(y_re: __m256, y_im: __m256, w_re: __m256, w_im: __m256) -> (__m256, __m256) {
    (
        _mm256_sub_ps(_mm256_mul_ps(y_re, w_re), _mm256_mul_ps(y_im, w_im)),
        _mm256_add_ps(_mm256_mul_ps(y_re, w_im), _mm256_mul_ps(y_im, w_re)),
    )
}

/// `(re² + im²) · inv_n` per lane: one bin's periodogram power.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime. It reads no
/// memory: every operand is already a register.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn power(re: __m256, im: __m256, inv_n: __m256) -> __m256 {
    _mm256_mul_ps(_mm256_add_ps(_mm256_mul_ps(re, re), _mm256_mul_ps(im, im)), inv_n)
}

/// The in-place DIT butterfly stages of a split N/2-point transform whose
/// input is already in bit-reversed order. Stages 1–3 (spans 2, 4 and 8)
/// run inside each 8-lane block; every later stage runs eight butterflies
/// per instruction over the stage's twiddles.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime. `re.len() ==
/// im.len()` must be a power of two ≥ 8, and `tw_re` and `tw_im` must each
/// hold `re.len() − 1` stage twiddles in `rfft.rs`'s layout (stage `len`
/// at offset `len/2 − 1`).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn fft_stages(re: &mut [f32], im: &mut [f32], tw_re: &[f32], tw_im: &[f32]) {
    let half = re.len();
    let (pr, pi) = (re.as_mut_ptr(), im.as_mut_ptr());
    // Stage 1: pairs (u, b) → (u + b, u + (−b)).
    let odd = sign_mask([false, true, false, true, false, true, false, true]);
    // Stage 2: quads (u0, u1, b0, b1) with the odd twiddle −i, so
    // v1 = (b1.im, −b1.re). Real parts: (u0 + b0, u1 + v1.re, u0 − b0,
    // u1 − v1.re); imaginary parts: (u0 + b0, u1 + v1.im, u0 − b0,
    // u1 − v1.im), where u1 − v1.im = u1.im + b1.re exactly.
    let re_sign = sign_mask([false, false, true, true, false, false, true, true]);
    let im_sign = sign_mask([false, true, true, false, false, true, true, false]);
    // Stage 3: x in lanes 0–3, y in lanes 4–7, twiddles exp(−2πik/8) for
    // k = 0..4 (the table's, rounded, never exact constants) in both halves.
    let upper = sign_mask([false, false, false, false, true, true, true, true]);
    // SAFETY: the span-8 twiddles sit at offsets 3..7 and `half − 1 ≥ 7`.
    let w3_re = _mm256_broadcast_ps(&_mm_loadu_ps(tw_re.as_ptr().add(3)));
    let w3_im = _mm256_broadcast_ps(&_mm_loadu_ps(tw_im.as_ptr().add(3)));
    let mut b = 0usize;
    // SAFETY: each step loads and stores 8 floats of `re` and `im` at `b`,
    // and `b + 8 <= half` because `half` is a multiple of 8.
    while b < half {
        let (r, i) = (_mm256_loadu_ps(pr.add(b)), _mm256_loadu_ps(pi.add(b)));
        let r = _mm256_add_ps(_mm256_moveldup_ps(r), _mm256_xor_ps(_mm256_movehdup_ps(r), odd));
        let i = _mm256_add_ps(_mm256_moveldup_ps(i), _mm256_xor_ps(_mm256_movehdup_ps(i), odd));
        // Lanes (u0, u1, u0, u1) and (b0, b1, b0, b1) of each quad.
        let (u_re, u_im) = (_mm256_permute_ps::<0x44>(r), _mm256_permute_ps::<0x44>(i));
        let (b_re, b_im) = (_mm256_permute_ps::<0xEE>(r), _mm256_permute_ps::<0xEE>(i));
        // (b0.re, b1.im, b0.re, b1.im) and (b0.im, b1.re, b0.im, b1.re).
        let v_re = _mm256_xor_ps(_mm256_blend_ps::<0xAA>(b_re, b_im), re_sign);
        let v_im = _mm256_xor_ps(_mm256_blend_ps::<0xAA>(b_im, b_re), im_sign);
        let (r, i) = (_mm256_add_ps(u_re, v_re), _mm256_add_ps(u_im, v_im));
        let (x_re, x_im) =
            (_mm256_permute2f128_ps::<0x00>(r, r), _mm256_permute2f128_ps::<0x00>(i, i));
        let (y_re, y_im) =
            (_mm256_permute2f128_ps::<0x11>(r, r), _mm256_permute2f128_ps::<0x11>(i, i));
        let (v_re, v_im) = cmul(y_re, y_im, w3_re, w3_im);
        _mm256_storeu_ps(pr.add(b), _mm256_add_ps(x_re, _mm256_xor_ps(v_re, upper)));
        _mm256_storeu_ps(pi.add(b), _mm256_add_ps(x_im, _mm256_xor_ps(v_im, upper)));
        b += 8;
    }
    let mut len = 16usize;
    while len <= half {
        let h = len / 2;
        let (wr, wi) = (tw_re.as_ptr().add(h - 1), tw_im.as_ptr().add(h - 1));
        let mut s = 0usize;
        while s < half {
            let mut k = 0usize;
            // SAFETY: `s + len <= half` and `k + 8 <= h` (both powers of two
            // with `h >= 8`), so the x loads and stores at `s + k` and the y
            // ones at `s + h + k` stay inside `re` and `im`; the twiddle
            // loads read offsets `h − 1 + k .. h + 7 + k <= len − 1 <=
            // half − 1`, inside `tw_re` and `tw_im`.
            while k < h {
                let (x_re, x_im) = (_mm256_loadu_ps(pr.add(s + k)), _mm256_loadu_ps(pi.add(s + k)));
                let (y_re, y_im) =
                    (_mm256_loadu_ps(pr.add(s + h + k)), _mm256_loadu_ps(pi.add(s + h + k)));
                let (v_re, v_im) =
                    cmul(y_re, y_im, _mm256_loadu_ps(wr.add(k)), _mm256_loadu_ps(wi.add(k)));
                _mm256_storeu_ps(pr.add(s + h + k), _mm256_sub_ps(x_re, v_re));
                _mm256_storeu_ps(pi.add(s + h + k), _mm256_sub_ps(x_im, v_im));
                _mm256_storeu_ps(pr.add(s + k), _mm256_add_ps(x_re, v_re));
                _mm256_storeu_ps(pi.add(s + k), _mm256_add_ps(x_im, v_im));
                k += 8;
            }
            s += len;
        }
        len <<= 1;
    }
}

/// The conjugate-symmetry unpack, eight bins `k` at a time with their
/// mirrors `j = N/2 − k` loaded and stored lane-reversed: writes
/// `out[k]` and `out[j]` for every whole block of eight `k` in
/// `1..=N/4` and returns the first `k` it did not cover (the caller
/// finishes from there). DC and Nyquist are left to the caller.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime. `re.len() ==
/// im.len()` (= N/2) must be a power of two ≥ 2, `post_re` and `post_im`
/// must each hold `N/4 + 1` unpack twiddles, and `out.len()` must be
/// `N/2 + 1`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn fft_unpack(
    re: &[f32],
    im: &[f32],
    post_re: &[f32],
    post_im: &[f32],
    inv_n: f32,
    out: &mut [f32],
) -> usize {
    let half = re.len();
    let (pr, pi, po) = (re.as_ptr(), im.as_ptr(), out.as_mut_ptr());
    let reverse = _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);
    let (one_half, inv_n) = (_mm256_set1_ps(0.5), _mm256_set1_ps(inv_n));
    let mut k = 1usize;
    // SAFETY: `k >= 1` and `k + 8 <= half/2 + 1`, so the loads of bins
    // `k..k + 8` stay inside `re`, `im` (`half` long), `post_re` and
    // `post_im` (`half/2 + 1` long), and the store inside `out`. Their
    // mirrors `half − k − 7 ..= half − k` start at `>= half/2` and end
    // below `half`, inside `re`, `im` and `out`.
    while k + 8 <= half / 2 + 1 {
        let j = half - k - 7;
        let (zk_re, zk_im) = (_mm256_loadu_ps(pr.add(k)), _mm256_loadu_ps(pi.add(k)));
        let zj_re = _mm256_permutevar8x32_ps(_mm256_loadu_ps(pr.add(j)), reverse);
        let zj_im = _mm256_permutevar8x32_ps(_mm256_loadu_ps(pi.add(j)), reverse);
        let ze_re = _mm256_mul_ps(_mm256_add_ps(zk_re, zj_re), one_half);
        let ze_im = _mm256_mul_ps(_mm256_sub_ps(zk_im, zj_im), one_half);
        let zo_re = _mm256_mul_ps(_mm256_add_ps(zk_im, zj_im), one_half);
        let zo_im = _mm256_mul_ps(_mm256_sub_ps(zj_re, zk_re), one_half);
        let (t_re, t_im) = cmul(
            zo_re,
            zo_im,
            _mm256_loadu_ps(post_re.as_ptr().add(k)),
            _mm256_loadu_ps(post_im.as_ptr().add(k)),
        );
        let xk = power(_mm256_add_ps(ze_re, t_re), _mm256_add_ps(ze_im, t_im), inv_n);
        let xj = power(_mm256_sub_ps(ze_re, t_re), _mm256_sub_ps(ze_im, t_im), inv_n);
        // `out[k]` first: at k = j = N/4 the mirror's value lands last.
        _mm256_storeu_ps(po.add(k), xk);
        _mm256_storeu_ps(po.add(j), _mm256_permutevar8x32_ps(xj, reverse));
        k += 8;
    }
    k
}
