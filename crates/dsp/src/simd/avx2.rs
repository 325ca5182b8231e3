//! AVX2 implementations of the front-end primitives: 8-lane dot products
//! and a Cephes-style polynomial `ln`.
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

#![allow(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::{
    __m256, _mm256_add_ps, _mm256_and_ps, _mm256_castps256_ps128, _mm256_castps_si256,
    _mm256_castsi256_ps, _mm256_cmp_ps, _mm256_cvtepi32_ps, _mm256_extractf128_ps, _mm256_loadu_ps,
    _mm256_max_ps, _mm256_mul_ps, _mm256_or_ps, _mm256_set1_epi32, _mm256_set1_ps,
    _mm256_setzero_ps, _mm256_srli_epi32, _mm256_storeu_ps, _mm256_sub_epi32, _mm256_sub_ps,
    _mm_add_ps, _mm_add_ss, _mm_cvtss_f32, _mm_movehl_ps, _mm_shuffle_ps, _CMP_LT_OQ,
};

use super::LOG_EPS;

/// Horizontal sum of all 8 lanes.
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

/// 8-lane natural log via the Cephes reduction; valid for `x > 0`.
// The polynomial and ln2-split constants are Cephes' exact literals;
// 0.693_359_375 in particular is 355/512, the hi half of the split, and
// must not be "simplified" to a shorter decimal.
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
