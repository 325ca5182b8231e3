//! NEON implementations of the front-end primitives: 4-lane dot products
//! and the same Cephes-style polynomial `ln` as the AVX2 backend.
//!
//! The design mirrors `avx2.rs` at half the lane width. Compile-gated to
//! aarch64; CI cross-checks the build (`cargo check --target
//! aarch64-unknown-linux-gnu`) but runtime behaviour is only provable on
//! arm hardware — same caveat as the packed NEON kernel.

#![allow(unsafe_op_in_unsafe_fn)]

use std::arch::aarch64::{
    float32x4_t, vaddq_f32, vaddvq_f32, vandq_u32, vbslq_f32, vcltq_f32, vcvtq_f32_s32,
    vdupq_n_f32, vdupq_n_s32, vdupq_n_u32, vld1q_f32, vmaxq_f32, vmulq_f32, vorrq_u32,
    vreinterpretq_f32_u32, vreinterpretq_s32_u32, vreinterpretq_u32_f32, vshrq_n_u32, vst1q_f32,
    vsubq_f32, vsubq_s32,
};

use super::LOG_EPS;

/// `Σ a[i]·b[i]` with two 4-lane accumulators and a scalar tail.
///
/// # Safety
///
/// The caller must have verified NEON support at runtime. Slices must have
/// equal length.
#[target_feature(enable = "neon")]
pub(super) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let (mut acc0, mut acc1) = (vdupq_n_f32(0.0), vdupq_n_f32(0.0));
    let mut i = 0usize;
    // SAFETY: every load reads 4 floats at `i` or `i + 4` with `i + 8 <= n`
    // (or `i + 4 <= n` below), and `n == a.len() == b.len()`, which
    // `DspDispatch::dot` asserts before dispatching here.
    while i + 8 <= n {
        acc0 = vaddq_f32(acc0, vmulq_f32(vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i))));
        acc1 = vaddq_f32(acc1, vmulq_f32(vld1q_f32(pa.add(i + 4)), vld1q_f32(pb.add(i + 4))));
        i += 8;
    }
    if i + 4 <= n {
        acc0 = vaddq_f32(acc0, vmulq_f32(vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i))));
        i += 4;
    }
    let mut sum = vaddvq_f32(vaddq_f32(acc0, acc1));
    for j in i..n {
        sum += a[j] * b[j];
    }
    sum
}

/// 4-lane natural log via the Cephes reduction; valid for `x > 0`. The
/// constants are Cephes' exact literals; 0.693_359_375 is 355/512, the hi
/// half of the ln2 split, and must not be "simplified" to a shorter
/// decimal.
///
/// # Safety
///
/// The caller must have verified NEON support at runtime. It reads no
/// memory: every operand is already a register.
#[allow(clippy::excessive_precision)]
#[target_feature(enable = "neon")]
unsafe fn ln_q(x: float32x4_t) -> float32x4_t {
    let one = vdupq_n_f32(1.0);
    let x = vmaxq_f32(x, vdupq_n_f32(f32::MIN_POSITIVE));
    let xi = vreinterpretq_u32_f32(x);
    // Unbiased exponent + 1 (the mantissa below is folded into [0.5, 1)).
    let emm0 = vsubq_s32(vreinterpretq_s32_u32(vshrq_n_u32::<23>(xi)), vdupq_n_s32(0x7e));
    let mut e = vcvtq_f32_s32(emm0);
    // Mantissa in [0.5, 1): keep the fraction bits, force exponent of 0.5.
    let mant = vreinterpretq_f32_u32(vorrq_u32(
        vandq_u32(xi, vdupq_n_u32(0x007f_ffff)),
        vdupq_n_u32(0x3f00_0000),
    ));
    // Normalise into [√½, √2).
    let mask = vcltq_f32(mant, vdupq_n_f32(std::f32::consts::FRAC_1_SQRT_2));
    let tmp = vbslq_f32(mask, mant, vdupq_n_f32(0.0));
    let m = vaddq_f32(vsubq_f32(mant, one), tmp);
    e = vsubq_f32(e, vbslq_f32(mask, one, vdupq_n_f32(0.0)));
    // Degree-9 Cephes polynomial for ln(1 + m).
    let z = vmulq_f32(m, m);
    let mut y = vdupq_n_f32(7.037_683_6e-2);
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
        y = vaddq_f32(vmulq_f32(y, m), vdupq_n_f32(c));
    }
    y = vmulq_f32(vmulq_f32(y, m), z);
    y = vaddq_f32(y, vmulq_f32(e, vdupq_n_f32(-2.121_944_4e-4)));
    y = vsubq_f32(y, vmulq_f32(z, vdupq_n_f32(0.5)));
    let r = vaddq_f32(m, y);
    vaddq_f32(r, vmulq_f32(e, vdupq_n_f32(0.693_359_375)))
}

/// `dst[i] = ln(src[i] + ε)`: full 4-lane blocks through [`ln_q`], the
/// ragged tail through scalar `f32::ln`.
///
/// # Safety
///
/// The caller must have verified NEON support at runtime. Slices must have
/// equal length; inputs must be non-negative.
#[target_feature(enable = "neon")]
pub(super) unsafe fn ln_eps(src: &[f32], dst: &mut [f32]) {
    let n = src.len();
    let eps = vdupq_n_f32(LOG_EPS);
    let mut i = 0usize;
    // SAFETY: each step loads and stores 4 floats at `i` with `i + 4 <= n`,
    // and `n == src.len() == dst.len()`, which `DspDispatch::ln_eps` asserts
    // before dispatching here.
    while i + 4 <= n {
        let v = vaddq_f32(vld1q_f32(src.as_ptr().add(i)), eps);
        vst1q_f32(dst.as_mut_ptr().add(i), ln_q(v));
        i += 4;
    }
    for j in i..n {
        dst[j] = (src[j] + LOG_EPS).ln();
    }
}
