//! The portable reference kernel: per-word bit iteration via
//! `trailing_zeros`, one `f32` add/subtract per set bit.
//!
//! These loops are the pre-SIMD engine verbatim — strictly left-to-right
//! accumulation, no reassociation — and serve as the ground truth the SIMD
//! backends are property-tested against.

use super::{PackedView, WindowTap};

/// Bits per storage word of one bitplane.
const WORD_BITS: usize = 64;

/// Samples processed together by [`matmul_samples`]: each weight word is
/// decoded once per tile, and the tile's accumulators live in registers.
const SAMPLE_TILE: usize = 4;

/// One row's add-only dot product against `x`, iterating set bits so zero
/// entries cost nothing.
#[inline]
fn row_dot(v: &PackedView<'_>, r: usize, x: &[f32]) -> f32 {
    let base = r * v.words_per_row;
    let mut acc = 0.0f32;
    for w in 0..v.words_per_row {
        let off = w * WORD_BITS;
        let mut p = v.plus[base + w];
        while p != 0 {
            acc += x[off + p.trailing_zeros() as usize];
            p &= p - 1;
        }
        let mut m = v.minus[base + w];
        while m != 0 {
            acc -= x[off + m.trailing_zeros() as usize];
            m &= m - 1;
        }
    }
    acc
}

/// `y = W·x`, serial over rows.
pub(crate) fn matvec_into(v: &PackedView<'_>, x: &[f32], y: &mut [f32]) {
    for (r, out) in y.iter_mut().enumerate() {
        *out = row_dot(v, r, x);
    }
}

/// Batched activations for `ns` contiguous samples, register-tiled in
/// groups of [`SAMPLE_TILE`] so each weight word is decoded once per tile.
pub(crate) fn matmul_samples(v: &PackedView<'_>, x: &[f32], out: &mut [f32]) {
    let (rows, cols, wpr) = (v.rows, v.cols, v.words_per_row);
    let ns = out.len() / rows;
    let mut s = 0;
    while s < ns {
        let t = (ns - s).min(SAMPLE_TILE);
        let x0 = s * cols;
        for r in 0..rows {
            let base = r * wpr;
            let mut acc = [0.0f32; SAMPLE_TILE];
            for w in 0..wpr {
                let off = w * WORD_BITS;
                let mut p = v.plus[base + w];
                while p != 0 {
                    let j = off + p.trailing_zeros() as usize;
                    for (ti, a) in acc.iter_mut().enumerate().take(t) {
                        *a += x[x0 + ti * cols + j];
                    }
                    p &= p - 1;
                }
                let mut m = v.minus[base + w];
                while m != 0 {
                    let j = off + m.trailing_zeros() as usize;
                    for (ti, a) in acc.iter_mut().enumerate().take(t) {
                        *a -= x[x0 + ti * cols + j];
                    }
                    m &= m - 1;
                }
            }
            for (ti, a) in acc.iter().enumerate().take(t) {
                out[(s + ti) * rows + r] = *a;
            }
        }
        s += t;
    }
}

/// Bit-sliced int8 matvec: pure `u64` AND + `count_ones`, exact i32
/// accumulation — the reference the SIMD popcount backends are bitwise
/// tested against.
pub(crate) fn bitslice_matvec(v: &PackedView<'_>, planes: &[u64], y: &mut [i32]) {
    let wpr = v.words_per_row;
    let (active, n) = super::active_planes(planes);
    for (r, out) in y.iter_mut().enumerate() {
        let base = r * wpr;
        let mut acc = 0i64;
        for &b in &active[..n] {
            let plane = &planes[b * wpr..(b + 1) * wpr];
            let mut s = 0i64;
            for w in 0..wpr {
                s += (plane[w] & v.plus[base + w]).count_ones() as i64;
                s -= (plane[w] & v.minus[base + w]).count_ones() as i64;
            }
            acc += super::plane_weight(b) as i64 * s;
        }
        *out = acc as i32;
    }
}

/// Column-matrix bit-sliced product of
/// [`super::KernelDispatch::bitslice_rhs`]: `out[r·cols + c] = Wᵣ · x_c`,
/// one column per lane of the inner loop. The i32 lanes add with wrapping
/// arithmetic, which is the matvec's i64 sum narrowed by `as i32`: both are
/// the exact sum modulo 2³². The `scalar`, `avx2` and `neon` dispatches all
/// run this loop; it is inlined so that `avx2`'s wrapper compiles it with
/// hardware `popcnt`.
#[inline(always)]
pub(crate) fn bitslice_rhs(v: &PackedView<'_>, x: &[u64], cols: usize, out: &mut [i32]) {
    if cols == 0 {
        return;
    }
    let wpr = v.words_per_row;
    let (active, n) = super::active_planes(x);
    for (r, orow) in out.chunks_exact_mut(cols).enumerate() {
        orow.fill(0);
        let base = r * wpr;
        for &b in &active[..n] {
            let weight = super::plane_weight(b);
            for w in 0..wpr {
                let (pw, mw) = (v.plus[base + w], v.minus[base + w]);
                let xs = &x[(b * wpr + w) * cols..][..cols];
                for (o, &xw) in orow.iter_mut().zip(xs) {
                    let s = (xw & pw).count_ones() as i32 - (xw & mw).count_ones() as i32;
                    *o = o.wrapping_add(weight * s);
                }
            }
        }
    }
}

/// Column-matrix quantize of [`super::KernelDispatch::bitslice_columns`]:
/// element `(i, c)` of the row-major `[len × cols]` matrix `m` becomes bit
/// `i % 64` of word `(b·words + i/64)·cols + c` of every plane `b`. The
/// `scalar`, `avx2` and `neon` dispatches all run this loop.
pub(crate) fn bitslice_columns(m: &[f32], cols: usize, inv_scale: f32, out: &mut [u64]) {
    out.fill(0);
    if cols == 0 {
        return;
    }
    let words = out.len() / (8 * cols);
    for (i, row) in m.chunks_exact(cols).enumerate() {
        let (w, bit) = (i / WORD_BITS, i % WORD_BITS);
        for (c, &v) in row.iter().enumerate() {
            let u = u64::from(super::super::bitslice::quantize_i8(v, inv_scale) as u8);
            if u == 0 {
                continue;
            }
            for b in 0..8 {
                out[(b * words + w) * cols + c] |= (u >> b & 1) << bit;
            }
        }
    }
}

/// Element-wise `dst[i] += a · src[i]` (multiply then add, never fused).
pub(crate) fn slice_axpy(dst: &mut [f32], a: f32, src: &[f32]) {
    for (d, &s) in dst[..src.len()].iter_mut().zip(src) {
        *d += a * s;
    }
}

/// The signed, lane-masked window sum of
/// [`super::KernelDispatch::window_sum`]: one pass per tap, each an
/// element-wise masked, signed add. Per lane this is `+0.0` plus every tap
/// in tap order, the same adds the SIMD stripes keep in registers. The
/// NEON dispatch runs this loop too, and the AVX2 backend runs it on
/// windows shorter than one 8-lane stripe.
pub(crate) fn window_sum(src: &[f32], masks: &[u32], taps: &[WindowTap], out: &mut [f32]) {
    let n = out.len();
    out.fill(0.0);
    for t in taps {
        let sign = t.sign_bit();
        let lanes = src[t.src..t.src + n].iter().zip(&masks[t.mask..t.mask + n]);
        for (o, (&v, &m)) in out.iter_mut().zip(lanes) {
            *o += f32::from_bits((v.to_bits() & m) ^ sign);
        }
    }
}

/// `out = W · M`, every row cleared before it accumulates: each set bit
/// contributes a contiguous `p`-long row of `M`, so the inner loop is a
/// unit-stride slice add/subtract.
pub(crate) fn rhs_rows(v: &PackedView<'_>, md: &[f32], p: usize, out: &mut [f32]) {
    let wpr = v.words_per_row;
    for (r, orow) in out.chunks_mut(p).enumerate() {
        orow.fill(0.0);
        let base = r * wpr;
        for w in 0..wpr {
            let off = w * WORD_BITS;
            let mut pl = v.plus[base + w];
            while pl != 0 {
                let j = off + pl.trailing_zeros() as usize;
                let src = &md[j * p..(j + 1) * p];
                for (o, &val) in orow.iter_mut().zip(src) {
                    *o += val;
                }
                pl &= pl - 1;
            }
            let mut mi = v.minus[base + w];
            while mi != 0 {
                let j = off + mi.trailing_zeros() as usize;
                let src = &md[j * p..(j + 1) * p];
                for (o, &val) in orow.iter_mut().zip(src) {
                    *o -= val;
                }
                mi &= mi - 1;
            }
        }
    }
}
