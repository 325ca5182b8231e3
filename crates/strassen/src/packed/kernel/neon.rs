//! The aarch64 NEON kernel: bitplane nibbles expanded to 4-lane `f32`
//! masks, four columns accumulated per vector instruction.
//!
//! The same design as the AVX2 backend at half the lane width: a 16-entry
//! lookup table turns one nibble of a bitplane word into a 4-lane select
//! mask with a single load, each 64-bit word is hoisted into a register and
//! its 16 nibbles peeled without re-indexing the row slices, and separate
//! even/odd-group accumulators keep the addition dependency chains short.
//! `matmul` register-tiles 4 samples per mask load; `matmul_rhs`
//! accumulates register stripes over a precomputed signed bit list, with
//! the sign applied by XOR-ing the IEEE sign bit so the element-wise add
//! order — and therefore the bitwise result — matches the scalar backend
//! exactly.
//!
//! Columns beyond the last full 4-lane group fall back to the scalar bit
//! iteration. As with AVX2, the folded per-row reduction order means
//! `matvec`/`matmul` results match the scalar kernel only to rounding —
//! see the module docs of [`super`].

#![allow(unsafe_op_in_unsafe_fn)]

use std::arch::aarch64::{
    float32x4_t, vaddq_f32, vaddvq_f32, vaddvq_u8, vandq_u32, vandq_u64, vcntq_u8, vdupq_n_f32,
    vdupq_n_u32, veorq_u32, vld1q_f32, vld1q_u32, vld1q_u64, vmulq_f32, vreinterpretq_f32_u32,
    vreinterpretq_u32_f32, vreinterpretq_u8_u64, vst1q_f32, vsubq_f32,
};

use super::PackedView;

/// Samples per register tile of [`matmul_samples`].
const SAMPLE_TILE: usize = 4;

/// `MASK_LUT[n][i]` is all-ones iff bit `i` of nibble `n` is set: nibble →
/// 4-lane mask in a single load.
static MASK_LUT: [[u32; 4]; 16] = build_mask_lut();

const fn build_mask_lut() -> [[u32; 4]; 16] {
    let mut t = [[0u32; 4]; 16];
    let mut n = 0;
    while n < 16 {
        let mut i = 0;
        while i < 4 {
            if n & (1 << i) != 0 {
                t[n][i] = u32::MAX;
            }
            i += 1;
        }
        n += 1;
    }
    t
}

/// The masked activations for one 4-lane group: lanes whose weight bit is
/// clear are zeroed.
///
/// # Safety
///
/// The caller must have verified NEON support at runtime. The load reads
/// one whole 16-byte table row, and the row index is bounds-checked.
#[inline]
#[target_feature(enable = "neon")]
unsafe fn masked(xv: float32x4_t, nibble: usize) -> float32x4_t {
    let mask = vld1q_u32(MASK_LUT[nibble].as_ptr());
    vreinterpretq_f32_u32(vandq_u32(vreinterpretq_u32_f32(xv), mask))
}

/// One group's ±masked activations: `(x & plus_mask) − (x & minus_mask)`.
///
/// # Safety
///
/// The caller must have verified NEON support at runtime. The only loads
/// are [`masked`]'s bounds-checked table rows.
#[inline]
#[target_feature(enable = "neon")]
unsafe fn group_delta(xv: float32x4_t, pn: usize, mn: usize) -> float32x4_t {
    vsubq_f32(masked(xv, pn), masked(xv, mn))
}

/// The nibble of each bitplane covering 4-column group `g` of a row.
#[inline(always)]
fn group_nibbles(plus_row: &[u64], minus_row: &[u64], g: usize) -> (usize, usize) {
    let sh = (g & 15) * 4;
    (((plus_row[g >> 4] >> sh) & 0xf) as usize, ((minus_row[g >> 4] >> sh) & 0xf) as usize)
}

use super::tail_dot;

/// One row's dot product: full 4-lane groups vectorised (each bitplane word
/// hoisted, its 16 nibbles peeled branchlessly — at TWN density a nibble is
/// rarely all-zero, so per-group skip tests would only burn issue slots),
/// tail columns via the scalar bit iteration. Even groups accumulate into
/// `a0`, odd into `a1` — [`row_dot_tile`] uses the same schedule so batched
/// and single-sample results are bitwise identical.
///
/// # Safety
///
/// The caller must have verified NEON support at runtime. Every vector
/// load reads 4 floats of `x` at a multiple of 4 below
/// `(x.len() / 4) · 4`, so it ends inside `x`; the row words are read with
/// bounds checks.
#[target_feature(enable = "neon")]
unsafe fn row_dot(plus_row: &[u64], minus_row: &[u64], x: &[f32]) -> f32 {
    let ngroups = x.len() / 4;
    let nwords = ngroups / 16;
    let (mut a0, mut a1) = (vdupq_n_f32(0.0), vdupq_n_f32(0.0));
    for w in 0..nwords {
        let (pw, mw) = (plus_row[w], minus_row[w]);
        if pw | mw == 0 {
            continue;
        }
        let base = x.as_ptr().add(w * 64);
        for pair in 0..8 {
            let (ps, ms) =
                (((pw >> (8 * pair)) & 0xff) as usize, ((mw >> (8 * pair)) & 0xff) as usize);
            let xv = vld1q_f32(base.add(pair * 8));
            a0 = vaddq_f32(a0, group_delta(xv, ps & 0xf, ms & 0xf));
            let xv = vld1q_f32(base.add(pair * 8 + 4));
            a1 = vaddq_f32(a1, group_delta(xv, ps >> 4, ms >> 4));
        }
    }
    for g in nwords * 16..ngroups {
        let (pn, mn) = group_nibbles(plus_row, minus_row, g);
        if pn | mn != 0 {
            let xv = vld1q_f32(x.as_ptr().add(g * 4));
            let d = group_delta(xv, pn, mn);
            if g & 1 == 0 {
                a0 = vaddq_f32(a0, d);
            } else {
                a1 = vaddq_f32(a1, d);
            }
        }
    }
    vaddvq_f32(vaddq_f32(a0, a1)) + tail_dot(plus_row, minus_row, x, ngroups * 4)
}

/// `y = W·x`, serial over rows.
///
/// # Safety
///
/// The caller must have verified NEON support at runtime. [`row_dot`]
/// bounds its loads by `x.len()`; the dispatch guarantees
/// `x.len() == v.cols`, which keeps the row words it indexes in range.
#[target_feature(enable = "neon")]
pub(crate) unsafe fn matvec_into(v: &PackedView<'_>, x: &[f32], y: &mut [f32]) {
    let wpr = v.words_per_row;
    for (r, out) in y.iter_mut().enumerate() {
        let base = r * wpr;
        *out = row_dot(&v.plus[base..base + wpr], &v.minus[base..base + wpr], x);
    }
}

/// A register tile of `t <= SAMPLE_TILE` samples against one weight row:
/// each group's mask pair is loaded once and applied to every sample in
/// the tile. Per sample, the group order and accumulator schedule are
/// identical to [`row_dot`], so the result is bitwise the same as running
/// the sample alone.
///
/// # Safety
///
/// The caller must have verified NEON support at runtime. Sample `ti < t`
/// is read at `x[ti·cols..(ti + 1)·cols]` by 4-float loads below
/// `(cols / 4) · 4`, so `x.len() >= t · cols`; `t <= SAMPLE_TILE`.
#[target_feature(enable = "neon")]
#[allow(clippy::too_many_arguments)]
unsafe fn row_dot_tile(
    plus_row: &[u64],
    minus_row: &[u64],
    x: &[f32],
    cols: usize,
    t: usize,
    out: &mut [f32],
    rows: usize,
) {
    let ngroups = cols / 4;
    let nwords = ngroups / 16;
    let mut a0 = [vdupq_n_f32(0.0); SAMPLE_TILE];
    let mut a1 = [vdupq_n_f32(0.0); SAMPLE_TILE];
    for w in 0..nwords {
        let (pw, mw) = (plus_row[w], minus_row[w]);
        if pw | mw == 0 {
            continue;
        }
        for pair in 0..8 {
            let (ps, ms) =
                (((pw >> (8 * pair)) & 0xff) as usize, ((mw >> (8 * pair)) & 0xff) as usize);
            for ti in 0..t {
                let base = x.as_ptr().add(ti * cols + w * 64 + pair * 8);
                let xv = vld1q_f32(base);
                a0[ti] = vaddq_f32(a0[ti], group_delta(xv, ps & 0xf, ms & 0xf));
                let xv = vld1q_f32(base.add(4));
                a1[ti] = vaddq_f32(a1[ti], group_delta(xv, ps >> 4, ms >> 4));
            }
        }
    }
    for g in nwords * 16..ngroups {
        let (pn, mn) = group_nibbles(plus_row, minus_row, g);
        if pn | mn != 0 {
            let acc = if g & 1 == 0 { &mut a0 } else { &mut a1 };
            for (ti, a) in acc.iter_mut().enumerate().take(t) {
                let xv = vld1q_f32(x.as_ptr().add(ti * cols + g * 4));
                *a = vaddq_f32(*a, group_delta(xv, pn, mn));
            }
        }
    }
    for ti in 0..t {
        out[ti * rows] = vaddvq_f32(vaddq_f32(a0[ti], a1[ti]))
            + tail_dot(plus_row, minus_row, &x[ti * cols..(ti + 1) * cols], ngroups * 4);
    }
}

/// Batched activations, register-tiled in groups of [`SAMPLE_TILE`] so each
/// mask load is reused across the tile. Per-sample reduction order matches
/// [`matvec_into`] exactly, so results are identical for a sample served
/// alone or inside any batch.
///
/// # Safety
///
/// The caller must have verified NEON support at runtime. Each tile hands
/// [`row_dot_tile`] a bounds-checked slice of exactly `t · v.cols` floats;
/// the dispatch guarantees `x.len() == ns · v.cols`.
#[target_feature(enable = "neon")]
pub(crate) unsafe fn matmul_samples(v: &PackedView<'_>, x: &[f32], out: &mut [f32]) {
    let (rows, cols, wpr) = (v.rows, v.cols, v.words_per_row);
    let ns = out.len() / rows;
    let mut s = 0;
    while s < ns {
        let t = (ns - s).min(SAMPLE_TILE);
        for r in 0..rows {
            let base = r * wpr;
            row_dot_tile(
                &v.plus[base..base + wpr],
                &v.minus[base..base + wpr],
                &x[s * cols..(s + t) * cols],
                cols,
                t,
                &mut out[s * rows + r..],
                rows,
            );
        }
        s += t;
    }
}

/// An accumulator stripe of `NB` 4-lane blocks (`NB·4` output columns)
/// starting at column `c`: every signed bit contributes one load + one add
/// per block, with the partial sums living in registers for the whole bit
/// list. The sign is applied by XOR-ing the IEEE sign bit, so per element
/// this performs exactly the scalar backend's adds in exactly its order —
/// the output is bitwise identical.
///
/// # Safety
///
/// The caller must have verified NEON support at runtime. The stripe reads
/// and writes columns `c..c + NB·4`, so `c + NB·4 <= p <= orow.len()`, and
/// every entry `(j, _)` of `bits` must name a row of `md`:
/// `(j + 1) · p <= md.len()`.
#[target_feature(enable = "neon")]
unsafe fn rhs_stripe<const NB: usize>(
    md: &[f32],
    p: usize,
    bits: &[(u32, u32)],
    orow: &mut [f32],
    c: usize,
) {
    let mut acc = [vdupq_n_f32(0.0); NB];
    for &(j, sign) in bits {
        let base = md.as_ptr().add(j as usize * p + c);
        let flip = vdupq_n_u32(sign);
        for (k, a) in acc.iter_mut().enumerate() {
            let v = vreinterpretq_u32_f32(vld1q_f32(base.add(k * 4)));
            *a = vaddq_f32(*a, vreinterpretq_f32_u32(veorq_u32(v, flip)));
        }
    }
    for (k, a) in acc.iter().enumerate() {
        vst1q_f32(orow.as_mut_ptr().add(c + k * 4), *a);
    }
}

/// Writes every element of `out = W · M` through the shared
/// [`super::rhs_rows_striped`] driver over this backend's 32- and 4-column
/// stripes. Element-wise adds in the scalar order throughout, so the
/// output is bitwise identical to the scalar backend's.
///
/// # Safety
///
/// The caller must have verified NEON support at runtime, and
/// `md.len() == v.cols · p`: the stripes load whole `p`-float rows of `md`
/// for every set bit, and a set bit always names a column below `v.cols`
/// (padding bits are clear, which every constructor checks).
#[target_feature(enable = "neon")]
pub(crate) unsafe fn rhs_rows(v: &PackedView<'_>, md: &[f32], p: usize, out: &mut [f32]) {
    super::rhs_rows_striped(v, md, p, out, 32, rhs_stripe::<8>, 4, rhs_stripe::<1>);
}

/// Bit-sliced int8 matvec: per 2-word (128-bit) block, each active
/// activation plane is ANDed with the row's `+`/`−` bitplanes, popcounted
/// per byte with `vcnt`, and folded with `vaddv` (16 bytes × ≤8 bits fits
/// a u8 horizontal sum). Integer arithmetic throughout — bitwise identical
/// to the scalar backend.
///
/// # Safety
///
/// The caller must have verified NEON support at runtime, and
/// `planes.len() >= 8 · v.words_per_row`: block `blk` loads words
/// `blk·2..blk·2 + 2 <= words_per_row` of each bounds-checked row slice and
/// of each active plane.
#[target_feature(enable = "neon")]
pub(crate) unsafe fn bitslice_matvec(v: &PackedView<'_>, planes: &[u64], y: &mut [i32]) {
    let wpr = v.words_per_row;
    let (active, n) = super::active_planes(planes);
    let active = &active[..n];
    let blocks = wpr / 2;
    for (r, out) in y.iter_mut().enumerate() {
        let base = r * wpr;
        let prow = &v.plus[base..base + wpr];
        let mrow = &v.minus[base..base + wpr];
        let mut acc = 0i64;
        for blk in 0..blocks {
            let pv = vld1q_u64(prow.as_ptr().add(blk * 2));
            let mv = vld1q_u64(mrow.as_ptr().add(blk * 2));
            for &b in active {
                let xv = vld1q_u64(planes.as_ptr().add(b * wpr + blk * 2));
                let cp = vaddvq_u8(vcntq_u8(vreinterpretq_u8_u64(vandq_u64(xv, pv)))) as i64;
                let cm = vaddvq_u8(vcntq_u8(vreinterpretq_u8_u64(vandq_u64(xv, mv)))) as i64;
                acc += super::plane_weight(b) as i64 * (cp - cm);
            }
        }
        for w in blocks * 2..wpr {
            acc += super::bitslice_tail_word(planes, wpr, w, prow[w], mrow[w], active);
        }
        *out = acc as i32;
    }
}

/// Element-wise `dst[i] += a · src[i]`: `fmul` then `fadd`, never a fused
/// multiply-add — fusing would change the rounding and break bitwise
/// equivalence with the scalar backend.
///
/// # Safety
///
/// The caller must have verified NEON support at runtime. Each step loads
/// and stores 4 floats at `i` with `i + 4 <= src.len()`, and `dst` is
/// resliced to `src.len()` first (a bounds-checked panic if shorter).
#[target_feature(enable = "neon")]
pub(crate) unsafe fn slice_axpy(dst: &mut [f32], a: f32, src: &[f32]) {
    let n = src.len();
    let dst = &mut dst[..n];
    let av = vdupq_n_f32(a);
    let mut i = 0;
    while i + 4 <= n {
        let d = vld1q_f32(dst.as_ptr().add(i));
        let s = vld1q_f32(src.as_ptr().add(i));
        vst1q_f32(dst.as_mut_ptr().add(i), vaddq_f32(d, vmulq_f32(av, s)));
        i += 4;
    }
    for j in i..n {
        dst[j] += a * src[j];
    }
}
