//! The x86_64 AVX-512 `vpopcntq` kernel for the bit-sliced popcount
//! family.
//!
//! Where the AVX2 backend popcounts 4 words per step through a `vpshufb`
//! nibble LUT plus `vpsadbw`, `_mm512_popcnt_epi64` (the AVX512-VPOPCNTDQ
//! extension) counts 8 whole words in a single instruction, so the per-row
//! inner loop collapses to AND + popcount + weighted add over 512-bit
//! blocks. A conv's column matrix, stored with the columns minor, puts 8
//! columns' words of one plane in one register, so its product popcounts
//! 8 columns per instruction against a broadcast weight word, and its
//! quantize rounds 16 columns per vector. The f32-lane bitplane loops have
//! no AVX-512 variant — the
//! dispatch routes them to the AVX2 code, which every supported host also
//! runs (see [`super::Kernel::Avx512`]'s support predicate).
//!
//! This module is compile-gated to x86_64 and feature-gated at runtime:
//! hosts without `avx512vpopcntdq` reject the backend loudly at dispatch
//! construction (CI covers compilation everywhere; runtime behaviour is
//! only provable on a vpopcntq-capable machine). Integer arithmetic
//! throughout, and the quantize's exact rounding formula — results are
//! bitwise identical to the scalar backend.

#![allow(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::{
    _mm256_loadu_si256, _mm512_add_epi64, _mm512_and_si512, _mm512_broadcast_i64x4,
    _mm512_castsi256_si512, _mm512_cmp_ps_mask, _mm512_cvtepi32_ps, _mm512_cvttps_epi32,
    _mm512_inserti64x4, _mm512_loadu_si512, _mm512_mask_add_epi32, _mm512_mask_blend_epi64,
    _mm512_mask_cvtepi64_storeu_epi32, _mm512_mask_or_epi64, _mm512_mask_storeu_epi64,
    _mm512_mask_sub_epi32, _mm512_maskz_loadu_epi64, _mm512_maskz_loadu_ps, _mm512_maskz_mov_ps,
    _mm512_max_ps, _mm512_min_ps, _mm512_mul_ps, _mm512_popcnt_epi64, _mm512_reduce_add_epi64,
    _mm512_set1_epi32, _mm512_set1_epi64, _mm512_set1_ps, _mm512_set_epi64, _mm512_setzero_si512,
    _mm512_sll_epi64, _mm512_sllv_epi64, _mm512_sub_epi64, _mm512_sub_ps, _mm512_test_epi32_mask,
    _mm_cvtsi32_si128, _CMP_GE_OQ, _CMP_LE_OQ, _CMP_ORD_Q,
};

use super::PackedView;

/// Bit-sliced int8 matvec: per 8-word block, each active activation plane
/// is ANDed with the row's `+`/`−` bitplanes, popcounted per word with
/// `vpopcntq`, and accumulated into two weighted u64×8 accumulators
/// shifted by the plane's bit significance (the sign plane's −128 weight
/// swaps the accumulators at shift 7).
///
/// A 4-word remainder (the whole row for ≤256-column layers, the common
/// hidden widths of this model family) would otherwise fall through to the
/// scalar tail; instead it is handled by a half-width step that pairs two
/// activation planes per 512-bit vector and broadcasts the row's 4 mask
/// words to both halves, so one AND + `vpopcntq` + per-lane `vpsllvq`
/// covers two planes at once.
///
/// # Safety
///
/// The caller must have verified AVX-512 F + VPOPCNTDQ support at runtime,
/// and `planes.len() >= 8 · v.words_per_row`. Block `blk` loads words
/// `blk·8..blk·8 + 8 <= words_per_row` of each bounds-checked row slice and
/// of each active plane; the paired step loads words `rem..rem + 4` (only
/// when `words_per_row − rem >= 4`) of the rows and of planes 0 to 7.
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
pub(crate) unsafe fn bitslice_matvec(v: &PackedView<'_>, planes: &[u64], y: &mut [i32]) {
    let wpr = v.words_per_row;
    let (active, n) = super::active_planes(planes);
    let active = &active[..n];
    let blocks = wpr / 8;
    let rem = blocks * 8;
    let pair_step = wpr - rem >= 4;
    // Activation planes and per-lane shift counts for the 4-word step are
    // row-invariant: hoist them so the row loop only touches weight masks.
    // Lanes 0..4 hold plane 2i, lanes 4..8 hold plane 2i+1.
    let mut xpair = [_mm512_setzero_si512(); 4];
    let mut shifts = [_mm512_setzero_si512(); 4];
    if pair_step {
        for (i, (x, s)) in xpair.iter_mut().zip(shifts.iter_mut()).enumerate() {
            let lo = _mm256_loadu_si256(planes.as_ptr().add(2 * i * wpr + rem).cast());
            let hi = _mm256_loadu_si256(planes.as_ptr().add((2 * i + 1) * wpr + rem).cast());
            *x = _mm512_inserti64x4(_mm512_castsi256_si512(lo), hi, 1);
            let (b0, b1) = (2 * i as i64, 2 * i as i64 + 1);
            *s = _mm512_set_epi64(b1, b1, b1, b1, b0, b0, b0, b0);
        }
    }
    for (r, out) in y.iter_mut().enumerate() {
        let base = r * wpr;
        let prow = &v.plus[base..base + wpr];
        let mrow = &v.minus[base..base + wpr];
        let mut acc_p = _mm512_setzero_si512();
        let mut acc_m = _mm512_setzero_si512();
        for blk in 0..blocks {
            let pv = _mm512_loadu_si512(prow.as_ptr().add(blk * 8).cast());
            let mv = _mm512_loadu_si512(mrow.as_ptr().add(blk * 8).cast());
            for &b in active {
                let xv = _mm512_loadu_si512(planes.as_ptr().add(b * wpr + blk * 8).cast());
                let cp = _mm512_popcnt_epi64(_mm512_and_si512(xv, pv));
                let cm = _mm512_popcnt_epi64(_mm512_and_si512(xv, mv));
                let sh = _mm_cvtsi32_si128(if b == 7 { 7 } else { b as i32 });
                let (wp, wm) = if b == 7 { (cm, cp) } else { (cp, cm) };
                acc_p = _mm512_add_epi64(acc_p, _mm512_sll_epi64(wp, sh));
                acc_m = _mm512_add_epi64(acc_m, _mm512_sll_epi64(wm, sh));
            }
        }
        if pair_step {
            let wp = _mm512_broadcast_i64x4(_mm256_loadu_si256(prow.as_ptr().add(rem).cast()));
            let wm = _mm512_broadcast_i64x4(_mm256_loadu_si256(mrow.as_ptr().add(rem).cast()));
            for (i, (&xv, &sh)) in xpair.iter().zip(shifts.iter()).enumerate() {
                let cp = _mm512_popcnt_epi64(_mm512_and_si512(xv, wp));
                let cm = _mm512_popcnt_epi64(_mm512_and_si512(xv, wm));
                // The sign plane (plane 7, the upper half of pair 3) weighs
                // −128: swap which accumulator its counts land in, exactly
                // like the `b == 7` swap in the block loop.
                let (sp, sm) = if i == 3 {
                    (_mm512_mask_blend_epi64(0xF0, cp, cm), _mm512_mask_blend_epi64(0xF0, cm, cp))
                } else {
                    (cp, cm)
                };
                acc_p = _mm512_add_epi64(acc_p, _mm512_sllv_epi64(sp, sh));
                acc_m = _mm512_add_epi64(acc_m, _mm512_sllv_epi64(sm, sh));
            }
        }
        let mut acc = _mm512_reduce_add_epi64(acc_p) - _mm512_reduce_add_epi64(acc_m);
        for w in rem + if pair_step { 4 } else { 0 }..wpr {
            acc += super::bitslice_tail_word(planes, wpr, w, prow[w], mrow[w], active);
        }
        *out = acc as i32;
    }
}

/// The lane mask of the first `min(left, 16)` of 16 lanes.
#[inline(always)]
fn lane_mask(left: usize) -> u16 {
    if left >= 16 {
        u16::MAX
    } else {
        (1u16 << left) - 1
    }
}

/// Column-matrix bit-sliced product `out[r·cols + c] = Wᵣ · x_c`: for each
/// row and each group of 8 columns, the row's `+`/`−` words are broadcast,
/// AND-ed with the 8 columns' plane words and popcounted by one `vpopcntq`
/// each, and the difference is shifted by the plane's significance into
/// i64 lanes (the sign plane subtracts at shift 7). The lanes narrow to
/// i32 by truncation, like the matvec's `acc as i32`, and a lane mask
/// covers a ragged last group.
///
/// # Safety
///
/// The caller must have verified AVX-512 F + VPOPCNTDQ support at runtime,
/// and `x.len() == 8 · v.words_per_row · cols` and
/// `out.len() == v.rows · cols`. The group at column `c < cols` loads plane
/// words `(b·wpr + w)·cols + c..` and stores output lanes `r·cols + c..`,
/// each masked to the `cols − c` lanes left in its row.
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
pub(crate) unsafe fn bitslice_rhs(v: &PackedView<'_>, x: &[u64], cols: usize, out: &mut [i32]) {
    let wpr = v.words_per_row;
    let (active, n) = super::active_planes(x);
    let active = &active[..n];
    for r in 0..v.rows {
        let prow = &v.plus[r * wpr..(r + 1) * wpr];
        let mrow = &v.minus[r * wpr..(r + 1) * wpr];
        for c in (0..cols).step_by(8) {
            let k = lane_mask(cols - c) as u8;
            let mut acc = _mm512_setzero_si512();
            for w in 0..wpr {
                let pv = _mm512_set1_epi64(prow[w] as i64);
                let mv = _mm512_set1_epi64(mrow[w] as i64);
                for &b in active {
                    let src = x.as_ptr().add((b * wpr + w) * cols + c);
                    let xv = _mm512_maskz_loadu_epi64(k, src.cast());
                    let d = _mm512_sub_epi64(
                        _mm512_popcnt_epi64(_mm512_and_si512(xv, pv)),
                        _mm512_popcnt_epi64(_mm512_and_si512(xv, mv)),
                    );
                    let s = _mm512_sll_epi64(d, _mm_cvtsi32_si128(b as i32));
                    acc = if b == 7 { _mm512_sub_epi64(acc, s) } else { _mm512_add_epi64(acc, s) };
                }
            }
            _mm512_mask_cvtepi64_storeu_epi32(out.as_mut_ptr().add(r * cols + c).cast(), k, acc);
        }
    }
}

/// Column-matrix quantize: 16 columns of one matrix row per vector, each
/// lane rounded exactly as [`crate::packed::bitslice::quantize_i8`] does
/// (multiply, NaN to 0, clamp to ±127, truncate, then ±1 where the exact
/// fraction is at least ½ in magnitude). Over a word's 64 rows, each
/// plane's bit of the 16 lanes is a test mask that ORs the row's bit into
/// two registers of 8 plane words, so each plane word is stored once.
///
/// # Safety
///
/// The caller must have verified AVX-512 F support at runtime, and
/// `m.len() == len · cols` and `out.len() == 8 · len.div_ceil(64) · cols`.
/// The group at column `c < cols` loads matrix lanes `i·cols + c..` for
/// rows `i < len` and stores plane words `(b·words + w)·cols + c..`, each
/// masked to the `cols − c` lanes left in its row.
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn bitslice_columns(
    m: &[f32],
    len: usize,
    cols: usize,
    inv_scale: f32,
    out: &mut [u64],
) {
    let words = len.div_ceil(64);
    let inv = _mm512_set1_ps(inv_scale);
    let (top, bottom) = (_mm512_set1_ps(127.0), _mm512_set1_ps(-127.0));
    let (half, neg_half) = (_mm512_set1_ps(0.5), _mm512_set1_ps(-0.5));
    let one = _mm512_set1_epi32(1);
    for w in 0..words {
        let rows = (len - w * 64).min(64);
        for c in (0..cols).step_by(16) {
            let k = lane_mask(cols - c);
            // Plane b's words for lanes 0..8 in acc[b], lanes 8..16 in acc[8 + b].
            let mut acc = [_mm512_setzero_si512(); 16];
            for i in 0..rows {
                let src = m.as_ptr().add((w * 64 + i) * cols + c);
                let y = _mm512_mul_ps(_mm512_maskz_loadu_ps(k, src), inv);
                let y = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask::<_CMP_ORD_Q>(y, y), y);
                let y = _mm512_max_ps(_mm512_min_ps(y, top), bottom);
                let t = _mm512_cvttps_epi32(y);
                let frac = _mm512_sub_ps(y, _mm512_cvtepi32_ps(t));
                let up = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(frac, half);
                let down = _mm512_cmp_ps_mask::<_CMP_LE_OQ>(frac, neg_half);
                let q = _mm512_mask_sub_epi32(_mm512_mask_add_epi32(t, up, t, one), down, t, one);
                let bit = _mm512_set1_epi64(1i64 << i);
                for b in 0..8 {
                    let set = _mm512_test_epi32_mask(q, _mm512_set1_epi32(1 << b));
                    acc[b] = _mm512_mask_or_epi64(acc[b], set as u8, acc[b], bit);
                    acc[8 + b] =
                        _mm512_mask_or_epi64(acc[8 + b], (set >> 8) as u8, acc[8 + b], bit);
                }
            }
            for b in 0..8 {
                let dst = out.as_mut_ptr().add((b * words + w) * cols + c);
                _mm512_mask_storeu_epi64(dst.cast(), k as u8, acc[b]);
                if cols - c > 8 {
                    _mm512_mask_storeu_epi64(dst.add(8).cast(), (k >> 8) as u8, acc[8 + b]);
                }
            }
        }
    }
}
