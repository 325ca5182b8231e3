//! The x86_64 AVX-512 `vpopcntq` kernel for the bit-sliced popcount
//! family.
//!
//! Where the AVX2 backend popcounts 4 words per step through a `vpshufb`
//! nibble LUT plus `vpsadbw`, `_mm512_popcnt_epi64` (the AVX512-VPOPCNTDQ
//! extension) counts 8 whole words in a single instruction, so the per-row
//! inner loop collapses to AND + popcount + weighted add over 512-bit
//! blocks. The f32-lane bitplane loops have no AVX-512 variant — the
//! dispatch routes them to the AVX2 code, which every supported host also
//! runs (see [`super::Kernel::Avx512`]'s support predicate).
//!
//! This module is compile-gated to x86_64 and feature-gated at runtime:
//! hosts without `avx512vpopcntdq` reject the backend loudly at dispatch
//! construction (CI covers compilation everywhere; runtime behaviour is
//! only provable on a vpopcntq-capable machine). Integer arithmetic
//! throughout — results are bitwise identical to the scalar backend.

#![allow(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::{
    _mm256_loadu_si256, _mm512_add_epi64, _mm512_and_si512, _mm512_broadcast_i64x4,
    _mm512_castsi256_si512, _mm512_inserti64x4, _mm512_loadu_si512, _mm512_mask_blend_epi64,
    _mm512_popcnt_epi64, _mm512_reduce_add_epi64, _mm512_set_epi64, _mm512_setzero_si512,
    _mm512_sll_epi64, _mm512_sllv_epi64, _mm_cvtsi32_si128,
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
