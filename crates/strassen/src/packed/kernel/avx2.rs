//! The x86_64 AVX2 kernel: bitplane bytes expanded to 8-lane `f32` masks,
//! eight columns accumulated per vector instruction.
//!
//! Strategy per 8-column group: one byte of the `+1` word and one byte of
//! the `−1` word each index a 256-entry lookup table of precomputed 8-lane
//! masks (one aligned 32-byte load apiece — cheaper than the
//! broadcast/`vpcmpeqd` expansion sequence), the masks `vandps` with the
//! loaded activations (zeroing the lanes whose weight is 0), and one
//! `vsubps` + one `vaddps` fold the ±contributions into an accumulator.
//! Alternating even/odd groups across two accumulators breaks the addition
//! dependency chain that bounds the scalar kernel's throughput, and the
//! batched entry point register-tiles 4 samples so each mask load is
//! reused across the tile.
//!
//! Columns beyond the last full 8-lane group fall back to the scalar bit
//! iteration (loading past `x.len()` would be out of bounds; the bitplane's
//! padding bits are guaranteed clear but the activation buffer stops at
//! `cols`). The per-row reduction order (two 8-lane partial sums folded at
//! row end) differs from the scalar kernel's strict left-to-right order, so
//! results match scalar only to rounding — see the module docs of
//! [`super`]. Within this backend a sample's reduction order is fixed
//! (group-major, same accumulator schedule in the single and tiled paths),
//! so batching never changes a result bitwise.

#![allow(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::{
    __m256, __m256i, _mm256_add_epi16, _mm256_add_epi32, _mm256_add_epi8, _mm256_add_ps,
    _mm256_and_ps, _mm256_and_si256, _mm256_castps256_ps128, _mm256_castsi256_ps,
    _mm256_castsi256_si128, _mm256_extractf128_ps, _mm256_extracti128_si256, _mm256_load_ps,
    _mm256_load_si256, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_madd_epi16,
    _mm256_maddubs_epi16, _mm256_mul_ps, _mm256_set1_epi16, _mm256_set1_epi32, _mm256_set1_epi8,
    _mm256_set1_ps, _mm256_setzero_ps, _mm256_setzero_si256, _mm256_shuffle_epi8,
    _mm256_srli_epi16, _mm256_storeu_ps, _mm256_sub_epi8, _mm256_sub_ps, _mm256_xor_ps,
    _mm_add_epi32, _mm_add_ps, _mm_add_ss, _mm_cvtsi128_si32, _mm_cvtss_f32, _mm_movehl_ps,
    _mm_shuffle_epi32, _mm_shuffle_ps,
};

use super::{PackedView, WindowTap};

/// Samples per register tile of [`matmul_samples`]: each pair of mask loads
/// is reused across the tile; 4 samples × 2 accumulators plus masks and the
/// activation register stay within the 16 ymm registers.
const SAMPLE_TILE: usize = 4;

/// 32-byte aligned `[u32 × 8]` rows for aligned `vmovaps` loads.
#[repr(align(32))]
struct MaskLut([[u32; 8]; 256]);

/// `MASK_LUT.0[b][i]` is all-ones iff bit `i` of `b` is set: byte → 8-lane
/// mask in a single load.
static MASK_LUT: MaskLut = MaskLut(build_mask_lut());

const fn build_mask_lut() -> [[u32; 8]; 256] {
    let mut t = [[0u32; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let mut i = 0;
        while i < 8 {
            if b & (1 << i) != 0 {
                t[b][i] = u32::MAX;
            }
            i += 1;
        }
        b += 1;
    }
    t
}

/// The 8-lane mask for byte `bits` (one aligned load from [`MASK_LUT`]).
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime. The load reads
/// one whole 32-byte-aligned table row, and the row index is bounds-checked.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mask_for(bits: usize) -> __m256 {
    _mm256_load_ps(MASK_LUT.0[bits].as_ptr() as *const f32)
}

/// Horizontal sum of all 8 lanes.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime. No memory is
/// read.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hsum(v: __m256) -> f32 {
    let s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
    let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    _mm_cvtss_f32(_mm_add_ss(s, _mm_shuffle_ps(s, s, 1)))
}

/// The byte of each bitplane covering 8-column group `g` of a row.
#[inline(always)]
fn group_bytes(plus_row: &[u64], minus_row: &[u64], g: usize) -> (usize, usize) {
    let sh = (g & 7) * 8;
    (((plus_row[g >> 3] >> sh) & 0xff) as usize, ((minus_row[g >> 3] >> sh) & 0xff) as usize)
}

use super::tail_dot;

/// One group's ±masked activations: `(x & plus_mask) − (x & minus_mask)`.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime. The only loads
/// are [`mask_for`]'s bounds-checked table rows.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn group_delta(xv: __m256, pb: usize, mb: usize) -> __m256 {
    _mm256_sub_ps(_mm256_and_ps(xv, mask_for(pb)), _mm256_and_ps(xv, mask_for(mb)))
}

/// One row's dot product: full 8-lane groups vectorised (each bitplane word
/// hoisted into a register and its 8 bytes peeled without re-indexing the
/// row slices), tail columns via the scalar bit iteration. Even groups
/// accumulate into `a0`, odd into `a1` — [`row_dot_tile`] uses the same
/// schedule so batched and single-sample results are bitwise identical.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime. Every vector
/// load reads 8 floats of `x` at a multiple of 8 below
/// `(x.len() / 8) · 8`, so it ends inside `x`; the row words are read with
/// bounds checks.
#[target_feature(enable = "avx2")]
unsafe fn row_dot(plus_row: &[u64], minus_row: &[u64], x: &[f32]) -> f32 {
    let ngroups = x.len() / 8;
    let nwords = ngroups / 8;
    let (mut a0, mut a1) = (_mm256_setzero_ps(), _mm256_setzero_ps());
    for w in 0..nwords {
        let (pw, mw) = (plus_row[w], minus_row[w]);
        if pw | mw == 0 {
            continue;
        }
        let base = x.as_ptr().add(w * 64);
        // No per-byte skip tests: at TWN density (~2/3 non-zero) a byte is
        // all-zero 0.015% of the time, and adding an all-zero delta is a
        // numeric no-op, so the branches would only burn issue slots.
        for half in 0..4 {
            let (ps, ms) = ((pw >> (16 * half)) as usize, (mw >> (16 * half)) as usize);
            let xv = _mm256_loadu_ps(base.add(half * 16));
            a0 = _mm256_add_ps(a0, group_delta(xv, ps & 0xff, ms & 0xff));
            let xv = _mm256_loadu_ps(base.add(half * 16 + 8));
            a1 = _mm256_add_ps(a1, group_delta(xv, (ps >> 8) & 0xff, (ms >> 8) & 0xff));
        }
    }
    for g in nwords * 8..ngroups {
        let (pb, mb) = group_bytes(plus_row, minus_row, g);
        if pb | mb != 0 {
            let xv = _mm256_loadu_ps(x.as_ptr().add(g * 8));
            let d = group_delta(xv, pb, mb);
            if g & 1 == 0 {
                a0 = _mm256_add_ps(a0, d);
            } else {
                a1 = _mm256_add_ps(a1, d);
            }
        }
    }
    hsum(_mm256_add_ps(a0, a1)) + tail_dot(plus_row, minus_row, x, ngroups * 8)
}

/// An accumulator stripe of `NB` 8-lane blocks (`NB·8` output columns)
/// starting at column `c`: every signed bit contributes one load + one add
/// per block, with the partial sums living in registers for the whole bit
/// list instead of round-tripping through the output row. The sign is
/// applied by XOR-ing the IEEE sign bit (`acc + (−v)` is bitwise
/// `acc − v`), so per element this performs exactly the scalar backend's
/// adds in exactly its order — the output is bitwise identical.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime. The stripe reads
/// and writes columns `c..c + NB·8`, so `c + NB·8 <= p <= orow.len()`, and
/// every entry `(j, _)` of `bits` must name a row of `md`:
/// `(j + 1) · p <= md.len()`.
#[target_feature(enable = "avx2")]
unsafe fn rhs_stripe<const NB: usize>(
    md: &[f32],
    p: usize,
    bits: &[(u32, u32)],
    orow: &mut [f32],
    c: usize,
) {
    let mut acc = [_mm256_setzero_ps(); NB];
    for &(j, sign) in bits {
        let base = md.as_ptr().add(j as usize * p + c);
        let flip = _mm256_castsi256_ps(_mm256_set1_epi32(sign as i32));
        for (k, a) in acc.iter_mut().enumerate() {
            let v = _mm256_loadu_ps(base.add(k * 8));
            *a = _mm256_add_ps(*a, _mm256_xor_ps(v, flip));
        }
    }
    for (k, a) in acc.iter().enumerate() {
        _mm256_storeu_ps(orow.as_mut_ptr().add(c + k * 8), *a);
    }
}

/// `y = W·x`, serial over rows.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime. [`row_dot`]
/// bounds its loads by `x.len()`; the dispatch guarantees
/// `x.len() == v.cols`, which keeps the row words it indexes in range.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn matvec_into(v: &PackedView<'_>, x: &[f32], y: &mut [f32]) {
    let wpr = v.words_per_row;
    for (r, out) in y.iter_mut().enumerate() {
        let base = r * wpr;
        *out = row_dot(&v.plus[base..base + wpr], &v.minus[base..base + wpr], x);
    }
}

/// A register tile of `t <= SAMPLE_TILE` samples against one weight row:
/// each group's mask pair is loaded once and applied to every sample in the
/// tile. Per sample, the group order and accumulator schedule are identical
/// to [`row_dot`], so the result is bitwise the same as running the sample
/// alone.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime. Sample `ti < t`
/// is read at `x[ti·cols..(ti + 1)·cols]` by 8-float loads below
/// `(cols / 8) · 8`, so `x.len() >= t · cols`; `t <= SAMPLE_TILE`.
#[target_feature(enable = "avx2")]
unsafe fn row_dot_tile(
    plus_row: &[u64],
    minus_row: &[u64],
    x: &[f32],
    cols: usize,
    t: usize,
    out: &mut [f32],
    rows: usize,
) {
    let ngroups = cols / 8;
    let nwords = ngroups / 8;
    let mut a0 = [_mm256_setzero_ps(); SAMPLE_TILE];
    let mut a1 = [_mm256_setzero_ps(); SAMPLE_TILE];
    for w in 0..nwords {
        let (pw, mw) = (plus_row[w], minus_row[w]);
        if pw | mw == 0 {
            continue;
        }
        for half in 0..4 {
            let (ps, ms) = ((pw >> (16 * half)) as usize, (mw >> (16 * half)) as usize);
            let (pm0, mm0) = (mask_for(ps & 0xff), mask_for(ms & 0xff));
            let (pm1, mm1) = (mask_for((ps >> 8) & 0xff), mask_for((ms >> 8) & 0xff));
            for ti in 0..t {
                let base = x.as_ptr().add(ti * cols + w * 64 + half * 16);
                let xv = _mm256_loadu_ps(base);
                a0[ti] = _mm256_add_ps(
                    a0[ti],
                    _mm256_sub_ps(_mm256_and_ps(xv, pm0), _mm256_and_ps(xv, mm0)),
                );
                let xv = _mm256_loadu_ps(base.add(8));
                a1[ti] = _mm256_add_ps(
                    a1[ti],
                    _mm256_sub_ps(_mm256_and_ps(xv, pm1), _mm256_and_ps(xv, mm1)),
                );
            }
        }
    }
    for g in nwords * 8..ngroups {
        let (pb, mb) = group_bytes(plus_row, minus_row, g);
        if pb | mb != 0 {
            let (pm, mm) = (mask_for(pb), mask_for(mb));
            let acc = if g & 1 == 0 { &mut a0 } else { &mut a1 };
            for (ti, a) in acc.iter_mut().enumerate().take(t) {
                let xv = _mm256_loadu_ps(x.as_ptr().add(ti * cols + g * 8));
                *a = _mm256_add_ps(*a, _mm256_sub_ps(_mm256_and_ps(xv, pm), _mm256_and_ps(xv, mm)));
            }
        }
    }
    for ti in 0..t {
        out[ti * rows] = hsum(_mm256_add_ps(a0[ti], a1[ti]))
            + tail_dot(plus_row, minus_row, &x[ti * cols..(ti + 1) * cols], ngroups * 8);
    }
}

/// Batched activations, register-tiled in groups of [`SAMPLE_TILE`] so each
/// mask load is reused across the tile. Per-sample reduction order matches
/// [`matvec_into`] exactly, so results are identical for a sample served
/// alone or inside any batch.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime. Each tile hands
/// [`row_dot_tile`] a bounds-checked slice of exactly `t · v.cols` floats;
/// the dispatch guarantees `x.len() == ns · v.cols`.
#[target_feature(enable = "avx2")]
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

/// Writes every element of `out = W · M` through the shared
/// [`super::rhs_rows_striped`] driver over this backend's 64- and 8-column
/// stripes. Element-wise adds in the scalar order throughout, so the
/// output is bitwise identical to the scalar backend's.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime, and
/// `md.len() == v.cols · p`: the stripes load whole `p`-float rows of `md`
/// for every set bit, and a set bit always names a column below `v.cols`
/// (padding bits are clear, which every constructor checks).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn rhs_rows(v: &PackedView<'_>, md: &[f32], p: usize, out: &mut [f32]) {
    super::rhs_rows_striped(v, md, p, out, 64, rhs_stripe::<8>, 8, rhs_stripe::<1>);
}

/// 32-byte aligned nibble→popcount table for `vpshufb`, replicated across
/// both 128-bit lanes.
#[repr(align(32))]
struct PopLut([u8; 32]);

static POP_LUT: PopLut = PopLut([
    0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, // lane 0
    0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, // lane 1
]);

/// Per-byte popcount of a 256-bit vector: the Muła `vpshufb` nibble-LUT
/// scheme — two table shuffles and one byte add per vector.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime. The only load is
/// the whole 32-byte-aligned [`POP_LUT`].
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn popcount_bytes(v: __m256i) -> __m256i {
    let lut = _mm256_load_si256(POP_LUT.0.as_ptr().cast());
    let low = _mm256_set1_epi8(0x0f);
    let lo = _mm256_and_si256(v, low);
    let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low);
    _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi))
}

/// Horizontal sum of the eight i32 lanes.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime. No memory is
/// read.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hsum_epi32(v: __m256i) -> i32 {
    let s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b00_00_11_10>(s));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b00_00_00_01>(s));
    _mm_cvtsi128_si32(s)
}

/// Bit-sliced int8 matvec: per 4-word block, each active activation plane
/// is ANDed with the row's `+`/`−` bitplanes and popcounted per byte
/// (`vpshufb` LUT); the per-byte count *difference* (a signed byte in
/// `±8`) is then weighted by the plane's significance and pair-summed in
/// one `vpmaddubsw` (unsigned weight `2^b` × signed diff), accumulated in
/// i16 lanes across the block's planes, and folded to i32 once per block
/// with `vpmaddwd`. The sign plane's −128 weight is applied by swapping
/// the diff's operands (weight byte `0x80` is +128 to `vpmaddubsw`). No
/// lane ever overflows: |diff pair| ≤ 16, so a plane term is ≤ 2048 and a
/// block's i16 sum ≤ 16·255. Integer arithmetic throughout — bitwise
/// identical to the scalar backend.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime, and
/// `planes.len() >= 8 · v.words_per_row`: block `blk` loads words
/// `blk·4..blk·4 + 4 <= words_per_row` of each bounds-checked row slice and
/// of each active plane.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn bitslice_matvec(v: &PackedView<'_>, planes: &[u64], y: &mut [i32]) {
    let wpr = v.words_per_row;
    let (active, n) = super::active_planes(planes);
    let active = &active[..n];
    let blocks = wpr / 4;
    let ones16 = _mm256_set1_epi16(1);
    let weights: [__m256i; 8] =
        std::array::from_fn(|b| _mm256_set1_epi8(((1u32 << b) & 0xff) as i8));
    for (r, out) in y.iter_mut().enumerate() {
        let base = r * wpr;
        let prow = &v.plus[base..base + wpr];
        let mrow = &v.minus[base..base + wpr];
        let mut acc32 = _mm256_setzero_si256();
        for blk in 0..blocks {
            let pv = _mm256_loadu_si256(prow.as_ptr().add(blk * 4).cast());
            let mv = _mm256_loadu_si256(mrow.as_ptr().add(blk * 4).cast());
            let mut acc16 = _mm256_setzero_si256();
            for &b in active {
                let xv = _mm256_loadu_si256(planes.as_ptr().add(b * wpr + blk * 4).cast());
                let cp = popcount_bytes(_mm256_and_si256(xv, pv));
                let cm = popcount_bytes(_mm256_and_si256(xv, mv));
                let d = if b == 7 { _mm256_sub_epi8(cm, cp) } else { _mm256_sub_epi8(cp, cm) };
                acc16 = _mm256_add_epi16(acc16, _mm256_maddubs_epi16(weights[b], d));
            }
            acc32 = _mm256_add_epi32(acc32, _mm256_madd_epi16(acc16, ones16));
        }
        let mut acc = hsum_epi32(acc32) as i64;
        for w in blocks * 4..wpr {
            acc += super::bitslice_tail_word(planes, wpr, w, prow[w], mrow[w], active);
        }
        *out = acc as i32;
    }
}

/// The portable column-matrix product [`super::scalar::bitslice_rhs`],
/// compiled with the hardware `popcnt` that baseline x86-64 lacks.
///
/// # Safety
///
/// The caller must have verified `popcnt` support at runtime.
#[target_feature(enable = "popcnt")]
pub(crate) unsafe fn bitslice_rhs(v: &PackedView<'_>, x: &[u64], cols: usize, out: &mut [i32]) {
    super::scalar::bitslice_rhs(v, x, cols, out)
}

/// Element-wise `dst[i] += a · src[i]`: `vmulps` then `vaddps`, never a
/// fused multiply-add — fusing would change the rounding and break bitwise
/// equivalence with the scalar backend.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime. Each step loads
/// and stores 8 floats at `i` with `i + 8 <= src.len()`, and `dst` is
/// resliced to `src.len()` first (a bounds-checked panic if shorter).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn slice_axpy(dst: &mut [f32], a: f32, src: &[f32]) {
    let n = src.len();
    let dst = &mut dst[..n];
    let av = _mm256_set1_ps(a);
    let mut i = 0;
    while i + 8 <= n {
        let d = _mm256_loadu_ps(dst.as_ptr().add(i));
        let s = _mm256_loadu_ps(src.as_ptr().add(i));
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_add_ps(d, _mm256_mul_ps(av, s)));
        i += 8;
    }
    for j in i..n {
        dst[j] += a * src[j];
    }
}

/// An accumulator stripe of `NB` 8-lane blocks (`NB·8` output lanes)
/// starting at lane `c` of a window sum: every tap contributes one masked,
/// sign-flipped load and one add per block, with the partial sums living
/// in registers across all taps. Per lane this is the scalar loop's adds in
/// its order, so the output is bitwise identical.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime. The stripe loads
/// and stores lanes `c..c + NB·8`, so `c + NB·8 <= out.len()`, and every
/// tap must satisfy `tap.src + out.len() <= src.len()` and
/// `tap.mask + out.len() <= masks.len()`.
#[target_feature(enable = "avx2")]
unsafe fn window_stripe<const NB: usize>(
    src: &[f32],
    masks: &[u32],
    taps: &[WindowTap],
    out: &mut [f32],
    c: usize,
) {
    let mut acc = [_mm256_setzero_ps(); NB];
    for t in taps {
        let s = src.as_ptr().add(t.src + c);
        let m = masks.as_ptr().add(t.mask + c).cast::<f32>();
        let flip = _mm256_castsi256_ps(_mm256_set1_epi32(t.sign_bit() as i32));
        for (k, a) in acc.iter_mut().enumerate() {
            let v = _mm256_and_ps(_mm256_loadu_ps(s.add(k * 8)), _mm256_loadu_ps(m.add(k * 8)));
            *a = _mm256_add_ps(*a, _mm256_xor_ps(v, flip));
        }
    }
    for (k, a) in acc.iter().enumerate() {
        _mm256_storeu_ps(out.as_mut_ptr().add(c + k * 8), *a);
    }
}

/// The signed, lane-masked window sum of
/// [`super::KernelDispatch::window_sum`]: 64-lane register stripes while
/// they fit, then one more that ends at the last lane when over 32 lanes
/// are left, and otherwise 8-lane stripes, the last of them ending at the
/// last lane. A stripe ending at the last lane overlaps the one before it
/// and recomputes those lanes with the same adds in the same order, so it
/// rewrites them with the same bits. Windows shorter than 8 lanes run the
/// scalar loop.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime, and every tap
/// must satisfy `tap.src + out.len() <= src.len()` and
/// `tap.mask + out.len() <= masks.len()` (the dispatch asserts both): the
/// stripes only touch lanes below `out.len()`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn window_sum(src: &[f32], masks: &[u32], taps: &[WindowTap], out: &mut [f32]) {
    let n = out.len();
    if n < 8 {
        return super::scalar::window_sum(src, masks, taps, out);
    }
    let mut c = 0;
    while c + 64 <= n {
        window_stripe::<8>(src, masks, taps, out, c);
        c += 64;
    }
    if c < n && n >= 64 && n - c > 32 {
        return window_stripe::<8>(src, masks, taps, out, n - 64);
    }
    while c + 8 <= n {
        window_stripe::<1>(src, masks, taps, out, c);
        c += 8;
    }
    if c < n {
        window_stripe::<1>(src, masks, taps, out, n - 8);
    }
}
