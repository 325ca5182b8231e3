//! Bit-sliced int8 activations: quantized activation vectors stored as
//! per-bit u64 planes, so a ternary matvec collapses to pure
//! AND + popcount.
//!
//! # Representation
//!
//! An activation `x` is quantized symmetrically to a signed int8
//! `q = clamp(round(x / scale), −127, 127)` and stored **transposed at the
//! bit level**: plane `b` holds bit `b` of every element's two's-complement
//! byte, packed 64 elements per `u64` word in the same
//! least-significant-bit-first layout as [`super::PackedTernary`]'s weight
//! bitplanes (padding bits beyond `len` stay clear — in two's complement an
//! all-zero bit column is exactly the value 0, so padding is harmless):
//!
//! ```text
//! element      e63 … e2 e1 e0            q = −128·bit7 + Σ_{b<7} 2^b·bitb
//! plane 0   [  b0 … b0 b0 b0 ]  word 0   (bit 0 of every element)
//! plane 1   [  b1 … b1 b1 b1 ]  word 0
//!   ⋮
//! plane 7   [  b7 … b7 b7 b7 ]  word 0   (sign bits)
//! ```
//!
//! Against a ternary weight row `(plus, minus)` the integer dot product is
//!
//! ```text
//! Wᵣ · q = Σ_b w(b) · [ pop(x_b & plus) − pop(x_b & minus) ]
//! w(b) = 2^b for b < 7,  w(7) = −128
//! ```
//!
//! — one AND and one popcount per plane word per bitplane, no multiplies,
//! exact i32 accumulation. The kernels behind
//! [`super::PackedTernary::bitsliced_matvec_into_with`] skip planes with no
//! set bits (post-ReLU activations have an all-zero sign plane; small
//! activations leave the high-magnitude planes empty), which is exact:
//! an all-zero plane contributes nothing.
//!
//! Two operands carry these planes. [`BitSliced`] stores whole vectors one
//! after another (sample-major), the operand of the dense layers and the
//! tree head. [`BitSlicedColumns`] stores a matrix's columns side by side
//! (column-minor), the operand of a convolution's `[k × positions]` column
//! matrix: one broadcast weight word then meets 8 positions' plane words
//! in one SIMD register, and
//! [`super::PackedTernary::bitsliced_matmul_rhs_into_with`] writes the
//! channel-major `[rows × positions]` map the next stage reads.
//!
//! Unlike the f32-lane packed kernels, the bit-sliced path is **bitwise
//! identical across every [`super::kernel::Kernel`] backend** — the
//! arithmetic is integral, so no reassociation can change a result, and
//! every quantize rounds by [`quantize_i8`]'s one formula.

use super::kernel::{scalar, KernelDispatch};
use super::PackedTernary;

/// Bit planes per element: int8 two's complement.
pub const PLANES: usize = 8;

/// Bits per storage word of one plane.
const WORD_BITS: usize = 64;

/// Quantizes one value to the signed int8 grid: `clamp(round(x·inv_scale),
/// −127, 127)`, rounding half away from zero, with NaN sent to 0
/// (symmetric — `−128` is never produced, keeping the grid
/// sign-symmetric). `inv_scale` is `1/scale`.
///
/// This is the one rounding formula of the bit-sliced family, and the
/// SIMD column quantize computes it lane for lane: clamp `y = x·inv_scale`
/// to ±127, truncate it toward zero, and add ±1 where the fraction
/// `y − trunc(y)` is at least ½ in magnitude. The fraction is exact for
/// `|y| ≤ 127`, so this equals `round()` on every input, while a hardware
/// conversion alone would round half to even.
#[inline(always)]
pub fn quantize_i8(x: f32, inv_scale: f32) -> i8 {
    let y = (x * inv_scale).clamp(-127.0, 127.0);
    // Truncates toward zero; NaN converts to 0 and leaves a NaN fraction.
    let t = y as i32;
    let frac = y - t as f32;
    (t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)) as i8
}

/// A batch of bit-sliced int8 activation vectors.
///
/// `samples` vectors of `len` elements each, stored sample-major: sample
/// `s`, plane `b` occupies words `((s·8 + b)·words)..((s·8 + b + 1)·words)`
/// where `words = len.div_ceil(64)`. A single vector is simply
/// `samples == 1`.
///
/// # Examples
///
/// ```
/// use thnt_strassen::packed::bitslice::BitSliced;
///
/// let x = BitSliced::quantize(&[1.0, -2.5, 0.0, 127.0], 4, 1.0);
/// assert_eq!(x.get(0, 0), 1);
/// assert_eq!(x.get(0, 1), -3); // round half away from zero
/// assert_eq!(x.get(0, 3), 127);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSliced {
    samples: usize,
    len: usize,
    words: usize,
    planes: Vec<u64>,
}

impl BitSliced {
    /// An all-zero batch of `samples` vectors of `len` elements.
    pub fn zeroed(samples: usize, len: usize) -> Self {
        let words = len.div_ceil(WORD_BITS);
        Self { samples, len, words, planes: vec![0; samples * PLANES * words] }
    }

    /// Quantizes `x` (row-major, `samples × len` with
    /// `samples = x.len() / len`) into a new batch.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`, `x.len()` is not a multiple of `len`, or
    /// `scale` is not strictly positive.
    pub fn quantize(x: &[f32], len: usize, scale: f32) -> Self {
        assert!(len > 0, "element count must be positive");
        assert_eq!(x.len() % len, 0, "input length {} not a multiple of len {len}", x.len());
        let mut out = Self::zeroed(x.len() / len, len);
        out.quantize_into(x, scale);
        out
    }

    /// Re-quantizes `x` into this batch in place (same `samples × len`
    /// geometry), reusing the plane buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != samples · len` or `scale` is not strictly
    /// positive.
    pub fn quantize_into(&mut self, x: &[f32], scale: f32) {
        assert_eq!(x.len(), self.samples * self.len, "input/geometry mismatch");
        assert!(scale > 0.0, "scale must be strictly positive, got {scale}");
        let inv = scale.recip();
        // One sample's planes are a one-column matrix in the column-minor
        // layout of `BitSlicedColumns`.
        let samples =
            x.chunks_exact(self.len).zip(self.planes.chunks_exact_mut(PLANES * self.words));
        for (sample, planes) in samples {
            scalar::bitslice_columns(sample, 1, inv, planes);
        }
    }

    /// Number of vectors in the batch.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Elements per vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vectors are zero-length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Words per plane: `len.div_ceil(64)`.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Bytes of plane storage for the whole batch.
    pub fn plane_bytes(&self) -> usize {
        self.planes.len() * std::mem::size_of::<u64>()
    }

    /// Sample `s`'s 8 planes, concatenated (`8 · words` words, plane-major)
    /// — the operand [`KernelDispatch`]'s popcount kernels consume.
    ///
    /// # Panics
    ///
    /// Panics if `s >= samples`.
    pub fn sample_planes(&self, s: usize) -> &[u64] {
        let stride = PLANES * self.words;
        &self.planes[s * stride..(s + 1) * stride]
    }

    /// Reconstructs element `i` of sample `s` from its bit column.
    ///
    /// # Panics
    ///
    /// Panics if `s >= samples` or `i >= len`.
    pub fn get(&self, s: usize, i: usize) -> i8 {
        assert!(i < self.len, "element {i} out of range {}", self.len);
        let planes = self.sample_planes(s);
        let (w, bit) = (i / WORD_BITS, i % WORD_BITS);
        let mut u = 0u8;
        for b in 0..PLANES {
            u |= (((planes[b * self.words + w] >> bit) & 1) as u8) << b;
        }
        u as i8
    }
}

/// An int8 `rows × cols` matrix bit-sliced along its rows with the
/// columns minor: the operand of a convolution's column matrix, one column
/// per output position.
///
/// Plane `b`, word `w` (rows `64·w..64·w + 64`), column `c` is the word at
/// `(b·words + w)·cols + c`, with `words = rows.div_ceil(64)` and the
/// padding bits clear. So the 8 columns one SIMD register holds are 8
/// consecutive words, and
/// [`PackedTernary::bitsliced_matmul_rhs_into_with`] popcounts them
/// against one broadcast weight word:
///
/// ```text
///            column  c0   c1   c2  …  c(cols−1)
/// plane 0, word 0 [  w00  w01  w02 …  ]   bit i of w0c = bit 0 of q[i][c]
/// plane 0, word 1 [  …                ]   (rows 64..128)
///   ⋮
/// plane 7, word 0 [  …                ]   sign bits
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSlicedColumns {
    rows: usize,
    cols: usize,
    words: usize,
    planes: Vec<u64>,
}

impl BitSlicedColumns {
    /// An all-zero `rows × cols` matrix.
    pub fn zeroed(rows: usize, cols: usize) -> Self {
        let words = rows.div_ceil(WORD_BITS);
        Self { rows, cols, words, planes: vec![0; PLANES * words * cols] }
    }

    /// Re-quantizes the row-major `[rows × cols]` f32 matrix `m` into this
    /// operand in place, every element rounded by [`quantize_i8`] at
    /// `1/scale`, through an explicit kernel handle.
    ///
    /// # Panics
    ///
    /// Panics if `m.len() != rows · cols` or `scale` is not strictly
    /// positive.
    pub fn quantize_into_with(&mut self, d: &KernelDispatch, m: &[f32], scale: f32) {
        assert!(scale > 0.0, "scale must be strictly positive, got {scale}");
        d.bitslice_columns(m, self.rows, self.cols, scale.recip(), &mut self.planes);
    }

    /// Elements per column.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Every plane word, in the layout above.
    pub fn planes(&self) -> &[u64] {
        &self.planes
    }

    /// Reconstructs element `(i, c)` from its bit column.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows` or `c >= cols`.
    pub fn get(&self, i: usize, c: usize) -> i8 {
        assert!(i < self.rows && c < self.cols, "element ({i}, {c}) out of range");
        let (w, bit) = (i / WORD_BITS, i % WORD_BITS);
        let mut u = 0u8;
        for b in 0..PLANES {
            u |= (((self.planes[(b * self.words + w) * self.cols + c] >> bit) & 1) as u8) << b;
        }
        u as i8
    }
}

impl PackedTernary<'_> {
    /// Bit-sliced integer matvec `y = W·q` through an explicit kernel
    /// handle: pure AND+popcount over the weight bitplanes and `x`'s
    /// activation planes, exact i32 accumulation, bitwise identical across
    /// every backend.
    ///
    /// # Panics
    ///
    /// Panics unless `x` is a single sample of `cols` elements and
    /// `y.len() == rows`.
    pub fn bitsliced_matvec_into_with(&self, d: &KernelDispatch, x: &BitSliced, y: &mut [i32]) {
        assert_eq!(x.samples(), 1, "matvec takes a single sample");
        self.bitsliced_matmul_into_with(d, x, y);
    }

    /// Bit-sliced integer matvec with the process-default kernel.
    ///
    /// # Panics
    ///
    /// As [`Self::bitsliced_matvec_into_with`]; additionally panics if
    /// `THNT_KERNEL` names an unknown or unsupported backend.
    pub fn bitsliced_matvec_into(&self, x: &BitSliced, y: &mut [i32]) {
        self.bitsliced_matvec_into_with(KernelDispatch::get(), x, y);
    }

    /// Batched bit-sliced integer product: `out[s·rows + r] = Wᵣ · qₛ` for
    /// every sample of `x`, through an explicit kernel handle.
    ///
    /// # Panics
    ///
    /// Panics unless `x.len() == cols` and
    /// `out.len() == x.samples() · rows`.
    pub fn bitsliced_matmul_into_with(&self, d: &KernelDispatch, x: &BitSliced, out: &mut [i32]) {
        assert_eq!(x.len(), self.cols(), "activation length must equal cols");
        assert_eq!(out.len(), x.samples() * self.rows(), "output length mismatch");
        let v = self.view();
        for (s, y) in out.chunks_exact_mut(self.rows()).enumerate() {
            d.bitslice_matvec(&v, x.sample_planes(s), y);
        }
    }

    /// Bit-sliced integer product with a column matrix, the popcount twin
    /// of [`Self::matmul_rhs_slice_into_with`]: `out[r·cols + c] = Wᵣ · x_c`
    /// as a row-major i32 `[rows × x.cols()]` map, exact and bitwise
    /// identical on every backend.
    ///
    /// # Panics
    ///
    /// Panics unless `x.rows() == cols` and `out.len() == rows · x.cols()`.
    pub fn bitsliced_matmul_rhs_into_with(
        &self,
        d: &KernelDispatch,
        x: &BitSlicedColumns,
        out: &mut [i32],
    ) {
        assert_eq!(x.rows(), self.cols(), "column length must equal cols");
        d.bitslice_rhs(&self.view(), x.planes(), x.cols(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::super::kernel::Kernel;
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use thnt_tensor::Tensor;

    fn random_ternary(
        rows: usize,
        cols: usize,
        rng: &mut SmallRng,
    ) -> (PackedTernary<'static>, Vec<i8>) {
        let signs: Vec<i8> = (0..rows * cols).map(|_| rng.gen_range(-1..=1)).collect();
        let t = Tensor::from_vec(signs.iter().map(|&s| s as f32).collect(), &[rows, cols]);
        (PackedTernary::from_tensor(&t), signs)
    }

    fn reference_matvec(signs: &[i8], q: &[i8], rows: usize, cols: usize) -> Vec<i32> {
        (0..rows)
            .map(|r| (0..cols).map(|c| signs[r * cols + c] as i32 * q[c] as i32).sum())
            .collect()
    }

    #[test]
    fn quantize_then_get_roundtrips_every_int8_level() {
        let vals: Vec<f32> = (-127..=127).map(|q| q as f32 * 0.031).collect();
        let b = BitSliced::quantize(&vals, vals.len(), 0.031);
        for (i, q) in (-127i32..=127).enumerate() {
            assert_eq!(b.get(0, i) as i32, q, "level {q}");
        }
    }

    #[test]
    fn quantize_clamps_and_rounds() {
        let b = BitSliced::quantize(&[1000.0, -1000.0, 0.49, 0.5, -0.5, f32::NAN], 6, 1.0);
        assert_eq!(b.get(0, 0), 127);
        assert_eq!(b.get(0, 1), -127);
        assert_eq!(b.get(0, 2), 0);
        assert_eq!(b.get(0, 3), 1, "round half away from zero");
        assert_eq!(b.get(0, 4), -1);
        assert_eq!(b.get(0, 5), 0, "NaN saturates to 0");
    }

    #[test]
    fn padding_bits_stay_clear() {
        let b = BitSliced::quantize(&[-1.0; 65], 65, 1.0);
        assert_eq!(b.words(), 2);
        let planes = b.sample_planes(0);
        for bp in 0..PLANES {
            assert_eq!(planes[bp * 2 + 1] >> 1, 0, "plane {bp} padding dirty");
        }
    }

    #[test]
    fn matvec_is_exact_against_integer_reference_at_word_boundaries() {
        let mut rng = SmallRng::seed_from_u64(42);
        for cols in [1usize, 63, 64, 65, 127, 128, 129, 300] {
            let rows = 17;
            let (w, signs) = random_ternary(rows, cols, &mut rng);
            let x: Vec<f32> = (0..cols).map(|_| rng.gen_range(-4.0..4.0)).collect();
            let scale = 4.0 / 127.0;
            let b = BitSliced::quantize(&x, cols, scale);
            let q: Vec<i8> = (0..cols).map(|i| b.get(0, i)).collect();
            let expect = reference_matvec(&signs, &q, rows, cols);
            let mut y = vec![0i32; rows];
            w.bitsliced_matvec_into(&b, &mut y);
            assert_eq!(y, expect, "cols={cols}");
        }
    }

    #[test]
    fn every_backend_is_bitwise_identical() {
        let mut rng = SmallRng::seed_from_u64(7);
        let (rows, cols) = (23, 130);
        let (w, signs) = random_ternary(rows, cols, &mut rng);
        let x: Vec<f32> = (0..3 * cols).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let b = BitSliced::quantize(&x, cols, 2.0 / 127.0);
        let mut expect = Vec::new();
        for s in 0..3 {
            let q: Vec<i8> = (0..cols).map(|i| b.get(s, i)).collect();
            expect.extend(reference_matvec(&signs, &q, rows, cols));
        }
        for k in Kernel::available() {
            let d = KernelDispatch::new(k).unwrap();
            let mut out = vec![0i32; 3 * rows];
            w.bitsliced_matmul_into_with(&d, &b, &mut out);
            assert_eq!(out, expect, "kernel {k}");
        }
    }

    #[test]
    fn column_quantization_transposes() {
        // 3×2 matrix, column j must hold the matrix's column j.
        let m = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]; // rows: [1 2], [3 4], [5 6]
        for k in Kernel::available() {
            let mut b = BitSlicedColumns::zeroed(3, 2);
            b.quantize_into_with(&KernelDispatch::new(k).unwrap(), &m, 1.0);
            assert_eq!((b.get(0, 0), b.get(1, 0), b.get(2, 0)), (1, 3, 5), "kernel {k}");
            assert_eq!((b.get(0, 1), b.get(1, 1), b.get(2, 1)), (2, 4, 6), "kernel {k}");
        }
    }

    #[test]
    fn column_product_matches_the_per_column_matvec() {
        let mut rng = SmallRng::seed_from_u64(11);
        let (rows, len, cols) = (9, 70, 13);
        let (w, _) = random_ternary(rows, len, &mut rng);
        let m: Vec<f32> = (0..len * cols).map(|_| rng.gen_range(-3.0..3.0)).collect();
        for k in Kernel::available() {
            let d = KernelDispatch::new(k).unwrap();
            let mut x = BitSlicedColumns::zeroed(len, cols);
            x.quantize_into_with(&d, &m, 3.0 / 127.0);
            let mut got = vec![0i32; rows * cols];
            w.bitsliced_matmul_rhs_into_with(&d, &x, &mut got);
            for c in 0..cols {
                let col: Vec<f32> = (0..len).map(|i| m[i * cols + c]).collect();
                let mut y = vec![0i32; rows];
                w.bitsliced_matvec_into_with(
                    &d,
                    &BitSliced::quantize(&col, len, 3.0 / 127.0),
                    &mut y,
                );
                let got_c: Vec<i32> = (0..rows).map(|r| got[r * cols + c]).collect();
                assert_eq!(got_c, y, "kernel {k} column {c}");
            }
        }
    }

    /// The trunc-and-adjust formula against `round().clamp()` on every
    /// f32 within 4 ulps of each half-integer `n + ½` with `|n| ≤ 130`, the
    /// special values, the subnormals' edges and a strided sweep of all
    /// bit patterns. The exhaustive check over all 2³² inputs is
    /// `quantize_i8_is_round_on_every_f32`, run with `--ignored`.
    #[test]
    fn quantize_i8_is_round_half_away_from_zero() {
        let reference = |y: f32| y.round().clamp(-127.0, 127.0) as i8;
        let mut inputs = vec![0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN];
        inputs.extend([f32::MIN_POSITIVE, f32::MAX, f32::MIN, f32::EPSILON]);
        inputs.extend([1u32, 2, 0x007f_ffff, 0x0040_0000].map(f32::from_bits));
        for n in -130i32..=130 {
            let mut lo = n as f32 + 0.5;
            let mut hi = lo;
            for _ in 0..4 {
                (lo, hi) = (lo.next_down(), hi.next_up());
            }
            let mut y = lo;
            while y <= hi {
                inputs.push(y);
                y = y.next_up();
            }
        }
        inputs.extend((0..=u32::MAX).step_by(65_537).map(f32::from_bits));
        for &x in &inputs {
            for y in [x, -x] {
                assert_eq!(quantize_i8(y, 1.0), reference(y), "x = {y:e} ({:#010x})", y.to_bits());
            }
        }
    }

    #[test]
    #[ignore = "sweeps all 2^32 f32 bit patterns; run in release with --ignored"]
    fn quantize_i8_is_round_on_every_f32() {
        for bits in 0..=u32::MAX {
            let y = f32::from_bits(bits);
            assert_eq!(quantize_i8(y, 1.0), y.round().clamp(-127.0, 127.0) as i8, "{bits:#010x}");
        }
    }

    #[test]
    fn in_place_requantization_clears_previous_bits() {
        let mut b = BitSliced::quantize(&[127.0, -127.0], 2, 1.0);
        b.quantize_into(&[0.0, 1.0], 1.0);
        assert_eq!((b.get(0, 0), b.get(0, 1)), (0, 1));
        let mut y = vec![0i32; 1];
        let w = PackedTernary::from_tensor(&Tensor::from_vec(vec![1.0, 1.0], &[1, 2]));
        w.bitsliced_matvec_into(&b, &mut y);
        assert_eq!(y[0], 1);
    }

    #[test]
    #[should_panic(expected = "scale must be strictly positive")]
    fn rejects_non_positive_scale() {
        BitSliced::quantize(&[1.0], 1, 0.0);
    }
}
