//! Packed ternary storage as two bitplanes and the word-level add-only
//! inference kernels.
//!
//! The paper's deployment story is that ternary matrices (i) pack at 2 bits
//! per entry — the source of the 52.2% model-size reduction — and (ii)
//! execute with **additions and subtractions only**, no multiplications.
//! This module makes both concrete and fast:
//!
//! * [`PackedTernary`] stores a ternary matrix as two *bitplanes* — a `+1`
//!   mask and a `−1` mask — in row-padded `u64` words (2 bits/entry plus at
//!   most 126 bits of padding per row),
//! * [`PackedTernary::matvec`] computes `W·x` with `+`/`−` only, iterating
//!   the set bits of each word (TWN ternarization leaves ~1/3 of the entries
//!   zero, so skipping zeros word-by-word beats decoding every entry),
//! * [`PackedTernary::matmul`] is the batched form for activations
//!   `[n, cols]`, register-tiled over samples so each weight word is decoded
//!   once per tile instead of once per sample,
//! * [`PackedTernary::matmul_rhs`] is the column-matrix form used by the
//!   packed convolution engine (`W · im2col(x)`), whose inner loop is a
//!   contiguous slice add, and
//! * [`PackedTernary::add_count`] reports the *exact* number of additions a
//!   microcontroller would execute — now a per-word `count_ones()` popcount
//!   instead of a per-entry scan — the empirical cross-check for the
//!   analytic cost model in [`crate::cost`].
//!
//! The compute loops themselves live in [`kernel`], which dispatches once
//! per process between a scalar reference backend and SIMD backends (AVX2
//! on x86_64, NEON on aarch64) selected by runtime feature detection or
//! the `THNT_KERNEL` environment override. Every operation below routes
//! through that dispatcher, so all consumers — the packed layer engine, the
//! streaming detector, the multi-session server — get the widest kernel the
//! host supports without code changes.

use std::borrow::Cow;

use thnt_tensor::Tensor;

pub mod bitslice;
pub mod kernel;

use kernel::{KernelDispatch, PackedView};

/// Bits per storage word of one bitplane.
const WORD_BITS: usize = 64;

/// A ternary matrix packed as two bitplanes at 2 bits per entry.
///
/// The bitplanes are [`Cow`] slices so a matrix can either *own* its words
/// (the compile path — `PackedTernary<'static>`) or *borrow* them straight
/// out of a mapped `.thnt2` artifact buffer (the zero-copy load path,
/// [`Self::from_cow_parts`] with `Cow::Borrowed`). Every kernel consumes a
/// borrowed [`PackedView`] either way, so compute is identical for both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedTernary<'a> {
    rows: usize,
    cols: usize,
    /// `u64` words per row of each bitplane: `cols.div_ceil(64)`. Rows are
    /// padded to a whole word so every row starts word-aligned.
    words_per_row: usize,
    /// The `+1` plane: bit `c % 64` of word `r·words_per_row + c/64` is set
    /// iff entry `(r, c)` is `+1`. Padding bits are always clear.
    plus: Cow<'a, [u64]>,
    /// The `−1` plane, same layout. A bit is never set in both planes.
    minus: Cow<'a, [u64]>,
}

impl<'a> PackedTernary<'a> {
    /// Packs a ternary tensor (`values ∈ {−1, 0, 1}`, shape `[rows, cols]`).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or contains non-ternary values.
    pub fn from_tensor(t: &Tensor) -> PackedTernary<'static> {
        assert_eq!(t.shape().rank(), 2, "PackedTernary expects a 2-D tensor");
        let (rows, cols) = (t.dims()[0], t.dims()[1]);
        let words_per_row = cols.div_ceil(WORD_BITS);
        let mut plus = vec![0u64; rows * words_per_row];
        let mut minus = vec![0u64; rows * words_per_row];
        for (i, &v) in t.data().iter().enumerate() {
            let (r, c) = (i / cols.max(1), i % cols.max(1));
            let w = r * words_per_row + c / WORD_BITS;
            let bit = 1u64 << (c % WORD_BITS);
            if v == 1.0 {
                plus[w] |= bit;
            } else if v == -1.0 {
                minus[w] |= bit;
            } else if v != 0.0 {
                panic!("non-ternary value {v} at index {i}");
            }
        }
        PackedTernary {
            rows,
            cols,
            words_per_row,
            plus: Cow::Owned(plus),
            minus: Cow::Owned(minus),
        }
    }

    /// Matrix rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matrix columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `u64` words per row of each bitplane.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The `+1` bitplane words, row-major — the **stable serialized layout**
    /// consumed by the `.thnt2` artifact format. Bit `c % 64` of word
    /// `r·words_per_row + c/64` is set iff entry `(r, c)` is `+1`; row
    /// padding bits are always clear.
    pub fn plus_words(&self) -> &[u64] {
        &self.plus
    }

    /// The `−1` bitplane words, same layout as [`Self::plus_words`].
    pub fn minus_words(&self) -> &[u64] {
        &self.minus
    }

    /// Reassembles a packed matrix from its serialized layout (the inverse
    /// of [`Self::plus_words`] / [`Self::minus_words`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant: wrong word
    /// counts for the shape, a set bit in the row-padding region, or an
    /// entry claimed by both planes. A matrix that loads successfully is
    /// indistinguishable from one built by [`Self::from_tensor`].
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        plus: Vec<u64>,
        minus: Vec<u64>,
    ) -> Result<PackedTernary<'static>, String> {
        PackedTernary::from_cow_parts(rows, cols, Cow::Owned(plus), Cow::Owned(minus))
    }

    /// [`Self::from_raw_parts`] over [`Cow`] planes: the zero-copy loading
    /// entry point. `Cow::Borrowed` planes alias the caller's buffer (e.g. a
    /// mapped `.thnt2` artifact) and are validated in place — the matrix is
    /// usable without copying a single bitplane word. Validation is the same
    /// as for owned planes; a matrix that loads successfully is
    /// indistinguishable from one built by [`Self::from_tensor`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::from_raw_parts`].
    pub fn from_cow_parts(
        rows: usize,
        cols: usize,
        plus: Cow<'a, [u64]>,
        minus: Cow<'a, [u64]>,
    ) -> Result<PackedTernary<'a>, String> {
        let m = Self::from_cow_parts_trusted(rows, cols, plus, minus)?;
        for (i, (&p, &mi)) in m.plus.iter().zip(m.minus.iter()).enumerate() {
            if p & mi != 0 {
                return Err(format!("word {i} claims entries as both +1 and -1"));
            }
        }
        Ok(m)
    }

    /// [`Self::from_cow_parts`] minus the O(words) plane-overlap scan. This
    /// is the fast path for loaders that treat their input as trusted (e.g.
    /// a memory-mapped artifact produced by this crate's own serializer),
    /// where re-scanning every plane on every process start would defeat
    /// the point of a zero-copy load.
    ///
    /// The shape/word-count invariant and the O(rows) padding check still
    /// run: a set bit beyond `cols` in a row's last word would name a column
    /// past the end of the activations, which the scalar kernels turn into
    /// an index panic and the SIMD `matmul_rhs` stripes into an
    /// out-of-bounds read. Entries claimed by both planes are **not**
    /// rejected here; they only produce wrong sums, because every bit they
    /// set names an in-range column.
    ///
    /// # Errors
    ///
    /// Returns a description of a plane whose word count does not match the
    /// shape, or of a row with set bits in its padding region.
    pub fn from_cow_parts_trusted(
        rows: usize,
        cols: usize,
        plus: Cow<'a, [u64]>,
        minus: Cow<'a, [u64]>,
    ) -> Result<PackedTernary<'a>, String> {
        let words_per_row = cols.div_ceil(WORD_BITS);
        let want = rows * words_per_row;
        if plus.len() != want || minus.len() != want {
            return Err(format!(
                "bitplane word count mismatch: {rows}x{cols} needs {want} words per plane, \
                 got {} plus / {} minus",
                plus.len(),
                minus.len()
            ));
        }
        let tail_bits = cols % WORD_BITS;
        if tail_bits != 0 {
            let pad_mask = !0u64 << tail_bits;
            for r in 0..rows {
                let last = (r + 1) * words_per_row - 1;
                if (plus[last] | minus[last]) & pad_mask != 0 {
                    return Err(format!("row {r} has set bits in the padding region"));
                }
            }
        }
        Ok(PackedTernary { rows, cols, words_per_row, plus, minus })
    }

    /// `true` iff both bitplanes borrow their words from an external buffer
    /// (a zero-copy load); `false` for owned planes. The cold-start bench
    /// gate uses this to assert that an aligned `load_thnt2_ref` really did
    /// not copy any bitplane.
    pub fn is_borrowed(&self) -> bool {
        matches!(self.plus, Cow::Borrowed(_)) && matches!(self.minus, Cow::Borrowed(_))
    }

    /// Converts into a matrix that owns its bitplanes (`'static`), copying
    /// them if they were borrowed. The inverse direction of the zero-copy
    /// load: detach from the artifact buffer.
    pub fn into_owned(self) -> PackedTernary<'static> {
        PackedTernary {
            rows: self.rows,
            cols: self.cols,
            words_per_row: self.words_per_row,
            plus: Cow::Owned(self.plus.into_owned()),
            minus: Cow::Owned(self.minus.into_owned()),
        }
    }

    /// Packed storage in bytes: both bitplanes, including row padding.
    pub fn packed_bytes(&self) -> usize {
        (self.plus.len() + self.minus.len()) * std::mem::size_of::<u64>()
    }

    /// Decodes entry `(r, c)` back to `−1.0 | 0.0 | 1.0`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        let w = r * self.words_per_row + c / WORD_BITS;
        let bit = 1u64 << (c % WORD_BITS);
        if self.plus[w] & bit != 0 {
            1.0
        } else if self.minus[w] & bit != 0 {
            -1.0
        } else {
            0.0
        }
    }

    /// Unpacks to a dense tensor (for verification).
    pub fn to_tensor(&self) -> Tensor {
        let mut out = Tensor::zeros(&[self.rows, self.cols]);
        let od = out.data_mut();
        for r in 0..self.rows {
            let base = r * self.words_per_row;
            for w in 0..self.words_per_row {
                let off = w * WORD_BITS;
                let mut p = self.plus[base + w];
                while p != 0 {
                    od[r * self.cols + off + p.trailing_zeros() as usize] = 1.0;
                    p &= p - 1;
                }
                let mut m = self.minus[base + w];
                while m != 0 {
                    od[r * self.cols + off + m.trailing_zeros() as usize] = -1.0;
                    m &= m - 1;
                }
            }
        }
        out
    }

    /// Borrowed bitplane view — the operand form the [`kernel`] backends
    /// consume.
    fn view(&self) -> PackedView<'_> {
        PackedView {
            rows: self.rows,
            cols: self.cols,
            words_per_row: self.words_per_row,
            plus: &self.plus[..],
            minus: &self.minus[..],
        }
    }

    /// Computes `y = W·x` using only additions/subtractions, word-at-a-time
    /// through the process-wide [`kernel::KernelDispatch`].
    ///
    /// # Examples
    ///
    /// ```
    /// use thnt_strassen::PackedTernary;
    /// use thnt_tensor::Tensor;
    ///
    /// // [[+1, 0, -1], [0, +1, +1]] packed at 2 bits per entry.
    /// let w = Tensor::from_vec(vec![1.0, 0.0, -1.0, 0.0, 1.0, 1.0], &[2, 3]);
    /// let packed = PackedTernary::from_tensor(&w);
    /// let y = packed.matvec(&[3.0, 5.0, 7.0]);
    /// assert_eq!(y, vec![3.0 - 7.0, 5.0 + 7.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// [`Self::matvec`] into a caller-provided buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_into(&self, x: &[f32], y: &mut [f32]) {
        self.matvec_into_with(KernelDispatch::get(), x, y);
    }

    /// [`Self::matvec_into`] on an explicit kernel backend — how the
    /// equivalence tests and the kernel benchmarks pit backends against
    /// each other inside one process.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_into_with(&self, dispatch: &KernelDispatch, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output length mismatch");
        dispatch.matvec_into(&self.view(), x, y);
    }

    /// Scalar reference kernel: decodes every entry one at a time, exactly
    /// like a naïve 2-bit unpack loop would. A test oracle: the property
    /// and unit tests check the word-level [`Self::matvec`] against it.
    pub fn matvec_per_entry(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0f32; self.rows];
        for r in 0..self.rows {
            let mut acc = 0.0f32;
            for c in 0..self.cols {
                let v = self.get(r, c);
                if v == 1.0 {
                    acc += x[c];
                } else if v == -1.0 {
                    acc -= x[c];
                }
            }
            y[r] = acc;
        }
        y
    }

    /// Batched add-only matmul for activations: `Y = X · Wᵀ` with
    /// `X: [n, cols]` row-major, returning `Y: [n, rows]`.
    ///
    /// One call into the dispatched [`kernel`] backend covers the whole
    /// batch on the calling thread (the scalar backend register-tiles 4
    /// samples per weight-word decode; the SIMD backends run the
    /// lane-parallel row kernel per sample). Per-sample results are
    /// independent of the batch they arrive in. Serving parallelises across
    /// shards, never inside a kernel call.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not 2-D with `cols` columns.
    pub fn matmul(&self, x: &Tensor) -> Tensor {
        self.matmul_with(KernelDispatch::get(), x)
    }

    /// [`Self::matmul`] on an explicit kernel backend.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not 2-D with `cols` columns.
    pub fn matmul_with(&self, dispatch: &KernelDispatch, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().rank(), 2, "packed matmul expects a 2-D activation matrix");
        assert_eq!(x.dims()[1], self.cols, "packed matmul dimension mismatch");
        let n = x.dims()[0];
        let mut y = Tensor::zeros(&[n, self.rows]);
        if n == 0 || self.rows == 0 {
            return y;
        }
        dispatch.matmul_samples(&self.view(), x.data(), y.data_mut());
        y
    }

    /// Add-only product with a column matrix: `Y = W · M` with
    /// `M: [cols, p]` row-major, returning `Y: [rows, p]`.
    ///
    /// This is the kernel behind the packed convolution engine
    /// (`M = im2col(x)`): each set bit contributes a whole contiguous row of
    /// `M` to the output row, so the inner loop is a unit-stride slice
    /// add/subtract. All output rows are computed in one kernel call on the
    /// calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not 2-D with `cols` rows.
    pub fn matmul_rhs(&self, m: &Tensor) -> Tensor {
        let mut y = Tensor::zeros(&[self.rows, m.dims().get(1).copied().unwrap_or(0)]);
        self.matmul_rhs_into(m, y.data_mut());
        y
    }

    /// [`Self::matmul_rhs`] into a caller-provided buffer (no allocation) —
    /// the batch loop of the packed convolution engine writes each sample's
    /// output directly into its slice of the batched tensor. Every element
    /// of `out` is overwritten, so the buffer need not be zeroed.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not 2-D with `cols` rows or `out.len() != rows·p`.
    pub fn matmul_rhs_into(&self, m: &Tensor, out: &mut [f32]) {
        self.matmul_rhs_into_with(KernelDispatch::get(), m, out);
    }

    /// [`Self::matmul_rhs_into`] on an explicit kernel backend.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::matmul_rhs_into`].
    pub fn matmul_rhs_into_with(&self, dispatch: &KernelDispatch, m: &Tensor, out: &mut [f32]) {
        assert_eq!(m.shape().rank(), 2, "packed matmul_rhs expects a 2-D matrix");
        assert_eq!(m.dims()[0], self.cols, "packed matmul_rhs dimension mismatch");
        self.matmul_rhs_slice_into_with(dispatch, m.data(), m.dims()[1], out);
    }

    /// [`Self::matmul_rhs_into_with`] over a column matrix given as a flat
    /// row-major `[cols, p]` slice — how the packed convolution engine
    /// hands a 1×1 convolution its input sample in place, with no copy.
    ///
    /// # Panics
    ///
    /// Panics if `m.len() != cols·p` or `out.len() != rows·p`.
    pub fn matmul_rhs_slice_into_with(
        &self,
        dispatch: &KernelDispatch,
        m: &[f32],
        p: usize,
        out: &mut [f32],
    ) {
        assert_eq!(m.len(), self.cols * p, "packed matmul_rhs dimension mismatch");
        assert_eq!(out.len(), self.rows * p, "packed matmul_rhs output length mismatch");
        if self.rows == 0 || p == 0 {
            return;
        }
        dispatch.rhs_rows(&self.view(), m, p, out);
    }

    /// The exact number of additions/subtractions [`Self::matvec`] executes:
    /// one per non-zero entry, computed with per-word popcounts.
    pub fn add_count(&self) -> usize {
        let plus: u32 = self.plus.iter().map(|w| w.count_ones()).sum();
        let minus: u32 = self.minus.iter().map(|w| w.count_ones()).sum();
        (plus + minus) as usize
    }

    /// Fraction of zero entries.
    pub fn sparsity(&self) -> f64 {
        let n = self.rows * self.cols;
        if n == 0 {
            return 0.0;
        }
        1.0 - self.add_count() as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ternary::ternary_values;
    use rand::SeedableRng;
    use thnt_tensor::matvec as dense_matvec;

    fn random_ternary(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let w = thnt_tensor::gaussian(&[rows, cols], 0.0, 1.0, &mut rng);
        ternary_values(&w).values
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let t = random_ternary(13, 17, 0);
        let packed = PackedTernary::from_tensor(&t);
        assert_eq!(packed.to_tensor().data(), t.data());
    }

    #[test]
    fn pack_unpack_roundtrip_across_word_boundaries() {
        for cols in [63, 64, 65, 127, 128, 129] {
            let t = random_ternary(3, cols, cols as u64);
            let packed = PackedTernary::from_tensor(&t);
            assert_eq!(packed.words_per_row(), cols.div_ceil(64));
            assert_eq!(packed.to_tensor().data(), t.data(), "cols={cols}");
        }
    }

    #[test]
    fn packs_at_2_bits_per_entry() {
        let t = random_ternary(64, 64, 1);
        let packed = PackedTernary::from_tensor(&t);
        assert_eq!(packed.packed_bytes(), 64 * 64 / 4);
        // 16x smaller than f32 storage.
        assert_eq!(packed.packed_bytes() * 16, 64 * 64 * 4);
    }

    #[test]
    fn row_padding_is_bounded_by_one_word_per_plane() {
        let t = random_ternary(5, 65, 2);
        let packed = PackedTernary::from_tensor(&t);
        // 65 cols need 2 words/row/plane: 5 rows × 2 words × 8 B × 2 planes.
        assert_eq!(packed.packed_bytes(), 5 * 2 * 8 * 2);
    }

    #[test]
    fn addonly_matvec_matches_dense() {
        let t = random_ternary(9, 21, 2);
        let packed = PackedTernary::from_tensor(&t);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let x = thnt_tensor::gaussian(&[21], 0.0, 1.0, &mut rng);
        let want = dense_matvec(&t, &x);
        let got = packed.matvec(x.data());
        thnt_tensor::assert_close(&got, want.data(), 1e-5, 1e-5);
        let per_entry = packed.matvec_per_entry(x.data());
        thnt_tensor::assert_close(&per_entry, want.data(), 1e-5, 1e-5);
    }

    #[test]
    fn batched_matmul_matches_dense() {
        let t = random_ternary(33, 130, 4);
        let packed = PackedTernary::from_tensor(&t);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        // 7 samples: exercises a full tile plus a ragged tail.
        let x = thnt_tensor::gaussian(&[7, 130], 0.0, 1.0, &mut rng);
        let want = thnt_tensor::matmul_nt(&x, &t);
        let got = packed.matmul(&x);
        thnt_tensor::assert_close(got.data(), want.data(), 1e-4, 1e-4);
    }

    #[test]
    fn matmul_rhs_matches_dense() {
        let t = random_ternary(11, 70, 6);
        let packed = PackedTernary::from_tensor(&t);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let m = thnt_tensor::gaussian(&[70, 13], 0.0, 1.0, &mut rng);
        let want = thnt_tensor::matmul(&t, &m);
        let got = packed.matmul_rhs(&m);
        thnt_tensor::assert_close(got.data(), want.data(), 1e-4, 1e-4);
    }

    #[test]
    fn add_count_equals_nonzeros() {
        let t = Tensor::from_vec(vec![1.0, 0.0, -1.0, 0.0, 0.0, 1.0], &[2, 3]);
        let packed = PackedTernary::from_tensor(&t);
        assert_eq!(packed.add_count(), 3);
        assert!((packed.sparsity() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn measured_adds_cross_check_cost_model() {
        // The analytic model counts a strassenified dense layer's W_b stage
        // as r·in additions (dense upper bound); the packed execution count
        // must never exceed it.
        use crate::cost::LayerCost;
        let (r, input) = (24usize, 48usize);
        let wb = random_ternary(r, input, 4);
        let packed = PackedTernary::from_tensor(&wb);
        let analytic =
            LayerCost::Dense { in_dim: input as u64, out_dim: 1 }.strassen_ops(r as f64).adds;
        assert!(
            (packed.add_count() as u64) <= analytic,
            "measured {} > analytic bound {analytic}",
            packed.add_count()
        );
        // And it should be a substantial fraction (TWN keeps ~2/3 nonzero).
        assert!(packed.add_count() as u64 * 2 > analytic / 2);
    }

    #[test]
    #[should_panic(expected = "non-ternary")]
    fn rejects_non_ternary_values() {
        PackedTernary::from_tensor(&Tensor::from_vec(vec![0.5], &[1, 1]));
    }

    #[test]
    fn raw_parts_roundtrip_is_identity() {
        for cols in [1, 63, 64, 65, 130] {
            let t = random_ternary(5, cols, cols as u64 + 40);
            let packed = PackedTernary::from_tensor(&t);
            let rebuilt = PackedTernary::from_raw_parts(
                5,
                cols,
                packed.plus_words().to_vec(),
                packed.minus_words().to_vec(),
            )
            .unwrap();
            assert_eq!(rebuilt, packed, "cols={cols}");
        }
    }

    #[test]
    fn raw_parts_reject_corrupted_layouts() {
        let t = random_ternary(3, 70, 50);
        let packed = PackedTernary::from_tensor(&t);
        let (plus, minus) = (packed.plus_words().to_vec(), packed.minus_words().to_vec());

        // Wrong word count.
        let err = PackedTernary::from_raw_parts(3, 70, plus[1..].to_vec(), minus.clone());
        assert!(err.unwrap_err().contains("word count"), "short plane must be rejected");

        // Set bit in the padding region of row 0's last word (cols 70 -> 2
        // words/row, valid tail bits 0..6 of word 1).
        let mut bad = plus.clone();
        bad[1] |= 1u64 << 50;
        let err = PackedTernary::from_raw_parts(3, 70, bad, minus.clone());
        assert!(err.unwrap_err().contains("padding"), "padding bit must be rejected");

        // The same entry in both planes.
        let (mut bad_plus, mut bad_minus) = (plus.clone(), minus.clone());
        bad_plus[0] |= 1;
        bad_minus[0] |= 1;
        let err = PackedTernary::from_raw_parts(3, 70, bad_plus.clone(), bad_minus.clone());
        assert!(err.unwrap_err().contains("both"), "overlapping planes must be rejected");

        // The trusted constructor skips that O(words) overlap scan, but
        // never the padding check: a padding bit names a column past the
        // activations.
        let trusted = |p: Vec<u64>, m: Vec<u64>| {
            PackedTernary::from_cow_parts_trusted(3, 70, Cow::Owned(p), Cow::Owned(m))
        };
        assert!(trusted(bad_plus, bad_minus).is_ok(), "the overlap scan is owning-only");
        let mut bad = minus.clone();
        bad[3] |= 1u64 << 63;
        let err = trusted(plus.clone(), bad).unwrap_err();
        assert!(err.contains("row 1 has set bits in the padding"), "{err}");

        // The untouched layout still loads.
        assert!(PackedTernary::from_raw_parts(3, 70, plus, packed.minus_words().to_vec()).is_ok());
    }

    #[test]
    fn empty_matrix_is_fine() {
        let packed = PackedTernary::from_tensor(&Tensor::zeros(&[0, 5]));
        assert_eq!(packed.add_count(), 0);
        assert_eq!(packed.matvec(&[1.0; 5]).len(), 0);
        assert_eq!(packed.matmul(&Tensor::zeros(&[3, 5])).dims(), &[3, 0]);
    }

    #[test]
    fn degenerate_shapes() {
        // 1×n row, n×1 column, and zero-column matrices all round-trip and
        // multiply correctly.
        let row = random_ternary(1, 90, 8);
        let p = PackedTernary::from_tensor(&row);
        let x: Vec<f32> = (0..90).map(|i| i as f32 * 0.25 - 10.0).collect();
        let want = dense_matvec(&row, &Tensor::from_vec(x.clone(), &[90]));
        thnt_tensor::assert_close(&p.matvec(&x), want.data(), 1e-5, 1e-5);

        let col = random_ternary(90, 1, 9);
        let pc = PackedTernary::from_tensor(&col);
        let want = dense_matvec(&col, &Tensor::from_vec(vec![2.5], &[1]));
        thnt_tensor::assert_close(&pc.matvec(&[2.5]), want.data(), 1e-5, 1e-5);

        let none = PackedTernary::from_tensor(&Tensor::zeros(&[4, 0]));
        assert_eq!(none.matvec(&[]), vec![0.0; 4]);
        assert_eq!(none.packed_bytes(), 0);
    }
}
