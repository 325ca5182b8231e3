//! CSR sparse-matrix execution — the runtime side of §5's pruning argument.
//!
//! The paper notes that a pruned model needs "auxiliary data structures for
//! indexing" and that sparse kernels beat dense ones only above ≈70%
//! sparsity. [`CsrMatrix`] measures the storage half via
//! [`CsrMatrix::storage_bytes`]; its runtime kernel
//! [`CsrMatrix::matvec`] is checked against the dense kernel by
//! [`csr_matches_dense`], and no benchmark times it.

use thnt_tensor::{matvec as dense_matvec, Tensor};

/// A compressed-sparse-row matrix over `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row start offsets into `col_idx`/`values` (`rows + 1` entries).
    row_ptr: Vec<u32>,
    /// Column index per non-zero.
    col_idx: Vec<u32>,
    /// Non-zero values.
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from a dense 2-D tensor, dropping exact zeros.
    ///
    /// # Panics
    ///
    /// Panics if `dense` is not 2-D or has more than `u32::MAX` columns.
    pub fn from_dense(dense: &Tensor) -> Self {
        assert_eq!(dense.shape().rank(), 2, "CsrMatrix expects a 2-D tensor");
        let (rows, cols) = (dense.dims()[0], dense.dims()[1]);
        assert!(cols <= u32::MAX as usize, "too many columns");
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0u32);
        for r in 0..rows {
            for c in 0..cols {
                let v = dense.data()[r * cols + c];
                if v != 0.0 {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Self { rows, cols, row_ptr, col_idx, values }
    }

    /// Matrix rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matrix columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of zero entries.
    pub fn sparsity(&self) -> f64 {
        let n = self.rows * self.cols;
        if n == 0 {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / n as f64
    }

    /// Storage bytes with the given value/index widths (§5's accounting:
    /// values + column indices + row pointers).
    pub fn storage_bytes(&self, value_bytes: u64, index_bytes: u64) -> u64 {
        self.values.len() as u64 * value_bytes
            + self.col_idx.len() as u64 * index_bytes
            + self.row_ptr.len() as u64 * index_bytes
    }

    /// Sparse `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0f32; self.rows];
        for (r, out) in y.iter_mut().enumerate() {
            let (start, end) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            let mut acc = 0.0f32;
            for i in start..end {
                acc += self.values[i] * x[self.col_idx[i] as usize];
            }
            *out = acc;
        }
        y
    }

    /// Reconstructs the dense tensor (for verification).
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros(&[self.rows, self.cols]);
        for r in 0..self.rows {
            for i in self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize {
                out.set(&[r, self.col_idx[i] as usize], self.values[i]);
            }
        }
        out
    }
}

/// Convenience check used by benches and tests: dense vs sparse matvec.
pub fn csr_matches_dense(dense: &Tensor, x: &Tensor) -> bool {
    let csr = CsrMatrix::from_dense(dense);
    let got = csr.matvec(x.data());
    let want = dense_matvec(dense, x);
    got.iter().zip(want.data()).all(|(a, b)| (a - b).abs() <= 1e-4 + 1e-4 * b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune_to_sparsity;
    use rand::SeedableRng;
    use thnt_nn::Param;

    fn random_pruned(rows: usize, cols: usize, sparsity: f64, seed: u64) -> Tensor {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut p = Param::new("w", thnt_tensor::gaussian(&[rows, cols], 0.0, 1.0, &mut rng));
        prune_to_sparsity(&mut p, sparsity);
        p.value
    }

    #[test]
    fn roundtrip_preserves_matrix() {
        let dense = random_pruned(9, 13, 0.6, 0);
        let csr = CsrMatrix::from_dense(&dense);
        assert_eq!(csr.to_dense().data(), dense.data());
    }

    #[test]
    fn matvec_matches_dense_at_all_sparsities() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        for &s in &[0.0, 0.3, 0.7, 0.95] {
            let dense = random_pruned(16, 24, s, 2);
            let x = thnt_tensor::gaussian(&[24], 0.0, 1.0, &mut rng);
            assert!(csr_matches_dense(&dense, &x), "mismatch at sparsity {s}");
        }
    }

    #[test]
    fn sparsity_reported_correctly() {
        let dense = random_pruned(20, 20, 0.75, 3);
        let csr = CsrMatrix::from_dense(&dense);
        assert!((csr.sparsity() - 0.75).abs() < 0.01, "{}", csr.sparsity());
        assert_eq!(csr.nnz(), 100);
    }

    #[test]
    fn storage_crossover_is_above_half_sparsity() {
        // §5: with 1-byte values and 2-byte indices, CSR beats dense 1-byte
        // storage only above ~2/3 sparsity.
        let dims = (64usize, 64usize);
        let dense_bytes = (dims.0 * dims.1) as u64; // 1 byte per weight
        let at = |s: f64| {
            CsrMatrix::from_dense(&random_pruned(dims.0, dims.1, s, 4)).storage_bytes(1, 2)
        };
        assert!(at(0.5) > dense_bytes, "50% sparse should not beat dense");
        assert!(at(0.9) < dense_bytes, "90% sparse should beat dense");
    }

    #[test]
    fn empty_and_full_matrices() {
        let zero = CsrMatrix::from_dense(&Tensor::zeros(&[4, 5]));
        assert_eq!(zero.nnz(), 0);
        assert!(zero.matvec(&[1.0; 5]).iter().all(|&v| v == 0.0));
        let full = CsrMatrix::from_dense(&Tensor::ones(&[3, 3]));
        assert_eq!(full.nnz(), 9);
        assert_eq!(full.sparsity(), 0.0);
    }
}
