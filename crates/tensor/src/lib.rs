//! Dense `f32` tensor kernels for the Ternary Hybrid Neural-Tree Network
//! (THNT) reproduction.
//!
//! This crate is the numeric substrate of the workspace: a compact row-major
//! [`Tensor`] type plus the handful of kernels every model in the paper needs —
//! blocked [`matmul`](crate::matmul::matmul), `im2col`-based convolutions,
//! depthwise convolutions, pooling, a small batch-parallel helper built on
//! `crossbeam` scoped threads, and the [`Kernel`] backend that the
//! SIMD-dispatched crates resolve once from `THNT_KERNEL`.
//!
//! Everything is deliberately simple: contiguous storage, no views with
//! arbitrary strides, no autograd (gradients live in `thnt-nn`). The kernels
//! are checked against naïve reference implementations in this crate's tests.
//!
//! # Example
//!
//! ```
//! use thnt_tensor::{Tensor, matmul};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = matmul(&a, &b);
//! assert_eq!(c.data(), a.data());
//! ```

// Numeric kernels index by position throughout; positional loops keep the
// math legible next to the formulas they implement.
#![allow(clippy::needless_range_loop)]

pub mod conv;
pub mod init;
pub mod kernel;
pub mod matmul;
pub mod par;
pub mod pool;
pub mod quantize;
pub mod shape;
pub mod tensor;

pub use conv::{col2im, conv2d, depthwise_conv2d, im2col, im2col_into, Conv2dSpec};
pub use init::{gaussian, kaiming_normal, uniform_init, xavier_uniform};
pub use kernel::Kernel;
pub use matmul::{matmul, matmul_nt, matmul_tn, matvec};
pub use par::{num_threads, parallel_for, parallel_zip_chunks};
pub use pool::{avg_pool2d, global_avg_pool, max_pool2d};
pub use quantize::{
    fake_quantize, fake_quantize_optimal, fake_quantize_with_scale, quant_rmse, symmetric_scale,
};
pub use shape::Shape;
pub use tensor::Tensor;

/// Asserts that two floating-point slices are element-wise close.
///
/// Intended for tests; tolerance is `atol + rtol * |expected|` per element.
///
/// # Panics
///
/// Panics with a descriptive message if lengths differ or any element pair is
/// outside the tolerance.
pub fn assert_close(actual: &[f32], expected: &[f32], atol: f32, rtol: f32) {
    assert_eq!(
        actual.len(),
        expected.len(),
        "length mismatch: {} vs {}",
        actual.len(),
        expected.len()
    );
    for (i, (a, e)) in actual.iter().zip(expected.iter()).enumerate() {
        let tol = atol + rtol * e.abs();
        assert!(
            (a - e).abs() <= tol,
            "element {i}: {a} vs {e} (|diff| = {} > tol {tol})",
            (a - e).abs()
        );
    }
}
