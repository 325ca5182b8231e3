//! StrassenNets (Tschannen et al., ICML 2018) for the THNT reproduction.
//!
//! A *strassenified* layer replaces the matrix multiplication `C = A·B`
//! (weights `A`, activations `B`) with a two-layer sum-product network
//!
//! ```text
//! vec(C) = W_c · [ (W_b · vec(B)) ⊙ (W_a · vec(A)) ]
//! ```
//!
//! where `W_a, W_b, W_c` are **ternary** (`{−1, 0, 1}`) and the hidden width
//! `r` controls the multiplication budget: the only true multiplications per
//! output position are the `r` element-wise products.
//!
//! Because weights are fixed at inference, `W_a · vec(A)` collapses into a
//! full-precision vector `â ∈ ℝʳ` (§3 of the THNT paper), which this crate
//! learns directly. Training follows the paper's three phases:
//!
//! 1. **Full precision** — `W_b`, `W_c` trained as ordinary floats.
//! 2. **Quantized** — forward uses TWN-style ternarized weights
//!    (`α · sign(w)·1[|w|>Δ]`, Δ = 0.7·E|w|), gradients flow to the
//!    full-precision shadows via the straight-through estimator.
//! 3. **Frozen** — ternary values fixed, scales absorbed into `â`; only `â`
//!    and biases keep training.
//!
//! The crate also ships the exact 2×2 Strassen construction (`r = 7`) as a
//! correctness anchor, and the analytic operation/size cost model used to
//! regenerate the paper's tables.
//!
//! # Example
//!
//! ```
//! use thnt_strassen::{exact_strassen_2x2, spn_matmul_2x2};
//! use thnt_tensor::{matmul, Tensor};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
//! let spn = exact_strassen_2x2();
//! let c = spn_matmul_2x2(&spn, &a, &b);
//! thnt_tensor::assert_close(c.data(), matmul(&a, &b).data(), 1e-4, 1e-4);
//! ```

// Every public item must be documented: these crates are the repo's API
// surface, and CI runs `cargo doc` with `-D warnings`.
#![warn(missing_docs)]
// Numeric kernels index by position throughout; positional loops keep the
// math legible next to the formulas they implement.
#![allow(clippy::needless_range_loop)]

pub mod conv;
pub mod cost;
pub mod dense;
pub mod packed;
pub mod schedule;
pub mod spn;
pub mod stack;
pub mod ternary;

pub use conv::{StrassenConv2d, StrassenDepthwise2d};
pub use cost::{format_mops, CostReport, LayerCost, OpCount};
pub use dense::StrassenDense;
pub use packed::bitslice::{BitSliced, BitSlicedColumns};
pub use packed::kernel::{Kernel, KernelDispatch, WindowTap};
pub use packed::PackedTernary;
pub use schedule::{QuantMode, Strassenified, TrainingPhase};
pub use spn::{exact_strassen_2x2, spn_matmul_2x2, PackedSpn, StrassenSpn};
pub use stack::{StLayer, StStack};
pub use ternary::{ternarize, ternary_values, TernaryWeights};
