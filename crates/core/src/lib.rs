//! # Ternary hybrid neural-tree networks (the paper's contribution)
//!
//! This crate implements the models proposed by *Gope, Dasika, Mattina,
//! "Ternary Hybrid Neural-Tree Networks for Highly Constrained IoT
//! Applications"* (MLSys 2019):
//!
//! * [`HybridNet`] — a DS-CNN front-end (one standard convolution + two
//!   depthwise-separable blocks) feeding a **depth-2 Bonsai decision tree**
//!   (3 internal + 4 leaf nodes) through global average pooling. Trained
//!   end-to-end with multi-class hinge loss and annealed tree routing.
//! * [`StHybridNet`] — the same architecture with **every matrix
//!   multiplication strassenified** (ternary sum-product networks): the conv
//!   layers at hidden width `r = 0.75·c_out`, the tree at `r = L`. Trained
//!   in the paper's three phases (full-precision → TWN-quantized with STE →
//!   frozen ternary with scales absorbed into `â`), optionally with
//!   knowledge distillation from the uncompressed hybrid.
//!
//! On top of the models, [`experiments`] drives every table of the paper's
//! evaluation (Tables 1–7) and [`describe`] renders Figure 1. The [`engine`]
//! module compiles a frozen [`StHybridNet`] into its deployment form:
//! bitplane-packed ternary weights (2 bits each) executed with word-level
//! add-only kernels ([`PackedStHybrid`]). The [`quantized`] module goes one
//! step further: it calibrates per-layer int8 activation scales and compiles
//! a [`QuantizedStHybrid`] whose matvecs run entirely as AND + popcount over
//! bit-sliced activation planes — no floating-point lanes at all, with
//! batch-norm and `â` folded into integer requantization constants. The
//! [`artifact`] module serializes either engine as a versioned `.thnt2`
//! file whose loader needs no training type, and the dense, packed and
//! quantized paths all serve through the unified
//! [`thnt_nn::InferenceBackend`] trait — [`streaming`]'s always-on
//! detector consumes either interchangeably, and [`serve`]'s
//! [`ShardedStreamServer`] multiplexes many concurrent audio sessions over
//! shared backends with cross-session batched inference on worker shards.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use thnt_core::{HybridConfig, HybridNet};
//! use thnt_nn::Model;
//! use thnt_tensor::Tensor;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
//! let mut net = HybridNet::new(HybridConfig::paper(), &mut rng);
//! let logits = net.forward(&Tensor::zeros(&[1, 1, 49, 10]), false);
//! assert_eq!(logits.dims(), &[1, 12]);
//! ```

// Every public item must be documented: these crates are the repo's API
// surface, and CI runs `cargo doc` with `-D warnings`.
#![warn(missing_docs)]
// Numeric kernels index by position throughout; positional loops keep the
// math legible next to the formulas they implement.
#![allow(clippy::needless_range_loop)]

pub mod artifact;
pub mod config;
pub mod describe;
pub mod engine;
pub mod experiments;
pub mod hybrid;
pub mod quantized;
pub mod serve;
pub mod st_hybrid;
pub mod streaming;
pub mod train;

pub use artifact::{
    load_thnt2, load_thnt2_ref, save_thnt2_with, AlignedBytes, InferenceMeta, SaveOptions,
};
pub use config::HybridConfig;
pub use describe::describe_hybrid;
pub use engine::{
    PackedBonsai, PackedConv2d, PackedDense, PackedDepthwise2d, PackedStHybrid, PackedStStack,
};
pub use experiments::{ExperimentProfile, Profile};
pub use hybrid::HybridNet;
pub use quantized::{LayerScales, QuantSchedule, QuantizedStHybrid};
pub use serve::{
    LatencyHistogram, LatencySummary, ModelId, ModelSpec, OverflowPolicy, ServeConfig, ServeError,
    ServedDetection, ServerStats, SessionId, ShardSnapshot, ShardedStreamServer,
};
pub use st_hybrid::StHybridNet;
pub use streaming::{Detection, StreamingConfig, StreamingDetector};
pub use train::{
    anneal_sharpness, train_hybrid, train_st_generic, train_st_hybrid, train_with_hooks,
    StTrainOutcome,
};
