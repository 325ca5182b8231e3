//! From-scratch neural-network training framework for the THNT reproduction.
//!
//! The paper trains its models in TensorFlow; this crate is the substitute
//! substrate — a compact layer-wise backprop framework with exactly the
//! pieces the paper's recipe needs:
//!
//! * [`Layer`]s: dense, conv2d, depthwise conv2d, batch-norm, activations,
//!   pooling, flatten, plus LSTM/GRU recurrences for the Table 3 baselines
//! * [`Model`] / [`Sequential`] composition
//! * losses: softmax cross-entropy and the multi-class hinge loss the paper
//!   uses for tree-bearing models, plus knowledge distillation (§3)
//! * optimizers: SGD with momentum and Adam, with the paper's staged
//!   learning-rate decay ("progressively smaller learning rates after every
//!   45 epochs")
//! * a generic training loop and finite-difference gradient checking
//!
//! Gradients are computed layer-by-layer (each layer caches what its
//! backward pass needs); there is no tape. This matches the fixed,
//! feed-forward topologies of every model in the paper while keeping the
//! whole framework auditable.
//!
//! # Example
//!
//! ```
//! use thnt_nn::{Dense, Relu, Sequential, Model};
//! use thnt_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
//! let mut net = Sequential::new(vec![
//!     Box::new(Dense::new(4, 8, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Dense::new(8, 3, &mut rng)),
//! ]);
//! let logits = net.forward(&Tensor::zeros(&[2, 4]), false);
//! assert_eq!(logits.dims(), &[2, 3]);
//! ```

// Every public item must be documented: these crates are the repo's API
// surface, and CI runs `cargo doc` with `-D warnings`.
#![warn(missing_docs)]
// Numeric kernels index by position throughout; positional loops keep the
// math legible next to the formulas they implement.
#![allow(clippy::needless_range_loop)]

pub mod conv_layers;
pub mod distill;
pub mod fault;
pub mod gradcheck;
pub mod infer;
pub mod io;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optim;
pub mod param;
pub mod rnn;
pub mod trainer;

pub use conv_layers::{BatchNorm2d, Conv2dLayer, DepthwiseConv2dLayer};
pub use distill::{distill_grad, DistillConfig};
pub use fault::{FaultMode, FaultyBackend};
pub use gradcheck::check_gradients;
pub use infer::{evaluate_backend, DenseBackend, InferenceBackend, IsolatedBatch};
pub use io::{load_model, load_model_file, save_model, save_model_file, SectionWriter};
pub use layers::{Dense, Flatten, GlobalAvgPoolLayer, Relu, Sigmoid, Tanh};
pub use loss::{accuracy, multiclass_hinge, softmax, softmax_cross_entropy, Loss};
pub use model::{Layer, LayerModel, Model, Sequential};
pub use optim::{Adam, Optimizer, Sgd, StepDecay};
pub use param::Param;
pub use rnn::{Gru, Lstm};
pub use trainer::{evaluate, train_classifier, EpochStats, TrainConfig, TrainReport};
