//! Audio front-end for the THNT reproduction: FFT, mel filterbank, DCT-II and
//! the full MFCC pipeline.
//!
//! The paper converts 1-second, 16 kHz audio into a 49×10 MFCC feature map
//! (40 ms frames, 20 ms stride, 40 mel filters, first 10 DCT coefficients),
//! following Zhang et al.'s *Hello Edge* preprocessing. [`Mfcc`] implements
//! exactly that pipeline from first principles; every stage is unit-tested
//! against a naïve reference (DFT, hand-rolled cosine transform).
//!
//! The serving hot path runs through [`MfccPlan`] — a fully precomputed
//! pipeline (real-input FFT with cached tables, sparse mel band matrix,
//! folded DCT) with reusable scratch and SIMD-dispatched inner loops. The
//! straight-line pipeline survives as [`mfcc::ReferenceMfcc`], the oracle
//! the planned path is tested against. See `docs/ARCHITECTURE.md` for the
//! design.
//!
//! # Example
//!
//! ```
//! use thnt_dsp::{Mfcc, MfccConfig};
//!
//! let mfcc = Mfcc::new(MfccConfig::paper());
//! let audio = vec![0.0f32; 16_000]; // 1 s of silence
//! let feats = mfcc.compute(&audio);
//! assert_eq!(feats.dims(), &[49, 10]);
//! ```

#![warn(missing_docs)]
// Numeric kernels index by position throughout; positional loops keep the
// math legible next to the formulas they implement.
#![allow(clippy::needless_range_loop)]

pub mod dct;
pub mod fft;
pub mod mel;
pub mod mfcc;
pub mod plan;
pub mod rfft;
pub mod simd;
pub mod window;

pub use dct::dct_ii;
pub use fft::{fft_in_place, power_spectrum, Complex};
pub use mel::{hz_to_mel, mel_filterbank, mel_to_hz, MelBank};
pub use mfcc::{reference_mfcc, Mfcc, MfccConfig, ReferenceMfcc};
pub use plan::{MfccPlan, MfccScratch};
pub use rfft::RealFft;
pub use simd::DspDispatch;
pub use window::{frame_signal, hann_window};
