//! Runtime-dispatched SIMD primitives for the MFCC hot loops.
//!
//! [`crate::plan::MfccPlan`] spends its per-frame time in three dense f32
//! loops: the **real FFT** ([`crate::rfft::RealFft`]), the sparse mel-band
//! **dot products** (filter weights × power spectrum, and the folded DCT
//! matrix × log energies) and the **log-energy** pass `ln(e + ε)` over the
//! mel outputs. This module gives each a scalar reference and SIMD
//! implementations behind the same dispatch discipline as
//! `thnt_strassen::packed::kernel`:
//!
//! * the backend is resolved **once** per process by [`DspDispatch::get`],
//! * the `THNT_KERNEL` environment variable (`scalar` | `avx2` | `neon`)
//!   forces a backend — the *same* names and values the packed inference
//!   kernels accept, so one override pins the whole serving path,
//! * an unknown or unsupported value aborts loudly instead of silently
//!   falling back (a benchmark reporting a silently-degraded backend would
//!   report fiction).
//!
//! # Exactness
//!
//! The scalar backend sums strictly left-to-right and takes logs through
//! `f32::ln`. The SIMD backends keep lane-parallel partial sums folded at
//! the end (reassociation ⇒ agreement to rounding, not bitwise) and
//! evaluate `ln` with a Cephes-style polynomial after exponent/mantissa
//! splitting (absolute error below ~1e-6 for the positive inputs the
//! pipeline produces — two orders of magnitude inside the front-end's 1e-4
//! feature tolerance). Within one backend, results are deterministic.
//!
//! The FFT is the exception: its kernels are element-wise, so every backend
//! runs each butterfly's exact operations in the same order (no fused
//! multiply-add, twiddles from the same tables) and the power spectrum is
//! **bitwise identical across backends**. The `neon` backend runs the
//! portable loops for it.

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;

#[cfg(target_arch = "aarch64")]
mod neon;

/// The `ε` in the front-end's `ln(energy + ε)` — shared by every backend
/// and by the legacy reference pipeline.
pub const LOG_EPS: f32 = 1e-6;

/// A DSP compute-backend identity. Mirrors
/// `thnt_strassen::packed::kernel::Kernel`: same names, same `THNT_KERNEL`
/// values, same loud-failure contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DspKernel {
    /// Portable reference: left-to-right sums, `f32::ln`, portable FFT
    /// loops (always available).
    Scalar,
    /// 8-lane AVX2 FFT, dot products and polynomial log (x86_64 with AVX2).
    Avx2,
    /// 4-lane NEON dot products and polynomial log, portable FFT loops
    /// (aarch64).
    Neon,
}

impl DspKernel {
    /// The backend's stable lowercase name — the value `THNT_KERNEL`
    /// accepts.
    pub fn name(&self) -> &'static str {
        match self {
            DspKernel::Scalar => "scalar",
            DspKernel::Avx2 => "avx2",
            DspKernel::Neon => "neon",
        }
    }

    /// Parses a `THNT_KERNEL` value.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for anything other than `scalar`,
    /// `avx2` or `neon`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "scalar" => Ok(DspKernel::Scalar),
            "avx2" => Ok(DspKernel::Avx2),
            "neon" => Ok(DspKernel::Neon),
            other => Err(format!(
                "unknown THNT_KERNEL value {other:?}: expected \"scalar\", \"avx2\" or \"neon\""
            )),
        }
    }

    /// Whether this backend can run on the current host.
    pub fn is_supported(&self) -> bool {
        match self {
            DspKernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            DspKernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            DspKernel::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Every backend the current host supports, widest first
    /// ([`DspKernel::Scalar`] is always present and always last).
    pub fn available() -> Vec<DspKernel> {
        [DspKernel::Avx2, DspKernel::Neon, DspKernel::Scalar]
            .into_iter()
            .filter(DspKernel::is_supported)
            .collect()
    }

    /// The widest backend the current host supports.
    pub fn detect() -> DspKernel {
        DspKernel::available()[0]
    }
}

impl std::fmt::Display for DspKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A resolved DSP backend handle — the front-end analogue of
/// `thnt_strassen::packed::kernel::KernelDispatch`.
///
/// # Examples
///
/// ```
/// use thnt_dsp::simd::{DspDispatch, DspKernel};
///
/// // The process default: THNT_KERNEL override or runtime detection.
/// let active = DspDispatch::get();
/// assert!(active.kernel().is_supported());
///
/// // An explicit handle for a specific backend.
/// let scalar = DspDispatch::new(DspKernel::Scalar).unwrap();
/// assert_eq!(scalar.dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DspDispatch {
    kernel: DspKernel,
}

static ACTIVE: OnceLock<DspDispatch> = OnceLock::new();

impl DspDispatch {
    /// Wraps a specific backend.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message if the backend is not supported on the
    /// current host.
    pub fn new(kernel: DspKernel) -> Result<Self, String> {
        if kernel.is_supported() {
            Ok(Self { kernel })
        } else {
            Err(format!("kernel {:?} is not supported on this host", kernel.name()))
        }
    }

    /// The process-wide dispatch handle, resolved once on first use:
    /// `THNT_KERNEL` if set, otherwise the widest backend runtime detection
    /// finds.
    ///
    /// # Panics
    ///
    /// Panics if `THNT_KERNEL` names an unknown or unsupported backend.
    pub fn get() -> &'static DspDispatch {
        ACTIVE.get_or_init(|| match Self::resolve(std::env::var("THNT_KERNEL").ok().as_deref()) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        })
    }

    /// The resolution rule behind [`Self::get`], parameterised over the
    /// `THNT_KERNEL` value so tests can exercise it without mutating the
    /// process environment: `None` detects, `Some(name)` forces.
    ///
    /// # Errors
    ///
    /// Returns the parse/support error for an unknown or unsupported
    /// override.
    pub fn resolve(env: Option<&str>) -> Result<Self, String> {
        match env {
            None => Self::new(DspKernel::detect()),
            Some(name) => Self::new(DspKernel::parse(name)?),
        }
    }

    /// The backend this handle routes to.
    pub fn kernel(&self) -> DspKernel {
        self.kernel
    }

    /// Dot product `Σ a[i]·b[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length: the SIMD loops read
    /// `a.len()` floats from both.
    #[inline]
    pub fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot operand length mismatch");
        match self.kernel {
            DspKernel::Scalar => dot_scalar(a, b),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `DspDispatch` construction verified AVX2 support.
            DspKernel::Avx2 => unsafe { avx2::dot(a, b) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: `DspDispatch` construction verified NEON support.
            DspKernel::Neon => unsafe { neon::dot(a, b) },
            #[allow(unreachable_patterns)]
            other => unreachable!("unsupported kernel {other:?} escaped construction"),
        }
    }

    /// The log-energy pass: `dst[i] = ln(src[i] + ε)` with
    /// `ε =` [`LOG_EPS`]. Inputs must be non-negative (mel energies are
    /// sums of non-negative terms); the SIMD polynomial is undefined for
    /// `src[i] + ε ≤ 0`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length: the SIMD loops write
    /// `src.len()` floats to `dst`.
    #[inline]
    pub fn ln_eps(&self, src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "ln_eps operand length mismatch");
        match self.kernel {
            DspKernel::Scalar => ln_eps_scalar(src, dst),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `DspDispatch` construction verified AVX2 support.
            DspKernel::Avx2 => unsafe { avx2::ln_eps(src, dst) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: `DspDispatch` construction verified NEON support.
            DspKernel::Neon => unsafe { neon::ln_eps(src, dst) },
            #[allow(unreachable_patterns)]
            other => unreachable!("unsupported kernel {other:?} escaped construction"),
        }
    }
}

/// Scalar reference dot product: strict left-to-right accumulation.
#[inline]
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Scalar reference log-energy: `f32::ln` per element.
#[inline]
fn ln_eps_scalar(src: &[f32], dst: &mut [f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = (s + LOG_EPS).ln();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_parse_mirror_the_packed_kernel_contract() {
        assert_eq!(DspKernel::parse("scalar").unwrap(), DspKernel::Scalar);
        assert_eq!(DspKernel::parse("avx2").unwrap(), DspKernel::Avx2);
        assert_eq!(DspKernel::parse("neon").unwrap(), DspKernel::Neon);
        for bad in ["", "AVX2", "sse", "auto", "scalar "] {
            assert!(DspKernel::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn scalar_is_always_supported_and_listed_last() {
        assert!(DspKernel::Scalar.is_supported());
        let avail = DspKernel::available();
        assert_eq!(*avail.last().unwrap(), DspKernel::Scalar);
        assert!(avail.contains(&DspKernel::detect()));
    }

    #[test]
    fn resolve_rejects_unknown_values_loudly() {
        let err = DspDispatch::resolve(Some("turbo")).unwrap_err();
        assert!(err.contains("unknown THNT_KERNEL"), "got: {err}");
    }

    #[cfg(not(target_arch = "aarch64"))]
    #[test]
    fn resolve_rejects_unsupported_backends_loudly() {
        let err = DspDispatch::resolve(Some("neon")).unwrap_err();
        assert!(err.contains("not supported"), "got: {err}");
    }

    #[test]
    fn get_honours_the_environment_like_the_packed_dispatch() {
        let d = DspDispatch::get();
        assert!(d.kernel().is_supported());
        if let Ok(name) = std::env::var("THNT_KERNEL") {
            assert_eq!(d.kernel().name(), name, "override must win");
        }
    }

    #[test]
    fn every_backend_computes_dot_and_log() {
        for k in DspKernel::available() {
            let d = DspDispatch::new(k).unwrap();
            let a: Vec<f32> = (0..67).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..67).map(|i| (i as f32 * 0.11).cos()).collect();
            let want = dot_scalar(&a, &b);
            let got = d.dot(&a, &b);
            assert!((got - want).abs() < 1e-4, "{k} dot: {got} vs {want}");

            let src: Vec<f32> = (0..41).map(|i| (i as f32 * 0.7).exp() * 1e-4).collect();
            let mut dst = vec![0.0f32; src.len()];
            d.ln_eps(&src, &mut dst);
            for (i, (&s, &l)) in src.iter().zip(&dst).enumerate() {
                let want = (s + LOG_EPS).ln();
                assert!((l - want).abs() < 1e-5, "{k} ln_eps[{i}]: {l} vs {want}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "dot operand length mismatch")]
    fn dot_rejects_operands_of_different_lengths() {
        // Wide enough that a SIMD loop over `a` would read far past `b`.
        DspDispatch::get().dot(&[1.0; 64], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "ln_eps operand length mismatch")]
    fn ln_eps_rejects_operands_of_different_lengths() {
        // Wide enough that a SIMD loop over `src` would write past `dst`.
        DspDispatch::get().ln_eps(&[1.0; 16], &mut [0.0; 4]);
    }

    #[test]
    fn ln_eps_handles_zero_energy() {
        // Silence produces exactly-zero mel energies; ln(ε) must come out.
        for k in DspKernel::available() {
            let d = DspDispatch::new(k).unwrap();
            let src = [0.0f32; 9];
            let mut dst = [0.0f32; 9];
            d.ln_eps(&src, &mut dst);
            for &l in &dst {
                assert!((l - LOG_EPS.ln()).abs() < 1e-4, "{k}: ln(ε) = {l}");
            }
        }
    }
}
