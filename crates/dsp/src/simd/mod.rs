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
//! * the backend is the same [`Kernel`] the packed inference kernels route
//!   on, resolved **once** per process by `thnt-tensor`
//!   ([`Kernel::active`]), so one `THNT_KERNEL` override (`scalar` |
//!   `avx2` | `avx512` | `neon`) pins the whole serving path,
//! * `avx512` runs the AVX2 code here: the MFCC loops have no popcount,
//!   the one family AVX-512 adds,
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

use thnt_tensor::Kernel;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;

#[cfg(target_arch = "aarch64")]
mod neon;

/// The `ε` in the front-end's `ln(energy + ε)` — shared by every backend
/// and by the legacy reference pipeline.
pub const LOG_EPS: f32 = 1e-6;

/// A resolved DSP backend handle — the front-end analogue of
/// `thnt_strassen::packed::kernel::KernelDispatch`.
///
/// # Examples
///
/// ```
/// use thnt_dsp::simd::DspDispatch;
/// use thnt_tensor::Kernel;
///
/// // The process default: THNT_KERNEL override or runtime detection.
/// let active = DspDispatch::get();
/// assert!(active.kernel().is_supported());
///
/// // An explicit handle for a specific backend.
/// let scalar = DspDispatch::new(Kernel::Scalar).unwrap();
/// assert_eq!(scalar.dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DspDispatch {
    kernel: Kernel,
}

static ACTIVE: OnceLock<DspDispatch> = OnceLock::new();

impl DspDispatch {
    /// Wraps a specific backend.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message if the backend is not supported on the
    /// current host.
    pub fn new(kernel: Kernel) -> Result<Self, String> {
        kernel.supported().map(|kernel| Self { kernel })
    }

    /// The process-wide dispatch handle on [`Kernel::active`]: `THNT_KERNEL`
    /// if set, otherwise the widest backend runtime detection finds.
    ///
    /// # Panics
    ///
    /// Panics if `THNT_KERNEL` names an unknown or unsupported backend.
    pub fn get() -> &'static DspDispatch {
        ACTIVE.get_or_init(|| Self { kernel: Kernel::active() })
    }

    /// [`Kernel::resolve`] as a dispatch handle: `None` detects,
    /// `Some(name)` forces.
    ///
    /// # Errors
    ///
    /// Returns the parse/support error for an unknown or unsupported
    /// override.
    pub fn resolve(env: Option<&str>) -> Result<Self, String> {
        Kernel::resolve(env).map(|kernel| Self { kernel })
    }

    /// The backend this handle routes to.
    pub fn kernel(&self) -> Kernel {
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
            Kernel::Scalar => dot_scalar(a, b),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `DspDispatch` construction verified AVX2 support
            // (Avx512 support implies it).
            Kernel::Avx2 | Kernel::Avx512 => unsafe { avx2::dot(a, b) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: `DspDispatch` construction verified NEON support.
            Kernel::Neon => unsafe { neon::dot(a, b) },
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
            Kernel::Scalar => ln_eps_scalar(src, dst),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `DspDispatch` construction verified AVX2 support
            // (Avx512 support implies it).
            Kernel::Avx2 | Kernel::Avx512 => unsafe { avx2::ln_eps(src, dst) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: `DspDispatch` construction verified NEON support.
            Kernel::Neon => unsafe { neon::ln_eps(src, dst) },
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
    fn avx512_resolves_and_runs_the_avx2_code() {
        if !Kernel::Avx512.is_supported() {
            return;
        }
        let wide = DspDispatch::resolve(Some("avx512")).unwrap();
        assert_eq!(wide.kernel(), Kernel::Avx512);
        let avx2 = DspDispatch::new(Kernel::Avx2).unwrap();
        let a: Vec<f32> = (0..67).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..67).map(|i| (i as f32 * 0.11).cos()).collect();
        assert_eq!(wide.dot(&a, &b).to_bits(), avx2.dot(&a, &b).to_bits());
        let src: Vec<f32> = (0..41).map(|i| (i as f32 * 0.7).exp() * 1e-4).collect();
        let (mut got, mut want) = (vec![0.0f32; 41], vec![0.0f32; 41]);
        wide.ln_eps(&src, &mut got);
        avx2.ln_eps(&src, &mut want);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn every_backend_computes_dot_and_log() {
        for k in Kernel::available() {
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
        for k in Kernel::available() {
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
