//! The compute-backend identity every SIMD-dispatched crate shares, and its
//! one `THNT_KERNEL` resolution.
//!
//! The packed inference kernels (`thnt_strassen::KernelDispatch`) and the
//! MFCC primitives (`thnt_dsp::DspDispatch`) both route on a [`Kernel`].
//! The backend is resolved **once** per process by [`Kernel::active`]: the
//! `THNT_KERNEL` environment variable (`scalar` | `avx2` | `avx512` |
//! `neon`) forces a backend for benchmarking and CI, otherwise runtime
//! feature detection picks the widest supported one. An unknown or
//! unsupported `THNT_KERNEL` value aborts loudly — a benchmark silently
//! falling back to scalar would report fiction.

use std::sync::OnceLock;

/// A compute-kernel backend identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Portable reference loops (always available).
    Scalar,
    /// 8-lane AVX2 (x86_64 with AVX2 and `popcnt` support).
    Avx2,
    /// AVX-512 `vpopcntq` for the bit-sliced popcount family; every other
    /// loop runs the AVX2 code (x86_64 with AVX-512 `vpopcntdq` and AVX2).
    Avx512,
    /// 4-lane NEON (aarch64).
    Neon,
}

impl Kernel {
    /// The backend's stable lowercase name — the value `THNT_KERNEL`
    /// accepts and the `kernel` field benchmark rows report.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
            Kernel::Avx512 => "avx512",
            Kernel::Neon => "neon",
        }
    }

    /// Parses a `THNT_KERNEL` value.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for anything other than `scalar`,
    /// `avx2`, `avx512` or `neon` — unknown names must fail loudly, not
    /// silently fall back.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "scalar" => Ok(Kernel::Scalar),
            "avx2" => Ok(Kernel::Avx2),
            "avx512" => Ok(Kernel::Avx512),
            "neon" => Ok(Kernel::Neon),
            other => Err(format!(
                "unknown THNT_KERNEL value {other:?}: expected \"scalar\", \"avx2\", \
                 \"avx512\" or \"neon\""
            )),
        }
    }

    /// Whether this backend can run on the current host (compile-target
    /// architecture plus runtime CPU feature detection).
    pub fn is_supported(&self) -> bool {
        match self {
            Kernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("popcnt")
            }
            #[cfg(target_arch = "x86_64")]
            // Every loop but the popcount family routes to the AVX2 code, so
            // AVX2 must be present alongside the popcount extension.
            Kernel::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
                    && std::arch::is_x86_feature_detected!("avx2")
            }
            #[cfg(target_arch = "aarch64")]
            Kernel::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// This backend, if the current host supports it.
    ///
    /// # Errors
    ///
    /// Returns a message naming the backend if the host cannot run it (e.g.
    /// `Kernel::Neon` on x86_64, or `Kernel::Avx2` on a CPU without AVX2).
    pub fn supported(self) -> Result<Self, String> {
        if self.is_supported() {
            Ok(self)
        } else {
            Err(format!("kernel {:?} is not supported on this host", self.name()))
        }
    }

    /// Every backend the current host supports, widest first ([`Kernel::Scalar`]
    /// is always present and always last).
    pub fn available() -> Vec<Kernel> {
        [Kernel::Avx512, Kernel::Avx2, Kernel::Neon, Kernel::Scalar]
            .into_iter()
            .filter(Kernel::is_supported)
            .collect()
    }

    /// The widest backend the current host supports.
    pub fn detect() -> Kernel {
        Kernel::available()[0]
    }

    /// The resolution rule behind [`Self::active`], parameterised over the
    /// `THNT_KERNEL` value so tests can exercise it without mutating the
    /// process environment: `None` detects, `Some(name)` forces.
    ///
    /// # Errors
    ///
    /// Returns the parse/support error for an unknown or unsupported
    /// override.
    pub fn resolve(env: Option<&str>) -> Result<Self, String> {
        match env {
            None => Ok(Kernel::detect()),
            Some(name) => Kernel::parse(name)?.supported(),
        }
    }

    /// The process-wide backend, resolved once on first use: `THNT_KERNEL`
    /// if set, otherwise the widest backend runtime detection finds.
    ///
    /// # Panics
    ///
    /// Panics if `THNT_KERNEL` names an unknown or unsupported backend —
    /// the override exists for benchmarking and CI, where a silent fallback
    /// would invalidate the run.
    pub fn active() -> Kernel {
        static ACTIVE: OnceLock<Kernel> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            match Kernel::resolve(std::env::var("THNT_KERNEL").ok().as_deref()) {
                Ok(k) => k,
                Err(e) => panic!("{e}"),
            }
        })
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
