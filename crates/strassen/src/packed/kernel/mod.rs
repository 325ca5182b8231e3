//! Runtime-dispatched compute kernels for the packed bitplane operations.
//!
//! The word-level add-only loops in [`super`] (`matvec`, `matmul`,
//! `matmul_rhs`) are the hottest code in the repository — every packed
//! layer, every streaming window and every served session funnels through
//! them. This module gives those loops three interchangeable backends:
//!
//! * [`Kernel::Scalar`] — the portable reference implementation: iterate
//!   each word's set bits with `trailing_zeros` and add/subtract one `f32`
//!   at a time. Kept verbatim from the pre-SIMD engine; every other backend
//!   is tested against it.
//! * [`Kernel::Avx2`] — x86_64: each bitplane byte indexes a lookup table
//!   of 8-lane `f32` masks, the input lanes are blended with `vandps`, and
//!   a vector sub/add accumulates 8 columns per instruction; batched and
//!   column-matrix forms amortise mask loads across register tiles and
//!   stripes. See the `avx2` module in this directory.
//! * [`Kernel::Neon`] — aarch64: the same design at 4 lanes (nibble-indexed
//!   mask table, `vand`/`vsub`/`vadd`). See the `neon` module.
//!
//! * [`Kernel::Avx512`] — x86_64 with `vpopcntq`: identical to AVX2 for
//!   the f32-lane bitplane loops (every AVX-512 host runs them), but the
//!   bit-sliced popcount family below uses `_mm512_popcnt_epi64`: over
//!   8-word blocks of one vector, or over 8 columns of a column-minor
//!   matrix at once. See the `avx512` module.
//!
//! Besides the f32-lane bitplane loops, every backend also implements:
//!
//! * the **bit-sliced popcount family** ([`super::bitslice`]): activations
//!   as per-bit u64 planes, a row dot reduced to
//!   `(x_plane & w_plus).count_ones() − (x_plane & w_minus).count_ones()`
//!   accumulated with plane shifts — exact integer arithmetic, so every
//!   backend is bitwise identical here. Its column-matrix half (the
//!   crate-private `bitslice_columns` quantize and `bitslice_rhs` product)
//!   has AVX-512 intrinsics and one portable loop for scalar, AVX2 and
//!   NEON, and its quantize rounds by
//!   [`super::bitslice::quantize_i8`]'s formula in every lane;
//! * **element-wise slice ops** ([`KernelDispatch::slice_add`] /
//!   [`KernelDispatch::slice_sub`] / [`KernelDispatch::slice_axpy`]) for
//!   the depthwise tap loops — element-wise with no reassociation (the
//!   SIMD `axpy` multiplies then adds, never fusing), so also bitwise
//!   identical across backends;
//! * the **signed window sum** ([`KernelDispatch::window_sum`]) for the
//!   depthwise layers: every output lane sums its taps' masked, signed
//!   source lanes in tap order, with the partial sums held in registers
//!   across all taps — element-wise again, so bitwise identical across
//!   backends. AVX2 (and AVX-512, which shares it) runs intrinsics; scalar
//!   and NEON share one portable loop.
//!
//! The backend is chosen **once** per process by [`KernelDispatch::get`]:
//! the `THNT_KERNEL` environment variable
//! (`scalar` | `avx2` | `avx512` | `neon`) forces a backend for
//! benchmarking and CI, otherwise runtime feature detection picks the
//! widest supported one. An unknown or unsupported `THNT_KERNEL` value
//! aborts loudly — a benchmark silently falling back to scalar would
//! report fiction.
//!
//! # Exactness
//!
//! The scalar kernel adds columns strictly left-to-right; the SIMD kernels
//! keep 8 (or 4) independent partial sums that are folded at the end of
//! each row. Floating-point addition is not associative, so the backends
//! agree only to within rounding (≤ 1e-5 relative on realistic
//! magnitudes), never bitwise — the equivalence proptests in
//! `crates/strassen/tests/kernel_equivalence.rs` pin exactly this
//! contract. Within one backend, results are deterministic and
//! batch-size-invariant: every sample/row is reduced in the same order
//! whether it arrives alone or in a batch. The bit-sliced popcount family,
//! the element-wise slice ops and the window sum are the exception:
//! integer arithmetic and element-wise f32 respectively, bitwise identical
//! everywhere.

use std::sync::OnceLock;

pub(crate) mod scalar;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512;

#[cfg(target_arch = "aarch64")]
pub(crate) mod neon;

/// Borrowed view of a [`super::PackedTernary`]'s bitplanes — the raw
/// operands every kernel backend consumes, without tying the kernels to the
/// owning struct.
#[derive(Debug, Clone, Copy)]
pub struct PackedView<'a> {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns (logical width; rows are padded to whole words).
    pub cols: usize,
    /// `u64` words per row of each bitplane: `cols.div_ceil(64)`.
    pub words_per_row: usize,
    /// The `+1` bitplane, row-major. Padding bits are clear.
    pub plus: &'a [u64],
    /// The `−1` bitplane, same layout. Never overlaps `plus`.
    pub minus: &'a [u64],
}

/// One term of a [`KernelDispatch::window_sum`]: the source window
/// starting at `src`, AND-ed lane by lane with the mask run starting at
/// `mask`, and subtracted instead of added when `negate` is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowTap {
    /// Index of the window's first element in the source slice.
    pub src: usize,
    /// Index of the window's first lane mask in the mask slice.
    pub mask: usize,
    /// Whether the window is subtracted (its IEEE sign bit flipped).
    pub negate: bool,
}

impl WindowTap {
    /// The XOR that applies the tap's sign to a lane's bits.
    #[inline(always)]
    pub(crate) fn sign_bit(&self) -> u32 {
        u32::from(self.negate) << 31
    }
}

/// A compute-kernel backend identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Portable bit-iteration reference kernel (always available).
    Scalar,
    /// 8-lane AVX2 mask-blend kernel (x86_64 with AVX2 support).
    Avx2,
    /// AVX-512 `vpopcntq` kernel for the bit-sliced popcount family; the
    /// f32-lane loops reuse the AVX2 implementation (x86_64 with AVX-512
    /// `vpopcntdq` support).
    Avx512,
    /// 4-lane NEON mask-select kernel (aarch64).
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
            Kernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            // The f32-lane loops route to the AVX2 code, so AVX2 must be
            // present alongside the popcount extension.
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
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A resolved kernel backend: the handle the packed operations route
/// through.
///
/// The process-wide default is resolved once by [`KernelDispatch::get`];
/// explicit handles ([`KernelDispatch::new`]) let benchmarks and the
/// equivalence tests pit backends against each other in one process.
///
/// # Examples
///
/// ```
/// use thnt_strassen::packed::kernel::{Kernel, KernelDispatch};
///
/// // The process default: THNT_KERNEL override or runtime detection.
/// let active = KernelDispatch::get();
/// assert!(active.kernel().is_supported());
///
/// // An explicit handle for a specific backend.
/// let scalar = KernelDispatch::new(Kernel::Scalar).unwrap();
/// assert_eq!(scalar.kernel().name(), "scalar");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelDispatch {
    kernel: Kernel,
}

static ACTIVE: OnceLock<KernelDispatch> = OnceLock::new();

impl KernelDispatch {
    /// Wraps a specific backend.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message if the backend is not supported on the
    /// current host (e.g. `Kernel::Neon` on x86_64, or `Kernel::Avx2` on a
    /// CPU without AVX2).
    pub fn new(kernel: Kernel) -> Result<Self, String> {
        if kernel.is_supported() {
            Ok(Self { kernel })
        } else {
            Err(format!("kernel {:?} is not supported on this host", kernel.name()))
        }
    }

    /// The process-wide dispatch handle, resolved once on first use:
    /// `THNT_KERNEL` (`scalar` | `avx2` | `avx512` | `neon`) if set,
    /// otherwise the widest backend runtime detection finds.
    ///
    /// # Panics
    ///
    /// Panics if `THNT_KERNEL` names an unknown or unsupported backend —
    /// the override exists for benchmarking and CI, where a silent fallback
    /// would invalidate the run.
    pub fn get() -> &'static KernelDispatch {
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
            None => Self::new(Kernel::detect()),
            Some(name) => Self::new(Kernel::parse(name)?),
        }
    }

    /// The backend this handle routes to.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// `y = W·x` over the view's bitplanes, serial over rows.
    ///
    /// Caller guarantees `x.len() == v.cols` and `y.len() == v.rows`.
    #[inline]
    pub(crate) fn matvec_into(&self, v: &PackedView<'_>, x: &[f32], y: &mut [f32]) {
        match self.kernel {
            Kernel::Scalar => scalar::matvec_into(v, x, y),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `KernelDispatch` construction verified AVX2 support
            // (Avx512 support implies it — the f32 loops are shared).
            Kernel::Avx2 | Kernel::Avx512 => unsafe { avx2::matvec_into(v, x, y) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: `KernelDispatch` construction verified NEON support.
            Kernel::Neon => unsafe { neon::matvec_into(v, x, y) },
            #[allow(unreachable_patterns)]
            other => unreachable!("unsupported kernel {other:?} escaped construction"),
        }
    }

    /// Batched activations: computes `out[s·rows + r] = Wᵣ · xₛ` for the
    /// `ns = out.len() / v.rows` samples stored contiguously in `x`
    /// (`ns × cols`, row-major), serially on the calling thread.
    ///
    /// Caller guarantees `x.len() == ns · v.cols` and
    /// `out.len() == ns · v.rows`.
    #[inline]
    pub(crate) fn matmul_samples(&self, v: &PackedView<'_>, x: &[f32], out: &mut [f32]) {
        match self.kernel {
            Kernel::Scalar => scalar::matmul_samples(v, x, out),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `KernelDispatch` construction verified AVX2 support
            // (Avx512 support implies it — the f32 loops are shared).
            Kernel::Avx2 | Kernel::Avx512 => unsafe { avx2::matmul_samples(v, x, out) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: `KernelDispatch` construction verified NEON support.
            Kernel::Neon => unsafe { neon::matmul_samples(v, x, out) },
            #[allow(unreachable_patterns)]
            other => unreachable!("unsupported kernel {other:?} escaped construction"),
        }
    }

    /// Column-matrix product rows: computes output rows `r0..` of `W · M`
    /// into `chunk` (a whole number of `p`-wide rows, pre-zeroed), where
    /// `md` is `M` in row-major `[cols, p]`. Each set bit contributes a
    /// contiguous `p`-long row of `M`; the add is element-wise, so every
    /// backend produces bitwise identical output here.
    ///
    /// Caller guarantees `md.len() == v.cols · p` and
    /// `chunk.len()` a multiple of `p` with `r0 + chunk.len()/p <= v.rows`.
    #[inline]
    pub(crate) fn rhs_rows(
        &self,
        v: &PackedView<'_>,
        md: &[f32],
        p: usize,
        r0: usize,
        chunk: &mut [f32],
    ) {
        match self.kernel {
            Kernel::Scalar => scalar::rhs_rows(v, md, p, r0, chunk),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `KernelDispatch` construction verified AVX2 support
            // (Avx512 support implies it — the f32 loops are shared).
            Kernel::Avx2 | Kernel::Avx512 => unsafe { avx2::rhs_rows(v, md, p, r0, chunk) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: `KernelDispatch` construction verified NEON support.
            Kernel::Neon => unsafe { neon::rhs_rows(v, md, p, r0, chunk) },
            #[allow(unreachable_patterns)]
            other => unreachable!("unsupported kernel {other:?} escaped construction"),
        }
    }

    /// Bit-sliced int8 matvec: `y[r] = Wᵣ · q` where `q` is stored as 8
    /// per-bit u64 planes (two's complement, plane `b` at
    /// `planes[b·wpr..(b+1)·wpr]`) and `W` is the view's ternary bitplanes.
    /// Pure AND+popcount, exact i32 accumulation — bitwise identical across
    /// every backend.
    ///
    /// Caller guarantees `planes.len() == 8 · v.words_per_row` and
    /// `y.len() == v.rows`.
    #[inline]
    pub(crate) fn bitslice_matvec(&self, v: &PackedView<'_>, planes: &[u64], y: &mut [i32]) {
        match self.kernel {
            Kernel::Scalar => scalar::bitslice_matvec(v, planes, y),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `KernelDispatch` construction verified AVX2 support.
            Kernel::Avx2 => unsafe { avx2::bitslice_matvec(v, planes, y) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `KernelDispatch` construction verified AVX-512
            // vpopcntdq support.
            Kernel::Avx512 => unsafe { avx512::bitslice_matvec(v, planes, y) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: `KernelDispatch` construction verified NEON support.
            Kernel::Neon => unsafe { neon::bitslice_matvec(v, planes, y) },
            #[allow(unreachable_patterns)]
            other => unreachable!("unsupported kernel {other:?} escaped construction"),
        }
    }

    /// Column-matrix bit-sliced product: `out[r·cols + c] = Wᵣ · x_c`, where
    /// `x` holds `cols` int8 columns of `v.cols` elements with the columns
    /// minor (plane `b`, word `w`, column `c` at `(b·wpr + w)·cols + c`).
    /// Exact integer arithmetic, narrowed to i32 like
    /// [`Self::bitslice_matvec`], so every backend agrees bit for bit.
    /// AVX-512 popcounts 8 columns per `vpopcntq`; scalar, AVX2 and NEON
    /// share one portable loop.
    ///
    /// # Panics
    ///
    /// Panics unless `x.len() == 8 · v.words_per_row · cols` and
    /// `out.len() == v.rows · cols`: the AVX-512 loop reads and writes
    /// whole 8-column groups through raw pointers.
    #[inline]
    pub(crate) fn bitslice_rhs(&self, v: &PackedView<'_>, x: &[u64], cols: usize, out: &mut [i32]) {
        let planes = cols.checked_mul(8 * v.words_per_row);
        assert_eq!(Some(x.len()), planes, "bit-sliced column operand length");
        assert_eq!(Some(out.len()), v.rows.checked_mul(cols), "bit-sliced column product length");
        match self.kernel {
            Kernel::Scalar | Kernel::Avx2 | Kernel::Neon => scalar::bitslice_rhs(v, x, cols, out),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `KernelDispatch` construction verified AVX-512
            // vpopcntdq support, and both operand lengths were asserted
            // above.
            Kernel::Avx512 => unsafe { avx512::bitslice_rhs(v, x, cols, out) },
            #[allow(unreachable_patterns)]
            other => unreachable!("unsupported kernel {other:?} escaped construction"),
        }
    }

    /// Column-matrix quantize: bit-slices the row-major `[len × cols]`
    /// matrix `m` into `out` with the columns minor (element `(i, c)` lands
    /// in bit `i % 64` of word `(b·words + i/64)·cols + c` of each plane
    /// `b`, `words = len.div_ceil(64)`), every element rounded by
    /// [`super::bitslice::quantize_i8`]'s formula at `inv_scale`, and the
    /// padding bits clear. AVX-512 converts 16 columns per vector; scalar,
    /// AVX2 and NEON share one portable loop. Both write the same bits.
    ///
    /// # Panics
    ///
    /// Panics unless `m.len() == len · cols` and
    /// `out.len() == 8 · len.div_ceil(64) · cols`: the AVX-512 loop reads
    /// and writes whole 16-column groups through raw pointers.
    #[inline]
    pub(crate) fn bitslice_columns(
        &self,
        m: &[f32],
        len: usize,
        cols: usize,
        inv_scale: f32,
        out: &mut [u64],
    ) {
        assert_eq!(Some(m.len()), len.checked_mul(cols), "column quantize matrix length");
        let planes = cols.checked_mul(8 * len.div_ceil(64));
        assert_eq!(Some(out.len()), planes, "column quantize plane length");
        match self.kernel {
            Kernel::Scalar | Kernel::Avx2 | Kernel::Neon => {
                scalar::bitslice_columns(m, cols, inv_scale, out)
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `KernelDispatch` construction verified AVX-512F
            // support, and both operand lengths were asserted above.
            Kernel::Avx512 => unsafe { avx512::bitslice_columns(m, len, cols, inv_scale, out) },
            #[allow(unreachable_patterns)]
            other => unreachable!("unsupported kernel {other:?} escaped construction"),
        }
    }

    /// Element-wise `dst[i] += src[i]` over `src.len()` elements.
    ///
    /// Element-wise with no reassociation, so every backend produces
    /// bitwise identical output.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() < src.len()`.
    #[inline]
    pub fn slice_add(&self, dst: &mut [f32], src: &[f32]) {
        match self.kernel {
            Kernel::Scalar => scalar::slice_add(dst, src),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `KernelDispatch` construction verified AVX2 support
            // (Avx512 support implies it — the f32 loops are shared).
            Kernel::Avx2 | Kernel::Avx512 => unsafe { avx2::slice_add(dst, src) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: `KernelDispatch` construction verified NEON support.
            Kernel::Neon => unsafe { neon::slice_add(dst, src) },
            #[allow(unreachable_patterns)]
            other => unreachable!("unsupported kernel {other:?} escaped construction"),
        }
    }

    /// Element-wise `dst[i] -= src[i]` over `src.len()` elements.
    ///
    /// Element-wise with no reassociation, so every backend produces
    /// bitwise identical output.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() < src.len()`.
    #[inline]
    pub fn slice_sub(&self, dst: &mut [f32], src: &[f32]) {
        match self.kernel {
            Kernel::Scalar => scalar::slice_sub(dst, src),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `KernelDispatch` construction verified AVX2 support
            // (Avx512 support implies it — the f32 loops are shared).
            Kernel::Avx2 | Kernel::Avx512 => unsafe { avx2::slice_sub(dst, src) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: `KernelDispatch` construction verified NEON support.
            Kernel::Neon => unsafe { neon::slice_sub(dst, src) },
            #[allow(unreachable_patterns)]
            other => unreachable!("unsupported kernel {other:?} escaped construction"),
        }
    }

    /// Element-wise `dst[i] += a · src[i]` over `src.len()` elements.
    ///
    /// Every backend multiplies then adds (no fused multiply-add — fusing
    /// would change rounding), so the output is bitwise identical across
    /// backends.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() < src.len()`.
    #[inline]
    pub fn slice_axpy(&self, dst: &mut [f32], a: f32, src: &[f32]) {
        match self.kernel {
            Kernel::Scalar => scalar::slice_axpy(dst, a, src),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `KernelDispatch` construction verified AVX2 support
            // (Avx512 support implies it — the f32 loops are shared).
            Kernel::Avx2 | Kernel::Avx512 => unsafe { avx2::slice_axpy(dst, a, src) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: `KernelDispatch` construction verified NEON support.
            Kernel::Neon => unsafe { neon::slice_axpy(dst, a, src) },
            #[allow(unreachable_patterns)]
            other => unreachable!("unsupported kernel {other:?} escaped construction"),
        }
    }

    /// Signed, lane-masked window sum: for every `i < out.len()`,
    ///
    /// ```text
    /// out[i] = +0.0 + t₀(i) + t₁(i) + …   (left to right, over `taps`)
    /// tₖ(i)  = bits(src[tap.src + i]) & masks[tap.mask + i], sign flipped if tap.negate
    /// ```
    ///
    /// An all-ones mask keeps a lane and a zero mask turns it into ±0.0.
    /// The partial sums stay in registers across all taps and every output
    /// lane is reduced in tap order, so every backend is bitwise identical
    /// to the scalar loop. Adding ±0.0 leaves any sum that is not −0.0
    /// unchanged, and a sum seeded with +0.0 never becomes −0.0, so a
    /// masked lane is exactly a skipped add.
    ///
    /// # Panics
    ///
    /// Panics if a tap's window `src[tap.src..tap.src + out.len()]` or mask
    /// run `masks[tap.mask..tap.mask + out.len()]` runs past its slice: the
    /// SIMD loops read `out.len()` lanes from both.
    #[inline]
    pub fn window_sum(&self, src: &[f32], masks: &[u32], taps: &[WindowTap], out: &mut [f32]) {
        let n = out.len();
        for t in taps {
            assert!(
                n <= src.len() && t.src <= src.len() - n,
                "window_sum tap window {}..{} past its source of {}",
                t.src,
                t.src.saturating_add(n),
                src.len()
            );
            assert!(
                n <= masks.len() && t.mask <= masks.len() - n,
                "window_sum tap mask run {}..{} past its {} masks",
                t.mask,
                t.mask.saturating_add(n),
                masks.len()
            );
        }
        match self.kernel {
            // One portable loop: NEON intrinsics would have no test host.
            Kernel::Scalar | Kernel::Neon => scalar::window_sum(src, masks, taps, out),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `KernelDispatch` construction verified AVX2 support
            // (Avx512 support implies it — the f32 loops are shared), and
            // every tap's window and mask run were bounds-checked above.
            Kernel::Avx2 | Kernel::Avx512 => unsafe { avx2::window_sum(src, masks, taps, out) },
            #[allow(unreachable_patterns)]
            other => unreachable!("unsupported kernel {other:?} escaped construction"),
        }
    }
}

/// Bit-significance weight of plane `b` of a two's-complement bit-sliced
/// int8 value: `2^b` for the magnitude planes, `−128` for the sign plane.
#[inline(always)]
pub(crate) fn plane_weight(b: usize) -> i32 {
    if b == 7 {
        -128
    } else {
        1 << b
    }
}

/// The planes of a bit-sliced activation block with any bit set, ascending.
/// Activations are often non-negative (post-ReLU) or small, leaving the
/// sign or high-magnitude planes all-zero — one cheap scan per matvec lets
/// every backend skip them entirely. Skipping is exact: an all-zero plane
/// contributes nothing to the integer accumulator.
pub(crate) fn active_planes(planes: &[u64]) -> ([usize; 8], usize) {
    let wpr = planes.len() / 8;
    let mut active = [0usize; 8];
    let mut n = 0;
    for b in 0..8 {
        if planes[b * wpr..(b + 1) * wpr].iter().any(|&w| w != 0) {
            active[n] = b;
            n += 1;
        }
    }
    (active, n)
}

/// One word's exact bit-sliced contribution to a row's integer dot — the
/// scalar tail the SIMD popcount kernels use for words beyond the last full
/// vector block. `pw`/`mw` are the row's `+1`/`−1` words at word index `w`.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
pub(crate) fn bitslice_tail_word(
    planes: &[u64],
    wpr: usize,
    w: usize,
    pw: u64,
    mw: u64,
    active: &[usize],
) -> i64 {
    let mut acc = 0i64;
    for &b in active {
        let xw = planes[b * wpr + w];
        let s = (xw & pw).count_ones() as i64 - (xw & mw).count_ones() as i64;
        acc += plane_weight(b) as i64 * s;
    }
    acc
}

/// Scalar bit iteration over columns `c0..x.len()` of one row — the tail a
/// vector load cannot touch. Shared by the SIMD backends.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
pub(crate) fn tail_dot(plus_row: &[u64], minus_row: &[u64], x: &[f32], c0: usize) -> f32 {
    let mut acc = 0.0f32;
    for c in c0..x.len() {
        let bit = 1u64 << (c & 63);
        if plus_row[c >> 6] & bit != 0 {
            acc += x[c];
        } else if minus_row[c >> 6] & bit != 0 {
            acc -= x[c];
        }
    }
    acc
}

/// A signed-bit stripe kernel: accumulates every `(row of M, IEEE sign
/// bit)` entry's `md` block into registers for a fixed span of output
/// columns starting at the last argument.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
pub(crate) type StripeFn = unsafe fn(&[f32], usize, &[(u32, u32)], &mut [f32], usize);

/// Shared driver for the SIMD `rhs_rows` implementations: extracts each
/// output row's signed bit list in the scalar backend's word order (plus
/// bits ascending then minus bits ascending, per word; sign encoded as the
/// IEEE sign bit), runs `wide`-/`narrow`-column register stripes over the
/// full blocks, and finishes the ragged columns with a scalar loop in the
/// same bit order — per element exactly the scalar backend's adds in
/// exactly its order, so every backend stays bitwise identical to scalar.
///
/// # Safety
///
/// The caller must guarantee the CPU supports whatever target features the
/// stripe functions were compiled with, and `md.len() == v.cols · p`: each
/// stripe loads a `p`-float row of `md` per set bit, and a set bit always
/// names a column below `v.cols`. Stripes are only called with
/// `c + width <= p`.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn rhs_rows_striped(
    v: &PackedView<'_>,
    md: &[f32],
    p: usize,
    r0: usize,
    chunk: &mut [f32],
    wide_cols: usize,
    wide: StripeFn,
    narrow_cols: usize,
    narrow: StripeFn,
) {
    let wpr = v.words_per_row;
    // (row of M, IEEE sign bit) per non-zero entry, reused across rows.
    let mut bits: Vec<(u32, u32)> = Vec::with_capacity(64 * wpr);
    for (ri, orow) in chunk.chunks_mut(p).enumerate() {
        let base = (r0 + ri) * wpr;
        bits.clear();
        for w in 0..wpr {
            let off = (w * 64) as u32;
            let mut pl = v.plus[base + w];
            while pl != 0 {
                bits.push((off + pl.trailing_zeros(), 0));
                pl &= pl - 1;
            }
            let mut mi = v.minus[base + w];
            while mi != 0 {
                bits.push((off + mi.trailing_zeros(), 1 << 31));
                mi &= mi - 1;
            }
        }
        if bits.is_empty() {
            continue; // the pre-zeroed row is already the answer
        }
        let mut c = 0;
        while c + wide_cols <= p {
            // SAFETY: forwarded from the caller's contract.
            unsafe { wide(md, p, &bits, orow, c) };
            c += wide_cols;
        }
        while c + narrow_cols <= p {
            // SAFETY: forwarded from the caller's contract.
            unsafe { narrow(md, p, &bits, orow, c) };
            c += narrow_cols;
        }
        for cc in c..p {
            let mut acc = 0.0f32;
            for &(j, sign) in &bits {
                acc += f32::from_bits(md[j as usize * p + cc].to_bits() ^ sign);
            }
            orow[cc] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_supported_and_listed_last() {
        assert!(Kernel::Scalar.is_supported());
        let avail = Kernel::available();
        assert_eq!(*avail.last().unwrap(), Kernel::Scalar);
        assert!(avail.contains(&Kernel::detect()));
    }

    #[test]
    fn parse_accepts_exactly_the_documented_names() {
        assert_eq!(Kernel::parse("scalar").unwrap(), Kernel::Scalar);
        assert_eq!(Kernel::parse("avx2").unwrap(), Kernel::Avx2);
        assert_eq!(Kernel::parse("avx512").unwrap(), Kernel::Avx512);
        assert_eq!(Kernel::parse("neon").unwrap(), Kernel::Neon);
        for bad in ["", "AVX2", "sse", "auto", "scalar ", "avx512vpopcntdq"] {
            assert!(Kernel::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn resolve_without_override_detects_a_working_kernel() {
        let d = KernelDispatch::resolve(None).expect("detection must always succeed");
        assert!(d.kernel().is_supported());
        // The resolved default must actually compute: a tiny smoke matvec.
        let plus = [0b101u64];
        let minus = [0b010u64];
        let v = PackedView { rows: 1, cols: 3, words_per_row: 1, plus: &plus, minus: &minus };
        let mut y = [0.0f32];
        d.matvec_into(&v, &[1.0, 10.0, 100.0], &mut y);
        assert_eq!(y[0], 1.0 - 10.0 + 100.0);
    }

    #[test]
    fn resolve_honours_a_valid_override() {
        let d = KernelDispatch::resolve(Some("scalar")).unwrap();
        assert_eq!(d.kernel(), Kernel::Scalar);
        // Every supported backend resolves to a working kernel.
        for k in Kernel::available() {
            let d = KernelDispatch::resolve(Some(k.name())).unwrap();
            assert_eq!(d.kernel(), k);
            let plus = [1u64 << 63];
            let minus = [0u64];
            let v = PackedView { rows: 1, cols: 64, words_per_row: 1, plus: &plus, minus: &minus };
            let mut x = vec![0.0f32; 64];
            x[63] = 7.5;
            let mut y = [0.0f32];
            d.matvec_into(&v, &x, &mut y);
            assert_eq!(y[0], 7.5, "kernel {k} must compute");
        }
    }

    #[test]
    fn resolve_rejects_unknown_values_loudly() {
        let err = KernelDispatch::resolve(Some("turbo")).unwrap_err();
        assert!(err.contains("unknown THNT_KERNEL"), "got: {err}");
        assert!(err.contains("turbo"), "the bad value must be named: {err}");
    }

    #[cfg(not(target_arch = "aarch64"))]
    #[test]
    fn resolve_rejects_unsupported_backends_loudly() {
        let err = KernelDispatch::resolve(Some("neon")).unwrap_err();
        assert!(err.contains("not supported"), "got: {err}");
    }

    #[test]
    fn avx512_resolves_only_where_detected() {
        // On hosts without vpopcntq the override must fail loudly (never a
        // silent scalar fallback); where supported it must resolve to itself.
        match KernelDispatch::resolve(Some("avx512")) {
            Ok(d) => {
                assert!(Kernel::Avx512.is_supported());
                assert_eq!(d.kernel(), Kernel::Avx512);
            }
            Err(e) => {
                assert!(!Kernel::Avx512.is_supported());
                assert!(e.contains("not supported"), "got: {e}");
            }
        }
    }

    #[test]
    fn every_backend_computes_the_same_bitsliced_dot() {
        // cols = 3: weights [+1, −1, +1], activations [5, −7, 100].
        let plus = [0b101u64];
        let minus = [0b010u64];
        let v = PackedView { rows: 1, cols: 3, words_per_row: 1, plus: &plus, minus: &minus };
        let mut planes = [0u64; 8];
        for (i, q) in [5i8, -7, 100].into_iter().enumerate() {
            for (b, plane) in planes.iter_mut().enumerate() {
                *plane |= ((q as u8 as u64) >> b & 1) << i;
            }
        }
        for k in Kernel::available() {
            let d = KernelDispatch::new(k).unwrap();
            let mut y = [0i32];
            d.bitslice_matvec(&v, &planes, &mut y);
            assert_eq!(y[0], 5 + 7 + 100, "kernel {k}");
        }
    }

    #[test]
    fn active_planes_reports_set_planes_only() {
        let mut planes = [0u64; 16]; // 8 planes × 2 words
        planes[2 * 2] = 1; // plane 2
        planes[7 * 2 + 1] = 1 << 63; // plane 7, second word
        let (active, n) = active_planes(&planes);
        assert_eq!(&active[..n], &[2, 7]);
        assert_eq!(active_planes(&[0u64; 8]).1, 0);
    }

    #[test]
    fn get_resolves_to_a_supported_kernel() {
        // Whatever the process environment says (CI sets THNT_KERNEL in the
        // per-backend equivalence runs), the resolved handle must work.
        let d = KernelDispatch::get();
        assert!(d.kernel().is_supported());
        if let Ok(name) = std::env::var("THNT_KERNEL") {
            assert_eq!(d.kernel().name(), name, "override must win");
        }
    }
}
