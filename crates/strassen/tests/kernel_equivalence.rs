//! Property tests keeping the kernel backends provably interchangeable:
//! every SIMD backend the host supports is pitted against the scalar
//! reference on randomized shapes that straddle word and lane boundaries.
//!
//! Exactness contract (see `thnt_strassen::packed::kernel`):
//!
//! * `matvec` / `matmul` — the SIMD backends fold 8 (AVX2) or 4 (NEON)
//!   partial sums per row where the scalar kernel adds strictly
//!   left-to-right. Floating-point addition does not reassociate, so the
//!   backends agree only to rounding; the tolerance is `1e-5` scaled by the
//!   row's ℓ₁ mass (the bound on any partial sum, hence on the rounding
//!   error each reordered add can introduce). Exact equality would be a
//!   wrong spec — it only holds when every row sum is exact in `f32`.
//! * `matmul_rhs`, the slice ops and `window_sum` — the SIMD versions
//!   vectorise *element-wise* adds, which reorder nothing, so backends
//!   must agree **bitwise**.
//! * within one backend, a sample's result must not depend on the batch it
//!   arrived in (the serving layer's batching-invariance guarantee).
//!
//! CI runs this suite once per backend by exporting `THNT_KERNEL`
//! (`scalar` plus whatever the runner supports); the explicit-dispatch
//! tests below additionally cover every available backend in a single
//! process, whatever the environment says.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use thnt_strassen::{
    BitSliced, BitSlicedColumns, Kernel, KernelDispatch, PackedTernary, WindowTap,
};
use thnt_tensor::Tensor;

/// Column widths that straddle the u64 word boundary and the 8/4-lane SIMD
/// group boundaries; index 6 selects an arbitrary width instead.
const COL_CHOICES: [usize; 6] = [63, 64, 65, 127, 128, 129];

fn pick_cols(sel: usize, raw: usize) -> usize {
    COL_CHOICES.get(sel).copied().unwrap_or(raw)
}

fn random_ternary(rows: usize, cols: usize, rng: &mut SmallRng) -> Tensor {
    let data = (0..rows * cols).map(|_| rng.gen_range(-1i32..=1) as f32).collect();
    Tensor::from_vec(data, &[rows, cols])
}

fn random_activations(len: usize, rng: &mut SmallRng) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn simd_backends() -> Vec<KernelDispatch> {
    Kernel::available()
        .into_iter()
        .filter(|k| *k != Kernel::Scalar)
        .map(|k| KernelDispatch::new(k).unwrap())
        .collect()
}

fn scalar() -> KernelDispatch {
    KernelDispatch::new(Kernel::Scalar).unwrap()
}

/// `1e-5` scaled by the ℓ₁ mass of the inputs a row sum touches — the
/// natural bound for reassociation-only divergence.
fn row_tol(x: &[f32]) -> f32 {
    1e-5 * (1.0 + x.iter().map(|v| v.abs()).sum::<f32>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every supported SIMD backend's matvec agrees with the scalar
    /// reference within reassociation rounding on shapes spanning word
    /// boundaries.
    #[test]
    fn simd_matvec_matches_scalar(
        seed in 0u64..1_000_000,
        rows in 1usize..40,
        colsel in 0usize..7,
        rawcols in 1usize..200,
    ) {
        let cols = pick_cols(colsel, rawcols);
        let mut rng = SmallRng::seed_from_u64(seed);
        let packed = PackedTernary::from_tensor(&random_ternary(rows, cols, &mut rng));
        let x = random_activations(cols, &mut rng);
        let mut want = vec![0.0f32; rows];
        packed.matvec_into_with(&scalar(), &x, &mut want);
        let tol = row_tol(&x);
        for d in simd_backends() {
            let mut got = vec![0.0f32; rows];
            packed.matvec_into_with(&d, &x, &mut got);
            for (r, (a, b)) in want.iter().zip(&got).enumerate() {
                prop_assert!(
                    (a - b).abs() <= tol,
                    "kernel {} {rows}x{cols} row {r}: scalar {a} vs simd {b} (tol {tol})",
                    d.kernel()
                );
            }
        }
    }

    /// Batched matmul: SIMD agrees with scalar within rounding, and within
    /// each backend every sample's row is bitwise independent of its batch.
    #[test]
    fn simd_matmul_matches_scalar_and_batching_is_invariant(
        seed in 0u64..1_000_000,
        rows in 1usize..24,
        colsel in 0usize..7,
        rawcols in 1usize..200,
        n in 1usize..7,
    ) {
        let cols = pick_cols(colsel, rawcols);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5);
        let packed = PackedTernary::from_tensor(&random_ternary(rows, cols, &mut rng));
        let x = random_activations(cols * n, &mut rng);
        let xt = Tensor::from_vec(x.clone(), &[n, cols]);
        let want = packed.matmul_with(&scalar(), &xt);
        for d in simd_backends().into_iter().chain([scalar()]) {
            let got = packed.matmul_with(&d, &xt);
            for s in 0..n {
                let xrow = &x[s * cols..(s + 1) * cols];
                let tol = row_tol(xrow);
                let grow = &got.data()[s * rows..(s + 1) * rows];
                let wrow = &want.data()[s * rows..(s + 1) * rows];
                for (r, (a, b)) in wrow.iter().zip(grow).enumerate() {
                    prop_assert!(
                        (a - b).abs() <= tol,
                        "kernel {} sample {s} row {r}: {a} vs {b}",
                        d.kernel()
                    );
                }
                // Batching invariance is *bitwise* within one backend.
                let mut alone = vec![0.0f32; rows];
                packed.matvec_into_with(&d, xrow, &mut alone);
                prop_assert_eq!(
                    &alone[..],
                    grow,
                    "kernel {} sample {s}: batched row != same sample alone",
                    d.kernel()
                );
            }
        }
    }

    /// `matmul_rhs` vectorises an element-wise slice add — no
    /// reassociation — so every backend must agree with scalar bitwise,
    /// at widths under one 8-column stripe, between stripes and past the
    /// 64-column wide stripe.
    #[test]
    fn simd_matmul_rhs_is_bitwise_scalar(
        seed in 0u64..1_000_000,
        rows in 1usize..16,
        colsel in 0usize..7,
        rawcols in 1usize..200,
        p in 1usize..200,
    ) {
        let cols = pick_cols(colsel, rawcols);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5A5A);
        let packed = PackedTernary::from_tensor(&random_ternary(rows, cols, &mut rng));
        let mt = Tensor::from_vec(random_activations(cols * p, &mut rng), &[cols, p]);
        let mut want = vec![0.0f32; rows * p];
        packed.matmul_rhs_into_with(&scalar(), &mt, &mut want);
        for d in simd_backends() {
            let mut got = vec![0.0f32; rows * p];
            packed.matmul_rhs_into_with(&d, &mt, &mut got);
            prop_assert_eq!(&want, &got, "kernel {} diverged bitwise", d.kernel());
        }
    }

    /// Bit-sliced popcount matvec: integer arithmetic reassociates freely,
    /// so every backend — including the default dispatch route — must agree
    /// with an i32 reference computed straight from the signs **exactly**,
    /// on shapes straddling the 4- and 8-word SIMD block boundaries.
    #[test]
    fn bitsliced_matvec_is_exact_on_every_backend(
        seed in 0u64..1_000_000,
        rows in 1usize..24,
        colsel in 0usize..7,
        rawcols in 1usize..600,
        n in 1usize..4,
    ) {
        let cols = pick_cols(colsel, rawcols);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x1D0D);
        let signs: Vec<i8> = (0..rows * cols).map(|_| rng.gen_range(-1i8..=1)).collect();
        let t = Tensor::from_vec(signs.iter().map(|&s| s as f32).collect(), &[rows, cols]);
        let packed = PackedTernary::from_tensor(&t);
        let x = random_activations(cols * n, &mut rng);
        let sliced = BitSliced::quantize(&x, cols, 1.0 / 64.0);
        // Integer reference from the reconstructed int8 levels.
        let mut want = vec![0i32; n * rows];
        for s in 0..n {
            for r in 0..rows {
                want[s * rows + r] = (0..cols)
                    .map(|c| signs[r * cols + c] as i32 * sliced.get(s, c) as i32)
                    .sum();
            }
        }
        for d in simd_backends().into_iter().chain([scalar()]) {
            let mut got = vec![0i32; n * rows];
            packed.bitsliced_matmul_into_with(&d, &sliced, &mut got);
            prop_assert_eq!(&want, &got, "kernel {} diverged", d.kernel());
        }
        // The default dispatch (THNT_KERNEL override or detection) too.
        let mut got = vec![0i32; rows];
        packed.bitsliced_matvec_into(
            &BitSliced::quantize(&x[..cols], cols, 1.0 / 64.0),
            &mut got,
        );
        prop_assert_eq!(&want[..rows], &got[..]);
    }

    /// The column-matrix popcount product is integer arithmetic too: every
    /// backend must equal the scalar loop and an i32 Σ sign·q reference
    /// exactly, for columns of 1 to 200 elements (one to four words) and 0
    /// to 200 columns (under, on and off the 8-column groups).
    #[test]
    fn bitsliced_column_product_is_exact_on_every_backend(
        seed in 0u64..1_000_000,
        rows in 1usize..24,
        len in 1usize..=200,
        cols in 0usize..=200,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC01);
        let signs: Vec<i8> = (0..rows * len).map(|_| rng.gen_range(-1i8..=1)).collect();
        let t = Tensor::from_vec(signs.iter().map(|&s| s as f32).collect(), &[rows, len]);
        let packed = PackedTernary::from_tensor(&t);
        let m: Vec<f32> = (0..len * cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let mut x = BitSlicedColumns::zeroed(len, cols);
        x.quantize_into_with(&scalar(), &m, 1.0 / 64.0);
        let mut want = vec![0i32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                want[r * cols + c] =
                    (0..len).map(|i| signs[r * len + i] as i32 * x.get(i, c) as i32).sum();
            }
        }
        let mut reference = vec![0i32; rows * cols];
        packed.bitsliced_matmul_rhs_into_with(&scalar(), &x, &mut reference);
        prop_assert_eq!(&want, &reference, "scalar diverged from Σ sign·q");
        for d in simd_backends() {
            let mut got = vec![i32::MIN; rows * cols];
            packed.bitsliced_matmul_rhs_into_with(&d, &x, &mut got);
            prop_assert_eq!(&want, &got, "kernel {} diverged", d.kernel());
        }
    }

    /// Every backend's column quantize writes, for each column, exactly the
    /// planes `BitSliced::quantize` writes for that column alone, on
    /// columns holding NaN, ±inf, ±0.0, saturating magnitudes and values at
    /// (n + ½)·scale and one ulp either side.
    #[test]
    fn column_quantize_matches_bitsliced_quantize_per_column(
        seed in 0u64..1_000_000,
        len in 1usize..=200,
        cols in 0usize..=40,
        scale_exp in 0i32..10,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xB175);
        let scale = (2.0f32).powi(-scale_exp);
        let m: Vec<f32> = (0..len * cols)
            .map(|_| match rng.gen_range(0u32..12) {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => -0.0,
                4 => rng.gen_range(-1e30f32..1e30),
                5..=7 => {
                    let half = (rng.gen_range(-130i32..=130) as f32 + 0.5) * scale;
                    [half, half.next_up(), half.next_down()][rng.gen_range(0usize..3)]
                }
                _ => rng.gen_range(-135.0f32..135.0) * scale,
            })
            .collect();
        let words = len.div_ceil(64);
        let mut want = vec![0u64; 8 * words * cols];
        for c in 0..cols {
            let col: Vec<f32> = (0..len).map(|i| m[i * cols + c]).collect();
            let one = BitSliced::quantize(&col, len, scale);
            for (j, &word) in one.sample_planes(0).iter().enumerate() {
                want[j * cols + c] = word;
            }
        }
        for d in simd_backends().into_iter().chain([scalar()]) {
            let mut x = BitSlicedColumns::zeroed(len, cols);
            x.quantize_into_with(&d, &m, scale);
            prop_assert_eq!(&want[..], x.planes(), "kernel {} planes diverged", d.kernel());
        }
    }

    /// The element-wise slice family (`slice_add` / `slice_sub` /
    /// `slice_axpy`) reorders nothing and never contracts to FMA, so every
    /// backend must match scalar **bitwise** on lengths straddling the
    /// 8/4-lane boundaries.
    #[test]
    fn slice_ops_are_bitwise_scalar(
        seed in 0u64..1_000_000,
        len in 1usize..70,
        a in -3.0f32..3.0,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xE1E7);
        let src = random_activations(len, &mut rng);
        let dst0 = random_activations(len, &mut rng);
        let sc = scalar();
        for d in simd_backends() {
            for (name, op) in [
                ("add", 0usize), ("sub", 1), ("axpy", 2),
            ] {
                let mut want = dst0.clone();
                let mut got = dst0.clone();
                match op {
                    0 => { sc.slice_add(&mut want, &src); d.slice_add(&mut got, &src); }
                    1 => { sc.slice_sub(&mut want, &src); d.slice_sub(&mut got, &src); }
                    _ => { sc.slice_axpy(&mut want, a, &src); d.slice_axpy(&mut got, a, &src); }
                }
                let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&wb, &gb, "kernel {} slice_{} diverged bitwise", d.kernel(), name);
            }
        }
    }

    /// The signed window sum reduces every lane in tap order on every
    /// backend, so each must match scalar **bitwise** — on windows of 0 to
    /// 300 lanes (under 8, and off multiples of 8 and 64, where the stripes
    /// end), 0 to 9 taps anywhere in the source, random masks and signs,
    /// and sources holding −0.0 and ±inf.
    #[test]
    fn window_sum_is_bitwise_scalar(
        seed in 0u64..1_000_000,
        len in 0usize..=300,
        ntaps in 0usize..=9,
        slack in 0usize..40,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
        let mut src = random_activations(len + slack, &mut rng);
        for v in src.iter_mut() {
            match rng.gen_range(0..16) {
                0 => *v = -0.0,
                1 => *v = f32::INFINITY,
                2 => *v = f32::NEG_INFINITY,
                _ => {}
            }
        }
        let masks: Vec<u32> =
            (0..len + slack).map(|_| if rng.gen_bool(0.7) { u32::MAX } else { 0 }).collect();
        let taps: Vec<WindowTap> = (0..ntaps)
            .map(|_| WindowTap {
                src: rng.gen_range(0..=slack),
                mask: rng.gen_range(0..=slack),
                negate: rng.gen_bool(0.5),
            })
            .collect();
        let mut want = vec![f32::NAN; len];
        scalar().window_sum(&src, &masks, &taps, &mut want);
        // The scalar loop itself: +0.0, then every tap in order.
        for (i, w) in want.iter().enumerate() {
            let mut acc = 0.0f32;
            for t in &taps {
                let v = f32::from_bits(src[t.src + i].to_bits() & masks[t.mask + i]);
                acc += if t.negate { -v } else { v };
            }
            prop_assert_eq!(acc.to_bits(), w.to_bits(), "scalar lane {} diverged", i);
        }
        for d in simd_backends() {
            let mut got = vec![f32::NAN; len];
            d.window_sum(&src, &masks, &taps, &mut got);
            let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&wb, &gb, "kernel {} window_sum diverged bitwise", d.kernel());
        }
    }

    /// The default dispatch route (`THNT_KERNEL` override or detection —
    /// whatever this process resolved) stays within rounding of the scalar
    /// reference. CI runs the suite once per backend through this test.
    #[test]
    fn default_dispatch_matches_scalar(
        seed in 0u64..1_000_000,
        rows in 1usize..24,
        colsel in 0usize..7,
        rawcols in 1usize..200,
    ) {
        let cols = pick_cols(colsel, rawcols);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC3C3);
        let packed = PackedTernary::from_tensor(&random_ternary(rows, cols, &mut rng));
        let x = random_activations(cols, &mut rng);
        let got = packed.matvec(&x);
        let mut want = vec![0.0f32; rows];
        packed.matvec_into_with(&scalar(), &x, &mut want);
        let tol = row_tol(&x);
        for (a, b) in want.iter().zip(&got) {
            prop_assert!((a - b).abs() <= tol, "default dispatch diverged: {a} vs {b}");
        }
    }
}

/// The column quantize is the scalar rounding formula lane for lane on every
/// backend: over all 2³² f32 bit patterns (as one 64-row word of 1024
/// columns at a time, at scale 1), each backend's planes equal the scalar
/// loop's, and the scalar loop's equal `round().clamp()` by
/// `quantize_i8_is_round_on_every_f32`. Minutes in a debug build; run in
/// release with `--ignored`.
#[test]
#[ignore = "sweeps all 2^32 f32 bit patterns; run in release with --ignored"]
fn column_quantize_is_exact_on_every_f32() {
    const COLS: usize = 1024;
    let block = 64 * COLS;
    let mut m = vec![0.0f32; block];
    let mut want = BitSlicedColumns::zeroed(64, COLS);
    let mut got = want.clone();
    for start in (0..=u32::MAX as u64).step_by(block) {
        for (j, v) in m.iter_mut().enumerate() {
            *v = f32::from_bits((start + j as u64) as u32);
        }
        want.quantize_into_with(&scalar(), &m, 1.0);
        for d in simd_backends() {
            got.quantize_into_with(&d, &m, 1.0);
            assert!(want == got, "kernel {} diverged in block {start:#010x}", d.kernel());
        }
    }
}

/// The SIMD stripes read a tap's whole window through raw pointers, so the
/// safe dispatch method must refuse a window that runs past its source on
/// every backend, before any kernel runs.
#[test]
#[should_panic(expected = "past its source")]
fn window_sum_rejects_a_tap_window_past_its_source() {
    let (src, masks) = (vec![1.0f32; 20], vec![u32::MAX; 20]);
    let tap = WindowTap { src: 5, mask: 0, negate: false };
    let mut out = vec![0.0f32; 16];
    KernelDispatch::get().window_sum(&src, &masks, &[tap], &mut out);
}
