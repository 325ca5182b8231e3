//! Property and fixture tests for the quantized popcount engine: the
//! bit-sliced int8 path must track the f32 packed engine within the
//! calibrated quantization error budget on random nets, and a pinned
//! golden fixture guards the requantization math against silent drift.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use thnt_core::{HybridConfig, PackedStHybrid, QuantizedStHybrid, StHybridNet};
use thnt_quant::CalibrationMethod;
use thnt_strassen::Strassenified;
use thnt_tensor::Tensor;

fn frozen_engine(seed: u64, width: usize, tree_depth: usize) -> PackedStHybrid<'static> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = StHybridNet::new(
        HybridConfig { ds_blocks: 1, width, proj_dim: 6, tree_depth, ..HybridConfig::paper() },
        &mut rng,
    );
    net.activate_quantization();
    net.freeze_ternary();
    PackedStHybrid::compile(&net)
}

fn random_batch(n: usize, seed: u64) -> Tensor {
    let mut rng = SmallRng::seed_from_u64(seed);
    Tensor::from_vec(
        (0..n * 49 * 10).map(|_| rng.gen_range(-1.5f32..1.5)).collect(),
        &[n, 1, 49, 10],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On random frozen nets, the quantized forward stays within the
    /// calibrated int8 error budget of the f32 packed engine. Full-coverage
    /// percentile calibration bounds every observed activation, so the
    /// per-step rounding error is at most half a quantization step and the
    /// compounded logit error stays well inside a small absolute-plus-
    /// relative envelope.
    #[test]
    fn quantized_forward_matches_f32_within_budget(
        seed in 0u64..10_000,
        width in 4usize..10,
        tree_depth in 1usize..3,
        batch_seed in 0u64..10_000,
    ) {
        let engine = frozen_engine(seed, width, tree_depth);
        let batch = random_batch(5, batch_seed);
        let quantized = QuantizedStHybrid::calibrate_and_compile(
            &engine,
            &batch,
            CalibrationMethod::percentile(100.0),
        ).unwrap();
        let f = engine.forward(&batch);
        let q = quantized.forward(&batch);
        let max_ref = f.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let tol = 0.02 + 0.1 * max_ref;
        for (i, (&a, &b)) in f.data().iter().zip(q.data().iter()).enumerate() {
            prop_assert!(
                (a - b).abs() <= tol,
                "logit {i}: f32 {a} vs quantized {b} exceeds budget {tol}"
            );
        }
    }

    /// Calibration is a pure function of (engine, batch, method): two runs
    /// produce bit-identical schedules, and compiling them yields equal
    /// engines.
    #[test]
    fn calibration_and_compilation_are_deterministic(
        seed in 0u64..10_000,
        batch_seed in 0u64..10_000,
    ) {
        let engine = frozen_engine(seed, 6, 1);
        let batch = random_batch(3, batch_seed);
        let s1 = QuantizedStHybrid::calibrate(&engine, &batch, CalibrationMethod::default());
        let s2 = QuantizedStHybrid::calibrate(&engine, &batch, CalibrationMethod::default());
        prop_assert_eq!(&s1, &s2);
        let q1 = QuantizedStHybrid::compile(engine.clone(), s1).unwrap();
        let q2 = QuantizedStHybrid::compile(engine.clone(), s2).unwrap();
        prop_assert_eq!(q1, q2);
    }
}

/// Golden fixture: a seeded engine, a fixed input, and the quantized
/// logits pinned at generation time. Any change to the requantization
/// math — scale folding, rounding mode, plane packing, integer
/// accumulation — shifts these values by far more than the tolerance,
/// which only absorbs last-ulp libm variation in the (f32) tree routing.
#[test]
fn golden_fixture_guards_requantization_drift() {
    let engine = frozen_engine(42, 8, 2);
    let calib = random_batch(4, 4242);
    let quantized =
        QuantizedStHybrid::calibrate_and_compile(&engine, &calib, CalibrationMethod::default())
            .unwrap();
    let x = random_batch(2, 777);
    let got = quantized.forward(&x);
    let golden: [f32; 24] = GOLDEN_LOGITS;
    assert_eq!(got.data().len(), golden.len(), "fixture shape changed");
    for (i, (&g, &want)) in got.data().iter().zip(golden.iter()).enumerate() {
        assert!(
            (g - want).abs() <= 1e-5 + 1e-5 * want.abs(),
            "logit {i} drifted: got {g}, golden {want}"
        );
    }
}

/// Pinned by running the fixture above once at introduction time.
const GOLDEN_LOGITS: [f32; 24] = [
    -0.43705407,
    0.03706991,
    -0.19958143,
    -0.21184845,
    -0.04251392,
    0.15279312,
    0.03724861,
    0.0036330037,
    0.15269573,
    -0.20905343,
    0.03187678,
    -0.18304089,
    -0.4746417,
    0.018927421,
    -0.18312407,
    -0.23171163,
    -0.07635634,
    0.1725152,
    0.0177288,
    -0.013269219,
    0.17348807,
    -0.21551155,
    0.029336987,
    -0.1503013,
];
