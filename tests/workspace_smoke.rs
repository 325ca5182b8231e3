//! Workspace smoke test: asserts the `thnt` umbrella crate's re-exports
//! resolve and interoperate, so a rename or dropped `pub use` in any member
//! crate fails here before anything subtler does.

use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn umbrella_reexports_resolve() {
    // One load-bearing type or function per re-exported crate.
    let t: thnt::tensor::Tensor = thnt::tensor::Tensor::zeros(&[2, 3]);
    assert_eq!(t.dims(), &[2, 3]);

    let mfcc = thnt::dsp::Mfcc::new(thnt::dsp::MfccConfig::paper());
    assert_eq!(mfcc.compute(&vec![0.0f32; 16_000]).dims(), &[49, 10]);

    let config = thnt::data::DatasetConfig::tiny();
    assert_eq!(config.per_class_train, 6);

    let mut rng = SmallRng::seed_from_u64(0);
    let dense = thnt::nn::Dense::new(4, 2, &mut rng);
    let _model: Box<dyn thnt::nn::Layer> = Box::new(dense);

    let report = thnt::strassen::CostReport::default();
    assert_eq!(report.total_ops(), 0);

    let tree_config = thnt::bonsai::BonsaiConfig { input_dim: 4, ..Default::default() };
    let _tree = thnt::bonsai::BonsaiTree::new(tree_config, &mut rng);

    assert_eq!(thnt::models::BaselineKind::all().len(), 7);

    let profile = thnt::quant::ActivationProfile::new("fc", 32, 8);
    assert_eq!(thnt::quant::activation_footprint_bytes(&[profile]), 32);

    let schedule = thnt::prune::PruneSchedule::ramp(0.5, 100, 10);
    assert_eq!(schedule.final_sparsity, 0.5);

    let hybrid_config = thnt::core::HybridConfig::paper();
    let _net = thnt::core::HybridNet::new(hybrid_config, &mut rng);
}

#[test]
fn packed_engine_reexports_resolve() {
    use thnt::nn::Model;
    use thnt::strassen::Strassenified;

    // The packed deployment pipeline is reachable through the umbrella:
    // freeze a tiny ST-HybridNet, compile it, and run add-only inference.
    let mut rng = SmallRng::seed_from_u64(1);
    let cfg = thnt::core::HybridConfig {
        ds_blocks: 1,
        width: 8,
        proj_dim: 6,
        tree_depth: 1,
        ..thnt::core::HybridConfig::paper()
    };
    let mut net = thnt::core::StHybridNet::new(cfg, &mut rng);
    net.activate_quantization();
    net.freeze_ternary();
    let engine = thnt::core::PackedStHybrid::compile(&net);
    let x = thnt::tensor::Tensor::zeros(&[1, 1, 49, 10]);
    let packed = engine.forward(&x);
    let dense = net.forward(&x, false);
    thnt::tensor::assert_close(packed.data(), dense.data(), 1e-4, 1e-4);
    assert!(engine.adds_per_sample() > 0);

    // The bitplane primitive is also exported at the strassen level.
    let w = thnt::tensor::Tensor::from_vec(vec![1.0, 0.0, -1.0, 1.0], &[2, 2]);
    let packed = thnt::strassen::PackedTernary::from_tensor(&w);
    assert_eq!(packed.add_count(), 3);
}

#[test]
fn reexported_crates_share_types() {
    // The umbrella's members must agree on the same `Tensor` type: a tensor
    // built through `thnt::tensor` flows into `thnt::nn` unchanged.
    let mut rng = SmallRng::seed_from_u64(1);
    let x = thnt::tensor::gaussian(&[3, 4], 0.0, 1.0, &mut rng);
    let mut dense = thnt::nn::Dense::new(4, 2, &mut rng);
    let y = thnt::nn::Layer::forward(&mut dense, &x, false);
    assert_eq!(y.dims(), &[3, 2]);
}
