//! Train → freeze → save → serve: the full deployment story, end to end.
//!
//! 1. **Train** a small ST-HybridNet through the paper's three Strassen
//!    phases on a synthetic keyword dataset.
//! 2. **Freeze** leaves genuinely ternary weights; compile them into the
//!    packed add-only engine.
//! 3. **Save** the engine as a `.thnt2` artifact, together with the MFCC
//!    configuration and feature-normalization statistics a device needs.
//! 4. **Serve**: map the artifact back — at this point the training model
//!    is dropped and nothing from the training stack is reconstructed. The
//!    engine *borrows* its bitplanes zero-copy from the aligned v3 bytes,
//!    and a `StreamingDetector` streams audio through it via the
//!    `InferenceBackend` trait. (`examples/serve_sharded.rs` serves many
//!    sessions at once.)
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example serve_artifact
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use thnt::core::{
    AlignedBytes, HybridConfig, InferenceMeta, PackedStHybrid, StHybridNet, StreamingConfig,
    StreamingDetector,
};
use thnt::data::{synthesize_word, WordSignature, LABEL_NAMES};
use thnt::dsp::MfccConfig;
use thnt::nn::InferenceBackend;

fn main() {
    let mut rng = SmallRng::seed_from_u64(7);
    let artifact_path = std::env::temp_dir().join("st_hybrid.thnt2");

    // ---- 1. Train (the only phase that needs the thnt-nn stack). --------
    println!("[1/4] training a small ST-HybridNet...");
    let data = thnt::data::SpeechCommands::generate(thnt::data::DatasetConfig {
        per_class_train: 24,
        per_class_val: 4,
        per_class_test: 4,
        ..thnt::data::DatasetConfig::quick()
    });
    let (xt, yt) = data.features(thnt::data::Split::Train);
    let (xv, yv) = data.features(thnt::data::Split::Val);
    let mut net = StHybridNet::new(HybridConfig::paper(), &mut rng);
    let outcome = thnt::core::train_st_hybrid(
        &mut net,
        None,
        &xt,
        &yt,
        &xv,
        &yv,
        4,
        thnt::nn::StepDecay { initial: 0.004, factor: 0.5, every: 2 },
        3,
    );
    println!("      frozen-ternary val accuracy: {:.1}%", outcome.phase3_val_acc * 100.0);

    // ---- 2. Freeze + compile. -------------------------------------------
    // train_st_hybrid ends in phase 3: weights are already frozen ternary.
    println!("[2/4] compiling the packed add-only engine...");
    let engine = PackedStHybrid::compile(&net);
    println!(
        "      {} adds/sample, {} packed bytes",
        engine.adds_per_sample(),
        engine.packed_bytes()
    );

    // ---- 3. Save the .thnt2 artifact with serving metadata. -------------
    println!("[3/4] saving {}...", artifact_path.display());
    let (mean, std) = data.normalization();
    let meta = InferenceMeta { mfcc: MfccConfig::paper(), norm_mean: mean, norm_std: std };
    engine.save_file(Some(&meta), &artifact_path).expect("save artifact");
    println!(
        "      {} bytes on disk",
        std::fs::metadata(&artifact_path).expect("stat artifact").len()
    );
    // The training model and engine are gone from here on: the serving side
    // starts from the artifact alone.
    drop(net);
    drop(engine);

    // ---- 4. Serve from the mapped artifact. -----------------------------
    println!("[4/4] mapping the artifact and streaming through a detector...");
    // `AlignedBytes` stands in for an mmap'd file: the v3 container is
    // 8-byte aligned, so the engine borrows every bitplane straight out of
    // the buffer — N serving processes mapping the same file share one copy
    // of the weights.
    let blob = AlignedBytes::read_file(&artifact_path).expect("map artifact");
    let (backend, meta) = PackedStHybrid::load_ref(&blob).expect("load artifact");
    let meta = meta.expect("artifact carries serving metadata");
    assert!(backend.bitplanes_borrowed(), "aligned v3 artifacts load zero-copy");
    let config = StreamingConfig { threshold: 0.35, ..StreamingConfig::default() };
    let mut detector = StreamingDetector::from_meta(&backend, config, &meta);
    println!(
        "      backend '{}' (bitplanes borrowed from the blob): {} classes",
        backend.backend_name(),
        backend.num_classes(),
    );

    // Stream a scripted sequence of utterances through the detector.
    let script = [0usize, 5, 3, 9];
    let mut detections = Vec::new();
    let mut samples = 0usize;
    for &class in &script {
        let audio = synthesize_word(&WordSignature::for_word(class), &mut rng);
        samples += audio.len();
        detections.extend(detector.push(&audio));
    }
    println!("      spoke {:?}", script.map(|c| LABEL_NAMES[c]));
    if detections.is_empty() {
        println!("      no detections above threshold (raise the epoch budget for accuracy)");
    }
    for d in &detections {
        println!(
            "      detected '{}' (p={:.2}) at sample {}",
            LABEL_NAMES[d.class], d.confidence, d.at_sample
        );
    }
    println!(
        "      streamed {:.1} s of audio, one inference every {} samples",
        samples as f32 / meta.mfcc.sample_rate,
        config.hop
    );
    std::fs::remove_file(&artifact_path).ok();
}
