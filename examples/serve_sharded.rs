//! Many concurrent audio streams sharded across worker threads: the
//! multi-threaded serving layer end to end.
//!
//! 1. Freeze two (randomly initialised) ST-HybridNets — a 12-class keyword
//!    spotter at the paper's size and a slimmer 6-class verifier — save
//!    each as a `.thnt2` artifact, and load them back (the spotter
//!    zero-copy from a mapped blob). Training is
//!    `examples/serve_artifact.rs`'s story; here the subject is scaling.
//! 2. Stand up a `ShardedStreamServer`: sessions pin to one of N worker
//!    shards by `session_id % N`, each shard runs its own shard engine on a
//!    worker thread behind a bounded channel, and **both models are shared
//!    across every shard by reference** — one mapped artifact serves all
//!    threads with zero duplication.
//! 3. Feed interleaved, unevenly-chunked synthetic speech. Full batches
//!    flush at `max_batch`; partial batches flush once `flush_deadline`
//!    elapses — no caller ever has to tick.
//! 4. Prove the point of the design: every (shard × model) ledger cell
//!    reconciles, and each session's detections are **byte-identical** to
//!    an independent single-stream detector — sharding changes throughput,
//!    never results. Failures are typed values: a closed session and an
//!    unknown model come back as `ServeError`s, not panics.
//!
//! Run with (shard count also respects `THNT_SERVE_SHARDS`):
//!
//! ```text
//! cargo run --release --example serve_sharded
//! ```

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use thnt::core::{
    save_thnt2_with, AlignedBytes, HybridConfig, InferenceMeta, ModelId, ModelSpec, PackedStHybrid,
    SaveOptions, ServeConfig, SessionId, ShardedStreamServer, StHybridNet, StreamingConfig,
    StreamingDetector,
};
use thnt::data::{synthesize_word, WordSignature};
use thnt::dsp::MfccConfig;
use thnt::nn::InferenceBackend;
use thnt::strassen::Strassenified;

const SPOTTER_SESSIONS: usize = 8;
const VERIFIER_SESSIONS: usize = 4;

fn frozen_engine(config: HybridConfig, rng: &mut SmallRng) -> PackedStHybrid<'static> {
    let mut net = StHybridNet::new(config, rng);
    net.activate_quantization();
    net.freeze_ternary();
    PackedStHybrid::compile(&net)
}

fn main() {
    let mut rng = SmallRng::seed_from_u64(23);

    // ---- 1. Two frozen models, shipped and loaded as artifacts. ----------
    let spotter = frozen_engine(HybridConfig::paper(), &mut rng);
    let verifier = frozen_engine(
        HybridConfig {
            width: 32,
            proj_dim: 24,
            tree_depth: 1,
            num_classes: 6,
            tree_r: 6,
            ..HybridConfig::paper()
        },
        &mut rng,
    );
    let meta = InferenceMeta {
        mfcc: MfccConfig::paper(),
        norm_mean: vec![0.0; 10],
        norm_std: vec![4.0; 10],
    };
    let spotter_path = std::env::temp_dir().join("serve_sharded_spotter.thnt2");
    let file = std::fs::File::create(&spotter_path).expect("create spotter artifact");
    save_thnt2_with(&spotter, Some(&meta), SaveOptions::v3(), file).expect("save spotter");
    drop(spotter);
    let verifier_path = std::env::temp_dir().join("serve_sharded_verifier.thnt2");
    let file = std::fs::File::create(&verifier_path).expect("create verifier artifact");
    save_thnt2_with(&verifier, Some(&meta), SaveOptions::v3_rle(), file).expect("save verifier");
    drop(verifier);

    let spotter_blob = AlignedBytes::read_file(&spotter_path).expect("map spotter artifact");
    let (spotter, spotter_meta) = PackedStHybrid::load_ref(&spotter_blob).expect("load spotter");
    let spotter_meta = spotter_meta.expect("spotter artifact carries serving metadata");
    let (verifier, verifier_meta) =
        PackedStHybrid::load_file(&verifier_path).expect("load verifier");
    let verifier_meta = verifier_meta.expect("verifier artifact carries serving metadata");
    std::fs::remove_file(&spotter_path).ok();
    std::fs::remove_file(&verifier_path).ok();

    // ---- 2. One sharded server: N worker threads, models shared. ---------
    let shards = ServeConfig::shards_from_env(4);
    let config = StreamingConfig { threshold: 0.3, ..StreamingConfig::default() };
    let serve = ServeConfig {
        max_batch: 32,
        flush_deadline: Some(Duration::from_millis(5)),
        ..ServeConfig::with_shards(shards)
    };
    // `dyn InferenceBackend + Sync` erases the two engines' types so one
    // spec list hosts both; `Sync` is what lets every shard borrow them.
    let models: Vec<ModelSpec<'_, dyn InferenceBackend + Sync>> = vec![
        ModelSpec::from_meta(&spotter, &spotter_meta),
        ModelSpec::from_meta(&verifier, &verifier_meta),
    ];
    println!(
        "sharded server: {shards} worker shards, {} models shared by reference \
         (spotter bitplanes borrowed zero-copy: {})",
        models.len(),
        spotter.bitplanes_borrowed(),
    );

    // Each session speaks its own scripted sequence of synthetic words —
    // generated up front so the serving loop is pure serving.
    let streams: Vec<Vec<f32>> = (0..SPOTTER_SESSIONS + VERIFIER_SESSIONS)
        .map(|k| {
            let mut audio = Vec::new();
            for w in 0..4 {
                audio.extend(synthesize_word(&WordSignature::for_word((k + w) % 10), &mut rng));
            }
            audio
        })
        .collect();

    let (detections, sessions, snapshots, latency) =
        ShardedStreamServer::run(models, config, serve, |server| {
            let spotter_id = server.default_model();
            let verifier_id = ModelId::new(1);
            let sessions: Vec<(SessionId, ModelId)> = (0..streams.len())
                .map(|k| {
                    let model = if k < SPOTTER_SESSIONS { spotter_id } else { verifier_id };
                    (server.try_open_model(model).expect("open session"), model)
                })
                .collect();
            for (id, _) in &sessions {
                println!("  {id} → shard {}", server.shard_of(*id));
            }

            // ---- 3. Interleave uneven chunks; shards batch on their own. -
            let mut offsets = vec![0usize; sessions.len()];
            let mut detections = Vec::new();
            while offsets.iter().zip(&streams).any(|(&o, s)| o < s.len()) {
                for (k, (id, _)) in sessions.iter().enumerate() {
                    let remaining = streams[k].len() - offsets[k];
                    if remaining == 0 {
                        continue;
                    }
                    let chunk = rng.gen_range(2_000..12_000usize).min(remaining);
                    server
                        .try_feed(*id, &streams[k][offsets[k]..offsets[k] + chunk])
                        .expect("feed open session with finite audio");
                    offsets[k] += chunk;
                }
                // No tick: full batches flush at max_batch, partial ones at
                // the 5 ms deadline. Just collect what has already landed.
                detections.extend(server.drain());
            }
            // The final barrier: every window fed above is served past it.
            detections.extend(server.flush());

            // ---- 4a. Per-shard view while the workers are still up. ------
            let snapshots = server.shard_snapshots().expect("every shard is alive");
            for snap in &snapshots {
                let lat = snap.latency.summary();
                println!(
                    "  shard {}: {} sessions · {} windows served · p50 {:>4} µs · p99 {:>4} µs",
                    snap.shard,
                    snap.sessions,
                    snap.stats().windows_served,
                    lat.p50_ns / 1_000,
                    lat.p99_ns / 1_000,
                );
            }

            // Failures are typed values, not panics: closed sessions and
            // unknown model handles turn into `Err`s the caller can route
            // per connection.
            let (closed, _) = sessions[0];
            server.close(closed);
            let err = server.try_feed(closed, &[0.0; 4]).expect_err("closed sessions are refused");
            println!("feeding a closed session: {err}");
            let err =
                server.try_open_model(ModelId::new(99)).expect_err("unknown model is refused");
            println!("opening a session on an unregistered model: {err}");
            (detections, sessions, snapshots, server.latency())
        });

    // ---- 4b. Every shard × model ledger cell reconciles. -----------------
    let cells: Vec<_> = snapshots.iter().flat_map(|snap| &snap.per_model).collect();
    for cell in &cells {
        assert_eq!(cell.windows_fed, cell.windows_served, "the final flush serves every window");
    }
    let served: u64 = cells.iter().map(|s| s.windows_served).sum();
    assert_eq!(latency.count, served, "every served window must appear in the latency histogram");
    println!(
        "ledger: {served} windows fed == served across {} shard × model cells; \
         aggregate p50 {} µs, p99 {} µs",
        cells.len(),
        latency.p50_ns / 1_000,
        latency.p99_ns / 1_000,
    );

    for d in detections.iter().take(6) {
        println!(
            "  {} detected class {} (p={:.2}) at sample {}",
            d.session, d.detection.class, d.detection.confidence, d.detection.at_sample
        );
    }
    if detections.len() > 6 {
        println!("  … and {} more", detections.len() - 6);
    }
    if detections.is_empty() {
        println!("  (no detections above threshold — the weights are untrained)");
    }

    // ---- 4c. Sharding never changes results: every session must match an
    // independent single-stream detector byte for byte, whatever shard it
    // landed on and however the deadline sliced its batches. --------------
    for (k, (id, model)) in sessions.iter().enumerate() {
        let (backend, meta): (&dyn InferenceBackend, _) =
            if model.raw() == 0 { (&spotter, &spotter_meta) } else { (&verifier, &verifier_meta) };
        let mut det = StreamingDetector::from_meta(backend, config, meta);
        let want = det.push(&streams[k]);
        let got: Vec<_> =
            detections.iter().filter(|d| d.session == *id).map(|d| d.detection.clone()).collect();
        assert_eq!(got, want, "session {k} diverged from an independent detector");
    }
    println!(
        "equivalence check: all {} sessions match independent detectors across {shards} shards ✓",
        sessions.len()
    );
}
