//! Equivalence proof for the multi-session serving layer: batching across
//! sessions and sharding them across workers must never change results. N
//! sessions fed interleaved, unevenly-chunked audio through the front door
//! — including sessions joining and leaving mid-stream, at any shard count
//! (one included) — must produce **exactly** the detections of N
//! independent [`StreamingDetector`]s over the same per-session streams.
//!
//! This holds because every backend computes each batch row independently
//! of its neighbours and one shard serves each session in feed order; the
//! proptests hammer that contract with randomised schedules, and a
//! deterministic case checks it on the real packed engine (whose
//! sample-tiled kernels are the batching the server exists to feed).

mod common;

use std::collections::HashMap;

use common::{small_mfcc, Probe, HOPS};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use thnt_core::{
    Detection, HybridConfig, ModelSpec, PackedStHybrid, ServeConfig, SessionId,
    ShardedStreamServer, StHybridNet, StreamingConfig, StreamingDetector,
};
use thnt_strassen::Strassenified;

/// A 2 kHz chirp-plus-noise stream matching `small_mfcc`'s clock.
fn session_stream(len: usize, seed: u64) -> Vec<f32> {
    common::chirp_stream(len, seed, 2_000.0, 90.0, 70.0)
}

/// What one sharded replay produces: detections per session, the session ids
/// (None for sessions that never joined), the streams, and the early-leave
/// cutoffs — everything the caller needs to re-derive the expected output.
type ShardedScheduleRun =
    (HashMap<SessionId, Vec<Detection>>, Vec<Option<SessionId>>, Vec<Vec<f32>>, Vec<usize>);

/// The post-processing every schedule here runs, at stream hop `hop`.
fn config(hop: usize) -> StreamingConfig {
    StreamingConfig { hop, smoothing: 3, threshold: 0.15, suppress_trailing: 2 }
}

/// Runs one randomized schedule against a sharded server at stream hop
/// `hop` and returns the per-session detections. The schedule is a pure
/// function of `seed`, so two calls with different `shards` replay
/// identical commands.
fn run_sharded_schedule(
    seed: u64,
    num_sessions: usize,
    shards: usize,
    hop: usize,
) -> ShardedScheduleRun {
    let backend = Probe { classes: 8 };
    let config = config(hop);
    let mean = vec![0.2; 10];
    let std = vec![1.5; 10];
    let mut rng = SmallRng::seed_from_u64(seed);

    let streams: Vec<Vec<f32>> = (0..num_sessions)
        .map(|k| session_stream(rng.gen_range(3_000..7_000), seed ^ (k as u64) << 13))
        .collect();
    let cutoffs: Vec<usize> = streams
        .iter()
        .map(|s| if rng.gen_range(0..3usize) == 0 { rng.gen_range(0..s.len()) } else { s.len() })
        .collect();
    let join_round: Vec<usize> = (0..num_sessions).map(|_| rng.gen_range(0..4usize)).collect();
    // Deterministic mode plus a randomized size trigger: max_batch changes
    // *when* batches flush, which must never change *what* is detected.
    let serve =
        ServeConfig { max_batch: rng.gen_range(0..5usize), ..ServeConfig::deterministic(shards) };

    let spec = ModelSpec::new(&backend, small_mfcc(), mean, std);
    let (served, ids) = ShardedStreamServer::run(vec![spec], config, serve, |server| {
        let mut ids: Vec<Option<SessionId>> = vec![None; num_sessions];
        let mut fed = vec![0usize; num_sessions];
        let mut served: HashMap<SessionId, Vec<Detection>> = HashMap::new();
        let collect = |server: &mut ShardedStreamServer,
                       served: &mut HashMap<SessionId, Vec<Detection>>| {
            for d in server.flush() {
                served.entry(d.session).or_default().push(d.detection);
            }
        };
        let mut round = 0usize;
        loop {
            let mut progressed = false;
            for k in 0..num_sessions {
                if round >= join_round[k] && ids[k].is_none() && fed[k] == 0 {
                    ids[k] = Some(server.try_open().unwrap());
                }
                let Some(id) = ids[k] else { continue };
                if fed[k] >= cutoffs[k] {
                    continue;
                }
                let chunk = rng.gen_range(1..900usize).min(cutoffs[k] - fed[k]);
                server.try_feed(id, &streams[k][fed[k]..fed[k] + chunk]).unwrap();
                fed[k] += chunk;
                progressed = true;
                if fed[k] >= cutoffs[k] && rng.gen_range(0..2usize) == 0 {
                    // Leave mid-stream: barrier-flush pending windows, close.
                    collect(server, &mut served);
                    server.close(id);
                }
                if rng.gen_range(0..3usize) == 0 {
                    collect(server, &mut served);
                }
            }
            if !progressed && ids.iter().all(|id| id.is_some()) {
                break;
            }
            round += 1;
        }
        collect(server, &mut served);
        (served, ids)
    });
    (served, ids, streams, cutoffs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The sharded server over {1, 2, 4, 7} shards (or the
    /// `THNT_SERVE_SHARDS` override), driven by randomized schedules —
    /// staggered joins, uneven chunks, early leaves (a leaving session's
    /// stream is truncated at its cutoff for the reference detector too),
    /// random barriers, random size triggers, a hop off or on the frame
    /// stride — must detect exactly like independent detectors, bit-equal
    /// confidences included.
    #[test]
    fn sharded_sessions_match_independent_detectors(
        seed in 0u64..10_000,
        num_sessions in 2usize..6,
        shard_choice in 0usize..4,
        hop_choice in 0usize..2,
    ) {
        let backend = Probe { classes: 8 };
        let hop = HOPS[hop_choice];
        let shards = ServeConfig::shards_from_env([1, 2, 4, 7][shard_choice]);
        let (mut served, ids, streams, cutoffs) =
            run_sharded_schedule(seed, num_sessions, shards, hop);
        for k in 0..num_sessions {
            let mut det = StreamingDetector::with_mfcc(
                &backend,
                config(hop),
                small_mfcc(),
                vec![0.2; 10],
                vec![1.5; 10],
            );
            let want = det.push(&streams[k][..cutoffs[k]]);
            let got = ids[k].and_then(|id| served.remove(&id)).unwrap_or_default();
            prop_assert_eq!(
                got, want,
                "session {} diverged (seed {}, {} shards, hop {})", k, seed, shards, hop
            );
        }
        prop_assert!(served.is_empty(), "detections for unknown sessions");
    }

    /// Shard-count invariance, stated directly: replaying one schedule at
    /// every shard count in {1, 2, 4, 7} yields identical per-session
    /// detection maps (session ids are assigned by the schedule, so the
    /// maps are comparable verbatim).
    #[test]
    fn detections_are_invariant_across_shard_counts(
        seed in 0u64..10_000,
        num_sessions in 2usize..6,
        hop_choice in 0usize..2,
    ) {
        let hop = HOPS[hop_choice];
        let (reference, _, _, _) = run_sharded_schedule(seed, num_sessions, 1, hop);
        for shards in [2usize, 4, 7] {
            let (got, _, _, _) = run_sharded_schedule(seed, num_sessions, shards, hop);
            prop_assert_eq!(
                &got, &reference,
                "{} shards diverged (seed {}, hop {})", shards, seed, hop
            );
        }
    }
}

/// The sharded equivalence on the real packed add-only engine, shared by
/// reference across 4 shards: 8 sessions must detect exactly like 8
/// independent detectors over the same engine. The hop of 8000 is 25 of the
/// paper front end's 320-sample strides, so every window after a session's
/// first shares 24 frames with the one before.
#[test]
fn packed_engine_sharded_sessions_match_independent_detectors() {
    let mut rng = SmallRng::seed_from_u64(42);
    let mut net = StHybridNet::new(
        HybridConfig {
            ds_blocks: 1,
            width: 8,
            proj_dim: 6,
            tree_depth: 1,
            ..HybridConfig::paper()
        },
        &mut rng,
    );
    net.activate_quantization();
    net.freeze_ternary();
    let engine = PackedStHybrid::compile(&net);

    let config = StreamingConfig { hop: 8_000, smoothing: 2, threshold: 0.0, suppress_trailing: 2 };
    let mean = vec![0.0; 10];
    let std = vec![4.0; 10];
    let streams: Vec<Vec<f32>> = (0..8)
        .map(|k| {
            let mut srng = SmallRng::seed_from_u64(100 + k);
            thnt_tensor::gaussian(&[40_000], 0.0, 0.3, &mut srng).into_vec()
        })
        .collect();

    let shards = ServeConfig::shards_from_env(4);
    let spec = ModelSpec::new(&engine, thnt_dsp::MfccConfig::paper(), mean.clone(), std.clone());
    let (mut served, ids) = ShardedStreamServer::run(
        vec![spec],
        config,
        ServeConfig::deterministic(shards),
        |server| {
            let ids: Vec<SessionId> = (0..8).map(|_| server.try_open().unwrap()).collect();
            let mut served: HashMap<SessionId, Vec<Detection>> = HashMap::new();
            for (round, chunk_len) in [7_000usize, 9_000, 11_000, 13_000].iter().enumerate() {
                for (k, id) in ids.iter().enumerate() {
                    let start = [7_000usize, 9_000, 11_000, 13_000][..round].iter().sum::<usize>();
                    let end = (start + chunk_len).min(streams[k].len());
                    if start < end {
                        server.try_feed(*id, &streams[k][start..end]).unwrap();
                    }
                }
                for d in server.flush() {
                    served.entry(d.session).or_default().push(d.detection);
                }
            }
            (served, ids)
        },
    );

    let mut any = false;
    for (k, id) in ids.iter().enumerate() {
        let mut det = StreamingDetector::new(&engine, config, mean.clone(), std.clone());
        let want = det.push(&streams[k]);
        any |= !want.is_empty();
        assert_eq!(served.remove(id).unwrap_or_default(), want, "session {k} diverged");
    }
    assert!(any, "no session detected anything — the equivalence check was vacuous");
}
