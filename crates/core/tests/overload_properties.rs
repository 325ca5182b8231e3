//! Overload-behaviour proofs for the bounded serving layer, run through the
//! front door in deterministic mode (`THNT_SERVE_SHARDS` picks the shard
//! count; default 1).
//!
//! Two properties pin the backpressure machinery down:
//!
//! 1. **Exact accounting.** Under any queue bound, overflow policy, tick
//!    budget, and randomised schedule of feeds/flushes/closes, every window
//!    a feed ever made due is either still pending or in exactly one
//!    terminal [`ServerStats`] counter of its shard × model cell —
//!    `windows_fed == windows_accounted() + pending` in every cell after
//!    every single operation.
//! 2. **DropOldest is honest shedding.** A `DropOldest`-bounded server's
//!    detections equal an unbounded pipeline run over exactly the windows
//!    that survived admission — eviction only removes work, it never
//!    perturbs the windows that remain (byte-identical detections, proven
//!    against a from-scratch reimplementation of the MFCC → infer → softmax
//!    → vote pipeline).
//!
//! [`ServerStats`]: thnt_core::ServerStats

mod common;

use std::collections::{HashMap, VecDeque};

use common::{
    assert_cells_reconcile, chirp_stream, small_mfcc, window_ends, PipelineOracle, Probe, HOPS,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use thnt_core::{
    Detection, ModelSpec, OverflowPolicy, ServeConfig, ServeError, SessionId, ShardedStreamServer,
    StreamingConfig,
};

const WINDOW: usize = 2_000;
const COEFFS: usize = 10;

fn config(hop: usize) -> StreamingConfig {
    StreamingConfig { hop, smoothing: 2, threshold: 0.05, suppress_trailing: 2 }
}

fn norm_mean() -> Vec<f32> {
    vec![0.2; COEFFS]
}

fn norm_std() -> Vec<f32> {
    vec![1.5; COEFFS]
}

/// Barrier-only flushing over `THNT_SERVE_SHARDS` shards (default 1).
fn deterministic() -> ServeConfig {
    ServeConfig::deterministic(ServeConfig::shards_from_env(1))
}

fn spec(backend: &Probe) -> ModelSpec<'_, Probe> {
    ModelSpec::new(backend, small_mfcc(), norm_mean(), norm_std())
}

/// The shared from-scratch pipeline oracle, bound to this file's fixtures.
fn oracle(classes: usize, hop: usize) -> PipelineOracle {
    PipelineOracle::new(classes, small_mfcc(), config(hop), norm_mean(), norm_std())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 1: exact accounting under arbitrary bounds, policies,
    /// budgets, hops and schedules — including feeds to closed sessions,
    /// which must move nothing.
    #[test]
    fn stats_reconcile_after_every_operation(
        seed in 0u64..10_000,
        bound in 0usize..4,
        policy_idx in 0usize..2,
        budget in 0usize..5,
        hop_choice in 0usize..2,
    ) {
        let hop = HOPS[hop_choice];
        let policy = [OverflowPolicy::DropOldest, OverflowPolicy::DropNewest][policy_idx];
        let backend = Probe { classes: 8 };
        let serve =
            ServeConfig { queue_bound: bound, overflow: policy, tick_budget: budget, ..deterministic() };
        let stats = ShardedStreamServer::run(vec![spec(&backend)], config(hop), serve, |server| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut ids: Vec<SessionId> = Vec::new();
            let mut closed: Vec<SessionId> = Vec::new();
            for _ in 0..120 {
                match rng.gen_range(0..10usize) {
                    0 => {
                        ids.push(server.try_open().expect("no session limit is set"));
                    }
                    1 if !ids.is_empty() => {
                        let id = ids.swap_remove(rng.gen_range(0..ids.len()));
                        prop_assert!(server.close(id));
                        closed.push(id);
                    }
                    2 => {
                        server.flush();
                    }
                    3 if !closed.is_empty() => {
                        // Feeding a closed session: typed error, nothing moves.
                        let before = server.stats();
                        let id = closed[rng.gen_range(0..closed.len())];
                        prop_assert_eq!(
                            server.try_feed(id, &[0.5; 100]),
                            Err(ServeError::UnknownSession(id))
                        );
                        prop_assert_eq!(server.stats(), before);
                    }
                    _ if !ids.is_empty() => {
                        let id = ids[rng.gen_range(0..ids.len())];
                        let len = rng.gen_range(1..2_000usize);
                        let audio = chirp_stream(len, rng.gen(), 2_000.0, 90.0, 70.0);
                        let before = server.stats();
                        server.try_feed(id, &audio).expect("open session, finite audio");
                        let after = server.stats();
                        // At most len/hop + 2 windows can become due in one
                        // call; under DropOldest an admitted window also
                        // counts its eviction, so `dropped` is bounded
                        // separately from `fed`.
                        let due_max = (len / hop + 2) as u64;
                        let fed = after.windows_fed - before.windows_fed;
                        let dropped = after.windows_dropped - before.windows_dropped;
                        prop_assert!(
                            fed <= due_max && dropped <= due_max,
                            "{len} samples made {fed} windows due and dropped {dropped}"
                        );
                    }
                    _ => {}
                }
                assert_cells_reconcile(server, "after an operation");
            }
            // Drain: after enough flushes nothing is pending and the books
            // close.
            while server.pending_windows() > 0 {
                server.flush();
            }
            server.stats()
        });
        prop_assert_eq!(stats.windows_fed, stats.windows_accounted());
        prop_assert_eq!(stats.windows_rejected, 0, "no policy rejects windows");
        if bound == 0 {
            prop_assert_eq!(stats.windows_dropped, 0);
        }
        if budget == 0 {
            prop_assert_eq!(stats.windows_shed, 0);
        }
    }

    /// Property 2: a `DropOldest`-bounded server detects exactly what the
    /// unbounded pipeline detects on the surviving windows. Admission is
    /// simulated window-for-window alongside the server; the survivors are
    /// then pushed through the independent [`PipelineOracle`], which
    /// extracts every window from scratch — so at a hop on the frame
    /// stride this also checks the server's shared frames across evictions.
    #[test]
    fn drop_oldest_equals_unbounded_pipeline_on_surviving_windows(
        seed in 0u64..10_000,
        bound in 1usize..4,
        hop_choice in 0usize..2,
    ) {
        let hop = HOPS[hop_choice];
        let backend = Probe { classes: 8 };
        let serve =
            ServeConfig { queue_bound: bound, overflow: OverflowPolicy::DropOldest, ..deterministic() };
        let mut rng = SmallRng::seed_from_u64(seed);
        let num_sessions = rng.gen_range(1..4usize);
        let streams: Vec<Vec<f32>> = (0..num_sessions)
            .map(|k| chirp_stream(rng.gen_range(4_000..8_000), seed ^ ((k as u64) << 11), 2_000.0, 90.0, 70.0))
            .collect();

        // Parallel admission simulation: per-session stream so far +
        // bounded queue, each due window sliced out of the whole stream.
        struct Sim {
            audio: Vec<f32>,
            queue: VecDeque<(Vec<f32>, usize)>,
            survivors: Vec<(Vec<f32>, usize)>,
        }
        let mut sims: Vec<Sim> = (0..num_sessions)
            .map(|_| Sim { audio: Vec::new(), queue: VecDeque::new(), survivors: Vec::new() })
            .collect();
        let admit = |sim: &mut Sim, audio: &[f32]| {
            let before = sim.audio.len();
            sim.audio.extend_from_slice(audio);
            for end in window_ends(WINDOW, hop, before, sim.audio.len()) {
                if sim.queue.len() >= bound {
                    sim.queue.pop_front(); // DropOldest admission
                }
                sim.queue.push_back((sim.audio[end - WINDOW..end].to_vec(), end));
            }
        };

        let (mut served, ids, stats) =
            ShardedStreamServer::run(vec![spec(&backend)], config(hop), serve, |server| {
                let ids: Vec<SessionId> =
                    streams.iter().map(|_| server.try_open().expect("open")).collect();
                let mut fed = vec![0usize; num_sessions];
                let mut served: HashMap<SessionId, Vec<Detection>> = HashMap::new();
                let mut drain = |server: &mut ShardedStreamServer, sims: &mut Vec<Sim>| {
                    for d in server.flush() {
                        served.entry(d.session).or_default().push(d.detection);
                    }
                    for sim in sims.iter_mut() {
                        sim.survivors.extend(sim.queue.drain(..));
                    }
                };
                while fed.iter().zip(&streams).any(|(&f, s)| f < s.len()) {
                    for k in 0..num_sessions {
                        if fed[k] >= streams[k].len() {
                            continue;
                        }
                        let chunk = rng.gen_range(1..1_200usize).min(streams[k].len() - fed[k]);
                        let audio = &streams[k][fed[k]..fed[k] + chunk];
                        server.try_feed(ids[k], audio).expect("open session, finite audio");
                        admit(&mut sims[k], audio);
                        fed[k] += chunk;
                        if rng.gen_range(0..3usize) == 0 {
                            drain(server, &mut sims);
                        }
                    }
                }
                // A final burst bigger than any bound guarantees the eviction
                // path actually ran — with it, overflow is deterministic, not
                // seed-luck.
                for (k, id) in ids.iter().enumerate() {
                    let tail = chirp_stream(4_000, seed ^ 0xBEEF ^ (k as u64), 2_000.0, 90.0, 70.0);
                    server.try_feed(*id, &tail).expect("burst feed");
                    admit(&mut sims[k], &tail);
                }
                drain(server, &mut sims);
                (served, ids, server.stats())
            });

        prop_assert_eq!(stats.windows_fed, stats.windows_accounted());
        let simulated_survivors: u64 =
            sims.iter().map(|s| s.survivors.len() as u64).sum();
        prop_assert_eq!(stats.windows_served, simulated_survivors, "admission drifted");
        prop_assert!(stats.windows_dropped > 0, "bound {} never overflowed", bound);

        for (k, id) in ids.iter().enumerate() {
            let mut oracle = oracle(8, hop);
            let want: Vec<Detection> = sims[k]
                .survivors
                .iter()
                .filter_map(|(w, at)| oracle.detect(w, *at))
                .collect();
            let got = served.remove(id).unwrap_or_default();
            prop_assert_eq!(
                got, want,
                "session {} bounded-vs-oracle diverged (seed {}, bound {}, hop {})", k, seed, bound, hop
            );
        }
    }
}

/// Sustained overload: offered load far above both the queue bound and the
/// tick budget must hold memory flat and shed deterministically — the
/// server keeps serving fresh audio instead of growing a backlog. Four
/// sessions per shard keep every shard past its budget at any shard count.
#[test]
fn sustained_overload_holds_memory_flat() {
    let backend = Probe { classes: 8 };
    let serve = ServeConfig {
        queue_bound: 2,
        overflow: OverflowPolicy::DropOldest,
        tick_budget: 4,
        ..deterministic()
    };
    for hop in HOPS {
        ShardedStreamServer::run(vec![spec(&backend)], config(hop), serve, |server| {
            let ids: Vec<SessionId> =
                (0..4 * server.shards()).map(|_| server.try_open().expect("open")).collect();
            let stream = chirp_stream(3_000, 77, 2_000.0, 90.0, 70.0);
            for round in 0..20 {
                for &id in &ids {
                    server.try_feed(id, &stream).expect("feed");
                }
                // Queue depth never exceeds bound × sessions, no matter the
                // round.
                assert!(
                    server.pending_windows() <= 2 * ids.len(),
                    "hop {hop}, round {round}: pending {} exceeded the bound",
                    server.pending_windows()
                );
                server.flush();
            }
            let stats = server.stats();
            assert!(stats.windows_dropped > 0, "hop {hop}: overload must evict: {stats:?}");
            assert!(stats.windows_shed > 0, "hop {hop}: tick budget must shed: {stats:?}");
            assert!(
                stats.windows_served > 0,
                "hop {hop}: the server must still serve fresh work: {stats:?}"
            );
            assert_cells_reconcile(server, "after sustained overload");
        });
    }
}
