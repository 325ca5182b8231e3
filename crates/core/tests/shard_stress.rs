//! Stress and fault proofs for the sharded serving front-end.
//!
//! Four properties pin the multi-threaded layer down:
//!
//! 1. **Exact accounting under overload, per cell.** Sustained offered load
//!    far above every shard's queue bound and tick budget keeps memory flat
//!    and the per-shard × per-model ledgers exactly reconciled after every
//!    operation.
//! 2. **DropOldest is honest shedding, sharded.** A bounded sharded server's
//!    detections equal the independent pipeline oracle run over exactly the
//!    windows that survived admission — per session, byte-identical.
//! 3. **Deadline batching flushes partial batches.** With the size trigger
//!    unreachable, every fed window is served within the configured
//!    `flush_deadline` (plus generous scheduling slack) with no explicit
//!    barrier.
//! 4. **Faults stay on their shard.** A backend call that panics or poisons
//!    rows quarantines only the windows it actually corrupted: healthy
//!    batch siblings and sessions on other shards detect byte-identically,
//!    and the damage is visible only in the owning shard's ledger cell.
//! 5. **A dead shard is an error, not a silent `Ok`.** A worker that panics
//!    outside the per-batch fault isolation takes only its own shard down:
//!    calls that land there return `ShardUnavailable`, the other shards keep
//!    serving, and `run` re-raises the worker's panic.
//!
//! Every schedule here is deterministic (fixed seeds, explicit barriers in
//! deterministic mode), so failures reproduce exactly, and runs at each of
//! the stream hops in `common::HOPS` — one off the frame stride, one on it,
//! so the shards' windows share frames. `THNT_SERVE_SHARDS` overrides the
//! default shard counts where locality doesn't depend on a specific
//! topology.

mod common;

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;
use std::time::{Duration, Instant};

use common::{
    assert_cells_reconcile, chirp_stream, small_mfcc, window_ends, PipelineOracle, Probe, HOPS,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use thnt_core::{
    Detection, ModelId, ModelSpec, OverflowPolicy, ServeConfig, ServeError, ServerStats, SessionId,
    ShardedStreamServer, StreamingConfig, StreamingDetector,
};
use thnt_nn::{FaultMode, FaultyBackend, InferenceBackend, IsolatedBatch};
use thnt_tensor::Tensor;

const WINDOW: usize = 2_000;
const COEFFS: usize = 10;

fn config(hop: usize) -> StreamingConfig {
    StreamingConfig { hop, smoothing: 2, threshold: 0.05, suppress_trailing: 2 }
}

fn norm_mean() -> Vec<f32> {
    vec![0.0; COEFFS]
}

fn norm_std() -> Vec<f32> {
    vec![1.0; COEFFS]
}

fn shards() -> usize {
    ServeConfig::shards_from_env(4)
}

/// Injected panics unwind through `catch_unwind` by design; keep their
/// backtraces out of the test output while leaving genuine panics loud.
fn quiet_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !msg.contains("injected") {
                prev(info);
            }
        }));
    });
}

/// Every shard's ledger cells, indexed `[shard][model]`.
fn cells(server: &ShardedStreamServer) -> Vec<Vec<ServerStats>> {
    let snaps = server.shard_snapshots().expect("every shard is alive");
    snaps.into_iter().map(|snap| snap.per_model).collect()
}

// ---------------------------------------------------------------------------
// 1. Sustained overload: flat memory, exact books after every operation.
// ---------------------------------------------------------------------------

#[test]
fn sustained_overload_reconciles_and_holds_memory_flat_across_shards() {
    let backend = Probe { classes: 8 };
    let bound = 2usize;
    let serve = ServeConfig {
        queue_bound: bound,
        overflow: OverflowPolicy::DropOldest,
        tick_budget: 2,
        ..ServeConfig::deterministic(shards())
    };
    for hop in HOPS {
        let spec = ModelSpec::new(&backend, small_mfcc(), norm_mean(), norm_std());
        ShardedStreamServer::run(vec![spec], config(hop), serve, |server| {
            // Enough sessions that every shard is oversubscribed past its
            // tick budget regardless of the shard count.
            let n = 4 * server.shards();
            let ids: Vec<SessionId> = (0..n).map(|_| server.try_open().unwrap()).collect();
            let stream = chirp_stream(3_000, 77, 2_000.0, 90.0, 70.0);
            for round in 0..10 {
                for &id in &ids {
                    server.try_feed(id, &stream).unwrap();
                    assert_cells_reconcile(server, "after feed");
                }
                // Memory flat: per-session queues never exceed the bound, no
                // matter how far offered load outruns the budgeted ticks.
                assert!(
                    server.pending_windows() <= bound * n,
                    "hop {hop}, round {round}: pending {} exceeded bound × sessions",
                    server.pending_windows()
                );
                server.flush();
                assert_cells_reconcile(server, "after flush");
            }
            let stats = server.stats();
            assert!(stats.windows_dropped > 0, "hop {hop}: overload must evict: {stats:?}");
            assert!(stats.windows_shed > 0, "hop {hop}: tick budget must shed: {stats:?}");
            assert!(stats.windows_served > 0, "hop {hop}: fresh audio must be served: {stats:?}");
            assert_eq!(server.latency().count, stats.windows_served);
        });
    }
}

// ---------------------------------------------------------------------------
// 2. DropOldest equals the unbounded oracle over surviving windows.
// ---------------------------------------------------------------------------

#[test]
fn drop_oldest_matches_unbounded_oracle_across_shards() {
    for hop in HOPS {
        drop_oldest_matches_unbounded_oracle_at(hop);
    }
}

/// One [`drop_oldest_matches_unbounded_oracle_across_shards`] schedule at
/// stream hop `hop`. The oracle extracts every surviving window from
/// scratch, so at a hop on the frame stride this also checks the shards'
/// shared frames across evictions.
fn drop_oldest_matches_unbounded_oracle_at(hop: usize) {
    let backend = Probe { classes: 8 };
    let bound = 2usize;
    let seed = 4242u64;
    let serve = ServeConfig {
        queue_bound: bound,
        overflow: OverflowPolicy::DropOldest,
        ..ServeConfig::deterministic(shards())
    };
    let num_sessions = 6usize;
    let mut rng = SmallRng::seed_from_u64(seed);
    let streams: Vec<Vec<f32>> = (0..num_sessions)
        .map(|k| chirp_stream(6_000, seed ^ ((k as u64) << 11), 2_000.0, 90.0, 70.0))
        .collect();

    // Parallel admission simulation: per-session stream so far + bounded
    // queue, fed in lockstep with the server, each due window sliced out of
    // the whole stream. Survivors are whatever a barrier drains.
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

    let spec = ModelSpec::new(&backend, small_mfcc(), norm_mean(), norm_std());
    let (mut served, ids, stats) =
        ShardedStreamServer::run(vec![spec], config(hop), serve, |server| {
            let ids: Vec<SessionId> =
                (0..num_sessions).map(|_| server.try_open().unwrap()).collect();
            let mut served: HashMap<SessionId, Vec<Detection>> = HashMap::new();
            let mut fed = vec![0usize; num_sessions];
            while fed.iter().zip(&streams).any(|(&f, s)| f < s.len()) {
                for k in 0..num_sessions {
                    if fed[k] >= streams[k].len() {
                        continue;
                    }
                    let chunk = rng.gen_range(1..1_200usize).min(streams[k].len() - fed[k]);
                    let audio = &streams[k][fed[k]..fed[k] + chunk];
                    server.try_feed(ids[k], audio).unwrap();
                    admit(&mut sims[k], audio);
                    fed[k] += chunk;
                    if rng.gen_range(0..3usize) == 0 {
                        for d in server.flush() {
                            served.entry(d.session).or_default().push(d.detection);
                        }
                        for sim in sims.iter_mut() {
                            sim.survivors.extend(sim.queue.drain(..));
                        }
                    }
                }
            }
            // A final burst bigger than any bound guarantees the eviction
            // path actually ran on every shard.
            for (k, id) in ids.iter().enumerate() {
                let tail = chirp_stream(4_000, seed ^ 0xBEEF ^ (k as u64), 2_000.0, 90.0, 70.0);
                server.try_feed(*id, &tail).unwrap();
                admit(&mut sims[k], &tail);
            }
            for d in server.flush() {
                served.entry(d.session).or_default().push(d.detection);
            }
            for sim in sims.iter_mut() {
                sim.survivors.extend(sim.queue.drain(..));
            }
            assert_cells_reconcile(server, "after drain");
            (served, ids, server.stats())
        });

    assert_eq!(stats.windows_fed, stats.windows_accounted());
    let simulated: u64 = sims.iter().map(|s| s.survivors.len() as u64).sum();
    assert_eq!(stats.windows_served, simulated, "hop {hop}: admission drifted from the simulation");
    assert!(stats.windows_dropped > 0, "hop {hop}: bound {bound} never overflowed");

    for (k, id) in ids.iter().enumerate() {
        let mut oracle = PipelineOracle::new(8, small_mfcc(), config(hop), norm_mean(), norm_std());
        let want: Vec<Detection> =
            sims[k].survivors.iter().filter_map(|(w, at)| oracle.detect(w, *at)).collect();
        let got = served.remove(id).unwrap_or_default();
        assert_eq!(got, want, "hop {hop}: session {k} bounded-vs-oracle diverged");
    }
}

// ---------------------------------------------------------------------------
// 3. Deadline batching: partial batches flush without barriers.
// ---------------------------------------------------------------------------

#[test]
fn deadline_flushes_partial_batches_without_barriers() {
    let backend = Probe { classes: 8 };
    let deadline = Duration::from_millis(50);
    let serve = ServeConfig {
        max_batch: 10_000, // size trigger unreachable: only the deadline can flush
        flush_deadline: Some(deadline),
        ..ServeConfig::with_shards(shards())
    };
    for hop in HOPS {
        let spec = ModelSpec::new(&backend, small_mfcc(), norm_mean(), norm_std());
        ShardedStreamServer::run(vec![spec], config(hop), serve, |server| {
            let ids: Vec<SessionId> = (0..4).map(|_| server.try_open().unwrap()).collect();
            for (k, &id) in ids.iter().enumerate() {
                // 2600 samples → exactly 2 due windows per session.
                server.try_feed(id, &chirp_stream(2_600, k as u64, 2_000.0, 90.0, 70.0)).unwrap();
            }
            let want = 2 * ids.len() as u64;
            let t0 = Instant::now();
            // Generous slack for scheduler noise on loaded CI hosts; the
            // point is that the windows are served at all without any
            // barrier — only the deadline can have flushed them.
            let patience = Duration::from_secs(30);
            loop {
                let served = server.stats().windows_served;
                if served >= want {
                    break;
                }
                assert!(
                    t0.elapsed() < patience,
                    "hop {hop}: deadline flush never happened: {served}/{want} windows served"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(server.pending_windows(), 0, "deadline flush must drain the batch");
            let latency = server.latency();
            assert_eq!(latency.count, want);
            assert!(latency.p50_ns > 0 && latency.p50_ns <= latency.p99_ns);
            assert_cells_reconcile(server, "after deadline flush");
        });
    }
}

// ---------------------------------------------------------------------------
// 4. Fault injection: damage stays on its shard.
// ---------------------------------------------------------------------------

/// Mean absolute normalised MFCC feature of every window `stream` makes due
/// at stream hop `hop` — the quantity `FaultMode::NanAboveEnergy` triggers
/// on.
fn window_energies(stream: &[f32], hop: usize) -> Vec<f32> {
    let mfcc = thnt_dsp::Mfcc::new(small_mfcc());
    let plan = mfcc.plan();
    let mut scratch = plan.scratch();
    let frames = small_mfcc().num_frames(WINDOW);
    let mut features = vec![0.0f32; frames * COEFFS];
    let mut energies = Vec::new();
    for end in window_ends(WINDOW, hop, 0, stream.len()) {
        plan.compute_into(&mut scratch, &stream[end - WINDOW..end], &mut features);
        let energy = features.iter().map(|v| v.abs()).sum::<f32>() / features.len() as f32;
        energies.push(energy);
    }
    energies
}

fn healthy_stream(seed: u64) -> Vec<f32> {
    chirp_stream(9_000, seed, 2_000.0, 90.0, 70.0)
}

fn hot_stream() -> Vec<f32> {
    (0..9_000)
        .map(|t| 40.0 * (2.0 * std::f32::consts::PI * 440.0 * t as f32 / 2_000.0).sin())
        .collect()
}

/// Feeds `streams` (session k = stream k) through a sharded server at
/// stream hop `hop` in fixed 777-sample rounds with a barrier per round;
/// returns per-stream detections and the final ledger cells.
fn run_sharded_sessions<B: thnt_nn::InferenceBackend + Sync>(
    backend: &B,
    streams: &[Vec<f32>],
    shard_count: usize,
    hop: usize,
) -> (Vec<Vec<Detection>>, Vec<Vec<ServerStats>>) {
    let spec = ModelSpec::new(backend, small_mfcc(), norm_mean(), norm_std());
    ShardedStreamServer::run(
        vec![spec],
        config(hop),
        ServeConfig::deterministic(shard_count),
        |server| {
            let ids: Vec<SessionId> = streams.iter().map(|_| server.try_open().unwrap()).collect();
            let mut served: HashMap<SessionId, Vec<Detection>> = HashMap::new();
            let chunk = 777usize;
            let rounds = streams.iter().map(|s| s.len()).max().unwrap_or(0).div_ceil(chunk);
            for r in 0..rounds {
                for (k, stream) in streams.iter().enumerate() {
                    let start = (r * chunk).min(stream.len());
                    let end = ((r + 1) * chunk).min(stream.len());
                    if start < end {
                        server.try_feed(ids[k], &stream[start..end]).unwrap();
                    }
                }
                for d in server.flush() {
                    served.entry(d.session).or_default().push(d.detection);
                }
            }
            assert_cells_reconcile(server, "after fault run");
            let per_stream = ids.iter().map(|id| served.remove(id).unwrap_or_default()).collect();
            (per_stream, cells(server))
        },
    )
}

#[test]
fn injected_batch_panics_recover_byte_identically_on_every_shard() {
    quiet_injected_panics();
    let probe = Probe { classes: 8 };
    let streams: Vec<Vec<f32>> = (0..6).map(|k| healthy_stream(50 + k)).collect();

    for hop in HOPS {
        // Multi-row batches panic; the shard retries rows singly, so every
        // session must survive byte-identically to an independent detector.
        let faulty = FaultyBackend::new(&probe, FaultMode::PanicOnBatch { min_batch: 2 });
        let (under_fault, matrix) = run_sharded_sessions(&faulty, &streams, shards(), hop);
        assert!(faulty.injected() > 0, "hop {hop}: panics must actually fire");

        let mut total = ServerStats::default();
        for cell in matrix.iter().flatten() {
            total.merge(cell);
        }
        assert!(total.faulted_calls > 0, "panicking calls must be counted: {total:?}");
        assert_eq!(total.windows_quarantined, 0, "single-row retries recover every window");
        assert_eq!(total.windows_fed, total.windows_accounted());

        let mut any = false;
        for (k, stream) in streams.iter().enumerate() {
            let mut det = StreamingDetector::with_mfcc(
                &probe,
                config(hop),
                small_mfcc(),
                norm_mean(),
                norm_std(),
            );
            let want = det.push(stream);
            any |= !want.is_empty();
            assert_eq!(under_fault[k], want, "hop {hop}: session {k} diverged under panics");
        }
        assert!(any, "hop {hop}: no detections anywhere — the recovery check was vacuous");
    }
}

#[test]
fn nan_poisoned_session_damages_only_its_own_shard_cell() {
    let probe = Probe { classes: 8 };
    let healthy = [healthy_stream(3), healthy_stream(4)];
    let hot = hot_stream();

    for hop in HOPS {
        // Content-keyed threshold, measured — the hot session's quietest
        // window must be strictly louder than the healthy sessions' loudest.
        let healthy_max =
            healthy.iter().flat_map(|s| window_energies(s, hop)).fold(f32::NEG_INFINITY, f32::max);
        let hot_min = window_energies(&hot, hop).iter().fold(f32::INFINITY, |a, &b| a.min(b));
        assert!(healthy_max < hot_min, "streams must separate: {healthy_max} vs {hot_min}");
        let threshold = (healthy_max + hot_min) / 2.0;

        // Fixed 3-shard topology so locality is observable: session k pins
        // to shard k, and the hot session owns shard 1 alone.
        let streams = vec![healthy[0].clone(), hot.clone(), healthy[1].clone()];
        let (baseline, _) = run_sharded_sessions(&probe, &streams, 3, hop);
        let faulty = FaultyBackend::new(&probe, FaultMode::NanAboveEnergy { threshold });
        let (under_fault, matrix) = run_sharded_sessions(&faulty, &streams, 3, hop);

        assert!(faulty.injected() > 0, "hop {hop}: the fault must actually fire");
        // Damage is confined to the hot session's cell: shard 1, model 0.
        assert_eq!(matrix[0][0].windows_quarantined, 0, "hop {hop}: shard 0 took damage");
        assert_eq!(matrix[2][0].windows_quarantined, 0, "hop {hop}: shard 2 took damage");
        assert_eq!(
            matrix[1][0].windows_quarantined,
            faulty.injected(),
            "hop {hop}: every poisoned row quarantined on its own shard, nothing else"
        );
        // Healthy sessions are byte-identical to the fault-free run; the
        // poisoned session detects nothing.
        assert_eq!(under_fault[0], baseline[0], "hop {hop}: healthy session 0 diverged");
        assert_eq!(under_fault[2], baseline[2], "hop {hop}: healthy session 2 diverged");
        assert!(under_fault[1].is_empty(), "poisoned session must not detect from NaN");
        assert!(
            !baseline[0].is_empty() || !baseline[2].is_empty(),
            "hop {hop}: no healthy detections at all — the isolation check was vacuous"
        );
    }
}

// ---------------------------------------------------------------------------
// Regression: per-model × per-shard marginals (satellite: the per-model
// stats must reconcile to *both* marginals, with refusals and faults mixed).
// ---------------------------------------------------------------------------

#[test]
fn stats_matrix_marginals_reconcile_with_mixed_outcomes() {
    quiet_injected_panics();
    let probe = Probe { classes: 8 };
    let serve = ServeConfig {
        queue_bound: 1,
        overflow: OverflowPolicy::DropOldest,
        ..ServeConfig::deterministic(3)
    };
    for hop in HOPS {
        let clean = FaultyBackend::new(&probe, FaultMode::None);
        let flaky = FaultyBackend::new(&probe, FaultMode::PanicOnBatch { min_batch: 2 });
        let specs = vec![
            ModelSpec::new(&clean, small_mfcc(), norm_mean(), norm_std()),
            ModelSpec::new(&flaky, small_mfcc(), norm_mean(), norm_std()),
        ];
        ShardedStreamServer::run(specs, config(hop), serve, |server| {
            // Sessions alternate models, spread over all 3 shards.
            let ids: Vec<SessionId> =
                (0..9u32).map(|s| server.try_open_model(ModelId::new(s % 2)).unwrap()).collect();
            for round in 0..4u64 {
                for (k, &id) in ids.iter().enumerate() {
                    server.try_feed(id, &healthy_stream(round * 100 + k as u64)).unwrap();
                }
                server.flush();
            }
            // A couple of front-door refusals, each counted in its session's
            // cell: session 0 is (shard 0, model 0), session 1 is (shard 1,
            // model 1).
            for &id in &ids[..2] {
                assert!(server.try_feed(id, &[1.0, f32::INFINITY]).is_err());
            }

            let matrix = cells(server);
            assert_eq!(matrix.len(), 3);
            assert_eq!(matrix[0][0].rejected_feeds, 1);
            assert_eq!(matrix[1][1].rejected_feeds, 1);
            // Every counter class the schedule can produce is present
            // somewhere, so the marginal checks below aren't vacuous.
            let mut grand = ServerStats::default();
            for cell in matrix.iter().flatten() {
                grand.merge(cell);
            }
            assert!(grand.windows_served > 0);
            assert!(grand.windows_dropped > 0, "queue bound 1 must evict: {grand:?}");
            assert!(grand.faulted_calls > 0, "the flaky model must fault: {grand:?}");
            assert_eq!(grand.rejected_feeds, 2);
            assert_eq!(grand, server.stats());

            // Row marginals (per shard) and column marginals (per model).
            for (shard, row) in matrix.iter().enumerate() {
                let mut sum = ServerStats::default();
                for cell in row {
                    sum.merge(cell);
                }
                assert_eq!(Some(sum), server.shard_stats(shard), "shard {shard} marginal drifted");
            }
            for m in 0..2u32 {
                let mut sum = ServerStats::default();
                for row in &matrix {
                    sum.merge(&row[m as usize]);
                }
                let marginal = server.stats_for(ModelId::new(m));
                assert_eq!(Some(sum), marginal, "hop {hop}: model {m} marginal drifted");
            }
            assert_cells_reconcile(server, "mixed outcomes");
        });
    }
}

// ---------------------------------------------------------------------------
// 5. Shard death: an error, not a silent `Ok`.
// ---------------------------------------------------------------------------

/// A backend whose first `infer_isolated` call panics. The override
/// replaces the trait's `catch_unwind` wrapper, so the panic unwinds
/// through the shard worker and kills it; later calls serve normally.
struct DiesOnce {
    inner: Probe,
    armed: AtomicBool,
}

impl InferenceBackend for DiesOnce {
    fn infer(&self, x: &Tensor) -> Tensor {
        self.inner.infer(x)
    }
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }
    fn adds_per_sample(&self) -> u64 {
        0
    }
    fn model_bytes(&self) -> usize {
        0
    }
    fn infer_isolated(&self, x: &Tensor, max_batch: usize) -> IsolatedBatch {
        if self.armed.swap(false, Ordering::SeqCst) {
            panic!("injected: the shard worker dies outside the fault isolation");
        }
        self.inner.infer_isolated(x, max_batch)
    }
}

#[test]
fn a_dead_shard_is_an_error_not_a_silent_ok() {
    quiet_injected_panics();
    for hop in HOPS {
        let backend = DiesOnce { inner: Probe { classes: 8 }, armed: AtomicBool::new(true) };
        let spec = ModelSpec::new(&backend, small_mfcc(), norm_mean(), norm_std());
        let stream = healthy_stream(2);
        let serve = ServeConfig::deterministic(2);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ShardedStreamServer::run(vec![spec], config(hop), serve, |server| {
                let a = server.try_open().unwrap();
                let b = server.try_open().unwrap();
                assert_eq!((server.shard_of(a), server.shard_of(b)), (0, 1));
                // 3500 samples make windows due on shard 0 (4 at hop 500).
                // Its flush is the first `infer_isolated` call, which kills
                // its worker.
                server.try_feed(a, &healthy_stream(1)[..3_500]).unwrap();
                assert!(server.flush().is_empty(), "the dying shard served nothing");
                let dead = ServeError::ShardUnavailable { shard: 0 };
                // The snapshot barrier also waits until the worker has
                // finished dying, so what follows is deterministic.
                assert_eq!(server.shard_snapshots().unwrap_err(), dead);
                assert_eq!(server.try_feed(a, &[0.0; 500]), Err(dead));
                assert_eq!(server.try_open(), Err(dead), "session#2 would land on shard 0");
                // The refused open spent its id, so the next one lands on
                // shard 1, which keeps serving.
                let c = server.try_open().unwrap();
                assert_eq!(server.shard_of(c), 1);
                server.try_feed(b, &stream).unwrap();
                let got: Vec<Detection> = server.flush().into_iter().map(|d| d.detection).collect();
                let mut det = StreamingDetector::with_mfcc(
                    &backend.inner,
                    config(hop),
                    small_mfcc(),
                    norm_mean(),
                    norm_std(),
                );
                let want = det.push(&stream);
                assert!(!want.is_empty(), "vacuous: the healthy stream detects nothing");
                assert_eq!(got, want, "hop {hop}: shard 1 must serve as if shard 0 never died");
                // The read paths cover the live shard only: shard 0's
                // windows went down with it.
                let stats = server.stats();
                let due = ((stream.len() - WINDOW) / hop + 1) as u64;
                assert_eq!(stats.windows_fed, due, "{} samples at hop {hop}", stream.len());
                assert_eq!(stats.windows_served, stats.windows_fed);
                assert_eq!(server.shard_stats(0), None);
                assert_eq!(server.shard_stats(1), Some(stats));
            })
        }));
        let panic = run.expect_err("run must re-raise the dead worker's panic");
        let msg = panic.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("injected"), "unexpected panic payload: {msg:?}");
    }
}
