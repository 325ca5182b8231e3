//! Fault-isolation proof for the hardened serving layer: a misbehaving
//! backend call — an injected panic, wrong-arity logits, or rows poisoned
//! to `NaN` — must be contained to the windows it actually corrupted.
//! Healthy sessions sharing the batch produce **byte-identical** detections
//! to a fault-free run, the server never panics, and every quarantined
//! window is visible in [`ServerStats`].
//!
//! The chaos source is [`thnt_nn::FaultyBackend`] wrapping the same
//! deterministic `Probe` stub the equivalence suite uses; all fault
//! triggers are pure functions of the call's input, and the front door runs
//! in deterministic mode (`THNT_SERVE_SHARDS` picks the shard count;
//! default 1, so every session shares one batch), so every scenario is
//! exactly reproducible.

mod common;

use std::collections::HashMap;
use std::sync::Once;

use common::{chirp_stream, small_mfcc, window_ends, Probe};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use thnt_core::{
    Detection, ModelSpec, ServeConfig, ServerStats, SessionId, ShardedStreamServer,
    StreamingConfig, StreamingDetector,
};
use thnt_nn::{FaultMode, FaultyBackend, InferenceBackend};

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

fn config() -> StreamingConfig {
    StreamingConfig { hop: 500, smoothing: 2, threshold: 0.05, suppress_trailing: 2 }
}

const MEAN: f32 = 0.0;
const STD: f32 = 1.0;

/// Runs `f` against the front door over `backend` with barrier-only
/// flushing and a per-call batch cap of `max_batch` (`0` = unbounded).
fn serve<B: InferenceBackend + Sync, R>(
    backend: &B,
    max_batch: usize,
    f: impl FnOnce(&mut ShardedStreamServer) -> R,
) -> R {
    let spec = ModelSpec::new(backend, small_mfcc(), vec![MEAN; 10], vec![STD; 10]);
    let serve =
        ServeConfig { max_batch, ..ServeConfig::deterministic(ServeConfig::shards_from_env(1)) };
    ShardedStreamServer::run(vec![spec], config(), serve, f)
}

/// Runs `streams` through a server over `backend` with a fixed interleaved
/// schedule (uneven chunks, a flush barrier every round) and returns each
/// stream's detections and the final stats.
fn run_sessions<B: InferenceBackend + Sync>(
    backend: &B,
    streams: &[Vec<f32>],
) -> (Vec<Vec<Detection>>, ServerStats) {
    serve(backend, 0, |srv| {
        let ids: Vec<SessionId> = streams.iter().map(|_| srv.try_open().expect("open")).collect();
        let mut served: HashMap<SessionId, Vec<Detection>> = HashMap::new();
        let chunk = 777usize;
        let rounds = streams.iter().map(|s| s.len()).max().unwrap_or(0).div_ceil(chunk);
        for r in 0..rounds {
            for (k, stream) in streams.iter().enumerate() {
                let start = (r * chunk).min(stream.len());
                let end = ((r + 1) * chunk).min(stream.len());
                if start < end {
                    srv.try_feed(ids[k], &stream[start..end]).expect("feed");
                }
            }
            for d in srv.flush() {
                served.entry(d.session).or_default().push(d.detection);
            }
        }
        let per_stream = ids.iter().map(|id| served.remove(id).unwrap_or_default()).collect();
        (per_stream, srv.stats())
    })
}

/// Mean absolute normalised MFCC feature of every due window in `stream` —
/// the quantity `FaultMode::NanAboveEnergy` triggers on.
fn window_energies(stream: &[f32]) -> Vec<f32> {
    let mfcc = thnt_dsp::Mfcc::new(small_mfcc());
    let plan = mfcc.plan();
    let mut scratch = plan.scratch();
    let frames = small_mfcc().num_frames(2_000);
    let mut features = vec![0.0f32; frames * 10];
    let mut energies = Vec::new();
    for end in window_ends(2_000, config().hop, 0, stream.len()) {
        plan.compute_into(&mut scratch, &stream[end - 2_000..end], &mut features);
        let energy =
            features.iter().map(|v| ((v - MEAN) / STD).abs()).sum::<f32>() / features.len() as f32;
        energies.push(energy);
    }
    energies
}

/// A quiet chirp for healthy sessions and a loud tone for the targeted one:
/// their MFCC energies must separate so `NanAboveEnergy` can single out the
/// hot session's windows inside a shared batch.
fn healthy_stream(seed: u64) -> Vec<f32> {
    chirp_stream(9_000, seed, 2_000.0, 90.0, 70.0)
}

fn hot_stream() -> Vec<f32> {
    (0..9_000)
        .map(|t| 40.0 * (2.0 * std::f32::consts::PI * 440.0 * t as f32 / 2_000.0).sin())
        .collect()
}

#[test]
fn nan_poisoned_sibling_leaves_healthy_sessions_byte_identical() {
    let probe = Probe { classes: 8 };
    let healthy = [healthy_stream(3), healthy_stream(4)];
    let hot = hot_stream();

    // Content-keyed threshold, measured — the hot session's quietest window
    // must be strictly louder than the healthy sessions' loudest.
    let healthy_max =
        healthy.iter().flat_map(|s| window_energies(s)).fold(f32::NEG_INFINITY, f32::max);
    let hot_min = window_energies(&hot).iter().fold(f32::INFINITY, |a, &b| a.min(b));
    assert!(
        healthy_max < hot_min,
        "streams must separate in energy: healthy max {healthy_max} vs hot min {hot_min}"
    );
    let threshold = (healthy_max + hot_min) / 2.0;

    let streams = vec![healthy[0].clone(), hot.clone(), healthy[1].clone()];
    let (baseline, _) = run_sessions(&probe, &streams);
    let faulty = FaultyBackend::new(&probe, FaultMode::NanAboveEnergy { threshold });
    let (under_fault, stats) = run_sessions(&faulty, &streams);

    assert!(faulty.injected() > 0, "the fault must actually fire");
    assert!(stats.windows_quarantined > 0, "poisoned windows must be quarantined: {stats:?}");
    assert_eq!(
        stats.windows_quarantined,
        faulty.injected(),
        "every poisoned row quarantined, nothing else"
    );
    // Healthy sessions (0 and 2) are byte-identical to the fault-free run.
    assert_eq!(under_fault[0], baseline[0], "healthy session 0 diverged");
    assert_eq!(under_fault[2], baseline[2], "healthy session 2 diverged");
    assert!(
        !baseline[0].is_empty() || !baseline[2].is_empty(),
        "no healthy detections at all — the isolation check was vacuous"
    );
    // The poisoned session detects nothing (every window quarantined)...
    assert!(under_fault[1].is_empty(), "poisoned session must not detect from NaN");
    // ...and the books balance.
    assert_eq!(stats.windows_fed, stats.windows_accounted());
}

#[test]
fn injected_batch_panics_are_contained_and_recovered() {
    quiet_injected_panics();
    let probe = Probe { classes: 8 };
    let streams = vec![healthy_stream(11), healthy_stream(12), healthy_stream(13)];
    let (baseline, _) = run_sessions(&probe, &streams);

    // Every multi-window batch panics; single-row retries succeed, so every
    // session's detections survive byte-identically.
    let faulty = FaultyBackend::new(&probe, FaultMode::PanicOnBatch { min_batch: 2 });
    let (under_fault, stats) = run_sessions(&faulty, &streams);
    assert!(faulty.injected() > 0, "panics must actually fire");
    assert!(stats.faulted_calls > 0, "panicking calls must be counted: {stats:?}");
    assert_eq!(stats.windows_quarantined, 0, "all rows recover via single-row retries");
    assert!(baseline.iter().any(|d| !d.is_empty()), "vacuous: no detections anywhere");
    for (k, (got, want)) in under_fault.iter().zip(&baseline).enumerate() {
        assert_eq!(got, want, "session {k} diverged under injected panics");
    }
    assert_eq!(stats.windows_fed, stats.windows_accounted());
}

#[test]
fn wrong_arity_logits_are_contained_and_recovered() {
    let probe = Probe { classes: 8 };
    let streams = vec![healthy_stream(21), healthy_stream(22)];
    let (baseline, _) = run_sessions(&probe, &streams);

    let faulty = FaultyBackend::new(&probe, FaultMode::WrongArityOnBatch { min_batch: 2 });
    let (under_fault, stats) = run_sessions(&faulty, &streams);
    assert!(faulty.injected() > 0);
    assert!(stats.faulted_calls > 0);
    assert_eq!(under_fault, baseline, "wrong-arity batches must recover byte-identically");
}

#[test]
fn a_totally_broken_backend_quarantines_everything_without_panicking() {
    let probe = Probe { classes: 8 };
    // min_batch 1: even single-row retries return the wrong arity — nothing
    // is recoverable, but the server must stay alive and account for it all.
    let faulty = FaultyBackend::new(&probe, FaultMode::WrongArityOnBatch { min_batch: 1 });
    let (detections, stats) = run_sessions(&faulty, &[healthy_stream(31), healthy_stream(32)]);
    assert!(detections.iter().all(|d| d.is_empty()), "unusable logits must never detect");
    assert!(stats.windows_fed > 0);
    assert_eq!(stats.windows_quarantined, stats.windows_fed, "every window quarantined");
    assert_eq!(stats.windows_served, 0);
    assert_eq!(stats.windows_fed, stats.windows_accounted());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomised schedules under randomised faults: with any mix of
    /// sessions, chunk sizes, and flush placement, and a backend that
    /// panics or mis-shapes every multi-row batch, each session's
    /// detections are byte-identical to an independent fault-free
    /// [`StreamingDetector`] over its own stream.
    #[test]
    fn faulted_batches_never_change_any_healthy_detection(
        seed in 0u64..10_000,
        num_sessions in 2usize..5,
        panic_mode in 0usize..2,
    ) {
        quiet_injected_panics();
        let probe = Probe { classes: 8 };
        let mode = if panic_mode == 0 {
            FaultMode::PanicOnBatch { min_batch: 2 }
        } else {
            FaultMode::WrongArityOnBatch { min_batch: 2 }
        };
        let faulty = FaultyBackend::new(&probe, mode);
        let mut rng = SmallRng::seed_from_u64(seed);
        let streams: Vec<Vec<f32>> = (0..num_sessions)
            .map(|k| chirp_stream(rng.gen_range(3_000..6_000), seed ^ ((k as u64) << 9), 2_000.0, 90.0, 70.0))
            .collect();

        let max_batch = rng.gen_range(0..5usize);
        let (mut served, ids, stats) = serve(&faulty, max_batch, |srv| {
            let ids: Vec<SessionId> =
                streams.iter().map(|_| srv.try_open().expect("open")).collect();
            let mut fed = vec![0usize; num_sessions];
            let mut served: HashMap<SessionId, Vec<Detection>> = HashMap::new();
            while fed.iter().zip(&streams).any(|(&f, s)| f < s.len()) {
                for k in 0..num_sessions {
                    if fed[k] >= streams[k].len() {
                        continue;
                    }
                    let chunk = rng.gen_range(1..900usize).min(streams[k].len() - fed[k]);
                    srv.try_feed(ids[k], &streams[k][fed[k]..fed[k] + chunk]).expect("feed");
                    fed[k] += chunk;
                    if rng.gen_range(0..3usize) == 0 {
                        for d in srv.flush() {
                            served.entry(d.session).or_default().push(d.detection);
                        }
                    }
                }
            }
            for d in srv.flush() {
                served.entry(d.session).or_default().push(d.detection);
            }
            (served, ids, srv.stats())
        });

        prop_assert_eq!(stats.windows_quarantined, 0, "min_batch 2 recovers every row");
        prop_assert_eq!(stats.windows_fed, stats.windows_accounted());
        for (k, id) in ids.iter().enumerate() {
            let mut det = StreamingDetector::with_mfcc(
                &probe,
                config(),
                small_mfcc(),
                vec![MEAN; 10],
                vec![STD; 10],
            );
            let want = det.push(&streams[k]);
            let got = served.remove(id).unwrap_or_default();
            prop_assert_eq!(got, want, "session {} diverged under faults (seed {})", k, seed);
        }
    }
}
