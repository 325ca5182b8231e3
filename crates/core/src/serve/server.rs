//! The shard engine behind [`ShardedStreamServer`]: one worker's slice of
//! the sessions — their frame streams, pending windows and posterior
//! histories — multiplexed over shared backends with cross-session batched
//! inference, bounded queues, and per-row fault isolation. Features are
//! extracted as audio is fed; a pending window carries its finished
//! feature map, not its audio.
//!
//! Crate-private. The front door validates every session, model and feed
//! buffer before a command reaches a shard, so the engine returns nothing a
//! caller could act on; it only keeps the books, one [`ServerStats`] cell
//! per hosted model.
//!
//! [`ShardedStreamServer`]: crate::serve::ShardedStreamServer

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use thnt_nn::{softmax, InferenceBackend};
use thnt_tensor::Tensor;

use crate::serve::error::{ModelId, ServeError, SessionId};
use crate::serve::sharded::{ModelSpec, OverflowPolicy, ServeConfig, ShardSnapshot};
use crate::serve::stats::{LatencyHistogram, ServedDetection, ServerStats};
use crate::streaming::{push_vote, Detection, FrameStream, FrontEnd, StreamingConfig};

/// Per-session serving state: the frame stream, the posterior vote, and the
/// session's share of the pending queue.
struct Session {
    stream: FrameStream,
    recent: VecDeque<Vec<f32>>,
    /// Windows this session currently has in the pending queue — the
    /// quantity [`ServeConfig::queue_bound`] bounds.
    queued: usize,
    /// Index into the shard's model registry; fixed at admission.
    model: usize,
}

/// A due window's finished feature map, awaiting the next
/// [`StreamServer::tick`]. Carries its model index so per-model accounting
/// survives the session closing before the tick, and its due time so served
/// windows record feed-to-vote latency.
struct PendingWindow {
    session: u64,
    model: usize,
    at_sample: usize,
    queued_at: Instant,
    /// The normalised `frames × coeffs` rows.
    features: Vec<f32>,
}

/// One hosted model: the shared backend reference, its front end (the
/// MFCC plan, workspace and normalisation statistics every session of the
/// model on this shard extracts with), and the model's ledger cell on this
/// shard.
struct ModelEntry<'m, B: InferenceBackend + ?Sized> {
    backend: &'m B,
    front: FrontEnd,
    num_keywords: usize,
    stats: ServerStats,
}

impl<'m, B: InferenceBackend + ?Sized> ModelEntry<'m, B> {
    /// Validates and builds an entry; the panics here are the construction
    /// contract documented on
    /// [`ShardedStreamServer::run`](crate::serve::ShardedStreamServer::run).
    fn new(spec: &ModelSpec<'m, B>, config: &StreamingConfig) -> Self {
        let front = FrontEnd::new(spec.mfcc, spec.norm_mean.clone(), spec.norm_std.clone());
        let classes = spec.backend.num_classes();
        assert!(
            classes > config.suppress_trailing,
            "backend has {classes} classes but {} are suppressed — nothing can be detected",
            config.suppress_trailing
        );
        Self {
            backend: spec.backend,
            front,
            num_keywords: classes - config.suppress_trailing,
            stats: ServerStats::default(),
        }
    }
}

/// One shard: every model of the server, the sessions pinned to this shard,
/// and their pending windows.
pub(crate) struct StreamServer<'m, B: InferenceBackend + ?Sized> {
    /// Which shard of the front door this is.
    shard: usize,
    started: Instant,
    /// The model registry, indexed by [`ModelId::raw`].
    models: Vec<ModelEntry<'m, B>>,
    config: StreamingConfig,
    max_batch: usize,
    /// Per-session pending-window cap; `0` = unbounded.
    queue_bound: usize,
    overflow: OverflowPolicy,
    /// Max windows inferred per tick (the latency budget); `0` = unbounded.
    tick_budget: usize,
    sessions: HashMap<u64, Session>,
    /// Due windows in arrival order, each with its finished features.
    pending: Vec<PendingWindow>,
    /// Feed-to-vote latency of served windows.
    latency: LatencyHistogram,
}

impl<'m, B: InferenceBackend + ?Sized> StreamServer<'m, B> {
    /// Builds shard `shard` hosting every model in `models`, with the
    /// admission knobs of `serve`.
    ///
    /// # Panics
    ///
    /// Panics if a model's statistics do not have one entry per MFCC
    /// coefficient, its sample rate makes a window of no samples, or its
    /// backend's class count does not exceed
    /// [`StreamingConfig::suppress_trailing`].
    pub(crate) fn new(
        shard: usize,
        models: &[ModelSpec<'m, B>],
        config: StreamingConfig,
        serve: &ServeConfig,
    ) -> Self {
        Self {
            shard,
            started: Instant::now(),
            models: models.iter().map(|spec| ModelEntry::new(spec, &config)).collect(),
            config,
            max_batch: serve.max_batch,
            queue_bound: serve.queue_bound,
            overflow: serve.overflow,
            tick_budget: serve.tick_budget,
            sessions: HashMap::new(),
            pending: Vec::new(),
            latency: LatencyHistogram::new(),
        }
    }

    /// Admits a session under the id the front door assigned. Fails on an
    /// unknown model or an id already in use — neither of which the front
    /// door ever sends.
    pub(crate) fn admit_session(&mut self, id: u64, model: ModelId) -> Result<(), ServeError> {
        let Some(entry) = self.models.get(model.raw() as usize) else {
            return Err(ServeError::UnknownModel(model));
        };
        if self.sessions.contains_key(&id) {
            return Err(ServeError::UnknownSession(SessionId::from_raw(id)));
        }
        let session = Session {
            stream: FrameStream::new(&entry.front, self.config.hop),
            recent: VecDeque::new(),
            queued: 0,
            model: model.raw() as usize,
        };
        self.sessions.insert(id, session);
        Ok(())
    }

    /// Closes a session, dropping its frame stream. Windows it still has
    /// queued are accounted `windows_closed` at the next [`Self::tick`].
    pub(crate) fn close(&mut self, id: u64) {
        self.sessions.remove(&id);
    }

    /// Counts one feed the front door refused against `model`'s cell.
    pub(crate) fn refuse(&mut self, model: usize) {
        if let Some(entry) = self.models.get_mut(model) {
            entry.stats.rejected_feeds += 1;
        }
    }

    /// Windows queued for the next [`Self::tick`].
    pub(crate) fn pending_windows(&self) -> usize {
        self.pending.len()
    }

    /// Feeds audio into session `id`'s frame stream, extracting each MFCC
    /// frame as its last sample arrives. Every window that becomes due
    /// queues its finished features for the next [`Self::tick`], subject to
    /// the queue bound and the [`OverflowPolicy`]; inference happens
    /// batched in `tick`. A window the policy drops has still paid for its
    /// new frames, which later windows may share. An id this shard does not
    /// hold is ignored.
    pub(crate) fn feed(&mut self, id: u64, samples: &[f32]) {
        let bound = self.queue_bound;
        let policy = self.overflow;
        let Self { sessions, pending, models, .. } = self;
        let Some(session) = sessions.get_mut(&id) else { return };
        let model = session.model;
        let ModelEntry { front, stats, .. } = &mut models[model];
        let Session { stream, queued, .. } = session;
        stream.feed(front, samples, |features, at_sample| {
            stats.windows_fed += 1;
            if bound > 0 && *queued >= bound {
                match policy {
                    OverflowPolicy::DropOldest => {
                        // Evict this session's oldest queued window, then
                        // admit the new one: freshest audio wins.
                        if let Some(pos) = pending.iter().position(|w| w.session == id) {
                            pending.remove(pos);
                            *queued = queued.saturating_sub(1);
                            stats.windows_dropped += 1;
                        }
                    }
                    OverflowPolicy::DropNewest => {
                        stats.windows_dropped += 1;
                        return;
                    }
                }
            }
            pending.push(PendingWindow {
                session: id,
                model,
                at_sample,
                queued_at: Instant::now(),
                features,
            });
            *queued += 1;
        });
    }

    /// Serves the pending windows, whose features were extracted at feed
    /// time: sheds down to the tick budget (oldest first, saving their
    /// inference), runs batched inference per model through
    /// [`InferenceBackend::infer_isolated`] (at most `max_batch` windows per
    /// call), quarantines windows whose logits are unusable, applies each
    /// surviving session's smoothing vote in arrival order, and returns the
    /// detections demuxed per session.
    ///
    /// Windows whose session was closed after queueing are dropped. A
    /// backend call that panics or returns malformed logits is contained at
    /// the batch boundary: its healthy rows are recovered individually and
    /// produce exactly the logits a fault-free run would, so healthy
    /// sessions' detections are byte-identical. With no pending windows this
    /// is free.
    pub(crate) fn tick(&mut self) -> Vec<ServedDetection> {
        let mut detections = Vec::new();
        if self.pending.is_empty() {
            return detections;
        }
        let mut pending = std::mem::take(&mut self.pending);
        // Every taken window leaves its session's queue, whatever its fate;
        // a session closed between feed and tick drops its windows before
        // inference.
        for window in &pending {
            match self.sessions.get_mut(&window.session) {
                Some(session) => session.queued = session.queued.saturating_sub(1),
                None => self.models[window.model].stats.windows_closed += 1,
            }
        }
        pending.retain(|w| self.sessions.contains_key(&w.session));
        // Latency budget: infer at most `tick_budget` windows, shedding the
        // globally oldest first — stale audio is the cheapest to lose.
        if self.tick_budget > 0 && pending.len() > self.tick_budget {
            let shed = pending.len() - self.tick_budget;
            for window in pending.drain(..shed) {
                self.models[window.model].stats.windows_shed += 1;
            }
        }
        // Group the surviving windows per model, preserving arrival order
        // within each group.
        let mut order: Vec<Vec<usize>> = vec![Vec::new(); self.models.len()];
        for (w, window) in pending.iter().enumerate() {
            order[window.model].push(w);
        }
        // Per-window posterior rows, indexed like `pending`; `None` marks a
        // quarantined window. Voting below runs in original arrival order
        // across all models.
        let mut rows: Vec<Option<Vec<f32>>> = vec![None; pending.len()];
        for (model, idxs) in self.models.iter_mut().zip(&order) {
            if idxs.is_empty() {
                continue;
            }
            let (frames, coeffs) = model.front.shape();
            let mut batch = Tensor::zeros(&[idxs.len(), 1, frames, coeffs]);
            for (&w, row) in idxs.iter().zip(batch.data_mut().chunks_mut(frames * coeffs)) {
                row.copy_from_slice(&pending[w].features);
            }
            // Fault-isolated inference: a panicking / wrong-arity /
            // NaN-emitting backend call quarantines only its own rows.
            // With a healthy backend this chunks exactly like
            // `infer_chunked` and, because every row is computed
            // independently, yields byte-identical logits.
            let isolated = model.backend.infer_isolated(&batch, self.max_batch);
            model.stats.faulted_calls += isolated.faulted_calls;
            let probs = softmax(&isolated.logits);
            for (j, &w) in idxs.iter().enumerate() {
                if isolated.ok.get(j).copied().unwrap_or(false) {
                    rows[w] = Some(probs.row(j).to_vec());
                }
            }
        }
        for (window, row) in pending.iter().zip(&rows) {
            let model = &mut self.models[window.model];
            let (Some(row), Some(session)) = (row, self.sessions.get_mut(&window.session)) else {
                // Unusable logits: the window casts no vote — its session's
                // smoothing history and its batch siblings are untouched.
                model.stats.windows_quarantined += 1;
                continue;
            };
            model.stats.windows_served += 1;
            self.latency.record(window.queued_at.elapsed());
            let vote = push_vote(&mut session.recent, row, self.config.smoothing);
            if let Some((best, confidence)) = vote {
                if best < model.num_keywords && confidence >= self.config.threshold {
                    detections.push(ServedDetection {
                        session: SessionId::from_raw(window.session),
                        detection: Detection {
                            class: best,
                            confidence,
                            at_sample: window.at_sample,
                        },
                    });
                }
            }
        }
        detections
    }

    /// This shard's quiescent view of itself: one ledger cell and one
    /// pending count per model, open sessions, latency, and uptime.
    pub(crate) fn snapshot(&self) -> ShardSnapshot {
        let mut per_model_pending = vec![0; self.models.len()];
        for window in &self.pending {
            per_model_pending[window.model] += 1;
        }
        ShardSnapshot {
            shard: self.shard,
            per_model: self.models.iter().map(|m| m.stats).collect(),
            per_model_pending,
            sessions: self.sessions.len(),
            latency: self.latency.clone(),
            uptime: self.started.elapsed(),
        }
    }
}

#[cfg(test)]
// Tests may unwrap freely; the panic-free discipline covers the serving
// path above, not its assertions.
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    //! The shard engine driven directly on the test thread, plus the typed
    //! refusals the front door answers for its shards (a deterministic
    //! one-shard [`ShardedStreamServer`]).

    use super::*;
    use crate::serve::ShardedStreamServer;
    use crate::streaming::tests::small_mfcc;
    use crate::streaming::StreamingDetector;
    use thnt_dsp::MfccConfig;

    /// A deterministic input-dependent stub: each logit is a fixed linear
    /// functional of the window's features, computed row by row so batching
    /// cannot change any value.
    #[derive(Debug)]
    struct Probe {
        classes: usize,
    }

    impl InferenceBackend for Probe {
        fn infer(&self, x: &Tensor) -> Tensor {
            let n = x.dims()[0];
            let per = x.numel() / n.max(1);
            let mut out = Tensor::zeros(&[n, self.classes]);
            for s in 0..n {
                let row = &x.data()[s * per..(s + 1) * per];
                for c in 0..self.classes {
                    let mut acc = 0.0f32;
                    for (i, &v) in row.iter().enumerate() {
                        // A fixed pseudo-random ±1/0 weight pattern.
                        acc += v * (((i * 31 + c * 17) % 7) as f32 - 3.0);
                    }
                    out.data_mut()[s * self.classes + c] = acc;
                }
            }
            out
        }
        fn num_classes(&self) -> usize {
            self.classes
        }
        fn adds_per_sample(&self) -> u64 {
            0
        }
        fn model_bytes(&self) -> usize {
            0
        }
    }

    fn small_config() -> StreamingConfig {
        StreamingConfig { hop: 500, smoothing: 2, threshold: 0.05, suppress_trailing: 2 }
    }

    fn spec(backend: &Probe) -> ModelSpec<'_, Probe> {
        ModelSpec::new(backend, small_mfcc(), vec![0.0; 10], vec![1.0; 10])
    }

    /// A one-model shard with the given admission knobs.
    fn shard_with<'m>(backend: &'m Probe, serve: &ServeConfig) -> StreamServer<'m, Probe> {
        StreamServer::new(0, &[spec(backend)], small_config(), serve)
    }

    fn small_server(backend: &Probe) -> StreamServer<'_, Probe> {
        shard_with(backend, &ServeConfig::default())
    }

    /// Admits sessions `0..n` on model 0.
    fn open(server: &mut StreamServer<'_, Probe>, n: u64) -> Vec<u64> {
        (0..n).map(|id| server.admit_session(id, ModelId::new(0)).map(|()| id).unwrap()).collect()
    }

    fn tone(freq: f32, len: usize) -> Vec<f32> {
        (0..len).map(|t| (2.0 * std::f32::consts::PI * freq * t as f32 / 2_000.0).sin()).collect()
    }

    /// The shard's one ledger cell per model.
    fn cell(server: &StreamServer<'_, Probe>, model: usize) -> ServerStats {
        server.snapshot().per_model[model]
    }

    /// The stats invariant every test can lean on, checked per cell.
    fn assert_reconciled(server: &StreamServer<'_, Probe>) {
        let snap = server.snapshot();
        for (m, stats) in snap.per_model.iter().enumerate() {
            assert_eq!(
                stats.windows_fed,
                stats.windows_accounted() + snap.per_model_pending[m] as u64,
                "model {m} must reconcile: {stats:?}, pending {}",
                snap.per_model_pending[m]
            );
        }
    }

    /// Runs `f` against the front door over one shard in deterministic
    /// mode.
    fn front<R>(
        backend: &Probe,
        serve: ServeConfig,
        f: impl FnOnce(&mut ShardedStreamServer) -> R,
    ) -> R {
        ShardedStreamServer::run(vec![spec(backend)], small_config(), serve, f)
    }

    #[test]
    fn sessions_are_independent_and_match_a_detector() {
        let backend = Probe { classes: 6 };
        let cfg = small_config();
        let mut server = small_server(&backend);
        let [a, b] = open(&mut server, 2)[..] else { unreachable!() };
        let stream_a = tone(130.0, 6_000);
        let stream_b = tone(400.0, 6_000);
        // Interleave uneven chunks across the two sessions.
        let mut served: HashMap<SessionId, Vec<Detection>> = HashMap::new();
        for (ca, cb) in stream_a.chunks(333).zip(stream_b.chunks(333)) {
            server.feed(a, ca);
            server.feed(b, cb);
            for d in server.tick() {
                served.entry(d.session).or_default().push(d.detection);
            }
        }
        for (id, stream) in [(a, &stream_a), (b, &stream_b)] {
            let mut det = StreamingDetector::with_mfcc(
                &backend,
                cfg,
                small_mfcc(),
                vec![0.0; 10],
                vec![1.0; 10],
            );
            let want = det.push(stream);
            assert_eq!(served.remove(&SessionId::from_raw(id)).unwrap_or_default(), want, "{id}");
        }
        assert_reconciled(&server);
    }

    #[test]
    fn tick_batches_all_pending_windows() {
        let backend = Probe { classes: 6 };
        let mut server = small_server(&backend);
        for id in open(&mut server, 4) {
            // 3000 samples: windows end at 2000, 2500 and 3000.
            server.feed(id, &tone(200.0, 3_000));
        }
        assert_eq!(server.pending_windows(), 12);
        server.tick();
        let stats = cell(&server, 0);
        assert_eq!(stats.windows_served, 12);
        assert_eq!(stats.faulted_calls, 0);
        assert_eq!(server.pending_windows(), 0);
        assert_reconciled(&server);
    }

    #[test]
    fn closing_a_session_drops_its_pending_windows() {
        let backend = Probe { classes: 6 };
        let mut server = small_server(&backend);
        let [a, b] = open(&mut server, 2)[..] else { unreachable!() };
        server.feed(a, &tone(150.0, 2_500));
        server.feed(b, &tone(150.0, 2_500));
        assert_eq!(server.pending_windows(), 4);
        server.close(a);
        let detections = server.tick();
        assert!(
            detections.iter().all(|d| d.session == SessionId::from_raw(b)),
            "closed session must not detect"
        );
        assert_eq!(cell(&server, 0).windows_closed, 2);
        assert_eq!(server.snapshot().sessions, 1);
        assert_reconciled(&server);
    }

    #[test]
    fn max_batch_splits_do_not_change_results() {
        let backend = Probe { classes: 6 };
        let run = |max_batch: usize| {
            let mut server =
                shard_with(&backend, &ServeConfig { max_batch, ..ServeConfig::default() });
            for (k, id) in open(&mut server, 3).into_iter().enumerate() {
                server.feed(id, &tone(120.0 + 90.0 * k as f32, 4_000));
            }
            server.tick()
        };
        let unbounded = run(0);
        assert_eq!(run(2), unbounded);
        assert_eq!(run(1), unbounded);
    }

    #[test]
    fn served_windows_record_latency() {
        let backend = Probe { classes: 6 };
        let mut server = small_server(&backend);
        let [a] = open(&mut server, 1)[..] else { unreachable!() };
        server.feed(a, &tone(200.0, 3_000));
        assert_eq!(server.snapshot().latency.count(), 0, "latency is recorded at vote, not feed");
        server.tick();
        let lat = server.snapshot().latency.summary();
        assert_eq!(lat.count, 3);
        assert!(lat.p50_ns > 0 && lat.p50_ns <= lat.p99_ns, "{lat:?}");
    }

    #[test]
    fn admit_session_rejects_duplicates_and_unknown_models() {
        let backend = Probe { classes: 6 };
        let mut server = small_server(&backend);
        server.admit_session(7, ModelId::new(0)).unwrap();
        assert_eq!(
            server.admit_session(7, ModelId::new(0)),
            Err(ServeError::UnknownSession(SessionId::from_raw(7))),
            "id already in use"
        );
        assert_eq!(
            server.admit_session(3, ModelId::new(9)),
            Err(ServeError::UnknownModel(ModelId::new(9)))
        );
        server.admit_session(3, ModelId::new(0)).unwrap();
        assert_eq!(server.snapshot().sessions, 2);
    }

    #[test]
    fn feeding_a_closed_session_is_a_typed_error() {
        let backend = Probe { classes: 6 };
        front(&backend, ServeConfig::deterministic(1), |server| {
            let a = server.try_open().unwrap();
            server.close(a);
            assert_eq!(server.try_feed(a, &[0.0; 100]), Err(ServeError::UnknownSession(a)));
            assert_eq!(server.stats(), ServerStats::default(), "a refused call moves nothing");
        });
    }

    #[test]
    fn non_finite_audio_is_rejected_without_consuming_anything() {
        let backend = Probe { classes: 6 };
        front(&backend, ServeConfig::deterministic(1), |server| {
            let a = server.try_open().unwrap();
            let mut dirty = tone(200.0, 1_000);
            dirty[700] = f32::NAN;
            assert_eq!(
                server.try_feed(a, &dirty),
                Err(ServeError::NonFiniteAudio { session: a, offset: 700 })
            );
            let mut dirty = tone(200.0, 10);
            dirty[3] = f32::INFINITY;
            assert!(server.try_feed(a, &dirty).is_err());
            // Both refusals land in the session's own cell on its shard.
            let snaps = server.shard_snapshots().unwrap();
            assert_eq!(snaps[0].per_model[0].rejected_feeds, 2);
            // Nothing was consumed: the clean stream that follows lines up
            // exactly as if the dirty buffers had never been offered.
            server.try_feed(a, &tone(200.0, 2_500)).unwrap();
            assert_eq!(server.stats().windows_fed, 2); // windows at 2000 and 2500
        });
    }

    #[test]
    fn drop_oldest_keeps_the_freshest_windows() {
        let backend = Probe { classes: 6 };
        let serve = ServeConfig {
            queue_bound: 2,
            overflow: OverflowPolicy::DropOldest,
            ..ServeConfig::default()
        };
        let mut server = shard_with(&backend, &serve);
        let [a] = open(&mut server, 1)[..] else { unreachable!() };
        // 4000 samples make 5 windows due (2000, 2500, 3000, 3500, 4000).
        server.feed(a, &tone(180.0, 4_000));
        let stats = cell(&server, 0);
        assert_eq!(stats.windows_fed, 5, "every window is admitted under DropOldest");
        assert_eq!(stats.windows_dropped, 3, "the three oldest were evicted");
        assert_eq!(server.pending_windows(), 2);
        assert_reconciled(&server);
        let at: Vec<usize> = server.pending.iter().map(|w| w.at_sample).collect();
        assert_eq!(at, [3_500, 4_000], "the freshest windows survive");
        server.tick();
        assert_eq!(cell(&server, 0).windows_served, 2);
        assert_reconciled(&server);
    }

    #[test]
    fn drop_newest_preserves_the_backlog() {
        let backend = Probe { classes: 6 };
        let serve = ServeConfig {
            queue_bound: 2,
            overflow: OverflowPolicy::DropNewest,
            ..ServeConfig::default()
        };
        let mut server = shard_with(&backend, &serve);
        let [a] = open(&mut server, 1)[..] else { unreachable!() };
        server.feed(a, &tone(180.0, 4_000));
        assert_eq!(cell(&server, 0).windows_dropped, 3, "later windows are discarded");
        assert_eq!(server.pending_windows(), 2);
        let at: Vec<usize> = server.pending.iter().map(|w| w.at_sample).collect();
        assert_eq!(at, [2_000, 2_500], "the first two windows keep the queue");
        assert_reconciled(&server);
    }

    #[test]
    fn tick_budget_sheds_the_oldest_windows_first() {
        let backend = Probe { classes: 6 };
        let mut server =
            shard_with(&backend, &ServeConfig { tick_budget: 3, ..ServeConfig::default() });
        let [a, b] = open(&mut server, 2)[..] else { unreachable!() };
        server.feed(a, &tone(180.0, 3_000)); // 3 windows
        server.feed(b, &tone(300.0, 3_000)); // 3 windows
        let detections = server.tick();
        let stats = cell(&server, 0);
        assert_eq!(stats.windows_shed, 3, "budget 3 sheds the 3 oldest of 6");
        assert_eq!(stats.windows_served, 3);
        assert_reconciled(&server);
        // The shed windows were a's entire backlog (fed first == oldest).
        assert!(detections.iter().all(|d| d.session == SessionId::from_raw(b)));
    }

    #[test]
    fn session_limit_bounds_try_open() {
        let backend = Probe { classes: 6 };
        let serve = ServeConfig { max_sessions: 2, ..ServeConfig::deterministic(1) };
        front(&backend, serve, |server| {
            let a = server.try_open().unwrap();
            let _b = server.try_open().unwrap();
            assert_eq!(server.try_open(), Err(ServeError::SessionLimit { limit: 2 }));
            // Closing makes room again.
            server.close(a);
            assert!(server.try_open().is_ok());
        });
    }

    #[test]
    fn serve_errors_display_their_context() {
        let backend = Probe { classes: 6 };
        front(&backend, ServeConfig::deterministic(1), |server| {
            let a = server.try_open().unwrap();
            server.close(a);
            let err = server.try_feed(a, &[0.0]).unwrap_err();
            let msg = format!("{err}");
            assert!(msg.contains("session#0"), "{msg}");
            assert!(std::error::Error::source(&err).is_none());
        });
        let msg = format!("{}", ServeError::ShardUnavailable { shard: 3 });
        assert!(msg.contains("shard 3"), "{msg}");
    }

    #[test]
    fn unknown_model_is_a_typed_error() {
        let backend = Probe { classes: 6 };
        front(&backend, ServeConfig::deterministic(1), |server| {
            assert_eq!(server.num_models(), 1);
            let err = server.try_open_model(ModelId::new(7)).unwrap_err();
            assert_eq!(err, ServeError::UnknownModel(ModelId::new(7)));
            assert!(format!("{err}").contains("model#7"), "{err}");
            assert_eq!(server.stats_for(ModelId::new(7)), None);
            assert_eq!(server.num_sessions(), 0, "a refused open admits nothing");
        });
    }

    /// Two models hosted on one shard must serve exactly what two
    /// independent single-model shards would — same detections, same
    /// order per session — even with sessions interleaved at feed time.
    #[test]
    fn registry_of_two_matches_two_single_model_servers() {
        let backend_a = Probe { classes: 6 };
        let backend_b = Probe { classes: 4 };
        let spec_b = || ModelSpec::new(&backend_b, small_mfcc(), vec![0.1; 10], vec![2.0; 10]);
        let serve = ServeConfig::default();
        let mut server =
            StreamServer::new(0, &[spec(&backend_a), spec_b()], small_config(), &serve);
        let (a, b) = (0u64, 1u64);
        server.admit_session(a, ModelId::new(0)).unwrap();
        server.admit_session(b, ModelId::new(1)).unwrap();
        let stream_a = tone(130.0, 6_000);
        let stream_b = tone(400.0, 6_000);
        let mut served: HashMap<SessionId, Vec<Detection>> = HashMap::new();
        for (ca, cb) in stream_a.chunks(333).zip(stream_b.chunks(333)) {
            server.feed(a, ca);
            server.feed(b, cb);
            for d in server.tick() {
                served.entry(d.session).or_default().push(d.detection);
            }
        }
        let mut solo_a = small_server(&backend_a);
        let mut solo_b = StreamServer::new(0, &[spec_b()], small_config(), &serve);
        for (id, solo, stream) in [(a, &mut solo_a, &stream_a), (b, &mut solo_b, &stream_b)] {
            solo.admit_session(0, ModelId::new(0)).unwrap();
            let mut want = Vec::new();
            for chunk in stream.chunks(333) {
                solo.feed(0, chunk);
                want.extend(solo.tick().into_iter().map(|d| d.detection));
            }
            let got = served.remove(&SessionId::from_raw(id)).unwrap_or_default();
            assert_eq!(got, want, "session {id}");
        }
        assert_reconciled(&server);
    }

    /// Each model's cell accounts exactly its own sessions' windows and
    /// reconciles against its own pending depth; the shard's aggregate is
    /// their sum.
    #[test]
    fn per_model_stats_sum_to_the_aggregate() {
        let backend_a = Probe { classes: 6 };
        let backend_b = Probe { classes: 4 };
        let serve = ServeConfig { queue_bound: 2, tick_budget: 3, ..ServeConfig::default() };
        let spec_b = ModelSpec::new(&backend_b, small_mfcc(), vec![0.0; 10], vec![1.0; 10]);
        let mut server = StreamServer::new(0, &[spec(&backend_a), spec_b], small_config(), &serve);
        let (a, b) = (0u64, 1u64);
        server.admit_session(a, ModelId::new(0)).unwrap();
        server.admit_session(b, ModelId::new(1)).unwrap();
        // Overfeed both sessions so drops, sheds, and serves all occur.
        for _ in 0..3 {
            server.feed(a, &tone(180.0, 3_000));
            server.feed(b, &tone(300.0, 3_000));
            server.tick();
        }
        // Close b with windows still queued so closed-window accounting
        // lands on the right model.
        server.feed(b, &tone(300.0, 2_500));
        server.refuse(1);
        server.close(b);
        server.tick();
        let snap = server.snapshot();
        let [pa, pb] = snap.per_model[..] else { unreachable!() };
        // 9000 samples make 15 windows due (at 2000, 2500, …, 9000); b's
        // last 2500 samples make 5 more.
        assert_eq!(pa.windows_fed, 15);
        assert_eq!(pb.windows_fed, 20);
        assert_eq!(pa.windows_closed, 0);
        assert!(pb.windows_closed > 0, "closing b must account its queued windows to b");
        assert_eq!((pa.rejected_feeds, pb.rejected_feeds), (0, 1));
        assert!(pa.windows_dropped > 0 && pa.windows_shed > 0 && pa.windows_served > 0);
        let mut sum = pa;
        sum.merge(&pb);
        assert_eq!(snap.stats(), sum);
        assert_reconciled(&server);
    }

    /// Models with different MFCC geometries (and hence different feature
    /// widths) batch independently in one tick without interfering.
    #[test]
    fn models_with_different_geometries_batch_independently() {
        let backend_a = Probe { classes: 6 };
        let backend_b = Probe { classes: 6 };
        let wide = MfccConfig { num_coeffs: 16, ..small_mfcc() };
        let spec_b = ModelSpec::new(&backend_b, wide, vec![0.0; 16], vec![1.0; 16]);
        let serve = ServeConfig::default();
        let mut server = StreamServer::new(0, &[spec(&backend_a), spec_b], small_config(), &serve);
        server.admit_session(0, ModelId::new(0)).unwrap();
        server.admit_session(1, ModelId::new(1)).unwrap();
        server.feed(0, &tone(180.0, 2_000));
        server.feed(1, &tone(300.0, 2_000));
        assert_eq!(server.snapshot().per_model_pending, [1, 1]);
        server.tick();
        let snap = server.snapshot();
        assert_eq!(snap.per_model[0].windows_served, 1);
        assert_eq!(snap.per_model[1].windows_served, 1);
        assert_reconciled(&server);
    }
}
