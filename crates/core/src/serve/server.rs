//! The single-threaded serving core: [`StreamServer`] multiplexes many
//! audio sessions over shared backends with cross-session batched
//! inference, typed errors, bounded queues, and per-row fault isolation.
//! The sharded front-end ([`crate::serve::ShardedStreamServer`]) runs one
//! of these per worker shard.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use thnt_dsp::{Mfcc, MfccConfig};
use thnt_nn::{softmax, InferenceBackend};
use thnt_tensor::Tensor;

use crate::artifact::InferenceMeta;
use crate::serve::error::{ModelId, ServeError, SessionId};
use crate::serve::stats::{
    FeedReceipt, LatencyHistogram, LatencySummary, ServedDetection, ServerStats, TickReport,
};
use crate::streaming::{normalize_in_place, push_vote, Detection, SessionState, StreamingConfig};

/// What to do when a feed makes a window due but the session's
/// pending-window queue is already at [`StreamServer::queue_bound`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Evict the session's **oldest** queued window to admit the new one —
    /// real-time posture: fresh audio always wins, latency stays bounded.
    #[default]
    DropOldest,
    /// Discard the **new** window and keep the queue as-is — backlog
    /// posture: already-queued work is never thrown away.
    DropNewest,
    /// Refuse the whole feed call with [`ServeError::Backpressure`] when the
    /// queue is full on arrival, consuming no audio; a window that becomes
    /// due mid-call after the queue filled is discarded and counted
    /// `rejected`. The caller owns the retry. (On the sharded server
    /// admission runs on the worker thread, so the up-front refusal cannot
    /// be returned to the caller synchronously — it lands in
    /// `rejected_feeds` instead; see
    /// [`ServeConfig`](crate::serve::ServeConfig).)
    Reject,
}

/// Per-session serving state: the audio ring, the posterior vote, and the
/// session's share of the pending queue.
struct Session {
    state: SessionState,
    recent: VecDeque<Vec<f32>>,
    /// Windows this session currently has in the server's pending queue —
    /// the quantity [`StreamServer::queue_bound`] bounds.
    queued: usize,
    /// Index into the server's model registry; fixed at open.
    model: usize,
}

/// A due window snapshotted out of a session's ring, awaiting the next
/// [`StreamServer::tick`]. Carries its model index so per-model accounting
/// survives the session closing before the tick, and its due time so served
/// windows record feed-to-vote latency.
struct PendingWindow {
    session: u64,
    model: usize,
    at_sample: usize,
    queued_at: Instant,
    audio: Vec<f32>,
}

/// One registered model: the shared backend reference, its MFCC front-end
/// and normalisation statistics, the derived batch geometry, and the
/// model's own [`ServerStats`].
struct ModelEntry<'m, B: InferenceBackend + ?Sized> {
    backend: &'m B,
    mfcc: Mfcc,
    num_keywords: usize,
    norm_mean: Vec<f32>,
    norm_std: Vec<f32>,
    window_len: usize,
    frames: usize,
    coeffs: usize,
    stats: ServerStats,
}

impl<'m, B: InferenceBackend + ?Sized> ModelEntry<'m, B> {
    /// Validates and builds an entry; the panics here are the construction
    /// contract documented on [`StreamServer::new`] and
    /// [`StreamServer::register`].
    fn new(
        backend: &'m B,
        config: &StreamingConfig,
        mfcc_cfg: MfccConfig,
        norm_mean: Vec<f32>,
        norm_std: Vec<f32>,
    ) -> Self {
        assert_eq!(norm_mean.len(), mfcc_cfg.num_coeffs, "mean length mismatch");
        assert_eq!(norm_std.len(), mfcc_cfg.num_coeffs, "std length mismatch");
        let classes = backend.num_classes();
        assert!(
            classes > config.suppress_trailing,
            "backend has {classes} classes but {} are suppressed — nothing can be detected",
            config.suppress_trailing
        );
        let window_len = mfcc_cfg.sample_rate as usize;
        let frames = mfcc_cfg.num_frames(window_len);
        Self {
            backend,
            mfcc: Mfcc::new(mfcc_cfg),
            num_keywords: classes - config.suppress_trailing,
            norm_mean,
            norm_std,
            window_len,
            frames,
            coeffs: mfcc_cfg.num_coeffs,
            stats: ServerStats::default(),
        }
    }
}

/// Serves many concurrent audio sessions over one shared
/// [`InferenceBackend`] with cross-session batched inference, typed errors,
/// bounded queues, and per-row fault isolation.
///
/// # Example
///
/// ```
/// use thnt_core::serve::StreamServer;
/// use thnt_core::StreamingConfig;
/// use thnt_nn::InferenceBackend;
/// use thnt_tensor::Tensor;
///
/// struct Uniform;
/// impl InferenceBackend for Uniform {
///     fn infer(&self, x: &Tensor) -> Tensor {
///         Tensor::ones(&[x.dims()[0], 12])
///     }
///     fn num_classes(&self) -> usize { 12 }
///     fn adds_per_sample(&self) -> u64 { 0 }
///     fn model_bytes(&self) -> usize { 0 }
/// }
///
/// # fn main() -> Result<(), thnt_core::ServeError> {
/// let backend = Uniform;
/// let mut server = StreamServer::new(
///     &backend,
///     StreamingConfig::default(),
///     vec![0.0; 10],
///     vec![1.0; 10],
/// );
/// let a = server.try_open()?;
/// let b = server.try_open()?;
/// server.try_feed(a, &vec![0.0; 24_000])?;
/// server.try_feed(b, &vec![0.0; 24_000])?;
/// assert_eq!(server.pending_windows(), 4); // two due windows per session
/// let detections = server.tick(); // one batched infer for both
/// assert!(detections.is_empty()); // uniform posteriors stay sub-threshold
/// assert_eq!(server.pending_windows(), 0);
/// assert_eq!(server.stats().windows_served, 4);
/// # Ok(()) }
/// ```
pub struct StreamServer<'m, B: InferenceBackend + ?Sized> {
    /// The model registry; index 0 is the default model from construction.
    models: Vec<ModelEntry<'m, B>>,
    config: StreamingConfig,
    max_batch: usize,
    /// Per-session pending-window cap; `0` = unbounded.
    queue_bound: usize,
    overflow: OverflowPolicy,
    /// Max windows inferred per tick (the latency budget); `0` = unbounded.
    tick_budget: usize,
    /// Max concurrent sessions; `0` = unbounded.
    max_sessions: usize,
    next_id: u64,
    sessions: HashMap<u64, Session>,
    /// Due windows in arrival order, raw audio; features are extracted at
    /// tick time.
    pending: Vec<PendingWindow>,
    stats: ServerStats,
    /// Feed-to-vote latency of served windows.
    latency: LatencyHistogram,
}

impl<'m, B: InferenceBackend + ?Sized> StreamServer<'m, B> {
    /// Creates a server around a shared backend with the paper's MFCC
    /// front-end and the training data's normalisation statistics.
    ///
    /// # Panics
    ///
    /// Panics if the statistics do not have one entry per MFCC coefficient,
    /// or if the backend's class count does not exceed
    /// [`StreamingConfig::suppress_trailing`]. (Construction validates its
    /// configuration loudly; every *serving* entry point past this is
    /// panic-free.)
    pub fn new(
        backend: &'m B,
        config: StreamingConfig,
        norm_mean: Vec<f32>,
        norm_std: Vec<f32>,
    ) -> Self {
        Self::with_mfcc(backend, config, MfccConfig::paper(), norm_mean, norm_std)
    }

    /// [`Self::new`] with an explicit MFCC configuration. The analysis
    /// window is one second of audio at the configured sample rate.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::new`].
    pub fn with_mfcc(
        backend: &'m B,
        config: StreamingConfig,
        mfcc_cfg: MfccConfig,
        norm_mean: Vec<f32>,
        norm_std: Vec<f32>,
    ) -> Self {
        let entry = ModelEntry::new(backend, &config, mfcc_cfg, norm_mean, norm_std);
        Self {
            models: vec![entry],
            config,
            max_batch: 64,
            queue_bound: 0,
            overflow: OverflowPolicy::default(),
            tick_budget: 0,
            max_sessions: 0,
            next_id: 0,
            sessions: HashMap::new(),
            pending: Vec::new(),
            stats: ServerStats::default(),
            latency: LatencyHistogram::new(),
        }
    }

    /// Builds a server straight from the serving metadata embedded in a
    /// `.thnt2` artifact.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::new`].
    pub fn from_meta(backend: &'m B, config: StreamingConfig, meta: &InferenceMeta) -> Self {
        Self::with_mfcc(backend, config, meta.mfcc, meta.norm_mean.clone(), meta.norm_std.clone())
    }

    /// Registers another model on this server and returns its handle.
    /// Sessions opened with [`Self::try_open_model`] against the handle are
    /// batched, inferred, and accounted separately from every other model,
    /// while sharing the server's session limits, queue bounds, and tick
    /// budget. The backend must have the same concrete type as the default
    /// model's (use `&dyn InferenceBackend` servers to mix types).
    ///
    /// # Panics
    ///
    /// Same construction contract as [`Self::new`]: the statistics must
    /// have one entry per MFCC coefficient and the backend's class count
    /// must exceed [`StreamingConfig::suppress_trailing`].
    pub fn register(
        &mut self,
        backend: &'m B,
        mfcc_cfg: MfccConfig,
        norm_mean: Vec<f32>,
        norm_std: Vec<f32>,
    ) -> ModelId {
        let entry = ModelEntry::new(backend, &self.config, mfcc_cfg, norm_mean, norm_std);
        self.models.push(entry);
        ModelId((self.models.len() - 1) as u32)
    }

    /// [`Self::register`] from the serving metadata embedded in a `.thnt2`
    /// artifact.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::register`].
    pub fn register_from_meta(&mut self, backend: &'m B, meta: &InferenceMeta) -> ModelId {
        self.register(backend, meta.mfcc, meta.norm_mean.clone(), meta.norm_std.clone())
    }

    /// The model passed at construction — the one [`Self::try_open`] binds
    /// sessions to.
    pub fn default_model(&self) -> ModelId {
        ModelId(0)
    }

    /// Number of registered models (at least one).
    pub fn num_models(&self) -> usize {
        self.models.len()
    }

    /// Caps the number of windows per backend call in [`Self::tick`];
    /// larger pending sets are split into successive sub-batches. `0` means
    /// unbounded. Default: 64.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Caps each session's share of the pending queue at `bound` windows;
    /// overflow is resolved by the configured [`OverflowPolicy`]. `0` means
    /// unbounded (the default, matching the unhardened server).
    pub fn queue_bound(mut self, bound: usize) -> Self {
        self.queue_bound = bound;
        self
    }

    /// Sets the policy applied when a due window meets a full session queue.
    /// Default: [`OverflowPolicy::DropOldest`].
    pub fn overflow_policy(mut self, policy: OverflowPolicy) -> Self {
        self.overflow = policy;
        self
    }

    /// Caps the windows one [`Self::tick`] will infer — the deterministic
    /// latency budget. When more are pending, the **oldest** windows are
    /// shed before any feature extraction and counted in
    /// [`ServerStats::windows_shed`]. `0` means unbounded (default).
    pub fn tick_budget(mut self, budget: usize) -> Self {
        self.tick_budget = budget;
        self
    }

    /// Caps concurrent sessions; [`Self::try_open`] beyond the cap returns
    /// [`ServeError::SessionLimit`]. `0` means unbounded (default).
    pub fn max_sessions(mut self, limit: usize) -> Self {
        self.max_sessions = limit;
        self
    }

    /// Opens a new session; its stream starts empty.
    ///
    /// # Errors
    ///
    /// [`ServeError::SessionLimit`] when a [`Self::max_sessions`] cap is set
    /// and reached.
    ///
    /// # Examples
    ///
    /// ```
    /// use thnt_core::{StreamServer, StreamingConfig};
    /// use thnt_nn::InferenceBackend;
    /// use thnt_tensor::Tensor;
    ///
    /// struct Uniform;
    /// impl InferenceBackend for Uniform {
    ///     fn infer(&self, x: &Tensor) -> Tensor { Tensor::ones(&[x.dims()[0], 12]) }
    ///     fn num_classes(&self) -> usize { 12 }
    ///     fn adds_per_sample(&self) -> u64 { 0 }
    ///     fn model_bytes(&self) -> usize { 0 }
    /// }
    ///
    /// # fn main() -> Result<(), thnt_core::ServeError> {
    /// let backend = Uniform;
    /// let mut server = StreamServer::new(
    ///     &backend, StreamingConfig::default(), vec![0.0; 10], vec![1.0; 10]);
    /// // Sessions join (and leave) freely; each gets an opaque id to feed
    /// // audio under and to match detections against.
    /// let a = server.try_open()?;
    /// let b = server.try_open()?;
    /// assert_ne!(a, b);
    /// assert_eq!(server.num_sessions(), 2);
    /// assert!(server.close(a));
    /// # Ok(()) }
    /// ```
    pub fn try_open(&mut self) -> Result<SessionId, ServeError> {
        self.try_open_model(ModelId(0))
    }

    /// Opens a new session bound to a registered model: its windows are
    /// extracted with that model's MFCC geometry, inferred by that model's
    /// backend, and accounted in that model's [`Self::stats_for`].
    /// [`Self::try_open`] is this on the [`Self::default_model`].
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownModel`] — `model` was never registered here.
    /// * [`ServeError::SessionLimit`] — a [`Self::max_sessions`] cap is set
    ///   and reached (the cap spans all models).
    pub fn try_open_model(&mut self, model: ModelId) -> Result<SessionId, ServeError> {
        if self.max_sessions > 0 && self.sessions.len() >= self.max_sessions {
            return Err(ServeError::SessionLimit { limit: self.max_sessions });
        }
        let id = self.next_id;
        self.admit_session(id, model)
    }

    /// Opens a session under a caller-chosen id — the sharded front-end's
    /// entry point, which assigns ids so `id % shards` names the owning
    /// shard. Fails on an unknown model or an id already in use; advances
    /// the internal id counter past `id` so mixed use with
    /// [`Self::try_open_model`] never collides.
    pub(crate) fn admit_session(
        &mut self,
        id: u64,
        model: ModelId,
    ) -> Result<SessionId, ServeError> {
        let Some(entry) = self.models.get(model.0 as usize) else {
            return Err(ServeError::UnknownModel(model));
        };
        if self.sessions.contains_key(&id) {
            return Err(ServeError::UnknownSession(SessionId(id)));
        }
        self.next_id = self.next_id.max(id + 1);
        self.sessions.insert(
            id,
            Session {
                state: SessionState::new(entry.window_len),
                recent: VecDeque::new(),
                queued: 0,
                model: model.0 as usize,
            },
        );
        Ok(SessionId(id))
    }

    /// Closes a session, dropping its buffered audio and any pending
    /// windows it had queued. Returns whether the session existed.
    pub fn close(&mut self, id: SessionId) -> bool {
        self.sessions.remove(&id.0).is_some()
    }

    /// Number of currently open sessions.
    pub fn num_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Windows queued for the next [`Self::tick`].
    pub fn pending_windows(&self) -> usize {
        self.pending.len()
    }

    /// Number of detectable keyword classes on the default model.
    pub fn num_keywords(&self) -> usize {
        self.models[0].num_keywords
    }

    /// Number of detectable keyword classes on a registered model, or
    /// `None` for a handle this server never issued.
    pub fn num_keywords_for(&self, model: ModelId) -> Option<usize> {
        self.models.get(model.0 as usize).map(|m| m.num_keywords)
    }

    /// Lifetime counters: windows fed/served/dropped/rejected/shed/closed/
    /// quarantined, refused feeds, and faulted backend calls, aggregated
    /// over every model. See [`ServerStats`] for the exact reconciliation
    /// invariant.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// One model's share of the lifetime counters, or `None` for a handle
    /// this server never issued. Each model's stats reconcile on their own:
    /// `windows_fed == windows_accounted() + pending_windows_for(model)`,
    /// and summing every model's counters yields [`Self::stats`].
    pub fn stats_for(&self, model: ModelId) -> Option<ServerStats> {
        self.models.get(model.0 as usize).map(|m| m.stats)
    }

    /// Every model's ledger, indexed like the registry (the sharded
    /// snapshot path reads all cells at once).
    pub(crate) fn model_stats_vec(&self) -> Vec<ServerStats> {
        self.models.iter().map(|m| m.stats).collect()
    }

    /// Windows a registered model has queued for the next [`Self::tick`]
    /// (0 for a handle this server never issued).
    pub fn pending_windows_for(&self, model: ModelId) -> usize {
        self.pending.iter().filter(|w| w.model == model.0 as usize).count()
    }

    /// Feed-to-vote latency quantiles over every window this server has
    /// served: the time from a window becoming due at feed time to its vote
    /// completing in a tick.
    pub fn latency(&self) -> LatencySummary {
        self.latency.summary()
    }

    /// The underlying latency histogram (the sharded snapshot path merges
    /// shard histograms bucket-wise).
    pub(crate) fn latency_histogram(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Feeds audio into `id`'s stream. Every window that becomes due is
    /// snapshotted and queued for the next [`Self::tick`], subject to
    /// [`Self::queue_bound`] and the [`OverflowPolicy`]; the returned
    /// [`FeedReceipt`] reports how many windows were queued, dropped, and
    /// rejected. Feeding is cheap — all feature extraction and inference
    /// happens batched in `tick`.
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownSession`] — `id` was never opened or is
    ///   closed.
    /// * [`ServeError::NonFiniteAudio`] — `samples` contains `NaN`/`±inf`.
    /// * [`ServeError::Backpressure`] — the policy is
    ///   [`OverflowPolicy::Reject`] and the session's queue is already full.
    ///
    /// On any error **no audio is consumed**: the session's ring and hop
    /// phase are exactly as before the call, so the caller can fix the
    /// problem and re-submit the same buffer without losing alignment.
    pub fn try_feed(&mut self, id: SessionId, samples: &[f32]) -> Result<FeedReceipt, ServeError> {
        let bound = self.queue_bound;
        let policy = self.overflow;
        let Self { config, sessions, pending, stats, models, .. } = self;
        let Some(session) = sessions.get_mut(&id.0) else {
            return Err(ServeError::UnknownSession(id));
        };
        let model = session.model;
        let mstats = &mut models[model].stats;
        if let Some(offset) = samples.iter().position(|v| !v.is_finite()) {
            stats.rejected_feeds += 1;
            mstats.rejected_feeds += 1;
            return Err(ServeError::NonFiniteAudio { session: id, offset });
        }
        if policy == OverflowPolicy::Reject && bound > 0 && session.queued >= bound {
            stats.rejected_feeds += 1;
            mstats.rejected_feeds += 1;
            return Err(ServeError::Backpressure { session: id, queued: session.queued });
        }
        let now = Instant::now();
        let mut receipt = FeedReceipt::default();
        let Session { state, queued, .. } = session;
        state.feed(samples, config.hop, |window, at_sample| {
            stats.windows_fed += 1;
            mstats.windows_fed += 1;
            if bound > 0 && *queued >= bound {
                match policy {
                    OverflowPolicy::DropOldest => {
                        // Evict this session's oldest queued window, then
                        // admit the new one: freshest audio wins.
                        if let Some(pos) = pending.iter().position(|w| w.session == id.0) {
                            pending.remove(pos);
                            *queued = queued.saturating_sub(1);
                            stats.windows_dropped += 1;
                            mstats.windows_dropped += 1;
                            receipt.dropped += 1;
                        }
                    }
                    OverflowPolicy::DropNewest => {
                        stats.windows_dropped += 1;
                        mstats.windows_dropped += 1;
                        receipt.dropped += 1;
                        return;
                    }
                    OverflowPolicy::Reject => {
                        // The queue filled mid-call (the up-front check
                        // passed); the audio is already in the ring, so the
                        // window is discarded rather than the whole call.
                        stats.windows_rejected += 1;
                        mstats.windows_rejected += 1;
                        receipt.rejected += 1;
                        return;
                    }
                }
            }
            pending.push(PendingWindow {
                session: id.0,
                model,
                at_sample,
                queued_at: now,
                audio: window.to_vec(),
            });
            *queued += 1;
            receipt.queued += 1;
        });
        Ok(receipt)
    }

    /// [`Self::tick_report`], returning just the detections. Convenient when
    /// the caller does not track overload/fault accounting per tick (the
    /// lifetime [`Self::stats`] still move).
    pub fn tick(&mut self) -> Vec<ServedDetection> {
        self.tick_report().detections
    }

    /// Serves the pending windows: sheds down to the [`Self::tick_budget`]
    /// (oldest first, before any feature extraction), extracts MFCC features
    /// window by window on the calling thread, runs batched inference through
    /// [`InferenceBackend::infer_isolated`] (respecting [`Self::max_batch`]),
    /// quarantines windows whose logits are unusable, applies each surviving
    /// session's smoothing vote in arrival order, and returns the detections
    /// demuxed per session plus this tick's accounting.
    ///
    /// Windows whose session was closed after queueing are dropped. A
    /// backend call that panics or returns malformed logits is contained at
    /// the batch boundary: its healthy rows are recovered individually and
    /// produce exactly the logits a fault-free run would, so healthy
    /// sessions' detections are byte-identical. With no pending windows this
    /// is free and returns an empty report.
    pub fn tick_report(&mut self) -> TickReport {
        let mut report = TickReport::default();
        if self.pending.is_empty() {
            return report;
        }
        let mut pending = std::mem::take(&mut self.pending);
        // Every taken window leaves its session's queue, whatever its fate.
        for window in &pending {
            if let Some(session) = self.sessions.get_mut(&window.session) {
                session.queued = session.queued.saturating_sub(1);
            }
        }
        // A session closed between feed and tick drops its windows —
        // before extraction, so closed streams cost nothing.
        let before = pending.len();
        for window in &pending {
            if !self.sessions.contains_key(&window.session) {
                self.models[window.model].stats.windows_closed += 1;
            }
        }
        pending.retain(|w| self.sessions.contains_key(&w.session));
        report.closed = (before - pending.len()) as u64;
        self.stats.windows_closed += report.closed;
        // Latency budget: infer at most `tick_budget` windows, shedding the
        // globally oldest first — stale audio is the cheapest to lose, and
        // shedding happens before the MFCC work it saves.
        if self.tick_budget > 0 && pending.len() > self.tick_budget {
            let shed = pending.len() - self.tick_budget;
            for window in &pending[..shed] {
                self.models[window.model].stats.windows_shed += 1;
            }
            pending.drain(..shed);
            report.shed = shed as u64;
            self.stats.windows_shed += report.shed;
        }
        if pending.is_empty() {
            return report;
        }
        let k = pending.len();
        // Group the surviving windows per model, preserving arrival order
        // within each group. With one registered model (the constructor
        // default) this is the identity grouping: one batch, same
        // composition and order as the single-model server — which is why
        // the serve-equivalence and fault-injection properties carry over
        // unchanged.
        let mut order: Vec<Vec<usize>> = vec![Vec::new(); self.models.len()];
        for (w, window) in pending.iter().enumerate() {
            order[window.model].push(w);
        }
        // Per-window posterior rows, indexed like `pending`; voting below
        // runs in original arrival order across all models.
        let mut rows: Vec<Vec<f32>> = vec![Vec::new(); k];
        let mut ok = vec![false; k];
        for (m, idxs) in order.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let isolated = {
                let model = &self.models[m];
                let per = model.frames * model.coeffs;
                let mut batch = Tensor::zeros(&[idxs.len(), 1, model.frames, model.coeffs]);
                // One plan and one scratch: each window's features are
                // written straight into its row of the batch tensor. The
                // parallelism axis is shards, so extraction stays serial.
                let plan = model.mfcc.plan();
                let mut scratch = plan.scratch();
                for (&w, row) in idxs.iter().zip(batch.data_mut().chunks_mut(per)) {
                    plan.compute_into(&mut scratch, &pending[w].audio, row);
                    normalize_in_place(row, &model.norm_mean, &model.norm_std);
                }
                // Fault-isolated inference: a panicking / wrong-arity /
                // NaN-emitting backend call quarantines only its own rows.
                // With a healthy backend this chunks exactly like
                // `infer_chunked` and, because every row is computed
                // independently, yields byte-identical logits.
                model.backend.infer_isolated(&batch, self.max_batch)
            };
            report.faulted_calls += isolated.faulted_calls;
            self.stats.faulted_calls += isolated.faulted_calls;
            self.models[m].stats.faulted_calls += isolated.faulted_calls;
            let probs = softmax(&isolated.logits);
            for (j, &w) in idxs.iter().enumerate() {
                if isolated.ok.get(j).copied().unwrap_or(false) {
                    ok[w] = true;
                    rows[w] = probs.row(j).to_vec();
                }
            }
        }
        for (w, window) in pending.iter().enumerate() {
            if !ok[w] {
                // Unusable logits: the window casts no vote — its session's
                // smoothing history and its batch siblings are untouched.
                report.quarantined += 1;
                self.stats.windows_quarantined += 1;
                self.models[window.model].stats.windows_quarantined += 1;
                continue;
            }
            let Some(session) = self.sessions.get_mut(&window.session) else { continue };
            report.served += 1;
            self.stats.windows_served += 1;
            self.models[window.model].stats.windows_served += 1;
            self.latency.record(window.queued_at.elapsed());
            let vote = push_vote(&mut session.recent, &rows[w], self.config.smoothing);
            if let Some((best, confidence)) = vote {
                if best < self.models[window.model].num_keywords
                    && confidence >= self.config.threshold
                {
                    report.detections.push(ServedDetection {
                        session: SessionId(window.session),
                        detection: Detection {
                            class: best,
                            confidence,
                            at_sample: window.at_sample,
                        },
                    });
                }
            }
        }
        report
    }
}

impl<B: InferenceBackend + ?Sized> std::fmt::Debug for StreamServer<'_, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamServer")
            .field("backend", &self.models[0].backend.backend_name())
            .field("models", &self.models.len())
            .field("config", &self.config)
            .field("sessions", &self.sessions.len())
            .field("pending_windows", &self.pending.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
// Tests may unwrap freely; the panic-free discipline covers the serving
// path above, not its assertions.
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::streaming::StreamingDetector;

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

    /// Small MFCC config so tests stay fast in debug builds: a 2000-sample
    /// window of 8 frames.
    fn small_mfcc() -> MfccConfig {
        MfccConfig {
            sample_rate: 2_000.0,
            frame_len: 256,
            hop: 256,
            fft_size: 256,
            num_mel: 20,
            num_coeffs: 10,
            f_lo: 20.0,
            f_hi: 950.0,
            preemphasis: 0.97,
        }
    }

    fn small_config() -> StreamingConfig {
        StreamingConfig { hop: 500, smoothing: 2, threshold: 0.05, suppress_trailing: 2 }
    }

    fn small_server(backend: &Probe) -> StreamServer<'_, Probe> {
        StreamServer::with_mfcc(backend, small_config(), small_mfcc(), vec![0.0; 10], vec![1.0; 10])
    }

    fn tone(freq: f32, len: usize) -> Vec<f32> {
        (0..len).map(|t| (2.0 * std::f32::consts::PI * freq * t as f32 / 2_000.0).sin()).collect()
    }

    /// The stats invariant every test can lean on.
    fn assert_reconciled(server: &StreamServer<'_, Probe>) {
        let stats = server.stats();
        assert_eq!(
            stats.windows_fed,
            stats.windows_accounted() + server.pending_windows() as u64,
            "stats must reconcile: {stats:?}, pending {}",
            server.pending_windows()
        );
    }

    #[test]
    fn sessions_are_independent_and_match_a_detector() {
        let backend = Probe { classes: 6 };
        let cfg = small_config();
        let mut server = small_server(&backend);
        let a = server.try_open().unwrap();
        let b = server.try_open().unwrap();
        let stream_a = tone(130.0, 6_000);
        let stream_b = tone(400.0, 6_000);
        // Interleave uneven chunks across the two sessions.
        let mut served: HashMap<SessionId, Vec<Detection>> = HashMap::new();
        for (ca, cb) in stream_a.chunks(333).zip(stream_b.chunks(333)) {
            server.try_feed(a, ca).unwrap();
            server.try_feed(b, cb).unwrap();
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
            assert_eq!(served.remove(&id).unwrap_or_default(), want, "{id}");
        }
        assert_reconciled(&server);
    }

    #[test]
    fn tick_batches_all_pending_windows() {
        let backend = Probe { classes: 6 };
        let mut server = small_server(&backend);
        let ids: Vec<SessionId> = (0..4).map(|_| server.try_open().unwrap()).collect();
        for &id in &ids {
            // 3000 samples: ring fills at 2000, next window at 2500, 3000.
            assert_eq!(server.try_feed(id, &tone(200.0, 3_000)).unwrap().queued, 3);
        }
        assert_eq!(server.pending_windows(), 12);
        let report = server.tick_report();
        assert_eq!(report.served, 12);
        assert_eq!(report.faulted_calls, 0);
        assert_eq!(server.pending_windows(), 0);
        assert_reconciled(&server);
    }

    #[test]
    fn closing_a_session_drops_its_pending_windows() {
        let backend = Probe { classes: 6 };
        let mut server = small_server(&backend);
        let a = server.try_open().unwrap();
        let b = server.try_open().unwrap();
        server.try_feed(a, &tone(150.0, 2_500)).unwrap();
        server.try_feed(b, &tone(150.0, 2_500)).unwrap();
        assert_eq!(server.pending_windows(), 4);
        assert!(server.close(a));
        assert!(!server.close(a), "double close reports absence");
        let report = server.tick_report();
        assert!(report.detections.iter().all(|d| d.session == b), "closed session must not detect");
        assert_eq!(report.closed, 2);
        assert_eq!(server.num_sessions(), 1);
        assert_reconciled(&server);
    }

    #[test]
    fn max_batch_splits_do_not_change_results() {
        let backend = Probe { classes: 6 };
        let run = |max_batch: usize| {
            let mut server = small_server(&backend).max_batch(max_batch);
            let ids: Vec<SessionId> = (0..3).map(|_| server.try_open().unwrap()).collect();
            for (k, &id) in ids.iter().enumerate() {
                server.try_feed(id, &tone(120.0 + 90.0 * k as f32, 4_000)).unwrap();
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
        let a = server.try_open().unwrap();
        server.try_feed(a, &tone(200.0, 3_000)).unwrap();
        assert_eq!(server.latency().count, 0, "latency is recorded at vote, not feed");
        server.tick();
        let lat = server.latency();
        assert_eq!(lat.count, 3);
        assert!(lat.p50_ns > 0 && lat.p50_ns <= lat.p99_ns, "{lat:?}");
    }

    #[test]
    fn admit_session_rejects_duplicates_and_advances_ids() {
        let backend = Probe { classes: 6 };
        let mut server = small_server(&backend);
        let picked = server.admit_session(7, ModelId(0)).unwrap();
        assert_eq!(format!("{picked}"), "session#7");
        assert!(server.admit_session(7, ModelId(0)).is_err(), "id already in use");
        assert!(server.admit_session(3, ModelId(9)).is_err(), "unknown model");
        // try_open continues past the admitted id rather than colliding.
        let next = server.try_open().unwrap();
        assert_eq!(format!("{next}"), "session#8");
        assert_eq!(server.num_sessions(), 2);
    }

    #[test]
    fn feeding_a_closed_session_is_a_typed_error() {
        let backend = Probe { classes: 6 };
        let mut server = small_server(&backend);
        let a = server.try_open().unwrap();
        server.close(a);
        assert_eq!(server.try_feed(a, &[0.0; 100]), Err(ServeError::UnknownSession(a)));
        assert_reconciled(&server);
    }

    #[test]
    fn non_finite_audio_is_rejected_without_consuming_anything() {
        let backend = Probe { classes: 6 };
        let mut server = small_server(&backend);
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
        assert_eq!(server.stats().rejected_feeds, 2);
        // Nothing was consumed: the clean stream that follows lines up
        // exactly as if the dirty buffers had never been offered.
        let receipt = server.try_feed(a, &tone(200.0, 2_500)).unwrap();
        assert_eq!(receipt.queued, 2); // windows at 2000 and 2500
        assert_reconciled(&server);
    }

    #[test]
    fn drop_oldest_keeps_the_freshest_windows() {
        let backend = Probe { classes: 6 };
        let mut server =
            small_server(&backend).queue_bound(2).overflow_policy(OverflowPolicy::DropOldest);
        let a = server.try_open().unwrap();
        // 4000 samples make 5 windows due (2000, 2500, 3000, 3500, 4000).
        let receipt = server.try_feed(a, &tone(180.0, 4_000)).unwrap();
        assert_eq!(receipt.queued, 5, "every window is admitted under DropOldest");
        assert_eq!(receipt.dropped, 3, "the three oldest were evicted");
        assert_eq!(server.pending_windows(), 2);
        assert_reconciled(&server);
        let report = server.tick_report();
        assert_eq!(report.served, 2);
        assert_reconciled(&server);
    }

    #[test]
    fn drop_newest_preserves_the_backlog() {
        let backend = Probe { classes: 6 };
        let mut server =
            small_server(&backend).queue_bound(2).overflow_policy(OverflowPolicy::DropNewest);
        let a = server.try_open().unwrap();
        let receipt = server.try_feed(a, &tone(180.0, 4_000)).unwrap();
        assert_eq!(receipt.queued, 2, "first two windows fill the queue");
        assert_eq!(receipt.dropped, 3, "later windows are discarded");
        assert_eq!(server.pending_windows(), 2);
        assert_reconciled(&server);
    }

    #[test]
    fn reject_refuses_up_front_and_discards_mid_call() {
        let backend = Probe { classes: 6 };
        let mut server =
            small_server(&backend).queue_bound(2).overflow_policy(OverflowPolicy::Reject);
        let a = server.try_open().unwrap();
        // The queue has space at call start, then fills mid-call: the two
        // admitted windows stand, the remaining three are rejected.
        let receipt = server.try_feed(a, &tone(180.0, 4_000)).unwrap();
        assert_eq!(receipt, FeedReceipt { queued: 2, dropped: 0, rejected: 3 });
        // Now the queue is full on arrival: the whole call is refused and
        // no audio is consumed.
        assert_eq!(
            server.try_feed(a, &tone(180.0, 500)),
            Err(ServeError::Backpressure { session: a, queued: 2 })
        );
        assert_reconciled(&server);
        // Draining the queue restores service; the refused buffer can be
        // re-submitted with the stream still aligned.
        server.tick();
        let receipt = server.try_feed(a, &tone(180.0, 500)).unwrap();
        assert_eq!(receipt.queued, 1);
        assert_reconciled(&server);
    }

    #[test]
    fn tick_budget_sheds_the_oldest_windows_first() {
        let backend = Probe { classes: 6 };
        let mut server = small_server(&backend).tick_budget(3);
        let a = server.try_open().unwrap();
        let b = server.try_open().unwrap();
        server.try_feed(a, &tone(180.0, 3_000)).unwrap(); // 3 windows
        server.try_feed(b, &tone(300.0, 3_000)).unwrap(); // 3 windows
        let report = server.tick_report();
        assert_eq!(report.shed, 3, "budget 3 sheds the 3 oldest of 6");
        assert_eq!(report.served, 3);
        assert_reconciled(&server);
        // The shed windows were a's entire backlog (fed first == oldest).
        let stats = server.stats();
        assert_eq!(stats.windows_shed, 3);
        assert_eq!(stats.windows_served, 3);
    }

    #[test]
    fn session_limit_bounds_try_open() {
        let backend = Probe { classes: 6 };
        let mut server = small_server(&backend).max_sessions(2);
        let a = server.try_open().unwrap();
        let _b = server.try_open().unwrap();
        assert_eq!(server.try_open(), Err(ServeError::SessionLimit { limit: 2 }));
        // Closing makes room again.
        server.close(a);
        assert!(server.try_open().is_ok());
    }

    #[test]
    fn serve_errors_display_their_context() {
        let backend = Probe { classes: 6 };
        let mut server = small_server(&backend);
        let a = server.try_open().unwrap();
        server.close(a);
        let err = server.try_feed(a, &[0.0]).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("session#0"), "{msg}");
        assert!(std::error::Error::source(&err).is_none());
    }

    #[test]
    fn unknown_model_is_a_typed_error() {
        let backend = Probe { classes: 6 };
        let mut server = small_server(&backend);
        assert_eq!(server.num_models(), 1);
        let err = server.try_open_model(ModelId(7)).unwrap_err();
        assert_eq!(err, ServeError::UnknownModel(ModelId(7)));
        assert!(format!("{err}").contains("model#7"), "{err}");
        assert_eq!(server.num_keywords_for(ModelId(7)), None);
        assert_eq!(server.stats_for(ModelId(7)), None);
    }

    /// Two models hosted on one server must serve exactly what two
    /// independent single-model servers would — same detections, same
    /// order per session — even with sessions interleaved at feed time.
    #[test]
    fn registry_of_two_matches_two_single_model_servers() {
        let backend_a = Probe { classes: 6 };
        let backend_b = Probe { classes: 4 };
        let mut server = small_server(&backend_a);
        let mb = server.register(&backend_b, small_mfcc(), vec![0.1; 10], vec![2.0; 10]);
        assert_eq!(server.num_models(), 2);
        assert_ne!(mb, server.default_model());
        let a = server.try_open().unwrap();
        let b = server.try_open_model(mb).unwrap();
        let stream_a = tone(130.0, 6_000);
        let stream_b = tone(400.0, 6_000);
        let mut served: HashMap<SessionId, Vec<Detection>> = HashMap::new();
        for (ca, cb) in stream_a.chunks(333).zip(stream_b.chunks(333)) {
            server.try_feed(a, ca).unwrap();
            server.try_feed(b, cb).unwrap();
            for d in server.tick() {
                served.entry(d.session).or_default().push(d.detection);
            }
        }
        let mut solo_a = small_server(&backend_a);
        let sa = solo_a.try_open().unwrap();
        let mut solo_b = StreamServer::with_mfcc(
            &backend_b,
            small_config(),
            small_mfcc(),
            vec![0.1; 10],
            vec![2.0; 10],
        );
        let sb = solo_b.try_open().unwrap();
        for (id, solo, sess, stream) in
            [(a, &mut solo_a, sa, &stream_a), (b, &mut solo_b, sb, &stream_b)]
        {
            let mut want = Vec::new();
            for chunk in stream.chunks(333) {
                solo.try_feed(sess, chunk).unwrap();
                want.extend(solo.tick().into_iter().map(|d| d.detection));
            }
            assert_eq!(served.remove(&id).unwrap_or_default(), want, "{id}");
        }
        assert_reconciled(&server);
    }

    /// The aggregate counters are exactly the sum of the per-model ones,
    /// and each model's ledger reconciles against its own pending depth.
    #[test]
    fn per_model_stats_sum_to_the_aggregate() {
        let backend_a = Probe { classes: 6 };
        let backend_b = Probe { classes: 4 };
        let mut server = small_server(&backend_a).queue_bound(2).tick_budget(3);
        let mb = server.register(&backend_b, small_mfcc(), vec![0.0; 10], vec![1.0; 10]);
        let a = server.try_open().unwrap();
        let b = server.try_open_model(mb).unwrap();
        // Overfeed both sessions so drops, sheds, and serves all occur.
        for _ in 0..3 {
            let _ = server.try_feed(a, &tone(180.0, 3_000));
            let _ = server.try_feed(b, &tone(300.0, 3_000));
            server.tick();
        }
        // Close b with windows still queued so closed-window accounting
        // lands on the right model.
        let _ = server.try_feed(b, &tone(300.0, 2_500));
        server.close(b);
        server.tick();
        let agg = server.stats();
        let pa = server.stats_for(server.default_model()).unwrap();
        let pb = server.stats_for(mb).unwrap();
        for (what, total, ma, mbv) in [
            ("fed", agg.windows_fed, pa.windows_fed, pb.windows_fed),
            ("served", agg.windows_served, pa.windows_served, pb.windows_served),
            ("dropped", agg.windows_dropped, pa.windows_dropped, pb.windows_dropped),
            ("rejected", agg.windows_rejected, pa.windows_rejected, pb.windows_rejected),
            ("shed", agg.windows_shed, pa.windows_shed, pb.windows_shed),
            ("closed", agg.windows_closed, pa.windows_closed, pb.windows_closed),
            (
                "quarantined",
                agg.windows_quarantined,
                pa.windows_quarantined,
                pb.windows_quarantined,
            ),
            ("rejected_feeds", agg.rejected_feeds, pa.rejected_feeds, pb.rejected_feeds),
            ("faulted", agg.faulted_calls, pa.faulted_calls, pb.faulted_calls),
        ] {
            assert_eq!(total, ma + mbv, "{what}: aggregate vs per-model sum");
        }
        assert!(pb.windows_closed > 0, "closing b must account its queued windows to b");
        for model in [server.default_model(), mb] {
            let s = server.stats_for(model).unwrap();
            assert_eq!(
                s.windows_fed,
                s.windows_accounted() + server.pending_windows_for(model) as u64,
                "{model} ledger must reconcile: {s:?}"
            );
        }
        assert_reconciled(&server);
    }

    /// Models with different MFCC geometries (and hence different feature
    /// widths) batch independently in one tick without interfering.
    #[test]
    fn models_with_different_geometries_batch_independently() {
        let backend_a = Probe { classes: 6 };
        let backend_b = Probe { classes: 6 };
        let mut server = small_server(&backend_a);
        let wide = MfccConfig { num_coeffs: 16, ..small_mfcc() };
        let mb = server.register(&backend_b, wide, vec![0.0; 16], vec![1.0; 16]);
        let a = server.try_open().unwrap();
        let b = server.try_open_model(mb).unwrap();
        server.try_feed(a, &tone(180.0, 2_000)).unwrap();
        server.try_feed(b, &tone(300.0, 2_000)).unwrap();
        assert_eq!(server.pending_windows_for(server.default_model()), 1);
        assert_eq!(server.pending_windows_for(mb), 1);
        let report = server.tick_report();
        assert_eq!(report.served, 2);
        assert_eq!(server.stats_for(server.default_model()).unwrap().windows_served, 1);
        assert_eq!(server.stats_for(mb).unwrap().windows_served, 1);
        assert_reconciled(&server);
    }
}
