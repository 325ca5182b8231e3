//! The serving front door: [`ShardedStreamServer`] pins sessions to N
//! worker shards, each owning a shard engine (its slice of frame streams and
//! pending-window queues), fed through bounded [`crossbeam::channel`]s,
//! with adaptive deadline batching and one stats ledger cell per
//! shard × model.
//!
//! # Topology
//!
//! ```text
//!                    bounded cmd channel          worker thread (one per shard)
//!  caller ──open──▸ ┌──────────────────┐   ┌──────────────────────────────────┐
//!   id % N = shard  │ Open/Feed/Close  │──▸│ shard engine                     │
//!         ──feed──▸ │ Refused/Flush/   │   │  MFCC frames · pending · infer   │
//!                   │ Snapshot         │   │  one ServerStats cell per model  │
//!                   └──────────────────┘   └──────────────┬───────────────────┘
//!                                                         │ Vec<ServedDetection>
//!                   ┌───────────────────────◂─────────────┘
//!  caller ◂─drain── │ unbounded out channel (all shards)
//!                   └───────────────────────
//! ```
//!
//! Sessions hash to shards by `session_id % shards` and stay there for
//! life, so one shard serves every window of a given session **in feed
//! order** — that, plus row-independent backends, is the whole equivalence
//! argument: whatever the interleaving across shards, each session's
//! window sequence (and therefore its detections) is byte-identical to an
//! independent detector's, for any shard count and any flush timing.
//!
//! # Deadline batching
//!
//! A shard flushes (ticks) its pending windows when any of these fires:
//! the batch reaches [`ServeConfig::max_batch`]; a partial batch has been
//! waiting [`ServeConfig::flush_deadline`] (the worker sleeps in
//! `recv_timeout` for exactly the remainder, so the deadline needs no
//! polling thread); an explicit [`ShardedStreamServer::flush`] barrier
//! arrives; or the front door shuts down. With `flush_deadline: None` and
//! `max_batch: 0` a shard flushes **only** at explicit barriers — the
//! deterministic mode the oracle tests pin down.
//!
//! # One ledger
//!
//! Every event — a window fed, served, dropped, shed, closed or
//! quarantined, a refused feed, a faulted backend call — increments exactly
//! one [`ServerStats`] cell: the one for the session's model on the shard
//! that owns the session. No window ever crosses shards, so each cell
//! reconciles on its own (`windows_fed == windows_accounted() + pending`),
//! and every other ledger is a sum of cells: per shard
//! ([`ShardSnapshot::stats`], [`ShardedStreamServer::shard_stats`]), per
//! model ([`ShardedStreamServer::stats_for`]) and in total
//! ([`ShardedStreamServer::stats`]). A feed the front door refuses
//! (non-finite audio) is sent to the owning shard as a command too, so the
//! refusal lands in that session's cell.
//!
//! # Shard death
//!
//! A worker that panics outside the per-batch fault isolation exits, and
//! its command channel disconnects. From then on, opens and feeds that land
//! on its shard return [`ServeError::ShardUnavailable`],
//! [`ShardedStreamServer::shard_snapshots`] names it, and the other read
//! paths cover the live shards only. [`ShardedStreamServer::run`] re-raises
//! the worker's panic when it joins the workers.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crossbeam::channel;
use thnt_dsp::MfccConfig;
use thnt_nn::InferenceBackend;

use crate::artifact::InferenceMeta;
use crate::serve::error::{ModelId, ServeError, SessionId};
use crate::serve::server::StreamServer;
use crate::serve::stats::{LatencyHistogram, LatencySummary, ServedDetection, ServerStats};
use crate::streaming::StreamingConfig;

/// What to do when a feed makes a window due but the session's
/// pending-window queue is already at [`ServeConfig::queue_bound`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Evict the session's **oldest** queued window to admit the new one —
    /// real-time posture: fresh audio always wins, latency stays bounded.
    #[default]
    DropOldest,
    /// Discard the **new** window and keep the queue as-is — backlog
    /// posture: already-queued work is never thrown away.
    DropNewest,
}

/// Everything needed to host one model on every shard: the shared backend
/// reference (zero-copy: each shard borrows the same engine, so N shards
/// cost no extra model bytes) plus its MFCC geometry and normalisation
/// statistics.
pub struct ModelSpec<'m, B: InferenceBackend + ?Sized> {
    pub(crate) backend: &'m B,
    pub(crate) mfcc: MfccConfig,
    pub(crate) norm_mean: Vec<f32>,
    pub(crate) norm_std: Vec<f32>,
}

impl<'m, B: InferenceBackend + ?Sized> ModelSpec<'m, B> {
    /// Describes a model by backend, MFCC config, and normalisation stats.
    /// The statistics need one entry per MFCC coefficient, and the backend
    /// more classes than [`StreamingConfig::suppress_trailing`];
    /// [`ShardedStreamServer::run`] checks both.
    pub fn new(backend: &'m B, mfcc: MfccConfig, norm_mean: Vec<f32>, norm_std: Vec<f32>) -> Self {
        Self { backend, mfcc, norm_mean, norm_std }
    }

    /// [`Self::new`] from the serving metadata embedded in a `.thnt2`
    /// artifact.
    pub fn from_meta(backend: &'m B, meta: &InferenceMeta) -> Self {
        Self::new(backend, meta.mfcc, meta.norm_mean.clone(), meta.norm_std.clone())
    }
}

/// Configuration of the serving layer. The admission knobs (`queue_bound`,
/// `overflow`, `tick_budget`) apply per shard; the rest shape the sharding
/// itself. The backpressure a caller feels is the bounded command channel:
/// a feed into a saturated shard blocks until the worker drains.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Number of worker shards (threads); 0 is treated as 1.
    pub shards: usize,
    /// Flush a shard's batch at this many pending windows, and cap windows
    /// per backend call. `0` = unbounded (flush only on deadline/barrier).
    pub max_batch: usize,
    /// Per-session pending-window cap; `0` = unbounded.
    pub queue_bound: usize,
    /// Policy when a due window meets a full session queue.
    pub overflow: OverflowPolicy,
    /// Max windows one shard infers per flush — the latency budget. When
    /// more are pending, the **oldest** are shed before inference and
    /// counted in [`ServerStats::windows_shed`]. Shedding saves inference
    /// only: every offered window's new frames were extracted as its audio
    /// arrived. `0` = unbounded.
    pub tick_budget: usize,
    /// Max concurrent sessions across all shards (enforced at the
    /// front door); `0` = unbounded.
    pub max_sessions: usize,
    /// Adaptive deadline: a shard holding a partial batch this long flushes
    /// it rather than waiting for `max_batch`. `None` disables the
    /// deadline (batches flush on size or explicit barrier only).
    pub flush_deadline: Option<Duration>,
    /// Capacity of each shard's bounded command channel; feeds beyond it
    /// block the caller (backpressure). 0 is treated as 1.
    pub channel_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            max_batch: 64,
            queue_bound: 0,
            overflow: OverflowPolicy::default(),
            tick_budget: 0,
            max_sessions: 0,
            flush_deadline: None,
            channel_capacity: 64,
        }
    }
}

impl ServeConfig {
    /// Default configuration over `shards` worker shards.
    pub fn with_shards(shards: usize) -> Self {
        Self { shards, ..Self::default() }
    }

    /// Deterministic test mode over `shards` shards: no size trigger, no
    /// deadline — batches flush **only** at explicit
    /// [`ShardedStreamServer::flush`] barriers, so the surviving-window set
    /// under overload policies is a pure function of the command sequence.
    pub fn deterministic(shards: usize) -> Self {
        Self { shards, max_batch: 0, flush_deadline: None, ..Self::default() }
    }

    /// Shard count from the `THNT_SERVE_SHARDS` environment variable, or
    /// `default` when unset/unparsable/zero. CI reruns the serving suites
    /// under `THNT_SERVE_SHARDS=1` and `=4` to prove shard-count
    /// invariance on real schedules.
    pub fn shards_from_env(default: usize) -> usize {
        std::env::var("THNT_SERVE_SHARDS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(default)
    }
}

/// One shard's quiescent view of itself, taken at a
/// [`ShardedStreamServer::shard_snapshots`] barrier: its ledger cells,
/// queue depths, and latency histogram. Snapshots are FIFO-consistent —
/// every command the front door sent before the snapshot request is
/// reflected.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Which shard this snapshot describes.
    pub shard: usize,
    /// The shard's ledger cells, one per model, indexed by
    /// [`ModelId::raw`]. Every event on the shard lands in exactly one.
    pub per_model: Vec<ServerStats>,
    /// Pending windows per model, indexed like `per_model`.
    pub per_model_pending: Vec<usize>,
    /// Sessions currently open on this shard.
    pub sessions: usize,
    /// Feed-to-vote latency histogram of windows this shard served.
    pub latency: LatencyHistogram,
    /// Time since the shard was built.
    pub uptime: Duration,
}

impl ShardSnapshot {
    /// The shard's ledger: the sum of its per-model cells.
    pub fn stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for cell in &self.per_model {
            total.merge(cell);
        }
        total
    }

    /// Windows currently pending on this shard (its queue depth).
    pub fn pending_windows(&self) -> usize {
        self.per_model_pending.iter().sum()
    }

    /// Windows this shard has served per second of uptime.
    pub fn windows_per_sec(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs > 0.0 {
            self.stats().windows_served as f64 / secs
        } else {
            0.0
        }
    }
}

/// A command on a shard's bounded channel. Every session-scoped command for
/// one session travels the same FIFO channel, which is what makes the shard
/// serve that session's windows in feed order.
enum Cmd {
    /// Admit a session under a front-door-assigned id.
    Open { session: u64, model: ModelId },
    /// Close a session; its queued windows are accounted `closed` at the
    /// shard's next flush.
    Close { session: u64 },
    /// Count a feed the front door refused against a model's cell.
    Refused { model: usize },
    /// Extract a session's new frames from the audio; due windows join the
    /// shard's pending queue under the configured admission policy.
    Feed { session: u64, samples: Vec<f32> },
    /// Flush the shard's pending batch now and acknowledge. Detections are
    /// emitted before the ack, so a post-barrier drain sees them all.
    Flush { done: channel::Sender<()> },
    /// Reply with the shard's current [`ShardSnapshot`].
    Snapshot { reply: channel::Sender<ShardSnapshot> },
}

/// The serving front door: sessions pinned to N worker shards,
/// bounded-channel ingestion, per-shard MFCC as audio arrives and batched
/// inference with deadline batching, and one ledger cell per shard × model.
///
/// Built with [`ShardedStreamServer::run`], which scopes the worker
/// threads: the closure receives the front-door handle, and every worker is
/// flushed and joined before `run` returns.
///
/// # Example
///
/// ```
/// use thnt_core::serve::{ModelSpec, ServeConfig, ShardedStreamServer};
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
/// let spec = ModelSpec::new(
///     &backend, thnt_dsp::MfccConfig::paper(), vec![0.0; 10], vec![1.0; 10]);
/// let served = ShardedStreamServer::run(
///     vec![spec],
///     StreamingConfig::default(),
///     ServeConfig::with_shards(2),
///     |server| -> Result<u64, thnt_core::ServeError> {
///         let a = server.try_open()?; // lands on shard 0
///         let b = server.try_open()?; // lands on shard 1
///         server.try_feed(a, &vec![0.0; 24_000])?;
///         server.try_feed(b, &vec![0.0; 24_000])?;
///         let detections = server.flush(); // barrier: both shards tick
///         assert!(detections.is_empty()); // uniform posteriors: no detects
///         Ok(server.stats().windows_served)
///     },
/// )?;
/// assert_eq!(served, 4); // two due windows per session, across 2 shards
/// # Ok(()) }
/// ```
pub struct ShardedStreamServer {
    cmd: Vec<channel::Sender<Cmd>>,
    out: channel::Receiver<Vec<ServedDetection>>,
    next_id: u64,
    /// Front-door session table: id → model index. Mirrors the union of the
    /// shards' tables; used for synchronous validation (unknown session,
    /// unknown model, session limit) without a worker round-trip.
    sessions: HashMap<u64, usize>,
    num_models: usize,
    max_sessions: usize,
}

impl ShardedStreamServer {
    /// Builds one shard engine per [`ServeConfig::shards`], each hosting
    /// every model in `models`, spawns a worker thread per shard, runs `f`
    /// with the front-door handle, then flushes and joins every worker. The
    /// models' backends are shared by reference across shards (`B: Sync`),
    /// so a zero-copy engine borrowed from a mapped artifact serves all
    /// shards without duplication.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty, if a model's statistics do not have one
    /// entry per MFCC coefficient, if its sample rate makes a window of no
    /// samples, or if its backend's class count does not exceed
    /// [`StreamingConfig::suppress_trailing`] — all before any worker
    /// starts. Re-raises the panic of a worker that died (see
    /// [`ServeError::ShardUnavailable`]) once `f` has returned and the
    /// workers are joined.
    pub fn run<B, R>(
        models: Vec<ModelSpec<'_, B>>,
        config: StreamingConfig,
        serve: ServeConfig,
        f: impl FnOnce(&mut ShardedStreamServer) -> R,
    ) -> R
    where
        B: InferenceBackend + Sync + ?Sized,
    {
        assert!(!models.is_empty(), "a sharded server needs at least one model");
        let shards: Vec<_> = (0..serve.shards.max(1))
            .map(|shard| StreamServer::new(shard, &models, config, &serve))
            .collect();
        let (txs, rxs): (Vec<_>, Vec<_>) =
            shards.iter().map(|_| channel::bounded(serve.channel_capacity.max(1))).unzip();
        let (out_tx, out_rx) = channel::unbounded();
        let mut front = ShardedStreamServer {
            cmd: txs,
            out: out_rx,
            next_id: 0,
            sessions: HashMap::new(),
            num_models: models.len(),
            max_sessions: serve.max_sessions,
        };
        std::thread::scope(move |scope| {
            let workers: Vec<_> = shards
                .into_iter()
                .zip(rxs)
                .map(|(shard, rx)| {
                    let out = out_tx.clone();
                    scope.spawn(move || worker(shard, rx, out, serve))
                })
                .collect();
            drop(out_tx);
            let result = f(&mut front);
            // Disconnecting the command channels makes each live worker
            // flush its remaining batch and exit.
            drop(front);
            for worker in workers {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            result
        })
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.cmd.len()
    }

    /// Number of models hosted on every shard (at least one).
    pub fn num_models(&self) -> usize {
        self.num_models
    }

    /// The first model in the spec list — the one [`Self::try_open`] binds
    /// sessions to.
    pub fn default_model(&self) -> ModelId {
        ModelId::new(0)
    }

    /// The shard that owns `id`'s frame stream, pending windows, and
    /// detections (`id % shards`; fixed for the session's life).
    pub fn shard_of(&self, id: SessionId) -> usize {
        (id.raw() % self.cmd.len() as u64) as usize
    }

    /// Sessions currently open across all shards.
    pub fn num_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Sends `cmd` to `shard`'s worker; a worker that has exited has
    /// dropped its receiver, which makes the shard unavailable.
    fn send(&self, shard: usize, cmd: Cmd) -> Result<(), ServeError> {
        self.cmd[shard].send(cmd).map_err(|_| ServeError::ShardUnavailable { shard })
    }

    /// Opens a session on the default model. See [`Self::try_open_model`].
    ///
    /// # Errors
    ///
    /// As [`Self::try_open_model`].
    pub fn try_open(&mut self) -> Result<SessionId, ServeError> {
        self.try_open_model(ModelId::new(0))
    }

    /// Opens a session bound to a registered model and pins it to shard
    /// `id % shards`. Validation (unknown model, session limit) happens
    /// synchronously at the front door; admission on the owning shard
    /// follows in FIFO order, ahead of any feed for the session.
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownModel`] — `model` is out of range.
    /// * [`ServeError::SessionLimit`] — [`ServeConfig::max_sessions`] is
    ///   set and reached (across all shards).
    /// * [`ServeError::ShardUnavailable`] — the session's shard has died.
    ///   Its id is spent, so the next open lands on the next shard.
    pub fn try_open_model(&mut self, model: ModelId) -> Result<SessionId, ServeError> {
        if (model.raw() as usize) >= self.num_models {
            return Err(ServeError::UnknownModel(model));
        }
        if self.max_sessions > 0 && self.sessions.len() >= self.max_sessions {
            return Err(ServeError::SessionLimit { limit: self.max_sessions });
        }
        let id = SessionId::from_raw(self.next_id);
        self.next_id += 1;
        self.send(self.shard_of(id), Cmd::Open { session: id.raw(), model })?;
        self.sessions.insert(id.raw(), model.raw() as usize);
        Ok(id)
    }

    /// Closes a session. Audio already fed keeps flowing through the
    /// shard's FIFO: windows still queued there when the close lands are
    /// accounted `windows_closed` at the shard's next flush. Returns whether
    /// the session was open.
    pub fn close(&mut self, id: SessionId) -> bool {
        if self.sessions.remove(&id.raw()).is_none() {
            return false;
        }
        // A dead shard holds nothing left to close.
        let _ = self.send(self.shard_of(id), Cmd::Close { session: id.raw() });
        true
    }

    /// Feeds audio into `id`'s stream via its shard's bounded channel.
    /// Feature extraction and admission (queue bounds, overflow policy,
    /// window accounting) run on the worker; a feed into a saturated shard
    /// blocks until the worker drains — that blocking *is* the
    /// backpressure.
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownSession`] — `id` was never opened or is
    ///   closed.
    /// * [`ServeError::NonFiniteAudio`] — `samples` contains `NaN`/`±inf`.
    ///   No sample is dispatched, so the caller can clean the buffer and
    ///   re-submit it whole; the refusal counts in `rejected_feeds` of the
    ///   session's cell.
    /// * [`ServeError::ShardUnavailable`] — the session's shard has died,
    ///   and with it the session.
    pub fn try_feed(&mut self, id: SessionId, samples: &[f32]) -> Result<(), ServeError> {
        let Some(&model) = self.sessions.get(&id.raw()) else {
            return Err(ServeError::UnknownSession(id));
        };
        let shard = self.shard_of(id);
        if let Some(offset) = samples.iter().position(|v| !v.is_finite()) {
            self.send(shard, Cmd::Refused { model })?;
            return Err(ServeError::NonFiniteAudio { session: id, offset });
        }
        self.send(shard, Cmd::Feed { session: id.raw(), samples: samples.to_vec() })
    }

    /// Collects every detection the shards have emitted so far without
    /// blocking (deadline and size-triggered flushes emit autonomously).
    /// Within one session, detections arrive in stream order; across
    /// sessions the interleaving follows flush timing.
    pub fn drain(&mut self) -> Vec<ServedDetection> {
        let mut out = Vec::new();
        while let Ok(batch) = self.out.try_recv() {
            out.extend(batch);
        }
        out
    }

    /// Barrier: makes every live shard flush its pending batch now, waits
    /// for their acks, and returns everything emitted up to and including
    /// those flushes. After `flush` returns, no window fed to a live shard
    /// before the call is still pending.
    pub fn flush(&mut self) -> Vec<ServedDetection> {
        let acks: Vec<channel::Receiver<()>> = self
            .cmd
            .iter()
            .map(|tx| {
                let (done, ack) = channel::bounded(1);
                let _ = tx.send(Cmd::Flush { done });
                ack
            })
            .collect();
        for ack in acks {
            // A dead shard drops the request, which ends the wait.
            let _ = ack.recv();
        }
        // Each worker enqueued its detections on the out channel before
        // acking, so this drain observes every pre-barrier window.
        self.drain()
    }

    /// One snapshot per shard in shard order, `None` for a shard whose
    /// worker has exited. Every request is sent before any reply is
    /// awaited, so the shards answer in parallel.
    fn snapshots(&self) -> Vec<Option<ShardSnapshot>> {
        let replies: Vec<_> = self.cmd.iter().map(request_snapshot).collect();
        replies.into_iter().map(|rx| rx.recv().ok()).collect()
    }

    /// One quiescent snapshot per shard (FIFO-consistent: reflects every
    /// command sent before this call), in shard order.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShardUnavailable`] naming the first shard whose worker
    /// has exited.
    pub fn shard_snapshots(&self) -> Result<Vec<ShardSnapshot>, ServeError> {
        self.snapshots()
            .into_iter()
            .enumerate()
            .map(|(shard, snap)| snap.ok_or(ServeError::ShardUnavailable { shard }))
            .collect()
    }

    /// Lifetime counters summed over every cell of the live shards. Each
    /// cell reconciles, so the total does too:
    /// `windows_fed == windows_accounted() + pending_windows()`.
    pub fn stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for snap in self.snapshots().into_iter().flatten() {
            total.merge(&snap.stats());
        }
        total
    }

    /// One model's cells summed across the live shards, or `None` for a
    /// handle out of range. Reconciles against that model's pending windows
    /// summed across the same shards.
    pub fn stats_for(&self, model: ModelId) -> Option<ServerStats> {
        let m = model.raw() as usize;
        if m >= self.num_models {
            return None;
        }
        let mut total = ServerStats::default();
        for snap in self.snapshots().into_iter().flatten() {
            if let Some(cell) = snap.per_model.get(m) {
                total.merge(cell);
            }
        }
        Some(total)
    }

    /// One shard's cells summed across models, or `None` for a shard out of
    /// range or one whose worker has exited. Reconciles against that
    /// shard's queue depth.
    pub fn shard_stats(&self, shard: usize) -> Option<ServerStats> {
        request_snapshot(self.cmd.get(shard)?).recv().ok().map(|snap| snap.stats())
    }

    /// Windows currently pending across the live shards.
    pub fn pending_windows(&self) -> usize {
        self.snapshots().iter().flatten().map(ShardSnapshot::pending_windows).sum()
    }

    /// Feed-to-vote latency quantiles over every window the live shards
    /// served, merged bucket-wise (exact: equals the histogram of the union
    /// of samples).
    pub fn latency(&self) -> LatencySummary {
        let mut merged = LatencyHistogram::new();
        for snap in self.snapshots().into_iter().flatten() {
            merged.merge(&snap.latency);
        }
        merged.summary()
    }
}

impl std::fmt::Debug for ShardedStreamServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStreamServer")
            .field("shards", &self.cmd.len())
            .field("models", &self.num_models)
            .field("sessions", &self.sessions.len())
            .finish()
    }
}

/// Asks one shard for its snapshot. A dead shard drops the request, so the
/// returned receiver reports the disconnect instead of a snapshot.
fn request_snapshot(tx: &channel::Sender<Cmd>) -> channel::Receiver<ShardSnapshot> {
    let (reply, rx) = channel::bounded(1);
    let _ = tx.send(Cmd::Snapshot { reply });
    rx
}

/// Ticks the shard and emits any detections. The send happens before any
/// subsequent `Flush` ack on the same worker, which is what makes
/// [`ShardedStreamServer::flush`] lossless.
fn flush_shard<B: InferenceBackend + ?Sized>(
    shard: &mut StreamServer<'_, B>,
    out: &channel::Sender<Vec<ServedDetection>>,
) {
    let detections = shard.tick();
    if !detections.is_empty() {
        // The front door dropping its receiver mid-shutdown is the only
        // failure; those detections are undeliverable by construction.
        let _ = out.send(detections);
    }
}

/// One shard's worker loop: drain the FIFO command channel into the shard
/// engine, flushing on batch size, deadline expiry, explicit barrier, or
/// shutdown.
fn worker<B: InferenceBackend + ?Sized>(
    mut shard: StreamServer<'_, B>,
    rx: channel::Receiver<Cmd>,
    out: channel::Sender<Vec<ServedDetection>>,
    serve: ServeConfig,
) {
    // While a partial batch is pending, when did it start waiting?
    let mut batch_since: Option<Instant> = None;
    loop {
        // Sleep on the channel; with a partial batch and a deadline, sleep
        // only until the flush is due.
        let received = match (batch_since, serve.flush_deadline) {
            (Some(t0), Some(deadline)) => match deadline.checked_sub(t0.elapsed()) {
                Some(rem) if !rem.is_zero() => match rx.recv_timeout(rem) {
                    Ok(cmd) => Some(cmd),
                    Err(channel::RecvTimeoutError::Timeout) => None,
                    Err(channel::RecvTimeoutError::Disconnected) => break,
                },
                // Deadline already passed while handling other commands.
                _ => None,
            },
            _ => match rx.recv() {
                Ok(cmd) => Some(cmd),
                Err(channel::RecvError) => break,
            },
        };
        let Some(cmd) = received else {
            // Deadline flush: the partial batch has waited long enough.
            flush_shard(&mut shard, &out);
            batch_since = None;
            continue;
        };
        match cmd {
            Cmd::Open { session, model } => {
                // The front door validated the model and never reuses an
                // id, so admission cannot fail.
                let _ = shard.admit_session(session, model);
            }
            Cmd::Close { session } => shard.close(session),
            Cmd::Refused { model } => shard.refuse(model),
            Cmd::Feed { session, samples } => {
                shard.feed(session, &samples);
                if shard.pending_windows() == 0 {
                    batch_since = None;
                } else {
                    if batch_since.is_none() {
                        batch_since = Some(Instant::now());
                    }
                    if serve.max_batch > 0 && shard.pending_windows() >= serve.max_batch {
                        flush_shard(&mut shard, &out);
                        batch_since = None;
                    }
                }
            }
            Cmd::Flush { done } => {
                flush_shard(&mut shard, &out);
                batch_since = None;
                let _ = done.send(());
            }
            Cmd::Snapshot { reply } => {
                let _ = reply.send(shard.snapshot());
            }
        }
    }
    // Front door gone: serve whatever was accepted, then exit. `run` joins
    // this thread before returning.
    flush_shard(&mut shard, &out);
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::streaming::tests::small_mfcc;
    use thnt_tensor::Tensor;

    /// Same deterministic input-dependent stub as the server tests: each
    /// logit is a fixed linear functional of the window, row by row.
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

    fn chirp(n: usize, seed: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let t = i as f32 / 2_000.0;
                let f = 40.0 + (seed % 13) as f32 * 17.0;
                (2.0 * std::f32::consts::PI * f * t).sin() * (0.4 + 0.2 * ((seed % 7) as f32))
            })
            .collect()
    }

    fn spec(backend: &Probe) -> ModelSpec<'_, Probe> {
        ModelSpec::new(backend, small_mfcc(), vec![0.0; 10], vec![1.0; 10])
    }

    #[test]
    fn sessions_pin_to_shards_by_id() {
        let backend = Probe { classes: 6 };
        ShardedStreamServer::run(
            vec![spec(&backend)],
            small_config(),
            ServeConfig::deterministic(3),
            |server| {
                assert_eq!(server.shards(), 3);
                for expect in [0usize, 1, 2, 0, 1] {
                    let id = server.try_open().unwrap();
                    assert_eq!(server.shard_of(id), expect);
                }
                assert_eq!(server.num_sessions(), 5);
            },
        );
    }

    fn by_session(
        dets: &[ServedDetection],
    ) -> HashMap<SessionId, Vec<crate::streaming::Detection>> {
        let mut map: HashMap<SessionId, Vec<crate::streaming::Detection>> = HashMap::new();
        for d in dets {
            map.entry(d.session).or_default().push(d.detection.clone());
        }
        map
    }

    #[test]
    fn sharded_detections_match_single_threaded_server_for_any_shard_count() {
        let backend = Probe { classes: 6 };
        // Reference: one shard engine driven on this thread over the same
        // five streams.
        let mut reference =
            StreamServer::new(0, &[spec(&backend)], small_config(), &ServeConfig::deterministic(1));
        for id in 0..5 {
            reference.admit_session(id, ModelId::new(0)).unwrap();
        }
        let mut expected = Vec::new();
        for round in 0..4u64 {
            for s in 0..5 {
                reference.feed(s, &chirp(1100, s * 5 + round));
            }
            expected.extend(reference.tick());
        }
        expected.extend(reference.tick());
        assert!(reference.snapshot().stats().windows_served > 0);
        let expected = by_session(&expected);

        for shards in [1usize, 2, 4, 7] {
            let got = ShardedStreamServer::run(
                vec![spec(&backend)],
                small_config(),
                ServeConfig::deterministic(shards),
                |server| {
                    let mut ids = Vec::new();
                    for _ in 0..5 {
                        ids.push(server.try_open().unwrap());
                    }
                    let mut got = Vec::new();
                    for round in 0..4u64 {
                        for (s, &id) in ids.iter().enumerate() {
                            server.try_feed(id, &chirp(1100, s as u64 * 5 + round)).unwrap();
                        }
                        got.extend(server.flush());
                    }
                    got.extend(server.flush());
                    got
                },
            );
            assert_eq!(by_session(&got), expected, "shard count {shards} diverged");
        }
    }

    #[test]
    fn stats_matrix_reconciles_to_both_marginals() {
        let fast = Probe { classes: 6 };
        let slow = Probe { classes: 9 };
        let specs =
            vec![spec(&fast), ModelSpec::new(&slow, small_mfcc(), vec![0.0; 10], vec![1.0; 10])];
        ShardedStreamServer::run(specs, small_config(), ServeConfig::deterministic(3), |server| {
            let mut ids = Vec::new();
            for s in 0..7u32 {
                let model = ModelId::new(s % 2);
                ids.push(server.try_open_model(model).unwrap());
            }
            for (s, &id) in ids.iter().enumerate() {
                server.try_feed(id, &chirp(2_600, s as u64)).unwrap();
            }
            // One refused feed lands in session 0's cell: shard 0, model 0.
            assert!(matches!(
                server.try_feed(ids[0], &[0.0, f32::NAN]),
                Err(ServeError::NonFiniteAudio { .. })
            ));
            server.flush();

            let snaps = server.shard_snapshots().unwrap();
            assert_eq!(snaps.len(), 3);
            assert_eq!(snaps[0].per_model[0].rejected_feeds, 1);
            let mut grand = ServerStats::default();
            for snap in &snaps {
                assert_eq!(snap.per_model.len(), 2);
                for cell in &snap.per_model {
                    // Per-cell ledger identity at a quiescent point.
                    assert_eq!(cell.windows_fed, cell.windows_accounted(), "shard {}", snap.shard);
                    grand.merge(cell);
                }
                assert_eq!(Some(snap.stats()), server.shard_stats(snap.shard));
            }
            for m in 0..2u32 {
                let mut model_sum = ServerStats::default();
                for snap in &snaps {
                    model_sum.merge(&snap.per_model[m as usize]);
                }
                assert_eq!(Some(model_sum), server.stats_for(ModelId::new(m)));
            }
            assert_eq!(grand, server.stats());
            assert_eq!(grand.rejected_feeds, 1);
            assert!(grand.windows_served > 0);
            assert_eq!(server.latency().count, grand.windows_served);
            assert_eq!(server.shard_stats(3), None, "shard out of range");
        });
    }

    #[test]
    fn deadline_flushes_partial_batch_without_a_barrier() {
        let backend = Probe { classes: 6 };
        let serve = ServeConfig {
            shards: 2,
            max_batch: 1_000, // size trigger unreachable
            flush_deadline: Some(Duration::from_millis(20)),
            ..ServeConfig::default()
        };
        ShardedStreamServer::run(vec![spec(&backend)], small_config(), serve, |server| {
            let a = server.try_open().unwrap();
            let b = server.try_open().unwrap();
            server.try_feed(a, &chirp(2_600, 1)).unwrap(); // 2 due windows
            server.try_feed(b, &chirp(2_600, 2)).unwrap(); // 2 due windows
                                                           // No barrier: the partial batches must flush on the deadline.
            let deadline = Instant::now() + Duration::from_secs(10);
            while server.stats().windows_served < 4 {
                assert!(Instant::now() < deadline, "deadline flush never happened");
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(server.pending_windows(), 0);
        });
    }

    #[test]
    fn front_end_validation_is_synchronous() {
        let backend = Probe { classes: 6 };
        let serve = ServeConfig { max_sessions: 2, ..ServeConfig::deterministic(2) };
        ShardedStreamServer::run(vec![spec(&backend)], small_config(), serve, |server| {
            assert!(matches!(
                server.try_open_model(ModelId::new(5)),
                Err(ServeError::UnknownModel(_))
            ));
            let a = server.try_open().unwrap();
            let _b = server.try_open().unwrap();
            assert!(matches!(server.try_open(), Err(ServeError::SessionLimit { limit: 2 })));
            assert!(server.close(a));
            assert!(!server.close(a), "double close reports false");
            assert!(matches!(server.try_feed(a, &[0.0; 4]), Err(ServeError::UnknownSession(_))));
            // Ids keep advancing after close: c is id 2, pinned to 2 % 2 = 0.
            let c = server.try_open().unwrap();
            assert_eq!(server.shard_of(c), 0);
            assert_ne!(c, a, "closed ids are never reused");
        });
    }
}
