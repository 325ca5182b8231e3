//! The sharded multi-threaded serving front-end: [`ShardedStreamServer`]
//! pins sessions to N worker shards, each owning a shard-local
//! [`StreamServer`] (its slice of ring buffers and pending-window queues),
//! fed through bounded [`crossbeam::channel`]s, with adaptive deadline
//! batching and per-shard × per-model stats that reconcile exactly.
//!
//! # Topology
//!
//! ```text
//!                    bounded cmd channel          worker thread (one per shard)
//!  caller ──open──▸ ┌──────────────────┐   ┌──────────────────────────────────┐
//!   id % N = shard  │ Open/Feed/Close  │──▸│ shard-local StreamServer         │
//!         ──feed──▸ │ Flush/Snapshot   │   │  rings · pending · MFCC · infer  │
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
//! arrives; or the front-end shuts down. With `flush_deadline: None` and
//! `max_batch: 0` a shard flushes **only** at explicit barriers — the
//! deterministic mode the oracle tests pin down.
//!
//! # Stats reconciliation
//!
//! Every shard keeps the full per-model [`ServerStats`] ledger of its own
//! windows and nothing else — no window ever crosses shards — so the
//! model × shard cells reconcile independently
//! (`windows_fed == windows_accounted() + pending` per cell), and sums
//! along either axis ([`ShardedStreamServer::stats_for`],
//! [`ShardedStreamServer::shard_stats`]) or both
//! ([`ShardedStreamServer::stats`]) reconcile too. Feed calls the
//! front-end refuses before dispatch (non-finite audio) are accounted
//! client-side per (shard, model) and folded into `rejected_feeds` at
//! every read, so nothing is double- or un-counted.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crossbeam::channel;
use thnt_dsp::MfccConfig;
use thnt_nn::InferenceBackend;

use crate::artifact::InferenceMeta;
use crate::serve::error::{ModelId, ServeError, SessionId};
use crate::serve::server::{OverflowPolicy, StreamServer};
use crate::serve::stats::{LatencyHistogram, LatencySummary, ServedDetection, ServerStats};
use crate::streaming::StreamingConfig;

/// Everything needed to host one model on every shard: the shared backend
/// reference (zero-copy: each shard borrows the same engine, so N shards
/// cost no extra model bytes) plus its MFCC geometry and normalisation
/// statistics.
pub struct ModelSpec<'m, B: InferenceBackend + ?Sized> {
    backend: &'m B,
    mfcc: MfccConfig,
    norm_mean: Vec<f32>,
    norm_std: Vec<f32>,
}

impl<'m, B: InferenceBackend + ?Sized> ModelSpec<'m, B> {
    /// Describes a model by backend, MFCC config, and normalisation stats
    /// (same contract as [`StreamServer::with_mfcc`]).
    pub fn new(backend: &'m B, mfcc: MfccConfig, norm_mean: Vec<f32>, norm_std: Vec<f32>) -> Self {
        Self { backend, mfcc, norm_mean, norm_std }
    }

    /// [`Self::new`] from the serving metadata embedded in a `.thnt2`
    /// artifact.
    pub fn from_meta(backend: &'m B, meta: &InferenceMeta) -> Self {
        Self::new(backend, meta.mfcc, meta.norm_mean.clone(), meta.norm_std.clone())
    }
}

/// Configuration of the sharded serving layer. The admission knobs
/// (`queue_bound`, `overflow`, `tick_budget`) mirror the [`StreamServer`]
/// builders and apply per shard-local server; the rest shape the sharding
/// itself.
///
/// One behavioural divergence from the single-threaded server: admission
/// runs on the worker thread, so under [`OverflowPolicy::Reject`] the
/// up-front [`ServeError::Backpressure`] refusal cannot be returned to the
/// caller synchronously — the feed is accepted by the channel and the
/// refusal lands in the stats (`rejected_feeds` / `windows_rejected`)
/// instead. Backpressure a caller *can* feel is the bounded command
/// channel: a feed into a saturated shard blocks until the worker drains.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Number of worker shards (threads); 0 is treated as 1.
    pub shards: usize,
    /// Flush a shard's batch at this many pending windows, and cap windows
    /// per backend call. `0` = unbounded (flush only on deadline/barrier).
    pub max_batch: usize,
    /// Per-session pending-window cap ([`StreamServer::queue_bound`]);
    /// `0` = unbounded.
    pub queue_bound: usize,
    /// Policy when a due window meets a full session queue.
    pub overflow: OverflowPolicy,
    /// Per-tick latency budget ([`StreamServer::tick_budget`]); `0` =
    /// unbounded.
    pub tick_budget: usize,
    /// Max concurrent sessions across all shards (enforced at the
    /// front-end); `0` = unbounded.
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
/// [`ShardedStreamServer::shard_snapshots`] barrier: the shard's aggregate
/// and per-model ledgers, queue depth, and latency histogram. Snapshots are
/// FIFO-consistent — every command the front-end sent before the snapshot
/// request is reflected.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Which shard this snapshot describes.
    pub shard: usize,
    /// The shard's aggregate ledger (sum of its per-model cells).
    pub stats: ServerStats,
    /// The shard's per-model cells, indexed by [`ModelId::raw`].
    pub per_model: Vec<ServerStats>,
    /// Windows currently pending on this shard (its queue depth).
    pub pending_windows: usize,
    /// Pending windows per model, indexed like `per_model`.
    pub per_model_pending: Vec<usize>,
    /// Sessions currently open on this shard.
    pub sessions: usize,
    /// Feed-to-vote latency histogram of windows this shard served.
    pub latency: LatencyHistogram,
    /// Time since the shard's worker started.
    pub uptime: Duration,
}

impl ShardSnapshot {
    /// Windows this shard has served per second of uptime.
    pub fn windows_per_sec(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs > 0.0 {
            self.stats.windows_served as f64 / secs
        } else {
            0.0
        }
    }
}

/// A command on a shard's bounded channel. Every session-scoped command for
/// one session travels the same FIFO channel, which is what makes the shard
/// serve that session's windows in feed order.
enum Cmd {
    /// Admit a session under a front-end-assigned id.
    Open { session: u64, model: ModelId },
    /// Close a session; its queued windows are accounted `closed` at the
    /// shard's next flush.
    Close { session: u64 },
    /// Buffer audio into a session's ring; due windows join the shard's
    /// pending queue under the configured admission policy.
    Feed { session: u64, samples: Vec<f32> },
    /// Flush the shard's pending batch now and acknowledge. Detections are
    /// emitted before the ack, so a post-barrier drain sees them all.
    Flush { done: channel::Sender<()> },
    /// Reply with the shard's current [`ShardSnapshot`].
    Snapshot { reply: channel::Sender<ShardSnapshot> },
}

/// The multi-threaded serving front-end: sessions pinned to N worker
/// shards, bounded-channel ingestion, per-shard batched MFCC + inference
/// with deadline batching, exactly-reconciled per-shard × per-model stats.
///
/// Built with [`ShardedStreamServer::run`], which scopes the worker
/// threads: the closure receives the front-end handle, and every worker is
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
    /// Front-end session table: id → model index. Mirrors the union of the
    /// shards' tables; used for synchronous validation (unknown session,
    /// unknown model, session limit) without a worker round-trip.
    sessions: HashMap<u64, usize>,
    num_models: usize,
    max_sessions: usize,
    /// Feed calls refused client-side (non-finite audio) per
    /// `[shard][model]`; folded into `rejected_feeds` at every stats read.
    refused: Vec<Vec<u64>>,
}

impl ShardedStreamServer {
    /// Spawns one worker thread per [`ServeConfig::shards`], each hosting
    /// every model in `models` on a shard-local [`StreamServer`], runs `f`
    /// with the front-end handle, then flushes and joins every worker. The
    /// models' backends are shared by reference across shards (`B: Sync`),
    /// so a zero-copy engine borrowed from a mapped artifact serves all
    /// shards without duplication.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty, or on the same per-model construction
    /// contract as [`StreamServer::new`] (statistics length, class count).
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
        let shard_count = serve.shards.max(1);
        let cap = serve.channel_capacity.max(1);
        let mut txs = Vec::with_capacity(shard_count);
        let mut rxs = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let (tx, rx) = channel::bounded(cap);
            txs.push(tx);
            rxs.push(rx);
        }
        let (out_tx, out_rx) = channel::unbounded();
        let models_ref = &models;
        std::thread::scope(move |scope| {
            for (shard, rx) in rxs.into_iter().enumerate() {
                let out = out_tx.clone();
                scope.spawn(move || worker(shard, rx, out, models_ref, config, serve));
            }
            drop(out_tx);
            let mut front = ShardedStreamServer {
                cmd: txs,
                out: out_rx,
                next_id: 0,
                sessions: HashMap::new(),
                num_models: models_ref.len(),
                max_sessions: serve.max_sessions,
                refused: vec![vec![0; models_ref.len()]; shard_count],
            };
            f(&mut front)
            // `front` drops here, disconnecting the command channels; each
            // worker flushes its remaining batch and exits, and the scope
            // joins them before `run` returns.
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

    /// The shard that owns `id`'s ring buffer, pending windows, and
    /// detections (`id % shards`; fixed for the session's life).
    pub fn shard_of(&self, id: SessionId) -> usize {
        (id.raw() % self.cmd.len() as u64) as usize
    }

    /// Sessions currently open across all shards.
    pub fn num_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Opens a session on the default model. See [`Self::try_open_model`].
    ///
    /// # Errors
    ///
    /// [`ServeError::SessionLimit`] when [`ServeConfig::max_sessions`] is
    /// set and reached.
    pub fn try_open(&mut self) -> Result<SessionId, ServeError> {
        self.try_open_model(ModelId::new(0))
    }

    /// Opens a session bound to a registered model and pins it to shard
    /// `id % shards`. Validation (unknown model, session limit) happens
    /// synchronously at the front-end; admission on the owning shard
    /// follows in FIFO order, ahead of any feed for the session.
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownModel`] — `model` is out of range.
    /// * [`ServeError::SessionLimit`] — [`ServeConfig::max_sessions`] is
    ///   set and reached (across all shards).
    pub fn try_open_model(&mut self, model: ModelId) -> Result<SessionId, ServeError> {
        if (model.raw() as usize) >= self.num_models {
            return Err(ServeError::UnknownModel(model));
        }
        if self.max_sessions > 0 && self.sessions.len() >= self.max_sessions {
            return Err(ServeError::SessionLimit { limit: self.max_sessions });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.sessions.insert(id, model.raw() as usize);
        let shard = (id % self.cmd.len() as u64) as usize;
        let _ = self.cmd[shard].send(Cmd::Open { session: id, model });
        Ok(SessionId::from_raw(id))
    }

    /// Closes a session. Audio already fed keeps flowing through the
    /// shard's FIFO: windows still queued there when the close lands are
    /// accounted `windows_closed` at the shard's next flush — exactly the
    /// single-threaded close semantics. Returns whether the session was
    /// open.
    pub fn close(&mut self, id: SessionId) -> bool {
        if self.sessions.remove(&id.raw()).is_none() {
            return false;
        }
        let shard = self.shard_of(id);
        let _ = self.cmd[shard].send(Cmd::Close { session: id.raw() });
        true
    }

    /// Feeds audio into `id`'s stream via its shard's bounded channel.
    /// Admission (queue bounds, overflow policy, window accounting) runs on
    /// the worker; a feed into a saturated shard blocks until the worker
    /// drains — that blocking *is* the backpressure. Unknown sessions and
    /// non-finite audio are refused synchronously here, before any audio is
    /// dispatched, with the same atomic no-consumption guarantee as
    /// [`StreamServer::try_feed`].
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownSession`] — `id` was never opened or is
    ///   closed.
    /// * [`ServeError::NonFiniteAudio`] — `samples` contains `NaN`/`±inf`;
    ///   counted in `rejected_feeds` against the session's (shard, model)
    ///   cell.
    pub fn try_feed(&mut self, id: SessionId, samples: &[f32]) -> Result<(), ServeError> {
        let Some(&model) = self.sessions.get(&id.raw()) else {
            return Err(ServeError::UnknownSession(id));
        };
        let shard = self.shard_of(id);
        if let Some(offset) = samples.iter().position(|v| !v.is_finite()) {
            self.refused[shard][model] += 1;
            return Err(ServeError::NonFiniteAudio { session: id, offset });
        }
        let _ = self.cmd[shard].send(Cmd::Feed { session: id.raw(), samples: samples.to_vec() });
        Ok(())
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

    /// Barrier: makes every shard flush its pending batch now, waits for
    /// all acks, and returns everything emitted up to and including those
    /// flushes. After `flush` returns, no window fed before the call is
    /// still pending anywhere.
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
            // A worker that already exited (disconnected) has flushed.
            let _ = ack.recv();
        }
        // Each worker enqueued its detections on the out channel before
        // acking, so this drain observes every pre-barrier window.
        self.drain()
    }

    /// One quiescent snapshot per shard (FIFO-consistent: reflects every
    /// command sent before this call), in shard order.
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        let replies: Vec<channel::Receiver<ShardSnapshot>> = self
            .cmd
            .iter()
            .map(|tx| {
                let (reply, rx) = channel::bounded(1);
                let _ = tx.send(Cmd::Snapshot { reply });
                rx
            })
            .collect();
        replies.into_iter().filter_map(|rx| rx.recv().ok()).collect()
    }

    /// The full per-shard × per-model ledger matrix, indexed
    /// `[shard][model]`, with client-side refusals folded in. Every cell
    /// reconciles independently; summing along either axis reproduces
    /// [`Self::shard_stats`] / [`Self::stats_for`], and the grand total is
    /// [`Self::stats`].
    pub fn stats_matrix(&self) -> Vec<Vec<ServerStats>> {
        self.shard_snapshots()
            .iter()
            .map(|snap| {
                (0..self.num_models)
                    .map(|m| {
                        let mut cell = snap.per_model.get(m).copied().unwrap_or_default();
                        cell.rejected_feeds += self.refused[snap.shard][m];
                        cell
                    })
                    .collect()
            })
            .collect()
    }

    /// Aggregate lifetime counters across every shard and model. Same
    /// reconciliation invariant as [`StreamServer::stats`]:
    /// `windows_fed == windows_accounted() + pending_windows()`.
    pub fn stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for snap in self.shard_snapshots() {
            total.merge(&snap.stats);
        }
        for row in &self.refused {
            for &n in row {
                total.rejected_feeds += n;
            }
        }
        total
    }

    /// One model's counters summed across shards (the per-model marginal),
    /// or `None` for a handle out of range. Reconciles against that
    /// model's pending windows summed across shards.
    pub fn stats_for(&self, model: ModelId) -> Option<ServerStats> {
        let m = model.raw() as usize;
        if m >= self.num_models {
            return None;
        }
        let mut total = ServerStats::default();
        for snap in self.shard_snapshots() {
            if let Some(cell) = snap.per_model.get(m) {
                total.merge(cell);
            }
            total.rejected_feeds += self.refused[snap.shard][m];
        }
        Some(total)
    }

    /// One shard's counters summed across models (the per-shard marginal),
    /// or `None` for a shard out of range. Reconciles against that shard's
    /// queue depth.
    pub fn shard_stats(&self, shard: usize) -> Option<ServerStats> {
        if shard >= self.cmd.len() {
            return None;
        }
        self.shard_snapshots().into_iter().find(|s| s.shard == shard).map(|snap| {
            let mut total = snap.stats;
            for &n in &self.refused[shard] {
                total.rejected_feeds += n;
            }
            total
        })
    }

    /// Windows currently pending across all shards.
    pub fn pending_windows(&self) -> usize {
        self.shard_snapshots().iter().map(|s| s.pending_windows).sum()
    }

    /// Feed-to-vote latency quantiles over every served window, merged
    /// bucket-wise across shards (exact: equals the histogram of the union
    /// of samples).
    pub fn latency(&self) -> LatencySummary {
        let mut merged = LatencyHistogram::new();
        for snap in self.shard_snapshots() {
            merged.merge(&snap.latency);
        }
        merged.summary()
    }

    /// One shard's feed-to-vote latency quantiles, or `None` for a shard
    /// out of range.
    pub fn shard_latency(&self, shard: usize) -> Option<LatencySummary> {
        if shard >= self.cmd.len() {
            return None;
        }
        self.shard_snapshots().into_iter().find(|s| s.shard == shard).map(|s| s.latency.summary())
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

/// Ticks the shard's server and emits any detections. The send happens
/// before any subsequent `Flush` ack on the same worker, which is what
/// makes [`ShardedStreamServer::flush`] lossless.
fn flush_shard<B: InferenceBackend + ?Sized>(
    server: &mut StreamServer<'_, B>,
    out: &channel::Sender<Vec<ServedDetection>>,
) {
    let report = server.tick_report();
    if !report.detections.is_empty() {
        // The front-end dropping its receiver mid-shutdown is the only
        // failure; those detections are undeliverable by construction.
        let _ = out.send(report.detections);
    }
}

/// One shard's worker loop: drain the FIFO command channel into a
/// shard-local [`StreamServer`], flushing on batch size, deadline expiry,
/// explicit barrier, or shutdown.
fn worker<B: InferenceBackend + Sync + ?Sized>(
    shard: usize,
    rx: channel::Receiver<Cmd>,
    out: channel::Sender<Vec<ServedDetection>>,
    models: &[ModelSpec<'_, B>],
    config: StreamingConfig,
    serve: ServeConfig,
) {
    // Shard-local server with unlimited sessions (the front-end enforces
    // the global cap).
    let mut specs = models.iter();
    let Some(first) = specs.next() else { return };
    let mut server = StreamServer::with_mfcc(
        first.backend,
        config,
        first.mfcc,
        first.norm_mean.clone(),
        first.norm_std.clone(),
    )
    .max_batch(serve.max_batch)
    .queue_bound(serve.queue_bound)
    .overflow_policy(serve.overflow)
    .tick_budget(serve.tick_budget);
    for spec in specs {
        server.register(spec.backend, spec.mfcc, spec.norm_mean.clone(), spec.norm_std.clone());
    }
    let started = Instant::now();
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
            flush_shard(&mut server, &out);
            batch_since = None;
            continue;
        };
        match cmd {
            Cmd::Open { session, model } => {
                // Front-end validated the model and id; a failure here
                // would mean a protocol bug and surfaces as the session
                // erroring on feed accounting, never as a panic.
                let _ = server.admit_session(session, model);
            }
            Cmd::Close { session } => {
                server.close(SessionId::from_raw(session));
            }
            Cmd::Feed { session, samples } => {
                // Finiteness was checked at the front-end; admission
                // outcomes (drops, rejects) land in the shard's ledger via
                // the receipt-free stats path.
                let _ = server.try_feed(SessionId::from_raw(session), &samples);
                if server.pending_windows() == 0 {
                    batch_since = None;
                } else {
                    if batch_since.is_none() {
                        batch_since = Some(Instant::now());
                    }
                    if serve.max_batch > 0 && server.pending_windows() >= serve.max_batch {
                        flush_shard(&mut server, &out);
                        batch_since = None;
                    }
                }
            }
            Cmd::Flush { done } => {
                flush_shard(&mut server, &out);
                batch_since = None;
                let _ = done.send(());
            }
            Cmd::Snapshot { reply } => {
                let num_models = server.num_models();
                let _ = reply.send(ShardSnapshot {
                    shard,
                    stats: server.stats(),
                    per_model: server.model_stats_vec(),
                    pending_windows: server.pending_windows(),
                    per_model_pending: (0..num_models)
                        .map(|m| server.pending_windows_for(ModelId::new(m as u32)))
                        .collect(),
                    sessions: server.num_sessions(),
                    latency: server.latency_histogram().clone(),
                    uptime: started.elapsed(),
                });
            }
        }
    }
    // Front-end gone: serve whatever was accepted, then exit. The scope in
    // `run` joins this thread before returning.
    flush_shard(&mut server, &out);
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
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
        // Reference: the single-threaded server over the same five streams.
        let mut reference = StreamServer::with_mfcc(
            &backend,
            small_config(),
            small_mfcc(),
            vec![0.0; 10],
            vec![1.0; 10],
        );
        let mut ref_ids = Vec::new();
        for _ in 0..5 {
            ref_ids.push(reference.try_open().unwrap());
        }
        let mut expected = Vec::new();
        for round in 0..4u64 {
            for (s, &id) in ref_ids.iter().enumerate() {
                reference.try_feed(id, &chirp(1100, s as u64 * 5 + round)).unwrap();
            }
            expected.extend(reference.tick());
        }
        expected.extend(reference.tick());
        assert!(reference.stats().windows_served > 0);
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
            // One refused feed lands client-side against session 0's cell.
            assert!(matches!(
                server.try_feed(ids[0], &[0.0, f32::NAN]),
                Err(ServeError::NonFiniteAudio { .. })
            ));
            server.flush();

            let matrix = server.stats_matrix();
            assert_eq!(matrix.len(), 3);
            let mut grand = ServerStats::default();
            for (shard, row) in matrix.iter().enumerate() {
                assert_eq!(row.len(), 2);
                let mut shard_sum = ServerStats::default();
                for cell in row {
                    // Per-cell ledger identity at a quiescent point.
                    assert_eq!(cell.windows_fed, cell.windows_accounted(), "shard {shard}");
                    shard_sum.merge(cell);
                    grand.merge(cell);
                }
                assert_eq!(Some(shard_sum), server.shard_stats(shard));
            }
            for m in 0..2u32 {
                let mut model_sum = ServerStats::default();
                for row in &matrix {
                    model_sum.merge(&row[m as usize]);
                }
                assert_eq!(Some(model_sum), server.stats_for(ModelId::new(m)));
            }
            assert_eq!(grand, server.stats());
            assert_eq!(grand.rejected_feeds, 1);
            assert!(grand.windows_served > 0);
            assert_eq!(server.latency().count, grand.windows_served);
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
