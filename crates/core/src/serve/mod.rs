//! Multi-session batched serving: many concurrent audio streams, shared
//! inference backends — hardened to survive hostile inputs, overload, and a
//! misbehaving model, and sharded across worker threads for multi-core
//! throughput.
//!
//! [`StreamingDetector`](crate::streaming::StreamingDetector) serves one
//! stream; a deployment serves thousands. [`ShardedStreamServer`] is the
//! one server that does: N worker threads, each owning a shard engine that
//! multiplexes its slice of the sessions over shared
//! [`InferenceBackend`](thnt_nn::InferenceBackend) references. Each session
//! keeps only the cheap per-stream state: one frame of samples, the feature
//! rows of the windows it has started, and its posterior history. The
//! expensive shared pieces — the MFCC plan and the models — exist once per
//! shard and once in total. Sessions pin to shards
//! (`shard = session_id % shards`) and are fed through bounded
//! [`crossbeam::channel`]s. A shard extracts each MFCC frame as a feed
//! delivers its last sample, and queues each due window as its finished
//! feature map (1960 B at the paper's 49×10), never as audio. It runs one
//! batched inference call per model and demuxes detections when its batch
//! reaches [`ServeConfig::max_batch`], when [`ServeConfig::flush_deadline`]
//! elapses on a partial batch (adaptive deadline batching), or at an
//! explicit [`ShardedStreamServer::flush`] barrier.
//! [`ServeConfig::deterministic`] flushes only at barriers — the mode the
//! oracle tests use.
//!
//! Batching and sharding never change results: every backend row is
//! computed independently of its batch neighbours and every session is
//! served in feed order by exactly one shard, so a served session produces
//! exactly the detections an independent `StreamingDetector` would over
//! the same stream — for **any** shard count, batch size, or flush timing
//! (enforced by the equivalence proptests in
//! `crates/core/tests/serve_equivalence.rs`).
//!
//! # Fault tolerance
//!
//! A multiplexed server must not be killable by one bad client, one bad
//! buffer, or one bad model call, so every entry point is **panic-free**
//! past construction:
//!
//! * **Typed errors, not panics.** Feeds and opens return [`ServeError`]
//!   for unknown/closed sessions, non-finite audio, session limits, unknown
//!   models, and dead shards.
//! * **Input hardening.** A feed buffer containing `NaN`/`±inf` is rejected
//!   atomically — no sample of it reaches the session's stream, the shared
//!   MFCC plan, or a batched inference that healthy sessions share.
//! * **Bounded queues.** Per-session pending-window queues are capped
//!   ([`ServeConfig::queue_bound`]) with an explicit [`OverflowPolicy`];
//!   the ingestion channels are bounded too
//!   ([`ServeConfig::channel_capacity`]), so overload backpressures the
//!   producer instead of growing memory.
//! * **Degraded-mode flushes.** A per-flush latency budget
//!   ([`ServeConfig::tick_budget`]) deterministically sheds the oldest
//!   pending windows *before* inference. Their features were extracted as
//!   their audio arrived, so shedding saves inference only.
//! * **Fault isolation.** Inference runs through
//!   [`InferenceBackend::infer_isolated`](thnt_nn::InferenceBackend::infer_isolated):
//!   a backend call that panics, returns wrong-arity logits, or emits
//!   non-finite rows quarantines only the affected windows — their healthy
//!   batch siblings are recovered row-by-row and produce byte-identical
//!   detections, and the blast radius is confined to the one shard that
//!   issued the call (enforced by `crates/core/tests/fault_injection.rs`
//!   and `crates/core/tests/shard_stress.rs` against
//!   `thnt_nn::FaultyBackend`). A worker that dies anyway takes only its
//!   own shard down: calls that land there return
//!   [`ServeError::ShardUnavailable`].
//!
//! Every outcome is accounted in exactly one [`ServerStats`] cell per
//! shard × model, each of which reconciles on its own —
//! `windows_fed == windows_accounted() + pending` — so every sum of cells
//! ([`ShardedStreamServer::stats`], [`ShardedStreamServer::stats_for`],
//! [`ShardedStreamServer::shard_stats`]) reconciles too.

// Serving hot path: failures must surface as `ServeError` values or stats
// counters, never as panics — one bad stream must not take down the server.
// CI additionally greps every serve/*.rs non-test region for unwrap/expect/
// panic-family calls.
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod error;
mod server;
mod sharded;
mod stats;

pub use error::{ModelId, ServeError, SessionId};
pub use sharded::{ModelSpec, OverflowPolicy, ServeConfig, ShardSnapshot, ShardedStreamServer};
pub use stats::{LatencyHistogram, LatencySummary, ServedDetection, ServerStats};
