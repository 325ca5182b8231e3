//! The served path, driven from outside: seeded audio goes into a
//! `ShardedStreamServer` over engines loaded from `.thnt2` bytes, and every
//! window's detection is checked and timed as it comes back.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use thnt_core::{
    Detection, InferenceMeta, ModelId, ModelSpec, PackedStHybrid, QuantizedStHybrid, ServeConfig,
    ServedDetection, ServerStats, SessionId, ShardedStreamServer, StreamingConfig,
    StreamingDetector,
};
use thnt_nn::InferenceBackend;
use thnt_tensor::Tensor;

use crate::model::{mix, Artifacts, Audio, HOP, WINDOW};
use crate::trace::{median, Tracer};

/// Every model is served behind one trait object, so the packed and the
/// quantized engine can share one server.
pub type Backend<'a> = dyn InferenceBackend + Sync + 'a;

/// A served model that records the batch size of every call the server
/// makes into it, and otherwise passes each call straight through.
pub struct BatchLog<'a> {
    inner: &'a Backend<'a>,
    batches: Mutex<Vec<usize>>,
}

impl<'a> BatchLog<'a> {
    pub fn new(inner: &'a Backend<'a>) -> Self {
        Self { inner, batches: Mutex::new(Vec::new()) }
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Vec<usize>> {
        self.batches.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Calls recorded so far.
    pub fn len(&self) -> usize {
        self.log().len()
    }

    /// Batch sizes of the calls after the first `mark`.
    pub fn since(&self, mark: usize) -> Vec<usize> {
        self.log()[mark..].to_vec()
    }
}

impl InferenceBackend for BatchLog<'_> {
    fn infer(&self, x: &Tensor) -> Tensor {
        self.log().push(x.dims()[0]);
        self.inner.infer(x)
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn adds_per_sample(&self) -> u64 {
        self.inner.adds_per_sample()
    }

    fn model_bytes(&self) -> usize {
        self.inner.model_bytes()
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}

/// Median of `batches`, rounded to a whole batch of at least one window.
pub fn median_batch(batches: &[usize]) -> usize {
    let sizes: Vec<f64> = batches.iter().map(|&b| b as f64).collect();
    (median(&sizes).round() as usize).max(1)
}

/// Windows the oracle replays per run, across all checked sessions.
const ORACLE_WINDOWS: usize = 400;
/// How often the open-loop generator wakes to collect detections.
const POLL: Duration = Duration::from_micros(500);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SingleStream,
    FleetSaturate,
    MixedRealtime,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::SingleStream, Workload::FleetSaturate, Workload::MixedRealtime];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SingleStream => "single_stream",
            Workload::FleetSaturate => "fleet_saturate",
            Workload::MixedRealtime => "mixed_realtime",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn sessions(self) -> u64 {
        match self {
            Workload::SingleStream => 1,
            Workload::FleetSaturate => 256,
            Workload::MixedRealtime => 192,
        }
    }

    pub fn serve_config(self) -> ServeConfig {
        match self {
            Workload::SingleStream => ServeConfig::with_shards(1),
            Workload::FleetSaturate => ServeConfig { max_batch: 64, ..ServeConfig::with_shards(2) },
            Workload::MixedRealtime => ServeConfig {
                max_batch: 64,
                flush_deadline: Some(Duration::from_millis(20)),
                ..ServeConfig::with_shards(2)
            },
        }
    }

    pub fn open_loop(self) -> bool {
        self == Workload::MixedRealtime
    }

    pub fn serves_quantized(self) -> bool {
        self == Workload::MixedRealtime
    }

    /// A quarter of the open-loop sessions (two residues mod 8, one per
    /// shard parity) run on the quantized engine.
    pub fn quantized_session(self, session: u64) -> bool {
        self.serves_quantized() && matches!(session % 8, 6 | 7)
    }
}

/// Every served window yields a detection: no confidence threshold and no
/// suppressed classes.
pub fn streaming_config() -> StreamingConfig {
    StreamingConfig { threshold: 0.0, suppress_trailing: 0, ..Default::default() }
}

/// Everything one serving phase measured.
#[derive(Debug, Default)]
pub struct ServeRun {
    pub setup_s: Vec<f64>,
    /// Peak resident set of the process right after the timed phase, in MiB.
    pub peak_rss_mib: f64,
    /// CPU time all of the process's threads spent in the timed phase.
    pub cpu_s: f64,
    /// Windows offered in the timed phase.
    pub offered: u64,
    /// Offered windows whose detection came back well-formed.
    pub verified: u64,
    /// Of those, the ones that came back before the timed phase ended.
    pub verified_in_phase: u64,
    pub elapsed_s: f64,
    pub latency_ms: Vec<f64>,
    /// Open loop: how late each hop was sent against its schedule.
    pub lag_ms: Vec<f64>,
    /// Open loop: windows offered but not served when the phase ended.
    pub backlog_end: u64,
    /// Server counters over the timed phase.
    pub stats: ServerStats,
    pub served_per_model: Vec<u64>,
    pub served_per_shard: Vec<u64>,
    /// Per served model, the batch size of every call the server made into
    /// it during the timed phase.
    pub batches: Vec<Vec<usize>>,
    /// Served detections of the oracle sessions, from window 0 on.
    pub checked: Vec<(u64, Vec<Detection>)>,
    pub problems: Vec<String>,
}

impl ServeRun {
    /// Offered windows that failed: dropped, shed, rejected, quarantined or
    /// missing (no well-formed detection came back), plus the `differ`
    /// windows whose detection did not match the oracle.
    pub fn failed(&self, differ: u64) -> u64 {
        self.offered - self.verified + differ
    }
}

/// Per-window bookkeeping of the timed phase: when each window's hop was
/// due (open loop) or fed (closed loop), and what came back.
struct Ledger {
    /// Session handle → its index in the workload (its seed for audio).
    index: HashMap<SessionId, u64>,
    /// Per session, per timed hop: ns after the phase start.
    due: Vec<Vec<u64>>,
    seen: Vec<Vec<bool>>,
    /// Window spans to close on receipt, when tracing.
    spans: Vec<Vec<usize>>,
    num_classes: usize,
    latency_ms: Vec<f64>,
    verified: u64,
    checked: HashMap<u64, Vec<Detection>>,
    problems: Vec<String>,
}

impl Ledger {
    fn new(ids: &[SessionId], num_classes: usize, checked: &[u64]) -> Self {
        let n = ids.len();
        Self {
            index: ids.iter().enumerate().map(|(s, &id)| (id, s as u64)).collect(),
            due: vec![Vec::new(); n],
            seen: vec![Vec::new(); n],
            spans: vec![Vec::new(); n],
            num_classes,
            latency_ms: Vec::new(),
            verified: 0,
            checked: checked.iter().map(|&s| (s, Vec::new())).collect(),
            problems: Vec::new(),
        }
    }

    fn offer(&mut self, session: u64, due_ns: u64) {
        self.due[session as usize].push(due_ns);
        self.seen[session as usize].push(false);
    }

    fn problem(&mut self, what: String) {
        // A handful of examples is enough to diagnose a failing run.
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    /// Checks one returned detection and times its window. `at_ns` is the
    /// receipt time in ns after the phase start; `tracer` comes with the
    /// phase start on the tracer's clock.
    fn receive(
        &mut self,
        d: &ServedDetection,
        at_ns: u64,
        tracer: Option<(&mut Tracer, u64)>,
    ) -> bool {
        let Some(&s) = self.index.get(&d.session) else {
            self.problem(format!("detection for unknown {}", d.session));
            return false;
        };
        let det = &d.detection;
        if let Some(list) = self.checked.get_mut(&s) {
            list.push(det.clone());
        }
        let offset = det.at_sample.checked_sub(WINDOW).filter(|o| o % HOP == 0);
        let Some(k) = offset.map(|o| o / HOP) else {
            self.problem(format!("session {s}: detection at sample {} is off-grid", det.at_sample));
            return false;
        };
        // Window k is completed by timed hop k − 1 (window 0 is the prefill).
        let j = k.wrapping_sub(1);
        let Some(&due) = self.due.get(s as usize).and_then(|d| d.get(j)) else {
            self.problem(format!("session {s}: window {k} was never offered"));
            return false;
        };
        if std::mem::replace(&mut self.seen[s as usize][j], true) {
            self.problem(format!("session {s}: window {k} detected twice"));
            return false;
        }
        if let Some((tracer, origin)) = tracer {
            if let Some(&span) = self.spans[s as usize].get(j) {
                tracer.close(span, origin + at_ns);
            }
        }
        let ok = det.class < self.num_classes
            && det.confidence.is_finite()
            && (0.0..=1.0).contains(&det.confidence);
        if ok {
            self.verified += 1;
            self.latency_ms.push(at_ns.saturating_sub(due) as f64 / 1e6);
        } else {
            self.problem(format!("session {s}: malformed detection {det:?}"));
        }
        ok
    }
}

/// Counter movement between two ledger reads.
fn delta(after: ServerStats, before: ServerStats) -> ServerStats {
    ServerStats {
        windows_fed: after.windows_fed - before.windows_fed,
        windows_served: after.windows_served - before.windows_served,
        windows_dropped: after.windows_dropped - before.windows_dropped,
        windows_rejected: after.windows_rejected - before.windows_rejected,
        windows_shed: after.windows_shed - before.windows_shed,
        windows_closed: after.windows_closed - before.windows_closed,
        windows_quarantined: after.windows_quarantined - before.windows_quarantined,
        rejected_feeds: after.rejected_feeds - before.rejected_feeds,
        faulted_calls: after.faulted_calls - before.faulted_calls,
    }
}

/// Sessions whose detections the oracle replays, chosen by `seed`: up to
/// four per served model.
pub fn oracle_sessions(workload: Workload, seed: u64) -> Vec<u64> {
    let mut picked = Vec::new();
    for quantized in [false, true] {
        let mut pool: Vec<u64> = (0..workload.sessions())
            .filter(|&s| workload.quantized_session(s) == quantized)
            .collect();
        pool.sort_by_key(|&s| mix(seed ^ (s << 20)));
        picked.extend(pool.into_iter().take(4));
    }
    picked.sort_unstable();
    picked
}

/// Nanoseconds in `d`.
fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Sets up the workload's server `setups` times, timing each set-up from
/// the artifact bytes on, and drives the timed phase for `seconds` on the
/// first one, so the peak resident set read right after it covers one
/// server's life. With a tracer, every window, feed and barrier is a span.
pub fn run(
    workload: Workload,
    arts: &Artifacts,
    audio: &Audio,
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    setups: usize,
) -> ServeRun {
    let mut out = ServeRun::default();
    for trial in 0..setups {
        let t0 = Instant::now();
        let (packed, meta) = PackedStHybrid::load_ref(arts.packed.as_slice()).expect("load packed");
        let meta = meta.expect("the artifact carries serving metadata");
        let quantized = workload
            .serves_quantized()
            .then(|| QuantizedStHybrid::load(arts.quantized.as_slice()).expect("load quantized").0);
        let mut models: Vec<&Backend<'_>> = vec![&packed];
        models.extend(quantized.as_ref().map(|q| q as &Backend<'_>));
        let timed = (trial == 0).then_some(seconds);
        let phase = Phase { workload, seed, audio, t0, timed };
        serve(&phase, &models, &meta, tracer.as_deref_mut(), &mut out);
        if trial == 0 {
            out.peak_rss_mib = peak_rss_mib();
        }
    }
    out
}

/// User plus system CPU seconds this process's threads have used so far
/// (time the hypervisor steals from the machine is not charged to them).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: Vec<f64> = rest.split_whitespace().filter_map(|f| f.parse().ok()).collect();
    ticks.get(10).zip(ticks.get(11)).map_or(f64::NAN, |(u, s)| (u + s) / 100.0)
}

/// VmHWM of this process: the peak resident set so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// One set-up, and optionally the timed phase after it.
pub struct Phase<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub audio: &'a Audio,
    /// When the set-up started.
    pub t0: Instant,
    /// Length of the timed phase; `None` stops after set-up.
    pub timed: Option<f64>,
}

/// Stands up the workload's server over `models` (model 1, if present,
/// serves the workload's quantized sessions), opens and prefills every
/// session, and records the set-up time into `out`; then drives the timed
/// phase, if any. Each model is served through a [`BatchLog`], so the
/// batches the server actually formed are known.
pub fn serve(
    phase: &Phase<'_>,
    models: &[&Backend<'_>],
    meta: &InferenceMeta,
    mut tracer: Option<&mut Tracer>,
    out: &mut ServeRun,
) {
    let Phase { workload, seed, audio, t0, timed } = *phase;
    let logs: Vec<BatchLog<'_>> = models.iter().map(|&m| BatchLog::new(m)).collect();
    let specs = logs.iter().map(|l| ModelSpec::from_meta(l as &Backend<'_>, meta)).collect();
    let num_classes = models[0].num_classes();
    ShardedStreamServer::run(specs, streaming_config(), workload.serve_config(), |server| {
        let ids: Vec<SessionId> = (0..workload.sessions())
            .map(|s| {
                let model = ModelId::new(u32::from(workload.quantized_session(s)));
                server.try_open_model(model).expect("open session")
            })
            .collect();
        for (s, &id) in ids.iter().enumerate() {
            server.try_feed(id, &audio.prefill(s as u64)).expect("prefill session");
        }
        let warm = server.flush();
        out.setup_s.push(t0.elapsed().as_secs_f64());
        let Some(seconds) = timed else { return };
        let mut ledger = Ledger::new(&ids, num_classes, &oracle_sessions(workload, seed));
        for d in &warm {
            let s = ledger.index.get(&d.session).copied();
            if let Some(list) = s.and_then(|s| ledger.checked.get_mut(&s)) {
                list.push(d.detection.clone());
            }
        }
        let served = |stats: Option<ServerStats>| stats.unwrap_or_default().windows_served;
        let marks: Vec<usize> = logs.iter().map(BatchLog::len).collect();
        let before = server.stats();
        let model_ids: Vec<ModelId> = (0..models.len() as u32).map(ModelId::new).collect();
        let before_models: Vec<u64> =
            model_ids.iter().map(|&m| served(server.stats_for(m))).collect();
        let before_shards: Vec<u64> =
            (0..server.shards()).map(|s| served(server.shard_stats(s))).collect();
        let cpu0 = process_cpu_s();
        if workload.open_loop() {
            open_loop(server, &ids, audio, seed, seconds, &mut ledger, out, &mut tracer);
        } else {
            closed_loop(server, &ids, audio, seconds, &mut ledger, out, &mut tracer);
        }
        out.cpu_s = process_cpu_s() - cpu0;
        out.stats = delta(server.stats(), before);
        out.served_per_model = model_ids
            .iter()
            .zip(before_models)
            .map(|(&m, b)| served(server.stats_for(m)) - b)
            .collect();
        out.served_per_shard = before_shards
            .into_iter()
            .enumerate()
            .map(|(s, b)| served(server.shard_stats(s)) - b)
            .collect();
        out.offered = ledger.due.iter().map(|d| d.len() as u64).sum();
        out.verified = ledger.verified;
        out.latency_ms = ledger.latency_ms;
        out.batches = logs.iter().zip(&marks).map(|(l, &m)| l.since(m)).collect();
        out.problems = ledger.problems;
        let mut checked: Vec<(u64, Vec<Detection>)> = ledger.checked.into_iter().collect();
        checked.sort_by_key(|(s, _)| *s);
        out.checked = checked;
    });
}

/// Closed loop: feed one hop to every session, wait at the barrier for the
/// detections, repeat. A window is timed from its feed to the barrier's
/// return.
fn closed_loop(
    server: &mut ShardedStreamServer,
    ids: &[SessionId],
    audio: &Audio,
    seconds: f64,
    ledger: &mut Ledger,
    out: &mut ServeRun,
    tracer: &mut Option<&mut Tracer>,
) {
    let start = Instant::now();
    let origin = tracer.as_deref().map_or(0, |t| t.at(start));
    let stop = Duration::from_secs_f64(seconds);
    let mut hop = 0u64;
    while start.elapsed() < stop {
        let mut last_window = None;
        for (s, &id) in ids.iter().enumerate() {
            let t = ns(start.elapsed());
            let fed = server.try_feed(id, audio.chunk(s as u64, hop + 2));
            let e = ns(start.elapsed());
            ledger.offer(s as u64, t);
            if let Err(err) = fed {
                ledger.problem(format!("feed refused: {err}"));
            }
            if let Some(tr) = tracer.as_deref_mut() {
                let window = ((s as u64) << 32) | (hop + 1);
                let w = tr.record("window", origin + t, origin + t, None, window);
                tr.record("serve.try_feed", origin + t, origin + e, Some(w), window);
                ledger.spans[s].push(w);
                last_window = Some((w, window));
            }
        }
        let t = ns(start.elapsed());
        let detections = server.flush();
        let e = ns(start.elapsed());
        if let (Some(tr), Some((w, window))) = (tracer.as_deref_mut(), last_window) {
            tr.record("serve.flush", origin + t, origin + e, Some(w), window);
        }
        for d in &detections {
            let ok = ledger.receive(d, e, tracer.as_deref_mut().map(|t| (t, origin)));
            out.verified_in_phase += u64::from(ok);
        }
        hop += 1;
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
}

/// Open loop: every session sends one hop per hop period at its own seeded
/// phase, whether or not earlier windows came back. A window is timed from
/// when its hop was due, so a late generator cannot flatter the server.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    server: &mut ShardedStreamServer,
    ids: &[SessionId],
    audio: &Audio,
    seed: u64,
    seconds: f64,
    ledger: &mut Ledger,
    out: &mut ServeRun,
    tracer: &mut Option<&mut Tracer>,
) {
    let n = ids.len();
    let period = ns(Duration::from_secs_f64(HOP as f64 / 16_000.0));
    let phase: Vec<u64> = (0..n as u64).map(|s| mix(seed ^ 0xF00D ^ s) % period).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&s| phase[s]);
    let due_of = |i: usize| phase[order[i % n]] + (i / n) as u64 * period;
    let horizon = ns(Duration::from_secs_f64(seconds));
    let start = Instant::now();
    let origin = tracer.as_deref().map_or(0, |t| t.at(start));
    let mut next = 0usize;
    let mut received = 0u64;
    loop {
        let now = ns(start.elapsed());
        if now >= horizon {
            break;
        }
        while due_of(next) <= ns(start.elapsed()) && due_of(next) < horizon {
            let s = order[next % n];
            let hop = (next / n) as u64;
            let due = due_of(next);
            let t = ns(start.elapsed());
            let fed = server.try_feed(ids[s], audio.chunk(s as u64, hop + 2));
            let e = ns(start.elapsed());
            ledger.offer(s as u64, due);
            out.lag_ms.push((t - due) as f64 / 1e6);
            if let Err(err) = fed {
                ledger.problem(format!("feed refused: {err}"));
            }
            if let Some(tr) = tracer.as_deref_mut() {
                let window = ((s as u64) << 32) | (hop + 1);
                let w = tr.record("window", origin + due, origin + due, None, window);
                tr.record("serve.try_feed", origin + t, origin + e, Some(w), window);
                ledger.spans[s].push(w);
            }
            next += 1;
        }
        let at = ns(start.elapsed());
        for d in &server.drain() {
            if ledger.receive(d, at, tracer.as_deref_mut().map(|t| (t, origin))) {
                received += 1;
            }
        }
        let wait = due_of(next).saturating_sub(ns(start.elapsed()));
        std::thread::sleep(Duration::from_nanos(wait).min(POLL));
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.verified_in_phase = received;
    let offered: u64 = ledger.due.iter().map(|d| d.len() as u64).sum();
    out.backlog_end = offered - received;
    // Windows still in flight at the end are collected (and verified) but
    // do not count towards the phase's throughput.
    let t = ns(start.elapsed());
    let detections = server.flush();
    let e = ns(start.elapsed());
    if let Some(tr) = tracer.as_deref_mut() {
        tr.record("serve.flush", origin + t, origin + e, None, u64::MAX);
    }
    for d in &detections {
        ledger.receive(d, e, tracer.as_deref_mut().map(|t| (t, origin)));
    }
}

/// Replays the oracle sessions through independent `StreamingDetector`s
/// over the same audio and compares detections bit for bit. Returns
/// `(windows compared, windows that differ)`.
pub fn oracle_check(
    workload: Workload,
    arts: &Artifacts,
    audio: &Audio,
    run: &ServeRun,
) -> (u64, u64) {
    let (packed, meta) = PackedStHybrid::load_ref(arts.packed.as_slice()).expect("load packed");
    let meta = meta.expect("the artifact carries serving metadata");
    let quantized = QuantizedStHybrid::load(arts.quantized.as_slice()).expect("load quantized").0;
    let per_session = ORACLE_WINDOWS / run.checked.len().max(1);
    let (mut compared, mut differ) = (0u64, 0u64);
    for (s, served) in &run.checked {
        let mut served = served.clone();
        served.sort_by_key(|d| d.at_sample);
        // Only the gap-free prefix from window 0 can be lined up.
        let usable = served
            .iter()
            .enumerate()
            .take_while(|(k, d)| d.at_sample == WINDOW + k * HOP)
            .count()
            .min(per_session);
        let backend: &dyn InferenceBackend =
            if workload.quantized_session(*s) { &quantized } else { &packed };
        let mut det = StreamingDetector::from_meta(backend, streaming_config(), &meta);
        let mut expected = det.push(&audio.prefill(*s));
        let mut hop = 2;
        while expected.len() < usable {
            expected.extend(det.push(audio.chunk(*s, hop)));
            hop += 1;
        }
        for (got, want) in served.iter().zip(&expected).take(usable) {
            compared += 1;
            let same = got.class == want.class
                && got.at_sample == want.at_sample
                && got.confidence.to_bits() == want.confidence.to_bits();
            differ += u64::from(!same);
        }
    }
    (compared, differ)
}

#[cfg(test)]
mod tests {
    use super::*;
    use thnt_nn::{FaultMode, FaultyBackend};

    /// A short single-stream run with the packed engine behind a
    /// `FaultyBackend`. Injected panics are caught by the server by design,
    /// so their messages are kept out of the test output.
    fn faulty_run(mode: FaultMode) -> ServeRun {
        static QUIET: std::sync::Once = std::sync::Once::new();
        QUIET.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let msg = info.payload().downcast_ref::<String>().cloned().unwrap_or_default();
                if !msg.contains("injected") {
                    prev(info);
                }
            }));
        });
        let arts = Artifacts::build(7);
        let audio = Audio::new(7);
        let (packed, meta) = PackedStHybrid::load_ref(arts.packed.as_slice()).unwrap();
        let faulty = FaultyBackend::new(&packed, mode);
        let phase = Phase {
            workload: Workload::SingleStream,
            seed: 7,
            audio: &audio,
            t0: Instant::now(),
            timed: Some(0.1),
        };
        let mut out = ServeRun::default();
        serve(&phase, &[&faulty], &meta.unwrap(), None, &mut out);
        assert!(out.offered > 0);
        out
    }

    #[test]
    fn healthy_backend_fails_no_window() {
        let run = faulty_run(FaultMode::PanicOnBatch { min_batch: 2 });
        assert_eq!(run.failed(0), 0);
        assert_eq!(run.verified, run.offered);
        assert_eq!(run.latency_ms.len() as u64, run.offered);
        assert!(run.problems.is_empty(), "{:?}", run.problems);
        // One session fed one hop per barrier: every call is one window.
        assert_eq!(run.batches.len(), 1);
        assert_eq!(run.batches[0].len() as u64, run.offered);
        assert_eq!(median_batch(&run.batches[0]), 1);
    }

    #[test]
    fn quarantined_windows_count_as_failed() {
        for mode in
            [FaultMode::PanicOnBatch { min_batch: 1 }, FaultMode::NanAboveEnergy { threshold: 0.0 }]
        {
            let run = faulty_run(mode);
            assert_eq!(run.stats.windows_quarantined, run.offered, "{mode:?}");
            assert_eq!(run.failed(0), run.offered, "{mode:?}");
            assert_eq!(run.verified_in_phase, 0, "{mode:?}");
        }
    }

    #[test]
    fn oracle_mismatches_add_to_failures() {
        let run = ServeRun { offered: 10, verified: 9, ..ServeRun::default() };
        assert_eq!(run.failed(2), 3);
    }

    #[test]
    fn oracle_sessions_cover_both_engines() {
        let picked = oracle_sessions(Workload::MixedRealtime, 3);
        assert_eq!(picked.len(), 8);
        let quantized = picked.iter().filter(|&&s| Workload::MixedRealtime.quantized_session(s));
        assert_eq!(quantized.count(), 4);
        assert_eq!(oracle_sessions(Workload::SingleStream, 3), vec![0]);
        assert_ne!(picked, oracle_sessions(Workload::MixedRealtime, 4));
    }
}
