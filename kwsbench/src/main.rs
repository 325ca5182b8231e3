//! `kwsbench` — the repository's end-to-end benchmark: seeded audio in,
//! keyword detections out, through `ShardedStreamServer` over engines loaded
//! from `.thnt2` bytes.
//!
//! ```text
//! cargo run --release --manifest-path kwsbench/Cargo.toml -- \
//!     --workload single_stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it serves the workload untraced and traced, replays its
//! windows layer by layer, reports the per-layer metrics and the tracing
//! overhead, and writes every span to `.bench_trace/`. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. The run exits non-zero when any output is wrong, and refuses
//! to run when `THNT_THREADS`, `THNT_KERNEL` or `THNT_SERVE_SHARDS` is set,
//! so every number measures the program's defaults.
//!
//! The benchmark's own arithmetic (percentiles, span self time, failure
//! accounting under injected faults) is tested with
//! `cargo test --release --manifest-path kwsbench/Cargo.toml`.

mod layers;
mod model;
mod serve;
mod trace;

use std::time::{Duration, Instant};

use thnt_core::{PackedStHybrid, QuantizedStHybrid};
use thnt_nn::InferenceBackend;

use crate::model::{Artifacts, Audio};
use crate::serve::{ServeRun, Workload};
use crate::trace::{median, percentile, Tracer};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Settings that would make a run measure something other than the
/// program's defaults.
const REFUSED_ENV: [&str; 3] = ["THNT_THREADS", "THNT_KERNEL", "THNT_SERVE_SHARDS"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {value} ({e})");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
                }
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? == 1,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err(format!("--seconds must be in (0, 120], got {seconds}"));
        }
        Ok(Self { workload, seed, seconds, trace })
    }
}

fn main() {
    let code = match run() {
        Ok(correct) => i32::from(!correct),
        Err(msg) => {
            eprintln!("kwsbench: {msg}");
            2
        }
    };
    std::process::exit(code);
}

fn run() -> Result<bool, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!("{var} is set; the benchmark only measures the program's defaults"));
    }
    println!("host: {}", host_stamp());
    let t = Instant::now();
    let mut arts = Artifacts::build(args.seed);
    let audio = Audio::new(args.seed);
    let dense_err = arts.packed_vs_dense(args.seed);
    println!(
        "model: paper StHybridNet, seed {}, built in {:.2} s; packed vs dense max |Δ| {dense_err:.2e}",
        args.seed,
        t.elapsed().as_secs_f64()
    );
    let mut report = Report::default();
    if dense_err >= 1e-4 {
        report.problems.push(format!("packed logits differ from the dense net by {dense_err}"));
    }
    let build_rss = serve::peak_rss_mib();
    if args.trace {
        traced(&args, &arts, &audio, &mut report);
    } else {
        untraced(&args, &arts, &audio, build_rss, &mut report);
    }
    Ok(report.finish())
}

/// Outcome of a run: counts, problems and the metrics to print.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    /// Counts a serving phase's windows and checks them against the oracle.
    fn serve_phase(&mut self, w: Workload, arts: &Artifacts, audio: &Audio, run: &ServeRun) {
        let (compared, differ) = serve::oracle_check(w, arts, audio, run);
        println!(
            "oracle: {compared} windows of {} sessions replayed through StreamingDetector, \
             {differ} differ",
            run.checked.len()
        );
        if differ > 0 {
            self.problems.push(format!("{differ} detections differ from the oracle"));
        }
        let failed = run.failed(differ);
        println!(
            "failed_share {} ratio ({failed} of {} offered windows)",
            failed as f64 / run.offered.max(1) as f64,
            run.offered
        );
        println!("server: {:?}", run.stats);
        self.attempted += run.offered;
        self.failed += failed;
        self.problems.extend(run.problems.iter().cloned());
    }

    /// Prints the human-readable lines and the JSON result; returns whether
    /// every output was correct.
    fn finish(mut self) -> bool {
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.problems.push(format!("{} is not finite", m.name));
            }
        }
        let correct = self.failed == 0 && self.problems.is_empty();
        for p in &self.problems {
            println!("problem: {p}");
        }
        for m in &self.metrics {
            println!("{:<48} {:>16} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

/// Windows served and verified per second of the timed phase.
fn windows_per_s(run: &ServeRun) -> f64 {
    run.verified_in_phase as f64 / run.elapsed_s
}

/// Process CPU time per served and verified window, in ms.
fn cpu_ms_per_window(run: &ServeRun) -> f64 {
    run.cpu_s * 1e3 / run.verified.max(1) as f64
}

/// Prints a figure that is reported but not part of the JSON result.
fn show(name: &str, value: f64, unit: &str) {
    println!("{name:<48} {value:>16.4} {unit}");
}

/// Prints the median batch the server ran each model at.
fn print_batches(run: &ServeRun) {
    for (m, batches) in run.batches.iter().enumerate() {
        println!(
            "model {m}: {} calls, median batch {}",
            batches.len(),
            serve::median_batch(batches)
        );
    }
}

/// The end-to-end metrics, tracing off. `build_rss` is the peak resident
/// set before any server existed, printed next to the workload's peak.
fn untraced(args: &Args, arts: &Artifacts, audio: &Audio, build_rss: f64, report: &mut Report) {
    let w = args.workload;
    let steal0 = steal_s();
    let run = serve::run(w, arts, audio, args.seed, args.seconds, None, 7);
    report.serve_phase(w, arts, audio, &run);
    // Only steal-immune timings go into the result: on a shared 2-vCPU host,
    // hypervisor steal has reached 40% of the CPU for minutes at a time,
    // which moves every wall-clock figure by more than any bound allows.
    report.metric("cpu_ms_per_window", cpu_ms_per_window(&run), "ms");
    // The issue's wall-clock metrics, for the whole timed phase.
    show("windows_per_s", windows_per_s(&run), "windows/s");
    let p50 = percentile(&run.latency_ms, 0.5);
    let p99 = percentile(&run.latency_ms, 0.99);
    show("window_latency_p50_ms", p50.unwrap_or(f64::NAN), "ms");
    match p99 {
        Some(v) => show("window_latency_p99_ms", v, "ms"),
        None => println!("window_latency_p99_ms: n/a, fewer than 10 windows beyond p99"),
    }
    println!("host steal during the run: {:.2} s", steal_s() - steal0);
    print_batches(&run);
    report.metric("setup_s", median(&run.setup_s), "s");
    report.metric("peak_rss_mib", run.peak_rss_mib, "MiB");
    println!("peak_rss_mib after building the model, before any server: {build_rss:.2} MiB");
    let (packed, _) = PackedStHybrid::load_ref(arts.packed.as_slice()).expect("load packed");
    let quantized = QuantizedStHybrid::load(arts.quantized.as_slice()).expect("load quantized").0;
    let models: Vec<&dyn InferenceBackend> =
        if w.serves_quantized() { vec![&packed, &quantized] } else { vec![&packed] };
    let model_bytes: usize = models.iter().map(|m| m.model_bytes()).sum();
    report.metric("model_bytes", model_bytes as f64, "bytes");
    let served: u64 = run.served_per_model.iter().sum();
    let adds: f64 = models
        .iter()
        .zip(&run.served_per_model)
        .map(|(m, &n)| m.adds_per_sample() as f64 * n as f64)
        .sum();
    report.metric("adds_per_window", adds / served.max(1) as f64, "adds");
    if w.open_loop() {
        let lag = percentile(&run.lag_ms, 0.99).unwrap_or(f64::NAN);
        println!("loadgen: lag p99 {lag:.3} ms, backlog at end {} windows", run.backlog_end);
    }
}

/// The per-layer metrics: the workload served untraced and then traced for
/// 35% of the time each, then replayed layer by layer for the rest.
fn traced(args: &Args, arts: &Artifacts, audio: &Audio, report: &mut Report) {
    let w = args.workload;
    let phase = args.seconds * 0.35;
    let plain = serve::run(w, arts, audio, args.seed, phase, None, 1);
    report.serve_phase(w, arts, audio, &plain);
    let mut tracer = Tracer::new();
    let run = serve::run(w, arts, audio, args.seed, phase, Some(&mut tracer), 1);
    report.serve_phase(w, arts, audio, &run);
    // The replay runs each engine at the median batch the server formed in
    // the untraced phase.
    print_batches(&plain);
    let packed = plain.batches.first().map_or(1, |b| serve::median_batch(b));
    let quantized = plain.batches.get(1).map_or(packed, |b| serve::median_batch(b));
    let batches = layers::Batches { packed, quantized };
    let budget = Duration::from_secs_f64(args.seconds * 0.3);
    let layers = layers::measure(w, arts, audio, batches, budget, &mut tracer);
    for row in &layers.rows {
        println!("layer: {row}");
    }
    report.problems.extend(layers.problems);
    report.metrics.extend(layers.metrics);

    let tail = |values: &[f64]| percentile(values, 0.99).unwrap_or_else(|| max(values));
    let feeds = tracer.durations("serve.try_feed");
    report.metric("serve.try_feed.ns_p50", median(&feeds), "ns");
    report.metric("serve.try_feed.ns_p99", tail(&feeds), "ns");
    let flushes = tracer.durations("serve.flush");
    report.metric("serve.flush.ns_p50", median(&flushes), "ns");
    report.metric("serve.flush.ns_p99", tail(&flushes), "ns");
    println!("serve: {} feeds and {} barriers traced", feeds.len(), flushes.len());
    let s = run.stats;
    let counters = [
        ("serve.windows_fed", s.windows_fed),
        ("serve.windows_served", s.windows_served),
        ("serve.windows_dropped", s.windows_dropped),
        ("serve.windows_shed", s.windows_shed),
        ("serve.windows_rejected", s.windows_rejected),
        ("serve.windows_quarantined", s.windows_quarantined),
    ];
    for (name, n) in counters {
        report.metric(name, n as f64, "windows");
    }
    let per_shard: Vec<f64> = run.served_per_shard.iter().map(|&n| n as f64).collect();
    let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
    report.metric("serve.shard_skew", max(&per_shard) / mean.max(1.0), "ratio");
    let lag = if w.open_loop() { tail(&run.lag_ms) } else { 0.0 };
    report.metric("loadgen.lag_p99_ms", lag, "ms");
    report.metric("loadgen.backlog_end", run.backlog_end as f64, "windows");

    // Tracing overhead: process CPU per window, traced against untraced.
    // Unlike wall-clock throughput, it is neither fixed by an open loop's
    // offered rate nor moved by hypervisor steal.
    let (untraced_cpu, traced_cpu) = (cpu_ms_per_window(&plain), cpu_ms_per_window(&run));
    report.metric("trace.untraced.cpu_ms_per_window", untraced_cpu, "ms");
    report.metric("trace.traced.cpu_ms_per_window", traced_cpu, "ms");
    report.metric("trace.overhead_pct", 100.0 * (traced_cpu / untraced_cpu - 1.0), "%");
    let p50 = |r: &ServeRun| percentile(&r.latency_ms, 0.5).unwrap_or(f64::NAN);
    println!(
        "window latency p50: untraced {:.3} ms, traced {:.3} ms; windows_per_s: untraced {:.1}, \
         traced {:.1}",
        p50(&plain),
        p50(&run),
        windows_per_s(&plain),
        windows_per_s(&run)
    );

    let path =
        std::path::PathBuf::from(format!(".bench_trace/{}-seed{}.jsonl", w.name(), args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("trace: {} spans written to {}", tracer.spans().len(), path.display()),
        Err(e) => report.problems.push(format!("writing {}: {e}", path.display())),
    }
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// The host and the dispatch choices every number depends on.
fn host_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map_or(String::new(), |(_, v)| v.trim().to_string())
    };
    let flags = field("flags");
    let simd: Vec<&str> = flags
        .split_whitespace()
        .filter(|f| f.starts_with("avx") || f.starts_with("sse4") || *f == "fma" || *f == "popcnt")
        .collect();
    format!(
        "nproc={nproc} kernel={} cpu=\"{}\" simd_flags={} kernel_dispatch={} dsp_dispatch={} \
         par_threads={}",
        kernel.trim(),
        field("model name"),
        simd.join(","),
        thnt_strassen::KernelDispatch::get().kernel().name(),
        thnt_dsp::DspDispatch::get().kernel().name(),
        thnt_tensor::num_threads()
    )
}

/// Seconds of CPU time the hypervisor has stolen from the host's CPUs.
fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or_default();
    cpu.split_whitespace().nth(8).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0) / 100.0
}
