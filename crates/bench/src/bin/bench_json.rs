//! Machine-readable kernel timings and the speed gates CI runs on them.
//!
//! Times the dense-vs-packed ternary kernels on every dispatch backend the
//! host supports, end-to-end hybrid inference through the
//! [`InferenceBackend`] trait, cold `.thnt2` loads, the MFCC front end, one
//! streaming window per backend (MFCC + model) and 256 sessions served
//! through 1 and 4 shards. It then writes `target/BENCH_kernels.json` as
//! `{ "host": …, "rows": [...] }`. The host object names `nproc`, the kernel
//! backends, the active packed and DSP dispatch and the profile. Each row
//! carries `name`, `iters` and the `p10_ns`/`median_ns`/`p90_ns` of its
//! samples; fields that only some rows have (`windows_per_sec`, `kernel`,
//! the stage and load sizes, the shard latency quantiles) are omitted where
//! they do not apply instead of claiming a zero.
//!
//! Iteration counts scale with `THNT_PROFILE` (`smoke` keeps the whole run
//! short; the default profile measures long enough for stable medians).
//!
//! With `THNT_BENCH_ASSERT=1` the run fails unless every gate holds. Each
//! gate compares medians from the same run:
//!
//! * **kernel**: the widest SIMD matvec is at least 2x the scalar reference
//!   on the same bitplanes. A host with no SIMD backend fails the gate.
//! * **dsp**: the planned MFCC front end is at least 3x the legacy
//!   straight-line pipeline on a one-second window.
//! * **load**: an aligned v3 `load_ref` borrows every bitplane, and that
//!   zero-copy cold start is at least 10x the owning cold start of the RLE
//!   deployment artifact.
//! * **quant**: the bit-sliced popcount matvec is at least 2x the f32-lane
//!   packed matvec on the widest backend. It arms itself only where that
//!   backend is `avx512`, whose detection requires the hardware `vpopcntq`;
//!   elsewhere it prints that it skipped.
//! * **streaming**: the packed backend's streaming windows/sec beats the
//!   dense backend's.
//! * **scaling**: 4 shards serve 256 sessions on the packed engine at
//!   least `0.7 · min(4, nproc)` times as fast as 1 shard. Both servers run
//!   side by side and their rounds are timed alternately, so host noise
//!   hits both rows alike. The threshold has been measured only on 2-vCPU
//!   hosts; with 4 or more threads it asks for 2.8x, which no recorded run
//!   has checked yet.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;
use thnt_core::{
    save_thnt2_with, AlignedBytes, HybridConfig, ModelSpec, PackedStHybrid, QuantizedStHybrid,
    SaveOptions, ServeConfig, ShardedStreamServer, StHybridNet, StreamingConfig, StreamingDetector,
};
use thnt_dsp::{DspDispatch, Mfcc, MfccConfig, ReferenceMfcc};
use thnt_nn::InferenceBackend;
use thnt_quant::CalibrationMethod;
use thnt_strassen::{
    ternary_values, BitSliced, Kernel, KernelDispatch, PackedTernary, Strassenified,
};
use thnt_tensor::{gaussian, matmul_nt, matvec};

/// The 10th, 50th and 90th percentile of one row's samples, in
/// nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Spread {
    p10_ns: f64,
    median_ns: f64,
    p90_ns: f64,
}

impl Spread {
    /// Picks `sorted[len · q / 100]` for q = 10, 50 and 90, so the median
    /// is `sorted[len / 2]`.
    fn of(mut samples: Vec<f64>) -> Spread {
        samples.sort_by(f64::total_cmp);
        let pick = |q: usize| samples[samples.len() * q / 100];
        Spread { p10_ns: pick(10), median_ns: pick(50), p90_ns: pick(90) }
    }
}

/// One timed row.
#[derive(Debug, Clone, Default)]
struct BenchRow {
    name: String,
    iters: usize,
    spread: Spread,
    /// Streaming-path throughput (inference windows per second); absent on
    /// non-streaming rows.
    windows_per_sec: Option<f64>,
    /// Which dispatch backend (`scalar` | `avx2` | `avx512` | `neon`)
    /// executed a packed-kernel or MFCC row; absent on dense rows.
    kernel: Option<&'static str>,
    /// Median time of the MFCC stage of a streaming window; present only on
    /// `streaming_window` rows.
    mfcc_ns: Option<f64>,
    /// Median time of the backend-inference stage of a streaming window;
    /// present only on `streaming_window` rows.
    infer_ns: Option<f64>,
    /// In-memory size of the loaded packed model; present only on
    /// `artifact_load` rows.
    model_bytes: Option<usize>,
    /// Serialized `.thnt2` size the row loaded from; present only on
    /// `artifact_load` rows. Smaller than `model_bytes` when the artifact
    /// run-length codes its weights.
    bytes_on_disk: Option<usize>,
    /// Worker-shard count of the sharded serving layer; present only on
    /// `streaming_multi256/…/shards*` rows.
    shards: Option<usize>,
    /// Median feed-to-vote window latency over the whole run; present only
    /// on sharded serving rows.
    p50_ns: Option<u64>,
    /// 99th-percentile feed-to-vote window latency; present only on sharded
    /// serving rows.
    p99_ns: Option<u64>,
}

// Hand-written so the optional fields are omitted (not null) on rows they
// do not apply to; the vendored serde stub has no `skip_serializing_if`.
impl Serialize for BenchRow {
    fn serialize_value(&self) -> serde::Value {
        let fields = [
            ("name", self.name.serialize_value()),
            ("iters", self.iters.serialize_value()),
            ("p10_ns", self.spread.p10_ns.serialize_value()),
            ("median_ns", self.spread.median_ns.serialize_value()),
            ("p90_ns", self.spread.p90_ns.serialize_value()),
            ("windows_per_sec", self.windows_per_sec.serialize_value()),
            ("kernel", self.kernel.serialize_value()),
            ("mfcc_ns", self.mfcc_ns.serialize_value()),
            ("infer_ns", self.infer_ns.serialize_value()),
            ("model_bytes", self.model_bytes.serialize_value()),
            ("bytes_on_disk", self.bytes_on_disk.serialize_value()),
            ("shards", self.shards.serialize_value()),
            ("p50_ns", self.p50_ns.serialize_value()),
            ("p99_ns", self.p99_ns.serialize_value()),
        ];
        serde::Value::Object(
            fields
                .into_iter()
                .filter(|(_, v)| *v != serde::Value::Null)
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

/// The machine and settings a run measured, written beside its rows.
#[derive(Debug, Serialize)]
struct Host {
    /// `std::thread::available_parallelism`.
    nproc: usize,
    /// Every packed-kernel backend this host supports, widest first.
    kernels: Vec<String>,
    /// The packed-kernel backend serving traffic runs on.
    packed_dispatch: String,
    /// The MFCC front end's backend.
    dsp_dispatch: String,
    /// `smoke` or `default`.
    profile: String,
}

/// The file `bench_json` writes.
#[derive(Debug, Serialize)]
struct Report {
    host: Host,
    rows: Vec<BenchRow>,
}

/// Runs `f` for `iters` iterations after `iters / 10 + 1` warmup runs and
/// returns the spread of the timed runs without printing or building a row.
fn measure<T>(iters: usize, mut f: impl FnMut() -> T) -> Spread {
    for _ in 0..iters / 10 + 1 {
        std::hint::black_box(f());
    }
    let samples = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    Spread::of(samples)
}

/// Times `f` for `iters` iterations after `iters / 10 + 1` warmup runs.
fn time<T>(name: &str, iters: usize, f: impl FnMut() -> T) -> BenchRow {
    print_row(name, iters, measure(iters, f))
}

/// Prints and builds the row of `iters` samples with `spread`.
fn print_row(name: &str, iters: usize, spread: Spread) -> BenchRow {
    let Spread { p10_ns, median_ns, p90_ns } = spread;
    println!("{name:<42} {median_ns:>12.0} ns (p10 {p10_ns:.0}, p90 {p90_ns:.0}; {iters} iters)");
    BenchRow { name: name.to_string(), iters, spread, ..BenchRow::default() }
}

/// [`time`] for a packed-kernel row pinned to one dispatch backend: the row
/// is named `<base>/<kernel>` and carries the `kernel` field.
fn time_kernel<T>(base: &str, d: &KernelDispatch, iters: usize, f: impl FnMut() -> T) -> BenchRow {
    let mut row = time(&format!("{base}/{}", d.kernel()), iters, f);
    row.kernel = Some(d.kernel().name());
    row
}

/// Times one streaming window (MFCC + normalize + model) on `backend`:
/// prefills the detector's one-second ring, then feeds hop-sized chunks so
/// every push triggers exactly one inference. The row also carries
/// `mfcc_ns`/`infer_ns` — the two stages of the same window timed in
/// isolation (planned serial extraction of a one-second window, and one
/// single-clip backend call), so regressions attribute to a stage instead
/// of hiding in the end-to-end number.
fn time_streaming(backend: &dyn InferenceBackend, iters: usize) -> BenchRow {
    let config = StreamingConfig::default();
    let mut det = StreamingDetector::new(backend, config, vec![0.0; 10], vec![1.0; 10]);
    let mut rng = SmallRng::seed_from_u64(42);
    let prefill = gaussian(&[16_000], 0.0, 0.1, &mut rng);
    det.push(prefill.data());
    let chunk = gaussian(&[config.hop], 0.0, 0.1, &mut rng);
    let name = format!("streaming_window/{}_backend", backend.backend_name());
    let mut row = time(&name, iters, || det.push(chunk.data()));
    row.windows_per_sec = Some(1e9 / row.spread.median_ns);
    let mfcc = Mfcc::new(MfccConfig::paper());
    let mut scratch = mfcc.plan().scratch();
    let mut feats = vec![0.0f32; 49 * 10];
    let mfcc_ns =
        measure(iters, || mfcc.plan().compute_into(&mut scratch, prefill.data(), &mut feats))
            .median_ns;
    let clip = gaussian(&[1, 1, 49, 10], 0.0, 1.0, &mut rng);
    let infer_ns = measure(iters, || backend.infer(&clip)).median_ns;
    row.mfcc_ns = Some(mfcc_ns);
    row.infer_ns = Some(infer_ns);
    println!(
        "{:<42} {:>12.1} windows/sec (mfcc {:.0} ns + infer {:.0} ns)",
        "",
        1e9 / row.spread.median_ns,
        mfcc_ns,
        infer_ns
    );
    row
}

/// Times the sharded serving layer at 1 and at 4 shards: `sessions`
/// streams on each server, one hop fed per session per round, every
/// round's windows flushed through a barrier so one iteration serves
/// exactly `sessions` windows. Both servers stand up together and their
/// rounds alternate, with the first server alternating too, so a burst of
/// host steal lands on both rows alike instead of on whichever shard count
/// happened to run during it. A server's workers sleep while the other is
/// timed. Each row keeps its own samples and spread; its throughput is
/// aggregate windows/sec, and it also carries its server's feed-to-vote
/// p50/p99 window latency. The backend must be `Sync` (shards share it by
/// reference), which is why the dense interpreter is absent from these
/// rows.
fn time_sharded_multi<B: InferenceBackend + Sync>(
    backend: &B,
    sessions: usize,
    iters: usize,
) -> Vec<BenchRow> {
    let config = StreamingConfig::default();
    let serve = |shards| ServeConfig {
        // Barrier-driven rounds: no size or deadline trigger mid-round.
        max_batch: 0,
        channel_capacity: 256,
        ..ServeConfig::with_shards(shards)
    };
    let spec = || vec![ModelSpec::new(backend, MfccConfig::paper(), vec![0.0; 10], vec![1.0; 10])];
    let shard_counts = [1usize, 4];
    ShardedStreamServer::run(spec(), config, serve(shard_counts[0]), |one| {
        ShardedStreamServer::run(spec(), config, serve(shard_counts[1]), |four| {
            let mut servers = [one, four];
            let mut rng = SmallRng::seed_from_u64(43);
            let prefill = gaussian(&[16_000], 0.0, 0.1, &mut rng);
            let chunk = gaussian(&[config.hop], 0.0, 0.1, &mut rng);
            let ids: Vec<Vec<_>> = servers
                .iter_mut()
                .map(|server| {
                    let ids: Vec<_> = (0..sessions)
                        .map(|_| server.try_open().expect("open bench session"))
                        .collect();
                    for &id in &ids {
                        server.try_feed(id, prefill.data()).expect("prefill bench session");
                    }
                    server.flush();
                    ids
                })
                .collect();
            let warmup = iters / 10 + 1;
            let mut samples = [Vec::new(), Vec::new()];
            for i in 0..warmup + iters {
                for k in [i % 2, 1 - i % 2] {
                    let t0 = Instant::now();
                    for &id in &ids[k] {
                        servers[k].try_feed(id, chunk.data()).expect("feed bench session");
                    }
                    std::hint::black_box(servers[k].flush());
                    if i >= warmup {
                        samples[k].push(t0.elapsed().as_nanos() as f64);
                    }
                }
            }
            let mut rows = Vec::new();
            for ((server, samples), shards) in servers.iter().zip(samples).zip(shard_counts) {
                let name = format!(
                    "streaming_multi{sessions}/{}_backend/shards{shards}",
                    backend.backend_name()
                );
                let mut row = print_row(&name, iters, Spread::of(samples));
                let wps = sessions as f64 * 1e9 / row.spread.median_ns;
                row.windows_per_sec = Some(wps);
                row.shards = Some(shards);
                let latency = server.latency();
                row.p50_ns = Some(latency.p50_ns);
                row.p99_ns = Some(latency.p99_ns);
                println!(
                    "{:<42} {wps:>12.1} windows/sec ({sessions} sessions, {shards} shards, \
                     p50 {:.0} µs, p99 {:.0} µs)",
                    "",
                    latency.p50_ns as f64 / 1e3,
                    latency.p99_ns as f64 / 1e3
                );
                rows.push(row);
            }
            rows
        })
    })
}

fn find_row<'a>(rows: &'a [BenchRow], name: &str) -> &'a BenchRow {
    rows.iter().find(|r| r.name == name).unwrap_or_else(|| panic!("missing bench row {name}"))
}

fn median(rows: &[BenchRow], name: &str) -> f64 {
    find_row(rows, name).spread.median_ns
}

fn windows_per_sec(rows: &[BenchRow], name: &str) -> f64 {
    find_row(rows, name).windows_per_sec.unwrap_or_else(|| panic!("{name} has no windows_per_sec"))
}

fn main() {
    let smoke = matches!(std::env::var("THNT_PROFILE").as_deref(), Ok("smoke") | Ok("SMOKE"));
    let assert = std::env::var("THNT_BENCH_ASSERT").as_deref() == Ok("1");
    // Kernel rows are µs-scale, so even smoke can afford enough iterations
    // for medians stable enough to back the SIMD>=2x-scalar gate.
    let (kernel_iters, e2e_iters) = if smoke { (200, 3) } else { (400, 20) };
    // Streaming windows are ~ms-scale after the ring-buffer fix, so even the
    // smoke profile can afford enough iterations for a median stable enough
    // to back the packed-beats-dense gate on noisy shared runners.
    let stream_iters = if smoke { 30 } else { 60 };
    let mut rng = SmallRng::seed_from_u64(0);
    let mut rows = Vec::new();

    // Every dispatch backend this host supports, widest first; the first
    // entry is what `KernelDispatch::get()` routes production traffic to
    // (absent a THNT_KERNEL override).
    let kernels: Vec<KernelDispatch> =
        Kernel::available().into_iter().map(|k| KernelDispatch::new(k).unwrap()).collect();
    let widest = kernels[0].kernel();
    let active = KernelDispatch::get().kernel().name();
    let dsp_kernel = DspDispatch::get().kernel().name();
    let host = Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        kernels: kernels.iter().map(|d| d.kernel().name().to_string()).collect(),
        packed_dispatch: active.to_string(),
        dsp_dispatch: dsp_kernel.to_string(),
        profile: if smoke { "smoke" } else { "default" }.to_string(),
    };
    println!(
        "kernel backends: {} (active: {active}, dsp: {dsp_kernel}, nproc {})\n",
        host.kernels.join(", "),
        host.nproc
    );

    // Ternary matvec: dense f32 vs word-level bitplanes, the latter once per
    // dispatch backend.
    let w = ternary_values(&gaussian(&[256, 256], 0.0, 1.0, &mut rng)).values;
    let packed = PackedTernary::from_tensor(&w);
    let x = gaussian(&[256], 0.0, 1.0, &mut rng);
    rows.push(time("matvec_256x256/dense_f32", kernel_iters, || matvec(&w, &x)));
    let mut y = vec![0.0f32; 256];
    for d in &kernels {
        rows.push(time_kernel("matvec_256x256/packed_word", d, kernel_iters, || {
            packed.matvec_into_with(d, x.data(), &mut y)
        }));
    }

    // Bit-sliced int8 popcount matvec on the same bitplanes: the activation
    // vector is sliced once up front (exactly how the quantized engine reuses
    // planes per layer), so the row times pure AND+popcount work with no f32
    // lanes at all.
    let sliced = BitSliced::quantize(x.data(), 256, 1.0 / 64.0);
    let mut yq = vec![0i32; 256];
    for d in &kernels {
        rows.push(time_kernel("quantized_matvec_256x256/bitsliced", d, kernel_iters, || {
            packed.bitsliced_matvec_into_with(d, &sliced, &mut yq)
        }));
    }

    // Batched activations.
    let xb = gaussian(&[64, 256], 0.0, 1.0, &mut rng);
    rows.push(time("matmul_64x256x256/dense_f32", kernel_iters, || matmul_nt(&xb, &w)));
    for d in &kernels {
        rows.push(time_kernel("matmul_64x256x256/packed_word", d, kernel_iters, || {
            packed.matmul_with(d, &xb)
        }));
    }

    // The conv engine's column-matrix kernel at the hybrid net's first-layer
    // shape (`W_b · im2col`: r=48 rows, 40-tap patches, 490 output positions).
    let wconv = ternary_values(&gaussian(&[48, 40], 0.0, 1.0, &mut rng)).values;
    let pconv = PackedTernary::from_tensor(&wconv);
    let cols_m = gaussian(&[40, 490], 0.0, 1.0, &mut rng);
    let mut rhs_out = vec![0.0f32; 48 * 490];
    for d in &kernels {
        rows.push(time_kernel("matmul_rhs_48x40x490/packed_word", d, kernel_iters, || {
            pconv.matmul_rhs_into_with(d, &cols_m, &mut rhs_out)
        }));
    }

    // End-to-end through the unified InferenceBackend trait: the dense
    // frozen path vs the compiled packed engine vs the calibrated quantized
    // popcount engine, all swappable behind &dyn.
    let mut net = StHybridNet::new(HybridConfig::paper(), &mut rng);
    net.activate_quantization();
    net.freeze_ternary();
    let engine = PackedStHybrid::compile(&net);
    let calib = gaussian(&[8, 1, 49, 10], 0.0, 1.0, &mut rng);
    let quantized =
        QuantizedStHybrid::calibrate_and_compile(&engine, &calib, CalibrationMethod::default())
            .expect("calibrate quantized bench engine");
    let clip = gaussian(&[1, 1, 49, 10], 0.0, 1.0, &mut rng);
    let dense_backend = net.dense_backend();
    let backends: [&dyn InferenceBackend; 3] = [&dense_backend, &engine, &quantized];
    // End-to-end packed/quantized rows execute on the process-wide dispatch.
    let on_dispatch = |name: &str| matches!(name, "packed" | "quantized").then_some(active);
    for backend in backends {
        let name = format!("st_hybrid_1clip/{}_backend", backend.backend_name());
        let mut row = time(&name, e2e_iters, || backend.infer(&clip));
        row.kernel = on_dispatch(backend.backend_name());
        rows.push(row);
    }

    // Sanity: the two paths must agree before the numbers mean anything.
    let dense = dense_backend.infer(&clip);
    let fast = engine.infer(&clip);
    let max_err =
        dense.data().iter().zip(fast.data()).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
    assert!(max_err < 1e-4, "packed engine diverged from dense path: {max_err}");

    // Cold-start artifact loading: the owning loader copies (and
    // re-validates) every bitplane out of the blob; the zero-copy loader
    // borrows them straight from the aligned buffer, so its cost is O(header
    // validation). The RLE row shows what the smallest on-disk format pays
    // at load time for its size.
    let planes_borrowed = {
        let model_bytes = engine.model_bytes();
        let mut v3 = Vec::new();
        save_thnt2_with(&engine, None, SaveOptions::v3(), &mut v3).expect("save v3 bench blob");
        let mut rle = Vec::new();
        save_thnt2_with(&engine, None, SaveOptions::v3_rle(), &mut rle)
            .expect("save v3-rle bench blob");
        let aligned = AlignedBytes::from_slice(&v3);
        let loads = [
            ("artifact_load/owned", &v3, false),
            ("artifact_load/borrowed", &v3, true),
            ("artifact_load/owned_rle", &rle, false),
        ];
        for (name, blob, borrow) in loads {
            let mut row = if borrow {
                time(name, kernel_iters, || {
                    PackedStHybrid::load_ref(&aligned).expect("bench load_ref")
                })
            } else {
                time(name, kernel_iters, || {
                    PackedStHybrid::load(blob.as_slice()).expect("bench load")
                })
            };
            row.model_bytes = Some(model_bytes);
            row.bytes_on_disk = Some(blob.len());
            println!(
                "{:<42} {:>12.1} µs ({} bytes on disk, {model_bytes} in memory)",
                "",
                row.spread.median_ns / 1e3,
                blob.len()
            );
            rows.push(row);
        }
        PackedStHybrid::load_ref(&aligned).expect("bench load_ref").0.bitplanes_borrowed()
    };

    // The MFCC front-end itself, one whole one-second window per
    // iteration: the retired straight-line pipeline vs the planned serial
    // `compute_into`, the frame loop every serving path runs (here over all
    // 49 frames), on the process-wide DSP dispatch.
    {
        let mut rng = SmallRng::seed_from_u64(44);
        let window = gaussian(&[16_000], 0.0, 0.1, &mut rng);
        let legacy = ReferenceMfcc::new(MfccConfig::paper());
        let mut row = time("mfcc_window/legacy", stream_iters, || legacy.compute(window.data()));
        row.windows_per_sec = Some(1e9 / row.spread.median_ns);
        rows.push(row);
        let mfcc = Mfcc::new(MfccConfig::paper());
        let mut scratch = mfcc.plan().scratch();
        let mut feats = vec![0.0f32; 49 * 10];
        let mut row = time("mfcc_window/planned", stream_iters, || {
            mfcc.plan().compute_into(&mut scratch, window.data(), &mut feats)
        });
        row.windows_per_sec = Some(1e9 / row.spread.median_ns);
        row.kernel = Some(dsp_kernel);
        rows.push(row);
    }

    // Streaming-path throughput (MFCC + normalize + model per window),
    // dense vs packed vs quantized backend.
    for backend in backends {
        let mut row = time_streaming(backend, stream_iters);
        row.kernel = on_dispatch(backend.backend_name());
        rows.push(row);
    }

    // 256 sessions through {1, 4} shards on the packed engine, timed in
    // alternating rounds: enough concurrent streams that per-round fixed
    // costs are amortised and the shards stay busy. The dense interpreter
    // is absent: shards share the backend by reference, which requires
    // `Sync`.
    let multi_iters = (stream_iters / 4).max(3);
    for mut row in time_sharded_multi(&engine, 256, multi_iters) {
        row.kernel = on_dispatch(engine.backend_name());
        rows.push(row);
    }

    // The gates. Each ratio is printed whether or not the run asserts it.
    if kernels.len() > 1 {
        let ratio = median(&rows, "matvec_256x256/packed_word/scalar")
            / median(&rows, &format!("matvec_256x256/packed_word/{widest}"));
        println!("\nmatvec_256x256: {widest} is {ratio:.2}x scalar");
        if assert {
            assert!(
                ratio >= 2.0,
                "SIMD kernel ({widest}) must be >= 2x the scalar matvec, measured {ratio:.2}x"
            );
            println!("kernel gate: {widest} >= 2x scalar ✓");
        }
    } else if assert {
        // A host with no SIMD backend cannot satisfy the gate: fail loudly
        // instead of skipping silently and reporting green.
        panic!(
            "THNT_BENCH_ASSERT=1 but this host has no SIMD kernel backend (only {widest}): \
             the kernel gate cannot run"
        );
    }

    // The quantized engine's whole premise is that AND+popcount beats f32
    // multiply-accumulate lanes on the same backend. Only `avx512` has a
    // hardware popcount; the AVX2 nibble-LUT popcount lands near 1.6x, real
    // but below the gate.
    let quant_ratio = median(&rows, &format!("matvec_256x256/packed_word/{widest}"))
        / median(&rows, &format!("quantized_matvec_256x256/bitsliced/{widest}"));
    println!("\nquantized_matvec_256x256: popcount ({widest}) is {quant_ratio:.2}x f32 lanes");
    if assert && widest == Kernel::Avx512 {
        assert!(
            quant_ratio >= 2.0,
            "bit-sliced popcount matvec must be >= 2x the f32-lane packed matvec \
             on the widest backend ({widest}), measured {quant_ratio:.2}x"
        );
        println!("quant gate: popcount >= 2x f32 lanes ✓");
    } else if assert {
        println!("quant gate skipped: the widest kernel is {widest}, not avx512");
    }

    // Each deployment loads its natural artifact: owning processes ship the
    // RLE blob (they decode into fresh planes either way, so they take the
    // smaller file), while a mapped fleet ships inline v3 and borrows it. On
    // the standard net the gap is >~40x, so the 10x bar also absorbs timer
    // noise. The same-format owned/borrowed ratio only measures copy
    // bandwidth on a ~20 KB blob, so it is printed but not gated.
    let inline_ratio =
        median(&rows, "artifact_load/owned") / median(&rows, "artifact_load/borrowed");
    let rle_ratio =
        median(&rows, "artifact_load/owned_rle") / median(&rows, "artifact_load/borrowed");
    println!(
        "\nartifact_load: borrowed is {inline_ratio:.1}x owned (same inline blob), \
         {rle_ratio:.1}x the owning RLE cold start"
    );
    if assert {
        assert!(planes_borrowed, "aligned v3 load_ref must borrow every bitplane");
        assert!(
            rle_ratio >= 10.0,
            "zero-copy cold start must be >= 10x the owning (RLE artifact) cold start, \
             measured {rle_ratio:.1}x"
        );
        println!("load gate: planes borrowed, borrowed >= 10x owning cold start ✓");
    }

    // Serial driver vs serial driver: no thread-count credit.
    let dsp_ratio = median(&rows, "mfcc_window/legacy") / median(&rows, "mfcc_window/planned");
    println!("\nmfcc_window: planned ({dsp_kernel}) is {dsp_ratio:.2}x legacy");
    if assert {
        assert!(
            dsp_ratio >= 3.0,
            "planned MFCC must be >= 3x the legacy per-call pipeline, measured {dsp_ratio:.2}x"
        );
        println!("dsp gate: planned >= 3x legacy ✓");
    }

    // Packed streaming must beat dense now that the ring buffer is no
    // longer the bottleneck.
    let dense_wps = windows_per_sec(&rows, "streaming_window/dense_backend");
    let packed_wps = windows_per_sec(&rows, "streaming_window/packed_backend");
    println!("\nstreaming_window: packed {packed_wps:.1} w/s, dense {dense_wps:.1} w/s");
    if assert {
        assert!(
            packed_wps > dense_wps,
            "packed streaming ({packed_wps:.1} w/s) must beat dense ({dense_wps:.1} w/s) — \
             the ring-buffer regression is back"
        );
        println!("streaming gate: packed > dense ✓");
    }

    // Shards are the only serving threads, so 4 shards can use min(4,
    // nproc) cores; the gate asks for 70% of that ideal.
    let cores = host.nproc.min(4);
    let want = 0.7 * cores as f64;
    let shard1_wps = windows_per_sec(&rows, "streaming_multi256/packed_backend/shards1");
    let shard4_wps = windows_per_sec(&rows, "streaming_multi256/packed_backend/shards4");
    let scaling = shard4_wps / shard1_wps;
    println!("\nstreaming_multi256: 4 shards are {scaling:.2}x 1 shard ({cores} usable cores)");
    if assert {
        assert!(
            scaling >= want,
            "4-shard serving ({shard4_wps:.1} w/s) must be >= 0.7 x {cores} cores x 1-shard \
             ({shard1_wps:.1} w/s) = {want:.1}x at 256 sessions, measured {scaling:.2}x"
        );
        println!("scaling gate: 4 shards >= {want:.1}x 1 shard ✓");
    }

    let report = Report { host, rows };
    let json = serde_json::to_string_pretty(&report).expect("serialize bench report");
    let dir = std::path::Path::new("target");
    std::fs::create_dir_all(dir).expect("create target/");
    let path = dir.join("BENCH_kernels.json");
    std::fs::write(&path, json).expect("write target/BENCH_kernels.json");
    println!(
        "\n{} rows written to {} (max packed-vs-dense error {max_err:.2e})",
        report.rows.len(),
        path.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_picks_p10_median_and_p90_by_rank() {
        // Ten samples out of order: ranks 1, 5 and 9 of the sorted list.
        let ten = vec![70.0, 30.0, 100.0, 10.0, 90.0, 50.0, 20.0, 80.0, 60.0, 40.0];
        assert_eq!(Spread::of(ten), Spread { p10_ns: 20.0, median_ns: 60.0, p90_ns: 100.0 });
        // The smoke profile's 30 serving iterations: ranks 3, 15 and 27.
        let thirty = (0..30).rev().map(f64::from).collect();
        assert_eq!(Spread::of(thirty), Spread { p10_ns: 3.0, median_ns: 15.0, p90_ns: 27.0 });
        // Three samples span min, middle and max; one sample is all three.
        assert_eq!(
            Spread::of(vec![3.0, 1.0, 2.0]),
            Spread { p10_ns: 1.0, median_ns: 2.0, p90_ns: 3.0 }
        );
        assert_eq!(Spread::of(vec![7.0]), Spread { p10_ns: 7.0, median_ns: 7.0, p90_ns: 7.0 });
    }
}
