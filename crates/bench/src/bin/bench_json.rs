//! Machine-readable kernel timings for CI and the README bench table.
//!
//! Times the dense-vs-packed ternary kernels, end-to-end hybrid inference
//! through the [`InferenceBackend`] trait, the streaming detection path
//! (MFCC + model per window), and the sharded serving layer (many streams
//! batched through shared backends), then writes `BENCH_kernels.json`
//! to the working directory — a flat list of `{name, iters, mean_ns,
//! median_ns}` rows that CI can diff and dashboards can ingest without
//! parsing criterion output. Streaming rows additionally carry
//! `windows_per_sec`; non-streaming rows omit the field entirely instead of
//! claiming a zero throughput.
//!
//! Iteration counts scale with `THNT_PROFILE` (`smoke` keeps the whole run
//! under a few seconds; the default profile measures long enough for stable
//! medians). With `THNT_BENCH_ASSERT_STREAMING=1` the run fails unless the
//! packed backend's streaming windows/sec beats the dense backend's — the
//! regression the old O(window × hop) ring buffer hid — and unless the `streaming_overload` rows (offered
//! load at twice the per-tick budget) sustain positive throughput with a
//! shed rate strictly between 0 and 1. With
//! `THNT_BENCH_ASSERT_DSP=1` it fails unless the planned MFCC front-end is
//! at least 3x the legacy straight-line pipeline on a one-second window
//! (`streaming_window` rows also carry `mfcc_ns`/`infer_ns` stage fields,
//! and `mfcc_window/*` rows time the front-end in isolation). With
//! `THNT_BENCH_ASSERT_QUANT=1` it fails unless the bit-sliced popcount
//! matvec (`quantized_matvec_256x256/bitsliced/*` rows) is at least 2x the
//! f32-lane packed matvec on the widest backend — the quantized engine
//! (`st_hybrid_1clip/quantized_backend` and the streaming quantized rows)
//! only earns its keep if pure AND+popcount beats f32 lanes.
//!
//! The `streaming_multi{64,256,1024}/…/shards{1,4}` rows time the sharded
//! multi-threaded serving layer and carry `shards` plus feed-to-vote
//! `p50_ns`/`p99_ns` latency quantiles. With `THNT_BENCH_ASSERT_SCALING=1`
//! the run fails unless 4 shards reach a parallel efficiency of 0.7 at 256
//! sessions on the packed engine: at least `0.7 · min(4, nproc)` times the
//! 1-shard windows/sec. The threshold has been measured only on a 2-vCPU
//! host (2.00x and 2.29x against 1.4x); with 4 or more threads it asks for
//! 2.8x, which no recorded run has checked yet.
//!
//! The `artifact_load/{owned,borrowed,owned_rle}` rows time a cold model
//! load from a `.thnt2` blob and carry `model_bytes` (in-memory size) and
//! `bytes_on_disk` (serialized size). With `THNT_BENCH_ASSERT_LOAD=1` the
//! run fails unless an aligned v3 `load_ref` borrowed every bitplane and
//! the zero-copy cold start is at least 10x faster than the owning cold
//! start of the deployment (RLE) artifact — the whole point of the aligned
//! v3 container.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
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

/// One timed kernel.
#[derive(Debug, Clone)]
struct BenchRow {
    name: String,
    iters: usize,
    mean_ns: f64,
    median_ns: f64,
    /// Streaming-path throughput (inference windows per second); absent on
    /// non-streaming rows.
    windows_per_sec: Option<f64>,
    /// Which dispatch backend (`scalar` | `avx2` | `neon`) executed a
    /// packed-kernel row; absent on dense rows.
    kernel: Option<&'static str>,
    /// Median time of the MFCC stage of a streaming window; present only on
    /// `streaming_window` rows.
    mfcc_ns: Option<f64>,
    /// Median time of the backend-inference stage of a streaming window;
    /// present only on `streaming_window` rows.
    infer_ns: Option<f64>,
    /// Fraction of offered windows the server dropped or shed to hold its
    /// latency budget; present only on `streaming_overload` rows.
    shed_rate: Option<f64>,
    /// In-memory size of the loaded packed model; present only on
    /// `artifact_load` rows.
    model_bytes: Option<usize>,
    /// Serialized `.thnt2` size the row loaded from; present only on
    /// `artifact_load` rows. Smaller than `model_bytes` when the artifact
    /// run-length codes its weights.
    bytes_on_disk: Option<usize>,
    /// Worker-shard count of the sharded serving layer; present only on
    /// `streaming_multi*/…/shards*` rows.
    shards: Option<usize>,
    /// Median feed-to-vote window latency over the whole run; present only
    /// on sharded serving rows.
    p50_ns: Option<u64>,
    /// 99th-percentile feed-to-vote window latency; present only on sharded
    /// serving rows.
    p99_ns: Option<u64>,
}

// Hand-written so `windows_per_sec` / `kernel` are omitted (not null) on
// rows they do not apply to; the vendored serde stub has no
// `skip_serializing_if`.
impl serde::Serialize for BenchRow {
    fn serialize_value(&self) -> serde::Value {
        let mut fields = vec![
            ("name".to_string(), self.name.serialize_value()),
            ("iters".to_string(), self.iters.serialize_value()),
            ("mean_ns".to_string(), self.mean_ns.serialize_value()),
            ("median_ns".to_string(), self.median_ns.serialize_value()),
        ];
        if let Some(wps) = self.windows_per_sec {
            fields.push(("windows_per_sec".to_string(), wps.serialize_value()));
        }
        if let Some(kernel) = self.kernel {
            fields.push(("kernel".to_string(), kernel.to_string().serialize_value()));
        }
        if let Some(ns) = self.mfcc_ns {
            fields.push(("mfcc_ns".to_string(), ns.serialize_value()));
        }
        if let Some(ns) = self.infer_ns {
            fields.push(("infer_ns".to_string(), ns.serialize_value()));
        }
        if let Some(rate) = self.shed_rate {
            fields.push(("shed_rate".to_string(), rate.serialize_value()));
        }
        if let Some(b) = self.model_bytes {
            fields.push(("model_bytes".to_string(), b.serialize_value()));
        }
        if let Some(b) = self.bytes_on_disk {
            fields.push(("bytes_on_disk".to_string(), b.serialize_value()));
        }
        if let Some(s) = self.shards {
            fields.push(("shards".to_string(), s.serialize_value()));
        }
        if let Some(ns) = self.p50_ns {
            fields.push(("p50_ns".to_string(), ns.serialize_value()));
        }
        if let Some(ns) = self.p99_ns {
            fields.push(("p99_ns".to_string(), ns.serialize_value()));
        }
        serde::Value::Object(fields)
    }
}

/// Runs `f` for `iters` iterations after `iters / 10 + 1` warmup runs and
/// returns `(mean_ns, median_ns)` without printing or building a row.
fn measure<T>(iters: usize, mut f: impl FnMut() -> T) -> (f64, f64) {
    for _ in 0..iters / 10 + 1 {
        std::hint::black_box(f());
    }
    let mut samples: Vec<f64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let median = samples[samples.len() / 2];
    (mean, median)
}

/// Times `f` for `iters` iterations after `iters / 10 + 1` warmup runs.
fn time<T>(name: &str, iters: usize, f: impl FnMut() -> T) -> BenchRow {
    let (mean, median) = measure(iters, f);
    println!("{name:<42} {median:>12.0} ns (median of {iters})");
    BenchRow {
        name: name.to_string(),
        iters,
        mean_ns: mean,
        median_ns: median,
        windows_per_sec: None,
        kernel: None,
        mfcc_ns: None,
        infer_ns: None,
        shed_rate: None,
        model_bytes: None,
        bytes_on_disk: None,
        shards: None,
        p50_ns: None,
        p99_ns: None,
    }
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
    row.windows_per_sec = Some(1e9 / row.median_ns);
    let mfcc = Mfcc::new(MfccConfig::paper());
    let mut scratch = mfcc.plan().scratch();
    let mut feats = vec![0.0f32; 49 * 10];
    let (_, mfcc_ns) =
        measure(iters, || mfcc.plan().compute_into(&mut scratch, prefill.data(), &mut feats));
    let clip = gaussian(&[1, 1, 49, 10], 0.0, 1.0, &mut rng);
    let (_, infer_ns) = measure(iters, || backend.infer(&clip));
    row.mfcc_ns = Some(mfcc_ns);
    row.infer_ns = Some(infer_ns);
    println!(
        "{:<42} {:>12.1} windows/sec (mfcc {:.0} ns + infer {:.0} ns)",
        "",
        1e9 / row.median_ns,
        mfcc_ns,
        infer_ns
    );
    row
}

/// Times the serving layer under deliberate overload: `sessions` streams on
/// one shard each offer one window per round while `tick_budget` caps a
/// flush at half that, so the server must shed to hold its latency budget.
/// The row's `windows_per_sec` is the *sustained* rate (windows actually
/// served, not offered) and `shed_rate` is the fraction of offered windows
/// dropped or shed — the overload contract is that both stay positive and
/// bounded instead of the queue growing without limit.
fn time_overload<B: InferenceBackend + Sync>(
    backend: &B,
    sessions: usize,
    iters: usize,
) -> BenchRow {
    let config = StreamingConfig::default();
    let serve = ServeConfig {
        queue_bound: 2,
        tick_budget: (sessions / 2).max(1),
        ..ServeConfig::deterministic(1)
    };
    let spec = ModelSpec::new(backend, MfccConfig::paper(), vec![0.0; 10], vec![1.0; 10]);
    let (name, mean, median, before, after) =
        ShardedStreamServer::run(vec![spec], config, serve, |server| {
            let mut rng = SmallRng::seed_from_u64(45);
            let ids: Vec<_> =
                (0..sessions).map(|_| server.try_open().expect("open bench session")).collect();
            let prefill = gaussian(&[16_000], 0.0, 0.1, &mut rng);
            for &id in &ids {
                server.try_feed(id, prefill.data()).expect("prefill bench session");
            }
            server.flush();
            let chunk = gaussian(&[config.hop], 0.0, 0.1, &mut rng);
            let before = server.stats();
            let name = format!("streaming_overload{sessions}/{}_backend", backend.backend_name());
            let (mean, median) = measure(iters, || {
                for &id in &ids {
                    server.try_feed(id, chunk.data()).expect("feed bench session");
                }
                server.flush()
            });
            (name, mean, median, before, server.stats())
        });
    // `measure` warms up with `iters / 10 + 1` extra rounds on the same
    // server, so per-round accounting must divide by every round run.
    let rounds = (iters + iters / 10 + 1) as f64;
    let offered = (after.windows_fed - before.windows_fed) as f64;
    let served = (after.windows_served - before.windows_served) as f64;
    let discarded = ((after.windows_dropped - before.windows_dropped)
        + (after.windows_shed - before.windows_shed)) as f64;
    let shed_rate = if offered > 0.0 { discarded / offered } else { 0.0 };
    let wps = (served / rounds) * 1e9 / median;
    println!("{name:<42} {median:>12.0} ns (median of {iters})");
    println!(
        "{:<42} {wps:>12.1} windows/sec sustained (shed {:.0}% of offered load)",
        "",
        shed_rate * 100.0
    );
    BenchRow {
        name,
        iters,
        mean_ns: mean,
        median_ns: median,
        windows_per_sec: Some(wps),
        kernel: None,
        mfcc_ns: None,
        infer_ns: None,
        shed_rate: Some(shed_rate),
        model_bytes: None,
        bytes_on_disk: None,
        shards: None,
        p50_ns: None,
        p99_ns: None,
    }
}

/// Times the sharded serving layer: `sessions` streams pinned across
/// `shard_count` worker threads, one hop fed per session per round, every
/// round's windows flushed through a barrier so one iteration serves
/// exactly `sessions` windows. Throughput is aggregate windows/sec; the row
/// also carries the run's feed-to-vote p50/p99 window latency. The backend
/// must be `Sync` (shards share it by reference), which is why the dense
/// interpreter is absent from these rows.
fn time_sharded_multi<B: InferenceBackend + Sync>(
    backend: &B,
    sessions: usize,
    shard_count: usize,
    iters: usize,
) -> BenchRow {
    let config = StreamingConfig::default();
    let serve = ServeConfig {
        // Barrier-driven rounds: no size or deadline trigger mid-round.
        max_batch: 0,
        channel_capacity: 256,
        ..ServeConfig::with_shards(shard_count)
    };
    let spec = ModelSpec::new(backend, MfccConfig::paper(), vec![0.0; 10], vec![1.0; 10]);
    ShardedStreamServer::run(vec![spec], config, serve, |server| {
        let mut rng = SmallRng::seed_from_u64(43);
        let ids: Vec<_> =
            (0..sessions).map(|_| server.try_open().expect("open bench session")).collect();
        let prefill = gaussian(&[16_000], 0.0, 0.1, &mut rng);
        for &id in &ids {
            server.try_feed(id, prefill.data()).expect("prefill bench session");
        }
        server.flush();
        let chunk = gaussian(&[config.hop], 0.0, 0.1, &mut rng);
        let name = format!(
            "streaming_multi{sessions}/{}_backend/shards{shard_count}",
            backend.backend_name()
        );
        let mut row = time(&name, iters, || {
            for &id in &ids {
                server.try_feed(id, chunk.data()).expect("feed bench session");
            }
            server.flush()
        });
        let wps = sessions as f64 * 1e9 / row.median_ns;
        row.windows_per_sec = Some(wps);
        row.shards = Some(shard_count);
        let latency = server.latency();
        row.p50_ns = Some(latency.p50_ns);
        row.p99_ns = Some(latency.p99_ns);
        println!(
            "{:<42} {wps:>12.1} windows/sec ({sessions} sessions, {shard_count} shards, \
             p50 {:.0} µs, p99 {:.0} µs)",
            "",
            latency.p50_ns as f64 / 1e3,
            latency.p99_ns as f64 / 1e3
        );
        row
    })
}

fn windows_per_sec(rows: &[BenchRow], name: &str) -> f64 {
    rows.iter()
        .find(|r| r.name == name)
        .and_then(|r| r.windows_per_sec)
        .unwrap_or_else(|| panic!("missing streaming row {name}"))
}

fn main() {
    let smoke = matches!(std::env::var("THNT_PROFILE").as_deref(), Ok("smoke") | Ok("SMOKE"));
    // Kernel rows are µs-scale, so even smoke can afford enough iterations
    // for medians stable enough to back the SIMD>=2x-scalar CI gate.
    let (kernel_iters, e2e_iters) = if smoke { (200, 3) } else { (400, 20) };
    // Streaming windows are ~ms-scale after the ring-buffer fix, so even the
    // smoke profile can afford enough iterations for a median stable enough
    // to back the packed-beats-dense CI gate on noisy shared runners.
    let stream_iters = if smoke { 30 } else { 60 };
    let mut rng = SmallRng::seed_from_u64(0);
    let mut rows = Vec::new();

    // Every dispatch backend this host supports, widest first; the first
    // entry is what `KernelDispatch::get()` routes production traffic to
    // (absent a THNT_KERNEL override).
    let kernels: Vec<KernelDispatch> =
        Kernel::available().into_iter().map(|k| KernelDispatch::new(k).unwrap()).collect();
    println!(
        "kernel backends: {} (active: {})\n",
        kernels.iter().map(|d| d.kernel().name()).collect::<Vec<_>>().join(", "),
        KernelDispatch::get().kernel()
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
    let active = KernelDispatch::get().kernel().name();
    let on_dispatch = |name: &str| matches!(name, "packed" | "quantized").then_some(active);
    for backend in backends {
        let name = format!("st_hybrid_1clip/{}_backend", backend.backend_name());
        let mut row = time(&name, e2e_iters, || backend.infer(&clip));
        // End-to-end packed/quantized rows execute on the process-wide
        // dispatch.
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
    {
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
                row.median_ns / 1e3,
                blob.len()
            );
            rows.push(row);
        }
        let median = |name: &str| {
            rows.iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("missing load row {name}"))
                .median_ns
        };
        let inline_ratio = median("artifact_load/owned") / median("artifact_load/borrowed");
        let rle_ratio = median("artifact_load/owned_rle") / median("artifact_load/borrowed");
        println!(
            "\nartifact_load: borrowed is {inline_ratio:.1}x owned (same inline blob), \
             {rle_ratio:.1}x the owning RLE cold start"
        );
        if std::env::var("THNT_BENCH_ASSERT_LOAD").as_deref() == Ok("1") {
            // The gate pins down two things about the zero-copy path. First,
            // structurally: an aligned v3 load must not copy a single
            // bitplane. Second, as a cold-start ratio: each deployment
            // strategy loads its natural artifact — owning processes ship
            // the RLE-compressed blob (they decode into fresh planes either
            // way, so they take the smaller file), while a mapped fleet
            // ships inline v3 and borrows it. The borrowed cold start must
            // beat the owning one by >= 10x; on the standard net it is
            // >~40x, so the margin also absorbs timer noise on small
            // containers. The same-format `inline_ratio` is reported above
            // for reference but not gated: both of those loads walk the
            // same section structure, so their gap only measures copy
            // bandwidth on a ~20 KB blob.
            let (loaded, _) = PackedStHybrid::load_ref(&aligned).expect("bench load_ref");
            assert!(loaded.bitplanes_borrowed(), "aligned v3 load_ref must borrow every bitplane");
            assert!(
                rle_ratio >= 10.0,
                "zero-copy cold start must be >= 10x the owning (RLE artifact) cold start, \
                 measured {rle_ratio:.1}x"
            );
            println!("load assertion: planes borrowed, borrowed >= 10x owning cold start ✓");
        }
    }

    // The MFCC front-end itself, one whole one-second window per
    // iteration: the retired straight-line pipeline vs the planned pipeline
    // (the serial `compute_into`, the frame loop every serving path runs,
    // here over all 49 frames as a frame-cache miss pays, and the parallel
    // `compute_into_par` offline callers may use). All planned rows execute
    // on the process-wide DSP dispatch.
    let dsp_kernel = DspDispatch::get().kernel().name();
    {
        let mut rng = SmallRng::seed_from_u64(44);
        let window = gaussian(&[16_000], 0.0, 0.1, &mut rng);
        let legacy = ReferenceMfcc::new(MfccConfig::paper());
        let mut row = time("mfcc_window/legacy", stream_iters, || legacy.compute(window.data()));
        row.windows_per_sec = Some(1e9 / row.median_ns);
        rows.push(row);
        let mfcc = Mfcc::new(MfccConfig::paper());
        let mut scratch = mfcc.plan().scratch();
        let mut feats = vec![0.0f32; 49 * 10];
        let mut row = time("mfcc_window/planned", stream_iters, || {
            mfcc.plan().compute_into(&mut scratch, window.data(), &mut feats)
        });
        row.windows_per_sec = Some(1e9 / row.median_ns);
        row.kernel = Some(dsp_kernel);
        rows.push(row);
        let mut row = time("mfcc_window/planned_par", stream_iters, || {
            mfcc.plan().compute_into_par(&mut scratch, window.data(), &mut feats)
        });
        row.windows_per_sec = Some(1e9 / row.median_ns);
        row.kernel = Some(dsp_kernel);
        rows.push(row);
    }

    // Streaming-path throughput (MFCC + normalize + model per window),
    // dense vs packed backend — with the O(1) ring buffer the backend
    // choice is visible here instead of drowning in per-sample memmoves.
    for backend in backends {
        let mut row = time_streaming(backend, stream_iters);
        row.kernel = on_dispatch(backend.backend_name());
        rows.push(row);
    }

    // Serving rows run through the sharded server. The dense interpreter is
    // absent from them: shards share the backend by reference, which
    // requires `Sync`, and the interpreter's scratch state is not.
    //
    // 8 streams on one shard under deliberate overload (offered load is
    // twice the per-flush budget): sustained throughput and shed rate.
    let mut row = time_overload(&engine, 8, stream_iters);
    row.kernel = on_dispatch(engine.backend_name());
    rows.push(row);
    let mut row = time_overload(&quantized, 8, stream_iters);
    row.kernel = on_dispatch(quantized.backend_name());
    rows.push(row);

    // Barrier-driven rounds over {1, 4} shards. Iteration counts scale down
    // with the session count so one row serves roughly the same number of
    // windows regardless of fan-out.
    for &sessions in &[64usize, 256, 1024] {
        let iters = (stream_iters * 64 / sessions).max(3);
        for &shard_count in &[1usize, 4] {
            let mut row = time_sharded_multi(&engine, sessions, shard_count, iters);
            row.kernel = on_dispatch(engine.backend_name());
            rows.push(row);
            let mut row = time_sharded_multi(&quantized, sessions, shard_count, iters);
            row.kernel = on_dispatch(quantized.backend_name());
            rows.push(row);
        }
    }

    // SIMD-vs-scalar report (and optional CI gate): the widest backend's
    // matvec against the scalar reference on the same bitplanes. A host
    // with no SIMD backend cannot satisfy the gate — asserting there must
    // fail loudly, not skip silently and report green.
    let assert_kernel = std::env::var("THNT_BENCH_ASSERT_KERNEL").as_deref() == Ok("1");
    if kernels.len() > 1 {
        let median = |name: &str| {
            rows.iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("missing kernel row {name}"))
                .median_ns
        };
        let simd = kernels[0].kernel();
        let ratio = median("matvec_256x256/packed_word/scalar")
            / median(&format!("matvec_256x256/packed_word/{simd}"));
        println!("\nmatvec_256x256: {simd} is {ratio:.2}x scalar");
        if assert_kernel {
            assert!(
                ratio >= 2.0,
                "SIMD kernel ({simd}) must be >= 2x the scalar matvec, measured {ratio:.2}x"
            );
            println!("kernel assertion: {simd} >= 2x scalar ✓");
        }
    } else if assert_kernel {
        panic!(
            "THNT_BENCH_ASSERT_KERNEL=1 but this host has no SIMD kernel backend \
             (only {}): the gate cannot run",
            kernels[0].kernel()
        );
    }

    // Popcount-vs-f32 report (and optional CI gate): the bit-sliced int8
    // matvec against the f32-lane packed matvec on the *same* dispatch
    // backend — the widest this host has — at the same 256x256 shape. The
    // quantized engine's whole premise is that AND+popcount beats f32
    // multiply-accumulate lanes; this is where that premise is measured
    // instead of assumed.
    {
        let median = |name: &str| {
            rows.iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("missing kernel row {name}"))
                .median_ns
        };
        let widest = kernels[0].kernel();
        let quant_ratio = median(&format!("matvec_256x256/packed_word/{widest}"))
            / median(&format!("quantized_matvec_256x256/bitsliced/{widest}"));
        println!("\nquantized_matvec_256x256: popcount ({widest}) is {quant_ratio:.2}x f32 lanes");
        if std::env::var("THNT_BENCH_ASSERT_QUANT").as_deref() == Ok("1") {
            assert!(
                quant_ratio >= 2.0,
                "bit-sliced popcount matvec must be >= 2x the f32-lane packed matvec \
                 on the widest backend ({widest}), measured {quant_ratio:.2}x"
            );
            println!("quant assertion: popcount >= 2x f32 lanes ✓");
        }
    }

    // CI gate: the planned MFCC front-end must hold its speedup over the
    // retired straight-line pipeline (serial driver vs serial driver —
    // no thread-count credit).
    let median = |rows: &[BenchRow], name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("missing bench row {name}"))
            .median_ns
    };
    let dsp_ratio = median(&rows, "mfcc_window/legacy") / median(&rows, "mfcc_window/planned");
    println!("\nmfcc_window: planned ({dsp_kernel}) is {dsp_ratio:.2}x legacy");
    if std::env::var("THNT_BENCH_ASSERT_DSP").as_deref() == Ok("1") {
        assert!(
            dsp_ratio >= 3.0,
            "planned MFCC must be >= 3x the legacy per-call pipeline, measured {dsp_ratio:.2}x"
        );
        println!("dsp assertion: planned >= 3x legacy ✓");
    }

    // CI gate: packed streaming must beat dense now that the ring buffer is
    // no longer the bottleneck.
    let dense_wps = windows_per_sec(&rows, "streaming_window/dense_backend");
    let packed_wps = windows_per_sec(&rows, "streaming_window/packed_backend");
    if std::env::var("THNT_BENCH_ASSERT_STREAMING").as_deref() == Ok("1") {
        assert!(
            packed_wps > dense_wps,
            "packed streaming ({packed_wps:.1} w/s) must beat dense ({dense_wps:.1} w/s) — \
             the ring-buffer regression is back"
        );
        println!("\nstreaming assertion: packed {packed_wps:.1} w/s > dense {dense_wps:.1} w/s ✓");
        // Overload gate: with offered load at twice the tick budget the
        // server must keep serving (sustained throughput stays positive)
        // AND keep shedding (the excess is discarded, not queued forever).
        for row in rows.iter().filter(|r| r.name.starts_with("streaming_overload")) {
            let wps = row.windows_per_sec.unwrap_or(0.0);
            let shed = row.shed_rate.unwrap_or(0.0);
            assert!(
                wps > 0.0 && shed > 0.0 && shed < 1.0,
                "{}: overload must shed some but not all load \
                 (sustained {wps:.1} w/s, shed rate {shed:.2})",
                row.name
            );
        }
        println!("overload assertion: sustained throughput with bounded shedding ✓");
    }

    // CI gate: sharding must actually buy parallel throughput. Compared on
    // the packed engine at 256 sessions — enough concurrent streams that
    // per-round fixed costs are amortised and the shards stay busy. Shards
    // are the only serving threads, so 4 shards can use min(4, nproc)
    // cores; the gate asks for 70% of that ideal.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4);
    let want = 0.7 * cores as f64;
    let shard1_wps = windows_per_sec(&rows, "streaming_multi256/packed_backend/shards1");
    let shard4_wps = windows_per_sec(&rows, "streaming_multi256/packed_backend/shards4");
    let scaling = shard4_wps / shard1_wps;
    println!("\nstreaming_multi256: 4 shards are {scaling:.2}x 1 shard ({cores} usable cores)");
    if std::env::var("THNT_BENCH_ASSERT_SCALING").as_deref() == Ok("1") {
        assert!(
            scaling >= want,
            "4-shard serving ({shard4_wps:.1} w/s) must be >= 0.7 x {cores} cores x 1-shard \
             ({shard1_wps:.1} w/s) = {want:.1}x at 256 sessions, measured {scaling:.2}x"
        );
        println!("scaling assertion: 4 shards >= {want:.1}x 1 shard ✓");
    }

    let json = serde_json::to_string_pretty(&rows).expect("serialize bench rows");
    std::fs::write("BENCH_kernels.json", json).expect("write BENCH_kernels.json");
    println!(
        "\n{} rows written to BENCH_kernels.json (max packed-vs-dense error {max_err:.2e})",
        rows.len()
    );
}
