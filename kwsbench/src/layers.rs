//! Per-layer measurements for the traced run, taken from outside the
//! program: the benchmark calls each layer's public entry point itself and
//! records a span around the call. The server calls MFCC, the engine layers
//! and the kernels privately, so their windows are replayed stage by stage
//! at the workload's batch sizes.

use std::time::{Duration, Instant};

use thnt_core::engine::PackedLayer;
use thnt_core::{PackedStHybrid, QuantizedStHybrid};
use thnt_dsp::MfccPlan;
use thnt_strassen::{BitSliced, PackedTernary, StLayer};
use thnt_tensor::{global_avg_pool, num_threads, parallel_zip_chunks, Tensor};

use crate::model::{Artifacts, Audio};
use crate::serve::Workload;
use crate::trace::{median, Tracer};
use crate::Metric;

/// MFCC frames × coefficients of one window.
const FEATURES: usize = 49 * 10;

/// Median cost of one call of `f`: each of `samples` samples times enough
/// back-to-back calls to last about 20 µs, so the clock's own cost vanishes.
fn per_call_ns<T>(samples: usize, mut f: impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    let once = t.elapsed().as_nanos().max(1) as usize;
    let reps = (20_000 / once).clamp(1, 10_000);
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(f());
            }
            t.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    median(&times)
}

fn kind(layer: &PackedLayer<'_>) -> &'static str {
    match layer {
        PackedLayer::Conv(_) => "conv",
        PackedLayer::Depthwise(_) => "depthwise",
        PackedLayer::Dense(_) => "dense",
        PackedLayer::Affine(_) => "affine",
        PackedLayer::Relu => "relu",
        PackedLayer::GlobalAvgPool => "pool",
    }
}

/// One front layer's forward, exactly as `PackedStStack::forward` runs it.
fn forward_layer(layer: &PackedLayer<'_>, mut cur: Tensor) -> Tensor {
    match layer {
        PackedLayer::Conv(c) => c.forward(&cur),
        PackedLayer::Depthwise(d) => d.forward(&cur),
        PackedLayer::Dense(f) => f.forward(&cur),
        PackedLayer::Affine(a) => {
            a.forward_in_place(&mut cur);
            cur
        }
        PackedLayer::Relu => {
            cur.map_in_place(|v| v.max(0.0));
            cur
        }
        PackedLayer::GlobalAvgPool => global_avg_pool(&cur),
    }
}

/// Additions per sample of one front layer on an `h × w` input.
fn layer_adds(layer: &PackedLayer<'_>, h: usize, w: usize) -> usize {
    match layer {
        PackedLayer::Conv(c) => c.adds_per_sample(h, w),
        PackedLayer::Depthwise(d) => d.adds_per_sample(h, w),
        PackedLayer::Dense(f) => f.adds_per_sample(),
        _ => 0,
    }
}

/// Features of window `i` of the replay: the workload's sessions in turn,
/// each advancing one window per pass.
fn replay_window(audio: &Audio, workload: Workload, i: usize) -> Vec<f32> {
    let sessions = workload.sessions() as usize;
    audio.window((i % sessions) as u64, (1 + i / sessions) as u64)
}

/// Everything the traced run measures below the server, plus any replay
/// output that disagreed with the engine's own forward pass.
pub struct LayerRun {
    pub metrics: Vec<Metric>,
    pub rows: Vec<String>,
    pub problems: Vec<String>,
}

/// The batch sizes the replay runs each engine at: the median batch of the
/// server's calls into that engine while it served the workload.
#[derive(Debug, Clone, Copy)]
pub struct Batches {
    pub packed: usize,
    /// The quantized engine's batch; on workloads that do not serve it, the
    /// batch the workload's model ran at.
    pub quantized: usize,
}

/// Replays the workload's windows through every layer for about `budget`.
pub fn measure(
    workload: Workload,
    arts: &Artifacts,
    audio: &Audio,
    batches: Batches,
    budget: Duration,
    tracer: &mut Tracer,
) -> LayerRun {
    let mut run = LayerRun { metrics: Vec::new(), rows: Vec::new(), problems: Vec::new() };
    let (packed, meta) = PackedStHybrid::load_ref(arts.packed.as_slice()).expect("load packed");
    let meta = meta.expect("the artifact carries serving metadata");
    let quantized = QuantizedStHybrid::load(arts.quantized.as_slice()).expect("load quantized").0;
    let push = |run: &mut LayerRun, name: String, value: f64, unit: &'static str| {
        run.metrics.push(Metric { name, value, unit });
    };

    // tensor.par: the cost of one scoped fan-out, as every batch-1 conv pays.
    let mut buf = vec![0.0f32; num_threads()];
    let dispatch = per_call_ns(15, || {
        parallel_zip_chunks(&mut buf, 1, |_, c| c[0] += 1.0);
    });
    push(&mut run, "tensor.par.dispatch_ns".into(), dispatch, "ns");
    push(&mut run, "tensor.par.threads".into(), num_threads() as f64, "count");

    // dsp: the parallel single-stream MFCC path, one window per span.
    let plan = MfccPlan::new(meta.mfcc);
    let mut scratch = plan.scratch();
    let mut feats = vec![0.0f32; FEATURES];
    for i in 0..64 {
        let window = replay_window(audio, workload, i);
        let t = tracer.now();
        plan.compute_into_par(&mut scratch, &window, &mut feats);
        tracer.record("dsp.mfcc_par", t, tracer.now(), None, i as u64);
    }

    // engine.packed: the front layers one by one, then the tree, at the
    // served batch; the server's own serial MFCC path builds each batch.
    let batch = batches.packed;
    push(&mut run, "engine.packed.batch".into(), batch as f64, "windows");
    let layers = packed.front().layers();
    let mut adds = vec![0usize; layers.len()];
    let deadline = Instant::now() + budget.mul_f64(0.5);
    let mut it = 0usize;
    while it < 5 || (Instant::now() < deadline && it < 400) {
        let root = tracer.record("replay.batch", tracer.now(), 0, None, it as u64);
        let mut input = Tensor::zeros(&[batch, 1, 49, 10]);
        for b in 0..batch {
            let window = replay_window(audio, workload, it * batch + b);
            let t = tracer.now();
            let dst = &mut input.data_mut()[b * FEATURES..(b + 1) * FEATURES];
            plan.compute_into(&mut scratch, &window, dst);
            for (v, (m, s)) in dst.iter_mut().zip(meta.norm_mean.iter().zip(&meta.norm_std).cycle())
            {
                *v = (*v - m) / s;
            }
            tracer.record("dsp.mfcc", t, tracer.now(), Some(root), it as u64);
        }
        let mut cur = input.clone();
        for (i, layer) in layers.iter().enumerate() {
            let (h, w) =
                (cur.dims().get(2).copied().unwrap_or(1), cur.dims().get(3).copied().unwrap_or(1));
            adds[i] = layer_adds(layer, h, w);
            let t = tracer.now();
            cur = forward_layer(layer, cur);
            let name = format!("engine.packed.{i}_{}", kind(layer));
            tracer.record(name, t, tracer.now(), Some(root), it as u64);
        }
        let t = tracer.now();
        let logits = packed.tree().forward(&cur);
        tracer.record("engine.packed.tree", t, tracer.now(), Some(root), it as u64);
        tracer.close(root, tracer.now());
        if it == 0 {
            let whole = packed.forward(&input);
            let same =
                whole.data().iter().zip(logits.data()).all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                run.problems
                    .push("stage-by-stage replay differs from PackedStHybrid::forward".into());
            }
        }
        it += 1;
    }
    let mfcc = median(&tracer.self_times_of("dsp.mfcc"));
    push(&mut run, "dsp.mfcc.ns".into(), mfcc, "ns");
    push(&mut run, "dsp.mfcc_par.ns".into(), median(&tracer.self_times_of("dsp.mfcc_par")), "ns");
    let front_adds: usize = adds.iter().sum();
    let tree_adds = packed.adds_per_sample() - front_adds;
    let names = layers
        .iter()
        .enumerate()
        .map(|(i, l)| (format!("engine.packed.{i}_{}", kind(l)), adds[i]))
        .chain(std::iter::once(("engine.packed.tree".to_string(), tree_adds)));
    for (name, adds) in names {
        let ns = median(&tracer.self_times_of(&name));
        run.rows.push(format!("{name:<32} {ns:>12.0} ns at batch {batch}  {adds:>8} adds/sample"));
        push(&mut run, format!("{name}.ns"), ns, "ns");
        push(&mut run, format!("{name}.adds"), adds as f64, "adds");
        if adds > 0 {
            push(&mut run, format!("{name}.ns_per_add"), ns / (adds * batch) as f64, "ns/add");
        }
    }
    run.rows.push(format!("replayed {it} batches of {batch} windows"));

    // engine.quantized: whole forward passes at batch 1 and at the served
    // batch.
    push(&mut run, "engine.quantized.batch".into(), batches.quantized as f64, "windows");
    for (label, batch) in [("b1", 1), ("served", batches.quantized)] {
        let deadline = Instant::now() + budget.mul_f64(0.1);
        let mut input = Tensor::zeros(&[batch, 1, 49, 10]);
        for b in 0..batch {
            let window = replay_window(audio, workload, b);
            plan.compute_into(
                &mut scratch,
                &window,
                &mut input.data_mut()[b * FEATURES..(b + 1) * FEATURES],
            );
        }
        let name = format!("engine.quantized.forward.{label}");
        let mut n = 0u64;
        while n < 5 || (Instant::now() < deadline && n < 2_000) {
            let t = tracer.now();
            std::hint::black_box(quantized.forward(&input));
            tracer.record(name.clone(), t, tracer.now(), None, n);
            n += 1;
        }
        let ns = median(&tracer.durations(&name));
        run.rows.push(format!("{name:<32} {ns:>12.0} ns at batch {batch} ({n} calls)"));
        push(&mut run, format!("{name}.ns"), ns, "ns");
    }

    strassen(arts, &mut run);

    // artifact: the two loads every set-up pays.
    let load_ref = per_call_ns(15, || {
        PackedStHybrid::load_ref(arts.packed.as_slice()).map(|e| e.0.num_classes())
    });
    push(&mut run, "artifact.load_ref.ns".into(), load_ref, "ns");
    let load_q = per_call_ns(7, || {
        QuantizedStHybrid::load(arts.quantized.as_slice()).map(|e| e.0.num_classes())
    });
    push(&mut run, "artifact.load_quantized.ns".into(), load_q, "ns");
    run
}

/// The packed kernels at every distinct weight shape the compiled model
/// uses: convolution planes through `matmul_rhs_into` (one column per
/// output position), tree planes through `matvec_into`, and every plane
/// through the quantized engine's `bitsliced_matvec_into`. Each row carries
/// its op count and the bytes it moves, computed from operand sizes.
fn strassen(arts: &Artifacts, run: &mut LayerRun) {
    let mut conv: Vec<(PackedTernary<'static>, usize)> = Vec::new();
    let mut dense: Vec<PackedTernary<'static>> = Vec::new();
    let (mut h, mut w) = (49usize, 10usize);
    for layer in arts.net.front().layers() {
        match layer {
            StLayer::Conv(c) => {
                (h, w) = c.spec().out_dims(h, w);
                let wb = c.wb_values();
                let r = wb.dims()[0];
                conv.push((PackedTernary::from_tensor(&wb.reshape(&[r, wb.numel() / r])), h * w));
                conv.push((PackedTernary::from_tensor(c.wc_values()), h * w));
            }
            StLayer::Depthwise(d) => (h, w) = d.spec().out_dims(h, w),
            _ => {}
        }
    }
    let tree = arts.net.tree();
    let nodes = std::iter::once(tree.projection())
        .chain(tree.branch_nodes())
        .chain(tree.score_nodes())
        .chain(tree.gate_nodes());
    for d in nodes {
        dense.push(PackedTernary::from_tensor(d.wb_values()));
        dense.push(PackedTernary::from_tensor(d.wc_values()));
    }
    let mut seen = std::collections::HashSet::new();
    let row = |run: &mut LayerRun, name: String, ns: f64, ops: usize, bytes: usize| {
        run.rows.push(format!("{name:<40} {ns:>10.0} ns  {ops:>8} ops  {bytes:>8} B"));
        run.metrics.push(Metric { name: format!("{name}.ns"), value: ns, unit: "ns" });
        run.metrics.push(Metric { name: format!("{name}.ops"), value: ops as f64, unit: "ops" });
        run.metrics.push(Metric {
            name: format!("{name}.bytes"),
            value: bytes as f64,
            unit: "bytes",
        });
    };
    let ramp =
        |n: usize| -> Vec<f32> { (0..n).map(|i| ((i * 37 % 101) as f32 - 50.0) / 64.0).collect() };
    for (p, spatial) in &conv {
        let (rows, cols) = (p.rows(), p.cols());
        let name = format!("strassen.matmul_rhs.{rows}x{cols}x{spatial}");
        if !seen.insert(name.clone()) {
            continue;
        }
        let m = Tensor::from_vec(ramp(cols * spatial), &[cols, *spatial]);
        let mut out = vec![0.0f32; rows * spatial];
        let ns = per_call_ns(15, || p.matmul_rhs_into(&m, &mut out));
        let bytes = p.packed_bytes() + 4 * (cols + rows) * spatial;
        row(run, name, ns, p.add_count() * spatial, bytes);
    }
    for p in &dense {
        let (rows, cols) = (p.rows(), p.cols());
        let name = format!("strassen.matvec.{rows}x{cols}");
        if !seen.insert(name.clone()) {
            continue;
        }
        let x = ramp(cols);
        let mut y = vec![0.0f32; rows];
        let ns = per_call_ns(15, || p.matvec_into(&x, &mut y));
        row(run, name, ns, p.add_count(), p.packed_bytes() + 4 * (cols + rows));
    }
    for p in conv.iter().map(|(p, _)| p).chain(&dense) {
        let (rows, cols) = (p.rows(), p.cols());
        let name = format!("strassen.bitsliced_matvec.{rows}x{cols}");
        if !seen.insert(name.clone()) {
            continue;
        }
        let x = BitSliced::quantize(&ramp(cols), cols, 1.0 / 64.0);
        let mut y = vec![0i32; rows];
        let ns = per_call_ns(15, || p.bitsliced_matvec_into(&x, &mut y));
        row(run, name, ns, p.add_count(), p.packed_bytes() + x.plane_bytes() + 4 * rows);
    }
}
