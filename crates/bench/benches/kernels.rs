//! Micro-benchmarks for the numeric kernels underlying every model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use thnt_dsp::{Mfcc, MfccConfig};
use thnt_strassen::{ternary_values, PackedTernary};
use thnt_tensor::{conv2d, depthwise_conv2d, gaussian, matmul, matmul_nt, matvec, Conv2dSpec};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = SmallRng::seed_from_u64(0);
    for &n in &[32usize, 64, 128] {
        let a = gaussian(&[n, n], 0.0, 1.0, &mut rng);
        let b = gaussian(&[n, n], 0.0, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| matmul(&a, &b));
        });
    }
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv");
    let mut rng = SmallRng::seed_from_u64(1);
    // The DS-CNN first layer geometry: 49x10 input, 64 10x4 filters, s2x2.
    let x = gaussian(&[1, 1, 49, 10], 0.0, 1.0, &mut rng);
    let w = gaussian(&[64, 1, 10, 4], 0.0, 0.1, &mut rng);
    let spec = Conv2dSpec::same(49, 10, 10, 4, 2, 2);
    group.bench_function("ds_cnn_conv1", |bench| {
        bench.iter(|| conv2d(&x, &w, None, &spec));
    });
    // A DS block: depthwise 3x3 on the 25x5x64 feature map.
    let fx = gaussian(&[1, 64, 25, 5], 0.0, 1.0, &mut rng);
    let dw = gaussian(&[64, 1, 3, 3], 0.0, 0.1, &mut rng);
    let dspec = Conv2dSpec::same(25, 5, 3, 3, 1, 1);
    group.bench_function("depthwise_3x3_64ch", |bench| {
        bench.iter(|| depthwise_conv2d(&fx, &dw, None, &dspec));
    });
    // Pointwise 1x1, 64 -> 64 (dominates DS-CNN compute).
    let pw = gaussian(&[64, 64, 1, 1], 0.0, 0.1, &mut rng);
    let pspec = Conv2dSpec::valid(1, 1, 1, 1);
    group.bench_function("pointwise_64to64", |bench| {
        bench.iter(|| conv2d(&fx, &pw, None, &pspec));
    });
    group.finish();
}

fn bench_packed(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(3);
    // Ternary matvec kernels at the tree/dense layer scale.
    let mut group = c.benchmark_group("ternary_matvec_256x256");
    let w = ternary_values(&gaussian(&[256, 256], 0.0, 1.0, &mut rng)).values;
    let packed = PackedTernary::from_tensor(&w);
    let x = gaussian(&[256], 0.0, 1.0, &mut rng);
    group.bench_function("dense_f32", |b| b.iter(|| matvec(&w, &x)));
    group.bench_function("packed_word", |b| b.iter(|| packed.matvec(x.data())));
    group.finish();

    // Batched activations: the engine's dense-layer hot path.
    let mut group = c.benchmark_group("ternary_matmul_64x256x256");
    let xb = gaussian(&[64, 256], 0.0, 1.0, &mut rng);
    group.bench_function("dense_f32", |b| b.iter(|| matmul_nt(&xb, &w)));
    group.bench_function("packed_word", |b| b.iter(|| packed.matmul(&xb)));
    group.finish();

    // Column-matrix form: the engine's conv hot path (W · im2col).
    let mut group = c.benchmark_group("ternary_matmul_rhs_48x40x1250");
    let wc = ternary_values(&gaussian(&[48, 40], 0.0, 1.0, &mut rng)).values;
    let pc = PackedTernary::from_tensor(&wc);
    let m = gaussian(&[40, 1250], 0.0, 1.0, &mut rng);
    group.bench_function("dense_f32", |b| b.iter(|| matmul(&wc, &m)));
    group.bench_function("packed_word", |b| b.iter(|| pc.matmul_rhs(&m)));
    group.finish();
}

fn bench_mfcc(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(2);
    let audio: Vec<f32> = (0..16_000)
        .map(|t| {
            (t as f32 * 0.3).sin() * 0.5 + {
                use rand::Rng;
                rng.gen_range(-0.01f32..0.01)
            }
        })
        .collect();
    let mfcc = Mfcc::new(MfccConfig::paper());
    c.bench_function("mfcc_1s_clip", |bench| {
        bench.iter(|| mfcc.compute(&audio));
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul, bench_conv, bench_packed, bench_mfcc
}
criterion_main!(kernels);
