//! Property-based tests for the `.thnt2` packed-model artifact: save → load
//! must be bitwise-lossless across architectures, and any malformed blob
//! must be rejected with an error — never a panic, never silent corruption.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use thnt_core::{
    AlignedBytes, HybridConfig, InferenceMeta, PackedStHybrid, QuantizedStHybrid, SaveOptions,
    StHybridNet,
};
use thnt_dsp::MfccConfig;
use thnt_nn::Model;
use thnt_quant::CalibrationMethod;
use thnt_strassen::Strassenified;

fn frozen_engine(
    seed: u64,
    width: usize,
    tree_depth: usize,
) -> (StHybridNet, PackedStHybrid<'static>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = StHybridNet::new(
        HybridConfig { ds_blocks: 1, width, proj_dim: 6, tree_depth, ..HybridConfig::paper() },
        &mut rng,
    );
    net.activate_quantization();
    net.freeze_ternary();
    let engine = PackedStHybrid::compile(&net);
    (net, engine)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Save → load reproduces the exact engine (bitplanes, affines,
    /// topology — `PartialEq` covers every field) and the forward pass of
    /// the reloaded engine matches both the original engine and the dense
    /// frozen path.
    #[test]
    fn thnt2_roundtrip_is_lossless(
        seed in 0u64..1_000,
        width in 4usize..10,
        tree_depth in 1usize..3,
    ) {
        let (mut net, engine) = frozen_engine(seed, width, tree_depth);
        let meta = InferenceMeta {
            mfcc: MfccConfig::paper(),
            norm_mean: vec![0.1; 10],
            norm_std: vec![2.0; 10],
        };
        let mut blob = Vec::new();
        engine.save(Some(&meta), &mut blob).unwrap();
        let (reloaded, got_meta) = PackedStHybrid::load(blob.as_slice()).unwrap();
        prop_assert_eq!(&reloaded, &engine, "bitplanes must be bitwise identical");
        prop_assert_eq!(got_meta.unwrap(), meta);

        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD5);
        let x = thnt_tensor::gaussian(&[2, 1, 49, 10], 0.0, 1.0, &mut rng);
        let original = engine.forward(&x);
        let restored = reloaded.forward(&x);
        for (a, b) in original.data().iter().zip(restored.data()) {
            prop_assert!((a - b).abs() <= 1e-6, "reloaded forward diverged: {a} vs {b}");
        }
        let dense = net.forward(&x, false);
        for (a, b) in dense.data().iter().zip(restored.data()) {
            prop_assert!(
                (a - b).abs() <= 1e-4 + 1e-4 * a.abs(),
                "reloaded engine diverged from the dense path: {a} vs {b}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncating a valid artifact anywhere must produce an error, not a
    /// panic and not a silently-wrong engine.
    #[test]
    fn truncated_artifacts_are_rejected(cut_frac in 0.0f64..1.0) {
        let (_, engine) = frozen_engine(7, 6, 1);
        let mut blob = Vec::new();
        engine.save(None, &mut blob).unwrap();
        let cut = ((blob.len() as f64) * cut_frac) as usize;
        prop_assume!(cut < blob.len());
        let err = PackedStHybrid::load(&blob[..cut]);
        prop_assert!(err.is_err(), "truncation at {cut}/{} must fail", blob.len());
    }

    /// Corrupting the container header (magic or version) must be rejected.
    #[test]
    fn corrupted_headers_are_rejected(byte in 0usize..8, bit in 0u32..8) {
        let (_, engine) = frozen_engine(8, 6, 1);
        let mut blob = Vec::new();
        engine.save(None, &mut blob).unwrap();
        blob[byte] ^= 1 << bit;
        let err = PackedStHybrid::load(blob.as_slice());
        prop_assert!(err.is_err(), "header corruption at byte {byte} bit {bit} must fail");
    }

    /// Random garbage never loads.
    #[test]
    fn random_bytes_never_load(data in proptest::collection::vec(0u8..=255, 0..256)) {
        prop_assert!(PackedStHybrid::load(data.as_slice()).is_err());
    }
}

/// Exhaustive truncation sweep: **every** prefix of a real artifact (not a
/// sample of cut points) must load to `Err` — and, run under
/// `catch_unwind`, provably without panicking. This is the loader's
/// panic-freedom proof for the entire truncation space.
#[test]
fn every_truncation_prefix_errors_without_panicking() {
    let (_, engine) = frozen_engine(5, 4, 1);
    let mut blob = Vec::new();
    engine.save(None, &mut blob).unwrap();
    for cut in 0..blob.len() {
        let prefix = &blob[..cut];
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| PackedStHybrid::load(prefix)));
        match outcome {
            Ok(result) => assert!(
                result.is_err(),
                "prefix {cut}/{} loaded successfully — truncation went unnoticed",
                blob.len()
            ),
            Err(_) => panic!("prefix {cut}/{} PANICKED the loader", blob.len()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random byte-flip fuzzing under `catch_unwind`: corrupting any bytes
    /// of a valid artifact must never panic the loader. (Unlike
    /// truncation, a flip is not guaranteed to be *detected* — a flipped
    /// bit inside an f32 payload yields a different but well-formed
    /// artifact — so the property proven here is panic-freedom, with
    /// validation errors as the common case.)
    #[test]
    fn byte_flips_never_panic_the_loader(
        seed in 0u64..100_000,
        flips in 1usize..9,
    ) {
        let (_, engine) = frozen_engine(6, 4, 1);
        let mut blob = Vec::new();
        engine.save(None, &mut blob).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..flips {
            let byte = rand::Rng::gen_range(&mut rng, 0..blob.len());
            let bit = rand::Rng::gen_range(&mut rng, 0..8u32);
            blob[byte] ^= 1 << bit;
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            PackedStHybrid::load(blob.as_slice())
        }));
        prop_assert!(outcome.is_ok(), "byte flips panicked the loader (seed {})", seed);
    }

    /// Truncation must be *detected*, not merely survived — re-asserted on
    /// random section-aligned and unaligned cuts of an artifact that also
    /// carries a META section (the richest layout).
    #[test]
    fn truncated_artifacts_with_meta_are_rejected(cut_frac in 0.0f64..1.0) {
        let (_, engine) = frozen_engine(3, 4, 1);
        let meta = InferenceMeta {
            mfcc: MfccConfig::paper(),
            norm_mean: vec![0.1; 10],
            norm_std: vec![2.0; 10],
        };
        let mut blob = Vec::new();
        engine.save(Some(&meta), &mut blob).unwrap();
        let cut = ((blob.len() as f64) * cut_frac) as usize;
        prop_assume!(cut < blob.len());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            PackedStHybrid::load(&blob[..cut])
        }));
        match outcome {
            Ok(result) => prop_assert!(result.is_err(), "cut {cut} loaded"),
            Err(_) => prop_assert!(false, "cut {cut} panicked"),
        }
    }
}

fn quantized_engine(seed: u64, width: usize, tree_depth: usize) -> QuantizedStHybrid {
    let (_, engine) = frozen_engine(seed, width, tree_depth);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xCA11B);
    let calib = thnt_tensor::gaussian(&[4, 1, 49, 10], 0.0, 1.0, &mut rng);
    QuantizedStHybrid::calibrate_and_compile(&engine, &calib, CalibrationMethod::default()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The quantized artifact round-trips bitwise-lossless: packed weights
    /// AND every calibrated scale.
    #[test]
    fn quantized_thnt2_roundtrip_is_lossless(
        seed in 0u64..1_000,
        width in 4usize..10,
        tree_depth in 1usize..3,
    ) {
        let quantized = quantized_engine(seed, width, tree_depth);
        let mut blob = Vec::new();
        quantized.save(None, &mut blob).unwrap();
        let (reloaded, meta) = QuantizedStHybrid::load(blob.as_slice()).unwrap();
        prop_assert_eq!(&reloaded, &quantized, "quantized round-trip must be bitwise identical");
        prop_assert!(meta.is_none());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncating a quantized artifact anywhere must error, never panic.
    #[test]
    fn truncated_quantized_artifacts_are_rejected(cut_frac in 0.0f64..1.0) {
        let quantized = quantized_engine(7, 6, 1);
        let mut blob = Vec::new();
        quantized.save(None, &mut blob).unwrap();
        let cut = ((blob.len() as f64) * cut_frac) as usize;
        prop_assume!(cut < blob.len());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            QuantizedStHybrid::load(&blob[..cut])
        }));
        match outcome {
            Ok(result) => prop_assert!(result.is_err(), "cut {} loaded", cut),
            Err(_) => prop_assert!(false, "cut {} panicked the quantized loader", cut),
        }
    }

    /// Byte-flip fuzzing the quantized loader under `catch_unwind`: panic-
    /// freedom over arbitrary corruption, detection as the common case.
    #[test]
    fn byte_flips_never_panic_the_quantized_loader(
        seed in 0u64..100_000,
        flips in 1usize..9,
    ) {
        let quantized = quantized_engine(6, 4, 1);
        let mut blob = Vec::new();
        quantized.save(None, &mut blob).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..flips {
            let byte = rand::Rng::gen_range(&mut rng, 0..blob.len());
            let bit = rand::Rng::gen_range(&mut rng, 0..8u32);
            blob[byte] ^= 1 << bit;
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            QuantizedStHybrid::load(blob.as_slice())
        }));
        prop_assert!(outcome.is_ok(), "byte flips panicked the quantized loader (seed {})", seed);
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let (_, engine) = frozen_engine(9, 6, 1);
    let mut blob = Vec::new();
    engine.save(None, &mut blob).unwrap();
    blob.push(0);
    assert!(PackedStHybrid::load(blob.as_slice()).is_err());
}

/// Every explicit write format, saved with metadata (the richest layout).
fn all_format_blobs(seed: u64) -> Vec<(SaveOptions, Vec<u8>)> {
    let (_, engine) = frozen_engine(seed, 6, 1);
    let meta = InferenceMeta {
        mfcc: MfccConfig::paper(),
        norm_mean: vec![0.1; 10],
        norm_std: vec![2.0; 10],
    };
    [SaveOptions::v2(), SaveOptions::v3(), SaveOptions::v3_rle()]
        .into_iter()
        .map(|opts| {
            let mut blob = Vec::new();
            thnt_core::save_thnt2_with(&engine, Some(&meta), opts, &mut blob).unwrap();
            (opts, blob)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The zero-copy loader is *observationally identical* to the owning
    /// loader on every write format: same engine (plane for plane), same
    /// metadata, and bitwise-identical logits — while an aligned v3 inline
    /// artifact provably lends out its bitplanes instead of copying them.
    #[test]
    fn borrowed_load_is_bitwise_identical_to_owned(
        seed in 0u64..1_000,
        width in 4usize..10,
        tree_depth in 1usize..3,
    ) {
        let (_, engine) = frozen_engine(seed, width, tree_depth);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xB0);
        let x = thnt_tensor::gaussian(&[2, 1, 49, 10], 0.0, 1.0, &mut rng);
        for opts in [SaveOptions::v2(), SaveOptions::v3(), SaveOptions::v3_rle()] {
            let mut blob = Vec::new();
            thnt_core::save_thnt2_with(&engine, None, opts, &mut blob).unwrap();
            let aligned = AlignedBytes::from_slice(&blob);
            let (owned, _) = PackedStHybrid::load(blob.as_slice()).unwrap();
            let (borrowed, _) = PackedStHybrid::load_ref(&aligned).unwrap();
            prop_assert_eq!(&borrowed, &owned, "loaders disagree for {:?}", opts);
            prop_assert_eq!(
                borrowed.bitplanes_borrowed(),
                opts == SaveOptions::v3(),
                "only aligned v3 inline artifacts can lend bitplanes ({:?})", opts
            );
            let a: Vec<u32> = owned.forward(&x).data().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = borrowed.forward(&x).data().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(a, b, "logits must be bitwise identical ({:?})", opts);
        }
    }

    /// RLE compression is lossless across random engines, and on these
    /// ~⅓-zero ternary nets the run-length-coded artifact is always the
    /// smaller file.
    #[test]
    fn rle_artifacts_roundtrip_and_compress(
        seed in 0u64..1_000,
        width in 4usize..10,
        tree_depth in 1usize..3,
    ) {
        let (_, engine) = frozen_engine(seed, width, tree_depth);
        let mut inline = Vec::new();
        thnt_core::save_thnt2_with(&engine, None, SaveOptions::v3(), &mut inline).unwrap();
        let mut rle = Vec::new();
        thnt_core::save_thnt2_with(&engine, None, SaveOptions::v3_rle(), &mut rle).unwrap();
        let (reloaded, _) = PackedStHybrid::load(rle.as_slice()).unwrap();
        prop_assert_eq!(&reloaded, &engine, "RLE round-trip must be lossless");
        prop_assert!(
            rle.len() < inline.len(),
            "RLE artifact ({}) must be smaller than inline ({})", rle.len(), inline.len()
        );
    }
}

/// The exhaustive truncation sweep of `every_truncation_prefix_errors_
/// without_panicking`, repeated for each write format and for **both**
/// loaders — the borrowing path validates the same invariants as the
/// owning one, prefix by prefix.
#[test]
fn every_truncation_prefix_errors_in_every_format_and_loader() {
    for (opts, blob) in all_format_blobs(5) {
        for cut in 0..blob.len() {
            let prefix = &blob[..cut];
            let aligned = AlignedBytes::from_slice(prefix);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (PackedStHybrid::load(prefix), PackedStHybrid::load_ref(&aligned).map(|_| ()))
            }));
            match outcome {
                Ok((owned, borrowed)) => {
                    assert!(owned.is_err(), "{opts:?}: owning load of prefix {cut} succeeded");
                    assert!(borrowed.is_err(), "{opts:?}: borrowed load of prefix {cut} succeeded");
                }
                Err(_) => panic!("{opts:?}: prefix {cut}/{} PANICKED a loader", blob.len()),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Byte-flip fuzzing across all three write formats and both loaders:
    /// corruption anywhere (section table padding, RLE streams, mode
    /// bytes…) must never panic — including the `unsafe` aligned-borrow
    /// path in the zero-copy loader. Whatever the trusted borrowed load
    /// accepts must also serve one forward pass without panicking, under
    /// whichever kernel `THNT_KERNEL` selects: its content is unchecked, so
    /// this is where a kernel indexing past the activations would show.
    #[test]
    fn byte_flips_never_panic_any_format_or_loader(
        seed in 0u64..100_000,
        flips in 1usize..9,
        format in 0usize..3,
    ) {
        let (opts, mut blob) = all_format_blobs(6).swap_remove(format);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..flips {
            let byte = rand::Rng::gen_range(&mut rng, 0..blob.len());
            let bit = rand::Rng::gen_range(&mut rng, 0..8u32);
            blob[byte] ^= 1 << bit;
        }
        let x = thnt_tensor::gaussian(&[1, 1, 49, 10], 0.0, 1.0, &mut rng);
        let aligned = AlignedBytes::from_slice(&blob);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = PackedStHybrid::load(blob.as_slice());
            if let Ok((engine, _)) = PackedStHybrid::load_ref(&aligned) {
                engine.forward(&x);
            }
        }));
        prop_assert!(outcome.is_ok(), "byte flips panicked a loader ({:?}, seed {})", opts, seed);
    }
}
