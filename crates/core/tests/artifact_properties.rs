//! Property-based tests for the `.thnt2` packed-model artifact: save → load
//! must be bitwise-lossless across architectures, and any malformed blob
//! must be rejected with an error — never a panic, never silent corruption.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use thnt_core::artifact::save_quantized_thnt2_with;
use thnt_core::{
    save_thnt2_with, AlignedBytes, HybridConfig, InferenceMeta, PackedStHybrid, QuantizedStHybrid,
    SaveOptions, StHybridNet,
};
use thnt_dsp::MfccConfig;
use thnt_nn::Model;
use thnt_quant::CalibrationMethod;
use thnt_strassen::{PackedTernary, StLayer, Strassenified};
use thnt_tensor::Tensor;

/// Golden artifacts, written by the writer of commit 224f758 (the last one
/// with a v2 container path) from `frozen_engine(6, 6, 1)` — seed 6,
/// `HybridConfig { ds_blocks: 1, width: 6, proj_dim: 6, tree_depth: 1,
/// ..HybridConfig::paper() }` — and its `quantized_engine(6, 6, 1)`, each
/// saved with `golden_meta()`: the packed engine as v2, v3 and v3-rle, the
/// quantized one as v2 and v3. The v2 blobs keep the v2 reader under test
/// now that nothing writes v2; the v3 blobs pin the writer's bytes.
const PACKED_V2: &[u8] = include_bytes!("data/packed_v2.thnt2");
const PACKED_V3: &[u8] = include_bytes!("data/packed_v3.thnt2");
const PACKED_V3_RLE: &[u8] = include_bytes!("data/packed_v3_rle.thnt2");
const QUANTIZED_V2: &[u8] = include_bytes!("data/quantized_v2.thnt2");
const QUANTIZED_V3: &[u8] = include_bytes!("data/quantized_v3.thnt2");

/// The serving metadata every golden artifact carries.
fn golden_meta() -> InferenceMeta {
    InferenceMeta { mfcc: MfccConfig::paper(), norm_mean: vec![0.1; 10], norm_std: vec![2.0; 10] }
}

/// One blob per container format: each write format through `save`, then
/// the committed `v2` golden, since the writer no longer emits v2.
fn format_blobs(
    save: impl Fn(SaveOptions, &mut Vec<u8>) -> std::io::Result<()>,
    v2: &[u8],
) -> Vec<(&'static str, Vec<u8>)> {
    let mut blobs: Vec<_> = [("v3", SaveOptions::v3()), ("v3-rle", SaveOptions::v3_rle())]
        .into_iter()
        .map(|(format, opts)| {
            let mut blob = Vec::new();
            save(opts, &mut blob).unwrap();
            (format, blob)
        })
        .collect();
    blobs.push(("v2 golden", v2.to_vec()));
    blobs
}

fn logit_bits(logits: &Tensor) -> Vec<u32> {
    logits.data().iter().map(|v| v.to_bits()).collect()
}

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

    /// Corrupting the container header (magic or version) must be rejected
    /// in every format.
    #[test]
    fn corrupted_headers_are_rejected(byte in 0usize..8, bit in 0u32..8, format in 0usize..3) {
        let (name, mut blob) = all_format_blobs(8).swap_remove(format);
        blob[byte] ^= 1 << bit;
        let err = PackedStHybrid::load(blob.as_slice());
        prop_assert!(err.is_err(), "{name}: header corruption at byte {byte} bit {bit} must fail");
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

/// Every container format of `quantized_engine(seed, width, 1)`: both write
/// formats and the quantized v2 golden.
fn quantized_format_blobs(seed: u64, width: usize) -> Vec<(&'static str, Vec<u8>)> {
    let quantized = quantized_engine(seed, width, 1);
    let save = |opts, blob: &mut Vec<u8>| save_quantized_thnt2_with(&quantized, None, opts, blob);
    format_blobs(save, QUANTIZED_V2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The quantized artifact round-trips bitwise-lossless in both write
    /// formats: packed weights AND every calibrated scale.
    #[test]
    fn quantized_thnt2_roundtrip_is_lossless(
        seed in 0u64..1_000,
        width in 4usize..10,
        tree_depth in 1usize..3,
    ) {
        let quantized = quantized_engine(seed, width, tree_depth);
        for opts in [SaveOptions::v3(), SaveOptions::v3_rle()] {
            let mut blob = Vec::new();
            save_quantized_thnt2_with(&quantized, None, opts, &mut blob).unwrap();
            let (reloaded, meta) = QuantizedStHybrid::load(blob.as_slice()).unwrap();
            prop_assert_eq!(&reloaded, &quantized, "{:?} round-trip must be bitwise identical", opts);
            prop_assert!(meta.is_none());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncating a quantized artifact of any format anywhere must error,
    /// never panic.
    #[test]
    fn truncated_quantized_artifacts_are_rejected(cut_frac in 0.0f64..1.0, format in 0usize..3) {
        let (name, blob) = quantized_format_blobs(7, 6).swap_remove(format);
        let cut = ((blob.len() as f64) * cut_frac) as usize;
        prop_assume!(cut < blob.len());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            QuantizedStHybrid::load(&blob[..cut])
        }));
        match outcome {
            Ok(result) => prop_assert!(result.is_err(), "{}: cut {} loaded", name, cut),
            Err(_) => prop_assert!(false, "{}: cut {} panicked the quantized loader", name, cut),
        }
    }

    /// Byte-flip fuzzing the quantized loader under `catch_unwind`, in every
    /// format: panic-freedom over arbitrary corruption, detection as the
    /// common case.
    #[test]
    fn byte_flips_never_panic_the_quantized_loader(
        seed in 0u64..100_000,
        flips in 1usize..9,
        format in 0usize..3,
    ) {
        let (name, mut blob) = quantized_format_blobs(6, 4).swap_remove(format);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..flips {
            let byte = rand::Rng::gen_range(&mut rng, 0..blob.len());
            let bit = rand::Rng::gen_range(&mut rng, 0..8u32);
            blob[byte] ^= 1 << bit;
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            QuantizedStHybrid::load(blob.as_slice())
        }));
        prop_assert!(outcome.is_ok(), "byte flips panicked the quantized loader ({}, seed {})", name, seed);
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    for (format, mut blob) in all_format_blobs(9) {
        blob.push(0);
        assert!(PackedStHybrid::load(blob.as_slice()).is_err(), "{format}");
    }
}

/// Every container format, with metadata (the richest layout): both write
/// formats of `frozen_engine(seed, 6, 1)` and the v2 golden.
fn all_format_blobs(seed: u64) -> Vec<(&'static str, Vec<u8>)> {
    let (_, engine) = frozen_engine(seed, 6, 1);
    let meta = golden_meta();
    format_blobs(|opts, blob| save_thnt2_with(&engine, Some(&meta), opts, blob), PACKED_V2)
}

/// Both loaders read each v2 golden to the engine of its v3 golden, with
/// bitwise-equal logits, and re-saving that engine reproduces the committed
/// v3 and v3-rle bytes exactly: the writer is pinned to the bytes of the
/// writer that made the goldens, independently of the RNG.
#[test]
fn golden_v2_blobs_load_like_v3_and_resave_to_the_v3_bytes() {
    let mut rng = SmallRng::seed_from_u64(0x601D);
    let x = thnt_tensor::gaussian(&[3, 1, 49, 10], 0.0, 1.0, &mut rng);
    let (packed, meta) = PackedStHybrid::load(PACKED_V3).unwrap();
    assert_eq!(meta, Some(golden_meta()));
    let want = logit_bits(&packed.forward(&x));
    let (quantized, _) = QuantizedStHybrid::load(QUANTIZED_V3).unwrap();
    let want_quantized = logit_bits(&quantized.forward(&x));
    for (format, blob) in [("packed v2", PACKED_V2), ("quantized v2", QUANTIZED_V2)] {
        let aligned = AlignedBytes::from_slice(blob);
        let (owned, owned_meta) = PackedStHybrid::load(blob).unwrap();
        let (borrowed, borrowed_meta) = PackedStHybrid::load_ref(&aligned).unwrap();
        for (loader, engine, meta) in
            [("owning", owned, owned_meta), ("borrowed", borrowed, borrowed_meta)]
        {
            assert_eq!(engine, packed, "{format}: {loader} load");
            assert_eq!(meta, Some(golden_meta()), "{format}: {loader} load");
            assert_eq!(logit_bits(&engine.forward(&x)), want, "{format}: {loader} logits");
        }
    }
    let (from_v2, _) = QuantizedStHybrid::load(QUANTIZED_V2).unwrap();
    assert_eq!(from_v2, quantized);
    assert_eq!(logit_bits(&from_v2.forward(&x)), want_quantized);

    let same_bytes = |what: &str, got: &[u8], want: &[u8]| {
        let at = got.iter().zip(want).position(|(a, b)| a != b);
        assert!(got == want, "{what}: {} vs {} bytes, first diff at {at:?}", got.len(), want.len());
    };
    let (engine, _) = PackedStHybrid::load(PACKED_V2).unwrap();
    let meta = golden_meta();
    for (what, opts, golden) in [
        ("packed v3", SaveOptions::v3(), PACKED_V3),
        ("packed v3-rle", SaveOptions::v3_rle(), PACKED_V3_RLE),
    ] {
        let mut blob = Vec::new();
        save_thnt2_with(&engine, Some(&meta), opts, &mut blob).unwrap();
        same_bytes(what, &blob, golden);
    }
    let mut blob = Vec::new();
    save_quantized_thnt2_with(&from_v2, Some(&meta), SaveOptions::v3(), &mut blob).unwrap();
    same_bytes("quantized v3", &blob, QUANTIZED_V3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The zero-copy loader is *observationally identical* to the owning
    /// loader on every container format: same engine (plane for plane), same
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
        let save = |opts, blob: &mut Vec<u8>| save_thnt2_with(&engine, None, opts, blob);
        for (format, blob) in format_blobs(save, PACKED_V2) {
            let aligned = AlignedBytes::from_slice(&blob);
            let (owned, _) = PackedStHybrid::load(blob.as_slice()).unwrap();
            let (borrowed, _) = PackedStHybrid::load_ref(&aligned).unwrap();
            prop_assert_eq!(&borrowed, &owned, "loaders disagree for {}", format);
            prop_assert_eq!(
                borrowed.bitplanes_borrowed(),
                format == "v3",
                "only aligned v3 inline artifacts can lend bitplanes ({})", format
            );
            let (a, b) = (logit_bits(&owned.forward(&x)), logit_bits(&borrowed.forward(&x)));
            prop_assert_eq!(a, b, "logits must be bitwise identical ({})", format);
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
        save_thnt2_with(&engine, None, SaveOptions::v3(), &mut inline).unwrap();
        let mut rle = Vec::new();
        save_thnt2_with(&engine, None, SaveOptions::v3_rle(), &mut rle).unwrap();
        let (reloaded, _) = PackedStHybrid::load(rle.as_slice()).unwrap();
        prop_assert_eq!(&reloaded, &engine, "RLE round-trip must be lossless");
        prop_assert!(
            rle.len() < inline.len(),
            "RLE artifact ({}) must be smaller than inline ({})", rle.len(), inline.len()
        );
    }
}

/// The exhaustive truncation sweep of `every_truncation_prefix_errors_
/// without_panicking`, repeated for each container format and for **both**
/// loaders — the borrowing path validates the same invariants as the
/// owning one, prefix by prefix.
#[test]
fn every_truncation_prefix_errors_in_every_format_and_loader() {
    for (format, blob) in all_format_blobs(5) {
        for cut in 0..blob.len() {
            let prefix = &blob[..cut];
            let aligned = AlignedBytes::from_slice(prefix);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (PackedStHybrid::load(prefix), PackedStHybrid::load_ref(&aligned).map(|_| ()))
            }));
            match outcome {
                Ok((owned, borrowed)) => {
                    assert!(owned.is_err(), "{format}: owning load of prefix {cut} succeeded");
                    assert!(borrowed.is_err(), "{format}: borrowed load of prefix {cut} succeeded");
                }
                Err(_) => panic!("{format}: prefix {cut}/{} PANICKED a loader", blob.len()),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Byte-flip fuzzing across all three container formats and both loaders:
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
        let (name, mut blob) = all_format_blobs(6).swap_remove(format);
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
        prop_assert!(outcome.is_ok(), "byte flips panicked a loader ({}, seed {})", name, seed);
    }
}

/// Where the live bytes the zero-copy loader lends to the kernels sit in an
/// aligned v3 inline `blob` of `net`'s engine: every non-padding bit of
/// each strassenified conv's `W_b`/`W_c` bitplanes, as `(byte, bit mask)`,
/// and every byte of its `â` and bias payloads. Found by searching the blob
/// for the bytes the compiled planes and payloads must have.
fn live_targets(net: &StHybridNet, blob: &[u8]) -> (Vec<(usize, u8)>, Vec<usize>) {
    let find = |bytes: &[u8]| {
        blob.windows(bytes.len()).position(|w| w == bytes).expect("payload is stored inline")
    };
    let (mut bits, mut payload) = (Vec::new(), Vec::new());
    for layer in net.front().layers() {
        let StLayer::Conv(conv) = layer else { continue };
        let wb = conv.wb_values();
        let rows = wb.dims()[0];
        for matrix in [wb.reshape(&[rows, wb.numel() / rows]), conv.wc_values().clone()] {
            let packed = PackedTernary::from_tensor(&matrix);
            for plane in [packed.plus_words(), packed.minus_words()] {
                let bytes: Vec<u8> = plane.iter().flat_map(|w| w.to_le_bytes()).collect();
                let at = find(&bytes);
                for row in 0..packed.rows() {
                    for col in 0..packed.cols() {
                        let word = row * packed.words_per_row() + col / 64;
                        bits.push((at + word * 8 + (col % 64) / 8, 1u8 << (col % 8)));
                    }
                }
            }
        }
        for values in [conv.a_hat_values(), conv.bias_values()] {
            let bytes: Vec<u8> = values.data().iter().flat_map(|v| v.to_le_bytes()).collect();
            let at = find(&bytes);
            payload.extend(at..at + bytes.len());
        }
    }
    (bits, payload)
}

/// Targeted flips in what an aligned v3 inline blob lends to the SIMD
/// kernels. Random flips almost never land there (most plane bits are
/// padding), so each case flips one live bit: a non-padding bitplane bit of
/// a conv, or one bit of a byte of its `â`/bias payload. `load_ref` may
/// accept or reject the blob but must not panic, and every blob it accepts
/// must serve one forward pass without panicking, under whichever kernel
/// `THNT_KERNEL` selects. The case fails if no flip of either kind loads.
#[test]
fn flips_in_borrowed_planes_and_payloads_never_panic() {
    let (net, engine) = frozen_engine(31, 6, 1);
    let mut blob = Vec::new();
    save_thnt2_with(&engine, None, SaveOptions::v3(), &mut blob).unwrap();
    let aligned = AlignedBytes::from_slice(&blob);
    let (clean, _) = PackedStHybrid::load_ref(&aligned).unwrap();
    assert!(clean.bitplanes_borrowed(), "the target is the zero-copy path");
    let (bits, payload) = live_targets(&net, &blob);
    let mut rng = SmallRng::seed_from_u64(31);
    let x = thnt_tensor::gaussian(&[1, 1, 49, 10], 0.0, 1.0, &mut rng);
    // Flips that loaded: [plane bits, payload bytes].
    let mut loaded = [0usize; 2];
    for case in 0..96 {
        let mut flipped = blob.clone();
        let kind = case % 2;
        if kind == 0 {
            let (byte, mask) = bits[rand::Rng::gen_range(&mut rng, 0..bits.len())];
            flipped[byte] ^= mask;
        } else {
            let byte = payload[rand::Rng::gen_range(&mut rng, 0..payload.len())];
            flipped[byte] ^= 1 << rand::Rng::gen_range(&mut rng, 0..8u32);
        }
        let aligned = AlignedBytes::from_slice(&flipped);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            PackedStHybrid::load_ref(&aligned).map(|(engine, _)| engine.forward(&x)).is_ok()
        }));
        match outcome {
            Ok(true) => loaded[kind] += 1,
            Ok(false) => {}
            Err(_) => panic!("case {case}: a flip in a borrowed plane or payload panicked"),
        }
    }
    assert!(loaded[0] > 0, "no plane-bit flip loaded: the case is vacuous");
    assert!(loaded[1] > 0, "no payload flip loaded: the case is vacuous");
}
