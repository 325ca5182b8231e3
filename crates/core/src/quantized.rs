//! The quantized popcount inference engine: bit-sliced int8 activations
//! over the packed ternary weights, so the hot matvecs run as pure
//! AND + popcount.
//!
//! The f32 packed engine ([`crate::engine::PackedStHybrid`]) already stores
//! weights as ternary bitplanes but streams activations as f32 lanes
//! through the bitplane kernels. This module closes the loop on the
//! activation side:
//!
//! 1. **Calibration** ([`QuantizedStHybrid::calibrate`]) runs the frozen
//!    f32 engine over a calibration batch and records, with a
//!    [`thnt_quant::RangeObserver`], the dynamic range at every point the
//!    quantized engine will round to int8 — each strassenified layer's
//!    input and its packed hidden stage `â ⊙ (W_b · x)`, plus the tree's
//!    shared projection `ẑ`. The result is a [`QuantSchedule`] of
//!    per-layer scales.
//! 2. **Compilation** ([`QuantizedStHybrid::compile`]) moves the packed
//!    engine in as its base and, per strassenified layer, pre-folds every
//!    per-channel f32 factor into requantization constants: the hidden
//!    dequantization `s_in · â[k]`, and the output stage `a_ch · s_h` /
//!    `a_ch · bias + b` with any following batch-norm affine `(a, b)`
//!    folded in. The ternary weights are the base's, borrowed or owned as
//!    it holds them; nothing is copied.
//! 3. **Inference** quantizes each activation matrix once
//!    (`q = clamp(round(x/s), −127, 127)`, stored as bit planes) and
//!    evaluates
//!
//!    ```text
//!    h_int = W_b · q          (AND+popcount, exact i32)
//!    h_f   = h_int ⊙ (s_in·â)
//!    ĥ     = quantize(h_f, s_h)
//!    y_int = W_c · ĥ          (AND+popcount, exact i32)
//!    out   = (a ⊙ s_h) · y_int + (a ⊙ bias + b)
//!    ```
//!
//!    Every layer runs it channel-major on
//!    [`thnt_strassen::BitSlicedColumns`] operands, the columns minor: a
//!    convolution's columns are one sample's positions, a dense layer's and
//!    the tree projection's are the batch's samples, and every tree node
//!    reads one `ẑ` quantized from the projection's output. Each product
//!    covers every column in one kernel call and writes the
//!    `[channels × columns]` rows the next stage reads; one set of buffers
//!    serves every layer of a forward pass.
//!
//!    Depthwise taps, unfolded affines, ReLU and pooling stay in f32 — they
//!    are a vanishing fraction of the arithmetic — and run through the
//!    packed engine's own layer step; the tree's sigmoid/tanh routing is
//!    the packed tree's routing, fed popcount node products.
//!
//! The integer products and the quantizes dispatch through the same
//! [`thnt_strassen::KernelDispatch`] / `THNT_KERNEL` contract as the f32
//! engine, so `scalar`, `avx2`, `avx512` and `neon` backends all serve the
//! quantized path — bitwise identically, because the accumulation is
//! integral and every quantize rounds by one formula.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use thnt_quant::{CalibrationMethod, RangeObserver};
use thnt_strassen::{BitSlicedColumns, KernelDispatch, PackedTernary};
use thnt_tensor::Tensor;

use crate::engine::{
    conv_columns, ChannelAffine, PackedConv2d, PackedDense, PackedLayer, PackedStHybrid,
};

/// The two activation scales of one quantized strassenified layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerScales {
    /// Scale of the layer's int8 input quantization.
    pub in_scale: f32,
    /// Scale of the `â`-scaled hidden activation requantization.
    pub hidden_scale: f32,
}

/// A calibrated set of activation scales for a whole [`PackedStHybrid`] —
/// everything [`QuantizedStHybrid::compile`] needs beyond the packed
/// weights themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantSchedule {
    /// Scales of the front-end's strassenified layers (conv and dense, in
    /// stack order). Depthwise layers stay f32 and take no entry.
    pub front: Vec<LayerScales>,
    /// Scales of the tree's projection layer `z`.
    pub z: LayerScales,
    /// Shared scale of the projected `ẑ` every tree node consumes.
    pub zhat_scale: f32,
    /// Hidden-activation scale of every node dense, in `θ`, `W`, `V` order.
    pub node_hidden: Vec<f32>,
}

impl QuantSchedule {
    /// Serialized size of the schedule in bytes (all scales as f32).
    pub fn bytes(&self) -> usize {
        (self.front.len() * 2 + 2 + 1 + self.node_hidden.len()) * 4
    }

    fn scales(&self) -> impl Iterator<Item = f32> + '_ {
        self.front
            .iter()
            .chain(std::iter::once(&self.z))
            .flat_map(|ls| [ls.in_scale, ls.hidden_scale])
            .chain(std::iter::once(self.zhat_scale))
            .chain(self.node_hidden.iter().copied())
    }

    /// Validates that every scale is finite and strictly positive.
    ///
    /// # Errors
    ///
    /// Returns a description of the first offending scale.
    pub fn validate(&self) -> Result<(), String> {
        match self.scales().find(|s| !s.is_finite() || *s <= 0.0) {
            Some(bad) => Err(format!("quantization scales must be finite and positive, got {bad}")),
            None => Ok(()),
        }
    }
}

/// The requantization constants [`QuantizedStHybrid::compile`] folds for
/// one strassenified layer. The layer's weights stay in the packed engine:
/// the popcount pipelines below take the layer they run as an argument.
#[derive(Debug, Clone, PartialEq)]
struct Requant {
    /// Scale of the layer's int8 input quantization.
    in_scale: f32,
    /// `s_in · â[k]`: converts the integer hidden accumulator to f32.
    hidden_dequant: Vec<f32>,
    /// Scale of the hidden requantization.
    hidden_scale: f32,
    /// Per-output `a_ch · s_h` (affine-folded output dequantization).
    out_scale: Vec<f32>,
    /// Per-output `a_ch · bias_ch + b_ch`.
    out_shift: Vec<f32>,
}

impl Requant {
    /// Folds a layer's `â` and bias with its scales and an optional
    /// following affine.
    fn fold(
        a_hat: &[f32],
        bias: &[f32],
        scales: LayerScales,
        affine: Option<&ChannelAffine>,
    ) -> Result<Self, String> {
        let out = bias.len();
        if let Some(a) = affine {
            if a.scale.len() != out {
                return Err(format!(
                    "affine width {} does not match layer output {out}",
                    a.scale.len()
                ));
            }
        }
        let (a, b): (&[f32], &[f32]) = match affine {
            Some(aff) => (&aff.scale, &aff.shift),
            None => (&[], &[]),
        };
        Ok(Self {
            in_scale: scales.in_scale,
            hidden_dequant: a_hat.iter().map(|&ah| scales.in_scale * ah).collect(),
            hidden_scale: scales.hidden_scale,
            out_scale: (0..out)
                .map(|ch| a.get(ch).copied().unwrap_or(1.0) * scales.hidden_scale)
                .collect(),
            out_shift: (0..out)
                .map(|ch| {
                    a.get(ch).copied().unwrap_or(1.0) * bias[ch] + b.get(ch).copied().unwrap_or(0.0)
                })
                .collect(),
        })
    }

    /// The pipeline behind the quantized columns `s.xq`: `W_b` popcounts
    /// them into the `[r × cols]` hidden map, each hidden row is dequantized
    /// by its `s_in·â`, the map is requantized at `s_h`, and `W_c` popcounts
    /// it into the `[out × cols]` accumulators `s.y_int`.
    fn columns(&self, d: &KernelDispatch, wb: &PackedTernary, wc: &PackedTernary, s: &mut Scratch) {
        let (cols, r) = (s.xq.cols(), self.hidden_dequant.len());
        s.h_int.resize(r * cols, 0);
        wb.bitsliced_matmul_rhs_into_with(d, &s.xq, &mut s.h_int);
        s.h_f.clear();
        for (k, &dq) in self.hidden_dequant.iter().enumerate() {
            s.h_f.extend(s.h_int[k * cols..(k + 1) * cols].iter().map(|&i| i as f32 * dq));
        }
        s.hq.reshape(r, cols);
        s.hq.quantize_into_with(d, &s.h_f, self.hidden_scale);
        s.y_int.resize(self.out_scale.len() * cols, 0);
        wc.bitsliced_matmul_rhs_into_with(d, &s.hq, &mut s.y_int);
    }

    /// `layer`'s pipeline with each column of `s.xq` one sample, returned as
    /// `[samples, out]` rows: a dense layer's batch, the tree projection's,
    /// or the tree's `ẑ` for every node.
    fn samples(&self, d: &KernelDispatch, layer: &PackedDense, s: &mut Scratch) -> Tensor {
        let (n, out) = (s.xq.cols(), self.out_scale.len());
        self.columns(d, &layer.wb, &layer.wc, s);
        let affine = self.out_scale.iter().zip(&self.out_shift).cycle();
        let mut y = Vec::with_capacity(n * out);
        y.extend(transpose(&s.y_int, out, n).zip(affine).map(|(i, (&a, &b))| a * i as f32 + b));
        Tensor::from_vec(y, &[n, out])
    }

    /// `c`'s popcount convolution, `[n, ic, h, w] → [n, oc, oh, ow]`:
    /// each sample's `[k × positions]` column matrix is quantized at
    /// `in_scale`, and the pipeline's `[oc × positions]` product lands in
    /// the sample's output rows.
    fn conv(&self, d: &KernelDispatch, c: &PackedConv2d, x: &Tensor, s: &mut Scratch) -> Tensor {
        let (n, ic, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let (oh, ow) = c.spec.out_dims(h, w);
        let (spatial, oc, plane) = (oh * ow, self.out_scale.len(), ic * h * w);
        let mut y = Tensor::zeros(&[n, oc, oh, ow]);
        if oc * spatial == 0 {
            return y;
        }
        s.xq.reshape(c.wb.cols(), spatial);
        for (i, dst) in y.data_mut().chunks_mut(oc * spatial).enumerate() {
            let sample = &x.data()[i * plane..(i + 1) * plane];
            let m = conv_columns(&c.spec, sample, (ic, h, w), &mut s.cols);
            s.xq.quantize_into_with(d, m, self.in_scale);
            self.columns(d, &c.wb, &c.wc, s);
            let rows = dst.chunks_exact_mut(spatial).zip(s.y_int.chunks_exact(spatial));
            for ((o, yi), (&a, &b)) in rows.zip(self.out_scale.iter().zip(&self.out_shift)) {
                for (v, &i) in o.iter_mut().zip(yi) {
                    *v = a * i as f32 + b;
                }
            }
        }
        y
    }
}

/// The pipeline's buffers, allocated once per forward pass and reused by
/// every layer: an f32 column matrix `cols` and its quantized `xq` (the
/// tree's `ẑ` once the projection ran), the hidden map as `W_b`'s product,
/// dequantized and requantized, and `W_c`'s product.
#[derive(Default)]
struct Scratch {
    cols: Vec<f32>,
    xq: BitSlicedColumns,
    h_int: Vec<i32>,
    h_f: Vec<f32>,
    hq: BitSlicedColumns,
    y_int: Vec<i32>,
}

impl Scratch {
    /// Quantizes the batch `x` at `scale` into `xq`, sample `j` as column
    /// `j`.
    fn quantize_samples(&mut self, d: &KernelDispatch, x: &Tensor, scale: f32) {
        let (n, k) = (x.dims()[0], x.dims()[1..].iter().product());
        self.cols.clear();
        self.cols.extend(transpose(x.data(), n, k));
        self.xq.reshape(k, n);
        self.xq.quantize_into_with(d, &self.cols, scale);
    }
}

/// The `[cols × rows]` transpose of the row-major `[rows × cols]` matrix `m`.
fn transpose<T: Copy>(m: &[T], rows: usize, cols: usize) -> impl Iterator<Item = T> + '_ {
    (0..cols).flat_map(move |c| (0..rows).map(move |r| m[r * cols + c]))
}

/// The batch-norm affine a quantized conv or dense at `layers[i]` folds
/// into its output stage: the layer right after it, if that is an affine.
fn folded_affine<'l>(layers: &'l [PackedLayer<'_>], i: usize) -> Option<&'l ChannelAffine> {
    match (layers.get(i), layers.get(i + 1)) {
        (Some(PackedLayer::Conv(_) | PackedLayer::Dense(_)), Some(PackedLayer::Affine(a))) => {
            Some(a)
        }
        _ => None,
    }
}

/// The quantized compilation of a [`PackedStHybrid`]: same ternary weights,
/// int8 bit-sliced activations, popcount matvecs. Compiled from a
/// [`PackedStHybrid::load_ref`] engine, it reads the artifact's buffer too.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use thnt_core::{engine::PackedStHybrid, HybridConfig, QuantizedStHybrid, StHybridNet};
/// use thnt_quant::CalibrationMethod;
/// use thnt_strassen::Strassenified;
/// use thnt_tensor::Tensor;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let cfg = HybridConfig { ds_blocks: 1, width: 8, proj_dim: 6, tree_depth: 1,
///                          ..HybridConfig::paper() };
/// let mut net = StHybridNet::new(cfg, &mut rng);
/// net.activate_quantization();
/// net.freeze_ternary();
/// let engine = PackedStHybrid::compile(&net);
///
/// let calib = Tensor::from_vec(
///     (0..4 * 49 * 10).map(|i| ((i % 17) as f32 - 8.0) / 8.0).collect(),
///     &[4, 1, 49, 10],
/// );
/// let schedule = QuantizedStHybrid::calibrate(&engine, &calib, CalibrationMethod::default());
/// let quantized = QuantizedStHybrid::compile(engine.clone(), schedule).unwrap();
/// let logits = quantized.forward(&calib);
/// assert_eq!(logits.dims(), &[4, engine.num_classes()]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedStHybrid<'a> {
    base: PackedStHybrid<'a>,
    schedule: QuantSchedule,
    /// One entry per front layer of `base`: the folded constants of each
    /// conv and dense, `None` for the layers that run in f32.
    front: Vec<Option<Requant>>,
    /// The tree projection's constants.
    z: Requant,
    /// Every node dense's constants, in `θ ‖ W ‖ V` order.
    nodes: Vec<Requant>,
}

/// The range `method` calibrates over the samples of `t`, each sample one
/// observation (sample order is the batch order, so moving-max calibration
/// sees a deterministic stream).
fn sample_scale(t: &Tensor, method: CalibrationMethod) -> f32 {
    let mut obs = RangeObserver::new(method);
    if let Some(sample) = t.numel().checked_div(t.dims()[0]) {
        for chunk in t.data().chunks_exact(sample) {
            obs.observe(chunk);
        }
    }
    obs.scale()
}

impl<'a> QuantizedStHybrid<'a> {
    /// Runs the f32 engine over `batch` (`[n, 1, 49, 10]`) and calibrates
    /// an activation-scale schedule with `method` at every quantize point.
    ///
    /// Calibration is deterministic per kernel backend: the same engine,
    /// batch and method always produce bit-identical scales on one
    /// `THNT_KERNEL` backend. Across backends the scales can differ in the
    /// last bits, because the f32 packed matvecs it observes reassociate
    /// their sums differently on `scalar` and the SIMD backends. A saved
    /// artifact stores its scales, so loading one does not depend on the
    /// host.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is empty or not 4-dimensional.
    pub fn calibrate(
        engine: &PackedStHybrid,
        batch: &Tensor,
        method: CalibrationMethod,
    ) -> QuantSchedule {
        assert_eq!(batch.dims().len(), 4, "calibration batch must be [n, c, h, w]");
        assert!(batch.dims()[0] > 0, "calibration batch must be non-empty");
        let mut front = Vec::new();
        let mut cur = batch.clone();
        for layer in engine.front().layers() {
            let hidden_scale = match layer {
                PackedLayer::Conv(c) => {
                    let mut obs = RangeObserver::new(method);
                    c.hidden_maps(&cur, |_, hidden| obs.observe(hidden));
                    Some(obs.scale())
                }
                PackedLayer::Dense(f) => Some(sample_scale(&f.hidden(&cur), method)),
                _ => None,
            };
            if let Some(hidden_scale) = hidden_scale {
                front.push(LayerScales { in_scale: sample_scale(&cur, method), hidden_scale });
            }
            cur = layer.step(cur);
        }
        let tree = engine.tree();
        let zhat = tree.z.forward(&cur);
        QuantSchedule {
            front,
            z: LayerScales {
                in_scale: sample_scale(&cur, method),
                hidden_scale: sample_scale(&tree.z.hidden(&cur), method),
            },
            zhat_scale: sample_scale(&zhat, method),
            node_hidden: tree
                .nodes
                .iter()
                .map(|node| sample_scale(&node.hidden(&zhat), method))
                .collect(),
        }
    }

    /// Compiles `engine` against a calibrated `schedule`, prefolding every
    /// requantization constant (any batch-norm affine directly following a
    /// quantized conv/dense folds into its output stage). `engine` becomes
    /// the base; no weight is copied.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch if the schedule's layer counts
    /// do not match the engine or any scale is non-finite or non-positive.
    pub fn compile(engine: PackedStHybrid<'a>, schedule: QuantSchedule) -> Result<Self, String> {
        schedule.validate()?;
        let layers = engine.front().layers();
        let mut scales = schedule.front.iter();
        let mut front = Vec::with_capacity(layers.len());
        for (i, layer) in layers.iter().enumerate() {
            front.push(match layer {
                PackedLayer::Conv(PackedConv2d { a_hat, bias, .. })
                | PackedLayer::Dense(PackedDense { a_hat, bias, .. }) => {
                    let ls = *scales.next().ok_or("schedule has too few front layer scales")?;
                    Some(Requant::fold(a_hat, bias, ls, folded_affine(layers, i))?)
                }
                _ => None,
            });
        }
        if scales.next().is_some() {
            return Err("schedule has more front scales than quantized layers".into());
        }
        let tree = engine.tree();
        let expected = tree.nodes.len();
        if schedule.node_hidden.len() != expected {
            return Err(format!(
                "schedule has {} node scales, tree has {expected} node denses",
                schedule.node_hidden.len()
            ));
        }
        let nodes = tree
            .nodes
            .iter()
            .zip(&schedule.node_hidden)
            .map(|(node, &hidden_scale)| {
                let ls = LayerScales { in_scale: schedule.zhat_scale, hidden_scale };
                Requant::fold(&node.a_hat, &node.bias, ls, None)
            })
            .collect::<Result<_, _>>()?;
        let z = Requant::fold(&tree.z.a_hat, &tree.z.bias, schedule.z, None)?;
        Ok(Self { base: engine, schedule, front, z, nodes })
    }

    /// Calibrates on `batch` and compiles a clone of `engine` in one step;
    /// the clone copies no weight `engine` borrows from an artifact buffer.
    ///
    /// # Errors
    ///
    /// As [`Self::compile`] (a calibrated schedule always matches, so this
    /// only fails on degenerate engines).
    pub fn calibrate_and_compile(
        engine: &PackedStHybrid<'a>,
        batch: &Tensor,
        method: CalibrationMethod,
    ) -> Result<Self, String> {
        let schedule = Self::calibrate(engine, batch, method);
        Self::compile(engine.clone(), schedule)
    }

    /// Batched quantized inference: `[n, 1, 49, 10] → [n, L]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.forward_with(KernelDispatch::get(), x)
    }

    /// [`Self::forward`] with every quantize and popcount product on the
    /// backend `d`. The layers kept in f32 run on the process dispatch,
    /// whose depthwise window sums are bitwise the same on every backend.
    pub(crate) fn forward_with(&self, d: &KernelDispatch, x: &Tensor) -> Tensor {
        let mut s = Scratch::default();
        let layers = self.base.front().layers();
        let mut cur = x.clone();
        let mut i = 0;
        while let (Some(layer), Some(requant)) = (layers.get(i), self.front.get(i)) {
            cur = match (layer, requant) {
                (PackedLayer::Conv(c), Some(q)) => q.conv(d, c, &cur, &mut s),
                (PackedLayer::Dense(f), Some(q)) => {
                    s.quantize_samples(d, &cur, q.in_scale);
                    q.samples(d, f, &mut s)
                }
                _ => layer.step(cur),
            };
            // A folded affine already ran in the layer before it.
            i += 1 + usize::from(folded_affine(layers, i).is_some());
        }
        let tree = self.base.tree();
        s.quantize_samples(d, &cur, self.z.in_scale);
        let zhat = self.z.samples(d, &tree.z, &mut s);
        s.quantize_samples(d, &zhat, self.schedule.zhat_scale);
        tree.route(cur.dims()[0], |i, node| self.nodes[i].samples(d, node, &mut s))
    }

    /// The underlying f32 packed engine.
    pub fn base(&self) -> &PackedStHybrid<'a> {
        &self.base
    }

    /// The calibrated activation-scale schedule.
    pub fn schedule(&self) -> &QuantSchedule {
        &self.schedule
    }

    /// Number of classification targets `L`.
    pub fn num_classes(&self) -> usize {
        self.base.num_classes()
    }

    /// Model bytes: the packed ternary weights plus the schedule.
    pub fn model_bytes(&self) -> usize {
        self.base.packed_bytes() + self.schedule.bytes()
    }

    /// Serializes the quantized engine as a `.thnt2` artifact with a `QNT8`
    /// schedule section alongside the weight sections — readable by
    /// [`PackedStHybrid::load`] too, which simply ignores the schedule.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn save<W: std::io::Write>(
        &self,
        meta: Option<&crate::artifact::InferenceMeta>,
        writer: W,
    ) -> std::io::Result<()> {
        crate::artifact::save_quantized_thnt2_with(
            self,
            meta,
            crate::artifact::SaveOptions::default(),
            writer,
        )
    }

    /// Reconstructs a quantized engine from a `.thnt2` artifact carrying a
    /// `QNT8` section.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on any malformed artifact, a missing schedule
    /// section, or a schedule inconsistent with the packed weights.
    pub fn load<R: std::io::Read>(
        reader: R,
    ) -> std::io::Result<(QuantizedStHybrid<'static>, Option<crate::artifact::InferenceMeta>)> {
        crate::artifact::load_quantized_thnt2(reader)
    }
}

impl thnt_nn::InferenceBackend for QuantizedStHybrid<'_> {
    fn infer(&self, x: &Tensor) -> Tensor {
        self.forward(x)
    }

    fn num_classes(&self) -> usize {
        QuantizedStHybrid::num_classes(self)
    }

    fn adds_per_sample(&self) -> u64 {
        // The popcount formulation executes the same ±1 accumulations as
        // the f32 engine, word-parallel; the paper's add metric is
        // unchanged.
        self.base.adds_per_sample() as u64
    }

    fn model_bytes(&self) -> usize {
        QuantizedStHybrid::model_bytes(self)
    }

    fn backend_name(&self) -> &'static str {
        "quantized"
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::config::HybridConfig;
    use crate::st_hybrid::StHybridNet;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use thnt_strassen::{BitSliced, Kernel, Strassenified};
    use thnt_tensor::Conv2dSpec;

    fn frozen_engine(seed: u64) -> PackedStHybrid<'static> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut net = StHybridNet::new(
            HybridConfig {
                ds_blocks: 1,
                width: 8,
                proj_dim: 6,
                tree_depth: 1,
                ..HybridConfig::paper()
            },
            &mut rng,
        );
        net.activate_quantization();
        net.freeze_ternary();
        PackedStHybrid::compile(&net)
    }

    fn random_batch(n: usize, seed: u64) -> Tensor {
        let mut rng = SmallRng::seed_from_u64(seed);
        Tensor::from_vec(
            (0..n * 49 * 10).map(|_| rng.gen_range(-1.5f32..1.5)).collect(),
            &[n, 1, 49, 10],
        )
    }

    /// `out[s·rows + r] = W_r · q_s`, each `len`-element sample of the
    /// row-major `x` quantized at `scale` into its own [`BitSliced`] vector:
    /// one matvec per sample, the product both oracles below run.
    fn matvec_per_sample(
        d: &KernelDispatch,
        w: &PackedTernary,
        x: &[f32],
        len: usize,
        scale: f32,
        out: &mut [i32],
    ) {
        for (sample, y) in x.chunks_exact(len).zip(out.chunks_exact_mut(w.rows())) {
            w.bitsliced_matvec_into_with(d, &BitSliced::quantize(sample, len, scale), y);
        }
    }

    /// One quantized conv as the oracle proptest builds it: the packed
    /// layer and the constants `compile` folds for it.
    struct QuantConv2d<'a> {
        layer: PackedConv2d<'a>,
        q: Requant,
    }

    impl<'a> QuantConv2d<'a> {
        fn fold(
            layer: &PackedConv2d<'a>,
            scales: LayerScales,
            affine: Option<&ChannelAffine>,
        ) -> Result<Self, String> {
            let q = Requant::fold(&layer.a_hat, &layer.bias, scales, affine)?;
            Ok(Self { layer: layer.clone(), q })
        }

        fn forward(&self, d: &KernelDispatch, x: &Tensor) -> Tensor {
            self.q.conv(d, &self.layer, x, &mut Scratch::default())
        }
    }

    /// The per-position conv body the channel-major forward replaced, kept
    /// as its oracle: each output position's patch is one bit-sliced
    /// sample, each product one matvec per position, and the
    /// `[position, channel]` result is transposed into the output rows.
    fn per_position_forward(c: &QuantConv2d, d: &KernelDispatch, x: &Tensor) -> Tensor {
        let (layer, q) = (&c.layer, &c.q);
        let (n, ic, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let (oh, ow) = layer.spec.out_dims(h, w);
        let spatial = oh * ow;
        let (k, r, oc) = (layer.wb.cols(), q.hidden_dequant.len(), q.out_scale.len());
        let mut y = Tensor::zeros(&[n, oc, oh, ow]);
        let mut h_int = vec![0i32; spatial * r];
        let mut y_int = vec![0i32; spatial * oc];
        let mut cols = Vec::new();
        let plane = ic * h * w;
        for s in 0..n {
            let sample = &x.data()[s * plane..(s + 1) * plane];
            let m = conv_columns(&layer.spec, sample, (ic, h, w), &mut cols);
            let patches: Vec<f32> =
                (0..spatial * k).map(|j| m[(j % k) * spatial + j / k]).collect();
            matvec_per_sample(d, &layer.wb, &patches, k, q.in_scale, &mut h_int);
            let h_f: Vec<f32> = h_int
                .iter()
                .enumerate()
                .map(|(i, &hi)| hi as f32 * q.hidden_dequant[i % r])
                .collect();
            matvec_per_sample(d, &layer.wc, &h_f, r, q.hidden_scale, &mut y_int);
            let dst = &mut y.data_mut()[s * oc * spatial..(s + 1) * oc * spatial];
            for pos in 0..spatial {
                for ch in 0..oc {
                    dst[ch * spatial + pos] =
                        q.out_scale[ch] * y_int[pos * oc + ch] as f32 + q.out_shift[ch];
                }
            }
        }
        y
    }

    /// The per-sample dense body the column pipeline replaced, kept as its
    /// oracle: each sample of the row-major `[n, in]` batch `x` is one
    /// [`BitSliced`] vector quantized at `scale`, each product one matvec
    /// per sample, and the output is sample-major.
    fn per_sample_dense(
        q: &Requant,
        d: &KernelDispatch,
        layer: &PackedDense,
        x: &[f32],
        scale: f32,
    ) -> Tensor {
        let (k, r, out) = (layer.wb.cols(), q.hidden_dequant.len(), q.out_scale.len());
        let n = x.len() / k;
        let mut h_int = vec![0i32; n * r];
        matvec_per_sample(d, &layer.wb, x, k, scale, &mut h_int);
        let h_f: Vec<f32> =
            h_int.iter().enumerate().map(|(i, &hi)| hi as f32 * q.hidden_dequant[i % r]).collect();
        let mut y_int = vec![0i32; n * out];
        matvec_per_sample(d, &layer.wc, &h_f, r, q.hidden_scale, &mut y_int);
        let y = y_int
            .iter()
            .enumerate()
            .map(|(i, &yi)| q.out_scale[i % out] * yi as f32 + q.out_shift[i % out])
            .collect();
        Tensor::from_vec(y, &[n, out])
    }

    fn random_dense(k: usize, r: usize, out: usize, rng: &mut SmallRng) -> PackedDense<'static> {
        PackedDense {
            wb: ternary(r, k, rng),
            a_hat: (0..r).map(|_| rng.gen_range(0.05f32..2.0)).collect(),
            wc: ternary(out, r, rng),
            bias: (0..out).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        }
    }

    fn ternary(rows: usize, cols: usize, rng: &mut SmallRng) -> PackedTernary<'static> {
        let signs = (0..rows * cols).map(|_| rng.gen_range(-1i32..=1) as f32).collect();
        PackedTernary::from_tensor(&Tensor::from_vec(signs, &[rows, cols]))
    }

    /// Values that stress the rounding: NaN, ±inf, ±0.0, magnitudes that
    /// saturate, every (n + ½)·scale for |n| ≤ 130 and one ulp either side,
    /// then uniform values across the whole grid.
    fn rounding_stress(len: usize, scale: f32, rng: &mut SmallRng) -> Vec<f32> {
        let mut v = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1e30, -1e30];
        v.extend([127.5, -127.5, 200.0, -200.0].map(|q| q * scale));
        for n in -130i32..=130 {
            let half = (n as f32 + 0.5) * scale;
            v.extend([half, half.next_up(), half.next_down()]);
        }
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..=i));
        }
        v.resize(len.min(v.len()), 0.0);
        while v.len() < len {
            v.push(rng.gen_range(-135.0f32..135.0) * scale);
        }
        v
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(40))]

        /// The channel-major conv equals the per-position oracle bit for
        /// bit on every backend: the paper's first conv (10×4, stride 2,
        /// SAME on 49×10: k = 40, 125 positions), a 1×1 pointwise conv
        /// (k = 64), k = 63 and 65, and a two-word k = 72 (ic = 2, 6×6), at
        /// 1, 7, 8, 9, 17 and 130 positions, in batches of 3 whose samples
        /// each equal their batch-1 result.
        #[test]
        fn channel_major_conv_matches_the_per_position_oracle(
            seed in 0u64..1_000_000,
            geometry in 0usize..5,
            positions in 0usize..6,
            scale_exp in 0i32..10,
            flags in 0u8..4,
        ) {
            let (pow2_scale, affine) = (flags & 1 == 1, flags & 2 == 2);
            let mut rng = SmallRng::seed_from_u64(seed);
            let (h, w) = [(1, 1), (7, 1), (2, 4), (3, 3), (17, 1), (13, 10)][positions];
            let (ic, h, w, spec) = match geometry {
                0 => (1, 49, 10, Conv2dSpec::same(49, 10, 10, 4, 2, 2)),
                1 => (64, h, w, Conv2dSpec::valid(1, 1, 1, 1)),
                2 => (7, h, w, Conv2dSpec::same(h, w, 3, 3, 1, 1)),
                3 => (13, h, w, Conv2dSpec::same(h, w, 5, 1, 1, 1)),
                _ => (2, h, w, Conv2dSpec::same(h, w, 6, 6, 1, 1)),
            };
            let (r, oc) = (rng.gen_range(1..=70), rng.gen_range(1..=20));
            let k = ic * spec.kh * spec.kw;
            let packed = PackedConv2d {
                wb: ternary(r, k, &mut rng),
                a_hat: (0..r).map(|_| rng.gen_range(0.05f32..2.0)).collect(),
                wc: ternary(oc, r, &mut rng),
                bias: (0..oc).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
                spec,
            };
            let in_scale = if pow2_scale {
                (2.0f32).powi(-scale_exp)
            } else {
                rng.gen_range(0.001f32..0.5)
            };
            let scales = LayerScales { in_scale, hidden_scale: rng.gen_range(0.001f32..0.5) };
            let aff = ChannelAffine {
                scale: (0..oc).map(|_| rng.gen_range(-2.0f32..2.0)).collect(),
                shift: (0..oc).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            };
            let conv = QuantConv2d::fold(&packed, scales, affine.then_some(&aff)).unwrap();
            let plane = ic * h * w;
            let x = Tensor::from_vec(rounding_stress(3 * plane, in_scale, &mut rng), &[3, ic, h, w]);
            let scalar = KernelDispatch::new(Kernel::Scalar).unwrap();
            let want = per_position_forward(&conv, &scalar, &x);
            let backends = Kernel::available().into_iter().map(|k| KernelDispatch::new(k).unwrap());
            for d in backends.chain([*KernelDispatch::get()]) {
                let got = conv.forward(&d, &x);
                proptest::prop_assert_eq!(got.dims(), want.dims());
                proptest::prop_assert_eq!(bits(&got), bits(&want), "kernel {}", d.kernel());
                let out = got.numel() / 3;
                for s in 0..3 {
                    let one = x.data()[s * plane..(s + 1) * plane].to_vec();
                    let alone = conv.forward(&d, &Tensor::from_vec(one, &[1, ic, h, w]));
                    proptest::prop_assert_eq!(
                        bits(&alone),
                        bits(&got)[s * out..(s + 1) * out].to_vec(),
                        "kernel {} sample {} alone",
                        d.kernel(),
                        s
                    );
                }
            }
        }

        /// The column pipeline equals the per-sample oracle bit for bit on
        /// every backend, for a dense layer (its batch quantized with the
        /// samples as columns) and for a tree node (reading the one `ẑ` a
        /// projection quantized from its `[proj × samples]` output), with
        /// and without a folded affine: batches of 1, 2, 7, 8, 9 and 17
        /// samples, either side of the 8-column AVX-512 group, inputs 1, 12,
        /// 48, 63, 64, 65 and 130 wide, and every sample alone equal to its
        /// row of the batch. One scratch serves every call, as in a forward.
        #[test]
        fn column_pipeline_matches_the_per_sample_oracle(
            seed in 0u64..1_000_000,
            batch in 0usize..6,
            width in 0usize..7,
            scale_exp in 0i32..10,
            flags in 0u8..4,
        ) {
            let (pow2_scale, affine) = (flags & 1 == 1, flags & 2 == 2);
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = [1, 2, 7, 8, 9, 17][batch];
            let k = [1, 12, 48, 63, 64, 65, 130][width];
            let (r, out) = (rng.gen_range(1..=70), rng.gen_range(1..=20));
            let dense = random_dense(k, r, out, &mut rng);
            let node = random_dense(out, rng.gen_range(1..=70), rng.gen_range(1..=20), &mut rng);
            let in_scale = if pow2_scale {
                (2.0f32).powi(-scale_exp)
            } else {
                rng.gen_range(0.001f32..0.5)
            };
            let scales = LayerScales { in_scale, hidden_scale: rng.gen_range(0.001f32..0.5) };
            let aff = ChannelAffine {
                scale: (0..out).map(|_| rng.gen_range(-2.0f32..2.0)).collect(),
                shift: (0..out).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            };
            let q = Requant::fold(&dense.a_hat, &dense.bias, scales, affine.then_some(&aff)).unwrap();
            let zhat_scale = rng.gen_range(0.001f32..0.5);
            let node_scales =
                LayerScales { in_scale: zhat_scale, hidden_scale: rng.gen_range(0.001f32..0.5) };
            let qn = Requant::fold(&node.a_hat, &node.bias, node_scales, None).unwrap();
            let x = Tensor::from_vec(rounding_stress(n * k, in_scale, &mut rng), &[n, k]);
            let scalar = KernelDispatch::new(Kernel::Scalar).unwrap();
            let want = per_sample_dense(&q, &scalar, &dense, x.data(), in_scale);
            let want_node = per_sample_dense(&qn, &scalar, &node, want.data(), zhat_scale);
            // A dense layer's two steps in the forward pass, and a node's.
            let dense_of = |d: &KernelDispatch, x: &Tensor, s: &mut Scratch| {
                s.quantize_samples(d, x, in_scale);
                q.samples(d, &dense, s)
            };
            let node_of = |d: &KernelDispatch, x: &Tensor, s: &mut Scratch| {
                let zhat = dense_of(d, x, s);
                s.quantize_samples(d, &zhat, zhat_scale);
                qn.samples(d, &node, s)
            };
            let backends = Kernel::available().into_iter().map(|k| KernelDispatch::new(k).unwrap());
            for d in backends.chain([*KernelDispatch::get()]) {
                let mut s = Scratch::default();
                let got = dense_of(&d, &x, &mut s);
                proptest::prop_assert_eq!(bits(&got), bits(&want), "dense, kernel {}", d.kernel());
                let got_node = node_of(&d, &x, &mut s);
                proptest::prop_assert_eq!(
                    bits(&got_node),
                    bits(&want_node),
                    "node, kernel {}",
                    d.kernel()
                );
                let node_out = got_node.numel() / n;
                for j in 0..n {
                    let one = Tensor::from_vec(x.data()[j * k..(j + 1) * k].to_vec(), &[1, k]);
                    proptest::prop_assert_eq!(
                        bits(&dense_of(&d, &one, &mut s)),
                        bits(&got)[j * out..(j + 1) * out].to_vec(),
                        "dense, kernel {} sample {} alone",
                        d.kernel(),
                        j
                    );
                    proptest::prop_assert_eq!(
                        bits(&node_of(&d, &one, &mut s)),
                        bits(&got_node)[j * node_out..(j + 1) * node_out].to_vec(),
                        "node, kernel {} sample {} alone",
                        d.kernel(),
                        j
                    );
                }
            }
        }
    }

    #[test]
    fn calibration_is_deterministic_at_engine_level() {
        let engine = frozen_engine(3);
        let batch = random_batch(4, 7);
        for method in [
            CalibrationMethod::default(),
            CalibrationMethod::moving_max(0.5),
            CalibrationMethod::percentile(99.5),
            CalibrationMethod::percentile(100.0),
        ] {
            let a = QuantizedStHybrid::calibrate(&engine, &batch, method);
            let b = QuantizedStHybrid::calibrate(&engine, &batch, method);
            assert_eq!(a, b, "calibration must be bit-deterministic for {method:?}");
        }
    }

    #[test]
    fn quantized_forward_tracks_the_f32_engine() {
        for seed in 0..5u64 {
            let engine = frozen_engine(seed);
            let batch = random_batch(6, seed ^ 0xbeef);
            let q = QuantizedStHybrid::calibrate_and_compile(
                &engine,
                &batch,
                CalibrationMethod::percentile(100.0),
            )
            .unwrap();
            let f = engine.forward(&batch);
            let g = q.forward(&batch);
            let max_ref = f.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            for (i, (&a, &b)) in f.data().iter().zip(g.data().iter()).enumerate() {
                let tol = 0.02 + 0.1 * max_ref;
                assert!(
                    (a - b).abs() <= tol,
                    "seed {seed} logit {i}: f32 {a} vs quantized {b} (tol {tol})"
                );
            }
        }
    }

    #[test]
    fn folded_affines_run_exactly_once() {
        // A fresh net's batch norms fold to near-identity affines, which
        // hide an affine the walk drops or runs twice: give each a real
        // scale and shift, and the quantized engine must still track f32.
        let mut engine = frozen_engine(4);
        let mut rng = SmallRng::seed_from_u64(44);
        for layer in &mut engine.front.layers {
            if let PackedLayer::Affine(a) = layer {
                a.scale.iter_mut().for_each(|s| *s = rng.gen_range(0.5f32..2.0));
                a.shift.iter_mut().for_each(|b| *b = rng.gen_range(-0.5f32..0.5));
            }
        }
        let batch = random_batch(6, 45);
        let q = QuantizedStHybrid::calibrate_and_compile(
            &engine,
            &batch,
            CalibrationMethod::percentile(100.0),
        )
        .unwrap();
        let (f, g) = (engine.forward(&batch), q.forward(&batch));
        let tol = 0.02 + 0.1 * f.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        for (i, (&a, &b)) in f.data().iter().zip(g.data()).enumerate() {
            assert!((a - b).abs() <= tol, "logit {i}: f32 {a} vs quantized {b} (tol {tol})");
        }
    }

    #[test]
    fn compile_rejects_mismatched_schedules() {
        let engine = frozen_engine(0);
        let batch = random_batch(2, 0);
        let mut schedule =
            QuantizedStHybrid::calibrate(&engine, &batch, CalibrationMethod::default());
        schedule.front.pop();
        assert!(QuantizedStHybrid::compile(engine.clone(), schedule.clone()).is_err());
        schedule.front.push(LayerScales { in_scale: 1.0, hidden_scale: 1.0 });
        schedule.front.push(LayerScales { in_scale: 1.0, hidden_scale: 1.0 });
        assert!(QuantizedStHybrid::compile(engine.clone(), schedule.clone()).is_err());
        schedule.front.pop();
        schedule.zhat_scale = -1.0;
        assert!(QuantizedStHybrid::compile(engine.clone(), schedule).is_err());
    }

    #[test]
    fn forward_is_identical_across_available_kernels() {
        // The popcount products and quantizes are exact on every backend
        // and the f32 stages are element-wise, so a paper-geometry engine
        // must give every backend's logits bit for bit, alone and in a
        // batch.
        let mut rng = SmallRng::seed_from_u64(1);
        let mut net = StHybridNet::new(HybridConfig::paper(), &mut rng);
        net.activate_quantization();
        net.freeze_ternary();
        let engine = PackedStHybrid::compile(&net);
        let q = QuantizedStHybrid::calibrate_and_compile(
            &engine,
            &random_batch(4, 9),
            CalibrationMethod::default(),
        )
        .unwrap();
        let scalar = KernelDispatch::new(Kernel::Scalar).unwrap();
        for n in [1, 5] {
            let x = random_batch(n, 10 + n as u64);
            let want = bits(&q.forward_with(&scalar, &x));
            for k in Kernel::available() {
                let got = q.forward_with(&KernelDispatch::new(k).unwrap(), &x);
                assert_eq!(bits(&got), want, "kernel {k} at batch {n}");
            }
            assert_eq!(bits(&q.forward(&x)), want, "process dispatch at batch {n}");
        }
    }

    #[test]
    fn backend_contract_is_complete() {
        use thnt_nn::InferenceBackend;
        let engine = frozen_engine(2);
        let batch = random_batch(2, 5);
        let q =
            QuantizedStHybrid::calibrate_and_compile(&engine, &batch, CalibrationMethod::default())
                .unwrap();
        assert_eq!(q.backend_name(), "quantized");
        assert_eq!(InferenceBackend::num_classes(&q), engine.num_classes());
        assert!(InferenceBackend::model_bytes(&q) > engine.packed_bytes());
        assert_eq!(InferenceBackend::adds_per_sample(&q), engine.adds_per_sample() as u64);
        let out = q.infer(&batch);
        assert_eq!(out.dims(), &[2, engine.num_classes()]);
    }
}
