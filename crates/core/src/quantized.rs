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
//!    input and `â`-scaled hidden activations, plus the tree's shared
//!    projection `ẑ`. The result is a [`QuantSchedule`] of per-layer
//!    scales.
//! 2. **Compilation** ([`QuantizedStHybrid::compile`]) pairs the packed
//!    engine with a schedule and pre-folds every per-channel f32 factor
//!    into requantization constants: the hidden dequantization
//!    `s_in · â[k]`, and the output stage `a_ch · s_h` / `a_ch · bias + b`
//!    with any following batch-norm affine `(a, b)` folded in.
//! 3. **Inference** quantizes each activation tensor once
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
//!    The dense layers and the tree head hold each sample as one
//!    [`thnt_strassen::BitSliced`] vector. A convolution runs each sample
//!    channel-major from input to output: its `[k × positions]` column
//!    matrix and its `[r × positions]` hidden map are bit-sliced as
//!    [`thnt_strassen::BitSlicedColumns`], the positions minor, so each
//!    product covers every position in one kernel call and writes the
//!    `[channels × positions]` rows the next stage reads, with no per-position
//!    loop and no transpose.
//!
//!    Depthwise taps, ReLU, pooling and the tree's sigmoid/tanh routing
//!    stay in f32 — they are a vanishing fraction of the arithmetic.
//!
//! The integer products and the quantizes dispatch through the same
//! [`thnt_strassen::KernelDispatch`] / `THNT_KERNEL` contract as the f32
//! engine, so `scalar`, `avx2`, `avx512` and `neon` backends all serve the
//! quantized path — bitwise identically, because the accumulation is
//! integral and every quantize rounds by one formula.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use thnt_quant::{ActivationProfile, CalibrationMethod, RangeObserver};
use thnt_strassen::{BitSliced, BitSlicedColumns, KernelDispatch, PackedTernary};
use thnt_tensor::{global_avg_pool, im2col, Conv2dSpec, Tensor};

use crate::engine::{
    conv_columns, ChannelAffine, PackedConv2d, PackedDense, PackedDepthwise2d, PackedLayer,
    PackedStHybrid,
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

// ---------------------------------------------------------------------------
// Compiled quantized layers.
// ---------------------------------------------------------------------------

/// A strassenified dense layer with prefolded requantization constants.
#[derive(Debug, Clone, PartialEq)]
struct QuantDense {
    wb: PackedTernary<'static>,
    /// `s_in · â[k]`: converts the integer hidden accumulator to f32.
    hidden_dequant: Vec<f32>,
    hidden_scale: f32,
    wc: PackedTernary<'static>,
    /// Per-output `a_ch · s_h` (affine-folded output dequantization).
    out_scale: Vec<f32>,
    /// Per-output `a_ch · bias_ch + b_ch`.
    out_shift: Vec<f32>,
    in_scale: f32,
}

impl QuantDense {
    /// Folds `layer` with its scales and an optional following affine.
    fn fold(
        layer: &PackedDense,
        scales: LayerScales,
        affine: Option<&ChannelAffine>,
    ) -> Result<Self, String> {
        let out = layer.bias.len();
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
            wb: layer.wb.to_static(),
            hidden_dequant: layer.a_hat.iter().map(|&ah| scales.in_scale * ah).collect(),
            hidden_scale: scales.hidden_scale,
            wc: layer.wc.to_static(),
            out_scale: (0..out)
                .map(|ch| a.get(ch).copied().unwrap_or(1.0) * scales.hidden_scale)
                .collect(),
            out_shift: (0..out)
                .map(|ch| {
                    a.get(ch).copied().unwrap_or(1.0) * layer.bias[ch]
                        + b.get(ch).copied().unwrap_or(0.0)
                })
                .collect(),
            in_scale: scales.in_scale,
        })
    }

    fn out_dim(&self) -> usize {
        self.out_scale.len()
    }

    /// Forward from pre-sliced activations (shared by the tree nodes, which
    /// all consume the same quantized `ẑ`): `[samples] → [samples, out]`.
    fn forward_sliced(&self, d: &KernelDispatch, x: &BitSliced) -> Tensor {
        let (n, r, out) = (x.samples(), self.hidden_dequant.len(), self.out_dim());
        let mut h_int = vec![0i32; n * r];
        self.wb.bitsliced_matmul_into_with(d, x, &mut h_int);
        let h_f: Vec<f32> = h_int
            .iter()
            .enumerate()
            .map(|(i, &hi)| hi as f32 * self.hidden_dequant[i % r])
            .collect();
        let hq = BitSliced::quantize(&h_f, r, self.hidden_scale);
        let mut y_int = vec![0i32; n * out];
        self.wc.bitsliced_matmul_into_with(d, &hq, &mut y_int);
        let y: Vec<f32> = y_int
            .iter()
            .enumerate()
            .map(|(i, &yi)| self.out_scale[i % out] * yi as f32 + self.out_shift[i % out])
            .collect();
        Tensor::from_vec(y, &[n, out])
    }

    /// Batched forward: quantize the rows of `x` at `in_scale`, then the
    /// popcount pipeline.
    fn forward(&self, d: &KernelDispatch, x: &Tensor) -> Tensor {
        let q = BitSliced::quantize(x.data(), self.wb.cols(), self.in_scale);
        self.forward_sliced(d, &q)
    }
}

/// A strassenified convolution with prefolded requantization constants,
/// run channel-major: each sample's column matrix is bit-sliced with the
/// positions minor, so both products cover every output position at once.
#[derive(Debug, Clone, PartialEq)]
struct QuantConv2d {
    wb: PackedTernary<'static>,
    hidden_dequant: Vec<f32>,
    hidden_scale: f32,
    wc: PackedTernary<'static>,
    out_scale: Vec<f32>,
    out_shift: Vec<f32>,
    in_scale: f32,
    spec: Conv2dSpec,
}

impl QuantConv2d {
    fn fold(
        layer: &PackedConv2d,
        scales: LayerScales,
        affine: Option<&ChannelAffine>,
    ) -> Result<Self, String> {
        let d = QuantDense::fold(
            &PackedDense {
                wb: layer.wb.clone(),
                a_hat: layer.a_hat.clone(),
                wc: layer.wc.clone(),
                bias: layer.bias.clone(),
            },
            scales,
            affine,
        )?;
        Ok(Self {
            wb: d.wb,
            hidden_dequant: d.hidden_dequant,
            hidden_scale: d.hidden_scale,
            wc: d.wc,
            out_scale: d.out_scale,
            out_shift: d.out_shift,
            in_scale: d.in_scale,
            spec: layer.spec,
        })
    }

    /// Forward: `[n, ic, h, w] → [n, oc, oh, ow]`. Per sample, the
    /// `[k × positions]` column matrix is quantized at `in_scale`, `W_b`
    /// popcounts it into the `[r × positions]` hidden map, each hidden row
    /// is dequantized by its `s_in·â` and the map requantized at `s_h`, and
    /// `W_c`'s `[oc × positions]` product lands in the output rows through
    /// `a·y + b`.
    fn forward(&self, d: &KernelDispatch, x: &Tensor) -> Tensor {
        let (n, ic, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let (oh, ow) = self.spec.out_dims(h, w);
        let spatial = oh * ow;
        let (k, r, oc) = (self.wb.cols(), self.hidden_dequant.len(), self.out_scale.len());
        let mut y = Tensor::zeros(&[n, oc, oh, ow]);
        if n == 0 || oc * spatial == 0 {
            return y;
        }
        let mut xq = BitSlicedColumns::zeroed(k, spatial);
        let mut hq = BitSlicedColumns::zeroed(r, spatial);
        let mut h_int = vec![0i32; r * spatial];
        let mut h_f = vec![0f32; r * spatial];
        let mut y_int = vec![0i32; oc * spatial];
        let mut cols = Vec::new();
        let plane = ic * h * w;
        for s in 0..n {
            let sample = &x.data()[s * plane..(s + 1) * plane];
            let m = conv_columns(&self.spec, sample, (ic, h, w), &mut cols);
            xq.quantize_into_with(d, m, self.in_scale);
            self.wb.bitsliced_matmul_rhs_into_with(d, &xq, &mut h_int);
            let rows = h_f.chunks_exact_mut(spatial).zip(h_int.chunks_exact(spatial));
            for ((hf, hi), &dq) in rows.zip(&self.hidden_dequant) {
                for (f, &i) in hf.iter_mut().zip(hi) {
                    *f = i as f32 * dq;
                }
            }
            hq.quantize_into_with(d, &h_f, self.hidden_scale);
            self.wc.bitsliced_matmul_rhs_into_with(d, &hq, &mut y_int);
            let dst = &mut y.data_mut()[s * oc * spatial..(s + 1) * oc * spatial];
            let rows = dst.chunks_exact_mut(spatial).zip(y_int.chunks_exact(spatial));
            for ((o, yi), (&a, &b)) in rows.zip(self.out_scale.iter().zip(&self.out_shift)) {
                for (v, &i) in o.iter_mut().zip(yi) {
                    *v = a * i as f32 + b;
                }
            }
        }
        y
    }
}

/// One layer of the quantized front-end walk.
#[derive(Debug, Clone, PartialEq)]
enum QuantFrontLayer {
    Conv(QuantConv2d),
    Dense(QuantDense),
    /// Depthwise stays f32: its taps are additions over a tiny kernel.
    Depthwise(PackedDepthwise2d<'static>),
    Affine(ChannelAffine),
    Relu,
    GlobalAvgPool,
}

/// The quantized Bonsai head: the projection and every node dense run the
/// popcount pipeline; all nodes share one bit-sliced `ẑ`.
#[derive(Debug, Clone, PartialEq)]
struct QuantBonsai {
    z: QuantDense,
    zhat_scale: f32,
    theta: Vec<QuantDense>,
    w: Vec<QuantDense>,
    v: Vec<QuantDense>,
}

impl QuantBonsai {
    fn forward(&self, d: &KernelDispatch, base: &PackedStHybrid, x: &Tensor) -> Tensor {
        let tree = base.tree();
        let n = x.dims()[0];
        let l = tree.num_classes();
        let zhat = self.z.forward(d, x);
        let zs = BitSliced::quantize(zhat.data(), self.z.out_dim(), self.zhat_scale);
        let topo = &tree.topo;
        let num_nodes = topo.num_nodes();
        let mut probs = vec![vec![0.0f32; n]; num_nodes];
        probs[0] = vec![1.0; n];
        for (j, theta) in self.theta.iter().enumerate() {
            let u = theta.forward_sliced(d, &zs);
            let (lc, rc) = (topo.left(j), topo.right(j));
            for s in 0..n {
                let g = 1.0 / (1.0 + (-tree.sharpness * u.data()[s]).exp());
                probs[lc][s] = probs[j][s] * (1.0 - g);
                probs[rc][s] = probs[j][s] * g;
            }
        }
        let mut y = Tensor::zeros(&[n, l]);
        for k in 0..num_nodes {
            let a = self.w[k].forward_sliced(d, &zs);
            let t = self.v[k].forward_sliced(d, &zs).map(|b| (tree.sigma * b).tanh());
            let yd = y.data_mut();
            for s in 0..n {
                let p = probs[k][s];
                for c in 0..l {
                    yd[s * l + c] += p * a.data()[s * l + c] * t.data()[s * l + c];
                }
            }
        }
        y
    }
}

/// The quantized compilation of a [`PackedStHybrid`]: same ternary weights,
/// int8 bit-sliced activations, popcount matvecs.
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
/// let quantized = QuantizedStHybrid::compile(&engine, schedule).unwrap();
/// let logits = quantized.forward(&calib);
/// assert_eq!(logits.dims(), &[4, engine.num_classes()]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedStHybrid {
    base: PackedStHybrid<'static>,
    schedule: QuantSchedule,
    front: Vec<QuantFrontLayer>,
    tree: QuantBonsai,
}

/// Observes each sample of `t` as one range observation (sample order is
/// the batch order, so moving-max calibration sees a deterministic stream).
fn observe_samples(obs: &mut RangeObserver, t: &Tensor) {
    let n = t.dims()[0];
    if n == 0 {
        return;
    }
    for chunk in t.data().chunks_exact(t.numel() / n) {
        obs.observe(chunk);
    }
}

/// `â ⊙ (W_b · x)` per sample — the f32 hidden activations whose range the
/// hidden requantization scale must cover.
fn scaled_hidden(layer: &PackedDense, x: &Tensor) -> Tensor {
    let n = x.dims()[0];
    let r = layer.a_hat.len();
    let mut h = layer.wb.matmul(x);
    let hd = h.data_mut();
    for s in 0..n {
        for (k, &a) in layer.a_hat.iter().enumerate() {
            hd[s * r + k] *= a;
        }
    }
    h
}

impl QuantizedStHybrid {
    /// Runs the f32 engine over `batch` (`[n, 1, 49, 10]`) and calibrates
    /// an activation-scale schedule with `method` at every quantize point.
    ///
    /// Calibration is deterministic: the same engine, batch and method
    /// always produce bit-identical scales.
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
            match layer {
                PackedLayer::Conv(c) => {
                    let mut in_obs = RangeObserver::new(method);
                    observe_samples(&mut in_obs, &cur);
                    let mut hid_obs = RangeObserver::new(method);
                    let (n, h, w) = (cur.dims()[0], cur.dims()[2], cur.dims()[3]);
                    let (oh, ow) = c.spec.out_dims(h, w);
                    let r = c.a_hat.len();
                    let mut hidden = Tensor::zeros(&[r, oh * ow]);
                    for s in 0..n {
                        let cols = im2col(&cur.slice_batch(s), &c.spec);
                        c.wb.matmul_rhs_into(&cols, hidden.data_mut());
                        let hd = hidden.data_mut();
                        for (k, &a) in c.a_hat.iter().enumerate() {
                            for v in &mut hd[k * oh * ow..(k + 1) * oh * ow] {
                                *v *= a;
                            }
                        }
                        hid_obs.observe(hidden.data());
                    }
                    front.push(LayerScales {
                        in_scale: in_obs.scale(),
                        hidden_scale: hid_obs.scale(),
                    });
                    cur = c.forward(&cur);
                }
                PackedLayer::Dense(f) => {
                    let mut in_obs = RangeObserver::new(method);
                    observe_samples(&mut in_obs, &cur);
                    let pd = PackedDense {
                        wb: f.wb.clone(),
                        a_hat: f.a_hat.clone(),
                        wc: f.wc.clone(),
                        bias: f.bias.clone(),
                    };
                    let h = scaled_hidden(&pd, &cur);
                    let mut hid_obs = RangeObserver::new(method);
                    observe_samples(&mut hid_obs, &h);
                    front.push(LayerScales {
                        in_scale: in_obs.scale(),
                        hidden_scale: hid_obs.scale(),
                    });
                    cur = f.forward(&cur);
                }
                PackedLayer::Depthwise(dw) => cur = dw.forward(&cur),
                PackedLayer::Affine(a) => a.forward_in_place(&mut cur),
                PackedLayer::Relu => cur.map_in_place(|v| v.max(0.0)),
                PackedLayer::GlobalAvgPool => cur = global_avg_pool(&cur),
            }
        }
        let tree = engine.tree();
        let mut z_in = RangeObserver::new(method);
        observe_samples(&mut z_in, &cur);
        let zh = scaled_hidden(&tree.z, &cur);
        let mut z_hid = RangeObserver::new(method);
        observe_samples(&mut z_hid, &zh);
        let zhat = tree.z.forward(&cur);
        let mut zhat_obs = RangeObserver::new(method);
        observe_samples(&mut zhat_obs, &zhat);
        let node_hidden = tree
            .theta
            .iter()
            .chain(tree.w.iter())
            .chain(tree.v.iter())
            .map(|node| {
                let h = scaled_hidden(node, &zhat);
                let mut obs = RangeObserver::new(method);
                observe_samples(&mut obs, &h);
                obs.scale()
            })
            .collect();
        QuantSchedule {
            front,
            z: LayerScales { in_scale: z_in.scale(), hidden_scale: z_hid.scale() },
            zhat_scale: zhat_obs.scale(),
            node_hidden,
        }
    }

    /// Compiles `engine` against a calibrated `schedule`, prefolding every
    /// requantization constant (any batch-norm affine directly following a
    /// quantized conv/dense folds into its output stage).
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch if the schedule's layer counts
    /// do not match the engine or any scale is non-finite or non-positive.
    pub fn compile(engine: &PackedStHybrid, schedule: QuantSchedule) -> Result<Self, String> {
        schedule.validate()?;
        let layers = engine.front().layers();
        let mut scales = schedule.front.iter();
        let mut front = Vec::with_capacity(layers.len());
        let mut i = 0;
        while i < layers.len() {
            let folded_affine = match layers.get(i + 1) {
                Some(PackedLayer::Affine(a))
                    if matches!(layers[i], PackedLayer::Conv(_) | PackedLayer::Dense(_)) =>
                {
                    Some(a)
                }
                _ => None,
            };
            match &layers[i] {
                PackedLayer::Conv(c) => {
                    let ls = *scales.next().ok_or("schedule has too few front layer scales")?;
                    front.push(QuantFrontLayer::Conv(QuantConv2d::fold(c, ls, folded_affine)?));
                }
                PackedLayer::Dense(f) => {
                    let ls = *scales.next().ok_or("schedule has too few front layer scales")?;
                    front.push(QuantFrontLayer::Dense(QuantDense::fold(f, ls, folded_affine)?));
                }
                PackedLayer::Depthwise(dw) => {
                    front.push(QuantFrontLayer::Depthwise(dw.to_static()))
                }
                PackedLayer::Affine(a) => front.push(QuantFrontLayer::Affine(a.clone())),
                PackedLayer::Relu => front.push(QuantFrontLayer::Relu),
                PackedLayer::GlobalAvgPool => front.push(QuantFrontLayer::GlobalAvgPool),
            }
            i += 1 + usize::from(folded_affine.is_some());
        }
        if scales.next().is_some() {
            return Err("schedule has more front scales than quantized layers".into());
        }
        let tree = engine.tree();
        let expected = tree.theta.len() + tree.w.len() + tree.v.len();
        if schedule.node_hidden.len() != expected {
            return Err(format!(
                "schedule has {} node scales, tree has {expected} node denses",
                schedule.node_hidden.len()
            ));
        }
        let node = |d: &PackedDense, s_h: f32| {
            QuantDense::fold(
                d,
                LayerScales { in_scale: schedule.zhat_scale, hidden_scale: s_h },
                None,
            )
        };
        let mut node_scales = schedule.node_hidden.iter().copied();
        let mut take = |ds: &[PackedDense]| -> Result<Vec<QuantDense>, String> {
            ds.iter()
                .map(|d| node(d, node_scales.next().ok_or("schedule has too few node scales")?))
                .collect()
        };
        let qtree = QuantBonsai {
            z: QuantDense::fold(&tree.z, schedule.z, None)?,
            zhat_scale: schedule.zhat_scale,
            theta: take(&tree.theta)?,
            w: take(&tree.w)?,
            v: take(&tree.v)?,
        };
        Ok(Self { base: engine.to_static(), schedule, front, tree: qtree })
    }

    /// Calibrates on `batch` and compiles in one step.
    ///
    /// # Errors
    ///
    /// As [`Self::compile`] (a calibrated schedule always matches, so this
    /// only fails on degenerate engines).
    pub fn calibrate_and_compile(
        engine: &PackedStHybrid,
        batch: &Tensor,
        method: CalibrationMethod,
    ) -> Result<Self, String> {
        let schedule = Self::calibrate(engine, batch, method);
        Self::compile(engine, schedule)
    }

    /// Batched quantized inference: `[n, 1, 49, 10] → [n, L]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let d = KernelDispatch::get();
        let mut cur = x.clone();
        for layer in &self.front {
            cur = match layer {
                QuantFrontLayer::Conv(c) => c.forward(d, &cur),
                QuantFrontLayer::Dense(f) => f.forward(d, &cur),
                QuantFrontLayer::Depthwise(dw) => dw.forward(&cur),
                QuantFrontLayer::Affine(a) => {
                    a.forward_in_place(&mut cur);
                    cur
                }
                QuantFrontLayer::Relu => {
                    cur.map_in_place(|v| v.max(0.0));
                    cur
                }
                QuantFrontLayer::GlobalAvgPool => global_avg_pool(&cur),
            };
        }
        self.tree.forward(d, &self.base, &cur)
    }

    /// The underlying f32 packed engine.
    pub fn base(&self) -> &PackedStHybrid<'static> {
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

    /// Peak activation storage of the quantized engine for the paper's
    /// `49 × 10` input, as bit-sliced [`ActivationProfile`]s — one per
    /// quantize point, with plane storage counted in words, not f32 lanes.
    pub fn activation_profiles(&self) -> Vec<ActivationProfile> {
        let mut profiles = Vec::new();
        let (mut h, mut w) = (49usize, 10usize);
        for (idx, layer) in self.front.iter().enumerate() {
            match layer {
                QuantFrontLayer::Conv(c) => {
                    let (oh, ow) = c.spec.out_dims(h, w);
                    let spatial = oh * ow;
                    profiles.push(ActivationProfile::bit_sliced(
                        format!("front[{idx}].patches"),
                        c.wb.cols() * spatial,
                        8,
                    ));
                    profiles.push(ActivationProfile::bit_sliced(
                        format!("front[{idx}].hidden"),
                        c.hidden_dequant.len() * spatial,
                        8,
                    ));
                    (h, w) = (oh, ow);
                }
                QuantFrontLayer::Dense(f) => {
                    profiles.push(ActivationProfile::bit_sliced(
                        format!("front[{idx}].in"),
                        f.wb.cols(),
                        8,
                    ));
                    profiles.push(ActivationProfile::bit_sliced(
                        format!("front[{idx}].hidden"),
                        f.hidden_dequant.len(),
                        8,
                    ));
                }
                QuantFrontLayer::Depthwise(dw) => {
                    let (oh, ow) = dw.spec.out_dims(h, w);
                    (h, w) = (oh, ow);
                }
                _ => {}
            }
        }
        profiles.push(ActivationProfile::bit_sliced("tree.z.in", self.tree.z.wb.cols(), 8));
        profiles.push(ActivationProfile::bit_sliced(
            "tree.z.hidden",
            self.tree.z.hidden_dequant.len(),
            8,
        ));
        profiles.push(ActivationProfile::bit_sliced("tree.zhat", self.tree.z.out_dim(), 8));
        profiles
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
    ) -> std::io::Result<(Self, Option<crate::artifact::InferenceMeta>)> {
        crate::artifact::load_quantized_thnt2(reader)
    }
}

impl thnt_nn::InferenceBackend for QuantizedStHybrid {
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
    use thnt_strassen::{Kernel, Strassenified};

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

    /// Bit-slices the columns of the row-major `[len × samples]` matrix
    /// `m`, column `j` as sample `j`: the per-position engine's patches.
    fn quantize_columns(m: &[f32], len: usize, samples: usize, scale: f32) -> BitSliced {
        let t: Vec<f32> = (0..samples * len).map(|j| m[(j % len) * samples + j / len]).collect();
        BitSliced::quantize(&t, len, scale)
    }

    /// The per-position conv body the channel-major forward replaced, kept
    /// as its oracle: each output position's patch is one bit-sliced
    /// sample, each product one matvec per position, and the
    /// `[position, channel]` result is transposed into the output rows.
    fn per_position_forward(c: &QuantConv2d, d: &KernelDispatch, x: &Tensor) -> Tensor {
        let (n, ic, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let (oh, ow) = c.spec.out_dims(h, w);
        let spatial = oh * ow;
        let (k, r, oc) = (c.wb.cols(), c.hidden_dequant.len(), c.out_scale.len());
        let mut y = Tensor::zeros(&[n, oc, oh, ow]);
        let mut h_int = vec![0i32; spatial * r];
        let mut y_int = vec![0i32; spatial * oc];
        let mut cols = Vec::new();
        let plane = ic * h * w;
        for s in 0..n {
            let sample = &x.data()[s * plane..(s + 1) * plane];
            let m = conv_columns(&c.spec, sample, (ic, h, w), &mut cols);
            let patches = quantize_columns(m, k, spatial, c.in_scale);
            c.wb.bitsliced_matmul_into_with(d, &patches, &mut h_int);
            let h_f: Vec<f32> = h_int
                .iter()
                .enumerate()
                .map(|(i, &hi)| hi as f32 * c.hidden_dequant[i % r])
                .collect();
            let hq = BitSliced::quantize(&h_f, r, c.hidden_scale);
            c.wc.bitsliced_matmul_into_with(d, &hq, &mut y_int);
            let dst = &mut y.data_mut()[s * oc * spatial..(s + 1) * oc * spatial];
            for pos in 0..spatial {
                for ch in 0..oc {
                    dst[ch * spatial + pos] =
                        c.out_scale[ch] * y_int[pos * oc + ch] as f32 + c.out_shift[ch];
                }
            }
        }
        y
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
    fn compile_rejects_mismatched_schedules() {
        let engine = frozen_engine(0);
        let batch = random_batch(2, 0);
        let mut schedule =
            QuantizedStHybrid::calibrate(&engine, &batch, CalibrationMethod::default());
        schedule.front.pop();
        assert!(QuantizedStHybrid::compile(&engine, schedule.clone()).is_err());
        schedule.front.push(LayerScales { in_scale: 1.0, hidden_scale: 1.0 });
        schedule.front.push(LayerScales { in_scale: 1.0, hidden_scale: 1.0 });
        assert!(QuantizedStHybrid::compile(&engine, schedule.clone()).is_err());
        schedule.front.pop();
        schedule.zhat_scale = -1.0;
        assert!(QuantizedStHybrid::compile(&engine, schedule).is_err());
    }

    #[test]
    fn forward_is_identical_across_available_kernels() {
        // The integer pipeline is bitwise identical per backend; the f32
        // stages are shared code. Forcing the dispatch through the env
        // override is process-global, so instead compare the conv layer's
        // integer core across kernels directly.
        let engine = frozen_engine(1);
        let batch = random_batch(2, 9);
        let q =
            QuantizedStHybrid::calibrate_and_compile(&engine, &batch, CalibrationMethod::default())
                .unwrap();
        let reference = q.forward(&batch);
        let again = q.forward(&batch);
        assert_eq!(
            reference.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            again.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn profiles_report_bit_sliced_layout() {
        let engine = frozen_engine(0);
        let batch = random_batch(2, 2);
        let q =
            QuantizedStHybrid::calibrate_and_compile(&engine, &batch, CalibrationMethod::default())
                .unwrap();
        let profiles = q.activation_profiles();
        assert!(!profiles.is_empty());
        for p in &profiles {
            assert_eq!(p.layout, thnt_quant::ActivationLayout::BitSliced, "{}", p.name);
            assert_eq!(p.bits, 8);
            // Bit-sliced storage is 8 word-padded planes, never numel f32s.
            assert!(p.bytes() <= (p.numel as u64).div_ceil(64) * 64 * 8 / 8 + 64);
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
