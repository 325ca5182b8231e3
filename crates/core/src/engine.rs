//! The packed add-only inference engine — the deployment form of a trained
//! [`StHybridNet`].
//!
//! Training keeps every strassenified layer's ternary matrices as `f32`
//! tensors so the straight-through estimator can update their
//! full-precision shadows. At deployment none of that machinery is needed:
//! once a model is **frozen** (phase 3), its `W_b`/`W_c` matrices are
//! genuinely ternary, and this module compiles them into
//! [`thnt_strassen::PackedTernary`] bitplanes executed with the word-level
//! add-only kernels:
//!
//! * [`PackedDense`] / [`PackedConv2d`] / [`PackedDepthwise2d`] — compiled
//!   strassenified layers: a packed `W_b` application, the `r` true
//!   multiplications by `â`, and a packed `W_c` combination,
//! * [`PackedStStack`] — a compiled front-end: batch-norm layers fold into
//!   per-channel affines, ReLU and global-average-pool carry over,
//! * [`PackedBonsai`] — the compiled tree head: every node SPN packed,
//!   routing identical to the trained [`thnt_bonsai::StrassenBonsai`],
//! * [`PackedStHybrid`] — the whole model: [`PackedStHybrid::compile`] takes
//!   a frozen [`StHybridNet`] and serves batched inference through
//!   [`PackedStHybrid::forward`], matching the dense forward path to ~1e-4
//!   while storing ternary weights at 2 bits each.
//!
//! The engine compiles the *unquantized* evaluation path: activation
//! fake-quantization knobs ([`StHybridNet::set_activation_bits`] and
//! friends) must be off when compiling.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::borrow::Cow;

use thnt_bonsai::{StrassenBonsai, TreeTopology};
use thnt_nn::BatchNorm2d;
use thnt_strassen::{
    KernelDispatch, PackedTernary, QuantMode, StLayer, StStack, StrassenConv2d, StrassenDense,
    StrassenDepthwise2d, Strassenified, WindowTap,
};
use thnt_tensor::{global_avg_pool, im2col_into, Conv2dSpec, Tensor};

use crate::st_hybrid::StHybridNet;

/// A compiled strassenified dense layer:
/// `y = W_c · (â ⊙ (W_b · x)) + bias` with both ternary matrices packed.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedDense<'a> {
    pub(crate) wb: PackedTernary<'a>,
    pub(crate) a_hat: Cow<'a, [f32]>,
    pub(crate) wc: PackedTernary<'a>,
    pub(crate) bias: Cow<'a, [f32]>,
}

impl<'a> PackedDense<'a> {
    /// Compiles a frozen [`StrassenDense`].
    ///
    /// # Panics
    ///
    /// Panics if the layer's weights are not ternary-valued (i.e. it was
    /// never frozen).
    pub fn compile(layer: &StrassenDense) -> PackedDense<'static> {
        PackedDense {
            wb: PackedTernary::from_tensor(layer.wb_values()),
            a_hat: Cow::Owned(layer.a_hat_values().data().to_vec()),
            wc: PackedTernary::from_tensor(layer.wc_values()),
            bias: Cow::Owned(layer.bias_values().data().to_vec()),
        }
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.bias.len()
    }

    /// Batched forward: `[n, in] → [n, out]`. The only multiplications are
    /// the `r` per-sample products with `â`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[n, in_dim]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut y = self.wc.matmul(&self.hidden(x));
        y.data_mut().iter_mut().zip(self.bias.iter().cycle()).for_each(|(v, b)| *v += b);
        y
    }

    /// The hidden stage `â ⊙ (W_b · x)`, `[n, in] → [n, r]`, that
    /// [`Self::forward`] and the quantized engine's calibration both read.
    pub(crate) fn hidden(&self, x: &Tensor) -> Tensor {
        let mut hidden = self.wb.matmul(x);
        hidden.data_mut().iter_mut().zip(self.a_hat.iter().cycle()).for_each(|(v, a)| *v *= a);
        hidden
    }

    /// Additions/subtractions executed per input sample.
    pub fn adds_per_sample(&self) -> usize {
        self.wb.add_count() + self.wc.add_count()
    }

    /// Packed weight storage in bytes (bitplanes + `â` + bias as f32).
    pub fn packed_bytes(&self) -> usize {
        self.wb.packed_bytes() + self.wc.packed_bytes() + (self.a_hat.len() + self.bias.len()) * 4
    }
}

/// A compiled strassenified standard convolution.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedConv2d<'a> {
    /// Packed `[r, ic·kh·kw]` ternary conv weights applied to im2col patches.
    pub(crate) wb: PackedTernary<'a>,
    pub(crate) a_hat: Cow<'a, [f32]>,
    /// Packed `[oc, r]` ternary 1×1 combination.
    pub(crate) wc: PackedTernary<'a>,
    pub(crate) bias: Cow<'a, [f32]>,
    pub(crate) spec: Conv2dSpec,
}

impl<'a> PackedConv2d<'a> {
    /// Compiles a frozen [`StrassenConv2d`].
    ///
    /// # Panics
    ///
    /// Panics if the layer's weights are not ternary-valued, or if its
    /// hidden-activation fake-quantization is enabled (the engine compiles
    /// the unquantized evaluation path).
    pub fn compile(layer: &StrassenConv2d) -> PackedConv2d<'static> {
        assert!(
            layer.hidden_bits().is_none(),
            "packed engine compiles the unquantized path; disable hidden_bits first"
        );
        let wb = layer.wb_values();
        let r = wb.dims()[0];
        let k = wb.numel() / r;
        PackedConv2d {
            wb: PackedTernary::from_tensor(&wb.reshape(&[r, k])),
            a_hat: Cow::Owned(layer.a_hat_values().data().to_vec()),
            wc: PackedTernary::from_tensor(layer.wc_values()),
            bias: Cow::Owned(layer.bias_values().data().to_vec()),
            spec: *layer.spec(),
        }
    }

    /// Forward: `[n, ic, h, w] → [n, oc, oh, ow]` via packed
    /// `W_b · im2col(x)`, the `â` channel scale, and packed `W_c`.
    ///
    /// Samples run one after another on the calling thread, reusing one
    /// column buffer and one hidden buffer and writing each output straight
    /// into its slice of `y`, so a sample's result does not depend on the
    /// batch it arrives in. A 1×1, stride-1, unpadded convolution skips
    /// `im2col` altogether: its `[ic, h·w]` sample already is the column
    /// matrix, and the kernel reads it in place.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let (n, h, w) = (x.dims()[0], x.dims()[2], x.dims()[3]);
        let (oh, ow) = self.spec.out_dims(h, w);
        let spatial = oh * ow;
        let oc = self.bias.len();
        let mut y = Tensor::zeros(&[n, oc, oh, ow]);
        if oc * spatial == 0 {
            return y;
        }
        let d = KernelDispatch::get();
        let yd = y.data_mut();
        self.hidden_maps(x, |s, hidden| {
            let dst = &mut yd[s * oc * spatial..(s + 1) * oc * spatial];
            self.wc.matmul_rhs_slice_into_with(d, hidden, spatial, dst);
            for (row, &b) in dst.chunks_mut(spatial).zip(self.bias.iter()) {
                row.iter_mut().for_each(|v| *v += b);
            }
        });
        y
    }

    /// The hidden stage, one sample at a time: `f(s, hidden)` gets sample
    /// `s`'s `[r × positions]` map `â ⊙ (W_b · conv_columns(x_s))`, which
    /// [`Self::forward`] and the quantized engine's calibration both read.
    pub(crate) fn hidden_maps(&self, x: &Tensor, mut f: impl FnMut(usize, &[f32])) {
        let (n, ic, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let (oh, ow) = self.spec.out_dims(h, w);
        let spatial = oh * ow;
        let d = KernelDispatch::get();
        let mut cols = Vec::new();
        let mut hidden = vec![0.0f32; self.a_hat.len() * spatial];
        let plane = ic * h * w;
        for s in 0..n {
            let sample = &x.data()[s * plane..(s + 1) * plane];
            let m = conv_columns(&self.spec, sample, (ic, h, w), &mut cols);
            self.wb.matmul_rhs_slice_into_with(d, m, spatial, &mut hidden);
            for (row, &a) in hidden.chunks_mut(spatial).zip(self.a_hat.iter()) {
                row.iter_mut().for_each(|v| *v *= a);
            }
            f(s, &hidden);
        }
    }

    /// Additions/subtractions per input sample for an `h × w` input.
    pub fn adds_per_sample(&self, h: usize, w: usize) -> usize {
        let (oh, ow) = self.spec.out_dims(h, w);
        (self.wb.add_count() + self.wc.add_count()) * oh * ow
    }

    /// Packed weight storage in bytes.
    pub fn packed_bytes(&self) -> usize {
        self.wb.packed_bytes() + self.wc.packed_bytes() + (self.a_hat.len() + self.bias.len()) * 4
    }
}

/// The `[ic·kh·kw, oh·ow]` column matrix of one `[ic, h, w]` sample: the
/// sample itself for a 1×1, stride-1, unpadded convolution, whose input
/// already is its column matrix, and otherwise its `im2col` lowered into
/// `buf`, which a batch loop reuses across samples.
pub(crate) fn conv_columns<'a>(
    spec: &Conv2dSpec,
    sample: &'a [f32],
    (ic, h, w): (usize, usize, usize),
    buf: &'a mut Vec<f32>,
) -> &'a [f32] {
    if *spec == Conv2dSpec::valid(1, 1, 1, 1) {
        return sample;
    }
    let (oh, ow) = spec.out_dims(h, w);
    buf.resize(ic * spec.kh * spec.kw * oh * ow, 0.0);
    im2col_into(sample, (ic, h, w), spec, buf);
    buf
}

/// A compiled strassenified depthwise convolution. The per-channel kernels
/// are tiny (`kh·kw` taps), so entries are stored as signs and each hidden
/// channel's nonzero taps are summed with additions and subtractions only.
/// On stride-1 maps whose output is the input's size, one
/// [`KernelDispatch::window_sum`] call sums all of a hidden channel's taps
/// in registers: the input plane is copied once between zero guard rows,
/// each tap `(ki, kj)` is the window at offset `ki·w + kj`, and a per-`kj`
/// lane mask drops the columns that fall off the map. Other geometries run
/// a scalar tap loop. Both give bitwise the same output.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedDepthwise2d<'a> {
    /// Ternary signs of `W_b`, flattened `[c·m·kh·kw]`. Like the
    /// bitplanes of [`PackedTernary`], the sign vectors are [`Cow`] slices
    /// so a zero-copy load can alias them straight out of an artifact
    /// buffer (`i8` has alignment 1, so borrowing never needs padding).
    pub(crate) wb_signs: Cow<'a, [i8]>,
    pub(crate) a_hat: Cow<'a, [f32]>,
    /// Ternary signs of the grouped `W_c`, flattened `[c·m]`.
    pub(crate) wc_signs: Cow<'a, [i8]>,
    pub(crate) bias: Cow<'a, [f32]>,
    pub(crate) spec: Conv2dSpec,
    pub(crate) channels: usize,
    pub(crate) multiplier: usize,
}

/// The `i8` signs of a frozen ternary tensor.
///
/// # Panics
///
/// Panics on any value other than −1, 0 or 1: compiling a layer that was
/// never frozen is a construction bug, caught like a shape mismatch.
fn ternary_signs(t: &Tensor) -> Vec<i8> {
    t.data()
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            assert!(v == 0.0 || v == 1.0 || v == -1.0, "non-ternary value {v} at index {i}");
            v as i8
        })
        .collect()
}

impl<'a> PackedDepthwise2d<'a> {
    /// Compiles a frozen [`StrassenDepthwise2d`].
    ///
    /// # Panics
    ///
    /// Panics if the layer's weights are not ternary-valued, or if its
    /// hidden-activation fake-quantization is enabled.
    pub fn compile(layer: &StrassenDepthwise2d) -> PackedDepthwise2d<'static> {
        assert!(
            layer.hidden_bits().is_none(),
            "packed engine compiles the unquantized path; disable hidden_bits first"
        );
        PackedDepthwise2d {
            wb_signs: Cow::Owned(ternary_signs(layer.wb_values())),
            a_hat: Cow::Owned(layer.a_hat_values().data().to_vec()),
            wc_signs: Cow::Owned(ternary_signs(layer.wc_values())),
            bias: Cow::Owned(layer.bias_values().data().to_vec()),
            spec: *layer.spec(),
            channels: layer.channels(),
            multiplier: layer.multiplier(),
        }
    }

    /// Forward: `[n, c, h, w] → [n, c, oh, ow]`, additions only plus the
    /// `c·m` true multiplications by `â` per output position. Samples run
    /// one after another on the calling thread with one reused hidden
    /// buffer, each writing its own slice of the output.
    ///
    /// Each hidden channel's nonzero taps are summed into the hidden
    /// buffer, which the `±â` group combine
    /// ([`KernelDispatch::slice_axpy`]) then adds into its output channel.
    /// On stride-1 maps whose output is the input's size — every depthwise
    /// layer [`StHybridNet::new`] builds — one
    /// [`KernelDispatch::window_sum`] call sums all of a hidden channel's
    /// taps in registers over a guard-row copy of its input plane (see
    /// `docs/ARCHITECTURE.md`, "Kernel dispatch"). Any other geometry runs
    /// a scalar tap loop. Both perform each output element's adds in the
    /// same tap order on every backend, so results are bitwise identical
    /// everywhere.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let (c, m) = (self.channels, self.multiplier);
        assert_eq!(x.dims()[1], c, "PackedDepthwise channel mismatch");
        let (n, h, w) = (x.dims()[0], x.dims()[2], x.dims()[3]);
        let (oh, ow) = self.spec.out_dims(h, w);
        let spatial = oh * ow;
        if c * spatial == 0 {
            return Tensor::zeros(&[n, c, oh, ow]);
        }
        let d = KernelDispatch::get();
        let taps_per_channel = self.spec.kh * self.spec.kw;
        let mut windows = GuardedPlane::new(&self.spec, h, w);
        let mut hidden = vec![0.0f32; spatial];
        // Each output channel starts as its bias, written once.
        let mut y = Vec::with_capacity(n * c * spatial);
        for i in 0..n * c {
            let (img, ch) = (&x.data()[i * h * w..(i + 1) * h * w], i % c);
            let start = y.len();
            y.resize(start + spatial, self.bias[ch]);
            let dst = &mut y[start..];
            if let Some(win) = &mut windows {
                win.load(img);
            }
            for hc in ch * m..(ch + 1) * m {
                let wcv = self.wc_signs[hc];
                if wcv == 0 {
                    continue;
                }
                let signs = &self.wb_signs[hc * taps_per_channel..(hc + 1) * taps_per_channel];
                match &mut windows {
                    Some(win) => win.sum(d, signs, &mut hidden),
                    None => self.tap_loop(img, (h, w), signs, &mut hidden),
                }
                // `â` scale folded into the ±1 group combine.
                let a = self.a_hat[hc];
                d.slice_axpy(dst, if wcv > 0 { a } else { -a }, &hidden);
            }
        }
        Tensor::from_vec(y, &[n, c, oh, ow])
    }

    /// One hidden channel's taps (`signs`, row-major `kh × kw`) over the
    /// `h × w` plane `img` into `hidden`, for the geometries
    /// [`GuardedPlane`] does not cover. At unit horizontal stride each
    /// tap's in-bounds output run adds or subtracts one contiguous run of
    /// an input row; other strides add one element at a time.
    fn tap_loop(&self, img: &[f32], (h, w): (usize, usize), signs: &[i8], hidden: &mut [f32]) {
        let (oh, ow) = self.spec.out_dims(h, w);
        hidden.fill(0.0);
        for (k, &sign) in signs.iter().enumerate() {
            if sign == 0 {
                continue;
            }
            let (ki, kj) = (k / self.spec.kw, k % self.spec.kw);
            for oy in 0..oh {
                let iy = (oy * self.spec.stride_h + ki) as isize - self.spec.pad_top as isize;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                let src_row = iy as usize * w;
                if self.spec.stride_w == 1 {
                    // ix = ox + kj - pad_left must land in [0, w): one
                    // contiguous run of outputs.
                    let ox0 = self.spec.pad_left.saturating_sub(kj);
                    let ox1 = (w + self.spec.pad_left).saturating_sub(kj).min(ow);
                    if ox0 >= ox1 {
                        continue;
                    }
                    let ix0 = ox0 + kj - self.spec.pad_left;
                    let run = ox1 - ox0;
                    let out = hidden[oy * ow + ox0..oy * ow + ox1].iter_mut();
                    let src = &img[src_row + ix0..src_row + ix0 + run];
                    if sign > 0 {
                        out.zip(src).for_each(|(o, &v)| *o += v);
                    } else {
                        out.zip(src).for_each(|(o, &v)| *o -= v);
                    }
                } else {
                    for ox in 0..ow {
                        let ix =
                            (ox * self.spec.stride_w + kj) as isize - self.spec.pad_left as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let v = img[src_row + ix as usize];
                        if sign > 0 {
                            hidden[oy * ow + ox] += v;
                        } else {
                            hidden[oy * ow + ox] -= v;
                        }
                    }
                }
            }
        }
    }

    /// Additions/subtractions per input sample for an `h × w` input,
    /// counting exactly what [`Self::forward`] executes: hidden channels
    /// whose `W_c` sign is zero are skipped wholesale, and border-clipped
    /// taps contribute nothing.
    pub fn adds_per_sample(&self, h: usize, w: usize) -> usize {
        let (oh, ow) = self.spec.out_dims(h, w);
        let (kh, kw) = (self.spec.kh, self.spec.kw);
        // Valid output positions per tap row/column offset.
        let valid_y: Vec<usize> = (0..kh)
            .map(|ki| {
                (0..oh)
                    .filter(|oy| {
                        let iy =
                            (oy * self.spec.stride_h + ki) as isize - self.spec.pad_top as isize;
                        iy >= 0 && iy < h as isize
                    })
                    .count()
            })
            .collect();
        let valid_x: Vec<usize> = (0..kw)
            .map(|kj| {
                (0..ow)
                    .filter(|ox| {
                        let ix =
                            (ox * self.spec.stride_w + kj) as isize - self.spec.pad_left as isize;
                        ix >= 0 && ix < w as isize
                    })
                    .count()
            })
            .collect();
        let mut total = 0usize;
        for (hc, &wcv) in self.wc_signs.iter().enumerate() {
            if wcv == 0 {
                continue;
            }
            let taps = &self.wb_signs[hc * kh * kw..(hc + 1) * kh * kw];
            for ki in 0..kh {
                for kj in 0..kw {
                    if taps[ki * kw + kj] != 0 {
                        total += valid_y[ki] * valid_x[kj];
                    }
                }
            }
            // The ±1 combine of this hidden channel into the output.
            total += oh * ow;
        }
        total
    }

    /// Packed weight storage in bytes, accounting signs at 2 bits each.
    pub fn packed_bytes(&self) -> usize {
        (self.wb_signs.len() + self.wc_signs.len()).div_ceil(4)
            + (self.a_hat.len() + self.bias.len()) * 4
    }
}

/// The window layout [`PackedDepthwise2d::forward`] sums taps over on a
/// stride-1 map whose output is the input's size (so
/// `pad_top + pad_bottom = kh − 1` and `pad_left + pad_right = kw − 1`):
/// one input channel plane at a time, copied between zero guards, so that
/// tap `(ki, kj)` of output `o = oy·w + ox` reads `plane[o + ki·w + kj]`
/// and each tap is one contiguous window of `h·w` lanes.
///
/// ```text
/// plane = [pad_left 0s | pad_top zero rows | h input rows | pad_bottom zero rows | pad_right 0s]
/// plane[o + ki·w + kj] = input(oy + ki − pad_top, ox + kj − pad_left)
/// ```
///
/// A tap row outside the input reads a guard zero. A tap column outside
/// it wraps into the neighbouring row, so that lane is masked:
/// `masks[kj·h·w + o]` is zero where `ox + kj − pad_left` leaves `[0, w)`.
/// A masked lane adds ±0.0, which leaves the hidden sum unchanged because a
/// sum seeded with +0.0 never becomes −0.0, so every output element gets
/// exactly the tap loop's adds in the tap loop's order.
struct GuardedPlane {
    /// Index of input element `(0, 0)` in `plane`.
    origin: usize,
    plane: Vec<f32>,
    /// One run of `h·w` lane masks per kernel column `kj`.
    masks: Vec<u32>,
    /// The window and mask run of every kernel position, row-major.
    windows: Vec<WindowTap>,
    /// The current hidden channel's nonzero taps.
    taps: Vec<WindowTap>,
}

impl GuardedPlane {
    /// The layout for `spec` over an `h × w` input, or `None` unless both
    /// strides are 1 and the output is the input's size.
    fn new(spec: &Conv2dSpec, h: usize, w: usize) -> Option<Self> {
        if spec.stride_h != 1 || spec.stride_w != 1 || spec.out_dims(h, w) != (h, w) {
            return None;
        }
        let (kh, kw, pad_left, n) = (spec.kh, spec.kw, spec.pad_left, h * w);
        let mut masks = Vec::with_capacity(kw * n);
        for kj in 0..kw {
            let lane =
                |ox: usize| if (pad_left..pad_left + w).contains(&(ox + kj)) { !0 } else { 0 };
            for _ in 0..h {
                masks.extend((0..w).map(lane));
            }
        }
        let windows = (0..kh)
            .flat_map(|ki| {
                (0..kw).map(move |kj| WindowTap { src: ki * w + kj, mask: kj * n, negate: false })
            })
            .collect();
        Some(Self {
            origin: spec.pad_top * w + pad_left,
            plane: vec![0.0; (h + kh - 1) * w + kw - 1],
            masks,
            windows,
            taps: Vec::with_capacity(kh * kw),
        })
    }

    /// Copies one input channel plane between the guards.
    fn load(&mut self, img: &[f32]) {
        self.plane[self.origin..self.origin + img.len()].copy_from_slice(img);
    }

    /// One hidden channel: its nonzero taps (`signs`, row-major `kh × kw`)
    /// summed over the loaded plane into `hidden`, in one kernel call.
    fn sum(&mut self, d: &KernelDispatch, signs: &[i8], hidden: &mut [f32]) {
        self.taps.clear();
        for (&window, &sign) in self.windows.iter().zip(signs) {
            if sign != 0 {
                self.taps.push(WindowTap { negate: sign < 0, ..window });
            }
        }
        d.window_sum(&self.plane, &self.masks, &self.taps, hidden);
    }
}

/// A folded batch-norm: per-channel `y = scale ⊙ x + shift` over
/// `[n, c, h, w]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelAffine {
    pub(crate) scale: Vec<f32>,
    pub(crate) shift: Vec<f32>,
}

impl ChannelAffine {
    /// Folds a [`BatchNorm2d`]'s running statistics into scale/shift form.
    pub fn from_batch_norm(bn: &BatchNorm2d) -> Self {
        let (scale, shift) = bn.fold_factors();
        Self { scale, shift }
    }

    /// Applies the affine in place.
    pub fn forward_in_place(&self, x: &mut Tensor) {
        let (n, c) = (x.dims()[0], x.dims()[1]);
        let plane = x.numel() / (n * c).max(1);
        let xd = x.data_mut();
        for s in 0..n {
            for ch in 0..c {
                let (sc, sh) = (self.scale[ch], self.shift[ch]);
                let start = (s * c + ch) * plane;
                for v in &mut xd[start..start + plane] {
                    *v = sc * *v + sh;
                }
            }
        }
    }
}

/// One compiled layer of the front-end stack.
#[derive(Debug, Clone, PartialEq)]
pub enum PackedLayer<'a> {
    /// Compiled strassenified standard convolution.
    Conv(PackedConv2d<'a>),
    /// Compiled strassenified depthwise convolution.
    Depthwise(PackedDepthwise2d<'a>),
    /// Compiled strassenified dense layer.
    Dense(PackedDense<'a>),
    /// Folded batch normalisation.
    Affine(ChannelAffine),
    /// ReLU activation.
    Relu,
    /// Global average pooling `[n, c, h, w] → [n, c]`.
    GlobalAvgPool,
}

impl PackedLayer<'_> {
    /// The layer's f32 forward: the one step every walk over a compiled
    /// stack takes, [`PackedStStack::forward`] for every layer and the
    /// quantized engine's calibration and forward for the layers it keeps
    /// in f32.
    pub(crate) fn step(&self, mut cur: Tensor) -> Tensor {
        match self {
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
}

/// A compiled [`StStack`]: the deployable front-end.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedStStack<'a> {
    pub(crate) layers: Vec<PackedLayer<'a>>,
}

impl<'a> PackedStStack<'a> {
    /// Compiles a frozen stack.
    ///
    /// # Panics
    ///
    /// Panics if any strassenified layer is not frozen-ternary, or if the
    /// stack's activation fake-quantization is enabled.
    pub fn compile(stack: &StStack) -> PackedStStack<'static> {
        assert!(
            stack.activation_bits().is_none(),
            "packed engine compiles the unquantized path; disable activation_bits first"
        );
        let layers = stack
            .layers()
            .iter()
            .map(|l| match l {
                StLayer::Conv(c) => PackedLayer::Conv(PackedConv2d::compile(c)),
                StLayer::Depthwise(d) => PackedLayer::Depthwise(PackedDepthwise2d::compile(d)),
                StLayer::Dense(f) => PackedLayer::Dense(PackedDense::compile(f)),
                StLayer::BatchNorm(bn) => PackedLayer::Affine(ChannelAffine::from_batch_norm(bn)),
                StLayer::Relu(_) => PackedLayer::Relu,
                StLayer::GlobalAvgPool(_) => PackedLayer::GlobalAvgPool,
            })
            .collect();
        PackedStStack { layers }
    }

    /// The compiled layers.
    pub fn layers(&self) -> &[PackedLayer<'a>] {
        &self.layers
    }

    /// Batched inference through the whole stack.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.layers.iter().fold(x.clone(), |cur, l| l.step(cur))
    }
}

/// The compiled strassenified Bonsai tree head.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedBonsai<'a> {
    pub(crate) z: PackedDense<'a>,
    /// Every node dense, `topo`'s branch nodes `θ` then its score nodes `W`
    /// and gate nodes `V`: the order of the TREE section and of the schedule.
    pub(crate) nodes: Vec<PackedDense<'a>>,
    pub(crate) topo: TreeTopology,
    pub(crate) sharpness: f32,
    pub(crate) sigma: f32,
    pub(crate) num_classes: usize,
}

impl<'a> PackedBonsai<'a> {
    /// Compiles a frozen [`StrassenBonsai`].
    ///
    /// # Panics
    ///
    /// Panics if any node SPN is not frozen-ternary.
    pub fn compile(tree: &StrassenBonsai) -> PackedBonsai<'static> {
        PackedBonsai {
            z: PackedDense::compile(tree.projection()),
            nodes: [tree.branch_nodes(), tree.score_nodes(), tree.gate_nodes()]
                .into_iter()
                .flatten()
                .map(PackedDense::compile)
                .collect(),
            topo: *tree.topology(),
            sharpness: tree.branch_sharpness(),
            sigma: tree.config().sigma,
            num_classes: tree.config().num_classes,
        }
    }

    /// Batched inference: `[n, D] → [n, L]`, identical routing to the
    /// trained tree's evaluation path.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let zhat = self.z.forward(x);
        self.route(x.dims()[0], |_, node| node.forward(&zhat))
    }

    /// The tree's routing over `n` samples, given each node's product:
    /// `node(i, dense)` is node `dense`'s `[n, out]` output on the shared
    /// projection `ẑ`, and `i` its index in `nodes`' `θ ‖ W ‖ V` order,
    /// whose ranges `topo` gives. The packed engine passes f32 products
    /// over `ẑ`, the quantized engine popcount products over one bit-sliced
    /// `ẑ`; the routing arithmetic is this one loop for both.
    pub(crate) fn route(
        &self,
        n: usize,
        mut node: impl FnMut(usize, &PackedDense<'a>) -> Tensor,
    ) -> Tensor {
        let l = self.num_classes;
        let (branches, num_nodes) = (self.topo.num_internal(), self.topo.num_nodes());
        let mut probs = vec![vec![0.0f32; n]; num_nodes];
        probs[0] = vec![1.0; n];
        for (j, theta) in self.nodes[..branches].iter().enumerate() {
            let u = node(j, theta);
            let (lc, rc) = (self.topo.left(j), self.topo.right(j));
            for s in 0..n {
                let g = 1.0 / (1.0 + (-self.sharpness * u.data()[s]).exp());
                probs[lc][s] = probs[j][s] * (1.0 - g);
                probs[rc][s] = probs[j][s] * g;
            }
        }
        let mut y = Tensor::zeros(&[n, l]);
        for k in 0..num_nodes {
            let (w, v) = (branches + k, branches + num_nodes + k);
            let a = node(w, &self.nodes[w]);
            let t = node(v, &self.nodes[v]).map(|b| (self.sigma * b).tanh());
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

    /// Number of classification targets `L`.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn sublayers(&self) -> impl Iterator<Item = &PackedDense<'a>> {
        std::iter::once(&self.z).chain(&self.nodes)
    }
}

/// The whole compiled model: packed front-end plus packed tree.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use thnt_core::{engine::PackedStHybrid, HybridConfig, StHybridNet};
/// use thnt_nn::Model;
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
/// let x = Tensor::zeros(&[2, 1, 49, 10]);
/// let packed = engine.forward(&x);
/// let dense = net.forward(&x, false);
/// thnt_tensor::assert_close(packed.data(), dense.data(), 1e-4, 1e-4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackedStHybrid<'a> {
    pub(crate) front: PackedStStack<'a>,
    pub(crate) tree: PackedBonsai<'a>,
}

impl<'a> PackedStHybrid<'a> {
    /// Compiles a **frozen** [`StHybridNet`] into its packed deployment
    /// form.
    ///
    /// # Panics
    ///
    /// Panics if the network is not in [`QuantMode::Frozen`] (earlier phases
    /// carry full-precision or scaled-ternary weights that cannot pack), or
    /// if any activation fake-quantization knob is enabled.
    pub fn compile(net: &StHybridNet) -> PackedStHybrid<'static> {
        assert_eq!(
            net.mode(),
            QuantMode::Frozen,
            "packed compilation requires a frozen network (run freeze_ternary first)"
        );
        PackedStHybrid {
            front: PackedStStack::compile(net.front()),
            tree: PackedBonsai::compile(net.tree()),
        }
    }

    /// Batched inference: `[n, 1, 49, 10] → [n, L]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.tree.forward(&self.front.forward(x))
    }

    /// The compiled front-end.
    pub fn front(&self) -> &PackedStStack<'a> {
        &self.front
    }

    /// The compiled tree head.
    pub fn tree(&self) -> &PackedBonsai<'a> {
        &self.tree
    }

    /// Exact additions/subtractions per sample for the paper's `49 × 10`
    /// MFCC input — the measured counterpart of the analytic
    /// [`StHybridNet::cost_report`].
    pub fn adds_per_sample(&self) -> usize {
        let (mut h, mut w) = (49usize, 10usize);
        let mut total = 0usize;
        for l in &self.front.layers {
            match l {
                PackedLayer::Conv(c) => {
                    total += c.adds_per_sample(h, w);
                    let (oh, ow) = c.spec.out_dims(h, w);
                    (h, w) = (oh, ow);
                }
                PackedLayer::Depthwise(d) => {
                    total += d.adds_per_sample(h, w);
                    let (oh, ow) = d.spec.out_dims(h, w);
                    (h, w) = (oh, ow);
                }
                PackedLayer::Dense(f) => total += f.adds_per_sample(),
                _ => {}
            }
        }
        total + self.tree.sublayers().map(PackedDense::adds_per_sample).sum::<usize>()
    }

    /// Packed model size in bytes (ternary weights at 2 bits plus the
    /// full-precision `â`/bias/affine vectors).
    pub fn packed_bytes(&self) -> usize {
        let front: usize = self
            .front
            .layers
            .iter()
            .map(|l| match l {
                PackedLayer::Conv(c) => c.packed_bytes(),
                PackedLayer::Depthwise(d) => d.packed_bytes(),
                PackedLayer::Dense(f) => f.packed_bytes(),
                PackedLayer::Affine(a) => (a.scale.len() + a.shift.len()) * 4,
                _ => 0,
            })
            .sum();
        front + self.tree.sublayers().map(PackedDense::packed_bytes).sum::<usize>()
    }

    /// Number of classification targets `L` (the logits width).
    pub fn num_classes(&self) -> usize {
        self.tree.num_classes
    }

    /// Serializes the engine as a `.thnt2` artifact (see [`crate::artifact`]
    /// for the format), optionally with the serving metadata needed to stand
    /// up a detector without the training stack.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::SeedableRng;
    /// use thnt_core::{engine::PackedStHybrid, HybridConfig, StHybridNet};
    /// use thnt_strassen::Strassenified;
    ///
    /// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
    /// let cfg = HybridConfig { ds_blocks: 1, width: 8, proj_dim: 6, tree_depth: 1,
    ///                          ..HybridConfig::paper() };
    /// let mut net = StHybridNet::new(cfg, &mut rng);
    /// net.activate_quantization();
    /// net.freeze_ternary();
    /// let engine = PackedStHybrid::compile(&net);
    ///
    /// // Save to any `Write` sink; round-trips are bitwise-lossless.
    /// let mut blob = Vec::new();
    /// engine.save(None, &mut blob).unwrap();
    /// let (reloaded, meta) = PackedStHybrid::load(blob.as_slice()).unwrap();
    /// assert_eq!(reloaded, engine);
    /// assert!(meta.is_none());
    /// ```
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn save<W: std::io::Write>(
        &self,
        meta: Option<&crate::artifact::InferenceMeta>,
        writer: W,
    ) -> std::io::Result<()> {
        crate::artifact::save_thnt2_with(
            self,
            meta,
            crate::artifact::SaveOptions::default(),
            writer,
        )
    }

    /// Reconstructs a packed engine (and any embedded metadata) from a
    /// `.thnt2` artifact — no `thnt-nn` model is built in the process.
    ///
    /// # Examples
    ///
    /// ```
    /// use thnt_core::engine::PackedStHybrid;
    ///
    /// // Corrupt input is an error, never a panic or a silently wrong model.
    /// assert!(PackedStHybrid::load(&b"not a thnt2 artifact"[..]).is_err());
    /// ```
    ///
    /// See [`Self::save`] for a full save → load round-trip.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on any malformed, truncated or inconsistent
    /// artifact (the loader validates every structural invariant), or any
    /// I/O error from the reader.
    pub fn load<R: std::io::Read>(
        reader: R,
    ) -> std::io::Result<(PackedStHybrid<'static>, Option<crate::artifact::InferenceMeta>)> {
        crate::artifact::load_thnt2(reader)
    }

    /// Zero-copy counterpart of [`Self::load`]: reconstructs an engine that
    /// *borrows* its bitplanes straight out of `buf` whenever `buf` is
    /// 8-byte aligned (see [`crate::artifact::load_thnt2_ref`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::load`].
    pub fn load_ref(
        buf: &[u8],
    ) -> std::io::Result<(PackedStHybrid<'_>, Option<crate::artifact::InferenceMeta>)> {
        crate::artifact::load_thnt2_ref(buf)
    }

    /// [`Self::save`] to a file path.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn save_file(
        &self,
        meta: Option<&crate::artifact::InferenceMeta>,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<()> {
        self.save(meta, std::fs::File::create(path)?)
    }

    /// [`Self::load`] from a file path.
    ///
    /// # Errors
    ///
    /// Propagates file-open/read errors and format violations.
    pub fn load_file(
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<(PackedStHybrid<'static>, Option<crate::artifact::InferenceMeta>)> {
        PackedStHybrid::load(std::fs::File::open(path)?)
    }

    /// `true` iff **every** packed bitplane pair in the model borrows its
    /// words from an external buffer — i.e. the engine came out of a
    /// zero-copy [`Self::load_ref`] on an aligned buffer and no plane was
    /// copied. A compiled or [`Self::into_owned`]-converted engine returns
    /// `false`. Only bitplanes are counted. The same load also borrows every
    /// sign vector and every `f32` vector that sits 4-byte aligned in the
    /// buffer: each conv and dense `â`/bias. A depthwise layer's `â`/bias
    /// follow one-byte layer kinds and byte-granular sign vectors, land off
    /// 4-byte alignment in the compiled nets, and are copied.
    pub fn bitplanes_borrowed(&self) -> bool {
        let dense_borrowed = |d: &PackedDense<'_>| d.wb.is_borrowed() && d.wc.is_borrowed();
        self.front.layers.iter().all(|l| match l {
            PackedLayer::Conv(c) => c.wb.is_borrowed() && c.wc.is_borrowed(),
            PackedLayer::Dense(d) => dense_borrowed(d),
            _ => true,
        }) && self.tree.sublayers().all(dense_borrowed)
    }

    /// Converts into an engine that owns every weight buffer (`'static`),
    /// copying any plane that borrowed from an artifact buffer. This is how
    /// the owning loader ([`Self::load`]) detaches from its scratch buffer.
    pub fn into_owned(self) -> PackedStHybrid<'static> {
        let dense = |d: PackedDense<'a>| PackedDense {
            wb: d.wb.into_owned(),
            a_hat: Cow::Owned(d.a_hat.into_owned()),
            wc: d.wc.into_owned(),
            bias: Cow::Owned(d.bias.into_owned()),
        };
        PackedStHybrid {
            front: PackedStStack {
                layers: self
                    .front
                    .layers
                    .into_iter()
                    .map(|l| match l {
                        PackedLayer::Conv(c) => PackedLayer::Conv(PackedConv2d {
                            wb: c.wb.into_owned(),
                            a_hat: Cow::Owned(c.a_hat.into_owned()),
                            wc: c.wc.into_owned(),
                            bias: Cow::Owned(c.bias.into_owned()),
                            spec: c.spec,
                        }),
                        PackedLayer::Depthwise(d) => PackedLayer::Depthwise(PackedDepthwise2d {
                            wb_signs: Cow::Owned(d.wb_signs.into_owned()),
                            a_hat: Cow::Owned(d.a_hat.into_owned()),
                            wc_signs: Cow::Owned(d.wc_signs.into_owned()),
                            bias: Cow::Owned(d.bias.into_owned()),
                            spec: d.spec,
                            channels: d.channels,
                            multiplier: d.multiplier,
                        }),
                        PackedLayer::Dense(d) => PackedLayer::Dense(dense(d)),
                        PackedLayer::Affine(a) => PackedLayer::Affine(a),
                        PackedLayer::Relu => PackedLayer::Relu,
                        PackedLayer::GlobalAvgPool => PackedLayer::GlobalAvgPool,
                    })
                    .collect(),
            },
            tree: PackedBonsai {
                z: dense(self.tree.z),
                nodes: self.tree.nodes.into_iter().map(dense).collect(),
                topo: self.tree.topo,
                sharpness: self.tree.sharpness,
                sigma: self.tree.sigma,
                num_classes: self.tree.num_classes,
            },
        }
    }
}

impl thnt_nn::InferenceBackend for PackedStHybrid<'_> {
    fn infer(&self, x: &Tensor) -> Tensor {
        self.forward(x)
    }

    fn num_classes(&self) -> usize {
        PackedStHybrid::num_classes(self)
    }

    fn adds_per_sample(&self) -> u64 {
        PackedStHybrid::adds_per_sample(self) as u64
    }

    fn model_bytes(&self) -> usize {
        self.packed_bytes()
    }

    fn backend_name(&self) -> &'static str {
        "packed"
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::config::HybridConfig;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use thnt_nn::Model;

    fn frozen_net(seed: u64) -> StHybridNet {
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
        net
    }

    #[test]
    fn packed_dense_matches_dense_layer() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut layer = StrassenDense::new(10, 7, 5, &mut rng);
        layer.activate_quantization();
        layer.freeze_ternary();
        let x = thnt_tensor::gaussian(&[3, 10], 0.0, 1.0, &mut rng);
        let want = thnt_nn::Layer::forward(&mut layer, &x, false);
        let got = PackedDense::compile(&layer).forward(&x);
        thnt_tensor::assert_close(got.data(), want.data(), 1e-4, 1e-4);
    }

    #[test]
    fn packed_conv_matches_dense_layer() {
        let mut rng = SmallRng::seed_from_u64(1);
        let spec = Conv2dSpec::same(9, 6, 3, 3, 2, 1);
        let mut layer = StrassenConv2d::new(2, 4, 5, spec, &mut rng);
        layer.activate_quantization();
        layer.freeze_ternary();
        let x = thnt_tensor::gaussian(&[2, 2, 9, 6], 0.0, 1.0, &mut rng);
        let want = thnt_nn::Layer::forward(&mut layer, &x, false);
        let got = PackedConv2d::compile(&layer).forward(&x);
        assert_eq!(got.dims(), want.dims());
        thnt_tensor::assert_close(got.data(), want.data(), 1e-4, 1e-4);
    }

    #[test]
    fn packed_depthwise_matches_dense_layer() {
        let mut rng = SmallRng::seed_from_u64(2);
        let spec = Conv2dSpec::same(6, 5, 3, 3, 1, 1);
        let mut layer = StrassenDepthwise2d::new(3, 2, spec, &mut rng);
        layer.activate_quantization();
        layer.freeze_ternary();
        let x = thnt_tensor::gaussian(&[2, 3, 6, 5], 0.0, 1.0, &mut rng);
        let want = thnt_nn::Layer::forward(&mut layer, &x, false);
        let got = PackedDepthwise2d::compile(&layer).forward(&x);
        assert_eq!(got.dims(), want.dims());
        thnt_tensor::assert_close(got.data(), want.data(), 1e-4, 1e-4);
    }

    /// The pre-SIMD tap loop, kept verbatim as the bitwise reference for
    /// both paths of [`PackedDepthwise2d::forward`]: the window sums and
    /// the dispatched tap loop.
    fn reference_depthwise(layer: &PackedDepthwise2d<'_>, x: &Tensor) -> Tensor {
        let (c, m) = (layer.channels, layer.multiplier);
        let (n, h, w) = (x.dims()[0], x.dims()[2], x.dims()[3]);
        let (oh, ow) = layer.spec.out_dims(h, w);
        let spatial = oh * ow;
        let (kh, kw) = (layer.spec.kh, layer.spec.kw);
        let mut y = Tensor::zeros(&[n, c, oh, ow]);
        for s in 0..n {
            for ch in 0..c {
                let img = &x.data()[(s * c + ch) * h * w..(s * c + ch + 1) * h * w];
                let dst = &mut y.data_mut()[(s * c + ch) * spatial..(s * c + ch + 1) * spatial];
                dst.fill(layer.bias[ch]);
                for j in 0..m {
                    let hc = ch * m + j;
                    let wcv = layer.wc_signs[hc];
                    if wcv == 0 {
                        continue;
                    }
                    let mut hidden = vec![0.0f32; spatial];
                    let taps = &layer.wb_signs[hc * kh * kw..(hc + 1) * kh * kw];
                    for ki in 0..kh {
                        for kj in 0..kw {
                            let sign = taps[ki * kw + kj];
                            if sign == 0 {
                                continue;
                            }
                            for oy in 0..oh {
                                let iy = (oy * layer.spec.stride_h + ki) as isize
                                    - layer.spec.pad_top as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for ox in 0..ow {
                                    let ix = (ox * layer.spec.stride_w + kj) as isize
                                        - layer.spec.pad_left as isize;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let v = img[iy as usize * w + ix as usize];
                                    if sign > 0 {
                                        hidden[oy * ow + ox] += v;
                                    } else {
                                        hidden[oy * ow + ox] -= v;
                                    }
                                }
                            }
                        }
                    }
                    let a = layer.a_hat[hc];
                    for (d, &v) in dst.iter_mut().zip(hidden.iter()) {
                        *d += if wcv > 0 { a } else { -a } * v;
                    }
                }
            }
        }
        y
    }

    /// A depthwise layer with random ternary signs, `â` and bias.
    fn random_depthwise(
        spec: Conv2dSpec,
        c: usize,
        m: usize,
        rng: &mut SmallRng,
    ) -> PackedDepthwise2d<'static> {
        let taps = spec.kh * spec.kw;
        PackedDepthwise2d {
            wb_signs: Cow::Owned((0..c * m * taps).map(|_| rng.gen_range(-1i8..=1)).collect()),
            a_hat: (0..c * m).map(|_| rng.gen_range(0.2f32..1.5)).collect(),
            wc_signs: Cow::Owned((0..c * m).map(|_| rng.gen_range(-1i8..=1)).collect()),
            bias: (0..c).map(|_| rng.gen_range(-0.5f32..0.5)).collect(),
            spec,
            channels: c,
            multiplier: m,
        }
    }

    /// `got` equals `want` bit for bit, except that where the input held a
    /// NaN (`nan_input`) a NaN output need only be NaN: the window sum
    /// flips signs by XOR, so a NaN's sign bit may differ.
    fn assert_bitwise(got: &Tensor, want: &Tensor, nan_input: bool, label: &str) {
        assert_eq!(got.dims(), want.dims(), "{label}");
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            let same = g.to_bits() == w.to_bits() || (nan_input && g.is_nan() && w.is_nan());
            assert!(
                same,
                "{label}: element {i} is {g:?} ({:#x}), want {w:?} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    #[test]
    fn depthwise_slice_ops_are_bitwise_equal_to_the_tap_loop() {
        // Unit and non-unit horizontal stride, asymmetric padding, several
        // channels/multipliers: the dispatched tap loop must reproduce the
        // original scalar tap loop bit for bit.
        let mut rng = SmallRng::seed_from_u64(17);
        for (stride_w, pad_left) in [(1usize, 1usize), (1, 0), (2, 1), (3, 2)] {
            let spec = Conv2dSpec {
                kh: 3,
                kw: 3,
                stride_h: 2,
                stride_w,
                pad_top: 1,
                pad_bottom: 0,
                pad_left,
                pad_right: 1,
            };
            let layer = random_depthwise(spec, 3, 2, &mut rng);
            let x = thnt_tensor::gaussian(&[2, 3, 9, 7], 0.0, 1.0, &mut rng);
            let label = format!("stride_w={stride_w} pad_left={pad_left}");
            assert_bitwise(&layer.forward(&x), &reference_depthwise(&layer, &x), false, &label);
        }
        // Stride-1 maps whose output is the input's size run the window
        // sums over a guard-row plane: the paper's 3×3 on 25×5, an even
        // 4×4 kernel (pads 1 above/left, 2 below/right), 1×3 and 5×2
        // kernels, and multiplier 2.
        let cases = [
            ((25usize, 5usize), (3usize, 3usize), 1usize),
            ((25, 5), (3, 3), 2),
            ((9, 7), (4, 4), 1),
            ((6, 9), (1, 3), 2),
            ((8, 6), (5, 2), 1),
        ];
        for ((h, w), (kh, kw), m) in cases {
            let spec = Conv2dSpec::same(h, w, kh, kw, 1, 1);
            assert_eq!(spec.out_dims(h, w), (h, w));
            let c = 3;
            let mut layer = random_depthwise(spec, c, m, &mut rng);
            // A hidden channel with a zero `W_c` sign is skipped wholesale.
            layer.wc_signs.to_mut()[1] = 0;
            let mut x = thnt_tensor::gaussian(&[2, c, h, w], 0.0, 1.0, &mut rng);
            let label = format!("{kh}x{kw} on {h}x{w}, multiplier {m}");
            assert_bitwise(&layer.forward(&x), &reference_depthwise(&layer, &x), false, &label);
            // −0.0 and ±inf, on borders and inside: a masked lane or guard
            // row adds ±0.0, which changes no sum, and inf − inf is the same
            // NaN on both paths.
            let n = x.numel();
            for (i, v) in [(0, -0.0), (w - 1, f32::INFINITY), (n / 2, f32::NEG_INFINITY)] {
                x.data_mut()[i] = v;
            }
            for i in (3..n).step_by(11) {
                x.data_mut()[i] = -0.0;
            }
            let label = format!("{label}, with -0.0 and ±inf inputs");
            assert_bitwise(&layer.forward(&x), &reference_depthwise(&layer, &x), false, &label);
            // A NaN input stays NaN.
            x.data_mut()[n / 3] = f32::NAN;
            let label = format!("{label} and a NaN");
            assert_bitwise(&layer.forward(&x), &reference_depthwise(&layer, &x), true, &label);
        }
    }

    /// The convolution the engine replaced: `W_b · im2col`, `â`, `W_c ·`,
    /// bias, one freshly lowered sample at a time.
    fn reference_conv(layer: &PackedConv2d<'_>, x: &Tensor) -> Tensor {
        let n = x.dims()[0];
        let (oh, ow) = layer.spec.out_dims(x.dims()[2], x.dims()[3]);
        let spatial = oh * ow;
        let mut rows = Vec::new();
        for s in 0..n {
            let mut hidden =
                layer.wb.matmul_rhs(&thnt_tensor::im2col(&x.slice_batch(s), &layer.spec));
            for (row, &a) in hidden.data_mut().chunks_mut(spatial).zip(layer.a_hat.iter()) {
                row.iter_mut().for_each(|v| *v *= a);
            }
            let mut y = layer.wc.matmul_rhs(&hidden);
            for (row, &b) in y.data_mut().chunks_mut(spatial).zip(layer.bias.iter()) {
                row.iter_mut().for_each(|v| *v += b);
            }
            rows.extend_from_slice(y.data());
        }
        Tensor::from_vec(rows, &[n, layer.bias.len(), oh, ow])
    }

    #[test]
    fn convs_read_in_place_or_from_one_column_buffer_bitwise() {
        // A 1×1 pointwise conv hands the kernel its input in place; the
        // first conv's geometry (10×4, stride 2, SAME) lowers every sample
        // into one reused column buffer. Both must equal `matmul_rhs` over
        // a fresh `im2col`, bit for bit, alone and in a batch.
        let mut rng = SmallRng::seed_from_u64(23);
        for (ic, oc, r, spec, (h, w)) in [
            (6usize, 5usize, 4usize, Conv2dSpec::valid(1, 1, 1, 1), (25usize, 5usize)),
            (1, 8, 6, Conv2dSpec::same(49, 10, 10, 4, 2, 2), (49, 10)),
        ] {
            let mut conv = StrassenConv2d::new(ic, oc, r, spec, &mut rng);
            conv.activate_quantization();
            conv.freeze_ternary();
            let layer = PackedConv2d::compile(&conv);
            for n in [1, 3] {
                let x = thnt_tensor::gaussian(&[n, ic, h, w], 0.0, 1.0, &mut rng);
                let label = format!("{}x{} conv at batch {n}", spec.kh, spec.kw);
                assert_bitwise(&layer.forward(&x), &reference_conv(&layer, &x), false, &label);
            }
        }
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn packed_depthwise_rejects_channel_mismatch() {
        let mut rng = SmallRng::seed_from_u64(11);
        let spec = Conv2dSpec::same(6, 5, 3, 3, 1, 1);
        let mut layer = StrassenDepthwise2d::new(3, 2, spec, &mut rng);
        layer.activate_quantization();
        layer.freeze_ternary();
        PackedDepthwise2d::compile(&layer).forward(&Tensor::zeros(&[1, 4, 6, 5]));
    }

    #[test]
    fn depthwise_adds_count_only_executed_taps() {
        // One channel, multiplier 1, 3×3 kernel with same-padding on a 4×4
        // input: a wc of 0 must zero the count; a corner tap only fires on
        // the positions where it is in bounds.
        let spec = Conv2dSpec::same(4, 4, 3, 3, 1, 1);
        let layer = PackedDepthwise2d {
            wb_signs: Cow::Owned(vec![1, 0, 0, 0, 0, 0, 0, 0, 0]), // top-left tap only
            a_hat: Cow::Owned(vec![1.0]),
            wc_signs: Cow::Owned(vec![1]),
            bias: Cow::Owned(vec![0.0]),
            spec,
            channels: 1,
            multiplier: 1,
        };
        // Tap (0,0) with pad 1 is valid on 3 of 4 rows and 3 of 4 cols,
        // plus 16 combine adds for the active hidden channel.
        assert_eq!(layer.adds_per_sample(4, 4), 3 * 3 + 16);
        let zeroed = PackedDepthwise2d { wc_signs: Cow::Owned(vec![0]), ..layer };
        assert_eq!(zeroed.adds_per_sample(4, 4), 0);
    }

    #[test]
    fn compiled_hybrid_matches_dense_forward() {
        let mut net = frozen_net(3);
        let engine = PackedStHybrid::compile(&net);
        let mut rng = SmallRng::seed_from_u64(4);
        let x = thnt_tensor::gaussian(&[3, 1, 49, 10], 0.0, 1.0, &mut rng);
        let want = net.forward(&x, false);
        let got = engine.forward(&x);
        assert_eq!(got.dims(), want.dims());
        thnt_tensor::assert_close(got.data(), want.data(), 1e-4, 1e-4);
    }

    #[test]
    fn compiled_paper_config_matches_dense_forward() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut net = StHybridNet::new(HybridConfig::paper(), &mut rng);
        net.activate_quantization();
        net.freeze_ternary();
        let engine = PackedStHybrid::compile(&net);
        let x = thnt_tensor::gaussian(&[2, 1, 49, 10], 0.0, 1.0, &mut rng);
        let want = net.forward(&x, false);
        let got = engine.forward(&x);
        thnt_tensor::assert_close(got.data(), want.data(), 1e-4, 1e-4);
    }

    #[test]
    fn compile_rejects_unfrozen_network() {
        let mut rng = SmallRng::seed_from_u64(6);
        let net = StHybridNet::new(
            HybridConfig { ds_blocks: 1, width: 8, proj_dim: 6, ..HybridConfig::paper() },
            &mut rng,
        );
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            PackedStHybrid::compile(&net)
        }));
        assert!(r.is_err(), "compile must reject a full-precision network");
    }

    #[test]
    fn add_count_stays_within_analytic_budget() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut net = StHybridNet::new(HybridConfig::paper(), &mut rng);
        net.activate_quantization();
        net.freeze_ternary();
        let engine = PackedStHybrid::compile(&net);
        let measured = engine.adds_per_sample() as u64;
        let analytic = net.cost_report().adds;
        // The analytic model is a dense upper bound (it counts every ternary
        // entry as an addition); the measured count skips zeros.
        assert!(measured <= analytic, "measured {measured} > analytic {analytic}");
        assert!(measured * 4 > analytic, "measured {measured} implausibly low vs {analytic}");
    }

    #[test]
    fn packed_model_is_smaller_than_f32() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut net = StHybridNet::new(HybridConfig::paper(), &mut rng);
        net.activate_quantization();
        net.freeze_ternary();
        let engine = PackedStHybrid::compile(&net);
        let packed_kb = engine.packed_bytes() as f64 / 1024.0;
        // Paper Table 4 territory: ~15KB packed vs ~60KB dense f32.
        assert!(packed_kb < 25.0, "packed model {packed_kb:.2} KB");
    }

    /// Row independence, bit for bit: every sample's logits are the same
    /// whether it is served alone or in a batch of any size, on both
    /// engines. Every serve-equivalence proof rests on this.
    #[test]
    fn batch_inference_is_consistent_with_single_sample() {
        use crate::quantized::QuantizedStHybrid;
        let mut rng = SmallRng::seed_from_u64(9);
        let mut net = StHybridNet::new(HybridConfig::paper(), &mut rng);
        net.activate_quantization();
        net.freeze_ternary();
        let packed = PackedStHybrid::compile(&net);
        let calib = thnt_tensor::gaussian(&[4, 1, 49, 10], 0.0, 1.0, &mut rng);
        let quantized =
            QuantizedStHybrid::calibrate_and_compile(&packed, &calib, Default::default()).unwrap();
        let x = thnt_tensor::gaussian(&[64, 1, 49, 10], 0.0, 1.0, &mut rng);
        let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let engines: [&dyn thnt_nn::InferenceBackend; 2] = [&packed, &quantized];
        for engine in engines {
            let name = engine.backend_name();
            let singles: Vec<Vec<u32>> = (0..64)
                .map(|s| bits(engine.infer(&x.slice_batch(s).reshape(&[1, 1, 49, 10]))))
                .collect();
            for n in [2, 6, 64] {
                let batch = Tensor::from_vec(x.data()[..n * 490].to_vec(), &[n, 1, 49, 10]);
                let rows = bits(engine.infer(&batch));
                for (s, single) in singles.iter().take(n).enumerate() {
                    let row = &rows[s * single.len()..(s + 1) * single.len()];
                    assert_eq!(row, &single[..], "{name}: sample {s} of a batch of {n}");
                }
            }
        }
    }
}
