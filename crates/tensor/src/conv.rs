//! Convolution kernels: `im2col`/`col2im` and direct depthwise convolution.
//!
//! Layout conventions (row-major throughout):
//!
//! * activations: `[batch, channels, height, width]` (NCHW)
//! * standard conv weights: `[out_ch, in_ch, kh, kw]`
//! * depthwise conv weights: `[channels, multiplier, kh, kw]`
//!
//! Standard convolutions lower to a matmul over an `im2col` buffer whose rows
//! are ordered `[in_ch][kh][kw]` — exactly matching the flattened weight
//! layout, so `conv = W[oc, ic·kh·kw] · col[ic·kh·kw, oh·ow]`. This is also
//! the matrix-multiplication view that StrassenNets "strassenifies".

use crate::matmul::matmul_into;
use crate::par::parallel_for;
use crate::tensor::Tensor;

/// Geometry of a 2-D convolution: kernel size, stride and (possibly
/// asymmetric, TensorFlow-`SAME`-style) padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
    /// Padding rows added above the input.
    pub pad_top: usize,
    /// Padding rows added below the input.
    pub pad_bottom: usize,
    /// Padding columns added left of the input.
    pub pad_left: usize,
    /// Padding columns added right of the input.
    pub pad_right: usize,
}

impl Conv2dSpec {
    /// A valid-padding (no padding) convolution.
    pub fn valid(kh: usize, kw: usize, stride_h: usize, stride_w: usize) -> Self {
        Self { kh, kw, stride_h, stride_w, pad_top: 0, pad_bottom: 0, pad_left: 0, pad_right: 0 }
    }

    /// TensorFlow-style `SAME` padding for the given input size: the output is
    /// `ceil(in / stride)` and any odd padding surplus goes to the
    /// bottom/right, matching the DS-CNN reference implementation.
    pub fn same(
        in_h: usize,
        in_w: usize,
        kh: usize,
        kw: usize,
        stride_h: usize,
        stride_w: usize,
    ) -> Self {
        let out_h = in_h.div_ceil(stride_h);
        let out_w = in_w.div_ceil(stride_w);
        let pad_h = ((out_h - 1) * stride_h + kh).saturating_sub(in_h);
        let pad_w = ((out_w - 1) * stride_w + kw).saturating_sub(in_w);
        Self {
            kh,
            kw,
            stride_h,
            stride_w,
            pad_top: pad_h / 2,
            pad_bottom: pad_h - pad_h / 2,
            pad_left: pad_w / 2,
            pad_right: pad_w - pad_w / 2,
        }
    }

    /// Output spatial size for an `in_h × in_w` input.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel.
    pub fn out_dims(&self, in_h: usize, in_w: usize) -> (usize, usize) {
        let ph = in_h + self.pad_top + self.pad_bottom;
        let pw = in_w + self.pad_left + self.pad_right;
        assert!(ph >= self.kh && pw >= self.kw, "kernel larger than padded input");
        ((ph - self.kh) / self.stride_h + 1, (pw - self.kw) / self.stride_w + 1)
    }
}

/// Lowers one sample `[c, h, w]` to a column matrix `[c·kh·kw, oh·ow]`.
///
/// Out-of-bounds (padding) taps contribute zeros.
///
/// # Panics
///
/// Panics if `input` is not 3-D.
pub fn im2col(input: &Tensor, spec: &Conv2dSpec) -> Tensor {
    assert_eq!(input.shape().rank(), 3, "im2col expects [c, h, w]");
    let (c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    let (oh, ow) = spec.out_dims(h, w);
    let mut out = Tensor::zeros(&[c * spec.kh * spec.kw, oh * ow]);
    im2col_into(input.data(), (c, h, w), spec, out.data_mut());
    out
}

/// [`im2col`] of one flat `[c, h, w]` sample into a caller-provided
/// `[c·kh·kw, oh·ow]` row-major buffer. Every element is written, padding
/// taps as zeros, so one buffer serves any number of samples.
///
/// # Panics
///
/// Panics if `src.len() != c·h·w` or `out` is not `[c·kh·kw, oh·ow]`.
pub fn im2col_into(
    src: &[f32],
    (c, h, w): (usize, usize, usize),
    spec: &Conv2dSpec,
    out: &mut [f32],
) {
    assert_eq!(src.len(), c * h * w, "im2col input length mismatch");
    let (oh, ow) = spec.out_dims(h, w);
    let cols = oh * ow;
    assert_eq!(out.len(), c * spec.kh * spec.kw * cols, "im2col output length mismatch");
    for ic in 0..c {
        for ki in 0..spec.kh {
            for kj in 0..spec.kw {
                let r = (ic * spec.kh + ki) * spec.kw + kj;
                for (oy, orow) in out[r * cols..(r + 1) * cols].chunks_mut(ow.max(1)).enumerate() {
                    let iy = (oy * spec.stride_h + ki) as isize - spec.pad_top as isize;
                    if iy < 0 || iy >= h as isize {
                        orow.fill(0.0);
                        continue;
                    }
                    let src_row = (ic * h + iy as usize) * w;
                    for (ox, o) in orow.iter_mut().enumerate() {
                        let ix = (ox * spec.stride_w + kj) as isize - spec.pad_left as isize;
                        *o = if ix < 0 || ix >= w as isize {
                            0.0
                        } else {
                            src[src_row + ix as usize]
                        };
                    }
                }
            }
        }
    }
}

/// Scatter-adds a column matrix `[c·kh·kw, oh·ow]` back into a `[c, h, w]`
/// image — the adjoint of [`im2col`], used for input gradients.
///
/// # Panics
///
/// Panics if `cols` does not have the shape implied by `spec` and `(c, h, w)`.
pub fn col2im(cols: &Tensor, spec: &Conv2dSpec, c: usize, h: usize, w: usize) -> Tensor {
    let (oh, ow) = spec.out_dims(h, w);
    assert_eq!(cols.dims(), &[c * spec.kh * spec.kw, oh * ow], "col2im shape mismatch");
    let mut out = Tensor::zeros(&[c, h, w]);
    let src = cols.data();
    let dst = out.data_mut();
    let ncols = oh * ow;
    for ic in 0..c {
        for ki in 0..spec.kh {
            for kj in 0..spec.kw {
                let r = (ic * spec.kh + ki) * spec.kw + kj;
                let srow = &src[r * ncols..(r + 1) * ncols];
                for oy in 0..oh {
                    let iy = (oy * spec.stride_h + ki) as isize - spec.pad_top as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let dst_row = (ic * h + iy as usize) * w;
                    for ox in 0..ow {
                        let ix = (ox * spec.stride_w + kj) as isize - spec.pad_left as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        dst[dst_row + ix as usize] += srow[oy * ow + ox];
                    }
                }
            }
        }
    }
    out
}

/// Standard 2-D convolution: `[n, c, h, w] * [oc, c, kh, kw] → [n, oc, oh, ow]`.
///
/// Samples are processed in parallel; each lowers to `W · im2col(x)`.
///
/// # Panics
///
/// Panics on rank or channel mismatches, or if `bias` (when provided) does not
/// have `oc` elements.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: &Conv2dSpec) -> Tensor {
    assert_eq!(input.shape().rank(), 4, "conv2d input must be [n, c, h, w]");
    assert_eq!(weight.shape().rank(), 4, "conv2d weight must be [oc, ic, kh, kw]");
    let (n, c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]);
    let (oc, ic) = (weight.dims()[0], weight.dims()[1]);
    assert_eq!(ic, c, "conv2d channel mismatch: input {c}, weight {ic}");
    assert_eq!(weight.dims()[2], spec.kh, "weight kernel height mismatch");
    assert_eq!(weight.dims()[3], spec.kw, "weight kernel width mismatch");
    if let Some(b) = bias {
        assert_eq!(b.numel(), oc, "bias must have {oc} elements");
    }
    let (oh, ow) = spec.out_dims(h, w);
    let mut out = Tensor::zeros(&[n, oc, oh, ow]);
    let k = c * spec.kh * spec.kw;
    let cols_len = oh * ow;

    let out_ptr = SendPtr(out.data_mut().as_mut_ptr());
    parallel_for(n, |s| {
        let sample = input.slice_batch(s);
        let cols = im2col(&sample, spec);
        // SAFETY: each iteration writes only its own disjoint [s] slice.
        let dst = unsafe {
            std::slice::from_raw_parts_mut(out_ptr.get().add(s * oc * cols_len), oc * cols_len)
        };
        matmul_into(weight.data(), cols.data(), dst, oc, k, cols_len);
        if let Some(b) = bias {
            for ch in 0..oc {
                let bv = b.data()[ch];
                for v in &mut dst[ch * cols_len..(ch + 1) * cols_len] {
                    *v += bv;
                }
            }
        }
    });
    out
}

/// Depthwise 2-D convolution:
/// `[n, c, h, w] * [c, m, kh, kw] → [n, c·m, oh, ow]` where output channel
/// `c·m + j` convolves input channel `c` with its `j`-th filter.
///
/// # Panics
///
/// Panics on rank or channel mismatches, or if `bias` (when provided) does not
/// have `c·m` elements.
pub fn depthwise_conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
) -> Tensor {
    assert_eq!(input.shape().rank(), 4, "depthwise input must be [n, c, h, w]");
    assert_eq!(weight.shape().rank(), 4, "depthwise weight must be [c, m, kh, kw]");
    let (n, c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]);
    let (wc, m) = (weight.dims()[0], weight.dims()[1]);
    assert_eq!(wc, c, "depthwise channel mismatch: input {c}, weight {wc}");
    assert_eq!(weight.dims()[2], spec.kh, "weight kernel height mismatch");
    assert_eq!(weight.dims()[3], spec.kw, "weight kernel width mismatch");
    let oc = c * m;
    if let Some(b) = bias {
        assert_eq!(b.numel(), oc, "bias must have {oc} elements");
    }
    let (oh, ow) = spec.out_dims(h, w);
    let mut out = Tensor::zeros(&[n, oc, oh, ow]);
    let plane = oh * ow;

    let out_ptr = SendPtr(out.data_mut().as_mut_ptr());
    parallel_for(n, |s| {
        // SAFETY: each iteration writes only its own disjoint sample slice.
        let dst = unsafe {
            std::slice::from_raw_parts_mut(out_ptr.get().add(s * oc * plane), oc * plane)
        };
        let src = &input.data()[s * c * h * w..(s + 1) * c * h * w];
        for ch in 0..c {
            let img = &src[ch * h * w..(ch + 1) * h * w];
            for j in 0..m {
                let fil = &weight.data()
                    [(ch * m + j) * spec.kh * spec.kw..(ch * m + j + 1) * spec.kh * spec.kw];
                let bv = bias.map(|b| b.data()[ch * m + j]).unwrap_or(0.0);
                let dplane = &mut dst[(ch * m + j) * plane..(ch * m + j + 1) * plane];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bv;
                        for ki in 0..spec.kh {
                            let iy = (oy * spec.stride_h + ki) as isize - spec.pad_top as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kj in 0..spec.kw {
                                let ix =
                                    (ox * spec.stride_w + kj) as isize - spec.pad_left as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += fil[ki * spec.kw + kj] * img[iy as usize * w + ix as usize];
                            }
                        }
                        dplane[oy * ow + ox] = acc;
                    }
                }
            }
        }
    });
    out
}

/// Raw pointer wrapper so disjoint per-sample writes can cross the
/// `crossbeam` scope boundary. The `get` accessor (rather than direct field
/// access) ensures 2021-edition closures capture the whole wrapper, keeping
/// its `Sync` impl in effect.
struct SendPtr(*mut f32);
// SAFETY: the pointer names an output buffer that outlives the
// `parallel_for` scope it crosses, and every iteration writes only its own
// disjoint sample slice through it, so no two threads touch one element.
unsafe impl Send for SendPtr {}
// SAFETY: as for `Send`: shared use only hands each iteration its own
// disjoint slice.
unsafe impl Sync for SendPtr {}

impl SendPtr {
    fn get(&self) -> *mut f32 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(), dims)
    }

    #[test]
    fn im2col_into_overwrites_a_reused_buffer() {
        // One buffer, dirty from a previous sample, must come out equal to
        // a fresh `im2col`, padding zeros included.
        let spec = Conv2dSpec::same(9, 6, 4, 3, 2, 1);
        let x = random(&[2, 9, 6], 30);
        let want = im2col(&x, &spec);
        let mut buf = vec![f32::NAN; want.numel()];
        im2col_into(x.data(), (2, 9, 6), &spec, &mut buf);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&buf), bits(want.data()));
    }

    /// Direct (quadruple-loop) convolution reference.
    fn conv2d_reference(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: &Conv2dSpec,
    ) -> Tensor {
        let (n, c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]);
        let oc = weight.dims()[0];
        let (oh, ow) = spec.out_dims(h, w);
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        for s in 0..n {
            for o in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.map(|b| b.data()[o]).unwrap_or(0.0);
                        for ic in 0..c {
                            for ki in 0..spec.kh {
                                for kj in 0..spec.kw {
                                    let iy =
                                        (oy * spec.stride_h + ki) as isize - spec.pad_top as isize;
                                    let ix =
                                        (ox * spec.stride_w + kj) as isize - spec.pad_left as isize;
                                    if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    acc += input.at(&[s, ic, iy as usize, ix as usize])
                                        * weight.at(&[o, ic, ki, kj]);
                                }
                            }
                        }
                        out.set(&[s, o, oy, ox], acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn same_padding_matches_tensorflow_geometry() {
        // The DS-CNN first layer: 49x10 input, 10x4 kernel, stride 2x2 -> 25x5.
        let spec = Conv2dSpec::same(49, 10, 10, 4, 2, 2);
        assert_eq!(spec.out_dims(49, 10), (25, 5));
        assert_eq!(spec.pad_top + spec.pad_bottom, 9);
        assert!(spec.pad_bottom >= spec.pad_top, "surplus goes to the bottom");
    }

    #[test]
    fn conv2d_matches_reference_valid() {
        let x = random(&[2, 3, 8, 7], 1);
        let w = random(&[4, 3, 3, 3], 2);
        let b = random(&[4], 3);
        let spec = Conv2dSpec::valid(3, 3, 1, 1);
        let got = conv2d(&x, &w, Some(&b), &spec);
        let want = conv2d_reference(&x, &w, Some(&b), &spec);
        assert_eq!(got.dims(), &[2, 4, 6, 5]);
        assert_close(got.data(), want.data(), 1e-5, 1e-5);
    }

    #[test]
    fn conv2d_matches_reference_same_strided() {
        let x = random(&[2, 1, 49, 10], 4);
        let w = random(&[8, 1, 10, 4], 5);
        let spec = Conv2dSpec::same(49, 10, 10, 4, 2, 2);
        let got = conv2d(&x, &w, None, &spec);
        let want = conv2d_reference(&x, &w, None, &spec);
        assert_eq!(got.dims(), &[2, 8, 25, 5]);
        assert_close(got.data(), want.data(), 1e-4, 1e-4);
    }

    #[test]
    fn depthwise_matches_grouped_reference() {
        // A depthwise conv with multiplier 1 equals a standard conv whose
        // weight is block-diagonal over channels.
        let x = random(&[2, 3, 6, 6], 6);
        let dw = random(&[3, 1, 3, 3], 7);
        let spec = Conv2dSpec::same(6, 6, 3, 3, 1, 1);
        let got = depthwise_conv2d(&x, &dw, None, &spec);

        let mut full = Tensor::zeros(&[3, 3, 3, 3]);
        for c in 0..3 {
            for ki in 0..3 {
                for kj in 0..3 {
                    full.set(&[c, c, ki, kj], dw.at(&[c, 0, ki, kj]));
                }
            }
        }
        let want = conv2d(&x, &full, None, &spec);
        assert_close(got.data(), want.data(), 1e-5, 1e-5);
    }

    #[test]
    fn depthwise_multiplier_two_shapes_and_values() {
        let x = random(&[1, 2, 5, 5], 8);
        let w = random(&[2, 2, 3, 3], 9);
        let spec = Conv2dSpec::valid(3, 3, 1, 1);
        let out = depthwise_conv2d(&x, &w, None, &spec);
        assert_eq!(out.dims(), &[1, 4, 3, 3]);
        // Output channel 3 = input channel 1 convolved with its filter 1.
        let mut acc = 0.0;
        for ki in 0..3 {
            for kj in 0..3 {
                acc += x.at(&[0, 1, ki, kj]) * w.at(&[1, 1, ki, kj]);
            }
        }
        assert!((out.at(&[0, 3, 0, 0]) - acc).abs() < 1e-5);
    }

    #[test]
    fn im2col_col2im_adjoint_property() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint identity.
        let spec = Conv2dSpec::same(5, 4, 3, 3, 1, 1);
        let x = random(&[2, 5, 4], 10);
        let cols = im2col(&x, &spec);
        let y = random(cols.dims(), 11);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, &spec, 2, 5, 4);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn conv_with_bias_adds_per_channel() {
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let w = Tensor::zeros(&[2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![0.5, -1.5], &[2]);
        let out = conv2d(&x, &w, Some(&b), &Conv2dSpec::valid(1, 1, 1, 1));
        assert!(out.data()[..9].iter().all(|&v| v == 0.5));
        assert!(out.data()[9..].iter().all(|&v| v == -1.5));
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv2d_validates_channels() {
        conv2d(
            &Tensor::zeros(&[1, 3, 4, 4]),
            &Tensor::zeros(&[2, 2, 3, 3]),
            None,
            &Conv2dSpec::valid(3, 3, 1, 1),
        );
    }
}
