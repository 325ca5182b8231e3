//! Post-training fixed-point quantization and the memory-footprint model
//! (§4 "Quantization of activations and remaining full-precision weights",
//! Table 6).
//!
//! The paper quantizes the pre-trained ST-HybridNet layer by layer (weights
//! and activations) following Qiu et al. / Zhang et al.: symmetric
//! fixed-point with a per-tensor range. Accuracy is evaluated *without*
//! retraining. This crate provides:
//!
//! * [`quantize_weights`] — fake-quantizes every full-precision parameter of
//!   a model in place (ternary matrices are already 2-bit and are skipped)
//! * [`ActivationProfile`] / [`activation_footprint_bytes`] — the paper's
//!   activation-memory rule: buffers are reused across layers, so the
//!   requirement is the **maximum over consecutive layer pairs** of
//!   (output activations of layer *i*) + (output activations of layer *i+1*)
//! * [`MemoryFootprint`] — model size + activation memory, the Table 6
//!   "total memory footprint" column
//! * [`CalibrationMethod`] / [`RangeObserver`] — the activation-range
//!   calibration pass behind the bit-sliced int8 engine mode: observe a
//!   calibration batch layer by layer, pick a per-layer clip (moving-max or
//!   percentile), and derive the symmetric int8 scale

use thnt_nn::Param;
use thnt_tensor::fake_quantize;

/// Size/precision of one layer's output activation buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivationProfile {
    /// Layer name (for reports).
    pub name: String,
    /// Elements in the activation tensor (per inference, batch 1).
    pub numel: usize,
    /// Storage bits per element (8 or 16 in the paper).
    pub bits: u32,
}

impl ActivationProfile {
    /// Creates a densely packed profile entry.
    pub fn new(name: impl Into<String>, numel: usize, bits: u32) -> Self {
        Self { name: name.into(), numel, bits }
    }

    /// Buffer size in bytes.
    pub fn bytes(&self) -> u64 {
        (self.numel as u64 * self.bits as u64).div_ceil(8)
    }
}

/// The paper's activation-memory rule: activation buffers are reused, so
/// the footprint is the maximum over consecutive layers of the two live
/// buffers (a layer's input is the previous layer's output).
///
/// The first entry should be the network input buffer.
pub fn activation_footprint_bytes(profiles: &[ActivationProfile]) -> u64 {
    if profiles.is_empty() {
        return 0;
    }
    if profiles.len() == 1 {
        return profiles[0].bytes();
    }
    profiles.windows(2).map(|w| w[0].bytes() + w[1].bytes()).max().unwrap_or(0)
}

/// Total inference memory: model weights + peak activation memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Model (weight) bytes.
    pub model_bytes: u64,
    /// Peak activation bytes per the reuse rule.
    pub activation_bytes: u64,
}

impl MemoryFootprint {
    /// Computes the footprint from a model size and activation profiles.
    pub fn new(model_bytes: u64, profiles: &[ActivationProfile]) -> Self {
        Self { model_bytes, activation_bytes: activation_footprint_bytes(profiles) }
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> u64 {
        self.model_bytes + self.activation_bytes
    }

    /// Total in the paper's KB (1 KB = 1024 bytes).
    pub fn total_kb(&self) -> f64 {
        self.total_bytes() as f64 / 1024.0
    }
}

/// How a [`RangeObserver`] turns the activation magnitudes it has seen into
/// a calibrated clip value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CalibrationMethod {
    /// Exponential moving average of per-observation max magnitudes:
    /// `running ← momentum·running + (1−momentum)·max|x|` (the first
    /// observation seeds `running` directly). `momentum = 0` keeps each
    /// observation's max outright; values near 1 converge to the typical
    /// per-sample peak, softly clipping one-off outliers.
    MovingMax {
        /// EMA momentum in `[0, 1)`.
        momentum: f32,
    },
    /// The `pct`-percentile of all observed magnitudes, from an
    /// order-independent integer histogram (256 exponent bins × 8 mantissa
    /// sub-bins): the clip is the upper edge of the first bin whose
    /// cumulative count reaches `pct`% of the observations. `pct = 100.0`
    /// covers everything (within one sub-bin, ≤ 12.5 % overestimate).
    Percentile {
        /// Coverage percentile in `(0, 100]`.
        pct: f32,
    },
}

impl CalibrationMethod {
    /// Moving-max with the given momentum.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= momentum < 1`.
    pub fn moving_max(momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1), got {momentum}");
        Self::MovingMax { momentum }
    }

    /// Percentile clipping at `pct` percent coverage.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < pct <= 100`.
    pub fn percentile(pct: f32) -> Self {
        assert!(pct > 0.0 && pct <= 100.0, "pct must be in (0, 100], got {pct}");
        Self::Percentile { pct }
    }
}

impl Default for CalibrationMethod {
    /// The engine default: moving-max with momentum 0.9.
    fn default() -> Self {
        Self::MovingMax { momentum: 0.9 }
    }
}

/// Histogram bins of [`RangeObserver`]: 256 exponent values × 8 mantissa
/// sub-bins, indexed by raw IEEE-754 bit fields — integer-only, so the
/// percentile is exactly order-independent.
const HIST_BINS: usize = 256 * 8;

/// Accumulates the magnitude distribution of one quantization point across
/// a calibration batch and derives the symmetric int8 scale.
///
/// Feed it one [`RangeObserver::observe`] call per calibration sample (the
/// granularity the moving-max momentum is defined over), then read
/// [`RangeObserver::scale`]. Zero and non-finite values are ignored — they
/// carry no range information.
///
/// # Examples
///
/// ```
/// use thnt_quant::{CalibrationMethod, RangeObserver};
///
/// let mut obs = RangeObserver::new(CalibrationMethod::percentile(100.0));
/// obs.observe(&[0.5, -2.0, 0.25]);
/// let scale = obs.scale();
/// assert!(scale >= 2.0 / 127.0); // the clip covers max |x|
/// ```
#[derive(Debug, Clone)]
pub struct RangeObserver {
    method: CalibrationMethod,
    /// Moving-max state; `None` until the first observation.
    running: Option<f32>,
    /// Percentile histogram (allocated lazily for `Percentile` only).
    hist: Vec<u64>,
    total: u64,
}

impl RangeObserver {
    /// A fresh observer for one quantization point.
    pub fn new(method: CalibrationMethod) -> Self {
        let hist = match method {
            CalibrationMethod::Percentile { .. } => vec![0; HIST_BINS],
            CalibrationMethod::MovingMax { .. } => Vec::new(),
        };
        Self { method, running: None, hist, total: 0 }
    }

    /// Folds one observation (typically one calibration sample's values at
    /// this quantization point) into the state.
    pub fn observe(&mut self, xs: &[f32]) {
        match self.method {
            CalibrationMethod::MovingMax { momentum } => {
                let batch_max =
                    xs.iter().map(|v| v.abs()).filter(|v| v.is_finite()).fold(0.0f32, f32::max);
                self.running = Some(match self.running {
                    None => batch_max,
                    Some(r) => momentum * r + (1.0 - momentum) * batch_max,
                });
            }
            CalibrationMethod::Percentile { .. } => {
                for &v in xs {
                    let a = v.abs();
                    if a > 0.0 && a.is_finite() {
                        self.hist[Self::bin_of(a)] += 1;
                        self.total += 1;
                    }
                }
            }
        }
    }

    /// Histogram bin of a positive finite magnitude: exponent byte × 8 +
    /// top 3 mantissa bits.
    fn bin_of(a: f32) -> usize {
        let bits = a.to_bits();
        (((bits >> 23) & 0xff) as usize) * 8 + (((bits >> 20) & 0x7) as usize)
    }

    /// Upper edge of histogram bin `bin` (the start of the next bin).
    fn bin_upper(bin: usize) -> f32 {
        let (exp, man) = ((bin / 8) as u32, (bin % 8) as u32);
        if man == 7 {
            f32::from_bits((exp + 1) << 23)
        } else {
            f32::from_bits((exp << 23) | ((man + 1) << 20))
        }
    }

    /// The calibrated clip magnitude. Zero if nothing (or only zeros) was
    /// observed.
    pub fn max_abs(&self) -> f32 {
        match self.method {
            CalibrationMethod::MovingMax { .. } => self.running.unwrap_or(0.0),
            CalibrationMethod::Percentile { pct } => {
                if self.total == 0 {
                    return 0.0;
                }
                let need = ((pct as f64 / 100.0 * self.total as f64).ceil() as u64).max(1);
                let mut seen = 0u64;
                for (bin, &count) in self.hist.iter().enumerate() {
                    seen += count;
                    if seen >= need {
                        return Self::bin_upper(bin);
                    }
                }
                Self::bin_upper(HIST_BINS - 1)
            }
        }
    }

    /// The symmetric int8 scale for the calibrated clip:
    /// `max_abs / 127` (1.0 when nothing was observed, so all-zero points
    /// still quantize losslessly).
    pub fn scale(&self) -> f32 {
        thnt_tensor::symmetric_scale(self.max_abs(), 8)
    }
}

/// Fake-quantizes every trainable full-precision parameter to `bits` bits
/// (symmetric, per-tensor range), in place. Frozen ternary matrices
/// (`trainable == false` with values in {−1, 0, 1}) are left untouched —
/// they are already 2-bit entities.
///
/// Returns the number of tensors quantized.
pub fn quantize_weights(params: Vec<&mut Param>, bits: u8) -> usize {
    let mut count = 0;
    for p in params {
        let ternary =
            !p.trainable && p.value.data().iter().all(|&v| v == -1.0 || v == 0.0 || v == 1.0);
        if ternary {
            continue;
        }
        p.value = fake_quantize(&p.value, bits);
        count += 1;
    }
    count
}

/// Per-tensor quantization report used by the table generators.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightQuantReport {
    /// Parameter name.
    pub name: String,
    /// RMS quantization error.
    pub rmse: f32,
    /// Parameter element count.
    pub numel: usize,
}

/// Measures (without applying) the quantization error of every parameter.
pub fn weight_quant_report(params: Vec<&Param>, bits: u8) -> Vec<WeightQuantReport> {
    params
        .into_iter()
        .map(|p| WeightQuantReport {
            name: p.name.clone(),
            rmse: thnt_tensor::quant_rmse(&p.value, bits),
            numel: p.numel(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use thnt_tensor::Tensor;

    #[test]
    fn footprint_is_max_adjacent_pair() {
        let profiles = vec![
            ActivationProfile::new("input", 490, 8),
            ActivationProfile::new("conv1", 8000, 8),
            ActivationProfile::new("ds1", 8000, 8),
            ActivationProfile::new("pool", 64, 8),
        ];
        // max pair = conv1 + ds1 = 16000 bytes.
        assert_eq!(activation_footprint_bytes(&profiles), 16_000);
    }

    #[test]
    fn sixteen_bit_buffers_double_footprint() {
        let p8 = vec![ActivationProfile::new("a", 1000, 8), ActivationProfile::new("b", 1000, 8)];
        let p16 =
            vec![ActivationProfile::new("a", 1000, 16), ActivationProfile::new("b", 1000, 16)];
        assert_eq!(activation_footprint_bytes(&p16), 2 * activation_footprint_bytes(&p8));
    }

    #[test]
    fn empty_and_single_profiles() {
        assert_eq!(activation_footprint_bytes(&[]), 0);
        assert_eq!(activation_footprint_bytes(&[ActivationProfile::new("only", 100, 8)]), 100);
    }

    #[test]
    fn quantize_weights_snaps_to_grid_and_skips_ternary() {
        let mut fp = Param::new("w", Tensor::from_vec(vec![0.111, -0.52, 0.93], &[3]));
        let mut tern = Param::new("t", Tensor::from_vec(vec![1.0, -1.0, 0.0], &[3]));
        tern.freeze();
        let before_tern = tern.value.clone();
        let n = quantize_weights(vec![&mut fp, &mut tern], 8);
        assert_eq!(n, 1);
        assert_eq!(tern.value.data(), before_tern.data());
        // fp is now on the 8-bit grid.
        let q = fake_quantize(&fp.value, 8);
        thnt_tensor::assert_close(fp.value.data(), q.data(), 1e-6, 0.0);
    }

    #[test]
    fn footprint_totals_add_up() {
        let fp = MemoryFootprint::new(
            10_790,
            &[ActivationProfile::new("a", 8000, 8), ActivationProfile::new("b", 8000, 8)],
        );
        assert_eq!(fp.total_bytes(), 10_790 + 16_000);
        assert!((fp.total_kb() - 26.16).abs() < 0.05);
    }

    #[test]
    fn calibration_is_deterministic() {
        let data: Vec<f32> = (0..500).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.013).collect();
        for method in [
            CalibrationMethod::moving_max(0.9),
            CalibrationMethod::moving_max(0.0),
            CalibrationMethod::percentile(99.0),
            CalibrationMethod::percentile(100.0),
        ] {
            let run = || {
                let mut obs = RangeObserver::new(method);
                for chunk in data.chunks(50) {
                    obs.observe(chunk);
                }
                obs.scale()
            };
            let (a, b) = (run(), run());
            assert_eq!(a.to_bits(), b.to_bits(), "{method:?} not bit-reproducible");
            assert!(a > 0.0);
        }
    }

    #[test]
    fn percentile_is_order_independent() {
        let data: Vec<f32> = (0..400).map(|i| ((i * 53 % 97) as f32 - 48.0) * 0.021).collect();
        let mut shuffled = data.clone();
        shuffled.reverse();
        shuffled.rotate_left(123);
        let scale_of = |xs: &[f32]| {
            let mut obs = RangeObserver::new(CalibrationMethod::percentile(99.5));
            for chunk in xs.chunks(17) {
                obs.observe(chunk);
            }
            obs.scale()
        };
        assert_eq!(scale_of(&data).to_bits(), scale_of(&shuffled).to_bits());
    }

    #[test]
    fn percentile_full_coverage_bounds_the_max() {
        let mut obs = RangeObserver::new(CalibrationMethod::percentile(100.0));
        obs.observe(&[0.1, -3.7, 2.2, 0.0, f32::NAN]);
        let clip = obs.max_abs();
        // Upper bin edge: covers the max, overestimates by at most one
        // mantissa sub-bin (12.5 %).
        assert!((3.7..=3.7 * 1.125).contains(&clip), "clip {clip}");
    }

    #[test]
    fn moving_max_blends_toward_recent_peaks() {
        let mut obs = RangeObserver::new(CalibrationMethod::moving_max(0.5));
        obs.observe(&[1.0]); // seeds running = 1
        obs.observe(&[3.0]); // 0.5·1 + 0.5·3 = 2
        assert!((obs.max_abs() - 2.0).abs() < 1e-6);
        assert!((obs.scale() - 2.0 / 127.0).abs() < 1e-6);
    }

    #[test]
    fn unobserved_points_quantize_losslessly() {
        for method in [CalibrationMethod::default(), CalibrationMethod::percentile(99.9)] {
            let obs = RangeObserver::new(method);
            assert_eq!(obs.max_abs(), 0.0);
            assert_eq!(obs.scale(), 1.0);
        }
    }

    #[test]
    fn report_lists_every_param() {
        let a = Param::new("a", Tensor::from_vec(vec![0.3, 0.4], &[2]));
        let b = Param::new("b", Tensor::from_vec(vec![0.5], &[1]));
        let rep = weight_quant_report(vec![&a, &b], 8);
        assert_eq!(rep.len(), 2);
        assert!(rep.iter().all(|r| r.rmse >= 0.0));
    }
}
