//! The serving-side model abstraction: [`InferenceBackend`].
//!
//! Training code mutates models ([`Model::forward`] takes `&mut self` so
//! layers can cache activations for backprop), but a deployed model is a
//! frozen function: logits out, no state touched. `InferenceBackend` is that
//! contract — an **immutable** `&self` forward plus the two cost numbers the
//! paper's deployment story revolves around (additions per inference, packed
//! model bytes) — so every serving consumer (the streaming detector, the
//! experiment drivers' test-set evaluations, the bench binaries) can swap
//! between the dense frozen path and the packed add-only engine without
//! caring which one it holds.
//!
//! Two implementations ship with the workspace:
//!
//! * [`DenseBackend`] (here) — adapts any trained [`Model`] through interior
//!   mutability, running the ordinary `forward(x, train=false)` path,
//! * `PackedStHybrid` (in `thnt-core`) — the bitplane-packed add-only
//!   engine, whose forward is already `&self`.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use thnt_tensor::Tensor;

use crate::loss::accuracy;
use crate::model::Model;
use crate::trainer::gather_rows;

/// A frozen model served for inference: immutable forward producing logits,
/// plus deployment-cost reporting.
///
/// Implementations must be deterministic: the same input always produces the
/// same logits (no training-mode randomness, no state updates).
pub trait InferenceBackend {
    /// Runs inference on a batch, returning logits `[n, num_classes]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::SeedableRng;
    /// use thnt_nn::{Dense, DenseBackend, InferenceBackend, LayerModel};
    /// use thnt_tensor::Tensor;
    ///
    /// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
    /// let mut model = LayerModel::new(Dense::new(4, 3, &mut rng));
    /// let backend = DenseBackend::new(&mut model, 3);
    /// // `&self` inference: consumers on one thread can share the backend.
    /// // It keeps the model in a `RefCell`, so it is not `Sync` and cannot
    /// // be shared across threads or server shards.
    /// let logits = backend.infer(&Tensor::zeros(&[2, 4]));
    /// assert_eq!(logits.dims(), &[2, backend.num_classes()]);
    /// ```
    fn infer(&self, x: &Tensor) -> Tensor;

    /// Width of the logits row — the model's class count. Consumers derive
    /// task shape (e.g. keyword-vs-filler splits) from this instead of
    /// hardcoding a dataset.
    fn num_classes(&self) -> usize;

    /// Additions/subtractions executed (or, for dense backends, analytically
    /// modelled) per input sample.
    fn adds_per_sample(&self) -> u64;

    /// Serialized model size in bytes for this backend's storage format.
    fn model_bytes(&self) -> usize;

    /// Short backend label for reports and benchmark rows.
    fn backend_name(&self) -> &'static str {
        "backend"
    }

    /// Batched multi-window inference with a bounded per-call batch: splits
    /// `x` along its leading (batch) dimension into chunks of at most
    /// `max_batch` samples, runs [`Self::infer`] on each, and reassembles
    /// the logits `[n, num_classes]`.
    ///
    /// This is the entry point a serving layer uses to push an arbitrary
    /// number of gathered windows through the model in one call while
    /// keeping per-call latency and scratch memory bounded. `max_batch` of
    /// `0` (or `>= n`) degenerates to a single [`Self::infer`] call.
    /// Because every implementation computes each batch row independently,
    /// chunking never changes any logit.
    ///
    /// # Panics
    ///
    /// Panics if `x` has no batch dimension or an implementation returns
    /// logits of the wrong shape.
    fn infer_chunked(&self, x: &Tensor, max_batch: usize) -> Tensor {
        let n = x.dims()[0];
        if max_batch == 0 || n <= max_batch {
            return self.infer(x);
        }
        let per = x.numel() / n;
        let classes = self.num_classes();
        let mut out = Tensor::zeros(&[n, classes]);
        let mut dims = x.dims().to_vec();
        let mut s = 0usize;
        while s < n {
            let e = (s + max_batch).min(n);
            dims[0] = e - s;
            let chunk = Tensor::from_vec(x.data()[s * per..e * per].to_vec(), &dims);
            let logits = self.infer(&chunk);
            assert_eq!(logits.dims(), &[e - s, classes], "backend logits shape mismatch");
            out.data_mut()[s * classes..e * classes].copy_from_slice(logits.data());
            s = e;
        }
        out
    }

    /// [`Self::infer_chunked`] with fault isolation: the serving entry point
    /// for backends that are not trusted to be healthy.
    ///
    /// Each bounded sub-batch runs under [`std::panic::catch_unwind`]. A
    /// call that panics or returns logits of the wrong shape does not take
    /// its batch down with it: the sub-batch degrades to row-at-a-time
    /// retries, so every healthy row recovers **exactly** the logits it
    /// would have produced in a fault-free batch (rows are computed
    /// independently of their batch neighbours — the contract the serving
    /// equivalence proptests enforce) and only genuinely faulty rows stay
    /// marked. Rows whose logits contain a non-finite value are marked
    /// faulted even when the call itself succeeded, so `NaN` never leaks
    /// into a posterior vote.
    ///
    /// This method never panics on a misbehaving backend; the trade-off is
    /// that a faulty batch costs up to `rows + 1` backend calls. Callers on
    /// a trusted path should keep using [`Self::infer_chunked`].
    ///
    /// The `AssertUnwindSafe` is justified by the trait contract: `infer`
    /// takes `&self` and must not leave observable state behind, so an
    /// unwound call has nothing consistent to corrupt.
    fn infer_isolated(&self, x: &Tensor, max_batch: usize) -> IsolatedBatch {
        let n = x.dims()[0];
        let per = x.numel() / n.max(1);
        let classes = self.num_classes();
        let mut logits = Tensor::from_vec(vec![f32::NAN; n * classes], &[n, classes]);
        let mut ok = vec![false; n];
        let mut faulted_calls = 0u64;
        let mut dims = x.dims().to_vec();
        // Runs rows [s, e) through the backend, demanding the advertised
        // logits shape; None on panic or shape mismatch.
        let mut infer_rows = |s: usize, e: usize| -> Option<Tensor> {
            dims[0] = e - s;
            let chunk = Tensor::from_vec(x.data()[s * per..e * per].to_vec(), &dims);
            let out = catch_unwind(AssertUnwindSafe(|| self.infer(&chunk))).ok()?;
            (out.dims() == [e - s, classes]).then_some(out)
        };
        let step = if max_batch == 0 { n.max(1) } else { max_batch };
        let mut s = 0usize;
        while s < n {
            let e = (s + step).min(n);
            match infer_rows(s, e) {
                Some(out) => {
                    logits.data_mut()[s * classes..e * classes].copy_from_slice(out.data());
                    ok[s..e].fill(true);
                }
                None if e - s == 1 => faulted_calls += 1,
                None => {
                    faulted_calls += 1;
                    for w in s..e {
                        match infer_rows(w, w + 1) {
                            Some(out) => {
                                logits.data_mut()[w * classes..(w + 1) * classes]
                                    .copy_from_slice(out.data());
                                ok[w] = true;
                            }
                            None => faulted_calls += 1,
                        }
                    }
                }
            }
            s = e;
        }
        for w in 0..n {
            if ok[w] && logits.row(w).iter().any(|v| !v.is_finite()) {
                ok[w] = false;
            }
        }
        IsolatedBatch { logits, ok, faulted_calls }
    }
}

/// Outcome of [`InferenceBackend::infer_isolated`]: batched logits plus a
/// per-row health verdict, so a serving layer can quarantine faulty windows
/// without losing the healthy ones that shared their batch.
#[derive(Debug, Clone)]
pub struct IsolatedBatch {
    /// Logits `[n, num_classes]`. Rows whose [`Self::ok`] flag is `false`
    /// hold `NaN` and must not be interpreted.
    pub logits: Tensor,
    /// `ok[i]` is `true` iff row `i`'s logits came from a backend call that
    /// neither panicked, nor returned the wrong shape, nor produced a
    /// non-finite value in that row.
    pub ok: Vec<bool>,
    /// Number of backend calls that misbehaved (panicked or returned
    /// wrong-shaped logits), including failed single-row retries.
    pub faulted_calls: u64,
}

impl IsolatedBatch {
    /// Number of rows whose logits are unusable.
    pub fn faulted_rows(&self) -> usize {
        self.ok.iter().filter(|&&ok| !ok).count()
    }
}

/// Adapts a trained [`Model`] into an [`InferenceBackend`]: the dense
/// forward path, served immutably.
///
/// [`Model::forward`] takes `&mut self` purely so training can cache; in
/// eval mode nothing observable changes, so the adapter wraps the exclusive
/// borrow in a [`RefCell`] and exposes `&self` inference. `model_bytes`
/// defaults to f32 parameter storage (4 bytes per scalar, from
/// [`Model::params`]); strassenified callers can override both cost numbers
/// with [`DenseBackend::with_cost`] to report their analytic budget instead.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use thnt_nn::{Dense, InferenceBackend, LayerModel, DenseBackend};
/// use thnt_tensor::Tensor;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let mut model = LayerModel::new(Dense::new(4, 3, &mut rng));
/// let backend = DenseBackend::new(&mut model, 3);
/// let logits = backend.infer(&Tensor::zeros(&[2, 4]));
/// assert_eq!(logits.dims(), &[2, 3]);
/// assert_eq!(backend.model_bytes(), (4 * 3 + 3) * 4);
/// ```
pub struct DenseBackend<'m, M: Model + ?Sized> {
    model: RefCell<&'m mut M>,
    num_classes: usize,
    adds_per_sample: u64,
    model_bytes: usize,
}

impl<'m, M: Model + ?Sized> DenseBackend<'m, M> {
    /// Wraps `model`. `num_classes` is the logits width the model produces.
    pub fn new(model: &'m mut M, num_classes: usize) -> Self {
        let model_bytes = model.params().iter().map(|p| p.numel() * 4).sum();
        Self { model: RefCell::new(model), num_classes, adds_per_sample: 0, model_bytes }
    }

    /// Overrides the reported cost numbers (e.g. with a strassenified
    /// model's analytic addition budget and 2-bit-packed size).
    pub fn with_cost(mut self, adds_per_sample: u64, model_bytes: usize) -> Self {
        self.adds_per_sample = adds_per_sample;
        self.model_bytes = model_bytes;
        self
    }
}

impl<M: Model + ?Sized> InferenceBackend for DenseBackend<'_, M> {
    fn infer(&self, x: &Tensor) -> Tensor {
        self.model.borrow_mut().forward(x, false)
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn adds_per_sample(&self) -> u64 {
        self.adds_per_sample
    }

    fn model_bytes(&self) -> usize {
        self.model_bytes
    }

    fn backend_name(&self) -> &'static str {
        "dense"
    }
}

impl<M: Model + ?Sized> std::fmt::Debug for DenseBackend<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DenseBackend")
            .field("num_classes", &self.num_classes)
            .field("model_bytes", &self.model_bytes)
            .finish()
    }
}

/// Top-1 accuracy of `backend` over a labelled set, batched — the
/// serving-path counterpart of [`crate::evaluate`] and bit-identical to it
/// for a [`DenseBackend`] over the same model.
pub fn evaluate_backend<B: InferenceBackend + ?Sized>(
    backend: &B,
    x: &Tensor,
    y: &[usize],
    batch_size: usize,
) -> f32 {
    let n = y.len();
    if n == 0 {
        return 0.0;
    }
    let mut correct = 0.0f32;
    let idx: Vec<usize> = (0..n).collect();
    for chunk in idx.chunks(batch_size.max(1)) {
        let bx = gather_rows(x, chunk);
        let by: Vec<usize> = chunk.iter().map(|&i| y[i]).collect();
        let logits = backend.infer(&bx);
        correct += accuracy(&logits, &by) * by.len() as f32;
    }
    correct / n as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Dense;
    use crate::model::LayerModel;
    use crate::trainer::evaluate;
    use rand::SeedableRng;

    #[test]
    fn dense_backend_matches_eval_forward() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
        let mut model = LayerModel::new(Dense::new(6, 4, &mut rng));
        let x = thnt_tensor::gaussian(&[3, 6], 0.0, 1.0, &mut rng);
        let want = model.forward(&x, false);
        let backend = DenseBackend::new(&mut model, 4);
        let got = backend.infer(&x);
        assert_eq!(got.data(), want.data());
        assert_eq!(backend.num_classes(), 4);
        assert_eq!(backend.backend_name(), "dense");
    }

    #[test]
    fn with_cost_overrides_reporting() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let mut model = LayerModel::new(Dense::new(2, 2, &mut rng));
        let backend = DenseBackend::new(&mut model, 2).with_cost(123, 456);
        assert_eq!(backend.adds_per_sample(), 123);
        assert_eq!(backend.model_bytes(), 456);
    }

    #[test]
    fn infer_chunked_matches_one_shot() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let mut model = LayerModel::new(Dense::new(6, 4, &mut rng));
        let x = thnt_tensor::gaussian(&[7, 6], 0.0, 1.0, &mut rng);
        let backend = DenseBackend::new(&mut model, 4);
        let want = backend.infer(&x);
        for max_batch in [0, 1, 2, 3, 7, 100] {
            let got = backend.infer_chunked(&x, max_batch);
            assert_eq!(got.dims(), want.dims(), "max_batch={max_batch}");
            assert_eq!(got.data(), want.data(), "max_batch={max_batch}");
        }
    }

    #[test]
    fn evaluate_backend_matches_evaluate() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
        let mut model = LayerModel::new(Dense::new(5, 3, &mut rng));
        let x = thnt_tensor::gaussian(&[11, 5], 0.0, 1.0, &mut rng);
        let y: Vec<usize> = (0..11).map(|i| i % 3).collect();
        let want = evaluate(&mut model, &x, &y, 4);
        let got = evaluate_backend(&DenseBackend::new(&mut model, 3), &x, &y, 4);
        assert_eq!(got, want);
    }
}
