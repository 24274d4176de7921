//! Differentiable layers.
//!
//! Each layer caches whatever it needs during `forward` and consumes the
//! cache in `backward`, accumulating parameter gradients internally. Layers
//! are cloneable so an entire network can be duplicated to form a DDQN
//! target network.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::kernels::{self, Shape};
use crate::tensor::Tensor;

/// A differentiable network layer.
///
/// Call order is `forward` then `backward`; `backward` consumes state cached
/// by the preceding `forward` call.
pub trait Layer: Send + Sync {
    /// Runs the layer on `input`, caching activations when `train` is true.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Inference-only forward pass through `&self`: no activation caching,
    /// no interior mutation. Numerically identical to `forward(input, false)`
    /// for every layer, which lets many threads share one frozen network —
    /// the contract the parallel encode path in `msvs-core` relies on.
    fn infer(&self, input: &Tensor) -> Tensor;

    /// Allocation-free inference: reads `input` (flat, row-major, laid
    /// out per `shape`), writes the result into `out`, and returns the
    /// output shape. `patch` is kernel workspace (im2col) owned by the
    /// caller's [`crate::kernels::Scratch`] arena. Bit-identical to
    /// [`Layer::infer`]; the default implementation round-trips through
    /// it for layers without a bespoke kernel.
    fn infer_into(
        &self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        patch: &mut Vec<f32>,
    ) -> Shape {
        let _ = patch;
        let x = Tensor::from_vec(input.to_vec(), shape.to_vec()).expect("shape matches input");
        let y = self.infer(&x);
        let out_shape = Shape::from_dims(y.shape());
        out.clear();
        out.extend_from_slice(y.data());
        out_shape
    }

    /// Backpropagates `grad_out`, accumulating parameter gradients and
    /// returning the gradient with respect to the layer input.
    ///
    /// # Panics
    /// Panics if called without a preceding training-mode `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Zeroes accumulated parameter gradients.
    fn zero_grad(&mut self);

    /// Visits `(value, grad)` pairs for every trainable parameter, in a
    /// stable order (used by optimizers to address per-parameter state).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor));

    /// Clones the layer into a boxed trait object (target-network support).
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

fn he_init(rng: &mut StdRng, fan_in: usize, n: usize) -> Vec<f32> {
    let std = (2.0 / fan_in as f64).sqrt();
    (0..n)
        .map(|_| (msvs_types::stats::standard_normal(rng) * std) as f32)
        .collect()
}

/// Fully-connected layer: `y = x W^T + b`, input `[batch, in]`, output
/// `[batch, out]`.
///
/// Keeps a cached transpose `weight_t` (`[in, out]`) so inference runs
/// the cache-blocked GEMM without materialising a transpose per call.
/// The cache is refreshed by the single
/// `Dense::refresh_weight_layout` hook, called from the only two
/// weight-mutation sites — [`Dense::set_weights`] and
/// [`Layer::visit_params`] (the optimiser's write path; the fields are
/// private, so nothing else can touch the weights).
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Tensor,   // [out, in]
    weight_t: Tensor, // [in, out], always == weight.transpose()
    bias: Tensor,     // [out]
    w_grad: Tensor,
    b_grad: Tensor,
    input: Option<Tensor>,
}

impl Dense {
    /// Builds a dense layer with He-initialised weights.
    ///
    /// # Panics
    /// Panics if `in_dim` or `out_dim` is zero.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "dense dims must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let weight = Tensor::from_vec(
            he_init(&mut rng, in_dim, in_dim * out_dim),
            vec![out_dim, in_dim],
        )
        .expect("init length matches");
        let mut layer = Self {
            w_grad: Tensor::zeros(vec![out_dim, in_dim]),
            b_grad: Tensor::zeros(vec![out_dim]),
            bias: Tensor::zeros(vec![out_dim]),
            weight_t: Tensor::zeros(vec![in_dim, out_dim]),
            weight: Tensor::zeros(vec![out_dim, in_dim]),
            input: None,
        };
        layer.set_weights(weight);
        layer
    }

    /// Replaces the weight matrix (`[out, in]`) and refreshes every
    /// derived layout — the single public weight-write entry point, so
    /// inference can rely on `Dense::refresh_weight_layout` running
    /// after every mutation.
    ///
    /// # Panics
    /// Panics if `weight`'s shape differs from the current `[out, in]`.
    pub fn set_weights(&mut self, weight: Tensor) {
        assert_eq!(
            weight.shape(),
            self.weight.shape(),
            "dense weight shape mismatch"
        );
        self.weight = weight;
        self.refresh_weight_layout();
    }

    /// Re-derives the cached transpose from `weight`, rewriting
    /// `weight_t` in place (no allocation). Every weight-mutation site
    /// funnels through here.
    fn refresh_weight_layout(&mut self) {
        let (out_dim, in_dim) = (self.weight.shape()[0], self.weight.shape()[1]);
        let w = self.weight.data();
        let wt = self.weight_t.data_mut();
        for o in 0..out_dim {
            for p in 0..in_dim {
                wt[p * out_dim + o] = w[o * in_dim + p];
            }
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.shape()[1]
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.shape()[0]
    }

    fn compute(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.shape().len(), 2, "dense expects [batch, features]");
        assert_eq!(
            input.shape()[1],
            self.in_dim(),
            "dense input width mismatch"
        );
        let batch = input.shape()[0];
        let mut out = Tensor::zeros(vec![batch, self.out_dim()]);
        kernels::dense_infer(
            input.data(),
            self.weight_t.data(),
            self.bias.data(),
            out.data_mut(),
            batch,
            self.in_dim(),
            self.out_dim(),
        );
        out
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.input = Some(input.clone());
        }
        self.compute(input)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        self.compute(input)
    }

    fn infer_into(
        &self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        _patch: &mut Vec<f32>,
    ) -> Shape {
        assert_eq!(shape.rank(), 2, "dense expects [batch, features]");
        assert_eq!(shape.dims()[1], self.in_dim(), "dense input width mismatch");
        let batch = shape.dims()[0];
        out.clear();
        out.resize(batch * self.out_dim(), 0.0);
        kernels::dense_infer(
            input,
            self.weight_t.data(),
            self.bias.data(),
            out,
            batch,
            self.in_dim(),
            self.out_dim(),
        );
        Shape::rank2(batch, self.out_dim())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .input
            .take()
            .expect("backward requires a training-mode forward");
        // dW = grad_out^T x input ; db = column sums ; dx = grad_out x W
        let dw = grad_out.transpose().matmul(&input);
        self.w_grad.axpy(1.0, &dw);
        let batch = grad_out.shape()[0];
        for b in 0..batch {
            for o in 0..self.out_dim() {
                self.b_grad.data_mut()[o] += grad_out.get2(b, o);
            }
        }
        grad_out.matmul(&self.weight)
    }

    fn zero_grad(&mut self) {
        self.w_grad.fill(0.0);
        self.b_grad.fill(0.0);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.w_grad);
        f(&mut self.bias, &mut self.b_grad);
        // The visitor may have stepped the weights in place (so there is
        // no tensor to hand `set_weights`); run the same refresh hook.
        self.refresh_weight_layout();
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// 1-D convolution over `[batch, channels, length]` (valid padding).
///
/// This is the workhorse of the paper's UDT time-series compressor.
#[derive(Debug, Clone)]
pub struct Conv1d {
    weight: Tensor, // [out_ch, in_ch, kernel]
    bias: Tensor,   // [out_ch]
    w_grad: Tensor,
    b_grad: Tensor,
    stride: usize,
    input: Option<Tensor>,
}

impl Conv1d {
    /// Builds a 1-D convolution with He-initialised kernels.
    ///
    /// # Panics
    /// Panics if any dimension or the stride is zero.
    pub fn new(in_ch: usize, out_ch: usize, kernel: usize, stride: usize, seed: u64) -> Self {
        assert!(
            in_ch > 0 && out_ch > 0 && kernel > 0 && stride > 0,
            "conv1d parameters must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let n = out_ch * in_ch * kernel;
        let weight = Tensor::from_vec(
            he_init(&mut rng, in_ch * kernel, n),
            vec![out_ch, in_ch, kernel],
        )
        .expect("init length matches");
        Self {
            w_grad: Tensor::zeros(vec![out_ch, in_ch, kernel]),
            b_grad: Tensor::zeros(vec![out_ch]),
            bias: Tensor::zeros(vec![out_ch]),
            weight,
            stride,
            input: None,
        }
    }

    /// Output length for a given input length, or `None` if the input is
    /// shorter than the kernel.
    pub fn out_len(&self, in_len: usize) -> Option<usize> {
        let kernel = self.weight.shape()[2];
        in_len.checked_sub(kernel).map(|d| d / self.stride + 1)
    }

    fn dims(&self) -> (usize, usize, usize) {
        let s = self.weight.shape();
        (s[0], s[1], s[2])
    }

    fn compute(&self, input: &Tensor) -> Tensor {
        let mut patch = Vec::new();
        let mut out = Vec::new();
        let shape = self.infer_into(
            input.data(),
            Shape::from_dims(input.shape()),
            &mut out,
            &mut patch,
        );
        Tensor::from_vec(out, shape.to_vec()).expect("kernel output matches shape")
    }
}

impl Layer for Conv1d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.input = Some(input.clone());
        }
        self.compute(input)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        self.compute(input)
    }

    fn infer_into(
        &self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        patch: &mut Vec<f32>,
    ) -> Shape {
        assert_eq!(shape.rank(), 3, "conv1d expects [batch, ch, len]");
        let (out_ch, in_ch, kernel) = self.dims();
        assert_eq!(shape.dims()[1], in_ch, "conv1d channel mismatch");
        let batch = shape.dims()[0];
        let in_len = shape.dims()[2];
        let out_len = self
            .out_len(in_len)
            .unwrap_or_else(|| panic!("input length {in_len} shorter than kernel {kernel}"));
        out.clear();
        out.resize(batch * out_ch * out_len, 0.0);
        kernels::conv1d_infer(
            input,
            self.weight.data(),
            self.bias.data(),
            out,
            patch,
            batch,
            in_ch,
            in_len,
            out_ch,
            kernel,
            self.stride,
            out_len,
        );
        Shape::rank3(batch, out_ch, out_len)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .input
            .take()
            .expect("backward requires a training-mode forward");
        let (out_ch, in_ch, kernel) = self.dims();
        let batch = input.shape()[0];
        let in_len = input.shape()[2];
        let out_len = grad_out.shape()[2];
        let mut grad_in = Tensor::zeros(vec![batch, in_ch, in_len]);
        for b in 0..batch {
            for oc in 0..out_ch {
                for t in 0..out_len {
                    let g = grad_out.get3(b, oc, t);
                    if g == 0.0 {
                        continue;
                    }
                    let start = t * self.stride;
                    self.b_grad.data_mut()[oc] += g;
                    for ic in 0..in_ch {
                        for k in 0..kernel {
                            self.w_grad
                                .add3(oc, ic, k, g * input.get3(b, ic, start + k));
                            grad_in.add3(b, ic, start + k, g * self.weight.get3(oc, ic, k));
                        }
                    }
                }
            }
        }
        grad_in
    }

    fn zero_grad(&mut self) {
        self.w_grad.fill(0.0);
        self.b_grad.fill(0.0);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.w_grad);
        f(&mut self.bias, &mut self.b_grad);
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Rectified linear unit, elementwise.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Builds a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut out = input.clone();
        let mut mask = Vec::new();
        if train {
            mask.reserve(out.len());
        }
        for v in out.data_mut() {
            let on = *v > 0.0;
            if !on {
                *v = 0.0;
            }
            if train {
                mask.push(on);
            }
        }
        if train {
            self.mask = Some(mask);
        }
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let mut out = input.clone();
        for v in out.data_mut() {
            if *v <= 0.0 {
                *v = 0.0;
            }
        }
        out
    }

    fn infer_into(
        &self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        _patch: &mut Vec<f32>,
    ) -> Shape {
        out.clear();
        // `v <= 0.0` (not `max`) so NaN propagates.
        out.extend(input.iter().map(|&v| if v <= 0.0 { 0.0 } else { v }));
        shape
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self
            .mask
            .take()
            .expect("backward requires a training-mode forward");
        let mut grad = grad_out.clone();
        for (g, on) in grad.data_mut().iter_mut().zip(mask) {
            if !on {
                *g = 0.0;
            }
        }
        grad
    }

    fn zero_grad(&mut self) {}

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Hyperbolic tangent, elementwise.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    output: Option<Tensor>,
}

impl Tanh {
    /// Builds a tanh activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Tanh {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut out = input.clone();
        for v in out.data_mut() {
            *v = v.tanh();
        }
        if train {
            self.output = Some(out.clone());
        }
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let mut out = input.clone();
        for v in out.data_mut() {
            *v = v.tanh();
        }
        out
    }

    fn infer_into(
        &self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        _patch: &mut Vec<f32>,
    ) -> Shape {
        out.clear();
        out.extend(input.iter().map(|v| v.tanh()));
        shape
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let out = self
            .output
            .take()
            .expect("backward requires a training-mode forward");
        let mut grad = grad_out.clone();
        for (g, y) in grad.data_mut().iter_mut().zip(out.data()) {
            *g *= 1.0 - y * y;
        }
        grad
    }

    fn zero_grad(&mut self) {}

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Max pooling over the time axis of `[batch, ch, len]`.
#[derive(Debug, Clone)]
pub struct MaxPool1d {
    window: usize,
    argmax: Option<(Vec<usize>, Vec<usize>)>, // (input shape stash via vec, indices)
}

impl MaxPool1d {
    /// Builds a max pool with the given window (also used as stride).
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "pool window must be positive");
        Self {
            window,
            argmax: None,
        }
    }

    /// Output length for a given input length.
    pub fn out_len(&self, in_len: usize) -> usize {
        in_len / self.window
    }
}

impl Layer for MaxPool1d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.shape().len(), 3, "maxpool expects [batch, ch, len]");
        let (batch, ch, in_len) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let out_len = self.out_len(in_len);
        assert!(out_len > 0, "input length {in_len} shorter than window");
        let mut out = Tensor::zeros(vec![batch, ch, out_len]);
        let mut indices = Vec::with_capacity(batch * ch * out_len);
        for b in 0..batch {
            for c in 0..ch {
                for t in 0..out_len {
                    let start = t * self.window;
                    let (mut best_i, mut best_v) = (start, input.get3(b, c, start));
                    for k in 1..self.window {
                        let v = input.get3(b, c, start + k);
                        if v > best_v {
                            best_v = v;
                            best_i = start + k;
                        }
                    }
                    out.set3(b, c, t, best_v);
                    indices.push(best_i);
                }
            }
        }
        if train {
            self.argmax = Some((input.shape().to_vec(), indices));
        }
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.shape().len(), 3, "maxpool expects [batch, ch, len]");
        let (batch, ch, in_len) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let out_len = self.out_len(in_len);
        assert!(out_len > 0, "input length {in_len} shorter than window");
        let mut out = Tensor::zeros(vec![batch, ch, out_len]);
        for b in 0..batch {
            for c in 0..ch {
                for t in 0..out_len {
                    let start = t * self.window;
                    let mut best = input.get3(b, c, start);
                    for k in 1..self.window {
                        best = best.max(input.get3(b, c, start + k));
                    }
                    out.set3(b, c, t, best);
                }
            }
        }
        out
    }

    fn infer_into(
        &self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        _patch: &mut Vec<f32>,
    ) -> Shape {
        assert_eq!(shape.rank(), 3, "maxpool expects [batch, ch, len]");
        let (batch, ch, in_len) = (shape.dims()[0], shape.dims()[1], shape.dims()[2]);
        let out_len = self.out_len(in_len);
        assert!(out_len > 0, "input length {in_len} shorter than window");
        out.clear();
        for bc in 0..batch * ch {
            let row = &input[bc * in_len..(bc + 1) * in_len];
            for t in 0..out_len {
                let start = t * self.window;
                let mut best = row[start];
                for k in 1..self.window {
                    best = best.max(row[start + k]);
                }
                out.push(best);
            }
        }
        Shape::rank3(batch, ch, out_len)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (in_shape, indices) = self
            .argmax
            .take()
            .expect("backward requires a training-mode forward");
        let mut grad_in = Tensor::zeros(in_shape);
        let (batch, ch, out_len) = (
            grad_out.shape()[0],
            grad_out.shape()[1],
            grad_out.shape()[2],
        );
        let mut idx = 0;
        for b in 0..batch {
            for c in 0..ch {
                for t in 0..out_len {
                    grad_in.add3(b, c, indices[idx], grad_out.get3(b, c, t));
                    idx += 1;
                }
            }
        }
        grad_in
    }

    fn zero_grad(&mut self) {}

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Flattens `[batch, ...]` to `[batch, prod(...)]`.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    in_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Builds a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let batch = input.shape()[0];
        let rest: usize = input.shape()[1..].iter().product();
        if train {
            self.in_shape = Some(input.shape().to_vec());
        }
        input
            .clone()
            .reshape(vec![batch, rest])
            .expect("flatten preserves element count")
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let batch = input.shape()[0];
        let rest: usize = input.shape()[1..].iter().product();
        input
            .clone()
            .reshape(vec![batch, rest])
            .expect("flatten preserves element count")
    }

    fn infer_into(
        &self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        _patch: &mut Vec<f32>,
    ) -> Shape {
        let batch = shape.dims()[0];
        let rest: usize = shape.dims()[1..].iter().product();
        out.clear();
        out.extend_from_slice(input);
        Shape::rank2(batch, rest)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .in_shape
            .take()
            .expect("backward requires a training-mode forward");
        grad_out
            .clone()
            .reshape(shape)
            .expect("unflatten preserves element count")
    }

    fn zero_grad(&mut self) {}

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central-difference numerical gradient check for a layer's input
    /// gradient and parameter gradients.
    fn check_gradients(layer: &mut dyn Layer, input: Tensor, tol: f32) {
        let eps = 1e-3_f32;
        // Loss = sum of outputs; dL/dout = ones.
        let out = layer.forward(&input, true);
        let ones = {
            let mut t = out.clone();
            t.fill(1.0);
            t
        };
        layer.zero_grad();
        let analytic_in = layer.backward(&ones);

        // Input gradient.
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let f_plus: f32 = layer.forward(&plus, false).data().iter().sum();
            let f_minus: f32 = layer.forward(&minus, false).data().iter().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let analytic = analytic_in.data()[i];
            assert!(
                (numeric - analytic).abs() < tol,
                "input grad {i}: numeric {numeric} vs analytic {analytic}"
            );
        }

        // Parameter gradients: capture analytic grads first.
        let mut analytic_params: Vec<Vec<f32>> = Vec::new();
        layer.visit_params(&mut |_v, g| analytic_params.push(g.data().to_vec()));
        for (pi, analytic) in analytic_params.iter().enumerate() {
            for (i, &analytic_i) in analytic.iter().enumerate() {
                let bump = |delta: f32, layer: &mut dyn Layer| {
                    let mut pj = 0;
                    layer.visit_params(&mut |v, _g| {
                        if pj == pi {
                            v.data_mut()[i] += delta;
                        }
                        pj += 1;
                    });
                };
                bump(eps, layer);
                let f_plus: f32 = layer.forward(&input, false).data().iter().sum();
                bump(-2.0 * eps, layer);
                let f_minus: f32 = layer.forward(&input, false).data().iter().sum();
                bump(eps, layer);
                let numeric = (f_plus - f_minus) / (2.0 * eps);
                assert!(
                    (numeric - analytic_i).abs() < tol,
                    "param {pi} grad {i}: numeric {numeric} vs analytic {analytic_i}"
                );
            }
        }
    }

    #[test]
    fn dense_gradients_match_numeric() {
        let mut layer = Dense::new(3, 2, 11);
        let input = Tensor::from_vec(vec![0.5, -0.2, 0.8, 1.0, 0.3, -0.7], vec![2, 3]).unwrap();
        check_gradients(&mut layer, input, 2e-2);
    }

    #[test]
    fn conv1d_gradients_match_numeric() {
        let mut layer = Conv1d::new(2, 3, 3, 2, 13);
        let input = Tensor::from_vec(
            (0..2 * 2 * 9)
                .map(|i| ((i * 7) % 5) as f32 * 0.2 - 0.4)
                .collect(),
            vec![2, 2, 9],
        )
        .unwrap();
        check_gradients(&mut layer, input, 3e-2);
    }

    #[test]
    fn relu_masks_negative() {
        let mut relu = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 2.0, 0.0]);
        let y = relu.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0]);
        let g = relu.backward(&Tensor::from_slice(&[5.0, 5.0, 5.0]));
        assert_eq!(g.data(), &[0.0, 5.0, 0.0]);
    }

    #[test]
    fn tanh_gradient_matches_numeric() {
        let mut layer = Tanh::new();
        let input = Tensor::from_vec(vec![0.3, -0.9, 1.2, 0.0], vec![2, 2]).unwrap();
        check_gradients(&mut layer, input, 1e-2);
    }

    #[test]
    fn maxpool_selects_max_and_routes_grad() {
        let mut pool = MaxPool1d::new(2);
        let x = Tensor::from_vec(vec![1.0, 3.0, 2.0, 0.0], vec![1, 1, 4]).unwrap();
        let y = pool.forward(&x, true);
        assert_eq!(y.data(), &[3.0, 2.0]);
        let g = pool.backward(&Tensor::from_vec(vec![10.0, 20.0], vec![1, 1, 2]).unwrap());
        assert_eq!(g.data(), &[0.0, 10.0, 20.0, 0.0]);
    }

    #[test]
    fn flatten_round_trips() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(vec![2, 3, 4]);
        let y = f.forward(&x, true);
        assert_eq!(y.shape(), &[2, 12]);
        let g = f.backward(&y);
        assert_eq!(g.shape(), &[2, 3, 4]);
    }

    #[test]
    fn conv_out_len() {
        let c = Conv1d::new(1, 1, 3, 2, 1);
        assert_eq!(c.out_len(9), Some(4));
        assert_eq!(c.out_len(3), Some(1));
        assert_eq!(c.out_len(2), None);
    }

    #[test]
    fn dense_rejects_wrong_width() {
        let mut d = Dense::new(4, 2, 3);
        let x = Tensor::zeros(vec![1, 3]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.forward(&x, false);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn set_weights_refreshes_transpose() {
        let mut d = Dense::new(2, 2, 5);
        let x = Tensor::from_vec(vec![1.0, -1.0], vec![1, 2]).unwrap();
        let (mut out, mut patch) = (Vec::new(), Vec::new());
        let shape = Shape::rank2(1, 2);
        d.infer_into(x.data(), shape, &mut out, &mut patch);
        // A weight write must refresh the transpose the kernels read.
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]).unwrap();
        d.set_weights(w);
        assert_eq!(d.weight_t.data(), &[1.0, 3.0, 2.0, 4.0], "transpose synced");
        // y = x W^T + b with b = 0: [1*1 + (-1)*2, 1*3 + (-1)*4].
        let y = d.infer(&x);
        assert_eq!(y.data(), &[-1.0, -1.0]);
        d.infer_into(x.data(), shape, &mut out, &mut patch);
        assert_eq!(out, [-1.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "dense weight shape mismatch")]
    fn set_weights_rejects_wrong_shape() {
        let mut d = Dense::new(2, 2, 5);
        d.set_weights(Tensor::zeros(vec![3, 2]));
    }

    #[test]
    fn boxed_layer_clone_is_deep() {
        let layer: Box<dyn Layer> = Box::new(Dense::new(2, 2, 5));
        let mut a = layer.clone();
        let mut b = layer.clone();
        let x = Tensor::zeros(vec![1, 2]);
        // Mutate a's params; b must be unaffected.
        a.visit_params(&mut |v, _| v.fill(0.0));
        let ya = a.forward(&x, false);
        let yb = b.forward(&x, false);
        assert_eq!(ya.data(), &[0.0, 0.0]);
        assert_eq!(yb.data(), ya.data(), "zero input -> bias only (zeros)");
    }
}
