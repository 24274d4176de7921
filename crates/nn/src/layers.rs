//! Differentiable layers.
//!
//! Layers hold parameters and their accumulated gradients, never
//! activations: [`crate::Sequential`] keeps each layer's input and kernel
//! workspace from a training forward pass and hands them back to the
//! backward methods. The forward and backward methods take `&self` and
//! work on any block of batch rows, so the pooled training pass can share
//! one layer among workers: rows for the forward pass and the input
//! gradient, output units for the parameter gradients. Layers are
//! cloneable so an entire network can be duplicated to form a DDQN target
//! network.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::kernels::{self, Shape};
use crate::tensor::Tensor;

/// One block of batch rows of a layer's training pass, as its parameter
/// gradients read it.
#[derive(Debug, Clone, Copy)]
pub struct TapeRows<'a> {
    /// The layer's input rows, laid out per `shape`.
    pub input: &'a [f32],
    /// The shape of `input`; its first dim is the block's row count.
    pub shape: Shape,
    /// The workspace the layer's forward pass over these rows left behind
    /// (see [`Layer::infer_into`]).
    pub work: &'a [f32],
    /// The loss gradient with respect to the layer's output rows.
    pub grad_out: &'a [f32],
}

/// A differentiable network layer.
pub trait Layer: Send + Sync {
    /// The layer's one forward computation: reads `input` (flat,
    /// row-major, laid out per `shape`), writes the result into `out` and
    /// returns the output shape. `patch` is kernel workspace (see
    /// [`crate::kernels::conv1d_infer`]) owned by the caller's
    /// [`crate::kernels::Scratch`] arena, or kept per layer by a training
    /// pass for [`Layer::unit_grads`]. Takes `&self`, so many threads can
    /// share one frozen network.
    fn infer_into(
        &self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        patch: &mut Vec<f32>,
    ) -> Shape;

    /// Writes into `grad_in` the gradient with respect to `input` (laid
    /// out per `shape`) of a block of rows whose output gradient is
    /// `grad_out`. Each row's result depends on that row alone.
    fn input_grad(&self, input: &[f32], shape: Shape, grad_out: &[f32], grad_in: &mut Vec<f32>);

    /// The number of parameter-gradient units: a dense layer's outputs or
    /// a convolution's output channels, each one row of the weight
    /// gradient plus one bias gradient, summed over the batch apart from
    /// every other unit. 0 for a layer without parameters.
    fn units(&self) -> usize {
        0
    }

    /// Accumulates the batch's parameter gradients of `units` onto the
    /// layer's current ones and returns the result: the weight-gradient
    /// rows and bias gradients of those units, for the caller to store
    /// through [`Layer::grads_mut`]. `rows` is the whole batch in row
    /// order, as blocks. No sum reads another unit, so splitting the
    /// units among workers leaves every bit as one call over all of them.
    fn unit_grads(&self, _rows: &[TapeRows<'_>], _units: Range<usize>) -> (Vec<f32>, Vec<f32>) {
        (Vec::new(), Vec::new())
    }

    /// Accumulates the whole batch's parameter gradients in place: the
    /// sums of [`Layer::unit_grads`] over every unit, bit for bit, with no
    /// copy of the current gradients. What a training pass of one row
    /// block runs on the caller's thread.
    fn accumulate_grads(&mut self, _rows: &[TapeRows<'_>]) {}

    /// The accumulated weight and bias gradients, one row per unit; both
    /// empty for a layer without parameters.
    fn grads_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut [], &mut [])
    }

    /// Visits `(value, grad)` pairs for every trainable parameter, in a
    /// stable order (used by the optimizer to address per-parameter state).
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

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
    weight_t: Tensor, // [in, out], always the transpose of `weight`
    bias: Tensor,     // [out]
    w_grad: Tensor,
    b_grad: Tensor,
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
}

impl Layer for Dense {
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

    fn input_grad(&self, _input: &[f32], shape: Shape, grad_out: &[f32], grad_in: &mut Vec<f32>) {
        // dx = grad_out x W
        let batch = shape.dims()[0];
        grad_in.resize(batch * self.in_dim(), 0.0);
        kernels::gemm_zero_skip(
            grad_out,
            self.weight.data(),
            grad_in,
            batch,
            self.out_dim(),
            self.in_dim(),
        );
    }

    fn units(&self) -> usize {
        self.out_dim()
    }

    fn unit_grads(&self, rows: &[TapeRows<'_>], units: Range<usize>) -> (Vec<f32>, Vec<f32>) {
        let in_dim = self.in_dim();
        let mut w = self.w_grad.data()[units.start * in_dim..units.end * in_dim].to_vec();
        let mut b = self.b_grad.data()[units.clone()].to_vec();
        dense_grads(rows, &mut w, &mut b, in_dim, self.out_dim(), units);
        (w, b)
    }

    fn accumulate_grads(&mut self, rows: &[TapeRows<'_>]) {
        let (in_dim, out_dim) = (self.in_dim(), self.out_dim());
        let (w, b) = (self.w_grad.data_mut(), self.b_grad.data_mut());
        dense_grads(rows, w, b, in_dim, out_dim, 0..out_dim);
    }

    fn grads_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (self.w_grad.data_mut(), self.b_grad.data_mut())
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

/// Adds the dense parameter gradients of `units` over the batch `rows`
/// onto `w_grad`/`b_grad` (those units' rows): dW = grad_out^T x input,
/// db = column sums.
fn dense_grads(
    rows: &[TapeRows<'_>],
    w_grad: &mut [f32],
    b_grad: &mut [f32],
    in_dim: usize,
    out_dim: usize,
    units: Range<usize>,
) {
    let rows = rows.iter().map(|r| (r.input, r.grad_out));
    kernels::dense_param_grads(rows, w_grad, b_grad, in_dim, out_dim, units);
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

    /// Adds the parameter gradients of the output channels `units` over
    /// the batch `rows` onto `w_grad`/`b_grad` (those channels' rows).
    /// Reads each block's im2col patches from the workspace its forward
    /// pass filled, so no row is unrolled twice.
    fn conv_grads(
        rows: &[TapeRows<'_>],
        w_grad: &mut [f32],
        b_grad: &mut [f32],
        (out_ch, ick, out_len): (usize, usize, usize),
        units: Range<usize>,
    ) {
        let blocks = rows
            .iter()
            .map(|r| (&r.work[..r.shape.dims()[0] * out_len * ick], r.grad_out));
        kernels::conv1d_param_grads(blocks, w_grad, b_grad, ick, out_ch, out_len, units);
    }

    /// `(out_ch, in_ch · kernel, out_len)` of the training pass `rows`.
    fn grad_dims(&self, rows: &[TapeRows<'_>]) -> (usize, usize, usize) {
        let (out_ch, in_ch, kernel) = self.dims();
        let in_len = rows.first().map_or(kernel, |r| r.shape.dims()[2]);
        let out_len = self
            .out_len(in_len)
            .expect("the forward pass checked the input length");
        (out_ch, in_ch * kernel, out_len)
    }
}

impl Layer for Conv1d {
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

    fn input_grad(&self, _input: &[f32], shape: Shape, grad_out: &[f32], grad_in: &mut Vec<f32>) {
        let (out_ch, in_ch, kernel) = self.dims();
        let (batch, in_len) = (shape.dims()[0], shape.dims()[2]);
        let out_len = grad_out.len() / (batch * out_ch);
        grad_in.resize(batch * in_ch * in_len, 0.0);
        kernels::conv1d_input_grad(
            grad_out,
            self.weight.data(),
            grad_in,
            batch,
            in_ch,
            in_len,
            out_ch,
            kernel,
            self.stride,
            out_len,
        );
    }

    fn units(&self) -> usize {
        self.dims().0
    }

    fn unit_grads(&self, rows: &[TapeRows<'_>], units: Range<usize>) -> (Vec<f32>, Vec<f32>) {
        let dims = self.grad_dims(rows);
        let ick = dims.1;
        let mut w = self.w_grad.data()[units.start * ick..units.end * ick].to_vec();
        let mut b = self.b_grad.data()[units.clone()].to_vec();
        Self::conv_grads(rows, &mut w, &mut b, dims, units);
        (w, b)
    }

    fn accumulate_grads(&mut self, rows: &[TapeRows<'_>]) {
        let dims = self.grad_dims(rows);
        let (w, b) = (self.w_grad.data_mut(), self.b_grad.data_mut());
        Self::conv_grads(rows, w, b, dims, 0..dims.0);
    }

    fn grads_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (self.w_grad.data_mut(), self.b_grad.data_mut())
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
pub struct Relu;

impl Relu {
    /// Builds a ReLU activation.
    pub fn new() -> Self {
        Self
    }
}

impl Layer for Relu {
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

    fn input_grad(&self, input: &[f32], _shape: Shape, grad_out: &[f32], grad_in: &mut Vec<f32>) {
        grad_in.clear();
        grad_in.extend(
            grad_out
                .iter()
                .zip(input)
                .map(|(&g, &x)| if x > 0.0 { g } else { 0.0 }),
        );
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Flattens `[batch, ...]` to `[batch, prod(...)]`.
#[derive(Debug, Clone, Default)]
pub struct Flatten;

impl Flatten {
    /// Builds a flatten layer.
    pub fn new() -> Self {
        Self
    }
}

impl Layer for Flatten {
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

    fn input_grad(&self, _input: &[f32], _shape: Shape, grad_out: &[f32], grad_in: &mut Vec<f32>) {
        // Unflattening changes the shape only; the caller keeps `shape`.
        grad_in.clear();
        grad_in.extend_from_slice(grad_out);
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::MIN_POOLED_ROWS;
    use crate::Sequential;
    use msvs_par::Pool;

    /// Runs one layer's forward computation on a tensor.
    fn apply(layer: &dyn Layer, input: &Tensor) -> Tensor {
        let mut out = Vec::new();
        let shape = layer.infer_into(
            input.data(),
            Shape::from_dims(input.shape()),
            &mut out,
            &mut Vec::new(),
        );
        Tensor::from_vec(out, shape.to_vec()).unwrap()
    }

    fn zero_grad(layer: &mut dyn Layer) {
        let (w, b) = layer.grads_mut();
        w.fill(0.0);
        b.fill(0.0);
    }

    /// One layer's backward pass over the whole batch as one row block,
    /// the way `Sequential` runs it on the caller's thread: accumulates
    /// the parameter gradients in place and returns the input gradient.
    fn backward(layer: &mut dyn Layer, input: &Tensor, grad_out: &Tensor) -> Tensor {
        let shape = Shape::from_dims(input.shape());
        let mut work = Vec::new();
        layer.infer_into(input.data(), shape, &mut Vec::new(), &mut work);
        let rows = [TapeRows {
            input: input.data(),
            shape,
            work: &work,
            grad_out: grad_out.data(),
        }];
        layer.accumulate_grads(&rows);
        let mut grad_in = Vec::new();
        layer.input_grad(input.data(), shape, grad_out.data(), &mut grad_in);
        Tensor::from_vec(grad_in, input.shape().to_vec()).unwrap()
    }

    /// Central-difference numerical gradient check for a layer's input
    /// gradient and parameter gradients.
    fn check_gradients(layer: &mut dyn Layer, input: Tensor, tol: f32) {
        let eps = 1e-3_f32;
        // Loss = sum of outputs; dL/dout = ones.
        let mut ones = apply(layer, &input);
        ones.fill(1.0);
        zero_grad(layer);
        let analytic_in = backward(layer, &input, &ones);

        // Input gradient.
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let f_plus: f32 = apply(layer, &plus).data().iter().sum();
            let f_minus: f32 = apply(layer, &minus).data().iter().sum();
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
                let f_plus: f32 = apply(layer, &input).data().iter().sum();
                bump(-2.0 * eps, layer);
                let f_minus: f32 = apply(layer, &input).data().iter().sum();
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

    /// Skipping the input gradient leaves every parameter gradient bit
    /// for bit where the full backward pass leaves it: each layer alone
    /// in a network, on the caller's thread and in row blocks on a pool
    /// (the batch is large enough to be split).
    #[test]
    fn backward_without_input_grad_accumulates_the_same_params() {
        let fill = |n: usize| -> Vec<f32> {
            (0..n)
                .map(|i| match i % 7 {
                    0 => 0.0,
                    3 => -0.0,
                    r => (i * 13 % 11) as f32 * 0.1 - 0.5 + r as f32 * 0.01,
                })
                .collect()
        };
        let batch = MIN_POOLED_ROWS + 3;
        let cases: Vec<(Box<dyn Layer>, Vec<usize>)> = vec![
            (Box::new(Dense::new(70, 66, 3)), vec![batch, 70]),
            (Box::new(Conv1d::new(4, 8, 3, 2, 5)), vec![batch, 4, 16]),
            (Box::new(Relu::new()), vec![batch, 4]),
            (Box::new(Flatten::new()), vec![batch, 3, 4]),
        ];
        for (layer, shape) in cases {
            let input = Tensor::from_vec(fill(shape.iter().product()), shape).unwrap();
            for threads in [1, 4] {
                let pool = Pool::new(threads);
                let param_grads = |input_grad: bool| {
                    let mut net = Sequential::new(vec![layer.clone()]);
                    let (out, _) = net.forward_train_with(&input, &pool);
                    let grad = Tensor::from_vec(fill(out.len()), out.shape().to_vec()).unwrap();
                    let (dx, _) = net.backward_with(&grad, &pool, input_grad);
                    assert_eq!(dx.is_some(), input_grad);
                    let mut bits = Vec::new();
                    net.visit_params(&mut |_, g| bits.extend(g.data().iter().map(|v| v.to_bits())));
                    bits
                };
                assert_eq!(param_grads(false), param_grads(true), "{threads} threads");
            }
        }
    }

    /// Split over ragged unit blocks, `unit_grads` adds the batch's terms
    /// onto the layer's current non-zero gradients exactly as one kernel
    /// call over the whole gradient does, and so does `accumulate_grads`
    /// in place.
    #[test]
    fn unit_grads_accumulate_onto_the_current_gradients() {
        let fill = |n: usize, salt: usize| -> Vec<f32> {
            (0..n)
                .map(|i| match (i + salt) % 5 {
                    0 => 0.0,
                    r => ((i * 13 + salt) % 11) as f32 * 0.1 - 0.5 + r as f32 * 0.003,
                })
                .collect()
        };
        let cases: Vec<(Box<dyn Layer>, Tensor)> = vec![
            (
                Box::new(Dense::new(70, 66, 3)),
                Tensor::from_vec(fill(5 * 70, 1), vec![5, 70]).unwrap(),
            ),
            (
                Box::new(Conv1d::new(4, 8, 3, 2, 5)),
                Tensor::from_vec(fill(3 * 4 * 16, 2), vec![3, 4, 16]).unwrap(),
            ),
        ];
        for (mut layer, input) in cases {
            let shape = Shape::from_dims(input.shape());
            let mut out = Vec::new();
            let mut work = Vec::new();
            let out_shape = layer.infer_into(input.data(), shape, &mut out, &mut work);
            let grad_out = fill(out.len(), 3);
            {
                let (w, b) = layer.grads_mut();
                w.copy_from_slice(&fill(w.len(), 4));
                b.copy_from_slice(&fill(b.len(), 5));
            }
            let units = layer.units();
            let (mut want_w, mut want_b) = {
                let (w, b) = layer.grads_mut();
                (w.to_vec(), b.to_vec())
            };
            if out_shape.rank() == 2 {
                let in_dim = shape.dims()[1];
                let rows = [(input.data(), &grad_out[..])];
                kernels::dense_param_grads(rows, &mut want_w, &mut want_b, in_dim, units, 0..units);
            } else {
                let (ick, out_len) = (want_w.len() / units, out_shape.dims()[2]);
                let rows = [(&work[..3 * out_len * ick], &grad_out[..])];
                kernels::conv1d_param_grads(
                    rows,
                    &mut want_w,
                    &mut want_b,
                    ick,
                    units,
                    out_len,
                    0..units,
                );
            }
            let rows = [TapeRows {
                input: input.data(),
                shape,
                work: &work,
                grad_out: &grad_out,
            }];
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut in_place = layer.clone();
            in_place.accumulate_grads(&rows);
            let (w_grad, b_grad) = in_place.grads_mut();
            assert_eq!(bits(w_grad), bits(&want_w));
            assert_eq!(bits(b_grad), bits(&want_b));
            let split = [0..1, 1..3, 3..units];
            let parts: Vec<_> = split
                .iter()
                .map(|r| layer.unit_grads(&rows, r.clone()))
                .collect();
            let (w_grad, b_grad) = layer.grads_mut();
            let per_unit = w_grad.len() / units;
            for (r, (w, b)) in split.iter().zip(parts) {
                w_grad[r.start * per_unit..r.end * per_unit].copy_from_slice(&w);
                b_grad[r.clone()].copy_from_slice(&b);
            }
            assert_eq!(bits(w_grad), bits(&want_w));
            assert_eq!(bits(b_grad), bits(&want_b));
        }
    }

    #[test]
    fn relu_masks_negative() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0, 0.0], vec![3]).unwrap();
        assert_eq!(apply(&relu, &x).data(), &[0.0, 2.0, 0.0]);
        let g = backward(
            &mut relu,
            &x,
            &Tensor::from_vec(vec![5.0; 3], vec![3]).unwrap(),
        );
        assert_eq!(g.data(), &[0.0, 5.0, 0.0]);
    }

    #[test]
    fn flatten_round_trips() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(vec![2, 3, 4]);
        let y = apply(&f, &x);
        assert_eq!(y.shape(), &[2, 12]);
        let g = backward(&mut f, &x, &y);
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
        let d = Dense::new(4, 2, 3);
        let x = Tensor::zeros(vec![1, 3]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            apply(&d, &x);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn set_weights_refreshes_transpose() {
        let mut d = Dense::new(2, 2, 5);
        let x = Tensor::from_vec(vec![1.0, -1.0], vec![1, 2]).unwrap();
        apply(&d, &x);
        // A weight write must refresh the transpose the kernels read.
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]).unwrap();
        d.set_weights(w);
        assert_eq!(d.weight_t.data(), &[1.0, 3.0, 2.0, 4.0], "transpose synced");
        // y = x W^T + b with b = 0: [1*1 + (-1)*2, 1*3 + (-1)*4].
        assert_eq!(apply(&d, &x).data(), &[-1.0, -1.0]);
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
        let b = layer.clone();
        let x = Tensor::zeros(vec![1, 2]);
        // Mutate a's params; b must be unaffected.
        a.visit_params(&mut |v, _| v.fill(0.0));
        let ya = apply(a.as_ref(), &x);
        let yb = apply(b.as_ref(), &x);
        assert_eq!(ya.data(), &[0.0, 0.0]);
        assert_eq!(yb.data(), ya.data(), "zero input -> bias only (zeros)");
    }
}
