//! Differentiable layers.
//!
//! Layers hold parameters and their accumulated gradients, never
//! activations: [`crate::Sequential`] keeps each layer's input from a
//! training forward pass and hands it back to [`Layer::backward`]. Layers
//! are cloneable so an entire network can be duplicated to form a DDQN
//! target network.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::kernels::{self, Shape};
use crate::tensor::Tensor;

/// A differentiable network layer.
pub trait Layer: Send + Sync {
    /// The layer's one forward computation: reads `input` (flat,
    /// row-major, laid out per `shape`), writes the result into `out` and
    /// returns the output shape. `patch` is kernel workspace (see
    /// [`crate::kernels::conv1d_infer`]) owned by the caller's
    /// [`crate::kernels::Scratch`] arena. Takes
    /// `&self`, so many threads can share one frozen network.
    fn infer_into(
        &self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        patch: &mut Vec<f32>,
    ) -> Shape;

    /// Backpropagates `grad_out` through the forward pass that read
    /// `input`, accumulating parameter gradients. Returns the gradient
    /// with respect to `input` when `input_grad` is set and `None`
    /// otherwise, so a network's first layer skips work nobody reads.
    fn backward(&mut self, input: &Tensor, grad_out: &Tensor, input_grad: bool) -> Option<Tensor>;

    /// Zeroes accumulated parameter gradients.
    fn zero_grad(&mut self) {}

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

    fn backward(&mut self, input: &Tensor, grad_out: &Tensor, input_grad: bool) -> Option<Tensor> {
        // dW = grad_out^T x input ; db = column sums ; dx = grad_out x W
        let (batch, in_dim, out_dim) = (grad_out.shape()[0], self.in_dim(), self.out_dim());
        kernels::dense_param_grads(
            input.data(),
            grad_out.data(),
            self.w_grad.data_mut(),
            self.b_grad.data_mut(),
            batch,
            in_dim,
            out_dim,
        );
        input_grad.then(|| {
            let mut grad_in = Tensor::zeros(vec![batch, in_dim]);
            kernels::gemm_zero_skip(
                grad_out.data(),
                self.weight.data(),
                grad_in.data_mut(),
                batch,
                out_dim,
                in_dim,
            );
            grad_in
        })
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

    fn backward(&mut self, input: &Tensor, grad_out: &Tensor, input_grad: bool) -> Option<Tensor> {
        let (out_ch, in_ch, kernel) = self.dims();
        let batch = input.shape()[0];
        let in_len = input.shape()[2];
        let out_len = grad_out.shape()[2];
        kernels::conv1d_param_grads(
            input.data(),
            grad_out.data(),
            self.w_grad.data_mut(),
            self.b_grad.data_mut(),
            batch,
            in_ch,
            in_len,
            out_ch,
            kernel,
            self.stride,
            out_len,
        );
        input_grad.then(|| {
            let mut grad_in = Tensor::zeros(vec![batch, in_ch, in_len]);
            kernels::conv1d_input_grad(
                grad_out.data(),
                self.weight.data(),
                grad_in.data_mut(),
                batch,
                in_ch,
                in_len,
                out_ch,
                kernel,
                self.stride,
                out_len,
            );
            grad_in
        })
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

    fn backward(&mut self, input: &Tensor, grad_out: &Tensor, input_grad: bool) -> Option<Tensor> {
        input_grad.then(|| {
            let mut grad = grad_out.clone();
            for (g, &x) in grad.data_mut().iter_mut().zip(input.data()) {
                *g = if x > 0.0 { *g } else { 0.0 };
            }
            grad
        })
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

    fn backward(&mut self, input: &Tensor, grad_out: &Tensor, input_grad: bool) -> Option<Tensor> {
        input_grad.then(|| {
            grad_out
                .clone()
                .reshape(input.shape().to_vec())
                .expect("unflatten preserves element count")
        })
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Central-difference numerical gradient check for a layer's input
    /// gradient and parameter gradients.
    fn check_gradients(layer: &mut dyn Layer, input: Tensor, tol: f32) {
        let eps = 1e-3_f32;
        // Loss = sum of outputs; dL/dout = ones.
        let mut ones = apply(layer, &input);
        ones.fill(1.0);
        layer.zero_grad();
        let analytic_in = layer.backward(&input, &ones, true).unwrap();

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
    /// for bit where the full backward pass leaves it.
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
        let cases: Vec<(Box<dyn Layer>, Tensor)> = vec![
            (
                Box::new(Dense::new(70, 66, 3)),
                Tensor::from_vec(fill(5 * 70), vec![5, 70]).unwrap(),
            ),
            (
                Box::new(Conv1d::new(4, 8, 3, 2, 5)),
                Tensor::from_vec(fill(3 * 4 * 16), vec![3, 4, 16]).unwrap(),
            ),
            (
                Box::new(Relu::new()),
                Tensor::from_vec(fill(12), vec![3, 4]).unwrap(),
            ),
            (
                Box::new(Flatten::new()),
                Tensor::from_vec(fill(24), vec![2, 3, 4]).unwrap(),
            ),
        ];
        for (layer, input) in cases {
            let out = apply(layer.as_ref(), &input);
            let grad = Tensor::from_vec(fill(out.len()), out.shape().to_vec()).unwrap();
            let (mut full, mut params_only) = (layer.clone(), layer);
            assert!(full.backward(&input, &grad, true).is_some());
            assert!(params_only.backward(&input, &grad, false).is_none());
            let mut want = Vec::new();
            full.visit_params(&mut |_, g| want.extend(g.data().iter().map(|v| v.to_bits())));
            let mut got = Vec::new();
            params_only.visit_params(&mut |_, g| got.extend(g.data().iter().map(|v| v.to_bits())));
            assert_eq!(got, want);
        }
    }

    #[test]
    fn relu_masks_negative() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0, 0.0], vec![3]).unwrap();
        assert_eq!(apply(&relu, &x).data(), &[0.0, 2.0, 0.0]);
        let g = relu.backward(&x, &Tensor::from_vec(vec![5.0; 3], vec![3]).unwrap(), true);
        assert_eq!(g.unwrap().data(), &[0.0, 5.0, 0.0]);
    }

    #[test]
    fn flatten_round_trips() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(vec![2, 3, 4]);
        let y = apply(&f, &x);
        assert_eq!(y.shape(), &[2, 12]);
        let g = f.backward(&x, &y, true).unwrap();
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
