//! Layer composition.

use crate::kernels::{Scratch, Shape};
use crate::layers::Layer;
use crate::tensor::Tensor;

/// A feed-forward stack of layers applied in order.
///
/// # Examples
/// ```
/// use msvs_nn::{Sequential, Dense, Relu, Tensor};
/// let mut net = Sequential::new(vec![
///     Box::new(Dense::new(4, 8, 1)),
///     Box::new(Relu::new()),
///     Box::new(Dense::new(8, 2, 2)),
/// ]);
/// let x = Tensor::zeros(vec![3, 4]);
/// assert_eq!(net.forward(&x, false).shape(), &[3, 2]);
/// ```
#[derive(Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layers.len())
            .field("param_count", &self.count_params())
            .finish()
    }
}

impl Sequential {
    /// Builds a network from an ordered list of layers.
    ///
    /// # Panics
    /// Panics if `layers` is empty.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        assert!(!layers.is_empty(), "network needs at least one layer");
        Self { layers }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Always false: construction requires at least one layer.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Runs the network forward. `train = true` caches activations so a
    /// subsequent [`Sequential::backward`] can run.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
    }

    /// Inference-only forward pass through `&self`. Numerically identical to
    /// `forward(input, false)` but never touches layer caches, so a frozen
    /// network can be shared across threads (`Sequential: Sync`).
    pub fn infer(&self, input: &Tensor) -> Tensor {
        let mut scratch = Scratch::new();
        let (data, shape) = self.infer_scratch(input, &mut scratch);
        Tensor::from_vec(data.to_vec(), shape.to_vec()).expect("kernel output matches shape")
    }

    /// Allocation-free inference: activations ping-pong through the two
    /// buffers of a caller-owned [`Scratch`] arena, so steady-state calls
    /// (same architecture and batch shape) perform zero heap allocations.
    /// Returns a view of the final activation plus its shape, bit-identical
    /// to [`Sequential::infer`].
    pub fn infer_scratch<'s>(
        &self,
        input: &Tensor,
        scratch: &'s mut Scratch,
    ) -> (&'s [f32], Shape) {
        let mut cur = std::mem::take(&mut scratch.bufs[0]);
        let mut next = std::mem::take(&mut scratch.bufs[1]);
        let mut patch = std::mem::take(&mut scratch.patch);
        let mut shape = Shape::from_dims(input.shape());
        shape = self.layers[0].infer_into(input.data(), shape, &mut cur, &mut patch);
        for layer in &self.layers[1..] {
            shape = layer.infer_into(&cur, shape, &mut next, &mut patch);
            std::mem::swap(&mut cur, &mut next);
        }
        scratch.bufs[0] = cur;
        scratch.bufs[1] = next;
        scratch.patch = patch;
        (&scratch.bufs[0][..shape.len()], shape)
    }

    /// Backpropagates the loss gradient, accumulating parameter gradients.
    ///
    /// # Panics
    /// Panics if the preceding forward pass was not in training mode.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Zeroes all accumulated parameter gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Visits every `(value, grad)` parameter pair in stable order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Total number of scalar parameters.
    pub fn count_params(&self) -> usize {
        // visit_params needs &mut; clone the boxed layers' counts instead by
        // visiting on a temporary clone would be wasteful, so count via a
        // shared trick: clone_box is cheap for small nets but unnecessary —
        // use interior iteration on an immutable self is impossible with the
        // trait as defined, so we keep a mutable helper.
        let mut me = self.clone();
        let mut n = 0;
        me.visit_params(&mut |v, _| n += v.len());
        n
    }

    /// Copies all parameters from `source` into `self` (target-network sync).
    ///
    /// # Panics
    /// Panics if the two networks have different architectures.
    pub fn copy_params_from(&mut self, source: &Sequential) {
        let mut src = source.clone();
        let mut values: Vec<Tensor> = Vec::new();
        src.visit_params(&mut |v, _| values.push(v.clone()));
        let mut i = 0;
        self.visit_params(&mut |v, _| {
            assert!(i < values.len(), "architecture mismatch");
            assert_eq!(v.shape(), values[i].shape(), "architecture mismatch");
            *v = values[i].clone();
            i += 1;
        });
        assert_eq!(i, values.len(), "architecture mismatch");
    }

    /// Soft-updates parameters: `self = tau * source + (1 - tau) * self`.
    ///
    /// # Panics
    /// Panics if architectures differ or `tau` is outside `[0, 1]`.
    pub fn soft_update_from(&mut self, source: &Sequential, tau: f32) {
        assert!((0.0..=1.0).contains(&tau), "tau must be in [0, 1]");
        let mut src = source.clone();
        let mut values: Vec<Tensor> = Vec::new();
        src.visit_params(&mut |v, _| values.push(v.clone()));
        let mut i = 0;
        self.visit_params(&mut |v, _| {
            assert_eq!(v.shape(), values[i].shape(), "architecture mismatch");
            for (dst, s) in v.data_mut().iter_mut().zip(values[i].data()) {
                *dst = tau * s + (1.0 - tau) * *dst;
            }
            i += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};

    fn tiny_net(seed: u64) -> Sequential {
        Sequential::new(vec![
            Box::new(Dense::new(2, 4, seed)),
            Box::new(Relu::new()),
            Box::new(Dense::new(4, 1, seed + 1)),
        ])
    }

    #[test]
    fn forward_shape() {
        let mut net = tiny_net(3);
        let y = net.forward(&Tensor::zeros(vec![5, 2]), false);
        assert_eq!(y.shape(), &[5, 1]);
    }

    #[test]
    fn count_params() {
        let net = tiny_net(3);
        // Dense(2,4): 8 + 4; Dense(4,1): 4 + 1.
        assert_eq!(net.count_params(), 17);
    }

    #[test]
    fn copy_params_makes_outputs_equal() {
        let mut a = tiny_net(1);
        let mut b = tiny_net(99);
        let x = Tensor::from_vec(vec![0.3, -0.8], vec![1, 2]).unwrap();
        assert_ne!(a.forward(&x, false).data(), b.forward(&x, false).data());
        b.copy_params_from(&a);
        assert_eq!(a.forward(&x, false).data(), b.forward(&x, false).data());
    }

    #[test]
    fn soft_update_converges_to_source() {
        let a = tiny_net(1);
        let mut b = tiny_net(99);
        for _ in 0..200 {
            b.soft_update_from(&a, 0.1);
        }
        let x = Tensor::from_vec(vec![0.5, 0.5], vec![1, 2]).unwrap();
        let ya = a.clone().forward(&x, false);
        let yb = b.forward(&x, false);
        assert!((ya.data()[0] - yb.data()[0]).abs() < 1e-3);
    }

    #[test]
    fn soft_update_tau_one_is_copy() {
        let a = tiny_net(1);
        let mut b = tiny_net(2);
        b.soft_update_from(&a, 1.0);
        let x = Tensor::from_vec(vec![1.0, 2.0], vec![1, 2]).unwrap();
        assert_eq!(
            a.clone().forward(&x, false).data(),
            b.forward(&x, false).data()
        );
    }

    #[test]
    #[should_panic(expected = "architecture mismatch")]
    fn copy_params_rejects_mismatch() {
        let a = tiny_net(1);
        let mut b = Sequential::new(vec![Box::new(Dense::new(3, 1, 0))]);
        b.copy_params_from(&a);
    }

    #[test]
    fn infer_matches_eval_forward() {
        use crate::layers::{Conv1d, Flatten, MaxPool1d, Tanh};
        // Every layer kind the compressor/DDQN stacks use.
        let conv_net = Sequential::new(vec![
            Box::new(Conv1d::new(3, 6, 3, 1, 21)),
            Box::new(Relu::new()),
            Box::new(MaxPool1d::new(2)),
            Box::new(Flatten::new()),
            Box::new(Dense::new(6 * 7, 4, 22)),
            Box::new(Tanh::new()),
        ]);
        let conv_x = Tensor::from_vec(
            (0..2 * 3 * 16)
                .map(|i| ((i * 11) % 17) as f32 * 0.1 - 0.8)
                .collect(),
            vec![2, 3, 16],
        )
        .unwrap();
        let dense_x = Tensor::from_vec(vec![0.4, -1.2, 0.0, 2.5], vec![2, 2]).unwrap();
        for (mut net, x) in [(tiny_net(7), dense_x), (conv_net, conv_x)] {
            let via_forward = net.forward(&x, false);
            let via_infer = net.infer(&x);
            assert_eq!(via_forward.shape(), via_infer.shape());
            for (i, (a, b)) in via_forward.data().iter().zip(via_infer.data()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "element {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn infer_is_shareable_across_threads() {
        let net = tiny_net(7);
        let x = Tensor::from_vec(vec![0.4, -1.2], vec![1, 2]).unwrap();
        let expected = net.infer(&x);
        let outputs: Vec<Tensor> = std::thread::scope(|s| {
            (0..4)
                .map(|_| s.spawn(|| net.infer(&x)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for y in outputs {
            assert_eq!(y.data(), expected.data());
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let net = tiny_net(0);
        let s = format!("{net:?}");
        assert!(s.contains("Sequential"));
        assert!(s.contains("param_count"));
    }
}
