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
/// assert_eq!(net.infer(&x).shape(), &[3, 2]);
/// ```
#[derive(Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Each layer's input from the last [`Sequential::forward_train`],
    /// consumed by [`Sequential::backward`].
    tape: Vec<Tensor>,
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
        Self {
            layers,
            tape: Vec::new(),
        }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Always false: construction requires at least one layer.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Training forward pass: runs every layer's forward computation and
    /// keeps each layer's input on the tape so [`Sequential::backward`]
    /// can run. Bit-identical to [`Sequential::infer`].
    pub fn forward_train(&mut self, input: &Tensor) -> Tensor {
        self.tape.clear();
        let mut patch = Vec::new();
        let mut x = input.clone();
        for layer in &self.layers {
            let mut out = Vec::new();
            let shape =
                layer.infer_into(x.data(), Shape::from_dims(x.shape()), &mut out, &mut patch);
            let y = Tensor::from_vec(out, shape.to_vec()).expect("kernel output matches shape");
            self.tape.push(std::mem::replace(&mut x, y));
        }
        x
    }

    /// Inference-only forward pass through `&self`: keeps no tape, so a
    /// frozen network can be shared across threads (`Sequential: Sync`).
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

    /// Backpropagates the loss gradient through the last
    /// [`Sequential::forward_train`], consuming its tape and accumulating
    /// parameter gradients. Returns the gradient with respect to the
    /// network's input, for a caller that chains it into another network.
    ///
    /// # Panics
    /// Panics if no training forward pass has run since the last backward.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backprop(grad_out, true)
            .expect("the first layer was asked for its input gradient")
    }

    /// [`Sequential::backward`] for a network whose input gradient nobody
    /// reads: accumulates the same parameter gradients, bit for bit, but
    /// the first layer skips its input gradient.
    ///
    /// # Panics
    /// Panics if no training forward pass has run since the last backward.
    pub fn backward_params(&mut self, grad_out: &Tensor) {
        self.backprop(grad_out, false);
    }

    fn backprop(&mut self, grad_out: &Tensor, input_grad: bool) -> Option<Tensor> {
        assert!(
            !self.tape.is_empty(),
            "backward requires a preceding forward_train"
        );
        let mut g = grad_out.clone();
        let mut layers = self.layers.iter_mut().zip(self.tape.drain(..)).rev();
        let (first, first_input) = layers.next_back().expect("network has a layer");
        for (layer, input) in layers {
            g = layer
                .backward(&input, &g, true)
                .expect("input gradient was requested");
        }
        first.backward(&first_input, &g, input_grad)
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
        // `visit_params` needs `&mut self`, so count on a clone.
        let mut me = self.clone();
        let mut n = 0;
        me.visit_params(&mut |v, _| n += v.len());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv1d, Dense, Flatten, Relu};

    fn tiny_net(seed: u64) -> Sequential {
        Sequential::new(vec![
            Box::new(Dense::new(2, 4, seed)),
            Box::new(Relu::new()),
            Box::new(Dense::new(4, 1, seed + 1)),
        ])
    }

    #[test]
    fn forward_shape() {
        let net = tiny_net(3);
        let y = net.infer(&Tensor::zeros(vec![5, 2]));
        assert_eq!(y.shape(), &[5, 1]);
    }

    #[test]
    fn count_params() {
        let net = tiny_net(3);
        // Dense(2,4): 8 + 4; Dense(4,1): 4 + 1.
        assert_eq!(net.count_params(), 17);
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    /// The compressor's encoder: every layer kind a model here runs.
    fn conv_net() -> (Sequential, Tensor) {
        let net = Sequential::new(vec![
            Box::new(Conv1d::new(3, 6, 3, 2, 21)),
            Box::new(Relu::new()),
            Box::new(Conv1d::new(6, 6, 3, 2, 22)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(6 * 3, 4, 23)),
        ]);
        let x = Tensor::from_vec(
            (0..2 * 3 * 16)
                .map(|i| ((i * 11) % 17) as f32 * 0.1 - 0.8)
                .collect(),
            vec![2, 3, 16],
        )
        .unwrap();
        (net, x)
    }

    #[test]
    fn infer_matches_eval_forward() {
        // The training forward and `infer` must agree bit for bit.
        let dense_x = Tensor::from_vec(vec![0.4, -1.2, 0.0, 2.5], vec![2, 2]).unwrap();
        for (mut net, x) in [(tiny_net(7), dense_x), conv_net()] {
            let via_infer = net.infer(&x);
            assert_bits_eq(&net.forward_train(&x), &via_infer);
        }
    }

    #[test]
    fn infer_between_forward_train_and_backward_leaves_gradients_unchanged() {
        let (mut plain, x) = conv_net();
        let mut interleaved = plain.clone();
        let grad = Tensor::from_vec(
            vec![0.5, -0.25, 1.0, 0.75, -1.0, 0.125, 0.0, 2.0],
            vec![2, 4],
        )
        .unwrap();
        let grads = |net: &mut Sequential| {
            let mut all = Vec::new();
            net.visit_params(&mut |_, g| all.push(g.clone()));
            all
        };
        plain.forward_train(&x);
        plain.backward(&grad);
        interleaved.forward_train(&x);
        let mut other = x.clone();
        other.data_mut().iter_mut().for_each(|v| *v = -*v);
        interleaved.infer(&other);
        interleaved.backward(&grad);
        for (a, b) in grads(&mut plain).iter().zip(&grads(&mut interleaved)) {
            assert_bits_eq(a, b);
        }
    }

    #[test]
    #[should_panic(expected = "backward requires a preceding forward_train")]
    fn backward_without_forward_train_panics() {
        let mut net = tiny_net(1);
        let x = Tensor::from_vec(vec![0.3, -0.8], vec![1, 2]).unwrap();
        net.infer(&x);
        net.backward(&Tensor::zeros(vec![1, 1]));
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
