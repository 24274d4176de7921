//! The Adam optimizer.

use crate::network::Sequential;
use crate::tensor::Tensor;

/// Adam (Kingma & Ba, 2015) with bias correction.
///
/// Per-parameter moments are addressed by the stable visitation order of
/// [`Sequential::visit_params`], so an optimizer must be used with a
/// single network for its whole life.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    const BETA1: f32 = 0.9;
    const BETA2: f32 = 0.999;
    const EPS: f32 = 1e-8;

    /// Builds Adam with the standard betas (0.9, 0.999) and epsilon 1e-8.
    ///
    /// # Panics
    /// Panics if `lr` is not strictly positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step using the gradients currently accumulated
    /// in `net`.
    pub fn step(&mut self, net: &mut Sequential) {
        self.t += 1;
        let t = self.t as f32;
        let (lr, b1, b2, eps) = (self.lr, Self::BETA1, Self::BETA2, Self::EPS);
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);
        let (m_store, v_store) = (&mut self.m, &mut self.v);
        let mut idx = 0;
        net.visit_params(&mut |value, grad| {
            if m_store.len() <= idx {
                m_store.push(Tensor::zeros(value.shape().to_vec()));
                v_store.push(Tensor::zeros(value.shape().to_vec()));
            }
            let m = &mut m_store[idx];
            let v = &mut v_store[idx];
            assert_eq!(
                m.shape(),
                value.shape(),
                "optimizer bound to another network"
            );
            for (((mi, vi), g), p) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(grad.data())
                .zip(value.data_mut())
            {
                *mi = b1 * *mi + (1.0 - b1) * g;
                *vi = b2 * *vi + (1.0 - b2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *p -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::loss::mse_loss;

    fn xor_data() -> (Tensor, Tensor) {
        let x = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], vec![4, 2]).unwrap();
        let y = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], vec![4, 1]).unwrap();
        (x, y)
    }

    fn train_xor(opt: &mut Adam, epochs: usize) -> f32 {
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(2, 16, 21)),
            Box::new(Relu::new()),
            Box::new(Dense::new(16, 1, 22)),
        ]);
        let (x, y) = xor_data();
        let mut loss = f32::MAX;
        for _ in 0..epochs {
            let pred = net.forward_train(&x);
            let (l, grad) = mse_loss(&pred, &y);
            net.zero_grad();
            net.backward_params(&grad);
            opt.step(&mut net);
            loss = l;
        }
        loss
    }

    #[test]
    fn adam_learns_xor() {
        let mut opt = Adam::new(0.02);
        let loss = train_xor(&mut opt, 800);
        assert!(loss < 0.01, "adam failed to fit xor, loss {loss}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_lr() {
        let _ = Adam::new(0.0);
    }
}
