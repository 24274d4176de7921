//! Loss functions returning `(scalar loss, gradient w.r.t. prediction)`.

use crate::tensor::Tensor;

/// Mean-squared error over all elements.
///
/// Returns the scalar loss and `dL/dpred`.
///
/// # Panics
/// Panics if shapes differ.
///
/// # Examples
/// ```
/// # use msvs_nn::{Tensor, mse_loss};
/// let pred = Tensor::from_vec(vec![1.0, 2.0], vec![2]).unwrap();
/// let target = Tensor::from_vec(vec![1.0, 4.0], vec![2]).unwrap();
/// let (loss, grad) = mse_loss(&pred, &target);
/// assert_eq!(loss, 2.0); // (0 + 4) / 2
/// assert_eq!(grad.data(), &[0.0, -2.0]); // 2 (pred - target) / n
/// ```
pub fn mse_loss(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "mse shapes must match");
    let n = pred.len() as f32;
    let mut grad = pred.clone();
    let mut loss = 0.0;
    for (g, t) in grad.data_mut().iter_mut().zip(target.data()) {
        let diff = *g - t;
        loss += diff * diff;
        *g = 2.0 * diff / n;
    }
    (loss / n, grad)
}

/// Masked MSE: only elements where `mask` is non-zero contribute.
///
/// Used for DQN updates where only the taken action's Q-value is trained.
///
/// # Panics
/// Panics if shapes differ.
pub fn masked_mse_loss(pred: &Tensor, target: &Tensor, mask: &Tensor) -> (f32, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "masked mse shapes must match");
    assert_eq!(pred.shape(), mask.shape(), "mask shape must match");
    let active = mask.data().iter().filter(|m| **m != 0.0).count().max(1) as f32;
    let mut grad = pred.clone();
    let mut loss = 0.0;
    for ((g, t), m) in grad
        .data_mut()
        .iter_mut()
        .zip(target.data())
        .zip(mask.data())
    {
        if *m == 0.0 {
            *g = 0.0;
            continue;
        }
        let diff = *g - t;
        loss += diff * diff;
        *g = 2.0 * diff / active;
    }
    (loss / active, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), vec![v.len()]).unwrap()
    }

    #[test]
    fn mse_zero_at_match() {
        let p = tensor(&[1.0, -2.0, 3.0]);
        let (loss, grad) = mse_loss(&p, &p);
        assert_eq!(loss, 0.0);
        assert!(grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn masked_mse_ignores_masked_out() {
        let p = tensor(&[1.0, 99.0]);
        let t = tensor(&[0.0, 0.0]);
        let m = tensor(&[1.0, 0.0]);
        let (loss, grad) = masked_mse_loss(&p, &t, &m);
        assert_eq!(loss, 1.0);
        assert_eq!(grad.data()[1], 0.0);
        assert_eq!(grad.data()[0], 2.0);
    }

    #[test]
    fn masked_mse_all_masked_is_zero() {
        let p = tensor(&[1.0]);
        let t = tensor(&[0.0]);
        let m = tensor(&[0.0]);
        let (loss, grad) = masked_mse_loss(&p, &t, &m);
        assert_eq!(loss, 0.0);
        assert_eq!(grad.data(), &[0.0]);
    }

    #[test]
    #[should_panic(expected = "shapes must match")]
    fn mse_rejects_mismatch() {
        let _ = mse_loss(&Tensor::zeros(vec![2]), &Tensor::zeros(vec![3]));
    }
}
