//! Feature assembly: digital-twin windows → network tensors → clustering
//! features.

use std::borrow::Borrow;

use msvs_nn::Tensor;
use msvs_types::{Error, Result};
use msvs_udt::FeatureWindow;

/// Stacks per-user feature windows into a `[batch, channels, window]`
/// tensor for the 1D-CNN.
///
/// # Errors
/// Returns [`Error::InsufficientData`] for an empty batch,
/// [`Error::ShapeMismatch`] when windows disagree in shape, and
/// [`Error::ShapeMismatch`] when any value is non-finite — a single NaN
/// fed forward would poison every embedding in the batch.
pub fn windows_to_tensor<W: Borrow<FeatureWindow>>(windows: &[W]) -> Result<Tensor> {
    let first = windows
        .first()
        .ok_or_else(|| Error::insufficient("at least one feature window"))?
        .borrow();
    let channels = first.series.len();
    let len = first.window_len();
    if len == 0 {
        return Err(Error::insufficient("non-empty feature windows"));
    }
    let mut data = Vec::with_capacity(windows.len() * channels * len);
    for w in windows {
        let w = w.borrow();
        if w.series.len() != channels || w.window_len() != len {
            return Err(Error::shape(
                format!("{channels} channels x {len}"),
                format!("{} channels x {}", w.series.len(), w.window_len()),
            ));
        }
        for ch in &w.series {
            if ch.iter().any(|v| !v.is_finite()) {
                return Err(Error::shape(
                    "finite feature values".to_string(),
                    "non-finite value in feature window".to_string(),
                ));
            }
            data.extend_from_slice(ch);
        }
    }
    Tensor::from_vec(data, vec![windows.len(), channels, len])
}

/// Combines a CNN embedding with the (weighted) preference vector into the
/// final clustering feature for one user.
///
/// The CNN captures dynamics (channel, movement, engagement rhythm); the
/// preference distribution captures taste. `preference_weight` balances the
/// two distance scales (the paper clusters on "user status", which includes
/// both).
pub fn embedding_features(
    embedding: &[f32],
    preference: &[f32],
    preference_weight: f64,
) -> Vec<f64> {
    let mut out: Vec<f64> = embedding.iter().map(|&v| v as f64).collect();
    out.extend(preference.iter().map(|&p| p as f64 * preference_weight));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(c: usize, l: usize, fill: f32) -> FeatureWindow {
        FeatureWindow {
            series: vec![vec![fill; l]; c],
            preference: vec![0.125; 8],
        }
    }

    #[test]
    fn stacks_batch_in_order() {
        let t = windows_to_tensor(&[window(4, 8, 0.25), window(4, 8, 0.75)]).unwrap();
        assert_eq!(t.shape(), &[2, 4, 8]);
        // [b, c, t] row-major: the first and the last element.
        assert_eq!(t.data()[0], 0.25);
        assert_eq!(t.data()[(4 + 3) * 8 + 7], 0.75);
    }

    #[test]
    fn rejects_empty_and_ragged() {
        assert!(windows_to_tensor::<FeatureWindow>(&[]).is_err());
        assert!(windows_to_tensor(&[window(4, 8, 0.0), window(4, 9, 0.0)]).is_err());
        assert!(windows_to_tensor(&[window(4, 8, 0.0), window(3, 8, 0.0)]).is_err());
        assert!(windows_to_tensor(&[window(4, 0, 0.0)]).is_err());
    }

    #[test]
    fn rejects_non_finite_values() {
        let mut poisoned = window(4, 8, 0.5);
        poisoned.series[2][3] = f32::NAN;
        assert!(windows_to_tensor(&[window(4, 8, 0.1), poisoned]).is_err());
        let mut inf = window(4, 8, 0.5);
        inf.series[0][0] = f32::INFINITY;
        assert!(windows_to_tensor(&[inf]).is_err());
    }

    #[test]
    fn embedding_features_concatenates_and_weights() {
        let f = embedding_features(&[1.0, 2.0], &[0.5, 0.5], 2.0);
        assert_eq!(f, vec![1.0, 2.0, 1.0, 1.0]);
        let f0 = embedding_features(&[1.0], &[0.3], 0.0);
        assert_eq!(f0, vec![1.0, 0.0], "zero weight erases preference");
    }
}
