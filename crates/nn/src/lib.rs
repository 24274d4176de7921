//! From-scratch CPU neural-network substrate.
//!
//! The paper's scheme needs two small neural networks — a 1D-CNN that
//! compresses time-series digital-twin data, and the Q-networks inside a
//! DDQN agent. Rust's ML ecosystem is not mature enough to depend on for a
//! reproducible build (see DESIGN.md), so this crate implements the minimum
//! viable stack: a dense/convolutional [`Sequential`] network with manual
//! reverse-mode differentiation, and SGD/Adam optimizers.
//!
//! Networks here are deliberately small and CPU-friendly; all math is `f32`.
//!
//! # Examples
//!
//! Fit a tiny regression:
//!
//! ```
//! use msvs_nn::{Sequential, Dense, Relu, Adam, Optimizer, mse_loss, Tensor};
//!
//! let mut net = Sequential::new(vec![
//!     Box::new(Dense::new(1, 16, 7)),
//!     Box::new(Relu::new()),
//!     Box::new(Dense::new(16, 1, 8)),
//! ]);
//! let mut opt = Adam::new(1e-2);
//! let x = Tensor::from_vec(vec![0.0, 0.5, 1.0, 1.5], vec![4, 1]).unwrap();
//! let y = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], vec![4, 1]).unwrap();
//! let mut last = f32::MAX;
//! for _ in 0..300 {
//!     let pred = net.forward(&x, true);
//!     let (loss, grad) = mse_loss(&pred, &y);
//!     net.zero_grad();
//!     net.backward(&grad);
//!     opt.step(&mut net);
//!     last = loss;
//! }
//! assert!(last < 0.05, "loss {last}");
//! ```

pub mod kernels;
pub mod layers;
pub mod loss;
pub mod network;
pub mod optim;
pub mod tensor;

pub use kernels::{Scratch, Shape};
pub use layers::{Conv1d, Dense, Flatten, Layer, MaxPool1d, Relu, Tanh};
pub use loss::{huber_loss, masked_mse_loss, mse_loss};
pub use network::Sequential;
pub use optim::{Adam, Optimizer, Sgd};
pub use tensor::Tensor;
