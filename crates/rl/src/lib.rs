//! Double deep Q-network (DDQN) substrate.
//!
//! The paper uses a DDQN to pick the number of multicast groups from mined
//! user-similarity statistics. This crate provides the generic agent: an
//! experience [`ReplayBuffer`], an ε-greedy [`EpsilonSchedule`] and the
//! [`DdqnAgent`] itself (van Hasselt et al., 2016: action selection by the
//! online network, evaluation by the target network).
//!
//! # Examples
//!
//! Train on a two-armed bandit where arm 1 always pays:
//!
//! ```
//! use msvs_rl::{DdqnAgent, DdqnConfig, Transition};
//!
//! let mut agent = DdqnAgent::new(DdqnConfig {
//!     state_dim: 1,
//!     action_count: 2,
//!     seed: 7,
//!     ..DdqnConfig::default()
//! }).unwrap();
//! for _ in 0..300 {
//!     let s = vec![0.0];
//!     let a = agent.act(&s);
//!     let r = if a == 1 { 1.0 } else { 0.0 };
//!     agent.observe(Transition { state: s.clone(), action: a, reward: r,
//!                                next_state: s, done: true });
//! }
//! assert_eq!(agent.act_greedy(&[0.0]), 1);
//! ```

pub mod ddqn;
pub mod replay;
pub mod schedule;

pub use ddqn::{DdqnAgent, DdqnConfig};
pub use replay::{ReplayBuffer, Transition};
pub use schedule::EpsilonSchedule;
