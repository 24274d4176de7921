//! The double deep Q-network agent.

use msvs_nn::{masked_mse_loss, Adam, Dense, Layer, Relu, Sequential, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::replay::{ReplayBuffer, Transition};
use crate::schedule::EpsilonSchedule;

/// Hyperparameters for a [`DdqnAgent`].
#[derive(Debug, Clone)]
pub struct DdqnConfig {
    /// Observation dimensionality.
    pub state_dim: usize,
    /// Number of discrete actions.
    pub action_count: usize,
    /// Hidden layer widths of the Q-network.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Minibatch size per training step.
    pub batch_size: usize,
    /// Replay buffer capacity.
    pub replay_capacity: usize,
    /// Minimum buffered transitions before training starts.
    pub min_replay: usize,
    /// Hard target-network sync period, in training steps.
    pub target_sync_every: u64,
    /// Exploration schedule.
    pub epsilon: EpsilonSchedule,
    /// RNG seed (weights, exploration, sampling).
    pub seed: u64,
}

impl Default for DdqnConfig {
    fn default() -> Self {
        Self {
            state_dim: 1,
            action_count: 2,
            hidden: vec![32, 32],
            learning_rate: 1e-3,
            gamma: 0.95,
            batch_size: 32,
            replay_capacity: 10_000,
            min_replay: 64,
            target_sync_every: 100,
            epsilon: EpsilonSchedule::default(),
            seed: 0,
        }
    }
}

impl DdqnConfig {
    fn validate(&self) -> msvs_types::Result<()> {
        use msvs_types::Error;
        if self.state_dim == 0 {
            return Err(Error::invalid_config("state_dim", "must be positive"));
        }
        if self.action_count < 2 {
            return Err(Error::invalid_config("action_count", "need >= 2 actions"));
        }
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err(Error::invalid_config("gamma", "must be in [0, 1]"));
        }
        if self.batch_size == 0 {
            return Err(Error::invalid_config("batch_size", "must be positive"));
        }
        if self.learning_rate <= 0.0 {
            return Err(Error::invalid_config("learning_rate", "must be positive"));
        }
        if self.min_replay < self.batch_size {
            return Err(Error::invalid_config(
                "min_replay",
                "must be at least batch_size",
            ));
        }
        if self.target_sync_every == 0 {
            return Err(Error::invalid_config(
                "target_sync_every",
                "must be positive",
            ));
        }
        Ok(())
    }
}

/// A DDQN agent: ε-greedy acting, uniform experience replay, double-Q
/// targets.
///
/// The *online* network selects the best next action; the *target* network
/// evaluates it. This decoupling removes the maximisation bias of vanilla
/// DQN, which matters here because grouping rewards are noisy.
pub struct DdqnAgent {
    config: DdqnConfig,
    online: Sequential,
    target: Sequential,
    optimizer: Adam,
    replay: ReplayBuffer,
    rng: StdRng,
    steps: u64,
    train_steps: u64,
    last_loss: Option<f32>,
    telemetry: Option<msvs_telemetry::Telemetry>,
}

impl std::fmt::Debug for DdqnAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DdqnAgent")
            .field("state_dim", &self.config.state_dim)
            .field("action_count", &self.config.action_count)
            .field("steps", &self.steps)
            .field("replay_len", &self.replay.len())
            .finish()
    }
}

impl DdqnAgent {
    /// Builds an agent from hyperparameters.
    ///
    /// # Errors
    /// Returns [`msvs_types::Error::InvalidConfig`] when any hyperparameter
    /// is out of range.
    pub fn new(config: DdqnConfig) -> msvs_types::Result<Self> {
        config.validate()?;
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        let mut in_dim = config.state_dim;
        let mut seed = config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(17);
        for &h in &config.hidden {
            layers.push(Box::new(Dense::new(in_dim, h, seed)));
            layers.push(Box::new(Relu::new()));
            in_dim = h;
            seed = seed.wrapping_add(1);
        }
        layers.push(Box::new(Dense::new(in_dim, config.action_count, seed)));
        let online = Sequential::new(layers);
        let target = online.clone();
        Ok(Self {
            optimizer: Adam::new(config.learning_rate),
            replay: ReplayBuffer::new(config.replay_capacity),
            rng: StdRng::seed_from_u64(config.seed),
            online,
            target,
            steps: 0,
            train_steps: 0,
            last_loss: None,
            telemetry: None,
            config,
        })
    }

    /// Wires the agent into an observability pipeline: training steps are
    /// timed into the `ddqn_train` stage histogram and reported as
    /// [`msvs_telemetry::Event::TrainingStepped`] journal events.
    pub fn attach_telemetry(&mut self, telemetry: msvs_telemetry::Telemetry) {
        self.telemetry = Some(telemetry);
    }

    /// The agent's configuration.
    pub fn config(&self) -> &DdqnConfig {
        &self.config
    }

    /// Total environment steps observed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Loss of the most recent training minibatch, if any.
    pub fn last_loss(&self) -> Option<f32> {
        self.last_loss
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f64 {
        self.config.epsilon.value(self.steps)
    }

    /// Q-values of all actions in `state` (online network).
    ///
    /// # Panics
    /// Panics if `state.len() != config.state_dim`.
    pub fn q_values(&mut self, state: &[f32]) -> Vec<f32> {
        assert_eq!(state.len(), self.config.state_dim, "state width mismatch");
        let x = Tensor::from_vec(state.to_vec(), vec![1, state.len()])
            .expect("shape matches by construction");
        self.online.infer(&x).row(0)
    }

    /// ε-greedy action selection.
    pub fn act(&mut self, state: &[f32]) -> usize {
        let eps = self.epsilon();
        if self.rng.gen::<f64>() < eps {
            self.rng.gen_range(0..self.config.action_count)
        } else {
            self.act_greedy(state)
        }
    }

    /// Greedy (exploitation-only) action selection.
    pub fn act_greedy(&mut self, state: &[f32]) -> usize {
        let q = self.q_values(state);
        q.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite q-values"))
            .map(|(i, _)| i)
            .expect("at least two actions")
    }

    /// Records a transition and, once the buffer is warm, performs one
    /// training step. Returns the minibatch loss when training occurred.
    ///
    /// # Panics
    /// Panics if the transition's action or state width is out of range.
    pub fn observe(&mut self, transition: Transition) -> Option<f32> {
        assert!(
            transition.action < self.config.action_count,
            "action out of range"
        );
        assert_eq!(
            transition.state.len(),
            self.config.state_dim,
            "state width mismatch"
        );
        self.steps += 1;
        self.replay.push(transition);
        if self.replay.len() < self.config.min_replay {
            return None;
        }
        let scope = self
            .telemetry
            .as_ref()
            .map(|t| t.stage_scope(msvs_telemetry::stages::DDQN_TRAIN));
        let loss = self.train_minibatch();
        drop(scope);
        self.last_loss = Some(loss);
        if let Some(t) = &self.telemetry {
            t.emit(msvs_telemetry::Event::TrainingStepped {
                loss: loss as f64,
                epsilon: self.epsilon(),
            });
        }
        Some(loss)
    }

    fn train_minibatch(&mut self) -> f32 {
        let batch_size = self.config.batch_size;
        let dim = self.config.state_dim;
        let actions = self.config.action_count;
        let gamma = self.config.gamma;

        let batch = self.replay.sample(&mut self.rng, batch_size);

        let mut states = Tensor::zeros(vec![batch_size, dim]);
        let mut next_states = Tensor::zeros(vec![batch_size, dim]);
        for (i, t) in batch.iter().enumerate() {
            for d in 0..dim {
                states.set2(i, d, t.state[d]);
                next_states.set2(i, d, t.next_state.get(d).copied().unwrap_or(0.0));
            }
        }

        // Double-Q target: a* from online net, value from target net.
        let q_next_online = self.online.infer(&next_states);
        let q_next_target = self.target.infer(&next_states);

        let q_pred = self.online.forward_train(&states);
        let mut target = q_pred.clone();
        let mut mask = Tensor::zeros(vec![batch_size, actions]);
        for (i, t) in batch.iter().enumerate() {
            let y = if t.done {
                t.reward
            } else {
                let a_star = q_next_online.argmax_row(i);
                t.reward + gamma * q_next_target.get2(i, a_star)
            };
            target.set2(i, t.action, y);
            mask.set2(i, t.action, 1.0);
        }

        let (loss, grad) = masked_mse_loss(&q_pred, &target, &mask);
        self.online.zero_grad();
        self.online.backward(&grad);
        self.optimizer.step(&mut self.online);

        self.train_steps += 1;
        if self
            .train_steps
            .is_multiple_of(self.config.target_sync_every)
        {
            self.target.clone_from(&self.online);
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bandit_config(seed: u64) -> DdqnConfig {
        DdqnConfig {
            state_dim: 2,
            action_count: 3,
            hidden: vec![16],
            learning_rate: 5e-3,
            min_replay: 32,
            batch_size: 16,
            epsilon: EpsilonSchedule::linear(1.0, 0.05, 200).unwrap(),
            seed,
            ..DdqnConfig::default()
        }
    }

    #[test]
    fn rejects_invalid_config() {
        assert!(DdqnAgent::new(DdqnConfig {
            state_dim: 0,
            ..DdqnConfig::default()
        })
        .is_err());
        assert!(DdqnAgent::new(DdqnConfig {
            action_count: 1,
            ..DdqnConfig::default()
        })
        .is_err());
        assert!(DdqnAgent::new(DdqnConfig {
            gamma: 1.5,
            ..DdqnConfig::default()
        })
        .is_err());
        assert!(DdqnAgent::new(DdqnConfig {
            min_replay: 8,
            batch_size: 32,
            ..DdqnConfig::default()
        })
        .is_err());
    }

    #[test]
    fn learns_contextual_bandit() {
        // Best action depends on which state component is hot.
        let mut agent = DdqnAgent::new(bandit_config(11)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..600 {
            let ctx = rng.gen_range(0..2usize);
            let state = if ctx == 0 {
                vec![1.0, 0.0]
            } else {
                vec![0.0, 1.0]
            };
            let action = agent.act(&state);
            let best = if ctx == 0 { 0 } else { 2 };
            let reward = if action == best { 1.0 } else { 0.0 };
            agent.observe(Transition {
                state,
                action,
                reward,
                next_state: vec![0.0, 0.0],
                done: true,
            });
        }
        assert_eq!(agent.act_greedy(&[1.0, 0.0]), 0);
        assert_eq!(agent.act_greedy(&[0.0, 1.0]), 2);
    }

    #[test]
    fn q_values_have_action_count_entries() {
        let mut agent = DdqnAgent::new(bandit_config(1)).unwrap();
        assert_eq!(agent.q_values(&[0.5, 0.5]).len(), 3);
    }

    #[test]
    fn no_training_until_min_replay() {
        let mut agent = DdqnAgent::new(bandit_config(2)).unwrap();
        for i in 0..31 {
            let l = agent.observe(Transition {
                state: vec![0.0, 0.0],
                action: 0,
                reward: 0.0,
                next_state: vec![0.0, 0.0],
                done: true,
            });
            assert!(l.is_none(), "step {i} trained too early");
        }
        let l = agent.observe(Transition {
            state: vec![0.0, 0.0],
            action: 0,
            reward: 0.0,
            next_state: vec![0.0, 0.0],
            done: true,
        });
        assert!(l.is_some(), "training should start at min_replay");
        assert_eq!(agent.last_loss(), l);
    }

    #[test]
    fn target_sync_copies_online_network_bit_for_bit() {
        let x = Tensor::from_vec(vec![0.3, -0.7], vec![1, 2]).unwrap();
        let mut agent = DdqnAgent::new(DdqnConfig {
            target_sync_every: 2,
            ..bandit_config(5)
        })
        .unwrap();
        let observe = |agent: &mut DdqnAgent, reward: f32| {
            agent.observe(Transition {
                state: vec![0.5, -0.5],
                action: 1,
                reward,
                next_state: vec![0.5, -0.5],
                done: false,
            })
        };
        for i in 0..32 {
            observe(&mut agent, i as f32 * 0.1);
        }
        // One training step: the online network moved, the target did not.
        assert_ne!(agent.online.infer(&x), agent.target.infer(&x));
        observe(&mut agent, 1.0);
        let (online, target) = (agent.online.infer(&x), agent.target.infer(&x));
        for (a, b) in online.data().iter().zip(target.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn epsilon_decays_with_steps() {
        let mut agent = DdqnAgent::new(bandit_config(3)).unwrap();
        let e0 = agent.epsilon();
        for _ in 0..100 {
            agent.observe(Transition {
                state: vec![0.0, 0.0],
                action: 0,
                reward: 0.0,
                next_state: vec![0.0, 0.0],
                done: true,
            });
        }
        assert!(agent.epsilon() < e0);
        assert_eq!(agent.steps(), 100);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut agent = DdqnAgent::new(bandit_config(42)).unwrap();
            let mut actions = Vec::new();
            for i in 0..100 {
                let s = vec![(i % 2) as f32, ((i + 1) % 2) as f32];
                let a = agent.act(&s);
                actions.push(a);
                agent.observe(Transition {
                    state: s,
                    action: a,
                    reward: a as f32,
                    next_state: vec![0.0, 0.0],
                    done: true,
                });
            }
            actions
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn learns_corridor_through_bootstrapped_targets() {
        // A 1-D corridor: start at 0, goal at 4; actions {left, right}.
        // Only the goal pays, so every earlier step's value comes from the
        // double-Q bootstrap over non-terminal transitions.
        const LEN: usize = 4;
        let obs = |pos: usize| vec![pos as f32 / LEN as f32];
        let mut agent = DdqnAgent::new(DdqnConfig {
            state_dim: 1,
            action_count: 2,
            hidden: vec![16],
            seed: 3,
            ..DdqnConfig::default()
        })
        .unwrap();
        for _episode in 0..60 {
            let mut pos = 0usize;
            for _step in 0..50 {
                let state = obs(pos);
                let action = agent.act(&state);
                pos = if action == 1 {
                    pos + 1
                } else {
                    pos.saturating_sub(1)
                };
                let done = pos >= LEN;
                agent.observe(Transition {
                    state,
                    action,
                    reward: if done { 1.0 } else { -0.05 },
                    next_state: obs(pos),
                    done,
                });
                if done {
                    break;
                }
            }
        }
        // Greedy policy should walk right from everywhere.
        for p in 0..LEN {
            assert_eq!(agent.act_greedy(&obs(p)), 1, "pos {p} should go right");
        }
    }

    #[test]
    #[should_panic(expected = "action out of range")]
    fn observe_rejects_bad_action() {
        let mut agent = DdqnAgent::new(bandit_config(4)).unwrap();
        agent.observe(Transition {
            state: vec![0.0, 0.0],
            action: 99,
            reward: 0.0,
            next_state: vec![0.0, 0.0],
            done: true,
        });
    }
}
