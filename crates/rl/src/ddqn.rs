//! The double deep Q-network agent.

use msvs_nn::{masked_mse_loss, Adam, Dense, Layer, Optimizer, Relu, Sequential, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::per::PrioritizedReplay;
use crate::replay::{ReplayBuffer, Transition};
use crate::schedule::EpsilonSchedule;

/// Prioritized-replay hyperparameters (see [`crate::per`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerConfig {
    /// Prioritisation strength in `[0, 1]` (0 = uniform).
    pub alpha: f64,
    /// Importance-sampling correction in `[0, 1]` (1 = unbiased).
    pub beta: f64,
}

impl Default for PerConfig {
    fn default() -> Self {
        Self {
            alpha: 0.6,
            beta: 0.4,
        }
    }
}

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
    /// Prioritized replay; `None` uses the uniform buffer.
    pub per: Option<PerConfig>,
    /// Use a dueling value/advantage head instead of a plain dense output
    /// layer (Wang et al., 2016).
    pub dueling: bool,
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
            per: None,
            dueling: false,
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
        if let Some(per) = self.per {
            if !(0.0..=1.0).contains(&per.alpha) || !(0.0..=1.0).contains(&per.beta) {
                return Err(Error::invalid_config(
                    "per",
                    "alpha and beta must be in [0, 1]",
                ));
            }
        }
        Ok(())
    }
}

enum ReplayKind {
    Uniform(ReplayBuffer),
    Prioritized(PrioritizedReplay),
}

impl ReplayKind {
    fn len(&self) -> usize {
        match self {
            ReplayKind::Uniform(b) => b.len(),
            ReplayKind::Prioritized(b) => b.len(),
        }
    }

    fn push(&mut self, t: Transition) {
        match self {
            ReplayKind::Uniform(b) => b.push(t),
            ReplayKind::Prioritized(b) => b.push(t),
        }
    }
}

/// A DDQN agent: ε-greedy acting, uniform or prioritized replay, double-Q
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
    replay: ReplayKind,
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
        if config.dueling {
            layers.push(Box::new(msvs_nn::DuelingHead::new(
                in_dim,
                config.action_count,
                seed,
            )));
        } else {
            layers.push(Box::new(Dense::new(in_dim, config.action_count, seed)));
        }
        let online = Sequential::new(layers);
        let target = online.clone();
        let replay = match config.per {
            Some(per) => ReplayKind::Prioritized(PrioritizedReplay::new(
                config.replay_capacity,
                per.alpha,
                per.beta,
            )),
            None => ReplayKind::Uniform(ReplayBuffer::new(config.replay_capacity)),
        };
        Ok(Self {
            optimizer: Adam::new(config.learning_rate),
            replay,
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
        // Inference path (no activation caching): routes through the
        // `infer_scratch` kernels, bit-identical to `forward(&x, false)`.
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

        let (batch, weights, indices): (Vec<Transition>, Vec<f32>, Option<Vec<usize>>) =
            match &self.replay {
                ReplayKind::Uniform(b) => {
                    let batch: Vec<Transition> = b
                        .sample(&mut self.rng, batch_size)
                        .into_iter()
                        .cloned()
                        .collect();
                    let n = batch.len();
                    (batch, vec![1.0; n], None)
                }
                ReplayKind::Prioritized(b) => {
                    let samples = b.sample(&mut self.rng, batch_size);
                    let batch = samples.iter().map(|s| s.transition.clone()).collect();
                    let weights = samples.iter().map(|s| s.weight).collect();
                    let indices = samples.iter().map(|s| s.index).collect();
                    (batch, weights, Some(indices))
                }
            };

        let mut states = Tensor::zeros(vec![batch_size, dim]);
        let mut next_states = Tensor::zeros(vec![batch_size, dim]);
        for (i, t) in batch.iter().enumerate() {
            for d in 0..dim {
                states.set2(i, d, t.state[d]);
                next_states.set2(i, d, t.next_state.get(d).copied().unwrap_or(0.0));
            }
        }

        // Double-Q target: a* from online net, value from target net.
        let q_next_online = self.online.forward(&next_states, false);
        let q_next_target = self.target.forward(&next_states, false);

        let q_pred = self.online.forward(&states, true);
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

        let (loss, mut grad) = masked_mse_loss(&q_pred, &target, &mask);
        // Importance-sampling correction and TD errors for PER.
        let mut td_errors = Vec::new();
        if indices.is_some() {
            td_errors.reserve(batch.len());
            for (i, t) in batch.iter().enumerate() {
                td_errors.push((q_pred.get2(i, t.action) - target.get2(i, t.action)) as f64);
                let w = weights[i];
                if w != 1.0 {
                    for a in 0..actions {
                        let g = grad.get2(i, a) * w;
                        grad.set2(i, a, g);
                    }
                }
            }
        }
        self.online.zero_grad();
        self.online.backward(&grad);
        self.optimizer.step(&mut self.online);
        if let (ReplayKind::Prioritized(b), Some(idx)) = (&mut self.replay, indices) {
            for (td, slot) in td_errors.iter().zip(idx) {
                b.update_priority(slot, *td);
            }
        }

        self.train_steps += 1;
        if self
            .train_steps
            .is_multiple_of(self.config.target_sync_every)
        {
            self.target.copy_params_from(&self.online);
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

#[cfg(test)]
mod per_agent_tests {
    use super::*;

    fn per_config(seed: u64) -> DdqnConfig {
        DdqnConfig {
            state_dim: 2,
            action_count: 3,
            hidden: vec![16],
            learning_rate: 5e-3,
            min_replay: 32,
            batch_size: 16,
            epsilon: EpsilonSchedule::linear(1.0, 0.05, 200).unwrap(),
            per: Some(PerConfig::default()),
            seed,
            ..DdqnConfig::default()
        }
    }

    #[test]
    fn per_agent_learns_contextual_bandit() {
        let mut agent = DdqnAgent::new(per_config(11)).unwrap();
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
    fn per_agent_is_deterministic_per_seed() {
        let run = || {
            let mut agent = DdqnAgent::new(per_config(9)).unwrap();
            let mut actions = Vec::new();
            for i in 0..120 {
                let s = vec![(i % 2) as f32, ((i + 1) % 2) as f32];
                let a = agent.act(&s);
                actions.push(a);
                agent.observe(Transition {
                    state: s,
                    action: a,
                    reward: (a == 1) as u8 as f32,
                    next_state: vec![0.0, 0.0],
                    done: true,
                });
            }
            actions
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn per_rejects_bad_hyperparameters() {
        let bad = DdqnConfig {
            per: Some(PerConfig {
                alpha: 1.5,
                beta: 0.4,
            }),
            ..DdqnConfig::default()
        };
        assert!(DdqnAgent::new(bad).is_err());
    }

    #[test]
    fn per_learns_rare_rewarding_event_faster() {
        // One state in fifty carries reward signal; PER should replay it
        // preferentially and identify the right action with fewer steps.
        let train = |per: Option<PerConfig>| {
            let mut agent = DdqnAgent::new(DdqnConfig {
                per,
                ..per_config(21)
            })
            .unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            for step in 0..400 {
                let rare = step % 25 == 0;
                let state = if rare { vec![1.0, 1.0] } else { vec![0.0, 0.0] };
                let action = agent.act(&state);
                let reward = if rare && action == 1 { 1.0 } else { 0.0 };
                let _ = rng.gen::<f64>();
                agent.observe(Transition {
                    state,
                    action,
                    reward,
                    next_state: vec![0.0, 0.0],
                    done: true,
                });
            }
            agent.act_greedy(&[1.0, 1.0])
        };
        // PER must solve it; uniform may or may not at this budget, so we
        // only assert the prioritized agent's success.
        assert_eq!(train(Some(PerConfig::default())), 1);
    }
}

#[cfg(test)]
mod dueling_agent_tests {
    use super::*;

    #[test]
    fn dueling_agent_learns_contextual_bandit() {
        let mut agent = DdqnAgent::new(DdqnConfig {
            state_dim: 2,
            action_count: 3,
            hidden: vec![16],
            learning_rate: 5e-3,
            min_replay: 32,
            batch_size: 16,
            epsilon: EpsilonSchedule::linear(1.0, 0.05, 200).unwrap(),
            dueling: true,
            seed: 13,
            ..DdqnConfig::default()
        })
        .unwrap();
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
    fn dueling_q_output_has_action_count_entries() {
        let mut agent = DdqnAgent::new(DdqnConfig {
            state_dim: 4,
            action_count: 6,
            dueling: true,
            ..DdqnConfig::default()
        })
        .unwrap();
        assert_eq!(agent.q_values(&[0.1, 0.2, 0.3, 0.4]).len(), 6);
    }
}
