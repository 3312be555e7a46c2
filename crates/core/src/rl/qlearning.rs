//! The tabular Q-learning agent.
//!
//! Implements exactly the update rule the paper quotes (Section IV-A,
//! following Sutton & Barto):
//!
//! ```text
//! Q(s, a) ← (1 − α) · Q(s, a) + α · (r + γ · max_b Q(s′, b))
//! ```
//!
//! with learning rate `α`, discount factor `γ` and Boltzmann action
//! selection. The caller supplies the `BoltzmannPolicy` (the simulation
//! switches from uniform exploration during the training phase to a `T = 1`
//! policy afterwards).

use crate::rl::boltzmann::BoltzmannPolicy;
use crate::rl::qtable::QTable;
use crate::rl::space::{ActionSpace, StateSpace};

/// Hyper-parameters of the Q-learning update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QLearningParams {
    /// Learning rate `α ∈ (0, 1]`.
    pub learning_rate: f64,
    /// Discount factor `γ ∈ [0, 1]`.
    pub discount: f64,
    /// Initial Q-value for every state/action pair.
    pub initial_q: f64,
}

impl Default for QLearningParams {
    fn default() -> Self {
        Self {
            learning_rate: 0.1,
            discount: 0.9,
            initial_q: 0.0,
        }
    }
}

impl QLearningParams {
    /// Validates the parameter ranges, naming the offending field in the
    /// error message.
    pub(crate) fn check(&self) -> Result<(), String> {
        if !(self.learning_rate > 0.0 && self.learning_rate <= 1.0) {
            return Err("learning_rate must lie in (0, 1]".to_string());
        }
        if !(0.0..=1.0).contains(&self.discount) {
            return Err("discount must lie in [0, 1]".to_string());
        }
        if !self.initial_q.is_finite() {
            return Err("initial_q must be finite".to_string());
        }
        Ok(())
    }

    /// Panicking shim around [`QLearningParams::check`].
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate ∉ (0, 1]` or `discount ∉ [0, 1]`.
    pub(crate) fn validate(&self) {
        if let Err(message) = self.check() {
            panic!("{message}");
        }
    }
}

/// A tabular Q-learning agent.
#[derive(Debug, Clone, PartialEq)]
pub struct QLearningAgent {
    params: QLearningParams,
    table: QTable,
    updates: u64,
}

impl QLearningAgent {
    /// Creates an agent over the given state and action spaces.
    pub fn new(states: StateSpace, actions: ActionSpace, params: QLearningParams) -> Self {
        params.validate();
        Self {
            table: QTable::new(states, actions, params.initial_q),
            params,
            updates: 0,
        }
    }

    /// Read access to the Q-table.
    pub fn table(&self) -> &QTable {
        &self.table
    }

    /// Number of updates applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Selects an action in `state` using the supplied policy.
    pub(crate) fn select_action(
        &self,
        state: usize,
        policy: &BoltzmannPolicy,
        rng: &mut dyn rand::RngCore,
    ) -> usize {
        policy.select_action(self.table.row(state), rng)
    }

    /// Applies one Q-learning update for the transition
    /// `(state, action) → (reward, next_state)`.
    pub fn update(&mut self, state: usize, action: usize, reward: f64, next_state: usize) {
        debug_assert!(reward.is_finite(), "reward must be finite");
        let alpha = self.params.learning_rate;
        let gamma = self.params.discount;
        let old = self.table.get(state, action);
        let future = self.table.max_value(next_state);
        let new = (1.0 - alpha) * old + alpha * (reward + gamma * future);
        self.table.set(state, action, new);
        self.updates += 1;
    }

    /// The greedy action for a state.
    pub(crate) fn greedy_action(&self, state: usize) -> usize {
        self.table.greedy_action(state)
    }

    /// Greatest absolute Q-value, used as a convergence diagnostic.
    pub fn max_abs_q(&self) -> f64 {
        self.table
            .iter()
            .map(|(_, _, v)| v.abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn agent() -> QLearningAgent {
        QLearningAgent::new(
            StateSpace::new(3),
            ActionSpace::product(&[2]),
            QLearningParams::default(),
        )
    }

    #[test]
    fn update_matches_formula() {
        let mut a = agent();
        // Pre-set some future value.
        a.update(1, 0, 10.0, 1); // Q(1,0) = 0.9*0 + 0.1*(10 + 0.9*0) = 1.0
        assert!((a.table().get(1, 0) - 1.0).abs() < 1e-12);
        // Now update (0, 1) with next state 1 whose max is 1.0.
        a.update(0, 1, 2.0, 1);
        let expected = 0.9 * 0.0 + 0.1 * (2.0 + 0.9 * 1.0);
        assert!((a.table().get(0, 1) - expected).abs() < 1e-12);
        assert_eq!(a.updates(), 2);
    }

    #[test]
    fn repeated_reward_converges_to_fixed_point() {
        // A single state, single action, constant reward r: the fixed point
        // of the update is Q* = r / (1 - γ).
        let params = QLearningParams {
            learning_rate: 0.5,
            discount: 0.9,
            initial_q: 0.0,
        };
        let mut a = QLearningAgent::new(StateSpace::new(1), ActionSpace::product(&[1]), params);
        for _ in 0..2_000 {
            a.update(0, 0, 1.0, 0);
        }
        let fixed_point = 1.0 / (1.0 - 0.9);
        assert!(
            (a.table().get(0, 0) - fixed_point).abs() < 1e-6,
            "Q = {}",
            a.table().get(0, 0)
        );
    }

    #[test]
    fn q_values_respect_theoretical_bound() {
        let params = QLearningParams {
            learning_rate: 0.3,
            discount: 0.8,
            initial_q: 0.0,
        };
        let mut a = QLearningAgent::new(StateSpace::new(4), ActionSpace::product(&[3]), params);
        let mut rng = StdRng::seed_from_u64(20);
        // |Q| ≤ r_max / (1 − γ) for rewards bounded by r_max.
        let bound = 1.0 / (1.0 - 0.8);
        use rand::Rng;
        let mut state = 0usize;
        for _ in 0..10_000 {
            let action = rng.gen_range(0..3);
            let reward = rng.gen_range(-1.0..1.0);
            let next = rng.gen_range(0..4);
            a.update(state, action, reward, next);
            state = next;
        }
        assert!(a.max_abs_q() <= bound + 1e-9);
        assert!(a.table().is_finite());
    }

    #[test]
    fn greedy_learner_finds_better_action() {
        // Two actions in a single state: action 1 always pays 1, action 0
        // pays 0. After uniform exploration the greedy action must be 1.
        let mut a = QLearningAgent::new(
            StateSpace::new(1),
            ActionSpace::product(&[2]),
            QLearningParams::default(),
        );
        let mut rng = StdRng::seed_from_u64(8);
        let explore = BoltzmannPolicy::new(f64::MAX);
        for _ in 0..500 {
            let action = a.select_action(0, &explore, &mut rng);
            let reward = if action == 1 { 1.0 } else { 0.0 };
            a.update(0, action, reward, 0);
        }
        assert_eq!(a.greedy_action(0), 1);
    }

    #[test]
    #[should_panic(expected = "learning_rate")]
    fn invalid_learning_rate_panics() {
        let params = QLearningParams {
            learning_rate: 0.0,
            ..Default::default()
        };
        let _ = QLearningAgent::new(StateSpace::new(1), ActionSpace::product(&[1]), params);
    }

    #[test]
    #[should_panic(expected = "discount")]
    fn invalid_discount_panics() {
        let params = QLearningParams {
            discount: 1.5,
            ..Default::default()
        };
        let _ = QLearningAgent::new(StateSpace::new(1), ActionSpace::product(&[1]), params);
    }
}
