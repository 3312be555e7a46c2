//! The simulation's agents.
//!
//! "In the simulation, every peer is represented by a self-learning agent"
//! (Section IV) — but only the *rational* peers actually learn; altruistic
//! peers always share the most they can and behave constructively, while
//! irrational peers free-ride and vandalise (Section IV-B). [`CollabAgent`]
//! wraps the three cases behind a single `choose`/`learn` interface so the
//! engine does not branch on behaviour types.

use crate::action::CollabAction;
use crate::gametheory::behavior::BehaviorType;
use crate::rl::boltzmann::BoltzmannPolicy;
use crate::rl::qlearning::{QLearningAgent, QLearningParams};
use crate::rl::space::{ActionSpace, StateSpace};
use rand::RngCore;

/// The observable state an agent conditions its policy on: its reputation
/// bucket (the paper uses 10 buckets over `[R_min, 1]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentState {
    /// The reputation bucket index in `0..reputation_states`.
    pub bucket: usize,
}

impl AgentState {
    /// Buckets a sharing reputation into a state, following the paper's
    /// partition of `[R_min, 1]` into equal-width intervals.
    pub fn from_reputation(reputation: f64, min_reputation: f64, states: StateSpace) -> Self {
        Self {
            bucket: states.bucket(reputation, min_reputation, 1.0),
        }
    }
}

/// A peer-level agent: behaviour type plus (for rational peers) a learner.
#[derive(Debug, Clone)]
pub struct CollabAgent {
    behavior: BehaviorType,
    learner: Option<QLearningAgent>,
    /// Last chosen action (needed for the delayed Q-update once the reward
    /// for the step is known).
    last_action: Option<CollabAction>,
    /// State in which the last action was chosen.
    last_state: Option<AgentState>,
}

impl CollabAgent {
    /// Creates an agent of the given behaviour type. Rational agents get a
    /// fresh Q-learner over `states × 27` actions; the other types carry no
    /// learner.
    pub fn new(behavior: BehaviorType, states: StateSpace, params: QLearningParams) -> Self {
        let learner = match behavior {
            BehaviorType::Rational => Some(QLearningAgent::new(
                states,
                CollabAction::action_space(),
                params,
            )),
            BehaviorType::Altruistic | BehaviorType::Irrational => None,
        };
        Self {
            behavior,
            learner,
            last_action: None,
            last_state: None,
        }
    }

    /// The agent's behaviour type.
    pub fn behavior(&self) -> BehaviorType {
        self.behavior
    }

    /// Whether the agent learns (i.e. is rational).
    pub fn is_learning(&self) -> bool {
        self.learner.is_some()
    }

    /// Read access to the rational agent's Q-table (None for fixed-behaviour
    /// agents).
    pub fn learner(&self) -> Option<&QLearningAgent> {
        self.learner.as_ref()
    }

    /// The action space shared by all agents.
    pub fn action_space() -> ActionSpace {
        CollabAction::action_space()
    }

    /// Chooses the action for the current step.
    ///
    /// * Altruistic agents always return [`CollabAction::altruistic`].
    /// * Irrational agents always return [`CollabAction::irrational`].
    /// * Rational agents sample from the Boltzmann distribution over their
    ///   Q-values at the given `temperature`.
    pub fn choose(
        &mut self,
        state: AgentState,
        temperature: f64,
        rng: &mut dyn RngCore,
    ) -> CollabAction {
        let action = match self.behavior {
            BehaviorType::Altruistic => CollabAction::altruistic(),
            BehaviorType::Irrational => CollabAction::irrational(),
            BehaviorType::Rational => {
                let learner = self
                    .learner
                    .as_ref()
                    .expect("rational agents always carry a learner");
                let policy = BoltzmannPolicy::new(temperature);
                let index = learner.select_action(state.bucket, &policy, rng);
                CollabAction::from_index(index)
            }
        };
        self.last_action = Some(action);
        self.last_state = Some(state);
        action
    }

    /// Applies the Q-learning update for the reward observed after the last
    /// chosen action, transitioning to `next_state`. Fixed-behaviour agents
    /// ignore the call.
    ///
    /// # Panics
    ///
    /// Panics if called on a rational agent before any action was chosen.
    pub fn learn(&mut self, reward: f64, next_state: AgentState) {
        let Some(learner) = self.learner.as_mut() else {
            return;
        };
        let state = self
            .last_state
            .expect("learn() requires a prior choose() call");
        let action = self
            .last_action
            .expect("learn() requires a prior choose() call");
        learner.update(state.bucket, action.to_index(), reward, next_state.bucket);
    }

    /// The action the agent chose most recently, if any.
    pub fn last_action(&self) -> Option<CollabAction> {
        self.last_action
    }

    /// The rational agent's current greedy action for a state (None for
    /// fixed-behaviour agents) — used by the evaluation to report what a
    /// converged agent would do deterministically.
    pub fn greedy_action(&self, state: AgentState) -> Option<CollabAction> {
        self.learner
            .as_ref()
            .map(|l| CollabAction::from_index(l.greedy_action(state.bucket)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{EditBehavior, ShareLevel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn states() -> StateSpace {
        StateSpace::new(10)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    #[test]
    fn state_bucketing_matches_paper_partition() {
        let s = AgentState::from_reputation(0.05, 0.05, states());
        assert_eq!(s.bucket, 0);
        let s = AgentState::from_reputation(1.0, 0.05, states());
        assert_eq!(s.bucket, 9);
        let s = AgentState::from_reputation(0.5, 0.05, states());
        assert!(s.bucket >= 4 && s.bucket <= 5);
    }

    #[test]
    fn altruistic_agent_always_shares_everything() {
        let mut a = CollabAgent::new(
            BehaviorType::Altruistic,
            states(),
            QLearningParams::default(),
        );
        assert!(!a.is_learning());
        let mut r = rng();
        for _ in 0..10 {
            let action = a.choose(AgentState { bucket: 0 }, 1.0, &mut r);
            assert_eq!(action, CollabAction::altruistic());
        }
        assert_eq!(a.last_action(), Some(CollabAction::altruistic()));
        assert!(a.greedy_action(AgentState { bucket: 0 }).is_none());
    }

    #[test]
    fn irrational_agent_always_freerides_and_vandalises() {
        let mut a = CollabAgent::new(
            BehaviorType::Irrational,
            states(),
            QLearningParams::default(),
        );
        let mut r = rng();
        let action = a.choose(AgentState { bucket: 3 }, 1.0, &mut r);
        assert_eq!(action.bandwidth, ShareLevel::None);
        assert_eq!(action.articles, ShareLevel::None);
        assert_eq!(action.edit, EditBehavior::Destructive);
    }

    #[test]
    fn learn_is_a_noop_for_fixed_agents() {
        let mut a = CollabAgent::new(
            BehaviorType::Altruistic,
            states(),
            QLearningParams::default(),
        );
        // Does not panic even without a prior choose().
        a.learn(1.0, AgentState { bucket: 0 });
    }

    #[test]
    fn rational_agent_explores_all_actions_at_high_temperature() {
        let mut a = CollabAgent::new(BehaviorType::Rational, states(), QLearningParams::default());
        assert!(a.is_learning());
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2_000 {
            let action = a.choose(AgentState { bucket: 0 }, f64::MAX, &mut r);
            seen.insert(action.to_index());
        }
        assert_eq!(seen.len(), 27, "uniform exploration should hit all actions");
    }

    #[test]
    fn rational_agent_learns_to_prefer_rewarded_action() {
        let mut a = CollabAgent::new(BehaviorType::Rational, states(), QLearningParams::default());
        let mut r = rng();
        let state = AgentState { bucket: 2 };
        let target = CollabAction::altruistic();
        // Training: uniform exploration, reward only the target action.
        for _ in 0..3_000 {
            let action = a.choose(state, f64::MAX, &mut r);
            let reward = if action == target { 1.0 } else { 0.0 };
            a.learn(reward, state);
        }
        assert_eq!(a.greedy_action(state), Some(target));
        // Evaluation at T = 1 picks the learned action clearly more often
        // than the 1/27 ≈ 3.7 % a uniform policy would (the bootstrapped
        // Q-values of the other actions stay within ~1 reward unit of the
        // target, so the Boltzmann preference is moderate, not absolute).
        let picked = (0..500)
            .filter(|_| a.choose(state, 1.0, &mut r) == target)
            .count();
        assert!(picked > 40, "picked the learned action only {picked}/500");
    }

    #[test]
    #[should_panic(expected = "prior choose")]
    fn learn_before_choose_panics_for_rational_agents() {
        let mut a = CollabAgent::new(BehaviorType::Rational, states(), QLearningParams::default());
        a.learn(1.0, AgentState { bucket: 0 });
    }
}
