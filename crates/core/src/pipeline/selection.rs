//! Phase 1 — action selection.

use super::{StepContext, StepPhase};
use crate::action::CollabAction;
use crate::agent::AgentState;
use crate::world::{ServiceReputation, SimWorld};
use collabsim_gametheory::behavior::BehaviorType;
use collabsim_rl::boltzmann::{boltzmann_distribution_into, sample_probs};

/// Every *online* agent observes its state (reputation bucket) and picks
/// its composite action: rational agents sample the Boltzmann distribution
/// over their Q-values at the step temperature, altruistic and irrational
/// agents return their fixed actions. Offline peers (departed under churn)
/// keep the pre-filled [`CollabAction::idle`] without being visited at all
/// — the phase iterates the online bitset, so a churn-free run draws
/// exactly as before and offline peers cost nothing. Peers under a forced
/// adversary action (set by the `adversary` phase this step) record that
/// action instead of consulting their agent — likewise without consuming
/// any randomness, so a run without adversaries draws exactly as before.
///
/// Fills [`StepContext::current_states`] and [`StepContext::actions`] in
/// place (no per-step allocation in steady state).
pub struct SelectionPhase;

/// The selection phase's Boltzmann sampling buffers.
///
/// Under the training phase's `T = f64::MAX` the distribution is `1/n` for
/// *any* Q-row, so one shared vector serves every draw of the step. At a
/// finite temperature each draw computes its distribution into one reused
/// buffer: rational peers' Q-rows differ once learning has moved them, so
/// a per-bucket memo of the last row almost never hits in evaluation.
/// Either way the probabilities are exactly what
/// [`boltzmann_distribution_into`] produces, so the sampled stream is
/// bit-identical to the unbuffered policy.
#[derive(Debug, Clone, Default)]
pub struct BoltzmannCache {
    temperature: f64,
    /// Whether the temperature takes `boltzmann_distribution`'s uniform
    /// shortcut.
    uniform: bool,
    uniform_probs: Vec<f64>,
    probs: Vec<f64>,
}

impl BoltzmannCache {
    /// Prepares the buffers for one step over `actions` actions at the
    /// step temperature.
    pub fn begin_step(&mut self, actions: usize, temperature: f64) {
        self.temperature = temperature;
        // Mirror of the uniform shortcut inside `boltzmann_distribution`.
        self.uniform = !temperature.is_finite() || temperature >= 1e300;
        if self.uniform && self.uniform_probs.len() != actions {
            self.uniform_probs.clear();
            self.uniform_probs.resize(actions, 1.0 / actions as f64);
        }
    }

    /// Samples an action index from the Boltzmann distribution over `row`
    /// at the step temperature, consuming exactly one `next_u64` — the
    /// same draw [`BoltzmannPolicy::select_action`] performs.
    ///
    /// [`BoltzmannPolicy::select_action`]: collabsim_rl::boltzmann::BoltzmannPolicy
    #[inline]
    pub fn sample(&mut self, row: &[f64], rng: &mut dyn rand::RngCore) -> usize {
        if self.uniform {
            return sample_probs(&self.uniform_probs, rng);
        }
        boltzmann_distribution_into(row, self.temperature, &mut self.probs);
        sample_probs(&self.probs, rng)
    }
}

impl StepPhase for SelectionPhase {
    fn name(&self) -> &'static str {
        "selection"
    }

    fn execute(&self, world: &mut SimWorld, ctx: &mut StepContext) {
        let population = world.population();
        // Pre-fill in place: offline peers keep the idle action and a
        // placeholder state (no downstream phase reads an offline peer's
        // state — utility and learning skip them via the same bitset).
        ctx.actions.clear();
        ctx.actions.resize(population, CollabAction::idle());
        ctx.current_states.clear();
        ctx.current_states
            .resize(population, AgentState { bucket: 0 });
        ctx.boltzmann
            .begin_step(world.agents.action_count(), ctx.temperature);

        // Split the world borrow: the loop reads the ledger/propagation
        // state, streams the agent table and draws from the step RNG.
        let SimWorld {
            agents,
            active,
            adversaries,
            rng,
            ledger,
            propagated_service_reputation,
            config,
            states,
            ..
        } = world;
        let reputation =
            ServiceReputation::new(ledger, propagated_service_reputation, config, *states);

        for p in active.iter_online() {
            let state = reputation.state(p);
            ctx.current_states[p] = state;
            let action = if let Some(forced) = adversaries.forced_action(p) {
                // A forced peer does not consult its agent and records no
                // choice (its learner is suspended while the strategy
                // drives) — and consumes no randomness.
                adversaries.note_forced(p);
                forced
            } else {
                match agents.behavior(p) {
                    BehaviorType::Altruistic => {
                        let action = CollabAction::altruistic();
                        agents.record_choice(p, state.bucket, action.to_index());
                        action
                    }
                    BehaviorType::Irrational => {
                        let action = CollabAction::irrational();
                        agents.record_choice(p, state.bucket, action.to_index());
                        action
                    }
                    BehaviorType::Rational => {
                        let row = agents.q_row(p, state.bucket);
                        let index = ctx.boltzmann.sample(row, rng);
                        agents.record_choice(p, state.bucket, index);
                        CollabAction::from_index(index)
                    }
                }
            };
            ctx.actions[p] = action;
        }
    }
}
