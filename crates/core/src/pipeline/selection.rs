//! Phase 1 — action selection.

use super::{worker_bounds, StepContext, StepPhase};
use crate::action::CollabAction;
use crate::active::PeerBitset;
use crate::agent::AgentState;
use crate::agent_table::AgentShardMut;
use crate::gametheory::behavior::BehaviorType;
use crate::rl::boltzmann::{boltzmann_distribution_into, sample_probs_raw};
use crate::world::{ServiceReputation, SimWorld};
use rand::RngCore;

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
/// The phase runs in two stages:
///
/// 1. on the calling thread, one pass over the online bitset in peer order
///    counts the forced peers' steps and takes exactly one `next_u64` from
///    the step RNG per online, non-forced rational peer into
///    [`StepContext::selection_draws`] — the draws, in the order, that
///    sampling peer by peer takes;
/// 2. contiguous peer ranges, one per intra-step worker
///    ([`SimWorld::intra_step_threads`]), compute their peers' states and
///    actions from those draws, each writing its own slices of
///    [`StepContext::actions`] and [`StepContext::current_states`] and
///    recording choices through its own agent-table shard, with one
///    [`BoltzmannCache`] per worker. A peer's pick depends only on its own
///    row, state and draw, so the result is bit-identical at any worker
///    count. At one worker the stage runs inline on the whole table.
///
/// Fills [`StepContext::current_states`] and [`StepContext::actions`] in
/// place (no per-step allocation in steady state at one worker; the
/// worker split allocates what the learning phase's does).
pub struct SelectionPhase;

/// One selection worker's Boltzmann sampling buffers.
///
/// Under the training phase's `T = f64::MAX` the distribution is `1/n` for
/// *any* Q-row, so one shared vector serves every draw of the step. At a
/// finite temperature each draw computes its distribution into one reused
/// buffer: rational peers' Q-rows differ once learning has moved them, so
/// a per-bucket memo of the last row almost never hits in evaluation.
/// Either way the probabilities are exactly what
/// `boltzmann_distribution_into` produces, so the sampled stream is
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
    /// at the step temperature with the raw draw `raw` — the pick
    /// `BoltzmannPolicy::select_action` makes when its `next_u64` returns
    /// `raw`.
    ///
    /// `BoltzmannPolicy::select_action`: crate::rl::boltzmann::BoltzmannPolicy
    #[inline]
    pub fn sample(&mut self, row: &[f64], raw: u64) -> usize {
        if self.uniform {
            return sample_probs_raw(&self.uniform_probs, raw);
        }
        boltzmann_distribution_into(row, self.temperature, &mut self.probs);
        sample_probs_raw(&self.probs, raw)
    }
}

/// The read-only step state the selection workers share.
#[derive(Clone, Copy)]
struct SelectionInputs<'a> {
    online: &'a PeerBitset,
    forced: &'a [Option<CollabAction>],
    reputation: ServiceReputation<'a>,
    draws: &'a [u64],
}

/// Stage 2 over one shard: the states and actions of the shard's online
/// peers, written into the shard's `states` and `actions` slices (indexed
/// from the shard's first peer).
fn select_shard(
    inputs: SelectionInputs<'_>,
    agents: &mut AgentShardMut<'_>,
    cache: &mut BoltzmannCache,
    states: &mut [AgentState],
    actions: &mut [CollabAction],
) {
    let start = agents.range().start;
    for p in inputs.online.iter_range(agents.range()) {
        let state = inputs.reputation.state(p);
        states[p - start] = state;
        actions[p - start] = match inputs.forced.get(p) {
            // A forced peer does not consult its agent and records no
            // choice: its learner is suspended while the strategy drives.
            Some(Some(forced)) => *forced,
            _ => {
                let index = match agents.behavior(p) {
                    BehaviorType::Altruistic => CollabAction::altruistic().to_index(),
                    BehaviorType::Irrational => CollabAction::irrational().to_index(),
                    BehaviorType::Rational => {
                        cache.sample(agents.q_row(p, state.bucket), inputs.draws[p])
                    }
                };
                agents.record_choice(p, state.bucket, index);
                CollabAction::from_index(index)
            }
        };
    }
}

impl StepPhase for SelectionPhase {
    fn name(&self) -> &'static str {
        "selection"
    }

    fn execute(&self, world: &mut SimWorld, ctx: &mut StepContext) {
        let population = world.population();
        let threads = world.intra_step_threads().clamp(1, population.max(1));
        let action_count = world.agents.action_count();
        let StepContext {
            temperature,
            current_states,
            actions,
            selection_draws,
            boltzmann,
            ..
        } = ctx;
        // Pre-fill in place: offline peers keep the idle action and a
        // placeholder state (no downstream phase reads an offline peer's
        // state — utility and learning skip them via the same bitset).
        actions.clear();
        actions.resize(population, CollabAction::idle());
        current_states.clear();
        current_states.resize(population, AgentState { bucket: 0 });
        // Only the entries stage 1 writes this step are read, so the
        // column keeps its stale values and never shrinks.
        if selection_draws.len() < population {
            selection_draws.resize(population, 0);
        }
        if boltzmann.len() < threads {
            boltzmann.resize_with(threads, BoltzmannCache::default);
        }
        for cache in &mut boltzmann[..threads] {
            cache.begin_step(action_count, *temperature);
        }

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

        // Stage 1 — the step RNG's draws, sequentially in peer order.
        for p in active.iter_online() {
            if adversaries.forced_action(p).is_some() {
                adversaries.note_forced(p);
            } else if agents.is_learning(p) {
                selection_draws[p] = rng.next_u64();
            }
        }

        // Stage 2 — states, actions and choices, shard by shard.
        let inputs = SelectionInputs {
            online: active.online(),
            forced: adversaries.forced_actions(),
            reputation: ServiceReputation::new(
                ledger,
                propagated_service_reputation,
                config,
                *states,
            ),
            draws: selection_draws,
        };
        if threads > 1 {
            let bounds = worker_bounds(population, threads);
            let shards = agents.split_mut(&bounds);
            let mut states_rest = current_states.as_mut_slice();
            let mut actions_rest = actions.as_mut_slice();
            std::thread::scope(|scope| {
                for (mut shard, cache) in shards.into_iter().zip(boltzmann.iter_mut()) {
                    let len = shard.range().len();
                    let (states, states_tail) = states_rest.split_at_mut(len);
                    let (actions, actions_tail) = actions_rest.split_at_mut(len);
                    states_rest = states_tail;
                    actions_rest = actions_tail;
                    scope.spawn(move || select_shard(inputs, &mut shard, cache, states, actions));
                }
            });
        } else {
            select_shard(
                inputs,
                &mut agents.as_shard_mut(),
                &mut boltzmann[0],
                current_states,
                actions,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryPhase, AdversaryRegistry, AdversarySpec};
    use crate::config::SimulationConfig;
    use crate::gametheory::behavior::BehaviorMix;
    use crate::netsim::peer::PeerId;
    use crate::reputation::contribution::SharingAction;
    use crate::rl::boltzmann::{boltzmann_distribution, sample_probs};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A 301-peer world of all three behaviours at `threads` intra-step
    /// workers, with random Q-values, spread-out sharing reputations,
    /// every seventh peer offline and one adversary unit forcing its
    /// peers' actions. Everything but the worker count is the same for
    /// every `threads`.
    fn prepared_world(threads: usize) -> (SimWorld, StepContext) {
        let config = SimulationConfig {
            population: 301,
            intra_step_threads: threads,
            adversaries: vec![AdversarySpec::new("oscillating-freerider", 9)],
            mix: BehaviorMix::new(0.5, 0.25, 0.25),
            seed: 41,
            ..Default::default()
        };
        let mut world = SimWorld::with_adversary_registry(config, &AdversaryRegistry::standard())
            .expect("valid configuration");
        let mut rng = StdRng::seed_from_u64(7);
        let q: Vec<f64> = (0..world.agents.q_values().len())
            .map(|_| rng.gen_range(-3.0..3.0))
            .collect();
        let updates = world.agents.update_counts().to_vec();
        let last_states = world.agents.last_states_raw().to_vec();
        let last_actions = world.agents.last_actions_raw().to_vec();
        world
            .agents
            .restore_learning_state(q, &updates, &last_states, &last_actions);
        for p in 0..world.population() {
            let action = SharingAction {
                shared_articles: rng.gen_range(0.0..20.0),
                shared_bandwidth: rng.gen_range(0.0..1.0),
            };
            world.ledger.record_sharing(p, &action);
            if p % 7 == 3 {
                world.depart_peer(PeerId(p as u32), 0);
            }
        }
        let mut ctx = StepContext::new(world.population(), 1.0, 1);
        AdversaryPhase.execute(&mut world, &mut ctx);
        (world, ctx)
    }

    /// Everything the selection phase writes.
    fn selection_output(world: &SimWorld, ctx: &StepContext) -> impl PartialEq + std::fmt::Debug {
        (
            ctx.actions.clone(),
            ctx.current_states.clone(),
            world.agents.last_states_raw().to_vec(),
            world.agents.last_actions_raw().to_vec(),
            world.adversaries.units()[0].stats().forced_steps,
            world.rng.to_state(),
        )
    }

    #[test]
    fn selection_is_identical_at_any_worker_count() {
        let mut reference = None;
        for threads in 1..=4 {
            let (mut world, mut ctx) = prepared_world(threads);
            assert_eq!(world.intra_step_threads(), threads);
            let mut outputs = Vec::new();
            for temperature in [f64::MAX, 1.0] {
                ctx.temperature = temperature;
                SelectionPhase.execute(&mut world, &mut ctx);
                outputs.push(selection_output(&world, &ctx));
            }
            match &reference {
                None => {
                    // The world exercises what the test is about.
                    let behaviors: Vec<_> = (0..world.population())
                        .filter(|&p| world.active.is_online(p))
                        .map(|p| world.agents.behavior(p))
                        .collect();
                    for behavior in [
                        BehaviorType::Altruistic,
                        BehaviorType::Irrational,
                        BehaviorType::Rational,
                    ] {
                        assert!(behaviors.contains(&behavior), "{behavior:?}");
                    }
                    assert!(world.adversaries.units()[0].stats().forced_steps > 0);
                    let buckets: std::collections::BTreeSet<_> =
                        ctx.current_states.iter().map(|s| s.bucket).collect();
                    assert!(buckets.len() > 2, "reputations not spread: {buckets:?}");
                    reference = Some(outputs);
                }
                Some(reference) => assert_eq!(&outputs, reference, "{threads} workers"),
            }
        }
    }

    #[test]
    fn cache_sampling_is_the_policy_draw_from_the_same_stream() {
        let mut rows = StdRng::seed_from_u64(5);
        let mut stream = StdRng::seed_from_u64(3);
        let mut raws = StdRng::seed_from_u64(3);
        let mut cache = BoltzmannCache::default();
        for temperature in [f64::MAX, 1.0, 0.25] {
            cache.begin_step(5, temperature);
            for _ in 0..200 {
                let row: Vec<f64> = (0..5).map(|_| rows.gen_range(-2.0..2.0)).collect();
                let probs = boltzmann_distribution(&row, temperature);
                assert_eq!(
                    cache.sample(&row, raws.next_u64()),
                    sample_probs(&probs, &mut stream)
                );
            }
        }
        assert_eq!(stream.to_state(), raws.to_state());
    }
}
