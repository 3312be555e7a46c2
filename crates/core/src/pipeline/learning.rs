//! Phase 6 — Q-learning updates.

use super::{worker_bounds, StepContext, StepPhase};
use crate::world::{ServiceReputation, SimWorld};

/// Every *online rational* agent applies its Q-update for the step's
/// reward, transitioning to the post-step state (its reputation bucket
/// after the sharing/editing contributions of this step).
///
/// The phase iterates the `online ∧ learners` bitset intersection:
/// fixed-behaviour agents ignore the update by construction, departed
/// peers took no action this step (there is no transition to learn from),
/// and adversary-forced peers did not *choose* their action either — their
/// learner is suspended while the strategy drives, so a forced step can
/// never be credited to the agent's own last choice.
///
/// Each update touches only that peer's Q-rows and reads only frozen step
/// state (the rewards vector and the post-step ledger), so the phase fans
/// contiguous peer ranges out over the intra-step workers via
/// [`AgentTable::split_mut`](crate::agent_table::AgentTable::split_mut) —
/// bit-identical at any worker count. The Q-values are bucket-major, so
/// consecutive learners in the same bucket update neighbouring rows.
pub struct LearningPhase;

impl StepPhase for LearningPhase {
    fn name(&self) -> &'static str {
        "learning"
    }

    fn execute(&self, world: &mut SimWorld, ctx: &mut StepContext) {
        let population = world.population();
        let threads = world.intra_step_threads().clamp(1, population.max(1));
        let SimWorld {
            agents,
            active,
            adversaries,
            ledger,
            propagated_service_reputation,
            config,
            states,
            ..
        } = world;
        let active = &*active;
        let forced = adversaries.forced_actions();
        let rewards: &[f64] = &ctx.rewards;
        // The post-step state: the peer's service-visible reputation bucket.
        let reputation =
            ServiceReputation::new(ledger, propagated_service_reputation, config, *states);
        let next_bucket = move |p: usize| reputation.state(p).bucket;

        if threads > 1 {
            let bounds = worker_bounds(population, threads);
            let shards = agents.split_mut(&bounds);
            std::thread::scope(|scope| {
                for mut shard in shards {
                    scope.spawn(move || {
                        for p in active.online().iter_range(shard.range()) {
                            if !shard.is_learning(p) || matches!(forced.get(p), Some(Some(_))) {
                                continue;
                            }
                            shard.learn(p, rewards[p], next_bucket(p));
                        }
                    });
                }
            });
        } else {
            for p in active.iter_online_learners() {
                if matches!(forced.get(p), Some(Some(_))) {
                    continue;
                }
                agents.learn(p, rewards[p], next_bucket(p));
            }
        }
    }
}
