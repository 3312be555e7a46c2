//! Phase 5 — utility computation and measurement.

use super::{worker_bounds, StepContext, StepPhase};
use crate::action::{CollabAction, EditBehavior};
use crate::world::{AccumulatorShardMut, SimWorld};
use collabsim_gametheory::utility::{EditingObservation, SharingObservation, UtilityModel};

/// Computes every *online* peer's per-step reward `U = U_S + U_E` from the
/// step's observations, and accumulates the evaluation-phase measurements
/// while the world is in its measuring phase. Departed peers are absent:
/// their pre-filled reward stays zero and their accumulators do not advance
/// (`steps` counts presence, so the per-peer means stay means over online
/// steps) — the phase iterates the online bitset and never visits them.
///
/// Every peer's reward depends only on that peer's step observations, so
/// the phase fans contiguous peer ranges out over the intra-step workers
/// ([`SimWorld::intra_step_threads`]), each writing disjoint reward and
/// accumulator shards — bit-identical at any worker count.
///
/// Fills [`StepContext::rewards`] (consumed by the learning phase).
pub struct UtilityPhase;

/// One peer's reward, from read-only step observations.
#[inline]
fn peer_reward(
    utility: &UtilityModel,
    action: CollabAction,
    source_upload: f64,
    bandwidth_share: f64,
    accepted_edits: u32,
    successful_votes: u32,
) -> f64 {
    let sharing_obs = SharingObservation {
        source_upload,
        bandwidth_share: bandwidth_share.min(1.0),
        disk_share: action.articles.fraction(),
        own_upload: action.bandwidth.fraction(),
    };
    let editing_obs = EditingObservation {
        successful_edits: accepted_edits,
        successful_votes,
    };
    utility.total_utility(&sharing_obs, &editing_obs)
}

/// Accumulates one measured peer-step into an accumulator shard.
#[inline]
fn measure_peer(
    acc: &mut AccumulatorShardMut<'_>,
    p: usize,
    action: CollabAction,
    downloaded: f64,
    reward: f64,
    attempted_editing: bool,
    voted: bool,
) {
    let i = p - acc.start;
    acc.shared_bandwidth_sum[i] += action.bandwidth.fraction();
    acc.shared_articles_sum[i] += action.articles.fraction();
    acc.downloaded_sum[i] += downloaded;
    acc.utility_sum[i] += reward;
    if attempted_editing {
        match action.edit {
            EditBehavior::Constructive => acc.constructive_edits[i] += 1,
            EditBehavior::Destructive => acc.destructive_edits[i] += 1,
            EditBehavior::Abstain => {}
        }
    }
    if voted {
        acc.votes[i] += 1;
    }
    acc.steps[i] += 1;
}

impl StepPhase for UtilityPhase {
    fn name(&self) -> &'static str {
        "utility"
    }

    fn execute(&self, world: &mut SimWorld, ctx: &mut StepContext) {
        let population = world.population();
        let threads = world.intra_step_threads().clamp(1, population.max(1));
        let measuring = world.measuring;
        let SimWorld {
            active,
            accumulators,
            config,
            ..
        } = world;
        let active = &*active;
        let utility = &config.utility;
        let StepContext {
            actions,
            source_upload_seen,
            bandwidth_share,
            accepted_edits,
            successful_votes,
            downloaded,
            attempted_editing,
            voted_this_step,
            rewards,
            ..
        } = ctx;
        let actions = &*actions;
        let source_upload_seen = &*source_upload_seen;
        let bandwidth_share = &*bandwidth_share;
        let accepted_edits = &*accepted_edits;
        let successful_votes = &*successful_votes;
        let downloaded = &*downloaded;
        let attempted_editing = &*attempted_editing;
        let voted_this_step = &*voted_this_step;

        // Offline peers keep the reset's pre-filled 0.0 reward.
        let run_shard = |acc: &mut AccumulatorShardMut<'_>, chunk: &mut [f64]| {
            let start = acc.start;
            for p in active.online().iter_range(start..start + chunk.len()) {
                let action = actions[p];
                let reward = peer_reward(
                    utility,
                    action,
                    source_upload_seen[p],
                    bandwidth_share[p],
                    accepted_edits[p],
                    successful_votes[p],
                );
                chunk[p - start] = reward;
                if measuring {
                    measure_peer(
                        acc,
                        p,
                        action,
                        downloaded[p],
                        reward,
                        attempted_editing[p],
                        voted_this_step[p],
                    );
                }
            }
        };

        if threads > 1 {
            let bounds = worker_bounds(population, threads);
            let acc_shards = accumulators.split_mut(&bounds);
            // `rewards` splits along the same bounds so each worker owns
            // its range's chunk.
            let mut rest = rewards.as_mut_slice();
            let run_shard = &run_shard;
            std::thread::scope(|scope| {
                for (mut acc, window) in acc_shards.into_iter().zip(bounds.windows(2)) {
                    let (chunk, tail) = rest.split_at_mut(window[1] - window[0]);
                    rest = tail;
                    scope.spawn(move || run_shard(&mut acc, chunk));
                }
            });
        } else {
            run_shard(&mut accumulators.as_shard_mut(), rewards);
        }
    }
}
