//! Phase 5 — utility computation and measurement.

use super::{StepContext, StepPhase};
use crate::action::EditBehavior;
use crate::gametheory::utility::{EditingObservation, SharingObservation};
use crate::world::SimWorld;

/// Computes every *online* peer's per-step reward `U = U_S + U_E` from the
/// step's observations, and accumulates the evaluation-phase measurements
/// while the world is in its measuring phase. Departed peers are absent:
/// their pre-filled reward stays zero and their accumulators do not advance
/// (`steps` counts presence, so the per-peer means stay means over online
/// steps) — the phase iterates the online bitset and never visits them.
///
/// Fills [`StepContext::rewards`] (consumed by the learning phase).
pub struct UtilityPhase;

impl StepPhase for UtilityPhase {
    fn name(&self) -> &'static str {
        "utility"
    }

    fn execute(&self, world: &mut SimWorld, ctx: &mut StepContext) {
        let utility = &world.config.utility;
        let measuring = world.measuring;
        let acc = &mut world.accumulators;
        // Offline peers keep the reset's pre-filled 0.0 reward.
        for p in world.active.iter_online() {
            let action = ctx.actions[p];
            let sharing = SharingObservation {
                source_upload: ctx.source_upload_seen[p],
                bandwidth_share: ctx.bandwidth_share[p].min(1.0),
                disk_share: action.articles.fraction(),
                own_upload: action.bandwidth.fraction(),
            };
            let editing = EditingObservation {
                successful_edits: ctx.accepted_edits[p],
                successful_votes: ctx.successful_votes[p],
            };
            let reward = utility.total_utility(&sharing, &editing);
            ctx.rewards[p] = reward;
            if !measuring {
                continue;
            }
            acc.shared_bandwidth_sum[p] += action.bandwidth.fraction();
            acc.shared_articles_sum[p] += action.articles.fraction();
            acc.downloaded_sum[p] += ctx.downloaded[p];
            acc.utility_sum[p] += reward;
            if ctx.attempted_editing[p] {
                match action.edit {
                    EditBehavior::Constructive => acc.constructive_edits[p] += 1,
                    EditBehavior::Destructive => acc.destructive_edits[p] += 1,
                    EditBehavior::Abstain => {}
                }
            }
            if ctx.voted_this_step[p] {
                acc.votes[p] += 1;
            }
            acc.steps[p] += 1;
        }
    }
}
