//! Phase 2 — applying sharing decisions.

use super::{OfferPlan, StepContext, StepPhase};
use crate::action::CollabAction;
use crate::netsim::peer::PeerId;
use crate::netsim::storage::ArticleStore;
use crate::reputation::contribution::{ContributionDelta, SharingAction};
use crate::world::{SimWorld, ARTICLE_CONTRIBUTION_UNITS, BANDWIDTH_CONTRIBUTION_UNITS};

/// Applies every *online* peer's sharing decision to the peer registry and
/// the article store, and records the step's sharing contribution (`C_S`)
/// in the reputation ledger.
///
/// Departed peers are skipped entirely (the online bitset drives the
/// collect stage): their registry offers and offered-article count were
/// zeroed at the departure boundary by
/// [`SimWorld::depart_peer`], and no delta means their ledger record is
/// frozen while away — reputation persists across the absence, which is
/// exactly what the churn re-entry experiments measure.
///
/// The phase runs the two-stage collect-then-apply protocol:
///
/// 1. **Collect** — workers walk shard-aligned peer ranges and, from
///    read-only state (the chosen actions and the article store), compute
///    each online peer's offered-article count and its
///    [`ContributionDelta`], bucketed per ledger shard in
///    [`StepContext::sharing_deltas`]. The stage draws no randomness and
///    no peer's result depends on another's, so any worker count produces
///    the same buckets in the same order.
/// 2. **Apply** — registry and store writes happen sequentially in peer
///    order; the contribution deltas are applied through
///    [`ShardedLedger::apply_parallel`](crate::reputation::sharded::ShardedLedger::apply_parallel),
///    bit-identical to a sequential apply.
pub struct SharingPhase;

/// Collects one online peer's sharing effects into its shard bucket and
/// plan.
fn collect_peer(
    peer: usize,
    actions: &[CollabAction],
    store: &ArticleStore,
    bucket: &mut Vec<ContributionDelta>,
    plan: &mut Vec<OfferPlan>,
) {
    let action = actions[peer];
    let id = PeerId(peer as u32);
    let held = store.held_count(id);
    let offered = (action.articles.fraction() * held as f64).round() as usize;
    plan.push((id, offered));

    // Contribution accounting. The paper leaves the units of
    // S_articles and S_bandwidth open; we scale both so that sharing
    // everything sits at C_S = 24 (R ≈ 0.87 on the Figure 1 logistic
    // curve with β = 0.2), a single fully shared resource at C_S = 12
    // (R ≈ 0.35) and free-riding at C_S = 0 (R = 0.05) — giving the
    // Q-learner a visible reputation gradient across participation
    // levels and across resource classes.
    bucket.push(ContributionDelta::sharing(
        peer,
        SharingAction {
            shared_articles: action.articles.fraction() * ARTICLE_CONTRIBUTION_UNITS,
            shared_bandwidth: action.bandwidth.fraction() * BANDWIDTH_CONTRIBUTION_UNITS,
        },
    ));
}

impl StepPhase for SharingPhase {
    fn name(&self) -> &'static str {
        "sharing"
    }

    fn execute(&self, world: &mut SimWorld, ctx: &mut StepContext) {
        let population = world.population();
        ctx.sharing_deltas.ensure(&world.ledger);
        let shard_size = world.ledger.shard_size();
        let shard_count = world.ledger.shard_count();
        let threads = world.intra_step_threads().clamp(1, shard_count);

        // Stage 1 — collect. Workers own disjoint shard-aligned peer
        // ranges; all reads go to state this phase does not mutate. The
        // plan buffers live in the context so steady-state steps reuse
        // their capacity.
        if ctx.offer_plans.len() != shard_count {
            ctx.offer_plans.resize_with(shard_count, Vec::new);
        }
        {
            let actions = &ctx.actions;
            let store = &world.store;
            let online = world.active.online();
            let plans = &mut ctx.offer_plans;
            let buckets = ctx.sharing_deltas.buckets_mut();
            let peers_of_shard = |shard: usize| {
                let start = shard * shard_size;
                start..((shard + 1) * shard_size).min(population)
            };
            if threads > 1 {
                let per_worker = shard_count.div_ceil(threads);
                std::thread::scope(|scope| {
                    let bucket_groups = buckets.chunks_mut(per_worker);
                    let plan_groups = plans.chunks_mut(per_worker);
                    for (worker, (bucket_group, plan_group)) in
                        bucket_groups.zip(plan_groups).enumerate()
                    {
                        scope.spawn(move || {
                            for (offset, (bucket, plan)) in
                                bucket_group.iter_mut().zip(plan_group).enumerate()
                            {
                                for p in
                                    online.iter_range(peers_of_shard(worker * per_worker + offset))
                                {
                                    collect_peer(p, actions, store, bucket, plan);
                                }
                            }
                        });
                    }
                });
            } else {
                for (shard, (bucket, plan)) in buckets.iter_mut().zip(plans.iter_mut()).enumerate()
                {
                    for p in online.iter_range(peers_of_shard(shard)) {
                        collect_peer(p, actions, store, bucket, plan);
                    }
                }
            }
        }

        // Stage 2 — apply. Registry/store writes go in peer order (shard
        // order × in-shard order = 0..population); ledger deltas are
        // applied shard-parallel.
        for plan in &mut ctx.offer_plans {
            for (id, offered) in plan.drain(..) {
                let action = ctx.actions[id.index()];
                let peer = world.peers.peer_mut(id);
                peer.set_shared_upload_fraction(action.bandwidth.fraction());
                peer.set_shared_articles(action.articles.article_count());
                world.store.set_offered_count(id, offered);
            }
        }
        world.ledger.apply_parallel(&ctx.sharing_deltas, threads);
    }
}
