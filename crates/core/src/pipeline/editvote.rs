//! Phase 4 — editing and voting.

use super::{StepContext, StepPhase};
use crate::action::EditBehavior;
use crate::adversary::VoteDirective;
use crate::netsim::article::EditKind;
use crate::netsim::peer::PeerId;
use crate::reputation::contribution::EditingAction;
use crate::reputation::punishment::PunishmentOutcome;
use crate::reputation::service::ServiceDifferentiation;
use crate::world::SimWorld;
use rand::seq::SliceRandom;
use rand::Rng;

/// Participating peers attempt edits on random articles; each edit is put
/// to a vote whose eligibility, weighting, acceptance majority and
/// punishments follow the configured incentive scheme. Editing/voting
/// contributions (`C_E`) are recorded afterwards.
///
/// Fills [`StepContext::successful_votes`], [`StepContext::accepted_edits`],
/// [`StepContext::attempted_editing`] and [`StepContext::voted_this_step`].
pub struct EditVotePhase;

/// The per-edit voter-pool buffers of [`EditVotePhase`], carried in
/// [`StepContext`] and rewritten for every edit so steady-state steps
/// allocate nothing in the vote loop (the last candidate of the
/// paper-scale performance pass: the non-restricted voter pool is
/// population-sized *per edit*).
#[derive(Debug, Clone, Default)]
pub struct VoteScratch {
    /// Every peer id in order, `0..population`: the unrestricted voter
    /// pool of an edit is this table copied around the editor.
    ids: Vec<PeerId>,
    /// The eligible voter set of the current edit.
    eligible: Vec<PeerId>,
    /// The eligible voters' editing reputations, index-aligned.
    reputations: Vec<f64>,
    /// The voting powers, index-aligned with `eligible`.
    powers: Vec<f64>,
    /// Dense indices of voters siding with the edit.
    favor: Vec<usize>,
    /// Dense indices of voters siding against the edit.
    against: Vec<usize>,
}

impl StepPhase for EditVotePhase {
    fn name(&self) -> &'static str {
        "edit-vote"
    }

    fn execute(&self, world: &mut SimWorld, ctx: &mut StepContext) {
        let population = world.population();
        for p in 0..population {
            let behavior = ctx.actions[p].edit;
            if !behavior.participates() {
                continue;
            }
            if !world.rng.gen_bool(world.config.edit_probability) {
                continue;
            }
            let editor = PeerId(p as u32);
            // A punished editor regains its editing right once its sharing
            // reputation has been rebuilt above the threshold θ — the paper's
            // punishment *is* the reputation reset, so the gate below is what
            // actually keeps the peer out until it contributes again. Both
            // gates read the *service-visible* reputation (the ledger, or
            // the propagation backend's estimate under
            // `reputation_source = propagated`).
            if !world.ledger.can_edit(p)
                && world.service_sharing_reputation(p) >= world.config.service.edit_threshold
            {
                world.ledger.restore_editing_rights(p);
            }
            if !world.ledger.can_edit(p) {
                continue;
            }
            if world.config.incentive.gated_editing()
                && !world.service.may_edit(world.service_sharing_reputation(p))
            {
                continue;
            }
            let editable = world.articles.editable_articles();
            let Some(&article_id) = editable.choose(&mut world.rng) else {
                continue;
            };
            let kind = match behavior {
                EditBehavior::Constructive => EditKind::Constructive,
                EditBehavior::Destructive => EditKind::Destructive,
                EditBehavior::Abstain => unreachable!("abstainers skipped above"),
            };
            let Some(edit_id) = world.articles.submit_edit(article_id, editor, kind) else {
                continue;
            };
            ctx.attempted_editing[p] = true;

            // --- The vote -------------------------------------------------
            // Voter pool: either the Section III-C2 design rule (previously
            // successful editors of this article) or the Section IV
            // simulation model (any peer may vote on any change), sampled
            // down to at most `max_voters_per_edit` voters. All per-edit
            // buffers live in the reused [`VoteScratch`]; contents, order
            // and RNG draws are identical to the freshly-allocated
            // vectors they replaced.
            let scratch = &mut ctx.vote_scratch;
            if world.config.restrict_voters_to_editors {
                world
                    .articles
                    .article(article_id)
                    .eligible_voters_into(editor, &mut scratch.eligible);
            } else {
                if scratch.ids.len() != population {
                    scratch.ids.clear();
                    scratch.ids.extend((0..population as u32).map(PeerId));
                }
                scratch.eligible.clear();
                scratch.eligible.extend_from_slice(&scratch.ids[..p]);
                scratch.eligible.extend_from_slice(&scratch.ids[p + 1..]);
            }
            let eligible = &mut scratch.eligible;
            if eligible.len() > world.config.max_voters_per_edit {
                eligible.shuffle(&mut world.rng);
                eligible.truncate(world.config.max_voters_per_edit);
                eligible.sort_unstable();
            }
            let mut in_favor = 0.0f64;
            let mut against = 0.0f64;
            scratch.favor.clear();
            scratch.against.clear();
            let favor_voters = &mut scratch.favor;
            let against_voters = &mut scratch.against;
            scratch.reputations.clear();
            scratch.reputations.extend(
                eligible
                    .iter()
                    .map(|v| world.ledger.editing_reputation(v.index())),
            );
            if world.config.incentive.weighted_voting() {
                world
                    .service
                    .voting_powers_into(&scratch.reputations, &mut scratch.powers);
            } else {
                ServiceDifferentiation::equal_shares_into(eligible.len(), &mut scratch.powers);
            }
            let powers = &scratch.powers;
            for (voter, &power) in eligible.iter().zip(powers.iter()) {
                let vi = voter.index();
                if world.config.incentive.punishes() && !world.ledger.can_vote(vi) {
                    continue;
                }
                // A voter's stance this step normally follows its own
                // chosen edit behaviour: constructive voters support
                // quality, destructive voters oppose it, abstainers stay
                // silent. Adversary units may override the stance
                // (collusive cross-voting, sybil slander); the override
                // resolves to `None` for every peer when no adversaries
                // are configured, leaving the honest path untouched.
                // Offline peers never vote: honest ones carry the idle
                // (Abstain) action while away, and the override is gated
                // here so a departed attacker cannot keep manipulating
                // votes either.
                let supports_edit = match world.adversaries.vote_stance(vi, p) {
                    Some(_) if !world.active.is_online(vi) => continue,
                    Some(VoteDirective::Support) => {
                        world.adversaries.note_override_vote(vi);
                        true
                    }
                    Some(VoteDirective::Oppose) => {
                        world.adversaries.note_override_vote(vi);
                        false
                    }
                    Some(VoteDirective::Abstain) => continue,
                    None => {
                        let stance = ctx.actions[vi].edit;
                        if !stance.participates() {
                            continue;
                        }
                        match (stance, kind) {
                            (EditBehavior::Constructive, EditKind::Constructive) => true,
                            (EditBehavior::Constructive, EditKind::Destructive) => false,
                            (EditBehavior::Destructive, EditKind::Constructive) => false,
                            (EditBehavior::Destructive, EditKind::Destructive) => true,
                            (EditBehavior::Abstain, _) => unreachable!("abstainers skipped above"),
                        }
                    }
                };
                ctx.voted_this_step[vi] = true;
                if supports_edit {
                    in_favor += power;
                    favor_voters.push(vi);
                } else {
                    against += power;
                    against_voters.push(vi);
                }
            }
            let accepted = if world.config.incentive.adaptive_majority() {
                world
                    .service
                    .edit_accepted(world.ledger.editing_reputation(p), in_favor, against)
            } else {
                in_favor + against > 0.0 && in_favor >= against
            };
            world.articles.resolve_edit(edit_id, accepted);

            // Editor outcome.
            if accepted {
                ctx.accepted_edits[p] += 1;
                world.accepted_since_punishment[p] += 1;
                if world.config.incentive.punishes() {
                    let since = world.accepted_since_punishment[p];
                    world.config.punishment.on_accepted_edit(
                        &mut world.ledger,
                        p,
                        since,
                        world.config.service.edit_threshold,
                    );
                }
            } else if world.config.incentive.punishes() {
                let outcome = world
                    .config
                    .punishment
                    .on_declined_edit(&mut world.ledger, p);
                if outcome == PunishmentOutcome::EditingRightsRevoked {
                    world.accepted_since_punishment[p] = 0;
                }
            }

            // Voter outcomes: voters on the winning side cast a successful
            // vote, losers an unsuccessful one (punished under the scheme).
            let (winners, losers): (&[usize], &[usize]) = if accepted {
                (favor_voters, against_voters)
            } else {
                (against_voters, favor_voters)
            };
            for &w in winners {
                ctx.successful_votes[w] += 1;
            }
            if world.config.incentive.punishes() {
                for &l in losers {
                    world
                        .config
                        .punishment
                        .on_unsuccessful_vote(&mut world.ledger, l);
                }
            }
        }

        // Editing/voting contribution accounting. Departed peers are
        // frozen: no record means no decay while away, so reputation
        // persists until re-entry. The online bitset yields the same
        // ascending peer order as the dense scan it replaces.
        for p in world.active.iter_online() {
            world.ledger.record_editing(
                p,
                &EditingAction {
                    successful_votes: ctx.successful_votes[p],
                    accepted_edits: ctx.accepted_edits[p],
                    attempted: ctx.attempted_editing[p] || ctx.voted_this_step[p],
                },
            );
        }
    }
}
