//! Punishment of malicious voters and editors (Section III-C2/C3).
//!
//! Two punishments are defined by the paper:
//!
//! * **Malicious voters** — "if the number of a peer's unsuccessful votes,
//!   i.e. votes against the majority, exceeds a certain threshold it will
//!   lose its voting rights. To get any new rights, the peer has to
//!   contribute constructive edits first."
//! * **Malicious editors** — "if a peer has too many declined edits it will
//!   lose its editing right. This is done by setting its sharing reputation
//!   to the minimum value … In addition, the editing reputation drops to
//!   the minimum value as well."
//!
//! [`PunishmentPolicy`] holds the thresholds and applies the punishments to
//! any [`ReputationStore`] — the dense
//! [`ReputationLedger`](crate::reputation::ledger::ReputationLedger) or the
//! [`ShardedLedger`](crate::reputation::sharded::ShardedLedger).

use crate::reputation::ledger::ReputationStore;

/// What (if anything) a punishment check did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PunishmentOutcome {
    /// No threshold was exceeded.
    None,
    /// The peer lost its voting rights.
    VotingRightsRevoked,
    /// The peer lost its editing rights and both reputations were reset.
    EditingRightsRevoked,
}

/// Thresholds of the punishment mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PunishmentPolicy {
    /// Number of unsuccessful (against-majority) votes after which voting
    /// rights are revoked.
    pub(crate) max_unsuccessful_votes: u32,
    /// Number of declined edits after which editing rights are revoked and
    /// reputation is reset.
    pub(crate) max_declined_edits: u32,
    /// Number of accepted edits a punished voter must contribute before its
    /// voting rights are restored.
    pub(crate) edits_to_restore_voting: u32,
}

impl Default for PunishmentPolicy {
    fn default() -> Self {
        Self {
            max_unsuccessful_votes: 5,
            max_declined_edits: 3,
            edits_to_restore_voting: 1,
        }
    }
}

impl PunishmentPolicy {
    /// Validates the thresholds, naming the offending field in the error
    /// message.
    pub(crate) fn check(&self) -> Result<(), String> {
        if self.max_unsuccessful_votes == 0 {
            return Err("vote threshold must be positive".to_string());
        }
        if self.max_declined_edits == 0 {
            return Err("edit threshold must be positive".to_string());
        }
        if self.edits_to_restore_voting == 0 {
            return Err("restoration requirement must be positive".to_string());
        }
        Ok(())
    }

    /// Records an unsuccessful vote for `peer` in the ledger and revokes its
    /// voting rights if the threshold is now exceeded.
    pub fn on_unsuccessful_vote<L: ReputationStore + ?Sized>(
        &self,
        ledger: &mut L,
        peer: usize,
    ) -> PunishmentOutcome {
        let count = ledger.record_unsuccessful_vote(peer);
        if count > self.max_unsuccessful_votes && ledger.can_vote(peer) {
            ledger.revoke_voting_rights(peer);
            PunishmentOutcome::VotingRightsRevoked
        } else {
            PunishmentOutcome::None
        }
    }

    /// Records a declined edit for `peer` and applies the malicious-editor
    /// punishment (rights revoked, reputations reset) if the threshold is
    /// now exceeded.
    pub fn on_declined_edit<L: ReputationStore + ?Sized>(
        &self,
        ledger: &mut L,
        peer: usize,
    ) -> PunishmentOutcome {
        let count = ledger.record_declined_edit(peer);
        if count > self.max_declined_edits && ledger.can_edit(peer) {
            ledger.punish_malicious_editor(peer);
            PunishmentOutcome::EditingRightsRevoked
        } else {
            PunishmentOutcome::None
        }
    }

    /// Called when `peer` has an edit accepted: if the peer had lost voting
    /// rights and has now contributed `edits_to_restore_voting` constructive
    /// edits since, its voting rights are restored; if it had lost editing
    /// rights and its sharing reputation has recovered above
    /// `edit_threshold`, the editing rights come back too.
    pub(crate) fn on_accepted_edit<L: ReputationStore + ?Sized>(
        &self,
        ledger: &mut L,
        peer: usize,
        accepted_edits_since_punishment: u32,
        edit_threshold: f64,
    ) {
        if !ledger.can_vote(peer) && accepted_edits_since_punishment >= self.edits_to_restore_voting
        {
            ledger.restore_voting_rights(peer);
        }
        if !ledger.can_edit(peer) && ledger.sharing_reputation(peer) >= edit_threshold {
            ledger.restore_editing_rights(peer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reputation::contribution::SharingAction;
    use crate::reputation::ledger::ReputationLedger;

    fn ledger() -> ReputationLedger {
        ReputationLedger::with_paper_defaults(3)
    }

    #[test]
    fn votes_below_threshold_do_nothing() {
        let policy = PunishmentPolicy::default();
        let mut l = ledger();
        for _ in 0..policy.max_unsuccessful_votes {
            assert_eq!(
                policy.on_unsuccessful_vote(&mut l, 0),
                PunishmentOutcome::None
            );
        }
        assert!(l.can_vote(0));
    }

    #[test]
    fn exceeding_vote_threshold_revokes_rights_once() {
        let policy = PunishmentPolicy::default();
        let mut l = ledger();
        for _ in 0..policy.max_unsuccessful_votes {
            policy.on_unsuccessful_vote(&mut l, 0);
        }
        assert_eq!(
            policy.on_unsuccessful_vote(&mut l, 0),
            PunishmentOutcome::VotingRightsRevoked
        );
        assert!(!l.can_vote(0));
        // A further unsuccessful vote does not "re-revoke".
        assert_eq!(
            policy.on_unsuccessful_vote(&mut l, 0),
            PunishmentOutcome::None
        );
    }

    #[test]
    fn exceeding_edit_threshold_resets_reputation() {
        let policy = PunishmentPolicy::default();
        let mut l = ledger();
        l.record_sharing(
            1,
            &SharingAction {
                shared_articles: 100.0,
                shared_bandwidth: 1.0,
            },
        );
        assert!(l.sharing_reputation(1) > 0.9);
        for _ in 0..policy.max_declined_edits {
            assert_eq!(policy.on_declined_edit(&mut l, 1), PunishmentOutcome::None);
        }
        assert_eq!(
            policy.on_declined_edit(&mut l, 1),
            PunishmentOutcome::EditingRightsRevoked
        );
        assert!(!l.can_edit(1));
        assert!((l.sharing_reputation(1) - l.min_sharing_reputation()).abs() < 1e-12);
        assert!((l.editing_reputation(1) - l.min_editing_reputation()).abs() < 1e-12);
    }

    #[test]
    fn punishments_are_per_peer() {
        let policy = PunishmentPolicy::default();
        let mut l = ledger();
        for _ in 0..=policy.max_unsuccessful_votes {
            policy.on_unsuccessful_vote(&mut l, 0);
        }
        assert!(!l.can_vote(0));
        assert!(l.can_vote(1));
        assert!(l.can_vote(2));
    }

    #[test]
    fn accepted_edits_restore_voting_rights() {
        let policy = PunishmentPolicy::default();
        let mut l = ledger();
        for _ in 0..=policy.max_unsuccessful_votes {
            policy.on_unsuccessful_vote(&mut l, 0);
        }
        assert!(!l.can_vote(0));
        policy.on_accepted_edit(&mut l, 0, 1, 0.1);
        assert!(l.can_vote(0));
        assert_eq!(l.unsuccessful_votes(0), 0);
    }

    #[test]
    fn editing_rights_return_only_after_reputation_recovers() {
        let policy = PunishmentPolicy::default();
        let mut l = ledger();
        for _ in 0..=policy.max_declined_edits {
            policy.on_declined_edit(&mut l, 0);
        }
        assert!(!l.can_edit(0));
        // Reputation still at minimum: no restoration.
        policy.on_accepted_edit(&mut l, 0, 1, 0.1);
        assert!(!l.can_edit(0));
        // Peer rebuilds its sharing reputation above the threshold.
        l.record_sharing(
            0,
            &SharingAction {
                shared_articles: 20.0,
                shared_bandwidth: 1.0,
            },
        );
        policy.on_accepted_edit(&mut l, 0, 1, 0.1);
        assert!(l.can_edit(0));
    }

    #[test]
    fn zero_threshold_rejected() {
        let policy = PunishmentPolicy {
            max_unsuccessful_votes: 0,
            ..Default::default()
        };
        assert_eq!(
            policy.check(),
            Err("vote threshold must be positive".to_string())
        );
    }
}
