//! The per-peer dual-reputation ledger.
//!
//! Every peer carries two reputation values (Section III-B of the paper):
//! `R_S(C_S)` for sharing articles and bandwidth and `R_E(C_E)` for voting
//! and editing. The ledger owns one `ContributionTracker` per peer and one
//! set of [`ContributionParams`] for all of them, maps contributions through
//! the configured [`ReputationFunction`]s, and tracks the rights (editing,
//! voting) that the punishment policy can revoke.
//!
//! The ledger plays the role of the "mechanism to safely propagate
//! reputation values" the paper assumes: it is a global oracle view. The
//! [`crate::reputation::propagation`] module provides decentralized alternatives whose
//! outputs can be written back into a ledger.

use crate::reputation::contribution::{
    ContributionParams, ContributionTracker, EditingAction, SharingAction,
};
use crate::reputation::function::{LogisticReputation, ReputationFunction};
use std::sync::Arc;

/// A snapshot of one peer's reputation-related state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerReputation {
    /// Sharing reputation `R_S`.
    pub(crate) sharing: f64,
    /// Editing/voting reputation `R_E`.
    pub(crate) editing: f64,
    /// Whether the peer currently holds editing rights.
    pub(crate) can_edit: bool,
    /// Whether the peer currently holds voting rights.
    pub(crate) can_vote: bool,
}

/// Internal per-peer record, shared with the sharded ledger.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PeerRecord {
    pub(crate) contributions: ContributionTracker,
    pub(crate) can_edit: bool,
    pub(crate) can_vote: bool,
    pub(crate) unsuccessful_votes: u32,
    pub(crate) declined_edits: u32,
}

impl PeerRecord {
    /// A newcomer record: zero contributions, full rights.
    pub(crate) fn new() -> Self {
        Self {
            contributions: ContributionTracker::default(),
            can_edit: true,
            can_vote: true,
            unsuccessful_votes: 0,
            declined_edits: 0,
        }
    }
}

/// The per-peer reputation interface shared by the dense
/// [`ReputationLedger`] and the [`ShardedLedger`](crate::reputation::sharded::ShardedLedger).
///
/// The simulation layer and the [`crate::reputation::punishment`] policies are written
/// against this trait so the storage layout (one dense vector vs.
/// independently lockable peer-range shards) is swappable without touching
/// the incentive logic. All methods address peers by their dense index.
pub trait ReputationStore {
    /// Number of peers tracked.
    fn len(&self) -> usize;

    /// Whether the store tracks no peers.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The minimum sharing reputation `R_S^min` (newcomer value).
    fn min_sharing_reputation(&self) -> f64;

    /// The minimum editing reputation `R_E^min` (newcomer value).
    fn min_editing_reputation(&self) -> f64;

    /// Sharing reputation `R_S` of a peer.
    fn sharing_reputation(&self, peer: usize) -> f64;

    /// Editing/voting reputation `R_E` of a peer.
    fn editing_reputation(&self, peer: usize) -> f64;

    /// Full snapshot of a peer's reputation state.
    fn peer(&self, peer: usize) -> PeerReputation;

    /// Records one time step of sharing activity for a peer.
    fn record_sharing(&mut self, peer: usize, action: &SharingAction);

    /// Records one time step of editing/voting outcomes for a peer.
    fn record_editing(&mut self, peer: usize, action: &EditingAction);

    /// Records an unsuccessful (against-majority) vote; returns the total.
    fn record_unsuccessful_vote(&mut self, peer: usize) -> u32;

    /// Records a declined edit and returns the new total.
    fn record_declined_edit(&mut self, peer: usize) -> u32;

    /// Number of unsuccessful votes a peer has accumulated.
    fn unsuccessful_votes(&self, peer: usize) -> u32;

    /// Number of declined edits a peer has accumulated.
    fn declined_edits(&self, peer: usize) -> u32;

    /// Whether the peer currently holds voting rights.
    fn can_vote(&self, peer: usize) -> bool;

    /// Whether the peer currently holds editing rights.
    fn can_edit(&self, peer: usize) -> bool;

    /// Revokes a peer's voting rights (malicious-voter punishment).
    fn revoke_voting_rights(&mut self, peer: usize);

    /// Restores voting rights and clears the unsuccessful-vote counter.
    fn restore_voting_rights(&mut self, peer: usize);

    /// Revokes editing rights and resets both reputations to the minimum.
    fn punish_malicious_editor(&mut self, peer: usize);

    /// Restores a peer's editing rights.
    fn restore_editing_rights(&mut self, peer: usize);

    /// Resets every peer's contribution values while keeping rights.
    fn reset_all_contributions(&mut self);
}

/// The reputation ledger for a whole population of peers.
///
/// Peers are addressed by dense indices `0..len()`; the simulation layer
/// maps its own peer identifiers onto these indices. Reputations are
/// evaluated from the contributions on every read.
#[derive(Clone)]
pub struct ReputationLedger {
    params: ContributionParams,
    sharing_fn: Arc<dyn ReputationFunction>,
    editing_fn: Arc<dyn ReputationFunction>,
    records: Vec<PeerRecord>,
}

impl std::fmt::Debug for ReputationLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReputationLedger")
            .field("peers", &self.records.len())
            .field("sharing_fn", &self.sharing_fn.name())
            .field("editing_fn", &self.editing_fn.name())
            .finish()
    }
}

impl ReputationLedger {
    /// Creates a ledger for `peers` peers using the paper's logistic
    /// reputation function (`g = 19`, `β = 0.2`) for both resource classes
    /// and the default contribution parameters.
    pub fn with_paper_defaults(peers: usize) -> Self {
        Self::new(
            peers,
            ContributionParams::default(),
            Arc::new(LogisticReputation::paper(0.2)),
            Arc::new(LogisticReputation::paper(0.2)),
        )
    }

    /// Creates a ledger with explicit contribution parameters and reputation
    /// functions (one per resource class).
    ///
    /// # Panics
    ///
    /// Panics if `peers` is zero or the parameters are invalid.
    pub fn new(
        peers: usize,
        params: ContributionParams,
        sharing_fn: Arc<dyn ReputationFunction>,
        editing_fn: Arc<dyn ReputationFunction>,
    ) -> Self {
        assert!(peers > 0, "ledger needs at least one peer");
        params.validate();
        Self {
            params,
            records: vec![PeerRecord::new(); peers],
            sharing_fn,
            editing_fn,
        }
    }

    /// Number of peers tracked.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Always false; the constructor rejects empty ledgers.
    pub(crate) fn is_empty(&self) -> bool {
        false
    }

    /// The minimum sharing reputation `R_S^min` (newcomer value).
    pub(crate) fn min_sharing_reputation(&self) -> f64 {
        self.sharing_fn.minimum()
    }

    /// The minimum editing reputation `R_E^min` (newcomer value).
    pub(crate) fn min_editing_reputation(&self) -> f64 {
        self.editing_fn.minimum()
    }

    /// Sharing reputation `R_S` of a peer.
    pub fn sharing_reputation(&self, peer: usize) -> f64 {
        self.sharing_fn
            .reputation_clamped(self.records[peer].contributions.sharing())
    }

    /// Editing/voting reputation `R_E` of a peer.
    pub fn editing_reputation(&self, peer: usize) -> f64 {
        self.editing_fn
            .reputation_clamped(self.records[peer].contributions.editing())
    }

    /// Full snapshot of a peer's reputation state.
    pub(crate) fn peer(&self, peer: usize) -> PeerReputation {
        PeerReputation {
            sharing: self.sharing_reputation(peer),
            editing: self.editing_reputation(peer),
            can_edit: self.records[peer].can_edit,
            can_vote: self.records[peer].can_vote,
        }
    }

    /// Records one time step of sharing activity for a peer.
    pub fn record_sharing(&mut self, peer: usize, action: &SharingAction) {
        self.records[peer]
            .contributions
            .record_sharing(&self.params, action);
    }

    /// Records one time step of editing/voting outcomes for a peer.
    pub(crate) fn record_editing(&mut self, peer: usize, action: &EditingAction) {
        self.records[peer]
            .contributions
            .record_editing(&self.params, action);
    }

    /// Records an unsuccessful (against-majority) vote and returns the new
    /// total.
    pub(crate) fn record_unsuccessful_vote(&mut self, peer: usize) -> u32 {
        self.records[peer].unsuccessful_votes += 1;
        self.records[peer].unsuccessful_votes
    }

    /// Records a declined edit and returns the new total.
    pub(crate) fn record_declined_edit(&mut self, peer: usize) -> u32 {
        self.records[peer].declined_edits += 1;
        self.records[peer].declined_edits
    }

    /// Number of unsuccessful votes a peer has accumulated.
    pub(crate) fn unsuccessful_votes(&self, peer: usize) -> u32 {
        self.records[peer].unsuccessful_votes
    }

    /// Number of declined edits a peer has accumulated.
    pub(crate) fn declined_edits(&self, peer: usize) -> u32 {
        self.records[peer].declined_edits
    }

    /// Whether the peer currently holds voting rights.
    pub(crate) fn can_vote(&self, peer: usize) -> bool {
        self.records[peer].can_vote
    }

    /// Whether the peer currently holds editing rights.
    pub fn can_edit(&self, peer: usize) -> bool {
        self.records[peer].can_edit
    }

    /// Revokes a peer's voting rights (malicious-voter punishment). The peer
    /// regains them through [`ReputationLedger::restore_voting_rights`] once
    /// it "contributes constructive edits first", as the paper puts it.
    pub(crate) fn revoke_voting_rights(&mut self, peer: usize) {
        self.records[peer].can_vote = false;
    }

    /// Restores a peer's voting rights and clears its unsuccessful-vote
    /// counter.
    pub(crate) fn restore_voting_rights(&mut self, peer: usize) {
        self.records[peer].can_vote = true;
        self.records[peer].unsuccessful_votes = 0;
    }

    /// Revokes a peer's editing rights and resets both of its reputations to
    /// the minimum, as the malicious-editor punishment of Section III-C3
    /// prescribes (`R_S = R_S^min`, `R_E = R_E^min`).
    pub(crate) fn punish_malicious_editor(&mut self, peer: usize) {
        let record = &mut self.records[peer];
        record.can_edit = false;
        record.contributions.reset();
        record.declined_edits = 0;
    }

    /// Restores a peer's editing rights (after it has rebuilt its sharing
    /// reputation above the editing threshold).
    pub(crate) fn restore_editing_rights(&mut self, peer: usize) {
        self.records[peer].can_edit = true;
    }

    /// Resets every peer's contribution values while keeping rights and the
    /// configured functions — the phase switch of the simulation model
    /// ("the reputation values are reset but the agents keep their
    /// Q-Matrices", Section IV-B).
    pub(crate) fn reset_all_contributions(&mut self) {
        for record in &mut self.records {
            record.contributions.reset();
            record.unsuccessful_votes = 0;
            record.declined_edits = 0;
        }
    }
}

impl ReputationStore for ReputationLedger {
    fn len(&self) -> usize {
        ReputationLedger::len(self)
    }
    fn is_empty(&self) -> bool {
        ReputationLedger::is_empty(self)
    }
    fn min_sharing_reputation(&self) -> f64 {
        ReputationLedger::min_sharing_reputation(self)
    }
    fn min_editing_reputation(&self) -> f64 {
        ReputationLedger::min_editing_reputation(self)
    }
    fn sharing_reputation(&self, peer: usize) -> f64 {
        ReputationLedger::sharing_reputation(self, peer)
    }
    fn editing_reputation(&self, peer: usize) -> f64 {
        ReputationLedger::editing_reputation(self, peer)
    }
    fn peer(&self, peer: usize) -> PeerReputation {
        ReputationLedger::peer(self, peer)
    }
    fn record_sharing(&mut self, peer: usize, action: &SharingAction) {
        ReputationLedger::record_sharing(self, peer, action);
    }
    fn record_editing(&mut self, peer: usize, action: &EditingAction) {
        ReputationLedger::record_editing(self, peer, action);
    }
    fn record_unsuccessful_vote(&mut self, peer: usize) -> u32 {
        ReputationLedger::record_unsuccessful_vote(self, peer)
    }
    fn record_declined_edit(&mut self, peer: usize) -> u32 {
        ReputationLedger::record_declined_edit(self, peer)
    }
    fn unsuccessful_votes(&self, peer: usize) -> u32 {
        ReputationLedger::unsuccessful_votes(self, peer)
    }
    fn declined_edits(&self, peer: usize) -> u32 {
        ReputationLedger::declined_edits(self, peer)
    }
    fn can_vote(&self, peer: usize) -> bool {
        ReputationLedger::can_vote(self, peer)
    }
    fn can_edit(&self, peer: usize) -> bool {
        ReputationLedger::can_edit(self, peer)
    }
    fn revoke_voting_rights(&mut self, peer: usize) {
        ReputationLedger::revoke_voting_rights(self, peer);
    }
    fn restore_voting_rights(&mut self, peer: usize) {
        ReputationLedger::restore_voting_rights(self, peer);
    }
    fn punish_malicious_editor(&mut self, peer: usize) {
        ReputationLedger::punish_malicious_editor(self, peer);
    }
    fn restore_editing_rights(&mut self, peer: usize) {
        ReputationLedger::restore_editing_rights(self, peer);
    }
    fn reset_all_contributions(&mut self) {
        ReputationLedger::reset_all_contributions(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(peers: usize) -> ReputationLedger {
        ReputationLedger::with_paper_defaults(peers)
    }

    #[test]
    fn newcomers_start_at_minimum_reputation() {
        let l = ledger(5);
        for p in 0..5 {
            assert!((l.sharing_reputation(p) - 0.05).abs() < 1e-12);
            assert!((l.editing_reputation(p) - 0.05).abs() < 1e-12);
            assert!(l.can_edit(p));
            assert!(l.can_vote(p));
        }
    }

    #[test]
    fn sharing_raises_sharing_reputation_only() {
        let mut l = ledger(2);
        l.record_sharing(
            0,
            &SharingAction {
                shared_articles: 50.0,
                shared_bandwidth: 1.0,
            },
        );
        assert!(l.sharing_reputation(0) > 0.5);
        assert!((l.editing_reputation(0) - 0.05).abs() < 1e-12);
        assert!((l.sharing_reputation(1) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn editing_raises_editing_reputation_only() {
        let mut l = ledger(1);
        for _ in 0..10 {
            l.record_editing(
                0,
                &EditingAction {
                    successful_votes: 1,
                    accepted_edits: 1,
                    attempted: true,
                },
            );
        }
        assert!(l.editing_reputation(0) > 0.5);
        assert!((l.sharing_reputation(0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn malicious_editor_punishment_resets_both_reputations() {
        let mut l = ledger(1);
        l.record_sharing(
            0,
            &SharingAction {
                shared_articles: 100.0,
                shared_bandwidth: 1.0,
            },
        );
        l.record_editing(
            0,
            &EditingAction {
                successful_votes: 5,
                accepted_edits: 5,
                attempted: true,
            },
        );
        assert!(l.sharing_reputation(0) > 0.9);
        l.punish_malicious_editor(0);
        assert!(!l.can_edit(0));
        assert!((l.sharing_reputation(0) - l.min_sharing_reputation()).abs() < 1e-12);
        assert!((l.editing_reputation(0) - l.min_editing_reputation()).abs() < 1e-12);
        l.restore_editing_rights(0);
        assert!(l.can_edit(0));
    }

    #[test]
    fn voting_rights_lifecycle() {
        let mut l = ledger(1);
        assert_eq!(l.record_unsuccessful_vote(0), 1);
        assert_eq!(l.record_unsuccessful_vote(0), 2);
        l.revoke_voting_rights(0);
        assert!(!l.can_vote(0));
        l.restore_voting_rights(0);
        assert!(l.can_vote(0));
        assert_eq!(l.unsuccessful_votes(0), 0);
    }

    #[test]
    fn declined_edit_counter() {
        let mut l = ledger(1);
        assert_eq!(l.record_declined_edit(0), 1);
        assert_eq!(l.declined_edits(0), 1);
    }

    #[test]
    fn reset_all_contributions_returns_to_minimum() {
        let mut l = ledger(3);
        for p in 0..3 {
            l.record_sharing(
                p,
                &SharingAction {
                    shared_articles: 30.0,
                    shared_bandwidth: 1.0,
                },
            );
        }
        l.reset_all_contributions();
        for p in 0..3 {
            assert!((l.sharing_reputation(p) - 0.05).abs() < 1e-12);
        }
    }

    #[test]
    fn custom_functions_are_used() {
        let l = ReputationLedger::new(
            1,
            ContributionParams::default(),
            Arc::new(LogisticReputation::new(9.0, 0.1)),
            Arc::new(LogisticReputation::new(4.0, 0.1)),
        );
        assert!((l.sharing_reputation(0) - 0.1).abs() < 1e-12);
        assert!((l.editing_reputation(0) - 0.2).abs() < 1e-12);
        assert_eq!(l.min_sharing_reputation(), 0.1);
        assert_eq!(l.min_editing_reputation(), 0.2);
    }

    #[test]
    #[should_panic(expected = "at least one peer")]
    fn empty_ledger_panics() {
        let _ = ReputationLedger::with_paper_defaults(0);
    }

    #[test]
    fn debug_format_mentions_function_names() {
        let l = ledger(2);
        let s = format!("{l:?}");
        assert!(s.contains("logistic"));
        assert!(s.contains("peers"));
    }
}
