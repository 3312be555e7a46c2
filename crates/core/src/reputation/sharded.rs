//! The sharded reputation ledger: peer-id-range shards updated by parallel
//! workers.
//!
//! The dense [`ReputationLedger`](crate::reputation::ledger::ReputationLedger) keeps the
//! whole population behind a single `&mut`, which serializes the hot
//! per-step sharing-contribution updates. The [`ShardedLedger`] splits the
//! population into contiguous peer-id ranges (`LedgerShard`s) that are
//! independently lockable units of parallelism: during a parallel apply
//! each shard is exclusively owned by one scoped worker thread, so no two
//! workers ever touch the same peer record.
//!
//! Sharing contributions follow the *collect-then-apply* protocol:
//!
//! 1. **Collect** — workers accumulate
//!    [`ContributionDelta`]s into a [`DeltaBatch`], which buckets them per
//!    shard. Buckets preserve push order, and parallel collectors fill
//!    shard-aligned buckets, so the merged batch is deterministic (shard
//!    order × in-shard push order) no matter how many workers collected.
//! 2. **Apply** — [`ShardedLedger::apply`] walks the shards in order;
//!    [`ShardedLedger::apply_parallel`] hands disjoint groups of shards to
//!    scoped threads. Because contribution accounting is per-peer
//!    independent, both paths produce bit-identical floating-point state.
//!
//! Editing outcomes, rights and punishments are written inline, one peer
//! at a time ([`ShardedLedger::record_editing`] and the other mutators).
//!
//! Each peer's record carries its `R_S` and `R_E` beside the contributions
//! they derive from. A reputation is re-evaluated only where its
//! contribution is written (and, in an apply, only when the contribution's
//! bits changed), so every read is a load: the phases read reputations
//! several times per peer per step, while each contribution changes at most
//! once. The values are derived, so checkpoints carry only the
//! contributions ([`PeerLedgerState`]) and a restore re-evaluates them.
//!
//! The ledger is `Sync`, so concurrent readers (the per-shard reputation
//! means of the `scale_population` bench, say) share a `&ShardedLedger`;
//! the borrow checker keeps any apply from running beside them.

use crate::reputation::contribution::{
    ContributionDelta, ContributionParams, EditingAction, SharingAction,
};
use crate::reputation::function::ReputationFunction;
use crate::reputation::ledger::{PeerRecord, PeerReputation, ReputationStore};
use std::sync::Arc;

/// Default target number of peers per shard used by the automatic shard
/// count ([`ShardedLedger::recommended_shards`]).
pub(crate) const TARGET_PEERS_PER_SHARD: usize = 4096;

/// Upper bound on the automatically chosen shard count.
pub(crate) const MAX_AUTO_SHARDS: usize = 64;

/// How a ledger turns recorded activity into reputation: the contribution
/// weights and one reputation function per resource class, held once per
/// ledger and lent to the apply workers.
#[derive(Clone)]
struct Scoring {
    params: ContributionParams,
    sharing_fn: Arc<dyn ReputationFunction>,
    editing_fn: Arc<dyn ReputationFunction>,
    /// `R_S(0)`, the value a newcomer record or a reset holds.
    newcomer_sharing: f64,
    /// `R_E(0)`, likewise.
    newcomer_editing: f64,
}

/// One peer's record in a shard: the ledger state plus the two reputations
/// derived from its contributions.
#[derive(Debug, Clone, Copy)]
struct ShardRecord {
    state: PeerRecord,
    /// `R_S(C_S)` of the current sharing contribution.
    sharing_reputation: f64,
    /// `R_E(C_E)` of the current editing contribution.
    editing_reputation: f64,
}

impl ShardRecord {
    fn newcomer(scoring: &Scoring) -> Self {
        Self {
            state: PeerRecord::new(),
            sharing_reputation: scoring.newcomer_sharing,
            editing_reputation: scoring.newcomer_editing,
        }
    }

    /// Records one step of sharing, re-evaluating `R_S` only if `C_S`
    /// changed.
    #[inline]
    fn record_sharing(&mut self, scoring: &Scoring, action: &SharingAction) {
        let before = self.state.contributions.sharing().to_bits();
        self.state
            .contributions
            .record_sharing(&scoring.params, action);
        if self.state.contributions.sharing().to_bits() != before {
            self.refresh_sharing(scoring);
        }
    }

    /// Records one step of editing and voting, re-evaluating `R_E` only if
    /// `C_E` changed.
    #[inline]
    fn record_editing(&mut self, scoring: &Scoring, action: &EditingAction) {
        let before = self.state.contributions.editing().to_bits();
        self.state
            .contributions
            .record_editing(&scoring.params, action);
        if self.state.contributions.editing().to_bits() != before {
            self.refresh_editing(scoring);
        }
    }

    fn refresh_sharing(&mut self, scoring: &Scoring) {
        self.sharing_reputation = scoring
            .sharing_fn
            .reputation_clamped(self.state.contributions.sharing());
    }

    fn refresh_editing(&mut self, scoring: &Scoring) {
        self.editing_reputation = scoring
            .editing_fn
            .reputation_clamped(self.state.contributions.editing());
    }

    /// Zeroes both contributions; the reputations become the newcomer
    /// values without an evaluation.
    fn reset_contributions(&mut self, scoring: &Scoring) {
        self.state.contributions.reset();
        self.sharing_reputation = scoring.newcomer_sharing;
        self.editing_reputation = scoring.newcomer_editing;
    }
}

/// One contiguous peer-id range of a [`ShardedLedger`].
///
/// A shard is the unit of exclusive ownership during a parallel apply: a
/// worker holding `&mut LedgerShard` can update its peers without any
/// coordination with the workers owning the other shards.
#[derive(Debug, Clone)]
pub(crate) struct LedgerShard {
    start: usize,
    records: Vec<ShardRecord>,
}

impl LedgerShard {
    fn new(start: usize, len: usize, scoring: &Scoring) -> Self {
        Self {
            start,
            records: vec![ShardRecord::newcomer(scoring); len],
        }
    }

    fn record(&self, peer: usize) -> &ShardRecord {
        &self.records[peer - self.start]
    }

    fn record_mut(&mut self, peer: usize) -> &mut ShardRecord {
        &mut self.records[peer - self.start]
    }

    /// Applies a bucket of deltas to this shard, in bucket order,
    /// re-evaluating `R_S` only where `C_S` changed.
    ///
    /// # Panics
    ///
    /// Panics if a delta's peer lies outside the shard's range.
    fn apply(&mut self, deltas: &[ContributionDelta], scoring: &Scoring) {
        for delta in deltas {
            self.record_mut(delta.peer)
                .record_sharing(scoring, &delta.sharing);
        }
    }
}

/// A batch of [`ContributionDelta`]s bucketed by ledger shard.
///
/// Create one sized to a ledger with [`DeltaBatch::for_ledger`], reuse it
/// across steps with [`DeltaBatch::clear`] (bucket capacity is retained, so
/// steady-state steps allocate nothing), and hand shard-aligned bucket
/// slices to parallel collectors via `DeltaBatch::buckets_mut`.
#[derive(Debug, Clone, Default)]
pub struct DeltaBatch {
    peers: usize,
    shard_size: usize,
    buckets: Vec<Vec<ContributionDelta>>,
}

impl DeltaBatch {
    /// An empty batch with the geometry of `ledger`.
    pub fn for_ledger(ledger: &ShardedLedger) -> Self {
        Self {
            peers: ledger.len(),
            shard_size: ledger.shard_size(),
            buckets: vec![Vec::new(); ledger.shard_count()],
        }
    }

    /// Whether the batch's geometry matches `ledger` — including the
    /// population, so two ledgers with equal shard geometry but different
    /// peer counts are still told apart (the apply asserts rely on this
    /// to fail with a clear message instead of a slice index panic).
    pub(crate) fn matches(&self, ledger: &ShardedLedger) -> bool {
        self.peers == ledger.len()
            && self.shard_size == ledger.shard_size()
            && self.buckets.len() == ledger.shard_count()
    }

    /// Re-sizes the batch to `ledger`'s geometry if it differs, clearing
    /// any buffered deltas in that case.
    pub(crate) fn ensure(&mut self, ledger: &ShardedLedger) {
        if !self.matches(ledger) {
            self.peers = ledger.len();
            self.shard_size = ledger.shard_size();
            self.buckets = vec![Vec::new(); ledger.shard_count()];
        }
    }

    /// Empties every bucket while keeping its capacity.
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
    }

    /// Buckets a delta by the shard its peer belongs to.
    ///
    /// # Panics
    ///
    /// Panics if the peer lies outside the ledger the batch was sized for.
    pub fn push(&mut self, delta: ContributionDelta) {
        let shard = delta.peer / self.shard_size;
        self.buckets[shard].push(delta);
    }

    /// The per-shard buckets, in shard order.
    pub(crate) fn buckets(&self) -> &[Vec<ContributionDelta>] {
        &self.buckets
    }

    /// Mutable access to the per-shard buckets, for shard-aligned parallel
    /// collectors (split with `chunks_mut` and hand each worker the buckets
    /// of the shards it owns).
    pub(crate) fn buckets_mut(&mut self) -> &mut [Vec<ContributionDelta>] {
        &mut self.buckets
    }
}

/// One peer's complete mutable ledger state — contribution values, raw
/// cumulative counters, rights and punishment counters — exported verbatim
/// for checkpointing. The reputation functions and contribution parameters
/// are construction-time configuration, and the reputations are derived
/// from the contributions, so neither is part of the state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PeerLedgerState {
    /// Current sharing contribution `C_S`.
    pub sharing: f64,
    /// Current editing/voting contribution `C_E`.
    pub editing: f64,
    /// Cumulative articles ever shared.
    pub(crate) total_articles: f64,
    /// Cumulative bandwidth ever shared.
    pub(crate) total_bandwidth: f64,
    /// Cumulative successful votes.
    pub(crate) total_votes: u64,
    /// Cumulative accepted edits.
    pub(crate) total_edits: u64,
    /// Whether the peer holds editing rights.
    pub(crate) can_edit: bool,
    /// Whether the peer holds voting rights.
    pub(crate) can_vote: bool,
    /// Accumulated unsuccessful votes.
    pub(crate) unsuccessful_votes: u32,
    /// Accumulated declined edits.
    pub(crate) declined_edits: u32,
}

/// The reputation ledger for a whole population, sharded by peer-id range.
///
/// Drop-in replacement for the dense
/// [`ReputationLedger`](crate::reputation::ledger::ReputationLedger) (both implement
/// [`ReputationStore`]) whose records live in independently lockable
/// `LedgerShard`s, unlocking intra-step parallel sharing-contribution
/// updates via [`ShardedLedger::apply_parallel`]. All single-peer
/// accessors return exactly the dense ledger's values; the reputation
/// reads are loads of the values the last write evaluated.
#[derive(Clone)]
pub struct ShardedLedger {
    scoring: Scoring,
    shards: Vec<LedgerShard>,
    shard_size: usize,
    peers: usize,
}

impl std::fmt::Debug for ShardedLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLedger")
            .field("peers", &self.peers)
            .field("shards", &self.shards.len())
            .field("shard_size", &self.shard_size)
            .field("sharing_fn", &self.scoring.sharing_fn.name())
            .field("editing_fn", &self.scoring.editing_fn.name())
            .finish()
    }
}

impl ShardedLedger {
    /// Creates a sharded ledger.
    ///
    /// `shards` is the shard count; `0` selects
    /// `ShardedLedger::recommended_shards` for the population. A shard
    /// count larger than the population is clamped to one peer per shard.
    /// Each reputation function is evaluated once, at zero contribution;
    /// every record starts at those newcomer values.
    ///
    /// # Panics
    ///
    /// Panics if `peers` is zero or the parameters are invalid.
    pub fn new(
        peers: usize,
        params: ContributionParams,
        sharing_fn: Arc<dyn ReputationFunction>,
        editing_fn: Arc<dyn ReputationFunction>,
        shards: usize,
    ) -> Self {
        assert!(peers > 0, "ledger needs at least one peer");
        params.validate();
        let scoring = Scoring {
            params,
            newcomer_sharing: sharing_fn.reputation_clamped(0.0),
            newcomer_editing: editing_fn.reputation_clamped(0.0),
            sharing_fn,
            editing_fn,
        };
        let shard_count = match shards {
            0 => Self::recommended_shards(peers),
            n => n.min(peers),
        };
        let shard_size = peers.div_ceil(shard_count);
        let shards = (0..shard_count)
            .map(|s| {
                let start = s * shard_size;
                let len = shard_size.min(peers.saturating_sub(start));
                LedgerShard::new(start, len, &scoring)
            })
            .collect();
        Self {
            scoring,
            shards,
            shard_size,
            peers,
        }
    }

    /// The automatic shard count for a population: one shard for small
    /// populations, then one per [`TARGET_PEERS_PER_SHARD`] peers rounded
    /// up to a power of two, capped at [`MAX_AUTO_SHARDS`].
    pub(crate) fn recommended_shards(peers: usize) -> usize {
        if peers <= TARGET_PEERS_PER_SHARD {
            1
        } else {
            peers
                .div_ceil(TARGET_PEERS_PER_SHARD)
                .next_power_of_two()
                .min(MAX_AUTO_SHARDS)
        }
    }

    /// Number of peers tracked.
    pub fn len(&self) -> usize {
        self.peers
    }

    /// Always false; the constructor rejects empty ledgers.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Peers per shard (the last shard may be smaller).
    pub(crate) fn shard_size(&self) -> usize {
        self.shard_size
    }

    fn record(&self, peer: usize) -> &ShardRecord {
        self.shards[peer / self.shard_size].record(peer)
    }

    /// The peer's record and the ledger's scoring, borrowed apart, for the
    /// writers of a contribution.
    fn record_mut(&mut self, peer: usize) -> (&mut ShardRecord, &Scoring) {
        let record = self.shards[peer / self.shard_size].record_mut(peer);
        (record, &self.scoring)
    }

    /// The peer's rights and counters, for the writers that leave the
    /// contributions alone.
    fn state_mut(&mut self, peer: usize) -> &mut PeerRecord {
        &mut self.shards[peer / self.shard_size].record_mut(peer).state
    }

    /// The minimum sharing reputation `R_S^min` (newcomer value).
    pub(crate) fn min_sharing_reputation(&self) -> f64 {
        self.scoring.sharing_fn.minimum()
    }

    /// The minimum editing reputation `R_E^min` (newcomer value).
    pub(crate) fn min_editing_reputation(&self) -> f64 {
        self.scoring.editing_fn.minimum()
    }

    /// Sharing reputation `R_S` of a peer.
    #[inline]
    pub fn sharing_reputation(&self, peer: usize) -> f64 {
        self.record(peer).sharing_reputation
    }

    /// Editing/voting reputation `R_E` of a peer.
    #[inline]
    pub fn editing_reputation(&self, peer: usize) -> f64 {
        self.record(peer).editing_reputation
    }

    /// Full snapshot of a peer's reputation state.
    pub(crate) fn peer(&self, peer: usize) -> PeerReputation {
        let record = self.record(peer);
        PeerReputation {
            sharing: record.sharing_reputation,
            editing: record.editing_reputation,
            can_edit: record.state.can_edit,
            can_vote: record.state.can_vote,
        }
    }

    /// Records one time step of sharing activity for a peer.
    pub fn record_sharing(&mut self, peer: usize, action: &SharingAction) {
        let (record, scoring) = self.record_mut(peer);
        record.record_sharing(scoring, action);
    }

    /// Records one time step of editing/voting outcomes for a peer.
    pub fn record_editing(&mut self, peer: usize, action: &EditingAction) {
        let (record, scoring) = self.record_mut(peer);
        record.record_editing(scoring, action);
    }

    /// Scales a peer's sharing contribution by `factor` (see
    /// `scale_sharing`)
    /// — the uptime-discount hook applied at churn re-entry.
    pub fn scale_sharing_contribution(&mut self, peer: usize, factor: f64) {
        let (record, scoring) = self.record_mut(peer);
        record.state.contributions.scale_sharing(factor);
        record.refresh_sharing(scoring);
    }

    /// Applies a batch of deltas shard-by-shard, in shard order.
    ///
    /// # Panics
    ///
    /// Panics if the batch geometry does not match this ledger.
    pub fn apply(&mut self, batch: &DeltaBatch) {
        assert!(batch.matches(self), "delta batch sized for another ledger");
        for (shard, bucket) in self.shards.iter_mut().zip(batch.buckets()) {
            shard.apply(bucket, &self.scoring);
        }
    }

    /// Applies a batch of deltas with up to `threads` scoped worker
    /// threads, each exclusively owning a contiguous group of shards.
    ///
    /// Bit-identical to [`ShardedLedger::apply`] for any thread count:
    /// buckets are disjoint per shard and applied in bucket order.
    ///
    /// # Panics
    ///
    /// Panics if the batch geometry does not match this ledger.
    pub fn apply_parallel(&mut self, batch: &DeltaBatch, threads: usize) {
        assert!(batch.matches(self), "delta batch sized for another ledger");
        let threads = threads.clamp(1, self.shards.len());
        if threads <= 1 {
            return self.apply(batch);
        }
        let per_worker = self.shards.len().div_ceil(threads);
        let scoring = &self.scoring;
        std::thread::scope(|scope| {
            let shard_groups = self.shards.chunks_mut(per_worker);
            let bucket_groups = batch.buckets().chunks(per_worker);
            for (shards, buckets) in shard_groups.zip(bucket_groups) {
                scope.spawn(move || {
                    for (shard, bucket) in shards.iter_mut().zip(buckets) {
                        shard.apply(bucket, scoring);
                    }
                });
            }
        });
    }

    /// Records an unsuccessful (against-majority) vote; returns the total.
    pub(crate) fn record_unsuccessful_vote(&mut self, peer: usize) -> u32 {
        let state = self.state_mut(peer);
        state.unsuccessful_votes += 1;
        state.unsuccessful_votes
    }

    /// Records a declined edit and returns the new total.
    pub(crate) fn record_declined_edit(&mut self, peer: usize) -> u32 {
        let state = self.state_mut(peer);
        state.declined_edits += 1;
        state.declined_edits
    }

    /// Number of unsuccessful votes a peer has accumulated.
    pub(crate) fn unsuccessful_votes(&self, peer: usize) -> u32 {
        self.record(peer).state.unsuccessful_votes
    }

    /// Number of declined edits a peer has accumulated.
    pub(crate) fn declined_edits(&self, peer: usize) -> u32 {
        self.record(peer).state.declined_edits
    }

    /// Whether the peer currently holds voting rights.
    pub(crate) fn can_vote(&self, peer: usize) -> bool {
        self.record(peer).state.can_vote
    }

    /// Whether the peer currently holds editing rights.
    pub(crate) fn can_edit(&self, peer: usize) -> bool {
        self.record(peer).state.can_edit
    }

    /// Revokes a peer's voting rights (malicious-voter punishment).
    pub(crate) fn revoke_voting_rights(&mut self, peer: usize) {
        self.state_mut(peer).can_vote = false;
    }

    /// Restores voting rights and clears the unsuccessful-vote counter.
    pub(crate) fn restore_voting_rights(&mut self, peer: usize) {
        let state = self.state_mut(peer);
        state.can_vote = true;
        state.unsuccessful_votes = 0;
    }

    /// Revokes editing rights and resets both reputations to the minimum
    /// (the malicious-editor punishment of Section III-C3).
    pub fn punish_malicious_editor(&mut self, peer: usize) {
        let (record, scoring) = self.record_mut(peer);
        record.reset_contributions(scoring);
        record.state.can_edit = false;
        record.state.declined_edits = 0;
    }

    /// Restores a peer's editing rights.
    pub(crate) fn restore_editing_rights(&mut self, peer: usize) {
        self.state_mut(peer).can_edit = true;
    }

    /// Resets one peer to the newcomer state: contributions zeroed,
    /// punishment counters cleared, voting and editing rights restored.
    /// This is what *whitewashing* looks like from the ledger's point of
    /// view — the old identity's record is replaced by a fresh one, so the
    /// peer re-enters at `R_min` with a clean slate.
    pub fn reset_peer_identity(&mut self, peer: usize) {
        let (record, scoring) = self.record_mut(peer);
        record.reset_contributions(scoring);
        record.state.unsuccessful_votes = 0;
        record.state.declined_edits = 0;
        record.state.can_vote = true;
        record.state.can_edit = true;
    }

    /// Resets every peer's contribution values while keeping rights (the
    /// phase switch of the simulation model).
    pub fn reset_all_contributions(&mut self) {
        for shard in &mut self.shards {
            for record in &mut shard.records {
                record.reset_contributions(&self.scoring);
                record.state.unsuccessful_votes = 0;
                record.state.declined_edits = 0;
            }
        }
    }

    /// Exports one peer's complete mutable state for checkpointing.
    pub fn export_peer_state(&self, peer: usize) -> PeerLedgerState {
        let record = &self.record(peer).state;
        let contributions = &record.contributions;
        PeerLedgerState {
            sharing: contributions.sharing(),
            editing: contributions.editing(),
            total_articles: contributions.total_articles(),
            total_bandwidth: contributions.total_bandwidth(),
            total_votes: contributions.total_votes(),
            total_edits: contributions.total_edits(),
            can_edit: record.can_edit,
            can_vote: record.can_vote,
            unsuccessful_votes: record.unsuccessful_votes,
            declined_edits: record.declined_edits,
        }
    }

    /// Overwrites one peer's mutable state with checkpointed values,
    /// verbatim (the exact inverse of [`ShardedLedger::export_peer_state`]),
    /// and re-evaluates both reputations from the restored contributions.
    pub fn restore_peer_state(&mut self, peer: usize, state: &PeerLedgerState) {
        let (shard_record, scoring) = self.record_mut(peer);
        let record = &mut shard_record.state;
        record.contributions.restore_values(
            state.sharing,
            state.editing,
            state.total_articles,
            state.total_bandwidth,
            state.total_votes,
            state.total_edits,
        );
        record.can_edit = state.can_edit;
        record.can_vote = state.can_vote;
        record.unsuccessful_votes = state.unsuccessful_votes;
        record.declined_edits = state.declined_edits;
        shard_record.refresh_sharing(scoring);
        shard_record.refresh_editing(scoring);
    }
}

impl ReputationStore for ShardedLedger {
    fn len(&self) -> usize {
        ShardedLedger::len(self)
    }
    fn is_empty(&self) -> bool {
        ShardedLedger::is_empty(self)
    }
    fn min_sharing_reputation(&self) -> f64 {
        ShardedLedger::min_sharing_reputation(self)
    }
    fn min_editing_reputation(&self) -> f64 {
        ShardedLedger::min_editing_reputation(self)
    }
    fn sharing_reputation(&self, peer: usize) -> f64 {
        ShardedLedger::sharing_reputation(self, peer)
    }
    fn editing_reputation(&self, peer: usize) -> f64 {
        ShardedLedger::editing_reputation(self, peer)
    }
    fn peer(&self, peer: usize) -> PeerReputation {
        ShardedLedger::peer(self, peer)
    }
    fn record_sharing(&mut self, peer: usize, action: &SharingAction) {
        ShardedLedger::record_sharing(self, peer, action);
    }
    fn record_editing(&mut self, peer: usize, action: &EditingAction) {
        ShardedLedger::record_editing(self, peer, action);
    }
    fn record_unsuccessful_vote(&mut self, peer: usize) -> u32 {
        ShardedLedger::record_unsuccessful_vote(self, peer)
    }
    fn record_declined_edit(&mut self, peer: usize) -> u32 {
        ShardedLedger::record_declined_edit(self, peer)
    }
    fn unsuccessful_votes(&self, peer: usize) -> u32 {
        ShardedLedger::unsuccessful_votes(self, peer)
    }
    fn declined_edits(&self, peer: usize) -> u32 {
        ShardedLedger::declined_edits(self, peer)
    }
    fn can_vote(&self, peer: usize) -> bool {
        ShardedLedger::can_vote(self, peer)
    }
    fn can_edit(&self, peer: usize) -> bool {
        ShardedLedger::can_edit(self, peer)
    }
    fn revoke_voting_rights(&mut self, peer: usize) {
        ShardedLedger::revoke_voting_rights(self, peer);
    }
    fn restore_voting_rights(&mut self, peer: usize) {
        ShardedLedger::restore_voting_rights(self, peer);
    }
    fn punish_malicious_editor(&mut self, peer: usize) {
        ShardedLedger::punish_malicious_editor(self, peer);
    }
    fn restore_editing_rights(&mut self, peer: usize) {
        ShardedLedger::restore_editing_rights(self, peer);
    }
    fn reset_all_contributions(&mut self) {
        ShardedLedger::reset_all_contributions(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reputation::function::LogisticReputation;
    use crate::reputation::ledger::ReputationLedger;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The paper's logistic function, counting its evaluations.
    #[derive(Default)]
    struct CountingLogistic {
        inner: LogisticReputation,
        calls: AtomicUsize,
    }

    impl CountingLogistic {
        fn calls(&self) -> usize {
            self.calls.load(Ordering::Relaxed)
        }
    }

    impl ReputationFunction for CountingLogistic {
        fn reputation(&self, contribution: f64) -> f64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.reputation(contribution)
        }
        fn minimum(&self) -> f64 {
            self.inner.minimum()
        }
        fn name(&self) -> &'static str {
            self.inner.name()
        }
    }

    fn sharded(peers: usize, shards: usize) -> ShardedLedger {
        ShardedLedger::new(
            peers,
            ContributionParams::default(),
            Arc::new(LogisticReputation::paper(0.2)),
            Arc::new(LogisticReputation::paper(0.2)),
            shards,
        )
    }

    #[test]
    fn shard_geometry_covers_the_population_exactly() {
        let l = sharded(10, 3);
        assert_eq!(l.shard_count(), 3);
        assert_eq!(l.shard_size(), 4);
        let ranges: Vec<_> = l
            .shards
            .iter()
            .map(|s| s.start..s.start + s.records.len())
            .collect();
        assert_eq!(ranges, [0..4, 4..8, 8..10]);
        for p in 0..10 {
            assert!(ranges[p / l.shard_size()].contains(&p));
        }
    }

    #[test]
    fn recommended_shards_scale_with_population() {
        assert_eq!(ShardedLedger::recommended_shards(100), 1);
        assert_eq!(ShardedLedger::recommended_shards(4096), 1);
        assert_eq!(ShardedLedger::recommended_shards(10_000), 4);
        assert_eq!(ShardedLedger::recommended_shards(50_000), 16);
        assert_eq!(ShardedLedger::recommended_shards(100_000), 32);
        assert_eq!(
            ShardedLedger::recommended_shards(10_000_000),
            MAX_AUTO_SHARDS
        );
    }

    #[test]
    fn oversized_shard_count_is_clamped_to_population() {
        let l = sharded(3, 16);
        assert_eq!(l.shard_count(), 3);
        assert_eq!(l.shard_size(), 1);
    }

    #[test]
    fn single_peer_accessors_match_the_dense_ledger() {
        let mut dense = ReputationLedger::with_paper_defaults(9);
        let mut shard = sharded(9, 4);
        for p in 0..9 {
            let s = SharingAction {
                shared_articles: p as f64 * 3.0,
                shared_bandwidth: 0.5,
            };
            let e = EditingAction {
                successful_votes: p as u32,
                accepted_edits: 1,
                attempted: true,
            };
            dense.record_sharing(p, &s);
            shard.record_sharing(p, &s);
            dense.record_editing(p, &e);
            shard.record_editing(p, &e);
        }
        for p in 0..9 {
            assert_eq!(dense.sharing_reputation(p), shard.sharing_reputation(p));
            assert_eq!(dense.editing_reputation(p), shard.editing_reputation(p));
            assert_eq!(dense.peer(p), shard.peer(p));
        }
    }

    #[test]
    fn batched_apply_matches_inline_recording() {
        let mut inline = sharded(12, 4);
        let mut batched = sharded(12, 4);
        let mut batch = DeltaBatch::for_ledger(&batched);
        for p in 0..12 {
            let action = SharingAction {
                shared_articles: (p % 4) as f64,
                shared_bandwidth: 1.0 / (p + 1) as f64,
            };
            inline.record_sharing(p, &action);
            batch.push(ContributionDelta::sharing(p, action));
        }
        batched.apply(&batch);
        for p in 0..12 {
            assert_eq!(inline.sharing_reputation(p), batched.sharing_reputation(p));
        }
    }

    #[test]
    fn parallel_apply_is_bit_identical_to_sequential_apply() {
        for threads in [1, 2, 3, 8] {
            let mut sequential = sharded(50, 8);
            let mut parallel = sharded(50, 8);
            let mut batch = DeltaBatch::for_ledger(&sequential);
            for step in 0..5u32 {
                batch.clear();
                for p in 0..50 {
                    if (p + step as usize) % 3 == 0 {
                        batch.push(ContributionDelta::sharing(
                            p,
                            SharingAction {
                                shared_articles: f64::from(step) + p as f64 / 7.0,
                                shared_bandwidth: 0.3,
                            },
                        ));
                    }
                    let editing = EditingAction {
                        successful_votes: step % 2,
                        accepted_edits: 0,
                        attempted: p % 2 == 0,
                    };
                    sequential.record_editing(p, &editing);
                    parallel.record_editing(p, &editing);
                }
                sequential.apply(&batch);
                parallel.apply_parallel(&batch, threads);
            }
            for p in 0..50 {
                assert_eq!(sequential.peer(p), parallel.peer(p));
            }
        }
    }

    /// The cost model: reads are loads, and a write (inline or applied)
    /// evaluates a reputation only where it changed its contribution.
    #[test]
    fn reputations_are_evaluated_on_contribution_change_not_on_read() {
        const PEERS: usize = 64;
        let sharing = Arc::new(CountingLogistic::default());
        let editing = Arc::new(CountingLogistic::default());
        let mut l = ShardedLedger::new(
            PEERS,
            ContributionParams::default(),
            sharing.clone(),
            editing.clone(),
            4,
        );
        let evaluations = || sharing.calls() + editing.calls();
        // One evaluation per function for the newcomer value, none per peer.
        assert_eq!(evaluations(), 2);

        let mut batch = DeltaBatch::for_ledger(&l);
        for step in 0..3u32 {
            let before: Vec<PeerLedgerState> = (0..PEERS).map(|p| l.export_peer_state(p)).collect();
            let (sharing_before, editing_before) = (sharing.calls(), editing.calls());
            batch.clear();
            for p in 0..PEERS {
                // Peers below 16 share a new level each step, those in
                // 16..32 repeat one level, the rest share nothing. Even
                // peers vote with the majority; odd peers stay idle, so
                // their `C_E` stays at 0.
                let level = match p {
                    0..=15 => f64::from(step + 1),
                    16..=31 => 2.0,
                    _ => 0.0,
                };
                batch.push(ContributionDelta::sharing(
                    p,
                    SharingAction {
                        shared_articles: level,
                        shared_bandwidth: 0.0,
                    },
                ));
                l.record_editing(
                    p,
                    &EditingAction {
                        successful_votes: u32::from(p % 2 == 0),
                        accepted_edits: 0,
                        attempted: p % 2 == 0,
                    },
                );
            }
            l.apply_parallel(&batch, 2);
            let changed = |what: fn(&PeerLedgerState) -> f64| {
                (0..PEERS)
                    .filter(|&p| {
                        what(&before[p]).to_bits() != what(&l.export_peer_state(p)).to_bits()
                    })
                    .count()
            };
            let sharing_changed = changed(|s| s.sharing);
            assert_eq!(sharing.calls() - sharing_before, sharing_changed);
            assert_eq!(sharing_changed, if step == 0 { 32 } else { 16 });
            assert_eq!(editing.calls() - editing_before, changed(|s| s.editing));
            assert_eq!(editing.calls() - editing_before, PEERS / 2);
        }

        // Reading every peer's reputations many times evaluates nothing.
        let before = evaluations();
        let mut sum = 0.0;
        for _ in 0..100 {
            for p in 0..PEERS {
                sum += l.sharing_reputation(p) + l.editing_reputation(p);
                sum += l.peer(p).sharing + l.peer(p).editing;
            }
        }
        assert!(sum > 0.0);
        assert_eq!(evaluations(), before);

        // An idle editor or sharer whose contribution stays at 0 costs
        // nothing, inline or batched; resets write the newcomer values
        // without evaluating.
        l.record_editing(1, &EditingAction::default());
        l.record_sharing(33, &SharingAction::default());
        batch.clear();
        batch.push(ContributionDelta::sharing(40, SharingAction::default()));
        l.apply(&batch);
        l.punish_malicious_editor(0);
        l.reset_peer_identity(2);
        l.reset_all_contributions();
        assert_eq!(evaluations(), before);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_record_with_both_reputations_is_80_bytes() {
        assert_eq!(std::mem::size_of::<ShardRecord>(), 80);
    }

    #[test]
    #[should_panic(expected = "beta_s")]
    fn invalid_contribution_params_are_rejected_at_construction() {
        let params = ContributionParams {
            beta_s: -1.0,
            ..Default::default()
        };
        let f = Arc::new(LogisticReputation::paper(0.2));
        let _ = ShardedLedger::new(4, params, f.clone(), f, 1);
    }

    #[test]
    fn delta_batch_reuse_keeps_geometry_and_clears_contents() {
        let l = sharded(20, 4);
        let mut batch = DeltaBatch::for_ledger(&l);
        batch.push(ContributionDelta::sharing(7, SharingAction::default()));
        let buffered = |b: &DeltaBatch| b.buckets().iter().map(Vec::len).sum::<usize>();
        assert_eq!(buffered(&batch), 1);
        batch.clear();
        assert_eq!(buffered(&batch), 0);
        assert!(batch.matches(&l));
        let smaller = sharded(6, 2);
        batch.ensure(&smaller);
        assert!(batch.matches(&smaller));
        assert_eq!(batch.buckets().len(), 2);
    }

    #[test]
    fn rights_lifecycle_matches_dense_semantics() {
        let mut l = sharded(10, 3);
        assert!(l.can_vote(9));
        assert_eq!(l.record_unsuccessful_vote(9), 1);
        l.revoke_voting_rights(9);
        assert!(!l.can_vote(9));
        l.restore_voting_rights(9);
        assert!(l.can_vote(9));
        assert_eq!(l.unsuccessful_votes(9), 0);
        l.record_sharing(
            9,
            &SharingAction {
                shared_articles: 100.0,
                shared_bandwidth: 1.0,
            },
        );
        assert!(l.sharing_reputation(9) > 0.9);
        assert_eq!(l.record_declined_edit(9), 1);
        l.punish_malicious_editor(9);
        assert!(!l.can_edit(9));
        assert_eq!(l.declined_edits(9), 0);
        assert_eq!(l.sharing_reputation(9), l.min_sharing_reputation());
        l.restore_editing_rights(9);
        assert!(l.can_edit(9));
    }

    #[test]
    fn reset_all_contributions_spans_every_shard() {
        let mut l = sharded(10, 4);
        for p in 0..10 {
            l.record_sharing(
                p,
                &SharingAction {
                    shared_articles: 30.0,
                    shared_bandwidth: 1.0,
                },
            );
        }
        l.reset_all_contributions();
        for p in 0..10 {
            assert_eq!(l.sharing_reputation(p), l.min_sharing_reputation());
        }
    }

    #[test]
    fn view_exposes_reads_and_is_shareable() {
        let mut l = sharded(8, 2);
        l.record_sharing(
            3,
            &SharingAction {
                shared_articles: 50.0,
                shared_bandwidth: 1.0,
            },
        );
        let shared = &l;
        let from_threads: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(move || shared.sharing_reputation(3)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(from_threads.iter().all(|&r| r == l.sharing_reputation(3)));
    }

    #[test]
    fn debug_format_mentions_shards() {
        let l = sharded(10, 2);
        let s = format!("{l:?}");
        assert!(s.contains("shards"));
        assert!(s.contains("logistic"));
    }

    #[test]
    #[should_panic(expected = "at least one peer")]
    fn empty_ledger_panics() {
        let _ = sharded(0, 0);
    }

    #[test]
    #[should_panic(expected = "another ledger")]
    fn mismatched_batch_is_rejected() {
        let mut l = sharded(10, 2);
        let other = sharded(30, 4);
        let batch = DeltaBatch::for_ledger(&other);
        l.apply(&batch);
    }

    #[test]
    #[should_panic(expected = "another ledger")]
    fn same_shard_geometry_different_population_is_rejected() {
        // 9 peers / 3 shards and 7 peers / 3 shards both have shard_size
        // 3; only the population comparison tells them apart, turning a
        // would-be out-of-bounds panic into the intended message.
        let nine = sharded(9, 3);
        let mut seven = sharded(7, 3);
        assert_eq!(nine.shard_size(), seven.shard_size());
        let mut batch = DeltaBatch::for_ledger(&nine);
        batch.push(ContributionDelta::sharing(8, SharingAction::default()));
        seven.apply(&batch);
    }
}
