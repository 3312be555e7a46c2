//! Property tests: the sharded ledger is observationally identical to the
//! dense ledger for arbitrary interleavings of sharing and editing
//! contributions — recorded inline, or with the sharing contributions
//! batched and batch-applied in parallel — and the reputations it stores
//! beside each record always equal a fresh evaluation of the contributions
//! it exports, whichever mutator wrote them last.

use collabsim_workspace::collabsim::reputation::contribution::{
    ContributionDelta, ContributionParams, EditingAction, SharingAction,
};
use collabsim_workspace::collabsim::reputation::function::{
    LogisticReputation, ReputationFunction,
};
use collabsim_workspace::collabsim::reputation::ledger::{ReputationLedger, ReputationStore};
use collabsim_workspace::collabsim::reputation::sharded::{DeltaBatch, ShardedLedger};
use proptest::prelude::*;
use std::sync::Arc;

fn dense(peers: usize) -> ReputationLedger {
    ReputationLedger::new(
        peers,
        ContributionParams::default(),
        Arc::new(LogisticReputation::paper(0.2)),
        Arc::new(LogisticReputation::paper(0.2)),
    )
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

/// Decodes one sampled op: which peer it hits, whether it is a sharing or
/// an editing contribution, and its magnitudes.
fn decode_op(
    op: (usize, u32, f64, f64),
    peers: usize,
) -> (usize, Option<SharingAction>, Option<EditingAction>) {
    let (peer_raw, kind, a, b) = op;
    let peer = peer_raw % peers;
    match kind % 4 {
        // Active sharing step.
        0 => (
            peer,
            Some(SharingAction {
                shared_articles: a * 100.0,
                shared_bandwidth: b,
            }),
            None,
        ),
        // Inactive sharing step (decay path).
        1 => (peer, Some(SharingAction::default()), None),
        // Active editing step.
        2 => (
            peer,
            None,
            Some(EditingAction {
                successful_votes: (a * 4.0) as u32,
                accepted_edits: (b * 3.0) as u32,
                attempted: true,
            }),
        ),
        // Inactive editing step (decay path).
        _ => (peer, None, Some(EditingAction::default())),
    }
}

/// Bitwise comparison of every observable reputation value.
fn assert_ledgers_identical(dense: &ReputationLedger, sharded: &ShardedLedger) {
    assert_eq!(ReputationStore::len(dense), sharded.len());
    for p in 0..sharded.len() {
        assert_eq!(
            dense.sharing_reputation(p).to_bits(),
            sharded.sharing_reputation(p).to_bits(),
            "sharing reputation of peer {p} diverged"
        );
        assert_eq!(
            dense.editing_reputation(p).to_bits(),
            sharded.editing_reputation(p).to_bits(),
            "editing reputation of peer {p} diverged"
        );
    }
}

/// Bitwise comparison of every peer's stored reputations with the
/// reputation function evaluated on its exported contributions.
fn assert_reputations_follow_contributions(
    ledger: &ShardedLedger,
    f: &LogisticReputation,
    op: usize,
    what: &str,
) {
    for p in 0..ledger.len() {
        let state = ledger.export_peer_state(p);
        assert_eq!(
            ledger.sharing_reputation(p).to_bits(),
            f.reputation_clamped(state.sharing).to_bits(),
            "sharing reputation of peer {p} is stale after op {op} ({what})"
        );
        assert_eq!(
            ledger.editing_reputation(p).to_bits(),
            f.reputation_clamped(state.editing).to_bits(),
            "editing reputation of peer {p} is stale after op {op} ({what})"
        );
    }
}

/// Pushes one decoded sharing op into a batch, or records one decoded
/// editing op inline.
fn push_op(
    batch: &mut DeltaBatch,
    ledger: &mut ShardedLedger,
    op: (usize, u32, f64, f64),
    peers: usize,
) {
    let (peer, sharing, editing) = decode_op(op, peers);
    if let Some(action) = sharing {
        batch.push(ContributionDelta::sharing(peer, action));
    }
    if let Some(action) = editing {
        ledger.record_editing(peer, &action);
    }
}

proptest! {
    /// Inline recording through the common `ReputationStore` interface:
    /// the sharded ledger tracks the dense one exactly, op for op.
    #[test]
    fn inline_recording_matches_dense(
        peers in 1usize..40,
        shards in 1usize..9,
        ops in proptest::collection::vec((0usize..40, 0u32..4, 0.0f64..1.0, 0.0f64..1.0), 0..120),
    ) {
        let mut reference = dense(peers);
        let mut tested = sharded(peers, shards);
        for &op in &ops {
            let (peer, sharing, editing) = decode_op(op, peers);
            if let Some(action) = sharing {
                reference.record_sharing(peer, &action);
                tested.record_sharing(peer, &action);
            }
            if let Some(action) = editing {
                reference.record_editing(peer, &action);
                tested.record_editing(peer, &action);
            }
        }
        assert_ledgers_identical(&reference, &tested);
    }

    /// The collect-then-apply protocol: ops are grouped into arbitrary
    /// steps; each step's sharing ops are bucketed per shard and applied
    /// both sequentially and with parallel workers, and its editing ops are
    /// recorded inline — both executions must agree bitwise with the dense
    /// ledger recording the same interleaving inline.
    #[test]
    fn batched_and_parallel_apply_match_dense(
        peers in 1usize..40,
        shards in 1usize..9,
        threads in 1usize..5,
        step_len in 1usize..16,
        ops in proptest::collection::vec((0usize..40, 0u32..4, 0.0f64..1.0, 0.0f64..1.0), 0..120),
    ) {
        let mut reference = dense(peers);
        let mut sequential = sharded(peers, shards);
        let mut parallel = sharded(peers, shards);
        let mut batch_sequential = DeltaBatch::for_ledger(&sequential);
        let mut batch_parallel = DeltaBatch::for_ledger(&parallel);
        for step in ops.chunks(step_len) {
            batch_sequential.clear();
            batch_parallel.clear();
            for &op in step {
                let (peer, sharing, editing) = decode_op(op, peers);
                if let Some(action) = sharing {
                    reference.record_sharing(peer, &action);
                    batch_sequential.push(ContributionDelta::sharing(peer, action));
                    batch_parallel.push(ContributionDelta::sharing(peer, action));
                }
                if let Some(action) = editing {
                    reference.record_editing(peer, &action);
                    sequential.record_editing(peer, &action);
                    parallel.record_editing(peer, &action);
                }
            }
            sequential.apply(&batch_sequential);
            parallel.apply_parallel(&batch_parallel, threads);
        }
        assert_ledgers_identical(&reference, &sequential);
        assert_ledgers_identical(&reference, &parallel);
    }

    /// Random sequences over every mutator that writes a contribution:
    /// inline recording, batched and parallel apply (two ops, on two peers,
    /// whose sharing halves are batched and editing halves recorded
    /// inline), the churn discount, the malicious-editor
    /// punishment, a whitewash, the phase-switch reset and a restore from
    /// another peer's export. After every op, every peer's stored
    /// reputations are bitwise the function of its contributions.
    #[test]
    fn stored_reputations_follow_every_contribution_mutator(
        peers in 1usize..40,
        shards in 1usize..9,
        threads in 1usize..5,
        ops in proptest::collection::vec(
            (0usize..40, 0u32..11, 0.0f64..1.0, 0.0f64..1.0, 0usize..40),
            0..120,
        ),
    ) {
        let f = LogisticReputation::paper(0.2);
        let mut tested = sharded(peers, shards);
        let mut batch = DeltaBatch::for_ledger(&tested);
        for (i, &(peer_raw, kind, a, b, other_raw)) in ops.iter().enumerate() {
            let peer = peer_raw % peers;
            let other = other_raw % peers;
            let what = match kind {
                0..=3 => {
                    let (peer, sharing, editing) = decode_op((peer, kind, a, b), peers);
                    if let Some(action) = sharing {
                        tested.record_sharing(peer, &action);
                    }
                    if let Some(action) = editing {
                        tested.record_editing(peer, &action);
                    }
                    "inline record"
                }
                4 | 5 => {
                    batch.clear();
                    push_op(&mut batch, &mut tested, (peer, other_raw as u32, a, b), peers);
                    push_op(&mut batch, &mut tested, (other, peer_raw as u32, b, a), peers);
                    if kind == 4 {
                        tested.apply(&batch);
                        "apply"
                    } else {
                        tested.apply_parallel(&batch, threads);
                        "apply_parallel"
                    }
                }
                // Factors at or above 1 are the discount's no-op.
                6 => {
                    tested.scale_sharing_contribution(peer, a * 1.5);
                    "scale_sharing_contribution"
                }
                7 => {
                    tested.punish_malicious_editor(peer);
                    "punish_malicious_editor"
                }
                8 => {
                    tested.reset_peer_identity(peer);
                    "reset_peer_identity"
                }
                9 => {
                    tested.reset_all_contributions();
                    "reset_all_contributions"
                }
                _ => {
                    let state = tested.export_peer_state(other);
                    tested.restore_peer_state(peer, &state);
                    "restore_peer_state"
                }
            };
            assert_reputations_follow_contributions(&tested, &f, i, what);
        }
    }
}
