//! Checkpoint/resume: versioned, exact-round-trip snapshots of a running
//! simulation, behind a pluggable [`RunStore`].
//!
//! A [`Snapshot`] captures *everything* a [`SimWorld`] owns at a step
//! boundary — every peer, article, pending edit, transfer slot, ledger record,
//! Q-value, accumulator and all five named RNG streams — plus the
//! originating [`ScenarioSpec`] as its exact text form. Restoring builds a
//! fresh world from the embedded spec (which reconstructs all the derived
//! machinery: pipeline, service rules, thread plan) and then overwrites the
//! mutable state byte for byte, so a resumed run continues the exact
//! trajectory of the run that was checkpointed: the golden determinism
//! tests pin `full run ≡ half run + snapshot + restore + half run` bit for
//! bit.
//!
//! The wire format is a hand-rolled little-endian binary layout framed as
//!
//! ```text
//! magic "COLLBSNP" | version u16 | payload length u64 | payload | XXH64(payload)
//! ```
//!
//! so every consumer detects truncation, bit rot and foreign files before
//! touching the payload, and a file of another format version is
//! recognised (and refused with a typed [`SnapshotError::VersionMismatch`])
//! rather than misparsed. Two [`RunStore`] backends ship with the crate:
//! the in-memory [`MemStore`] and the on-disk, content-hash-keyed
//! [`DirStore`].
//!
//! A checkpoint is sized by what the run wrote. The Q column keeps only
//! the planes (one per reputation bucket) in which a learner wrote a value
//! ([`QPlanes`]); the others are refilled with the captured `initial_q` on
//! restore. The upload history is three flat columns ([`UploadColumns`]),
//! each copied as one block.

mod codec;
mod store;

pub use store::{
    read_snapshot_file, write_snapshot_file, DirStore, MemStore, RunStore, SNAPSHOT_EXTENSION,
};

use crate::adversary::{AttackStats, PeerPolicyState, PolicyState};
use crate::agent_table::{AgentTable, MAX_REPUTATION_STATES};
use crate::gametheory::behavior::BehaviorType;
use crate::netsim::article::{
    Article, ArticleId, ArticleRegistry, Edit, EditId, EditKind, EditOutcomeCounts,
};
use crate::netsim::clock::SimClock;
use crate::netsim::fault::ConnectionState;
use crate::netsim::peer::{Peer, PeerId, PeerRegistry};
use crate::netsim::storage::ArticleStore;
use crate::netsim::transfer::{Transfer, TransferArenaState, TransferManager, TransferStatus};
use crate::reputation::propagation::GlobalReputation;
use crate::reputation::sharded::PeerLedgerState;
use crate::spec::ScenarioSpec;
use crate::world::{AccumulatorTable, ChurnStats, NetStats, SimWorld, UploadColumns, UploadMatrix};
use crate::ActiveSets;
use codec::{xxh64, Reader, Writer};
use rand::rngs::StdRng;

/// Leading magic of every encoded snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"COLLBSNP";

/// The format version this build writes and reads. Version 2 appended the
/// per-unit learned adversary policies and the per-peer offline-since
/// markers to the payload; version 3 dropped the DHT membership and
/// replica sets, which no phase reads; version 4 kept the payload and
/// switched the trailing content hash to XXH64; version 5 replaced the
/// edit log and the revision histories with decided-edit tallies, the
/// pending edits, revision counts and voter sets; version 6 replaced the
/// held and offered id lists with the article store's bitset tables;
/// version 7 stores the Q-values bucket-major (one plane per reputation
/// bucket) instead of one block per learner; version 8 stores only the
/// Q-planes a learner wrote, under a plane mask ([`QPlanes`]), and the
/// upload history as three flat columns ([`UploadColumns`]) instead of one
/// list per uploader. Files of any other version are refused with a typed
/// [`SnapshotError::VersionMismatch`] rather than misparsed.
pub const SNAPSHOT_VERSION: u16 = 8;

/// The most `u64` words an article-store row can need: every article id
/// is a `u32`, so 2³² bits cover them all.
const MAX_ARTICLE_WORDS: usize = 1 << 26;

/// Magic, version and payload length.
const HEADER_LEN: usize = 8 + 2 + 8;
/// The trailing content hash.
const TRAILER_LEN: usize = 8;

/// Typed failure of snapshot encoding, decoding, storage or restoration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// An underlying filesystem operation failed.
    Io(String),
    /// The bytes are not a well-formed snapshot: bad magic, truncated
    /// framing, content-hash mismatch, or a malformed payload.
    Corrupt(String),
    /// The snapshot was written by a different (newer or older) format
    /// version than this build understands.
    VersionMismatch {
        /// The version found in the header.
        found: u16,
    },
    /// The embedded scenario spec failed to parse or build a simulation.
    Spec(String),
    /// The decoded state is inconsistent with the embedded spec (e.g. a
    /// population-length mismatch) — a hand-edited or mispaired snapshot.
    Mismatch(String),
    /// The requested snapshot key does not exist in the store.
    NotFound(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(msg) => write!(f, "io error: {msg}"),
            Self::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            Self::VersionMismatch { found } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {SNAPSHOT_VERSION})"
            ),
            Self::Spec(msg) => write!(f, "embedded scenario spec rejected: {msg}"),
            Self::Mismatch(msg) => write!(f, "snapshot inconsistent with its spec: {msg}"),
            Self::NotFound(key) => write!(f, "snapshot not found: {key}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The complete mutable state of a [`SimWorld`] at a step boundary, as
/// plain data. Everything here is overwritten verbatim on restore; state
/// that is a pure function of the configuration (service rules, allocator
/// policy, thread plan, phase pipeline) or derivable from these fields
/// (active sets, article caches, upload reverse index) is rebuilt instead
/// of stored.
#[derive(Debug, Clone, Default)]
pub struct WorldState {
    /// Step counter at capture time.
    pub step: u64,
    /// Core step RNG state (xoshiro256** words).
    pub rng: [u64; 4],
    /// Propagation-phase RNG state.
    pub propagation_rng: [u64; 4],
    /// Churn-phase RNG state.
    pub churn_rng: [u64; 4],
    /// Adversary-phase RNG state.
    pub adversary_rng: [u64; 4],
    /// Fault-layer RNG state.
    pub net_rng: [u64; 4],
    /// Every peer record, dense by id.
    pub peers: Vec<Peer>,
    /// Every article (revision count, voter set, pending edit, damage
    /// counter).
    pub articles: Vec<Article>,
    /// The edits awaiting a vote, sorted by id.
    pub pending_edits: Vec<Edit>,
    /// Outcome tallies of every edit submitted so far; `pending` is
    /// `pending_edits.len()`.
    pub edit_outcomes: EditOutcomeCounts,
    /// Identifier of the next submitted edit.
    pub next_edit_id: u64,
    /// `u64` words per peer row of the article-store tables.
    pub article_words: usize,
    /// Held-article bitsets, `article_words` words per peer in peer order
    /// (bit `a` set: the peer holds article `a`).
    pub held: Vec<u64>,
    /// Offered-article bitsets, row-aligned with `held`.
    pub offered: Vec<u64>,
    /// Per-peer reputation ledger records, dense by id.
    pub ledger: Vec<PeerLedgerState>,
    /// The transfer arena: every slot, the free list and retired totals.
    pub transfers: TransferArenaState,
    /// The Q-values of every learner: the bucket-major planes a learner
    /// wrote, under a plane mask.
    pub q: QPlanes,
    /// Per-learner Q-update counters.
    pub updates: Vec<u64>,
    /// Sentinel-encoded per-peer last-choice state buckets.
    pub last_state: Vec<u32>,
    /// Sentinel-encoded per-peer last-choice action indices.
    pub last_action: Vec<u8>,
    /// Behaviour type per peer (restore verifies these against the spec's
    /// deterministic assignment — a mismatch means the snapshot does not
    /// belong to its embedded spec).
    pub behaviors: Vec<BehaviorType>,
    /// The upload history: relation counts per uploader, then every
    /// relation's counterparty and amount, each row sorted by counterparty.
    pub uploads: UploadColumns,
    /// In-flight download slot per peer.
    pub active_transfer: Vec<Option<u64>>,
    /// Accepted edits since last punishment, per peer.
    pub accepted_since_punishment: Vec<u32>,
    /// The evaluation-phase measurement accumulators.
    pub accumulators: AccumulatorTable,
    /// Whether the measured evaluation phase is active.
    pub measuring: bool,
    /// Steps run since measurement started.
    pub evaluation_steps_run: u64,
    /// Completed-download count at measurement start.
    pub downloads_completed_in_evaluation: u64,
    /// Edit-outcome counts at measurement start.
    pub edit_outcome_baseline: EditOutcomeCounts,
    /// Running churn counters.
    pub churn_stats: ChurnStats,
    /// Latest propagated global reputation, if the phase has run.
    pub global_reputation: Option<GlobalReputation>,
    /// Propagation-phase execution count.
    pub propagation_runs: u64,
    /// Propagated service-reputation cache, if active.
    pub propagated_service_reputation: Option<Vec<f64>>,
    /// Per-unit adversary attack counters, in unit order.
    pub adversary_stats: Vec<AttackStats>,
    /// Queued timed re-entries of the adversary roster.
    pub reentry_schedule: Vec<(u64, u32)>,
    /// Running fault-layer grant accounting.
    pub net_stats: NetStats,
    /// Per-unit learned adversary policy (Q-table plus per-peer
    /// trajectories), in unit order; `None` for scripted strategies.
    pub adversary_policies: Vec<Option<PolicyState>>,
    /// Step at which each currently offline peer went offline (drives the
    /// offline reputation-uptime discount), dense by id.
    pub offline_since: Vec<Option<u64>>,
}

/// The Q column of a snapshot: of the agent table's bucket-major planes
/// (one per reputation bucket, each `plane_len` values), only those in
/// which a learner wrote a value. A plane no learner wrote holds nothing
/// but `initial_q`, and is restored from `fill`.
#[derive(Debug, Clone, Default)]
pub struct QPlanes {
    /// Bits of the capturing world's `initial_q`: the value of every cell
    /// in a plane the mask omits.
    pub fill: u64,
    /// Number of planes: the table's reputation states, at most
    /// [`MAX_REPUTATION_STATES`] (64), so one `u64` mask covers them.
    pub planes: u32,
    /// Values per plane: learners × actions.
    pub plane_len: u64,
    /// Bit `b` is set when plane `b` holds a value whose bits differ from
    /// `fill` (so a learned `-0.0` under a `0.0` fill counts as written).
    pub mask: u64,
    /// The marked planes, in plane order.
    pub values: Vec<f64>,
}

impl QPlanes {
    /// Keeps the planes of `agents` that hold a value other than its
    /// `initial_q`'s bits. A plane's scan stops at its first such value.
    fn capture(agents: &AgentTable) -> Self {
        let fill = agents.params().initial_q.to_bits();
        let plane_len = agents.plane_len();
        // `max(1)`: a table without learners has no planes to scan.
        let planes = || agents.q_values().chunks_exact(plane_len.max(1));
        let mask = planes()
            .enumerate()
            .filter(|(_, plane)| plane.iter().any(|v| v.to_bits() != fill))
            .fold(0u64, |mask, (b, _)| mask | 1 << b);
        let mut values = Vec::with_capacity(mask.count_ones() as usize * plane_len);
        for (b, plane) in planes().enumerate() {
            if mask >> b & 1 == 1 {
                values.extend_from_slice(plane);
            }
        }
        Self {
            fill,
            planes: agents.state_count() as u32,
            plane_len: plane_len as u64,
            mask,
            values,
        }
    }

    /// The dense bucket-major column: `fill` everywhere, then the stored
    /// planes copied in. With a `+0.0` fill the allocator hands back zero
    /// pages, so a plane no learner wrote is never faulted in.
    ///
    /// # Panics
    ///
    /// Panics if the values do not hold exactly the marked planes, which
    /// decode refuses.
    fn to_dense(&self) -> Vec<f64> {
        let plane_len = self.plane_len as usize;
        let mut q = vec![f64::from_bits(self.fill); self.planes as usize * plane_len];
        let mut stored = self.values.chunks_exact(plane_len.max(1));
        for (b, plane) in q.chunks_exact_mut(plane_len.max(1)).enumerate() {
            if self.mask >> b & 1 == 1 {
                plane.copy_from_slice(stored.next().expect("a stored plane per mask bit"));
            }
        }
        q
    }

    /// Checks the column against itself: at most
    /// [`MAX_REPUTATION_STATES`] planes, no mask bit at or past the plane
    /// count, and exactly one stored plane per mask bit.
    fn check(&self) -> Result<(), String> {
        if self.planes as usize > MAX_REPUTATION_STATES {
            return Err(format!(
                "{} Q-planes, past the {MAX_REPUTATION_STATES} a mask covers",
                self.planes
            ));
        }
        if self.mask.checked_shr(self.planes).unwrap_or(0) != 0 {
            return Err(format!(
                "Q-plane mask {:#x} marks a plane at or past the {} planes",
                self.mask, self.planes
            ));
        }
        let stored = u64::from(self.mask.count_ones()).checked_mul(self.plane_len);
        if stored != Some(self.values.len() as u64) {
            return Err(format!(
                "{} stored Q-values, not {} planes of {}",
                self.values.len(),
                self.mask.count_ones(),
                self.plane_len
            ));
        }
        Ok(())
    }
}

/// One checkpoint: the full [`WorldState`] plus the exact text of the
/// [`ScenarioSpec`] the run was built from, so a snapshot is self-contained
/// — resuming needs no side-channel spec file.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// The originating scenario spec in its exact-round-trip text form.
    pub spec_text: String,
    /// The captured world state.
    pub state: WorldState,
}

fn behavior_tag(behavior: BehaviorType) -> u8 {
    match behavior {
        BehaviorType::Rational => 0,
        BehaviorType::Altruistic => 1,
        BehaviorType::Irrational => 2,
    }
}

fn behavior_from_tag(tag: u8) -> Result<BehaviorType, SnapshotError> {
    match tag {
        0 => Ok(BehaviorType::Rational),
        1 => Ok(BehaviorType::Altruistic),
        2 => Ok(BehaviorType::Irrational),
        other => Err(SnapshotError::Corrupt(format!(
            "invalid behaviour tag {other}"
        ))),
    }
}

fn connection_tag(state: ConnectionState) -> u8 {
    match state {
        ConnectionState::Connected => 0,
        ConnectionState::Degraded => 1,
        ConnectionState::Disconnected => 2,
    }
}

fn connection_from_tag(tag: u8) -> Result<ConnectionState, SnapshotError> {
    match tag {
        0 => Ok(ConnectionState::Connected),
        1 => Ok(ConnectionState::Degraded),
        2 => Ok(ConnectionState::Disconnected),
        other => Err(SnapshotError::Corrupt(format!(
            "invalid connection-state tag {other}"
        ))),
    }
}

fn transfer_status_tag(status: TransferStatus) -> u8 {
    match status {
        TransferStatus::InProgress => 0,
        TransferStatus::Completed => 1,
        TransferStatus::Cancelled => 2,
    }
}

fn transfer_status_from_tag(tag: u8) -> Result<TransferStatus, SnapshotError> {
    match tag {
        0 => Ok(TransferStatus::InProgress),
        1 => Ok(TransferStatus::Completed),
        2 => Ok(TransferStatus::Cancelled),
        other => Err(SnapshotError::Corrupt(format!(
            "invalid transfer-status tag {other}"
        ))),
    }
}

fn write_rng(w: &mut Writer, state: &[u64; 4]) {
    for &word in state {
        w.u64(word);
    }
}

fn read_rng(r: &mut Reader<'_>) -> Result<[u64; 4], SnapshotError> {
    Ok([r.u64()?, r.u64()?, r.u64()?, r.u64()?])
}

fn write_policy(w: &mut Writer, policy: &PolicyState) {
    w.u32(policy.states);
    w.u32(policy.actions);
    w.f64s(&policy.q);
    w.u64(policy.updates);
    w.usize(policy.per_peer.len());
    for peer in &policy.per_peer {
        w.opt_u64(peer.last_state);
        w.u32(peer.last_action);
        w.u64(peer.steps_since_reset);
        w.f64(peer.last_downloaded);
        w.f64(peer.pending_shed);
    }
}

fn read_policy(r: &mut Reader<'_>) -> Result<PolicyState, SnapshotError> {
    let states = r.u32()?;
    let actions = r.u32()?;
    let q = r.f64s()?;
    let updates = r.u64()?;
    let peer_count = r.len()?;
    let mut per_peer = Vec::with_capacity(peer_count);
    for _ in 0..peer_count {
        per_peer.push(PeerPolicyState {
            last_state: r.opt_u64()?,
            last_action: r.u32()?,
            steps_since_reset: r.u64()?,
            last_downloaded: r.f64()?,
            pending_shed: r.f64()?,
        });
    }
    Ok(PolicyState {
        states,
        actions,
        q,
        updates,
        per_peer,
    })
}

impl WorldState {
    /// Captures the complete mutable state of a world. Must be called at a
    /// step boundary (between [`crate::Simulation::step`] calls) — mid-step
    /// the pipeline holds transient scratch the snapshot cannot see.
    pub fn capture(world: &SimWorld) -> Self {
        let population = world.config.population;
        Self {
            step: world.clock.now(),
            rng: world.rng.to_state(),
            propagation_rng: world.propagation_rng.to_state(),
            churn_rng: world.churn_rng.to_state(),
            adversary_rng: world.adversary_rng.to_state(),
            net_rng: world.net_rng.to_state(),
            peers: world.peers.iter().cloned().collect(),
            articles: world.articles.articles().cloned().collect(),
            pending_edits: world.articles.pending_edits().to_vec(),
            edit_outcomes: world.articles.edit_outcome_counts(),
            next_edit_id: world.articles.edit_count(),
            article_words: world.store.words_per_peer(),
            held: world.store.held_words().to_vec(),
            offered: world.store.offered_words().to_vec(),
            ledger: (0..population)
                .map(|p| world.ledger.export_peer_state(p))
                .collect(),
            transfers: world.transfers.export_state(),
            q: QPlanes::capture(&world.agents),
            updates: world.agents.update_counts().to_vec(),
            last_state: world.agents.last_states_raw().to_vec(),
            last_action: world.agents.last_actions_raw().to_vec(),
            behaviors: world.behaviors.clone(),
            uploads: world.uploads.columns(),
            active_transfer: world.active_transfer.clone(),
            accepted_since_punishment: world.accepted_since_punishment.clone(),
            accumulators: world.accumulators.clone(),
            measuring: world.measuring,
            evaluation_steps_run: world.evaluation_steps_run,
            downloads_completed_in_evaluation: world.downloads_completed_in_evaluation as u64,
            edit_outcome_baseline: world.edit_outcome_baseline,
            churn_stats: world.churn_stats,
            global_reputation: world.global_reputation.as_ref().map(|g| GlobalReputation {
                values: g.values.clone(),
                iterations: g.iterations,
                converged: g.converged,
            }),
            propagation_runs: world.propagation_runs,
            propagated_service_reputation: world.propagated_service_reputation.clone(),
            adversary_stats: world.adversaries.export_unit_stats(),
            reentry_schedule: world
                .adversaries
                .schedule_entries()
                .iter()
                .map(|&(at, peer)| (at, peer.0))
                .collect(),
            net_stats: world.net_stats,
            adversary_policies: world.adversaries.export_policies(),
            offline_since: world.offline_since.clone(),
        }
    }

    /// Overwrites a freshly constructed world (same spec) with this state.
    /// Derived structures — active sets, article caches, the upload
    /// reverse index — are rebuilt from the restored data. Q-planes the
    /// snapshot omits take its `fill`, not the world's `initial_q`, so a
    /// fork onto a spec with another `initial_q` restores the captured
    /// values.
    pub fn apply(&self, world: &mut SimWorld) -> Result<(), SnapshotError> {
        let population = world.config.population;
        let mismatch = |what: &str| -> SnapshotError {
            SnapshotError::Mismatch(format!(
                "{what} does not match the embedded spec (population {population})"
            ))
        };
        if self.peers.len() != population {
            return Err(mismatch("peer count"));
        }
        if self
            .peers
            .iter()
            .enumerate()
            .any(|(i, p)| p.id.index() != i)
        {
            return Err(SnapshotError::Mismatch(
                "peer ids are not dense".to_string(),
            ));
        }
        if self.behaviors != world.behaviors {
            return Err(SnapshotError::Mismatch(
                "behaviour assignment differs from the spec's deterministic assignment".to_string(),
            ));
        }
        if self.ledger.len() != population
            || self.active_transfer.len() != population
            || self.accepted_since_punishment.len() != population
            || self.uploads.counts.len() != population
            || self.accumulators.len() != population
        {
            return Err(mismatch("a per-peer table's length"));
        }
        let agents = &world.agents;
        if self.q.planes as usize != agents.state_count()
            || self.q.plane_len != agents.plane_len() as u64
            || self.updates.len() != agents.update_counts().len()
            || self.last_state.len() != population
            || self.last_action.len() != population
        {
            return Err(mismatch("the agent table's learning-state layout"));
        }
        if self.adversary_stats.len() != world.adversaries.units().len()
            || self.adversary_policies.len() != world.adversaries.units().len()
        {
            return Err(mismatch("the adversary unit count"));
        }
        if self.offline_since.len() != population {
            return Err(mismatch("the offline-since table's length"));
        }
        self.check_articles(population)
            .map_err(SnapshotError::Mismatch)?;
        self.check_store(population, world.store.words_per_peer())
            .map_err(SnapshotError::Mismatch)?;
        self.check_ledger().map_err(SnapshotError::Mismatch)?;
        self.q.check().map_err(SnapshotError::Mismatch)?;
        self.check_uploads().map_err(SnapshotError::Mismatch)?;
        let outside = self
            .uploads
            .to
            .iter()
            .find(|&&to| to as usize >= population);
        if let Some(peer) = outside {
            return Err(SnapshotError::Mismatch(format!(
                "an upload counterparty {peer} lies outside the population of {population}"
            )));
        }

        world.clock = SimClock::starting_at(self.step);
        world.rng = StdRng::from_state(self.rng);
        world.propagation_rng = StdRng::from_state(self.propagation_rng);
        world.churn_rng = StdRng::from_state(self.churn_rng);
        world.adversary_rng = StdRng::from_state(self.adversary_rng);
        world.net_rng = StdRng::from_state(self.net_rng);
        world.peers = PeerRegistry::from_peers(self.peers.clone());
        world.articles = ArticleRegistry::from_parts(
            self.articles.clone(),
            self.pending_edits.clone(),
            self.edit_outcomes,
            self.next_edit_id,
        );
        world.store =
            ArticleStore::from_words(self.article_words, self.held.clone(), self.offered.clone());
        for (p, record) in self.ledger.iter().enumerate() {
            world.ledger.restore_peer_state(p, record);
        }
        world.transfers = TransferManager::from_state(self.transfers.clone());
        world.agents.restore_learning_state(
            self.q.to_dense(),
            &self.updates,
            &self.last_state,
            &self.last_action,
        );
        world.uploads = UploadMatrix::from_columns(&self.uploads);
        world.active_transfer = self.active_transfer.clone();
        world.accepted_since_punishment = self.accepted_since_punishment.clone();
        world.accumulators = self.accumulators.clone();
        world.measuring = self.measuring;
        world.evaluation_steps_run = self.evaluation_steps_run;
        world.downloads_completed_in_evaluation = self.downloads_completed_in_evaluation as usize;
        world.edit_outcome_baseline = self.edit_outcome_baseline;
        world.churn_stats = self.churn_stats;
        world.global_reputation = self.global_reputation.as_ref().map(|g| GlobalReputation {
            values: g.values.clone(),
            iterations: g.iterations,
            converged: g.converged,
        });
        world.propagation_runs = self.propagation_runs;
        world.propagated_service_reputation = self.propagated_service_reputation.clone();
        world.adversaries.restore_unit_stats(&self.adversary_stats);
        world.adversaries.restore_schedule(
            self.reentry_schedule
                .iter()
                .map(|&(at, peer)| (at, PeerId(peer)))
                .collect(),
        );
        world.net_stats = self.net_stats;
        world.adversaries.restore_policies(&self.adversary_policies);
        world.offline_since = self.offline_since.clone();
        world.active = ActiveSets::recompute(&world.peers, &world.behaviors);
        Ok(())
    }

    /// Checks the article state against a population of `population`
    /// peers: dense article ids, voter sets that are sorted, free of
    /// duplicates and inside the population, and pending edits that are
    /// exactly the ones their articles name. A state failing any of these
    /// would panic or misbehave in a later edit vote.
    fn check_articles(&self, population: usize) -> Result<(), String> {
        for (index, article) in self.articles.iter().enumerate() {
            if article.id.index() != index {
                return Err(format!("article {index} carries id {}", article.id.0));
            }
            let voters = article.voters();
            if voters.windows(2).any(|pair| pair[0] >= pair[1]) {
                return Err(format!(
                    "the voter set of {} is not sorted and duplicate-free",
                    article.id
                ));
            }
            if let Some(voter) = voters.last().filter(|v| v.index() >= population) {
                return Err(format!(
                    "{voter} votes on {} but the population has {population} peers",
                    article.id
                ));
            }
        }
        for edit in &self.pending_edits {
            let article = self.articles.get(edit.article.index());
            if article.and_then(|article| article.pending_edit) != Some(edit.id) {
                return Err(format!(
                    "pending edit {} is not the edit {} names",
                    edit.id.0, edit.article
                ));
            }
            if edit.author.index() >= population || edit.id.0 >= self.next_edit_id {
                return Err(format!(
                    "pending edit {} has an author or id out of range",
                    edit.id.0
                ));
            }
        }
        let naming = self
            .articles
            .iter()
            .filter(|article| article.pending_edit.is_some())
            .count();
        if naming != self.pending_edits.len() {
            return Err(format!(
                "{naming} articles name a pending edit, but {} edits are pending",
                self.pending_edits.len()
            ));
        }
        Ok(())
    }

    /// Checks the article-store tables against a spec of `population`
    /// peers whose store has `words` words per peer, and against the
    /// state's own article registry: each table is `population × words`
    /// words long, the rows can hold every article, no bit names an
    /// article at or past `max(article count, 1)` (the registry
    /// fallback's article 0 exists even without articles), and every
    /// offered bit is also held — only `add_replica` and
    /// `set_offered_count` write the store, and held bits are never
    /// cleared. A state failing any of these would make a download pick
    /// or a replica add misbehave.
    fn check_store(&self, population: usize, words: usize) -> Result<(), String> {
        if self.article_words != words {
            return Err(format!(
                "the article store has {} words per peer, the spec's {words}",
                self.article_words
            ));
        }
        let cells = population.checked_mul(words);
        if cells != Some(self.held.len()) || cells != Some(self.offered.len()) {
            return Err(format!(
                "the article store tables hold {} and {} words, not {population} peers × {words}",
                self.held.len(),
                self.offered.len()
            ));
        }
        let universe = self.articles.len().max(1);
        if universe > words * 64 {
            return Err(format!(
                "{universe} articles do not fit {words} words per peer"
            ));
        }
        let rows = self
            .held
            .chunks_exact(words)
            .zip(self.offered.chunks_exact(words));
        for (peer, (held, offered)) in rows.enumerate() {
            for (w, (&held, &offered)) in held.iter().zip(offered).enumerate() {
                let inside = universe.saturating_sub(w * 64);
                let outside = if inside >= 64 { 0 } else { u64::MAX << inside };
                if (held | offered) & outside != 0 {
                    return Err(format!(
                        "peer {peer} stores an article past the registry's {universe}"
                    ));
                }
                if offered & !held != 0 {
                    return Err(format!("peer {peer} offers an article it does not hold"));
                }
            }
        }
        Ok(())
    }

    /// Checks every ledger record's contribution values. The ledger's
    /// mutators keep `sharing`, `editing`, `total_articles` and
    /// `total_bandwidth` finite and non-negative, so any other value came
    /// from outside. Restored unchecked, a NaN contribution would read as
    /// `R_min` and absorb every later increment.
    fn check_ledger(&self) -> Result<(), String> {
        for (peer, record) in self.ledger.iter().enumerate() {
            for (field, value) in [
                ("sharing", record.sharing),
                ("editing", record.editing),
                ("total_articles", record.total_articles),
                ("total_bandwidth", record.total_bandwidth),
            ] {
                if !(value.is_finite() && value >= 0.0) {
                    return Err(format!(
                        "peer {peer}'s ledger {field} is {value}, not a finite value >= 0"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Checks the upload columns against themselves: the counts cover the
    /// other two columns exactly, and each row's counterparties are
    /// strictly increasing, as the sorted export writes them. A state
    /// failing either would build a row map with a lost or misplaced
    /// relation.
    fn check_uploads(&self) -> Result<(), String> {
        let UploadColumns {
            counts,
            to,
            amounts,
        } = &self.uploads;
        let total = counts
            .iter()
            .fold(0u64, |sum, &n| sum.saturating_add(u64::from(n)));
        if total != to.len() as u64 || to.len() != amounts.len() {
            return Err(format!(
                "upload counts sum to {total}, but the columns hold {} counterparties and {} amounts",
                to.len(),
                amounts.len()
            ));
        }
        let mut start = 0;
        for (from, &count) in counts.iter().enumerate() {
            let end = start + count as usize;
            if to[start..end].windows(2).any(|pair| pair[0] >= pair[1]) {
                return Err(format!(
                    "peer {from}'s upload counterparties are not strictly increasing"
                ));
            }
            start = end;
        }
        Ok(())
    }

    fn encode(&self, w: &mut Writer) {
        w.u64(self.step);
        write_rng(w, &self.rng);
        write_rng(w, &self.propagation_rng);
        write_rng(w, &self.churn_rng);
        write_rng(w, &self.adversary_rng);
        write_rng(w, &self.net_rng);
        w.usize(self.peers.len());
        for peer in &self.peers {
            w.u32(peer.id.0);
            w.f64(peer.upload_capacity);
            w.f64(peer.download_capacity);
            w.u32(peer.storage_capacity);
            w.f64(peer.shared_upload_fraction);
            w.u32(peer.shared_articles);
            w.bool(peer.online);
            w.u8(connection_tag(peer.connection));
            w.u64(peer.joined_at);
        }
        w.usize(self.articles.len());
        for article in &self.articles {
            w.u32(article.id.0);
            w.u32(article.creator.0);
            w.u64(article.created_at);
            w.u64(article.revision_count() as u64);
            w.usize(article.voters().len());
            for voter in article.voters() {
                w.u32(voter.0);
            }
            w.u32(article.accepted_destructive);
            w.opt_u64(article.pending_edit.map(|e| e.0));
        }
        w.usize(self.pending_edits.len());
        for edit in &self.pending_edits {
            w.u64(edit.id.0);
            w.u32(edit.article.0);
            w.u32(edit.author.0);
            w.u8(match edit.kind {
                EditKind::Constructive => 0,
                EditKind::Destructive => 1,
            });
        }
        w.u64(self.edit_outcomes.accepted_constructive);
        w.u64(self.edit_outcomes.accepted_destructive);
        w.u64(self.edit_outcomes.declined_constructive);
        w.u64(self.edit_outcomes.declined_destructive);
        w.u64(self.next_edit_id);
        w.usize(self.article_words);
        w.u64s(&self.held);
        w.u64s(&self.offered);
        w.usize(self.ledger.len());
        for record in &self.ledger {
            w.f64(record.sharing);
            w.f64(record.editing);
            w.f64(record.total_articles);
            w.f64(record.total_bandwidth);
            w.u64(record.total_votes);
            w.u64(record.total_edits);
            w.bool(record.can_edit);
            w.bool(record.can_vote);
            w.u32(record.unsuccessful_votes);
            w.u32(record.declined_edits);
        }
        w.usize(self.transfers.transfers.len());
        for t in &self.transfers.transfers {
            w.u64(t.id);
            w.u32(t.downloader.0);
            w.u32(t.source.0);
            w.u32(t.article.0);
            w.f64(t.size);
            w.f64(t.received);
            w.u64(t.started_at);
            w.opt_u64(t.finished_at);
            w.u8(transfer_status_tag(t.status));
            w.u32(t.failures);
            w.u64(t.backoff_until);
            w.u64(t.last_progress_at);
        }
        w.usize(self.transfers.in_use.len());
        for &b in &self.transfers.in_use {
            w.bool(b);
        }
        w.u32s(&self.transfers.free);
        w.u64(self.transfers.completed);
        w.u64(self.transfers.completed_duration_sum);
        w.f64s(&self.transfers.retired_received);
        w.f64s(&self.transfers.retired_served);
        w.u64(self.q.fill);
        w.u32(self.q.planes);
        w.u64(self.q.plane_len);
        w.u64(self.q.mask);
        w.f64s(&self.q.values);
        w.u64s(&self.updates);
        w.u32s(&self.last_state);
        w.u8s(&self.last_action);
        w.usize(self.behaviors.len());
        for &b in &self.behaviors {
            w.u8(behavior_tag(b));
        }
        w.u32s(&self.uploads.counts);
        w.u32s(&self.uploads.to);
        w.f64s(&self.uploads.amounts);
        w.usize(self.active_transfer.len());
        for &slot in &self.active_transfer {
            w.opt_u64(slot);
        }
        w.u32s(&self.accepted_since_punishment);
        w.f64s(&self.accumulators.shared_bandwidth_sum);
        w.f64s(&self.accumulators.shared_articles_sum);
        w.f64s(&self.accumulators.downloaded_sum);
        w.f64s(&self.accumulators.utility_sum);
        w.u64s(&self.accumulators.constructive_edits);
        w.u64s(&self.accumulators.destructive_edits);
        w.u64s(&self.accumulators.votes);
        w.u64s(&self.accumulators.steps);
        w.bool(self.measuring);
        w.u64(self.evaluation_steps_run);
        w.u64(self.downloads_completed_in_evaluation);
        w.u64(self.edit_outcome_baseline.accepted_constructive);
        w.u64(self.edit_outcome_baseline.accepted_destructive);
        w.u64(self.edit_outcome_baseline.declined_constructive);
        w.u64(self.edit_outcome_baseline.declined_destructive);
        w.u64(self.edit_outcome_baseline.pending);
        w.u64(self.churn_stats.joins);
        w.u64(self.churn_stats.leaves);
        w.u64(self.churn_stats.whitewashes);
        w.f64(self.churn_stats.reentry_reputation_sum);
        w.f64(self.churn_stats.whitewash_reputation_shed_sum);
        match &self.global_reputation {
            Some(global) => {
                w.u8(1);
                w.f64s(&global.values);
                w.usize(global.iterations);
                w.bool(global.converged);
            }
            None => w.u8(0),
        }
        w.u64(self.propagation_runs);
        match &self.propagated_service_reputation {
            Some(values) => {
                w.u8(1);
                w.f64s(values);
            }
            None => w.u8(0),
        }
        w.usize(self.adversary_stats.len());
        for stats in &self.adversary_stats {
            w.u64(stats.resets);
            w.f64(stats.reputation_shed_sum);
            w.u64(stats.forced_steps);
            w.u64(stats.departures);
            w.u64(stats.rejoins);
            w.u64(stats.override_votes);
        }
        w.usize(self.reentry_schedule.len());
        for &(at, peer) in &self.reentry_schedule {
            w.u64(at);
            w.u32(peer);
        }
        w.f64(self.net_stats.grants_offered);
        w.f64(self.net_stats.grants_applied);
        w.f64(self.net_stats.grants_lost);
        w.f64(self.net_stats.grants_delayed);
        w.u64(self.net_stats.transfers_failed);
        w.u64(self.net_stats.transfers_timed_out);
        w.u64(self.net_stats.transfers_rerouted);
        w.usize(self.adversary_policies.len());
        for policy in &self.adversary_policies {
            match policy {
                Some(policy) => {
                    w.u8(1);
                    write_policy(w, policy);
                }
                None => w.u8(0),
            }
        }
        w.usize(self.offline_since.len());
        for &since in &self.offline_since {
            w.opt_u64(since);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let step = r.u64()?;
        let rng = read_rng(r)?;
        let propagation_rng = read_rng(r)?;
        let churn_rng = read_rng(r)?;
        let adversary_rng = read_rng(r)?;
        let net_rng = read_rng(r)?;
        let peer_count = r.len()?;
        let mut peers = Vec::with_capacity(peer_count);
        for _ in 0..peer_count {
            peers.push(Peer {
                id: PeerId(r.u32()?),
                upload_capacity: r.f64()?,
                download_capacity: r.f64()?,
                storage_capacity: r.u32()?,
                shared_upload_fraction: r.f64()?,
                shared_articles: r.u32()?,
                online: r.bool()?,
                connection: connection_from_tag(r.u8()?)?,
                joined_at: r.u64()?,
            });
        }
        let article_count = r.len()?;
        let mut articles = Vec::with_capacity(article_count);
        for _ in 0..article_count {
            let id = ArticleId(r.u32()?);
            let creator = PeerId(r.u32()?);
            let created_at = r.u64()?;
            let revisions = r.u64()?;
            let voters = r.u32s()?.into_iter().map(PeerId).collect();
            let accepted_destructive = r.u32()?;
            let pending_edit = r.opt_u64()?.map(EditId);
            articles.push(Article::from_parts(
                id,
                creator,
                created_at,
                revisions,
                voters,
                accepted_destructive,
                pending_edit,
            ));
        }
        let pending_count = r.len()?;
        let mut pending_edits = Vec::with_capacity(pending_count);
        for _ in 0..pending_count {
            pending_edits.push(Edit {
                id: EditId(r.u64()?),
                article: ArticleId(r.u32()?),
                author: PeerId(r.u32()?),
                kind: match r.u8()? {
                    0 => EditKind::Constructive,
                    1 => EditKind::Destructive,
                    other => {
                        return Err(SnapshotError::Corrupt(format!(
                            "invalid edit-kind tag {other}"
                        )))
                    }
                },
            });
        }
        let edit_outcomes = EditOutcomeCounts {
            accepted_constructive: r.u64()?,
            accepted_destructive: r.u64()?,
            declined_constructive: r.u64()?,
            declined_destructive: r.u64()?,
            pending: pending_edits.len() as u64,
        };
        let next_edit_id = r.u64()?;
        let article_words = r.u64()?;
        if article_words == 0 || article_words > MAX_ARTICLE_WORDS as u64 {
            return Err(SnapshotError::Corrupt(format!(
                "{article_words} article-store words per peer"
            )));
        }
        let article_words = article_words as usize;
        let held = r.u64s()?;
        let offered = r.u64s()?;
        let ledger_count = r.len()?;
        let mut ledger = Vec::with_capacity(ledger_count);
        for _ in 0..ledger_count {
            ledger.push(PeerLedgerState {
                sharing: r.f64()?,
                editing: r.f64()?,
                total_articles: r.f64()?,
                total_bandwidth: r.f64()?,
                total_votes: r.u64()?,
                total_edits: r.u64()?,
                can_edit: r.bool()?,
                can_vote: r.bool()?,
                unsuccessful_votes: r.u32()?,
                declined_edits: r.u32()?,
            });
        }
        let transfer_count = r.len()?;
        let mut transfer_slots = Vec::with_capacity(transfer_count);
        for _ in 0..transfer_count {
            transfer_slots.push(Transfer {
                id: r.u64()?,
                downloader: PeerId(r.u32()?),
                source: PeerId(r.u32()?),
                article: ArticleId(r.u32()?),
                size: r.f64()?,
                received: r.f64()?,
                started_at: r.u64()?,
                finished_at: r.opt_u64()?,
                status: transfer_status_from_tag(r.u8()?)?,
                failures: r.u32()?,
                backoff_until: r.u64()?,
                last_progress_at: r.u64()?,
            });
        }
        let in_use_count = r.len()?;
        let mut in_use = Vec::with_capacity(in_use_count);
        for _ in 0..in_use_count {
            in_use.push(r.bool()?);
        }
        let transfers = TransferArenaState {
            transfers: transfer_slots,
            in_use,
            free: r.u32s()?,
            completed: r.u64()?,
            completed_duration_sum: r.u64()?,
            retired_received: r.f64s()?,
            retired_served: r.f64s()?,
        };
        let q = QPlanes {
            fill: r.u64()?,
            planes: r.u32()?,
            plane_len: r.u64()?,
            mask: r.u64()?,
            values: r.f64s()?,
        };
        let updates = r.u64s()?;
        let last_state = r.u32s()?;
        let last_action = r.u8s()?;
        let behavior_count = r.len()?;
        let mut behaviors = Vec::with_capacity(behavior_count);
        for _ in 0..behavior_count {
            behaviors.push(behavior_from_tag(r.u8()?)?);
        }
        let uploads = UploadColumns {
            counts: r.u32s()?,
            to: r.u32s()?,
            amounts: r.f64s()?,
        };
        let slot_count = r.len()?;
        let mut active_transfer = Vec::with_capacity(slot_count);
        for _ in 0..slot_count {
            active_transfer.push(r.opt_u64()?);
        }
        let accepted_since_punishment = r.u32s()?;
        let accumulators = AccumulatorTable {
            shared_bandwidth_sum: r.f64s()?,
            shared_articles_sum: r.f64s()?,
            downloaded_sum: r.f64s()?,
            utility_sum: r.f64s()?,
            constructive_edits: r.u64s()?,
            destructive_edits: r.u64s()?,
            votes: r.u64s()?,
            steps: r.u64s()?,
        };
        let measuring = r.bool()?;
        let evaluation_steps_run = r.u64()?;
        let downloads_completed_in_evaluation = r.u64()?;
        let edit_outcome_baseline = EditOutcomeCounts {
            accepted_constructive: r.u64()?,
            accepted_destructive: r.u64()?,
            declined_constructive: r.u64()?,
            declined_destructive: r.u64()?,
            pending: r.u64()?,
        };
        let churn_stats = ChurnStats {
            joins: r.u64()?,
            leaves: r.u64()?,
            whitewashes: r.u64()?,
            reentry_reputation_sum: r.f64()?,
            whitewash_reputation_shed_sum: r.f64()?,
        };
        let global_reputation = match r.u8()? {
            0 => None,
            1 => Some(GlobalReputation {
                values: r.f64s()?,
                iterations: r.u64()? as usize,
                converged: r.bool()?,
            }),
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "invalid option tag {other}"
                )))
            }
        };
        let propagation_runs = r.u64()?;
        let propagated_service_reputation = match r.u8()? {
            0 => None,
            1 => Some(r.f64s()?),
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "invalid option tag {other}"
                )))
            }
        };
        let stats_count = r.len()?;
        let mut adversary_stats = Vec::with_capacity(stats_count);
        for _ in 0..stats_count {
            adversary_stats.push(AttackStats {
                resets: r.u64()?,
                reputation_shed_sum: r.f64()?,
                forced_steps: r.u64()?,
                departures: r.u64()?,
                rejoins: r.u64()?,
                override_votes: r.u64()?,
            });
        }
        let schedule_count = r.len()?;
        let mut reentry_schedule = Vec::with_capacity(schedule_count);
        for _ in 0..schedule_count {
            let at = r.u64()?;
            reentry_schedule.push((at, r.u32()?));
        }
        let net_stats = NetStats {
            grants_offered: r.f64()?,
            grants_applied: r.f64()?,
            grants_lost: r.f64()?,
            grants_delayed: r.f64()?,
            transfers_failed: r.u64()?,
            transfers_timed_out: r.u64()?,
            transfers_rerouted: r.u64()?,
        };
        let policy_count = r.len()?;
        let mut adversary_policies = Vec::with_capacity(policy_count);
        for _ in 0..policy_count {
            adversary_policies.push(match r.u8()? {
                0 => None,
                1 => Some(read_policy(r)?),
                other => {
                    return Err(SnapshotError::Corrupt(format!(
                        "invalid option tag {other}"
                    )))
                }
            });
        }
        let since_count = r.len()?;
        let mut offline_since = Vec::with_capacity(since_count);
        for _ in 0..since_count {
            offline_since.push(r.opt_u64()?);
        }
        let state = Self {
            step,
            rng,
            propagation_rng,
            churn_rng,
            adversary_rng,
            net_rng,
            peers,
            articles,
            pending_edits,
            edit_outcomes,
            next_edit_id,
            article_words,
            held,
            offered,
            ledger,
            transfers,
            q,
            updates,
            last_state,
            last_action,
            behaviors,
            uploads,
            active_transfer,
            accepted_since_punishment,
            accumulators,
            measuring,
            evaluation_steps_run,
            downloads_completed_in_evaluation,
            edit_outcome_baseline,
            churn_stats,
            global_reputation,
            propagation_runs,
            propagated_service_reputation,
            adversary_stats,
            reentry_schedule,
            net_stats,
            adversary_policies,
            offline_since,
        };
        state
            .check_articles(state.peers.len())
            .map_err(SnapshotError::Corrupt)?;
        state.check_ledger().map_err(SnapshotError::Corrupt)?;
        state.q.check().map_err(SnapshotError::Corrupt)?;
        state.check_uploads().map_err(SnapshotError::Corrupt)?;
        Ok(state)
    }
}

impl Snapshot {
    /// Captures a snapshot of `world`, embedding `spec` (the spec the
    /// simulation was built from) as its exact text form.
    pub fn capture(world: &SimWorld, spec: &ScenarioSpec) -> Self {
        Self {
            spec_text: spec.to_text(),
            state: WorldState::capture(world),
        }
    }

    /// The step counter at capture time.
    pub fn step(&self) -> u64 {
        self.state.step
    }

    /// Restores this snapshot's state onto a freshly constructed world
    /// (built from the same spec). See [`WorldState::apply`].
    pub fn apply(&self, world: &mut SimWorld) -> Result<(), SnapshotError> {
        self.state.apply(world)
    }

    fn encode_payload(&self, w: &mut Writer) {
        w.str(&self.spec_text);
        self.state.encode(w);
    }

    /// Encodes the snapshot into its framed binary form:
    /// magic, version, payload length, payload, XXH64 content hash.
    /// Encoding is deterministic — equal snapshots produce equal bytes.
    ///
    /// A counting pass over the same payload encoder sizes the frame
    /// first, so the payload is written once, straight into a buffer of
    /// exactly the frame's size.
    pub fn encode(&self) -> Vec<u8> {
        let mut counter = Writer::Count(0);
        self.encode_payload(&mut counter);
        let frame_len = HEADER_LEN + counter.len() + TRAILER_LEN;
        let mut frame = Vec::with_capacity(frame_len);
        frame.extend_from_slice(&SNAPSHOT_MAGIC);
        frame.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        // The payload length, patched in once the payload is written.
        frame.extend_from_slice(&[0; 8]);
        let mut w = Writer::Bytes(frame);
        self.encode_payload(&mut w);
        let mut frame = w.into_bytes();
        let payload_len = frame.len() - HEADER_LEN;
        frame[10..HEADER_LEN].copy_from_slice(&(payload_len as u64).to_le_bytes());
        let hash = xxh64(&frame[HEADER_LEN..]);
        frame.extend_from_slice(&hash.to_le_bytes());
        debug_assert_eq!(
            frame.len(),
            frame_len,
            "the counting pass must size the frame exactly"
        );
        frame
    }

    /// Decodes a framed snapshot, verifying magic, version, length and
    /// content hash before parsing the payload. Every malformation is a
    /// typed [`SnapshotError`], never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < HEADER_LEN + TRAILER_LEN {
            return Err(SnapshotError::Corrupt(format!(
                "{} bytes is shorter than the minimal frame",
                bytes.len()
            )));
        }
        if bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::Corrupt(
                "bad magic (not a collabsim snapshot)".to_string(),
            ));
        }
        let version = u16::from_le_bytes(bytes[8..10].try_into().unwrap());
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch { found: version });
        }
        let announced = u64::from_le_bytes(bytes[10..HEADER_LEN].try_into().expect("8 bytes"));
        let payload_len = usize::try_from(announced).unwrap_or(usize::MAX);
        let expected_total = HEADER_LEN
            .checked_add(payload_len)
            .and_then(|n| n.checked_add(TRAILER_LEN));
        if expected_total != Some(bytes.len()) {
            return Err(SnapshotError::Corrupt(format!(
                "frame length mismatch: header announces a {announced}-byte payload, file has {} bytes",
                bytes.len()
            )));
        }
        let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len];
        let stored_hash = trailer_hash(bytes);
        let actual_hash = xxh64(payload);
        if stored_hash != actual_hash {
            return Err(SnapshotError::Corrupt(format!(
                "content hash mismatch (stored {stored_hash:016x}, computed {actual_hash:016x})"
            )));
        }
        let mut reader = Reader::new(payload);
        let spec_text = reader.str()?;
        let state = WorldState::decode(&mut reader)?;
        reader.finish()?;
        Ok(Self { spec_text, state })
    }

    /// Forks the snapshot onto a different originating spec — the
    /// warm-start primitive: equilibrate a base population once, then fork
    /// one cell per scenario variant from the shared checkpoint.
    ///
    /// The new spec must describe the *same* population (size, behaviour
    /// mix, seed — [`WorldState::apply`] rejects anything whose
    /// deterministic behaviour assignment differs), but may change what
    /// happens next: incentive scheme, phase lengths, and in particular the
    /// adversary roster. Per-unit attack counters are realigned to the new
    /// spec's unit list — units the fork adds start with zeroed
    /// [`AttackStats`] (fresh attackers entering an equilibrated network),
    /// units it removes drop their counters, and the re-entry schedule of a
    /// removed roster is cleared.
    /// Learned adversary policies survive the fork only when the new
    /// spec's unit list has the same length (the train → frozen-eval case,
    /// where a trained Q-table is carried into a zero-exploration replay);
    /// any other roster change starts every unit untrained.
    pub fn with_spec(&self, spec: &ScenarioSpec) -> Snapshot {
        let mut state = self.state.clone();
        let units = spec.config().adversaries.len();
        state.adversary_stats.resize(units, AttackStats::default());
        if state.adversary_policies.len() != units {
            state.adversary_policies = vec![None; units];
        }
        if units == 0 {
            state.reentry_schedule.clear();
        }
        Snapshot {
            spec_text: spec.to_text(),
            state,
        }
    }

    /// The content-derived store key of this snapshot:
    /// `step<step>-<hash>`, where the hash is the frame's content hash —
    /// lexicographic order is chronological order, and the hash makes
    /// distinct states at the same step distinct keys.
    pub fn key(&self) -> String {
        frame_key(self.state.step, &self.encode())
    }
}

/// The store key of an encoded frame taken at `step`: the hash is the
/// frame's trailing content hash, so a store that already holds the frame
/// derives the key without hashing again.
pub(crate) fn frame_key(step: u64, frame: &[u8]) -> String {
    format!("step{step:010}-{:016x}", trailer_hash(frame))
}

/// The content hash stored in the trailer of a frame at least
/// `TRAILER_LEN` bytes long.
fn trailer_hash(frame: &[u8]) -> u64 {
    let trailer = &frame[frame.len() - TRAILER_LEN..];
    u64::from_le_bytes(trailer.try_into().expect("an 8-byte trailer"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PhaseConfig, SimulationConfig};
    use crate::engine::Simulation;
    use crate::gametheory::behavior::BehaviorMix;

    fn quick_spec() -> ScenarioSpec {
        let config = SimulationConfig {
            population: 20,
            initial_articles: 10,
            phases: PhaseConfig {
                training_steps: 60,
                evaluation_steps: 40,
                ..Default::default()
            },
            mix: BehaviorMix::new(0.5, 0.25, 0.25),
            seed: 0xC0FFEE,
            ..Default::default()
        };
        ScenarioSpec::from_config(config).expect("valid config")
    }

    #[test]
    fn encode_decode_round_trips_bitwise() {
        let spec = quick_spec();
        let mut sim = Simulation::from_spec(&spec).unwrap();
        for _ in 0..30 {
            sim.step(10_000.0);
        }
        let snapshot = sim.snapshot(&spec);
        let bytes = snapshot.encode();
        let decoded = Snapshot::decode(&bytes).expect("decodes");
        assert_eq!(decoded.encode(), bytes, "re-encoding must be bit-identical");
        assert_eq!(decoded.spec_text, snapshot.spec_text);
        assert_eq!(decoded.step(), 30);
    }

    #[test]
    fn truncation_and_bit_flips_are_detected() {
        let spec = quick_spec();
        let mut sim = Simulation::from_spec(&spec).unwrap();
        sim.step(10_000.0);
        let bytes = sim.snapshot(&spec).encode();
        for cut in [0, 5, 17, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(
                    Snapshot::decode(&bytes[..cut]),
                    Err(SnapshotError::Corrupt(_))
                ),
                "truncation at {cut} must be detected"
            );
        }
        // One flipped bit anywhere in the magic, version, length, payload
        // or trailer is caught before the payload is parsed.
        let len = bytes.len();
        let header = [0, 7, 8, 9, 10, 17];
        let payload_and_trailer = [18, 19, len / 3, len / 2, len - 9, len - 8, len - 1];
        for offset in header.into_iter().chain(payload_and_trailer) {
            let mut flipped = bytes.clone();
            flipped[offset] ^= 0x40;
            assert!(
                matches!(
                    Snapshot::decode(&flipped),
                    Err(SnapshotError::Corrupt(_) | SnapshotError::VersionMismatch { .. })
                ),
                "bit flip at {offset} must be detected"
            );
        }
    }

    #[test]
    fn version_mismatch_is_typed() {
        let spec = quick_spec();
        let sim = Simulation::from_spec(&spec).unwrap();
        let bytes = sim.snapshot(&spec).encode();
        // 2 is the retired layout that still carried the DHT state, 3 the
        // next one under the previous content hash, 4 the last layout that
        // carried the full edit log, 5 the last one that carried the
        // article store as id lists, 6 the last one that stored the
        // Q-values rank-major (same length, so it would read transposed),
        // 7 the last one that stored every Q-plane and one upload list per
        // uploader.
        for version in [0x63u16, 2, 3, 4, 5, 6, 7] {
            let mut bytes = bytes.clone();
            bytes[8..10].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                Snapshot::decode(&bytes),
                Err(SnapshotError::VersionMismatch { found }) if found == version
            ));
        }
    }

    #[test]
    fn resume_mid_training_is_bit_identical() {
        let spec = quick_spec();
        let straight = Simulation::from_spec(&spec).unwrap().run();

        let mut first_half = Simulation::from_spec(&spec).unwrap();
        for _ in 0..25 {
            first_half.step(spec.config().phases.training_temperature);
        }
        let snapshot = first_half.snapshot(&spec);
        drop(first_half);
        let bytes = snapshot.encode();
        let restored = Snapshot::decode(&bytes).unwrap();
        let mut resumed = Simulation::resume_from(&restored).unwrap();
        let report = resumed.finish();
        assert_eq!(
            format!("{straight:?}"),
            format!("{report:?}"),
            "resumed run must reproduce the straight run bit for bit"
        );
    }

    #[test]
    fn checkpointed_run_is_unperturbed_and_resumes_mid_evaluation() {
        let spec = quick_spec();
        let straight = Simulation::from_spec(&spec).unwrap().run();

        // 60 training + 40 evaluation steps, checkpoint every 25 global
        // steps → snapshots at 25, 50 (training), 75, 100 (evaluation).
        let mut store = MemStore::new();
        let mut sim = Simulation::from_spec(&spec).unwrap();
        let (checkpointed, keys) = sim
            .run_with_checkpoints(&spec, 25, &mut store)
            .expect("checkpointed run succeeds");
        assert_eq!(
            format!("{straight:?}"),
            format!("{checkpointed:?}"),
            "taking checkpoints must not perturb the run"
        );
        assert_eq!(keys.len(), 4);
        assert_eq!(store.keys().unwrap(), keys, "keys sort chronologically");

        let mid_evaluation = store.get(&keys[2]).expect("snapshot at step 75");
        assert!(mid_evaluation.state.measuring);
        assert_eq!(mid_evaluation.step(), 75);
        let report = Simulation::resume_from(&mid_evaluation).unwrap().finish();
        assert_eq!(format!("{straight:?}"), format!("{report:?}"));
    }

    #[test]
    fn resume_restores_every_named_rng_stream() {
        // A scenario exercising churn + adversaries + propagation + faults
        // draws from all five streams; resume must continue each stream
        // exactly where it stopped.
        let mut config = SimulationConfig {
            population: 24,
            initial_articles: 8,
            phases: PhaseConfig {
                training_steps: 50,
                evaluation_steps: 30,
                ..Default::default()
            },
            mix: BehaviorMix::new(0.5, 0.25, 0.25),
            seed: 7,
            propagation: crate::config::PropagationConfig {
                scheme: Some(crate::reputation::propagation::PropagationScheme::EigenTrust),
                interval: 10,
                pretrusted: 0,
            },
            ..Default::default()
        };
        config.churn = crate::netsim::churn::ChurnModel {
            join_probability: 0.02,
            leave_probability: 0.02,
            whitewash_probability: 0.01,
        };
        config.network = crate::netsim::fault::LinkModel::IidLoss { loss: 0.05 };
        config.adversaries = vec![crate::adversary::AdversarySpec::new("naive-whitewash", 3)];
        let spec = ScenarioSpec::from_config(config).expect("valid config");

        let straight = Simulation::from_spec(&spec).unwrap().run();
        let mut sim = Simulation::from_spec(&spec).unwrap();
        for _ in 0..23 {
            sim.step(spec.config().phases.training_temperature);
        }
        let restored = Snapshot::decode(&sim.snapshot(&spec).encode()).unwrap();
        let mut resumed = Simulation::resume_from(&restored).unwrap();
        let report = resumed.finish();
        assert_eq!(format!("{straight:?}"), format!("{report:?}"));
    }

    #[test]
    fn warm_start_fork_onto_an_adversary_cell_is_deterministic() {
        // Equilibrate an adversary-free base population through training,
        // then fork a strategy cell from the shared checkpoint: the fork
        // realigns the per-unit attack counters (fresh attackers enter an
        // equilibrated network with zeroed stats), and an in-memory resume
        // is bit-identical to a resume of the encoded/decoded fork — the
        // warm == cold property of the warm-started grids.
        let base = quick_spec();
        let mut sim = Simulation::from_spec(&base).unwrap();
        sim.run_training();
        let checkpoint = sim.snapshot(&base);
        assert_eq!(checkpoint.step(), 60);
        assert!(checkpoint.state.adversary_stats.is_empty());

        let cell_config = SimulationConfig {
            population: 20,
            initial_articles: 10,
            phases: PhaseConfig {
                training_steps: 60,
                evaluation_steps: 40,
                ..Default::default()
            },
            adversaries: vec![crate::adversary::AdversarySpec::new("collusion-ring", 2)],
            mix: BehaviorMix::new(0.5, 0.25, 0.25),
            seed: 0xC0FFEE,
            ..Default::default()
        };
        let cell_spec = ScenarioSpec::from_config(cell_config).expect("valid cell config");

        let fork = checkpoint.with_spec(&cell_spec);
        assert_eq!(fork.state.adversary_stats.len(), 1, "one fresh unit");
        let warm = Simulation::resume_from(&fork).unwrap().finish();
        let cold = Simulation::resume_from(&Snapshot::decode(&fork.encode()).unwrap())
            .unwrap()
            .finish();
        assert_eq!(
            format!("{warm:?}"),
            format!("{cold:?}"),
            "warm in-memory fork and cold on-disk fork must agree bit for bit"
        );
    }

    #[test]
    fn learned_policy_survives_the_codec_and_same_shape_forks() {
        // A training run of the learning adversary leaves a non-trivial
        // Q-table in the snapshot; the policy must round-trip bit for bit
        // through encode/decode, survive a with_spec fork onto a same-shape
        // roster (the train → frozen-eval handoff), and be dropped by a
        // fork that changes the unit count.
        let mut config = SimulationConfig {
            population: 20,
            initial_articles: 10,
            phases: PhaseConfig {
                training_steps: 60,
                evaluation_steps: 40,
                ..Default::default()
            },
            mix: BehaviorMix::new(0.5, 0.25, 0.25),
            seed: 0xC0FFEE,
            ..Default::default()
        };
        config.adversaries =
            vec![crate::adversary::AdversarySpec::new("learning", 3).with_parameter(0.2)];
        let spec = ScenarioSpec::from_config(config.clone()).expect("valid config");
        let mut sim = Simulation::from_spec(&spec).unwrap();
        for _ in 0..40 {
            sim.step(spec.config().phases.training_temperature);
        }
        let snapshot = sim.snapshot(&spec);
        let policy = snapshot.state.adversary_policies[0]
            .as_ref()
            .expect("learning unit exports a policy");
        assert!(policy.updates > 0, "training must have updated the table");
        assert!(policy.q.iter().any(|&v| v != 0.0));

        let decoded = Snapshot::decode(&snapshot.encode()).expect("decodes");
        assert_eq!(
            decoded.state.adversary_policies,
            snapshot.state.adversary_policies
        );
        assert_eq!(decoded.state.offline_since, snapshot.state.offline_since);

        let mut frozen_config = config.clone();
        frozen_config.adversaries =
            vec![crate::adversary::AdversarySpec::new("learning", 3).with_parameter(0.0)];
        let frozen_spec = ScenarioSpec::from_config(frozen_config).expect("valid config");
        let fork = snapshot.with_spec(&frozen_spec);
        assert_eq!(
            fork.state.adversary_policies, snapshot.state.adversary_policies,
            "same-shape fork carries the trained policy"
        );

        let mut bare_config = config;
        bare_config.adversaries.clear();
        let bare_spec = ScenarioSpec::from_config(bare_config).expect("valid config");
        let dropped = snapshot.with_spec(&bare_spec);
        assert!(dropped.state.adversary_policies.is_empty());
    }

    #[test]
    fn pending_edits_round_trip_and_resolve_after_restore() {
        let spec = quick_spec();
        let mut sim = Simulation::from_spec(&spec).unwrap();
        for _ in 0..10 {
            sim.step(10_000.0);
        }
        let edit = sim
            .world_mut()
            .articles
            .submit_edit(ArticleId(3), PeerId(5), EditKind::Destructive)
            .expect("no edit is pending at a step boundary");
        let snapshot = sim.snapshot(&spec);
        assert_eq!(snapshot.state.pending_edits.len(), 1);
        let decoded = Snapshot::decode(&snapshot.encode()).expect("decodes");
        assert_eq!(decoded.state.articles, snapshot.state.articles);
        assert_eq!(decoded.state.pending_edits, snapshot.state.pending_edits);
        assert_eq!(decoded.state.edit_outcomes, snapshot.state.edit_outcomes);
        assert_eq!(decoded.state.next_edit_id, snapshot.state.next_edit_id);

        let mut resumed = Simulation::resume_from(&decoded).unwrap();
        assert_eq!(resumed.articles(), sim.articles());
        let damage = resumed
            .articles()
            .article(ArticleId(3))
            .accepted_destructive;
        resumed.world_mut().articles.resolve_edit(edit, true);
        let article = resumed.articles().article(ArticleId(3));
        assert!(article.voters().contains(&PeerId(5)));
        assert_eq!(article.accepted_destructive, damage + 1);
    }

    /// `article` with its voter set replaced.
    fn with_voters(article: &Article, voters: Vec<PeerId>) -> Article {
        Article::from_parts(
            article.id,
            article.creator,
            article.created_at,
            article.revision_count() as u64,
            voters,
            article.accepted_destructive,
            article.pending_edit,
        )
    }

    /// Article state that contradicts itself or its population is refused
    /// as a typed error, at decode (`Corrupt`) and at apply (`Mismatch`),
    /// instead of panicking in a later edit vote. Decode refuses an
    /// article-store word count no row can have; apply checks the store's
    /// tables against the spec and the registry, so a tampered store
    /// cannot misdirect a download pick or a replica add. A ledger value
    /// no mutator writes (negative or non-finite) is refused at both, and
    /// so are a Q column or upload columns that contradict themselves; a
    /// Q layout or upload columns that do not fit the spec's population
    /// are refused at apply. What decode does not refuse, it accepts.
    /// Every tamper is encoded afresh, so its frame hash is valid.
    #[test]
    fn malformed_article_and_ledger_state_is_a_typed_error_at_decode_and_apply() {
        const POPULATION: u32 = 60;
        // Editor-restricted voting (the large-population preset), so every
        // edit vote reads its article's voter set.
        let config = SimulationConfig {
            seed: 11,
            ..SimulationConfig::large_population(POPULATION as usize)
        };
        let spec = ScenarioSpec::from_config(config).expect("valid config");
        let mut sim = Simulation::from_spec(&spec).unwrap();
        for _ in 0..5 {
            sim.step(spec.config().phases.training_temperature);
        }
        let snapshot = sim.snapshot(&spec);
        assert!(Simulation::resume_from(&Snapshot::decode(&snapshot.encode()).unwrap()).is_ok());

        // 200 articles: four words per article-store row.
        assert_eq!(snapshot.state.article_words, 4);
        // Learners wrote at least two Q-planes (so a plane length of
        // `u64::MAX` overflows the stored size), and some uploader has two
        // relations.
        assert!(snapshot.state.q.mask.count_ones() >= 2);
        assert!(snapshot.state.uploads.counts.iter().any(|&n| n >= 2));
        type Tamper = fn(&mut WorldState);
        // Each tamper, and whether decode already refuses it.
        let tampers: [(&str, Tamper, bool); 26] = [
            (
                "unsorted voter set",
                |state| {
                    state.articles[0] = with_voters(&state.articles[0], vec![PeerId(2), PeerId(1)]);
                },
                true,
            ),
            (
                "duplicate voters",
                |state| {
                    state.articles[0] = with_voters(&state.articles[0], vec![PeerId(1), PeerId(1)]);
                },
                true,
            ),
            // Restored unchecked, the next vote on any article read this
            // voter's editing reputation out of bounds.
            (
                "voter outside the population",
                |state| {
                    for article in &mut state.articles {
                        let mut voters = article.voters().to_vec();
                        voters.push(PeerId(POPULATION));
                        *article = with_voters(article, voters);
                    }
                },
                true,
            ),
            (
                "pending edit its article does not name",
                |state| {
                    state.pending_edits.push(Edit {
                        id: EditId(state.next_edit_id),
                        article: ArticleId(1),
                        author: PeerId(0),
                        kind: EditKind::Constructive,
                    });
                    state.next_edit_id += 1;
                },
                true,
            ),
            (
                "article naming an edit that is not pending",
                |state| {
                    state.articles[1].pending_edit = Some(EditId(0));
                },
                true,
            ),
            (
                "zero article-store words",
                |state| state.article_words = 0,
                true,
            ),
            (
                "more article-store words than u32 ids need",
                |state| state.article_words = MAX_ARTICLE_WORDS + 1,
                true,
            ),
            (
                "a word count other than the spec's",
                |state| {
                    let words = state.article_words;
                    let widen = |table: &[u64]| -> Vec<u64> {
                        table
                            .chunks_exact(words)
                            .flat_map(|row| row.iter().copied().chain([0]))
                            .collect()
                    };
                    state.held = widen(&state.held);
                    state.offered = widen(&state.offered);
                    state.article_words += 1;
                },
                false,
            ),
            (
                "article-store tables a row short",
                |state| {
                    let len = state.held.len() - state.article_words;
                    state.held.truncate(len);
                    state.offered.truncate(len);
                },
                false,
            ),
            // Restored unchecked, the registry fallback could name an
            // article past the store's rows.
            (
                "more articles than the store's rows hold",
                |state| {
                    let first = state.articles.len() as u32;
                    let cover = (state.article_words * 64) as u32;
                    state.articles.extend((first..=cover).map(|a| {
                        Article::from_parts(ArticleId(a), PeerId(0), 0, 0, Vec::new(), 0, None)
                    }));
                },
                false,
            ),
            (
                "a held article past the registry",
                |state| {
                    let a = state.articles.len();
                    state.held[a / 64] |= 1 << (a % 64);
                },
                false,
            ),
            (
                "an offered article the peer does not hold",
                |state| {
                    let a = (0..state.articles.len())
                        .find(|&a| state.held[a / 64] >> (a % 64) & 1 == 0)
                        .expect("peer 0 lacks an article");
                    state.offered[a / 64] |= 1 << (a % 64);
                },
                false,
            ),
            // Restored unchecked, reads clamped the NaN to `R_min` and
            // `record_editing` kept adding to it.
            (
                "a NaN editing contribution",
                |state| state.ledger[7].editing = f64::NAN,
                true,
            ),
            (
                "a negative sharing contribution",
                |state| state.ledger[7].sharing = -1.0,
                true,
            ),
            (
                "an infinite article total",
                |state| state.ledger[7].total_articles = f64::INFINITY,
                true,
            ),
            // A `u64` mask covers at most 64 planes, and a bit past the
            // plane count names a plane the table does not have.
            (
                "more Q-planes than a mask covers",
                |state| state.q.planes = MAX_REPUTATION_STATES as u32 + 1,
                true,
            ),
            (
                "a Q-plane mask bit at or past the plane count",
                |state| {
                    let q = &mut state.q;
                    q.mask |= 1 << q.planes;
                    q.values.extend(vec![0.0; q.plane_len as usize]);
                },
                true,
            ),
            (
                "a stored Q-value more than the marked planes hold",
                |state| state.q.values.push(0.5),
                true,
            ),
            (
                "marked planes whose length overflows",
                |state| state.q.plane_len = u64::MAX,
                true,
            ),
            (
                "upload counts that do not sum to the column length",
                |state| state.uploads.counts[0] += 1,
                true,
            ),
            (
                "an amount column longer than the counterparties",
                |state| state.uploads.amounts.push(1.0),
                true,
            ),
            (
                "upload counterparties out of order within a row",
                |state| {
                    let uploads = &mut state.uploads;
                    let mut start = 0;
                    for &count in &uploads.counts {
                        if count >= 2 {
                            uploads.to.swap(start, start + 1);
                            return;
                        }
                        start += count as usize;
                    }
                },
                true,
            ),
            (
                "a Q-plane count other than the spec's",
                |state| state.q.planes += 1,
                false,
            ),
            (
                "a Q-plane length other than the spec's",
                |state| {
                    let q = &mut state.q;
                    let fill = f64::from_bits(q.fill);
                    q.values = q
                        .values
                        .chunks_exact(q.plane_len as usize)
                        .flat_map(|plane| plane.iter().copied().chain([fill]))
                        .collect();
                    q.plane_len += 1;
                },
                false,
            ),
            (
                "an upload counts column one peer too long",
                |state| state.uploads.counts.push(0),
                false,
            ),
            // Restored unchecked, the rebuild would index the reverse index
            // out of bounds.
            (
                "an upload counterparty outside the population",
                |state| {
                    let uploads = &mut state.uploads;
                    *uploads.counts.last_mut().unwrap() += 1;
                    uploads.to.push(POPULATION);
                    uploads.amounts.push(1.0);
                },
                false,
            ),
        ];
        for (case, tamper, at_decode) in tampers {
            let mut bad = snapshot.clone();
            tamper(&mut bad.state);
            let decoded = Snapshot::decode(&bad.encode());
            if at_decode {
                assert!(
                    matches!(decoded, Err(SnapshotError::Corrupt(_))),
                    "{case}: decode"
                );
            } else {
                assert!(decoded.is_ok(), "{case}: decode refused {decoded:?}");
            }
            assert!(
                matches!(
                    Simulation::resume_from(&bad),
                    Err(SnapshotError::Mismatch(_))
                ),
                "{case}: apply"
            );
        }
        let mut bad = snapshot.clone();
        bad.state.ledger[7].editing = f64::NAN;
        match Snapshot::decode(&bad.encode()) {
            Err(SnapshotError::Corrupt(message)) => assert!(
                message.contains("peer 7") && message.contains("editing"),
                "{message}"
            ),
            other => panic!("a NaN editing contribution decoded as {other:?}"),
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A world no learner has stepped stores no Q-plane.
    #[test]
    fn a_fresh_world_stores_no_q_plane() {
        let spec = quick_spec();
        let sim = Simulation::from_spec(&spec).unwrap();
        let q = sim.snapshot(&spec).state.q;
        assert_eq!((q.mask, q.values.len()), (0, 0));
        assert_eq!((q.planes, q.fill), (10, 0.0f64.to_bits()));
    }

    /// After training, a plane is stored exactly when it holds a value
    /// other than the fill in the live world, so every plane the mask
    /// omits holds only the fill's bits; restoring gives back the live
    /// column, and the decoded snapshot re-encodes to the same bytes.
    #[test]
    fn only_the_q_planes_a_learner_wrote_are_stored() {
        let spec = quick_spec();
        let mut sim = Simulation::from_spec(&spec).unwrap();
        sim.run_training();
        let snapshot = sim.snapshot(&spec);
        let q = &snapshot.state.q;
        // This run writes some planes and leaves others untouched.
        let written = q.mask.count_ones();
        assert!(written > 0 && written < q.planes, "{:#x}", q.mask);
        let live = sim.world().agents.q_values();
        for (b, plane) in live.chunks_exact(q.plane_len as usize).enumerate() {
            let written = plane.iter().any(|v| v.to_bits() != q.fill);
            assert_eq!(q.mask >> b & 1 == 1, written, "plane {b}");
        }
        assert_eq!(bits(&q.to_dense()), bits(live));
        let bytes = snapshot.encode();
        assert_eq!(Snapshot::decode(&bytes).unwrap().encode(), bytes);
    }

    /// A learned `-0.0` under a `0.0` fill differs from the fill in its
    /// bits, so its plane is stored and restored with its sign.
    #[test]
    fn a_learned_negative_zero_keeps_its_plane() {
        let spec = quick_spec();
        let mut sim = Simulation::from_spec(&spec).unwrap();
        let agents = &mut sim.world_mut().agents;
        let mut q = agents.q_values().to_vec();
        q[3 * agents.plane_len() + 5] = -0.0;
        let (updates, last_state, last_action) = (
            agents.update_counts().to_vec(),
            agents.last_states_raw().to_vec(),
            agents.last_actions_raw().to_vec(),
        );
        agents.restore_learning_state(q.clone(), &updates, &last_state, &last_action);
        let snapshot = sim.snapshot(&spec);
        assert_eq!(snapshot.state.q.mask, 1 << 3);
        let decoded = Snapshot::decode(&snapshot.encode()).unwrap();
        let resumed = Simulation::resume_from(&decoded).unwrap();
        assert_eq!(bits(resumed.world().agents.q_values()), bits(&q));
    }

    /// Planes the snapshot omits take its fill, not the target spec's
    /// `initial_q`: a fork onto a spec with another `initial_q` resumes
    /// with the captured world's Q-values, bit for bit.
    #[test]
    fn a_fork_onto_another_initial_q_restores_the_captured_q_values() {
        let spec = quick_spec();
        let mut sim = Simulation::from_spec(&spec).unwrap();
        sim.run_training();
        let snapshot = sim.snapshot(&spec);
        assert_ne!(snapshot.state.q.mask, 0);
        let mut config = spec.config().clone();
        config.learning.initial_q = 1.5;
        let fork = snapshot.with_spec(&ScenarioSpec::from_config(config).expect("valid config"));
        for fork in [fork.clone(), Snapshot::decode(&fork.encode()).unwrap()] {
            let resumed = Simulation::resume_from(&fork).unwrap();
            assert_eq!(
                bits(resumed.world().agents.q_values()),
                bits(sim.world().agents.q_values())
            );
        }
    }

    /// The checkpoint of the default 100-peer configuration stays the
    /// same size as the run grows: article state is sized by the
    /// population, not by the number of edits so far.
    #[test]
    fn checkpoint_size_does_not_grow_with_run_length() {
        let spec = ScenarioSpec::from_config(SimulationConfig::default()).expect("valid config");
        let temperature = spec.config().phases.training_temperature;
        let mut sim = Simulation::from_spec(&spec).unwrap();
        let mut sizes = Vec::new();
        for _ in 0..2 {
            for _ in 0..2_000 {
                sim.step(temperature);
            }
            sizes.push(sim.snapshot(&spec).encode().len());
        }
        assert!(
            sizes[1] as f64 <= sizes[0] as f64 * 1.02,
            "checkpoint grew from {} B at step 2000 to {} B at step 4000",
            sizes[0],
            sizes[1]
        );
    }

    #[test]
    fn mispaired_state_is_a_typed_mismatch() {
        let spec = quick_spec();
        let sim = Simulation::from_spec(&spec).unwrap();
        let mut snapshot = sim.snapshot(&spec);
        // Embed a spec with a different population: state no longer fits.
        let other = ScenarioSpec::from_config(SimulationConfig {
            population: 30,
            initial_articles: 10,
            phases: PhaseConfig {
                training_steps: 60,
                evaluation_steps: 40,
                ..Default::default()
            },
            seed: 0xC0FFEE,
            ..Default::default()
        })
        .unwrap();
        snapshot.spec_text = other.to_text();
        assert!(matches!(
            Simulation::resume_from(&snapshot),
            Err(SnapshotError::Mismatch(_))
        ));
    }
}
