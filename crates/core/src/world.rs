//! The mutable simulation state shared by every pipeline phase.
//!
//! [`SimWorld`] owns the whole network — peers, articles, reputation
//! ledger, learners, RNG — while the *logic* of a time step lives in the
//! [`crate::pipeline`] phases that operate on it. Splitting state from
//! logic is what lets incentive schemes, substrates and experimental
//! phases plug into the step loop without touching the engine: a phase
//! receives `&mut SimWorld` plus the per-step scratch
//! [`crate::pipeline::StepContext`] and is otherwise free.

use crate::active::ActiveSets;
use crate::adversary::{AdversaryRegistry, AdversaryRoster};
use crate::agent::AgentState;
use crate::agent_table::AgentTable;
use crate::config::{ReputationSource, SimulationConfig};
use crate::gametheory::behavior::BehaviorType;
use crate::netsim::article::{ArticleId, ArticleRegistry, EditOutcomeCounts};
use crate::netsim::bandwidth::BandwidthAllocator;
use crate::netsim::clock::SimClock;
use crate::netsim::dht::{self, DhtKey};
use crate::netsim::peer::{PeerId, PeerRegistry};
use crate::netsim::storage::ArticleStore;
use crate::netsim::transfer::TransferManager;
use crate::report::{BehaviorBreakdown, SimulationReport};
use crate::reputation::function::LogisticReputation;
use crate::reputation::propagation::GlobalReputation;
use crate::reputation::service::ServiceDifferentiation;
use crate::reputation::sharded::ShardedLedger;
use crate::rl::space::StateSpace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Contribution units corresponding to sharing the full 100-article storage
/// (`S_articles` in the paper's `C_S` formula). Together with the default
/// weights `α_S = 1`, `β_S = 2` this puts a full sharer of both resources
/// at `C_S = 24` — high on the Figure 1 logistic curve but not saturated, so
/// each additional resource class still visibly raises the reputation.
pub const ARTICLE_CONTRIBUTION_UNITS: f64 = 12.0;

/// Contribution units corresponding to sharing the full upload bandwidth
/// (`S_bandwidth` in the paper's `C_S` formula).
pub const BANDWIDTH_CONTRIBUTION_UNITS: f64 = 6.0;

/// Per-peer accumulators filled during the measured evaluation phase.
#[derive(Debug, Clone, Default)]
pub struct PeerAccumulator {
    /// Sum of shared-bandwidth fractions over measured steps.
    pub shared_bandwidth_sum: f64,
    /// Sum of shared-article fractions over measured steps.
    pub shared_articles_sum: f64,
    /// Total bandwidth downloaded over measured steps.
    pub downloaded_sum: f64,
    /// Total utility (reward) over measured steps.
    pub utility_sum: f64,
    /// Constructive edit attempts during measurement.
    pub constructive_edits: u64,
    /// Destructive edit attempts during measurement.
    pub destructive_edits: u64,
    /// Votes cast during measurement.
    pub votes: u64,
    /// Number of measured steps.
    pub steps: u64,
}

/// Struct-of-arrays storage for the per-peer evaluation accumulators.
///
/// The utility phase is the only writer and touches every online peer every
/// measured step; one dense array per field lets it stream eight flat
/// vectors instead of strided [`PeerAccumulator`] structs.
/// [`AccumulatorTable::peer`] materialises the per-peer struct view for
/// reporting and tests.
#[derive(Debug, Clone, Default)]
pub struct AccumulatorTable {
    /// Per-peer sums of shared-bandwidth fractions over measured steps.
    pub shared_bandwidth_sum: Vec<f64>,
    /// Per-peer sums of shared-article fractions over measured steps.
    pub shared_articles_sum: Vec<f64>,
    /// Per-peer total bandwidth downloaded over measured steps.
    pub downloaded_sum: Vec<f64>,
    /// Per-peer total utility (reward) over measured steps.
    pub utility_sum: Vec<f64>,
    /// Per-peer constructive edit attempts during measurement.
    pub constructive_edits: Vec<u64>,
    /// Per-peer destructive edit attempts during measurement.
    pub destructive_edits: Vec<u64>,
    /// Per-peer votes cast during measurement.
    pub votes: Vec<u64>,
    /// Per-peer count of measured steps.
    pub steps: Vec<u64>,
}

impl AccumulatorTable {
    /// An all-zero table over `population` peers.
    pub fn new(population: usize) -> Self {
        Self {
            shared_bandwidth_sum: vec![0.0; population],
            shared_articles_sum: vec![0.0; population],
            downloaded_sum: vec![0.0; population],
            utility_sum: vec![0.0; population],
            constructive_edits: vec![0; population],
            destructive_edits: vec![0; population],
            votes: vec![0; population],
            steps: vec![0; population],
        }
    }

    /// Number of peers tracked.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the table tracks no peers.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Zeroes every accumulator in place (no reallocation).
    pub fn reset(&mut self) {
        self.shared_bandwidth_sum.iter_mut().for_each(|v| *v = 0.0);
        self.shared_articles_sum.iter_mut().for_each(|v| *v = 0.0);
        self.downloaded_sum.iter_mut().for_each(|v| *v = 0.0);
        self.utility_sum.iter_mut().for_each(|v| *v = 0.0);
        self.constructive_edits.iter_mut().for_each(|v| *v = 0);
        self.destructive_edits.iter_mut().for_each(|v| *v = 0);
        self.votes.iter_mut().for_each(|v| *v = 0);
        self.steps.iter_mut().for_each(|v| *v = 0);
    }

    /// Materialises the per-peer struct view of one peer's accumulators.
    pub fn peer(&self, p: usize) -> PeerAccumulator {
        PeerAccumulator {
            shared_bandwidth_sum: self.shared_bandwidth_sum[p],
            shared_articles_sum: self.shared_articles_sum[p],
            downloaded_sum: self.downloaded_sum[p],
            utility_sum: self.utility_sum[p],
            constructive_edits: self.constructive_edits[p],
            destructive_edits: self.destructive_edits[p],
            votes: self.votes[p],
            steps: self.steps[p],
        }
    }
}

/// Sparse pairwise upload totals: `get(u, v)` is the total bandwidth peer
/// `u` has uploaded to peer `v`.
///
/// The dense `Vec<Vec<f64>>` predecessor needed `8 · N²` bytes — 80 GB at
/// the 10⁵-peer tier — while actual upload relations are bounded by the
/// number of transfers, so rows are kept as hash maps keyed by the
/// counterparty. Reads of absent pairs return 0.0, exactly like the dense
/// matrix's untouched cells. A row iterates in the map's order, which
/// depends on insertion history and capacity; that order cannot matter,
/// because every reader of a whole row writes each relation to its own
/// cell once (the propagation phase's trust graph) or sorts it (the
/// checkpoint export, [`UploadMatrix::columns`]).
/// The rows use [`PeerKeyHasher`] (a multiplicative hash over the dense
/// `u32` peer id) instead of the DoS-resistant default: the download phase
/// performs one lookup per request and one insert per granted transfer
/// per step.
#[derive(Debug, Clone, Default)]
pub struct UploadMatrix {
    rows: Vec<HashMap<u32, f64, PeerKeyHashBuilder>>,
    /// Reverse index: for each peer, the uploaders with a live relation
    /// *to* it, in unspecified order — what lets
    /// [`UploadMatrix::clear_peer`] drop a whitewashed identity's column in
    /// O(degree) instead of scanning every row.
    incoming: Vec<Vec<u32>>,
}

/// The relations of an [`UploadMatrix`] as three flat columns, row after
/// row in uploader order: what a snapshot stores.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UploadColumns {
    /// Relations per uploader, one entry per peer.
    pub counts: Vec<u32>,
    /// Each relation's counterparty, strictly increasing within a row.
    pub to: Vec<u32>,
    /// Each relation's uploaded total.
    pub amounts: Vec<f64>,
}

/// `BuildHasher` for peer-id-keyed hash maps on hot paths: Fibonacci
/// multiplicative hashing of the `u32` key. Peer ids are dense,
/// attacker-free simulation indices, so SipHash's collision resistance
/// buys nothing here while costing most of the lookup.
#[derive(Debug, Clone, Copy, Default)]
pub struct PeerKeyHashBuilder;

/// Hasher produced by [`PeerKeyHashBuilder`]; see there.
#[derive(Debug, Clone, Copy, Default)]
pub struct PeerKeyHasher(u64);

impl std::hash::Hasher for PeerKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by the u32 keys the matrix stores).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, value: u32) {
        let x = self.0 ^ u64::from(value);
        let x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 29);
    }
}

impl std::hash::BuildHasher for PeerKeyHashBuilder {
    type Hasher = PeerKeyHasher;

    fn build_hasher(&self) -> PeerKeyHasher {
        PeerKeyHasher(0)
    }
}

impl UploadMatrix {
    /// An all-zero matrix over `peers` peers.
    pub fn new(peers: usize) -> Self {
        Self {
            rows: vec![HashMap::default(); peers],
            incoming: vec![Vec::new(); peers],
        }
    }

    /// Number of peers (rows).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the matrix tracks no peers.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total bandwidth `from` has uploaded to `to`.
    pub fn get(&self, from: usize, to: usize) -> f64 {
        self.rows[from].get(&(to as u32)).copied().unwrap_or(0.0)
    }

    /// Adds uploaded bandwidth to the `from → to` total.
    pub fn add(&mut self, from: usize, to: usize, amount: f64) {
        match self.rows[from].entry(to as u32) {
            std::collections::hash_map::Entry::Occupied(mut entry) => {
                *entry.get_mut() += amount;
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(amount);
                self.incoming[to].push(from as u32);
            }
        }
    }

    /// The relations `from` has uploaded over, as `(to, total)` pairs in
    /// the row map's unspecified order.
    pub(crate) fn row(&self, from: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.rows[from]
            .iter()
            .map(|(&to, &amount)| (to as usize, amount))
    }

    /// Number of non-zero upload relations stored.
    pub fn relation_count(&self) -> usize {
        self.rows.iter().map(HashMap::len).sum()
    }

    /// The upload relations as three flat columns, each row sorted by
    /// counterparty id (checkpoint export: the sorted order makes the
    /// serialization independent of map insertion history).
    pub fn columns(&self) -> UploadColumns {
        let relations = self.relation_count();
        let mut columns = UploadColumns {
            counts: Vec::with_capacity(self.rows.len()),
            to: Vec::with_capacity(relations),
            amounts: Vec::with_capacity(relations),
        };
        let mut row = Vec::new();
        for map in &self.rows {
            row.clear();
            row.extend(map.iter().map(|(&to, &amount)| (to, amount)));
            row.sort_unstable_by_key(|&(to, _)| to);
            // A row names distinct peers, and peer ids are `u32`s.
            columns.counts.push(row.len() as u32);
            columns.to.extend(row.iter().map(|&(to, _)| to));
            columns
                .amounts
                .extend(row.iter().map(|&(_, amount)| amount));
        }
        columns
    }

    /// Rebuilds a matrix from a [`UploadMatrix::columns`] export, including
    /// the reverse index. Each row map is sized once, from its count; each
    /// reverse-index list grows by pushes, as a straight run's does, so a
    /// resumed world has room left for its next uploaders. The rows'
    /// iteration order may differ from the original's; see the type docs
    /// for why that cannot matter.
    ///
    /// # Panics
    ///
    /// Panics if the counts do not sum to the length of the other two
    /// columns, or a counterparty is not below `counts.len()`.
    pub fn from_columns(columns: &UploadColumns) -> Self {
        let UploadColumns {
            counts,
            to,
            amounts,
        } = columns;
        assert_eq!(to.len(), amounts.len(), "upload column lengths differ");
        let mut incoming: Vec<Vec<u32>> = vec![Vec::new(); counts.len()];
        let mut start = 0;
        let rows = counts
            .iter()
            .enumerate()
            .map(|(from, &count)| {
                let end = start + count as usize;
                let mut row = HashMap::with_capacity_and_hasher(count as usize, PeerKeyHashBuilder);
                for (&peer, &amount) in to[start..end].iter().zip(&amounts[start..end]) {
                    row.insert(peer, amount);
                    incoming[peer as usize].push(from as u32);
                }
                start = end;
                row
            })
            .collect();
        assert_eq!(start, to.len(), "upload counts do not cover the columns");
        Self { rows, incoming }
    }

    /// Forgets every relation involving `peer` — uploads by it (its row)
    /// and to it (its column, via the reverse index, so the cost is the
    /// peer's degree rather than the population). A whitewashed identity
    /// has no direct-relation history, so tit-for-tat and the trust graph
    /// must see a stranger.
    pub fn clear_peer(&mut self, peer: usize) {
        let key = peer as u32;
        for &to in self.rows[peer].keys() {
            let uploaders = &mut self.incoming[to as usize];
            if let Some(pos) = uploaders.iter().position(|&from| from == key) {
                uploaders.swap_remove(pos);
            }
        }
        self.rows[peer].clear();
        let uploaders = std::mem::take(&mut self.incoming[peer]);
        for from in uploaders {
            self.rows[from as usize].remove(&key);
        }
    }
}

/// Running totals of the churn phase's population dynamics, kept on the
/// world so observers and benches can quantify reputation persistence
/// under re-entry without growing [`SimulationReport`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChurnStats {
    /// Re-entries: departed identities that came back online (the fixed
    /// peer arena models a join as the return of a departed identity, so
    /// its reputation record is still in the ledger).
    pub joins: u64,
    /// Departures (peers going offline).
    pub leaves: u64,
    /// Whitewashes: identities reset in place (the old identity never
    /// returns; a newcomer with `R_min` occupies its slot).
    pub whitewashes: u64,
    /// Sum of sharing reputations observed at the moment of re-entry
    /// (measures how much reputation persisted across the absence).
    pub reentry_reputation_sum: f64,
    /// Sum of sharing reputation *above* `R_min` discarded by whitewashes
    /// (what the adversary paid to shed its record).
    pub whitewash_reputation_shed_sum: f64,
}

impl ChurnStats {
    /// Total churn events recorded.
    pub fn total_events(&self) -> u64 {
        self.joins + self.leaves + self.whitewashes
    }

    /// Mean sharing reputation at re-entry (0 with no re-entries). Values
    /// above `R_min` demonstrate reputation persistence across absences.
    pub fn mean_reentry_reputation(&self) -> f64 {
        if self.joins == 0 {
            0.0
        } else {
            self.reentry_reputation_sum / self.joins as f64
        }
    }

    /// Mean reputation shed per whitewash (0 with no whitewashes).
    pub fn mean_whitewash_shed(&self) -> f64 {
        if self.whitewashes == 0 {
            0.0
        } else {
            self.whitewash_reputation_shed_sum / self.whitewashes as f64
        }
    }
}

/// Running totals of the fault layer's grant accounting and transfer
/// outcomes, kept on the world so the conservation invariant and the
/// fault benches can read them without growing [`SimulationReport`].
///
/// Bandwidth conservation holds by construction:
/// `grants_offered == grants_applied + grants_lost + grants_delayed`
/// (up to floating-point accumulation error) — every allocated grant is
/// consumed by exactly one of the three outcomes. On an ideal network
/// only `grants_offered` and `grants_applied` move, and they are equal.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetStats {
    /// Total bandwidth the allocator granted.
    pub grants_offered: f64,
    /// Bandwidth actually delivered to transfers.
    pub grants_applied: f64,
    /// Bandwidth lost to link faults (the transfer retries after backoff).
    pub grants_lost: f64,
    /// Bandwidth discarded while a link's latency window was still open.
    pub grants_delayed: f64,
    /// Transfers failed permanently after exhausting the retry budget.
    pub transfers_failed: u64,
    /// Transfers cancelled by the no-progress timeout.
    pub transfers_timed_out: u64,
    /// Transfers abandoned because their source disconnected (the
    /// downloader re-drew a source instead of stalling).
    pub transfers_rerouted: u64,
}

impl NetStats {
    /// The bandwidth-conservation residual
    /// `offered - (applied + lost + delayed)`; ≈ 0 by construction.
    pub fn conservation_residual(&self) -> f64 {
        self.grants_offered - (self.grants_applied + self.grants_lost + self.grants_delayed)
    }
}

/// The full mutable state of one simulation: every substrate the phases of
/// the step pipeline read and write.
///
/// Fields are public so custom [`crate::pipeline::StepPhase`]
/// implementations outside this crate can participate in the step loop;
/// the engine's own invariants (index-alignment of the per-peer vectors,
/// RNG discipline) are documented per field.
pub struct SimWorld {
    /// The configuration the world was built from.
    pub config: SimulationConfig,
    /// Step counter; ticked once at the top of every step.
    pub clock: SimClock,
    /// Peer registry (shared upload fractions, capacities).
    pub peers: PeerRegistry,
    /// Article registry (voter sets, pending edits, outcome tallies, quality).
    pub articles: ArticleRegistry,
    /// Which peer holds/offers which article replica.
    pub store: ArticleStore,
    /// Dual-reputation ledger (`R_S`, `R_E`) of every peer, sharded by
    /// peer-id range so the sharing phase can apply its contribution
    /// deltas from parallel workers.
    pub ledger: ShardedLedger,
    /// Service-differentiation rules of the configured incentive scheme.
    pub service: ServiceDifferentiation,
    /// Bandwidth allocator implementing the scheme's allocation policy.
    pub allocator: BandwidthAllocator,
    /// In-flight and completed transfers.
    pub transfers: TransferManager,
    /// Struct-of-arrays agent state (behaviour kinds, bucket-major Q-planes,
    /// last choices), index-aligned with `behaviors`.
    pub agents: AgentTable,
    /// Behaviour type per peer.
    pub behaviors: Vec<BehaviorType>,
    /// Incremental active sets: the packed online bitset every hot phase
    /// iterates, plus the static rational-learner set. Maintained by
    /// [`SimWorld::depart_peer`], [`SimWorld::rejoin_peer`] and
    /// [`SimWorld::whitewash_peer`] — custom phases must toggle peer
    /// liveness through those methods, never by writing a peer's `online`
    /// flag directly, or the sets (and every phase iterating them) go
    /// stale.
    pub active: ActiveSets,
    /// The learner's state space (reputation buckets).
    pub states: StateSpace,
    /// The step RNG. Phases must draw from it in pipeline order only —
    /// reordering draws changes every downstream result.
    pub rng: StdRng,
    /// Total bandwidth each peer has uploaded to each other peer (the
    /// direct-relation history tit-for-tat and the trust graph need).
    pub uploads: UploadMatrix,
    /// In-flight download per peer (transfer id into `transfers`).
    pub active_transfer: Vec<Option<u64>>,
    /// Accepted edits since the peer's last punishment (for restoring
    /// voting rights).
    pub accepted_since_punishment: Vec<u32>,
    /// Step at which each currently offline peer departed (`None` while
    /// online). Feeds the optional
    /// [`reputation_uptime_discount`](crate::config::SimulationConfig::reputation_uptime_discount):
    /// at re-entry the absence length prices the decay. Tracked
    /// unconditionally (it is one store per departure), applied only when
    /// the discount factor is below 1.
    pub offline_since: Vec<Option<u64>>,
    /// Evaluation-phase measurement accumulators (struct-of-arrays).
    pub accumulators: AccumulatorTable,
    /// Whether the measured evaluation phase is active.
    pub measuring: bool,
    /// Steps run since measurement started.
    pub evaluation_steps_run: u64,
    /// Completed-download count at measurement start (baseline).
    pub downloads_completed_in_evaluation: usize,
    /// Edit-outcome counts at measurement start (baseline).
    pub edit_outcome_baseline: EditOutcomeCounts,
    /// Dedicated RNG for the optional reputation-propagation phase, seeded
    /// independently of `rng` so enabling propagation does not perturb the
    /// core dynamics' random stream.
    pub propagation_rng: StdRng,
    /// Dedicated RNG for the churn phase's event sampling, independent of
    /// `rng` for the same reason: a stable churn model draws nothing, and
    /// the phase's presence alone can never perturb the core stream.
    pub churn_rng: StdRng,
    /// Running churn counters (re-entries, departures, whitewashes and the
    /// reputation observed at those boundaries).
    pub churn_stats: ChurnStats,
    /// Latest globally propagated reputation vector, if the propagation
    /// phase has run.
    pub global_reputation: Option<GlobalReputation>,
    /// How many times the propagation phase has executed its backend.
    pub propagation_runs: u64,
    /// The latest propagated reputation mapped onto the `[R_min, 1]`
    /// service scale, refreshed by the propagation phase when
    /// [`ReputationSource::Propagated`] is configured (`None` otherwise, or
    /// before the first propagation round of a phase). This is the vector
    /// [`SimWorld::service_sharing_reputation`] serves.
    pub propagated_service_reputation: Option<Vec<f64>>,
    /// The strategic adversary units configured for this run (empty and
    /// inert unless the configuration lists [`crate::adversary::AdversarySpec`]s).
    pub adversaries: AdversaryRoster,
    /// Dedicated RNG for adversary strategies, independent of `rng` for the
    /// same reason as `churn_rng`: a run without adversaries draws nothing
    /// here and stays bit-identical.
    pub adversary_rng: StdRng,
    /// Dedicated RNG for the network-fault layer (connection-state
    /// lifecycle and link-loss draws), independent of `rng` for the same
    /// reason as `churn_rng`: the ideal link model draws nothing here, so
    /// the fault layer's presence alone can never perturb the core stream.
    pub net_rng: StdRng,
    /// Running fault-layer grant accounting (all zeros under the ideal
    /// model except `grants_offered == grants_applied`).
    pub net_stats: NetStats,
    /// Worker-thread count for the intra-step parallel stages (selection,
    /// sharing and learning), resolved once at construction (config value, or the automatic
    /// `SCENARIO_THREADS`/hardware resolution when the config says 0) so
    /// the hot phases never touch the process environment.
    intra_step_threads: usize,
}

/// Where service decisions read a peer's sharing reputation: the ledger,
/// or the latest propagated vector once a propagation round has filled it
/// (see [`SimWorld::service_sharing_reputation`]). Built from borrowed
/// world fields, so a phase that has split the world borrow, or hands the
/// reader to intra-step workers, resolves the source the same way.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServiceReputation<'a> {
    ledger: &'a ShardedLedger,
    propagated: Option<&'a [f64]>,
    min_reputation: f64,
    states: StateSpace,
}

impl<'a> ServiceReputation<'a> {
    /// A reader over the world's ledger, its propagated service vector and
    /// the state partition of `config` and `states`.
    #[inline]
    pub(crate) fn new(
        ledger: &'a ShardedLedger,
        propagated: &'a Option<Vec<f64>>,
        config: &SimulationConfig,
        states: StateSpace,
    ) -> Self {
        Self {
            ledger,
            propagated: propagated.as_deref(),
            min_reputation: config.min_reputation,
            states,
        }
    }

    /// The service-visible sharing reputation of `peer`.
    #[inline]
    pub(crate) fn sharing(&self, peer: usize) -> f64 {
        match self.propagated {
            Some(values) => values[peer],
            None => self.ledger.sharing_reputation(peer),
        }
    }

    /// The agent state of `peer`: its service-visible reputation bucket.
    #[inline]
    pub(crate) fn state(&self, peer: usize) -> AgentState {
        AgentState::from_reputation(self.sharing(peer), self.min_reputation, self.states)
    }
}

impl SimWorld {
    /// Builds the initial network state from a configuration, resolving
    /// adversary specs against `adversary_registry` (which may contain
    /// custom strategies).
    ///
    /// RNG draw order (behaviour shuffle, then article seeding) is part of
    /// the determinism contract pinned by the golden-report test.
    pub fn with_adversary_registry(
        config: SimulationConfig,
        adversary_registry: &AdversaryRegistry,
    ) -> Result<Self, crate::spec::SpecError> {
        config.check()?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let population = config.population;

        let peers = PeerRegistry::with_population(population);
        let states = StateSpace::new(config.reputation_states);

        // Behaviour assignment: deterministic largest-remainder rounding of
        // the configured mix, then a seeded shuffle so types are not
        // clustered by index.
        let mut behaviors = config.mix.assign(population);
        behaviors.shuffle(&mut rng);

        let agents = AgentTable::new(&behaviors, states, config.learning);
        let active = ActiveSets::new(&behaviors);

        let reputation_fn = Arc::new(LogisticReputation::new(
            (1.0 - config.min_reputation) / config.min_reputation,
            config.reputation_beta,
        ));
        let ledger = ShardedLedger::new(
            population,
            config.contribution,
            reputation_fn.clone(),
            reputation_fn,
            config.ledger_shards,
        );
        let service = ServiceDifferentiation::new(config.service, config.min_reputation);
        let allocator = BandwidthAllocator::new(config.incentive.allocation_policy());

        // Seed the article base: initial articles created by random peers,
        // replicated onto the 3 peers whose keys are XOR-closest to the
        // article's key (the DHT placement rule).
        let mut articles = ArticleRegistry::new();
        let mut store = ArticleStore::new(population, config.initial_articles);
        let members: Vec<(PeerId, DhtKey)> = (0..population as u32)
            .map(|p| (PeerId(p), DhtKey::for_peer(PeerId(p))))
            .collect();
        let mut nearest = [(0, PeerId(0)); 3];
        for _ in 0..config.initial_articles {
            let creator = PeerId(rng.gen_range(0..population as u32));
            let id = articles.create_article(creator, 0);
            store.add_replica(creator, id);
            let key = DhtKey::for_article(id.0);
            for &(_, holder) in dht::closest_into(key, &members, &mut nearest) {
                store.add_replica(holder, id);
            }
        }

        let propagation_rng = StdRng::seed_from_u64(config.seed ^ 0x9E37_79B9_7F4A_7C15);
        let churn_rng = StdRng::seed_from_u64(config.seed ^ 0x5851_F42D_4C95_7F2D);
        let adversary_rng = StdRng::seed_from_u64(config.seed ^ 0x3C6E_F372_FE94_F82A);
        let net_rng = StdRng::seed_from_u64(config.seed ^ 0xD1B5_4A32_D192_ED03);
        let adversaries = adversary_registry.build_roster(&config)?;

        let intra_step_threads = match config.intra_step_threads {
            0 => crate::threads::auto_intra_step_threads(population),
            n => n,
        };

        Ok(Self {
            clock: SimClock::new(),
            peers,
            articles,
            store,
            ledger,
            service,
            allocator,
            transfers: TransferManager::new(),
            agents,
            behaviors,
            active,
            states,
            uploads: UploadMatrix::new(population),
            active_transfer: vec![None; population],
            accepted_since_punishment: vec![0; population],
            offline_since: vec![None; population],
            accumulators: AccumulatorTable::new(population),
            measuring: false,
            evaluation_steps_run: 0,
            downloads_completed_in_evaluation: 0,
            edit_outcome_baseline: Default::default(),
            propagation_rng,
            churn_rng,
            churn_stats: ChurnStats::default(),
            global_reputation: None,
            propagation_runs: 0,
            propagated_service_reputation: None,
            adversaries,
            adversary_rng,
            net_rng,
            net_stats: NetStats::default(),
            intra_step_threads,
            rng,
            config,
        })
    }

    /// Number of peers.
    pub fn population(&self) -> usize {
        self.config.population
    }

    /// The worker-thread count the intra-step parallel stages (selection,
    /// sharing and learning) use: the configured value, or the automatic
    /// resolution of [`crate::threads::auto_intra_step_threads`] (resolved
    /// once at construction). Never affects results, only wall-clock time.
    pub fn intra_step_threads(&self) -> usize {
        self.intra_step_threads
    }

    /// The reader of the service-visible sharing reputation over this
    /// world's fields.
    #[inline]
    pub(crate) fn service_reputation(&self) -> ServiceReputation<'_> {
        ServiceReputation::new(
            &self.ledger,
            &self.propagated_service_reputation,
            &self.config,
            self.states,
        )
    }

    /// The sharing reputation that feeds service decisions (selection
    /// state, bandwidth allocation, edit gating, punishment recovery) for
    /// `peer`: the ledger's globally visible value under
    /// [`ReputationSource::Ledger`], the propagation backend's latest
    /// mapped output under [`ReputationSource::Propagated`] (falling back
    /// to the ledger until the first propagation round of a phase).
    #[inline]
    pub fn service_sharing_reputation(&self, peer: usize) -> f64 {
        self.service_reputation().sharing(peer)
    }

    /// Refreshes the propagated service-reputation cache from the latest
    /// backend output: values are mapped onto the `[R_min, 1]` reputation
    /// scale by dividing through the vector maximum (backends produce
    /// probability-like or flow-bound vectors whose absolute scale is
    /// meaningless to the threshold-based service rules). Called by the
    /// propagation phase after each round; a no-op under
    /// [`ReputationSource::Ledger`].
    pub fn refresh_service_reputation(&mut self) {
        if self.config.reputation_source != ReputationSource::Propagated {
            return;
        }
        let Some(global) = &self.global_reputation else {
            return;
        };
        let r_min = self.config.min_reputation;
        let max = global.values.iter().cloned().fold(0.0f64, f64::max);
        let target = self
            .propagated_service_reputation
            .get_or_insert_with(Vec::new);
        target.clear();
        if max > 0.0 {
            target.extend(
                global
                    .values
                    .iter()
                    .map(|&v| r_min + (1.0 - r_min) * (v / max)),
            );
        } else {
            target.resize(global.values.len(), r_min);
        }
    }

    /// The agent's current state: its service-visible sharing-reputation
    /// bucket (the ledger value, or the propagated estimate under
    /// [`ReputationSource::Propagated`]).
    pub fn agent_state(&self, peer: usize) -> AgentState {
        self.service_reputation().state(peer)
    }

    /// Picks the article a downloader will fetch from a source: preferably
    /// one offered by the source that the downloader does not yet hold,
    /// otherwise any article offered by the source, otherwise any article.
    /// Each level makes one `gen_range` draw over its candidate count and
    /// takes that candidate in identifier order.
    pub fn pick_article_to_download(&mut self, downloader: PeerId, source: PeerId) -> ArticleId {
        let rng = &mut self.rng;
        if let Some(article) = self
            .store
            .pick_offered(source, downloader, |n| rng.gen_range(0..n))
        {
            return article;
        }
        // The source offers bandwidth but no specific article replica; fall
        // back to a random article of the registry (size-1 download of a
        // cached copy).
        let count = self.articles.article_count() as u32;
        if count == 0 {
            ArticleId(0)
        } else {
            ArticleId(self.rng.gen_range(0..count))
        }
    }

    /// Takes a peer offline (a churn departure): its in-flight download is
    /// cancelled and its slot released, its article offers are withdrawn,
    /// and it is marked offline. Transfers it was *serving* are abandoned
    /// by their downloaders on the next step's collect stage, exactly like
    /// a source that stopped sharing. The ledger record is left untouched —
    /// reputation persists across the absence, which is what the re-entry
    /// experiments measure.
    pub fn depart_peer(&mut self, peer: PeerId, now: u64) {
        let p = peer.index();
        if let Some(tid) = self.active_transfer[p].take() {
            if self.transfers.transfer(tid).status
                == crate::netsim::transfer::TransferStatus::InProgress
            {
                self.transfers.cancel(tid, now);
            }
            self.transfers.release(tid);
        }
        self.store.set_offered_count(peer, 0);
        // Withdraw the registry offers immediately: the sharing phase skips
        // offline peers entirely (it used to zero these through the idle
        // action one phase later; every reader of the share fields gates on
        // `online`, so zeroing at the departure boundary is equivalent and
        // lets the phase iterate the online bitset only).
        let record = self.peers.peer_mut(peer);
        record.set_shared_upload_fraction(0.0);
        record.set_shared_articles(0);
        record.online = false;
        self.active.set_offline(p);
        self.offline_since[p] = Some(now);
        self.churn_stats.leaves += 1;
    }

    /// Brings a departed identity back online (a churn re-entry). The
    /// fixed peer arena models a *join* as the return of a departed
    /// identity, so the ledger record — and with it the peer's reputation —
    /// survives the absence; the observed sharing reputation at this moment
    /// is accumulated in [`ChurnStats::reentry_reputation_sum`].
    pub fn rejoin_peer(&mut self, peer: PeerId, now: u64) {
        let p = peer.index();
        // Uptime discount: an absence of `d` steps scales the sharing
        // contribution by `factor^d` before the identity re-enters service
        // differentiation. The guard keeps the default factor of 1.0 a
        // provable no-op (no ledger access, bit-identical runs).
        let factor = self.config.reputation_uptime_discount;
        if let Some(since) = self.offline_since[p].take() {
            if factor < 1.0 {
                let absence = now.saturating_sub(since);
                if absence > 0 {
                    self.ledger.scale_sharing_contribution(
                        p,
                        factor.powi(absence.min(i32::MAX as u64) as i32),
                    );
                }
            }
        }
        self.churn_stats.joins += 1;
        self.churn_stats.reentry_reputation_sum += self.ledger.sharing_reputation(p);
        let record = self.peers.peer_mut(peer);
        record.online = true;
        record.joined_at = now;
        self.active.set_online(p);
    }

    /// Whitewashes a peer: it leaves and instantly rejoins under a fresh
    /// identity occupying the same arena slot. Observationally the old
    /// identity never returns and a newcomer appears: the ledger record is
    /// reset to the newcomer state (reputation back to `R_min`, punishment
    /// counters cleared, rights restored) and the upload-relation history
    /// is forgotten in both directions. The agent keeps its Q-matrix — the
    /// human behind the identity is the same learner.
    ///
    /// Returns the sharing reputation above `R_min` the identity shed (what
    /// the whitewash cost), so callers tracking per-strategy attack costs
    /// share this accounting instead of recomputing it.
    pub fn whitewash_peer(&mut self, peer: PeerId, now: u64) -> f64 {
        let p = peer.index();
        let shed =
            (self.ledger.sharing_reputation(p) - self.ledger.min_sharing_reputation()).max(0.0);
        self.churn_stats.whitewashes += 1;
        self.churn_stats.whitewash_reputation_shed_sum += shed;
        // The old identity's in-flight download dies with it (exactly as
        // on departure) — a fresh identity must not inherit partial
        // transfer progress, or whitewashing would be strictly cheaper
        // than leave + rejoin.
        if let Some(tid) = self.active_transfer[p].take() {
            if self.transfers.transfer(tid).status
                == crate::netsim::transfer::TransferStatus::InProgress
            {
                self.transfers.cancel(tid, now);
            }
            self.transfers.release(tid);
        }
        self.ledger.reset_peer_identity(p);
        self.uploads.clear_peer(p);
        self.accepted_since_punishment[p] = 0;
        // A fresh identity has no absence to discount.
        self.offline_since[p] = None;
        let record = self.peers.peer_mut(peer);
        record.online = true;
        record.joined_at = now;
        self.active.set_online(p);
        shed
    }

    /// The phase switch: reputation values are reset, Q-matrices are kept.
    /// The propagated service-reputation cache is dropped with them —
    /// evaluation starts from the newcomer state until the first
    /// propagation round of the measured phase.
    pub fn reset_for_evaluation(&mut self) {
        self.propagated_service_reputation = None;
        self.ledger.reset_all_contributions();
        self.accumulators.reset();
        self.edit_outcome_baseline = self.articles.edit_outcome_counts();
        let completed_before = self.transfers.completed_count();
        self.downloads_completed_in_evaluation = completed_before;
        self.measuring = true;
        self.evaluation_steps_run = 0;
    }

    /// Builds the report from the evaluation-phase accumulators.
    pub fn build_report(&self) -> SimulationReport {
        let population = self.config.population;
        let mut overall_bandwidth = 0.0;
        let mut overall_articles = 0.0;
        let mut total_steps = 0u64;

        let mut by_behavior: BTreeMap<String, BehaviorBreakdown> = BTreeMap::new();
        for behavior in BehaviorType::ALL {
            let peers_of_type: Vec<usize> = (0..population)
                .filter(|&p| self.behaviors[p] == behavior)
                .collect();
            if peers_of_type.is_empty() {
                continue;
            }
            let mut breakdown = BehaviorBreakdown {
                peers: peers_of_type.len(),
                ..Default::default()
            };
            let mut steps = 0u64;
            for &p in &peers_of_type {
                let acc = self.accumulators.peer(p);
                breakdown.shared_bandwidth += acc.shared_bandwidth_sum;
                breakdown.shared_articles += acc.shared_articles_sum;
                breakdown.downloaded += acc.downloaded_sum;
                breakdown.mean_utility += acc.utility_sum;
                breakdown.constructive_edits += acc.constructive_edits;
                breakdown.destructive_edits += acc.destructive_edits;
                breakdown.votes += acc.votes;
                breakdown.final_sharing_reputation += self.ledger.sharing_reputation(p);
                breakdown.final_editing_reputation += self.ledger.editing_reputation(p);
                steps += acc.steps;
                overall_bandwidth += acc.shared_bandwidth_sum;
                overall_articles += acc.shared_articles_sum;
                total_steps += acc.steps;
            }
            if steps > 0 {
                breakdown.shared_bandwidth /= steps as f64;
                breakdown.shared_articles /= steps as f64;
                breakdown.downloaded /= steps as f64;
                breakdown.mean_utility /= steps as f64;
            }
            breakdown.final_sharing_reputation /= peers_of_type.len() as f64;
            breakdown.final_editing_reputation /= peers_of_type.len() as f64;
            by_behavior.insert(behavior.label().to_string(), breakdown);
        }

        let (shared_bandwidth, shared_articles) = if total_steps > 0 {
            (
                overall_bandwidth / total_steps as f64,
                overall_articles / total_steps as f64,
            )
        } else {
            (0.0, 0.0)
        };

        // Edit outcomes accumulated during the evaluation phase only.
        let now_counts = self.articles.edit_outcome_counts();
        let base = self.edit_outcome_baseline;
        let edit_outcomes = EditOutcomeCounts {
            accepted_constructive: now_counts.accepted_constructive - base.accepted_constructive,
            accepted_destructive: now_counts.accepted_destructive - base.accepted_destructive,
            declined_constructive: now_counts.declined_constructive - base.declined_constructive,
            declined_destructive: now_counts.declined_destructive - base.declined_destructive,
            pending: now_counts.pending,
        };

        SimulationReport {
            shared_bandwidth,
            shared_articles,
            by_behavior,
            edit_outcomes,
            mean_article_quality: self.articles.mean_quality(),
            completed_downloads: self.transfers.completed_count()
                - self.downloads_completed_in_evaluation,
            evaluation_steps: self.evaluation_steps_run,
            seed: self.config.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Each peer's uploaders, sorted, so indexes built in different orders
    /// compare equal.
    fn sorted_incoming(matrix: &UploadMatrix) -> Vec<Vec<u32>> {
        let mut incoming = matrix.incoming.clone();
        for uploaders in &mut incoming {
            uploaders.sort_unstable();
        }
        incoming
    }

    #[test]
    fn reverse_index_holds_exactly_the_live_relations_after_whitewashes() {
        let mut rng = StdRng::seed_from_u64(0x0B1D);
        for _ in 0..300 {
            let peers = rng.gen_range(1..16);
            let mut matrix = UploadMatrix::new(peers);
            for _ in 0..rng.gen_range(0..300) {
                if rng.gen_bool(0.1) {
                    matrix.clear_peer(rng.gen_range(0..peers));
                } else {
                    let (from, to) = (rng.gen_range(0..peers), rng.gen_range(0..peers));
                    matrix.add(from, to, rng.gen_range(0.0..1.0));
                }
            }
            let columns = matrix.columns();
            assert_eq!(columns.counts.len(), peers);
            let rebuilt = UploadMatrix::from_columns(&columns);
            assert_eq!(sorted_incoming(&matrix), sorted_incoming(&rebuilt));
            assert_eq!(rebuilt.columns(), columns);
        }
    }
}
