//! The adversary subsystem: strategic attack agents driving the simulation
//! from inside.
//!
//! The incentive scheme of the paper exists to defeat adversaries —
//! free-riders, whitewashers, vote manipulators — yet a purely stochastic
//! churn model cannot *time* its attacks. This module adds strategic
//! adversaries: an [`AdversaryStrategy`] observes a read-only
//! [`WorldView`] every step and emits typed [`AdversaryAction`]s (forced
//! free-riding, timed whitewashes, on/off oscillation, departures with
//! scheduled re-entries), which the [`AdversaryPhase`] applies to the world
//! before action selection runs.
//!
//! The moving parts:
//!
//! * [`AdversarySpec`] — the declarative description of one adversary unit
//!   (strategy name, number of controlled peers, one strategy parameter),
//!   carried by [`SimulationConfig::adversaries`](crate::config::SimulationConfig::adversaries) and the
//!   [`ScenarioSpec`](crate::spec::ScenarioSpec) text format,
//! * [`AdversaryRegistry`] — named
//!   strategy factories (five built-ins; custom strategies register like
//!   custom phases),
//! * [`AdversaryRoster`] — the per-run state: instantiated strategy units,
//!   their controlled peers, forced actions, vote directives, the timed
//!   `ReentrySchedule` and per-unit [`AttackStats`],
//! * [`AdversaryPhase`] — the registry-resolved step phase (name
//!   `adversary`) that runs every unit and applies its actions,
//! * [`AttackMetricsObserver`] — a [`StepObserver`] aggregating per-unit
//!   damage, reputation retention and time-to-detection.
//!
//! **Determinism contract:** the phase draws exclusively from
//! `world.adversary_rng`, and with no adversaries configured it is not even
//! part of the default phase order — a run without adversaries is
//! bit-identical to a build without this module. With adversaries enabled,
//! everything the phase does is sequential and seeded, so parallel scenario
//! execution still reproduces sequential reports bit for bit.

mod learning;
mod strategies;

pub use learning::{
    LearningAdversary, ATTACK_ACTIONS, OBSERVATION_STATES, PUNISHMENT_LEVELS, REPUTATION_BUCKETS,
    RESET_AGE_BUCKETS, VOTE_STATES,
};
pub use strategies::{
    AdaptiveWhitewash, AdversaryRegistry, CollusionRing, NaiveWhitewash, OscillatingFreeRider,
    StrategyFactory, SybilSlander,
};

use crate::action::CollabAction;
use crate::netsim::churn::ReentrySchedule;
use crate::netsim::peer::PeerId;
use crate::observer::{StepObserver, WorldView};
use crate::pipeline::{StepContext, StepPhase};
use crate::world::SimWorld;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Declarative description of one adversary unit: which strategy controls
/// how many peers, with one strategy-specific parameter.
///
/// Units are listed in
/// [`SimulationConfig::adversaries`](crate::config::SimulationConfig::adversaries);
/// peers are
/// assigned deterministically from the **top of the id range**, in list
/// order (the first unit controls the highest ids), so the assignment is a
/// pure function of the spec and the population.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarySpec {
    strategy: String,
    count: usize,
    parameter: f64,
}

impl AdversarySpec {
    /// A unit of `count` peers driven by the named strategy, with the
    /// strategy's default parameter (`0.0` — every built-in treats zero as
    /// "use my default").
    pub fn new(strategy: impl Into<String>, count: usize) -> Self {
        Self {
            strategy: strategy.into(),
            count,
            parameter: 0.0,
        }
    }

    /// Returns the spec with an explicit strategy parameter (meaning is
    /// strategy-specific: whitewash probability, oscillation period, rejoin
    /// delay …).
    pub fn with_parameter(mut self, parameter: f64) -> Self {
        self.parameter = parameter;
        self
    }

    /// The strategy name resolved against an
    /// [`AdversaryRegistry`].
    pub fn strategy(&self) -> &str {
        &self.strategy
    }

    /// Number of peers the unit controls.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The strategy parameter (`0.0` = strategy default).
    pub fn parameter(&self) -> f64 {
        self.parameter
    }

    /// Validates the spec's structure (the name is resolved later, against
    /// a registry). Names are restricted to `[A-Za-z0-9_-]` so the
    /// `ScenarioSpec` text format round-trips them exactly.
    pub fn check(&self) -> Result<(), String> {
        if self.strategy.is_empty() {
            return Err("adversary strategy name must not be empty".to_string());
        }
        if !self
            .strategy
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(format!(
                "adversary strategy name `{}` may only contain [A-Za-z0-9_-]",
                self.strategy
            ));
        }
        if self.count == 0 {
            return Err("adversary unit must control at least one peer".to_string());
        }
        if !self.parameter.is_finite() || self.parameter < 0.0 {
            return Err(format!(
                "adversary parameter must be finite and >= 0, got {}",
                self.parameter
            ));
        }
        Ok(())
    }
}

/// One typed action an [`AdversaryStrategy`] can take on a step.
///
/// Actions referencing peers in impossible states (whitewashing an offline
/// peer, rejoining an online one) or peers the emitting unit does not
/// control are silently skipped by the phase — a strategy observing a
/// stale view must not be able to corrupt the world, and no strategy can
/// puppet honest peers or another unit's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversaryAction {
    /// Override the peer's action for this step: the selection phase uses
    /// this instead of the agent's learned/fixed choice (and draws no
    /// randomness for the peer). This is how strategies free-ride, share
    /// tactically or submit destructive edits on cue.
    Act {
        /// The controlled peer.
        peer: PeerId,
        /// The action to force.
        action: CollabAction,
    },
    /// Reset the peer's identity in place (reputation to `R_min`,
    /// punishment counters cleared, rights restored, upload history
    /// forgotten) — the strategic version of the churn model's whitewash.
    Whitewash {
        /// The controlled peer (must be online).
        peer: PeerId,
    },
    /// Take the peer offline (offers withdrawn, in-flight download
    /// cancelled; the ledger record freezes, exactly like a churn
    /// departure).
    Depart {
        /// The controlled peer (must be online).
        peer: PeerId,
    },
    /// Bring a departed peer back online immediately.
    Rejoin {
        /// The controlled peer (must be offline).
        peer: PeerId,
    },
    /// Schedule a departed peer's re-entry at a future step through the
    /// `ReentrySchedule` — the timed-whitewash/lie-low primitive.
    RejoinAt {
        /// The controlled peer.
        peer: PeerId,
        /// The step at which the re-entry fires.
        step: u64,
    },
}

/// How a unit's peers vote on edits, applied as an override inside the
/// edit-vote phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VotePolicy {
    /// No override: the peer's (possibly forced) edit behaviour decides its
    /// stance, exactly like an honest peer.
    #[default]
    Honest,
    /// Support every edit submitted by a member of the same unit; abstain
    /// on everything else (a stealthy collusion ring — no unsuccessful
    /// votes wasted on outsiders).
    SupportRing,
    /// Support the unit's own edits and vote **against** every outsider
    /// edit (sybil slander — maximally destructive voting).
    SlanderOutsiders,
    /// Never vote on anything — maximum stealth: the unit's peers cannot
    /// accumulate unsuccessful votes, so the vote-punishment machinery
    /// never sees them.
    Silent,
}

/// The resolved stance of one overridden vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VoteDirective {
    /// Vote in favour of the edit.
    Support,
    /// Vote against the edit.
    Oppose,
    /// Cast no vote on this edit.
    Abstain,
}

/// A strategic adversary: observes the world each step and emits actions
/// for its controlled peers.
///
/// Strategies are stateful (`&mut self`) — cycle counters, cooldowns and
/// per-peer memories live inside the strategy — and draw any randomness
/// they need from the dedicated adversary RNG stream handed to
/// [`AdversaryStrategy::on_step`], never from the main step RNG.
pub trait AdversaryStrategy: Send {
    /// Stable strategy name (diagnostics; the registry key is the spec's).
    fn name(&self) -> &'static str;

    /// The voting override applied to the unit's peers (resolved once at
    /// roster construction).
    fn vote_policy(&self) -> VotePolicy {
        VotePolicy::Honest
    }

    /// Observes the world and pushes this step's actions for the unit's
    /// `peers` into `actions`. Called once per step, before action
    /// selection; the view reflects the post-churn state.
    ///
    /// **Caveat:** during this callback the roster itself is detached from
    /// the world (it is what is calling you), so `view.world().adversaries`
    /// is empty. Coordinate through the `peers` argument and the
    /// strategy's own state, not through the roster.
    fn on_step(
        &mut self,
        peers: &[PeerId],
        view: WorldView<'_>,
        rng: &mut StdRng,
        actions: &mut Vec<AdversaryAction>,
    );

    /// Exports the strategy's learned policy for checkpointing, if it has
    /// one. Scripted strategies return `None` (the default); the
    /// [`LearningAdversary`] exports its Q-table and per-peer trajectory
    /// state so training survives a snapshot/resume cycle.
    fn export_policy(&self) -> Option<PolicyState> {
        None
    }

    /// Restores a previously exported policy. The default is a no-op;
    /// implementations must tolerate (and ignore) a policy of a foreign
    /// shape rather than panic, since a snapshot may have been written by a
    /// differently configured strategy.
    fn restore_policy(&mut self, _policy: &PolicyState) {}
}

/// A serialized adversary policy: the learned Q-table plus the per-peer
/// trajectory state needed to resume training mid-run. Plain data — the
/// snapshot codec encodes it bit-exactly (f64 via `to_bits`) so a frozen
/// policy replays identically after a round trip.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PolicyState {
    /// Observation-state count of the Q-table.
    pub states: u32,
    /// Action count of the Q-table.
    pub actions: u32,
    /// Row-major Q-values (`states * actions` entries).
    pub q: Vec<f64>,
    /// Number of Q-updates applied so far.
    pub updates: u64,
    /// Per-controlled-peer trajectory state, index-aligned with the unit's
    /// peer list.
    pub per_peer: Vec<PeerPolicyState>,
}

/// One controlled peer's trajectory state inside a [`PolicyState`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PeerPolicyState {
    /// The state of the pending `(state, action)` transition, if any.
    pub last_state: Option<u64>,
    /// The action of the pending transition (0 when none is pending).
    pub last_action: u32,
    /// Steps since the peer's last identity reset (saturating).
    pub steps_since_reset: u64,
    /// Damage baseline: total downloaded bandwidth at the last observation.
    pub last_downloaded: f64,
    /// Reputation shed by a whitewash, charged against the next reward.
    pub pending_shed: f64,
}

/// Running per-unit attack counters maintained by the [`AdversaryPhase`]
/// as it applies actions (the action-side metrics; the outcome-side
/// metrics — damage, retention, detection — live in
/// [`AttackMetricsObserver`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AttackStats {
    /// Whitewashes performed by the strategy.
    pub resets: u64,
    /// Sharing reputation above `R_min` discarded across those whitewashes
    /// (what the strategy paid to shed its records).
    pub reputation_shed_sum: f64,
    /// Peer-steps in which a forced action was actually consumed by the
    /// selection phase (an action forced onto a peer that departs in the
    /// same adversary step is never consumed and not counted).
    pub forced_steps: u64,
    /// Strategic departures performed.
    pub departures: u64,
    /// Re-entries performed (immediate and scheduled).
    pub rejoins: u64,
    /// Votes cast through the unit's vote-policy override.
    pub override_votes: u64,
}

impl AttackStats {
    /// Mean reputation shed per whitewash (0 with no whitewashes). Lower is
    /// better for the attacker: a well-timed whitewash discards a record
    /// that was already worthless.
    pub fn shed_per_reset(&self) -> f64 {
        if self.resets == 0 {
            0.0
        } else {
            self.reputation_shed_sum / self.resets as f64
        }
    }
}

/// One instantiated adversary unit of a roster.
pub struct AdversaryUnit {
    name: String,
    peers: Vec<PeerId>,
    policy: VotePolicy,
    strategy: Box<dyn AdversaryStrategy>,
    stats: AttackStats,
}

impl AdversaryUnit {
    /// The strategy name the unit was built from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The peers the unit controls, ascending by id.
    pub fn peers(&self) -> &[PeerId] {
        &self.peers
    }

    /// The unit's voting override policy.
    pub fn vote_policy(&self) -> VotePolicy {
        self.policy
    }

    /// The unit's running action-side counters.
    pub fn stats(&self) -> &AttackStats {
        &self.stats
    }
}

impl std::fmt::Debug for AdversaryUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdversaryUnit")
            .field("name", &self.name)
            .field("peers", &self.peers.len())
            .field("policy", &self.policy)
            .field("stats", &self.stats)
            .finish()
    }
}

/// The per-run adversary state carried by [`SimWorld`]: instantiated units,
/// the peer → unit control map, this step's forced actions, the timed
/// re-entry schedule and the action scratch.
///
/// An empty roster (no adversaries configured) is inert by construction:
/// every query short-circuits, nothing is allocated per step, and the
/// [`AdversaryPhase`] returns immediately.
#[derive(Debug, Default)]
pub struct AdversaryRoster {
    units: Vec<AdversaryUnit>,
    /// Unit index per peer (`None` = honest), index-aligned with peers.
    controller: Vec<Option<u32>>,
    /// This step's forced action per peer, cleared and refilled by the
    /// phase each step.
    forced: Vec<Option<CollabAction>>,
    /// Timed re-entries queued by `RejoinAt` actions.
    schedule: ReentrySchedule,
    reentry_scratch: Vec<PeerId>,
    action_scratch: Vec<AdversaryAction>,
}

impl AdversaryRoster {
    /// An inert roster with no units.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a roster from instantiated `(name, strategy)` pairs and their
    /// peer counts, assigning peers from the top of the id range in unit
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the total peer count does not leave at least two honest
    /// peers (callers validate through
    /// [`SimulationConfig::check`](crate::config::SimulationConfig::check)
    /// first).
    pub fn from_units(
        population: usize,
        units: Vec<(String, usize, Box<dyn AdversaryStrategy>)>,
    ) -> Self {
        let claimed = units
            .iter()
            .try_fold(0usize, |sum, (_, count, _)| sum.checked_add(*count));
        assert!(
            claimed
                .and_then(|n| population.checked_sub(n))
                .is_some_and(|honest| honest >= 2),
            "adversaries must leave at least two honest peers of {population}"
        );
        let mut controller = vec![None; population];
        let mut built = Vec::with_capacity(units.len());
        let mut next = population;
        for (index, (name, count, strategy)) in units.into_iter().enumerate() {
            let start = next - count;
            let peers: Vec<PeerId> = (start..next).map(|p| PeerId(p as u32)).collect();
            for peer in &peers {
                controller[peer.index()] = Some(index as u32);
            }
            next = start;
            let policy = strategy.vote_policy();
            built.push(AdversaryUnit {
                name,
                peers,
                policy,
                strategy,
                stats: AttackStats::default(),
            });
        }
        Self {
            units: built,
            controller,
            forced: vec![None; population],
            schedule: ReentrySchedule::new(),
            reentry_scratch: Vec::new(),
            action_scratch: Vec::new(),
        }
    }

    /// Whether the roster has no units (and is therefore inert).
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The instantiated units, in spec order.
    pub fn units(&self) -> &[AdversaryUnit] {
        &self.units
    }

    /// The per-unit running attack counters, in unit order (checkpoint
    /// export; everything else a roster holds is either rebuilt from the
    /// spec — units, controller map — or per-step scratch).
    pub fn export_unit_stats(&self) -> Vec<AttackStats> {
        self.units.iter().map(|unit| unit.stats).collect()
    }

    /// Overwrites the per-unit attack counters with a checkpoint export.
    ///
    /// # Panics
    ///
    /// Panics if the export does not match the roster's unit count.
    pub fn restore_unit_stats(&mut self, stats: &[AttackStats]) {
        assert_eq!(
            stats.len(),
            self.units.len(),
            "attack-stats export does not match the unit count"
        );
        for (unit, restored) in self.units.iter_mut().zip(stats) {
            unit.stats = *restored;
        }
    }

    /// The per-unit learned policies, in unit order (checkpoint export;
    /// `None` for scripted units).
    pub fn export_policies(&self) -> Vec<Option<PolicyState>> {
        self.units
            .iter()
            .map(|unit| unit.strategy.export_policy())
            .collect()
    }

    /// Hands each unit its checkpointed policy (`None` entries and scripted
    /// units are no-ops).
    ///
    /// # Panics
    ///
    /// Panics if the export does not match the roster's unit count.
    pub fn restore_policies(&mut self, policies: &[Option<PolicyState>]) {
        assert_eq!(
            policies.len(),
            self.units.len(),
            "policy export does not match the unit count"
        );
        for (unit, policy) in self.units.iter_mut().zip(policies) {
            if let Some(policy) = policy {
                unit.strategy.restore_policy(policy);
            }
        }
    }

    /// The queued timed re-entries (checkpoint export).
    pub fn schedule_entries(&self) -> &[(u64, PeerId)] {
        self.schedule.entries()
    }

    /// Overwrites the timed re-entry schedule with a checkpoint export.
    pub fn restore_schedule(&mut self, entries: Vec<(u64, PeerId)>) {
        self.schedule = ReentrySchedule::from_entries(entries);
    }

    /// The unit index controlling `peer`, if any.
    pub fn controller_of(&self, peer: usize) -> Option<usize> {
        if self.units.is_empty() {
            return None;
        }
        self.controller
            .get(peer)
            .copied()
            .flatten()
            .map(|u| u as usize)
    }

    /// The action forced onto `peer` for the current step, if any. The
    /// selection phase consults this and skips the agent's own choice (and
    /// its RNG draw) when a forced action is present.
    #[inline]
    pub fn forced_action(&self, peer: usize) -> Option<CollabAction> {
        if self.units.is_empty() {
            return None;
        }
        self.forced.get(peer).copied().flatten()
    }

    /// The whole forced-action table as a slice (empty for a default
    /// roster). The parallel learning phase captures this instead of
    /// calling [`AdversaryRoster::forced_action`] per peer so its scoped
    /// workers share one `Sync` borrow; `slice.get(p)` reproduces the
    /// per-peer accessor's semantics exactly.
    #[inline]
    pub fn forced_actions(&self) -> &[Option<CollabAction>] {
        if self.units.is_empty() {
            return &[];
        }
        &self.forced
    }

    /// The voting override of `voter` on an edit submitted by `editor`
    /// (`None` = no override; the voter's own stance logic applies).
    #[inline]
    pub fn vote_stance(&self, voter: usize, editor: usize) -> Option<VoteDirective> {
        let unit = self.controller_of(voter)?;
        match self.units[unit].policy {
            VotePolicy::Honest => None,
            VotePolicy::SupportRing => {
                if self.controller_of(editor) == Some(unit) {
                    Some(VoteDirective::Support)
                } else {
                    Some(VoteDirective::Abstain)
                }
            }
            VotePolicy::SlanderOutsiders => {
                if self.controller_of(editor) == Some(unit) {
                    Some(VoteDirective::Support)
                } else {
                    Some(VoteDirective::Oppose)
                }
            }
            VotePolicy::Silent => Some(VoteDirective::Abstain),
        }
    }

    /// Records that `voter` cast a vote through its unit's override (called
    /// by the edit-vote phase so [`AttackStats::override_votes`] counts the
    /// manipulation volume).
    pub fn note_override_vote(&mut self, voter: usize) {
        if let Some(unit) = self.controller_of(voter) {
            self.units[unit].stats.override_votes += 1;
        }
    }

    /// Runs one adversary step: drains due timed re-entries, clears the
    /// forced-action table, lets every unit observe the world and emit
    /// actions, and applies them in emission order.
    pub fn run_step(&mut self, world: &mut SimWorld, now: u64, rng: &mut StdRng) {
        self.reentry_scratch.clear();
        self.schedule.drain_due(now, &mut self.reentry_scratch);
        for i in 0..self.reentry_scratch.len() {
            let peer = self.reentry_scratch[i];
            if !world.peers.peer(peer).online {
                world.rejoin_peer(peer, now);
                if let Some(unit) = self.controller_of(peer.index()) {
                    self.units[unit].stats.rejoins += 1;
                }
            }
        }
        for slot in &mut self.forced {
            *slot = None;
        }
        let mut actions = std::mem::take(&mut self.action_scratch);
        for index in 0..self.units.len() {
            actions.clear();
            {
                let unit = &mut self.units[index];
                unit.strategy
                    .on_step(&unit.peers, WorldView::new(world), rng, &mut actions);
            }
            for &action in &actions {
                self.apply(world, index, now, action);
            }
        }
        actions.clear();
        self.action_scratch = actions;
    }

    /// Applies one action for the unit at `index`, skipping actions whose
    /// peer is in an impossible state — or not controlled by the emitting
    /// unit: a strategy can only act on its own peers, so a buggy (or
    /// malicious) custom strategy cannot puppet honest peers or another
    /// unit's.
    fn apply(&mut self, world: &mut SimWorld, index: usize, now: u64, action: AdversaryAction) {
        let target = match action {
            AdversaryAction::Act { peer, .. }
            | AdversaryAction::Whitewash { peer }
            | AdversaryAction::Depart { peer }
            | AdversaryAction::Rejoin { peer }
            | AdversaryAction::RejoinAt { peer, .. } => peer,
        };
        if self.controller_of(target.index()) != Some(index) {
            return;
        }
        let stats = &mut self.units[index].stats;
        match action {
            AdversaryAction::Act { peer, action } => {
                // The consumption is what counts: `forced_steps` is
                // incremented by the selection phase when the action is
                // actually used (a peer departed later this same phase
                // never consumes it).
                self.forced[peer.index()] = Some(action);
            }
            AdversaryAction::Whitewash { peer } => {
                if world.peers.peer(peer).online {
                    let shed = world.whitewash_peer(peer, now);
                    stats.resets += 1;
                    stats.reputation_shed_sum += shed;
                }
            }
            AdversaryAction::Depart { peer } => {
                if world.peers.peer(peer).online && world.peers.online().count() > 2 {
                    world.depart_peer(peer, now);
                    stats.departures += 1;
                }
            }
            AdversaryAction::Rejoin { peer } => {
                if !world.peers.peer(peer).online {
                    world.rejoin_peer(peer, now);
                    stats.rejoins += 1;
                }
            }
            AdversaryAction::RejoinAt { peer, step } => {
                // Only a peer that is actually offline needs a scheduled
                // re-entry; if the paired `Depart` was skipped (e.g. the
                // two-online-peers floor), queuing one would rejoin the
                // peer at a stale time after a later unrelated departure.
                if !world.peers.peer(peer).online {
                    self.schedule.schedule(step, peer);
                }
            }
        }
    }

    /// Records that `peer`'s forced action was consumed by the selection
    /// phase this step (the [`AttackStats::forced_steps`] counter).
    pub fn note_forced(&mut self, peer: usize) {
        if let Some(unit) = self.controller_of(peer) {
            self.units[unit].stats.forced_steps += 1;
        }
    }
}

/// The adversary step phase (registry name `adversary`): runs every
/// configured strategy unit against a read-only view of the post-churn
/// world and applies the emitted actions, all on the dedicated
/// `world.adversary_rng` stream.
///
/// With an empty roster the phase returns before touching anything, so a
/// pipeline that includes it on a spec without adversaries is bit-identical
/// to one without the phase (pinned by `tests/adversary_prop.rs`).
pub struct AdversaryPhase;

impl StepPhase for AdversaryPhase {
    fn name(&self) -> &'static str {
        "adversary"
    }

    fn execute(&self, world: &mut SimWorld, ctx: &mut StepContext) {
        if world.adversaries.is_empty() {
            return;
        }
        let now = ctx.now;
        // The roster needs `&mut world` while strategies hold a read-only
        // view; temporarily lifting roster and RNG out of the world splits
        // the borrow without clones.
        let mut roster = std::mem::take(&mut world.adversaries);
        let mut rng = std::mem::replace(&mut world.adversary_rng, StdRng::seed_from_u64(0));
        roster.run_step(world, now, &mut rng);
        world.adversary_rng = rng;
        world.adversaries = roster;
    }
}

/// Per-unit outcome metrics aggregated by [`AttackMetricsObserver`].
#[derive(Debug, Clone, PartialEq)]
pub struct UnitAttackMetrics {
    /// The unit's strategy name.
    pub name: String,
    /// The peers the unit controls.
    pub peers: Vec<usize>,
    /// Bandwidth downloaded by the unit's peers during the measured
    /// evaluation phase (the service the attackers extracted — "damage
    /// dealt" on the sharing side).
    pub damage_bandwidth: f64,
    /// Destructive edits by unit peers that were *accepted* during
    /// measurement (damage dealt on the content side).
    pub destructive_accepted: u64,
    /// Sum over measured steps of the unit's mean sharing reputation
    /// (divide by `samples` for the retention figure).
    pub reputation_sum: f64,
    /// Measured steps contributing to `reputation_sum`.
    pub samples: u64,
    /// First step at which any unit peer lost voting or editing rights
    /// (`None` = the attack was never detected by the punishment
    /// machinery).
    pub first_detection: Option<u64>,
    /// Voting-rights revocations observed on unit peers (the cheap
    /// punishment — a vandal can keep editing without a vote).
    pub vote_revocations: u64,
    /// Editing-rights revocations observed on unit peers (the expensive
    /// punishment: both reputations reset and editing locked until the
    /// sharing reputation recovers).
    pub edit_revocations: u64,
}

impl UnitAttackMetrics {
    /// Mean sharing reputation the unit's peers retained over the measured
    /// steps (0 with no samples).
    pub fn mean_reputation_retained(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.reputation_sum / self.samples as f64
        }
    }

    /// Total rights revocations of either kind.
    pub fn rights_revocations(&self) -> u64 {
        self.vote_revocations + self.edit_revocations
    }
}

/// A [`StepObserver`] producing per-strategy outcome metrics: damage dealt,
/// reputation retained and time-to-detection. Attach before
/// [`Simulation::run`](crate::engine::Simulation::run); read the metrics
/// back through
/// [`Simulation::observer`](crate::engine::Simulation::observer).
///
/// Observation is read-only — attaching the observer can never change
/// simulation results.
#[derive(Debug, Default)]
pub struct AttackMetricsObserver {
    metrics: Vec<UnitAttackMetrics>,
    /// `(can_vote, can_edit)` per tracked peer at the previous step,
    /// flattened in unit order (detects right-revocation transitions).
    prev_rights: Vec<(bool, bool)>,
}

impl AttackMetricsObserver {
    /// A fresh observer (units are discovered at run start).
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-unit metrics, in spec order.
    pub fn metrics(&self) -> &[UnitAttackMetrics] {
        &self.metrics
    }

    /// The metrics of the first unit with the given strategy name.
    pub fn unit(&self, name: &str) -> Option<&UnitAttackMetrics> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

impl StepObserver for AttackMetricsObserver {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_run_start(&mut self, world: WorldView<'_>) {
        self.metrics.clear();
        self.prev_rights.clear();
        for unit in world.world().adversaries.units() {
            let peers: Vec<usize> = unit.peers().iter().map(|p| p.index()).collect();
            for &p in &peers {
                self.prev_rights.push((
                    world.world().ledger.can_vote(p),
                    world.world().ledger.can_edit(p),
                ));
            }
            self.metrics.push(UnitAttackMetrics {
                name: unit.name().to_string(),
                peers,
                damage_bandwidth: 0.0,
                destructive_accepted: 0,
                reputation_sum: 0.0,
                samples: 0,
                first_detection: None,
                vote_revocations: 0,
                edit_revocations: 0,
            });
        }
    }

    fn on_step_end(&mut self, world: WorldView<'_>, ctx: &StepContext) {
        if self.metrics.is_empty() {
            return;
        }
        let w = world.world();
        let now = world.now();
        let mut flat = 0usize;
        for metrics in &mut self.metrics {
            let mut reputation = 0.0;
            for &p in &metrics.peers {
                // Retention is the *service-visible* reputation: the
                // propagated estimate under `reputation_source =
                // propagated`, the ledger otherwise — what an attacker
                // retained is what the service rules still grant it.
                reputation += w.service_sharing_reputation(p);
                if w.measuring {
                    metrics.damage_bandwidth += ctx.downloaded[p];
                    if ctx.actions.get(p).map(|a| a.edit)
                        == Some(crate::action::EditBehavior::Destructive)
                    {
                        metrics.destructive_accepted += u64::from(ctx.accepted_edits[p]);
                    }
                }
                let rights = (w.ledger.can_vote(p), w.ledger.can_edit(p));
                let prev = self.prev_rights[flat];
                if prev.0 && !rights.0 {
                    metrics.vote_revocations += 1;
                    metrics.first_detection.get_or_insert(now);
                }
                if prev.1 && !rights.1 {
                    metrics.edit_revocations += 1;
                    metrics.first_detection.get_or_insert(now);
                }
                self.prev_rights[flat] = rights;
                flat += 1;
            }
            if w.measuring && !metrics.peers.is_empty() {
                metrics.reputation_sum += reputation / metrics.peers.len() as f64;
                metrics.samples += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PhaseConfig, SimulationConfig};
    use crate::engine::Simulation;
    use crate::spec::ScenarioSpec;

    fn quick_config() -> SimulationConfig {
        SimulationConfig {
            population: 16,
            initial_articles: 8,
            phases: PhaseConfig {
                training_steps: 60,
                evaluation_steps: 40,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn adversary_spec_validation() {
        assert!(AdversarySpec::new("adaptive-whitewash", 3).check().is_ok());
        assert!(AdversarySpec::new("", 3).check().is_err());
        assert!(AdversarySpec::new("has space", 3).check().is_err());
        assert!(AdversarySpec::new("has,comma", 3).check().is_err());
        assert!(AdversarySpec::new("ok", 0).check().is_err());
        assert!(AdversarySpec::new("ok", 1)
            .with_parameter(f64::NAN)
            .check()
            .is_err());
        assert!(AdversarySpec::new("ok", 1)
            .with_parameter(-1.0)
            .check()
            .is_err());
    }

    #[test]
    fn roster_assigns_peers_from_the_top_in_unit_order() {
        let roster = AdversaryRoster::from_units(
            10,
            vec![
                ("a".to_string(), 2, Box::new(CollusionRing) as _),
                ("b".to_string(), 3, Box::new(SybilSlander) as _),
            ],
        );
        assert_eq!(roster.units().len(), 2);
        assert_eq!(roster.units()[0].peers(), &[PeerId(8), PeerId(9)]);
        assert_eq!(
            roster.units()[1].peers(),
            &[PeerId(5), PeerId(6), PeerId(7)]
        );
        assert_eq!(roster.controller_of(9), Some(0));
        assert_eq!(roster.controller_of(5), Some(1));
        assert_eq!(roster.controller_of(0), None);
        assert!(!roster.is_empty());
        assert!(AdversaryRoster::empty().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least two honest peers")]
    fn roster_rejects_claiming_almost_everyone() {
        let _ = AdversaryRoster::from_units(
            4,
            vec![("a".to_string(), 3, Box::new(CollusionRing) as _)],
        );
    }

    #[test]
    fn ring_vote_stances_support_inside_and_abstain_outside() {
        let roster = AdversaryRoster::from_units(
            10,
            vec![
                ("ring".to_string(), 2, Box::new(CollusionRing) as _),
                ("sybil".to_string(), 2, Box::new(SybilSlander) as _),
            ],
        );
        // Ring peers: 8, 9. Sybil peers: 6, 7.
        assert_eq!(roster.vote_stance(8, 9), Some(VoteDirective::Support));
        assert_eq!(roster.vote_stance(8, 0), Some(VoteDirective::Abstain));
        assert_eq!(roster.vote_stance(8, 6), Some(VoteDirective::Abstain));
        assert_eq!(roster.vote_stance(6, 7), Some(VoteDirective::Support));
        assert_eq!(roster.vote_stance(6, 0), Some(VoteDirective::Oppose));
        assert_eq!(roster.vote_stance(0, 8), None, "honest voters unaffected");
    }

    #[test]
    fn empty_roster_pipeline_is_bit_identical_to_the_standard_pipeline() {
        let config = quick_config();
        let without = Simulation::new(config.clone()).run();
        let spec = ScenarioSpec::builder()
            .configure(|c| *c = config)
            .phase_order([
                "adversary",
                "selection",
                "sharing",
                "download",
                "edit-vote",
                "utility",
                "learning",
            ])
            .build()
            .unwrap();
        let mut sim = Simulation::from_spec(&spec).unwrap();
        assert_eq!(sim.pipeline().phase_names()[0], "adversary");
        assert_eq!(sim.run(), without, "empty roster must be inert");
    }

    #[test]
    fn forced_actions_bypass_the_agents() {
        let mut config = quick_config();
        config.adversaries = vec![AdversarySpec::new("oscillating-freerider", 3)];
        let mut sim = Simulation::from_spec(&ScenarioSpec::from_config(config).unwrap()).unwrap();
        sim.add_observer(AttackMetricsObserver::new());
        sim.run();
        let unit = &sim.world().adversaries.units()[0];
        assert_eq!(unit.name(), "oscillating-freerider");
        assert_eq!(unit.peers().len(), 3);
        assert_eq!(
            unit.stats().forced_steps,
            3 * 100,
            "every online unit peer is forced every step"
        );
        let metrics: &AttackMetricsObserver = sim.observer(0).expect("attached above");
        let m = metrics.unit("oscillating-freerider").expect("tracked");
        assert_eq!(m.samples, 40, "one retention sample per measured step");
        assert!(m.mean_reputation_retained() > 0.0);
    }

    #[test]
    fn whitewash_actions_reset_identity_and_are_counted() {
        let mut config = quick_config();
        config.adversaries = vec![AdversarySpec::new("naive-whitewash", 2).with_parameter(0.05)];
        let mut sim = Simulation::from_spec(&ScenarioSpec::from_config(config).unwrap()).unwrap();
        sim.run();
        let stats = *sim.world().adversaries.units()[0].stats();
        assert!(stats.resets > 0, "5% per peer-step over 200 peer-steps");
        assert!(stats.reputation_shed_sum >= 0.0);
        assert!(stats.shed_per_reset() >= 0.0);
    }

    #[test]
    fn actions_on_uncontrolled_peers_are_ignored() {
        use crate::netsim::peer::PeerId;

        /// Tries to puppet and whitewash peer 0, which it does not control.
        struct Overreacher;
        impl AdversaryStrategy for Overreacher {
            fn name(&self) -> &'static str {
                "overreacher"
            }
            fn on_step(
                &mut self,
                _peers: &[PeerId],
                _view: WorldView<'_>,
                _rng: &mut StdRng,
                actions: &mut Vec<AdversaryAction>,
            ) {
                actions.push(AdversaryAction::Act {
                    peer: PeerId(0),
                    action: CollabAction::idle(),
                });
                actions.push(AdversaryAction::Whitewash { peer: PeerId(0) });
                actions.push(AdversaryAction::Depart { peer: PeerId(0) });
            }
        }
        let mut registry = AdversaryRegistry::standard();
        registry.register("overreacher", |_, _| Ok(Box::new(Overreacher)));

        let mut config = quick_config();
        config.adversaries = vec![AdversarySpec::new("overreacher", 2)];
        let honest_baseline = {
            let mut plain = quick_config();
            plain.adversaries = vec![AdversarySpec::new("overreacher", 2)];
            plain
        };
        let spec = ScenarioSpec::from_config(config).unwrap();
        let mut sim = crate::engine::Simulation::from_spec_with_registries(
            &spec,
            &crate::pipeline::PhaseRegistry::standard(),
            &registry,
        )
        .unwrap();
        sim.run();
        let stats = *sim.world().adversaries.units()[0].stats();
        assert_eq!(stats.forced_steps, 0, "honest peer 0 was never puppeted");
        assert_eq!(stats.resets, 0, "honest peer 0 was never whitewashed");
        assert_eq!(stats.departures, 0, "honest peer 0 never departed");
        assert!(sim.world().peers.peer(PeerId(0)).online);
        // And the run is identical to the same spec under a strategy that
        // emits nothing: the overreach had zero effect on the world.
        let mut inert_registry = AdversaryRegistry::standard();
        inert_registry.register("overreacher", |_, _| {
            struct Inert;
            impl AdversaryStrategy for Inert {
                fn name(&self) -> &'static str {
                    "inert"
                }
                fn on_step(
                    &mut self,
                    _peers: &[PeerId],
                    _view: WorldView<'_>,
                    _rng: &mut StdRng,
                    _actions: &mut Vec<AdversaryAction>,
                ) {
                }
            }
            Ok(Box::new(Inert))
        });
        let inert_spec = ScenarioSpec::from_config(honest_baseline).unwrap();
        let inert_report = crate::engine::Simulation::from_spec_with_registries(
            &inert_spec,
            &crate::pipeline::PhaseRegistry::standard(),
            &inert_registry,
        )
        .unwrap()
        .run();
        let report = crate::engine::Simulation::from_spec_with_registries(
            &spec,
            &crate::pipeline::PhaseRegistry::standard(),
            &registry,
        )
        .unwrap()
        .run();
        assert_eq!(report, inert_report);
    }

    #[test]
    fn offline_adversary_peers_cast_no_override_votes() {
        use crate::netsim::peer::PeerId;
        use crate::pipeline::{PhaseRegistry, StepContext, StepPhase};

        // A phase that takes the *second* ring peer offline on step 1 and
        // keeps it there, so the only way the unit's override-vote counter
        // can move is the remaining online member voting on the offline
        // member's edits — which never exist. Any override vote therefore
        // proves an offline peer voted.
        struct DepartLastPhase;
        impl StepPhase for DepartLastPhase {
            fn name(&self) -> &'static str {
                "depart-last"
            }
            fn execute(&self, world: &mut SimWorld, ctx: &mut StepContext) {
                let last = PeerId(world.population() as u32 - 1);
                if world.peers.peer(last).online {
                    world.depart_peer(last, ctx.now);
                }
            }
        }
        let mut registry = PhaseRegistry::standard();
        registry.register("depart-last", |_| Box::new(DepartLastPhase));

        let mut config = quick_config();
        config.population = 12;
        config.edit_probability = 0.5;
        config.adversaries = vec![AdversarySpec::new("collusion-ring", 2)];
        let spec = ScenarioSpec::builder()
            .configure(|c| *c = config)
            .phase_order([
                "depart-last",
                "adversary",
                "selection",
                "sharing",
                "download",
                "edit-vote",
                "utility",
                "learning",
            ])
            .build()
            .unwrap();
        let mut sim = crate::engine::Simulation::from_spec_with_registries(
            &spec,
            &registry,
            &AdversaryRegistry::standard(),
        )
        .unwrap();
        sim.run();
        let unit = &sim.world().adversaries.units()[0];
        assert!(
            unit.stats().forced_steps > 0,
            "the online ring member keeps acting"
        );
        assert_eq!(
            unit.stats().override_votes,
            0,
            "a departed ring member must not vote through the override"
        );
    }

    #[test]
    fn adversary_runs_are_seed_deterministic_and_observer_passive() {
        let mut config = quick_config();
        config.adversaries = vec![
            AdversarySpec::new("adaptive-whitewash", 2),
            AdversarySpec::new("collusion-ring", 3),
        ];
        let spec = ScenarioSpec::from_config(config).unwrap();
        let a = Simulation::from_spec(&spec).unwrap().run();
        let mut observed = Simulation::from_spec(&spec).unwrap();
        observed.add_observer(AttackMetricsObserver::new());
        let b = observed.run();
        assert_eq!(a, b, "observer must be passive; seed must pin the run");
    }
}
