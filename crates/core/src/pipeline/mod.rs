//! The step-phase pipeline: one simulation step as a sequence of pluggable
//! phases.
//!
//! The paper's Section-IV protocol executes the same sub-phases every step:
//! action selection → sharing → downloads → editing and voting → utility →
//! Q-learning updates. The monolithic engine used to hard-wire that
//! sequence; here each sub-phase is a [`StepPhase`] trait object operating
//! on the shared [`SimWorld`] plus a per-step
//! scratch [`StepContext`], composed by a [`StepPipeline`]:
//!
//! * [`SelectionPhase`] — every agent picks its composite action at the
//!   step's Boltzmann temperature,
//! * [`SharingPhase`] — sharing decisions are applied to the peer registry
//!   and contribution values are recorded (collect-then-apply: parallel
//!   workers bucket `ContributionDelta`s per ledger shard, the sharded
//!   ledger applies them — bit-identical at any worker count),
//! * [`DownloadPhase`] — download requests are collected and each source's
//!   offered upload is allocated under the incentive scheme,
//! * [`EditVotePhase`] — edits are submitted, voted on (gated, weighted and
//!   punished by the scheme) and resolved,
//! * [`UtilityPhase`] — per-peer rewards are computed and evaluation-phase
//!   measurements accumulated,
//! * [`LearningPhase`] — rational agents apply their Q-updates,
//! * [`PropagationPhase`] — (optional, config-gated) periodically
//!   propagates the upload-derived trust graph into a global reputation
//!   vector through the configured
//!   `PropagationBackend`,
//! * [`ChurnPhase`] — (optional, spec-gated) applies the configured churn
//!   model between steps: departures, re-entries and whitewashes over the
//!   peer arena, drawing from its own stream (`world.churn_rng`),
//! * [`AdversaryPhase`](crate::adversary::AdversaryPhase) — (optional,
//!   spec-gated) runs the configured strategic adversary units against a
//!   read-only view of the post-churn world and applies their actions
//!   (forced free-riding, timed whitewashes, departures with scheduled
//!   re-entries), on its own stream (`world.adversary_rng`).
//!
//! **Determinism contract:** phases draw from `world.rng` strictly in
//! pipeline order. Inserting a phase that consumes the step RNG changes
//! every downstream draw; phases with private randomness (like
//! [`PropagationPhase`], [`ChurnPhase`] and the adversary phase) must use
//! their own stream (`world.propagation_rng` / `world.churn_rng` /
//! `world.adversary_rng`). The network-fault layer inside
//! [`DownloadPhase`] follows the same rule on `world.net_rng`
//! (connection-state transitions and per-grant loss draws, both in the
//! phase's sequential sections so thread-count invariance holds for every
//! link model); the ideal model draws nothing from it, which is what
//! keeps the default configuration bit-identical to a fault-unaware
//! build. The golden-report test pins the standard pipeline's exact
//! behaviour.
//!
//! Pipelines are assembled by resolving an ordered list of phase *names*
//! against a [`PhaseRegistry`]. A [`ScenarioSpec`](crate::spec::ScenarioSpec)
//! carries its own list (by default the
//! [`default_phase_names`](crate::spec::default_phase_names) of its
//! configuration), so custom phases plug in by [`PhaseRegistry::register`]
//! plus a spec naming them (or imperatively via [`StepPipeline::push`] /
//! [`StepPipeline::insert`]) without touching the step loop.

mod churn;
mod download;
mod editvote;
mod learning;
mod propagation;
mod registry;
mod selection;
mod sharing;
mod utility;

pub use churn::ChurnPhase;
pub use download::{DownloadPhase, RequestTable, TransferTables};
pub use editvote::{EditVotePhase, VoteScratch};
pub use learning::LearningPhase;
pub use propagation::PropagationPhase;
pub use registry::{PhaseFactory, PhaseRegistry};
pub use selection::{BoltzmannCache, SelectionPhase};
pub use sharing::SharingPhase;
pub use utility::UtilityPhase;

use crate::action::CollabAction;
use crate::agent::AgentState;
use crate::netsim::churn::ChurnEvent;
use crate::netsim::peer::PeerId;
use crate::observer::{StepObserver, WorldView};
use crate::reputation::sharded::DeltaBatch;
use crate::world::SimWorld;
use std::time::{Duration, Instant};

/// The precomputed effect of one peer's sharing decision: how many of its
/// held articles it will offer (the store installs that prefix of the
/// peer's sorted held list). Collected per shard (possibly in parallel)
/// by [`SharingPhase`], drained sequentially in its apply stage.
pub type OfferPlan = (PeerId, usize);

/// Cumulative per-phase wall-clock totals, as the
/// [`TimingObserver`](crate::observer::TimingObserver) records them.
///
/// Timing is pure observation: it cannot change simulation results.
/// Totals accumulate across steps, so a whole run is profiled by one
/// attached observer — `collabsim-bench`'s `scale_population` binary
/// reports them per population tier.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimings {
    entries: Vec<(&'static str, Duration, u64)>,
}

impl PhaseTimings {
    /// Adds `elapsed` to the phase's total.
    pub fn record(&mut self, phase: &'static str, elapsed: Duration) {
        if let Some(entry) = self.entries.iter_mut().find(|(name, _, _)| *name == phase) {
            entry.1 += elapsed;
            entry.2 += 1;
        } else {
            self.entries.push((phase, elapsed, 1));
        }
    }

    /// `(phase name, total wall-clock, executions)` in first-seen order.
    pub fn totals(&self) -> &[(&'static str, Duration, u64)] {
        &self.entries
    }

    /// Total wall-clock across all phases.
    pub fn total(&self) -> Duration {
        self.entries.iter().map(|(_, d, _)| *d).sum()
    }

    /// Drops all recorded totals.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Per-step scratch state handed through the pipeline.
///
/// Earlier phases fill the vectors later phases consume; everything is
/// index-aligned with the peer population and rebuilt each step.
#[derive(Debug, Clone)]
pub struct StepContext {
    /// The step's Boltzmann temperature.
    pub temperature: f64,
    /// The step's simulation time (after the clock tick).
    pub now: u64,
    /// Every agent's observed state at the start of the step
    /// (filled by [`SelectionPhase`]).
    pub current_states: Vec<AgentState>,
    /// Every agent's chosen action (filled by [`SelectionPhase`]).
    pub actions: Vec<CollabAction>,
    /// Bandwidth downloaded by each peer this step
    /// (filled by [`DownloadPhase`]).
    pub downloaded: Vec<f64>,
    /// Highest shared-upload fraction among the sources serving each peer
    /// (filled by [`DownloadPhase`]; a `U_S` observable).
    pub source_upload_seen: Vec<f64>,
    /// Largest bandwidth share each peer obtained at any source
    /// (filled by [`DownloadPhase`]; a `U_S` observable).
    pub bandwidth_share: Vec<f64>,
    /// Successful (winning-side) votes per peer
    /// (filled by [`EditVotePhase`]).
    pub successful_votes: Vec<u32>,
    /// Accepted edits per peer (filled by [`EditVotePhase`]).
    pub accepted_edits: Vec<u32>,
    /// Whether each peer attempted an edit (filled by [`EditVotePhase`]).
    pub attempted_editing: Vec<bool>,
    /// Whether each peer cast a vote (filled by [`EditVotePhase`]).
    pub voted_this_step: Vec<bool>,
    /// Per-peer reward for the step (filled by [`UtilityPhase`], consumed
    /// by [`LearningPhase`]).
    pub rewards: Vec<f64>,
    /// Shard-bucketed sharing-contribution deltas (collect stage of
    /// [`SharingPhase`]; applied to the ledger at the end of the phase).
    pub sharing_deltas: DeltaBatch,
    /// Per-shard offered-article plans (collect stage of [`SharingPhase`];
    /// drained by its apply stage, so steady-state steps reuse the
    /// capacity instead of reallocating).
    pub offer_plans: Vec<Vec<OfferPlan>>,
    /// The transfer engine's reusable request/grant tables
    /// (collect → allocate-and-apply scratch of [`DownloadPhase`]; fully
    /// rewritten by the phase each step).
    pub transfers: TransferTables,
    /// The reusable per-edit voter-pool buffers of [`EditVotePhase`]
    /// (fully rewritten for every edit).
    pub vote_scratch: VoteScratch,
    /// One raw step-RNG draw per online, non-forced rational peer, taken in
    /// peer order by [`SelectionPhase`]'s sequential stage and sampled
    /// from by its workers (only this step's entries are ever read).
    pub selection_draws: Vec<u64>,
    /// The selection phase's reusable Boltzmann probability buffers, one
    /// per intra-step worker (rewritten for every draw; they can never
    /// change results).
    pub boltzmann: Vec<BoltzmannCache>,
    /// The churn phase's reusable event buffer (rewritten every step).
    pub churn_events: Vec<ChurnEvent>,
}

impl StepContext {
    /// Fresh scratch state for one step over `population` peers.
    pub fn new(population: usize, temperature: f64, now: u64) -> Self {
        Self {
            temperature,
            now,
            current_states: Vec::with_capacity(population),
            actions: Vec::with_capacity(population),
            downloaded: vec![0.0; population],
            source_upload_seen: vec![0.0; population],
            bandwidth_share: vec![0.0; population],
            successful_votes: vec![0; population],
            accepted_edits: vec![0; population],
            attempted_editing: vec![false; population],
            voted_this_step: vec![false; population],
            rewards: vec![0.0; population],
            sharing_deltas: DeltaBatch::default(),
            offer_plans: Vec::new(),
            transfers: TransferTables::default(),
            vote_scratch: VoteScratch::default(),
            selection_draws: Vec::new(),
            boltzmann: Vec::new(),
            churn_events: Vec::new(),
        }
    }

    /// Re-initialises the context for the next step without giving up any
    /// allocation: every per-peer vector is cleared and refilled in place,
    /// and the delta batch keeps its bucket capacity. After a reset the
    /// observable state is exactly that of a fresh [`StepContext::new`],
    /// which is what lets the engine reuse one context across all steps of
    /// a run.
    pub fn reset(&mut self, population: usize, temperature: f64, now: u64) {
        self.temperature = temperature;
        self.now = now;
        self.current_states.clear();
        self.actions.clear();
        reset_values(&mut self.downloaded, population, 0.0);
        reset_values(&mut self.source_upload_seen, population, 0.0);
        reset_values(&mut self.bandwidth_share, population, 0.0);
        reset_values(&mut self.successful_votes, population, 0);
        reset_values(&mut self.accepted_edits, population, 0);
        reset_values(&mut self.attempted_editing, population, false);
        reset_values(&mut self.voted_this_step, population, false);
        reset_values(&mut self.rewards, population, 0.0);
        self.sharing_deltas.clear();
        for plan in &mut self.offer_plans {
            plan.clear();
        }
    }
}

/// Clears and refills a per-peer vector in place.
fn reset_values<T: Copy>(values: &mut Vec<T>, population: usize, value: T) {
    values.clear();
    values.resize(population, value);
}

/// Splits `population` peers into `workers` contiguous, near-even ranges,
/// returned as ascending bounds `[0, …, population]` — the shard layout the
/// selection and learning phases hand to
/// [`AgentTable::split_mut`](crate::agent_table::AgentTable::split_mut).
/// The bounds depend only on `(population, workers)`, and because each
/// peer's work is independent the split can never change results.
pub(crate) fn worker_bounds(population: usize, workers: usize) -> Vec<usize> {
    let workers = workers.clamp(1, population.max(1));
    let per_worker = population.div_ceil(workers);
    let mut bounds = Vec::with_capacity(workers + 1);
    bounds.push(0);
    for w in 1..=workers {
        bounds.push((w * per_worker).min(population));
    }
    bounds
}

/// One sub-phase of a simulation step.
///
/// Phases are stateless (`&self`): all mutable state lives in the
/// [`SimWorld`] and the per-step [`StepContext`], which keeps a pipeline
/// freely shareable across simulations and threads.
pub trait StepPhase: Send + Sync {
    /// Stable phase name, used in diagnostics and pipeline introspection.
    fn name(&self) -> &'static str;

    /// Executes the phase for the current step.
    fn execute(&self, world: &mut SimWorld, ctx: &mut StepContext);
}

/// An ordered sequence of [`StepPhase`]s constituting one simulation step.
/// The default pipeline is empty, like [`StepPipeline::new`].
#[derive(Default)]
pub struct StepPipeline {
    phases: Vec<Box<dyn StepPhase>>,
}

impl StepPipeline {
    /// An empty pipeline (compose with [`StepPipeline::push`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a phase.
    pub fn push<P: StepPhase + 'static>(&mut self, phase: P) -> &mut Self {
        self.phases.push(Box::new(phase));
        self
    }

    /// Appends an already-boxed phase (what [`PhaseRegistry`] factories
    /// produce).
    pub fn push_boxed(&mut self, phase: Box<dyn StepPhase>) -> &mut Self {
        self.phases.push(phase);
        self
    }

    /// Inserts a phase at `index` (0 = first).
    ///
    /// # Panics
    ///
    /// Panics if `index > len()`.
    pub fn insert<P: StepPhase + 'static>(&mut self, index: usize, phase: P) -> &mut Self {
        self.phases.insert(index, Box::new(phase));
        self
    }

    /// Number of phases.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Whether the pipeline has no phases.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// The phase names in execution order.
    pub fn phase_names(&self) -> Vec<&'static str> {
        self.phases.iter().map(|p| p.name()).collect()
    }

    /// Runs one full step: ticks the clock, builds a fresh [`StepContext`]
    /// and executes every phase in order.
    ///
    /// Allocates a context per call; step loops should prefer
    /// [`StepPipeline::run_step_into`] with a reused context.
    pub fn run_step(&self, world: &mut SimWorld, temperature: f64) {
        let mut ctx = StepContext::new(world.population(), temperature, 0);
        self.run_step_into(world, temperature, &mut ctx);
    }

    /// Runs one full step into a caller-owned (reusable) context: ticks
    /// the clock, resets `ctx` in place and executes every phase in order.
    pub fn run_step_into(&self, world: &mut SimWorld, temperature: f64, ctx: &mut StepContext) {
        self.run_step_observed(world, temperature, ctx, &mut []);
    }

    /// [`StepPipeline::run_step_into`] with observer callbacks: after every
    /// phase each [`StepObserver`] receives the phase name, its wall-clock
    /// time and a read-only [`WorldView`]; after the last phase the
    /// step-end callback fires. Observers only read, so observation can
    /// never change simulation results.
    pub fn run_step_observed(
        &self,
        world: &mut SimWorld,
        temperature: f64,
        ctx: &mut StepContext,
        observers: &mut [Box<dyn StepObserver>],
    ) {
        let now = world.clock.tick();
        ctx.reset(world.population(), temperature, now);
        if !observers.is_empty() {
            for phase in &self.phases {
                let started = Instant::now();
                phase.execute(world, ctx);
                let elapsed = started.elapsed();
                for observer in observers.iter_mut() {
                    observer.on_phase(phase.name(), elapsed, WorldView::new(world), ctx);
                }
            }
        } else {
            for phase in &self.phases {
                phase.execute(world, ctx);
            }
        }
        for observer in observers.iter_mut() {
            observer.on_step_end(WorldView::new(world), ctx);
        }
    }
}

impl std::fmt::Debug for StepPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepPipeline")
            .field("phases", &self.phase_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryRegistry;
    use crate::config::{PhaseConfig, SimulationConfig};
    use crate::observer::TimingObserver;
    use crate::reputation::propagation::PropagationScheme;
    use crate::spec::ScenarioSpec;

    fn quick_config() -> SimulationConfig {
        SimulationConfig {
            population: 10,
            initial_articles: 5,
            phases: PhaseConfig {
                training_steps: 30,
                evaluation_steps: 20,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// The pipeline of `config`'s default phase list.
    fn standard_pipeline(config: &SimulationConfig) -> StepPipeline {
        ScenarioSpec::from_config(config.clone())
            .and_then(|spec| spec.build_pipeline())
            .expect("default phases resolve")
    }

    fn standard_world(config: SimulationConfig) -> SimWorld {
        SimWorld::with_adversary_registry(config, &AdversaryRegistry::standard())
            .expect("valid configuration")
    }

    #[test]
    fn standard_pipeline_has_the_six_protocol_phases() {
        let pipeline = standard_pipeline(&quick_config());
        assert_eq!(
            pipeline.phase_names(),
            vec![
                "selection",
                "sharing",
                "download",
                "edit-vote",
                "utility",
                "learning"
            ]
        );
    }

    #[test]
    fn propagation_phase_is_added_when_configured() {
        let mut config = quick_config();
        config.propagation.scheme = Some(PropagationScheme::EigenTrust);
        let pipeline = standard_pipeline(&config);
        assert_eq!(pipeline.len(), 7);
        assert_eq!(pipeline.phase_names().last(), Some(&"propagation"));
    }

    #[test]
    fn custom_phases_can_be_inserted_without_touching_the_loop() {
        struct CountingPhase;
        impl StepPhase for CountingPhase {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn execute(&self, world: &mut SimWorld, _ctx: &mut StepContext) {
                // Abuses propagation_runs as a visible counter.
                world.propagation_runs += 1;
            }
        }
        let mut pipeline = standard_pipeline(&quick_config());
        pipeline.insert(0, CountingPhase);
        assert_eq!(pipeline.phase_names()[0], "counting");
        let mut world = standard_world(quick_config());
        pipeline.run_step(&mut world, 1.0);
        pipeline.run_step(&mut world, 1.0);
        assert_eq!(world.propagation_runs, 2);
        assert_eq!(world.clock.now(), 2);
    }

    #[test]
    fn context_vectors_are_population_sized() {
        let ctx = StepContext::new(7, 1.0, 3);
        assert_eq!(ctx.downloaded.len(), 7);
        assert_eq!(ctx.rewards.len(), 7);
        assert_eq!(ctx.now, 3);
        assert_eq!(ctx.temperature, 1.0);
        assert!(ctx.actions.is_empty(), "selection fills actions");
    }

    #[test]
    fn context_reset_restores_fresh_per_step_state() {
        let mut ctx = StepContext::new(5, 1.0, 1);
        ctx.downloaded[3] = 2.5;
        ctx.successful_votes[0] = 7;
        ctx.attempted_editing[4] = true;
        ctx.rewards[2] = -1.0;
        let capacity_before = ctx.downloaded.capacity();
        ctx.reset(5, 2.0, 9);
        let fresh = StepContext::new(5, 2.0, 9);
        assert_eq!(ctx.downloaded, fresh.downloaded);
        assert_eq!(ctx.successful_votes, fresh.successful_votes);
        assert_eq!(ctx.attempted_editing, fresh.attempted_editing);
        assert_eq!(ctx.rewards, fresh.rewards);
        assert_eq!(ctx.temperature, 2.0);
        assert_eq!(ctx.now, 9);
        assert!(ctx.actions.is_empty() && ctx.current_states.is_empty());
        assert_eq!(
            ctx.downloaded.capacity(),
            capacity_before,
            "reuse, not realloc"
        );
        // A reset can also resize for a different population.
        ctx.reset(8, 1.0, 10);
        assert_eq!(ctx.rewards.len(), 8);
    }

    #[test]
    fn reused_context_reproduces_fresh_context_stepping() {
        let config = quick_config();
        let pipeline = standard_pipeline(&config);
        let mut world_fresh = standard_world(config.clone());
        let mut world_reused = standard_world(config);
        let mut ctx = StepContext::new(world_reused.population(), 0.0, 0);
        for _ in 0..20 {
            pipeline.run_step(&mut world_fresh, 1.0);
            pipeline.run_step_into(&mut world_reused, 1.0, &mut ctx);
        }
        assert_eq!(world_fresh.clock.now(), world_reused.clock.now());
        for p in 0..world_fresh.population() {
            assert_eq!(
                world_fresh.ledger.sharing_reputation(p),
                world_reused.ledger.sharing_reputation(p)
            );
            assert_eq!(
                world_fresh.ledger.editing_reputation(p),
                world_reused.ledger.editing_reputation(p)
            );
        }
    }

    #[test]
    fn phase_timings_record_every_phase_once_per_step() {
        let config = quick_config();
        let pipeline = standard_pipeline(&config);
        let mut world = standard_world(config);
        let mut ctx = StepContext::new(world.population(), 0.0, 0);
        let mut observers: Vec<Box<dyn StepObserver>> = vec![Box::new(TimingObserver::new())];
        pipeline.run_step_observed(&mut world, 1.0, &mut ctx, &mut observers);
        pipeline.run_step_observed(&mut world, 1.0, &mut ctx, &mut observers);
        let observer = observers[0].as_any().downcast_ref::<TimingObserver>();
        let mut timings = observer.expect("a timing observer").timings().clone();
        let totals = timings.totals();
        let names: Vec<&str> = totals.iter().map(|&(name, _, _)| name).collect();
        assert_eq!(names, pipeline.phase_names(), "one entry per phase");
        assert!(totals.iter().all(|&(_, _, count)| count == 2));
        assert!(timings.total() >= totals[0].1);
        timings.clear();
        assert!(timings.totals().is_empty());
    }

    #[test]
    fn empty_pipeline_still_ticks_the_clock() {
        let pipeline = StepPipeline::new();
        assert!(pipeline.is_empty());
        let mut world = standard_world(quick_config());
        pipeline.run_step(&mut world, 1.0);
        assert_eq!(world.clock.now(), 1);
    }
}
