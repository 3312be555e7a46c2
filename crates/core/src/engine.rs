//! The simulation engine: the paper's Section-IV model as a phase
//! pipeline.
//!
//! One [`Simulation`] couples the whole network state
//! ([`SimWorld`]: peers, articles, reputation
//! ledger, learners) with a [`StepPipeline`] of
//! [`StepPhase`](crate::pipeline::StepPhase)s, and advances it through the
//! two phases of the paper's protocol:
//!
//! 1. a **training phase** (10 000 steps by default) in which the Boltzmann
//!    temperature is effectively infinite so every rational agent explores
//!    its 27 actions uniformly and "no agent will have a degenerated
//!    Q-Matrix",
//! 2. a **reputation reset** ("the reputation values are reset but the
//!    agents keep their Q-Matrices"), followed by
//! 3. a measured **evaluation phase** at temperature 1 whose per-step
//!    observations produce the [`SimulationReport`].
//!
//! Every step executes the standard pipeline: action selection → sharing →
//! downloads (with bandwidth allocated by the configured incentive scheme) →
//! editing and voting (gated, weighted and punished by the scheme) →
//! utility computation → Q-learning updates — plus the optional
//! reputation-propagation phase when a backend is configured. Custom phases
//! plug in through a [`PhaseRegistry`] and a spec naming them
//! ([`Simulation::from_spec_with_registries`]).

use crate::adversary::AdversaryRegistry;
use crate::config::SimulationConfig;
use crate::gametheory::behavior::BehaviorType;
use crate::netsim::article::ArticleRegistry;
use crate::observer::{StepObserver, WorldView};
use crate::pipeline::{PhaseRegistry, StepContext, StepPipeline};
use crate::report::SimulationReport;
use crate::reputation::propagation::GlobalReputation;
use crate::reputation::sharded::ShardedLedger;
use crate::snapshot::{RunStore, Snapshot, SnapshotError};
use crate::spec::{ScenarioSpec, SpecError};
use crate::world::SimWorld;
use std::convert::Infallible;

pub use crate::world::{ARTICLE_CONTRIBUTION_UNITS, BANDWIDTH_CONTRIBUTION_UNITS};

use crate::agent_table::AgentTable;

/// The full simulation: world state plus the step pipeline advancing it.
///
/// The simulation owns one [`StepContext`] that every step reuses (cleared
/// in place), so steady-state stepping performs no per-step scratch
/// allocation.
pub struct Simulation {
    world: SimWorld,
    pipeline: StepPipeline,
    ctx: StepContext,
    observers: Vec<Box<dyn StepObserver>>,
}

impl Simulation {
    /// Builds the initial network state from a configuration, with the
    /// standard Section-IV pipeline: the configuration becomes a spec
    /// ([`ScenarioSpec::from_config`]) built by [`Simulation::from_spec`].
    ///
    /// # Panics
    ///
    /// Panics with the [`SpecError`] text on an invalid configuration or
    /// an adversary strategy the standard registry does not know.
    pub fn new(config: SimulationConfig) -> Self {
        ScenarioSpec::from_config(config)
            .and_then(|spec| Self::from_spec(&spec))
            .unwrap_or_else(|error| panic!("{error}"))
    }

    /// Builds a simulation from a [`ScenarioSpec`]: the spec's phase list
    /// and adversary strategies are resolved against the standard
    /// registries.
    pub fn from_spec(spec: &ScenarioSpec) -> Result<Self, SpecError> {
        Self::from_spec_with_registries(
            spec,
            &PhaseRegistry::standard(),
            &AdversaryRegistry::standard(),
        )
    }

    /// Builds a simulation from a spec, resolving phase names *and*
    /// adversary strategy names against caller-supplied registries — the
    /// fully pluggable entry point: a custom attack is a registered
    /// [`AdversaryStrategy`](crate::adversary::AdversaryStrategy) plus a
    /// spec naming it, never an engine edit.
    pub fn from_spec_with_registries(
        spec: &ScenarioSpec,
        registry: &PhaseRegistry,
        adversary_registry: &AdversaryRegistry,
    ) -> Result<Self, SpecError> {
        let pipeline = spec.build_pipeline_with(registry)?;
        let world = SimWorld::with_adversary_registry(spec.config().clone(), adversary_registry)?;
        let ctx = StepContext::new(world.population(), 0.0, 0);
        Ok(Self {
            world,
            pipeline,
            ctx,
            observers: Vec::new(),
        })
    }

    /// Attaches a [`StepObserver`]; observers fire in attachment order at
    /// phase, step and run boundaries. Observation is read-only and can
    /// never change simulation results.
    pub fn add_observer(&mut self, observer: impl StepObserver + 'static) -> &mut Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// The `index`-th attached observer, downcast to its concrete type
    /// (`None` if the index is out of range or the type does not match).
    pub fn observer<O: StepObserver>(&self, index: usize) -> Option<&O> {
        self.observers.get(index)?.as_any().downcast_ref::<O>()
    }

    /// Number of attached observers.
    pub fn observer_count(&self) -> usize {
        self.observers.len()
    }

    /// The configuration the simulation was built from.
    pub fn config(&self) -> &SimulationConfig {
        &self.world.config
    }

    /// The step pipeline (phase names, length).
    pub fn pipeline(&self) -> &StepPipeline {
        &self.pipeline
    }

    /// Read access to the full world state (e.g. for custom analyses).
    pub fn world(&self) -> &SimWorld {
        &self.world
    }

    /// Mutable access to the world state, for harnesses that inject state
    /// between runs — the arms-race trainer uses this to hand a resumed
    /// episode the policy its learning adversary reached in the previous
    /// one. Mutating mid-run state voids the determinism contract; inject
    /// before the first [`Simulation::step`].
    pub fn world_mut(&mut self) -> &mut SimWorld {
        &mut self.world
    }

    /// Read access to the (sharded) reputation ledger.
    pub fn ledger(&self) -> &ShardedLedger {
        &self.world.ledger
    }

    /// Read access to the article registry.
    pub fn articles(&self) -> &ArticleRegistry {
        &self.world.articles
    }

    /// Read access to the struct-of-arrays agent table.
    pub fn agents(&self) -> &AgentTable {
        &self.world.agents
    }

    /// Behaviour type of a peer.
    pub fn behavior(&self, peer: usize) -> BehaviorType {
        self.world.behaviors[peer]
    }

    /// Current simulation step.
    pub fn now(&self) -> u64 {
        self.world.clock.now()
    }

    /// The latest globally propagated reputation vector, if the
    /// propagation phase is enabled and has run.
    pub fn global_reputation(&self) -> Option<&GlobalReputation> {
        self.world.global_reputation.as_ref()
    }

    /// Runs the full protocol (training, reset, measured evaluation) and
    /// returns the report: [`Simulation::finish`] on a fresh simulation.
    pub fn run(&mut self) -> SimulationReport {
        self.finish()
    }

    /// Runs only the training phase (uniform exploration, unmeasured).
    pub fn run_training(&mut self) {
        let temperature = self.world.config.phases.training_temperature;
        for _ in 0..self.world.config.phases.training_steps {
            self.step(temperature);
        }
    }

    /// The phase switch: reputation values are reset, Q-matrices are kept.
    pub fn reset_for_evaluation(&mut self) {
        self.world.reset_for_evaluation();
    }

    /// Advances the simulation by a single step at the given Boltzmann
    /// temperature, executing every pipeline phase in order on the reused
    /// step context (with observer callbacks at phase and step boundaries).
    pub fn step(&mut self, temperature: f64) {
        self.pipeline.run_step_observed(
            &mut self.world,
            temperature,
            &mut self.ctx,
            &mut self.observers,
        );
    }

    /// Captures a checkpoint of the current state. `spec` must be the
    /// scenario spec this simulation was built from — the simulation does
    /// not retain it, and the snapshot embeds its exact text so resuming is
    /// self-contained. Call only at step boundaries (never from inside a
    /// phase or observer callback).
    pub fn snapshot(&self, spec: &ScenarioSpec) -> Snapshot {
        Snapshot::capture(&self.world, spec)
    }

    /// Rebuilds a simulation from a checkpoint: the embedded spec
    /// reconstructs the pipeline and all derived machinery, then the
    /// captured state overwrites the world exactly. The returned simulation
    /// continues the checkpointed trajectory bit for bit — drive it with
    /// [`Simulation::finish`] (or manual [`Simulation::step`] calls).
    pub fn resume_from(snapshot: &Snapshot) -> Result<Self, SnapshotError> {
        Self::resume_with_registries(
            snapshot,
            &PhaseRegistry::standard(),
            &AdversaryRegistry::standard(),
        )
    }

    /// [`Simulation::resume_from`] with phase and adversary names resolved
    /// against caller-supplied registries (for snapshots of runs that used
    /// custom phases or strategies).
    pub fn resume_with_registries(
        snapshot: &Snapshot,
        registry: &PhaseRegistry,
        adversary_registry: &AdversaryRegistry,
    ) -> Result<Self, SnapshotError> {
        let spec = ScenarioSpec::parse(&snapshot.spec_text)
            .map_err(|error| SnapshotError::Spec(error.to_string()))?;
        let mut sim = Self::from_spec_with_registries(&spec, registry, adversary_registry)
            .map_err(|error| SnapshotError::Spec(error.to_string()))?;
        snapshot.apply(&mut sim.world)?;
        Ok(sim)
    }

    /// Runs the rest of the protocol from the current position — however
    /// far a resumed checkpoint got — and returns the report. On a fresh
    /// simulation this is the full protocol; on a resumed one it finishes
    /// the remaining training steps, performs the reputation reset if it
    /// has not happened yet, and runs the remaining evaluation steps.
    pub fn finish(&mut self) -> SimulationReport {
        let Ok(report) = self.run_from_here(|_| Ok::<(), Infallible>(()));
        report
    }

    /// The protocol loop behind [`Simulation::finish`] and
    /// [`Simulation::run_with_checkpoints`]: the rest of the training
    /// phase, the reputation reset (unless measurement has begun), the rest
    /// of the evaluation phase, then the report. `after_step` runs after
    /// every step (and after the evaluation counter moves); its first error
    /// ends the run.
    fn run_from_here<E>(
        &mut self,
        mut after_step: impl FnMut(&Self) -> Result<(), E>,
    ) -> Result<SimulationReport, E> {
        for observer in &mut self.observers {
            observer.on_run_start(WorldView::new(&self.world));
        }
        if !self.world.measuring {
            let temperature = self.world.config.phases.training_temperature;
            while self.world.clock.now() < self.world.config.phases.training_steps {
                self.step(temperature);
                after_step(self)?;
            }
            self.reset_for_evaluation();
        }
        let temperature = self.world.config.phases.evaluation_temperature;
        while self.world.evaluation_steps_run < self.world.config.phases.evaluation_steps {
            self.step(temperature);
            self.world.evaluation_steps_run += 1;
            after_step(self)?;
        }
        let report = self.world.build_report();
        for observer in &mut self.observers {
            observer.on_run_end(WorldView::new(&self.world), &report);
        }
        Ok(report)
    }

    /// Steps left before [`Simulation::finish`] would return: the
    /// unfinished tail of the training phase (zero once measurement has
    /// begun) plus the unfinished tail of the evaluation phase. On a fresh
    /// simulation this equals the configured total; on a resumed one it is
    /// what the resume still has to pay.
    pub fn remaining_steps(&self) -> u64 {
        let phases = &self.world.config.phases;
        let training = if self.world.measuring {
            0
        } else {
            phases.training_steps.saturating_sub(self.world.clock.now())
        };
        training
            + phases
                .evaluation_steps
                .saturating_sub(self.world.evaluation_steps_run)
    }

    /// [`Simulation::finish`] with a checkpoint written to `store` every
    /// `every` global steps (training and evaluation alike, always at step
    /// boundaries). Returns the report and the store keys written, in
    /// chronological order. Checkpointing is pure observation — the report
    /// is bit-identical to an uncheckpointed [`Simulation::finish`].
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn run_with_checkpoints(
        &mut self,
        spec: &ScenarioSpec,
        every: u64,
        store: &mut dyn RunStore,
    ) -> Result<(SimulationReport, Vec<String>), SnapshotError> {
        assert!(every > 0, "checkpoint interval must be at least 1 step");
        let mut keys = Vec::new();
        let report = self.run_from_here(|sim| {
            if sim.now() % every == 0 {
                keys.push(store.put(&sim.snapshot(spec))?);
            }
            Ok(())
        })?;
        Ok((report, keys))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PhaseConfig, PropagationConfig, ReputationSource};
    use crate::gametheory::behavior::BehaviorMix;
    use crate::incentive::IncentiveScheme;
    use crate::observer::TimingObserver;
    use crate::reputation::propagation::PropagationScheme;

    fn quick_config() -> SimulationConfig {
        SimulationConfig {
            population: 20,
            initial_articles: 10,
            phases: PhaseConfig {
                training_steps: 120,
                evaluation_steps: 80,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn construction_assigns_behaviors_according_to_mix() {
        let config = SimulationConfig {
            mix: BehaviorMix::new(0.5, 0.25, 0.25),
            ..quick_config()
        };
        let sim = Simulation::new(config);
        let rational = (0..20)
            .filter(|&p| sim.behavior(p) == BehaviorType::Rational)
            .count();
        let altruistic = (0..20)
            .filter(|&p| sim.behavior(p) == BehaviorType::Altruistic)
            .count();
        assert_eq!(rational, 10);
        assert_eq!(altruistic, 5);
        assert_eq!(sim.now(), 0);
        assert_eq!(sim.articles().article_count(), 10);
    }

    #[test]
    fn standard_pipeline_delegates_to_the_protocol_phases() {
        let sim = Simulation::new(quick_config());
        assert_eq!(
            sim.pipeline().phase_names(),
            vec![
                "selection",
                "sharing",
                "download",
                "edit-vote",
                "utility",
                "learning"
            ]
        );
        assert!(
            sim.pipeline().len() >= 5,
            "step must delegate to ≥ 5 phases"
        );
    }

    #[test]
    fn newcomer_reputation_equals_configured_minimum() {
        let sim = Simulation::new(quick_config());
        for p in 0..20 {
            assert!((sim.ledger().sharing_reputation(p) - 0.05).abs() < 1e-9);
        }
    }

    #[test]
    fn run_produces_consistent_report() {
        let mut sim = Simulation::new(quick_config());
        let report = sim.run();
        assert_eq!(report.evaluation_steps, 80);
        assert!(report.shared_bandwidth >= 0.0 && report.shared_bandwidth <= 1.0);
        assert!(report.shared_articles >= 0.0 && report.shared_articles <= 1.0);
        assert!(report.mean_article_quality > 0.0 && report.mean_article_quality <= 1.0);
        let rational = report.breakdown(BehaviorType::Rational);
        assert_eq!(rational.peers, 20);
        assert!(rational.shared_bandwidth >= 0.0);
    }

    #[test]
    fn altruistic_population_shares_everything() {
        let config = SimulationConfig {
            mix: BehaviorMix::new(0.0, 1.0, 0.0),
            ..quick_config()
        };
        let mut sim = Simulation::new(config);
        let report = sim.run();
        assert!((report.shared_bandwidth - 1.0).abs() < 1e-9);
        assert!((report.shared_articles - 1.0).abs() < 1e-9);
        let alt = report.breakdown(BehaviorType::Altruistic);
        assert_eq!(alt.constructive_edit_fraction(), 1.0);
        assert_eq!(alt.destructive_edits, 0);
    }

    #[test]
    fn irrational_population_shares_nothing() {
        let config = SimulationConfig {
            mix: BehaviorMix::new(0.0, 0.0, 1.0),
            ..quick_config()
        };
        let mut sim = Simulation::new(config);
        let report = sim.run();
        assert_eq!(report.shared_bandwidth, 0.0);
        assert_eq!(report.shared_articles, 0.0);
        let irr = report.breakdown(BehaviorType::Irrational);
        assert_eq!(irr.constructive_edits, 0);
        // Irrational peers stay at the minimum reputation forever.
        assert!((irr.final_sharing_reputation - 0.05).abs() < 1e-9);
    }

    #[test]
    fn same_seed_reproduces_identical_reports() {
        let config = SimulationConfig {
            seed: 123,
            ..quick_config()
        };
        let a = Simulation::new(config.clone()).run();
        let b = Simulation::new(config).run();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Simulation::new(SimulationConfig {
            seed: 1,
            ..quick_config()
        })
        .run();
        let b = Simulation::new(SimulationConfig {
            seed: 2,
            ..quick_config()
        })
        .run();
        assert_ne!(a, b);
    }

    #[test]
    fn reputation_reset_keeps_q_matrices() {
        let mut sim = Simulation::new(quick_config());
        sim.run_training();
        let updates_before = sim.agents().total_updates();
        assert!(updates_before > 0);
        // Sharing reputation has moved away from the minimum during training.
        let any_above_min = (0..20).any(|p| sim.ledger().sharing_reputation(p) > 0.06);
        assert!(any_above_min);
        sim.reset_for_evaluation();
        for p in 0..20 {
            assert!((sim.ledger().sharing_reputation(p) - 0.05).abs() < 1e-9);
        }
        let updates_after = sim.agents().total_updates();
        assert_eq!(updates_before, updates_after, "Q-matrices must be kept");
    }

    #[test]
    fn sharing_raises_reputation_of_altruistic_peers_during_run() {
        let config = SimulationConfig {
            mix: BehaviorMix::new(0.0, 0.5, 0.5),
            ..quick_config()
        };
        let mut sim = Simulation::new(config);
        let report = sim.run();
        let alt = report.breakdown(BehaviorType::Altruistic);
        let irr = report.breakdown(BehaviorType::Irrational);
        assert!(
            alt.final_sharing_reputation > irr.final_sharing_reputation,
            "altruists {} should out-rank free-riders {}",
            alt.final_sharing_reputation,
            irr.final_sharing_reputation
        );
    }

    #[test]
    fn altruistic_peers_download_more_than_freeriders_under_incentive() {
        let config = SimulationConfig {
            mix: BehaviorMix::new(0.0, 0.5, 0.5),
            incentive: IncentiveScheme::ReputationBased,
            ..quick_config()
        };
        let mut sim = Simulation::new(config);
        let report = sim.run();
        let alt = report.breakdown(BehaviorType::Altruistic);
        let irr = report.breakdown(BehaviorType::Irrational);
        assert!(
            alt.downloaded > irr.downloaded,
            "altruists {} vs free-riders {}",
            alt.downloaded,
            irr.downloaded
        );
    }

    #[test]
    fn without_incentive_downloads_are_not_differentiated() {
        let config = SimulationConfig {
            mix: BehaviorMix::new(0.0, 0.5, 0.5),
            incentive: IncentiveScheme::None,
            ..quick_config()
        };
        let mut sim = Simulation::new(config);
        let report = sim.run();
        let alt = report.breakdown(BehaviorType::Altruistic);
        let irr = report.breakdown(BehaviorType::Irrational);
        // Free-riders still download (equal split); the gap between types is
        // much smaller than under the incentive scheme.
        assert!(irr.downloaded > 0.0);
        let gap = (alt.downloaded - irr.downloaded).abs();
        assert!(
            gap < alt.downloaded.max(irr.downloaded),
            "gap {gap} suspiciously large for the no-incentive baseline"
        );
    }

    #[test]
    fn edits_are_decided_and_counted() {
        let config = SimulationConfig {
            mix: BehaviorMix::new(0.0, 0.7, 0.3),
            ..quick_config()
        };
        let mut sim = Simulation::new(config);
        let report = sim.run();
        assert!(report.edit_outcomes.decided() > 0, "no edits were decided");
        // With an altruistic majority, constructive edits dominate and are
        // mostly accepted while destructive ones are mostly declined.
        assert!(report.constructive_acceptance_rate() > report.destructive_acceptance_rate());
    }

    #[test]
    fn transfer_arena_stays_bounded_over_a_run() {
        // The free list recycles finished transfers, so the arena is
        // bounded by concurrent downloads (≤ 1 per peer) instead of
        // growing by one slot per download over the whole run.
        let mut sim = Simulation::new(quick_config());
        sim.run();
        let transfers = &sim.world().transfers;
        assert!(transfers.completed_count() > 0, "downloads must complete");
        assert!(
            transfers.slot_count() <= sim.world().population(),
            "arena grew past the population: {} slots",
            transfers.slot_count()
        );
    }

    #[test]
    fn step_can_be_driven_manually() {
        let mut sim = Simulation::new(quick_config());
        sim.step(1.0);
        sim.step(1.0);
        assert_eq!(sim.now(), 2);
    }

    #[test]
    fn timing_observer_accumulates_across_steps_once_attached() {
        let mut sim = Simulation::new(quick_config());
        sim.step(1.0);
        sim.add_observer(TimingObserver::new());
        sim.step(1.0);
        sim.step(1.0);
        let timings: &TimingObserver = sim.observer(0).expect("attached above");
        let totals = timings.timings().totals();
        assert_eq!(totals.len(), sim.pipeline().len());
        assert!(
            totals.iter().all(|&(_, _, count)| count == 2),
            "steps before the observer was attached are not recorded"
        );
    }

    #[test]
    fn forced_sharding_and_threading_do_not_change_results() {
        let base = SimulationConfig {
            mix: BehaviorMix::new(0.4, 0.3, 0.3),
            seed: 7,
            ..quick_config()
        };
        let plain = Simulation::new(base.clone()).run();
        let sharded = Simulation::new(SimulationConfig {
            ledger_shards: 5,
            intra_step_threads: 3,
            ..base
        })
        .run();
        assert_eq!(plain, sharded);
    }

    #[test]
    fn propagation_phase_produces_a_global_reputation_vector() {
        let config = SimulationConfig {
            mix: BehaviorMix::new(0.0, 0.5, 0.5),
            propagation: PropagationConfig {
                scheme: Some(PropagationScheme::EigenTrust),
                interval: 25,
                ..Default::default()
            },
            ..quick_config()
        };
        let mut sim = Simulation::new(config);
        assert_eq!(sim.pipeline().len(), 7);
        assert_eq!(sim.pipeline().phase_names().last(), Some(&"propagation"));
        assert!(sim.global_reputation().is_none());
        let report = sim.run();
        let global = sim
            .global_reputation()
            .expect("propagation ran during the simulation");
        assert_eq!(global.values.len(), 20);
        assert!(global.values.iter().all(|v| v.is_finite() && *v >= 0.0));
        // 200 steps at interval 25 → 8 runs.
        assert_eq!(sim.world().propagation_runs, 8);
        // Altruists (upload everything) must out-rank free-riders globally.
        let mean = |ty: BehaviorType| {
            let peers: Vec<usize> = (0..20).filter(|&p| sim.behavior(p) == ty).collect();
            let sum: f64 = peers.iter().map(|&p| global.values[p]).sum();
            sum / peers.len() as f64
        };
        assert!(
            mean(BehaviorType::Altruistic) > mean(BehaviorType::Irrational),
            "propagated reputation must reflect upload behaviour"
        );
        assert!(report.evaluation_steps == 80);
    }

    #[test]
    fn propagated_reputation_source_changes_service_decisions() {
        // Feeding service differentiation from the propagation backend's
        // output (instead of the globally visible ledger) must change the
        // trajectory once the first propagation round has run — and stay
        // seed-deterministic.
        let base = SimulationConfig {
            mix: BehaviorMix::new(0.4, 0.3, 0.3),
            seed: 11,
            propagation: PropagationConfig {
                scheme: Some(PropagationScheme::EigenTrust),
                interval: 25,
                ..Default::default()
            },
            ..quick_config()
        };
        let ledger_fed = Simulation::new(base.clone()).run();
        let mut sim = Simulation::new(SimulationConfig {
            reputation_source: ReputationSource::Propagated,
            ..base.clone()
        });
        let propagated_fed = sim.run();
        assert_ne!(
            ledger_fed, propagated_fed,
            "propagated reputation must actually feed service decisions"
        );
        assert!(sim.world().propagated_service_reputation.is_some());
        let values = sim.world().propagated_service_reputation.as_ref().unwrap();
        let r_min = sim.config().min_reputation;
        assert!(values
            .iter()
            .all(|&v| (r_min - 1e-12..=1.0 + 1e-12).contains(&v)));
        let again = Simulation::new(SimulationConfig {
            reputation_source: ReputationSource::Propagated,
            ..base
        })
        .run();
        assert_eq!(propagated_fed, again, "seed-deterministic");
    }

    #[test]
    fn propagation_does_not_perturb_the_core_dynamics() {
        // Same seed, propagation on vs off: the report must be identical
        // because the propagation phase only reads the upload history and
        // draws from its own RNG stream.
        let base = SimulationConfig {
            mix: BehaviorMix::new(0.4, 0.3, 0.3),
            seed: 99,
            ..quick_config()
        };
        let without = Simulation::new(base.clone()).run();
        let with = Simulation::new(SimulationConfig {
            propagation: PropagationConfig {
                scheme: Some(PropagationScheme::Gossip),
                interval: 50,
                ..Default::default()
            },
            ..base
        })
        .run();
        assert_eq!(without, with);
    }
}
