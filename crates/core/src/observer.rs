//! Step observers: streaming metrics without growing the report.
//!
//! A [`StepObserver`] receives callbacks at phase, step and run boundaries
//! with a read-only [`WorldView`] of the simulation state. Observers
//! are how benches and tests collect statistics the fixed
//! [`SimulationReport`] does not carry — per-step time series, churn
//! dynamics, phase timings — without every new metric growing the report
//! struct (which is pinned bit-for-bit by the golden test).
//!
//! Observation is passive by construction: callbacks get `&`-references
//! only, so attaching any number of observers can never change simulation
//! results. The built-in [`TimingObserver`] is how a run is timed per
//! phase.

use crate::gametheory::behavior::BehaviorType;
use crate::netsim::article::ArticleRegistry;
use crate::netsim::peer::PeerRegistry;
use crate::pipeline::{PhaseTimings, StepContext};
use crate::report::SimulationReport;
use crate::world::{ChurnStats, SimWorld};
use std::time::Duration;

/// A read-only facade over [`SimWorld`] handed to observer callbacks.
///
/// Exposes the state observers typically aggregate; anything missing can
/// be reached through [`WorldView::world`], which hands out the whole
/// world immutably.
#[derive(Clone, Copy)]
pub struct WorldView<'a> {
    world: &'a SimWorld,
}

impl<'a> WorldView<'a> {
    /// Wraps a world.
    pub fn new(world: &'a SimWorld) -> Self {
        Self { world }
    }

    /// The whole world state, immutably.
    pub fn world(&self) -> &'a SimWorld {
        self.world
    }

    /// Number of peers (the arena size; includes departed identities).
    pub fn population(&self) -> usize {
        self.world.population()
    }

    /// The current simulation step.
    pub fn now(&self) -> u64 {
        self.world.clock.now()
    }

    /// A peer's sharing reputation `R_S`.
    pub fn sharing_reputation(&self, peer: usize) -> f64 {
        self.world.ledger.sharing_reputation(peer)
    }

    /// A peer's editing reputation `R_E`.
    pub fn editing_reputation(&self, peer: usize) -> f64 {
        self.world.ledger.editing_reputation(peer)
    }

    /// A peer's behaviour type.
    pub fn behavior(&self, peer: usize) -> BehaviorType {
        self.world.behaviors[peer]
    }

    /// The peer registry (online flags, capacities, offers).
    pub fn peers(&self) -> &'a PeerRegistry {
        &self.world.peers
    }

    /// Number of peers currently online: a popcount of the online bitset.
    pub fn online_count(&self) -> usize {
        self.world.active.online().count()
    }

    /// The article registry (quality, voter sets, edit outcome tallies).
    pub fn articles(&self) -> &'a ArticleRegistry {
        &self.world.articles
    }

    /// Running churn counters.
    pub fn churn_stats(&self) -> ChurnStats {
        self.world.churn_stats
    }

    /// Whether the measured evaluation phase is active.
    pub fn measuring(&self) -> bool {
        self.world.measuring
    }
}

impl std::fmt::Debug for WorldView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldView")
            .field("now", &self.now())
            .field("population", &self.population())
            .field("online", &self.online_count())
            .finish()
    }
}

/// Callbacks at phase, step and run boundaries of a simulation.
///
/// All callback methods default to no-ops, so an observer implements only
/// the boundaries it cares about (plus the [`StepObserver::as_any`]
/// boilerplate that lets callers recover the concrete observer after a
/// run). Attach observers with
/// [`Simulation::add_observer`](crate::engine::Simulation::add_observer);
/// they fire in attachment order.
pub trait StepObserver: Send + std::any::Any {
    /// The observer as [`Any`](std::any::Any), so
    /// [`Simulation::observer`](crate::engine::Simulation::observer) can
    /// downcast it back to the concrete type after a run. Implement as
    /// `fn as_any(&self) -> &dyn std::any::Any { self }`.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Called once when a full protocol run starts (before any step).
    fn on_run_start(&mut self, _world: WorldView<'_>) {}

    /// Called after every phase with the phase's name and wall-clock time.
    fn on_phase(
        &mut self,
        _phase: &str,
        _elapsed: Duration,
        _world: WorldView<'_>,
        _ctx: &StepContext,
    ) {
    }

    /// Called after the last phase of every step.
    fn on_step_end(&mut self, _world: WorldView<'_>, _ctx: &StepContext) {}

    /// Called once when a full protocol run finishes, with the report.
    fn on_run_end(&mut self, _world: WorldView<'_>, _report: &SimulationReport) {}
}

/// An observer accumulating per-phase wall-clock totals into
/// [`PhaseTimings`]: one entry per phase, in execution order, counting
/// every step after the observer was attached.
#[derive(Debug, Default)]
pub struct TimingObserver {
    timings: PhaseTimings,
    /// Interned copies of non-builtin phase names (`PhaseTimings` keys by
    /// `&'static str`, so custom names are leaked — exactly once each,
    /// through this memo).
    interned: Vec<&'static str>,
}

impl TimingObserver {
    /// A fresh timing observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated totals.
    pub fn timings(&self) -> &PhaseTimings {
        &self.timings
    }
}

impl StepObserver for TimingObserver {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_phase(
        &mut self,
        phase: &str,
        elapsed: Duration,
        _world: WorldView<'_>,
        _ctx: &StepContext,
    ) {
        // PhaseTimings keys entries by `&'static str`; the observer
        // interface hands out `&str`, so built-in names map to their
        // static literals and custom names are leaked once each (the memo
        // makes repeat calls hit the interned copy, not a fresh leak).
        let name: &'static str = match phase {
            "selection" => "selection",
            "sharing" => "sharing",
            "download" => "download",
            "edit-vote" => "edit-vote",
            "utility" => "utility",
            "learning" => "learning",
            "propagation" => "propagation",
            "churn" => "churn",
            other => match self.interned.iter().find(|n| **n == other) {
                Some(&interned) => interned,
                None => {
                    let interned: &'static str = Box::leak(other.to_string().into_boxed_str());
                    self.interned.push(interned);
                    interned
                }
            },
        };
        self.timings.record(name, elapsed);
    }
}

/// An observer recording a per-step churn/population time series — the
/// data behind the re-entry reputation-persistence statistics of the churn
/// bench.
#[derive(Debug, Default)]
pub struct ChurnTimelineObserver {
    steps: Vec<ChurnTimelinePoint>,
}

/// One step's churn observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnTimelinePoint {
    /// The simulation step.
    pub now: u64,
    /// Peers online after the step.
    pub online: usize,
    /// Cumulative churn counters after the step.
    pub stats: ChurnStats,
}

impl ChurnTimelineObserver {
    /// A fresh timeline observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded time series, one point per step.
    pub fn timeline(&self) -> &[ChurnTimelinePoint] {
        &self.steps
    }
}

impl StepObserver for ChurnTimelineObserver {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_step_end(&mut self, world: WorldView<'_>, _ctx: &StepContext) {
        self.steps.push(ChurnTimelinePoint {
            now: world.now(),
            online: world.online_count(),
            stats: world.churn_stats(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PhaseConfig, SimulationConfig};
    use crate::engine::Simulation;

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

    /// Counts every callback and checks the view is coherent.
    #[derive(Default)]
    struct CountingObserver {
        run_starts: usize,
        phases: usize,
        steps: usize,
        run_ends: usize,
        last_online: usize,
    }

    impl StepObserver for CountingObserver {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn on_run_start(&mut self, world: WorldView<'_>) {
            self.run_starts += 1;
            assert_eq!(world.now(), 0);
        }
        fn on_phase(
            &mut self,
            phase: &str,
            _elapsed: Duration,
            world: WorldView<'_>,
            ctx: &StepContext,
        ) {
            self.phases += 1;
            assert!(!phase.is_empty());
            assert_eq!(ctx.now, world.now());
        }
        fn on_step_end(&mut self, world: WorldView<'_>, _ctx: &StepContext) {
            self.steps += 1;
            self.last_online = world.online_count();
        }
        fn on_run_end(&mut self, world: WorldView<'_>, report: &SimulationReport) {
            self.run_ends += 1;
            assert_eq!(report.evaluation_steps, 20);
            assert_eq!(world.population(), 10);
        }
    }

    #[test]
    fn observers_fire_at_every_boundary() {
        let mut sim = Simulation::new(quick_config());
        sim.add_observer(CountingObserver::default());
        let report = sim.run();
        let observer: &CountingObserver = sim.observer(0).expect("attached above");
        assert_eq!(observer.run_starts, 1);
        assert_eq!(observer.run_ends, 1);
        assert_eq!(observer.steps, 50, "training + evaluation steps");
        assert_eq!(observer.phases, 50 * sim.pipeline().len());
        assert_eq!(observer.last_online, 10);
        assert_eq!(report.evaluation_steps, 20);
    }

    #[test]
    fn observation_is_passive() {
        let baseline = Simulation::new(quick_config()).run();
        let mut observed = Simulation::new(quick_config());
        observed.add_observer(CountingObserver::default());
        observed.add_observer(TimingObserver::new());
        observed.add_observer(ChurnTimelineObserver::new());
        assert_eq!(
            observed.run(),
            baseline,
            "observers must not change results"
        );
    }

    #[test]
    fn timing_observer_records_every_phase_once_per_step() {
        let mut sim = Simulation::new(quick_config());
        sim.add_observer(TimingObserver::new());
        sim.run();
        let timings: &TimingObserver = sim.observer(0).expect("attached above");
        let names: Vec<&str> = timings
            .timings()
            .totals()
            .iter()
            .map(|&(n, _, _)| n)
            .collect();
        assert_eq!(names, sim.pipeline().phase_names());
        assert!(timings
            .timings()
            .totals()
            .iter()
            .all(|&(_, _, count)| count == 50));
    }

    #[test]
    fn churn_timeline_records_every_step() {
        let mut sim = Simulation::new(quick_config());
        sim.add_observer(ChurnTimelineObserver::new());
        sim.run();
        let timeline: &ChurnTimelineObserver = sim.observer(0).expect("attached above");
        assert_eq!(timeline.timeline().len(), 50);
        assert!(timeline
            .timeline()
            .iter()
            .all(|point| point.online == 10 && point.stats.total_events() == 0));
    }
}
