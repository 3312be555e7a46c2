//! Invariant-checking observers for the scenario fuzzer.
//!
//! Each observer here watches one structural invariant of the simulation
//! through the passive [`StepObserver`] interface and *records* violations
//! instead of panicking, so the spec fuzzer (`tests/spec_fuzz.rs`) can run
//! a generated scenario to completion, collect every violation and shrink
//! the offending spec to a minimal reproducer. The four invariants:
//!
//! * [`ReputationBoundsObserver`] — every peer's sharing and editing
//!   reputation stays inside `[R_min, 1]` at every step (the range of the
//!   paper's logistic reputation function),
//! * [`ConservationObserver`] — bandwidth conservation of the fault layer:
//!   `grants_offered == grants_applied + grants_lost + grants_delayed`
//!   (see [`NetStats`]),
//! * [`ArenaBoundObserver`] — the transfer arena never holds more slots
//!   than there are peers (each downloader has at most one active
//!   transfer),
//! * [`ActiveSetObserver`] — the incrementally maintained
//!   [`ActiveSets`](crate::active::ActiveSets) bitsets equal a
//!   from-scratch recompute.
//!
//! Violations are formatted eagerly into strings (with step numbers and
//! offending values) so an observer can be interrogated after the run with
//! no lifetime coupling to the world.

use crate::observer::{StepObserver, WorldView};
use crate::pipeline::StepContext;
use crate::report::SimulationReport;
use crate::world::NetStats;

/// Tolerance for floating-point reputation bounds (the logistic function
/// lands exactly on the bounds only in the limit; accumulation error can
/// overshoot by a few ulps).
const BOUNDS_EPS: f64 = 1e-9;

/// Relative tolerance for the bandwidth-conservation residual.
const CONSERVATION_REL_EPS: f64 = 1e-6;

/// How many violations each observer keeps before it stops recording (a
/// broken invariant often fires every step; the fuzzer only needs proof
/// plus a little context, not millions of identical lines).
const MAX_RECORDED: usize = 16;

fn record(violations: &mut Vec<String>, message: String) {
    if violations.len() < MAX_RECORDED {
        violations.push(message);
    }
}

/// Checks that every peer's sharing/editing reputation stays inside
/// `[R_min, 1]` after every step.
#[derive(Debug, Default)]
pub struct ReputationBoundsObserver {
    violations: Vec<String>,
}

impl ReputationBoundsObserver {
    /// A fresh observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recorded violations, empty when the invariant held.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}

impl StepObserver for ReputationBoundsObserver {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_step_end(&mut self, world: WorldView<'_>, _ctx: &StepContext) {
        let min = world.world().config.min_reputation;
        let (lo, hi) = (min - BOUNDS_EPS, 1.0 + BOUNDS_EPS);
        for peer in 0..world.population() {
            for (kind, value) in [
                ("sharing", world.sharing_reputation(peer)),
                ("editing", world.editing_reputation(peer)),
            ] {
                if !(lo..=hi).contains(&value) {
                    record(
                        &mut self.violations,
                        format!(
                            "step {}: peer {peer} {kind} reputation {value} outside [{min}, 1]",
                            world.now()
                        ),
                    );
                }
            }
        }
    }
}

/// Checks bandwidth conservation of the fault layer at the end of a run:
/// every offered grant must be accounted for as applied, lost or delayed.
#[derive(Debug, Default)]
pub struct ConservationObserver {
    violations: Vec<String>,
    stats: NetStats,
}

impl ConservationObserver {
    /// A fresh observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recorded violations, empty when the invariant held.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// The fault-layer accounting observed at the end of the run.
    pub fn stats(&self) -> NetStats {
        self.stats
    }
}

impl StepObserver for ConservationObserver {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_run_end(&mut self, world: WorldView<'_>, _report: &SimulationReport) {
        let stats = world.world().net_stats;
        self.stats = stats;
        let residual = stats.conservation_residual().abs();
        let scale = stats.grants_offered.abs().max(1.0);
        if residual > CONSERVATION_REL_EPS * scale {
            record(
                &mut self.violations,
                format!(
                    "bandwidth conservation violated: offered {} != applied {} + lost {} \
                     + delayed {} (residual {residual})",
                    stats.grants_offered,
                    stats.grants_applied,
                    stats.grants_lost,
                    stats.grants_delayed,
                ),
            );
        }
    }
}

/// Checks that the transfer arena never outgrows the population (each
/// downloader holds at most one active transfer slot).
#[derive(Debug, Default)]
pub struct ArenaBoundObserver {
    violations: Vec<String>,
}

impl ArenaBoundObserver {
    /// A fresh observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recorded violations, empty when the invariant held.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}

impl StepObserver for ArenaBoundObserver {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_step_end(&mut self, world: WorldView<'_>, _ctx: &StepContext) {
        let slots = world.world().transfers.slot_count();
        let population = world.population();
        if slots > population {
            record(
                &mut self.violations,
                format!(
                    "step {}: transfer arena holds {slots} slots for {population} peers",
                    world.now()
                ),
            );
        }
    }
}

/// Checks that the incrementally maintained
/// [`ActiveSets`](crate::active::ActiveSets) bitsets always equal a
/// from-scratch recompute from the peer registry.
#[derive(Debug, Default)]
pub struct ActiveSetObserver {
    violations: Vec<String>,
}

impl ActiveSetObserver {
    /// A fresh observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recorded violations, empty when the invariant held.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}

impl StepObserver for ActiveSetObserver {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_step_end(&mut self, world: WorldView<'_>, _ctx: &StepContext) {
        let w = world.world();
        if !w.active.matches(&w.peers, &w.behaviors) {
            record(
                &mut self.violations,
                format!(
                    "step {}: active sets diverged from a from-scratch recompute",
                    world.now()
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PhaseConfig, SimulationConfig};
    use crate::engine::Simulation;
    use crate::netsim::fault::LinkModel;

    fn quick_config() -> SimulationConfig {
        SimulationConfig {
            population: 12,
            initial_articles: 6,
            phases: PhaseConfig {
                training_steps: 40,
                evaluation_steps: 30,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn run_with_observers(config: SimulationConfig) -> Vec<String> {
        let mut sim = Simulation::new(config);
        sim.add_observer(ReputationBoundsObserver::new());
        sim.add_observer(ConservationObserver::new());
        sim.add_observer(ArenaBoundObserver::new());
        sim.add_observer(ActiveSetObserver::new());
        sim.run();
        let mut all = Vec::new();
        all.extend_from_slice(
            sim.observer::<ReputationBoundsObserver>(0)
                .expect("attached")
                .violations(),
        );
        all.extend_from_slice(
            sim.observer::<ConservationObserver>(1)
                .expect("attached")
                .violations(),
        );
        all.extend_from_slice(
            sim.observer::<ArenaBoundObserver>(2)
                .expect("attached")
                .violations(),
        );
        all.extend_from_slice(
            sim.observer::<ActiveSetObserver>(3)
                .expect("attached")
                .violations(),
        );
        all
    }

    #[test]
    fn ideal_run_holds_all_invariants() {
        let violations = run_with_observers(quick_config());
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn faulty_run_holds_all_invariants() {
        let config = SimulationConfig {
            network: LinkModel::IidLoss { loss: 0.2 },
            ..quick_config()
        };
        let violations = run_with_observers(config);
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn conservation_observer_reports_fault_accounting() {
        let config = SimulationConfig {
            network: LinkModel::IidLoss { loss: 0.3 },
            ..quick_config()
        };
        let mut sim = Simulation::new(config);
        sim.add_observer(ConservationObserver::new());
        sim.run();
        let observer: &ConservationObserver = sim.observer(0).expect("attached");
        let stats = observer.stats();
        assert!(stats.grants_offered > 0.0, "grants must flow");
        assert!(
            stats.grants_lost > 0.0,
            "a 30% lossy link must lose some grants: {stats:?}"
        );
        assert!(observer.violations().is_empty());
    }

    #[test]
    fn violations_are_recorded_not_panicked() {
        // A deliberately broken bound (reputation can never exceed 0.0)
        // must surface as recorded strings, capped at MAX_RECORDED.
        #[derive(Default)]
        struct Broken {
            violations: Vec<String>,
        }
        impl StepObserver for Broken {
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn on_step_end(&mut self, world: WorldView<'_>, _ctx: &StepContext) {
                for peer in 0..world.population() {
                    if world.sharing_reputation(peer) > 0.0 {
                        record(
                            &mut self.violations,
                            format!("peer {peer} reputation above zero"),
                        );
                    }
                }
            }
        }
        let mut sim = Simulation::new(quick_config());
        sim.add_observer(Broken::default());
        sim.run();
        let observer: &Broken = sim.observer(0).expect("attached");
        assert!(!observer.violations.is_empty());
        assert!(observer.violations.len() <= MAX_RECORDED);
    }
}
