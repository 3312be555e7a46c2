//! The CLI phase registry, including the deliberately crashing
//! `chaos-panic` phase used to exercise the grid coordinator's crash
//! isolation.
//!
//! Spec *parsing* never consults a registry, so
//! `scenarios/ci/chaos_panic.spec` can be checked in; the name only has
//! to resolve when a simulation is built — and it resolves solely in the
//! CLI's registry, never in [`PhaseRegistry::standard`].

use collabsim::pipeline::{PhaseRegistry, StepContext, StepPhase};
use collabsim::SimWorld;

/// The registered name of the crashing phase.
pub const CHAOS_PANIC_PHASE: &str = "chaos-panic";

/// A phase that panics on its first execution — a worker running it dies
/// with a non-zero exit, which the coordinator must absorb (retry, then
/// mark the cell failed) without losing the rest of the sweep.
struct ChaosPanicPhase;

impl StepPhase for ChaosPanicPhase {
    fn name(&self) -> &'static str {
        CHAOS_PANIC_PHASE
    }

    fn execute(&self, _world: &mut SimWorld, ctx: &mut StepContext) {
        panic!(
            "chaos-panic phase fired at step {} (deliberate crash-isolation probe)",
            ctx.now
        );
    }
}

/// The registry the CLI resolves phases against: everything in
/// [`PhaseRegistry::standard`] plus [`CHAOS_PANIC_PHASE`].
pub fn cli_registry() -> PhaseRegistry {
    let mut registry = PhaseRegistry::standard();
    registry.register(CHAOS_PANIC_PHASE, |_| Box::new(ChaosPanicPhase));
    registry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_registry_extends_the_standard_one() {
        let registry = cli_registry();
        assert!(registry.contains(CHAOS_PANIC_PHASE));
        assert!(registry.contains("selection"));
        assert!(!PhaseRegistry::standard().contains(CHAOS_PANIC_PHASE));
    }

    #[test]
    fn chaos_spec_resolves_only_in_the_cli_registry() {
        let spec = crate::scenarios::chaos_panic_spec();
        assert!(collabsim::Simulation::from_spec(&spec).is_err());
        assert!(collabsim::Simulation::from_spec_with_registries(
            &spec,
            &cli_registry(),
            &collabsim::AdversaryRegistry::standard()
        )
        .is_ok());
    }
}
