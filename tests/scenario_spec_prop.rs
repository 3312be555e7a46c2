//! Property and integration tests of the declarative scenario API:
//!
//! * **Round trip** — building a spec, rendering it to text, parsing it
//!   back and building again produces the same spec, the same pipeline
//!   (phase names) and the same simulation report, for arbitrary spec
//!   parameters.
//! * **Registry order** — a custom user-registered phase runs at exactly
//!   the position the spec's phase list declares, with zero engine edits.
//! * **Compatibility** — `Simulation::from_spec` on a default-phase spec
//!   is bit-identical to `Simulation::new` on the same configuration.

use collabsim_workspace::collabsim::config::PhaseConfig;
use collabsim_workspace::collabsim::netsim::churn::ChurnModel;
use collabsim_workspace::collabsim::observer::{StepObserver, WorldView};
use collabsim_workspace::collabsim::pipeline::{PhaseRegistry, StepContext, StepPhase};
use collabsim_workspace::collabsim::spec::{ScenarioSpec, SpecError};
use collabsim_workspace::collabsim::{
    AdversaryRegistry, BehaviorMix, IncentiveScheme, SimWorld, Simulation, SimulationConfig,
};
use proptest::prelude::*;

/// A small-but-arbitrary spec from random draws: population, mix, scheme,
/// seed, churn and propagation knobs all vary; phases stay short so the
/// report-equality property runs in test time.
fn spec_from(
    population: usize,
    mix_raw: (u32, u32, u32),
    scheme_kind: u32,
    seed: u64,
    churn_raw: (u32, u32, u32),
    edit_pct: u32,
) -> ScenarioSpec {
    let (r, a, i) = mix_raw;
    let total = (r + a + i).max(1) as f64;
    let mix = BehaviorMix::new(
        f64::from(r) / total,
        f64::from(a) / total,
        (total - f64::from(r) - f64::from(a)) / total,
    );
    let scheme = IncentiveScheme::ALL[scheme_kind as usize % 3];
    let churn = ChurnModel {
        join_probability: f64::from(churn_raw.0 % 20) / 100.0,
        leave_probability: f64::from(churn_raw.1 % 5) / 1000.0,
        whitewash_probability: f64::from(churn_raw.2 % 5) / 1000.0,
    };
    ScenarioSpec::builder()
        .label(format!("prop/{seed}"))
        .population(population)
        .mix(mix)
        .incentive(scheme)
        .seed(seed)
        .phase_config(PhaseConfig {
            training_steps: 40,
            evaluation_steps: 20,
            ..Default::default()
        })
        .initial_articles(population / 2 + 2)
        .churn(churn)
        .configure(|c| c.edit_probability = f64::from(edit_pct % 101) / 100.0)
        .build()
        .expect("generated specs are valid")
}

proptest! {
    /// build → serialize → parse → build: the parsed spec is equal, its
    /// pipeline has the same phases, and running both specs produces the
    /// same report.
    #[test]
    fn text_round_trip_preserves_spec_pipeline_and_report(
        population in 6usize..24,
        mix_raw in (0u32..5, 0u32..5, 1u32..5),
        scheme_kind in 0u32..3,
        seed in 0u64..1_000_000,
        churn_raw in (0u32..20, 0u32..5, 0u32..5),
        edit_pct in 0u32..101,
    ) {
        let spec = spec_from(population, mix_raw, scheme_kind, seed, churn_raw, edit_pct);
        let text = spec.to_text();
        let parsed = ScenarioSpec::parse(&text).expect("rendered specs parse back");
        prop_assert_eq!(&parsed, &spec, "parsed spec drifted");

        let pipeline = spec.build_pipeline().expect("standard phases resolve");
        let reparsed_pipeline = parsed.build_pipeline().expect("standard phases resolve");
        prop_assert_eq!(pipeline.phase_names(), reparsed_pipeline.phase_names());

        let report = Simulation::from_spec(&spec).expect("resolves").run();
        let reparsed_report = Simulation::from_spec(&parsed).expect("resolves").run();
        prop_assert_eq!(report, reparsed_report, "round-tripped spec changed the trajectory");
    }
}

#[test]
fn from_spec_matches_new_on_default_phases() {
    let config = SimulationConfig {
        population: 20,
        initial_articles: 10,
        phases: PhaseConfig {
            training_steps: 120,
            evaluation_steps: 80,
            ..Default::default()
        },
        mix: BehaviorMix::new(0.5, 0.25, 0.25),
        seed: 0xBEEF,
        ..Default::default()
    };
    let via_new = Simulation::new(config.clone()).run();
    let spec = ScenarioSpec::from_config(config).unwrap();
    let via_spec = Simulation::from_spec(&spec).unwrap().run();
    assert_eq!(via_new, via_spec);
}

#[test]
fn presets_are_thin_wrappers_over_the_config_presets() {
    assert_eq!(
        ScenarioSpec::large_population(10_000).config(),
        &SimulationConfig::large_population(10_000)
    );
}

/// A phase that stamps its position in the step's execution order into the
/// world (abusing `propagation_runs` as a cheap visible counter), plus an
/// observer asserting the declared order, together proving that a custom
/// scenario needs zero engine edits: register + declare + run.
struct StampPhase;

impl StepPhase for StampPhase {
    fn name(&self) -> &'static str {
        "stamp"
    }
    fn execute(&self, world: &mut SimWorld, _ctx: &mut StepContext) {
        world.propagation_runs += 1;
    }
}

#[derive(Default)]
struct OrderObserver {
    per_step: Vec<Vec<String>>,
    current: Vec<String>,
}

impl StepObserver for OrderObserver {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn on_phase(
        &mut self,
        phase: &str,
        _elapsed: std::time::Duration,
        _world: WorldView<'_>,
        _ctx: &StepContext,
    ) {
        self.current.push(phase.to_string());
    }
    fn on_step_end(&mut self, _world: WorldView<'_>, _ctx: &StepContext) {
        self.per_step.push(std::mem::take(&mut self.current));
    }
}

#[test]
fn user_registered_phase_runs_in_declared_order() {
    let mut registry = PhaseRegistry::standard();
    registry.register("stamp", |_| Box::new(StampPhase));

    // Declare the custom phase in the middle of the standard order.
    let spec = ScenarioSpec::builder()
        .population(10)
        .initial_articles(5)
        .phase_config(PhaseConfig {
            training_steps: 6,
            evaluation_steps: 4,
            ..Default::default()
        })
        .phase_order([
            "selection",
            "sharing",
            "stamp",
            "download",
            "edit-vote",
            "utility",
            "learning",
        ])
        .build()
        .unwrap();

    let mut sim =
        Simulation::from_spec_with_registries(&spec, &registry, &AdversaryRegistry::standard())
            .unwrap();
    sim.add_observer(OrderObserver::default());
    sim.run();

    assert_eq!(
        sim.world().propagation_runs,
        10,
        "stamp phase executed once per step"
    );
    let observer: &OrderObserver = sim.observer(0).unwrap();
    assert_eq!(observer.per_step.len(), 10);
    for step in &observer.per_step {
        assert_eq!(
            step,
            &[
                "selection",
                "sharing",
                "stamp",
                "download",
                "edit-vote",
                "utility",
                "learning"
            ],
            "phases must run in the declared order"
        );
    }

    // The same spec fails against a registry without the custom phase —
    // with a typed error, before anything runs.
    let Err(err) = Simulation::from_spec(&spec) else {
        panic!("unregistered phase must not resolve");
    };
    assert_eq!(
        err,
        SpecError::UnknownPhase {
            name: "stamp".to_string()
        }
    );
}
