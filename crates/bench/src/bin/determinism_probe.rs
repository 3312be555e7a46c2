//! `determinism_probe` — prints bit-exact simulation reports for the CI
//! determinism job.
//!
//! The binary runs (1) a mix × scheme × seed set of eight small cells, one
//! after another, (2) the paper configuration (100 peers, shortened
//! phases) with automatic ledger sharding and intra-step threading, (3) a
//! download-heavy cell with few upload sources, so every source's request
//! bucket holds many competing downloaders, (4) a churn-enabled spec
//! (departures, re-entries and whitewashes over a sharded ledger) so the
//! offline-gated phase paths stay byte-identical under intra-step
//! parallelism, and (5) an adversary cell (adaptive-whitewash +
//! collusion-ring under the paper mix, with propagation-fed service
//! differentiation) so the strategic-attack and propagated-reputation
//! paths stay byte-identical too; every report's `Debug` form is printed
//! to stdout.
//!
//! The intra-step workers honour the `SCENARIO_THREADS` environment
//! variable, so CI runs the binary at 1, 3 and 4 threads and `diff`s the
//! outputs: any divergence between sequential and sharded-parallel
//! execution fails the build.

use collabsim::adversary::AdversarySpec;
use collabsim::config::PhaseConfig;
use collabsim::netsim::churn::ChurnModel;
use collabsim::reputation::propagation::PropagationScheme;
use collabsim::{BehaviorMix, IncentiveScheme, ScenarioSpec, Simulation, SimulationConfig};

fn main() {
    // The thread setting goes to stderr: stdout must be identical across
    // runs with different SCENARIO_THREADS values (CI diffs it).
    eprintln!(
        "determinism probe (SCENARIO_THREADS={})",
        std::env::var("SCENARIO_THREADS").unwrap_or_else(|_| "unset".to_string())
    );

    // Small cells across the mix × scheme × seed axes.
    let base = SimulationConfig {
        population: 20,
        initial_articles: 10,
        phases: PhaseConfig {
            training_steps: 120,
            evaluation_steps: 80,
            ..Default::default()
        },
        ..Default::default()
    };
    for (mix_label, mix) in [
        ("half-rational", BehaviorMix::new(0.5, 0.25, 0.25)),
        ("all-rational", BehaviorMix::all_rational()),
    ] {
        for incentive in [IncentiveScheme::ReputationBased, IncentiveScheme::None] {
            for seed in [7, 8] {
                let config = SimulationConfig {
                    mix,
                    incentive,
                    seed,
                    ..base.clone()
                };
                let report = Simulation::new(config).run();
                println!("{mix_label}/{}/seed={seed}: {report:?}", incentive.label());
            }
        }
    }

    // The paper configuration with the sharded ledger: intra-step worker
    // counts must not leak into the trajectory. Built through the spec API
    // so the probe also pins `Simulation::from_spec` == `Simulation::new`.
    let paper = SimulationConfig {
        phases: PhaseConfig {
            training_steps: 1_000,
            evaluation_steps: 500,
            ..Default::default()
        },
        mix: BehaviorMix::new(0.6, 0.2, 0.2),
        ledger_shards: 8,
        seed: 0xD1CE,
        ..Default::default()
    };
    let spec = ScenarioSpec::from_config(paper).expect("probe spec is valid");
    let report = Simulation::from_spec(&spec)
        .expect("standard phases resolve")
        .run();
    println!("paper/sharded: {report:?}");

    // The batched transfer engine: a download-heavy cell in which only a
    // minority of peers offers upload bandwidth, so every source's request
    // bucket holds many competing downloaders.
    let download_heavy = SimulationConfig {
        population: 150,
        initial_articles: 30,
        phases: PhaseConfig {
            training_steps: 400,
            evaluation_steps: 200,
            ..Default::default()
        },
        mix: BehaviorMix::new(0.2, 0.2, 0.6),
        ledger_shards: 6,
        seed: 0x0BA7_C4ED,
        ..Default::default()
    };
    let report = Simulation::new(download_heavy).run();
    println!("download-heavy/batched-grants: {report:?}");

    // A churn-enabled spec: departures empty ledger shards mid-run,
    // re-entries bring their reputation back, whitewashes reset identities
    // in place — all while the selection, sharing and learning stages run
    // in parallel. Churn samples from its own RNG stream, so the
    // trajectory (and these stats) must be byte-identical at any
    // SCENARIO_THREADS value.
    let churn_spec = ScenarioSpec::builder()
        .configure(|c| {
            c.phases = PhaseConfig {
                training_steps: 600,
                evaluation_steps: 300,
                ..Default::default()
            };
        })
        .mix(BehaviorMix::new(0.5, 0.25, 0.25))
        .churn(ChurnModel {
            join_probability: 0.1,
            leave_probability: 0.004,
            whitewash_probability: 0.002,
        })
        .ledger_shards(8)
        .seed(0xC0AC_CEED)
        .build()
        .expect("churn spec is valid");
    let mut sim = Simulation::from_spec(&churn_spec).expect("churn phase resolves");
    let report = sim.run();
    let stats = sim.world().churn_stats;
    println!("churn/sharded: {report:?}");
    println!(
        "churn/stats: joins={} leaves={} whitewashes={} mean_reentry_reputation={:.9} mean_whitewash_shed={:.9}",
        stats.joins,
        stats.leaves,
        stats.whitewashes,
        stats.mean_reentry_reputation(),
        stats.mean_whitewash_shed()
    );

    // An adversary cell under the paper mix: strategic timed whitewashes
    // (with scheduled re-entries) and a collusion ring cross-voting its
    // edits, with service differentiation fed by propagated (EigenTrust)
    // reputation instead of the ledger. Adversaries draw from their own
    // RNG stream and the parallel stages (selection, the sharded ledger,
    // learning) must reproduce the attack trajectory
    // byte-for-byte at any SCENARIO_THREADS value.
    let attack_spec = ScenarioSpec::builder()
        .label("adversary/paper-mix")
        .population(80)
        .initial_articles(40)
        .mix(BehaviorMix::new(0.6, 0.2, 0.2))
        .phase_config(PhaseConfig {
            training_steps: 400,
            evaluation_steps: 200,
            ..Default::default()
        })
        .adversary(AdversarySpec::new("adaptive-whitewash", 6).with_parameter(3.0))
        .adversary(AdversarySpec::new("collusion-ring", 5))
        .propagation(PropagationScheme::EigenTrust, 40)
        .propagated_reputation()
        .ledger_shards(8)
        .seed(0xBADC_0DE5)
        .build()
        .expect("adversary spec is valid");
    let mut sim = Simulation::from_spec(&attack_spec).expect("adversary phase resolves");
    let report = sim.run();
    println!("adversary/paper-mix: {report:?}");
    for unit in sim.world().adversaries.units() {
        let stats = unit.stats();
        println!(
            "adversary/stats: unit={} peers={} resets={} shed_per_reset={:.9} forced_steps={} departures={} rejoins={} override_votes={}",
            unit.name(),
            unit.peers().len(),
            stats.resets,
            stats.shed_per_reset(),
            stats.forced_steps,
            stats.departures,
            stats.rejoins,
            stats.override_votes,
        );
    }
}
