//! A collusion attack through the adversary subsystem.
//!
//! Declares a network in which a collusion ring (full sharers that
//! cross-vote each other's destructive edits) and a sybil-slander cell
//! (contribute nothing, vote against every honest edit, cycle identities
//! when caught) attack the paper's incentive scheme — while service
//! differentiation runs on *propagated* (EigenTrust) reputation instead of
//! the globally visible ledger. Everything is a `ScenarioSpec`: no engine
//! edits, no custom pipeline code, and the whole attack round-trips
//! through the text format.
//!
//! Run with `cargo run --release --example collusion_attack`.

use collabsim_workspace::collabsim::adversary::{AdversarySpec, AttackMetricsObserver};
use collabsim_workspace::collabsim::reputation::propagation::PropagationScheme;
use collabsim_workspace::collabsim::{BehaviorMix, PhaseConfig, ScenarioSpec, Simulation};

fn main() {
    // --- declare the attack ------------------------------------------------
    let spec = ScenarioSpec::builder()
        .label("example/collusion-attack")
        .population(60)
        .initial_articles(30)
        .mix(BehaviorMix::new(0.4, 0.4, 0.2))
        .phase_config(PhaseConfig {
            training_steps: 800,
            evaluation_steps: 400,
            ..Default::default()
        })
        // A six-peer collusion ring and a four-identity sybil cell. Peers
        // are claimed from the top of the id range, in unit order.
        .adversary(AdversarySpec::new("collusion-ring", 6))
        .adversary(AdversarySpec::new("sybil-slander", 4))
        // Service decisions read EigenTrust's propagated reputation (every
        // 50 steps) instead of the ledger — the realistic deployment the
        // paper assumes away.
        .propagation(PropagationScheme::EigenTrust, 50)
        .propagated_reputation()
        .seed(0x0C01_10DE)
        .build()
        .expect("the attack spec is valid");

    // The spec is serializable; the attack travels as plain text.
    let text = spec.to_text();
    let reparsed = ScenarioSpec::parse(&text).expect("specs round-trip");
    assert_eq!(reparsed, spec);
    println!(
        "--- spec ({} adversary units) ---",
        spec.config().adversaries.len()
    );
    for line in text.lines().filter(|l| l.starts_with("adversary")) {
        println!("{line}");
    }
    println!();

    // --- run it with attack metrics ---------------------------------------
    let mut sim = Simulation::from_spec(&spec).expect("built-in strategies resolve");
    sim.add_observer(AttackMetricsObserver::new());
    let report = sim.run();

    println!("--- outcome -----------------------------------------------------");
    println!(
        "article quality {:.3}, accepted destructive edits {}, declined constructive {}",
        report.mean_article_quality,
        report.edit_outcomes.accepted_destructive,
        report.edit_outcomes.declined_constructive,
    );
    println!();
    println!(
        "{:<16} {:>8} {:>9} {:>9} {:>7} {:>7} {:>8}",
        "unit", "damage", "dstr-acc", "retained", "resets", "votes", "detect"
    );
    let observer: &AttackMetricsObserver = sim.observer(0).expect("attached above");
    for (unit, metrics) in sim
        .world()
        .adversaries
        .units()
        .iter()
        .zip(observer.metrics())
    {
        println!(
            "{:<16} {:>8.1} {:>9} {:>9.4} {:>7} {:>7} {:>8}",
            unit.name(),
            metrics.damage_bandwidth,
            metrics.destructive_accepted,
            metrics.mean_reputation_retained(),
            unit.stats().resets,
            unit.stats().override_votes,
            metrics
                .first_detection
                .map_or("never".to_string(), |s| format!("@{s}")),
        );
    }
    println!();
    println!(
        "(the punishment machinery revoked rights {} times across both units)",
        observer
            .metrics()
            .iter()
            .map(|m| m.rights_revocations())
            .sum::<u64>()
    );
}
