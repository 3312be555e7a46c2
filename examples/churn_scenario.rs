//! A churn scenario through the declarative `ScenarioSpec` API.
//!
//! Builds a whitewash-stressed network as a spec (no engine edits, no
//! custom pipeline code), serializes it to the text format and back, runs
//! it with a churn-timeline observer attached, and prints the Section-VI
//! reputation-persistence numbers: how much reputation re-entrant
//! identities kept and how much whitewashers shed.
//!
//! Run with `cargo run --release --example churn_scenario`.

use collabsim_workspace::collabsim::netsim::churn::ChurnModel;
use collabsim_workspace::collabsim::observer::ChurnTimelineObserver;
use collabsim_workspace::collabsim::results::churn_summary;
use collabsim_workspace::collabsim::{BehaviorMix, PhaseConfig, ScenarioSpec, Simulation};

fn main() {
    // --- declare the scenario ---------------------------------------------
    // Background churn (joins and departures) plus aggressive whitewashing:
    // every step each peer whitewashes with probability 0.3 %.
    let spec = ScenarioSpec::builder()
        .label("example/churn")
        .population(60)
        .initial_articles(30)
        .mix(BehaviorMix::new(0.5, 0.25, 0.25))
        .phase_config(PhaseConfig {
            training_steps: 800,
            evaluation_steps: 400,
            ..Default::default()
        })
        .churn(ChurnModel {
            join_probability: 0.15,
            leave_probability: 0.002,
            whitewash_probability: 0.003,
        })
        .seed(42)
        .build()
        .expect("the spec builder validates every field");
    println!("phase order: {:?}", spec.phases());

    // --- the spec is a document -------------------------------------------
    let text = spec.to_text();
    println!(
        "\nserialized spec ({} lines):\n{text}",
        text.lines().count()
    );
    let reparsed = ScenarioSpec::parse(&text).expect("rendered specs parse back");
    assert_eq!(reparsed, spec, "the text round trip is exact");

    // --- run it, observing ------------------------------------------------
    let mut sim = Simulation::from_spec(&spec).expect("churn is a registered phase");
    sim.add_observer(ChurnTimelineObserver::new());
    let report = sim.run();

    println!(
        "shared articles {:.4}, shared bandwidth {:.4}, {} downloads",
        report.shared_articles, report.shared_bandwidth, report.completed_downloads
    );
    println!();
    print!(
        "{}",
        churn_summary(&sim.world().churn_stats, sim.config().min_reputation)
    );

    let timeline: &ChurnTimelineObserver = sim.observer(0).expect("attached above");
    let min_online = timeline.timeline().iter().map(|p| p.online).min().unwrap();
    let final_online = timeline.timeline().last().unwrap().online;
    println!("online peers: never below {min_online}, {final_online} at the end");

    // Reputation persisted across absences: re-entrant identities came back
    // well above the newcomer minimum.
    let stats = sim.world().churn_stats;
    assert!(stats.joins > 0 && stats.whitewashes > 0);
    assert!(stats.mean_reentry_reputation() > sim.config().min_reputation);
    println!("\nre-entry reputation exceeds the newcomer minimum: persistence works");
}
