//! Quickstart: configure and run one collabsim simulation.
//!
//! Builds the paper's Section-IV model at a reduced scale (so the example
//! finishes in a couple of seconds), runs the training phase, the reputation
//! reset and the measured evaluation phase, and prints the headline metrics
//! the paper's figures are made of.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use collabsim_workspace::collabsim::results::behavior_table;
use collabsim_workspace::collabsim::{
    BehaviorMix, BehaviorType, IncentiveScheme, PhaseConfig, Simulation, SimulationConfig,
};

fn main() {
    // A 50-peer network: 60 % rational learners, 20 % altruists, 20 %
    // irrational peers, governed by the reputation-based incentive scheme.
    let config = SimulationConfig {
        population: 50,
        initial_articles: 25,
        phases: PhaseConfig {
            training_steps: 2_000,
            evaluation_steps: 800,
            ..Default::default()
        },
        mix: BehaviorMix::new(0.6, 0.2, 0.2),
        incentive: IncentiveScheme::ReputationBased,
        seed: 42,
        ..Default::default()
    };

    println!(
        "running {} peers for {} training + {} evaluation steps...",
        config.population, config.phases.training_steps, config.phases.evaluation_steps
    );

    let mut simulation = Simulation::new(config);
    let report = simulation.run();

    println!();
    println!("== headline metrics (evaluation phase) ==");
    println!(
        "shared articles  (population mean): {:.3}",
        report.shared_articles
    );
    println!(
        "shared bandwidth (population mean): {:.3}",
        report.shared_bandwidth
    );
    println!(
        "constructive fraction of rational edits: {:.3}",
        report.rational_constructive_fraction()
    );
    println!(
        "constructive edits accepted: {:.1} %   destructive edits accepted: {:.1} %",
        report.constructive_acceptance_rate() * 100.0,
        report.destructive_acceptance_rate() * 100.0
    );
    println!("mean article quality: {:.3}", report.mean_article_quality);
    println!("completed downloads: {}", report.completed_downloads);

    println!();
    println!("== per-behaviour breakdown ==");
    println!("{}", behavior_table(&report));

    let rational = report.breakdown(BehaviorType::Rational);
    let irrational = report.breakdown(BehaviorType::Irrational);
    println!(
        "service differentiation at work: rational peers downloaded {:.3} per step, free-riders {:.3}",
        rational.downloaded, irrational.downloaded
    );
}
