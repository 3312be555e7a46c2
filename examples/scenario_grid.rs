//! Scenario grids on the parallel runner, with reputation propagation.
//!
//! Declares a (mix × incentive scheme × seed) grid over a reduced
//! configuration, executes it on the work-stealing `ScenarioRunner`, checks
//! the parallel run against sequential execution, and shows the optional
//! propagation phase turning upload history into a global reputation
//! vector.
//!
//! Run with `cargo run --release --example scenario_grid`.

use collabsim_workspace::collabsim::experiment::{ScenarioGrid, ScenarioRunner};
use collabsim_workspace::collabsim::{
    BehaviorMix, BehaviorType, IncentiveScheme, PhaseConfig, PropagationConfig, Simulation,
    SimulationConfig,
};
use collabsim_workspace::reputation::propagation::PropagationScheme;

fn main() {
    let base = SimulationConfig {
        population: 30,
        initial_articles: 15,
        phases: PhaseConfig {
            training_steps: 400,
            evaluation_steps: 200,
            ..Default::default()
        },
        ..Default::default()
    };

    // --- a 2 × 2 × 2 grid, executed in parallel ----------------------------
    let grid = ScenarioGrid::new(base.clone())
        .with_mixes([
            ("balanced", 0.0, BehaviorMix::new(0.4, 0.3, 0.3)),
            ("rational-heavy", 1.0, BehaviorMix::new(0.8, 0.1, 0.1)),
        ])
        .with_schemes([IncentiveScheme::ReputationBased, IncentiveScheme::None])
        .with_seeds([11, 12]);
    println!("running a {}-cell grid in parallel...", grid.len());
    let reports = ScenarioRunner::default().run_grid(&grid);
    println!("{:<38} {:>9} {:>10}", "cell", "articles", "bandwidth");
    for r in &reports {
        println!(
            "{:<38} {:>9.4} {:>10.4}",
            r.label, r.report.shared_articles, r.report.shared_bandwidth
        );
    }

    // --- parallel execution is bit-identical to sequential -----------------
    let sequential = ScenarioRunner::sequential().run_grid(&grid);
    assert_eq!(reports, sequential);
    println!("\nparallel == sequential: per-cell reports are bit-identical");

    // --- the propagation phase observes the trust the uploads built -------
    let mut sim = Simulation::new(SimulationConfig {
        mix: BehaviorMix::new(0.0, 0.5, 0.5),
        propagation: PropagationConfig {
            scheme: Some(PropagationScheme::EigenTrust),
            interval: 50,
            ..Default::default()
        },
        ..base
    });
    println!("\npipeline phases: {:?}", sim.pipeline().phase_names());
    sim.run();
    let global = sim.global_reputation().expect("propagation ran");
    let mean = |ty: BehaviorType| {
        let peers: Vec<usize> = (0..30).filter(|&p| sim.behavior(p) == ty).collect();
        peers.iter().map(|&p| global.values[p]).sum::<f64>() / peers.len() as f64
    };
    println!(
        "eigentrust global reputation (mean): altruistic {:.4} vs irrational {:.4} \
         ({} propagation runs, converged: {})",
        mean(BehaviorType::Altruistic),
        mean(BehaviorType::Irrational),
        sim.world().propagation_runs,
        global.converged,
    );
}
