//! `fault_grid` — the fault-injection bench: steps/sec plus fault-layer
//! accounting per regime × incentive scheme, written as `BENCH_faults.json`.
//!
//! The 12 fault cells (four link-model regimes: ideal, lossy-5 %,
//! high-latency, partitioned clusters × the three incentive schemes),
//! expressed as [`ScenarioSpec`]s, each run through the shared
//! [`collabsim_cli::runner`] core. Per cell it reports steps/sec
//! (baseline-gated in CI), the shared articles, bandwidth and downloads,
//! and the fault accounting ([`NetStats`]): grant bandwidth
//! offered/applied/lost/delayed, permanent transfer failures, timeouts and
//! re-routes.
//!
//! The headline table reports **incentive-scheme separation per fault
//! regime**: shared bandwidth under the paper's reputation scheme minus
//! the no-incentive baseline. The paper's claim holds when the separation
//! stays positive under every fault regime, not just on an ideal network.
//!
//! The cells come from [`collabsim_cli::scenarios::fault_cells`] — the
//! constructors behind the checked-in `scenarios/faults/` files, so
//! `collabsim grid scenarios/faults` runs the same cells out of process.
//!
//! Flags: `--quick` (reduced steps), `--out <path>` (default
//! `BENCH_faults.json`), `--baseline <path>` + `--max-regress <pct>`
//! (steps/sec gate, default 20 %).
//!
//! [`ScenarioSpec`]: collabsim::ScenarioSpec
//! [`NetStats`]: collabsim::NetStats

use collabsim::json::Json;
use collabsim::pipeline::PhaseRegistry;
use collabsim::ScenarioSpec;
use collabsim_bench::{write_and_gate, Args, Takes};
use collabsim_cli::runner::run_spec_instrumented;
use collabsim_cli::scenarios::{fault_cells, fault_phases, fault_regimes};

collabsim::json_struct! {
    /// One instrumented cell, with its [`NetStats`] fault accounting.
    struct FaultResult {
        label: String,
        total_steps: u64,
        steps_per_sec: f64,
        shared_articles: f64,
        shared_bandwidth: f64,
        completed_downloads: usize,
        grants_offered: f64,
        grants_applied: f64,
        grants_lost: f64,
        grants_delayed: f64,
        transfers_failed: u64,
        transfers_timed_out: u64,
        transfers_rerouted: u64,
    }
}

fn run_instrumented(spec: &ScenarioSpec) -> FaultResult {
    let (outcome, sim) = run_spec_instrumented(spec, &PhaseRegistry::standard(), |_| {})
        .expect("fault cells use only standard phases");
    let net = sim.world().net_stats;
    FaultResult {
        label: outcome.label,
        total_steps: outcome.total_steps,
        steps_per_sec: outcome.steps_per_sec,
        shared_articles: outcome.report.shared_articles,
        shared_bandwidth: outcome.report.shared_bandwidth,
        completed_downloads: outcome.report.completed_downloads,
        grants_offered: net.grants_offered,
        grants_applied: net.grants_applied,
        grants_lost: net.grants_lost,
        grants_delayed: net.grants_delayed,
        transfers_failed: net.transfers_failed,
        transfers_timed_out: net.transfers_timed_out,
        transfers_rerouted: net.transfers_rerouted,
    }
}

fn main() {
    let args = Args::from_env(&[("--quick", Takes::Nothing)]);
    let quick = args.has("--quick");

    println!(
        "collabsim — fault_grid [scale: {}]",
        if quick { "quick" } else { "full" }
    );
    println!("(fault regimes as ScenarioSpecs: registry-driven pipeline, zero engine edits)");
    println!();

    let mut results = Vec::new();
    for spec in &fault_cells(fault_phases(quick)) {
        let result = run_instrumented(spec);
        println!(
            "{:<28} steps/sec={:>9.2}  articles={:.4} bandwidth={:.4} downloads={:<6} \
             offered={:<9.1} applied={:<9.1} lost={:<8.1} delayed={:<8.1} failed={:<3} \
             timeouts={:<3} rerouted={}",
            result.label,
            result.steps_per_sec,
            result.shared_articles,
            result.shared_bandwidth,
            result.completed_downloads,
            result.grants_offered,
            result.grants_applied,
            result.grants_lost,
            result.grants_delayed,
            result.transfers_failed,
            result.transfers_timed_out,
            result.transfers_rerouted,
        );
        results.push(result);
    }

    // Headline — incentive-scheme separation per fault regime: shared
    // bandwidth under the reputation scheme minus the no-incentive
    // baseline. Positive everywhere ⇒ the scheme's differentiation
    // survives the fault regime.
    println!();
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "regime", "none", "tit-for-tat", "reputation", "separation"
    );
    let by_label = |label: &str| -> &FaultResult {
        results
            .iter()
            .find(|r| r.label == label)
            .expect("all 12 cells ran")
    };
    for (regime, _) in fault_regimes() {
        let none = by_label(&format!("faults/{regime}/none")).shared_bandwidth;
        let tft = by_label(&format!("faults/{regime}/tit-for-tat")).shared_bandwidth;
        let reputation = by_label(&format!("faults/{regime}/reputation")).shared_bandwidth;
        println!(
            "{:<12} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            regime,
            none,
            tft,
            reputation,
            reputation - none
        );
    }

    let report = Json::object([("bench", "fault_grid".into()), ("cells", results.into())]);
    if !write_and_gate(&report, "BENCH_faults.json", &args) {
        std::process::exit(1);
    }
}
