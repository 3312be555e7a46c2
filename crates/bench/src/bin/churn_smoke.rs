//! `churn_smoke` — the churn scenario bench: steps/sec plus re-entry
//! reputation-persistence statistics, written as `BENCH_churn.json`.
//!
//! Three churn regimes (background churn, whitewash-heavy, combined),
//! expressed as [`ScenarioSpec`]s, each run through the shared
//! [`collabsim_cli::runner`] core with a [`ChurnTimelineObserver`]. Per
//! regime it reports steps/sec (baseline-gated in CI) and the persistence
//! stats: mean sharing reputation observed at re-entry (above `R_min` ⇒
//! reputation survives absences) and mean reputation shed per whitewash
//! (what the adversary pays).
//!
//! The regimes come from [`collabsim_cli::scenarios::churn_regimes`] — the
//! constructors behind the checked-in `scenarios/churn/` files, so
//! `collabsim grid scenarios/churn` runs the same cells out of process.
//!
//! Flags: `--quick` (reduced steps), `--out <path>` (default
//! `BENCH_churn.json`), `--baseline <path>` + `--max-regress <pct>`
//! (steps/sec gate, default 20 %).
//!
//! [`ScenarioSpec`]: collabsim::ScenarioSpec

use collabsim::json::Json;
use collabsim::observer::ChurnTimelineObserver;
use collabsim::pipeline::PhaseRegistry;
use collabsim::ScenarioSpec;
use collabsim_bench::{write_and_gate, Args, Takes};
use collabsim_cli::runner::run_spec_instrumented;
use collabsim_cli::scenarios::{churn_phases, churn_regimes};

collabsim::json_struct! {
    struct ChurnResult {
        label: String,
        total_steps: u64,
        steps_per_sec: f64,
        shared_articles: f64,
        shared_bandwidth: f64,
        completed_downloads: usize,
        joins: u64,
        leaves: u64,
        whitewashes: u64,
        mean_reentry_reputation: f64,
        mean_whitewash_shed: f64,
        online_final: usize,
    }
}

fn run_instrumented(spec: &ScenarioSpec) -> ChurnResult {
    let (outcome, sim) = run_spec_instrumented(spec, &PhaseRegistry::standard(), |sim| {
        sim.add_observer(ChurnTimelineObserver::new());
    })
    .expect("churn phase is registered");
    let stats = sim.world().churn_stats;
    let timeline: &ChurnTimelineObserver = sim.observer(0).expect("attached above");
    assert_eq!(timeline.timeline().len() as u64, outcome.total_steps);
    ChurnResult {
        label: outcome.label,
        total_steps: outcome.total_steps,
        steps_per_sec: outcome.steps_per_sec,
        shared_articles: outcome.report.shared_articles,
        shared_bandwidth: outcome.report.shared_bandwidth,
        completed_downloads: outcome.report.completed_downloads,
        joins: stats.joins,
        leaves: stats.leaves,
        whitewashes: stats.whitewashes,
        mean_reentry_reputation: stats.mean_reentry_reputation(),
        mean_whitewash_shed: stats.mean_whitewash_shed(),
        online_final: sim.world().peers.online().count(),
    }
}

fn main() {
    let args = Args::from_env(&[("--quick", Takes::Nothing)]);
    let quick = args.has("--quick");

    println!(
        "collabsim — churn_smoke [scale: {}]",
        if quick { "quick" } else { "full" }
    );
    println!("(churn scenarios as ScenarioSpecs: registry-driven pipeline, zero engine edits)");
    println!();

    let mut results = Vec::new();
    for spec in &churn_regimes(churn_phases(quick)) {
        let result = run_instrumented(spec);
        println!(
            "{:<22} steps/sec={:>9.2}  articles={:.4} bandwidth={:.4} downloads={:<6} \
             joins={:<4} leaves={:<4} whitewashes={:<4} reentry-R={:.4} shed-R={:.4} online={}",
            result.label,
            result.steps_per_sec,
            result.shared_articles,
            result.shared_bandwidth,
            result.completed_downloads,
            result.joins,
            result.leaves,
            result.whitewashes,
            result.mean_reentry_reputation,
            result.mean_whitewash_shed,
            result.online_final,
        );
        results.push(result);
    }

    let report = Json::object([("bench", "churn_smoke".into()), ("cells", results.into())]);
    if !write_and_gate(&report, "BENCH_churn.json", &args) {
        std::process::exit(1);
    }
}
