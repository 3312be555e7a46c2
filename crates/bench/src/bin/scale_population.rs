//! `scale_population` — the large-population scaling bench.
//!
//! Runs the `large_population` scenario family
//! ([`ScenarioSpec::large_population`]) at each requested population
//! tier (default: the 10⁴ / 5·10⁴ / 10⁵ family of
//! [`LARGE_POPULATION_TIERS`]), measuring world-construction time,
//! end-to-end steps/sec, the per-phase wall-clock breakdown and the
//! process's peak resident set size, and writes the result as
//! `BENCH_scale.json`. Each tier runs through the shared
//! [`collabsim_cli::runner`] core, and the tier specs come from
//! [`collabsim_cli::scenarios::scale_tier_spec`] — the constructor behind
//! the checked-in `scenarios/scale/` files.
//!
//! Flags:
//!
//! * `--tiers 10000,1000000` — override the population tiers (the 10⁶
//!   million-peer tier is exercised this way); every tier's spec is built
//!   before the first run, and a population the spec refuses exits 2 with
//!   `error[invalid-flag]` naming the entry,
//! * `--train N` / `--eval N` — override the preset's training/evaluation
//!   step counts (the CI smoke leg runs the 10⁶ tier with reduced steps),
//! * `--quick` — a single reduced tier (2 000 peers) for smoke runs,
//! * `--out <path>` — output path (default `BENCH_scale.json`),
//! * `--baseline <path>` — compare steps/sec and peak RSS per tier against
//!   a previously written report and exit non-zero on a regression,
//! * `--max-regress <pct>` — tolerated steps/sec drop and tolerated peak
//!   RSS growth (default 20 %).
//!
//! The CI `perf` job runs the 10⁴ and 10⁶ tiers against the checked-in
//! baseline in `crates/bench/baselines/scale_baseline.json` and uploads
//! the fresh `BENCH_scale.json` as a build artifact.
//!
//! [`ScenarioSpec::large_population`]: collabsim::ScenarioSpec::large_population
//! [`LARGE_POPULATION_TIERS`]: collabsim_cli::scenarios::LARGE_POPULATION_TIERS

use collabsim::json::Json;
use collabsim::pipeline::PhaseRegistry;
use collabsim::{ScenarioSpec, Simulation};
use collabsim_bench::{phase_seconds, print_phases, write_and_gate, Args, Takes};
use collabsim_cli::peak_rss_mb;
use collabsim_cli::runner::run_spec_instrumented;
use collabsim_cli::scenarios::{scale_tier_spec, LARGE_POPULATION_TIERS};
use collabsim_cli::CliError;

collabsim::json_struct! {
    struct TierResult {
        peers: usize,
        shards: usize,
        threads: usize,
        build_seconds: f64,
        total_steps: u64,
        steps_per_sec: f64,
        /// Peak RSS after the tier finished (`null` without procfs). The
        /// kernel high-water mark is process-wide and monotone, so with
        /// ascending tiers each snapshot is dominated by the largest
        /// population run so far — the figure that matters for the memory
        /// gate.
        peak_rss_mb: Option<f64>,
        mean_sharing_reputation: f64,
        phases: Json,
    }
}

/// Mean final sharing reputation, aggregated by parallel readers — one
/// scoped worker per shard range, sharing the `Sync` ledger.
fn mean_sharing_reputation(sim: &Simulation) -> f64 {
    let ledger = sim.ledger();
    let shard_count = ledger.shard_count();
    let peers = ledger.len();
    let per_worker = peers.div_ceil(shard_count);
    let total: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shard_count)
            .map(|w| {
                scope.spawn(move || {
                    let start = w * per_worker;
                    let end = ((w + 1) * per_worker).min(peers);
                    (start..end)
                        .map(|p| ledger.sharing_reputation(p))
                        .sum::<f64>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    total / peers as f64
}

/// Every tier's spec, built before the first tier runs: a population the
/// spec refuses is an error naming its `--tiers` entry.
fn tier_specs(
    tiers: &[usize],
    train: Option<u64>,
    eval: Option<u64>,
) -> Result<Vec<ScenarioSpec>, CliError> {
    tiers
        .iter()
        .map(|&peers| {
            scale_tier_spec(peers, train, eval).map_err(|error| CliError::InvalidFlag {
                flag: "--tiers".to_string(),
                value: peers.to_string(),
                expected: format!("a valid population ({error})"),
            })
        })
        .collect()
}

fn run_tier(spec: &ScenarioSpec) -> TierResult {
    let peers = spec.config().population;
    let expected_eval = spec.config().phases.evaluation_steps;
    let (outcome, sim) = run_spec_instrumented(spec, &PhaseRegistry::standard(), |_| {})
        .expect("standard phases resolve");
    assert_eq!(
        outcome.report.evaluation_steps, expected_eval,
        "evaluation length"
    );
    TierResult {
        peers,
        shards: sim.ledger().shard_count(),
        threads: sim.world().intra_step_threads(),
        build_seconds: outcome.build_seconds,
        total_steps: outcome.total_steps,
        steps_per_sec: outcome.steps_per_sec,
        mean_sharing_reputation: mean_sharing_reputation(&sim),
        peak_rss_mb: peak_rss_mb(),
        phases: phase_seconds(&sim),
    }
}

fn main() {
    let args = Args::from_env(&[
        ("--tiers", Takes::Counts),
        ("--train", Takes::Count),
        ("--eval", Takes::Count),
        ("--quick", Takes::Nothing),
    ]);
    let tiers = args.list("--tiers").unwrap_or_else(|| {
        if args.has("--quick") {
            vec![2_000]
        } else {
            LARGE_POPULATION_TIERS.to_vec()
        }
    });
    let (train, eval) = (args.value("--train"), args.value("--eval"));
    let specs = tier_specs(&tiers, train, eval).unwrap_or_else(|error| {
        eprintln!("{error}");
        std::process::exit(error.exit_code());
    });

    println!("collabsim — scale_population [tiers: {tiers:?}]");
    println!("(--tiers a,b,c to override, --baseline <path> to gate on a previous run)");
    println!();

    let mut results = Vec::new();
    for spec in &specs {
        let tier = run_tier(spec);
        println!(
            "peers={:>7}  shards={:>2}  threads={}  build={:>7.2}s  steps={}  steps/sec={:>8.2}{}",
            tier.peers,
            tier.shards,
            tier.threads,
            tier.build_seconds,
            tier.total_steps,
            tier.steps_per_sec,
            tier.peak_rss_mb
                .map_or_else(String::new, |mb| format!("  peak_rss={mb:.0}MB")),
        );
        print_phases(&tier.phases);
        results.push(tier);
    }

    let report = Json::object([
        ("bench", "scale_population".into()),
        ("tiers", results.into()),
    ]);
    if !write_and_gate(&report, "BENCH_scale.json", &args) {
        std::process::exit(1);
    }
}
