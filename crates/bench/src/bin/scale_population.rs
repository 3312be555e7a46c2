//! `scale_population` — the large-population scaling bench.
//!
//! Runs the `large_population` scenario family
//! ([`ScenarioSpec::large_population`]) at each requested population
//! tier (default: the 10⁴ / 5·10⁴ / 10⁵ family of
//! `ScenarioGrid::large_population`), measuring world-construction time,
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
//!   million-peer tier is exercised this way),
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

use collabsim::experiment::LARGE_POPULATION_TIERS;
use collabsim::pipeline::PhaseRegistry;
use collabsim::{Simulation, TimingObserver};
use collabsim_bench::{arg_value, extract_number, has_flag, peak_rss_mb};
use collabsim_cli::runner::{gate_floor, gate_rss_ceiling, run_spec_instrumented};
use collabsim_cli::scenarios::scale_tier_spec;
use std::fmt::Write as _;

struct TierResult {
    peers: usize,
    shards: usize,
    threads: usize,
    build_seconds: f64,
    total_steps: u64,
    steps_per_sec: f64,
    mean_sharing_reputation: f64,
    /// Peak RSS after the tier finished. The kernel high-water mark is
    /// process-wide and monotone, so with ascending tiers each snapshot is
    /// dominated by the largest population run so far — the figure that
    /// matters for the memory gate.
    peak_rss_mb: Option<f64>,
    phases: Vec<(String, f64)>,
}

/// Mean final sharing reputation, aggregated by parallel readers over the
/// ledger's [`LedgerView`](collabsim_reputation::sharded::LedgerView) —
/// one scoped worker per shard range, sharing the `Sync` read facade.
fn mean_sharing_reputation(sim: &Simulation) -> f64 {
    let view = sim.ledger().view();
    let shard_count = view.shard_count();
    let peers = view.len();
    let per_worker = peers.div_ceil(shard_count);
    let total: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shard_count)
            .map(|w| {
                scope.spawn(move || {
                    let start = w * per_worker;
                    let end = ((w + 1) * per_worker).min(peers);
                    (start..end)
                        .map(|p| view.sharing_reputation(p))
                        .sum::<f64>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    total / peers as f64
}

fn tiers_from_args() -> Vec<usize> {
    if let Some(list) = arg_value("--tiers") {
        let tiers: Vec<usize> = list
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .collect();
        if !tiers.is_empty() {
            return tiers;
        }
        eprintln!("--tiers {list:?} did not parse; using the default family");
    }
    if has_flag("--quick") {
        return vec![2_000];
    }
    LARGE_POPULATION_TIERS.to_vec()
}

/// Optional training/evaluation step-count overrides from the command line.
fn step_overrides() -> (Option<u64>, Option<u64>) {
    let parse = |flag: &str| arg_value(flag).and_then(|v| v.parse().ok());
    (parse("--train"), parse("--eval"))
}

fn run_tier(peers: usize, train: Option<u64>, eval: Option<u64>) -> TierResult {
    let spec = scale_tier_spec(peers, train, eval);
    let expected_eval = spec.config().phases.evaluation_steps;
    let (outcome, sim) = run_spec_instrumented(&spec, &PhaseRegistry::standard(), |_| {})
        .expect("standard phases resolve");
    assert_eq!(
        outcome.report.evaluation_steps, expected_eval,
        "evaluation length"
    );
    let timings: &TimingObserver = sim
        .observer(sim.observer_count() - 1)
        .expect("the runner attaches a timing observer last");
    let phases = timings
        .timings()
        .totals()
        .iter()
        .map(|(name, duration, _)| ((*name).to_string(), duration.as_secs_f64()))
        .collect();
    TierResult {
        peers,
        shards: sim.ledger().shard_count(),
        threads: sim.world().intra_step_threads(),
        build_seconds: outcome.build_seconds,
        total_steps: outcome.total_steps,
        steps_per_sec: outcome.steps_per_sec,
        mean_sharing_reputation: mean_sharing_reputation(&sim),
        peak_rss_mb: peak_rss_mb(),
        phases,
    }
}

fn render_json(results: &[TierResult]) -> String {
    let mut out = String::from("{\n  \"bench\": \"scale_population\",\n  \"tiers\": [\n");
    for (i, tier) in results.iter().enumerate() {
        let mut phases = String::new();
        for (j, (name, seconds)) in tier.phases.iter().enumerate() {
            let sep = if j + 1 < tier.phases.len() { ", " } else { "" };
            let _ = write!(phases, "\"{name}\": {seconds:.4}{sep}");
        }
        let mut rss = String::new();
        if let Some(mb) = tier.peak_rss_mb {
            let _ = write!(rss, "\"peak_rss_mb\": {mb:.1}, ");
        }
        let sep = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"peers\": {}, \"shards\": {}, \"threads\": {}, \"build_seconds\": {:.3}, \
             \"total_steps\": {}, \"steps_per_sec\": {:.3}, {rss}\
             \"mean_sharing_reputation\": {:.6}, \"phases\": {{{phases}}}}}{sep}",
            tier.peers,
            tier.shards,
            tier.threads,
            tier.build_seconds,
            tier.total_steps,
            tier.steps_per_sec,
            tier.mean_sharing_reputation,
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// One tier of a baseline report: peers, steps/sec, and (for baselines
/// recorded since the RSS gate landed) the peak RSS in MB.
struct BaselineTier {
    peers: usize,
    steps_per_sec: f64,
    peak_rss_mb: Option<f64>,
}

/// Parses the per-tier lines of a baseline report.
fn parse_baseline(text: &str) -> Vec<BaselineTier> {
    text.lines()
        .filter_map(|line| {
            let peers = extract_number(line, "peers")? as usize;
            let steps_per_sec = extract_number(line, "steps_per_sec")?;
            Some(BaselineTier {
                peers,
                steps_per_sec,
                peak_rss_mb: extract_number(line, "peak_rss_mb"),
            })
        })
        .collect()
}

fn check_baseline(results: &[TierResult], baseline_path: &str, max_regress_pct: f64) -> bool {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            return false;
        }
    };
    let baseline = parse_baseline(&text);
    if baseline.is_empty() {
        eprintln!("baseline {baseline_path} contains no tiers");
        return false;
    }
    let mut ok = true;
    for tier in results {
        let Some(reference) = baseline.iter().find(|b| b.peers == tier.peers) else {
            println!(
                "tier {}: no baseline entry (skipping the regression check)",
                tier.peers
            );
            continue;
        };
        let name = format!("tier {}", tier.peers);
        ok &= gate_floor(
            &name,
            tier.steps_per_sec,
            reference.steps_per_sec,
            max_regress_pct,
        );
        // The memory gate: peak RSS may grow at most as much as steps/sec
        // may shrink. Skipped when either side lacks a measurement (non-
        // procfs platform or a pre-RSS baseline).
        if let (Some(current), Some(recorded)) = (tier.peak_rss_mb, reference.peak_rss_mb) {
            ok &= gate_rss_ceiling(&name, current, recorded, max_regress_pct);
        }
    }
    ok
}

fn main() {
    let tiers = tiers_from_args();
    let (train, eval) = step_overrides();
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_scale.json".to_string());
    let max_regress: f64 = arg_value("--max-regress")
        .and_then(|v| v.parse().ok())
        .unwrap_or(20.0);

    println!("collabsim — scale_population [tiers: {tiers:?}]");
    println!("(--tiers a,b,c to override, --baseline <path> to gate on a previous run)");
    println!();

    let mut results = Vec::new();
    for &peers in &tiers {
        let tier = run_tier(peers, train, eval);
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
        for (name, seconds) in &tier.phases {
            println!("    {name:<12} {seconds:>8.3}s");
        }
        results.push(tier);
    }

    let json = render_json(&results);
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("\n(report written to {out_path})"),
        Err(e) => eprintln!("failed to write {out_path}: {e}"),
    }

    if let Some(baseline) = arg_value("--baseline") {
        println!();
        if !check_baseline(&results, &baseline, max_regress) {
            eprintln!(
                "steps/sec or peak RSS regressed more than {max_regress}% against {baseline}"
            );
            std::process::exit(1);
        }
    }
}
