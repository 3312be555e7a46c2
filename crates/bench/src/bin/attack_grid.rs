//! `attack_grid` — the adversary robustness grid, written as
//! `BENCH_attacks.json`.
//!
//! Sweeps the five built-in attack strategies across (a) the reputation
//! *source* feeding service differentiation — the globally visible ledger
//! vs each of the three propagation backends (EigenTrust, gossip, MaxFlow)
//! under `reputation_source = propagated` — all under the paper's
//! reputation scheme, and (b) the incentive-scheme axis (none,
//! tit-for-tat) under the ledger source. The cell specs come from
//! [`collabsim_cli::scenarios::attack_cells`] — the constructors behind
//! the checked-in `scenarios/attacks/` files — and every cell runs
//! through the shared [`collabsim_cli::runner`] core with an
//! [`AttackMetricsObserver`] attached, reporting:
//!
//! * **damage** — bandwidth the attackers extracted during measurement and
//!   destructive edits they got accepted,
//! * **retention** — mean sharing reputation the attackers held,
//! * **resets** — whitewashes performed and reputation shed per reset,
//! * **detection** — first step the punishment machinery revoked a right,
//!   plus vote/edit revocation counts.
//!
//! The headline comparison (the adversary-subsystem acceptance criterion)
//! pits `adaptive-whitewash` against `naive-whitewash` under the ledger
//! source: the adaptive variant must retain more reputation and dodge the
//! malicious-editor punishment at a comparable reset volume.
//!
//! Flags: `--quick` (reduced scale), `--out <path>` (default
//! `BENCH_attacks.json`), `--baseline <path>` + `--max-regress <pct>`
//! (aggregate steps/sec gate, default 20 %).

use collabsim::adversary::AttackMetricsObserver;
use collabsim::json::Json;
use collabsim::pipeline::PhaseRegistry;
use collabsim::{MemStore, RunStore, ScenarioSpec, Simulation};
use collabsim_bench::{write_and_gate, Args, Takes};
use collabsim_cli::runner::run_spec_instrumented;
use collabsim_cli::scenarios::{attack_cells, attack_scale, AttackCell, ATTACK_STRATEGIES};
use std::fmt::Write as _;
use std::time::Instant;

collabsim::json_struct! {
    struct CellResult {
        label: String,
        strategy: String,
        backend: String,
        scheme: String,
        total_steps: u64,
        steps_per_sec: f64,
        damage_bandwidth: f64,
        destructive_accepted: u64,
        mean_reputation_retained: f64,
        resets: u64,
        shed_per_reset: f64,
        vote_revocations: u64,
        edit_revocations: u64,
        first_detection_step: Option<u64>,
    }
}

fn run_cell(cell: &AttackCell) -> CellResult {
    let (outcome, sim) = run_spec_instrumented(&cell.spec, &PhaseRegistry::standard(), |sim| {
        sim.add_observer(AttackMetricsObserver::new());
    })
    .expect("attack strategies are registered");
    let stats = *sim.world().adversaries.units()[0].stats();
    let observer: &AttackMetricsObserver = sim.observer(0).expect("attached above");
    let metrics = &observer.metrics()[0];
    CellResult {
        label: outcome.label,
        strategy: cell.strategy.to_string(),
        backend: cell.source.label().to_string(),
        scheme: cell.scheme.label().to_string(),
        total_steps: outcome.total_steps,
        steps_per_sec: outcome.steps_per_sec,
        damage_bandwidth: metrics.damage_bandwidth,
        destructive_accepted: metrics.destructive_accepted,
        mean_reputation_retained: metrics.mean_reputation_retained(),
        resets: stats.resets,
        shed_per_reset: stats.shed_per_reset(),
        vote_revocations: metrics.vote_revocations,
        edit_revocations: metrics.edit_revocations,
        first_detection_step: metrics.first_detection,
    }
}

collabsim::json_struct! {
    /// Measured outcome of the warm-start fork experiment: the shared
    /// equilibration checkpoint vs re-equilibrating every strategy cell.
    #[derive(Clone, Copy)]
    struct WarmStartReport {
        cells: usize,
        equilibration_seconds: f64,
        warm_seconds: f64,
        cold_seconds: f64,
        /// Wall-clock the shared checkpoint saved over per-cell
        /// equilibration.
        wall_seconds_saved: f64,
        identical: bool,
    }
}

/// Equilibrates the adversary-free base population once, forks every
/// ledger-source strategy cell from the shared checkpoint (routed through
/// a [`MemStore`], so the fork pays the full encode/decode round-trip a
/// grid coordinator would), and cross-checks each warm report against a
/// cold run that re-equilibrates from scratch — the two must be equal,
/// and the difference in wall-clock is the saving the shared checkpoint
/// buys.
fn warm_start_experiment(cells: &[AttackCell]) -> WarmStartReport {
    let strategy_cells: Vec<&AttackCell> = cells
        .iter()
        .filter(|c| c.source.label() == "ledger" && c.scheme.label() == "reputation")
        .collect();
    let mut base_config = strategy_cells[0].spec.config().clone();
    base_config.adversaries.clear();
    let base = ScenarioSpec::from_config(base_config).expect("base config is valid");

    let equilibrating = Instant::now();
    let mut base_sim = Simulation::from_spec(&base).expect("base spec resolves");
    base_sim.run_training();
    let checkpoint = base_sim.snapshot(&base);
    let equilibration_seconds = equilibrating.elapsed().as_secs_f64();

    let mut store = MemStore::new();
    let warming = Instant::now();
    let mut warm_reports = Vec::new();
    for cell in &strategy_cells {
        let fork = checkpoint.with_spec(&cell.spec);
        let key = store.put(&fork).expect("mem store accepts the fork");
        let fetched = store.get(&key).expect("stored fork reads back");
        let mut sim = Simulation::resume_from(&fetched).expect("fork resumes");
        warm_reports.push(sim.finish());
    }
    let warm_seconds = warming.elapsed().as_secs_f64();

    let chilling = Instant::now();
    let mut identical = true;
    for (cell, warm) in strategy_cells.iter().zip(&warm_reports) {
        let mut fresh = Simulation::from_spec(&base).expect("base spec resolves");
        fresh.run_training();
        let fork = fresh.snapshot(&base).with_spec(&cell.spec);
        let mut sim = Simulation::resume_from(&fork).expect("fork resumes");
        let cold = sim.finish();
        if &cold != warm {
            identical = false;
            eprintln!(
                "warm-start mismatch for `{}`:\n  warm: {warm:?}\n  cold: {cold:?}",
                cell.spec.label()
            );
        }
    }
    let cold_seconds = chilling.elapsed().as_secs_f64();

    WarmStartReport {
        cells: strategy_cells.len(),
        equilibration_seconds,
        warm_seconds,
        cold_seconds,
        wall_seconds_saved: cold_seconds - (equilibration_seconds + warm_seconds),
        identical,
    }
}

fn main() {
    let args = Args::from_env(&[("--quick", Takes::Nothing)]);
    let quick = args.has("--quick");
    let scale = attack_scale(quick);

    println!(
        "collabsim — attack_grid [scale: {}]",
        if quick { "quick" } else { "full" }
    );
    println!(
        "(strategy × reputation-source × incentive robustness grid, {} peers, {} attackers/cell)",
        scale.population, scale.adversaries
    );
    println!();

    let cells = attack_cells(&scale);
    let mut results = Vec::new();
    let mut total_steps = 0u64;
    let grid_started = Instant::now();
    for cell in &cells {
        let result = run_cell(cell);
        total_steps += result.total_steps;
        results.push(result);
    }
    let total_steps_per_sec = total_steps as f64 / grid_started.elapsed().as_secs_f64();

    println!(
        "{:<46} {:>9} {:>8} {:>9} {:>6} {:>9} {:>8}",
        "cell", "damage", "dstr-acc", "retained", "resets", "shed/rst", "detect"
    );
    for r in &results {
        println!(
            "{:<46} {:>9.1} {:>8} {:>9.4} {:>6} {:>9.4} {:>8}",
            r.label,
            r.damage_bandwidth,
            r.destructive_accepted,
            r.mean_reputation_retained,
            r.resets,
            r.shed_per_reset,
            r.first_detection_step
                .map_or("never".to_string(), |s| format!("@{s}")),
        );
    }
    println!();

    // Headline: adaptive vs naive whitewashing under the ledger source.
    let find = |strategy: &str, backend: &str, scheme: &str| {
        results
            .iter()
            .find(|r| r.strategy == strategy && r.backend == backend && r.scheme == scheme)
            .expect("grid covers the headline cells")
    };
    let adaptive = find("adaptive-whitewash", "ledger", "reputation");
    let naive = find("naive-whitewash", "ledger", "reputation");
    println!(
        "headline: adaptive-whitewash retains {:.4} over {} resets ({} edit revocations) vs \
         naive {:.4} over {} resets ({} edit revocations)",
        adaptive.mean_reputation_retained,
        adaptive.resets,
        adaptive.edit_revocations,
        naive.mean_reputation_retained,
        naive.resets,
        naive.edit_revocations,
    );
    let beats = adaptive.mean_reputation_retained > naive.mean_reputation_retained
        && adaptive.edit_revocations < naive.edit_revocations;
    println!(
        "          adaptive timing {} naive stochastic whitewashing",
        if beats { "beats" } else { "DOES NOT BEAT" }
    );

    // Robustness ranking: which reputation source limited attacker damage
    // most, per strategy (lower damage + lower retention = more robust).
    println!();
    println!("robustness (reputation scheme): per-strategy damage by source");
    for &(strategy, _) in &ATTACK_STRATEGIES {
        let mut row = format!("  {strategy:<24}");
        for cell in results
            .iter()
            .filter(|r| r.strategy == strategy && r.scheme == "reputation")
        {
            let _ = write!(row, " {}={:.0}", cell.backend, cell.damage_bandwidth);
        }
        println!("{row}");
    }

    // Warm-start fork experiment: equilibrate the base population once,
    // fork every ledger-source strategy cell from the shared checkpoint,
    // and report the wall-clock the checkpoint saved over cold runs.
    println!();
    let warm = warm_start_experiment(&cells);
    println!(
        "warm start: equilibrated the base population once in {:.2}s; {} strategy cells \
         forked warm in {:.2}s",
        warm.equilibration_seconds, warm.cells, warm.warm_seconds
    );
    println!(
        "            cold runs (per-cell equilibration) took {:.2}s — {:.2}s wall-clock saved",
        warm.cold_seconds, warm.wall_seconds_saved
    );
    println!(
        "            warm ≡ cold: cell reports {}",
        if warm.identical {
            "identical"
        } else {
            "DIFFER"
        }
    );

    let report = Json::object([
        ("bench", "attack_grid".into()),
        ("cells", results.into()),
        ("warm_start", warm.into()),
        ("total_steps_per_sec", total_steps_per_sec.into()),
    ]);
    let gated = write_and_gate(&report, "BENCH_attacks.json", &args);
    if !beats {
        eprintln!("acceptance violated: adaptive-whitewash must beat naive-whitewash");
        std::process::exit(1);
    }
    if !warm.identical {
        eprintln!("acceptance violated: warm-started cells must match cold runs exactly");
        std::process::exit(1);
    }
    if !gated {
        std::process::exit(1);
    }
}
