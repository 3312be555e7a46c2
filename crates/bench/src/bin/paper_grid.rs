//! `paper_grid` — the paper-configuration benchmark.
//!
//! Measures the engine on the paper's own headline workload, in two parts:
//!
//! 1. **The paper cell** — 100 peers × 12 000 steps (10 000 training +
//!    2 000 evaluation) at the default download rate of one attempted
//!    download per peer per step, i.e. the download/bandwidth-competition-
//!    dominated configuration. Runs single-cell through the shared
//!    [`collabsim_cli::runner`] core, which times every phase with a
//!    [`TimingObserver`](collabsim::TimingObserver); its steps/sec is the
//!    CI-gated number.
//! 2. **The 18-cell grid** — the Section IV-B mix sweeps behind Figures 4
//!    and 5 (9 altruistic-share points + 9 irrational-share points),
//!    executed through the parallel [`ScenarioRunner`]; reported as grid
//!    cells/sec and aggregate steps/sec.
//!
//! The cell specs come from [`collabsim_cli::scenarios`] — the same
//! constructors behind the checked-in `scenarios/paper/` files. Those
//! files hold the grid at the full paper length (what
//! `--paper-grid-steps` runs), so `collabsim grid scenarios/paper/mix`
//! runs that grid out of process, and `collabsim check` reads it.
//!
//! Flags:
//!
//! * `--quick` — shorten both parts for smoke runs,
//! * `--paper-grid-steps` — run the grid cells at the full 12 000-step
//!   paper length too (default: shortened grid so the binary stays
//!   CI-sized; the gated paper cell is always full length),
//! * `--out <path>` — output path (default `BENCH_paper.json`),
//! * `--baseline <path>` — compare the paper cell's steps/sec against a
//!   previously written report and exit non-zero on a regression,
//! * `--max-regress <pct>` — tolerated steps/sec drop (default 20 %).
//!
//! The CI `perf` job gates against the checked-in baseline in
//! `crates/bench/baselines/paper_baseline.json` and uploads the fresh
//! `BENCH_paper.json` as a build artifact.

use collabsim::experiment::ScenarioRunner;
use collabsim::json::Json;
use collabsim::pipeline::PhaseRegistry;
use collabsim_bench::{has_flag, phase_seconds, print_phases, write_and_gate};
use collabsim_cli::runner::run_spec_instrumented;
use collabsim_cli::scenarios::{
    paper_cell_phases, paper_cell_spec, paper_mix_cells, paper_mix_phases,
};
use std::time::Instant;

collabsim::json_struct! {
    struct PaperCellResult {
        peers: usize,
        total_steps: u64,
        build_seconds: f64,
        steps_per_sec: f64,
        completed_downloads: usize,
        transfer_slots: usize,
        phases: Json,
    }
}

collabsim::json_struct! {
    struct GridResult {
        cells: usize,
        steps_per_cell: u64,
        seconds: f64,
        cells_per_sec: f64,
        aggregate_steps_per_sec: f64,
    }
}

fn run_paper_cell(quick: bool) -> PaperCellResult {
    let spec = paper_cell_spec(paper_cell_phases(quick));
    let (outcome, sim) = run_spec_instrumented(&spec, &PhaseRegistry::standard(), |_| {})
        .expect("paper cell resolves against the standard registry");
    PaperCellResult {
        peers: spec.config().population,
        total_steps: outcome.total_steps,
        build_seconds: outcome.build_seconds,
        steps_per_sec: outcome.steps_per_sec,
        completed_downloads: outcome.report.completed_downloads,
        transfer_slots: sim.world().transfers.slot_count(),
        phases: phase_seconds(&sim),
    }
}

fn run_grid(quick: bool, full_grid_steps: bool) -> GridResult {
    let phases = paper_mix_phases(quick, full_grid_steps);
    let steps_per_cell = phases.total_steps();
    let cells = paper_mix_cells(phases);
    let cell_count = cells.len();
    let running = Instant::now();
    let reports = ScenarioRunner::default()
        .run_specs(cells)
        .expect("grid specs use registered phases");
    let seconds = running.elapsed().as_secs_f64();
    assert_eq!(reports.len(), cell_count, "one report per grid cell");
    GridResult {
        cells: cell_count,
        steps_per_cell,
        seconds,
        cells_per_sec: cell_count as f64 / seconds,
        aggregate_steps_per_sec: (cell_count as u64 * steps_per_cell) as f64 / seconds,
    }
}

fn main() {
    let quick = has_flag("--quick");
    let full_grid_steps = has_flag("--paper-grid-steps");

    println!(
        "collabsim — paper_grid [{}]",
        if quick { "quick" } else { "paper scale" }
    );
    println!("(--quick for a smoke run, --baseline <path> to gate on a previous run)");
    println!();

    let cell = run_paper_cell(quick);
    println!(
        "paper cell: peers={}  steps={}  build={:.3}s  steps/sec={:.2}  downloads={}  transfer_slots={}",
        cell.peers,
        cell.total_steps,
        cell.build_seconds,
        cell.steps_per_sec,
        cell.completed_downloads,
        cell.transfer_slots,
    );
    print_phases(&cell.phases);

    let grid = run_grid(quick, full_grid_steps);
    println!(
        "mix grid:   cells={}  steps/cell={}  wall={:.2}s  cells/sec={:.2}  aggregate steps/sec={:.2}",
        grid.cells, grid.steps_per_cell, grid.seconds, grid.cells_per_sec, grid.aggregate_steps_per_sec,
    );

    let report = Json::object([
        ("bench", "paper_grid".into()),
        ("paper_cell", cell.into()),
        ("grid", grid.into()),
    ]);
    if !write_and_gate(&report, "BENCH_paper.json") {
        std::process::exit(1);
    }
}
