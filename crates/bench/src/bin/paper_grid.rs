//! `paper_grid` — the paper-configuration benchmark.
//!
//! Measures the engine on the paper's own headline workload: 100 peers ×
//! 12 000 steps (10 000 training + 2 000 evaluation) at the default
//! download rate of one attempted download per peer per step, i.e. the
//! download/bandwidth-competition-dominated configuration. The cell runs
//! through the shared [`collabsim_cli::runner`] core, which times every
//! phase with a [`TimingObserver`](collabsim::TimingObserver); its
//! steps/sec is the CI-gated number.
//!
//! The cell spec comes from [`collabsim_cli::scenarios::paper_cell_spec`],
//! the constructor behind the checked-in `scenarios/paper/paper_cell.spec`.
//! The Section IV-B mix grid behind Figures 4 and 5 runs out of process:
//! `collabsim grid scenarios/paper/mix` runs it, and `collabsim check`
//! reads it.
//!
//! Flags:
//!
//! * `--quick` — a 1 000 + 500-step cell for smoke runs,
//! * `--out <path>` — output path (default `BENCH_paper.json`),
//! * `--baseline <path>` — compare the paper cell's steps/sec against a
//!   previously written report and exit non-zero on a regression,
//! * `--max-regress <pct>` — tolerated steps/sec drop (default 20 %).
//!
//! The CI `perf` job gates against the checked-in baseline in
//! `crates/bench/baselines/paper_baseline.json` and uploads the fresh
//! `BENCH_paper.json` as a build artifact.

use collabsim::json::Json;
use collabsim::pipeline::PhaseRegistry;
use collabsim_bench::{phase_seconds, print_phases, write_and_gate, Args, Takes};
use collabsim_cli::runner::run_spec_instrumented;
use collabsim_cli::scenarios::{paper_cell_phases, paper_cell_spec};

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

fn main() {
    let args = Args::from_env(&[("--quick", Takes::Nothing)]);
    let quick = args.has("--quick");

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

    let report = Json::object([("bench", "paper_grid".into()), ("paper_cell", cell.into())]);
    if !write_and_gate(&report, "BENCH_paper.json", &args) {
        std::process::exit(1);
    }
}
