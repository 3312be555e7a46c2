//! `collabsim-cli` — the command-line runner for collabsim scenarios, and
//! the shared runner core behind every perf-gated bench.
//!
//! The `collabsim` binary turns the repo from a library-with-benches into
//! a serving layer for experiment traffic:
//!
//! * **`collabsim run <spec>`** loads a [`ScenarioSpec`] text file (the
//!   exact round-trip format of
//!   [`ScenarioSpec::to_text`]), runs it with phase timings enabled,
//!   optionally streams [`StepObserver`](collabsim::StepObserver) metrics
//!   as JSON lines ([`jsonl`]), and prints a profiling summary
//!   ([`profile`]) — steps/sec plus the per-phase wall-clock breakdown.
//! * **`collabsim run --checkpoint-every N --store <dir>`** additionally
//!   writes a versioned, integrity-checked snapshot of the complete
//!   simulation state to an on-disk run store every N steps, and
//!   **`collabsim resume <snapshot>`** finishes such a run — the resumed
//!   report is byte-identical to the uninterrupted one (the determinism
//!   suite pins this). Bad snapshots exit with `error[snapshot]`, code 3.
//! * **`collabsim grid <specs...> --workers N`** dispatches cells to
//!   `collabsim worker` subprocesses through the crash-isolated
//!   [`coordinator`]: a panicking phase or a SIGKILLed worker is retried
//!   and, if it keeps dying, recorded as failed in the partial-results
//!   manifest — the sweep itself always completes. `--resume` skips
//!   cells already ok in a previous manifest; `--warm-start <snapshot>`
//!   forks every cell from a shared equilibrated checkpoint instead of
//!   paying the training phase once per cell.
//! * **`collabsim worker`** executes one cell and emits its
//!   [`RunOutcome`] as a one-line JSON result record, whose report decodes
//!   to a value equal (`==`) to the in-process one.
//! * **`collabsim scaffold`** regenerates the checked-in `scenarios/`
//!   tree from the canonical constructors in [`scenarios`] — the same
//!   constructors the six perf-gated bench binaries build their grids
//!   from.
//! * **`collabsim check`** runs the paper's claims ([`claims::CLAIMS`])
//!   over the `scenarios/paper/` cells at fixed seeds through the grid
//!   coordinator and prints one row per claim: holds, diverges or
//!   inconclusive.
//!
//! [`ScenarioSpec`]: collabsim::ScenarioSpec
//! [`ScenarioSpec::to_text`]: collabsim::ScenarioSpec::to_text

pub mod args;
pub mod chaos;
pub mod claims;
pub mod commands;
pub mod coordinator;
pub mod error;
pub mod jsonl;
pub mod profile;
pub mod runner;
pub mod scenarios;
pub mod training;

pub use args::{Command, USAGE};
pub use chaos::{cli_registry, CHAOS_PANIC_PHASE};
pub use commands::dispatch;
pub use coordinator::{
    read_result_record, run_grid, run_worker, CellOutcome, CellStatus, GridOptions, GridSummary,
    EXIT_ONCE_CODE, EXIT_ONCE_ENV, KILL_ONCE_ENV, TRUNCATE_ONCE_ENV,
};
pub use error::CliError;
pub use jsonl::{open_sink, JsonlObserver};
pub use profile::{peak_rss_mb, render_profile};
pub use runner::{
    load_spec, load_spec_with_overrides, resume_snapshot_instrumented, run_spec_checkpointed,
    run_spec_instrumented, snapshot_err, RunOutcome,
};
