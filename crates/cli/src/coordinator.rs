//! The process-level grid coordinator and the worker cell executor.
//!
//! `collabsim grid` writes every cell's spec to disk, dispatches cells to
//! `collabsim worker` subprocesses (at most `--workers` in flight), and
//! collects one result record per cell. A worker that crashes — a
//! panicking phase, an OOM kill, a stray SIGKILL — is *absorbed*: the
//! cell is re-queued up to `--retries` times — after an exponential
//! backoff, so a transiently overloaded machine gets room to recover —
//! and, if it keeps dying, recorded as `failed` in the partial-results
//! manifest together with the tail of the final attempt's worker log.
//! The sweep always completes; no cell can take it down.
//!
//! A worker's result record is its [`RunOutcome`] as one line of JSON,
//! and the manifest is a JSON value too; both are read back with the
//! strict parser of [`collabsim::json`], so the report a worker computed
//! decodes to a value equal (`==`) to the in-process one.

use crate::error::CliError;
use crate::runner::RunOutcome;
use collabsim::json::{FromJson, Json};
use collabsim::observer::WorldView;
use collabsim::pipeline::StepContext;
use collabsim::snapshot::read_snapshot_file;
use collabsim::{ScenarioSpec, StepObserver};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Reads a worker's result record; `None` for a missing, torn or
/// malformed one (a worker killed mid-write never produces a parseable
/// record, so the coordinator treats it as a crash).
pub fn read_result_record(path: &Path) -> Option<RunOutcome> {
    let text = std::fs::read_to_string(path).ok()?;
    RunOutcome::from_json(&Json::parse(&text).ok()?).ok()
}

/// Environment variable naming a marker file for the deterministic
/// crash-injection test: the first worker to claim the marker (atomic
/// `create_new`) SIGKILLs itself mid-run; every later worker — including
/// the retry of the killed cell — sees the marker and runs normally.
pub const KILL_ONCE_ENV: &str = "COLLABSIM_TEST_KILL_ONCE";

/// Environment variable naming a marker file for the deterministic
/// truncation-injection test: the first worker to claim the marker writes
/// only the front half of its result record's bytes (a torn write that
/// does not parse) and exits 0. The coordinator
/// must detect the unparseable record, re-queue the cell, and the retry —
/// which sees the marker taken — completes normally.
pub const TRUNCATE_ONCE_ENV: &str = "COLLABSIM_TEST_TRUNCATE_ONCE";

/// Environment variable naming a marker file for the deterministic
/// nonzero-exit injection test: the first worker to claim the marker
/// exits with [`EXIT_ONCE_CODE`] before running its cell. The
/// coordinator must classify this as a worker failure *with* an exit
/// code (`failure_kind = "worker-exit"`), distinct from a torn record
/// behind a clean exit.
pub const EXIT_ONCE_ENV: &str = "COLLABSIM_TEST_EXIT_ONCE";

/// The exit code the [`EXIT_ONCE_ENV`]-injected worker dies with.
pub const EXIT_ONCE_CODE: i32 = 41;

/// Claims the one-shot injection marker the environment variable `env`
/// names: only the first worker to create the file (an atomic
/// `create_new`) gets `true`, so a retry runs normally.
fn claim_marker(env: &str) -> bool {
    let Ok(marker) = std::env::var(env) else {
        return false;
    };
    std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(marker)
        .is_ok()
}

/// Observer that kills the worker process mid-run (test crash injection).
struct KillOnceObserver {
    at_step: u64,
}

impl StepObserver for KillOnceObserver {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_step_end(&mut self, world: WorldView<'_>, _ctx: &StepContext) {
        if world.now() == self.at_step {
            sigkill_self();
        }
    }
}

fn sigkill_self() {
    let pid = std::process::id().to_string();
    let _ = Command::new("kill").args(["-9", &pid]).status();
    // `kill` missing from PATH still has to produce a crash exit.
    std::process::abort();
}

/// The `collabsim worker` entry point: runs one spec file through the
/// shared runner core (CLI registry, timings enabled) and writes its
/// result record to `out_path` — atomically, via a rename, so a partial
/// record can never be mistaken for a result.
///
/// With `warm_start`, the cell does not run from step 0: the snapshot is
/// re-specced onto the cell's spec ([`Snapshot::with_spec`]) and only the
/// remaining protocol is executed — the same equilibrated prefix shared
/// by every cell of a warm-started sweep. A corrupt, missing or
/// incompatible snapshot exits with the CLI's `error[snapshot]` code.
///
/// [`Snapshot::with_spec`]: collabsim::Snapshot::with_spec
pub fn run_worker(
    spec_path: &Path,
    out_path: &Path,
    warm_start: Option<&Path>,
) -> Result<(), CliError> {
    if claim_marker(EXIT_ONCE_ENV) {
        // Nonzero-exit injection: die with a recognisable code before
        // doing any work — no result record, no torn write, just the
        // plain "worker process reported failure" path.
        eprintln!("injected nonzero exit (code {EXIT_ONCE_CODE})");
        std::process::exit(EXIT_ONCE_CODE);
    }
    let spec = crate::runner::load_spec(spec_path)?;
    let kill = claim_marker(KILL_ONCE_ENV).then(|| KillOnceObserver {
        at_step: (spec.config().phases.total_steps() / 2).max(1),
    });
    let registry = crate::chaos::cli_registry();
    let configure = |sim: &mut collabsim::Simulation| {
        if let Some(observer) = kill {
            sim.add_observer(observer);
        }
    };
    // A warm start forks the snapshot onto the cell's own spec, so the
    // outcome carries the cell's label and parameter either way.
    let (outcome, _sim) = match warm_start {
        Some(snapshot_path) => {
            let base = read_snapshot_file(snapshot_path)
                .map_err(|error| crate::runner::snapshot_err(Some(snapshot_path), error))?;
            crate::runner::resume_snapshot_instrumented(
                &base.with_spec(&spec),
                &registry,
                configure,
            )?
        }
        None => crate::runner::run_spec_instrumented(&spec, &registry, configure)?,
    };
    let record = format!("{}\n", Json::from(outcome));
    let io_err = |e: std::io::Error| CliError::Io {
        path: out_path.to_path_buf(),
        message: e.to_string(),
    };
    if claim_marker(TRUNCATE_ONCE_ENV) {
        // Torn-write injection: land the front half of the record's bytes
        // at the final path, bypassing the tmp+rename discipline, and
        // report success — the worst case the atomic rename normally
        // rules out.
        std::fs::write(out_path, &record.as_bytes()[..record.len() / 2]).map_err(io_err)?;
        return Ok(());
    }
    let tmp = out_path.with_extension("tmp");
    std::fs::write(&tmp, &record).map_err(io_err)?;
    std::fs::rename(&tmp, out_path).map_err(io_err)?;
    Ok(())
}

/// Coordinator configuration for one grid sweep.
pub struct GridOptions {
    /// Maximum worker subprocesses in flight.
    pub workers: usize,
    /// Crash re-queues allowed per cell before it is marked failed.
    pub retries: usize,
    /// Output directory (cell specs, result records, worker logs, the
    /// manifest).
    pub out_dir: PathBuf,
    /// The `collabsim` binary to spawn workers from (normally
    /// `std::env::current_exe()`).
    pub worker_bin: PathBuf,
    /// Suppress per-cell progress lines on stdout.
    pub quiet: bool,
    /// Snapshot every cell forks from instead of running from step 0
    /// (passed to each worker as `--warm-start`).
    pub warm_start: Option<PathBuf>,
    /// Skip cells already recorded ok in an existing `manifest.json`
    /// under the output directory; re-dispatch only failed/missing ones.
    pub resume: bool,
}

/// Terminal state of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// The cell produced a result record.
    Ok,
    /// Every attempt crashed.
    Failed,
}

/// One cell's entry in the manifest.
#[derive(Debug)]
pub struct CellOutcome {
    /// Position in the dispatched grid.
    pub index: usize,
    /// Cell label.
    pub label: String,
    /// Worker attempts consumed (> 1 means the cell was retried).
    pub attempts: usize,
    /// Terminal state.
    pub status: CellStatus,
    /// The parsed result record, when `status` is [`CellStatus::Ok`].
    pub result: Option<RunOutcome>,
    /// Why the last attempt failed, when `status` is
    /// [`CellStatus::Failed`].
    pub failure: Option<String>,
    /// Machine-readable failure class, when `status` is
    /// [`CellStatus::Failed`]: `"torn-record"` (the worker exited 0 but
    /// its result record is missing or unparseable), `"worker-exit"`
    /// (non-zero exit code — see `exit_code`) or `"signal"` (killed
    /// without an exit code).
    pub failure_kind: Option<&'static str>,
    /// The worker's exit code on the final attempt, when it exited
    /// normally with a non-zero code.
    pub exit_code: Option<i32>,
    /// Last lines of the final attempt's worker log, when `status` is
    /// [`CellStatus::Failed`] — the panic message or whatever the worker
    /// said before dying, inlined so the manifest is self-diagnosing.
    pub log_tail: Vec<String>,
}

impl CellOutcome {
    fn ok(index: usize, label: String, attempts: usize, result: RunOutcome) -> Self {
        CellOutcome {
            index,
            label,
            attempts,
            status: CellStatus::Ok,
            result: Some(result),
            failure: None,
            failure_kind: None,
            exit_code: None,
            log_tail: Vec::new(),
        }
    }
}

/// Lines of worker log kept per failed cell.
const LOG_TAIL_LINES: usize = 5;

/// First-retry backoff; doubles per subsequent attempt of the same cell.
const RETRY_BACKOFF_BASE_MS: u64 = 50;

/// Exponent cap keeping the backoff under ~2 s however high `--retries`.
const RETRY_BACKOFF_MAX_DOUBLINGS: u32 = 5;

/// Backoff before re-queueing a cell whose `failed_attempts`th attempt
/// just crashed: 50 ms, 100 ms, 200 ms, … capped at 1.6 s.
fn retry_backoff(failed_attempts: usize) -> Duration {
    let doublings = (failed_attempts.saturating_sub(1) as u32).min(RETRY_BACKOFF_MAX_DOUBLINGS);
    Duration::from_millis(RETRY_BACKOFF_BASE_MS << doublings)
}

/// Last [`LOG_TAIL_LINES`] lines of a worker log (empty when the log is
/// missing or empty — a SIGKILL leaves nothing behind).
fn read_log_tail(path: &Path) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let lines: Vec<&str> = text.lines().collect();
    let start = lines.len().saturating_sub(LOG_TAIL_LINES);
    lines[start..].iter().map(|line| line.to_string()).collect()
}

/// The completed sweep: every cell resolved, one way or the other.
#[derive(Debug)]
pub struct GridSummary {
    /// Per-cell outcomes, in dispatch order.
    pub cells: Vec<CellOutcome>,
    /// Where the manifest was written.
    pub manifest_path: PathBuf,
    /// End-to-end wall-clock of the sweep.
    pub wall_seconds: f64,
}

impl GridSummary {
    /// Cells that completed.
    pub fn ok_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.status == CellStatus::Ok)
            .count()
    }

    /// Cells that exhausted their retries.
    pub fn failed_count(&self) -> usize {
        self.cells.len() - self.ok_count()
    }

    /// Worker attempts consumed across the sweep.
    pub fn total_attempts(&self) -> usize {
        self.cells.iter().map(|c| c.attempts).sum()
    }
}

fn describe_exit(status: &std::process::ExitStatus) -> String {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(signal) = status.signal() {
            return format!("killed by signal {signal}");
        }
    }
    match status.code() {
        Some(code) => format!("exit code {code}"),
        None => "unknown exit status".to_string(),
    }
}

/// Runs `specs` as a crash-isolated multi-process sweep and writes
/// `manifest.json` under the output directory. Individual cell failures
/// never fail the sweep — callers inspect the summary (or pass the CLI's
/// `--strict`) to turn failures into a non-zero exit.
pub fn run_grid(specs: &[ScenarioSpec], options: &GridOptions) -> Result<GridSummary, CliError> {
    if options.workers == 0 {
        return Err(CliError::InvalidFlag {
            flag: "--workers".into(),
            value: "0".into(),
            expected: "a worker count ≥ 1".into(),
        });
    }
    let grid_err = |message: String| CliError::Grid { message };
    let cells_dir = options.out_dir.join("cells");
    let results_dir = options.out_dir.join("results");
    let logs_dir = options.out_dir.join("logs");
    for dir in [&cells_dir, &results_dir, &logs_dir] {
        std::fs::create_dir_all(dir).map_err(|e| CliError::Io {
            path: dir.clone(),
            message: e.to_string(),
        })?;
    }

    let total = specs.len();
    let mut spec_paths = Vec::with_capacity(total);
    let mut result_paths = Vec::with_capacity(total);
    for (i, spec) in specs.iter().enumerate() {
        let spec_path = cells_dir.join(format!("{i:03}.spec"));
        std::fs::write(&spec_path, spec.to_text()).map_err(|e| CliError::Io {
            path: spec_path.clone(),
            message: e.to_string(),
        })?;
        spec_paths.push(spec_path);
        result_paths.push(results_dir.join(format!("{i:03}.result")));
    }

    let started = Instant::now();
    let mut attempts = vec![0usize; total];
    let mut outcomes: Vec<Option<CellOutcome>> = Vec::with_capacity(total);
    outcomes.resize_with(total, || None);
    let mut completed = 0usize;

    // `--resume`: trust a cell from the previous sweep only when the old
    // manifest says ok, its result record still parses, and the record's
    // label matches the spec we would dispatch — anything less (missing,
    // torn, relabelled) is re-dispatched like a fresh cell.
    if options.resume {
        for (i, prior_attempts) in manifest_ok_cells(&options.out_dir.join("manifest.json")) {
            if i >= total || outcomes[i].is_some() {
                continue;
            }
            let Some(result) = read_result_record(&result_paths[i]) else {
                continue;
            };
            if result.label != specs[i].label() {
                continue;
            }
            completed += 1;
            if !options.quiet {
                println!(
                    "[{completed}/{total}] {} — skipped (already ok in manifest)",
                    result.label
                );
            }
            outcomes[i] = Some(CellOutcome::ok(
                i,
                result.label.clone(),
                prior_attempts,
                result,
            ));
        }
    }

    let mut pending: VecDeque<usize> = (0..total).filter(|&i| outcomes[i].is_none()).collect();
    let mut backoff: Vec<(Instant, usize)> = Vec::new();
    let mut running: Vec<(usize, Child)> = Vec::new();

    while completed < total {
        // Cells whose retry backoff has elapsed become dispatchable again.
        let now = Instant::now();
        let mut k = 0;
        while k < backoff.len() {
            if backoff[k].0 <= now {
                let (_, i) = backoff.swap_remove(k);
                pending.push_back(i);
            } else {
                k += 1;
            }
        }

        while running.len() < options.workers {
            let Some(i) = pending.pop_front() else { break };
            attempts[i] += 1;
            let _ = std::fs::remove_file(&result_paths[i]);
            let log_path = logs_dir.join(format!("{i:03}.attempt{}.log", attempts[i]));
            let log = std::fs::File::create(&log_path).map_err(|e| CliError::Io {
                path: log_path.clone(),
                message: e.to_string(),
            })?;
            let log_err = log
                .try_clone()
                .map_err(|e| grid_err(format!("cannot clone log handle: {e}")))?;
            let mut command = Command::new(&options.worker_bin);
            command
                .arg("worker")
                .arg("--spec")
                .arg(&spec_paths[i])
                .arg("--out")
                .arg(&result_paths[i]);
            if let Some(warm) = &options.warm_start {
                command.arg("--warm-start").arg(warm);
            }
            let child = command
                .stdin(Stdio::null())
                .stdout(Stdio::from(log))
                .stderr(Stdio::from(log_err))
                .spawn()
                .map_err(|e| {
                    grid_err(format!(
                        "cannot spawn worker `{}`: {e}",
                        options.worker_bin.display()
                    ))
                })?;
            running.push((i, child));
        }

        let mut progressed = false;
        let mut j = 0;
        while j < running.len() {
            let exit = running[j]
                .1
                .try_wait()
                .map_err(|e| grid_err(format!("cannot poll worker: {e}")))?;
            let Some(status) = exit else {
                j += 1;
                continue;
            };
            let (i, _) = running.swap_remove(j);
            progressed = true;
            let label = specs[i].label().to_string();
            match read_result_record(&result_paths[i]).filter(|_| status.success()) {
                Some(result) => {
                    completed += 1;
                    if !options.quiet {
                        println!(
                            "[{completed}/{total}] {label} — ok ({:.2}s, {:.0} steps/sec, attempt {})",
                            result.run_seconds, result.steps_per_sec, attempts[i]
                        );
                    }
                    outcomes[i] = Some(CellOutcome::ok(i, label, attempts[i], result));
                }
                None => {
                    // A clean exit without a parseable record is a torn
                    // write — a different diagnosis (and fix) than a
                    // worker that reported failure through its exit code
                    // or died to a signal; keep the classes apart all the
                    // way into the manifest.
                    let (why, kind, exit_code) = if status.success() {
                        (
                            "worker exited 0 without a parseable result record".to_string(),
                            "torn-record",
                            None,
                        )
                    } else if let Some(code) = status.code() {
                        (
                            format!("worker crashed ({})", describe_exit(&status)),
                            "worker-exit",
                            Some(code),
                        )
                    } else {
                        (
                            format!("worker crashed ({})", describe_exit(&status)),
                            "signal",
                            None,
                        )
                    };
                    if attempts[i] <= options.retries {
                        let delay = retry_backoff(attempts[i]);
                        if !options.quiet {
                            println!(
                                "{label} — {why}; re-queued after {} ms backoff (attempt {} of {})",
                                delay.as_millis(),
                                attempts[i] + 1,
                                options.retries + 1
                            );
                        }
                        backoff.push((Instant::now() + delay, i));
                    } else {
                        completed += 1;
                        if !options.quiet {
                            println!(
                                "[{completed}/{total}] {label} — FAILED after {} attempts: {why}",
                                attempts[i]
                            );
                        }
                        let log_path = logs_dir.join(format!("{i:03}.attempt{}.log", attempts[i]));
                        outcomes[i] = Some(CellOutcome {
                            index: i,
                            label,
                            attempts: attempts[i],
                            status: CellStatus::Failed,
                            result: None,
                            failure: Some(why),
                            failure_kind: Some(kind),
                            exit_code,
                            log_tail: read_log_tail(&log_path),
                        });
                    }
                }
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    let cells: Vec<CellOutcome> = outcomes
        .into_iter()
        .map(|outcome| outcome.expect("every cell resolved"))
        .collect();
    let summary = GridSummary {
        manifest_path: options.out_dir.join("manifest.json"),
        wall_seconds: started.elapsed().as_secs_f64(),
        cells,
    };
    let manifest = format!("{}\n", manifest_json(&summary, options));
    std::fs::write(&summary.manifest_path, manifest).map_err(|e| CliError::Io {
        path: summary.manifest_path.clone(),
        message: e.to_string(),
    })?;
    Ok(summary)
}

/// `(index, attempts)` of every `"status": "ok"` cell in a previous
/// sweep's manifest. A missing or unparseable manifest yields no skippable
/// cells, which degrades `--resume` to a full re-run rather than an error.
fn manifest_ok_cells(manifest_path: &Path) -> Vec<(usize, usize)> {
    let Some(manifest) = std::fs::read_to_string(manifest_path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
    else {
        return Vec::new();
    };
    let cells = manifest
        .get("cells")
        .and_then(Json::as_array)
        .unwrap_or_default();
    cells
        .iter()
        .filter(|cell| cell.get("status").and_then(Json::as_str) == Some("ok"))
        .filter_map(|cell| Some((cell.read("index").ok()?, cell.read("attempts").ok()?)))
        .collect()
}

/// The partial-results manifest.
fn manifest_json(summary: &GridSummary, options: &GridOptions) -> Json {
    let cells = summary.cells.iter().map(|cell| {
        let mut members: Vec<(&str, Json)> = vec![
            ("index", cell.index.into()),
            ("label", cell.label.as_str().into()),
            ("attempts", cell.attempts.into()),
            ("spec", format!("cells/{:03}.spec", cell.index).into()),
        ];
        match &cell.result {
            Some(result) => members.extend([
                ("status", "ok".into()),
                ("result", format!("results/{:03}.result", cell.index).into()),
                ("total_steps", result.total_steps.into()),
                ("run_seconds", result.run_seconds.into()),
                ("steps_per_sec", result.steps_per_sec.into()),
            ]),
            None => {
                let error = cell.failure.as_deref().unwrap_or("unknown failure");
                let log = format!("logs/{:03}.attempt{}.log", cell.index, cell.attempts);
                members.extend([
                    ("status", "failed".into()),
                    ("error", error.into()),
                    (
                        "failure_kind",
                        cell.failure_kind.unwrap_or("unknown").into(),
                    ),
                    ("exit_code", cell.exit_code.into()),
                    ("log", log.into()),
                    ("log_tail", cell.log_tail.clone().into()),
                ])
            }
        }
        Json::object(members)
    });
    Json::object([
        (
            "grid",
            Json::object([
                ("cells", summary.cells.len().into()),
                ("workers", options.workers.into()),
                ("retries", options.retries.into()),
            ]),
        ),
        ("ok", summary.ok_count().into()),
        ("failed", summary.failed_count().into()),
        ("attempts", summary.total_attempts().into()),
        ("wall_seconds", summary.wall_seconds.into()),
        ("cells", Json::Array(cells.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use collabsim::SimulationReport;

    fn outcome() -> RunOutcome {
        RunOutcome {
            label: "odd \" \\ \n label".to_string(),
            parameter: 40.0,
            total_steps: 60,
            build_seconds: 0.012345678901234567,
            run_seconds: 1.5,
            steps_per_sec: 40.0,
            report: SimulationReport {
                shared_bandwidth: 0.5,
                shared_articles: 0.25,
                by_behavior: Default::default(),
                edit_outcomes: Default::default(),
                mean_article_quality: 1.0,
                completed_downloads: 7,
                evaluation_steps: 20,
                seed: u64::MAX,
            },
        }
    }

    #[test]
    fn result_records_round_trip() {
        let dir = std::env::temp_dir().join(format!("collabsim-record-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cell.result");
        let record = format!("{}\n", Json::from(outcome()));
        assert_eq!(record.lines().count(), 1, "one line: {record}");
        std::fs::write(&path, &record).unwrap();
        assert_eq!(read_result_record(&path), Some(outcome()));

        // Torn (the injection's cut), foreign and missing records do not parse.
        std::fs::write(&path, &record.as_bytes()[..record.len() / 2]).unwrap();
        assert_eq!(read_result_record(&path), None);
        std::fs::write(&path, "not a record").unwrap();
        assert_eq!(read_result_record(&path), None);
        std::fs::write(&path, "{}").unwrap();
        assert_eq!(read_result_record(&path), None);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(read_result_record(&path), None);
    }
}
