//! End-to-end tests of the `collabsim` binary and the multi-process grid
//! coordinator.
//!
//! Covered here:
//!
//! * every CLI error path exits non-zero with a typed `error[kind]`
//!   message (unknown spec key, unreadable file, invalid `--workers`,
//!   malformed baseline JSON, a baseline without `steps_per_sec`),
//! * `run --baseline` reads the first `steps_per_sec` of a JSON report in
//!   document order, in any valid number form (`1.5E9`), nested or not,
//! * `collabsim run --print-report` on the checked-in golden spec
//!   reproduces the in-process golden report byte-for-byte, at
//!   `SCENARIO_THREADS` 1 and 4,
//! * a `--jsonl -` stream parses line by line (run_start / step /
//!   run_end events on machine-owned stdout),
//! * `collabsim grid --workers 4` over the 18-cell paper mix grid yields
//!   worker reports that decode equal to in-process
//!   [`Simulation::from_spec`] runs of the same cells,
//! * a worker SIGKILLed mid-cell is retried and the sweep still completes
//!   (deterministic one-shot kill injection via `COLLABSIM_TEST_KILL_ONCE`),
//! * a worker that lands a torn half-record while exiting 0 is detected
//!   and retried (`COLLABSIM_TEST_TRUNCATE_ONCE`), and the sweep completes,
//! * a deliberately panicking registered phase fails its own cell, not the
//!   surrounding grid (`--strict` turns the recorded failure into exit 1),
//!   and the manifest inlines the tail of the dead worker's log,
//! * `--set network=<unknown>` surfaces the typed unknown-network-model
//!   spec error through the `error[spec]` exit path, and so do a zero
//!   `evaluation_temperature` and an `intra_step_threads` above the
//!   ceiling (before the run starts, not as a panic); `--threads` above
//!   the ceiling is an `error[invalid-flag]` with exit code 2,
//! * `run --checkpoint-every --store` + `resume` reproduces the
//!   uninterrupted report byte-for-byte; a truncated or missing snapshot
//!   exits with `error[snapshot]` and code 3,
//! * `run --checkpoint-every` prints each checkpoint's size, which is its
//!   file's, and `run`, `resume` and the JSONL `run_end` event report the
//!   process's peak RSS,
//! * `run` (plain and checkpointed) and `resume` print one profile row per
//!   phase of the spec, in pipeline order,
//! * `grid --warm-start` workers fork from a shared equilibrated snapshot
//!   exactly as in-process forks do, and `grid --resume` skips
//!   manifest-ok cells (whatever their label holds) while re-dispatching
//!   failed ones,
//! * a claim over a crashing cell ends `collabsim check`'s path in a typed
//!   `error[grid]`, never in a verdict.
//!
//! Manifests, result records and JSONL lines are read with the same
//! strict parser the coordinator uses ([`collabsim::json`]).

use collabsim::config::PhaseConfig;
use collabsim::json::Json;
use collabsim::snapshot::write_snapshot_file;
use collabsim::{ScenarioSpec, Simulation};
use collabsim_cli::claims::{check, Claim, Metric, Statistic, Test};
use collabsim_cli::coordinator::{run_grid, GridOptions};
use collabsim_cli::scenarios::{chaos_panic_spec, golden_spec, paper_mix_cells};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn collabsim_bin() -> &'static str {
    env!("CARGO_BIN_EXE_collabsim")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/cli sits two levels under the repo root")
        .to_path_buf()
}

/// A fresh scratch directory per test (plain std, no tempdir crate).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("collabsim-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run_cli(args: &[&str]) -> Output {
    Command::new(collabsim_bin())
        .args(args)
        .output()
        .expect("collabsim binary runs")
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// Parses a sweep's `manifest.json`.
fn read_manifest(out_dir: &Path) -> Json {
    let text = std::fs::read_to_string(out_dir.join("manifest.json")).expect("manifest written");
    Json::parse(&text).unwrap_or_else(|e| panic!("manifest is not JSON ({e}): {text}"))
}

/// A top-level count of a manifest (`ok`, `failed`, `attempts`).
fn count(manifest: &Json, key: &str) -> u64 {
    manifest
        .read(key)
        .unwrap_or_else(|e| panic!("{e}: {manifest}"))
}

/// Every cell's `attempts`, sorted.
fn cell_attempts(manifest: &Json) -> Vec<u64> {
    let mut attempts: Vec<u64> = manifest_cells(manifest)
        .iter()
        .map(|cell| cell.read("attempts").unwrap())
        .collect();
    attempts.sort_unstable();
    attempts
}

/// The manifest's per-cell entries, in dispatch order.
fn manifest_cells(manifest: &Json) -> &[Json] {
    manifest
        .get("cells")
        .and_then(Json::as_array)
        .expect("manifest lists its cells")
}

// ---------------------------------------------------------------- errors

#[test]
fn unknown_spec_key_is_a_typed_spec_error() {
    let dir = scratch("unknown-key");
    let path = dir.join("bad.spec");
    std::fs::write(
        &path,
        "# collabsim scenario spec v1\nlabel = bad\nfroopiness = 12\n",
    )
    .unwrap();
    let output = run_cli(&["run", path.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(1));
    let err = stderr_of(&output);
    assert!(err.contains("error[spec]"), "stderr: {err}");
    assert!(
        err.contains("unknown spec key `froopiness`"),
        "stderr: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_network_model_override_is_a_typed_spec_error() {
    let golden = repo_root().join("scenarios/golden.spec");
    let output = run_cli(&[
        "run",
        golden.to_str().unwrap(),
        "--set",
        "network=carrier-pigeon",
    ]);
    assert_eq!(output.status.code(), Some(1));
    let err = stderr_of(&output);
    assert!(err.contains("error[spec]"), "stderr: {err}");
    assert!(
        err.contains("unknown network model `carrier-pigeon`"),
        "stderr: {err}"
    );
}

/// Out-of-domain `--set` values exit 1 with `error[spec]` naming their key,
/// before any world is built (every value here is refused). Each case
/// gives the part of stderr that names the key: the field a domain check
/// refused, or the line a codec could not read.
#[test]
fn out_of_domain_set_values_are_typed_spec_errors() {
    let golden = repo_root().join("scenarios/golden.spec");
    let overflow = "adversary=collusion-ring,9223372036854775808,0";
    let phases = "phases=adversary,selection,sharing,download,edit-vote,utility,learning";
    let cases: &[(&str, &[&str])] = &[
        (
            "invalid `evaluation_temperature`",
            &["evaluation_temperature=0"],
        ),
        ("invalid `intra_step_threads`", &["intra_step_threads=65"]),
        ("invalid `reputation_states`", &["reputation_states=65"]),
        // 2^62 states once overflowed the Q-table's capacity computation.
        (
            "invalid `reputation_states`",
            &["reputation_states=4611686018427387904"],
        ),
        // NaN once got past `mix` (a panic) and the utility weights (NaN
        // rewards and a NaN mean utility).
        ("`mix = NaN,0.5,0.5`: ", &["mix=NaN,0.5,0.5"]),
        (
            "invalid `utility_sharing`",
            &["utility_sharing=NaN,0.5,0.5"],
        ),
        ("invalid `utility_editing`", &["utility_editing=NaN,0.5"]),
        // Finite weights of 1e308 once overflowed the rewards to ±inf and
        // NaN mean utilities.
        (
            "invalid `utility_sharing`",
            &["utility_sharing=1e308,1e308,1e308"],
        ),
        (
            "invalid `utility_editing`",
            &["utility_editing=1e308,1e308"],
        ),
        // Peer and article ids are u32.
        ("invalid `population`", &["population=4294967296"]),
        (
            "invalid `initial_articles`",
            &["initial_articles=4294967296"],
        ),
        // Two units of 2^63 peers once summed to 0 claimed peers.
        ("invalid `adversaries`", &[phases, overflow, overflow]),
    ];
    for (named, sets) in cases {
        let mut args = vec!["run", golden.to_str().unwrap()];
        for set in *sets {
            args.extend(["--set", set]);
        }
        let output = run_cli(&args);
        let err = stderr_of(&output);
        assert_eq!(output.status.code(), Some(1), "{sets:?}: {err}");
        assert!(err.contains("error[spec]"), "stderr: {err}");
        assert!(err.contains(named), "stderr: {err}");
    }
}

#[test]
fn threads_flag_above_the_ceiling_is_a_typed_flag_error() {
    let golden = repo_root().join("scenarios/golden.spec");
    let output = run_cli(&["run", golden.to_str().unwrap(), "--threads", "65"]);
    assert_eq!(output.status.code(), Some(2));
    let err = stderr_of(&output);
    assert!(err.contains("error[invalid-flag]"), "stderr: {err}");
    assert!(err.contains("--threads"), "stderr: {err}");
}

#[test]
fn unreadable_spec_file_is_a_typed_io_error() {
    let output = run_cli(&["run", "/nonexistent/collabsim/missing.spec"]);
    assert_eq!(output.status.code(), Some(1));
    let err = stderr_of(&output);
    assert!(err.contains("error[io]"), "stderr: {err}");
    assert!(err.contains("missing.spec"), "stderr: {err}");
}

#[test]
fn invalid_workers_is_a_typed_flag_error_with_usage_exit_code() {
    for bad in ["0", "banana", "-3"] {
        let output = run_cli(&["grid", "whatever.spec", "--workers", bad]);
        assert_eq!(output.status.code(), Some(2), "--workers {bad}");
        let err = stderr_of(&output);
        assert!(err.contains("error[invalid-flag]"), "stderr: {err}");
        assert!(err.contains("--workers"), "stderr: {err}");
    }
}

#[test]
fn malformed_baseline_is_a_typed_baseline_error() {
    let dir = scratch("bad-baseline");
    let baseline = dir.join("baseline.json");
    std::fs::write(&baseline, "this is not json at all\n").unwrap();
    let golden = repo_root().join("scenarios/golden.spec");
    let output = run_cli(&[
        "run",
        golden.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(1));
    let err = stderr_of(&output);
    assert!(err.contains("error[baseline]"), "stderr: {err}");
    assert!(err.contains("steps_per_sec"), "stderr: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `run --baseline` reads the first `steps_per_sec` number of a JSON
/// report, in document order and in any valid JSON number form; a report
/// without one is a typed baseline error.
#[test]
fn baseline_gate_reads_the_first_steps_per_sec_of_a_json_report() {
    let dir = scratch("baseline-forms");
    let golden = repo_root().join("scenarios/golden.spec");
    let exponent = dir.join("exponent.json");
    std::fs::write(&exponent, "{\"steps_per_sec\": 1.5E9}\n").unwrap();
    let nameless = dir.join("nameless.json");
    std::fs::write(
        &nameless,
        "{\"bench\": \"x\", \"total_steps_per_sec\": 5.0}\n",
    )
    .unwrap();
    let nested = repo_root().join("crates/bench/baselines/paper_baseline.json");
    for (baseline, max_regress, code, needle) in [
        (
            &exponent,
            "20",
            1,
            "vs baseline 1500000000.00 (floor 1200000000.00) — REGRESSION",
        ),
        (&nested, "100", 0, "vs baseline 9400.00"),
        (&nameless, "20", 1, "error[baseline]"),
    ] {
        let output = run_cli(&[
            "run",
            golden.to_str().unwrap(),
            "--baseline",
            baseline.to_str().unwrap(),
            "--max-regress",
            max_regress,
        ]);
        let both = format!("{}{}", stdout_of(&output), stderr_of(&output));
        assert_eq!(
            output.status.code(),
            Some(code),
            "{}: {both}",
            baseline.display()
        );
        assert!(both.contains(needle), "{}: {both}", baseline.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------------- golden identity

/// Extracts the `--print-report` line from a run's stdout.
fn report_line(stdout: &str) -> String {
    stdout
        .lines()
        .find(|line| line.starts_with("SimulationReport {"))
        .unwrap_or_else(|| panic!("no report line in stdout: {stdout}"))
        .to_string()
}

#[test]
fn run_on_the_golden_spec_reproduces_the_golden_report_across_thread_counts() {
    let golden = repo_root().join("scenarios/golden.spec");
    let expected = format!(
        "{:?}",
        Simulation::from_spec(&golden_spec())
            .expect("golden spec resolves")
            .run()
    );
    for threads in ["1", "4"] {
        let output = run_cli(&[
            "run",
            golden.to_str().unwrap(),
            "--print-report",
            "--threads",
            threads,
        ]);
        assert_eq!(output.status.code(), Some(0), "threads={threads}");
        assert_eq!(
            report_line(&stdout_of(&output)),
            expected,
            "report drifted at SCENARIO_THREADS={threads}"
        );
    }
}

// ----------------------------------------------------------------- jsonl

#[test]
fn jsonl_stream_on_stdout_is_structurally_valid() {
    let golden = repo_root().join("scenarios/golden.spec");
    let output = run_cli(&[
        "run",
        golden.to_str().unwrap(),
        "--jsonl",
        "-",
        "--every",
        "50",
    ]);
    assert_eq!(output.status.code(), Some(0));
    let stdout = stdout_of(&output);
    let events: Vec<Json> = stdout
        .lines()
        .map(|line| Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}")))
        .collect();
    assert!(events.len() >= 3, "run_start + steps + run_end: {stdout}");
    let event = |json: &Json| {
        json.read::<String>("event")
            .expect("every line is an event")
    };
    let first = &events[0];
    assert_eq!(event(first), "run_start");
    assert_eq!(first.read::<String>("label"), Ok("golden".to_string()));
    assert_eq!(first.read::<u64>("total_steps"), Ok(200));
    let last = events.last().unwrap();
    assert_eq!(event(last), "run_end");
    assert_eq!(last.read::<u64>("seed"), Ok(0xC0FFEE));
    assert!(last.get("phases").and_then(Json::as_object).is_some());
    let peak_rss_mb: f64 = last.read("peak_rss_mb").expect("run_end carries peak RSS");
    assert!(peak_rss_mb > 0.0, "{last}");
    // Step events at 50, 100, 150, 200.
    let steps: Vec<u64> = events
        .iter()
        .filter(|e| event(e) == "step")
        .map(|e| e.read("step").unwrap())
        .collect();
    assert_eq!(steps, [50, 100, 150, 200], "step cadence: {stdout}");
    // The human-readable summary must have moved to stderr.
    let err = stderr_of(&output);
    assert!(err.contains("profile:"), "stderr: {err}");
    // Read after the event and rounded to 0.1 MB; the mark never falls.
    assert!(peak_rss_line(&err) >= peak_rss_mb - 0.05, "stderr: {err}");
}

/// The MB figure of the `peak RSS: <mb> MB` line `run` and `resume` print.
fn peak_rss_line(out: &str) -> f64 {
    out.lines()
        .find_map(|line| line.strip_prefix("peak RSS: ")?.strip_suffix(" MB"))
        .unwrap_or_else(|| panic!("no peak RSS line: {out}"))
        .parse()
        .expect("peak RSS is a number")
}

// ----------------------------------------------- grid == in-process runs

/// The 18-cell paper mix grid at CI-sized steps (the full 900-step cells
/// would make a debug-build test crawl; identity is step-count agnostic).
fn reduced_mix_cells() -> Vec<collabsim::ScenarioSpec> {
    paper_mix_cells(PhaseConfig {
        training_steps: 40,
        evaluation_steps: 20,
        ..Default::default()
    })
}

#[test]
fn grid_workers_reproduce_in_process_reports_bit_for_bit() {
    let cells = reduced_mix_cells();
    assert_eq!(cells.len(), 18);
    let in_process: Vec<_> = cells
        .iter()
        .map(|cell| {
            Simulation::from_spec(cell)
                .expect("mix cells resolve")
                .run()
        })
        .collect();

    let out_dir = scratch("grid-identity");
    let summary = run_grid(
        &cells,
        &GridOptions {
            workers: 4,
            retries: 1,
            out_dir: out_dir.clone(),
            worker_bin: PathBuf::from(collabsim_bin()),
            quiet: true,
            warm_start: None,
            resume: false,
        },
    )
    .expect("sweep completes");

    assert_eq!(summary.ok_count(), 18);
    assert_eq!(summary.failed_count(), 0);
    for ((cell, spec), expected) in summary.cells.iter().zip(&cells).zip(&in_process) {
        let result = cell.result.as_ref().expect("ok cell has a result");
        assert_eq!(result.label, spec.label(), "cell order");
        assert_eq!(result.parameter, spec.parameter(), "cell parameter");
        assert_eq!(
            &result.report,
            expected,
            "worker report for `{}` differs from the in-process run",
            spec.label()
        );
    }
    assert!(summary.manifest_path.is_file(), "manifest written");
    std::fs::remove_dir_all(&out_dir).ok();
}

// ------------------------------------------------------- crash isolation

#[cfg(unix)]
#[test]
fn sigkilled_worker_is_retried_and_the_sweep_completes() {
    let dir = scratch("kill-once");
    let specs_dir = dir.join("specs");
    std::fs::create_dir_all(&specs_dir).unwrap();
    // Three small cells; the kill marker is claimed by exactly one worker,
    // which SIGKILLs itself mid-run. Its retry sees the marker taken and
    // completes normally.
    let base = golden_spec().to_text();
    for (i, seed) in [1u64, 2, 3].iter().enumerate() {
        std::fs::write(
            specs_dir.join(format!("cell{i}.spec")),
            format!("{base}\nseed = {seed}\n"),
        )
        .unwrap();
    }
    let out_dir = dir.join("out");
    let marker = dir.join("kill.marker");
    let output = Command::new(collabsim_bin())
        .args([
            "grid",
            specs_dir.to_str().unwrap(),
            "--workers",
            "2",
            "--retries",
            "1",
            "--out-dir",
            out_dir.to_str().unwrap(),
        ])
        .env(collabsim_cli::KILL_ONCE_ENV, &marker)
        .output()
        .expect("grid runs");
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&output)
    );
    assert!(marker.is_file(), "one worker claimed the kill marker");

    let manifest = read_manifest(&out_dir);
    assert_eq!(count(&manifest, "ok"), 3, "{manifest}");
    assert_eq!(count(&manifest, "failed"), 0, "{manifest}");
    // 3 cells + 1 retry of the killed one.
    assert_eq!(count(&manifest, "attempts"), 4, "{manifest}");
    assert_eq!(cell_attempts(&manifest), [1, 1, 2], "{manifest}");
    let stdout = stdout_of(&output);
    assert!(stdout.contains("re-queued"), "stdout: {stdout}");
    assert!(stdout.contains("killed by signal 9"), "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_result_record_is_detected_and_retried() {
    let dir = scratch("truncate-once");
    let specs_dir = dir.join("specs");
    std::fs::create_dir_all(&specs_dir).unwrap();
    // Three small cells; exactly one worker claims the truncation marker
    // and lands a torn half-record (valid header, unparseable body) at its
    // result path while exiting 0. The coordinator must refuse the record,
    // re-queue the cell, and the retry completes the sweep.
    let base = golden_spec().to_text();
    for (i, seed) in [1u64, 2, 3].iter().enumerate() {
        std::fs::write(
            specs_dir.join(format!("cell{i}.spec")),
            format!("{base}\nseed = {seed}\n"),
        )
        .unwrap();
    }
    let out_dir = dir.join("out");
    let marker = dir.join("truncate.marker");
    let output = Command::new(collabsim_bin())
        .args([
            "grid",
            specs_dir.to_str().unwrap(),
            "--workers",
            "2",
            "--retries",
            "1",
            "--out-dir",
            out_dir.to_str().unwrap(),
        ])
        .env(collabsim_cli::TRUNCATE_ONCE_ENV, &marker)
        .output()
        .expect("grid runs");
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&output)
    );
    assert!(marker.is_file(), "one worker claimed the truncation marker");

    let manifest = read_manifest(&out_dir);
    assert_eq!(count(&manifest, "ok"), 3, "{manifest}");
    assert_eq!(count(&manifest, "failed"), 0, "{manifest}");
    // 3 cells + 1 retry of the torn-record one.
    assert_eq!(count(&manifest, "attempts"), 4, "{manifest}");
    assert_eq!(cell_attempts(&manifest), [1, 1, 2], "{manifest}");
    let stdout = stdout_of(&output);
    assert!(
        stdout.contains("without a parseable result record"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("re-queued"), "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// With retries exhausted, a torn result record (worker exited 0 but the
/// record is unparseable) is classified in the manifest as
/// `failure_kind = "torn-record"` with a null exit code — a different
/// diagnosis than a worker that failed through its exit status.
#[test]
fn torn_record_failure_is_classified_in_the_manifest() {
    let dir = scratch("torn-kind");
    let specs_dir = dir.join("specs");
    std::fs::create_dir_all(&specs_dir).unwrap();
    std::fs::write(specs_dir.join("cell.spec"), golden_spec().to_text()).unwrap();
    let out_dir = dir.join("out");
    let marker = dir.join("truncate.marker");
    let output = Command::new(collabsim_bin())
        .args([
            "grid",
            specs_dir.to_str().unwrap(),
            "--workers",
            "1",
            "--retries",
            "0",
            "--out-dir",
            out_dir.to_str().unwrap(),
        ])
        .env(collabsim_cli::TRUNCATE_ONCE_ENV, &marker)
        .output()
        .expect("grid runs");
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&output)
    );
    let manifest = read_manifest(&out_dir);
    assert_eq!(count(&manifest, "failed"), 1, "{manifest}");
    let cell = &manifest_cells(&manifest)[0];
    assert_eq!(
        cell.read::<String>("failure_kind"),
        Ok("torn-record".to_string()),
        "{manifest}"
    );
    assert_eq!(cell.get("exit_code"), Some(&Json::Null), "{manifest}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A worker that dies with a non-zero exit code is classified as
/// `failure_kind = "worker-exit"` and the manifest records the actual
/// code, so grid consumers can tell a crashed worker from a torn write.
#[test]
fn nonzero_worker_exit_is_classified_with_its_code() {
    let dir = scratch("exit-kind");
    let specs_dir = dir.join("specs");
    std::fs::create_dir_all(&specs_dir).unwrap();
    std::fs::write(specs_dir.join("cell.spec"), golden_spec().to_text()).unwrap();
    let out_dir = dir.join("out");
    let marker = dir.join("exit.marker");
    let output = Command::new(collabsim_bin())
        .args([
            "grid",
            specs_dir.to_str().unwrap(),
            "--workers",
            "1",
            "--retries",
            "0",
            "--out-dir",
            out_dir.to_str().unwrap(),
        ])
        .env(collabsim_cli::EXIT_ONCE_ENV, &marker)
        .output()
        .expect("grid runs");
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&output)
    );
    assert!(marker.is_file(), "the worker claimed the exit marker");
    let manifest = read_manifest(&out_dir);
    assert_eq!(count(&manifest, "failed"), 1, "{manifest}");
    let cell = &manifest_cells(&manifest)[0];
    assert_eq!(
        cell.read::<String>("failure_kind"),
        Ok("worker-exit".to_string()),
        "{manifest}"
    );
    assert_eq!(
        cell.get("exit_code"),
        Some(&Json::from(collabsim_cli::EXIT_ONCE_CODE)),
        "{manifest}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn panicking_phase_fails_its_cell_but_not_the_grid() {
    let dir = scratch("chaos");
    let specs_dir = dir.join("specs");
    std::fs::create_dir_all(&specs_dir).unwrap();
    std::fs::write(specs_dir.join("a_chaos.spec"), chaos_panic_spec().to_text()).unwrap();
    std::fs::write(specs_dir.join("b_golden.spec"), golden_spec().to_text()).unwrap();
    let out_dir = dir.join("out");

    // Without RUST_BACKTRACE the worker's panic is a compact two-liner,
    // so the manifest's five-line log tail must capture the message.
    let output = Command::new(collabsim_bin())
        .args([
            "grid",
            specs_dir.to_str().unwrap(),
            "--workers",
            "2",
            "--retries",
            "1",
            "--out-dir",
            out_dir.to_str().unwrap(),
        ])
        .env_remove("RUST_BACKTRACE")
        .output()
        .expect("grid runs");
    // Tolerant by default: the sweep completes, exit 0, failure recorded.
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&output)
    );
    let manifest = read_manifest(&out_dir);
    assert_eq!(count(&manifest, "ok"), 1, "{manifest}");
    assert_eq!(count(&manifest, "failed"), 1, "{manifest}");
    let failed = &manifest_cells(&manifest)[0];
    assert_eq!(failed.read::<String>("status"), Ok("failed".to_string()));
    let error: String = failed.read("error").unwrap();
    assert!(error.contains("worker crashed"), "{manifest}");
    // The failed cell inlines the tail of its final attempt's worker log,
    // so the manifest alone explains *why* the worker died.
    let tail = failed.get("log_tail").and_then(Json::as_array).unwrap();
    assert!(
        tail.iter()
            .any(|line| line.as_str().is_some_and(|l| l.contains("panicked"))),
        "{manifest}"
    );
    let stdout = stdout_of(&output);
    assert!(
        stdout.contains("FAILED after 2 attempts"),
        "stdout: {stdout}"
    );

    // --strict turns the recorded failure into a non-zero exit.
    let strict_out = dir.join("out-strict");
    let output = run_cli(&[
        "grid",
        specs_dir.to_str().unwrap(),
        "--workers",
        "2",
        "--retries",
        "0",
        "--strict",
        "--out-dir",
        strict_out.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------- checkpoint and resume

#[test]
fn a_claim_over_a_crashing_cell_is_a_grid_error_not_a_verdict() {
    let out_dir = scratch("claims-chaos");
    let claim = Claim {
        id: "ci/chaos",
        cells: &["ci/chaos_panic.spec", "golden.spec"],
        metric: Metric {
            name: "shared_articles",
            read: |r| r.shared_articles,
        },
        statistic: Statistic::Change,
        test: Test::AtLeast(0.0),
    };
    let options = GridOptions {
        workers: 2,
        retries: 0,
        out_dir: out_dir.clone(),
        worker_bin: PathBuf::from(collabsim_bin()),
        quiet: true,
        warm_start: None,
        resume: false,
    };
    let Err(error) = check(std::slice::from_ref(&claim), &options) else {
        panic!("a crashing cell must not yield a verdict");
    };
    assert_eq!(error.kind(), "grid");
    assert_ne!(error.exit_code(), 0);
    let message = error.to_string();
    assert!(
        message.starts_with("error[grid]: 5 of 10 claim runs failed"),
        "{message}"
    );
    assert!(message.contains("ci/chaos-panic/seed=1"), "{message}");
    // The healthy cell ran at every seed; the crashing one failed at each.
    let manifest = read_manifest(&out_dir);
    assert_eq!(count(&manifest, "ok"), 5);
    assert_eq!(count(&manifest, "failed"), 5);
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// `run --checkpoint-every --store` followed by `resume` from a
/// mid-training snapshot reproduces the uninterrupted run's report byte
/// for byte, on the on-disk store backend. The run prints each
/// checkpoint's key beside its size, which is the file's, and both
/// commands print the peak RSS.
#[test]
fn cli_checkpoint_then_resume_reproduces_the_golden_report() {
    let dir = scratch("checkpoint-resume");
    let store = dir.join("store");
    let golden = repo_root().join("scenarios/golden.spec");
    let output = run_cli(&[
        "run",
        golden.to_str().unwrap(),
        "--checkpoint-every",
        "50",
        "--store",
        store.to_str().unwrap(),
        "--print-report",
    ]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&output)
    );
    let expected = report_line(&stdout_of(&output));
    assert!(
        stdout_of(&output).contains("checkpoints: 4 snapshots"),
        "steps 50/100/150/200: {}",
        stdout_of(&output)
    );
    // The checkpointed run itself must not perturb the trajectory.
    assert_eq!(
        expected,
        format!("{:?}", Simulation::from_spec(&golden_spec()).unwrap().run()),
        "checkpointing perturbed the report"
    );
    let printed: Vec<(String, u64)> = stdout_of(&output)
        .lines()
        .filter_map(|line| line.strip_prefix("  checkpoint ")?.strip_suffix(" B"))
        .map(|entry| {
            let (key, bytes) = entry.split_once(' ').expect("`<key> <bytes> B`");
            (key.to_string(), bytes.parse().expect("a byte count"))
        })
        .collect();
    assert_eq!(printed.len(), 4, "{}", stdout_of(&output));
    for (key, bytes) in &printed {
        let file = store.join(format!("{key}.snap"));
        assert_eq!(std::fs::metadata(&file).unwrap().len(), *bytes, "{key}");
    }
    assert!(peak_rss_line(&stdout_of(&output)) > 0.0);

    // Sorted keys are chronological; resume from the earliest (step 50,
    // mid-training: both the training tail and the reset still to run).
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(&store)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "snap"))
        .collect();
    snaps.sort();
    assert_eq!(snaps.len(), 4, "store: {snaps:?}");
    let output = run_cli(&["resume", snaps[0].to_str().unwrap(), "--print-report"]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&output)
    );
    let stdout = stdout_of(&output);
    assert!(stdout.contains("from step 50"), "stdout: {stdout}");
    assert!(peak_rss_line(&stdout) > 0.0);
    assert_eq!(
        report_line(&stdout),
        expected,
        "resumed run drifted from the uninterrupted one"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The phase names of the profile table in a `run` or `resume` stdout, in
/// row order.
fn profile_rows(stdout: &str) -> Vec<String> {
    let mut lines = stdout
        .lines()
        .skip_while(|line| !line.starts_with("profile:"));
    assert!(lines.next().is_some(), "no profile in stdout: {stdout}");
    let header = lines.next().unwrap_or_default();
    assert!(
        header.trim_start().starts_with("phase"),
        "no phase table under the profile line: {stdout}"
    );
    lines
        .take_while(|line| line.starts_with("  "))
        .map(|line| line.split_whitespace().next().unwrap().to_string())
        .collect()
}

/// Every run entry point times every phase of its spec: the profile table
/// lists each phase once, in pipeline order, and never falls back to
/// "(no phase timings recorded)".
#[test]
fn run_and_resume_profile_every_phase_of_the_spec() {
    let dir = scratch("profile-rows");
    let store = dir.join("store");
    let golden = repo_root().join("scenarios/golden.spec");
    let plain = run_cli(&["run", golden.to_str().unwrap()]);
    let checkpointed = run_cli(&[
        "run",
        golden.to_str().unwrap(),
        "--checkpoint-every",
        "100",
        "--store",
        store.to_str().unwrap(),
    ]);
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(&store)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "snap"))
        .collect();
    snaps.sort();
    let resumed = run_cli(&["resume", snaps[0].to_str().unwrap()]);

    let phases = golden_spec().phases().to_vec();
    assert_eq!(
        phases.len(),
        6,
        "the golden spec runs the six protocol phases"
    );
    for (entry_point, output) in [
        ("run", &plain),
        ("checkpointed run", &checkpointed),
        ("resume", &resumed),
    ] {
        assert_eq!(
            output.status.code(),
            Some(0),
            "{entry_point}: {}",
            stderr_of(output)
        );
        let stdout = stdout_of(output);
        assert!(
            !stdout.contains("no phase timings recorded"),
            "{entry_point}: {stdout}"
        );
        assert_eq!(profile_rows(&stdout), phases, "{entry_point}: {stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A truncated, bit-flipped or old-format snapshot file is refused with
/// the typed `error[snapshot]` and the dedicated exit code 3, not a panic
/// or a generic failure.
#[test]
fn truncated_snapshot_is_a_typed_snapshot_error_with_exit_code_3() {
    let dir = scratch("truncated-snapshot");
    let mut sim = Simulation::from_spec(&golden_spec()).unwrap();
    sim.run_training();
    let snapshot = sim.snapshot(&golden_spec());
    let path = dir.join("good.snap");
    write_snapshot_file(&path, &snapshot).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let torn = dir.join("torn.snap");
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();

    let output = run_cli(&["resume", torn.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(3), "snapshot errors exit 3");
    let err = stderr_of(&output);
    assert!(err.contains("error[snapshot]"), "stderr: {err}");
    assert!(err.contains("torn.snap"), "stderr: {err}");

    // One flipped payload byte, a version-3 header (the layout under the
    // previous content hash), a version-4 header (the last layout that
    // carried the full edit log), a version-5 header (the last layout
    // that carried the article store as id lists) and a version-7 header
    // (the last layout that stored every Q-plane).
    let mut rotted = bytes.clone();
    rotted[bytes.len() / 2] ^= 0x01;
    let mut old = bytes.clone();
    old[8..10].copy_from_slice(&3u16.to_le_bytes());
    let mut v4 = bytes.clone();
    v4[8..10].copy_from_slice(&4u16.to_le_bytes());
    let mut v5 = bytes.clone();
    v5[8..10].copy_from_slice(&5u16.to_le_bytes());
    let mut v7 = bytes.clone();
    v7[8..10].copy_from_slice(&7u16.to_le_bytes());
    for (name, contents, needle) in [
        ("rotted.snap", rotted, "content hash mismatch"),
        ("old.snap", old, "version 3"),
        ("v4.snap", v4, "version 4"),
        ("v5.snap", v5, "version 5"),
        ("v7.snap", v7, "version 7"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        let output = run_cli(&["resume", path.to_str().unwrap()]);
        let err = stderr_of(&output);
        assert_eq!(output.status.code(), Some(3), "{name}: {err}");
        assert!(err.contains("error[snapshot]"), "{name}: {err}");
        assert!(err.contains(needle), "{name}: {err}");
    }

    // A missing snapshot takes the same typed path.
    let output = run_cli(&["resume", dir.join("absent.snap").to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(3));
    assert!(
        stderr_of(&output).contains("error[snapshot]"),
        "stderr: {}",
        stderr_of(&output)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `grid --warm-start`: every worker forks from the shared equilibrated
/// snapshot and its report equals an in-process fork of the same snapshot
/// onto the same cell spec.
#[test]
fn grid_warm_start_forks_match_in_process_forks_bit_for_bit() {
    let dir = scratch("grid-warm");
    let base = golden_spec();
    let mut sim = Simulation::from_spec(&base).unwrap();
    sim.run_training();
    let snapshot = sim.snapshot(&base);
    let snap_path = dir.join("base.snap");
    write_snapshot_file(&snap_path, &snapshot).unwrap();

    // Two cells sharing the base population (relabelled; later spec keys
    // win, exactly like a hand-edited file).
    let cells: Vec<ScenarioSpec> = ["warm-a", "warm-b"]
        .iter()
        .map(|label| {
            ScenarioSpec::parse(&format!("{}\nlabel = {label}\n", base.to_text())).unwrap()
        })
        .collect();
    let expected: Vec<_> = cells
        .iter()
        .map(|cell| {
            let fork = snapshot.with_spec(cell);
            Simulation::resume_from(&fork).unwrap().finish()
        })
        .collect();

    let out_dir = dir.join("out");
    let summary = run_grid(
        &cells,
        &GridOptions {
            workers: 2,
            retries: 1,
            out_dir: out_dir.clone(),
            worker_bin: PathBuf::from(collabsim_bin()),
            quiet: true,
            warm_start: Some(snap_path),
            resume: false,
        },
    )
    .expect("warm sweep completes");
    assert_eq!(summary.ok_count(), 2);
    for (cell, expected) in summary.cells.iter().zip(&expected) {
        let result = cell.result.as_ref().expect("ok cell has a result");
        assert_eq!(
            &result.report, expected,
            "warm-started worker report for `{}` differs from the in-process fork",
            result.label
        );
        // Warm cells only pay the post-checkpoint remainder.
        assert_eq!(result.total_steps, 80, "remaining evaluation steps");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `grid --resume` re-dispatches only the cells the previous sweep left
/// failed or missing; manifest-ok cells are carried over untouched, also
/// when their label holds a quote, a backslash and a newline.
#[test]
fn grid_resume_skips_manifest_ok_cells_and_redispatches_failures() {
    let dir = scratch("grid-resume");
    let specs_dir = dir.join("specs");
    std::fs::create_dir_all(&specs_dir).unwrap();
    let base = golden_spec().to_text();
    // The first dispatched cell (cell0) is the one that dies; cell1
    // survives the first sweep under the quoted label.
    for (i, seed) in [1u64, 2, 3].iter().enumerate() {
        let label = if i == 1 {
            r#"label = "odd \" \\ \n label""#
        } else {
            ""
        };
        std::fs::write(
            specs_dir.join(format!("cell{i}.spec")),
            format!("{base}\nseed = {seed}\n{label}\n"),
        )
        .unwrap();
    }
    let out_dir = dir.join("out");
    let marker = dir.join("kill.marker");
    // First sweep: one worker SIGKILLs itself and, with --retries 0, its
    // cell is recorded failed while the other two complete.
    let output = Command::new(collabsim_bin())
        .args([
            "grid",
            specs_dir.to_str().unwrap(),
            "--workers",
            "1",
            "--retries",
            "0",
            "--out-dir",
            out_dir.to_str().unwrap(),
        ])
        .env(collabsim_cli::KILL_ONCE_ENV, &marker)
        .output()
        .expect("grid runs");
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&output)
    );
    let manifest = read_manifest(&out_dir);
    assert_eq!(count(&manifest, "ok"), 2, "{manifest}");
    assert_eq!(count(&manifest, "failed"), 1, "{manifest}");
    assert_eq!(
        manifest_cells(&manifest)[1].read::<String>("label"),
        Ok("odd \" \\ \n label".to_string())
    );

    // Second sweep with --resume (no kill marker): the two ok cells are
    // skipped, only the failed one is re-dispatched, and it completes.
    let output = run_cli(&[
        "grid",
        specs_dir.to_str().unwrap(),
        "--workers",
        "1",
        "--retries",
        "0",
        "--resume",
        "--out-dir",
        out_dir.to_str().unwrap(),
    ]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&output)
    );
    let stdout = stdout_of(&output);
    assert_eq!(
        stdout.matches("skipped (already ok in manifest)").count(),
        2,
        "stdout: {stdout}"
    );
    let manifest = read_manifest(&out_dir);
    assert_eq!(count(&manifest, "ok"), 3, "{manifest}");
    assert_eq!(count(&manifest, "failed"), 0, "{manifest}");
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------------------- subcommands

#[test]
fn help_prints_usage_and_exits_zero() {
    let output = run_cli(&["help"]);
    assert_eq!(output.status.code(), Some(0));
    let stdout = stdout_of(&output);
    for subcommand in ["run", "resume", "grid", "worker", "scaffold"] {
        assert!(stdout.contains(subcommand), "usage lists {subcommand}");
    }
    // No arguments at all behaves the same way.
    let output = run_cli(&[]);
    assert_eq!(output.status.code(), Some(0));
}

#[test]
fn worker_writes_a_parseable_result_record() {
    let dir = scratch("worker-record");
    let spec_path = dir.join("cell.spec");
    std::fs::write(&spec_path, golden_spec().to_text()).unwrap();
    let out_path = dir.join("cell.result");
    let output = run_cli(&[
        "worker",
        "--spec",
        spec_path.to_str().unwrap(),
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&output)
    );
    let result = collabsim_cli::read_result_record(&out_path).expect("record parses");
    assert_eq!(result.label, "golden");
    assert_eq!(result.total_steps, 200);
    let expected = Simulation::from_spec(&golden_spec())
        .expect("golden spec resolves")
        .run();
    assert_eq!(result.report, expected);
    assert_eq!(format!("{:?}", result.report), format!("{expected:?}"));
    std::fs::remove_dir_all(&dir).ok();
}
