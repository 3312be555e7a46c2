//! The shared runner core: loading specs, running them instrumented, and
//! baseline gating.
//!
//! Everything that executes a scenario — the `collabsim run` subcommand,
//! the `collabsim worker` cell executor, and the four perf-gated bench
//! binaries in `collabsim-bench` — goes through [`run_spec_instrumented`],
//! so a single run is timed, phase-profiled and reported the same way
//! everywhere. Baseline files are the benches' own self-describing JSON
//! reports; [`extract_number`] pulls a gated metric out without a JSON
//! parser crate.

use crate::error::CliError;
use collabsim::pipeline::PhaseRegistry;
use collabsim::snapshot::Snapshot;
use collabsim::{
    AdversaryRegistry, DirStore, ScenarioSpec, Simulation, SimulationReport, SnapshotError,
    TimingObserver,
};
use std::path::Path;
use std::time::Instant;

/// The measured outcome of one instrumented run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The spec's label.
    pub label: String,
    /// Training + evaluation steps executed.
    pub total_steps: u64,
    /// Wall-clock spent constructing the world (article seeding, agents,
    /// ledger).
    pub build_seconds: f64,
    /// Wall-clock spent stepping.
    pub run_seconds: f64,
    /// `total_steps / run_seconds`.
    pub steps_per_sec: f64,
    /// The deterministic report (the Debug rendering of this value is the
    /// cross-process cell-result format — see
    /// [`crate::coordinator::render_cell_result`]).
    pub report: SimulationReport,
}

/// Loads a spec file, mapping both I/O and parse failures to [`CliError`].
pub fn load_spec(path: &Path) -> Result<ScenarioSpec, CliError> {
    ScenarioSpec::load(path).map_err(|error| CliError::Spec {
        path: Some(path.to_path_buf()),
        error,
    })
}

/// Loads a spec file and appends `key = value` override lines before
/// parsing (the `--set` flag; later keys win, exactly like a hand-edited
/// file).
pub fn load_spec_with_overrides(
    path: &Path,
    overrides: &[(String, String)],
) -> Result<ScenarioSpec, CliError> {
    if overrides.is_empty() {
        return load_spec(path);
    }
    let mut text = std::fs::read_to_string(path).map_err(|e| CliError::Spec {
        path: Some(path.to_path_buf()),
        error: collabsim::SpecError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        },
    })?;
    for (key, value) in overrides {
        text.push('\n');
        text.push_str(key);
        text.push_str(" = ");
        text.push_str(value);
        text.push('\n');
    }
    ScenarioSpec::parse(&text).map_err(|error| CliError::Spec {
        path: Some(path.to_path_buf()),
        error,
    })
}

/// Builds and runs one spec, resolving phases against `registry`.
/// `configure` runs after construction and before the run — attach
/// observers there; they keep indices `0..`. A [`TimingObserver`] is
/// attached after them (the last observer), so the phase totals are
/// read from `sim.observer::<TimingObserver>(sim.observer_count() - 1)`.
/// Returns the outcome together with the finished [`Simulation`] so
/// callers can query timings, observers and world state.
pub fn run_spec_instrumented(
    spec: &ScenarioSpec,
    registry: &PhaseRegistry,
    configure: impl FnOnce(&mut Simulation),
) -> Result<(RunOutcome, Simulation), CliError> {
    let (outcome, sim, ()) = run_timed(
        spec.label().to_string(),
        || build_from_spec(spec, registry),
        configure,
        |sim| Ok((sim.run(), ())),
    )?;
    Ok((outcome, sim))
}

/// Wraps a snapshot-layer failure as the CLI's `error[snapshot]`
/// (exit code 3), attaching the offending file or store path when known.
pub fn snapshot_err(path: Option<&Path>, error: SnapshotError) -> CliError {
    CliError::Snapshot {
        path: path.map(Path::to_path_buf),
        error,
    }
}

/// [`run_spec_instrumented`], checkpointing to an on-disk [`DirStore`]
/// under `store_dir` every `every` steps. Returns the outcome, the
/// finished simulation and the store keys written (chronological).
/// Checkpointing is pure observation: the report is bit-identical to an
/// uncheckpointed run of the same spec.
pub fn run_spec_checkpointed(
    spec: &ScenarioSpec,
    registry: &PhaseRegistry,
    every: u64,
    store_dir: &Path,
    configure: impl FnOnce(&mut Simulation),
) -> Result<(RunOutcome, Simulation, Vec<String>), CliError> {
    let mut store =
        DirStore::open(store_dir).map_err(|error| snapshot_err(Some(store_dir), error))?;
    run_timed(
        spec.label().to_string(),
        || build_from_spec(spec, registry),
        configure,
        |sim| {
            sim.run_with_checkpoints(spec, every, &mut store)
                .map_err(|error| snapshot_err(Some(store_dir), error))
        },
    )
}

/// Resumes a snapshot through the shared instrumented path: rebuilds the
/// simulation from the embedded spec, overwrites its state, and runs the
/// remaining protocol with [`Simulation::finish`]. `total_steps` (and the
/// throughput derived from it) count only the steps *this* process
/// executed — the remainder the resume paid for, not the checkpointed
/// prefix. Observers are attached as in [`run_spec_instrumented`].
pub fn resume_snapshot_instrumented(
    snapshot: &Snapshot,
    registry: &PhaseRegistry,
    configure: impl FnOnce(&mut Simulation),
) -> Result<(RunOutcome, Simulation), CliError> {
    let label = ScenarioSpec::parse(&snapshot.spec_text)
        .map(|spec| spec.label().to_string())
        .unwrap_or_else(|_| "resumed".to_string());
    let (outcome, sim, ()) = run_timed(
        label,
        || {
            Simulation::resume_with_registries(snapshot, registry, &AdversaryRegistry::standard())
                .map_err(|error| snapshot_err(None, error))
        },
        configure,
        |sim| Ok((sim.finish(), ())),
    )?;
    Ok((outcome, sim))
}

fn build_from_spec(spec: &ScenarioSpec, registry: &PhaseRegistry) -> Result<Simulation, CliError> {
    Simulation::from_spec_with_registries(spec, registry, &AdversaryRegistry::standard())
        .map_err(|error| CliError::Spec { path: None, error })
}

/// The instrumented run behind the three entry points above: times
/// `build`, lets `configure` attach the caller's observers, attaches the
/// [`TimingObserver`] last, and times `run` over the steps still to go.
fn run_timed<T>(
    label: String,
    build: impl FnOnce() -> Result<Simulation, CliError>,
    configure: impl FnOnce(&mut Simulation),
    run: impl FnOnce(&mut Simulation) -> Result<(SimulationReport, T), CliError>,
) -> Result<(RunOutcome, Simulation, T), CliError> {
    let building = Instant::now();
    let mut sim = build()?;
    let build_seconds = building.elapsed().as_secs_f64();
    configure(&mut sim);
    sim.add_observer(TimingObserver::new());
    let total_steps = sim.remaining_steps();
    let running = Instant::now();
    let (report, extra) = run(&mut sim)?;
    let run_seconds = running.elapsed().as_secs_f64();
    let outcome = RunOutcome {
        label,
        total_steps,
        build_seconds,
        run_seconds,
        steps_per_sec: total_steps as f64 / run_seconds,
        report,
    };
    Ok((outcome, sim, extra))
}

/// Extracts `"key": <number>` from a line of self-describing bench JSON
/// (the baseline format; the offline harness has no JSON parser crate).
pub fn extract_number(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = line[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Reads a baseline file and extracts the first `"key": <number>` on any
/// line. A missing file or a file without the metric (e.g. not JSON at
/// all) is a typed [`CliError::Baseline`].
pub fn baseline_number(path: &Path, key: &str) -> Result<f64, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Baseline {
        path: path.to_path_buf(),
        message: e.to_string(),
    })?;
    text.lines()
        .find_map(|line| extract_number(line, key))
        .ok_or_else(|| CliError::Baseline {
            path: path.to_path_buf(),
            message: format!("no `\"{key}\"` number found (malformed or wrong baseline file)"),
        })
}

/// Floor gate on a throughput metric: prints the standard verdict line and
/// returns whether the current value clears
/// `reference × (1 − max_regress_pct/100)`.
pub fn gate_floor(name: &str, current: f64, reference: f64, max_regress_pct: f64) -> bool {
    let floor = reference * (1.0 - max_regress_pct / 100.0);
    let ok = current >= floor;
    println!(
        "{name}: {current:.2} steps/sec vs baseline {reference:.2} (floor {floor:.2}) — {}",
        if ok { "ok" } else { "REGRESSION" }
    );
    ok
}

/// Ceiling gate on peak RSS: prints the standard verdict line and returns
/// whether the current value stays under
/// `recorded × (1 + max_regress_pct/100)`.
pub fn gate_rss_ceiling(name: &str, current: f64, recorded: f64, max_regress_pct: f64) -> bool {
    let ceiling = recorded * (1.0 + max_regress_pct / 100.0);
    let ok = current <= ceiling;
    println!(
        "{name}: peak RSS {current:.0} MB vs baseline {recorded:.0} MB (ceiling {ceiling:.0}) — {}",
        if ok { "ok" } else { "REGRESSION" }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_number_reads_bench_json_lines() {
        let line = "    {\"peers\": 100, \"steps_per_sec\": 9517.25, \"neg\": -2e3}";
        assert_eq!(extract_number(line, "peers"), Some(100.0));
        assert_eq!(extract_number(line, "steps_per_sec"), Some(9517.25));
        assert_eq!(extract_number(line, "neg"), Some(-2000.0));
        assert_eq!(extract_number(line, "missing"), None);
    }

    #[test]
    fn gates_compare_against_floor_and_ceiling() {
        assert!(gate_floor("t", 90.0, 100.0, 20.0));
        assert!(!gate_floor("t", 70.0, 100.0, 20.0));
        assert!(gate_rss_ceiling("t", 110.0, 100.0, 20.0));
        assert!(!gate_rss_ceiling("t", 130.0, 100.0, 20.0));
    }

    #[test]
    fn overrides_append_and_later_keys_win() {
        let dir = std::env::temp_dir().join(format!("collabsim-cli-ov-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("base.spec");
        let spec = crate::scenarios::golden_spec();
        std::fs::write(&path, spec.to_text()).unwrap();
        let overridden =
            load_spec_with_overrides(&path, &[("population".to_string(), "30".to_string())])
                .unwrap();
        assert_eq!(overridden.config().population, 30);
        assert_eq!(overridden.config().seed, spec.config().seed);
        std::fs::remove_dir_all(&dir).ok();
    }
}
