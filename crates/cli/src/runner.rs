//! The shared runner core: loading specs and running them instrumented.
//!
//! Everything that executes a scenario — the `collabsim run` subcommand,
//! the `collabsim worker` cell executor, and the six perf-gated bench
//! binaries in `collabsim-bench` — goes through [`run_spec_instrumented`]
//! (or its checkpointing and resuming twins), so a single run is timed,
//! phase-profiled and reported the same way everywhere. Its
//! [`RunOutcome`] is also the worker's result record, which crosses the
//! process boundary as JSON.

use crate::error::CliError;
use collabsim::pipeline::{PhaseRegistry, PhaseTimings};
use collabsim::snapshot::Snapshot;
use collabsim::{
    AdversaryRegistry, DirStore, ScenarioSpec, Simulation, SimulationReport, SnapshotError,
    TimingObserver,
};
use std::path::Path;
use std::time::Instant;

collabsim::json_struct! {
    /// The measured outcome of one instrumented run. As JSON
    /// (`Json::from(outcome)`, read back with
    /// [`FromJson`](collabsim::json::FromJson)) it is the worker's result
    /// record.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RunOutcome {
        /// The spec's label.
        pub label: String,
        /// The spec's swept parameter.
        pub parameter: f64,
        /// Training + evaluation steps executed.
        pub total_steps: u64,
        /// Wall-clock spent constructing the world (article seeding, agents,
        /// ledger).
        pub build_seconds: f64,
        /// Wall-clock spent stepping.
        pub run_seconds: f64,
        /// `total_steps / run_seconds`.
        pub steps_per_sec: f64,
        /// The deterministic report.
        pub report: SimulationReport,
    }
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
        spec,
        || build_from_spec(spec, registry),
        configure,
        |sim| Ok((sim.run(), ())),
    )?;
    Ok((outcome, sim))
}

/// The phase totals of a run made through this module, which attaches
/// its [`TimingObserver`] last.
pub fn phase_timings(sim: &Simulation) -> &PhaseTimings {
    sim.observer::<TimingObserver>(sim.observer_count() - 1)
        .expect("the runner attaches a timing observer last")
        .timings()
}

/// The verdict of a throughput floor: whether `current` clears
/// `reference × (1 − max_regress_pct/100)`, and the line reporting it.
pub fn floor_verdict(
    name: &str,
    current: f64,
    reference: f64,
    max_regress_pct: f64,
) -> (bool, String) {
    let floor = reference * (1.0 - max_regress_pct / 100.0);
    let ok = current >= floor;
    let verdict = if ok { "ok" } else { "REGRESSION" };
    let line = format!(
        "{name}: {current:.2} steps/sec vs baseline {reference:.2} (floor {floor:.2}) — {verdict}"
    );
    (ok, line)
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
        spec,
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
    let spec = ScenarioSpec::parse(&snapshot.spec_text)
        .map_err(|error| snapshot_err(None, SnapshotError::Spec(error.to_string())))?;
    let (outcome, sim, ()) = run_timed(
        &spec,
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
    spec: &ScenarioSpec,
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
        label: spec.label().to_string(),
        parameter: spec.parameter(),
        total_steps,
        build_seconds,
        run_seconds,
        steps_per_sec: total_steps as f64 / run_seconds,
        report,
    };
    Ok((outcome, sim, extra))
}

#[cfg(test)]
mod tests {
    use super::*;

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
