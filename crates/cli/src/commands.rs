//! Subcommand implementations shared by the `collabsim` binary.

use crate::args::{
    Command, GridArgs, PoolArgs, ResumeArgs, RunArgs, ScaffoldArgs, TrainArgs, USAGE,
};
use crate::coordinator::{CellStatus, GridOptions};
use crate::error::CliError;
use crate::jsonl::{open_sink, JsonlObserver};
use crate::{args, chaos, claims, coordinator, profile, runner, scenarios, training};
use collabsim::json::Json;
use collabsim::snapshot::{read_snapshot_file, write_snapshot_file, SNAPSHOT_EXTENSION};
use std::path::{Path, PathBuf};

/// Parses and executes one command line, returning the process exit code.
pub fn dispatch(argv: &[String]) -> Result<i32, CliError> {
    match args::parse(argv)? {
        Command::Help => {
            print!("{USAGE}");
            Ok(0)
        }
        Command::Run(run) => cmd_run(run),
        Command::Resume(resume) => cmd_resume(resume),
        Command::Grid(grid) => cmd_grid(grid),
        Command::Worker(worker) => {
            coordinator::run_worker(&worker.spec, &worker.out, worker.warm_start.as_deref())?;
            Ok(0)
        }
        Command::Scaffold(scaffold) => cmd_scaffold(scaffold),
        Command::Train(train) => cmd_train(train),
        Command::Check(check) => cmd_check(check),
    }
}

/// This binary, which grids spawn their workers from.
fn worker_bin() -> Result<PathBuf, CliError> {
    std::env::current_exe().map_err(|e| CliError::Grid {
        message: format!("cannot locate the collabsim binary: {e}"),
    })
}

fn set_scenario_threads(threads: Option<usize>) {
    if let Some(threads) = threads {
        std::env::set_var("SCENARIO_THREADS", threads.to_string());
    }
}

fn cmd_run(run: RunArgs) -> Result<i32, CliError> {
    set_scenario_threads(run.threads);
    let spec = runner::load_spec_with_overrides(&run.spec, &run.sets)?;
    let registry = chaos::cli_registry();

    // When JSONL owns stdout, the human-readable summary moves to stderr
    // so the stream stays machine-parseable line by line.
    let jsonl_to_stdout = run.jsonl.as_deref() == Some("-");
    let say = |line: &str| {
        if jsonl_to_stdout {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };

    let total_steps = spec.config().phases.total_steps();
    let observer = match &run.jsonl {
        Some(target) => Some(JsonlObserver::new(
            open_sink(target)?,
            spec.label(),
            total_steps,
            run.every,
        )),
        None => None,
    };

    say(&format!(
        "running `{}` ({} peers, {} steps)",
        spec.label(),
        spec.config().population,
        total_steps
    ));
    let (outcome, sim) = match (run.checkpoint_every, &run.store) {
        (Some(every), Some(store_dir)) => {
            let (outcome, sim, keys) =
                runner::run_spec_checkpointed(&spec, &registry, every, store_dir, |sim| {
                    if let Some(observer) = observer {
                        sim.add_observer(observer);
                    }
                })?;
            say(&format!(
                "checkpoints: {} snapshots every {} steps in {}",
                keys.len(),
                every,
                store_dir.display()
            ));
            for key in &keys {
                let path = store_dir.join(format!("{key}.{SNAPSHOT_EXTENSION}"));
                let bytes = std::fs::metadata(&path)
                    .map_err(|e| CliError::Io {
                        path: path.clone(),
                        message: e.to_string(),
                    })?
                    .len();
                say(&format!("  checkpoint {key} {bytes} B"));
            }
            (outcome, sim)
        }
        _ => runner::run_spec_instrumented(&spec, &registry, |sim| {
            if let Some(observer) = observer {
                sim.add_observer(observer);
            }
        })?,
    };
    say(&format!("build: {:.3}s", outcome.build_seconds));
    for line in profile::render_profile(
        outcome.total_steps,
        outcome.run_seconds,
        runner::phase_timings(&sim),
    )
    .lines()
    {
        say(line);
    }
    if let Some(mb) = profile::peak_rss_mb() {
        say(&format!("peak RSS: {mb:.1} MB"));
    }

    if run.print_report {
        println!("{:?}", outcome.report);
    }

    if let Some(baseline) = &run.baseline {
        let reference = baseline_steps_per_sec(baseline)?;
        let (ok, verdict) = runner::floor_verdict(
            &outcome.label,
            outcome.steps_per_sec,
            reference,
            run.max_regress,
        );
        say(&verdict);
        if !ok {
            return Ok(1);
        }
    }
    Ok(0)
}

/// The first `steps_per_sec` number, in document order, of a bench JSON
/// report; anything else is a typed [`CliError::Baseline`].
fn baseline_steps_per_sec(path: &Path) -> Result<f64, CliError> {
    let reference = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| {
            let report = Json::parse(&text).map_err(|e| format!("not JSON ({e})"))?;
            let number = report.find("steps_per_sec").and_then(Json::number::<f64>);
            number.ok_or_else(|| "none in the report (wrong baseline file?)".to_string())
        });
    reference.map_err(|why| CliError::Baseline {
        path: path.to_path_buf(),
        message: format!("no `\"steps_per_sec\"` number: {why}"),
    })
}

fn cmd_resume(resume: ResumeArgs) -> Result<i32, CliError> {
    set_scenario_threads(resume.threads);
    let snapshot = read_snapshot_file(&resume.snapshot)
        .map_err(|error| runner::snapshot_err(Some(&resume.snapshot), error))?;
    println!(
        "resuming {} from step {}",
        resume.snapshot.display(),
        snapshot.state.step
    );
    let registry = chaos::cli_registry();
    let (outcome, sim) = runner::resume_snapshot_instrumented(&snapshot, &registry, |_| {})?;
    println!(
        "finished `{}` ({} steps remained)",
        outcome.label, outcome.total_steps
    );
    println!("restore: {:.3}s", outcome.build_seconds);
    for line in profile::render_profile(
        outcome.total_steps,
        outcome.run_seconds,
        runner::phase_timings(&sim),
    )
    .lines()
    {
        println!("{line}");
    }
    if let Some(mb) = profile::peak_rss_mb() {
        println!("peak RSS: {mb:.1} MB");
    }
    if resume.print_report {
        println!("{:?}", outcome.report);
    }
    Ok(0)
}

/// Expands the `grid` positionals: a file is taken as-is, a directory is
/// walked recursively for `*.spec` files (sorted, for a stable cell
/// order).
fn collect_spec_paths(inputs: &[PathBuf]) -> Result<Vec<PathBuf>, CliError> {
    fn walk(dir: &Path, into: &mut Vec<PathBuf>) -> Result<(), CliError> {
        let entries = std::fs::read_dir(dir).map_err(|e| CliError::Io {
            path: dir.to_path_buf(),
            message: e.to_string(),
        })?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .collect();
        paths.sort();
        for path in paths {
            if path.is_dir() {
                walk(&path, into)?;
            } else if path.extension().is_some_and(|ext| ext == "spec") {
                into.push(path);
            }
        }
        Ok(())
    }

    let mut specs = Vec::new();
    for input in inputs {
        if input.is_dir() {
            walk(input, &mut specs)?;
        } else if input.is_file() {
            specs.push(input.clone());
        } else {
            return Err(CliError::Io {
                path: input.clone(),
                message: "no such file or directory".to_string(),
            });
        }
    }
    if specs.is_empty() {
        return Err(CliError::Grid {
            message: "no .spec files found under the given paths".to_string(),
        });
    }
    Ok(specs)
}

fn cmd_grid(grid: GridArgs) -> Result<i32, CliError> {
    set_scenario_threads(grid.threads);
    let paths = collect_spec_paths(&grid.specs)?;
    let specs = paths
        .iter()
        .map(|path| runner::load_spec(path))
        .collect::<Result<Vec<_>, _>>()?;
    let worker_bin = worker_bin()?;
    let workers = grid.pool.workers.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(specs.len().max(1))
    });
    if let Some(warm) = &grid.warm_start {
        // Fail fast with a typed error[snapshot] before dispatching
        // anything — a bad snapshot would otherwise fail all cells.
        let snapshot =
            read_snapshot_file(warm).map_err(|error| runner::snapshot_err(Some(warm), error))?;
        println!(
            "warm start: every cell forks from {} (step {})",
            warm.display(),
            snapshot.state.step
        );
    }
    println!(
        "grid: {} cells, {} workers, {} retries → {}",
        specs.len(),
        workers,
        grid.pool.retries,
        grid.pool.out_dir.display()
    );
    let summary = coordinator::run_grid(
        &specs,
        &GridOptions {
            workers,
            retries: grid.pool.retries,
            out_dir: grid.pool.out_dir.clone(),
            worker_bin,
            quiet: false,
            warm_start: grid.warm_start.clone(),
            resume: grid.resume,
        },
    )?;
    println!(
        "sweep done in {:.2}s: {} ok, {} failed, {} attempts (manifest: {})",
        summary.wall_seconds,
        summary.ok_count(),
        summary.failed_count(),
        summary.total_attempts(),
        summary.manifest_path.display()
    );
    for cell in &summary.cells {
        if cell.status == CellStatus::Failed {
            println!(
                "  failed: {} ({})",
                cell.label,
                cell.failure.as_deref().unwrap_or("unknown")
            );
        }
    }
    if grid.strict && summary.failed_count() > 0 {
        return Ok(1);
    }
    Ok(0)
}

fn cmd_train(train: TrainArgs) -> Result<i32, CliError> {
    set_scenario_threads(train.threads);
    let mut scale = training::arms_scale(train.quick);
    if let Some(episodes) = train.episodes {
        scale.episodes = episodes;
    }
    let panel: Vec<(&str, &str)> = training::ARMS_DEFENCES
        .iter()
        .copied()
        .filter(|(key, _)| train.defences.is_empty() || train.defences.iter().any(|d| d == key))
        .collect();
    if panel.is_empty() {
        let known = training::ARMS_DEFENCES
            .iter()
            .map(|(key, _)| *key)
            .collect::<Vec<_>>()
            .join(", ");
        return Err(CliError::Usage(format!(
            "no defence matches {:?} (known: {known})",
            train.defences
        )));
    }
    let worker_bin = worker_bin()?;

    let started = std::time::Instant::now();
    let (base, checkpoint) = training::equilibrate_base(&scale)?;
    println!(
        "base `{}`: {} peers equilibrated through step {} in {:.2}s",
        base.label(),
        scale.population,
        checkpoint.state.step,
        started.elapsed().as_secs_f64()
    );

    let mut rows = Vec::new();
    for defence in panel {
        let arm_started = std::time::Instant::now();
        let trained = training::train_against(
            &checkpoint,
            &training::arms_train_spec(&scale, defence),
            scale.episodes,
        )?;
        println!(
            "train {}: {} episodes, {} q-updates, {} visited q-cells ({:.2}s)",
            defence.0,
            scale.episodes,
            trained.updates,
            trained.visited_cells,
            arm_started.elapsed().as_secs_f64()
        );

        let frozen_spec = training::arms_frozen_spec(&scale, defence);
        let scripted_spec = training::arms_scripted_spec(&scale, defence);
        let frozen = training::frozen_snapshot(&checkpoint, &frozen_spec, &trained.policies);
        let snap_path = train
            .out_dir
            .join("snapshots")
            .join(format!("{}.snap", defence.0));
        write_snapshot_file(&snap_path, &frozen)
            .map_err(|error| runner::snapshot_err(Some(&snap_path), error))?;
        println!("  frozen policy snapshot: {}", snap_path.display());

        let trained_outcome = training::evaluate_fork(&frozen)?;
        let scripted_outcome = training::evaluate_fork(&checkpoint.with_spec(&scripted_spec))?;

        // Dispatch the frozen and scripted evaluation cells through the
        // multi-process grid coordinator, warm-started from the frozen
        // snapshot, and cross-check every decoded worker report against
        // the in-process replay of the identical fork.
        let summary = coordinator::run_grid(
            &[frozen_spec.clone(), scripted_spec.clone()],
            &GridOptions {
                workers: train.workers.unwrap_or(2),
                retries: 1,
                out_dir: train.out_dir.join(format!("grid-{}", defence.0)),
                worker_bin: worker_bin.clone(),
                quiet: true,
                warm_start: Some(snap_path.clone()),
                resume: false,
            },
        )?;
        for cell in &summary.cells {
            let result = cell.result.as_ref().ok_or_else(|| CliError::Grid {
                message: format!(
                    "evaluation cell `{}` failed: {}",
                    cell.label,
                    cell.failure.as_deref().unwrap_or("unknown")
                ),
            })?;
            let cell_spec = if cell.label == frozen_spec.label() {
                &frozen_spec
            } else {
                &scripted_spec
            };
            let expected = training::evaluate_fork(&frozen.with_spec(cell_spec))?;
            if result.report != expected.report {
                return Err(CliError::Grid {
                    message: format!(
                        "worker report for `{}` diverges from the in-process replay",
                        cell.label
                    ),
                });
            }
        }
        println!(
            "  cross-process: {} worker reports identical to the in-process replay",
            summary.cells.len()
        );
        rows.push((defence.0, trained, trained_outcome, scripted_outcome));
    }

    println!();
    println!(
        "{:<24} {:>14} {:>15} {:>9} {:>9}",
        "defence", "trained-damage", "scripted-damage", "retained", "updates"
    );
    for (key, trained, trained_outcome, scripted_outcome) in &rows {
        println!(
            "{:<24} {:>14.2} {:>15.2} {:>9.3} {:>9}",
            key,
            trained_outcome.damage(),
            scripted_outcome.damage(),
            trained_outcome.metrics.mean_reputation_retained(),
            trained.updates
        );
    }
    let wins = rows
        .iter()
        .filter(|(_, _, trained_outcome, scripted_outcome)| {
            trained_outcome.damage() > scripted_outcome.damage()
        })
        .count();
    println!(
        "trained attacker out-damages the scripted whitewasher on {wins}/{} defences",
        rows.len()
    );
    Ok(0)
}

/// Prints the claims table on stdout (nothing else goes there, so it
/// diffs against a checked-in copy); a failed run is an error, never a
/// verdict.
fn cmd_check(check: PoolArgs) -> Result<i32, CliError> {
    let workers = check.workers.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let started = std::time::Instant::now();
    let rows = claims::check(
        claims::CLAIMS,
        &GridOptions {
            workers,
            retries: check.retries,
            out_dir: check.out_dir.clone(),
            worker_bin: worker_bin()?,
            quiet: true,
            warm_start: None,
            resume: false,
        },
    )?;
    print!("{}", claims::render(&rows));
    eprintln!(
        "check: {} claims in {:.1}s at --workers {}; runs under {}",
        rows.len(),
        started.elapsed().as_secs_f64(),
        workers,
        check.out_dir.display()
    );
    Ok(0)
}

fn cmd_scaffold(scaffold: ScaffoldArgs) -> Result<i32, CliError> {
    let written = scenarios::scaffold(&scaffold.dir).map_err(|e| CliError::Io {
        path: scaffold.dir.clone(),
        message: e.to_string(),
    })?;
    println!(
        "wrote {} spec files under {}",
        written.len(),
        scaffold.dir.display()
    );
    Ok(0)
}
