//! Hand-rolled argument parsing for the `collabsim` binary (the offline
//! build has no clap), producing typed [`CliError`]s for every mistake.

use crate::error::CliError;
use collabsim::threads::{parse_scenario_threads, MAX_THREADS};
use std::path::PathBuf;
use std::str::FromStr;

/// The CLI usage text.
pub const USAGE: &str = "\
collabsim — scenario runner for the Bocek et al. (IPDPS 2008) wiki simulation

USAGE:
  collabsim run <spec-file> [options]      run one scenario spec
  collabsim resume <snapshot> [options]    finish a checkpointed run from a .snap file
  collabsim grid <spec|dir>... [options]   run many specs as a multi-process sweep
  collabsim worker --spec <f> --out <f>    run one cell, emit a result record (internal)
  collabsim scaffold [--dir <dir>]         (re)generate the scenarios/ tree
  collabsim train [options]                run the learning-adversary arms race
  collabsim check [options]                check the paper's claims; print their table
  collabsim help                           show this help

RUN OPTIONS:
  --jsonl <path|->      stream StepObserver metrics as JSON lines (- = stdout;
                        the human summary moves to stderr)
  --every <n>           emit a step event every n steps (default 1)
  --print-report        print the report's Debug line to stdout (byte-stable)
  --set <key=value>     override a spec key (repeatable; later keys win)
  --baseline <path>     gate steps/sec against a bench JSON baseline
  --max-regress <pct>   tolerated steps/sec drop for --baseline (default 20)
  --threads <n>         set SCENARIO_THREADS for this run
  --checkpoint-every <n>  write a snapshot to the run store every n steps
                        (requires --store)
  --store <dir>         the on-disk run store (a directory of .snap files)
                        receiving --checkpoint-every snapshots

RESUME OPTIONS:
  --print-report        print the report's Debug line to stdout (byte-stable;
                        identical to the uninterrupted run's)
  --threads <n>         set SCENARIO_THREADS for this run

GRID OPTIONS:
  --workers <n>         worker subprocesses in flight (default: CPU count)
  --retries <n>         crash re-queues per cell before it is marked failed
                        (default 1)
  --out-dir <dir>       sweep output directory (default grid-out)
  --strict              exit non-zero if any cell ends up failed
  --threads <n>         SCENARIO_THREADS for every worker
  --warm-start <snap>   fork every cell from this snapshot instead of
                        running it from step 0 (cells must describe the
                        same population)
  --resume              skip cells already recorded ok in <out-dir>'s
                        manifest.json; re-dispatch only failed/missing ones

TRAIN OPTIONS:
  --quick               smaller population and fewer episodes per defence
  --episodes <n>        override training episodes per defence
  --out-dir <dir>       snapshots + evaluation grids directory (default
                        arms-out)
  --defence <key>       restrict to one defence (repeatable; default: the
                        full panel — ledger, eigentrust,
                        eigentrust-pretrusted, gossip, uptime-discount)
  --workers <n>         worker subprocesses for the evaluation grids
  --threads <n>         set SCENARIO_THREADS for this run

CHECK OPTIONS:
  --workers <n>         worker subprocesses in flight (default: CPU count)
  --retries <n>         crash re-queues per run (default 1)
  --out-dir <dir>       every run's spec, record and log (default claims-out)

`check` runs each cell of the claims table under scenarios/paper/ at five
fixed seeds through the grid coordinator and prints one row per claim:
holds, diverges or inconclusive. It exits 0 whatever the verdicts and
non-zero only when a run fails.

`train` equilibrates one adversary-free base population, runs episodic
Q-learning against each defence, freezes the learned policy (α = 0), and
evaluates the frozen and scripted attackers through the multi-process grid
coordinator — checking every decoded worker report equals the in-process
replay.

Cell crashes never abort a sweep: crashed cells are retried, then recorded
in <out-dir>/manifest.json as failed alongside the completed results.
Corrupt or version-mismatched snapshots exit with error[snapshot], code 3.
";

/// Parsed `collabsim run` arguments.
#[derive(Debug)]
pub struct RunArgs {
    /// The spec file.
    pub spec: PathBuf,
    /// `--jsonl` target (`-` = stdout), if requested.
    pub jsonl: Option<String>,
    /// Step-event stride.
    pub every: u64,
    /// Print the report Debug line to stdout.
    pub print_report: bool,
    /// `--set key=value` overrides, in order.
    pub sets: Vec<(String, String)>,
    /// `--baseline` file, if gating.
    pub baseline: Option<PathBuf>,
    /// Tolerated steps/sec drop (percent).
    pub max_regress: f64,
    /// `--threads` override for `SCENARIO_THREADS`.
    pub threads: Option<usize>,
    /// `--checkpoint-every` stride, if checkpointing.
    pub checkpoint_every: Option<u64>,
    /// `--store` run-store directory (required with `--checkpoint-every`).
    pub store: Option<PathBuf>,
}

/// Parsed `collabsim resume` arguments.
#[derive(Debug)]
pub struct ResumeArgs {
    /// The snapshot file to resume from.
    pub snapshot: PathBuf,
    /// Print the report Debug line to stdout.
    pub print_report: bool,
    /// `--threads` override for `SCENARIO_THREADS`.
    pub threads: Option<usize>,
}

/// The worker-pool flags of `collabsim grid` and `collabsim check`.
#[derive(Debug)]
pub struct PoolArgs {
    /// `--workers`, if given.
    pub workers: Option<usize>,
    /// Crash re-queues per cell.
    pub retries: usize,
    /// Sweep output directory.
    pub out_dir: PathBuf,
}

impl PoolArgs {
    fn new(out_dir: &str) -> Self {
        Self {
            workers: None,
            retries: 1,
            out_dir: PathBuf::from(out_dir),
        }
    }

    /// Reads `flag` and its value when it is a pool flag; `false` when it
    /// is not one.
    fn parse(&mut self, flag: &str, args: &mut Args<'_>) -> Result<bool, CliError> {
        match flag {
            "--workers" => {
                self.workers = Some(positive(
                    "--workers",
                    args.value("--workers")?,
                    "a worker count ≥ 1",
                )?);
            }
            "--retries" => {
                self.retries = parse_value(
                    "--retries",
                    args.value("--retries")?,
                    "a retry count (0 disables retrying)",
                )?;
            }
            "--out-dir" => self.out_dir = PathBuf::from(args.value("--out-dir")?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Parsed `collabsim grid` arguments.
#[derive(Debug)]
pub struct GridArgs {
    /// Spec files and/or directories to expand.
    pub specs: Vec<PathBuf>,
    /// `--workers`, `--retries` and `--out-dir`.
    pub pool: PoolArgs,
    /// Fail the process if any cell failed.
    pub strict: bool,
    /// `--threads` override for `SCENARIO_THREADS`.
    pub threads: Option<usize>,
    /// `--warm-start` snapshot every cell forks from, if given.
    pub warm_start: Option<PathBuf>,
    /// Skip cells already recorded ok in an existing manifest.
    pub resume: bool,
}

/// Parsed `collabsim worker` arguments.
#[derive(Debug)]
pub struct WorkerArgs {
    /// The cell's spec file.
    pub spec: PathBuf,
    /// Where to write the result record.
    pub out: PathBuf,
    /// Snapshot to fork the cell from, when the sweep is warm-started.
    pub warm_start: Option<PathBuf>,
}

/// Parsed `collabsim scaffold` arguments.
#[derive(Debug)]
pub struct ScaffoldArgs {
    /// Target directory.
    pub dir: PathBuf,
}

/// Parsed `collabsim train` arguments.
#[derive(Debug)]
pub struct TrainArgs {
    /// Use the reduced `--quick` sizing.
    pub quick: bool,
    /// Override the episodes-per-defence count.
    pub episodes: Option<usize>,
    /// Output directory for frozen snapshots and evaluation grids.
    pub out_dir: PathBuf,
    /// Defence keys to run (empty = the full panel).
    pub defences: Vec<String>,
    /// `--threads` override for `SCENARIO_THREADS`.
    pub threads: Option<usize>,
    /// Worker subprocesses for the evaluation grids.
    pub workers: Option<usize>,
}

/// A parsed command line.
#[derive(Debug)]
pub enum Command {
    /// `collabsim run`.
    Run(RunArgs),
    /// `collabsim resume`.
    Resume(ResumeArgs),
    /// `collabsim grid`.
    Grid(GridArgs),
    /// `collabsim worker`.
    Worker(WorkerArgs),
    /// `collabsim scaffold`.
    Scaffold(ScaffoldArgs),
    /// `collabsim train`.
    Train(TrainArgs),
    /// `collabsim check`, which takes only the pool flags.
    Check(PoolArgs),
    /// `collabsim help` / `--help` / no arguments.
    Help,
}

fn parse_value<T: FromStr>(flag: &str, value: &str, expected: &str) -> Result<T, CliError> {
    value.parse().map_err(|_| CliError::InvalidFlag {
        flag: flag.to_string(),
        value: value.to_string(),
        expected: expected.to_string(),
    })
}

fn positive(flag: &str, value: &str, expected: &str) -> Result<usize, CliError> {
    let n: usize = parse_value(flag, value, expected)?;
    if n == 0 {
        return Err(CliError::InvalidFlag {
            flag: flag.to_string(),
            value: value.to_string(),
            expected: expected.to_string(),
        });
    }
    Ok(n)
}

/// A `--threads` value: a worker count `SCENARIO_THREADS` accepts.
fn thread_count(value: &str) -> Result<usize, CliError> {
    parse_scenario_threads(value).ok_or_else(|| CliError::InvalidFlag {
        flag: "--threads".to_string(),
        value: value.to_string(),
        expected: format!("a thread count in 1..={MAX_THREADS}"),
    })
}

/// An iterator over flag/value argument pairs.
struct Args<'a> {
    rest: &'a [String],
    index: usize,
}

impl<'a> Args<'a> {
    fn new(rest: &'a [String]) -> Self {
        Self { rest, index: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let arg = self.rest.get(self.index)?;
        self.index += 1;
        Some(arg)
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        self.next()
            .ok_or_else(|| CliError::Usage(format!("`{flag}` requires a value")))
    }
}

fn parse_run(rest: &[String]) -> Result<Command, CliError> {
    let mut args = Args::new(rest);
    let mut spec = None;
    let mut run = RunArgs {
        spec: PathBuf::new(),
        jsonl: None,
        every: 1,
        print_report: false,
        sets: Vec::new(),
        baseline: None,
        max_regress: 20.0,
        threads: None,
        checkpoint_every: None,
        store: None,
    };
    while let Some(arg) = args.next() {
        match arg {
            "--jsonl" => run.jsonl = Some(args.value("--jsonl")?.to_string()),
            "--every" => {
                run.every = parse_value("--every", args.value("--every")?, "a step stride ≥ 1")?;
                if run.every == 0 {
                    return Err(CliError::InvalidFlag {
                        flag: "--every".into(),
                        value: "0".into(),
                        expected: "a step stride ≥ 1".into(),
                    });
                }
            }
            "--print-report" => run.print_report = true,
            "--set" => {
                let pair = args.value("--set")?;
                let Some((key, value)) = pair.split_once('=') else {
                    return Err(CliError::InvalidFlag {
                        flag: "--set".into(),
                        value: pair.to_string(),
                        expected: "key=value".into(),
                    });
                };
                run.sets
                    .push((key.trim().to_string(), value.trim().to_string()));
            }
            "--baseline" => run.baseline = Some(PathBuf::from(args.value("--baseline")?)),
            "--max-regress" => {
                run.max_regress = parse_value(
                    "--max-regress",
                    args.value("--max-regress")?,
                    "a percentage",
                )?;
            }
            "--threads" => {
                run.threads = Some(thread_count(args.value("--threads")?)?);
            }
            "--checkpoint-every" => {
                let value = args.value("--checkpoint-every")?;
                let every: u64 = parse_value("--checkpoint-every", value, "a step stride ≥ 1")?;
                if every == 0 {
                    return Err(CliError::InvalidFlag {
                        flag: "--checkpoint-every".into(),
                        value: value.to_string(),
                        expected: "a step stride ≥ 1".into(),
                    });
                }
                run.checkpoint_every = Some(every);
            }
            "--store" => run.store = Some(PathBuf::from(args.value("--store")?)),
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown flag `{flag}` for `run`")));
            }
            positional => {
                if spec.replace(PathBuf::from(positional)).is_some() {
                    return Err(CliError::Usage(
                        "`run` takes exactly one spec file".to_string(),
                    ));
                }
            }
        }
    }
    match (run.checkpoint_every, &run.store) {
        (Some(_), None) => {
            return Err(CliError::Usage(
                "`--checkpoint-every` requires `--store <dir>`".to_string(),
            ));
        }
        (None, Some(_)) => {
            return Err(CliError::Usage(
                "`--store` requires `--checkpoint-every <n>`".to_string(),
            ));
        }
        _ => {}
    }
    run.spec = spec.ok_or_else(|| CliError::Usage("`run` requires a spec file".to_string()))?;
    Ok(Command::Run(run))
}

fn parse_resume(rest: &[String]) -> Result<Command, CliError> {
    let mut args = Args::new(rest);
    let mut snapshot = None;
    let mut resume = ResumeArgs {
        snapshot: PathBuf::new(),
        print_report: false,
        threads: None,
    };
    while let Some(arg) = args.next() {
        match arg {
            "--print-report" => resume.print_report = true,
            "--threads" => {
                resume.threads = Some(thread_count(args.value("--threads")?)?);
            }
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!(
                    "unknown flag `{flag}` for `resume`"
                )));
            }
            positional => {
                if snapshot.replace(PathBuf::from(positional)).is_some() {
                    return Err(CliError::Usage(
                        "`resume` takes exactly one snapshot file".to_string(),
                    ));
                }
            }
        }
    }
    resume.snapshot =
        snapshot.ok_or_else(|| CliError::Usage("`resume` requires a snapshot file".to_string()))?;
    Ok(Command::Resume(resume))
}

fn parse_grid(rest: &[String]) -> Result<Command, CliError> {
    let mut args = Args::new(rest);
    let mut grid = GridArgs {
        specs: Vec::new(),
        pool: PoolArgs::new("grid-out"),
        strict: false,
        threads: None,
        warm_start: None,
        resume: false,
    };
    while let Some(arg) = args.next() {
        if grid.pool.parse(arg, &mut args)? {
            continue;
        }
        match arg {
            "--strict" => grid.strict = true,
            "--warm-start" => grid.warm_start = Some(PathBuf::from(args.value("--warm-start")?)),
            "--resume" => grid.resume = true,
            "--threads" => {
                grid.threads = Some(thread_count(args.value("--threads")?)?);
            }
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown flag `{flag}` for `grid`")));
            }
            positional => grid.specs.push(PathBuf::from(positional)),
        }
    }
    if grid.specs.is_empty() {
        return Err(CliError::Usage(
            "`grid` requires at least one spec file or directory".to_string(),
        ));
    }
    Ok(Command::Grid(grid))
}

fn parse_worker(rest: &[String]) -> Result<Command, CliError> {
    let mut args = Args::new(rest);
    let mut spec = None;
    let mut out = None;
    let mut warm_start = None;
    while let Some(arg) = args.next() {
        match arg {
            "--spec" => spec = Some(PathBuf::from(args.value("--spec")?)),
            "--out" => out = Some(PathBuf::from(args.value("--out")?)),
            "--warm-start" => warm_start = Some(PathBuf::from(args.value("--warm-start")?)),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown argument `{other}` for `worker`"
                )));
            }
        }
    }
    Ok(Command::Worker(WorkerArgs {
        spec: spec.ok_or_else(|| CliError::Usage("`worker` requires `--spec`".to_string()))?,
        out: out.ok_or_else(|| CliError::Usage("`worker` requires `--out`".to_string()))?,
        warm_start,
    }))
}

fn parse_scaffold(rest: &[String]) -> Result<Command, CliError> {
    let mut args = Args::new(rest);
    let mut dir = PathBuf::from("scenarios");
    while let Some(arg) = args.next() {
        match arg {
            "--dir" => dir = PathBuf::from(args.value("--dir")?),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown argument `{other}` for `scaffold`"
                )));
            }
        }
    }
    Ok(Command::Scaffold(ScaffoldArgs { dir }))
}

fn parse_train(rest: &[String]) -> Result<Command, CliError> {
    let mut args = Args::new(rest);
    let mut train = TrainArgs {
        quick: false,
        episodes: None,
        out_dir: PathBuf::from("arms-out"),
        defences: Vec::new(),
        threads: None,
        workers: None,
    };
    while let Some(arg) = args.next() {
        match arg {
            "--quick" => train.quick = true,
            "--episodes" => {
                train.episodes = Some(positive(
                    "--episodes",
                    args.value("--episodes")?,
                    "an episode count ≥ 1",
                )?);
            }
            "--out-dir" => train.out_dir = PathBuf::from(args.value("--out-dir")?),
            "--defence" => train.defences.push(args.value("--defence")?.to_string()),
            "--workers" => {
                train.workers = Some(positive(
                    "--workers",
                    args.value("--workers")?,
                    "a worker count ≥ 1",
                )?);
            }
            "--threads" => {
                train.threads = Some(thread_count(args.value("--threads")?)?);
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown argument `{other}` for `train`"
                )));
            }
        }
    }
    Ok(Command::Train(train))
}

fn parse_check(rest: &[String]) -> Result<Command, CliError> {
    let mut args = Args::new(rest);
    let mut pool = PoolArgs::new("claims-out");
    while let Some(arg) = args.next() {
        if !pool.parse(arg, &mut args)? {
            return Err(CliError::Usage(format!(
                "unknown argument `{arg}` for `check`"
            )));
        }
    }
    Ok(Command::Check(pool))
}

/// Parses the command line (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some(subcommand) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match subcommand.as_str() {
        "run" => parse_run(rest),
        "resume" => parse_resume(rest),
        "grid" => parse_grid(rest),
        "worker" => parse_worker(rest),
        "scaffold" => parse_scaffold(rest),
        "train" => parse_train(rest),
        "check" => parse_check(rest),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(CliError::Usage(format!(
            "unknown subcommand `{other}` (try `collabsim help`)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_parses_spec_and_flags() {
        let Command::Run(run) = parse(&strings(&[
            "run",
            "a.spec",
            "--jsonl",
            "-",
            "--every",
            "10",
            "--set",
            "population = 50",
            "--print-report",
        ]))
        .unwrap() else {
            panic!("expected run");
        };
        assert_eq!(run.spec, PathBuf::from("a.spec"));
        assert_eq!(run.jsonl.as_deref(), Some("-"));
        assert_eq!(run.every, 10);
        assert!(run.print_report);
        assert_eq!(run.sets, vec![("population".to_string(), "50".to_string())]);
    }

    #[test]
    fn run_checkpoint_flags_must_come_in_pairs() {
        let Command::Run(run) = parse(&strings(&[
            "run",
            "a.spec",
            "--checkpoint-every",
            "25",
            "--store",
            "store-dir",
        ]))
        .unwrap() else {
            panic!("expected run");
        };
        assert_eq!(run.checkpoint_every, Some(25));
        assert_eq!(
            run.store.as_deref(),
            Some(std::path::Path::new("store-dir"))
        );

        let lonely_every =
            parse(&strings(&["run", "a.spec", "--checkpoint-every", "25"])).unwrap_err();
        assert_eq!(lonely_every.kind(), "usage");
        let lonely_store = parse(&strings(&["run", "a.spec", "--store", "d"])).unwrap_err();
        assert_eq!(lonely_store.kind(), "usage");
        let zero = parse(&strings(&[
            "run",
            "a.spec",
            "--checkpoint-every",
            "0",
            "--store",
            "d",
        ]))
        .unwrap_err();
        assert_eq!(zero.kind(), "invalid-flag");
    }

    #[test]
    fn resume_parses_snapshot_and_flags() {
        let Command::Resume(resume) = parse(&strings(&[
            "resume",
            "store/step0000000060-abc.snap",
            "--print-report",
            "--threads",
            "2",
        ]))
        .unwrap() else {
            panic!("expected resume");
        };
        assert_eq!(
            resume.snapshot,
            PathBuf::from("store/step0000000060-abc.snap")
        );
        assert!(resume.print_report);
        assert_eq!(resume.threads, Some(2));

        assert_eq!(parse(&strings(&["resume"])).unwrap_err().kind(), "usage");
        assert_eq!(
            parse(&strings(&["resume", "a.snap", "--bogus"]))
                .unwrap_err()
                .kind(),
            "usage"
        );
    }

    #[test]
    fn grid_parses_warm_start_and_resume() {
        let Command::Grid(grid) = parse(&strings(&[
            "grid",
            "cells/",
            "--warm-start",
            "base.snap",
            "--resume",
        ]))
        .unwrap() else {
            panic!("expected grid");
        };
        assert_eq!(grid.warm_start, Some(PathBuf::from("base.snap")));
        assert!(grid.resume);
    }

    #[test]
    fn train_parses_its_flags() {
        let Command::Train(train) = parse(&strings(&[
            "train",
            "--quick",
            "--episodes",
            "3",
            "--defence",
            "ledger",
            "--defence",
            "gossip",
            "--out-dir",
            "arms",
            "--workers",
            "2",
        ]))
        .unwrap() else {
            panic!("expected train");
        };
        assert!(train.quick);
        assert_eq!(train.episodes, Some(3));
        assert_eq!(train.defences, vec!["ledger", "gossip"]);
        assert_eq!(train.out_dir, PathBuf::from("arms"));
        assert_eq!(train.workers, Some(2));

        assert_eq!(
            parse(&strings(&["train", "--episodes", "0"]))
                .unwrap_err()
                .kind(),
            "invalid-flag"
        );
        assert_eq!(
            parse(&strings(&["train", "positional"]))
                .unwrap_err()
                .kind(),
            "usage"
        );
    }

    #[test]
    fn check_takes_only_the_grid_options_it_needs() {
        let Command::Check(check) = parse(&strings(&[
            "check",
            "--workers",
            "2",
            "--retries",
            "0",
            "--out-dir",
            "claims",
        ]))
        .unwrap() else {
            panic!("expected check");
        };
        assert_eq!(check.workers, Some(2));
        assert_eq!(check.retries, 0);
        assert_eq!(check.out_dir, PathBuf::from("claims"));
        for extra in ["--strict", "--warm-start", "claims.txt"] {
            let error = parse(&strings(&["check", extra])).unwrap_err();
            assert_eq!(error.kind(), "usage", "{extra}");
        }
    }

    #[test]
    fn invalid_workers_is_a_typed_error() {
        for value in ["0", "banana", "-3"] {
            let error = parse(&strings(&["grid", "a.spec", "--workers", value])).unwrap_err();
            assert_eq!(error.kind(), "invalid-flag", "--workers {value}");
            assert_eq!(error.exit_code(), 2);
        }
    }

    #[test]
    fn missing_positionals_are_usage_errors() {
        assert_eq!(parse(&strings(&["run"])).unwrap_err().kind(), "usage");
        assert_eq!(parse(&strings(&["grid"])).unwrap_err().kind(), "usage");
        assert_eq!(parse(&strings(&["worker"])).unwrap_err().kind(), "usage");
        assert_eq!(
            parse(&strings(&["frobnicate"])).unwrap_err().kind(),
            "usage"
        );
    }

    #[test]
    fn no_arguments_means_help() {
        assert!(matches!(parse(&[]).unwrap(), Command::Help));
        assert!(matches!(
            parse(&strings(&["--help"])).unwrap(),
            Command::Help
        ));
    }
}
