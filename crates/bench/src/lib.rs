//! Shared plumbing for the perf-gated bench binaries of collabsim.
//!
//! The six perf benches (`scale_population`, `paper_grid`, `churn_smoke`,
//! `fault_grid`, `attack_grid`, `arms_race`) build their `BENCH_*.json`
//! report as a [`Json`] value and end in [`write_and_gate`], which writes
//! it to `--out` and, given `--baseline`, gates every throughput the
//! baseline (an earlier report of the same bench) holds against the same
//! entry of the new report. Each binary reads its command line with
//! [`Args`], which refuses any flag it does not take. The paper's figures
//! are not benches: `collabsim check` checks them
//! ([`collabsim_cli::claims`]).

use collabsim::json::Json;
use collabsim::Simulation;
use collabsim_cli::runner::floor_verdict;
use collabsim_cli::CliError;
use std::str::FromStr;

/// What follows a bench flag on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Takes {
    /// Nothing: the flag is a switch (`--quick`).
    Nothing,
    /// A path (`--out BENCH_scale.json`).
    Path,
    /// A finite number (`--max-regress 20`).
    Number,
    /// A whole number (`--episodes 2`).
    Count,
    /// Comma-separated whole numbers (`--tiers 10000,1000000`).
    Counts,
}

/// The flags [`write_and_gate`] reads, which every bench binary takes.
const GATE_FLAGS: [(&str, Takes); 3] = [
    ("--out", Takes::Path),
    ("--baseline", Takes::Path),
    ("--max-regress", Takes::Number),
];

/// A bench binary's command line, checked against the flags it takes.
#[derive(Debug)]
pub struct Args {
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Reads the process's command line against `flags` and the gate
    /// flags; a mistake prints its `error[...]` line and exits 2.
    pub fn from_env(flags: &[(&str, Takes)]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args, flags).unwrap_or_else(|error| {
            eprintln!("{error}");
            std::process::exit(error.exit_code());
        })
    }

    /// Reads `args` (the command line after the program name) against
    /// `flags` and the gate flags. An unknown flag, a flag without its
    /// value and a value that does not parse as the flag [`Takes`] are
    /// errors naming the flag.
    pub fn parse(args: &[String], flags: &[(&str, Takes)]) -> Result<Self, CliError> {
        let mut given = Vec::new();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let takes = flags
                .iter()
                .chain(&GATE_FLAGS)
                .find_map(|&(name, takes)| (name == flag).then_some(takes))
                .ok_or_else(|| CliError::Usage(format!("unknown flag `{flag}`")))?;
            let value = if takes == Takes::Nothing {
                None
            } else {
                let value = rest
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("`{flag}` requires a value")))?;
                check_value(flag, value, takes)?;
                Some(value.clone())
            };
            given.push((flag.clone(), value));
        }
        Ok(Self { given })
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(name, _)| name == flag)
    }

    /// The last value given for `flag`, as the type its [`Takes`] checked.
    pub fn value<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.raw(flag).map(|value| parsed(flag, value))
    }

    /// The entries of the last comma-separated list given for `flag`.
    pub fn list<T: FromStr>(&self, flag: &str) -> Option<Vec<T>> {
        self.raw(flag)
            .map(|list| list.split(',').map(|entry| parsed(flag, entry)).collect())
    }

    fn raw(&self, flag: &str) -> Option<&str> {
        self.given
            .iter()
            .rev()
            .find(|(name, _)| name == flag)
            .and_then(|(_, value)| value.as_deref())
    }
}

fn parsed<T: FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| panic!("`{flag}` {value:?} was checked by Args::parse"))
}

/// Refuses a `value` for `flag` that does not parse as `takes`, naming
/// the entry of a list that does not.
fn check_value(flag: &str, value: &str, takes: Takes) -> Result<(), CliError> {
    let whole = |entry: &str| entry.parse::<u64>().is_ok();
    let (refused, expected) = match takes {
        Takes::Nothing | Takes::Path => (None, ""),
        Takes::Number => (
            (!value.parse::<f64>().is_ok_and(f64::is_finite)).then_some(value),
            "a finite number",
        ),
        Takes::Count => ((!whole(value)).then_some(value), "a whole number"),
        Takes::Counts => (
            value.split(',').find(|entry| !whole(entry)),
            "comma-separated whole numbers",
        ),
    };
    match refused {
        None => Ok(()),
        Some(value) => Err(CliError::InvalidFlag {
            flag: flag.to_string(),
            value: value.to_string(),
            expected: expected.to_string(),
        }),
    }
}

/// Per-phase wall-clock seconds of a run made through
/// [`collabsim_cli::runner`], as a JSON object in pipeline order.
pub fn phase_seconds(sim: &Simulation) -> Json {
    let totals = collabsim_cli::runner::phase_timings(sim).totals();
    let seconds = totals
        .iter()
        .map(|(name, duration, _)| (*name, duration.as_secs_f64().into()));
    Json::object(seconds)
}

/// Prints one row per phase of a [`phase_seconds`] object.
pub fn print_phases(phases: &Json) {
    for (name, seconds) in phases.as_object().unwrap_or_default() {
        println!(
            "    {name:<12} {:>8.3}s",
            seconds.number::<f64>().unwrap_or_default()
        );
    }
}

/// Writes `report` to `--out` (default `default_out`) and, given
/// `--baseline <path>`, gates it against that earlier report of the same
/// bench with the `--max-regress <pct>` tolerance (default 20 %). Returns
/// `false` on a regression or a baseline that compares nothing.
pub fn write_and_gate(report: &Json, default_out: &str, args: &Args) -> bool {
    let out_path = args
        .value("--out")
        .unwrap_or_else(|| default_out.to_string());
    match std::fs::write(&out_path, format!("{report}\n")) {
        Ok(()) => println!("\n(report written to {out_path})"),
        Err(e) => eprintln!("failed to write {out_path}: {e}"),
    }
    let Some(baseline_path) = args.value::<String>("--baseline") else {
        return true;
    };
    let max_regress = args.value("--max-regress").unwrap_or(20.0);
    println!();
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => Json::parse(&text).map_err(|e| format!("not JSON: {e}")),
        Err(e) => Err(e.to_string()),
    };
    let mut verdicts = Vec::new();
    match baseline {
        Ok(baseline) => gate(
            Some(report),
            &baseline,
            "aggregate",
            max_regress,
            &mut verdicts,
        ),
        Err(message) => eprintln!("baseline {baseline_path}: {message}"),
    }
    if verdicts.is_empty() {
        eprintln!("baseline {baseline_path} gated nothing in this report");
        return false;
    }
    let ok = verdicts.iter().all(|&ok| ok);
    if !ok {
        eprintln!(
            "steps/sec or peak RSS regressed more than {max_regress}% against {baseline_path}"
        );
    }
    ok
}

/// Gates every throughput in `baseline` (a `steps_per_sec` or
/// `total_steps_per_sec` member) against the same place in `current`,
/// reached by key through objects and by `label` or `peers` through
/// arrays; an object carrying `peak_rss_mb` on both sides is also held
/// under its RSS ceiling. Pushes one verdict per comparison.
fn gate(
    current: Option<&Json>,
    baseline: &Json,
    name: &str,
    max_regress: f64,
    verdicts: &mut Vec<bool>,
) {
    match baseline {
        Json::Object(members) => {
            for (key, reference) in members {
                let entry = current.and_then(|c| c.get(key));
                if key != "steps_per_sec" && key != "total_steps_per_sec" {
                    gate(entry, reference, key, max_regress, verdicts);
                } else if let (Some(now), Some(then)) =
                    (entry.and_then(Json::number), reference.number())
                {
                    let (ok, line) = floor_verdict(name, now, then, max_regress);
                    println!("{line}");
                    verdicts.push(ok);
                    let rss = |json: Option<&Json>| json?.get("peak_rss_mb")?.number();
                    if let (Some(now), Some(then)) = (rss(current), rss(Some(baseline))) {
                        verdicts.push(gate_rss_ceiling(name, now, then, max_regress));
                    }
                } else {
                    println!("{name}: not in this run (skipping the regression check)");
                }
            }
        }
        Json::Array(references) => {
            let entries = current.and_then(Json::as_array).unwrap_or_default();
            for reference in references {
                let matched = ["label", "peers"]
                    .into_iter()
                    .find_map(|by| Some((by, reference.get(by)?)));
                if let Some((by, id)) = matched {
                    let entry = entries.iter().find(|entry| entry.get(by) == Some(id));
                    let name = id
                        .as_str()
                        .map_or_else(|| format!("{by} {id}"), str::to_string);
                    gate(entry, reference, &name, max_regress, verdicts);
                }
            }
        }
        _ => {}
    }
}

/// Ceiling gate on peak RSS: prints the verdict line and returns whether
/// `current` stays under `recorded × (1 + max_regress_pct/100)`.
fn gate_rss_ceiling(name: &str, current: f64, recorded: f64, max_regress_pct: f64) -> bool {
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

    fn parse(text: &str) -> Json {
        Json::parse(text).expect("test JSON parses")
    }

    fn line(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    const SCALE_FLAGS: [(&str, Takes); 4] = [
        ("--quick", Takes::Nothing),
        ("--tiers", Takes::Counts),
        ("--train", Takes::Count),
        ("--eval", Takes::Count),
    ];

    #[test]
    fn flags_read_as_they_are_declared() {
        let args = Args::parse(
            &line("--quick --tiers 10000,1000000 --train 3 --out a.json --out b.json --max-regress 7.5"),
            &SCALE_FLAGS,
        )
        .expect("every flag is declared");
        assert!(args.has("--quick"));
        assert_eq!(args.list::<usize>("--tiers"), Some(vec![10_000, 1_000_000]));
        assert_eq!(args.value::<u64>("--train"), Some(3));
        assert_eq!(args.value::<u64>("--eval"), None);
        assert_eq!(
            args.value::<String>("--out").as_deref(),
            Some("b.json"),
            "the last value wins"
        );
        assert_eq!(args.value::<f64>("--max-regress"), Some(7.5));
        assert!(!Args::parse(&[], &SCALE_FLAGS).unwrap().has("--quick"));
    }

    #[test]
    fn mistakes_exit_2_naming_the_flag() {
        for (text, kind, named) in [
            ("--tiers 10000,1e6", "invalid-flag", "`1e6` for `--tiers`"),
            ("--tiers 10000,", "invalid-flag", "`` for `--tiers`"),
            ("--max-regress twenty", "invalid-flag", "`--max-regress`"),
            ("--max-regress NaN", "invalid-flag", "`--max-regress`"),
            ("--train -3", "invalid-flag", "`--train`"),
            ("--eval 2.5", "invalid-flag", "`--eval`"),
            ("--baselien base.json", "usage", "`--baselien`"),
            ("--csv figure.csv", "usage", "`--csv`"),
            ("stray", "usage", "`stray`"),
            ("--quick --baseline", "usage", "`--baseline` requires"),
        ] {
            let error = Args::parse(&line(text), &SCALE_FLAGS).unwrap_err();
            assert_eq!(error.exit_code(), 2, "{text}");
            assert_eq!(error.kind(), kind, "{text}");
            assert!(error.to_string().contains(named), "{text}: {error}");
        }
    }

    #[test]
    fn every_checked_in_baseline_parses() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
        let mut parsed = 0;
        for entry in std::fs::read_dir(&dir).expect("baselines directory") {
            let path = entry.expect("directory entry").path();
            let text = std::fs::read_to_string(&path).expect("baseline reads");
            let baseline = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(baseline.get("bench").and_then(Json::as_str).is_some());
            parsed += 1;
        }
        assert_eq!(parsed, 6, "one baseline per perf bench");
    }

    #[test]
    fn gates_compare_against_floor_and_ceiling() {
        assert!(floor_verdict("t", 90.0, 100.0, 20.0).0);
        assert!(!floor_verdict("t", 70.0, 100.0, 20.0).0);
        assert!(gate_rss_ceiling("t", 110.0, 100.0, 20.0));
        assert!(!gate_rss_ceiling("t", 130.0, 100.0, 20.0));
    }

    /// Runs the gate on two JSON texts; `None` when nothing was compared.
    fn check(current: &str, baseline: &str) -> Option<bool> {
        let mut verdicts = Vec::new();
        gate(
            Some(&parse(current)),
            &parse(baseline),
            "t",
            20.0,
            &mut verdicts,
        );
        (!verdicts.is_empty()).then(|| verdicts.iter().all(|&ok| ok))
    }

    #[test]
    fn entries_are_matched_by_label_peers_or_path() {
        let tiers = r#"{"tiers": [{"peers": 10, "steps_per_sec": 100.0, "peak_rss_mb": 50.0},
                                  {"peers": 20, "steps_per_sec": 1e3}]}"#;
        let run = |current: &str| check(current, tiers);
        assert_eq!(
            run(r#"{"tiers": [{"peers": 10, "steps_per_sec": 85.0}]}"#),
            Some(true)
        );
        assert_eq!(
            run(r#"{"tiers": [{"peers": 20, "steps_per_sec": 700.0}]}"#),
            Some(false),
            "the exponent form reads as 1000"
        );
        assert_eq!(
            run(r#"{"tiers": [{"peers": 10, "steps_per_sec": 85.0, "peak_rss_mb": 70.0}]}"#),
            Some(false),
            "RSS past the ceiling"
        );
        assert_eq!(
            run(r#"{"tiers": [{"peers": 30, "steps_per_sec": 1.0}]}"#),
            None
        );

        let cells = r#"{"_note": "x", "cells": [{"label": "a", "steps_per_sec": 8000.0}]}"#;
        let current = r#"{"cells": [{"label": "b", "steps_per_sec": 1.0},
                                    {"label": "a", "steps_per_sec": 6000.0}]}"#;
        assert_eq!(check(current, cells), Some(false));

        let paper = r#"{"paper_cell": {"steps_per_sec": 9400.0}}"#;
        let current = r#"{"paper_cell": {"steps_per_sec": 7600.0}, "total_steps_per_sec": 5.0}"#;
        assert_eq!(check(current, paper), Some(true));
        assert_eq!(
            check(current, r#"{"total_steps_per_sec": 6.0}"#),
            Some(true)
        );
        assert_eq!(
            check(current, r#"{"total_steps_per_sec": 7.0}"#),
            Some(false)
        );
        assert_eq!(
            check(current, r#"{"bench": "x"}"#),
            None,
            "nothing to compare"
        );
    }
}
