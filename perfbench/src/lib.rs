//! Closed-batch benchmark of the collabsim simulator.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload (see [`workloads`]) and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. With `--trace 0` the metrics are the end-to-end ones,
//! timed with tracing off; with `--trace 1` (the `perfbench-traced`
//! binary, which counts heap allocations) they are the per-layer ones of
//! an outside-in traced replay. `README.md` next to this crate explains
//! the workloads and what each metric should move.

pub mod alloc;
pub mod calib;
pub mod checks;
pub mod drive;
pub mod flow;
pub mod metrics;
pub mod trace;
pub mod workloads;

use checks::{default_pins, Pins};
use drive::{Harness, Plain, Totals, Traced, PHASES};
use flow::{require_equal_digests, run_pass, OpResult};
use metrics::{ratio, result_line, sum_of_medians, vm_hwm_mb, Metric};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{plan, Plan, Sizing, Workload, DEFAULT_SEED};

/// Command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed; every cell seed derives from it.
    pub seed: u64,
    /// Measurement budget of the untraced run, in seconds.
    pub seconds: f64,
    /// Whether to run the traced replay instead.
    pub trace: bool,
}

impl Options {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("`{flag}` expects a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
                "--seconds" => {
                    seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad seconds `{value}`"))?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("`--trace` expects 0 or 1, got `{value}`")),
                    }
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("`--workload` is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// What one invocation measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every operation of every pass, in order.
    pub ops: Vec<OpResult>,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable detail (the reduced trace, pass timings).
    pub detail: String,
}

impl Outcome {
    /// Operations that failed.
    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|op| op.error.is_some()).count()
    }

    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Parses and constructs every world the plan builds from spec text, then
/// drops them: one set-up sample, a reading per spec text.
fn setup_sample(plan: &Plan) -> Result<Vec<f64>, String> {
    let mut plain = Plain::default();
    for text in plan.spec_texts() {
        drop(plain.build(text)?);
    }
    Ok(plain.samples.builds)
}

fn steps_per_sec(totals: &Totals) -> f64 {
    ratio(totals.steps as f64, totals.stepping.as_secs_f64())
}

/// Passes an untraced run makes at least, so that every piece of work has
/// two readings or more to take the median of.
pub const MIN_PASSES: usize = 2;

/// Set-up samples a pass takes at least, after its operations: `scale`,
/// whose pass is one operation, takes this many after it.
const MIN_SETUP_SAMPLES: usize = 3;

/// The untraced run: passes over the closed batch until the next one, as
/// long as the longest so far, would end after `--seconds` (at least
/// [`MIN_PASSES`]). After every operation it also builds the workload's
/// worlds once more (or more often, to take [`MIN_SETUP_SAMPLES`] a pass):
/// more set-up samples, spread over the whole run.
///
/// Every pass times the same pieces of work: each build, each tenth of a
/// stepping stretch (and the evaluation reset and report build), each call
/// of a checkpoint round trip, each at the reference host speed
/// ([`calib`]). A metric takes every piece at its median reading of the
/// run and sums them.
pub fn run_untraced(options: &Options, sizing: &Sizing, pins: Option<&Pins>) -> Outcome {
    let plan = plan(options.workload, options.seed, sizing, None);
    let budget = Duration::from_secs_f64(options.seconds);
    let started = Instant::now();
    let (mut builds, mut failed_setups) = (Vec::new(), Vec::new());
    let (mut blocks, mut checkpoint_calls) = (Vec::new(), Vec::new());
    let mut ops = Vec::new();
    let mut detail = String::new();
    let mut first: Option<Vec<OpResult>> = None;
    let mut longest = Duration::ZERO;
    while blocks.len() < MIN_PASSES || started.elapsed() + longest <= budget {
        let pass_started = Instant::now();
        let mut plain = Plain::default();
        let mut sample_setup = || {
            for _ in 0..MIN_SETUP_SAMPLES.div_ceil(plan.operations()) {
                match setup_sample(&plan) {
                    Ok(sample) => builds.push(sample),
                    Err(error) => failed_setups.push(OpResult {
                        label: "setup".to_string(),
                        digest: None,
                        error: Some(error),
                    }),
                }
            }
        };
        let mut pass = run_pass(&mut plain, &plan, pins, &mut sample_setup);
        match &first {
            Some(reference) => require_equal_digests(reference, &mut pass, "repeated pass"),
            None => first = Some(pass.clone()),
        }
        ops.extend(pass);
        let totals = plain.totals();
        let elapsed = pass_started.elapsed();
        longest = longest.max(elapsed);
        detail.push_str(&format!(
            "pass {}: {:.3} s; {} steps at {:.6} /s, setup {:.6} s, resume {:.6} s (host time)\n",
            blocks.len(),
            elapsed.as_secs_f64(),
            totals.steps,
            steps_per_sec(&totals),
            totals.setup.as_secs_f64(),
            totals.resume.as_secs_f64(),
        ));
        builds.push(plain.samples.builds);
        blocks.push(plain.samples.blocks);
        checkpoint_calls.push(plain.samples.checkpoint_calls);
    }
    ops.extend(failed_setups);
    let steps: u64 = blocks[0].iter().map(|&(steps, _)| steps).sum();
    let block_secs: Vec<Vec<f64>> = blocks
        .iter()
        .map(|pass| pass.iter().map(|&(_, secs)| secs).collect())
        .collect();
    let metrics = vec![
        Metric::new(
            "steps_per_sec",
            "1/s",
            ratio(steps as f64, sum_of_medians(&block_secs)),
        ),
        Metric::new("setup_s", "s", sum_of_medians(&builds)),
        Metric::new("resume_s", "s", sum_of_medians(&checkpoint_calls)),
        Metric::new("peak_rss_mb", "MB", vm_hwm_mb()),
    ];
    detail.push_str(&format!(
        "{} passes in {:.3} s, {} set-up samples\n",
        blocks.len(),
        started.elapsed().as_secs_f64(),
        builds.len()
    ));
    Outcome {
        ops,
        metrics,
        detail,
    }
}

/// Phases whose second-core speed-up the traced `scale` replay reports.
const SPEEDUP_PHASES: [&str; 5] = ["sharing", "download", "edit-vote", "utility", "learning"];

/// The traced run: an outside-in traced replay (for `scale` also a second
/// one on one intra-step worker), then an untraced pass for the tracing
/// overhead. Every replay's digests must equal the first one's.
///
/// The untraced pass runs in this binary, with the counting allocator
/// installed, so `trace.overhead` is the cost of the spans and counter
/// reads alone; the allocator's atomic increment per allocation is paid on
/// both sides and left out.
pub fn run_traced(options: &Options, sizing: &Sizing, pins: Option<&Pins>) -> Outcome {
    let plan = plan(options.workload, options.seed, sizing, None);
    let mut traced = Traced::default();
    let reference = run_pass(&mut traced, &plan, pins, &mut || {});
    let mut ops = reference.clone();

    let mut speedups = [0.0; SPEEDUP_PHASES.len()];
    let mut detail = String::new();
    if options.workload == Workload::Scale {
        let one_worker = workloads::plan(options.workload, options.seed, sizing, Some(1));
        let mut sequential = Traced::default();
        let mut replay = run_pass(&mut sequential, &one_worker, pins, &mut || {});
        require_equal_digests(&reference, &mut replay, "one-worker replay");
        ops.extend(replay);
        let (two, one) = (traced.tracer.totals(), sequential.tracer.totals());
        for (speedup, phase) in speedups.iter_mut().zip(SPEEDUP_PHASES) {
            let self_ns = |totals: &BTreeMap<_, trace::SelfTime>| {
                totals.get(phase).map_or(0.0, |s| s.self_ns as f64)
            };
            *speedup = ratio(self_ns(&one), self_ns(&two));
        }
        detail.push_str("one-worker replay:\n");
        detail.push_str(&sequential.tracer.render());
    }

    let mut plain = Plain::default();
    let mut untraced = run_pass(&mut plain, &plan, pins, &mut || {});
    require_equal_digests(&reference, &mut untraced, "untraced");
    ops.extend(untraced);
    let overhead = 1.0
        - ratio(
            steps_per_sec(&traced.totals()),
            steps_per_sec(&plain.totals()),
        );

    detail.insert_str(0, &traced.tracer.render());
    Outcome {
        ops,
        metrics: per_layer_metrics(&traced, &speedups, overhead),
        detail,
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. Phases that do not
/// run on a workload report 0 (and 0 calls).
fn per_layer_metrics(traced: &Traced, speedups: &[f64], overhead: f64) -> Vec<Metric> {
    let spans = traced.tracer.totals();
    let self_s = |name: &str| spans.get(name).map_or(0.0, |s| s.self_ns as f64 / 1e9);
    let calls = |name: &str| spans.get(name).map_or(0.0, |s| s.calls as f64);
    let phase = |name: &str| traced.phases[drive::phase_slot(name)];
    let download = phase("download").counters;
    let churn = phase("churn").counters;
    let (resets, forced_steps) = traced.phases.iter().fold((0, 0), |(r, f), s| {
        (r + s.counters.resets, f + s.counters.forced_steps)
    });
    let rss = traced.rss;

    let mut m = vec![
        Metric::new("spec.parse_s", "s", self_s("spec.parse")),
        Metric::new("world.build_s", "s", self_s("world.build")),
    ];
    for name in PHASES {
        m.push(Metric::new(format!("{name}.self_s"), "s", self_s(name)));
        m.push(Metric::new(format!("{name}.calls"), "count", calls(name)));
    }
    m.extend([
        Metric::new(
            "learning.q_updates",
            "count",
            phase("learning").counters.q_updates as f64,
        ),
        Metric::new("download.completed", "count", download.completed as f64),
        Metric::new(
            "download.grants_offered",
            "bandwidth",
            download.grants_offered,
        ),
        Metric::new(
            "download.grants_applied",
            "bandwidth",
            download.grants_applied,
        ),
        Metric::new("download.grants_lost", "bandwidth", download.grants_lost),
        Metric::new(
            "download.grants_delayed",
            "bandwidth",
            download.grants_delayed,
        ),
        Metric::new(
            "download.applied_ratio",
            "ratio",
            ratio(download.grants_applied, download.grants_offered),
        ),
        Metric::new("download.failed", "count", download.failed as f64),
        Metric::new("download.timed_out", "count", download.timed_out as f64),
        Metric::new("download.rerouted", "count", download.rerouted as f64),
        Metric::new(
            "propagation.runs",
            "count",
            phase("propagation").counters.propagation_runs as f64,
        ),
        Metric::new("churn.joins", "count", churn.joins as f64),
        Metric::new("churn.leaves", "count", churn.leaves as f64),
        Metric::new("churn.whitewashes", "count", churn.whitewashes as f64),
        Metric::new("adversary.resets", "count", resets as f64),
        Metric::new("adversary.forced_steps", "count", forced_steps as f64),
        Metric::new(
            "engine.step_overhead_s",
            "s",
            self_s("engine.step_overhead"),
        ),
        Metric::new(
            "engine.reset_for_evaluation_s",
            "s",
            self_s("engine.reset_for_evaluation"),
        ),
        Metric::new("engine.build_report_s", "s", self_s("engine.build_report")),
        Metric::new("snapshot.capture_s", "s", self_s("snapshot.capture")),
        Metric::new("snapshot.encode_s", "s", self_s("snapshot.encode")),
        Metric::new("snapshot.decode_s", "s", self_s("snapshot.decode")),
        Metric::new("snapshot.rebuild_s", "s", self_s("snapshot.rebuild")),
        Metric::new("snapshot.apply_s", "s", self_s("snapshot.apply")),
        Metric::new("snapshot.bytes", "B", traced.snapshot_bytes as f64),
        Metric::new("rss.setup_mb", "MB", rss.setup_mb.unwrap_or(0.0)),
        Metric::new("rss.step_peak_mb", "MB", rss.step_peak_mb.unwrap_or(0.0)),
        Metric::new(
            "rss.checkpoint_peak_mb",
            "MB",
            rss.checkpoint_peak_mb.unwrap_or(0.0),
        ),
        Metric::new("trace.overhead", "ratio", overhead),
    ]);
    for (name, stats) in PHASES.iter().zip(&traced.phases) {
        m.push(Metric::new(
            format!("alloc.{name}.per_step"),
            "allocs/step",
            ratio(stats.allocations as f64, stats.warm_calls as f64),
        ));
    }
    for (name, speedup) in SPEEDUP_PHASES.iter().zip(speedups) {
        m.push(Metric::new(format!("{name}.speedup_2t"), "ratio", *speedup));
    }
    m
}

/// Entry point of both binaries. `traced_binary` says whether the counting
/// allocator is installed; `--trace 1` needs it.
pub fn main(traced_binary: bool) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match Options::parse(&args) {
        Ok(options) => options,
        Err(error) => {
            eprintln!("error: {error}");
            eprintln!(
                "usage: perfbench --workload <paper-mix|scale|contested> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if options.trace != traced_binary {
        eprintln!("error: --trace 1 runs perfbench-traced, --trace 0 runs perfbench");
        return ExitCode::from(2);
    }
    let pins = (options.seed == DEFAULT_SEED).then(default_pins);
    let sizing = Sizing::full();
    let outcome = if options.trace {
        run_traced(&options, &sizing, pins.as_ref())
    } else {
        run_untraced(&options, &sizing, pins.as_ref())
    };
    eprint!("{}", outcome.detail);
    for op in &outcome.ops {
        match (&op.error, op.digest) {
            (Some(error), _) => eprintln!("FAILED {}: {error}", op.label),
            (None, Some(digest)) => eprintln!("digest {} {digest:016x}", op.label),
            (None, None) => {}
        }
    }
    for metric in &outcome.metrics {
        eprintln!("{:<32} {:>18.6} {}", metric.name, metric.value, metric.unit);
    }
    println!(
        "{}",
        result_line(outcome.ops.len(), outcome.failed(), &outcome.metrics)
    );
    ExitCode::SUCCESS
}
