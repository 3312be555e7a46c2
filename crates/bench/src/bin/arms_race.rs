//! `arms_race` — the learning-adversary arms race, written as
//! `BENCH_arms.json`.
//!
//! Equilibrates one adversary-free base population, then for every
//! defence on the panel ([`ARMS_DEFENCES`]) runs episodic Q-learning
//! attackers ([`collabsim_cli::training`]) from the shared checkpoint,
//! freezes the learned policy (α = 0, zero adversary-RNG draws), and
//! evaluates the frozen attacker and the scripted `naive-whitewash`
//! opponent from the *same* checkpoint. Per defence the report carries:
//!
//! * **trained vs scripted damage** — measurement-phase bandwidth the
//!   attackers extracted plus destructive edits accepted,
//! * **retention** — mean sharing reputation the attackers held,
//! * **resets / updates / visited cells** — whitewash volume and how much
//!   of the Q-table the training actually explored.
//!
//! Acceptance gates (process exits 1 on violation):
//!
//! 1. The trained attacker strictly out-damages the scripted
//!    naive-whitewasher on at least one defence — learning must discover
//!    something scripting does not.
//! 2. EigenTrust with a pre-trusted set holds the scripted whitewasher to
//!    *less* retained reputation than stock EigenTrust — the pre-trusted
//!    core must blunt the identity-reset exploit.
//! 3. Aggregate steps/sec against `--baseline` (default tolerance 20 %).
//!
//! Flags: `--quick` (reduced scale), `--episodes <n>` (override episodes
//! per defence), `--out <path>` (default `BENCH_arms.json`),
//! `--csv <path>` (per-defence series), `--baseline <path>` +
//! `--max-regress <pct>`.
//!
//! [`ARMS_DEFENCES`]: collabsim_cli::training::ARMS_DEFENCES

use collabsim::json::Json;
use collabsim_bench::{write_and_gate, Args, Takes};
use collabsim_cli::training::{
    arms_scale, equilibrate_base, run_defence_arm, EvalOutcome, TrainedPolicy, ARMS_DEFENCES,
};
use std::fmt::Write as _;
use std::time::Instant;

struct ArmResult {
    defence: &'static str,
    trained_policy: TrainedPolicy,
    trained: EvalOutcome,
    scripted: EvalOutcome,
}

impl ArmResult {
    fn trained_wins(&self) -> bool {
        self.trained.damage() > self.scripted.damage()
    }
}

fn outcome_json(outcome: &EvalOutcome) -> Json {
    let metrics = &outcome.metrics;
    let retained = metrics.mean_reputation_retained();
    Json::object([
        ("damage", outcome.damage().into()),
        ("damage_bandwidth", metrics.damage_bandwidth.into()),
        ("destructive_accepted", metrics.destructive_accepted.into()),
        ("mean_reputation_retained", retained.into()),
        ("resets", outcome.stats.resets.into()),
    ])
}

fn report_json(
    results: &[ArmResult],
    equilibration_seconds: f64,
    total_steps_per_sec: f64,
) -> Json {
    let defences = results.iter().map(|r| {
        Json::object([
            ("defence", r.defence.into()),
            ("q_updates", r.trained_policy.updates.into()),
            ("visited_cells", r.trained_policy.visited_cells.into()),
            ("trained", outcome_json(&r.trained)),
            ("scripted", outcome_json(&r.scripted)),
            ("trained_beats_scripted", r.trained_wins().into()),
        ])
    });
    let wins = results.iter().filter(|r| r.trained_wins()).count();
    Json::object([
        ("bench", "arms_race".into()),
        ("defences", Json::Array(defences.collect())),
        ("trained_wins", wins.into()),
        ("base_equilibration_seconds", equilibration_seconds.into()),
        ("total_steps_per_sec", total_steps_per_sec.into()),
    ])
}

fn render_csv(results: &[ArmResult]) -> String {
    let mut out = String::from(
        "defence,trained_damage,scripted_damage,trained_retained,scripted_retained,\
         q_updates,visited_cells,trained_beats_scripted\n",
    );
    for r in results {
        let _ = writeln!(
            out,
            "{},{:.3},{:.3},{:.6},{:.6},{},{},{}",
            r.defence,
            r.trained.damage(),
            r.scripted.damage(),
            r.trained.metrics.mean_reputation_retained(),
            r.scripted.metrics.mean_reputation_retained(),
            r.trained_policy.updates,
            r.trained_policy.visited_cells,
            r.trained_wins(),
        );
    }
    out
}

fn main() {
    let args = Args::from_env(&[
        ("--quick", Takes::Nothing),
        ("--episodes", Takes::Count),
        ("--csv", Takes::Path),
    ]);
    let quick = args.has("--quick");
    let mut scale = arms_scale(quick);
    if let Some(episodes) = args.value("--episodes") {
        scale.episodes = episodes;
    }

    println!(
        "collabsim — arms_race [scale: {}]",
        if quick { "quick" } else { "full" }
    );
    println!(
        "(Q-learning attackers vs {} defences, {} peers, {} attackers, {} episodes/defence)",
        ARMS_DEFENCES.len(),
        scale.population,
        scale.adversaries,
        scale.episodes
    );
    println!();

    let equilibrating = Instant::now();
    let (_, checkpoint) = equilibrate_base(&scale).expect("base population equilibrates");
    let equilibration_seconds = equilibrating.elapsed().as_secs_f64();
    println!(
        "base: equilibrated through step {} in {equilibration_seconds:.2}s (shared by every arm)",
        checkpoint.state.step
    );

    let grid_started = Instant::now();
    let mut results = Vec::new();
    for defence in ARMS_DEFENCES {
        let (trained_policy, trained, scripted) =
            run_defence_arm(&scale, &checkpoint, defence).expect("defence arm runs");
        results.push(ArmResult {
            defence: defence.0,
            trained_policy,
            trained,
            scripted,
        });
    }
    // Every arm replays the measurement phase once per episode and twice
    // for evaluation, all forked off the shared checkpoint.
    let measured_steps = scale.phases.evaluation_steps * (scale.episodes as u64 + 2);
    let total_steps = scale.phases.training_steps + measured_steps * ARMS_DEFENCES.len() as u64;
    let total_steps_per_sec =
        total_steps as f64 / (equilibration_seconds + grid_started.elapsed().as_secs_f64());

    println!();
    println!(
        "{:<24} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "defence", "trained", "scripted", "t-retain", "s-retain", "updates", "visited"
    );
    for r in &results {
        println!(
            "{:<24} {:>10.2} {:>10.2} {:>10.4} {:>10.4} {:>8} {:>8}",
            r.defence,
            r.trained.damage(),
            r.scripted.damage(),
            r.trained.metrics.mean_reputation_retained(),
            r.scripted.metrics.mean_reputation_retained(),
            r.trained_policy.updates,
            r.trained_policy.visited_cells,
        );
    }
    println!();

    let wins = results.iter().filter(|r| r.trained_wins()).count();
    println!(
        "headline: trained attacker out-damages the scripted whitewasher on {wins}/{} defences",
        results.len()
    );
    let find = |defence: &str| {
        results
            .iter()
            .find(|r| r.defence == defence)
            .expect("panel covers the headline defences")
    };
    let stock = find("eigentrust");
    let pretrusted = find("eigentrust-pretrusted");
    let pretrusted_cuts_retention = pretrusted.scripted.metrics.mean_reputation_retained()
        < stock.scripted.metrics.mean_reputation_retained();
    println!(
        "          pre-trusted EigenTrust holds the whitewasher to {:.4} retained vs stock \
         {:.4} — {}",
        pretrusted.scripted.metrics.mean_reputation_retained(),
        stock.scripted.metrics.mean_reputation_retained(),
        if pretrusted_cuts_retention {
            "retention cut"
        } else {
            "NOT CUT"
        }
    );

    let report = report_json(&results, equilibration_seconds, total_steps_per_sec);
    let gated = write_and_gate(&report, "BENCH_arms.json", &args);
    if let Some(path) = args.value::<String>("--csv") {
        match std::fs::write(&path, render_csv(&results)) {
            Ok(()) => println!("(csv written to {path})"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }

    if wins == 0 {
        eprintln!(
            "acceptance violated: the trained attacker must out-damage the scripted \
             naive-whitewasher on at least one defence"
        );
        std::process::exit(1);
    }
    if !pretrusted_cuts_retention {
        eprintln!(
            "acceptance violated: pre-trusted EigenTrust must cut whitewasher retention \
             below stock EigenTrust"
        );
        std::process::exit(1);
    }
    if !gated {
        std::process::exit(1);
    }
}
