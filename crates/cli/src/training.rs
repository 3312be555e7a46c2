//! The arms-race training harness: episodic Q-learning attackers against
//! a panel of defence configurations.
//!
//! The harness equilibrates one adversary-free base population through the
//! training phase ([`equilibrate_base`]), then reuses that checkpoint for
//! every defence arm and every episode via
//! [`Snapshot::with_spec`] — the warm-start
//! primitive the grid coordinator already speaks. One **episode** forks
//! the checkpoint onto the training spec (learning adversaries, α > 0),
//! injects the policy the previous episode ended with, and runs the
//! remaining protocol; the Q-table the roster exports at the end seeds the
//! next episode. After the last episode the policy is **frozen**: re-specced
//! onto an α = 0 cell ([`frozen_snapshot`]) whose greedy replay draws
//! nothing from the adversary RNG stream, so the evaluation is exactly as
//! deterministic as a scripted strategy — `collabsim train` demonstrates
//! this by dispatching the frozen cell through the multi-process grid
//! coordinator and string-comparing the worker's report with the
//! in-process replay.
//!
//! The defence axis ([`ARMS_DEFENCES`]) spans the spec-level `defence`
//! sugar: the paper's globally visible ledger, stock EigenTrust and
//! gossip propagation feeding service differentiation, EigenTrust with a
//! pre-trusted set (the whitewash countermeasure), and the offline
//! reputation-uptime discount.
//!
//! [`Snapshot::with_spec`]: collabsim::Snapshot::with_spec

use crate::error::CliError;
use crate::runner;
use collabsim::adversary::{AdversarySpec, AttackMetricsObserver, UnitAttackMetrics};
use collabsim::config::PhaseConfig;
use collabsim::{
    apply_defence, AttackStats, BehaviorMix, PolicyState, ScenarioSpec, Simulation,
    SimulationConfig, SimulationReport, Snapshot,
};

/// Seed of every arms-race cell (base, training and evaluation share it —
/// warm-start forks require the same deterministic population).
pub const ARMS_SEED: u64 = 0xA2A5_0C1A;

/// Learning rate of the training episodes (frozen evaluation uses 0).
pub const TRAIN_ALPHA: f64 = 0.3;

/// Reset probability of the scripted `naive-whitewash` opponent the
/// trained attacker is measured against.
pub const SCRIPTED_WHITEWASH_PROBABILITY: f64 = 0.02;

/// The defence panel: `(key, spec defence value)`. Keys are stable labels
/// for reports and file names; values expand through
/// [`apply_defence`].
pub const ARMS_DEFENCES: [(&str, &str); 5] = [
    ("ledger", "ledger"),
    ("eigentrust", "eigentrust"),
    ("eigentrust-pretrusted", "eigentrust-pretrusted=4"),
    ("gossip", "gossip"),
    ("uptime-discount", "uptime-discount=0.9"),
];

/// Population / roster / episode sizing of the arms race.
#[derive(Clone, Copy, Debug)]
pub struct ArmsScale {
    /// Total peers per cell.
    pub population: usize,
    /// Peers in the (single) adversary unit.
    pub adversaries: usize,
    /// Training episodes per defence.
    pub episodes: usize,
    /// Phase lengths: the training phase is the shared equilibration
    /// prefix, the evaluation phase is the per-episode length.
    pub phases: PhaseConfig,
}

/// The `arms_race` sizing: 32 peers / 3 attackers / 4 episodes when
/// `quick`, 40 peers / 4 attackers / 8 episodes otherwise.
pub fn arms_scale(quick: bool) -> ArmsScale {
    if quick {
        ArmsScale {
            population: 32,
            adversaries: 3,
            episodes: 4,
            phases: PhaseConfig {
                training_steps: 300,
                evaluation_steps: 200,
                ..Default::default()
            },
        }
    } else {
        ArmsScale {
            population: 40,
            adversaries: 4,
            episodes: 8,
            phases: PhaseConfig {
                training_steps: 500,
                evaluation_steps: 300,
                ..Default::default()
            },
        }
    }
}

fn arms_config(scale: &ArmsScale, defence: &str) -> SimulationConfig {
    let mut config = SimulationConfig {
        population: scale.population,
        initial_articles: scale.population / 2,
        phases: scale.phases,
        mix: BehaviorMix::new(0.5, 0.3, 0.2),
        seed: ARMS_SEED,
        ..Default::default()
    };
    apply_defence(&mut config, defence).expect("arms defence values are valid");
    config
}

/// The adversary-free base population every arm equilibrates from. The
/// base runs under the `ledger` defence — propagated arms fall back to
/// the ledger until their first propagation round anyway, so one shared
/// checkpoint serves the whole panel.
pub fn arms_base_spec(scale: &ArmsScale) -> ScenarioSpec {
    ScenarioSpec::from_config(arms_config(scale, "ledger"))
        .expect("arms base config is valid")
        .with_label("arms/base")
}

/// One training cell: the learning adversary at [`TRAIN_ALPHA`] under the
/// given defence.
pub fn arms_train_spec(scale: &ArmsScale, defence: (&str, &str)) -> ScenarioSpec {
    let mut config = arms_config(scale, defence.1);
    config.adversaries =
        vec![AdversarySpec::new("learning", scale.adversaries).with_parameter(TRAIN_ALPHA)];
    ScenarioSpec::from_config(config)
        .expect("arms training configs are valid")
        .with_label(format!("arms/{}/train", defence.0))
}

/// One frozen-evaluation cell: the learning adversary at α = 0 (greedy
/// replay, zero adversary-RNG draws) under the given defence.
pub fn arms_frozen_spec(scale: &ArmsScale, defence: (&str, &str)) -> ScenarioSpec {
    let mut config = arms_config(scale, defence.1);
    config.adversaries =
        vec![AdversarySpec::new("learning", scale.adversaries).with_parameter(0.0)];
    ScenarioSpec::from_config(config)
        .expect("arms frozen configs are valid")
        .with_label(format!("arms/{}/trained", defence.0))
}

/// The scripted opponent cell: `naive-whitewash` at the same roster size
/// under the given defence.
pub fn arms_scripted_spec(scale: &ArmsScale, defence: (&str, &str)) -> ScenarioSpec {
    let mut config = arms_config(scale, defence.1);
    config.adversaries = vec![AdversarySpec::new("naive-whitewash", scale.adversaries)
        .with_parameter(SCRIPTED_WHITEWASH_PROBABILITY)];
    ScenarioSpec::from_config(config)
        .expect("arms scripted configs are valid")
        .with_label(format!("arms/{}/scripted", defence.0))
}

/// Equilibrates the adversary-free base population through its training
/// phase and returns the spec together with the checkpoint every arm
/// forks from.
pub fn equilibrate_base(scale: &ArmsScale) -> Result<(ScenarioSpec, Snapshot), CliError> {
    let base = arms_base_spec(scale);
    let mut sim =
        Simulation::from_spec(&base).map_err(|error| CliError::Spec { path: None, error })?;
    sim.run_training();
    let checkpoint = sim.snapshot(&base);
    Ok((base, checkpoint))
}

/// One defence arm's training outcome.
#[derive(Debug, Clone)]
pub struct TrainedPolicy {
    /// Per-unit exported policies after the final episode.
    pub policies: Vec<Option<PolicyState>>,
    /// Q-updates accumulated across all episodes (unit 0).
    pub updates: u64,
    /// Q-cells driven away from zero (unit 0) — a coverage proxy.
    pub visited_cells: usize,
}

/// Runs `episodes` training episodes of `train_spec` against the shared
/// `checkpoint`, threading the exported policy from each episode into the
/// next. Every episode replays the same equilibrated prefix (same RNG
/// stream states), so episode-to-episode differences come from the policy
/// alone — the learner explores because its Boltzmann distribution shifts
/// as the Q-table fills in.
pub fn train_against(
    checkpoint: &Snapshot,
    train_spec: &ScenarioSpec,
    episodes: usize,
) -> Result<TrainedPolicy, CliError> {
    let mut policies: Option<Vec<Option<PolicyState>>> = None;
    for _ in 0..episodes.max(1) {
        let fork = checkpoint.with_spec(train_spec);
        let mut sim =
            Simulation::resume_from(&fork).map_err(|error| runner::snapshot_err(None, error))?;
        if let Some(prev) = &policies {
            sim.world_mut().adversaries.restore_policies(prev);
        }
        sim.finish();
        policies = Some(sim.world().adversaries.export_policies());
    }
    let policies = policies.expect("at least one episode ran");
    let lead = policies[0]
        .as_ref()
        .expect("learning unit exports a policy");
    Ok(TrainedPolicy {
        updates: lead.updates,
        visited_cells: lead.q.iter().filter(|&&v| v != 0.0).count(),
        policies: policies.clone(),
    })
}

/// Builds the frozen-evaluation snapshot: the shared checkpoint forked
/// onto `frozen_spec` with the trained Q-tables injected. Per-peer
/// trajectories are dropped — they describe where the *training* episode
/// ended, not where the evaluation starts — so the frozen replay begins
/// from clean slates and is a pure function of the Q-table.
pub fn frozen_snapshot(
    checkpoint: &Snapshot,
    frozen_spec: &ScenarioSpec,
    trained: &[Option<PolicyState>],
) -> Snapshot {
    let mut fork = checkpoint.with_spec(frozen_spec);
    fork.state.adversary_policies = trained
        .iter()
        .map(|policy| {
            policy.as_ref().map(|policy| PolicyState {
                per_peer: Vec::new(),
                ..policy.clone()
            })
        })
        .collect();
    fork
}

/// Measured outcome of one evaluation cell (trained or scripted).
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// Attack metrics of unit 0 over the measured phase.
    pub metrics: UnitAttackMetrics,
    /// The unit's attack counters at the end of the run.
    pub stats: AttackStats,
    /// The deterministic report.
    pub report: SimulationReport,
}

impl EvalOutcome {
    /// The headline damage number: bandwidth the attackers extracted
    /// during measurement plus the destructive edits they landed.
    pub fn damage(&self) -> f64 {
        self.metrics.damage_bandwidth + self.metrics.destructive_accepted as f64
    }
}

/// Resumes an evaluation fork with an [`AttackMetricsObserver`] attached
/// and runs it to completion.
pub fn evaluate_fork(fork: &Snapshot) -> Result<EvalOutcome, CliError> {
    let mut sim =
        Simulation::resume_from(fork).map_err(|error| runner::snapshot_err(None, error))?;
    sim.add_observer(AttackMetricsObserver::new());
    let report = sim.finish();
    let stats = *sim.world().adversaries.units()[0].stats();
    let observer: &AttackMetricsObserver = sim.observer(0).expect("attached above");
    Ok(EvalOutcome {
        metrics: observer.metrics()[0].clone(),
        stats,
        report,
    })
}

/// Trains one defence arm end to end and evaluates the frozen policy and
/// the scripted opponent from the same checkpoint. Returns
/// `(trained policy, trained outcome, scripted outcome)`.
pub fn run_defence_arm(
    scale: &ArmsScale,
    checkpoint: &Snapshot,
    defence: (&str, &str),
) -> Result<(TrainedPolicy, EvalOutcome, EvalOutcome), CliError> {
    let trained = train_against(checkpoint, &arms_train_spec(scale, defence), scale.episodes)?;
    let frozen = frozen_snapshot(
        checkpoint,
        &arms_frozen_spec(scale, defence),
        &trained.policies,
    );
    let trained_outcome = evaluate_fork(&frozen)?;
    let scripted_fork = checkpoint.with_spec(&arms_scripted_spec(scale, defence));
    let scripted_outcome = evaluate_fork(&scripted_fork)?;
    Ok((trained, trained_outcome, scripted_outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> ArmsScale {
        ArmsScale {
            population: 20,
            adversaries: 2,
            episodes: 2,
            phases: PhaseConfig {
                training_steps: 60,
                evaluation_steps: 50,
                ..Default::default()
            },
        }
    }

    #[test]
    fn every_arm_spec_round_trips_and_shares_the_population() {
        let scale = arms_scale(true);
        let base = arms_base_spec(&scale);
        for defence in ARMS_DEFENCES {
            for spec in [
                arms_train_spec(&scale, defence),
                arms_frozen_spec(&scale, defence),
                arms_scripted_spec(&scale, defence),
            ] {
                let reparsed = ScenarioSpec::parse(&spec.to_text()).expect("round trips");
                assert_eq!(reparsed.to_text(), spec.to_text());
                assert_eq!(spec.config().population, base.config().population);
                assert_eq!(spec.config().seed, base.config().seed);
            }
        }
    }

    #[test]
    fn training_accumulates_updates_across_episodes() {
        let scale = tiny_scale();
        let (_, checkpoint) = equilibrate_base(&scale).unwrap();
        let spec = arms_train_spec(&scale, ARMS_DEFENCES[0]);
        let one = train_against(&checkpoint, &spec, 1).unwrap();
        let two = train_against(&checkpoint, &spec, 2).unwrap();
        assert!(one.updates > 0, "an episode must update the table");
        assert!(
            two.updates > one.updates,
            "the second episode must build on the first ({} vs {})",
            two.updates,
            one.updates
        );
    }

    #[test]
    fn frozen_evaluation_is_deterministic_and_carries_the_policy() {
        let scale = tiny_scale();
        let (_, checkpoint) = equilibrate_base(&scale).unwrap();
        let defence = ARMS_DEFENCES[0];
        let trained = train_against(
            &checkpoint,
            &arms_train_spec(&scale, defence),
            scale.episodes,
        )
        .unwrap();
        let frozen = frozen_snapshot(
            &checkpoint,
            &arms_frozen_spec(&scale, defence),
            &trained.policies,
        );
        // The fork must survive the wire format (the grid coordinator
        // hands it to workers as a file).
        let decoded = Snapshot::decode(&frozen.encode()).expect("frozen fork encodes");
        let a = evaluate_fork(&frozen).unwrap();
        let b = evaluate_fork(&decoded).unwrap();
        assert_eq!(
            a.report, b.report,
            "frozen replay must be bit-identical across the codec"
        );
        // Trajectories were dropped; the Q-table was not.
        let policy = decoded.state.adversary_policies[0].as_ref().unwrap();
        assert!(policy.per_peer.is_empty());
        assert!(policy.q.iter().any(|&v| v != 0.0));
    }
}
