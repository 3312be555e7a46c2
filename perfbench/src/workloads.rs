//! The three workloads and the inputs they generate from the seed.
//!
//! A workload is a closed batch: a fixed list of scenario specs, run one
//! after another on one thread of control. Its inputs are spec *texts* —
//! setting up a world means parsing that text and constructing the world,
//! exactly what a user of `collabsim run` waits for.

use collabsim::adversary::AdversarySpec;
use collabsim::{apply_defence, BehaviorMix, PhaseConfig, ScenarioSpec, SimulationConfig};
use collabsim_cli::scenarios::paper_mix_cells;
use collabsim_cli::training::ARMS_DEFENCES;
use collabsim_netsim::churn::ChurnModel;
use collabsim_netsim::fault::LinkModel;

/// The seed whose report digests are pinned in `pinned_digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 18 Figure 4–5 mix cells at paper length, one after another.
    PaperMix,
    /// One 10⁵-peer `large_population` run on two intra-step workers.
    Scale,
    /// A churned, lossy 10³-peer base forked onto five attacked defences.
    Contested,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::PaperMix, Workload::Scale, Workload::Contested];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper-mix",
            Workload::Scale => "scale",
            Workload::Contested => "contested",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The sizes of every workload. [`Sizing::full`] is what the benchmark
/// measures; [`Sizing::tiny`] runs the same flows in well under a second
/// for the benchmark's own tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Phase lengths of each paper-mix cell.
    pub paper_phases: PhaseConfig,
    /// How many of the 18 mix cells to run.
    pub paper_cells: usize,
    /// Peers of the scale run.
    pub scale_peers: usize,
    /// Phase lengths of the scale run.
    pub scale_phases: PhaseConfig,
    /// Peers of the contested base population.
    pub contested_peers: usize,
    /// Contested phase lengths: training equilibrates the base once,
    /// evaluation is what each fork runs.
    pub contested_phases: PhaseConfig,
    /// Peers in each of the two attacking units of every contested fork.
    pub contested_attackers: usize,
}

impl Sizing {
    /// The measured sizes.
    pub fn full() -> Self {
        Self {
            paper_phases: PhaseConfig::default(),
            paper_cells: 18,
            scale_peers: 100_000,
            scale_phases: SimulationConfig::large_population(100_000).phases,
            contested_peers: 1_000,
            contested_phases: PhaseConfig {
                training_steps: 600,
                evaluation_steps: 300,
                ..Default::default()
            },
            contested_attackers: 20,
        }
    }

    /// Test sizes: every flow and every layer still runs.
    pub fn tiny() -> Self {
        Self {
            paper_phases: PhaseConfig {
                training_steps: 60,
                evaluation_steps: 40,
                ..Default::default()
            },
            paper_cells: 3,
            scale_peers: 5_000,
            scale_phases: PhaseConfig {
                training_steps: 4,
                evaluation_steps: 3,
                ..Default::default()
            },
            contested_peers: 60,
            contested_phases: PhaseConfig {
                training_steps: 120,
                evaluation_steps: 80,
                ..Default::default()
            },
            contested_attackers: 3,
        }
    }
}

/// What a workload runs.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Independent cells, each built from its spec text, trained,
    /// checkpointed at the training → evaluation reset and finished from
    /// the decoded copy.
    Cells(Vec<String>),
    /// One base built from its spec text and trained once, then forked
    /// through `Snapshot::with_spec` → encode → decode → resume onto each
    /// fork spec, which runs the evaluation phase.
    Forks {
        /// Spec text of the base population.
        base: String,
        /// The fork specs (same population and seed as the base).
        forks: Vec<ScenarioSpec>,
    },
}

impl Plan {
    /// Operations a pass runs: every cell, or the base and every fork.
    pub fn operations(&self) -> usize {
        match self {
            Plan::Cells(texts) => texts.len(),
            Plan::Forks { forks, .. } => 1 + forks.len(),
        }
    }

    /// Every spec text the workload builds a world from.
    pub fn spec_texts(&self) -> Vec<&str> {
        match self {
            Plan::Cells(texts) => texts.iter().map(String::as_str).collect(),
            Plan::Forks { base, .. } => vec![base.as_str()],
        }
    }
}

/// A seed for stream `index` of a workload (SplitMix64 finaliser), so every
/// cell of a workload gets its own seed and all of them follow the
/// workload seed.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Rebuilds `spec` with an edited configuration, keeping its label and
/// sweep parameter.
fn respec(spec: &ScenarioSpec, edit: impl FnOnce(&mut SimulationConfig)) -> ScenarioSpec {
    let mut config = spec.config().clone();
    edit(&mut config);
    ScenarioSpec::from_config(config)
        .expect("benchmark specs are valid")
        .with_label(spec.label().to_string())
        .with_parameter(spec.parameter())
}

/// The workload's plan for `seed`. `threads` overrides the intra-step
/// worker count (the traced run replays `scale` at 1 and 2).
pub fn plan(workload: Workload, seed: u64, sizing: &Sizing, threads: Option<usize>) -> Plan {
    match workload {
        Workload::PaperMix => {
            let cells = paper_mix_cells(sizing.paper_phases)
                .iter()
                .take(sizing.paper_cells)
                .enumerate()
                .map(|(i, cell)| {
                    respec(cell, |c| {
                        c.seed = derive_seed(seed, i as u64);
                        c.intra_step_threads = threads.unwrap_or(1);
                    })
                    .with_label(format!("paper-mix/{}", cell.label()))
                    .to_text()
                })
                .collect();
            Plan::Cells(cells)
        }
        Workload::Scale => {
            let spec = respec(&ScenarioSpec::large_population(sizing.scale_peers), |c| {
                c.phases = sizing.scale_phases;
                c.seed = derive_seed(seed, 0);
                c.intra_step_threads = threads.unwrap_or(2);
            })
            .with_label(format!("scale/pop={}", sizing.scale_peers));
            Plan::Cells(vec![spec.to_text()])
        }
        Workload::Contested => {
            let base = contested_base(seed, sizing, threads.unwrap_or(1));
            let forks = ARMS_DEFENCES
                .iter()
                .map(|&(key, defence)| {
                    let mut config = base.config().clone();
                    apply_defence(&mut config, defence).expect("arms defences are valid");
                    config.adversaries = vec![
                        AdversarySpec::new("adaptive-whitewash", sizing.contested_attackers),
                        AdversarySpec::new("collusion-ring", sizing.contested_attackers),
                    ];
                    ScenarioSpec::from_config(config)
                        .expect("contested forks are valid")
                        .with_label(format!("contested/{key}"))
                })
                .collect();
            Plan::Forks {
                base: base.to_text(),
                forks,
            }
        }
    }
}

/// The contested base: the paper mix on a clustered, lossy network with
/// background churn whose joins balance departures near the full
/// population, and unrestricted voter pools.
fn contested_base(seed: u64, sizing: &Sizing, threads: usize) -> ScenarioSpec {
    let peers = sizing.contested_peers;
    // Equilibrium online population ≈ join / leave, capped at `peers`.
    let leave = 0.5 / peers as f64;
    ScenarioSpec::builder()
        .label("contested/base")
        .population(peers)
        .initial_articles(peers / 2)
        .mix(BehaviorMix::new(0.5, 0.25, 0.25))
        .phase_config(sizing.contested_phases)
        .churn(ChurnModel {
            join_probability: 0.6,
            leave_probability: leave,
            whitewash_probability: leave / 2.0,
        })
        .network(LinkModel::TwoClusters {
            loss: 0.1,
            penalty: 4,
        })
        .intra_step_threads(threads)
        .seed(derive_seed(seed, 0))
        .build()
        .expect("the contested base is valid")
}
