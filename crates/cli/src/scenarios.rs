//! The canonical scenario-spec constructors behind the checked-in
//! `scenarios/` tree.
//!
//! Every spec file under `scenarios/` is generated from a constructor in
//! this module (`collabsim scaffold` writes them; the root test
//! `tests/scenario_files.rs` pins the files byte-equal to the
//! constructors), the perf-gated bench binaries build their grids from
//! the same constructors, and the claims `collabsim check` runs
//! ([`crate::claims`]) read the `paper/` cells — so the CLI, the benches
//! and the checked-in files can never drift apart.

use collabsim::adversary::AdversarySpec;
use collabsim::config::PhaseConfig;
use collabsim::netsim::churn::ChurnModel;
use collabsim::netsim::fault::LinkModel;
use collabsim::reputation::function::FIGURE1_BETAS;
use collabsim::reputation::propagation::PropagationScheme;
use collabsim::{
    BehaviorMix, BehaviorType, IncentiveScheme, ScenarioSpec, SimulationConfig, SpecError,
};
use std::path::{Path, PathBuf};

/// The golden-report scenario: the exact configuration pinned by
/// `tests/determinism_golden.rs` (20 peers, 120 + 80 steps, the 50/25/25
/// mix, reputation-based incentives, seed `0xC0FFEE`), as a labelled spec.
pub fn golden_spec() -> ScenarioSpec {
    ScenarioSpec::builder()
        .label("golden")
        .population(20)
        .initial_articles(10)
        .mix(BehaviorMix::new(0.5, 0.25, 0.25))
        .incentive(IncentiveScheme::ReputationBased)
        .phase_config(PhaseConfig {
            training_steps: 120,
            evaluation_steps: 80,
            ..Default::default()
        })
        .seed(0xC0FFEE)
        .build()
        .expect("the golden configuration is valid")
}

/// Phase lengths for the gated paper cell (full length unless `quick`).
pub fn paper_cell_phases(quick: bool) -> PhaseConfig {
    if quick {
        PhaseConfig {
            training_steps: 1_000,
            evaluation_steps: 500,
            ..Default::default()
        }
    } else {
        PhaseConfig::default()
    }
}

/// The gated paper workload: the paper's default configuration (100 peers,
/// download-dominated) at the given phase lengths.
pub fn paper_cell_spec(phases: PhaseConfig) -> ScenarioSpec {
    let config = SimulationConfig {
        phases,
        ..Default::default()
    };
    ScenarioSpec::from_config(config)
        .expect("paper cell config is valid")
        .with_label("paper-cell")
}

/// The percentages swept in the paper's mix experiments (Section IV-B:
/// "the occurrence of each user type is varied from 10 − 100 %"; the figures
/// plot 10–90 %).
pub const MIX_SWEEP_PERCENTAGES: [u32; 9] = [10, 20, 30, 40, 50, 60, 70, 80, 90];

/// The Section IV-B mix grid: 9 altruistic-share + 9 irrational-share
/// cells over the paper configuration, as labelled specs (the grid behind
/// Figures 4, 5 and 7, and perfbench's `paper-mix` workload).
pub fn paper_mix_cells(phases: PhaseConfig) -> Vec<ScenarioSpec> {
    let base = SimulationConfig {
        phases,
        ..Default::default()
    };
    let mut cells = Vec::new();
    for primary in [BehaviorType::Altruistic, BehaviorType::Irrational] {
        for &pct in &MIX_SWEEP_PERCENTAGES {
            let fraction = f64::from(pct) / 100.0;
            let config = SimulationConfig {
                mix: BehaviorMix::sweep(primary, fraction),
                seed: base.seed.wrapping_add(u64::from(pct)),
                ..base.clone()
            };
            let spec = ScenarioSpec::from_config(config)
                .expect("mix grid configs are valid")
                .with_label(format!("{}={}%", primary.label(), pct))
                .with_parameter(f64::from(pct));
            cells.push(spec);
        }
    }
    cells
}

/// A labelled paper-length cell over `config` (the paper's 100 peers and
/// 10 000 + 2 000 steps unless `config` says otherwise).
fn paper_spec(label: String, parameter: f64, config: SimulationConfig) -> ScenarioSpec {
    ScenarioSpec::from_config(config)
        .expect("paper cells are valid")
        .with_label(label)
        .with_parameter(parameter)
}

/// Figure 3's two arms: the all-rational paper population with and
/// without the incentive scheme.
pub fn figure3_cells() -> Vec<ScenarioSpec> {
    vec![
        paper_spec(
            "fig3/with-incentive".into(),
            1.0,
            SimulationConfig::paper_figure3_with_incentive(),
        ),
        paper_spec(
            "fig3/without-incentive".into(),
            0.0,
            SimulationConfig::paper_figure3_without_incentive(),
        ),
    ]
}

/// Figure 6's sweep: the rational share from 10 % to 100 %, the rest split
/// evenly between altruistic and irrational peers.
pub fn figure6_cells() -> Vec<ScenarioSpec> {
    MIX_SWEEP_PERCENTAGES
        .iter()
        .chain(&[100])
        .map(|&pct| {
            let config = SimulationConfig {
                mix: BehaviorMix::sweep(BehaviorType::Rational, f64::from(pct) / 100.0),
                ..Default::default()
            };
            paper_spec(format!("fig6/rational={pct}%"), f64::from(pct), config)
        })
        .collect()
}

/// ABL1: the all-rational paper population at each Figure 1 `β` of the
/// logistic reputation function.
pub fn abl1_cells() -> Vec<ScenarioSpec> {
    FIGURE1_BETAS
        .iter()
        .map(|&beta| {
            let config = SimulationConfig {
                mix: BehaviorMix::all_rational(),
                reputation_beta: beta,
                ..Default::default()
            };
            paper_spec(format!("abl1/beta={beta}"), beta, config)
        })
        .collect()
}

/// ABL3: a 40 % rational, 30 % altruistic, 30 % irrational population
/// under each incentive scheme.
pub fn abl3_cells() -> Vec<ScenarioSpec> {
    IncentiveScheme::ALL
        .iter()
        .map(|&scheme| {
            let config = SimulationConfig {
                mix: BehaviorMix::new(0.4, 0.3, 0.3),
                incentive: scheme,
                ..Default::default()
            };
            paper_spec(format!("abl3/{}", scheme.label()), 0.0, config)
        })
        .collect()
}

/// Phase lengths for the churn regimes (`churn_smoke` sizes).
pub fn churn_phases(quick: bool) -> PhaseConfig {
    let (training, evaluation) = if quick { (400, 200) } else { (2_000, 1_000) };
    PhaseConfig {
        training_steps: training,
        evaluation_steps: evaluation,
        ..Default::default()
    }
}

/// One churn regime over the paper population.
pub fn churn_spec(label: &str, churn: ChurnModel, phases: PhaseConfig) -> ScenarioSpec {
    ScenarioSpec::builder()
        .label(label)
        .mix(BehaviorMix::new(0.5, 0.25, 0.25))
        .phase_config(phases)
        .churn(churn)
        .seed(0xC0AC_0001)
        .build()
        .expect("churn bench specs are valid")
}

/// The three churn regimes of the `churn_smoke` bench: background churn,
/// whitewash-heavy, and combined.
pub fn churn_regimes(phases: PhaseConfig) -> Vec<ScenarioSpec> {
    vec![
        churn_spec(
            "churn/background",
            // Expected equilibrium: joins (0.2/step) balance departures
            // (online × 0.002/step) near the full 100-peer population.
            ChurnModel {
                join_probability: 0.2,
                leave_probability: 0.002,
                whitewash_probability: 0.0,
            },
            phases,
        ),
        churn_spec("churn/whitewash", ChurnModel::whitewashing(0.003), phases),
        churn_spec(
            "churn/combined",
            ChurnModel {
                join_probability: 0.2,
                leave_probability: 0.002,
                whitewash_probability: 0.002,
            },
            phases,
        ),
    ]
}

/// The strategy axis of the attack grid: `(name, parameter)`.
pub const ATTACK_STRATEGIES: [(&str, f64); 5] = [
    ("adaptive-whitewash", 0.0),
    ("naive-whitewash", 0.02),
    ("collusion-ring", 0.0),
    ("oscillating-freerider", 0.0),
    ("sybil-slander", 0.0),
];

/// One reputation-source arm of the attack grid: the globally visible
/// ledger, or a propagated backend feeding service differentiation.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ReputationSourceArm {
    /// `reputation_source = ledger`.
    Ledger,
    /// `reputation_source = propagated` over the given backend.
    Propagated(PropagationScheme),
}

impl ReputationSourceArm {
    /// All four arms, in grid order.
    pub const ALL: [ReputationSourceArm; 4] = [
        ReputationSourceArm::Ledger,
        ReputationSourceArm::Propagated(PropagationScheme::EigenTrust),
        ReputationSourceArm::Propagated(PropagationScheme::Gossip),
        ReputationSourceArm::Propagated(PropagationScheme::MaxFlow),
    ];

    /// Stable label (`ledger` or the backend's label).
    pub fn label(self) -> &'static str {
        match self {
            ReputationSourceArm::Ledger => "ledger",
            ReputationSourceArm::Propagated(scheme) => scheme.label(),
        }
    }
}

/// Population / adversary / step sizing of the attack grid.
#[derive(Clone, Copy, Debug)]
pub struct AttackGridScale {
    /// Total peers per cell.
    pub population: usize,
    /// Adversary units per cell.
    pub adversaries: usize,
    /// Phase lengths.
    pub phases: PhaseConfig,
    /// Propagation interval for the propagated arms.
    pub interval: u64,
}

/// The `attack_grid` sizing: 36 peers / 4 attackers when `quick`,
/// 50 peers / 5 attackers otherwise.
pub fn attack_scale(quick: bool) -> AttackGridScale {
    if quick {
        AttackGridScale {
            population: 36,
            adversaries: 4,
            phases: PhaseConfig {
                training_steps: 400,
                evaluation_steps: 200,
                ..Default::default()
            },
            interval: 25,
        }
    } else {
        AttackGridScale {
            population: 50,
            adversaries: 5,
            phases: PhaseConfig {
                training_steps: 900,
                evaluation_steps: 600,
                ..Default::default()
            },
            interval: 50,
        }
    }
}

/// One attack-grid cell: strategy × reputation source × incentive scheme.
pub fn attack_cell_spec(
    scale: &AttackGridScale,
    strategy: (&'static str, f64),
    source: ReputationSourceArm,
    scheme: IncentiveScheme,
) -> ScenarioSpec {
    let label = format!("{}/{}/{}", strategy.0, source.label(), scheme.label());
    let mut builder = ScenarioSpec::builder()
        .label(label)
        .population(scale.population)
        .initial_articles(scale.population / 2)
        .mix(BehaviorMix::new(0.5, 0.3, 0.2))
        .incentive(scheme)
        .phase_config(scale.phases)
        .seed(0xA77AC)
        .adversary(AdversarySpec::new(strategy.0, scale.adversaries).with_parameter(strategy.1));
    if let ReputationSourceArm::Propagated(propagation) = source {
        builder = builder
            .propagation(propagation, scale.interval)
            .propagated_reputation();
    }
    builder.build().expect("attack grid specs are valid")
}

/// One expanded attack-grid cell with its axis coordinates.
#[derive(Clone)]
pub struct AttackCell {
    /// The runnable spec.
    pub spec: ScenarioSpec,
    /// Strategy name (the `ATTACK_STRATEGIES` axis).
    pub strategy: &'static str,
    /// Reputation-source arm.
    pub source: ReputationSourceArm,
    /// Incentive scheme.
    pub scheme: IncentiveScheme,
}

/// The full 30-cell attack grid in bench order: arm (a) — every strategy ×
/// every reputation source under the paper scheme — then arm (b) — every
/// strategy × the non-reputation schemes under the ledger source.
pub fn attack_cells(scale: &AttackGridScale) -> Vec<AttackCell> {
    let mut cells = Vec::new();
    for &strategy in &ATTACK_STRATEGIES {
        for &source in &ReputationSourceArm::ALL {
            cells.push(AttackCell {
                spec: attack_cell_spec(scale, strategy, source, IncentiveScheme::ReputationBased),
                strategy: strategy.0,
                source,
                scheme: IncentiveScheme::ReputationBased,
            });
        }
    }
    for &strategy in &ATTACK_STRATEGIES {
        for scheme in [IncentiveScheme::None, IncentiveScheme::TitForTat] {
            cells.push(AttackCell {
                spec: attack_cell_spec(scale, strategy, ReputationSourceArm::Ledger, scheme),
                strategy: strategy.0,
                source: ReputationSourceArm::Ledger,
                scheme,
            });
        }
    }
    cells
}

/// The fault-regime axis of the `fault_grid` bench: `(name, model)`.
/// `ideal` anchors the comparison; the other three stress one fault class
/// each (iid loss, per-link latency, a partitioned two-cluster topology).
pub fn fault_regimes() -> [(&'static str, LinkModel); 4] {
    [
        ("ideal", LinkModel::Ideal),
        ("lossy", LinkModel::IidLoss { loss: 0.05 }),
        ("latent", LinkModel::UniformLatency { min: 2, max: 8 }),
        (
            "clustered",
            LinkModel::TwoClusters {
                loss: 0.1,
                penalty: 4,
            },
        ),
    ]
}

/// Phase lengths for the fault grid (`fault_grid` sizes).
pub fn fault_phases(quick: bool) -> PhaseConfig {
    let (training, evaluation) = if quick { (300, 150) } else { (1_500, 750) };
    PhaseConfig {
        training_steps: training,
        evaluation_steps: evaluation,
        ..Default::default()
    }
}

/// One fault-grid cell: fault regime × incentive scheme over the paper
/// mix. The grid reports how much incentive-scheme separation each fault
/// regime preserves.
pub fn fault_cell_spec(
    regime: (&str, LinkModel),
    scheme: IncentiveScheme,
    phases: PhaseConfig,
) -> ScenarioSpec {
    ScenarioSpec::builder()
        .label(format!("faults/{}/{}", regime.0, scheme.label()))
        .mix(BehaviorMix::new(0.5, 0.25, 0.25))
        .incentive(scheme)
        .phase_config(phases)
        .network(regime.1)
        .seed(0xFA_017)
        .build()
        .expect("fault grid specs are valid")
}

/// The full 12-cell fault grid in bench order: every fault regime × the
/// three incentive schemes (none, tit-for-tat, reputation).
pub fn fault_cells(phases: PhaseConfig) -> Vec<ScenarioSpec> {
    let mut cells = Vec::new();
    for regime in fault_regimes() {
        for scheme in [
            IncentiveScheme::None,
            IncentiveScheme::TitForTat,
            IncentiveScheme::ReputationBased,
        ] {
            cells.push(fault_cell_spec(regime, scheme, phases));
        }
    }
    cells
}

/// The population tiers of the `large_population` scenario family: three
/// orders of magnitude above the paper's 100 peers.
pub const LARGE_POPULATION_TIERS: [usize; 3] = [10_000, 50_000, 100_000];

/// One population tier of the `scale_population` bench: the
/// `large_population` preset, optionally with overridden phase lengths
/// (the reduced-step 10⁶ CI smoke leg). A population the spec refuses
/// (below 2 or past `u32` ids) is its typed [`SpecError`].
pub fn scale_tier_spec(
    peers: usize,
    train: Option<u64>,
    eval: Option<u64>,
) -> Result<ScenarioSpec, SpecError> {
    let mut config = SimulationConfig::large_population(peers);
    if let Some(steps) = train {
        config.phases.training_steps = steps;
    }
    if let Some(steps) = eval {
        config.phases.evaluation_steps = steps;
    }
    Ok(ScenarioSpec::from_config(config)?
        .with_label(format!("large-population/pop={peers}"))
        .with_parameter(peers as f64))
}

/// A deliberately crashing scenario for the crash-isolation path: a tiny
/// run whose phase list ends in the CLI-registered
/// [`chaos-panic`](crate::chaos::CHAOS_PANIC_PHASE) phase, which panics on
/// its first execution. `collabsim grid` must survive it (the cell is
/// retried, then reported failed in the manifest); running it in-process
/// obviously crashes — that is the point.
pub fn chaos_panic_spec() -> ScenarioSpec {
    ScenarioSpec::builder()
        .label("ci/chaos-panic")
        .population(12)
        .initial_articles(6)
        .phase_config(PhaseConfig {
            training_steps: 30,
            evaluation_steps: 20,
            ..Default::default()
        })
        .seed(0xBAD_5EED)
        .push_phase(crate::chaos::CHAOS_PANIC_PHASE)
        .build()
        .expect("the chaos spec is structurally valid")
}

/// Turns a cell label into a flat file stem: `=` and `/` become `_`,
/// `%` is dropped, everything alphanumeric / `-` / `.` passes through.
fn file_stem(label: &str) -> String {
    let mut out = String::new();
    for c in label.chars() {
        match c {
            '%' => {}
            c if c.is_ascii_alphanumeric() || c == '-' || c == '.' => out.push(c),
            _ => out.push('_'),
        }
    }
    out
}

/// The full checked-in scenario tree: `(relative path, spec)` for every
/// file under `scenarios/`. `collabsim scaffold` writes exactly this
/// list; `tests/scenario_files.rs` pins the checked-in files byte-equal
/// to it.
pub fn scenario_files() -> Vec<(PathBuf, ScenarioSpec)> {
    let mut files: Vec<(PathBuf, ScenarioSpec)> = Vec::new();
    files.push((PathBuf::from("golden.spec"), golden_spec()));
    files.push((
        PathBuf::from("paper/paper_cell.spec"),
        paper_cell_spec(paper_cell_phases(false)),
    ));
    // The paper's simulated results, at the paper's full length.
    for spec in paper_mix_cells(PhaseConfig::default()) {
        let name = format!("paper/mix/{}.spec", file_stem(spec.label()));
        files.push((PathBuf::from(name), spec));
    }
    for spec in [figure3_cells(), figure6_cells(), abl1_cells(), abl3_cells()].concat() {
        let (figure, cell) = spec
            .label()
            .split_once('/')
            .expect("paper cells are labelled <figure>/<cell>");
        let name = format!("paper/{figure}/{}.spec", file_stem(cell));
        files.push((PathBuf::from(name), spec));
    }
    for spec in churn_regimes(churn_phases(false)) {
        let regime = spec.label().rsplit('/').next().expect("labelled regime");
        files.push((PathBuf::from(format!("churn/{regime}.spec")), spec));
    }
    for cell in attack_cells(&attack_scale(false)) {
        let name = format!("attacks/{}.spec", file_stem(cell.spec.label()));
        files.push((PathBuf::from(name), cell.spec));
    }
    for spec in fault_cells(fault_phases(false)) {
        let cell = spec
            .label()
            .strip_prefix("faults/")
            .expect("fault cells are labelled faults/<regime>/<scheme>")
            .to_string();
        files.push((
            PathBuf::from(format!("faults/{}.spec", file_stem(&cell))),
            spec,
        ));
    }
    for &peers in &LARGE_POPULATION_TIERS {
        files.push((
            PathBuf::from(format!("scale/pop_{peers}.spec")),
            scale_tier_spec(peers, None, None).expect("the scale tiers are valid populations"),
        ));
    }
    // The arms-race cells: the shared base plus, per defence, the
    // training cell (α > 0), the frozen-evaluation cell (α = 0) and the
    // scripted opponent — the specs `collabsim train` and the `arms_race`
    // bench construct in-process.
    let arms = crate::training::arms_scale(false);
    files.push((
        PathBuf::from("arms/base.spec"),
        crate::training::arms_base_spec(&arms),
    ));
    for defence in crate::training::ARMS_DEFENCES {
        for spec in [
            crate::training::arms_train_spec(&arms, defence),
            crate::training::arms_frozen_spec(&arms, defence),
            crate::training::arms_scripted_spec(&arms, defence),
        ] {
            let cell = spec
                .label()
                .strip_prefix("arms/")
                .expect("arms cells are labelled arms/<defence>/<role>")
                .to_string();
            files.push((
                PathBuf::from(format!("arms/{}.spec", file_stem(&cell))),
                spec,
            ));
        }
    }
    files.push((PathBuf::from("ci/chaos_panic.spec"), chaos_panic_spec()));
    files
}

/// Writes the whole [`scenario_files`] tree under `root` (creating
/// directories as needed) and returns the written paths.
pub fn scaffold(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut written = Vec::new();
    for (rel, spec) in scenario_files() {
        let path = root.join(&rel);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&path, spec.to_text())?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tree_has_the_expected_shape() {
        let files = scenario_files();
        // 1 golden + 1 paper cell + 18 mix + 2 fig3 + 10 fig6 + 4 abl1 +
        // 3 abl3 + 3 churn + 30 attacks + 12 faults + 3 scale tiers +
        // 16 arms cells + 1 chaos probe.
        assert_eq!(files.len(), 104);
        let paths: Vec<String> = files
            .iter()
            .map(|(p, _)| p.to_string_lossy().into_owned())
            .collect();
        assert!(paths.contains(&"golden.spec".to_string()));
        assert!(paths.contains(&"paper/mix/altruistic_10.spec".to_string()));
        assert!(paths.contains(&"paper/fig3/without-incentive.spec".to_string()));
        assert!(paths.contains(&"paper/fig6/rational_100.spec".to_string()));
        assert!(paths.contains(&"paper/abl1/beta_0.15.spec".to_string()));
        assert!(paths.contains(&"paper/abl3/tit-for-tat.spec".to_string()));
        assert!(paths.contains(&"attacks/adaptive-whitewash_ledger_reputation.spec".to_string()));
        assert!(paths.contains(&"churn/whitewash.spec".to_string()));
        assert!(paths.contains(&"faults/lossy_reputation.spec".to_string()));
        assert!(paths.contains(&"arms/base.spec".to_string()));
        assert!(paths.contains(&"arms/eigentrust-pretrusted_trained.spec".to_string()));
        assert!(paths.contains(&"ci/chaos_panic.spec".to_string()));
        // No two cells may collapse onto the same file name.
        let mut unique = paths.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), paths.len());
    }

    #[test]
    fn every_spec_round_trips_through_the_text_format() {
        for (path, spec) in scenario_files() {
            let text = spec.to_text();
            let parsed = ScenarioSpec::parse(&text)
                .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
            assert_eq!(parsed.to_text(), text, "{} round trip", path.display());
            assert_eq!(parsed.label(), spec.label(), "{} label", path.display());
        }
    }

    #[test]
    fn a_tier_the_spec_refuses_is_a_typed_population_error() {
        for peers in [0, 1] {
            for (train, eval) in [(None, None), (Some(3), Some(2))] {
                let error = scale_tier_spec(peers, train, eval).unwrap_err();
                assert!(
                    matches!(
                        error,
                        SpecError::InvalidField {
                            field: "population",
                            ..
                        }
                    ),
                    "{peers} peers: {error}"
                );
            }
        }
    }

    #[test]
    fn grids_match_the_published_cell_counts() {
        assert_eq!(paper_mix_cells(PhaseConfig::default()).len(), 18);
        assert_eq!(churn_regimes(churn_phases(true)).len(), 3);
        assert_eq!(attack_cells(&attack_scale(true)).len(), 30);
        assert_eq!(fault_cells(fault_phases(true)).len(), 12);
    }
}
