//! Experiment definitions: scenario grids and the parallel runner.
//!
//! The machinery has two layers:
//!
//! 1. [`ScenarioGrid`] — declares an experiment as the cartesian product of
//!    behaviour mixes × incentive schemes × seeds over a base
//!    [`SimulationConfig`], expanding into labelled
//!    [`ScenarioSpec`]s. Expansion order is
//!    fixed (mix-major, then scheme, then seed) so cell labels and result
//!    order are deterministic.
//! 2. [`ScenarioRunner`] — executes independent specs on a work-stealing
//!    pool of scoped OS threads (each spec owns its own RNG stream, so
//!    parallel and sequential execution produce bit-identical per-spec
//!    [`SimulationReport`]s). `Parallelism::Sequential` forces in-order
//!    single-threaded execution for debugging and for the
//!    parallel-equals-sequential regression tests;
//!    [`ScenarioRunner::run_specs_with_registries`] resolves custom phases
//!    and strategies.
//!
//! The paper's figures are checked-in spec files run by `collabsim check`
//! (the `collabsim_cli::claims` table), not sweeps declared here.

use crate::adversary::AdversaryRegistry;
use crate::config::SimulationConfig;
use crate::engine::Simulation;
use crate::incentive::IncentiveScheme;
use crate::pipeline::PhaseRegistry;
use crate::report::SimulationReport;
use crate::spec::{ScenarioSpec, SpecError};
use collabsim_gametheory::behavior::BehaviorMix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The percentages swept in the paper's mix experiments (Section IV-B:
/// "the occurrence of each user type is varied from 10 − 100 %"; the figures
/// plot 10–90 %).
pub const MIX_SWEEP_PERCENTAGES: [u32; 9] = [10, 20, 30, 40, 50, 60, 70, 80, 90];

/// The population tiers of the `large_population` scenario family: three
/// orders of magnitude above the paper's 100 peers.
pub const LARGE_POPULATION_TIERS: [usize; 3] = [10_000, 50_000, 100_000];

/// One labelled simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelledReport {
    /// Human-readable label of the configuration (e.g. "altruistic=40%").
    pub label: String,
    /// The swept numeric parameter, if the experiment is a sweep.
    pub parameter: f64,
    /// The simulation report.
    pub report: SimulationReport,
}

/// A declarative parameter grid: behaviour mixes × incentive schemes ×
/// seeds over a base configuration, expanding into labelled
/// [`ScenarioSpec`]s.
///
/// ```
/// use collabsim::config::{PhaseConfig, SimulationConfig};
/// use collabsim::experiment::{ScenarioGrid, ScenarioRunner};
/// use collabsim::incentive::IncentiveScheme;
/// use collabsim::BehaviorMix;
///
/// let base = SimulationConfig {
///     population: 12,
///     initial_articles: 6,
///     phases: PhaseConfig { training_steps: 40, evaluation_steps: 20, ..Default::default() },
///     ..Default::default()
/// };
/// let grid = ScenarioGrid::new(base)
///     .with_mixes([("half-rational", 50.0, BehaviorMix::new(0.5, 0.25, 0.25))])
///     .with_schemes([IncentiveScheme::ReputationBased, IncentiveScheme::None])
///     .with_seeds([1, 2]);
/// assert_eq!(grid.len(), 4);
/// let reports = ScenarioRunner::default().run_grid(&grid);
/// assert_eq!(reports.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioGrid {
    base: SimulationConfig,
    mixes: Vec<(String, f64, BehaviorMix)>,
    schemes: Vec<IncentiveScheme>,
    seeds: Vec<u64>,
    /// Explicit population axis; `None` keeps the base population and
    /// omits the `pop=` label segment (backwards-compatible labelling).
    populations: Option<Vec<usize>>,
    /// Whether the mix axis was replaced with explicit sweep points —
    /// only then do the mixes' parameters win over a population tier as
    /// the cell's swept parameter (a sweep parameter of 0.0 is
    /// legitimate, so this cannot be inferred from the values).
    mix_axis_swept: bool,
}

impl ScenarioGrid {
    /// A grid containing exactly the base configuration as its single cell.
    pub fn new(base: SimulationConfig) -> Self {
        Self {
            mixes: vec![("base".to_string(), 0.0, base.mix)],
            schemes: vec![base.incentive],
            seeds: vec![base.seed],
            populations: None,
            mix_axis_swept: false,
            base,
        }
    }

    /// The `large_population` scenario family: the
    /// [`SimulationConfig::large_population`] preset expanded over the
    /// [`LARGE_POPULATION_TIERS`] (10⁴, 5·10⁴ and 10⁵ peers). Narrow the
    /// tiers with [`ScenarioGrid::with_populations`], widen it with the
    /// other axes.
    pub fn large_population() -> Self {
        Self::new(SimulationConfig::large_population(
            LARGE_POPULATION_TIERS[0],
        ))
        .with_populations(LARGE_POPULATION_TIERS)
    }

    /// Replaces the mix axis with labelled `(label, parameter, mix)` points.
    pub fn with_mixes<L, I>(mut self, mixes: I) -> Self
    where
        L: Into<String>,
        I: IntoIterator<Item = (L, f64, BehaviorMix)>,
    {
        self.mixes = mixes
            .into_iter()
            .map(|(l, p, m)| (l.into(), p, m))
            .collect();
        assert!(!self.mixes.is_empty(), "grid needs at least one mix");
        self.mix_axis_swept = true;
        self
    }

    /// Replaces the incentive-scheme axis.
    pub fn with_schemes<I: IntoIterator<Item = IncentiveScheme>>(mut self, schemes: I) -> Self {
        self.schemes = schemes.into_iter().collect();
        assert!(!self.schemes.is_empty(), "grid needs at least one scheme");
        self
    }

    /// Replaces the seed axis.
    pub fn with_seeds<I: IntoIterator<Item = u64>>(mut self, seeds: I) -> Self {
        self.seeds = seeds.into_iter().collect();
        assert!(!self.seeds.is_empty(), "grid needs at least one seed");
        self
    }

    /// Replaces the population axis. Cells gain a leading `pop=N` label
    /// segment and their `parameter` becomes the population (unless the
    /// mix axis carries a sweep parameter of its own).
    pub fn with_populations<I: IntoIterator<Item = usize>>(mut self, populations: I) -> Self {
        let populations: Vec<usize> = populations.into_iter().collect();
        assert!(
            !populations.is_empty(),
            "grid needs at least one population"
        );
        self.populations = Some(populations);
        self
    }

    /// Number of cells the grid expands to.
    pub fn len(&self) -> usize {
        let populations = self.populations.as_ref().map_or(1, Vec::len);
        populations * self.mixes.len() * self.schemes.len() * self.seeds.len()
    }

    /// Whether the grid is empty (never: every axis is non-empty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Expands the grid into labelled [`ScenarioSpec`]s in fixed
    /// population-major, then mix-major order. Every spec carries the
    /// default phase order for its configuration (validated at expansion
    /// time, so an invalid base configuration fails here with a field-level
    /// message rather than mid-run).
    pub fn cells(&self) -> Vec<ScenarioSpec> {
        let mut cells = Vec::with_capacity(self.len());
        let populations: Vec<Option<usize>> = match &self.populations {
            Some(populations) => populations.iter().copied().map(Some).collect(),
            None => vec![None],
        };
        for population in populations {
            for (mix_label, parameter, mix) in &self.mixes {
                for &scheme in &self.schemes {
                    for &seed in &self.seeds {
                        let mut config = SimulationConfig {
                            mix: *mix,
                            incentive: scheme,
                            seed,
                            ..self.base.clone()
                        };
                        let (label, parameter) = match population {
                            Some(peers) => {
                                config.population = peers;
                                let label = format!(
                                    "pop={peers}/{mix_label}/{}/seed={seed}",
                                    scheme.label()
                                );
                                // A mix sweep's parameter wins; otherwise
                                // the tier is the swept parameter.
                                let parameter = if self.mix_axis_swept {
                                    *parameter
                                } else {
                                    peers as f64
                                };
                                (label, parameter)
                            }
                            None => (
                                format!("{mix_label}/{}/seed={seed}", scheme.label()),
                                *parameter,
                            ),
                        };
                        let spec = match ScenarioSpec::from_config(config) {
                            Ok(spec) => spec.with_label(label).with_parameter(parameter),
                            Err(error) => panic!("invalid grid cell `{label}`: {error}"),
                        };
                        cells.push(spec);
                    }
                }
            }
        }
        cells
    }
}

/// How a [`ScenarioRunner`] schedules its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker per available core (or per the `SCENARIO_THREADS`
    /// environment variable when set), capped at the cell count.
    #[default]
    Auto,
    /// Strictly single-threaded, in input order.
    Sequential,
    /// A fixed number of workers (values < 2 mean sequential).
    Fixed(usize),
}

/// Executes independent simulation cells on a pool of scoped worker
/// threads.
///
/// Every cell owns its configuration — and therefore its seeded RNG
/// stream — so execution order cannot leak between cells: a parallel run
/// returns bit-identical per-cell reports to a sequential run, in input
/// order. The pool is a simple work-stealing queue (an atomic cursor over
/// the job list), which keeps long cells from serialising behind short
/// ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScenarioRunner {
    parallelism: Parallelism,
}

impl ScenarioRunner {
    /// A runner with an explicit parallelism policy.
    pub fn new(parallelism: Parallelism) -> Self {
        Self { parallelism }
    }

    /// A strictly sequential runner (for debugging and equivalence tests).
    pub fn sequential() -> Self {
        Self::new(Parallelism::Sequential)
    }

    fn workers_for(&self, jobs: usize) -> usize {
        match self.parallelism {
            Parallelism::Sequential => 1,
            Parallelism::Fixed(n) => n.max(1).min(jobs.max(1)),
            Parallelism::Auto => crate::threads::scenario_threads()
                .unwrap_or_else(crate::threads::hardware_threads)
                .min(jobs.max(1)),
        }
    }

    /// Expands and runs a [`ScenarioGrid`], returning reports in cell
    /// order. Grid cells always resolve against the standard registry, so
    /// this cannot fail.
    pub fn run_grid(&self, grid: &ScenarioGrid) -> Vec<LabelledReport> {
        self.run_specs(grid.cells())
            .expect("grid cells use registered phases")
    }

    /// Runs labelled [`ScenarioSpec`]s against the standard
    /// [`PhaseRegistry`] and [`AdversaryRegistry`], returning reports in
    /// input order regardless of completion order.
    pub fn run_specs(&self, specs: Vec<ScenarioSpec>) -> Result<Vec<LabelledReport>, SpecError> {
        self.run_specs_with_registries(
            specs,
            &PhaseRegistry::standard(),
            &AdversaryRegistry::standard(),
        )
    }

    /// Runs labelled [`ScenarioSpec`]s, resolving phase names *and*
    /// adversary strategy names against caller-supplied registries (which
    /// may contain custom phases and strategies). Every spec is resolved
    /// up front, so an unknown phase name fails before any simulation
    /// starts.
    pub fn run_specs_with_registries(
        &self,
        specs: Vec<ScenarioSpec>,
        registry: &PhaseRegistry,
        adversary_registry: &AdversaryRegistry,
    ) -> Result<Vec<LabelledReport>, SpecError> {
        // Fail fast on unresolvable specs, by name only — the pipelines
        // themselves are built inside the workers.
        for spec in &specs {
            if spec.phases().is_empty() {
                return Err(SpecError::EmptyPhaseList);
            }
            if let Some(unknown) = spec.phases().iter().find(|name| !registry.contains(name)) {
                return Err(SpecError::UnknownPhase {
                    name: unknown.clone(),
                });
            }
            adversary_registry.check_config(spec.config())?;
        }
        let run_one = |spec: &ScenarioSpec| -> LabelledReport {
            let report = Simulation::from_spec_with_registries(spec, registry, adversary_registry)
                .expect("specs were resolved above")
                .run();
            LabelledReport {
                label: spec.label().to_string(),
                parameter: spec.parameter(),
                report,
            }
        };

        let workers = self.workers_for(specs.len());
        if workers <= 1 || specs.len() <= 1 {
            return Ok(specs.iter().map(run_one).collect());
        }

        let total = specs.len();
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<LabelledReport>>> =
            (0..total).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= total {
                        break;
                    }
                    *slots[index].lock().expect("result slot poisoned") =
                        Some(run_one(&specs[index]));
                });
            }
        });

        Ok(slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("missing experiment result")
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PhaseConfig;

    fn tiny_base() -> SimulationConfig {
        SimulationConfig {
            population: 12,
            initial_articles: 6,
            phases: PhaseConfig {
                training_steps: 60,
                evaluation_steps: 40,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn grid_expands_in_mix_major_order_with_stable_labels() {
        let grid = ScenarioGrid::new(tiny_base())
            .with_mixes([
                ("a", 1.0, BehaviorMix::all_rational()),
                ("b", 2.0, BehaviorMix::new(0.5, 0.25, 0.25)),
            ])
            .with_schemes([IncentiveScheme::ReputationBased, IncentiveScheme::None])
            .with_seeds([5, 6]);
        assert_eq!(grid.len(), 8);
        assert!(!grid.is_empty());
        let cells = grid.cells();
        let labels: Vec<&str> = cells.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "a/reputation/seed=5",
                "a/reputation/seed=6",
                "a/none/seed=5",
                "a/none/seed=6",
                "b/reputation/seed=5",
                "b/reputation/seed=6",
                "b/none/seed=5",
                "b/none/seed=6",
            ]
        );
        assert_eq!(cells[0].config().seed, 5);
        assert_eq!(cells[3].config().incentive, IncentiveScheme::None);
        assert_eq!(cells[4].parameter(), 2.0);
        assert!((cells[4].config().mix.altruistic() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn default_grid_is_the_base_configuration() {
        let base = SimulationConfig {
            seed: 77,
            ..tiny_base()
        };
        let grid = ScenarioGrid::new(base.clone());
        let cells = grid.cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].config(), &base);
        assert_eq!(cells[0].label(), "base/reputation/seed=77");
        assert_eq!(cells[0].phases().len(), 6, "default phase order");
    }

    #[test]
    fn population_axis_expands_population_major_with_pop_labels() {
        let grid = ScenarioGrid::new(tiny_base())
            .with_populations([12, 24])
            .with_seeds([1, 2]);
        assert_eq!(grid.len(), 4);
        let cells = grid.cells();
        let labels: Vec<&str> = cells.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "pop=12/base/reputation/seed=1",
                "pop=12/base/reputation/seed=2",
                "pop=24/base/reputation/seed=1",
                "pop=24/base/reputation/seed=2",
            ]
        );
        assert_eq!(cells[0].config().population, 12);
        assert_eq!(cells[2].config().population, 24);
        assert_eq!(cells[2].parameter(), 24.0, "tier is the swept parameter");
    }

    #[test]
    fn explicit_mix_sweep_parameters_survive_a_population_axis() {
        // A swept parameter of 0.0 is legitimate and must not be clobbered
        // by the population tier.
        let grid = ScenarioGrid::new(tiny_base())
            .with_mixes([
                ("0pct", 0.0, BehaviorMix::all_rational()),
                ("50pct", 50.0, BehaviorMix::new(0.5, 0.25, 0.25)),
            ])
            .with_populations([10]);
        let cells = grid.cells();
        assert_eq!(cells[0].parameter(), 0.0, "explicit 0.0 sweep point kept");
        assert_eq!(cells[1].parameter(), 50.0);
    }

    #[test]
    fn large_population_family_covers_the_three_tiers() {
        let grid = ScenarioGrid::large_population();
        assert_eq!(grid.len(), 3);
        let cells = grid.cells();
        for (cell, &tier) in cells.iter().zip(LARGE_POPULATION_TIERS.iter()) {
            assert_eq!(cell.config().population, tier);
            assert!(cell.label().starts_with(&format!("pop={tier}/")));
            assert!(cell.config().restrict_voters_to_editors);
            cell.config().check().expect("preset tiers are valid");
        }
    }

    #[test]
    fn population_axis_runs_end_to_end() {
        let grid = ScenarioGrid::new(tiny_base()).with_populations([10, 14]);
        let reports = ScenarioRunner::sequential().run_grid(&grid);
        assert_eq!(reports.len(), 2);
        let total_peers: usize = reports[1]
            .report
            .by_behavior
            .values()
            .map(|b| b.peers)
            .sum();
        assert_eq!(total_peers, 14);
    }

    #[test]
    fn fixed_parallelism_matches_auto_and_sequential() {
        let grid = ScenarioGrid::new(tiny_base())
            .with_schemes([IncentiveScheme::ReputationBased, IncentiveScheme::None])
            .with_seeds([1, 2]);
        let auto = ScenarioRunner::default().run_grid(&grid);
        let fixed = ScenarioRunner::new(Parallelism::Fixed(3)).run_grid(&grid);
        let sequential = ScenarioRunner::sequential().run_grid(&grid);
        assert_eq!(auto, sequential);
        assert_eq!(fixed, sequential);
    }
}
