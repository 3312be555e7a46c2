//! Simulation configuration.
//!
//! [`SimulationConfig`] collects every knob of the Section-IV model with the
//! paper's values as defaults: 100 agents, 10 reputation states over
//! `[R_min, 1] = [0.05, 1]`, a 10 000-step training phase with effectively
//! infinite Boltzmann temperature followed by an evaluation phase at
//! `T = 1`, the logistic reputation function with `g = 19`, and the
//! behaviour-mix sweep convention of Section IV-B.

use crate::adversary::AdversarySpec;
use crate::gametheory::behavior::BehaviorMix;
use crate::gametheory::utility::UtilityModel;
use crate::incentive::IncentiveScheme;
use crate::netsim::churn::ChurnModel;
use crate::netsim::fault::LinkModel;
use crate::reputation::contribution::ContributionParams;
use crate::reputation::propagation::PropagationScheme;
use crate::reputation::punishment::PunishmentPolicy;
use crate::reputation::service::ServiceParams;
use crate::rl::qlearning::QLearningParams;
use crate::spec::SpecError;

/// Configuration of the optional reputation-propagation phase.
///
/// The paper *assumes* "a mechanism to safely propagate reputation values"
/// exists (Section II-C) and models reputation as globally visible; the
/// propagation phase makes that assumption inspectable by periodically
/// running a concrete backend over the upload-derived trust graph. Disabled
/// by default so the standard pipeline matches the paper's model (and the
/// golden report) exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropagationConfig {
    /// Which backend to run; `None` disables the phase entirely.
    pub scheme: Option<PropagationScheme>,
    /// Steps between propagation rounds (must be ≥ 1).
    pub interval: u64,
    /// Size of the EigenTrust pre-trusted set (`0` = off, the stock
    /// uniform distribution). With `K > 0` the propagation phase anchors
    /// the EigenTrust restart distribution on the `K` lowest peer ids —
    /// honest by construction, since adversary units claim peers from the
    /// *top* of the id range — so a whitewashed identity can no longer
    /// inherit propagated trust through the uniform restart. Only valid
    /// with [`PropagationScheme::EigenTrust`].
    pub pretrusted: usize,
}

impl PropagationConfig {
    /// Validates the interval and the pre-trusted set's backend.
    pub(crate) fn check(&self) -> Result<(), String> {
        if self.interval == 0 {
            return Err("propagation interval must be at least 1 step".to_string());
        }
        if self.pretrusted > 0 && self.scheme != Some(PropagationScheme::EigenTrust) {
            return Err("a pre-trusted set requires the eigentrust propagation scheme".to_string());
        }
        Ok(())
    }
}

impl Default for PropagationConfig {
    fn default() -> Self {
        Self {
            scheme: None,
            interval: 100,
            pretrusted: 0,
        }
    }
}

/// Which reputation values feed service differentiation, edit gating and
/// punishment-recovery decisions.
///
/// The paper models reputation as globally visible (the ledger); real
/// deployments only see what a propagation mechanism delivers. Switching to
/// [`ReputationSource::Propagated`] makes selection, bandwidth allocation,
/// edit admission and the edit-rights-recovery gate read the configured
/// propagation backend's latest output (mapped onto the `[R_min, 1]`
/// service scale) instead of the ledger — quantifying what realistic
/// propagation costs, especially under attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReputationSource {
    /// Globally visible ledger reputation (the paper's assumption; the
    /// default, bit-identical to the pre-switch engine).
    #[default]
    Ledger,
    /// The latest propagated reputation vector of the configured backend
    /// (requires [`PropagationConfig::scheme`] to be set). Until the first
    /// propagation round of a phase, the ledger value is used as the
    /// bootstrap estimate.
    Propagated,
}

impl ReputationSource {
    /// Stable label (`ledger` / `propagated`) used by the spec text format.
    pub fn label(self) -> &'static str {
        match self {
            ReputationSource::Ledger => "ledger",
            ReputationSource::Propagated => "propagated",
        }
    }

    /// Parses a source from its [`ReputationSource::label`].
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "ledger" => Some(ReputationSource::Ledger),
            "propagated" => Some(ReputationSource::Propagated),
            _ => None,
        }
    }
}

/// Lengths and temperatures of the two simulation phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseConfig {
    /// Number of training steps (paper: 10 000).
    pub training_steps: u64,
    /// Number of measured evaluation steps after the reputation reset.
    pub evaluation_steps: u64,
    /// Boltzmann temperature during training (paper: the highest possible
    /// floating-point value, i.e. uniform exploration).
    pub training_temperature: f64,
    /// Boltzmann temperature during evaluation (paper: 1).
    pub evaluation_temperature: f64,
}

impl Default for PhaseConfig {
    fn default() -> Self {
        Self {
            training_steps: 10_000,
            evaluation_steps: 2_000,
            training_temperature: f64::MAX,
            evaluation_temperature: 1.0,
        }
    }
}

impl PhaseConfig {
    /// A drastically shortened phase configuration for unit tests and
    /// examples that only need qualitative behaviour.
    pub fn quick() -> Self {
        Self {
            training_steps: 300,
            evaluation_steps: 200,
            ..Default::default()
        }
    }

    /// Total number of simulated steps.
    pub fn total_steps(&self) -> u64 {
        self.training_steps + self.evaluation_steps
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// Number of peers (paper: 100).
    pub population: usize,
    /// Number of reputation-bucket states for the Q-learner (paper: 10; at
    /// most [`MAX_REPUTATION_STATES`](crate::agent_table::MAX_REPUTATION_STATES)).
    pub reputation_states: usize,
    /// Minimum reputation `R_min` (paper: 0.05). Must match the reputation
    /// function's newcomer value; the default logistic `g = 19` gives 0.05.
    pub min_reputation: f64,
    /// `β` of the logistic reputation function (Figure 1 uses 0.1–0.3).
    pub reputation_beta: f64,
    /// Which incentive scheme governs service differentiation.
    pub incentive: IncentiveScheme,
    /// Population mix of behaviour types.
    pub mix: BehaviorMix,
    /// Phase lengths and temperatures.
    pub phases: PhaseConfig,
    /// Q-learning hyper-parameters of the rational agents.
    pub learning: QLearningParams,
    /// Utility-function coefficients (the per-step reward signal).
    pub utility: UtilityModel,
    /// Contribution-value weights and decay.
    pub contribution: ContributionParams,
    /// Service-differentiation parameters (thresholds, majorities).
    pub service: ServiceParams,
    /// Punishment thresholds.
    pub punishment: PunishmentPolicy,
    /// Number of articles seeded into the network before the run.
    pub initial_articles: usize,
    /// Probability that a peer attempts a download in a given step.
    ///
    /// The paper states `P = 1 / N_S`; with 100 sharing peers that yields an
    /// almost interaction-free network in which bandwidth competition (the
    /// very thing service differentiation acts on) virtually never occurs.
    /// We therefore default to one attempted download per peer per step;
    /// [`DownloadRate::InverseSharers`] (`download_probability =
    /// inverse-sharers` in a spec) is the literal reading.
    pub download_probability: DownloadRate,
    /// Probability that a participating peer attempts an edit in a step
    /// (given its edit behaviour is not Abstain).
    pub edit_probability: f64,
    /// Whether voting on an edit is restricted to previously successful
    /// editors of the article (the Section III-C2 design rule). The paper's
    /// *simulation model* (Section IV) lets any peer "vote on any changes",
    /// which is what produces the majority-following behaviour of Figures 6
    /// and 7, so the default is `false`; set to `true` to study the stricter
    /// design rule.
    pub restrict_voters_to_editors: bool,
    /// Maximum number of voters sampled for a single edit's vote (the set
    /// `V` of Section III-C2). Keeps per-step vote counts bounded for large
    /// populations.
    pub max_voters_per_edit: usize,
    /// Optional reputation-propagation phase (off by default).
    pub propagation: PropagationConfig,
    /// Which reputation values feed service decisions: the globally visible
    /// ledger (the paper's assumption, default) or the propagation
    /// backend's latest output. `Propagated` requires a configured
    /// propagation scheme.
    pub reputation_source: ReputationSource,
    /// Uptime discount on sharing reputation: when a peer that spent `d`
    /// steps offline rejoins, its sharing-contribution record is scaled by
    /// `factor^d` before it re-enters service differentiation (through the
    /// configured [`SimulationConfig::reputation_source`] path). `1.0`
    /// (default) disables the mechanism entirely — no state is touched and
    /// runs stay bit-identical to builds without it. Must lie in `(0, 1]`.
    pub reputation_uptime_discount: f64,
    /// Strategic adversary units (strategy name, controlled-peer count,
    /// parameter). Empty by default; a non-empty list prepends the
    /// `adversary` phase to the default phase order. Peers are assigned
    /// from the top of the id range in list order.
    pub adversaries: Vec<AdversarySpec>,
    /// Per-step churn probabilities (joins, departures, whitewashing).
    /// The paper's own simulation is churn-free, so the default is
    /// `ChurnModel::stable` and the churn phase only enters the pipeline
    /// when the model generates events. Churn draws from its own RNG
    /// stream, so a stable model leaves the trajectory bit-identical to a
    /// churn-free configuration.
    pub churn: ChurnModel,
    /// Link model of the network substrate: per-link latency, grant loss
    /// and the peer connection-state lifecycle. The paper's network is
    /// ideal, so the default is [`LinkModel::Ideal`], which draws nothing
    /// from the dedicated network RNG stream and is bit-identical to an
    /// engine without any fault layer. Non-ideal models delay and fail
    /// grants in the download phase's apply stage and run the connection
    /// lifecycle on their own RNG stream.
    pub network: LinkModel,
    /// Number of peer-id-range shards of the reputation ledger
    /// (`0` = automatic, based on the population). Sharding never changes
    /// results — parallel shard updates are bit-identical to sequential
    /// ones — it only changes how much intra-step parallelism is available.
    pub ledger_shards: usize,
    /// Worker threads of the intra-step parallel stages: selection's
    /// sampling, sharing's collect and ledger apply, and learning (`0` =
    /// automatic: the `SCENARIO_THREADS` environment variable if set,
    /// otherwise the hardware parallelism for large populations and `1`
    /// for small ones; at most
    /// [`MAX_THREADS`](crate::threads::MAX_THREADS)). Like
    /// `ledger_shards`, this cannot change simulation results.
    pub intra_step_threads: usize,
    /// RNG seed; identical configurations with identical seeds reproduce
    /// bit-identical results.
    pub seed: u64,
}

/// How the per-step download probability is derived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DownloadRate {
    /// A fixed probability per peer per step.
    Fixed(f64),
    /// The paper's literal `P = 1 / N_S` where `N_S` is the number of peers
    /// currently offering files.
    InverseSharers,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            population: 100,
            reputation_states: 10,
            min_reputation: 0.05,
            reputation_beta: 0.2,
            incentive: IncentiveScheme::ReputationBased,
            mix: BehaviorMix::all_rational(),
            phases: PhaseConfig::default(),
            learning: QLearningParams {
                learning_rate: 0.1,
                discount: 0.9,
                initial_q: 0.0,
            },
            utility: UtilityModel::default(),
            contribution: ContributionParams::default(),
            service: ServiceParams::default(),
            punishment: PunishmentPolicy::default(),
            initial_articles: 50,
            download_probability: DownloadRate::Fixed(1.0),
            edit_probability: 0.2,
            restrict_voters_to_editors: false,
            max_voters_per_edit: 10,
            propagation: PropagationConfig::default(),
            reputation_source: ReputationSource::Ledger,
            reputation_uptime_discount: 1.0,
            adversaries: Vec::new(),
            churn: ChurnModel::stable(),
            network: LinkModel::Ideal,
            ledger_shards: 0,
            intra_step_threads: 0,
            seed: 0x5EED_C011_AB01,
        }
    }
}

impl SimulationConfig {
    /// The paper's setting for Figure 3: 100 rational peers, incentive
    /// scheme on.
    pub fn paper_figure3_with_incentive() -> Self {
        Self::default()
    }

    /// The Figure 3 baseline: identical but without any incentive scheme.
    pub fn paper_figure3_without_incentive() -> Self {
        Self {
            incentive: IncentiveScheme::None,
            ..Self::default()
        }
    }

    /// A population-scale preset for the `large_population` scenario
    /// family (10⁴–10⁵ peers): short phases, voting restricted to each
    /// article's previous successful editors (the Section III-C2 design
    /// rule, which keeps the voter pool per edit `O(editors)` instead of
    /// `O(population)`), a reduced edit/download rate, and automatic
    /// ledger sharding + intra-step threading.
    ///
    /// The paper's own configuration is 100 peers; this preset is how the
    /// reproduction exercises the same protocol at populations three
    /// orders of magnitude larger.
    pub fn large_population(population: usize) -> Self {
        Self {
            population,
            initial_articles: 200,
            phases: PhaseConfig {
                training_steps: 30,
                evaluation_steps: 20,
                ..Default::default()
            },
            edit_probability: 0.05,
            restrict_voters_to_editors: true,
            download_probability: DownloadRate::Fixed(0.2),
            ledger_shards: 0,
            intra_step_threads: 0,
            ..Self::default()
        }
    }

    /// Validates the configuration, returning a typed [`SpecError`] naming
    /// the offending field instead of panicking. Each key's own domain is
    /// declared with the key in the spec key table (see
    /// [`crate::spec`]); the rules here join several keys.
    pub fn check(&self) -> Result<(), SpecError> {
        crate::spec::check_keys(self)?;
        let ensure = |field, ok, message| {
            if ok {
                Ok(())
            } else {
                Err(SpecError::invalid(field, message))
            }
        };
        ensure(
            "propagation",
            self.propagation.pretrusted < self.population,
            "pre-trusted set must be smaller than the population",
        )?;
        ensure(
            "reputation_source",
            self.reputation_source == ReputationSource::Ledger || self.propagation.scheme.is_some(),
            "propagated reputation requires a configured propagation scheme",
        )?;
        ensure(
            "service",
            self.service.edit_threshold > self.min_reputation,
            "edit threshold must exceed R_min",
        )?;
        let claimed = self
            .adversaries
            .iter()
            .try_fold(0usize, |sum, unit| sum.checked_add(unit.count()));
        ensure(
            "adversaries",
            claimed
                .and_then(|n| self.population.checked_sub(n))
                .is_some_and(|honest| honest >= 2),
            "adversary units must leave at least two honest peers",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent_table::MAX_REPUTATION_STATES;
    use crate::threads::MAX_THREADS;

    #[test]
    fn defaults_match_the_paper() {
        let c = SimulationConfig::default();
        assert_eq!(c.population, 100);
        assert_eq!(c.reputation_states, 10);
        assert_eq!(c.min_reputation, 0.05);
        assert_eq!(c.phases.training_steps, 10_000);
        assert_eq!(c.phases.training_temperature, f64::MAX);
        assert_eq!(c.phases.evaluation_temperature, 1.0);
        assert_eq!(c.incentive, IncentiveScheme::ReputationBased);
        assert_eq!(c.propagation.scheme, None);
        assert_eq!(c.network, LinkModel::Ideal);
        assert_eq!(c.check(), Ok(()));
    }

    fn eigentrust(pretrusted: usize) -> PropagationConfig {
        PropagationConfig {
            scheme: Some(PropagationScheme::EigenTrust),
            interval: 50,
            pretrusted,
        }
    }

    #[test]
    fn out_of_domain_values_name_their_field() {
        // Every key's own domain is walked through the text form in the
        // spec module's tests; these are the rules that join keys, and
        // values the text form cannot write on one line.
        type Edit = fn(&mut SimulationConfig);
        let cases: &[(&str, Edit)] = &[
            ("population", |c| c.population = 1),
            ("download_probability", |c| {
                c.download_probability = DownloadRate::Fixed(1.5)
            }),
            ("network", |c| c.network = LinkModel::IidLoss { loss: 1.5 }),
            ("propagation", |c| {
                c.propagation = PropagationConfig {
                    interval: 0,
                    ..eigentrust(0)
                }
            }),
            ("propagation", |c| {
                c.propagation = PropagationConfig {
                    scheme: Some(PropagationScheme::Gossip),
                    ..eigentrust(5)
                }
            }),
            ("propagation", |c| c.propagation = eigentrust(c.population)),
            ("reputation_source", |c| {
                c.reputation_source = ReputationSource::Propagated
            }),
            ("service", |c| c.min_reputation = 0.5),
            // Two units of 2^63 peers once summed to 0 and passed.
            ("adversaries", |c| {
                c.adversaries = vec![AdversarySpec::new("collusion-ring", 1 << 63); 2]
            }),
            ("adversaries", |c| {
                c.adversaries = vec![AdversarySpec::new("collusion-ring", 99)]
            }),
        ];
        for (field, edit) in cases {
            let mut c = SimulationConfig::default();
            edit(&mut c);
            match c.check() {
                Err(SpecError::InvalidField { field: named, .. }) => assert_eq!(named, *field),
                other => panic!("{field}: {other:?}"),
            }
        }
    }

    #[test]
    fn domain_edges_inside_the_domain_pass() {
        type Edit = fn(&mut SimulationConfig);
        let cases: &[Edit] = &[
            |c| c.phases.training_temperature = f64::INFINITY,
            |c| c.phases.evaluation_temperature = f64::MAX,
            |c| c.intra_step_threads = MAX_THREADS,
            |c| c.reputation_states = MAX_REPUTATION_STATES,
            |c| c.reputation_uptime_discount = 0.95,
            |c| c.download_probability = DownloadRate::InverseSharers,
            |c| c.propagation = eigentrust(5),
            |c| c.network = LinkModel::IidLoss { loss: 0.05 },
            |c| c.adversaries = vec![AdversarySpec::new("collusion-ring", 98)],
        ];
        for edit in cases {
            let mut c = SimulationConfig::default();
            edit(&mut c);
            assert_eq!(c.check(), Ok(()), "{c:?}");
        }
    }

    #[test]
    fn figure3_configs_differ_only_in_incentive() {
        let with = SimulationConfig::paper_figure3_with_incentive();
        let without = SimulationConfig::paper_figure3_without_incentive();
        assert_eq!(with.incentive, IncentiveScheme::ReputationBased);
        assert_eq!(without.incentive, IncentiveScheme::None);
        assert_eq!(with.population, without.population);
        assert_eq!(with.mix, without.mix);
    }

    #[test]
    fn large_population_preset_is_valid_and_bounded() {
        let c = SimulationConfig::large_population(10_000);
        assert_eq!(c.population, 10_000);
        assert!(c.restrict_voters_to_editors);
        assert_eq!(c.ledger_shards, 0, "auto sharding");
        assert_eq!(c.intra_step_threads, 0, "auto threading");
        assert!(c.phases.total_steps() <= 100, "preset must stay runnable");
        assert_eq!(c.check(), Ok(()));
    }

    #[test]
    fn total_steps_adds_phases() {
        let p = PhaseConfig {
            training_steps: 100,
            evaluation_steps: 50,
            ..Default::default()
        };
        assert_eq!(p.total_steps(), 150);
    }
}
