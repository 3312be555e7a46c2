//! Simulation configuration.
//!
//! [`SimulationConfig`] collects every knob of the Section-IV model with the
//! paper's values as defaults: 100 agents, 10 reputation states over
//! `[R_min, 1] = [0.05, 1]`, a 10 000-step training phase with effectively
//! infinite Boltzmann temperature followed by an evaluation phase at
//! `T = 1`, the logistic reputation function with `g = 19`, and the
//! behaviour-mix sweep convention of Section IV-B.

use crate::adversary::AdversarySpec;
use crate::agent_table::MAX_REPUTATION_STATES;
use crate::incentive::IncentiveScheme;
use crate::spec::SpecError;
use crate::threads::MAX_THREADS;
use collabsim_gametheory::behavior::BehaviorMix;
use collabsim_gametheory::utility::UtilityModel;
use collabsim_netsim::churn::ChurnModel;
use collabsim_netsim::fault::LinkModel;
use collabsim_reputation::contribution::ContributionParams;
use collabsim_reputation::propagation::PropagationScheme;
use collabsim_reputation::punishment::PunishmentPolicy;
use collabsim_reputation::service::ServiceParams;
use collabsim_rl::qlearning::QLearningParams;

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
    /// most [`MAX_REPUTATION_STATES`]).
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
    /// We therefore default to one attempted download per peer per step and
    /// expose [`SimulationConfig::with_paper_literal_download_rate`] for the
    /// literal reading; DESIGN.md documents the substitution.
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
    /// [`ChurnModel::stable`] and the churn phase only enters the pipeline
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
    /// for small ones; at most [`MAX_THREADS`]). Like `ledger_shards`, this
    /// cannot change simulation results.
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

    /// Builder-style: set the population size.
    pub fn with_population(mut self, population: usize) -> Self {
        self.population = population;
        self
    }

    /// Builder-style: set the ledger shard count (`0` = automatic).
    pub fn with_ledger_shards(mut self, shards: usize) -> Self {
        self.ledger_shards = shards;
        self
    }

    /// Builder-style: set the intra-step worker-thread count
    /// (`0` = automatic).
    pub fn with_intra_step_threads(mut self, threads: usize) -> Self {
        self.intra_step_threads = threads;
        self
    }

    /// Builder-style: set the behaviour mix.
    pub fn with_mix(mut self, mix: BehaviorMix) -> Self {
        self.mix = mix;
        self
    }

    /// Builder-style: set the incentive scheme.
    pub fn with_incentive(mut self, incentive: IncentiveScheme) -> Self {
        self.incentive = incentive;
        self
    }

    /// Builder-style: set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: set the phase configuration.
    pub fn with_phases(mut self, phases: PhaseConfig) -> Self {
        self.phases = phases;
        self
    }

    /// Builder-style: use the paper's literal `P = 1 / N_S` download rate.
    pub fn with_paper_literal_download_rate(mut self) -> Self {
        self.download_probability = DownloadRate::InverseSharers;
        self
    }

    /// Builder-style: enable the reputation-propagation phase with the
    /// given backend, run every `interval` steps.
    pub fn with_propagation(mut self, scheme: PropagationScheme, interval: u64) -> Self {
        self.propagation = PropagationConfig {
            scheme: Some(scheme),
            interval,
            pretrusted: 0,
        };
        self
    }

    /// Builder-style: anchor the EigenTrust restart distribution on the
    /// `k` lowest (honest-by-construction) peer ids. Requires
    /// [`SimulationConfig::with_propagation`] with
    /// [`PropagationScheme::EigenTrust`].
    pub fn with_pretrusted(mut self, k: usize) -> Self {
        self.propagation.pretrusted = k;
        self
    }

    /// Builder-style: feed service differentiation from the configured
    /// propagation backend's output instead of the globally visible ledger
    /// (requires [`SimulationConfig::with_propagation`]).
    pub fn with_propagated_reputation(mut self) -> Self {
        self.reputation_source = ReputationSource::Propagated;
        self
    }

    /// Builder-style: decay a rejoining peer's sharing-contribution record
    /// by `factor` per offline step (`1.0` = off).
    pub fn with_uptime_discount(mut self, factor: f64) -> Self {
        self.reputation_uptime_discount = factor;
        self
    }

    /// Builder-style: add one strategic adversary unit (see
    /// [`AdversarySpec`]). A non-empty adversary list prepends the
    /// `adversary` phase to the default phase order when the configuration
    /// is built through [`ScenarioSpec`](crate::spec::ScenarioSpec).
    pub fn with_adversary(mut self, adversary: AdversarySpec) -> Self {
        self.adversaries.push(adversary);
        self
    }

    /// Builder-style: set the churn model (joins, departures, whitewashing
    /// between steps). A non-stable model adds the `churn` phase to the
    /// front of the default phase order when the configuration is built
    /// through [`ScenarioSpec`](crate::spec::ScenarioSpec).
    pub fn with_churn(mut self, churn: ChurnModel) -> Self {
        self.churn = churn;
        self
    }

    /// Builder-style: set the network link model (latency, loss,
    /// connection lifecycle). [`LinkModel::Ideal`] — the default — is
    /// bit-identical to an engine without the fault layer.
    pub fn with_network(mut self, network: LinkModel) -> Self {
        self.network = network;
        self
    }

    /// Validates the configuration, returning a typed [`SpecError`] naming
    /// the offending field instead of panicking.
    pub fn check(&self) -> Result<(), SpecError> {
        fn ensure(field: &'static str, ok: bool, message: &str) -> Result<(), SpecError> {
            if ok {
                Ok(())
            } else {
                Err(SpecError::invalid(field, message))
            }
        }
        ensure(
            "population",
            self.population > 1,
            "population must exceed 1",
        )?;
        ensure(
            "reputation_states",
            self.reputation_states > 0,
            "need at least one reputation state",
        )?;
        if self.reputation_states > MAX_REPUTATION_STATES {
            return Err(SpecError::invalid(
                "reputation_states",
                &format!("at most {MAX_REPUTATION_STATES} reputation states"),
            ));
        }
        ensure(
            "min_reputation",
            self.min_reputation > 0.0 && self.min_reputation < 1.0,
            "min reputation must lie in (0, 1)",
        )?;
        ensure(
            "reputation_beta",
            self.reputation_beta > 0.0,
            "reputation beta must be positive",
        )?;
        // `> 0` also refuses NaN, which the Boltzmann policy would
        // otherwise treat as the uniform training temperature.
        ensure(
            "training_temperature",
            self.phases.training_temperature > 0.0,
            "temperature must be positive",
        )?;
        ensure(
            "evaluation_temperature",
            self.phases.evaluation_temperature > 0.0,
            "temperature must be positive",
        )?;
        ensure(
            "edit_probability",
            (0.0..=1.0).contains(&self.edit_probability),
            "edit probability must lie in [0, 1]",
        )?;
        if let DownloadRate::Fixed(p) = self.download_probability {
            ensure(
                "download_probability",
                (0.0..=1.0).contains(&p),
                "download probability must lie in [0, 1]",
            )?;
        }
        if self.intra_step_threads > MAX_THREADS {
            return Err(SpecError::invalid(
                "intra_step_threads",
                &format!("at most {MAX_THREADS} intra-step threads (0 = automatic)"),
            ));
        }
        ensure(
            "max_voters_per_edit",
            self.max_voters_per_edit > 0,
            "need at least one voter per edit",
        )?;
        ensure(
            "propagation",
            self.propagation.interval > 0,
            "propagation interval must be at least 1 step",
        )?;
        ensure(
            "reputation_source",
            self.reputation_source == ReputationSource::Ledger || self.propagation.scheme.is_some(),
            "propagated reputation requires a configured propagation scheme",
        )?;
        ensure(
            "propagation",
            self.propagation.pretrusted == 0
                || self.propagation.scheme == Some(PropagationScheme::EigenTrust),
            "a pre-trusted set requires the eigentrust propagation scheme",
        )?;
        ensure(
            "propagation",
            self.propagation.pretrusted < self.population,
            "pre-trusted set must be smaller than the population",
        )?;
        ensure(
            "reputation_uptime_discount",
            self.reputation_uptime_discount > 0.0 && self.reputation_uptime_discount <= 1.0,
            "uptime discount factor must lie in (0, 1]",
        )?;
        for adversary in &self.adversaries {
            adversary
                .check()
                .map_err(|m| SpecError::invalid("adversaries", &m))?;
        }
        let claimed: usize = self.adversaries.iter().map(AdversarySpec::count).sum();
        ensure(
            "adversaries",
            claimed + 2 <= self.population,
            "adversaries must leave at least two honest peers",
        )?;
        self.learning
            .check()
            .map_err(|m| SpecError::invalid("learning", &m))?;
        self.contribution
            .check()
            .map_err(|m| SpecError::invalid("contribution", &m))?;
        self.service
            .check()
            .map_err(|m| SpecError::invalid("service", &m))?;
        self.punishment
            .check()
            .map_err(|m| SpecError::invalid("punishment", &m))?;
        self.churn
            .check()
            .map_err(|m| SpecError::invalid("churn", &m))?;
        self.network
            .check()
            .map_err(|m| SpecError::invalid("network", &m))?;
        ensure(
            "service",
            self.service.edit_threshold > self.min_reputation,
            "edit threshold must exceed R_min",
        )?;
        Ok(())
    }

    /// Panicking shim around [`SimulationConfig::check`], kept for callers
    /// that treat an invalid configuration as a programming error. New code
    /// should call [`SimulationConfig::check`] (or build configurations
    /// through the validating [`ScenarioSpec`](crate::spec::ScenarioSpec)
    /// builder) and handle the typed error.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range values; the message names the offending field.
    pub fn validate(&self) {
        if let Err(error) = self.check() {
            panic!("{error}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collabsim_gametheory::behavior::BehaviorType;

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
        c.validate();
    }

    #[test]
    fn temperatures_must_be_positive() {
        for value in [0.0, -0.0, -1.0, f64::NAN] {
            for field in ["training_temperature", "evaluation_temperature"] {
                let mut c = SimulationConfig::default();
                if field == "training_temperature" {
                    c.phases.training_temperature = value;
                } else {
                    c.phases.evaluation_temperature = value;
                }
                match c.check() {
                    Err(SpecError::InvalidField { field: named, .. }) => {
                        assert_eq!(named, field, "T = {value}")
                    }
                    other => panic!("{field} = {value}: {other:?}"),
                }
            }
        }
        // The paper's training value and an infinite one stay valid.
        let mut c = SimulationConfig::default();
        c.phases.training_temperature = f64::INFINITY;
        c.phases.evaluation_temperature = f64::MAX;
        assert!(c.check().is_ok());
    }

    #[test]
    fn intra_step_threads_are_bounded() {
        let mut c = SimulationConfig::default().with_intra_step_threads(MAX_THREADS);
        assert!(c.check().is_ok());
        for threads in [MAX_THREADS + 1, usize::MAX] {
            c.intra_step_threads = threads;
            match c.check() {
                Err(SpecError::InvalidField { field, .. }) => {
                    assert_eq!(field, "intra_step_threads", "{threads}")
                }
                other => panic!("intra_step_threads = {threads}: {other:?}"),
            }
        }
    }

    #[test]
    fn reputation_states_are_bounded() {
        for states in [0, MAX_REPUTATION_STATES + 1, 1 << 62, usize::MAX] {
            let c = SimulationConfig {
                reputation_states: states,
                ..SimulationConfig::default()
            };
            match c.check() {
                Err(SpecError::InvalidField { field, .. }) => {
                    assert_eq!(field, "reputation_states", "{states}")
                }
                other => panic!("reputation_states = {states}: {other:?}"),
            }
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
    fn builder_methods_compose() {
        let c = SimulationConfig::default()
            .with_mix(BehaviorMix::sweep(BehaviorType::Altruistic, 0.6))
            .with_incentive(IncentiveScheme::TitForTat)
            .with_seed(42)
            .with_phases(PhaseConfig::quick())
            .with_paper_literal_download_rate();
        assert_eq!(c.seed, 42);
        assert_eq!(c.incentive, IncentiveScheme::TitForTat);
        assert_eq!(c.phases.training_steps, 300);
        assert_eq!(c.download_probability, DownloadRate::InverseSharers);
        assert!((c.mix.altruistic() - 0.6).abs() < 1e-12);
        c.validate();
    }

    #[test]
    fn propagation_is_disabled_by_default_and_composes_via_builder() {
        let c = SimulationConfig::default();
        assert_eq!(c.propagation.scheme, None);
        let c = c.with_propagation(PropagationScheme::Gossip, 50);
        assert_eq!(c.propagation.scheme, Some(PropagationScheme::Gossip));
        assert_eq!(c.propagation.interval, 50);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "propagation interval")]
    fn zero_propagation_interval_rejected() {
        let mut c = SimulationConfig::default().with_propagation(PropagationScheme::EigenTrust, 1);
        c.propagation.interval = 0;
        c.validate();
    }

    #[test]
    fn pretrusted_set_requires_eigentrust_and_room() {
        let c = SimulationConfig::default()
            .with_propagation(PropagationScheme::EigenTrust, 50)
            .with_pretrusted(5);
        c.validate();
        let gossip = SimulationConfig::default()
            .with_propagation(PropagationScheme::Gossip, 50)
            .with_pretrusted(5);
        assert!(gossip.check().is_err(), "pretrusted needs eigentrust");
        let oversized = SimulationConfig::default()
            .with_propagation(PropagationScheme::EigenTrust, 50)
            .with_pretrusted(SimulationConfig::default().population);
        assert!(oversized.check().is_err(), "pretrusted must leave room");
    }

    #[test]
    fn uptime_discount_must_lie_in_unit_interval() {
        SimulationConfig::default()
            .with_uptime_discount(0.95)
            .validate();
        SimulationConfig::default()
            .with_uptime_discount(1.0)
            .validate();
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(
                SimulationConfig::default()
                    .with_uptime_discount(bad)
                    .check()
                    .is_err(),
                "factor {bad} must be rejected"
            );
        }
    }

    #[test]
    fn large_population_preset_is_valid_and_bounded() {
        let c = SimulationConfig::large_population(10_000);
        assert_eq!(c.population, 10_000);
        assert!(c.restrict_voters_to_editors);
        assert_eq!(c.ledger_shards, 0, "auto sharding");
        assert_eq!(c.intra_step_threads, 0, "auto threading");
        assert!(c.phases.total_steps() <= 100, "preset must stay runnable");
        c.validate();
    }

    #[test]
    fn sharding_and_threading_builders_compose() {
        let c = SimulationConfig::default()
            .with_population(64)
            .with_ledger_shards(8)
            .with_intra_step_threads(4);
        assert_eq!(c.population, 64);
        assert_eq!(c.ledger_shards, 8);
        assert_eq!(c.intra_step_threads, 4);
        c.validate();
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

    #[test]
    #[should_panic(expected = "population")]
    fn tiny_population_rejected() {
        SimulationConfig {
            population: 1,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "edit threshold")]
    fn threshold_below_rmin_rejected() {
        let c = SimulationConfig {
            min_reputation: 0.5,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    fn network_defaults_to_ideal_and_composes_via_builder() {
        let c = SimulationConfig::default();
        assert_eq!(c.network, LinkModel::Ideal);
        let c = c.with_network(LinkModel::IidLoss { loss: 0.05 });
        assert_eq!(c.network, LinkModel::IidLoss { loss: 0.05 });
        c.validate();
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn out_of_range_network_model_rejected() {
        SimulationConfig::default()
            .with_network(LinkModel::IidLoss { loss: 1.5 })
            .validate();
    }

    #[test]
    #[should_panic(expected = "download probability")]
    fn bad_download_probability_rejected() {
        SimulationConfig {
            download_probability: DownloadRate::Fixed(1.5),
            ..Default::default()
        }
        .validate();
    }
}
