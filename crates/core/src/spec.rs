//! Declarative scenario specifications: the public entry point for
//! composing experiments.
//!
//! A [`ScenarioSpec`] is a serializable description of one simulation run —
//! population, behaviour mix, incentive scheme, seed, propagation wiring,
//! churn model, and the *ordered list of named phases* that constitutes a
//! step — with a validating builder ([`ScenarioSpecBuilder`]) that returns
//! a typed [`SpecError`] instead of panicking. Specs are the unit the
//! experiment layer iterates ([`ScenarioGrid`](crate::experiment::ScenarioGrid)
//! expands into specs, [`ScenarioRunner`](crate::experiment::ScenarioRunner)
//! executes them), and the phase list is resolved against a
//! [`PhaseRegistry`] — so a new workload is
//! a new spec (plus, at most, a registered phase), never an engine edit.
//!
//! The paper presets that used to live on
//! [`SimulationConfig`] are thin spec
//! constructors here: [`ScenarioSpec::paper_figure3_with_incentive`],
//! [`ScenarioSpec::paper_figure3_without_incentive`],
//! [`ScenarioSpec::large_population`], and the churn-enabled
//! [`ScenarioSpec::churn_stress`]. A spec built from an unchanged config
//! resolves to exactly the standard pipeline, so every preset reproduces
//! the golden report bit for bit.
//!
//! # Text format
//!
//! [`ScenarioSpec::to_text`] renders the spec as a `key = value` document
//! and [`ScenarioSpec::parse`] reads it back; the round trip is exact
//! (floating-point values use Rust's shortest round-trippable display
//! form). The workspace has no serialization library, so the format
//! is hand-rolled and deliberately boring:
//!
//! ```text
//! # collabsim scenario spec v1
//! label = churn-demo
//! population = 100
//! mix = 0.6,0.2,0.2
//! incentive = reputation
//! churn = 0.02,0.001,0.005
//! phases = churn,selection,sharing,download,edit-vote,utility,learning
//! ...
//! ```

use crate::adversary::AdversarySpec;
use crate::config::{
    DownloadRate, PhaseConfig, PropagationConfig, ReputationSource, SimulationConfig,
};
use crate::incentive::IncentiveScheme;
use crate::json::{FromJson, Json};
use crate::pipeline::{PhaseRegistry, StepPipeline};
use collabsim_gametheory::behavior::BehaviorMix;
use collabsim_netsim::churn::ChurnModel;
use collabsim_netsim::fault::{LinkModel, LinkModelError};
use collabsim_reputation::propagation::PropagationScheme;
use std::fmt;

/// A typed validation or parse error produced by the scenario-spec layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A configuration field holds an out-of-range value.
    InvalidField {
        /// The offending field (spec key, or the nested config group).
        field: &'static str,
        /// Human-readable description of the violated constraint.
        message: String,
    },
    /// A phase name in the spec's phase list is not registered.
    UnknownPhase {
        /// The unresolvable phase name.
        name: String,
    },
    /// An adversary strategy name is not registered in the
    /// [`AdversaryRegistry`](crate::adversary::AdversaryRegistry) in use.
    UnknownStrategy {
        /// The unresolvable strategy name.
        name: String,
    },
    /// The `network` key names a link model the fault layer does not know.
    UnknownNetworkModel {
        /// The unresolvable model name.
        name: String,
    },
    /// The spec's phase list is empty.
    EmptyPhaseList,
    /// A line of the text format could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A spec file could not be read ([`ScenarioSpec::load`]).
    Io {
        /// The path that failed to read.
        path: String,
        /// The underlying I/O error, rendered.
        message: String,
    },
}

impl SpecError {
    /// An [`SpecError::InvalidField`] for `field`.
    pub fn invalid(field: &'static str, message: &str) -> Self {
        Self::InvalidField {
            field,
            message: message.to_string(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::InvalidField { field, message } => {
                write!(f, "invalid `{field}`: {message}")
            }
            SpecError::UnknownPhase { name } => {
                write!(f, "unknown phase `{name}` (not in the registry)")
            }
            SpecError::UnknownStrategy { name } => {
                write!(
                    f,
                    "unknown adversary strategy `{name}` (not in the registry)"
                )
            }
            SpecError::UnknownNetworkModel { name } => {
                write!(
                    f,
                    "unknown network model `{name}` (expected ideal, uniform, lognormal, \
                     lossy or clustered)"
                )
            }
            SpecError::EmptyPhaseList => write!(f, "the phase list must not be empty"),
            SpecError::Parse { line, message } => {
                write!(f, "spec parse error at line {line}: {message}")
            }
            SpecError::Io { path, message } => {
                write!(f, "cannot read spec file `{path}`: {message}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A declarative, serializable description of one simulation run.
///
/// Construction always validates: the only ways to obtain a spec are the
/// preset constructors, [`ScenarioSpec::from_config`], the
/// [`ScenarioSpecBuilder`], and [`ScenarioSpec::parse`] — each returns (or
/// internally performs) a full [`SimulationConfig::check`] plus phase-list
/// sanity checks, so a `ScenarioSpec` in hand is always runnable.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    label: String,
    parameter: f64,
    config: SimulationConfig,
    phases: Vec<String>,
}

impl ScenarioSpec {
    /// Starts a builder over the default (paper) configuration.
    pub fn builder() -> ScenarioSpecBuilder {
        ScenarioSpecBuilder::new()
    }

    /// Wraps a full [`SimulationConfig`] as a spec with the default phase
    /// order for that configuration (see [`default_phase_names`]).
    pub fn from_config(config: SimulationConfig) -> Result<Self, SpecError> {
        config.check()?;
        let phases = default_phase_names(&config)
            .into_iter()
            .map(str::to_string)
            .collect();
        Ok(Self {
            label: String::new(),
            parameter: 0.0,
            config,
            phases,
        })
    }

    /// The paper's Figure 3 setting: 100 rational peers, incentive scheme
    /// on. (Former `SimulationConfig::paper_figure3_with_incentive`.)
    pub fn paper_figure3_with_incentive() -> Self {
        Self::from_config(SimulationConfig::paper_figure3_with_incentive())
            .expect("paper preset is valid")
            .with_label("paper-fig3/with-incentive")
    }

    /// The Figure 3 baseline: identical but without any incentive scheme.
    /// (Former `SimulationConfig::paper_figure3_without_incentive`.)
    pub fn paper_figure3_without_incentive() -> Self {
        Self::from_config(SimulationConfig::paper_figure3_without_incentive())
            .expect("paper preset is valid")
            .with_label("paper-fig3/without-incentive")
    }

    /// The population-scale preset of the `large_population` scenario
    /// family. (Former `SimulationConfig::large_population`.)
    pub fn large_population(population: usize) -> Self {
        Self::from_config(SimulationConfig::large_population(population))
            .expect("large-population preset is valid")
            .with_label(format!("large-population/pop={population}"))
            .with_parameter(population as f64)
    }

    /// A churn-stressed paper configuration: the Section-VI discussion made
    /// runnable. Mild background churn (occasional joins and departures)
    /// plus the given per-peer whitewash probability, with the `churn`
    /// phase leading every step. Reputation persistence under re-entry is
    /// observable through [`SimWorld::churn_stats`](crate::world::SimWorld)
    /// or a [`StepObserver`](crate::observer::StepObserver).
    pub fn churn_stress(whitewash_probability: f64) -> Result<Self, SpecError> {
        let churn = ChurnModel {
            join_probability: 0.05,
            leave_probability: 0.002,
            whitewash_probability,
        };
        Self::builder()
            .mix(BehaviorMix::new(0.6, 0.2, 0.2))
            .churn(churn)
            .build()
            .map(|spec| {
                spec.with_label(format!("churn-stress/whitewash={whitewash_probability}"))
                    .with_parameter(whitewash_probability)
            })
    }

    /// The spec's human-readable label (grid cells set `mix/scheme/seed`
    /// style labels; presets use their own).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The swept numeric parameter attached to the spec (0.0 when the spec
    /// is not part of a sweep).
    pub fn parameter(&self) -> f64 {
        self.parameter
    }

    /// The fully resolved simulation configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The ordered phase names the spec resolves against a registry.
    pub fn phases(&self) -> &[String] {
        &self.phases
    }

    /// Returns the spec with a different label (labels are metadata; no
    /// re-validation needed).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Returns the spec with a different sweep parameter.
    pub fn with_parameter(mut self, parameter: f64) -> Self {
        self.parameter = parameter;
        self
    }

    /// Returns the spec with a different seed (re-validation is not needed:
    /// every seed is valid).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Resolves the phase list against the standard registry.
    pub fn build_pipeline(&self) -> Result<StepPipeline, SpecError> {
        self.build_pipeline_with(&PhaseRegistry::standard())
    }

    /// Resolves the phase list against a caller-supplied registry (which
    /// may contain custom phases).
    pub fn build_pipeline_with(&self, registry: &PhaseRegistry) -> Result<StepPipeline, SpecError> {
        registry.build_pipeline(&self.phases, &self.config)
    }

    /// Renders the spec as the `key = value` text format (see the module
    /// docs). [`ScenarioSpec::parse`] reads it back exactly.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let c = &self.config;
        let mut out = String::from("# collabsim scenario spec v1\n");
        let mut kv = |key: &str, value: String| {
            let _ = writeln!(out, "{key} = {value}");
        };
        kv("label", encode_label(&self.label));
        kv("parameter", fmt_f64(self.parameter));
        kv("population", c.population.to_string());
        kv("reputation_states", c.reputation_states.to_string());
        kv("min_reputation", fmt_f64(c.min_reputation));
        kv("reputation_beta", fmt_f64(c.reputation_beta));
        kv("incentive", c.incentive.label().to_string());
        kv(
            "mix",
            format!(
                "{},{},{}",
                fmt_f64(c.mix.rational()),
                fmt_f64(c.mix.altruistic()),
                fmt_f64(c.mix.irrational())
            ),
        );
        kv("training_steps", c.phases.training_steps.to_string());
        kv("evaluation_steps", c.phases.evaluation_steps.to_string());
        kv(
            "training_temperature",
            fmt_f64(c.phases.training_temperature),
        );
        kv(
            "evaluation_temperature",
            fmt_f64(c.phases.evaluation_temperature),
        );
        kv("learning_rate", fmt_f64(c.learning.learning_rate));
        kv("discount", fmt_f64(c.learning.discount));
        kv("initial_q", fmt_f64(c.learning.initial_q));
        kv(
            "utility_sharing",
            format!(
                "{},{},{}",
                fmt_f64(c.utility.sharing.alpha),
                fmt_f64(c.utility.sharing.beta),
                fmt_f64(c.utility.sharing.gamma)
            ),
        );
        kv(
            "utility_editing",
            format!(
                "{},{}",
                fmt_f64(c.utility.editing.delta),
                fmt_f64(c.utility.editing.epsilon)
            ),
        );
        kv(
            "contribution",
            format!(
                "{},{},{},{},{},{}",
                fmt_f64(c.contribution.alpha_s),
                fmt_f64(c.contribution.beta_s),
                fmt_f64(c.contribution.decay_s),
                fmt_f64(c.contribution.alpha_e),
                fmt_f64(c.contribution.beta_e),
                fmt_f64(c.contribution.decay_e)
            ),
        );
        kv(
            "service",
            format!(
                "{},{},{}",
                fmt_f64(c.service.edit_threshold),
                fmt_f64(c.service.majority_at_min_reputation),
                fmt_f64(c.service.majority_at_max_reputation)
            ),
        );
        kv(
            "punishment",
            format!(
                "{},{},{}",
                c.punishment.max_unsuccessful_votes,
                c.punishment.max_declined_edits,
                c.punishment.edits_to_restore_voting
            ),
        );
        kv("initial_articles", c.initial_articles.to_string());
        kv(
            "download_probability",
            match c.download_probability {
                DownloadRate::Fixed(p) => fmt_f64(p),
                DownloadRate::InverseSharers => "inverse-sharers".to_string(),
            },
        );
        kv("edit_probability", fmt_f64(c.edit_probability));
        kv(
            "restrict_voters_to_editors",
            c.restrict_voters_to_editors.to_string(),
        );
        kv("max_voters_per_edit", c.max_voters_per_edit.to_string());
        kv(
            "propagation",
            match c.propagation.scheme {
                // The pre-trusted suffix is emitted only when set so every
                // pre-existing spec file stays byte-identical.
                Some(scheme) if c.propagation.pretrusted > 0 => format!(
                    "{}@{},pretrusted={}",
                    scheme.label(),
                    c.propagation.interval,
                    c.propagation.pretrusted
                ),
                Some(scheme) => format!("{}@{}", scheme.label(), c.propagation.interval),
                None => "none".to_string(),
            },
        );
        kv("reputation_source", c.reputation_source.label().to_string());
        // Emitted only when enabled (≠ 1.0) so pre-existing spec files stay
        // byte-identical (parse defaults the key to 1.0).
        if c.reputation_uptime_discount != 1.0 {
            kv(
                "reputation_uptime_discount",
                fmt_f64(c.reputation_uptime_discount),
            );
        }
        // Emitted only when non-ideal so every pre-fault-layer spec file
        // stays byte-identical (parse defaults the key to `ideal`).
        if !c.network.is_ideal() {
            kv("network", c.network.label());
        }
        for adversary in &c.adversaries {
            kv(
                "adversary",
                format!(
                    "{},{},{}",
                    adversary.strategy(),
                    adversary.count(),
                    fmt_f64(adversary.parameter())
                ),
            );
        }
        kv(
            "churn",
            format!(
                "{},{},{}",
                fmt_f64(c.churn.join_probability),
                fmt_f64(c.churn.leave_probability),
                fmt_f64(c.churn.whitewash_probability)
            ),
        );
        kv("ledger_shards", c.ledger_shards.to_string());
        kv("intra_step_threads", c.intra_step_threads.to_string());
        kv("seed", c.seed.to_string());
        kv("phases", self.phases.join(","));
        out
    }

    /// Reads and parses a spec file from disk.
    ///
    /// A read failure is reported as [`SpecError::Io`] (with the path);
    /// everything after the read is exactly [`ScenarioSpec::parse`].
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| SpecError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Self::parse(&text)
    }

    /// Parses the text format produced by [`ScenarioSpec::to_text`].
    ///
    /// Keys may appear in any order; omitted keys keep their
    /// [`SimulationConfig::default`] values (and the default phase order is
    /// derived from the parsed configuration when no `phases` key is
    /// present). Blank lines and `#` comments are ignored. The resulting
    /// spec is fully validated.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let mut label = String::new();
        let mut parameter = 0.0f64;
        let mut config = SimulationConfig::default();
        let mut phases: Option<Vec<String>> = None;

        for (index, raw) in text.lines().enumerate() {
            let line_no = index + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(SpecError::Parse {
                    line: line_no,
                    message: format!("expected `key = value`, got `{line}`"),
                });
            };
            let key = key.trim();
            let value = value.trim();
            let parse_err = |message: String| SpecError::Parse {
                line: line_no,
                message,
            };
            match key {
                "label" => label = decode_label(value, line_no)?,
                "parameter" => parameter = parse_f64(key, value, line_no)?,
                "population" => config.population = parse_int(key, value, line_no)?,
                "reputation_states" => config.reputation_states = parse_int(key, value, line_no)?,
                "min_reputation" => config.min_reputation = parse_f64(key, value, line_no)?,
                "reputation_beta" => config.reputation_beta = parse_f64(key, value, line_no)?,
                "incentive" => {
                    config.incentive = IncentiveScheme::from_label(value)
                        .ok_or_else(|| parse_err(format!("unknown incentive `{value}`")))?;
                }
                "mix" => {
                    let parts = parse_f64_list(key, value, 3, line_no)?;
                    let (r, a, i) = (parts[0], parts[1], parts[2]);
                    if r < 0.0 || a < 0.0 || i < 0.0 {
                        return Err(parse_err("mix fractions must be non-negative".to_string()));
                    }
                    if ((r + a + i) - 1.0).abs() >= 1e-9 {
                        return Err(parse_err(format!(
                            "mix fractions must sum to 1, got {}",
                            r + a + i
                        )));
                    }
                    config.mix = BehaviorMix::new(r, a, i);
                }
                "training_steps" => config.phases.training_steps = parse_int(key, value, line_no)?,
                "evaluation_steps" => {
                    config.phases.evaluation_steps = parse_int(key, value, line_no)?;
                }
                "training_temperature" => {
                    config.phases.training_temperature = parse_f64(key, value, line_no)?;
                }
                "evaluation_temperature" => {
                    config.phases.evaluation_temperature = parse_f64(key, value, line_no)?;
                }
                "learning_rate" => config.learning.learning_rate = parse_f64(key, value, line_no)?,
                "discount" => config.learning.discount = parse_f64(key, value, line_no)?,
                "initial_q" => config.learning.initial_q = parse_f64(key, value, line_no)?,
                "utility_sharing" => {
                    let parts = parse_f64_list(key, value, 3, line_no)?;
                    config.utility.sharing.alpha = parts[0];
                    config.utility.sharing.beta = parts[1];
                    config.utility.sharing.gamma = parts[2];
                }
                "utility_editing" => {
                    let parts = parse_f64_list(key, value, 2, line_no)?;
                    config.utility.editing.delta = parts[0];
                    config.utility.editing.epsilon = parts[1];
                }
                "contribution" => {
                    let parts = parse_f64_list(key, value, 6, line_no)?;
                    config.contribution.alpha_s = parts[0];
                    config.contribution.beta_s = parts[1];
                    config.contribution.decay_s = parts[2];
                    config.contribution.alpha_e = parts[3];
                    config.contribution.beta_e = parts[4];
                    config.contribution.decay_e = parts[5];
                }
                "service" => {
                    let parts = parse_f64_list(key, value, 3, line_no)?;
                    config.service.edit_threshold = parts[0];
                    config.service.majority_at_min_reputation = parts[1];
                    config.service.majority_at_max_reputation = parts[2];
                }
                "punishment" => {
                    let parts = parse_int_list(key, value, 3, line_no)?;
                    config.punishment.max_unsuccessful_votes = parts[0];
                    config.punishment.max_declined_edits = parts[1];
                    config.punishment.edits_to_restore_voting = parts[2];
                }
                "initial_articles" => config.initial_articles = parse_int(key, value, line_no)?,
                "download_probability" => {
                    config.download_probability = if value == "inverse-sharers" {
                        DownloadRate::InverseSharers
                    } else {
                        DownloadRate::Fixed(parse_f64(key, value, line_no)?)
                    };
                }
                "edit_probability" => config.edit_probability = parse_f64(key, value, line_no)?,
                "restrict_voters_to_editors" => {
                    config.restrict_voters_to_editors = match value {
                        "true" => true,
                        "false" => false,
                        other => {
                            return Err(parse_err(format!("expected true/false, got `{other}`")))
                        }
                    };
                }
                "max_voters_per_edit" => {
                    config.max_voters_per_edit = parse_int(key, value, line_no)?;
                }
                "propagation" => {
                    config.propagation = if value == "none" {
                        PropagationConfig::default()
                    } else {
                        let (scheme, rest) = value.split_once('@').ok_or_else(|| {
                            parse_err(format!(
                                "expected `scheme@interval[,pretrusted=K]` or `none`, got `{value}`"
                            ))
                        })?;
                        let (interval, pretrusted) = match rest.split_once(',') {
                            Some((interval, option)) => {
                                let k =
                                    option.trim().strip_prefix("pretrusted=").ok_or_else(|| {
                                        parse_err(format!(
                                            "expected `pretrusted=K` after the interval, \
                                             got `{option}`"
                                        ))
                                    })?;
                                (interval.trim(), parse_int(key, k, line_no)?)
                            }
                            None => (rest, 0),
                        };
                        PropagationConfig {
                            scheme: Some(PropagationScheme::from_label(scheme).ok_or_else(
                                || parse_err(format!("unknown propagation scheme `{scheme}`")),
                            )?),
                            interval: parse_int(key, interval, line_no)?,
                            pretrusted,
                        }
                    };
                }
                "reputation_source" => {
                    config.reputation_source = ReputationSource::from_label(value)
                        .ok_or_else(|| parse_err(format!("unknown reputation source `{value}`")))?;
                }
                "reputation_uptime_discount" => {
                    config.reputation_uptime_discount = parse_f64(key, value, line_no)?;
                }
                "defence" => {
                    apply_defence(&mut config, value).map_err(parse_err)?;
                }
                "network" => {
                    config.network = LinkModel::from_label(value).map_err(|e| match e {
                        LinkModelError::UnknownModel { name } => {
                            SpecError::UnknownNetworkModel { name }
                        }
                        LinkModelError::InvalidParameter { message } => parse_err(message),
                    })?;
                }
                "adversary" => {
                    let parts: Vec<&str> = value.split(',').map(str::trim).collect();
                    if parts.len() != 3 {
                        return Err(parse_err(format!(
                            "`adversary` expects `strategy,count,parameter`, got `{value}`"
                        )));
                    }
                    let count: usize = parse_int(key, parts[1], line_no)?;
                    let parameter = parse_f64(key, parts[2], line_no)?;
                    config
                        .adversaries
                        .push(AdversarySpec::new(parts[0], count).with_parameter(parameter));
                }
                "churn" => {
                    let parts = parse_f64_list(key, value, 3, line_no)?;
                    config.churn = ChurnModel {
                        join_probability: parts[0],
                        leave_probability: parts[1],
                        whitewash_probability: parts[2],
                    };
                }
                "ledger_shards" => config.ledger_shards = parse_int(key, value, line_no)?,
                "intra_step_threads" => config.intra_step_threads = parse_int(key, value, line_no)?,
                "seed" => config.seed = parse_int(key, value, line_no)?,
                "phases" => {
                    phases = Some(
                        value
                            .split(',')
                            .map(|p| p.trim().to_string())
                            .filter(|p| !p.is_empty())
                            .collect(),
                    );
                }
                unknown => {
                    return Err(parse_err(format!("unknown spec key `{unknown}`")));
                }
            }
        }

        ScenarioSpecBuilder {
            label,
            parameter,
            config,
            phases,
            extra_phases: Vec::new(),
        }
        .build()
    }
}

/// Formats an `f64` in Rust's shortest round-trippable display form (what
/// `f64::to_string` produces); `ScenarioSpec::parse` recovers the exact
/// bits.
fn fmt_f64(value: f64) -> String {
    value.to_string()
}

/// Expands the `defence = <name>` spec sugar into its concrete fields.
///
/// The arms-race harness evaluates attackers against named defence
/// configurations; this key lets a spec select one by name instead of
/// repeating the field combination. It is pure parse-time sugar — the
/// fields below are set as if they had been written out, later keys still
/// override them, and [`ScenarioSpec::to_text`] always emits the concrete
/// fields (so the round trip is exact and checked-in files never contain
/// the sugar form).
///
/// | value | expansion |
/// |-------|-----------|
/// | `ledger` | no propagation, ledger reputation (the paper's model) |
/// | `eigentrust` | `propagation = eigentrust@50`, propagated reputation |
/// | `eigentrust-pretrusted=K` | stock eigentrust plus a `K`-peer pre-trusted set |
/// | `gossip` | `propagation = gossip@50`, propagated reputation |
/// | `uptime-discount=F` | ledger reputation with `reputation_uptime_discount = F` |
pub fn apply_defence(config: &mut SimulationConfig, value: &str) -> Result<(), String> {
    const DEFENCE_INTERVAL: u64 = 50;
    let propagated = |scheme, pretrusted| PropagationConfig {
        scheme: Some(scheme),
        interval: DEFENCE_INTERVAL,
        pretrusted,
    };
    match value {
        "ledger" => {
            config.propagation = PropagationConfig::default();
            config.reputation_source = ReputationSource::Ledger;
            config.reputation_uptime_discount = 1.0;
        }
        "eigentrust" => {
            config.propagation = propagated(PropagationScheme::EigenTrust, 0);
            config.reputation_source = ReputationSource::Propagated;
        }
        "gossip" => {
            config.propagation = propagated(PropagationScheme::Gossip, 0);
            config.reputation_source = ReputationSource::Propagated;
        }
        other => {
            if let Some(k) = other.strip_prefix("eigentrust-pretrusted=") {
                let k: usize = k
                    .trim()
                    .parse()
                    .map_err(|_| format!("invalid pre-trusted set size `{k}`"))?;
                config.propagation = propagated(PropagationScheme::EigenTrust, k);
                config.reputation_source = ReputationSource::Propagated;
            } else if let Some(f) = other.strip_prefix("uptime-discount=") {
                let factor: f64 = f
                    .trim()
                    .parse()
                    .map_err(|_| format!("invalid uptime discount factor `{f}`"))?;
                config.propagation = PropagationConfig::default();
                config.reputation_source = ReputationSource::Ledger;
                config.reputation_uptime_discount = factor;
            } else {
                return Err(format!(
                    "unknown defence `{other}` (expected ledger, eigentrust, \
                     eigentrust-pretrusted=K, gossip or uptime-discount=F)"
                ));
            }
        }
    }
    Ok(())
}

/// Renders a label for the text format. Plain labels are written verbatim;
/// labels the line-based parser would mangle (leading/trailing whitespace,
/// newlines, quotes, backslashes) are written as a JSON string, so the
/// round trip stays exact for *every* label.
fn encode_label(label: &str) -> String {
    let needs_quoting = label != label.trim() || label.contains(['"', '\\', '\n', '\r']);
    if needs_quoting {
        Json::from(label).to_string()
    } else {
        label.to_string()
    }
}

/// Inverse of [`encode_label`]: unquoted values are taken verbatim (the
/// surrounding parser already trimmed them), quoted values are JSON
/// strings.
fn decode_label(value: &str, line: usize) -> Result<String, SpecError> {
    if !value.starts_with('"') {
        return Ok(value.to_string());
    }
    let decoded = Json::parse(value).and_then(|json| String::from_json(&json));
    decoded.map_err(|error| SpecError::Parse {
        line,
        message: format!("bad quoted label: {error}"),
    })
}

fn parse_f64(key: &str, value: &str, line: usize) -> Result<f64, SpecError> {
    value.parse().map_err(|_| SpecError::Parse {
        line,
        message: format!("`{key}` expects a number, got `{value}`"),
    })
}

fn parse_int<T: std::str::FromStr>(key: &str, value: &str, line: usize) -> Result<T, SpecError> {
    value.parse().map_err(|_| SpecError::Parse {
        line,
        message: format!("`{key}` expects an integer, got `{value}`"),
    })
}

fn parse_f64_list(key: &str, value: &str, n: usize, line: usize) -> Result<Vec<f64>, SpecError> {
    let parts: Vec<&str> = value.split(',').map(str::trim).collect();
    if parts.len() != n {
        return Err(SpecError::Parse {
            line,
            message: format!("`{key}` expects {n} comma-separated numbers, got `{value}`"),
        });
    }
    parts.iter().map(|p| parse_f64(key, p, line)).collect()
}

fn parse_int_list(key: &str, value: &str, n: usize, line: usize) -> Result<Vec<u32>, SpecError> {
    let parts: Vec<&str> = value.split(',').map(str::trim).collect();
    if parts.len() != n {
        return Err(SpecError::Parse {
            line,
            message: format!("`{key}` expects {n} comma-separated integers, got `{value}`"),
        });
    }
    parts.iter().map(|p| parse_int(key, p, line)).collect()
}

/// The default phase order for a configuration: the six Section-IV protocol
/// phases, preceded by `churn` when the churn model generates events and by
/// `adversary` when adversary units are configured (churn first, so
/// strategies observe the post-churn population), and followed by
/// `propagation` when a propagation backend is configured.
pub fn default_phase_names(config: &SimulationConfig) -> Vec<&'static str> {
    let mut names = Vec::with_capacity(9);
    if !config.churn.is_stable() {
        names.push("churn");
    }
    if !config.adversaries.is_empty() {
        names.push("adversary");
    }
    names.extend([
        "selection",
        "sharing",
        "download",
        "edit-vote",
        "utility",
        "learning",
    ]);
    if config.propagation.scheme.is_some() {
        names.push("propagation");
    }
    names
}

/// Builder for [`ScenarioSpec`]: accumulate overrides over the default
/// configuration, then [`ScenarioSpecBuilder::build`] validates everything
/// and returns the spec (or a typed [`SpecError`]).
#[derive(Debug, Clone)]
pub struct ScenarioSpecBuilder {
    label: String,
    parameter: f64,
    config: SimulationConfig,
    phases: Option<Vec<String>>,
    extra_phases: Vec<String>,
}

impl Default for ScenarioSpecBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioSpecBuilder {
    /// A builder over the default (paper) configuration.
    pub fn new() -> Self {
        Self {
            label: String::new(),
            parameter: 0.0,
            config: SimulationConfig::default(),
            phases: None,
            extra_phases: Vec::new(),
        }
    }

    /// Starts from an explicit base configuration instead of the default.
    pub fn from_base(config: SimulationConfig) -> Self {
        Self {
            label: String::new(),
            parameter: 0.0,
            config,
            phases: None,
            extra_phases: Vec::new(),
        }
    }

    /// Sets the human-readable label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Sets the swept numeric parameter.
    pub fn parameter(mut self, parameter: f64) -> Self {
        self.parameter = parameter;
        self
    }

    /// Sets the population size.
    pub fn population(mut self, population: usize) -> Self {
        self.config.population = population;
        self
    }

    /// Sets the behaviour mix.
    pub fn mix(mut self, mix: BehaviorMix) -> Self {
        self.config.mix = mix;
        self
    }

    /// Sets the incentive scheme.
    pub fn incentive(mut self, incentive: IncentiveScheme) -> Self {
        self.config.incentive = incentive;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the phase lengths and temperatures.
    pub fn phase_config(mut self, phases: PhaseConfig) -> Self {
        self.config.phases = phases;
        self
    }

    /// Sets the number of initially seeded articles.
    pub fn initial_articles(mut self, articles: usize) -> Self {
        self.config.initial_articles = articles;
        self
    }

    /// Enables the propagation phase with the given backend and interval.
    pub fn propagation(mut self, scheme: PropagationScheme, interval: u64) -> Self {
        self.config.propagation = PropagationConfig {
            scheme: Some(scheme),
            interval,
            pretrusted: 0,
        };
        self
    }

    /// Sets the churn model (a non-stable model prepends the `churn` phase
    /// to the default phase order).
    pub fn churn(mut self, churn: ChurnModel) -> Self {
        self.config.churn = churn;
        self
    }

    /// Sets the network link model (the fault layer; defaults to the ideal
    /// model, which injects nothing and keeps runs bit-identical to a
    /// fault-unaware build).
    pub fn network(mut self, network: LinkModel) -> Self {
        self.config.network = network;
        self
    }

    /// Adds one strategic adversary unit (a non-empty adversary list
    /// prepends the `adversary` phase to the default phase order). Call
    /// repeatedly for multiple units.
    pub fn adversary(mut self, adversary: AdversarySpec) -> Self {
        self.config.adversaries.push(adversary);
        self
    }

    /// Replaces the adversary unit list wholesale.
    pub fn adversaries<I: IntoIterator<Item = AdversarySpec>>(mut self, adversaries: I) -> Self {
        self.config.adversaries = adversaries.into_iter().collect();
        self
    }

    /// Feeds service differentiation from the configured propagation
    /// backend's output instead of the globally visible ledger (requires
    /// [`ScenarioSpecBuilder::propagation`]; validated at build time).
    pub fn propagated_reputation(mut self) -> Self {
        self.config.reputation_source = ReputationSource::Propagated;
        self
    }

    /// Sets the ledger shard count (`0` = automatic).
    pub fn ledger_shards(mut self, shards: usize) -> Self {
        self.config.ledger_shards = shards;
        self
    }

    /// Sets the intra-step worker-thread count (`0` = automatic).
    pub fn intra_step_threads(mut self, threads: usize) -> Self {
        self.config.intra_step_threads = threads;
        self
    }

    /// Applies an arbitrary configuration edit (escape hatch for the knobs
    /// without a dedicated builder method; the final `build` still
    /// validates the result).
    pub fn configure(mut self, edit: impl FnOnce(&mut SimulationConfig)) -> Self {
        edit(&mut self.config);
        self
    }

    /// Replaces the phase order wholesale (names are resolved against a
    /// [`PhaseRegistry`] when a pipeline is
    /// built).
    pub fn phase_order<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.phases = Some(names.into_iter().map(Into::into).collect());
        self
    }

    /// Appends one phase name to the phase order. Extras are resolved at
    /// [`ScenarioSpecBuilder::build`] time: they follow the explicit
    /// [`ScenarioSpecBuilder::phase_order`] if one was set, and otherwise
    /// the default order of the *final* configuration — so a later
    /// `.churn()`/`.propagation()` call still contributes its phase.
    pub fn push_phase(mut self, name: impl Into<String>) -> Self {
        self.extra_phases.push(name.into());
        self
    }

    /// Validates the accumulated configuration and phase list and returns
    /// the spec.
    pub fn build(self) -> Result<ScenarioSpec, SpecError> {
        self.config.check()?;
        let mut phases = match self.phases {
            Some(phases) => {
                if phases.is_empty() && self.extra_phases.is_empty() {
                    return Err(SpecError::EmptyPhaseList);
                }
                phases
            }
            None => default_phase_names(&self.config)
                .into_iter()
                .map(str::to_string)
                .collect(),
        };
        phases.extend(self.extra_phases);
        // Adversary units without the `adversary` phase would be silently
        // half-active: the edit-vote phase consults the roster's vote
        // policies unconditionally, while forced actions and whitewashes
        // only happen inside the phase. Reject the combination instead of
        // shipping a partial attack the spec never declared.
        if !self.config.adversaries.is_empty() && !phases.iter().any(|p| p == "adversary") {
            return Err(SpecError::invalid(
                "phases",
                "adversary units are configured but the phase order omits the `adversary` phase",
            ));
        }
        Ok(ScenarioSpec {
            label: self.label,
            parameter: self.parameter,
            config: self.config,
            phases,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_uses_the_standard_phase_order() {
        let spec = ScenarioSpec::from_config(SimulationConfig::default()).unwrap();
        assert_eq!(
            spec.phases(),
            &[
                "selection",
                "sharing",
                "download",
                "edit-vote",
                "utility",
                "learning"
            ]
        );
        assert_eq!(spec.label(), "");
        assert_eq!(spec.parameter(), 0.0);
    }

    #[test]
    fn propagation_and_churn_extend_the_default_order() {
        let spec = ScenarioSpec::builder()
            .propagation(PropagationScheme::Gossip, 50)
            .churn(ChurnModel::mild())
            .build()
            .unwrap();
        assert_eq!(spec.phases().first().map(String::as_str), Some("churn"));
        assert_eq!(
            spec.phases().last().map(String::as_str),
            Some("propagation")
        );
        assert_eq!(spec.phases().len(), 8);
    }

    #[test]
    fn builder_rejects_invalid_configs_with_typed_errors() {
        let err = ScenarioSpec::builder().population(1).build().unwrap_err();
        assert_eq!(
            err,
            SpecError::invalid("population", "population must exceed 1")
        );
        assert!(err.to_string().contains("population must exceed 1"));
        let err = ScenarioSpec::builder()
            .configure(|c| c.edit_probability = 1.5)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SpecError::InvalidField {
                field: "edit_probability",
                ..
            }
        ));
    }

    #[test]
    fn builder_rejects_empty_phase_lists() {
        let err = ScenarioSpec::builder()
            .phase_order(Vec::<String>::new())
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::EmptyPhaseList);
    }

    #[test]
    fn text_round_trip_is_exact_for_presets() {
        for spec in [
            ScenarioSpec::paper_figure3_with_incentive(),
            ScenarioSpec::paper_figure3_without_incentive(),
            ScenarioSpec::large_population(10_000),
            ScenarioSpec::churn_stress(0.01).unwrap(),
        ] {
            let text = spec.to_text();
            let parsed = ScenarioSpec::parse(&text).unwrap();
            assert_eq!(parsed, spec, "round trip drifted for {}", spec.label());
        }
    }

    #[test]
    fn awkward_labels_round_trip_through_quoting() {
        for label in [
            "a\nb",
            " leading-space",
            "trailing-space ",
            "quo\"ted",
            "back\\slash",
            "#looks-like-a-comment",
            "mix=40%/seed=1",
            "",
        ] {
            let spec = ScenarioSpec::from_config(SimulationConfig::default())
                .unwrap()
                .with_label(label);
            let parsed = ScenarioSpec::parse(&spec.to_text()).unwrap();
            assert_eq!(parsed.label(), label, "label {label:?} drifted");
            assert_eq!(parsed, spec);
        }
        let err = ScenarioSpec::parse("label = \"unterminated\n").unwrap_err();
        assert!(matches!(err, SpecError::Parse { .. }));
    }

    #[test]
    fn parse_defaults_missing_keys_and_reports_bad_lines() {
        let spec = ScenarioSpec::parse("population = 42\n").unwrap();
        assert_eq!(spec.config().population, 42);
        assert_eq!(spec.config().seed, SimulationConfig::default().seed);
        assert_eq!(spec.phases().len(), 6, "default phase order");

        let err = ScenarioSpec::parse("population == 42\n").unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 1, .. }));
        let err = ScenarioSpec::parse("no_such_key = 3\n").unwrap_err();
        assert!(err.to_string().contains("no_such_key"));
        let err = ScenarioSpec::parse("population = 1\n").unwrap_err();
        assert!(matches!(
            err,
            SpecError::InvalidField {
                field: "population",
                ..
            }
        ));
    }

    #[test]
    fn parse_handles_special_values() {
        let spec = ScenarioSpec::parse(
            "download_probability = inverse-sharers\npropagation = eigentrust@25\n",
        )
        .unwrap();
        assert_eq!(
            spec.config().download_probability,
            DownloadRate::InverseSharers
        );
        assert_eq!(
            spec.config().propagation.scheme,
            Some(PropagationScheme::EigenTrust)
        );
        assert_eq!(spec.config().propagation.interval, 25);
        assert_eq!(
            spec.phases().last().map(String::as_str),
            Some("propagation")
        );
    }

    #[test]
    fn training_temperature_round_trips_f64_max() {
        let spec = ScenarioSpec::from_config(SimulationConfig::default()).unwrap();
        let parsed = ScenarioSpec::parse(&spec.to_text()).unwrap();
        assert_eq!(
            parsed.config().phases.training_temperature.to_bits(),
            f64::MAX.to_bits()
        );
    }

    #[test]
    fn push_phase_extends_the_default_order() {
        let spec = ScenarioSpec::builder()
            .push_phase("my-metrics")
            .build()
            .unwrap();
        assert_eq!(spec.phases().len(), 7);
        assert_eq!(spec.phases().last().map(String::as_str), Some("my-metrics"));
    }

    #[test]
    fn push_phase_before_churn_still_includes_the_churn_phase() {
        // Extras resolve against the *final* configuration's default
        // order, so builder call order cannot silently drop a phase.
        let spec = ScenarioSpec::builder()
            .push_phase("my-metrics")
            .churn(ChurnModel::mild())
            .build()
            .unwrap();
        assert_eq!(spec.phases().first().map(String::as_str), Some("churn"));
        assert_eq!(spec.phases().last().map(String::as_str), Some("my-metrics"));
        assert_eq!(spec.phases().len(), 8);
    }

    #[test]
    fn adversaries_enter_the_default_order_and_round_trip() {
        let spec = ScenarioSpec::builder()
            .adversary(AdversarySpec::new("adaptive-whitewash", 5))
            .adversary(AdversarySpec::new("naive-whitewash", 3).with_parameter(0.05))
            .build()
            .unwrap();
        assert_eq!(spec.phases().first().map(String::as_str), Some("adversary"));
        assert_eq!(spec.phases().len(), 7);
        let text = spec.to_text();
        assert!(text.contains("adversary = adaptive-whitewash,5,0"));
        assert!(text.contains("adversary = naive-whitewash,3,0.05"));
        let parsed = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(parsed, spec, "adversary lines must round-trip exactly");
        assert_eq!(parsed.config().adversaries.len(), 2);
    }

    #[test]
    fn churn_precedes_adversary_in_the_default_order() {
        let spec = ScenarioSpec::builder()
            .churn(ChurnModel::mild())
            .adversary(AdversarySpec::new("collusion-ring", 4))
            .build()
            .unwrap();
        assert_eq!(
            &spec.phases()[..2],
            &["churn".to_string(), "adversary".to_string()],
            "strategies observe the post-churn population"
        );
    }

    #[test]
    fn reputation_source_round_trips_and_requires_propagation() {
        let spec = ScenarioSpec::builder()
            .propagation(PropagationScheme::EigenTrust, 50)
            .propagated_reputation()
            .build()
            .unwrap();
        assert_eq!(
            spec.config().reputation_source,
            crate::config::ReputationSource::Propagated
        );
        let parsed = ScenarioSpec::parse(&spec.to_text()).unwrap();
        assert_eq!(parsed, spec);

        let err = ScenarioSpec::builder()
            .propagated_reputation()
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SpecError::InvalidField {
                field: "reputation_source",
                ..
            }
        ));
        let err = ScenarioSpec::parse("reputation_source = telepathy\n").unwrap_err();
        assert!(matches!(err, SpecError::Parse { .. }));
    }

    #[test]
    fn pretrusted_set_round_trips_and_defaults_off() {
        let mut config = SimulationConfig::default()
            .with_propagation(PropagationScheme::EigenTrust, 50)
            .with_pretrusted(4);
        config.reputation_source = crate::config::ReputationSource::Propagated;
        let spec = ScenarioSpec::from_config(config).unwrap();
        let text = spec.to_text();
        assert!(text.contains("propagation = eigentrust@50,pretrusted=4"));
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), spec);
        // A zero pre-trusted set emits the historical form, byte-identical.
        let stock = ScenarioSpec::builder()
            .propagation(PropagationScheme::EigenTrust, 50)
            .build()
            .unwrap();
        assert!(stock.to_text().contains("propagation = eigentrust@50\n"));
        // The suffix is validated.
        assert!(ScenarioSpec::parse("propagation = eigentrust@50,trusted=4\n").is_err());
        assert!(ScenarioSpec::parse("propagation = gossip@50,pretrusted=4\n").is_err());
    }

    #[test]
    fn uptime_discount_round_trips_and_defaults_silent() {
        let spec =
            ScenarioSpec::from_config(SimulationConfig::default().with_uptime_discount(0.97))
                .unwrap();
        let text = spec.to_text();
        assert!(text.contains("reputation_uptime_discount = 0.97"));
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), spec);
        // The default factor emits no line, so pre-existing files stay
        // byte-identical.
        let plain = ScenarioSpec::builder().build().unwrap();
        assert!(!plain.to_text().contains("reputation_uptime_discount"));
        assert!(ScenarioSpec::parse("reputation_uptime_discount = 0\n").is_err());
    }

    type DefenceCheck = Box<dyn Fn(&SimulationConfig)>;

    #[test]
    fn defence_sugar_expands_to_concrete_fields() {
        let cases: [(&str, DefenceCheck); 5] = [
            (
                "ledger",
                Box::new(|c: &SimulationConfig| {
                    assert_eq!(c.propagation.scheme, None);
                    assert_eq!(c.reputation_source, crate::config::ReputationSource::Ledger);
                }),
            ),
            (
                "eigentrust",
                Box::new(|c: &SimulationConfig| {
                    assert_eq!(c.propagation.scheme, Some(PropagationScheme::EigenTrust));
                    assert_eq!(c.propagation.pretrusted, 0);
                    assert_eq!(
                        c.reputation_source,
                        crate::config::ReputationSource::Propagated
                    );
                }),
            ),
            (
                "eigentrust-pretrusted=3",
                Box::new(|c: &SimulationConfig| {
                    assert_eq!(c.propagation.scheme, Some(PropagationScheme::EigenTrust));
                    assert_eq!(c.propagation.pretrusted, 3);
                }),
            ),
            (
                "gossip",
                Box::new(|c: &SimulationConfig| {
                    assert_eq!(c.propagation.scheme, Some(PropagationScheme::Gossip));
                }),
            ),
            (
                "uptime-discount=0.9",
                Box::new(|c: &SimulationConfig| {
                    assert_eq!(c.propagation.scheme, None);
                    assert!((c.reputation_uptime_discount - 0.9).abs() < 1e-12);
                }),
            ),
        ];
        for (value, check) in cases {
            let spec = ScenarioSpec::parse(&format!("defence = {value}\n"))
                .unwrap_or_else(|e| panic!("defence {value}: {e}"));
            check(spec.config());
            // The sugar never survives to_text: the round trip re-parses
            // the concrete fields to the same spec.
            let text = spec.to_text();
            assert!(!text.contains("defence"), "sugar must not be emitted");
            assert_eq!(ScenarioSpec::parse(&text).unwrap(), spec);
        }
        assert!(ScenarioSpec::parse("defence = moat\n").is_err());
        assert!(ScenarioSpec::parse("defence = uptime-discount=zero\n").is_err());
    }

    #[test]
    fn network_round_trips_and_defaults_to_ideal() {
        // Every non-ideal model round-trips exactly through the text form.
        for model in [
            LinkModel::UniformLatency { min: 2, max: 8 },
            LinkModel::LognormalLatency {
                mu: 1.5,
                sigma: 0.75,
            },
            LinkModel::IidLoss { loss: 0.05 },
            LinkModel::TwoClusters {
                loss: 0.1,
                penalty: 4,
            },
        ] {
            let spec = ScenarioSpec::builder().network(model).build().unwrap();
            assert_eq!(spec.config().network, model);
            let text = spec.to_text();
            assert!(text.contains(&format!("network = {}", model.label())));
            let parsed = ScenarioSpec::parse(&text).unwrap();
            assert_eq!(parsed, spec);
        }
        // The ideal default emits no `network` line, so pre-fault-layer
        // spec files stay byte-identical.
        let spec = ScenarioSpec::builder().build().unwrap();
        assert_eq!(spec.config().network, LinkModel::Ideal);
        assert!(!spec.to_text().contains("network"));
        assert_eq!(ScenarioSpec::parse(&spec.to_text()).unwrap(), spec);
    }

    #[test]
    fn unknown_network_model_is_a_typed_error() {
        let err = ScenarioSpec::parse("network = carrier-pigeon\n").unwrap_err();
        assert_eq!(
            err,
            SpecError::UnknownNetworkModel {
                name: "carrier-pigeon".to_string()
            }
        );
        assert!(err.to_string().contains("carrier-pigeon"));
        // Bad parameters are parse errors with a line number, not unknowns.
        let err = ScenarioSpec::parse("network = lossy,not-a-number\n").unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 1, .. }));
        // Out-of-range parameters fail config validation.
        let err = ScenarioSpec::parse("network = lossy,1.5\n").unwrap_err();
        assert!(matches!(
            err,
            SpecError::InvalidField {
                field: "network",
                ..
            }
        ));
    }

    #[test]
    fn invalid_adversary_specs_are_typed_errors() {
        let err = ScenarioSpec::builder()
            .adversary(AdversarySpec::new("bad name", 2))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SpecError::InvalidField {
                field: "adversaries",
                ..
            }
        ));
        // Claiming all but one peer leaves fewer than two honest peers.
        let err = ScenarioSpec::builder()
            .population(10)
            .adversary(AdversarySpec::new("collusion-ring", 9))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SpecError::InvalidField {
                field: "adversaries",
                ..
            }
        ));
        let err = ScenarioSpec::parse("adversary = collusion-ring,2\n").unwrap_err();
        assert!(matches!(err, SpecError::Parse { .. }));
        // An explicit phase order that omits the adversary phase while
        // units are configured would be silently half-active — rejected.
        let err = ScenarioSpec::builder()
            .adversary(AdversarySpec::new("collusion-ring", 4))
            .phase_order([
                "selection",
                "sharing",
                "download",
                "edit-vote",
                "utility",
                "learning",
            ])
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SpecError::InvalidField {
                field: "phases",
                ..
            }
        ));
    }
}
