//! Declarative scenario specifications: the public entry point for
//! composing experiments.
//!
//! A [`ScenarioSpec`] is a serializable description of one simulation run —
//! population, behaviour mix, incentive scheme, seed, propagation wiring,
//! churn model, and the *ordered list of named phases* that constitutes a
//! step — with a validating builder ([`ScenarioSpecBuilder`]) that returns
//! a typed [`SpecError`] instead of panicking. A spec is the unit every
//! run is made of: [`Simulation::from_spec`](crate::Simulation::from_spec)
//! builds one, the `collabsim` CLI reads one per file and its grid
//! coordinator runs one per worker process. The phase list is resolved
//! against a [`PhaseRegistry`], so a new workload is a new spec (plus, at
//! most, a registered phase), never an engine edit. A spec built from an
//! unchanged config resolves to exactly the standard pipeline.
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
//!
//! Every key is declared once, in one table in this module: its name,
//! where its value lives, its text form, its domain, and whether it is
//! written only when it differs from the default. `to_text`, `parse` and
//! [`SimulationConfig::check`] loop over that table, so a new key is one
//! table entry, and a value outside its key's domain is a
//! [`SpecError::InvalidField`] naming the key.

use crate::adversary::AdversarySpec;
use crate::agent_table::MAX_REPUTATION_STATES;
use crate::config::{
    DownloadRate, PhaseConfig, PropagationConfig, ReputationSource, SimulationConfig,
};
use crate::gametheory::behavior::BehaviorMix;
use crate::gametheory::utility::{EditingUtilityParams, SharingUtilityParams};
use crate::incentive::IncentiveScheme;
use crate::json::{FromJson, Json};
use crate::netsim::churn::ChurnModel;
use crate::netsim::fault::{LinkModel, LinkModelError};
use crate::pipeline::{PhaseRegistry, StepPipeline};
use crate::reputation::contribution::ContributionParams;
use crate::reputation::propagation::PropagationScheme;
use crate::reputation::punishment::PunishmentPolicy;
use crate::reputation::service::ServiceParams;
use crate::threads::MAX_THREADS;
use std::fmt;
use std::fmt::Write as _;

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

    /// Places a value codec's parse error on its line, quoting the line.
    fn at(self, line: usize, key: &str, value: &str) -> Self {
        match self {
            SpecError::Parse { message, .. } => SpecError::Parse {
                line,
                message: format!("`{key} = {value}`: {message}"),
            },
            other => other,
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
            SpecError::EmptyPhaseList => write!(f, "the `phases` list must not be empty"),
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

    /// The population-scale preset of the `large_population` scenario
    /// family. (Former `SimulationConfig::large_population`.)
    pub fn large_population(population: usize) -> Self {
        Self::from_config(SimulationConfig::large_population(population))
            .expect("large-population preset is valid")
            .with_label(format!("large-population/pop={population}"))
            .with_parameter(population as f64)
    }

    /// The spec's human-readable label (scenario constructors set
    /// `family/cell` style labels, such as `fig3/with-incentive`).
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
    /// docs), one line per key in the key table's order.
    /// [`ScenarioSpec::parse`] reads it back exactly.
    pub fn to_text(&self) -> String {
        // Spec texts run to about 1.1 kB.
        let mut out = String::with_capacity(2048);
        out.push_str("# collabsim scenario spec v1\n");
        for key in KEYS {
            (key.write)(self, &mut out);
        }
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
    /// Keys may appear in any order, and a later line overrides an earlier
    /// one (`adversary` lines add a unit each); omitted keys keep their
    /// [`SimulationConfig::default`] values (and the default phase order is
    /// derived from the parsed configuration when no `phases` key is
    /// present). Blank lines and `#` comments are ignored. The resulting
    /// spec is fully validated.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let mut draft = ScenarioSpecBuilder::new();
        for (index, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parse_error = |message| SpecError::Parse {
                line: index + 1,
                message,
            };
            let Some((key, value)) = line.split_once('=') else {
                return Err(parse_error(format!("expected `key = value`, got `{line}`")));
            };
            let (key, value) = (key.trim(), value.trim());
            let Some(entry) = KEYS.iter().find(|entry| entry.name == key) else {
                return Err(parse_error(format!("unknown spec key `{key}`")));
            };
            (entry.read)(&mut draft, value).map_err(|error| error.at(index + 1, key, value))?;
        }
        draft.build()
    }
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

/// One spec key: its name, where its value lives, its text form and its
/// domain. [`KEYS`] declares every key once; `to_text`, `parse` and
/// [`SimulationConfig::check`] loop over it.
struct Key {
    name: &'static str,
    /// Appends the key's lines for a spec: none for a key at its default
    /// that is written only when changed, one per unit for `adversary`.
    write: fn(&ScenarioSpec, &mut String),
    /// Reads one line's value into the draft.
    read: fn(&mut ScenarioSpecBuilder, &str) -> Result<(), SpecError>,
    /// Checks the key's domain.
    check: fn(&SimulationConfig) -> Result<(), SpecError>,
}

/// A [`Key`] whose value lives at `config.<path>` and reads and writes
/// through its [`Text`] codec (`key!(spec <field>: <type>)` for the
/// spec's own label, parameter and phases). After the path comes the
/// domain, if the key has one:
/// - `|value| ok, message`: a rule on the value, reported under the key;
/// - `checked`: the value's own `check`, reported under the key;
/// - `checked by <group>`: the `check` of the config group the value
///   belongs to, reported under the group's name.
///
/// A trailing `if_changed` writes the key only when it differs from the
/// default, so spec files written before the key existed stay
/// byte-identical.
macro_rules! key {
    (spec $field:ident: $ty:ty) => {
        Key {
            name: stringify!($field),
            write: |spec, out| line(out, stringify!($field), &spec.$field),
            read: |draft, text| {
                draft.$field = <$ty as Text>::read(text)?.into();
                Ok(())
            },
            check: |_| Ok(()),
        }
    };
    ($key:ident: $($path:ident).+, checked by $group:ident) => {
        key!(@entry $key [$($path).+] [] |config| config
            .$group
            .check()
            .map_err(|message| SpecError::invalid(stringify!($group), &message)))
    };
    ($key:ident: $($path:ident).+, checked $(, $written:ident)?) => {
        key!(@entry $key [$($path).+] [$($written)?] |config| config
            .$($path).+
            .check()
            .map_err(|message| SpecError::invalid(stringify!($key), &message)))
    };
    ($key:ident: $($path:ident).+, |$value:pat_param| $ok:expr, $message:expr $(, $written:ident)?) => {
        key!(@entry $key [$($path).+] [$($written)?] |config| {
            let $value = &config.$($path).+;
            if $ok {
                Ok(())
            } else {
                Err(SpecError::invalid(stringify!($key), $message))
            }
        })
    };
    ($key:ident: $($path:ident).+) => {
        key!(@entry $key [$($path).+] [] |_| Ok(()))
    };
    (@entry $key:ident [$($path:ident).+] [$($written:ident)?] $check:expr) => {
        Key {
            name: stringify!($key),
            write: key!(@write $key [$($path).+] $($written)?),
            read: |draft, text| {
                draft.config.$($path).+ = Text::read(text)?;
                Ok(())
            },
            check: $check,
        }
    };
    (@write $key:ident [$($path:ident).+]) => {
        |spec, out| line(out, stringify!($key), &spec.config.$($path).+)
    };
    (@write $key:ident [$($path:ident).+] if_changed) => {
        |spec, out| {
            let value = &spec.config.$($path).+;
            if *value != SimulationConfig::default().$($path).+ {
                line(out, stringify!($key), value);
            }
        }
    };
}

/// Peer and article ids are `u32`.
const ID_LIMIT: usize = u32::MAX as usize;

/// The largest utility weight magnitude a spec may set (the paper's
/// defaults are 0.25–10).
const MAX_UTILITY_WEIGHT: f64 = 1e6;

/// Every spec key, in the order [`ScenarioSpec::to_text`] writes them.
/// Rules that join several keys live in [`SimulationConfig::check`] and
/// [`ScenarioSpecBuilder::build`].
const KEYS: &[Key] = &[
    key!(spec label: String),
    key!(spec parameter: f64),
    key!(population: population, |&n| (2..=ID_LIMIT).contains(&n), "population must lie in [2, 2^32 - 1]"),
    key!(reputation_states: reputation_states, |&n| (1..=MAX_REPUTATION_STATES).contains(&n),
        &format!("reputation states must lie in [1, {MAX_REPUTATION_STATES}]")),
    key!(min_reputation: min_reputation, |&r| r > 0.0 && r < 1.0, "min reputation must lie in (0, 1)"),
    key!(reputation_beta: reputation_beta, |&b| b > 0.0, "reputation beta must be positive"),
    key!(incentive: incentive),
    key!(mix: mix),
    key!(training_steps: phases.training_steps),
    key!(evaluation_steps: phases.evaluation_steps),
    // `> 0` also refuses NaN, which the Boltzmann policy would otherwise
    // treat as the uniform training temperature.
    key!(training_temperature: phases.training_temperature, |&t| t > 0.0, "temperature must be positive"),
    key!(evaluation_temperature: phases.evaluation_temperature, |&t| t > 0.0, "temperature must be positive"),
    key!(learning_rate: learning.learning_rate, checked by learning),
    key!(discount: learning.discount, checked by learning),
    key!(initial_q: learning.initial_q, checked by learning),
    // Bounded weights bound every per-step reward: `U_S` weighs three
    // fractions, and `U_E` weighs one step's counts of successful edits and
    // votes, which the population bounds. So the Q-values (at most
    // `r_max / (1 − γ)`) and the report's utility sums stay finite at any
    // accepted step count; finite weights of 1e308 overflowed both.
    key!(utility_sharing: utility.sharing, |u| [u.alpha, u.beta, u.gamma].iter().all(|w| w.abs() <= MAX_UTILITY_WEIGHT),
        "utility weights must lie in [-1e6, 1e6]"),
    key!(utility_editing: utility.editing, |u| [u.delta, u.epsilon].iter().all(|w| w.abs() <= MAX_UTILITY_WEIGHT),
        "utility weights must lie in [-1e6, 1e6]"),
    key!(contribution: contribution, checked),
    key!(service: service, checked),
    key!(punishment: punishment, checked),
    key!(initial_articles: initial_articles, |&n| n <= ID_LIMIT, "at most 2^32 - 1 initial articles"),
    key!(download_probability: download_probability,
        |&rate| rate == DownloadRate::InverseSharers || matches!(rate, DownloadRate::Fixed(p) if (0.0..=1.0).contains(&p)),
        "download probability must lie in [0, 1]"),
    key!(edit_probability: edit_probability, |p| (0.0..=1.0).contains(p), "edit probability must lie in [0, 1]"),
    key!(restrict_voters_to_editors: restrict_voters_to_editors),
    key!(max_voters_per_edit: max_voters_per_edit, |&n| n > 0, "need at least one voter per edit"),
    key!(propagation: propagation, checked),
    key!(reputation_source: reputation_source),
    key!(reputation_uptime_discount: reputation_uptime_discount, |&f| f > 0.0 && f <= 1.0,
        "uptime discount factor must lie in (0, 1]", if_changed),
    key!(network: network, checked, if_changed),
    // Repeated: one line per unit.
    Key {
        name: "adversary",
        write: |spec, out| {
            for unit in &spec.config.adversaries {
                line(out, "adversary", unit);
            }
        },
        read: |draft, text| {
            draft.config.adversaries.push(Text::read(text)?);
            Ok(())
        },
        check: |config| {
            config
                .adversaries
                .iter()
                .try_for_each(AdversarySpec::check)
                .map_err(|message| SpecError::invalid("adversaries", &message))
        },
    },
    key!(churn: churn, checked),
    key!(ledger_shards: ledger_shards),
    key!(intra_step_threads: intra_step_threads, |&n| n <= MAX_THREADS,
        &format!("at most {MAX_THREADS} intra-step threads (0 = automatic)")),
    key!(seed: seed),
    key!(spec phases: Vec<String>),
    // Parse-only sugar: `to_text` writes the fields it expands to.
    Key {
        name: "defence",
        write: |_, _| {},
        read: |draft, text| apply_defence(&mut draft.config, text).map_err(refused),
        check: |_| Ok(()),
    },
];

/// Checks every key's own domain, in table order.
pub(crate) fn check_keys(config: &SimulationConfig) -> Result<(), SpecError> {
    KEYS.iter().try_for_each(|key| (key.check)(config))
}

/// A spec value's text form. `read` reports malformed text as a
/// [`SpecError::Parse`] that [`ScenarioSpec::parse`] places on its line.
trait Text: Sized {
    fn write(&self, out: &mut String);
    fn read(text: &str) -> Result<Self, SpecError>;
}

/// Appends the line `key = <value>`.
fn line(out: &mut String, key: &str, value: &impl Text) {
    out.push_str(key);
    out.push_str(" = ");
    value.write(out);
    out.push('\n');
}

/// Malformed value text; [`ScenarioSpec::parse`] adds the line it is on.
fn refused(message: impl Into<String>) -> SpecError {
    SpecError::Parse {
        line: 0,
        message: message.into(),
    }
}

/// Scalars in their display form: for `f64` that is the shortest form
/// that reads back as the same bits.
macro_rules! scalar_text {
    ($($ty:ty: $what:literal),*) => {$(
        impl Text for $ty {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn read(text: &str) -> Result<Self, SpecError> {
                text.parse().map_err(|_| refused(concat!("expected ", $what)))
            }
        }
    )*};
}

scalar_text!(f64: "a number", u64: "an integer", usize: "an integer", u32: "an integer",
    bool: "true or false");

/// Comma-separated items.
impl<T: Text + Copy + Default, const N: usize> Text for [T; N] {
    fn write(&self, out: &mut String) {
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write(out);
        }
    }

    fn read(text: &str) -> Result<Self, SpecError> {
        if text.split(',').count() != N {
            return Err(refused(format!("expected {N} comma-separated values")));
        }
        let mut items = [T::default(); N];
        for (item, part) in items.iter_mut().zip(text.split(',')) {
            *item = T::read(part.trim())?;
        }
        Ok(items)
    }
}

/// Parameter groups: their fields' values, comma-separated in
/// declaration order.
macro_rules! list_text {
    ($($ty:ident { $($field:ident),+ })*) => {$(
        impl Text for $ty {
            fn write(&self, out: &mut String) {
                [$(self.$field),+].write(out)
            }

            fn read(text: &str) -> Result<Self, SpecError> {
                let [$($field),+] = Text::read(text)?;
                Ok(Self { $($field),+ })
            }
        }
    )*};
}

list_text! {
    SharingUtilityParams { alpha, beta, gamma }
    EditingUtilityParams { delta, epsilon }
    ContributionParams { alpha_s, beta_s, decay_s, alpha_e, beta_e, decay_e }
    ServiceParams { edit_threshold, majority_at_min_reputation, majority_at_max_reputation }
    PunishmentPolicy { max_unsuccessful_votes, max_declined_edits, edits_to_restore_voting }
    ChurnModel { join_probability, leave_probability, whitewash_probability }
}

/// Enumerations by their stable labels.
macro_rules! label_text {
    ($($ty:ty: $what:literal),*) => {$(
        impl Text for $ty {
            fn write(&self, out: &mut String) {
                out.push_str(self.label());
            }

            fn read(text: &str) -> Result<Self, SpecError> {
                Self::from_label(text).ok_or_else(|| refused(concat!("unknown ", $what)))
            }
        }
    )*};
}

label_text!(IncentiveScheme: "incentive scheme", ReputationSource: "reputation source",
    PropagationScheme: "propagation scheme");

/// `rational,altruistic,irrational`; the constructor holds the mix rule.
impl Text for BehaviorMix {
    fn write(&self, out: &mut String) {
        [self.rational(), self.altruistic(), self.irrational()].write(out)
    }

    fn read(text: &str) -> Result<Self, SpecError> {
        let [rational, altruistic, irrational] = Text::read(text)?;
        BehaviorMix::try_new(rational, altruistic, irrational).map_err(refused)
    }
}

/// A probability, or `inverse-sharers` for the paper's `P = 1 / N_S`.
impl Text for DownloadRate {
    fn write(&self, out: &mut String) {
        match self {
            DownloadRate::Fixed(p) => p.write(out),
            DownloadRate::InverseSharers => out.push_str("inverse-sharers"),
        }
    }

    fn read(text: &str) -> Result<Self, SpecError> {
        match text {
            "inverse-sharers" => Ok(DownloadRate::InverseSharers),
            _ => Text::read(text).map(DownloadRate::Fixed),
        }
    }
}

/// `none` or `scheme@interval`, plus `,pretrusted=K` only when `K > 0`,
/// so spec files written before the pre-trusted set stay byte-identical.
impl Text for PropagationConfig {
    fn write(&self, out: &mut String) {
        let Some(scheme) = self.scheme else {
            return out.push_str("none");
        };
        let _ = write!(out, "{}@{}", scheme.label(), self.interval);
        if self.pretrusted > 0 {
            let _ = write!(out, ",pretrusted={}", self.pretrusted);
        }
    }

    fn read(text: &str) -> Result<Self, SpecError> {
        if text == "none" {
            return Ok(PropagationConfig::default());
        }
        let shape = || refused("expected `none` or `scheme@interval[,pretrusted=K]`");
        let (scheme, rest) = text.split_once('@').ok_or_else(shape)?;
        let (interval, pretrusted) = match rest.split_once(',') {
            Some((interval, k)) => (
                interval,
                k.trim().strip_prefix("pretrusted=").ok_or_else(shape)?,
            ),
            None => (rest, "0"),
        };
        Ok(PropagationConfig {
            scheme: Some(Text::read(scheme)?),
            interval: Text::read(interval.trim())?,
            pretrusted: Text::read(pretrusted)?,
        })
    }
}

/// The fault layer's `<model>[,param…]` form.
impl Text for LinkModel {
    fn write(&self, out: &mut String) {
        out.push_str(&self.label());
    }

    fn read(text: &str) -> Result<Self, SpecError> {
        LinkModel::from_label(text).map_err(|error| match error {
            LinkModelError::UnknownModel { name } => SpecError::UnknownNetworkModel { name },
            LinkModelError::InvalidParameter { message } => refused(message),
        })
    }
}

/// `strategy,count,parameter`.
impl Text for AdversarySpec {
    fn write(&self, out: &mut String) {
        out.push_str(self.strategy());
        let _ = write!(out, ",{},{}", self.count(), self.parameter());
    }

    fn read(text: &str) -> Result<Self, SpecError> {
        let mut parts = text.splitn(3, ',').map(str::trim);
        let mut next = || {
            parts
                .next()
                .ok_or_else(|| refused("expected `strategy,count,parameter`"))
        };
        let strategy = next()?;
        Ok(AdversarySpec::new(strategy, Text::read(next()?)?).with_parameter(Text::read(next()?)?))
    }
}

/// Free text (the label), written verbatim unless the line parser would
/// mangle it (surrounding whitespace, newlines, quotes, backslashes): then
/// as a JSON string, so the round trip is exact for every label.
impl Text for String {
    fn write(&self, out: &mut String) {
        if self != self.trim() || self.contains(['"', '\\', '\n', '\r']) {
            out.push_str(&Json::from(self.as_str()).to_string());
        } else {
            out.push_str(self);
        }
    }

    fn read(text: &str) -> Result<Self, SpecError> {
        if !text.starts_with('"') {
            return Ok(text.to_string());
        }
        let decoded = Json::parse(text).and_then(|json| String::from_json(&json));
        decoded.map_err(|error| refused(format!("bad quoted string: {error}")))
    }
}

/// A comma-separated name list (the phase order); empty names are dropped.
impl Text for Vec<String> {
    fn write(&self, out: &mut String) {
        out.push_str(&self.join(","));
    }

    fn read(text: &str) -> Result<Self, SpecError> {
        let names = text
            .split(',')
            .map(str::trim)
            .filter(|name| !name.is_empty());
        Ok(names.map(str::to_string).collect())
    }
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

    /// Occasional joins and departures.
    const MILD_CHURN: ChurnModel = ChurnModel {
        join_probability: 0.05,
        leave_probability: 0.002,
        whitewash_probability: 0.0,
    };

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
            .churn(MILD_CHURN)
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
        let message = "population must lie in [2, 2^32 - 1]";
        assert_eq!(err, SpecError::invalid("population", message));
        assert!(err.to_string().contains(message));
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
        let spec = ScenarioSpec::large_population(10_000);
        let parsed = ScenarioSpec::parse(&spec.to_text()).unwrap();
        assert_eq!(parsed, spec, "round trip drifted for {}", spec.label());
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
            .churn(MILD_CHURN)
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
            .churn(MILD_CHURN)
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
        let spec = ScenarioSpec::builder()
            .propagation(PropagationScheme::EigenTrust, 50)
            .propagated_reputation()
            .configure(|c| c.propagation.pretrusted = 4)
            .build()
            .unwrap();
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
        let spec = ScenarioSpec::builder()
            .configure(|c| c.reputation_uptime_discount = 0.97)
            .build()
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

    /// Each key's refused edge values, listed by hand; an empty list marks
    /// a key that takes any value of its type.
    const REFUSED: &[(&str, &[&str])] = &[
        ("label", &["\"unterminated"]),
        ("parameter", &[]),
        ("population", &["1", "4294967296", "-1"]),
        (
            "reputation_states",
            &["0", "65", "4611686018427387904", "18446744073709551615"],
        ),
        ("min_reputation", &["0", "1", "NaN"]),
        ("reputation_beta", &["0", "-1", "NaN"]),
        ("incentive", &["bogus"]),
        (
            "mix",
            &["NaN,0.5,0.5", "-0.5,1,0.5", "0.5,0.4,0", "inf,0,0", "1,0"],
        ),
        ("training_steps", &[]),
        ("evaluation_steps", &[]),
        ("training_temperature", &["0", "-0", "-1", "NaN"]),
        ("evaluation_temperature", &["0", "-0", "-1", "NaN"]),
        ("learning_rate", &["0", "1.5", "NaN"]),
        ("discount", &["-0.1", "1.5", "NaN"]),
        ("initial_q", &["inf", "NaN"]),
        (
            "utility_sharing",
            &[
                "NaN,0.5,0.5",
                "10,inf,0.5",
                "10,0.5",
                "1e308,1e308,1e308",
                "10,0.5,-1000001",
            ],
        ),
        (
            "utility_editing",
            &["NaN,0.25", "2,-inf", "1e308,1e308", "1000001,0.25"],
        ),
        (
            "contribution",
            &[
                "0,2,0.05,1,2,0.05",
                "1,2,-1,1,2,0.05",
                "1,NaN,0.05,1,2,0.05",
            ],
        ),
        (
            "service",
            &["0,0.65,0.5", "0.1,0.4,0.5", "0.1,1.5,0.5", "0.05,0.65,0.5"],
        ),
        ("punishment", &["0,1,1", "1,0,1", "1,1,0", "1,1,-1"]),
        ("initial_articles", &["4294967296"]),
        ("download_probability", &["-0.1", "1.5", "NaN", "inverse"]),
        ("edit_probability", &["-0.1", "1.5", "NaN"]),
        ("restrict_voters_to_editors", &["yes"]),
        ("max_voters_per_edit", &["0"]),
        (
            "propagation",
            &[
                "eigentrust@0",
                "gossip@50,pretrusted=4",
                "eigentrust@50,pretrusted=100",
                "telepathy@5",
            ],
        ),
        ("reputation_source", &["bogus", "propagated"]),
        ("reputation_uptime_discount", &["0", "-0.5", "1.5", "NaN"]),
        (
            "network",
            &[
                "carrier-pigeon",
                "lossy,1.5",
                "uniform,5,1",
                "lognormal,NaN,1",
                "clustered,0.1,0",
            ],
        ),
        (
            "adversary",
            &[
                "bad name,1,0",
                "collusion-ring,0,0",
                "collusion-ring,1,-1",
                "collusion-ring,1,NaN",
                "collusion-ring,99,0",
                "collusion-ring,2",
            ],
        ),
        ("churn", &["1.5,0,0", "0,NaN,0", "0,-0.1,0"]),
        ("ledger_shards", &[]),
        ("intra_step_threads", &["65", "18446744073709551615"]),
        ("seed", &[]),
        ("phases", &["", ","]),
        ("defence", &["moat", "uptime-discount=zero"]),
    ];

    #[test]
    fn every_key_refuses_its_edge_values() {
        let listed: Vec<&str> = REFUSED.iter().map(|(key, _)| *key).collect();
        let table: Vec<&str> = KEYS.iter().map(|key| key.name).collect();
        assert_eq!(listed, table, "list every key, in table order");
        for (key, values) in REFUSED {
            for value in *values {
                // A valid line first, so a parse error's line number shows
                // which line it blames.
                let error = ScenarioSpec::parse(&format!("seed = 1\n{key} = {value}\n"))
                    .expect_err(&format!("{key} = {value} must be refused"));
                let named = match &error {
                    SpecError::InvalidField { field, .. } => match *field {
                        "learning" => ["learning_rate", "discount", "initial_q"].contains(key),
                        "adversaries" => *key == "adversary",
                        field => field == *key,
                    },
                    SpecError::Parse { line, message } => {
                        *line == 2 && message.starts_with(&format!("`{key} = {value}`: "))
                    }
                    SpecError::UnknownNetworkModel { .. } => *key == "network",
                    SpecError::EmptyPhaseList => *key == "phases",
                    _ => false,
                };
                assert!(named, "{key} = {value}: {error:?}");
            }
        }
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
