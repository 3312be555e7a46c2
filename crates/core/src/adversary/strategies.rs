//! The built-in adversary strategies and the registry resolving spec names
//! into them.
//!
//! Five scripted strategies ship with the engine, covering the attack
//! classes the paper's incentive scheme is supposed to defeat (a sixth,
//! the Q-learning [`LearningAdversary`](super::LearningAdversary), lives in
//! the sibling `learning` module and registers here as `learning`):
//!
//! | name | attack |
//! |------|--------|
//! | `adaptive-whitewash` | vandalise, whitewash **just before** punishment bites |
//! | `naive-whitewash` | the same vandal, whitewashing at random times (the stochastic baseline) |
//! | `collusion-ring` | share fully, cross-vote each other's destructive edits, abstain outside |
//! | `oscillating-freerider` | build reputation, then free-ride on it, cyclically |
//! | `sybil-slander` | contribute nothing, slander every outsider edit, cycle identities on detection |
//! | `learning` | whatever the arms-race trainer discovers (parameter = learning rate, 0 = frozen) |
//!
//! Custom strategies register like custom phases: implement
//! [`AdversaryStrategy`], [`AdversaryRegistry::register`] a factory, and
//! name it in an [`AdversarySpec`] — the engine never changes.

use super::{AdversaryAction, AdversaryRoster, AdversarySpec, AdversaryStrategy, VotePolicy};
use crate::action::{CollabAction, EditBehavior, ShareLevel};
use crate::config::SimulationConfig;
use crate::netsim::peer::PeerId;
use crate::observer::WorldView;
use crate::spec::SpecError;
use rand::rngs::StdRng;
use rand::Rng;

/// The vandal action shared by both whitewash strategies: share half of
/// both resources (enough reputation to keep editing rights and service
/// flowing) while submitting destructive edits.
fn vandal_action() -> CollabAction {
    CollabAction {
        bandwidth: ShareLevel::Half,
        articles: ShareLevel::Half,
        edit: EditBehavior::Destructive,
    }
}

/// **`adaptive-whitewash`** — a vandal that watches its own
/// declined-edit counter and resets its identity *exactly when the
/// malicious-editor punishment is about to bite*: one more declined edit
/// would trigger the reputation reset and editing lockout, so the
/// whitewash pre-empts it — the fresh identity gets a full new decline
/// allowance and never suffers the punishment cycle. Voting-rights
/// revocations are deliberately ignored: they are cheap for a vandal whose
/// damage is edits, and reacting to them would thrash the identity.
///
/// Parameter: re-entry delay in steps. With a non-zero delay the strategy
/// additionally departs after each whitewash and schedules the re-entry
/// through the timed `ReentrySchedule`
/// (lie low, then return), the "timed whitewash" of the ROADMAP.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptiveWhitewash {
    /// Steps to stay offline after each whitewash (0 = stay online).
    pub rejoin_delay: u64,
}

impl AdversaryStrategy for AdaptiveWhitewash {
    fn name(&self) -> &'static str {
        "adaptive-whitewash"
    }

    fn on_step(
        &mut self,
        peers: &[PeerId],
        view: WorldView<'_>,
        _rng: &mut StdRng,
        actions: &mut Vec<AdversaryAction>,
    ) {
        let world = view.world();
        let policy = &world.config.punishment;
        for &peer in peers {
            if !world.peers.peer(peer).online {
                continue;
            }
            let p = peer.index();
            actions.push(AdversaryAction::Act {
                peer,
                action: vandal_action(),
            });
            // `PunishmentPolicy` punishes when a counter *exceeds* its
            // maximum, i.e. on the (max+1)-th offence — so a counter at the
            // maximum means the very next declined edit triggers the
            // revocation. Declined edits accumulate at most one per step
            // (one edit attempt per peer-step), so this check can never be
            // overtaken within a step.
            let edit_punishment_imminent =
                world.ledger.declined_edits(p) >= policy.max_declined_edits;
            if edit_punishment_imminent || !world.ledger.can_edit(p) {
                actions.push(AdversaryAction::Whitewash { peer });
                if self.rejoin_delay > 0 {
                    actions.push(AdversaryAction::Depart { peer });
                    actions.push(AdversaryAction::RejoinAt {
                        peer,
                        step: view.now() + self.rejoin_delay,
                    });
                }
            }
        }
    }
}

/// **`naive-whitewash`** — the same vandal as [`AdaptiveWhitewash`], but
/// whitewashing *stochastically* (a fixed per-peer-per-step probability)
/// with no regard for the punishment state: the strategic baseline the
/// adaptive variant is measured against. It resets while its record is
/// still valuable and it sits out the punishments it fails to dodge.
///
/// Parameter: the whitewash probability (0 = the 0.02 default).
#[derive(Debug, Clone, Copy)]
pub struct NaiveWhitewash {
    /// Per-peer whitewash probability per step.
    pub probability: f64,
}

impl Default for NaiveWhitewash {
    fn default() -> Self {
        Self { probability: 0.02 }
    }
}

impl AdversaryStrategy for NaiveWhitewash {
    fn name(&self) -> &'static str {
        "naive-whitewash"
    }

    fn on_step(
        &mut self,
        peers: &[PeerId],
        view: WorldView<'_>,
        rng: &mut StdRng,
        actions: &mut Vec<AdversaryAction>,
    ) {
        let world = view.world();
        for &peer in peers {
            if !world.peers.peer(peer).online {
                continue;
            }
            actions.push(AdversaryAction::Act {
                peer,
                action: vandal_action(),
            });
            if rng.gen_bool(self.probability) {
                actions.push(AdversaryAction::Whitewash { peer });
            }
        }
    }
}

/// **`collusion-ring`** — members share everything (earning full sharing
/// reputation, service priority and the right to edit), submit destructive
/// edits, and *cross-vote*: every member supports every other member's
/// edits and abstains on outsider edits, so the ring spends no unsuccessful
/// votes on content it does not care about. Parameter: unused.
#[derive(Debug, Clone, Copy, Default)]
pub struct CollusionRing;

impl AdversaryStrategy for CollusionRing {
    fn name(&self) -> &'static str {
        "collusion-ring"
    }

    fn vote_policy(&self) -> VotePolicy {
        VotePolicy::SupportRing
    }

    fn on_step(
        &mut self,
        peers: &[PeerId],
        view: WorldView<'_>,
        _rng: &mut StdRng,
        actions: &mut Vec<AdversaryAction>,
    ) {
        let world = view.world();
        for &peer in peers {
            if !world.peers.peer(peer).online {
                continue;
            }
            actions.push(AdversaryAction::Act {
                peer,
                action: CollabAction {
                    bandwidth: ShareLevel::Full,
                    articles: ShareLevel::Full,
                    edit: EditBehavior::Destructive,
                },
            });
        }
    }
}

/// **`oscillating-freerider`** — alternates between a *build* half-cycle
/// (share everything, look like a model citizen) and a *milk* half-cycle
/// (share nothing while still downloading on the reputation built before).
/// The oscillation defeats naive "current behaviour" heuristics; the
/// contribution decay of the reputation function is what limits it.
///
/// Parameter: the full cycle length in steps (0 = the 60-step default).
#[derive(Debug, Clone, Copy)]
pub struct OscillatingFreeRider {
    /// Full build+milk cycle length in steps.
    pub period: u64,
}

impl Default for OscillatingFreeRider {
    fn default() -> Self {
        Self { period: 60 }
    }
}

impl AdversaryStrategy for OscillatingFreeRider {
    fn name(&self) -> &'static str {
        "oscillating-freerider"
    }

    fn on_step(
        &mut self,
        peers: &[PeerId],
        view: WorldView<'_>,
        _rng: &mut StdRng,
        actions: &mut Vec<AdversaryAction>,
    ) {
        let world = view.world();
        // The registry factory validates `period >= 2`; clamp here too so a
        // directly constructed strategy with a degenerate period cannot
        // divide by zero.
        let period = self.period.max(2);
        let building = view.now() % period < period / 2;
        let share = if building {
            ShareLevel::Full
        } else {
            ShareLevel::None
        };
        for &peer in peers {
            if !world.peers.peer(peer).online {
                continue;
            }
            actions.push(AdversaryAction::Act {
                peer,
                action: CollabAction {
                    bandwidth: share,
                    articles: share,
                    edit: EditBehavior::Abstain,
                },
            });
        }
    }
}

/// **`sybil-slander`** — a set of throwaway identities that contribute
/// nothing, never edit, and vote **against every outsider edit** (and for
/// each other's, though they submit none). When the punishment machinery
/// catches a sybil (voting rights revoked), the identity is whitewashed and
/// the slander continues — sybil cycling amplified by `R_min` newcomers
/// always being allowed to vote. Parameter: unused.
#[derive(Debug, Clone, Copy, Default)]
pub struct SybilSlander;

impl AdversaryStrategy for SybilSlander {
    fn name(&self) -> &'static str {
        "sybil-slander"
    }

    fn vote_policy(&self) -> VotePolicy {
        VotePolicy::SlanderOutsiders
    }

    fn on_step(
        &mut self,
        peers: &[PeerId],
        view: WorldView<'_>,
        _rng: &mut StdRng,
        actions: &mut Vec<AdversaryAction>,
    ) {
        let world = view.world();
        for &peer in peers {
            if !world.peers.peer(peer).online {
                continue;
            }
            let p = peer.index();
            actions.push(AdversaryAction::Act {
                peer,
                action: CollabAction {
                    bandwidth: ShareLevel::None,
                    articles: ShareLevel::None,
                    edit: EditBehavior::Abstain,
                },
            });
            if !world.ledger.can_vote(p) {
                actions.push(AdversaryAction::Whitewash { peer });
            }
        }
    }
}

/// A factory producing one boxed strategy for a spec (or a human-readable
/// parameter error).
pub type StrategyFactory = Box<
    dyn Fn(&AdversarySpec, &SimulationConfig) -> Result<Box<dyn AdversaryStrategy>, String>
        + Send
        + Sync,
>;

/// A name → [`AdversaryStrategy`]-factory table resolving
/// [`AdversarySpec`]s into an [`AdversaryRoster`] — the adversary-side
/// sibling of [`PhaseRegistry`](crate::pipeline::PhaseRegistry).
pub struct AdversaryRegistry {
    entries: Vec<(String, StrategyFactory)>,
}

impl AdversaryRegistry {
    /// An empty registry (no names resolve).
    pub fn empty() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// The standard registry: the built-in strategies under their stable
    /// names (`adaptive-whitewash`, `naive-whitewash`, `collusion-ring`,
    /// `oscillating-freerider`, `sybil-slander`, `learning`).
    pub fn standard() -> Self {
        let mut registry = Self::empty();
        registry
            .register("adaptive-whitewash", |spec, _| {
                let delay = spec.parameter();
                if delay.fract() != 0.0 {
                    return Err(format!(
                        "adaptive-whitewash rejoin delay must be a whole number of steps, \
                         got {delay}"
                    ));
                }
                Ok(Box::new(AdaptiveWhitewash {
                    rejoin_delay: delay as u64,
                }))
            })
            .register("naive-whitewash", |spec, _| {
                let probability = if spec.parameter() > 0.0 {
                    spec.parameter()
                } else {
                    NaiveWhitewash::default().probability
                };
                if probability > 1.0 {
                    return Err(format!(
                        "naive-whitewash probability must lie in (0, 1], got {probability}"
                    ));
                }
                Ok(Box::new(NaiveWhitewash { probability }))
            })
            .register("collusion-ring", |_, _| Ok(Box::new(CollusionRing)))
            .register("oscillating-freerider", |spec, _| {
                let raw = spec.parameter();
                if raw.fract() != 0.0 {
                    return Err(format!(
                        "oscillating-freerider period must be a whole number of steps, got {raw}"
                    ));
                }
                let period = if raw > 0.0 {
                    raw as u64
                } else {
                    OscillatingFreeRider::default().period
                };
                if period < 2 {
                    return Err(format!(
                        "oscillating-freerider period must be at least 2 steps, got {raw}"
                    ));
                }
                Ok(Box::new(OscillatingFreeRider { period }))
            })
            .register("sybil-slander", |_, _| Ok(Box::new(SybilSlander)))
            .register("learning", |spec, _| {
                let alpha = spec.parameter();
                if alpha > 1.0 {
                    return Err(format!(
                        "learning rate must lie in [0, 1] (0 = frozen greedy replay), got {alpha}"
                    ));
                }
                Ok(Box::new(super::LearningAdversary::new(alpha)))
            });
        registry
    }

    /// Registers (or replaces — latest registration wins) a named strategy
    /// factory. The factory receives the spec (for the parameter) and the
    /// full configuration, and may reject bad parameters with a message.
    pub fn register<F>(&mut self, name: impl Into<String>, factory: F) -> &mut Self
    where
        F: Fn(&AdversarySpec, &SimulationConfig) -> Result<Box<dyn AdversaryStrategy>, String>
            + Send
            + Sync
            + 'static,
    {
        let name = name.into();
        self.entries.retain(|(existing, _)| *existing != name);
        self.entries.push((name, Box::new(factory)));
        self
    }

    /// Whether `name` resolves.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|(n, _)| n == name)
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Number of registered strategies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Instantiates one strategy for a spec.
    pub fn instantiate(
        &self,
        spec: &AdversarySpec,
        config: &SimulationConfig,
    ) -> Result<Box<dyn AdversaryStrategy>, SpecError> {
        let factory = self
            .entries
            .iter()
            .find(|(n, _)| n == spec.strategy())
            .map(|(_, factory)| factory)
            .ok_or_else(|| SpecError::UnknownStrategy {
                name: spec.strategy().to_string(),
            })?;
        factory(spec, config).map_err(|message| SpecError::InvalidField {
            field: "adversaries",
            message,
        })
    }

    /// Resolves every [`AdversarySpec`] of a configuration into an
    /// [`AdversaryRoster`] (an empty spec list yields the inert empty
    /// roster).
    pub fn build_roster(&self, config: &SimulationConfig) -> Result<AdversaryRoster, SpecError> {
        if config.adversaries.is_empty() {
            return Ok(AdversaryRoster::empty());
        }
        let mut units = Vec::with_capacity(config.adversaries.len());
        for spec in &config.adversaries {
            let strategy = self.instantiate(spec, config)?;
            units.push((spec.strategy().to_string(), spec.count(), strategy));
        }
        Ok(AdversaryRoster::from_units(config.population, units))
    }

    /// Validates that every adversary spec of a configuration resolves and
    /// has acceptable parameters — without building a roster, so sweep
    /// pre-checks do not allocate population-sized control tables per spec
    /// (the structural count/field checks are
    /// [`SimulationConfig::check`](crate::config::SimulationConfig::check)'s
    /// job).
    pub fn check_config(&self, config: &SimulationConfig) -> Result<(), SpecError> {
        for spec in &config.adversaries {
            self.instantiate(spec, config)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for AdversaryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdversaryRegistry")
            .field("names", &self.names())
            .finish()
    }
}

impl Default for AdversaryRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_knows_all_builtin_strategies() {
        let registry = AdversaryRegistry::standard();
        assert_eq!(registry.len(), 6);
        for name in [
            "adaptive-whitewash",
            "naive-whitewash",
            "collusion-ring",
            "oscillating-freerider",
            "sybil-slander",
            "learning",
        ] {
            assert!(registry.contains(name), "missing {name}");
        }
        assert!(!registry.contains("no-such-strategy"));
        assert!(!registry.is_empty());
    }

    #[test]
    fn unknown_strategy_is_a_typed_error() {
        let registry = AdversaryRegistry::standard();
        let config = SimulationConfig {
            adversaries: vec![AdversarySpec::new("wormhole", 2)],
            ..Default::default()
        };
        let err = registry.build_roster(&config).unwrap_err();
        assert_eq!(
            err,
            SpecError::UnknownStrategy {
                name: "wormhole".to_string()
            }
        );
        assert!(err.to_string().contains("wormhole"));
    }

    #[test]
    fn bad_parameters_are_rejected_with_field_errors() {
        let registry = AdversaryRegistry::standard();
        let mut config = SimulationConfig {
            adversaries: vec![AdversarySpec::new("naive-whitewash", 2).with_parameter(1.5)],
            ..Default::default()
        };
        let err = registry.check_config(&config).unwrap_err();
        assert!(matches!(
            err,
            SpecError::InvalidField {
                field: "adversaries",
                ..
            }
        ));
        config.adversaries =
            vec![AdversarySpec::new("oscillating-freerider", 2).with_parameter(1.0)];
        assert!(registry.check_config(&config).is_err());
        // A fractional rejoin delay is rejected, not silently truncated.
        config.adversaries = vec![AdversarySpec::new("adaptive-whitewash", 2).with_parameter(0.5)];
        assert!(registry.check_config(&config).is_err());
    }

    #[test]
    fn parameters_default_when_zero() {
        let registry = AdversaryRegistry::standard();
        let config = SimulationConfig::default();
        let strategy = registry
            .instantiate(&AdversarySpec::new("naive-whitewash", 1), &config)
            .unwrap();
        assert_eq!(strategy.name(), "naive-whitewash");
        let strategy = registry
            .instantiate(&AdversarySpec::new("oscillating-freerider", 1), &config)
            .unwrap();
        assert_eq!(strategy.name(), "oscillating-freerider");
    }

    #[test]
    fn custom_registrations_replace_standard_ones() {
        let mut registry = AdversaryRegistry::standard();
        registry.register("collusion-ring", |_, _| Ok(Box::new(SybilSlander)));
        assert_eq!(registry.len(), 6, "replacement, not addition");
        let config = SimulationConfig::default();
        let strategy = registry
            .instantiate(&AdversarySpec::new("collusion-ring", 1), &config)
            .unwrap();
        assert_eq!(strategy.name(), "sybil-slander", "latest wins");
    }
}
