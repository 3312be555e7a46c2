//! The learning adversary: a Q-learning attacker trained by the arms-race
//! harness.
//!
//! The five scripted strategies of the adversary subsystem encode fixed
//! attack recipes; [`LearningAdversary`] instead *discovers* one. Each
//! controlled peer runs a tabular Q-learner (the same
//! `crate::rl` machinery the honest rational agents use) over a
//! discretised observation of its own standing — reputation bucket,
//! punishment proximity, steps since its last identity reset, vote-rights
//! status — and a small macro-action space built from the typed
//! [`AdversaryAction`]s: lurk, free-ride, cooperate, vandalise (bare or
//! under full-sharing cover), whitewash, or lie low. The reward is damage
//! dealt minus reputation shed: the bandwidth the peer extracted from the
//! network that step, minus the sharing reputation a whitewash discarded.
//!
//! **Determinism contract.** All randomness comes from the dedicated
//! `adversary_rng` stream handed to [`AdversaryStrategy::on_step`]. In
//! training mode (`adversary = learning,K,<alpha>` with `alpha > 0`) each
//! acting peer consumes exactly one draw per step (a Boltzmann sample over
//! its Q-row). In **frozen** mode (`alpha = 0`) action selection is the
//! deterministic greedy argmax and the strategy draws *nothing* — a frozen
//! policy replays bit-identically at any `SCENARIO_THREADS` setting. A
//! frozen *untrained* learner is inert by construction: ties in the
//! all-zero Q-table break towards action 0, which is "lurk" (emit
//! nothing), so inserting it leaves the golden report untouched.
//!
//! Trained policies travel through the checkpoint layer: the strategy
//! implements [`AdversaryStrategy::export_policy`] /
//! [`AdversaryStrategy::restore_policy`], and the snapshot codec carries
//! the resulting [`PolicyState`] so training is resumable and a trained
//! Q-table can be injected into a frozen evaluation fork.

use super::{AdversaryAction, AdversaryStrategy, PeerPolicyState, PolicyState};
use crate::action::{CollabAction, EditBehavior, ShareLevel};
use crate::netsim::peer::PeerId;
use crate::observer::WorldView;
use crate::rl::boltzmann::{boltzmann_distribution, sample_probs};
use crate::rl::qtable::QTable;
use crate::rl::space::StateSpace;
use rand::rngs::StdRng;

/// Reputation buckets of the observation space.
pub const REPUTATION_BUCKETS: usize = 4;
/// Punishment-proximity levels: clean / approaching / punished.
pub const PUNISHMENT_LEVELS: usize = 3;
/// Steps-since-reset buckets (fresh / settling / established / veteran).
pub const RESET_AGE_BUCKETS: usize = 4;
/// Vote-rights states (revoked / intact).
pub const VOTE_STATES: usize = 2;

/// Total observation states:
/// `REPUTATION_BUCKETS × PUNISHMENT_LEVELS × RESET_AGE_BUCKETS × VOTE_STATES`.
pub const OBSERVATION_STATES: usize =
    REPUTATION_BUCKETS * PUNISHMENT_LEVELS * RESET_AGE_BUCKETS * VOTE_STATES;

/// The attacker's macro-actions, in Q-table column order. Index 0 **must**
/// stay the no-op: greedy ties break to the lowest index, so an untrained
/// all-zero table lurks and the frozen learner is provably inert.
pub const ATTACK_ACTIONS: usize = 7;

/// Steps a lying-low peer stays offline before its scheduled re-entry.
const LIE_LOW_STEPS: u64 = 8;
/// Discount factor of the attacker's Q-update.
const DISCOUNT: f64 = 0.9;
/// Boltzmann temperature of training-mode exploration.
const TEMPERATURE: f64 = 1.0;

/// Steps-since-reset bucket boundaries (upper-exclusive, last unbounded).
const RESET_AGE_BOUNDS: [u64; 3] = [25, 75, 150];

/// A Q-learning adversary strategy (registry name `learning`).
///
/// The [`AdversarySpec`](super::AdversarySpec) parameter is the learning
/// rate `alpha`: `alpha > 0` trains (Boltzmann exploration plus Q-updates),
/// `alpha = 0` freezes the policy (greedy replay, zero RNG draws, no
/// updates). The Q-table is shared across the unit's peers — every
/// controlled peer feeds the same table, which is what makes small units
/// learn at a usable rate — while the per-peer trajectory state
/// (last state/action, reset age, reward baselines) is tracked per peer.
pub struct LearningAdversary {
    alpha: f64,
    q: QTable,
    updates: u64,
    per_peer: Vec<PeerTrajectory>,
}

/// Per-peer trajectory state of the learner.
#[derive(Debug, Clone)]
struct PeerTrajectory {
    /// The `(state, action)` awaiting its reward, if any.
    last: Option<(usize, usize)>,
    /// Steps since the peer last whitewashed (saturating).
    steps_since_reset: u64,
    /// Total downloaded bandwidth observed at the previous step (the
    /// damage baseline; reset to 0 when a whitewash clears the upload
    /// history).
    last_downloaded: f64,
    /// Reputation shed by a whitewash emitted last step, charged against
    /// the next observed reward.
    pending_shed: f64,
}

impl Default for PeerTrajectory {
    fn default() -> Self {
        Self {
            last: None,
            steps_since_reset: u64::MAX / 2,
            last_downloaded: 0.0,
            pending_shed: 0.0,
        }
    }
}

impl LearningAdversary {
    /// A fresh learner with the given learning rate (`0` = frozen).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]` (the registry factory
    /// validates first and reports a typed error).
    pub fn new(alpha: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&alpha),
            "learning rate must lie in [0, 1]"
        );
        Self {
            alpha,
            q: QTable::zeroed(OBSERVATION_STATES, ATTACK_ACTIONS),
            updates: 0,
            per_peer: Vec::new(),
        }
    }

    /// Whether the policy is frozen (`alpha = 0`): greedy replay, no
    /// updates, no RNG draws.
    pub fn is_frozen(&self) -> bool {
        self.alpha == 0.0
    }

    /// The attacker's Q-table.
    pub fn q_table(&self) -> &QTable {
        &self.q
    }

    /// Number of Q-updates applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Discretises one peer's observation into a state index.
    fn observe(view: &WorldView<'_>, peer: usize, steps_since_reset: u64) -> usize {
        let world = view.world();
        let r_min = world.config.min_reputation;
        let rep_bucket = StateSpace::new(REPUTATION_BUCKETS).bucket(
            world.ledger.sharing_reputation(peer),
            r_min,
            1.0,
        );
        let punishment = if !world.ledger.can_edit(peer) {
            2
        } else if 2 * world.ledger.declined_edits(peer)
            >= world.config.punishment.max_declined_edits
        {
            1
        } else {
            0
        };
        let reset_age = RESET_AGE_BOUNDS
            .iter()
            .position(|&bound| steps_since_reset < bound)
            .unwrap_or(RESET_AGE_BOUNDS.len());
        let vote = usize::from(world.ledger.can_vote(peer));
        ((rep_bucket * PUNISHMENT_LEVELS + punishment) * RESET_AGE_BUCKETS + reset_age)
            * VOTE_STATES
            + vote
    }

    /// Total bandwidth `peer` has downloaded so far (the damage signal:
    /// the sum of every other peer's uploads to it).
    fn downloaded(view: &WorldView<'_>, peer: usize) -> f64 {
        let uploads = &view.world().uploads;
        (0..view.population())
            .map(|source| uploads.get(source, peer))
            .sum()
    }

    /// Emits the world actions of one macro-action; returns whether the
    /// peer whitewashed (so the caller resets its trajectory baselines).
    fn emit(
        &mut self,
        choice: usize,
        peer: PeerId,
        now: u64,
        actions: &mut Vec<AdversaryAction>,
    ) -> bool {
        let forced = |action: CollabAction| AdversaryAction::Act { peer, action };
        match choice {
            0 => {} // Lurk: the peer behaves like its underlying agent.
            1 => actions.push(forced(CollabAction::idle())),
            2 => actions.push(forced(CollabAction::altruistic())),
            3 => actions.push(forced(CollabAction {
                bandwidth: ShareLevel::Half,
                articles: ShareLevel::Half,
                edit: EditBehavior::Destructive,
            })),
            4 => actions.push(forced(CollabAction {
                bandwidth: ShareLevel::Full,
                articles: ShareLevel::Full,
                edit: EditBehavior::Destructive,
            })),
            5 => {
                actions.push(AdversaryAction::Whitewash { peer });
                return true;
            }
            6 => {
                actions.push(AdversaryAction::Depart { peer });
                actions.push(AdversaryAction::RejoinAt {
                    peer,
                    step: now + LIE_LOW_STEPS,
                });
            }
            other => unreachable!("attack action {other} out of range"),
        }
        false
    }
}

impl AdversaryStrategy for LearningAdversary {
    fn name(&self) -> &'static str {
        "learning"
    }

    fn on_step(
        &mut self,
        peers: &[PeerId],
        view: WorldView<'_>,
        rng: &mut StdRng,
        actions: &mut Vec<AdversaryAction>,
    ) {
        if self.per_peer.len() != peers.len() {
            self.per_peer = vec![PeerTrajectory::default(); peers.len()];
        }
        let now = view.now();
        let frozen = self.is_frozen();
        for (slot, &peer) in peers.iter().enumerate() {
            let p = peer.index();
            // An offline peer (lying low) neither observes nor acts; its
            // pending transition is settled when it returns.
            if !view.world().peers.peer(peer).online {
                continue;
            }
            let steps_since_reset = self.per_peer[slot].steps_since_reset;
            let state = Self::observe(&view, p, steps_since_reset);
            let downloaded = Self::downloaded(&view, p);
            if frozen {
                // Greedy replay: deterministic, drawing nothing.
                let choice = self.q.greedy_action(state);
                let reset = self.emit(choice, peer, now, actions);
                let traj = &mut self.per_peer[slot];
                traj.steps_since_reset = if reset {
                    0
                } else {
                    traj.steps_since_reset.saturating_add(1)
                };
                continue;
            }
            // Settle the previous transition: reward is the bandwidth
            // extracted since the last observation minus the reputation a
            // whitewash shed in between.
            {
                let traj = &mut self.per_peer[slot];
                if let Some((prev_state, prev_action)) = traj.last {
                    let reward = (downloaded - traj.last_downloaded) - traj.pending_shed;
                    let target = reward + DISCOUNT * self.q.max_value(state);
                    let old = self.q.get(prev_state, prev_action);
                    self.q.set(
                        prev_state,
                        prev_action,
                        (1.0 - self.alpha) * old + self.alpha * target,
                    );
                    self.updates += 1;
                }
                traj.pending_shed = 0.0;
            }
            // Boltzmann exploration over the Q-row: exactly one RNG draw.
            let probs = boltzmann_distribution(self.q.row(state), TEMPERATURE);
            let choice = sample_probs(&probs, rng);
            let shed_if_reset = (view.world().ledger.sharing_reputation(p)
                - view.world().config.min_reputation)
                .max(0.0);
            let reset = self.emit(choice, peer, now, actions);
            let traj = &mut self.per_peer[slot];
            traj.last = Some((state, choice));
            if reset {
                // The whitewash wipes the upload history, so the damage
                // baseline restarts at zero and the shed reputation is
                // charged against the next reward.
                traj.pending_shed = shed_if_reset;
                traj.last_downloaded = 0.0;
                traj.steps_since_reset = 0;
            } else {
                traj.last_downloaded = downloaded;
                traj.steps_since_reset = traj.steps_since_reset.saturating_add(1);
            }
        }
    }

    fn export_policy(&self) -> Option<PolicyState> {
        Some(PolicyState {
            states: OBSERVATION_STATES as u32,
            actions: ATTACK_ACTIONS as u32,
            q: (0..OBSERVATION_STATES)
                .flat_map(|s| self.q.row(s).iter().copied())
                .collect(),
            updates: self.updates,
            per_peer: self
                .per_peer
                .iter()
                .map(|traj| PeerPolicyState {
                    last_state: traj.last.map(|(s, _)| s as u64),
                    last_action: traj.last.map(|(_, a)| a as u32).unwrap_or(0),
                    steps_since_reset: traj.steps_since_reset,
                    last_downloaded: traj.last_downloaded,
                    pending_shed: traj.pending_shed,
                })
                .collect(),
        })
    }

    fn restore_policy(&mut self, policy: &PolicyState) {
        // A policy of a different shape (older code, different strategy)
        // is ignored rather than corrupting the table.
        if policy.states as usize != OBSERVATION_STATES
            || policy.actions as usize != ATTACK_ACTIONS
            || policy.q.len() != OBSERVATION_STATES * ATTACK_ACTIONS
        {
            return;
        }
        for (index, &value) in policy.q.iter().enumerate() {
            self.q
                .set(index / ATTACK_ACTIONS, index % ATTACK_ACTIONS, value);
        }
        self.updates = policy.updates;
        self.per_peer = policy
            .per_peer
            .iter()
            .map(|state| PeerTrajectory {
                last: state.last_state.map(|s| {
                    (
                        (s as usize).min(OBSERVATION_STATES - 1),
                        (state.last_action as usize).min(ATTACK_ACTIONS - 1),
                    )
                }),
                steps_since_reset: state.steps_since_reset,
                last_downloaded: state.last_downloaded,
                pending_shed: state.pending_shed,
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversarySpec;
    use crate::config::{PhaseConfig, SimulationConfig};
    use crate::engine::Simulation;
    use crate::spec::ScenarioSpec;

    fn quick_config() -> SimulationConfig {
        SimulationConfig {
            population: 16,
            initial_articles: 8,
            phases: PhaseConfig {
                training_steps: 60,
                evaluation_steps: 40,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn action_zero_is_the_lurk_noop() {
        let mut learner = LearningAdversary::new(0.0);
        let mut actions = Vec::new();
        let reset = learner.emit(0, PeerId(3), 7, &mut actions);
        assert!(actions.is_empty(), "lurk must emit nothing");
        assert!(!reset);
    }

    #[test]
    fn every_macro_action_emits_within_bounds() {
        let mut learner = LearningAdversary::new(0.5);
        for choice in 0..ATTACK_ACTIONS {
            let mut actions = Vec::new();
            learner.emit(choice, PeerId(9), 11, &mut actions);
            assert!(actions.len() <= 2, "action {choice}");
        }
    }

    #[test]
    fn frozen_untrained_learner_is_bit_identical_to_no_adversary() {
        let config = quick_config();
        let baseline = Simulation::new(config.clone()).run();
        let mut with_learner = config;
        with_learner.adversaries = vec![AdversarySpec::new("learning", 3).with_parameter(0.0)];
        let report = Simulation::from_spec(&ScenarioSpec::from_config(with_learner).unwrap())
            .unwrap()
            .run();
        assert_eq!(
            report, baseline,
            "frozen all-zero policy must lurk and leave the run untouched"
        );
    }

    #[test]
    fn training_mode_updates_the_table_and_stays_finite() {
        let mut config = quick_config();
        config.adversaries = vec![AdversarySpec::new("learning", 3).with_parameter(0.2)];
        let mut sim = Simulation::from_spec(&ScenarioSpec::from_config(config).unwrap()).unwrap();
        sim.run();
        let policy = sim.world().adversaries.export_policies();
        let exported = policy[0].as_ref().expect("learning unit exports a policy");
        assert!(exported.updates > 0, "training must update the table");
        assert!(exported.q.iter().all(|v| v.is_finite()));
        assert_eq!(exported.per_peer.len(), 3);
    }

    #[test]
    fn policy_round_trips_through_export_and_restore() {
        let mut config = quick_config();
        config.adversaries = vec![AdversarySpec::new("learning", 2).with_parameter(0.3)];
        let mut sim = Simulation::from_spec(&ScenarioSpec::from_config(config).unwrap()).unwrap();
        sim.run();
        let exported = sim.world().adversaries.export_policies()[0]
            .clone()
            .expect("policy exported");
        let mut fresh = LearningAdversary::new(0.0);
        fresh.restore_policy(&exported);
        let round = fresh.export_policy().expect("restored policy re-exports");
        assert_eq!(round.q, exported.q);
        assert_eq!(round.updates, exported.updates);
        assert_eq!(round.per_peer.len(), exported.per_peer.len());
    }

    #[test]
    fn mismatched_policy_shapes_are_ignored() {
        let mut learner = LearningAdversary::new(0.0);
        learner.restore_policy(&PolicyState {
            states: 3,
            actions: 2,
            q: vec![9.0; 6],
            updates: 77,
            per_peer: Vec::new(),
        });
        assert_eq!(learner.updates(), 0, "foreign policy must be rejected");
        assert!(learner.q_table().iter().all(|(_, _, v)| v == 0.0));
    }

    #[test]
    fn trained_frozen_replay_is_deterministic_across_runs() {
        let mut train = quick_config();
        train.adversaries = vec![AdversarySpec::new("learning", 3).with_parameter(0.4)];
        let train_spec = ScenarioSpec::from_config(train).unwrap();
        let mut sim = Simulation::from_spec(&train_spec).unwrap();
        sim.run();
        let policies = sim.world().adversaries.export_policies();

        let mut frozen = quick_config();
        frozen.adversaries = vec![AdversarySpec::new("learning", 3).with_parameter(0.0)];
        let frozen_spec = ScenarioSpec::from_config(frozen).unwrap();
        let run = |policies: &[Option<PolicyState>]| {
            let mut sim = Simulation::from_spec(&frozen_spec).unwrap();
            sim.world_mut().adversaries.restore_policies(policies);
            sim.run()
        };
        assert_eq!(run(&policies), run(&policies));
    }
}
