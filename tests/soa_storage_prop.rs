//! Property tests pinning the struct-of-arrays hot state bitwise against
//! the per-peer reference structs, plus the active-set invariant:
//!
//! * **Agent storage** — [`AgentTable`] (bucket-major flat Q storage) must
//!   reproduce a `Vec<CollabAgent>` exactly, bit for bit, over random
//!   traces of choices, Q-updates, offline gaps and adversary-forced
//!   skips, at a random number of reputation states. Both sides share one
//!   RNG stream (only the reference agents draw), so any divergence is a
//!   storage bug, not sampling noise.
//! * **Shard splitting** — learning through [`AgentTable::split_mut`]
//!   shards must equal sequential whole-table learning bitwise, and every
//!   shard must read the whole table's Q-rows, for arbitrary shard bounds
//!   and state counts.
//! * **Active sets** — after every step of a churned, attacked simulation
//!   (departures, re-entries, whitewashes, scheduled adversary rejoins),
//!   the incrementally maintained [`ActiveSets`] must equal a
//!   from-scratch recomputation against the peer registry, and
//!   [`WorldView::online_count`] (a popcount of the online bitset) must
//!   equal the registry's online count.

use collabsim_workspace::collabsim::adversary::AdversarySpec;
use collabsim_workspace::collabsim::config::PhaseConfig;
use collabsim_workspace::collabsim::netsim::churn::ChurnModel;
use collabsim_workspace::collabsim::rl::qlearning::QLearningParams;
use collabsim_workspace::collabsim::rl::space::StateSpace;
use collabsim_workspace::collabsim::{
    ActiveSets, AgentState, AgentTable, BehaviorMix, BehaviorType, CollabAgent, Simulation,
    SimulationConfig, WorldView,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The most reputation states the properties draw.
const MAX_STATES: usize = 12;
const ACTIONS: usize = 27;

/// Draws a behaviour assignment with all three types represented when the
/// population allows it.
fn draw_behaviors(population: usize, rng: &mut StdRng) -> Vec<BehaviorType> {
    (0..population)
        .map(|p| match (p + rng.gen_range(0..3usize)) % 3 {
            0 => BehaviorType::Rational,
            1 => BehaviorType::Altruistic,
            _ => BehaviorType::Irrational,
        })
        .collect()
}

/// Asserts the table reproduces the reference agents bitwise: learner
/// flags, update counts, every Q-cell, and the greedy action per state.
fn assert_table_matches(table: &AgentTable, reference: &[CollabAgent]) {
    let states = table.state_count();
    let learners = reference.iter().filter(|a| a.is_learning()).count();
    // Only learners own Q-values.
    assert_eq!(table.q_values().len(), learners * states * ACTIONS);
    for (p, agent) in reference.iter().enumerate() {
        assert_eq!(table.is_learning(p), agent.is_learning(), "peer {p} flag");
        let updates = agent.learner().map_or(0, |l| l.updates());
        assert_eq!(table.updates_of(p), updates, "peer {p} update count");
        if let Some(learner) = agent.learner() {
            for s in 0..states {
                let row = table.q_row(p, s);
                assert_eq!(row.len(), ACTIONS);
                for (a, value) in row.iter().enumerate() {
                    assert_eq!(
                        value.to_bits(),
                        learner.table().get(s, a).to_bits(),
                        "peer {p} q[{s}][{a}] diverged"
                    );
                }
                assert_eq!(
                    table.greedy_action(p, s),
                    agent
                        .greedy_action(AgentState { bucket: s })
                        .map(|a| a.to_index()),
                    "peer {p} greedy action in state {s}"
                );
            }
        } else {
            assert_eq!(table.greedy_action(p, 0), None);
        }
    }
}

/// Random ascending shard bounds `[0, …, population]`.
fn draw_bounds(population: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut bounds = vec![0, population];
    for _ in 0..rng.gen_range(0..4usize) {
        bounds.push(rng.gen_range(0..population + 1));
    }
    bounds.sort_unstable();
    bounds.dedup();
    if bounds.len() < 2 {
        bounds.push(population);
    }
    bounds
}

proptest! {
    /// The SoA agent table replayed against per-peer [`CollabAgent`]s over
    /// a random trace of choices, rewards, offline gaps and forced skips
    /// stays bitwise identical after every step.
    #[test]
    fn agent_table_matches_per_peer_agents_bitwise(
        population in 3usize..14,
        steps in 1usize..40,
        state_count in 1usize..MAX_STATES + 1,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let behaviors = draw_behaviors(population, &mut rng);
        let states = StateSpace::new(state_count);
        let params = QLearningParams::default();
        let mut table = AgentTable::new(&behaviors, states, params);
        let mut reference: Vec<CollabAgent> = behaviors
            .iter()
            .map(|&b| CollabAgent::new(b, states, params))
            .collect();
        let mut online = vec![true; population];

        for step in 0..steps {
            // High-temperature exploration first, then greedy-ish play —
            // both Boltzmann regimes the engine uses.
            let temperature = if step % 2 == 0 { f64::MAX } else { 1.0 };
            for p in 0..population {
                // Churn: peers drop out and re-enter mid-trace.
                if rng.gen_bool(0.1) {
                    online[p] = !online[p];
                }
                if !online[p] {
                    continue;
                }
                // Adversary-forced peers skip choose/record/learn entirely.
                if rng.gen_bool(0.1) {
                    continue;
                }
                let bucket = rng.gen_range(0..state_count);
                let action = reference[p].choose(AgentState { bucket }, temperature, &mut rng);
                table.record_choice(p, bucket, action.to_index());
                prop_assert_eq!(table.last_state_bucket(p), Some(bucket));
                prop_assert_eq!(table.last_action_index(p), Some(action.to_index()));
                // Most choices see their delayed Q-update; some steps end
                // without one (e.g. the peer departs before utility).
                if rng.gen_bool(0.85) {
                    let reward = rng.gen_range(-1.0..1.5);
                    let next = rng.gen_range(0..state_count);
                    reference[p].learn(reward, AgentState { bucket: next });
                    table.learn(p, reward, next);
                }
            }
            assert_table_matches(&table, &reference);
        }
    }

    /// Learning through disjoint [`AgentTable::split_mut`] shards equals
    /// sequential whole-table learning bitwise, and each shard reads the
    /// whole table's Q-rows, for arbitrary bounds and state counts.
    #[test]
    fn sharded_learning_matches_sequential_learning(
        population in 2usize..24,
        state_count in 1usize..MAX_STATES + 1,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let behaviors = draw_behaviors(population, &mut rng);
        let states = StateSpace::new(state_count);
        let params = QLearningParams::default();
        let mut sequential = AgentTable::new(&behaviors, states, params);
        for p in 0..population {
            sequential.record_choice(p, rng.gen_range(0..state_count), rng.gen_range(0..ACTIONS));
        }
        let mut sharded = sequential.clone();
        let rewards: Vec<(f64, usize)> = (0..population)
            .map(|_| (rng.gen_range(-1.0..1.5), rng.gen_range(0..state_count)))
            .collect();

        for (p, &(reward, next)) in rewards.iter().enumerate() {
            sequential.learn(p, reward, next);
        }
        let bounds = draw_bounds(population, &mut rng);
        let mut shards = sharded.split_mut(&bounds);
        for shard in &mut shards {
            for p in shard.range() {
                let (reward, next) = rewards[p];
                shard.learn(p, reward, next);
            }
        }
        for shard in &shards {
            for p in shard.range().filter(|&p| sequential.is_learning(p)) {
                for s in 0..state_count {
                    let (a, b) = (sequential.q_row(p, s), shard.q_row(p, s));
                    for (i, (x, y)) in a.iter().zip(b).enumerate() {
                        prop_assert_eq!(x.to_bits(), y.to_bits(), "shard peer {} q[{}][{}]", p, s, i);
                    }
                }
            }
        }
        drop(shards);

        prop_assert_eq!(sequential.total_updates(), sharded.total_updates());
        for p in 0..population {
            prop_assert_eq!(sequential.updates_of(p), sharded.updates_of(p), "peer {}", p);
            prop_assert_eq!(sequential.is_learning(p), sharded.is_learning(p), "peer {}", p);
            if !sequential.is_learning(p) {
                continue;
            }
            for s in 0..state_count {
                let (a, b) = (sequential.q_row(p, s), sharded.q_row(p, s));
                for (i, (x, y)) in a.iter().zip(b).enumerate() {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "peer {} q[{}][{}]", p, s, i);
                }
            }
        }
    }

    /// The incrementally maintained active sets equal a from-scratch
    /// recomputation after **every** step of a run whose churn phase
    /// departs, re-enters and whitewashes peers and whose timed
    /// whitewashing adversary departs and rejoins on its own schedule;
    /// the observer-facing [`WorldView::online_count`] agrees with the
    /// registry throughout.
    #[test]
    fn active_sets_match_recomputation_under_churn_and_attack(
        seed in 0u64..1_000_000,
    ) {
        let config = SimulationConfig {
            population: 32,
            initial_articles: 16,
            phases: PhaseConfig {
                training_steps: 40,
                evaluation_steps: 20,
                ..Default::default()
            },
            mix: BehaviorMix::new(0.4, 0.3, 0.3),
            churn: ChurnModel {
                join_probability: 0.15,
                leave_probability: 0.08,
                whitewash_probability: 0.04,
            },
            adversaries: vec![AdversarySpec::new("adaptive-whitewash", 3).with_parameter(3.0)],
            seed,
            ..Default::default()
        };

        let mut sim = Simulation::new(config);
        let world = sim.world();
        prop_assert!(world.active.matches(&world.peers, &world.behaviors));
        for step in 0..60u64 {
            let temperature = if step < 40 { f64::MAX } else { 1.0 };
            sim.step(temperature);
            let world = sim.world();
            prop_assert!(
                world.active.matches(&world.peers, &world.behaviors),
                "active sets drifted from the registry at step {}",
                step
            );
            prop_assert_eq!(
                world.active.iter_online().count(),
                world.peers.online().count(),
                "online cardinality drifted at step {}",
                step
            );
            prop_assert_eq!(
                WorldView::new(world).online_count(),
                world.peers.online().count(),
                "observer online count drifted at step {}",
                step
            );
        }
    }
}

/// The recompute oracle itself: built from behaviours alone it marks every
/// peer online and exactly the rational peers as learners.
#[test]
fn recompute_oracle_matches_fresh_construction() {
    let mut rng = StdRng::seed_from_u64(0xB0C);
    let behaviors = draw_behaviors(17, &mut rng);
    let peers = collabsim_workspace::collabsim::netsim::peer::PeerRegistry::with_population(
        behaviors.len(),
    );
    assert_eq!(
        ActiveSets::recompute(&peers, &behaviors),
        ActiveSets::new(&behaviors)
    );
}
