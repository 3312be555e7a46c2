//! Optional phase — peer churn between steps.

use super::{StepContext, StepPhase};
use crate::netsim::churn::ChurnEvent;
use crate::netsim::peer::PeerId;
use crate::world::SimWorld;
use rand::Rng;

/// Applies the configured [`ChurnModel`](crate::netsim::churn::ChurnModel)
/// at the top of every step: departures take peers offline (withdrawing
/// their offers and cancelling their in-flight download), joins bring
/// departed identities back online with their reputation intact (re-entry —
/// the Section-VI persistence question), and whitewashes reset an identity
/// in place (the old identity never returns; a newcomer at `R_min` occupies
/// its slot).
///
/// **Determinism contract:** the phase draws exclusively from
/// `world.churn_rng`, so a stable model — which samples nothing — leaves
/// the trajectory bit-identical to a pipeline without the phase, and a
/// churn-enabled run is reproducible from its seed alone. The phase leaves
/// at least two peers online so the network never degenerates below the
/// smallest population the model is defined for.
pub struct ChurnPhase;

impl StepPhase for ChurnPhase {
    fn name(&self) -> &'static str {
        "churn"
    }

    fn execute(&self, world: &mut SimWorld, ctx: &mut StepContext) {
        let model = world.config.churn;
        if model.is_stable() {
            return;
        }
        let now = ctx.now;
        // Online peers ascending by id, straight off the bitset:
        // `sample_step_into` emits events in input order, so the whole
        // event stream is a pure function of the churn RNG stream and the
        // online set.
        model.sample_step_into(
            world.active.iter_online().map(|p| PeerId(p as u32)),
            &mut world.churn_rng,
            &mut ctx.churn_events,
        );
        for &event in &ctx.churn_events {
            match event {
                ChurnEvent::Join => {
                    // The arena is fixed-size, so a join is the re-entry of
                    // a departed identity, drawn uniformly from the offline
                    // set in ascending id order: the k-th peer missing from
                    // the online bitset.
                    let population = world.population();
                    let offline = population - world.active.online().count();
                    if offline == 0 {
                        continue;
                    }
                    let index = world.churn_rng.gen_range(0..offline);
                    let peer = (0..population)
                        .filter(|&p| !world.active.is_online(p))
                        .nth(index)
                        .expect("`offline` peers are missing from the online bitset");
                    world.rejoin_peer(PeerId(peer as u32), now);
                }
                ChurnEvent::Leave(peer) => {
                    // Keep a functioning network: never drop below 2 online
                    // peers (the smallest population the model supports).
                    if world.active.online().count() <= 2 {
                        continue;
                    }
                    world.depart_peer(peer, now);
                }
                ChurnEvent::Whitewash(peer) => {
                    // Leave + instant rejoin under a fresh identity: the
                    // online count is unchanged.
                    world.whitewash_peer(peer, now);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{PhaseConfig, SimulationConfig};
    use crate::engine::Simulation;
    use crate::netsim::churn::ChurnModel;

    fn quick_config() -> SimulationConfig {
        SimulationConfig {
            population: 16,
            initial_articles: 8,
            phases: PhaseConfig {
                training_steps: 80,
                evaluation_steps: 40,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn churn_config(model: ChurnModel) -> SimulationConfig {
        SimulationConfig {
            churn: model,
            ..quick_config()
        }
    }

    #[test]
    fn stable_model_makes_the_phase_a_no_op() {
        // Same seed, churn phase present (with a stable model) vs absent:
        // the reports must be identical because a stable model draws
        // nothing from any RNG.
        let without = Simulation::new(quick_config()).run();
        let spec = crate::spec::ScenarioSpec::builder()
            .configure(|c| *c = quick_config())
            .phase_order([
                "churn",
                "selection",
                "sharing",
                "download",
                "edit-vote",
                "utility",
                "learning",
            ])
            .build()
            .unwrap();
        let mut sim = Simulation::from_spec(&spec).unwrap();
        assert_eq!(sim.pipeline().phase_names()[0], "churn");
        let with = sim.run();
        assert_eq!(without, with);
        assert_eq!(sim.world().churn_stats.total_events(), 0);
    }

    #[test]
    fn departures_take_peers_offline_and_reentry_preserves_reputation() {
        let model = ChurnModel {
            join_probability: 0.2,
            leave_probability: 0.01,
            whitewash_probability: 0.0,
        };
        let mut sim = Simulation::from_spec(
            &crate::spec::ScenarioSpec::builder()
                .configure(|c| *c = churn_config(model))
                .build()
                .unwrap(),
        )
        .unwrap();
        let report = sim.run();
        let stats = sim.world().churn_stats;
        assert!(stats.leaves > 0, "churn must generate departures");
        assert!(stats.joins > 0, "churn must generate re-entries");
        // Re-entrant identities keep their ledger record, so the observed
        // mean re-entry reputation is at least the newcomer minimum.
        assert!(stats.mean_reentry_reputation() >= 0.05 - 1e-12);
        assert_eq!(report.evaluation_steps, 40);
        // The network never degenerates.
        assert!(sim.world().peers.online().count() >= 2);
    }

    #[test]
    fn whitewashing_resets_reputation_and_history() {
        let model = ChurnModel::whitewashing(0.01);
        let mut sim = Simulation::from_spec(
            &crate::spec::ScenarioSpec::builder()
                .configure(|c| *c = churn_config(model))
                .build()
                .unwrap(),
        )
        .unwrap();
        sim.run();
        let stats = sim.world().churn_stats;
        assert!(
            stats.whitewashes > 0,
            "whitewash probability 1% over 1920 peer-steps"
        );
        assert_eq!(stats.leaves, 0);
        assert!(
            stats.whitewash_reputation_shed_sum >= 0.0,
            "shed reputation is non-negative"
        );
        // Whitewashing keeps everyone online.
        assert_eq!(sim.world().peers.online().count(), 16);
    }

    #[test]
    fn churn_runs_are_seed_deterministic() {
        let model = ChurnModel {
            join_probability: 0.1,
            leave_probability: 0.005,
            whitewash_probability: 0.002,
        };
        let spec = crate::spec::ScenarioSpec::builder()
            .configure(|c| *c = churn_config(model))
            .seed(0xC0FFEE)
            .build()
            .unwrap();
        let a = Simulation::from_spec(&spec).unwrap().run();
        let b = Simulation::from_spec(&spec).unwrap().run();
        assert_eq!(a, b);
    }
}
