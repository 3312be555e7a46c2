//! Optional phase — reputation propagation over the trust graph.

use super::{StepContext, StepPhase};
use crate::reputation::propagation::eigentrust::EigenTrust;
use crate::reputation::propagation::{PropagationBackend, TrustGraph};
use crate::world::{SimWorld, UploadMatrix};

/// Periodically propagates the upload-derived local-trust graph into a
/// global reputation vector through the backend selected by
/// [`PropagationConfig`](crate::config::PropagationConfig).
///
/// Local trust `i → j` is how much bandwidth `j` has uploaded to `i` — the
/// direct-relation history the paper's Section II-C candidates (EigenTrust,
/// MaxFlow) assume. The phase runs its backend every
/// `config.propagation.interval` steps and stores the result in
/// [`SimWorld::global_reputation`]. Under the default
/// `reputation_source = ledger` it deliberately does **not** feed the
/// result back into service differentiation (the paper assumes propagation
/// exists but models reputation as globally visible), so enabling it
/// observes propagation quality without perturbing the core dynamics;
/// under `reputation_source = propagated` the phase additionally refreshes
/// [`SimWorld::propagated_service_reputation`], which selection, bandwidth
/// allocation and edit gating then consume instead of the ledger. It
/// draws randomness exclusively from `world.propagation_rng`, keeping the
/// main step RNG stream untouched.
pub struct PropagationPhase;

impl StepPhase for PropagationPhase {
    fn name(&self) -> &'static str {
        "propagation"
    }

    fn execute(&self, world: &mut SimWorld, ctx: &mut StepContext) {
        let Some(scheme) = world.config.propagation.scheme else {
            return;
        };
        // `SimulationConfig::check` (via `PropagationConfig::check`) guarantees
        // interval ≥ 1, and `ctx.now` is 1-based.
        if ctx.now % world.config.propagation.interval != 0 {
            return;
        }
        let graph = trust_graph(&world.uploads, world.population());
        // With a configured pre-trusted set, anchor the EigenTrust restart
        // distribution on the K lowest peer ids (honest by construction:
        // adversary units claim peers from the *top* of the id range), so a
        // whitewashed identity cannot inherit propagated trust through the
        // uniform restart. `check()` guarantees the set only combines with
        // the eigentrust scheme and is smaller than the population.
        let pretrusted = world.config.propagation.pretrusted;
        let backend: Box<dyn PropagationBackend> = if pretrusted > 0 {
            Box::new(EigenTrust {
                pre_trusted: (0..pretrusted).collect(),
                ..Default::default()
            })
        } else {
            scheme.backend()
        };
        let reputation = backend.propagate(&graph, &mut world.propagation_rng);
        world.global_reputation = Some(reputation);
        world.propagation_runs += 1;
        // Under `reputation_source = propagated` the service rules read
        // this backend's output instead of the ledger; refresh the mapped
        // cache (a no-op under the default ledger source).
        world.refresh_service_reputation();
    }
}

/// The local-trust graph over `population` peers: trust `i → j` is the
/// bandwidth `j` has uploaded to `i`, self-trust stays zero. It visits
/// only the relations the matrix stores, one `set_trust` each; every
/// relation owns its cell, so the rows' iteration order cannot matter.
fn trust_graph(uploads: &UploadMatrix, population: usize) -> TrustGraph {
    let mut graph = TrustGraph::new(population);
    for uploader in 0..population {
        for (downloader, amount) in uploads.row(uploader) {
            if downloader != uploader {
                graph.set_trust(downloader, uploader, amount);
            }
        }
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversarySpec;
    use crate::config::PhaseConfig;
    use crate::engine::Simulation;
    use crate::netsim::churn::ChurnModel;
    use crate::reputation::propagation::PropagationScheme;
    use crate::spec::ScenarioSpec;
    use crate::BehaviorMix;

    /// The N² build [`trust_graph`] replaced, kept as its reference: one
    /// `get` per ordered pair of distinct peers.
    fn dense_trust_graph(uploads: &UploadMatrix, population: usize) -> TrustGraph {
        let mut graph = TrustGraph::new(population);
        for truster in 0..population {
            for trustee in 0..population {
                if truster != trustee {
                    graph.set_trust(truster, trustee, uploads.get(trustee, truster));
                }
            }
        }
        graph
    }

    #[test]
    fn relation_built_graph_matches_the_dense_build_under_churn_and_whitewash() {
        // Downloads add relations; departures leave them; whitewashes
        // (background churn and an adaptive whitewasher) drop a peer's
        // row and column through `clear_peer`.
        let population = 40;
        let spec = ScenarioSpec::builder()
            .population(population)
            .initial_articles(20)
            .mix(BehaviorMix::new(0.5, 0.25, 0.25))
            .phase_config(PhaseConfig {
                training_steps: 150,
                evaluation_steps: 50,
                ..Default::default()
            })
            .churn(ChurnModel {
                join_probability: 0.2,
                leave_probability: 0.02,
                whitewash_probability: 0.01,
            })
            .adversary(AdversarySpec::new("adaptive-whitewash", 3))
            .propagation(PropagationScheme::EigenTrust, 25)
            .propagated_reputation()
            .seed(0x7A57)
            .build()
            .expect("valid spec");
        let mut sim = Simulation::from_spec(&spec).expect("standard phases resolve");
        let temperature = spec.config().phases.training_temperature;
        let mut whitewashes = 0;
        let mut compared_after_whitewash = 0;
        for _ in 0..200 {
            sim.step(temperature);
            let world = sim.world();
            let fresh_whitewash = world.churn_stats.whitewashes > whitewashes;
            whitewashes = world.churn_stats.whitewashes;
            if fresh_whitewash || world.clock.now() % 10 == 0 {
                let built = trust_graph(&world.uploads, population);
                let dense = dense_trust_graph(&world.uploads, population);
                for i in 0..population {
                    for j in 0..population {
                        assert_eq!(
                            built.trust(i, j).to_bits(),
                            dense.trust(i, j).to_bits(),
                            "step {}: trust {i} -> {j}",
                            world.clock.now()
                        );
                    }
                }
                compared_after_whitewash += usize::from(fresh_whitewash);
            }
        }
        assert!(
            compared_after_whitewash >= 3,
            "only {compared_after_whitewash} whitewash steps compared"
        );
        assert!(sim.world().churn_stats.leaves > 0, "no departures");
    }
}
