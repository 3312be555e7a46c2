//! Attack scenario generators for the reputation system.
//!
//! The paper motivates its `R_min` choice with whitewashing ("a high R_min
//! provides incentives for whitewashing the identity") and cites the known
//! collusion weakness of EigenTrust ("peers can boost their reputation score
//! by simply uploading some files to a highly reputable peer"). These
//! generators build trust graphs and ledger workloads exhibiting those
//! attacks so the propagation substrates and the incentive scheme can be
//! stress-tested; `tests/substrate_interplay.rs` checks how each
//! substrate ranks attackers versus honest peers on a collusion clique.

use crate::reputation::propagation::TrustGraph;
use rand::Rng;

/// Description of a synthetic attack scenario over a peer population.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackScenario {
    /// Total number of peers.
    pub(crate) peers: usize,
    /// Indices of the attacking peers.
    pub attackers: Vec<usize>,
    /// Human-readable name of the attack.
    pub(crate) name: String,
}

impl AttackScenario {
    /// Indices of the honest peers.
    pub fn honest(&self) -> Vec<usize> {
        (0..self.peers)
            .filter(|i| !self.attackers.contains(i))
            .collect()
    }
}

/// **Collusion clique**: the last `clique_size` peers assign each other
/// `boost` trust while receiving (almost) none from honest peers. Returns
/// the modified graph and the scenario description.
pub fn collusion_clique<R: Rng + ?Sized>(
    peers: usize,
    clique_size: usize,
    boost: f64,
    density: f64,
    rng: &mut R,
) -> (TrustGraph, AttackScenario) {
    assert!(clique_size < peers, "clique must be a strict subset");
    assert!(clique_size >= 2, "a clique needs at least two members");
    let honest_count = peers - clique_size;
    let mut graph = TrustGraph::new(peers);
    // Honest sub-network.
    for i in 0..honest_count {
        for j in 0..honest_count {
            if i != j && rng.gen_bool(density) {
                graph.set_trust(i, j, rng.gen_range(1.0..10.0));
            }
        }
    }
    // Clique members boost each other.
    let attackers: Vec<usize> = (honest_count..peers).collect();
    for &a in &attackers {
        for &b in &attackers {
            if a != b {
                graph.set_trust(a, b, boost);
            }
        }
    }
    // Attackers also praise one honest peer to look legitimate (the
    // EigenTrust "upload to a reputable peer" trick in reverse direction
    // happens below via the tricked edge).
    for &a in &attackers {
        graph.set_trust(a, 0, boost / 10.0);
    }
    // One honest peer has been tricked into a small amount of trust towards
    // the first attacker.
    graph.set_trust(0, attackers[0], 0.5);
    (
        graph,
        AttackScenario {
            peers,
            attackers,
            name: "collusion-clique".to_string(),
        },
    )
}

/// Expected advantage of whitewashing: with newcomer reputation `r_min` and
/// a reputation function that would have decayed a free-rider's reputation
/// to `r_decayed` by the end of its identity lifetime, whitewashing pays off
/// whenever `r_min > r_decayed`. The paper keeps `R_min` low (0.05) exactly
/// to keep this margin small.
pub fn whitewashing_gain(r_min: f64, r_decayed: f64) -> f64 {
    r_min - r_decayed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reputation::propagation::eigentrust::EigenTrust;
    use crate::reputation::propagation::maxflow::MaxFlowTrust;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31)
    }

    #[test]
    fn collusion_scenario_classifies_peers() {
        let (graph, scenario) = collusion_clique(10, 3, 100.0, 0.5, &mut rng());
        assert_eq!(scenario.attackers, vec![7, 8, 9]);
        assert_eq!(scenario.honest().len(), 7);
        assert!(graph.trust(7, 8) > graph.trust(0, 7));
    }

    #[test]
    fn maxflow_bounds_colluders_better_than_undamped_eigentrust() {
        let (graph, scenario) = collusion_clique(12, 4, 500.0, 0.6, &mut rng());
        let honest_observer = 1usize;

        // EigenTrust without damping: clique retains substantial mass.
        let et = EigenTrust::new(0.0, vec![]).compute(&graph);
        let clique_mass_et: f64 = scenario.attackers.iter().map(|&a| et.values[a]).sum();

        // MaxFlow from an honest observer: clique bounded by the 0.5 cut.
        let mf = MaxFlowTrust::new();
        let max_honest_flow = scenario
            .honest()
            .iter()
            .filter(|&&p| p != honest_observer)
            .map(|&p| mf.max_trust(&graph, honest_observer, p))
            .fold(0.0f64, f64::max);
        let max_attacker_flow = scenario
            .attackers
            .iter()
            .map(|&a| mf.max_trust(&graph, honest_observer, a))
            .fold(0.0f64, f64::max);

        assert!(
            max_attacker_flow < max_honest_flow,
            "max-flow should rank honest peers above colluders: {max_attacker_flow} vs {max_honest_flow}"
        );
        assert!(
            clique_mass_et > 0.01,
            "undamped EigenTrust should leak non-trivial mass to the clique ({clique_mass_et})"
        );
    }

    #[test]
    fn whitewashing_gain_is_small_with_paper_rmin() {
        // With R_min = 0.05 and an idle reputation that decays to the same
        // minimum, whitewashing provides no advantage.
        assert_eq!(whitewashing_gain(0.05, 0.05), 0.0);
        // With a generous R_min it would.
        assert!(whitewashing_gain(0.5, 0.05) > 0.0);
    }

    #[test]
    #[should_panic(expected = "strict subset")]
    fn clique_cannot_cover_everyone() {
        let _ = collusion_clique(4, 4, 10.0, 0.5, &mut rng());
    }
}
