//! Propagation of reputation values through the network.
//!
//! The paper explicitly assumes "the existence of a mechanism to safely
//! propagate reputation values in a P2P network" and discusses two concrete
//! candidates from the literature (Section II-C): the **EigenTrust**
//! algorithm (global trust as the principal eigenvector of the normalised
//! local-trust matrix) and the **Maximum-Flow** approach (the reputation a
//! source can assign to a target is bounded by the maximum flow between
//! them in the local-trust graph). This module implements both, plus a
//! simple gossip-averaging scheme, over a shared [`TrustGraph`]
//! representation of pairwise local trust. `tests/substrate_interplay.rs`
//! compares them under a collusion clique generated by [`crate::reputation::attack`].
//!
//! All three algorithms sit behind the `PropagationBackend` trait so the
//! simulation engine (and anything else that periodically turns local
//! observations into global reputation) can select a backend from
//! configuration via [`PropagationScheme`] without knowing the concrete
//! algorithm.

pub mod eigentrust;
pub mod gossip;
pub mod maxflow;

use rand::RngCore;

/// A dense directed graph of local trust values.
///
/// `trust(i, j)` is the local trust peer `i` places in peer `j` — in the
/// collaboration-network setting this is typically derived from how much
/// `j` has uploaded to `i` or how often `j`'s edits were accepted from `i`'s
/// point of view. Values are non-negative; self-trust is ignored by all
/// algorithms.
#[derive(Debug, Clone, PartialEq)]
pub struct TrustGraph {
    peers: usize,
    values: Vec<f64>,
}

impl TrustGraph {
    /// Creates a trust graph with all-zero local trust.
    ///
    /// # Panics
    ///
    /// Panics if `peers` is zero.
    pub(crate) fn new(peers: usize) -> Self {
        assert!(peers > 0, "trust graph needs at least one peer");
        Self {
            peers,
            values: vec![0.0; peers * peers],
        }
    }

    /// Number of peers.
    pub(crate) fn len(&self) -> usize {
        self.peers
    }

    #[inline]
    fn index(&self, from: usize, to: usize) -> usize {
        debug_assert!(from < self.peers && to < self.peers, "peer out of range");
        from * self.peers + to
    }

    /// Local trust `from → to`.
    pub(crate) fn trust(&self, from: usize, to: usize) -> f64 {
        self.values[self.index(from, to)]
    }

    /// Sets local trust `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if the value is negative or not finite.
    pub(crate) fn set_trust(&mut self, from: usize, to: usize, value: f64) {
        assert!(
            value >= 0.0 && value.is_finite(),
            "trust must be finite and >= 0"
        );
        let i = self.index(from, to);
        self.values[i] = value;
    }

    /// Local trust `from → k` for every peer `k`, in peer order.
    pub(crate) fn row(&self, from: usize) -> &[f64] {
        &self.values[from * self.peers..(from + 1) * self.peers]
    }

    /// Sum of outgoing local trust of a peer (used for normalisation).
    pub(crate) fn out_trust(&self, from: usize) -> f64 {
        self.row(from).iter().sum()
    }

    /// Row-normalised local trust `c_ij = trust(i, j) / Σ_k trust(i, k)`,
    /// the matrix EigenTrust iterates on. Peers with no outgoing trust
    /// distribute their trust uniformly over all *other* peers (the
    /// standard EigenTrust fallback for dangling rows).
    pub(crate) fn normalized_row(&self, from: usize) -> Vec<f64> {
        let total = self.out_trust(from);
        let n = self.peers;
        if total <= 0.0 {
            if n == 1 {
                return vec![0.0];
            }
            let share = 1.0 / (n - 1) as f64;
            return (0..n)
                .map(|to| if to == from { 0.0 } else { share })
                .collect();
        }
        (0..n).map(|to| self.trust(from, to) / total).collect()
    }
}

/// A computed global reputation vector, index-aligned with peers.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalReputation {
    /// Reputation value per peer. EigenTrust and gossip produce a
    /// probability-like vector summing to 1; MaxFlow produces per-pair
    /// bounds aggregated per peer.
    pub values: Vec<f64>,
    /// Number of iterations the algorithm ran.
    pub(crate) iterations: usize,
    /// Whether the algorithm converged within its iteration budget.
    pub(crate) converged: bool,
}

/// A reputation-propagation algorithm: local trust in, global reputation
/// out.
///
/// Backends must be deterministic given the graph and the RNG stream —
/// algorithms without internal randomness (EigenTrust, MaxFlow) simply
/// ignore `rng`.
pub(crate) trait PropagationBackend: Send + Sync {
    /// Computes the global reputation vector from the local-trust graph.
    fn propagate(&self, graph: &TrustGraph, rng: &mut dyn RngCore) -> GlobalReputation;
}

impl PropagationBackend for eigentrust::EigenTrust {
    fn propagate(&self, graph: &TrustGraph, _rng: &mut dyn RngCore) -> GlobalReputation {
        self.compute(graph)
    }
}

impl PropagationBackend for gossip::GossipAveraging {
    fn propagate(&self, graph: &TrustGraph, rng: &mut dyn RngCore) -> GlobalReputation {
        self.compute(graph, rng)
    }
}

impl PropagationBackend for maxflow::MaxFlowTrust {
    /// MaxFlow trust is inherently pairwise; as a global vector we report
    /// the reputations as seen from peer 0, the conventional observer
    /// (`O(V · E²)` per pair makes an all-pairs
    /// aggregate prohibitive inside a simulation step).
    fn propagate(&self, graph: &TrustGraph, _rng: &mut dyn RngCore) -> GlobalReputation {
        self.reputation_from(graph, 0)
    }
}

/// Configuration-level selector for a `PropagationBackend`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropagationScheme {
    /// EigenTrust power iteration with default damping.
    EigenTrust,
    /// Pairwise gossip averaging with the default round budget.
    Gossip,
    /// Max-flow bounded trust as seen from peer 0.
    MaxFlow,
}

impl PropagationScheme {
    /// Every scheme, in label order.
    pub(crate) const ALL: [PropagationScheme; 3] = [
        PropagationScheme::EigenTrust,
        PropagationScheme::Gossip,
        PropagationScheme::MaxFlow,
    ];

    /// Stable label of the scheme.
    pub fn label(self) -> &'static str {
        match self {
            PropagationScheme::EigenTrust => "eigentrust",
            PropagationScheme::Gossip => "gossip",
            PropagationScheme::MaxFlow => "maxflow",
        }
    }

    /// Parses a scheme from its [`PropagationScheme::label`].
    pub(crate) fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.label() == label)
    }

    /// Instantiates the backend with its default parameters.
    pub(crate) fn backend(self) -> Box<dyn PropagationBackend> {
        match self {
            PropagationScheme::EigenTrust => Box::new(eigentrust::EigenTrust::default()),
            PropagationScheme::Gossip => Box::new(gossip::GossipAveraging::default()),
            PropagationScheme::MaxFlow => Box::new(maxflow::MaxFlowTrust::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn set_and_get_trust() {
        let mut g = TrustGraph::new(3);
        g.set_trust(0, 1, 2.0);
        assert_eq!(g.trust(0, 1), 2.0);
        assert_eq!(g.trust(1, 0), 0.0);
    }

    #[test]
    fn normalized_row_sums_to_one() {
        let mut g = TrustGraph::new(3);
        g.set_trust(0, 1, 1.0);
        g.set_trust(0, 2, 3.0);
        let row = g.normalized_row(0);
        assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((row[2] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn dangling_row_spreads_uniformly_over_others() {
        let g = TrustGraph::new(4);
        let row = g.normalized_row(2);
        assert_eq!(row[2], 0.0);
        for (i, &v) in row.iter().enumerate() {
            if i != 2 {
                assert!((v - 1.0 / 3.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn single_peer_dangling_row_is_zero() {
        let g = TrustGraph::new(1);
        assert_eq!(g.normalized_row(0), vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_trust_rejected() {
        let mut g = TrustGraph::new(2);
        g.set_trust(0, 1, -1.0);
    }

    #[test]
    #[should_panic(expected = "at least one peer")]
    fn empty_graph_rejected() {
        let _ = TrustGraph::new(0);
    }

    fn chain_graph() -> TrustGraph {
        // 0 trusts 1 heavily, 1 trusts 2, 2 trusts nobody.
        let mut g = TrustGraph::new(3);
        g.set_trust(0, 1, 4.0);
        g.set_trust(1, 2, 2.0);
        g.set_trust(2, 1, 1.0);
        g
    }

    #[test]
    fn every_scheme_resolves_to_a_working_backend() {
        let graph = chain_graph();
        for scheme in PropagationScheme::ALL {
            let backend = scheme.backend();
            let mut rng = StdRng::seed_from_u64(3);
            let rep = backend.propagate(&graph, &mut rng);
            assert_eq!(rep.values.len(), 3, "{}", scheme.label());
            assert!(
                rep.values.iter().all(|v| v.is_finite() && *v >= 0.0),
                "{}: {:?}",
                scheme.label(),
                rep.values
            );
        }
    }

    #[test]
    fn backends_agree_that_the_trusted_peer_ranks_first() {
        let graph = chain_graph();
        let mut rng = StdRng::seed_from_u64(9);
        let et = PropagationScheme::EigenTrust
            .backend()
            .propagate(&graph, &mut rng);
        let v = &et.values;
        assert!(v[1] >= v[0] && v[1] > v[2], "{v:?}");
    }

    #[test]
    fn deterministic_backends_ignore_the_rng_stream() {
        let graph = chain_graph();
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(999);
        let et = eigentrust::EigenTrust::default();
        assert_eq!(et.propagate(&graph, &mut a), et.propagate(&graph, &mut b));
        let mf = maxflow::MaxFlowTrust::new();
        assert_eq!(mf.propagate(&graph, &mut a), mf.propagate(&graph, &mut b));
    }

    #[test]
    fn gossip_backend_is_deterministic_per_seed() {
        let graph = chain_graph();
        let gossip = gossip::GossipAveraging::default();
        let a = gossip.propagate(&graph, &mut StdRng::seed_from_u64(5));
        let b = gossip.propagate(&graph, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }
}
