//! Maximum-flow bounded trust (Feldman, Lai, Stoica, Chuang, EC 2004).
//!
//! The paper's second propagation candidate interprets local trust values as
//! capacities of a directed graph: "the maximum flow is the maximum
//! reputation the source node can assign to the target node without
//! violating reputation constraints" (Section II-C). Because any reputation
//! a colluding clique can claim must flow across the cut separating it from
//! the honest peers, max-flow trust is collusion-resistant by construction —
//! at the cost of `O(V · E²)` per pair with Edmonds–Karp.
//!
//! This module implements Edmonds–Karp (BFS augmenting paths) over the
//! [`TrustGraph`] capacities and offers both pairwise queries and an
//! aggregated per-peer reputation vector as seen from a given source.

use super::{GlobalReputation, TrustGraph};
use std::collections::VecDeque;

/// Max-flow based trust computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaxFlowTrust;

impl MaxFlowTrust {
    /// Creates a max-flow trust computer.
    pub fn new() -> Self {
        Self
    }

    /// The maximum trust `source` can assign to `target`: the value of the
    /// maximum `source → target` flow in the local-trust capacity graph.
    ///
    /// # Panics
    ///
    /// Panics if either peer index is out of range.
    pub(crate) fn max_trust(&self, graph: &TrustGraph, source: usize, target: usize) -> f64 {
        let n = graph.len();
        assert!(source < n && target < n, "peer index out of range");
        if source == target {
            // Self-trust is unconstrained; by convention report the total
            // capacity the peer hands out, capped at 1 for comparability.
            return 1.0;
        }
        // Residual capacities as a dense matrix (n is small in our setting).
        let mut residual = vec![0.0f64; n * n];
        for from in 0..n {
            for to in 0..n {
                residual[from * n + to] = graph.trust(from, to);
            }
        }
        let mut flow = 0.0;
        loop {
            // BFS for an augmenting path with positive residual capacity.
            let mut parent = vec![usize::MAX; n];
            parent[source] = source;
            let mut queue = VecDeque::new();
            queue.push_back(source);
            while let Some(u) = queue.pop_front() {
                if u == target {
                    break;
                }
                for v in 0..n {
                    if parent[v] == usize::MAX && residual[u * n + v] > 1e-15 {
                        parent[v] = u;
                        queue.push_back(v);
                    }
                }
            }
            if parent[target] == usize::MAX {
                break;
            }
            // Bottleneck along the path.
            let mut bottleneck = f64::INFINITY;
            let mut v = target;
            while v != source {
                let u = parent[v];
                bottleneck = bottleneck.min(residual[u * n + v]);
                v = u;
            }
            // Augment.
            let mut v = target;
            while v != source {
                let u = parent[v];
                residual[u * n + v] -= bottleneck;
                residual[v * n + u] += bottleneck;
                v = u;
            }
            flow += bottleneck;
        }
        flow
    }

    /// The reputation of every peer as seen from `source`: the max-flow
    /// value `source → peer`, normalised by the largest such value so the
    /// result is comparable to the `[0, 1]` reputation scale (all-zero flows
    /// stay all-zero).
    pub fn reputation_from(&self, graph: &TrustGraph, source: usize) -> GlobalReputation {
        let n = graph.len();
        let mut values: Vec<f64> = (0..n)
            .map(|peer| {
                if peer == source {
                    0.0
                } else {
                    self.max_trust(graph, source, peer)
                }
            })
            .collect();
        let max = values.iter().copied().fold(0.0f64, f64::max);
        if max > 0.0 {
            values.iter_mut().for_each(|v| *v /= max);
        }
        // The source trusts itself fully.
        values[source] = 1.0;
        GlobalReputation {
            values,
            iterations: 1,
            converged: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_edge_flow_is_its_capacity() {
        let mut g = TrustGraph::new(3);
        g.set_trust(0, 1, 4.0);
        let f = MaxFlowTrust::new();
        assert!((f.max_trust(&g, 0, 1) - 4.0).abs() < 1e-12);
        assert_eq!(f.max_trust(&g, 1, 0), 0.0);
    }

    #[test]
    fn flow_is_limited_by_the_bottleneck() {
        // 0 → 1 → 2 with capacities 5 and 2: the path carries only 2.
        let mut g = TrustGraph::new(3);
        g.set_trust(0, 1, 5.0);
        g.set_trust(1, 2, 2.0);
        let f = MaxFlowTrust::new();
        assert!((f.max_trust(&g, 0, 2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_paths_add_up() {
        // Two disjoint paths 0→1→3 (cap 2) and 0→2→3 (cap 3).
        let mut g = TrustGraph::new(4);
        g.set_trust(0, 1, 2.0);
        g.set_trust(1, 3, 2.0);
        g.set_trust(0, 2, 3.0);
        g.set_trust(2, 3, 3.0);
        let f = MaxFlowTrust::new();
        assert!((f.max_trust(&g, 0, 3) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn classic_network_flow_example() {
        // A standard 6-node max-flow example with known answer 23.
        let mut g = TrustGraph::new(6);
        let edges = [
            (0, 1, 16.0),
            (0, 2, 13.0),
            (1, 2, 10.0),
            (2, 1, 4.0),
            (1, 3, 12.0),
            (3, 2, 9.0),
            (2, 4, 14.0),
            (4, 3, 7.0),
            (3, 5, 20.0),
            (4, 5, 4.0),
        ];
        for (u, v, c) in edges {
            g.set_trust(u, v, c);
        }
        let f = MaxFlowTrust::new();
        assert!((f.max_trust(&g, 0, 5) - 23.0).abs() < 1e-9);
    }

    #[test]
    fn self_trust_is_one() {
        let g = TrustGraph::new(3);
        assert_eq!(MaxFlowTrust::new().max_trust(&g, 1, 1), 1.0);
    }

    #[test]
    fn collusion_clique_cannot_exceed_the_cut() {
        // Colluders 3 and 4 assign each other huge trust, but the only honest
        // edge into the clique has capacity 0.5 — from any honest peer's
        // point of view the clique's reputation is bounded by that cut.
        let mut g = TrustGraph::new(5);
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    g.set_trust(i, j, 2.0);
                }
            }
        }
        g.set_trust(3, 4, 1_000.0);
        g.set_trust(4, 3, 1_000.0);
        g.set_trust(2, 3, 0.5);
        let f = MaxFlowTrust::new();
        assert!(f.max_trust(&g, 0, 3) <= 0.5 + 1e-12);
        assert!(f.max_trust(&g, 0, 4) <= 0.5 + 1e-12);
    }

    #[test]
    fn reputation_from_source_is_normalised() {
        let mut g = TrustGraph::new(4);
        g.set_trust(0, 1, 1.0);
        g.set_trust(0, 2, 4.0);
        g.set_trust(1, 3, 1.0);
        let rep = MaxFlowTrust::new().reputation_from(&g, 0);
        assert_eq!(rep.values[0], 1.0);
        assert!((rep.values[2] - 1.0).abs() < 1e-12);
        assert!(rep.values[1] <= 1.0 && rep.values[1] > 0.0);
        assert!(rep.values.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn disconnected_target_has_zero_trust() {
        let mut g = TrustGraph::new(3);
        g.set_trust(0, 1, 1.0);
        let f = MaxFlowTrust::new();
        assert_eq!(f.max_trust(&g, 0, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_peer_panics() {
        let g = TrustGraph::new(2);
        let _ = MaxFlowTrust::new().max_trust(&g, 0, 5);
    }
}
