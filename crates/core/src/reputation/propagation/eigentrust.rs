//! The EigenTrust algorithm (Kamvar, Schlosser, Garcia-Molina, WWW 2003).
//!
//! EigenTrust computes global trust values as the left principal eigenvector
//! of the row-normalised local-trust matrix `C = (c_ij)`: "the global trust
//! value of peer k is the k-th component of the left principal eigenvector
//! of the trust matrix", as the paper summarises in Section II-C. The
//! standard formulation adds a damping towards a set of pre-trusted peers —
//! `t ← (1 − a) · Cᵀ t + a · p` — which is also what makes the algorithm
//! partially resistant to collusion cliques (but, as the paper notes and the
//! `abl2` bench demonstrates, not fully: colluders can still boost each
//! other).

use super::{GlobalReputation, TrustGraph};

/// EigenTrust configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EigenTrust {
    /// Damping weight `a` towards the pre-trusted distribution (0 = pure
    /// power iteration, 1 = ignore local trust entirely).
    pub(crate) damping: f64,
    /// Indices of pre-trusted peers; the pre-trusted distribution `p` is
    /// uniform over this set, or uniform over all peers when empty.
    pub(crate) pre_trusted: Vec<usize>,
    /// Convergence tolerance on the L1 distance between iterations.
    pub(crate) tolerance: f64,
    /// Maximum number of power iterations.
    pub(crate) max_iterations: usize,
}

impl Default for EigenTrust {
    fn default() -> Self {
        Self {
            damping: 0.1,
            pre_trusted: Vec::new(),
            tolerance: 1e-10,
            max_iterations: 1_000,
        }
    }
}

impl EigenTrust {
    /// Creates an EigenTrust instance with the given damping and pre-trusted
    /// peer set.
    ///
    /// # Panics
    ///
    /// Panics if `damping` is outside `[0, 1]`.
    pub fn new(damping: f64, pre_trusted: Vec<usize>) -> Self {
        assert!((0.0..=1.0).contains(&damping), "damping must lie in [0, 1]");
        Self {
            damping,
            pre_trusted,
            ..Default::default()
        }
    }

    /// The pre-trusted distribution `p` over `n` peers.
    fn pre_trusted_distribution(&self, n: usize) -> Vec<f64> {
        if self.pre_trusted.is_empty() {
            return vec![1.0 / n as f64; n];
        }
        let mut p = vec![0.0; n];
        let share = 1.0 / self.pre_trusted.len() as f64;
        for &peer in &self.pre_trusted {
            assert!(peer < n, "pre-trusted peer {peer} out of range");
            p[peer] += share;
        }
        p
    }

    /// Computes global trust values for every peer of the graph.
    ///
    /// Each power iteration visits only the non-zero entries of the
    /// row-normalised matrix, collected once per call, so it costs
    /// O(non-zeros) rather than O(n²). Skipping a zero `c_ij`
    /// only skips adding `+0 · t_i` to a non-negative `next_j`, and the
    /// kept terms are added in the dense order (ascending `i`, then `j`),
    /// so every value is bit-identical to the dense iteration.
    pub fn compute(&self, graph: &TrustGraph) -> GlobalReputation {
        let n = graph.len();
        let p = self.pre_trusted_distribution(n);
        let c = NormalizedRows::new(graph);

        let mut t = p.clone();
        let mut next = vec![0.0; n];
        let mut iterations = 0;
        let mut converged = false;
        while iterations < self.max_iterations {
            iterations += 1;
            next.iter_mut().for_each(|v| *v = 0.0);
            // next_j = Σ_i c_ij · t_i  (left eigenvector / Cᵀ t).
            for (i, &weight) in t.iter().enumerate() {
                if weight == 0.0 {
                    continue;
                }
                let (columns, values) = c.row(i);
                for (&j, &c_ij) in columns.iter().zip(values) {
                    next[j] += c_ij * weight;
                }
            }
            // Damping towards the pre-trusted distribution.
            for j in 0..n {
                next[j] = (1.0 - self.damping) * next[j] + self.damping * p[j];
            }
            let delta: f64 = t.iter().zip(next.iter()).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut t, &mut next);
            if delta < self.tolerance {
                converged = true;
                break;
            }
        }
        // Normalise defensively (the iteration preserves the simplex up to
        // floating-point error).
        let sum: f64 = t.iter().sum();
        if sum > 0.0 {
            t.iter_mut().for_each(|v| *v /= sum);
        }
        GlobalReputation {
            values: t,
            iterations,
            converged,
        }
    }
}

/// The non-zero entries of [`TrustGraph::normalized_row`] for every peer,
/// in compressed sparse row form: row `i` holds the columns
/// `columns[starts[i]..starts[i + 1]]` (ascending) and their values.
/// A dangling row keeps its uniform `1 / (n − 1)` entries.
struct NormalizedRows {
    starts: Vec<usize>,
    columns: Vec<usize>,
    values: Vec<f64>,
}

impl NormalizedRows {
    /// Reads each row of the graph once for its total and once for its
    /// entries; values are computed exactly as `normalized_row` does.
    fn new(graph: &TrustGraph) -> Self {
        let n = graph.len();
        let mut rows = Self {
            starts: Vec::with_capacity(n + 1),
            columns: Vec::new(),
            values: Vec::new(),
        };
        rows.starts.push(0);
        for i in 0..n {
            let total = graph.out_trust(i);
            if total <= 0.0 {
                if n > 1 {
                    let share = 1.0 / (n - 1) as f64;
                    rows.columns.extend((0..n).filter(|&j| j != i));
                    rows.values.resize(rows.columns.len(), share);
                }
            } else {
                for (j, &trust) in graph.row(i).iter().enumerate() {
                    if trust != 0.0 {
                        rows.columns.push(j);
                        rows.values.push(trust / total);
                    }
                }
            }
            rows.starts.push(rows.columns.len());
        }
        rows
    }

    /// The columns and values of row `i`'s non-zero entries.
    fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let range = self.starts[i]..self.starts[i + 1];
        (&self.columns[range.clone()], &self.values[range])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The dense power iteration `compute` replaced, kept as its bitwise
    /// reference: every normalised row as a full `Vec`, every entry visited.
    fn compute_dense(et: &EigenTrust, graph: &TrustGraph) -> GlobalReputation {
        let n = graph.len();
        let p = et.pre_trusted_distribution(n);
        let rows: Vec<Vec<f64>> = (0..n).map(|i| graph.normalized_row(i)).collect();
        let mut t = p.clone();
        let mut next = vec![0.0; n];
        let mut iterations = 0;
        let mut converged = false;
        while iterations < et.max_iterations {
            iterations += 1;
            next.iter_mut().for_each(|v| *v = 0.0);
            for (i, row) in rows.iter().enumerate() {
                let weight = t[i];
                if weight == 0.0 {
                    continue;
                }
                for (j, &c) in row.iter().enumerate() {
                    next[j] += c * weight;
                }
            }
            for j in 0..n {
                next[j] = (1.0 - et.damping) * next[j] + et.damping * p[j];
            }
            let delta: f64 = t.iter().zip(next.iter()).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut t, &mut next);
            if delta < et.tolerance {
                converged = true;
                break;
            }
        }
        let sum: f64 = t.iter().sum();
        if sum > 0.0 {
            t.iter_mut().for_each(|v| *v /= sum);
        }
        GlobalReputation {
            values: t,
            iterations,
            converged,
        }
    }

    /// A random graph of random density with some rows left dangling
    /// (no outgoing trust), some columns left untrusted and self-trust
    /// entries (they count in a row's total).
    fn random_graph(n: usize, rng: &mut StdRng) -> TrustGraph {
        let mut g = TrustGraph::new(n);
        let density = rng.gen_range(0.0..1.0);
        let dangling: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.2)).collect();
        let untrusted: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.2)).collect();
        for i in (0..n).filter(|&i| !dangling[i]) {
            for j in (0..n).filter(|&j| !untrusted[j]) {
                if rng.gen_bool(density) {
                    g.set_trust(i, j, rng.gen_range(0.0..10.0));
                }
            }
        }
        g
    }

    #[test]
    fn sparse_iteration_matches_the_dense_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(0xE16E_7A57);
        for case in 0..300 {
            let n = match case {
                0..=19 => 1,
                20..=39 => 2,
                _ => rng.gen_range(3..60),
            };
            let graph = random_graph(n, &mut rng);
            let pre_trusted = if rng.gen_bool(0.5) {
                Vec::new()
            } else {
                (0..rng.gen_range(1..n + 1))
                    .map(|_| rng.gen_range(0..n))
                    .collect()
            };
            let et = EigenTrust {
                damping: if rng.gen_bool(0.2) {
                    0.0
                } else {
                    rng.gen_range(0.0..1.0)
                },
                pre_trusted,
                max_iterations: rng.gen_range(1..200),
                ..Default::default()
            };
            let sparse = et.compute(&graph);
            let dense = compute_dense(&et, &graph);
            assert_eq!(sparse.iterations, dense.iterations, "case {case}");
            assert_eq!(sparse.converged, dense.converged, "case {case}");
            let bits =
                |r: &GlobalReputation| r.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&sparse), bits(&dense), "case {case}: n = {n}, {et:?}");
        }
    }

    /// A graph where everyone trusts peer 0 strongly and each other weakly.
    fn star_graph(n: usize) -> TrustGraph {
        let mut g = TrustGraph::new(n);
        for i in 1..n {
            g.set_trust(i, 0, 10.0);
            g.set_trust(0, i, 1.0);
            for j in 1..n {
                if i != j {
                    g.set_trust(i, j, 1.0);
                }
            }
        }
        g
    }

    #[test]
    fn values_form_a_probability_distribution() {
        let rep = EigenTrust::default().compute(&star_graph(6));
        assert!((rep.values.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(rep.values.iter().all(|&v| v >= 0.0));
        assert!(rep.converged);
    }

    #[test]
    fn universally_trusted_peer_ranks_first() {
        let rep = EigenTrust::default().compute(&star_graph(8));
        // Peer 0 ranks first, by a clear margin over every other peer.
        for i in 1..8 {
            assert!(rep.values[0] > 2.0 * rep.values[i], "peer {i}");
        }
    }

    #[test]
    fn empty_trust_graph_yields_uniform_reputation() {
        let g = TrustGraph::new(5);
        let rep = EigenTrust::default().compute(&g);
        for &v in &rep.values {
            assert!((v - 0.2).abs() < 1e-9);
        }
    }

    #[test]
    fn pre_trusted_peers_receive_damping_mass() {
        let g = TrustGraph::new(4);
        let et = EigenTrust::new(0.5, vec![3]);
        let rep = et.compute(&g);
        assert!(
            (0..3).all(|i| rep.values[3] >= rep.values[i]),
            "{:?}",
            rep.values
        );
    }

    #[test]
    fn damping_one_returns_pre_trusted_distribution() {
        let g = star_graph(4);
        let et = EigenTrust::new(1.0, vec![2]);
        let rep = et.compute(&g);
        assert!((rep.values[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn collusion_clique_boosts_its_members_without_damping() {
        // Two colluders (3, 4) give each other enormous trust and get none
        // from the honest peers; without pre-trusted damping their clique
        // retains noticeable reputation mass — the weakness the paper notes.
        let mut g = TrustGraph::new(5);
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    g.set_trust(i, j, 1.0);
                }
            }
        }
        g.set_trust(3, 4, 100.0);
        g.set_trust(4, 3, 100.0);
        // One honest peer was tricked into trusting a colluder slightly.
        g.set_trust(0, 3, 0.2);
        let no_damping = EigenTrust::new(0.0, vec![]).compute(&g);
        let damped = EigenTrust::new(0.3, vec![0, 1, 2]).compute(&g);
        let clique_mass_raw: f64 = no_damping.values[3] + no_damping.values[4];
        let clique_mass_damped: f64 = damped.values[3] + damped.values[4];
        assert!(
            clique_mass_raw > clique_mass_damped,
            "damping towards pre-trusted peers should suppress the clique: {clique_mass_raw} vs {clique_mass_damped}"
        );
    }

    #[test]
    fn iteration_budget_is_respected() {
        let et = EigenTrust {
            max_iterations: 2,
            tolerance: 0.0,
            ..Default::default()
        };
        let rep = et.compute(&star_graph(5));
        assert_eq!(rep.iterations, 2);
        assert!(!rep.converged);
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn invalid_damping_panics() {
        let _ = EigenTrust::new(1.5, vec![]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pre_trusted_peer_panics() {
        let g = TrustGraph::new(2);
        let _ = EigenTrust::new(0.5, vec![7]).compute(&g);
    }
}
