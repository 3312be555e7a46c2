//! Gossip-based reputation averaging.
//!
//! A lightweight, fully decentralized propagation baseline: every peer holds
//! an estimate vector of everyone's reputation (initialised from its own
//! local trust) and repeatedly averages it with a random neighbour's
//! estimate. After enough rounds all estimates converge to the global mean
//! of the initial local opinions — the classic push–pull gossip averaging
//! result. It is cheaper than EigenTrust and trivially decentralized, but it
//! has no damping, so it is the *least* collusion-resistant of the three
//! propagation substrates; the `abl2` bench quantifies that.

use super::{GlobalReputation, TrustGraph};
use rand::seq::SliceRandom;
use rand::Rng;

/// Gossip-averaging configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipAveraging {
    /// Number of gossip rounds; in each round every peer contacts one random
    /// partner and both replace their estimates by the pairwise average.
    pub(crate) rounds: usize,
    /// Convergence tolerance: if the maximum disagreement between any two
    /// peers' estimates drops below this, gossip stops early.
    pub(crate) tolerance: f64,
}

impl Default for GossipAveraging {
    fn default() -> Self {
        Self {
            rounds: 200,
            tolerance: 1e-9,
        }
    }
}

impl GossipAveraging {
    /// Creates a gossip-averaging instance with the given round budget.
    pub fn new(rounds: usize) -> Self {
        Self {
            rounds,
            ..Default::default()
        }
    }

    /// Runs gossip averaging over the local opinions encoded in the trust
    /// graph. Peer `i`'s initial opinion about peer `j` is its normalised
    /// local trust `c_ij`; the converged estimate approaches the column mean
    /// of the normalised trust matrix, i.e. "what the average peer thinks of
    /// `j`".
    pub fn compute<R: Rng + ?Sized>(&self, graph: &TrustGraph, rng: &mut R) -> GlobalReputation {
        let n = graph.len();
        // estimates[i] = peer i's current estimate vector of everyone.
        let mut estimates: Vec<Vec<f64>> = (0..n).map(|i| graph.normalized_row(i)).collect();
        if n == 1 {
            return GlobalReputation {
                values: vec![1.0],
                iterations: 0,
                converged: true,
            };
        }
        let mut order: Vec<usize> = (0..n).collect();
        let mut iterations = 0;
        let mut converged = false;
        for _ in 0..self.rounds {
            iterations += 1;
            order.shuffle(rng);
            for &i in &order {
                // Pick a random partner other than i.
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                let (head, tail) = estimates.split_at_mut(hi);
                for (a, b) in head[lo].iter_mut().zip(tail[0].iter_mut()) {
                    let avg = 0.5 * (*a + *b);
                    *a = avg;
                    *b = avg;
                }
            }
            if self.agrees_within_tolerance(&estimates) {
                converged = true;
                break;
            }
        }
        // Aggregate: any peer's estimate works once converged; average them
        // for robustness mid-convergence.
        let mut values = vec![0.0; n];
        for est in &estimates {
            for (k, &v) in est.iter().enumerate() {
                values[k] += v / n as f64;
            }
        }
        let sum: f64 = values.iter().sum();
        if sum > 0.0 {
            values.iter_mut().for_each(|v| *v /= sum);
        }
        GlobalReputation {
            values,
            iterations,
            converged,
        }
    }

    /// Whether the maximum disagreement is below `tolerance`: every
    /// column of the estimates (all peers' views of one peer) spreads by
    /// less than it, `max − min` over the rows with NaN entries ignored.
    ///
    /// It reads the rows one block of [`AGREEMENT_BLOCK`] columns at a
    /// time, so each read is contiguous, and stops at the first block
    /// with a column at or above the tolerance: before convergence that
    /// is usually the first block.
    fn agrees_within_tolerance(&self, estimates: &[Vec<f64>]) -> bool {
        // The disagreement is never negative, so a tolerance that is not
        // positive (or NaN) is never met.
        if self.tolerance.is_nan() || self.tolerance <= 0.0 {
            return false;
        }
        let n = estimates.len();
        let mut lo = [f64::INFINITY; AGREEMENT_BLOCK];
        let mut hi = [f64::NEG_INFINITY; AGREEMENT_BLOCK];
        for start in (0..n).step_by(AGREEMENT_BLOCK) {
            let width = AGREEMENT_BLOCK.min(n - start);
            let (lo, hi) = (&mut lo[..width], &mut hi[..width]);
            lo.fill(f64::INFINITY);
            hi.fill(f64::NEG_INFINITY);
            for est in estimates {
                let block = &est[start..start + width];
                for ((l, h), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(block) {
                    *l = l.min(v);
                    *h = h.max(v);
                }
            }
            if lo
                .iter()
                .zip(hi.iter())
                .any(|(l, h)| h - l >= self.tolerance)
            {
                return false;
            }
        }
        true
    }
}

/// Columns per block of [`GossipAveraging::agrees_within_tolerance`]: the
/// running minima and maxima of one block stay in registers or L1.
const AGREEMENT_BLOCK: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The column-major scan the convergence check replaced, kept as its
    /// reference: the largest `max − min` over every column.
    fn max_disagreement(estimates: &[Vec<f64>]) -> f64 {
        let n = estimates.len();
        let mut max = 0.0f64;
        for k in 0..n {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for est in estimates {
                lo = lo.min(est[k]);
                hi = hi.max(est[k]);
            }
            max = max.max(hi - lo);
        }
        max
    }

    #[test]
    fn agreement_check_matches_the_column_scan() {
        let mut rng = rng();
        let tolerances = [
            1e-9,
            0.05,
            0.5,
            1.0,
            2.0,
            f64::INFINITY,
            0.0,
            -0.0,
            -1.0,
            f64::NAN,
        ];
        // Sizes on both sides of the block width and multiples of it.
        let sizes: [usize; 11] = [0, 1, 2, 3, 63, 64, 65, 127, 128, 130, 200];
        for &n in &sizes {
            for case in 0..24 {
                // Rows drawn around a common value: spreads from exact
                // agreement up to well past every finite tolerance.
                let spread = [0.0, 1e-12, 1e-3, 0.04, 0.3, 3.0][case % 6];
                let mut estimates: Vec<Vec<f64>> = (0..n)
                    .map(|_| {
                        (0..n)
                            .map(|_| 0.5 + spread * rng.gen_range(0.0..1.0))
                            .collect()
                    })
                    .collect();
                // A single disagreeing entry, in the last block only.
                if case % 4 == 1 && n > 0 {
                    estimates[rng.gen_range(0..n)][n - 1] += 0.7;
                }
                // NaN and infinite entries, which min and max ignore or
                // propagate exactly as the reference does.
                if case % 4 == 2 && n > 0 {
                    for _ in 0..3 {
                        let special =
                            [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
                        estimates[rng.gen_range(0..n)][rng.gen_range(0..n)] = special;
                    }
                }
                // A whole column of NaN (no comparable entries at all).
                if case % 4 == 3 && n > 0 {
                    let k = rng.gen_range(0..n);
                    estimates.iter_mut().for_each(|est| est[k] = f64::NAN);
                }
                let reference = max_disagreement(&estimates);
                for &tolerance in &tolerances {
                    let gossip = GossipAveraging {
                        rounds: 1,
                        tolerance,
                    };
                    assert_eq!(
                        gossip.agrees_within_tolerance(&estimates),
                        reference < tolerance,
                        "n = {n}, case {case}, tolerance {tolerance}, disagreement {reference}"
                    );
                }
            }
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2024)
    }

    #[test]
    fn single_peer_graph_is_trivial() {
        let g = TrustGraph::new(1);
        let rep = GossipAveraging::default().compute(&g, &mut rng());
        assert_eq!(rep.values, vec![1.0]);
        assert!(rep.converged);
    }

    #[test]
    fn values_form_a_probability_distribution() {
        let mut g = TrustGraph::new(5);
        for i in 0..5 {
            for j in 0..5 {
                if i != j {
                    g.set_trust(i, j, (i + 2 * j + 1) as f64);
                }
            }
        }
        let rep = GossipAveraging::default().compute(&g, &mut rng());
        assert!((rep.values.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(rep.values.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn universally_trusted_peer_ranks_first() {
        let mut g = TrustGraph::new(6);
        for i in 1..6 {
            g.set_trust(i, 0, 10.0);
            for j in 1..6 {
                if i != j {
                    g.set_trust(i, j, 1.0);
                }
            }
        }
        let rep = GossipAveraging::default().compute(&g, &mut rng());
        assert!(
            (1..6).all(|i| rep.values[0] > rep.values[i]),
            "{:?}",
            rep.values
        );
    }

    #[test]
    fn gossip_converges_to_column_mean() {
        // With full convergence the estimate of peer k is the mean of column
        // k of the normalised trust matrix.
        let mut g = TrustGraph::new(4);
        g.set_trust(0, 1, 1.0);
        g.set_trust(1, 2, 1.0);
        g.set_trust(2, 3, 1.0);
        g.set_trust(3, 0, 1.0);
        let rep = GossipAveraging::new(500).compute(&g, &mut rng());
        assert!(rep.converged);
        // Symmetric ring: everyone ends up equal.
        for &v in &rep.values {
            assert!((v - 0.25).abs() < 1e-6, "value {v}");
        }
    }

    #[test]
    fn zero_round_budget_reports_not_converged() {
        let mut g = TrustGraph::new(3);
        g.set_trust(0, 1, 1.0);
        g.set_trust(1, 2, 1.0);
        let rep = GossipAveraging::new(0).compute(&g, &mut rng());
        assert_eq!(rep.iterations, 0);
        assert!(!rep.converged);
        // Still returns a usable, normalised vector.
        assert!((rep.values.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let mut g = TrustGraph::new(5);
        g.set_trust(0, 1, 3.0);
        g.set_trust(2, 1, 3.0);
        g.set_trust(3, 4, 1.0);
        let a = GossipAveraging::new(50).compute(&g, &mut StdRng::seed_from_u64(7));
        let b = GossipAveraging::new(50).compute(&g, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.values, b.values);
    }
}
