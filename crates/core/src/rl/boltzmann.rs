//! Boltzmann (softmax) exploration.
//!
//! The paper solves the exploration/exploitation problem by sampling actions
//! from a Boltzmann distribution over the Q-values of the current state:
//!
//! ```text
//! p_s(a) = exp(Q(s,a) / T) / Σ_b exp(Q(s,b) / T)
//! ```
//!
//! `T` ("temperature") controls the amount of exploration: for very high `T`
//! the distribution is nearly uniform (the training phase of the simulation
//! sets `T` to the largest representable floating-point value), for low `T`
//! the highest-valued action dominates. Figure 2 of the paper plots the
//! distribution for Q-values 1..10 at `T = 2` and `T = 1000`; this
//! module's tests check that series' two shapes against
//! [`boltzmann_distribution`].

/// Computes the Boltzmann distribution over a slice of Q-values at
/// temperature `t`.
///
/// The computation subtracts the maximum Q-value before exponentiating
/// (softmax shift-invariance), so it is numerically stable for arbitrarily
/// large Q-values and very small temperatures. For non-finite or enormous
/// temperatures the distribution degenerates to uniform, matching the
/// paper's training-phase convention of setting `T` to the highest possible
/// floating-point value.
///
/// # Panics
///
/// Panics if `values` is empty or `t` is not strictly positive.
pub fn boltzmann_distribution(values: &[f64], t: f64) -> Vec<f64> {
    let mut probs = Vec::new();
    boltzmann_distribution_into(values, t, &mut probs);
    probs
}

/// Allocation-free variant of [`boltzmann_distribution`]: writes the
/// distribution into `out` (cleared first), reusing its capacity. The
/// simulation's selection workers each call this into one reused buffer,
/// so steady-state steps perform no allocation.
///
/// Produces bit-identical results to [`boltzmann_distribution`].
///
/// # Panics
///
/// Panics if `values` is empty or `t` is not strictly positive.
pub(crate) fn boltzmann_distribution_into(values: &[f64], t: f64, out: &mut Vec<f64>) {
    assert!(!values.is_empty(), "need at least one Q-value");
    assert!(t > 0.0, "temperature must be strictly positive");
    let n = values.len();
    out.clear();
    if !t.is_finite() || t >= 1e300 {
        out.resize(n, 1.0 / n as f64);
        return;
    }
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    out.extend(values.iter().map(|&q| ((q - max) / t).exp()));
    let sum: f64 = out.iter().sum();
    if sum <= 0.0 || !sum.is_finite() {
        // All exponents underflowed (extremely small temperature with large
        // spread); fall back to greedy with deterministic tie-breaking.
        let greedy = values
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        out.iter_mut().for_each(|p| *p = 0.0);
        out[greedy] = 1.0;
        return;
    }
    out.iter_mut().for_each(|p| *p /= sum);
}

/// Samples an index from an explicit probability distribution through a
/// [`rand::RngCore`] trait object, consuming exactly one `next_u64` call:
/// [`sample_probs_raw`] of that call's output.
///
/// This is the draw [`BoltzmannPolicy::select_action`] performs. Exposed so
/// callers that cache distributions can reproduce the policy's RNG stream
/// bit-for-bit.
pub(crate) fn sample_probs(probs: &[f64], rng: &mut dyn rand::RngCore) -> usize {
    sample_probs_raw(probs, rng.next_u64())
}

/// Samples an index from an explicit probability distribution with one raw
/// 64-bit draw, already taken: the draw is turned into a uniform double in
/// `[0, 1)` by the standard 53-bit mantissa construction, then walked down
/// the CDF. The simulation's selection phase takes its draws from the step
/// RNG in one sequential pass and samples from them on its workers, so the
/// picks are those of [`sample_probs`] on the same stream.
#[inline]
pub(crate) fn sample_probs_raw(probs: &[f64], raw: u64) -> usize {
    let draw = (raw >> 11) as f64 / (1u64 << 53) as f64;
    let mut cumulative = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        cumulative += p;
        if draw < cumulative {
            return i;
        }
    }
    probs.len() - 1
}

/// An action-selection policy that samples from the Boltzmann distribution
/// at a fixed temperature. The temperature is a public field so the caller
/// can change it between steps (the paper switches from `T = f64::MAX` to
/// `T = 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BoltzmannPolicy {
    /// Current temperature `T`.
    pub(crate) temperature: f64,
}

impl BoltzmannPolicy {
    /// Creates a Boltzmann policy at the given temperature.
    ///
    /// # Panics
    ///
    /// Panics if the temperature is not strictly positive.
    pub(crate) fn new(temperature: f64) -> Self {
        assert!(temperature > 0.0, "temperature must be strictly positive");
        Self { temperature }
    }

    /// Selects an action index given the Q-values of the current state.
    ///
    /// Randomness comes in through a `dyn RngCore` so the draw stays
    /// deterministic under seeding whatever the caller's RNG type.
    pub(crate) fn select_action(&self, q_row: &[f64], rng: &mut dyn rand::RngCore) -> usize {
        let probs = boltzmann_distribution(q_row, self.temperature);
        // RngCore only gives raw integers; `sample_probs` derives a uniform
        // double manually so this works through the trait object.
        sample_probs(&probs, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn distribution_sums_to_one() {
        let values = [1.0, 2.0, 3.0, 4.0];
        for &t in &[0.1, 1.0, 2.0, 1000.0] {
            let p = boltzmann_distribution(&values, t);
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "T={t}: sum={sum}");
            assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn low_temperature_prefers_high_q_values() {
        // Figure 2, top: T = 2 over Q-values 1..10 — strongly peaked at 10.
        let values: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        let p = boltzmann_distribution(&values, 2.0);
        assert!(p[9] > p[0] * 10.0);
        assert!(p.windows(2).all(|w| w[1] > w[0]), "monotone in Q-value");
    }

    #[test]
    fn high_temperature_approaches_uniform() {
        // Figure 2, bottom: T = 1000 over Q-values 1..10 — almost uniform.
        let values: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        let p = boltzmann_distribution(&values, 1000.0);
        for &prob in &p {
            assert!((prob - 0.1).abs() < 0.001, "prob {prob} not ≈ 0.1");
        }
    }

    #[test]
    fn infinite_temperature_is_exactly_uniform() {
        let values = [5.0, -2.0, 100.0];
        let p = boltzmann_distribution(&values, f64::MAX);
        for &prob in &p {
            assert!((prob - 1.0 / 3.0).abs() < 1e-15);
        }
    }

    #[test]
    fn tiny_temperature_degenerates_to_greedy() {
        let values = [0.0, 1000.0, 500.0];
        let p = boltzmann_distribution(&values, 1e-12);
        assert_eq!(p[1], 1.0);
        assert_eq!(p[0] + p[2], 0.0);
    }

    #[test]
    fn numerically_stable_for_large_values() {
        let values = [1e12, 1e12 + 1.0];
        let p = boltzmann_distribution(&values, 1.0);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[1] > p[0]);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_temperature_panics() {
        let _ = boltzmann_distribution(&[1.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one Q-value")]
    fn empty_values_panic() {
        let _ = boltzmann_distribution(&[], 1.0);
    }

    #[test]
    fn sampling_matches_distribution_empirically() {
        let values = [0.0, 0.0, 2.0];
        let t = 1.0;
        let p = boltzmann_distribution(&values, t);
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 3];
        let trials = 20_000;
        for _ in 0..trials {
            counts[sample_probs(&p, &mut rng)] += 1;
        }
        for i in 0..3 {
            let empirical = counts[i] as f64 / trials as f64;
            assert!(
                (empirical - p[i]).abs() < 0.02,
                "action {i}: empirical {empirical} vs expected {}",
                p[i]
            );
        }
    }

    #[test]
    fn policy_training_phase_explores_uniformly() {
        // The paper's training phase: the highest possible temperature.
        let policy = BoltzmannPolicy::new(f64::MAX);
        let q = [0.0, 100.0, -50.0, 3.0];
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 4];
        for _ in 0..8_000 {
            counts[policy.select_action(&q, &mut rng)] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 8_000.0;
            assert!((frac - 0.25).abs() < 0.03, "fraction {frac} not ≈ 0.25");
        }
    }

    #[test]
    fn policy_at_unit_temperature_prefers_greedy() {
        let policy = BoltzmannPolicy::new(1.0);
        let q = [0.0, 10.0];
        let mut rng = StdRng::seed_from_u64(6);
        let greedy = (0..1_000)
            .filter(|_| policy.select_action(&q, &mut rng) == 1)
            .count();
        assert!(greedy > 950, "greedy chosen only {greedy}/1000 times");
    }

    #[test]
    fn into_variant_is_bit_identical_and_reuses_capacity() {
        let cases: &[(&[f64], f64)] = &[
            (&[1.0, 2.0, 3.0], 1.0),
            (&[5.0, -2.0, 100.0], f64::MAX),
            (&[0.0, 1000.0, 500.0], 1e-12),
            (&[1e12, 1e12 + 1.0], 1.0),
            (&[0.25], 2.0),
        ];
        let mut out = Vec::new();
        for &(values, t) in cases {
            boltzmann_distribution_into(values, t, &mut out);
            let reference = boltzmann_distribution(values, t);
            assert_eq!(out.len(), reference.len());
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "values={values:?} t={t}");
            }
        }
    }

    #[test]
    fn sample_probs_matches_policy_draw_stream() {
        // `sample_probs` must consume exactly one `next_u64` and pick the
        // same index as `BoltzmannPolicy::select_action` on the same stream.
        let q = [0.3, -1.0, 2.5, 0.0];
        for t in [1.0, f64::MAX] {
            let policy = BoltzmannPolicy::new(t);
            let probs = boltzmann_distribution(&q, t);
            let mut a = StdRng::seed_from_u64(42);
            let mut b = StdRng::seed_from_u64(42);
            for _ in 0..200 {
                assert_eq!(
                    policy.select_action(&q, &mut a),
                    sample_probs(&probs, &mut b)
                );
            }
            use rand::RngCore;
            assert_eq!(a.next_u64(), b.next_u64(), "stream positions diverged");
        }
    }

    #[test]
    fn sample_probs_is_sample_probs_raw_of_one_draw() {
        use rand::RngCore;
        let mut rng = StdRng::seed_from_u64(7);
        let mut raws = StdRng::seed_from_u64(7);
        for t in [0.5, 1.0, f64::MAX] {
            let probs = boltzmann_distribution(&[0.3, -1.0, 2.5, 0.0, 1.0], t);
            for _ in 0..500 {
                let raw = raws.next_u64();
                assert_eq!(
                    sample_probs(&probs, &mut rng),
                    sample_probs_raw(&probs, raw)
                );
            }
        }
        // The extremes of the raw draw: the first index and the residual
        // mass's last index.
        let probs = [0.25, 0.25, 0.5 - 1e-12];
        assert_eq!(sample_probs_raw(&probs, 0), 0);
        assert_eq!(sample_probs_raw(&probs, u64::MAX), 2);
        assert_eq!(rng.next_u64(), raws.next_u64(), "stream positions diverged");
    }
}
