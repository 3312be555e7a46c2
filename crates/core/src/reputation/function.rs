//! Reputation functions `R : ℝ≥0 → [R_min, 1]`.
//!
//! The paper requires (Section III-A) that the reputation value
//!
//! 1. starts above zero for newcomers (`R_min > 0`, but not so high that
//!    whitewashing the identity becomes attractive),
//! 2. is bounded above by `R_max = 1`,
//! 3. grows monotonically in the contribution value, and
//! 4. grows quickly at the beginning to motivate newcomers.
//!
//! The concrete representation chosen in the paper is the logistic function
//! `R(C) = 1 / (1 + g · exp(−β · C))` (Figure 1 plots it for `g = 19` and
//! `β ∈ {0.1, 0.15, 0.2, 0.3}`, [`FIGURE1_BETAS`]). The ABL1 claim of
//! `collabsim check` sweeps the logistic `β` over the Figure 1 values.

/// A monotone map from contribution values to reputation values.
///
/// Implementations must guarantee `reputation(0) >= minimum()`,
/// monotonicity in the contribution value, and an upper bound of `1.0`.
pub trait ReputationFunction: Send + Sync {
    /// Reputation for a non-negative contribution value.
    fn reputation(&self, contribution: f64) -> f64;

    /// Smallest reputation the function can return (`R_min`).
    fn minimum(&self) -> f64;

    /// Short name used in ablation tables.
    fn name(&self) -> &'static str;

    /// Clamps a raw contribution value to the non-negative domain and
    /// evaluates the function. Contribution values can temporarily go
    /// negative through the decay term; the paper defines `C ≥ 0`, so the
    /// clamp keeps evaluation within the specified domain.
    fn reputation_clamped(&self, contribution: f64) -> f64 {
        self.reputation(contribution.max(0.0))
    }
}

/// The paper's logistic reputation function
/// `R(C) = 1 / (1 + g · exp(−β · C))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogisticReputation {
    /// `g`: controls the initial reputation `R(0) = 1 / (1 + g)`.
    pub(crate) g: f64,
    /// `β`: controls how fast reputation grows with contribution.
    pub(crate) beta: f64,
}

impl LogisticReputation {
    /// Creates a logistic reputation function.
    ///
    /// # Panics
    ///
    /// Panics unless `g > 0` and `beta > 0`.
    pub fn new(g: f64, beta: f64) -> Self {
        assert!(g > 0.0, "g must be positive");
        assert!(beta > 0.0, "beta must be positive");
        Self { g, beta }
    }

    /// The configuration plotted in Figure 1 of the paper: `g = 19` with the
    /// given `β`. `g = 19` makes the newcomer reputation `R(0) = 0.05`,
    /// which is exactly the `R_min = 0.05` used in the simulation model.
    pub fn paper(beta: f64) -> Self {
        Self::new(19.0, beta)
    }
}

impl Default for LogisticReputation {
    fn default() -> Self {
        Self::paper(0.2)
    }
}

impl ReputationFunction for LogisticReputation {
    fn reputation(&self, contribution: f64) -> f64 {
        debug_assert!(contribution >= 0.0, "contribution must be non-negative");
        1.0 / (1.0 + self.g * (-self.beta * contribution).exp())
    }

    fn minimum(&self) -> f64 {
        1.0 / (1.0 + self.g)
    }

    fn name(&self) -> &'static str {
        "logistic"
    }
}

/// The β values plotted in Figure 1 of the paper.
pub const FIGURE1_BETAS: [f64; 4] = [0.3, 0.2, 0.15, 0.1];

#[cfg(test)]
mod tests {
    use super::*;

    fn all_functions() -> Vec<Box<dyn ReputationFunction>> {
        vec![Box::new(LogisticReputation::paper(0.2))]
    }

    #[test]
    fn logistic_matches_formula() {
        let f = LogisticReputation::new(19.0, 0.2);
        for c in [0.0, 5.0, 10.0, 25.0, 50.0] {
            let expected = 1.0 / (1.0 + 19.0 * (-0.2f64 * c).exp());
            assert!((f.reputation(c) - expected).abs() < 1e-15);
        }
    }

    #[test]
    fn paper_newcomer_reputation_is_rmin_005() {
        // g = 19 gives R(0) = 1/20 = 0.05, the R_min of Section IV-B.
        let f = LogisticReputation::paper(0.2);
        assert!((f.reputation(0.0) - 0.05).abs() < 1e-12);
        assert!((f.minimum() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn logistic_inflection_point_has_reputation_half() {
        // At C* = ln(g) / β the reputation is 0.5 and growth starts to
        // flatten — the paper's discussion of Figure 3 attributes the
        // moderate sharing gain to how quickly the curve flattens there.
        for &beta in &FIGURE1_BETAS {
            let f = LogisticReputation::paper(beta);
            let c_star = f.g.ln() / f.beta;
            assert!((f.reputation(c_star) - 0.5).abs() < 1e-12, "beta={beta}");
        }
    }

    #[test]
    fn larger_beta_grows_faster() {
        // Figure 1: at the same contribution value, a larger β yields a
        // higher reputation (before saturation).
        let c = 15.0;
        let mut last = 0.0;
        for &beta in FIGURE1_BETAS.iter().rev() {
            // reversed: 0.1, 0.15, 0.2, 0.3 (increasing β)
            let r = LogisticReputation::paper(beta).reputation(c);
            assert!(r > last, "beta={beta}: {r} <= {last}");
            last = r;
        }
    }

    #[test]
    fn all_functions_are_monotone_and_bounded() {
        for f in all_functions() {
            let mut last = f64::NEG_INFINITY;
            for step in 0..=200 {
                let c = step as f64 * 0.5;
                let r = f.reputation(c);
                assert!(r >= last - 1e-12, "{} not monotone at C={c}", f.name());
                assert!(
                    (0.0..=1.0 + 1e-12).contains(&r),
                    "{} out of range at C={c}: {r}",
                    f.name()
                );
                last = r;
            }
        }
    }

    #[test]
    fn all_functions_respect_their_minimum_at_zero() {
        for f in all_functions() {
            assert!(
                f.reputation(0.0) >= f.minimum() - 1e-12,
                "{}: R(0) = {} < R_min = {}",
                f.name(),
                f.reputation(0.0),
                f.minimum()
            );
            assert!(f.minimum() > 0.0, "{}: R_min must exceed 0", f.name());
        }
    }

    #[test]
    fn clamped_evaluation_handles_negative_contribution() {
        let f = LogisticReputation::default();
        assert_eq!(f.reputation_clamped(-10.0), f.reputation(0.0));
    }

    #[test]
    #[should_panic(expected = "beta must be positive")]
    fn logistic_rejects_non_positive_beta() {
        let _ = LogisticReputation::new(19.0, 0.0);
    }
}
