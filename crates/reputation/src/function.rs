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
//! `β ∈ {0.1, 0.15, 0.2, 0.3}`, [`FIGURE1_BETAS`]). Because Section VI names
//! the study of alternative reputation functions as future work, this
//! module ships three additional monotone functions with the same
//! `[R_min, 1]` range. The ABL1 claim of `collabsim check` sweeps the
//! logistic `β` over the Figure 1 values.

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
    pub g: f64,
    /// `β`: controls how fast reputation grows with contribution.
    pub beta: f64,
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

/// Linear reputation `R(C) = min(R_min + slope · C, 1)` — the simplest
/// alternative; its linear growth means the marginal return on contribution
/// never drops until the cap is hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearReputation {
    /// Newcomer reputation `R_min`.
    pub minimum: f64,
    /// Reputation gained per unit of contribution.
    pub slope: f64,
}

impl LinearReputation {
    /// Creates a linear reputation function.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < minimum < 1` and `slope > 0`.
    pub fn new(minimum: f64, slope: f64) -> Self {
        assert!(minimum > 0.0 && minimum < 1.0, "R_min must lie in (0, 1)");
        assert!(slope > 0.0, "slope must be positive");
        Self { minimum, slope }
    }
}

impl ReputationFunction for LinearReputation {
    fn reputation(&self, contribution: f64) -> f64 {
        (self.minimum + self.slope * contribution).min(1.0)
    }

    fn minimum(&self) -> f64 {
        self.minimum
    }

    fn name(&self) -> &'static str {
        "linear"
    }
}

/// Step reputation: `R_min` below the threshold, `1` at or above it. The
/// harshest possible differentiation; useful as an extreme point in the
/// ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReputation {
    /// Newcomer reputation `R_min`.
    pub minimum: f64,
    /// Contribution threshold at which reputation jumps to 1.
    pub threshold: f64,
}

impl StepReputation {
    /// Creates a step reputation function.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < minimum < 1` and `threshold > 0`.
    pub fn new(minimum: f64, threshold: f64) -> Self {
        assert!(minimum > 0.0 && minimum < 1.0, "R_min must lie in (0, 1)");
        assert!(threshold > 0.0, "threshold must be positive");
        Self { minimum, threshold }
    }
}

impl ReputationFunction for StepReputation {
    fn reputation(&self, contribution: f64) -> f64 {
        if contribution >= self.threshold {
            1.0
        } else {
            self.minimum
        }
    }

    fn minimum(&self) -> f64 {
        self.minimum
    }

    fn name(&self) -> &'static str {
        "step"
    }
}

/// Exponential saturation `R(C) = 1 − (1 − R_min) · exp(−rate · C)`:
/// concave everywhere, i.e. the *fastest* initial growth of the family —
/// the shape the paper's requirement 4 ("increase quite fast at the
/// beginning") asks for most literally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialSaturation {
    /// Newcomer reputation `R_min`.
    pub minimum: f64,
    /// Saturation rate.
    pub rate: f64,
}

impl ExponentialSaturation {
    /// Creates an exponential-saturation reputation function.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < minimum < 1` and `rate > 0`.
    pub fn new(minimum: f64, rate: f64) -> Self {
        assert!(minimum > 0.0 && minimum < 1.0, "R_min must lie in (0, 1)");
        assert!(rate > 0.0, "rate must be positive");
        Self { minimum, rate }
    }
}

impl ReputationFunction for ExponentialSaturation {
    fn reputation(&self, contribution: f64) -> f64 {
        1.0 - (1.0 - self.minimum) * (-self.rate * contribution).exp()
    }

    fn minimum(&self) -> f64 {
        self.minimum
    }

    fn name(&self) -> &'static str {
        "exponential-saturation"
    }
}

/// The β values plotted in Figure 1 of the paper.
pub const FIGURE1_BETAS: [f64; 4] = [0.3, 0.2, 0.15, 0.1];

#[cfg(test)]
mod tests {
    use super::*;

    fn all_functions() -> Vec<Box<dyn ReputationFunction>> {
        vec![
            Box::new(LogisticReputation::paper(0.2)),
            Box::new(LinearReputation::new(0.05, 0.02)),
            Box::new(StepReputation::new(0.05, 10.0)),
            Box::new(ExponentialSaturation::new(0.05, 0.1)),
        ]
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
    fn linear_caps_at_one() {
        let f = LinearReputation::new(0.1, 0.1);
        assert_eq!(f.reputation(100.0), 1.0);
        assert!((f.reputation(1.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn step_jumps_at_threshold() {
        let f = StepReputation::new(0.05, 10.0);
        assert_eq!(f.reputation(9.99), 0.05);
        assert_eq!(f.reputation(10.0), 1.0);
    }

    #[test]
    fn exponential_saturation_approaches_one() {
        let f = ExponentialSaturation::new(0.05, 0.1);
        assert!((f.reputation(0.0) - 0.05).abs() < 1e-12);
        assert!(f.reputation(100.0) > 0.9999);
        assert!(f.reputation(100.0) <= 1.0);
    }

    #[test]
    #[should_panic(expected = "beta must be positive")]
    fn logistic_rejects_non_positive_beta() {
        let _ = LogisticReputation::new(19.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "R_min")]
    fn linear_rejects_bad_minimum() {
        let _ = LinearReputation::new(0.0, 0.1);
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> =
            all_functions().iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), 4);
    }
}
