//! Peer behaviour types and population mixes.
//!
//! Following Shneidman & Parkes (cited by the paper in Section II-A), peers
//! are classified as *altruistic* (contribute without weighing benefit
//! against cost), *rational* (maximise utility) or *irrational*
//! (unpredictable / anti-social: free-riding, vandalism, destructive votes).
//! The paper's evaluation sweeps the population mix of these three types
//! from 10 % to 100 % of one type, with the remaining share split equally
//! between the other two (Section IV-B) — [`BehaviorMix`] encodes exactly
//! that convention so the experiment harness and the figures use one shared
//! definition.

use std::fmt;

/// The three standard behaviour types of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BehaviorType {
    /// Learns (via Q-learning in the simulation) to maximise its own utility.
    Rational,
    /// Shares everything it can and always edits/votes constructively.
    Altruistic,
    /// Free-rides on sharing and edits/votes destructively.
    Irrational,
}

impl BehaviorType {
    /// All behaviour types, in a fixed canonical order.
    pub const ALL: [BehaviorType; 3] = [
        BehaviorType::Rational,
        BehaviorType::Altruistic,
        BehaviorType::Irrational,
    ];

    /// Short lowercase label used in CSV output.
    pub fn label(self) -> &'static str {
        match self {
            BehaviorType::Rational => "rational",
            BehaviorType::Altruistic => "altruistic",
            BehaviorType::Irrational => "irrational",
        }
    }
}

impl fmt::Display for BehaviorType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A population mix over the three behaviour types.
///
/// Fractions always sum to 1 (within floating-point tolerance); the
/// constructors enforce it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BehaviorMix {
    rational: f64,
    altruistic: f64,
    irrational: f64,
}

impl BehaviorMix {
    /// Tolerance for the "fractions sum to one" invariant.
    const SUM_EPSILON: f64 = 1e-9;

    /// Creates a mix from explicit fractions.
    ///
    /// # Panics
    ///
    /// Panics where `BehaviorMix::try_new` refuses the fractions.
    pub fn new(rational: f64, altruistic: f64, irrational: f64) -> Self {
        Self::try_new(rational, altruistic, irrational)
            .unwrap_or_else(|message| panic!("{message}"))
    }

    /// Creates a mix from explicit fractions, refusing a negative or NaN
    /// fraction and fractions that do not sum to 1.
    pub(crate) fn try_new(rational: f64, altruistic: f64, irrational: f64) -> Result<Self, String> {
        // Written so that every comparison with a NaN refuses.
        if !(rational >= 0.0 && altruistic >= 0.0 && irrational >= 0.0) {
            return Err("fractions must be non-negative".to_string());
        }
        let sum = rational + altruistic + irrational;
        if (sum - 1.0).abs() < Self::SUM_EPSILON {
            Ok(Self {
                rational,
                altruistic,
                irrational,
            })
        } else {
            Err(format!("fractions must sum to 1, got {sum}"))
        }
    }

    /// The paper's sweep convention (Section IV-B): `fraction` of the
    /// population is of `primary` type and the remaining share is split
    /// equally between the other two types.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn sweep(primary: BehaviorType, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must lie in [0, 1]"
        );
        let rest = (1.0 - fraction) / 2.0;
        match primary {
            BehaviorType::Rational => Self::new(fraction, rest, rest),
            BehaviorType::Altruistic => Self::new(rest, fraction, rest),
            BehaviorType::Irrational => Self::new(rest, rest, fraction),
        }
    }

    /// A population consisting only of rational peers (Figure 3's setting).
    pub fn all_rational() -> Self {
        Self::new(1.0, 0.0, 0.0)
    }

    /// Fraction of rational peers.
    pub(crate) fn rational(&self) -> f64 {
        self.rational
    }

    /// Fraction of altruistic peers.
    pub(crate) fn altruistic(&self) -> f64 {
        self.altruistic
    }

    /// Fraction of irrational peers.
    pub(crate) fn irrational(&self) -> f64 {
        self.irrational
    }

    /// Deterministically assigns behaviour types to a population of
    /// `population` peers, matching the fractions as closely as integer
    /// counts allow (largest-remainder rounding, remainders going to the
    /// canonical order rational → altruistic → irrational).
    pub fn assign(&self, population: usize) -> Vec<BehaviorType> {
        let mut counts = [0usize; 3];
        let fracs = [self.rational, self.altruistic, self.irrational];
        let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(3);
        let mut assigned = 0usize;
        for (i, &f) in fracs.iter().enumerate() {
            let exact = f * population as f64;
            let floor = exact.floor() as usize;
            counts[i] = floor;
            assigned += floor;
            remainders.push((i, exact - floor as f64));
        }
        // Distribute the leftover peers to the types with the largest
        // fractional remainders.
        remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let mut leftover = population - assigned;
        for &(i, _) in remainders.iter().cycle() {
            if leftover == 0 {
                break;
            }
            counts[i] += 1;
            leftover -= 1;
        }
        let mut out = Vec::with_capacity(population);
        for (i, &count) in counts.iter().enumerate() {
            let behavior = BehaviorType::ALL[i];
            out.extend(std::iter::repeat_n(behavior, count));
        }
        debug_assert_eq!(out.len(), population);
        out
    }
}

impl Default for BehaviorMix {
    fn default() -> Self {
        Self::all_rational()
    }
}

impl fmt::Display for BehaviorMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rational={:.0}% altruistic={:.0}% irrational={:.0}%",
            self.rational * 100.0,
            self.altruistic * 100.0,
            self.irrational * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_splits_remainder_equally() {
        let mix = BehaviorMix::sweep(BehaviorType::Rational, 0.1);
        assert!((mix.rational() - 0.1).abs() < 1e-12);
        assert!((mix.altruistic() - 0.45).abs() < 1e-12);
        assert!((mix.irrational() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn sweep_other_primaries() {
        let alt = BehaviorMix::sweep(BehaviorType::Altruistic, 0.6);
        assert!((alt.altruistic() - 0.6).abs() < 1e-12);
        assert!((alt.rational() - 0.2).abs() < 1e-12);
        let irr = BehaviorMix::sweep(BehaviorType::Irrational, 0.8);
        assert!((irr.irrational() - 0.8).abs() < 1e-12);
        assert!((irr.altruistic() - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn new_rejects_bad_sum() {
        let _ = BehaviorMix::new(0.5, 0.5, 0.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn new_rejects_negative() {
        let _ = BehaviorMix::new(1.5, -0.5, 0.0);
    }

    #[test]
    fn assign_matches_population_size_and_fractions() {
        let mix = BehaviorMix::sweep(BehaviorType::Rational, 0.1);
        let assigned = mix.assign(100);
        assert_eq!(assigned.len(), 100);
        let rational = assigned
            .iter()
            .filter(|&&b| b == BehaviorType::Rational)
            .count();
        let altruistic = assigned
            .iter()
            .filter(|&&b| b == BehaviorType::Altruistic)
            .count();
        let irrational = assigned
            .iter()
            .filter(|&&b| b == BehaviorType::Irrational)
            .count();
        assert_eq!(rational, 10);
        assert_eq!(altruistic, 45);
        assert_eq!(irrational, 45);
    }

    #[test]
    fn assign_handles_non_divisible_population() {
        let mix = BehaviorMix::new(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0);
        let assigned = mix.assign(10);
        assert_eq!(assigned.len(), 10);
        for behavior in BehaviorType::ALL {
            let count = assigned.iter().filter(|&&b| b == behavior).count();
            assert!((3..=4).contains(&count), "{behavior}: {count}");
        }
    }

    #[test]
    fn assign_all_rational() {
        let assigned = BehaviorMix::all_rational().assign(7);
        assert!(assigned.iter().all(|&b| b == BehaviorType::Rational));
    }

    #[test]
    fn display_formats_percentages() {
        let mix = BehaviorMix::sweep(BehaviorType::Rational, 0.2);
        let s = format!("{mix}");
        assert!(s.contains("rational=20%"));
        assert!(s.contains("altruistic=40%"));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(BehaviorType::Rational.label(), "rational");
        assert_eq!(BehaviorType::Altruistic.to_string(), "altruistic");
        assert_eq!(BehaviorType::Irrational.label(), "irrational");
    }
}
