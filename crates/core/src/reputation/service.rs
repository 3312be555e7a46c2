//! Service differentiation (Section III-C of the paper).
//!
//! Three services are differentiated on reputation:
//!
//! * **Downloading** — a peer `i` downloading from source `j` receives the
//!   bandwidth fraction `B_i = R_S^i / Σ_{k ∈ D_j} R_S^k` of `j`'s upload
//!   bandwidth, where `D_j` is the set of peers currently downloading from
//!   `j`. The download phase splits bandwidth through
//!   [`BandwidthAllocator`](crate::netsim::bandwidth::BandwidthAllocator)
//!   under [`AllocationPolicy::WeightedByReputation`](crate::netsim::bandwidth::AllocationPolicy::WeightedByReputation).
//! * **Voting** — only previously successful editors of an article may vote
//!   on its changes; each voter's voice is weighted
//!   `v_i = R_E^i / Σ_{k ∈ V} R_E^k`, and voters who vote against the
//!   majority too often lose their voting rights.
//! * **Editing** — editing requires a sharing reputation above a threshold
//!   `R_S ≥ θ > R_S^min`; the majority required to accept an edit is
//!   inversely proportional to the editor's reputation, and editors with too
//!   many declined edits are punished by a reputation reset.

/// Parameters of the service-differentiation rules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceParams {
    /// `θ`: minimum sharing reputation required to edit articles. Must
    /// exceed the newcomer reputation `R_S^min` so editing always has an
    /// initial cost (Section III-C3).
    pub(crate) edit_threshold: f64,
    /// Majority fraction required of a *minimum*-reputation editor. The
    /// required majority interpolates between this and
    /// `majority_at_max_reputation` inversely with the editor's reputation.
    pub(crate) majority_at_min_reputation: f64,
    /// Majority fraction required of a maximum-reputation (R = 1) editor.
    pub(crate) majority_at_max_reputation: f64,
}

impl Default for ServiceParams {
    fn default() -> Self {
        Self {
            edit_threshold: 0.1,
            majority_at_min_reputation: 0.65,
            majority_at_max_reputation: 0.5,
        }
    }
}

impl ServiceParams {
    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is outside `(0, 1)` or the majority bounds
    /// are not proper fractions with `min ≥ max` ordering (higher reputation
    /// must never need a *larger* majority).
    pub(crate) fn validate(&self) {
        if let Err(message) = self.check() {
            panic!("{message}");
        }
    }

    /// Validates parameter ranges, naming the offending field in the error
    /// message.
    pub(crate) fn check(&self) -> Result<(), String> {
        if !(self.edit_threshold > 0.0 && self.edit_threshold < 1.0) {
            return Err("edit threshold must lie in (0, 1)".to_string());
        }
        if !((0.0..=1.0).contains(&self.majority_at_min_reputation)
            && (0.0..=1.0).contains(&self.majority_at_max_reputation))
        {
            return Err("majority fractions must lie in [0, 1]".to_string());
        }
        if self.majority_at_min_reputation < self.majority_at_max_reputation {
            return Err("required majority must not increase with reputation".to_string());
        }
        Ok(())
    }
}

/// The service-differentiation rule set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceDifferentiation {
    params: ServiceParams,
}

impl ServiceDifferentiation {
    /// Creates the rule set for newcomers with sharing reputation
    /// `min_sharing_reputation` (`R_S^min`).
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid or the editing threshold does
    /// not exceed the newcomer reputation (the paper requires
    /// `θ > R_S^min`).
    pub fn new(params: ServiceParams, min_sharing_reputation: f64) -> Self {
        params.validate();
        assert!(
            params.edit_threshold > min_sharing_reputation,
            "edit threshold must exceed the newcomer reputation"
        );
        Self { params }
    }

    /// **Voting.** Weighted voting power `v_i = R_E^i / Σ_k R_E^k` for the
    /// eligible voters of an edit, written into a caller-owned buffer
    /// (cleared first) so per-edit hot loops reuse one allocation.
    pub fn voting_powers_into(&self, voter_editing_reputations: &[f64], out: &mut Vec<f64>) {
        proportional_shares_into(voter_editing_reputations, out);
    }

    /// The "no incentive" baseline used for Figure 3: every downloader gets
    /// an equal share of the source's bandwidth regardless of reputation.
    /// Writes the `count` shares into a caller-owned buffer (cleared
    /// first).
    pub(crate) fn equal_shares_into(count: usize, out: &mut Vec<f64>) {
        out.clear();
        if count > 0 {
            out.resize(count, 1.0 / count as f64);
        }
    }

    /// **Editing.** Whether a peer with sharing reputation `r_s` may edit.
    pub(crate) fn may_edit(&self, sharing_reputation: f64) -> bool {
        sharing_reputation >= self.params.edit_threshold
    }

    /// **Editing.** The weighted-majority fraction required to accept an
    /// edit by an editor with editing reputation `r_e`. The requirement is
    /// inversely proportional to reputation: a newcomer needs
    /// `majority_at_min_reputation`, a maximally reputable editor only
    /// `majority_at_max_reputation`.
    pub fn required_majority(&self, editor_editing_reputation: f64) -> f64 {
        let r = editor_editing_reputation.clamp(0.0, 1.0);
        let hi = self.params.majority_at_min_reputation;
        let lo = self.params.majority_at_max_reputation;
        // Linear interpolation on reputation; r = 0 → hi, r = 1 → lo.
        hi - (hi - lo) * r
    }

    /// Decides a weighted vote: given the voting powers of voters in favour
    /// and the editor's required majority, returns whether the edit is
    /// accepted.
    ///
    /// `in_favor_power` and `against_power` are sums of
    /// [`Self::voting_powers_into`] entries; abstentions simply do not appear in either sum.
    pub fn edit_accepted(
        &self,
        editor_editing_reputation: f64,
        in_favor_power: f64,
        against_power: f64,
    ) -> bool {
        debug_assert!(in_favor_power >= 0.0 && against_power >= 0.0);
        let total = in_favor_power + against_power;
        if total <= 0.0 {
            // No eligible voter cast a vote; the conservative default is to
            // reject so unauditable edits cannot slip through.
            return false;
        }
        let fraction = in_favor_power / total;
        fraction >= self.required_majority(editor_editing_reputation)
    }
}

/// Shares proportional to the inputs, written into a caller-owned buffer
/// (cleared first); all-zero inputs fall back to equal shares so that a set
/// of newcomers with numerically zero reputation (only possible with
/// non-paper reputation functions) still receives service.
fn proportional_shares_into(values: &[f64], out: &mut Vec<f64>) {
    out.clear();
    if values.is_empty() {
        return;
    }
    debug_assert!(values.iter().all(|&v| v >= 0.0), "reputations must be >= 0");
    let sum: f64 = values.iter().sum();
    if sum <= 0.0 {
        ServiceDifferentiation::equal_shares_into(values.len(), out);
        return;
    }
    out.extend(values.iter().map(|&v| v / sum));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules() -> ServiceDifferentiation {
        ServiceDifferentiation::new(ServiceParams::default(), 0.05)
    }

    fn voting_powers(reputations: &[f64]) -> Vec<f64> {
        let mut powers = vec![7.0];
        rules().voting_powers_into(reputations, &mut powers);
        powers
    }

    #[test]
    fn voting_powers_are_proportional_to_editing_reputation() {
        let powers = voting_powers(&[0.05, 0.15, 0.8]);
        assert_eq!(powers.len(), 3);
        assert!((powers.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((powers[0] - 0.05).abs() < 1e-12);
        assert!((powers[2] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn single_voter_gets_everything() {
        assert_eq!(voting_powers(&[0.3]), vec![1.0]);
    }

    #[test]
    fn empty_voter_set_is_empty() {
        assert!(voting_powers(&[]).is_empty());
        let mut shares = vec![1.0];
        ServiceDifferentiation::equal_shares_into(0, &mut shares);
        assert!(shares.is_empty());
    }

    #[test]
    fn zero_reputation_falls_back_to_equal_shares() {
        assert_eq!(voting_powers(&[0.0, 0.0]), vec![0.5, 0.5]);
    }

    #[test]
    fn voting_powers_normalise() {
        let powers = voting_powers(&[0.05, 0.05, 0.9]);
        assert!((powers.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(powers[2] > 0.8);
    }

    #[test]
    fn editing_requires_threshold_above_newcomer() {
        let r = rules();
        assert!(!r.may_edit(0.05));
        assert!(!r.may_edit(0.0999));
        assert!(r.may_edit(0.1));
        assert!(r.may_edit(0.9));
    }

    #[test]
    fn required_majority_decreases_with_reputation() {
        let r = rules();
        let newcomer = r.required_majority(0.0);
        let mid = r.required_majority(0.5);
        let veteran = r.required_majority(1.0);
        assert!((newcomer - 0.65).abs() < 1e-12);
        assert!((veteran - 0.5).abs() < 1e-12);
        assert!(newcomer > mid && mid > veteran);
        // Values outside [0,1] are clamped.
        assert_eq!(r.required_majority(2.0), veteran);
        assert_eq!(r.required_majority(-1.0), newcomer);
    }

    #[test]
    fn edit_acceptance_uses_weighted_majority() {
        let r = rules();
        // A low-reputation editor needs 65 % of the voting power in favour.
        assert!(!r.edit_accepted(0.0, 0.6, 0.4));
        assert!(r.edit_accepted(0.0, 0.7, 0.3));
        // A high-reputation editor needs only 50 %.
        assert!(r.edit_accepted(1.0, 0.5, 0.5));
        assert!(!r.edit_accepted(1.0, 0.45, 0.55));
    }

    #[test]
    fn edit_with_no_votes_is_rejected() {
        assert!(!rules().edit_accepted(1.0, 0.0, 0.0));
    }

    #[test]
    fn equal_shares_baseline_is_uniform() {
        let mut shares = Vec::new();
        ServiceDifferentiation::equal_shares_into(4, &mut shares);
        assert_eq!(shares, vec![0.25; 4]);
    }

    #[test]
    #[should_panic(expected = "exceed the newcomer reputation")]
    fn threshold_must_exceed_minimum() {
        let params = ServiceParams {
            edit_threshold: 0.05,
            ..Default::default()
        };
        let _ = ServiceDifferentiation::new(params, 0.05);
    }

    #[test]
    #[should_panic(expected = "must not increase")]
    fn majority_ordering_is_enforced() {
        let params = ServiceParams {
            majority_at_min_reputation: 0.5,
            majority_at_max_reputation: 0.8,
            ..Default::default()
        };
        params.validate();
    }
}
