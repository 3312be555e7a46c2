//! Incentive schemes and the service policies they induce.
//!
//! The paper compares its reputation-based scheme against running the same
//! network *without* incentives (Figure 3) and argues in Section II why the
//! direct-relation tit-for-tat of BitTorrent cannot replace it. All three
//! appear here as variants of [`IncentiveScheme`]; the engine queries the
//! scheme for the concrete policies (bandwidth allocation, voting weights,
//! editing admission) each time it needs one, so a single engine code path
//! serves the incentive run, the baseline and the TFT comparison.

use crate::netsim::bandwidth::AllocationPolicy;

/// Which incentive scheme governs the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IncentiveScheme {
    /// No incentives: equal bandwidth split, unweighted simple-majority
    /// voting, no editing threshold, no punishments.
    None,
    /// The paper's reputation-based scheme: bandwidth proportional to `R_S`,
    /// voting weighted by `R_E`, editing gated on `R_S ≥ θ`, adaptive
    /// majority, and punishments for malicious voters/editors.
    ReputationBased,
    /// Direct-relation tit-for-tat (BitTorrent-style): bandwidth
    /// proportional to what the downloader previously uploaded to this
    /// source; editing/voting behave like the no-incentive baseline because
    /// TFT has no notion of non-direct contributions — precisely the
    /// shortcoming the paper's scheme addresses.
    TitForTat,
}

impl IncentiveScheme {
    /// All schemes in a stable order (used by ablation sweeps).
    pub const ALL: [IncentiveScheme; 3] = [
        IncentiveScheme::None,
        IncentiveScheme::ReputationBased,
        IncentiveScheme::TitForTat,
    ];

    /// Short label used in spec files, cell labels and bench identifiers.
    pub fn label(self) -> &'static str {
        match self {
            IncentiveScheme::None => "none",
            IncentiveScheme::ReputationBased => "reputation",
            IncentiveScheme::TitForTat => "tit-for-tat",
        }
    }

    /// Parses a scheme from its [`IncentiveScheme::label`] (the inverse
    /// mapping, used by the `ScenarioSpec` text format).
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.label() == label)
    }

    /// The bandwidth-allocation policy this scheme induces.
    pub fn allocation_policy(self) -> AllocationPolicy {
        match self {
            IncentiveScheme::None => AllocationPolicy::EqualSplit,
            IncentiveScheme::ReputationBased => AllocationPolicy::WeightedByReputation,
            IncentiveScheme::TitForTat => AllocationPolicy::TitForTat,
        }
    }

    /// Whether votes are weighted by editing reputation.
    pub fn weighted_voting(self) -> bool {
        matches!(self, IncentiveScheme::ReputationBased)
    }

    /// Whether editing requires the sharing-reputation threshold `θ`.
    pub fn gated_editing(self) -> bool {
        matches!(self, IncentiveScheme::ReputationBased)
    }

    /// Whether the adaptive (reputation-dependent) majority applies; the
    /// baseline uses a fixed simple majority.
    pub fn adaptive_majority(self) -> bool {
        matches!(self, IncentiveScheme::ReputationBased)
    }

    /// Whether malicious voters/editors are punished.
    pub fn punishes(self) -> bool {
        matches!(self, IncentiveScheme::ReputationBased)
    }

    /// Whether voting is restricted to previously successful editors of the
    /// article. This restriction is part of the collaboration-network design
    /// (it keeps voters knowledgeable) and applies to every scheme; only the
    /// *weighting* of those votes is incentive-specific.
    pub fn restricts_voters_to_editors(self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            IncentiveScheme::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn reputation_scheme_enables_every_mechanism() {
        let s = IncentiveScheme::ReputationBased;
        assert_eq!(
            s.allocation_policy(),
            AllocationPolicy::WeightedByReputation
        );
        assert!(s.weighted_voting());
        assert!(s.gated_editing());
        assert!(s.adaptive_majority());
        assert!(s.punishes());
    }

    #[test]
    fn baseline_disables_differentiation() {
        let s = IncentiveScheme::None;
        assert_eq!(s.allocation_policy(), AllocationPolicy::EqualSplit);
        assert!(!s.weighted_voting());
        assert!(!s.gated_editing());
        assert!(!s.adaptive_majority());
        assert!(!s.punishes());
    }

    #[test]
    fn tit_for_tat_differentiates_bandwidth_only() {
        let s = IncentiveScheme::TitForTat;
        assert_eq!(s.allocation_policy(), AllocationPolicy::TitForTat);
        assert!(!s.weighted_voting());
        assert!(!s.gated_editing());
    }

    #[test]
    fn voter_restriction_applies_to_all_schemes() {
        for s in IncentiveScheme::ALL {
            assert!(s.restricts_voters_to_editors());
        }
    }
}
