//! Contribution-value accounting (Section III-B of the paper).
//!
//! Two contribution values are tracked per peer:
//!
//! * `C_S(a, b) = α_S · S_articles + β_S · S_bandwidth − d_S` for sharing,
//!   where `S_articles` are the actually shared articles, `S_bandwidth` the
//!   actually shared bandwidth, and `d_S` a decay term that lowers the
//!   contribution of inactive peers,
//! * `C_E(v, e) = α_E · S_votes + β_E · S_edits − d_E` for editing/voting,
//!   where only *successful* votes (cast with the majority) and *accepted*
//!   edits count.
//!
//! The decay is applied per time step of inactivity in the respective
//! resource class; contribution values never drop below zero (the paper
//! defines `C ≥ 0`).

/// Weights and decay constants of the two contribution values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContributionParams {
    /// `α_S`: weight of shared articles.
    pub(crate) alpha_s: f64,
    /// `β_S`: weight of shared bandwidth.
    pub(crate) beta_s: f64,
    /// `d_S`: per-step decay of the sharing contribution while inactive.
    pub(crate) decay_s: f64,
    /// `α_E`: weight of successful votes.
    pub(crate) alpha_e: f64,
    /// `β_E`: weight of accepted edits.
    pub(crate) beta_e: f64,
    /// `d_E`: per-step decay of the editing contribution while inactive.
    pub(crate) decay_e: f64,
}

impl Default for ContributionParams {
    fn default() -> Self {
        // The paper gives the example "α_S = 1 and β_S = 2 means that
        // sharing bandwidth is twice as valuable as offering articles"; we
        // keep both classes symmetric by default and use a small decay so
        // idle peers slowly lose reputation.
        Self {
            alpha_s: 1.0,
            beta_s: 2.0,
            decay_s: 0.05,
            alpha_e: 1.0,
            beta_e: 2.0,
            decay_e: 0.05,
        }
    }
}

impl ContributionParams {
    /// Validates that all weights are positive and decays non-negative,
    /// naming the offending field in the error message.
    pub(crate) fn check(&self) -> Result<(), String> {
        for (name, value) in [
            ("alpha_s", self.alpha_s),
            ("beta_s", self.beta_s),
            ("alpha_e", self.alpha_e),
            ("beta_e", self.beta_e),
        ] {
            // `is_nan` too: a NaN weight compares false either way.
            if value.is_nan() || value <= 0.0 {
                return Err(format!("{name} must be positive"));
            }
        }
        for (name, value) in [("decay_s", self.decay_s), ("decay_e", self.decay_e)] {
            if value.is_nan() || value < 0.0 {
                return Err(format!("{name} must be non-negative"));
            }
        }
        Ok(())
    }

    /// Panicking shim around [`ContributionParams::check`].
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters.
    pub(crate) fn validate(&self) {
        if let Err(message) = self.check() {
            panic!("{message}");
        }
    }
}

/// One time step's worth of sharing activity for a peer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SharingAction {
    /// Number of articles the peer offers for download this step.
    pub shared_articles: f64,
    /// Fraction of upload bandwidth the peer shares this step (0..=1 in the
    /// normalised model, but any non-negative amount is accepted).
    pub shared_bandwidth: f64,
}

impl SharingAction {
    /// Whether the peer shared anything at all this step.
    pub(crate) fn is_active(&self) -> bool {
        self.shared_articles > 0.0 || self.shared_bandwidth > 0.0
    }
}

/// One time step's worth of editing/voting outcomes for a peer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EditingAction {
    /// Number of votes cast with the eventual majority this step.
    pub successful_votes: u32,
    /// Number of edits accepted by a majority vote this step.
    pub accepted_edits: u32,
    /// Whether the peer attempted any edit or vote this step (successful or
    /// not) — attempts keep the decay from applying even when they fail.
    pub attempted: bool,
}

impl EditingAction {
    /// Whether the peer did anything in the editing/voting class this step.
    pub(crate) fn is_active(&self) -> bool {
        self.attempted || self.successful_votes > 0 || self.accepted_edits > 0
    }
}

/// One peer's sharing-contribution update for a single time step, produced
/// by a *collect* stage and applied to a ledger later.
///
/// The two-stage collect-then-apply model lets the sharing phase accumulate
/// deltas from parallel workers (bucketed per ledger shard) and apply them
/// afterwards in a deterministic order: because contribution accounting is
/// per-peer independent, applying a batch of deltas shard-by-shard is
/// bit-identical to recording them inline, regardless of how many workers
/// collected or applied them. Editing outcomes are recorded inline, through
/// [`ShardedLedger::record_editing`](crate::reputation::sharded::ShardedLedger::record_editing).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ContributionDelta {
    /// Dense index of the peer the delta belongs to.
    pub(crate) peer: usize,
    /// Sharing activity to record.
    pub(crate) sharing: SharingAction,
}

impl ContributionDelta {
    /// A delta recording one step of sharing activity.
    pub fn sharing(peer: usize, action: SharingAction) -> Self {
        Self {
            peer,
            sharing: action,
        }
    }
}

/// Running contribution values for a single peer.
///
/// The sharing contribution is a *level*: it equals the weighted amount the
/// peer currently shares and decays only while the peer is inactive. The
/// editing contribution is cumulative (successful votes and accepted edits
/// are events, not a holding), also decaying while inactive.
///
/// The weights and decays are the same for every peer, so the owning ledger
/// holds one validated [`ContributionParams`] and lends it to each update.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct ContributionTracker {
    sharing: f64,
    editing: f64,
    /// Cumulative raw counters, useful for metrics and tests.
    total_articles: f64,
    total_bandwidth: f64,
    total_votes: u64,
    total_edits: u64,
}

impl ContributionTracker {
    /// Current sharing contribution `C_S`.
    pub(crate) fn sharing(&self) -> f64 {
        self.sharing
    }

    /// Current editing/voting contribution `C_E`.
    pub(crate) fn editing(&self) -> f64 {
        self.editing
    }

    /// Cumulative number of articles ever shared (step-weighted).
    pub(crate) fn total_articles(&self) -> f64 {
        self.total_articles
    }

    /// Cumulative bandwidth ever shared (step-weighted).
    pub(crate) fn total_bandwidth(&self) -> f64 {
        self.total_bandwidth
    }

    /// Cumulative successful votes.
    pub(crate) fn total_votes(&self) -> u64 {
        self.total_votes
    }

    /// Cumulative accepted edits.
    pub(crate) fn total_edits(&self) -> u64 {
        self.total_edits
    }

    /// Records one time step of sharing activity.
    ///
    /// The paper defines `C_S` as a function of the *actually shared*
    /// articles and bandwidth, so an active step sets the contribution to
    /// the weighted level `α_S · S_articles + β_S · S_bandwidth`; an
    /// inactive step (nothing shared) decays the previous level by `d_S`,
    /// never below zero.
    pub(crate) fn record_sharing(&mut self, params: &ContributionParams, action: &SharingAction) {
        debug_assert!(action.shared_articles >= 0.0 && action.shared_bandwidth >= 0.0);
        if action.is_active() {
            self.sharing =
                params.alpha_s * action.shared_articles + params.beta_s * action.shared_bandwidth;
            self.total_articles += action.shared_articles;
            self.total_bandwidth += action.shared_bandwidth;
        } else {
            self.sharing = (self.sharing - params.decay_s).max(0.0);
        }
    }

    /// Records one time step of editing/voting outcomes. Inactive steps
    /// decay the editing contribution by `d_E`.
    pub(crate) fn record_editing(&mut self, params: &ContributionParams, action: &EditingAction) {
        if action.is_active() {
            self.editing += params.alpha_e * f64::from(action.successful_votes)
                + params.beta_e * f64::from(action.accepted_edits);
            self.total_votes += u64::from(action.successful_votes);
            self.total_edits += u64::from(action.accepted_edits);
        } else {
            self.editing = (self.editing - params.decay_e).max(0.0);
        }
    }

    /// Overwrites every running value with checkpointed state.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn restore_values(
        &mut self,
        sharing: f64,
        editing: f64,
        total_articles: f64,
        total_bandwidth: f64,
        total_votes: u64,
        total_edits: u64,
    ) {
        self.sharing = sharing;
        self.editing = editing;
        self.total_articles = total_articles;
        self.total_bandwidth = total_bandwidth;
        self.total_votes = total_votes;
        self.total_edits = total_edits;
    }

    /// Resets both contribution values to zero (used by the punishment
    /// policy and by the phase switch of the simulation, which "resets the
    /// reputation values but the agents keep their Q-Matrices").
    pub(crate) fn reset(&mut self) {
        self.sharing = 0.0;
        self.editing = 0.0;
    }

    /// Scales the sharing contribution by `factor` (the uptime discount
    /// applied when a peer rejoins after an absence: the logistic
    /// reputation function is monotone in `C_S`, so scaling the
    /// contribution decays the reputation towards `R_min` without ever
    /// crossing it). Factors ≥ 1 are clamped to a no-op — the discount
    /// only ever shrinks a record.
    pub(crate) fn scale_sharing(&mut self, factor: f64) {
        if factor < 1.0 {
            self.sharing = (self.sharing * factor).max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> ContributionTracker {
        ContributionTracker::default()
    }

    #[test]
    fn sharing_contribution_is_weighted_sum() {
        let mut t = tracker();
        let p = ContributionParams::default();
        t.record_sharing(
            &p,
            &SharingAction {
                shared_articles: 50.0,
                shared_bandwidth: 0.5,
            },
        );
        // alpha_s=1, beta_s=2.
        assert!((t.sharing() - (50.0 + 1.0)).abs() < 1e-12);
        assert_eq!(t.editing(), 0.0);
    }

    #[test]
    fn editing_contribution_is_weighted_sum() {
        let mut t = tracker();
        let p = ContributionParams::default();
        t.record_editing(
            &p,
            &EditingAction {
                successful_votes: 3,
                accepted_edits: 2,
                attempted: true,
            },
        );
        // alpha_e=1, beta_e=2.
        assert!((t.editing() - (3.0 + 4.0)).abs() < 1e-12);
        assert_eq!(t.total_votes(), 3);
        assert_eq!(t.total_edits(), 2);
    }

    #[test]
    fn inactivity_decays_but_never_negative() {
        let mut t = tracker();
        let p = ContributionParams::default();
        t.record_sharing(
            &p,
            &SharingAction {
                shared_articles: 0.0,
                shared_bandwidth: 0.08,
            },
        );
        let after_share = t.sharing();
        assert!((after_share - 0.16).abs() < 1e-12);
        // Several inactive steps: decay 0.05 each, floored at zero.
        for _ in 0..10 {
            t.record_sharing(&p, &SharingAction::default());
        }
        assert_eq!(t.sharing(), 0.0);
    }

    #[test]
    fn failed_attempts_do_not_increase_but_prevent_decay() {
        let mut t = tracker();
        let p = ContributionParams::default();
        t.record_editing(
            &p,
            &EditingAction {
                successful_votes: 1,
                accepted_edits: 0,
                attempted: true,
            },
        );
        let before = t.editing();
        // An unsuccessful attempt: active, but adds nothing.
        t.record_editing(
            &p,
            &EditingAction {
                successful_votes: 0,
                accepted_edits: 0,
                attempted: true,
            },
        );
        assert_eq!(t.editing(), before);
        // A fully inactive step decays.
        t.record_editing(&p, &EditingAction::default());
        assert!(t.editing() < before);
    }

    #[test]
    fn cumulative_totals_track_all_activity() {
        let mut t = tracker();
        let p = ContributionParams::default();
        for _ in 0..4 {
            t.record_sharing(
                &p,
                &SharingAction {
                    shared_articles: 100.0,
                    shared_bandwidth: 1.0,
                },
            );
        }
        assert_eq!(t.total_articles(), 400.0);
        assert_eq!(t.total_bandwidth(), 4.0);
    }

    #[test]
    fn reset_clears_contributions_but_not_totals() {
        let mut t = tracker();
        let p = ContributionParams::default();
        t.record_sharing(
            &p,
            &SharingAction {
                shared_articles: 10.0,
                shared_bandwidth: 1.0,
            },
        );
        t.record_editing(
            &p,
            &EditingAction {
                successful_votes: 1,
                accepted_edits: 1,
                attempted: true,
            },
        );
        t.reset();
        assert_eq!(t.sharing(), 0.0);
        assert_eq!(t.editing(), 0.0);
        assert_eq!(t.total_articles(), 10.0);
        assert_eq!(t.total_edits(), 1);
    }

    #[test]
    fn bandwidth_weight_doubles_article_weight_by_default() {
        let params = ContributionParams::default();
        assert_eq!(params.beta_s, 2.0 * params.alpha_s);
    }

    #[test]
    #[should_panic(expected = "alpha_s")]
    fn invalid_params_panic() {
        ContributionParams {
            alpha_s: 0.0,
            ..Default::default()
        }
        .validate();
    }
}
