//! The paper's utility functions (Section III-D).
//!
//! Two utilities are defined, one per resource class:
//!
//! * Sharing articles and bandwidth:
//!   `U_S = α · UP_source · B − β · DS_articles − γ · UP_own`
//!   where `UP_source` is the source's shared upload bandwidth, `B` the
//!   fraction of that bandwidth allocated to the peer by the service
//!   differentiation (Section III-C1), `DS_articles` the fraction of disk
//!   space used for shared articles and `UP_own` the fraction of upload
//!   bandwidth the peer itself shares.
//! * Editing and voting: `U_E = δ · E_succ + ε · V_succ`, the weighted count
//!   of successful edits and successful votes. The paper deliberately leaves
//!   the *costs* of editing and voting out of `U_E` (they "cannot be
//!   explained rationally"; the motivation is altruistic).
//!
//! These utilities are the per-step rewards fed into the Q-learning agents
//! of the simulation model.

/// Coefficients of the sharing utility `U_S` (Section III-D1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SharingUtilityParams {
    /// `α`: benefit weight on the bandwidth actually received.
    pub(crate) alpha: f64,
    /// `β`: cost weight on the disk space used for shared articles.
    pub(crate) beta: f64,
    /// `γ`: cost weight on the upload bandwidth shared by the peer itself.
    pub(crate) gamma: f64,
}

impl Default for SharingUtilityParams {
    fn default() -> Self {
        // The paper normalises bandwidth and file size to 1 and does not
        // publish the exact coefficients; these defaults make downloading
        // clearly beneficial while sharing carries a modest cost, which is
        // the qualitative regime the paper's results describe (service
        // differentiation makes sharing pay, without it free-riding wins).
        Self {
            alpha: 10.0,
            beta: 0.5,
            gamma: 0.5,
        }
    }
}

/// Coefficients of the editing/voting utility `U_E` (Section III-D2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EditingUtilityParams {
    /// `δ`: reward weight per successful (accepted) edit.
    pub(crate) delta: f64,
    /// `ε`: reward weight per successful (majority) vote.
    pub(crate) epsilon: f64,
}

impl Default for EditingUtilityParams {
    fn default() -> Self {
        // Accepted edits are worth noticeably more than individual majority
        // votes; keeping ε small also keeps the voting reward from drowning
        // out the sharing utility during learning.
        Self {
            delta: 2.0,
            epsilon: 0.25,
        }
    }
}

/// Inputs to the sharing utility for one peer and one time step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SharingObservation {
    /// `UP_source`: fraction of upload bandwidth shared by the source peer
    /// the observing peer downloads from (0 if it did not download).
    pub source_upload: f64,
    /// `B`: fraction of that upload bandwidth allocated to the observing
    /// peer by the service-differentiation rule.
    pub bandwidth_share: f64,
    /// `DS_articles`: fraction of the peer's disk space used for shared
    /// articles.
    pub disk_share: f64,
    /// `UP_own`: fraction of upload bandwidth the peer shares itself.
    pub own_upload: f64,
}

/// Inputs to the editing/voting utility for one peer and one time step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct EditingObservation {
    /// `E_succ`: number of successful (accepted) edits this step.
    pub(crate) successful_edits: u32,
    /// `V_succ`: number of successful (with-majority) votes this step.
    pub(crate) successful_votes: u32,
}

/// The complete utility model combining both resource classes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UtilityModel {
    /// Parameters of `U_S`.
    pub(crate) sharing: SharingUtilityParams,
    /// Parameters of `U_E`.
    pub(crate) editing: EditingUtilityParams,
}

impl UtilityModel {
    /// `U_S = α · UP_source · B − β · DS_articles − γ · UP_own`.
    pub fn sharing_utility(&self, obs: &SharingObservation) -> f64 {
        debug_assert!((0.0..=1.0).contains(&obs.bandwidth_share));
        self.sharing.alpha * obs.source_upload * obs.bandwidth_share
            - self.sharing.beta * obs.disk_share
            - self.sharing.gamma * obs.own_upload
    }

    /// `U_E = δ · E_succ + ε · V_succ`.
    pub(crate) fn editing_utility(&self, obs: &EditingObservation) -> f64 {
        self.editing.delta * f64::from(obs.successful_edits)
            + self.editing.epsilon * f64::from(obs.successful_votes)
    }

    /// Total utility of one step: `U_S + U_E`.
    pub(crate) fn total_utility(
        &self,
        sharing: &SharingObservation,
        editing: &EditingObservation,
    ) -> f64 {
        self.sharing_utility(sharing) + self.editing_utility(editing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_utility_matches_formula() {
        let model = UtilityModel {
            sharing: SharingUtilityParams {
                alpha: 2.0,
                beta: 0.5,
                gamma: 1.0,
            },
            editing: EditingUtilityParams::default(),
        };
        let obs = SharingObservation {
            source_upload: 1.0,
            bandwidth_share: 0.25,
            disk_share: 0.5,
            own_upload: 1.0,
        };
        let expected = 2.0 * 1.0 * 0.25 - 0.5 * 0.5 - 1.0 * 1.0;
        assert!((model.sharing_utility(&obs) - expected).abs() < 1e-12);
    }

    #[test]
    fn editing_utility_matches_formula() {
        let model = UtilityModel {
            sharing: SharingUtilityParams::default(),
            editing: EditingUtilityParams {
                delta: 3.0,
                epsilon: 0.5,
            },
        };
        let obs = EditingObservation {
            successful_edits: 2,
            successful_votes: 4,
        };
        assert_eq!(model.editing_utility(&obs), 3.0 * 2.0 + 0.5 * 4.0);
    }

    #[test]
    fn utility_can_be_negative_for_uncompensated_sharing() {
        let model = UtilityModel::default();
        let obs = SharingObservation {
            source_upload: 0.0,
            bandwidth_share: 0.0,
            disk_share: 1.0,
            own_upload: 1.0,
        };
        assert!(model.sharing_utility(&obs) < 0.0);
    }

    #[test]
    fn total_is_sum_of_parts() {
        let model = UtilityModel::default();
        let s = SharingObservation {
            source_upload: 1.0,
            bandwidth_share: 0.5,
            disk_share: 0.5,
            own_upload: 0.5,
        };
        let e = EditingObservation {
            successful_edits: 1,
            successful_votes: 1,
        };
        let total = model.total_utility(&s, &e);
        assert!((total - (model.sharing_utility(&s) + model.editing_utility(&e))).abs() < 1e-12);
    }

    /// Pure free-riding: sharing nothing while receiving `bandwidth_share`.
    fn freeride_utility(model: &UtilityModel, bandwidth_share: f64) -> f64 {
        model.sharing_utility(&SharingObservation {
            source_upload: 1.0,
            bandwidth_share,
            disk_share: 0.0,
            own_upload: 0.0,
        })
    }

    #[test]
    fn freeriding_dominates_without_differentiation() {
        // If the bandwidth share does not depend on the peer's own sharing
        // (no service differentiation), then for any fixed share the
        // free-rider utility is at least as high as any sharing peer's.
        let model = UtilityModel::default();
        let share = 0.3;
        let freeride = freeride_utility(&model, share);
        let sharer = model.sharing_utility(&SharingObservation {
            source_upload: 1.0,
            bandwidth_share: share,
            disk_share: 1.0,
            own_upload: 1.0,
        });
        assert!(freeride > sharer);
    }

    #[test]
    fn sharing_pays_off_under_differentiation() {
        // With service differentiation a high-reputation sharer receives a
        // much larger bandwidth share than a free-rider; with the default
        // coefficients the benefit outweighs the cost of sharing.
        let model = UtilityModel::default();
        let freeride = freeride_utility(&model, 0.05);
        let sharer = model.sharing_utility(&SharingObservation {
            source_upload: 1.0,
            bandwidth_share: 0.6,
            disk_share: 1.0,
            own_upload: 1.0,
        });
        assert!(sharer > freeride);
    }

    #[test]
    fn default_params_are_positive() {
        let s = SharingUtilityParams::default();
        let e = EditingUtilityParams::default();
        assert!(s.alpha > 0.0 && s.beta > 0.0 && s.gamma > 0.0);
        assert!(e.delta > 0.0 && e.epsilon > 0.0);
    }
}
