//! Simulation output: the quantities the paper's figures report.
//!
//! The evaluation metrics of Section V are: the percentage of shared files
//! and shared bandwidth per user and per *rational* user (Figures 3–5), the
//! ratio of constructive to destructive edits done by rational agents
//! (Figures 6–7), and the percentage of accepted constructive edits.
//! [`SimulationReport`] carries exactly those aggregates, broken down by
//! behaviour type, plus a few diagnostics (mean reputation, download volume,
//! article quality) used by the ablations.
//!
//! The report is deliberately **closed**: its `Debug` form is pinned
//! bit-for-bit by the golden determinism test, so it never grows a field
//! per new statistic. Anything beyond these paper aggregates — per-step
//! time series, churn dynamics, phase timings — streams through a
//! [`StepObserver`](crate::observer::StepObserver) (or is read off
//! [`SimWorld`](crate::world::SimWorld) after the run, e.g.
//! [`ChurnStats`](crate::world::ChurnStats)) instead.
//!
//! Across processes the report travels as JSON
//! ([`SimulationReport::to_json`] / [`SimulationReport::from_json`]), which
//! carries every field exactly, so a decoded report compares `==` with the
//! in-process one.

use crate::gametheory::behavior::BehaviorType;
use crate::json::{FromJson, Json, JsonError};
use crate::netsim::article::EditOutcomeCounts;
use std::collections::BTreeMap;

crate::json_struct! {
    /// Per-behaviour-type aggregates over the measured evaluation phase.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct BehaviorBreakdown {
        /// Number of peers of this type.
        pub peers: usize,
        /// Mean fraction of bandwidth shared per peer-step.
        pub shared_bandwidth: f64,
        /// Mean fraction of articles shared per peer-step.
        pub shared_articles: f64,
        /// Mean bandwidth downloaded per peer-step.
        pub downloaded: f64,
        /// Mean sharing reputation at the end of the run.
        pub final_sharing_reputation: f64,
        /// Mean editing reputation at the end of the run.
        pub final_editing_reputation: f64,
        /// Constructive edit attempts by peers of this type.
        pub constructive_edits: u64,
        /// Destructive edit attempts by peers of this type.
        pub destructive_edits: u64,
        /// Votes cast by peers of this type.
        pub votes: u64,
        /// Mean per-step utility (reward) of peers of this type.
        pub mean_utility: f64,
    }
}

impl BehaviorBreakdown {
    /// Fraction of this type's edit attempts that were constructive
    /// (0 if the type attempted no edits).
    pub fn constructive_edit_fraction(&self) -> f64 {
        let total = self.constructive_edits + self.destructive_edits;
        if total == 0 {
            0.0
        } else {
            self.constructive_edits as f64 / total as f64
        }
    }

    /// Total edit attempts by this type.
    pub fn total_edits(&self) -> u64 {
        self.constructive_edits + self.destructive_edits
    }
}

crate::json_struct! {
    /// The complete result of one simulation run.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SimulationReport {
        /// Mean fraction of bandwidth shared per peer-step, over all peers —
        /// Figure 3/4's "percentage of shared bandwidth".
        pub shared_bandwidth: f64,
        /// Mean fraction of articles shared per peer-step, over all peers —
        /// Figure 3/4's "percentage of shared articles".
        pub shared_articles: f64,
        /// Breakdown per behaviour type (Figure 5 reads the rational entry).
        pub by_behavior: BTreeMap<String, BehaviorBreakdown>,
        /// Outcome counts of all edits decided during the evaluation phase.
        pub edit_outcomes: EditOutcomeCounts,
        /// Mean article quality at the end of the run.
        pub mean_article_quality: f64,
        /// Number of completed downloads during the evaluation phase.
        pub completed_downloads: usize,
        /// Number of evaluation steps measured.
        pub evaluation_steps: u64,
        /// The seed the run used (for reproduction).
        pub seed: u64,
    }
}

impl SimulationReport {
    /// Breakdown for a behaviour type (zero-default if the type was absent).
    pub fn breakdown(&self, behavior: BehaviorType) -> BehaviorBreakdown {
        self.by_behavior
            .get(behavior.label())
            .copied()
            .unwrap_or_default()
    }

    /// The rational peers' mean shared-bandwidth fraction — the Figure 5
    /// series.
    pub fn rational_shared_bandwidth(&self) -> f64 {
        self.breakdown(BehaviorType::Rational).shared_bandwidth
    }

    /// The rational peers' mean shared-articles fraction — the Figure 5
    /// series.
    pub fn rational_shared_articles(&self) -> f64 {
        self.breakdown(BehaviorType::Rational).shared_articles
    }

    /// Fraction of rational peers' edits that were constructive — the
    /// Figure 6/7 series.
    pub fn rational_constructive_fraction(&self) -> f64 {
        self.breakdown(BehaviorType::Rational)
            .constructive_edit_fraction()
    }

    /// Fraction of decided constructive edits that were accepted, over the
    /// whole network.
    pub fn constructive_acceptance_rate(&self) -> f64 {
        self.edit_outcomes.constructive_acceptance_rate()
    }

    /// Fraction of decided destructive edits that slipped through.
    pub fn destructive_acceptance_rate(&self) -> f64 {
        self.edit_outcomes.destructive_acceptance_rate()
    }

    /// The report as a JSON object keyed by field name;
    /// [`SimulationReport::from_json`] reads it back exactly.
    pub fn to_json(&self) -> Json {
        self.clone().into()
    }

    /// Decodes [`SimulationReport::to_json`]'s output; a missing or
    /// mistyped field is an error naming it.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        <Self as FromJson>::from_json(json)
    }
}

crate::json_struct!(EditOutcomeCounts {
    accepted_constructive,
    accepted_destructive,
    declined_constructive,
    declined_destructive,
    pending,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimulationReport {
        let mut by_behavior = BTreeMap::new();
        by_behavior.insert(
            "rational".to_string(),
            BehaviorBreakdown {
                peers: 10,
                shared_bandwidth: 0.6,
                shared_articles: 0.25,
                constructive_edits: 30,
                destructive_edits: 10,
                ..Default::default()
            },
        );
        by_behavior.insert(
            "altruistic".to_string(),
            BehaviorBreakdown {
                peers: 5,
                shared_bandwidth: 1.0,
                shared_articles: 1.0,
                constructive_edits: 50,
                ..Default::default()
            },
        );
        SimulationReport {
            shared_bandwidth: 0.7,
            shared_articles: 0.5,
            by_behavior,
            edit_outcomes: EditOutcomeCounts {
                accepted_constructive: 60,
                declined_constructive: 20,
                accepted_destructive: 5,
                declined_destructive: 5,
                pending: 0,
            },
            mean_article_quality: 0.9,
            completed_downloads: 100,
            evaluation_steps: 500,
            seed: 1,
        }
    }

    #[test]
    fn breakdown_lookup_by_type() {
        let r = report();
        assert_eq!(r.breakdown(BehaviorType::Rational).peers, 10);
        assert_eq!(r.breakdown(BehaviorType::Altruistic).peers, 5);
        assert_eq!(r.breakdown(BehaviorType::Irrational).peers, 0);
    }

    #[test]
    fn rational_series_accessors() {
        let r = report();
        assert!((r.rational_shared_bandwidth() - 0.6).abs() < 1e-12);
        assert!((r.rational_shared_articles() - 0.25).abs() < 1e-12);
        assert!((r.rational_constructive_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn acceptance_rates() {
        let r = report();
        assert!((r.constructive_acceptance_rate() - 0.75).abs() < 1e-12);
        assert!((r.destructive_acceptance_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn missing_behavior_has_zero_breakdown() {
        let r = report();
        let missing = r.breakdown(BehaviorType::Irrational);
        assert_eq!(missing.total_edits(), 0);
        assert_eq!(missing.constructive_edit_fraction(), 0.0);
    }

    #[test]
    fn json_round_trip_is_exact_and_refuses_missing_fields() {
        let mut r = report();
        r.seed = u64::MAX;
        let back = SimulationReport::from_json(&r.to_json()).expect("decodes");
        assert_eq!(format!("{back:?}"), format!("{r:?}"));
        let Json::Object(mut members) = r.to_json() else {
            panic!("the report is an object");
        };
        members.retain(|(key, _)| key != "seed");
        let error = SimulationReport::from_json(&Json::Object(members)).unwrap_err();
        assert!(error.to_string().contains("`seed`"), "{error}");
    }

    #[test]
    fn constructive_fraction_handles_zero_edits() {
        let b = BehaviorBreakdown::default();
        assert_eq!(b.constructive_edit_fraction(), 0.0);
        let b = BehaviorBreakdown {
            constructive_edits: 3,
            destructive_edits: 1,
            ..Default::default()
        };
        assert!((b.constructive_edit_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(b.total_edits(), 4);
    }
}
