//! Result rendering: the plain-text tables the examples print for one
//! run's per-behaviour breakdown and churn counters.

use crate::gametheory::behavior::BehaviorType;
use crate::report::SimulationReport;
use crate::world::ChurnStats;
use std::fmt::Write as _;

/// Renders the churn counters of a run — the Section-VI reputation-
/// persistence numbers: how much reputation re-entrant identities kept
/// (versus the newcomer minimum `r_min`) and how much whitewashers shed.
pub fn churn_summary(stats: &ChurnStats, r_min: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "churn events: {} re-entries, {} departures, {} whitewashes",
        stats.joins, stats.leaves, stats.whitewashes
    );
    let _ = writeln!(
        out,
        "mean sharing reputation at re-entry: {:.4} (newcomer minimum: {r_min:.4})",
        stats.mean_reentry_reputation()
    );
    let _ = writeln!(
        out,
        "mean reputation shed per whitewash:  {:.4}",
        stats.mean_whitewash_shed()
    );
    out
}

/// Renders the per-behaviour breakdown of a single report.
pub fn behavior_table(report: &SimulationReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "type", "peers", "articles", "bandwidth", "downloads", "constr.", "destr."
    );
    for behavior in BehaviorType::ALL {
        let b = report.breakdown(behavior);
        if b.peers == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>10.4} {:>10.4} {:>10.4} {:>10} {:>10}",
            behavior.label(),
            b.peers,
            b.shared_articles,
            b.shared_bandwidth,
            b.downloaded,
            b.constructive_edits,
            b.destructive_edits,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::BehaviorBreakdown;
    use std::collections::BTreeMap;

    fn fake_report(shared_articles: f64, shared_bandwidth: f64) -> SimulationReport {
        let mut by_behavior = BTreeMap::new();
        by_behavior.insert(
            "rational".to_string(),
            BehaviorBreakdown {
                peers: 4,
                shared_articles,
                shared_bandwidth,
                constructive_edits: 3,
                destructive_edits: 1,
                ..Default::default()
            },
        );
        SimulationReport {
            shared_articles,
            shared_bandwidth,
            by_behavior,
            edit_outcomes: Default::default(),
            mean_article_quality: 1.0,
            completed_downloads: 5,
            evaluation_steps: 10,
            seed: 0,
        }
    }

    #[test]
    fn behavior_table_skips_absent_types() {
        let table = behavior_table(&fake_report(0.1, 0.2));
        assert!(table.contains("rational"));
        assert!(!table.contains("irrational"));
        assert!(!table.contains("altruistic"));
    }

    #[test]
    fn churn_summary_renders_counters_and_means() {
        let stats = ChurnStats {
            joins: 4,
            leaves: 6,
            whitewashes: 2,
            reentry_reputation_sum: 1.2,
            whitewash_reputation_shed_sum: 0.5,
        };
        let summary = churn_summary(&stats, 0.05);
        assert!(summary.contains("4 re-entries, 6 departures, 2 whitewashes"));
        assert!(summary.contains("0.3000"), "mean re-entry reputation");
        assert!(summary.contains("0.2500"), "mean whitewash shed");
        assert!(summary.contains("0.0500"), "newcomer minimum");
    }
}
