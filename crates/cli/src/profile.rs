//! The profiling summary printed after a run: throughput plus the
//! per-phase wall-clock breakdown a
//! [`TimingObserver`](collabsim::TimingObserver) recorded, and the
//! process's peak resident set size.

use collabsim::pipeline::PhaseTimings;
use std::fmt::Write as _;

/// The process's peak resident set size in MB (`VmHWM` from
/// `/proc/self/status`), or `None` where that file cannot be read. The
/// kernel's high-water mark is process-wide and never falls.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    Some(kb / 1024.0)
}

/// Renders the human-readable profiling summary for one finished run.
///
/// Shape:
///
/// ```text
/// profile: 12000 steps in 1.234s — 9724.51 steps/sec
///   phase          total        mean/step    share
///   selection      0.312s       26.0µs       25.3%
///   ...
/// ```
pub fn render_profile(total_steps: u64, run_seconds: f64, timings: &PhaseTimings) -> String {
    let mut out = String::new();
    let steps_per_sec = if run_seconds > 0.0 {
        total_steps as f64 / run_seconds
    } else {
        f64::INFINITY
    };
    let _ = writeln!(
        out,
        "profile: {total_steps} steps in {run_seconds:.3}s — {steps_per_sec:.2} steps/sec"
    );
    let entries = timings.totals();
    if entries.is_empty() {
        let _ = writeln!(out, "  (no phase timings recorded)");
        return out;
    }
    let phase_total: f64 = entries.iter().map(|(_, d, _)| d.as_secs_f64()).sum();
    let _ = writeln!(
        out,
        "  {:<14} {:>10} {:>12} {:>7}",
        "phase", "total", "mean/step", "share"
    );
    for (name, duration, count) in entries {
        let seconds = duration.as_secs_f64();
        let mean_us = if *count > 0 {
            seconds * 1e6 / *count as f64
        } else {
            0.0
        };
        let share = if phase_total > 0.0 {
            100.0 * seconds / phase_total
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  {name:<14} {:>9.3}s {:>10.1}µs {share:>6.1}%",
            seconds, mean_us
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_has_header_and_throughput() {
        let timings = PhaseTimings::default();
        let out = render_profile(100, 2.0, &timings);
        assert!(out.starts_with("profile: 100 steps in 2.000s — 50.00 steps/sec"));
        assert!(out.contains("no phase timings recorded"));
    }
}
