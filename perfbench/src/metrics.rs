//! Metric values, the result line and small statistics helpers.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A metric; non-finite values (a ratio over nothing) read as 0.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value: if value.is_finite() { value } else { 0.0 },
        }
    }
}

/// The last line of standard output: one JSON object with `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// Readings of the same work taken several times, one list per repetition
/// with the k-th reading of every list timing the same piece of work: the
/// sum, over pieces, of the piece's median reading (0 for none).
pub fn sum_of_medians(repetitions: &[Vec<f64>]) -> f64 {
    let pieces = repetitions.iter().map(Vec::len).max().unwrap_or(0);
    (0..pieces)
        .map(|k| {
            let mut readings: Vec<f64> = repetitions
                .iter()
                .filter_map(|readings| readings.get(k).copied())
                .collect();
            readings.sort_by(f64::total_cmp);
            let mid = readings.len() / 2;
            if readings.len() % 2 == 1 {
                readings[mid]
            } else {
                (readings[mid - 1] + readings[mid]) / 2.0
            }
        })
        .sum()
}

/// `numerator / denominator`, or 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The process's peak resident set size in MB (`VmHWM`), 0 where procfs
/// is missing.
pub fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_piece_counts_with_its_median_reading() {
        let repetitions = vec![vec![3.0, 1.0, 5.0], vec![2.0, 4.0], vec![6.0, 1.5, 4.0]];
        assert_eq!(sum_of_medians(&repetitions), 3.0 + 1.5 + 4.5);
        assert_eq!(sum_of_medians(&[]), 0.0);
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let line = result_line(3, 1, &[Metric::new("setup_s", "s", 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(Metric::new("x", "s", f64::NAN).value, 0.0);
    }
}
