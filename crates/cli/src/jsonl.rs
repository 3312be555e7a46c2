//! Streaming metrics as JSON lines.
//!
//! [`JsonlObserver`] is a [`StepObserver`] that writes one self-contained
//! JSON object per line to any `Write` sink (stdout or a file). The
//! stream has three event shapes:
//!
//! ```text
//! {"event":"run_start","label":"...","population":100,"online":100,"total_steps":12000}
//! {"event":"step","step":25,"online":98,"measuring":false,"joins":3,"leaves":1,"whitewashes":0}
//! {"event":"run_end","label":"...","steps":12000,"shared_bandwidth":0.45,...,"phases":{"selection":0.12,...}}
//! ```
//!
//! `step` events are emitted every `every` steps (and always for the final
//! step), so a 12 000-step run does not have to produce 12 000 lines.
//! Serialization is hand-rolled; every line is nonetheless strict JSON
//! (CI parses the stream with a real parser).

use crate::error::CliError;
use collabsim::observer::WorldView;
use collabsim::pipeline::StepContext;
use collabsim::{SimulationReport, StepObserver};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Escapes a string for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as a JSON number (`null` for non-finite values, which
/// JSON cannot represent).
pub fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Where a JSONL stream goes.
pub enum JsonlSink {
    /// Standard output (requested as `--jsonl -`).
    Stdout,
    /// A file, created (truncated) at attach time.
    File(std::fs::File),
}

impl JsonlSink {
    /// Opens a sink from the CLI's `--jsonl` value (`-` means stdout).
    pub fn open(target: &str) -> Result<Self, CliError> {
        if target == "-" {
            return Ok(JsonlSink::Stdout);
        }
        let path = PathBuf::from(target);
        std::fs::File::create(&path)
            .map(JsonlSink::File)
            .map_err(|e| CliError::Io {
                path,
                message: e.to_string(),
            })
    }

    fn write_line(&mut self, line: &str) {
        // Metric streaming is best effort: a broken pipe must not poison
        // the simulation run itself.
        let _ = match self {
            JsonlSink::Stdout => writeln!(std::io::stdout(), "{line}"),
            JsonlSink::File(file) => writeln!(file, "{line}"),
        };
    }

    fn flush(&mut self) {
        let _ = match self {
            JsonlSink::Stdout => std::io::stdout().flush(),
            JsonlSink::File(file) => file.flush(),
        };
    }
}

/// A [`StepObserver`] streaming run/step/phase metrics as JSON lines.
pub struct JsonlObserver {
    sink: JsonlSink,
    label: String,
    total_steps: u64,
    every: u64,
    /// Per-phase wall-clock totals in seconds, accumulated across steps
    /// and reported in the `run_end` event.
    phase_totals: Vec<(String, f64)>,
}

impl JsonlObserver {
    /// Creates an observer writing to `sink`, emitting a `step` event
    /// every `every` steps (clamped to ≥ 1).
    pub fn new(sink: JsonlSink, label: impl Into<String>, total_steps: u64, every: u64) -> Self {
        Self {
            sink,
            label: label.into(),
            total_steps,
            every: every.max(1),
            phase_totals: Vec::new(),
        }
    }
}

impl StepObserver for JsonlObserver {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_run_start(&mut self, world: WorldView<'_>) {
        let line = format!(
            "{{\"event\":\"run_start\",\"label\":\"{}\",\"population\":{},\"online\":{},\"total_steps\":{}}}",
            json_escape(&self.label),
            world.population(),
            world.online_count(),
            self.total_steps,
        );
        self.sink.write_line(&line);
    }

    fn on_phase(
        &mut self,
        phase: &str,
        elapsed: Duration,
        _world: WorldView<'_>,
        _ctx: &StepContext,
    ) {
        let seconds = elapsed.as_secs_f64();
        match self.phase_totals.iter_mut().find(|(name, _)| name == phase) {
            Some((_, total)) => *total += seconds,
            None => self.phase_totals.push((phase.to_string(), seconds)),
        }
    }

    fn on_step_end(&mut self, world: WorldView<'_>, _ctx: &StepContext) {
        let step = world.now();
        if step % self.every != 0 && step != self.total_steps {
            return;
        }
        let churn = world.churn_stats();
        let line = format!(
            "{{\"event\":\"step\",\"step\":{},\"online\":{},\"measuring\":{},\
             \"joins\":{},\"leaves\":{},\"whitewashes\":{}}}",
            step,
            world.online_count(),
            world.measuring(),
            churn.joins,
            churn.leaves,
            churn.whitewashes,
        );
        self.sink.write_line(&line);
    }

    fn on_run_end(&mut self, world: WorldView<'_>, report: &SimulationReport) {
        let mut phases = String::new();
        for (i, (name, seconds)) in self.phase_totals.iter().enumerate() {
            let sep = if i + 1 < self.phase_totals.len() {
                ","
            } else {
                ""
            };
            let _ = write!(
                phases,
                "\"{}\":{}{sep}",
                json_escape(name),
                json_f64(*seconds)
            );
        }
        let line = format!(
            "{{\"event\":\"run_end\",\"label\":\"{}\",\"steps\":{},\"online\":{},\
             \"shared_bandwidth\":{},\"shared_articles\":{},\"mean_article_quality\":{},\
             \"completed_downloads\":{},\"evaluation_steps\":{},\"seed\":{},\
             \"phases\":{{{phases}}}}}",
            json_escape(&self.label),
            world.now(),
            world.online_count(),
            json_f64(report.shared_bandwidth),
            json_f64(report.shared_articles),
            json_f64(report.mean_article_quality),
            report.completed_downloads,
            report.evaluation_steps,
            report.seed,
        );
        self.sink.write_line(&line);
        self.sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
