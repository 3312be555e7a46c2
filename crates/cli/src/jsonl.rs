//! Streaming metrics as JSON lines.
//!
//! [`JsonlObserver`] is a [`StepObserver`] that writes one self-contained
//! JSON object per line to any `Write` sink (stdout or a file). The
//! stream has three event shapes:
//!
//! ```text
//! {"event":"run_start","label":"...","population":100,"online":100,"total_steps":12000}
//! {"event":"step","step":25,"online":98,"measuring":false,"joins":3,"leaves":1,"whitewashes":0}
//! {"event":"run_end","label":"...","steps":12000,"shared_bandwidth":0.45,...,"phases":{"selection":0.12,...},"peak_rss_mb":41.3}
//! ```
//!
//! `step` events are emitted every `every` steps (and always for the final
//! step), so a 12 000-step run does not have to produce 12 000 lines. The
//! `run_end` event's `peak_rss_mb` is the process's peak resident set size
//! so far, left out where it cannot be read. Each event is a [`Json`]
//! value written in its compact one-line form.

use crate::error::CliError;
use crate::profile::peak_rss_mb;
use collabsim::json::Json;
use collabsim::observer::WorldView;
use collabsim::pipeline::StepContext;
use collabsim::{SimulationReport, StepObserver};
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

/// Opens the CLI's `--jsonl` target (`-` means stdout; a file is created
/// or truncated) as a stream's sink.
pub fn open_sink(target: &str) -> Result<Box<dyn Write + Send>, CliError> {
    if target == "-" {
        return Ok(Box::new(std::io::stdout()));
    }
    match std::fs::File::create(target) {
        Ok(file) => Ok(Box::new(file)),
        Err(e) => Err(CliError::Io {
            path: PathBuf::from(target),
            message: e.to_string(),
        }),
    }
}

/// A [`StepObserver`] streaming run/step/phase metrics as JSON lines.
pub struct JsonlObserver {
    sink: Box<dyn Write + Send>,
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
    pub fn new(
        sink: Box<dyn Write + Send>,
        label: impl Into<String>,
        total_steps: u64,
        every: u64,
    ) -> Self {
        Self {
            sink,
            label: label.into(),
            total_steps,
            every: every.max(1),
            phase_totals: Vec::new(),
        }
    }

    fn emit(&mut self, event: Json) {
        // Metric streaming is best effort: a broken pipe must not poison
        // the simulation run itself.
        let _ = writeln!(self.sink, "{event}");
    }
}

impl StepObserver for JsonlObserver {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_run_start(&mut self, world: WorldView<'_>) {
        self.emit(Json::object([
            ("event", "run_start".into()),
            ("label", self.label.as_str().into()),
            ("population", world.population().into()),
            ("online", world.online_count().into()),
            ("total_steps", self.total_steps.into()),
        ]));
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
        self.emit(Json::object([
            ("event", "step".into()),
            ("step", step.into()),
            ("online", world.online_count().into()),
            ("measuring", world.measuring().into()),
            ("joins", churn.joins.into()),
            ("leaves", churn.leaves.into()),
            ("whitewashes", churn.whitewashes.into()),
        ]));
    }

    fn on_run_end(&mut self, world: WorldView<'_>, report: &SimulationReport) {
        let phases = self
            .phase_totals
            .iter()
            .map(|(name, seconds)| (name.as_str(), Json::from(*seconds)));
        let members = [
            ("event", "run_end".into()),
            ("label", self.label.as_str().into()),
            ("steps", world.now().into()),
            ("online", world.online_count().into()),
            ("shared_bandwidth", report.shared_bandwidth.into()),
            ("shared_articles", report.shared_articles.into()),
            ("mean_article_quality", report.mean_article_quality.into()),
            ("completed_downloads", report.completed_downloads.into()),
            ("evaluation_steps", report.evaluation_steps.into()),
            ("seed", report.seed.into()),
            ("phases", Json::object(phases)),
        ];
        let peak_rss = peak_rss_mb().map(|mb| ("peak_rss_mb", mb.into()));
        self.emit(Json::object(members.into_iter().chain(peak_rss)));
        let _ = self.sink.flush();
    }
}
