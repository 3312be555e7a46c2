//! One pass over a workload's plan, through either harness, with every
//! operation checked.

use crate::checks::{check_invariants, report_digest, Fingerprint, Pins};
use crate::drive::Harness;
use crate::workloads::Plan;
use collabsim::{ScenarioSpec, Snapshot};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The outcome of one operation: a cell, a fork, or a checkpoint resume.
#[derive(Debug, Clone, PartialEq)]
pub struct OpResult {
    /// `<spec label>` for a cell or fork, `<spec label>/resume` for its
    /// checkpoint round trips.
    pub label: String,
    /// The report digest (cells and forks that ran to the end).
    pub digest: Option<u64>,
    /// Why the operation failed, if it did.
    pub error: Option<String>,
}

impl OpResult {
    fn new(label: String, outcome: Result<Option<u64>, String>) -> Self {
        match outcome {
            Ok(digest) => Self {
                label,
                digest,
                error: None,
            },
            Err(error) => Self {
                label,
                digest: None,
                error: Some(error),
            },
        }
    }
}

/// Runs every operation of `plan` and returns their outcomes, in order. A
/// failed operation never stops the others. With `pins`, every cell and
/// fork must match its pinned digest.
///
/// `after_op` runs after every operation, once its world is dropped; the
/// harness does not time it.
pub fn run_pass<D: Harness>(
    harness: &mut D,
    plan: &Plan,
    pins: Option<&Pins>,
    after_op: &mut dyn FnMut(),
) -> Vec<OpResult> {
    let mut flow = Flow { harness };
    let mut ops = Vec::new();
    let mut record = |label: String, (resume, run): Outcomes<Finished>| {
        ops.push(OpResult::new(
            format!("{label}/resume"),
            resume.map(|()| None),
        ));
        ops.push(OpResult::new(label, run.and_then(|r| r.check(pins))));
    };
    match plan {
        Plan::Cells(texts) => {
            for text in texts {
                let label = ScenarioSpec::parse(text)
                    .map(|spec| spec.label().to_string())
                    .unwrap_or_else(|_| "unparsable-spec".to_string());
                flow.harness.begin_op(&label);
                let outcomes = guarded(|| flow.cell(text)).unwrap_or_else(both_failed);
                flow.harness.end_op();
                after_op();
                record(label, outcomes);
            }
        }
        Plan::Forks { base, forks } => {
            flow.harness.begin_op("contested/base");
            let base = guarded(|| flow.equilibrate(base)).and_then(|base| base);
            flow.harness.end_op();
            after_op();
            for spec in forks {
                let label = spec.label().to_string();
                flow.harness.begin_op(&label);
                let outcomes = match &base {
                    Ok((snapshot, expect)) => {
                        guarded(|| flow.fork(snapshot, expect, spec)).unwrap_or_else(both_failed)
                    }
                    Err(error) => both_failed(format!("base failed: {error}")),
                };
                flow.harness.end_op();
                after_op();
                record(label, outcomes);
            }
        }
    }
    ops
}

/// A cell or fork that ran to the end: its digest and the invariant check
/// of its final world.
#[derive(Debug)]
struct Finished {
    label: String,
    digest: u64,
    invariants: Result<(), String>,
}

impl Finished {
    fn check(self, pins: Option<&Pins>) -> Result<Option<u64>, String> {
        self.invariants?;
        if let Some(pins) = pins {
            match pins.get(&self.label) {
                Some(&pinned) if pinned == self.digest => {}
                Some(&pinned) => {
                    return Err(format!(
                        "report digest {:016x} differs from the pinned {pinned:016x}",
                        self.digest
                    ))
                }
                None => return Err(format!("no pinned digest (got {:016x})", self.digest)),
            }
        }
        Ok(Some(self.digest))
    }
}

/// The resume outcome and the cell (or fork) outcome of one flow.
type Outcomes<T> = (Result<(), String>, Result<T, String>);

fn both_failed<T>(error: String) -> Outcomes<T> {
    (Err(error.clone()), Err(error))
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string());
        format!("panicked: {message}")
    })
}

struct Flow<'a, D> {
    harness: &'a mut D,
}

impl<D: Harness> Flow<'_, D> {
    /// Build, train, checkpoint at the reset, finish from the decoded copy.
    fn cell(&mut self, text: &str) -> Outcomes<Finished> {
        let (spec, mut sim) = match self.harness.build(text) {
            Ok(built) => built,
            Err(error) => return both_failed(error),
        };
        self.harness.train(&mut sim);
        let expect = Fingerprint::of(self.harness.world(&sim));
        let resumed = self.checkpoint(&expect, |harness: &mut D| {
            let snapshot = harness.capture(&sim, &spec);
            drop(sim);
            snapshot
        });
        self.finish(resumed, spec.label())
    }

    /// Build and train the base; capture the checkpoint every fork starts
    /// from.
    fn equilibrate(&mut self, text: &str) -> Result<(Snapshot, Fingerprint), String> {
        let (spec, mut sim) = self.harness.build(text)?;
        self.harness.train(&mut sim);
        let expect = Fingerprint::of(self.harness.world(&sim));
        let snapshot = self.harness.capture(&sim, &spec);
        Ok((snapshot, expect))
    }

    /// Fork the base checkpoint onto `spec`, round-trip it, run the
    /// evaluation.
    fn fork(
        &mut self,
        base: &Snapshot,
        expect: &Fingerprint,
        spec: &ScenarioSpec,
    ) -> Outcomes<Finished> {
        let resumed = self.checkpoint(expect, |harness: &mut D| harness.fork(base, spec));
        self.finish(resumed, spec.label())
    }

    /// One checkpoint round trip; `make` captures (or forks) the snapshot.
    fn checkpoint(
        &mut self,
        expect: &Fingerprint,
        make: impl FnOnce(&mut D) -> Snapshot,
    ) -> Result<D::Sim, String> {
        let snapshot = make(self.harness);
        self.round_trip(snapshot, expect)
    }

    /// Encode, decode, rebuild and apply; the resumed world must carry the
    /// captured world's fingerprint. Each buffer is dropped as soon as the
    /// next stage holds the state, as a checkpoint-to-disk resume would.
    fn round_trip(&mut self, snapshot: Snapshot, expect: &Fingerprint) -> Result<D::Sim, String> {
        let bytes = self.harness.encode(&snapshot);
        drop(snapshot);
        let decoded = self.harness.decode(&bytes)?;
        drop(bytes);
        let sim = self.harness.resume(&decoded)?;
        drop(decoded);
        let got = Fingerprint::of(self.harness.world(&sim));
        if got != *expect {
            return Err(format!(
                "resumed world differs from the captured one: {got:?} != {expect:?}"
            ));
        }
        Ok(sim)
    }

    /// Runs the rest of the protocol from the resumed copy and checks the
    /// final world.
    fn finish(&mut self, resumed: Result<D::Sim, String>, label: &str) -> Outcomes<Finished> {
        let mut sim = match resumed {
            Ok(sim) => sim,
            Err(error) => return (Err(error.clone()), Err(format!("resume failed: {error}"))),
        };
        let report = self.harness.finish(&mut sim);
        let finished = Finished {
            label: label.to_string(),
            digest: report_digest(&report),
            invariants: check_invariants(self.harness.world(&sim), &report),
        };
        (Ok(()), Ok(finished))
    }
}

/// Marks every operation of `replay` whose digest differs from the same
/// operation of `reference` as failed.
pub fn require_equal_digests(reference: &[OpResult], replay: &mut [OpResult], what: &str) {
    for (want, got) in reference.iter().zip(replay.iter_mut()) {
        if let (Some(want), Some(have)) = (want.digest, got.digest) {
            if want != have && got.error.is_none() {
                got.error = Some(format!(
                    "{what} digest {have:016x} differs from {want:016x}"
                ));
            }
        }
    }
}
