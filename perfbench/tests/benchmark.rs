//! The benchmark's own tests, at a tiny size: every flow and layer runs,
//! in well under a minute.

use perfbench::checks::Pins;
use perfbench::flow::run_pass;
use perfbench::workloads::{plan, Sizing, Workload};
use perfbench::{run_traced, run_untraced, Options, Outcome};
use std::collections::BTreeMap;

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.001,
        trace,
    }
}

/// `(name, unit)` of every metric a `BENCHMARK.json` section lists.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section `{section}`"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\"")).expect("field") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closing quote");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn reported(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn digests(outcome: &Outcome) -> BTreeMap<String, u64> {
    outcome
        .ops
        .iter()
        .filter_map(|op| op.digest.map(|d| (op.label.clone(), d)))
        .collect()
}

#[test]
fn every_workload_prints_every_named_metric_with_its_unit() {
    let sizing = Sizing::tiny();
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(end_to_end.len(), 4);
    for workload in Workload::ALL {
        let untraced = run_untraced(&options(workload, false), &sizing, None);
        assert_eq!(reported(&untraced), end_to_end, "{}", workload.name());
        assert_eq!(untraced.failed(), 0, "{:?}", untraced.ops);
        for metric in &untraced.metrics {
            assert!(metric.value > 0.0, "{} on {}", metric.name, workload.name());
        }
        let traced = run_traced(&options(workload, true), &sizing, None);
        assert_eq!(reported(&traced), per_layer, "{}", workload.name());
        assert_eq!(traced.failed(), 0, "{:?}", traced.ops);
    }
}

#[test]
fn every_phase_that_runs_reports_self_time_and_calls() {
    let sizing = Sizing::tiny();
    let contested = run_traced(&options(Workload::Contested, true), &sizing, None);
    for phase in perfbench::drive::PHASES {
        let calls = contested.metric(&format!("{phase}.calls")).unwrap();
        assert!(calls > 0.0, "{phase} never ran on contested");
        assert!(contested.metric(&format!("{phase}.self_s")).unwrap() > 0.0);
    }
    for counter in [
        "download.grants_lost",
        "churn.joins",
        "adversary.forced_steps",
    ] {
        assert!(contested.metric(counter).unwrap() > 0.0, "{counter}");
    }
    let scale = run_traced(&options(Workload::Scale, true), &sizing, None);
    assert!(scale.metric("sharing.speedup_2t").unwrap() > 0.0);
    assert_eq!(scale.metric("propagation.calls"), Some(0.0));
}

#[test]
fn a_wrong_pinned_digest_fails_one_operation_and_the_run_continues() {
    let sizing = Sizing::tiny();
    let plan = plan(Workload::PaperMix, 7, &sizing, None);
    let honest = run_pass(
        &mut perfbench::drive::Plain::default(),
        &plan,
        None,
        &mut || {},
    );
    let mut pins: Pins = honest
        .iter()
        .filter_map(|op| op.digest.map(|d| (op.label.clone(), d)))
        .collect();
    assert_eq!(pins.len(), sizing.paper_cells);
    let victim = pins.keys().nth(1).unwrap().clone();
    *pins.get_mut(&victim).unwrap() ^= 1;
    let checked = run_pass(
        &mut perfbench::drive::Plain::default(),
        &plan,
        Some(&pins),
        &mut || {},
    );
    assert_eq!(checked.len(), honest.len(), "every operation still ran");
    let failed: Vec<&str> = checked
        .iter()
        .filter(|op| op.error.is_some())
        .map(|op| op.label.as_str())
        .collect();
    assert_eq!(failed, vec![victim.as_str()]);
}

#[test]
fn traced_and_untraced_replays_yield_equal_digests() {
    let sizing = Sizing::tiny();
    for workload in Workload::ALL {
        let untraced = run_untraced(&options(workload, false), &sizing, None);
        let traced = run_traced(&options(workload, true), &sizing, None);
        let (a, b) = (digests(&untraced), digests(&traced));
        assert!(!a.is_empty());
        assert_eq!(a, b, "{}", workload.name());
    }
}

#[test]
fn a_checkpointed_cell_reports_what_a_straight_run_reports() {
    let sizing = Sizing::tiny();
    let plan = plan(Workload::PaperMix, 7, &sizing, None);
    let mut points = 0;
    let ops = run_pass(
        &mut perfbench::drive::Plain::default(),
        &plan,
        None,
        &mut || points += 1,
    );
    assert_eq!(points, sizing.paper_cells, "once after every cell");
    for text in plan.spec_texts() {
        let spec = collabsim::ScenarioSpec::parse(text).unwrap();
        let report = collabsim::Simulation::from_spec(&spec).unwrap().run();
        let op = ops.iter().find(|op| op.label == spec.label()).unwrap();
        assert_eq!(op.digest, Some(perfbench::checks::report_digest(&report)));
    }
}
