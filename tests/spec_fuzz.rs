//! Scenario-spec fuzzer: random `ScenarioSpec`s run under the invariant
//! observers of `collabsim::invariants`.
//!
//! Each case samples a full scenario (population × behaviour mix × churn ×
//! adversary × network model × incentive scheme), builds it through the
//! validating [`ScenarioSpec`] builder path, runs it with all four
//! invariant observers attached and fails if any observer records a
//! violation. The offline `proptest` stand-in has no shrinking, so a
//! hand-rolled greedy shrinker reduces a failing scenario (fewer peers,
//! fewer steps, no churn/adversary/faults, simplest mix) while the
//! violation reproduces, and the panic message carries the *minimal* spec
//! text for replay.
//!
//! Case count follows `PROPTEST_CASES` (default 64), matching the stub.
//!
//! Every generated spec must also read back from its own text form
//! (`parse(to_text(s)) == s`).
//!
//! The snapshot subsystem rides the same generator: a mid-run checkpoint
//! hop (checkpoint → resume → finish) must reproduce the uninterrupted
//! report byte-for-byte on arbitrary scenarios, and both [`RunStore`]
//! backends must round-trip arbitrary mid-run snapshots bitwise.

use collabsim_workspace::collabsim::invariants::{
    ActiveSetObserver, ArenaBoundObserver, ConservationObserver, ReputationBoundsObserver,
};
use collabsim_workspace::collabsim::netsim::churn::ChurnModel;
use collabsim_workspace::collabsim::netsim::fault::LinkModel;
use collabsim_workspace::collabsim::spec::ScenarioSpec;
use collabsim_workspace::collabsim::{
    AdversarySpec, BehaviorMix, DirStore, IncentiveScheme, MemStore, PhaseConfig, RunStore,
    Simulation, Snapshot, StepContext, StepObserver, WorldView,
};
use proptest::{case_count, seed_for, Strategy};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One sampled scenario, kept as plain parameters so the shrinker can
/// produce smaller neighbours without re-parsing spec text.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FuzzParams {
    population: usize,
    /// Index into [`MIXES`].
    mix: usize,
    /// Index into [`IncentiveScheme::ALL`].
    incentive: usize,
    training_steps: u64,
    evaluation_steps: u64,
    churn_leave: f64,
    churn_join: f64,
    churn_whitewash: f64,
    /// 0 = no adversary, 1.. = index + 1 into [`ADVERSARIES`].
    adversary: usize,
    /// 0 = ideal, 1.. = one of the four non-ideal link models.
    network: usize,
    loss: f64,
    latency: u64,
    seed: u64,
}

/// Exact binary fractions, so every mix sums to 1.0 with no float slop.
const MIXES: [(f64, f64, f64); 5] = [
    (1.0, 0.0, 0.0),
    (0.5, 0.5, 0.0),
    (0.5, 0.25, 0.25),
    (0.75, 0.125, 0.125),
    (0.25, 0.5, 0.25),
];

const ADVERSARIES: [&str; 5] = [
    "collusion-ring",
    "naive-whitewash",
    "adaptive-whitewash",
    "oscillating-freerider",
    "learning",
];

impl FuzzParams {
    fn network_model(&self) -> LinkModel {
        match self.network {
            0 => LinkModel::Ideal,
            1 => LinkModel::UniformLatency {
                min: 1,
                max: 1 + self.latency,
            },
            2 => LinkModel::LognormalLatency {
                mu: 0.5 + self.loss,
                sigma: 0.6,
            },
            3 => LinkModel::IidLoss { loss: self.loss },
            _ => LinkModel::TwoClusters {
                loss: self.loss,
                penalty: 1 + self.latency,
            },
        }
    }

    fn spec(&self) -> ScenarioSpec {
        let (r, a, i) = MIXES[self.mix % MIXES.len()];
        let mut builder = ScenarioSpec::builder()
            .label(format!("fuzz-{}", self.seed))
            .population(self.population)
            .mix(BehaviorMix::new(r, a, i))
            .incentive(IncentiveScheme::ALL[self.incentive % IncentiveScheme::ALL.len()])
            .phase_config(PhaseConfig {
                training_steps: self.training_steps,
                evaluation_steps: self.evaluation_steps,
                ..Default::default()
            })
            .initial_articles(self.population / 2)
            .churn(ChurnModel {
                join_probability: self.churn_join,
                leave_probability: self.churn_leave,
                whitewash_probability: self.churn_whitewash,
            })
            .network(self.network_model())
            .seed(self.seed);
        if self.adversary > 0 {
            let strategy = ADVERSARIES[(self.adversary - 1) % ADVERSARIES.len()];
            // The learning adversary's parameter is its learning rate —
            // give it a non-zero α so the fuzz actually exercises
            // Q-updates and Boltzmann draws, not the inert frozen path.
            let unit = if strategy == "learning" {
                AdversarySpec::new(strategy, 2).with_parameter(0.3)
            } else {
                AdversarySpec::new(strategy, 2)
            };
            builder = builder.adversary(unit);
        }
        let spec = builder
            .build()
            .unwrap_or_else(|e| panic!("generated params must validate: {e} ({self:?})"));
        // Every generated spec, adversaries and networks included,
        // survives the text form exactly.
        assert_eq!(ScenarioSpec::parse(&spec.to_text()).as_ref(), Ok(&spec));
        spec
    }

    /// Candidate smaller neighbours, most aggressive first.
    fn shrink_candidates(&self) -> Vec<FuzzParams> {
        let mut out = Vec::new();
        if self.population > 6 {
            out.push(FuzzParams {
                population: (self.population / 2).max(6),
                ..*self
            });
        }
        if self.training_steps > 10 {
            out.push(FuzzParams {
                training_steps: (self.training_steps / 2).max(10),
                ..*self
            });
        }
        if self.evaluation_steps > 10 {
            out.push(FuzzParams {
                evaluation_steps: (self.evaluation_steps / 2).max(10),
                ..*self
            });
        }
        if self.churn_leave > 0.0 || self.churn_join > 0.0 || self.churn_whitewash > 0.0 {
            out.push(FuzzParams {
                churn_leave: 0.0,
                churn_join: 0.0,
                churn_whitewash: 0.0,
                ..*self
            });
        }
        if self.adversary > 0 {
            out.push(FuzzParams {
                adversary: 0,
                ..*self
            });
        }
        if self.network > 0 {
            out.push(FuzzParams {
                network: 0,
                ..*self
            });
        }
        if self.mix != 0 {
            out.push(FuzzParams { mix: 0, ..*self });
        }
        if self.incentive != 0 {
            out.push(FuzzParams {
                incentive: 0,
                ..*self
            });
        }
        out
    }
}

/// Samples one scenario from the stub's range strategies.
fn sample_params(rng: &mut StdRng) -> FuzzParams {
    // Tuple strategies cap at five elements, so the thirteen dimensions
    // sample as three tuples.
    let (population, mix, incentive, training_steps, evaluation_steps) =
        (6usize..40, 0usize..5, 0usize..3, 10u64..40, 10u64..30).sample(rng);
    let (churn_leave, churn_join, churn_whitewash, adversary, network) = (
        0.0f64..0.03,
        0.0f64..0.03,
        0.0f64..0.01,
        0usize..5,
        0usize..5,
    )
        .sample(rng);
    let (loss, latency, seed) = (0.01f64..0.3, 1u64..6, 0u64..u64::MAX).sample(rng);
    FuzzParams {
        population,
        mix,
        incentive,
        training_steps,
        evaluation_steps,
        churn_leave,
        churn_join,
        churn_whitewash,
        adversary,
        network,
        loss,
        latency,
        seed,
    }
}

/// A deliberately broken invariant — "no peer's sharing reputation may
/// exceed `min_reputation`" — which every healthy run violates as soon as
/// any peer earns reputation. Used to prove the fuzzer + shrinker actually
/// catch and reduce a violation.
#[derive(Debug, Default)]
struct BrokenInvariantObserver {
    violations: Vec<String>,
}

impl StepObserver for BrokenInvariantObserver {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_step_end(&mut self, world: WorldView<'_>, _ctx: &StepContext) {
        if !self.violations.is_empty() {
            return;
        }
        let min = world.world().config.min_reputation;
        for peer in 0..world.population() {
            if world.sharing_reputation(peer) > min + 1e-6 {
                self.violations.push(format!(
                    "step {}: peer {peer} exceeds the (deliberately broken) bound",
                    world.now()
                ));
                return;
            }
        }
    }
}

/// Runs a scenario under the four invariant observers (plus, optionally,
/// the deliberately broken one) and returns every recorded violation.
fn violations(params: &FuzzParams, with_broken: bool) -> Vec<String> {
    let spec = params.spec();
    let mut sim = Simulation::from_spec(&spec).expect("validated spec builds");
    sim.add_observer(ReputationBoundsObserver::new());
    sim.add_observer(ConservationObserver::new());
    sim.add_observer(ArenaBoundObserver::new());
    sim.add_observer(ActiveSetObserver::new());
    if with_broken {
        sim.add_observer(BrokenInvariantObserver::default());
    }
    sim.run();
    let mut all = Vec::new();
    all.extend_from_slice(
        sim.observer::<ReputationBoundsObserver>(0)
            .expect("attached")
            .violations(),
    );
    all.extend_from_slice(
        sim.observer::<ConservationObserver>(1)
            .expect("attached")
            .violations(),
    );
    all.extend_from_slice(
        sim.observer::<ArenaBoundObserver>(2)
            .expect("attached")
            .violations(),
    );
    all.extend_from_slice(
        sim.observer::<ActiveSetObserver>(3)
            .expect("attached")
            .violations(),
    );
    if with_broken {
        all.extend_from_slice(
            &sim.observer::<BrokenInvariantObserver>(4)
                .expect("attached")
                .violations,
        );
    }
    all
}

/// Greedy shrink: repeatedly accept the first smaller neighbour that still
/// violates, until none does.
fn shrink(mut params: FuzzParams, with_broken: bool) -> FuzzParams {
    loop {
        let next = params
            .shrink_candidates()
            .into_iter()
            .find(|candidate| !violations(candidate, with_broken).is_empty());
        match next {
            Some(candidate) => params = candidate,
            None => return params,
        }
    }
}

#[test]
fn generated_scenarios_uphold_all_invariants() {
    let mut rng = StdRng::seed_from_u64(seed_for("generated_scenarios_uphold_all_invariants"));
    for case in 0..case_count() {
        let params = sample_params(&mut rng);
        let found = violations(&params, false);
        if !found.is_empty() {
            let minimal = shrink(params, false);
            panic!(
                "case {case}: invariant violation {found:?}\n\
                 minimal reproducing spec:\n{}",
                minimal.spec().to_text()
            );
        }
    }
}

/// Snapshot/restore invariant over fuzzed scenarios: a run that takes a
/// mid-run checkpoint hop — checkpoint to a store, throw the simulation
/// away, resume from a mid-run key and finish — must produce a report
/// byte-identical to the uninterrupted run, for arbitrary populations,
/// mixes, churn, adversaries and fault models. Capped below the full case
/// count because every case pays three runs.
#[test]
fn snapshot_hop_mid_run_preserves_the_report() {
    let mut rng = StdRng::seed_from_u64(seed_for("snapshot_hop_mid_run_preserves_the_report"));
    for case in 0..case_count().min(16) {
        let params = sample_params(&mut rng);
        let spec = params.spec();
        let straight = format!(
            "{:?}",
            Simulation::from_spec(&spec)
                .expect("validated spec builds")
                .run()
        );

        let every = (params.training_steps / 3).max(1);
        let mut store = MemStore::new();
        let mut sim = Simulation::from_spec(&spec).expect("validated spec builds");
        let (checkpointed, keys) = sim
            .run_with_checkpoints(&spec, every, &mut store)
            .expect("checkpointing succeeds");
        assert_eq!(
            format!("{checkpointed:?}"),
            straight,
            "case {case}: checkpointing perturbed the run\n{}",
            spec.to_text()
        );
        assert!(!keys.is_empty(), "case {case}: no checkpoints written");

        let hop_key = &keys[keys.len() / 2];
        let snapshot = store.get(hop_key).expect("stored checkpoint reads back");
        let mut resumed = Simulation::resume_from(&snapshot).expect("checkpoint resumes");
        assert_eq!(
            format!("{:?}", resumed.finish()),
            straight,
            "case {case}: resume from `{hop_key}` drifted\n{}",
            spec.to_text()
        );
    }
}

/// Learned Q-tables survive the snapshot codec bitwise: a mid-run
/// snapshot of a training learner re-encodes to identical bytes, the
/// decoded policy state equals the captured one exactly (f64 bit
/// patterns included), and a simulation restored from the decoded
/// snapshot exports the very same policies.
#[test]
fn learned_q_tables_round_trip_the_snapshot_codec() {
    let mut rng = StdRng::seed_from_u64(seed_for("learned_q_tables_round_trip_the_snapshot_codec"));
    for case in 0..case_count().min(16) {
        let (population, adversaries, steps, seed) =
            (10usize..32, 1usize..4, 8u64..40, 0u64..u64::MAX).sample(&mut rng);
        let alpha = (0.05f64..0.6).sample(&mut rng);
        let spec = ScenarioSpec::builder()
            .label(format!("qfuzz/{case}"))
            .population(population)
            .initial_articles(population / 2)
            .phase_config(PhaseConfig {
                training_steps: 60,
                evaluation_steps: 30,
                ..Default::default()
            })
            .seed(seed)
            .adversary(AdversarySpec::new("learning", adversaries).with_parameter(alpha))
            .build()
            .expect("qfuzz specs are valid");
        let mut sim = Simulation::from_spec(&spec).expect("learning spec resolves");
        // An arbitrary mid-run position, so trajectories are in flight.
        for _ in 0..steps {
            sim.step(spec.config().phases.training_temperature);
        }
        let snapshot = sim.snapshot(&spec);
        assert!(
            snapshot.state.adversary_policies[0].is_some(),
            "case {case}: the learning unit must export a policy"
        );
        let bytes = snapshot.encode();
        let decoded = Snapshot::decode(&bytes).expect("snapshot decodes");
        assert_eq!(
            decoded.encode(),
            bytes,
            "case {case}: re-encode is not bitwise"
        );
        assert_eq!(
            decoded.state.adversary_policies, snapshot.state.adversary_policies,
            "case {case}: decoded policy state drifted"
        );
        let resumed = Simulation::resume_from(&decoded).expect("decoded snapshot resumes");
        assert_eq!(
            resumed.world().adversaries.export_policies(),
            snapshot.state.adversary_policies,
            "case {case}: restore → export drifted"
        );
    }
}

/// Both [`RunStore`] backends must round-trip arbitrary mid-run snapshots
/// bitwise: the bytes read back decode to a snapshot that re-encodes to
/// exactly the bytes stored.
#[test]
fn run_stores_round_trip_arbitrary_snapshots_bitwise() {
    let dir = std::env::temp_dir().join(format!("collabsim-fuzz-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = StdRng::seed_from_u64(seed_for(
        "run_stores_round_trip_arbitrary_snapshots_bitwise",
    ));
    let mut mem = MemStore::new();
    let mut disk = DirStore::open(&dir).expect("temp store opens");
    for case in 0..case_count().min(16) {
        let params = sample_params(&mut rng);
        let spec = params.spec();
        let mut sim = Simulation::from_spec(&spec).expect("validated spec builds");
        // An arbitrary mid-run position, not just a phase boundary.
        for _ in 0..(params.seed % params.training_steps).max(1) {
            sim.step(spec.config().phases.training_temperature);
        }
        let snapshot = sim.snapshot(&spec);
        let reference = snapshot.encode();
        for (name, store) in [
            ("MemStore", &mut mem as &mut dyn RunStore),
            ("DirStore", &mut disk as &mut dyn RunStore),
        ] {
            let key = store.put(&snapshot).expect("store accepts the snapshot");
            let fetched = store.get(&key).expect("stored snapshot reads back");
            assert_eq!(
                fetched.encode(),
                reference,
                "case {case}: {name} round-trip is not bitwise\n{}",
                spec.to_text()
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn broken_invariant_is_caught_and_shrunk() {
    let mut rng = StdRng::seed_from_u64(seed_for("broken_invariant_is_caught_and_shrunk"));
    // Find a case the broken invariant flags (the first healthy run where
    // anyone earns reputation — effectively immediately).
    let mut caught = None;
    for _ in 0..8 {
        let params = sample_params(&mut rng);
        if !violations(&params, true).is_empty() {
            caught = Some(params);
            break;
        }
    }
    let params = caught.expect("the broken invariant must trip within a few cases");
    let minimal = shrink(params, true);
    // The shrinker must strip every accident of the original sample: the
    // violation needs none of churn, adversaries, faults or a special mix.
    assert_eq!(minimal.churn_leave, 0.0);
    assert_eq!(minimal.churn_join, 0.0);
    assert_eq!(minimal.churn_whitewash, 0.0);
    assert_eq!(minimal.adversary, 0);
    assert_eq!(minimal.network, 0, "ideal network suffices to reproduce");
    assert_eq!(minimal.population, 6, "population shrinks to the floor");
    assert!(minimal.training_steps <= 10);
    assert!(minimal.evaluation_steps <= 10);
    // And the minimal spec still reproduces, i.e. it is a real counterexample.
    assert!(!violations(&minimal, true).is_empty());
}
