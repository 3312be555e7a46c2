//! Property and integration tests of the adversary subsystem:
//!
//! * **Inertness** — a spec whose pipeline contains the `adversary` phase
//!   but whose adversary list is empty is bit-identical to the pre-PR
//!   pipeline without the phase, for arbitrary configurations.
//! * **Round trip** — specs carrying arbitrary `AdversarySpec` lists
//!   survive the text-format build → serialize → parse → build round trip
//!   exactly.
//! * **Effectiveness** — the adaptive whitewasher demonstrably beats the
//!   naive stochastic whitewasher (higher reputation retained, fewer
//!   punishments) at a comparable reset volume.

use collabsim_workspace::collabsim::adversary::{AdversarySpec, AttackMetricsObserver};
use collabsim_workspace::collabsim::config::PhaseConfig;
use collabsim_workspace::collabsim::spec::ScenarioSpec;
use collabsim_workspace::collabsim::{BehaviorMix, IncentiveScheme, Simulation, SimulationConfig};
use proptest::prelude::*;

/// A short arbitrary configuration (no adversaries).
fn base_config(
    population: usize,
    mix_raw: (u32, u32, u32),
    scheme_kind: u32,
    seed: u64,
    edit_pct: u32,
) -> SimulationConfig {
    let (r, a, i) = mix_raw;
    let total = (r + a + i).max(1) as f64;
    let mix = BehaviorMix::new(
        f64::from(r) / total,
        f64::from(a) / total,
        (total - f64::from(r) - f64::from(a)) / total,
    );
    SimulationConfig {
        population,
        initial_articles: population / 2 + 2,
        phases: PhaseConfig {
            training_steps: 40,
            evaluation_steps: 20,
            ..Default::default()
        },
        edit_probability: f64::from(edit_pct % 101) / 100.0,
        mix,
        incentive: IncentiveScheme::ALL[scheme_kind as usize % 3],
        seed,
        ..Default::default()
    }
}

/// The five built-in strategy names, selectable by index.
const STRATEGIES: [&str; 5] = [
    "adaptive-whitewash",
    "naive-whitewash",
    "collusion-ring",
    "oscillating-freerider",
    "sybil-slander",
];

proptest! {
    /// (a) A spec with an **empty adversary list** whose phase order
    /// explicitly includes the `adversary` phase is bit-identical to the
    /// pre-PR pipeline (no adversary phase at all) — the phase is provably
    /// inert without configured units.
    #[test]
    fn empty_adversary_list_is_bit_identical_to_the_prepr_pipeline(
        population in 8usize..20,
        mix_raw in (0u32..5, 0u32..5, 1u32..5),
        scheme_kind in 0u32..3,
        seed in 0u64..1_000_000,
        edit_pct in 0u32..101,
    ) {
        let config = base_config(population, mix_raw, scheme_kind, seed, edit_pct);
        prop_assert!(config.adversaries.is_empty());
        let without_phase = Simulation::new(config.clone()).run();
        let spec = ScenarioSpec::builder()
            .configure(|c| *c = config)
            .phase_order([
                "adversary",
                "selection",
                "sharing",
                "download",
                "edit-vote",
                "utility",
                "learning",
            ])
            .build()
            .expect("generated specs are valid");
        let with_phase = Simulation::from_spec(&spec).expect("resolves").run();
        prop_assert_eq!(without_phase, with_phase, "empty adversary phase must be inert");
    }

    /// (b) Specs carrying arbitrary adversary lists survive the
    /// build → serialize → parse → build round trip exactly (spec equality
    /// covers strategy names, counts and parameters bit-for-bit).
    #[test]
    fn adversary_specs_survive_the_text_round_trip(
        population in 12usize..24,
        seed in 0u64..1_000_000,
        picks in proptest::collection::vec((0u32..5, 1usize..3, 0u32..3), 0..4),
    ) {
        let mut builder = ScenarioSpec::builder()
            .label(format!("adversary-prop/{seed}"))
            .population(population)
            .seed(seed)
            .phase_config(PhaseConfig {
                training_steps: 30,
                evaluation_steps: 20,
                ..Default::default()
            });
        let mut claimed = 0usize;
        for (strategy, count, param_kind) in &picks {
            // Keep at least two honest peers so the spec stays valid.
            if claimed + count + 2 > population {
                continue;
            }
            claimed += count;
            // Parameters are strategy-specific (probability, period, rejoin
            // delay), so draw from each strategy's valid pool.
            let name = STRATEGIES[*strategy as usize];
            let parameter = match (name, param_kind) {
                (_, 0) => 0.0,
                ("naive-whitewash", 1) => 0.05,
                ("naive-whitewash", _) => 0.25,
                ("oscillating-freerider", 1) => 24.0,
                ("oscillating-freerider", _) => 80.0,
                (_, 1) => 3.0,
                (_, _) => 40.0,
            };
            builder = builder.adversary(AdversarySpec::new(name, *count).with_parameter(parameter));
        }
        let spec = builder.build().expect("generated adversary specs are valid");
        let text = spec.to_text();
        let parsed = ScenarioSpec::parse(&text).expect("rendered specs parse back");
        prop_assert_eq!(&parsed, &spec, "adversary round trip drifted");
        let expects_phase = !spec.config().adversaries.is_empty();
        prop_assert_eq!(
            parsed.phases().iter().any(|p| p == "adversary"),
            expects_phase,
            "adversary phase presence must follow the parsed unit list"
        );
        // Round-tripped specs must also *build* (names resolve, parameters
        // validate against the standard registry).
        Simulation::from_spec(&parsed).expect("parsed adversary specs build");
    }
}

/// The acceptance comparison: at a comparable reset volume the adaptive
/// whitewasher retains more reputation than the naive stochastic
/// whitewasher, because it resets *only* when punishment is about to bite
/// (and therefore never sits out a punishment's reputation reset and
/// rights lockout).
#[test]
fn adaptive_whitewash_beats_naive_stochastic_whitewash() {
    let run = |strategy: &str, parameter: f64| {
        let spec = ScenarioSpec::builder()
            .label(format!("duel/{strategy}"))
            .population(40)
            .initial_articles(20)
            .mix(BehaviorMix::new(0.3, 0.5, 0.2))
            .phase_config(PhaseConfig {
                training_steps: 600,
                evaluation_steps: 400,
                ..Default::default()
            })
            .seed(0xD0E1)
            .adversary(AdversarySpec::new(strategy, 5).with_parameter(parameter))
            .build()
            .expect("duel specs are valid");
        let mut sim = Simulation::from_spec(&spec).expect("resolves");
        sim.add_observer(AttackMetricsObserver::new());
        sim.run();
        let stats = *sim.world().adversaries.units()[0].stats();
        let observer: &AttackMetricsObserver = sim.observer(0).expect("attached");
        let metrics = observer.metrics()[0].clone();
        (stats, metrics)
    };

    let (adaptive_stats, adaptive) = run("adaptive-whitewash", 0.0);
    let (naive_stats, naive) = run("naive-whitewash", 0.02);

    assert!(
        adaptive_stats.resets > 0,
        "adaptive must actually whitewash"
    );
    assert!(naive_stats.resets > 0, "naive must actually whitewash");
    assert!(
        adaptive.mean_reputation_retained() > naive.mean_reputation_retained(),
        "adaptive timing must retain more reputation: {} vs {}",
        adaptive.mean_reputation_retained(),
        naive.mean_reputation_retained()
    );
    assert!(
        adaptive.edit_revocations < naive.edit_revocations,
        "adaptive must dodge the malicious-editor punishment the naive whitewasher suffers: \
         {} vs {}",
        adaptive.edit_revocations,
        naive.edit_revocations
    );
}

/// The timed-whitewash path: with a re-entry delay the adaptive strategy
/// departs after each whitewash and returns through the
/// [`ReentrySchedule`](collabsim_workspace::collabsim::netsim::churn::ReentrySchedule).
#[test]
fn timed_whitewash_departs_and_reenters_on_schedule() {
    let spec = ScenarioSpec::builder()
        .population(24)
        .initial_articles(12)
        .mix(BehaviorMix::new(0.3, 0.5, 0.2))
        .phase_config(PhaseConfig {
            training_steps: 400,
            evaluation_steps: 200,
            ..Default::default()
        })
        .seed(0x71E0)
        .adversary(AdversarySpec::new("adaptive-whitewash", 3).with_parameter(4.0))
        .build()
        .unwrap();
    let mut sim = Simulation::from_spec(&spec).unwrap();
    sim.run();
    let stats = *sim.world().adversaries.units()[0].stats();
    assert!(stats.resets > 0, "whitewashes happen");
    assert!(stats.departures > 0, "each whitewash departs");
    assert!(stats.rejoins > 0, "scheduled re-entries fire");
    // Everyone is back online at the end or still within a 4-step cooldown.
    assert!(sim.world().peers.online().count() >= sim.world().population() - 3);
}

/// Collusion must measurably help: the same vandal behaviour gets more
/// destructive edits accepted *with* ring cross-voting than without it.
/// The lone-wolf control is a custom strategy registered through the
/// [`AdversaryRegistry`] — which also exercises the documented
/// custom-strategy path end to end (register + spec + run, zero engine
/// edits).
#[test]
fn collusion_ring_amplifies_destructive_acceptance() {
    use collabsim_workspace::collabsim::adversary::{
        AdversaryAction, AdversaryRegistry, AdversaryStrategy,
    };
    use collabsim_workspace::collabsim::netsim::peer::PeerId;
    use collabsim_workspace::collabsim::pipeline::PhaseRegistry;
    use collabsim_workspace::collabsim::{CollabAction, EditBehavior, ShareLevel, WorldView};

    /// The ring's exact forced action, but *without* any voting (the
    /// [`Silent`](collabsim_workspace::collabsim::adversary::VotePolicy)
    /// policy) — isolating the cross-vote override as the only difference.
    struct LoneVandal;
    impl AdversaryStrategy for LoneVandal {
        fn name(&self) -> &'static str {
            "lone-vandal"
        }
        fn vote_policy(&self) -> collabsim_workspace::collabsim::adversary::VotePolicy {
            collabsim_workspace::collabsim::adversary::VotePolicy::Silent
        }
        fn on_step(
            &mut self,
            peers: &[PeerId],
            view: WorldView<'_>,
            _rng: &mut rand::rngs::StdRng,
            actions: &mut Vec<AdversaryAction>,
        ) {
            for &peer in peers {
                if view.world().peers.peer(peer).online {
                    actions.push(AdversaryAction::Act {
                        peer,
                        action: CollabAction {
                            bandwidth: ShareLevel::Full,
                            articles: ShareLevel::Full,
                            edit: EditBehavior::Destructive,
                        },
                    });
                }
            }
        }
    }

    let mut registry = AdversaryRegistry::standard();
    registry.register("lone-vandal", |_, _| Ok(Box::new(LoneVandal)));

    let run = |strategy: &str, registry: &AdversaryRegistry| {
        let spec = ScenarioSpec::builder()
            .population(24)
            .initial_articles(12)
            .mix(BehaviorMix::new(0.3, 0.4, 0.3))
            .phase_config(PhaseConfig {
                training_steps: 500,
                evaluation_steps: 500,
                ..Default::default()
            })
            .seed(0x0516)
            .adversary(AdversarySpec::new(strategy, 6))
            .build()
            .unwrap();
        let mut sim =
            Simulation::from_spec_with_registries(&spec, &PhaseRegistry::standard(), registry)
                .unwrap();
        sim.add_observer(AttackMetricsObserver::new());
        sim.run();
        let observer: &AttackMetricsObserver = sim.observer(0).unwrap();
        observer.metrics()[0].clone()
    };

    let ring = run("collusion-ring", &registry);
    let lone = run("lone-vandal", &registry);
    assert!(
        ring.destructive_accepted > lone.destructive_accepted,
        "cross-voting must amplify destructive acceptance: ring {} vs lone {}",
        ring.destructive_accepted,
        lone.destructive_accepted
    );
    assert!(
        ring.edit_revocations < lone.edit_revocations,
        "the ring's accepted edits must shield it from the malicious-editor punishment \
         the voteless vandal accumulates: ring {} vs lone {}",
        ring.edit_revocations,
        lone.edit_revocations
    );
}

/// An *untrained* frozen learner (α = 0, all-zero Q-table) must be
/// perfectly inert: greedy ties break towards action 0 — "lurk", which
/// emits nothing — and a frozen policy draws nothing from the adversary
/// RNG stream, so attaching the unit to the golden configuration cannot
/// move the pinned report by a single bit.
#[test]
fn untrained_frozen_learner_leaves_the_golden_report_untouched() {
    let golden = SimulationConfig {
        population: 20,
        initial_articles: 10,
        phases: PhaseConfig {
            training_steps: 120,
            evaluation_steps: 80,
            ..Default::default()
        },
        mix: BehaviorMix::new(0.5, 0.25, 0.25),
        incentive: IncentiveScheme::ReputationBased,
        seed: 0xC0FFEE,
        ..Default::default()
    };

    let baseline = format!("{:?}", Simulation::new(golden.clone()).run());

    let mut with_learner = golden;
    with_learner.adversaries = vec![AdversarySpec::new("learning", 3).with_parameter(0.0)];
    let spec = ScenarioSpec::from_config(with_learner).expect("golden + learner validates");
    let report = format!(
        "{:?}",
        Simulation::from_spec(&spec).expect("resolves").run()
    );
    assert_eq!(
        report, baseline,
        "an untrained frozen learner must leave the golden report untouched"
    );
}

/// A *trained* frozen learner replays bit-identically regardless of the
/// intra-step worker count: train once, inject the Q-table into an α = 0
/// evaluation fork, and the greedy replay at 1, 3 and 4 intra-step
/// threads must produce byte-identical reports (the learning adversary
/// lives on the deterministic adversary RNG stream and a frozen policy
/// draws from it not at all).
#[test]
fn frozen_learner_replay_is_bit_identical_across_thread_counts() {
    let base_config = SimulationConfig {
        population: 28,
        initial_articles: 14,
        phases: PhaseConfig {
            training_steps: 90,
            evaluation_steps: 60,
            ..Default::default()
        },
        mix: BehaviorMix::new(0.5, 0.3, 0.2),
        incentive: IncentiveScheme::ReputationBased,
        seed: 0x1EA21,
        ..Default::default()
    };

    // Equilibrate the adversary-free base and train a learner from it.
    let base = ScenarioSpec::from_config(base_config.clone()).expect("base validates");
    let mut sim = Simulation::from_spec(&base).expect("base resolves");
    sim.run_training();
    let checkpoint = sim.snapshot(&base);

    let mut train_config = base_config.clone();
    train_config.adversaries = vec![AdversarySpec::new("learning", 4).with_parameter(0.25)];
    let train_spec = ScenarioSpec::from_config(train_config)
        .expect("training config validates")
        .with_label("threads/train");
    let mut trainer =
        Simulation::resume_from(&checkpoint.with_spec(&train_spec)).expect("fork resumes");
    trainer.finish();
    let policies = trainer.world().adversaries.export_policies();
    let lead = policies[0].as_ref().expect("learner exports a policy");
    assert!(lead.updates > 0, "training must fill the Q-table");

    let mut reports = Vec::new();
    for threads in [1usize, 3, 4] {
        let mut frozen_config = SimulationConfig {
            intra_step_threads: threads,
            ..base_config.clone()
        };
        frozen_config.adversaries = vec![AdversarySpec::new("learning", 4).with_parameter(0.0)];
        let frozen_spec = ScenarioSpec::from_config(frozen_config)
            .expect("frozen config validates")
            .with_label("threads/frozen");
        let mut fork = checkpoint.with_spec(&frozen_spec);
        fork.state.adversary_policies = policies.clone();
        let mut replay = Simulation::resume_from(&fork).expect("frozen fork resumes");
        reports.push(format!("{:?}", replay.finish()));
    }
    assert_eq!(
        reports[0], reports[1],
        "1 vs 3 intra-step threads must match"
    );
    assert_eq!(
        reports[0], reports[2],
        "1 vs 4 intra-step threads must match"
    );
}
