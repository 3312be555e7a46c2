//! Determinism and golden-report regression tests.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Seed determinism** — two simulations built from the same
//!    [`SimulationConfig`] produce bit-identical [`SimulationReport`]s, at
//!    any ledger shard and intra-step thread count.
//! 2. **Golden report** — one fixed configuration's report is pinned to the
//!    exact values produced by the pre-pipeline monolithic engine (recorded
//!    at the commit that first made the workspace build), so engine
//!    refactors that accidentally reorder RNG draws or phase effects fail
//!    loudly instead of silently shifting every figure.
//! 3. **Propagated trajectories** — one run per propagation backend with
//!    `reputation_source = propagated`, so the backend's output steers
//!    service differentiation; each pins the report and the last global
//!    reputation vector, recorded before the sparse propagation rewrite.
//! 4. **Article-store shapes** — a run whose article-store rows span three
//!    words, and a run without articles, where every download names the
//!    registry fallback's article 0. Both were recorded on the sorted-list
//!    store, before the bitset store replaced it.
//! 5. **Report codec** — the golden report survives the JSON codec that
//!    carries reports across processes.
//! 6. **Tit-for-tat allocation** — the golden configuration under the one
//!    policy that reads each downloader's upload history towards its
//!    source, recorded before the download phase stopped looking that
//!    history up for the other policies.
//! 7. **Faulty network** — the golden configuration on a two-cluster
//!    network whose inter-cluster links delay and lose grants, so every
//!    fault branch of the download phase runs (delayed and lost grants,
//!    retries, permanent failures, timeouts and reroutes). It pins the
//!    report and the network counters, recorded before the download phase
//!    fused its allocate and apply stages into one loop.

use collabsim_workspace::collabsim::adversary::AdversarySpec;
use collabsim_workspace::collabsim::json::Json;
use collabsim_workspace::collabsim::netsim::churn::ChurnModel;
use collabsim_workspace::collabsim::netsim::fault::LinkModel;
use collabsim_workspace::collabsim::netsim::peer::PeerId;
use collabsim_workspace::collabsim::reputation::propagation::PropagationScheme;
use collabsim_workspace::collabsim::spec::ScenarioSpec;
use collabsim_workspace::collabsim::{
    apply_defence, BehaviorMix, BehaviorType, IncentiveScheme, PhaseConfig, PropagationConfig,
    ReputationSource, Simulation, SimulationConfig, SimulationReport,
};

/// The pinned configuration behind the golden values below. Do not change
/// it — add a new pin instead if another scenario needs coverage.
fn golden_config() -> SimulationConfig {
    SimulationConfig {
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
    }
}

#[test]
fn same_seed_produces_identical_reports() {
    let a = Simulation::new(golden_config()).run();
    let b = Simulation::new(golden_config()).run();
    assert_eq!(a, b);
}

#[test]
fn golden_report_matches_pre_refactor_engine() {
    let report = Simulation::new(golden_config()).run();
    let debug = format!("{report:?}");
    assert_eq!(debug, GOLDEN_REPORT_DEBUG, "golden report drifted");
}

/// The JSON codec that carries reports across processes decodes the
/// golden report to a value with the identical `Debug` rendering, also
/// with a seed past 2⁵³.
#[test]
fn golden_report_round_trips_the_json_codec() {
    let golden = Simulation::new(golden_config()).run();
    let max_seed = SimulationReport {
        seed: u64::MAX,
        ..golden.clone()
    };
    for report in [golden, max_seed] {
        let text = report.to_json().to_string();
        let decoded =
            SimulationReport::from_json(&Json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(format!("{decoded:?}"), format!("{report:?}"), "{text}");
        assert_eq!(decoded, report);
    }
}

#[test]
fn golden_report_survives_the_scenario_spec_api() {
    // The pinned configuration expressed as a ScenarioSpec — including a
    // full text-serialization round trip — must reproduce the golden
    // report bit for bit: the declarative API is a new front door, not a
    // new engine.
    let spec = ScenarioSpec::from_config(golden_config()).expect("golden config is valid");
    let report = Simulation::from_spec(&spec)
        .expect("standard phases resolve")
        .run();
    assert_eq!(
        format!("{report:?}"),
        GOLDEN_REPORT_DEBUG,
        "spec path drifted"
    );

    let reparsed = ScenarioSpec::parse(&spec.to_text()).expect("rendered spec parses");
    let report = Simulation::from_spec(&reparsed)
        .expect("standard phases resolve")
        .run();
    assert_eq!(
        format!("{report:?}"),
        GOLDEN_REPORT_DEBUG,
        "text round trip drifted"
    );
}

#[test]
fn cli_golden_spec_is_the_golden_config() {
    // `scenarios/golden.spec` is generated from this constructor, so
    // pinning the constructor to `golden_config()` pins the checked-in
    // file (byte-equality is enforced by tests/scenario_files.rs) — and
    // therefore `collabsim run scenarios/golden.spec --print-report`
    // reproduces GOLDEN_REPORT_DEBUG.
    let spec = collabsim_workspace::cli::scenarios::golden_spec();
    assert_eq!(spec.config(), &golden_config(), "golden spec drifted");
    assert_eq!(spec.label(), "golden");
}

#[test]
fn golden_report_is_shard_and_thread_invariant() {
    // The pinned golden values must be reproduced regardless of how the
    // ledger is sharded and how many intra-step workers apply the
    // contribution deltas: sharding is a performance knob, never a
    // semantic one.
    for (shards, threads) in [(1, 1), (4, 2), (8, 8)] {
        let config = SimulationConfig {
            ledger_shards: shards,
            intra_step_threads: threads,
            ..golden_config()
        };
        let report = Simulation::new(config).run();
        let debug = format!("{report:?}");
        assert_eq!(
            debug, GOLDEN_REPORT_DEBUG,
            "report drifted with {shards} shards / {threads} threads"
        );
    }
}

#[test]
fn sharded_parallel_paper_configuration_matches_sequential() {
    // The paper configuration (100 peers, reduced phase lengths so the
    // test stays fast) run with a multi-shard ledger and multi-threaded
    // collect/apply stages must be bit-identical to the single-shard,
    // single-threaded run.
    let paper = SimulationConfig {
        phases: PhaseConfig {
            training_steps: 400,
            evaluation_steps: 200,
            ..Default::default()
        },
        mix: BehaviorMix::new(0.6, 0.2, 0.2),
        seed: 0xFACE,
        ..Default::default()
    };
    assert_eq!(paper.population, 100, "the paper's population");
    let sequential = Simulation::new(SimulationConfig {
        ledger_shards: 1,
        intra_step_threads: 1,
        ..paper.clone()
    })
    .run();
    let parallel = Simulation::new(SimulationConfig {
        ledger_shards: 16,
        intra_step_threads: 4,
        ..paper
    })
    .run();
    assert_eq!(sequential, parallel);
}

#[test]
fn behavior_breakdown_is_deterministic_too() {
    let a = Simulation::new(golden_config()).run();
    let b = Simulation::new(golden_config()).run();
    for behavior in BehaviorType::ALL {
        assert_eq!(a.breakdown(behavior), b.breakdown(behavior));
    }
}

/// The golden configuration under a propagated defence (`apply_defence`,
/// or MaxFlow set directly since no defence value names it), with churn
/// and an adaptive whitewasher so identities lose their upload relations
/// mid-run: several rounds see a peer nobody has uploaded to (a dangling
/// trust row). A 20-step interval gives 10 propagation rounds.
fn propagated_run(defence: &str) -> String {
    let mut config = golden_config();
    if defence == "maxflow" {
        config.propagation = PropagationConfig {
            scheme: Some(PropagationScheme::MaxFlow),
            interval: 20,
            pretrusted: 0,
        };
        config.reputation_source = ReputationSource::Propagated;
    } else {
        apply_defence(&mut config, defence).expect("known defence");
        config.propagation.interval = 20;
    }
    config.churn = ChurnModel {
        join_probability: 0.2,
        leave_probability: 0.02,
        whitewash_probability: 0.01,
    };
    config.adversaries = vec![AdversarySpec::new("adaptive-whitewash", 2)];
    let spec = ScenarioSpec::from_config(config).expect("propagated config is valid");
    let mut sim = Simulation::from_spec(&spec).expect("standard phases resolve");
    let report = sim.run();
    assert_eq!(sim.world().propagation_runs, 10, "{defence}");
    format!("{report:?}\n{:?}", sim.global_reputation())
}

#[test]
fn propagated_eigentrust_run_is_pinned() {
    assert_eq!(propagated_run("eigentrust"), PROPAGATED_EIGENTRUST);
}

#[test]
fn propagated_pretrusted_eigentrust_run_is_pinned() {
    assert_eq!(
        propagated_run("eigentrust-pretrusted=4"),
        PROPAGATED_EIGENTRUST_PRETRUSTED
    );
}

#[test]
fn propagated_gossip_run_is_pinned() {
    assert_eq!(propagated_run("gossip"), PROPAGATED_GOSSIP);
}

#[test]
fn propagated_maxflow_run_is_pinned() {
    assert_eq!(propagated_run("maxflow"), PROPAGATED_MAXFLOW);
}

/// The report of `config`'s run, and the replicas every peer holds at
/// its end.
fn store_run(config: SimulationConfig) -> (Simulation, String) {
    let population = config.population as u32;
    let spec = ScenarioSpec::from_config(config).expect("store config is valid");
    let mut sim = Simulation::from_spec(&spec).expect("standard phases resolve");
    let report = sim.run();
    let store = &sim.world().store;
    let held: usize = (0..population).map(|p| store.held_count(PeerId(p))).sum();
    let pinned = format!("{report:?}\nheld replicas: {held}");
    (sim, pinned)
}

/// 150 peers over 130 articles, so article-store rows span three words,
/// with unrestricted voters (149 eligible per edit, shuffled down to 10)
/// and churn. Peers hold up to ~50 articles, so offered prefixes end in
/// the second word as well as the first.
#[test]
fn multi_word_article_store_run_is_pinned() {
    let mut config = golden_config();
    config.population = 150;
    config.initial_articles = 130;
    config.restrict_voters_to_editors = false;
    config.churn = ChurnModel {
        join_probability: 0.2,
        leave_probability: 0.02,
        whitewash_probability: 0.01,
    };
    let (sim, pinned) = store_run(config);
    let store = &sim.world().store;
    let spanning = (0..150)
        .filter(|&p| {
            let mut words = store.offered_by(PeerId(p)).map(|a| a.index() / 64);
            let first = words.next();
            words.any(|w| Some(w) != first)
        })
        .count();
    assert!(spanning > 0, "no offered prefix crosses a word boundary");
    assert_eq!(pinned, MULTI_WORD_STORE);
}

/// The golden configuration without articles: downloads fall back to
/// article 0, which peers then hold and offer.
#[test]
fn zero_article_run_is_pinned() {
    let mut config = golden_config();
    config.initial_articles = 0;
    assert_eq!(store_run(config).1, ZERO_ARTICLES);
}

/// The golden configuration under tit-for-tat allocation. Tit-for-tat
/// differs from the no-incentive baseline only in how a source's bandwidth
/// is split, so a download phase that lost the upload history would make
/// the two reports equal.
#[test]
fn tit_for_tat_run_is_pinned() {
    let run = |scheme| {
        Simulation::new(SimulationConfig {
            incentive: scheme,
            ..golden_config()
        })
        .run()
    };
    let report = run(IncentiveScheme::TitForTat);
    assert_ne!(report, run(IncentiveScheme::None), "upload history unused");
    assert_eq!(format!("{report:?}"), TIT_FOR_TAT);
}

/// The golden configuration on a lossy, slow two-cluster network. Every
/// fault counter must move, or the pin would not cover its branch.
#[test]
fn faulty_network_run_is_pinned() {
    let config = SimulationConfig {
        network: LinkModel::TwoClusters {
            loss: 0.3,
            penalty: 12,
        },
        ..golden_config()
    };
    let mut sim = Simulation::new(config);
    let report = sim.run();
    let stats = &sim.world().net_stats;
    assert!(stats.grants_delayed > 0.0, "{stats:?}");
    assert!(stats.grants_lost > 0.0, "{stats:?}");
    assert!(stats.transfers_failed > 0, "{stats:?}");
    assert!(stats.transfers_timed_out > 0, "{stats:?}");
    assert!(stats.transfers_rerouted > 0, "{stats:?}");
    assert_eq!(format!("{report:?}\n{stats:?}"), FAULTY_NETWORK);
}

/// `format!("{report:?}\n{:?}", sim.world().net_stats)` of
/// [`faulty_network_run_is_pinned`]'s run.
const FAULTY_NETWORK: &str = "SimulationReport { shared_bandwidth: 0.51375, shared_articles: 0.501875, by_behavior: {\"altruistic\": BehaviorBreakdown { peers: 5, shared_bandwidth: 1.0, shared_articles: 1.0, downloaded: 0.14078559156011214, final_sharing_reputation: 0.8647787093973539, final_editing_reputation: 0.999999999975733, constructive_edits: 94, destructive_edits: 0, votes: 307, mean_utility: 1.192855915601121 }, \"irrational\": BehaviorBreakdown { peers: 5, shared_bandwidth: 0.0, shared_articles: 0.0, downloaded: 0.0453734947171663, final_sharing_reputation: 0.05000000000000001, final_editing_reputation: 0.05000000000000001, constructive_edits: 0, destructive_edits: 0, votes: 0, mean_utility: 0.45373494717166307 }, \"rational\": BehaviorBreakdown { peers: 10, shared_bandwidth: 0.5275, shared_articles: 0.50375, downloaded: 0.08176465140060248, final_sharing_reputation: 0.3427101485321812, final_editing_reputation: 0.47492684866328255, constructive_edits: 58, destructive_edits: 58, votes: 243, mean_utility: 0.5188965140060248 }}, edit_outcomes: EditOutcomeCounts { accepted_constructive: 148, accepted_destructive: 0, declined_constructive: 4, declined_destructive: 58, pending: 0 }, mean_article_quality: 0.9939964157706094, completed_downloads: 111, evaluation_steps: 80, seed: 12648430 }\nNetStats { grants_offered: 1273.5000000000014, grants_applied: 385.00130042461535, grants_lost: 50.46179474988347, grants_delayed: 838.0369048255009, transfers_failed: 16, transfers_timed_out: 9, transfers_rerouted: 30 }";

/// `format!("{report:?}")` of [`tit_for_tat_run_is_pinned`]'s run.
const TIT_FOR_TAT: &str = "SimulationReport { shared_bandwidth: 0.4675, shared_articles: 0.49, by_behavior: {\"altruistic\": BehaviorBreakdown { peers: 5, shared_bandwidth: 1.0, shared_articles: 1.0, downloaded: 0.5124154828569056, final_sharing_reputation: 0.8647787093973539, final_editing_reputation: 0.9999935309760826, constructive_edits: 77, destructive_edits: 0, votes: 321, mean_utility: 4.485404828569058 }, \"irrational\": BehaviorBreakdown { peers: 5, shared_bandwidth: 0.0, shared_articles: 0.0, downloaded: 0.16875, final_sharing_reputation: 0.05000000000000001, final_editing_reputation: 0.9999998795699853, constructive_edits: 0, destructive_edits: 77, votes: 313, mean_utility: 2.1587499999999995 }, \"rational\": BehaviorBreakdown { peers: 10, shared_bandwidth: 0.435, shared_articles: 0.48, downloaded: 0.3262922585715471, final_sharing_reputation: 0.29989299154003535, final_editing_reputation: 0.999466626352566, constructive_edits: 53, destructive_edits: 54, votes: 452, mean_utility: 3.158860085715471 }}, edit_outcomes: EditOutcomeCounts { accepted_constructive: 61, accepted_destructive: 78, declined_constructive: 69, declined_destructive: 53, pending: 0 }, mean_article_quality: 0.6831762349091334, completed_downloads: 421, evaluation_steps: 80, seed: 12648430 }";

/// `store_run`'s pinned string of the two article-store runs, recorded on
/// the sorted-list store.
const MULTI_WORD_STORE: &str = "SimulationReport { shared_bandwidth: 0.5838901262063846, shared_articles: 0.5616184112843355, by_behavior: {\"altruistic\": BehaviorBreakdown { peers: 38, shared_bandwidth: 1.0, shared_articles: 1.0, downloaded: 0.5127825342397889, final_sharing_reputation: 0.30729853980969096, final_editing_reputation: 0.05714114845394733, constructive_edits: 77, destructive_edits: 0, votes: 46, mean_utility: 4.2739893635619115 }, \"irrational\": BehaviorBreakdown { peers: 37, shared_bandwidth: 0.0, shared_articles: 0.0, downloaded: 0.18128481410905312, final_sharing_reputation: 0.05000000000000003, final_editing_reputation: 0.06066795235271027, constructive_edits: 0, destructive_edits: 0, votes: 35, mean_utility: 1.8490183538564893 }, \"rational\": BehaviorBreakdown { peers: 75, shared_bandwidth: 0.5565395095367848, shared_articles: 0.5156675749318801, downloaded: 0.3774744832993628, final_sharing_reputation: 0.22643041359513513, final_editing_reputation: 0.057121241854859096, constructive_edits: 41, destructive_edits: 63, votes: 60, mean_utility: 3.330943743075372 }}, edit_outcomes: EditOutcomeCounts { accepted_constructive: 34, accepted_destructive: 15, declined_constructive: 84, declined_destructive: 48, pending: 0 }, mean_article_quality: 0.7553793428793433, completed_downloads: 370, evaluation_steps: 80, seed: 12648430 }\nheld replicas: 2594";
const ZERO_ARTICLES: &str = "SimulationReport { shared_bandwidth: 0.4971875, shared_articles: 0.495, by_behavior: {\"altruistic\": BehaviorBreakdown { peers: 5, shared_bandwidth: 1.0, shared_articles: 1.0, downloaded: 0.48591609430389116, final_sharing_reputation: 0.8647787093973539, final_editing_reputation: 0.05000000000000001, constructive_edits: 0, destructive_edits: 0, votes: 0, mean_utility: 3.8591609430389138 }, \"irrational\": BehaviorBreakdown { peers: 5, shared_bandwidth: 0.0, shared_articles: 0.0, downloaded: 0.11781393148174558, final_sharing_reputation: 0.05000000000000001, final_editing_reputation: 0.05000000000000001, constructive_edits: 0, destructive_edits: 0, votes: 0, mean_utility: 1.178139314817456 }, \"rational\": BehaviorBreakdown { peers: 10, shared_bandwidth: 0.494375, shared_articles: 0.49, downloaded: 0.3625099871071816, final_sharing_reputation: 0.5813094167893122, final_editing_reputation: 0.05, constructive_edits: 0, destructive_edits: 0, votes: 0, mean_utility: 3.132912371071816 }}, edit_outcomes: EditOutcomeCounts { accepted_constructive: 0, accepted_destructive: 0, declined_constructive: 0, declined_destructive: 0, pending: 0 }, mean_article_quality: 1.0, completed_downloads: 391, evaluation_steps: 80, seed: 12648430 }\nheld replicas: 20";

/// `format!("{report:?}\n{:?}", sim.global_reputation())` of each
/// [`propagated_run`], recorded before the sparse propagation rewrite
/// (relation-built trust graph, CSR EigenTrust, early-exit gossip check).
const PROPAGATED_EIGENTRUST: &str = "SimulationReport { shared_bandwidth: 0.49748743718592964, shared_articles: 0.47738693467336685, by_behavior: {\"altruistic\": BehaviorBreakdown { peers: 5, shared_bandwidth: 0.9251336898395722, shared_articles: 0.9251336898395722, downloaded: 0.4360285141600521, final_sharing_reputation: 0.6022983392613477, final_editing_reputation: 0.23887845575130226, constructive_edits: 41, destructive_edits: 6, votes: 28, mean_utility: 3.551461612188756 }, \"irrational\": BehaviorBreakdown { peers: 5, shared_bandwidth: 0.0, shared_articles: 0.0, downloaded: 0.15326400526260126, final_sharing_reputation: 0.05000000000000001, final_editing_reputation: 0.42219697463025085, constructive_edits: 0, destructive_edits: 0, votes: 87, mean_utility: 1.6843741566722559 }, \"rational\": BehaviorBreakdown { peers: 10, shared_bandwidth: 0.5114678899082569, shared_articles: 0.47477064220183485, downloaded: 0.3427706306000924, final_sharing_reputation: 0.3466866595126155, final_editing_reputation: 0.1373254394595696, constructive_edits: 23, destructive_edits: 32, votes: 122, mean_utility: 3.124954012422941 }}, edit_outcomes: EditOutcomeCounts { accepted_constructive: 3, accepted_destructive: 32, declined_constructive: 61, declined_destructive: 6, pending: 0 }, mean_article_quality: 0.5253339447329217, completed_downloads: 186, evaluation_steps: 80, seed: 12648430 }\nSome(GlobalReputation { values: [0.04885421492612983, 0.0922897993078071, 0.02299063550442157, 0.004999999999999997, 0.02902852409052023, 0.005236842105263154, 0.031959807388639974, 0.005236842105263154, 0.0821243175337195, 0.18761478689793928, 0.09017275807981795, 0.005236842105263154, 0.11370530706649122, 0.11395403989344265, 0.029905611895475043, 0.005236842105263154, 0.06114200781279658, 0.005236842105263154, 0.05676543759253835, 0.008308541483944776], iterations: 25, converged: true })";
const PROPAGATED_EIGENTRUST_PRETRUSTED: &str = "SimulationReport { shared_bandwidth: 0.5131909547738693, shared_articles: 0.49874371859296485, by_behavior: {\"altruistic\": BehaviorBreakdown { peers: 5, shared_bandwidth: 0.9251336898395722, shared_articles: 0.9251336898395722, downloaded: 0.4191160646758068, final_sharing_reputation: 0.43934259738187686, final_editing_reputation: 0.24061765999800538, constructive_edits: 30, destructive_edits: 9, votes: 27, mean_utility: 3.390358507720635 }, \"irrational\": BehaviorBreakdown { peers: 5, shared_bandwidth: 0.0, shared_articles: 0.0, downloaded: 0.16701532554789178, final_sharing_reputation: 0.05000000000000001, final_editing_reputation: 0.6113966266085278, constructive_edits: 0, destructive_edits: 0, votes: 109, mean_utility: 1.8854711745540627 }, \"rational\": BehaviorBreakdown { peers: 10, shared_bandwidth: 0.5401376146788991, shared_articles: 0.5137614678899083, downloaded: 0.3319533132702726, final_sharing_reputation: 0.37790204097437796, final_editing_reputation: 0.340721060345759, constructive_edits: 32, destructive_edits: 43, votes: 136, mean_utility: 3.046597352886212 }}, edit_outcomes: EditOutcomeCounts { accepted_constructive: 2, accepted_destructive: 48, declined_constructive: 60, declined_destructive: 4, pending: 0 }, mean_article_quality: 0.521412676085851, completed_downloads: 185, evaluation_steps: 80, seed: 12648430 }\nSome(GlobalReputation { values: [0.11435305906687902, 0.09703672126351455, 0.03562534324316812, 0.024999999999999984, 0.03787694846816675, 0.0011842105263157887, 0.017458978853321643, 0.0011842105263157887, 0.06553859592009927, 0.13094280671962336, 0.06939624250659576, 0.0011842105263157887, 0.12412264121074996, 0.0723111601927011, 0.014004097625034191, 0.0011842105263157887, 0.09343056662219876, 0.0011842105263157887, 0.08818118949546316, 0.008800596180905439], iterations: 29, converged: true })";
const PROPAGATED_GOSSIP: &str = "SimulationReport { shared_bandwidth: 0.49183417085427134, shared_articles: 0.48932160804020103, by_behavior: {\"altruistic\": BehaviorBreakdown { peers: 5, shared_bandwidth: 0.9251336898395722, shared_articles: 0.9251336898395722, downloaded: 0.4109636016133061, final_sharing_reputation: 0.6022983392613477, final_editing_reputation: 0.2509937434298032, constructive_edits: 38, destructive_edits: 6, votes: 40, mean_utility: 3.3355718450100658 }, \"irrational\": BehaviorBreakdown { peers: 5, shared_bandwidth: 0.0, shared_articles: 0.0, downloaded: 0.1352455228240961, final_sharing_reputation: 0.05000000000000001, final_editing_reputation: 0.5044509385884229, constructive_edits: 0, destructive_edits: 0, votes: 90, mean_utility: 1.5056344189924062 }, \"rational\": BehaviorBreakdown { peers: 10, shared_bandwidth: 0.5011467889908257, shared_articles: 0.49655963302752293, downloaded: 0.3537897501140898, final_sharing_reputation: 0.3376100423704608, final_editing_reputation: 0.2939414808575547, constructive_edits: 30, destructive_edits: 31, votes: 129, mean_utility: 3.2271176846271366 }}, edit_outcomes: EditOutcomeCounts { accepted_constructive: 8, accepted_destructive: 29, declined_constructive: 60, declined_destructive: 8, pending: 0 }, mean_article_quality: 0.5324682005525322, completed_downloads: 178, evaluation_steps: 80, seed: 12648430 }\nSome(GlobalReputation { values: [0.08217777515434527, 0.04820339192306916, 0.026859766232999027, 0.0, 0.06114075082647981, 0.0, 0.009201453907902063, 0.0, 0.05275397116251022, 0.258836508325314, 0.05392786837876326, 0.0, 0.18851950193841727, 0.07594904551345322, 0.06774773446634462, 0.0, 0.03193218436727695, 0.0, 0.0388082668632668, 0.003941780939858257], iterations: 33, converged: true })";
const PROPAGATED_MAXFLOW: &str = "SimulationReport { shared_bandwidth: 0.507537688442211, shared_articles: 0.4824120603015075, by_behavior: {\"altruistic\": BehaviorBreakdown { peers: 5, shared_bandwidth: 0.9251336898395722, shared_articles: 0.9251336898395722, downloaded: 0.4430911676188648, final_sharing_reputation: 0.6022983392613477, final_editing_reputation: 0.22850947009551037, constructive_edits: 30, destructive_edits: 5, votes: 27, mean_utility: 3.6180774515897194 }, \"irrational\": BehaviorBreakdown { peers: 5, shared_bandwidth: 0.0, shared_articles: 0.0, downloaded: 0.16253672990231857, final_sharing_reputation: 0.05000000000000001, final_editing_reputation: 0.5360363759504507, constructive_edits: 0, destructive_edits: 0, votes: 97, mean_utility: 1.8045580504682723 }, \"rational\": BehaviorBreakdown { peers: 10, shared_bandwidth: 0.5298165137614679, shared_articles: 0.48394495412844035, downloaded: 0.3784933426196586, final_sharing_reputation: 0.34152120760139026, final_editing_reputation: 0.2336794802615493, constructive_edits: 30, destructive_edits: 33, votes: 113, mean_utility: 3.4793141601415405 }}, edit_outcomes: EditOutcomeCounts { accepted_constructive: 5, accepted_destructive: 35, declined_constructive: 55, declined_destructive: 3, pending: 0 }, mean_article_quality: 0.5266023936329495, completed_downloads: 203, evaluation_steps: 80, seed: 12648430 }\nSome(GlobalReputation { values: [1.0, 0.7084663472489483, 0.1754603437013495, 0.014321466961132052, 0.3757485191678288, 0.0, 0.03701207926610025, 0.0, 0.3094583485532776, 1.0, 0.2928059701275033, 0.0, 0.9999999999999999, 0.7185222469688827, 0.43972605681058563, 0.0, 0.4512977456155152, 0.0, 0.526528093183776, 0.03641415011978565], iterations: 1, converged: true })";

/// `format!("{report:?}")` of the golden run, recorded from the monolithic
/// pre-pipeline engine. Bitwise-exact: every f64 must match.
const GOLDEN_REPORT_DEBUG: &str = "SimulationReport { shared_bandwidth: 0.4515625, shared_articles: 0.460625, by_behavior: {\"altruistic\": BehaviorBreakdown { peers: 5, shared_bandwidth: 1.0, shared_articles: 1.0, downloaded: 0.43559719294820637, final_sharing_reputation: 0.8647787093973539, final_editing_reputation: 0.05000000000000001, constructive_edits: 84, destructive_edits: 0, votes: 4, mean_utility: 3.361596929482065 }, \"irrational\": BehaviorBreakdown { peers: 5, shared_bandwidth: 0.0, shared_articles: 0.0, downloaded: 0.12242082835628557, final_sharing_reputation: 0.05000000000000001, final_editing_reputation: 0.8099999829293056, constructive_edits: 0, destructive_edits: 0, votes: 256, mean_utility: 1.4904582835628555 }, \"rational\": BehaviorBreakdown { peers: 10, shared_bandwidth: 0.403125, shared_articles: 0.42125, downloaded: 0.32474098934775397, final_sharing_reputation: 0.5909831259707194, final_editing_reputation: 0.7950949747456495, constructive_edits: 36, destructive_edits: 89, votes: 317, mean_utility: 3.177097393477539 }}, edit_outcomes: EditOutcomeCounts { accepted_constructive: 2, accepted_destructive: 84, declined_constructive: 118, declined_destructive: 5, pending: 0 }, mean_article_quality: 0.5215784136654522, completed_downloads: 359, evaluation_steps: 80, seed: 12648430 }";
