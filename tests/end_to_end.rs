//! Cross-crate integration tests: the full simulation pipeline from
//! configuration to report, across incentive schemes and behaviour mixes.

use collabsim_workspace::collabsim::{
    BehaviorMix, BehaviorType, IncentiveScheme, PhaseConfig, Simulation, SimulationConfig,
};

fn small_config() -> SimulationConfig {
    SimulationConfig {
        population: 24,
        initial_articles: 12,
        phases: PhaseConfig {
            training_steps: 200,
            evaluation_steps: 120,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn full_run_report_respects_basic_invariants() {
    for incentive in IncentiveScheme::ALL {
        let config = SimulationConfig {
            mix: BehaviorMix::new(0.5, 0.25, 0.25),
            incentive,
            seed: 11,
            ..small_config()
        };
        let report = Simulation::new(config).run();
        assert_eq!(report.evaluation_steps, 120, "{incentive:?}");
        assert!(
            (0.0..=1.0).contains(&report.shared_articles),
            "{incentive:?}: shared articles {}",
            report.shared_articles
        );
        assert!(
            (0.0..=1.0).contains(&report.shared_bandwidth),
            "{incentive:?}: shared bandwidth {}",
            report.shared_bandwidth
        );
        assert!(
            report.mean_article_quality > 0.0 && report.mean_article_quality <= 1.0,
            "{incentive:?}: quality {}",
            report.mean_article_quality
        );
        let peers: usize = BehaviorType::ALL
            .iter()
            .map(|&b| report.breakdown(b).peers)
            .sum();
        assert_eq!(peers, 24, "{incentive:?}: all peers accounted for");
    }
}

#[test]
fn simulation_is_deterministic_per_seed_across_schemes() {
    for incentive in [IncentiveScheme::ReputationBased, IncentiveScheme::None] {
        let config = SimulationConfig {
            mix: BehaviorMix::new(0.4, 0.3, 0.3),
            incentive,
            seed: 777,
            ..small_config()
        };
        let a = Simulation::new(config.clone()).run();
        let b = Simulation::new(config).run();
        assert_eq!(a, b, "{incentive:?}: same seed must reproduce the report");
    }
}

#[test]
fn behaviour_types_keep_their_fixed_policies_end_to_end() {
    let config = SimulationConfig {
        mix: BehaviorMix::new(0.0, 0.5, 0.5),
        seed: 5,
        ..small_config()
    };
    let report = Simulation::new(config).run();
    let altruistic = report.breakdown(BehaviorType::Altruistic);
    let irrational = report.breakdown(BehaviorType::Irrational);
    // Altruists always share everything and never vandalise.
    assert!((altruistic.shared_articles - 1.0).abs() < 1e-9);
    assert!((altruistic.shared_bandwidth - 1.0).abs() < 1e-9);
    assert_eq!(altruistic.destructive_edits, 0);
    // Irrational peers never share and never act constructively.
    assert_eq!(irrational.shared_articles, 0.0);
    assert_eq!(irrational.shared_bandwidth, 0.0);
    assert_eq!(irrational.constructive_edits, 0);
}

#[test]
fn incentive_scheme_differentiates_downloads_towards_contributors() {
    let config = SimulationConfig {
        mix: BehaviorMix::new(0.0, 0.5, 0.5),
        incentive: IncentiveScheme::ReputationBased,
        seed: 21,
        ..small_config()
    };
    let report = Simulation::new(config).run();
    let altruistic = report.breakdown(BehaviorType::Altruistic);
    let irrational = report.breakdown(BehaviorType::Irrational);
    assert!(
        altruistic.downloaded > irrational.downloaded,
        "contributors should receive more bandwidth: {} vs {}",
        altruistic.downloaded,
        irrational.downloaded
    );
    assert!(
        altruistic.final_sharing_reputation > irrational.final_sharing_reputation,
        "contributors should end with higher reputation"
    );
}

#[test]
fn majority_following_emerges_for_rational_editors() {
    // Figure 7's qualitative claim at integration-test scale: rational peers
    // act more constructively under an altruistic majority than under an
    // irrational majority.
    let altruistic_majority = SimulationConfig {
        mix: BehaviorMix::sweep(BehaviorType::Altruistic, 0.7),
        seed: 31,
        ..small_config()
    };
    let irrational_majority = SimulationConfig {
        mix: BehaviorMix::sweep(BehaviorType::Irrational, 0.7),
        seed: 31,
        ..small_config()
    };
    let constructive_under_altruists = Simulation::new(altruistic_majority)
        .run()
        .rational_constructive_fraction();
    let constructive_under_vandals = Simulation::new(irrational_majority)
        .run()
        .rational_constructive_fraction();
    assert!(
        constructive_under_altruists > constructive_under_vandals,
        "rational peers should follow the majority: {constructive_under_altruists} vs {constructive_under_vandals}"
    );
}

#[test]
fn quality_is_protected_under_the_scheme_with_constructive_majority() {
    // The paper notes the scheme only protects quality when constructive
    // peers clearly outnumber destructive ones initially; use such a mix.
    let config = SimulationConfig {
        mix: BehaviorMix::new(0.1, 0.7, 0.2),
        incentive: IncentiveScheme::ReputationBased,
        seed: 41,
        ..small_config()
    };
    let report = Simulation::new(config).run();
    assert!(report.edit_outcomes.decided() > 0);
    assert!(
        report.constructive_acceptance_rate() > report.destructive_acceptance_rate(),
        "constructive edits should fare better than destructive ones: {} vs {}",
        report.constructive_acceptance_rate(),
        report.destructive_acceptance_rate()
    );
}
