//! Property-based integration tests over the incentive scheme's invariants,
//! spanning the reputation, netsim, rl and gametheory modules.

use collabsim_workspace::collabsim::action::CollabAction;
use collabsim_workspace::collabsim::gametheory::behavior::{BehaviorMix, BehaviorType};
use collabsim_workspace::collabsim::netsim::bandwidth::{
    AllocScratch, AllocationPolicy, BandwidthAllocator, DownloadRequest,
};
use collabsim_workspace::collabsim::netsim::peer::PeerId;
use collabsim_workspace::collabsim::reputation::function::{
    LogisticReputation, ReputationFunction,
};
use collabsim_workspace::collabsim::reputation::service::{ServiceDifferentiation, ServiceParams};
use collabsim_workspace::collabsim::rl::boltzmann::boltzmann_distribution;
use collabsim_workspace::collabsim::rl::qlearning::{QLearningAgent, QLearningParams};
use collabsim_workspace::collabsim::rl::space::{ActionSpace, StateSpace};
use proptest::prelude::*;

proptest! {
    /// The logistic reputation function always lands in [R_min, 1] and is
    /// monotone, for any admissible (g, β) and contribution value.
    #[test]
    fn reputation_function_is_bounded_and_monotone(
        g in 0.5f64..100.0,
        beta in 0.01f64..2.0,
        c in 0.0f64..200.0,
        delta in 0.0f64..50.0,
    ) {
        let f = LogisticReputation::new(g, beta);
        let r = f.reputation(c);
        prop_assert!(r >= f.minimum() - 1e-12);
        prop_assert!(r <= 1.0 + 1e-12);
        prop_assert!(f.reputation(c + delta) >= r - 1e-12);
    }

    /// Bandwidth shares are a probability distribution over the downloaders
    /// for every allocation policy and any set of reputations/histories.
    #[test]
    fn bandwidth_shares_always_form_a_distribution(
        reputations in proptest::collection::vec(0.0f64..1.0, 1..12),
        history in proptest::collection::vec(0.0f64..10.0, 1..12),
    ) {
        let n = reputations.len().min(history.len());
        let requests: Vec<DownloadRequest> = (0..n)
            .map(|i| DownloadRequest {
                downloader: PeerId(i as u32),
                sharing_reputation: reputations[i],
                download_capacity: 1.0,
                uploaded_to_source: history[i],
            })
            .collect();
        for policy in [
            AllocationPolicy::EqualSplit,
            AllocationPolicy::WeightedByReputation,
            AllocationPolicy::TitForTat,
        ] {
            let mut shares = Vec::new();
            BandwidthAllocator::new(policy).shares_into(&requests, &mut shares);
            let sum: f64 = shares.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "{policy:?}: sum {sum}");
            prop_assert!(shares.iter().all(|&s| s >= 0.0));
        }
    }

    /// Allocated bandwidth never exceeds what the source offered nor any
    /// downloader's capacity.
    #[test]
    fn allocation_respects_offer_and_capacities(
        offered in 0.0f64..1.0,
        capacities in proptest::collection::vec(0.01f64..1.0, 1..10),
        reputations in proptest::collection::vec(0.0f64..1.0, 1..10),
    ) {
        let n = capacities.len().min(reputations.len());
        let requests: Vec<DownloadRequest> = (0..n)
            .map(|i| DownloadRequest {
                downloader: PeerId(i as u32),
                sharing_reputation: reputations[i],
                download_capacity: capacities[i],
                uploaded_to_source: 0.0,
            })
            .collect();
        let mut allocations = Vec::new();
        BandwidthAllocator::new(AllocationPolicy::WeightedByReputation).allocate_into(
            offered,
            &requests,
            &mut AllocScratch::default(),
            &mut allocations,
        );
        let total: f64 = allocations.iter().map(|a| a.bandwidth).sum();
        prop_assert!(total <= offered + 1e-9);
        for (allocation, request) in allocations.iter().zip(requests.iter()) {
            prop_assert!(allocation.bandwidth <= request.download_capacity + 1e-9);
        }
    }

    /// The Boltzmann distribution is a probability distribution for any
    /// finite Q-values and positive temperature, and never prefers a lower
    /// Q-value over a higher one.
    #[test]
    fn boltzmann_is_a_monotone_distribution(
        values in proptest::collection::vec(-50.0f64..50.0, 2..27),
        t in 0.05f64..2000.0,
    ) {
        let p = boltzmann_distribution(&values, t);
        let sum: f64 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        for i in 0..values.len() {
            for j in 0..values.len() {
                if values[i] > values[j] {
                    prop_assert!(p[i] >= p[j] - 1e-12);
                }
            }
        }
    }

    /// Q-values stay within the theoretical bound r_max / (1 − γ) for
    /// arbitrary bounded-reward trajectories.
    #[test]
    fn q_learning_respects_value_bound(
        seedlike in proptest::collection::vec((0usize..6, 0usize..4, -1.0f64..1.0, 0usize..6), 1..300),
        alpha in 0.01f64..1.0,
        gamma in 0.0f64..0.95,
    ) {
        let params = QLearningParams { learning_rate: alpha, discount: gamma, initial_q: 0.0 };
        let mut agent = QLearningAgent::new(StateSpace::new(6), ActionSpace::product(&[4]), params);
        for (state, action, reward, next) in seedlike {
            agent.update(state, action, reward, next);
        }
        prop_assert!(agent.max_abs_q() <= 1.0 / (1.0 - gamma) + 1e-9);
        prop_assert!(agent.table().is_finite());
    }

    /// Service differentiation's required majority is monotone decreasing in
    /// the editor's reputation and stays a valid fraction.
    #[test]
    fn required_majority_is_monotone(r1 in 0.0f64..1.0, r2 in 0.0f64..1.0) {
        let service = ServiceDifferentiation::new(ServiceParams::default(), 0.05);
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let m_lo = service.required_majority(lo);
        let m_hi = service.required_majority(hi);
        prop_assert!(m_hi <= m_lo + 1e-12);
        prop_assert!((0.0..=1.0).contains(&m_lo));
        prop_assert!((0.0..=1.0).contains(&m_hi));
    }

    /// Behaviour-mix assignment always produces exactly the requested
    /// population and matches the fractions within rounding.
    #[test]
    fn behavior_mix_assignment_is_exact(
        rational in 0.0f64..1.0,
        altruistic_weight in 0.0f64..1.0,
        population in 1usize..300,
    ) {
        let altruistic = (1.0 - rational) * altruistic_weight;
        let irrational = (1.0 - rational - altruistic).clamp(0.0, 1.0);
        let mix = BehaviorMix::new(rational, altruistic, irrational);
        let assigned = mix.assign(population);
        prop_assert_eq!(assigned.len(), population);
        for behavior in BehaviorType::ALL {
            let count = assigned.iter().filter(|&&b| b == behavior).count() as f64;
            let fraction = match behavior {
                BehaviorType::Rational => rational,
                BehaviorType::Altruistic => altruistic,
                BehaviorType::Irrational => irrational,
            };
            let expected = fraction * population as f64;
            prop_assert!((count - expected).abs() <= 1.0 + 1e-9);
        }
    }

    /// Collab actions round-trip through their flat index for every index.
    #[test]
    fn action_index_roundtrip(index in 0usize..27) {
        let action = CollabAction::from_index(index);
        prop_assert_eq!(action.to_index(), index);
    }
}
