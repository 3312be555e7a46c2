//! Criterion bench for Figures 6 and 7: simulation runs whose measured
//! output is the rational agents' constructive/destructive edit split,
//! under a balanced (Figure 6) and a majority-skewed (Figure 7) population.

use collabsim::{BehaviorMix, BehaviorType, PhaseConfig, Simulation, SimulationConfig};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn config_with_mix(mix: BehaviorMix) -> SimulationConfig {
    SimulationConfig {
        population: 20,
        initial_articles: 10,
        phases: PhaseConfig {
            training_steps: 150,
            evaluation_steps: 80,
            ..Default::default()
        },
        mix,
        ..Default::default()
    }
}

fn bench_fig6_fig7(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_fig7_edit_behaviour");
    group.sample_size(10);

    // Figure 6: balanced altruistic/irrational shares around rational peers.
    group.bench_function("fig6_balanced_mix_run", |b| {
        b.iter(|| {
            let mix = BehaviorMix::sweep(BehaviorType::Rational, 0.5);
            let mut sim = Simulation::new(config_with_mix(mix));
            black_box(sim.run().rational_constructive_fraction())
        })
    });

    // Figure 7: majority-skewed populations (altruistic- and irrational-heavy).
    for (label, primary) in [
        ("altruistic_majority", BehaviorType::Altruistic),
        ("irrational_majority", BehaviorType::Irrational),
    ] {
        group.bench_with_input(
            BenchmarkId::new("fig7_majority_run", label),
            &primary,
            |b, &primary| {
                b.iter(|| {
                    let mix = BehaviorMix::sweep(primary, 0.7);
                    let mut sim = Simulation::new(config_with_mix(mix));
                    black_box(sim.run().rational_constructive_fraction())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig6_fig7);
criterion_main!(benches);
