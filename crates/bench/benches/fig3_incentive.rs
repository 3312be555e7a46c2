//! Criterion bench for Figure 3: one full (reduced-scale) simulation run
//! with the incentive scheme on and off — the unit of work the Figure 3
//! binary repeats at paper scale.

use collabsim::{IncentiveScheme, PhaseConfig, Simulation, SimulationConfig};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn tiny_config(incentive: IncentiveScheme) -> SimulationConfig {
    SimulationConfig {
        population: 20,
        initial_articles: 10,
        phases: PhaseConfig {
            training_steps: 150,
            evaluation_steps: 80,
            ..Default::default()
        },
        incentive,
        ..Default::default()
    }
}

fn bench_fig3(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_incentive_vs_none");
    group.sample_size(10);
    for incentive in [IncentiveScheme::ReputationBased, IncentiveScheme::None] {
        group.bench_with_input(
            BenchmarkId::new("simulation_run", incentive.label()),
            &incentive,
            |b, &incentive| {
                b.iter(|| {
                    let mut sim = Simulation::new(tiny_config(incentive));
                    black_box(sim.run())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
