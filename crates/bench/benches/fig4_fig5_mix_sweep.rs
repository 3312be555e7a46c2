//! Criterion bench for Figures 4 and 5: one mix-sweep configuration at
//! reduced scale (the sweep the binaries repeat at nine mix points), plus
//! the per-rational breakdown extraction Figure 5 adds on top of Figure 4.

use collabsim::{BehaviorMix, BehaviorType, PhaseConfig, Simulation, SimulationConfig};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn mixed_config(altruistic_pct: u32) -> SimulationConfig {
    SimulationConfig {
        population: 20,
        initial_articles: 10,
        phases: PhaseConfig {
            training_steps: 150,
            evaluation_steps: 80,
            ..Default::default()
        },
        mix: BehaviorMix::sweep(BehaviorType::Altruistic, f64::from(altruistic_pct) / 100.0),
        ..Default::default()
    }
}

fn bench_fig4_fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_fig5_mix_sweep");
    group.sample_size(10);
    for pct in [10u32, 50, 90] {
        group.bench_with_input(
            BenchmarkId::new("mix_point_run", format!("altruistic_{pct}pct")),
            &pct,
            |b, &pct| {
                b.iter(|| {
                    let mut sim = Simulation::new(mixed_config(pct));
                    black_box(sim.run())
                })
            },
        );
    }
    // Figure 5's extra work over Figure 4: reading the rational breakdown.
    let report = Simulation::new(mixed_config(50)).run();
    group.bench_function("fig5_rational_breakdown_extraction", |b| {
        b.iter(|| {
            black_box((
                report.rational_shared_articles(),
                report.rational_shared_bandwidth(),
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig4_fig5);
criterion_main!(benches);
