//! Criterion benches for the substrates the ablations exercise (ABL2's
//! propagation algorithms and the bandwidth allocator every figure depends
//! on): EigenTrust power iteration, MaxFlow trust, gossip averaging and the
//! reputation-weighted bandwidth allocation.

use collabsim_netsim::bandwidth::{AllocationPolicy, BandwidthAllocator, DownloadRequest};
use collabsim_netsim::peer::PeerId;
use collabsim_reputation::attack::collusion_clique;
use collabsim_reputation::propagation::eigentrust::EigenTrust;
use collabsim_reputation::propagation::gossip::GossipAveraging;
use collabsim_reputation::propagation::maxflow::MaxFlowTrust;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_propagation(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(99);
    let (graph, scenario) = collusion_clique(60, 10, 100.0, 0.3, &mut rng);
    let mut group = c.benchmark_group("abl2_propagation");
    group.bench_function("eigentrust_60_peers", |b| {
        let et = EigenTrust::default();
        b.iter(|| black_box(et.compute(black_box(&graph))))
    });
    group.bench_function("maxflow_single_pair_60_peers", |b| {
        let mf = MaxFlowTrust::new();
        b.iter(|| black_box(mf.max_trust(black_box(&graph), 0, scenario.attackers[0])))
    });
    group.bench_function("gossip_50_rounds_60_peers", |b| {
        let gossip = GossipAveraging::new(50);
        let mut grng = StdRng::seed_from_u64(5);
        b.iter(|| black_box(gossip.compute(black_box(&graph), &mut grng)))
    });
    group.finish();
}

fn bench_network_substrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_substrate");

    let requests: Vec<DownloadRequest> = (0..50)
        .map(|i| DownloadRequest {
            downloader: PeerId(i),
            sharing_reputation: 0.05 + 0.9 * f64::from(i) / 50.0,
            download_capacity: 1.0,
            uploaded_to_source: f64::from(i % 7),
        })
        .collect();
    let allocator = BandwidthAllocator::new(AllocationPolicy::WeightedByReputation);
    group.bench_function("bandwidth_allocation_50_downloaders", |b| {
        b.iter(|| black_box(allocator.allocate(1.0, black_box(&requests))))
    });
    group.finish();
}

criterion_group!(benches, bench_propagation, bench_network_substrate);
criterion_main!(benches);
