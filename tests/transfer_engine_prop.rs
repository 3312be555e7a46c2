//! Property tests of the batched transfer engine: the [`RequestTable`]
//! groups any request set by source exactly as the download phase's
//! allocate-and-apply loop expects, and the [`TransferManager`] free list
//! recycles slots without losing any aggregate statistics.

use collabsim_workspace::collabsim::netsim::article::ArticleId;
use collabsim_workspace::collabsim::netsim::bandwidth::DownloadRequest;
use collabsim_workspace::collabsim::netsim::peer::PeerId;
use collabsim_workspace::collabsim::netsim::transfer::{TransferManager, TransferStatus};
use collabsim_workspace::collabsim::pipeline::RequestTable;
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    /// Random populations and request sets, over two steps of one reused
    /// table: after `build`, the active sources are exactly the sources
    /// requests were pushed to, ascending, and each source's bucket holds
    /// that source's requests (bitwise) and transfer ids in push order —
    /// the grouping the download phase allocates over.
    #[test]
    fn request_table_groups_requests_by_source(
        population in 2usize..60,
        ops in proptest::collection::vec(
            (0usize..60, 0usize..60, 0.0f64..1.0, 0.0f64..2.0, 0.0f64..3.0),
            0..80,
        ),
        split in 0usize..80,
    ) {
        let split = split.min(ops.len());
        let mut table = RequestTable::default();
        for step in [&ops[..split], &ops[split..]] {
            table.begin_step(population);
            let mut pushed: BTreeMap<u32, Vec<(DownloadRequest, u64)>> = BTreeMap::new();
            for (i, &(downloader_raw, source_raw, reputation, capacity, uploaded)) in
                step.iter().enumerate()
            {
                let source = PeerId((source_raw % population) as u32);
                let request = DownloadRequest {
                    downloader: PeerId((downloader_raw % population) as u32),
                    sharing_reputation: reputation,
                    download_capacity: capacity,
                    uploaded_to_source: uploaded,
                };
                table.push(source, request, i as u64);
                pushed.entry(source.0).or_default().push((request, i as u64));
            }
            table.build();
            prop_assert_eq!(table.len(), step.len());
            let sources: Vec<u32> = pushed.keys().copied().collect();
            prop_assert_eq!(table.active_sources(), sources.as_slice());
            for (k, (&source, expected)) in pushed.iter().enumerate() {
                let (id, requests, transfers) = table.bucket(k);
                prop_assert_eq!(id, PeerId(source));
                prop_assert_eq!(requests.len(), expected.len());
                prop_assert_eq!(transfers.len(), expected.len());
                for ((got, &tid), (want, want_tid)) in
                    requests.iter().zip(transfers).zip(expected)
                {
                    prop_assert_eq!(got.downloader, want.downloader);
                    prop_assert_eq!(
                        got.sharing_reputation.to_bits(),
                        want.sharing_reputation.to_bits()
                    );
                    prop_assert_eq!(
                        got.download_capacity.to_bits(),
                        want.download_capacity.to_bits()
                    );
                    prop_assert_eq!(
                        got.uploaded_to_source.to_bits(),
                        want.uploaded_to_source.to_bits()
                    );
                    prop_assert_eq!(tid, *want_tid);
                }
            }
        }
    }

    /// Arbitrary start/grant/finish/release interleavings: the arena never
    /// outgrows the peak number of live transfers, released slots come
    /// back fresh, and the aggregate statistics (completion counts and
    /// durations, per-peer byte totals) are exactly those of an engine
    /// that never recycled.
    #[test]
    fn free_list_recycling_preserves_aggregates(
        ops in proptest::collection::vec((0u32..8, 0u32..8, 0.0f64..1.5, 0u32..3), 1..60),
    ) {
        let mut recycled = TransferManager::new();
        let mut retained = TransferManager::new();
        // Shadow bookkeeping: (recycled id, retained id) of live transfers.
        let mut live: Vec<(u64, u64)> = Vec::new();
        let mut peak_live = 0usize;
        let mut now = 0u64;
        for &(downloader, source, grant, action) in &ops {
            now += 1;
            match action {
                // Start a new transfer on both managers.
                0 => {
                    let article = ArticleId(downloader + source);
                    let a = recycled.start(PeerId(downloader), PeerId(source), article, now);
                    let b = retained.start(PeerId(downloader), PeerId(source), article, now);
                    live.push((a, b));
                    peak_live = peak_live.max(live.len());
                }
                // Grant to the oldest live transfer; release on completion.
                1 => {
                    if let Some(&(a, b)) = live.first() {
                        let sa = recycled.apply_grant(a, grant, now);
                        let sb = retained.apply_grant(b, grant, now);
                        prop_assert_eq!(sa, sb);
                        if sa == TransferStatus::Completed {
                            recycled.release(a);
                            live.remove(0);
                        }
                    }
                }
                // Cancel and release the newest live transfer.
                _ => {
                    if let Some((a, b)) = live.pop() {
                        recycled.cancel(a, now);
                        retained.cancel(b, now);
                        recycled.release(a);
                    }
                }
            }
        }
        // The recycling arena is bounded by peak concurrency; the retained
        // arena grew with every start.
        prop_assert!(recycled.slot_count() <= peak_live.max(1));
        prop_assert_eq!(recycled.live_count(), live.len());
        // Aggregates agree exactly with the never-recycling manager.
        prop_assert_eq!(recycled.completed_count(), retained.completed_count());
        prop_assert_eq!(
            recycled.mean_completion_steps().to_bits(),
            retained.mean_completion_steps().to_bits()
        );
        for p in 0..8u32 {
            let peer = PeerId(p);
            prop_assert!(
                (recycled.total_received_by(peer) - retained.total_received_by(peer)).abs()
                    < 1e-9
            );
            prop_assert!(
                (recycled.total_served_by(peer) - retained.total_served_by(peer)).abs() < 1e-9
            );
        }
    }
}
