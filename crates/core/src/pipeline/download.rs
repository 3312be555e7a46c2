//! Phase 3 — downloads and bandwidth allocation.
//!
//! The phase runs two stages, **collect → allocate-and-apply**, both on the
//! calling thread:
//!
//! 1. **Collect** (it owns the step RNG stream): every peer either
//!    continues its in-flight transfer or probabilistically starts a new
//!    one, and its [`DownloadRequest`] is recorded in the flat
//!    [`RequestTable`] bucketed by source.
//! 2. **Allocate and apply** (in ascending source order): each source's
//!    offered upload is split among its request bucket by
//!    [`BandwidthAllocator::allocate_into`](crate::netsim::bandwidth::BandwidthAllocator::allocate_into),
//!    and the grants update the step observables and the upload history
//!    at once. An allocation reads only the requests frozen at collect
//!    time and the source's offer, and the apply writes neither, so the
//!    grants are exactly those of allocating every source first. Then
//!    [`TransferManager::apply_grants`](crate::netsim::transfer::TransferManager::apply_grants)
//!    applies the whole grant queue and the drained completions update the
//!    article store and release their transfer slots.
//!
//! All tables live in [`StepContext::transfers`] and are rewritten in
//! place, so steady-state steps perform no allocation here.
//!
//! Fills [`StepContext::downloaded`], [`StepContext::source_upload_seen`]
//! and [`StepContext::bandwidth_share`].

use super::{StepContext, StepPhase};
use crate::config::DownloadRate;
use crate::netsim::bandwidth::{AllocScratch, Allocation, DownloadRequest};
use crate::netsim::fault::{
    step_connections, ConnectionState, BACKOFF_BASE_STEPS, MAX_TRANSFER_RETRIES,
    TRANSFER_TIMEOUT_STEPS,
};
use crate::netsim::peer::PeerId;
use crate::netsim::transfer::TransferStatus;
use crate::world::SimWorld;
use rand::Rng;

/// Collects download requests (continuing in-flight transfers, starting new
/// ones probabilistically) and allocates every source's offered upload
/// bandwidth among its competitors under the configured incentive scheme.
pub struct DownloadPhase;

/// A placeholder request used to size the scatter target; every slot is
/// overwritten before it is read.
const EMPTY_REQUEST: DownloadRequest = DownloadRequest {
    downloader: PeerId(0),
    sharing_reputation: 0.0,
    download_capacity: 0.0,
    uploaded_to_source: 0.0,
};

/// CSR-style table of one step's download requests: a flat entry list
/// appended in downloader order by the collect stage, then scattered into
/// dense per-source buckets (a stable counting sort over parallel index
/// vectors) so the allocator reads each source's requests as one
/// contiguous `&[DownloadRequest]` slice. All buffers are reused across
/// steps.
#[derive(Debug, Clone, Default)]
pub struct RequestTable {
    /// Source peer id per collected entry, in collection order.
    entry_sources: Vec<u32>,
    /// The request per collected entry.
    entry_requests: Vec<DownloadRequest>,
    /// The transfer the request continues or starts, per collected entry.
    entry_transfers: Vec<u64>,
    /// Requests per source peer id (length = population).
    counts: Vec<u32>,
    /// Bucket boundaries per source peer id (length = population + 1):
    /// source `s` owns slots `starts[s]..starts[s + 1]`.
    starts: Vec<u32>,
    /// Scatter cursor, one per source (scratch for `build`).
    cursor: Vec<u32>,
    /// Sources with at least one request, ascending.
    active_sources: Vec<u32>,
    /// Requests grouped by source (each bucket keeps collection order).
    slot_requests: Vec<DownloadRequest>,
    /// Transfer ids grouped by source, aligned with `slot_requests`.
    slot_transfers: Vec<u64>,
}

impl RequestTable {
    /// Clears the table for a new step over `population` peers.
    pub fn begin_step(&mut self, population: usize) {
        self.entry_sources.clear();
        self.entry_requests.clear();
        self.entry_transfers.clear();
        self.active_sources.clear();
        self.counts.clear();
        self.counts.resize(population, 0);
    }

    /// Records one download request directed at `source`.
    pub fn push(&mut self, source: PeerId, request: DownloadRequest, transfer: u64) {
        self.counts[source.index()] += 1;
        self.entry_sources.push(source.0);
        self.entry_requests.push(request);
        self.entry_transfers.push(transfer);
    }

    /// Builds the per-source buckets from the collected entries. The
    /// scatter is a stable counting sort, so within a bucket requests keep
    /// their collection (downloader) order — which is what makes the
    /// bucket slices bit-identical to the hash-map-of-vectors they
    /// replaced.
    pub fn build(&mut self) {
        let population = self.counts.len();
        self.starts.clear();
        self.starts.resize(population + 1, 0);
        let mut total = 0u32;
        for s in 0..population {
            self.starts[s] = total;
            if self.counts[s] > 0 {
                self.active_sources.push(s as u32);
            }
            total += self.counts[s];
        }
        self.starts[population] = total;
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..population]);
        self.slot_requests.clear();
        self.slot_requests.resize(total as usize, EMPTY_REQUEST);
        self.slot_transfers.clear();
        self.slot_transfers.resize(total as usize, 0);
        for (i, &s) in self.entry_sources.iter().enumerate() {
            let slot = self.cursor[s as usize] as usize;
            self.slot_requests[slot] = self.entry_requests[i];
            self.slot_transfers[slot] = self.entry_transfers[i];
            self.cursor[s as usize] += 1;
        }
    }

    /// Number of collected requests.
    pub fn len(&self) -> usize {
        self.entry_requests.len()
    }

    /// Whether no requests were collected.
    pub fn is_empty(&self) -> bool {
        self.entry_requests.is_empty()
    }

    /// Sources with at least one request, ascending (valid after
    /// [`RequestTable::build`]).
    pub fn active_sources(&self) -> &[u32] {
        &self.active_sources
    }

    /// The `k`-th active source's bucket: `(source, requests, transfer
    /// ids)`, requests in collection order.
    pub fn bucket(&self, k: usize) -> (PeerId, &[DownloadRequest], &[u64]) {
        let s = self.active_sources[k] as usize;
        let range = self.starts[s] as usize..self.starts[s + 1] as usize;
        (
            PeerId(s as u32),
            &self.slot_requests[range.clone()],
            &self.slot_transfers[range],
        )
    }
}

/// Every reusable buffer of the transfer engine's two stages, carried in
/// [`StepContext`] so steady-state steps allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct TransferTables {
    /// Sharing peers that actually offer upload bandwidth this step,
    /// ascending by peer id.
    upload_sources: Vec<PeerId>,
    /// The step's request table.
    requests: RequestTable,
    /// The allocator's share and capacity buffers.
    scratch: AllocScratch,
    /// The step's allocations, appended source by source in ascending
    /// source order (one per collected request). Keeping the whole step's
    /// sizes the buffer by the step's request count, which peaks early in
    /// a run; a buffer of one source's would grow with the largest bucket,
    /// which keeps reaching new highs later.
    allocations: Vec<Allocation>,
    /// `(transfer id, bandwidth)` grants in apply order.
    grant_queue: Vec<(u64, f64)>,
    /// Transfers completed by this step's grants.
    completions: Vec<u64>,
}

impl StepPhase for DownloadPhase {
    fn name(&self) -> &'static str {
        "download"
    }

    fn execute(&self, world: &mut SimWorld, ctx: &mut StepContext) {
        let population = world.population();
        let now = ctx.now;
        let network = world.config.network;
        let faulty = !network.is_ideal();
        let seed = world.config.seed;
        let tables = &mut ctx.transfers;
        tables.requests.begin_step(population);

        // Fault layer, step 0 — advance every peer's connection state on
        // the dedicated `net_rng` stream. The ideal model has no lifecycle
        // (`connection_rates` is `None`), so it draws nothing here and the
        // stream — and therefore the whole phase — is untouched.
        if let Some(rates) = network.connection_rates() {
            step_connections(&mut world.peers, &rates, &mut world.net_rng);
        }

        // Download sources must actually offer upload bandwidth this step:
        // the paper's competition is over "the source's upload bandwidth",
        // so a peer offering only stored articles cannot serve a transfer.
        // Only online peers can be sharing (`is_sharing` gates on
        // liveness), so the scan walks the online bitset.
        let mut sharing_count = 0usize;
        tables.upload_sources.clear();
        for p in world.active.iter_online() {
            let peer = world.peers.peer(PeerId(p as u32));
            if peer.is_sharing() {
                sharing_count += 1;
                // A disconnected link cannot serve transfers; under the
                // ideal model every peer is permanently `Connected`, so the
                // extra condition is vacuously true there.
                if peer.offered_upload() > 0.0 && peer.connection != ConnectionState::Disconnected {
                    tables.upload_sources.push(peer.id);
                }
            }
        }
        let upload_sources = &tables.upload_sources;
        // The source draw below excludes the downloader via binary search,
        // which needs this list sorted by peer id. The registry iterates
        // in id order today; if churn or registry reordering ever changes
        // that, every peer could silently pick itself as a source — so the
        // invariant is checked in release builds too (one O(sources) pass
        // per step, noise next to the collect loop).
        assert!(
            upload_sources.windows(2).all(|w| w[0] < w[1]),
            "upload sources must be sorted by peer id"
        );
        // The upload history is a hash probe per request, and only
        // tit-for-tat reads it.
        let reads_upload_history = world.allocator.reads_upload_history();
        let download_probability = match world.config.download_probability {
            DownloadRate::Fixed(p) => p,
            DownloadRate::InverseSharers => {
                if sharing_count == 0 {
                    0.0
                } else {
                    1.0 / sharing_count as f64
                }
            }
        };

        // Stage 1 — collect (this stage owns the RNG stream). Departed
        // peers neither continue nor start downloads (their in-flight
        // transfer was cancelled on departure) and draw no randomness, so
        // the loop walks the online bitset in ascending peer order —
        // identical draws to the dense scan it replaces. The
        // iteration is word-by-word (re-reading each word through
        // `PeerBitset::word`) because the loop body mutates the world;
        // nothing in the body changes the online set itself.
        let online_words = world.active.online().word_count();
        for w in 0..online_words {
            let mut bits = world.active.online().word(w);
            while bits != 0 {
                let p = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let downloader = PeerId(p as u32);
                // Continue an in-flight transfer if its source still offers
                // bandwidth over a live link and the transfer is neither
                // timed out nor backing off; otherwise abandon it and look
                // for a new source (graceful degradation: a downloader
                // whose source link dropped re-draws from the remaining
                // sources below instead of stalling). `hold` keeps a
                // backing-off transfer alive without requesting bandwidth.
                let mut continued: Option<(PeerId, u64)> = None;
                let mut hold = false;
                if let Some(tid) = world.active_transfer[p] {
                    let t = world.transfers.transfer(tid);
                    let (status, t_source) = (t.status, t.source);
                    let source_peer = world.peers.peer(t_source);
                    let source_up = source_peer.offered_upload() > 0.0;
                    let source_connected = source_peer.connection != ConnectionState::Disconnected;
                    let timed_out =
                        faulty && world.transfers.timed_out(tid, now, TRANSFER_TIMEOUT_STEPS);
                    if status == TransferStatus::InProgress
                        && source_up
                        && source_connected
                        && !timed_out
                    {
                        if faulty && world.transfers.in_backoff(tid, now) {
                            hold = true;
                        } else {
                            continued = Some((t_source, tid));
                        }
                    } else {
                        if status == TransferStatus::InProgress {
                            world.transfers.cancel(tid, now);
                            if timed_out {
                                world.net_stats.transfers_timed_out += 1;
                            } else if source_up && !source_connected {
                                world.net_stats.transfers_rerouted += 1;
                            }
                        }
                        world.transfers.release(tid);
                        world.active_transfer[p] = None;
                    }
                }
                // Otherwise maybe start a new download. The source is a
                // uniform choice among the upload sources other than the
                // downloader itself; instead of materialising that filtered
                // candidate list (O(sources) allocation per peer — the
                // pre-shard scaling bottleneck of this phase), the index is
                // drawn directly and mapped over the downloader's position in
                // the sorted source list. Same single `gen_range` draw over
                // the same count, same chosen peer, so the RNG stream and the
                // trajectory are bit-identical to the list-based code.
                if !hold
                    && continued.is_none()
                    && !upload_sources.is_empty()
                    && download_probability > 0.0
                    && world.rng.gen_bool(download_probability.min(1.0))
                {
                    let own_position = upload_sources.binary_search(&downloader);
                    let candidates = upload_sources.len() - usize::from(own_position.is_ok());
                    if candidates > 0 {
                        let mut index = world.rng.gen_range(0..candidates);
                        if let Ok(position) = own_position {
                            if index >= position {
                                index += 1;
                            }
                        }
                        let chosen = upload_sources[index];
                        let article = world.pick_article_to_download(downloader, chosen);
                        let tid = world.transfers.start(downloader, chosen, article, now);
                        world.active_transfer[p] = Some(tid);
                        continued = Some((chosen, tid));
                    }
                }
                if let Some((src, tid)) = continued {
                    tables.requests.push(
                        src,
                        DownloadRequest {
                            downloader,
                            // The service-visible reputation: the ledger value,
                            // or the propagation backend's estimate under
                            // `reputation_source = propagated`.
                            sharing_reputation: world.service_sharing_reputation(p),
                            download_capacity: world.peers.peer(downloader).download_capacity,
                            uploaded_to_source: if reads_upload_history {
                                world.uploads.get(p, src.index())
                            } else {
                                0.0
                            },
                        },
                        tid,
                    );
                }
            }
        }
        tables.requests.build();

        // Stage 2 — allocate and apply, one source at a time in ascending
        // source order. Grants update the step observables and the upload
        // history, then the transfer manager applies the whole grant queue
        // and the drained completions update the store and free their
        // slots.
        tables.allocations.clear();
        tables.grant_queue.clear();
        for k in 0..tables.requests.active_sources().len() {
            let (source, requests, transfers) = tables.requests.bucket(k);
            let source_peer = world.peers.peer(source);
            let source_fraction = source_peer.shared_upload_fraction;
            let source_degraded = source_peer.connection == ConnectionState::Degraded;
            let first = tables.allocations.len();
            world.allocator.allocate_into(
                source_peer.offered_upload(),
                requests,
                &mut tables.scratch,
                &mut tables.allocations,
            );
            for ((allocation, slot), &tid) in tables.allocations[first..]
                .iter()
                .zip(requests)
                .zip(transfers)
            {
                debug_assert_eq!(allocation.downloader, slot.downloader);
                let d = allocation.downloader.index();
                let bandwidth = allocation.bandwidth;
                world.net_stats.grants_offered += bandwidth;
                // Fault layer — consume delayed and lost grants before they
                // touch the step observables, the upload history or the
                // transfer itself. Loss is the only draw, taken from
                // `net_rng` in source order, so the core stream is
                // untouched; the ideal model never enters this block.
                if faulty {
                    let latency =
                        network.link_latency(seed, allocation.downloader, source, population);
                    if now < world.transfers.transfer(tid).started_at + latency {
                        world.net_stats.grants_delayed += bandwidth;
                        continue;
                    }
                    let mut loss = network.link_loss(allocation.downloader, source, population);
                    if source_degraded {
                        loss = (loss * 2.0).min(1.0);
                    }
                    if loss > 0.0 && world.net_rng.gen_bool(loss) {
                        world.net_stats.grants_lost += bandwidth;
                        let fails = world.transfers.fail_grant(tid, now, BACKOFF_BASE_STEPS);
                        if fails > MAX_TRANSFER_RETRIES {
                            world.transfers.cancel(tid, now);
                            world.transfers.release(tid);
                            world.active_transfer[d] = None;
                            world.net_stats.transfers_failed += 1;
                        }
                        continue;
                    }
                }
                world.net_stats.grants_applied += bandwidth;
                ctx.downloaded[d] += bandwidth;
                ctx.source_upload_seen[d] = source_fraction.max(ctx.source_upload_seen[d]);
                ctx.bandwidth_share[d] = ctx.bandwidth_share[d].max(allocation.share);
                world.uploads.add(source.index(), d, bandwidth);
                tables.grant_queue.push((tid, bandwidth));
            }
        }
        world
            .transfers
            .apply_grants(&tables.grant_queue, now, &mut tables.completions);
        for &tid in &tables.completions {
            let transfer = world.transfers.transfer(tid);
            let (downloader, article) = (transfer.downloader, transfer.article);
            world.active_transfer[downloader.index()] = None;
            world.store.add_replica(downloader, article);
            world.transfers.release(tid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(downloader: u32, reputation: f64) -> DownloadRequest {
        DownloadRequest {
            downloader: PeerId(downloader),
            sharing_reputation: reputation,
            download_capacity: 1.0,
            uploaded_to_source: 0.0,
        }
    }

    #[test]
    fn request_table_buckets_keep_collection_order() {
        let mut table = RequestTable::default();
        table.begin_step(6);
        table.push(PeerId(4), request(0, 0.1), 10);
        table.push(PeerId(2), request(1, 0.2), 11);
        table.push(PeerId(4), request(3, 0.3), 12);
        table.push(PeerId(2), request(5, 0.4), 13);
        table.build();
        assert_eq!(table.len(), 4);
        assert_eq!(table.active_sources(), &[2, 4]);
        let (source, requests, transfers) = table.bucket(0);
        assert_eq!(source, PeerId(2));
        assert_eq!(transfers, &[11, 13]);
        assert_eq!(requests[0].downloader, PeerId(1));
        assert_eq!(requests[1].downloader, PeerId(5));
        let (source, requests, transfers) = table.bucket(1);
        assert_eq!(source, PeerId(4));
        assert_eq!(transfers, &[10, 12]);
        assert_eq!(requests[0].downloader, PeerId(0));
        assert_eq!(requests[1].downloader, PeerId(3));
    }

    #[test]
    fn request_table_reuse_resets_cleanly() {
        let mut table = RequestTable::default();
        table.begin_step(3);
        table.push(PeerId(1), request(0, 0.5), 7);
        table.build();
        assert_eq!(table.active_sources(), &[1]);
        table.begin_step(3);
        assert!(table.is_empty());
        table.build();
        assert!(table.active_sources().is_empty());
    }
}
