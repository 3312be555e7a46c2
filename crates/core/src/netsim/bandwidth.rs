//! Upload-bandwidth allocation among concurrent downloaders.
//!
//! This is the resource the incentive scheme differentiates: "if several
//! peers want to download a file from the same source, they compete for the
//! source's upload bandwidth" (Section III-C1). The allocator takes the set
//! of download requests directed at one source in one time step and splits
//! the source's offered upload bandwidth among them according to a policy:
//!
//! * [`AllocationPolicy::EqualSplit`] — the no-incentive baseline,
//! * [`AllocationPolicy::WeightedByReputation`] — the paper's rule
//!   `B_i = R_S^i / Σ_k R_S^k`,
//! * [`AllocationPolicy::TitForTat`] — a BitTorrent-style direct-relation
//!   policy: bandwidth is split proportionally to what the downloader has
//!   previously uploaded *to this source* (the baseline the paper argues
//!   cannot work for non-direct relations).
//!
//! Allocated bandwidth is additionally capped by each downloader's own
//! download capacity; freed capacity is redistributed among the un-capped
//! downloaders (water-filling), so the source's bandwidth is never wasted
//! while any downloader could still use it.

use crate::netsim::peer::PeerId;

/// A request by `downloader` to download from a source during one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DownloadRequest {
    /// The requesting peer.
    pub downloader: PeerId,
    /// The requester's sharing reputation `R_S` (used by the reputation
    /// policy).
    pub sharing_reputation: f64,
    /// The requester's remaining download capacity this step.
    pub download_capacity: f64,
    /// Bandwidth this requester has historically uploaded to the source
    /// (used by the tit-for-tat policy).
    pub uploaded_to_source: f64,
}

/// How a source's upload bandwidth is divided among its downloaders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationPolicy {
    /// Every downloader gets an equal share (no incentive).
    EqualSplit,
    /// Shares proportional to sharing reputation (the paper's scheme).
    WeightedByReputation,
    /// Shares proportional to bandwidth previously uploaded to this source
    /// (direct-relation tit-for-tat).
    TitForTat,
}

/// One downloader's allocation result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Allocation {
    /// The downloader.
    pub downloader: PeerId,
    /// Fraction of the source's offered upload bandwidth granted
    /// (before capacity capping).
    pub(crate) share: f64,
    /// Absolute bandwidth granted after capping by the downloader's
    /// capacity and redistributing the excess.
    pub bandwidth: f64,
}

/// Reusable scratch buffers for [`BandwidthAllocator::allocate_into`].
///
/// One scratch reused across sources lets the download phase's
/// allocate-and-apply loop run every per-source allocation without a
/// single heap allocation in steady state.
#[derive(Debug, Clone, Default)]
pub struct AllocScratch {
    /// Policy shares of the current request set (also the water-filling
    /// weights — the shares never change during the fill).
    shares: Vec<f64>,
    /// Remaining download capacity per requester.
    capacity: Vec<f64>,
}

/// The bandwidth allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandwidthAllocator {
    policy: AllocationPolicy,
}

impl BandwidthAllocator {
    /// Creates an allocator with the given policy.
    pub fn new(policy: AllocationPolicy) -> Self {
        Self { policy }
    }

    /// Whether the policy reads [`DownloadRequest::uploaded_to_source`]:
    /// only tit-for-tat does, so a caller may leave the field at 0.0 for
    /// every other policy without changing any share.
    pub(crate) fn reads_upload_history(&self) -> bool {
        self.policy == AllocationPolicy::TitForTat
    }

    /// Raw (pre-capacity) shares for a request set according to the
    /// policy, written into `out` (cleared first). Shares sum to 1 unless
    /// the request set is empty.
    pub fn shares_into(&self, requests: &[DownloadRequest], out: &mut Vec<f64>) {
        out.clear();
        if requests.is_empty() {
            return;
        }
        match self.policy {
            AllocationPolicy::EqualSplit => out.extend(requests.iter().map(|_| 1.0)),
            AllocationPolicy::WeightedByReputation => {
                out.extend(requests.iter().map(|r| r.sharing_reputation.max(0.0)));
            }
            AllocationPolicy::TitForTat => {
                out.extend(requests.iter().map(|r| r.uploaded_to_source.max(0.0)));
            }
        }
        let sum: f64 = out.iter().sum();
        if sum <= 0.0 {
            // Degenerate case (all-zero weights): fall back to equal split so
            // the source's bandwidth is not wasted.
            out.fill(1.0 / requests.len() as f64);
            return;
        }
        for w in out.iter_mut() {
            *w /= sum;
        }
    }

    /// Full allocation: splits `offered_upload` according to the policy,
    /// caps each downloader at its capacity, and redistributes freed
    /// bandwidth among the remaining downloaders (water-filling). The
    /// per-call share/capacity vectors live in `scratch` and the
    /// `requests.len()` resulting [`Allocation`]s are **appended** to
    /// `out`, so a caller looping over many sources (the download phase)
    /// performs no steady-state allocation.
    pub fn allocate_into(
        &self,
        offered_upload: f64,
        requests: &[DownloadRequest],
        scratch: &mut AllocScratch,
        out: &mut Vec<Allocation>,
    ) {
        assert!(offered_upload >= 0.0, "offered upload must be >= 0");
        self.shares_into(requests, &mut scratch.shares);
        let base = out.len();
        out.extend(
            requests
                .iter()
                .zip(scratch.shares.iter())
                .map(|(r, &share)| Allocation {
                    downloader: r.downloader,
                    share,
                    bandwidth: 0.0,
                }),
        );
        if requests.is_empty() || offered_upload <= 0.0 {
            return;
        }
        let allocations = &mut out[base..];

        // Water-filling: repeatedly hand out bandwidth proportionally to the
        // policy shares among downloaders that still have spare capacity.
        scratch.capacity.clear();
        scratch
            .capacity
            .extend(requests.iter().map(|r| r.download_capacity.max(0.0)));
        let weights = &scratch.shares;
        let remaining_capacity = &mut scratch.capacity;
        let mut budget = offered_upload;
        for _ in 0..requests.len() {
            let active_weight: f64 = weights
                .iter()
                .zip(remaining_capacity.iter())
                .filter(|&(_, &cap)| cap > 1e-15)
                .map(|(&w, _)| w)
                .sum();
            if budget <= 1e-15 || active_weight <= 1e-15 {
                break;
            }
            let mut distributed = 0.0;
            for i in 0..requests.len() {
                if remaining_capacity[i] <= 1e-15 || weights[i] <= 0.0 {
                    continue;
                }
                let offer = budget * weights[i] / active_weight;
                let granted = offer.min(remaining_capacity[i]);
                allocations[i].bandwidth += granted;
                remaining_capacity[i] -= granted;
                distributed += granted;
            }
            budget -= distributed;
            if distributed <= 1e-15 {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shares(alloc: &BandwidthAllocator, requests: &[DownloadRequest]) -> Vec<f64> {
        let mut out = vec![7.0];
        alloc.shares_into(requests, &mut out);
        out
    }

    fn allocate(
        alloc: &BandwidthAllocator,
        offered_upload: f64,
        requests: &[DownloadRequest],
    ) -> Vec<Allocation> {
        let mut out = Vec::new();
        alloc.allocate_into(
            offered_upload,
            requests,
            &mut AllocScratch::default(),
            &mut out,
        );
        out
    }

    fn request(id: u32, reputation: f64) -> DownloadRequest {
        DownloadRequest {
            downloader: PeerId(id),
            sharing_reputation: reputation,
            download_capacity: 1.0,
            uploaded_to_source: 0.0,
        }
    }

    #[test]
    fn equal_split_ignores_reputation() {
        let alloc = BandwidthAllocator::new(AllocationPolicy::EqualSplit);
        let reqs = [request(0, 0.05), request(1, 0.9)];
        let shares = shares(&alloc, &reqs);
        assert_eq!(shares, vec![0.5, 0.5]);
    }

    #[test]
    fn reputation_policy_matches_paper_formula() {
        let alloc = BandwidthAllocator::new(AllocationPolicy::WeightedByReputation);
        let reqs = [request(0, 0.1), request(1, 0.3), request(2, 0.6)];
        let shares = shares(&alloc, &reqs);
        assert!((shares[0] - 0.1).abs() < 1e-12);
        assert!((shares[1] - 0.3).abs() < 1e-12);
        assert!((shares[2] - 0.6).abs() < 1e-12);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn only_tit_for_tat_reads_the_upload_history() {
        let with_history = |history: f64| {
            let mut reqs = [request(0, 0.2), request(1, 0.7)];
            reqs[1].uploaded_to_source = history;
            reqs
        };
        for policy in [
            AllocationPolicy::EqualSplit,
            AllocationPolicy::WeightedByReputation,
            AllocationPolicy::TitForTat,
        ] {
            let alloc = BandwidthAllocator::new(policy);
            let moved = shares(&alloc, &with_history(0.0)) != shares(&alloc, &with_history(3.0));
            assert_eq!(moved, alloc.reads_upload_history(), "{policy:?}");
        }
    }

    #[test]
    fn tit_for_tat_uses_direct_history() {
        let alloc = BandwidthAllocator::new(AllocationPolicy::TitForTat);
        let reqs = [
            DownloadRequest {
                downloader: PeerId(0),
                sharing_reputation: 0.9, // ignored by TFT
                download_capacity: 1.0,
                uploaded_to_source: 0.0,
            },
            DownloadRequest {
                downloader: PeerId(1),
                sharing_reputation: 0.05,
                download_capacity: 1.0,
                uploaded_to_source: 3.0,
            },
        ];
        let shares = shares(&alloc, &reqs);
        assert_eq!(shares[0], 0.0);
        assert_eq!(shares[1], 1.0);
    }

    #[test]
    fn zero_weights_fall_back_to_equal_split() {
        let alloc = BandwidthAllocator::new(AllocationPolicy::TitForTat);
        let reqs = [request(0, 0.5), request(1, 0.5), request(2, 0.5)];
        let shares = shares(&alloc, &reqs);
        for s in shares {
            assert!((s - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn allocation_splits_offered_bandwidth() {
        let alloc = BandwidthAllocator::new(AllocationPolicy::WeightedByReputation);
        let reqs = [request(0, 0.25), request(1, 0.75)];
        let result = allocate(&alloc, 1.0, &reqs);
        assert!((result[0].bandwidth - 0.25).abs() < 1e-12);
        assert!((result[1].bandwidth - 0.75).abs() < 1e-12);
        let total: f64 = result.iter().map(|a| a.bandwidth).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_cap_redistributes_to_others() {
        let alloc = BandwidthAllocator::new(AllocationPolicy::EqualSplit);
        let reqs = [
            DownloadRequest {
                downloader: PeerId(0),
                sharing_reputation: 0.5,
                download_capacity: 0.1, // can only take 0.1
                uploaded_to_source: 0.0,
            },
            DownloadRequest {
                downloader: PeerId(1),
                sharing_reputation: 0.5,
                download_capacity: 1.0,
                uploaded_to_source: 0.0,
            },
        ];
        let result = allocate(&alloc, 1.0, &reqs);
        assert!((result[0].bandwidth - 0.1).abs() < 1e-12);
        assert!((result[1].bandwidth - 0.9).abs() < 1e-12);
    }

    #[test]
    fn nothing_offered_allocates_nothing() {
        let alloc = BandwidthAllocator::new(AllocationPolicy::EqualSplit);
        let reqs = [request(0, 0.5)];
        let result = allocate(&alloc, 0.0, &reqs);
        assert_eq!(result[0].bandwidth, 0.0);
    }

    #[test]
    fn empty_request_set_is_empty() {
        let alloc = BandwidthAllocator::new(AllocationPolicy::EqualSplit);
        assert!(allocate(&alloc, 1.0, &[]).is_empty());
        assert!(shares(&alloc, &[]).is_empty());
    }

    #[test]
    fn total_never_exceeds_offer_or_capacity() {
        let alloc = BandwidthAllocator::new(AllocationPolicy::WeightedByReputation);
        let reqs = [
            DownloadRequest {
                downloader: PeerId(0),
                sharing_reputation: 0.9,
                download_capacity: 0.2,
                uploaded_to_source: 0.0,
            },
            DownloadRequest {
                downloader: PeerId(1),
                sharing_reputation: 0.1,
                download_capacity: 0.2,
                uploaded_to_source: 0.0,
            },
        ];
        let result = allocate(&alloc, 1.0, &reqs);
        let total: f64 = result.iter().map(|a| a.bandwidth).sum();
        assert!(total <= 0.4 + 1e-12);
        for a in &result {
            assert!(a.bandwidth <= 0.2 + 1e-12);
        }
    }

    #[test]
    fn allocate_into_appends_and_matches_allocate_bitwise() {
        let reqs_a = [request(0, 0.1), request(1, 0.3), request(2, 0.6)];
        let reqs_b = [
            DownloadRequest {
                downloader: PeerId(3),
                sharing_reputation: 0.9,
                download_capacity: 0.2,
                uploaded_to_source: 0.0,
            },
            DownloadRequest {
                downloader: PeerId(4),
                sharing_reputation: 0.1,
                download_capacity: 0.2,
                uploaded_to_source: 0.0,
            },
        ];
        for policy in [
            AllocationPolicy::EqualSplit,
            AllocationPolicy::WeightedByReputation,
            AllocationPolicy::TitForTat,
        ] {
            let alloc = BandwidthAllocator::new(policy);
            // One scratch reused across sources, results appended.
            let mut scratch = AllocScratch::default();
            let mut out = Vec::new();
            alloc.allocate_into(0.8, &reqs_a, &mut scratch, &mut out);
            alloc.allocate_into(1.0, &reqs_b, &mut scratch, &mut out);
            // Reference: each source allocated into a fresh vector.
            let reference: Vec<Allocation> = allocate(&alloc, 0.8, &reqs_a)
                .into_iter()
                .chain(allocate(&alloc, 1.0, &reqs_b))
                .collect();
            assert_eq!(out.len(), reference.len());
            for (got, want) in out.iter().zip(reference.iter()) {
                assert_eq!(got.downloader, want.downloader);
                assert_eq!(got.share.to_bits(), want.share.to_bits());
                assert_eq!(got.bandwidth.to_bits(), want.bandwidth.to_bits());
            }
        }
    }

    #[test]
    fn high_reputation_peer_beats_equal_split() {
        // The incentive at work: with differentiation the contributor gets
        // more than under the equal split, the free-rider less.
        let reqs = [request(0, 0.05), request(1, 0.05), request(2, 0.9)];
        let with = allocate(
            &BandwidthAllocator::new(AllocationPolicy::WeightedByReputation),
            1.0,
            &reqs,
        );
        let without = allocate(
            &BandwidthAllocator::new(AllocationPolicy::EqualSplit),
            1.0,
            &reqs,
        );
        assert!(with[2].bandwidth > without[2].bandwidth);
        assert!(with[0].bandwidth < without[0].bandwidth);
    }
}
