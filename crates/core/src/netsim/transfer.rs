//! Multi-step download sessions.
//!
//! The paper normalises file sizes to 1 and bandwidth to 1, so a peer
//! receiving the full upload bandwidth of a source finishes a download in a
//! single time step, while a peer receiving only a fraction needs several
//! steps. [`TransferManager`] tracks in-flight transfers, applies the
//! per-step bandwidth grants produced by the allocator, and reports
//! completions — the completion latency distribution is how service
//! differentiation becomes visible to the downloading peers.
//!
//! The manager is a **slot arena with a free list**: finished transfers
//! are folded into aggregate statistics (completion counts, durations,
//! per-peer byte totals) and their slots are [`released`](
//! TransferManager::release) for reuse, so the arena's footprint is
//! bounded by the number of *concurrently live* transfers — at most one
//! per downloading peer — instead of growing by one slot per download over
//! a 12 000-step run. `TransferManager::apply_grants` is the batched
//! entry point of the download phase: it applies a whole step's grants and
//! drains the resulting completions into a reusable buffer.

use crate::netsim::article::ArticleId;
use crate::netsim::peer::PeerId;
/// The growable accumulator slot at `index`, zero-extending as needed.
fn grow_slot(totals: &mut Vec<f64>, index: usize) -> &mut f64 {
    if totals.len() <= index {
        totals.resize(index + 1, 0.0);
    }
    &mut totals[index]
}

/// Status of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferStatus {
    /// Still transferring.
    InProgress,
    /// All bytes received.
    Completed,
    /// Cancelled (source went offline or withdrew the article).
    Cancelled,
}

/// A single article download by one peer from one source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Transfer {
    /// Slot identifier. Unique among *live* transfers; slots of released
    /// (finished and drained) transfers are reused.
    pub(crate) id: u64,
    /// The downloading peer.
    pub(crate) downloader: PeerId,
    /// The source peer.
    pub(crate) source: PeerId,
    /// The article being transferred.
    pub(crate) article: ArticleId,
    /// Total size (1.0 in the paper's normalisation).
    pub(crate) size: f64,
    /// Amount received so far.
    pub(crate) received: f64,
    /// Step at which the transfer started.
    pub(crate) started_at: u64,
    /// Step at which it completed or was cancelled.
    pub(crate) finished_at: Option<u64>,
    /// Current status.
    pub(crate) status: TransferStatus,
    /// Grants lost to the fault layer so far (bounded by the retry budget;
    /// always 0 on an ideal network).
    pub(crate) failures: u32,
    /// First step at which the transfer may request bandwidth again after
    /// a lost grant (exponential backoff; 0 = not backing off).
    pub(crate) backoff_until: u64,
    /// Last step at which bytes actually arrived (starts at `started_at`);
    /// the fault layer's timeout measures idle steps from here.
    pub(crate) last_progress_at: u64,
}

/// Manager for all in-flight transfers plus the aggregate statistics of
/// every transfer that ever ran.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TransferManager {
    transfers: Vec<Transfer>,
    /// Whether each slot currently holds a live (not yet released)
    /// transfer; parallel to `transfers`.
    in_use: Vec<bool>,
    /// Released slot ids available for reuse (LIFO, deterministic).
    free: Vec<u32>,
    /// Completed transfers ever (released ones included).
    completed: u64,
    /// Summed duration (steps) of completed transfers ever.
    completed_duration_sum: u64,
    /// Bytes received per downloader over *released* transfers, indexed by
    /// peer id (dense ids make a vector strictly cheaper than the hash map
    /// this used to be — `release` runs once per completed transfer).
    retired_received: Vec<f64>,
    /// Bytes served per source over *released* transfers, indexed like
    /// `retired_received`.
    retired_served: Vec<f64>,
}

/// The complete arena state of a [`TransferManager`], exported verbatim
/// for checkpointing — including the free list and `in_use` flags, so slot
/// recycling after a restore proceeds exactly as it would have in the
/// original process.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TransferArenaState {
    /// Every slot, live or released, in slot order.
    pub(crate) transfers: Vec<Transfer>,
    /// Liveness flag per slot.
    pub(crate) in_use: Vec<bool>,
    /// Released slot ids in stack order.
    pub(crate) free: Vec<u32>,
    /// Completed transfers ever.
    pub(crate) completed: u64,
    /// Summed duration of completed transfers ever.
    pub(crate) completed_duration_sum: u64,
    /// Retired bytes received per downloader.
    pub(crate) retired_received: Vec<f64>,
    /// Retired bytes served per source.
    pub(crate) retired_served: Vec<f64>,
}

impl TransferManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exports the full arena state for checkpointing.
    pub(crate) fn export_state(&self) -> TransferArenaState {
        TransferArenaState {
            transfers: self.transfers.clone(),
            in_use: self.in_use.clone(),
            free: self.free.clone(),
            completed: self.completed,
            completed_duration_sum: self.completed_duration_sum,
            retired_received: self.retired_received.clone(),
            retired_served: self.retired_served.clone(),
        }
    }

    /// Rebuilds a manager from an exported arena state, verbatim.
    pub(crate) fn from_state(state: TransferArenaState) -> Self {
        Self {
            transfers: state.transfers,
            in_use: state.in_use,
            free: state.free,
            completed: state.completed,
            completed_duration_sum: state.completed_duration_sum,
            retired_received: state.retired_received,
            retired_served: state.retired_served,
        }
    }

    /// Starts a new transfer of a unit-size article and returns its id.
    pub fn start(
        &mut self,
        downloader: PeerId,
        source: PeerId,
        article: ArticleId,
        now: u64,
    ) -> u64 {
        self.start_sized(downloader, source, article, 1.0, now)
    }

    /// Starts a transfer with an explicit size, reusing a released slot if
    /// one is available.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not positive.
    pub(crate) fn start_sized(
        &mut self,
        downloader: PeerId,
        source: PeerId,
        article: ArticleId,
        size: f64,
        now: u64,
    ) -> u64 {
        assert!(size > 0.0, "transfer size must be positive");
        let id = match self.free.pop() {
            Some(slot) => u64::from(slot),
            None => {
                self.transfers.push(Transfer {
                    id: 0,
                    downloader,
                    source,
                    article,
                    size,
                    received: 0.0,
                    started_at: now,
                    finished_at: None,
                    status: TransferStatus::InProgress,
                    failures: 0,
                    backoff_until: 0,
                    last_progress_at: now,
                });
                self.in_use.push(false);
                self.transfers.len() as u64 - 1
            }
        };
        self.transfers[id as usize] = Transfer {
            id,
            downloader,
            source,
            article,
            size,
            received: 0.0,
            started_at: now,
            finished_at: None,
            status: TransferStatus::InProgress,
            failures: 0,
            backoff_until: 0,
            last_progress_at: now,
        };
        self.in_use[id as usize] = true;
        id
    }

    /// Access to a live transfer by id.
    ///
    /// # Panics
    ///
    /// Panics if the slot has been released.
    pub(crate) fn transfer(&self, id: u64) -> &Transfer {
        assert!(self.in_use[id as usize], "transfer slot has been released");
        &self.transfers[id as usize]
    }

    /// Iterator over all live (not yet released) transfers, in slot order.
    pub(crate) fn live(&self) -> impl Iterator<Item = &Transfer> {
        self.transfers
            .iter()
            .zip(self.in_use.iter())
            .filter(|&(_, &in_use)| in_use)
            .map(|(t, _)| t)
    }

    /// Number of live transfers.
    pub fn live_count(&self) -> usize {
        self.in_use.iter().filter(|&&u| u).count()
    }

    /// Number of transfer slots the arena holds (live plus recyclable).
    /// Bounded by the peak number of concurrent transfers, not by the
    /// total number ever started.
    pub fn slot_count(&self) -> usize {
        self.transfers.len()
    }

    /// Applies a bandwidth grant to a transfer for the current step; marks
    /// it completed when the full size has been received. Returns the new
    /// status.
    ///
    /// # Panics
    ///
    /// Panics if the grant is negative or the transfer is not in progress.
    pub fn apply_grant(&mut self, id: u64, bandwidth: f64, now: u64) -> TransferStatus {
        assert!(bandwidth >= 0.0, "bandwidth grant must be >= 0");
        assert!(self.in_use[id as usize], "transfer slot has been released");
        let t = &mut self.transfers[id as usize];
        assert_eq!(
            t.status,
            TransferStatus::InProgress,
            "grant applied to a finished transfer"
        );
        t.received += bandwidth;
        if bandwidth > 0.0 {
            t.last_progress_at = now;
        }
        if t.received + 1e-12 >= t.size {
            t.received = t.size;
            t.status = TransferStatus::Completed;
            t.finished_at = Some(now);
            self.completed += 1;
            self.completed_duration_sum += now.saturating_sub(t.started_at);
        }
        t.status
    }

    /// Batched grant application — the download phase's entry point.
    /// Applies every `(transfer id, bandwidth)` grant in order and pushes
    /// the ids of transfers that completed under this batch onto
    /// `completions` (cleared first), in grant order, so the caller can
    /// drain completion effects and [`release`](TransferManager::release)
    /// the slots.
    pub(crate) fn apply_grants(
        &mut self,
        grants: &[(u64, f64)],
        now: u64,
        completions: &mut Vec<u64>,
    ) {
        completions.clear();
        for &(id, bandwidth) in grants {
            if self.apply_grant(id, bandwidth, now) == TransferStatus::Completed {
                completions.push(id);
            }
        }
    }

    /// Cancels an in-progress transfer (no effect if already finished).
    pub fn cancel(&mut self, id: u64, now: u64) {
        assert!(self.in_use[id as usize], "transfer slot has been released");
        let t = &mut self.transfers[id as usize];
        if t.status == TransferStatus::InProgress {
            t.status = TransferStatus::Cancelled;
            t.finished_at = Some(now);
        }
    }

    /// Records a lost grant on an in-progress transfer: increments its
    /// failure count and opens an exponential backoff window of
    /// `backoff_base << (failures - 1)` steps starting at `now`. Returns
    /// the new failure count so the caller can enforce a retry budget.
    ///
    /// # Panics
    ///
    /// Panics if the transfer is not in progress.
    pub(crate) fn fail_grant(&mut self, id: u64, now: u64, backoff_base: u64) -> u32 {
        assert!(self.in_use[id as usize], "transfer slot has been released");
        let t = &mut self.transfers[id as usize];
        assert_eq!(
            t.status,
            TransferStatus::InProgress,
            "lost grant recorded on a finished transfer"
        );
        t.failures += 1;
        t.backoff_until = now + (backoff_base << (t.failures - 1).min(16));
        t.failures
    }

    /// Whether the transfer is inside a backoff window at `now` (it should
    /// not request bandwidth this step).
    pub(crate) fn in_backoff(&self, id: u64, now: u64) -> bool {
        assert!(self.in_use[id as usize], "transfer slot has been released");
        now < self.transfers[id as usize].backoff_until
    }

    /// Whether the transfer has gone `timeout` or more steps without
    /// receiving bytes at `now`.
    pub(crate) fn timed_out(&self, id: u64, now: u64, timeout: u64) -> bool {
        assert!(self.in_use[id as usize], "transfer slot has been released");
        now.saturating_sub(self.transfers[id as usize].last_progress_at) >= timeout
    }

    /// Releases a finished transfer's slot for reuse. Its contribution to
    /// the aggregate statistics (completion counts and durations, per-peer
    /// byte totals) is retained.
    ///
    /// # Panics
    ///
    /// Panics if the transfer is still in progress or already released.
    pub fn release(&mut self, id: u64) {
        assert!(self.in_use[id as usize], "transfer slot already released");
        let t = self.transfers[id as usize];
        assert_ne!(
            t.status,
            TransferStatus::InProgress,
            "cannot release an in-progress transfer"
        );
        if t.received != 0.0 {
            *grow_slot(&mut self.retired_received, t.downloader.index()) += t.received;
            *grow_slot(&mut self.retired_served, t.source.index()) += t.received;
        }
        self.in_use[id as usize] = false;
        self.free.push(id as u32);
    }

    /// Number of completed transfers ever (released ones included).
    pub fn completed_count(&self) -> usize {
        self.completed as usize
    }

    /// Mean duration (in steps) of completed transfers ever.
    pub fn mean_completion_steps(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.completed_duration_sum as f64 / self.completed as f64
    }

    /// Total bandwidth delivered to a downloader over all its transfers,
    /// released ones included.
    pub fn total_received_by(&self, downloader: PeerId) -> f64 {
        let retired = self
            .retired_received
            .get(downloader.index())
            .copied()
            .unwrap_or(0.0);
        retired
            + self
                .live()
                .filter(|t| t.downloader == downloader)
                .map(|t| t.received)
                .sum::<f64>()
    }

    /// Total bandwidth served by a source over all its transfers, released
    /// ones included.
    pub fn total_served_by(&self, source: PeerId) -> f64 {
        let retired = self
            .retired_served
            .get(source.index())
            .copied()
            .unwrap_or(0.0);
        retired
            + self
                .live()
                .filter(|t| t.source == source)
                .map(|t| t.received)
                .sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_transfer_completes_with_full_bandwidth() {
        let mut m = TransferManager::new();
        let id = m.start(PeerId(0), PeerId(1), ArticleId(0), 10);
        assert_eq!(m.transfer(id).received, 0.0);
        let status = m.apply_grant(id, 1.0, 10);
        assert_eq!(status, TransferStatus::Completed);
        assert_eq!(m.transfer(id).finished_at, Some(10));
        assert_eq!(m.completed_count(), 1);
    }

    #[test]
    fn partial_grants_accumulate_over_steps() {
        let mut m = TransferManager::new();
        let id = m.start(PeerId(0), PeerId(1), ArticleId(0), 0);
        assert_eq!(m.apply_grant(id, 0.3, 0), TransferStatus::InProgress);
        assert_eq!(m.apply_grant(id, 0.3, 1), TransferStatus::InProgress);
        assert!((m.transfer(id).received - 0.6).abs() < 1e-12);
        assert_eq!(m.apply_grant(id, 0.4, 2), TransferStatus::Completed);
        assert_eq!(m.transfer(id).finished_at, Some(2));
        assert!((m.mean_completion_steps() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn low_bandwidth_share_means_longer_download() {
        // Service differentiation in action: the low-reputation downloader's
        // 0.1 share takes 10 steps; the high-reputation one's 0.9 takes 2.
        let mut m = TransferManager::new();
        let slow = m.start(PeerId(0), PeerId(9), ArticleId(0), 0);
        let fast = m.start(PeerId(1), PeerId(9), ArticleId(0), 0);
        let mut now = 0;
        while m.transfer(fast).status == TransferStatus::InProgress {
            m.apply_grant(fast, 0.9, now);
            m.apply_grant(slow, 0.1, now);
            now += 1;
        }
        while m.transfer(slow).status == TransferStatus::InProgress {
            m.apply_grant(slow, 0.1, now);
            now += 1;
        }
        // Both started at step 0.
        assert!(m.transfer(slow).finished_at > m.transfer(fast).finished_at);
    }

    #[test]
    fn cancel_stops_a_transfer() {
        let mut m = TransferManager::new();
        let id = m.start(PeerId(0), PeerId(1), ArticleId(0), 0);
        m.cancel(id, 3);
        assert_eq!(m.transfer(id).status, TransferStatus::Cancelled);
        assert_eq!(m.transfer(id).finished_at, Some(3));
        // Cancel after completion is a no-op.
        let done = m.start(PeerId(0), PeerId(1), ArticleId(1), 4);
        m.apply_grant(done, 1.0, 4);
        m.cancel(done, 5);
        assert_eq!(m.transfer(done).status, TransferStatus::Completed);
    }

    #[test]
    fn totals_by_peer() {
        let mut m = TransferManager::new();
        let a = m.start(PeerId(0), PeerId(1), ArticleId(0), 0);
        let b = m.start(PeerId(0), PeerId(2), ArticleId(1), 0);
        m.apply_grant(a, 0.5, 0);
        m.apply_grant(b, 0.25, 0);
        assert!((m.total_received_by(PeerId(0)) - 0.75).abs() < 1e-12);
        assert!((m.total_served_by(PeerId(1)) - 0.5).abs() < 1e-12);
        assert_eq!(m.total_served_by(PeerId(9)), 0.0);
    }

    #[test]
    fn batched_grants_drain_completions_in_grant_order() {
        let mut m = TransferManager::new();
        let a = m.start(PeerId(0), PeerId(9), ArticleId(0), 0);
        let b = m.start(PeerId(1), PeerId(9), ArticleId(1), 0);
        let c = m.start(PeerId(2), PeerId(9), ArticleId(2), 0);
        let mut completions = vec![42]; // stale content must be cleared
        m.apply_grants(&[(a, 1.0), (b, 0.5), (c, 1.0)], 3, &mut completions);
        assert_eq!(completions, vec![a, c]);
        assert_eq!(m.transfer(b).status, TransferStatus::InProgress);
        assert_eq!(m.completed_count(), 2);
    }

    #[test]
    fn released_slots_are_reused_lifo_with_fresh_state() {
        let mut m = TransferManager::new();
        let a = m.start(PeerId(0), PeerId(1), ArticleId(0), 0);
        m.apply_grant(a, 1.0, 2);
        m.release(a);
        assert_eq!(m.slot_count(), 1);
        assert_eq!(m.live_count(), 0);
        // The slot comes back with a brand-new transfer: nothing of the
        // completed predecessor (status, bytes, timestamps) survives.
        let b = m.start(PeerId(5), PeerId(6), ArticleId(9), 7);
        assert_eq!(b, a, "released slot must be reused");
        assert_eq!(m.slot_count(), 1, "arena must not grow");
        let t = m.transfer(b);
        assert_eq!(t.status, TransferStatus::InProgress);
        assert_eq!(t.received, 0.0);
        assert_eq!(t.started_at, 7);
        assert_eq!(t.finished_at, None);
        assert_eq!(t.downloader, PeerId(5));
        // Aggregates still remember the released transfer.
        assert_eq!(m.completed_count(), 1);
        assert!((m.mean_completion_steps() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn release_retains_per_peer_byte_totals() {
        let mut m = TransferManager::new();
        let a = m.start(PeerId(0), PeerId(1), ArticleId(0), 0);
        m.apply_grant(a, 0.4, 0);
        m.cancel(a, 1);
        m.release(a);
        // Partial bytes of the cancelled, released transfer still count.
        assert!((m.total_received_by(PeerId(0)) - 0.4).abs() < 1e-12);
        assert!((m.total_served_by(PeerId(1)) - 0.4).abs() < 1e-12);
        // A reused slot adds on top instead of resurrecting old state.
        let b = m.start(PeerId(0), PeerId(1), ArticleId(1), 2);
        m.apply_grant(b, 0.5, 2);
        assert!((m.total_received_by(PeerId(0)) - 0.9).abs() < 1e-12);
        assert!((m.total_served_by(PeerId(1)) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn live_iteration_skips_released_slots() {
        let mut m = TransferManager::new();
        let a = m.start(PeerId(0), PeerId(1), ArticleId(0), 0);
        let b = m.start(PeerId(2), PeerId(3), ArticleId(1), 0);
        m.apply_grant(a, 1.0, 0);
        m.release(a);
        let live: Vec<u64> = m.live().map(|t| t.id).collect();
        assert_eq!(live, vec![b]);
    }

    #[test]
    #[should_panic(expected = "in-progress")]
    fn releasing_an_in_progress_transfer_panics() {
        let mut m = TransferManager::new();
        let id = m.start(PeerId(0), PeerId(1), ArticleId(0), 0);
        m.release(id);
    }

    #[test]
    #[should_panic(expected = "released")]
    fn double_release_panics() {
        let mut m = TransferManager::new();
        let id = m.start(PeerId(0), PeerId(1), ArticleId(0), 0);
        m.cancel(id, 0);
        m.release(id);
        m.release(id);
    }

    #[test]
    #[should_panic(expected = "released")]
    fn grant_to_a_released_slot_panics() {
        let mut m = TransferManager::new();
        let id = m.start(PeerId(0), PeerId(1), ArticleId(0), 0);
        m.apply_grant(id, 1.0, 0);
        m.release(id);
        m.apply_grant(id, 0.1, 1);
    }

    #[test]
    #[should_panic(expected = "finished transfer")]
    fn grant_after_completion_panics() {
        let mut m = TransferManager::new();
        let id = m.start(PeerId(0), PeerId(1), ArticleId(0), 0);
        m.apply_grant(id, 1.0, 0);
        m.apply_grant(id, 0.1, 1);
    }

    #[test]
    #[should_panic(expected = "size must be positive")]
    fn zero_size_transfer_panics() {
        let mut m = TransferManager::new();
        m.start_sized(PeerId(0), PeerId(1), ArticleId(0), 0.0, 0);
    }

    #[test]
    fn lost_grants_back_off_exponentially() {
        let mut m = TransferManager::new();
        let id = m.start(PeerId(0), PeerId(1), ArticleId(0), 0);
        assert_eq!(m.transfer(id).failures, 0);
        assert!(!m.in_backoff(id, 0));
        // First loss: 2-step window.
        assert_eq!(m.fail_grant(id, 0, 2), 1);
        assert!(m.in_backoff(id, 1));
        assert!(!m.in_backoff(id, 2));
        // Second loss: 4-step window.
        assert_eq!(m.fail_grant(id, 2, 2), 2);
        assert!(m.in_backoff(id, 5));
        assert!(!m.in_backoff(id, 6));
        // Third loss: 8-step window.
        assert_eq!(m.fail_grant(id, 6, 2), 3);
        assert_eq!(m.transfer(id).backoff_until, 14);
    }

    #[test]
    fn timeout_measures_idle_steps_since_last_progress() {
        let mut m = TransferManager::new();
        let id = m.start(PeerId(0), PeerId(1), ArticleId(0), 10);
        assert!(!m.timed_out(id, 10, 16));
        assert!(m.timed_out(id, 26, 16));
        // Received bytes reset the idle clock; a zero-bandwidth grant
        // does not.
        m.apply_grant(id, 0.2, 20);
        assert!(!m.timed_out(id, 26, 16));
        m.apply_grant(id, 0.0, 30);
        assert!(m.timed_out(id, 36, 16));
    }

    #[test]
    fn reused_slots_reset_fault_state() {
        let mut m = TransferManager::new();
        let a = m.start(PeerId(0), PeerId(1), ArticleId(0), 0);
        m.fail_grant(a, 0, 2);
        m.cancel(a, 1);
        m.release(a);
        let b = m.start(PeerId(2), PeerId(3), ArticleId(1), 5);
        assert_eq!(b, a, "released slot must be reused");
        assert_eq!(m.transfer(b).failures, 0);
        assert!(!m.in_backoff(b, 5));
        assert_eq!(m.transfer(b).last_progress_at, 5);
    }
}
