//! Per-peer article stores and replication bookkeeping.
//!
//! Sharing storage space is one of the two "classic" resources of the
//! collaboration network (next to bandwidth): a peer decides how many of the
//! articles it holds to offer for download, and the network as a whole needs
//! every article to stay available even though individual peers churn.
//! [`ArticleStore`] tracks which peer holds which article replicas and how
//! many it currently *offers*.
//!
//! Held and offered sets are stored as **sorted vectors**: every consumer
//! (the sharing phase's offered-prefix rule, the download phase's article
//! pick) wants identifier order anyway, and the sorted representation makes
//! the per-step re-offer a prefix `memcpy` into a reused buffer instead of
//! a fresh hash set per peer per step — the former allocation hot spot of
//! the sharing phase.
//!
//! Both tables are **dense vectors** addressed by the peer id: peer ids
//! are small dense integers, so hashing them (the store's former `HashMap`
//! representation) only paid SipHash on every lookup of the download and
//! sharing hot loops. Rows grow on demand; a missing row reads as empty,
//! exactly like an absent map entry did. No phase asks which peers hold an
//! article, so the store keeps no article → holders index:
//! [`ArticleStore::holding_peers`] scans the peer rows instead, which
//! yields peers in identifier order.

use crate::article::ArticleId;
use crate::peer::PeerId;

/// Replica placement and offering state across the population.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ArticleStore {
    /// peer index → articles it physically holds, sorted by identifier.
    held: Vec<Vec<ArticleId>>,
    /// peer index → articles it currently offers for download (a subset of
    /// held, sorted). The vectors are reused in place by
    /// [`ArticleStore::set_offered_count`], so steady-state re-offering
    /// performs no allocation.
    offered: Vec<Vec<ArticleId>>,
}

/// The row at `index`, or the empty slice when the table has no such row.
fn row<T>(rows: &[Vec<T>], index: usize) -> &[T] {
    rows.get(index).map_or(&[], Vec::as_slice)
}

/// The growable row at `index`, extending the table with empty rows as
/// needed.
fn row_mut<T>(rows: &mut Vec<Vec<T>>, index: usize) -> &mut Vec<T> {
    if rows.len() <= index {
        rows.resize_with(index + 1, Vec::new);
    }
    &mut rows[index]
}

impl ArticleStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The held table (peer index → sorted held articles), for
    /// checkpointing.
    pub fn held_rows(&self) -> &[Vec<ArticleId>] {
        &self.held
    }

    /// The offered table, row-aligned with [`ArticleStore::held_rows`].
    pub fn offered_rows(&self) -> &[Vec<ArticleId>] {
        &self.offered
    }

    /// Rebuilds a store from checkpointed held/offered tables.
    pub fn from_rows(held: Vec<Vec<ArticleId>>, offered: Vec<Vec<ArticleId>>) -> Self {
        Self { held, offered }
    }

    /// Records that `peer` holds a replica of `article`.
    pub fn add_replica(&mut self, peer: PeerId, article: ArticleId) {
        let held = row_mut(&mut self.held, peer.index());
        if let Err(pos) = held.binary_search(&article) {
            held.insert(pos, article);
        }
    }

    /// Number of replicas `peer` holds.
    pub fn held_count(&self, peer: PeerId) -> usize {
        row(&self.held, peer.index()).len()
    }

    /// Sets how many of its held articles `peer` offers: the first
    /// `count` articles in identifier order are offered (a deterministic
    /// stand-in for "the peer picks which files to share"). Returns the
    /// number actually offered (bounded by what the peer holds).
    ///
    /// The offered vector is rewritten in place, so calling this every
    /// step (as the sharing phase does) allocates nothing once the buffer
    /// has grown to its steady-state size.
    pub fn set_offered_count(&mut self, peer: PeerId, count: usize) -> usize {
        let Self { held, offered, .. } = self;
        let held = row(held, peer.index());
        let n = count.min(held.len());
        let offered = row_mut(offered, peer.index());
        offered.clear();
        offered.extend_from_slice(&held[..n]);
        n
    }

    /// Articles currently offered by `peer`, sorted by identifier.
    pub fn offered_by(&self, peer: PeerId) -> &[ArticleId] {
        row(&self.offered, peer.index())
    }

    /// Articles `peer` holds (offered or not), sorted by identifier.
    pub fn held_by(&self, peer: PeerId) -> &[ArticleId] {
        row(&self.held, peer.index())
    }

    /// Peers holding `article` (offering or not), sorted.
    pub fn holding_peers(&self, article: ArticleId) -> Vec<PeerId> {
        self.held
            .iter()
            .enumerate()
            .filter(|(_, row)| row.binary_search(&article).is_ok())
            .map(|(peer, _)| PeerId(u32::try_from(peer).expect("too many peers")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<ArticleId> {
        (0..n).map(ArticleId).collect()
    }

    #[test]
    fn add_and_query_replicas() {
        let mut s = ArticleStore::new();
        s.add_replica(PeerId(0), ArticleId(1));
        s.add_replica(PeerId(0), ArticleId(2));
        s.add_replica(PeerId(1), ArticleId(1));
        assert_eq!(s.held_count(PeerId(0)), 2);
        assert_eq!(s.held_by(PeerId(1)), &[ArticleId(1)]);
        assert_eq!(s.holding_peers(ArticleId(1)), vec![PeerId(0), PeerId(1)]);
    }

    #[test]
    fn duplicate_add_replica_is_idempotent() {
        let mut s = ArticleStore::new();
        s.add_replica(PeerId(0), ArticleId(3));
        s.add_replica(PeerId(0), ArticleId(3));
        assert_eq!(s.held_count(PeerId(0)), 1);
    }

    #[test]
    fn offering_is_a_subset_of_holding() {
        let mut s = ArticleStore::new();
        for a in ids(5) {
            s.add_replica(PeerId(0), a);
        }
        let offered = s.set_offered_count(PeerId(0), 3);
        assert_eq!(offered, 3);
        assert_eq!(s.offered_by(PeerId(0)), &ids(3)[..]);
        // Requesting more than held clamps.
        assert_eq!(s.set_offered_count(PeerId(0), 99), 5);
    }

    #[test]
    fn offered_by_is_the_sorted_prefix_of_held() {
        let mut s = ArticleStore::new();
        for a in [ArticleId(9), ArticleId(2), ArticleId(5)] {
            s.add_replica(PeerId(0), a);
        }
        s.set_offered_count(PeerId(0), 2);
        assert_eq!(s.offered_by(PeerId(0)), &[ArticleId(2), ArticleId(5)]);
        assert_eq!(s.offered_by(PeerId(7)), &[] as &[ArticleId]);
        assert_eq!(
            s.held_by(PeerId(0)),
            &[ArticleId(2), ArticleId(5), ArticleId(9)]
        );
        assert_eq!(s.held_by(PeerId(7)), &[] as &[ArticleId]);
    }

    #[test]
    fn set_offered_zero_withdraws_everything() {
        let mut s = ArticleStore::new();
        s.add_replica(PeerId(0), ArticleId(0));
        s.set_offered_count(PeerId(0), 1);
        assert_eq!(s.offered_by(PeerId(0)), &[ArticleId(0)]);
        s.set_offered_count(PeerId(0), 0);
        assert!(s.offered_by(PeerId(0)).is_empty());
    }
}
