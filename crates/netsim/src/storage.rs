//! Per-peer article stores and replication bookkeeping.
//!
//! Sharing storage space is one of the two "classic" resources of the
//! collaboration network (next to bandwidth): a peer decides how many of the
//! articles it holds to offer for download, and the network as a whole needs
//! every article to stay available even though individual peers churn.
//! [`ArticleStore`] tracks which peer holds which article replicas and how
//! many it currently *offers*, and computes the availability metrics the
//! experiments report.
//!
//! Held and offered sets are stored as **sorted vectors**: every consumer
//! (the sharing phase's offered-prefix rule, the download phase's article
//! pick, the availability metrics) wants identifier order anyway, and the
//! sorted representation makes the per-step re-offer a prefix `memcpy`
//! into a reused buffer instead of a fresh hash set per peer per step —
//! the former allocation hot spot of the sharing phase.
//!
//! Both tables are **dense vectors** addressed by the peer id: peer ids
//! are small dense integers, so hashing them (the store's former `HashMap`
//! representation) only paid SipHash on every lookup of the download and
//! sharing hot loops. Rows grow on demand; a missing row reads as empty,
//! exactly like an absent map entry did. No phase asks which peers hold an
//! article, so the store keeps no article → holders index: the per-article
//! queries ([`ArticleStore::holding_peers`],
//! [`ArticleStore::offering_peers`], [`ArticleStore::replication`],
//! [`ArticleStore::availability`]) scan the peer rows instead, which
//! yields peers in identifier order.

use crate::article::ArticleId;
use crate::peer::PeerId;
use serde::{Deserialize, Serialize};

/// Replica placement and offering state across the population.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
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

/// The peers whose row of `rows` contains `article`, ascending.
fn peers_with(rows: &[Vec<ArticleId>], article: ArticleId) -> impl Iterator<Item = PeerId> + '_ {
    rows.iter()
        .enumerate()
        .filter(move |(_, row)| row.binary_search(&article).is_ok())
        .map(|(peer, _)| PeerId(u32::try_from(peer).expect("too many peers")))
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

    /// Removes `peer`'s replica of `article` (also stops offering it).
    pub fn remove_replica(&mut self, peer: PeerId, article: ArticleId) {
        for rows in [&mut self.held, &mut self.offered] {
            if let Some(row) = rows.get_mut(peer.index()) {
                if let Ok(pos) = row.binary_search(&article) {
                    row.remove(pos);
                }
            }
        }
    }

    /// Drops every replica held by `peer` (the peer left the network).
    pub fn drop_peer(&mut self, peer: PeerId) {
        for rows in [&mut self.held, &mut self.offered] {
            if let Some(row) = rows.get_mut(peer.index()) {
                row.clear();
            }
        }
    }

    /// Number of replicas `peer` holds.
    pub fn held_count(&self, peer: PeerId) -> usize {
        row(&self.held, peer.index()).len()
    }

    /// Number of replicas `peer` currently offers.
    pub fn offered_count(&self, peer: PeerId) -> usize {
        row(&self.offered, peer.index()).len()
    }

    /// Whether `peer` currently offers `article`.
    pub fn offers(&self, peer: PeerId, article: ArticleId) -> bool {
        row(&self.offered, peer.index())
            .binary_search(&article)
            .is_ok()
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

    /// Peers currently offering `article`, sorted.
    pub fn offering_peers(&self, article: ArticleId) -> Vec<PeerId> {
        peers_with(&self.offered, article).collect()
    }

    /// Peers holding `article` (offering or not), sorted.
    pub fn holding_peers(&self, article: ArticleId) -> Vec<PeerId> {
        peers_with(&self.held, article).collect()
    }

    /// Replication factor of an article (number of holders).
    pub fn replication(&self, article: ArticleId) -> usize {
        peers_with(&self.held, article).count()
    }

    /// Fraction of the given articles that have at least one *offering*
    /// holder — the availability metric.
    pub fn availability(&self, articles: &[ArticleId]) -> f64 {
        if articles.is_empty() {
            return 1.0;
        }
        let available = articles
            .iter()
            .filter(|&&a| peers_with(&self.offered, a).next().is_some())
            .count();
        available as f64 / articles.len() as f64
    }

    /// Total number of offered replicas across the network.
    pub fn total_offered(&self) -> usize {
        self.offered.iter().map(Vec::len).sum()
    }

    /// Total number of held replicas across the network.
    pub fn total_held(&self) -> usize {
        self.held.iter().map(Vec::len).sum()
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
        assert_eq!(s.replication(ArticleId(1)), 2);
        assert_eq!(s.holding_peers(ArticleId(1)), vec![PeerId(0), PeerId(1)]);
        assert_eq!(s.total_held(), 3);
    }

    #[test]
    fn duplicate_add_replica_is_idempotent() {
        let mut s = ArticleStore::new();
        s.add_replica(PeerId(0), ArticleId(3));
        s.add_replica(PeerId(0), ArticleId(3));
        assert_eq!(s.held_count(PeerId(0)), 1);
        assert_eq!(s.total_held(), 1);
    }

    #[test]
    fn offering_is_a_subset_of_holding() {
        let mut s = ArticleStore::new();
        for a in ids(5) {
            s.add_replica(PeerId(0), a);
        }
        let offered = s.set_offered_count(PeerId(0), 3);
        assert_eq!(offered, 3);
        assert_eq!(s.offered_count(PeerId(0)), 3);
        assert!(s.offers(PeerId(0), ArticleId(0)));
        assert!(!s.offers(PeerId(0), ArticleId(4)));
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
        assert_eq!(s.total_offered(), 1);
        s.set_offered_count(PeerId(0), 0);
        assert_eq!(s.total_offered(), 0);
        assert_eq!(s.offering_peers(ArticleId(0)), Vec::<PeerId>::new());
    }

    #[test]
    fn remove_replica_updates_both_indexes() {
        let mut s = ArticleStore::new();
        s.add_replica(PeerId(0), ArticleId(0));
        s.set_offered_count(PeerId(0), 1);
        s.remove_replica(PeerId(0), ArticleId(0));
        assert_eq!(s.held_count(PeerId(0)), 0);
        assert_eq!(s.replication(ArticleId(0)), 0);
        assert!(!s.offers(PeerId(0), ArticleId(0)));
    }

    #[test]
    fn drop_peer_removes_all_its_replicas() {
        let mut s = ArticleStore::new();
        for a in ids(3) {
            s.add_replica(PeerId(0), a);
            s.add_replica(PeerId(1), a);
        }
        s.drop_peer(PeerId(0));
        assert_eq!(s.held_count(PeerId(0)), 0);
        for a in ids(3) {
            assert_eq!(s.replication(a), 1);
        }
    }

    #[test]
    fn availability_counts_only_offered_articles() {
        let mut s = ArticleStore::new();
        let articles = ids(4);
        s.add_replica(PeerId(0), articles[0]);
        s.add_replica(PeerId(0), articles[1]);
        s.add_replica(PeerId(1), articles[2]);
        s.set_offered_count(PeerId(0), 2);
        // articles[2] held but not offered; articles[3] nowhere at all.
        assert!((s.availability(&articles) - 0.5).abs() < 1e-12);
        assert_eq!(s.availability(&[]), 1.0);
    }

    #[test]
    fn offering_peers_sorted_and_filtered() {
        let mut s = ArticleStore::new();
        s.add_replica(PeerId(2), ArticleId(7));
        s.add_replica(PeerId(0), ArticleId(7));
        s.add_replica(PeerId(1), ArticleId(7));
        s.set_offered_count(PeerId(2), 1);
        s.set_offered_count(PeerId(0), 1);
        assert_eq!(s.offering_peers(ArticleId(7)), vec![PeerId(0), PeerId(2)]);
    }
}
