//! Per-peer article stores and replication bookkeeping.
//!
//! Sharing storage space is one of the two "classic" resources of the
//! collaboration network (next to bandwidth): a peer decides how many of the
//! articles it holds to offer for download, and the network as a whole needs
//! every article to stay available even though individual peers churn.
//! [`ArticleStore`] tracks which peer holds which article replicas and which
//! of them it currently *offers*.
//!
//! Held and offered sets are **bitsets**: each peer owns one row of
//! `words` `u64`s in each of two flat tables, and bit `a` of a row is set
//! when the peer holds (offers) article `a`. Articles are only created
//! while a world seeds its registry, so the universe is fixed at
//! construction and [`ArticleStore::new`] sizes both tables once, with
//! `words = max(articles, 1).div_ceil(64)` (the `max` keeps article 0
//! representable in a world without articles, whose download fallback
//! names it). Every question the phases ask is a walk over one or two
//! rows of a few words, or a lookup:
//!
//! - how many articles a peer holds is a per-peer count kept beside the
//!   rows: the sharing phase asks it of every online peer every step, and
//!   the default x86-64 target has no popcount instruction, so counting
//!   a row's bits costs a dozen operations per word;
//! - re-offering the `n` lowest held ids copies the row when `n` covers
//!   it, and otherwise whole words while they fit, then one masked word,
//!   then zeros, so the per-step re-offer allocates nothing;
//! - the download pick (`ArticleStore::pick_offered`) counts the
//!   source's offered bits the downloader lacks (an AND-NOT and a
//!   popcount) and selects the drawn one.
//!
//! No phase asks which peers hold an article, so the store keeps no
//! article → holders index.

use std::ops::Range;

use crate::netsim::article::ArticleId;
use crate::netsim::peer::PeerId;

/// Replica placement and offering state across the population.
#[derive(Debug, Clone, PartialEq)]
pub struct ArticleStore {
    /// `u64` words per peer row.
    words: usize,
    /// Held articles: `words` words per peer, in peer order.
    held: Vec<u64>,
    /// Set bits of each peer's held row.
    held_counts: Vec<u32>,
    /// Offered articles, row-aligned with `held`. Always a subset of the
    /// peer's held bits, but not always its lowest ones: downloads add
    /// held articles after the sharing phase has fixed the offer.
    offered: Vec<u64>,
}

impl ArticleStore {
    /// Creates an empty store for `peers` peers over a fixed universe of
    /// `articles` articles.
    pub fn new(peers: usize, articles: usize) -> Self {
        let words = articles.max(1).div_ceil(64);
        Self {
            words,
            held: vec![0; peers * words],
            held_counts: vec![0; peers],
            offered: vec![0; peers * words],
        }
    }

    /// Rebuilds a store from checkpointed tables ([`ArticleStore::held_words`]
    /// and [`ArticleStore::offered_words`]).
    ///
    /// # Panics
    ///
    /// Panics unless `words` is positive and both tables hold the same
    /// whole number of rows.
    pub(crate) fn from_words(words: usize, held: Vec<u64>, offered: Vec<u64>) -> Self {
        assert!(
            words > 0 && held.len() == offered.len() && held.len() % words == 0,
            "article store tables must be whole rows of {words} words"
        );
        let held_counts = held
            .chunks_exact(words)
            .map(|row| popcount(row.iter().copied()) as u32)
            .collect();
        Self {
            words,
            held,
            held_counts,
            offered,
        }
    }

    /// `u64` words per peer row.
    pub(crate) fn words_per_peer(&self) -> usize {
        self.words
    }

    /// The held table (`words_per_peer` words per peer, in peer order),
    /// for checkpointing.
    pub(crate) fn held_words(&self) -> &[u64] {
        &self.held
    }

    /// The offered table, row-aligned with [`ArticleStore::held_words`].
    pub(crate) fn offered_words(&self) -> &[u64] {
        &self.offered
    }

    fn row(&self, peer: PeerId) -> Range<usize> {
        let start = peer.index() * self.words;
        start..start + self.words
    }

    /// Records that `peer` holds a replica of `article`.
    pub fn add_replica(&mut self, peer: PeerId, article: ArticleId) {
        let row = self.row(peer);
        let a = article.index();
        let word = &mut self.held[row][a / 64];
        let bit = 1 << (a % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.held_counts[peer.index()] += 1;
        }
    }

    /// Number of replicas `peer` holds.
    pub fn held_count(&self, peer: PeerId) -> usize {
        self.held_counts[peer.index()] as usize
    }

    /// Sets how many of its held articles `peer` offers: the `count`
    /// lowest held identifiers are offered (a deterministic stand-in for
    /// "the peer picks which files to share"). Returns the number actually
    /// offered (bounded by what the peer holds).
    pub(crate) fn set_offered_count(&mut self, peer: PeerId, count: usize) -> usize {
        let row = self.row(peer);
        let held_count = self.held_count(peer);
        let (held, offered) = (&self.held[row.clone()], &mut self.offered[row]);
        if count >= held_count {
            offered.copy_from_slice(held);
            return held_count;
        }
        let mut left = count;
        for (offered, &held) in offered.iter_mut().zip(held) {
            if left == 0 {
                *offered = 0;
                continue;
            }
            let ones = held.count_ones() as usize;
            *offered = if ones <= left {
                held
            } else {
                held & ((1 << select_bit(held, left)) - 1)
            };
            left -= ones.min(left);
        }
        count
    }

    /// Articles currently offered by `peer`, in identifier order.
    pub fn offered_by(&self, peer: PeerId) -> impl Iterator<Item = ArticleId> + '_ {
        set_bits(&self.offered[self.row(peer)])
    }

    /// Picks an article `source` offers, preferring the ones `downloader`
    /// does not hold. `draw(n)` is called once with the number of
    /// candidates and returns the index, below `n`, of the one to take in
    /// identifier order: the candidates are the offered articles the
    /// downloader lacks, or every offered article when it lacks none.
    /// Returns `None`, without calling `draw`, when `source` offers
    /// nothing.
    pub(crate) fn pick_offered(
        &self,
        source: PeerId,
        downloader: PeerId,
        draw: impl FnOnce(usize) -> usize,
    ) -> Option<ArticleId> {
        let offered = &self.offered[self.row(source)];
        let held = &self.held[self.row(downloader)];
        let new = offered.iter().zip(held).map(|(&o, &h)| o & !h);
        let count = popcount(new.clone());
        if count > 0 {
            return Some(select(new, draw(count)));
        }
        let count = popcount(offered.iter().copied());
        (count > 0).then(|| select(offered.iter().copied(), draw(count)))
    }
}

/// The set bits of a row, as article ids in identifier order.
fn set_bits(row: &[u64]) -> impl Iterator<Item = ArticleId> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                ArticleId(w as u32 * 64 + bit)
            })
        })
    })
}

/// Set bits of a row given word by word.
fn popcount(row: impl Iterator<Item = u64>) -> usize {
    row.map(|word| word.count_ones() as usize).sum()
}

/// The set bit of rank `rank` (counting from 0 in identifier order) of a
/// row given word by word.
fn select(row: impl Iterator<Item = u64>, mut rank: usize) -> ArticleId {
    for (w, word) in row.enumerate() {
        let ones = word.count_ones() as usize;
        if rank >= ones {
            rank -= ones;
        } else {
            return ArticleId(w as u32 * 64 + select_bit(word, rank));
        }
    }
    panic!("the row has fewer set bits than the selected rank")
}

/// Position of the set bit of rank `rank` (counting from 0) in `word`, or
/// 64 when `word` has no more than `rank` set bits.
fn select_bit(mut word: u64, rank: usize) -> u32 {
    for _ in 0..rank {
        word &= word.wrapping_sub(1);
    }
    word.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Articles `peer` holds (offered or not), in identifier order.
    fn held_by(s: &ArticleStore, peer: PeerId) -> impl Iterator<Item = ArticleId> + '_ {
        set_bits(&s.held[s.row(peer)])
    }

    fn ids(n: u32) -> Vec<ArticleId> {
        (0..n).map(ArticleId).collect()
    }

    #[test]
    fn add_and_query_replicas() {
        let mut s = ArticleStore::new(2, 3);
        s.add_replica(PeerId(0), ArticleId(1));
        s.add_replica(PeerId(0), ArticleId(2));
        s.add_replica(PeerId(1), ArticleId(1));
        assert_eq!(s.held_count(PeerId(0)), 2);
        assert!(held_by(&s, PeerId(0)).eq([ArticleId(1), ArticleId(2)]));
        assert!(held_by(&s, PeerId(1)).eq([ArticleId(1)]));
    }

    #[test]
    fn duplicate_add_replica_is_idempotent() {
        let mut s = ArticleStore::new(1, 4);
        s.add_replica(PeerId(0), ArticleId(3));
        s.add_replica(PeerId(0), ArticleId(3));
        assert_eq!(s.held_count(PeerId(0)), 1);
    }

    #[test]
    fn offering_is_a_subset_of_holding() {
        let mut s = ArticleStore::new(1, 5);
        for a in ids(5) {
            s.add_replica(PeerId(0), a);
        }
        let offered = s.set_offered_count(PeerId(0), 3);
        assert_eq!(offered, 3);
        assert!(s.offered_by(PeerId(0)).eq(ids(3)));
        // Requesting more than held clamps.
        assert_eq!(s.set_offered_count(PeerId(0), 99), 5);
    }

    #[test]
    fn offered_by_is_the_lowest_held_ids() {
        let mut s = ArticleStore::new(8, 10);
        for a in [ArticleId(9), ArticleId(2), ArticleId(5)] {
            s.add_replica(PeerId(0), a);
        }
        s.set_offered_count(PeerId(0), 2);
        assert!(s.offered_by(PeerId(0)).eq([ArticleId(2), ArticleId(5)]));
        assert_eq!(s.offered_by(PeerId(7)).count(), 0);
        assert!(held_by(&s, PeerId(0)).eq([ArticleId(2), ArticleId(5), ArticleId(9)]));
        assert_eq!(held_by(&s, PeerId(7)).count(), 0);
    }

    #[test]
    fn set_offered_zero_withdraws_everything() {
        let mut s = ArticleStore::new(1, 1);
        s.add_replica(PeerId(0), ArticleId(0));
        s.set_offered_count(PeerId(0), 1);
        assert!(s.offered_by(PeerId(0)).eq([ArticleId(0)]));
        s.set_offered_count(PeerId(0), 0);
        assert_eq!(s.offered_by(PeerId(0)).count(), 0);
    }

    #[test]
    fn an_empty_universe_still_holds_article_zero() {
        let mut s = ArticleStore::new(2, 0);
        assert_eq!(s.words_per_peer(), 1);
        s.add_replica(PeerId(1), ArticleId(0));
        assert!(held_by(&s, PeerId(1)).eq([ArticleId(0)]));
        assert_eq!(held_by(&s, PeerId(0)).count(), 0);
    }

    /// The sorted-list store the bitsets replaced, kept as the reference:
    /// held and offered rows are sorted id vectors, the offer is a prefix
    /// copy, and the download pick merges the source's offer against the
    /// downloader's holdings and `choose`s from the result.
    struct ListStore {
        held: Vec<Vec<ArticleId>>,
        offered: Vec<Vec<ArticleId>>,
    }

    impl ListStore {
        fn new(peers: usize) -> Self {
            Self {
                held: vec![Vec::new(); peers],
                offered: vec![Vec::new(); peers],
            }
        }

        fn add_replica(&mut self, peer: PeerId, article: ArticleId) {
            let held = &mut self.held[peer.index()];
            if let Err(pos) = held.binary_search(&article) {
                held.insert(pos, article);
            }
        }

        fn set_offered_count(&mut self, peer: PeerId, count: usize) -> usize {
            let held = &self.held[peer.index()];
            let n = count.min(held.len());
            self.offered[peer.index()] = held[..n].to_vec();
            n
        }

        /// `push_not_held` + `choose`, then `choose` over the offer.
        fn pick_offered(
            &self,
            source: PeerId,
            downloader: PeerId,
            draw: impl FnOnce(usize) -> usize,
        ) -> Option<ArticleId> {
            let offered = &self.offered[source.index()];
            let held = &self.held[downloader.index()];
            let mut not_held = Vec::new();
            let mut h = 0;
            for &article in offered {
                while h < held.len() && held[h] < article {
                    h += 1;
                }
                if held.get(h) != Some(&article) {
                    not_held.push(article);
                }
            }
            let candidates = if not_held.is_empty() {
                offered
            } else {
                &not_held
            };
            (!candidates.is_empty()).then(|| candidates[draw(candidates.len())])
        }
    }

    /// Random add / offer / withdraw sequences over universes on and
    /// around word boundaries: the bitset store keeps exactly the held and
    /// offered sets of the sorted-list store, and every download pick
    /// draws over the same bound and takes the same article.
    #[test]
    fn bitset_store_matches_the_sorted_list_store() {
        let mut rng = StdRng::seed_from_u64(0xB175);
        for universe in [1u32, 63, 64, 65, 130, 500] {
            for case in 0..40 {
                let peers = rng.gen_range(1..12usize);
                let mut store = ArticleStore::new(peers, universe as usize);
                let mut reference = ListStore::new(peers);
                let density = rng.gen_range(0.0..1.0);
                for _ in 0..rng.gen_range(0..400) {
                    let peer = PeerId(rng.gen_range(0..peers as u32));
                    match rng.gen_range(0..12) {
                        0..=4 => {
                            if rng.gen_bool(density) {
                                let article = ArticleId(rng.gen_range(0..universe));
                                store.add_replica(peer, article);
                                reference.add_replica(peer, article);
                            }
                        }
                        // A run of consecutive ids, so rows fill whole
                        // words and offers end inside or right at them.
                        5 => {
                            let start = rng.gen_range(0..universe);
                            let end = rng.gen_range(start..universe) + 1;
                            for article in (start..end).map(ArticleId) {
                                store.add_replica(peer, article);
                                reference.add_replica(peer, article);
                            }
                        }
                        6..=7 => {
                            let held = reference.held[peer.index()].len();
                            let count = rng.gen_range(0..held + 3);
                            assert_eq!(
                                store.set_offered_count(peer, count),
                                reference.set_offered_count(peer, count),
                                "universe {universe}, case {case}"
                            );
                        }
                        8 => {
                            store.set_offered_count(peer, 0);
                            reference.set_offered_count(peer, 0);
                        }
                        _ => {
                            let downloader = PeerId(rng.gen_range(0..peers as u32));
                            let choice = rng.gen::<u64>();
                            let mut bounds = (0, 0);
                            let picked = store.pick_offered(peer, downloader, |n| {
                                bounds.0 = n;
                                (choice % n as u64) as usize
                            });
                            let expected = reference.pick_offered(peer, downloader, |n| {
                                bounds.1 = n;
                                (choice % n as u64) as usize
                            });
                            assert_eq!(picked, expected, "universe {universe}, case {case}");
                            assert_eq!(bounds.0, bounds.1, "universe {universe}, case {case}");
                        }
                    }
                }
                for p in 0..peers as u32 {
                    let peer = PeerId(p);
                    assert!(held_by(&store, peer).eq(reference.held[p as usize].iter().copied()));
                    assert_eq!(store.held_count(peer), reference.held[p as usize].len());
                    assert!(store
                        .offered_by(peer)
                        .eq(reference.offered[p as usize].iter().copied()));
                }
            }
        }
    }
}
