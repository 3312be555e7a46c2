//! Active-set tracking: packed bitsets over the peer population.
//!
//! The per-step pipeline must not pay for peers that cannot do anything.
//! At the million-peer tier most of the per-step cost of the naive loops is
//! pointer-chasing `world.peers.peer(PeerId(p)).online` for peers that are
//! offline or fixed-behaviour; [`ActiveSets`] replaces those lookups with
//! two packed bitsets maintained incrementally at the only places peer
//! liveness changes — [`SimWorld::depart_peer`], [`SimWorld::rejoin_peer`]
//! and [`SimWorld::whitewash_peer`](crate::world::SimWorld::whitewash_peer):
//!
//! * `online` — peers currently online. Selection, sharing, download
//!   collection, utility, learning and the edit-delta loop iterate this set
//!   (in ascending peer order, which is what the RNG-stream contract
//!   requires) instead of scanning the whole population.
//! * `learners` — peers with [`BehaviorType::Rational`]. Behaviour never
//!   changes after construction (whitewashing resets a peer's *identity*,
//!   not its agent), so this set is static; the learning phase iterates the
//!   intersection `online ∧ learners`.
//!
//! Pending-transfer state intentionally stays in the dense
//! `active_transfer: Vec<Option<u64>>` on the world: it has a single O(1)
//! consumer per peer per event and no per-step scan, so a bitset would add
//! maintenance without removing any work.
//!
//! [`SimWorld::depart_peer`]: crate::world::SimWorld::depart_peer
//! [`SimWorld::rejoin_peer`]: crate::world::SimWorld::rejoin_peer

use crate::gametheory::behavior::BehaviorType;
use crate::netsim::peer::PeerRegistry;

/// A fixed-capacity packed bitset over peer indices.
///
/// Iteration yields members in ascending order — the order every
/// deterministic per-peer loop in the pipeline uses — and costs
/// `O(population / 64 + members)` rather than `O(population)` struct loads.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PeerBitset {
    words: Vec<u64>,
    len: usize,
}

impl PeerBitset {
    /// Creates an empty bitset with capacity for `len` peers.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a bitset with every bit below `len` set.
    pub fn full(len: usize) -> Self {
        let mut set = Self::new(len);
        for word in &mut set.words {
            *word = u64::MAX;
        }
        set.trim_tail();
        set
    }

    /// Number of peer slots (capacity, not membership count).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clears bits above `len` in the last word so `count` stays exact.
    fn trim_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Membership test.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        debug_assert!(index < self.len, "peer index out of range");
        self.words[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// Inserts `index`.
    #[inline]
    pub fn set(&mut self, index: usize) {
        debug_assert!(index < self.len, "peer index out of range");
        self.words[index / 64] |= 1u64 << (index % 64);
    }

    /// Removes `index`.
    #[inline]
    pub fn clear(&mut self, index: usize) {
        debug_assert!(index < self.len, "peer index out of range");
        self.words[index / 64] &= !(1u64 << (index % 64));
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of 64-bit words backing the set.
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// The `i`-th backing word (bit `b` = peer `i * 64 + b`). Lets loops
    /// that must mutate the world per member iterate without holding a
    /// borrow on the bitset across the loop body (the download collect
    /// stage), as long as the body does not change the set itself.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.words[i]
    }

    /// Iterates members in ascending order.
    pub fn iter(&self) -> BitsetIter<'_> {
        BitsetIter {
            words: &self.words,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
            end: self.len,
        }
    }

    /// Iterates members of `self ∧ other` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if the two bitsets have different capacities.
    pub fn iter_and<'a>(&'a self, other: &'a PeerBitset) -> AndIter<'a> {
        assert_eq!(self.len, other.len, "bitset capacities differ");
        AndIter {
            a: &self.words,
            b: &other.words,
            word_index: 0,
            current: match (self.words.first(), other.words.first()) {
                (Some(&x), Some(&y)) => x & y,
                _ => 0,
            },
            end: self.len,
        }
    }

    /// Iterates members within `range` (ascending). Used by the sharded
    /// phases, whose workers own contiguous peer ranges.
    pub fn iter_range(&self, range: std::ops::Range<usize>) -> RangeIter<'_> {
        let start = range.start.min(self.len);
        let end = range.end.min(self.len);
        let word_index = start / 64;
        let mut current = self.words.get(word_index).copied().unwrap_or(0);
        // Mask off bits below the range start in the first word.
        current &= !0u64 << (start % 64);
        RangeIter {
            words: &self.words,
            word_index,
            current,
            end,
        }
    }
}

/// Ascending iterator over a [`PeerBitset`].
#[derive(Debug)]
pub struct BitsetIter<'a> {
    words: &'a [u64],
    word_index: usize,
    current: u64,
    end: usize,
}

impl Iterator for BitsetIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let index = self.word_index * 64 + bit;
                return (index < self.end).then_some(index);
            }
            self.word_index += 1;
            self.current = *self.words.get(self.word_index)?;
        }
    }
}

/// Ascending iterator over the intersection of two [`PeerBitset`]s.
#[derive(Debug)]
pub struct AndIter<'a> {
    a: &'a [u64],
    b: &'a [u64],
    word_index: usize,
    current: u64,
    end: usize,
}

impl Iterator for AndIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let index = self.word_index * 64 + bit;
                return (index < self.end).then_some(index);
            }
            self.word_index += 1;
            self.current = self.a.get(self.word_index)? & self.b.get(self.word_index)?;
        }
    }
}

/// Ascending iterator over a sub-range of a [`PeerBitset`].
#[derive(Debug)]
pub struct RangeIter<'a> {
    words: &'a [u64],
    word_index: usize,
    current: u64,
    end: usize,
}

impl Iterator for RangeIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let index = self.word_index * 64 + bit;
                return (index < self.end).then_some(index);
            }
            self.word_index += 1;
            if self.word_index * 64 >= self.end {
                return None;
            }
            self.current = *self.words.get(self.word_index)?;
        }
    }
}

/// The incremental active sets the pipeline iterates.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveSets {
    online: PeerBitset,
    learners: PeerBitset,
}

impl ActiveSets {
    /// Builds the sets for a freshly constructed world: every peer online,
    /// learners taken from the (immutable) behaviour assignment.
    pub fn new(behaviors: &[BehaviorType]) -> Self {
        let mut learners = PeerBitset::new(behaviors.len());
        for (p, behavior) in behaviors.iter().enumerate() {
            if *behavior == BehaviorType::Rational {
                learners.set(p);
            }
        }
        Self {
            online: PeerBitset::full(behaviors.len()),
            learners,
        }
    }

    /// The online-peer bitset.
    #[inline]
    pub fn online(&self) -> &PeerBitset {
        &self.online
    }

    /// O(1) online test — replaces `world.peers.peer(PeerId(p)).online` in
    /// the hot loops.
    #[inline]
    pub fn is_online(&self, peer: usize) -> bool {
        self.online.get(peer)
    }

    /// Marks a peer online. Called from the world's rejoin path only.
    pub fn set_online(&mut self, peer: usize) {
        self.online.set(peer);
    }

    /// Marks a peer offline. Called from the world's departure path only.
    pub fn set_offline(&mut self, peer: usize) {
        self.online.clear(peer);
    }

    /// Ascending iterator over online peers.
    pub fn iter_online(&self) -> BitsetIter<'_> {
        self.online.iter()
    }

    /// Ascending iterator over online rational learners — the exact member
    /// set of the learning phase.
    pub fn iter_online_learners(&self) -> AndIter<'_> {
        self.online.iter_and(&self.learners)
    }

    /// Whether the sets match a from-scratch recomputation against the
    /// ground-truth registry and behaviour assignment. Used by the
    /// active-set invariant tests after every churn/adversary event.
    pub fn matches(&self, peers: &PeerRegistry, behaviors: &[BehaviorType]) -> bool {
        let recomputed = Self::recompute(peers, behaviors);
        *self == recomputed
    }

    /// Recomputes the sets from scratch (test oracle).
    pub fn recompute(peers: &PeerRegistry, behaviors: &[BehaviorType]) -> Self {
        let mut sets = Self::new(behaviors);
        for peer in peers.iter() {
            if !peer.online {
                sets.online.clear(peer.id.index());
            }
        }
        sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::peer::PeerId;

    #[test]
    fn empty_and_full_counts() {
        assert_eq!(PeerBitset::new(0).count(), 0);
        assert_eq!(PeerBitset::new(100).count(), 0);
        assert_eq!(PeerBitset::full(100).count(), 100);
        assert_eq!(PeerBitset::full(64).count(), 64);
        assert_eq!(PeerBitset::full(65).count(), 65);
        assert!(PeerBitset::new(0).is_empty());
        assert!(!PeerBitset::new(1).is_empty());
    }

    #[test]
    fn set_clear_get_roundtrip() {
        let mut set = PeerBitset::new(130);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!set.get(i));
            set.set(i);
            assert!(set.get(i));
        }
        assert_eq!(set.count(), 8);
        set.clear(64);
        assert!(!set.get(64));
        assert_eq!(set.count(), 7);
    }

    #[test]
    fn iter_is_ascending_and_complete() {
        let mut set = PeerBitset::new(200);
        let members = [0usize, 5, 63, 64, 100, 198, 199];
        for &m in &members {
            set.set(m);
        }
        let collected: Vec<usize> = set.iter().collect();
        assert_eq!(collected, members);
    }

    #[test]
    fn iter_and_is_intersection() {
        let mut a = PeerBitset::new(150);
        let mut b = PeerBitset::new(150);
        for i in (0..150).step_by(2) {
            a.set(i);
        }
        for i in (0..150).step_by(3) {
            b.set(i);
        }
        let both: Vec<usize> = a.iter_and(&b).collect();
        let expected: Vec<usize> = (0..150).step_by(6).collect();
        assert_eq!(both, expected);
    }

    #[test]
    fn iter_range_respects_bounds() {
        let set = PeerBitset::full(200);
        let collected: Vec<usize> = set.iter_range(63..130).collect();
        let expected: Vec<usize> = (63..130).collect();
        assert_eq!(collected, expected);
        assert_eq!(set.iter_range(0..0).count(), 0);
        assert_eq!(set.iter_range(190..400).count(), 10);
    }

    #[test]
    fn iter_range_on_sparse_set() {
        let mut set = PeerBitset::new(300);
        for &m in &[10usize, 64, 70, 128, 200, 299] {
            set.set(m);
        }
        let collected: Vec<usize> = set.iter_range(64..201).collect();
        assert_eq!(collected, vec![64, 70, 128, 200]);
    }

    #[test]
    fn active_sets_track_behaviors_and_online() {
        let behaviors = [
            BehaviorType::Rational,
            BehaviorType::Altruistic,
            BehaviorType::Rational,
            BehaviorType::Irrational,
        ];
        let mut sets = ActiveSets::new(&behaviors);
        assert_eq!(sets.iter_online().count(), 4);
        assert_eq!(sets.iter_online_learners().collect::<Vec<_>>(), vec![0, 2]);
        sets.set_offline(2);
        assert!(!sets.is_online(2));
        assert_eq!(sets.iter_online_learners().collect::<Vec<_>>(), vec![0]);
        sets.set_online(2);
        assert_eq!(sets.iter_online_learners().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn recompute_matches_registry_ground_truth() {
        let behaviors = vec![BehaviorType::Rational; 10];
        let mut peers = PeerRegistry::with_population(10);
        let mut sets = ActiveSets::new(&behaviors);
        assert!(sets.matches(&peers, &behaviors));
        peers.peer_mut(PeerId(3)).online = false;
        assert!(!sets.matches(&peers, &behaviors));
        sets.set_offline(3);
        assert!(sets.matches(&peers, &behaviors));
    }
}
