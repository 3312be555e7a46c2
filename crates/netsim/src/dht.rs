//! Key-based article location (a Kademlia-style XOR-metric lookup).
//!
//! The collaboration network is "fully decentralized": there is no central
//! index mapping articles to the peers storing their replicas. This module
//! provides the structured lookup substrate: every peer and every article is
//! hashed into a 64-bit key space, article replicas are registered at the
//! peers whose keys are closest (XOR metric) to the article key, and lookups
//! walk greedily through the key space exactly like an iterative Kademlia
//! `FIND_VALUE`. The routing table is the simplified "global view" variant —
//! each peer knows a logarithmic sample of the population — which is
//! sufficient for simulation purposes while preserving the lookup behaviour
//! (O(log n) hops, locality by key distance).

use crate::peer::PeerId;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// A key in the 64-bit DHT key space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DhtKey(pub u64);

impl DhtKey {
    /// XOR distance between two keys (the Kademlia metric).
    pub fn distance(self, other: DhtKey) -> u64 {
        self.0 ^ other.0
    }

    /// Deterministically hashes an arbitrary 64-bit identifier into the key
    /// space (SplitMix64 finaliser — stable across platforms and runs).
    pub fn from_id(id: u64) -> Self {
        let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        DhtKey(z ^ (z >> 31))
    }

    /// Key of a peer.
    pub fn for_peer(peer: PeerId) -> Self {
        Self::from_id(u64::from(peer.0) | 0x5045_4552_0000_0000) // "PEER" tag
    }

    /// Key of an article.
    pub fn for_article(article: u32) -> Self {
        Self::from_id(u64::from(article) | 0x4152_5400_0000_0000) // "ART" tag
    }
}

/// Statistics of one lookup.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LookupResult {
    /// Peers holding a replica of the key, closest first.
    pub holders: Vec<PeerId>,
    /// Number of routing hops the iterative lookup took.
    pub hops: usize,
}

/// The placement rule: keeps the `nearest.len()` members closest to `key`
/// in `nearest` as `(distance, peer)` pairs, nearest first, and returns
/// the filled prefix (every member when there are fewer). This is the
/// head of a full sort of the `(distance, peer)` pairs, found in one pass
/// by insertion into `nearest`, without allocating.
pub fn closest_into<'a>(
    key: DhtKey,
    members: &[(PeerId, DhtKey)],
    nearest: &'a mut [(u64, PeerId)],
) -> &'a [(u64, PeerId)] {
    let mut filled = 0;
    for &(peer, peer_key) in members {
        let candidate = (key.distance(peer_key), peer);
        if filled < nearest.len() {
            filled += 1;
        } else if nearest.last().is_none_or(|&farthest| candidate >= farthest) {
            continue;
        }
        // The last filled slot is free (new) or evicted (farthest).
        let at = nearest[..filled - 1].partition_point(|&kept| kept <= candidate);
        nearest[at..filled].rotate_right(1);
        nearest[at] = candidate;
    }
    &nearest[..filled]
}

/// The DHT: key space membership, replica registry, and routing tables.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Dht {
    /// Peers participating in the DHT with their keys.
    members: Vec<(PeerId, DhtKey)>,
    /// Routing table per peer: a subset of members used for iterative hops.
    routing: HashMap<PeerId, Vec<PeerId>>,
    /// Replica registry: key → peers storing a replica.
    replicas: HashMap<DhtKey, HashSet<PeerId>>,
    /// Replication factor (number of closest peers asked to store a value).
    replication: usize,
}

impl Dht {
    /// Creates an empty DHT with the given replication factor.
    ///
    /// # Panics
    ///
    /// Panics if `replication` is zero.
    pub fn new(replication: usize) -> Self {
        assert!(replication > 0, "replication factor must be positive");
        Self {
            replication,
            ..Default::default()
        }
    }

    /// Number of member peers.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the DHT has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Adds a peer to the DHT and (re)builds its routing table: each peer
    /// keeps its `⌈log2 n⌉ + replication` closest members plus a spread of
    /// exponentially spaced members for long hops.
    pub fn join(&mut self, peer: PeerId) {
        if self.members.iter().any(|&(p, _)| p == peer) {
            return;
        }
        self.members.push((peer, DhtKey::for_peer(peer)));
        self.rebuild_routing();
    }

    /// Adds many peers at once, rebuilding the routing tables a single time
    /// at the end — for a population of `n` joining peers this is the
    /// difference between one `O(n log n)`-per-peer rebuild and `n` of
    /// them, which is what makes 10⁵-peer networks constructible. The final
    /// state is identical to calling [`Dht::join`] once per peer.
    pub fn join_many<I: IntoIterator<Item = PeerId>>(&mut self, peers: I) {
        let mut known: HashSet<PeerId> = self.members.iter().map(|&(p, _)| p).collect();
        let before = self.members.len();
        for peer in peers {
            if known.insert(peer) {
                self.members.push((peer, DhtKey::for_peer(peer)));
            }
        }
        if self.members.len() != before {
            self.rebuild_routing();
        }
    }

    /// Removes a peer from the DHT (its replicas are dropped too).
    pub fn leave(&mut self, peer: PeerId) {
        self.members.retain(|&(p, _)| p != peer);
        self.routing.remove(&peer);
        for holders in self.replicas.values_mut() {
            holders.remove(&peer);
        }
        self.rebuild_routing();
    }

    /// Population size up to which routing tables are built from the exact
    /// all-pairs XOR ranking. Above it, [`Dht::rebuild_routing_large`] uses
    /// the key-sorted-window approximation so a rebuild stays
    /// `O(n log n)` instead of `O(n² log n)`.
    const EXACT_ROUTING_MAX: usize = 2048;

    fn rebuild_routing(&mut self) {
        self.routing.clear();
        let n = self.members.len();
        if n == 0 {
            return;
        }
        let table_size = (usize::BITS - n.leading_zeros()) as usize + self.replication;
        if n > Self::EXACT_ROUTING_MAX {
            return self.rebuild_routing_large(table_size);
        }
        for &(peer, key) in &self.members {
            let mut others: Vec<(u64, PeerId)> = self
                .members
                .iter()
                .filter(|&&(p, _)| p != peer)
                .map(|&(p, k)| (key.distance(k), p))
                .collect();
            others.sort_unstable();
            let mut table: Vec<PeerId> = others.iter().take(table_size).map(|&(_, p)| p).collect();
            // Exponentially spaced far contacts for O(log n) routing.
            let mut stride = table_size.max(1);
            while stride < others.len() {
                table.push(others[stride].1);
                stride *= 2;
            }
            table.sort_unstable();
            table.dedup();
            self.routing.insert(peer, table);
        }
    }

    /// Large-population routing build: members are sorted by key once, each
    /// peer ranks a `2 × table_size` window of key-sorted neighbours by
    /// exact XOR distance (keys with small XOR distance share long common
    /// prefixes, so they are adjacent in sorted key order), and far
    /// contacts are taken at exponentially growing strides around the
    /// sorted ring. Deterministic in the membership, like the exact build.
    fn rebuild_routing_large(&mut self, table_size: usize) {
        let mut by_key: Vec<(DhtKey, PeerId)> = self.members.iter().map(|&(p, k)| (k, p)).collect();
        by_key.sort_unstable();
        let n = by_key.len();
        let window = table_size * 2;
        for (i, &(key, peer)) in by_key.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(n);
            let mut near: Vec<(u64, PeerId)> = by_key[lo..hi]
                .iter()
                .filter(|&&(_, p)| p != peer)
                .map(|&(k, p)| (key.distance(k), p))
                .collect();
            near.sort_unstable();
            near.truncate(table_size);
            let mut table: Vec<PeerId> = near.into_iter().map(|(_, p)| p).collect();
            let mut stride = table_size.max(1);
            while stride < n {
                table.push(by_key[(i + stride) % n].1);
                stride *= 2;
            }
            table.sort_unstable();
            table.dedup();
            table.retain(|&p| p != peer);
            self.routing.insert(peer, table);
        }
    }

    /// The peers whose keys are closest to `key`, up to the replication
    /// factor, nearest first.
    pub fn closest_peers(&self, key: DhtKey) -> Vec<PeerId> {
        let mut nearest = vec![(0, PeerId(0)); self.replication];
        closest_into(key, &self.members, &mut nearest)
            .iter()
            .map(|&(_, p)| p)
            .collect()
    }

    /// Stores a value under `key`: the closest `replication` peers become
    /// holders. Returns the holder set.
    pub fn store(&mut self, key: DhtKey) -> Vec<PeerId> {
        let holders = self.closest_peers(key);
        self.replicas
            .entry(key)
            .or_default()
            .extend(holders.iter().copied());
        holders
    }

    /// Current holders of a key, unordered.
    pub fn holders(&self, key: DhtKey) -> Vec<PeerId> {
        self.replicas
            .get(&key)
            .map(|set| {
                let mut v: Vec<PeerId> = set.iter().copied().collect();
                v.sort_unstable();
                v
            })
            .unwrap_or_default()
    }

    /// Iterative greedy lookup starting from `origin`: at every hop the
    /// query moves to the routing-table contact closest to the key, until no
    /// contact is closer (Kademlia convergence). Returns the holders known
    /// at the terminal peer's neighbourhood and the hop count.
    pub fn lookup(&self, origin: PeerId, key: DhtKey) -> LookupResult {
        let holders = self.holders(key);
        if self.members.is_empty() {
            return LookupResult { holders, hops: 0 };
        }
        let key_of = |peer: PeerId| {
            self.members
                .iter()
                .find(|&&(p, _)| p == peer)
                .map(|&(_, k)| k)
                .unwrap_or_else(|| DhtKey::for_peer(peer))
        };
        let mut current = origin;
        let mut current_distance = key_of(current).distance(key);
        let mut hops = 0usize;
        while let Some(contacts) = self.routing.get(&current) {
            let best = contacts.iter().map(|&p| (key_of(p).distance(key), p)).min();
            match best {
                Some((d, p)) if d < current_distance => {
                    current = p;
                    current_distance = d;
                    hops += 1;
                }
                _ => break,
            }
        }
        LookupResult { holders, hops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dht_with(n: u32, replication: usize) -> Dht {
        let mut d = Dht::new(replication);
        for i in 0..n {
            d.join(PeerId(i));
        }
        d
    }

    #[test]
    fn keys_are_deterministic_and_distinct() {
        let a = DhtKey::for_peer(PeerId(1));
        let b = DhtKey::for_peer(PeerId(1));
        let c = DhtKey::for_peer(PeerId(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(DhtKey::for_article(1), DhtKey::for_peer(PeerId(1)));
    }

    #[test]
    fn xor_distance_properties() {
        let a = DhtKey(0b1010);
        let b = DhtKey(0b0110);
        assert_eq!(a.distance(b), 0b1100);
        assert_eq!(a.distance(a), 0);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn join_is_idempotent() {
        let mut d = Dht::new(3);
        d.join(PeerId(0));
        d.join(PeerId(0));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn store_places_replication_factor_holders() {
        let mut d = dht_with(20, 3);
        let key = DhtKey::for_article(7);
        let holders = d.store(key);
        assert_eq!(holders.len(), 3);
        assert_eq!(d.holders(key).len(), 3);
        // Holders are exactly the closest peers.
        assert_eq!(
            holders.iter().copied().collect::<HashSet<_>>(),
            d.closest_peers(key).into_iter().collect::<HashSet<_>>()
        );
    }

    #[test]
    fn small_population_stores_on_everyone() {
        let mut d = dht_with(2, 5);
        let holders = d.store(DhtKey::for_article(1));
        assert_eq!(holders.len(), 2);
    }

    /// The ranking `closest_peers` computed before the top-k scan: every
    /// member sorted by `(distance, peer)`, then the first `replication`.
    fn sort_and_take(d: &Dht, key: DhtKey) -> Vec<PeerId> {
        let mut ranked: Vec<(u64, PeerId)> = d
            .members
            .iter()
            .map(|&(p, k)| (key.distance(k), p))
            .collect();
        ranked.sort_unstable();
        ranked
            .into_iter()
            .take(d.replication)
            .map(|(_, p)| p)
            .collect()
    }

    #[test]
    fn top_k_scan_matches_the_sort_and_take_ranking() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD47);
        for members in (0..=5).chain([3000]) {
            for replication in [1, 3, 6] {
                let mut d = Dht::new(replication);
                d.join_many((0..members).map(|_| PeerId(rng.gen())));
                for _ in 0..32 {
                    let key = DhtKey(rng.gen());
                    let closest = d.closest_peers(key);
                    assert_eq!(closest, sort_and_take(&d, key));
                    // k > n returns every member.
                    assert_eq!(closest.len(), replication.min(d.len()));
                }
            }
        }
    }

    #[test]
    fn leave_drops_replicas_and_membership() {
        let mut d = dht_with(6, 2);
        let key = DhtKey::for_article(9);
        let holders = d.store(key);
        let victim = holders[0];
        d.leave(victim);
        assert_eq!(d.len(), 5);
        assert!(!d.holders(key).contains(&victim));
    }

    #[test]
    fn lookup_finds_holders_and_converges() {
        let mut d = dht_with(64, 4);
        let key = DhtKey::for_article(42);
        d.store(key);
        let result = d.lookup(PeerId(0), key);
        assert_eq!(result.holders.len(), 4);
        // With 64 peers the greedy walk should need only a handful of hops.
        assert!(result.hops <= 8, "took {} hops", result.hops);
    }

    #[test]
    fn lookup_hop_count_scales_sublinearly() {
        let mut small = dht_with(16, 2);
        let mut large = dht_with(256, 2);
        let key = DhtKey::for_article(5);
        small.store(key);
        large.store(key);
        let hops_small = (0..16)
            .map(|i| small.lookup(PeerId(i), key).hops)
            .max()
            .unwrap();
        let hops_large = (0..256)
            .step_by(16)
            .map(|i| large.lookup(PeerId(i), key).hops)
            .max()
            .unwrap();
        // 16× more peers should cost far less than 16× more hops.
        assert!(
            hops_large <= hops_small * 4 + 4,
            "small={hops_small} large={hops_large}"
        );
    }

    #[test]
    fn lookup_on_empty_dht_is_trivial() {
        let d = Dht::new(2);
        let res = d.lookup(PeerId(0), DhtKey::for_article(1));
        assert!(res.holders.is_empty());
        assert_eq!(res.hops, 0);
    }

    #[test]
    #[should_panic(expected = "replication")]
    fn zero_replication_panics() {
        let _ = Dht::new(0);
    }

    #[test]
    fn join_many_matches_incremental_joins() {
        let mut incremental = Dht::new(3);
        for i in 0..50 {
            incremental.join(PeerId(i));
        }
        let mut batched = Dht::new(3);
        batched.join_many((0..50).map(PeerId));
        assert_eq!(incremental, batched);
        // Duplicates and re-joins are ignored, with or without a rebuild.
        batched.join_many([PeerId(0), PeerId(10), PeerId(10)]);
        assert_eq!(incremental, batched);
        batched.join_many(std::iter::empty());
        assert_eq!(incremental, batched);
    }

    #[test]
    fn large_population_routing_still_converges() {
        // Above EXACT_ROUTING_MAX the windowed routing build kicks in;
        // lookups must still terminate in few hops and find the holders.
        let mut d = Dht::new(3);
        d.join_many((0..4096).map(PeerId));
        let key = DhtKey::for_article(123);
        d.store(key);
        assert_eq!(d.holders(key).len(), 3);
        for origin in (0..4096).step_by(511) {
            let result = d.lookup(PeerId(origin), key);
            assert_eq!(result.holders.len(), 3);
            assert!(result.hops <= 24, "took {} hops", result.hops);
        }
    }
}
