//! Key-based article placement (the Kademlia XOR metric).
//!
//! The collaboration network is "fully decentralized": there is no central
//! index mapping articles to the peers storing their replicas. Every peer
//! and every article is hashed into a 64-bit key space, and an article's
//! replicas go to the peers whose keys are closest (XOR metric) to the
//! article key — the placement a Kademlia `STORE` performs. The simulator
//! seeds its articles with [`closest_into`].

use crate::netsim::peer::PeerId;

/// A key in the 64-bit DHT key space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DhtKey(pub(crate) u64);

impl DhtKey {
    /// XOR distance between two keys (the Kademlia metric).
    pub(crate) fn distance(self, other: DhtKey) -> u64 {
        self.0 ^ other.0
    }

    /// Deterministically hashes an arbitrary 64-bit identifier into the key
    /// space (SplitMix64 finaliser — stable across platforms and runs).
    pub(crate) fn from_id(id: u64) -> Self {
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

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Every member sorted by `(distance, peer)`, then the first `k`.
    fn sort_and_take(members: &[(PeerId, DhtKey)], key: DhtKey, k: usize) -> Vec<(u64, PeerId)> {
        let mut ranked: Vec<(u64, PeerId)> = members
            .iter()
            .map(|&(p, pk)| (key.distance(pk), p))
            .collect();
        ranked.sort_unstable();
        ranked.truncate(k);
        ranked
    }

    #[test]
    fn top_k_scan_matches_the_sort_and_take_ranking() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD47);
        for population in (0..=5).chain([3000]) {
            let members: Vec<(PeerId, DhtKey)> = (0..population)
                .map(|_| PeerId(rng.gen()))
                .map(|p| (p, DhtKey::for_peer(p)))
                .collect();
            for k in [1, 3, 6] {
                let mut nearest = vec![(0, PeerId(0)); k];
                for _ in 0..32 {
                    let key = DhtKey(rng.gen());
                    let closest = closest_into(key, &members, &mut nearest);
                    assert_eq!(closest, sort_and_take(&members, key, k));
                    // k > n returns every member.
                    assert_eq!(closest.len(), k.min(members.len()));
                }
            }
        }
    }
}
