//! Peer identities and per-peer resource state.
//!
//! The paper normalises every peer's download and upload bandwidth to 1 and
//! every file size to 1 (Section III-D); peers choose per step how much of
//! their bandwidth and how many of their files to share (0 %, 50 % or 100 %
//! in the simulation model). [`Peer`] carries that resource state plus the
//! online flag the churn model toggles; [`PeerRegistry`] owns the population
//! and hands out dense [`PeerId`]s.

use crate::netsim::fault::ConnectionState;
use std::fmt;

/// A dense peer identifier.
///
/// `PeerId`s are indices into the [`PeerRegistry`]; they stay stable for the
/// lifetime of a simulation (whitewashing creates a *new* identity rather
/// than reusing an old one, matching how real P2P identities work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub u32);

impl PeerId {
    /// The identifier as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer#{}", self.0)
    }
}

/// Per-peer resource state.
#[derive(Debug, Clone, PartialEq)]
pub struct Peer {
    /// The peer's identifier.
    pub(crate) id: PeerId,
    /// Total upload bandwidth capacity (normalised to 1.0 in the paper).
    pub(crate) upload_capacity: f64,
    /// Total download bandwidth capacity (normalised to 1.0 in the paper).
    pub(crate) download_capacity: f64,
    /// Storage capacity in articles (the simulation uses 100).
    pub(crate) storage_capacity: u32,
    /// Fraction of upload bandwidth currently offered to the network (0..=1).
    pub(crate) shared_upload_fraction: f64,
    /// Number of articles currently offered for download.
    pub(crate) shared_articles: u32,
    /// Whether the peer is currently online.
    pub online: bool,
    /// Link-quality state of the peer's network attachment, driven by the
    /// configured [`LinkModel`](crate::netsim::fault::LinkModel)'s connection
    /// lifecycle. Always [`ConnectionState::Connected`] under the ideal
    /// model (the lifecycle never runs there).
    pub(crate) connection: ConnectionState,
    /// Time step at which the peer joined the network.
    pub(crate) joined_at: u64,
}

impl Peer {
    /// Creates a peer with the paper's normalised capacities.
    pub(crate) fn new(id: PeerId, joined_at: u64) -> Self {
        Self {
            id,
            upload_capacity: 1.0,
            download_capacity: 1.0,
            storage_capacity: 100,
            shared_upload_fraction: 0.0,
            shared_articles: 0,
            online: true,
            connection: ConnectionState::Connected,
            joined_at,
        }
    }

    /// The absolute upload bandwidth the peer currently offers:
    /// `shared_upload_fraction · upload_capacity`.
    pub fn offered_upload(&self) -> f64 {
        if self.online {
            self.shared_upload_fraction * self.upload_capacity
        } else {
            0.0
        }
    }

    /// Whether the peer currently offers anything for download.
    pub(crate) fn is_sharing(&self) -> bool {
        self.online && (self.shared_articles > 0 || self.offered_upload() > 0.0)
    }

    /// Sets the shared upload fraction, clamped to `[0, 1]`.
    pub fn set_shared_upload_fraction(&mut self, fraction: f64) {
        self.shared_upload_fraction = fraction.clamp(0.0, 1.0);
    }

    /// Sets the number of shared articles, clamped to the storage capacity.
    pub(crate) fn set_shared_articles(&mut self, count: u32) {
        self.shared_articles = count.min(self.storage_capacity);
    }
}

/// The population of peers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PeerRegistry {
    peers: Vec<Peer>,
}

impl PeerRegistry {
    /// Creates an empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a registry from checkpointed peers. Peers must be listed in
    /// dense-id order (the order [`PeerRegistry::iter`] yields them in).
    ///
    /// # Panics
    ///
    /// Panics if any peer's id does not match its position.
    pub(crate) fn from_peers(peers: Vec<Peer>) -> Self {
        for (index, peer) in peers.iter().enumerate() {
            assert_eq!(peer.id.index(), index, "peer ids must be dense");
        }
        Self { peers }
    }

    /// Creates a registry pre-populated with `count` homogeneous peers that
    /// joined at time step 0.
    pub fn with_population(count: usize) -> Self {
        let mut registry = Self::new();
        for _ in 0..count {
            registry.join(0);
        }
        registry
    }

    /// Number of peers ever registered (including offline ones).
    pub(crate) fn len(&self) -> usize {
        self.peers.len()
    }

    /// Adds a new peer joining at `now` and returns its identifier.
    pub(crate) fn join(&mut self, now: u64) -> PeerId {
        let id = PeerId(u32::try_from(self.peers.len()).expect("too many peers"));
        self.peers.push(Peer::new(id, now));
        id
    }

    /// Immutable access to a peer.
    ///
    /// # Panics
    ///
    /// Panics if the peer does not exist.
    pub fn peer(&self, id: PeerId) -> &Peer {
        &self.peers[id.index()]
    }

    /// Mutable access to a peer.
    pub fn peer_mut(&mut self, id: PeerId) -> &mut Peer {
        &mut self.peers[id.index()]
    }

    /// Iterator over all peers.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Peer> {
        self.peers.iter()
    }

    /// Iterator over all currently online peers.
    pub fn online(&self) -> impl Iterator<Item = &Peer> {
        self.peers.iter().filter(|p| p.online)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_assigns_dense_ids() {
        let mut r = PeerRegistry::new();
        assert_eq!(r.len(), 0);
        let a = r.join(0);
        let b = r.join(5);
        assert_eq!(a, PeerId(0));
        assert_eq!(b, PeerId(1));
        assert_eq!(r.len(), 2);
        assert_eq!(r.peer(b).joined_at, 5);
    }

    #[test]
    fn default_capacities_match_paper_normalisation() {
        let p = Peer::new(PeerId(0), 0);
        assert_eq!(p.upload_capacity, 1.0);
        assert_eq!(p.download_capacity, 1.0);
        assert_eq!(p.storage_capacity, 100);
        assert!(p.online);
        assert_eq!(p.connection, ConnectionState::Connected);
        assert!(!p.is_sharing());
    }

    #[test]
    fn offered_upload_scales_with_fraction() {
        let mut p = Peer::new(PeerId(0), 0);
        p.set_shared_upload_fraction(0.5);
        assert_eq!(p.offered_upload(), 0.5);
        p.online = false;
        assert_eq!(p.offered_upload(), 0.0);
    }

    #[test]
    fn shared_upload_fraction_is_clamped() {
        let mut p = Peer::new(PeerId(0), 0);
        p.set_shared_upload_fraction(1.7);
        assert_eq!(p.shared_upload_fraction, 1.0);
        p.set_shared_upload_fraction(-0.3);
        assert_eq!(p.shared_upload_fraction, 0.0);
    }

    #[test]
    fn shared_articles_clamped_to_capacity() {
        let mut p = Peer::new(PeerId(0), 0);
        p.set_shared_articles(250);
        assert_eq!(p.shared_articles, 100);
        p.set_shared_articles(50);
        assert_eq!(p.shared_articles, 50);
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", PeerId(7)), "peer#7");
    }
}
