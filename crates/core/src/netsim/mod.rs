//! The P2P collaboration-network substrate for the collabsim reproduction of
//! Bocek et al. (IPDPS 2008). The paper's incentive scheme runs on top of a
//! "large-scale, fully decentralized P2P collaboration network" in which
//! peers share storage (articles), upload bandwidth, edits of articles and
//! votes on edits. The authors do not publish their network substrate, so
//! this module builds one from scratch:
//!
//! * [`peer`] — peer identities and per-peer resource state (bandwidth,
//!   storage, online status),
//! * [`article`] — articles, revisions, pending edits and their life cycle,
//! * [`dht`] — the key-based article placement (Kademlia's XOR metric)
//!   realizing the "fully decentralized" storage of article replicas,
//! * [`bandwidth`] — upload-bandwidth allocation among concurrent
//!   downloaders (the resource the incentive scheme differentiates),
//! * [`transfer`] — multi-step download sessions driven by the allocator,
//! * [`storage`] — per-peer article stores with capacity accounting and
//!   replication bookkeeping,
//! * [`churn`] — peer join/leave/whitewash dynamics,
//! * [`fault`] — fault injection: spec-selectable link models (latency,
//!   loss, regional clusters) and the peer connection-state lifecycle,
//! * `clock` — the discrete time-step clock shared by all components.
//!
//! The substrate is deliberately independent of the reputation/incentive
//! layer: it exposes *mechanism* (who can upload how much to whom), while
//! the rest of `collabsim` supplies *policy* (how bandwidth shares are
//! differentiated, who may edit, how votes are weighted).

pub mod article;
pub mod bandwidth;
pub mod churn;
pub(crate) mod clock;
pub mod dht;
pub mod fault;
pub mod peer;
pub mod storage;
pub mod transfer;
