//! The reputation-based incentive scheme of Bocek et al. (IPDPS 2008),
//! Section III, plus the reputation-propagation substrates the paper assumes
//! to exist (Section II-C).
//!
//! A peer's behaviour is summarised by two *contribution values*:
//!
//! * `C_S(a, b) = α_S · S_articles + β_S · S_bandwidth − d_S` for sharing
//!   articles and bandwidth, and
//! * `C_E(v, e) = α_E · S_votes + β_E · S_edits − d_E` for (successful)
//!   voting and (accepted) editing,
//!
//! each mapped through a monotone *reputation function*
//! `R : ℝ≥0 → [R_min, 1]` — the paper uses the logistic
//! `R(C) = 1 / (1 + g · exp(−β · C))` — giving every peer two reputation
//! values `R_S` and `R_E`. Service differentiation then ties quality of
//! service to reputation: bandwidth is split proportionally to `R_S`, voting
//! power proportionally to `R_E`, editing requires `R_S ≥ θ`, the majority
//! needed to accept an edit shrinks with the editor's reputation, and
//! malicious voters/editors are punished by losing rights or having their
//! reputation reset.
//!
//! Modules:
//!
//! * [`function`] — the paper's logistic reputation function,
//! * [`contribution`] — contribution-value accounting with decay,
//! * [`ledger`] — per-peer dual-reputation ledger (dense reference
//!   implementation and the [`ledger::ReputationStore`] interface),
//! * [`sharded`] — the peer-id-range [`sharded::ShardedLedger`], which
//!   stores each peer's reputations beside its contributions, with its
//!   collect-then-apply [`sharded::DeltaBatch`] protocol,
//! * [`service`] — the service-differentiation rules,
//! * [`punishment`] — malicious voter/editor punishment policies,
//! * [`propagation`] — EigenTrust, MaxFlow and gossip propagation of local
//!   trust into global reputation values,
//! * [`attack`] — collusion / whitewashing attack generators used by the
//!   robustness tests.

pub mod attack;
pub mod contribution;
pub mod function;
pub mod ledger;
pub mod propagation;
pub mod punishment;
pub mod service;
pub mod sharded;
