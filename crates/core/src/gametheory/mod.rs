//! Game-theoretic substrate for the collabsim reproduction of
//! *"Game Theoretical Analysis of Incentives for Large-scale, Fully
//! Decentralized Collaboration Networks"* (Bocek, Shann, Hausheer, Stiller —
//! IPDPS 2008).
//!
//! The paper models peers as players of a repeated game whose utility is
//! the difference between benefit and cost of their actions (Section II-A).
//! This module provides the two pieces of that model the simulation uses:
//!
//! * [`utility`] — the paper's utility functions `U_S` (sharing) and `U_E`
//!   (editing/voting), Section III-D,
//! * [`behavior`] — the three standard behaviour types used throughout the
//!   paper: *altruistic*, *rational* and *irrational* peers (Section II-A,
//!   citing Shneidman & Parkes).
//!
//! Nothing in this module draws random numbers or touches global state, so
//! utility sweeps can be evaluated from many threads at once.

pub mod behavior;
pub mod utility;
