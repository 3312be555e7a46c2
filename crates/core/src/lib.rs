//! # collabsim
//!
//! The simulation model of the collabsim reproduction of *"Game
//! Theoretical Analysis of Incentives for Large-scale, Fully Decentralized
//! Collaboration Networks"* (Bocek, Shann, Hausheer, Stiller — IPDPS 2008).
//!
//! The crate holds the paper's Section-IV model, one module per substrate:
//!
//! * a population of (by default) 100 peers connected by the P2P network
//!   of [`netsim`],
//! * every peer carrying the dual reputation of [`reputation`] (`R_S` for
//!   sharing, `R_E` for editing/voting),
//! * rational peers learning with the tabular Q-learning of [`rl`]
//!   (Boltzmann exploration, the paper's two-phase temperature schedule),
//!   while altruistic and irrational peers follow the fixed behaviours of
//!   [`gametheory::behavior`],
//! * service differentiation applied (or not, for the baseline) when
//!   bandwidth is allocated, votes are weighted and edits are admitted,
//! * the utility functions `U_S`/`U_E` of [`gametheory::utility`]
//!   providing the per-step rewards.
//!
//! The step loop itself is a composable pipeline: every sub-phase of a
//! simulation step (selection, sharing, downloads, editing/voting, utility,
//! learning, optional reputation propagation) is a
//! [`pipeline::StepPhase`] trait object operating on the shared
//! [`world::SimWorld`], so incentive schemes and future substrates plug in
//! without touching the loop.
//!
//! The top-level entry points are:
//!
//! * [`SimulationConfig`] / [`Simulation`] — configure and run one
//!   simulation (training phase + measured evaluation phase) and obtain a
//!   [`SimulationReport`],
//! * [`pipeline`] — the step-phase pipeline behind [`Simulation::step`],
//! * [`ScenarioSpec`] — one run as a declarative, text-serialisable
//!   description ([`Simulation::from_spec`] builds it),
//! * [`results`] — the plain-text per-behaviour and churn tables the
//!   examples print.
//!
//! Sets of runs are declared in the `collabsim-cli` crate's `scenarios`
//! module and run by its grid coordinator, one worker process per cell:
//! the paper's Figures 3–7 and the ablations are checked-in spec files
//! checked by `collabsim check` (that crate's claims table).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod active;
pub mod adversary;
pub mod agent;
pub mod agent_table;
pub mod config;
pub mod engine;
pub mod gametheory;
pub mod incentive;
pub mod invariants;
pub mod json;
pub mod netsim;
pub mod observer;
pub mod pipeline;
pub mod report;
pub mod reputation;
pub mod results;
pub mod rl;
pub mod snapshot;
pub mod spec;
pub mod threads;
pub mod world;

pub use action::{CollabAction, EditBehavior, ShareLevel, ACTION_DIMS};
pub use active::{ActiveSets, PeerBitset};
pub use adversary::{
    AdversaryRegistry, AdversarySpec, AdversaryStrategy, AttackMetricsObserver, AttackStats,
    LearningAdversary, PeerPolicyState, PolicyState,
};
pub use agent::{AgentState, CollabAgent};
pub use agent_table::{AgentShardMut, AgentTable};
pub use config::{PhaseConfig, PropagationConfig, ReputationSource, SimulationConfig};
pub use engine::Simulation;
pub use incentive::IncentiveScheme;
pub use invariants::{
    ActiveSetObserver, ArenaBoundObserver, ConservationObserver, ReputationBoundsObserver,
};
pub use observer::{StepObserver, TimingObserver, WorldView};
pub use pipeline::{PhaseRegistry, PhaseTimings, StepContext, StepPhase, StepPipeline};
pub use report::{BehaviorBreakdown, SimulationReport};
pub use snapshot::{DirStore, MemStore, QPlanes, RunStore, Snapshot, SnapshotError, WorldState};
pub use spec::{apply_defence, ScenarioSpec, ScenarioSpecBuilder, SpecError};
pub use world::{
    AccumulatorTable, ChurnStats, NetStats, PeerAccumulator, SimWorld, UploadColumns, UploadMatrix,
};

// Re-export the pieces downstream users constantly need alongside the core
// API so examples only import one crate.
pub use crate::gametheory::behavior::{BehaviorMix, BehaviorType};
pub use crate::gametheory::utility::UtilityModel;
pub use crate::reputation::function::LogisticReputation;
