//! Tabular reinforcement learning for the collabsim reproduction of Bocek et
//! al., IPDPS 2008. In the paper's simulation model (Section IV) every peer
//! is "a self-learning agent that will try to maximize its benefit by
//! exploring different strategies"; the learning algorithm is Q-Learning
//! with Boltzmann (softmax) action selection.
//!
//! The module provides:
//!
//! * [`space`] — discrete state/action space descriptors,
//! * `qtable` — the dense tabular Q-value store,
//! * [`qlearning`] — the Q-learning update rule
//!   `Q(s,a) ← (1−α)·Q(s,a) + α·(r + γ·max_b Q(s′,b))`,
//! * [`boltzmann`] — the Boltzmann exploration distribution
//!   `p_s(a) = exp(Q(s,a)/T) / Σ_b exp(Q(s,b)/T)` (Figure 2 of the paper)
//!   and the `BoltzmannPolicy` that samples from it.
//!
//! Everything is deterministic given an explicit RNG and fully `Send + Sync`
//! (no interior mutability, no globals) so whole populations of learners can
//! be advanced from parallel experiment sweeps.

pub mod boltzmann;
pub mod qlearning;
pub(crate) mod qtable;
pub mod space;
