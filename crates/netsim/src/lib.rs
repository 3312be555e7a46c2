//! `collabsim-netsim`: re-exports [`collabsim::netsim`], the P2P network
//! substrate, under the package name that the benchmark in `perfbench/`
//! depends on by path.

pub use collabsim::netsim::*;
