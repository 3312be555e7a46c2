//! Thread-count resolution shared by the scenario runner and the
//! intra-step parallel stages.
//!
//! One environment variable, `SCENARIO_THREADS`, caps every source of
//! parallelism in the crate: the [`crate::experiment::ScenarioRunner`]
//! worker pool and the intra-step workers — the selection phase's
//! sampling shards, the sharing phase's collect workers, the ledger apply
//! workers of the sharing and edit-vote phases, the per-source grant
//! workers of the download phase's batched transfer engine
//! ([`allocate_grants`](crate::pipeline::allocate_grants)), and the
//! utility and learning phases' shards. Setting `SCENARIO_THREADS=1`
//! therefore forces a fully sequential execution — which the determinism
//! CI job diffs against the default parallel execution, pinning the
//! parallel == sequential guarantee.
//!
//! Thread counts never affect simulation results; they only affect
//! wall-clock time. No worker draws from the step RNG: the draws are taken
//! on the calling thread, in peer order, by the selection phase's draw
//! stage, the download phase's collect stage and the edit-vote loop, and
//! the workers read only those draws and frozen step state.

use std::num::NonZeroUsize;

/// The environment variable capping all parallelism (`0` or unparsable
/// values are ignored).
pub const SCENARIO_THREADS_ENV: &str = "SCENARIO_THREADS";

/// The thread count requested via [`SCENARIO_THREADS_ENV`], if any.
pub fn scenario_threads() -> Option<usize> {
    std::env::var(SCENARIO_THREADS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// The hardware parallelism, defaulting to 1 if unknown.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Worker-thread count for automatic (`0`-configured) intra-step stages on
/// a population of the given size: the environment override if present,
/// otherwise the hardware parallelism (capped at 8) for populations large
/// enough to amortise worker startup, and 1 for everything smaller.
pub fn auto_intra_step_threads(population: usize) -> usize {
    if let Some(n) = scenario_threads() {
        return n;
    }
    if population >= 4096 {
        hardware_threads().min(8)
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_threads_is_positive() {
        assert!(hardware_threads() >= 1);
    }

    #[test]
    fn small_populations_default_to_sequential() {
        // Unless the environment overrides it, tiny populations get one
        // worker (the override can only raise this test's expectation).
        match scenario_threads() {
            Some(n) => assert_eq!(auto_intra_step_threads(100), n),
            None => assert_eq!(auto_intra_step_threads(100), 1),
        }
    }

    #[test]
    fn large_populations_use_hardware_threads() {
        match scenario_threads() {
            Some(n) => assert_eq!(auto_intra_step_threads(100_000), n),
            None => {
                let n = auto_intra_step_threads(100_000);
                assert!((1..=8).contains(&n));
            }
        }
    }
}
