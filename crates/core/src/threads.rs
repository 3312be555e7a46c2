//! Thread-count resolution for the intra-step parallel stages.
//!
//! One environment variable, `SCENARIO_THREADS`, caps the crate's only
//! parallelism, the intra-step workers: the selection phase's sampling
//! shards, the sharing phase's collect and ledger-apply workers, and the
//! learning phase's shards. The download, edit-vote and utility phases
//! run on the calling thread at every worker count. Setting
//! `SCENARIO_THREADS=1` therefore forces a fully sequential execution —
//! which the determinism CI job diffs against the default parallel
//! execution, pinning the parallel == sequential guarantee.
//!
//! A worker count from outside the program (a spec's `intra_step_threads`,
//! the CLI's `--threads`, `SCENARIO_THREADS`) is bounded by
//! [`MAX_THREADS`]: every parallel stage spawns up to that many scoped
//! threads every step.
//!
//! Thread counts never affect simulation results; they only affect
//! wall-clock time. No worker draws from the step RNG: the draws are taken
//! on the calling thread, in peer order, by the selection phase's draw
//! stage, the download phase's collect stage and the edit-vote loop, and
//! the workers read only those draws and frozen step state.

use std::num::NonZeroUsize;

/// The environment variable capping all parallelism (`0`, unparsable
/// values and values above [`MAX_THREADS`] are ignored).
pub const SCENARIO_THREADS_ENV: &str = "SCENARIO_THREADS";

/// The largest worker count accepted from outside the program. It equals
/// the ledger's automatic shard ceiling
/// (`MAX_AUTO_SHARDS`),
/// and the hardware-based automatic count never exceeds 8.
pub const MAX_THREADS: usize = 64;

/// Parses a [`SCENARIO_THREADS_ENV`] value: a count in `1..=MAX_THREADS`,
/// or `None` for anything else (`0`, empty, unparsable or too large), which
/// leaves the automatic choice in place.
pub fn parse_scenario_threads(value: &str) -> Option<usize> {
    value
        .parse::<usize>()
        .ok()
        .filter(|n| (1..=MAX_THREADS).contains(n))
}

/// The thread count requested via [`SCENARIO_THREADS_ENV`], if any.
pub fn scenario_threads() -> Option<usize> {
    std::env::var(SCENARIO_THREADS_ENV)
        .ok()
        .and_then(|v| parse_scenario_threads(&v))
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
    fn scenario_threads_values_outside_the_bound_are_ignored() {
        for (value, parsed) in [
            ("0", None),
            ("", None),
            ("x", None),
            ("-1", None),
            ("1", Some(1)),
            ("64", Some(64)),
            ("65", None),
        ] {
            assert_eq!(parse_scenario_threads(value), parsed, "{value:?}");
        }
    }

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
