//! Correctness checks, made from outside the simulator at the end of every
//! operation: report digests, world invariants and resume fingerprints.

use collabsim::{
    ActiveSetObserver, ArenaBoundObserver, ConservationObserver, ReputationBoundsObserver,
    SimWorld, SimulationReport, StepContext, StepObserver, WorldView,
};
use std::collections::BTreeMap;

/// FNV-1a, 64 bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01B3);
    }
    hash
}

/// The digest of a report: FNV-1a64 of its `Debug` rendering, the form
/// the golden test pins.
pub fn report_digest(report: &SimulationReport) -> u64 {
    fnv1a64(format!("{report:?}").as_bytes())
}

/// Pinned digests by operation label.
pub type Pins = BTreeMap<String, u64>;

/// The digests of every cell and fork at the default seed and full size.
pub fn default_pins() -> Pins {
    parse_pins(include_str!("../pinned_digests.txt"))
}

/// Parses `<label> <16 hex digits>` lines (`#` starts a comment).
pub fn parse_pins(text: &str) -> Pins {
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let (label, hex) = line.rsplit_once(' ').expect("`<label> <digest>` line");
            let digest = u64::from_str_radix(hex.trim(), 16).expect("hex digest");
            (label.trim().to_string(), digest)
        })
        .collect()
}

/// The world invariants every run must end with — bandwidth conservation,
/// reputations inside `[R_min, 1]`, a transfer arena no larger than the
/// population, and active sets equal to the peer registry — checked once
/// on the final world by the simulator's own invariant observers, with
/// the tolerances the spec fuzzer uses.
pub fn check_invariants(world: &SimWorld, report: &SimulationReport) -> Result<(), String> {
    let ctx = StepContext::new(world.population(), 0.0, world.clock.now());
    let mut bounds = ReputationBoundsObserver::new();
    let mut arena = ArenaBoundObserver::new();
    let mut active = ActiveSetObserver::new();
    let mut conservation = ConservationObserver::new();
    bounds.on_step_end(WorldView::new(world), &ctx);
    arena.on_step_end(WorldView::new(world), &ctx);
    active.on_step_end(WorldView::new(world), &ctx);
    conservation.on_run_end(WorldView::new(world), report);
    let violations: Vec<&str> = bounds
        .violations()
        .iter()
        .chain(arena.violations())
        .chain(active.violations())
        .chain(conservation.violations())
        .map(String::as_str)
        .collect();
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations.join("; "))
    }
}

/// A cheap summary of the world state a checkpoint carries; a resumed
/// world must show the same one as the world that was captured.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    step: u64,
    q_updates: u64,
    completed: usize,
    propagation_runs: u64,
    net_bits: [u64; 4],
    churn: (u64, u64, u64),
    reputation_bits: u64,
    online: usize,
}

impl Fingerprint {
    /// Reads the fingerprint of `world`.
    pub fn of(world: &SimWorld) -> Self {
        let net = world.net_stats;
        let reputation_sum: f64 = (0..world.population())
            .map(|p| world.ledger.sharing_reputation(p) + world.ledger.editing_reputation(p))
            .sum();
        Self {
            step: world.clock.now(),
            q_updates: world.agents.total_updates(),
            completed: world.transfers.completed_count(),
            propagation_runs: world.propagation_runs,
            net_bits: [
                net.grants_offered.to_bits(),
                net.grants_applied.to_bits(),
                net.grants_lost.to_bits(),
                net.grants_delayed.to_bits(),
            ],
            churn: (
                world.churn_stats.joins,
                world.churn_stats.leaves,
                world.churn_stats.whitewashes,
            ),
            reputation_bits: reputation_sum.to_bits(),
            online: world.active.online().count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn pins_parse_labels_with_spaces_and_skip_comments() {
        let pins = parse_pins("# comment\n\npaper-mix/a b 00000000deadbeef\n");
        assert_eq!(pins.len(), 1);
        assert_eq!(pins["paper-mix/a b"], 0xDEAD_BEEF);
        assert_eq!(default_pins().len(), 24, "18 cells, 1 scale run, 5 forks");
    }
}
