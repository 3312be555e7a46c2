//! Peer churn: joins, departures and whitewashing.
//!
//! The paper's simulation uses a fixed population of 100 peers, but its
//! design discussion depends on churn: the minimum reputation `R_min` must
//! be low enough that *whitewashing* — leaving and rejoining under a fresh
//! identity to shed a bad reputation — does not pay off. The churn model
//! generates join/leave/whitewash events per time step so the scheme can be
//! exercised under a dynamic population, and so the whitewashing ablation
//! has a concrete adversary to measure.

use crate::netsim::peer::PeerId;
use rand::Rng;

/// One churn event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A brand-new peer joins the network.
    Join,
    /// An existing peer goes offline.
    Leave(PeerId),
    /// An existing peer whitewashes: it leaves and immediately rejoins with
    /// a fresh identity (the old identifier goes offline, a new one joins).
    Whitewash(PeerId),
}

/// Per-step churn probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnModel {
    /// Probability that a new peer joins in a given step.
    pub join_probability: f64,
    /// Per-peer probability of leaving in a given step.
    pub leave_probability: f64,
    /// Per-peer probability of whitewashing in a given step.
    pub whitewash_probability: f64,
}

impl Default for ChurnModel {
    fn default() -> Self {
        // The paper's own simulation is churn-free; these defaults keep that
        // behaviour unless an experiment opts in.
        Self::stable()
    }
}

impl ChurnModel {
    /// No churn at all (the paper's setting).
    pub(crate) fn stable() -> Self {
        Self {
            join_probability: 0.0,
            leave_probability: 0.0,
            whitewash_probability: 0.0,
        }
    }

    /// An adversarial regime where free-riders whitewash aggressively.
    pub fn whitewashing(probability: f64) -> Self {
        Self {
            join_probability: 0.0,
            leave_probability: 0.0,
            whitewash_probability: probability,
        }
    }

    /// Validates the probability ranges, naming the offending field in the
    /// error message.
    pub(crate) fn check(&self) -> Result<(), String> {
        for (name, p) in [
            ("join", self.join_probability),
            ("leave", self.leave_probability),
            ("whitewash", self.whitewash_probability),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} probability must lie in [0, 1], got {p}"));
            }
        }
        Ok(())
    }

    /// Panicking shim around [`ChurnModel::check`] for callers that treat a
    /// bad model as a programming error.
    ///
    /// # Panics
    ///
    /// Panics if any probability lies outside `[0, 1]`.
    pub(crate) fn validate(&self) {
        if let Err(message) = self.check() {
            panic!("{message}");
        }
    }

    /// Whether this model produces no events at all.
    pub(crate) fn is_stable(&self) -> bool {
        self.join_probability == 0.0
            && self.leave_probability == 0.0
            && self.whitewash_probability == 0.0
    }

    /// Samples the churn events for one time step over the currently
    /// online peers into `events` (cleared first). Events follow the order
    /// of `online_peers`; at most one event per online peer plus at most
    /// one join is generated per step.
    pub(crate) fn sample_step_into<R: Rng + ?Sized>(
        &self,
        online_peers: impl IntoIterator<Item = PeerId>,
        rng: &mut R,
        events: &mut Vec<ChurnEvent>,
    ) {
        self.validate();
        events.clear();
        if self.is_stable() {
            return;
        }
        if rng.gen_bool(self.join_probability) {
            events.push(ChurnEvent::Join);
        }
        for peer in online_peers {
            if self.whitewash_probability > 0.0 && rng.gen_bool(self.whitewash_probability) {
                events.push(ChurnEvent::Whitewash(peer));
            } else if self.leave_probability > 0.0 && rng.gen_bool(self.leave_probability) {
                events.push(ChurnEvent::Leave(peer));
            }
        }
    }
}

/// A deterministic queue of *timed* re-entries: "peer `p` comes back online
/// at step `t`".
///
/// The probabilistic [`ChurnModel`] covers background churn; adversarial
/// strategies (timed whitewashing, lie-low-then-return cycles) need churn
/// events at *chosen* times instead. The schedule is a plain insertion-order
/// queue — no randomness, no hashing — so draining it is a pure function of
/// the schedule calls, which keeps strategy-driven churn bit-reproducible.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ReentrySchedule {
    entries: Vec<(u64, PeerId)>,
}

impl ReentrySchedule {
    /// An empty schedule.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Schedules `peer` to re-enter at step `at` (multiple entries per peer
    /// are allowed; each fires once).
    pub(crate) fn schedule(&mut self, at: u64, peer: PeerId) {
        self.entries.push((at, peer));
    }

    /// Moves every entry due at or before `now` into `out`, in scheduling
    /// order. Entries that are not yet due stay queued.
    pub(crate) fn drain_due(&mut self, now: u64, out: &mut Vec<PeerId>) {
        let mut kept = 0usize;
        for i in 0..self.entries.len() {
            let (at, peer) = self.entries[i];
            if at <= now {
                out.push(peer);
            } else {
                self.entries[kept] = (at, peer);
                kept += 1;
            }
        }
        self.entries.truncate(kept);
    }

    /// The queued `(due step, peer)` entries in scheduling order, for
    /// checkpointing.
    pub(crate) fn entries(&self) -> &[(u64, PeerId)] {
        &self.entries
    }

    /// Rebuilds a schedule from checkpointed entries, preserving order.
    pub(crate) fn from_entries(entries: Vec<(u64, PeerId)>) -> Self {
        Self { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One step's events over the online peers `0..n`.
    fn sample(model: &ChurnModel, n: u32, rng: &mut StdRng) -> Vec<ChurnEvent> {
        let mut events = Vec::new();
        model.sample_step_into((0..n).map(PeerId), rng, &mut events);
        events
    }

    #[test]
    fn stable_model_generates_nothing() {
        let model = ChurnModel::stable();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(sample(&model, 50, &mut rng).is_empty());
        }
        assert!(model.is_stable());
    }

    #[test]
    fn certain_leave_empties_the_network() {
        let model = ChurnModel {
            join_probability: 0.0,
            leave_probability: 1.0,
            whitewash_probability: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let events = sample(&model, 5, &mut rng);
        assert_eq!(events.len(), 5);
        assert!(events.iter().all(|e| matches!(e, ChurnEvent::Leave(_))));
    }

    #[test]
    fn whitewash_takes_priority_over_leave() {
        let model = ChurnModel {
            join_probability: 0.0,
            leave_probability: 1.0,
            whitewash_probability: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let events = sample(&model, 4, &mut rng);
        assert!(events.iter().all(|e| matches!(e, ChurnEvent::Whitewash(_))));
    }

    #[test]
    fn joins_are_at_most_one_per_step() {
        let model = ChurnModel {
            join_probability: 1.0,
            leave_probability: 0.0,
            whitewash_probability: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(4);
        let events = sample(&model, 10, &mut rng);
        assert_eq!(events, vec![ChurnEvent::Join]);
    }

    #[test]
    fn mild_model_event_rate_is_low() {
        let model = ChurnModel {
            join_probability: 0.05,
            leave_probability: 0.002,
            whitewash_probability: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut total = 0usize;
        for _ in 0..200 {
            total += sample(&model, 100, &mut rng).len();
        }
        // Expected ≈ 200 * (0.05 + 100*0.002) = 50; allow generous slack.
        assert!(total > 10 && total < 120, "total events {total}");
    }

    #[test]
    fn fixed_seed_reproduces_the_exact_event_stream() {
        let model = ChurnModel {
            join_probability: 0.3,
            leave_probability: 0.05,
            whitewash_probability: 0.02,
        };
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stream = Vec::new();
            for _ in 0..300 {
                stream.extend(sample(&model, 40, &mut rng));
            }
            stream
        };
        assert_eq!(run(42), run(42), "same seed must replay identically");
        assert_ne!(run(42), run(43), "different seeds must diverge");
    }

    #[test]
    fn events_reference_only_online_peers_in_input_order() {
        let model = ChurnModel {
            join_probability: 0.0,
            leave_probability: 0.5,
            whitewash_probability: 0.3,
        };
        let online: Vec<PeerId> = [3u32, 7, 11, 19].map(PeerId).to_vec();
        let mut rng = StdRng::seed_from_u64(9);
        let mut events = Vec::new();
        for _ in 0..50 {
            model.sample_step_into(online.iter().copied(), &mut rng, &mut events);
            let mut last_index = 0usize;
            for &event in &events {
                let peer = match event {
                    ChurnEvent::Leave(p) | ChurnEvent::Whitewash(p) => p,
                    ChurnEvent::Join => panic!("join probability is zero"),
                };
                let index = online.iter().position(|&p| p == peer).expect("known peer");
                assert!(index >= last_index, "events must follow input order");
                last_index = index;
            }
        }
    }

    #[test]
    fn join_rate_matches_probability() {
        let model = ChurnModel {
            join_probability: 0.25,
            leave_probability: 0.0,
            whitewash_probability: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let steps = 4000;
        let joins: usize = (0..steps).map(|_| sample(&model, 10, &mut rng).len()).sum();
        let rate = joins as f64 / steps as f64;
        assert!(
            (rate - 0.25).abs() < 0.03,
            "join rate {rate} should approximate 0.25"
        );
    }

    #[test]
    fn leave_and_whitewash_rates_match_probabilities() {
        let model = ChurnModel {
            join_probability: 0.0,
            leave_probability: 0.04,
            whitewash_probability: 0.01,
        };
        let mut rng = StdRng::seed_from_u64(12);
        let population = 200u32;
        let steps = 500;
        let mut leaves = 0usize;
        let mut whitewashes = 0usize;
        for _ in 0..steps {
            for event in sample(&model, population, &mut rng) {
                match event {
                    ChurnEvent::Leave(_) => leaves += 1,
                    ChurnEvent::Whitewash(_) => whitewashes += 1,
                    ChurnEvent::Join => panic!("join probability is zero"),
                }
            }
        }
        let trials = (steps * population as usize) as f64;
        let whitewash_rate = whitewashes as f64 / trials;
        // A leave is only sampled when the whitewash coin came up tails.
        let leave_rate = leaves as f64 / (trials * (1.0 - 0.01));
        assert!(
            (whitewash_rate - 0.01).abs() < 0.005,
            "whitewash rate {whitewash_rate} should approximate 0.01"
        );
        assert!(
            (leave_rate - 0.04).abs() < 0.01,
            "leave rate {leave_rate} should approximate 0.04"
        );
    }

    #[test]
    fn whitewashing_constructor_is_pure_whitewash() {
        let model = ChurnModel::whitewashing(0.7);
        assert_eq!(model.whitewash_probability, 0.7);
        assert_eq!(model.join_probability, 0.0);
        assert_eq!(model.leave_probability, 0.0);
        assert!(!model.is_stable());
        model.validate();
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        let model = ChurnModel {
            join_probability: 1.5,
            leave_probability: 0.0,
            whitewash_probability: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(6);
        sample(&model, 1, &mut rng);
    }

    #[test]
    fn reentry_schedule_drains_due_entries_in_scheduling_order() {
        let mut schedule = ReentrySchedule::new();
        assert!(schedule.entries().is_empty());
        schedule.schedule(10, PeerId(3));
        schedule.schedule(5, PeerId(1));
        schedule.schedule(10, PeerId(2));
        assert_eq!(
            schedule.entries(),
            &[(10, PeerId(3)), (5, PeerId(1)), (10, PeerId(2))]
        );

        let mut due = Vec::new();
        schedule.drain_due(4, &mut due);
        assert!(due.is_empty(), "nothing due before step 5");
        schedule.drain_due(5, &mut due);
        assert_eq!(due, vec![PeerId(1)]);
        due.clear();
        // Both step-10 entries fire together, in the order they were queued.
        schedule.drain_due(11, &mut due);
        assert_eq!(due, vec![PeerId(3), PeerId(2)]);
        assert!(schedule.entries().is_empty());
    }

    #[test]
    fn reentry_schedule_allows_repeated_entries_per_peer() {
        let mut schedule = ReentrySchedule::new();
        schedule.schedule(2, PeerId(7));
        schedule.schedule(4, PeerId(7));
        let mut due = Vec::new();
        schedule.drain_due(2, &mut due);
        assert_eq!(due, vec![PeerId(7)]);
        assert_eq!(
            schedule.entries(),
            &[(4, PeerId(7))],
            "second entry still queued"
        );
        due.clear();
        schedule.drain_due(4, &mut due);
        assert_eq!(due, vec![PeerId(7)]);
    }
}
