//! The discrete time-step clock.
//!
//! "In the model, time is discretized" (Section IV). All components of the
//! substrate and the incentive layer share one [`SimClock`] so step counts,
//! phase boundaries (training vs. evaluation) and decay bookkeeping agree.

/// A monotonically advancing discrete clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimClock {
    now: u64,
}

impl SimClock {
    /// Creates a clock at step 0.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Creates a clock starting at an arbitrary step (useful for resuming).
    pub(crate) fn starting_at(step: u64) -> Self {
        Self { now: step }
    }

    /// The current step.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the clock by one step and returns the new value.
    pub fn tick(&mut self) -> u64 {
        self.now += 1;
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_ticks() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.tick(), 1);
        assert_eq!(c.tick(), 2);
        assert_eq!(c.now(), 2);
    }

    #[test]
    fn starting_at_resumes_the_count() {
        let mut c = SimClock::starting_at(10);
        assert_eq!(c.now(), 10);
        assert_eq!(c.tick(), 11);
    }
}
