//! A fixed reference kernel that reads the host's speed.
//!
//! The reference box slows down in spells of 1.1–2.4× that last from
//! seconds to over an hour, longer than a run, so no estimator over one
//! run's readings removes them. The untraced run therefore times this
//! kernel right before every piece of simulator work and scales the
//! piece's host seconds by how much slower than [`REFERENCE_SECONDS`] the
//! kernel ran: a piece's reading is its time at the reference host speed.
//! The kernel never changes with the simulator, so a change that makes
//! the simulator faster or slower moves the readings by the same share.
//!
//! The kernel does the mix of work a simulation step does: random reads
//! and writes in a 256 KiB table (larger than L1, inside L2, like a
//! 100-peer world), data-dependent branches, an `exp` on half the draws
//! and an integer random-number stream.

use std::hint::black_box;
use std::time::Instant;

/// Table entries (8 bytes each).
const TABLE: usize = 1 << 15;

/// Draws per kernel call.
const DRAWS: u32 = 60_000;

/// Host seconds of one kernel call on the reference box when it is quiet
/// (readings there run 0.64–1.3 ms, with the box's load).
pub const REFERENCE_SECONDS: f64 = 0.7e-3;

/// `secs` of host time, measured when a kernel call took `kernel` host
/// seconds, at the reference host speed.
pub fn at_reference(secs: f64, kernel: f64) -> f64 {
    secs * REFERENCE_SECONDS / kernel
}

/// The reference kernel's working set.
#[derive(Debug, Clone)]
pub struct Reference {
    table: Vec<f64>,
    state: u64,
}

impl Default for Reference {
    /// A kernel with its table built and warmed by one call.
    fn default() -> Self {
        let mut reference = Self {
            table: (0..TABLE).map(|i| (i % 97) as f64 / 97.0).collect(),
            state: 0x9E37_79B9_7F4A_7C15,
        };
        reference.seconds();
        reference
    }
}

impl Reference {
    /// Runs the kernel once and returns its host seconds. The table is
    /// read through first, untimed, so that the reading does not depend on
    /// how much of it the simulator's work before it evicted from cache.
    pub fn seconds(&mut self) -> f64 {
        black_box(self.table.iter().sum::<f64>());
        let started = Instant::now();
        let table = black_box(&mut self.table);
        let mut x = self.state;
        let mut acc = 0.0;
        for _ in 0..DRAWS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (TABLE - 1);
            let v = table[i];
            if v > 0.5 {
                acc += (-v).exp();
                table[i] = v * 0.5;
            } else {
                acc -= v;
                table[i] = v + 0.3;
            }
        }
        self.state = x;
        black_box(acc);
        started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_kernel_scales_a_reading_down() {
        assert_eq!(at_reference(2.0, REFERENCE_SECONDS), 2.0);
        assert_eq!(at_reference(2.0, 2.0 * REFERENCE_SECONDS), 1.0);
    }

    #[test]
    fn the_kernel_takes_measurable_time() {
        let mut reference = Reference::default();
        assert!(reference.seconds() > 0.0);
    }
}
