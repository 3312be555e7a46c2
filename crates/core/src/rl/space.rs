//! Discrete state and action space descriptors.
//!
//! The paper's simulation uses a deliberately small tabular setting: 10
//! states (the agent's own reputation bucket) and a composite action space
//! over sharing levels and editing/voting behaviour. These descriptors keep
//! the Q-table, the policies and the environment agreeing on the meaning of
//! indices, and provide the mixed-radix encoding used to flatten composite
//! actions into a single index.

/// A discrete state space of `n` states indexed `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateSpace {
    count: usize,
}

impl StateSpace {
    /// Creates a state space with `count` states.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(count: usize) -> Self {
        assert!(count > 0, "state space must contain at least one state");
        Self { count }
    }

    /// Number of states.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// Buckets a continuous value from `[lo, hi]` into a state index.
    ///
    /// This is how the paper maps the reputation interval `[R_min, 1]` onto
    /// its 10 states: each state represents one tenth of the interval.
    /// Values outside the interval are clamped.
    pub(crate) fn bucket(&self, value: f64, lo: f64, hi: f64) -> usize {
        assert!(hi > lo, "bucket interval must be non-degenerate");
        let clamped = value.clamp(lo, hi);
        let fraction = (clamped - lo) / (hi - lo);
        ((fraction * self.count as f64) as usize).min(self.count - 1)
    }
}

/// A discrete action space of `n` actions indexed `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActionSpace {
    count: usize,
}

impl ActionSpace {
    /// Creates a composite action space as the cartesian product of the
    /// given per-dimension cardinalities (mixed-radix flattening).
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or any dimension is zero.
    pub fn product(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "need at least one dimension");
        let count = dims.iter().fold(1usize, |acc, &d| {
            assert!(d > 0, "dimensions must be non-zero");
            acc.checked_mul(d).expect("action space overflow")
        });
        Self { count }
    }

    /// Number of actions.
    pub(crate) fn len(&self) -> usize {
        self.count
    }
}

/// Flattens a multi-dimensional action `coords` over the per-dimension
/// cardinalities `dims` into a single index (row-major / mixed radix).
///
/// # Panics
///
/// Panics if the coordinate vector does not match `dims` or any coordinate
/// is out of range.
pub(crate) fn flatten_action(coords: &[usize], dims: &[usize]) -> usize {
    assert_eq!(coords.len(), dims.len(), "coordinate/dimension mismatch");
    let mut index = 0usize;
    for (&c, &d) in coords.iter().zip(dims.iter()) {
        assert!(c < d, "coordinate {c} out of range for dimension {d}");
        index = index * d + c;
    }
    index
}

/// Inverse of [`flatten_action`]: expands a flat index into per-dimension
/// coordinates, written into a caller-provided slot array. Hot decode paths
/// (one action decode per rational peer per step) call this through a
/// stack-allocated fixed-size array instead of paying a heap round-trip per
/// decode.
///
/// # Panics
///
/// Panics if `coords` does not match `dims` in length or the flat index is
/// out of range.
pub(crate) fn unflatten_action_into(mut index: usize, dims: &[usize], coords: &mut [usize]) {
    assert_eq!(coords.len(), dims.len(), "coordinate/dimension mismatch");
    for (slot, &d) in coords.iter_mut().zip(dims.iter()).rev() {
        *slot = index % d;
        index /= d;
    }
    assert_eq!(index, 0, "flat index out of range for dimensions");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_space_len() {
        let s = StateSpace::new(10);
        assert_eq!(s.len(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn zero_state_space_panics() {
        let _ = StateSpace::new(0);
    }

    #[test]
    fn bucket_maps_reputation_interval_like_the_paper() {
        // 10 states over [0.05, 1], the paper's Section IV-B setting.
        let s = StateSpace::new(10);
        assert_eq!(s.bucket(0.05, 0.05, 1.0), 0);
        assert_eq!(s.bucket(1.0, 0.05, 1.0), 9);
        assert_eq!(s.bucket(0.5, 0.05, 1.0), 4);
        // Clamping below and above.
        assert_eq!(s.bucket(0.0, 0.05, 1.0), 0);
        assert_eq!(s.bucket(2.0, 0.05, 1.0), 9);
    }

    #[test]
    fn action_space_product() {
        // The paper's action space: 3 bandwidth levels × 3 file levels ×
        // 3 edit behaviours (constructive / destructive / abstain).
        let a = ActionSpace::product(&[3, 3, 3]);
        assert_eq!(a.len(), 27);
    }

    #[test]
    fn flatten_and_unflatten_roundtrip() {
        let dims = [3, 3, 3];
        let mut coords = [0usize; 3];
        for i in 0..27 {
            unflatten_action_into(i, &dims, &mut coords);
            assert_eq!(flatten_action(&coords, &dims), i);
        }
    }

    #[test]
    fn flatten_is_row_major() {
        let dims = [2, 3];
        assert_eq!(flatten_action(&[0, 0], &dims), 0);
        assert_eq!(flatten_action(&[0, 2], &dims), 2);
        assert_eq!(flatten_action(&[1, 0], &dims), 3);
        assert_eq!(flatten_action(&[1, 2], &dims), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flatten_rejects_out_of_range_coordinate() {
        let _ = flatten_action(&[2, 0], &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn flatten_rejects_dimension_mismatch() {
        let _ = flatten_action(&[0, 0, 0], &[2, 3]);
    }
}
