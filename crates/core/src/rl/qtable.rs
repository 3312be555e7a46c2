//! Dense tabular Q-value storage.
//!
//! The paper's agents keep a full "Q-Matrix" over 10 states × the composite
//! action space; the training phase explicitly avoids "degenerated
//! Q-Matrices" by exploring uniformly. [`QTable`] is that matrix: a dense,
//! row-major `Vec<f64>` with accessor helpers for the greedy action and the
//! row maxima the Q-learning update needs.

use crate::rl::space::{ActionSpace, StateSpace};

/// A dense table of Q-values indexed by `(state, action)`.
#[derive(Debug, Clone, PartialEq)]
pub struct QTable {
    states: usize,
    actions: usize,
    values: Vec<f64>,
}

impl QTable {
    /// Creates a table with all Q-values initialised to `initial`.
    pub(crate) fn new(states: StateSpace, actions: ActionSpace, initial: f64) -> Self {
        Self {
            states: states.len(),
            actions: actions.len(),
            values: vec![initial; states.len() * actions.len()],
        }
    }

    /// Creates a zero-initialised table from raw dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub(crate) fn zeroed(states: usize, actions: usize) -> Self {
        assert!(states > 0 && actions > 0, "Q-table must be non-empty");
        Self {
            states,
            actions,
            values: vec![0.0; states * actions],
        }
    }

    #[inline]
    fn index(&self, state: usize, action: usize) -> usize {
        debug_assert!(state < self.states, "state out of range");
        debug_assert!(action < self.actions, "action out of range");
        state * self.actions + action
    }

    /// Q-value of a state/action pair.
    #[inline]
    pub fn get(&self, state: usize, action: usize) -> f64 {
        self.values[self.index(state, action)]
    }

    /// Sets the Q-value of a state/action pair.
    #[inline]
    pub(crate) fn set(&mut self, state: usize, action: usize, value: f64) {
        let i = self.index(state, action);
        self.values[i] = value;
    }

    /// The full row of Q-values for a state.
    #[inline]
    pub(crate) fn row(&self, state: usize) -> &[f64] {
        let start = self.index(state, 0);
        &self.values[start..start + self.actions]
    }

    /// Maximum Q-value over all actions in a state — the `max_b Q(s', b)`
    /// term of the Q-learning update.
    pub(crate) fn max_value(&self, state: usize) -> f64 {
        self.row(state)
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The greedy action for a state; ties are broken towards the smallest
    /// action index so the result is deterministic.
    pub(crate) fn greedy_action(&self, state: usize) -> usize {
        let row = self.row(state);
        let mut best = 0usize;
        let mut best_value = row[0];
        for (a, &v) in row.iter().enumerate().skip(1) {
            if v > best_value {
                best = a;
                best_value = v;
            }
        }
        best
    }

    /// Whether every Q-value is finite (no NaN / infinity crept in through a
    /// divergent reward signal). Used by property tests and debug assertions.
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    /// Iterator over `(state, action, value)` triples.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let actions = self.actions;
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i / actions, i % actions, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> QTable {
        QTable::zeroed(3, 4)
    }

    #[test]
    fn new_initialises_with_value() {
        let t = QTable::new(StateSpace::new(2), ActionSpace::product(&[3]), 1.5);
        for s in 0..2 {
            for a in 0..3 {
                assert_eq!(t.get(s, a), 1.5);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_dimension_panics() {
        let _ = QTable::zeroed(0, 4);
    }

    #[test]
    fn set_and_get() {
        let mut t = table();
        t.set(1, 2, 3.0);
        assert_eq!(t.get(1, 2), 3.0);
        assert_eq!(t.get(0, 0), 0.0);
    }

    #[test]
    fn row_is_contiguous_slice() {
        let mut t = table();
        t.set(1, 0, 10.0);
        t.set(1, 3, 13.0);
        assert_eq!(t.row(1), &[10.0, 0.0, 0.0, 13.0]);
        assert_eq!(t.row(0), &[0.0; 4]);
    }

    #[test]
    fn max_and_greedy() {
        let mut t = table();
        t.set(2, 1, 5.0);
        t.set(2, 3, 4.0);
        assert_eq!(t.max_value(2), 5.0);
        assert_eq!(t.greedy_action(2), 1);
    }

    #[test]
    fn greedy_tie_breaks_to_lowest_index() {
        let mut t = table();
        t.set(0, 1, 2.0);
        t.set(0, 2, 2.0);
        assert_eq!(t.greedy_action(0), 1);
    }

    #[test]
    fn finiteness_check_detects_nan() {
        let mut t = table();
        assert!(t.is_finite());
        t.set(0, 0, f64::NAN);
        assert!(!t.is_finite());
    }

    #[test]
    fn iter_yields_every_cell() {
        let t = table();
        assert_eq!(t.iter().count(), 12);
    }
}
