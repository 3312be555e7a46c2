//! Struct-of-arrays agent storage.
//!
//! [`CollabAgent`](crate::agent::CollabAgent) is the readable reference
//! model of one agent: behaviour type, optional Q-learner, last choice.
//! Storing one such struct per peer is fine at paper scale but dominates
//! the step time at 10⁵+ peers — every selection/learning touch chases an
//! `Option<QLearningAgent>` box per peer. [`AgentTable`] holds the same
//! state as parallel dense arrays:
//!
//! * `behaviors[p]` — the peer's (immutable) behaviour type,
//! * the Q-values of every *rational* peer, bucket-major: one contiguous
//!   plane per reputation bucket holding each learner's row for that bucket
//!   in rank order (`learner_rank` maps peer → rank; ranks are assigned in
//!   ascending peer order). Peers in the same bucket read neighbouring rows,
//!   and a contiguous peer range owns a contiguous run of every plane, so
//!   the selection and learning phases can hand disjoint `&mut` shards to
//!   scoped workers,
//! * `last_state`/`last_action` sentinel-encoded per peer (the delayed
//!   Q-update's transition source).
//!
//! Every operation is bit-for-bit identical to the corresponding
//! [`CollabAgent`](crate::agent::CollabAgent) call — the
//! `soa_storage_prop` property test pins the two against each other over
//! random churn/adversary traces.

use crate::action::CollabAction;
use crate::gametheory::behavior::BehaviorType;
use crate::rl::qlearning::QLearningParams;
use crate::rl::space::StateSpace;

const NO_STATE: u32 = u32::MAX;
const NO_ACTION: u8 = u8::MAX;

/// The most reputation-bucket states a table holds (the paper uses 10).
/// A shard keeps one plane slice per bucket in a fixed array of this size,
/// so splitting the table allocates nothing per bucket.
pub const MAX_REPUTATION_STATES: usize = 64;

/// Struct-of-arrays storage for the whole agent population.
#[derive(Debug, Clone)]
pub struct AgentTable {
    behaviors: Vec<BehaviorType>,
    /// Prefix counts of rational peers: `learner_rank[p]` is the number of
    /// rational peers with id `< p` (length `population + 1`). For a
    /// rational peer this is its rank: the index of its row in every plane.
    learner_rank: Vec<u32>,
    params: QLearningParams,
    states: usize,
    actions: usize,
    /// Bucket-major flat Q-values, `states` planes of
    /// `learner_count × actions`: the value of action `a` in bucket `b` for
    /// the learner of rank `r` is `q[(b · learner_count + r) · actions + a]`.
    q: Vec<f64>,
    /// Q-update count per learner rank.
    updates: Vec<u64>,
    /// Last `choose` state bucket per peer ([`NO_STATE`] before the first).
    last_state: Vec<u32>,
    /// Last `choose` action index per peer ([`NO_ACTION`] before the first).
    last_action: Vec<u8>,
}

impl AgentTable {
    /// Builds the table for a behaviour assignment; rational peers get a
    /// Q-row over the 27 actions in each of `states` buckets, initialised to
    /// `params.initial_q`, like
    /// [`CollabAgent::new`](crate::agent::CollabAgent::new).
    ///
    /// # Panics
    ///
    /// Panics if `states` exceeds [`MAX_REPUTATION_STATES`], and on invalid
    /// `params` when the population contains at least one rational peer
    /// (matching the per-agent construction it replaces).
    pub fn new(behaviors: &[BehaviorType], states: StateSpace, params: QLearningParams) -> Self {
        assert!(
            states.len() <= MAX_REPUTATION_STATES,
            "at most {MAX_REPUTATION_STATES} reputation states"
        );
        let mut learner_rank = Vec::with_capacity(behaviors.len() + 1);
        let mut rank = 0u32;
        for behavior in behaviors {
            learner_rank.push(rank);
            if *behavior == BehaviorType::Rational {
                rank += 1;
            }
        }
        learner_rank.push(rank);
        if rank > 0 {
            params.validate();
        }
        let states = states.len();
        let actions = CollabAction::action_space().len();
        Self {
            behaviors: behaviors.to_vec(),
            learner_rank,
            params,
            states,
            actions,
            q: vec![params.initial_q; rank as usize * states * actions],
            updates: vec![0; rank as usize],
            last_state: vec![NO_STATE; behaviors.len()],
            last_action: vec![NO_ACTION; behaviors.len()],
        }
    }

    /// Number of peers.
    pub fn population(&self) -> usize {
        self.behaviors.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.behaviors.is_empty()
    }

    /// Number of rational (learning) peers.
    pub fn learner_count(&self) -> usize {
        *self.learner_rank.last().expect("prefix is never empty") as usize
    }

    /// The peer's behaviour type.
    #[inline]
    pub fn behavior(&self, peer: usize) -> BehaviorType {
        self.behaviors[peer]
    }

    /// Whether the peer learns (i.e. is rational).
    #[inline]
    pub fn is_learning(&self, peer: usize) -> bool {
        self.behaviors[peer] == BehaviorType::Rational
    }

    /// The shared Q-learning hyper-parameters.
    pub fn params(&self) -> &QLearningParams {
        &self.params
    }

    /// Number of reputation-bucket states (Q-planes).
    pub fn state_count(&self) -> usize {
        self.states
    }

    /// Number of actions per Q-row.
    pub fn action_count(&self) -> usize {
        self.actions
    }

    /// Values per bucket plane of [`q_values`](Self::q_values): one row of
    /// [`action_count`](Self::action_count) values per learner.
    pub fn plane_len(&self) -> usize {
        self.learner_count() * self.actions
    }

    /// The rational peer's rank: the index of its row in every plane.
    #[inline]
    fn rank(&self, peer: usize) -> usize {
        debug_assert!(self.is_learning(peer), "peer {peer} has no Q-values");
        self.learner_rank[peer] as usize
    }

    /// The rational peer's Q-row for a state bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is not below [`state_count`](Self::state_count)
    /// (in debug builds, also if the peer is not rational).
    #[inline]
    pub fn q_row(&self, peer: usize, bucket: usize) -> &[f64] {
        let start = (bucket * self.learner_count() + self.rank(peer)) * self.actions;
        &self.q[start..start + self.actions]
    }

    /// Records the `(state, action)` a peer chose this step — what
    /// [`CollabAgent::choose`](crate::agent::CollabAgent::choose) stores as
    /// `last_state`/`last_action` for the delayed Q-update. Called for
    /// every online, non-forced peer regardless of behaviour type.
    #[inline]
    pub fn record_choice(&mut self, peer: usize, bucket: usize, action_index: usize) {
        self.last_state[peer] = bucket as u32;
        self.last_action[peer] = action_index as u8;
    }

    /// The state bucket of the peer's most recent choice, if any.
    pub fn last_state_bucket(&self, peer: usize) -> Option<usize> {
        (self.last_state[peer] != NO_STATE).then_some(self.last_state[peer] as usize)
    }

    /// The action index of the peer's most recent choice, if any.
    pub fn last_action_index(&self, peer: usize) -> Option<usize> {
        (self.last_action[peer] != NO_ACTION).then_some(self.last_action[peer] as usize)
    }

    /// Applies the Q-learning update for the reward observed after the last
    /// recorded choice, transitioning to `next_bucket`. Fixed-behaviour
    /// peers ignore the call — same contract as
    /// [`CollabAgent::learn`](crate::agent::CollabAgent::learn).
    ///
    /// # Panics
    ///
    /// Panics if called on a rational peer before any choice was recorded.
    #[inline]
    pub fn learn(&mut self, peer: usize, reward: f64, next_bucket: usize) {
        if !self.is_learning(peer) {
            return;
        }
        let (bucket, action) = recorded_choice(self.last_state[peer], self.last_action[peer]);
        let rank = self.rank(peer);
        let row = |bucket: usize| (bucket * self.learner_count() + rank) * self.actions;
        let (cell, next) = (row(bucket) + action, row(next_bucket));
        self.q[cell] = updated_q(
            &self.params,
            self.q[cell],
            reward,
            &self.q[next..next + self.actions],
        );
        self.updates[rank] += 1;
    }

    /// Q-update count of a peer (0 for fixed-behaviour peers).
    pub fn updates_of(&self, peer: usize) -> u64 {
        if self.is_learning(peer) {
            self.updates[self.learner_rank[peer] as usize]
        } else {
            0
        }
    }

    /// Total Q-updates across the population.
    pub fn total_updates(&self) -> u64 {
        self.updates.iter().sum()
    }

    /// The full bucket-major flat Q-value array (checkpoint export).
    pub fn q_values(&self) -> &[f64] {
        &self.q
    }

    /// The per-rank Q-update counters (checkpoint export).
    pub fn update_counts(&self) -> &[u64] {
        &self.updates
    }

    /// The sentinel-encoded per-peer last-choice state buckets (checkpoint
    /// export; `u32::MAX` = no choice recorded yet).
    pub fn last_states_raw(&self) -> &[u32] {
        &self.last_state
    }

    /// The sentinel-encoded per-peer last-choice action indices (checkpoint
    /// export; `u8::MAX` = no choice recorded yet).
    pub fn last_actions_raw(&self) -> &[u8] {
        &self.last_action
    }

    /// Overwrites the mutable learning state (Q-values, update counters,
    /// last choices) with a checkpoint export. The immutable layout
    /// (behaviour assignment, ranks, hyper-parameters) is untouched — it is
    /// rebuilt from the configuration, so the lengths must match the
    /// table's own dimensions exactly. The Q-values are taken by value and
    /// become the table's, so a restore copies them no further.
    ///
    /// # Panics
    ///
    /// Panics if any length differs from the table's layout.
    pub fn restore_learning_state(
        &mut self,
        q: Vec<f64>,
        updates: &[u64],
        last_state: &[u32],
        last_action: &[u8],
    ) {
        assert_eq!(q.len(), self.q.len(), "Q-array length mismatch");
        assert_eq!(updates.len(), self.updates.len(), "update-counter mismatch");
        assert_eq!(
            last_state.len(),
            self.last_state.len(),
            "last-state mismatch"
        );
        assert_eq!(
            last_action.len(),
            self.last_action.len(),
            "last-action mismatch"
        );
        self.q = q;
        self.updates.copy_from_slice(updates);
        self.last_state.copy_from_slice(last_state);
        self.last_action.copy_from_slice(last_action);
    }

    /// The rational peer's greedy action index for a state (ties to the
    /// lowest index, like `QTable::greedy_action`); `None` for
    /// fixed-behaviour peers.
    pub fn greedy_action(&self, peer: usize, bucket: usize) -> Option<usize> {
        if !self.is_learning(peer) {
            return None;
        }
        let row = self.q_row(peer, bucket);
        let mut best = 0usize;
        let mut best_value = row[0];
        for (a, &v) in row.iter().enumerate().skip(1) {
            if v > best_value {
                best = a;
                best_value = v;
            }
        }
        Some(best)
    }

    /// The whole table as one mutable shard: the selection phase's
    /// single-worker path, which allocates nothing.
    pub fn as_shard_mut(&mut self) -> AgentShardMut<'_> {
        let mut planes = empty_planes();
        // `max(1)`: a table without learners has no rows to chunk.
        let plane_len = self.plane_len().max(1);
        for (plane, rows) in planes.iter_mut().zip(self.q.chunks_exact_mut(plane_len)) {
            *plane = rows;
        }
        AgentShardMut {
            start: 0,
            end: self.behaviors.len(),
            rank_base: 0,
            behaviors: &self.behaviors,
            learner_rank: &self.learner_rank,
            params: self.params,
            states: self.states,
            actions: self.actions,
            planes,
            updates: &mut self.updates,
            last_state: &mut self.last_state,
            last_action: &mut self.last_action,
        }
    }

    /// Splits the table into disjoint mutable shards along `bounds` (peer
    /// indices, ascending, starting at 0 and ending at the population), so
    /// the selection and learning phases' scoped workers can handle
    /// contiguous peer ranges in parallel. Ranks are monotone in peer id,
    /// so each peer range owns a contiguous run of rows in every plane.
    pub fn split_mut(&mut self, bounds: &[usize]) -> Vec<AgentShardMut<'_>> {
        assert!(bounds.len() >= 2, "need at least one range");
        assert_eq!(*bounds.first().unwrap(), 0, "ranges must start at 0");
        assert_eq!(
            *bounds.last().unwrap(),
            self.behaviors.len(),
            "ranges must cover the population"
        );
        let mut rest = self.as_shard_mut();
        bounds[1..]
            .iter()
            .map(|&end| rest.split_front(end))
            .collect()
    }
}

/// No plane slices yet: every entry empty.
fn empty_planes<'a>() -> [&'a mut [f64]; MAX_REPUTATION_STATES] {
    std::array::from_fn(|_| Default::default())
}

/// A disjoint mutable shard of an [`AgentTable`] covering a contiguous peer
/// range; peers are addressed by their absolute index.
#[derive(Debug)]
pub struct AgentShardMut<'a> {
    start: usize,
    end: usize,
    rank_base: usize,
    behaviors: &'a [BehaviorType],
    learner_rank: &'a [u32],
    params: QLearningParams,
    states: usize,
    actions: usize,
    /// The shard's rows of each bucket plane, in rank order from
    /// `rank_base` (entries from `states` on are empty).
    planes: [&'a mut [f64]; MAX_REPUTATION_STATES],
    updates: &'a mut [u64],
    last_state: &'a mut [u32],
    last_action: &'a mut [u8],
}

impl<'a> AgentShardMut<'a> {
    /// The absolute peer range this shard owns.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    /// The (absolute-indexed) peer's behaviour type.
    #[inline]
    pub fn behavior(&self, peer: usize) -> BehaviorType {
        self.behaviors[peer]
    }

    /// Whether the (absolute-indexed) peer learns.
    #[inline]
    pub fn is_learning(&self, peer: usize) -> bool {
        self.behaviors[peer] == BehaviorType::Rational
    }

    /// The rational peer's row index within the shard's part of each plane.
    #[inline]
    fn rank(&self, peer: usize) -> usize {
        debug_assert!(self.is_learning(peer), "peer {peer} has no Q-values");
        self.learner_rank[peer] as usize - self.rank_base
    }

    /// Shard-local [`AgentTable::q_row`].
    ///
    /// # Panics
    ///
    /// Panics if the peer's Q-row lies outside the shard or `bucket` is
    /// out of range (in debug builds, also if the peer is not rational).
    #[inline]
    pub fn q_row(&self, peer: usize, bucket: usize) -> &[f64] {
        let start = self.rank(peer) * self.actions;
        &self.planes[bucket][start..start + self.actions]
    }

    /// Shard-local [`AgentTable::record_choice`].
    ///
    /// # Panics
    ///
    /// Panics if `peer` lies outside the shard's range.
    #[inline]
    pub fn record_choice(&mut self, peer: usize, bucket: usize, action_index: usize) {
        let i = peer - self.start;
        self.last_state[i] = bucket as u32;
        self.last_action[i] = action_index as u8;
    }

    /// Shard-local [`AgentTable::learn`].
    ///
    /// # Panics
    ///
    /// Panics if `peer` lies outside the shard's range, or on a rational
    /// peer without a recorded choice.
    #[inline]
    pub fn learn(&mut self, peer: usize, reward: f64, next_bucket: usize) {
        assert!(
            peer >= self.start && peer < self.end,
            "peer {peer} outside shard range"
        );
        if !self.is_learning(peer) {
            return;
        }
        let i = peer - self.start;
        let (bucket, action) = recorded_choice(self.last_state[i], self.last_action[i]);
        let rank = self.rank(peer);
        let row = rank * self.actions;
        self.planes[bucket][row + action] = updated_q(
            &self.params,
            self.planes[bucket][row + action],
            reward,
            &self.planes[next_bucket][row..row + self.actions],
        );
        self.updates[rank] += 1;
    }

    /// Takes the peers from the shard's start up to `end` off its front as
    /// a shard of their own.
    fn split_front(&mut self, end: usize) -> AgentShardMut<'a> {
        assert!(
            self.start <= end && end <= self.end,
            "bounds must be ascending"
        );
        let rank_end = self.learner_rank[end] as usize;
        let ranks = rank_end - self.rank_base;
        let mut planes = empty_planes();
        for (front, rest) in planes.iter_mut().zip(&mut self.planes[..self.states]) {
            let (rows, tail) = std::mem::take(rest).split_at_mut(ranks * self.actions);
            *front = rows;
            *rest = tail;
        }
        let (updates, updates_tail) = std::mem::take(&mut self.updates).split_at_mut(ranks);
        let peers = end - self.start;
        let (last_state, state_tail) = std::mem::take(&mut self.last_state).split_at_mut(peers);
        let (last_action, action_tail) = std::mem::take(&mut self.last_action).split_at_mut(peers);
        let front = AgentShardMut {
            start: self.start,
            end,
            rank_base: self.rank_base,
            behaviors: self.behaviors,
            learner_rank: self.learner_rank,
            params: self.params,
            states: self.states,
            actions: self.actions,
            planes,
            updates,
            last_state,
            last_action,
        };
        self.start = end;
        self.rank_base = rank_end;
        self.updates = updates_tail;
        self.last_state = state_tail;
        self.last_action = action_tail;
        front
    }
}

/// The recorded `(bucket, action)` a Q-update credits: the "prior choose"
/// contract of [`CollabAgent::learn`](crate::agent::CollabAgent::learn).
#[inline]
fn recorded_choice(last_state: u32, last_action: u8) -> (usize, usize) {
    assert!(
        last_state != NO_STATE && last_action != NO_ACTION,
        "learn() requires a prior choose() call"
    );
    (last_state as usize, last_action as usize)
}

/// The shared Q-update kernel: exactly
/// [`QLearningAgent::update`](crate::rl::qlearning::QLearningAgent::update)
/// of the cell holding `old`, towards the best value of `next_row`.
#[inline]
fn updated_q(params: &QLearningParams, old: f64, reward: f64, next_row: &[f64]) -> f64 {
    debug_assert!(reward.is_finite(), "reward must be finite");
    let alpha = params.learning_rate;
    let gamma = params.discount;
    let future = next_row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (1.0 - alpha) * old + alpha * (reward + gamma * future)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{AgentState, CollabAgent};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn behaviors() -> Vec<BehaviorType> {
        vec![
            BehaviorType::Altruistic,
            BehaviorType::Rational,
            BehaviorType::Irrational,
            BehaviorType::Rational,
            BehaviorType::Rational,
        ]
    }

    fn table() -> AgentTable {
        AgentTable::new(
            &behaviors(),
            StateSpace::new(10),
            QLearningParams::default(),
        )
    }

    #[test]
    fn ranks_are_dense_over_rational_peers() {
        let t = table();
        assert_eq!(t.population(), 5);
        assert_eq!(t.learner_count(), 3);
        assert!(!t.is_learning(0));
        assert!(t.is_learning(1));
        assert_eq!(t.q.len(), 3 * 10 * 27);
        assert_eq!(t.action_count(), 27);
    }

    #[test]
    fn q_values_are_bucket_major() {
        let mut t = table();
        // Each cell holds its own index in the flat array.
        let q: Vec<f64> = (0..t.q_values().len()).map(|i| i as f64).collect();
        let (updates, states, actions) = (vec![0; 3], vec![NO_STATE; 5], vec![NO_ACTION; 5]);
        t.restore_learning_state(q, &updates, &states, &actions);
        let expected = |rank: usize, bucket: usize| -> Vec<f64> {
            let start = (bucket * 3 + rank) * 27;
            (start..start + 27).map(|i| i as f64).collect()
        };
        for (peer, rank) in [(1usize, 0usize), (3, 1), (4, 2)] {
            for bucket in 0..10 {
                assert_eq!(t.q_row(peer, bucket), expected(rank, bucket));
            }
        }
        assert_eq!(t.as_shard_mut().q_row(4, 9), expected(2, 9));
        let shards = t.split_mut(&[0, 2, 2, 4, 5]);
        assert_eq!(shards[0].q_row(1, 0), expected(0, 0));
        assert_eq!(shards[2].q_row(3, 5), expected(1, 5));
        assert_eq!(shards[3].q_row(4, 9), expected(2, 9));
    }

    #[test]
    #[should_panic(expected = "at most 64 reputation states")]
    fn more_states_than_the_ceiling_are_refused() {
        AgentTable::new(
            &behaviors(),
            StateSpace::new(MAX_REPUTATION_STATES + 1),
            QLearningParams::default(),
        );
    }

    #[test]
    fn learn_matches_collab_agent_bitwise() {
        let mut t = table();
        let mut reference = CollabAgent::new(
            BehaviorType::Rational,
            StateSpace::new(10),
            QLearningParams::default(),
        );
        let mut rng = StdRng::seed_from_u64(3);
        for step in 0..200 {
            let state = AgentState { bucket: step % 10 };
            let action = reference.choose(state, 1.0, &mut rng);
            t.record_choice(1, state.bucket, action.to_index());
            let reward = (step as f64 * 0.37).sin();
            let next = (step + 3) % 10;
            reference.learn(reward, AgentState { bucket: next });
            t.learn(1, reward, next);
        }
        let learner = reference.learner().unwrap();
        assert_eq!(t.updates_of(1), learner.updates());
        for s in 0..10 {
            for (a, &v) in learner.table().row(s).iter().enumerate() {
                assert_eq!(t.q_row(1, s)[a].to_bits(), v.to_bits(), "s={s} a={a}");
            }
        }
    }

    #[test]
    fn learn_is_a_noop_for_fixed_peers() {
        let mut t = table();
        t.learn(0, 1.0, 0);
        t.learn(2, 1.0, 0);
        assert_eq!(t.total_updates(), 0);
    }

    #[test]
    #[should_panic(expected = "prior choose")]
    fn learn_before_choice_panics_for_rational_peers() {
        let mut t = table();
        t.learn(1, 1.0, 0);
    }

    #[test]
    fn greedy_action_ties_to_lowest_index() {
        let mut t = table();
        assert_eq!(t.greedy_action(0, 0), None);
        assert_eq!(t.greedy_action(1, 0), Some(0));
        t.record_choice(1, 0, 5);
        t.learn(1, 10.0, 0);
        assert_eq!(t.greedy_action(1, 0), Some(5));
    }

    #[test]
    fn split_mut_shards_are_equivalent_to_whole_table() {
        let mut sharded = table();
        let mut whole = table();
        for p in 0..5 {
            sharded.record_choice(p, p % 10, p % 27);
            whole.record_choice(p, p % 10, p % 27);
        }
        let bounds = [0usize, 2, 5];
        let mut shards = sharded.split_mut(&bounds);
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].range(), 0..2);
        assert_eq!(shards[1].range(), 2..5);
        for p in 0..5 {
            let reward = p as f64 * 0.5 - 1.0;
            let shard = if p < 2 {
                &mut shards[0]
            } else {
                &mut shards[1]
            };
            shard.learn(p, reward, (p + 1) % 10);
            whole.learn(p, reward, (p + 1) % 10);
        }
        drop(shards);
        assert_eq!(sharded.total_updates(), whole.total_updates());
        for p in [1usize, 3, 4] {
            for s in 0..10 {
                let a_row = sharded.q_row(p, s);
                let b_row = whole.q_row(p, s);
                for (a, b) in a_row.iter().zip(b_row) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside shard range")]
    fn shard_rejects_foreign_peer() {
        let mut t = table();
        let mut shards = t.split_mut(&[0, 2, 5]);
        shards[0].learn(4, 0.0, 0);
    }

    #[test]
    fn last_choice_accessors_roundtrip() {
        let mut t = table();
        assert_eq!(t.last_state_bucket(1), None);
        assert_eq!(t.last_action_index(1), None);
        t.record_choice(1, 7, 13);
        assert_eq!(t.last_state_bucket(1), Some(7));
        assert_eq!(t.last_action_index(1), Some(13));
    }
}
