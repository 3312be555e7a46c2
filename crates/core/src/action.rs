//! The composite action space of the simulation model.
//!
//! Section IV-B of the paper: "With regard to sharing, an agent can choose
//! from three different participation levels for each resource: 0 %, 50 % or
//! 100 % of their bandwidth; and 0, 50 or 100 files. If an agent is
//! interested in editing and voting, it can do it either constructively or
//! destructively." A [`CollabAction`] is therefore the triple
//! (bandwidth level, article level, edit/vote behaviour); the third
//! dimension additionally allows *abstaining* so that not editing is a
//! choice the learner can make.
//!
//! Actions are flattened into indices `0..27` for the tabular Q-learner via
//! the mixed-radix encoding of [`crate::rl::space`].

use crate::rl::space::{flatten_action, unflatten_action_into, ActionSpace};

/// Per-dimension cardinalities of the composite action space:
/// 3 bandwidth levels × 3 article levels × 3 edit behaviours.
pub const ACTION_DIMS: [usize; 3] = [3, 3, 3];

/// A sharing participation level (applies to bandwidth and to articles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShareLevel {
    /// Share nothing.
    None,
    /// Share half of the resource (50 % bandwidth / 50 files).
    Half,
    /// Share everything (100 % bandwidth / 100 files).
    Full,
}

impl ShareLevel {
    /// All levels in index order.
    pub const ALL: [ShareLevel; 3] = [ShareLevel::None, ShareLevel::Half, ShareLevel::Full];

    /// The level as a fraction in `[0, 1]`.
    pub fn fraction(self) -> f64 {
        match self {
            ShareLevel::None => 0.0,
            ShareLevel::Half => 0.5,
            ShareLevel::Full => 1.0,
        }
    }

    /// The level as an article count out of the paper's 100-article storage.
    pub fn article_count(self) -> u32 {
        match self {
            ShareLevel::None => 0,
            ShareLevel::Half => 50,
            ShareLevel::Full => 100,
        }
    }

    /// Index of the level within its action dimension.
    pub fn index(self) -> usize {
        match self {
            ShareLevel::None => 0,
            ShareLevel::Half => 1,
            ShareLevel::Full => 2,
        }
    }

    /// Level from a dimension index.
    ///
    /// # Panics
    ///
    /// Panics if the index is not 0, 1 or 2.
    pub fn from_index(index: usize) -> Self {
        Self::ALL[index]
    }
}

/// The editing/voting behaviour chosen for a time step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EditBehavior {
    /// Neither edit nor vote this step.
    Abstain,
    /// Edit constructively and vote for quality (for constructive edits,
    /// against destructive ones).
    Constructive,
    /// Vandalise and vote against quality.
    Destructive,
}

impl EditBehavior {
    /// All behaviours in index order.
    pub const ALL: [EditBehavior; 3] = [
        EditBehavior::Abstain,
        EditBehavior::Constructive,
        EditBehavior::Destructive,
    ];

    /// Index of the behaviour within its action dimension.
    pub fn index(self) -> usize {
        match self {
            EditBehavior::Abstain => 0,
            EditBehavior::Constructive => 1,
            EditBehavior::Destructive => 2,
        }
    }

    /// Behaviour from a dimension index.
    ///
    /// # Panics
    ///
    /// Panics if the index is not 0, 1 or 2.
    pub fn from_index(index: usize) -> Self {
        Self::ALL[index]
    }

    /// Whether this behaviour participates in editing/voting at all.
    pub fn participates(self) -> bool {
        self != EditBehavior::Abstain
    }
}

/// One agent's complete action for one time step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CollabAction {
    /// How much upload bandwidth to share.
    pub bandwidth: ShareLevel,
    /// How many articles to offer.
    pub articles: ShareLevel,
    /// Editing/voting behaviour.
    pub edit: EditBehavior,
}

impl CollabAction {
    /// The action space descriptor (27 actions).
    pub fn action_space() -> ActionSpace {
        ActionSpace::product(&ACTION_DIMS)
    }

    /// The altruistic peer's fixed action: share everything, act
    /// constructively.
    pub fn altruistic() -> Self {
        Self {
            bandwidth: ShareLevel::Full,
            articles: ShareLevel::Full,
            edit: EditBehavior::Constructive,
        }
    }

    /// The irrational peer's fixed action: free-ride and vandalise.
    pub fn irrational() -> Self {
        Self {
            bandwidth: ShareLevel::None,
            articles: ShareLevel::None,
            edit: EditBehavior::Destructive,
        }
    }

    /// The idle action recorded for peers that are offline this step
    /// (departed under churn): share nothing, abstain from editing and
    /// voting. Keeps the per-peer action vector index-aligned without
    /// consuming any randomness for absent peers.
    pub fn idle() -> Self {
        Self {
            bandwidth: ShareLevel::None,
            articles: ShareLevel::None,
            edit: EditBehavior::Abstain,
        }
    }

    /// Flattens the action into an index `0..27`.
    pub fn to_index(self) -> usize {
        flatten_action(
            &[
                self.bandwidth.index(),
                self.articles.index(),
                self.edit.index(),
            ],
            &ACTION_DIMS,
        )
    }

    /// Reconstructs the action from a flat index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn from_index(index: usize) -> Self {
        let mut coords = [0usize; 3];
        unflatten_action_into(index, &ACTION_DIMS, &mut coords);
        Self {
            bandwidth: ShareLevel::from_index(coords[0]),
            articles: ShareLevel::from_index(coords[1]),
            edit: EditBehavior::from_index(coords[2]),
        }
    }

    /// Iterator over every action in index order.
    pub fn all() -> impl Iterator<Item = CollabAction> {
        (0..Self::action_space().len()).map(Self::from_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_space_has_27_actions() {
        assert_eq!(CollabAction::action_space().len(), 27);
        assert_eq!(CollabAction::all().count(), 27);
    }

    #[test]
    fn index_roundtrip_covers_every_action() {
        for index in 0..27 {
            let action = CollabAction::from_index(index);
            assert_eq!(action.to_index(), index);
        }
    }

    #[test]
    fn share_level_fractions_and_counts() {
        assert_eq!(ShareLevel::None.fraction(), 0.0);
        assert_eq!(ShareLevel::Half.fraction(), 0.5);
        assert_eq!(ShareLevel::Full.fraction(), 1.0);
        assert_eq!(ShareLevel::None.article_count(), 0);
        assert_eq!(ShareLevel::Half.article_count(), 50);
        assert_eq!(ShareLevel::Full.article_count(), 100);
    }

    #[test]
    fn fixed_behaviour_actions() {
        let alt = CollabAction::altruistic();
        assert_eq!(alt.bandwidth, ShareLevel::Full);
        assert_eq!(alt.articles, ShareLevel::Full);
        assert_eq!(alt.edit, EditBehavior::Constructive);
        let irr = CollabAction::irrational();
        assert_eq!(irr.bandwidth, ShareLevel::None);
        assert_eq!(irr.edit, EditBehavior::Destructive);
    }

    #[test]
    fn edit_behaviour_participation() {
        assert!(!EditBehavior::Abstain.participates());
        assert!(EditBehavior::Constructive.participates());
        assert!(EditBehavior::Destructive.participates());
    }

    #[test]
    fn level_and_behaviour_index_roundtrip() {
        for level in ShareLevel::ALL {
            assert_eq!(ShareLevel::from_index(level.index()), level);
        }
        for behavior in EditBehavior::ALL {
            assert_eq!(EditBehavior::from_index(behavior.index()), behavior);
        }
    }

    #[test]
    fn all_actions_are_distinct() {
        let set: std::collections::HashSet<CollabAction> = CollabAction::all().collect();
        assert_eq!(set.len(), 27);
    }
}
