//! Articles, revisions and the edit life cycle.
//!
//! The collaboration network's shared objects are articles (the paper's
//! running example is a decentralized wiki, following the authors' earlier
//! AIMS 2007 work on "peer-to-peer large-scale collaborative storage
//! networks"). Peers propose *edits* to articles, which are either
//! constructive (improve the article) or destructive (vandalism), and the
//! voting mechanism decides whether a pending edit is accepted into a new
//! revision or declined.
//!
//! The netsim layer records only the mechanics, and only what the
//! evaluation reads: each article's revision count and voter set, the
//! edits awaiting a vote, and running outcome tallies of the decided ones.
//! Whether an edit *should* be accepted is policy and lives in the
//! incentive layer.

use crate::netsim::peer::PeerId;
use std::fmt;

/// Identifier of an article.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArticleId(pub u32);

impl ArticleId {
    /// The identifier as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ArticleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "article#{}", self.0)
    }
}

/// Identifier of an edit (unique across all articles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EditId(pub(crate) u64);

/// Whether an edit improves or damages the article.
///
/// In a real network this is unknowable a priori — it is what the voting
/// process estimates. The simulation, like the paper's, labels edits by the
/// intent of the acting peer (altruistic/rational peers acting
/// constructively vs. irrational peers vandalising) so the evaluation can
/// report the constructive/destructive ratios of Figures 6 and 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EditKind {
    /// The edit improves the article's quality.
    Constructive,
    /// The edit is vandalism.
    Destructive,
}

/// An edit awaiting its vote. Decided edits are not kept: the registry
/// folds each into its outcome tallies and, if accepted, into the article's
/// revision count and voter set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edit {
    /// Unique identifier.
    pub(crate) id: EditId,
    /// The article being edited.
    pub(crate) article: ArticleId,
    /// The peer proposing the edit.
    pub(crate) author: PeerId,
    /// Constructive or destructive intent.
    pub(crate) kind: EditKind,
}

/// An article: its revision count, the peers holding voting rights on it
/// and its pending edit. Its size is bounded by the population: the voter
/// set holds each peer at most once, however long the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Article {
    /// Identifier.
    pub(crate) id: ArticleId,
    /// The peer that created the article.
    pub(crate) creator: PeerId,
    /// Time step of creation.
    pub(crate) created_at: u64,
    /// Number of accepted revisions, the creator's initial one included.
    revisions: u64,
    /// The distinct authors of accepted revisions (the creator included),
    /// sorted. Successful editors gain the right to vote on future changes
    /// of this article (Section III-C2).
    voters: Vec<PeerId>,
    /// Number of accepted destructive edits (quality damage that slipped
    /// through the vote).
    pub(crate) accepted_destructive: u32,
    /// Identifier of the edit currently awaiting a vote, if any. The model
    /// serialises edits per article: a new edit can only be submitted once
    /// the pending one is decided.
    pub(crate) pending_edit: Option<EditId>,
}

impl Article {
    /// Creates an article with the creator as the sole revision author.
    pub(crate) fn new(id: ArticleId, creator: PeerId, created_at: u64) -> Self {
        Self {
            id,
            creator,
            created_at,
            revisions: 1,
            voters: vec![creator],
            accepted_destructive: 0,
            pending_edit: None,
        }
    }

    /// Rebuilds an article from its checkpointed parts. `voters` must be
    /// sorted and duplicate-free, as [`Article::voters`] returns it.
    pub(crate) fn from_parts(
        id: ArticleId,
        creator: PeerId,
        created_at: u64,
        revisions: u64,
        voters: Vec<PeerId>,
        accepted_destructive: u32,
        pending_edit: Option<EditId>,
    ) -> Self {
        Self {
            id,
            creator,
            created_at,
            revisions,
            voters,
            accepted_destructive,
            pending_edit,
        }
    }

    /// Records an accepted revision by `author`.
    fn record_revision(&mut self, author: PeerId) {
        self.revisions += 1;
        if let Err(pos) = self.voters.binary_search(&author) {
            self.voters.insert(pos, author);
        }
    }

    /// Number of accepted revisions (including the initial one).
    pub(crate) fn revision_count(&self) -> usize {
        self.revisions as usize
    }

    /// The peers holding voting rights on this article: every author of
    /// an accepted revision, sorted by identifier.
    pub(crate) fn voters(&self) -> &[PeerId] {
        &self.voters
    }

    /// The peers eligible to vote on a change of this article by
    /// `edit_author`: the voter set without the author, written into a
    /// caller-owned buffer (cleared first) so per-edit hot loops reuse one
    /// allocation.
    pub(crate) fn eligible_voters_into(&self, edit_author: PeerId, out: &mut Vec<PeerId>) {
        out.clear();
        out.extend(self.voters.iter().copied().filter(|&p| p != edit_author));
    }

    /// A simple quality score in `[0, 1]`: the fraction of accepted
    /// revisions that were constructive. New articles start at 1.
    pub fn quality(&self) -> f64 {
        let total = self.revision_count() as f64 + f64::from(self.accepted_destructive);
        self.revision_count() as f64 / total
    }
}

/// The registry of all articles and of the edits awaiting a vote.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ArticleRegistry {
    articles: Vec<Article>,
    /// Edits awaiting a vote, sorted by identifier (at most one per
    /// article).
    pending: Vec<Edit>,
    /// Outcome tallies of every decided edit (`pending` stays 0 here).
    decided: EditOutcomeCounts,
    /// Identifier of the next submitted edit: the number submitted so far.
    next_edit: u64,
    /// Articles without a pending edit, sorted by identifier. Maintained
    /// incrementally on every status change (article creation, edit
    /// submission, edit resolution), so the edit-vote phase's per-peer
    /// candidate lookup is a slice borrow instead of a fresh `Vec` scan of
    /// the whole registry per peer per step.
    editable: Vec<ArticleId>,
}

impl ArticleRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a registry from checkpointed parts: the articles, the
    /// pending edits, the decided-edit tallies and the next edit id. The
    /// editable cache is recomputed (article ids are dense, so the filter
    /// is already sorted).
    pub(crate) fn from_parts(
        articles: Vec<Article>,
        mut pending: Vec<Edit>,
        decided: EditOutcomeCounts,
        next_edit: u64,
    ) -> Self {
        pending.sort_unstable_by_key(|edit| edit.id);
        let editable = articles
            .iter()
            .filter(|article| article.pending_edit.is_none())
            .map(|article| article.id)
            .collect();
        Self {
            articles,
            pending,
            decided: EditOutcomeCounts {
                pending: 0,
                ..decided
            },
            next_edit,
            editable,
        }
    }

    /// Number of articles.
    pub(crate) fn article_count(&self) -> usize {
        self.articles.len()
    }

    /// Number of edits ever submitted, which is also the next edit's id.
    pub(crate) fn edit_count(&self) -> u64 {
        self.next_edit
    }

    /// Creates a new article and returns its identifier.
    pub fn create_article(&mut self, creator: PeerId, now: u64) -> ArticleId {
        let id = ArticleId(u32::try_from(self.articles.len()).expect("too many articles"));
        self.articles.push(Article::new(id, creator, now));
        // A new identifier is always the largest, so a push keeps the
        // editable cache sorted.
        self.editable.push(id);
        id
    }

    /// Immutable access to an article.
    pub fn article(&self, id: ArticleId) -> &Article {
        &self.articles[id.index()]
    }

    /// Iterator over all articles.
    pub(crate) fn articles(&self) -> impl Iterator<Item = &Article> {
        self.articles.iter()
    }

    /// The edits awaiting a vote, sorted by identifier.
    pub(crate) fn pending_edits(&self) -> &[Edit] {
        &self.pending
    }

    /// Submits an edit to an article. Returns `None` (and records nothing)
    /// if the article already has a pending edit.
    pub fn submit_edit(
        &mut self,
        article: ArticleId,
        author: PeerId,
        kind: EditKind,
    ) -> Option<EditId> {
        if self.articles[article.index()].pending_edit.is_some() {
            return None;
        }
        let id = EditId(self.next_edit);
        self.next_edit += 1;
        // Ids only grow, so a push keeps `pending` sorted.
        self.pending.push(Edit {
            id,
            article,
            author,
            kind,
        });
        self.articles[article.index()].pending_edit = Some(id);
        if let Ok(pos) = self.editable.binary_search(&article) {
            self.editable.remove(pos);
        }
        Some(id)
    }

    /// Resolves a pending edit: an accepted edit adds a revision by its
    /// author (and counts quality damage if it was destructive); a
    /// declined edit simply closes. Either way the outcome is tallied.
    ///
    /// # Panics
    ///
    /// Panics if the edit is not pending.
    pub fn resolve_edit(&mut self, id: EditId, accepted: bool) {
        let pos = self
            .pending
            .binary_search_by_key(&id, |edit| edit.id)
            .expect("edit already resolved (or never submitted)");
        let Edit {
            article: article_id,
            author,
            kind,
            ..
        } = self.pending.remove(pos);

        let article = &mut self.articles[article_id.index()];
        debug_assert_eq!(article.pending_edit, Some(id));
        article.pending_edit = None;
        let tally = match (accepted, kind) {
            (true, EditKind::Constructive) => &mut self.decided.accepted_constructive,
            (true, EditKind::Destructive) => &mut self.decided.accepted_destructive,
            (false, EditKind::Constructive) => &mut self.decided.declined_constructive,
            (false, EditKind::Destructive) => &mut self.decided.declined_destructive,
        };
        *tally += 1;
        if accepted {
            article.record_revision(author);
            if kind == EditKind::Destructive {
                article.accepted_destructive += 1;
            }
        }
        if let Err(pos) = self.editable.binary_search(&article_id) {
            self.editable.insert(pos, article_id);
        }
    }

    /// Articles without a pending edit (candidates for a new edit), sorted
    /// by identifier. A borrow of the incrementally maintained cache —
    /// invalidated on every edit-status change — so calling it per peer
    /// per step allocates nothing.
    pub(crate) fn editable_articles(&self) -> &[ArticleId] {
        &self.editable
    }

    /// Counts of (accepted constructive, accepted destructive, declined
    /// constructive, declined destructive, pending) edits — the raw numbers
    /// behind Figures 6 and 7.
    pub(crate) fn edit_outcome_counts(&self) -> EditOutcomeCounts {
        EditOutcomeCounts {
            pending: self.pending.len() as u64,
            ..self.decided
        }
    }

    /// Mean quality over all articles.
    pub(crate) fn mean_quality(&self) -> f64 {
        if self.articles.is_empty() {
            return 1.0;
        }
        self.articles.iter().map(Article::quality).sum::<f64>() / self.articles.len() as f64
    }
}

/// Aggregated edit outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EditOutcomeCounts {
    /// Constructive edits accepted by the vote.
    pub(crate) accepted_constructive: u64,
    /// Destructive edits that slipped through the vote.
    pub accepted_destructive: u64,
    /// Constructive edits wrongly declined.
    pub declined_constructive: u64,
    /// Destructive edits correctly declined.
    pub(crate) declined_destructive: u64,
    /// Edits still awaiting a decision.
    pub(crate) pending: u64,
}

impl EditOutcomeCounts {
    /// Fraction of decided constructive edits that were accepted.
    pub(crate) fn constructive_acceptance_rate(&self) -> f64 {
        let total = self.accepted_constructive + self.declined_constructive;
        if total == 0 {
            0.0
        } else {
            self.accepted_constructive as f64 / total as f64
        }
    }

    /// Fraction of decided destructive edits that were (wrongly) accepted.
    pub(crate) fn destructive_acceptance_rate(&self) -> f64 {
        let total = self.accepted_destructive + self.declined_destructive;
        if total == 0 {
            0.0
        } else {
            self.accepted_destructive as f64 / total as f64
        }
    }

    /// Total number of decided edits.
    pub fn decided(&self) -> u64 {
        self.accepted_constructive
            + self.accepted_destructive
            + self.declined_constructive
            + self.declined_destructive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn create_article_registers_creator_as_revision_author() {
        let mut reg = ArticleRegistry::new();
        let id = reg.create_article(PeerId(3), 7);
        let article = reg.article(id);
        assert_eq!(article.creator, PeerId(3));
        assert_eq!(article.created_at, 7);
        assert_eq!(article.revision_count(), 1);
        assert_eq!(article.voters(), [PeerId(3)]);
        assert_eq!(article.quality(), 1.0);
    }

    #[test]
    fn submit_and_accept_edit_adds_a_revision() {
        let mut reg = ArticleRegistry::new();
        let a = reg.create_article(PeerId(0), 0);
        let e = reg
            .submit_edit(a, PeerId(1), EditKind::Constructive)
            .unwrap();
        assert_eq!(
            reg.pending_edits(),
            &[Edit {
                id: e,
                article: a,
                author: PeerId(1),
                kind: EditKind::Constructive,
            }]
        );
        reg.resolve_edit(e, true);
        let article = reg.article(a);
        assert_eq!(article.revision_count(), 2);
        assert!(article.voters().contains(&PeerId(1)));
        assert!(reg.pending_edits().is_empty());
        assert_eq!(reg.edit_outcome_counts().accepted_constructive, 1);
    }

    #[test]
    fn declined_edit_adds_no_revision() {
        let mut reg = ArticleRegistry::new();
        let a = reg.create_article(PeerId(0), 0);
        let e = reg
            .submit_edit(a, PeerId(1), EditKind::Constructive)
            .unwrap();
        reg.resolve_edit(e, false);
        assert_eq!(reg.article(a).revision_count(), 1);
        assert!(!reg.article(a).voters().contains(&PeerId(1)));
        assert_eq!(reg.edit_outcome_counts().declined_constructive, 1);
    }

    #[test]
    fn only_one_pending_edit_per_article() {
        let mut reg = ArticleRegistry::new();
        let a = reg.create_article(PeerId(0), 0);
        let first = reg.submit_edit(a, PeerId(1), EditKind::Constructive);
        assert!(first.is_some());
        let second = reg.submit_edit(a, PeerId(2), EditKind::Destructive);
        assert!(second.is_none());
        reg.resolve_edit(first.unwrap(), true);
        assert!(reg
            .submit_edit(a, PeerId(2), EditKind::Destructive)
            .is_some());
    }

    #[test]
    fn accepted_destructive_edit_lowers_quality() {
        let mut reg = ArticleRegistry::new();
        let a = reg.create_article(PeerId(0), 0);
        let e = reg
            .submit_edit(a, PeerId(1), EditKind::Destructive)
            .unwrap();
        reg.resolve_edit(e, true);
        let article = reg.article(a);
        assert_eq!(article.accepted_destructive, 1);
        assert!(article.quality() < 1.0);
        assert!((reg.mean_quality() - article.quality()).abs() < 1e-12);
    }

    #[test]
    fn eligible_voters_are_past_authors_minus_editor() {
        let mut reg = ArticleRegistry::new();
        let a = reg.create_article(PeerId(0), 0);
        for peer in [1u32, 2, 1] {
            let e = reg
                .submit_edit(a, PeerId(peer), EditKind::Constructive)
                .unwrap();
            reg.resolve_edit(e, true);
        }
        assert_eq!(reg.article(a).revision_count(), 4);
        let mut voters = vec![PeerId(7)];
        reg.article(a).eligible_voters_into(PeerId(1), &mut voters);
        assert_eq!(voters, vec![PeerId(0), PeerId(2)]);
        reg.article(a).eligible_voters_into(PeerId(9), &mut voters);
        assert_eq!(voters, vec![PeerId(0), PeerId(1), PeerId(2)]);
    }

    #[test]
    fn editable_articles_excludes_pending() {
        let mut reg = ArticleRegistry::new();
        let a = reg.create_article(PeerId(0), 0);
        let b = reg.create_article(PeerId(0), 0);
        let e = reg
            .submit_edit(a, PeerId(1), EditKind::Constructive)
            .unwrap();
        assert_eq!(reg.editable_articles(), &[b][..]);
        // Resolution re-inserts the article at its sorted position.
        reg.resolve_edit(e, false);
        assert_eq!(reg.editable_articles(), &[a, b][..]);
    }

    #[test]
    fn outcome_counts_and_rates() {
        let mut reg = ArticleRegistry::new();
        let a = reg.create_article(PeerId(0), 0);
        let e1 = reg
            .submit_edit(a, PeerId(1), EditKind::Constructive)
            .unwrap();
        reg.resolve_edit(e1, true);
        let e2 = reg
            .submit_edit(a, PeerId(2), EditKind::Destructive)
            .unwrap();
        reg.resolve_edit(e2, false);
        let e3 = reg
            .submit_edit(a, PeerId(3), EditKind::Constructive)
            .unwrap();
        reg.resolve_edit(e3, false);
        let b = reg.create_article(PeerId(0), 7);
        reg.submit_edit(b, PeerId(4), EditKind::Destructive);

        let counts = reg.edit_outcome_counts();
        assert_eq!(counts.accepted_constructive, 1);
        assert_eq!(counts.declined_destructive, 1);
        assert_eq!(counts.declined_constructive, 1);
        assert_eq!(counts.pending, 1);
        assert_eq!(counts.decided(), 3);
        assert!((counts.constructive_acceptance_rate() - 0.5).abs() < 1e-12);
        assert_eq!(counts.destructive_acceptance_rate(), 0.0);
    }

    #[test]
    fn empty_counts_rates_are_zero() {
        let counts = EditOutcomeCounts::default();
        assert_eq!(counts.constructive_acceptance_rate(), 0.0);
        assert_eq!(counts.destructive_acceptance_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "already resolved")]
    fn double_resolution_panics() {
        let mut reg = ArticleRegistry::new();
        let a = reg.create_article(PeerId(0), 0);
        let e = reg
            .submit_edit(a, PeerId(1), EditKind::Constructive)
            .unwrap();
        reg.resolve_edit(e, true);
        reg.resolve_edit(e, true);
    }

    /// The registry against a reference that keeps the full edit log and
    /// every revision author, under random submit/resolve sequences: the
    /// tallies, revision counts, voter sets, editable cache, pending edits
    /// and next id must all be what the log implies, also after a rebuild
    /// from the registry's own parts.
    #[test]
    fn matches_a_full_edit_log_under_random_sequences() {
        let mut rng = StdRng::seed_from_u64(0xED17);
        let mut resolved = None;
        for _ in 0..200 {
            let peers = rng.gen_range(1..12u32);
            let mut reg = ArticleRegistry::new();
            // (article, author, kind, outcome): `None` while pending.
            let mut log: Vec<(ArticleId, PeerId, EditKind, Option<bool>)> = Vec::new();
            let mut authors: Vec<Vec<PeerId>> = Vec::new();
            for _ in 0..rng.gen_range(0..120) {
                let roll = rng.gen_range(0..10);
                if roll == 0 || reg.article_count() == 0 {
                    let creator = PeerId(rng.gen_range(0..peers));
                    reg.create_article(creator, 0);
                    authors.push(vec![creator]);
                } else if roll < 6 {
                    let article = ArticleId(rng.gen_range(0..reg.article_count() as u32));
                    let author = PeerId(rng.gen_range(0..peers));
                    let kind = if rng.gen_bool(0.5) {
                        EditKind::Constructive
                    } else {
                        EditKind::Destructive
                    };
                    let busy = log.iter().any(|e| e.0 == article && e.3.is_none());
                    let submitted = reg.submit_edit(article, author, kind);
                    assert_eq!(submitted.is_none(), busy);
                    if let Some(id) = submitted {
                        assert_eq!(id, EditId(log.len() as u64));
                        log.push((article, author, kind, None));
                    }
                } else {
                    let open: Vec<usize> = (0..log.len()).filter(|&i| log[i].3.is_none()).collect();
                    if open.is_empty() {
                        continue;
                    }
                    let id = open[rng.gen_range(0..open.len())];
                    let accepted = rng.gen_bool(0.6);
                    reg.resolve_edit(EditId(id as u64), accepted);
                    log[id].3 = Some(accepted);
                    if accepted {
                        authors[log[id].0.index()].push(log[id].1);
                    }
                }
            }

            let mut expected = EditOutcomeCounts::default();
            for &(_, _, kind, outcome) in &log {
                let tally = match (outcome, kind) {
                    (None, _) => &mut expected.pending,
                    (Some(true), EditKind::Constructive) => &mut expected.accepted_constructive,
                    (Some(true), EditKind::Destructive) => &mut expected.accepted_destructive,
                    (Some(false), EditKind::Constructive) => &mut expected.declined_constructive,
                    (Some(false), EditKind::Destructive) => &mut expected.declined_destructive,
                };
                *tally += 1;
            }
            let pending: Vec<Edit> = (0..log.len())
                .filter(|&i| log[i].3.is_none())
                .map(|i| Edit {
                    id: EditId(i as u64),
                    article: log[i].0,
                    author: log[i].1,
                    kind: log[i].2,
                })
                .collect();
            let rebuilt = ArticleRegistry::from_parts(
                reg.articles().cloned().collect(),
                reg.pending_edits().iter().rev().copied().collect(),
                reg.edit_outcome_counts(),
                reg.edit_count(),
            );
            for reg in [&reg, &rebuilt] {
                assert_eq!(reg.edit_outcome_counts(), expected);
                assert_eq!(reg.edit_count(), log.len() as u64);
                assert_eq!(reg.pending_edits(), &pending[..]);
                for (article, history) in reg.articles().zip(&authors) {
                    assert_eq!(article.revision_count(), history.len());
                    let mut set = history.clone();
                    set.sort_unstable();
                    set.dedup();
                    assert_eq!(article.voters(), &set[..]);
                    let pending_here = pending.iter().find(|e| e.article == article.id);
                    assert_eq!(article.pending_edit, pending_here.map(|e| e.id));
                }
                let editable: Vec<ArticleId> = reg
                    .articles()
                    .filter(|article| article.pending_edit.is_none())
                    .map(|article| article.id)
                    .collect();
                assert_eq!(reg.editable_articles(), &editable[..]);
            }
            if let Some(done) = log.iter().position(|e| e.3.is_some()) {
                resolved = Some((reg, EditId(done as u64)));
            }
        }
        // A resolved edit stays resolved: resolving it again panics.
        let (mut reg, done) = resolved.expect("some sequence resolves an edit");
        let repeat = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.resolve_edit(done, true)
        }));
        assert!(repeat.is_err(), "double resolution must panic");
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", ArticleId(4)), "article#4");
    }
}
