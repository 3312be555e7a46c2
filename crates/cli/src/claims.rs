//! The paper's results as checked claims: the table behind
//! `collabsim check`.
//!
//! [`CLAIMS`] states each simulated result of the paper once: the
//! checked-in cells it reads (under `scenarios/paper/`), a metric of each
//! cell's report, a statistic over the cells in order, and the test that
//! statistic must pass. [`check`] runs every distinct cell once at each
//! of the [`SEEDS`] through [`coordinator::run_grid`], computes every
//! claim's statistic per seed, and takes the verdict over the seeds:
//!
//! * **holds** — the test passes at every seed,
//! * **diverges** — it passes at none,
//! * **inconclusive** — it passes at some.
//!
//! The rules are the same for every claim, and the scale (the cells' own
//! paper length), the seeds, the statistics and the tests were fixed
//! before any result was read. A claim that diverges is a finding about
//! the reproduction, not a number to tune.

use crate::coordinator::{self, CellStatus, GridOptions};
use crate::error::CliError;
use crate::scenarios::scenario_files;
use collabsim::{ScenarioSpec, SimulationReport};
use std::fmt::{self, Write as _};
use Statistic::{Change, Gain, Mean, Spread};
use Test::{AtLeast, AtMost, Near};

/// The seeds every cell runs at. A cell's own seed is replaced, as
/// `--set seed=` replaces it.
pub const SEEDS: [u64; 5] = [1, 2, 3, 4, 5];

/// A number read off one run's report.
#[derive(Clone, Copy)]
pub struct Metric {
    /// The report accessor's name.
    pub name: &'static str,
    /// Reads the metric.
    pub read: fn(&SimulationReport) -> f64,
}

const ARTICLES: Metric = Metric {
    name: "shared_articles",
    read: |r| r.shared_articles,
};
const BANDWIDTH: Metric = Metric {
    name: "shared_bandwidth",
    read: |r| r.shared_bandwidth,
};
const RATIONAL_ARTICLES: Metric = Metric {
    name: "rational_shared_articles",
    read: SimulationReport::rational_shared_articles,
};
const RATIONAL_BANDWIDTH: Metric = Metric {
    name: "rational_shared_bandwidth",
    read: SimulationReport::rational_shared_bandwidth,
};
const RATIONAL_CONSTRUCTIVE: Metric = Metric {
    name: "rational_constructive_fraction",
    read: SimulationReport::rational_constructive_fraction,
};
const DESTRUCTIVE_ACCEPTED: Metric = Metric {
    name: "destructive_acceptance_rate",
    read: SimulationReport::destructive_acceptance_rate,
};

/// A statistic over a claim's per-cell metric values, in cell order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Statistic {
    /// `m(a) / m(b) − 1` over exactly two cells `a, b`.
    Gain,
    /// `m(last) − m(first)`.
    Change,
    /// `max − min`.
    Spread,
    /// The mean.
    Mean,
}

impl Statistic {
    /// The statistic of one seed's values.
    pub fn of(self, values: &[f64]) -> f64 {
        match self {
            Statistic::Gain => values[0] / values[1] - 1.0,
            Statistic::Change => values[values.len() - 1] - values[0],
            Statistic::Spread => {
                let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let min = values.iter().copied().fold(f64::INFINITY, f64::min);
                max - min
            }
            Statistic::Mean => values.iter().sum::<f64>() / values.len() as f64,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Statistic::Gain => "gain",
            Statistic::Change => "change",
            Statistic::Spread => "spread",
            Statistic::Mean => "mean",
        }
    }
}

/// The test a claim's statistic must pass at a seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Test {
    /// Within a quarter of `|p|` of the paper's value `p`: the paper's
    /// numbers are read off its plots.
    Near(f64),
    /// At least the threshold (a "rises" or "influences").
    AtLeast(f64),
    /// At most the threshold (a "falls" or "flat").
    AtMost(f64),
}

impl Test {
    /// Whether `value` passes.
    pub fn passes(self, value: f64) -> bool {
        match self {
            Test::Near(p) => (value - p).abs() <= p.abs() / 4.0,
            Test::AtLeast(t) => value >= t,
            Test::AtMost(t) => value <= t,
        }
    }
}

impl fmt::Display for Test {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Test::Near(p) => write!(f, "near {p:.3} ± {:.3}", p.abs() / 4.0),
            Test::AtLeast(t) => write!(f, "≥ {t:+.3}"),
            Test::AtMost(t) => write!(f, "≤ {t:+.3}"),
        }
    }
}

/// A claim's verdict over the seeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The test passes at every seed.
    Holds,
    /// The test passes at no seed.
    Diverges,
    /// The test passes at some seeds only.
    Inconclusive,
}

impl Verdict {
    /// The verdict over per-seed passes.
    pub fn of(passes: &[bool]) -> Self {
        if passes.iter().all(|&pass| pass) {
            Verdict::Holds
        } else if passes.iter().any(|&pass| pass) {
            Verdict::Inconclusive
        } else {
            Verdict::Diverges
        }
    }

    fn name(self) -> &'static str {
        match self {
            Verdict::Holds => "holds",
            Verdict::Diverges => "diverges",
            Verdict::Inconclusive => "inconclusive",
        }
    }
}

/// One result of the paper, stated as a test.
pub struct Claim {
    /// The claim's name, led by its figure (`fig3`) or ablation (`abl1`),
    /// which names its entry in [`QUOTES`].
    pub id: &'static str,
    /// The cells, in order: each entry selects every path of
    /// [`scenario_files`] that starts with it, in that list's order.
    pub cells: &'static [&'static str],
    /// The metric read off each cell's report.
    pub metric: Metric,
    /// The statistic over the cells' metric values.
    pub statistic: Statistic,
    /// The test the statistic must pass at a seed.
    pub test: Test,
}

const fn claim(
    id: &'static str,
    metric: Metric,
    statistic: Statistic,
    test: Test,
    cells: &'static [&'static str],
) -> Claim {
    Claim {
        id,
        cells,
        metric,
        statistic,
        test,
    }
}

/// What the repository records of each result the claims test, by the
/// figure or ablation leading a claim's id: the doc comments and
/// reference lines of the figure binaries these claims replaced (the
/// repository does not hold the paper's text).
pub const QUOTES: &[(&str, &str)] = &[
    (
        "fig3",
        "Fig 3: \"roughly 8 % more shared articles and 11 % more shared bandwidth when \
         the scheme is active\"",
    ),
    (
        "fig4",
        "Fig 4: \"sharing rises ~linearly with the altruistic share and falls with the \
         irrational share\"",
    ),
    (
        "fig5",
        "Fig 5: \"both panels are nearly flat (rational peers are insensitive to the mix)\"",
    ),
    (
        "fig6",
        "Fig 6: \"with a balanced non-rational population the split is close to random \
         (the constructive fraction fluctuates around 0.5 rather than converging)\"",
    ),
    (
        "fig7",
        "Fig 7: \"the constructive fraction of rational edits rises with the altruistic \
         share and falls with the irrational share (majority following)\"",
    ),
    (
        "abl1",
        "Section VI: \"the reputation function has a great influence on how much \
         resources are shared\"",
    ),
    (
        "abl3",
        "Section II: TFT \"cannot provide incentives for the non-direct, heterogeneous \
         contributions of a collaboration network\"; only the reputation scheme \
         \"suppresses destructive edits\"",
    ),
];

const FIG3_ARMS: &[&str] = &[
    "paper/fig3/with-incentive.spec",
    "paper/fig3/without-incentive.spec",
];
const ALTRUISTIC: &[&str] = &["paper/mix/altruistic_"];
const IRRATIONAL: &[&str] = &["paper/mix/irrational_"];
const FIG6_SWEEP: &[&str] = &["paper/fig6/"];
const ABL1_BETAS: &[&str] = &["paper/abl1/"];
// Tit-for-tat first: `change` reads the step to the reputation scheme.
const ABL3_ARMS: &[&str] = &["paper/abl3/tit-for-tat.spec", "paper/abl3/reputation.spec"];

/// Every checked claim, in the order `collabsim check` prints them.
#[rustfmt::skip]
pub const CLAIMS: &[Claim] = &[
    claim("fig3/articles",             ARTICLES,              Gain,   Near(0.08),    FIG3_ARMS),
    claim("fig3/bandwidth",            BANDWIDTH,             Gain,   Near(0.11),    FIG3_ARMS),
    claim("fig4/altruistic/articles",  ARTICLES,              Change, AtLeast(0.1),  ALTRUISTIC),
    claim("fig4/altruistic/bandwidth", BANDWIDTH,             Change, AtLeast(0.1),  ALTRUISTIC),
    claim("fig4/irrational/articles",  ARTICLES,              Change, AtMost(-0.1),  IRRATIONAL),
    claim("fig4/irrational/bandwidth", BANDWIDTH,             Change, AtMost(-0.1),  IRRATIONAL),
    claim("fig5/altruistic/articles",  RATIONAL_ARTICLES,     Spread, AtMost(0.1),   ALTRUISTIC),
    claim("fig5/altruistic/bandwidth", RATIONAL_BANDWIDTH,    Spread, AtMost(0.1),   ALTRUISTIC),
    claim("fig5/irrational/articles",  RATIONAL_ARTICLES,     Spread, AtMost(0.1),   IRRATIONAL),
    claim("fig5/irrational/bandwidth", RATIONAL_BANDWIDTH,    Spread, AtMost(0.1),   IRRATIONAL),
    claim("fig6/constructive",         RATIONAL_CONSTRUCTIVE, Mean,   Near(0.5),     FIG6_SWEEP),
    claim("fig7/altruistic",           RATIONAL_CONSTRUCTIVE, Change, AtLeast(0.1),  ALTRUISTIC),
    claim("fig7/irrational",           RATIONAL_CONSTRUCTIVE, Change, AtMost(-0.1),  IRRATIONAL),
    claim("abl1/bandwidth",            BANDWIDTH,             Spread, AtLeast(0.1),  ABL1_BETAS),
    claim("abl3/destructive",          DESTRUCTIVE_ACCEPTED,  Change, AtMost(-0.1),  ABL3_ARMS),
];

/// A claim's cells, resolved against [`scenario_files`] in claim order;
/// an entry that selects no file is an error naming it.
pub fn resolve(claim: &Claim) -> Result<Vec<ScenarioSpec>, String> {
    let files = scenario_files();
    let mut cells = Vec::new();
    for &prefix in claim.cells {
        let before = cells.len();
        let selected = files
            .iter()
            .filter(|(path, _)| path.to_string_lossy().starts_with(prefix));
        cells.extend(selected.map(|(_, spec)| spec.clone()));
        if cells.len() == before {
            return Err(format!(
                "claim `{}`: `{prefix}` selects no scenario file",
                claim.id
            ));
        }
    }
    Ok(cells)
}

/// One claim's reading: the statistic at each of [`SEEDS`] and the
/// verdict over them.
pub struct Row<'a> {
    /// The claim read.
    pub claim: &'a Claim,
    /// The statistic per seed, in [`SEEDS`] order.
    pub values: Vec<f64>,
    /// The verdict over `values`.
    pub verdict: Verdict,
}

impl<'a> Row<'a> {
    /// Reads `claim` off `reports[seed][cell]`: one list per seed, each in
    /// the claim's cell order.
    pub fn read(claim: &'a Claim, reports: &[Vec<&SimulationReport>]) -> Self {
        let values: Vec<f64> = reports
            .iter()
            .map(|cells| {
                let metric: Vec<f64> = cells.iter().map(|r| (claim.metric.read)(r)).collect();
                claim.statistic.of(&metric)
            })
            .collect();
        let passes: Vec<bool> = values.iter().map(|&v| claim.test.passes(v)).collect();
        Row {
            claim,
            verdict: Verdict::of(&passes),
            values,
        }
    }
}

/// The median of `values` (the mean of the middle two when even).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Runs `claims` at [`SEEDS`]: every distinct (configuration, seed) once,
/// through [`coordinator::run_grid`], whose `--out-dir` keeps each run's
/// record. A failed run is an [`CliError::Grid`], never a verdict.
pub fn check<'a>(claims: &'a [Claim], options: &GridOptions) -> Result<Vec<Row<'a>>, CliError> {
    // Distinct cells, and each claim's cells as indices into them.
    let mut distinct: Vec<ScenarioSpec> = Vec::new();
    let mut indices: Vec<Vec<usize>> = Vec::new();
    for claim in claims {
        let cells = resolve(claim).map_err(|message| CliError::Grid { message })?;
        let claim_indices = cells
            .into_iter()
            .map(|spec| {
                // Every run replaces the seed, so cells that differ only in
                // seed, label or parameter are one cell.
                let spec = spec.with_seed(0);
                let same = |known: &ScenarioSpec| {
                    known.config() == spec.config() && known.phases() == spec.phases()
                };
                distinct.iter().position(same).unwrap_or_else(|| {
                    distinct.push(spec);
                    distinct.len() - 1
                })
            })
            .collect();
        indices.push(claim_indices);
    }

    let runs: Vec<ScenarioSpec> = SEEDS
        .iter()
        .flat_map(|&seed| {
            distinct.iter().map(move |spec| {
                let label = format!("{}/seed={seed}", spec.label());
                spec.clone().with_seed(seed).with_label(label)
            })
        })
        .collect();
    let summary = coordinator::run_grid(&runs, options)?;
    let failed: Vec<&str> = summary
        .cells
        .iter()
        .filter(|cell| cell.status == CellStatus::Failed)
        .map(|cell| cell.label.as_str())
        .collect();
    if !failed.is_empty() {
        return Err(CliError::Grid {
            message: format!(
                "{} of {} claim runs failed ({}); see {}",
                failed.len(),
                runs.len(),
                failed.join(", "),
                summary.manifest_path.display()
            ),
        });
    }
    let report = |seed: usize, cell: usize| {
        let outcome = summary.cells[seed * distinct.len() + cell].result.as_ref();
        &outcome.expect("an ok cell carries its result").report
    };
    Ok(claims
        .iter()
        .zip(&indices)
        .map(|(claim, cells)| {
            let reports: Vec<Vec<&SimulationReport>> = (0..SEEDS.len())
                .map(|seed| cells.iter().map(|&cell| report(seed, cell)).collect())
                .collect();
            Row::read(claim, &reports)
        })
        .collect())
}

/// The table `collabsim check` prints: one row per claim, then each
/// claim's cells under its figure's quote.
pub fn render(rows: &[Row<'_>]) -> String {
    let seeds: Vec<String> = SEEDS.iter().map(u64::to_string).collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "collabsim check: {} claims at seeds {}; the statistic's median and [min, max] over the seeds",
        rows.len(),
        seeds.join(", ")
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<26} {:<31} {:<7} {:<18} {:>7}  {:<17} verdict",
        "claim", "metric", "stat", "test", "median", "[min, max]"
    );
    for row in rows {
        let claim = row.claim;
        let min = row.values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = row.values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let test = claim.test.to_string();
        let range = format!("[{min:+.3}, {max:+.3}]");
        let _ = writeln!(
            out,
            "{:<26} {:<31} {:<7} {test:<18} {:>+7.3}  {range:<17} {}",
            claim.id,
            claim.metric.name,
            claim.statistic.name(),
            median(&row.values),
            row.verdict.name()
        );
    }
    let mut figure = "";
    for row in rows {
        let leading = row.claim.id.split('/').next().unwrap_or_default();
        if leading != figure {
            figure = leading;
            let quote = QUOTES.iter().find(|(f, _)| *f == figure);
            let _ = writeln!(out, "\n{}", quote.map_or(figure, |(_, quote)| quote));
        }
        // An entry that is not a whole file name selects several files.
        let cells: Vec<String> = row
            .claim
            .cells
            .iter()
            .map(|&cell| match cell.ends_with(".spec") {
                true => cell.to_string(),
                false => format!("{cell}*"),
            })
            .collect();
        let _ = writeln!(out, "  {}: {}", row.claim.id, cells.join(" vs "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use collabsim::BehaviorBreakdown;
    use std::collections::BTreeMap;

    fn report(shared_articles: f64, rational_constructive: u64) -> SimulationReport {
        let mut by_behavior = BTreeMap::new();
        by_behavior.insert(
            "rational".to_string(),
            BehaviorBreakdown {
                peers: 4,
                shared_articles: shared_articles / 2.0,
                constructive_edits: rational_constructive,
                destructive_edits: 10 - rational_constructive,
                ..Default::default()
            },
        );
        SimulationReport {
            shared_bandwidth: 0.5,
            shared_articles,
            by_behavior,
            edit_outcomes: Default::default(),
            mean_article_quality: 1.0,
            completed_downloads: 0,
            evaluation_steps: 10,
            seed: 0,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn statistics_over_hand_built_reports() {
        let reports = [report(0.2, 2), report(0.5, 9), report(0.25, 5)];
        let articles: Vec<f64> = reports.iter().map(ARTICLES.read).collect();
        assert!(close(Statistic::Gain.of(&articles[1..]), 1.0));
        assert!(close(Statistic::Change.of(&articles), 0.05));
        assert!(close(Statistic::Spread.of(&articles), 0.3));
        assert!(close(Statistic::Mean.of(&articles), 0.95 / 3.0));
        let rational: Vec<f64> = reports.iter().map(RATIONAL_ARTICLES.read).collect();
        assert!(close(Statistic::Change.of(&rational), 0.025));
        let constructive: Vec<f64> = reports.iter().map(RATIONAL_CONSTRUCTIVE.read).collect();
        assert!(close(Statistic::Spread.of(&constructive), 0.7));
        assert!(close(Statistic::Mean.of(&[0.4]), 0.4));
    }

    #[test]
    fn tests_compare_as_stated() {
        // Near: within a quarter of |p|.
        assert!(Test::Near(0.08).passes(0.0601));
        assert!(Test::Near(0.08).passes(0.0999));
        assert!(!Test::Near(0.08).passes(0.059));
        assert!(!Test::Near(0.08).passes(0.101));
        assert!(Test::Near(-0.4).passes(-0.31));
        assert!(!Test::Near(0.5).passes(f64::NAN));
        assert!(Test::AtLeast(0.1).passes(0.1));
        assert!(!Test::AtLeast(0.1).passes(0.099));
        assert!(Test::AtMost(-0.1).passes(-0.1));
        assert!(!Test::AtMost(-0.1).passes(-0.099));
        assert!(!Test::AtMost(0.1).passes(f64::NAN));
        assert_eq!(Test::Near(0.08).to_string(), "near 0.080 ± 0.020");
        assert_eq!(Test::AtMost(-0.1).to_string(), "≤ -0.100");
    }

    #[test]
    fn verdicts_over_seed_sets() {
        assert_eq!(Verdict::of(&[true; 5]), Verdict::Holds);
        assert_eq!(Verdict::of(&[false; 5]), Verdict::Diverges);
        assert_eq!(
            Verdict::of(&[true, false, true, true, true]),
            Verdict::Inconclusive
        );
        let claim = &CLAIMS[0];
        let with_without = |gain: f64| vec![report(0.5 * (1.0 + gain), 5), report(0.5, 5)];
        let reports: Vec<Vec<SimulationReport>> =
            [0.07, 0.08, 0.09].map(with_without).into_iter().collect();
        let read = |reports: &[Vec<SimulationReport>]| {
            let borrowed: Vec<Vec<&SimulationReport>> =
                reports.iter().map(|cells| cells.iter().collect()).collect();
            Row::read(claim, &borrowed).verdict
        };
        assert_eq!(read(&reports), Verdict::Holds);
        let reports: Vec<Vec<SimulationReport>> =
            [0.07, 0.2].map(with_without).into_iter().collect();
        assert_eq!(read(&reports), Verdict::Inconclusive);
        let reports: Vec<Vec<SimulationReport>> =
            [-0.1, 0.2].map(with_without).into_iter().collect();
        assert_eq!(read(&reports), Verdict::Diverges);
    }

    #[test]
    fn the_checked_in_table_lists_every_claim_in_order() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/paper/claims.txt"
        );
        let table = std::fs::read_to_string(path).expect("scenarios/paper/claims.txt");
        let ids: Vec<&str> = table
            .lines()
            .skip(3)
            .take_while(|line| !line.is_empty())
            .filter_map(|line| line.split_whitespace().next())
            .collect();
        let claims: Vec<&str> = CLAIMS.iter().map(|claim| claim.id).collect();
        assert_eq!(ids, claims, "regenerate claims.txt with `collabsim check`");
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[0.3, -1.0, 0.2, 5.0, 0.1]), 0.2);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn every_figure_has_a_claim_over_checked_in_cells() {
        let figures: Vec<&str> = QUOTES.iter().map(|(figure, _)| *figure).collect();
        assert_eq!(
            figures,
            ["fig3", "fig4", "fig5", "fig6", "fig7", "abl1", "abl3"]
        );
        for figure in figures {
            assert!(
                CLAIMS
                    .iter()
                    .any(|claim| claim.id.starts_with(&format!("{figure}/"))),
                "{figure} has no claim"
            );
        }
        for claim in CLAIMS {
            let figure = claim.id.split('/').next().unwrap();
            assert!(QUOTES.iter().any(|(f, _)| *f == figure), "{}", claim.id);
            let cells = resolve(claim).unwrap_or_else(|message| panic!("{message}"));
            assert!(
                cells.len() >= 2,
                "{}: a statistic needs two cells",
                claim.id
            );
            if claim.statistic == Statistic::Gain {
                assert_eq!(cells.len(), 2, "{}: a gain compares two cells", claim.id);
            }
            assert!(claim.cells.iter().all(|cell| cell.starts_with("paper/")));
        }
        let panel = resolve(&CLAIMS[2]).unwrap();
        let labels: Vec<&str> = panel.iter().map(ScenarioSpec::label).collect();
        assert_eq!(labels.first(), Some(&"altruistic=10%"));
        assert_eq!(labels.last(), Some(&"altruistic=90%"));
        assert_eq!(labels.len(), 9);
    }
}
