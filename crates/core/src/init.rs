//! Initialization strategies for the `n` runs of a full-FD computation —
//! Section 7's "Minimizing repeated work".
//!
//! Computing `FD(R)` runs `INCREMENTALFD(R, i)` once per relation. With
//! the standard singleton initialization, a result with `j` member tuples
//! is recomputed `j` times. The paper proposes two refinements that seed
//! run `i` from the previously computed results, keep `Complete` global,
//! and restrict the scans of `GETNEXTRESULT` to relations after `Ri`:
//!
//! * [`InitStrategy::ReuseResults`] — seed `Incomplete` with the previous
//!   results containing a tuple of `Ri`, plus fresh singletons for the
//!   `Ri` tuples not covered by any previous result;
//! * [`InitStrategy::TrimExtend`] — additionally trim the reused sets to
//!   the relations `≥ i` (component of the `Ri` tuple) and pre-extend
//!   them over later relations, so the seeds lead directly to *new*
//!   answers.
//!
//! All strategies produce the same `FD(R)` (asserted by tests and the
//! equivalence suite); they differ in operation counts, which experiment
//! E11 measures.

use crate::incremental::{FdConfig, Run};
use crate::jcc::{extend_to_maximal_from, rebuild};
use crate::lists::{CompleteStore, IncompleteQueue};
use crate::model::JoinModel;
use crate::stats::Stats;
use crate::tupleset::TupleSet;
use fd_relational::fxhash::FxHashSet;
use fd_relational::{Database, RelId, TupleId};

/// How `Incomplete` is initialized for run `i` of a full-FD computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitStrategy {
    /// Fig. 1 lines 1–4: a singleton per tuple of `Ri`; every run is
    /// independent.
    #[default]
    Singletons,
    /// Section 7, option 2: reuse previous results as seeds; global
    /// `Complete`; scans restricted to relations after `Ri`.
    ReuseResults,
    /// Section 7, option 3: trim previous results to relations `≥ i`,
    /// pre-extend over later relations, deduplicate contained seeds.
    TrimExtend,
}

impl InitStrategy {
    /// Builds the `FDi` run for this strategy given all previously
    /// produced results. The reuse strategies are defined for the exact
    /// algorithm only; the approximate iterators always run
    /// [`InitStrategy::Singletons`].
    pub(crate) fn build_run<'db, M: JoinModel>(
        self,
        db: &'db Database,
        ri: RelId,
        cfg: FdConfig,
        produced: &[TupleSet],
        model: &M,
    ) -> Run<'db> {
        let trim = match self {
            InitStrategy::Singletons => return Run::singletons(db, ri, model, cfg),
            InitStrategy::ReuseResults => false,
            InitStrategy::TrimExtend => true,
        };
        let mut stats = Stats::new();
        let mut incomplete = IncompleteQueue::new(cfg.engine);
        let covered = seed_previous(db, ri, produced, &mut incomplete, &mut stats, trim);
        seed_uncovered_singletons(db, ri, &covered, &mut incomplete, &mut stats);
        let complete = seed_complete(cfg, produced);
        Run::from_parts(
            db,
            ri,
            ri.index() + 1,
            true,
            incomplete,
            complete,
            cfg,
            stats,
        )
    }
}

/// Seeds `Incomplete` from previous results containing a tuple of `ri`.
/// With `trim`, each seed is cut down to the connected component of the
/// `ri` tuple among members of relations `≥ i` and pre-extended over
/// later relations; contained or duplicate seeds are dropped (the paper's
/// requirement to preserve the `O(f)` space bound and Remark 4.5).
/// Returns the set of `ri` tuples covered by some previous result.
fn seed_previous(
    db: &Database,
    ri: RelId,
    produced: &[TupleSet],
    incomplete: &mut IncompleteQueue,
    stats: &mut Stats,
    trim: bool,
) -> FxHashSet<TupleId> {
    let mut covered: FxHashSet<TupleId> = FxHashSet::default();
    let mut seeds: Vec<(TupleId, TupleSet)> = Vec::new();
    for prev in produced {
        let Some(root) = prev.tuple_from(db, ri) else {
            continue;
        };
        covered.insert(root);
        let seed = if trim {
            let members: Vec<TupleId> = prev
                .tuples()
                .iter()
                .copied()
                .filter(|&t| db.rel_of(t) >= ri)
                .collect();
            // Keep the component of the root among the trimmed members.
            let rels: Vec<RelId> = members.iter().map(|&t| db.rel_of(t)).collect();
            let comp = db.subset_component(&rels, ri);
            let kept: Vec<TupleId> = members
                .into_iter()
                .filter(|&t| comp.binary_search(&db.rel_of(t)).is_ok())
                .collect();
            let trimmed = rebuild(db, kept);
            extend_to_maximal_from(db, trimmed, ri.index() + 1, stats)
        } else {
            prev.clone()
        };
        seeds.push((root, seed));
    }
    if trim {
        // Drop seeds contained in (or equal to) another seed.
        let mut keep = vec![true; seeds.len()];
        for a in 0..seeds.len() {
            for b in 0..seeds.len() {
                if a != b
                    && keep[a]
                    && keep[b]
                    && seeds[a].1.is_subset_of(&seeds[b].1)
                    && (seeds[a].1.len() < seeds[b].1.len() || a > b)
                {
                    keep[a] = false;
                }
            }
        }
        let mut flags = keep.into_iter();
        seeds.retain(|_| flags.next().expect("flag per seed"));
    }
    for (root, seed) in seeds {
        incomplete.push(root, seed, stats);
    }
    covered
}

/// Seeds `{t}` for every tuple of `ri` not covered by previous results.
fn seed_uncovered_singletons(
    db: &Database,
    ri: RelId,
    covered: &FxHashSet<TupleId>,
    incomplete: &mut IncompleteQueue,
    stats: &mut Stats,
) {
    for t in db.tuples_of(ri) {
        if !covered.contains(&t) {
            incomplete.push(t, TupleSet::singleton(db, t), &mut *stats);
        }
    }
}

/// Builds the global `Complete` store holding all previous results,
/// indexed by every member tuple so any run's root lookups work.
fn seed_complete(cfg: FdConfig, produced: &[TupleSet]) -> CompleteStore {
    let mut complete = CompleteStore::new(cfg.engine);
    for prev in produced {
        complete.insert(prev.clone(), prev.tuples());
    }
    complete
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::{canonicalize, FdIter};

    fn full_disjunction_with(db: &Database, cfg: FdConfig) -> Vec<TupleSet> {
        FdIter::with_config(db, cfg).collect()
    }
    use fd_relational::tourist_database;

    fn strategies() -> [InitStrategy; 3] {
        [
            InitStrategy::Singletons,
            InitStrategy::ReuseResults,
            InitStrategy::TrimExtend,
        ]
    }

    #[test]
    fn all_strategies_compute_the_same_full_disjunction() {
        let db = tourist_database();
        let base = canonicalize(full_disjunction_with(
            &db,
            FdConfig {
                init: InitStrategy::Singletons,
                ..FdConfig::default()
            },
        ));
        assert_eq!(base.len(), 6);
        for strat in strategies() {
            let cfg = FdConfig {
                init: strat,
                ..FdConfig::default()
            };
            let got = canonicalize(full_disjunction_with(&db, cfg));
            assert_eq!(base, got, "strategy {strat:?}");
        }
    }

    #[test]
    fn reuse_strategies_do_less_candidate_scanning() {
        let db = tourist_database();
        let run = |strat| {
            let cfg = FdConfig {
                init: strat,
                ..FdConfig::default()
            };
            let mut it = crate::incremental::FdIter::with_config(&db, cfg);
            while it.next().is_some() {}
            it.stats_total()
        };
        let singles = run(InitStrategy::Singletons);
        let reuse = run(InitStrategy::ReuseResults);
        // Restricting scans to later relations must reduce candidate work.
        assert!(
            reuse.candidate_scans < singles.candidate_scans,
            "reuse {} vs singletons {}",
            reuse.candidate_scans,
            singles.candidate_scans
        );
    }

    #[test]
    fn strategies_agree_on_edge_case_databases() {
        // Disconnected + duplicate rows + nulls.
        use fd_relational::NULL;
        let mut b = fd_relational::DatabaseBuilder::new();
        b.relation("P", &["A", "B"])
            .row([1, 2])
            .row([1, 2])
            .row_values(vec![3.into(), NULL]);
        b.relation("Q", &["B", "C"]).row([2, 4]).row([9, 9]);
        b.relation("Z", &["D"]).row([0]);
        let db = b.build().unwrap();
        let base = canonicalize(full_disjunction_with(
            &db,
            FdConfig {
                init: InitStrategy::Singletons,
                ..FdConfig::default()
            },
        ));
        for strat in strategies() {
            let cfg = FdConfig {
                init: strat,
                ..FdConfig::default()
            };
            assert_eq!(
                base,
                canonicalize(full_disjunction_with(&db, cfg)),
                "{strat:?}"
            );
        }
    }
}
