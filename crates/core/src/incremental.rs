//! `INCREMENTALFD` (Fig. 1 of the paper) — and, with the approximate
//! join model, `APPROXINCREMENTALFD` (Fig. 5) — as polynomial-delay
//! iterators.
//!
//! * [`FdiIter`] computes `FDi(R)` — the results containing a tuple of
//!   `Ri` — one tuple set per `next()` call (Theorem 4.10's incremental
//!   delivery); [`ApproxFdIter`](crate::ApproxFdIter) is the same run
//!   over `(A, τ)`.
//! * [`FdIter`] computes the entire `FD(R)` by running the algorithm for
//!   every `i ≤ n` and suppressing duplicates, exactly as Section 4
//!   prescribes (a set is emitted by the run of its *smallest* member
//!   relation); [`ApproxAllIter`](crate::ApproxAllIter) is the same
//!   iterator over `(A, τ)`. Section 7's alternative `Incomplete`
//!   initializations are selected through [`FdConfig`].

use crate::getnext::{get_next_result, ScanScope};
use crate::init::InitStrategy;
use crate::lists::{CompleteStore, IncompleteQueue, StoreEngine};
use crate::model::{Exact, JoinModel};
use crate::stats::Stats;
use crate::tupleset::TupleSet;
use fd_relational::fxhash::FxHashSet;
use fd_relational::storage::Pager;
use fd_relational::{Database, RelId, TupleId};

/// Execution knobs shared by all variants.
#[derive(Debug, Clone, Copy, Default)]
pub struct FdConfig {
    /// Store engine for `Complete`/`Incomplete` (Section 7 indexing
    /// ablation). Default: [`StoreEngine::Indexed`].
    pub engine: StoreEngine,
    /// `Some(page_size)` switches the scans of `GETNEXTRESULT` to
    /// block-based execution over a simulated pager (Section 7).
    pub page_size: Option<usize>,
    /// How `Incomplete` is initialized across the `n` runs of a full-FD
    /// computation (Section 7, "Minimizing repeated work").
    pub init: InitStrategy,
}

impl FdConfig {
    /// The paper-faithful configuration: linked-list scans, tuple-at-a-
    /// time execution, singleton initialization.
    pub fn paper_faithful() -> Self {
        FdConfig {
            engine: StoreEngine::Scan,
            page_size: None,
            init: InitStrategy::Singletons,
        }
    }
}

/// The state of one `INCREMENTALFD(R, i)` run: the lists, the scan
/// scope and the counters. The join model is supplied per step, so the
/// same state serves the exact and the approximate algorithm.
pub(crate) struct Run<'db> {
    db: &'db Database,
    ri: RelId,
    rel_min: usize,
    /// Section 7 reuse strategies: do not re-print a result contained in a
    /// previously printed one ("We must only print tuple sets that are not
    /// contained in previously printed tuple sets").
    suppress_contained: bool,
    incomplete: IncompleteQueue,
    complete: CompleteStore,
    pager: Option<Pager<'db>>,
    stats: Stats,
}

impl<'db> Run<'db> {
    /// Fig. 1 lines 1–4 (Fig. 5 line 3*): a singleton `{t}` for every
    /// tuple `t ∈ Ri` the model admits.
    pub(crate) fn singletons<M: JoinModel>(
        db: &'db Database,
        ri: RelId,
        model: &M,
        cfg: FdConfig,
    ) -> Self {
        let mut stats = Stats::new();
        let mut incomplete = IncompleteQueue::new(cfg.engine);
        for t in db.tuples_of(ri) {
            if model.admits(db, t, &mut stats) {
                incomplete.push(t, TupleSet::singleton(db, t), &mut stats);
            }
        }
        let complete = CompleteStore::new(cfg.engine);
        Self::from_parts(db, ri, 0, false, incomplete, complete, cfg, stats)
    }

    /// Custom initialization (Remarks 4.3/4.5 allow it as long as every
    /// tuple of `Ri` is covered and no two initial sets lie in one result).
    /// Used by the Section 7 strategies; `rel_min` restricts the scans to
    /// relations `≥ rel_min` and `complete` may carry over prior results.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        db: &'db Database,
        ri: RelId,
        rel_min: usize,
        suppress_contained: bool,
        incomplete: IncompleteQueue,
        complete: CompleteStore,
        cfg: FdConfig,
        stats: Stats,
    ) -> Self {
        Run {
            db,
            ri,
            rel_min,
            suppress_contained,
            incomplete,
            complete,
            pager: cfg.page_size.map(|ps| Pager::new(db, ps)),
            stats,
        }
    }

    /// Pages fetched so far (block-based execution only).
    pub(crate) fn pages_read(&self) -> u64 {
        self.pager.as_ref().map_or(0, |p| p.stats().pages_read())
    }

    pub(crate) fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Produces the next result and records it in `Complete`.
    pub(crate) fn step<M: JoinModel>(&mut self, model: &M) -> Option<TupleSet> {
        loop {
            let scope = ScanScope {
                db: self.db,
                ri: self.ri,
                rel_min: self.rel_min,
                seeds: &[],
                memo: None,
                pager: self.pager.as_ref(),
            };
            let (root, set) = get_next_result(
                model,
                &scope,
                &mut self.incomplete,
                &self.complete,
                &mut self.stats,
            )?;
            self.stats.results += 1;
            // Section 7 reuse strategies: with scans restricted to later
            // relations, a popped seed may be (contained in) an already
            // printed result — its candidate loop still ran, but it must
            // not be printed again.
            if self.suppress_contained
                && self.complete.contains_superset(&set, root, &mut self.stats)
            {
                continue;
            }
            // Registered under every member: any later subset shares at
            // least its own root tuple with the set.
            self.complete.insert(set.clone(), set.tuples());
            return Some(set);
        }
    }
}

/// One `INCREMENTALFD(R, i)` run as an iterator, over the join model
/// `M`. Public as [`FdiIter`] (exact) and
/// [`ApproxFdIter`](crate::ApproxFdIter) (approximate).
pub struct IncrementalFd<'db, M> {
    pub(crate) model: M,
    pub(crate) run: Run<'db>,
}

/// Iterator over `FDi(R)`: the tuple sets of the full disjunction that
/// contain a tuple from relation `Ri` (Fig. 1). Each `next()` performs one
/// `GETNEXTRESULT` call and therefore runs in incremental polynomial time.
pub type FdiIter<'db> = IncrementalFd<'db, Exact>;

impl<'db> FdiIter<'db> {
    /// Standard initialization (Fig. 1 lines 1–4): a singleton `{t}` for
    /// every tuple `t ∈ Ri`.
    pub fn new(db: &'db Database, ri: RelId) -> Self {
        Self::with_config(db, ri, FdConfig::default())
    }

    /// Standard initialization with explicit configuration.
    pub fn with_config(db: &'db Database, ri: RelId, cfg: FdConfig) -> Self {
        IncrementalFd {
            model: Exact,
            run: Run::singletons(db, ri, &Exact, cfg),
        }
    }
}

impl<M> IncrementalFd<'_, M> {
    /// Counters accumulated so far.
    pub fn stats(&self) -> &Stats {
        &self.run.stats
    }

    /// Pages fetched so far (block-based execution only).
    pub fn pages_read(&self) -> u64 {
        self.run.pages_read()
    }

    /// Labels of the current `Incomplete` and `Complete` lists, in list
    /// order — the columns of the paper's Table 3. Call between `next()`
    /// invocations to reproduce the trace.
    pub fn snapshot(&self) -> (Vec<String>, Vec<String>) {
        let db = self.run.db;
        let inc = self.run.incomplete.iter().map(|s| s.label(db)).collect();
        let comp = self
            .run
            .complete
            .sets()
            .iter()
            .map(|s| s.label(db))
            .collect();
        (inc, comp)
    }

    /// Consumes the iterator, returning the final statistics.
    pub fn into_stats(self) -> Stats {
        self.run.stats
    }
}

impl<M: JoinModel> Iterator for IncrementalFd<'_, M> {
    type Item = TupleSet;

    fn next(&mut self) -> Option<TupleSet> {
        self.run.step(&self.model)
    }
}

/// Computes `FDi(R)` eagerly.
///
/// ```
/// use fd_relational::{tourist_database, RelId};
///
/// let db = tourist_database();
/// // FD2: the results containing an Accommodations tuple — 3 of the 6.
/// assert_eq!(fd_core::fdi(&db, RelId(1)).len(), 3);
/// ```
pub fn fdi(db: &Database, ri: RelId) -> Vec<TupleSet> {
    FdiIter::new(db, ri).collect()
}

/// The `n` runs of `INCREMENTALFD` over the join model `M`, with
/// exactly-once emission. Public as [`FdIter`] (exact) and
/// [`ApproxAllIter`](crate::ApproxAllIter) (approximate).
pub struct FullDisjunction<'db, M> {
    db: &'db Database,
    cfg: FdConfig,
    model: M,
    current: Option<Run<'db>>,
    next_rel: usize,
    /// All results produced so far; only the Section 7 reuse strategies
    /// read them.
    produced: Vec<TupleSet>,
    /// Canonical fingerprints of emitted sets (safety net making every
    /// strategy exactly-once even where Remark 4.5's precondition is
    /// heuristic).
    emitted: FxHashSet<Box<[TupleId]>>,
    /// Counters of the finished runs.
    stats: Stats,
    /// Pages fetched by the finished runs.
    pages_done: u64,
}

/// Iterator over the entire full disjunction `FD(R) = ⋃ᵢ FDi(R)`,
/// emitting every tuple set exactly once.
///
/// With the default [`InitStrategy::Singletons`], run `i` re-derives sets
/// already produced by earlier runs; following Section 4, a set is emitted
/// only by the run of its smallest member relation (the "contains a tuple
/// from `R1..R_{i-1}`" test). The Section 7 strategies instead reuse
/// previous results and restrict the scans; a global canonical filter
/// guarantees exactly-once emission for every strategy.
pub type FdIter<'db> = FullDisjunction<'db, Exact>;

impl<'db> FdIter<'db> {
    /// Default configuration.
    pub fn new(db: &'db Database) -> Self {
        Self::with_config(db, FdConfig::default())
    }

    /// Explicit configuration.
    pub fn with_config(db: &'db Database, cfg: FdConfig) -> Self {
        FullDisjunction::with_model(db, Exact, cfg)
    }
}

impl<'db, M> FullDisjunction<'db, M> {
    pub(crate) fn with_model(db: &'db Database, model: M, cfg: FdConfig) -> Self {
        FullDisjunction {
            db,
            cfg,
            model,
            current: None,
            next_rel: 0,
            produced: Vec::new(),
            emitted: FxHashSet::default(),
            stats: Stats::new(),
            pages_done: 0,
        }
    }

    /// Counters of the finished runs plus the in-flight one.
    pub fn stats_total(&self) -> Stats {
        let mut s = self.stats;
        if let Some(cur) = &self.current {
            s.merge(cur.stats());
        }
        s
    }

    /// Pages fetched so far across all relation runs (block-based
    /// execution only).
    pub fn pages_read(&self) -> u64 {
        self.pages_done + self.current.as_ref().map_or(0, Run::pages_read)
    }

    /// Folds the finished run's statistics in and starts the next run;
    /// false when all `n` runs are done.
    fn advance_run(&mut self) -> bool
    where
        M: JoinModel,
    {
        if let Some(done) = self.current.take() {
            self.stats.merge(done.stats());
            self.pages_done += done.pages_read();
        }
        if self.next_rel >= self.db.num_relations() {
            return false;
        }
        let ri = RelId(self.next_rel as u16);
        self.next_rel += 1;
        let run = self
            .cfg
            .init
            .build_run(self.db, ri, self.cfg, &self.produced, &self.model);
        self.current = Some(run);
        true
    }
}

impl<M: JoinModel> Iterator for FullDisjunction<'_, M> {
    type Item = TupleSet;

    fn next(&mut self) -> Option<TupleSet> {
        loop {
            let Some(cur) = self.current.as_mut() else {
                if self.advance_run() {
                    continue;
                }
                return None;
            };
            match cur.step(&self.model) {
                None => {
                    if !self.advance_run() {
                        return None;
                    }
                }
                Some(set) => {
                    // Exactly-once emission: with singleton initialization
                    // this coincides with the paper's "contains a tuple
                    // from R1..R_{i-1}" suppression (such a set was
                    // already produced by the earlier run); it also makes
                    // the Section 7 reuse strategies safe where Remark
                    // 4.5's precondition is heuristic.
                    if self.emitted.insert(set.tuples().into()) {
                        if self.cfg.init != InitStrategy::Singletons {
                            self.produced.push(set.clone());
                        }
                        return Some(set);
                    }
                }
            }
        }
    }
}

/// Sorts results canonically (by member tuple ids) — handy for comparing
/// algorithm outputs in tests and benchmarks.
pub fn canonicalize(mut sets: Vec<TupleSet>) -> Vec<TupleSet> {
    sets.sort();
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jcc::is_jcc;
    use fd_relational::tourist_database;

    fn full_disjunction(db: &Database) -> Vec<TupleSet> {
        FdIter::new(db).collect()
    }

    fn full_disjunction_with(db: &Database, cfg: FdConfig) -> Vec<TupleSet> {
        FdIter::with_config(db, cfg).collect()
    }

    const C1: TupleId = TupleId(0);
    const C2: TupleId = TupleId(1);
    const C3: TupleId = TupleId(2);
    const A1: TupleId = TupleId(3);
    const A2: TupleId = TupleId(4);
    const A3: TupleId = TupleId(5);
    const S1: TupleId = TupleId(6);
    const S2: TupleId = TupleId(7);
    const S3: TupleId = TupleId(8);
    const S4: TupleId = TupleId(9);

    /// Table 2 of the paper: the six tuple sets of the full disjunction.
    fn table_2() -> Vec<Vec<TupleId>> {
        vec![
            vec![C1, A1],
            vec![C1, A2, S1],
            vec![C1, S2],
            vec![C2, S3],
            vec![C2, S4],
            vec![C3, A3],
        ]
    }

    #[test]
    fn fdi_climates_produces_all_six_results_in_table_3_order() {
        let db = tourist_database();
        let results: Vec<Vec<TupleId>> = FdiIter::new(&db, RelId(0))
            .map(|s| s.tuples().to_vec())
            .collect();
        // Every result contains a Climates tuple, so FD1 = FD here, and
        // Example 4.1 fixes the emission order.
        assert_eq!(
            results,
            vec![
                vec![C1, A1],
                vec![C1, A2, S1],
                vec![C1, S2],
                vec![C2, S3],
                vec![C2, S4],
                vec![C3, A3],
            ]
        );
    }

    #[test]
    fn fdi_trace_matches_table_3() {
        let db = tourist_database();
        let mut it = FdiIter::with_config(&db, RelId(0), FdConfig::paper_faithful());
        // Initialization column.
        let (inc, comp) = it.snapshot();
        assert_eq!(inc, vec!["{c1}", "{c2}", "{c3}"]);
        assert!(comp.is_empty());

        let expected: Vec<(Vec<&str>, Vec<&str>)> = vec![
            (
                vec!["{c1, a2, s1}", "{c1, s2}", "{c2}", "{c3}"],
                vec!["{c1, a1}"],
            ),
            (
                vec!["{c1, s2}", "{c2}", "{c3}"],
                vec!["{c1, a1}", "{c1, a2, s1}"],
            ),
            (
                vec!["{c2}", "{c3}"],
                vec!["{c1, a1}", "{c1, a2, s1}", "{c1, s2}"],
            ),
            (
                vec!["{c2, s4}", "{c3}"],
                vec!["{c1, a1}", "{c1, a2, s1}", "{c1, s2}", "{c2, s3}"],
            ),
            (
                vec!["{c3}"],
                vec![
                    "{c1, a1}",
                    "{c1, a2, s1}",
                    "{c1, s2}",
                    "{c2, s3}",
                    "{c2, s4}",
                ],
            ),
            (
                vec![],
                vec![
                    "{c1, a1}",
                    "{c1, a2, s1}",
                    "{c1, s2}",
                    "{c2, s3}",
                    "{c2, s4}",
                    "{c3, a3}",
                ],
            ),
        ];
        for (iteration, (want_inc, want_comp)) in expected.iter().enumerate() {
            assert!(it.next().is_some(), "iteration {}", iteration + 1);
            let (inc, comp) = it.snapshot();
            assert_eq!(
                &inc,
                want_inc,
                "Incomplete after iteration {}",
                iteration + 1
            );
            assert_eq!(
                &comp,
                want_comp,
                "Complete after iteration {}",
                iteration + 1
            );
        }
        assert!(it.next().is_none());
    }

    #[test]
    fn full_disjunction_matches_table_2() {
        let db = tourist_database();
        let fd = canonicalize(full_disjunction(&db));
        let got: Vec<Vec<TupleId>> = fd.iter().map(|s| s.tuples().to_vec()).collect();
        assert_eq!(got, table_2());
    }

    #[test]
    fn fd2_and_fd3_only_emit_their_relation_rooted_sets() {
        let db = tourist_database();
        // FD2: sets containing an Accommodations tuple.
        let fd2: Vec<Vec<TupleId>> = fdi(&db, RelId(1))
            .into_iter()
            .map(|s| s.tuples().to_vec())
            .collect();
        assert_eq!(fd2.len(), 3);
        for s in &fd2 {
            assert!(s.iter().any(|t| (3..6).contains(&t.0)));
        }
        // FD3: sets containing a Sites tuple.
        let fd3 = fdi(&db, RelId(2));
        assert_eq!(fd3.len(), 4);
    }

    #[test]
    fn all_results_are_jcc_and_mutually_unsubsumed() {
        let db = tourist_database();
        let fd = full_disjunction(&db);
        for s in &fd {
            assert!(is_jcc(&db, s.tuples()));
        }
        for a in &fd {
            for b in &fd {
                if a.tuples() != b.tuples() {
                    assert!(!a.is_subset_of(b), "{a} ⊂ {b}");
                }
            }
        }
    }

    #[test]
    fn engines_and_block_modes_agree() {
        let db = tourist_database();
        let base = canonicalize(full_disjunction(&db));
        for engine in [StoreEngine::Scan, StoreEngine::Indexed] {
            for page_size in [None, Some(1), Some(3), Some(64)] {
                let cfg = FdConfig {
                    engine,
                    page_size,
                    init: InitStrategy::Singletons,
                };
                let got = canonicalize(full_disjunction_with(&db, cfg));
                assert_eq!(base, got, "engine {engine:?}, pages {page_size:?}");
            }
        }
    }

    #[test]
    fn single_relation_database_yields_singletons() {
        let mut b = fd_relational::DatabaseBuilder::new();
        b.relation("R", &["A"]).row([1]).row([2]).row([2]);
        let db = b.build().unwrap();
        let fd = full_disjunction(&db);
        // Three rows (one duplicated) ⇒ three singleton tuple sets: the
        // full disjunction is over tuples, not values.
        assert_eq!(fd.len(), 3);
        assert!(fd.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn disconnected_relations_never_combine() {
        let mut b = fd_relational::DatabaseBuilder::new();
        b.relation("P", &["A"]).row([1]);
        b.relation("Q", &["B"]).row([1]);
        let db = b.build().unwrap();
        let fd = full_disjunction(&db);
        assert_eq!(fd.len(), 2);
        assert!(fd.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn empty_relation_contributes_nothing() {
        let mut b = fd_relational::DatabaseBuilder::new();
        b.relation("R", &["A", "B"]).row([1, 2]);
        b.relation("S", &["B", "C"]);
        let db = b.build().unwrap();
        let fd = full_disjunction(&db);
        assert_eq!(fd.len(), 1);
        assert_eq!(fd[0].tuples(), &[TupleId(0)]);
    }

    #[test]
    fn all_null_join_column_isolates_tuples() {
        use fd_relational::NULL;
        let mut b = fd_relational::DatabaseBuilder::new();
        b.relation("R", &["A", "B"])
            .row_values(vec![1.into(), NULL]);
        b.relation("S", &["B", "C"])
            .row_values(vec![NULL, 3.into()]);
        let db = b.build().unwrap();
        let fd = full_disjunction(&db);
        // ⊥ never joins, not even with ⊥.
        assert_eq!(fd.len(), 2);
        assert!(fd.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn stats_are_accumulated() {
        let db = tourist_database();
        let mut it = FdIter::new(&db);
        while it.next().is_some() {}
        let s = it.stats_total();
        assert!(s.results >= 6);
        assert!(s.jcc_checks > 0);
        assert!(s.candidate_scans > 0);
    }
}
