//! `GETNEXTRESULT` (Fig. 2 of the paper) — the one routine behind every
//! algorithm of the crate.
//!
//! Given the relations, the index `i`, and the `Incomplete`/`Complete`
//! lists, produce the next result of `FDi(R)`:
//!
//! ```text
//!  1  remove the first tuple set T from Incomplete
//!  2  while there is a tuple tg ∉ T with JCC(T ∪ {tg})
//!  4      add tg to T                            (maximal extension)
//!  7  foreach tuple tb ∈ Tuples(R), tb ∉ T
//!  8      T′ := the maximal subset of T ∪ {tb} containing tb with JCC(T′)
//! 10      if T′ contains a tuple from Ri
//! 11          if T′ is contained in a tuple set of Complete: skip
//! 14          else if ∃ S ∈ Incomplete with JCC(S ∪ T′): S := S ∪ T′
//! 18          else append T′ to Incomplete
//! 19  return T
//! ```
//!
//! `PRIORITYINCREMENTALFD` (Fig. 3) and `APPROXINCREMENTALFD` (Figs. 5–6)
//! are this routine with two parts swapped, so it is generic over both:
//!
//! * the join test — a [`JoinModel`]: `JCC` ([`crate::model::Exact`]) or
//!   `A(·) ≥ τ` ([`crate::model::Approx`], whose line 8 may yield several
//!   maximal subsets);
//! * the `Incomplete` discipline — a [`Frontier`]: the front-spliced FIFO
//!   of Table 3 ([`crate::lists::IncompleteQueue`]) or the rank heap of
//!   Fig. 3 ([`crate::lists::LazyQueue`]).
//!
//! A [`ScanScope`] carries the run-dependent knobs (the plain, ranked,
//! restricted and seeded executions of Sections 4, 5 and 7).

use crate::lists::{CompleteStore, Frontier};
use crate::model::JoinModel;
use crate::stats::Stats;
use crate::tupleset::TupleSet;
use fd_relational::storage::Pager;
use fd_relational::{Database, RelId, TupleId};

/// Run-dependent scan configuration for one `INCREMENTALFD(R, i)` run.
pub(crate) struct ScanScope<'db, 'p> {
    /// The database.
    pub db: &'db Database,
    /// The run's relation `Ri`: results must contain one of its tuples.
    pub ri: RelId,
    /// First relation index included in the extension and candidate scans
    /// (0 for the standalone algorithm; `i + 1` under Section 7's
    /// repeated-work optimization, which relies on a global `Complete`).
    pub rel_min: usize,
    /// Tightens line 10's root filter from "contains a tuple of `Ri`" to
    /// "contains one of these tuples". Used by the delta-maintenance run
    /// seeded at freshly inserted tuples: with a single seed `t` that run
    /// is `INCREMENTALFD(R', i)` over the database in which `Ri` is
    /// replaced by `{t}` (Theorem 4.10 then says it emits exactly the
    /// maximal join-consistent connected sets containing `t`); with `k`
    /// seeds it is the batched union of those runs — `Incomplete` starts
    /// from all `k` singletons, a derivation's root is the first seed it
    /// contains, and printed sets register under *every* contained seed
    /// so the line-11 suppression stays root-complete. Empty means no
    /// seed filter (the plain and ranked executions).
    pub seeds: &'p [TupleId],
    /// Derivation memo for seeded runs: the canonical member lists of
    /// every `T′` already processed by lines 10–18. A re-derived exact
    /// duplicate is a no-op — it is either still in `Incomplete` (the
    /// line-14 merge with its own growth succeeds trivially), was merged
    /// into an entry that still covers it, or is covered by a printed
    /// superset (`Complete` only grows) — so it can skip the store scans
    /// entirely. Seeded runs re-derive heavily (every pop scans every
    /// candidate, and cross-seed derivations repeat per pop), which is
    /// why they carry the memo; the plain runs keep the paper's exact
    /// trace.
    pub memo: Option<&'p std::cell::RefCell<fd_relational::fxhash::FxHashSet<Box<[TupleId]>>>>,
    /// Block-based execution (Section 7): scan through a pager, counting
    /// page fetches, instead of tuple at a time.
    pub pager: Option<&'p Pager<'db>>,
}

impl ScanScope<'_, '_> {
    /// The line-7 scan: applies `f` to every live tuple of relations
    /// `rel_min..n`, each relation in ascending id order — base band then
    /// that relation's dynamic inserts — counted in the run's stats.
    /// Under block-based execution every page is fetched and counted,
    /// which is what keeps this scan on the relations rather than on
    /// [`Database::probe`] like the extension loop.
    fn for_each_candidate(&self, stats: &mut Stats, mut f: impl FnMut(TupleId, &mut Stats)) {
        let mut visit = |t| {
            stats.candidate_scans += 1;
            f(t, stats);
        };
        for rel_idx in self.rel_min..self.db.num_relations() {
            let rel = RelId(rel_idx as u16);
            match self.pager {
                None => self.db.tuples_of(rel).for_each(&mut visit),
                Some(pager) => pager.scan(rel).flatten().for_each(&mut visit),
            }
        }
    }
}

/// Fig. 2 lines 2–6 (Fig. 6 lines 2–6*): repeatedly add any tuple the
/// model accepts until a fixpoint, scanning the relations with index
/// `≥ rel_min` in order and each relation's candidates in ascending id
/// order — the first-match order of the paper's trace in Table 3. A pass
/// can newly connect a relation whose tuples were rejected earlier, so up
/// to `n` passes may be needed (`O(s·n)` total, Theorem 4.8).
pub(crate) fn extend_maximal<M: JoinModel>(
    model: &M,
    db: &Database,
    mut set: TupleSet,
    rel_min: usize,
    stats: &mut Stats,
) -> TupleSet {
    loop {
        stats.extension_passes += 1;
        let mut grew = false;
        for rel_idx in rel_min..db.num_relations() {
            let rel = RelId(rel_idx as u16);
            // Skip relations already represented or unreachable from the
            // current set (footnote 5's refinement).
            if set.tuple_from(db, rel).is_some()
                || !set
                    .tuples()
                    .iter()
                    .any(|&m| db.rels_connected(db.rel_of(m), rel))
            {
                continue;
            }
            // The first accepted tuple wins: one tuple per relation.
            let mut grown = None;
            model.scan_candidates(db, rel, &set, |t| {
                stats.extension_scans += 1;
                grown = model.grow(db, &set, t, stats);
                grown.is_some()
            });
            if let Some(grown) = grown {
                set = grown;
                grew = true;
            }
        }
        if !grew {
            return set;
        }
    }
}

/// One call of `GETNEXTRESULT`. Returns the maximally-extended tuple set
/// removed from `Incomplete` together with its root (Fig. 2 returns it
/// for printing; the caller decides whether to print it and appends it
/// to `Complete`). Returns `None` when `Incomplete` is empty.
pub(crate) fn get_next_result<M: JoinModel, Q: Frontier>(
    model: &M,
    scope: &ScanScope<'_, '_>,
    incomplete: &mut Q,
    complete: &CompleteStore,
    stats: &mut Stats,
) -> Option<(TupleId, TupleSet)> {
    let db = scope.db;
    // Line 1: remove the first tuple set.
    let (root, set) = incomplete.pop(stats)?;
    // Lines 2–6: maximal extension.
    let set = extend_maximal(model, db, set, scope.rel_min, stats);

    // Multi-seed runs re-derive a maximal set once per contained seed
    // (the singletons are all queued before any suppression can kick
    // in). The candidate loop below depends only on (db, set), so a
    // re-derivation of an already-printed set would regenerate exactly
    // the T′ collection the first emission already processed — skip the
    // scan and let the caller's canonical filter drop the duplicate.
    if !scope.seeds.is_empty() && complete.contains_exact(set.tuples()) {
        return Some((root, set));
    }

    // Lines 7–18: derive successor tuple sets.
    scope.for_each_candidate(stats, |tb, stats| {
        if set.contains(tb) {
            return;
        }
        // Line 8: the maximal subsets of T ∪ {tb} containing tb.
        model.maximal_subsets(db, &set, tb, stats, |t_prime, stats| {
            // Line 10: must contain a tuple from Ri (one of the seed
            // tuples in a delta-maintenance run). The any-seed filter is
            // what makes the multi-seed run sound: printed sets suppress
            // derivations of *every* contained seed, and in exchange each
            // pop re-seeds the cross-root representatives that
            // suppression removes. (A tighter "inherit the popped root"
            // filter loses exactly those representatives and drops
            // results.)
            let new_root = if scope.seeds.is_empty() {
                match t_prime.tuple_from(db, scope.ri) {
                    Some(root) => root,
                    None => return,
                }
            } else {
                match scope.seeds.iter().copied().find(|&s| t_prime.contains(s)) {
                    Some(seed) => seed,
                    None => return,
                }
            };
            // Seeded runs: skip exact re-derivations (see `ScanScope::memo`).
            if let Some(memo) = scope.memo {
                if !memo.borrow_mut().insert(t_prime.tuples().into()) {
                    return;
                }
            }
            // Line 11: already represented in Complete?
            if complete.contains_superset(&t_prime, new_root, stats) {
                return;
            }
            // Lines 14–15: merge into an Incomplete entry sharing the root.
            let union = |s: &TupleSet, t: &TupleSet, st: &mut Stats| model.union(db, s, t, st);
            if incomplete.try_merge(new_root, &t_prime, union, stats) {
                return;
            }
            // Line 18: genuinely new — append.
            incomplete.push(new_root, t_prime, stats);
        });
    });

    Some((root, set))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lists::{IncompleteQueue, StoreEngine};
    use crate::model::Exact;
    use fd_relational::tourist_database;

    const C1: TupleId = TupleId(0);
    const C2: TupleId = TupleId(1);
    const C3: TupleId = TupleId(2);
    const A1: TupleId = TupleId(3);
    const A2: TupleId = TupleId(4);
    const S1: TupleId = TupleId(6);
    const S2: TupleId = TupleId(7);

    /// Drives the first `GETNEXTRESULT` call of Example 4.1 and checks the
    /// exact list contents of Table 3's "Iteration 1" column.
    #[test]
    fn first_iteration_of_example_4_1() {
        let db = tourist_database();
        let mut stats = Stats::new();
        let mut incomplete = IncompleteQueue::new(StoreEngine::Scan);
        let complete = CompleteStore::new(StoreEngine::Scan);
        for t in db.tuples_of(RelId(0)) {
            incomplete.push(t, TupleSet::singleton(&db, t), &mut stats);
        }
        let scope = ScanScope {
            db: &db,
            ri: RelId(0),
            rel_min: 0,
            seeds: &[],
            memo: None,
            pager: None,
        };
        let (root, result) =
            get_next_result(&Exact, &scope, &mut incomplete, &complete, &mut stats).unwrap();
        assert_eq!(root, C1);
        assert_eq!(result.tuples(), &[C1, A1]);

        let pending: Vec<Vec<TupleId>> = incomplete.iter().map(|s| s.tuples().to_vec()).collect();
        // Table 3, Iteration 1 — exact list contents and order:
        // {c1,a2,s1}, {c1,s2}, {c2}, {c3}.
        assert_eq!(
            pending,
            vec![vec![C1, A2, S1], vec![C1, S2], vec![C2], vec![C3]]
        );
    }

    /// Iteration 2 of Example 4.1: extending {c1, a2, s1} adds nothing new.
    #[test]
    fn second_iteration_adds_nothing() {
        let db = tourist_database();
        let mut stats = Stats::new();
        let mut incomplete = IncompleteQueue::new(StoreEngine::Scan);
        let mut complete = CompleteStore::new(StoreEngine::Scan);
        for t in db.tuples_of(RelId(0)) {
            incomplete.push(t, TupleSet::singleton(&db, t), &mut stats);
        }
        let scope = ScanScope {
            db: &db,
            ri: RelId(0),
            rel_min: 0,
            seeds: &[],
            memo: None,
            pager: None,
        };
        let (_, r1) =
            get_next_result(&Exact, &scope, &mut incomplete, &complete, &mut stats).unwrap();
        complete.insert(r1, &[C1]);

        let before: Vec<Vec<TupleId>> = incomplete.iter().map(|s| s.tuples().to_vec()).collect();
        let (_, r2) =
            get_next_result(&Exact, &scope, &mut incomplete, &complete, &mut stats).unwrap();
        assert_eq!(r2.tuples(), &[C1, A2, S1]);
        let after: Vec<Vec<TupleId>> = incomplete.iter().map(|s| s.tuples().to_vec()).collect();
        // {c1,a2,s1} was consumed; no new set appeared.
        assert_eq!(after.len(), before.len() - 1);
        assert!(after.contains(&vec![C1, S2]));
        assert!(after.contains(&vec![C2]));
        assert!(after.contains(&vec![C3]));
    }

    #[test]
    fn exhausts_to_none() {
        let db = tourist_database();
        let mut stats = Stats::new();
        let mut incomplete = IncompleteQueue::new(StoreEngine::Indexed);
        let mut complete = CompleteStore::new(StoreEngine::Indexed);
        incomplete.push(C3, TupleSet::singleton(&db, C3), &mut stats);
        let scope = ScanScope {
            db: &db,
            ri: RelId(0),
            rel_min: 0,
            seeds: &[],
            memo: None,
            pager: None,
        };
        let mut count = 0;
        while let Some((root, set)) =
            get_next_result(&Exact, &scope, &mut incomplete, &complete, &mut stats)
        {
            complete.insert(set, &[root]);
            count += 1;
        }
        // Starting from {c3} alone: {c3,a3} is the only reachable result
        // rooted at c3... plus any sets derived via the candidate loop that
        // contain a Climates tuple reachable from it.
        assert!(count >= 1);
        assert!(complete
            .sets()
            .iter()
            .any(|s| s.tuples() == [C3, TupleId(5)]));
    }

    #[test]
    fn block_based_scan_counts_pages_and_matches_tuple_based() {
        let db = tourist_database();
        let run = |pager: Option<&Pager<'_>>| {
            let mut stats = Stats::new();
            let mut incomplete = IncompleteQueue::new(StoreEngine::Indexed);
            let mut complete = CompleteStore::new(StoreEngine::Indexed);
            for t in db.tuples_of(RelId(0)) {
                incomplete.push(t, TupleSet::singleton(&db, t), &mut stats);
            }
            let scope = ScanScope {
                db: &db,
                ri: RelId(0),
                rel_min: 0,
                seeds: &[],
                memo: None,
                pager,
            };
            let mut out = Vec::new();
            while let Some((root, set)) =
                get_next_result(&Exact, &scope, &mut incomplete, &complete, &mut stats)
            {
                complete.insert(set.clone(), &[root]);
                out.push(set);
            }
            out
        };
        let tuple_based = run(None);
        let pager = Pager::new(&db, 4);
        let block_based = run(Some(&pager));
        assert_eq!(
            tuple_based
                .iter()
                .map(|s| s.tuples().to_vec())
                .collect::<Vec<_>>(),
            block_based
                .iter()
                .map(|s| s.tuples().to_vec())
                .collect::<Vec<_>>()
        );
        assert!(pager.stats().pages_read() > 0);
    }
}
