//! Delta maintenance of a materialized full disjunction under tuple
//! inserts and deletes.
//!
//! The paper's `FDi(R)` primitive (Theorem 4.10) computes exactly the
//! tuple sets of the full disjunction containing a tuple of `Ri` — so the
//! delta of inserting a tuple `t` is an `FDi`-style run seeded at the
//! singleton `{t}`:
//!
//! * [`delta_insert`] — after `t` enters the database, the new `FD`
//!   differs from the old one by (a) the maximal join-consistent
//!   connected sets *containing `t`* (all new — no pre-existing set can
//!   contain a tuple that did not exist) and (b) the old results those
//!   new sets strictly subsume. The sets of (a) are found by running
//!   `GETNEXTRESULT` with `Incomplete = [{t}]` and the line-10 root
//!   filter tightened to "contains `t`", which is `INCREMENTALFD` over
//!   the database in which `t`'s relation is replaced by `{t}`.
//! * [`delta_delete`] — after `t` leaves, every result containing `t`
//!   dies, and a previously-subsumed set can resurface. A newly maximal
//!   set `M` must be connected, contain no tuple of a surviving result
//!   superset, and satisfy `M ⊆ S \ {t}` for some dropped result `S`
//!   (any other old superset of `M` would still be a superset); being
//!   maximal and connected inside `S \ {t}`, it is a *connected
//!   component* of `S \ {t}`. The survivors are therefore re-derived by
//!   splitting each dropped set and keeping the components that are
//!   non-extendable and not already present.
//!
//! Both functions are pure: database + previous results in, delta out.
//! The session layer (`crate::session`) builds the stateful subscription engine on top.

use crate::getnext::{get_next_result, ScanScope};
use crate::incremental::FdConfig;
use crate::jcc::{extend_to_maximal, rebuild};
use crate::lists::{CompleteStore, IncompleteQueue};
use crate::model::Exact;
use crate::stats::Stats;
use crate::tupleset::TupleSet;
use fd_relational::fxhash::FxHashSet;
use fd_relational::storage::Pager;
use fd_relational::{Database, TupleId};

/// The effect of one tuple insertion on the full disjunction.
#[derive(Debug, Clone, Default)]
pub struct InsertDelta {
    /// New maximal sets — each contains the inserted tuple; no duplicates,
    /// no set subsumed by another.
    pub added: Vec<TupleSet>,
    /// Previous results that became non-maximal (strict subsets of some
    /// `added` set) and must be retracted.
    pub subsumed: Vec<TupleSet>,
    /// Work counters of the maintenance run.
    pub stats: Stats,
}

/// The effect of one tuple deletion on the full disjunction.
#[derive(Debug, Clone, Default)]
pub struct DeleteDelta {
    /// Previous results containing the deleted tuple; they must be
    /// retracted.
    pub dropped: Vec<TupleSet>,
    /// Sets that become maximal once the `dropped` results are gone —
    /// connected components of `S \ {t}` that cannot be extended and are
    /// not already results.
    pub restored: Vec<TupleSet>,
    /// Work counters of the maintenance run.
    pub stats: Stats,
}

/// Computes the full-disjunction delta of inserting tuple `t`.
///
/// `db` must already contain `t` (live); `previous` is the materialized
/// full disjunction of the database *without* `t`. Runs in incremental
/// polynomial time per emitted set (Theorem 4.10 applied to the instance
/// whose `Ri` is `{t}`), independent of how many runs a full
/// recomputation would need.
///
/// Builder equivalent (preferred — no bare `FdConfig` plumbing):
/// `FdQuery::over(&db).delta_insert(t, previous)` — see
/// [`crate::FdQuery::delta_insert`].
pub fn delta_insert(
    db: &Database,
    t: TupleId,
    previous: &[TupleSet],
    cfg: FdConfig,
) -> InsertDelta {
    delta_insert_many(db, &[t], previous, cfg)
}

/// Computes the full-disjunction delta of inserting `seeds` — the
/// multi-seed generalization of [`delta_insert`], and the insert half of
/// a batched commit's single maintenance pass.
///
/// `db` must already contain every seed (live); `previous` is the
/// materialized full disjunction of the database *without* them. All `k`
/// seeds drive **one** `FDi` run: `Incomplete` starts from the `k`
/// singletons, the line-10 root filter accepts any seed, and emitted
/// sets register in `Complete` under every contained seed — so a maximal
/// set joining several fresh tuples is discovered (and its derivations
/// suppressed) once, not once per seed.
pub fn delta_insert_many(
    db: &Database,
    seeds: &[TupleId],
    previous: &[TupleSet],
    cfg: FdConfig,
) -> InsertDelta {
    debug_assert!(
        seeds.iter().all(|&t| db.is_live(t)),
        "insert delta requires live seed tuples"
    );
    let mut stats = Stats::new();
    if seeds.is_empty() {
        return InsertDelta::default();
    }
    let mut incomplete = IncompleteQueue::new(cfg.engine);
    for &t in seeds {
        incomplete.push(t, TupleSet::singleton(db, t), &mut stats);
    }
    let mut complete = CompleteStore::new(cfg.engine);
    let pager = cfg.page_size.map(|ps| Pager::new(db, ps));
    let memo = std::cell::RefCell::new(FxHashSet::default());
    let scope = ScanScope {
        db,
        ri: db.rel_of(seeds[0]),
        rel_min: 0,
        seeds,
        memo: Some(&memo),
        pager: pager.as_ref(),
    };

    let mut added: Vec<TupleSet> = Vec::new();
    let mut emitted: FxHashSet<Box<[TupleId]>> = FxHashSet::default();
    while let Some((_, set)) =
        get_next_result(&Exact, &scope, &mut incomplete, &complete, &mut stats)
    {
        stats.results += 1;
        // The Complete store already suppresses subsets of printed sets;
        // the canonical filter additionally drops exact re-derivations
        // (two seeds contained in one maximal set each derive it once).
        if emitted.insert(set.tuples().into()) {
            let roots: Vec<TupleId> = seeds.iter().copied().filter(|&s| set.contains(s)).collect();
            complete.insert(set.clone(), &roots);
            added.push(set);
        }
    }

    let subsumed = previous
        .iter()
        .filter(|prev| {
            // A subsumed old set is a strict subset of a new one (never
            // equal: it cannot contain a fresh seed tuple).
            added.iter().any(|new| prev.is_subset_of(new))
        })
        .cloned()
        .collect();
    InsertDelta {
        added,
        subsumed,
        stats,
    }
}

/// Computes the full-disjunction delta of deleting tuple `t`.
///
/// `db` must already have `t` removed (tombstoned); `previous` is the
/// materialized full disjunction of the database *with* `t`. The cost is
/// proportional to the dropped results and one maximality probe per
/// resurfacing candidate — not to the size of the database's full
/// disjunction.
///
/// Builder equivalent (preferred — no bare `FdConfig` plumbing):
/// `FdQuery::over(&db).delta_delete(t, previous)` — see
/// [`crate::FdQuery::delta_delete`].
pub fn delta_delete(
    db: &Database,
    t: TupleId,
    previous: &[TupleSet],
    cfg: FdConfig,
) -> DeleteDelta {
    delta_delete_many(db, &[t], previous, cfg)
}

/// Computes the full-disjunction delta of deleting all of `removed` —
/// the grouped generalization of [`delta_delete`], and the delete half
/// of a batched commit's single maintenance pass.
///
/// `db` must already have every removed tuple tombstoned; `previous` is
/// the materialized full disjunction of the database *with* them. The
/// dropped results (those touching **any** removed tuple) are collected
/// in one scan, and the remnant components — each dropped set minus the
/// whole removed group — are re-derived once, not once per deletion: a
/// newly maximal set `M` has every old maximal superset dropped, so
/// `M ⊆ S \ removed` for some dropped `S`, and being maximal and
/// connected inside it, `M` is a connected component of `S \ removed`
/// (the Theorem 4.8 argument applied to the group).
pub fn delta_delete_many(
    db: &Database,
    removed: &[TupleId],
    previous: &[TupleSet],
    cfg: FdConfig,
) -> DeleteDelta {
    debug_assert!(
        removed.iter().all(|&t| !db.is_live(t)),
        "delete delta runs after the tombstones"
    );
    let _ = cfg; // store engine choice does not affect this path (yet)
    let mut stats = Stats::new();
    if removed.is_empty() {
        return DeleteDelta::default();
    }
    let mut dropped: Vec<TupleSet> = Vec::new();
    let mut survivors: FxHashSet<&[TupleId]> = FxHashSet::default();
    for prev in previous {
        if removed.iter().any(|&t| prev.contains(t)) {
            dropped.push(prev.clone());
        } else {
            survivors.insert(prev.tuples());
        }
    }

    let mut restored: Vec<TupleSet> = Vec::new();
    let mut seen: FxHashSet<Box<[TupleId]>> = FxHashSet::default();
    for set in &dropped {
        let remnant: Vec<TupleId> = set
            .tuples()
            .iter()
            .copied()
            .filter(|u| !removed.contains(u))
            .collect();
        for component in connected_components(db, &remnant) {
            if !seen.insert(component.clone().into_boxed_slice()) {
                continue;
            }
            if survivors.contains(component.as_slice()) {
                continue;
            }
            let candidate = rebuild(db, component);
            // Maximality probe: a candidate that grows was (and remains)
            // subsumed by an existing result — extend_to_maximal reaches
            // a maximal superset, which either survives in `previous` or
            // is itself a component of another dropped set (or, inside a
            // batched commit, contains a freshly inserted tuple and is
            // found by the batch's multi-seed insert run).
            let extended = extend_to_maximal(db, candidate.clone(), &mut stats);
            if extended.tuples() == candidate.tuples() {
                restored.push(candidate);
            }
        }
    }
    DeleteDelta {
        dropped,
        restored,
        stats,
    }
}

/// The net effect of one batched commit (k mutations, one maintenance
/// pass) on the full disjunction.
#[derive(Debug, Clone, Default)]
pub struct BatchDelta {
    /// Previous results that must be retracted: sets touching a removed
    /// tuple, plus sets subsumed by a new maximal set.
    pub retracted: Vec<TupleSet>,
    /// Sets entering the full disjunction: re-derived remnant components
    /// of the retracted sets, plus the maximal sets containing at least
    /// one inserted tuple.
    pub added: Vec<TupleSet>,
    /// Work counters of the (single) maintenance pass.
    pub stats: Stats,
}

/// Computes the full-disjunction delta of one batched commit: all of
/// `inserted` entered the database and all of `removed` left it, in one
/// transaction. `db` must already reflect the whole batch (inserted
/// tuples live, removed tuples tombstoned); `previous` is the
/// materialized full disjunction from *before* the batch.
///
/// This is **one** maintenance pass, not `k`:
///
/// * the deletes are processed as a group ([`delta_delete_many`]) —
///   results touching any removed tuple drop in one scan, remnant
///   components re-derive once;
/// * the inserts are seeded together ([`delta_insert_many`]) — one
///   multi-seed `FDi` run discovers every maximal set containing a new
///   tuple, so overlapping inserts combine without intermediate states;
/// * the returned events are the *net* effect: a set that a singleton
///   replay would have added and then retracted within the batch (say,
///   an insert joining a tuple the same batch deletes) never surfaces,
///   because the maintenance runs against the final database only.
///
/// The remnant-component probes run against the final database, so a
/// component extendable only through an inserted tuple is correctly left
/// to the insert run (which emits the extended maximal set instead).
pub fn delta_batch(
    db: &Database,
    inserted: &[TupleId],
    removed: &[TupleId],
    previous: &[TupleSet],
    cfg: FdConfig,
) -> BatchDelta {
    let del = delta_delete_many(db, removed, previous, cfg);
    let mut stats = del.stats;

    let ins = delta_insert_many(db, inserted, &[], cfg);
    stats.merge(&ins.stats);

    // Only results that survived the delete group can be subsumed by a
    // new maximal set (dropped sets are already being retracted,
    // restored components are maximal in the final database by
    // construction). Computed here by reference — the common one-insert
    // commit must not clone the whole materialized result just to run
    // the subsumption filter.
    let subsumed = previous
        .iter()
        .filter(|prev| !removed.iter().any(|&t| prev.contains(t)))
        .filter(|prev| ins.added.iter().any(|new| prev.is_subset_of(new)))
        .cloned();

    let mut retracted = del.dropped;
    retracted.extend(subsumed);
    let mut added = del.restored;
    added.extend(ins.added);
    BatchDelta {
        retracted,
        added,
        stats,
    }
}

/// Splits a join-consistent member list into its connected components
/// (connectivity over the members' relations, as in Theorem 4.8's
/// auxiliary graph). Members arrive sorted; components come out sorted.
fn connected_components(db: &Database, members: &[TupleId]) -> Vec<Vec<TupleId>> {
    let n = members.len();
    let mut assigned = vec![false; n];
    let mut out = Vec::new();
    for start in 0..n {
        if assigned[start] {
            continue;
        }
        let mut component = vec![start];
        assigned[start] = true;
        let mut frontier = vec![start];
        while let Some(i) = frontier.pop() {
            for j in 0..n {
                if !assigned[j] && db.rels_connected(db.rel_of(members[i]), db.rel_of(members[j])) {
                    assigned[j] = true;
                    component.push(j);
                    frontier.push(j);
                }
            }
        }
        component.sort_unstable();
        out.push(component.into_iter().map(|i| members[i]).collect());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::{canonicalize, FdIter};
    use crate::query::FdQuery;
    use fd_relational::{tourist_database, RelId, Value};

    fn full_disjunction(db: &Database) -> Vec<TupleSet> {
        FdIter::new(db).collect()
    }

    /// Applies a delta to a materialized result list the way a live session
    /// does, so the invariant `apply(delta(FD_old)) == FD_new` is checked
    /// against a from-scratch recomputation.
    fn apply_insert(previous: &[TupleSet], d: &InsertDelta) -> Vec<TupleSet> {
        let mut out: Vec<TupleSet> = previous
            .iter()
            .filter(|s| !d.subsumed.contains(s))
            .cloned()
            .collect();
        out.extend(d.added.iter().cloned());
        canonicalize(out)
    }

    fn apply_delete(previous: &[TupleSet], d: &DeleteDelta) -> Vec<TupleSet> {
        let mut out: Vec<TupleSet> = previous
            .iter()
            .filter(|s| !d.dropped.contains(s))
            .cloned()
            .collect();
        out.extend(d.restored.iter().cloned());
        canonicalize(out)
    }

    #[test]
    fn insert_delta_matches_recomputation_on_tourist() {
        let mut db = tourist_database();
        let before = full_disjunction(&db);
        // A new Accommodations row joining c1 via Country and s1 via City.
        let t = db
            .insert_tuple(
                RelId(1),
                vec![
                    "Canada".into(),
                    "London".into(),
                    "Fairmont".into(),
                    Value::Int(5),
                ],
            )
            .unwrap();
        let d = FdQuery::over(&db).delta_insert(t, &before).unwrap();
        assert!(!d.added.is_empty());
        assert!(d.added.iter().all(|s| s.contains(t)));
        assert_eq!(
            apply_insert(&before, &d),
            canonicalize(full_disjunction(&db))
        );
    }

    #[test]
    fn insert_delta_subsumes_swallowed_results() {
        // P(A), Q(A, B): inserting the matching Q row swallows {p1}.
        let mut b = fd_relational::DatabaseBuilder::new();
        b.relation("P", &["A"]).row([1]);
        b.relation("Q", &["A", "B"]);
        let mut db = b.build().unwrap();
        let before = full_disjunction(&db);
        assert_eq!(before.len(), 1); // {p1}
        let t = db.insert_tuple(RelId(1), vec![1.into(), 2.into()]).unwrap();
        let d = FdQuery::over(&db).delta_insert(t, &before).unwrap();
        assert_eq!(d.added.len(), 1);
        assert_eq!(d.added[0].len(), 2);
        assert_eq!(d.subsumed.len(), 1);
        assert_eq!(
            apply_insert(&before, &d),
            canonicalize(full_disjunction(&db))
        );
    }

    #[test]
    fn delete_delta_restores_fragments() {
        let mut db = tourist_database();
        let before = full_disjunction(&db);
        // Delete a2 (the London Ramada): {c1, a2, s1} dies; {c1, s1} must
        // resurface (a1 conflicts with s1 on City, so it is maximal).
        db.remove_tuple(TupleId(4)).unwrap();
        let d = FdQuery::over(&db)
            .delta_delete(TupleId(4), &before)
            .unwrap();
        assert_eq!(d.dropped.len(), 1);
        assert!(d
            .restored
            .iter()
            .any(|s| s.tuples() == [TupleId(0), TupleId(6)]));
        assert_eq!(
            apply_delete(&before, &d),
            canonicalize(full_disjunction(&db))
        );
    }

    #[test]
    fn delete_delta_drops_without_restoring_when_fragments_extend() {
        let mut db = tourist_database();
        let before = full_disjunction(&db);
        // Delete s2 (Mount Logan): {c1, s2} dies; the fragment {c1} grows
        // into surviving results, so nothing resurfaces.
        db.remove_tuple(TupleId(7)).unwrap();
        let d = FdQuery::over(&db)
            .delta_delete(TupleId(7), &before)
            .unwrap();
        assert_eq!(d.dropped.len(), 1);
        assert!(d.restored.is_empty());
        assert_eq!(
            apply_delete(&before, &d),
            canonicalize(full_disjunction(&db))
        );
    }

    #[test]
    fn insert_then_delete_round_trips() {
        let mut db = tourist_database();
        let before = canonicalize(full_disjunction(&db));
        let t = db
            .insert_tuple(RelId(0), vec!["Chile".into(), "arid".into()])
            .unwrap();
        let ins = FdQuery::over(&db).delta_insert(t, &before).unwrap();
        let mid = apply_insert(&before, &ins);
        db.remove_tuple(t).unwrap();
        let del = FdQuery::over(&db).delta_delete(t, &mid).unwrap();
        assert_eq!(apply_delete(&mid, &del), before);
    }

    #[test]
    fn insert_delta_emits_no_duplicates_and_no_nonmaximal_sets() {
        let mut db = tourist_database();
        let before = full_disjunction(&db);
        let t = db
            .insert_tuple(
                RelId(2),
                vec!["Canada".into(), "Toronto".into(), "CN Tower".into()],
            )
            .unwrap();
        let d = FdQuery::over(&db).delta_insert(t, &before).unwrap();
        for (i, a) in d.added.iter().enumerate() {
            for (j, b) in d.added.iter().enumerate() {
                if i != j {
                    assert_ne!(a.tuples(), b.tuples(), "duplicate emission");
                    assert!(!a.is_subset_of(b), "non-maximal emission {a} ⊆ {b}");
                }
            }
        }
        assert_eq!(
            apply_insert(&before, &d),
            canonicalize(full_disjunction(&db))
        );
    }

    /// Applies a batch delta the way a session commit does.
    fn apply_batch_delta(previous: &[TupleSet], d: &BatchDelta) -> Vec<TupleSet> {
        let mut out: Vec<TupleSet> = previous
            .iter()
            .filter(|s| !d.retracted.contains(s))
            .cloned()
            .collect();
        out.extend(d.added.iter().cloned());
        canonicalize(out)
    }

    #[test]
    fn multi_seed_insert_matches_recomputation() {
        let mut db = tourist_database();
        let before = full_disjunction(&db);
        // Two overlapping fresh tuples: a new hotel and a new site that
        // join each other (both in London, Canada) *and* existing tuples.
        let t1 = db
            .insert_tuple(
                RelId(1),
                vec![
                    "Canada".into(),
                    "London".into(),
                    "Fairmont".into(),
                    Value::Int(5),
                ],
            )
            .unwrap();
        let t2 = db
            .insert_tuple(
                RelId(2),
                vec!["Canada".into(), "London".into(), "Storybook Gardens".into()],
            )
            .unwrap();
        let d = delta_insert_many(&db, &[t1, t2], &before, FdConfig::default());
        assert!(d.added.iter().all(|s| s.contains(t1) || s.contains(t2)));
        assert!(
            d.added.iter().any(|s| s.contains(t1) && s.contains(t2)),
            "overlapping seeds must combine in one run"
        );
        // No duplicates, no non-maximal emissions.
        for (i, a) in d.added.iter().enumerate() {
            for (j, b) in d.added.iter().enumerate() {
                if i != j {
                    assert_ne!(a.tuples(), b.tuples(), "duplicate emission");
                    assert!(!a.is_subset_of(b), "non-maximal emission {a} ⊆ {b}");
                }
            }
        }
        assert_eq!(
            apply_insert(&before, &d),
            canonicalize(full_disjunction(&db))
        );
    }

    #[test]
    fn grouped_delete_matches_recomputation() {
        let mut db = tourist_database();
        let before = full_disjunction(&db);
        // Delete a1 and a2 together: {c1, a1} and {c1, a2, s1} die;
        // {c1, s1} resurfaces once (not once per delete).
        db.remove_tuple(TupleId(3)).unwrap();
        db.remove_tuple(TupleId(4)).unwrap();
        let d = delta_delete_many(&db, &[TupleId(3), TupleId(4)], &before, FdConfig::default());
        assert_eq!(d.dropped.len(), 2);
        assert_eq!(
            d.restored
                .iter()
                .filter(|s| s.tuples() == [TupleId(0), TupleId(6)])
                .count(),
            1
        );
        assert_eq!(
            apply_delete(&before, &d),
            canonicalize(full_disjunction(&db))
        );
    }

    #[test]
    fn batch_delta_matches_recomputation_and_nets_out_intermediates() {
        let mut db = tourist_database();
        let before = full_disjunction(&db);
        // One transaction: delete c1, insert a hotel that would have
        // joined c1. A singleton replay (insert first) would add a set
        // containing both and retract it one step later; the batch's
        // single pass must never surface it.
        let t = db
            .insert_tuple(
                RelId(1),
                vec![
                    "Canada".into(),
                    "London".into(),
                    "Fairmont".into(),
                    Value::Int(5),
                ],
            )
            .unwrap();
        db.remove_tuple(TupleId(0)).unwrap();
        let d = delta_batch(&db, &[t], &[TupleId(0)], &before, FdConfig::default());
        assert!(
            d.added.iter().all(|s| !s.contains(TupleId(0))),
            "no event may mention the deleted tuple"
        );
        assert!(d.added.iter().any(|s| s.contains(t)));
        assert_eq!(
            apply_batch_delta(&before, &d),
            canonicalize(full_disjunction(&db))
        );
    }

    #[test]
    fn engines_and_block_modes_agree_on_deltas() {
        let mut db = tourist_database();
        let before = full_disjunction(&db);
        let t = db
            .insert_tuple(
                RelId(1),
                vec!["UK".into(), "London".into(), "Savoy".into(), 5.into()],
            )
            .unwrap();
        let base: Vec<Vec<TupleId>> = {
            let d = FdQuery::over(&db).delta_insert(t, &before).unwrap();
            canonicalize(d.added)
                .iter()
                .map(|s| s.tuples().to_vec())
                .collect()
        };
        for engine in [crate::StoreEngine::Scan, crate::StoreEngine::Indexed] {
            for page_size in [None, Some(2), Some(64)] {
                let mut q = FdQuery::over(&db).engine(engine);
                if let Some(ps) = page_size {
                    q = q.page_size(ps);
                }
                let d = q.delta_insert(t, &before).unwrap();
                let got: Vec<Vec<TupleId>> = canonicalize(d.added)
                    .iter()
                    .map(|s| s.tuples().to_vec())
                    .collect();
                assert_eq!(base, got, "engine {engine:?}, pages {page_size:?}");
            }
        }
    }
}
