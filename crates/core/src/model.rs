//! Join models: the one place where the paper's algorithms differ in
//! *what* may be joined.
//!
//! `INCREMENTALFD` (Fig. 2) and `APPROXINCREMENTALFD` (Figs. 5–6) run the
//! same `GETNEXTRESULT` skeleton; the starred lines of Figs. 5–6 only swap
//! the join test `JCC(·)` for `A(·) ≥ τ`. A [`JoinModel`] is that test,
//! together with the operations built on it:
//!
//! * [`Exact`] — the zero-sized `JCC` model (the primitives of
//!   [`crate::jcc`]);
//! * [`Approx`] — an acceptable approximate join function `A` with its
//!   threshold `τ` (Section 6).
//!
//! `GETNEXTRESULT` ([`crate::getnext::get_next_result`]), the maximal
//! extension, the bounded-set enumeration of Fig. 3 and the merge
//! fixpoint are written once, generic over the model.

use crate::approx::{approx_union, ApproxJoin};
use crate::jcc::{add_tuple, can_add, maximal_subset_with, rebuild, try_union};
use crate::stats::Stats;
use crate::tupleset::TupleSet;
use fd_relational::{Database, RelId, TupleId};

/// The join predicate of one algorithm family, and the tuple-set
/// operations that depend on it.
pub(crate) trait JoinModel {
    /// Visit order of the bounded-set enumeration (Fig. 3 line 4, which
    /// leaves it open). It decides the heap slot order of the seeds and
    /// so which of several equal-rank answers a ranked stream pops first:
    /// ascending ids for the exact model, descending for the approximate
    /// one.
    const ASCENDING: bool;

    /// Fig. 1 line 3 / Fig. 5 line 3*: may the singleton `{t}` seed
    /// `Incomplete`?
    fn admits(&self, db: &Database, t: TupleId, stats: &mut Stats) -> bool;

    /// Calls `f` on the tuples of `rel` that may extend `set` (a superset
    /// of those [`grow`](Self::grow) accepts), in ascending id order,
    /// until it returns true.
    fn scan_candidates(
        &self,
        db: &Database,
        rel: RelId,
        set: &TupleSet,
        f: impl FnMut(TupleId) -> bool,
    );

    /// `set ∪ {t}` when the model accepts it (Fig. 2 line 4 / Fig. 6
    /// line 4*), for `t ∉ set`.
    fn grow(
        &self,
        db: &Database,
        set: &TupleSet,
        t: TupleId,
        stats: &mut Stats,
    ) -> Option<TupleSet>;

    /// Fig. 2 / Fig. 6 line 8: hands every maximal subset `T′` of
    /// `set ∪ {tb}` that contains `tb` to `each`.
    fn maximal_subsets(
        &self,
        db: &Database,
        set: &TupleSet,
        tb: TupleId,
        stats: &mut Stats,
        each: impl FnMut(TupleSet, &mut Stats),
    );

    /// Fig. 2 lines 14–15 and Fig. 3 lines 5–8: `a ∪ b` when the model
    /// accepts the union.
    fn union(
        &self,
        db: &Database,
        a: &TupleSet,
        b: &TupleSet,
        stats: &mut Stats,
    ) -> Option<TupleSet>;
}

/// The exact join model: join consistency and connectivity (`JCC`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Exact;

impl JoinModel for Exact {
    const ASCENDING: bool = true;

    fn admits(&self, _: &Database, _: TupleId, _: &mut Stats) -> bool {
        true
    }

    /// The join-column probe: only tuples agreeing with `set` on every
    /// shared attribute can pass [`can_add`].
    fn scan_candidates(
        &self,
        db: &Database,
        rel: RelId,
        set: &TupleSet,
        f: impl FnMut(TupleId) -> bool,
    ) {
        db.probe(rel, set.bindings()).into_iter().any(f);
    }

    fn grow(
        &self,
        db: &Database,
        set: &TupleSet,
        t: TupleId,
        stats: &mut Stats,
    ) -> Option<TupleSet> {
        can_add(db, set, t, stats).then(|| add_tuple(db, set, t))
    }

    fn maximal_subsets(
        &self,
        db: &Database,
        set: &TupleSet,
        tb: TupleId,
        stats: &mut Stats,
        mut each: impl FnMut(TupleSet, &mut Stats),
    ) {
        // Footnote 3: the maximal JCC subset containing tb is unique.
        let t_prime = maximal_subset_with(db, set, tb, stats);
        each(t_prime, stats);
    }

    fn union(
        &self,
        db: &Database,
        a: &TupleSet,
        b: &TupleSet,
        stats: &mut Stats,
    ) -> Option<TupleSet> {
        try_union(db, a, b, stats)
    }
}

/// The approximate join model `(A, τ)`: a tuple set is acceptable when
/// it holds one tuple per relation, is connected and `A(T) ≥ τ`.
/// Members may disagree on shared attributes, so nothing here relies on
/// binding consistency.
#[derive(Debug, Clone)]
pub struct Approx<A> {
    pub(crate) a: A,
    pub(crate) tau: f64,
}

impl<A: ApproxJoin> Approx<A> {
    /// `(a, τ)`.
    pub(crate) fn new(a: A, tau: f64) -> Self {
        Approx { a, tau }
    }

    /// `A(members) ≥ τ`, counted as one evaluation.
    fn accepts(&self, db: &Database, members: &[TupleId], stats: &mut Stats) -> bool {
        stats.approx_evals += 1;
        self.a.score(db, members) >= self.tau
    }
}

impl<A: ApproxJoin> JoinModel for Approx<A> {
    const ASCENDING: bool = false;

    fn admits(&self, db: &Database, t: TupleId, stats: &mut Stats) -> bool {
        self.accepts(db, &[t], stats)
    }

    /// Every live tuple: approximate members need not agree on values.
    fn scan_candidates(
        &self,
        db: &Database,
        rel: RelId,
        _: &TupleSet,
        f: impl FnMut(TupleId) -> bool,
    ) {
        db.tuples_of(rel).any(f);
    }

    fn grow(
        &self,
        db: &Database,
        set: &TupleSet,
        t: TupleId,
        stats: &mut Stats,
    ) -> Option<TupleSet> {
        let rel = db.rel_of(t);
        if set.tuple_from(db, rel).is_some()
            || !set
                .tuples()
                .iter()
                .any(|&m| db.rels_connected(db.rel_of(m), rel))
        {
            return None;
        }
        let mut members = set.tuples().to_vec();
        members.insert(members.partition_point(|&x| x < t), t);
        self.accepts(db, &members, stats)
            .then(|| rebuild(db, members))
    }

    fn maximal_subsets(
        &self,
        db: &Database,
        set: &TupleSet,
        tb: TupleId,
        stats: &mut Stats,
        mut each: impl FnMut(TupleSet, &mut Stats),
    ) {
        for t_prime in self.a.maximal_subsets(db, set, tb, self.tau, stats) {
            each(t_prime, stats);
        }
    }

    fn union(
        &self,
        db: &Database,
        a: &TupleSet,
        b: &TupleSet,
        stats: &mut Stats,
    ) -> Option<TupleSet> {
        let members = approx_union(db, a, b)?;
        self.accepts(db, &members, stats)
            .then(|| rebuild(db, members))
    }
}
