//! Parallel computation of full disjunctions — batch *and* ranked.
//!
//! **Batch.** `FD(R) = ⋃ᵢ FDi(R)` and the `n` runs of `INCREMENTALFD`
//! are mutually independent (Section 4) — an embarrassingly parallel
//! structure the paper's Section 7 block/DBMS discussion gestures at.
//! Each worker computes one or more `FDi` runs; a result is *owned* by
//! the run of its smallest member relation, so the per-run outputs are
//! disjoint and no cross-thread deduplication is needed.
//!
//! **Ranked.** `PRIORITYINCREMENTALFD` shards the same way: a worker
//! seeds the priority queues `Incomplete_i` for a contiguous slice of the
//! relations and runs the shared `GETNEXTRESULT` body
//! (`RankedFdIter::for_relations`), enumerating exactly the answers that
//! contain a tuple of one of its relations. A worker's *raw* emission is
//! not globally rank-ordered — Lemma 5.4's order guarantee relies on the
//! rank witness of an answer (its c-determining subset) sitting in *some*
//! queue, and that queue may belong to another shard — so each worker
//! materializes its shard, sorts it into the canonical ranked order, and
//! the per-worker streams are then k-way heap-merged ([`RankedMerge`])
//! into one globally ordered stream — the rank-preserving merge of
//! partial ranked streams that the any-k literature (Tziavelis et al.;
//! Deep & Koutris) uses to parallelize ranked enumeration without losing
//! the order guarantee. Two properties make the merge exact:
//!
//! * every worker extends its sets to maximality against the *whole*
//!   database, so shard outputs are genuine members of `FD(R)` and the
//!   only cross-worker redundancy is an **exact duplicate** (a set with
//!   member relations in several shards) — never a subsumed set;
//! * duplicates carry identical `(rank, members)` keys, so under the
//!   merge's canonical order (rank descending, member ids ascending)
//!   they surface back to back and one-item lookbehind suppresses them.
//!
//! The merged order is exactly the canonical ranked order the sequential
//! builder plan emits (`FdQuery`'s tie-normalized stream), so
//! `.parallel(n)` is output-identical to the sequential plan for every
//! `n` — sets *and* order.
//!
//! **Bounds.** `.top_k(k)` / `.threshold(τ)` are applied to each sorted
//! shard before the merge (first `k` answers plus the k-th rank's tie
//! group — the canonical global cut may still need any of those; nothing
//! below τ), which bounds the merge, and again exactly at the merged
//! stream. The workers themselves still enumerate their full shards:
//! Theorem 5.5's "top-k in poly(k)" early exit belongs to the sequential
//! plan, the parallel plan instead splits the enumeration across cores.

use crate::incremental::{FdConfig, Run};
use crate::lists::Rank;
use crate::model::JoinModel;
use crate::priority::RankedRun;
use crate::ranking::{canonical_rank_order, MonotoneCDetermined};
use crate::stats::Stats;
use crate::tupleset::TupleSet;
use fd_relational::{Database, RelId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Runs `work` over at most `threads` contiguous shards of the `n`
/// relation indices, on scoped threads when there is more than one
/// shard. Returns the shard outputs in shard order, with the workers'
/// merged counters and page counts.
fn run_sharded<T: Send>(
    n: usize,
    threads: usize,
    work: impl Fn(Range<usize>) -> (T, Stats, u64) + Sync,
) -> (Vec<T>, Stats, u64) {
    let threads = threads.max(1).min(n.max(1));
    let chunk = n.div_ceil(threads);
    let shards: Vec<Range<usize>> = (0..threads)
        .map(|w| w * chunk..((w + 1) * chunk).min(n))
        .filter(|rels| !rels.is_empty())
        .collect();
    let collected: Vec<(T, Stats, u64)> = if shards.len() <= 1 {
        shards.into_iter().map(&work).collect()
    } else {
        let work = &work;
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|rels| scope.spawn(move || work(rels)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    };
    let (mut outs, mut stats, mut pages) = (Vec::new(), Stats::new(), 0);
    for (out, s, p) in collected {
        outs.push(out);
        stats.merge(&s);
        pages += p;
    }
    (outs, stats, pages)
}

/// Computes `FD(R)` — or, with the approximate join model, `AFD(R, A, τ)`
/// — using up to `threads` workers. Results are returned in canonical
/// order together with the merged statistics and the total pages fetched
/// (block-based execution only). With `threads == 1` this degenerates to
/// the sequential algorithm.
pub(crate) fn parallel_full_disjunction<M: JoinModel + Sync>(
    db: &Database,
    model: &M,
    cfg: FdConfig,
    threads: usize,
) -> (Vec<TupleSet>, Stats, u64) {
    let (outs, stats, pages) = run_sharded(db.num_relations(), threads, |rels| {
        let (mut out, mut stats, mut pages) = (Vec::new(), Stats::new(), 0);
        for rel_idx in rels {
            let ri = RelId(rel_idx as u16);
            let mut run = Run::singletons(db, ri, model, cfg);
            while let Some(set) = run.step(model) {
                // Ownership rule: emit a set only in the run of its
                // smallest member relation.
                if !set.has_tuple_before(db, ri) {
                    out.push(set);
                }
            }
            stats.merge(run.stats());
            pages += run.pages_read();
        }
        (out, stats, pages)
    });
    let mut results: Vec<TupleSet> = outs.into_iter().flatten().collect();
    results.sort();
    (results, stats, pages)
}

/// The `.top_k` / `.threshold` bounds a ranked worker can exploit to cut
/// its shard stream early without affecting the merged result.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RankedCut {
    /// Global `.top_k(k)`: a worker never contributes an answer beyond
    /// its own first `k` plus the k-th rank's tie group.
    pub top_k: Option<usize>,
    /// Global `.threshold(τ)`: ranks below τ can never qualify.
    pub min_rank: Option<f64>,
}

/// Trims a canonically sorted shard to the answers that could still
/// appear in the bounded, canonically tie-broken global output: the
/// first `k` plus the entire tie group of the k-th rank (the global cut
/// may select any of its members), and nothing below τ.
fn apply_cut_sorted(out: &mut Vec<(TupleSet, f64)>, cut: RankedCut) {
    if let Some(tau) = cut.min_rank {
        if let Some(first_below) = out.iter().position(|(_, r)| *r < tau) {
            out.truncate(first_below);
        }
    }
    if let Some(k) = cut.top_k {
        if k == 0 {
            out.clear();
        } else if out.len() > k {
            let kth = out[k - 1].1;
            let keep = out[k..]
                .iter()
                .take_while(|(_, r)| r.total_cmp(&kth).is_eq())
                .count();
            out.truncate(k + keep);
        }
    }
}

/// Ranked `FD(R)` — or ranked `AFD(R, A, τ)` — across up to `threads`
/// workers: shards the seed relations, runs one restricted
/// `PRIORITYINCREMENTALFD` per shard, and returns the k-way merge of the
/// per-worker streams plus merged statistics and page counts.
pub(crate) fn parallel_ranked<F, M>(
    db: &Database,
    f: &F,
    model: &M,
    cfg: FdConfig,
    threads: usize,
    cut: RankedCut,
) -> (RankedMerge, Stats, u64)
where
    F: MonotoneCDetermined + Sync,
    M: JoinModel + Sync,
{
    let (streams, stats, pages) = run_sharded(db.num_relations(), threads, |rels| {
        let mut run = RankedRun::new(db, f, model, cfg, rels);
        let mut out: Vec<(TupleSet, f64)> = Vec::new();
        while let Some(pair) = run.step(f, model) {
            out.push(pair);
        }
        // The shared canonical emission order, then the worker's cut.
        out.sort_by(|a, b| canonical_rank_order(a.1, &a.0, b.1, &b.0));
        apply_cut_sorted(&mut out, cut);
        (out, *run.stats(), run.pages_read())
    });
    (RankedMerge::new(streams), stats, pages)
}

/// One head of the k-way merge. The heap is a max-heap, so "greater"
/// means "emitted earlier": higher rank first, then smaller member ids,
/// then lower worker index (pure determinism — equal-content heads are
/// duplicates anyway).
struct MergeHead {
    rank: Rank,
    set: TupleSet,
    src: usize,
}

impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> Ordering {
        // The canonical order says Less = emitted earlier; the max-heap
        // pops Greater first, hence the reverse.
        canonical_rank_order(self.rank.0, &self.set, other.rank.0, &other.set)
            .reverse()
            .then_with(|| other.src.cmp(&self.src))
    }
}

impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for MergeHead {}

/// K-way heap merge of per-worker ranked streams into one globally
/// ordered, duplicate-free stream: rank descending, canonical member
/// order within ties — exactly the sequential builder plan's emission.
///
/// A set whose member relations span several shards is produced by each
/// of them with an identical `(rank, members)` key; such duplicates pop
/// consecutively and are dropped by comparing against the previously
/// emitted set (no global hash set needed).
pub(crate) struct RankedMerge {
    streams: Vec<std::vec::IntoIter<(TupleSet, f64)>>,
    heap: BinaryHeap<MergeHead>,
    last: Option<TupleSet>,
}

impl RankedMerge {
    fn new(worker_outputs: Vec<Vec<(TupleSet, f64)>>) -> Self {
        let mut streams: Vec<_> = worker_outputs.into_iter().map(Vec::into_iter).collect();
        let mut heap = BinaryHeap::with_capacity(streams.len());
        for (src, stream) in streams.iter_mut().enumerate() {
            if let Some((set, rank)) = stream.next() {
                heap.push(MergeHead {
                    rank: Rank(rank),
                    set,
                    src,
                });
            }
        }
        RankedMerge {
            streams,
            heap,
            last: None,
        }
    }

    /// Rank of the next answer (duplicates included — they share the rank
    /// of the answer they duplicate, so bound checks are unaffected).
    pub(crate) fn peek_rank(&self) -> Option<f64> {
        self.heap.peek().map(|h| h.rank.0)
    }

    /// The next globally ranked, deduplicated answer.
    pub(crate) fn next_pair(&mut self) -> Option<(TupleSet, f64)> {
        loop {
            let head = self.heap.pop()?;
            if let Some((set, rank)) = self.streams[head.src].next() {
                self.heap.push(MergeHead {
                    rank: Rank(rank),
                    set,
                    src: head.src,
                });
            }
            if self
                .last
                .as_ref()
                .is_some_and(|l| l.tuples() == head.set.tuples())
            {
                continue; // cross-worker duplicate
            }
            self.last = Some(head.set.clone());
            return Some((head.set, head.rank.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::canonicalize;
    use crate::model::Exact;
    use crate::priority::RankedFdIter;
    use crate::query::FdQuery;
    use crate::ranking::{FMax, ImpScores};
    use fd_relational::tourist_database;

    fn batch(db: &Database) -> Vec<TupleSet> {
        canonicalize(FdQuery::over(db).run().unwrap().into_sets())
    }

    #[test]
    fn parallel_matches_sequential_for_all_thread_counts() {
        let db = tourist_database();
        let base = batch(&db);
        for threads in [1, 2, 3, 8] {
            let (got, stats, _) =
                parallel_full_disjunction(&db, &Exact, FdConfig::default(), threads);
            assert_eq!(base, got, "threads = {threads}");
            assert!(stats.results >= base.len() as u64);
        }
    }

    #[test]
    fn zero_threads_is_clamped() {
        let db = tourist_database();
        let (got, _, _) = parallel_full_disjunction(&db, &Exact, FdConfig::default(), 0);
        assert_eq!(got.len(), 6);
    }

    #[test]
    fn ownership_rule_partitions_results() {
        // Every result appears exactly once even with one thread per
        // relation.
        let db = tourist_database();
        let (got, _, _) = parallel_full_disjunction(&db, &Exact, FdConfig::default(), 3);
        let mut canon: Vec<_> = got.iter().map(|s| s.tuples().to_vec()).collect();
        canon.dedup();
        assert_eq!(canon.len(), got.len());
    }

    #[test]
    fn ranked_merge_is_ordered_duplicate_free_and_complete() {
        let db = tourist_database();
        let imp = ImpScores::from_fn(&db, |t| (t.0 % 4) as f64);
        let f = FMax::new(&imp);
        let base: Vec<TupleSet> = canonicalize(
            RankedFdIter::new(&db, &f)
                .map(|(s, _)| s)
                .collect::<Vec<_>>(),
        );
        for threads in [1, 2, 3, 8] {
            let (mut merge, stats, _) = parallel_ranked(
                &db,
                &f,
                &Exact,
                FdConfig::default(),
                threads,
                RankedCut::default(),
            );
            let mut out = Vec::new();
            while let Some(pair) = merge.next_pair() {
                out.push(pair);
            }
            for w in out.windows(2) {
                assert!(w[0].1 >= w[1].1, "threads = {threads}: order violated");
                if w[0].1 == w[1].1 {
                    assert!(w[0].0 < w[1].0, "threads = {threads}: tie order");
                }
            }
            let got = canonicalize(out.into_iter().map(|(s, _)| s).collect());
            assert_eq!(base, got, "threads = {threads}");
            assert!(stats.results >= base.len() as u64);
        }
    }

    #[test]
    fn worker_cut_preserves_the_global_top_k() {
        let db = tourist_database();
        let imp = ImpScores::from_fn(&db, |t| (t.0 % 3) as f64); // heavy ties
        let f = FMax::new(&imp);
        let (mut full, _, _) = parallel_ranked(
            &db,
            &f,
            &Exact,
            FdConfig::default(),
            1,
            RankedCut::default(),
        );
        let mut want = Vec::new();
        while let Some(p) = full.next_pair() {
            want.push(p);
        }
        for k in 0..=want.len() + 1 {
            for threads in [1, 2, 3] {
                let cut = RankedCut {
                    top_k: Some(k),
                    min_rank: None,
                };
                let (mut merge, _, _) =
                    parallel_ranked(&db, &f, &Exact, FdConfig::default(), threads, cut);
                let mut got = Vec::new();
                while let Some(p) = merge.next_pair() {
                    got.push(p);
                    if got.len() == k {
                        break;
                    }
                }
                assert_eq!(
                    got,
                    want[..k.min(want.len())].to_vec(),
                    "k = {k}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn empty_database_yields_empty_streams() {
        let db = fd_relational::DatabaseBuilder::new().build().unwrap();
        let (sets, _, _) = parallel_full_disjunction(&db, &Exact, FdConfig::default(), 4);
        assert!(sets.is_empty());
        let imp = ImpScores::uniform(&db, 1.0);
        let f = FMax::new(&imp);
        let (mut merge, _, _) = parallel_ranked(
            &db,
            &f,
            &Exact,
            FdConfig::default(),
            4,
            RankedCut::default(),
        );
        assert!(merge.next_pair().is_none());
        assert!(merge.peek_rank().is_none());
    }
}
