//! The `Complete` and `Incomplete` lists of `INCREMENTALFD` (Fig. 1) and
//! the rank-ordered `Incomplete_i` queues of `PRIORITYINCREMENTALFD`
//! (Fig. 3).
//!
//! The paper stores the lists as linked lists and scans them linearly;
//! its Section 7 then recommends hashing the tuple sets by their tuple
//! from `Ri` — every merge or containment candidate necessarily shares
//! that *root tuple*, because a valid tuple set holds at most one tuple
//! per relation. Both engines are provided behind one interface so the
//! ablation benchmark (experiment E10) can compare them; they produce
//! identical results and differ only in scan work.
//!
//! Both `Incomplete` disciplines implement [`Frontier`], the interface the
//! one `GETNEXTRESULT` routine ([`crate::getnext`]) pops from, merges into
//! and appends to.

use crate::jcc::try_union;
use crate::stats::Stats;
use crate::tupleset::TupleSet;
use fd_relational::fxhash::{FxHashMap, FxHashSet};
use fd_relational::{Database, TupleId};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// An `Incomplete` list as the `GETNEXTRESULT` routine uses it: the FIFO
/// of Fig. 1 or a rank heap of Fig. 3.
pub(crate) trait Frontier {
    /// Fig. 2 line 1: removes the next tuple set and its root.
    fn pop(&mut self, stats: &mut Stats) -> Option<(TupleId, TupleSet)>;

    /// Fig. 2 line 18: appends `set`, rooted at `root`.
    fn push(&mut self, root: TupleId, set: TupleSet, stats: &mut Stats);

    /// Fig. 2 lines 14–15: replaces the first pending `S` for which
    /// `union(S, T′)` succeeds by that union; true when one did. Merge
    /// partners share the root tuple, which the indexed engine exploits.
    fn try_merge(
        &mut self,
        root: TupleId,
        t_prime: &TupleSet,
        union: impl FnMut(&TupleSet, &TupleSet, &mut Stats) -> Option<TupleSet>,
        stats: &mut Stats,
    ) -> bool;
}

/// Which store implementation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreEngine {
    /// Linear scans over a list — the paper's Fig. 1/2 data structure.
    Scan,
    /// Hash index keyed by the root (`Ri`) tuple — Section 7's refinement.
    #[default]
    Indexed,
}

/// Section 7's root index: root tuple → slots, in insertion order. The
/// scan engine keeps none and walks its whole list instead.
#[derive(Debug)]
struct RootIndex(Option<FxHashMap<TupleId, Vec<u32>>>);

impl RootIndex {
    fn new(engine: StoreEngine) -> Self {
        RootIndex((engine == StoreEngine::Indexed).then(FxHashMap::default))
    }

    fn add(&mut self, root: TupleId, slot: u32) {
        if let Some(map) = &mut self.0 {
            map.entry(root).or_default().push(slot);
        }
    }

    /// Does `f` hold for a slot that may belong to `root`: one of the
    /// root's slots when indexed, else any slot of `list`, in its order?
    fn any(
        &self,
        root: TupleId,
        mut list: impl Iterator<Item = u32>,
        f: impl FnMut(u32) -> bool,
    ) -> bool {
        match &self.0 {
            Some(map) => map
                .get(&root)
                .is_some_and(|slots| slots.iter().copied().any(f)),
            None => list.any(f),
        }
    }
}

/// The `Complete` list: results already printed.
#[derive(Debug)]
pub struct CompleteStore {
    sets: Vec<TupleSet>,
    /// Indices into `sets` by root tuple.
    by_root: RootIndex,
    /// Exact-membership fingerprints (used by the ranked variant's
    /// "already printed?" check, Fig. 3 line 17).
    canon: FxHashSet<Box<[TupleId]>>,
}

impl CompleteStore {
    /// An empty store.
    pub fn new(engine: StoreEngine) -> Self {
        CompleteStore {
            sets: Vec::new(),
            by_root: RootIndex::new(engine),
            canon: FxHashSet::default(),
        }
    }

    /// Number of stored results.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The stored results, in print order.
    pub fn sets(&self) -> &[TupleSet] {
        &self.sets
    }

    /// Inserts a printed result. `roots` are the tuples under which the
    /// set should be discoverable — for `INCREMENTALFD(R, i)` that is the
    /// set's `Ri` tuple; the ranked variant registers every member (its
    /// `Complete` list is shared by all `n` queues).
    pub fn insert(&mut self, set: TupleSet, roots: &[TupleId]) {
        let idx = self.sets.len() as u32;
        self.canon.insert(set.tuples().into());
        for &r in roots {
            self.by_root.add(r, idx);
        }
        self.sets.push(set);
    }

    /// Fig. 2 line 11: is `t` contained in some stored result? `root` is
    /// `t`'s tuple from `Ri`; any superset must also contain it.
    pub fn contains_superset(&self, t: &TupleSet, root: TupleId, stats: &mut Stats) -> bool {
        let all = 0..self.sets.len() as u32;
        self.by_root.any(root, all, |i| {
            stats.complete_scans += 1;
            t.is_subset_of(&self.sets[i as usize])
        })
    }

    /// Fig. 3 line 17: has exactly this set been printed already?
    pub fn contains_exact(&self, tuples: &[TupleId]) -> bool {
        self.canon.contains(tuples)
    }
}

/// The `Incomplete` list: tuple sets awaiting extension.
///
/// **Ordering.** Table 3 of the paper pins the list discipline down: the
/// sets created during one `GETNEXTRESULT` call are placed *in front of*
/// the older entries, preserving their creation order (Iteration 2 pops
/// `{c1,a2,s1}` — created in Iteration 1 — while `{c2}` from the
/// initialization still waits). We reproduce that exactly: pushes
/// accumulate in a batch; the batch is spliced onto the front of the list
/// when the next `pop` happens. Correctness does not depend on the order
/// (Theorem 4.2 holds for any), but the trace and the delay profile do.
#[derive(Debug)]
pub struct IncompleteQueue {
    /// Slot storage; `None` marks popped slots (stable indices keep the
    /// root index valid without rebuilds).
    slots: Vec<Option<(TupleId, TupleSet)>>,
    /// Older entries, front to back.
    order: VecDeque<u32>,
    /// Entries pushed since the last pop, in creation order; logically
    /// these precede `order`.
    batch: Vec<u32>,
    /// Slots by root tuple (live or dead; filtered on use).
    by_root: RootIndex,
    live: usize,
}

impl IncompleteQueue {
    /// An empty queue.
    pub fn new(engine: StoreEngine) -> Self {
        IncompleteQueue {
            slots: Vec::new(),
            order: VecDeque::new(),
            batch: Vec::new(),
            by_root: RootIndex::new(engine),
            live: 0,
        }
    }

    /// Number of pending tuple sets.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Adds a tuple set rooted at `root` (its tuple from `Ri`) to the
    /// current batch.
    pub fn push(&mut self, root: TupleId, set: TupleSet, stats: &mut Stats) {
        stats.inserts += 1;
        let slot = self.slots.len() as u32;
        self.slots.push(Some((root, set)));
        self.batch.push(slot);
        self.by_root.add(root, slot);
        self.live += 1;
    }

    /// Fig. 2 line 1: removes the first tuple set (splicing the pending
    /// batch to the front first).
    pub fn pop(&mut self) -> Option<(TupleId, TupleSet)> {
        for slot in self.batch.drain(..).rev() {
            self.order.push_front(slot);
        }
        while let Some(slot) = self.order.pop_front() {
            if let Some(entry) = self.slots[slot as usize].take() {
                self.live -= 1;
                return Some(entry);
            }
        }
        None
    }

    /// Fig. 2 lines 14–15 for exact tuple sets: finds a stored `S` with
    /// `JCC(S ∪ T′)` and replaces it by the union, preserving its queue
    /// position. Returns true when a merge happened.
    pub fn try_merge(
        &mut self,
        db: &Database,
        root: TupleId,
        t_prime: &TupleSet,
        stats: &mut Stats,
    ) -> bool {
        Frontier::try_merge(
            self,
            root,
            t_prime,
            |s, t, st| try_union(db, s, t, st),
            stats,
        )
    }

    /// Iterates live entries in logical (pop) order — pending batch first,
    /// then older entries. Used by trace snapshots and the initialization
    /// strategies.
    pub fn iter(&self) -> impl Iterator<Item = &TupleSet> {
        self.batch
            .iter()
            .chain(self.order.iter())
            .filter_map(move |&slot| self.slots[slot as usize].as_ref().map(|(_, s)| s))
    }
}

impl Frontier for IncompleteQueue {
    fn pop(&mut self, _: &mut Stats) -> Option<(TupleId, TupleSet)> {
        IncompleteQueue::pop(self)
    }

    fn push(&mut self, root: TupleId, set: TupleSet, stats: &mut Stats) {
        IncompleteQueue::push(self, root, set, stats)
    }

    /// The scan engine walks the whole list in logical order (pending
    /// batch first, then older entries); the indexed engine only the
    /// entries of `root`, in creation order.
    fn try_merge(
        &mut self,
        root: TupleId,
        t_prime: &TupleSet,
        mut union: impl FnMut(&TupleSet, &TupleSet, &mut Stats) -> Option<TupleSet>,
        stats: &mut Stats,
    ) -> bool {
        let IncompleteQueue {
            slots,
            order,
            batch,
            by_root,
            ..
        } = self;
        let list = batch.iter().chain(order.iter()).copied();
        by_root.any(root, list, |slot| {
            let Some((_, s)) = &mut slots[slot as usize] else {
                return false;
            };
            stats.incomplete_scans += 1;
            let Some(u) = union(s, t_prime, stats) else {
                return false;
            };
            stats.merges += 1;
            *s = u;
            true
        })
    }
}

/// Total-ordered f64 wrapper for heap priorities (ranks are finite;
/// `total_cmp` makes the order total regardless).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Rank(pub(crate) f64);

impl Eq for Rank {}

impl PartialOrd for Rank {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rank {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A heap entry referencing a queue slot; stale when the slot's
/// generation moved on (merges are increase-key operations, implemented
/// by lazy invalidation). The derived order is the pop order: higher
/// ranks first, then fresher generations, then smaller slots
/// (deterministic "ties broken arbitrarily").
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct HeapItem {
    rank: Rank,
    gen: u32,
    slot: Reverse<u32>,
}

#[derive(Debug)]
struct Entry {
    root: TupleId,
    set: TupleSet,
    gen: u32,
}

/// One `Incomplete_i` of Fig. 3: a max-priority queue of partial tuple
/// sets rooted at tuples of `Ri`. Merges re-rank their entry lazily.
#[derive(Debug)]
pub(crate) struct LazyQueue {
    slots: Vec<Option<Entry>>,
    heap: BinaryHeap<HeapItem>,
    by_root: RootIndex,
}

impl LazyQueue {
    pub(crate) fn new(engine: StoreEngine) -> Self {
        LazyQueue {
            slots: Vec::new(),
            heap: BinaryHeap::new(),
            by_root: RootIndex::new(engine),
        }
    }

    pub(crate) fn push(&mut self, root: TupleId, set: TupleSet, rank: f64, stats: &mut Stats) {
        stats.heap_pushes += 1;
        let slot = self.slots.len() as u32;
        self.slots.push(Some(Entry { root, set, gen: 0 }));
        self.by_root.add(root, slot);
        self.heap.push(HeapItem {
            rank: Rank(rank),
            gen: 0,
            slot: Reverse(slot),
        });
    }

    fn item_valid(&self, item: &HeapItem) -> bool {
        matches!(&self.slots[item.slot.0 as usize], Some(e) if e.gen == item.gen)
    }

    /// Rank of the highest valid entry, discarding stale heap items.
    pub(crate) fn peek_rank(&mut self, stats: &mut Stats) -> Option<f64> {
        while let Some(top) = self.heap.peek() {
            if self.item_valid(top) {
                return Some(top.rank.0);
            }
            self.heap.pop();
            stats.heap_pops += 1;
        }
        None
    }

    /// Removes and returns the highest valid entry.
    pub(crate) fn pop(&mut self, stats: &mut Stats) -> Option<(TupleId, TupleSet)> {
        while let Some(item) = self.heap.pop() {
            stats.heap_pops += 1;
            if self.item_valid(&item) {
                let entry = self.slots[item.slot.0 as usize].take().expect("valid slot");
                return Some((entry.root, entry.set));
            }
        }
        None
    }

    /// Fig. 2 lines 14–15 in queue form: merges `t_prime` into the first
    /// live entry (all slots in slot order for the scan engine, the
    /// entries of `root` for the indexed one) whose union succeeds, and
    /// re-ranks it by `rank_of` (lazy increase-key).
    pub(crate) fn try_merge(
        &mut self,
        root: TupleId,
        t_prime: &TupleSet,
        mut union: impl FnMut(&TupleSet, &TupleSet, &mut Stats) -> Option<TupleSet>,
        mut rank_of: impl FnMut(&TupleSet, &mut Stats) -> f64,
        stats: &mut Stats,
    ) -> bool {
        let LazyQueue {
            slots,
            heap,
            by_root,
        } = self;
        let all = 0..slots.len() as u32;
        by_root.any(root, all, |slot| {
            let Some(entry) = &mut slots[slot as usize] else {
                return false;
            };
            stats.incomplete_scans += 1;
            let Some(u) = union(&entry.set, t_prime, stats) else {
                return false;
            };
            stats.merges += 1;
            entry.gen += 1;
            let rank = rank_of(&u, stats);
            entry.set = u;
            heap.push(HeapItem {
                rank: Rank(rank),
                gen: entry.gen,
                slot: Reverse(slot),
            });
            stats.heap_pushes += 1;
            true
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jcc::rebuild;
    use fd_relational::tourist_database;

    const C1: TupleId = TupleId(0);
    const C2: TupleId = TupleId(1);
    const A2: TupleId = TupleId(4);
    const S1: TupleId = TupleId(6);

    fn both_engines() -> [StoreEngine; 2] {
        [StoreEngine::Scan, StoreEngine::Indexed]
    }

    #[test]
    fn complete_superset_lookup() {
        let db = tourist_database();
        for engine in both_engines() {
            let mut stats = Stats::new();
            let mut complete = CompleteStore::new(engine);
            let big = rebuild(&db, vec![C1, A2, S1]);
            complete.insert(big, &[C1]);

            let small = rebuild(&db, vec![C1, S1]);
            assert!(complete.contains_superset(&small, C1, &mut stats));

            let other = rebuild(&db, vec![C2]);
            assert!(!complete.contains_superset(&other, C2, &mut stats));
        }
    }

    #[test]
    fn complete_exact_lookup() {
        let db = tourist_database();
        let mut complete = CompleteStore::new(StoreEngine::Indexed);
        let set = rebuild(&db, vec![C1, A2]);
        complete.insert(set, &[C1]);
        assert!(complete.contains_exact(&[C1, A2]));
        assert!(!complete.contains_exact(&[C1]));
    }

    #[test]
    fn queue_is_fifo() {
        let db = tourist_database();
        for engine in both_engines() {
            let mut stats = Stats::new();
            let mut q = IncompleteQueue::new(engine);
            q.push(C1, TupleSet::singleton(&db, C1), &mut stats);
            q.push(C2, TupleSet::singleton(&db, C2), &mut stats);
            assert_eq!(q.len(), 2);
            assert_eq!(q.pop().unwrap().0, C1);
            assert_eq!(q.pop().unwrap().0, C2);
            assert!(q.pop().is_none());
            assert!(q.is_empty());
        }
    }

    #[test]
    fn merge_replaces_in_place_keeping_order() {
        let db = tourist_database();
        for engine in both_engines() {
            let mut stats = Stats::new();
            let mut q = IncompleteQueue::new(engine);
            // Example 4.1: Incomplete holds {c1,a2}, {c2}; merging
            // T′ = {c1,s1} replaces {c1,a2} with {c1,a2,s1} in place.
            q.push(C1, rebuild(&db, vec![C1, A2]), &mut stats);
            q.push(C2, TupleSet::singleton(&db, C2), &mut stats);

            let t_prime = rebuild(&db, vec![C1, S1]);
            assert!(q.try_merge(&db, C1, &t_prime, &mut stats));
            assert_eq!(stats.merges, 1);

            let (root, merged) = q.pop().unwrap();
            assert_eq!(root, C1);
            assert_eq!(merged.tuples(), &[C1, A2, S1]);
            assert_eq!(q.pop().unwrap().0, C2);
        }
    }

    #[test]
    fn merge_fails_without_candidates() {
        let db = tourist_database();
        for engine in both_engines() {
            let mut stats = Stats::new();
            let mut q = IncompleteQueue::new(engine);
            q.push(C2, TupleSet::singleton(&db, C2), &mut stats);
            let t_prime = rebuild(&db, vec![C1, S1]);
            assert!(!q.try_merge(&db, C1, &t_prime, &mut stats));
        }
    }

    #[test]
    fn indexed_engine_scans_fewer_entries() {
        let db = tourist_database();
        let mut scan_stats = Stats::new();
        let mut idx_stats = Stats::new();
        let t_prime = rebuild(&db, vec![C1, S1]);

        let mut q = IncompleteQueue::new(StoreEngine::Scan);
        q.push(C2, TupleSet::singleton(&db, C2), &mut scan_stats);
        q.push(C1, rebuild(&db, vec![C1, A2]), &mut scan_stats);
        assert!(q.try_merge(&db, C1, &t_prime, &mut scan_stats));

        let mut q = IncompleteQueue::new(StoreEngine::Indexed);
        q.push(C2, TupleSet::singleton(&db, C2), &mut idx_stats);
        q.push(C1, rebuild(&db, vec![C1, A2]), &mut idx_stats);
        assert!(q.try_merge(&db, C1, &t_prime, &mut idx_stats));

        assert!(idx_stats.incomplete_scans < scan_stats.incomplete_scans);
    }

    #[test]
    fn popped_slots_are_skipped() {
        let db = tourist_database();
        let mut stats = Stats::new();
        let mut q = IncompleteQueue::new(StoreEngine::Indexed);
        q.push(C1, rebuild(&db, vec![C1, A2]), &mut stats);
        let _ = q.pop();
        // Merge must not resurrect the popped slot.
        let t_prime = rebuild(&db, vec![C1, S1]);
        assert!(!q.try_merge(&db, C1, &t_prime, &mut stats));
        assert_eq!(q.iter().count(), 0);
    }
}
