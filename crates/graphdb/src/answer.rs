//! The sorted-pairs answer representation.
//!
//! The answer to a regular path query is a *set* of node pairs, and the seed
//! stored it as a `BTreeSet<(NodeId, NodeId)>`.  That representation made
//! the parallel evaluator's merge phase its bottleneck: re-inserting every
//! pair of every worker's buffer into a tree costs an allocation-heavy
//! `O(n log n)` with terrible locality, and `parallel_breakdown` measured it
//! at ~40% of the whole parallel wall time.
//!
//! [`SortedPairs`] keeps the same *abstract* contract — an ordered,
//! duplicate-free set of `(source, target)` pairs with the `BTreeSet`-shaped
//! API the rest of the workspace uses (`insert`/`remove`/`contains`/ordered
//! `iter`/`is_subset`) — but stores the pairs in one sorted `Vec`.  Lookups
//! are binary searches, iteration is a slice walk, and bulk construction is
//! where it earns its keep:
//!
//! * [`SortedPairs::from_sorted_runs`] merges the per-chunk runs of the
//!   parallel evaluator without re-hashing or tree insertion.  A run is
//!   sorted by construction and the runs are disjoint — each source node
//!   belongs to exactly one chunk — so the merge compares run *heads* only
//!   and copies whole stretches between them: it never compares inside a
//!   run, never checks for duplicates, and nothing ever sorts a run,
//! * [`SortedPairs::rewrite_rows`] is the write path's one copy: a
//!   [`RowWriter`] copies the set row by row into a vector the caller hands
//!   over — the engine recycles the storage of an extension no reader holds
//!   any more — while the caller rewrites the rows of some sources from
//!   their old ones, in the same pass.  The set itself is only read, so
//!   snapshots sharing it never see it change, and
//! * [`SortedPairs::extend`] sorts the incoming batch once and merges it
//!   in (with an append fast path when the batch lands entirely past the
//!   current tail).
//!
//! Point `insert`/`remove` remain available for the seed-era call sites and
//! tests; they are `O(n)` per call and documented as such.

use crate::graph::NodeId;

/// An ordered, duplicate-free set of `(source, target)` node pairs backed by
/// one sorted `Vec`.
///
/// This is the concrete type behind [`crate::Answer`].  Element order is the
/// natural tuple order, identical to the `BTreeSet` representation it
/// replaced, so iteration order — and therefore every rendered answer and
/// serialized payload — is unchanged.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SortedPairs {
    /// Strictly increasing in tuple order.
    pairs: Vec<(NodeId, NodeId)>,
}

impl SortedPairs {
    /// Creates an empty answer set.
    pub fn new() -> Self {
        SortedPairs { pairs: Vec::new() }
    }

    /// Number of pairs in the set.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Whether `pair` is in the set (binary search, `O(log n)`).
    pub fn contains(&self, pair: &(NodeId, NodeId)) -> bool {
        self.pairs.binary_search(pair).is_ok()
    }

    /// Inserts one pair, returning `true` if it was absent.
    ///
    /// `O(n)` worst case (a memmove of the tail); bulk updates should use
    /// [`SortedPairs::extend`] instead, which merges a whole batch in one
    /// pass.
    pub fn insert(&mut self, pair: (NodeId, NodeId)) -> bool {
        match self.pairs.binary_search(&pair) {
            Ok(_) => false,
            Err(at) => {
                self.pairs.insert(at, pair);
                true
            }
        }
    }

    /// Removes one pair, returning `true` if it was present.
    ///
    /// `O(n)` worst case; bulk deletions should go through
    /// [`SortedPairs::rewrite_rows`].
    pub fn remove(&mut self, pair: &(NodeId, NodeId)) -> bool {
        match self.pairs.binary_search(pair) {
            Ok(at) => {
                self.pairs.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Iterates the pairs in ascending tuple order.
    pub fn iter(&self) -> std::slice::Iter<'_, (NodeId, NodeId)> {
        self.pairs.iter()
    }

    /// The pairs as one sorted slice.
    pub fn as_slice(&self) -> &[(NodeId, NodeId)] {
        &self.pairs
    }

    /// Whether every pair of `self` is in `other` (one merge walk,
    /// `O(n + m)`).
    pub fn is_subset(&self, other: &SortedPairs) -> bool {
        if self.pairs.len() > other.pairs.len() {
            return false;
        }
        let mut theirs = other.pairs.iter();
        'mine: for pair in &self.pairs {
            for candidate in theirs.by_ref() {
                match candidate.cmp(pair) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'mine,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// A writer of `self` with some rows rewritten, into the storage of
    /// `spare` — an extension no reader holds any more, whose pairs are
    /// discarded — when it has room for `self.len()` pairs.  Otherwise it
    /// allocates that and 1/64 more, so the few pairs an insertion adds
    /// rarely make the whole copy move to a doubled block.  `self` is only
    /// read, so a set that published snapshots share stays as they pinned it.
    pub fn rewrite_rows(&self, spare: Option<SortedPairs>) -> RowWriter<'_> {
        let spare = spare.map(|spare| spare.pairs).filter(|pairs| pairs.capacity() >= self.len());
        let room = spare.as_ref().map(Vec::capacity);
        let mut out = spare.unwrap_or_else(|| Vec::with_capacity(self.len() + self.len() / 64));
        out.clear();
        RowWriter { rest: &self.pairs, out, room }
    }

    /// Builds the answer from the runs of the parallel evaluator — one per
    /// chunk of sources, each **sorted by construction** (the lane kernel
    /// emits in `(source, target)` order; nothing sorts a run) and the runs
    /// mutually disjoint (every source is swept in exactly one chunk).
    ///
    /// A galloping k-way merge: pop the run with the smallest head and copy,
    /// in one go, everything in it below the next-smallest head.  The merge
    /// compares heads only, never inside a run, so runs over disjoint source
    /// ranges — what the evaluator produces — cost one heap operation and one
    /// search per *run*; runs that interleave pair by pair degrade to one per
    /// pair, `O(n log k)` for `n` pairs in `k` runs.  No hashing, no tree
    /// insertion, no duplicate checks.
    pub fn from_sorted_runs(runs: Vec<Vec<(u32, u32)>>) -> SortedPairs {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        for run in &runs {
            debug_assert!(run.windows(2).all(|w| w[0] < w[1]), "runs must be sorted");
        }
        let total: usize = runs.iter().map(Vec::len).sum();
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::with_capacity(total);
        // Heap of (head pair, run index); `rest` is what each run has left.
        let mut rest: Vec<&[(u32, u32)]> = runs.iter().map(Vec::as_slice).collect();
        let mut heap: BinaryHeap<Reverse<((u32, u32), usize)>> = rest
            .iter()
            .enumerate()
            .filter_map(|(i, run)| run.first().map(|&head| Reverse((head, i))))
            .collect();
        while let Some(Reverse((_, i))) = heap.pop() {
            let run = rest[i];
            let take = match heap.peek() {
                // The head was the overall minimum; with it goes everything
                // still below the next-smallest head.
                Some(Reverse((limit, _))) => 1 + gallop(&run[1..], |pair| pair < limit),
                None => run.len(),
            };
            pairs.extend(run[..take].iter().map(|&(x, y)| (x as NodeId, y as NodeId)));
            rest[i] = &run[take..];
            if let Some(&head) = rest[i].first() {
                heap.push(Reverse((head, i)));
            }
        }
        debug_assert!(pairs.windows(2).all(|w| w[0] < w[1]), "runs must be disjoint");
        SortedPairs { pairs }
    }
}

/// Writes a copy of a [`SortedPairs`] with some rows rewritten, in one pass
/// ([`SortedPairs::rewrite_rows`]).  For each rewritten source, ascending,
/// [`row`](Self::row) copies the rows below it whole — found by exponential
/// probe, `O(log stretch)` comparisons, never one per pair — and hands over
/// the source's old row; [`finish`](Self::finish) copies the rest.
#[derive(Debug)]
pub struct RowWriter<'a> {
    /// The pairs of the old set not yet copied or rewritten.
    rest: &'a [(NodeId, NodeId)],
    out: Vec<(NodeId, NodeId)>,
    /// `out`'s capacity when it came from the spare; `None`: fresh storage.
    room: Option<usize>,
}

impl<'a> RowWriter<'a> {
    /// Copies the rows below `source`, which must exceed the last call's, and
    /// returns its old row (maybe empty) and the output, for the caller to
    /// append its new row to: pairs `(source, ·)`, targets ascending.
    #[allow(clippy::type_complexity)] // the old row and where the new one goes
    pub fn row(&mut self, source: NodeId) -> (&'a [(NodeId, NodeId)], &mut Vec<(NodeId, NodeId)>) {
        debug_assert!(self.out.last().is_none_or(|&(x, _)| x < source), "sources must ascend");
        let rest = self.rest;
        let (below, rest) = rest.split_at(gallop(rest, |&(x, _)| x < source));
        self.out.extend_from_slice(below);
        let (row, rest) = rest.split_at(gallop(rest, |&(x, _)| x == source));
        self.rest = rest;
        (row, &mut self.out)
    }

    /// Copies the rows past the last rewritten source: the new set, and
    /// whether its storage was allocated — the spare had no room for the
    /// old set, or the rows written outgrew it.
    pub fn finish(mut self) -> (SortedPairs, bool) {
        self.out.extend_from_slice(self.rest);
        debug_assert!(self.out.windows(2).all(|w| w[0] < w[1]), "rows must be sorted");
        let allocated = self.room != Some(self.out.capacity());
        (SortedPairs { pairs: self.out }, allocated)
    }

    /// Gives the rewrite up: its storage goes back into `spare`, as an
    /// empty set for a later writer.  Returns whether it was allocated.
    pub fn abandon(mut self, spare: &mut Option<SortedPairs>) -> bool {
        self.out.clear();
        let allocated = self.room != Some(self.out.capacity());
        *spare = Some(SortedPairs { pairs: self.out });
        allocated
    }
}

/// How many leading elements of `run` satisfy `below`, which must hold for
/// a prefix of it and for nothing after.  Probes at doubling distances, then
/// bisects the last stride, so a short prefix costs `O(log prefix)`, not
/// `O(log run.len())`.
fn gallop<T>(run: &[T], below: impl Fn(&T) -> bool) -> usize {
    let (mut lo, mut step) = (0, 1);
    while lo + step <= run.len() && below(&run[lo + step - 1]) {
        lo += step;
        step *= 2;
    }
    let end = (lo + step).min(run.len());
    lo + run[lo..end].partition_point(below)
}

/// Appends the merge of the sorted `stretch` with every pair of the sorted
/// `run` below the stretch's last pair, advancing `run` past what it took.
/// Alternates between the two sides, each time copying everything one side
/// holds below the other's head in one go.
fn merge_into(
    out: &mut Vec<(NodeId, NodeId)>,
    mut stretch: &[(NodeId, NodeId)],
    run: &mut &[(NodeId, NodeId)],
) {
    while let Some(&head) = stretch.first() {
        let take = gallop(run, |pair| *pair < head);
        out.extend_from_slice(&run[..take]);
        *run = &run[take..];
        let take = match run.first().copied() {
            // A pair on both sides: keep the stretch's copy.
            Some(next) if next == head => {
                *run = &run[1..];
                1
            }
            Some(next) => gallop(stretch, |pair| *pair < next),
            None => stretch.len(),
        };
        out.extend_from_slice(&stretch[..take]);
        stretch = &stretch[take..];
    }
}

impl Extend<(NodeId, NodeId)> for SortedPairs {
    /// Bulk insertion: sorts the incoming batch once and merges it in by one
    /// galloping pass (`O(n + k log k)`), with an `O(k)` append fast path
    /// when the whole batch sorts after the current tail.
    fn extend<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, batch: I) {
        let mut incoming: Vec<(NodeId, NodeId)> = batch.into_iter().collect();
        if incoming.is_empty() {
            return;
        }
        incoming.sort_unstable();
        incoming.dedup();
        match self.pairs.last() {
            None => {
                self.pairs = incoming;
            }
            Some(&tail) if incoming[0] > tail => {
                // Everything lands past the tail: plain append, no merge.
                self.pairs.extend(incoming);
            }
            _ => {
                let old = std::mem::take(&mut self.pairs);
                self.pairs.reserve_exact(old.len() + incoming.len());
                let mut run = incoming.as_slice();
                merge_into(&mut self.pairs, &old, &mut run);
                self.pairs.extend_from_slice(run);
            }
        }
    }
}

impl FromIterator<(NodeId, NodeId)> for SortedPairs {
    fn from_iter<I: IntoIterator<Item = (NodeId, NodeId)>>(iter: I) -> Self {
        let mut pairs: Vec<(NodeId, NodeId)> = iter.into_iter().collect();
        pairs.sort_unstable();
        pairs.dedup();
        SortedPairs { pairs }
    }
}

impl<const N: usize> From<[(NodeId, NodeId); N]> for SortedPairs {
    fn from(pairs: [(NodeId, NodeId); N]) -> Self {
        pairs.into_iter().collect()
    }
}

impl IntoIterator for SortedPairs {
    type Item = (NodeId, NodeId);
    type IntoIter = std::vec::IntoIter<(NodeId, NodeId)>;

    fn into_iter(self) -> Self::IntoIter {
        self.pairs.into_iter()
    }
}

impl<'a> IntoIterator for &'a SortedPairs {
    type Item = &'a (NodeId, NodeId);
    type IntoIter = std::slice::Iter<'a, (NodeId, NodeId)>;

    fn into_iter(self) -> Self::IntoIter {
        self.pairs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn reference(pairs: &SortedPairs) -> BTreeSet<(NodeId, NodeId)> {
        pairs.iter().copied().collect()
    }

    /// Deterministic xorshift so the tests need no rand dependency here.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn insert_remove_contains_behave_like_a_set() {
        let mut s = SortedPairs::new();
        assert!(s.is_empty());
        assert!(s.insert((3, 4)));
        assert!(s.insert((1, 2)));
        assert!(!s.insert((3, 4)), "duplicate insert is a no-op");
        assert_eq!(s.len(), 2);
        assert!(s.contains(&(1, 2)));
        assert!(!s.contains(&(2, 1)));
        assert!(s.remove(&(1, 2)));
        assert!(!s.remove(&(1, 2)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iteration_is_sorted_regardless_of_insertion_order() {
        let s: SortedPairs = [(5, 0), (0, 5), (3, 3), (0, 1)].into();
        let got: Vec<_> = s.iter().copied().collect();
        assert_eq!(got, vec![(0, 1), (0, 5), (3, 3), (5, 0)]);
    }

    #[test]
    fn extend_merges_dedups_and_takes_the_append_fast_path() {
        let mut s: SortedPairs = [(1, 1), (4, 4)].into();
        s.extend([(0, 9), (4, 4), (2, 2), (2, 2)]);
        assert_eq!(s.as_slice(), &[(0, 9), (1, 1), (2, 2), (4, 4)]);
        // Append fast path: everything past the tail.
        s.extend([(9, 0), (8, 8)]);
        assert_eq!(s.as_slice(), &[(0, 9), (1, 1), (2, 2), (4, 4), (8, 8), (9, 0)]);
        // Extending with nothing changes nothing.
        s.extend(std::iter::empty());
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn is_subset_matches_the_btreeset_semantics() {
        let small: SortedPairs = [(1, 2), (3, 4)].into();
        let big: SortedPairs = [(0, 0), (1, 2), (3, 4), (9, 9)].into();
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(SortedPairs::new().is_subset(&small));
        assert!(small.is_subset(&small));
        let disjoint: SortedPairs = [(7, 7)].into();
        assert!(!disjoint.is_subset(&big));
    }

    /// `(old ∖ {(x, ·) | x ∈ replaced}) ∪ run` through a row writer into
    /// `spare`: every source of `replaced` or of `run` is rewritten, in
    /// ascending order, its new row the run's targets merged with its old row
    /// unless it is replaced — an empty row when neither gives a pair.
    fn rewritten(
        old: &SortedPairs,
        replaced: &BTreeSet<NodeId>,
        run: &BTreeSet<(NodeId, NodeId)>,
        spare: Option<SortedPairs>,
    ) -> (SortedPairs, bool) {
        let sources: BTreeSet<NodeId> =
            replaced.iter().copied().chain(run.iter().map(|&(x, _)| x)).collect();
        let mut writer = old.rewrite_rows(spare);
        for x in sources {
            let (row, out) = writer.row(x);
            let held: Vec<_> = old.iter().filter(|&&(source, _)| source == x).copied().collect();
            assert_eq!(row, held, "source {x}: the writer hands over its old row");
            let mut new: BTreeSet<_> =
                run.iter().filter(|&&(source, _)| source == x).copied().collect();
            if !replaced.contains(&x) {
                new.extend(row.iter().copied());
            }
            out.extend(new);
        }
        writer.finish()
    }

    #[test]
    fn splice_replaces_rows_and_merges_the_run_in_one_pass() {
        let s: SortedPairs = [(0, 0), (1, 1), (1, 4), (2, 2), (3, 3)].into();
        let set = |pairs: &[(NodeId, NodeId)]| pairs.iter().copied().collect::<BTreeSet<_>>();
        let sources = |xs: &[NodeId]| xs.iter().copied().collect::<BTreeSet<_>>();
        // Pure union, from the first row to one past the last: a pair
        // already present is kept once.
        let (grown, allocated) =
            rewritten(&s, &sources(&[]), &set(&[(0, 5), (1, 4), (2, 0), (7, 7)]), None);
        assert_eq!(
            grown.as_slice(),
            &[(0, 0), (0, 5), (1, 1), (1, 4), (2, 0), (2, 2), (3, 3), (7, 7)]
        );
        assert!(allocated, "no spare: fresh storage");
        // Row replacement: source 1 gets a new row, source 3 an empty one,
        // and source 5 had none.
        let (replaced, _) = rewritten(&s, &sources(&[1, 3, 5]), &set(&[(1, 2), (5, 0)]), None);
        assert_eq!(replaced.as_slice(), &[(0, 0), (1, 2), (2, 2), (5, 0)]);
        // Nothing to do is a copy; the receiver is never touched.
        assert_eq!(rewritten(&s, &sources(&[]), &set(&[]), None).0, s);
        let (filled, _) = rewritten(&SortedPairs::new(), &sources(&[4]), &set(&[(4, 4)]), None);
        assert_eq!(filled.as_slice(), &[(4, 4)]);
        assert_eq!(s.len(), 5);
        // An abandoned rewrite hands back the spare's storage, emptied.
        let spare = SortedPairs { pairs: vec![(9, 9); 8] };
        let at = spare.as_slice().as_ptr();
        let mut writer = s.rewrite_rows(Some(spare));
        writer.row(1).1.push((1, 7));
        let mut back = None;
        assert!(!writer.abandon(&mut back), "the spare had room");
        let back = back.expect("the storage is handed back");
        assert!(back.is_empty() && back.pairs.as_ptr() == at);
    }

    #[test]
    fn splice_equals_the_set_expression_on_random_inputs() {
        let mut next = xorshift(0xd1b54a32d192ed03);
        for round in 0..300 {
            let side = 1 + next() % 12;
            let (old_len, run_len) = (next() % 80, next() % 40);
            let mut pairs = |n: u64| -> BTreeSet<(NodeId, NodeId)> {
                (0..n).map(|_| ((next() % side) as NodeId, (next() % side) as NodeId)).collect()
            };
            let (old, run) = (pairs(old_len), pairs(run_len));
            // Up to 14 > `side`: some replaced sources lie past every row.
            let replaced: BTreeSet<NodeId> = (0..next() % 4).map(|_| (next() % 14) as NodeId).collect();
            let expected: BTreeSet<(NodeId, NodeId)> =
                old.iter().filter(|(x, _)| !replaced.contains(x)).chain(&run).copied().collect();
            let ours: SortedPairs = old.iter().copied().collect();
            let (fresh, allocated) = rewritten(&ours, &replaced, &run, None);
            assert_eq!(reference(&fresh), expected, "round {round}");
            assert!(allocated, "round {round}");
            // A recycled buffer of any size, full of pairs that must go,
            // gives the same set; one with room for the old set and the
            // result keeps its storage, any other is replaced or grows.
            let junk = SortedPairs { pairs: vec![(9, 9); (next() % 100) as usize] };
            let (room, at) = (junk.pairs.capacity(), junk.pairs.as_ptr());
            let (into, allocated) = rewritten(&ours, &replaced, &run, Some(junk));
            assert_eq!(into, fresh, "round {round}");
            let roomy = room >= ours.len() && room >= expected.len();
            assert_eq!(allocated, !roomy, "round {round}: room {room}");
            if roomy {
                assert_eq!(into.as_slice().as_ptr(), at, "round {round}: reallocated");
            }
        }
    }

    #[test]
    fn from_sorted_runs_merges_disjoint_worker_runs() {
        let runs = vec![
            vec![(0u32, 3u32), (2, 1)],
            vec![],
            vec![(1, 0), (1, 9)],
            vec![(0, 7), (3, 3)],
        ];
        let merged = SortedPairs::from_sorted_runs(runs);
        assert_eq!(
            merged.as_slice(),
            &[(0, 3), (0, 7), (1, 0), (1, 9), (2, 1), (3, 3)]
        );
        assert!(SortedPairs::from_sorted_runs(vec![]).is_empty());
        let single = SortedPairs::from_sorted_runs(vec![vec![(5, 5)]]);
        assert_eq!(single.as_slice(), &[(5, 5)]);
    }

    #[test]
    fn from_sorted_runs_equals_sorting_the_concatenation_on_random_partitions() {
        let mut next = xorshift(0x2545f4914f6cdd1d);
        for round in 0..200u64 {
            let mut all: Vec<(u32, u32)> = (0..next() % 300)
                .map(|_| ((next() % 24) as u32, (next() % 24) as u32))
                .collect();
            all.sort_unstable();
            all.dedup();
            // Deal the sorted pairs into runs: by source range (what the
            // evaluator produces), pair by pair at random (runs interleave
            // everywhere), or round-robin (every run's head is always next) —
            // over 1 to 9 runs, some of which stay empty or get one pair.
            let k = 1 + (next() % 9) as usize;
            let mut runs = vec![Vec::new(); k];
            for (i, &pair) in all.iter().enumerate() {
                let run = match round % 3 {
                    0 => pair.0 as usize * k / 24,
                    1 => (next() % k as u64) as usize,
                    _ => i % k,
                };
                runs[run].push(pair);
            }
            if round % 4 == 0 {
                runs.push(Vec::new());
                runs.insert(0, Vec::new());
            }
            let expected: Vec<(NodeId, NodeId)> =
                all.iter().map(|&(x, y)| (x as NodeId, y as NodeId)).collect();
            assert_eq!(SortedPairs::from_sorted_runs(runs).as_slice(), expected, "round {round}");
        }
    }

    #[test]
    fn gallop_takes_the_head_and_everything_below_the_limit() {
        let run: Vec<(u32, u32)> = (0..40).map(|i| (i, 0)).collect();
        for limit in 0..=41u32 {
            let expected = limit.min(40) as usize;
            assert_eq!(gallop(&run, |pair| *pair < (limit, 0)), expected, "limit {limit}");
            assert_eq!(gallop(&run[..1], |pair| *pair < (limit, 0)), expected.min(1));
            assert_eq!(gallop(&run[..0], |pair| *pair < (limit, 0)), 0);
        }
    }

    #[test]
    fn randomized_differential_against_btreeset() {
        let mut next = xorshift(0x9e3779b97f4a7c15);
        for _ in 0..50 {
            let mut ours = SortedPairs::new();
            let mut truth: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
            for _ in 0..200 {
                let pair = ((next() % 16) as NodeId, (next() % 16) as NodeId);
                match next() % 3 {
                    0 => assert_eq!(ours.insert(pair), truth.insert(pair)),
                    1 => assert_eq!(ours.remove(&pair), truth.remove(&pair)),
                    _ => assert_eq!(ours.contains(&pair), truth.contains(&pair)),
                }
            }
            assert_eq!(reference(&ours), truth);
            assert_eq!(ours.len(), truth.len());
        }
    }
}
