//! Delta product-BFS: incremental repair of cached RPQ answers under edge
//! insertion and edge deletion, one repair per (view, batch).
//!
//! # The delta of a batch, as rectangles
//!
//! Fix one edge `u --a--> v` of a batch and one path that crosses it: the
//! run of the query automaton reads `a` there, taking some transition
//! `q --a--> q'` (ε-closed).  The path therefore decomposes into
//!
//! * a prefix taking `(x, start)` to `(u, q)`, and
//! * a suffix taking `(v, q')` to some `(y, f)` with `f` final.
//!
//! So for each automaton state `q` with an `a`-transition,
//!
//! * a *backward* product-BFS from `(u, q)` collects the source set
//!   `B_q = {x | (x, start) →* (u, q)}`, and
//! * for each ε-closed successor `q'`, a *forward* product-BFS from
//!   `(v, q')` collects the target set `F_{q'} = {y | (v, q') →* (y, final)}`
//!
//! and every pair with a witness crossing the edge at that transition lies
//! in the **rectangle** `B_q × ⋃ F_{q'}`.  Both sweeps are
//! [`graphdb::eval_csr_from_budgeted`], the single-source kernel a read
//! runs: forward over the outgoing CSR and the query from `(v, [q'])`,
//! backward over the incoming CSR and the query's reversal
//! ([`automata::DenseNfa::reverse_closed`], whose finals are the query's
//! start states) from `(u, [q])`.  The sweeps are memoized over the
//! whole batch by the product state they start from, so edges sharing an
//! endpoint share sweeps, and the rectangles are kept *factored* — a source
//! list and the ids of some target lists — and never multiplied out: on a
//! closure view one rectangle is most of the extension.  What both repairs
//! need from them is per source: the affected sources are grouped by the set
//! of rectangles they fall in, and each group's target lists are united
//! once, whatever the number of sources sharing them.
//!
//! # Insertion
//!
//! RPQ answers are monotone under edge insertion, and every new pair has a
//! witness crossing a new edge.  Swept over the **updated** adjacencies
//! (so paths crossing new edges several times are covered by splitting at
//! any one crossing), the rectangles are a superset of the new pairs and a
//! subset of the updated answer.  The new extension is written in one pass
//! of a [`graphdb::RowWriter`]: each affected source's row of the cached
//! extension — a contiguous slice of the sorted vector — is merged with its
//! group's united target list straight into the new one, copied in bulk
//! between the targets it lacks, which are counted; the rows between the
//! affected sources are copied whole.
//!
//! # Deletion (DRed: over-delete, then re-derive)
//!
//! Deletion is **not** monotone: a pair survives iff *some* witness avoids
//! every deleted edge, so no local sweep can decide which cached pairs to
//! drop.  Swept over the **pre-deletion** adjacencies, the union of the
//! rectangles is exactly the set of cached pairs with some witness crossing
//! a deleted edge — the pairs DRed *over-deletes*.  A pair outside it kept
//! a witness avoiding every deleted edge, so only the rows of the affected
//! sources can change: they are re-derived whole by
//! [`graphdb::eval_csr_sources`] over the **post-deletion** adjacency
//! ([`graphdb::LANES`] sources per chunk, as a materialization's workers
//! sweep them), and each chunk's rows replace the old ones wholesale as the
//! same one-pass writer reaches them, before the next chunk runs.  The
//! over-deleted set is therefore only ever *counted*, group by group
//! ([`RepairReport::overdeleted_pairs`]).  The `engine` crate
//! additionally skips edges whose support count (parallel-edge multiplicity,
//! [`graphdb::GraphDb::edge_multiplicity`]) stays positive: deleting one
//! copy of a duplicated edge cannot change any answer.
//!
//! # Cost
//!
//! Each sweep is `O((V + E)·|Q|)` and at most `|Q|` backward and `|Q|`
//! forward sweeps run per edge.  A sweep charges what the kernel counts for
//! any read, the product states it expands: a state that reads no label —
//! in the reversal, one with no predecessor in the query — is recorded and
//! never charged, seed included.  Re-derivation is no longer `|affected|`
//! sweeps: it is one kernel call per chunk on one [`graphdb::LaneScratch`],
//! which explores the post-deletion product graph once — `O((V + E)·|Q|)`,
//! every state opened once whatever the number of affected sources — and
//! makes one pass over its condensation per chunk of [`graphdb::LANES`]
//! affected sources, `O(⌈|affected| / 64⌉ · (components + their edges))` word
//! operations, plus the rows it emits.  Beyond the sweeps a repair writes
//! the extension once, reading each affected source's old row once on the
//! way; its extra memory is `O(V + Σ|B| + Σ|F|)`, one united target list per
//! group, the explored part of the condensation, and one chunk's rows — no
//! cross product, no allocation per affected source.  The write is one
//! pass, but into *fresh* memory it was mostly page faults: on the churn
//! benchmark's closure view (~4·10⁵ pairs, 6.7 MB) a plain copy took 4–6 ms
//! and a copy into memory already faulted in about 1 ms.  So the engine's
//! repairs write into recycled storage (below), and allocate only when the
//! view has no superseded extension free, or only too small a one, or when
//! the rows written outgrow it (`extension_buffer_allocations`).
//!
//! # Copy-on-write
//!
//! A repair only *reads* the cached extension and builds a new one, so the
//! `Arc` a published [`crate::EngineSnapshot`] shares is never written to:
//! readers keep the pre-mutation extension their snapshot pinned, and an
//! interrupted repair leaves nothing half-done behind.  Both repairs write
//! the new one into the spare buffer they are handed
//! ([`graphdb::SortedPairs::rewrite_rows`]), and give it back when they
//! change nothing or are interrupted: the engine keeps the extensions a
//! view's repairs replaced and hands the next repair the storage of one
//! that no snapshot or reader holds any more (`Arc::try_unwrap` succeeds
//! only then); the free functions below hand none, so their writer
//! allocates.  A buffer is thus written again only once nothing can read
//! it.

use std::collections::HashMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use automata::{BitSet, DenseNfa};
use graphdb::{
    eval_csr_from_budgeted, eval_csr_sources_budgeted, Answer, CsrAdjacency, EvalScratch,
    LaneScratch, NodeId, SweepBudget, SweepInterrupt, SweepState, LANES,
};
use telemetry::{Phase, Span, TraceContext};

use crate::parallel::as_us;

/// Where one view's repair spent its time, phase by phase (`None`: the phase
/// did not run) — the detail spans under a traced mutation's
/// [`Phase::Repair`].  Kept as `Duration`s and turned into microseconds once,
/// when recorded: a phase of many sub-microsecond sweeps adds up.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RepairTimings {
    backward: Option<Duration>,
    forward: Option<Duration>,
    rederive: Option<Duration>,
    splice: Option<Duration>,
}

impl RepairTimings {
    /// Records one detail span per phase that ran, tagged with the view's
    /// index (accumulated durations, not intervals: start offsets are 0).
    pub(crate) fn record_into(&self, trace: &TraceContext, view: u32) {
        let phases = [
            (Phase::DeltaBackward, self.backward),
            (Phase::DeltaForward, self.forward),
            (Phase::Rederive, self.rederive),
            (Phase::Splice, self.splice),
        ];
        for (phase, spent) in phases {
            if let Some(spent) = spent {
                let duration_us = as_us(spent);
                trace.record_span(Span { phase, worker: Some(view), start_us: 0, duration_us });
            }
        }
    }
}

/// Runs `work`, adding its wall time to `slot` when the repair is timed.
fn timed<T>(slot: Option<&mut Option<Duration>>, work: impl FnOnce() -> T) -> T {
    let Some(slot) = slot else { return work() };
    let started = Instant::now();
    let out = work();
    *slot = Some(slot.unwrap_or_default() + started.elapsed());
    out
}

/// The index in `sets` of the list `sweep` yields for the product state
/// `start`, sweeping only the first time a batch asks for it.
fn memoized(
    memo: &mut HashMap<(u32, u32), usize>,
    sets: &mut Vec<Vec<NodeId>>,
    start: (u32, u32),
    sweep: impl FnOnce() -> Result<Vec<NodeId>, SweepInterrupt>,
) -> Result<usize, SweepInterrupt> {
    if let Some(&set) = memo.get(&start) {
        return Ok(set);
    }
    sets.push(sweep()?);
    memo.insert(start, sets.len() - 1);
    Ok(sets.len() - 1)
}

/// The delta of one batch on one query, factored (see the module docs): the
/// distinct source and target lists the sweeps produced, and the rectangles
/// over them.
#[derive(Debug, Default)]
pub(crate) struct Rectangles {
    source_sets: Vec<Vec<NodeId>>,
    target_sets: Vec<Vec<NodeId>>,
    /// `(source set, target sets)`: the rectangle is that source list times
    /// the union of those target lists, none of them empty.
    rects: Vec<(usize, Vec<usize>)>,
}

/// What a repair produced: the new extension (`None`: nothing changed),
/// whether its writer allocated storage, and its work counters.
pub(crate) type Repair = (Option<Answer>, bool, RepairReport);

/// The sources some rectangle covers, ascending, each with the index of its
/// group's united target list.
struct SourceGroups {
    sources: Vec<(u32, usize)>,
    /// Per group (a distinct set of covering rectangles): the union of the
    /// rectangles' target lists, ascending.
    targets: Vec<Vec<u32>>,
}

impl Rectangles {
    /// Sweeps the rectangles of every edge of `edges` over the given
    /// adjacencies (both freezes of one database; `reversal` the reversal of
    /// `query`) on `(backward, forward)`, scratches aimed at `(csr_in,
    /// reversal)` and `(csr_out, query)` — the engine lends them from its
    /// pool.  The time-like limits of `budget` are polled per edge and
    /// every sweep charges the product states it expanded, so a visit cap
    /// bounds the delta sweeps as it bounds any other.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sweep(
        csr_out: &CsrAdjacency,
        csr_in: &CsrAdjacency,
        query: &DenseNfa,
        reversal: &DenseNfa,
        edges: &[(NodeId, automata::Symbol, NodeId)],
        (backward_scratch, forward_scratch): (&mut EvalScratch, &mut EvalScratch),
        budget: &SweepBudget,
        progress: &SweepState,
        mut timings: Option<&mut RepairTimings>,
    ) -> Result<Rectangles, SweepInterrupt> {
        csr_out
            .domain()
            .check_compatible(query.alphabet())
            .expect("query automaton must be over the database domain");
        let mut sources_of =
            |seed: (u32, u32)| reached(csr_in, reversal, seed, backward_scratch, budget, progress);
        let mut targets_of =
            |seed: (u32, u32)| reached(csr_out, query, seed, forward_scratch, budget, progress);
        // Sweeps memoized over the batch by the product state they start at.
        let mut backward: HashMap<(u32, u32), usize> = HashMap::new();
        let mut forward: HashMap<(u32, u32), usize> = HashMap::new();
        let mut delta = Rectangles::default();

        for &(from, label, to) in edges {
            progress.poll(budget)?;
            let (from, sym, to) = (from as u32, label.index(), to as u32);
            for q in 0..query.num_states() as u32 {
                let successors = query.closed_successors(q, sym);
                if successors.is_empty() {
                    continue; // every `q`, for a label the query never reads
                }
                let slot = timings.as_deref_mut().map(|t| &mut t.backward);
                let sources = memoized(&mut backward, &mut delta.source_sets, (from, q), || {
                    timed(slot, || sources_of((from, q)))
                })?;
                if delta.source_sets[sources].is_empty() {
                    continue;
                }
                let mut targets = Vec::with_capacity(successors.len());
                for &qp in successors {
                    let slot = timings.as_deref_mut().map(|t| &mut t.forward);
                    let set = memoized(&mut forward, &mut delta.target_sets, (to, qp), || {
                        timed(slot, || targets_of((to, qp)))
                    })?;
                    if !delta.target_sets[set].is_empty() {
                        targets.push(set);
                    }
                }
                if !targets.is_empty() {
                    delta.rects.push((sources, targets));
                }
            }
        }
        Ok(delta)
    }

    /// Adds the identity pair of every node of `nodes` — what an ε-accepting
    /// query gains from nodes a mutation created — as one-pair rectangles.
    pub(crate) fn cover_identity(&mut self, nodes: Range<usize>) {
        for v in nodes {
            self.source_sets.push(vec![v]);
            self.target_sets.push(vec![v]);
            self.rects.push((self.source_sets.len() - 1, vec![self.target_sets.len() - 1]));
        }
    }

    /// The union of the target lists of `rects`, ascending, through the
    /// (empty, and left empty) node set `union`.
    fn united_targets(&self, rects: &[usize], union: &mut BitSet) -> Vec<u32> {
        for &rect in rects {
            for &set in &self.rects[rect].1 {
                for &y in &self.target_sets[set] {
                    union.insert(y as u32);
                }
            }
        }
        let mut united = Vec::new();
        union.drain_sorted_into(&mut united);
        united
    }

    /// Groups the covered sources by the set of rectangles covering them and
    /// unites each group's target lists once.
    fn groups(&self, num_nodes: usize) -> SourceGroups {
        // Counting sort of the (source, rectangle) incidences by source: the
        // rectangles covering `x` are `covering[offsets[x]..offsets[x + 1]]`,
        // ascending.
        let mut offsets = vec![0usize; num_nodes + 1];
        for (sources, _) in &self.rects {
            for &x in &self.source_sets[*sources] {
                offsets[x + 1] += 1;
            }
        }
        for x in 0..num_nodes {
            offsets[x + 1] += offsets[x];
        }
        let mut covering = vec![0usize; offsets[num_nodes]];
        let mut next = offsets.clone();
        for (rect, (sources, _)) in self.rects.iter().enumerate() {
            for &x in &self.source_sets[*sources] {
                covering[next[x]] = rect;
                next[x] += 1;
            }
        }

        let mut groups = SourceGroups { sources: Vec::new(), targets: Vec::new() };
        let mut group_of: HashMap<&[usize], usize> = HashMap::new();
        let mut union = BitSet::new(num_nodes);
        for x in 0..num_nodes {
            let cover = &covering[offsets[x]..offsets[x + 1]];
            if cover.is_empty() {
                continue;
            }
            let group = *group_of.entry(cover).or_insert_with(|| {
                groups.targets.push(self.united_targets(cover, &mut union));
                groups.targets.len() - 1
            });
            groups.sources.push((x as u32, group));
        }
        groups
    }

    /// The insertion repair proper: `old` plus every pair of the rectangles
    /// it lacks — each covered source's row merged with its group's united
    /// targets, in one pass of a [`graphdb::RowWriter`] into `spare` — or
    /// `None` (`spare` given back) when it lacks none; and the pairs gained.
    pub(crate) fn merged_into(
        &self,
        old: &Answer,
        num_nodes: usize,
        spare: &mut Option<Answer>,
        timings: Option<&mut RepairTimings>,
    ) -> Repair {
        if self.rects.is_empty() {
            return (None, false, RepairReport::default()); // e.g. labels the query never reads
        }
        timed(timings.map(|t| &mut t.splice), || {
            let groups = self.groups(num_nodes);
            let mut writer = old.rewrite_rows(spare.take());
            let mut gained = 0;
            for &(x, group) in &groups.sources {
                let (row, out) = writer.row(x as NodeId);
                // The row is copied in bulk between the targets it lacks.
                let (mut copied, mut at) = (0, 0);
                for &y in &groups.targets[group] {
                    let y = y as NodeId;
                    while row.get(at).is_some_and(|&(_, held)| held < y) {
                        at += 1;
                    }
                    if row.get(at).is_none_or(|&(_, held)| held != y) {
                        out.extend_from_slice(&row[copied..at]);
                        out.push((x as NodeId, y));
                        (copied, gained) = (at, gained + 1);
                    }
                }
                out.extend_from_slice(&row[copied..]);
            }
            let report = RepairReport { new_pairs: gained, ..RepairReport::default() };
            if gained == 0 {
                return (None, writer.abandon(spare), report);
            }
            let (repaired, allocated) = writer.finish();
            (Some(repaired), allocated, report)
        })
    }

    /// Every rectangle multiplied out (a pair in two rectangles repeats).
    fn expand(&self, num_nodes: usize) -> Vec<(NodeId, NodeId)> {
        let mut union = BitSet::new(num_nodes);
        let mut pairs = Vec::new();
        for (rect, (sources, _)) in self.rects.iter().enumerate() {
            let targets = self.united_targets(&[rect], &mut union);
            for &x in &self.source_sets[*sources] {
                pairs.extend(targets.iter().map(|&y| (x, y as NodeId)));
            }
        }
        pairs
    }
}

/// The candidate new answer pairs of `query` created by inserting
/// `from --label--> to`, computed by backward/forward delta product-BFS over
/// the **updated** adjacencies.  The result may repeat pairs, also ones
/// already in the pre-insertion answer (the caller extends a set), but every
/// returned pair is in the updated answer and every genuinely new pair is
/// returned.
///
/// This multiplies the rectangles of one edge out, which the engine's own
/// repairs never do ([`insertion_repair_budgeted`] is what they run); it is
/// kept as the per-edge sweep cost the repo benchmark times.
///
/// `csr_out`/`csr_in` must be the outgoing/incoming CSR freezes of the same
/// updated database, and `reversal` is `query.reverse_closed()`.
pub fn delta_pairs(
    csr_out: &CsrAdjacency,
    csr_in: &CsrAdjacency,
    query: &DenseNfa,
    reversal: &DenseNfa,
    from: NodeId,
    label: automata::Symbol,
    to: NodeId,
) -> Vec<(NodeId, NodeId)> {
    let (unlimited, progress) = (SweepBudget::unlimited(), SweepState::new());
    let edge = [(from, label, to)];
    let (mut backward, mut forward) = delta_scratches(csr_out, csr_in, query, reversal);
    Rectangles::sweep(
        csr_out,
        csr_in,
        query,
        reversal,
        &edge,
        (&mut backward, &mut forward),
        &unlimited,
        &progress,
        None,
    )
    .expect("an unlimited sweep cannot be interrupted")
    .expand(csr_out.num_nodes())
}

/// New scratches for the delta sweeps of the free functions below: backward
/// over `(csr_in, reversal)`, forward over `(csr_out, query)`.  (The engine
/// lends its repairs pooled ones.)
fn delta_scratches(
    csr_out: &CsrAdjacency,
    csr_in: &CsrAdjacency,
    query: &DenseNfa,
    reversal: &DenseNfa,
) -> (EvalScratch, EvalScratch) {
    (EvalScratch::new(csr_in, reversal), EvalScratch::new(csr_out, query))
}

/// Repairs a cached answer set after a batch of edge insertions: sweeps the
/// batch's rectangles over the **updated** adjacencies and merges the pairs
/// `pairs` lacks in as it rewrites it once (see the module docs).  Returns
/// how many it gained.
///
/// `csr_out`/`csr_in` must be freezes of the database **after** the
/// insertions, `reversal` is `query.reverse_closed()`, and `pairs` the cached
/// answer valid before them.  Identity pairs of nodes the batch created are
/// not the delta sweeps' business: the engine covers them in the same
/// rewrite.
///
/// The time-like limits are polled per inserted edge and every sweep charges
/// its visits.  On interrupt `pairs` is untouched — still the pre-insertion
/// answer — and must be discarded by the caller: the engine drops the view's
/// cached extension and re-materializes it on next use.
#[allow(clippy::too_many_arguments)]
pub fn insertion_repair_budgeted(
    csr_out: &CsrAdjacency,
    csr_in: &CsrAdjacency,
    query: &DenseNfa,
    reversal: &DenseNfa,
    inserted: &[(NodeId, automata::Symbol, NodeId)],
    pairs: &mut Answer,
    budget: &SweepBudget,
    progress: &SweepState,
) -> Result<u64, SweepInterrupt> {
    let (mut backward, mut forward) = delta_scratches(csr_out, csr_in, query, reversal);
    let delta = Rectangles::sweep(
        csr_out,
        csr_in,
        query,
        reversal,
        inserted,
        (&mut backward, &mut forward),
        budget,
        progress,
        None,
    )?;
    let (repaired, _, report) = delta.merged_into(pairs, csr_out.num_nodes(), &mut None, None);
    if let Some(repaired) = repaired {
        *pairs = repaired;
    }
    Ok(report.new_pairs)
}

/// Work counters of one repair, folded into [`crate::EngineStats`] by the
/// engine.  An insertion repair fills `new_pairs`, a deletion repair
/// ([`deletion_repair`]) the other two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Pairs an insertion repair spliced in: what the rectangles hold that
    /// the cached answer lacked.
    pub new_pairs: u64,
    /// Pairs over-deleted: every cached pair with some pre-deletion witness
    /// crossing a deleted edge — the size of the union of the rectangles,
    /// counted group by group without enumerating it.
    pub overdeleted_pairs: u64,
    /// Distinct sources whose rows were re-derived by the forward sweep
    /// over the post-deletion graph.
    pub rederived_sources: u64,
}

/// Repairs a cached answer set in place after a batch of edge deletions,
/// DRed-style: the sources of every pair whose derivation may traverse a
/// deleted edge have their rows re-derived by sweeping forward again over the
/// post-deletion graph, and the new rows replace the old (see the module
/// docs for why this is exact).
///
/// `old_csr_out`/`old_csr_in` must be freezes of the database **before** the
/// deletions, `new_csr_out` a freeze **after** them, `reversal` is
/// `query.reverse_closed()`, and `pairs` the cached answer valid on the pre-deletion
/// database.  `removed` lists the deleted edges; the caller is expected to
/// have pruned edges that still have support (surviving parallel copies),
/// which cannot change the answer and only widen the over-deletion.
pub fn deletion_repair(
    old_csr_out: &CsrAdjacency,
    old_csr_in: &CsrAdjacency,
    new_csr_out: &CsrAdjacency,
    query: &DenseNfa,
    reversal: &DenseNfa,
    removed: &[(NodeId, automata::Symbol, NodeId)],
    pairs: &mut Answer,
) -> RepairReport {
    let (unlimited, progress) = (SweepBudget::unlimited(), SweepState::new());
    deletion_repair_budgeted(
        old_csr_out, old_csr_in, new_csr_out, query, reversal, removed, pairs, &unlimited,
        &progress,
    )
    .expect("an unlimited repair cannot be interrupted")
}

/// Budgeted variant of [`deletion_repair`]: the time-like limits are polled
/// per removed edge, every over-deletion sweep charges its visits, and the
/// re-derivation sweep is budgeted cooperatively per
/// [`graphdb::SWEEP_CHECK_INTERVAL`] visits.
///
/// On interrupt `pairs` is untouched — still the pre-deletion answer — and
/// must be discarded by the caller: the engine drops the view's cached
/// extension and re-materializes it on next use.  The mutation itself is
/// already applied at this point; only the cache repair degrades.
// Three adjacency views (old out/in, new out) plus the budget pair are all
// borrowed per-call state with different lifetimes/owners; bundling them
// into a struct would only move the argument list into a constructor.
#[allow(clippy::too_many_arguments)]
pub fn deletion_repair_budgeted(
    old_csr_out: &CsrAdjacency,
    old_csr_in: &CsrAdjacency,
    new_csr_out: &CsrAdjacency,
    query: &DenseNfa,
    reversal: &DenseNfa,
    removed: &[(NodeId, automata::Symbol, NodeId)],
    pairs: &mut Answer,
    budget: &SweepBudget,
    progress: &SweepState,
) -> Result<RepairReport, SweepInterrupt> {
    let (mut backward, mut forward) = delta_scratches(old_csr_out, old_csr_in, query, reversal);
    let (repaired, _, report) = deletion_rows(
        old_csr_out,
        old_csr_in,
        new_csr_out,
        query,
        reversal,
        removed,
        pairs,
        &mut None,
        (&mut backward, &mut forward),
        budget,
        progress,
        None,
    )?;
    if let Some(repaired) = repaired {
        *pairs = repaired;
    }
    Ok(report)
}

/// The deletion repair proper, reading `old` only: the repaired answer (or
/// `None` when no witness crossed a deleted edge), written into `spare` as in
/// [`Rectangles::merged_into`], and the work counters.  `scratches` are the
/// over-deletion sweeps' (see [`Rectangles::sweep`]), aimed at the
/// pre-deletion freezes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn deletion_rows(
    old_csr_out: &CsrAdjacency,
    old_csr_in: &CsrAdjacency,
    new_csr_out: &CsrAdjacency,
    query: &DenseNfa,
    reversal: &DenseNfa,
    removed: &[(NodeId, automata::Symbol, NodeId)],
    old: &Answer,
    spare: &mut Option<Answer>,
    scratches: (&mut EvalScratch, &mut EvalScratch),
    budget: &SweepBudget,
    progress: &SweepState,
    mut timings: Option<&mut RepairTimings>,
) -> Result<Repair, SweepInterrupt> {
    // Phase 1 — over-delete: the rectangles on the *pre-deletion*
    // adjacencies cover exactly the cached pairs with a witness crossing a
    // deleted edge.  Their sources are the rows that may change.
    let delta = Rectangles::sweep(
        old_csr_out,
        old_csr_in,
        query,
        reversal,
        removed,
        scratches,
        budget,
        progress,
        timings.as_deref_mut(),
    )?;
    if delta.rects.is_empty() {
        return Ok((None, false, RepairReport::default())); // no witness crossed any deleted edge
    }
    // Grouping the affected sources is the rewrite's first step, as it is
    // an insertion's (`Rectangles::merged_into`).
    let groups = timed(timings.as_deref_mut().map(|t| &mut t.splice), || {
        delta.groups(old_csr_out.num_nodes())
    });
    let report = RepairReport {
        new_pairs: 0,
        overdeleted_pairs: groups.sources.iter().map(|&(_, g)| groups.targets[g].len() as u64).sum(),
        rederived_sources: groups.sources.len() as u64,
    };

    // Phase 2 — re-derive: answering again from the affected sources over
    // the post-deletion graph gives their rows as they are now, a chunk at a
    // time as a materialization's workers sweep them: a chunk's rows are
    // written before the next one runs, and a trip stops at a chunk boundary.
    let mut scratch = LaneScratch::new(new_csr_out, query);
    let (mut writer, mut rows) = (old.rewrite_rows(spare.take()), Vec::new());
    let widen = |&(x, y): &(u32, u32)| (x as NodeId, y as NodeId);
    for chunk in groups.sources.chunks(LANES) {
        let swept = timed(timings.as_deref_mut().map(|t| &mut t.rederive), || {
            rows.clear();
            progress.poll(budget)?;
            eval_csr_sources_budgeted(
                new_csr_out,
                query,
                chunk.iter().map(|&(x, _)| x),
                &mut scratch,
                &mut rows,
                budget,
                progress,
            )
        });
        if let Err(why) = swept {
            writer.abandon(spare);
            return Err(why);
        }
        timed(timings.as_deref_mut().map(|t| &mut t.splice), || {
            // The kernel emits rows in source order and none for a source
            // it finds nothing from: that source's new row is empty.
            let mut rest = rows.as_slice();
            for &(x, _) in chunk {
                let (row, after) = rest.split_at(rest.partition_point(|&(source, _)| source == x));
                writer.row(x as NodeId).1.extend(row.iter().map(widen));
                rest = after;
            }
        });
    }
    let (repaired, allocated) = timed(timings.map(|t| &mut t.splice), || writer.finish());
    Ok((Some(repaired), allocated, report))
}

/// The nodes the single-source kernel reaches over `(csr, automaton)` from
/// `(node, [state])`: targets over the outgoing CSR and the query, sources
/// over the incoming CSR and its reversal.  The kernel charges a sweep's
/// last visits unchecked, so the cap is checked here, before the next sweep.
fn reached(
    csr: &CsrAdjacency,
    automaton: &DenseNfa,
    (node, state): (u32, u32),
    scratch: &mut EvalScratch,
    budget: &SweepBudget,
    progress: &SweepState,
) -> Result<Vec<NodeId>, SweepInterrupt> {
    let found =
        eval_csr_from_budgeted(csr, automaton, node, &[state], None, scratch, budget, progress)?;
    progress.poll(budget)?;
    Ok(found.targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::Alphabet;
    use graphdb::{eval_csr, Answer, GraphDb};

    /// Repairs `old` with the delta of one inserted edge and checks the
    /// result against from-scratch evaluation on the updated database.
    fn check_repair(db: &mut GraphDb, query_src: &str, from: &str, label: &str, to: &str) {
        let nfa =
            regexlang::thompson(&regexlang::parse(query_src).unwrap(), db.domain()).unwrap();
        let dense = DenseNfa::from_nfa(&nfa);
        let rev = dense.reverse_closed();
        let mut answer = eval_csr(&db.csr_out(), &dense);

        let sym = db.domain().symbol(label).unwrap();
        let (f, t) = (db.node(from), db.node(to));
        db.add_edge(f, sym, t);
        let (csr_out, csr_in) = (db.csr_out(), db.csr_in());
        answer.extend(delta_pairs(&csr_out, &csr_in, &dense, &rev, f, sym, t));

        let fresh: Answer = eval_csr(&csr_out, &dense);
        assert_eq!(answer, fresh, "repair mismatch for {query_src} + {from}-{label}->{to}");
    }

    #[test]
    fn repairs_the_paper_chain() {
        let mut db = GraphDb::new(Alphabet::from_chars(['a', 'b', 'c']).unwrap());
        db.add_edge_named("n0", "a", "n1");
        db.add_edge_named("n1", "b", "n2");
        db.add_edge_named("n1", "c", "n1");
        check_repair(&mut db, "a·(b·a+c)*", "n2", "a", "n1");
    }

    #[test]
    fn repairs_paths_crossing_the_new_edge_twice() {
        // x* on a chain broken in the middle: inserting the bridge creates
        // pairs whose witnesses cross it, and (via the loop) some that cross
        // twice.
        let mut db = GraphDb::new(Alphabet::from_chars(['x']).unwrap());
        db.add_edge_named("v0", "x", "v1");
        db.add_edge_named("v2", "x", "v3");
        db.add_edge_named("v3", "x", "v0");
        check_repair(&mut db, "x*", "v1", "x", "v2");
    }

    #[test]
    fn unread_labels_produce_no_delta() {
        let mut db = GraphDb::new(Alphabet::from_chars(['a', 'b']).unwrap());
        db.add_edge_named("p", "a", "q");
        let nfa = regexlang::thompson(&regexlang::parse("a*").unwrap(), db.domain()).unwrap();
        let dense = DenseNfa::from_nfa(&nfa);
        let rev = dense.reverse_closed();
        let sym = db.domain().symbol("b").unwrap();
        let (p, q) = (db.node("p"), db.node("q"));
        db.add_edge(q, sym, p);
        assert!(delta_pairs(&db.csr_out(), &db.csr_in(), &dense, &rev, q, sym, p).is_empty());
    }

    #[test]
    fn self_loop_insertions_are_repaired() {
        let mut db = GraphDb::new(Alphabet::from_chars(['a', 'b']).unwrap());
        db.add_edge_named("u", "a", "v");
        db.add_edge_named("v", "b", "w");
        check_repair(&mut db, "a·b*", "v", "b", "v");
    }

    #[test]
    fn a_batch_is_repaired_in_one_call_and_gains_only_what_was_missing() {
        // Two bridges into the same loop, one of them listed twice, plus a
        // label the query never reads: the batch's rectangles overlap each
        // other and the cached answer.
        let mut db = GraphDb::new(Alphabet::from_chars(['x', 'y']).unwrap());
        db.add_edge_named("v0", "x", "v1");
        db.add_edge_named("v2", "x", "v3");
        db.add_edge_named("v3", "x", "v2");
        let nfa = regexlang::thompson(&regexlang::parse("x*").unwrap(), db.domain()).unwrap();
        let dense = DenseNfa::from_nfa(&nfa);
        let rev = dense.reverse_closed();
        let mut answer = eval_csr(&db.csr_out(), &dense);
        let before = answer.len();

        let (x, y) = (db.domain().symbol("x").unwrap(), db.domain().symbol("y").unwrap());
        let node = |name: &str| db.node_by_name(name).unwrap();
        let batch =
            [(node("v1"), x, node("v2")), (node("v0"), y, node("v3")), (node("v1"), x, node("v2")), (node("v0"), x, node("v3"))];
        for (from, label, to) in batch {
            db.add_edge(from, label, to);
        }
        let (budget, progress) = (SweepBudget::unlimited(), SweepState::new());
        let gained = insertion_repair_budgeted(
            &db.csr_out(), &db.csr_in(), &dense, &rev, &batch, &mut answer, &budget, &progress,
        )
        .unwrap();
        assert_eq!(answer, eval_csr(&db.csr_out(), &dense));
        assert_eq!(gained as usize, answer.len() - before);
        assert!(gained > 0 && progress.visited() > 0, "the sweeps charge their visits");
        // Repairing again finds nothing the answer lacks.
        let again = insertion_repair_budgeted(
            &db.csr_out(), &db.csr_in(), &dense, &rev, &batch, &mut answer, &budget, &progress,
        );
        assert_eq!(again, Ok(0));
    }

    #[test]
    fn epsilon_query_gains_pairs_for_new_nodes_only_via_eval() {
        // ε answers every (v, v); a new edge between existing nodes adds
        // nothing even though every node matches at start.
        let mut db = GraphDb::new(Alphabet::from_chars(['a']).unwrap());
        db.add_edge_named("u", "a", "v");
        check_repair(&mut db, "ε", "v", "a", "u");
    }

    /// Repairs the cached answer after deleting the given edges and checks
    /// the result against from-scratch evaluation on the shrunk database.
    fn check_deletion(
        db: &mut GraphDb,
        query_src: &str,
        removals: &[(&str, &str, &str)],
    ) -> RepairReport {
        let nfa =
            regexlang::thompson(&regexlang::parse(query_src).unwrap(), db.domain()).unwrap();
        let dense = DenseNfa::from_nfa(&nfa);
        let rev = dense.reverse_closed();
        let (old_out, old_in) = (db.csr_out(), db.csr_in());
        let mut answer = eval_csr(&old_out, &dense);

        let removed: Vec<(NodeId, automata::Symbol, NodeId)> = removals
            .iter()
            .map(|&(f, l, t)| {
                let sym = db.domain().symbol(l).unwrap();
                let (f, t) = (db.node(f), db.node(t));
                assert!(db.remove_edge(f, sym, t), "{f}-{l}->{t} must exist");
                (f, sym, t)
            })
            .collect();
        let new_out = db.csr_out();
        let report =
            deletion_repair(&old_out, &old_in, &new_out, &dense, &rev, &removed, &mut answer);

        let fresh: Answer = eval_csr(&new_out, &dense);
        assert_eq!(answer, fresh, "deletion repair mismatch for {query_src} - {removals:?}");
        report
    }

    #[test]
    fn deleting_the_paper_chain_bridge_shrinks_the_answer() {
        let mut db = GraphDb::new(Alphabet::from_chars(['a', 'b', 'c']).unwrap());
        db.add_edge_named("n0", "a", "n1");
        db.add_edge_named("n1", "b", "n2");
        db.add_edge_named("n1", "c", "n1");
        db.add_edge_named("n2", "a", "n1");
        let report = check_deletion(&mut db, "a·(b·a+c)*", &[("n0", "a", "n1")]);
        assert!(report.overdeleted_pairs > 0);
        assert!(report.rederived_sources > 0);
    }

    #[test]
    fn surviving_witnesses_are_rederived() {
        // Two disjoint x-paths from u to w; deleting one leaves (u, w)
        // derivable through the other — over-deleted, then re-derived.
        let mut db = GraphDb::new(Alphabet::from_chars(['x']).unwrap());
        db.add_edge_named("u", "x", "v1");
        db.add_edge_named("v1", "x", "w");
        db.add_edge_named("u", "x", "v2");
        db.add_edge_named("v2", "x", "w");
        let report = check_deletion(&mut db, "x·x", &[("u", "x", "v1")]);
        assert_eq!(report.overdeleted_pairs, 1, "(u, w) crossed the deleted edge");
        assert_eq!(report.rederived_sources, 1, "u must be re-swept");
    }

    #[test]
    fn unread_labels_cost_no_deletion_work() {
        let mut db = GraphDb::new(Alphabet::from_chars(['a', 'b']).unwrap());
        db.add_edge_named("p", "a", "q");
        db.add_edge_named("q", "b", "p");
        let report = check_deletion(&mut db, "a*", &[("q", "b", "p")]);
        assert_eq!(report, RepairReport::default());
    }

    #[test]
    fn batch_deletion_covers_paths_crossing_several_deleted_edges() {
        // x* on a cycle: deleting two edges of the cycle at once must drop
        // every pair whose only witnesses crossed either edge.
        let mut db = GraphDb::new(Alphabet::from_chars(['x']).unwrap());
        db.add_edge_named("v0", "x", "v1");
        db.add_edge_named("v1", "x", "v2");
        db.add_edge_named("v2", "x", "v3");
        db.add_edge_named("v3", "x", "v0");
        let report = check_deletion(&mut db, "x*", &[("v1", "x", "v2"), ("v3", "x", "v0")]);
        // Each edge's rectangle is all 16 pairs; their union is counted
        // once, and every source is re-derived.
        assert_eq!(report, RepairReport { new_pairs: 0, overdeleted_pairs: 16, rederived_sources: 4 });
    }

    #[test]
    fn self_loop_deletions_are_repaired() {
        let mut db = GraphDb::new(Alphabet::from_chars(['a', 'b']).unwrap());
        db.add_edge_named("u", "a", "v");
        db.add_edge_named("v", "b", "v");
        db.add_edge_named("v", "b", "w");
        check_deletion(&mut db, "a·b*", &[("v", "b", "v")]);
    }

    #[test]
    fn epsilon_pairs_survive_every_deletion() {
        // Identity pairs are witnessed by the empty path, which no deletion
        // can break: over-deletion may remove (v, v) when a loop witness
        // crossed the edge, but re-derivation restores it.
        let mut db = GraphDb::new(Alphabet::from_chars(['c']).unwrap());
        db.add_edge_named("u", "c", "v");
        db.add_edge_named("v", "c", "u");
        check_deletion(&mut db, "c*", &[("u", "c", "v")]);
    }
}
