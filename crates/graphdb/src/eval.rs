//! Regular path query evaluation over a graph database.
//!
//! The answer to a regular path query `Q` over a database `DB` is the set of
//! node pairs `(x, y)` connected by a path whose label word belongs to
//! `L(Q)` (Definition 4.2).  Evaluation is the classic product construction:
//! explore the product of the graph with the query automaton; `(x, y)` is an
//! answer iff some `(y, final)` product state is reachable from
//! `(x, initial)`.
//!
//! Three kernels walk that product, one per shape of question:
//!
//! * [`eval_csr_sources`] — **full materialization**, the paper's all-pairs
//!   semantics: every answer pair from a set of sources.  It is a
//!   multi-source BFS, [`LANES`] sources per sweep, each product state
//!   carrying a `u64` of the sources that have reached it, so an edge many
//!   sources cross is followed once.  Its output is sorted as emitted.
//!   [`eval_csr`], the parallel pool, view materialization and DRed
//!   re-derivation in the `engine` crate all bottom out in it; there is no
//!   other full-materialization path.
//! * [`eval_csr_from`] — one source, optionally stopping at the k-th target.
//! * [`eval_csr_pair`] — one pair, bidirectional, stopping at the first meet.
//!
//! The two point kernels run one private BFS over a [`ProductVisited`]
//! bitmap and share nothing with the lane kernel but the inputs, which is
//! what makes them its test oracle (`tests/lane_eval.rs`).
//!
//! The kernels sweep the automaton they are handed.  The regex entry points
//! of this crate ([`eval_regex`], [`eval_str`], view materialization, witness
//! search) hand them [`regexlang::compile`]'s — the position automaton with
//! bisimilar states merged, ε-free and trim — and the tree-[`Nfa`] entry
//! points a frozen, trimmed copy of the caller's automaton.
//!
//! # What is queued, what is counted
//!
//! A product state `(node, q)` whose automaton state `q` reads no label — no
//! successor on any symbol — has nothing to expand.  Every forward sweep
//! *records* such a state (marks it reached, and found if `q` is final) and
//! **never queues it**: the lane kernel, [`eval_csr_from`] and the forward
//! half of [`eval_csr_pair`] all apply this one rule, to start states as much
//! as to successors.  The final state of `h·(f+g)*·e` is the typical case:
//! every answer pair ends in one, and none of them costs a pop.  A sweep's
//! visit count — what a [`SweepBudget`]'s `max_visited` bounds and what
//! [`eval_csr_sources`] returns — is the number of product states it
//! *expands* (pops), one per source they are expanded for; recorded-only
//! states are free, so the lane kernel's count still equals the sum of its
//! seeded sources' [`eval_csr_from`] counts.

use std::collections::{BTreeSet, VecDeque};

use automata::{Alphabet, DenseNfa, DenseReverse, Nfa, StateId};
use regexlang::Regex;

use crate::answer::SortedPairs;
use crate::budget::{SweepBudget, SweepInterrupt, SweepState, SWEEP_CHECK_INTERVAL};
use crate::graph::{CsrAdjacency, GraphDb, NodeId};

/// The answer to a path query: a set of ordered node pairs.
///
/// Backed by the sorted-vector [`SortedPairs`] representation (the seed used
/// a `BTreeSet`); iteration order and the set-shaped API are unchanged, but
/// bulk construction from the parallel evaluator's sorted runs is a
/// galloping merge instead of tree insertion.  The seed representation
/// survives as [`AnswerSet`] for differential testing.
pub type Answer = SortedPairs;

/// The seed's answer representation, kept as the differential oracle: the
/// property suites evaluate each query through both representations and
/// require identical pair sets.
pub type AnswerSet = BTreeSet<(NodeId, NodeId)>;

/// Evaluates an automaton-form query over the database.
///
/// The automaton must be over the database's label domain.  The worst case
/// is the textbook bound for RPQ evaluation, `O(|V| · (|V| + |E|) · |Q|)` —
/// one product-BFS per source — but the sources are swept [`LANES`] at a time
/// by the lane kernel ([`eval_csr_sources`]), so an edge that 64 sources all
/// cross is followed once, not 64 times.
///
/// The implementation runs on the dense core: the query is frozen into a
/// [`DenseNfa`] (ε-closures folded into CSR successor lists once, then
/// trimmed) and the database adjacency into a CSR array.
pub fn eval_automaton(db: &GraphDb, query: &Nfa) -> Answer {
    eval_dense(db, &freeze(query))
}

/// Freezes a tree automaton for a product sweep: dense, and
/// [trim](DenseNfa::trim), so no source is walked into states no accepting
/// run visits (a complemented rewriting automaton always has such a sink).
pub(crate) fn freeze(query: &Nfa) -> DenseNfa {
    DenseNfa::from_nfa(query).trim()
}

/// Like [`eval_automaton`] but over an already-frozen query automaton, so
/// repeated evaluations (e.g. one per view) skip the freezing step.
pub fn eval_dense(db: &GraphDb, query: &DenseNfa) -> Answer {
    eval_csr(&db.csr_out(), query)
}

/// Like [`eval_dense`] but over an already-frozen adjacency, so callers that
/// evaluate several automata on one database (view materialization, the
/// benchmarks) build the CSR once.  The adjacency carries its database's
/// domain, so incompatible query alphabets fail loudly here too.
pub fn eval_csr(csr: &CsrAdjacency, query: &DenseNfa) -> Answer {
    let mut scratch = LaneScratch::new(csr, query);
    let mut pairs = Vec::new();
    eval_csr_sources(csr, query, 0..csr.num_nodes() as u32, &mut scratch, &mut pairs);
    Answer::from_sorted_runs(vec![pairs])
}

/// Panics (on the caller's thread, with the caller-facing message) unless
/// `query`'s alphabet is compatible with the database domain behind `csr`.
/// Every kernel entry point runs it: the check is `O(|Σ|)`, against a few
/// dozen chunks per parallel evaluation.
fn check_domain(csr: &CsrAdjacency, query: &DenseNfa) {
    csr.domain()
        .check_compatible(query.alphabet())
        .expect("query automaton must be over the database domain");
}

/// Dense visited bitmap over `(node, state)` product pairs with an
/// `O(visited)` reset: dirty words are journaled so unmarking costs one pass
/// over what the sweep touched, not `O(V·Q)`.
///
/// The layout is word-aligned per node — each node owns
/// [`ProductVisited::stride`] consecutive `u64` words covering its state
/// bits — so a whole successor state-set can be tested-and-marked with one
/// [`ProductVisited::visit_word`] per word instead of one
/// [`ProductVisited::visit`] per state.
///
/// This is the shared core of every one-source product sweep — the point
/// kernels below and the backward/forward delta sweeps of the `engine`
/// crate.  (The lane kernel keeps a lane word, not a bit, per product state:
/// see [`LaneScratch`].)
#[derive(Debug)]
pub struct ProductVisited {
    stride: usize,
    words: Vec<u64>,
    dirty_words: Vec<usize>,
}

impl ProductVisited {
    /// Allocates a bitmap for sweeps of a `num_states`-state automaton over
    /// a `num_nodes`-node graph.
    pub fn new(num_nodes: usize, num_states: usize) -> Self {
        let stride = num_states.max(1).div_ceil(64);
        ProductVisited {
            stride,
            words: vec![0u64; num_nodes * stride],
            dirty_words: Vec::new(),
        }
    }

    /// Words per node: `ceil(num_states / 64)`.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Marks `(node, state)`, returning `true` if it was unvisited.
    #[inline]
    pub fn visit(&mut self, node: u32, state: u32) -> bool {
        let word = node as usize * self.stride + (state as usize >> 6);
        let mask = 1u64 << (state & 63);
        let w = &mut self.words[word];
        if *w & mask != 0 {
            return false;
        }
        if *w == 0 {
            self.dirty_words.push(word);
        }
        *w |= mask;
        true
    }

    /// Marks every state of `mask` (bits `word * 64 ..`) at `node` in one
    /// operation, returning the bits that were previously unvisited.
    #[inline]
    pub fn visit_word(&mut self, node: u32, word: usize, mask: u64) -> u64 {
        let at = node as usize * self.stride + word;
        let w = &mut self.words[at];
        let new = mask & !*w;
        if new != 0 {
            if *w == 0 {
                self.dirty_words.push(at);
            }
            *w |= new;
        }
        new
    }

    /// Whether `(node, state)` is marked (no mutation).
    #[inline]
    pub fn contains(&self, node: u32, state: u32) -> bool {
        let word = node as usize * self.stride + (state as usize >> 6);
        self.words[word] & (1u64 << (state & 63)) != 0
    }

    /// The visited bitmap word `word` (state bits `word * 64 ..`) of `node`.
    ///
    /// The bidirectional pair evaluator ANDs a forward expansion's new bits
    /// against the *other* direction's word to detect a meet without a
    /// per-state loop.
    #[inline]
    pub fn word(&self, node: u32, word: usize) -> u64 {
        self.words[node as usize * self.stride + word]
    }

    /// Unmarks everything the last sweep visited, in `O(visited words)`.
    pub fn reset(&mut self) {
        for &word in &self.dirty_words {
            self.words[word] = 0;
        }
        self.dirty_words.clear();
    }
}

/// Reusable buffers for [`eval_csr_from`]: the [`ProductVisited`] bitmap, the
/// found-target flags, the BFS queue, and the per-`(state, label)` successor
/// word table the widened inner loop reads.
///
/// One scratch serves any number of single-source sweeps against the same
/// `(csr, query)` pair — the successor table is compiled from *that* query,
/// so a scratch must not be reused across different automata.
#[derive(Debug)]
pub struct EvalScratch {
    visited: ProductVisited,
    found: Vec<bool>,
    found_nodes: Vec<u32>,
    queue: VecDeque<(u32, u32)>,
    /// `ceil(num_states / 64)` — words per node / per successor set.
    stride: usize,
    num_symbols: usize,
    /// `(state * num_symbols + symbol) * stride ..` holds the ε-closed
    /// successor state-set of `state` under `symbol` as a bitmap.
    succ_words: Vec<u64>,
    /// Final-state bitmap (`stride` words), so "did this word of new states
    /// hit a final state" is one AND instead of a per-state query.
    finals_words: Vec<u64>,
    /// Bitmap (`stride` words) of the states that read some label: the only
    /// ones worth queueing (module docs).
    moving_words: Vec<u64>,
}

/// Whether `state`'s bit is set in a state bitmap.
#[inline]
fn has_state(words: &[u64], state: u32) -> bool {
    words[state as usize >> 6] & (1u64 << (state & 63)) != 0
}

/// The word-level view of `query` the point kernels read: per
/// `(state, symbol)` the successor state-set as a `stride`-word bitmap
/// (`(state * num_symbols + symbol) * stride ..`), and the `stride`-word
/// bitmap of the states with a successor on some symbol.
fn successor_words(query: &DenseNfa, num_symbols: usize, stride: usize) -> (Vec<u64>, Vec<u64>) {
    let mut succ_words = vec![0u64; query.num_states().max(1) * num_symbols * stride];
    let mut moving_words = vec![0u64; stride];
    for state in 0..query.num_states() {
        for symbol in 0..query.num_symbols() {
            let base = (state * num_symbols + symbol) * stride;
            for &q in query.closed_successors(state as u32, symbol) {
                succ_words[base + (q as usize >> 6)] |= 1u64 << (q & 63);
                moving_words[state >> 6] |= 1u64 << (state & 63);
            }
        }
    }
    (succ_words, moving_words)
}

impl EvalScratch {
    /// Allocates buffers sized for product sweeps of `query` over `csr` and
    /// compiles the query's successor lists into word-level bitmaps.
    pub fn new(csr: &CsrAdjacency, query: &DenseNfa) -> Self {
        let num_nodes = csr.num_nodes();
        let num_states = query.num_states().max(1);
        let num_symbols = query.num_symbols().max(1);
        let stride = num_states.div_ceil(64);
        let (succ_words, moving_words) = successor_words(query, num_symbols, stride);
        let mut finals_words = vec![0u64; stride];
        for state in 0..query.num_states() {
            if query.is_final(state as u32) {
                finals_words[state >> 6] |= 1u64 << (state & 63);
            }
        }
        EvalScratch {
            visited: ProductVisited::new(num_nodes, query.num_states()),
            found: vec![false; num_nodes],
            found_nodes: Vec::new(),
            queue: VecDeque::new(),
            stride,
            num_symbols,
            succ_words,
            finals_words,
            moving_words,
        }
    }
}

/// Sources one batch of the lane kernel sweeps together: one per bit of a
/// `u64` lane word.
pub const LANES: usize = 64;

/// Reusable per-worker buffers for [`eval_csr_sources`], the lane-parallel
/// full-materialization kernel.
///
/// Memory follows what a batch *touches*, not `|V| · |Q|`: a node gets a
/// block of lane words the first time any lane of the batch reaches it, out
/// of an arena that is emptied between batches, so a sparse sweep over a
/// large graph stays small.  Like [`EvalScratch`], a scratch belongs to one
/// `(csr, query)` pair.
#[derive(Debug)]
pub struct LaneScratch {
    /// `0` while the node is untouched by the current batch, else one more
    /// than the index of its block in `arena`.
    slot: Vec<u32>,
    /// One block of `1 + 2·|Q|` words per touched node.  Word 0: the lanes
    /// that found the node as a target.  Words `1 + 2q` and `2 + 2q`: the
    /// lanes that have reached `(node, q)`, and those among them that
    /// arrived since `(node, q)` was last expanded — non-zero exactly while
    /// it sits in `queue`.
    arena: Vec<u64>,
    block_words: usize,
    /// Nodes holding a block, in first-touch order.
    touched: Vec<u32>,
    /// Nodes whose found word is non-zero.
    found_nodes: Vec<u32>,
    queue: VecDeque<(u32, u32)>,
    /// The batch's sources, ascending: lane `i` sweeps from `lanes[i]`.
    lanes: Vec<u32>,
    /// Per label: whether some start state moves on it.  A source with no
    /// such out-edge reaches nothing (unless ε ∈ L(Q)) and is never seeded.
    first: Vec<bool>,
    /// `reads[q · |Σ| + a]`: whether state `q` has a successor on label `a`.
    /// Rows are scanned label-blind, and on a selective query nearly every
    /// edge a pop looks at fails this test: one byte decides it.
    reads: Vec<bool>,
    /// `moves[q]`: whether state `q` reads any label at all.  One that does
    /// not is recorded on arrival and never queued (module docs).
    moves: Vec<bool>,
    num_symbols: usize,
}

impl LaneScratch {
    /// Allocates buffers for lane sweeps of `query` over `csr`.
    pub fn new(csr: &CsrAdjacency, query: &DenseNfa) -> Self {
        let num_symbols = query.num_symbols();
        let reads: Vec<bool> = (0..query.num_states() as u32)
            .flat_map(|q| (0..num_symbols).map(move |a| !query.closed_successors(q, a).is_empty()))
            .collect();
        let first = (0..num_symbols)
            .map(|a| query.start().iter().any(|&q| reads[q as usize * num_symbols + a]))
            .collect();
        let moves = (0..query.num_states())
            .map(|q| reads[q * num_symbols..(q + 1) * num_symbols].contains(&true))
            .collect();
        LaneScratch {
            slot: vec![0; csr.num_nodes()],
            arena: Vec::new(),
            block_words: 1 + 2 * query.num_states(),
            touched: Vec::new(),
            found_nodes: Vec::new(),
            queue: VecDeque::new(),
            lanes: Vec::with_capacity(LANES),
            first,
            reads,
            moves,
            num_symbols,
        }
    }

    /// Offset in the arena of the block `node` already holds.
    #[inline]
    fn held(&self, node: u32) -> usize {
        (self.slot[node as usize] as usize - 1) * self.block_words
    }

    /// Offset of `node`'s block in the arena, allocated zeroed on the
    /// batch's first touch.
    #[inline]
    fn block(&mut self, node: u32) -> usize {
        if self.slot[node as usize] == 0 {
            self.touched.push(node);
            self.slot[node as usize] = self.touched.len() as u32;
            self.arena.resize(self.arena.len() + self.block_words, 0);
        }
        self.held(node)
    }

    /// Adds `lanes` to `(node, state)` of the block at `base` and returns the
    /// lanes that had not reached it before.  A state that reads some label
    /// is queued for them, unless it is already waiting with earlier
    /// arrivals; one that reads none is only recorded.
    #[inline]
    fn arrive(&mut self, base: usize, node: u32, state: u32, lanes: u64) -> u64 {
        let at = base + 1 + 2 * state as usize;
        let new = lanes & !self.arena[at];
        if new != 0 {
            self.arena[at] |= new;
            if self.moves[state as usize] {
                if self.arena[at + 1] == 0 {
                    self.queue.push_back((node, state));
                }
                self.arena[at + 1] |= new;
            }
        }
        new
    }

    /// Records `lanes` as having found the node whose block is at `base`.
    #[inline]
    fn found(&mut self, base: usize, node: u32, lanes: u64) {
        if lanes != 0 {
            if self.arena[base] == 0 {
                self.found_nodes.push(node);
            }
            self.arena[base] |= lanes;
        }
    }

    /// Appends the batch's answers to `pairs`, ordered by `(source, target)`:
    /// a counting sort of the found words by lane, over the found nodes in
    /// ascending order.
    fn emit(&mut self, pairs: &mut Vec<(u32, u32)>) {
        self.found_nodes.sort_unstable();
        // Each lane's target count, then — in place — where its row starts.
        let mut next = [0usize; LANES];
        for &node in &self.found_nodes {
            let mut bits = self.arena[self.held(node)];
            while bits != 0 {
                next[bits.trailing_zeros() as usize] += 1;
                bits &= bits - 1;
            }
        }
        let mut end = pairs.len();
        for row in &mut next {
            let count = std::mem::replace(row, end);
            end += count;
        }
        pairs.resize(end, (0, 0));
        for &node in &self.found_nodes {
            let mut bits = self.arena[self.held(node)];
            while bits != 0 {
                let lane = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                pairs[next[lane]] = (self.lanes[lane], node);
                next[lane] += 1;
            }
        }
    }

    /// Forgets the current batch, in `O(touched)`.
    fn clear_batch(&mut self) {
        for &node in &self.touched {
            self.slot[node as usize] = 0;
        }
        self.touched.clear();
        self.arena.clear();
        self.found_nodes.clear();
        self.queue.clear();
    }
}

/// The full-materialization kernel: appends to `pairs` every answer pair
/// `(source, target)` of `query` whose source is in `sources`, **sorted** —
/// `sources` must be strictly ascending, and what is appended is then
/// strictly increasing in tuple order, so a caller never sorts a run.
/// Returns the product states expanded, counted per source (see below and
/// the module docs).
///
/// This is a multi-source BFS over the product graph.  Up to [`LANES`]
/// sources share one worklist: a product state `(node, q)` carries a `u64` of
/// the sources that have reached it and a `u64` of those that arrived since
/// it was last expanded.  Popping it expands only the new arrivals, an edge
/// is followed once for all of them (`new = lanes & !seen`), and a state that
/// is already queued absorbs later arrivals instead of being queued again.
/// Sources that cannot move — no out-edge on a label some start state reads,
/// and ε ∉ L(`query`) — are never given a lane, so batches are full of
/// sources that do work.
///
/// Every pop counts `lanes.count_ones()` visits, one per source it expands
/// the state for: the total is exactly what one [`eval_csr_from`] sweep per
/// seeded source pops.
///
/// Each source's sweep is independent of which others share its batch, so
/// disjoint source sets can run on different threads against the same shared
/// `csr` and `query`, each with its own [`LaneScratch`] and output buffer.
pub fn eval_csr_sources(
    csr: &CsrAdjacency,
    query: &DenseNfa,
    sources: impl IntoIterator<Item = u32>,
    scratch: &mut LaneScratch,
    pairs: &mut Vec<(u32, u32)>,
) -> u64 {
    let (unlimited, progress) = (SweepBudget::unlimited(), SweepState::new());
    eval_csr_sources_budgeted(csr, query, sources, scratch, pairs, &unlimited, &progress)
        .expect("unlimited sweeps cannot be interrupted")
}

/// Budgeted variant of [`eval_csr_sources`]: the same sweep, charging its
/// visits to the shared `progress` and checking `budget` every
/// [`SWEEP_CHECK_INTERVAL`] of them.  Returns this call's visit count, so a
/// parallel worker can attribute work to itself and not just to the shared
/// aggregate.
///
/// A budget that sets no limit cannot trip, so it takes the instantiation
/// with the checks compiled out: `progress` is not charged, but the count is
/// still returned.  This is the one place that choice is made; callers pass
/// whatever budget they hold.
///
/// On interrupt the whole batch in flight (at most [`LANES`] sources) is
/// discarded and the scratch left reusable; `pairs` keeps the answers of the
/// batches completed before it, and the error carries the cause;
/// `progress.visited()` reports the aggregate partial work.  Workers sharing
/// one `progress` all observe the first trip, so a deadline stops the whole
/// evaluation, not one shard.
pub fn eval_csr_sources_budgeted(
    csr: &CsrAdjacency,
    query: &DenseNfa,
    sources: impl IntoIterator<Item = u32>,
    scratch: &mut LaneScratch,
    pairs: &mut Vec<(u32, u32)>,
    budget: &SweepBudget,
    progress: &SweepState,
) -> Result<u64, SweepInterrupt> {
    check_domain(csr, query);
    let sources = sources.into_iter();
    if budget.is_unlimited() {
        lane_sweep::<false>(csr, query, sources, scratch, pairs, budget, progress)
    } else {
        lane_sweep::<true>(csr, query, sources, scratch, pairs, budget, progress)
    }
}

/// The lane kernel.  `BUDGETED` is a compile-time switch so the un-budgeted
/// pop loop carries the visit tally but no check; it is private to this
/// module, selected by [`eval_csr_sources_budgeted`].
fn lane_sweep<const BUDGETED: bool>(
    csr: &CsrAdjacency,
    query: &DenseNfa,
    mut sources: impl Iterator<Item = u32>,
    scratch: &mut LaneScratch,
    pairs: &mut Vec<(u32, u32)>,
    budget: &SweepBudget,
    progress: &SweepState,
) -> Result<u64, SweepInterrupt> {
    let start_accepts = query.any_final(query.start());
    // Visits of this call, and how many of them `progress` has been charged;
    // both persist across batches so many tiny ones still reach the check
    // interval.
    let (mut visited, mut charged) = (0u64, 0u64);
    let mut previous = None;
    loop {
        scratch.lanes.clear();
        while scratch.lanes.len() < LANES {
            let Some(source) = sources.next() else { break };
            debug_assert!(previous.replace(source).is_none_or(|p| p < source), "sources must ascend");
            let first = &scratch.first;
            if start_accepts || csr.edges_from(source).any(|(label, _)| first[label as usize]) {
                scratch.lanes.push(source);
            }
        }
        if scratch.lanes.is_empty() {
            break;
        }
        for lane in 0..scratch.lanes.len() {
            let (source, bit) = (scratch.lanes[lane], 1u64 << lane);
            let base = scratch.block(source);
            for &q in query.start() {
                scratch.arrive(base, source, q, bit);
            }
            if start_accepts {
                scratch.found(base, source, bit);
            }
        }
        while let Some((node, state)) = scratch.queue.pop_front() {
            let waiting = scratch.held(node) + 2 + 2 * state as usize;
            let lanes = std::mem::take(&mut scratch.arena[waiting]);
            visited += u64::from(lanes.count_ones());
            if BUDGETED && visited - charged >= SWEEP_CHECK_INTERVAL {
                let due = visited - charged;
                charged = visited;
                if let Err(why) = progress.charge(budget, due) {
                    scratch.clear_batch();
                    return Err(why);
                }
            }
            let row = state as usize * scratch.num_symbols;
            for (label, next_node) in csr.edges_from(node) {
                if !scratch.reads[row + label as usize] {
                    continue;
                }
                let base = scratch.block(next_node);
                let mut found = 0u64;
                // ε-closures are folded into the successor lists.
                for &q in query.closed_successors(state, label as usize) {
                    let new = scratch.arrive(base, next_node, q, lanes);
                    if query.is_final(q) {
                        found |= new;
                    }
                }
                scratch.found(base, next_node, found);
            }
        }
        scratch.emit(pairs);
        scratch.clear_batch();
    }
    if BUDGETED && visited > charged {
        // Account the tail so `progress.visited()` is exact; the sources are
        // complete, so a trip here only affects sibling shards.
        let _ = progress.charge(budget, visited - charged);
    }
    Ok(visited)
}

/// The result of a single-source sweep: the targets reachable from one
/// source under the query, plus whether that list is the *complete* answer.
///
/// `complete` is `false` exactly when a `limit` stopped the sweep the moment
/// the k-th target was found — including the boundary case where the k-th
/// target happened to be the last one, since deciding that would require
/// draining the frontier anyway.  Callers use `complete` as the "safe to
/// cache as the full answer" bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reachable {
    /// Reachable target nodes, sorted ascending, duplicate-free.
    pub targets: Vec<NodeId>,
    /// `true` iff the frontier drained, so `targets` is the full answer set
    /// for this source.
    pub complete: bool,
}

/// Single-source product-BFS: the targets reachable from `source` under
/// `query`, stopping early once `limit` targets are found (top-k).
///
/// One private product-BFS from the seed `(source, q₀)`; unlike the full
/// sweep ([`eval_csr_sources`]) it never touches the other `|V|-1` sources,
/// so a point lookup costs one BFS instead of a materialization.
/// Targets are returned sorted ascending (the BFS discovers them in
/// traversal order; *which* k targets are kept under a `limit` is
/// unspecified beyond being genuine answers).
///
/// # Panics
///
/// Panics if `query` is not over the database domain behind `csr`, or if
/// `source >= csr.num_nodes()`.
pub fn eval_csr_from(
    csr: &CsrAdjacency,
    query: &DenseNfa,
    source: u32,
    limit: Option<usize>,
    scratch: &mut EvalScratch,
) -> Reachable {
    let (unlimited, progress) = (SweepBudget::unlimited(), SweepState::new());
    eval_csr_from_budgeted(csr, query, source, limit, scratch, &unlimited, &progress)
        .expect("unlimited sweeps cannot be interrupted")
}

/// Budgeted variant of [`eval_csr_from`]: checks `budget` against `progress`
/// every [`SWEEP_CHECK_INTERVAL`] pops (a budget with no limit takes the
/// check-free instantiation, like [`eval_csr_sources_budgeted`]).  On interrupt
/// the scratch is reset (reusable) and no partial result escapes — an
/// interrupted point lookup must never be mistaken for a verdict.
///
/// # Panics
///
/// Panics if `query` is not over the database domain behind `csr`, or if
/// `source >= csr.num_nodes()`.
pub fn eval_csr_from_budgeted(
    csr: &CsrAdjacency,
    query: &DenseNfa,
    source: u32,
    limit: Option<usize>,
    scratch: &mut EvalScratch,
    budget: &SweepBudget,
    progress: &SweepState,
) -> Result<Reachable, SweepInterrupt> {
    check_domain(csr, query);
    if budget.is_unlimited() {
        eval_csr_from_impl::<false>(csr, query, source, limit, scratch, budget, progress)
    } else {
        eval_csr_from_impl::<true>(csr, query, source, limit, scratch, budget, progress)
    }
}

fn eval_csr_from_impl<const BUDGETED: bool>(
    csr: &CsrAdjacency,
    query: &DenseNfa,
    source: u32,
    limit: Option<usize>,
    scratch: &mut EvalScratch,
    budget: &SweepBudget,
    progress: &SweepState,
) -> Result<Reachable, SweepInterrupt> {
    assert!(
        (source as usize) < csr.num_nodes(),
        "source node {source} out of range for a {}-node database",
        csr.num_nodes()
    );
    let EvalScratch {
        visited,
        found,
        found_nodes,
        queue,
        stride,
        num_symbols,
        succ_words,
        finals_words,
        moving_words,
    } = scratch;
    let (stride, num_symbols) = (*stride, *num_symbols);
    let cap = limit.unwrap_or(usize::MAX);

    queue.clear();
    let mut since_check: u64 = 0;
    let mut complete = true;
    'sweep: {
        if cap == 0 {
            complete = false;
            break 'sweep;
        }
        for &q in query.start() {
            visited.visit(source, q);
            if has_state(moving_words, q) {
                queue.push_back((source, q));
            }
        }
        if query.any_final(query.start()) {
            found[source as usize] = true;
            found_nodes.push(source);
            if found_nodes.len() >= cap {
                complete = false;
                break 'sweep;
            }
        }
        while let Some((node, state)) = queue.pop_front() {
            if BUDGETED {
                since_check += 1;
                if since_check >= SWEEP_CHECK_INTERVAL {
                    if let Err(why) = progress.charge(budget, since_check) {
                        visited.reset();
                        for &target in found_nodes.iter() {
                            found[target as usize] = false;
                        }
                        found_nodes.clear();
                        queue.clear();
                        return Err(why);
                    }
                    since_check = 0;
                }
            }
            let row = state as usize * num_symbols;
            for (label, next_node) in csr.edges_from(node) {
                let base = (row + label as usize) * stride;
                for w in 0..stride {
                    let mask = succ_words[base + w];
                    if mask == 0 {
                        continue;
                    }
                    let new = visited.visit_word(next_node, w, mask);
                    if new == 0 {
                        continue;
                    }
                    if new & finals_words[w] != 0 && !found[next_node as usize] {
                        found[next_node as usize] = true;
                        found_nodes.push(next_node);
                        if found_nodes.len() >= cap {
                            complete = false;
                            break 'sweep;
                        }
                    }
                    let mut bits = new & moving_words[w];
                    while bits != 0 {
                        let q = (w as u32) * 64 + bits.trailing_zeros();
                        bits &= bits - 1;
                        queue.push_back((next_node, q));
                    }
                }
            }
        }
    }
    if BUDGETED && since_check > 0 {
        // Tail accounting only — the result below stands either way.
        let _ = progress.charge(budget, since_check);
    }
    let mut targets: Vec<NodeId> = found_nodes.iter().map(|&t| t as NodeId).collect();
    targets.sort_unstable();
    visited.reset();
    for &target in found_nodes.iter() {
        found[target as usize] = false;
    }
    found_nodes.clear();
    queue.clear();
    Ok(Reachable { targets, complete })
}

/// Wall-clock split of one bidirectional pair sweep, filled only when the
/// caller passes `Some` — the untraced path makes **zero** clock calls, so
/// tracing stays strictly opt-in (the telemetry overhead contract).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairTimings {
    /// Microseconds spent expanding forward rounds (out of the source).
    pub forward_us: u64,
    /// Microseconds spent expanding backward rounds (into the target).
    pub backward_us: u64,
}

/// Reusable buffers for [`eval_csr_pair`]: one [`ProductVisited`] bitmap and
/// one frontier per direction, plus the same per-`(state, label)` successor
/// word table [`EvalScratch`] compiles.
///
/// Like [`EvalScratch`], one scratch serves any number of pair sweeps
/// against the same `(csr, query)` pair but must not be reused across
/// different automata.
#[derive(Debug)]
pub struct PairScratch {
    forward: ProductVisited,
    backward: ProductVisited,
    fwd_frontier: Vec<(u32, u32)>,
    bwd_frontier: Vec<(u32, u32)>,
    next_frontier: Vec<(u32, u32)>,
    stride: usize,
    num_symbols: usize,
    succ_words: Vec<u64>,
    /// As in [`EvalScratch`]: the states the forward side queues.
    moving_words: Vec<u64>,
}

impl PairScratch {
    /// Allocates buffers sized for bidirectional sweeps of `query` over a
    /// database with `csr`'s node count and compiles the query's successor
    /// lists into word-level bitmaps.
    pub fn new(csr: &CsrAdjacency, query: &DenseNfa) -> Self {
        let num_nodes = csr.num_nodes();
        let num_states = query.num_states().max(1);
        let num_symbols = query.num_symbols().max(1);
        let stride = num_states.div_ceil(64);
        let (succ_words, moving_words) = successor_words(query, num_symbols, stride);
        PairScratch {
            forward: ProductVisited::new(num_nodes, query.num_states()),
            backward: ProductVisited::new(num_nodes, query.num_states()),
            fwd_frontier: Vec::new(),
            bwd_frontier: Vec::new(),
            next_frontier: Vec::new(),
            stride,
            num_symbols,
            succ_words,
            moving_words,
        }
    }
}

/// Bidirectional meet-in-the-middle single-pair evaluation: whether `(source,
/// target)` is in the answer of `query`.
///
/// Runs a forward product-BFS from `(source, q₀)` over `csr_out` and a
/// backward product-BFS from every `(target, f)` with `f` accepting over
/// `csr_in` + the query's [`DenseReverse`], expanding whichever frontier is
/// currently smaller one level at a time and exiting the moment the two
/// visited sets intersect.  A product state `(v, q)` is backward-visited iff
/// some path `v ⇝ target` spells a word taking `q` into an accepting state,
/// so forward ∩ backward ≠ ∅ is exactly "a witness path exists" — each side
/// explores only its own reachable cone instead of the whole product.
///
/// `csr_in` must be the incoming-adjacency freeze of the same database as
/// `csr_out` ([`GraphDb::csr_in`]), and `reverse` must be
/// `query.reverse_closed()`.
///
/// # Panics
///
/// Panics if `query` is not over the database domain behind `csr_out`, or if
/// `source`/`target` are out of range.
pub fn eval_csr_pair(
    csr_out: &CsrAdjacency,
    csr_in: &CsrAdjacency,
    query: &DenseNfa,
    reverse: &DenseReverse,
    source: u32,
    target: u32,
    scratch: &mut PairScratch,
) -> bool {
    let (unlimited, progress) = (SweepBudget::unlimited(), SweepState::new());
    eval_csr_pair_budgeted(
        csr_out, csr_in, query, reverse, source, target, scratch, &unlimited, &progress, None,
    )
    .expect("unlimited sweeps cannot be interrupted")
}

/// Budgeted variant of [`eval_csr_pair`]: checks `budget` against `progress`
/// every [`SWEEP_CHECK_INTERVAL`] frontier expansions (both directions
/// charge the same shared progress; a budget with no limit takes the
/// check-free instantiation, like [`eval_csr_sources_budgeted`]).  On interrupt
/// the scratch is reset and no verdict escapes — an interrupted search proves
/// nothing in either direction.  When `timings` is `Some`, per-direction wall
/// time is accumulated into it; when `None` the sweep makes no clock calls.
///
/// # Panics
///
/// Panics if `query` is not over the database domain behind `csr_out`, or if
/// `source`/`target` are out of range.
#[allow(clippy::too_many_arguments)]
pub fn eval_csr_pair_budgeted(
    csr_out: &CsrAdjacency,
    csr_in: &CsrAdjacency,
    query: &DenseNfa,
    reverse: &DenseReverse,
    source: u32,
    target: u32,
    scratch: &mut PairScratch,
    budget: &SweepBudget,
    progress: &SweepState,
    timings: Option<&mut PairTimings>,
) -> Result<bool, SweepInterrupt> {
    check_domain(csr_out, query);
    if budget.is_unlimited() {
        eval_csr_pair_impl::<false>(
            csr_out, csr_in, query, reverse, source, target, scratch, budget, progress, timings,
        )
    } else {
        eval_csr_pair_impl::<true>(
            csr_out, csr_in, query, reverse, source, target, scratch, budget, progress, timings,
        )
    }
}

/// Wrapper that guarantees the scratch is clean on *every* exit path of the
/// sweep below, including meets and interrupts mid-round.
#[allow(clippy::too_many_arguments)]
fn eval_csr_pair_impl<const BUDGETED: bool>(
    csr_out: &CsrAdjacency,
    csr_in: &CsrAdjacency,
    query: &DenseNfa,
    reverse: &DenseReverse,
    source: u32,
    target: u32,
    scratch: &mut PairScratch,
    budget: &SweepBudget,
    progress: &SweepState,
    timings: Option<&mut PairTimings>,
) -> Result<bool, SweepInterrupt> {
    let num_nodes = csr_out.num_nodes();
    assert!(
        (source as usize) < num_nodes && (target as usize) < num_nodes,
        "pair ({source}, {target}) out of range for a {num_nodes}-node database"
    );
    let verdict = pair_sweep::<BUDGETED>(
        csr_out, csr_in, query, reverse, source, target, scratch, budget, progress, timings,
    );
    scratch.forward.reset();
    scratch.backward.reset();
    scratch.fwd_frontier.clear();
    scratch.bwd_frontier.clear();
    scratch.next_frontier.clear();
    verdict
}

#[allow(clippy::too_many_arguments)]
fn pair_sweep<const BUDGETED: bool>(
    csr_out: &CsrAdjacency,
    csr_in: &CsrAdjacency,
    query: &DenseNfa,
    reverse: &DenseReverse,
    source: u32,
    target: u32,
    scratch: &mut PairScratch,
    budget: &SweepBudget,
    progress: &SweepState,
    mut timings: Option<&mut PairTimings>,
) -> Result<bool, SweepInterrupt> {
    // Zero-length witness: ε ∈ L(query) answers (v, v) for every node.
    if source == target && query.any_final(query.start()) {
        return Ok(true);
    }
    let PairScratch {
        forward,
        backward,
        fwd_frontier,
        bwd_frontier,
        next_frontier,
        stride,
        num_symbols,
        succ_words,
        moving_words,
    } = scratch;
    let (stride, num_symbols) = (*stride, *num_symbols);

    for &q in query.start() {
        if forward.visit(source, q) && has_state(moving_words, q) {
            fwd_frontier.push((source, q));
        }
    }
    for q in 0..query.num_states() as u32 {
        if query.is_final(q) && backward.visit(target, q) {
            bwd_frontier.push((target, q));
        }
    }
    // The seeds cannot already meet: source == target with an accepting
    // start state returned above, and start states at `source` are disjoint
    // from final states at `target` otherwise.

    let mut since_check: u64 = 0;
    loop {
        if fwd_frontier.is_empty() || bwd_frontier.is_empty() {
            break;
        }
        // Alternate on the cheaper side: expanding the smaller frontier
        // keeps the product of explored cones (and thus total work) minimal,
        // the classic bidirectional-search heuristic.
        let forward_side = fwd_frontier.len() <= bwd_frontier.len();
        let round_start = timings.as_ref().map(|_| std::time::Instant::now());
        let mut met = false;
        if forward_side {
            'fwd: for &(node, state) in fwd_frontier.iter() {
                if BUDGETED {
                    since_check += 1;
                    if since_check >= SWEEP_CHECK_INTERVAL {
                        progress.charge(budget, since_check)?;
                        since_check = 0;
                    }
                }
                let row = state as usize * num_symbols;
                for (label, next_node) in csr_out.edges_from(node) {
                    let base = (row + label as usize) * stride;
                    for w in 0..stride {
                        let mask = succ_words[base + w];
                        if mask == 0 {
                            continue;
                        }
                        let new = forward.visit_word(next_node, w, mask);
                        if new == 0 {
                            continue;
                        }
                        if new & backward.word(next_node, w) != 0 {
                            met = true;
                            break 'fwd;
                        }
                        let mut bits = new & moving_words[w];
                        while bits != 0 {
                            let q = (w as u32) * 64 + bits.trailing_zeros();
                            bits &= bits - 1;
                            next_frontier.push((next_node, q));
                        }
                    }
                }
            }
            std::mem::swap(fwd_frontier, next_frontier);
        } else {
            'bwd: for &(node, state) in bwd_frontier.iter() {
                if BUDGETED {
                    since_check += 1;
                    if since_check >= SWEEP_CHECK_INTERVAL {
                        progress.charge(budget, since_check)?;
                        since_check = 0;
                    }
                }
                // (node, state) reaches acceptance at `target`; an edge
                // `pred -label-> node` extends every automaton predecessor
                // `p` with `state ∈ closed_successors(p, label)`.
                for (label, pred) in csr_in.edges_from(node) {
                    for &p in reverse.closed_predecessors(state, label as usize) {
                        if backward.visit(pred, p) {
                            if forward.contains(pred, p) {
                                met = true;
                                break 'bwd;
                            }
                            next_frontier.push((pred, p));
                        }
                    }
                }
            }
            std::mem::swap(bwd_frontier, next_frontier);
        }
        next_frontier.clear();
        if let (Some(t), Some(start)) = (timings.as_deref_mut(), round_start) {
            let us = start.elapsed().as_micros() as u64;
            if forward_side {
                t.forward_us += us;
            } else {
                t.backward_us += us;
            }
        }
        if met {
            if BUDGETED && since_check > 0 {
                let _ = progress.charge(budget, since_check);
            }
            return Ok(true);
        }
    }
    if BUDGETED && since_check > 0 {
        // Tail accounting only — a drained frontier is a definitive "no".
        let _ = progress.charge(budget, since_check);
    }
    Ok(false)
}

/// The seed's tree-based evaluator (`BTreeSet` visited pairs, per-edge
/// singleton ε-closure recomputation) returning the seed's [`AnswerSet`]
/// representation.  Retained as the differential baseline for
/// [`eval_automaton`] — both the algorithm *and* the answer representation
/// are the old path; see the property tests and the `rpq_eval` benchmark.
pub fn eval_automaton_baseline(db: &GraphDb, query: &Nfa) -> AnswerSet {
    db.domain()
        .check_compatible(query.alphabet())
        .expect("query automaton must be over the database domain");
    let mut answer = AnswerSet::new();
    let start_config = query.start_configuration();
    let accepts_here = |states: &BTreeSet<StateId>| states.iter().any(|&s| query.is_final(s));

    for source in db.nodes() {
        // BFS over product states (node, nfa state); we track visited pairs.
        let mut seen: BTreeSet<(NodeId, StateId)> = BTreeSet::new();
        let mut queue: VecDeque<(NodeId, StateId)> = VecDeque::new();
        for &q in &start_config {
            if seen.insert((source, q)) {
                queue.push_back((source, q));
            }
        }
        if accepts_here(&start_config) {
            answer.insert((source, source));
        }
        while let Some((node, state)) = queue.pop_front() {
            for (label, next_node) in db.edges_from(node) {
                for next_state in query.successors(state, label) {
                    // Close under ε so acceptance is detected promptly.
                    let closure = query.epsilon_closure(&BTreeSet::from([next_state]));
                    for &q in &closure {
                        if seen.insert((next_node, q)) {
                            queue.push_back((next_node, q));
                            if query.is_final(q) {
                                answer.insert((source, next_node));
                            }
                        } else if query.is_final(q) {
                            answer.insert((source, next_node));
                        }
                    }
                }
            }
        }
    }
    answer
}

/// Compiles a regex query over the database domain into the automaton a
/// sweep runs on ([`regexlang::compile`]: ε-free, bisimilar states merged,
/// trim), panicking with a label-oriented message on unknown symbols.  Every
/// regex entry point of this crate — [`eval_regex`], view materialization,
/// witness search — compiles here, so the conversion cannot drift.
pub(crate) fn query_dense(domain: &Alphabet, query: &Regex) -> DenseNfa {
    regexlang::compile(query, domain).unwrap_or_else(|unknown| {
        panic!(
            "query mentions `{}` which is not a label of the database domain",
            unknown.name
        )
    })
}

/// Evaluates a query given as a regular expression over the label names.
pub fn eval_regex(db: &GraphDb, query: &Regex) -> Answer {
    eval_dense(db, &query_dense(db.domain(), query))
}

/// Evaluates a query written in the paper's concrete syntax.
pub fn eval_str(db: &GraphDb, query: &str) -> Answer {
    let expr = regexlang::parse(query).expect("query must parse");
    eval_regex(db, &expr)
}

/// Renders an answer using node names where available (handy in examples and
/// error messages).
pub fn render_answer(db: &GraphDb, answer: &Answer) -> Vec<(String, String)> {
    answer
        .iter()
        .map(|&(x, y)| (db.render_node(x), db.render_node(y)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::Alphabet;

    fn abc_domain() -> Alphabet {
        Alphabet::from_chars(['a', 'b', 'c']).unwrap()
    }

    /// A small chain with a loop:  n0 -a-> n1 -b-> n2 -a-> n1,  n1 -c-> n1.
    fn chain_db() -> GraphDb {
        let mut db = GraphDb::new(abc_domain());
        db.add_edge_named("n0", "a", "n1");
        db.add_edge_named("n1", "b", "n2");
        db.add_edge_named("n2", "a", "n1");
        db.add_edge_named("n1", "c", "n1");
        db
    }

    fn pair(db: &GraphDb, x: &str, y: &str) -> (NodeId, NodeId) {
        (db.node_by_name(x).unwrap(), db.node_by_name(y).unwrap())
    }

    #[test]
    fn single_symbol_queries_follow_edges() {
        let db = chain_db();
        let ans = eval_str(&db, "a");
        assert!(ans.contains(&pair(&db, "n0", "n1")));
        assert!(ans.contains(&pair(&db, "n2", "n1")));
        assert_eq!(ans.len(), 2);
    }

    #[test]
    fn epsilon_queries_return_all_identity_pairs() {
        let db = chain_db();
        let ans = eval_str(&db, "ε");
        assert_eq!(ans.len(), db.num_nodes());
        for v in db.nodes() {
            assert!(ans.contains(&(v, v)));
        }
    }

    #[test]
    fn paper_query_on_chain() {
        // a·(b·a+c)* from n0 reaches n1 (a), and stays at n1 via c* or b·a.
        let db = chain_db();
        let ans = eval_str(&db, "a·(b·a+c)*");
        assert!(ans.contains(&pair(&db, "n0", "n1")));
        assert!(!ans.contains(&pair(&db, "n0", "n2")));
        // n2 -a-> n1 then (b·a+c)* stays at n1.
        assert!(ans.contains(&pair(&db, "n2", "n1")));
    }

    #[test]
    fn star_queries_include_transitive_closure() {
        let domain = Alphabet::from_chars(['x']).unwrap();
        let mut db = GraphDb::new(domain);
        db.add_edge_named("v0", "x", "v1");
        db.add_edge_named("v1", "x", "v2");
        db.add_edge_named("v2", "x", "v3");
        let ans = eval_str(&db, "x*");
        // all pairs (i, j) with i ≤ j along the chain
        assert_eq!(ans.len(), 4 + 3 + 2 + 1);
        assert!(ans.contains(&pair(&db, "v0", "v3")));
        assert!(!ans.contains(&pair(&db, "v3", "v0")));
        let plus = eval_str(&db, "x^+");
        assert_eq!(plus.len(), 3 + 2 + 1);
    }

    #[test]
    fn disconnected_nodes_do_not_answer() {
        let mut db = GraphDb::new(abc_domain());
        db.add_edge_named("u", "a", "v");
        let lonely = db.add_node();
        let ans = eval_str(&db, "a");
        assert_eq!(ans.len(), 1);
        assert!(!ans.iter().any(|&(x, y)| x == lonely || y == lonely));
    }

    #[test]
    fn empty_query_has_empty_answer() {
        let db = chain_db();
        assert!(eval_str(&db, "∅").is_empty());
    }

    #[test]
    fn cyclic_graphs_terminate_and_answer_correctly() {
        let domain = Alphabet::from_chars(['x', 'y']).unwrap();
        let mut db = GraphDb::new(domain);
        db.add_edge_named("p", "x", "q");
        db.add_edge_named("q", "x", "p");
        db.add_edge_named("q", "y", "r");
        let ans = eval_str(&db, "x*·y");
        assert!(ans.contains(&pair(&db, "p", "r")));
        assert!(ans.contains(&pair(&db, "q", "r")));
        assert_eq!(ans.len(), 2);
    }

    #[test]
    fn render_answer_uses_names() {
        let db = chain_db();
        let ans = eval_str(&db, "b");
        let rendered = render_answer(&db, &ans);
        assert_eq!(rendered, vec![("n1".to_string(), "n2".to_string())]);
    }

    #[test]
    #[should_panic(expected = "not a label")]
    fn unknown_labels_in_queries_panic() {
        let db = chain_db();
        eval_str(&db, "zz");
    }

    #[test]
    fn sharded_ranges_cover_the_full_answer() {
        // Evaluating disjoint source ranges with separate scratches must
        // reproduce eval_csr exactly — this is the invariant the parallel
        // engine relies on.
        let db = chain_db();
        let csr = db.csr_out();
        let dense = query_dense(db.domain(), &regexlang::parse("a·(b·a+c)*").unwrap());
        let whole = eval_csr(&csr, &dense);
        let n = csr.num_nodes() as u32;
        let mut pairs = Vec::new();
        for lo in 0..n {
            let mut scratch = LaneScratch::new(&csr, &dense);
            eval_csr_sources(&csr, &dense, lo..lo + 1, &mut scratch, &mut pairs);
        }
        // Ascending shards concatenate into one sorted run: no sort here.
        assert_eq!(whole, Answer::from_sorted_runs(vec![pairs]));
    }

    #[test]
    fn budgeted_range_with_unlimited_budget_matches_plain() {
        let db = chain_db();
        let csr = db.csr_out();
        let dense = query_dense(db.domain(), &regexlang::parse("a·(b·a+c)*").unwrap());
        let mut scratch = LaneScratch::new(&csr, &dense);
        let mut plain = Vec::new();
        let n = csr.num_nodes() as u32;
        let tally = eval_csr_sources(&csr, &dense, 0..n, &mut scratch, &mut plain);
        assert!(tally > 0);

        // No limit: the check-free instantiation answers and counts its
        // visits, but leaves the shared progress uncharged.
        let progress = SweepState::new();
        let mut budgeted = Vec::new();
        let visited = eval_csr_sources_budgeted(
            &csr, &dense, 0..n, &mut scratch, &mut budgeted, &SweepBudget::unlimited(), &progress,
        )
        .expect("unlimited budget never interrupts");
        assert_eq!(plain, budgeted);
        assert_eq!((visited, progress.visited()), (tally, 0));

        // A cap that cannot trip forces the checked instantiation: same
        // answer, same count, and the tail flush charged every visit.
        let roomy = SweepBudget::unlimited().max_visited(u64::MAX);
        let progress = SweepState::new();
        let mut checked = Vec::new();
        let visited = eval_csr_sources_budgeted(
            &csr, &dense, 0..n, &mut scratch, &mut checked, &roomy, &progress,
        )
        .expect("a u64::MAX cap never trips");
        assert_eq!(plain, checked);
        assert_eq!((visited, progress.visited()), (tally, tally));
    }

    #[test]
    fn tiny_deadline_interrupts_and_scratch_stays_reusable() {
        use crate::generator::{random_graph, RandomGraphConfig};
        use std::time::Instant;

        let cfg = RandomGraphConfig {
            num_nodes: 400,
            num_edges: 2400,
        };
        let db = random_graph(&abc_domain(), &cfg, 11);
        let csr = db.csr_out();
        let dense = query_dense(db.domain(), &regexlang::parse("(a+b+c)*").unwrap());
        let mut scratch = LaneScratch::new(&csr, &dense);
        let n = csr.num_nodes() as u32;

        let budget = SweepBudget {
            deadline: Some(Instant::now()), // already past
            ..SweepBudget::unlimited()
        };
        let progress = SweepState::new();
        let mut pairs = Vec::new();
        let err = eval_csr_sources_budgeted(
            &csr, &dense, 0..n, &mut scratch, &mut pairs, &budget, &progress,
        )
        .expect_err("expired deadline must interrupt a large sweep");
        assert_eq!(err, SweepInterrupt::DeadlineExceeded);

        // The scratch must be clean: a fresh unbudgeted run reproduces the
        // full answer exactly.
        let mut after = Vec::new();
        eval_csr_sources(&csr, &dense, 0..n, &mut scratch, &mut after);
        let mut fresh_pairs = Vec::new();
        let mut fresh = LaneScratch::new(&csr, &dense);
        eval_csr_sources(&csr, &dense, 0..n, &mut fresh, &mut fresh_pairs);
        assert_eq!(after, fresh_pairs);
    }

    #[test]
    fn visit_cap_interrupts_large_sweeps() {
        use crate::generator::{random_graph, RandomGraphConfig};

        let cfg = RandomGraphConfig {
            num_nodes: 400,
            num_edges: 2400,
        };
        let db = random_graph(&abc_domain(), &cfg, 13);
        let csr = db.csr_out();
        let dense = query_dense(db.domain(), &regexlang::parse("(a+b+c)*").unwrap());
        let mut scratch = LaneScratch::new(&csr, &dense);
        let n = csr.num_nodes() as u32;
        let budget = SweepBudget {
            max_visited: Some(SWEEP_CHECK_INTERVAL),
            ..SweepBudget::unlimited()
        };
        let progress = SweepState::new();
        let mut pairs = Vec::new();
        let err = eval_csr_sources_budgeted(
            &csr, &dense, 0..n, &mut scratch, &mut pairs, &budget, &progress,
        )
        .expect_err("a (a+b+c)* sweep over 400 nodes visits far more than one interval");
        assert_eq!(err, SweepInterrupt::VisitLimit);
        assert!(progress.visited() > SWEEP_CHECK_INTERVAL);
    }

    #[test]
    fn answers_on_multigraphs_are_sets() {
        let domain = Alphabet::from_chars(['x']).unwrap();
        let mut db = GraphDb::new(domain);
        db.add_edge_named("a", "x", "b");
        db.add_edge_named("a", "x", "b");
        let ans = eval_str(&db, "x");
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn wide_automata_cross_word_boundaries_correctly() {
        // Concatenating > 64 single-symbol factors yields an NFA with well
        // over 64 states, so the visited bitmap and successor table span
        // multiple words per node.  A chain graph of the same length then
        // has exactly one answer: (start, end).
        let domain = Alphabet::from_chars(['x']).unwrap();
        let mut db = GraphDb::new(domain);
        let hops = 80usize;
        for i in 0..hops {
            db.add_edge_named(&format!("v{i}"), "x", &format!("v{}", i + 1));
        }
        let query = "x·".repeat(hops - 1) + "x";
        let dense = query_dense(db.domain(), &regexlang::parse(&query).unwrap());
        assert!(dense.num_states() > 64, "need a multi-word automaton");
        let ans = eval_csr(&db.csr_out(), &dense);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&pair(&db, "v0", &format!("v{hops}"))));
    }

    #[test]
    fn differential_sorted_pairs_vs_btreeset_on_random_cases() {
        // The satellite differential: the SortedPairs-backed evaluator must
        // agree, pair for pair, with the seed's BTreeSet-based baseline on
        // hundreds of random (graph, query) cases.
        use crate::generator::{random_graph, RandomGraphConfig};

        let queries = [
            "a",
            "a·b",
            "a·(b·a+c)*",
            "c*",
            "(a+b)*·c",
            "ε",
            "∅",
            "a+b·c?",
            "(a+b+c)*",
            "a?·b*",
        ];
        let mut cases = 0usize;
        for seed in 0..7u64 {
            for &(nodes, edges) in &[(5usize, 12usize), (17, 60), (33, 140)] {
                let cfg = RandomGraphConfig {
                    num_nodes: nodes,
                    num_edges: edges,
                };
                let db = random_graph(&abc_domain(), &cfg, seed);
                for q in queries {
                    let nfa = regexlang::thompson(&regexlang::parse(q).unwrap(), db.domain()).unwrap();
                    let new_path = eval_automaton(&db, &nfa);
                    let old_path = eval_automaton_baseline(&db, &nfa);
                    let as_set: AnswerSet = new_path.iter().copied().collect();
                    assert_eq!(as_set, old_path, "seed {seed} v{nodes} q {q}");
                    assert_eq!(new_path.len(), old_path.len());
                    cases += 1;
                }
            }
        }
        assert!(cases >= 200, "differential must cover 200+ cases, ran {cases}");
    }
}
