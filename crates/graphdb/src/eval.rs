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
//!   semantics: every answer pair from a set of sources.  It sweeps the
//!   *condensation* of the product graph, [`LANES`] sources per batch: each
//!   strongly connected component carries a `u64` of the sources that reach
//!   it, and one pass in topological order hands every word on, so a
//!   component many sources cross — a closure's cycle, typically — is
//!   expanded once for all of them.  Its output is sorted as emitted.
//!   [`eval_csr`], the parallel pool, view materialization and DRed
//!   re-derivation in the `engine` crate all bottom out in it; there is no
//!   other full-materialization path.
//! * [`eval_csr_from_budgeted`] — one source at given seed states, optionally
//!   stopping at the k-th target.  A read seeds the start configuration
//!   ([`eval_csr_from`]); over `csr_in` and the query's reversal
//!   ([`DenseNfa::reverse_closed`]) it finds sources, which is how the
//!   `engine` crate's delta repairs sweep backward.
//! * [`eval_csr_pair`] — one pair, bidirectional, stopping at the first meet:
//!   a forward sweep over `csr_out` and the query and a backward one over
//!   `csr_in` and its reversal, the smaller level expanded first.
//!
//! These two are point kernels, built from one private word-level BFS, the
//! `Frontier`: the single-source kernel drains one, the pair kernel runs
//! two until they meet, and its `expand` is their only expansion loop.  They
//! share nothing with the lane kernel but the inputs and the visit meter,
//! which is what makes them its test oracle (`tests/lane_eval.rs`).
//!
//! The kernels sweep the automaton they are handed.  The regex entry points
//! of this crate ([`eval_regex`], [`eval_str`], view materialization) hand
//! them [`regexlang::compile`]'s — the position automaton with
//! bisimilar states merged, ε-free and trim.
//!
//! # What is entered, what is counted
//!
//! A product state `(node, q)` whose automaton state `q` reads no label — no
//! successor on any symbol — has nothing to expand.  Every sweep *records*
//! such a state (marks it reached, found if `q` is final, tested for a meet)
//! and **never enters it**: a `Frontier` does not queue it — on either side
//! of a pair search, where "reads a label" is read off the automaton that
//! side sweeps, the reversal backward — the lane kernel does not make it
//! part of the condensation, and all of them apply this one rule to start
//! states as much as to successors.  The final state of
//! `h·(f+g)*·e` is the typical case: every answer pair ends in one, and none
//! of them costs a pop.  A sweep's visit count — what a [`SweepBudget`]'s
//! `max_visited` bounds and what [`eval_csr_sources`] returns — is the number
//! of product states it *expands*, one per source they are expanded for.  A
//! point kernel pops them one by one; the lane kernel counts a component's
//! size once for every source that reaches it.  Both are the states a
//! private BFS from the source would pop, so the lane kernel's count equals
//! the sum of its seeded sources' [`eval_csr_from`] counts — however few
//! product states it actually opens to get there
//! ([`LaneScratch::explored`]) — and a pair search charges at most what its
//! two sides' drains would.  Every kernel charges its count to the
//! [`SweepState`] it is handed, under any budget: what a call adds to
//! `progress.visited()` is its exact count by the time it returns.

use std::time::{Duration, Instant};

use automata::{Alphabet, DenseNfa};
use regexlang::Regex;

use crate::answer::SortedPairs;
use crate::budget::{SweepBudget, SweepInterrupt, SweepState, SWEEP_CHECK_INTERVAL};
use crate::graph::{CsrAdjacency, GraphDb, NodeId};

/// The answer to a path query: a set of ordered node pairs.
///
/// Backed by the sorted-vector [`SortedPairs`] representation (the seed used
/// a `BTreeSet`, which the differential suites' tree evaluator in the
/// dev-only `testkit` crate still returns); iteration order and the
/// set-shaped API are unchanged, but bulk construction from the parallel
/// evaluator's sorted runs is a galloping merge instead of tree insertion.
pub type Answer = SortedPairs;

/// Evaluates a frozen query automaton over a frozen adjacency: every answer
/// pair, from every source.
///
/// The automaton must be over the adjacency's label domain (it carries its
/// database's, so incompatible query alphabets fail loudly).  The worst case
/// is the textbook bound for RPQ evaluation, `O(|V| · (|V| + |E|) · |Q|)` —
/// one product-BFS per source — but the product graph is explored once and
/// the sources are swept [`LANES`] at a time over its condensation by the
/// lane kernel ([`eval_csr_sources`]), so a component that 64 sources all
/// cross is expanded once, not 64 times.  The automaton is swept as given:
/// callers hand in a [trim](DenseNfa::trim) one.
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
/// The layout is word-aligned per node — each node owns `stride`
/// consecutive `u64` words covering its state bits — so a whole successor
/// state-set is tested-and-marked with one [`ProductVisited::visit_word`]
/// per word.
///
/// This is the visited set of a [`Frontier`].  (The lane kernel keeps a
/// component id per product state and a lane word per component: see
/// [`LaneScratch`].)
#[derive(Debug)]
struct ProductVisited {
    stride: usize,
    words: Vec<u64>,
    dirty_words: Vec<usize>,
}

impl ProductVisited {
    /// Allocates a bitmap for sweeps of a `num_states`-state automaton over
    /// a `num_nodes`-node graph.
    fn new(num_nodes: usize, num_states: usize) -> Self {
        let stride = num_states.max(1).div_ceil(64);
        ProductVisited {
            stride,
            words: vec![0u64; num_nodes * stride],
            dirty_words: Vec::new(),
        }
    }

    /// Marks every state of `mask` (bits `word * 64 ..`) at `node` in one
    /// operation, returning the bits that were previously unvisited.
    #[inline]
    fn visit_word(&mut self, node: u32, word: usize, mask: u64) -> u64 {
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

    /// The visited bitmap word `word` (state bits `word * 64 ..`) of `node`:
    /// the pair kernel ANDs one side's new bits against the other side's
    /// word to detect a meet.
    #[inline]
    fn word(&self, node: u32, word: usize) -> u64 {
        self.words[node as usize * self.stride + word]
    }

    /// Unmarks everything the last sweep visited, in `O(visited words)`.
    fn reset(&mut self) {
        for &word in &self.dirty_words {
            self.words[word] = 0;
        }
        self.dirty_words.clear();
    }
}

/// The word-level view of a query a [`Frontier`] reads, every state set a
/// `stride`-word bitmap.
#[derive(Debug)]
struct StateWords {
    /// `ceil(num_states / 64)` — words per node / per state set.
    stride: usize,
    num_symbols: usize,
    /// `(state * num_symbols + symbol) * stride ..` holds the ε-closed
    /// successor state-set of `state` under `symbol`.
    succ_words: Vec<u64>,
    /// The final states, so "did this word of new states hit a final state"
    /// is one AND instead of a per-state query.
    finals_words: Vec<u64>,
    /// The states that read some label: the only ones worth queueing
    /// (module docs).
    moving_words: Vec<u64>,
}

impl StateWords {
    fn new(query: &DenseNfa) -> Self {
        let num_symbols = query.num_symbols().max(1);
        let stride = query.num_states().max(1).div_ceil(64);
        let mut words = StateWords {
            stride,
            num_symbols,
            succ_words: vec![0; query.num_states().max(1) * num_symbols * stride],
            finals_words: vec![0; stride],
            moving_words: vec![0; stride],
        };
        for state in 0..query.num_states() {
            let (word, bit) = (state >> 6, 1u64 << (state & 63));
            for symbol in 0..query.num_symbols() {
                let base = (state * num_symbols + symbol) * stride;
                for &q in query.closed_successors(state as u32, symbol) {
                    words.succ_words[base + (q as usize >> 6)] |= 1u64 << (q & 63);
                    words.moving_words[word] |= bit;
                }
            }
            if query.is_final(state as u32) {
                words.finals_words[word] |= bit;
            }
        }
        words
    }
}

/// One side of a point sweep: a product BFS over one adjacency and one
/// automaton, a level at a time.  [`eval_csr_from_budgeted`] drains one;
/// [`eval_csr_pair_budgeted`] runs two — over `csr_out` and the query, and
/// over `csr_in` and its reversal — until they meet.  Its
/// [`Frontier::expand`] is the point kernels' only expansion loop.
#[derive(Debug)]
struct Frontier {
    visited: ProductVisited,
    words: StateWords,
    /// The level being expanded, and the one its expansion queues.
    level: Vec<(u32, u32)>,
    next: Vec<(u32, u32)>,
}

impl Frontier {
    fn new(num_nodes: usize, query: &DenseNfa) -> Self {
        Frontier {
            visited: ProductVisited::new(num_nodes, query.num_states()),
            words: StateWords::new(query),
            level: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Marks `(node, q)` for every seed state `q`, queueing those that read
    /// some label.
    fn seed(&mut self, node: u32, states: &[u32]) {
        let num_nodes = self.visited.words.len() / self.visited.stride;
        assert!((node as usize) < num_nodes, "node {node} out of range for {num_nodes} nodes");
        for &q in states {
            let (word, bit) = (q as usize >> 6, 1u64 << (q & 63));
            if self.visited.visit_word(node, word, bit) & self.words.moving_words[word] != 0 {
                self.level.push((node, q));
            }
        }
    }

    /// Expands the current level over `csr`, charging one visit per state to
    /// `meter`, and makes what it queues the next level.  Each successor word
    /// with newly marked states goes to `reached(node, word, new, accepting)`
    /// — `accepting`: one of them is final — before its states that read
    /// some label are queued; the expansion stops, returning `Ok(true)`, the
    /// moment `reached` does.
    fn expand<const BUDGETED: bool>(
        &mut self,
        csr: &CsrAdjacency,
        meter: &mut Meter<'_>,
        mut reached: impl FnMut(u32, usize, u64, bool) -> bool,
    ) -> Result<bool, SweepInterrupt> {
        let Frontier { visited, words, level, next } = self;
        let StateWords { stride, num_symbols, succ_words, finals_words, moving_words } = &*words;
        let (stride, num_symbols) = (*stride, *num_symbols);
        for &(node, state) in level.iter() {
            meter.visited += 1;
            meter.check::<BUDGETED>()?;
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
                    if reached(next_node, w, new, new & finals_words[w] != 0) {
                        return Ok(true);
                    }
                    let mut bits = new & moving_words[w];
                    while bits != 0 {
                        next.push((next_node, w as u32 * 64 + bits.trailing_zeros()));
                        bits &= bits - 1;
                    }
                }
            }
        }
        std::mem::swap(level, next);
        next.clear();
        Ok(false)
    }

    /// Expands level after level until the frontier drains (`Ok(false)`) or
    /// `reached` stops it (`Ok(true)`).
    fn drain<const BUDGETED: bool>(
        &mut self,
        csr: &CsrAdjacency,
        meter: &mut Meter<'_>,
        mut reached: impl FnMut(u32, usize, u64, bool) -> bool,
    ) -> Result<bool, SweepInterrupt> {
        while !self.level.is_empty() {
            if self.expand::<BUDGETED>(csr, meter, &mut reached)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Forgets the last sweep, in `O(visited words)`.
    fn reset(&mut self) {
        self.visited.reset();
        self.level.clear();
        self.next.clear();
    }
}

/// Reusable buffers for [`eval_csr_from`]: the `Frontier` and the
/// found-target flags.
///
/// One scratch serves any number of single-source sweeps against the same
/// `(csr, query)` pair — the successor table is compiled from *that* query,
/// so a scratch must not be reused across different automata.
#[derive(Debug)]
pub struct EvalScratch {
    frontier: Frontier,
    found: Vec<bool>,
    found_nodes: Vec<u32>,
}

impl EvalScratch {
    /// Allocates buffers sized for product sweeps of `query` over `csr` and
    /// compiles the query's successor lists into word-level bitmaps.
    pub fn new(csr: &CsrAdjacency, query: &DenseNfa) -> Self {
        EvalScratch {
            frontier: Frontier::new(csr.num_nodes(), query),
            found: vec![false; csr.num_nodes()],
            found_nodes: Vec::new(),
        }
    }
}

/// Sources one batch of the lane kernel sweeps together: one per bit of a
/// `u64` lane word.
pub const LANES: usize = 64;

/// Set in a product state's mark once its component is complete; the other
/// 31 bits are then the component's id.  Below it, a non-zero mark is the
/// DFS index of a state that is still open.
const DONE: u32 = 1 << 31;

/// Set in a component's link that names a target — the block of a node the
/// component finds — and clear in one that names a successor component.
/// Sorted, a component's links are its successors, then its targets.
const TARGET: u32 = 1 << 31;

/// `|V| · |Q|`, the product states a [`LaneScratch`] may have to number: DFS
/// indices, component ids and blocks each share a `u32` with a flag bit, so
/// the count must stay below 2³¹.
///
/// # Panics
/// Panics, naming both factors, if it does not.
fn product_state_count(num_nodes: usize, num_states: usize) -> u32 {
    num_nodes
        .checked_mul(num_states)
        .and_then(|count| u32::try_from(count).ok())
        .filter(|&count| count < DONE)
        .unwrap_or_else(|| {
            panic!(
                "a lane sweep numbers |V|·|Q| product states in 31 bits: \
                 {num_nodes} nodes × {num_states} automaton states is too many"
            )
        })
}

/// Position in one of the scratch's work lists or in its link list.
fn list_offset(len: usize) -> u32 {
    u32::try_from(len).expect("the condensation's lists are indexed in 32 bits")
}

/// One strongly connected component of the moving product states.  Its
/// links run from its own offset to the next component's: the last entry of
/// [`LaneScratch::components`] is always a sentinel holding the link list's
/// current length, which the next completion turns into a component.
#[derive(Debug)]
struct Component {
    /// The lanes of the current batch that have reached the component and
    /// not yet been passed on — non-zero exactly while its `active` bit is
    /// set.
    lanes: u64,
    /// Product states in the component: what one lane passing through pops.
    size: u32,
    /// Where its links start in [`LaneScratch::links`].
    links: u32,
}

/// What a scratch keeps per touched node, beside the node's marks.
#[derive(Debug)]
struct Block {
    /// The lanes of the current batch that found the node.
    found: u64,
    node: u32,
}

/// An open product state on the DFS path of an exploration.
#[derive(Debug)]
struct Frame {
    /// Index of the state's mark: `block · |Q| + q`.
    state: u32,
    /// Tarjan's lowlink: the smallest DFS index among the open states this
    /// one is known to reach.
    low: u32,
    /// Where the two work lists stood when the state was opened.  What
    /// [`LaneScratch::todo`] holds from here on are its successors still to
    /// be entered; and if it turns out to be a component's root, every
    /// pending link from here on is that component's.
    todo_from: u32,
    links_from: u32,
}

/// The visit tally of one kernel call and the budget it is charged to.
struct Meter<'a> {
    /// Visits of this call, and how many of them `progress` has been
    /// charged; both persist across batches so many tiny ones still reach
    /// the check interval.
    visited: u64,
    charged: u64,
    /// States opened since the budget was last looked at.
    opened: u64,
    budget: &'a SweepBudget,
    progress: &'a SweepState,
}

impl<'a> Meter<'a> {
    fn new(budget: &'a SweepBudget, progress: &'a SweepState) -> Self {
        Meter { visited: 0, charged: 0, opened: 0, budget, progress }
    }

    /// Looks at the budget if a check interval of work has gone by: visits
    /// are charged as soon as that many are owed, and an exploration that
    /// opens that many states without completing a component still polls the
    /// deadline.
    #[inline]
    fn check<const BUDGETED: bool>(&mut self) -> Result<(), SweepInterrupt> {
        if !BUDGETED {
            return Ok(());
        }
        let due = self.visited - self.charged;
        if due >= SWEEP_CHECK_INTERVAL {
            (self.charged, self.opened) = (self.visited, 0);
            self.progress.charge(self.budget, due)
        } else if self.opened >= SWEEP_CHECK_INTERVAL {
            self.opened = 0;
            self.progress.poll(self.budget)
        } else {
            Ok(())
        }
    }

    /// Charges what is still owed, under every budget, so `progress.visited()`
    /// is exact when the call returns: one atomic add.  The call's outcome is
    /// already decided, so a trip here only tells sibling shards.
    fn settle(&mut self) {
        if self.visited > self.charged {
            let _ = self.progress.charge(self.budget, self.visited - self.charged);
            self.charged = self.visited;
        }
    }
}

/// Reusable per-worker state of [`eval_csr_sources`], the lane-parallel
/// full-materialization kernel: the part of the product graph's
/// **condensation** its calls have explored so far, and the lane words of
/// the batch in flight.
///
/// # What is kept, and for how long
///
/// *Across calls* — the condensation.  The first time a seeded
/// `(source, start state)` is unexplored, an iterative Tarjan DFS opens every
/// moving product state reachable from it that no earlier exploration
/// reached, and numbers each strongly connected component as it completes.
/// A component keeps its size, the components its states step into, and the
/// nodes it finds (its own accepting states' nodes, and the nodes its states
/// step onto in an accepting state that reads nothing — recorded, never
/// entered: module docs).  Completion order is a reverse topological order —
/// a component completes after everything it reaches — and stays one
/// whatever is explored later, because a later root only ever adds
/// components with higher numbers that point at lower ones.  So every
/// product state is opened **once per scratch**, however many batches and
/// calls pass through it ([`LaneScratch::explored`]).
///
/// *Per batch* — one lane word per component and one found word per touched
/// node, both zero between batches.
///
/// Memory follows what the calls *explored*, not `|V| · |Q|`: a node gets a
/// block of marks the first time an exploration touches it, so sparse sweeps
/// over a large graph stay small.  Beyond the blocks there is one `u32` per
/// node (`slot`).
///
/// # One pair per scratch
///
/// The condensation describes one `(csr, query)` pair, so a scratch must not
/// be handed to the kernel with another: the kernel compares the pair's node,
/// edge and state counts with those recorded by [`LaneScratch::new`] and
/// panics on a mismatch.  A graph that changed needs a new scratch.
#[derive(Debug)]
pub struct LaneScratch {
    /// `(|V|, |E|, |Q|)` of the pair this scratch was built for.
    shape: (usize, usize, usize),
    /// `0` while no exploration has touched the node, else one more than its
    /// block.
    slot: Vec<u32>,
    /// The touched nodes, in first-touch order.
    blocks: Vec<Block>,
    /// `|Q|` marks per block: `0` for a product state not yet explored, its
    /// DFS index while it is open, `DONE | component` afterwards.
    mark: Vec<u32>,
    /// `node << 32 | block` of the non-zero found words.
    found_list: Vec<u64>,
    /// The components in completion order, and a sentinel ([`Component`]).
    components: Vec<Component>,
    /// Per component, sorted: its successor components, then `TARGET | block`
    /// for each node it finds.
    links: Vec<u32>,
    /// One bit per component, so a batch's pass skips 64 idle ones a word.
    active: Vec<u64>,
    /// The DFS path of the exploration in flight, and Tarjan's stack: every
    /// open state, in the order opened.  Both are empty between explorations.
    frames: Vec<Frame>,
    open: Vec<u32>,
    /// `(block, node, q)` of the successors the states on the DFS path found
    /// unexplored when their rows were read, the deepest state's last.
    todo: Vec<(u32, u32, u32)>,
    /// Links seen from open states, in the order seen ([`Frame`]).
    pending: Vec<u32>,
    explored: u64,
    /// The batch's sources, ascending: lane `i` sweeps from `lanes[i]`.
    lanes: Vec<u32>,
    /// Per label: whether some start state moves on it.  A source with no
    /// such out-edge reaches nothing (unless ε ∈ L(Q)) and is never seeded.
    first: Vec<bool>,
    /// `reads[q · |Σ| + a]`: whether state `q` has a successor on label `a`.
    /// Rows are scanned label-blind, and on a selective query nearly every
    /// edge an exploration looks at fails this test: one byte decides it.
    reads: Vec<bool>,
    /// `moves[q]`: whether state `q` reads any label at all.  One that does
    /// not is recorded on arrival and never entered (module docs).
    moves: Vec<bool>,
    num_symbols: usize,
    num_states: u32,
}

impl LaneScratch {
    /// An empty scratch for lane sweeps of `query` over `csr`.
    ///
    /// # Panics
    /// Panics if `|V| · |Q| ≥ 2³¹`: product states are numbered in 31 bits.
    pub fn new(csr: &CsrAdjacency, query: &DenseNfa) -> Self {
        product_state_count(csr.num_nodes(), query.num_states());
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
            shape: (csr.num_nodes(), csr.num_edges(), query.num_states()),
            slot: vec![0; csr.num_nodes()],
            blocks: Vec::new(),
            mark: Vec::new(),
            found_list: Vec::new(),
            components: vec![Component { lanes: 0, size: 0, links: 0 }],
            links: Vec::new(),
            active: Vec::new(),
            frames: Vec::new(),
            open: Vec::new(),
            todo: Vec::new(),
            pending: Vec::new(),
            explored: 0,
            lanes: Vec::with_capacity(LANES),
            first,
            reads,
            moves,
            num_symbols,
            num_states: query.num_states() as u32,
        }
    }

    /// Product states this scratch has opened, over all its calls: the work
    /// of exploring, which each state costs once (an interrupted exploration
    /// reopens the states it had to abandon, and those count again).
    pub fn explored(&self) -> u64 {
        self.explored
    }

    /// Components of the condensation completed so far.
    pub fn components(&self) -> usize {
        self.components.len() - 1
    }

    /// The block of `node`, allocated unmarked on the first touch.
    #[inline]
    fn block(&mut self, node: u32) -> u32 {
        if self.slot[node as usize] == 0 {
            self.blocks.push(Block { found: 0, node });
            self.slot[node as usize] = self.blocks.len() as u32;
            self.mark.resize(self.mark.len() + self.num_states as usize, 0);
        }
        self.slot[node as usize] - 1
    }

    /// Records `lanes` as having found the node of `block`.
    #[inline]
    fn find(&mut self, block: u32, lanes: u64) {
        let Block { found, node } = &mut self.blocks[block as usize];
        if *found == 0 {
            self.found_list.push(u64::from(*node) << 32 | u64::from(block));
        }
        *found |= lanes;
    }

    /// Hands `lanes` to `component`, for the batch's pass to carry on from.
    #[inline]
    fn send(&mut self, component: u32, lanes: u64) {
        let at = &mut self.components[component as usize].lanes;
        if *at == 0 {
            self.active[component as usize >> 6] |= 1u64 << (component & 63);
        }
        *at |= lanes;
    }

    /// Follows one link of a component for `lanes`.
    #[inline]
    fn follow(&mut self, link: u32, lanes: u64) {
        if link & TARGET != 0 {
            self.find(link & !TARGET, lanes);
        } else {
            self.send(link, lanes);
        }
    }

    /// Sweeps the batch in `self.lanes`: seeds each lane — exploring what its
    /// start states reach that no one has explored — then carries every
    /// lane word down the condensation in one pass.
    fn sweep_batch<const BUDGETED: bool>(
        &mut self,
        csr: &CsrAdjacency,
        query: &DenseNfa,
        start_accepts: bool,
        meter: &mut Meter<'_>,
    ) -> Result<(), SweepInterrupt> {
        for lane in 0..self.lanes.len() {
            let (source, bit) = (self.lanes[lane], 1u64 << lane);
            // Components numbered from here on are discovered by this lane,
            // which is applied to them as they complete.
            let known = self.components() as u32;
            let block = self.block(source);
            if start_accepts {
                self.find(block, bit);
            }
            for &q in query.start() {
                if !self.moves[q as usize] {
                    continue;
                }
                match self.mark[(block * self.num_states + q) as usize] {
                    0 => self.explore::<BUDGETED>(csr, query, (block, source, q), bit, known, meter)?,
                    done if done & !DONE < known => self.send(done & !DONE, bit),
                    // Discovered from this lane's previous start state.
                    _ => {}
                }
            }
        }
        self.propagate::<BUDGETED>(meter)
    }

    /// Explores what `root` — an unexplored `(block, node, q)` — reaches that
    /// is unexplored: Tarjan's algorithm on explicit stacks, over moving
    /// product states only.  A state's row is read once, as it is opened, and
    /// the successors found unexplored are listed in `todo`, to be entered
    /// one at a time.
    ///
    /// The lane `bit`, whose seeding asked for this, is applied to each
    /// component as it completes — its visits counted, its targets found —
    /// and sent on only into the components `known` before the lane began:
    /// everything newer it has reached the same way, so a sweep whose sources
    /// share nothing is finished when its explorations are.
    ///
    /// An interrupt returns every open state to unexplored; the components
    /// completed before it are whole and stay.
    fn explore<const BUDGETED: bool>(
        &mut self,
        csr: &CsrAdjacency,
        query: &DenseNfa,
        root: (u32, u32, u32),
        bit: u64,
        known: u32,
        meter: &mut Meter<'_>,
    ) -> Result<(), SweepInterrupt> {
        // No state is open between explorations, so indices restart.
        let mut index = 0u32;
        self.todo.push(root);
        loop {
            if let Err(why) = meter.check::<BUDGETED>() {
                for &state in &self.open {
                    self.mark[state as usize] = 0;
                }
                self.open.clear();
                self.frames.clear();
                self.todo.clear();
                self.pending.clear();
                return Err(why);
            }
            let listed = self.frames.last().map_or(0, |top| top.todo_from as usize);
            let frame = if self.todo.len() > listed {
                // The top state's next successor — or the root.
                let (block, node, q) = self.todo.pop().expect("longer than `listed`");
                match self.mark[(block * self.num_states + q) as usize] {
                    0 => {
                        index += 1;
                        self.explored += 1;
                        meter.opened += 1;
                        let frame = self.open_state(csr, query, (block, node, q), index);
                        if self.todo.len() > frame.todo_from as usize {
                            self.frames.push(frame);
                            continue;
                        }
                        // No successor to enter: read as soon as opened.
                        frame
                    }
                    // Explored since it was listed: by now an edge like any
                    // other out of the top state.
                    done if done & DONE != 0 => {
                        self.pending.push(done & !DONE);
                        continue;
                    }
                    open => {
                        let top = self.frames.last_mut().expect("the root was unexplored");
                        top.low = top.low.min(open);
                        continue;
                    }
                }
            } else {
                self.frames.pop().expect("explore returns when the root completes")
            };

            // Everything `frame`'s state reaches is explored.
            if frame.low < self.mark[frame.state as usize] {
                let parent = self.frames.last_mut().expect("only a descendant reaches an older open state");
                parent.low = parent.low.min(frame.low);
                continue;
            }
            let component = self.complete(&frame, bit, known);
            meter.visited += u64::from(self.components[component as usize].size);
            if self.frames.is_empty() {
                return Ok(());
            }
            self.pending.push(component);
        }
    }

    /// Opens the unexplored state `(block, node, q)` with DFS index `index`:
    /// marks it and reads its row — an explored successor is recorded, an
    /// unexplored one listed, an accepting one that reads nothing found and
    /// never entered.  Returns its frame, for the caller to put on the DFS
    /// path.
    fn open_state(
        &mut self,
        csr: &CsrAdjacency,
        query: &DenseNfa,
        (block, node, q): (u32, u32, u32),
        index: u32,
    ) -> Frame {
        let state = block * self.num_states + q;
        let mut frame = Frame {
            state,
            low: index,
            todo_from: list_offset(self.todo.len()),
            links_from: list_offset(self.pending.len()),
        };
        self.mark[state as usize] = index;
        self.open.push(state);
        if query.is_final(q) {
            self.pending.push(TARGET | block);
        }
        let row = q as usize * self.num_symbols;
        for (label, next_node) in csr.edges_from(node) {
            if !self.reads[row + label as usize] {
                continue;
            }
            let next_block = self.block(next_node);
            // ε-closures are folded into the successor lists.
            for &next in query.closed_successors(q, label as usize) {
                if !self.moves[next as usize] {
                    if query.is_final(next) {
                        self.pending.push(TARGET | next_block);
                    }
                    continue;
                }
                match self.mark[(next_block * self.num_states + next) as usize] {
                    0 => self.todo.push((next_block, next_node, next)),
                    done if done & DONE != 0 => self.pending.push(done & !DONE),
                    // On the stack, so in this state's component.
                    open => frame.low = frame.low.min(open),
                }
            }
        }
        frame
    }

    /// Closes the component rooted at `root`, whose successors are all
    /// explored: every state opened since it, and every pending link, is the
    /// component's.  Applies the discovering lane `bit`
    /// ([`LaneScratch::explore`]) and returns the component's id.
    fn complete(&mut self, root: &Frame, bit: u64, known: u32) -> u32 {
        let id = self.components() as u32;
        if id & 63 == 0 {
            self.active.push(0);
        }
        let mut size = 0;
        loop {
            let state = self.open.pop().expect("a root is on the stack until it completes");
            self.mark[state as usize] = DONE | id;
            size += 1;
            if state == root.state {
                break;
            }
        }
        let from = root.links_from as usize;
        self.pending[from..].sort_unstable();
        for at in from..self.pending.len() {
            let link = self.pending[at];
            if at > from && link == self.pending[at - 1] {
                continue;
            }
            self.links.push(link);
            // A successor this lane discovered itself has had its bit.
            if link & TARGET != 0 || link < known {
                self.follow(link, bit);
            }
        }
        self.pending.truncate(from);
        self.components.last_mut().expect("the sentinel").size = size;
        self.components.push(Component { lanes: 0, size: 0, links: list_offset(self.links.len()) });
        id
    }

    /// The batch's one pass: in descending order — a topological one — each
    /// component holding lanes counts their visits, finds its targets for
    /// them and passes them on to its successors.  Whatever the number of
    /// waves the lanes arrive in, a component is expanded once.
    fn propagate<const BUDGETED: bool>(&mut self, meter: &mut Meter<'_>) -> Result<(), SweepInterrupt> {
        for word in (0..self.active.len()).rev() {
            // A component sends to lower-numbered ones only, but those may
            // sit in this very word: it is read again after each.
            while self.active[word] != 0 {
                let bit = 63 - self.active[word].leading_zeros() as usize;
                self.active[word] &= !(1u64 << bit);
                let component = word * 64 + bit;
                let lanes = std::mem::take(&mut self.components[component].lanes);
                let links = self.components[component].links..self.components[component + 1].links;
                meter.visited += u64::from(lanes.count_ones()) * u64::from(self.components[component].size);
                meter.check::<BUDGETED>()?;
                for at in links {
                    self.follow(self.links[at as usize], lanes);
                }
            }
        }
        Ok(())
    }

    /// Appends the batch's answers to `pairs`, ordered by `(source, target)`
    /// — a counting sort of the found words by lane, over the found nodes in
    /// ascending order — and zeroes the found words.
    fn emit(&mut self, pairs: &mut Vec<(u32, u32)>) {
        self.found_list.sort_unstable();
        // Each lane's target count, then — in place — where its row starts.
        let mut next = [0usize; LANES];
        for &entry in &self.found_list {
            let mut bits = self.blocks[entry as u32 as usize].found;
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
        for &entry in &self.found_list {
            let Block { found, node } = &mut self.blocks[entry as u32 as usize];
            let mut bits = std::mem::take(found);
            while bits != 0 {
                let lane = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                pairs[next[lane]] = (self.lanes[lane], *node);
                next[lane] += 1;
            }
        }
        self.found_list.clear();
    }

    /// Forgets an interrupted batch: no lane word and no found word is left
    /// set.  The condensation is untouched.
    fn abandon_batch(&mut self) {
        for (word, bits) in self.active.iter_mut().enumerate() {
            let mut bits = std::mem::take(bits);
            while bits != 0 {
                self.components[word * 64 + bits.trailing_zeros() as usize].lanes = 0;
                bits &= bits - 1;
            }
        }
        for &entry in &self.found_list {
            self.blocks[entry as u32 as usize].found = 0;
        }
        self.found_list.clear();
    }
}

/// The full-materialization kernel: appends to `pairs` every answer pair
/// `(source, target)` of `query` whose source is in `sources`, **sorted** —
/// `sources` must be strictly ascending, and what is appended is then
/// strictly increasing in tuple order, so a caller never sorts a run.
/// Returns the product states expanded, counted per source (see below and
/// the module docs).
///
/// Up to [`LANES`] sources are swept as one batch over the **condensation**
/// of the product graph, which `scratch` builds as the sources ask for it and
/// keeps ([`LaneScratch`]):
///
/// * *explored once per scratch* — a product state is opened by the first
///   seeding that needs it, and never again by a later lane, batch or call;
/// * *expanded once per batch* — a component carries a `u64` of the batch's
///   sources that reach it, and one pass in descending component order hands
///   each word to the component's targets and successors.  A closure that a
///   FIFO sweep re-enters once per wave of arriving sources is crossed once.
///
/// Sources that cannot move — no out-edge on a label some start state reads,
/// and ε ∉ L(`query`) — are never given a lane, so batches are full of
/// sources that do work.
///
/// Every lane that reaches a component counts its size in visits, one per
/// state a private sweep would pop there: the total is exactly what one
/// [`eval_csr_from`] sweep per seeded source pops.
///
/// Each source's answers are independent of which others share its batch or
/// its scratch, so disjoint source sets can run on different threads against
/// the same shared `csr` and `query`, each with its own [`LaneScratch`] and
/// output buffer.
///
/// # Panics
///
/// Panics if `query` is not over the database domain behind `csr`, or if
/// `scratch` was built for another `(csr, query)` pair.
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
/// visits to the shared `progress` whenever [`SWEEP_CHECK_INTERVAL`] of them
/// are owed — they arrive a component at a time — and polling `budget` at
/// least every [`SWEEP_CHECK_INTERVAL`] states an exploration opens, so a
/// deadline is noticed inside a component of any size.  Returns this call's
/// visit count, so a parallel worker can attribute work to itself and not
/// just to the shared aggregate.
///
/// A budget that sets no limit cannot trip, so it takes the instantiation
/// with the checks compiled out, which charges `progress` once, when the
/// call returns.  This is the one place that choice is made; callers pass
/// whatever budget they hold.
///
/// On interrupt the whole batch in flight (at most [`LANES`] sources) is
/// discarded; `pairs` keeps the answers of the batches completed before it,
/// and the error carries the cause; `progress.visited()` reports the
/// aggregate partial work.  The scratch stays usable and keeps what it
/// learned: an exploration in flight is unwound — its open states go back to
/// unexplored — while every component completed before the trip is whole.
/// Workers sharing one `progress` all observe the first trip, so a deadline
/// stops the whole evaluation, not one shard.
///
/// # Panics
///
/// As [`eval_csr_sources`].
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
    let given = (csr.num_nodes(), csr.num_edges(), query.num_states());
    assert!(
        scratch.shape == given,
        "a LaneScratch serves the (csr, query) pair it was built for: it holds what it explored of \
         {:?} (nodes, edges, automaton states) and was handed {given:?}",
        scratch.shape
    );
    let sources = sources.into_iter();
    if budget.is_unlimited() {
        lane_sweep::<false>(csr, query, sources, scratch, pairs, budget, progress)
    } else {
        lane_sweep::<true>(csr, query, sources, scratch, pairs, budget, progress)
    }
}

/// The lane kernel.  `BUDGETED` is a compile-time switch so the un-budgeted
/// sweep carries the visit tally but no check; it is private to this module,
/// selected by [`eval_csr_sources_budgeted`].
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
    let mut meter = Meter::new(budget, progress);
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
        if let Err(why) = scratch.sweep_batch::<BUDGETED>(csr, query, start_accepts, &mut meter) {
            scratch.abandon_batch();
            meter.settle();
            return Err(why);
        }
        scratch.emit(pairs);
    }
    meter.settle();
    Ok(meter.visited)
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
/// One private product-BFS from `source` at the start configuration
/// ([`eval_csr_from_budgeted`] seeded with `query.start()`); unlike the full
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
    eval_csr_from_budgeted(csr, query, source, query.start(), limit, scratch, &unlimited, &progress)
        .expect("unlimited sweeps cannot be interrupted")
}

/// The single-source kernel: the targets `y` with `(source, q) →* (y, f)`,
/// `q` a seed state of `states` and `f` final.  A read seeds `query.start()`
/// ([`eval_csr_from`]); over the incoming adjacency and the query's reversal
/// the targets are sources.
///
/// One `Frontier`, expanded until it drains or the `limit`-th target is
/// found.  Checks `budget` against `progress` every [`SWEEP_CHECK_INTERVAL`]
/// expansions (a budget with no limit takes the check-free instantiation,
/// like [`eval_csr_sources_budgeted`]) and charges the rest once at the end,
/// unchecked: the result stands, and a caller chaining sweeps under one
/// budget sees a passed cap with [`SweepState::poll`].  On interrupt the
/// scratch is reset (reusable) and no partial result escapes — an
/// interrupted point lookup must never be mistaken for a verdict.
///
/// # Panics
///
/// Panics if `query` is not over the database domain behind `csr`, if
/// `source >= csr.num_nodes()`, or if a seed state is out of range.
#[allow(clippy::too_many_arguments)]
pub fn eval_csr_from_budgeted(
    csr: &CsrAdjacency,
    query: &DenseNfa,
    source: u32,
    states: &[u32],
    limit: Option<usize>,
    scratch: &mut EvalScratch,
    budget: &SweepBudget,
    progress: &SweepState,
) -> Result<Reachable, SweepInterrupt> {
    check_domain(csr, query);
    let EvalScratch { frontier, found, found_nodes } = scratch;
    let cap = limit.unwrap_or(usize::MAX);
    // Records a target; `true` once the `limit`-th is found.
    let mut find = |node: u32| {
        if !std::mem::replace(&mut found[node as usize], true) {
            found_nodes.push(node);
        }
        found_nodes.len() >= cap
    };
    let mut meter = Meter::new(budget, progress);
    frontier.seed(source, states);
    let stopped = if cap == 0 || (query.any_final(states) && find(source)) {
        Ok(true)
    } else if budget.is_unlimited() {
        frontier.drain::<false>(csr, &mut meter, |node, _, _, accepting| accepting && find(node))
    } else {
        frontier.drain::<true>(csr, &mut meter, |node, _, _, accepting| accepting && find(node))
    };
    meter.settle();
    let reachable = stopped.map(|stopped| {
        let mut targets: Vec<NodeId> = found_nodes.iter().map(|&t| t as NodeId).collect();
        targets.sort_unstable();
        Reachable { targets, complete: !stopped }
    });
    for &target in found_nodes.iter() {
        found[target as usize] = false;
    }
    found_nodes.clear();
    frontier.reset();
    reachable
}

/// Wall-clock split of one bidirectional pair sweep, filled only when the
/// caller passes `Some` — the untraced path makes **zero** clock calls, so
/// tracing stays strictly opt-in (the telemetry overhead contract).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairTimings {
    /// Microseconds spent in forward rounds (out of the source).
    pub forward_us: u64,
    /// Microseconds spent in backward rounds (into the target).
    pub backward_us: u64,
}

/// Reusable buffers for [`eval_csr_pair`]: one `Frontier` per direction.
/// The forward one reads the query's word table; the backward one the
/// reversal's, built from the `reverse` the first call hands in.
///
/// Like [`EvalScratch`], one scratch serves any number of pair sweeps
/// against the same `(csr, query)` pair but must not be reused across
/// different automata.
#[derive(Debug)]
pub struct PairScratch {
    forward: Frontier,
    backward: Option<Frontier>,
}

impl PairScratch {
    /// Allocates buffers sized for bidirectional sweeps of `query` over a
    /// database with `csr`'s node count and compiles the query's successor
    /// lists into word-level bitmaps.
    pub fn new(csr: &CsrAdjacency, query: &DenseNfa) -> Self {
        PairScratch { forward: Frontier::new(csr.num_nodes(), query), backward: None }
    }
}

/// Bidirectional meet-in-the-middle single-pair evaluation: whether `(source,
/// target)` is in the answer of `query`.
///
/// Runs a forward product-BFS from `(source, q₀)` over `csr_out` and a
/// backward product-BFS from every `(target, f)` with `f` accepting over
/// `csr_in` + the query's reversal, expanding whichever frontier is
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
    reverse: &DenseNfa,
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
/// every [`SWEEP_CHECK_INTERVAL`] expansions of either side (a budget with no
/// limit takes the check-free instantiation, like
/// [`eval_csr_sources_budgeted`]) and charges the rest when the search ends.
/// On interrupt the scratch is reset and no verdict escapes — an interrupted
/// search proves nothing in either direction.  When `timings` is `Some`,
/// per-direction wall time is accumulated into it; when `None` the sweep
/// makes no clock calls.
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
    reverse: &DenseNfa,
    source: u32,
    target: u32,
    scratch: &mut PairScratch,
    budget: &SweepBudget,
    progress: &SweepState,
    timings: Option<&mut PairTimings>,
) -> Result<bool, SweepInterrupt> {
    check_domain(csr_out, query);
    let PairScratch { forward, backward } = scratch;
    let backward = backward.get_or_insert_with(|| Frontier::new(csr_in.num_nodes(), reverse));
    forward.seed(source, query.start());
    backward.seed(target, reverse.start());
    let mut meter = Meter::new(budget, progress);
    let mut spent = [Duration::ZERO; 2];
    let clock = timings.is_some().then_some(&mut spent);
    // Zero-length witness: ε ∈ L(query) answers (v, v) for every node.
    // Otherwise the seeds cannot meet: start states at `source` and final
    // states at `target` are disjoint.
    let met = if source == target && query.any_final(query.start()) {
        Ok(true)
    } else if budget.is_unlimited() {
        meet::<false>(csr_out, csr_in, forward, backward, &mut meter, clock)
    } else {
        meet::<true>(csr_out, csr_in, forward, backward, &mut meter, clock)
    };
    meter.settle();
    forward.reset();
    backward.reset();
    if let Some(timings) = timings {
        timings.forward_us += spent[0].as_micros() as u64;
        timings.backward_us += spent[1].as_micros() as u64;
    }
    met
}

/// Expands the smaller of the two seeded frontiers, a level at a time, until
/// a newly marked state is already marked by the other side (`Ok(true)`) or
/// either frontier drains (`Ok(false)`).  With `spent`, the time of each run
/// of forward rounds is added to `[0]` and of backward ones to `[1]`: the
/// clock is read when the side changes, not per round, so rounds far below a
/// microsecond add up and the clock does not cost what it measures.
fn meet<const BUDGETED: bool>(
    csr_out: &CsrAdjacency,
    csr_in: &CsrAdjacency,
    forward: &mut Frontier,
    backward: &mut Frontier,
    meter: &mut Meter<'_>,
    mut spent: Option<&mut [Duration; 2]>,
) -> Result<bool, SweepInterrupt> {
    let mut lap = spent.is_some().then(Instant::now);
    let (mut side, mut met) = (0, false);
    while !met && !forward.level.is_empty() && !backward.level.is_empty() {
        // The smaller level is the cheaper round, and keeps the product of
        // the two explored cones minimal.
        let next = usize::from(forward.level.len() > backward.level.len());
        if let (Some(spent), Some(lap)) = (spent.as_deref_mut(), lap.as_mut()) {
            if next != side {
                let now = Instant::now();
                spent[side] += now - *lap;
                *lap = now;
            }
        }
        side = next;
        met = if side == 0 {
            forward.expand::<BUDGETED>(csr_out, meter, |node, word, new, _| {
                new & backward.visited.word(node, word) != 0
            })
        } else {
            backward.expand::<BUDGETED>(csr_in, meter, |node, word, new, _| {
                new & forward.visited.word(node, word) != 0
            })
        }?;
    }
    if let (Some(spent), Some(lap)) = (spent, lap) {
        spent[side] += lap.elapsed();
    }
    Ok(met)
}

/// Compiles a regex query over the database domain into the automaton a
/// sweep runs on ([`regexlang::compile`]: ε-free, bisimilar states merged,
/// trim), panicking with a label-oriented message on unknown symbols.  Every
/// regex entry point of this crate — [`eval_regex`] and view
/// materialization — compiles here, so the conversion cannot drift.
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
    eval_csr(&db.csr_out(), &query_dense(db.domain(), query))
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

        // No limit: the check-free instantiation answers, counts its visits
        // and charges them to the shared progress once, at the end.
        let progress = SweepState::new();
        let mut budgeted = Vec::new();
        let visited = eval_csr_sources_budgeted(
            &csr, &dense, 0..n, &mut scratch, &mut budgeted, &SweepBudget::unlimited(), &progress,
        )
        .expect("unlimited budget never interrupts");
        assert_eq!(plain, budgeted);
        assert_eq!((visited, progress.visited()), (tally, tally));

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
    fn product_states_must_be_numbered_in_31_bits() {
        // Marks keep the top bit for "complete": 2³¹ − 1 states is the most.
        assert_eq!(product_state_count((1 << 31) - 1, 1), (1 << 31) - 1);
        assert_eq!(product_state_count(1 << 20, 2047), (1 << 31) - (1 << 20));
        assert_eq!(product_state_count(usize::MAX, 0), 0);
        for (nodes, states) in [(1 << 31, 1), (1 << 20, 2048), (1 << 33, 3), (usize::MAX, 2)] {
            let refused = std::panic::catch_unwind(|| product_state_count(nodes, states))
                .expect_err("2³¹ product states or more must be refused");
            let message = refused.downcast_ref::<String>().expect("a formatted message");
            assert!(
                message.contains(&format!("{nodes} nodes × {states} automaton states")),
                "the panic names what the caller passed: {message}"
            );
        }
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
}
