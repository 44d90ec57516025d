//! Delta product-BFS: incremental repair of cached RPQ answers under edge
//! insertion ([`delta_pairs`]) and edge deletion ([`deletion_repair`]).
//!
//! # Insertion
//!
//! RPQ answers are monotone under edge insertion, so maintaining a cached
//! answer only requires finding the pairs whose witnessing path *crosses the
//! new edge*.  Let the inserted edge be `u --a--> v` and fix a crossing:
//! the run of the query automaton reads `a` there, taking some transition
//! `q --a--> q'` (ε-closed).  The path therefore decomposes into
//!
//! * a prefix taking `(x, start)` to `(u, q)`, and
//! * a suffix taking `(v, q')` to some `(y, f)` with `f` final,
//!
//! both over the **updated** graph (so paths crossing the new edge more than
//! once are covered by splitting at any one crossing).  [`delta_pairs`]
//! materializes exactly this decomposition:
//!
//! * for each automaton state `q` with an `a`-transition, a *backward*
//!   product-BFS from `(u, q)` over the incoming CSR and the reversed
//!   ε-closed transition table collects the source set
//!   `B_q = {x | (x, start) →* (u, q)}`, and
//! * for each ε-closed successor `q'`, a *forward* product-BFS from
//!   `(v, q')` (memoized per `q'` — distinct `q` often share successors)
//!   collects the target set `F_{q'} = {y | (v, q') →* (y, final)}`;
//!
//! the union of the cross products `B_q × F_q` over all `a`-transitions is a
//! superset of the new pairs and a subset of the updated answer, so
//! extending the cached answer set with it is an exact repair.
//!
//! Each sweep is `O((V + E)·|Q|)`, and at most `|Q|` backward and `|Q|`
//! forward sweeps run per insertion — versus the `O(V·(V + E)·|Q|)` of
//! re-materializing from every source.
//!
//! # Deletion (DRed: over-delete, then re-derive)
//!
//! Deletion is **not** monotone: a pair survives an edge deletion iff *some*
//! witness avoids the deleted edge, so no purely local sweep can decide
//! which cached pairs to drop.  [`deletion_repair`] uses the classic
//! delete-and-rederive scheme, built from the same two observations:
//!
//! * **Over-deletion.**  Run [`delta_pairs`] for each deleted edge over the
//!   **pre-deletion** adjacencies.  The same prefix/crossing/suffix
//!   decomposition now reads: the result is exactly the set of cached pairs
//!   having *some* witness that crosses a deleted edge — a superset of the
//!   pairs that actually lost all their witnesses.  Removing it from the
//!   cached answer over-deletes.
//! * **Re-derivation.**  Every over-deleted pair `(x, y)` shares its source
//!   `x` with at most `V` other over-deleted pairs, and any pair not
//!   over-deleted is untouched (it kept a witness avoiding every deleted
//!   edge).  So answering again from the *affected sources* over the
//!   **post-deletion** adjacency re-derives exactly the survivors.  The
//!   sorted affected-source list goes to the full-materialization kernel
//!   ([`graphdb::eval_csr_sources`]) whole, so it is swept
//!   [`graphdb::LANES`] sources at a time like any other source set — not
//!   one private BFS per source.
//!
//! Cost is `O(|deleted| · |Q| · (V+E) · |Q|)` for the over-deletion sweeps
//! plus `O(|affected sources| · (V+E) · |Q|)` for re-derivation — the full
//! re-materialization bound `O(V·(V+E)·|Q|)` is only approached when a
//! deletion touches witnesses of most sources.  The `engine` crate
//! additionally skips edges whose support count (parallel-edge multiplicity,
//! [`graphdb::GraphDb::edge_multiplicity`]) stays positive: deleting one
//! copy of a duplicated edge cannot change any answer.
//!
//! Under the writer/snapshot split the repair target is always a *uniquely
//! owned* answer set: the writer detaches each cached extension from any
//! published [`crate::EngineSnapshot`] (`Arc::make_mut`) before touching
//! it, so these sweeps never race a concurrent reader — readers keep the
//! pre-mutation extension their snapshot captured, including pairs the
//! writer has since over-deleted.

use std::collections::VecDeque;

use automata::{BitSet, DenseNfa, DenseReverse};
use graphdb::{
    eval_csr_sources_budgeted, Answer, CsrAdjacency, LaneScratch, NodeId, ProductVisited,
    SweepBudget, SweepInterrupt, SweepState,
};

/// Shared scratch for the sweeps of one [`delta_pairs`] call: the
/// [`ProductVisited`] bitmap (reset between sweeps), the BFS queue, and a
/// node flag for deduplicating collected endpoints.
struct DeltaScratch {
    visited: ProductVisited,
    queue: VecDeque<(u32, u32)>,
    node_flag: Vec<bool>,
}

impl DeltaScratch {
    fn new(num_nodes: usize, nq: usize) -> Self {
        DeltaScratch {
            visited: ProductVisited::new(num_nodes, nq),
            queue: VecDeque::new(),
            node_flag: vec![false; num_nodes],
        }
    }

    #[inline]
    fn visit(&mut self, node: u32, state: u32) -> bool {
        self.visited.visit(node, state)
    }

    /// Unmarks everything visited by the last sweep, in O(visited).
    fn reset(&mut self) {
        self.visited.reset();
        self.queue.clear();
    }
}

/// The candidate new answer pairs of `query` created by inserting
/// `from --label--> to`, computed by backward/forward delta product-BFS over
/// the **updated** adjacencies.  The result may repeat pairs already in the
/// pre-insertion answer (the caller extends a set), but every returned pair
/// is in the updated answer and every genuinely new pair is returned.
///
/// `csr_out`/`csr_in` must be the outgoing/incoming CSR freezes of the same
/// updated database, and `rev` the reverse table of `query`.
pub fn delta_pairs(
    csr_out: &CsrAdjacency,
    csr_in: &CsrAdjacency,
    query: &DenseNfa,
    rev: &DenseReverse,
    from: NodeId,
    label: automata::Symbol,
    to: NodeId,
) -> Vec<(NodeId, NodeId)> {
    csr_out
        .domain()
        .check_compatible(query.alphabet())
        .expect("query automaton must be over the database domain");
    let nq = query.num_states().max(1);
    let num_nodes = csr_out.num_nodes();
    let sym = label.index();

    // Automaton states with an outgoing `label` transition; nothing to do if
    // the query never reads this label.
    let crossing: Vec<u32> = (0..query.num_states() as u32)
        .filter(|&q| !query.closed_successors(q, sym).is_empty())
        .collect();
    if crossing.is_empty() {
        return Vec::new();
    }

    let mut is_start = BitSet::new(nq);
    for &s in query.start() {
        is_start.insert(s);
    }

    let mut scratch = DeltaScratch::new(num_nodes, nq);
    // Forward target sets memoized per successor state q'.
    let mut forward_memo: Vec<Option<Vec<u32>>> = vec![None; nq];
    let mut out = Vec::new();
    let mut targets: Vec<u32> = Vec::new();

    for &q in &crossing {
        let sources = backward_sources(csr_in, rev, &is_start, from as u32, q, &mut scratch);
        if sources.is_empty() {
            continue;
        }
        // Fill the forward memo first (forward_targets owns the node flag
        // while it runs), then union the target sets, deduplicated through
        // the same flag.
        for &qp in query.closed_successors(q, sym) {
            if forward_memo[qp as usize].is_none() {
                forward_memo[qp as usize] =
                    Some(forward_targets(csr_out, query, to as u32, qp, &mut scratch));
            }
        }
        targets.clear();
        for &qp in query.closed_successors(q, sym) {
            for &y in forward_memo[qp as usize].as_ref().expect("just filled") {
                if !scratch.node_flag[y as usize] {
                    scratch.node_flag[y as usize] = true;
                    targets.push(y);
                }
            }
        }
        for &y in &targets {
            scratch.node_flag[y as usize] = false;
        }
        for &x in &sources {
            for &y in &targets {
                out.push((x as NodeId, y as NodeId));
            }
        }
    }
    out
}

/// Work counters of one [`deletion_repair`] call, folded into
/// [`crate::EngineStats`] by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeletionRepairReport {
    /// Pairs removed by the over-deletion phase (every pair with some
    /// pre-deletion witness crossing a deleted edge).
    pub overdeleted_pairs: u64,
    /// Distinct sources whose answers were re-derived by the forward sweep
    /// over the post-deletion graph.
    pub rederived_sources: u64,
}

/// Repairs a cached answer set in place after a batch of edge deletions,
/// DRed-style: over-delete every pair whose derivation may traverse a
/// deleted edge, then re-derive the survivors by sweeping forward again from
/// the affected sources over the post-deletion graph (see the module docs
/// for why this is exact).
///
/// `old_csr_out`/`old_csr_in` must be freezes of the database **before** the
/// deletions, `new_csr_out` a freeze **after** them, `rev` the reverse table
/// of `query`, and `pairs` the cached answer valid on the pre-deletion
/// database.  `removed` lists the deleted edges; the caller is expected to
/// have pruned edges that still have support (surviving parallel copies),
/// which cannot change the answer and only widen the over-deletion.
pub fn deletion_repair(
    old_csr_out: &CsrAdjacency,
    old_csr_in: &CsrAdjacency,
    new_csr_out: &CsrAdjacency,
    query: &DenseNfa,
    rev: &DenseReverse,
    removed: &[(NodeId, automata::Symbol, NodeId)],
    pairs: &mut Answer,
) -> DeletionRepairReport {
    let (unlimited, progress) = (SweepBudget::unlimited(), SweepState::new());
    deletion_repair_budgeted(
        old_csr_out, old_csr_in, new_csr_out, query, rev, removed, pairs, &unlimited, &progress,
    )
    .expect("an unlimited repair cannot be interrupted")
}

/// Budgeted variant of [`deletion_repair`]: the time-like limits are polled
/// between over-deletion sweeps (one per removed edge) and the re-derivation
/// sweep is budgeted cooperatively per [`graphdb::SWEEP_CHECK_INTERVAL`]
/// visits.
///
/// On interrupt `pairs` is left **partially repaired** (some pairs
/// over-deleted but not yet re-derived) and must be discarded by the caller
/// — the engine drops the view's cached extension and re-materializes it on
/// next use.  The mutation itself is already applied at this point; only the
/// cache repair degrades.
// Three adjacency views (old out/in, new out) plus the budget pair are all
// borrowed per-call state with different lifetimes/owners; bundling them
// into a struct would only move the argument list into a constructor.
#[allow(clippy::too_many_arguments)]
pub fn deletion_repair_budgeted(
    old_csr_out: &CsrAdjacency,
    old_csr_in: &CsrAdjacency,
    new_csr_out: &CsrAdjacency,
    query: &DenseNfa,
    rev: &DenseReverse,
    removed: &[(NodeId, automata::Symbol, NodeId)],
    pairs: &mut Answer,
    budget: &SweepBudget,
    progress: &SweepState,
) -> Result<DeletionRepairReport, SweepInterrupt> {
    let mut report = DeletionRepairReport::default();

    // Phase 1 — over-delete: the delta sweeps on the *pre-deletion*
    // adjacencies enumerate every cached pair with a witness crossing a
    // deleted edge.  Candidates are collected first and removed in one
    // batched sweep — per-pair removal from the sorted-vector answer would
    // degrade to O(answer × candidates).
    let mut candidates: Vec<(NodeId, NodeId)> = Vec::new();
    for &(from, label, to) in removed {
        progress.poll(budget)?;
        candidates.extend(delta_pairs(old_csr_out, old_csr_in, query, rev, from, label, to));
    }
    let overdeleted = pairs.remove_batch(&candidates);
    report.overdeleted_pairs = overdeleted.len() as u64;
    let mut affected_sources: Vec<NodeId> = overdeleted.into_iter().map(|(x, _)| x).collect();
    if affected_sources.is_empty() {
        return Ok(report); // no witness crossed any deleted edge
    }

    // Phase 2 — re-derive: answering again from the affected sources over
    // the post-deletion graph restores exactly the over-deleted pairs that
    // still have a witness.
    affected_sources.sort_unstable();
    affected_sources.dedup();
    report.rederived_sources = affected_sources.len() as u64;
    let mut scratch = LaneScratch::new(new_csr_out, query);
    let mut rederived: Vec<(u32, u32)> = Vec::new();
    eval_csr_sources_budgeted(
        new_csr_out,
        query,
        affected_sources.iter().map(|&source| source as u32),
        &mut scratch,
        &mut rederived,
        budget,
        progress,
    )?;
    pairs.extend(rederived.into_iter().map(|(x, y)| (x as NodeId, y as NodeId)));
    Ok(report)
}

/// Backward sweep: the sources `x` with `(x, start) →* (node, state)`,
/// walking incoming edges and reversed ε-closed transitions.
fn backward_sources(
    csr_in: &CsrAdjacency,
    rev: &DenseReverse,
    is_start: &BitSet,
    node: u32,
    state: u32,
    scratch: &mut DeltaScratch,
) -> Vec<u32> {
    let mut sources = Vec::new();
    scratch.visit(node, state);
    scratch.queue.push_back((node, state));
    if is_start.contains(state) && !scratch.node_flag[node as usize] {
        scratch.node_flag[node as usize] = true;
        sources.push(node);
    }
    while let Some((x, s)) = scratch.queue.pop_front() {
        for (a, w) in csr_in.edges_from(x) {
            for &p in rev.closed_predecessors(s, a as usize) {
                if scratch.visit(w, p) {
                    scratch.queue.push_back((w, p));
                    if is_start.contains(p) && !scratch.node_flag[w as usize] {
                        scratch.node_flag[w as usize] = true;
                        sources.push(w);
                    }
                }
            }
        }
    }
    for &x in &sources {
        scratch.node_flag[x as usize] = false;
    }
    scratch.reset();
    sources
}

/// Forward sweep: the targets `y` with `(node, state) →* (y, f)`, `f` final.
fn forward_targets(
    csr_out: &CsrAdjacency,
    query: &DenseNfa,
    node: u32,
    state: u32,
    scratch: &mut DeltaScratch,
) -> Vec<u32> {
    let mut found = Vec::new();
    scratch.visit(node, state);
    scratch.queue.push_back((node, state));
    if query.is_final(state) {
        scratch.node_flag[node as usize] = true;
        found.push(node);
    }
    while let Some((x, s)) = scratch.queue.pop_front() {
        for (a, y) in csr_out.edges_from(x) {
            for &t in query.closed_successors(s, a as usize) {
                if scratch.visit(y, t) {
                    scratch.queue.push_back((y, t));
                    if query.is_final(t) && !scratch.node_flag[y as usize] {
                        scratch.node_flag[y as usize] = true;
                        found.push(y);
                    }
                }
            }
        }
    }
    for &y in &found {
        scratch.node_flag[y as usize] = false;
    }
    scratch.reset();
    found
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
    ) -> DeletionRepairReport {
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
        assert_eq!(report, DeletionRepairReport::default());
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
        check_deletion(&mut db, "x*", &[("v1", "x", "v2"), ("v3", "x", "v0")]);
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
