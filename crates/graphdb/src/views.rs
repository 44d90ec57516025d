//! Materialized views over a graph database and evaluation of rewritings over
//! view extensions.
//!
//! In the view-based setting of §4 the database is (conceptually) accessed
//! only through the extensions of the views `Q1, …, Qk`: each view, evaluated
//! over the database, yields a binary relation over nodes.  A rewriting of
//! the query over the view alphabet can then be evaluated *on the view
//! extensions alone*, by treating each materialized pair `(x, y)` of view
//! `q_i` as an edge `x --q_i--> y` of a derived "view graph".
//!
//! The view graph only ever exists frozen: an extension is a sorted run of
//! pairs, so the tuples are counting-sorted straight into a
//! [`CsrAdjacency`] over Σ_E ([`MaterializedViews::view_csr`]; the incoming
//! side, which only single-pair searches read, on first use) and no mutable
//! copy of them is built.  Every evaluator of `graphdb` and `engine` takes
//! that adjacency like any other — which is what makes a rewriting
//! operationally useful, and what the E10 experiment measures against direct
//! evaluation.
//!
//! A rewriting automaton is the complement of a subset construction
//! (Theorem 2.2), so it carries a sink no accepting run visits; callers trim
//! it ([`automata::DenseNfa::trim`]) before the product sweep, as `engine`'s
//! compile cache does, so a source only walks view edges that can still lead
//! to an answer.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use automata::{Alphabet, DenseNfa};

use crate::eval::{eval_csr, Answer};
use crate::graph::CsrAdjacency;

/// The materialized extensions of a set of named views over one database.
///
/// The extensions are computed elsewhere — by `engine`, which materializes
/// and incrementally maintains them — and handed in behind `Arc`s
/// ([`from_shared_extensions`]), so the view graph is built without
/// deep-copying a single tuple set.  The *view graph* (one edge per
/// materialized tuple, labeled by its view symbol) is frozen once, when the
/// views are built, so every [`eval_dense_over_views`] call — and every `engine` read over the
/// views — reuses the same adjacency instead of rebuilding the graph per
/// query.  The type is `Send + Sync`.
///
/// [`eval_dense_over_views`]: MaterializedViews::eval_dense_over_views
/// [`from_shared_extensions`]: MaterializedViews::from_shared_extensions
#[derive(Debug, Clone)]
pub struct MaterializedViews {
    /// The view alphabet (one symbol per view, in registration order).
    view_alphabet: Alphabet,
    /// Extension of each view, keyed by view symbol name; shared (not
    /// copied) with callers handing extensions in via
    /// [`from_shared_extensions`](Self::from_shared_extensions).
    extensions: BTreeMap<String, Arc<Answer>>,
    /// Number of nodes of the underlying database (the view graph reuses the
    /// node ids of the original database).
    num_nodes: usize,
    /// Outgoing adjacency of the view graph, shared by every evaluation.
    view_csr: CsrAdjacency,
    /// Incoming adjacency of the view graph, frozen on first use.
    view_csr_in: OnceLock<CsrAdjacency>,
}

/// The view graph's edges as `(source, view symbol index, target)`, view by
/// view in name order.
fn view_edges<'a>(
    view_alphabet: &Alphabet,
    extensions: &'a BTreeMap<String, Arc<Answer>>,
) -> impl Iterator<Item = (u32, u32, u32)> + Clone + 'a {
    let node = |id: usize| u32::try_from(id).expect("node ids fit the CSR's u32");
    let labeled: Vec<(u32, &Answer)> = extensions
        .iter()
        .map(|(name, extension)| {
            let label = view_alphabet
                .symbol(name)
                .expect("extension keys come from the view alphabet");
            (label.0, extension.as_ref())
        })
        .collect();
    labeled
        .into_iter()
        .flat_map(move |(label, extension)| {
            extension.iter().map(move |&(x, y)| (node(x), label, node(y)))
        })
}

impl MaterializedViews {
    /// Builds materialized views from already-computed extensions, adopting
    /// the shared answer sets as-is — the handoff the `engine` crate's
    /// snapshots use: extensions materialized (and incrementally maintained)
    /// by the engine are exposed for Σ_E-evaluation without copying any
    /// tuples.
    ///
    /// # Panics
    /// Panics if an extension key is not a symbol of `view_alphabet` or a
    /// tuple mentions a node id `≥ num_nodes`.
    pub fn from_shared_extensions(
        view_alphabet: Alphabet,
        extensions: BTreeMap<String, Arc<Answer>>,
        num_nodes: usize,
    ) -> Self {
        let view_csr = CsrAdjacency::from_edges(
            view_alphabet.clone(),
            num_nodes,
            view_edges(&view_alphabet, &extensions),
        );
        Self {
            view_alphabet,
            extensions,
            num_nodes,
            view_csr,
            view_csr_in: OnceLock::new(),
        }
    }

    /// The view alphabet Σ_E / Σ_Q.
    pub fn view_alphabet(&self) -> &Alphabet {
        &self.view_alphabet
    }

    /// The extension (set of node pairs) of a view.
    pub fn extension(&self, view: &str) -> Option<&Answer> {
        self.extensions.get(view).map(Arc::as_ref)
    }

    /// Total number of materialized tuples across all views.
    pub fn total_tuples(&self) -> usize {
        self.extensions.values().map(|ext| ext.len()).sum()
    }

    /// Number of nodes of the underlying database.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The frozen outgoing adjacency of the *view graph* — the graph over the
    /// database's node ids whose edges are the materialized view tuples,
    /// labeled by view symbols — shared by every evaluation over the views.
    pub fn view_csr(&self) -> &CsrAdjacency {
        &self.view_csr
    }

    /// The incoming adjacency of the view graph (`edges_from(y)` yields
    /// `(view, x)` for each tuple `(x, y)`), frozen on first use: only the
    /// backward half of a single-pair search reads it.
    pub fn view_csr_in(&self) -> &CsrAdjacency {
        self.view_csr_in.get_or_init(|| {
            CsrAdjacency::from_edges(
                self.view_alphabet.clone(),
                self.num_nodes,
                view_edges(&self.view_alphabet, &self.extensions)
                    .map(|(x, label, y)| (y, label, x)),
            )
        })
    }

    /// Evaluates a frozen language over the view alphabet (e.g. a rewriting
    /// automaton) against the materialized extensions: the answer contains
    /// `(x, y)` iff some Σ_E-word `q_{i1} ⋯ q_{in}` of the language has a
    /// chain `x = z_0, …, z_n = y` with `(z_{j-1}, z_j)` in the extension of
    /// `q_{ij}`.  The automaton is swept as given: hand in a
    /// [trim](DenseNfa::trim) one.
    pub fn eval_dense_over_views(&self, over_views: &DenseNfa) -> Answer {
        eval_csr(&self.view_csr, over_views)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::query_dense;
    use crate::graph::GraphDb;
    use regexlang::parse;

    fn chain_db() -> GraphDb {
        let mut db = GraphDb::new(Alphabet::from_chars(['a', 'b', 'c']).unwrap());
        db.add_edge_named("n0", "a", "n1");
        db.add_edge_named("n1", "b", "n2");
        db.add_edge_named("n2", "a", "n1");
        db.add_edge_named("n1", "c", "n1");
        db
    }

    /// `over_views` (a regex over the view symbols) answered over the views.
    fn eval_over(views: &MaterializedViews, over_views: &str) -> Answer {
        let query = query_dense(views.view_alphabet(), &parse(over_views).unwrap());
        views.eval_dense_over_views(&query)
    }

    /// Figure 1's views, each evaluated over `db` on its own.
    fn figure1_views(db: &GraphDb) -> MaterializedViews {
        let defs = [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")];
        let view_alphabet = Alphabet::from_names(defs.map(|(name, _)| name)).unwrap();
        let csr = db.csr_out();
        let extensions = defs
            .iter()
            .map(|&(name, src)| {
                let query = query_dense(db.domain(), &parse(src).unwrap());
                (name.to_string(), Arc::new(eval_csr(&csr, &query)))
            })
            .collect();
        MaterializedViews::from_shared_extensions(view_alphabet, extensions, db.num_nodes())
    }

    #[test]
    fn extensions_match_direct_evaluation() {
        let db = chain_db();
        let views = figure1_views(&db);
        assert_eq!(views.extension("e1"), Some(&crate::eval::eval_str(&db, "a")));
        assert_eq!(
            views.extension("e2"),
            Some(&crate::eval::eval_str(&db, "a·c*·b"))
        );
        assert!(views.extension("nope").is_none());
        assert_eq!(
            views.total_tuples(),
            views.extension("e1").unwrap().len()
                + views.extension("e2").unwrap().len()
                + views.extension("e3").unwrap().len()
        );
    }

    #[test]
    fn view_graph_has_one_edge_per_tuple() {
        let db = chain_db();
        let views = figure1_views(&db);
        for csr in [views.view_csr(), views.view_csr_in()] {
            assert_eq!(csr.num_nodes(), db.num_nodes());
            assert_eq!(csr.num_edges(), views.total_tuples());
            assert!(csr.domain().is_compatible(views.view_alphabet()));
        }
        // Each tuple (x, y) of view q is the edge x --q--> y, and its mirror.
        for (name, symbol) in views.view_alphabet().names().zip(0u32..) {
            for &(x, y) in views.extension(name).unwrap().iter() {
                let (x, y) = (x as u32, y as u32);
                assert!(views.view_csr().edges_from(x).any(|e| e == (symbol, y)));
                assert!(views.view_csr_in().edges_from(y).any(|e| e == (symbol, x)));
            }
        }
    }

    #[test]
    fn from_extensions_round_trips_and_freezes_once() {
        let db = chain_db();
        let views = figure1_views(&db);
        let rebuilt = MaterializedViews::from_shared_extensions(
            views.view_alphabet().clone(),
            views.extensions.clone(),
            db.num_nodes(),
        );
        // The tuple sets are adopted, not copied.
        for (name, extension) in &rebuilt.extensions {
            assert!(Arc::ptr_eq(extension, &views.extensions[name]), "{name}");
        }
        assert_eq!(rebuilt.total_tuples(), views.total_tuples());
        assert_eq!(rebuilt.view_csr().num_nodes(), db.num_nodes());
        // The incoming side is frozen once: every call returns the same one.
        assert!(std::ptr::eq(rebuilt.view_csr_in(), rebuilt.view_csr_in()));
        assert_eq!(
            eval_over(&rebuilt, "e2*·e1·e3*"),
            eval_over(&views, "e2*·e1·e3*")
        );
    }

    #[test]
    fn evaluating_the_exact_rewriting_over_views_matches_the_query() {
        // Figure 1: the rewriting e2*·e1·e3* is exact, so evaluating it over
        // the materialized views must return exactly ans(Q0, DB).
        let db = chain_db();
        let views = figure1_views(&db);
        let direct = crate::eval::eval_str(&db, "a·(b·a+c)*");
        let via_views = eval_over(&views, "e2*·e1·e3*");
        assert_eq!(direct, via_views);
    }

    #[test]
    fn evaluating_a_contained_rewriting_is_sound_but_incomplete() {
        // Without view e3 (= c), the maximal rewriting e2*·e1 only returns a
        // subset of the query answer.
        let db = chain_db();
        let views = figure1_views(&db);
        let direct = crate::eval::eval_str(&db, "a·(b·a+c)*");
        let partial = eval_over(&views, "e2*·e1");
        assert!(partial.is_subset(&direct));
        assert_eq!(partial, direct, "on this database the answers coincide");
    }
}
