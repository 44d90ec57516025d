//! Hash-consed expressions: one id per distinct sub-expression.
//!
//! The renderer's expressions are mostly shared: the k = 4 blow-up rewriting
//! is a 327 026-node `Regex` tree holding 202 distinct sub-expressions.  An
//! [`Arena`] interns every node through a `HashMap<Node, Id>`, children
//! first, so two ids are equal exactly when the trees they stand for are
//! structurally equal (`Regex`'s derived `==`), and comparing them costs
//! O(1).  Nullability is computed once per id.  The builders here mirror the
//! `Regex` ones ([`Regex::then`], [`Regex::or`], [`Regex::concat_all`],
//! [`Regex::union_all`]) node for node — the same flattening, no
//! simplification — so a computation on ids builds exactly the trees the
//! same computation on `Regex` would.  The simplification rules on ids, with
//! their per-id memo tables, are in [`mod@crate::simplify`].
//!
//! Hash-consing is the classic technique of Filliâtre and Conchon,
//! "Type-safe modular hash-consing" (ML 2006).

use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::Regex;

/// An interned expression: an index into its [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Id(u32);

/// One `Regex` node whose children are ids.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Node {
    Empty,
    Epsilon,
    Symbol(Arc<str>),
    Concat(Box<[Id]>),
    Union(Box<[Id]>),
    Star(Id),
    Plus(Id),
    Optional(Id),
}

/// The interning table, plus the simplifier's memo tables (filled by
/// [`mod@crate::simplify`]).
pub(crate) struct Arena {
    nodes: Vec<Node>,
    nullable: Vec<bool>,
    ids: HashMap<Node, Id>,
    /// One simplification pass, per input id.
    pub(crate) once: HashMap<Id, Id>,
    /// The bounded fixpoint of passes, per input id.
    pub(crate) fixed: HashMap<Id, Id>,
}

impl Arena {
    /// ∅, interned first.
    pub(crate) const EMPTY: Id = Id(0);
    /// ε, interned second.
    pub(crate) const EPSILON: Id = Id(1);

    pub(crate) fn new() -> Arena {
        let mut arena = Arena {
            nodes: Vec::new(),
            nullable: Vec::new(),
            ids: HashMap::new(),
            once: HashMap::new(),
            fixed: HashMap::new(),
        };
        arena.intern(Node::Empty);
        arena.intern(Node::Epsilon);
        arena
    }

    pub(crate) fn node(&self, id: Id) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Whether ε belongs to the language ([`Regex::is_nullable`]).
    pub(crate) fn is_nullable(&self, id: Id) -> bool {
        self.nullable[id.0 as usize]
    }

    /// The id of `node`, adding it if it is new.
    pub(crate) fn intern(&mut self, node: Node) -> Id {
        if let Some(&id) = self.ids.get(&node) {
            return id;
        }
        let nullable = match &node {
            Node::Empty | Node::Symbol(_) => false,
            Node::Epsilon | Node::Star(_) | Node::Optional(_) => true,
            Node::Concat(parts) => parts.iter().all(|&p| self.is_nullable(p)),
            Node::Union(parts) => parts.iter().any(|&p| self.is_nullable(p)),
            Node::Plus(inner) => self.is_nullable(*inner),
        };
        let id = Id(u32::try_from(self.nodes.len()).expect("fewer than 2^32 distinct expressions"));
        self.nodes.push(node.clone());
        self.nullable.push(nullable);
        self.ids.insert(node, id);
        id
    }

    pub(crate) fn symbol(&mut self, name: &str) -> Id {
        self.intern(Node::Symbol(Arc::from(name)))
    }

    /// Interns a whole tree, children first.
    pub(crate) fn intern_regex(&mut self, expr: &Regex) -> Id {
        let node = match expr {
            Regex::Empty => return Arena::EMPTY,
            Regex::Epsilon => return Arena::EPSILON,
            Regex::Symbol(name) => Node::Symbol(Arc::clone(name)),
            Regex::Concat(parts) => {
                Node::Concat(parts.iter().map(|p| self.intern_regex(p)).collect())
            }
            Regex::Union(parts) => {
                Node::Union(parts.iter().map(|p| self.intern_regex(p)).collect())
            }
            Regex::Star(inner) => Node::Star(self.intern_regex(inner)),
            Regex::Plus(inner) => Node::Plus(self.intern_regex(inner)),
            Regex::Optional(inner) => Node::Optional(self.intern_regex(inner)),
        };
        self.intern(node)
    }

    /// The tree `id` stands for.
    pub(crate) fn extract(&self, id: Id) -> Regex {
        match self.node(id) {
            Node::Empty => Regex::Empty,
            Node::Epsilon => Regex::Epsilon,
            Node::Symbol(name) => Regex::Symbol(Arc::clone(name)),
            Node::Concat(parts) => Regex::Concat(parts.iter().map(|&p| self.extract(p)).collect()),
            Node::Union(parts) => Regex::Union(parts.iter().map(|&p| self.extract(p)).collect()),
            Node::Star(inner) => Regex::Star(Box::new(self.extract(*inner))),
            Node::Plus(inner) => Regex::Plus(Box::new(self.extract(*inner))),
            Node::Optional(inner) => Regex::Optional(Box::new(self.extract(*inner))),
        }
    }

    /// [`Regex::then`] on ids.
    pub(crate) fn then(&mut self, x: Id, y: Id) -> Id {
        let parts = self.flatten(Op::Concat, &[x, y]);
        self.intern(Node::Concat(parts.into()))
    }

    /// [`Regex::or`] on ids.
    pub(crate) fn or(&mut self, x: Id, y: Id) -> Id {
        let parts = self.flatten(Op::Union, &[x, y]);
        self.intern(Node::Union(parts.into()))
    }

    /// [`Regex::concat_all`] on ids.
    pub(crate) fn concat_all(&mut self, parts: &[Id]) -> Id {
        match self.flatten(Op::Concat, parts)[..] {
            [] => Arena::EPSILON,
            [one] => one,
            ref many => self.intern(Node::Concat(many.into())),
        }
    }

    /// [`Regex::union_all`] on ids.
    pub(crate) fn union_all(&mut self, parts: &[Id]) -> Id {
        match self.flatten(Op::Union, parts)[..] {
            [] => Arena::EMPTY,
            [one] => one,
            ref many => self.intern(Node::Union(many.into())),
        }
    }

    /// `parts` with every `op` node among them replaced by its children, one
    /// level deep — the flattening every `Regex` builder does.
    fn flatten(&self, op: Op, parts: &[Id]) -> Vec<Id> {
        let mut flat = Vec::with_capacity(parts.len());
        for &p in parts {
            match (op, self.node(p)) {
                (Op::Concat, Node::Concat(inner)) | (Op::Union, Node::Union(inner)) => {
                    flat.extend_from_slice(inner)
                }
                _ => flat.push(p),
            }
        }
        flat
    }
}

#[derive(Clone, Copy)]
enum Op {
    Concat,
    Union,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn equal_trees_intern_to_one_id_and_extract_back() {
        let mut arena = Arena::new();
        let tree = parse("(a·b+c)*·(a·b+c)*·ε+∅").unwrap();
        let id = arena.intern_regex(&tree);
        assert_eq!(arena.extract(id), tree);
        assert_eq!(arena.intern_regex(&tree.clone()), id);
        let Node::Union(parts) = arena.node(id).clone() else {
            panic!("a union")
        };
        let Node::Concat(stars) = arena.node(parts[0]).clone() else {
            panic!("a concat")
        };
        assert_eq!(stars[0], stars[1], "the two (a·b+c)* share one id");
        assert_eq!(parts[1], Arena::EMPTY);
    }

    #[test]
    fn nullability_matches_the_tree_predicate() {
        let mut arena = Arena::new();
        for src in [
            "a", "a*", "a·b*", "a*·b*", "a+ε", "a^+", "(a?)^+", "∅", "ε", "a?·∅*",
        ] {
            let tree = parse(src).unwrap();
            let id = arena.intern_regex(&tree);
            assert_eq!(arena.is_nullable(id), tree.is_nullable(), "{src}");
        }
    }

    #[test]
    fn builders_flatten_like_the_tree_builders() {
        let mut arena = Arena::new();
        let (a, b, c) = (
            parse("a").unwrap(),
            parse("b").unwrap(),
            parse("a·b").unwrap(),
        );
        for (x, y) in [(&a, &b), (&c, &a), (&a, &c), (&c, &c)] {
            let (ix, iy) = (arena.intern_regex(x), arena.intern_regex(y));
            let then = arena.then(ix, iy);
            assert_eq!(arena.extract(then), x.clone().then(y.clone()));
            let or = arena.or(ix, iy);
            let or_tree = x.clone().or(y.clone());
            assert_eq!(arena.extract(or), or_tree);
            let or_or = arena.or(or, or);
            assert_eq!(arena.extract(or_or), or_tree.clone().or(or_tree));
        }
        let parts = [
            arena.intern_regex(&c),
            Arena::EPSILON,
            arena.intern_regex(&a),
        ];
        let all = arena.concat_all(&parts);
        assert_eq!(
            arena.extract(all),
            Regex::concat_all([c.clone(), Regex::Epsilon, a.clone()])
        );
        assert_eq!(arena.concat_all(&[]), Arena::EPSILON);
        assert_eq!(arena.union_all(&[]), Arena::EMPTY);
    }
}
