//! Explicit local view trees `L_d(v)` (paper, Section 1.1, Figure 1).

use std::fmt;

use anonet_graph::{Graph, Label, LabeledGraph, NodeId, Port};

use crate::error::ViewError;
use crate::Result;

/// Hard cap on explicit view-tree sizes; deeper views must go through
/// refinement instead. A build fails with [`ViewError::ViewTooLarge`]
/// exactly when the tree has more than this many vertices, and the
/// layered ids of [`ViewIds`](crate::ViewIds) report the same error.
pub const SIZE_BUDGET: usize = 2_000_000;

/// Checks that `L_d(v)` fits [`SIZE_BUDGET`] by counting its vertices in
/// the order a build creates them, without building it.
///
/// # Errors
///
/// [`ViewError::ViewTooLarge`] for `d = 0`, and when the budget runs out:
/// its `depth` is the remaining depth at the first vertex over it.
pub(crate) fn check_size(g: &Graph, v: NodeId, d: usize) -> Result<()> {
    fn walk(g: &Graph, v: NodeId, d: usize, budget: &mut usize) -> Result<()> {
        if *budget == 0 {
            return Err(ViewError::ViewTooLarge { depth: d, budget: SIZE_BUDGET });
        }
        *budget -= 1;
        if d > 1 {
            for &u in g.neighbors(v) {
                walk(g, u, d - 1, budget)?;
            }
        }
        Ok(())
    }
    if d == 0 {
        return Err(ViewError::ViewTooLarge { depth: 0, budget: SIZE_BUDGET });
    }
    let mut budget = SIZE_BUDGET;
    walk(g, v, d, &mut budget)
}

/// An explicit depth-`d` local view: a rooted tree whose vertices carry
/// *marks* (the labels of the underlying nodes).
///
/// Built inductively exactly as in the paper: `L_1(v)` is a single marked
/// vertex; `L_{d+1}(v)` attaches `L_d(u)` under the root for every
/// neighbor `u ∈ Γ(v)`. Children are created in port order; use
/// [`ViewTree::canonicalize`] for an order-independent form.
///
/// # Example (the paper's Figure 1)
///
/// ```
/// use anonet_graph::{generators, NodeId};
/// use anonet_views::ViewTree;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c6 = generators::cycle(6)?.with_labels(vec![1u32, 2, 3, 1, 2, 3])?;
/// let view = ViewTree::build(&c6, NodeId::new(0), 3)?;
/// assert_eq!(*view.mark(), 1);          // u0 is colored 1
/// assert_eq!(view.children().len(), 2); // two neighbors on the cycle
/// assert_eq!(view.size(), 1 + 2 + 4);   // 1 + 2 + 2·2 vertices
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ViewTree<L> {
    mark: L,
    children: Vec<ViewTree<L>>,
}

impl<L: Label> ViewTree<L> {
    /// Builds `L_d(v)` in `g`. Depth `d = 1` is a single vertex.
    ///
    /// # Errors
    ///
    /// Returns [`ViewError::ViewTooLarge`] if the tree would exceed the
    /// internal size budget, and an invalid-parameter style error for
    /// `d = 0` (views start at depth 1).
    pub fn build(g: &LabeledGraph<L>, v: NodeId, d: usize) -> Result<Self> {
        check_size(g.graph(), v, d)?;
        Ok(Self::build_rec(g, v, d))
    }

    fn build_rec(g: &LabeledGraph<L>, v: NodeId, d: usize) -> Self {
        let mut children = Vec::new();
        if d > 1 {
            for &u in g.graph().neighbors(v) {
                children.push(Self::build_rec(g, u, d - 1));
            }
        }
        ViewTree { mark: g.label(v).clone(), children }
    }

    /// Assembles a view tree from a mark and child sub-views (used by
    /// folded-view unfolding; does not validate completeness).
    pub fn from_parts(mark: L, children: Vec<ViewTree<L>>) -> Self {
        ViewTree { mark, children }
    }

    /// The mark of the root vertex.
    pub fn mark(&self) -> &L {
        &self.mark
    }

    /// The child sub-views (one per neighbor of the root's node).
    pub fn children(&self) -> &[ViewTree<L>] {
        &self.children
    }

    /// The child reached through `port` of the root's node, if built in
    /// port order and in range.
    pub fn child(&self, port: Port) -> Option<&ViewTree<L>> {
        self.children.get(port.index())
    }

    /// Total number of vertices.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(ViewTree::size).sum::<usize>()
    }

    /// Depth of the view (a single vertex has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(ViewTree::depth).max().unwrap_or(0)
    }

    /// Sorts children recursively into a canonical order, making view
    /// equality order-independent.
    ///
    /// On 2-hop colored graphs siblings always carry distinct marks
    /// (the paper's Section 2.1 observation), so sorting by mark alone
    /// would already be total; sorting by full encoding is total on every
    /// graph.
    pub fn canonicalize(mut self) -> Self {
        self.canonicalize_in_place();
        self
    }

    fn canonicalize_in_place(&mut self) {
        for c in &mut self.children {
            c.canonicalize_in_place();
        }
        self.children.sort_by_key(|a| a.encoded());
    }

    /// A deterministic byte encoding; equal for equal trees (children
    /// order-sensitive — canonicalize first for structural equality).
    pub fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.mark.encode(out);
        (self.children.len() as u64).encode(out);
        for c in &self.children {
            c.encode_into(out);
        }
    }

    /// The canonical byte encoding — the encoding of the canonicalized
    /// tree — computed from borrowed data, without cloning the tree.
    ///
    /// Equal iff the views are equal as unordered marked trees, i.e.
    /// `t.canonical_encoding() == t.clone().canonicalize().encoded()`
    /// always holds (children are sorted by their own canonical
    /// encodings at every level, exactly as [`ViewTree::canonicalize`]
    /// does in place).
    pub fn canonical_encoding(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.canonical_encode_into(&mut out);
        out
    }

    fn canonical_encode_into(&self, out: &mut Vec<u8>) {
        self.mark.encode(out);
        (self.children.len() as u64).encode(out);
        let mut child_encodings: Vec<Vec<u8>> =
            self.children.iter().map(ViewTree::canonical_encoding).collect();
        child_encodings.sort();
        for enc in child_encodings {
            out.extend_from_slice(&enc);
        }
    }

    /// `true` iff the canonical forms of the two views are equal — i.e.
    /// the views are equal as unordered marked trees.
    pub fn view_eq(&self, other: &Self) -> bool {
        self.canonical_encoding() == other.canonical_encoding()
    }

    /// Renders the tree with ASCII indentation (root first), useful for
    /// regenerating the paper's Figure 1.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_rec(0, &mut out);
        out
    }

    fn render_rec(&self, indent: usize, out: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(out, "{}{:?}", "  ".repeat(indent), self.mark);
        for c in &self.children {
            c.render_rec(indent + 1, out);
        }
    }
}

impl<L: Label> fmt::Display for ViewTree<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ViewTree(depth={}, size={})", self.depth(), self.size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_graph::generators;

    fn fig1_c6() -> LabeledGraph<u32> {
        generators::cycle(6).unwrap().with_labels(vec![1u32, 2, 3, 1, 2, 3]).unwrap()
    }

    #[test]
    fn depth_one_is_a_single_vertex() {
        let g = fig1_c6();
        let t = ViewTree::build(&g, NodeId::new(2), 1).unwrap();
        assert_eq!(t.size(), 1);
        assert_eq!(t.depth(), 1);
        assert_eq!(*t.mark(), 3);
        assert!(t.children().is_empty());
    }

    #[test]
    fn figure1_structure() {
        // Figure 1: depth-3 view of u0 in the colored C6. Root marked 1;
        // children marked 2 and 3 (the cycle neighbors); each child has
        // two children (back to 1, and onward).
        let g = fig1_c6();
        let t = ViewTree::build(&g, NodeId::new(0), 3).unwrap();
        assert_eq!(t.depth(), 3);
        assert_eq!(t.size(), 7);
        let mut child_marks: Vec<u32> = t.children().iter().map(|c| *c.mark()).collect();
        child_marks.sort();
        assert_eq!(child_marks, vec![2, 3]);
        for c in t.children() {
            assert_eq!(c.children().len(), 2);
            // grandchildren of the "2" child: marks {1, 3}; of "3": {1, 2}
            let mut gm: Vec<u32> = c.children().iter().map(|g| *g.mark()).collect();
            gm.sort();
            if *c.mark() == 2 {
                assert_eq!(gm, vec![1, 3]);
            } else {
                assert_eq!(gm, vec![1, 2]);
            }
        }
    }

    #[test]
    fn equal_colors_have_equal_views_in_c6() {
        // In Figure 1's C6, nodes 0 and 3 share color 1 and in fact share
        // all views (the graph is a product of C3).
        let g = fig1_c6();
        for d in 1..=8 {
            let a = ViewTree::build(&g, NodeId::new(0), d).unwrap();
            let b = ViewTree::build(&g, NodeId::new(3), d).unwrap();
            assert!(a.view_eq(&b), "views differ at depth {d}");
        }
        // Different colors: views differ from depth 1 on.
        let a = ViewTree::build(&g, NodeId::new(0), 1).unwrap();
        let b = ViewTree::build(&g, NodeId::new(1), 1).unwrap();
        assert!(!a.view_eq(&b));
    }

    #[test]
    fn uniform_cycle_views_are_all_equal() {
        let g = generators::cycle(5).unwrap().with_uniform_label(0u8);
        let views: Vec<_> =
            (0..5).map(|v| ViewTree::build(&g, NodeId::new(v), 4).unwrap()).collect();
        for w in views.windows(2) {
            assert!(w[0].view_eq(&w[1]));
        }
    }

    #[test]
    fn canonicalize_is_order_independent() {
        // Two port numberings of the same star around node 0.
        let g1 = anonet_graph::Graph::from_edges(3, &[(0, 1), (0, 2)]).unwrap();
        let g2 = anonet_graph::Graph::from_edges(3, &[(0, 2), (0, 1)]).unwrap();
        let l1 = g1.with_labels(vec![9u32, 5, 7]).unwrap();
        let l2 = g2.with_labels(vec![9u32, 5, 7]).unwrap();
        let t1 = ViewTree::build(&l1, NodeId::new(0), 2).unwrap();
        let t2 = ViewTree::build(&l2, NodeId::new(0), 2).unwrap();
        assert_ne!(t1.encoded(), t2.encoded()); // port order differs
        assert!(t1.view_eq(&t2)); // but the views are equal
    }

    #[test]
    fn size_grows_like_walks() {
        // In a cycle, the number of depth-k level vertices is 2^(k-1) for
        // k >= 2, so size(d) = 1 + 2 + 4 + … + 2^(d-1) = 2^d - 1.
        let g = generators::cycle(8).unwrap().with_uniform_label(0u8);
        for d in 1..=6 {
            let t = ViewTree::build(&g, NodeId::new(0), d).unwrap();
            assert_eq!(t.size(), (1 << d) - 1);
        }
    }

    #[test]
    fn oversized_views_are_rejected() {
        let g = generators::complete(8).unwrap().with_uniform_label(0u8);
        // 7^d vertices: depth 9 is ~40M, over budget.
        let err = ViewTree::build(&g, NodeId::new(0), 9).unwrap_err();
        assert!(matches!(err, ViewError::ViewTooLarge { .. }));
    }

    #[test]
    fn render_contains_marks() {
        let g = fig1_c6();
        let t = ViewTree::build(&g, NodeId::new(0), 2).unwrap();
        let r = t.render();
        assert!(r.contains('1') && r.contains('2') && r.contains('3'));
    }

    #[test]
    fn canonical_encoding_matches_canonicalize_then_encode() {
        // The borrowed canonical encoding must agree byte-for-byte with
        // the clone-canonicalize-encode route it replaced, including on
        // trees whose children arrive in non-canonical port order.
        let g = fig1_c6();
        for v in 0..6 {
            for d in 1..=4 {
                let t = ViewTree::build(&g, NodeId::new(v), d).unwrap();
                assert_eq!(
                    t.canonical_encoding(),
                    t.clone().canonicalize().encoded(),
                    "node {v} depth {d}"
                );
            }
        }
        // A hand-built tree with deliberately unsorted children.
        let t = ViewTree::from_parts(
            9u32,
            vec![
                ViewTree::from_parts(7, vec![ViewTree::from_parts(5, vec![])]),
                ViewTree::from_parts(3, vec![]),
            ],
        );
        assert_eq!(t.canonical_encoding(), t.clone().canonicalize().encoded());
    }

    #[test]
    fn depth_zero_is_an_error() {
        let g = fig1_c6();
        assert!(ViewTree::build(&g, NodeId::new(0), 0).is_err());
    }
}
