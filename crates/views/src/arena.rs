//! Arena-backed view trees: the allocation-free fast path for `L_d(v)`.
//!
//! [`ViewTree`](crate::ViewTree) is the paper-literal recursive structure:
//! every vertex is a heap node owning a `Vec` of children. That is the
//! right shape for Figure 1 and for the differential oracles, but it is
//! the wrong shape for a million-node run: building the depth-`p` view of
//! every node every phase allocates `Θ(Δ^p)` little vectors per node per
//! phase, and canonicalizing clones encodings up the tree.
//!
//! [`ViewArena`] stores one view tree (or many) as four flat vectors —
//! interned marks, child-slice offsets, child-slice lengths, and one
//! shared child-index pool — addressed by dense `u32` handles. After the
//! first build warms the vectors up, [`ViewArena::reset`] retains every
//! allocation, so steady-state rebuilds touch the allocator only when a
//! *new* distinct encoding is interned. Canonical encodings are computed
//! bottom-up into retained scratch buffers and hash-consed through the
//! same [`Interner`] the `A_*` engine uses, so identical subtrees across
//! nodes and phases are stored once and compared as `u32`s. The arena's
//! interner hashes with std's `RandomState`, not the `A_*` memo's
//! [`FastHash`](crate::FastHash): the per-thread arena keeps it across
//! calls, so it gathers subtree encodings of every caller's graphs.
//!
//! Byte-compatibility is load-bearing: [`ViewArena::canonical_encoding`]
//! produces exactly the bytes of
//! [`ViewTree::canonical_encoding`](crate::ViewTree::canonical_encoding),
//! and the build observes the same size budget with the same traversal
//! order, so the two paths are interchangeable — the testkit differential
//! oracle and the unit tests below pin this byte-for-byte.

use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::mem;

use anonet_graph::{Label, LabeledGraph, NodeId};

use crate::error::ViewError;
use crate::interner::{Interner, Sym};
use crate::view_tree::SIZE_BUDGET;
use crate::Result;

/// Handle to a vertex of an arena-resident view tree.
///
/// Valid only for the [`ViewArena`] that issued it, until the next
/// [`ViewArena::reset`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ViewNode(u32);

impl ViewNode {
    /// The dense index of this vertex in its arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Counters describing an arena's lifetime effectiveness (monotone across
/// [`ViewArena::reset`]; see [`ViewArena::stats`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ArenaStats {
    /// Interner lookups that found an existing encoding.
    pub interner_hits: u64,
    /// Interner lookups that inserted a new encoding.
    pub interner_misses: u64,
    /// Total view-tree vertices built over the arena's lifetime.
    pub nodes_built: u64,
    /// Bytes currently retained by the interner's distinct encodings.
    pub interned_bytes: u64,
}

/// A flat, index-based store for view trees.
///
/// # Example
///
/// ```
/// use anonet_graph::{generators, NodeId};
/// use anonet_views::{ViewArena, ViewTree};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c6 = generators::cycle(6)?.with_labels(vec![1u32, 2, 3, 1, 2, 3])?;
/// let mut arena = ViewArena::new();
/// let root = arena.build(&c6, NodeId::new(0), 3)?;
/// let reference = ViewTree::build(&c6, NodeId::new(0), 3)?;
/// assert_eq!(arena.canonical_encoding(root), reference.canonical_encoding());
/// assert_eq!(arena.node_count(), reference.size());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct ViewArena {
    interner: Interner<RandomState>,
    marks: Vec<Sym>,
    child_start: Vec<u32>,
    child_count: Vec<u32>,
    children: Vec<u32>,
    /// Stack-discipline scratch: child handles of the vertex currently
    /// being assembled (recursion pushes grandchildren above our base).
    build_scratch: Vec<u32>,
    /// Stack-discipline scratch for bottom-up encoding: child encoding
    /// symbols awaiting their parent.
    enc_scratch: Vec<Sym>,
    /// Retained byte buffer for assembling one vertex's encoding.
    enc_buf: Vec<u8>,
    /// Retained buffer for sorting one vertex's child encodings.
    sort_buf: Vec<Sym>,
    nodes_built: u64,
}

impl ViewArena {
    /// An empty arena.
    pub fn new() -> Self {
        ViewArena::default()
    }

    /// Builds `L_d(v)` of `g` into the arena, returning the root handle.
    ///
    /// Semantics match [`ViewTree::build`](crate::ViewTree::build)
    /// exactly: depth 1 is a single vertex, depth 0 is an error, children
    /// are created in port order, and the same [`SIZE_BUDGET`]-vertex
    /// budget applies per call with the same traversal order (so the two
    /// paths fail on the same inputs with the same error).
    ///
    /// On error the arena may hold a partial tree; call [`reset`] before
    /// reusing it.
    ///
    /// # Errors
    ///
    /// [`ViewError::ViewTooLarge`] for `d = 0` or when the tree would
    /// exceed the size budget.
    ///
    /// [`reset`]: ViewArena::reset
    pub fn build<L: Label>(
        &mut self,
        g: &LabeledGraph<L>,
        v: NodeId,
        d: usize,
    ) -> Result<ViewNode> {
        if d == 0 {
            return Err(ViewError::ViewTooLarge { depth: 0, budget: SIZE_BUDGET });
        }
        let mut budget = SIZE_BUDGET;
        let root = self.build_rec(g, v, d, &mut budget)?;
        Ok(ViewNode(root))
    }

    fn build_rec<L: Label>(
        &mut self,
        g: &LabeledGraph<L>,
        v: NodeId,
        d: usize,
        budget: &mut usize,
    ) -> Result<u32> {
        if *budget == 0 {
            return Err(ViewError::ViewTooLarge { depth: d, budget: SIZE_BUDGET });
        }
        *budget -= 1;
        let mark = {
            let mut buf = mem::take(&mut self.enc_buf);
            buf.clear();
            g.label(v).encode(&mut buf);
            let sym = self.interner.intern(&buf);
            self.enc_buf = buf;
            sym
        };
        let base = self.build_scratch.len();
        if d > 1 {
            for &u in g.graph().neighbors(v) {
                let child = self.build_rec(g, u, d - 1, budget)?;
                self.build_scratch.push(child);
            }
        }
        let start = self.children.len() as u32;
        let count = (self.build_scratch.len() - base) as u32;
        self.children.extend_from_slice(&self.build_scratch[base..]);
        self.build_scratch.truncate(base);
        let id = self.marks.len() as u32;
        self.marks.push(mark);
        self.child_start.push(start);
        self.child_count.push(count);
        self.nodes_built += 1;
        Ok(id)
    }

    /// The canonical encoding of the subtree rooted at `node`, as an
    /// interned symbol. Equal symbols ⇔ equal views (within this arena's
    /// interner). Computed bottom-up with retained scratch; identical
    /// subtrees are interned once.
    pub fn canonical_sym(&mut self, node: ViewNode) -> Sym {
        self.encode_rec(node.0)
    }

    /// The canonical byte encoding of the subtree rooted at `node` —
    /// byte-for-byte equal to
    /// [`ViewTree::canonical_encoding`](crate::ViewTree::canonical_encoding)
    /// of the same view.
    pub fn canonical_encoding(&mut self, node: ViewNode) -> Vec<u8> {
        let sym = self.encode_rec(node.0);
        self.interner.resolve(sym).to_vec()
    }

    fn encode_rec(&mut self, node: u32) -> Sym {
        let base = self.enc_scratch.len();
        let start = self.child_start[node as usize] as usize;
        let count = self.child_count[node as usize] as usize;
        for i in start..start + count {
            let child = self.children[i];
            let sym = self.encode_rec(child);
            self.enc_scratch.push(sym);
        }
        // Sort this vertex's child encodings by their bytes — exactly the
        // `child_encodings.sort()` of the recursive path.
        let mut sorted = mem::take(&mut self.sort_buf);
        sorted.clear();
        sorted.extend_from_slice(&self.enc_scratch[base..]);
        self.enc_scratch.truncate(base);
        sorted.sort_by(|&a, &b| self.interner.resolve(a).cmp(self.interner.resolve(b)));

        let mut buf = mem::take(&mut self.enc_buf);
        buf.clear();
        buf.extend_from_slice(self.interner.resolve(self.marks[node as usize]));
        (count as u64).encode(&mut buf);
        for &sym in &sorted {
            buf.extend_from_slice(self.interner.resolve(sym));
        }
        let sym = self.interner.intern(&buf);
        self.enc_buf = buf;
        self.sort_buf = sorted;
        sym
    }

    /// Number of vertices currently resident.
    pub fn node_count(&self) -> usize {
        self.marks.len()
    }

    /// The mark of a vertex, as its interned label-encoding symbol.
    pub fn mark(&self, node: ViewNode) -> Sym {
        self.marks[node.index()]
    }

    /// The bytes of a vertex's mark (the encoded label).
    pub fn mark_bytes(&self, node: ViewNode) -> &[u8] {
        self.interner.resolve(self.marks[node.index()])
    }

    /// The child handles of a vertex, in port order.
    pub fn children(&self, node: ViewNode) -> impl Iterator<Item = ViewNode> + '_ {
        let start = self.child_start[node.index()] as usize;
        let count = self.child_count[node.index()] as usize;
        self.children[start..start + count].iter().map(|&c| ViewNode(c))
    }

    /// Number of children of a vertex.
    pub fn degree(&self, node: ViewNode) -> usize {
        self.child_count[node.index()] as usize
    }

    /// Total vertices in the subtree rooted at `node` (the recursive
    /// [`size`](crate::ViewTree::size)).
    pub fn subtree_size(&self, node: ViewNode) -> usize {
        let mut total = 0usize;
        let mut stack = vec![node.0];
        while let Some(v) = stack.pop() {
            total += 1;
            let start = self.child_start[v as usize] as usize;
            let count = self.child_count[v as usize] as usize;
            stack.extend_from_slice(&self.children[start..start + count]);
        }
        total
    }

    /// Clears resident vertices while retaining every allocation and the
    /// interner (the cross-build cache). Steady-state rebuilds after a
    /// `reset` are allocation-free except for newly seen encodings.
    pub fn reset(&mut self) {
        self.marks.clear();
        self.child_start.clear();
        self.child_count.clear();
        self.children.clear();
        self.build_scratch.clear();
        self.enc_scratch.clear();
    }

    /// Bytes retained by the flat vectors (capacity, not length) plus the
    /// interner's stored encodings — the arena's contribution to the
    /// process footprint, used by E21's peak-RSS proxy.
    pub fn retained_bytes(&self) -> usize {
        self.marks.capacity() * mem::size_of::<Sym>()
            + self.child_start.capacity() * mem::size_of::<u32>()
            + self.child_count.capacity() * mem::size_of::<u32>()
            + self.children.capacity() * mem::size_of::<u32>()
            + self.build_scratch.capacity() * mem::size_of::<u32>()
            + self.enc_scratch.capacity() * mem::size_of::<Sym>()
            + self.enc_buf.capacity()
            + self.sort_buf.capacity() * mem::size_of::<Sym>()
            + self.interner.stored_bytes()
    }

    /// Lifetime counters (hit/miss feed the `views.interner.{hit,miss}`
    /// obs counters; `nodes_built` feeds the `views.arena.nodes` gauge).
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            interner_hits: self.interner.hits(),
            interner_misses: self.interner.misses(),
            nodes_built: self.nodes_built,
            interned_bytes: self.interner.stored_bytes() as u64,
        }
    }

    /// Read access to the arena's interner.
    pub fn interner(&self) -> &Interner<RandomState> {
        &self.interner
    }
}

thread_local! {
    static THREAD_ARENA: RefCell<ViewArena> = RefCell::new(ViewArena::new());
}

/// Builds `L_d(v)` and returns its canonical encoding through a
/// thread-local [`ViewArena`] — the drop-in replacement for
/// `ViewTree::build(g, v, d)?.canonical_encoding()` on hot paths.
///
/// The per-thread arena is reset (allocations retained) on every call and
/// its interner persists across calls, so steady-state cost is one
/// budget-checked traversal plus interner lookups.
///
/// # Errors
///
/// [`ViewError::ViewTooLarge`] exactly when
/// [`ViewTree::build`](crate::ViewTree::build) would fail.
pub fn canonical_view_encoding<L: Label>(
    g: &LabeledGraph<L>,
    v: NodeId,
    d: usize,
) -> Result<Vec<u8>> {
    THREAD_ARENA.with(|cell| {
        let mut arena = cell.borrow_mut();
        arena.reset();
        let root = arena.build(g, v, d)?;
        Ok(arena.canonical_encoding(root))
    })
}

/// Lifetime stats of this thread's arena (see [`ViewArena::stats`]).
pub fn thread_arena_stats() -> ArenaStats {
    THREAD_ARENA.with(|cell| cell.borrow().stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view_tree::ViewTree;
    use anonet_graph::generators;

    fn fig1_c6() -> LabeledGraph<u32> {
        generators::cycle(6).unwrap().with_labels(vec![1u32, 2, 3, 1, 2, 3]).unwrap()
    }

    #[test]
    fn matches_recursive_reference_bytes() {
        let graphs: Vec<LabeledGraph<u32>> = vec![
            fig1_c6(),
            generators::path(6).unwrap().with_uniform_label(0u32),
            generators::petersen().with_degree_labels().map_labels(|l| *l),
            generators::star(5).unwrap().with_labels(vec![9u32, 5, 7, 5, 3]).unwrap(),
        ];
        let mut arena = ViewArena::new();
        for g in &graphs {
            for v in g.graph().nodes() {
                for d in 1..=4 {
                    arena.reset();
                    let root = arena.build(g, v, d).unwrap();
                    let reference = ViewTree::build(g, v, d).unwrap();
                    assert_eq!(
                        arena.canonical_encoding(root),
                        reference.canonical_encoding(),
                        "node {v:?} depth {d}"
                    );
                    assert_eq!(arena.node_count(), reference.size());
                    assert_eq!(arena.subtree_size(root), reference.size());
                }
            }
        }
    }

    #[test]
    fn depth_zero_and_budget_match_reference_errors() {
        let g = fig1_c6();
        let mut arena = ViewArena::new();
        assert_eq!(
            arena.build(&g, NodeId::new(0), 0).unwrap_err(),
            ViewTree::build(&g, NodeId::new(0), 0).unwrap_err()
        );
        let big = generators::complete(8).unwrap().with_uniform_label(0u8);
        arena.reset();
        assert_eq!(
            arena.build(&big, NodeId::new(0), 9).unwrap_err(),
            ViewTree::build(&big, NodeId::new(0), 9).unwrap_err()
        );
    }

    #[test]
    fn reset_reuses_without_changing_bytes() {
        let g = fig1_c6();
        let mut arena = ViewArena::new();
        let mut first = Vec::new();
        for round in 0..3 {
            for v in 0..6 {
                arena.reset();
                let root = arena.build(&g, NodeId::new(v), 3).unwrap();
                let enc = arena.canonical_encoding(root);
                if round == 0 {
                    first.push(enc);
                } else {
                    assert_eq!(enc, first[v], "round {round} node {v}");
                }
            }
        }
        // The interner keeps seeing the same encodings: later rounds are
        // pure hits.
        let stats = arena.stats();
        assert!(stats.interner_hits > 0);
        assert!(stats.nodes_built >= 3 * 6);
    }

    #[test]
    fn interned_subtrees_are_shared() {
        // All nodes of a uniform cycle share all sub-views: after the
        // first node, encodings of the rest are interner hits.
        let g = generators::cycle(8).unwrap().with_uniform_label(0u8);
        let mut arena = ViewArena::new();
        let mut syms = Vec::new();
        for v in 0..8 {
            arena.reset();
            let root = arena.build(&g, NodeId::new(v), 4).unwrap();
            syms.push(arena.canonical_sym(root));
        }
        syms.dedup();
        assert_eq!(syms.len(), 1, "uniform cycle views must intern to one symbol");
    }

    #[test]
    fn thread_helper_matches_reference() {
        let g = fig1_c6();
        for v in 0..6 {
            for d in 1..=3 {
                assert_eq!(
                    canonical_view_encoding(&g, NodeId::new(v), d).unwrap(),
                    ViewTree::build(&g, NodeId::new(v), d).unwrap().canonical_encoding()
                );
            }
        }
        let stats = thread_arena_stats();
        assert!(stats.nodes_built > 0);
        assert!(stats.interner_misses > 0);
    }

    #[test]
    fn children_are_in_port_order() {
        let g = fig1_c6();
        let mut arena = ViewArena::new();
        let root = arena.build(&g, NodeId::new(0), 2).unwrap();
        let tree = ViewTree::build(&g, NodeId::new(0), 2).unwrap();
        let marks: Vec<Vec<u8>> =
            arena.children(root).map(|c| arena.mark_bytes(c).to_vec()).collect();
        let expect: Vec<Vec<u8>> = tree.children().iter().map(|c| c.mark().encoded()).collect();
        assert_eq!(marks, expect);
        assert_eq!(arena.degree(root), 2);
    }

    #[test]
    fn retained_bytes_is_positive_after_build() {
        let g = fig1_c6();
        let mut arena = ViewArena::new();
        let _ = arena.build(&g, NodeId::new(0), 3).unwrap();
        assert!(arena.retained_bytes() > 0);
        let before = arena.retained_bytes();
        arena.reset();
        // reset retains capacity: footprint does not shrink.
        assert_eq!(arena.retained_bytes(), before);
    }
}
