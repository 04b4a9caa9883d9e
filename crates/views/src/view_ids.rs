//! Hash-consed layered view ids: the crate's fast test of view equality.
//!
//! Whether two depth-`d` views `L_d(u)` and `L_d(w)` are equal is the
//! question behind C2 in `Update-Graph`, the finite view graph and
//! Lemma 3; no production path needs a view's *bytes*. So views are
//! compared through ids computed in `d` sweeps over a graph:
//!
//! * `id_1(u) = intern(mark(u), 0)`;
//! * `id_d(u) = intern(mark(u), deg(u), sorted id_{d−1} of the neighbours)`.
//!
//! `mark(u)` is the interned encoding of `u`'s label. The Portless
//! canonical view encoding ([`ViewTree::canonical_encoding`]) is the
//! mark, the child count and the child encodings sorted by bytes, and
//! every label encoding is self-delimiting, so by induction on `d` two
//! ids of one [`ViewIds`] table are equal iff the canonical bytes are. A
//! sweep costs `O(d·|E|)` instead of one `Δ^d`-vertex tree per node, and
//! counts each view's vertices alongside (saturating): a view over
//! [`SIZE_BUDGET`] reports the error [`ViewTree::build`] reports for it.
//!
//! Two sweeps share the tables:
//!
//! * [`ViewIds::intern`] interns every mark and every layer key of a
//!   labeled graph (an instance), so every node gets an id;
//! * [`ViewIds::lookup`] only looks keys up (a candidate compared against
//!   an instance). A view equal to an interned one has, layer by layer,
//!   only sub-views the interning sweep met at the same depth, so all of
//!   its keys resolve, to the same id; a node whose key misses has a view
//!   no interned node has, and gets no id.
//!
//! Ids are first-seen indexes, so they are identity, never order (see
//! [`Interner`]).
//!
//! [`ViewTree::canonical_encoding`]: crate::ViewTree::canonical_encoding
//! [`ViewTree::build`]: crate::ViewTree::build

use anonet_graph::{Graph, Label, LabeledGraph, NodeId};

use crate::interner::{Interner, Sym};
use crate::view_tree::{check_size, SIZE_BUDGET};
use crate::Result;

/// The two tables behind layered view ids: label encodings → marks, and
/// layer keys → view ids. Ids are comparable only within one table.
///
/// # Example
///
/// ```
/// use anonet_graph::{generators, NodeId};
/// use anonet_views::ViewIds;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The paper's Figure 1: in the colored C6, nodes 0 and 3 share every
/// // view, and nodes 0 and 1 differ already at depth 1.
/// let c6 = generators::cycle(6)?.with_labels(vec![1u32, 2, 3, 1, 2, 3])?;
/// let layers = ViewIds::new().intern(&c6, 3);
/// let id = |v| layers.id(c6.graph(), NodeId::new(v));
/// assert_eq!(id(0)?, id(3)?);
/// assert_ne!(id(0)?, id(1)?);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct ViewIds {
    marks: Interner,
    layers: Interner,
}

impl ViewIds {
    /// Empty tables.
    pub fn new() -> Self {
        ViewIds::default()
    }

    /// Each label's mark: its encoding, interned.
    pub fn marks<L: Label>(&mut self, labels: &[L]) -> Vec<Sym> {
        let mut buf = Vec::new();
        labels
            .iter()
            .map(|label| {
                buf.clear();
                label.encode(&mut buf);
                self.marks.intern(&buf)
            })
            .collect()
    }

    /// Every node's depth-`depth` view id in `g`, interning every mark and
    /// every layer key: each node of the result has an id.
    pub fn intern<L: Label>(&mut self, g: &LabeledGraph<L>, depth: usize) -> ViewLayers {
        let marks = self.marks(g.labels());
        let mut layers = ViewLayers::default();
        layers.sweep(g.graph(), &marks, depth, &mut Table::Intern(&mut self.layers));
        layers
    }

    /// Every node's depth-`depth` view id in `g`, whose nodes carry
    /// `marks` (from [`marks`](ViewIds::marks)), into `out`, looking
    /// layer keys up without interning: a node whose view no
    /// [`intern`](ViewIds::intern) sweep met gets no id.
    pub fn lookup(&self, g: &Graph, marks: &[Sym], depth: usize, out: &mut ViewLayers) {
        out.sweep(g, marks, depth, &mut Table::Lookup(&self.layers));
    }
}

/// How a sweep resolves its keys.
enum Table<'a> {
    Intern(&'a mut Interner),
    Lookup(&'a Interner),
}

impl Table<'_> {
    fn resolve(&mut self, key: &[u8]) -> Option<Sym> {
        match self {
            Table::Intern(table) => Some(table.intern(key)),
            Table::Lookup(table) => table.sym(key),
        }
    }
}

/// One graph's layered view ids and view sizes at the depth of its last
/// sweep, with the buffers a sweep reuses.
#[derive(Clone, Debug, Default)]
pub struct ViewLayers {
    depth: usize,
    /// `id_depth(u)` per node; `None` where a lookup missed.
    ids: Vec<Option<Sym>>,
    /// Vertex count of `L_depth(u)` per node, saturating.
    sizes: Vec<usize>,
    next_ids: Vec<Option<Sym>>,
    next_sizes: Vec<usize>,
    kids: Vec<u32>,
    key: Vec<u8>,
}

impl ViewLayers {
    /// Node `v`'s view id, `None` if a lookup sweep found no interned
    /// view equal to it. `g` is the swept graph.
    ///
    /// # Errors
    ///
    /// The [`ViewError::ViewTooLarge`](crate::ViewError::ViewTooLarge)
    /// that [`ViewTree::build`](crate::ViewTree::build) reports for `v` at
    /// this depth: the view has more than [`SIZE_BUDGET`] vertices, or the
    /// depth is 0.
    #[inline]
    pub fn id(&self, g: &Graph, v: NodeId) -> Result<Option<Sym>> {
        if self.depth == 0 || self.sizes[v.index()] > SIZE_BUDGET {
            check_size(g, v, self.depth)?;
        }
        Ok(self.ids[v.index()])
    }

    /// Computes `id_depth` and the depth-`depth` view size of every node
    /// of `g` in `depth` sweeps (`depth = 0` leaves the depth-1 layer).
    fn sweep(&mut self, g: &Graph, marks: &[Sym], depth: usize, table: &mut Table<'_>) {
        self.depth = depth;
        self.ids.clear();
        self.sizes.clear();
        self.kids.clear();
        for &mark in marks {
            let id = self.resolve_key(mark, table);
            self.ids.push(id);
            self.sizes.push(1);
        }
        for _ in 1..depth {
            self.next_ids.clear();
            self.next_sizes.clear();
            for v in g.nodes() {
                let neighbors = g.neighbors(v);
                let size =
                    neighbors.iter().fold(1usize, |s, u| s.saturating_add(self.sizes[u.index()]));
                self.next_sizes.push(size);
                self.kids.clear();
                let mut known = true;
                for u in neighbors {
                    match self.ids[u.index()] {
                        Some(id) => self.kids.push(id.index() as u32),
                        None => known = false,
                    }
                }
                let id = if known {
                    self.kids.sort_unstable();
                    self.resolve_key(marks[v.index()], table)
                } else {
                    None
                };
                self.next_ids.push(id);
            }
            std::mem::swap(&mut self.ids, &mut self.next_ids);
            std::mem::swap(&mut self.sizes, &mut self.next_sizes);
        }
    }

    /// Resolves the key `(mark, |kids|, kids)`.
    fn resolve_key(&mut self, mark: Sym, table: &mut Table<'_>) -> Option<Sym> {
        self.key.clear();
        self.key.extend_from_slice(&(mark.index() as u32).to_le_bytes());
        self.key.extend_from_slice(&(self.kids.len() as u32).to_le_bytes());
        for kid in &self.kids {
            self.key.extend_from_slice(&kid.to_le_bytes());
        }
        table.resolve(&self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ViewError, ViewTree};
    use anonet_graph::lift::random_connected_lift;
    use anonet_graph::{generators, BitString};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    type TestLabel = (u32, BitString);

    /// One of three colors and a bitstring of at most one bit, so that
    /// equal views are common and encodings differ in length.
    fn small_label(rng: &mut ChaCha8Rng) -> TestLabel {
        let mut b = BitString::new();
        if rng.gen_bool(0.5) {
            b.push(rng.gen_bool(0.5));
        }
        (rng.gen_range(1..=3u32), b)
    }

    /// `kind` 0 is a connected G(n, p) on 2 to 9 nodes, 1 a random lift
    /// of a small base with lifted labels, 2 a connected graph on at most
    /// four nodes (a candidate's size).
    fn sample_graph(kind: usize, seed: u64) -> LabeledGraph<TestLabel> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let random = |n: usize, p: f64, rng: &mut ChaCha8Rng| {
            let g = generators::gnp_connected(n, p, rng).unwrap();
            let labels = (0..n).map(|_| small_label(rng)).collect();
            g.with_labels(labels).unwrap()
        };
        match kind {
            0 => {
                let n = rng.gen_range(2..=9usize);
                random(n, 0.4, &mut rng)
            }
            1 => {
                let bases = [
                    generators::complete(3).unwrap(),
                    generators::cycle(4).unwrap(),
                    Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]).unwrap(),
                    generators::complete(4).unwrap(),
                ];
                let base = &bases[rng.gen_range(0..bases.len())];
                let m = rng.gen_range(2..=4usize);
                let lift = random_connected_lift(base, m, 1000, &mut rng).unwrap();
                let labels: Vec<TestLabel> =
                    (0..base.node_count()).map(|_| small_label(&mut rng)).collect();
                lift.lift_labels(&labels).unwrap()
            }
            _ => {
                let n = rng.gen_range(1..=4usize);
                random(n, 0.6, &mut rng)
            }
        }
    }

    fn ids_of<L: Label>(layers: &ViewLayers, g: &LabeledGraph<L>) -> Vec<Option<Sym>> {
        g.graph().nodes().map(|v| layers.id(g.graph(), v).unwrap()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Layered ids are equal exactly when the canonical view bytes
        /// are: between the interned ids of one graph, between two graphs
        /// interned into one table, and for the lookup-only ids of a
        /// second graph against a table only the first graph filled.
        #[test]
        fn layered_ids_agree_with_view_bytes(
            kind_a in 0..3usize,
            kind_b in 0..3usize,
            seed in 0u64..1_000_000,
        ) {
            let a = sample_graph(kind_a, seed);
            let b = sample_graph(kind_b, seed.wrapping_add(1));
            for depth in 1..=6usize {
                let bytes = |g: &LabeledGraph<TestLabel>| -> Vec<Vec<u8>> {
                    g.graph()
                        .nodes()
                        .map(|v| ViewTree::build(g, v, depth).unwrap().canonical_encoding())
                        .collect()
                };
                let (bytes_a, bytes_b) = (bytes(&a), bytes(&b));

                let mut table = ViewIds::new();
                let ids_a = ids_of(&table.intern(&a, depth), &a);
                let marks_b = table.marks(b.labels());
                let mut looked_up = ViewLayers::default();
                table.lookup(b.graph(), &marks_b, depth, &mut looked_up);
                let looked_up = ids_of(&looked_up, &b);
                let ids_b = ids_of(&table.intern(&b, depth), &b);
                for (u, bytes_u) in bytes_a.iter().enumerate() {
                    proptest::prop_assert!(ids_a[u].is_some());
                    for (w, bytes_w) in bytes_b.iter().enumerate() {
                        let equal = bytes_u == bytes_w;
                        proptest::prop_assert_eq!(ids_a[u] == ids_b[w], equal, "depth {depth}: {u} vs {w}");
                        proptest::prop_assert_eq!(looked_up[w] == ids_a[u], equal, "depth {depth}: lookup {w} vs {u}");
                    }
                    for (x, bytes_x) in bytes_a.iter().enumerate() {
                        proptest::prop_assert_eq!(ids_a[u] == ids_a[x], bytes_u == bytes_x);
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_and_depth_zero_views_fail_like_the_explicit_build() {
        // K8's depth-d view has 1 + 7 + … + 7^(d−1) vertices: over the
        // budget at depth 9, far under it at depth 3.
        let k8 = generators::complete(8).unwrap().with_uniform_label(0u8);
        let mut table = ViewIds::new();
        for depth in [0, 3, 9] {
            let layers = table.intern(&k8, depth);
            for v in k8.graph().nodes() {
                let want = ViewTree::build(&k8, v, depth).map(|_| ());
                let got = layers.id(k8.graph(), v).map(|id| assert!(id.is_some()));
                assert_eq!(got, want, "node {v:?} depth {depth}");
            }
        }
        assert!(matches!(
            table.intern(&k8, 9).id(k8.graph(), NodeId::new(0)),
            Err(ViewError::ViewTooLarge { .. })
        ));
    }
}
