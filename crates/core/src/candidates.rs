//! Candidate enumeration for `A_*`'s `Update-Graph` (paper, Section 3.1).
//!
//! A *candidate for phase `p`* at node `v` is a labeled graph `Ĝ` with
//! (C1) at most `p` nodes, (C2) a node `v̂` whose depth-`p` view equals
//! `v`'s, and (C3) whose `(î, ĉ)` part is an instance of `Π^c`.
//!
//! The paper quantifies over **all** labeled graphs, which is enumerable
//! here because of a connectivity observation: a candidate has at most
//! `p` nodes and is connected, so *every* candidate node lies within
//! `p - 1` hops of `v̂` — hence (by C2) every label occurring in a
//! candidate occurs as a mark in `v`'s depth-`p` view. Enumerating over
//! the view's label set is therefore **complete**, not a heuristic.
//!
//! Two reductions keep the enumeration small without moving any
//! `Update-Graph` selection, since that rule sees candidates only up to
//! labeled isomorphism. The connected graphs ("shapes") are deduplicated
//! up to isomorphism once per process ([`connected_graphs_up_to_iso`]).
//! The fast engine's pool, [`two_hop_colored_pool`], then keeps one
//! labeling per orbit of each shape's automorphism group: the first
//! member, in pool order, of each labeled-isomorphism class. The
//! reference engine's [`candidate_pool`] labels every shape every way.

use std::sync::OnceLock;

use anonet_graph::{distance, iso, Graph, Label, LabeledGraph, NodeId};

use crate::error::CoreError;
use crate::Result;

/// All connected simple graphs on exactly `n` labeled vertices, generated
/// as edge subsets of `K_n` (presentations, not isomorphism classes —
/// `A_*`'s minimal-candidate rule is invariant under duplicates).
///
/// # Errors
///
/// [`CoreError::EnumerationTooLarge`] for `n > 6` (the edge-subset count
/// is `2^(n(n-1)/2)`).
pub fn connected_graphs(n: usize) -> Result<Vec<Graph>> {
    check_shape_size(n)?;
    Ok(enumerate_connected(n))
}

fn check_shape_size(n: usize) -> Result<()> {
    if n == 0 || n > 6 {
        return Err(CoreError::EnumerationTooLarge { max_nodes: n, universe: 0 });
    }
    Ok(())
}

fn enumerate_connected(n: usize) -> Vec<Graph> {
    let pairs: Vec<(usize, usize)> =
        (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v))).collect();
    let mut graphs = Vec::new();
    for mask in 0u64..(1u64 << pairs.len()) {
        let edges: Vec<(usize, usize)> = pairs
            .iter()
            .enumerate()
            .filter(|(k, _)| (mask >> k) & 1 == 1)
            .map(|(_, &e)| e)
            .collect();
        let Ok(g) = Graph::from_edges(n, &edges) else { continue };
        if g.is_connected() {
            graphs.push(g);
        }
    }
    graphs
}

/// One connected graph of the deduplicated enumeration, with its radius-2
/// conflict lists: `conflicts[k]` holds the nodes `j < k` within distance
/// 2 of `k`, which a 2-hop coloring must color differently from `k`; its
/// non-identity automorphisms, each as the node permutation `σ` that
/// sends node `k` to `σ[k]`; and `stabilizers[k]`, the automorphisms
/// (as indexes) that map the positions `0..k` into themselves.
struct Shape {
    graph: Graph,
    conflicts: Vec<Vec<usize>>,
    automorphisms: Vec<Vec<usize>>,
    stabilizers: Vec<Vec<usize>>,
}

impl Shape {
    fn new(graph: Graph) -> Self {
        let conflicts = graph
            .nodes()
            .map(|k| {
                let mut near: Vec<usize> = distance::ball(&graph, k, 2)
                    .into_iter()
                    .map(NodeId::index)
                    .filter(|&j| j < k.index())
                    .collect();
                near.sort_unstable();
                near
            })
            .collect();
        let automorphisms = automorphisms(&graph);
        let stabilizers = (0..=graph.node_count())
            .map(|k| {
                (0..automorphisms.len())
                    .filter(|&a| automorphisms[a][..k].iter().all(|&j| j < k))
                    .collect()
            })
            .collect();
        Shape { graph, conflicts, automorphisms, stabilizers }
    }

    /// `true` iff some automorphism `σ` that maps the positions of
    /// `prefix` into themselves makes `prefix∘σ`, with
    /// `(prefix∘σ)[k] = prefix[σ[k]]`, lexicographically less than
    /// `prefix`. Then `x∘σ <_lex x` for every labeling `x` extending the
    /// prefix, since `σ` reads only prefix positions there, so none of
    /// them is the least labeling of its `Aut(shape)` orbit. On a
    /// complete labeling every automorphism qualifies, and `false` means
    /// exactly that the labeling is orbit-least: the orbit's first
    /// labeling in [`labelings`]' order.
    fn is_beaten_in_orbit(&self, prefix: &[usize]) -> bool {
        self.stabilizers[prefix.len()].iter().any(|&a| {
            let sigma = &self.automorphisms[a][..prefix.len()];
            sigma.iter().map(|&k| prefix[k]).lt(prefix.iter().copied())
        })
    }
}

/// The non-identity automorphisms of `graph`, by brute force over all
/// `n!` node permutations (`n ≤ 6`, so at most 720). A permutation that
/// maps every edge to an edge is an automorphism: it is injective on
/// edges, and the edge count is finite.
fn automorphisms(graph: &Graph) -> Vec<Vec<usize>> {
    let edges: Vec<_> = graph.edges().collect();
    let image = |sigma: &[usize], v: NodeId| NodeId::new(sigma[v.index()]);
    let mut out = Vec::new();
    let mut sigma: Vec<usize> = graph.nodes().map(NodeId::index).collect();
    // Heap's algorithm: every permutation once, the identity first.
    let mut stack = vec![0usize; sigma.len()];
    let mut k = 1;
    while k < sigma.len() {
        if stack[k] < k {
            sigma.swap(if k % 2 == 0 { 0 } else { stack[k] }, k);
            if edges.iter().all(|e| graph.has_edge(image(&sigma, e.u), image(&sigma, e.v))) {
                out.push(sigma.clone());
            }
            stack[k] += 1;
            k = 1;
        } else {
            stack[k] = 0;
            k += 1;
        }
    }
    out
}

/// The deduplicated shapes on `n` nodes, enumerated once per process:
/// [`connected_graphs`] costs `2^(n(n-1)/2)` edge sets plus isomorphism
/// checks, and every pool build would otherwise repeat it.
fn shapes(n: usize) -> Result<&'static [Shape]> {
    static SHAPES: [OnceLock<Vec<Shape>>; 7] = [const { OnceLock::new() }; 7];
    check_shape_size(n)?;
    Ok(SHAPES[n].get_or_init(|| {
        let mut classes: Vec<LabeledGraph<u8>> = Vec::new();
        let mut out = Vec::new();
        for g in enumerate_connected(n) {
            let plain = g.with_uniform_label(0u8);
            if classes.iter().any(|seen| iso::are_isomorphic(seen, &plain)) {
                continue;
            }
            classes.push(plain);
            out.push(Shape::new(g));
        }
        out
    }))
}

/// [`connected_graphs`] deduplicated up to (unlabeled) isomorphism,
/// keeping the first presentation of each class.
///
/// Dropping duplicate presentations *before* labeling shrinks the
/// candidate pool by the OEIS A001187 / A001349 ratio (728 → 21 at
/// `n = 5`) and changes nothing observable: every labeled candidate over
/// a dropped presentation is isomorphic (transport the labeling along
/// the graph isomorphism) to a labeled candidate over the kept one, the
/// `Update-Graph` order `(|V̂_*|, s(Ĝ_*))` compares candidates through
/// their canonical quotient encodings (presentation-independent), and on
/// prime quotients the isomorphism is unique, so the simulated outcome at
/// the matched node is identical. The `pool_selection_is_invariant_
/// under_presentation_dedup` test in [`crate::astar_cache`] pins this.
///
/// The enumeration runs once per process and size; later calls copy it.
///
/// # Errors
///
/// [`CoreError::EnumerationTooLarge`] as for [`connected_graphs`].
pub fn connected_graphs_up_to_iso(n: usize) -> Result<Vec<Graph>> {
    Ok(shapes(n)?.iter().map(|s| s.graph.clone()).collect())
}

/// [`CoreError::EnumerationTooLarge`] when `|universe|^n` exceeds `2^20`.
fn check_labeling_count(universe: usize, n: usize) -> Result<()> {
    let total = (universe as u128).checked_pow(n as u32).unwrap_or(u128::MAX);
    if total > (1 << 20) {
        return Err(CoreError::EnumerationTooLarge { max_nodes: n, universe });
    }
    Ok(())
}

/// All labelings of `n` vertices over `universe` (i.e. `universe^n`),
/// in lexicographic order of index vectors.
///
/// # Errors
///
/// [`CoreError::EnumerationTooLarge`] when `|universe|^n` exceeds
/// `2^20`.
pub fn labelings<L: Label>(universe: &[L], n: usize) -> Result<Vec<Vec<L>>> {
    let u = universe.len();
    if u == 0 {
        return Ok(Vec::new());
    }
    check_labeling_count(u, n)?;
    let mut out = Vec::with_capacity(u.pow(n as u32));
    let mut idx = vec![0usize; n];
    loop {
        out.push(idx.iter().map(|&i| universe[i].clone()).collect());
        // Increment the index vector (most significant = first position,
        // mirroring the canonical orders used elsewhere).
        let mut pos = n;
        loop {
            if pos == 0 {
                return Ok(out);
            }
            pos -= 1;
            idx[pos] += 1;
            if idx[pos] < u {
                break;
            }
            idx[pos] = 0;
        }
    }
}

/// All labeled graphs with **at most** `max_nodes` nodes over the given
/// label universe — the raw candidate pool before conditions C2/C3.
///
/// Underlying graphs are deduplicated up to isomorphism
/// ([`connected_graphs_up_to_iso`]); the pool still covers every labeled
/// candidate up to isomorphism, which is all the minimal-candidate rule
/// can see.
///
/// # Errors
///
/// Enumeration-size errors from [`connected_graphs`] / [`labelings`].
pub fn candidate_pool<L: Label>(max_nodes: usize, universe: &[L]) -> Result<Vec<LabeledGraph<L>>> {
    let mut pool = Vec::new();
    for n in 1..=max_nodes {
        for shape in shapes(n)? {
            for labels in labelings(universe, n)? {
                pool.push(shape.graph.with_labels(labels)?);
            }
        }
    }
    Ok(pool)
}

/// One shape's candidates in a pool, borrowing the process-wide shape:
/// candidate `k` is `graph` with node `j` labeled by universe entry
/// `indices[k·n + j]`, where `n = graph.node_count()`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShapeLabelings {
    /// The shape every candidate of this group is a labeling of.
    pub graph: &'static Graph,
    /// The candidates' universe indexes, `n` per candidate, in pool order.
    pub indices: Vec<usize>,
}

impl ShapeLabelings {
    /// Each candidate's universe indexes, node by node, in pool order.
    pub fn labelings(&self) -> std::slice::ChunksExact<'_, usize> {
        self.indices.chunks_exact(self.graph.node_count())
    }
}

/// `graph` with node `j` labeled `universe[indices[j]]`: a borrowed
/// candidate as a [`LabeledGraph`].
///
/// # Errors
///
/// A graph error when `indices` has not one entry per node.
pub fn label_shape<L: Label>(
    graph: &Graph,
    indices: &[usize],
    universe: &[L],
) -> Result<LabeledGraph<L>> {
    Ok(graph.with_labels(indices.iter().map(|&i| universe[i].clone()).collect())?)
}

/// [`candidate_pool`] restricted to the candidates whose `color` parts
/// form a 2-hop coloring, **one candidate per labeled-isomorphism class**:
/// of the candidates that filtering [`candidate_pool`] by
/// [`is_two_hop_coloring`](anonet_graph::coloring::is_two_hop_coloring)
/// keeps, exactly those isomorphic to no earlier one, in the same order
/// (for a `universe` that repeats no entry; a repeated entry only adds
/// duplicates). Candidates are returned as universe indexes over a
/// borrowed shape, grouped by shape in pool order ([`label_shape`]
/// builds one as a graph); nothing else is built.
///
/// Labelings are walked in [`labelings`]' lexicographic order of index
/// vectors, and a prefix is abandoned as soon as its last node repeats a
/// color within distance 2: every labeling that extends it fails the same
/// check. A complete labeling `x` is kept only if no automorphism `σ` of
/// its shape gives `x∘σ <_lex x`; a prefix is abandoned as soon as an
/// automorphism mapping its positions into themselves gives that on the
/// prefix, because then it does so on every extension. Two labelings of one shape are
/// isomorphic exactly when an automorphism maps one to the other, and
/// distinct shapes are not isomorphic at all, so the kept labeling — the
/// lex-least of its orbit — is the first member of its class in pool
/// order. The 2-hop gate is invariant under automorphisms, so that first
/// member is never one the gate dropped.
///
/// **Why no `Update-Graph` selection moves.** C3
/// ([`is_instance`](anonet_runtime::Problem::is_instance)), the quotient
/// gate and the order `(|V̂_*|, s(Ĝ_*))` are invariant under isomorphism,
/// and isomorphic candidates contain the same depth-`p` views. The C2
/// index keeps, per view, the *first* minimal matching candidate in pool
/// order, with `v̂` its first matching node. Any candidate isomorphic to
/// it sorts equal and has the view too, so it is not earlier: the
/// selected candidate is the first of its class and survives the dedup,
/// with the same `v̂`. Every selection, candidate step and counter of
/// `A_*` is therefore what the pool of every labeling gives. The
/// `pool_selection_is_invariant_under_presentation_dedup` proptest in
/// [`crate::astar_cache`] checks this against
/// [`candidate_pool_all_presentations`].
///
/// # Errors
///
/// The enumeration-size errors of [`candidate_pool`], for the same
/// arguments.
pub fn two_hop_colored_pool<L: Label, K: PartialEq>(
    max_nodes: usize,
    universe: &[L],
    color: impl Fn(&L) -> &K,
) -> Result<Vec<ShapeLabelings>> {
    // Each universe entry's color as the index of its first occurrence,
    // so the search below compares integers only.
    let classes: Vec<usize> = universe
        .iter()
        .enumerate()
        .map(|(i, l)| universe[..i].iter().position(|m| color(m) == color(l)).unwrap_or(i))
        .collect();
    let mut pool = Vec::new();
    for n in 1..=max_nodes {
        let shapes = shapes(n)?;
        if universe.is_empty() {
            continue;
        }
        check_labeling_count(universe.len(), n)?;
        for shape in shapes {
            let mut indices = Vec::new();
            two_hop_labelings(shape, &classes, &mut Vec::with_capacity(n), &mut indices);
            if !indices.is_empty() {
                pool.push(ShapeLabelings { graph: &shape.graph, indices });
            }
        }
    }
    Ok(pool)
}

/// Appends to `out`, in lexicographic order, every index vector that
/// extends `prefix`, gives nodes of `shape` within distance 2 distinct
/// classes, and is the least of its `Aut(shape)` orbit. A prefix that
/// fails either test is abandoned: no extension of it passes.
fn two_hop_labelings(
    shape: &Shape,
    classes: &[usize],
    prefix: &mut Vec<usize>,
    out: &mut Vec<usize>,
) {
    let Some(near) = shape.conflicts.get(prefix.len()) else {
        out.extend_from_slice(prefix);
        return;
    };
    for (i, &class) in classes.iter().enumerate() {
        if near.iter().all(|&j| classes[prefix[j]] != class) {
            prefix.push(i);
            if !shape.is_beaten_in_orbit(prefix) {
                two_hop_labelings(shape, classes, prefix, out);
            }
            prefix.pop();
        }
    }
}

/// The pre-dedup pool: every *presentation* of every connected graph,
/// labeled — the paper's literal enumeration. Kept for the differential
/// test that the dedup does not move the `Update-Graph` selection.
///
/// # Errors
///
/// Enumeration-size errors from [`connected_graphs`] / [`labelings`].
pub fn candidate_pool_all_presentations<L: Label>(
    max_nodes: usize,
    universe: &[L],
) -> Result<Vec<LabeledGraph<L>>> {
    let mut pool = Vec::new();
    for n in 1..=max_nodes {
        for g in connected_graphs(n)? {
            for labels in labelings(universe, n)? {
                pool.push(g.with_labels(labels)?);
            }
        }
    }
    Ok(pool)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use anonet_graph::coloring;

    /// Every candidate of `pool` labeled over `universe`, in pool order.
    pub(crate) fn materialize<L: Label>(
        pool: &[ShapeLabelings],
        universe: &[L],
    ) -> Vec<LabeledGraph<L>> {
        pool.iter()
            .flat_map(|group| group.labelings().map(|x| label_shape(group.graph, x, universe)))
            .collect::<Result<_>>()
            .unwrap()
    }

    /// `pool` without every graph isomorphic to an earlier one, decided by
    /// [`iso::are_isomorphic`] on the full labels — the independent oracle
    /// for [`two_hop_colored_pool`]'s orbit dedup.
    pub(crate) fn first_of_each_class<L: Label>(
        pool: Vec<LabeledGraph<L>>,
    ) -> Vec<LabeledGraph<L>> {
        let sorted_labels = |g: &LabeledGraph<L>| {
            let mut labels = g.labels().to_vec();
            labels.sort();
            labels
        };
        let mut kept: Vec<(Vec<L>, LabeledGraph<L>)> = Vec::new();
        for g in pool {
            let labels = sorted_labels(&g);
            // Equal label multisets are necessary; the checker decides.
            if !kept.iter().any(|(l, k)| *l == labels && iso::are_isomorphic(k, &g)) {
                kept.push((labels, g));
            }
        }
        kept.into_iter().map(|(_, g)| g).collect()
    }

    #[test]
    fn connected_graph_counts_match_oeis() {
        // Numbers of connected labeled graphs on n nodes: OEIS A001187.
        assert_eq!(connected_graphs(1).unwrap().len(), 1);
        assert_eq!(connected_graphs(2).unwrap().len(), 1);
        assert_eq!(connected_graphs(3).unwrap().len(), 4);
        assert_eq!(connected_graphs(4).unwrap().len(), 38);
        assert_eq!(connected_graphs(5).unwrap().len(), 728);
    }

    #[test]
    fn oversized_enumerations_are_rejected() {
        assert!(connected_graphs(7).is_err());
        let universe: Vec<u32> = (0..40).collect();
        assert!(labelings(&universe, 6).is_err());
    }

    #[test]
    fn labelings_cover_the_product_space() {
        let ls = labelings(&[1u8, 2, 3], 2).unwrap();
        assert_eq!(ls.len(), 9);
        assert_eq!(ls[0], vec![1, 1]);
        assert_eq!(ls[8], vec![3, 3]);
        // Lexicographic and duplicate-free.
        let mut sorted = ls.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted, ls);
    }

    #[test]
    fn empty_universe_yields_nothing() {
        let ls = labelings::<u8>(&[], 3).unwrap();
        assert!(ls.is_empty());
    }

    #[test]
    fn iso_dedup_counts_match_oeis() {
        // Connected graphs on n unlabeled nodes: OEIS A001349.
        assert_eq!(connected_graphs_up_to_iso(1).unwrap().len(), 1);
        assert_eq!(connected_graphs_up_to_iso(2).unwrap().len(), 1);
        assert_eq!(connected_graphs_up_to_iso(3).unwrap().len(), 2);
        assert_eq!(connected_graphs_up_to_iso(4).unwrap().len(), 6);
        assert_eq!(connected_graphs_up_to_iso(5).unwrap().len(), 21);
    }

    #[test]
    fn iso_dedup_keeps_first_presentations() {
        // Dedup keeps the earliest presentation of each class, so the
        // deduped list is a subsequence of the full enumeration and every
        // dropped presentation is isomorphic to a kept one.
        let full: Vec<_> =
            connected_graphs(4).unwrap().into_iter().map(|g| g.with_uniform_label(0u8)).collect();
        let kept: Vec<_> = connected_graphs_up_to_iso(4)
            .unwrap()
            .into_iter()
            .map(|g| g.with_uniform_label(0u8))
            .collect();
        let mut cursor = 0usize;
        for k in &kept {
            let pos = full[cursor..]
                .iter()
                .position(|f| {
                    f.graph().edges().collect::<Vec<_>>() == k.graph().edges().collect::<Vec<_>>()
                })
                .expect("kept graphs appear in enumeration order");
            cursor += pos + 1;
        }
        for f in &full {
            assert!(kept.iter().any(|k| iso::are_isomorphic(k, f)));
        }
    }

    #[test]
    fn pool_sizes_compose() {
        let universe = vec![1u8, 2];
        let pool = candidate_pool(3, &universe).unwrap();
        // n=1: 1 graph × 2 labelings; n=2: 1 × 4; n=3: 2 classes × 8
        // (the four presentations collapse to path-3 and triangle).
        assert_eq!(pool.len(), 2 + 4 + 16);
        assert!(pool.iter().all(|g| g.graph().is_connected()));
        // The literal presentation pool is strictly larger.
        let full = candidate_pool_all_presentations(3, &universe).unwrap();
        assert_eq!(full.len(), 2 + 4 + 32);
    }

    /// `candidate_pool` filtered by the 2-hop gate on the color part.
    fn filtered_pool(
        max_nodes: usize,
        universe: &[(u8, u32)],
    ) -> Result<Vec<LabeledGraph<(u8, u32)>>> {
        Ok(candidate_pool(max_nodes, universe)?
            .into_iter()
            .filter(|cand| coloring::is_two_hop_coloring(&cand.map_labels(|(_i, c)| *c)))
            .collect())
    }

    #[test]
    fn two_hop_colored_pool_is_the_filtered_pool() {
        // Labels are (input, color); some colors repeat across inputs, so
        // distinct labels can still conflict. The pool is the filtered
        // pool with every candidate isomorphic to an earlier one dropped.
        let universes: Vec<Vec<(u8, u32)>> = vec![
            vec![],
            vec![(0, 1)],
            vec![(0, 1), (0, 2), (0, 3)],
            vec![(0, 1), (0, 2), (1, 1), (1, 3)],
            vec![(0, 5), (1, 5), (2, 5)],
        ];
        for universe in &universes {
            for max_nodes in 1..=4 {
                let pruned = two_hop_colored_pool(max_nodes, universe, |(_i, c)| c).unwrap();
                let pruned = materialize(&pruned, universe);
                let want = first_of_each_class(filtered_pool(max_nodes, universe).unwrap());
                assert_eq!(pruned, want, "universe {universe:?}, {max_nodes} nodes");
            }
        }
        // A path on three nodes needs three colors: distance-2 conflicts
        // are what empties this pool beyond two nodes. `(a, b)` and
        // `(b, a)` on two nodes are one class.
        let two_colors = [(0u8, 1u32), (0, 2)];
        let pool =
            materialize(&two_hop_colored_pool(3, &two_colors, |(_i, c)| c).unwrap(), &two_colors);
        assert!(pool.iter().all(|g| g.node_count() <= 2));
        assert_eq!(pool.len(), 2 + 1);
    }

    /// The shape on four nodes with the given sorted degree sequence.
    fn four_node_shape(degrees: [usize; 4]) -> &'static Shape {
        let degrees_of = |s: &Shape| {
            let mut d: Vec<usize> = s.graph.nodes().map(|v| s.graph.degree(v)).collect();
            d.sort_unstable();
            d
        };
        shapes(4).unwrap().iter().find(|s| degrees_of(s) == degrees).expect("a four-node shape")
    }

    #[test]
    fn automorphism_groups_match_oeis() {
        // Orbit-stabilizer: shape S has n!/|Aut(S)| labeled presentations,
        // so the sum over shapes is the labeled count A001187 pins above.
        for (n, labeled) in [(1usize, 1usize), (2, 1), (3, 4), (4, 38), (5, 728)] {
            let factorial: usize = (1..=n).product();
            let total: usize =
                shapes(n).unwrap().iter().map(|s| factorial / (s.automorphisms.len() + 1)).sum();
            assert_eq!(total, labeled, "{n} nodes");
            for shape in shapes(n).unwrap() {
                let plain = shape.graph.with_uniform_label(0u8);
                let mut seen: Vec<&Vec<usize>> = Vec::new();
                for sigma in &shape.automorphisms {
                    let mapping: Vec<NodeId> = sigma.iter().map(|&k| NodeId::new(k)).collect();
                    assert!(iso::is_isomorphism(&plain, &plain, &mapping), "{sigma:?}");
                    assert!(sigma.iter().enumerate().any(|(k, &s)| k != s), "identity listed");
                    assert!(!seen.contains(&sigma), "{sigma:?} listed twice");
                    seen.push(sigma);
                }
            }
        }
        // The six four-node groups: P4, star, C4, paw, diamond, K4.
        for (degrees, order) in [
            ([1, 1, 2, 2], 2),
            ([1, 1, 1, 3], 6),
            ([2, 2, 2, 2], 8),
            ([1, 2, 2, 3], 2),
            ([2, 2, 3, 3], 4),
            ([3, 3, 3, 3], 24),
        ] {
            assert_eq!(four_node_shape(degrees).automorphisms.len() + 1, order, "{degrees:?}");
        }
    }

    /// One to five distinct `(input, color)` labels, inputs in `0..2` and
    /// colors in `1..=4`, sorted: colors may repeat across labels.
    fn small_universe(seed: u64) -> Vec<(u8, u32)> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let len = rng.gen_range(1..=5usize);
        let mut universe: Vec<(u8, u32)> =
            (0..len).map(|_| (rng.gen_range(0..2u8), rng.gen_range(1..=4u32))).collect();
        universe.sort();
        universe.dedup();
        universe
    }

    /// `true` iff `x` is the lex-least labeling of its `Aut(shape)`
    /// orbit, checked at the leaf against every automorphism.
    fn is_orbit_least(shape: &Shape, x: &[usize]) -> bool {
        shape.automorphisms.iter().all(|sigma| sigma.iter().map(|&k| x[k]).ge(x.iter().copied()))
    }

    /// [`two_hop_colored_pool`] without prefix pruning by automorphisms:
    /// every index vector in lexicographic order, kept if its colors form
    /// a 2-hop coloring and it is orbit-least as a whole.
    fn leaf_filtered_pool(
        max_nodes: usize,
        universe: &[(u8, u32)],
    ) -> Vec<LabeledGraph<(u8, u32)>> {
        let indices: Vec<usize> = (0..universe.len()).collect();
        let mut pool = Vec::new();
        for n in 1..=max_nodes {
            for shape in shapes(n).unwrap() {
                for x in labelings(&indices, n).unwrap() {
                    let cand = shape.graph.with_labels(x.iter().map(|&i| universe[i]).collect());
                    let cand = cand.unwrap();
                    if coloring::is_two_hop_coloring(&cand.map_labels(|(_i, c)| *c))
                        && is_orbit_least(shape, &x)
                    {
                        pool.push(cand);
                    }
                }
            }
        }
        pool
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Abandoning a prefix that an automorphism fixing its positions
        /// makes lex-smaller keeps exactly the leaf-filtered pool: the
        /// same candidates in the same order.
        #[test]
        fn orbit_pruning_keeps_the_leaf_filtered_pool(
            seed in 0u64..1_000_000,
            max_nodes in 1..=4usize,
        ) {
            let universe = small_universe(seed);
            let pool = two_hop_colored_pool(max_nodes, &universe, |(_i, c)| c).unwrap();
            let pool = materialize(&pool, &universe);
            proptest::prop_assert_eq!(pool, leaf_filtered_pool(max_nodes, &universe));
        }

        /// Lemma 2: the quotient of a 2-hop colored graph is simple, so
        /// `quotient` never fails on a pool candidate.
        #[test]
        fn two_hop_colored_candidates_always_have_a_quotient(
            seed in 0u64..1_000_000,
            max_nodes in 1..=4usize,
        ) {
            let universe = small_universe(seed);
            let pool = two_hop_colored_pool(max_nodes, &universe, |(_i, c)| c).unwrap();
            for cand in materialize(&pool, &universe) {
                let q = anonet_views::quotient(&cand, anonet_views::ViewMode::Portless);
                proptest::prop_assert!(q.is_ok(), "{:?}", cand);
            }
        }
    }

    #[test]
    fn two_hop_colored_pool_rejects_what_candidate_pool_rejects() {
        // Both builders take their graphs from `shapes`, which rejects
        // seven nodes before enumerating anything.
        assert_eq!(
            connected_graphs_up_to_iso(7).unwrap_err(),
            CoreError::EnumerationTooLarge { max_nodes: 7, universe: 0 }
        );
        // 102^3 labelings exceed 2^20 at three nodes, after the smaller
        // sizes enumerate.
        let wide: Vec<(u8, u32)> = (0..102).map(|c| (0, c)).collect();
        let want = CoreError::EnumerationTooLarge { max_nodes: 3, universe: 102 };
        assert_eq!(candidate_pool(3, &wide).unwrap_err(), want);
        assert_eq!(two_hop_colored_pool(3, &wide, |(_i, c)| c).unwrap_err(), want);
        // An empty universe enumerates nothing, without error.
        assert!(two_hop_colored_pool(4, &[] as &[(u8, u32)], |(_i, c)| c).unwrap().is_empty());
    }
}
