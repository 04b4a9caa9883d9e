//! The finite view graph `G_*` — the quotient of a graph by view
//! equivalence (paper, Definition 1 and Section 3).

use anonet_graph::{Graph, Label, LabeledGraph, NodeId};

use crate::error::ViewError;
use crate::refinement::{BoundedRefinement, ViewMode};
use crate::Result;

/// The finite view graph `G_*` of a labeled graph `G`, together with the
/// projection `f_* : V → V_*`.
///
/// By the paper's Corollary 2, `G_* ≅ G_∞` (the infinite view graph), and
/// by Lemma 2 the projection is a factorizing map: surjective,
/// label-preserving, and a local isomorphism. Construction fails with a
/// descriptive error when the quotient would not be a simple graph — which
/// by (the argument of) Lemma 2 never happens on 2-hop colored graphs.
///
/// # Example
///
/// ```
/// use anonet_graph::generators;
/// use anonet_views::{quotient, ViewMode};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Figure 2: colored C12 and C6 both collapse to the prime C3.
/// let c12 = generators::cycle(12)?
///     .with_labels(vec![1u32, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3])?;
/// let q = quotient(&c12, ViewMode::Portless)?;
/// assert_eq!(q.graph().node_count(), 3);
/// assert_eq!(q.multiplicity(), Some(4)); // fibers have uniform size 4
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ViewQuotient<L> {
    graph: LabeledGraph<L>,
    class_of: Vec<NodeId>,
    representatives: Vec<NodeId>,
    mode: ViewMode,
    stabilization_depth: usize,
}

impl<L: Label> ViewQuotient<L> {
    /// The quotient graph `G_*` with its inherited labels.
    pub fn graph(&self) -> &LabeledGraph<L> {
        &self.graph
    }

    /// The projection `f_*`: the quotient node under each original node.
    pub fn class_of(&self) -> &[NodeId] {
        &self.class_of
    }

    /// The image of one node under the projection.
    pub fn project(&self, v: NodeId) -> NodeId {
        self.class_of[v.index()]
    }

    /// One representative original node per quotient node.
    pub fn representatives(&self) -> &[NodeId] {
        &self.representatives
    }

    /// Size of the fiber over quotient node `c`.
    pub fn fiber_size(&self, c: NodeId) -> usize {
        self.class_of.iter().filter(|&&x| x == c).count()
    }

    /// `Some(m)` if every fiber has the same size `m` (always the case for
    /// quotients of connected graphs: `|V| = m·|V_*|`, paper Section
    /// 2.3.1), `None` otherwise.
    pub fn multiplicity(&self) -> Option<usize> {
        let mut sizes = vec![0usize; self.graph.node_count()];
        for c in &self.class_of {
            sizes[c.index()] += 1;
        }
        let first = sizes.first().copied().unwrap_or(0);
        sizes.iter().all(|&s| s == first).then_some(first)
    }

    /// `true` iff the quotient is trivial: the original graph already had
    /// all views distinct (it is *prime*, Lemma 4).
    pub fn is_trivial(&self) -> bool {
        self.graph.node_count() == self.class_of.len()
    }

    /// All fibers, indexed by quotient node: `fibers()[c]` lists the
    /// original nodes projecting onto class `c`.
    pub fn fibers(&self) -> Vec<Vec<NodeId>> {
        let mut fibers: Vec<Vec<NodeId>> = vec![Vec::new(); self.graph.node_count()];
        for (v, &c) in self.class_of.iter().enumerate() {
            fibers[c.index()].push(NodeId::new(v));
        }
        fibers
    }

    /// The view mode the quotient was computed under.
    pub fn mode(&self) -> ViewMode {
        self.mode
    }

    /// The refinement round at which the view partition stabilized (the
    /// depth [`BoundedRefinement::stabilization_depth`] reports for the
    /// same graph and mode), recorded while the quotient was built.
    pub fn stabilization_depth(&self) -> usize {
        self.stabilization_depth
    }
}

/// Computes the finite view graph of `g` under the given [`ViewMode`].
///
/// # Errors
///
/// * [`ViewError::QuotientSelfLoop`] if some node is view-equivalent to a
///   neighbor (impossible when the labeling is a proper 1-hop coloring);
/// * [`ViewError::QuotientParallelEdge`] if some node has two
///   view-equivalent neighbors (impossible when it is a 2-hop coloring —
///   this is the paper's Lemma 2).
pub fn quotient<L: Label>(g: &LabeledGraph<L>, mode: ViewMode) -> Result<ViewQuotient<L>> {
    // Only the stable partition is consumed here, so the bounded engine
    // (two retained rounds, not O(n·rounds)) suffices.
    let refinement = BoundedRefinement::compute(g, mode);
    let classes = refinement.classes();
    let graph = g.graph();
    let k = refinement.class_count();

    // Simplicity checks, with witnesses.
    for v in graph.nodes() {
        let mut neighbor_classes = Vec::with_capacity(graph.degree(v));
        for &u in graph.neighbors(v) {
            if classes[u.index()] == classes[v.index()] {
                return Err(ViewError::QuotientSelfLoop { node: v.index() });
            }
            neighbor_classes.push(classes[u.index()]);
        }
        let mut dedup = neighbor_classes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        if dedup.len() != neighbor_classes.len() {
            return Err(ViewError::QuotientParallelEdge { node: v.index() });
        }
    }

    // Representatives: the minimum-index node of each class.
    let mut representatives: Vec<Option<NodeId>> = vec![None; k];
    for v in graph.nodes() {
        let c = classes[v.index()] as usize;
        if representatives[c].is_none() {
            representatives[c] = Some(v);
        }
    }
    let representatives: Vec<NodeId> =
        representatives.into_iter().map(|r| r.expect("classes are non-empty")).collect();

    // Quotient adjacency. PortAware: the representative's port order is
    // shared by every member of its class (the refinement key pins it
    // down), so ports descend to the quotient. Portless: members may
    // disagree on port order, so we fix a canonical one (ascending class).
    let mut adj: Vec<Vec<NodeId>> = Vec::with_capacity(k);
    for &rep in &representatives {
        let mut nbrs: Vec<NodeId> = graph
            .neighbors(rep)
            .iter()
            .map(|&u| NodeId::new(classes[u.index()] as usize))
            .collect();
        if mode == ViewMode::Portless {
            nbrs.sort_unstable();
        }
        adj.push(nbrs);
    }
    let qgraph = Graph::from_adjacency(adj).map_err(|e| {
        // Symmetry can only fail if the refinement was inconsistent, which
        // would be an internal bug — surface it loudly.
        unreachable!("quotient adjacency must be a valid simple graph: {e}")
    })?;

    let labels: Vec<L> = representatives.iter().map(|&r| g.label(r).clone()).collect();
    let qlabeled =
        LabeledGraph::new(qgraph, labels).expect("one label per quotient node by construction");

    let class_of: Vec<NodeId> = classes.iter().map(|&c| NodeId::new(c as usize)).collect();

    Ok(ViewQuotient {
        graph: qlabeled,
        class_of,
        representatives,
        mode,
        stabilization_depth: refinement.stabilization_depth(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_graph::coloring::is_two_hop_coloring;
    use anonet_graph::{generators, iso};

    fn colored_cycle(n: usize) -> LabeledGraph<u32> {
        let labels: Vec<u32> = (0..n).map(|i| (i % 3) as u32 + 1).collect();
        generators::cycle(n).unwrap().with_labels(labels).unwrap()
    }

    #[test]
    fn figure2_c12_c6_c3_chain() {
        // All three graphs in Figure 2 share the same prime quotient C3.
        let c3 = colored_cycle(3);
        assert!(is_two_hop_coloring(&c3));
        for n in [3usize, 6, 12] {
            let g = colored_cycle(n);
            assert!(is_two_hop_coloring(&g));
            let q = quotient(&g, ViewMode::Portless).unwrap();
            assert_eq!(q.graph().node_count(), 3);
            assert_eq!(q.multiplicity(), Some(n / 3));
            assert!(iso::are_isomorphic(q.graph(), &c3));
        }
    }

    #[test]
    fn projection_is_label_preserving_local_isomorphism() {
        let g = colored_cycle(12);
        let q = quotient(&g, ViewMode::Portless).unwrap();
        let qg = q.graph();
        for v in g.graph().nodes() {
            let c = q.project(v);
            // label preserving
            assert_eq!(g.label(v), qg.label(c));
            // local isomorphism: neighbor classes = quotient neighbors, bijectively
            let mut img: Vec<NodeId> =
                g.graph().neighbors(v).iter().map(|&u| q.project(u)).collect();
            img.sort();
            let mut expect: Vec<NodeId> = qg.graph().neighbors(c).to_vec();
            expect.sort();
            assert_eq!(img, expect);
        }
    }

    #[test]
    fn port_aware_quotient_of_lift_recovers_base() {
        // Graph lifts mirror base ports fiber-wise, so even the finer
        // port-aware equivalence collapses each fiber: the quotient of a
        // lifted prime base is the base itself.
        let l = anonet_graph::lift::cyclic_cycle_lift(3, 4).unwrap();
        let g = l.lift_labels(&[1u32, 2, 3]).unwrap();
        let q = quotient(&g, ViewMode::PortAware).unwrap();
        assert_eq!(q.graph().node_count(), 3);
        assert_eq!(q.multiplicity(), Some(4));
        assert!(iso::are_isomorphic(q.graph(), &colored_cycle(3)));
    }

    #[test]
    fn port_aware_projection_preserves_ports() {
        let l = anonet_graph::lift::cyclic_cycle_lift(3, 4).unwrap();
        let g = l.lift_labels(&[1u32, 2, 3]).unwrap();
        let q = quotient(&g, ViewMode::PortAware).unwrap();
        let qg = q.graph().graph();
        for v in g.graph().nodes() {
            let c = q.project(v);
            for p in 0..g.graph().degree(v) {
                let port = anonet_graph::Port::new(p);
                assert_eq!(q.project(g.graph().endpoint(v, port)), qg.endpoint(c, port));
                assert_eq!(g.graph().reverse_port(v, port), qg.reverse_port(c, port));
            }
        }
    }

    #[test]
    fn prime_graph_quotient_is_trivial() {
        // Unique labels ⇒ all views distinct ⇒ quotient ≅ the graph itself.
        let g = generators::petersen().with_labels((0..10u32).collect()).unwrap();
        for mode in [ViewMode::Portless, ViewMode::PortAware] {
            let q = quotient(&g, mode).unwrap();
            assert!(q.is_trivial());
            assert!(iso::are_isomorphic(q.graph(), &g));
            assert_eq!(q.multiplicity(), Some(1));
        }
    }

    #[test]
    fn quotient_of_quotient_is_identity() {
        let g = colored_cycle(12);
        let q = quotient(&g, ViewMode::Portless).unwrap();
        let qq = quotient(q.graph(), ViewMode::Portless).unwrap();
        assert!(qq.is_trivial());
        assert!(iso::are_isomorphic(qq.graph(), q.graph()));
    }

    #[test]
    fn uniform_labels_fail_with_self_loop() {
        let g = generators::cycle(6).unwrap().with_uniform_label(0u8);
        let err = quotient(&g, ViewMode::Portless).unwrap_err();
        assert!(matches!(err, ViewError::QuotientSelfLoop { .. }));
    }

    #[test]
    fn one_hop_but_not_two_hop_fails_with_parallel_edge() {
        // C4 colored 1,2,1,2: proper 1-hop coloring, but node 0's two
        // neighbors (1 and 3) are view-equivalent.
        let g = generators::cycle(4).unwrap().with_labels(vec![1u8, 2, 1, 2]).unwrap();
        let err = quotient(&g, ViewMode::Portless).unwrap_err();
        assert!(matches!(err, ViewError::QuotientParallelEdge { .. }));
    }

    #[test]
    fn quotient_is_connected() {
        let g = colored_cycle(12);
        let q = quotient(&g, ViewMode::PortAware).unwrap();
        assert!(q.graph().graph().is_connected());
    }

    #[test]
    fn fibers_are_uniform_on_connected_graphs() {
        for n in [6usize, 9, 12, 15] {
            let q = quotient(&colored_cycle(n), ViewMode::Portless).unwrap();
            assert_eq!(q.multiplicity(), Some(n / 3), "n = {n}");
        }
    }

    #[test]
    fn multiplicity_counts_fibers_and_detects_non_uniform_ones() {
        // Two P2s and a P3: the P2 fibers have size 2, the P3 nodes 1.
        let g = Graph::from_edges(7, &[(0, 1), (2, 3), (4, 5), (5, 6)])
            .unwrap()
            .with_labels(vec![1u32, 2, 1, 2, 1, 2, 3])
            .unwrap();
        let q = quotient(&g, ViewMode::Portless).unwrap();
        let sizes: Vec<usize> = q.graph().graph().nodes().map(|c| q.fiber_size(c)).collect();
        assert_eq!(sizes.iter().filter(|&&s| s == 2).count(), 2);
        assert_eq!(q.multiplicity(), None);
        for n in [3usize, 12] {
            let q = quotient(&colored_cycle(n), ViewMode::Portless).unwrap();
            assert!(q.graph().graph().nodes().all(|c| q.fiber_size(c) == n / 3));
            assert_eq!(q.multiplicity(), Some(n / 3));
        }
    }

    #[test]
    fn stabilization_depth_matches_a_separate_refinement() {
        let cases = [
            colored_cycle(12),
            generators::path(7).unwrap().with_labels(vec![1u32, 2, 3, 1, 2, 3, 1]).unwrap(),
            generators::petersen().with_labels((0..10u32).collect()).unwrap(),
        ];
        for g in &cases {
            for mode in [ViewMode::Portless, ViewMode::PortAware] {
                let q = quotient(g, mode).unwrap();
                let depth = BoundedRefinement::compute(g, mode).stabilization_depth();
                assert_eq!(q.stabilization_depth(), depth);
            }
        }
    }

    #[test]
    fn fibers_partition_the_nodes() {
        let g = colored_cycle(12);
        let q = quotient(&g, ViewMode::Portless).unwrap();
        let fibers = q.fibers();
        assert_eq!(fibers.len(), 3);
        let mut all: Vec<NodeId> = fibers.concat();
        all.sort();
        assert_eq!(all, g.graph().nodes().collect::<Vec<_>>());
        for (c, fiber) in fibers.iter().enumerate() {
            for &v in fiber {
                assert_eq!(q.project(v), NodeId::new(c));
            }
        }
    }

    #[test]
    fn representatives_project_to_themselves() {
        let g = colored_cycle(9);
        let q = quotient(&g, ViewMode::PortAware).unwrap();
        for (c, &rep) in q.representatives().iter().enumerate() {
            assert_eq!(q.project(rep), NodeId::new(c));
        }
    }
}
