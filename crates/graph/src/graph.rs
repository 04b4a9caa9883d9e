//! The port-numbered simple graph at the heart of the model.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::error::GraphError;
use crate::labeled::LabeledGraph;
use crate::labels::Label;
use crate::node::{NodeId, Port};
use crate::Result;

/// An undirected edge, stored with `u <= v`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Edge {
    /// The smaller endpoint.
    pub u: NodeId,
    /// The larger endpoint.
    pub v: NodeId,
}

impl Edge {
    /// Creates an edge, normalizing endpoint order.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (simple graphs have no loops).
    pub fn new(u: NodeId, v: NodeId) -> Self {
        assert_ne!(u, v, "loop edges are not allowed in simple graphs");
        if u < v {
            Edge { u, v }
        } else {
            Edge { u: v, v: u }
        }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.u, self.v)
    }
}

/// A finite simple undirected graph with an implicit port numbering.
///
/// Port `p` of node `v` is the `p`-th entry of `v`'s adjacency list, so a
/// `Graph` value pins down not only the topology but also the port
/// numbering that anonymous algorithms observe (paper, Section 1.1: "`v`
/// distinguishes between the ports corresponding to its incident edges").
///
/// Graphs are immutable after construction; build them with
/// [`GraphBuilder`] or the [`generators`](crate::generators) module.
///
/// The adjacency lists are stored once, in compressed sparse row form in
/// two [`Arc`] slices: `u32` offsets and one neighbor array in port order,
/// `4 + 4·deg(v)` bytes per node. Cloning a graph bumps reference counts,
/// so every labeling of one topology ([`Graph::with_labels`],
/// [`LabeledGraph::map_labels`], [`LabeledGraph::zip`], lifted labels)
/// shares one copy. Equality and hashing are by content (equality first
/// compares the pointers).
///
/// # Example
///
/// ```
/// use anonet_graph::{Graph, NodeId};
///
/// # fn main() -> Result<(), anonet_graph::GraphError> {
/// let triangle = Graph::builder(3).edge(0, 1)?.edge(1, 2)?.edge(0, 2)?.build()?;
/// assert_eq!(triangle.node_count(), 3);
/// assert_eq!(triangle.edge_count(), 3);
/// assert_eq!(triangle.degree(NodeId::new(0)), 2);
/// assert!(triangle.is_connected());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Graph {
    /// Node `v`'s neighbors, in port order, are
    /// `nbrs[offsets[v]..offsets[v + 1]]`, so `offsets` has `n + 1`
    /// entries.
    offsets: Arc<[u32]>,
    nbrs: Arc<[NodeId]>,
}

impl Graph {
    /// The graph whose node `v` has degree `degrees[v]` and whose
    /// neighbor slice `fill(v, slice)` writes, unvalidated.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooManyHalfEdges`] if the degrees sum past
    /// `u32::MAX`.
    fn build(
        degrees: impl ExactSizeIterator<Item = usize>,
        fill: impl FnMut(usize, &mut [NodeId]),
    ) -> Result<Graph> {
        Ok(Graph::with_offsets(offsets_of(degrees)?, fill))
    }

    /// The graph with these offsets whose node `v`'s neighbor slice
    /// `fill(v, slice)` writes, unvalidated. Allocates the neighbor array
    /// and nothing else.
    fn with_offsets(offsets: Arc<[u32]>, mut fill: impl FnMut(usize, &mut [NodeId])) -> Graph {
        let total = offsets.last().map_or(0, |&end| end as usize);
        let mut nbrs: Arc<[NodeId]> = (0..total).map(|_| NodeId::default()).collect();
        let slots = Arc::get_mut(&mut nbrs).expect("a fresh Arc has one owner");
        for (v, w) in offsets.windows(2).enumerate() {
            fill(v, &mut slots[w[0] as usize..w[1] as usize]);
        }
        Graph { offsets, nbrs }
    }

    /// Checks that the lists describe a simple symmetric graph, in
    /// `O(n + m)`. The error is the one a scan of the half-edges in node
    /// then port order meets first, checking each for an out-of-range
    /// target, a loop, a repeat within its list, and a missing reverse
    /// half-edge, in that order.
    fn validate(&self) -> Result<()> {
        let n = self.node_count();
        let range = |v: usize| self.half_edges(NodeId::new(v));
        // Pass 1: the first out-of-range target, loop or repeat. `seen[u]`
        // is the last node whose list named `u`, plus one.
        let mut seen = vec![0usize; n];
        let mut fault = None;
        'scan: for v in 0..n {
            for i in range(v) {
                let u = self.nbrs[i].index();
                let err = if u >= n {
                    GraphError::NodeOutOfRange { node: u, n }
                } else if u == v {
                    GraphError::LoopEdge { node: v }
                } else if seen[u] == v + 1 {
                    GraphError::ParallelEdge { u: v, v: u }
                } else {
                    seen[u] = v + 1;
                    continue;
                };
                fault = Some((i, err));
                break 'scan;
            }
        }
        let scanned = fault.as_ref().map_or(self.nbrs.len(), |(i, _)| *i);

        // Pass 2: the first half-edge before `scanned` whose target does not
        // list its source. Bucket the sources by target (counting sort, so
        // each bucket is in scan order), then mark each target's own list
        // and look its sources up.
        let mut bucket = vec![0u32; n + 1];
        for u in &self.nbrs[..scanned] {
            bucket[u.index() + 1] += 1;
        }
        for u in 0..n {
            bucket[u + 1] += bucket[u];
        }
        let mut sources = vec![(0u32, 0u32); scanned];
        let mut next = bucket.clone();
        for v in 0..n {
            for i in range(v).take_while(|&i| i < scanned) {
                let u = self.nbrs[i].index();
                sources[next[u] as usize] = (v as u32, i as u32);
                next[u] += 1;
            }
        }
        seen.fill(0);
        let mut asymmetric: Option<(u32, u32, usize)> = None;
        for u in 0..n {
            for w in &self.nbrs[range(u)] {
                if w.index() < n {
                    seen[w.index()] = u + 1;
                }
            }
            for &(v, i) in &sources[bucket[u] as usize..bucket[u + 1] as usize] {
                if seen[v as usize] != u + 1 && asymmetric.is_none_or(|(_, j, _)| i < j) {
                    asymmetric = Some((v, i, u));
                }
            }
        }
        match (asymmetric, fault) {
            (Some((v, _, u)), _) => Err(GraphError::InvalidParameter {
                reason: format!(
                    "adjacency not symmetric: {v} lists {} but not vice versa",
                    NodeId::new(u)
                ),
            }),
            (None, Some((_, err))) => Err(err),
            (None, None) => Ok(()),
        }
    }
}

/// The `n + 1` prefix sums of `degrees`: a CSR offset array.
///
/// # Errors
///
/// Returns [`GraphError::TooManyHalfEdges`] once a prefix passes
/// `u32::MAX`.
fn offsets_of(degrees: impl ExactSizeIterator<Item = usize>) -> Result<Arc<[u32]>> {
    let mut offsets: Arc<[u32]> = (0..=degrees.len()).map(|_| 0).collect();
    let slots = Arc::get_mut(&mut offsets).expect("a fresh Arc has one owner");
    let mut end = 0usize;
    for (slot, d) in slots[1..].iter_mut().zip(degrees) {
        end = end.saturating_add(d);
        *slot = u32::try_from(end).map_err(|_| GraphError::TooManyHalfEdges { half_edges: end })?;
    }
    Ok(offsets)
}

impl Graph {
    /// Starts building a graph with `n` nodes.
    pub fn builder(n: usize) -> GraphBuilder {
        GraphBuilder::new(n)
    }

    /// Builds a graph directly from an edge list over `n` nodes.
    ///
    /// Ports are assigned in edge-insertion order.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty graph, out-of-range endpoints, loops,
    /// or parallel edges. Connectivity is **not** required here; use
    /// [`Graph::is_connected`] or build through generators when you need it.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self> {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b = b.edge(u, v)?;
        }
        b.build_unconnected()
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.nbrs.len() / 2
    }

    /// The positions of `v`'s ports in the graph's flat half-edge order:
    /// node by node, port by port. Port `p` of `v` is half-edge
    /// `half_edges(v).start + p`, so per-half-edge data can live in one
    /// array laid out like the adjacency.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn half_edges(&self, v: NodeId) -> Range<usize> {
        self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.half_edges(v).len()
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        self.offsets.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0)
    }

    /// Iterates over all node identifiers `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Neighbors of `v` in port order (`Γ(v)`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.nbrs[self.half_edges(v)]
    }

    /// The neighbor of `v` reached through `port`.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `port` is out of range.
    #[inline]
    pub fn endpoint(&self, v: NodeId, port: Port) -> NodeId {
        self.neighbors(v)[port.index()]
    }

    /// The port of `v` that leads to `u`, if `(v, u)` is an edge.
    pub fn port_to(&self, v: NodeId, u: NodeId) -> Option<Port> {
        self.neighbors(v).iter().position(|&w| w == u).map(Port::new)
    }

    /// The port on the *other* side of the edge `(v, endpoint(v, port))`,
    /// i.e. the port through which the neighbor sees `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `port` is out of range.
    pub fn reverse_port(&self, v: NodeId, port: Port) -> Port {
        let u = self.endpoint(v, port);
        self.port_to(u, v).expect("adjacency lists are symmetric by construction")
    }

    /// `true` if `(u, v)` is an edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).contains(&v)
    }

    /// Iterates over all undirected edges, each reported once with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes().flat_map(|u| {
            self.neighbors(u).iter().filter(move |&&v| u < v).map(move |&v| Edge { u, v })
        })
    }

    /// `true` if the graph is connected (every graph with one node is).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return false;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId::new(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &u in self.neighbors(v) {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == n
    }

    /// Validates connectivity, returning the graph's error otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Disconnected`] if the graph is not connected.
    pub fn require_connected(&self) -> Result<()> {
        if self.is_connected() {
            Ok(())
        } else {
            Err(GraphError::Disconnected)
        }
    }

    /// Attaches labels to the nodes, producing a [`LabeledGraph`].
    ///
    /// `labels[i]` becomes the label of node `i`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::LabelCountMismatch`] if `labels.len()` differs
    /// from the node count.
    pub fn with_labels<L: Label>(&self, labels: Vec<L>) -> Result<LabeledGraph<L>> {
        LabeledGraph::new(self.clone(), labels)
    }

    /// Attaches the *same* label to every node.
    pub fn with_uniform_label<L: Label>(&self, label: L) -> LabeledGraph<L> {
        LabeledGraph::new(self.clone(), vec![label; self.node_count()])
            .expect("label count matches by construction")
    }

    /// Attaches each node's degree as its label.
    ///
    /// The paper assumes every input label includes the node's degree
    /// (Section 1.1); this is the minimal such labeling.
    pub fn with_degree_labels(&self) -> LabeledGraph<u32> {
        let labels = self.nodes().map(|v| self.degree(v) as u32).collect();
        LabeledGraph::new(self.clone(), labels).expect("label count matches by construction")
    }

    /// Renames the nodes by a permutation (`v` becomes `perm.apply(v)`),
    /// preserving every node's port order — the renamed graph is the same
    /// anonymous network in a different presentation, which is exactly what
    /// anonymous algorithms must be blind to (the testkit's renumbering
    /// metamorphic oracle rests on this).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidPermutation`] if `perm` is not a
    /// permutation of the node set.
    pub fn renumber(&self, perm: &crate::lift::Perm) -> Result<Graph> {
        let n = self.node_count();
        if perm.len() != n {
            return Err(GraphError::InvalidPermutation { len: perm.len() });
        }
        let old = perm.inverse();
        let old_of = |w: usize| NodeId::new(old.apply(w));
        Graph::build((0..n).map(|w| self.degree(old_of(w))), |w, slot| {
            for (s, u) in slot.iter_mut().zip(self.neighbors(old_of(w))) {
                *s = NodeId::new(perm.apply(u.index()));
            }
        })
    }

    /// Re-permutes the port numbering of every node: new port `p` of `v`
    /// leads to the neighbor behind old port `perms[v].apply(p)`. The
    /// topology and node names are untouched — only the local edge order
    /// each node observes changes (the paper's "worst-case port orderings"
    /// are a choice of these permutations).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidPermutation`] if `perms` does not hold
    /// one permutation per node with degree-matching length.
    pub fn with_ports_permuted(&self, perms: &[crate::lift::Perm]) -> Result<Graph> {
        if perms.len() != self.node_count() {
            return Err(GraphError::InvalidPermutation { len: perms.len() });
        }
        for v in self.nodes() {
            let perm = &perms[v.index()];
            if perm.len() != self.degree(v) {
                return Err(GraphError::InvalidPermutation { len: perm.len() });
            }
        }
        // Same degrees, so the permuted graph shares the offsets.
        Ok(Graph::with_offsets(Arc::clone(&self.offsets), |v, slot| {
            let nbrs = self.neighbors(NodeId::new(v));
            for (p, s) in slot.iter_mut().enumerate() {
                *s = nbrs[perms[v].apply(p)];
            }
        }))
    }

    /// Re-permutes every node's ports uniformly at random — a seeded
    /// source of adversarial port numberings.
    // anonet-lint: allow(randomness, reason = "seeded adversarial port shuffling builds test instances, not pipeline state")
    pub fn with_shuffled_ports<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> Graph {
        let perms: Vec<crate::lift::Perm> =
            self.nodes().map(|v| crate::lift::Perm::random(self.degree(v), rng)).collect();
        self.with_ports_permuted(&perms).expect("per-node permutations match degrees")
    }

    /// Builds the graph whose node `v` has degree `degrees[v]` and whose
    /// port-ordered neighbors `fill(v, slice)` writes, validating it as
    /// [`Graph::from_adjacency`] does. Makes a constant number of
    /// allocations, whatever the size.
    ///
    /// # Errors
    ///
    /// As [`Graph::from_adjacency`].
    pub(crate) fn from_fill(
        degrees: impl ExactSizeIterator<Item = usize>,
        fill: impl FnMut(usize, &mut [NodeId]),
    ) -> Result<Self> {
        if degrees.len() == 0 {
            return Err(GraphError::Empty);
        }
        let g = Graph::build(degrees, fill)?;
        g.validate()?;
        Ok(g)
    }

    /// Builds a graph from explicit adjacency lists, validating that the
    /// result is a simple symmetric graph. The order of each list becomes
    /// the port numbering of that node.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty node set, out-of-range entries,
    /// loops, duplicate neighbors, or asymmetric adjacency — the first one
    /// met scanning the lists in order, each entry checked for those four
    /// faults in that order — or [`GraphError::TooManyHalfEdges`] for more
    /// than `u32::MAX` entries in all.
    pub fn from_adjacency(adj: Vec<Vec<NodeId>>) -> Result<Self> {
        Graph::from_fill(adj.iter().map(Vec::len), |v, slot| slot.copy_from_slice(&adj[v]))
    }
}

impl fmt::Debug for Graph {
    /// Prints the adjacency lists: `Graph { adj: [[NodeId(1)], …] }`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Lists<'a>(&'a Graph);
        impl fmt::Debug for Lists<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.nodes().map(|v| self.0.neighbors(v))).finish()
            }
        }
        f.debug_struct("Graph").field("adj", &Lists(self)).finish()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.node_count(), self.edge_count())
    }
}

/// Incremental builder for [`Graph`].
///
/// Edges are inserted in call order, which determines port numbers: the
/// first edge incident to `v` occupies port 0 of `v`, and so on.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    adj: Vec<Vec<NodeId>>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder { adj: vec![Vec::new(); n] }
    }

    /// Adds the undirected edge `(u, v)`.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range, `u == v`, or the
    /// edge already exists.
    pub fn edge(mut self, u: usize, v: usize) -> Result<Self> {
        let n = self.adj.len();
        if u >= n {
            return Err(GraphError::NodeOutOfRange { node: u, n });
        }
        if v >= n {
            return Err(GraphError::NodeOutOfRange { node: v, n });
        }
        if u == v {
            return Err(GraphError::LoopEdge { node: u });
        }
        if self.adj[u].contains(&NodeId::new(v)) {
            return Err(GraphError::ParallelEdge { u, v });
        }
        self.adj[u].push(NodeId::new(v));
        self.adj[v].push(NodeId::new(u));
        Ok(self)
    }

    /// Finishes building, requiring a connected non-empty graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] for zero nodes or
    /// [`GraphError::Disconnected`] if not connected.
    pub fn build(self) -> Result<Graph> {
        let g = self.build_unconnected()?;
        g.require_connected()?;
        Ok(g)
    }

    /// Finishes building without the connectivity requirement.
    ///
    /// Useful for intermediate constructions (e.g. lifts before their
    /// connectivity check).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] for zero nodes, or
    /// [`GraphError::TooManyHalfEdges`] past `u32::MAX` half-edges.
    pub fn build_unconnected(self) -> Result<Graph> {
        if self.adj.is_empty() {
            return Err(GraphError::Empty);
        }
        let adj = &self.adj;
        Graph::build(adj.iter().map(Vec::len), |v, slot| slot.copy_from_slice(&adj[v]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        Graph::builder(3).edge(0, 1).unwrap().edge(1, 2).unwrap().build().unwrap()
    }

    #[test]
    fn builder_rejects_bad_edges() {
        assert_eq!(
            Graph::builder(2).edge(0, 2).unwrap_err(),
            GraphError::NodeOutOfRange { node: 2, n: 2 }
        );
        assert_eq!(Graph::builder(2).edge(1, 1).unwrap_err(), GraphError::LoopEdge { node: 1 });
        assert_eq!(
            Graph::builder(2).edge(0, 1).unwrap().edge(1, 0).unwrap_err(),
            GraphError::ParallelEdge { u: 1, v: 0 }
        );
    }

    #[test]
    fn builder_requires_connectivity() {
        let err = Graph::builder(3).edge(0, 1).unwrap().build().unwrap_err();
        assert_eq!(err, GraphError::Disconnected);
        assert_eq!(Graph::builder(0).build().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn single_node_is_connected() {
        let g = Graph::builder(1).build().unwrap();
        assert!(g.is_connected());
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn ports_follow_insertion_order() {
        let g = path3();
        let v1 = NodeId::new(1);
        // node 1 saw edge (0,1) first, then (1,2)
        assert_eq!(g.endpoint(v1, Port::new(0)), NodeId::new(0));
        assert_eq!(g.endpoint(v1, Port::new(1)), NodeId::new(2));
        assert_eq!(g.port_to(v1, NodeId::new(2)), Some(Port::new(1)));
        assert_eq!(g.port_to(v1, NodeId::new(1)), None);
    }

    #[test]
    fn reverse_port_is_involutive() {
        let g = path3();
        for v in g.nodes() {
            for p in 0..g.degree(v) {
                let p = Port::new(p);
                let u = g.endpoint(v, p);
                let q = g.reverse_port(v, p);
                assert_eq!(g.endpoint(u, q), v);
                assert_eq!(g.reverse_port(u, q), p);
            }
        }
    }

    #[test]
    fn edges_reported_once() {
        let g = path3();
        let edges: Vec<Edge> = g.edges().collect();
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0], Edge::new(NodeId::new(0), NodeId::new(1)));
        assert_eq!(edges[1], Edge::new(NodeId::new(1), NodeId::new(2)));
    }

    #[test]
    fn edge_normalizes_order() {
        let e = Edge::new(NodeId::new(5), NodeId::new(2));
        assert_eq!(e.u, NodeId::new(2));
        assert_eq!(e.v, NodeId::new(5));
    }

    #[test]
    #[should_panic(expected = "loop edges")]
    fn edge_rejects_loops() {
        let _ = Edge::new(NodeId::new(1), NodeId::new(1));
    }

    #[test]
    fn from_edges_allows_disconnected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        assert_eq!(g.require_connected().unwrap_err(), GraphError::Disconnected);
    }

    #[test]
    fn degree_labels_match_degrees() {
        let g = path3();
        let lg = g.with_degree_labels();
        assert_eq!(lg.labels(), &[1, 2, 1]);
    }

    #[test]
    fn display_mentions_sizes() {
        assert_eq!(path3().to_string(), "Graph(n=3, m=2)");
    }

    #[test]
    fn renumber_preserves_structure_and_port_order() {
        use crate::lift::Perm;
        let g = path3();
        let perm = Perm::new(vec![2, 0, 1]).unwrap(); // v ↦ (v+2) mod 3
        let h = g.renumber(&perm).unwrap();
        assert_eq!(h.node_count(), 3);
        assert_eq!(h.edge_count(), 2);
        for v in g.nodes() {
            let w = NodeId::new(perm.apply(v.index()));
            assert_eq!(g.degree(v), h.degree(w));
            for p in 0..g.degree(v) {
                let p = Port::new(p);
                assert_eq!(h.endpoint(w, p).index(), perm.apply(g.endpoint(v, p).index()));
            }
        }
        // Wrong-size permutation is rejected.
        assert!(g.renumber(&Perm::identity(2)).is_err());
    }

    #[test]
    fn port_permutation_keeps_topology_but_not_ports() {
        use crate::lift::Perm;
        let g = path3();
        let perms = vec![Perm::identity(1), Perm::new(vec![1, 0]).unwrap(), Perm::identity(1)];
        let h = g.with_ports_permuted(&perms).unwrap();
        // Same edges...
        let mut a: Vec<Edge> = g.edges().collect();
        let mut b: Vec<Edge> = h.edges().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // ... but node 1's ports swapped.
        let v1 = NodeId::new(1);
        assert_eq!(h.endpoint(v1, Port::new(0)), g.endpoint(v1, Port::new(1)));
        assert_eq!(h.endpoint(v1, Port::new(1)), g.endpoint(v1, Port::new(0)));
        // Degree-mismatched and count-mismatched permutations are rejected.
        assert!(g.with_ports_permuted(&[Perm::identity(1), Perm::identity(1)]).is_err());
        assert!(g
            .with_ports_permuted(&[Perm::identity(2), Perm::identity(2), Perm::identity(1)])
            .is_err());
    }

    #[test]
    fn shuffled_ports_stay_valid() {
        use rand::SeedableRng;
        let g = crate::generators::petersen();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let h = g.with_shuffled_ports(&mut rng);
        assert_eq!(g.node_count(), h.node_count());
        assert_eq!(g.edge_count(), h.edge_count());
        for v in h.nodes() {
            for p in 0..h.degree(v) {
                let p = Port::new(p);
                // reverse_port still works: adjacency stayed symmetric.
                assert_eq!(h.reverse_port(h.endpoint(v, p), h.reverse_port(v, p)), p);
            }
        }
    }

    #[test]
    fn offsets_past_u32_max_are_a_typed_error() {
        let degrees = [u32::MAX as usize, 1].into_iter();
        assert_eq!(
            offsets_of(degrees).unwrap_err(),
            GraphError::TooManyHalfEdges { half_edges: 1 << 32 }
        );
    }

    #[test]
    fn from_adjacency_rejects_malformed_port_numberings() {
        let node = |i: usize| NodeId::new(i);
        // Asymmetric: 0 lists 1 but 1 does not list 0.
        let err = Graph::from_adjacency(vec![vec![node(1)], vec![]]).unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameter { .. }));
        // Duplicate neighbor = two ports to the same edge.
        let err = Graph::from_adjacency(vec![vec![node(1), node(1)], vec![node(0), node(0)]])
            .unwrap_err();
        assert!(matches!(err, GraphError::ParallelEdge { .. }));
        // Self-loop port.
        let err = Graph::from_adjacency(vec![vec![node(0)]]).unwrap_err();
        assert!(matches!(err, GraphError::LoopEdge { node: 0 }));
        // Out-of-range port target.
        let err = Graph::from_adjacency(vec![vec![node(7)]]).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 7, .. }));
    }
}
