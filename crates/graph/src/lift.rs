//! Permutation-voltage lifts: constructing *products* of a base graph.
//!
//! The paper's factor/product relation (Section 2.3.1) is the labeled
//! version of graph lifts / covering graphs: `G ⪰_f G'` means the
//! factorizing map `f` is a surjective, label-preserving local isomorphism.
//! Every product of `G'` arises (up to isomorphism) as a *permutation
//! voltage lift*: pick a multiplicity `m` and a permutation `π_e ∈ S_m` per
//! base edge; the lift has nodes `(v, i)` and edges
//! `{(u, i), (v, π_e(i))}` for each base edge `e = (u, v)`.
//!
//! Lifts are how the experiment suite manufactures non-trivial products
//! whose quotient (the finite view graph) must recover the base — the
//! `C12 ⪰ C6 ⪰ C3` chain of the paper's Figure 2 is exactly such a tower.

// anonet-lint: allow(randomness, reason = "seeded lift/permutation generators build experiment inputs, not pipeline state")
use rand::Rng;

use crate::error::GraphError;
use crate::graph::Graph;
use crate::labeled::LabeledGraph;
use crate::labels::Label;
use crate::node::NodeId;
use crate::Result;

/// A permutation of `0..m`, validated at construction.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Perm {
    map: Vec<usize>,
}

impl Perm {
    /// Creates a permutation from `map`, where `map[i]` is the image of `i`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidPermutation`] if `map` is not a
    /// bijection on `0..map.len()`.
    pub fn new(map: Vec<usize>) -> Result<Self> {
        let m = map.len();
        let mut seen = vec![false; m];
        for &x in &map {
            if x >= m || seen[x] {
                return Err(GraphError::InvalidPermutation { len: m });
            }
            seen[x] = true;
        }
        Ok(Perm { map })
    }

    /// The identity permutation on `0..m`.
    pub fn identity(m: usize) -> Self {
        Perm { map: (0..m).collect() }
    }

    /// The cyclic shift `i ↦ (i + 1) mod m`.
    pub fn shift(m: usize) -> Self {
        Perm { map: (0..m).map(|i| (i + 1) % m).collect() }
    }

    /// A uniformly random permutation (Fisher–Yates).
    pub fn random<R: Rng + ?Sized>(m: usize, rng: &mut R) -> Self {
        let mut map: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            map.swap(i, rng.gen_range(0..=i));
        }
        Perm { map }
    }

    /// Degree of the permutation (the `m` in `S_m`).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Image of `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn apply(&self, i: usize) -> usize {
        self.map[i]
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Perm {
        let mut inv = vec![0; self.map.len()];
        for (i, &x) in self.map.iter().enumerate() {
            inv[x] = i;
        }
        Perm { map: inv }
    }
}

/// An `m`-lift of a base graph, together with its projection map.
///
/// The projection sends lift node `(v, i)` (stored at index `v*m + i`... in
/// fact at an implementation-defined index; use [`Lift::projection`]) to
/// base node `v`, and is a factorizing map in the paper's sense whenever
/// the base is labeled and labels are lifted with [`Lift::lift_labels`].
#[derive(Clone, Debug)]
pub struct Lift {
    graph: Graph,
    projection: Vec<NodeId>,
    multiplicity: usize,
}

impl Lift {
    /// The lifted graph (has `m·|V(base)|` nodes).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consumes the lift, returning the lifted graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// The projection map: `projection()[x]` is the base node under lift
    /// node `x`.
    pub fn projection(&self) -> &[NodeId] {
        &self.projection
    }

    /// The lift multiplicity `m`.
    pub fn multiplicity(&self) -> usize {
        self.multiplicity
    }

    /// Lifts a labeling of the base to the lift: each lift node inherits
    /// the label of its base node, making the projection label-preserving.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::LabelCountMismatch`] if `base_labels` does not
    /// match the base graph the lift was built from.
    pub fn lift_labels<L: Label>(&self, base_labels: &[L]) -> Result<LabeledGraph<L>> {
        let base_n = self.projection.iter().map(|v| v.index() + 1).max().unwrap_or(0);
        if base_labels.len() < base_n {
            return Err(GraphError::LabelCountMismatch {
                labels: base_labels.len(),
                nodes: base_n,
            });
        }
        let labels = self.projection.iter().map(|v| base_labels[v.index()].clone()).collect();
        LabeledGraph::new(self.graph.clone(), labels)
    }
}

/// Builds the `m`-lift of `base` from one permutation per base edge.
///
/// `voltages[k]` is the permutation of the `k`-th edge in `base.edges()`
/// order. The result may be disconnected; use [`random_connected_lift`]
/// when connectivity is required.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `m = 0`, if
/// `voltages.len()` differs from the edge count, or if any permutation has
/// degree other than `m`.
pub fn lift(base: &Graph, m: usize, voltages: &[Perm]) -> Result<Lift> {
    if m == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "lift multiplicity must be >= 1".into(),
        });
    }
    let edges: Vec<_> = base.edges().collect();
    if voltages.len() != edges.len() {
        return Err(GraphError::InvalidParameter {
            reason: format!("{} voltages supplied for {} edges", voltages.len(), edges.len()),
        });
    }
    if let Some(p) = voltages.iter().find(|p| p.len() != m) {
        return Err(GraphError::InvalidParameter {
            reason: format!("voltage of degree {} does not match multiplicity {m}", p.len()),
        });
    }
    let base_n = base.node_count();
    let idx = |v: NodeId, i: usize| NodeId::new(v.index() * m + i);
    let edge_index: std::collections::HashMap<crate::graph::Edge, usize> =
        edges.iter().enumerate().map(|(k, &e)| (e, k)).collect();
    let inverses: Vec<Perm> = voltages.iter().map(Perm::inverse).collect();
    // The permutation each base half-edge applies, laid out like the base
    // adjacency. The voltage acts along the canonical direction
    // e.u → e.v; traversing against it applies the inverse.
    let (edge_index, inverses) = (&edge_index, &inverses);
    let port_perms: Vec<&Perm> = base
        .nodes()
        .flat_map(|v| {
            base.neighbors(v).iter().map(move |&u| {
                let e = crate::graph::Edge::new(v, u);
                let k = edge_index[&e];
                if v == e.u {
                    &voltages[k]
                } else {
                    &inverses[k]
                }
            })
        })
        .collect();
    // Write the lifted adjacency directly: lift node (v, i) sits at index
    // v·m + i with degree deg(v), and port p of it leads to a lift of the
    // base neighbor at port p of v. This makes the projection a
    // *port-preserving* local isomorphism, which is what lifting whole
    // executions of port-aware algorithms requires.
    let graph =
        Graph::from_fill((0..base_n * m).map(|x| base.degree(NodeId::new(x / m))), |x, slot| {
            let (v, i) = (NodeId::new(x / m), x % m);
            let perms = &port_perms[base.half_edges(v)];
            for ((s, &u), perm) in slot.iter_mut().zip(base.neighbors(v)).zip(perms) {
                *s = idx(u, perm.apply(i));
            }
        })?;
    let projection = (0..base_n * m).map(|x| NodeId::new(x / m)).collect();
    Ok(Lift { graph, projection, multiplicity: m })
}

/// Builds a *connected* random `m`-lift of `base`, retrying fresh random
/// voltages up to `max_tries` times.
///
/// # Errors
///
/// Returns [`GraphError::RetriesExhausted`] if no connected lift is found,
/// or parameter errors from [`lift`].
pub fn random_connected_lift<R: Rng + ?Sized>(
    base: &Graph,
    m: usize,
    max_tries: usize,
    rng: &mut R,
) -> Result<Lift> {
    let edge_count = base.edges().count();
    for _ in 0..max_tries {
        let voltages: Vec<Perm> = (0..edge_count).map(|_| Perm::random(m, rng)).collect();
        let l = lift(base, m, &voltages)?;
        if l.graph().is_connected() {
            return Ok(l);
        }
    }
    Err(GraphError::RetriesExhausted {
        what: format!("a connected {m}-lift of {base}"),
        attempts: max_tries,
    })
}

/// The cyclic `m`-lift of a cycle: `C_n` lifted with shift voltages on one
/// edge and identities elsewhere yields `C_{n·m}` — the construction behind
/// the paper's Figure 2 chain `C3 → C6 → C12`.
///
/// # Errors
///
/// Propagates parameter errors from [`lift`].
pub fn cyclic_cycle_lift(n: usize, m: usize) -> Result<Lift> {
    let base = crate::generators::cycle(n)?;
    let edge_count = base.edges().count();
    let mut voltages = vec![Perm::identity(m); edge_count];
    // Put the shift on the wrap-around edge (0, n-1), which is the first
    // edge in sorted order touching node 0 and n-1.
    let edges: Vec<_> = base.edges().collect();
    let wrap = edges
        .iter()
        .position(|e| e.u == NodeId::new(0) && e.v == NodeId::new(n - 1))
        .expect("cycle has a wrap-around edge");
    voltages[wrap] = Perm::shift(m);
    lift(&base, m, &voltages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn perm_validation() {
        assert!(Perm::new(vec![0, 1, 2]).is_ok());
        assert!(Perm::new(vec![0, 0, 2]).is_err());
        assert!(Perm::new(vec![0, 3, 1]).is_err());
    }

    #[test]
    fn perm_inverse() {
        let p = Perm::new(vec![2, 0, 1]).unwrap();
        let inv = p.inverse();
        for i in 0..3 {
            assert_eq!(inv.apply(p.apply(i)), i);
        }
    }

    #[test]
    fn identity_lift_is_disjoint_copies() {
        let base = generators::cycle(4).unwrap();
        let volts = vec![Perm::identity(3); 4];
        let l = lift(&base, 3, &volts).unwrap();
        assert_eq!(l.graph().node_count(), 12);
        assert_eq!(l.graph().edge_count(), 12);
        assert!(!l.graph().is_connected()); // 3 disjoint C4s
    }

    #[test]
    fn lift_preserves_degrees() {
        let base = generators::petersen();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let l = random_connected_lift(&base, 2, 100, &mut rng).unwrap();
        let g = l.graph();
        assert_eq!(g.node_count(), 20);
        for x in g.nodes() {
            assert_eq!(g.degree(x), base.degree(l.projection()[x.index()]));
        }
    }

    #[test]
    fn projection_is_local_isomorphism() {
        // For every lift node x, the projection restricted to Γ(x) must be
        // a bijection onto Γ(f(x)) — the defining property of a factor map.
        let base = generators::cycle(5).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let l = random_connected_lift(&base, 3, 100, &mut rng).unwrap();
        let g = l.graph();
        let f = l.projection();
        for x in g.nodes() {
            let mut images: Vec<NodeId> = g.neighbors(x).iter().map(|y| f[y.index()]).collect();
            images.sort();
            let mut expect: Vec<NodeId> = base.neighbors(f[x.index()]).to_vec();
            expect.sort();
            assert_eq!(images, expect);
        }
    }

    #[test]
    fn cyclic_lift_of_cycle_is_bigger_cycle() {
        // C3 lifted cyclically with m=2 must be C6 (connected, 2-regular, 6 nodes).
        let l = cyclic_cycle_lift(3, 2).unwrap();
        let g = l.graph();
        assert_eq!(g.node_count(), 6);
        assert!(g.is_connected());
        assert!(g.nodes().all(|v| g.degree(v) == 2));
        // ... and C3 lifted with m=4 gives C12.
        let l = cyclic_cycle_lift(3, 4).unwrap();
        assert_eq!(l.graph().node_count(), 12);
        assert!(l.graph().is_connected());
    }

    #[test]
    fn lift_ports_mirror_base_ports() {
        // Port p of lift node x must lead to a lift of the base neighbor at
        // port p of the projected node — and reverse ports must agree too.
        let base = generators::petersen();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let l = random_connected_lift(&base, 3, 100, &mut rng).unwrap();
        let g = l.graph();
        let f = l.projection();
        for x in g.nodes() {
            let v = f[x.index()];
            for p in 0..g.degree(x) {
                let p = crate::Port::new(p);
                assert_eq!(f[g.endpoint(x, p).index()], base.endpoint(v, p));
                assert_eq!(g.reverse_port(x, p), base.reverse_port(v, p));
            }
        }
    }

    #[test]
    fn lift_labels_follow_projection() {
        let l = cyclic_cycle_lift(3, 2).unwrap();
        let lg = l.lift_labels(&[10u32, 20, 30]).unwrap();
        for x in lg.graph().nodes() {
            let base = l.projection()[x.index()];
            assert_eq!(*lg.label(x), [10u32, 20, 30][base.index()]);
        }
        assert!(l.lift_labels(&[1u32]).is_err());
    }

    #[test]
    fn voltage_count_must_match() {
        let base = generators::cycle(3).unwrap();
        assert!(lift(&base, 2, &[Perm::identity(2)]).is_err());
        assert!(lift(&base, 0, &[]).is_err());
    }
}
