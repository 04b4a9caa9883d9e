//! The compressed `Graph` against a plain adjacency-list model.
//!
//! `reference::Graph` is a `Vec<Vec<NodeId>>` with the field name and
//! `Debug` text `Graph` once had, and the functions here build, validate,
//! renumber, re-port and lift it the direct way. Every property builds the
//! same network both ways and compares every read accessor and the
//! `Debug` text.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use anonet_graph::lift::{lift, Perm};
use anonet_graph::{generators, Edge, Graph, GraphError, NodeId, Port};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

mod reference {
    use anonet_graph::NodeId;

    /// Adjacency lists; index = port number.
    #[derive(Debug)]
    pub struct Graph {
        pub adj: Vec<Vec<NodeId>>,
    }
}

use reference::Graph as Model;

/// A random simple graph on `n` nodes with edge probability `p`, as
/// adjacency lists in edge-insertion port order, with its edge list.
fn random_model(seed: u64, n: usize, p: f64) -> (Model, Vec<(usize, usize)>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut pairs = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if rng.gen_bool(p) {
                pairs.push((u, v));
            }
        }
    }
    // Insert in a random order, so ports are not sorted by neighbor.
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rng.gen_range(0..=i));
    }
    let mut adj = vec![Vec::new(); n];
    for &(u, v) in &pairs {
        adj[u].push(NodeId::new(v));
        adj[v].push(NodeId::new(u));
    }
    (Model { adj }, pairs)
}

/// `Graph::from_adjacency`'s validation as a `HashSet` per node: the
/// oracle for the error the compressed validation must report.
fn reference_validate(adj: &[Vec<NodeId>]) -> Result<(), GraphError> {
    let n = adj.len();
    if n == 0 {
        return Err(GraphError::Empty);
    }
    for (v, nbrs) in adj.iter().enumerate() {
        let mut seen = std::collections::HashSet::new();
        for &u in nbrs {
            if u.index() >= n {
                return Err(GraphError::NodeOutOfRange { node: u.index(), n });
            }
            if u.index() == v {
                return Err(GraphError::LoopEdge { node: v });
            }
            if !seen.insert(u) {
                return Err(GraphError::ParallelEdge { u: v, v: u.index() });
            }
            if !adj[u.index()].contains(&NodeId::new(v)) {
                return Err(GraphError::InvalidParameter {
                    reason: format!("adjacency not symmetric: {v} lists {u} but not vice versa"),
                });
            }
        }
    }
    Ok(())
}

fn hash_of<T: Hash>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// Asserts that `g` reads exactly like `model`.
fn assert_matches(g: &Graph, model: &Model) {
    let adj = &model.adj;
    let n = adj.len();
    assert_eq!(g.node_count(), n);
    assert_eq!(g.edge_count(), adj.iter().map(Vec::len).sum::<usize>() / 2);
    assert_eq!(g.max_degree(), adj.iter().map(Vec::len).max().unwrap_or(0));
    let mut start = 0;
    for v in g.nodes() {
        let list = &adj[v.index()];
        assert_eq!(g.neighbors(v), &list[..]);
        assert_eq!(g.degree(v), list.len());
        assert_eq!(g.half_edges(v), start..start + list.len());
        start += list.len();
        for (p, &u) in list.iter().enumerate() {
            assert_eq!(g.endpoint(v, Port::new(p)), u);
            let back = adj[u.index()].iter().position(|&w| w == v).expect("symmetric");
            assert_eq!(g.reverse_port(v, Port::new(p)), Port::new(back));
        }
        for u in g.nodes() {
            assert_eq!(g.has_edge(v, u), list.contains(&u));
            assert_eq!(g.port_to(v, u), list.iter().position(|&w| w == u).map(Port::new));
        }
    }
    let edges: Vec<Edge> = (0..n)
        .flat_map(|u| {
            adj[u].iter().filter(move |w| u < w.index()).map(move |&w| Edge::new(NodeId::new(u), w))
        })
        .collect();
    assert_eq!(g.edges().collect::<Vec<_>>(), edges);
    assert_eq!(format!("{g:?}"), format!("{model:?}"));
    assert_eq!(format!("{g:#?}"), format!("{model:#?}"));
}

fn renumbered(model: &Model, perm: &Perm) -> Model {
    let mut adj = vec![Vec::new(); model.adj.len()];
    for (v, list) in model.adj.iter().enumerate() {
        adj[perm.apply(v)] = list.iter().map(|u| NodeId::new(perm.apply(u.index()))).collect();
    }
    Model { adj }
}

fn ports_permuted(model: &Model, perms: &[Perm]) -> Model {
    let adj = model
        .adj
        .iter()
        .zip(perms)
        .map(|(list, perm)| (0..list.len()).map(|p| list[perm.apply(p)]).collect())
        .collect();
    Model { adj }
}

/// The `m`-lift's adjacency lists, built per node as `lift` once did.
fn reference_lift(base: &Graph, m: usize, voltages: &[Perm]) -> Model {
    let edges: Vec<Edge> = base.edges().collect();
    let mut adj = Vec::new();
    for v in base.nodes() {
        for i in 0..m {
            adj.push(
                base.neighbors(v)
                    .iter()
                    .map(|&u| {
                        let e = Edge::new(v, u);
                        let perm = &voltages[edges.iter().position(|&f| f == e).expect("edge")];
                        let j = if v == e.u { perm.apply(i) } else { perm.inverse().apply(i) };
                        NodeId::new(u.index() * m + j)
                    })
                    .collect(),
            );
        }
    }
    Model { adj }
}

/// Corrupts lists in place: replaces, drops or repeats a few entries.
fn corrupt(adj: &mut [Vec<NodeId>], rng: &mut ChaCha8Rng) {
    let n = adj.len();
    for _ in 0..rng.gen_range(1..=3) {
        let v = rng.gen_range(0..n);
        let list = &mut adj[v];
        match rng.gen_range(0..3) {
            0 if !list.is_empty() => {
                let p = rng.gen_range(0..list.len());
                list[p] = NodeId::new(rng.gen_range(0..n + 2));
            }
            1 if !list.is_empty() => {
                list.remove(rng.gen_range(0..list.len()));
            }
            _ => list.push(NodeId::new(rng.gen_range(0..n + 1))),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Built from lists or from edges, the graph reads as the lists do.
    #[test]
    fn graph_reads_like_its_adjacency_lists(seed in 0u64..100_000, n in 1usize..16) {
        let p = [0.1, 0.3, 0.6][(seed % 3) as usize];
        let (model, pairs) = random_model(seed, n, p);
        let g = Graph::from_adjacency(model.adj.clone()).expect("valid lists");
        assert_matches(&g, &model);
        let from_edges = Graph::from_edges(n, &pairs).expect("valid edges");
        assert_matches(&from_edges, &model);
        prop_assert_eq!(&g, &from_edges);
        prop_assert_eq!(hash_of(&g), hash_of(&from_edges));
    }

    /// `renumber` and `with_ports_permuted` agree with the list model.
    #[test]
    fn relabelling_and_reporting_match_the_model(seed in 0u64..100_000, n in 1usize..16) {
        let (model, _) = random_model(seed, n, 0.35);
        let g = Graph::from_adjacency(model.adj.clone()).expect("valid lists");
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let perm = Perm::random(n, &mut rng);
        assert_matches(&g.renumber(&perm).expect("a permutation"), &renumbered(&model, &perm));
        let perms: Vec<Perm> =
            model.adj.iter().map(|list| Perm::random(list.len(), &mut rng)).collect();
        let reported = g.with_ports_permuted(&perms).expect("degree-matching permutations");
        assert_matches(&reported, &ports_permuted(&model, &perms));
    }

    /// Malformed lists fail with the error the per-node `HashSet` scan
    /// reports first.
    #[test]
    fn malformed_lists_fail_with_the_reference_error(seed in 0u64..100_000, n in 1usize..12) {
        let (mut model, _) = random_model(seed, n, 0.4);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xbad);
        corrupt(&mut model.adj, &mut rng);
        let expected = reference_validate(&model.adj);
        let got = Graph::from_adjacency(model.adj.clone());
        match (expected, got) {
            (Ok(()), Ok(g)) => assert_matches(&g, &model),
            (Err(e), Err(g)) => prop_assert_eq!(e, g),
            (e, g) => panic!("reference {e:?}, compressed {g:?} on {model:?}"),
        }
    }

    /// `lift` writes the same graph as validating the per-node lists.
    #[test]
    fn lift_equals_from_adjacency_of_its_lists(seed in 0u64..100_000, n in 3usize..9, m in 1usize..6) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let base = generators::gnp_connected(n, 0.5, &mut rng).expect("valid");
        let voltages: Vec<Perm> = base.edges().map(|_| Perm::random(m, &mut rng)).collect();
        let lifted = lift(&base, m, &voltages).expect("valid voltages");
        let model = reference_lift(&base, m, &voltages);
        assert_matches(lifted.graph(), &model);
        prop_assert_eq!(lifted.graph(), &Graph::from_adjacency(model.adj).expect("valid"));
        let projection: Vec<NodeId> = (0..n * m).map(|x| NodeId::new(x / m)).collect();
        prop_assert_eq!(lifted.projection(), &projection[..]);
    }
}

#[test]
fn lift_rejects_bad_voltages_with_the_pinned_errors() {
    let base = generators::cycle(4).expect("valid");
    let invalid = |reason: &str| Err(GraphError::InvalidParameter { reason: reason.into() });
    assert_eq!(lift(&base, 0, &[]).map(|_| ()), invalid("lift multiplicity must be >= 1"));
    assert_eq!(
        lift(&base, 2, &[Perm::identity(2)]).map(|_| ()),
        invalid("1 voltages supplied for 4 edges")
    );
    let mut voltages = vec![Perm::identity(2); 4];
    voltages[2] = Perm::identity(3);
    assert_eq!(
        lift(&base, 2, &voltages).map(|_| ()),
        invalid("voltage of degree 3 does not match multiplicity 2")
    );
}
