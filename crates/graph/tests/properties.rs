//! Property-based tests for the graph substrate.

use anonet_graph::{
    canonical, coloring, distance, generators, iso, lift, BitString, Graph, NodeId,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn random_graph(seed: u64, n: usize, flavor: u8) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match flavor % 3 {
        0 => generators::gnp_connected(n, 0.35, &mut rng).expect("valid"),
        1 => generators::random_tree(n, &mut rng).expect("valid"),
        _ => generators::cycle(n.max(3)).expect("valid"),
    }
}

/// Applies a node permutation to a graph, producing an isomorphic copy.
fn permuted(g: &Graph, perm: &[usize]) -> Graph {
    let edges: Vec<(usize, usize)> =
        g.edges().map(|e| (perm[e.u.index()], perm[e.v.index()])).collect();
    Graph::from_edges(g.node_count(), &edges).expect("permutation preserves simplicity")
}

/// A graph with every edge present with probability `p`: possibly
/// disconnected, possibly edgeless.
fn sparse_graph(seed: u64, n: usize, p: f64) -> Graph {
    use rand::Rng;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("simple by construction")
}

/// The full-BFS definition of `H^r(v)`: every node whose BFS distance
/// from `v` is at most `r`, in ascending order. Oracle for the
/// radius-bounded walk.
fn ball_oracle(g: &Graph, v: NodeId, r: usize) -> Vec<NodeId> {
    distance::bfs_distances(g, v)
        .iter()
        .enumerate()
        .filter(|(_, d)| d.is_some_and(|d| d <= r))
        .map(|(i, _)| NodeId::new(i))
        .collect()
}

/// The pair-list definition of a k-hop coloring check: the first pair
/// `(u, v)`, `u < v`, in ascending order, within `k` hops and sharing a
/// label.
fn k_hop_oracle(g: &anonet_graph::LabeledGraph<u32>, k: usize) -> Option<(NodeId, NodeId)> {
    let graph = g.graph();
    graph.nodes().find_map(|u| {
        ball_oracle(graph, u, k)
            .into_iter()
            .find(|&v| u < v && g.label(u) == g.label(v))
            .map(|v| (u, v))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Reverse ports are involutive and endpoint-consistent on every graph.
    #[test]
    fn ports_are_consistent(seed in 0u64..10_000, n in 2usize..20, flavor in 0u8..3) {
        let g = random_graph(seed, n, flavor);
        for v in g.nodes() {
            for p in 0..g.degree(v) {
                let p = anonet_graph::Port::new(p);
                let u = g.endpoint(v, p);
                let q = g.reverse_port(v, p);
                prop_assert_eq!(g.endpoint(u, q), v);
                prop_assert_eq!(g.reverse_port(u, q), p);
            }
        }
    }

    /// Permuted copies are isomorphic, and the found map verifies.
    #[test]
    fn permutations_give_isomorphic_graphs(seed in 0u64..10_000, n in 2usize..10, flavor in 0u8..3) {
        let g = random_graph(seed, n, flavor);
        let n = g.node_count();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xabcd);
        let perm = lift::Perm::random(n, &mut rng);
        let perm_vec: Vec<usize> = (0..n).map(|i| perm.apply(i)).collect();
        let h = permuted(&g, &perm_vec);
        let a = g.with_uniform_label(0u8);
        let b = h.with_uniform_label(0u8);
        let map = iso::find_isomorphism(&a, &b);
        prop_assert!(map.is_some());
        prop_assert!(iso::is_isomorphism(&a, &b, &map.unwrap()));
    }

    /// Greedy k-hop colorings validate for every k and respect the ball
    /// bound (palette at most the largest k-ball). Note the palette is
    /// *not* monotone in k — greedy is order-sensitive.
    #[test]
    fn greedy_colorings_validate(seed in 0u64..10_000, n in 2usize..16, flavor in 0u8..3) {
        let g = random_graph(seed, n, flavor);
        for k in 1..=3 {
            let colored = coloring::greedy_k_hop_coloring(&g, k);
            prop_assert!(coloring::is_k_hop_coloring(&colored, k));
            let max_ball = g.nodes().map(|v| distance::ball(&g, v, k).len()).max().unwrap();
            prop_assert!(coloring::color_count(&colored) <= max_ball);
        }
    }

    /// Lifts preserve degrees, have uniform fibers, and project locally
    /// isomorphically.
    #[test]
    fn lifts_are_coverings(seed in 0u64..10_000, n in 3usize..10, m in 2usize..4) {
        let g = generators::cycle(n).expect("valid");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let volt: Vec<lift::Perm> =
            (0..g.edge_count()).map(|_| lift::Perm::random(m, &mut rng)).collect();
        let l = lift::lift(&g, m, &volt).expect("valid lift");
        let big = l.graph();
        prop_assert_eq!(big.node_count(), n * m);
        prop_assert_eq!(big.edge_count(), g.edge_count() * m);
        for x in big.nodes() {
            let v = l.projection()[x.index()];
            prop_assert_eq!(big.degree(x), g.degree(v));
            let mut img: Vec<NodeId> =
                big.neighbors(x).iter().map(|y| l.projection()[y.index()]).collect();
            img.sort();
            let mut expect: Vec<NodeId> = g.neighbors(v).to_vec();
            expect.sort();
            prop_assert_eq!(img, expect);
        }
    }

    /// min_encoding is a canonical form on small graphs: equal across
    /// permuted presentations.
    #[test]
    fn min_encoding_is_permutation_invariant(seed in 0u64..10_000, n in 2usize..6, flavor in 0u8..3) {
        let g = random_graph(seed, n, flavor);
        let n = g.node_count();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x77);
        let perm = lift::Perm::random(n, &mut rng);
        let perm_vec: Vec<usize> = (0..n).map(|i| perm.apply(i)).collect();
        let h = permuted(&g, &perm_vec);
        prop_assert_eq!(
            canonical::min_encoding(&g.with_uniform_label(0u8)),
            canonical::min_encoding(&h.with_uniform_label(0u8))
        );
    }

    /// BFS distances satisfy the triangle inequality through any edge.
    #[test]
    fn distances_satisfy_triangle_inequality(seed in 0u64..10_000, n in 2usize..16, flavor in 0u8..3) {
        let g = random_graph(seed, n, flavor);
        let v0 = NodeId::new(0);
        let d = distance::bfs_distances(&g, v0);
        for e in g.edges() {
            let du = d[e.u.index()].expect("connected");
            let dv = d[e.v.index()].expect("connected");
            prop_assert!(du.abs_diff(dv) <= 1);
        }
    }

    /// Shortlex on bitstrings is a total order compatible with encoding.
    #[test]
    fn bitstring_order_is_total_and_consistent(a in 0u64..256, la in 0usize..9, b in 0u64..256, lb in 0usize..9) {
        let x = BitString::from_value(a & ((1 << la.max(1)) - 1), la);
        let y = BitString::from_value(b & ((1 << lb.max(1)) - 1), lb);
        use std::cmp::Ordering;
        match x.cmp(&y) {
            Ordering::Equal => prop_assert_eq!(&x, &y),
            Ordering::Less => prop_assert!(y > x.clone()),
            Ordering::Greater => prop_assert!(y < x.clone()),
        }
        // Prefixes are never greater in shortlex.
        if x.is_prefix_of(&y) {
            prop_assert!(x <= y);
        }
    }

    /// Radius-bounded balls, pair lists and k-hop checks agree with the
    /// full-BFS definitions on random (possibly disconnected) graphs, for
    /// valid colorings and for random labelings that are often invalid —
    /// including the first violating pair.
    #[test]
    fn bounded_balls_match_the_full_bfs(seed in 0u64..10_000, n in 1usize..18, density in 0u8..4, palette in 1u32..6) {
        let g = sparse_graph(seed, n, [0.08, 0.15, 0.3, 0.6][density as usize]);
        let mut scratch = distance::BallScratch::new(0);
        for k in 0..=3usize {
            let mut pairs = Vec::new();
            for v in g.nodes() {
                let want = ball_oracle(&g, v, k);
                prop_assert_eq!(distance::ball(&g, v, k), want.clone());
                prop_assert_eq!(scratch.ball(&g, v, k), &want[..]);
                pairs.extend(want.into_iter().filter(|&u| v < u).map(|u| (v, u)));
            }
            prop_assert_eq!(distance::pairs_within(&g, k), pairs);

            let valid = coloring::greedy_k_hop_coloring(&g, k);
            prop_assert_eq!(k_hop_oracle(&valid, k), None);
            prop_assert!(coloring::check_k_hop_coloring(&valid, k).is_ok());
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
            let labels = (0..n).map(|_| { use rand::Rng; rng.gen_range(0..palette) }).collect();
            let random = g.with_labels(labels).expect("one label per node");
            let got = coloring::check_k_hop_coloring(&random, k).err().map(|w| (w.u, w.v));
            prop_assert_eq!(got, k_hop_oracle(&random, k));
        }
    }
}
