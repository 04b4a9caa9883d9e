//! Golden digests of the `s(·)` encoder, and a proptest against its
//! literal definition.
//!
//! The digests hash `encode_with_order` under the canonical order on the
//! benchmark's inputs: the 104 `pipeline_random` graphs of seed 1 and the
//! eight `derand_lifts` base quotients. They were captured from the
//! encoder that tested each node pair with `has_edge`, so any change to
//! the byte layout fails here. The proptest keeps that pair loop as its
//! oracle.

use anonet_graph::canonical::encode_with_order;
use anonet_graph::coloring::greedy_two_hop_coloring;
use anonet_graph::{generators, Graph, Label, LabeledGraph, NodeId};
use anonet_views::{canonical_order, quotient, ViewMode};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The encoder's literal definition: `n`, the labels in order, then one
/// `has_edge` test per node pair of the upper triangle, packed MSB-first.
fn pairwise_encoding<L: Label>(g: &LabeledGraph<L>, order: &[NodeId]) -> Vec<u8> {
    let n = g.node_count();
    let mut out = Vec::new();
    (n as u64).encode(&mut out);
    for &v in order {
        g.label(v).encode(&mut out);
    }
    let mut bits = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            bits.push(g.graph().has_edge(order[i], order[j]));
        }
    }
    for chunk in bits.chunks(8) {
        out.push(chunk.iter().enumerate().fold(0u8, |b, (k, &bit)| b | (u8::from(bit) << (7 - k))));
    }
    out
}

/// Folds the canonical encodings of the quotients of `graphs` into one
/// digest, and returns it with their total length.
fn digest<L: Label>(graphs: &[LabeledGraph<L>]) -> (u64, usize) {
    graphs.iter().fold((FNV_OFFSET, 0), |(h, len), g| {
        let q = quotient(g, ViewMode::Portless).expect("2-hop colored");
        let order = canonical_order(q.graph(), ViewMode::Portless).expect("quotients are prime");
        let key = encode_with_order(q.graph(), &order);
        (fnv1a(h, &key), len + key.len())
    })
}

/// `pipeline_random`'s seed-1 inputs: 52 even sizes spaced geometrically
/// from 128 to 1024, a `G(n, 6/n)` and a 3-regular graph each, with the
/// benchmark's stage-1 seed drawn after each graph. Labelled here by the
/// greedy 2-hop coloring.
fn pipeline_graphs() -> Vec<LabeledGraph<u32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut graphs = Vec::new();
    for i in 0..52 {
        let n = 2 * (128.0 * 8.0f64.powf(f64::from(i) / 51.0) / 2.0).round() as usize;
        let gnp = generators::gnp_connected(n, 6.0 / n as f64, &mut rng).unwrap();
        let _stage1_seed: u64 = rng.gen();
        let regular = generators::random_regular(n, 3, 100, &mut rng).unwrap();
        let _stage1_seed: u64 = rng.gen();
        graphs.push(greedy_two_hop_coloring(&gnp));
        graphs.push(greedy_two_hop_coloring(&regular));
    }
    graphs
}

/// `derand_lifts`' bases: `gnp_connected(n, 0.5)` with more edges than
/// nodes from one seed-1 stream, greedily 2-hop colored under unit inputs.
fn lift_bases() -> Vec<LabeledGraph<((), u32)>> {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    [5, 5, 6, 6, 6, 7, 7, 7]
        .into_iter()
        .map(|n| loop {
            let g = generators::gnp_connected(n, 0.5, &mut rng).unwrap();
            if g.edge_count() > n {
                break greedy_two_hop_coloring(&g).map_labels(|&c| ((), c));
            }
        })
        .collect()
}

#[test]
fn pipeline_graphs_match_the_golden_digest() {
    let graphs = pipeline_graphs();
    assert_eq!(graphs.len(), 104);
    assert_eq!(digest(&graphs), (GOLDEN_PIPELINE, GOLDEN_PIPELINE_BYTES));
}

#[test]
fn lift_base_quotients_match_the_golden_digest() {
    assert_eq!(digest(&lift_bases()), (GOLDEN_BASES, GOLDEN_BASES_BYTES));
}

const GOLDEN_PIPELINE: u64 = 5678308495388157226;
const GOLDEN_PIPELINE_BYTES: usize = 1828458;
const GOLDEN_BASES: u64 = 7508515226414995227;
const GOLDEN_BASES_BYTES: usize = 279;

/// A random graph on `n` nodes with edge probability `p`, labels drawn
/// from `0..colors`, and a random node order.
fn random_case(seed: u64, n: usize, p: f64, colors: u8) -> (LabeledGraph<u8>, Vec<NodeId>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    let labels = (0..n).map(|_| rng.gen_range(0..colors)).collect();
    let g = Graph::from_edges(n, &edges).unwrap().with_labels(labels).unwrap();
    let mut order: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    order.shuffle(&mut rng);
    (g, order)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The encoder equals the pair loop on random graphs, sizes crossing
    /// byte boundaries of the triangle, and random orders. (Graphs have at
    /// least one node.)
    #[test]
    fn encoder_matches_the_pair_loop(
        seed in 0u64..1 << 40,
        n in 1usize..=40,
        p_percent in 0u32..=100,
        colors in 1u8..4,
    ) {
        let (g, order) = random_case(seed, n, f64::from(p_percent) / 100.0, colors);
        prop_assert_eq!(encode_with_order(&g, &order), pairwise_encoding(&g, &order));
    }
}

#[test]
#[should_panic(expected = "exactly once")]
fn a_repeated_node_panics() {
    let (g, _) = random_case(7, 5, 0.5, 2);
    let _ = encode_with_order(&g, &[0, 1, 2, 2, 4].map(NodeId::new));
}

#[test]
#[should_panic(expected = "exactly once")]
fn a_missing_node_panics() {
    let (g, _) = random_case(7, 5, 0.5, 2);
    let _ = encode_with_order(&g, &[0, 1, 2, 3].map(NodeId::new));
}
