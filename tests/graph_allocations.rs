//! Heap allocations of building and relabelling graphs.
//!
//! A graph's topology is one shared compressed adjacency, so building an
//! `m`-lift makes a number of allocations that does not depend on `m`,
//! and attaching labels to a topology allocates the label vector and
//! nothing else: the labelled graph shares its topology.

#[path = "common/alloc.rs"]
mod counting;

use anonet::graph::lift::{lift, Lift, Perm};
use anonet::graph::{generators, Graph};
use rand::SeedableRng;

/// A five-node base with degrees 2 to 4, and its `m`-lift under
/// seeded random voltages; only the lift itself is counted.
fn counted_lift(m: usize) -> (Lift, usize) {
    let base = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 1), (3, 4), (4, 2)])
        .expect("simple");
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(m as u64);
    let voltages: Vec<Perm> = base.edges().map(|_| Perm::random(m, &mut rng)).collect();
    let (lifted, allocations) = counting::counted(|| lift(&base, m, &voltages));
    (lifted.expect("valid voltages"), allocations)
}

#[test]
fn building_a_lift_allocates_independently_of_its_multiplicity() {
    let (small, at_1) = counted_lift(1);
    assert_eq!(small.graph().node_count(), 5);
    for m in [2, 64, 4096] {
        let (lifted, allocations) = counted_lift(m);
        assert_eq!(lifted.graph().node_count(), 5 * m);
        assert_eq!(allocations, at_1, "a {m}-lift made {allocations} allocations, a 1-lift {at_1}");
    }
}

#[test]
fn relabelling_allocates_only_the_label_vector() {
    for g in [generators::cycle(5).expect("valid"), counted_lift(4096).0.into_graph()] {
        let n = g.node_count();
        let labels: Vec<u32> = (0..n as u32).collect();
        let (by_index, allocations) = counting::counted(|| g.with_labels(labels));
        let by_index = by_index.expect("one label per node");
        assert_eq!(allocations, 0, "with_labels takes its vector");
        let (uniform, allocations) = counting::counted(|| g.with_uniform_label(7u32));
        assert_eq!(allocations, 1, "with_uniform_label on {n} nodes");
        let (mapped, allocations) = counting::counted(|| by_index.map_labels(|&l| u64::from(l)));
        assert_eq!(allocations, 1, "map_labels on {n} nodes");
        let (zipped, allocations) = counting::counted(|| uniform.zip(&mapped));
        assert_eq!(allocations, 1, "zip on {n} nodes");
        assert_eq!(zipped.expect("same topology").graph(), &g);
    }
    let (lifted, _) = counted_lift(4096);
    let (labelled, allocations) = counting::counted(|| lifted.lift_labels(&[1u32, 2, 3, 4, 5]));
    assert_eq!(allocations, 1, "lift_labels on a 4096-lift");
    assert_eq!(labelled.expect("one label per base node").graph(), lifted.graph());
}
