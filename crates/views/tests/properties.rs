//! Property-based tests for the views machinery on random graphs.

use anonet_graph::{
    coloring, generators, iso, lift, BitString, Graph, Label, LabeledGraph, NodeId,
};
use anonet_views::{
    canonical_order, quotient, BoundedRefinement, FoldedView, Refinement, ViewError, ViewMode,
    ViewTree,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn random_graph(seed: u64, n: usize, flavor: u8) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match flavor % 3 {
        0 => generators::gnp_connected(n, 0.35, &mut rng).expect("valid"),
        1 => generators::random_tree(n, &mut rng).expect("valid"),
        _ => generators::cycle(n.max(3)).expect("valid"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Folded views built directly equal folded views of explicit trees,
    /// and unfold back to the canonical tree.
    #[test]
    fn folded_views_roundtrip(seed in 0u64..5000, n in 2usize..10, flavor in 0u8..3, d in 1usize..5) {
        let g = random_graph(seed, n, flavor).with_degree_labels();
        for v in g.graph().nodes() {
            let direct = FoldedView::build(&g, v, d).expect("valid depth");
            let tree = ViewTree::build(&g, v, d).expect("small enough");
            prop_assert_eq!(&direct, &FoldedView::from_view_tree(&tree));
            prop_assert!(direct.unfold().view_eq(&tree));
            prop_assert_eq!(direct.unfolded_size(), tree.size() as u128);
        }
    }

    /// Folded-view equality is exactly view equality (refinement classes).
    #[test]
    fn folded_equality_matches_refinement(seed in 0u64..5000, n in 2usize..10, flavor in 0u8..3) {
        let g = random_graph(seed, n, flavor).with_uniform_label(0u32);
        let n = g.node_count();
        let d = n + 1; // deep enough to separate everything separable
        let views: Vec<FoldedView<u32>> = g
            .graph()
            .nodes()
            .map(|v| FoldedView::build(&g, v, d).expect("valid"))
            .collect();
        let r = Refinement::compute(&g, ViewMode::Portless);
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(
                    views[u] == views[v],
                    r.classes()[u] == r.classes()[v],
                    "nodes {} vs {}", u, v
                );
            }
        }
    }

    /// Closed-view quotient reconstruction agrees with the direct quotient
    /// on greedily colored random graphs.
    #[test]
    fn closed_reconstruction_matches_quotient(seed in 0u64..3000, n in 2usize..8, flavor in 0u8..3) {
        let g = random_graph(seed, n, flavor);
        let colored = coloring::greedy_two_hop_coloring(&g);
        let nn = g.node_count();
        let direct = quotient(&colored, ViewMode::Portless).expect("2-hop colored");
        let folded = FoldedView::build_closed(&colored, NodeId::new(0), 2 * nn + 2)
            .expect("valid");
        let (reconstructed, own) = folded.quotient_at_level(nn).expect("reconstructible");
        prop_assert!(iso::are_isomorphic(&reconstructed, direct.graph()));
        prop_assert_eq!(reconstructed.label(own), colored.label(NodeId::new(0)));
    }

    /// The canonical order of a prime graph is invariant under relabeling
    /// of node identifiers (tested via lifts' fibers: the quotient of any
    /// lift presentation is the same canonical object).
    #[test]
    fn canonical_order_is_presentation_invariant(seed in 0u64..3000, m in 2usize..4) {
        let base = generators::cycle(5).expect("valid");
        let colored = coloring::greedy_two_hop_coloring(&base);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let Ok(l) = lift::random_connected_lift(&base, m, 100, &mut rng) else {
            return Ok(()); // unlucky voltages; skip
        };
        let product = l.lift_labels(colored.labels()).expect("labels fit");
        let q = quotient(&product, ViewMode::Portless).expect("2-hop colored");
        let order = canonical_order(q.graph(), ViewMode::Portless).expect("prime");
        // The sequence of labels along the canonical order must equal the
        // base's canonical label sequence.
        let base_order = canonical_order(&colored, ViewMode::Portless).expect("prime");
        let got: Vec<u32> = order.iter().map(|&c| *q.graph().label(c)).collect();
        let expect: Vec<u32> = base_order.iter().map(|&v| *colored.label(v)).collect();
        prop_assert_eq!(got, expect);
    }

    /// Quotienting twice is idempotent on colored random graphs.
    #[test]
    fn quotient_is_idempotent(seed in 0u64..5000, n in 2usize..10, flavor in 0u8..3) {
        let g = random_graph(seed, n, flavor);
        let colored = coloring::greedy_two_hop_coloring(&g);
        let q = quotient(&colored, ViewMode::Portless).expect("2-hop colored");
        let qq = quotient(q.graph(), ViewMode::Portless).expect("still 2-hop colored");
        prop_assert!(qq.is_trivial());
        prop_assert!(iso::are_isomorphic(qq.graph(), q.graph()));
    }
}

// ---- the flat refinement kernel against the literal reference ----------

const MODES: [ViewMode; 2] = [ViewMode::Portless, ViewMode::PortAware];

/// A connected labeled graph from one of the families the kernel meets,
/// with labels drawn from `palette`: G(n,p) (refines to discrete), random
/// 3-regular (refines slowly), and random connected lifts of a small base
/// whose labels are lifted too (refine to the labeled base, like the
/// derandomizer's inputs).
fn kernel_instance<L: Label>(
    rng: &mut ChaCha8Rng,
    n: usize,
    family: u8,
    palette: &[L],
) -> LabeledGraph<L> {
    let draw = |rng: &mut ChaCha8Rng, k: usize| -> Vec<L> {
        (0..k).map(|_| palette[rng.gen_range(0..palette.len())].clone()).collect()
    };
    let graph = match family % 3 {
        0 => generators::gnp_connected(n, 0.3, rng).expect("valid"),
        1 => {
            let n = (n + n % 2).max(4);
            generators::random_regular(n, 3, 200, rng)
                .unwrap_or_else(|_| generators::cycle(n).expect("valid"))
        }
        _ => {
            let base = generators::gnp_connected(n.clamp(3, 6), 0.5, rng).expect("valid");
            let labels = draw(rng, base.node_count());
            let m = rng.gen_range(2usize..5);
            return match lift::random_connected_lift(&base, m, 100, rng) {
                Ok(l) => l.lift_labels(&labels).expect("one label per base node"),
                Err(_) => base.with_labels(labels).expect("one label per node"),
            };
        }
    };
    let labels = draw(rng, graph.node_count());
    graph.with_labels(labels).expect("one label per node")
}

/// `BoundedRefinement` ≡ `Refinement` on classes, depth, penultimate
/// round and class count in both modes, and `canonical_order` ≡ the
/// full-history key sort whenever the partition is discrete.
fn assert_kernel_matches<L: Label>(g: &LabeledGraph<L>) -> Result<(), String> {
    for mode in MODES {
        let full = Refinement::compute(g, mode);
        let bounded = BoundedRefinement::compute(g, mode);
        prop_assert_eq!(bounded.classes(), full.classes());
        prop_assert_eq!(bounded.stabilization_depth(), full.stabilization_depth());
        prop_assert_eq!(
            bounded.penultimate_classes(),
            full.classes_at_clamped(full.stabilization_depth().saturating_sub(1))
        );
        prop_assert_eq!(bounded.class_count(), full.class_count());
        prop_assert_eq!(bounded.is_discrete(), full.is_discrete());
        match canonical_order(g, mode) {
            Ok(order) => {
                prop_assert!(full.is_discrete());
                prop_assert_eq!(order, history_key_order(g, &full));
            }
            Err(e) => {
                prop_assert!(!full.is_discrete());
                prop_assert_eq!(
                    e,
                    ViewError::NotDiscrete { nodes: g.node_count(), classes: full.class_count() }
                );
            }
        }
    }
    Ok(())
}

/// The canonical order as first defined: nodes sorted by their full
/// per-round class history.
fn history_key_order<L: Label>(g: &LabeledGraph<L>, full: &Refinement) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = g.graph().nodes().collect();
    nodes.sort_by_key(|&v| full.history_key(v));
    nodes
}

/// The quotient's simplicity check as first written — one neighbor-class
/// `Vec` per node and a sorted, deduplicated copy — kept as the oracle
/// for the stamp-array check.
fn two_vec_simplicity(graph: &Graph, classes: &[u32]) -> Option<ViewError> {
    for v in graph.nodes() {
        let mut neighbor_classes = Vec::with_capacity(graph.degree(v));
        for &u in graph.neighbors(v) {
            if classes[u.index()] == classes[v.index()] {
                return Some(ViewError::QuotientSelfLoop { node: v.index() });
            }
            neighbor_classes.push(classes[u.index()]);
        }
        let mut dedup = neighbor_classes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        if dedup.len() != neighbor_classes.len() {
            return Some(ViewError::QuotientParallelEdge { node: v.index() });
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Variable-length string labels, including prefixes of each other.
    #[test]
    fn bounded_refinement_matches_reference_on_string_labels(
        seed in 0u64..1_000_000, n in 3usize..24, family in 0u8..3, colors in 1usize..5,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let palette: Vec<String> =
            ["", "a", "ab", "b", "ba"].iter().take(colors).map(|s| s.to_string()).collect();
        assert_kernel_matches(&kernel_instance(&mut rng, n, family, &palette))?;
    }

    /// The derandomizer's instance label shape `((), color)`.
    #[test]
    fn bounded_refinement_matches_reference_on_instance_labels(
        seed in 0u64..1_000_000, n in 3usize..24, family in 0u8..3, colors in 1u32..40,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let palette: Vec<((), u32)> = (0..colors).map(|c| ((), c * 7919)).collect();
        assert_kernel_matches(&kernel_instance(&mut rng, n, family, &palette))?;
    }

    /// `A_*`-style labels: a pair of counters and a bit string of varying
    /// length.
    #[test]
    fn bounded_refinement_matches_reference_on_bitstring_labels(
        seed in 0u64..1_000_000, n in 3usize..24, family in 0u8..3, colors in 1usize..6,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let palette: Vec<((u32, u32), BitString)> = (0..colors)
            .map(|c| {
                let len = rng.gen_range(0..12);
                let bits = BitString::from_bits((0..len).map(|_| rng.gen_bool(0.5)));
                ((c as u32 % 2, c as u32 / 2), bits)
            })
            .collect();
        assert_kernel_matches(&kernel_instance(&mut rng, n, family, &palette))?;
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The stamp-array simplicity check reports the same error variant at
    /// the same node as the two-`Vec` check, on 2–3 colour labelings that
    /// are mostly not 2-hop colorings; successful quotients order like the
    /// history-key sort.
    #[test]
    fn quotient_errors_match_the_two_vec_check(
        seed in 0u64..1_000_000, n in 3usize..24, family in 0u8..3, colors in 2u32..4,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let palette: Vec<u32> = (0..colors).collect();
        let g = kernel_instance(&mut rng, n, family, &palette);
        for mode in MODES {
            let classes = Refinement::compute(&g, mode).classes().to_vec();
            let expect = two_vec_simplicity(g.graph(), &classes);
            match quotient(&g, mode) {
                Ok(q) => {
                    prop_assert_eq!(expect, None);
                    let full = Refinement::compute(q.graph(), mode);
                    let order = canonical_order(q.graph(), mode).expect("quotients are prime");
                    prop_assert_eq!(order, history_key_order(q.graph(), &full));
                }
                Err(e) => prop_assert_eq!(Some(e), expect),
            }
        }
    }
}

// ---- the quotient's canonical order against a second refinement --------

/// `ViewQuotient::canonical_order` ≡ `canonical_order` run on the quotient
/// graph, in both modes, wherever the quotient exists.
fn assert_quotient_order<L: Label>(g: &LabeledGraph<L>) -> Result<(), String> {
    for mode in MODES {
        if let Ok(q) = quotient(g, mode) {
            let order = canonical_order(q.graph(), mode).expect("quotients are prime");
            prop_assert_eq!(q.canonical_order(), order);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// G(n,p) with at most three label values: mostly discrete, sometimes
    /// a proper quotient, often no quotient at all.
    #[test]
    fn quotient_order_matches_canonical_order_on_gnp(
        seed in 0u64..1_000_000, n in 3usize..24, colors in 1u32..4,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let palette: Vec<u32> = (0..colors).collect();
        assert_quotient_order(&kernel_instance(&mut rng, n, 0, &palette))?;
    }

    /// Random connected lifts of a greedily 2-hop colored base: the
    /// quotient is the colored base, `m` times smaller.
    #[test]
    fn quotient_order_matches_canonical_order_on_colored_lifts(
        seed in 0u64..1_000_000, n in 3usize..8, m in 2usize..6,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let base = generators::gnp_connected(n, 0.5, &mut rng).expect("valid");
        let colored = coloring::greedy_two_hop_coloring(&base);
        let Ok(l) = lift::random_connected_lift(&base, m, 100, &mut rng) else {
            return Ok(()); // unlucky voltages; skip
        };
        let g = l.lift_labels(colored.labels()).expect("labels fit");
        prop_assert!(quotient(&g, ViewMode::Portless).is_ok());
        assert_quotient_order(&g)?;
    }

    /// `BitString` labels of varying length, on all three kernel families.
    #[test]
    fn quotient_order_matches_canonical_order_on_bitstring_labels(
        seed in 0u64..1_000_000, n in 3usize..24, family in 0u8..3, colors in 1usize..6,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let palette: Vec<BitString> = (0..colors)
            .map(|_| {
                let len = rng.gen_range(0..12);
                BitString::from_bits((0..len).map(|_| rng.gen_bool(0.5)))
            })
            .collect();
        assert_quotient_order(&kernel_instance(&mut rng, n, family, &palette))?;
    }
}
