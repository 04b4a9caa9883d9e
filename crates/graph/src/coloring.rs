//! k-hop colorings: validation and centralized construction.
//!
//! A labeling `ℓ` of `G = (V, E)` is a *k-hop coloring* if `ℓ(u) ≠ ℓ(v)`
//! for all distinct `u, v` at distance at most `k` (paper, Section 1.1).
//! The case `k = 2` is the paper's central object: Theorem 1 shows a 2-hop
//! coloring is *all* the symmetry breaking a randomized anonymous algorithm
//! can ever extract.
//!
//! The distributed Las-Vegas 2-hop colorer lives in `anonet-algorithms`;
//! this module provides centralized validation (used by verifiers, tests,
//! and the candidate machinery of `A_*`) and a centralized greedy colorer
//! for building test fixtures.

use crate::distance::BallScratch;
use crate::graph::Graph;
use crate::labeled::LabeledGraph;
use crate::labels::Label;
use crate::node::NodeId;

/// A witness that a labeling is *not* a k-hop coloring: two nodes within
/// `k` hops sharing a label.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ColoringViolation {
    /// First offending node.
    pub u: NodeId,
    /// Second offending node (distinct from `u`, within `k` hops).
    pub v: NodeId,
}

/// Checks whether `ℓ` is a k-hop coloring, returning a violating pair if not.
///
/// # Errors
///
/// Returns the first [`ColoringViolation`] found (in ascending node order).
pub fn check_k_hop_coloring<L: Label>(
    g: &LabeledGraph<L>,
    k: usize,
) -> Result<(), ColoringViolation> {
    // Walks each node's radius-k ball directly, in the order of
    // `pairs_within`, so the witness is the first pair that list holds.
    let graph = g.graph();
    let mut scratch = BallScratch::new(graph.node_count());
    for u in graph.nodes() {
        if let Some(&v) =
            scratch.ball(graph, u, k).iter().find(|&&v| u < v && g.label(u) == g.label(v))
        {
            return Err(ColoringViolation { u, v });
        }
    }
    Ok(())
}

/// `true` iff `ℓ` is a k-hop coloring of the underlying graph.
pub fn is_k_hop_coloring<L: Label>(g: &LabeledGraph<L>, k: usize) -> bool {
    check_k_hop_coloring(g, k).is_ok()
}

/// `true` iff `ℓ` is a 2-hop coloring — the paper's headline notion.
pub fn is_two_hop_coloring<L: Label>(g: &LabeledGraph<L>) -> bool {
    is_k_hop_coloring(g, 2)
}

/// Centralized greedy k-hop coloring with colors `0, 1, 2, …`.
///
/// Processes nodes in identifier order and gives each node the smallest
/// color not used within `k` hops. Uses at most `Δ^k + 1` colors (each node
/// has at most `Δ + Δ(Δ-1) + … ≤ Δ^k` nodes within `k` hops).
///
/// This is a *simulator-side* tool for fixtures and baselines; the
/// model-faithful distributed colorer is
/// `anonet_algorithms::two_hop_coloring`.
pub fn greedy_k_hop_coloring(g: &Graph, k: usize) -> LabeledGraph<u32> {
    let n = g.node_count();
    let mut colors: Vec<Option<u32>> = vec![None; n];
    for v in g.nodes() {
        let taken: std::collections::HashSet<u32> =
            crate::distance::ball(g, v, k).into_iter().filter_map(|u| colors[u.index()]).collect();
        let c = (0u32..).find(|c| !taken.contains(c)).expect("colors are unbounded");
        colors[v.index()] = Some(c);
    }
    let labels = colors.into_iter().map(|c| c.expect("all nodes colored")).collect();
    LabeledGraph::new(g.clone(), labels).expect("one label per node")
}

/// Centralized greedy 2-hop coloring (see [`greedy_k_hop_coloring`]).
pub fn greedy_two_hop_coloring(g: &Graph) -> LabeledGraph<u32> {
    greedy_k_hop_coloring(g, 2)
}

/// The number of distinct colors used by a labeling.
pub fn color_count<L: Label>(g: &LabeledGraph<L>) -> usize {
    g.distinct_label_count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn paper_figure1_coloring_is_two_hop() {
        // Figure 1 colors C6 with 1,2,3,1,2,3.
        let c6 = generators::cycle(6).unwrap();
        let colored = c6.with_labels(vec![1u32, 2, 3, 1, 2, 3]).unwrap();
        assert!(is_two_hop_coloring(&colored));
        // ... but it is not a 3-hop coloring: nodes 0 and 3 share color 1
        // at distance 3.
        let err = check_k_hop_coloring(&colored, 3).unwrap_err();
        assert_eq!(err, ColoringViolation { u: NodeId::new(0), v: NodeId::new(3) });
    }

    #[test]
    fn uniform_labels_violate_one_hop() {
        let g = generators::path(2).unwrap().with_uniform_label(0u8);
        assert!(!is_k_hop_coloring(&g, 1));
    }

    #[test]
    fn one_hop_coloring_that_is_not_two_hop() {
        // C4 colored 1,2,1,2 is a proper 1-hop coloring but nodes 0 and 2
        // are at distance 2 with equal colors.
        let c4 = generators::cycle(4).unwrap();
        let colored = c4.with_labels(vec![1u8, 2, 1, 2]).unwrap();
        assert!(is_k_hop_coloring(&colored, 1));
        assert!(!is_two_hop_coloring(&colored));
    }

    #[test]
    fn zero_hop_coloring_is_trivially_valid() {
        let g = generators::cycle(4).unwrap().with_uniform_label(0u8);
        assert!(is_k_hop_coloring(&g, 0));
    }

    #[test]
    fn greedy_produces_valid_colorings() {
        for g in [
            generators::cycle(7).unwrap(),
            generators::path(9).unwrap(),
            generators::complete(5).unwrap(),
            generators::petersen(),
            generators::hypercube(3).unwrap(),
        ] {
            for k in 1..=3 {
                let colored = greedy_k_hop_coloring(&g, k);
                assert!(is_k_hop_coloring(&colored, k), "greedy failed on {g} with k={k}");
            }
        }
    }

    #[test]
    fn greedy_color_count_is_reasonable() {
        let g = generators::cycle(12).unwrap();
        let colored = greedy_two_hop_coloring(&g);
        // A cycle needs at least 3 colors for 2-hop coloring; greedy should
        // stay within Δ² + 1 = 5.
        let count = color_count(&colored);
        assert!((3..=5).contains(&count), "unexpected color count {count}");
    }

    #[test]
    fn unique_ids_are_a_k_hop_coloring_for_all_k() {
        let g = generators::petersen();
        let ids = g.with_labels((0..10u32).collect()).unwrap();
        for k in 0..5 {
            assert!(is_k_hop_coloring(&ids, k));
        }
    }
}
