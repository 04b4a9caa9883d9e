//! The canonical total order on nodes with distinct views
//! (paper, Section 2.1) and the `s(G_*)` encoding (Section 3.1).

use anonet_graph::{canonical, Label, LabeledGraph, NodeId};

use crate::error::ViewError;
use crate::refinement::{BoundedRefinement, ViewMode};
use crate::Result;

/// Computes the canonical total order on the nodes of a graph whose views
/// are all distinct (e.g. a view quotient / a prime 2-hop colored graph).
///
/// The paper orders `V_∞` by comparing canonical representations of the
/// depth-∞ view trees level by level. We use the equivalent
/// isomorphism-invariant order given by the *refinement history*: node `u`
/// precedes node `v` if the vector `(class₀(u), class₁(u), …)` precedes
/// `(class₀(v), class₁(v), …)` lexicographically, where class ids at every
/// level are canonically numbered by sorted refinement keys. Because class
/// ids are derived from views alone, every node of an anonymous network
/// computes the **same** order — the property all of Section 2.2's
/// machinery needs. (Any fixed view-derived total order satisfies the
/// paper's proofs; the literal tree order and this one agree on what
/// matters: both are invariant and total.)
///
/// No history is needed to compute it. Every round's key starts with the
/// node's previous class, so ids are monotone across rounds: a smaller
/// stable id implies a smaller-or-equal id at every earlier round, and the
/// first round where two histories differ is ordered the same way. The
/// history order is therefore the stable-id order, and on a discrete
/// partition the order is the inverse of the stable ids.
///
/// On a quotient's graph that order is the identity, which
/// [`ViewQuotient::canonical_order`](crate::ViewQuotient::canonical_order)
/// returns without refining again.
///
/// # Errors
///
/// Returns [`ViewError::NotDiscrete`] if two nodes share a view — only
/// prime graphs have a canonical node order.
pub fn canonical_order<L: Label>(g: &LabeledGraph<L>, mode: ViewMode) -> Result<Vec<NodeId>> {
    let r = BoundedRefinement::compute(g, mode);
    if !r.is_discrete() {
        return Err(ViewError::NotDiscrete { nodes: g.node_count(), classes: r.class_count() });
    }
    let mut nodes = vec![NodeId::new(0); g.node_count()];
    for (v, &c) in r.classes().iter().enumerate() {
        nodes[c as usize] = NodeId::new(v);
    }
    Ok(nodes)
}

/// The canonical bitstring encoding `s(G)` of a prime labeled graph:
/// [`canonical_order`] followed by
/// [`encode_with_order`](anonet_graph::canonical::encode_with_order).
///
/// `Update-Graph` compares finite view graphs by `(|V_*|, s(G_*))`; this
/// function provides the `s(·)` part.
///
/// # Errors
///
/// Returns [`ViewError::NotDiscrete`] if the graph has repeated views.
pub fn canonical_encoding<L: Label>(g: &LabeledGraph<L>, mode: ViewMode) -> Result<Vec<u8>> {
    let order = canonical_order(g, mode)?;
    Ok(canonical::encode_with_order(g, &order))
}

/// Compares two prime labeled graphs in the `Update-Graph` total order:
/// first by node count, then by canonical encoding.
///
/// # Errors
///
/// Returns [`ViewError::NotDiscrete`] if either graph has repeated views.
pub fn update_graph_cmp<L: Label>(
    a: &LabeledGraph<L>,
    b: &LabeledGraph<L>,
    mode: ViewMode,
) -> Result<std::cmp::Ordering> {
    let by_size = a.node_count().cmp(&b.node_count());
    if by_size != std::cmp::Ordering::Equal {
        return Ok(by_size);
    }
    Ok(canonical_encoding(a, mode)?.cmp(&canonical_encoding(b, mode)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_graph::generators;

    fn colored_cycle(n: usize) -> LabeledGraph<u32> {
        let labels: Vec<u32> = (0..n).map(|i| (i % 3) as u32 + 1).collect();
        generators::cycle(n).unwrap().with_labels(labels).unwrap()
    }

    #[test]
    fn order_requires_distinct_views() {
        let g = colored_cycle(6); // views repeat with multiplicity 2
        assert!(matches!(
            canonical_order(&g, ViewMode::Portless),
            Err(ViewError::NotDiscrete { nodes: 6, classes: 3 })
        ));
    }

    #[test]
    fn order_is_total_on_prime_graphs() {
        let g = colored_cycle(3);
        let order = canonical_order(&g, ViewMode::PortAware).unwrap();
        assert_eq!(order.len(), 3);
        let mut sorted = order.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
    }

    #[test]
    fn order_is_isomorphism_invariant() {
        // Rotating the labels of C3 renames nodes; the canonical order
        // must follow the renaming, i.e. the sequence of labels along the
        // canonical order must be identical for both presentations.
        let a = generators::cycle(3).unwrap().with_labels(vec![1u32, 2, 3]).unwrap();
        let b = generators::cycle(3).unwrap().with_labels(vec![2u32, 3, 1]).unwrap();
        let oa = canonical_order(&a, ViewMode::PortAware).unwrap();
        let ob = canonical_order(&b, ViewMode::PortAware).unwrap();
        let la: Vec<u32> = oa.iter().map(|&v| *a.label(v)).collect();
        let lb: Vec<u32> = ob.iter().map(|&v| *b.label(v)).collect();
        assert_eq!(la, lb);
    }

    #[test]
    fn canonical_encoding_is_presentation_independent() {
        let a = generators::cycle(3).unwrap().with_labels(vec![1u32, 2, 3]).unwrap();
        let b = generators::cycle(3).unwrap().with_labels(vec![3u32, 1, 2]).unwrap();
        assert_eq!(
            canonical_encoding(&a, ViewMode::PortAware).unwrap(),
            canonical_encoding(&b, ViewMode::PortAware).unwrap()
        );
    }

    #[test]
    fn canonical_encoding_separates_different_graphs() {
        let a = generators::cycle(3).unwrap().with_labels(vec![1u32, 2, 3]).unwrap();
        let b = generators::path(3).unwrap().with_labels(vec![1u32, 2, 3]).unwrap();
        assert_ne!(
            canonical_encoding(&a, ViewMode::PortAware).unwrap(),
            canonical_encoding(&b, ViewMode::PortAware).unwrap()
        );
    }

    #[test]
    fn update_graph_cmp_orders_by_size_first() {
        let small = colored_cycle(3);
        let big = generators::cycle(4).unwrap().with_labels(vec![1u32, 2, 3, 4]).unwrap();
        assert_eq!(
            update_graph_cmp(&small, &big, ViewMode::PortAware).unwrap(),
            std::cmp::Ordering::Less
        );
        assert_eq!(
            update_graph_cmp(&small, &small, ViewMode::PortAware).unwrap(),
            std::cmp::Ordering::Equal
        );
    }
}
