//! Deterministic byte encodings of labeled graphs.
//!
//! `Update-Graph` (paper, Section 3.1) totally orders finite view graphs by
//! `(|V*|, s(G*))` where `s(G*)` is a bitstring encoding of the graph under
//! a predetermined node order. This module supplies:
//!
//! * [`encode_with_order`] — the `s(·)` encoding given a node order (the
//!   views machinery in `anonet-views` supplies the canonical view order);
//! * [`min_encoding`] — a canonical (order-independent) encoding obtained
//!   by minimizing over permutations, feasible for the tiny graphs handled
//!   by the faithful `A_*` candidate enumeration.

use crate::labeled::LabeledGraph;
use crate::labels::Label;
use crate::node::NodeId;

/// Encodes a labeled graph under the given node order.
///
/// The encoding is `n`, then each node's label (in order), then the upper
/// triangle of the adjacency matrix (row-major, in order), packed into
/// bytes. Two labeled graphs receive equal encodings under orders `σ`, `τ`
/// iff relabeling by `τ∘σ⁻¹` is a label-preserving isomorphism.
///
/// The triangle is zero-filled and then one bit is set per edge, so the
/// cost is `O(n + m + n²/8)`: pair `(i, j)`, `i < j`, of positions in
/// `order` is bit `i·n − i(i+1)/2 + (j − i − 1)`, MSB-first.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the graph's nodes.
pub fn encode_with_order<L: Label>(g: &LabeledGraph<L>, order: &[NodeId]) -> Vec<u8> {
    let n = g.node_count();
    assert_eq!(order.len(), n, "order must list every node exactly once");
    let mut pos = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        assert!(pos[v.index()] == usize::MAX, "order must list every node exactly once");
        pos[v.index()] = i;
    }

    let mut out = Vec::new();
    (n as u64).encode(&mut out);
    for &v in order {
        g.label(v).encode(&mut out);
    }
    let triangle = out.len();
    out.resize(triangle + (n * n.saturating_sub(1) / 2).div_ceil(8), 0);
    let bits = &mut out[triangle..];
    for (i, &v) in order.iter().enumerate() {
        let row = i * n - i * (i + 1) / 2;
        for &u in g.graph().neighbors(v) {
            let j = pos[u.index()];
            if j > i {
                let bit = row + j - i - 1;
                bits[bit / 8] |= 0x80 >> (bit % 8);
            }
        }
    }
    out
}

/// The minimum of [`encode_with_order`] over **all** node permutations —
/// a canonical form: two labeled graphs are isomorphic iff their minimal
/// encodings are equal.
///
/// Cost is `n!`; intended for the ≤ 6-node graphs of the faithful `A_*`
/// candidate enumeration.
///
/// # Panics
///
/// Panics if the graph has more than 8 nodes (call sites should use the
/// view-order encoding instead).
pub fn min_encoding<L: Label>(g: &LabeledGraph<L>) -> Vec<u8> {
    let n = g.node_count();
    assert!(n <= 8, "min_encoding is factorial; use encode_with_order for larger graphs");
    let mut best: Option<Vec<u8>> = None;
    permute(&mut (0..n).map(NodeId::new).collect::<Vec<_>>(), 0, &mut |order| {
        let enc = encode_with_order(g, order);
        if best.as_ref().is_none_or(|b| enc < *b) {
            best = Some(enc);
        }
    });
    best.expect("graphs are non-empty")
}

fn permute(items: &mut Vec<NodeId>, k: usize, visit: &mut impl FnMut(&[NodeId])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::iso::are_isomorphic;
    use crate::Graph;

    #[test]
    fn encoding_depends_on_order() {
        let g = generators::path(3).unwrap().with_labels(vec![1u8, 2, 3]).unwrap();
        let fwd: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let rev: Vec<NodeId> = (0..3).rev().map(NodeId::new).collect();
        assert_ne!(encode_with_order(&g, &fwd), encode_with_order(&g, &rev));
    }

    #[test]
    #[should_panic(expected = "exactly once")]
    fn encoding_rejects_non_permutations() {
        let g = generators::path(2).unwrap().with_uniform_label(0u8);
        let _ = encode_with_order(&g, &[NodeId::new(0), NodeId::new(0)]);
    }

    #[test]
    fn min_encoding_is_canonical_for_isomorphic_graphs() {
        // Two presentations of the labeled triangle with colors {1,2,3}.
        let a = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)])
            .unwrap()
            .with_labels(vec![1u8, 2, 3])
            .unwrap();
        let b = Graph::from_edges(3, &[(2, 0), (0, 1), (2, 1)])
            .unwrap()
            .with_labels(vec![2u8, 3, 1])
            .unwrap();
        assert!(are_isomorphic(&a, &b));
        assert_eq!(min_encoding(&a), min_encoding(&b));
    }

    #[test]
    fn min_encoding_separates_non_isomorphic_graphs() {
        let c4 = generators::cycle(4).unwrap().with_uniform_label(0u8);
        let p4 = generators::path(4).unwrap().with_uniform_label(0u8);
        assert_ne!(min_encoding(&c4), min_encoding(&p4));
        let l1 = generators::cycle(4).unwrap().with_labels(vec![1u8, 2, 1, 2]).unwrap();
        let l2 = generators::cycle(4).unwrap().with_labels(vec![1u8, 1, 2, 2]).unwrap();
        assert_ne!(min_encoding(&l1), min_encoding(&l2));
    }

    #[test]
    fn encoding_is_injective_on_edge_sets() {
        // Same node count and labels, different edges.
        let a = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let b = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (1, 3)]).unwrap();
        let la = a.with_uniform_label(0u8);
        let lb = b.with_uniform_label(0u8);
        let order: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        assert_ne!(encode_with_order(&la, &order), encode_with_order(&lb, &order));
    }
}
