//! Bit assignments `b : V → {0,1}^*` and the paper's total order on them.

use std::fmt;

use anonet_graph::{BitString, NodeId};

/// An assignment of a bitstring tape to every node of a graph.
///
/// A *t-round simulation induced by `b`* (paper, Section 2.2) runs the
/// algorithm with `b(v)` replacing node `v`'s random bits. The
/// derandomization enumerates assignments in a fixed total order:
///
/// * assignments of smaller uniform length `t` come first;
/// * equal-length assignments compare lexicographically on the
///   concatenation `(b(w₁), …, b(w_k))` where `w₁ < … < w_k` is a
///   *canonical node order* (in the paper, the total order on `V_∞`).
///
/// [`BitAssignment::cmp_in_order`] implements exactly that comparison; the
/// canonical node order is supplied by the caller because it comes from
/// the views machinery.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BitAssignment {
    tapes: Vec<BitString>,
}

impl BitAssignment {
    /// Creates an assignment from per-node tapes (`tapes[i]` for node `i`).
    pub fn new(tapes: Vec<BitString>) -> Self {
        BitAssignment { tapes }
    }

    /// Assigns the same tape to every one of `n` nodes.
    pub fn uniform(n: usize, tape: &BitString) -> Self {
        BitAssignment { tapes: vec![tape.clone(); n] }
    }

    /// The all-empty assignment on `n` nodes (induces a 0-round simulation).
    pub fn empty(n: usize) -> Self {
        BitAssignment { tapes: vec![BitString::new(); n] }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.tapes.len()
    }

    /// `true` if the assignment covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.tapes.is_empty()
    }

    /// The tape of `node`, or `None` if out of range.
    pub fn tape(&self, node: NodeId) -> Option<&BitString> {
        self.tapes.get(node.index())
    }

    /// All tapes, indexed by node.
    pub fn tapes(&self) -> &[BitString] {
        &self.tapes
    }

    /// The length of the shortest tape: the number of rounds the induced
    /// simulation lasts (`l` in the paper's `Update-Output`).
    pub fn simulation_length(&self) -> usize {
        self.tapes.iter().map(BitString::len).min().unwrap_or(0)
    }

    /// `true` if every tape has exactly length `t`.
    pub fn is_uniform_length(&self, t: usize) -> bool {
        self.tapes.iter().all(|b| b.len() == t)
    }

    /// `true` if `self` extends `other` tape-wise: `other.tape(v)` is a
    /// prefix of `self.tape(v)` for every node (the paper's
    /// *p-extension* when lengths are uniform `p`).
    pub fn extends(&self, other: &BitAssignment) -> bool {
        self.tapes.len() == other.tapes.len()
            && other.tapes.iter().zip(&self.tapes).all(|(o, s)| o.is_prefix_of(s))
    }

    /// The paper's total order, parameterized by a canonical node order.
    ///
    /// Compares first by tape length (both assignments must be
    /// uniform-length; mixed lengths compare by their *minimum* length,
    /// matching the paper's `t₁ < t₂` extension), then lexicographically
    /// on the concatenated tapes in `node_order`.
    ///
    /// # Panics
    ///
    /// Panics if `node_order` is not a permutation of `0..len`.
    pub fn cmp_in_order(&self, other: &BitAssignment, node_order: &[NodeId]) -> std::cmp::Ordering {
        assert_eq!(node_order.len(), self.tapes.len(), "node order must cover the assignment");
        assert_eq!(self.tapes.len(), other.tapes.len(), "assignments must cover the same nodes");
        let t1 = self.simulation_length();
        let t2 = other.simulation_length();
        t1.cmp(&t2).then_with(|| {
            for &v in node_order {
                // anonet-lint: allow(panic-hygiene, reason = "documented precondition: node_order is a permutation of both assignments")
                let a = self.tape(v).expect("node order in range");
                // anonet-lint: allow(panic-hygiene, reason = "documented precondition: node_order is a permutation of both assignments")
                let b = other.tape(v).expect("node order in range");
                match a.cmp_lex(b) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            std::cmp::Ordering::Equal
        })
    }
}

impl fmt::Display for BitAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, t) in self.tapes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(s: &str) -> BitString {
        s.parse().unwrap()
    }

    fn order(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn simulation_length_is_min() {
        let a = BitAssignment::new(vec![bs("101"), bs("11")]);
        assert_eq!(a.simulation_length(), 2);
        assert!(!a.is_uniform_length(3));
        assert!(BitAssignment::uniform(3, &bs("00")).is_uniform_length(2));
    }

    #[test]
    fn extends_checks_prefixes() {
        let small = BitAssignment::new(vec![bs("1"), bs("0")]);
        let big = BitAssignment::new(vec![bs("10"), bs("01")]);
        let wrong = BitAssignment::new(vec![bs("00"), bs("01")]);
        assert!(big.extends(&small));
        assert!(!wrong.extends(&small));
        assert!(small.extends(&small));
    }

    #[test]
    fn order_length_dominates() {
        let short = BitAssignment::uniform(2, &bs("1"));
        let long = BitAssignment::uniform(2, &bs("00"));
        assert_eq!(short.cmp_in_order(&long, &order(2)), std::cmp::Ordering::Less);
    }

    #[test]
    fn order_is_lexicographic_in_node_order() {
        let a = BitAssignment::new(vec![bs("0"), bs("1")]);
        let b = BitAssignment::new(vec![bs("1"), bs("0")]);
        // In order [0, 1]: a = "01" < b = "10".
        assert_eq!(a.cmp_in_order(&b, &order(2)), std::cmp::Ordering::Less);
        // In the reversed node order the comparison flips.
        let rev = vec![NodeId::new(1), NodeId::new(0)];
        assert_eq!(a.cmp_in_order(&b, &rev), std::cmp::Ordering::Greater);
    }
}
