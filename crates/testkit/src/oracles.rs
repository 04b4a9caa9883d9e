//! Failure reporting, output fingerprints and the view-id differential
//! shared by the suites.

use std::collections::HashMap;
use std::fmt;

use anonet_graph::{Label, LabeledGraph, NodeId};
use anonet_views::{ViewIds, ViewTree};

/// One oracle violation: which oracle fired and a human-readable witness.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Failure {
    /// Oracle name (e.g. `renumbering-invariance`).
    pub oracle: String,
    /// What disagreed, with enough context to debug from the replay.
    pub detail: String,
}

impl Failure {
    /// Creates a failure.
    pub fn new(oracle: impl Into<String>, detail: impl Into<String>) -> Self {
        Failure { oracle: oracle.into(), detail: detail.into() }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oracle {} failed: {}", self.oracle, self.detail)
    }
}

/// FNV-1a over the canonical encodings of a label sequence — a compact
/// output fingerprint for differential comparisons and failure messages.
pub fn fingerprint<L: Label>(labels: &[L]) -> u64 {
    let mut bytes = Vec::new();
    for l in labels {
        l.encode(&mut bytes);
        bytes.push(0xFE); // separator so encodings cannot smear
    }
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The `view-ids` differential: at `depth`, two of `nodes` get equal
/// [`ViewIds`] ids in `g` iff their [`ViewTree`] canonical encodings are
/// equal.
///
/// # Errors
///
/// A `view-ids` [`Failure`] naming two nodes the ids and the bytes
/// disagree on, or a view error from either side.
pub fn check_view_ids<L: Label>(
    g: &LabeledGraph<L>,
    depth: usize,
    nodes: impl IntoIterator<Item = NodeId>,
) -> Result<(), Failure> {
    let fail = |detail: String| Failure::new("view-ids", detail);
    let layers = ViewIds::new().intern(g, depth);
    // The first node seen per view (with its id), and per id.
    let mut by_bytes = HashMap::new();
    let mut by_id = HashMap::new();
    for v in nodes {
        let bytes = ViewTree::build(g, v, depth).map_err(|e| fail(e.to_string()))?;
        let id = layers.id(g.graph(), v).map_err(|e| fail(e.to_string()))?;
        let (first_id, w) = *by_bytes.entry(bytes.canonical_encoding()).or_insert((id, v));
        let x = *by_id.entry(id).or_insert(v);
        if first_id != id {
            return Err(fail(format!(
                "nodes {} and {} have equal depth-{depth} views but different ids",
                w.index(),
                v.index()
            )));
        }
        if x != w {
            return Err(fail(format!(
                "nodes {} and {} share an id but have different depth-{depth} views",
                x.index(),
                w.index()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_separates_groupings() {
        // Same bytes, different grouping ⇒ different fingerprints.
        let a = fingerprint(&[vec![1u8, 2], vec![3u8]]);
        let b = fingerprint(&[vec![1u8], vec![2u8, 3]]);
        assert_ne!(a, b);
        assert_eq!(fingerprint(&[true, false]), fingerprint(&[true, false]));
    }

    #[test]
    fn failure_display_names_the_oracle() {
        let f = Failure::new("port-invariance", "node 3 flipped");
        assert!(f.to_string().contains("port-invariance"));
        assert!(f.to_string().contains("node 3"));
    }
}
