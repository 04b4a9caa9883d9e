//! Error type for graph construction and validation.

use std::error::Error;
use std::fmt;

/// Errors produced by graph construction, labeling, and validation.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum GraphError {
    /// An edge endpoint referred to a node index `>= n`.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// The number of nodes in the graph.
        n: usize,
    },
    /// A self-loop `(v, v)` was supplied; the model only considers simple graphs.
    LoopEdge {
        /// The node with the self-loop.
        node: usize,
    },
    /// The same undirected edge was supplied twice.
    ParallelEdge {
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
    },
    /// The graph is not connected; the model only considers connected graphs.
    Disconnected,
    /// A graph with zero nodes was requested.
    Empty,
    /// The number of labels does not match the number of nodes.
    LabelCountMismatch {
        /// Number of labels supplied.
        labels: usize,
        /// Number of nodes in the graph.
        nodes: usize,
    },
    /// A permutation vector was not a bijection on `0..m`.
    InvalidPermutation {
        /// Length of the permutation vector.
        len: usize,
    },
    /// A generator was asked for parameters outside its domain
    /// (e.g. a cycle on fewer than 3 nodes).
    InvalidParameter {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The degrees sum past `u32::MAX`, the range of a graph's adjacency
    /// offsets.
    TooManyHalfEdges {
        /// The half-edge count at which the offsets overflowed.
        half_edges: usize,
    },
    /// A randomized generator exhausted its retry budget without producing
    /// a graph with the requested property (e.g. a connected lift).
    RetriesExhausted {
        /// What was being generated.
        what: String,
        /// How many attempts were made.
        attempts: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node index {node} out of range for graph with {n} nodes")
            }
            GraphError::LoopEdge { node } => {
                write!(f, "self-loop at node {node}; only simple graphs are supported")
            }
            GraphError::ParallelEdge { u, v } => {
                write!(f, "parallel edge ({u}, {v}); only simple graphs are supported")
            }
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::Empty => write!(f, "graph must have at least one node"),
            GraphError::LabelCountMismatch { labels, nodes } => {
                write!(f, "{labels} labels supplied for a graph with {nodes} nodes")
            }
            GraphError::InvalidPermutation { len } => {
                write!(f, "permutation of length {len} is not a bijection on 0..{len}")
            }
            GraphError::InvalidParameter { reason } => {
                write!(f, "invalid parameter: {reason}")
            }
            GraphError::TooManyHalfEdges { half_edges } => {
                write!(f, "{half_edges} half-edges exceed the u32 adjacency offsets")
            }
            GraphError::RetriesExhausted { what, attempts } => {
                write!(f, "failed to generate {what} after {attempts} attempts")
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = vec![
            GraphError::NodeOutOfRange { node: 5, n: 3 },
            GraphError::LoopEdge { node: 1 },
            GraphError::ParallelEdge { u: 0, v: 1 },
            GraphError::Disconnected,
            GraphError::Empty,
            GraphError::LabelCountMismatch { labels: 2, nodes: 3 },
            GraphError::InvalidPermutation { len: 4 },
            GraphError::InvalidParameter { reason: "n < 3".into() },
            GraphError::TooManyHalfEdges { half_edges: 1 << 32 },
            GraphError::RetriesExhausted { what: "a connected lift".into(), attempts: 7 },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(
                msg.chars().next().unwrap().is_lowercase() || msg.starts_with(char::is_numeric)
            );
        }
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn Error> = Box::new(GraphError::Disconnected);
        assert_eq!(e.to_string(), "graph is not connected");
    }
}
