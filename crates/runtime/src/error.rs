//! Error type for the runtime.

use std::error::Error;
use std::fmt;

use anonet_graph::NodeId;

/// Errors produced while executing an anonymous algorithm.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum RuntimeError {
    /// A node attempted to overwrite its irrevocable output with a
    /// different value — an algorithm bug.
    OutputConflict {
        /// The offending node.
        node: NodeId,
        /// The round in which the conflicting write happened.
        round: usize,
    },
    /// The network graph failed validation (e.g. not connected).
    InvalidNetwork {
        /// Human-readable description.
        reason: String,
    },
    /// A [`RoundAdversary`](crate::RoundAdversary) emitted a schedule that
    /// is not a permutation of the node set.
    InvalidSchedule {
        /// The round whose schedule was malformed.
        round: usize,
        /// Human-readable description.
        reason: String,
    },
    /// A bit assignment did not cover every node of the graph it was
    /// used with.
    AssignmentMismatch {
        /// Nodes covered by the assignment.
        assignment_nodes: usize,
        /// Nodes in the graph.
        graph_nodes: usize,
    },
    /// A canonical node order was not a permutation of the graph's nodes.
    InvalidOrder {
        /// Human-readable description.
        reason: String,
    },
    /// A canonical search was asked to enumerate a code space of 64 or
    /// more bits.
    SearchSpaceTooLarge {
        /// Bits the code space would need.
        bits: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::OutputConflict { node, round } => {
                write!(f, "node {node} attempted to change its irrevocable output in round {round}")
            }
            RuntimeError::InvalidNetwork { reason } => {
                write!(f, "invalid network: {reason}")
            }
            RuntimeError::InvalidSchedule { round, reason } => {
                write!(f, "invalid adversary schedule in round {round}: {reason}")
            }
            RuntimeError::AssignmentMismatch { assignment_nodes, graph_nodes } => {
                write!(
                    f,
                    "bit assignment covers {assignment_nodes} nodes but the graph has {graph_nodes}"
                )
            }
            RuntimeError::InvalidOrder { reason } => write!(f, "invalid node order: {reason}"),
            RuntimeError::SearchSpaceTooLarge { bits } => {
                write!(f, "a search space of 2^{bits} assignments is not enumerable")
            }
        }
    }
}

impl Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RuntimeError::OutputConflict { node: NodeId::new(3), round: 7 };
        assert!(e.to_string().contains("v3"));
        assert!(e.to_string().contains("round 7"));
        let e = RuntimeError::AssignmentMismatch { assignment_nodes: 2, graph_nodes: 5 };
        assert!(e.to_string().contains('2') && e.to_string().contains('5'));
    }
}
