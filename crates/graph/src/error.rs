use std::error::Error;
use std::fmt;

/// Errors raised when constructing graphs or workloads.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GraphError {
    /// An edge endpoint was outside `0..n`.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// Number of nodes in the graph.
        n: usize,
    },
    /// A self-loop was supplied (the model works on simple graphs).
    SelfLoop {
        /// The node with the loop.
        node: usize,
    },
    /// An arc weighed `u64::MAX`, the semirings' ∞ sentinel: no finite
    /// element stands for it, so the graph refuses it at input.
    InfiniteWeight {
        /// The arc's tail.
        u: usize,
        /// The arc's head.
        v: usize,
    },
    /// A generator was called with parameters outside its domain.
    InvalidParameter {
        /// Human-readable description of the violated constraint.
        what: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} is outside the graph 0..{n}")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::InfiniteWeight { u, v } => {
                write!(f, "arc {u} -> {v} weighs u64::MAX, the infinity sentinel")
            }
            GraphError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(GraphError::SelfLoop { node: 3 }.to_string().contains('3'));
        assert!(GraphError::NodeOutOfRange { node: 8, n: 4 }.to_string().contains("0..4"));
        assert!(GraphError::InfiniteWeight { u: 2, v: 5 }.to_string().contains("2 -> 5"));
    }
}
