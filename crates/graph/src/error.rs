use std::error::Error;
use std::fmt;

/// Errors produced while constructing or validating a [`crate::Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// An endpoint index was outside the declared vertex range.
    VertexOutOfRange {
        /// The offending vertex index.
        vertex: usize,
        /// The number of vertices in the graph under construction.
        n: usize,
    },
    /// A self loop `(u, u)` was added; the routing model assumes simple graphs.
    SelfLoop {
        /// The vertex with the self loop.
        vertex: usize,
    },
    /// An edge weight of zero was supplied; the paper assumes strictly
    /// positive weights (`w : E -> R+`).
    ZeroWeight {
        /// One endpoint of the offending edge.
        u: usize,
        /// The other endpoint of the offending edge.
        v: usize,
    },
    /// The graph is not connected but the operation requires connectivity.
    Disconnected,
    /// The operation needs every edge to have weight 1 (the batch BFS of
    /// [`crate::scratch::BfsBatch`]).
    NotUnitWeight,
    /// A batch search was given more sources than it has bit lanes.
    BatchTooWide {
        /// The number of sources given.
        sources: usize,
        /// The most one batch carries.
        width: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range for graph with {n} vertices")
            }
            GraphError::SelfLoop { vertex } => write!(f, "self loop at vertex {vertex}"),
            GraphError::ZeroWeight { u, v } => {
                write!(f, "edge ({u}, {v}) has zero weight; weights must be positive")
            }
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::NotUnitWeight => write!(f, "the batch search needs unit edge weights"),
            GraphError::BatchTooWide { sources, width } => {
                write!(f, "{sources} sources in one batch; a batch carries at most {width}")
            }
        }
    }
}

impl Error for GraphError {}

// Graph errors can surface from rebuild workers on background threads in
// the serving layer, so `Send + Sync + 'static` is part of the contract —
// checked at compile time, not merely by a test.
const fn assert_send_sync_static<T: Send + Sync + 'static>() {}
const _: () = assert_send_sync_static::<GraphError>();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = GraphError::VertexOutOfRange { vertex: 7, n: 3 };
        assert!(e.to_string().contains("vertex 7"));
        let e = GraphError::SelfLoop { vertex: 2 };
        assert!(e.to_string().contains("self loop"));
        let e = GraphError::ZeroWeight { u: 1, v: 2 };
        assert!(e.to_string().contains("zero weight"));
        assert_eq!(GraphError::Disconnected.to_string(), "graph is not connected");
        assert!(GraphError::NotUnitWeight.to_string().contains("unit edge weights"));
        let e = GraphError::BatchTooWide { sources: 65, width: 64 };
        assert!(e.to_string().contains("65 sources"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
