use std::error::Error;
use std::fmt;

use routing_graph::VertexId;

/// Errors surfaced while routing a message through a scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteError {
    /// The scheme has no routing information for this (source, destination)
    /// situation at the current vertex; indicates a preprocessing bug.
    MissingInformation {
        /// Vertex at which the decision failed.
        at: VertexId,
        /// Human-readable description of what was missing.
        what: String,
    },
    /// The scheme asked to forward on a port that does not exist at the
    /// current vertex.
    InvalidPort {
        /// Vertex at which the bad port was used.
        at: VertexId,
        /// The offending port index.
        port: u32,
    },
    /// The message exceeded the hop budget without being delivered
    /// (forwarding loop or unreachable destination).
    HopBudgetExceeded {
        /// The hop budget that was exhausted.
        budget: usize,
    },
    /// The scheme declared delivery at a vertex that is not the destination.
    DeliveredAtWrongVertex {
        /// Where the message was (incorrectly) delivered.
        at: VertexId,
        /// The true destination.
        destination: VertexId,
    },
    /// The message reached a vertex the scheme has no routing table for: a
    /// port of a graph other than the one the scheme was built on (a stale
    /// table under churn) led to an id `>= scheme.n()`.
    UnknownVertex {
        /// The vertex outside the scheme's vertex space.
        at: VertexId,
    },
    /// The destination label does not belong to a vertex of this graph, or is
    /// otherwise malformed for this scheme.
    BadLabel {
        /// Description of the problem.
        what: String,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::MissingInformation { at, what } => {
                write!(f, "missing routing information at {at}: {what}")
            }
            RouteError::InvalidPort { at, port } => {
                write!(f, "invalid port {port} at {at}")
            }
            RouteError::HopBudgetExceeded { budget } => {
                write!(f, "hop budget of {budget} exceeded before delivery")
            }
            RouteError::DeliveredAtWrongVertex { at, destination } => {
                write!(f, "delivered at {at} but destination is {destination}")
            }
            RouteError::UnknownVertex { at } => write!(f, "no routing table at {at}"),
            RouteError::BadLabel { what } => write!(f, "bad destination label: {what}"),
        }
    }
}

impl Error for RouteError {}

// Routing errors cross shard boundaries in the serving layer (a shard
// worker reports them back over a channel), so `Send + Sync + 'static` is
// part of the contract — checked at compile time, not merely by a test.
const fn assert_send_sync_static<T: Send + Sync + 'static>() {}
const _: () = assert_send_sync_static::<RouteError>();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RouteError::MissingInformation { at: VertexId(3), what: "no ball entry".into() };
        assert!(e.to_string().contains("v3"));
        assert!(e.to_string().contains("no ball entry"));
        let e = RouteError::InvalidPort { at: VertexId(1), port: 9 };
        assert!(e.to_string().contains("port 9"));
        let e = RouteError::HopBudgetExceeded { budget: 10 };
        assert!(e.to_string().contains("10"));
        let e = RouteError::DeliveredAtWrongVertex { at: VertexId(1), destination: VertexId(2) };
        assert!(e.to_string().contains("v2"));
        let e = RouteError::UnknownVertex { at: VertexId(7) };
        assert!(e.to_string().contains("v7"));
        let e = RouteError::BadLabel { what: "unknown vertex".into() };
        assert!(e.to_string().contains("unknown vertex"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RouteError>();
    }
}
