//! The [`RoutingScheme`] trait: the contract every compact routing scheme in
//! this workspace implements.

use routing_graph::{Port, VertexId};

use crate::RouteError;

/// A local routing decision made at a vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The message has reached its destination.
    Deliver,
    /// Forward the message on the given local port.
    Forward(Port),
}

/// Types that can report their size in `O(log n)`-bit machine words.
///
/// Headers implement this so the simulator can track the largest header a
/// scheme attaches to a message — one of the quantities the paper bounds
/// (e.g. `O((1/ε) log n)`-bit headers in Lemma 7).
pub trait HeaderSize {
    /// Size of the value in `O(log n)`-bit words.
    fn words(&self) -> usize;
}

impl HeaderSize for () {
    fn words(&self) -> usize {
        0
    }
}

/// A labeled compact routing scheme in the fixed-port model.
///
/// Implementations hold *all* per-vertex routing tables (they are built by a
/// centralized preprocessing phase, as in the paper), but the routing-phase
/// methods must only consult the table of the vertex passed to them, the
/// message header, and the destination label — never global state. The
/// simulator and the tests treat violations of this discipline as bugs.
///
/// Space accounting is in `O(log n)`-bit words: every stored vertex id,
/// distance, port or tree-routing word counts as one unit, so that the
/// `Õ(·)` table-size comparisons in the paper's Table 1 can be made on equal
/// footing between schemes.
pub trait RoutingScheme {
    /// The label attached to a destination (computed in preprocessing).
    ///
    /// `'static` so the label can cross the type-erased
    /// [`crate::erased::DynScheme`] boundary, and `Send + Sync` so an erased
    /// label can cross a *shard* boundary in the serving layer (a query
    /// dispatcher erases labels on one thread and the owning shard consumes
    /// them on another). Every label is owned data — vertex ids, distances,
    /// tree words — so both bounds cost nothing.
    type Label: Clone + Send + Sync + 'static;
    /// The mutable header a message carries. `'static` and `Send` for the
    /// same reasons as [`RoutingScheme::Label`] (headers are created and
    /// mutated on one shard thread at a time, so `Sync` is not required).
    type Header: Clone + HeaderSize + Send + 'static;

    /// Scheme name used in harness output.
    ///
    /// By convention this is the scheme's key in the facade's
    /// `SchemeRegistry` (e.g. `"warmup"`, `"tz2"`), so `--schemes` flags,
    /// registry lookups and harness output can never drift apart. Schemes
    /// whose name depends on a parameter cache the formatted string at
    /// build time.
    fn name(&self) -> &str;

    /// Number of vertices of the preprocessed graph.
    fn n(&self) -> usize;

    /// The label of vertex `v`.
    fn label_of(&self, v: VertexId) -> Self::Label;

    /// Creates the header for a message injected at `source` towards the
    /// destination described by `dest`.
    ///
    /// # Errors
    ///
    /// Returns an error if the label is malformed or the scheme is missing
    /// preprocessing data for this pair (which would indicate a bug).
    fn init_header(&self, source: VertexId, dest: &Self::Label) -> Result<Self::Header, RouteError>;

    /// The local routing decision at vertex `at`.
    ///
    /// # Errors
    ///
    /// Returns an error if the local table lacks the information the scheme
    /// expects (a preprocessing bug) or the label is malformed.
    fn decide(
        &self,
        at: VertexId,
        header: &mut Self::Header,
        dest: &Self::Label,
    ) -> Result<Decision, RouteError>;

    /// Size of the routing table stored at `v`, in `O(log n)`-bit words.
    fn table_words(&self, v: VertexId) -> usize;

    /// Size of the label of `v`, in `O(log n)`-bit words.
    fn label_words(&self, v: VertexId) -> usize;

    /// The label of `v` with its size, as the erased surface asks for both
    /// per label. A scheme whose `label_words` builds the label to count it
    /// overrides this to build it once.
    fn label_with_words(&self, v: VertexId) -> (Self::Label, usize) {
        (self.label_of(v), self.label_words(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_header_has_zero_words() {
        assert_eq!(().words(), 0);
    }

    #[test]
    fn decision_equality() {
        assert_eq!(Decision::Deliver, Decision::Deliver);
        assert_ne!(Decision::Deliver, Decision::Forward(Port(0)));
        assert_eq!(Decision::Forward(Port(2)), Decision::Forward(Port(2)));
    }
}
