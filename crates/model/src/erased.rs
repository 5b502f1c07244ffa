//! Object-safe type erasure for routing schemes: [`DynScheme`].
//!
//! [`crate::RoutingScheme`] is deliberately *not* object safe — its
//! associated `Label`/`Header` types let every scheme carry exactly the
//! routing state the paper assigns it, with no common denominator forced on
//! them. The price is that nothing can hold "a scheme" without naming its
//! concrete type: before this module existed, every harness binary carried
//! its own per-scheme `match` and every driver (`simulate`, the evaluators,
//! the churn experiment) was generic plumbing monomorphized per scheme.
//!
//! [`DynScheme`] is the erased twin: the same five routing-phase operations
//! over word-accounted [`ErasedLabel`]/[`ErasedHeader`] values, object safe,
//! so a `Box<dyn DynScheme>` built by the facade's `SchemeRegistry` can flow
//! through every driver in the workspace. A blanket adapter implements
//! `DynScheme` for **every** `RoutingScheme` automatically; the adapter only
//! wraps and unwraps — every decision is made by the typed scheme's own
//! code, so routing through the erased surface is bit-identical to routing
//! through the typed one (the erasure-fidelity property tests in
//! `tests/properties.rs` pin this down per registered scheme).
//!
//! # Size accounting across the boundary
//!
//! The paper measures labels and headers in `O(log n)`-bit machine words,
//! and the erased layer preserves that accounting rather than re-deriving
//! it: an [`ErasedLabel`] carries the word count the typed scheme reports
//! for the labelled vertex, and [`ErasedHeader`] implements [`HeaderSize`]
//! by delegating to the live typed header — so the simulator's
//! `max_header_words` tracking sees exactly the numbers it saw before
//! erasure, hop by hop, even for schemes whose header grows in flight.
//!
//! The payload itself crosses the boundary as an opaque owned value
//! (downcast by the blanket adapter), not as a serialized word vector:
//! encoding every label family into words would buy no generality here —
//! the word *count* is what the paper's tables compare — and would put a
//! codec between the typed scheme and its own data on the hot path.

use std::any::Any;

use routing_graph::VertexId;

use crate::scheme::{Decision, HeaderSize, RoutingScheme};
use crate::RouteError;

/// A destination label that has been type-erased for [`DynScheme`].
///
/// Carries the label's size in `O(log n)`-bit words next to the opaque
/// payload, so space accounting survives erasure.
pub struct ErasedLabel {
    inner: Box<dyn ClonableAny>,
    words: usize,
}

impl ErasedLabel {
    /// Erases a typed label, recording its size in words.
    ///
    /// `Send + Sync` on the payload makes the erased label itself
    /// `Send + Sync`, so the serving layer can erase a label on a
    /// dispatcher thread and route with it on a shard thread.
    pub fn new<L: Clone + Send + Sync + 'static>(label: L, words: usize) -> Self {
        ErasedLabel { inner: Box::new(label), words }
    }

    /// The typed label, if this label was produced by a scheme with label
    /// type `L`.
    pub fn downcast_ref<L: 'static>(&self) -> Option<&L> {
        self.inner.as_any().downcast_ref::<L>()
    }

    /// Size of the erased label in `O(log n)`-bit words (as reported by
    /// [`RoutingScheme::label_words`] for the labelled vertex).
    pub fn words(&self) -> usize {
        self.words
    }
}

impl Clone for ErasedLabel {
    fn clone(&self) -> Self {
        ErasedLabel { inner: self.inner.clone_box(), words: self.words }
    }
}

impl std::fmt::Debug for ErasedLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ErasedLabel").field("words", &self.words).finish_non_exhaustive()
    }
}

/// A message header that has been type-erased for [`DynScheme`].
///
/// Implements [`HeaderSize`] by asking the live typed header, so the
/// simulator's largest-header tracking keeps working through the erased
/// surface even when a header grows while the message is in flight.
pub struct ErasedHeader {
    inner: Box<dyn SizedAny>,
}

impl ErasedHeader {
    /// Erases a typed header.
    ///
    /// `Send` on the payload lets a header travel with its message between
    /// threads; headers are only ever mutated by one thread at a time, so
    /// `Sync` is deliberately not required.
    pub fn new<H: HeaderSize + Send + 'static>(header: H) -> Self {
        ErasedHeader { inner: Box::new(header) }
    }

    /// The typed header, if this header was produced by a scheme with
    /// header type `H`.
    pub fn downcast_mut<H: 'static>(&mut self) -> Option<&mut H> {
        self.inner.as_any_mut().downcast_mut::<H>()
    }

    /// Immutable view of the typed header.
    pub fn downcast_ref<H: 'static>(&self) -> Option<&H> {
        self.inner.as_any().downcast_ref::<H>()
    }
}

impl HeaderSize for ErasedHeader {
    fn words(&self) -> usize {
        self.inner.words()
    }
}

impl std::fmt::Debug for ErasedHeader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ErasedHeader").field("words", &HeaderSize::words(self)).finish_non_exhaustive()
    }
}

/// Object-safe view of a routing scheme: the [`RoutingScheme`] contract
/// with the associated types erased behind [`ErasedLabel`]/[`ErasedHeader`].
///
/// Every `RoutingScheme` implements this automatically through a blanket
/// adapter, so `&ConcreteScheme` coerces to `&dyn DynScheme` at any call
/// site and a `Box<dyn DynScheme>` (as produced by the facade's
/// `SchemeRegistry`) is a first-class citizen of every driver: the
/// simulator, the evaluators, the stale-table walker and the churn
/// experiment all consume `&dyn DynScheme`.
///
/// `Send + Sync` are supertraits: a built scheme is an immutable bundle of
/// routing tables, and the serving layer (`routing-serve`) shares one
/// `Arc<dyn DynScheme>` across every shard thread as a read-only snapshot —
/// so shareability is part of the erased contract, not an opt-in. Every
/// concrete scheme in the workspace holds only owned data (vectors, flat
/// CSR tables), so the bounds cost nothing.
pub trait DynScheme: Send + Sync {
    /// Scheme name; equals the scheme's registry key (see
    /// [`RoutingScheme::name`]).
    fn name(&self) -> &str;

    /// Number of vertices of the preprocessed graph.
    fn n(&self) -> usize;

    /// The erased label of vertex `v`.
    fn label_of(&self, v: VertexId) -> ErasedLabel;

    /// Creates the header for a message injected at `source` towards the
    /// destination described by `dest`.
    ///
    /// # Errors
    ///
    /// As [`RoutingScheme::init_header`]; additionally rejects (as
    /// [`RouteError::BadLabel`]) a label that was produced by a different
    /// scheme type.
    fn init_header(&self, source: VertexId, dest: &ErasedLabel) -> Result<ErasedHeader, RouteError>;

    /// The local routing decision at vertex `at`.
    ///
    /// # Errors
    ///
    /// As [`RoutingScheme::decide`]; additionally rejects (as
    /// [`RouteError::BadLabel`]) a label or header that was produced by a
    /// different scheme type.
    fn decide(
        &self,
        at: VertexId,
        header: &mut ErasedHeader,
        dest: &ErasedLabel,
    ) -> Result<Decision, RouteError>;

    /// Size of the routing table stored at `v`, in `O(log n)`-bit words.
    fn table_words(&self, v: VertexId) -> usize;

    /// Size of the label of `v`, in `O(log n)`-bit words.
    fn label_words(&self, v: VertexId) -> usize;
}

impl std::fmt::Debug for dyn DynScheme + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynScheme")
            .field("name", &self.name())
            .field("n", &self.n())
            .finish_non_exhaustive()
    }
}

/// The blanket adapter: every typed scheme is usable through the erased
/// surface, with no per-scheme code. The `Send + Sync` bound mirrors the
/// supertraits of [`DynScheme`]; every scheme in the workspace satisfies it
/// structurally (owned tables, no interior mutability).
impl<S: RoutingScheme + Send + Sync> DynScheme for S {
    fn name(&self) -> &str {
        RoutingScheme::name(self)
    }

    fn n(&self) -> usize {
        RoutingScheme::n(self)
    }

    fn label_of(&self, v: VertexId) -> ErasedLabel {
        let (label, words) = RoutingScheme::label_with_words(self, v);
        ErasedLabel::new(label, words)
    }

    fn init_header(&self, source: VertexId, dest: &ErasedLabel) -> Result<ErasedHeader, RouteError> {
        let label =
            dest.downcast_ref::<S::Label>().ok_or_else(|| foreign_label(RoutingScheme::name(self)))?;
        Ok(ErasedHeader::new(RoutingScheme::init_header(self, source, label)?))
    }

    fn decide(
        &self,
        at: VertexId,
        header: &mut ErasedHeader,
        dest: &ErasedLabel,
    ) -> Result<Decision, RouteError> {
        let label =
            dest.downcast_ref::<S::Label>().ok_or_else(|| foreign_label(RoutingScheme::name(self)))?;
        let header =
            header.downcast_mut::<S::Header>().ok_or_else(|| foreign_header(RoutingScheme::name(self)))?;
        RoutingScheme::decide(self, at, header, label)
    }

    fn table_words(&self, v: VertexId) -> usize {
        RoutingScheme::table_words(self, v)
    }

    fn label_words(&self, v: VertexId) -> usize {
        RoutingScheme::label_words(self, v)
    }
}

// Compile-time proof of the serving-layer contract: erased values and
// erased schemes cross shard boundaries. A regression on any of these
// bounds fails the build of this crate, not a downstream user's.
const fn assert_send_sync<T: Send + Sync + ?Sized>() {}
const fn assert_send<T: Send + ?Sized>() {}
const _: () = assert_send_sync::<ErasedLabel>();
const _: () = assert_send::<ErasedHeader>();
const _: () = assert_send_sync::<dyn DynScheme>();

fn foreign_label(scheme: &str) -> RouteError {
    RouteError::BadLabel { what: format!("label was not produced by scheme {scheme}") }
}

fn foreign_header(scheme: &str) -> RouteError {
    RouteError::BadLabel { what: format!("header was not produced by scheme {scheme}") }
}

/// `Any` + `Clone` for boxed label payloads. `Send + Sync` so erased labels
/// can be shared with (and sent to) shard threads.
trait ClonableAny: Send + Sync {
    fn as_any(&self) -> &dyn Any;
    fn clone_box(&self) -> Box<dyn ClonableAny>;
}

impl<T: Clone + Send + Sync + 'static> ClonableAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn clone_box(&self) -> Box<dyn ClonableAny> {
        Box::new(self.clone())
    }
}

/// `Any` + live word accounting for boxed header payloads. `Send` so a
/// header can travel with its message across threads.
trait SizedAny: Send {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
    fn words(&self) -> usize;
}

impl<T: HeaderSize + Send + 'static> SizedAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn words(&self) -> usize {
        HeaderSize::words(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toys::Words;
    use routing_graph::Port;

    /// A two-vertex scheme whose header counts traversed hops, to exercise
    /// live header-word accounting through the erased surface.
    struct TwoHop;

    impl RoutingScheme for TwoHop {
        type Label = VertexId;
        type Header = Words;
        fn name(&self) -> &str {
            "two-hop"
        }
        fn n(&self) -> usize {
            2
        }
        fn label_of(&self, v: VertexId) -> VertexId {
            v
        }
        fn init_header(&self, _: VertexId, _: &VertexId) -> Result<Words, RouteError> {
            Ok(Words(1))
        }
        fn decide(
            &self,
            at: VertexId,
            header: &mut Words,
            dest: &VertexId,
        ) -> Result<Decision, RouteError> {
            if at == *dest {
                return Ok(Decision::Deliver);
            }
            header.0 += 1;
            Ok(Decision::Forward(Port(0)))
        }
        fn table_words(&self, _: VertexId) -> usize {
            3
        }
        fn label_words(&self, _: VertexId) -> usize {
            1
        }
    }

    #[test]
    fn blanket_adapter_round_trips() {
        let scheme = TwoHop;
        let dyn_scheme: &dyn DynScheme = &scheme;
        assert_eq!(dyn_scheme.name(), "two-hop");
        assert_eq!(dyn_scheme.n(), 2);
        assert_eq!(dyn_scheme.table_words(VertexId(0)), 3);
        assert_eq!(dyn_scheme.label_words(VertexId(1)), 1);

        let label = dyn_scheme.label_of(VertexId(1));
        assert_eq!(label.words(), 1);
        assert_eq!(label.downcast_ref::<VertexId>(), Some(&VertexId(1)));
        let cloned = label.clone();
        assert_eq!(cloned.downcast_ref::<VertexId>(), Some(&VertexId(1)));

        let mut header = dyn_scheme.init_header(VertexId(0), &label).unwrap();
        assert_eq!(HeaderSize::words(&header), 1);
        // Forwarding grows the typed header; the erased view must see it.
        let d = dyn_scheme.decide(VertexId(0), &mut header, &label).unwrap();
        assert_eq!(d, Decision::Forward(Port(0)));
        assert_eq!(HeaderSize::words(&header), 2, "live header growth visible through erasure");
        let d = dyn_scheme.decide(VertexId(1), &mut header, &label).unwrap();
        assert_eq!(d, Decision::Deliver);
    }

    #[test]
    fn foreign_labels_are_rejected_not_misread() {
        let scheme = TwoHop;
        let dyn_scheme: &dyn DynScheme = &scheme;
        // A label erased from a different label type.
        let foreign = ErasedLabel::new(42usize, 1);
        let err = dyn_scheme.init_header(VertexId(0), &foreign).unwrap_err();
        assert!(matches!(err, RouteError::BadLabel { .. }));
        let good = dyn_scheme.label_of(VertexId(1));
        let mut header = dyn_scheme.init_header(VertexId(0), &good).unwrap();
        let err = dyn_scheme.decide(VertexId(0), &mut header, &foreign).unwrap_err();
        assert!(matches!(err, RouteError::BadLabel { .. }));
    }

    #[test]
    fn erased_debug_shows_words() {
        let label = ErasedLabel::new(VertexId(3), 2);
        assert!(format!("{label:?}").contains("words: 2"));
        let header = ErasedHeader::new(Words(5));
        assert!(format!("{header:?}").contains("words: 5"));
    }
}
