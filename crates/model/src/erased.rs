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
//!
//! # One typed walk
//!
//! A whole query is one virtual call, [`DynScheme::walk`]: the adapter runs
//! the simulator's hop loop monomorphised for the concrete scheme, with the
//! typed label and header on the stack, so no `Box` is made per query. A
//! batch is one virtual call too, [`DynScheme::walk_many`]: the same hop
//! loop with a few walks in flight and one typed label per run of equal
//! destinations. The per-hop [`DynScheme::init_header`] /
//! [`DynScheme::decide`] pair stays for callers that step a message
//! themselves; it boxes one header per call.

use std::any::Any;

use routing_graph::{Graph, VertexId};

use crate::scheme::{Decision, HeaderSize, RoutingScheme};
use crate::simulator::{self, LeanOutcome};
use crate::RouteError;

/// A destination label that has been type-erased for [`DynScheme`].
///
/// Carries the label's size in `O(log n)`-bit words next to the opaque
/// payload, so space accounting survives erasure, and — for a label a
/// scheme produced — a fingerprint of that scheme's name: registry keys may
/// share a label type (`tz2` and `tz3`; `warmup`, `thm13` and `thm15`), and
/// a label of one is still [`RouteError::BadLabel`] to the others.
pub struct ErasedLabel {
    inner: Box<dyn ClonableAny>,
    words: usize,
    /// [`scheme_fingerprint`] of the producing scheme's name; `None` for a
    /// label built with [`ErasedLabel::new`], which any scheme of its type
    /// accepts.
    scheme: Option<u64>,
}

impl ErasedLabel {
    /// Erases a typed label, recording its size in words. The label is tied
    /// to no scheme: every scheme with label type `L` accepts it.
    ///
    /// `Send + Sync` on the payload makes the erased label itself
    /// `Send + Sync`, so the serving layer can erase a label on a
    /// dispatcher thread and route with it on a shard thread.
    pub fn new<L: Clone + Send + Sync + 'static>(label: L, words: usize) -> Self {
        ErasedLabel { inner: Box::new(label), words, scheme: None }
    }

    /// The typed label, if this label was produced by a scheme with label
    /// type `L`.
    pub fn downcast_ref<L: 'static>(&self) -> Option<&L> {
        self.inner.as_any().downcast_ref::<L>()
    }

    /// The typed label `scheme` may route with: of its label type, and
    /// produced by `scheme` or by no scheme at all.
    #[inline]
    pub(crate) fn typed_for<L: 'static>(&self, scheme: &str) -> Result<&L, RouteError> {
        if self.scheme.is_some_and(|f| f != scheme_fingerprint(scheme)) {
            return Err(foreign_label(scheme));
        }
        self.downcast_ref::<L>().ok_or_else(|| foreign_label(scheme))
    }

    /// Size of the erased label in `O(log n)`-bit words (as reported by
    /// [`RoutingScheme::label_words`] for the labelled vertex).
    pub fn words(&self) -> usize {
        self.words
    }
}

impl Clone for ErasedLabel {
    fn clone(&self) -> Self {
        ErasedLabel { inner: self.inner.clone_box(), words: self.words, scheme: self.scheme }
    }
}

/// FNV-1a over a scheme's name: what an [`ErasedLabel`] remembers of the
/// scheme that produced it.
#[inline]
fn scheme_fingerprint(name: &str) -> u64 {
    let step = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    name.bytes().fold(0xcbf2_9ce4_8422_2325, step)
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

    /// Routes one message from `source` to `dest` through the hop loop of
    /// [`crate::simulator`], monomorphised for the concrete scheme: the
    /// typed label and header live on the stack for the whole walk.
    ///
    /// `label` is `dest`'s label when the caller already holds one
    /// (checked once, up front); `None` takes it from the typed
    /// [`RoutingScheme::label_of`]. `path`, when given, gets every vertex
    /// the message steps onto appended (the source is the caller's to
    /// push). Every `simulate*` entry point is this call.
    ///
    /// # Errors
    ///
    /// As [`crate::simulate`]; a supplied label of another scheme is
    /// [`RouteError::BadLabel`].
    fn walk(
        &self,
        g: &Graph,
        source: VertexId,
        dest: VertexId,
        label: Option<&ErasedLabel>,
        max_hops: usize,
        path: Option<&mut Vec<VertexId>>,
    ) -> Result<LeanOutcome, RouteError>;

    /// Routes a batch of `(source, destination)` jobs through the same hop
    /// loop, monomorphised for the concrete scheme, with a few walks in
    /// flight at once: each is advanced one hop in turn, so the cache misses
    /// of one overlap the work of the others. Every job's result — exactly
    /// what [`DynScheme::walk`] returns for it with no label supplied — is
    /// passed to `out` with the job's index, in the order the walks end.
    ///
    /// Labels are typed, from [`RoutingScheme::label_of`], and one is reused
    /// while consecutive jobs share a destination: sort the jobs by
    /// destination to make one label per destination. `paths`, when given,
    /// holds one path per job; each is cleared and gets the job's whole
    /// path, source first (jobs beyond `paths.len()` are not walked). The
    /// lean batch allocates nothing for any scheme of the default registry.
    fn walk_many(
        &self,
        g: &Graph,
        jobs: &[(VertexId, VertexId)],
        max_hops: usize,
        paths: Option<&mut [Vec<VertexId>]>,
        out: &mut dyn FnMut(usize, Result<LeanOutcome, RouteError>),
    );

    /// Creates the header for a message injected at `source` towards the
    /// destination described by `dest`.
    ///
    /// # Errors
    ///
    /// As [`RoutingScheme::init_header`]; additionally rejects (as
    /// [`RouteError::BadLabel`]) a label that was produced by a different
    /// scheme.
    fn init_header(&self, source: VertexId, dest: &ErasedLabel) -> Result<ErasedHeader, RouteError>;

    /// The local routing decision at vertex `at`.
    ///
    /// `dest` is the label [`DynScheme::init_header`] accepted; per hop only
    /// its type is checked.
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

    /// Size of the routing table stored at `v` in `O(log n)`-bit words, 0 outside `0..n`.
    fn table_words(&self, v: VertexId) -> usize;

    /// Size of the label of `v` in `O(log n)`-bit words, 0 outside `0..n`.
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
        let scheme = Some(scheme_fingerprint(RoutingScheme::name(self)));
        ErasedLabel { inner: Box::new(label), words, scheme }
    }

    #[inline]
    fn walk(
        &self,
        g: &Graph,
        source: VertexId,
        dest: VertexId,
        label: Option<&ErasedLabel>,
        max_hops: usize,
        path: Option<&mut Vec<VertexId>>,
    ) -> Result<LeanOutcome, RouteError> {
        match path {
            Some(path) => simulator::walk(g, self, source, dest, label, max_hops, path),
            None => simulator::walk(g, self, source, dest, label, max_hops, &mut ()),
        }
    }

    fn walk_many(
        &self,
        g: &Graph,
        jobs: &[(VertexId, VertexId)],
        max_hops: usize,
        paths: Option<&mut [Vec<VertexId>]>,
        out: &mut dyn FnMut(usize, Result<LeanOutcome, RouteError>),
    ) {
        match paths {
            Some(paths) => {
                let jobs = jobs.get(..paths.len()).unwrap_or(jobs);
                simulator::walk_many(g, self, jobs, max_hops, paths, out);
            }
            None => simulator::walk_many(g, self, jobs, max_hops, &mut (), out),
        }
    }

    fn init_header(&self, source: VertexId, dest: &ErasedLabel) -> Result<ErasedHeader, RouteError> {
        let label = dest.typed_for::<S::Label>(RoutingScheme::name(self))?;
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
        if v.index() < RoutingScheme::n(self) { RoutingScheme::table_words(self, v) } else { 0 }
    }

    fn label_words(&self, v: VertexId) -> usize {
        if v.index() < RoutingScheme::n(self) { RoutingScheme::label_words(self, v) } else { 0 }
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
