//! Immutable scheme snapshots and the epoch-based publication cell.
//!
//! A [`SchemeSnapshot`] bundles everything one routed query needs — the
//! graph (ports, weights) and the built scheme (tables, labels) — behind
//! `Arc`s, tagged with the **epoch** at which it was published. Snapshots
//! are immutable by construction: `DynScheme` is a read-only surface and
//! `Send + Sync` by contract (see `routing_model::erased`), so any number
//! of lanes route through one snapshot with no synchronization beyond the
//! initial `Arc` clone.
//!
//! The [`EpochCell`] is the single mutable point of the serving layer: a
//! rebuilt table is published as a whole new snapshot with the next epoch
//! number. A batch that loaded the old snapshot keeps routing it (the
//! `Arc` keeps the retired tables alive), and every answer carries the
//! epoch of the snapshot that produced it — which is what the concurrency
//! stress test keys on: an answer must be *exactly* the answer its epoch
//! gives, never a blend of two.

use std::sync::{Arc, RwLock};

use routing_graph::Graph;
use routing_model::DynScheme;

/// An immutable, shareable unit of serving state: `(graph, scheme)` at a
/// publication epoch.
#[derive(Clone)]
pub struct SchemeSnapshot {
    graph: Arc<Graph>,
    scheme: Arc<dyn DynScheme>,
    epoch: u64,
}

impl SchemeSnapshot {
    /// The graph the scheme was preprocessed for.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The built scheme, through the object-safe surface.
    pub fn scheme(&self) -> &dyn DynScheme {
        self.scheme.as_ref()
    }

    /// The epoch this snapshot was published at (1-based; epochs are
    /// assigned by the [`EpochCell`] in publication order).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl std::fmt::Debug for SchemeSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchemeSnapshot")
            .field("scheme", &self.scheme.name())
            .field("n", &self.graph.n())
            .field("epoch", &self.epoch)
            .finish()
    }
}

/// The swap point: holds the currently published [`SchemeSnapshot`] and
/// assigns monotone epochs to new publications.
///
/// Readers ([`EpochCell::load`]) take the read lock just long enough to
/// clone the snapshot's `Arc`s; the writer ([`EpochCell::publish`]) takes
/// the write lock just long enough to store new ones — so a swap never
/// blocks traffic for longer than one pointer exchange, and no reader ever
/// observes a half-swapped state.
pub struct EpochCell {
    slot: RwLock<SchemeSnapshot>,
}

impl EpochCell {
    /// A cell whose first published snapshot is `(graph, scheme)` at
    /// epoch 1.
    pub fn new(graph: Arc<Graph>, scheme: Arc<dyn DynScheme>) -> Self {
        EpochCell { slot: RwLock::new(SchemeSnapshot { graph, scheme, epoch: 1 }) }
    }

    /// The currently published snapshot (cheap: two `Arc` clones under the
    /// read lock).
    ///
    /// Poison-tolerant: the slot always holds a complete snapshot — the
    /// writer only replaces the whole value under the lock — so a publisher
    /// that panicked elsewhere never leaves a torn state, and readers keep
    /// serving the last published epoch.
    pub fn load(&self) -> SchemeSnapshot {
        routing_obs::counters::SERVE_SNAPSHOT_LOADS.inc();
        self.slot.read().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// The current epoch without cloning the snapshot. Poison-tolerant for
    /// the same reason as [`EpochCell::load`].
    pub fn epoch(&self) -> u64 {
        self.slot.read().unwrap_or_else(|p| p.into_inner()).epoch
    }

    /// Publishes a new snapshot, returning its epoch (previous epoch + 1).
    ///
    /// The write lock is held only for the pointer store; readers that
    /// loaded the previous snapshot keep routing it until their next
    /// `load` — that is the designed behavior, not a race: a batch is
    /// always answered under one single epoch.
    pub fn publish(&self, graph: Arc<Graph>, scheme: Arc<dyn DynScheme>) -> u64 {
        routing_obs::counters::SERVE_EPOCH_SWAPS.inc();
        // Poison-tolerant like `load`: the whole-value store below cannot
        // observe or create a torn snapshot.
        let mut slot = self.slot.write().unwrap_or_else(|p| p.into_inner());
        let epoch = slot.epoch + 1;
        *slot = SchemeSnapshot { graph, scheme, epoch };
        epoch
    }
}

impl std::fmt::Debug for EpochCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochCell").field("current", &self.load()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routing_graph::{generators, Port, VertexId};
    use routing_model::scheme::{Decision, HeaderSize, RoutingScheme};
    use routing_model::RouteError;

    /// A trivial scheme whose identity is its name, to tell snapshots apart.
    struct Named(String);

    #[derive(Clone)]
    struct NoHeader;
    impl HeaderSize for NoHeader {
        fn words(&self) -> usize {
            0
        }
    }

    impl RoutingScheme for Named {
        type Label = VertexId;
        type Header = NoHeader;
        fn name(&self) -> &str {
            &self.0
        }
        fn n(&self) -> usize {
            3
        }
        fn label_of(&self, v: VertexId) -> VertexId {
            v
        }
        fn init_header(&self, _: VertexId, _: &VertexId) -> Result<NoHeader, RouteError> {
            Ok(NoHeader)
        }
        fn decide(&self, _: VertexId, _: &mut NoHeader, _: &VertexId) -> Result<Decision, RouteError> {
            Ok(Decision::Forward(Port(0)))
        }
        fn table_words(&self, _: VertexId) -> usize {
            0
        }
        fn label_words(&self, _: VertexId) -> usize {
            1
        }
    }

    fn cell() -> EpochCell {
        let g = Arc::new(generators::path(3));
        EpochCell::new(g, Arc::new(Named("first".into())))
    }

    #[test]
    fn epochs_start_at_one_and_increment_per_publish() {
        let c = cell();
        assert_eq!(c.epoch(), 1);
        assert_eq!(c.load().epoch(), 1);
        assert_eq!(c.load().scheme().name(), "first");

        let g = Arc::new(generators::path(3));
        let e = c.publish(g.clone(), Arc::new(Named("second".into())));
        assert_eq!(e, 2);
        assert_eq!(c.epoch(), 2);
        assert_eq!(c.load().scheme().name(), "second");

        let e = c.publish(g, Arc::new(Named("third".into())));
        assert_eq!(e, 3);
    }

    #[test]
    fn loaded_snapshots_outlive_later_publishes() {
        let c = cell();
        let old = c.load();
        let g = Arc::new(generators::path(3));
        c.publish(g, Arc::new(Named("new".into())));
        // The retired snapshot is fully usable: its Arcs keep it alive.
        assert_eq!(old.epoch(), 1);
        assert_eq!(old.scheme().name(), "first");
        assert_eq!(old.graph().n(), 3);
        assert_eq!(c.load().epoch(), 2);
    }

    #[test]
    fn debug_output_names_the_scheme_and_epoch() {
        let c = cell();
        let s = format!("{c:?}");
        assert!(s.contains("first") && s.contains("epoch: 1"), "{s}");
    }
}
