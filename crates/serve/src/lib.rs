//! A concurrent query-serving engine over immutable scheme snapshots, with
//! epoch-based hot swap — the "many routers, one control plane" deployment
//! story for the compact routing schemes this workspace builds.
//!
//! The paper's schemes are *preprocessing* artifacts: once built, routing
//! is a pure read-only function of `(table, header, label)`. This crate
//! turns that observation into a serving architecture:
//!
//! - [`SchemeSnapshot`] — an immutable `(graph, scheme)` pair behind
//!   `Arc`s, tagged with a publication epoch. `DynScheme` is `Send + Sync`
//!   by contract, so snapshots are shared freely across threads.
//! - [`EpochCell`] — the single mutable point: publishing a rebuilt scheme
//!   is one pointer swap under a lock held for nanoseconds; readers keep
//!   routing the snapshot they loaded (its `Arc`s keep it alive) and pick
//!   up the new epoch at their next batch.
//! - [`ShardedEngine`] — `shards` lanes route one batch: the calling thread
//!   and `shards − 1` resident helpers claim fixed-size chunks of the
//!   dest-sorted batch by atomic index, under one snapshot. A lane walks
//!   its chunk a few queries at a time in lockstep
//!   ([`routing_model::DynScheme::walk_many`]), one typed label per run of
//!   equal destinations, and allocates nothing per query for every scheme
//!   of the default registry. Latency is chained per completed query. The
//!   caller routes too, so the worst case is the plain loop.
//! - [`ZipfWorkload`] — a seeded, byte-reproducible Zipf-skewed load
//!   generator for stress tests and benches.
//! - [`LatencyHistogram`] — HDR-style log-linear histogram backing the
//!   per-lane p50/p99/p999 latency accounting in [`ShardStats`]
//!   (re-exported from `routing-obs`, the workspace telemetry crate, which
//!   also hosts the serving-path counters this crate increments:
//!   label-cache hits, epoch swaps, snapshot loads).
//!
//! Every [`RouteAnswer`] carries the epoch of the snapshot that produced
//! it and is bit-identical to direct single-threaded simulation under that
//! snapshot — the property the crate's equivalence proptests and the
//! epoch-swap stress test (`tests/`) pin down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod load;
pub mod snapshot;

pub use engine::{EngineConfig, RouteAnswer, ServeError, ShardStats, ShardedEngine};
pub use load::ZipfWorkload;
pub use routing_obs::latency::LatencyHistogram;
pub use snapshot::{EpochCell, SchemeSnapshot};
