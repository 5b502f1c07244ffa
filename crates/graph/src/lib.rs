//! Graph substrate for the compact-routing reproduction of Roditty & Tov,
//! *New routing techniques and their applications* (PODC 2015).
//!
//! This crate provides everything the routing schemes need from a graph:
//!
//! * [`Graph`] — an undirected graph in CSR form with **fixed port numbers**
//!   (the position of a neighbour in a vertex's adjacency list is its port, as
//!   required by the fixed-port routing model of Fraigniaud and Gavoille).
//! * [`scratch`] — the allocation-free search kernel: a reusable
//!   [`SearchScratch`] workspace (epoch-stamped arrays + preallocated heap)
//!   that runs full, bounded (ball), multi-source and restricted searches
//!   with zero per-call allocation, all under the paper's lexicographic
//!   `(distance, id)` tie-breaking. It is the one way any crate runs a
//!   search; every preprocessing hot path holds one per worker thread. On
//!   unit-weight graphs, [`BfsBatch`] runs 64 full or ball searches as one
//!   bit-parallel BFS sweep with the same distances, paths, balls and first
//!   ports; [`SearchBatch`] picks between the two for a build's sweeps.
//! * [`mod@reference`] — the pre-refactor allocating implementations, kept
//!   as bit-identity baselines for the equivalence tests.
//! * [`generators`] — seeded synthetic graph families used by the experiment
//!   harness (the paper is evaluated on "any undirected graph"; generators
//!   stand in for the absence of a dataset).
//! * [`apsp`] — exact all-pairs shortest paths used as ground truth by tests
//!   and by the stretch measurements, behind the [`DistanceOracle`] trait.
//! * [`sampled`] — the scalable ground truth: exact rows from `k` sampled
//!   sources plus on-demand pair queries, `O(k·n)` memory instead of
//!   `O(n^2)`.
//! * [`codec`] — [`SlotCodec`], the one packing every retained table uses:
//!   records of little-endian fields, each as wide as its column needs (ids
//!   for `n`, ports for the largest degree, distances for the column's
//!   maximum), with an all-ones sentinel; and [`PackedColumn`], the array
//!   that owns them and their pad, read in 8-byte windows by bounded gets.
//! * [`mutate`] — churn support: derive a mutated CSR graph from a base
//!   graph plus a batch of vertex/edge removals and additions, preserving
//!   fixed ports where possible, with component extraction for rebuilds.
//!
//! Distances are exact unsigned integers ([`Weight`]); "weighted" graphs in
//! the paper's sense are graphs with arbitrary positive integer weights, and
//! unweighted graphs use weight 1 on every edge. Integer weights keep every
//! distance comparison exact, which matters for the ball/cluster membership
//! predicates the paper's correctness arguments rely on.
//!
//! # Example
//!
//! ```
//! use routing_graph::{GraphBuilder, SearchScratch, VertexId};
//!
//! # fn main() -> Result<(), routing_graph::GraphError> {
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 1)?;
//! b.add_edge(1, 2, 2)?;
//! b.add_edge(2, 3, 1)?;
//! b.add_edge(0, 3, 10)?;
//! let g = b.build();
//! let mut search = SearchScratch::for_graph(&g);
//! search.dijkstra_into(&g, VertexId(0));
//! assert_eq!(search.dist(VertexId(3)), Some(4));
//! let path = search.path_to(VertexId(3)).unwrap();
//! assert_eq!(path, [0, 1, 2, 3].map(VertexId));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apsp;
pub mod codec;
mod error;
pub mod generators;
mod graph;
pub mod mutate;
pub mod reference;
pub mod sampled;
pub mod scratch;

pub use apsp::DistanceOracle;
pub use codec::{PackedColumn, PackedRows, PackedView, RowsView, SlotCodec, SLOT_PAD};
pub use error::GraphError;
pub use scratch::{BfsBatch, SearchBatch, SearchScratch};
pub use graph::{EdgeRef, Graph, GraphBuilder, Port, VertexId, Weight, INFINITY};
pub use mutate::{ChurnEvent, Mutation, MutationError, MutationStats};
pub use sampled::SampledDistances;
