//! The labeled fixed-port routing model used by every scheme in this
//! workspace, together with a message simulator and the space/stretch
//! accounting the experiment harness reports.
//!
//! A *labeled compact routing scheme* (Peleg–Upfal; Thorup–Zwick) consists of
//! a centralized preprocessing phase that assigns every vertex a **routing
//! table** and a short **label**, and a distributed routing phase: when a
//! message for destination `v` (whose label is attached to the message)
//! arrives at a vertex `u`, the scheme must decide — looking only at `u`'s
//! routing table, the message header and `v`'s label — whether to deliver the
//! message or which **port** (local link index) to forward it on.
//!
//! [`RoutingScheme`] captures exactly that interface; [`simulate`] walks a
//! message through a graph enforcing the port semantics and accounting for
//! the traversed weight, and [`stats`] aggregates stretch and table-size
//! measurements across many routed pairs. The hop exists once, in
//! [`simulator`]: the lossy walk of [`route_pairs_lossy`] is the same loop
//! recording less, and the serving layer's batches
//! ([`DynScheme::walk_many`]) step a few messages through that hop in turn.
//!
//! [`RoutingScheme`] keeps its per-scheme `Label`/`Header` types (and is
//! therefore not object safe); the [`erased`] module provides the
//! object-safe twin [`DynScheme`] — implemented automatically for every
//! scheme — which every driver in this crate ([`simulate`], the
//! evaluators, [`route_pairs_lossy`]) consumes, so heterogeneous scheme
//! collections (`Box<dyn DynScheme>`, as built by the facade's
//! `SchemeRegistry`) route through exactly the same code path as typed
//! schemes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod erased;
pub mod eval;
pub mod scheme;
pub mod simulator;
pub mod stale;
pub mod stats;
#[cfg(test)]
mod toys;

pub use erased::{DynScheme, ErasedHeader, ErasedLabel};
pub use error::RouteError;
pub use eval::{evaluate, evaluate_pairs, sample_pairs_from};
pub use scheme::{Decision, HeaderSize, RoutingScheme};
pub use simulator::{simulate, simulate_lean, simulate_lean_with_label, LeanOutcome, RouteOutcome};
pub use stale::{route_pairs_lossy, sample_alive_pairs, FailureBreakdown, ResilienceReport};
