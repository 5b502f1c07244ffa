//! Workspace-wide telemetry for the compact-routing system: a hierarchical
//! **span profiler** for the preprocessing phases, a **metric registry** of
//! named counters/gauges/histograms for the query and serving paths, and
//! **exporters** (Prometheus text exposition + JSON artifacts) the
//! experiment binaries write their breakdowns through.
//!
//! # Design constraints
//!
//! * **std-only** — consistent with the workspace's vendored, offline
//!   dependency policy. No tracing/metrics/prometheus crates.
//! * **Disabled means free** — both the profiler and the metric counters
//!   are gated on one process-wide relaxed atomic load each. With
//!   telemetry off (the default), a [`span`] is a single load returning an
//!   inert guard and a [`Counter::inc`](metrics::Counter::inc) is a single
//!   load and a branch: zero allocation, zero locks, zero syscalls. The
//!   routed-query hot path stays allocation-free with this crate compiled
//!   in (pinned by `crates/bench/tests/alloc_guard.rs`).
//! * **Deterministic aggregation** — worker-thread span trees are merged
//!   into the caller's tree by name, producing the same tree *structure*
//!   and the same *counts* for every thread count (wall-clock attributions
//!   are timing measurements and naturally vary). The merge is wired into
//!   `routing-par` through function-pointer hooks ([`ParHooks`]
//!   registration happens on the first [`set_profiling`]`(true)`), so
//!   every `par_map_scratch` fan-out attributes its workers' spans under
//!   the span that was open at the fork site.
//!
//! [`ParHooks`]: routing_par::ParHooks
//!
//! # The three layers
//!
//! 1. [`profile`] — [`span("name")`](span) returns a scoped guard; nested
//!    guards build a tree per thread; [`report`] merges and returns the
//!    forest; [`reset`] clears it. The preprocessing code of every scheme
//!    (balls, landmark sampling, cluster searches, technique builds, TZ
//!    ladder levels, exact tables) is threaded with these spans,
//!    which is where the benchmark's per-phase `core.<scheme>.*_ms` rows
//!    come from.
//! 2. [`metrics`] — [`Counter`] statics for the query
//!    path (routing phase taken, hops, header words), the serving layer
//!    (label-cache hits, epoch swaps, snapshot loads) and churn failure
//!    classes, listed in [`metrics::COUNTER_SERIES`]; plus
//!    [`MetricSet`], the gather-then-export snapshot
//!    a binary assembles from those counters and its own gauges and
//!    histograms.
//! 3. [`export`] — [`export::prometheus`] renders a `MetricSet` in the
//!    text exposition format (histograms as summaries with quantile
//!    labels); [`export::json`] renders the same set as a JSON object.
//!
//! The [`LatencyHistogram`] (HDR-style log-linear, mergeable) lives here
//! too — promoted out of `routing-serve`, which re-exports it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod latency;
pub mod metrics;
pub mod profile;

pub use latency::LatencyHistogram;
pub use metrics::{counters, metrics_enabled, set_metrics, Counter, MetricSet, MetricValue};
pub use profile::{
    flush_local, profiling_enabled, report, reset, set_profiling, span, Span, SpanNode,
};
