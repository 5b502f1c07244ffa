//! The metric registry: process-wide named counters for the query, serving
//! and churn paths, plus [`MetricSet`] — the gather-then-export snapshot a
//! binary assembles before handing it to [`crate::export`].
//!
//! # Gating
//!
//! Counters are gated on one process-wide relaxed atomic flag
//! ([`set_metrics`]); with metrics disabled (the default) an
//! [`Counter::inc`] is a single relaxed load and a branch — no RMW, no
//! allocation — so the routed-query hot path is unaffected by this crate
//! being compiled in. Enabled, an increment is one relaxed `fetch_add`.
//!
//! # Well-known series
//!
//! The counters every instrumented crate increments live in [`counters`]
//! and are listed (name, help, reference) in [`COUNTER_SERIES`], which is
//! what [`MetricSet::gather`] snapshots. Keeping the list static means a
//! disabled-telemetry process never allocates a registry, and an exporter
//! always emits every series — a counter that never fired exports as `0`
//! instead of silently missing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::latency::LatencyHistogram;

static METRICS: AtomicBool = AtomicBool::new(false);

/// Whether metric counters are recording — one relaxed load.
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS.load(Ordering::Relaxed)
}

/// Turns metric recording on or off process-wide.
pub fn set_metrics(on: bool) {
    METRICS.store(on, Ordering::Relaxed);
}

/// A monotonically increasing counter, gated on [`metrics_enabled`].
///
/// `const`-constructible so every well-known series is a `static` with no
/// registration step and no allocation.
#[derive(Debug)]
pub struct Counter {
    bits: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter { bits: AtomicU64::new(0) }
    }

    /// Adds `n` when metrics are enabled; a load and a branch otherwise.
    #[inline]
    pub fn add(&self, n: u64) {
        if metrics_enabled() {
            self.bits.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one when metrics are enabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.bits.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero (experiment harnesses isolating runs).
    pub fn reset(&self) {
        self.bits.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// The workspace's well-known counters. Incremented from the instrumented
/// crates; exported by every binary through [`MetricSet::gather`].
pub mod counters {
    use super::Counter;

    /// Routed queries completed (delivered) by the simulator hot paths.
    pub static ROUTING_QUERIES: Counter = Counter::new();
    /// Edges traversed across all completed routed queries.
    pub static ROUTING_HOPS: Counter = Counter::new();
    /// Sum over completed queries of the largest in-flight header, in
    /// `O(log n)`-bit words.
    pub static ROUTING_HEADER_WORDS: Counter = Counter::new();
    /// Queries whose header was resolved directly inside the source's
    /// vicinity/ball (no pivot involved).
    pub static ROUTING_PHASE_DIRECT: Counter = Counter::new();
    /// Queries routed via a pivot/landmark/color representative.
    pub static ROUTING_PHASE_TO_PIVOT: Counter = Counter::new();
    /// Queries routed down a shortest-path tree (or intra-set sequence)
    /// after reaching their pivot.
    pub static ROUTING_PHASE_TREE: Counter = Counter::new();
    /// Batched-serving label-cache hits (a destination run reused the
    /// previous erased label).
    pub static SERVE_LABEL_CACHE_HITS: Counter = Counter::new();
    /// Batched-serving label-cache misses (a fresh label was erased).
    pub static SERVE_LABEL_CACHE_MISSES: Counter = Counter::new();
    /// Epoch swaps: snapshots published through an `EpochCell`.
    pub static SERVE_EPOCH_SWAPS: Counter = Counter::new();
    /// Snapshot loads from an `EpochCell` (one per served sub-batch).
    pub static SERVE_SNAPSHOT_LOADS: Counter = Counter::new();
    /// Churn failures: forwards on ports that no longer exist.
    pub static CHURN_FAIL_INVALID_PORT: Counter = Counter::new();
    /// Churn failures: deliveries at the wrong vertex.
    pub static CHURN_FAIL_WRONG_DELIVERY: Counter = Counter::new();
    /// Churn failures: messages that looped into the hop budget.
    pub static CHURN_FAIL_HOP_BUDGET: Counter = Counter::new();
    /// Churn failures: messages forwarded into vertices unknown to the
    /// scheme.
    pub static CHURN_FAIL_UNKNOWN_VERTEX: Counter = Counter::new();
    /// Churn failures: internal scheme errors on stale state.
    pub static CHURN_FAIL_SCHEME_ERROR: Counter = Counter::new();
    /// Target-bounded (early-exit) Dijkstra searches run by the build
    /// phases in place of full per-source searches. Technique 1 on a
    /// unit-weight graph runs none: its batch BFS is a full search, so it
    /// does not count here (`t1-er-direct` reads 0).
    pub static BUILD_EARLY_EXIT_SEARCHES: Counter = Counter::new();
    /// Vertices settled per source by the build searches: the
    /// target-bounded Dijkstras, plus, for Technique 1's batch BFS on a
    /// unit-weight graph, every vertex each source of a batch reached (its
    /// component). Divide the early-exit share by
    /// `build_early_exit_searches_total` for the mean settled frontier, and
    /// compare against `n` for the per-source work the early exit saved.
    pub static BUILD_SETTLED_VERTICES: Counter = Counter::new();
    /// Frontier resumes of a stopped search. Nothing bumps it any more: a
    /// target that a target-bounded search leaves unsettled is unreachable,
    /// so the search kernel has no resume path. It stays, at zero, because
    /// the benchmark's `graph.build_frontier_resumes` series reads it.
    pub static BUILD_FRONTIER_RESUMES: Counter = Counter::new();
}

/// Every well-known counter as `(series name, help text, counter)`, in
/// export order. Series names follow the Prometheus `*_total` convention.
pub static COUNTER_SERIES: &[(&str, &str, &Counter)] = &[
    (
        "routing_queries_total",
        "Routed queries completed by the simulator hot paths",
        &counters::ROUTING_QUERIES,
    ),
    ("routing_hops_total", "Edges traversed across completed queries", &counters::ROUTING_HOPS),
    (
        "routing_header_words_total",
        "Sum over completed queries of the largest in-flight header words",
        &counters::ROUTING_HEADER_WORDS,
    ),
    (
        "routing_phase_direct_total",
        "Queries resolved directly inside the source vicinity",
        &counters::ROUTING_PHASE_DIRECT,
    ),
    (
        "routing_phase_to_pivot_total",
        "Queries routed via a pivot/landmark/color representative",
        &counters::ROUTING_PHASE_TO_PIVOT,
    ),
    (
        "routing_phase_tree_total",
        "Queries routed down a tree or intra-set sequence after the pivot",
        &counters::ROUTING_PHASE_TREE,
    ),
    (
        "serve_label_cache_hits_total",
        "Batched-serving label-cache hits (dest run reused the erased label)",
        &counters::SERVE_LABEL_CACHE_HITS,
    ),
    (
        "serve_label_cache_misses_total",
        "Batched-serving label-cache misses (fresh label erasure)",
        &counters::SERVE_LABEL_CACHE_MISSES,
    ),
    (
        "serve_epoch_swaps_total",
        "Snapshots published through an EpochCell",
        &counters::SERVE_EPOCH_SWAPS,
    ),
    (
        "serve_snapshot_loads_total",
        "Snapshot loads from an EpochCell (one per served sub-batch)",
        &counters::SERVE_SNAPSHOT_LOADS,
    ),
    (
        "churn_fail_invalid_port_total",
        "Churn failures: forwards on ports that no longer exist",
        &counters::CHURN_FAIL_INVALID_PORT,
    ),
    (
        "churn_fail_wrong_delivery_total",
        "Churn failures: deliveries at the wrong vertex",
        &counters::CHURN_FAIL_WRONG_DELIVERY,
    ),
    (
        "churn_fail_hop_budget_total",
        "Churn failures: messages that looped into the hop budget",
        &counters::CHURN_FAIL_HOP_BUDGET,
    ),
    (
        "churn_fail_unknown_vertex_total",
        "Churn failures: messages forwarded into unknown vertices",
        &counters::CHURN_FAIL_UNKNOWN_VERTEX,
    ),
    (
        "churn_fail_scheme_error_total",
        "Churn failures: internal scheme errors on stale state",
        &counters::CHURN_FAIL_SCHEME_ERROR,
    ),
    (
        "build_early_exit_searches_total",
        "Target-bounded (early-exit) Dijkstra searches run by the build phases",
        &counters::BUILD_EARLY_EXIT_SEARCHES,
    ),
    (
        "build_settled_vertices_total",
        "Vertices settled per source by the build searches (target-bounded and batch BFS)",
        &counters::BUILD_SETTLED_VERTICES,
    ),
    (
        "build_frontier_resumes_total",
        "Searches resumed past their settled frontier (always 0: nothing resumes)",
        &counters::BUILD_FRONTIER_RESUMES,
    ),
];

/// Resets every well-known counter (harnesses isolating measurement runs).
pub fn reset_counters() {
    for (_, _, c) in COUNTER_SERIES {
        c.reset();
    }
}

/// A fixed-quantile summary of a [`LatencyHistogram`], the exportable form
/// of a histogram metric.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Recorded samples.
    pub count: u64,
    /// Sum of all samples (may lose precision past 2^53; exact inside).
    pub sum: f64,
    /// Mean sample, when non-empty.
    pub mean: Option<f64>,
    /// Median (p50).
    pub p50: Option<u64>,
    /// 99th percentile.
    pub p99: Option<u64>,
    /// 99.9th percentile.
    pub p999: Option<u64>,
    /// Exact maximum.
    pub max: Option<u64>,
}

impl From<&LatencyHistogram> for HistogramSummary {
    fn from(h: &LatencyHistogram) -> Self {
        HistogramSummary {
            count: h.count(),
            sum: h.sum() as f64,
            mean: h.mean(),
            p50: h.quantile(0.5),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
            max: h.max(),
        }
    }
}

/// One exportable metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotone counter reading.
    Counter(u64),
    /// A point-in-time gauge.
    Gauge(f64),
    /// A histogram summary (exported as Prometheus summary quantiles).
    Histogram(HistogramSummary),
}

/// An ordered snapshot of named metrics, ready for
/// [`crate::export::prometheus`] / [`crate::export::json`].
///
/// Binaries build one per run (or per round, for churn): start from
/// [`MetricSet::gather`] to pick up every well-known counter, then attach
/// run-level gauges (qps, wall-clock) and histograms (latency).
#[derive(Debug, Clone, Default)]
pub struct MetricSet {
    entries: BTreeMap<String, (String, MetricValue)>,
}

impl MetricSet {
    /// An empty set.
    pub fn new() -> Self {
        MetricSet::default()
    }

    /// A set holding the current value of every well-known counter in
    /// [`COUNTER_SERIES`] — zeros included, so no series ever goes
    /// missing from an exposition.
    pub fn gather() -> Self {
        let mut set = MetricSet::new();
        for (name, help, counter) in COUNTER_SERIES {
            set.counter(name, help, counter.get());
        }
        set
    }

    /// Inserts (or overwrites) a counter reading.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.entries.insert(name.into(), (help.into(), MetricValue::Counter(value)));
    }

    /// Inserts (or overwrites) a gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.entries.insert(name.into(), (help.into(), MetricValue::Gauge(value)));
    }

    /// Inserts (or overwrites) a histogram summary.
    pub fn histogram(&mut self, name: &str, help: &str, h: &LatencyHistogram) {
        self.entries.insert(name.into(), (help.into(), MetricValue::Histogram(h.into())));
    }

    /// Iterates `(name, help, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &MetricValue)> {
        self.entries.iter().map(|(name, (help, value))| (name.as_str(), help.as_str(), value))
    }

    /// Number of metrics in the set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_inert_until_enabled() {
        // This test owns a private counter, so parallel tests cannot race
        // its value; the global flag is toggled back immediately.
        let c = Counter::new();
        set_metrics(false);
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        set_metrics(true);
        c.inc();
        c.add(2);
        set_metrics(false);
        assert_eq!(c.get(), 3);
        c.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(Counter::default().get(), 0);
    }

    #[test]
    fn series_table_is_complete_and_unique() {
        assert!(COUNTER_SERIES.len() >= 15);
        for (i, (name, help, _)) in COUNTER_SERIES.iter().enumerate() {
            assert!(name.ends_with("_total"), "{name} should follow the *_total convention");
            assert!(!help.is_empty());
            assert!(
                COUNTER_SERIES[..i].iter().all(|(n, _, _)| n != name),
                "duplicate series {name}"
            );
        }
    }

    #[test]
    fn gather_exports_every_series_even_at_zero() {
        let set = MetricSet::gather();
        assert_eq!(set.len(), COUNTER_SERIES.len());
        assert!(!set.is_empty());
        for (name, _, _) in COUNTER_SERIES {
            assert!(set.iter().any(|(n, _, _)| n == *name), "{name} missing from gather()");
        }
    }

    #[test]
    fn metric_set_holds_all_three_kinds() {
        let mut set = MetricSet::new();
        set.counter("c_total", "a counter", 7);
        set.gauge("g", "a gauge", 2.5);
        let mut h = LatencyHistogram::new();
        h.record(100);
        h.record(200);
        set.histogram("h_ns", "a histogram", &h);
        assert_eq!(set.len(), 3);
        let kinds: Vec<&str> = set
            .iter()
            .map(|(_, _, v)| match v {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            })
            .collect();
        // BTreeMap order: c_total, g, h_ns.
        assert_eq!(kinds, vec!["counter", "gauge", "histogram"]);
        let (_, _, v) = set.iter().nth(2).unwrap();
        match v {
            MetricValue::Histogram(s) => {
                assert_eq!(s.count, 2);
                assert_eq!(s.sum, 300.0);
                assert_eq!(s.max, Some(200));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
