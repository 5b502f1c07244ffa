//! What the benchmark runs and what it reports: the four workloads, the
//! declared stretch envelopes, and the metric tables `BENCHMARK.json` is
//! generated from (`routing-benchmark --contract`; a self-test keeps the
//! committed file equal to it).

use routing_graph::generators::{Family, WeightModel};
use serde_json::Value;

use crate::anchor::Fingerprint;

pub const DEFAULT_SEED: u64 = 13;
/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 8;

/// How a workload's queries reach the schemes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Driver {
    /// One thread calling `routing_model::simulate` per pair.
    Direct,
    /// One closed-loop client calling `ShardedEngine::route_batch` on
    /// batches of `SERVE_BATCH` pairs drawn Zipf(`zipf_s`) on both
    /// endpoints; with `swap`, the client publishes the other of two
    /// prebuilt snapshots every `SWAP_EVERY`-th batch.
    Serve { zipf_s: f64, swap: bool },
}

pub const SERVE_SHARDS: usize = 2;
pub const SERVE_BATCH: usize = 256;
pub const SWAP_EVERY: u64 = 64;
/// Seed offset of the second snapshot of `serve-zipf-swap`.
pub const SWAP_SEED_XOR: u64 = 0xa17;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub family: Family,
    pub weights: WeightModel,
    pub n: usize,
    pub schemes: &'static [&'static str],
    pub driver: Driver,
    /// Input fingerprint at the default graph seed, full size; a mismatch
    /// there is a hard failure, so a generator or RNG change cannot
    /// silently swap the input under a perf claim.
    pub fingerprint: Fingerprint,
    /// Nominal host speed: the time one anchor unit takes on the reference
    /// sandbox, on one thread (around set-ups) and on as many threads as
    /// the driver keeps busy (around slices). Every timing is reported as
    /// it would read on a host that runs the anchor in exactly this time.
    pub nominal_ms: (f64, f64),
}

const WEIGHTED: WeightModel = WeightModel::Uniform { lo: 1, hi: 32 };

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "t1-er-direct",
        why: "Technique 1 family on an unweighted ER graph: short walks, so per-query fixed costs dominate; builds are technique1 sequences, balls and coloring.",
        family: Family::ErdosRenyi,
        weights: WeightModel::Unit,
        n: 2000,
        schemes: &["warmup", "thm10", "thm13", "thm15"],
        driver: Driver::Direct,
        fingerprint: Fingerprint { n: 2000, m: 10038, fnv: 0x2d56_1fe0_a1e3_9fc8 },
        nominal_ms: (5.0, 5.0),
    },
    Workload {
        name: "t2-geo-direct",
        why: "Bypasses Technique 1: technique2, clusters/bunches, cluster trees and the TZ ladder on a weighted geometric graph; long walks, so per-hop decide cost dominates.",
        family: Family::Geometric,
        weights: WEIGHTED,
        n: 6000,
        schemes: &["thm11", "tz3", "thm16k3"],
        driver: Driver::Direct,
        fingerprint: Fingerprint { n: 6000, m: 29883, fnv: 0x512e_0fb3_05d1_0fe9 },
        nominal_ms: (12.0, 12.0),
    },
    Workload {
        name: "serve-zipf-swap",
        why: "The serving layer as built: 2 shards, Zipf(0.99) batches of 256 give the label cache real runs, and the client publishes an epoch swap every 64th batch.",
        family: Family::ErdosRenyi,
        weights: WEIGHTED,
        n: 8000,
        schemes: &["thm11"],
        driver: Driver::Serve { zipf_s: 0.99, swap: true },
        fingerprint: Fingerprint { n: 8000, m: 39735, fnv: 0xae55_966f_a0d2_5d67 },
        nominal_ms: (15.0, 19.0),
    },
    Workload {
        name: "serve-uniform",
        why: "Same engine and graph, uniform pairs and no publish: label-cache hit rate near 0, so a cache-side gain must read no change and miss-path costs show.",
        family: Family::ErdosRenyi,
        weights: WEIGHTED,
        n: 8000,
        schemes: &["thm11"],
        driver: Driver::Serve { zipf_s: 0.0, swap: false },
        fingerprint: Fingerprint { n: 8000, m: 39735, fnv: 0xae55_966f_a0d2_5d67 },
        nominal_ms: (15.0, 19.0),
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The stretch ε every scheme is built with (`Params::default()`).
pub const EPSILON: f64 = 0.25;

/// A scheme's declared stretch envelope: a routed weight may be at most
/// `(base + eps_coeff * ε) * d + additive`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    pub scheme: &'static str,
    pub base: f64,
    pub eps_coeff: f64,
    pub additive: f64,
}

impl Envelope {
    pub fn allowed(&self, d: u64) -> f64 {
        (self.base + self.eps_coeff * EPSILON) * d as f64 + self.additive
    }
}

const fn envelope(scheme: &'static str, base: f64, eps_coeff: f64, additive: f64) -> Envelope {
    Envelope { scheme, base, eps_coeff, additive }
}

pub const ENVELOPES: [Envelope; 7] = [
    envelope("warmup", 3.0, 1.0, 0.0),
    envelope("thm10", 2.0, 1.0, 1.0),
    envelope("thm13", 4.0, 1.0, 2.0),
    envelope("thm15", 3.5, 1.0, 2.0),
    envelope("thm11", 5.0, 1.0, 0.0),
    envelope("tz3", 7.0, 0.0, 0.0),
    envelope("thm16k3", 5.0, 1.0, 0.0),
];

pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str, bound: Option<f64>) -> MetricDef {
    MetricDef { name: name.to_string(), unit, better, bound }
}

pub fn end_to_end_defs() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower", Some(0.25)),
        def("route_qps", "1/s", "higher", Some(0.25)),
        def("route_p50_us", "us", "lower", Some(0.25)),
        def("peak_build_mib", "MiB", "lower", Some(0.05)),
        def("table_mib", "MiB", "lower", Some(0.05)),
        def("table_words_max", "words", "lower", Some(0.05)),
        def("label_words_max", "words", "lower", Some(0.05)),
        def("header_words_max", "words", "lower", Some(0.10)),
        def("stretch_mean", "ratio", "lower", Some(0.02)),
    ]
}

/// Build spans reported per scheme: `(layer, scheme, span paths)`. A path
/// names a root span of the profiled build and, after a dot, its child.
pub const SPAN_METRICS: [(&str, &str, &[&str]); 7] = [
    (
        "core",
        "warmup",
        &[
            "balls",
            "coloring",
            "technique1",
            "technique1.hitting-set",
            "technique1.global-trees",
            "technique1.sequences",
        ],
    ),
    (
        "core",
        "thm10",
        &[
            "balls",
            "coloring",
            "cluster-trees",
            "global-trees",
            "intersections",
            "technique1",
            "technique1.hitting-set",
            "technique1.global-trees",
            "technique1.sequences",
        ],
    ),
    ("core", "thm13", &["balls", "coloring", "technique1", "technique1.sequences"]),
    ("core", "thm15", &["balls", "coloring", "technique1", "technique1.sequences"]),
    (
        "core",
        "thm11",
        &["balls", "centers", "clusters", "cluster-trees", "first-edge", "technique2"],
    ),
    ("baselines", "tz3", &["levels", "cluster-trees", "bunches"]),
    ("baselines", "thm16k3", &["balls", "cluster-trees"]),
];

pub fn span_metric_name(layer: &str, scheme: &str, span: &str) -> String {
    format!("{layer}.{scheme}.{span}_ms")
}

pub fn per_layer_defs() -> Vec<MetricDef> {
    let mut defs = vec![
        def("bench.anchor_ms", "ms", "lower", None),
        def("bench.gen_ms", "ms", "lower", None),
        def("bench.trace_overhead", "ratio", "lower", None),
        def("bench.slice_spread", "ratio", "lower", None),
        def("bench.route_p95_us", "us", "lower", None),
        def("bench.route_p95_over_p50", "ratio", "lower", None),
        def("graph.dijkstra_ns_per_settle", "ns", "lower", None),
        def("graph.ball_ns_per_settle", "ns", "lower", None),
        def("graph.targets_ns_per_settle", "ns", "lower", None),
        def("graph.targets_settled_share", "ratio", "lower", None),
        def("graph.build_settled_vertices", "count", "lower", None),
        def("graph.build_early_exit_searches", "count", "higher", None),
        def("graph.build_frontier_resumes", "count", "lower", None),
        def("vicinity.balls_ms", "ms", "lower", None),
        def("vicinity.ball_lookup_ns", "ns", "lower", None),
        def("vicinity.centers_ms", "ms", "lower", None),
        def("vicinity.clusters_ms", "ms", "lower", None),
        def("vicinity.bunches_ms", "ms", "lower", None),
        def("vicinity.coloring_ms", "ms", "lower", None),
        def("vicinity.hitting_ms", "ms", "lower", None),
        def("vicinity.hitting_size", "count", "lower", None),
        def("tree.from_scratch_us", "us", "lower", None),
        def("tree.route_step_ns", "ns", "lower", None),
    ];
    for (layer, scheme, spans) in SPAN_METRICS {
        defs.push(def(&span_metric_name(layer, scheme, "total"), "ms", "lower", None));
        for span in spans {
            defs.push(def(&span_metric_name(layer, scheme, span), "ms", "lower", None));
        }
    }
    defs.extend([
        def("core.span_coverage", "ratio", "higher", None),
        def("par.setup_speedup_t2", "ratio", "higher", None),
        def("model.label_of_ns", "ns", "lower", None),
        def("model.init_header_ns", "ns", "lower", None),
        def("model.simulate_ns", "ns", "lower", None),
        def("model.simulate_lean_ns", "ns", "lower", None),
        def("model.simulate_lean_cached_ns", "ns", "lower", None),
        def("model.lean_ns_per_hop", "ns", "lower", None),
        def("model.erasure_overhead_ns", "ns", "lower", None),
        def("model.hops_mean", "hops", "lower", None),
        def("model.header_words_mean", "words", "lower", None),
        def("model.phase_direct_share", "ratio", "higher", None),
        def("model.phase_to_pivot_share", "ratio", "lower", None),
        def("model.phase_tree_share", "ratio", "lower", None),
        def("serve.engine_start_ms", "ms", "lower", None),
        def("serve.publish_us", "us", "lower", None),
        def("serve.route_single_us", "us", "lower", None),
        def("serve.busy_ns_per_query", "ns", "lower", None),
        def("serve.wait_ns_per_query", "ns", "lower", None),
        def("serve.shard_imbalance", "ratio", "lower", None),
        def("serve.label_cache_hit_share", "ratio", "higher", None),
        def("serve.snapshot_loads_per_batch", "ratio", "lower", None),
        def("serve.inner_p99_ns", "ns", "lower", None),
        def("serve.qps_shards1", "1/s", "higher", None),
        def("serve.speedup_vs_lean", "ratio", "higher", None),
    ]);
    defs
}

/// A finished JSON tree, for the stand-in serializer (whose `Value` is its
/// output type, not an input).
pub struct Json(pub Value);

impl serde::Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The contents of `BENCHMARK.json`.
pub fn contract() -> Json {
    let metric = |d: &MetricDef| {
        let mut entries = vec![("name", s(&d.name)), ("unit", s(d.unit)), ("better", s(d.better))];
        if let Some(bound) = d.bound {
            entries.push(("bound", Value::Float(bound)));
        }
        map(entries)
    };
    Json(map(vec![
        ("command", Value::Seq(vec![s("bash"), s("benchmark/run.sh")])),
        ("paths", Value::Seq(vec![s("benchmark")])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| map(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", Value::Seq(end_to_end_defs().iter().map(metric).collect())),
        ("per_layer", Value::Seq(per_layer_defs().iter().map(metric).collect())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        let e2e = end_to_end_defs();
        let layers = per_layer_defs();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()), "{} per-layer metrics", layers.len());
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(e2e.iter().chain(&layers).map(|d| d.name.as_str()));
        for name in &names {
            assert!(well_formed(name), "bad name {name:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for d in e2e.iter().chain(&layers) {
            assert!(d.unit.len() <= 16 && matches!(d.better, "lower" | "higher"));
        }
        let setup = e2e.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
        let largest = e2e.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");
        assert!(largest <= 0.25);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            for scheme in w.schemes {
                assert!(ENVELOPES.iter().any(|e| e.scheme == *scheme), "{scheme} has no envelope");
            }
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let committed = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let same = serde_json::to_string(&Json(committed)).unwrap()
            == serde_json::to_string(&contract()).unwrap();
        assert!(same, "regenerate with: benchmark/run.sh --contract > BENCHMARK.json");
    }
}
