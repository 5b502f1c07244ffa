//! The traced run (`--trace 1`): the per-layer numbers, all taken from
//! outside — by timing calls into public functions and by switching on the
//! `routing_obs` profiler and counters that already exist. End-to-end
//! numbers are never taken here: telemetry is on.
//!
//! Every micro-timing repeats its unit of work until its share of the
//! `--seconds` budget is spent (at least three times, unless one
//! repetition alone overruns the share) and reports the median repetition.

use std::hint::black_box;
use std::time::{Duration, Instant};

use compact_routing::registry::SchemeRegistry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use routing_core::Params;
use routing_graph::{Graph, SearchScratch, VertexId};
use routing_model::{
    simulate, simulate_lean, simulate_lean_with_label, Decision, DynScheme, ErasedLabel,
    RoutingScheme,
};
use routing_obs::{counters, SpanNode};
use routing_serve::{LatencyHistogram, ShardStats};
use routing_tree::{tree_route_step, TreeScheme};
use routing_vicinity::{
    all_clusters, bunches, hitting_set_greedy, sample_centers_bounded, BallTable, Coloring,
};

use crate::run::{
    build_schemes, context, measure_serve, query_pass, second_snapshot, verify, Config, Inputs,
    Pair, Plan, Report, Scheme, ServeTarget, Tally, WARM_UP,
};
use crate::spec::{span_metric_name, Driver, Envelope, SERVE_SHARDS, SPAN_METRICS};
use crate::stats::{median, nearest_rank, summarize};

/// Per-layer metrics by name, as they are gathered.
struct Metrics(Vec<(String, f64)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), if value.is_finite() { value } else { 0.0 }));
    }
}

/// Median seconds of `unit`, repeated until `budget` is spent: at least
/// three times, except that a unit which alone overruns the budget runs
/// once.
fn median_secs(budget: Duration, mut unit: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let t = Instant::now();
        unit();
        samples.push(t.elapsed().as_secs_f64());
        let spent = start.elapsed();
        if spent >= budget && (samples.len() >= 3 || samples[0] > budget.as_secs_f64()) {
            return median(&samples);
        }
    }
}

fn ceil_sqrt(n: usize) -> usize {
    (n as f64).sqrt().ceil() as usize
}

/// `count` evenly spaced vertices.
fn spaced(n: usize, count: usize) -> Vec<VertexId> {
    (0..count).map(|i| VertexId((i * n / count) as u32)).collect()
}

/// `graph.*`: the three `SearchScratch` kernels from 64 fixed sources.
fn graph_layer(g: &Graph, budget: Duration, out: &mut Metrics) {
    let n = g.n();
    let sources = spaced(n, 64);
    let mut scratch = SearchScratch::for_graph(g);
    let mut kernel = |name: &str, search: &mut dyn FnMut(&mut SearchScratch, VertexId)| -> usize {
        let mut settled = 0;
        let secs = median_secs(budget, || {
            settled = 0;
            for &s in &sources {
                search(&mut scratch, s);
                settled += black_box(scratch.order().len());
            }
        });
        out.put(name, secs * 1e9 / settled.max(1) as f64);
        settled
    };
    kernel("graph.dijkstra_ns_per_settle", &mut |sc, s| sc.dijkstra_into(g, s));
    let ell = ceil_sqrt(n);
    kernel("graph.ball_ns_per_settle", &mut |sc, s| {
        sc.ball_into(g, s, ell);
    });
    let settled = kernel("graph.targets_ns_per_settle", &mut |sc, s| {
        let targets: Vec<VertexId> =
            (1..=8).map(|j| VertexId(((s.index() + j * n / 9 + 1) % n) as u32)).collect();
        sc.dijkstra_targets_into(g, s, &targets);
    });
    out.put("graph.targets_settled_share", settled as f64 / (sources.len() * n) as f64);
}

/// `vicinity.*`: the preprocessing tables, called directly at the sizes
/// the schemes use (ℓ = ⌈√n⌉·ln n scaled as `Params::default()` does,
/// q = s = ⌈√n⌉).
fn vicinity_layer(g: &Graph, seed: u64, budget: Duration, out: &mut Metrics, tally: &mut Tally) {
    let n = g.n();
    let q = ceil_sqrt(n);
    let params = Params::default();
    let ell = params.scaled(q, n);
    let ms = |secs: f64| secs * 1e3;

    let mut built = None;
    out.put(
        "vicinity.balls_ms",
        ms(median_secs(budget, || built = Some(BallTable::build(g, ell)))),
    );
    let Some(balls) = built else { return };
    let mut members: Vec<Pair> = Vec::new();
    for u in spaced(n, 64) {
        members.extend(balls.ball(u).members().iter().take(64).map(|&(v, _)| (u, v)));
    }
    let secs = median_secs(budget, || {
        for &(u, v) in &members {
            black_box(balls.first_port(u, v));
        }
    });
    out.put("vicinity.ball_lookup_ns", secs * 1e9 / members.len().max(1) as f64);

    let centers = || sample_centers_bounded(g, q, &mut StdRng::seed_from_u64(seed));
    out.put("vicinity.centers_ms", ms(median_secs(budget, || drop(black_box(centers())))));
    let landmarks = centers();
    out.put(
        "vicinity.clusters_ms",
        ms(median_secs(budget, || drop(black_box(all_clusters(g, &landmarks))))),
    );
    let clusters = all_clusters(g, &landmarks);
    out.put(
        "vicinity.bunches_ms",
        ms(median_secs(budget, || drop(black_box(bunches(g, &clusters))))),
    );

    let sets: Vec<Vec<VertexId>> =
        g.vertices().map(|u| balls.ball(u).members().iter().map(|&(v, _)| v).collect()).collect();
    let mut colored = true;
    let secs = median_secs(budget, || {
        let mut rng = StdRng::seed_from_u64(seed);
        colored &=
            Coloring::build_for_sets(n, q as u32, &sets, params.coloring_retries, &mut rng).is_ok();
    });
    tally.record(colored);
    out.put("vicinity.coloring_ms", ms(secs));
    let mut size = 0;
    let secs = median_secs(budget, || size = black_box(hitting_set_greedy(n, &sets)).len());
    out.put("vicinity.hitting_ms", ms(secs));
    out.put("vicinity.hitting_size", size as f64);
}

/// `tree.*` and `model.erasure_overhead_ns`: one shortest-path tree,
/// walked by the bare step function, the typed scheme and the erased one.
fn tree_layer(g: &Graph, pairs: &[Pair], budget: Duration, out: &mut Metrics, tally: &mut Tally) {
    let mut scratch = SearchScratch::for_graph(g);
    let roots = spaced(g.n(), 16);
    let mut per_tree = Vec::new();
    let start = Instant::now();
    while per_tree.len() < 3 * roots.len() || start.elapsed() < budget {
        for &root in &roots {
            scratch.dijkstra_into(g, root);
            let t = Instant::now();
            let tree = TreeScheme::from_scratch(g, &scratch);
            per_tree.push(t.elapsed().as_secs_f64() * 1e6);
            tally.record(tree.is_ok());
        }
    }
    out.put("tree.from_scratch_us", median(&per_tree));

    scratch.dijkstra_into(g, VertexId(0));
    let Ok(tree) = TreeScheme::from_scratch(g, &scratch) else {
        return;
    };
    // The walks, recorded once: every step as (vertex, index of its pair).
    let labels: Vec<_> = pairs.iter().map(|&(_, v)| RoutingScheme::label_of(&tree, v)).collect();
    let erased: Vec<ErasedLabel> =
        pairs.iter().map(|&(_, v)| DynScheme::label_of(&tree, v)).collect();
    let mut steps = Vec::new();
    for (i, &(u, _)) in pairs.iter().enumerate() {
        let mut at = u;
        while let Some(node) = tree.node_info(at) {
            steps.push((at, i));
            match tree_route_step(node, &labels[i]) {
                Ok(Decision::Forward(port)) => at = g.neighbor_at(at, port).to,
                _ => break,
            }
        }
    }
    let per_step = |secs: f64| secs * 1e9 / steps.len().max(1) as f64;

    let nodes: Vec<_> =
        steps.iter().filter_map(|&(at, i)| Some((tree.node_info(at)?, &labels[i]))).collect();
    let bare = median_secs(budget, || {
        for &(node, label) in &nodes {
            black_box(tree_route_step(node, label).is_ok());
        }
    });
    out.put("tree.route_step_ns", per_step(bare));

    let typed = median_secs(budget, || {
        let mut header = routing_tree::TreeHeader;
        for &(at, i) in &steps {
            black_box(RoutingScheme::decide(&tree, at, &mut header, &labels[i]).is_ok());
        }
    });
    let dynamic: &dyn DynScheme = &tree;
    let Some(mut header) =
        pairs.first().and_then(|&(u, _)| dynamic.init_header(u, &erased[0]).ok())
    else {
        return;
    };
    let through_dyn = median_secs(budget, || {
        for &(at, i) in &steps {
            black_box(dynamic.decide(at, &mut header, &erased[i]).is_ok());
        }
    });
    out.put("model.erasure_overhead_ns", per_step(through_dyn) - per_step(typed));
}

/// `model.*`: the query-path ladder over one slice of the workload's
/// pairs, per query, averaged over the workload's schemes.
fn model_ladder(
    g: &Graph,
    schemes: &[Scheme],
    pairs: &[Pair],
    budget: Duration,
    out: &mut Metrics,
) {
    const RUNGS: [&str; 5] = [
        "model.label_of_ns",
        "model.init_header_ns",
        "model.simulate_ns",
        "model.simulate_lean_ns",
        "model.simulate_lean_cached_ns",
    ];
    let ttl = 4 * g.n() + 16;
    let budget = budget / schemes.len().max(1) as u32;
    let mut sums = [0.0; RUNGS.len()];
    let mut per_hop = 0.0;
    for scheme in schemes {
        let s = scheme.as_ref();
        let labels: Vec<ErasedLabel> = pairs.iter().map(|&(_, v)| s.label_of(v)).collect();
        let mut hops = 0;
        let rungs = [
            median_secs(budget, || pairs.iter().for_each(|&(_, v)| drop(black_box(s.label_of(v))))),
            median_secs(budget, || {
                for (&(u, _), label) in pairs.iter().zip(&labels) {
                    black_box(s.init_header(u, label).is_ok());
                }
            }),
            median_secs(budget, || {
                pairs.iter().for_each(|&(u, v)| drop(black_box(simulate(g, s, u, v))));
            }),
            median_secs(budget, || {
                pairs.iter().for_each(|&(u, v)| drop(black_box(simulate_lean(g, s, u, v, ttl))));
            }),
            median_secs(budget, || {
                hops = 0;
                for (&(u, v), label) in pairs.iter().zip(&labels) {
                    hops += simulate_lean_with_label(g, s, u, v, label, ttl).map_or(0, |o| o.hops);
                }
            }),
        ];
        for (sum, secs) in sums.iter_mut().zip(rungs) {
            *sum += secs * 1e9 / pairs.len() as f64;
        }
        per_hop += rungs[4] * 1e9 / hops.max(1) as f64;
    }
    let count = schemes.len().max(1) as f64;
    for (name, sum) in RUNGS.iter().zip(sums) {
        out.put(name, sum / count);
    }
    out.put("model.lean_ns_per_hop", per_hop / count);
}

/// Looks a span path (`root` or `root.child`) up in a profiled forest.
fn span_ms(forest: &[SpanNode], path: &str) -> f64 {
    let mut level = forest;
    let mut found = 0.0;
    for name in path.split('.') {
        match level.iter().find(|s| s.name == name) {
            Some(span) => {
                found = span.total_ms();
                level = &span.children;
            }
            None => return 0.0,
        }
    }
    found
}

/// One profiled build per scheme, with the build counters on: the
/// `core.*` / `baselines.*` span metrics, `core.span_coverage`, the
/// `graph.build_*` counts. Returns the schemes and the summed wall time.
fn traced_builds(
    registry: &SchemeRegistry,
    cfg: &Config,
    g: &Graph,
    out: &mut Metrics,
) -> Result<(Vec<Scheme>, f64), String> {
    let ctx = context(cfg.graph_seed, 1);
    routing_obs::metrics::reset_counters();
    routing_obs::set_metrics(true);
    routing_obs::set_profiling(true);
    let mut schemes = Vec::new();
    let mut total_secs = 0.0;
    let mut coverage = f64::INFINITY;
    for key in cfg.workload.schemes {
        routing_obs::reset();
        let t = Instant::now();
        let built = registry.build(key, g, &ctx);
        let secs = t.elapsed().as_secs_f64();
        let forest = routing_obs::report();
        schemes.push(Scheme::from(built.map_err(|e| format!("{key}: {e}"))?));
        total_secs += secs;
        let roots_ms: f64 = forest.iter().map(SpanNode::total_ms).sum();
        coverage = coverage.min(roots_ms / (secs * 1e3));
        if let Some((layer, _, spans)) = SPAN_METRICS.iter().find(|(_, scheme, _)| scheme == key) {
            out.put(&span_metric_name(layer, key, "total"), secs * 1e3);
            for span in *spans {
                out.put(&span_metric_name(layer, key, span), span_ms(&forest, span));
            }
        }
    }
    routing_obs::set_profiling(false);
    routing_obs::set_metrics(false);
    routing_obs::reset();
    out.put("core.span_coverage", coverage);
    out.put("graph.build_settled_vertices", counters::BUILD_SETTLED_VERTICES.get() as f64);
    out.put("graph.build_early_exit_searches", counters::BUILD_EARLY_EXIT_SEARCHES.get() as f64);
    out.put("graph.build_frontier_resumes", counters::BUILD_FRONTIER_RESUMES.get() as f64);
    Ok((schemes, total_secs))
}

fn ratio(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// Shard statistics accumulated between two `stats()` calls.
struct ShardDelta {
    queries: Vec<u64>,
    busy_ns: Vec<u64>,
    batches: u64,
}

fn shard_delta(before: &[ShardStats], after: &[ShardStats]) -> ShardDelta {
    let pairs = || before.iter().zip(after);
    ShardDelta {
        queries: pairs().map(|(b, a)| a.queries - b.queries).collect(),
        busy_ns: pairs().map(|(b, a)| a.busy_ns - b.busy_ns).collect(),
        batches: pairs().map(|(b, a)| a.batches - b.batches).sum(),
    }
}

/// `serve.*` micro-timings that need engines of their own, after the
/// traced pass: start, publish, single-query hand-off, one shard, and the
/// single-thread lean loop the engine is compared with.
fn serve_extras(
    inp: &Inputs,
    target: &mut ServeTarget,
    first: &Scheme,
    budget: Duration,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let g = inp.graph.as_ref();
    // The started engines idle until the timing is over, so joining their
    // workers is not part of it.
    let mut started = Vec::new();
    let starts: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            started.push(ServeTarget::start(&inp.graph, first, None, SERVE_SHARDS));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    tally.record(started.iter().all(Result::is_ok));
    drop(started);
    out.put("serve.engine_start_ms", median(&starts));

    let mut published = true;
    let secs = median_secs(budget, || published &= target.publish().is_ok());
    tally.record(published);
    out.put("serve.publish_us", secs * 1e6);

    let mut lat: Vec<u64> = inp.slice(0)[..inp.slice_calls]
        .iter()
        .map(|&(u, v)| {
            let t = Instant::now();
            tally.record(target.engine.route(u, v).is_ok());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    lat.sort_unstable();
    out.put("serve.route_single_us", nearest_rank(&lat, 0.5) as f64 / 1e3);

    let plan = Plan { window: budget * 4, min_slices: 3 };
    let mut one = ServeTarget::start(&inp.graph, first, None, 1).map_err(|e| e.to_string())?;
    measure_serve(inp, &mut one, &WARM_UP, &mut Tally::default());
    out.put(
        "serve.qps_shards1",
        measure_serve(inp, &mut one, &plan, tally).over_slices(|s, _| s.qps).median,
    );

    // Engine and plain loop back to back, so the host is the same for both.
    let served = measure_serve(inp, target, &plan, tally).over_slices(|s, _| s.qps).median;
    let ttl = 4 * g.n() + 16;
    let slice = inp.slice(0);
    let secs = median_secs(budget * 4, || {
        for &(u, v) in slice {
            black_box(simulate_lean(g, first.as_ref(), u, v, ttl).is_ok());
        }
    });
    out.put("serve.speedup_vs_lean", served / (slice.len() as f64 / secs));
    Ok(())
}

/// The whole traced run of one workload.
pub fn run_traced(
    cfg: &Config,
    registry: &SchemeRegistry,
    inp: &Inputs,
    plan: &Plan,
    envelopes: &[Envelope],
    report: &mut Report,
) -> Result<(), String> {
    let w = cfg.workload;
    let g = inp.graph.as_ref();
    let serve = matches!(w.driver, Driver::Serve { .. });
    let budget = plan.window / 40;
    let mut out = Metrics(Vec::new());
    let tally = &mut report.tally;
    out.put("bench.gen_ms", inp.gen_ms);

    // Set-up three ways: plain (after a discarded warm-up build), profiled,
    // and on two threads.
    let timed_build = |threads: usize| -> Result<f64, String> {
        let t = Instant::now();
        let built = build_schemes(registry, w, g, &context(cfg.graph_seed, threads));
        let secs = t.elapsed().as_secs_f64();
        built.map(|_| secs).map_err(|e| e.to_string())
    };
    timed_build(1)?;
    let plain_secs = timed_build(1)?;
    let (schemes, traced_secs) = traced_builds(registry, cfg, g, &mut out)?;
    out.put("bench.trace_overhead", traced_secs / plain_secs);
    let threads = std::thread::available_parallelism().map_or(1, usize::from).min(2);
    out.put("par.setup_speedup_t2", plain_secs / timed_build(threads)?);
    routing_par::set_threads(1);

    // One query pass through the workload's driver with the counters on.
    let second = second_snapshot(registry, cfg, g).map_err(|e| e.to_string())?;
    let mut target = if serve {
        let started = ServeTarget::start(&inp.graph, &schemes[0], second.as_ref(), SERVE_SHARDS);
        Some(started.map_err(|e| e.to_string())?)
    } else {
        None
    };
    let pass = Plan { window: plan.window / 4, min_slices: plan.min_slices };
    routing_obs::metrics::reset_counters();
    routing_obs::set_metrics(true);
    let before = target.as_ref().map(|t| t.engine.stats());
    let m = query_pass(inp, &schemes, target.as_mut(), &pass, tally);
    let after = target.as_ref().map(|t| t.engine.stats());
    routing_obs::set_metrics(false);

    let qps = m.over_slices(|s, _| s.qps);
    out.put("bench.anchor_ms", median(&m.anchor_ms));
    out.put("bench.slice_spread", qps.spread());
    out.put("bench.route_p95_us", m.over_slices(|s, _| s.p95_us).median);
    out.put("bench.route_p95_over_p50", m.over_slices(|s, _| s.p95_us / s.p50_us).median);
    let queries = counters::ROUTING_QUERIES.get();
    out.put("model.hops_mean", ratio(counters::ROUTING_HOPS.get(), queries));
    out.put("model.header_words_mean", ratio(counters::ROUTING_HEADER_WORDS.get(), queries));
    let phases = [
        ("model.phase_direct_share", counters::ROUTING_PHASE_DIRECT.get()),
        ("model.phase_to_pivot_share", counters::ROUTING_PHASE_TO_PIVOT.get()),
        ("model.phase_tree_share", counters::ROUTING_PHASE_TREE.get()),
    ];
    let entered: u64 = phases.iter().map(|&(_, count)| count).sum();
    for (name, count) in phases {
        out.put(name, ratio(count, entered));
    }
    if let (Some(before), Some(after)) = (&before, &after) {
        // Counters and shard statistics both cover the warm-up slice too;
        // the client-side figures cover the measured slices only.
        let d = shard_delta(before, after);
        let served: u64 = d.queries.iter().sum();
        let hits = counters::SERVE_LABEL_CACHE_HITS.get();
        out.put(
            "serve.label_cache_hit_share",
            ratio(hits, hits + counters::SERVE_LABEL_CACHE_MISSES.get()),
        );
        out.put(
            "serve.snapshot_loads_per_batch",
            ratio(counters::SERVE_SNAPSHOT_LOADS.get(), d.batches),
        );
        out.put("serve.busy_ns_per_query", ratio(d.busy_ns.iter().sum(), served));
        let slowest = d.busy_ns.iter().copied().max().unwrap_or(0);
        out.put(
            "serve.wait_ns_per_query",
            m.busy.as_nanos() as f64 / m.queries.max(1) as f64 - ratio(slowest, served),
        );
        let busiest = d.queries.iter().copied().max().unwrap_or(0);
        out.put(
            "serve.shard_imbalance",
            busiest as f64 * d.queries.len() as f64 / served.max(1) as f64,
        );
        let mut inner = LatencyHistogram::new();
        after.iter().for_each(|s| inner.merge(&s.latency));
        out.put("serve.inner_p99_ns", inner.quantile(0.99).unwrap_or(0) as f64);
    }

    let checked = verify(inp, &schemes, target.as_ref(), envelopes, tally)?;
    for (scheme, c) in schemes.iter().zip(&checked) {
        report.notes.push(format!(
            "{} envelope checked on {} pairs, stretch mean {:.4}",
            scheme.name(),
            c.pairs,
            c.stretch_mean()
        ));
    }
    report.notes.push(format!(
        "traced pass: {} queries, route_qps {:.0} 1/s with counters on",
        m.queries, qps.median
    ));
    report.spreads.push(("bench.anchor_ms".into(), summarize(&m.anchor_ms)));

    let ladder_pairs = &inp.slice(0)[..inp.slice_calls.min(2048)];
    graph_layer(g, budget, &mut out);
    vicinity_layer(g, cfg.graph_seed, budget, &mut out, tally);
    tree_layer(g, ladder_pairs, budget, &mut out, tally);
    model_ladder(g, &schemes, ladder_pairs, budget * 2, &mut out);
    if let Some(target) = &mut target {
        serve_extras(inp, target, &schemes[0], budget, &mut out, tally)?;
    }
    report.metrics = out.0;
    Ok(())
}
