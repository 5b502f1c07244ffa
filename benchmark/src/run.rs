//! One run of one workload: inputs from the seed, the set-up repetitions,
//! the sliced query measurement with its same-run anchor, and the untimed
//! verification. `--trace 1` runs hand over to [`crate::layers`] for the
//! per-layer numbers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use compact_routing::registry::SchemeRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use routing_core::{BuildContext, BuildError};
use routing_graph::{Graph, VertexId};
use routing_model::{simulate, DynScheme};
use routing_serve::{EngineConfig, ServeError, ShardedEngine, ZipfWorkload};

use crate::alloc::{self, HeapReading};
use crate::anchor::{Adjacency, Fingerprint, UNREACHED};
use crate::layers;
use crate::spec::{
    Driver, Envelope, Workload, DEFAULT_SEED, SERVE_BATCH, SERVE_SHARDS, SWAP_EVERY, SWAP_SEED_XOR,
};
use crate::stats::{slice_stats, summarize, SliceStats, Summary};

pub type Pair = (VertexId, VertexId);
pub type Scheme = Arc<dyn DynScheme>;

pub struct Config {
    pub workload: &'static Workload,
    /// Seed of the traffic: query pairs, Zipf ranking, verification pairs.
    pub seed: u64,
    /// Seed of the graph and of the scheme builds. Fixed by default, so
    /// that table sizes, stretch and set-up work are the same at every
    /// traffic seed and any drift in them is a change in the program.
    pub graph_seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// n / 10, short slices and 1 + 1 set-up repetitions: every check and
    /// every metric name, in seconds.
    pub smoke: bool,
}

/// Work sizes of a run.
pub struct Sizes {
    pub n: usize,
    /// Timed set-up repetitions (after the warm-up / memory pass).
    pub setup_reps: usize,
    /// Driver calls per slice (per scheme on direct workloads).
    pub slice_calls: usize,
    /// Distinct slices of pre-generated pairs; later slices cycle.
    pub pool_slices: usize,
    pub min_slices: usize,
    pub check_sources: usize,
    pub check_dests: usize,
}

impl Sizes {
    fn of(cfg: &Config) -> Sizes {
        let serve = matches!(cfg.workload.driver, Driver::Serve { .. });
        if cfg.smoke {
            Sizes {
                n: cfg.workload.n / 10,
                setup_reps: 1,
                slice_calls: if serve { 128 } else { 256 },
                pool_slices: 4,
                min_slices: 3,
                check_sources: 16,
                check_dests: 64,
            }
        } else {
            Sizes {
                n: cfg.workload.n,
                setup_reps: 3,
                slice_calls: if serve { 256 } else { 2048 },
                pool_slices: if serve { 8 } else { 32 },
                min_slices: 5,
                check_sources: 64,
                check_dests: 256,
            }
        }
    }
}

/// Everything made from the seed before any clock starts.
pub struct Inputs {
    pub graph: Arc<Graph>,
    pub adj: Adjacency,
    pub fingerprint: Fingerprint,
    /// Pairs per driver call: 1 on direct workloads, `SERVE_BATCH` serving.
    pub call_len: usize,
    /// Threads the driver keeps busy: 1, or the shards of the engine.
    pub driver_width: usize,
    pub slice_calls: usize,
    pool: Vec<Pair>,
    /// Verification sources, each with its destinations.
    pub checks: Vec<(VertexId, Vec<VertexId>)>,
    pub gen_ms: f64,
}

impl Inputs {
    fn generate(cfg: &Config, sizes: &Sizes) -> Inputs {
        let t = Instant::now();
        let w = cfg.workload;
        let mut rng = StdRng::seed_from_u64(cfg.graph_seed);
        let graph = w.family.generate(sizes.n, w.weights, &mut rng);
        let n = graph.n();
        let adj = Adjacency::from_graph(&graph);
        let fingerprint = adj.fingerprint();

        let (call_len, driver_width, pool) = match w.driver {
            Driver::Direct => {
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e7f);
                let pairs = sizes.pool_slices * sizes.slice_calls;
                (1, 1, (0..pairs).map(|_| distinct_pair(n, &mut rng)).collect())
            }
            Driver::Serve { zipf_s, .. } => {
                let pairs = sizes.pool_slices * sizes.slice_calls * SERVE_BATCH;
                let pool = ZipfWorkload::new(n, zipf_s, cfg.seed).next_batch(pairs);
                (SERVE_BATCH, SERVE_SHARDS, pool)
            }
        };

        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xc4ec);
        let checks = (0..sizes.check_sources)
            .map(|_| {
                let u = rng.gen_range(0..n as u32);
                let dests = (0..sizes.check_dests)
                    .map(|_| loop {
                        let v = rng.gen_range(0..n as u32);
                        if v != u {
                            break VertexId(v);
                        }
                    })
                    .collect();
                (VertexId(u), dests)
            })
            .collect();

        Inputs {
            graph: Arc::new(graph),
            adj,
            fingerprint,
            call_len,
            driver_width,
            slice_calls: sizes.slice_calls,
            pool,
            checks,
            gen_ms: t.elapsed().as_secs_f64() * 1e3,
        }
    }

    /// The pairs of slice `k` (slices beyond the pool cycle through it).
    pub fn slice(&self, k: usize) -> &[Pair] {
        let len = self.slice_calls * self.call_len;
        let start = (k * len) % self.pool.len();
        &self.pool[start..start + len]
    }
}

fn distinct_pair(n: usize, rng: &mut StdRng) -> Pair {
    let u = rng.gen_range(0..n as u32);
    loop {
        let v = rng.gen_range(0..n as u32);
        if v != u {
            return (VertexId(u), VertexId(v));
        }
    }
}

/// Operations attempted and failed, over timed calls and checks alike.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The engine of a serve workload with the two snapshots it alternates.
pub struct ServeTarget {
    pub engine: ShardedEngine,
    graph: Arc<Graph>,
    snapshots: [Scheme; 2],
    /// Whether the client publishes every `SWAP_EVERY`-th batch.
    swaps: bool,
    publishes: u64,
}

impl ServeTarget {
    /// Starts an engine on `first`; with a `second` snapshot the client
    /// swaps between the two.
    pub fn start(
        graph: &Arc<Graph>,
        first: &Scheme,
        second: Option<&Scheme>,
        shards: usize,
    ) -> Result<ServeTarget, ServeError> {
        let engine = ShardedEngine::new(
            Arc::clone(graph),
            Arc::clone(first),
            EngineConfig::with_shards(shards),
        )?;
        Ok(ServeTarget {
            engine,
            graph: Arc::clone(graph),
            snapshots: [Arc::clone(first), Arc::clone(second.unwrap_or(first))],
            swaps: second.is_some(),
            publishes: 0,
        })
    }

    /// Publishes the snapshot that is not current. The engine starts on
    /// snapshot 0 at epoch 1, so epoch `e` always serves snapshot
    /// `(e - 1) % 2`.
    pub fn publish(&mut self) -> Result<u64, ServeError> {
        self.publishes += 1;
        let next = &self.snapshots[(self.publishes % 2) as usize];
        self.engine.publish(Arc::clone(&self.graph), Arc::clone(next))
    }

    fn scheme_of_epoch(&self, epoch: u64) -> &dyn DynScheme {
        self.snapshots[(epoch.wrapping_sub(1) % 2) as usize].as_ref()
    }
}

/// Every 16th served answer, kept for the check against direct simulation.
struct Sample {
    pair: Pair,
    weight: u64,
    hops: usize,
    header_words: usize,
    epoch: u64,
}

const SAMPLE_EVERY: u64 = 16;

/// What the sliced query measurement reads.
#[derive(Default)]
pub struct Measured {
    pub slices: Vec<SliceStats>,
    /// One reading before each slice and one after the last.
    pub anchor_ms: Vec<f64>,
    /// Per scheme, the slice throughputs (direct workloads).
    pub scheme_qps: Vec<Vec<f64>>,
    pub queries: u64,
    pub calls: u64,
    /// Time spent inside driver calls.
    pub busy: Duration,
    pub hops: u64,
    pub header_words_max: usize,
    samples: Vec<Sample>,
}

impl Measured {
    /// Summary over slices of `read(slice, anchor reading around it)`.
    pub fn over_slices(&self, read: impl Fn(&SliceStats, f64) -> f64) -> Summary {
        let values: Vec<f64> = self
            .slices
            .iter()
            .enumerate()
            .map(|(k, s)| read(s, around(&self.anchor_ms, k)))
            .collect();
        summarize(&values)
    }
}

/// The anchor around interval `k` of a series with one reading before
/// each interval and one after the last.
fn around(anchor_ms: &[f64], k: usize) -> f64 {
    (anchor_ms[k] + anchor_ms[k + 1]) / 2.0
}

/// The same-run anchor as a correction for host speed: a timing taken
/// while the anchor unit ran in `anchor_ms` is reported as it would read
/// on a host that runs the unit in exactly the nominal time. Host speed
/// on a shared sandbox drifts by tens of percent within minutes; the
/// anchor drifts with it, so the corrected figures repeat far better.
#[derive(Debug, Clone, Copy)]
pub struct Nominal {
    pub anchor_ms: f64,
}

impl Nominal {
    pub fn time(&self, raw: f64, anchor_ms: f64) -> f64 {
        raw * self.anchor_ms / anchor_ms
    }
    pub fn rate(&self, raw: f64, anchor_ms: f64) -> f64 {
        raw * anchor_ms / self.anchor_ms
    }
}

/// How long to measure.
pub struct Plan {
    pub window: Duration,
    pub min_slices: usize,
}

/// One discarded slice: callers run it (with a scratch [`Tally`]) before
/// the measured pass.
pub const WARM_UP: Plan = Plan { window: Duration::ZERO, min_slices: 1 };

/// Runs slices until the window closes: one pass of individually timed
/// driver calls each, with one anchor unit before every slice and one
/// after the last.
fn sliced(
    inp: &Inputs,
    plan: &Plan,
    m: &mut Measured,
    mut slice: impl FnMut(&[Pair], &mut Measured),
) {
    let start = Instant::now();
    let mut k = 0;
    m.anchor_ms.push(inp.adj.anchor_ms(inp.driver_width));
    while k < plan.min_slices || start.elapsed() < plan.window {
        slice(inp.slice(k), m);
        m.anchor_ms.push(inp.adj.anchor_ms(inp.driver_width));
        k += 1;
    }
}

pub fn measure_direct(
    inp: &Inputs,
    schemes: &[Scheme],
    plan: &Plan,
    tally: &mut Tally,
) -> Measured {
    let g = inp.graph.as_ref();
    let mut m = Measured { scheme_qps: vec![Vec::new(); schemes.len()], ..Measured::default() };
    let mut all = Vec::with_capacity(inp.slice_calls * schemes.len());
    let mut lat = Vec::with_capacity(inp.slice_calls);
    sliced(inp, plan, &mut m, |pairs, m| {
        all.clear();
        for (i, scheme) in schemes.iter().enumerate() {
            lat.clear();
            for &(u, v) in pairs {
                let t = Instant::now();
                // The path is dropped inside the timed call, as a caller's would be.
                let out = simulate(g, scheme.as_ref(), u, v).map(|o| (o.hops, o.max_header_words));
                lat.push(t.elapsed().as_nanos() as u64);
                tally.record(out.is_ok());
                if let Ok((hops, header_words)) = out {
                    m.hops += hops as u64;
                    m.header_words_max = m.header_words_max.max(header_words);
                }
            }
            let busy: u64 = lat.iter().sum();
            m.scheme_qps[i].push(lat.len() as f64 / (busy.max(1) as f64 / 1e9));
            m.busy += Duration::from_nanos(busy);
            m.queries += lat.len() as u64;
            m.calls += lat.len() as u64;
            all.extend_from_slice(&lat);
        }
        m.slices.push(slice_stats(&mut all, 1));
    });
    m
}

pub fn measure_serve(
    inp: &Inputs,
    target: &mut ServeTarget,
    plan: &Plan,
    tally: &mut Tally,
) -> Measured {
    let mut m = Measured::default();
    let mut lat = Vec::with_capacity(inp.slice_calls);
    let mut last_epoch = 0u64;
    sliced(inp, plan, &mut m, |pairs, m| {
        lat.clear();
        for batch in pairs.chunks(inp.call_len) {
            m.calls += 1;
            if target.swaps && m.calls % SWAP_EVERY == 0 {
                tally.record(target.publish().is_ok());
            }
            let t = Instant::now();
            let answers = target.engine.route_batch(batch);
            lat.push(t.elapsed().as_nanos() as u64);
            for (i, &pair) in batch.iter().enumerate() {
                m.queries += 1;
                let Some(Ok(a)) = answers.get(i) else {
                    tally.record(false);
                    continue;
                };
                // One client, and it publishes between its own calls: the
                // epochs it sees never go back.
                tally.record(a.epoch >= last_epoch);
                last_epoch = a.epoch;
                m.hops += a.hops as u64;
                m.header_words_max = m.header_words_max.max(a.max_header_words);
                if m.queries % SAMPLE_EVERY == 0 {
                    m.samples.push(Sample {
                        pair,
                        weight: a.weight,
                        hops: a.hops,
                        header_words: a.max_header_words,
                        epoch: a.epoch,
                    });
                }
            }
        }
        m.busy += Duration::from_nanos(lat.iter().sum());
        m.slices.push(slice_stats(&mut lat, inp.call_len));
    });
    m
}

/// One discarded warm-up slice, then the measured pass through the
/// workload's driver; served samples are checked before returning.
pub fn query_pass(
    inp: &Inputs,
    schemes: &[Scheme],
    target: Option<&mut ServeTarget>,
    plan: &Plan,
    tally: &mut Tally,
) -> Measured {
    match target {
        Some(t) => {
            measure_serve(inp, t, &WARM_UP, &mut Tally::default());
            let m = measure_serve(inp, t, plan, tally);
            check_samples(inp, t, &m, tally);
            m
        }
        None => {
            measure_direct(inp, schemes, &WARM_UP, &mut Tally::default());
            measure_direct(inp, schemes, plan, tally)
        }
    }
}

/// Every sampled served answer must equal direct simulation on the
/// snapshot of its epoch.
fn check_samples(inp: &Inputs, target: &ServeTarget, m: &Measured, tally: &mut Tally) {
    for s in &m.samples {
        let direct = simulate(&inp.graph, target.scheme_of_epoch(s.epoch), s.pair.0, s.pair.1);
        tally.record(direct.is_ok_and(|d| {
            (d.weight, d.hops, d.max_header_words) == (s.weight, s.hops, s.header_words)
        }));
    }
}

/// What the envelope check reads besides pass/fail.
#[derive(Default)]
pub struct Checked {
    pub pairs: u64,
    pub stretch_sum: f64,
    pub header_words_max: usize,
}

impl Checked {
    /// Mean routed / exact over the checked pairs.
    pub fn stretch_mean(&self) -> f64 {
        self.stretch_sum / self.pairs.max(1) as f64
    }
}

/// Routes the verification pairs through `route` (the workload's driver;
/// `None` marks a failed query) and holds every answer against the
/// scheme's envelope over the anchor's exact distances.
pub fn check_envelope(
    inp: &Inputs,
    envelope: &Envelope,
    tally: &mut Tally,
    mut route: impl FnMut(&[Pair]) -> Vec<Option<(u64, usize)>>,
) -> Checked {
    let mut checked = Checked::default();
    let mut dist = Vec::new();
    for (u, dests) in &inp.checks {
        inp.adj.dijkstra(u.0, &mut dist);
        let pairs: Vec<Pair> = dests.iter().map(|&v| (*u, v)).collect();
        let answers = route(&pairs);
        for (i, &(_, v)) in pairs.iter().enumerate() {
            let d = dist[v.index()];
            let ok = match answers.get(i).copied().flatten() {
                Some((weight, header_words)) if d != UNREACHED => {
                    checked.pairs += 1;
                    checked.stretch_sum += weight as f64 / d as f64;
                    checked.header_words_max = checked.header_words_max.max(header_words);
                    weight >= d && weight as f64 <= envelope.allowed(d) + 1e-9
                }
                _ => false,
            };
            tally.record(ok);
        }
    }
    checked
}

/// What the set-up repetitions leave: the last repetition's schemes (and
/// engine), the memory pass's heap readings, the timed repetitions.
pub struct SetUp {
    pub schemes: Vec<Scheme>,
    pub target: Option<ServeTarget>,
    pub seconds: Vec<f64>,
    /// One anchor reading before each timed repetition and one after the last.
    pub anchor_ms: Vec<f64>,
    pub heap: Vec<HeapReading>,
}

pub fn context(seed: u64, threads: usize) -> BuildContext {
    BuildContext { seed: seed ^ 0xb111d, threads, ..BuildContext::default() }
}

pub fn build_schemes(
    registry: &SchemeRegistry,
    w: &Workload,
    g: &Graph,
    ctx: &BuildContext,
) -> Result<Vec<Scheme>, BuildError> {
    w.schemes.iter().map(|key| registry.build(key, g, ctx).map(Scheme::from)).collect()
}

/// The second snapshot of a swapping serve workload: the same scheme
/// rebuilt from another seed. An input of the workload, not set-up.
pub fn second_snapshot(
    registry: &SchemeRegistry,
    cfg: &Config,
    g: &Graph,
) -> Result<Option<Scheme>, BuildError> {
    match cfg.workload.driver {
        Driver::Serve { swap: true, .. } => {
            let ctx = context(cfg.graph_seed ^ SWAP_SEED_XOR, 1);
            Ok(build_schemes(registry, cfg.workload, g, &ctx)?.pop())
        }
        _ => Ok(None),
    }
}

/// Graph in hand to ready to answer, `1 + reps` times. Repetition 0 warms
/// up and is the memory pass (counting allocator armed around each build);
/// the others are timed with it disarmed, each worth the sum over the
/// workload's schemes plus the engine start when serving.
fn set_up(
    registry: &SchemeRegistry,
    cfg: &Config,
    inp: &Inputs,
    reps: usize,
) -> Result<SetUp, String> {
    let w = cfg.workload;
    let g = inp.graph.as_ref();
    let ctx = context(cfg.graph_seed, 1);
    let mut heap = Vec::new();
    for key in w.schemes {
        let (built, reading) = alloc::measure(|| registry.build(key, g, &ctx));
        built.map_err(|e| format!("{key}: {e}"))?;
        heap.push(reading);
    }

    let second = second_snapshot(registry, cfg, g).map_err(|e| e.to_string())?;
    let mut seconds = Vec::new();
    // Builds run at `threads = 1`, so their anchor does too.
    let mut anchor_ms = vec![inp.adj.anchor_ms(1)];
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        let schemes = build_schemes(registry, w, g, &ctx).map_err(|e| e.to_string())?;
        let mut elapsed = t.elapsed();
        let target = match w.driver {
            Driver::Direct => None,
            Driver::Serve { .. } => {
                let t = Instant::now();
                let target =
                    ServeTarget::start(&inp.graph, &schemes[0], second.as_ref(), SERVE_SHARDS)
                        .map_err(|e| e.to_string())?;
                elapsed += t.elapsed();
                Some(target)
            }
        };
        seconds.push(elapsed.as_secs_f64());
        anchor_ms.push(inp.adj.anchor_ms(1));
        last = Some((schemes, target));
    }
    let (schemes, target) = last.ok_or("no set-up repetition ran")?;
    Ok(SetUp { schemes, target, seconds, anchor_ms, heap })
}

const MIB: f64 = (1 << 20) as f64;

pub struct Report {
    pub fingerprint: Fingerprint,
    pub fingerprint_ok: bool,
    pub tally: Tally,
    /// The mode's metrics by name.
    pub metrics: Vec<(String, f64)>,
    /// Quartiles and counts behind the medians, for `--json`.
    pub spreads: Vec<(String, Summary)>,
    /// The raw series behind them (per slice, per repetition), for `--json`.
    pub series: Vec<(String, Vec<f64>)>,
    /// Lines for the reader that are not metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.fingerprint_ok && self.tally.failed == 0
    }
}

/// Σ over schemes of max over vertices of `words(scheme, v)`.
fn words_max(
    g: &Graph,
    schemes: &[Scheme],
    words: impl Fn(&dyn DynScheme, VertexId) -> usize,
) -> f64 {
    schemes
        .iter()
        .map(|s| g.vertices().map(|v| words(s.as_ref(), v)).max().unwrap_or(0))
        .sum::<usize>() as f64
}

/// The envelope check of every scheme through the workload's driver.
pub fn verify(
    inp: &Inputs,
    schemes: &[Scheme],
    target: Option<&ServeTarget>,
    envelopes: &[Envelope],
    tally: &mut Tally,
) -> Result<Vec<Checked>, String> {
    let g = inp.graph.as_ref();
    schemes
        .iter()
        .map(|scheme| {
            let envelope = envelopes
                .iter()
                .find(|e| e.scheme == scheme.name())
                .ok_or_else(|| format!("no envelope for {}", scheme.name()))?;
            Ok(check_envelope(inp, envelope, tally, |pairs| match target {
                Some(t) => t
                    .engine
                    .route_batch(pairs)
                    .into_iter()
                    .map(|a| a.ok().map(|a| (a.weight, a.max_header_words)))
                    .collect(),
                None => pairs
                    .iter()
                    .map(|&(u, v)| {
                        simulate(g, scheme.as_ref(), u, v)
                            .ok()
                            .map(|o| (o.weight, o.max_header_words))
                    })
                    .collect(),
            }))
        })
        .collect()
}

/// Runs the configured workload once. `envelopes` is a parameter so the
/// negative-control self-test can tighten a row.
pub fn run(cfg: &Config, envelopes: &[Envelope]) -> Result<Report, String> {
    let sizes = Sizes::of(cfg);
    let w = cfg.workload;
    let registry = SchemeRegistry::with_defaults();
    let inp = Inputs::generate(cfg, &sizes);
    let fingerprint_ok =
        cfg.smoke || cfg.graph_seed != DEFAULT_SEED || inp.fingerprint == w.fingerprint;
    let plan = Plan { window: Duration::from_secs_f64(cfg.seconds), min_slices: sizes.min_slices };
    let mut report = Report {
        fingerprint: inp.fingerprint,
        fingerprint_ok,
        tally: Tally::default(),
        metrics: Vec::new(),
        spreads: Vec::new(),
        series: Vec::new(),
        notes: Vec::new(),
    };

    if cfg.trace {
        layers::run_traced(cfg, &registry, &inp, &plan, envelopes, &mut report)?;
        return Ok(report);
    }

    let SetUp { schemes, mut target, seconds, anchor_ms: setup_anchor_ms, heap } =
        set_up(&registry, cfg, &inp, sizes.setup_reps)?;
    let tally = &mut report.tally;
    let m = query_pass(&inp, &schemes, target.as_mut(), &plan, tally);
    let checked = verify(&inp, &schemes, target.as_ref(), envelopes, tally)?;

    let g = inp.graph.as_ref();
    let stretch_mean =
        checked.iter().map(Checked::stretch_mean).sum::<f64>() / checked.len() as f64;
    let header_words_max =
        checked.iter().map(|c| c.header_words_max).fold(m.header_words_max, usize::max);
    let (setup_anchor, driver_anchor) = (summarize(&setup_anchor_ms), summarize(&m.anchor_ms));
    // Smoke inputs have no nominal speed on record: their own medians stand in.
    let (built_at, served_at) = if cfg.smoke {
        (Nominal { anchor_ms: setup_anchor.median }, Nominal { anchor_ms: driver_anchor.median })
    } else {
        (Nominal { anchor_ms: w.nominal_ms.0 }, Nominal { anchor_ms: w.nominal_ms.1 })
    };
    let setups = |read: &dyn Fn(f64, f64) -> f64| -> Summary {
        let reps = seconds.iter().enumerate().map(|(k, &s)| read(s, around(&setup_anchor_ms, k)));
        summarize(&reps.collect::<Vec<_>>())
    };
    let setup = setups(&|s, a| built_at.time(s, a));
    let qps = m.over_slices(|s, a| served_at.rate(s.qps, a));
    let p50 = m.over_slices(|s, a| served_at.time(s.p50_us, a));
    let p95 = m.over_slices(|s, a| served_at.time(s.p95_us, a));
    // Information only: on a shared host the tail of a millisecond-long
    // served batch measures the neighbours (see README, "The tail").
    let tail = m.over_slices(|s, _| s.p95_us / s.p50_us);
    report.metrics = vec![
        ("setup_s".into(), setup.median),
        ("route_qps".into(), qps.median),
        ("route_p50_us".into(), p50.median),
        ("peak_build_mib".into(), heap.iter().map(|h| h.peak).max().unwrap_or(0) as f64 / MIB),
        ("table_mib".into(), heap.iter().map(|h| h.retained).sum::<usize>() as f64 / MIB),
        ("table_words_max".into(), words_max(g, &schemes, |s, v| s.table_words(v))),
        ("label_words_max".into(), words_max(g, &schemes, |s, v| s.label_words(v))),
        ("header_words_max".into(), header_words_max as f64),
        ("stretch_mean".into(), stretch_mean),
    ];
    report.spreads = vec![
        ("setup_s".into(), setup),
        ("route_qps".into(), qps),
        ("route_p50_us".into(), p50),
        ("route_p95_over_p50".into(), tail),
        ("route_p95_us".into(), p95),
        ("raw.setup_s".into(), setups(&|s, _| s)),
        ("raw.route_qps".into(), m.over_slices(|s, _| s.qps)),
        ("raw.route_p50_us".into(), m.over_slices(|s, _| s.p50_us)),
        ("raw.route_p95_us".into(), m.over_slices(|s, _| s.p95_us)),
        ("bench.setup_anchor_ms".into(), setup_anchor),
        ("bench.anchor_ms".into(), driver_anchor),
    ];
    let per_slice = |read: fn(&SliceStats) -> f64| m.slices.iter().map(read).collect::<Vec<_>>();
    report.series = vec![
        ("setup_s".into(), seconds),
        ("setup_anchor_ms".into(), setup_anchor_ms),
        ("slice_qps".into(), per_slice(|s| s.qps)),
        ("slice_p50_us".into(), per_slice(|s| s.p50_us)),
        ("slice_p95_us".into(), per_slice(|s| s.p95_us)),
        ("slice_anchor_ms".into(), m.anchor_ms.clone()),
    ];
    report.notes.push(format!(
        "timings are at nominal host speed (anchor unit = {} ms around set-ups, {} ms around \
         slices); raw.* are as measured",
        built_at.anchor_ms, served_at.anchor_ms
    ));
    for (scheme, qps) in schemes.iter().zip(&m.scheme_qps) {
        report.notes.push(format!("{} route_qps {:.0} 1/s", scheme.name(), summarize(qps).median));
    }
    for ((scheme, heap), c) in schemes.iter().zip(&heap).zip(&checked) {
        report.notes.push(format!(
            "{} peak {:.2} MiB, table {:.2} MiB, stretch mean {:.4} over {} pairs",
            scheme.name(),
            heap.peak as f64 / MIB,
            heap.retained as f64 / MIB,
            c.stretch_mean(),
            c.pairs
        ));
    }
    report.notes.push(format!(
        "{} queries in {} driver calls, {:.2} hops per query",
        m.queries,
        m.calls,
        m.hops as f64 / m.queries.max(1) as f64
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, ENVELOPES};

    fn smoke(name: &str, trace: bool) -> Config {
        Config {
            workload: workload(name).unwrap(),
            seed: 21,
            graph_seed: DEFAULT_SEED,
            seconds: 0.2,
            trace,
            smoke: true,
        }
    }

    #[test]
    fn smoke_runs_verify_and_report_every_metric() {
        for w in ["t1-er-direct", "serve-zipf-swap"] {
            let report = run(&smoke(w, false), &ENVELOPES).unwrap();
            assert!(
                report.correct(),
                "{w}: {} of {} failed",
                report.tally.failed,
                report.tally.attempted
            );
            assert!(report.tally.attempted > 1000);
            let names: Vec<&str> = report.metrics.iter().map(|(n, _)| n.as_str()).collect();
            let defs = crate::spec::end_to_end_defs();
            assert_eq!(names, defs.iter().map(|d| d.name.as_str()).collect::<Vec<_>>());
            assert!(report.metrics.iter().all(|&(_, v)| v > 0.0), "{w}: {:?}", report.metrics);
        }
    }

    #[test]
    fn traced_smoke_runs_report_listed_layer_metrics_only() {
        let defs = crate::spec::per_layer_defs();
        let value = |report: &Report, name: &str| {
            report
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        let direct = run(&smoke("t2-geo-direct", true), &ENVELOPES).unwrap();
        let served = run(&smoke("serve-zipf-swap", true), &ENVELOPES).unwrap();
        for report in [&direct, &served] {
            assert!(
                report.correct(),
                "{} of {} failed",
                report.tally.failed,
                report.tally.attempted
            );
            for (name, _) in &report.metrics {
                assert!(defs.iter().any(|d| d.name == *name), "{name} is not in the table");
            }
            assert!(value(report, "core.span_coverage") >= 0.9);
            assert!(value(report, "model.hops_mean") > 1.0);
            assert!(value(report, "core.thm11.total_ms") > 0.0);
        }
        assert!(value(&direct, "baselines.tz3.cluster-trees_ms") > 0.0);
        assert!(direct.metrics.iter().all(|(n, _)| !n.starts_with("serve.")));
        assert!(value(&served, "serve.label_cache_hit_share") > 0.05);
        assert!(value(&served, "serve.qps_shards1") > 0.0);
    }

    #[test]
    fn a_tightened_envelope_is_caught() {
        // Negative control: no compact scheme routes everything at stretch 1.
        let mut tight = ENVELOPES;
        for e in &mut tight {
            *e = Envelope { base: 1.0, eps_coeff: 0.0, additive: 0.0, ..*e };
        }
        let report = run(&smoke("t2-geo-direct", false), &tight).unwrap();
        assert!(report.tally.failed > 0);
        assert!(!report.correct());
        assert_ne!(crate::exit_code(&report), 0);
    }

    #[test]
    fn same_seed_same_inputs() {
        let cfg = smoke("serve-uniform", false);
        let a = Inputs::generate(&cfg, &Sizes::of(&cfg));
        let b = Inputs::generate(&cfg, &Sizes::of(&cfg));
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.pool, b.pool);
        assert_eq!(a.checks, b.checks);
        // The traffic seed moves the traffic and only the traffic.
        let other = Config { seed: 22, ..cfg };
        let c = Inputs::generate(&other, &Sizes::of(&other));
        assert_eq!(c.fingerprint, a.fingerprint);
        assert_ne!(c.pool, a.pool);
        assert_ne!(c.checks, a.checks);
        let regraphed = Config { graph_seed: 14, ..other };
        assert_ne!(Inputs::generate(&regraphed, &Sizes::of(&regraphed)).fingerprint, a.fingerprint);
    }
}
