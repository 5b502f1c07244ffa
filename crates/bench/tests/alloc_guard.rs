//! Allocation guard for the routed-query hot path.
//!
//! With profiling and metrics disabled (the default state of every binary
//! that doesn't pass `--metrics`), the instrumentation compiled into the
//! hot paths must cost **zero heap allocations** — a disabled `span()` is
//! one relaxed load returning an inert guard, and a disabled `Counter::inc`
//! is a load and a branch. Enabled counters are static atomics, so they
//! allocate nothing either.
//!
//! The query path itself allocates nothing for any key of the default
//! registry: labels and headers are stack values that view the scheme's own
//! tables, and the walk is one typed loop. After warm-up, per query:
//! `simulate_lean`, `simulate_lean_with_label` and a lean `walk_many` batch
//! make 0 allocations, `simulate` makes exactly 1 (its path, reserved once)
//! on a walk that fits the reservation, and a serving lane makes its labels
//! on the stack, so a batch of 1024 distinct destinations allocates no more
//! than a batch of 1024 queries towards one, at one lane and at two.
//!
//! The same allocator also bounds six builds' memory: the ball table's
//! peak live bytes, with distances and without, its members packed at the
//! graph's width (see `assert_ball_build_peak`), Theorem 15's, whose
//! Lemma 5 hitting set reads a table without distances in place (see
//! `assert_multilevel_build_peak`), Theorem 11's, whose Lemma 8 store is
//! filled a colour class of packed sequence chunks at a time, beside
//! colours and representatives packed at the graph's width (see
//! `assert_thm11_build_peak`), Theorem 10's, whose Lemma 7 store is filled
//! a round of chunks at a time and whose landmark and hitting-set trees
//! keep no labels (see `assert_thm10_build_peak`), Theorem 16's,
//! whose vicinities are built with no ball table, before its hierarchy (see
//! `assert_thm16_build_peak`), and the Thorup–Zwick hierarchy's, whose
//! cluster trees and packed members are appended a round of roots at a
//! time (see `assert_hierarchy_build_peak`). And it counts what a cluster
//! family keeps: a fixed number of allocations, however many trees it holds
//! (see `assert_cluster_family_allocations`), and holds the bytes a tree
//! forest, a cluster family, a Thorup–Zwick hierarchy, Theorem 16's
//! vicinities, a ball table with distances and one without, and the ports
//! each leaves, keep live to their `heap_bytes()`, exactly (see
//! `assert_kept_bytes_are_heap_bytes`).
//!
//! The guard counts allocations, and live and peak bytes, through the
//! counting `#[global_allocator]` that `routing_bench::alloc` defines (the
//! `experiments peak` command counts with the same one). Everything lives
//! in ONE `#[test]` so no sibling test can allocate concurrently and
//! pollute the counters (the
//! default libtest runner is multi-threaded *across* tests in a binary,
//! and reports a finished test from its main thread).

use std::sync::Arc;

use compact_routing::registry::SchemeRegistry;
use compact_routing::tree::{Labels, TreeForest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use routing_bench::alloc::{
    allocations_in, kept_bytes_in, live_allocations, live_bytes, peak_bytes_in,
};
use routing_baselines::thm16::vicinities;
use routing_baselines::{ExactScheme, Thm16Scheme, TzHierarchy, TzLevels};
use routing_core::{
    BuildContext, BuildError, ClusterFamily, DistLists, Params, SchemeFivePlusEps, SchemeMultilevel,
    SchemeTwoPlusEps,
};
use routing_graph::generators::{self, Family, WeightModel};
use routing_core::Technique1Router;
use routing_graph::codec::bytes_for;
use routing_graph::scratch::BFS_BATCH_WIDTH;
use routing_graph::{BfsBatch, Graph, PackedColumn, SearchScratch, SlotCodec, VertexId, SLOT_PAD};
use routing_model::{hop_budget, simulate, simulate_lean, simulate_lean_with_label, DynScheme, ErasedLabel};
use routing_serve::{EngineConfig, ShardedEngine};
use routing_vicinity::{sample_centers_bounded, BallDists, BallEncoding, BallTable, RankBitmap};

routing_bench::counting_allocator!(CountingAlloc);

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Queries per key and graph, and the size of each serving batch.
const PAIRS: usize = 200;
const BATCH: usize = 1024;

/// The `simulate` path holds this many vertices before it regrows; a walk
/// of fewer hops makes exactly one allocation.
const PATH_FITS: usize = 32;

/// `count` random pairs of distinct vertices.
fn pairs(n: usize, count: usize, rng: &mut StdRng) -> Vec<(VertexId, VertexId)> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
        if u != v {
            out.push((VertexId(u), VertexId(v)));
        }
    }
    out
}

/// The per-query allocation counts of one scheme, after one warm pass of
/// every call: lean walks make none, a lean `walk_many` batch none,
/// `simulate` one per query, and a 1024-destination batch no more than a
/// one-destination batch, at one lane and at two.
fn assert_query_path_allocations(g: &Arc<Graph>, scheme: Arc<dyn DynScheme>, what: &str) {
    let mut rng = StdRng::seed_from_u64(0xa110c);
    let n = g.n();
    let ttl = hop_budget(n);
    let queries = pairs(n, PAIRS, &mut rng);
    let s = scheme.as_ref();
    let labels: Vec<ErasedLabel> = queries.iter().map(|&(_, v)| s.label_of(v)).collect();
    let mut by_dest = queries.clone();
    by_dest.sort_unstable_by_key(|&(u, v)| (v, u));
    let uniform = pairs(n, BATCH, &mut rng);
    // The same sources, all towards vertex 0 (a source 0 goes to 1).
    let one_dest: Vec<(VertexId, VertexId)> =
        uniform.iter().map(|&(u, _)| (u, VertexId(u32::from(u.0 == 0)))).collect();
    let engines: Vec<ShardedEngine> = [1, 2]
        .map(|shards| {
            let config = EngineConfig::with_shards(shards);
            ShardedEngine::new(Arc::clone(g), Arc::clone(&scheme), config).expect("engine")
        })
        .into();

    // Warm every call once, outside the counted windows; every pair routes.
    for (&(u, v), label) in queries.iter().zip(&labels) {
        let out = simulate(g, s, u, v).unwrap_or_else(|e| panic!("{what}: {u}->{v}: {e}"));
        assert!(out.path.len() <= PATH_FITS, "{what}: {u}->{v} outgrows the reserved path");
        simulate_lean(g, s, u, v, ttl).expect("lean walk routes");
        simulate_lean_with_label(g, s, u, v, label, ttl).expect("labelled walk routes");
    }
    let mut routed = 0;
    s.walk_many(g, &by_dest, ttl, None, &mut |_, out| routed += usize::from(out.is_ok()));
    assert_eq!(routed, PAIRS, "{what}: walk_many fails a pair");
    for (engine, batch) in engines.iter().flat_map(|e| [(e, &uniform), (e, &one_dest)]) {
        assert!(engine.route_batch(batch).iter().all(Result::is_ok), "{what}: a batch fails");
    }
    // The counters see every thread. A helper lane that the caller outran
    // in the batches above has not started up yet, and would make its
    // thread's first allocations inside a counted window: warm until every
    // lane has routed a chunk.
    for engine in &engines {
        let mut rounds = 0;
        while engine.stats().iter().any(|lane| lane.queries == 0) {
            assert!(rounds < 10_000, "{what}: a helper lane never took a chunk");
            engine.route_batch(&uniform);
            rounds += 1;
        }
    }

    let (allocs, ()) = allocations_in(|| {
        for &(u, v) in &queries {
            simulate_lean(g, s, u, v, ttl).expect("lean walk routes");
        }
    });
    assert_eq!(allocs, 0, "{what}: simulate_lean allocated {allocs} times over {PAIRS} queries");

    let (allocs, ()) = allocations_in(|| {
        for (&(u, v), label) in queries.iter().zip(&labels) {
            simulate_lean_with_label(g, s, u, v, label, ttl).expect("labelled walk routes");
        }
    });
    assert_eq!(allocs, 0, "{what}: simulate_lean_with_label allocated {allocs} times");

    let (allocs, ()) = allocations_in(|| {
        for &(u, v) in &queries {
            drop(simulate(g, s, u, v).expect("simulate routes"));
        }
    });
    assert_eq!(allocs, PAIRS as u64, "{what}: simulate must allocate its path and nothing else");

    let (allocs, ()) = allocations_in(|| {
        s.walk_many(g, &by_dest, ttl, None, &mut |_, out| assert!(out.is_ok(), "{what}: {out:?}"));
    });
    assert_eq!(allocs, 0, "{what}: walk_many allocated {allocs} times over {PAIRS} queries");

    for engine in &engines {
        let shards = engine.shards();
        let (uniform_allocs, _) = allocations_in(|| engine.route_batch(&uniform));
        let (one_dest_allocs, _) = allocations_in(|| engine.route_batch(&one_dest));
        assert!(
            uniform_allocs <= one_dest_allocs,
            "{what}, {shards} lanes: {BATCH} destinations cost {uniform_allocs} allocations, \
             one costs {one_dest_allocs}: a label-cache miss allocates"
        );
    }
}

#[test]
fn disabled_telemetry_adds_zero_allocations_to_hot_paths() {
    // The process default, restated so the guard cannot be weakened by test
    // environment drift.
    routing_obs::set_profiling(false);
    routing_obs::set_metrics(false);

    // (a) The instrumentation primitives themselves: a disabled span guard
    // and a disabled counter increment must never touch the allocator.
    let (n, ()) = allocations_in(|| {
        for _ in 0..10_000 {
            let _span = routing_obs::span("alloc-guard-probe");
            routing_obs::counters::ROUTING_QUERIES.inc();
            routing_obs::counters::ROUTING_HOPS.add(3);
        }
    });
    assert_eq!(n, 0, "disabled span()/Counter must be allocation-free, saw {n} allocations");

    // (b) The routed-query hot path end to end on the exact scheme, with a
    // pre-erased destination label: any allocation the telemetry layer
    // sneaks into the simulator shows up here.
    let mut rng = StdRng::seed_from_u64(42);
    let g = generators::erdos_renyi(80, 0.08, WeightModel::Uniform { lo: 1, hi: 9 }, &mut rng);
    let scheme = ExactScheme::build(&g).expect("seeded G(80, 0.08) builds");
    let dyn_scheme: &dyn DynScheme = &scheme;
    let source = VertexId(0);
    let dest = VertexId(17);
    let label = dyn_scheme.label_of(dest);

    // Warm once outside the counted window (and make sure the pair routes).
    simulate_lean_with_label(&g, dyn_scheme, source, dest, &label, g.n())
        .expect("warm-up query routes");

    let (n, outcome) = allocations_in(|| {
        let mut last = None;
        for _ in 0..1_000 {
            last = Some(
                simulate_lean_with_label(&g, dyn_scheme, source, dest, &label, g.n())
                    .expect("counted query routes"),
            );
        }
        last.unwrap()
    });
    assert!(outcome.hops > 0, "the probe pair must actually traverse edges");
    assert_eq!(
        n, 0,
        "routed-query hot path must be allocation-free with telemetry disabled, \
         saw {n} allocations over 1000 queries"
    );

    // (c) Enabling metrics must not change that: counters are static
    // atomics, so even the *enabled* query path stays allocation-free.
    routing_obs::set_metrics(true);
    let (n, _) = allocations_in(|| {
        for _ in 0..1_000 {
            simulate_lean_with_label(&g, dyn_scheme, source, dest, &label, g.n())
                .expect("counted query routes");
        }
    });
    routing_obs::set_metrics(false);
    assert_eq!(n, 0, "enabled counters are static atomics; saw {n} allocations");
    assert!(
        routing_obs::counters::ROUTING_QUERIES.get() >= 1_000,
        "the enabled window must have recorded its queries"
    );
    routing_obs::metrics::reset_counters();

    // (d) Every key of the default registry, on a unit and a weighted
    // Erdős–Rényi graph, with metrics off and on. Theorem 10 is stated for
    // unweighted graphs and refuses the weighted one; every other build
    // must succeed.
    let registry = SchemeRegistry::with_defaults();
    let ctx = BuildContext { seed: 7, threads: 1, ..BuildContext::default() };
    let mut checked = 0;
    for weights in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 32 }] {
        let g = Arc::new(Family::ErdosRenyi.generate(150, weights, &mut rng));
        for key in registry.names() {
            let scheme = match registry.build(key, &g, &ctx) {
                Ok(scheme) => Arc::from(scheme),
                Err(_) if key == "thm10" && !matches!(weights, WeightModel::Unit) => continue,
                Err(e) => panic!("{key} on {weights:?}: {e}"),
            };
            for metrics in [false, true] {
                routing_obs::set_metrics(metrics);
                let what = format!("{key} on {weights:?}, metrics {metrics}");
                assert_query_path_allocations(&g, Arc::clone(&scheme), &what);
                checked += 1;
            }
            routing_obs::set_metrics(false);
        }
    }
    routing_obs::metrics::reset_counters();
    assert_eq!(checked, 2 * (2 * registry.names().len() - 1), "every key, both graphs but one");

    // (e) Six builds' memory, with the same allocator.
    assert_ball_build_peak();
    assert_multilevel_build_peak();
    assert_thm11_build_peak();
    assert_thm10_build_peak();
    assert_kept_bytes_are_heap_bytes();
}

/// The `t1-er-direct` graph: a unit-weight Erdős–Rényi graph, n = 2000,
/// graph seed 13.
fn t1_graph() -> Graph {
    Family::ErdosRenyi.generate(2000, WeightModel::Unit, &mut StdRng::seed_from_u64(13))
}

/// The ball table's build, in both shapes. With distances at thm16k3's
/// ℓ = 219 on the `t2-geo-direct` graph (a weighted geometric graph,
/// n = 6000, graph seed 13), whose slot regions need 1,541 more slots than
/// the `n · (cap + 2)` reserved up front; without at thm15's ℓ = 1372 on
/// the `t1-er-direct` graph, through the batch BFS. Each build's peak must
/// stay within the table it keeps plus one block of per-vertex search
/// results and the worker's workspace: growing the slot array by doubling
/// would add a second slot array on top, and distances collected for a
/// table that keeps none would add 8 bytes a member of the block.
fn assert_ball_build_peak() {
    const ELL: usize = 219;
    routing_par::set_threads(1);
    let weights = WeightModel::Uniform { lo: 1, hi: 32 };
    let g = Family::Geometric.generate(6000, weights, &mut StdRng::seed_from_u64(13));
    // A workspace is charged as it stands after one search: the batch BFS
    // sizes its port and member logs on its first run.
    let (workspace, _) = peak_bytes_in(|| {
        let mut scratch = SearchScratch::for_graph(&g);
        scratch.ball_into(&g, VertexId(0), ELL);
        scratch
    });
    assert_ball_build_within_a_block(&g, ELL, BallDists::Keep, workspace);
    assert_thm16_build_peak(&g, ELL, workspace);
    assert_hierarchy_build_peak(&g);
    let t1 = t1_graph();
    let workspace = ball_run_workspace(&t1, 1372);
    assert_ball_build_within_a_block(&t1, 1372, BallDists::Skip, workspace);
    drop(t1);
    assert_cluster_family_allocations(&g);
}

/// Bytes a member id and, for `BallDists::Keep`, a member distance take in
/// a ball table of `g`: the id in the bytes `n` needs, the distance in the
/// bytes `n − 1` heaviest edges need.
fn member_widths(g: &Graph, dists: BallDists) -> (usize, usize) {
    let n = g.n() as u64;
    let heaviest = g.weight_range().map_or(0, |(_, hi)| hi);
    let dist = match dists {
        BallDists::Keep => usize::from(bytes_for(heaviest * (n - 1) + 1)),
        BallDists::Skip => 0,
    };
    (usize::from(bytes_for(n)), dist)
}

/// What a ball table of `g` with `members` members holds beside its
/// ports, at the graph's width: the packed ids, and distances if `dists`
/// keeps them, each closed by its pad, and a row end of the ids (4 bytes)
/// a vertex.
fn table_beside_ports(g: &Graph, members: usize, dists: BallDists) -> usize {
    let (id, dist) = member_widths(g, dists);
    let pads = SLOT_PAD * (1 + usize::from(dists == BallDists::Keep));
    (id + dist) * members + pads + 4 * g.n()
}

/// What a ball build holds beside its final arrays: one block of
/// per-vertex search results with their ports in `encoding`, with their
/// distances if `dists` keeps them, and `workspace`, the bytes of one
/// worker's search workspace.
fn ball_block(g: &Graph, ell: usize, dists: BallDists, encoding: BallEncoding, workspace: u64) -> usize {
    /// `balls.rs`'s block count: results are appended a sixteenth at a
    /// time, on unit weights in whole batches of 64 centres.
    const BLOCKS: usize = 16;
    let n = g.n();
    // One ball as a search result: its member ids and, if the table keeps
    // them, their distances, both at the table's width, each array closed
    // by its pad; its ports; and the record that holds them. Hashed, the
    // ports are a region of at most `⌈4ℓ/3⌉ + ℓ + 1` slots at the table's
    // width and its pad, and the worker hashes into one region of 8-byte
    // unpacked slots as scratch; as a bitmap, a boxed record of `⌈n/64⌉`
    // 8-byte blocks, their member counts at the id width and `min(ℓ, n)`
    // ports at the port width, the last two closed by their pads. Either
    // way the worker first lists the ball's `ℓ` members as 8-byte slots.
    let (id, dist) = member_widths(g, dists);
    let [id_bytes, port_bytes] = SlotCodec::for_graph(g).bytes().map(usize::from);
    let (ports, region) = match encoding {
        BallEncoding::Hashed => {
            let region = (4 * ell).div_ceil(3) + ell + 1;
            ((id_bytes + port_bytes) * region + SLOT_PAD, region)
        }
        BallEncoding::Bitmap => {
            let (blocks, boxed) = (n.div_ceil(64), std::mem::size_of::<RankBitmap>());
            ((8 + id_bytes) * blocks + port_bytes * ell.min(n) + 2 * SLOT_PAD + boxed, 0)
        }
    };
    let scratch = 8 * (ell + region);
    let record = std::mem::size_of::<(PackedColumn<1>, Option<PackedColumn<1>>, PackedColumn<2>, u64)>();
    let ball = (id + dist) * ell + 2 * SLOT_PAD + ports + record;
    let balls = if g.is_unweighted() {
        n.div_ceil(BLOCKS).next_multiple_of(BFS_BATCH_WIDTH)
    } else {
        n.div_ceil(BLOCKS)
    };
    balls * ball + scratch + workspace as usize
}

/// `BallTable::build_with_dists(g, ell, dists)` peaks at no more than the
/// table it keeps and [`ball_block`], and keeps, beside its ports, exactly
/// its members at the graph's width ([`table_beside_ports`]).
fn assert_ball_build_within_a_block(g: &Graph, ell: usize, dists: BallDists, workspace: u64) {
    let (peak, table) = peak_bytes_in(|| BallTable::build_with_dists(g, ell, dists));
    let block = ball_block(g, ell, dists, table.encoding(), workspace);
    let kept = table.heap_bytes();
    assert!(
        peak as usize <= kept + block,
        "the build at ℓ = {ell}, {dists:?} peaked at {peak} bytes: {kept} kept, {} over, one \
         block is {block}",
        peak as usize - kept.min(peak as usize)
    );
    let members: usize = g.vertices().map(|u| table.ball(u).len()).sum();
    let ports = table.into_ports().heap_bytes();
    let beside = table_beside_ports(g, members, dists);
    assert_eq!(kept, ports + beside, "the table at ℓ = {ell}, {dists:?}: {members} members");
}

/// `stages.rs`'s round count, which the Lemma 7 build runs its sources in.
const SEQ_ROUNDS: usize = 8;

/// The largest round of chunks a Lemma 7 build on a unit-weight graph
/// holds beside its store: the sources — the vertices that store a
/// sequence —, in id order, run in eight rounds of whole batches of 64, a
/// chunk a batch; a round holds its sources' sequences at `width` bytes an
/// entry and 4 a sequence end, and 128 bytes a chunk for the chunk itself
/// and its arrays' closing pads.
fn largest_round(router: &Technique1Router, n: usize, width: usize) -> u64 {
    let counts = (0..n as u32).map(|u| router.sequence_counts_at(VertexId(u)));
    let counts: Vec<(usize, usize)> = counts.filter(|&(pairs, _)| pairs > 0).collect();
    let round = counts.len().div_ceil(SEQ_ROUNDS).next_multiple_of(BFS_BATCH_WIDTH).max(1);
    let bytes = counts.chunks(round).map(|sources| {
        let (pairs, entries) = sources.iter().fold((0, 0), |(p, e), &(sp, se)| (p + sp, e + se));
        width * entries + 4 * pairs + 128 * sources.len().div_ceil(BFS_BATCH_WIDTH)
    });
    bytes.max().unwrap_or(0) as u64
}

/// What the Lemma 7 sequences phase of a build on the unit-weight graph `g`
/// holds beside the ball table and what the scheme keeps: the largest
/// round of chunks, one batch BFS workspace as it stands after a run, and
/// per vertex the source list (24 bytes), the set order (4) and the mark of
/// the hitting-set vertices a sequence stops at (1).
fn lemma7_transients(g: &Graph, router: &Technique1Router) -> u64 {
    let (bfs, _) = peak_bytes_in(|| {
        let mut bfs = BfsBatch::for_graph(g).expect("a unit-weight graph");
        let sources: Vec<VertexId> = (0..BFS_BATCH_WIDTH as u32).map(VertexId).collect();
        bfs.run(g, &sources).expect("a batch of sources");
        bfs
    });
    let width = SlotCodec::for_graph(g).width();
    largest_round(router, g.n(), width) + bfs + 29 * g.n() as u64
}

/// Heap bytes of an empty `TreeForest`: a `[u32; 3]` span beside three
/// pads.
const EMPTY_FOREST: usize = 12 + 3 * SLOT_PAD;

/// The bytes a shortest-path tree spanning `g` that keeps no labels adds to
/// a `TreeForest`: its 12-byte span and a node record a vertex — four entry
/// times in the bytes `0..=n` need, two ports in the bytes the largest
/// degree needs.
fn label_free_tree(g: &Graph) -> usize {
    let [_, port] = SlotCodec::for_graph(g).bytes().map(usize::from);
    let time = usize::from(bytes_for(g.n() as u64 + 1));
    12 + (4 * time + 2 * port) * g.n()
}

/// The heap bytes of a `TreeForest` of `trees` such trees.
fn label_free_forest(g: &Graph, trees: usize) -> usize {
    EMPTY_FOREST + trees * label_free_tree(g)
}

/// What building `trees` label-free trees spanning `g` holds beside the
/// trees built so far, at one thread: the largest round of chunks
/// (`stages.rs`'s eight rounds, each a block of at most 64 roots a chunk,
/// each chunk an empty forest's pads and its trees, handed over as
/// results), the empty forest the chunks are cloned from, one search
/// workspace as it stands after a search, and a mark a vertex.
fn tree_round(g: &Graph, trees: usize) -> u64 {
    let round = trees.div_ceil(SEQ_ROUNDS).max(1);
    let block = round.div_ceil(8).clamp(1, 64);
    let handles = size_of::<Result<(TreeForest, ()), BuildError>>();
    let chunks = round.div_ceil(block) * (handles + EMPTY_FOREST) + round * label_free_tree(g);
    let (workspace, _) = kept_bytes_in(|| {
        let mut scratch = SearchScratch::for_graph(g);
        scratch.dijkstra_into(g, VertexId(0));
        scratch
    });
    (chunks + EMPTY_FOREST + g.n()) as u64 + workspace
}

/// One batch BFS workspace on `g` as it stands after a ball run of `ell`
/// members: the ball build charges a worker's workspace so.
fn ball_run_workspace(g: &Graph, ell: usize) -> u64 {
    let (workspace, _) = peak_bytes_in(|| {
        let mut bfs = BfsBatch::for_graph(g);
        let centres: Vec<VertexId> = (0..BFS_BATCH_WIDTH as u32).map(VertexId).collect();
        let run = bfs.as_mut().map(|bfs| bfs.run_balls(g, &centres, ell));
        assert!(matches!(run, Some(Ok(()))), "the graph takes the batch BFS");
        bfs
    });
    workspace
}

/// `SchemeMultilevel::build` at Theorem 15's four levels on the
/// `t1-er-direct` graph, where ℓ = 1372 makes the ball table the largest
/// build-time structure of any scheme. Its live-byte peak must stay within
/// the build of a table without distances — its members at the graph's
/// width beside the ports ([`table_beside_ports`]) and one block
/// ([`ball_block`]) —, or that table beside the greedy hitting set's
/// per-vertex arrays and what the scheme keeps besides its ports, or that
/// table beside what the scheme keeps besides its ports and the Lemma 7
/// phase's transients ([`lemma7_transients`]: one round of sequence
/// chunks). Member ids at 4 bytes sit 2 bytes a member over the first; the
/// greedy probes the table's slots for the sets a pick hits, so an
/// inverted index of the sets or a copy of the balls made for Lemma 5 or 6
/// sits over the second; a distance array the build never reads sits over
/// the first.
fn assert_multilevel_build_peak() {
    const N: usize = 2000;
    const LEVELS: usize = 4;
    routing_par::set_threads(1);
    let g = t1_graph();
    let params = Params::default();
    let build =
        || SchemeMultilevel::build(&g, LEVELS, "thm15", &params, &mut StdRng::seed_from_u64(7));
    let (kept, scheme) = kept_bytes_in(build);
    let scheme = scheme.expect("thm15 builds");
    let ell = (scheme.level_base() * LEVELS).min(N);
    let lemma7 = lemma7_transients(&g, scheme.router());
    drop(scheme);
    let table = BallTable::build_with_dists(&g, ell, BallDists::Skip);
    let members: usize = g.vertices().map(|u| table.ball(u).len()).sum();
    let encoding = table.encoding();
    let ports = table.into_ports().heap_bytes() as u64;
    let full = ports + table_beside_ports(&g, members, BallDists::Skip) as u64;
    let workspace = ball_run_workspace(&g, ell);
    let ball_build = full + ball_block(&g, ell, BallDists::Skip, encoding, workspace) as u64;
    let (peak, _scheme) = peak_bytes_in(build);
    // The greedy holds a count (8 bytes) a vertex, a flag a set and its
    // picks, and the sets are one 16-byte view a vertex.
    let greedy = 32 * N as u64;
    let bound = ball_build.max(full + greedy + kept - ports).max(full + kept - ports + lemma7);
    assert!(
        peak <= bound,
        "thm15 peaked at {peak} bytes over a bound of {bound}: ball build {ball_build}, \
         table {full} of {members} members, kept {kept} of which ports {ports}, Lemma 7 \
         transients {lemma7}"
    );
}

/// What a batch of sequence chunks — a Lemma 7 round, a Lemma 8 class —
/// holds beside the sequence store it is appended to: the chunks, trimmed
/// as each task finishes, whose entries take `width` bytes and whose
/// sequence ends take 4, and at most 128 bytes a chunk for the chunk itself
/// and its arrays' closing pad. `counts` is the batch's `(pairs, entries)`.
fn sequence_chunks(width: usize, (pairs, entries): (usize, usize), chunks: usize) -> u64 {
    (width * entries + 4 * pairs + 128 * chunks) as u64
}

/// `SchemeFivePlusEps::build` on the serve workloads' graph (a weighted
/// Erdős–Rényi graph, n = 8000, graph seed 13) at ℓ = 180. Its vicinities
/// keep their member ids only until the colouring, and their colours and
/// representatives packed: they must hold exactly the ports, a colour a
/// vertex in the bytes `q` needs and a representative a (vertex, colour)
/// pair at the id width. Lemma 8 reads the ports and the representatives
/// and fills its sequence store a colour class at a time, dropping each
/// class's chunks (one a destination) before the next. So the peak must
/// stay within the build of a table without distances, that table beside
/// the Lemma 4 stage — the landmark sample and the cluster family's build
/// —, or what the scheme keeps beside the Lemma 8 transients
/// ([`lemma8_transients`]). Every class's chunks held to the end sit over
/// the last; 4-byte representatives fail the vicinity bytes.
fn assert_thm11_build_peak() {
    const N: usize = 8000;
    routing_par::set_threads(1);
    let weights = WeightModel::Uniform { lo: 1, hi: 32 };
    let g = Family::ErdosRenyi.generate(N, weights, &mut StdRng::seed_from_u64(13));
    let params = Params::default();
    let before = live_bytes();
    let (peak, scheme) =
        peak_bytes_in(|| SchemeFivePlusEps::build(&g, &params, &mut StdRng::seed_from_u64(7)));
    let kept = live_bytes() - before;
    let scheme = scheme.expect("thm11 builds");
    let lemma8 = lemma8_transients(&g, &scheme);
    let (q, vicinities) = (scheme.q() as usize, scheme.vicinity_heap_bytes());
    drop(scheme);
    let ell = params.scaled((N as f64).powf(1.0 / 3.0).ceil() as usize, N);
    let (ball_build, table) =
        peak_bytes_in(|| BallTable::build_with_dists(&g, ell, BallDists::Skip));
    let full = table.heap_bytes() as u64;
    let ports = table.into_ports().heap_bytes();
    let (colour, id) = (usize::from(bytes_for(q as u64)), usize::from(bytes_for(N as u64)));
    let packed = ports + colour * N + id * N * q + 2 * SLOT_PAD;
    assert_eq!(vicinities, packed, "thm11's vicinities: ports {ports}, colours and representatives packed");
    // The landmarks as the build samples them: its vicinities draw nothing.
    let s = (N as f64).powf(2.0 / 3.0).ceil() as usize;
    let (clusters, _) = peak_bytes_in(|| {
        let landmarks = sample_centers_bounded(&g, s, &mut StdRng::seed_from_u64(7));
        ClusterFamily::build(&g, |_| landmarks.bound_slice(), |_| Labels::Keep).expect("the family builds")
    });
    let bound = ball_build.max(full + clusters).max(kept + lemma8);
    assert!(
        peak <= bound,
        "thm11 peaked at {peak} bytes over a bound of {bound}: ball build {ball_build}, \
         table {full} at ℓ = {ell}, cluster stage {clusters}, kept {kept}, Lemma 8 \
         transients {lemma8}"
    );
}

/// What the Lemma 8 build holds beside the scheme at its largest colour
/// class: the class's chunks ([`sequence_chunks`], one a destination), the
/// class lists — a 4-byte source id a vertex of the class with its doubling
/// slack, and a destination's id, chunk and rank, 24 bytes — and one search
/// workspace as it stands after a search, with its path buffer.
fn lemma8_transients(g: &Graph, scheme: &SchemeFivePlusEps) -> u64 {
    let router = scheme.router();
    let width = SlotCodec::for_graph(g).width();
    let mut classes = vec![(0, 0, 0, 0); scheme.q() as usize];
    for u in g.vertices() {
        let (pairs, entries) = router.sequence_counts_at(u);
        let class = &mut classes[scheme.color(u) as usize];
        *class = (class.0 + pairs, class.1 + entries, class.2, class.3 + 1);
        if let Some(j) = router.dest_set_of(u) {
            classes[j as usize].2 += 1;
        }
    }
    let largest = classes.iter().map(|&(pairs, entries, dests, sources)| {
        sequence_chunks(width, (pairs, entries), dests) + (8 * sources + 24 * dests) as u64
    });
    let (workspace, _) = kept_bytes_in(|| {
        let mut scratch = SearchScratch::for_graph(g);
        scratch.dijkstra_into(g, VertexId(0));
        scratch
    });
    largest.max().unwrap_or(0) + workspace + 4 * g.n() as u64
}

/// `SchemeTwoPlusEps::build` on the `t1-er-direct` graph, with the ball
/// table's packed ids and distances live until the end of
/// `Technique1Router::build`. That build holds, beside the table and what
/// the scheme keeps besides its ports, first the Lemma 7 transients
/// ([`lemma7_transients`]: one round of sequence chunks, the source list
/// and the set order) while the hitting set's trees are not built yet, and
/// then, once the sequence store is finished, one round of those trees
/// ([`tree_round`]). No sequence stops early on this graph, so no
/// hitting-set tree keeps labels, and the landmark trees keep none either:
/// the bound charges both forests as label-free ([`label_free_forest`]),
/// whatever the scheme keeps. It must stay within the build of that table
/// (its members at the graph's width beside the ports, and one block), or
/// the larger of those two phases. Landmark trees that keep their labels,
/// the chunks of every round held until the end, ids and distances at 4
/// and 8 bytes, or chunks left with their growth slack, sit over it.
fn assert_thm10_build_peak() {
    routing_par::set_threads(1);
    let g = t1_graph();
    let params = Params::default();
    let before = live_bytes();
    let (peak, scheme) =
        peak_bytes_in(|| SchemeTwoPlusEps::build(&g, &params, &mut StdRng::seed_from_u64(7)));
    let kept = live_bytes() - before;
    let scheme = scheme.expect("thm10 builds");
    let router = scheme.router();
    let lemma7 = lemma7_transients(&g, router);
    let hitting = router.hitting_set().len();
    let trees = tree_round(&g, hitting);
    let landmarks = scheme.global_trees();
    let landmark_forest = landmarks.heap_bytes() as u64;
    let label_free = label_free_forest(&g, landmarks.len()) as u64;
    let hitting_forest = label_free_forest(&g, hitting) as u64;
    let ell = params.scaled(scheme.q() as usize, g.n());
    drop(scheme);
    let table = BallTable::build_with_dists(&g, ell, BallDists::Keep);
    let members: usize = g.vertices().map(|u| table.ball(u).len()).sum();
    let encoding = table.encoding();
    let ports = table.into_ports().heap_bytes() as u64;
    let full = ports + table_beside_ports(&g, members, BallDists::Keep) as u64;
    let workspace = ball_run_workspace(&g, ell);
    let ball_build = full + ball_block(&g, ell, BallDists::Keep, encoding, workspace) as u64;
    // What the scheme keeps beside its ports, its landmark forest charged
    // as label-free.
    let beside = kept - ports - landmark_forest + label_free;
    let sequences = full + beside - hitting_forest + lemma7;
    let bound = ball_build.max(sequences).max(full + beside + trees);
    assert!(
        peak <= bound,
        "thm10 peaked at {peak} bytes over a bound of {bound}: ball build {ball_build}, table \
         {full} at ℓ = {ell}, kept {kept} of which ports {ports} and landmark trees \
         {landmark_forest} (label-free {label_free}), Lemma 7 transients {lemma7} before \
         {hitting_forest} bytes of hitting-set trees, a round of those {trees}"
    );
}

/// `Thm16Scheme::build` at k = 3 on the `t2-geo-direct` graph: its
/// live-byte peak is that of its vicinities beside the sampled levels, or
/// that of the hierarchy build beside the levels and the kept vicinities,
/// whichever is larger. The vicinities are the ports and the landmark
/// lists, built with no ball table: beside what they keep, the build holds
/// one block of balls with their distances ([`ball_block`]), the listed
/// pairs (16 bytes a pair, up to twice over while their vector grows), one
/// end offset (8 bytes) and one flag a vertex, and, while the lists are
/// packed, one count (8 bytes) a vertex. A ball table with its member ids
/// and distances, a hierarchy built before the vicinities, or member lists
/// kept past the conversion, sits over it.
fn assert_thm16_build_peak(g: &Graph, ell: usize, workspace: u64) {
    const K: usize = 3;
    const SEED: u64 = 17;
    let (n, params) = (g.n(), Params::default());
    let rng = || StdRng::seed_from_u64(SEED);
    let (sampling, _) = peak_bytes_in(|| TzLevels::sample(g, K, &mut rng()));
    let (levels_bytes, levels) = kept_bytes_in(|| TzLevels::sample(g, K, &mut rng()).expect("levels"));
    let (hierarchy, _) = peak_bytes_in(|| TzHierarchy::from_levels(g, levels));
    let (peak, scheme) = peak_bytes_in(|| Thm16Scheme::build(g, K, &params, &mut rng()));
    let scheme = scheme.expect("thm16k3 builds");
    assert_eq!(scheme.vicinity_ell(), ell);
    let kept = scheme.vicinity_heap_bytes() as u64;
    let a1: Vec<VertexId> = g.vertices().filter(|&v| scheme.hierarchy().level_of(v) >= 1).collect();
    let (ports, lists) = vicinities(g, ell, &a1).expect("vicinities");
    let (entries, encoding) = (lists.len(), ports.encoding());
    assert_eq!(kept as usize, ports.heap_bytes() + lists.heap_bytes(), "the vicinities");
    let (ports, lists) = (ports.heap_bytes() as u64, lists.heap_bytes() as u64);
    let block = ball_block(g, ell, BallDists::Keep, encoding, workspace) as u64;
    let transient = block.max(8 * n as u64) + 32 * entries as u64 + 9 * n as u64;
    let vicinities = levels_bytes + kept + transient;
    let bound = sampling.max(vicinities).max(levels_bytes + kept + hierarchy);
    // The scheme's name is the only allocation beyond the builds.
    assert!(
        peak <= bound + 64,
        "thm16k3 peaked at {peak} bytes: levels {levels_bytes}, ports {ports}, landmark lists \
         {lists}, build transients {transient} (one block of balls {block}), hierarchy {hierarchy}"
    );
    assert!(lists < ports / 4, "{lists} bytes of landmark lists beside {ports} of ports");
}

/// `TzHierarchy::from_levels` at k = 3 on the `t2-geo-direct` graph peaks
/// at no more than the largest of its three phases, each the sum of the
/// arrays it holds, whose sizes are worked out from the finished hierarchy:
///
/// * a round of the cluster build: the forest and the members through that
///   round, beside the round's tree and member chunks;
/// * the inversion of the members into the bunches: the whole forest,
///   members and bunches, beside the inversion's cursor row;
/// * the ladder rows: the hierarchy, beside the rows' labels (8 bytes a
///   vertex a level).
///
/// Throughout, `from_levels` holds a level byte and an unbounded distance
/// a vertex. The inversion is the peak on this graph and its term is exact:
/// a 432 kB copy of the pivots held through the cluster build goes over it.
/// So do the chunks of every round appended at once (a second forest), or
/// members kept as 16-byte pairs.
fn assert_hierarchy_build_peak(g: &Graph) {
    /// `stages.rs`'s round count.
    const ROUNDS: usize = 8;
    const K: usize = 3;
    /// Heap bytes of an empty `DistLists`, a packed column's pad.
    const EMPTY_LISTS: usize = SLOT_PAD;
    let n = g.n();
    let levels = TzLevels::sample(g, K, &mut StdRng::seed_from_u64(17)).expect("levels");
    let (peak, hierarchy) = peak_bytes_in(|| TzHierarchy::from_levels(g, levels));
    let hierarchy = hierarchy.expect("the hierarchy builds");
    let clusters = hierarchy.clusters();
    // A member as `ClusterFamily::build` packs it: an id, and a distance in
    // the bytes `n − 1` heaviest edges need.
    let heaviest = g.weight_range().map_or(0, |(_, hi)| hi);
    let member = usize::from(bytes_for(n as u64) + bytes_for(heaviest * (n as u64 - 1) + 1));
    let [id, port] = SlotCodec::for_graph(g).bytes().map(usize::from);
    let time = usize::from(bytes_for(n as u64 + 1));
    let trees: Vec<_> = g.vertices().map(|w| clusters.tree(w).expect("a tree a vertex")).collect();
    // The bytes of tree `w` in a forest's arrays (its span, its ids unless
    // it spans the graph, its node records, and, if it keeps its members'
    // labels, a row end a member and its light ports), and of its row of
    // members (the members and their row end).
    let tree_bytes = |w: usize| {
        let t = trees[w];
        let nodes = t.len();
        let (offsets, light) = if t.keeps_labels() { (nodes, (t.labels_words() - nodes) / 2) } else { (0, 0) };
        let ids = if nodes == n { 0 } else { nodes };
        12 + 4 * offsets + id * ids + (4 * time + 2 * port) * nodes + (id + port) * light
    };
    let row_bytes = |w: usize| member * trees[w].len() + 4;
    let forest = EMPTY_FOREST + (0..n).map(tree_bytes).sum::<usize>();
    let members = EMPTY_LISTS + (0..n).map(row_bytes).sum::<usize>();
    // The bunches hold every member once more, their distances in the bytes
    // the largest needs.
    let bunch_entries = g.vertices().flat_map(|v| clusters.bunch(v));
    let (entries, far) = bunch_entries.fold((0, 0), |(k, far), (_, d)| (k + 1, far.max(d)));
    let bunch = usize::from(bytes_for(n as u64) + bytes_for(far + 1));
    let bunches = 4 * n + bunch * entries + SLOT_PAD;
    assert_eq!(forest + bunches, clusters.heap_bytes(), "the forest and bunches are not what this test models");

    // `level_of` and the unbounded row, and `ClusterFamily::build`'s empty
    // member lists, which the chunks are cloned from.
    let held = n + 8 * n + EMPTY_LISTS;
    // A round at one thread is blocks of at most 64 roots, each a tree and
    // a member chunk, handed over in at most two vectors at a time. The
    // forest grows by the round's trees while its chunks are still live,
    // beside `forest_by_blocks`' empty forest and the members so far.
    let round = n.div_ceil(ROUNDS);
    let block = round.div_ceil(8).clamp(1, 64);
    let handles = 2 * size_of::<Result<(TreeForest, DistLists), BuildError>>();
    let (mut cluster_build, mut forest_so_far, mut members_so_far) = (0, EMPTY_FOREST, EMPTY_LISTS);
    for first in (0..n).step_by(round) {
        let last = n.min(first + round);
        let (trees, rows) = (first..last).fold((0, 0), |(t, r), w| (t + tree_bytes(w), r + row_bytes(w)));
        let chunks = trees + rows + (last - first).div_ceil(block) * (EMPTY_FOREST + EMPTY_LISTS + handles);
        forest_so_far += trees;
        cluster_build = cluster_build.max(EMPTY_FOREST + forest_so_far + members_so_far + chunks);
        members_so_far += rows;
    }
    let inversion = forest + members + bunches + 4 * n;
    // The ladder rows: the unbounded row beside the hierarchy, the labels,
    // a vertex's rungs and one label's light ports (at most ⌊log₂ n⌋ + 1,
    // in a vector grown by doubling).
    let ports = 8 * (n.ilog2() as usize + 1).next_power_of_two();
    let ladder = hierarchy.heap_bytes() + 8 * n + 8 * n * K + 16 * K + ports;
    let bound = (held + cluster_build.max(inversion)).max(ladder) as u64;
    assert!(
        peak <= bound,
        "the k = {K} hierarchy peaked at {peak} bytes over a bound of {bound}: held {held}, \
         largest round of the cluster build {cluster_build}, inversion {inversion} (forest \
         {forest}, members {members}, bunches {bunches}), ladder {ladder}"
    );
}

/// On the `t1-er-direct` graph, what a `TreeForest`, a `ClusterFamily`, a
/// `TzHierarchy`, Theorem 16's vicinities, a `BallTable` built with and
/// without distances and the `BallPorts` each turns into keep live is
/// exactly what their `heap_bytes()` report: a hand-written sum that drifts
/// from the allocations it stands for (an over-reserve, an array left out)
/// fails.
fn assert_kept_bytes_are_heap_bytes() {
    routing_par::set_threads(1);
    let g = t1_graph();
    let s = (g.n() as f64).powf(2.0 / 3.0).ceil() as usize;
    let landmarks = sample_centers_bounded(&g, s, &mut StdRng::seed_from_u64(5));
    let bound = landmarks.bound_slice();

    // Spanning trees and clusters, through a workspace the same searches
    // sized beforehand.
    let roots: Vec<VertexId> = (0..g.n() as u32).step_by(50).map(VertexId).collect();
    let search = |scratch: &mut SearchScratch, r: VertexId| {
        if r.0 % 100 == 0 {
            scratch.dijkstra_into(&g, r);
        } else {
            scratch.cluster_into(&g, r, bound);
        }
    };
    let mut scratch = SearchScratch::for_graph(&g);
    for &r in &roots {
        search(&mut scratch, r);
    }
    let (kept, forest) = kept_bytes_in(|| {
        let mut forest = TreeForest::new(&g);
        for &r in &roots {
            search(&mut scratch, r);
            forest.push_scratch(&g, &scratch).expect("a search is a tree");
        }
        forest
    });
    assert_eq!(kept as usize, forest.heap_bytes(), "a forest of {} trees", forest.len());

    let (kept, family) = kept_bytes_in(|| {
        ClusterFamily::build(&g, |_| bound, |_| Labels::Keep).map(|(family, _)| family).expect("the family builds")
    });
    assert_eq!(kept as usize, family.heap_bytes(), "a cluster family");

    let mut rng = StdRng::seed_from_u64(17);
    let (kept, hierarchy) =
        kept_bytes_in(|| TzHierarchy::build(&g, 3, &mut rng).expect("the hierarchy builds"));
    assert_eq!(kept as usize, hierarchy.heap_bytes(), "a k = 3 hierarchy");

    for dists in [BallDists::Keep, BallDists::Skip] {
        let (kept, table) = kept_bytes_in(|| BallTable::build_with_dists(&g, 100, dists));
        assert_eq!(kept as usize, table.heap_bytes(), "a ball table, {dists:?}");
        let (kept, ports) = kept_bytes_in(|| BallTable::build_with_dists(&g, 100, dists).into_ports());
        assert_eq!(kept as usize, ports.heap_bytes(), "the ports of a ball table, {dists:?}");
    }
    let a1: Vec<VertexId> = g.vertices().filter(|&v| hierarchy.level_of(v) >= 1).collect();
    let (kept, (ports, lists)) = kept_bytes_in(|| vicinities(&g, 100, &a1).expect("the vicinities build"));
    assert_eq!(kept as usize, ports.heap_bytes() + lists.heap_bytes(), "the vicinities");
    assert!(!lists.is_empty(), "no vicinity holds a landmark");
}

/// A cluster family on the same graph, under a Lemma 4 landmark bound,
/// keeps its trees and bunches in a fixed number of allocations: the
/// forest's five arrays and the bunches' two, not a few per tree.
fn assert_cluster_family_allocations(g: &Graph) {
    let s = (g.n() as f64).powf(2.0 / 3.0).ceil() as usize;
    let landmarks = sample_centers_bounded(g, s, &mut StdRng::seed_from_u64(5));
    let before = live_allocations();
    let (_family, members) =
        ClusterFamily::build(g, |_| landmarks.bound_slice(), |_| Labels::Keep).expect("the family builds");
    drop(members);
    let retained = live_allocations() - before;
    assert!(retained <= 7, "a cluster family of {} trees keeps {retained} allocations", g.n());
}
