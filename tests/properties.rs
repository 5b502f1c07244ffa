//! Property-based integration tests (proptest): invariants of the substrates
//! and the paper's stretch guarantees on randomly generated graphs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use routing_baselines::TzHierarchy;
use routing_churn::{ChurnPlan, ChurnPlanConfig, RemovalMode};
use routing_core::{Params, SchemeFivePlusEps, SchemeMultilevel};
use routing_graph::apsp::DistanceMatrix;
use routing_graph::generators::{self, WeightModel};
use routing_graph::mutate::apply_events;
use routing_graph::reference;
use routing_graph::{Graph, GraphBuilder, Port, SampledDistances, SearchScratch, SlotCodec, VertexId, Weight};
use routing_model::simulate;
use routing_vicinity::{BallEncoding, BallTable};

fn arb_graph() -> impl Strategy<Value = (Graph, u64)> {
    (30usize..70, 1u64..1_000, 1u64..20).prop_map(|(n, seed, max_w)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(
            n,
            10.0 / n as f64,
            WeightModel::Uniform { lo: 1, hi: max_w },
            &mut rng,
        );
        (g, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Property 1 of the paper: ball membership is preserved along shortest
    /// paths, for every ball size.
    #[test]
    fn property_one_holds((g, _seed) in arb_graph(), ell in 3usize..20) {
        let balls = BallTable::build(&g, ell);
        let mut spt = SearchScratch::for_graph(&g);
        for u in g.vertices().step_by(5) {
            spt.dijkstra_into(&g, u);
            for v in balls.ball(u).ids().iter() {
                if v == u { continue; }
                for w in spt.path_to(v).unwrap() {
                    prop_assert!(balls.contains(w, v));
                }
            }
        }
    }

    /// Triangle inequality and symmetry of the exact distance matrix (sanity
    /// of the ground truth every stretch measurement relies on).
    #[test]
    fn distance_matrix_is_a_metric((g, _seed) in arb_graph()) {
        let m = DistanceMatrix::new(&g);
        let vs: Vec<VertexId> = g.vertices().collect();
        for &a in vs.iter().step_by(7) {
            for &b in vs.iter().step_by(5) {
                prop_assert_eq!(m.dist(a, b), m.dist(b, a));
                for &c in vs.iter().step_by(11) {
                    let ab = m.dist(a, b).unwrap();
                    let bc = m.dist(b, c).unwrap();
                    let ac = m.dist(a, c).unwrap();
                    prop_assert!(ac <= ab + bc);
                }
            }
        }
    }

    /// The warm-up scheme never exceeds (3+2eps)·d on any sampled pair of any
    /// random weighted graph.
    #[test]
    fn warmup_stretch_never_violated((g, seed) in arb_graph()) {
        let eps = 0.5;
        let mut rng = StdRng::seed_from_u64(seed);
        let params = Params::with_epsilon(eps);
        let scheme = SchemeMultilevel::build(&g, 1, "warmup", &params, &mut rng).unwrap();
        let exact = DistanceMatrix::new(&g);
        for u in g.vertices().step_by(6) {
            for v in g.vertices().step_by(4) {
                if u == v { continue; }
                let out = simulate(&g, &scheme, u, v).unwrap();
                let d = exact.dist(u, v).unwrap();
                prop_assert!(out.weight as f64 <= (3.0 + 2.0 * eps) * d as f64 + 1e-9);
            }
        }
    }

    /// The (5+eps) scheme never exceeds (5+3eps)·d on any sampled pair.
    #[test]
    fn five_plus_eps_stretch_never_violated((g, seed) in arb_graph()) {
        let eps = 1.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let scheme = SchemeFivePlusEps::build(&g, &Params::with_epsilon(eps), &mut rng).unwrap();
        let exact = DistanceMatrix::new(&g);
        for u in g.vertices().step_by(6) {
            for v in g.vertices().step_by(4) {
                if u == v { continue; }
                let out = simulate(&g, &scheme, u, v).unwrap();
                let d = exact.dist(u, v).unwrap();
                prop_assert!(out.weight as f64 <= (5.0 + 3.0 * eps) * d as f64 + 1e-9);
            }
        }
    }

    /// CSR invariants of a churned graph: every adjacency entry is
    /// port-consistent and symmetric with identical weights in both
    /// directions, and no surviving edge dangles into a dead vertex.
    #[test]
    fn churned_graph_preserves_csr_invariants(
        (g, seed) in arb_graph(),
        remove_pct in 0usize..30,
        mode_idx in 0usize..3,
    ) {
        let cfg = ChurnPlanConfig {
            rounds: 3,
            remove_frac: remove_pct as f64 / 100.0,
            add_frac: 0.5,
            edge_remove_frac: 0.05,
            edge_add_frac: 0.05,
            mode: RemovalMode::ALL[mode_idx],
            seed,
        };
        let plan = ChurnPlan::generate(&g, &cfg);
        let mut graph = g.clone();
        let mut alive: Vec<bool> = vec![true; g.n()];
        for round in &plan.rounds {
            let m = apply_events(&graph, Some(&alive), round).unwrap();
            graph = m.graph;
            alive = m.alive;

            prop_assert_eq!(graph.n(), alive.len());
            let mut directed_entries = 0usize;
            for u in graph.vertices() {
                // Dead vertices must be fully isolated.
                if !alive[u.index()] {
                    prop_assert_eq!(graph.degree(u), 0);
                }
                for e in graph.edges(u) {
                    directed_entries += 1;
                    // No dangling edges into dead vertices.
                    prop_assert!(alive[e.to.index()], "edge ({u}, {}) dangles", e.to);
                    prop_assert!(e.to != u, "self loop at {u}");
                    // Port consistency: the port labelling round-trips.
                    prop_assert_eq!(graph.port_to(u, e.to), Some(e.port));
                    let back = graph.neighbor_at(u, e.port);
                    prop_assert_eq!(back.to, e.to);
                    prop_assert_eq!(back.weight, e.weight);
                    // Symmetry with equal weights.
                    prop_assert_eq!(graph.edge_weight(e.to, u), Some(e.weight));
                }
            }
            // CSR stores each undirected edge exactly twice.
            prop_assert_eq!(directed_entries, 2 * graph.m());
        }
    }

    /// A zero-churn plan generates no events and applying its (empty)
    /// rounds is the identity on the graph and the liveness mask.
    #[test]
    fn zero_event_churn_plan_is_identity((g, seed) in arb_graph()) {
        let cfg = ChurnPlanConfig {
            rounds: 2,
            remove_frac: 0.0,
            add_frac: 0.0,
            edge_remove_frac: 0.0,
            edge_add_frac: 0.0,
            mode: RemovalMode::Random,
            seed,
        };
        let plan = ChurnPlan::generate(&g, &cfg);
        prop_assert_eq!(plan.total_events(), 0);
        for round in &plan.rounds {
            let m = apply_events(&g, None, round).unwrap();
            prop_assert_eq!(&m.graph, &g);
            prop_assert!(m.alive.iter().all(|&a| a));
            prop_assert_eq!(m.stats.port_preservation(), 1.0);
        }
    }

    /// The sampled ground-truth oracle agrees **exactly** with the dense
    /// distance matrix on every pair — covered pairs via stored rows and
    /// uncovered pairs via its on-demand search path alike.
    #[test]
    fn sampled_oracle_matches_dense_matrix((g, seed) in arb_graph(), k in 1usize..16) {
        let matrix = DistanceMatrix::new(&g);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xface);
        let oracle = SampledDistances::sample(&g, k, &mut rng);
        for u in g.vertices() {
            for v in g.vertices() {
                prop_assert_eq!(oracle.dist(u, v), matrix.dist(u, v),
                    "oracle disagrees with matrix on ({u}, {v})");
            }
        }
    }
}

/// Serializes the tests that flip the process-wide `routing_par` thread
/// count. Without this lock, libtest's concurrency could let one identity
/// test raise the global between another's `set_threads(1)` and its build —
/// both builds would then be parallel and a seq/par divergence could pass
/// undetected.
static THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Every registered scheme, built through the registry once with 1 worker
/// thread and once with 4 from the same seed, is indistinguishable: identical
/// per-vertex table/label word counts and identical routed paths (weight and
/// hop count) for every sampled pair. This is the bit-identity contract
/// `routing_par` documents: parallelism changes wall-clock only, never what
/// gets built. The loop is over the registry, so a newly registered scheme is
/// covered with no edit here.
#[test]
fn parallel_and_sequential_scheme_builds_are_identical() {
    use compact_routing::registry::SchemeRegistry;
    use routing_core::BuildContext;

    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut gen_rng = StdRng::seed_from_u64(33);
    let weighted = generators::erdos_renyi(
        130,
        0.05,
        WeightModel::Uniform { lo: 1, hi: 8 },
        &mut gen_rng,
    );
    // Theorem 10 takes unweighted input only.
    let unit = generators::erdos_renyi(130, 0.05, WeightModel::Unit, &mut gen_rng);
    let registry = SchemeRegistry::with_defaults();
    for key in registry.names() {
        let meta = registry.meta(key).expect("every registered key has a row");
        let g = if meta.weighted { &weighted } else { &unit };
        let build = |threads: usize| {
            let ctx = BuildContext { params: Params::with_epsilon(0.5), seed: 7, threads };
            registry.build(key, g, &ctx).unwrap_or_else(|e| panic!("{key}: {e}"))
        };
        let (seq, par) = (build(1), build(4));
        routing_par::set_threads(routing_par::available_threads());
        for v in g.vertices() {
            assert_eq!(seq.table_words(v), par.table_words(v), "{key}: table words differ at {v}");
            assert_eq!(seq.label_words(v), par.label_words(v), "{key}: label words differ at {v}");
        }
        for u in g.vertices().step_by(7) {
            for v in g.vertices().step_by(5) {
                if u == v {
                    continue;
                }
                let route = |scheme: &dyn routing_model::DynScheme| {
                    let out = simulate(g, scheme, u, v)
                        .unwrap_or_else(|e| panic!("{key}: routing {u}->{v}: {e}"));
                    (out.weight, out.hops)
                };
                let (a, b) = (route(seq.as_ref()), route(par.as_ref()));
                assert_eq!(a, b, "{key}: routed (weight, hops) differ for {u}->{v}");
            }
        }
    }
}

#[test]
fn parallel_and_sequential_ground_truth_are_identical() {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut gen_rng = StdRng::seed_from_u64(44);
    let g = generators::erdos_renyi(90, 0.07, WeightModel::Unit, &mut gen_rng);
    routing_par::set_threads(1);
    let seq = DistanceMatrix::new(&g);
    routing_par::set_threads(4);
    let par = DistanceMatrix::new(&g);
    routing_par::set_threads(routing_par::available_threads());
    for u in g.vertices() {
        for v in g.vertices() {
            assert_eq!(seq.dist(u, v), par.dist(u, v));
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel equivalence: the allocation-free search kernel (SearchScratch, the
// flat BallTable, the flat TZ bunches) must be bit-identical to the
// pre-refactor implementations kept in `routing_graph::reference`.
// ---------------------------------------------------------------------------

/// The multiplier of `BallTable`'s slot hash (`docs/ARCHITECTURE.md`,
/// "Search kernel & memory layout"), pinned here so the layout checks below
/// are an independent reading of the documented format.
const SLOT_HASH_MULT: u32 = 0x9E37_79B1;
const EMPTY_KEY: u32 = u32::MAX;

/// A reference ball, the rows [`reference::ball_hashmap`] returns: the
/// members in settle order, their first hops and the radius.
type RefBall = (Vec<(VertexId, Weight)>, Vec<Option<VertexId>>, Weight);

/// `BallTable::build` at a given thread count; the caller holds
/// `THREADS_LOCK`.
fn ball_table_at(g: &Graph, ell: usize, threads: usize) -> BallTable {
    routing_par::set_threads(threads);
    let table = BallTable::build(g, ell);
    routing_par::set_threads(routing_par::available_threads());
    table
}

/// Holds `table` against `reference(u)` for **every** `(u, v)` pair, members
/// and non-members alike — the settle-order ids and distances equal the
/// reference ball's, which fixes every member's rank and distance — and
/// checks the documented slot layout of every region of a hashed table (a
/// rank bitmap, the encoding of fewer bytes at large ℓ, has none; its bytes
/// are its formula's): every occupied slot
/// holds a member listed in the ids, members in strictly ascending hash
/// order, each at
/// `max(home, previous + 1)`, load ≤ 3/4, the last slot empty, no slack, and
/// every probe sequence — hit or miss — no longer than the ball plus the
/// slot that ends it.
fn check_ball_table(g: &Graph, table: &BallTable, reference: impl Fn(VertexId) -> RefBall) {
    check_ball_table_probing(g, table, reference, |_| g.vertices().collect());
}

/// [`check_ball_table`] with the pairs `(u, v)` limited to `v ∈ probes(u)`,
/// for graphs too large for every pair; the layout of every region is
/// checked whole either way.
fn check_ball_table_probing(
    g: &Graph,
    table: &BallTable,
    reference: impl Fn(VertexId) -> RefBall,
    probes: impl Fn(VertexId) -> Vec<VertexId>,
) {
    let hash = |id: u32| id.wrapping_mul(SLOT_HASH_MULT);
    // What a scheme retains of the table answers exactly as the table did.
    let ports = table.clone().into_ports();
    assert_eq!((ports.ell(), ports.len()), (table.ell(), g.n()));
    let codec = SlotCodec::for_graph(g);
    assert_eq!(ports.encoding(), BallEncoding::for_balls(g.n(), table.ell(), codec));
    if ports.encoding() == BallEncoding::Bitmap {
        assert_eq!(ports.heap_bytes(), BallEncoding::Bitmap.bytes(g.n(), table.ell(), codec), "bitmap bytes");
    }
    for u in g.vertices() {
        let (members, first_hops, radius) = reference(u);
        let view = table.ball(u);
        let ids: Vec<VertexId> = members.iter().map(|&(v, _)| v).collect();
        let dists: Vec<Weight> = members.iter().map(|&(_, d)| d).collect();
        assert_eq!(view.ids().iter().collect::<Vec<_>>(), ids, "ids of B({u})");
        let read = view.dists().map(|d| d.iter().collect::<Vec<_>>());
        assert_eq!(read, Some(dists), "distances in B({u})");
        assert_eq!(view.radius(), radius);
        assert_eq!(ports.words_at(u), 3 * (members.len() - 1));
        // Each member's first hop, by id: `Some(hop)` for a member.
        let mut by_id: Vec<_> = ids.iter().copied().zip(first_hops).collect();
        by_id.sort_unstable();
        let owned = |v| by_id.binary_search_by_key(&v, |&(x, _)| x).ok().map(|i| by_id[i].1);
        let probes = probes(u);
        for &v in &probes {
            assert_eq!(table.contains(u, v), owned(v).is_some(), "contains({u}, {v})");
            let port = owned(v).flatten().and_then(|hop| g.port_to(u, hop));
            assert_eq!(table.first_port(u, v), port);
            assert_eq!(ports.contains(u, v), owned(v).is_some(), "ports.contains({u}, {v})");
            assert_eq!(ports.first_port(u, v), port, "ports.first_port({u}, {v})");
        }

        let region = table.slot_region(u);
        if table.encoding() == BallEncoding::Bitmap {
            assert!(region.is_empty(), "a bitmap has no slot region");
            continue;
        }
        let m = view.len();
        let cap = (4 * m).div_ceil(3);
        let home = |h: u32| ((u64::from(h) * cap as u64) >> 32) as usize;
        assert!(4 * m <= 3 * region.len(), "load above 3/4 at {u}");
        assert_eq!(region.last().map(|s| s[0]), Some(EMPTY_KEY), "no sentinel at {u}");
        let occupied: Vec<usize> = (0..region.len()).filter(|&i| region[i][0] != EMPTY_KEY).collect();
        assert_eq!(occupied.len(), m);
        let mut next = 0;
        let mut prev_hash = None;
        for &at in &occupied {
            let [id, port] = region[at];
            assert!(prev_hash < Some(hash(id)), "hash order broken at slot {at} of region {u}");
            assert_eq!(at, home(hash(id)).max(next), "slot of {id} in region {u}");
            assert!(
                view.ids().position(VertexId(id)).is_some(),
                "slot {at} of region {u} holds a non-member"
            );
            let hop = owned(VertexId(id)).flatten().and_then(|hop| g.port_to(u, hop));
            assert_eq!(port, hop.map_or(u32::MAX, |p| p.0), "port of {id} in region {u}");
            (next, prev_hash) = (at + 1, Some(hash(id)));
        }
        assert_eq!(region.len(), cap.max(next + 1), "slack in region {u}");
        for &v in &probes {
            let h = hash(v.0);
            let probes = region[home(h)..]
                .iter()
                .position(|s| s[0] == v.0 || s[0] == EMPTY_KEY || hash(s[0]) > h)
                .expect("the sentinel ends every probe sequence")
                + 1;
            assert!(probes <= m + 1, "{probes} probes for ({u}, {v}) in a ball of {m}");
        }
    }
}

/// Property 1 along the ports Lemma 2 forwards on: from every `u`, for every
/// member `v` of `B(u, ℓ)`, following `port(w, v)` hop by hop reaches `v`
/// over exactly `d(u, v)` — one hop per unit on unit weights — and every
/// vertex `w` the walk visits has `v ∈ B(w, ℓ)`. `port` is the table's
/// `first_port`, or a stand-in with a planted fault.
fn property_one_along_ports(
    g: &Graph,
    table: &BallTable,
    port: impl Fn(VertexId, VertexId) -> Option<Port>,
) -> Result<(), String> {
    for u in g.vertices() {
        for (v, d) in table.ball(u).members() {
            let (mut w, mut walked) = (u, 0);
            while w != v {
                if !table.contains(w, v) {
                    return Err(format!("{v} ∈ B({u}) but not B({w})"));
                }
                let p = port(w, v).ok_or_else(|| format!("no port at {w} towards {v}"))?;
                let edge = g.neighbor_at(w, p);
                (w, walked) = (edge.to, walked + edge.weight);
                if walked > d {
                    return Err(format!("{u} → {v}: walked {walked} at {w}, d = {d}"));
                }
            }
            if walked != d {
                return Err(format!("{u} → {v}: walked {walked}, d = {d}"));
            }
        }
    }
    Ok(())
}

/// Holds a TZ hierarchy against the path its clusters replaced — per root
/// one reference cluster search under its level's bound row, then
/// `bunches`, and each cluster tree from `cluster_into` +
/// `TreeScheme::from_scratch` — and against the lemmas on exact
/// distances: `v ∈ C(w) ⇔ w ∈ B(v) ⇔ d(w, v) < d(v, A_{level(w)+1})`, with
/// `d(w, v)` recorded in the bunch, and `v ∈ C(p_i(v))` at every level `i`
/// (tie inheritance).
fn check_tz_hierarchy(g: &Graph, h: &TzHierarchy, exact: &DistanceMatrix) {
    use routing_model::RoutingScheme;
    use routing_tree::TreeScheme;
    let k = h.k();
    let bound = |next: usize, v: VertexId| if next < k { h.pivot(next, v).1 } else { u64::MAX };
    let rows: Vec<Vec<u64>> =
        (1..=k).map(|next| g.vertices().map(|v| bound(next, v)).collect()).collect();
    let row = |w: VertexId| &rows[h.level_of(w)];
    let raw: Vec<_> = g.vertices().map(|w| reference::cluster_dijkstra_hashmap(g, w, row(w)).0).collect();
    let bunches = routing_vicinity::bunches(g, &raw);
    let mut scratch = SearchScratch::for_graph(g);
    let trees: Vec<TreeScheme> = g
        .vertices()
        .map(|w| {
            scratch.cluster_into(g, w, row(w));
            TreeScheme::from_scratch(g, &scratch).unwrap()
        })
        .collect();
    for v in g.vertices() {
        let mut bunch = bunches[v.index()].clone();
        bunch.sort_unstable();
        assert_eq!(h.bunch(v).collect::<Vec<_>>(), bunch, "B({v})");
        // Only a level-0 root keeps (and is charged) its members' labels.
        let own = if h.level_of(v) == 0 { trees[v.index()].labels_words() } else { 0 };
        let words = own + bunch.iter().map(|&(w, _)| trees[w.index()].table_words(v)).sum::<usize>();
        assert_eq!(h.clusters().membership_words(v), words, "words at {v}");
        for i in 0..k {
            let tree = h.cluster_tree(h.pivot(i, v).0).unwrap();
            assert!(tree.contains(v), "{v} is not in C(p_{i}({v}))");
        }
        for w in g.vertices() {
            let (tree, reference) = (h.cluster_tree(w).unwrap(), &trees[w.index()]);
            assert_eq!(tree.node_info(v).as_ref(), reference.node_info(v), "{v} in T({w})");
            let label = if h.level_of(w) == 0 { reference.label(v) } else { None };
            assert_eq!(tree.label(v), label, "label of {v} in T({w})");
            let d = exact.dist(w, v).unwrap();
            let member = d < row(w)[v.index()];
            assert_eq!(tree.contains(v), member, "{v} in C({w}) at d = {d}");
            assert_eq!(h.clusters().bunch_dist(v, w), member.then_some(d), "{w} in B({v})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// One reused `SearchScratch` running an interleaved mix of full,
    /// bounded, multi-source and restricted searches must agree search by
    /// search with the pre-refactor allocating implementations — distances,
    /// parents, first hops, member order, radii and nearest-source labels.
    #[test]
    fn scratch_kernel_matches_reference_searches((g, _seed) in arb_graph(), ell in 2usize..16) {
        let mut scratch = SearchScratch::for_graph(&g);
        let sources: Vec<VertexId> = g.vertices().step_by(9).collect();
        let row = |read: &dyn Fn(VertexId) -> Option<VertexId>| g.vertices().map(read).collect::<Vec<_>>();

        for u in g.vertices().step_by(5) {
            // Bounded ball search first, so the following full search must
            // overwrite its partial state via the epoch stamp.
            let radius = scratch.ball_into(&g, u, ell);
            let (members, first_hops, radius_ref) = reference::ball_hashmap(&g, u, ell);
            prop_assert_eq!(radius, radius_ref, "radius differs at {}", u);
            prop_assert_eq!(scratch.order(), members.as_slice());
            let hops: Vec<_> = members.iter().map(|&(v, _)| scratch.first_hop(v)).collect();
            prop_assert_eq!(hops, first_hops);

            scratch.dijkstra_into(&g, u);
            let (dist, parent, first_hop) = reference::dijkstra_alloc(&g, u);
            prop_assert_eq!(scratch.dist_row(g.n()), dist);
            prop_assert_eq!(row(&|v| scratch.parent(v)), parent);
            prop_assert_eq!(row(&|v| scratch.first_hop(v)), first_hop);
        }

        scratch.multi_source_into(&g, &sources);
        let (bound, nearest) = reference::multi_source_alloc(&g, &sources);
        prop_assert_eq!(scratch.dist_row(g.n()), bound.clone());
        prop_assert_eq!(row(&|v| scratch.nearest(v)), nearest);

        for w in g.vertices().step_by(7) {
            scratch.cluster_into(&g, w, &bound);
            let (members, parents) = reference::cluster_dijkstra_hashmap(&g, w, &bound);
            prop_assert_eq!(scratch.order(), members.as_slice());
            let kept: Vec<_> = members.iter().map(|&(v, _)| scratch.parent(v)).collect();
            prop_assert_eq!(kept, parents);
        }
    }

    /// The target-bounded early-exit search is a bit-identical prefix of the
    /// full search: the settled order is literally `full_order[..k]` and
    /// every requested target is settled with matching dist/parent/first-hop
    /// — with identical results when the per-source searches are fanned out
    /// over worker scratches at thread counts 1 and 4.
    #[test]
    fn target_bounded_search_is_a_prefix_of_the_full_search(
        (g, _seed) in arb_graph(),
        stride in 3usize..9,
    ) {
        let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let sources: Vec<VertexId> = g.vertices().step_by(6).collect();
        let targets_of = |i: usize| -> Vec<VertexId> {
            g.vertices().skip(i % stride).step_by(stride).take(4).collect()
        };

        let run = |threads: usize| -> Vec<Vec<(VertexId, u64)>> {
            routing_par::set_threads(threads);
            let out = routing_par::par_map_scratch(
                sources.len(),
                || SearchScratch::for_graph(&g),
                |scratch, i| {
                    let targets = targets_of(i);
                    scratch.dijkstra_targets_into(&g, sources[i], &targets);
                    assert!(targets.iter().all(|&t| scratch.is_settled(t)));
                    scratch.order().to_vec()
                },
            );
            routing_par::set_threads(routing_par::available_threads());
            out
        };

        let single = run(1);
        let fanned = run(4);
        prop_assert_eq!(&single, &fanned, "thread count changed the settled prefixes");

        let mut full = SearchScratch::for_graph(&g);
        let mut probe = SearchScratch::for_graph(&g);
        for (i, prefix) in single.iter().enumerate() {
            let src = sources[i];
            full.dijkstra_into(&g, src);
            // The stopped search is a literal prefix of the full settle order.
            prop_assert_eq!(&full.order()[..prefix.len()], prefix.as_slice());
            // Every settled vertex agrees with the allocating reference
            // search on dist, parent and first hop.
            let (dist, parent, first_hop) = reference::dijkstra_alloc(&g, src);
            probe.dijkstra_targets_into(&g, src, &targets_of(i));
            for &(v, d) in prefix {
                prop_assert_eq!(probe.dist(v), Some(d));
                prop_assert_eq!(d, dist[v.index()]);
                prop_assert_eq!(probe.parent(v), parent[v.index()]);
                prop_assert_eq!(probe.first_hop(v), first_hop[v.index()]);
            }
        }
    }

    /// The bit-parallel batch BFS, run over consecutive batches of `width`
    /// sources (a short last batch included), reads what a full Dijkstra
    /// from each source reads — every distance, every tree path, `None`
    /// across components — on sparse unit-weight random graphs that are
    /// not always connected.
    #[test]
    fn batch_bfs_matches_dijkstra_on_unit_graphs(
        n in 1usize..140,
        seed in 1u64..1_000,
        width in 1usize..=64,
        avg_degree in 0.5f64..4.0,
    ) {
        use rand::Rng;
        use routing_graph::BfsBatch;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen::<f64>() < avg_degree / n as f64 {
                    b.add_unit_edge(u, v).unwrap();
                }
            }
        }
        let g = b.build();
        let mut batch = BfsBatch::for_graph(&g).unwrap();
        let mut full = SearchScratch::for_graph(&g);
        let all: Vec<VertexId> = g.vertices().collect();
        for sources in all.chunks(width) {
            batch.run(&g, sources).unwrap();
            for (i, &s) in sources.iter().enumerate() {
                full.dijkstra_into(&g, s);
                for v in g.vertices() {
                    prop_assert_eq!(batch.dist(i, v), full.dist(v), "dist {}->{}", s, v);
                    prop_assert_eq!(batch.path_to(&g, i, v), full.path_to(v), "path {}->{}", s, v);
                }
            }
        }
    }

    /// The flat CSR `BallTable`, built at thread counts 1 and 4, is
    /// bit-identical — member arrays and slot regions alike — and answers
    /// like a table assembled per vertex from the pre-refactor `HashMap`
    /// ball search, for members and non-members alike.
    #[test]
    fn flat_ball_table_matches_reference_at_thread_counts(
        (g, _seed) in arb_graph(),
        ell in 2usize..14,
    ) {
        let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let table = ball_table_at(&g, ell, 1);
        prop_assert!(
            table == ball_table_at(&g, ell, 4),
            "threads = 1 and threads = 4 built different tables"
        );
        check_ball_table(&g, &table, |u| reference::ball_hashmap(&g, u, ell));
    }

    /// The table is filled a block of `⌈n/16⌉` consecutive vertices at a
    /// time: around the block count (one vertex a block, a last short block,
    /// two a block) and at ℓ below, at and above `n`, both thread counts
    /// still build the table the per-vertex reference search describes.
    #[test]
    fn blocked_ball_build_matches_reference_at_block_boundaries(seed in 1u64..500) {
        let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for n in [1usize, 15, 16, 17, 33] {
            let ties = WeightModel::Uniform { lo: 1, hi: 3 };
            let g = generators::erdos_renyi(n, 0.25, ties, &mut StdRng::seed_from_u64(seed));
            for ell in [1, n - 1, n, 2 * n] {
                let table = ball_table_at(&g, ell, 1);
                prop_assert!(
                    table == ball_table_at(&g, ell, 4),
                    "n = {}, ℓ = {}: thread counts differ", n, ell
                );
                check_ball_table(&g, &table, |u| reference::ball_hashmap(&g, u, ell));
            }
        }
    }

    /// The flat (sorted-slice) TZ bunch tables answer exactly like the
    /// hierarchy's bunch lists: every bunch entry is found at its recorded
    /// distance, every non-member probe misses, the oracle's ping-pong query
    /// built on them matches a `HashMap`-based reference evaluation, and
    /// builds at thread counts 1 and 4 route identically. On every family,
    /// unit (tie-heavy) and weighted, around the 64-wide batch boundary, at
    /// k = 2, 3 and at thread counts 1 and 4, the hierarchy also equals its
    /// reference path and satisfies the TZ lemmas (`check_tz_hierarchy`).
    #[test]
    fn flat_tz_bunches_match_hashmap_baseline(seed in 1u64..500, n in 40usize..80) {
        use std::collections::HashMap;
        let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let build = |g: &Graph, k: usize, threads: usize| {
            routing_par::set_threads(threads);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x72);
            let h = TzHierarchy::build(g, k, &mut rng).unwrap();
            routing_par::set_threads(routing_par::available_threads());
            h
        };
        for family in generators::Family::ALL {
            for weights in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 9 }] {
                for size in [2usize, 63, 64, 65, 130] {
                    let g = family.generate(size, weights, &mut StdRng::seed_from_u64(seed));
                    let exact = DistanceMatrix::new(&g);
                    for (k, threads) in [(2, 1), (2, 4), (3, 1), (3, 4)] {
                        check_tz_hierarchy(&g, &build(&g, k, threads), &exact);
                    }
                }
            }
        }

        let mut gen_rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(
            n,
            10.0 / n as f64,
            WeightModel::Uniform { lo: 1, hi: 9 },
            &mut gen_rng,
        );
        let h1 = build(&g, 2, 1);
        let h4 = build(&g, 2, 4);

        // Reference: per-vertex HashMaps rebuilt from the hierarchy's
        // bunch lists (the exact pre-refactor oracle layout).
        let bunch_maps: Vec<HashMap<VertexId, u64>> = g
            .vertices()
            .map(|v| h1.bunch(v).collect())
            .collect();
        let oracle = routing_baselines::TzOracle::new(h1.clone());
        for u in g.vertices() {
            for v in g.vertices() {
                // Reference ping-pong evaluation on the HashMaps.
                let expect = {
                    if u == v { 0 } else {
                        let (mut a, mut b) = (u, v);
                        let mut w = a;
                        let mut i = 0usize;
                        loop {
                            if let Some(&dwv) = bunch_maps[b.index()].get(&w) {
                                let dwu = bunch_maps[a.index()]
                                    .get(&w)
                                    .copied()
                                    .unwrap_or_else(|| h1.pivot(i, a).1);
                                break dwu + dwv;
                            }
                            i += 1;
                            std::mem::swap(&mut a, &mut b);
                            w = h1.pivot(i, a).0;
                        }
                    }
                };
                prop_assert_eq!(oracle.query(u, v), expect, "oracle differs on ({}, {})", u, v);
            }
            // Membership fidelity: every bunch entry hits, non-members miss.
            prop_assert_eq!(h1.bunch(u).collect::<Vec<_>>(), h4.bunch(u).collect::<Vec<_>>());
        }

        let s1 = routing_baselines::TzRoutingScheme::new(h1);
        let s4 = routing_baselines::TzRoutingScheme::new(h4);
        for u in g.vertices().step_by(5) {
            for v in g.vertices().step_by(3) {
                let a = simulate(&g, &s1, u, v).unwrap();
                let b = simulate(&g, &s4, u, v).unwrap();
                prop_assert_eq!(a.weight, b.weight);
                prop_assert_eq!(a.hops, b.hops);
            }
        }
    }
}

proptest! {
    // Each case checks 36 unit tables pair by pair and four tables of 1100
    // ball by ball, so four cases keep it near ten seconds in debug.
    #![proptest_config(ProptestConfig { cases: 4, .. ProptestConfig::default() })]

    /// The unit-weight twin of
    /// `blocked_ball_build_matches_reference_at_block_boundaries`: on unit
    /// weights the table is filled in blocks rounded up to whole batches of
    /// 64 centres, each batch one budgeted batch BFS. Around the block count
    /// and the batch width (one short batch, one full, one and a bit, two
    /// and a bit), at ℓ below, at and above `n`, on graphs sparse enough for
    /// components smaller than ℓ, both thread counts build the table the
    /// per-vertex reference search describes — every pair and the layout.
    /// Across block boundaries (n = 1100: nine blocks of 128 on unit
    /// weights, sixteen of 69 with weight ties) every ball, radius and
    /// first port still matches it.
    #[test]
    fn blocked_ball_build_matches_reference_on_unit_weights(seed in 1u64..500) {
        let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let graph = |n: usize, p: f64, weights| {
            generators::erdos_renyi(n, p, weights, &mut StdRng::seed_from_u64(seed))
        };
        for n in [1usize, 15, 16, 17, 33, 63, 64, 65, 130] {
            let g = graph(n, (4.0 / n as f64).min(0.25), WeightModel::Unit);
            for ell in [1, n - 1, n, 2 * n] {
                let table = ball_table_at(&g, ell, 1);
                prop_assert!(
                    table == ball_table_at(&g, ell, 4),
                    "n = {}, ℓ = {}: thread counts differ", n, ell
                );
                check_ball_table(&g, &table, |u| reference::ball_hashmap(&g, u, ell));
            }
        }
        for weights in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 3 }] {
            let g = graph(1100, 0.004, weights);
            for ell in [1, 40] {
                let table = ball_table_at(&g, ell, 1);
                prop_assert!(
                    table == ball_table_at(&g, ell, 4),
                    "n = 1100, ℓ = {}, {:?}: thread counts differ", ell, weights
                );
                for u in g.vertices() {
                    let (members, first_hops, radius) = reference::ball_hashmap(&g, u, ell);
                    prop_assert_eq!(table.ball(u).members(), members.clone());
                    prop_assert_eq!(table.ball(u).radius(), radius);
                    for (&(v, _), hop) in members.iter().zip(first_hops) {
                        let port = hop.and_then(|hop| g.port_to(u, hop));
                        prop_assert_eq!(table.first_port(u, v), port);
                    }
                }
            }
        }
    }
}

/// The ball table against the reference ball search on every graph
/// family, with weight ties, at `ℓ ∈ {1, 2, ⌈√n⌉, 40, n}`, built at thread
/// counts 1 and 4, in the encoding the build chooses. The graphs whose ids
/// are hostile to the hashed layout (stride-16 progressions, a ball of the
/// smallest slot hashes, lanes that never fill) are held in both encodings
/// by `balls.rs`'s unit tests, which can force either.
#[test]
fn ball_table_answers_every_pair_on_every_family() {
    let mut rng = StdRng::seed_from_u64(61);
    let ties = WeightModel::Uniform { lo: 1, hi: 3 };
    let n = 240;
    let graphs = [
        ("er-unit", generators::erdos_renyi(n, 8.0 / n as f64, WeightModel::Unit, &mut rng)),
        ("er-ties", generators::erdos_renyi(n, 8.0 / n as f64, ties, &mut rng)),
        ("geometric", generators::random_geometric(n, 0.12, ties, &mut rng)),
        ("grid", generators::grid(15, 16)),
        ("star", generators::star(n)),
        ("path", generators::path(n)),
    ];

    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (name, g) in &graphs {
        let sqrt_n = (g.n() as f64).sqrt().ceil() as usize;
        for ell in [1, 2, sqrt_n, 40, g.n()] {
            for threads in [1, 4] {
                println!("{name}, ℓ = {ell}, threads = {threads}");
                check_ball_table(g, &ball_table_at(g, ell, threads), |u| reference::ball_hashmap(g, u, ell));
            }
        }
    }
}

/// The packed slots at every width the graph can ask for: ports in two
/// bytes around a hub of degree 299, ids in one byte at n = 255 and in two
/// at n = 256, and in three on a path of 65,536 vertices (ℓ = 2; there
/// every region's layout is checked whole, its pairs near the centre and at
/// a stride of 4099). Each answers like the reference search and keeps the
/// layout `check_ball_table` holds.
#[test]
fn ball_table_holds_its_layout_at_every_slot_width() {
    let mut rng = StdRng::seed_from_u64(67);
    // A wheel: the hub's degree needs 2-byte ports, its rim is a cycle.
    let mut wheel = GraphBuilder::new(300);
    for v in 1..300 {
        wheel.add_unit_edge(0, v).unwrap();
        wheel.add_unit_edge(v, v % 299 + 1).unwrap();
    }
    let ties = WeightModel::Uniform { lo: 1, hi: 3 };
    let graphs = [
        ("wheel", wheel.build(), 4),
        ("er-255", generators::erdos_renyi(255, 8.0 / 255.0, ties, &mut rng), 2),
        ("er-256", generators::erdos_renyi(256, 8.0 / 256.0, ties, &mut rng), 3),
    ];
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (name, g, bytes) in &graphs {
        for ell in [2, 40, g.n()] {
            let table = ball_table_at(g, ell, 4);
            assert_eq!(SlotCodec::for_graph(g).width(), *bytes, "{name}: bytes a record");
            let hashed = table.encoding() == BallEncoding::Hashed;
            assert_eq!(table.slot_bytes(), hashed.then_some(*bytes), "{name}: bytes a slot");
            check_ball_table(g, &table, |u| reference::ball_hashmap(g, u, ell));
        }
    }
    let n = 65_536;
    let path = generators::path(n);
    let table = ball_table_at(&path, 2, 4);
    assert_eq!(table.slot_bytes(), Some(4), "path: a 3-byte id and a 1-byte port");
    let probes = |u: VertexId| {
        let near = u.index().saturating_sub(3)..(u.index() + 4).min(n);
        near.chain((u.index() % 4099..n).step_by(4099)).map(|v| VertexId(v as u32)).collect()
    };
    check_ball_table_probing(&path, &table, |u| reference::ball_hashmap(&path, u, 2), probes);
}

/// The largest table of each Thorup–Zwick-derived key, over `n^x` with `x`
/// the key's declared space exponent, on Erdős–Rényi and geometric graphs
/// (weights 1 to 32) at each size of `sizes`: every ratio must stay within
/// the polylog envelope `15·log₂ n` — 134 at n = 500, 179 at n = 4000.
fn assert_tz_tables_inside_their_envelope(sizes: &[usize]) {
    use compact_routing::registry::SchemeRegistry;
    use generators::Family;
    use routing_core::BuildContext;

    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let registry = SchemeRegistry::with_defaults();
    for &n in sizes {
        for family in [Family::ErdosRenyi, Family::Geometric] {
            let g = family.generate(n, WeightModel::Uniform { lo: 1, hi: 32 }, &mut StdRng::seed_from_u64(n as u64));
            let envelope = 15.0 * (n as f64).log2();
            for key in ["tz2", "tz3", "thm16k3"] {
                let x = registry.meta(key).unwrap().space_exponent.unwrap();
                let ctx = BuildContext { params: Params::default(), seed: 13, threads: 2 };
                let scheme = registry.build(key, &g, &ctx).unwrap_or_else(|e| panic!("{key}: {e}"));
                let max = g.vertices().map(|v| scheme.table_words(v)).max().unwrap();
                let ratio = max as f64 / (n as f64).powf(x);
                assert!(
                    ratio <= envelope,
                    "{key} on {family:?} n = {n}: max table {max} words = {ratio:.1}·n^{x:.2}, over 15·log₂ n = {envelope:.1}"
                );
            }
        }
    }
    routing_par::set_threads(routing_par::available_threads());
}

/// The `Õ(n^{1/k})` tables of tz2, tz3 and thm16k3 at n ∈ {500, 1000}: a
/// root above level 0 keeps no member's label. Where every root keeps
/// every member's label, a top-level root holds `n` of them and the ratio
/// reads 200 to 635 at n = 1000.
#[test]
fn tz_tables_stay_inside_their_space_envelope() {
    assert_tz_tables_inside_their_envelope(&[500, 1000]);
}

/// [`tz_tables_stay_inside_their_space_envelope`] at n ∈ {2000, 4000},
/// where a ratio that grows with `n` leaves the envelope furthest behind.
#[test]
fn tz_tables_stay_inside_their_space_envelope_at_release_sizes() {
    assert_tz_tables_inside_their_envelope(&[2000, 4000]);
}

/// Property 1 holds along the stored ports, not only along Dijkstra's path:
/// on every family, unit (the batch BFS's ports) and tie-heavy (the bounded
/// Dijkstra's), at sizes crossing the 64-wide batch, at `ℓ ∈ {2, ⌈√n⌉, n}`.
/// Negative control: one swapped port must fail the check.
#[test]
fn property_one_holds_along_stored_ports() {
    let ties = WeightModel::Uniform { lo: 1, hi: 3 };
    for family in generators::Family::ALL {
        for weights in [WeightModel::Unit, ties] {
            for n in [63usize, 64, 65, 130] {
                let g = family.generate(n, weights, &mut StdRng::seed_from_u64(n as u64));
                let sqrt_n = (n as f64).sqrt().ceil() as usize;
                for ell in [2, sqrt_n, n] {
                    let t = BallTable::build(&g, ell);
                    if let Err(e) = property_one_along_ports(&g, &t, |w, v| t.first_port(w, v)) {
                        panic!("{} n = {n} ℓ = {ell} {weights:?}: {e}", family.name());
                    }
                }
            }
        }
    }

    // Swap the port of one edge-neighbour member for another port at `u`.
    let g = generators::erdos_renyi(80, 0.08, WeightModel::Unit, &mut StdRng::seed_from_u64(5));
    let t = BallTable::build(&g, 9);
    let u = g.vertices().find(|&u| g.degree(u) >= 2).expect("a vertex of degree 2");
    let v = t.ball(u).ids().get(1).expect("a ball of two members");
    let right = t.first_port(u, v).expect("a neighbour member has a port");
    let wrong = Port((right.0 + 1) % g.degree(u) as u32);
    let swapped = |w: VertexId, x: VertexId| if (w, x) == (u, v) { Some(wrong) } else { t.first_port(w, x) };
    assert!(property_one_along_ports(&g, &t, |w, x| t.first_port(w, x)).is_ok());
    assert!(property_one_along_ports(&g, &t, swapped).is_err(), "a swapped port went unnoticed");
}

// ---------------------------------------------------------------------------
// Erasure fidelity: the object-safe `DynScheme` surface must be observably
// indistinguishable from the typed `RoutingScheme` it erases.
// ---------------------------------------------------------------------------

/// Walks `(u, v)` twice — once through the typed `RoutingScheme` methods,
/// once through the erased `DynScheme` surface of the *same* scheme value —
/// asserting identical decisions, identical header words at every hop, and
/// the same delivered weight. Also checks the per-vertex word accounting
/// and the label word count the erased label carries.
fn assert_erasure_fidelity<S: routing_model::RoutingScheme + Send + Sync>(
    g: &Graph,
    scheme: &S,
    pairs: &[(VertexId, VertexId)],
) {
    use routing_model::{Decision, DynScheme, HeaderSize, RoutingScheme};
    let erased: &dyn DynScheme = scheme;
    assert_eq!(RoutingScheme::name(scheme), erased.name());
    assert_eq!(RoutingScheme::n(scheme), erased.n());
    for v in g.vertices() {
        assert_eq!(RoutingScheme::table_words(scheme, v), erased.table_words(v));
        assert_eq!(RoutingScheme::label_words(scheme, v), erased.label_words(v));
    }
    for &(u, v) in pairs {
        let typed_label = RoutingScheme::label_of(scheme, v);
        let erased_label = erased.label_of(v);
        assert_eq!(
            erased_label.words(),
            RoutingScheme::label_words(scheme, v),
            "erased label must carry the typed word count"
        );
        let mut typed_header =
            RoutingScheme::init_header(scheme, u, &typed_label).expect("typed init");
        let mut erased_header = erased.init_header(u, &erased_label).expect("erased init");
        let mut at = u;
        let mut typed_weight = 0u64;
        let mut hops = 0usize;
        loop {
            assert_eq!(
                HeaderSize::words(&typed_header),
                HeaderSize::words(&erased_header),
                "header words diverged at {at} while routing {u}->{v}"
            );
            let td = RoutingScheme::decide(scheme, at, &mut typed_header, &typed_label)
                .expect("typed decide");
            let ed =
                erased.decide(at, &mut erased_header, &erased_label).expect("erased decide");
            assert_eq!(td, ed, "decision diverged at {at} while routing {u}->{v}");
            match td {
                Decision::Deliver => {
                    assert_eq!(at, v, "scheme delivered at the wrong vertex");
                    break;
                }
                Decision::Forward(port) => {
                    let edge = g.neighbor_at(at, port);
                    typed_weight += edge.weight;
                    at = edge.to;
                    hops += 1;
                    assert!(hops <= 4 * g.n() + 16, "walk exceeded the hop budget");
                }
            }
        }
        // The shared simulator (which consumes &dyn DynScheme) must agree
        // with the typed step-by-step walk above.
        let out = simulate(g, erased, u, v).expect("simulate routes the pair");
        assert_eq!(out.weight, typed_weight);
        assert_eq!(out.hops, hops);
    }
}

/// A shared sampled-pair population for the fidelity walks.
fn fidelity_pairs(g: &Graph, rng: &mut StdRng) -> Vec<(VertexId, VertexId)> {
    let ids: Vec<VertexId> = g.vertices().collect();
    routing_model::sample_pairs_from(&ids, &ids, 30, rng)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// For every scheme the default registry registers, the erased
    /// `DynScheme` and the typed scheme produce identical decisions, routed
    /// weights, header words, and table/label words on sampled pairs of a
    /// random (unweighted — valid input for every scheme, including Thm 10)
    /// Erdős–Rényi graph.
    #[test]
    fn erased_and_typed_schemes_are_indistinguishable(seed in 1u64..1_000, n in 40usize..70) {
        use compact_routing::registry::SchemeRegistry;
        use routing_core::{BuildContext, Params};

        let mut gen_rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, 10.0 / n as f64, WeightModel::Unit, &mut gen_rng);
        let registry = SchemeRegistry::with_defaults();
        let ctx = BuildContext {
            params: Params::with_epsilon(0.5),
            seed: seed ^ 0xf1de,
            threads: 1,
        };
        let mut pair_rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        let pairs = fidelity_pairs(&g, &mut pair_rng);

        for key in registry.names() {
            // The registry-built scheme must be interchangeable with a
            // typed build from the same context...
            let built = registry.build(key, &g, &ctx).expect(key);
            prop_assert_eq!(built.name(), key);
            // ...and the typed twin, viewed through the erased surface,
            // must be observably identical to its typed self.
            let mut rng = ctx.rng();
            match key {
                "warmup" | "thm13" | "thm15" => {
                    let (name, levels) = [("warmup", 1), ("thm13", 2), ("thm15", 4)]
                        .into_iter()
                        .find(|&(name, _)| name == key)
                        .unwrap();
                    let scheme = SchemeMultilevel::build(&g, levels, name, &ctx.params, &mut rng);
                    assert_erasure_fidelity(&g, &scheme.unwrap(), &pairs)
                }
                "thm10" => assert_erasure_fidelity(
                    &g,
                    &routing_core::SchemeTwoPlusEps::build(&g, &ctx.params, &mut rng).unwrap(),
                    &pairs,
                ),
                "thm11" => assert_erasure_fidelity(
                    &g,
                    &SchemeFivePlusEps::build(&g, &ctx.params, &mut rng).unwrap(),
                    &pairs,
                ),
                "tz2" => assert_erasure_fidelity(
                    &g,
                    &routing_baselines::TzRoutingScheme::build(&g, 2, &mut rng).unwrap(),
                    &pairs,
                ),
                "tz3" => assert_erasure_fidelity(
                    &g,
                    &routing_baselines::TzRoutingScheme::build(&g, 3, &mut rng).unwrap(),
                    &pairs,
                ),
                "exact" => assert_erasure_fidelity(
                    &g,
                    &routing_baselines::ExactScheme::build(&g).unwrap(),
                    &pairs,
                ),
                "thm16k3" => assert_erasure_fidelity(
                    &g,
                    &routing_baselines::Thm16Scheme::build(&g, 3, &ctx.params, &mut rng).unwrap(),
                    &pairs,
                ),
                other => panic!("registered scheme {other} has no typed twin in this test"),
            }
            // Finally, the registry-built (erased) scheme routes every
            // sampled pair to the right destination through the shared
            // simulator.
            for &(u, v) in &pairs {
                let a = simulate(&g, built.as_ref(), u, v).expect("registry scheme routes");
                assert_eq!(a.destination(), v);
            }
        }
    }
}
