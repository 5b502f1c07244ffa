//! The typed walk against the erased surface: every `simulate*` entry point
//! runs one hop loop monomorphised per scheme, with the label and header on
//! the stack. Routing through it must be indistinguishable from stepping
//! the same scheme hop by hop through the erased, boxed
//! `init_header`/`decide` pair — on the graph a scheme was built for and on
//! another one, where walks fail — and a label erased by one registry key
//! must be refused by every other key, not misread. The batch walk,
//! `walk_many`, with several walks in flight, must answer every job as
//! `simulate_lean` does, and record the path `simulate` does.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use compact_routing::registry::SchemeRegistry;
use routing_core::{BuildContext, Params};
use routing_graph::generators::{Family, WeightModel};
use routing_graph::{Graph, VertexId, Weight};
use routing_model::{
    hop_budget, simulate, simulate_lean, simulate_lean_with_label, Decision, DynScheme, HeaderSize,
    LeanOutcome, RouteError, RouteOutcome,
};

/// The walk `simulate` makes, written out over the erased surface: a fresh
/// erased label, a boxed header from `init_header`, then `decide` per hop
/// with the simulator's checks in the simulator's order.
fn erased_reference(
    g: &Graph,
    scheme: &dyn DynScheme,
    source: VertexId,
    dest: VertexId,
) -> Result<RouteOutcome, RouteError> {
    let max_hops = hop_budget(g.n());
    let n = scheme.n();
    if source.index() >= n {
        return Err(RouteError::UnknownVertex { at: source });
    }
    let label = scheme.label_of(dest);
    let mut header = scheme.init_header(source, &label)?;
    let (mut at, mut weight, mut hops): (VertexId, Weight, usize) = (source, 0, 0);
    let mut path = vec![source];
    let mut max_header_words = header.words();
    loop {
        match scheme.decide(at, &mut header, &label)? {
            Decision::Deliver if at != dest => {
                return Err(RouteError::DeliveredAtWrongVertex { at, destination: dest });
            }
            Decision::Deliver => return Ok(RouteOutcome { path, weight, hops, max_header_words }),
            Decision::Forward(port) => {
                if hops >= max_hops {
                    return Err(RouteError::HopBudgetExceeded { budget: max_hops });
                }
                if port.index() >= g.degree(at) {
                    return Err(RouteError::InvalidPort { at, port: port.0 });
                }
                let edge = g.neighbor_at(at, port);
                weight += edge.weight;
                at = edge.to;
                if at.index() >= n {
                    return Err(RouteError::UnknownVertex { at });
                }
                hops += 1;
                path.push(at);
                max_header_words = max_header_words.max(header.words());
            }
        }
    }
}

/// The instances: Erdős–Rényi and geometric, unit and weighted, at both
/// sizes, each with a second graph on the same vertices to walk stale.
fn instances() -> Vec<(String, Graph, Graph)> {
    let mut out = Vec::new();
    for family in [Family::ErdosRenyi, Family::Geometric] {
        for weights in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 32 }] {
            for n in [64usize, 130] {
                let mut rng = StdRng::seed_from_u64(n as u64 ^ 0x7a1c);
                let g = family.generate(n, weights, &mut rng);
                let other = family.generate(n, weights, &mut rng);
                out.push((format!("{} {weights:?} n = {n}", family.name()), g, other));
            }
        }
    }
    out
}

/// Every key the registry builds on `g`; Theorem 10 refuses weighted
/// graphs, and nothing else may fail.
fn build_all(g: &Graph, what: &str) -> Vec<(String, Box<dyn DynScheme>)> {
    let registry = SchemeRegistry::with_defaults();
    let ctx = BuildContext { params: Params::with_epsilon(0.5), seed: 11, threads: 1 };
    let built = registry.names().into_iter().filter_map(|key| match registry.build(key, g, &ctx) {
        Ok(scheme) => Some((key.to_string(), scheme)),
        Err(_) if key == "thm10" && !g.is_unweighted() => None,
        Err(e) => panic!("{key} on {what}: {e}"),
    });
    built.collect()
}

fn sample_pairs(n: usize, count: usize, rng: &mut StdRng) -> Vec<(VertexId, VertexId)> {
    (0..count)
        .map(|_| (VertexId(rng.gen_range(0..n as u32)), VertexId(rng.gen_range(0..n as u32))))
        .collect()
}

#[test]
fn typed_walk_equals_the_erased_reference_loop() {
    let mut failed_walks = 0;
    for (what, g, other) in instances() {
        let pairs = sample_pairs(g.n(), 150, &mut StdRng::seed_from_u64(g.n() as u64));
        for (key, scheme) in build_all(&g, &what) {
            let s = scheme.as_ref();
            for &(u, v) in &pairs {
                let typed = simulate(&g, s, u, v);
                assert!(typed.is_ok(), "{key} on {what}: {u}->{v}: {typed:?}");
                assert_eq!(typed, erased_reference(&g, s, u, v), "{key} on {what}: {u}->{v}");
                // Stale: the same tables walked on another graph, where most
                // walks fail; the typed walk must fail the same way.
                let stale = simulate(&other, s, u, v);
                failed_walks += usize::from(stale.is_err());
                assert_eq!(stale, erased_reference(&other, s, u, v), "{key} stale on {what}");
                let lean = simulate_lean(&other, s, u, v, hop_budget(g.n()));
                let lean = lean.map(|o| (o.weight, o.hops, o.max_header_words));
                let full = stale.map(|o| (o.weight, o.hops, o.max_header_words));
                assert_eq!(lean, full, "{key} stale lean on {what}: {u}->{v}");
            }
        }
    }
    assert!(failed_walks > 0, "the stale walks exercise the error paths");
}

/// Dest-sorted jobs with what a serving chunk can hold: runs of one
/// destination, self-queries, and one source outside the vertex space.
fn lockstep_jobs(n: usize, rng: &mut StdRng) -> Vec<(VertexId, VertexId)> {
    let mut jobs = sample_pairs(n, 100, rng);
    let run_to = VertexId(rng.gen_range(0..n as u32));
    jobs.extend((0..9).map(|i| (VertexId((i * 7) % n as u32), run_to)));
    jobs.extend((0..6).map(|i| (VertexId(i * 11), VertexId(i * 11))));
    jobs.push((VertexId(n as u32 + 3), run_to));
    jobs.sort_unstable_by_key(|&(u, v)| (v, u));
    jobs
}

/// Routes `jobs` through `walk_many`, `chunk` jobs per call as the serving
/// lanes do, and returns each job's result and path.
type Walked = (Result<(Weight, usize, usize), RouteError>, Vec<VertexId>);
fn walk_in_chunks(
    g: &Graph,
    scheme: &dyn DynScheme,
    jobs: &[(VertexId, VertexId)],
    chunk: usize,
    with_paths: bool,
) -> Vec<Walked> {
    let mut walked = Vec::with_capacity(jobs.len());
    for jobs in jobs.chunks(chunk) {
        let mut got: Vec<Option<Result<_, RouteError>>> = vec![None; jobs.len()];
        let mut paths = vec![Vec::new(); jobs.len()];
        let out = &mut |k: usize, out: Result<LeanOutcome, RouteError>| {
            let out = out.map(|o| (o.weight, o.hops, o.max_header_words));
            assert!(got[k].replace(out).is_none(), "job {k} answered twice");
        };
        scheme.walk_many(g, jobs, hop_budget(g.n()), with_paths.then_some(&mut paths[..]), out);
        for (got, path) in got.into_iter().zip(paths) {
            walked.push((got.expect("every job is answered"), path));
        }
    }
    walked
}

#[test]
fn walk_many_answers_every_job_as_simulate_lean_does() {
    let mut checked_errors = 0;
    for (what, g, other) in instances() {
        let n = g.n();
        let jobs = lockstep_jobs(n, &mut StdRng::seed_from_u64(n as u64 ^ 0x10c5));
        for (key, scheme) in build_all(&g, &what) {
            let s = scheme.as_ref();
            // On the build graph and stale on another, where walks fail.
            for (on, walked_on) in [("", &g), ("stale ", &other)] {
                for chunk in [16, jobs.len()] {
                    let lean = walk_in_chunks(walked_on, s, &jobs, chunk, false);
                    let full = walk_in_chunks(walked_on, s, &jobs, chunk, true);
                    for ((&(u, v), (lean, _)), (full, path)) in jobs.iter().zip(lean).zip(full) {
                        let at = format!("{key} {on}on {what}, chunks of {chunk}: {u}->{v}");
                        let want = simulate_lean(walked_on, s, u, v, hop_budget(n));
                        let want = want.map(|o| (o.weight, o.hops, o.max_header_words));
                        checked_errors += usize::from(want.is_err());
                        assert_eq!(lean, want, "{at}");
                        assert_eq!(full, want, "{at}, with paths");
                        if let Ok(routed) = simulate(walked_on, s, u, v) {
                            assert_eq!(path, routed.path, "{at}: path");
                        }
                    }
                }
            }
        }
    }
    assert!(checked_errors > 0, "the unknown source and the stale walks exercise the errors");
}

#[test]
fn a_label_from_another_key_is_bad_label_not_a_panic() {
    for (what, g, _) in instances().into_iter().filter(|(_, g, _)| g.n() == 64) {
        let schemes = build_all(&g, &what);
        let mut rng = StdRng::seed_from_u64(3);
        let pairs = sample_pairs(g.n(), 8, &mut rng);
        for (key, scheme) in &schemes {
            for (foreign_key, foreign) in schemes.iter().filter(|(k, _)| k != key) {
                for &(u, v) in &pairs {
                    let label = foreign.label_of(v);
                    let routed = simulate_lean_with_label(&g, scheme.as_ref(), u, v, &label, 1024);
                    assert!(
                        matches!(routed, Err(RouteError::BadLabel { .. })),
                        "{foreign_key}'s label routed by {key} on {what}: {routed:?}"
                    );
                    let header = scheme.init_header(u, &label);
                    assert!(
                        matches!(header, Err(RouteError::BadLabel { .. })),
                        "{foreign_key}'s label given to {key}'s init_header on {what}"
                    );
                }
            }
            // A key's own label still routes.
            let (u, v) = pairs[0];
            let own = scheme.label_of(v);
            simulate_lean_with_label(&g, scheme.as_ref(), u, v, &own, 1024).expect("own label");
        }
    }
}

/// Every key answers no table and no label words for a vertex outside the
/// graph it was built on — the end of the id range, just past it, and the
/// largest id below the `u32::MAX` sentinel — as a tree does for a vertex
/// outside it, and none panics.
#[test]
fn a_vertex_outside_the_graph_holds_no_words() {
    for (what, g, _) in instances().into_iter().filter(|(what, ..)| what.ends_with("n = 130")) {
        let n = g.n() as u32;
        for (key, scheme) in build_all(&g, &what) {
            for v in [n, n + 3, u32::MAX - 1].map(VertexId) {
                let words = (scheme.table_words(v), scheme.label_words(v));
                assert_eq!(words, (0, 0), "{key} on {what}: {v}");
            }
        }
    }
}
