//! Cross-crate integration tests: every scheme of the paper plus the
//! baselines, evaluated end to end through the shared simulator on several
//! graph families, checking the paper's stretch bounds and the relative
//! table-size ordering that Table 1 claims.

use rand::rngs::StdRng;
use rand::SeedableRng;
use routing_baselines::{ExactScheme, TzOracle, TzRoutingScheme};
use routing_core::{Params, SchemeFivePlusEps, SchemeMultilevel, SchemeTwoPlusEps};
use routing_graph::apsp::DistanceMatrix;
use routing_graph::generators::{self, Family, WeightModel};
use routing_graph::{Graph, VertexId};
use routing_model::eval::{evaluate, PairSelection};
use routing_model::{simulate, RoutingScheme};

fn weighted_instance(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::erdos_renyi(n, 8.0 / n as f64, WeightModel::Uniform { lo: 1, hi: 24 }, &mut rng)
}

#[test]
fn all_schemes_deliver_every_message_on_every_family() {
    let eps = 0.5;
    let params = Params::with_epsilon(eps);
    for family in Family::ALL {
        let mut rng = StdRng::seed_from_u64(5);
        let unweighted = family.generate(120, WeightModel::Unit, &mut rng);
        let weighted = family.generate(120, WeightModel::Uniform { lo: 1, hi: 10 }, &mut rng);
        let exact_u = DistanceMatrix::new(&unweighted);
        let exact_w = DistanceMatrix::new(&weighted);

        let thm10 = SchemeTwoPlusEps::build(&unweighted, &params, &mut rng).unwrap();
        let thm11 = SchemeFivePlusEps::build(&weighted, &params, &mut rng).unwrap();
        let warm = SchemeMultilevel::build(&weighted, 1, "warmup", &params, &mut rng).unwrap();

        let r10 = evaluate(&unweighted, &thm10, &exact_u, PairSelection::Sampled(500), &mut rng)
            .expect("thm10 routes everything");
        assert!(r10.stretch.check_affine_bound(2.0 + 2.0 * eps, 1.0), "{}", family.name());

        let r11 = evaluate(&weighted, &thm11, &exact_w, PairSelection::Sampled(500), &mut rng)
            .expect("thm11 routes everything");
        assert!(r11.stretch.check_affine_bound(5.0 + 3.0 * eps, 0.0), "{}", family.name());

        let rw = evaluate(&weighted, &warm, &exact_w, PairSelection::Sampled(500), &mut rng)
            .expect("warm-up routes everything");
        assert!(rw.stretch.check_affine_bound(3.0 + 2.0 * eps, 0.0), "{}", family.name());
    }
}

#[test]
fn table_size_ordering_matches_table_1() {
    // The paper's point: stretch 5+eps is achievable with tables well below
    // the sqrt(n) barrier. Check the measured ordering on a moderately sized
    // instance: thm11 tables < warm-up tables < exact tables, and thm10
    // (2+eps,1) pays more space than warm-up for its better stretch.
    let g = weighted_instance(300, 11);
    let unweighted = {
        let mut rng = StdRng::seed_from_u64(11);
        generators::erdos_renyi(300, 8.0 / 300.0, WeightModel::Unit, &mut rng)
    };
    let params = Params::with_epsilon(0.5);
    let mut rng = StdRng::seed_from_u64(12);

    let thm11 = SchemeFivePlusEps::build(&g, &params, &mut rng).unwrap();
    let warm = SchemeMultilevel::build(&g, 1, "warmup", &params, &mut rng).unwrap();
    let thm10 = SchemeTwoPlusEps::build(&unweighted, &params, &mut rng).unwrap();
    let exact = ExactScheme::build(&g).unwrap();

    let mean = |f: &dyn Fn(VertexId) -> usize| -> f64 {
        g.vertices().map(f).sum::<usize>() as f64 / g.n() as f64
    };
    let m11 = mean(&|v| thm11.table_words(v));
    let mwarm = mean(&|v| warm.table_words(v));
    let m10 = mean(&|v| thm10.table_words(v));
    let mexact = mean(&|v| exact.table_words(v));

    assert!(m11 < mwarm, "thm11 mean table {m11} should be below warm-up {mwarm}");
    assert!(mwarm < m10, "warm-up mean table {mwarm} should be below thm10 {m10}");
    assert!(m11 < mexact, "compact tables must beat full tables");
}

#[test]
fn tz_baseline_and_oracle_agree_with_paper_claims() {
    let g = weighted_instance(150, 21);
    let exact = DistanceMatrix::new(&g);
    let mut rng = StdRng::seed_from_u64(22);
    let scheme = TzRoutingScheme::build(&g, 2, &mut rng).unwrap();
    let oracle = TzOracle::new(scheme.hierarchy().clone());
    for u in g.vertices().step_by(7) {
        for v in g.vertices().step_by(5) {
            if u == v {
                continue;
            }
            let d = exact.dist(u, v).unwrap();
            let routed = simulate(&g, &scheme, u, v).unwrap().weight;
            let est = oracle.query(u, v);
            assert!(routed <= 3 * d, "tz k=2 stretch violated");
            assert!(est >= d && est <= 3 * d, "tz oracle stretch violated");
            // The routed path can never beat the exact distance.
            assert!(routed >= d);
        }
    }
}

#[test]
fn headers_stay_within_the_papers_budget() {
    // Lemma 7/8 headers are O((1/eps) log n) words; check they do not grow
    // with n beyond a generous constant at fixed eps.
    let params = Params::with_epsilon(0.5);
    for (n, seed) in [(120usize, 31u64), (240, 32)] {
        let g = weighted_instance(n, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let scheme = SchemeFivePlusEps::build(&g, &params, &mut rng).unwrap();
        let mut max_header = 0usize;
        for u in g.vertices().step_by(9) {
            for v in g.vertices().step_by(11) {
                if u == v {
                    continue;
                }
                let out = simulate(&g, &scheme, u, v).unwrap();
                max_header = max_header.max(out.max_header_words);
            }
        }
        // b = 5 for eps=0.5; sequences are at most 2b log(nD) + 2 entries of
        // 2 words each; allow slack for the phase tag and tree labels.
        assert!(max_header < 400, "header grew unexpectedly: {max_header} words at n={n}");
    }
}

#[test]
fn facade_prelude_builds_and_routes() {
    use compact_routing::prelude::*;
    let mut rng = StdRng::seed_from_u64(41);
    let g = generators::cycle(60);
    let scheme = SchemeMultilevel::build(&g, 1, "warmup", &Params::default(), &mut rng).unwrap();
    let out = simulate(&g, &scheme, VertexId(0), VertexId(30)).unwrap();
    assert_eq!(out.destination(), VertexId(30));
    assert!(out.weight >= 30);
}

#[test]
fn registry_builds_route_and_honour_the_naming_invariant() {
    use compact_routing::registry::SchemeRegistry;
    use routing_core::BuildContext;

    // Unweighted instance: valid input for every registered scheme.
    let mut rng = StdRng::seed_from_u64(51);
    let g = generators::erdos_renyi(100, 0.08, WeightModel::Unit, &mut rng);
    let exact = DistanceMatrix::new(&g);
    let registry = SchemeRegistry::with_defaults();
    let ctx = BuildContext { seed: 52, threads: 1, ..BuildContext::default() };
    let mut rng = StdRng::seed_from_u64(53);
    for key in registry.names() {
        let scheme = registry.build(key, &g, &ctx).unwrap_or_else(|e| panic!("{key}: {e}"));
        assert_eq!(scheme.name(), key, "scheme name must equal its registry key");
        // Route a sample through the erased scheme and sanity-check against
        // the exact distances (every scheme in the registry has stretch
        // <= 7 at these parameters).
        let report = evaluate(&g, scheme.as_ref(), &exact, PairSelection::Sampled(150), &mut rng)
            .unwrap_or_else(|e| panic!("{key} failed to route: {e}"));
        assert_eq!(report.scheme, key);
        assert!(
            report.stretch.max_multiplicative().unwrap_or(1.0) <= 7.0 + 1.0,
            "{key} exceeded every registered stretch bound"
        );
    }
}
