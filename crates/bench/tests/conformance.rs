//! Stretch-bound conformance: the bound each registry row declares
//! ([`compact_routing::registry::SchemeMeta::stretch_bound`]) is executable,
//! not documentation. For every key the
//! default registry registers, build on random graphs and check every routed
//! pair against the scheme's declared `(base + eps_coeff·ε)·d + additive`
//! envelope — plus a deliberate-violation case proving the checker can fail.
//!
//! The vendored proptest derives its case RNG deterministically from the
//! test name, so these runs are seeded and repeatable: they run in the
//! default `cargo test -q` tier.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use compact_routing::registry::{SchemeRegistry, StretchBound};
use routing_bench::check_stretch_conformance;
use routing_core::{BuildContext, Params};
use routing_graph::apsp::DistanceMatrix;
use routing_graph::generators::{self, WeightModel};
use routing_graph::VertexId;

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// Every registered scheme, on its declared instance flavour (weighted,
    /// or unweighted for Theorem 10 and the exact anchor), routes every
    /// sampled pair within its declared stretch envelope.
    #[test]
    fn every_registered_scheme_conforms_to_its_declared_bound(
        seed in 1u64..1_000,
        n in 40usize..80,
    ) {
        let eps = 0.25;
        let mut rng_w = StdRng::seed_from_u64(seed);
        let weighted = generators::erdos_renyi(
            n,
            10.0 / n as f64,
            WeightModel::Uniform { lo: 1, hi: 12 },
            &mut rng_w,
        );
        let mut rng_u = StdRng::seed_from_u64(seed);
        let unweighted =
            generators::erdos_renyi(n, 10.0 / n as f64, WeightModel::Unit, &mut rng_u);
        let exact_w = DistanceMatrix::new(&weighted);
        let exact_u = DistanceMatrix::new(&unweighted);

        let registry = SchemeRegistry::with_defaults();
        let ctx = BuildContext {
            params: Params::with_epsilon(eps),
            seed: seed ^ 0xbead,
            threads: 1,
        };
        let ids: Vec<VertexId> = weighted.vertices().collect();
        let mut pair_rng = StdRng::seed_from_u64(seed ^ 0x9a17);
        let pairs = routing_model::sample_pairs_from(&ids, &ids, 40, &mut pair_rng);

        for key in registry.names() {
            let meta = registry.meta(key).expect("every registered key has a row");
            let (g, exact) =
                if meta.weighted { (&weighted, &exact_w) } else { (&unweighted, &exact_u) };
            let scheme = registry.build(key, g, &ctx).expect(key);
            match check_stretch_conformance(
                g,
                scheme.as_ref(),
                exact,
                &meta.stretch_bound,
                eps,
                &pairs,
            ) {
                Ok(checked) => prop_assert!(checked > 0, "{key}: no pairs were checked"),
                Err(e) => prop_assert!(false, "{e}"),
            }
        }
    }
}

/// The negative control: a deliberately impossible bound must be reported.
/// No routing scheme delivers below the true distance, so declaring a
/// sub-1 multiplicative bound forces a violation on every non-trivial pair
/// — if the checker ever stops failing on this, it has stopped checking.
#[test]
fn conformance_checker_fails_on_a_deliberately_violated_bound() {
    let mut rng = StdRng::seed_from_u64(3);
    let g = generators::erdos_renyi(50, 0.2, WeightModel::Uniform { lo: 2, hi: 9 }, &mut rng);
    let exact = DistanceMatrix::new(&g);
    let registry = SchemeRegistry::with_defaults();
    let ctx = BuildContext { params: Params::with_epsilon(0.5), seed: 5, threads: 1 };
    let scheme = registry.build("warmup", &g, &ctx).unwrap();
    let pairs: Vec<(VertexId, VertexId)> =
        (0..50).map(|i| (VertexId(i), VertexId((i + 11) % 50))).collect();
    let impossible = StretchBound { base: 0.9, eps_coeff: 0.0, additive: 0.0 };
    let err =
        check_stretch_conformance(&g, scheme.as_ref(), &exact, &impossible, 0.5, &pairs)
            .unwrap_err();
    assert!(err.contains("stretch bound violated"), "unexpected error: {err}");
    assert!(err.contains("warmup"), "error should name the scheme: {err}");
}
