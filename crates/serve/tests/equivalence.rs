//! Lane-count and batching equivalence: routing through the engine — at
//! any lane count, batched or one-at-a-time — is bit-identical to direct
//! single-threaded routing through the same `DynScheme`. The engine adds
//! provenance (epoch, lane) and throughput, never different answers.

use std::sync::Arc;

use compact_routing::registry::SchemeRegistry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use routing_core::BuildContext;
use routing_graph::generators::{self, WeightModel};
use routing_graph::{Graph, VertexId};
use routing_model::{simulate, DynScheme};
use routing_serve::{EngineConfig, RouteAnswer, ShardedEngine, ZipfWorkload};

const KEYS: [&str; 3] = ["warmup", "tz2", "thm13"];

fn arb_setup() -> impl Strategy<Value = (Graph, u64, &'static str)> {
    (24usize..60, 1u64..1_000, 0usize..KEYS.len()).prop_map(|(n, seed, key)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(
            n,
            8.0 / n as f64,
            WeightModel::Uniform { lo: 1, hi: 16 },
            &mut rng,
        );
        (g, seed, KEYS[key])
    })
}

fn build_scheme(g: &Graph, key: &str, seed: u64) -> Arc<dyn DynScheme> {
    let registry = SchemeRegistry::with_defaults();
    let ctx = BuildContext { seed, threads: 1, ..BuildContext::default() };
    Arc::from(registry.build(key, g, &ctx).expect("scheme builds"))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Satellite 2: for random graphs and schemes, every pair routed through
    /// the engine at 1, 2 and 4 lanes produces exactly the decisions of the
    /// direct simulator — same weight, same hop count, same per-hop header
    /// words, same path.
    #[test]
    fn sharded_routing_is_bit_identical_to_direct((g, seed, key) in arb_setup()) {
        let scheme = build_scheme(&g, key, seed);
        let g = Arc::new(g);
        let pairs: Vec<(VertexId, VertexId)> = g
            .vertices()
            .flat_map(|u| g.vertices().step_by(5).map(move |v| (u, v)))
            .collect();

        // Ground truth: the canonical single-threaded simulator.
        let want: Vec<_> = pairs
            .iter()
            .map(|&(u, v)| simulate(&g, scheme.as_ref(), u, v).expect("direct routing succeeds"))
            .collect();

        for shards in [1usize, 2, 4] {
            let config = EngineConfig { shards, record_paths: true };
            let engine =
                ShardedEngine::new(Arc::clone(&g), Arc::clone(&scheme), config).unwrap();
            let answers = engine.route_batch(&pairs);
            for ((answer, truth), &(u, v)) in answers.iter().zip(&want).zip(&pairs) {
                let got = answer.as_ref().unwrap_or_else(|e| {
                    panic!("{shards}-lane engine failed {u:?}->{v:?}: {e}")
                });
                prop_assert_eq!(got.weight, truth.weight);
                prop_assert_eq!(got.hops, truth.hops);
                prop_assert_eq!(got.max_header_words, truth.max_header_words);
                prop_assert_eq!(got.path.as_ref().unwrap(), &truth.path);
                prop_assert_eq!(got.epoch, 1);
                prop_assert!(got.shard < shards, "lane {} of {shards}", got.shard);
            }
        }
    }

    /// Satellite 3a: the batched API answers exactly what one-at-a-time
    /// routing answers, in input order, on the lean (no recorded path) hot
    /// path as well.
    #[test]
    fn batched_equals_one_at_a_time((g, seed, key) in arb_setup()) {
        let scheme = build_scheme(&g, key, seed);
        let g = Arc::new(g);
        let engine = ShardedEngine::new(
            Arc::clone(&g),
            Arc::clone(&scheme),
            EngineConfig::with_shards(3),
        )
        .unwrap();

        let mut load = ZipfWorkload::new(g.n(), 0.9, seed);
        let pairs = load.next_batch(300);

        let batched = engine.route_batch(&pairs);
        for (answer, &(u, v)) in batched.iter().zip(&pairs) {
            // Which lane claims a chunk is a race; everything else is not.
            let single = engine.route(u, v).map(|a| RouteAnswer { shard: 0, ..a });
            let answer = answer.clone().map(|a| RouteAnswer { shard: 0, ..a });
            prop_assert_eq!(answer, single);
        }
    }
}

/// Satellite 3b: the Zipf load generator is byte-reproducible from its seed
/// and its top-1% sources carry a super-proportional share of a long stream
/// (the per-module unit tests check distribution shape; this pins the
/// end-to-end contract the bench binary relies on).
#[test]
fn workload_reproducibility_end_to_end() {
    let n = 2_000;
    let mut a = ZipfWorkload::new(n, 0.99, 1234);
    let mut b = ZipfWorkload::new(n, 0.99, 1234);
    let stream_a = a.next_batch(20_000);
    assert_eq!(stream_a, b.next_batch(20_000));

    let hot: std::collections::HashSet<VertexId> =
        (0..n / 100).map(|r| a.vertex_at_rank(r)).collect();
    let from_hot = stream_a.iter().filter(|(s, _)| hot.contains(s)).count();
    let share = from_hot as f64 / stream_a.len() as f64;
    assert!(share > 0.25, "top 1% of sources carry only {share:.3} of the stream");
}
