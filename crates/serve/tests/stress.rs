//! Satellite 1 — the epoch-swap concurrency stress test.
//!
//! M reader threads hammer a shared [`ShardedEngine`] with a fixed pair
//! set while a writer thread performs K epoch swaps under the load. The
//! schemes are deterministic, so for every published epoch the correct
//! answer to every pair is precomputable; the test asserts that **every**
//! answer observed by any reader at any time is exactly the answer of the
//! epoch it claims to come from — never a blend of two epochs, never an
//! answer no published epoch would give — and that the answers of one
//! batch all name one epoch (one snapshot load per `route_batch` call).
//! After the last swap, a quiescent batch must observe the final epoch, and
//! the telemetry counters, live for the whole run, must account for every
//! swap, query, snapshot load, label-cache probe and phase and be rendered
//! as such by the Prometheus exporter.
//!
//! Sized to run in the default `cargo test -q` tier: a small graph, a few
//! thousand queries per reader. CI additionally loops it 20× in release
//! under `RUST_BACKTRACE=1` with a hard timeout (see
//! .github/workflows/ci.yml): a lost wake-up in the engine is a hang.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use compact_routing::registry::SchemeRegistry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use routing_core::BuildContext;
use routing_graph::generators::{Family, WeightModel};
use routing_graph::{Graph, VertexId};
use routing_model::{hop_budget, simulate_lean, DynScheme, LeanOutcome};
use routing_serve::{EngineConfig, RouteAnswer, ShardedEngine, ZipfWorkload};

const READERS: usize = 4;
const SWAPS: u64 = 3;
const BATCHES_PER_READER: usize = 30;
const BATCH: usize = 64;
const N: usize = 120;

/// The scheme published at each epoch: epoch e uses EPOCH_KEYS[(e-1) % len]
/// with build seed e, so consecutive epochs genuinely answer differently.
const EPOCH_KEYS: [&str; 4] = ["tz2", "warmup", "thm13", "tz2"];

fn build_epoch(g: &Graph, epoch: u64) -> Arc<dyn DynScheme> {
    let registry = SchemeRegistry::with_defaults();
    let key = EPOCH_KEYS[((epoch - 1) % EPOCH_KEYS.len() as u64) as usize];
    let ctx = BuildContext { seed: epoch, threads: 1, ..BuildContext::default() };
    Arc::from(registry.build(key, g, &ctx).expect("scheme builds"))
}

/// The ground truth for one epoch: every pair's lean outcome under that
/// epoch's scheme, routed directly (single-threaded, canonical simulator).
fn truth_for(
    g: &Graph,
    scheme: &dyn DynScheme,
    pairs: &[(VertexId, VertexId)],
) -> HashMap<(VertexId, VertexId), LeanOutcome> {
    pairs
        .iter()
        .map(|&(u, v)| {
            ((u, v), simulate_lean(g, scheme, u, v, hop_budget(g.n())).expect("routes"))
        })
        .collect()
}

fn answer_matches(answer: &RouteAnswer, truth: &LeanOutcome) -> bool {
    answer.weight == truth.weight
        && answer.hops == truth.hops
        && answer.max_header_words == truth.max_header_words
}

#[test]
fn readers_never_observe_an_answer_outside_a_published_epoch() {
    let mut rng = StdRng::seed_from_u64(99);
    let g = Arc::new(Family::ErdosRenyi.generate(
        N,
        WeightModel::Uniform { lo: 1, hi: 9 },
        &mut rng,
    ));

    // The fixed pair set every reader routes, Zipf-skewed like real load.
    let mut load = ZipfWorkload::new(N, 0.9, 7);
    let pairs: Vec<(VertexId, VertexId)> = load.next_batch(BATCH);

    // Precompute every epoch's scheme and its ground truth up front: the
    // writer publishes prebuilt snapshots so swaps are fast enough to land
    // in the middle of reader traffic.
    let total_epochs = 1 + SWAPS;
    let schemes: Vec<Arc<dyn DynScheme>> =
        (1..=total_epochs).map(|e| build_epoch(&g, e)).collect();
    let truth: Vec<HashMap<(VertexId, VertexId), LeanOutcome>> =
        schemes.iter().map(|s| truth_for(&g, s.as_ref(), &pairs)).collect();

    // Distinct epochs must answer distinctly for the test to have teeth:
    // at least one pair must distinguish every adjacent epoch pair.
    for w in truth.windows(2) {
        assert!(
            pairs.iter().any(|p| w[0][p] != w[1][p]),
            "two adjacent epochs answer every pair identically; the stress test \
             cannot distinguish them — change EPOCH_KEYS or seeds"
        );
    }

    // Telemetry goes live only now, after the ground truth was routed, so
    // the counters checked at the end hold exactly the served traffic (this
    // file is one test in its own process: nothing else increments them).
    routing_obs::set_metrics(true);
    let engine = Arc::new(
        ShardedEngine::new(Arc::clone(&g), Arc::clone(&schemes[0]), EngineConfig::with_shards(2))
            .unwrap(),
    );

    let writer_done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        // Writer: publish epochs 2..=total while the readers are routing.
        scope.spawn(|| {
            for e in 2..=total_epochs {
                // A few hundred microseconds between swaps lets reader
                // batches land on both sides of each publication.
                std::thread::sleep(std::time::Duration::from_micros(300));
                let published =
                    engine.publish(Arc::clone(&g), Arc::clone(&schemes[(e - 1) as usize]))
                        .expect("publish succeeds");
                assert_eq!(published, e, "epochs are assigned in publication order");
            }
            writer_done.store(true, Ordering::Release);
        });

        // Readers: route the fixed pair set over and over; every answer
        // must be exactly the precomputed answer of its claimed epoch.
        for reader in 0..READERS {
            let engine = Arc::clone(&engine);
            let pairs = &pairs;
            let truth = &truth;
            scope.spawn(move || {
                let mut seen_epochs = 0u64;
                for round in 0..BATCHES_PER_READER {
                    let answers = engine.route_batch(pairs);
                    // One snapshot load per call: the whole batch names
                    // one epoch, whichever lanes routed its chunks.
                    let epochs: Vec<u64> =
                        answers.iter().flatten().map(|a| a.epoch).collect();
                    assert!(
                        epochs.windows(2).all(|w| w[0] == w[1]),
                        "reader {reader} round {round}: one batch, epochs {epochs:?}"
                    );
                    for (answer, pair) in answers.iter().zip(pairs) {
                        let answer = answer
                            .as_ref()
                            .unwrap_or_else(|e| panic!("reader {reader} round {round}: {e}"));
                        assert!(
                            answer.epoch >= 1 && answer.epoch <= total_epochs,
                            "epoch {} was never published",
                            answer.epoch
                        );
                        let expected = &truth[(answer.epoch - 1) as usize][pair];
                        assert!(
                            answer_matches(answer, expected),
                            "reader {reader} round {round}: answer {answer:?} for {pair:?} is \
                             not the answer of its claimed epoch {}",
                            answer.epoch
                        );
                        seen_epochs |= 1 << answer.epoch;
                    }
                }
                // Each reader rode through real traffic; it must have seen
                // at least one answer (epoch 1 at minimum).
                assert_ne!(seen_epochs, 0);
            });
        }
    });

    assert!(writer_done.load(Ordering::Acquire));
    assert_eq!(engine.epoch(), total_epochs);

    // Quiescent check: with the writer done, a fresh batch must observe the
    // final epoch — and only the final epoch — with its exact answers.
    let final_truth = &truth[(total_epochs - 1) as usize];
    for (answer, pair) in engine.route_batch(&pairs).iter().zip(&pairs) {
        let answer = answer.as_ref().expect("quiescent routing succeeds");
        assert_eq!(answer.epoch, total_epochs, "stale epoch after the last swap");
        assert!(answer_matches(answer, &final_truth[pair]));
    }

    // Latency accounting covered every query: READERS * rounds * batch
    // + the quiescent batch, across all lanes.
    let stats = engine.stats();
    let expected_queries = (READERS * BATCHES_PER_READER * BATCH + BATCH) as u64;
    assert_eq!(stats.iter().map(|s| s.queries).sum::<u64>(), expected_queries);
    assert_eq!(stats.iter().map(|s| s.errors).sum::<u64>(), 0);
    assert_eq!(
        stats.iter().map(|s| s.latency.count()).sum::<u64>(),
        expected_queries,
        "the latency histograms must account for every routed query"
    );

    // Live metrics under load: no increment was lost, and the exposition
    // renders what the counters hold.
    use routing_obs::counters as c;
    let live = [
        ("serve_epoch_swaps_total", c::SERVE_EPOCH_SWAPS.get()),
        ("routing_queries_total", c::ROUTING_QUERIES.get()),
        ("serve_snapshot_loads_total", c::SERVE_SNAPSHOT_LOADS.get()),
        ("serve_label_cache_hits_total", c::SERVE_LABEL_CACHE_HITS.get()),
        ("serve_label_cache_misses_total", c::SERVE_LABEL_CACHE_MISSES.get()),
        ("routing_phase_direct_total", c::ROUTING_PHASE_DIRECT.get()),
        ("routing_phase_to_pivot_total", c::ROUTING_PHASE_TO_PIVOT.get()),
        ("routing_phase_tree_total", c::ROUTING_PHASE_TREE.get()),
    ];
    let [swaps, queries, loads, hits, misses, direct, to_pivot, tree] = live.map(|(_, v)| v);
    assert_eq!(swaps, SWAPS, "one epoch swap per publish");
    assert_eq!(queries, expected_queries, "one delivery per served query");
    let calls = (READERS * BATCHES_PER_READER + 1) as u64;
    assert_eq!(loads, calls, "one snapshot load per route_batch call");
    assert_eq!(hits + misses, expected_queries, "every query consults the label cache");
    assert_eq!(direct + to_pivot + tree, expected_queries, "every query takes one phase");
    let text = routing_obs::export::prometheus(&routing_obs::MetricSet::gather());
    for (series, value) in live {
        assert!(text.contains(&format!("\n{series} {value}\n")), "{series} {value} not rendered");
    }
}
