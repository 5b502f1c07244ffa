//! The lane/chunk mechanism under the shapes it was not sized for: more
//! callers than lanes, batch sizes around one chunk, a scheme that panics
//! mid-chunk, and an engine dropped while its helpers poll or are parked.
//! A lost wake-up in any of these is a hang, so CI runs this suite under a
//! hard timeout.

use std::sync::Arc;
use std::time::{Duration, Instant};

use compact_routing::registry::SchemeRegistry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use routing_core::BuildContext;
use routing_graph::generators::{self, Family, WeightModel};
use routing_graph::{Graph, VertexId};
use routing_model::scheme::{Decision, HeaderSize, RoutingScheme};
use routing_model::{simulate, simulate_lean, DynScheme, RouteError};
use routing_serve::{EngineConfig, ServeError, ShardedEngine, ZipfWorkload};

/// `engine.rs`'s chunk size: the batch sizes below straddle it.
const CHUNK: usize = 16;

#[test]
fn more_callers_than_lanes_get_their_own_answers_in_order() {
    const N: usize = 80;
    const CALLERS: usize = 8;
    const ROUNDS: usize = 6;
    let mut rng = StdRng::seed_from_u64(5);
    let g = Family::ErdosRenyi.generate(N, WeightModel::Uniform { lo: 1, hi: 9 }, &mut rng);
    let ctx = BuildContext { seed: 3, threads: 1, ..BuildContext::default() };
    let scheme: Arc<dyn DynScheme> =
        Arc::from(SchemeRegistry::with_defaults().build("tz2", &g, &ctx).expect("scheme builds"));
    let g = Arc::new(g);
    let engine =
        ShardedEngine::new(Arc::clone(&g), Arc::clone(&scheme), EngineConfig::with_shards(2))
            .unwrap();

    let routed: usize = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|caller| {
                let (engine, g, scheme) = (&engine, &g, &scheme);
                scope.spawn(move || {
                    let mut load = ZipfWorkload::new(N, 0.9, caller as u64);
                    let mut routed = 0;
                    for round in 0..ROUNDS {
                        for len in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 257] {
                            let mut pairs = load.next_batch(len);
                            // Every seventh pair names a vertex the engine
                            // does not serve, as source or as destination.
                            for (i, pair) in pairs.iter_mut().enumerate().skip(3).step_by(7) {
                                let bad = VertexId((N + i) as u32);
                                let as_source = (i + round) % 2 == 0;
                                *pair = if as_source { (bad, pair.1) } else { (pair.0, bad) };
                            }
                            let answers = engine.route_batch(&pairs);
                            assert_eq!(answers.len(), pairs.len());
                            for (answer, &(u, v)) in answers.iter().zip(&pairs) {
                                match [v, u].into_iter().find(|x| x.index() >= N) {
                                    Some(bad) => assert_eq!(
                                        answer,
                                        &Err(ServeError::UnknownVertex { vertex: bad.index(), n: N })
                                    ),
                                    None => {
                                        let got = answer.as_ref().expect("a valid pair routes");
                                        let ttl = 4 * N + 16;
                                        let want = simulate_lean(g, scheme.as_ref(), u, v, ttl)
                                            .expect("direct routing succeeds");
                                        assert_eq!(
                                            (got.weight, got.hops, got.max_header_words),
                                            (want.weight, want.hops, want.max_header_words),
                                            "caller {caller}: {u:?}->{v:?}"
                                        );
                                        assert_eq!(got.epoch, 1);
                                        assert!(got.shard < 2, "lane {} of 2", got.shard);
                                        routed += 1;
                                    }
                                }
                            }
                        }
                    }
                    routed
                })
            })
            .collect();
        callers.into_iter().map(|c| c.join().expect("caller thread")).sum()
    });

    let stats = engine.stats();
    assert_eq!(stats.len(), 2);
    assert_eq!(stats.iter().map(|s| s.queries).sum::<u64>(), routed as u64);
    assert_eq!(stats.iter().map(|s| s.latency.count()).sum::<u64>(), routed as u64);
    assert_eq!(stats.iter().map(|s| s.errors).sum::<u64>(), 0);
}

/// Routes over a complete graph by the direct edge, and panics in `decide`
/// on one `(source, destination)` pair.
struct PanicsOn {
    g: Arc<Graph>,
    pair: (VertexId, VertexId),
}

#[derive(Clone)]
struct Source(VertexId);
impl HeaderSize for Source {
    fn words(&self) -> usize {
        1
    }
}

impl RoutingScheme for PanicsOn {
    type Label = VertexId;
    type Header = Source;
    fn name(&self) -> &str {
        "panics-on"
    }
    fn n(&self) -> usize {
        self.g.n()
    }
    fn label_of(&self, v: VertexId) -> VertexId {
        v
    }
    fn init_header(&self, source: VertexId, _: &VertexId) -> Result<Source, RouteError> {
        Ok(Source(source))
    }
    fn decide(
        &self,
        at: VertexId,
        header: &mut Source,
        dest: &VertexId,
    ) -> Result<Decision, RouteError> {
        assert_ne!((header.0, *dest), self.pair, "the toy scheme panics on this pair");
        if at == *dest {
            return Ok(Decision::Deliver);
        }
        Ok(Decision::Forward(self.g.port_to(at, *dest).expect("complete graph")))
    }
    fn table_words(&self, _: VertexId) -> usize {
        self.g.n()
    }
    fn label_words(&self, _: VertexId) -> usize {
        1
    }
}

/// The panic message of the toy scheme reaches stderr each time a lane
/// meets the pair (in its lockstep walk, then routing it alone); that is the
/// test working.
#[test]
fn a_scheme_panic_fails_one_query_and_neither_hangs_nor_poisons_the_engine() {
    const N: u32 = 24;
    let g = Arc::new(generators::complete(N as usize));
    let bad = (VertexId(5), VertexId(12));
    let pairs: Vec<(VertexId, VertexId)> =
        (0..N).flat_map(|u| (0..N).step_by(3).map(move |v| (VertexId(u), VertexId(v)))).collect();
    assert!(pairs.len() > 4 * CHUNK && pairs.contains(&bad));
    // The engine routes the batch dest-sorted: the bad pair sits inside a
    // run of its destination and inside a chunk, so walks of its chunk are
    // in flight beside it when it panics.
    let mut sorted = pairs.clone();
    sorted.sort_unstable_by_key(|&(u, v)| (v, u));
    let at = sorted.iter().position(|&p| p == bad).unwrap();
    assert!((3..CHUNK - 3).contains(&(at % CHUNK)), "chunk position {}", at % CHUNK);
    assert!(sorted[at - 3..=at + 3].iter().all(|p| p.1 == bad.1));

    for (shards, record_paths) in [1usize, 2, 4].into_iter().flat_map(|s| [(s, false), (s, true)]) {
        let scheme = Arc::new(PanicsOn { g: Arc::clone(&g), pair: bad });
        let config = EngineConfig { shards, record_paths };
        let engine = ShardedEngine::new(Arc::clone(&g), Arc::clone(&scheme) as _, config).unwrap();
        // Twice: the lane that caught the panic serves the next batch too.
        for _ in 0..2 {
            for (answer, &(u, v)) in engine.route_batch(&pairs).iter().zip(&pairs) {
                if (u, v) == bad {
                    let lane = match answer {
                        Err(ServeError::ShardUnavailable { shard }) => *shard,
                        other => panic!("{shards} lanes: {other:?}"),
                    };
                    assert!(lane < shards, "lane {lane} of {shards}");
                } else {
                    let got = answer.as_ref().expect("every other pair routes");
                    let want = simulate(&g, scheme.as_ref(), u, v).expect("direct routing");
                    assert_eq!(
                        (got.weight, got.hops, got.max_header_words),
                        (want.weight, want.hops, want.max_header_words),
                        "{shards} lanes: {u:?}->{v:?}"
                    );
                    assert_eq!(got.path, record_paths.then_some(want.path));
                }
            }
        }
        assert_eq!(engine.route(bad.0, bad.1), Err(ServeError::ShardUnavailable { shard: 0 }));
        assert!(engine.route(bad.1, bad.0).is_ok());
        let stats = engine.stats();
        assert_eq!(stats.iter().map(|s| s.queries).sum::<u64>(), 2 * pairs.len() as u64 + 2);
        assert_eq!(stats.iter().map(|s| s.errors).sum::<u64>(), 3);
        let timed: u64 = stats.iter().map(|s| s.latency.count()).sum();
        assert_eq!(timed, 2 * pairs.len() as u64 + 2);
    }
}

#[test]
fn dropping_an_engine_joins_polling_and_parked_helpers_promptly() {
    let g = Arc::new(generators::complete(8));
    let pairs: Vec<(VertexId, VertexId)> =
        (0..64u32).map(|i| (VertexId(i % 8), VertexId(i / 8))).collect();
    // Straight after a batch the helpers still poll the board; a few poll
    // windows later they are parked on the condition variable.
    for idle in [Duration::ZERO, Duration::from_millis(20)] {
        let scheme = Arc::new(PanicsOn { g: Arc::clone(&g), pair: (VertexId(8), VertexId(8)) });
        let engine =
            ShardedEngine::new(Arc::clone(&g), scheme, EngineConfig::with_shards(4)).unwrap();
        assert!(engine.route_batch(&pairs).iter().all(Result::is_ok));
        std::thread::sleep(idle);
        let dropped = Instant::now();
        drop(engine);
        assert!(dropped.elapsed() < Duration::from_secs(2), "drop took {:?}", dropped.elapsed());
    }
}
