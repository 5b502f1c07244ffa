//! The engine: one dest-sorted batch, claimed in chunks by the calling
//! thread and the resident helper threads, with per-lane accounting.
//!
//! # Lanes and chunks
//!
//! An engine with `shards = S` has `S` **lanes**: lane 0 is whichever
//! thread calls [`ShardedEngine::route_batch`], lanes `1..S` are resident
//! helper threads. A batch is validated, sorted by `(destination, slot)`,
//! bound to **one** snapshot and cut into chunks of `CHUNK` queries; every
//! lane claims the next chunk by one `fetch_add` until none is left, so
//! work is sized to what each lane gets through, not to a slice of the id
//! space. A lane routes its chunk with one call of
//! [`DynScheme::walk_many`]: a few walks in flight at once, each advanced
//! one hop in turn, so the cache misses of one overlap the work of the
//! others. Sorting the whole batch keeps queries towards one destination
//! adjacent, so within a chunk one typed label serves the run: a job whose
//! destination repeats the previous job's counts as a label-cache hit, any
//! other as a miss. The labels live on the stack, and the lean walk
//! allocates nothing.
//!
//! Per-query latency is chained: one clock read as each query's walk ends,
//! so a query's sample is the time since the lane's previous completion,
//! and every nanosecond of a lane's `busy_ns` belongs to exactly one query.
//!
//! The caller routes too, which bounds the worst case: a helper that wakes
//! late, or not at all, costs parallelism, never progress — the caller then
//! routes the whole batch itself, which is the plain loop. A batch of one
//! chunk (so every [`ShardedEngine::route`]) and every batch of a one-lane
//! engine is routed inline and wakes nobody. One batch at a time is posted
//! for the helpers; a caller that finds the board taken routes its own
//! batch alone, so callers beyond the lanes bring threads of their own
//! rather than queue behind each other.
//!
//! # Hot swap and panics
//!
//! [`ShardedEngine::publish`] installs a rebuilt `(graph, scheme)` pair as
//! the next epoch without stopping traffic: a batch in flight finishes on
//! the snapshot it loaded, later batches load the new one, and one load per
//! `route_batch` call means every answer of a call names the same epoch
//! (`tests/stress.rs` holds each answer against the epoch it names). A lane
//! routes each chunk under `catch_unwind`. When a walk panics, the lane
//! routes every job of the chunk still without an answer on its own, each
//! under `catch_unwind` again: a scheme that panics on one pair fails that
//! query with [`ServeError::ShardUnavailable`], the rest of the batch is
//! answered, and the lane keeps serving.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use routing_graph::{Graph, VertexId, Weight};
use routing_model::{hop_budget, DynScheme, LeanOutcome, RouteError};
use routing_obs::latency::LatencyHistogram;

use crate::snapshot::{EpochCell, SchemeSnapshot};

/// Queries per claimed chunk: small enough that lanes finish a 256-query
/// batch within one chunk of each other, large enough that a `fetch_add`
/// and two short locks per chunk are noise beside 16 routed queries.
const CHUNK: usize = 16;

/// How long a lane keeps looking for what it waits for (the next posted
/// batch, or the last chunk of its own) before it parks: waking a parked
/// thread costs tens of microseconds, a tenth of a batch.
const POLL: Duration = Duration::from_micros(200);

/// Errors surfaced by the serving engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// A query named a vertex outside the engine's vertex space.
    UnknownVertex {
        /// The offending vertex index.
        vertex: usize,
        /// The engine's vertex count.
        n: usize,
    },
    /// A snapshot's scheme and graph disagree on the vertex count, or a
    /// published snapshot does not match the engine's vertex space.
    SnapshotMismatch {
        /// Vertex count of the offered graph.
        graph_n: usize,
        /// Vertex count the scheme was preprocessed for.
        scheme_n: usize,
        /// Vertex count the engine serves.
        engine_n: usize,
    },
    /// The scheme panicked while lane `shard` was routing this query. Only
    /// this query is lost: the rest of its batch is answered and the lane
    /// keeps serving.
    ShardUnavailable {
        /// The lane that was routing the query.
        shard: usize,
    },
    /// The scheme failed to route the query (a scheme bug, surfaced rather
    /// than swallowed).
    Route(RouteError),
    /// The OS refused to spawn the helper thread of lane `shard` (≥ 1; lane
    /// 0 is the caller) at engine startup. The `io::Error` is not carried
    /// because `ServeError` is `Clone + Eq`.
    WorkerSpawn {
        /// The lane whose helper thread could not be spawned.
        shard: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownVertex { vertex, n } => {
                write!(f, "vertex {vertex} outside the engine's vertex space 0..{n}")
            }
            ServeError::SnapshotMismatch { graph_n, scheme_n, engine_n } => write!(
                f,
                "snapshot mismatch: graph has {graph_n} vertices, scheme was built for \
                 {scheme_n}, engine serves {engine_n}"
            ),
            ServeError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} did not answer (the scheme panicked on this query)")
            }
            ServeError::Route(e) => write!(f, "routing failed: {e}"),
            ServeError::WorkerSpawn { shard } => {
                write!(f, "failed to spawn the helper thread for shard {shard}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Route(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RouteError> for ServeError {
    fn from(e: RouteError) -> Self {
        ServeError::Route(e)
    }
}

// Checked at compile time: serve errors cross lane boundaries, and one
// engine is shared by reference across every reader thread.
const fn assert_send_sync<T: Send + Sync + 'static>() {}
const _: () = assert_send_sync::<ServeError>();
const _: () = assert_send_sync::<ShardedEngine>();

/// Configuration of a [`ShardedEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of lanes that route one batch, **counting the caller**: the
    /// engine keeps `shards − 1` resident helper threads (clamped to at
    /// least 1 lane, which is the caller alone).
    pub shards: usize,
    /// Record the full traversed path in every answer: the same one walk
    /// with the cached label, recording the path (the only per-query
    /// allocation, so off on the serving hot path; on in the equivalence
    /// suite, which compares paths hop by hop).
    pub record_paths: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { shards: 1, record_paths: false }
    }
}

impl EngineConfig {
    /// A config with `shards` lanes and defaults elsewhere.
    pub fn with_shards(shards: usize) -> Self {
        EngineConfig { shards, ..EngineConfig::default() }
    }
}

/// One routed answer.
///
/// Bit-for-bit identical to what direct single-threaded routing through
/// the same snapshot produces ([`routing_model::simulate`] /
/// [`routing_model::simulate_lean`]); the epoch and shard fields add
/// *provenance*, never different routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteAnswer {
    /// Total weight of the traversed path.
    pub weight: Weight,
    /// Number of edges traversed.
    pub hops: usize,
    /// Largest header observed in flight, in `O(log n)`-bit words.
    pub max_header_words: usize,
    /// Epoch of the snapshot that produced this answer.
    pub epoch: u64,
    /// The lane that routed the query: 0 for the calling thread, `1..shards`
    /// for a helper. Which lane claims which chunk is a race, by design.
    pub shard: usize,
    /// The traversed path, when [`EngineConfig::record_paths`] is on.
    pub path: Option<Vec<VertexId>>,
}

/// Per-lane serving statistics. Lane 0 sums over every calling thread.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// The lane index.
    pub shard: usize,
    /// Queries routed (including failed ones).
    pub queries: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Batches the lane routed at least one chunk of.
    pub batches: u64,
    /// Wall-clock the lane spent routing its chunks, nanoseconds.
    pub busy_ns: u64,
    /// Per-query latency distribution, nanoseconds.
    pub latency: LatencyHistogram,
}

type Answer = Result<RouteAnswer, ServeError>;

/// One valid query of a batch: the caller's slot plus the pair.
struct Job {
    slot: usize,
    source: VertexId,
    dest: VertexId,
}

/// One `route_batch` call in flight: the dest-sorted jobs, the snapshot
/// they are all routed under, and what the lanes have done so far.
struct Task {
    snap: SchemeSnapshot,
    jobs: Vec<Job>,
    /// The next unclaimed chunk. `Relaxed` is enough: it hands out indices
    /// and publishes nothing — `jobs` and `snap` reach a helper through the
    /// board's mutex, answers reach the caller through `progress`'s.
    next: AtomicUsize,
    progress: Mutex<Progress>,
    finished: Condvar,
}

struct Progress {
    /// One slot per input pair, `ShardUnavailable { shard: 0 }` until answered.
    answers: Vec<Answer>,
    chunks_left: usize,
}

/// What the helpers watch: the one posted batch, and the stop flag.
#[derive(Default)]
struct Board {
    task: Option<Arc<Task>>,
    shutdown: bool,
}

/// Everything the caller's lane and the helper threads share.
struct Shared {
    cell: EpochCell,
    config: EngineConfig,
    lanes: Vec<Mutex<ShardStats>>,
    board: Mutex<Board>,
    posted: Condvar,
}

/// Locks past poison. Every update under the engine's locks — a counter
/// bump, an `Option` store — leaves the data valid at each step, and scheme
/// code, the one thing here that may panic, never runs under one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Blocks until `ready` finds what it waits for in the guarded state:
/// keeps looking for [`POLL`], then parks on `cv`. Whoever changes the
/// state under `m` notifies `cv` afterwards, and the last look before
/// parking holds the lock, so no wake-up is lost. The poll spins rather
/// than yields: a thread that keeps calling `sched_yield` is ranked behind
/// everything else on its CPU and then misses whole batches.
fn wait_for<T, R>(m: &Mutex<T>, cv: &Condvar, mut ready: impl FnMut(&mut T) -> Option<R>) -> R {
    let deadline = Instant::now() + POLL;
    let mut state = lock(m);
    loop {
        if let Some(found) = ready(&mut state) {
            return found;
        }
        if Instant::now() < deadline {
            drop(state);
            std::hint::spin_loop();
            state = lock(m);
        } else {
            state = cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Shared {
    /// A helper's wait: the posted batch with a chunk to claim, `None` at shutdown.
    fn next_task(&self) -> Option<Arc<Task>> {
        wait_for(&self.board, &self.posted, |board| match &board.task {
            _ if board.shutdown => Some(None),
            Some(task) if task.next.load(Ordering::Relaxed) * CHUNK < task.jobs.len() => {
                Some(Some(Arc::clone(task)))
            }
            _ => None,
        })
    }

    /// Claims and routes chunks of `task` as `lane` until none is left
    /// unclaimed. Runs on the caller's thread (lane 0) and on helpers.
    fn work(&self, task: &Task, lane: usize) {
        let (g, scheme) = (task.snap.graph(), task.snap.scheme());
        let max_hops = hop_budget(g.n());
        let mut pairs = [(VertexId(0), VertexId(0)); CHUNK];
        let mut first = true;
        loop {
            let claimed = task.next.fetch_add(1, Ordering::Relaxed);
            let Some(jobs) = task.jobs.chunks(CHUNK).nth(claimed) else {
                return;
            };
            let pairs = &mut pairs[..jobs.len()];
            for (pair, job) in pairs.iter_mut().zip(jobs) {
                *pair = (job.source, job.dest);
            }
            count_label_reuse(pairs);
            // One path per job when recording; otherwise none, and then
            // `paths.get_mut` is `None` for every range of jobs below.
            let mut paths: Vec<Vec<VertexId>> =
                if self.config.record_paths { vec![Vec::new(); jobs.len()] } else { Vec::new() };
            let mut done = Completions::new(jobs.len());
            let answer = |routed: Result<LeanOutcome, RouteError>| {
                let LeanOutcome { weight, hops, max_header_words } = routed?;
                let epoch = task.snap.epoch();
                Ok(RouteAnswer { weight, hops, max_header_words, epoch, shard: lane, path: None })
            };
            let walked = catch_unwind(AssertUnwindSafe(|| {
                let out = &mut |k, routed| done.record(k, answer(routed));
                scheme.walk_many(g, pairs, max_hops, paths.get_mut(..jobs.len()), out);
            }));
            if walked.is_err() {
                // A walk panicked, and the walks in flight beside it were
                // abandoned: route every job still unanswered on its own, so
                // only the panicking one fails.
                for k in 0..jobs.len() {
                    if done.answers[k].is_some() {
                        continue;
                    }
                    let alone = catch_unwind(AssertUnwindSafe(|| {
                        let out = &mut |_, routed| done.record(k, answer(routed));
                        scheme.walk_many(g, &pairs[k..=k], max_hops, paths.get_mut(k..=k), out);
                    }));
                    if alone.is_err() {
                        done.record(k, Err(ServeError::ShardUnavailable { shard: lane }));
                    }
                }
            }
            for (answer, path) in done.answers.iter_mut().zip(paths) {
                if let Some(Ok(answer)) = answer {
                    answer.path = Some(path);
                }
            }
            // Statistics first: once the chunk counts as finished the caller
            // may return, and `stats()` must already cover its answers.
            let mut stats = lock(&self.lanes[lane]);
            stats.queries += jobs.len() as u64;
            stats.errors +=
                done.answers.iter().filter(|a| !matches!(a, Some(Ok(_)))).count() as u64;
            stats.batches += u64::from(std::mem::take(&mut first));
            stats.busy_ns += done.prev.duration_since(done.begun).as_nanos() as u64;
            done.nanos[..jobs.len()].iter().for_each(|&ns| stats.latency.record(ns));
            drop(stats);
            let mut progress = lock(&task.progress);
            for (job, answer) in jobs.iter().zip(done.answers) {
                progress.answers[job.slot] =
                    answer.unwrap_or(Err(ServeError::ShardUnavailable { shard: lane }));
            }
            progress.chunks_left -= 1;
            if progress.chunks_left == 0 {
                task.finished.notify_one();
            }
        }
    }
}

/// One claimed chunk's answers as its walks end, with chained timestamps:
/// one clock read per completed query, whose sample is the time since the
/// lane's previous completion, so every nanosecond of the chunk is
/// attributed to exactly one query.
struct Completions {
    answers: Vec<Option<Answer>>,
    nanos: [u64; CHUNK],
    begun: Instant,
    prev: Instant,
}

impl Completions {
    fn new(jobs: usize) -> Self {
        let begun = Instant::now();
        Completions { answers: vec![None; jobs], nanos: [0; CHUNK], begun, prev: begun }
    }

    /// Job `k` of the chunk has its answer.
    fn record(&mut self, k: usize, answer: Answer) {
        let now = Instant::now();
        self.answers[k] = Some(answer);
        self.nanos[k] = now.duration_since(self.prev).as_nanos() as u64;
        self.prev = now;
    }
}

/// The label-cache counters of one dest-sorted chunk: a job whose
/// destination repeats the previous job's reuses that label (a hit), any
/// other makes one (a miss), as [`DynScheme::walk_many`] does.
fn count_label_reuse(pairs: &[(VertexId, VertexId)]) {
    let mut prev = None;
    for &(_, dest) in pairs {
        if prev == Some(dest) {
            routing_obs::counters::SERVE_LABEL_CACHE_HITS.inc();
        } else {
            routing_obs::counters::SERVE_LABEL_CACHE_MISSES.inc();
        }
        prev = Some(dest);
    }
}

/// The concurrent query-serving engine (see the module docs for the
/// lane/chunk design). It is `Send + Sync`: any number of threads can call
/// [`ShardedEngine::route_batch`] on one shared engine — each routes its
/// own batch as lane 0, and the helpers join whichever batch is posted.
/// Dropping the engine stops the helpers and joins them.
pub struct ShardedEngine {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
    n: usize,
}

impl ShardedEngine {
    /// Starts an engine serving `(graph, scheme)` as epoch 1 with
    /// `config.shards` lanes: the caller's plus `shards − 1` helper threads.
    ///
    /// # Errors
    ///
    /// [`ServeError::SnapshotMismatch`] when the scheme was not built for
    /// this graph's vertex count; [`ServeError::WorkerSpawn`] when a helper
    /// thread cannot be spawned.
    pub fn new(
        graph: Arc<Graph>,
        scheme: Arc<dyn DynScheme>,
        config: EngineConfig,
    ) -> Result<Self, ServeError> {
        let n = graph.n();
        check_serves(&graph, scheme.as_ref(), n)?;
        let shards = config.shards.max(1);
        let shared = Arc::new(Shared {
            cell: EpochCell::new(graph, scheme),
            config: EngineConfig { shards, ..config },
            lanes: (0..shards)
                .map(|shard| Mutex::new(ShardStats { shard, ..ShardStats::default() }))
                .collect(),
            board: Mutex::default(),
            posted: Condvar::new(),
        });
        // Helpers join the engine one by one, so a failed spawn drops an
        // engine that stops and joins the ones already running.
        let mut engine = ShardedEngine { shared, helpers: Vec::with_capacity(shards - 1), n };
        for lane in 1..shards {
            let shared = Arc::clone(&engine.shared);
            let helper = std::thread::Builder::new()
                .name(format!("serve-lane-{lane}"))
                .spawn(move || {
                    while let Some(task) = shared.next_task() {
                        shared.work(&task, lane);
                    }
                })
                .map_err(|_| ServeError::WorkerSpawn { shard: lane })?;
            engine.helpers.push(helper);
        }
        Ok(engine)
    }

    /// Number of lanes, the caller's included.
    pub fn shards(&self) -> usize {
        self.shared.config.shards
    }

    /// Number of vertices of the served vertex space.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.cell.epoch()
    }

    /// The currently published snapshot (what the *next* batch will route
    /// under; batches in flight may still be on the previous one).
    pub fn snapshot(&self) -> SchemeSnapshot {
        self.shared.cell.load()
    }

    /// Publishes a rebuilt `(graph, scheme)` pair as the next epoch and
    /// returns that epoch. Traffic is never stopped: see the module docs.
    ///
    /// # Errors
    ///
    /// [`ServeError::SnapshotMismatch`] when the new snapshot does not
    /// serve this engine's vertex space (queries are validated against
    /// `n`; growing or shrinking the vertex space takes a new engine).
    pub fn publish(
        &self,
        graph: Arc<Graph>,
        scheme: Arc<dyn DynScheme>,
    ) -> Result<u64, ServeError> {
        check_serves(&graph, scheme.as_ref(), self.n)?;
        Ok(self.shared.cell.publish(graph, scheme))
    }

    /// Routes one query: a batch of one, routed inline on the calling thread
    /// (prefer [`ShardedEngine::route_batch`] for throughput).
    ///
    /// # Errors
    ///
    /// As [`ShardedEngine::route_batch`].
    pub fn route(&self, source: VertexId, dest: VertexId) -> Result<RouteAnswer, ServeError> {
        // One answer per pair, so never empty; still no panic on the hot path.
        self.route_batch(&[(source, dest)])
            .pop()
            .unwrap_or(Err(ServeError::ShardUnavailable { shard: 0 }))
    }

    /// Routes a batch of `(source, destination)` queries and returns one
    /// answer per query, **in input order**, all under one snapshot (so all
    /// naming one epoch). The calling thread routes chunks of the batch
    /// while the helpers claim the others, and returns when every chunk is
    /// answered. Per-query failures (unknown vertices, scheme routing
    /// errors, a scheme panic) are returned in that query's slot — they
    /// never fail the rest of the batch.
    pub fn route_batch(
        &self,
        pairs: &[(VertexId, VertexId)],
    ) -> Vec<Result<RouteAnswer, ServeError>> {
        let mut answers: Vec<Answer> = Vec::with_capacity(pairs.len());
        let mut jobs = Vec::with_capacity(pairs.len());
        for (slot, &(source, dest)) in pairs.iter().enumerate() {
            answers.push(Err(match [dest, source].into_iter().find(|v| v.index() >= self.n) {
                Some(v) => ServeError::UnknownVertex { vertex: v.index(), n: self.n },
                None => {
                    jobs.push(Job { slot, source, dest });
                    ServeError::ShardUnavailable { shard: 0 }
                }
            }));
        }
        // By destination, so queries towards one destination share an erased
        // label; slot as tiebreaker keeps the order deterministic.
        jobs.sort_unstable_by_key(|j| (j.dest, j.slot));
        let chunks = jobs.len().div_ceil(CHUNK);
        let shared = &*self.shared;
        let task = Arc::new(Task {
            // One snapshot per call: a concurrent publish only affects
            // later batches.
            snap: shared.cell.load(),
            jobs,
            next: AtomicUsize::new(0),
            progress: Mutex::new(Progress { answers, chunks_left: chunks }),
            finished: Condvar::new(),
        });

        // Post only what a helper can take a chunk of, and only on a free
        // board: otherwise this thread routes the batch alone.
        let posted = chunks > 1 && !self.helpers.is_empty() && {
            let mut board = lock(&shared.board);
            Arc::ptr_eq(board.task.get_or_insert_with(|| Arc::clone(&task)), &task)
        };
        if posted {
            shared.posted.notify_all();
        }
        shared.work(&task, 0);
        if posted {
            // Every chunk is claimed; helpers still inside one hold the
            // task by their own `Arc`.
            lock(&shared.board).task = None;
        }
        wait_for(&task.progress, &task.finished, |p| {
            (p.chunks_left == 0).then(|| std::mem::take(&mut p.answers))
        })
    }

    /// A statistics snapshot of every lane: queries, errors, batches, busy
    /// wall-clock and the per-query latency histogram.
    pub fn stats(&self) -> Vec<ShardStats> {
        self.shared.lanes.iter().map(|lane| lock(lane).clone()).collect()
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        // The flag is the shutdown signal; helpers see it at their next
        // look at the board and are joined so no thread outlives the engine.
        lock(&self.shared.board).shutdown = true;
        self.shared.posted.notify_all();
        for helper in self.helpers.drain(..) {
            let _ = helper.join();
        }
    }
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("n", &self.n)
            .field("shards", &self.shards())
            .field("epoch", &self.epoch())
            .finish()
    }
}

/// A snapshot fits an engine when graph and scheme both have its `n` vertices.
fn check_serves(graph: &Graph, scheme: &dyn DynScheme, engine_n: usize) -> Result<(), ServeError> {
    if graph.n() == engine_n && scheme.n() == engine_n {
        return Ok(());
    }
    Err(ServeError::SnapshotMismatch { graph_n: graph.n(), scheme_n: scheme.n(), engine_n })
}

#[cfg(test)]
mod tests {
    use super::*;
    use compact_routing::registry::SchemeRegistry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_core::BuildContext;
    use routing_graph::generators::{Family, WeightModel};
    use routing_model::simulate;

    fn build(n: usize, key: &str, seed: u64) -> (Arc<Graph>, Arc<dyn DynScheme>) {
        let mut rng = StdRng::seed_from_u64(5);
        let g = Family::ErdosRenyi.generate(n, WeightModel::Uniform { lo: 1, hi: 9 }, &mut rng);
        let registry = SchemeRegistry::with_defaults();
        let ctx = BuildContext { seed, threads: 1, ..BuildContext::default() };
        let scheme = registry.build(key, &g, &ctx).expect("scheme builds");
        (Arc::new(g), Arc::from(scheme))
    }

    #[test]
    fn engine_answers_match_direct_simulation() {
        let (g, scheme) = build(80, "tz2", 11);
        let engine =
            ShardedEngine::new(Arc::clone(&g), Arc::clone(&scheme), EngineConfig::with_shards(3))
                .unwrap();
        for (u, v) in [(0u32, 79u32), (40, 3), (7, 7), (79, 0)] {
            let (u, v) = (VertexId(u), VertexId(v));
            let got = engine.route(u, v).unwrap();
            let want = simulate(&g, scheme.as_ref(), u, v).unwrap();
            assert_eq!((got.weight, got.hops), (want.weight, want.hops));
            assert_eq!(got.max_header_words, want.max_header_words);
            assert_eq!(got.epoch, 1);
            assert_eq!(got.shard, 0, "a single query is routed inline by the caller");
            assert_eq!(got.path, None);
        }
    }

    #[test]
    fn recorded_paths_match_the_full_simulator() {
        let (g, scheme) = build(60, "warmup", 3);
        let config = EngineConfig { shards: 2, record_paths: true };
        let engine = ShardedEngine::new(Arc::clone(&g), Arc::clone(&scheme), config).unwrap();
        let pairs: Vec<(VertexId, VertexId)> =
            (0..60u32).map(|i| (VertexId(i), VertexId((i * 7 + 1) % 60))).collect();
        for (answer, &(u, v)) in engine.route_batch(&pairs).iter().zip(&pairs) {
            let want = simulate(&g, scheme.as_ref(), u, v).unwrap();
            let got = answer.as_ref().unwrap();
            assert_eq!(got.path.as_ref().unwrap(), &want.path);
            assert_eq!(got.weight, want.weight);
        }
    }

    #[test]
    fn per_query_failures_stay_in_their_slot() {
        let (g, scheme) = build(40, "tz2", 1);
        let engine = ShardedEngine::new(g, scheme, EngineConfig::with_shards(2)).unwrap();
        let batch = [
            (VertexId(0), VertexId(39)),
            (VertexId(99), VertexId(1)), // unknown source
            (VertexId(1), VertexId(99)), // unknown destination
            (VertexId(5), VertexId(6)),
        ];
        let answers = engine.route_batch(&batch);
        assert!(answers[0].is_ok());
        assert_eq!(answers[1], Err(ServeError::UnknownVertex { vertex: 99, n: 40 }));
        assert_eq!(answers[2], Err(ServeError::UnknownVertex { vertex: 99, n: 40 }));
        assert!(answers[3].is_ok());
    }

    #[test]
    fn empty_batches_are_fine() {
        let (g, scheme) = build(40, "tz2", 1);
        let engine = ShardedEngine::new(g, scheme, EngineConfig::default()).unwrap();
        assert!(engine.route_batch(&[]).is_empty());
    }

    #[test]
    fn stats_account_for_every_routed_query() {
        let (g, scheme) = build(40, "tz2", 1);
        let engine = ShardedEngine::new(g, scheme, EngineConfig::with_shards(2)).unwrap();
        let pairs: Vec<(VertexId, VertexId)> =
            (0..40u32).map(|i| (VertexId(i), VertexId((i + 1) % 40))).collect();
        for _ in 0..3 {
            assert!(engine.route_batch(&pairs).iter().all(Result::is_ok));
        }
        let stats = engine.stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats.iter().map(|s| s.queries).sum::<u64>(), 120);
        assert_eq!(stats.iter().map(|s| s.errors).sum::<u64>(), 0);
        // A lane counts a batch when it routed a chunk of it. Some lane did
        // for each of the three, but not always the caller: a polling helper
        // can claim all three chunks before the caller's first claim.
        assert!(stats.iter().all(|s| s.batches <= 3));
        assert!(stats.iter().map(|s| s.batches).sum::<u64>() >= 3);
        for s in &stats {
            assert_eq!(s.latency.count(), s.queries, "histogram covers every query");
        }
    }

    #[test]
    fn publish_swaps_the_epoch_for_later_batches() {
        let (g, scheme) = build(40, "tz2", 1);
        let engine =
            ShardedEngine::new(Arc::clone(&g), scheme, EngineConfig::with_shards(2)).unwrap();
        assert_eq!(engine.route(VertexId(0), VertexId(39)).unwrap().epoch, 1);
        let (_, scheme2) = build(40, "warmup", 2);
        assert_eq!(engine.publish(Arc::clone(&g), scheme2).unwrap(), 2);
        assert_eq!(engine.epoch(), 2);
        assert_eq!(engine.route(VertexId(0), VertexId(39)).unwrap().epoch, 2);
        assert_eq!(engine.snapshot().scheme().name(), "warmup");
    }

    #[test]
    fn mismatched_snapshots_are_rejected() {
        let (g, scheme) = build(40, "tz2", 1);
        let (g60, scheme60) = build(60, "tz2", 1);
        let err = ShardedEngine::new(Arc::clone(&g60), Arc::clone(&scheme), EngineConfig::default())
            .unwrap_err();
        assert!(matches!(err, ServeError::SnapshotMismatch { .. }));
        let engine = ShardedEngine::new(g, scheme, EngineConfig::default()).unwrap();
        let err = engine.publish(g60, scheme60).unwrap_err();
        assert_eq!(err, ServeError::SnapshotMismatch { graph_n: 60, scheme_n: 60, engine_n: 40 });
    }

    #[test]
    fn error_display_is_informative() {
        let e = ServeError::UnknownVertex { vertex: 9, n: 4 };
        assert!(e.to_string().contains("vertex 9"));
        let e = ServeError::ShardUnavailable { shard: 2 };
        assert!(e.to_string().contains("shard 2"));
        let e = ServeError::SnapshotMismatch { graph_n: 1, scheme_n: 2, engine_n: 3 };
        assert!(e.to_string().contains("snapshot mismatch"));
        let e: ServeError = RouteError::HopBudgetExceeded { budget: 7 }.into();
        assert!(e.to_string().contains("routing failed"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
