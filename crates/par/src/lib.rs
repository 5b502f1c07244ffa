//! A minimal, std-only parallel executor for the embarrassingly parallel
//! fan-outs of the preprocessing phases: per-source Dijkstra runs, per-vertex
//! ball searches, per-landmark tree constructions.
//!
//! # Design
//!
//! The executor is deliberately *not* a work-stealing runtime. Every
//! [`par_map_index`] call spawns scoped threads ([`std::thread::scope`]) that
//! claim contiguous index chunks from a shared atomic counter and run the
//! user's closure on each index. Chunked claiming gives dynamic load
//! balancing (a thread that drew cheap vertices simply claims the next chunk)
//! without queues, channels, or vendored dependencies — the work items here
//! are individual graph searches costing `O(m + n log n)` each, so the cost
//! of one `fetch_add` per chunk is noise.
//!
//! # Determinism
//!
//! Results are always assembled **in index order**, so for a pure closure the
//! output is byte-for-byte identical to the sequential
//! `(0..n).map(f).collect()` regardless of the thread count. This is the
//! invariant the scheme builders rely on: a table built with `--threads 8`
//! must be *bit-identical* to one built with `--threads 1` for the same seed
//! (randomness never crosses a thread boundary — sampling happens on the
//! caller's thread, only deterministic searches fan out). The property tests
//! in `tests/properties.rs` assert exactly this.
//!
//! # Configuring the thread count
//!
//! The executor reads a process-wide thread count ([`threads`]) that
//! defaults to [`available_threads`] (the hardware parallelism) and can be
//! overridden with [`set_threads`] — the `--threads` flag of the experiment
//! binaries does just that. `threads() == 1` bypasses spawning entirely and
//! runs the closure on the calling thread, so single-threaded runs have zero
//! executor overhead.
//!
//! # Example
//!
//! ```
//! // Square the numbers 0..1000 on all available cores.
//! let squares = routing_par::par_map_index(1000, |i| i * i);
//! assert_eq!(squares[31], 961);
//! // Identical to the sequential result, whatever the thread count.
//! assert_eq!(squares, (0..1000).map(|i| i * i).collect::<Vec<_>>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Process-wide thread count; `0` means "not set, use hardware parallelism".
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Observer hooks around the parallel fan-out, for telemetry layers that
/// need to attribute worker-thread work back to the caller (the span
/// profiler in `routing-obs` aggregates each worker's span tree under the
/// span open at the fork site).
///
/// Plain `fn` pointers, not trait objects: `routing-obs` depends on this
/// crate, so the hooks must be registered without this crate knowing any
/// observer type — and a `fn` call on the uninstalled `None` path costs one
/// `OnceLock` load per `par_map_*` call, nothing per work item.
#[derive(Clone, Copy)]
pub struct ParHooks {
    /// Called once on the caller's thread before workers spawn; the
    /// returned token is handed to every worker's `worker_start`.
    pub fork: fn() -> u64,
    /// Called on each worker thread before it claims work.
    pub worker_start: fn(u64),
    /// Called on each worker thread after its last chunk, before the scope
    /// joins it (the observer's last chance to flush thread-local state).
    pub worker_end: fn(),
    /// Called once on the caller's thread at fork time: a human-readable
    /// name for the fork site (e.g. the open span path in the profiler),
    /// used to attribute worker panics. `None` when the observer has no
    /// name to offer — the executor then falls back to the caller's
    /// source location.
    pub fork_name: fn() -> Option<String>,
}

static HOOKS: OnceLock<ParHooks> = OnceLock::new();

/// Registers the process-wide [`ParHooks`]. The first registration wins
/// (returns `true`); later calls are ignored (`false`) — hooks are a
/// process-lifetime observer, not a swappable strategy.
pub fn set_par_hooks(hooks: ParHooks) -> bool {
    HOOKS.set(hooks).is_ok()
}

/// The parallelism the hardware offers ([`std::thread::available_parallelism`]),
/// falling back to 1 when the platform cannot report it.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Sets the process-wide thread count used by [`par_map_index`] and
/// [`par_map_scratch`]. Values are clamped to at least 1; `set_threads(1)` forces
/// fully sequential execution.
///
/// Because the computations dispatched through this crate are deterministic
/// in their inputs, changing the thread count never changes any result —
/// only wall-clock time.
pub fn set_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The currently configured thread count: the last [`set_threads`] value, or
/// [`available_threads`] if never set.
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => available_threads(),
        n => n,
    }
}

/// Applies `f` to every index in `0..n` and returns the results in index
/// order, fanning the work out over [`threads`] scoped threads.
///
/// Equivalent to `(0..n).map(f).collect()` — including byte-for-byte when
/// `f` is pure — but wall-clock scales with the core count. Panics in `f`
/// propagate to the caller (the scope re-raises them on join).
#[track_caller]
pub fn par_map_index<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    // The scratch executor with a unit scratch — one chunk-claiming loop to
    // maintain instead of two.
    par_map_scratch_with(threads(), n, || (), |_, i| f(i))
}

/// [`par_map_index`] with a per-worker scratch workspace: every worker calls
/// `init()` **once** and then reuses that value across all the indices it
/// processes, passing it to `f` by mutable reference.
///
/// This is the fan-out primitive of the allocation-free search kernel: a
/// worker builds one `SearchScratch` (a few `O(n)` arrays plus a heap) and
/// amortizes it over its whole share of the work items, instead of paying
/// the allocation per item. `threads() == 1` runs on the calling thread with
/// a single scratch and zero executor overhead.
///
/// Determinism: results are assembled in index order exactly like
/// [`par_map_index`], so as long as `f(scratch, i)` returns the same value
/// for every (freshly initialized or reused) scratch — which epoch-stamped
/// workspaces guarantee — the output is byte-for-byte identical to the
/// sequential `(0..n).map(...)` for every thread count.
#[track_caller]
pub fn par_map_scratch<S, U, I, F>(n: usize, init: I, f: F) -> Vec<U>
where
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> U + Sync,
{
    par_map_scratch_with(threads(), n, init, f)
}

/// [`par_map_scratch`] with an explicit thread count, ignoring the global
/// setting (the harness uses this to compare `threads=1` against
/// `threads=T` inside one process).
#[track_caller]
pub fn par_map_scratch_with<S, U, I, F>(threads: usize, n: usize, init: I, f: F) -> Vec<U>
where
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> U + Sync,
{
    let caller = std::panic::Location::caller();
    let workers = threads.max(1).min(n);
    if workers <= 1 {
        let mut scratch = init();
        return (0..n).map(|i| f(&mut scratch, i)).collect();
    }
    // Small chunks give load balancing; 8 chunks per worker keeps the tail
    // short while bounding claim traffic to O(workers) atomic ops.
    let chunk = n.div_ceil(workers * 8).max(1);
    let counter = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<U>)>> = Mutex::new(Vec::new());
    // Telemetry hooks: fork on the caller's thread (captures its context
    // into a token), start/end on each worker. One OnceLock load per
    // par-call when no observer is installed.
    let hooks = HOOKS.get();
    let fork_token = hooks.map_or(0, |h| (h.fork)());
    // Fork-site name for panic attribution: the observer's span path when
    // one is open, else the caller's source location (via #[track_caller]).
    let fork_name = hooks.and_then(|h| (h.fork_name)());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    if let Some(h) = hooks {
                        (h.worker_start)(fork_token);
                    }
                    let mut scratch = init();
                    let mut local: Vec<(usize, Vec<U>)> = Vec::new();
                    loop {
                        let start = counter.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + chunk).min(n);
                        local.push((start, (start..end).map(|i| f(&mut scratch, i)).collect()));
                    }
                    // Poison-tolerant: the Vec under the mutex is never left
                    // half-updated (extend appends whole chunks), and a
                    // panicked sibling is re-raised below anyway.
                    done.lock().unwrap_or_else(|p| p.into_inner()).extend(local);
                    if let Some(h) = hooks {
                        (h.worker_end)();
                    }
                })
            })
            .collect();
        // Explicit joins so a worker panic is re-raised *named*: the bare
        // scope join would propagate an anonymous "scoped thread panicked".
        for handle in handles {
            if let Err(payload) = handle.join() {
                let detail = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                let site = fork_name.clone().unwrap_or_else(|| caller.to_string());
                // lint:allow(panic-budget): deliberate propagation — a worker panic must surface at the fork site, now attributably
                panic!("worker panicked at fork site `{site}`: {detail}");
            }
        }
    });
    let mut chunks = done.into_inner().unwrap_or_else(|p| p.into_inner());
    chunks.sort_unstable_by_key(|&(start, _)| start);
    debug_assert_eq!(chunks.iter().map(|(_, c)| c.len()).sum::<usize>(), n);
    let mut out = Vec::with_capacity(n);
    for (_, mut c) in chunks {
        out.append(&mut c);
    }
    out
}

/// How [`by_rounds`] cuts `0..items`: into `rounds` rounds of consecutive
/// items, each a whole number of `align`-item runs but the last, and each
/// round into tasks of at most `task(len)` items, `len` the round's.
#[derive(Debug, Clone, Copy)]
pub struct RoundPlan<T> {
    /// The items, `0..items`.
    pub items: usize,
    /// The rounds they run in.
    pub rounds: usize,
    /// Every round but the last is a multiple of this many items.
    pub align: usize,
    /// A task's most items, given its round's length.
    pub task: T,
}

/// Runs `plan.items` items a round at a time: a round's tasks fan out over
/// per-worker `scratch` workspaces ([`par_map_scratch`]), `run` building a
/// task's output from its consecutive items, and `take` gets the round's
/// items and outputs, in task order, before the next round starts. So a
/// build that appends each round to what it keeps holds one round of
/// outputs beside it, and what it builds does not depend on the rounds,
/// the tasks nor the thread count. A round's first error, in task order,
/// is returned once its tasks are done, and no later round runs.
#[track_caller]
pub fn by_rounds<S, T: Send, E: Send>(
    plan: RoundPlan<impl Fn(usize) -> usize>,
    scratch: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, Range<usize>) -> Result<T, E> + Sync,
    mut take: impl FnMut(Range<usize>, Vec<T>) -> Result<(), E>,
) -> Result<(), E> {
    let RoundPlan { items, rounds, align, task } = plan;
    let round = items.div_ceil(rounds.max(1)).next_multiple_of(align.max(1)).max(1);
    for first in (0..items).step_by(round) {
        let last = items.min(first + round);
        let width = task(last - first).max(1);
        let outputs = par_map_scratch((last - first).div_ceil(width), &scratch, |scratch, k| {
            let lo = first + k * width;
            run(scratch, lo..last.min(lo + width))
        });
        take(first..last, outputs.into_iter().collect::<Result<_, _>>()?)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_for_every_thread_count() {
        let expect: Vec<usize> = (0..997).map(|i| i * 7 + 3).collect();
        for t in [1, 2, 3, 8, 64] {
            assert_eq!(par_map_scratch_with(t, 997, || (), |_, i| i * 7 + 3), expect, "threads={t}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(par_map_scratch_with(8, 0, || (), |_, i| i).is_empty());
        assert_eq!(par_map_scratch_with(8, 1, || (), |_, i| i + 1), vec![1]);
        assert_eq!(par_map_scratch_with(8, 2, || (), |_, i| i), vec![0, 1]);
    }

    /// Held by every test that sets the global thread count.
    static GLOBAL_THREADS: Mutex<()> = Mutex::new(());

    #[test]
    fn global_thread_count_round_trips() {
        let _global = GLOBAL_THREADS.lock().unwrap_or_else(|p| p.into_inner());
        let before = threads();
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0); // clamps to 1
        assert_eq!(threads(), 1);
        set_threads(before);
        assert!(available_threads() >= 1);
    }

    #[test]
    fn scratch_reuse_matches_sequential_for_every_thread_count() {
        // The scratch counts how many items this worker has processed; the
        // result must not depend on it (mirroring how an epoch-stamped
        // search workspace keeps results independent of reuse).
        let expect: Vec<usize> = (0..503).map(|i| i * 3 + 1).collect();
        for t in [1, 2, 4, 16] {
            let out = par_map_scratch_with(
                t,
                503,
                || 0usize,
                |seen, i| {
                    *seen += 1;
                    assert!(*seen >= 1);
                    i * 3 + 1
                },
            );
            assert_eq!(out, expect, "threads={t}");
        }
    }

    #[test]
    fn scratch_init_runs_once_per_worker_sequentially() {
        let inits = AtomicUsize::new(0);
        let out = par_map_scratch_with(
            1,
            100,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, i| i,
        );
        assert_eq!(inits.load(Ordering::Relaxed), 1);
        assert_eq!(out.len(), 100);
        assert!(par_map_scratch_with(4, 0, || 0, |_: &mut i32, i| i).is_empty());
    }

    /// `by_rounds` at threads 1, 2 and 4: the rounds cover `0..items` in
    /// order, at most `rounds` of them, every boundary but the last a
    /// multiple of `align`; each round's tasks cover it in order with at
    /// most `task(len)` items each; and zero items call nothing.
    #[test]
    fn by_rounds_cuts_aligned_rounds_into_bounded_tasks_in_order() {
        let _global = GLOBAL_THREADS.lock().unwrap_or_else(|p| p.into_inner());
        let before = threads();
        let tasks: [fn(usize) -> usize; 3] = [|_| 1, |len| len.div_ceil(3), |_| 64];
        for t in [1, 2, 4] {
            set_threads(t);
            let plan = RoundPlan { items: 0, rounds: 8, align: 64, task: |_| 1 };
            let never = |_: &mut (), _| -> Result<(), ()> { panic!("a task for zero items") };
            assert_eq!(by_rounds(plan, || (), never, |_, _| panic!("a round for zero items")), Ok(()));
            for items in [1, 63, 64, 65, 1000] {
                for rounds in [1, 8, 16] {
                    for align in [1, 64] {
                        for task in tasks {
                            let key = format!("threads {t}, {items} items, {rounds} rounds, align {align}");
                            let plan = RoundPlan { items, rounds, align, task };
                            let mut seen: Vec<(Range<usize>, Vec<Range<usize>>)> = Vec::new();
                            let ok = by_rounds(plan, || (), |_, r| Ok::<_, ()>(r), |round, parts| {
                                seen.push((round, parts));
                                Ok(())
                            });
                            assert_eq!(ok, Ok(()), "{key}");
                            assert!(!seen.is_empty() && seen.len() <= rounds, "{key}: {} rounds", seen.len());
                            let mut next = 0;
                            for (i, (round, parts)) in seen.iter().enumerate() {
                                assert_eq!(round.start, next, "{key}: rounds in order");
                                next = round.end;
                                if i + 1 < seen.len() {
                                    assert_eq!(round.end % align, 0, "{key}: round {round:?} unaligned");
                                }
                                let cap = task(round.len()).max(1);
                                let mut at = round.start;
                                for part in parts {
                                    assert_eq!(part.start, at, "{key}: tasks in order");
                                    assert!(!part.is_empty() && part.len() <= cap, "{key}: task {part:?} > {cap}");
                                    at = part.end;
                                }
                                assert_eq!(at, round.end, "{key}: tasks cover {round:?}");
                            }
                            assert_eq!(next, items, "{key}: rounds cover the items");
                        }
                    }
                }
            }
            // An error ends the build: the round it is in reaches no
            // `take`, and no later round runs.
            let plan = RoundPlan { items: 100, rounds: 4, align: 1, task: |_| 10 };
            let (runs, mut taken) = (AtomicUsize::new(0), Vec::new());
            let failed = by_rounds(plan, || (), |_, r: Range<usize>| {
                runs.fetch_add(1, Ordering::Relaxed);
                if r.contains(&30) { Err(r.start) } else { Ok(r.start) }
            }, |round, _| {
                taken.push(round);
                Ok(())
            });
            assert_eq!(failed, Err(25), "threads {t}");
            assert_eq!(taken, vec![(0..25)], "threads {t}");
            assert_eq!(runs.load(Ordering::Relaxed), 6, "threads {t}");
        }
        set_threads(before);
    }

    #[test]
    #[should_panic(expected = "worker panicked at fork site")]
    fn worker_panics_propagate() {
        let _ = par_map_scratch_with(4, 64, || (), |_, i| {
            if i == 33 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_payload_is_preserved_in_message() {
        let _ = par_map_scratch_with(2, 16, || (), |_, i| {
            if i == 7 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn fork_site_names_the_caller_location_without_hooks() {
        // No observer hooks installed in this test binary, so the fork-site
        // name must fall back to this file's #[track_caller] location.
        let result = std::panic::catch_unwind(|| {
            let _ = par_map_scratch_with(2, 8, || (), |_, i| {
                if i == 3 {
                    panic!("kapow");
                }
                i
            });
        });
        let payload = result.expect_err("worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("renamed panic carries a String payload");
        assert!(msg.contains("fork site"), "{msg}");
        assert!(msg.contains("lib.rs"), "fallback names the caller file: {msg}");
        assert!(msg.contains("kapow"), "original payload preserved: {msg}");
    }
}
