//! The allocation-free search kernel: a reusable [`SearchScratch`] workspace
//! that runs every flavour of shortest-path search the schemes need without
//! allocating per call.
//!
//! # Why
//!
//! Preprocessing in this workspace is thousands of independent graph
//! searches: one Dijkstra per source in
//! [`crate::apsp::DistanceMatrix::new`], one bounded ball search per vertex
//! in `BallTable::build` on weighted graphs, one restricted cluster search
//! per vertex in the Thorup–Zwick hierarchy. The original searches, kept in
//! [`crate::reference`], allocate their working state per call — four
//! `O(n)` vectors for a full Dijkstra, three `HashMap`s for a ball or
//! cluster search — which makes the allocator, not the graph, the
//! bottleneck once `n` reaches 10⁴.
//!
//! A [`SearchScratch`] is allocated **once** (per worker thread — see
//! `routing_par::par_map_scratch`) and reused across searches:
//!
//! * per-vertex state (`dist`, `parent`, `first_hop`, `settled`) lives in
//!   flat arrays whose validity is tracked by an **epoch stamp**: each
//!   search bumps a 64-bit epoch and a slot is live only when its stamp
//!   equals the current epoch, so "resetting" the workspace is a single
//!   integer increment, `O(1)` regardless of how little of the graph the
//!   previous search touched;
//! * one priority queue serves every search, single-origin and
//!   multi-source: a monotone **bucket queue** (Dial's algorithm with a
//!   64-distance circular window tracked by one occupancy bitmask) backed
//!   by a binary-heap overflow for pushes beyond the window, all kept
//!   allocated between searches — see `SearchScratch::queue_pop`'s source
//!   for why its pop order is bit-identical to a binary heap's;
//! * the settle order (the `(distance, id)`-sorted vertex sequence every
//!   bounded search is defined by, and every search follows) is recorded
//!   in a reusable buffer;
//! * every search runs one settle loop — pop, skip a settled vertex, mark
//!   it, record it, count it down, relax its arcs — and differs only in its
//!   seeds (one source or the sorted sources), in which settles count down
//!   (none, the requested targets, or every one up to `ℓ`) and in its arc
//!   rule (single-origin, cluster or multi-source), each compiled into its
//!   own copy of the loop.
//!
//! Every search method is **bit-identical** to its allocating counterpart in
//! [`crate::reference`] — same lexicographic `(distance, id)` tie-breaking,
//! same member order — which the equivalence property tests in
//! `tests/properties.rs` assert.
//!
//! On a unit-weight graph a second workspace, [`BfsBatch`], runs up to 64
//! searches as one bit-parallel breadth-first sweep: full searches, with the
//! distances and tree paths [`SearchScratch::dijkstra_into`] gives, or ball
//! searches under a per-source budget `ℓ`, with the members and first
//! ports [`SearchScratch::ball_into`] gives. [`SearchBatch`] runs a build's
//! per-source sweeps on whichever of the two the graph takes.
//!
//! # Example
//!
//! ```
//! use routing_graph::scratch::SearchScratch;
//! use routing_graph::{generators, VertexId};
//!
//! let g = generators::grid(8, 8);
//! let mut scratch = SearchScratch::for_graph(&g);
//! // Two searches, one workspace, no per-call allocation.
//! scratch.dijkstra_into(&g, VertexId(0));
//! assert_eq!(scratch.dist(VertexId(63)), Some(14));
//! scratch.dijkstra_into(&g, VertexId(63));
//! assert_eq!(scratch.dist(VertexId(0)), Some(14));
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use routing_par::RoundPlan;

use crate::{EdgeRef, Graph, GraphError, Port, VertexId, Weight, INFINITY};

/// Sentinel for "no parent / no first hop / no nearest source".
const NONE: u32 = u32::MAX;

/// Width of the bucket-queue distance window (must be a power of two so the
/// slot index is a mask). Pushes whose distance lies within this many units
/// of the frontier go into a bucket slot; farther pushes wait in the
/// overflow heap. With the harness families' weights (1..32) every push lands
/// in the window, so the binary heap is never touched.
const BQ_WINDOW: Weight = 64;

/// Epoch value no search ever uses, so a fresh workspace (all stamps at
/// this value, epoch at 0) reports nothing as reached or settled.
const NEVER: u64 = u64::MAX;

/// Which search the workspace ran last; accessors whose data only certain
/// searches produce are gated on this, so a reused workspace can never hand
/// out a stale value from an earlier search of a different kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SearchKind {
    /// No search has run yet.
    Idle,
    /// [`SearchScratch::dijkstra_into`] or [`SearchScratch::ball_into`]:
    /// single origin, `parent` and `first_hop` populated.
    SingleOrigin,
    /// [`SearchScratch::multi_source_into`]: the `parent` slots hold the
    /// nearest source, `first_hop` the first vertex after it on the path.
    MultiSource,
    /// [`SearchScratch::cluster_into`]: single origin, `parent` populated,
    /// `first_hop` not populated.
    Cluster,
}

/// A reusable, allocation-free workspace for graph searches.
///
/// See the [module docs](self) for the design; construct one per worker
/// thread with [`SearchScratch::for_graph`] and run any sequence of
/// [`dijkstra_into`](SearchScratch::dijkstra_into),
/// [`dijkstra_targets_into`](SearchScratch::dijkstra_targets_into),
/// [`ball_into`](SearchScratch::ball_into),
/// [`multi_source_into`](SearchScratch::multi_source_into) and
/// [`cluster_into`](SearchScratch::cluster_into) searches on it. Results are
/// read through the accessors ([`dist`](SearchScratch::dist),
/// [`parent`](SearchScratch::parent), [`first_hop`](SearchScratch::first_hop),
/// [`order`](SearchScratch::order), …) and stay valid until the next
/// `*_into` call. Every search pops one bucket queue in `(distance, id)`
/// order, and a stopped search is never resumed: the next one starts
/// afresh.
#[derive(Debug, Clone)]
pub struct SearchScratch {
    n: usize,
    /// Current search epoch; a per-vertex slot is live iff its stamp matches.
    epoch: u64,
    /// Epoch stamp guarding `dist`/`parent`/`first_hop` per vertex.
    stamp: Vec<u64>,
    /// Epoch stamp marking settled (finalized) vertices.
    settled: Vec<u64>,
    dist: Vec<Weight>,
    /// Parent in the search tree (`NONE` for roots); doubles as the nearest
    /// source `p_A(v)` after a multi-source search.
    parent: Vec<u32>,
    first_hop: Vec<u32>,
    /// Overflow heap of the bucket queue, ordered by `(distance, id)`:
    /// holds entries pushed more than [`BQ_WINDOW`] distance units past the
    /// frontier, which migrate into their bucket slot when the frontier
    /// reaches them.
    heap: BinaryHeap<Reverse<(Weight, VertexId)>>,
    /// Bucket slots of the queue: slot `d % BQ_WINDOW` holds the ids of
    /// pending entries at distance `d` for the unique such `d` inside the
    /// current window `[bq_cur, bq_cur + BQ_WINDOW)`.
    bq_slots: Vec<Vec<u32>>,
    /// Occupancy bitmask over `bq_slots` (bit `s` set iff slot `s` holds
    /// pending entries).
    bq_mask: u64,
    /// The frontier: distance of the slot currently being drained. Edge
    /// weights are strictly positive, so no push ever lands back in it.
    bq_cur: Weight,
    /// Entries of the current slot already handed out by `queue_pop`.
    bq_pos: usize,
    /// Vertices in settle order with their final distances.
    order: Vec<(VertexId, Weight)>,
    /// Source of the last single-origin search.
    source: VertexId,
    /// Which search ran last (gates the kind-specific accessors).
    kind: SearchKind,
    /// Epoch stamp marking the requested targets of a target-bounded
    /// search ([`dijkstra_targets_into`](Self::dijkstra_targets_into)),
    /// the settles it counts down.
    target_stamp: Vec<u64>,
}

impl SearchScratch {
    /// A workspace for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        SearchScratch {
            n,
            epoch: 0,
            stamp: vec![NEVER; n],
            settled: vec![NEVER; n],
            dist: vec![0; n],
            parent: vec![NONE; n],
            first_hop: vec![NONE; n],
            // Grown on the first spill past the window: with weights below
            // `BQ_WINDOW` no push ever reaches it.
            heap: BinaryHeap::new(),
            bq_slots: vec![Vec::new(); BQ_WINDOW as usize],
            bq_mask: 0,
            bq_cur: 0,
            bq_pos: 0,
            order: Vec::with_capacity(n.min(1 << 16)),
            source: VertexId(0),
            kind: SearchKind::Idle,
            target_stamp: vec![NEVER; n],
        }
    }

    /// A workspace sized for `g`.
    pub fn for_graph(g: &Graph) -> Self {
        Self::new(g.n())
    }

    /// Number of vertices the workspace covers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Starts a new search of `kind`: bumps the epoch (the `O(1)` reset)
    /// and clears the reusable buffers, keeping their capacity.
    ///
    /// # Panics
    ///
    /// Panics if `g` has more vertices than the workspace.
    fn begin(&mut self, g: &Graph, kind: SearchKind) {
        assert!(g.n() <= self.n, "graph larger than the workspace");
        self.epoch += 1;
        self.kind = kind;
        self.heap.clear();
        // Clear only the occupied bucket slots (a stopped search leaves
        // pending entries behind); capacity is kept.
        while self.bq_mask != 0 {
            let s = self.bq_mask.trailing_zeros() as usize;
            self.bq_slots[s].clear();
            self.bq_mask &= self.bq_mask - 1;
        }
        self.bq_cur = 0;
        self.bq_pos = 0;
        self.order.clear();
    }

    /// Seeds `v` at distance 0 with no first hop and `parent` in its parent
    /// slot: `NONE` for a single origin, `v` itself — its own nearest
    /// source — for a multi-source search.
    fn seed(&mut self, v: VertexId, parent: u32) {
        let i = v.index();
        self.stamp[i] = self.epoch;
        self.dist[i] = 0;
        self.parent[i] = parent;
        self.first_hop[i] = NONE;
        self.queue_push(0, v);
    }

    /// Starts a single-origin search of `kind` from `source`: the reset of
    /// [`begin`](Self::begin), then `source` seeded.
    fn start(&mut self, g: &Graph, kind: SearchKind, source: VertexId) {
        self.begin(g, kind);
        self.source = source;
        self.seed(source, NONE);
    }

    /// Pushes `(d, v)` into the priority queue every search shares.
    ///
    /// Every caller settles vertices in nondecreasing distance order and
    /// edge weights are strictly positive, so `d` is always strictly past
    /// the frontier `bq_cur` (or equal to it only for the seeds, before any
    /// pop). Within-window pushes go to the bucket slot `d % BQ_WINDOW`,
    /// farther ones wait in the overflow heap.
    #[inline]
    fn queue_push(&mut self, d: Weight, v: VertexId) {
        if d.wrapping_sub(self.bq_cur) < BQ_WINDOW {
            let s = (d & (BQ_WINDOW - 1)) as usize;
            self.bq_slots[s].push(v.0);
            self.bq_mask |= 1u64 << s;
        } else {
            self.heap.push(Reverse((d, v)));
        }
    }

    /// Pops the minimum `(distance, id)` entry of the queue.
    ///
    /// **Bit-identity with a binary heap.** All edge weights are ≥ 1, so
    /// every entry at distance `d` is enqueued while the frontier is still
    /// strictly below `d` (it was pushed when a vertex at `d - w < d`
    /// settled, or is a seed). Hence when the frontier advances to `d`
    /// the distance-`d` population is complete: sorting the slot by id —
    /// after migrating any distance-`d` overflow entries into it — and
    /// draining it in that order yields exactly the `(distance, id)`
    /// lexicographic pop order a binary heap would produce. Duplicate
    /// entries for a vertex (re-pushed on improvement) surface in the same
    /// stale-then-skip pattern as with a heap.
    fn queue_pop(&mut self) -> Option<(Weight, VertexId)> {
        loop {
            let s = (self.bq_cur & (BQ_WINDOW - 1)) as usize;
            if self.bq_pos < self.bq_slots[s].len() {
                let v = self.bq_slots[s][self.bq_pos];
                self.bq_pos += 1;
                if self.bq_pos == self.bq_slots[s].len() {
                    self.bq_slots[s].clear();
                    self.bq_pos = 0;
                    self.bq_mask &= !(1u64 << s);
                }
                return Some((self.bq_cur, VertexId(v)));
            }
            // Advance the frontier to the next event distance: the nearest
            // occupied slot (the rotated mask puts the frontier's slot at
            // bit 0) and/or the smallest overflow entry.
            let bucket_next = if self.bq_mask != 0 {
                let rot = self.bq_mask.rotate_right((self.bq_cur & (BQ_WINDOW - 1)) as u32);
                Some(self.bq_cur + rot.trailing_zeros() as Weight)
            } else {
                None
            };
            let heap_next = self.heap.peek().map(|&Reverse((d, _))| d);
            let next = match (bucket_next, heap_next) {
                (None, None) => return None,
                (Some(b), None) => b,
                (None, Some(h)) => h,
                (Some(b), Some(h)) => b.min(h),
            };
            self.bq_cur = next;
            self.bq_pos = 0;
            let s = (next & (BQ_WINDOW - 1)) as usize;
            // Migrate every overflow entry at exactly this distance into
            // the slot so the id sort below orders the complete level.
            while self.heap.peek().is_some_and(|&Reverse((d, _))| d == next) {
                if let Some(Reverse((_, v))) = self.heap.pop() {
                    self.bq_slots[s].push(v.0);
                    self.bq_mask |= 1u64 << s;
                }
            }
            self.bq_slots[s].sort_unstable();
        }
    }

    /// The settle loop every search runs on its seeds: pop the next
    /// `(distance, id)` entry, skip a vertex already settled, mark it,
    /// append it to [`order`](Self::order), count it down when `counts`
    /// says so, and hand each of its arcs to `arc`, until `remaining`
    /// reaches zero or the queue empties. The countdown is read before each
    /// pop, so the last vertex counted has its arcs relaxed like every
    /// other and nothing is popped after it. `counts` and `arc` are
    /// compiled into a copy of the loop per search, so no search pays a
    /// branch per arc for another's rule.
    #[inline(always)]
    fn settle(
        &mut self,
        g: &Graph,
        mut remaining: usize,
        counts: impl Fn(&Self, usize) -> bool,
        mut arc: impl FnMut(&mut Self, VertexId, Weight, EdgeRef),
    ) {
        while remaining > 0 {
            let Some((d, u)) = self.queue_pop() else { return };
            let ui = u.index();
            if self.settled[ui] == self.epoch {
                continue;
            }
            self.settled[ui] = self.epoch;
            self.order.push((u, d));
            if counts(self, ui) {
                remaining -= 1;
            }
            for e in g.edges(u) {
                arc(self, u, d, e);
            }
        }
    }

    /// The arc rule of a single-origin search from `source`: the head of
    /// `e`, out of `u` settled at `d`, takes `d + w` when first reached or
    /// when that is shorter, with `u` as its parent and `u`'s first hop —
    /// the head itself out of `source`. Each search passes its own
    /// `source`, held in a register, rather than have every arc read it
    /// back from the workspace.
    #[inline(always)]
    fn single_origin_arc(&mut self, source: VertexId, u: VertexId, d: Weight, e: EdgeRef) {
        let (to, nd) = (e.to.index(), d + e.weight);
        if self.stamp[to] != self.epoch || nd < self.dist[to] {
            self.stamp[to] = self.epoch;
            self.dist[to] = nd;
            self.parent[to] = u.0;
            self.first_hop[to] = if u == source { e.to.0 } else { self.first_hop[u.index()] };
            self.queue_push(nd, e.to);
        }
    }

    /// Runs a full Dijkstra from `source` with `(distance, id)` tie-breaking,
    /// bit-identical to [`crate::reference::dijkstra_alloc`].
    ///
    /// # Panics
    ///
    /// Panics if `g` has more vertices than the workspace.
    pub fn dijkstra_into(&mut self, g: &Graph, source: VertexId) {
        self.start(g, SearchKind::SingleOrigin, source);
        self.settle(g, usize::MAX, |_, _| false, |s, u, d, e| s.single_origin_arc(source, u, d, e));
    }

    /// Runs Dijkstra from `source` but stops the moment the last vertex of
    /// `targets` is settled, instead of settling the whole graph.
    ///
    /// Requested targets are marked in an epoch-stamped bitmap (duplicates
    /// collapse) and counted down as they settle; the zero-allocation
    /// workspace machinery is otherwise identical to
    /// [`dijkstra_into`](Self::dijkstra_into). Because Dijkstra settles in
    /// `(distance, id)` order and a vertex's `dist`/`parent`/`first_hop`
    /// are final when it settles, **every settled vertex carries exactly
    /// the values the full search would have given it** — the settled
    /// prefix (including [`order`](Self::order)) is bit-identical to the
    /// same-length prefix of the full search. Tree ancestors settle before
    /// their descendants, so [`path_to`](Self::path_to) of any settled
    /// target never leaves the settled frontier.
    ///
    /// With an empty `targets` list nothing is settled. A target that is
    /// unreachable from `source` makes the search exhaust the component
    /// (the countdown never reaches zero), so a target left unsettled is
    /// one no search from `source` reaches: [`path_into`](Self::path_into)
    /// refuses it.
    ///
    /// # Panics
    ///
    /// Panics if `g` has more vertices than the workspace.
    pub fn dijkstra_targets_into(&mut self, g: &Graph, source: VertexId, targets: &[VertexId]) {
        self.start(g, SearchKind::SingleOrigin, source);
        let mut distinct = 0;
        for &t in targets {
            let ti = t.index();
            if self.target_stamp[ti] != self.epoch {
                self.target_stamp[ti] = self.epoch;
                distinct += 1;
            }
        }
        let counts = |s: &Self, v: usize| s.target_stamp[v] == s.epoch;
        self.settle(g, distinct, counts, |s, u, d, e| s.single_origin_arc(source, u, d, e));
    }

    /// Runs the bounded ball search `B(u, ℓ)`: Dijkstra from `u` that stops
    /// as soon as `max(ℓ, 1)` vertices are settled (or the component is
    /// exhausted), so it never pays more than the ball costs. The members,
    /// with distances, in `(distance, id)` settle order, are
    /// [`order`](Self::order) afterwards, and exactly they are settled.
    ///
    /// Bit-identical to [`crate::reference::ball_hashmap`].
    ///
    /// # Panics
    ///
    /// Panics if `g` has more vertices than the workspace.
    pub fn ball_into(&mut self, g: &Graph, u: VertexId, ell: usize) {
        self.start(g, SearchKind::SingleOrigin, u);
        self.settle(g, ell.max(1), |_, _| true, |s, v, d, e| s.single_origin_arc(u, v, d, e));
    }

    /// Runs a multi-source Dijkstra from `sources`, computing `d(v, A)`, the
    /// nearest source `p_A(v)` (readable as [`nearest`](Self::nearest)) with
    /// ties broken by source id, and the first vertex after `p_A(v)` on a
    /// shortest path from it to `v` (readable as [`first_hop`](Self::first_hop)).
    ///
    /// It runs the settle loop every other search runs, so vertices settle
    /// in `(distance, id)` order ([`order`](Self::order)), and a vertex's
    /// source is read from its `parent` slot when its arcs are relaxed. A
    /// relaxation wins on `(distance, source)`; the queue is pushed only
    /// when the distance improves. This is exact because weights are ≥ 1:
    /// every relaxation into `v` comes from a vertex settled before `v`
    /// pops, so `v`'s source is final by then, and of the relaxations from
    /// one source the first, made from the smallest `(distance, id)`
    /// predecessor, keeps its first hop.
    ///
    /// `sources` must be sorted by id and deduplicated: they are the seeds
    /// at distance 0, popped in the order given. Bit-identical to
    /// [`crate::reference::multi_source_alloc`] on the same sources.
    ///
    /// # Panics
    ///
    /// Panics if `g` has more vertices than the workspace, and (debug) if
    /// `sources` is not sorted and deduplicated.
    pub fn multi_source_into(&mut self, g: &Graph, sources: &[VertexId]) {
        debug_assert!(sources.windows(2).all(|w| w[0] < w[1]), "sources must be sorted+deduped");
        self.begin(g, SearchKind::MultiSource);
        for &s in sources {
            self.seed(s, s.0);
        }
        self.settle(g, usize::MAX, |_, _| false, |s, u, d, e| {
            let (ui, to, nd) = (u.index(), e.to.index(), d + e.weight);
            let src = s.parent[ui];
            let improves = s.stamp[to] != s.epoch || nd < s.dist[to];
            if improves || (nd == s.dist[to] && src < s.parent[to]) {
                s.stamp[to] = s.epoch;
                s.dist[to] = nd;
                s.parent[to] = src;
                s.first_hop[to] = if u.0 == src { e.to.0 } else { s.first_hop[ui] };
                if improves {
                    s.queue_push(nd, e.to);
                }
            }
        });
    }

    /// Runs the restricted (cluster) search from `w`: explores like Dijkstra
    /// but keeps a vertex `v` only when `d(w, v) < bound[v]`. Members in
    /// settle order are available as [`order`](Self::order); parents via
    /// [`parent`](Self::parent) (valid for settled members only).
    ///
    /// Bit-identical to [`crate::reference::cluster_dijkstra_hashmap`].
    pub fn cluster_into(&mut self, g: &Graph, w: VertexId, bound: &[Weight]) {
        assert_eq!(bound.len(), g.n(), "bound slice must have one entry per vertex");
        self.start(g, SearchKind::Cluster, w);
        self.settle(g, usize::MAX, |_, _| false, |s, u, d, e| {
            let (to, nd) = (e.to.index(), d + e.weight);
            // Keep the vertex only if it belongs to the cluster (the root
            // is always kept).
            let member = e.to == w || nd < bound[to];
            if member && (s.stamp[to] != s.epoch || nd < s.dist[to]) {
                s.stamp[to] = s.epoch;
                s.dist[to] = nd;
                s.parent[to] = u.0;
                s.queue_push(nd, e.to);
            }
        });
    }

    /// Distance found by the last search, or `None` if `v` was not reached.
    ///
    /// After a bounded ([`ball_into`](Self::ball_into)) or restricted
    /// ([`cluster_into`](Self::cluster_into)) search this is only final for
    /// settled vertices — use [`order`](Self::order) for the member set.
    #[inline]
    pub fn dist(&self, v: VertexId) -> Option<Weight> {
        (self.stamp[v.index()] == self.epoch).then(|| self.dist[v.index()])
    }

    /// True if the last search settled (finalized) `v`.
    #[inline]
    pub fn is_settled(&self, v: VertexId) -> bool {
        self.settled[v.index()] == self.epoch
    }

    /// Parent of `v` in the last search tree (`None` for the root and for
    /// unreached vertices).
    ///
    /// # Panics
    ///
    /// Panics after a [`multi_source_into`](Self::multi_source_into) search,
    /// whose slots hold nearest sources, not parents — use
    /// [`nearest`](Self::nearest) there.
    #[inline]
    pub fn parent(&self, v: VertexId) -> Option<VertexId> {
        assert!(
            self.kind != SearchKind::MultiSource,
            "parent() after a multi-source search; use nearest()"
        );
        if self.stamp[v.index()] != self.epoch || self.parent[v.index()] == NONE {
            return None;
        }
        Some(VertexId(self.parent[v.index()]))
    }

    /// First vertex after the source on the path to `v` found by the last
    /// full or bounded single-origin search, or after `v`'s nearest source
    /// by the last multi-source search (`None` for a source and unreached
    /// vertices).
    ///
    /// # Panics
    ///
    /// Panics if the last search was a [`cluster_into`](Self::cluster_into)
    /// one, or none — they record no first hops, so a leftover value from an
    /// earlier search must not leak through.
    #[inline]
    pub fn first_hop(&self, v: VertexId) -> Option<VertexId> {
        assert!(
            matches!(self.kind, SearchKind::SingleOrigin | SearchKind::MultiSource),
            "first_hop() is only populated by dijkstra_into / ball_into / multi_source_into"
        );
        if self.stamp[v.index()] != self.epoch || self.first_hop[v.index()] == NONE {
            return None;
        }
        Some(VertexId(self.first_hop[v.index()]))
    }

    /// Nearest source `p_A(v)` after [`multi_source_into`](Self::multi_source_into)
    /// (`None` for unreached vertices).
    ///
    /// # Panics
    ///
    /// Panics if the last search was not a multi-source one — the slots hold
    /// parents then, not nearest sources.
    #[inline]
    pub fn nearest(&self, v: VertexId) -> Option<VertexId> {
        assert!(
            self.kind == SearchKind::MultiSource,
            "nearest() is only populated by multi_source_into"
        );
        if self.stamp[v.index()] != self.epoch || self.parent[v.index()] == NONE {
            return None;
        }
        Some(VertexId(self.parent[v.index()]))
    }

    /// Vertices settled by the last search, in `(distance, id)` settle order,
    /// with their final distances. For a ball or cluster search this is
    /// exactly the member list.
    #[inline]
    pub fn order(&self) -> &[(VertexId, Weight)] {
        &self.order
    }

    /// The source of the last single-origin (full, bounded or restricted)
    /// search; `None` before the first search and after a multi-source
    /// search, which has no single source.
    pub fn source(&self) -> Option<VertexId> {
        matches!(self.kind, SearchKind::SingleOrigin | SearchKind::Cluster).then_some(self.source)
    }

    /// The tree path from the last search's source to `v` (inclusive), or
    /// `None` if `v` was not settled or the last search has no source (a
    /// multi-source search, or none yet). Allocates the returned path; a
    /// caller reading many paths reuses one buffer through
    /// [`path_into`](Self::path_into).
    pub fn path_to(&self, v: VertexId) -> Option<Vec<VertexId>> {
        let mut path = Vec::new();
        self.path_into(v, &mut path).then_some(path)
    }

    /// Writes the tree path from the last search's source to `v`
    /// (inclusive) into `path`, replacing its contents; `false`, with `path`
    /// empty, if `v` was not settled or the last search has no source.
    pub fn path_into(&self, v: VertexId, path: &mut Vec<VertexId>) -> bool {
        path.clear();
        if self.source().is_none() || self.settled.get(v.index()) != Some(&self.epoch) {
            return false;
        }
        path.push(v);
        let mut cur = v;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        true
    }

    /// The full distance row of the last search as a fresh vector
    /// (`INFINITY` for unreached vertices), sized like the graph searched.
    ///
    /// # Panics
    ///
    /// If `n` is larger than the scratch: a scratch smaller than its graph
    /// has no row to give.
    pub fn dist_row(&self, n: usize) -> Vec<Weight> {
        (0..n).map(|i| if self.stamp[i] == self.epoch { self.dist[i] } else { INFINITY }).collect()
    }
}

/// Sources one [`BfsBatch`] sweep carries: one bit of a `u64` lane each.
pub const BFS_BATCH_WIDTH: usize = 64;

/// The bit lanes of one vertex in a [`BfsBatch`] sweep; bit `i` of each
/// word belongs to the batch's `i`-th source.
#[derive(Debug, Clone, Copy, Default)]
struct Lanes {
    /// Sources that have reached the vertex.
    seen: u64,
    /// Sources whose current BFS level holds the vertex.
    frontier: u64,
    /// Sources that reach the vertex on the level being built.
    next: u64,
}

/// A reusable workspace that runs up to [`BFS_BATCH_WIDTH`] searches on a
/// **unit-weight** graph as one breadth-first sweep of the adjacency — the
/// multi-source BFS of Then et al., "The More the Merrier" (VLDB 2015):
/// full searches ([`run`](Self::run)) or ball searches that stop after `ℓ`
/// vertices each ([`run_balls`](Self::run_balls)).
///
/// Per vertex it keeps three `u64` lanes — which sources have *seen* it,
/// which hold it in their current *frontier*, which reach it *next* — so
/// one scan of a vertex's edges advances every source whose frontier holds
/// it. A list of the vertices with frontier bits drives each level (push
/// mode): a level scans only those vertices' edges, so a batch never does
/// more edge work than its searches run one by one, where a pull sweep over
/// all `n` vertices per level would cost `n · diameter` on a grid or a
/// path. Each source has a `u32` level row, `64 · n · 4` bytes per
/// workspace; ball searches add a `u32` first-port row per source and a
/// member log of `64 · min(ℓ, n)` ids.
///
/// **Same answers as Dijkstra.** With unit weights, Dijkstra under the
/// `(distance, id)` tie rule settles level by level, and `v`'s parent is the
/// first settled neighbour one level closer: the smallest-id one. Adjacency
/// lists are id-sorted, so [`path_to`](Self::path_to), which walks back
/// through the first neighbour in port order one level closer, returns
/// exactly what [`SearchScratch::path_to`] returns after
/// [`dijkstra_into`](SearchScratch::dijkstra_into), and
/// [`dist`](Self::dist) its distances.
///
/// ```
/// use routing_graph::scratch::BfsBatch;
/// use routing_graph::{generators, VertexId};
///
/// let g = generators::grid(4, 4);
/// let mut batch = BfsBatch::for_graph(&g).expect("a grid has unit weights");
/// batch.run(&g, &[VertexId(0), VertexId(15)]).expect("two sources in range");
/// assert_eq!(batch.dist(1, VertexId(0)), Some(6));
/// let path = batch.path_to(&g, 0, VertexId(5));
/// assert_eq!(path, Some(vec![VertexId(0), VertexId(1), VertexId(5)]));
/// ```
///
/// A budgeted run gives each source its ball `B(s, ℓ)` in `(distance, id)`
/// order, as [`SearchScratch::ball_into`] does:
///
/// ```
/// use routing_graph::scratch::BfsBatch;
/// use routing_graph::{generators, Port, VertexId};
///
/// // 0 1 2
/// // 3 4 5
/// let g = generators::grid(2, 3);
/// let mut batch = BfsBatch::for_graph(&g).expect("a grid has unit weights");
/// batch.run_balls(&g, &[VertexId(0), VertexId(4)], 3).expect("two centres in range");
/// // Level 1 of vertex 0 is {1, 3}: both fit.
/// assert_eq!(batch.members(0), [VertexId(0), VertexId(1), VertexId(3)]);
/// // Level 1 of vertex 4 is {1, 3, 5}: the two smallest ids fit.
/// assert_eq!(batch.members(1), [VertexId(4), VertexId(1), VertexId(3)]);
/// // Vertex 4's adjacency is [1, 3, 5]: port 1 leads to 3.
/// assert_eq!(batch.first_port(1, VertexId(3)), Some(Port(1)));
/// ```
#[derive(Debug, Clone)]
pub struct BfsBatch {
    n: usize,
    lanes: Vec<Lanes>,
    /// `level[i * n + v]`: the distance from source `i` to `v`, meaningful
    /// only where bit `i` of `v`'s `seen` lane is set.
    level: Vec<u32>,
    /// `port[i * n + v]`: after a ball run, the port at source `i` of the
    /// first edge on its path to `v`, meaningful where `level` is, except
    /// at the source. Sized by the first ball run.
    port: Vec<u32>,
    /// After a ball run, lane `i`'s members in `(level, id)` order:
    /// `members[i * budget..][..ball_len[i]]`.
    members: Vec<VertexId>,
    ball_len: [usize; BFS_BATCH_WIDTH],
    /// The ball size of the last run, `0` after a full run.
    budget: usize,
    /// Vertices with frontier bits on the current level.
    active: Vec<u32>,
    /// Vertices gaining `next` bits on the level being built.
    next_active: Vec<u32>,
    /// Number of sources of the last run.
    sources: usize,
}

impl BfsBatch {
    /// A workspace sized for `g`, or `None` unless every edge of `g` has
    /// unit weight.
    pub fn for_graph(g: &Graph) -> Option<Self> {
        g.is_unweighted().then(|| BfsBatch {
            n: g.n(),
            lanes: vec![Lanes::default(); g.n()],
            level: vec![0; BFS_BATCH_WIDTH * g.n()],
            port: Vec::new(),
            members: Vec::new(),
            ball_len: [0; BFS_BATCH_WIDTH],
            budget: 0,
            active: Vec::new(),
            next_active: Vec::new(),
            sources: 0,
        })
    }

    /// Runs a full breadth-first search from every vertex of `sources` —
    /// `sources[i]` owns bit `i` — as one sweep. A repeated source gets a
    /// bit of its own.
    ///
    /// # Errors
    ///
    /// Runs nothing, and leaves nothing reached, when `sources` holds more
    /// than [`BFS_BATCH_WIDTH`] vertices ([`GraphError::BatchTooWide`]), a
    /// vertex outside `0..g.n()` or `g` is larger than the workspace
    /// ([`GraphError::VertexOutOfRange`]), or `g` has an edge of non-unit
    /// weight ([`GraphError::NotUnitWeight`]).
    pub fn run(&mut self, g: &Graph, sources: &[VertexId]) -> Result<(), GraphError> {
        self.sweep::<false>(g, sources, usize::MAX)
    }

    /// Runs the ball search `B(s, ℓ)` from every vertex `s` of `centres` —
    /// `centres[i]` owns bit `i` — as one sweep, with the members and first
    /// ports [`SearchScratch::ball_into`] gives each centre:
    /// [`members`](Self::members) and [`first_port`](Self::first_port).
    ///
    /// A lane counts the vertices it holds. At the end of the first level
    /// `L` at which it holds `ℓ` (or `1` when `ℓ ≤ 1`), it stops offering
    /// its bit. Each level's new vertices are logged in id order, so the
    /// ball is every vertex below level `L` plus the smallest ids of level
    /// `L`. A lane whose component runs out first keeps everything it
    /// reached. The active list is id-sorted, so the first frontier vertex
    /// to offer a lane's bit to `v` is `v`'s smallest-id neighbour one level
    /// closer — Dijkstra's parent — and `v` takes that vertex's first port,
    /// or the centre's own port to `v` at depth 1.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_balls(&mut self, g: &Graph, centres: &[VertexId], ell: usize) -> Result<(), GraphError> {
        self.sweep::<true>(g, centres, ell.max(1).min(g.n()))
    }

    /// The one level loop behind [`run`](Self::run) and
    /// [`run_balls`](Self::run_balls). `BALLS` adds the first-port
    /// propagation, the id-sorted member log and lane retirement at
    /// `budget` members; a full run compiles without them.
    fn sweep<const BALLS: bool>(
        &mut self,
        g: &Graph,
        sources: &[VertexId],
        budget: usize,
    ) -> Result<(), GraphError> {
        self.lanes.fill(Lanes::default());
        self.active.clear();
        self.sources = 0;
        self.budget = 0;
        if !g.is_unweighted() {
            return Err(GraphError::NotUnitWeight);
        }
        if g.n() > self.n {
            return Err(GraphError::VertexOutOfRange { vertex: g.n() - 1, n: self.n });
        }
        if sources.len() > BFS_BATCH_WIDTH {
            return Err(GraphError::BatchTooWide { sources: sources.len(), width: BFS_BATCH_WIDTH });
        }
        if let Some(s) = sources.iter().find(|s| s.index() >= g.n()) {
            return Err(GraphError::VertexOutOfRange { vertex: s.index(), n: g.n() });
        }
        let n = self.n;
        if BALLS {
            self.budget = budget;
            if self.port.len() < BFS_BATCH_WIDTH * n {
                self.port.resize(BFS_BATCH_WIDTH * n, 0);
            }
            if self.members.len() < BFS_BATCH_WIDTH * budget {
                self.members.resize(BFS_BATCH_WIDTH * budget, VertexId(0));
            }
        }
        for (i, s) in sources.iter().enumerate() {
            if let Some(lane) = self.lanes.get_mut(s.index()) {
                if lane.frontier == 0 {
                    self.active.push(s.0);
                }
                lane.seen |= 1 << i;
                lane.frontier |= 1 << i;
            }
            if let Some(d) = self.level.get_mut(i * n + s.index()) {
                *d = 0;
            }
            if BALLS {
                if let Some(m) = self.members.get_mut(i * budget) {
                    *m = *s;
                }
                self.ball_len[i] = 1;
            }
        }
        self.sources = sources.len();
        // The lanes still offering their bit.
        let mut live = u64::MAX.checked_shr((BFS_BATCH_WIDTH - sources.len()) as u32).unwrap_or(0);
        let mut depth = 0u32;
        loop {
            if BALLS {
                let mut bits = live;
                while bits != 0 {
                    let i = bits.trailing_zeros() as usize;
                    if self.ball_len[i] >= budget {
                        live &= !(1 << i);
                    }
                    bits &= bits - 1;
                }
            }
            if self.active.is_empty() || live == 0 {
                break;
            }
            depth += 1;
            // Push: each frontier vertex offers its live frontier bits to
            // its neighbours; a bit is taken the first time it arrives.
            for &u in &self.active {
                let Some(lane) = self.lanes.get_mut(u as usize) else { continue };
                let offer = std::mem::take(&mut lane.frontier) & live;
                if offer == 0 {
                    continue;
                }
                for e in g.edges(VertexId(u)) {
                    let Some(to) = self.lanes.get_mut(e.to.index()) else { continue };
                    let fresh = offer & !to.seen;
                    if fresh == 0 {
                        continue;
                    }
                    if to.next == 0 {
                        self.next_active.push(e.to.0);
                    }
                    to.next |= fresh;
                    to.seen |= fresh;
                    if BALLS {
                        let mut bits = fresh;
                        while bits != 0 {
                            let i = bits.trailing_zeros() as usize;
                            let port = if depth == 1 {
                                e.port.0
                            } else {
                                self.port.get(i * n + u as usize).copied().unwrap_or(NONE)
                            };
                            if let Some(p) = self.port.get_mut(i * n + e.to.index()) {
                                *p = port;
                            }
                            bits &= bits - 1;
                        }
                    }
                }
            }
            if BALLS {
                self.next_active.sort_unstable();
            }
            // Commit: the bits taken on this level are the next frontier.
            for &v in &self.next_active {
                let Some(lane) = self.lanes.get_mut(v as usize) else { continue };
                let fresh = std::mem::take(&mut lane.next);
                lane.frontier = fresh;
                let mut bits = fresh;
                while bits != 0 {
                    let i = bits.trailing_zeros() as usize;
                    if let Some(d) = self.level.get_mut(i * n + v as usize) {
                        *d = depth;
                    }
                    if BALLS && self.ball_len[i] < budget {
                        if let Some(m) = self.members.get_mut(i * budget + self.ball_len[i]) {
                            *m = VertexId(v);
                        }
                        self.ball_len[i] += 1;
                    }
                    bits &= bits - 1;
                }
            }
            std::mem::swap(&mut self.active, &mut self.next_active);
            self.next_active.clear();
        }
        Ok(())
    }

    /// The level at which source `i` of the last run reached `v`.
    #[inline]
    fn level_of(&self, i: usize, v: VertexId) -> Option<u32> {
        let seen = self.lanes.get(v.index())?.seen;
        if i >= self.sources || (seen >> i) & 1 == 0 {
            return None;
        }
        self.level.get(i * self.n + v.index()).copied()
    }

    /// Distance from source `i` of the last run to `v`, or `None` if that
    /// search did not reach `v` or the run had no source `i`. After
    /// [`run_balls`](Self::run_balls) a lane has reached its members and
    /// the rest of its last level.
    #[inline]
    pub fn dist(&self, i: usize, v: VertexId) -> Option<Weight> {
        self.level_of(i, v).map(Weight::from)
    }

    /// The ball of centre `i` of the last [`run_balls`](Self::run_balls), in
    /// `(distance, id)` order, the centre first; empty after a full run or
    /// for a centre the run did not have.
    pub fn members(&self, i: usize) -> &[VertexId] {
        if i >= self.sources || self.budget == 0 {
            return &[];
        }
        self.members.get(i * self.budget..).and_then(|m| m.get(..self.ball_len[i])).unwrap_or(&[])
    }

    /// The port at centre `i` of the last [`run_balls`](Self::run_balls) on
    /// its shortest path to `v`, the one [`SearchScratch::ball_into`]'s
    /// first hop names; `None` for the centre itself, after a full run, and
    /// for a `v` the lane did not reach.
    #[inline]
    pub fn first_port(&self, i: usize, v: VertexId) -> Option<Port> {
        if self.budget == 0 || self.level_of(i, v)? == 0 {
            return None;
        }
        self.port.get(i * self.n + v.index()).map(|&p| Port(p))
    }

    /// Ball `i` of the last [`run_balls`](Self::run_balls) as
    /// `(member, distance, first port)` in `(distance, id)` order, the
    /// centre first with no port.
    pub fn ball(&self, i: usize) -> impl ExactSizeIterator<Item = (VertexId, Weight, Option<Port>)> + '_ {
        self.members(i).iter().map(move |&v| (v, self.dist(i, v).unwrap_or(0), self.first_port(i, v)))
    }

    /// The shortest path from source `i` of the last run to `v` (inclusive)
    /// that `SearchScratch::path_to` returns after a Dijkstra from the same
    /// source: each step back goes to the first neighbour in port order one
    /// level closer. `None` if the search did not reach `v`. Allocates the
    /// returned path; [`path_into`](Self::path_into) fills a reused buffer.
    pub fn path_to(&self, g: &Graph, i: usize, v: VertexId) -> Option<Vec<VertexId>> {
        let mut path = Vec::new();
        self.path_into(g, i, v, &mut path).then_some(path)
    }

    /// Writes [`path_to`](Self::path_to)'s path into `path`, replacing its
    /// contents; `false`, with `path` empty, if the search did not reach
    /// `v`.
    pub fn path_into(&self, g: &Graph, i: usize, v: VertexId, path: &mut Vec<VertexId>) -> bool {
        path.clear();
        let Some(mut d) = self.level_of(i, v).filter(|_| v.index() < g.n()) else {
            return false;
        };
        let mut cur = v;
        path.push(cur);
        while d > 0 {
            d -= 1;
            let up = g.edges(cur).map(|e| e.to).find(|&w| self.level_of(i, w) == Some(d));
            let Some(up) = up else {
                path.clear();
                return false;
            };
            cur = up;
            path.push(cur);
        }
        path.reverse();
        true
    }

    /// Vertices the last run reached, summed over its sources (after a full
    /// run, each source's component, itself included).
    pub fn reached(&self) -> usize {
        self.lanes.iter().map(|l| l.seen.count_ones() as usize).sum()
    }
}

/// One worker's searches from a batch of sources, on the kernel its graph
/// takes — the one place a build chooses it: a [`BfsBatch`] sweep of up
/// to [`BFS_BATCH_WIDTH`] sources on unit weights, one [`SearchScratch`]
/// Dijkstra a source otherwise; both give the same balls and paths. Lane
/// `i` of a run is its `i`-th source. The workspace is allocated by the
/// first run, so a batch made to read its [`rounds`](Self::rounds) costs
/// nothing.
#[derive(Debug, Clone)]
pub struct SearchBatch {
    kernel: Kernel,
    /// The sources of the last run: `ids[..lanes]`.
    ids: [VertexId; BFS_BATCH_WIDTH],
    lanes: usize,
    /// The last path read, and the distance to each of its vertices.
    path: Vec<VertexId>,
    prefix: Vec<Weight>,
}

/// The kernel a [`SearchBatch`] runs, `None` until its first run.
#[derive(Debug, Clone)]
enum Kernel {
    Bfs(Option<BfsBatch>),
    Dijkstra(Option<SearchScratch>),
}

impl SearchBatch {
    /// The batch BFS on a unit-weight `g`, a Dijkstra a source otherwise.
    pub fn for_graph(g: &Graph) -> Self {
        let kernel = if g.is_unweighted() { Kernel::Bfs(None) } else { Kernel::Dijkstra(None) };
        SearchBatch { kernel, ids: [VertexId(0); BFS_BATCH_WIDTH], lanes: 0, path: Vec::new(), prefix: Vec::new() }
    }

    /// A Dijkstra a source on any graph: the reference the batch BFS is
    /// held to. It takes `g` only to have [`for_graph`](Self::for_graph)'s
    /// signature.
    pub fn scalar(g: &Graph) -> Self {
        SearchBatch { kernel: Kernel::Dijkstra(None), ..Self::for_graph(g) }
    }

    /// The sources a run takes: [`BFS_BATCH_WIDTH`], or one for Dijkstra.
    pub fn width(&self) -> usize {
        if matches!(self.kernel, Kernel::Bfs(_)) { BFS_BATCH_WIDTH } else { 1 }
    }

    /// `items` consecutive sources in `rounds` rounds
    /// ([`routing_par::by_rounds`]), every round but the last a whole
    /// number of runs, a task a run.
    pub fn rounds(&self, items: usize, rounds: usize) -> RoundPlan<impl Fn(usize) -> usize> {
        let width = self.width();
        RoundPlan { items, rounds, align: width, task: move |_| width }
    }

    /// Takes a run's sources, allocating the workspace on the first run.
    /// Refuses, leaving no lane, more than [`width`](Self::width) sources,
    /// one outside `g`, or the batch BFS on a weighted `g`.
    fn start(&mut self, g: &Graph, sources: impl ExactSizeIterator<Item = VertexId>) -> Result<(), GraphError> {
        self.lanes = 0;
        let (len, width) = (sources.len(), self.width());
        if len > width {
            return Err(GraphError::BatchTooWide { sources: len, width });
        }
        for (id, s) in self.ids.iter_mut().zip(sources) {
            if s.index() >= g.n() {
                return Err(GraphError::VertexOutOfRange { vertex: s.index(), n: g.n() });
            }
            *id = s;
        }
        match &mut self.kernel {
            Kernel::Bfs(bfs @ None) => *bfs = Some(BfsBatch::for_graph(g).ok_or(GraphError::NotUnitWeight)?),
            Kernel::Dijkstra(scratch @ None) => *scratch = Some(SearchScratch::for_graph(g)),
            _ => {}
        }
        self.lanes = len;
        Ok(())
    }

    /// Runs the ball search `B(c, ℓ)` from each centre `c`: one budgeted
    /// sweep ([`BfsBatch::run_balls`]) or a [`SearchScratch::ball_into`].
    ///
    /// # Errors
    ///
    /// Runs nothing on what [`BfsBatch::run_balls`] refuses, at either
    /// kernel's width.
    pub fn run_balls(&mut self, g: &Graph, centres: impl ExactSizeIterator<Item = VertexId>, ell: usize) -> Result<(), GraphError> {
        self.start(g, centres)?;
        let centres = &self.ids[..self.lanes];
        match &mut self.kernel {
            Kernel::Bfs(Some(bfs)) => bfs.run_balls(g, centres, ell)?,
            Kernel::Dijkstra(Some(scratch)) => centres.iter().for_each(|&c| scratch.ball_into(g, c, ell)),
            _ => {}
        }
        Ok(())
    }

    /// Runs a search from each source that settles at least its targets —
    /// a full sweep ([`BfsBatch::run`]) or a
    /// [`SearchScratch::dijkstra_targets_into`] — and counts them in
    /// `BUILD_SETTLED_VERTICES` and, for Dijkstra, `BUILD_EARLY_EXIT_SEARCHES`.
    ///
    /// # Errors
    ///
    /// As [`run_balls`](Self::run_balls).
    pub fn run_targets(&mut self, g: &Graph, searches: &[(VertexId, &[VertexId])]) -> Result<(), GraphError> {
        use routing_obs::counters::{BUILD_EARLY_EXIT_SEARCHES, BUILD_SETTLED_VERTICES};
        self.start(g, searches.iter().map(|&(s, _)| s))?;
        match &mut self.kernel {
            Kernel::Bfs(Some(bfs)) => {
                bfs.run(g, &self.ids[..self.lanes])?;
                BUILD_SETTLED_VERTICES.add(bfs.reached() as u64);
            }
            Kernel::Dijkstra(Some(scratch)) => {
                for &(s, targets) in searches {
                    scratch.dijkstra_targets_into(g, s, targets);
                    BUILD_EARLY_EXIT_SEARCHES.inc();
                    BUILD_SETTLED_VERTICES.add(scratch.order().len() as u64);
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Lane `i`'s ball: `(member, distance, first port)` in `(distance, id)`
    /// order, the centre first with no port; empty for a lane the run lacked.
    pub fn ball<'a>(&'a self, g: &'a Graph, i: usize) -> impl ExactSizeIterator<Item = (VertexId, Weight, Option<Port>)> + 'a {
        let (bfs, scratch) = match &self.kernel {
            Kernel::Bfs(bfs) => (bfs.as_ref().filter(|_| i < self.lanes), None),
            Kernel::Dijkstra(scratch) => (None, scratch.as_ref().filter(|_| i < self.lanes)),
        };
        let members = bfs.map_or(&[][..], |bfs| bfs.members(i));
        let order = scratch.map_or(&[][..], SearchScratch::order);
        (0..members.len() + order.len()).map(move |k| match bfs {
            Some(bfs) => (members[k], bfs.dist(i, members[k]).unwrap_or(0), bfs.first_port(i, members[k])),
            None => (order[k].0, order[k].1, scratch.and_then(|s| g.port_to(self.ids[i], s.first_hop(order[k].0)?))),
        })
    }

    /// Lane `i`'s shortest path to `v` — [`SearchScratch::path_to`]'s — and
    /// the distance to each of its vertices; `None` if it did not settle `v`.
    pub fn path(&mut self, g: &Graph, i: usize, v: VertexId) -> Option<(&[VertexId], &[Weight])> {
        self.prefix.clear();
        match &self.kernel {
            Kernel::Bfs(Some(bfs)) if i < self.lanes && bfs.path_into(g, i, v, &mut self.path) => {
                // On unit weights the `k`-th vertex of a path is at distance `k`.
                self.prefix.extend(0..self.path.len() as Weight);
            }
            Kernel::Dijkstra(Some(scratch)) if i < self.lanes && scratch.path_into(v, &mut self.path) => {
                for &x in &self.path {
                    self.prefix.push(scratch.dist(x)?);
                }
            }
            _ => return None,
        }
        Some((&self.path, &self.prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, reference, GraphBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_graph(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::erdos_renyi(
            80,
            0.07,
            generators::WeightModel::Uniform { lo: 1, hi: 9 },
            &mut rng,
        )
    }

    /// `0 -1- 1 -1- 3` and `0 -3- 2 -1- 3`.
    fn weighted_diamond() -> Graph {
        let mut b = GraphBuilder::new(4);
        for (u, v, w) in [(0, 1, 1), (1, 3, 1), (0, 2, 3), (2, 3, 1)] {
            b.add_edge(u, v, w).unwrap();
        }
        b.build()
    }

    /// The last search's parents (or first hops) by vertex, the rows
    /// [`reference`] returns.
    fn row(g: &Graph, read: impl Fn(VertexId) -> Option<VertexId>) -> Vec<Option<VertexId>> {
        g.vertices().map(read).collect()
    }

    /// The path a parent row spells from its root to `v`.
    fn walk(parent: &[Option<VertexId>], v: VertexId) -> Vec<VertexId> {
        let mut path = vec![v];
        while let Some(p) = parent[path[path.len() - 1].index()] {
            path.push(p);
        }
        path.reverse();
        path
    }

    /// The full search from `src` on `s` against the reference Dijkstra:
    /// distances, parents, first hops and every tree path.
    fn assert_dijkstra_matches_reference(g: &Graph, s: &SearchScratch, src: VertexId) {
        let (dist, parent, first_hop) = reference::dijkstra_alloc(g, src);
        assert_eq!(s.source(), Some(src));
        assert_eq!(s.dist_row(g.n()), dist, "dist from {src}");
        assert_eq!(row(g, |v| s.parent(v)), parent, "parents from {src}");
        assert_eq!(row(g, |v| s.first_hop(v)), first_hop, "first hops from {src}");
        for v in g.vertices() {
            let path = (dist[v.index()] != INFINITY).then(|| walk(&parent, v));
            assert_eq!(s.path_to(v), path, "path {src}->{v}");
        }
    }

    /// The ball search just run on `s` against the reference ball search:
    /// its members in order, their first hops, and no vertex settled but
    /// them — the search stops before it pops past its last member.
    fn assert_ball_matches_reference(g: &Graph, s: &SearchScratch, u: VertexId, ell: usize) {
        let (members, first_hops) = reference::ball_hashmap(g, u, ell);
        assert_eq!(s.order(), members, "members of B({u}, {ell})");
        let hops: Vec<_> = s.order().iter().map(|&(v, _)| s.first_hop(v)).collect();
        assert_eq!(hops, first_hops, "first hops in B({u}, {ell})");
        let mut ids: Vec<VertexId> = members.iter().map(|&(v, _)| v).collect();
        ids.sort_unstable();
        let settled: Vec<VertexId> = g.vertices().filter(|&v| s.is_settled(v)).collect();
        assert_eq!(settled, ids, "settled by B({u}, {ell})");
    }

    #[test]
    fn dijkstra_into_matches_wrapper_across_reuses() {
        let g = random_graph(3);
        let mut s = SearchScratch::for_graph(&g);
        for src in [0u32, 17, 42, 0, 79] {
            s.dijkstra_into(&g, VertexId(src));
            assert_dijkstra_matches_reference(&g, &s, VertexId(src));
        }
    }

    #[test]
    fn ball_into_matches_ball_after_full_search() {
        let g = random_graph(5);
        let mut s = SearchScratch::for_graph(&g);
        // Interleave with a full search to prove the epoch reset works.
        s.dijkstra_into(&g, VertexId(0));
        for (u, ell) in [(VertexId(7), 1), (VertexId(7), 9), (VertexId(30), 500)] {
            s.ball_into(&g, u, ell);
            assert_ball_matches_reference(&g, &s, u, ell);
        }
    }

    #[test]
    fn multi_source_into_matches_wrapper() {
        let g = random_graph(7);
        let sources = vec![VertexId(2), VertexId(40), VertexId(71)];
        let (dist, nearest) = reference::multi_source_alloc(&g, &sources);
        let mut s = SearchScratch::for_graph(&g);
        s.multi_source_into(&g, &sources);
        assert_eq!(s.dist_row(g.n()), dist);
        assert_eq!(row(&g, |v| s.nearest(v)), nearest);
    }

    #[test]
    fn cluster_into_matches_wrapper() {
        let g = random_graph(9);
        let (bound, _) = reference::multi_source_alloc(&g, &[VertexId(11), VertexId(60)]);
        let mut s = SearchScratch::for_graph(&g);
        for w in [VertexId(0), VertexId(11), VertexId(55)] {
            s.cluster_into(&g, w, &bound);
            let (members, parents) = reference::cluster_dijkstra_hashmap(&g, w, &bound);
            assert_eq!(s.order(), members);
            assert_eq!(members.iter().map(|&(v, _)| s.parent(v)).collect::<Vec<_>>(), parents);
        }
    }

    #[test]
    fn dijkstra_distances_and_paths() {
        let g = weighted_diamond();
        let mut s = SearchScratch::for_graph(&g);
        s.dijkstra_into(&g, VertexId(0));
        assert_eq!(s.dist(VertexId(3)), Some(2));
        assert_eq!(s.dist(VertexId(2)), Some(3));
        assert_eq!(s.path_to(VertexId(3)), Some(vec![VertexId(0), VertexId(1), VertexId(3)]));
        assert_eq!(s.first_hop(VertexId(3)), Some(VertexId(1)));
        assert_eq!(s.first_hop(VertexId(0)), None);
        assert_eq!(s.source(), Some(VertexId(0)));
    }

    #[test]
    fn dijkstra_unreachable() {
        let mut b = GraphBuilder::new(3);
        b.add_unit_edge(0, 1).unwrap();
        let g = b.build();
        let mut s = SearchScratch::for_graph(&g);
        s.dijkstra_into(&g, VertexId(0));
        assert_eq!(s.dist(VertexId(2)), None);
        assert_eq!(s.parent(VertexId(2)), None);
        assert_eq!(s.first_hop(VertexId(2)), None);
        assert_eq!(s.path_to(VertexId(2)), None);
        assert_eq!(s.order().len(), 2);
    }

    #[test]
    fn ball_contains_closest_with_tie_break() {
        // Star: centre 0, leaves 1..=4, all at distance 1. The ball of size
        // 3 at 0 holds 0 plus the two smallest-id leaves.
        let g = generators::star(5);
        let mut s = SearchScratch::for_graph(&g);
        s.ball_into(&g, VertexId(0), 3);
        assert_eq!(s.order(), [(VertexId(0), 0), (VertexId(1), 1), (VertexId(2), 1)]);
        // The next leaf at distance 1 is never popped.
        assert!(!s.is_settled(VertexId(3)));
    }

    #[test]
    fn ball_radius_complete_level() {
        // From vertex 0 of a path the 4 closest are 0, 1, 2, 3: every
        // vertex at distance <= 3.
        let g = generators::path(6);
        let mut s = SearchScratch::for_graph(&g);
        s.ball_into(&g, VertexId(0), 4);
        assert_eq!(s.order().len(), 4);
        assert_eq!(s.dist(VertexId(3)), Some(3));
        assert_eq!(s.first_hop(VertexId(3)), Some(VertexId(1)));
        assert_eq!(s.first_hop(VertexId(0)), None);
    }

    #[test]
    fn ball_larger_than_component_returns_component() {
        let g = generators::path(4);
        let mut s = SearchScratch::for_graph(&g);
        s.ball_into(&g, VertexId(1), 100);
        assert_eq!(s.order().len(), 4);
    }

    #[test]
    fn ball_center_is_first_member() {
        let g = weighted_diamond();
        let mut s = SearchScratch::for_graph(&g);
        s.ball_into(&g, VertexId(2), 3);
        assert_eq!(s.order()[0], (VertexId(2), 0));
        assert_eq!(s.order().len(), 3);
        assert_eq!(s.source(), Some(VertexId(2)));
    }

    #[test]
    fn multi_source_nearest_and_tie_break() {
        let g = generators::path(7);
        let mut s = SearchScratch::for_graph(&g);
        s.multi_source_into(&g, &[VertexId(0), VertexId(6)]);
        assert_eq!(s.dist(VertexId(2)), Some(2));
        assert_eq!(s.nearest(VertexId(2)), Some(VertexId(0)));
        assert_eq!(s.nearest(VertexId(5)), Some(VertexId(6)));
        // Vertex 3 is equidistant (3) from both sources; the smaller id wins.
        assert_eq!(s.dist(VertexId(3)), Some(3));
        assert_eq!(s.nearest(VertexId(3)), Some(VertexId(0)));
    }

    #[test]
    fn multi_source_empty_sources() {
        let g = generators::path(3);
        let mut s = SearchScratch::for_graph(&g);
        s.multi_source_into(&g, &[]);
        assert_eq!(s.dist(VertexId(0)), None);
        assert_eq!(s.nearest(VertexId(0)), None);
        assert!(s.order().is_empty());
    }

    /// After a multi-source search every reached non-source `v` records a
    /// neighbour `z` of `a = p_A(v)` that starts a shortest `a`–`v` path,
    /// `w(a, z) + d(z, v) = d(a, v)`; a source or an unreached vertex
    /// records none.
    fn assert_first_hops_start_shortest_paths(g: &Graph, s: &SearchScratch, at: &str) {
        let dm = crate::apsp::DistanceMatrix::new(g);
        let mut full = SearchScratch::for_graph(g);
        for v in g.vertices() {
            let (Some(a), Some(d)) = (s.nearest(v), s.dist(v)) else {
                assert_eq!(s.first_hop(v), None, "{at}: unreached {v}");
                continue;
            };
            if a == v {
                assert_eq!(s.first_hop(v), None, "{at}: source {v}");
                continue;
            }
            let z = s.first_hop(v).expect("a reached non-source has a first hop");
            let w = g.edge_weight(a, z).unwrap_or_else(|| panic!("{at}: {z} is not adjacent to {a}"));
            full.dijkstra_into(g, a);
            assert_eq!(full.dist(v), Some(d), "{at}: d({a}, {v})");
            assert_eq!(dm.dist(z, v).map(|dz| w + dz), Some(d), "{at}: {a} -> {z} -> {v}");
        }
    }

    /// The first-hop rule on unit, tie-heavy, geometric and grid graphs,
    /// and on two components with every source in the first.
    #[test]
    fn multi_source_first_hops_start_a_shortest_path_from_the_nearest_source() {
        use generators::WeightModel::{Uniform, Unit};
        let mut rng = StdRng::seed_from_u64(29);
        let mut halves = GraphBuilder::new(40);
        for i in (1..40).filter(|&i| i != 20) {
            halves.add_unit_edge(i - 1, i).unwrap();
        }
        let graphs = [
            generators::erdos_renyi(90, 0.06, Unit, &mut rng),
            generators::erdos_renyi(90, 0.06, Uniform { lo: 1, hi: 2 }, &mut rng),
            generators::random_geometric(90, 0.2, Uniform { lo: 1, hi: 8 }, &mut rng),
            generators::grid(9, 10),
            halves.build(),
        ];
        for g in &graphs {
            let sources: Vec<VertexId> = (3..20).step_by(7).map(VertexId).collect();
            let mut s = SearchScratch::for_graph(g);
            s.multi_source_into(g, &sources);
            assert_first_hops_start_shortest_paths(g, &s, "sources 3, 10, 17");
        }
    }

    /// The four benchmark families at `n` vertices under `weights`; the grid
    /// is `rows × cols = n` and draws its weights like the others.
    fn kernel_families(n: usize, weights: generators::WeightModel) -> Vec<(&'static str, Graph)> {
        use generators::WeightModel::{Uniform, Unit};
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(n as u64 + 7);
        let cols = [13, 8, 7].into_iter().find(|&c| n.is_multiple_of(c)).expect("a grid shape for n");
        let mut grid = GraphBuilder::new(n);
        for v in 0..n {
            for to in [v + 1, v + cols].into_iter().filter(|&to| to < n) {
                if to == v + cols || to % cols != 0 {
                    let w = match weights {
                        Unit => 1,
                        Uniform { lo, hi } => rng.gen_range(lo..=hi),
                    };
                    grid.add_edge(v, to, w).unwrap();
                }
            }
        }
        let radius = (8.0 / (std::f64::consts::PI * n as f64)).sqrt();
        vec![
            ("erdos-renyi", generators::erdos_renyi_avg_degree(n, 8.0, weights, &mut rng)),
            ("geometric", generators::random_geometric(n, radius, weights, &mut rng)),
            ("grid", grid.build()),
            ("scale-free", generators::barabasi_albert(n, 4, weights, &mut rng)),
        ]
    }

    /// On the four families, unit and tie-heavy (weights 1 or 2), around the
    /// 64-bit word boundaries, one workspace runs every search in turn, so a
    /// stale slot left by any earlier search of any kind would show. Each
    /// equals the allocating reference:
    /// * multi-source: distances and nearest sources, first hops that start
    ///   a shortest path, and a settle order of every reached vertex once,
    ///   sorted by `(distance, id)` as [`SearchScratch::order`] promises;
    /// * cluster under that search's distances as the bound: the members
    ///   in order and their parents;
    /// * full Dijkstra: the dist, parent and first-hop rows and every path;
    /// * target-bounded: a prefix of the full search, its targets settled;
    /// * ball at `ℓ ∈ {1, 7, n + 5}`: the members in order, their first
    ///   hops, and exactly they settled.
    #[test]
    fn multi_source_equals_the_reference_and_settles_in_distance_id_order() {
        use generators::WeightModel::{Uniform, Unit};
        for n in [63, 64, 65, 130] {
            for weights in [Unit, Uniform { lo: 1, hi: 2 }] {
                for (name, g) in kernel_families(n, weights) {
                    assert_eq!(g.n(), n, "{name}");
                    let mut s = SearchScratch::for_graph(&g);
                    let all: Vec<VertexId> = g.vertices().collect();
                    let sparse: Vec<VertexId> = g.vertices().skip(3).step_by(9).collect();
                    let pair = [VertexId(0), VertexId(n as u32 - 1)];
                    for sources in [&sparse[..], &pair, &all[..1], &all, &[]] {
                        let at = format!("{name} n={n} {weights:?} |A|={}", sources.len());
                        s.multi_source_into(&g, sources);
                        let (dist, nearest) = reference::multi_source_alloc(&g, sources);
                        for v in g.vertices() {
                            let want = (dist[v.index()] != INFINITY).then_some(dist[v.index()]);
                            assert_eq!(s.dist(v), want, "{at}: d({v}, A)");
                            assert_eq!(s.nearest(v), nearest[v.index()], "{at}: p_A({v})");
                        }
                        assert_first_hops_start_shortest_paths(&g, &s, &at);
                        let reached = g.vertices().filter(|&v| s.dist(v).is_some()).count();
                        assert_eq!(s.order().len(), reached, "{at}: each reached vertex settles once");
                        for w in s.order().windows(2) {
                            assert!((w[0].1, w[0].0) < (w[1].1, w[1].0), "{at}: {w:?} out of order");
                        }
                        for w in [VertexId(1), VertexId(n as u32 / 2)] {
                            s.cluster_into(&g, w, &dist);
                            let (members, parents) = reference::cluster_dijkstra_hashmap(&g, w, &dist);
                            assert_eq!(s.order(), members, "{at}: C({w})");
                            let got: Vec<_> = members.iter().map(|&(v, _)| s.parent(v)).collect();
                            assert_eq!(got, parents, "{at}: parents in C({w})");
                        }
                    }
                    for src in [VertexId(0), VertexId(n as u32 / 2), VertexId(n as u32 - 1)] {
                        let at = format!("{name} n={n} {weights:?} from {src}");
                        s.dijkstra_into(&g, src);
                        assert_dijkstra_matches_reference(&g, &s, src);
                        let full = s.order().to_vec();
                        let (dist, parent, first_hop) = reference::dijkstra_alloc(&g, src);
                        let targets = [src.index() + 5, src.index() + n / 3].map(|t| VertexId((t % n) as u32));
                        s.dijkstra_targets_into(&g, src, &targets);
                        let settled = s.order().len();
                        assert_eq!(s.order(), &full[..settled], "{at}: a prefix of the full search");
                        for &(v, _) in s.order() {
                            assert_eq!(s.dist(v), Some(dist[v.index()]), "{at}: d({v})");
                            assert_eq!(s.parent(v), parent[v.index()], "{at}: parent of {v}");
                            assert_eq!(s.first_hop(v), first_hop[v.index()], "{at}: first hop to {v}");
                        }
                        for t in targets.into_iter().filter(|t| dist[t.index()] != INFINITY) {
                            assert!(s.is_settled(t), "{at}: target {t}");
                        }
                        for ell in [1, 7, n + 5] {
                            s.ball_into(&g, src, ell);
                            assert_ball_matches_reference(&g, &s, src, ell);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "parent() after a multi-source search")]
    fn parent_after_multi_source_search_panics() {
        let g = generators::path(4);
        let mut s = SearchScratch::for_graph(&g);
        s.multi_source_into(&g, &[VertexId(0)]);
        let _ = s.parent(VertexId(3));
    }

    #[test]
    fn cluster_dijkstra_respects_bound() {
        // bound[v] = d(v, {5}) on a path: the cluster of 0 is every v with
        // d(0, v) < d(v, 5), i.e. vertices 0, 1, 2.
        let g = generators::path(6);
        let mut s = SearchScratch::for_graph(&g);
        s.multi_source_into(&g, &[VertexId(5)]);
        let bound = s.dist_row(g.n());
        s.cluster_into(&g, VertexId(0), &bound);
        assert_eq!(s.order(), [(VertexId(0), 0), (VertexId(1), 1), (VertexId(2), 2)]);
        assert_eq!(s.parent(VertexId(2)), Some(VertexId(1)));
        assert_eq!(s.parent(VertexId(0)), None);
        assert!(!s.is_settled(VertexId(4)));
        assert_eq!(s.source(), Some(VertexId(0)));
        // The root is kept even where the bound excludes it: d(5, 5) = 0 is
        // not below d(5, {5}) = 0.
        s.cluster_into(&g, VertexId(5), &bound);
        assert_eq!(s.order(), [(VertexId(5), 0)]);
    }

    #[test]
    fn cluster_distances_equal_true_distances() {
        // Subpath property: restricted distances equal true distances for
        // every cluster member.
        let g = weighted_diamond();
        let mut s = SearchScratch::for_graph(&g);
        s.multi_source_into(&g, &[VertexId(2)]);
        let bound = s.dist_row(g.n());
        s.cluster_into(&g, VertexId(0), &bound);
        let members = s.order().to_vec();
        assert!(members.len() > 1);
        s.dijkstra_into(&g, VertexId(0));
        for (v, d) in members {
            assert_eq!(s.dist(v), Some(d));
        }
    }

    #[test]
    fn reads_without_a_single_origin_search_answer_none() {
        let g = generators::path(5);
        let mut s = SearchScratch::for_graph(&g);
        let mut path = vec![VertexId(9)];
        assert_eq!(s.source(), None);
        assert_eq!(s.path_to(VertexId(2)), None);
        assert!(!s.path_into(VertexId(2), &mut path) && path.is_empty());
        // A multi-source search settles vertex 2 but has no single source,
        // so its slots spell no tree path.
        s.multi_source_into(&g, &[VertexId(0), VertexId(4)]);
        assert!(s.is_settled(VertexId(2)));
        assert_eq!(s.source(), None);
        assert_eq!(s.path_to(VertexId(2)), None);
        path.push(VertexId(9));
        assert!(!s.path_into(VertexId(2), &mut path) && path.is_empty());
        s.dijkstra_into(&g, VertexId(4));
        assert_eq!(s.path_to(VertexId(2)), Some(vec![VertexId(4), VertexId(3), VertexId(2)]));
    }

    #[test]
    fn targets_search_is_a_bit_identical_prefix_of_the_full_search() {
        let g = random_graph(11);
        let mut full = SearchScratch::for_graph(&g);
        let mut bounded = SearchScratch::for_graph(&g);
        for (src, targets) in [
            (VertexId(0), vec![VertexId(3), VertexId(9), VertexId(40)]),
            (VertexId(17), vec![VertexId(17)]),
            (VertexId(42), vec![VertexId(1), VertexId(1), VertexId(79)]),
        ] {
            full.dijkstra_into(&g, src);
            bounded.dijkstra_targets_into(&g, src, &targets);
            let settled = bounded.order().len();
            assert!(settled > 0);
            // The settle order is the same-length prefix of the full order.
            assert_eq!(bounded.order(), &full.order()[..settled]);
            for &(v, _) in bounded.order() {
                assert_eq!(bounded.dist(v), full.dist(v), "dist {src}->{v}");
                assert_eq!(bounded.parent(v), full.parent(v), "parent {src}->{v}");
                assert_eq!(bounded.first_hop(v), full.first_hop(v), "hop {src}->{v}");
                assert_eq!(bounded.path_to(v), full.path_to(v), "path {src}->{v}");
            }
            // Every requested target is settled, and the search stopped at
            // the last one (the final settle-order entry is a target).
            for &t in &targets {
                assert!(bounded.is_settled(t), "target {t} not settled");
            }
            let last = bounded.order()[settled - 1].0;
            assert!(targets.contains(&last), "search ran past the last target");
        }
    }

    #[test]
    fn bucket_queue_overflow_heap_matches_wrapper() {
        // Weights far beyond the 64-distance bucket window force every
        // push through the overflow heap and its migrate-on-arrival path.
        let mut rng = StdRng::seed_from_u64(21);
        let g = generators::erdos_renyi(
            60,
            0.08,
            generators::WeightModel::Uniform { lo: 50, hi: 400 },
            &mut rng,
        );
        let mut s = SearchScratch::for_graph(&g);
        for src in [0u32, 13, 59] {
            s.dijkstra_into(&g, VertexId(src));
            assert_dijkstra_matches_reference(&g, &s, VertexId(src));
        }
    }

    #[test]
    fn bucket_queue_mixed_window_and_overflow_matches_wrapper() {
        // Weights straddling the window boundary mix bucket-slot and
        // overflow pushes, including both kinds at the same distance
        // level; pops must still come out in (distance, id) order.
        let mut rng = StdRng::seed_from_u64(23);
        let g = generators::erdos_renyi(
            70,
            0.1,
            generators::WeightModel::Uniform { lo: 1, hi: 200 },
            &mut rng,
        );
        let mut full = SearchScratch::for_graph(&g);
        full.dijkstra_into(&g, VertexId(7));
        assert_dijkstra_matches_reference(&g, &full, VertexId(7));
        // The target-bounded prefix holds across the hybrid queue.
        let mut bounded = SearchScratch::for_graph(&g);
        bounded.dijkstra_targets_into(&g, VertexId(7), &[VertexId(3), VertexId(64)]);
        let settled = bounded.order().len();
        assert_eq!(bounded.order(), &full.order()[..settled]);
        // Bounded ball searches share the queue; check one against the
        // reference ball search.
        bounded.ball_into(&g, VertexId(12), 15);
        assert_ball_matches_reference(&g, &bounded, VertexId(12), 15);
    }

    /// A target in another component is never settled: the search settles
    /// the source's whole component and stops when the queue empties, and
    /// the target has no path.
    #[test]
    fn a_target_in_another_component_stays_unsettled() {
        let mut halves = GraphBuilder::new(10);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8), (8, 9)] {
            halves.add_unit_edge(a, b).unwrap();
        }
        let g = halves.build();
        let mut s = SearchScratch::for_graph(&g);
        let mut path = vec![VertexId(9)];
        for targets in [vec![VertexId(7)], vec![VertexId(3), VertexId(7)]] {
            s.dijkstra_targets_into(&g, VertexId(1), &targets);
            assert!(!s.is_settled(VertexId(7)));
            assert_eq!(s.dist(VertexId(7)), None);
            assert!(!s.path_into(VertexId(7), &mut path) && path.is_empty());
            let settled: Vec<u32> = s.order().iter().map(|&(v, _)| v.0).collect();
            assert_eq!(settled, [1, 0, 2, 3, 4], "the whole component, in settle order");
            assert!(s.path_into(VertexId(3), &mut path));
            assert_eq!(path, [VertexId(1), VertexId(2), VertexId(3)]);
        }
    }

    #[test]
    fn targets_search_with_no_targets_settles_nothing() {
        let g = random_graph(11);
        let mut s = SearchScratch::for_graph(&g);
        s.dijkstra_targets_into(&g, VertexId(0), &[]);
        assert!(s.order().is_empty());
        assert!(!s.is_settled(VertexId(0)));
    }

    #[test]
    fn fresh_scratch_reports_nothing_reached() {
        let s = SearchScratch::new(4);
        for v in 0..4 {
            assert_eq!(s.dist(VertexId(v)), None);
            assert!(!s.is_settled(VertexId(v)));
        }
        assert!(s.order().is_empty());
    }

    #[test]
    #[should_panic(expected = "first_hop() is only populated")]
    fn first_hop_after_cluster_search_panics() {
        let g = generators::path(4);
        let mut s = SearchScratch::for_graph(&g);
        s.dijkstra_into(&g, VertexId(0));
        let bound = vec![crate::INFINITY; 4];
        s.cluster_into(&g, VertexId(0), &bound);
        // The previous Dijkstra left first-hop data behind; the kind gate
        // must refuse to serve it instead of returning it as current.
        let _ = s.first_hop(VertexId(3));
    }

    #[test]
    #[should_panic(expected = "nearest() is only populated")]
    fn nearest_after_single_origin_search_panics() {
        let g = generators::path(4);
        let mut s = SearchScratch::for_graph(&g);
        s.dijkstra_into(&g, VertexId(0));
        let _ = s.nearest(VertexId(3));
    }

    /// The unit-weight families the batch BFS is held to Dijkstra on, at `n`
    /// vertices: ER, geometric, grid, path, star (one hub), scale-free and
    /// two components.
    fn unit_families(n: usize) -> Vec<(&'static str, Graph)> {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let unit = generators::WeightModel::Unit;
        let cols = [13, 9, 8, 7, 5, 1].into_iter().find(|&c| n.is_multiple_of(c)).unwrap_or(1);
        let mut halves = crate::GraphBuilder::new(n);
        for i in 1..n {
            if i != n / 2 {
                halves.add_unit_edge(i - 1, i).unwrap();
            }
        }
        vec![
            ("er", generators::erdos_renyi(n, 4.0 / n as f64, unit, &mut rng)),
            ("geometric", generators::random_geometric(n, 0.2, unit, &mut rng)),
            ("grid", generators::grid(n / cols, cols)),
            ("path", generators::path(n)),
            ("star", generators::star(n)),
            ("scale-free", generators::barabasi_albert(n, 3, unit, &mut rng)),
            ("two-components", halves.build()),
        ]
    }

    #[test]
    fn bfs_batch_equals_dijkstra_on_every_pair() {
        for n in [1, 63, 64, 65, 130] {
            for (name, g) in unit_families(n) {
                assert_eq!(g.n(), n, "{name}");
                let mut batch = BfsBatch::for_graph(&g).unwrap();
                let mut full = SearchScratch::for_graph(&g);
                let all: Vec<VertexId> = g.vertices().collect();
                // One buffer across every path read, as the sequence
                // builders reuse it, so a stale vertex would show.
                let mut buf = Vec::new();
                // One workspace across widths and batches, so a stale lane
                // or level row from an earlier run would show.
                for width in [1, 63, 64] {
                    for sources in all.chunks(width) {
                        batch.run(&g, sources).unwrap();
                        let mut reached = 0;
                        for (i, &s) in sources.iter().enumerate() {
                            full.dijkstra_into(&g, s);
                            reached += full.order().len();
                            for v in g.vertices() {
                                let (dist, path) = (batch.dist(i, v), batch.path_to(&g, i, v));
                                assert_eq!(dist, full.dist(v), "{name} {n}/{width}: {s}->{v}");
                                assert_eq!(path, full.path_to(v), "{name} {n}/{width}: {s}->{v}");
                                let into = batch.path_into(&g, i, v, &mut buf).then(|| buf.clone());
                                assert_eq!(into, path, "{name} {n}/{width}: {s}->{v} (buffer)");
                                let into = full.path_into(v, &mut buf).then(|| buf.clone());
                                assert_eq!(into, path, "{name} {n}/{width}: {s}->{v} (buffer)");
                                assert!(path.is_some() || buf.is_empty(), "refused, not emptied");
                            }
                        }
                        assert_eq!(batch.reached(), reached, "{name} n={n} width={width}");
                        assert_eq!(batch.dist(sources.len(), sources[0]), None, "no such source");
                    }
                }
            }
        }
    }

    /// The budgeted batch is `ball_into` lane by lane: members in order and
    /// the port of every member's first hop. One workspace runs
    /// every width and ball size, a full run before each ball run and after
    /// it, so a stale lane, level, port or log row from any earlier run —
    /// a larger ball, a full search, another width — would show.
    #[test]
    fn bfs_batch_balls_equal_ball_into_in_every_lane() {
        for n in [1, 63, 64, 65, 130] {
            for (name, g) in unit_families(n) {
                let mut batch = BfsBatch::for_graph(&g).unwrap();
                let mut single = SearchScratch::for_graph(&g);
                let all: Vec<VertexId> = g.vertices().collect();
                for width in [1, 63, 64] {
                    for ell in [1, n - 1, n, 2 * n] {
                        for sources in all.chunks(width) {
                            batch.run(&g, sources).unwrap();
                            assert!(batch.members(0).is_empty(), "{name}: a full run has no balls");
                            let full = batch.reached();
                            batch.run_balls(&g, sources, ell).unwrap();
                            for (i, &s) in sources.iter().enumerate() {
                                single.ball_into(&g, s, ell);
                                let port = |v| single.first_hop(v).and_then(|hop| g.port_to(s, hop));
                                let want: Vec<_> = single.order().iter().map(|&(v, d)| (v, d, port(v))).collect();
                                let at = format!("{name} n={n} w={width} ℓ={ell}: B({s})");
                                assert_eq!(batch.ball(i).collect::<Vec<_>>(), want, "{at}");
                            }
                            assert!(batch.members(sources.len()).is_empty());
                            batch.run(&g, sources).unwrap();
                            assert_eq!(batch.reached(), full, "{name}: a ball run left lanes behind");
                            assert_eq!(batch.first_port(0, sources[0]), None);
                        }
                    }
                }
            }
        }
    }

    /// The ball rules at their edges, on a path `0 – 1 – … – 9` and two
    /// components: `ℓ ≤ 1` is the centre alone, depth-1 members take the
    /// centre's own port, a cut level keeps its smallest ids and retires
    /// the lane, and a lane whose component runs out first keeps all of it.
    #[test]
    fn bfs_batch_ball_rules() {
        let g = generators::path(10);
        let mut batch = BfsBatch::for_graph(&g).unwrap();
        let centre = [VertexId(4)];
        for ell in [0, 1] {
            batch.run_balls(&g, &centre, ell).unwrap();
            assert_eq!(batch.members(0), [VertexId(4)]);
        }
        batch.run_balls(&g, &centre, 3).unwrap();
        assert_eq!(batch.members(0), [VertexId(4), VertexId(3), VertexId(5)]);
        // Vertex 4's adjacency is [3, 5].
        assert_eq!(batch.first_port(0, VertexId(3)), Some(Port(0)));
        assert_eq!(batch.first_port(0, VertexId(5)), Some(Port(1)));
        batch.run_balls(&g, &centre, 4).unwrap();
        assert_eq!(batch.members(0), [VertexId(4), VertexId(3), VertexId(5), VertexId(2)]);
        assert_eq!(batch.first_port(0, VertexId(2)), Some(Port(0)), "inherited from 3");
        assert_eq!(batch.dist(0, VertexId(6)), Some(2), "the cut level is reached");
        assert_eq!(batch.dist(0, VertexId(7)), None, "the lane retired after it");

        let mut halves = crate::GraphBuilder::new(6);
        for (a, b) in [(0, 1), (1, 2), (3, 4), (4, 5)] {
            halves.add_unit_edge(a, b).unwrap();
        }
        let g = halves.build();
        let mut batch = BfsBatch::for_graph(&g).unwrap();
        batch.run_balls(&g, &[VertexId(1), VertexId(5)], 5).unwrap();
        assert_eq!(batch.members(0), [VertexId(1), VertexId(0), VertexId(2)]);
        assert_eq!(batch.members(1), [VertexId(5), VertexId(4), VertexId(3)]);
    }

    /// A `SearchBatch` reads each lane as its kernel found it: on every
    /// unit family (two components included) the batch BFS and `scalar`'s
    /// Dijkstra, run a source at a time, give the same balls — members,
    /// distances and first ports, at ℓ ∈ {1, 7, n} — and the same paths
    /// with their prefix distances to every vertex. A weighted graph takes
    /// the Dijkstra. A refused run — more than `width` sources, or one
    /// outside the graph — leaves no lane.
    #[test]
    fn search_batch_lanes_equal_the_scalar_kernel_and_refusals_leave_none() {
        for (name, g) in unit_families(65) {
            let (mut batch, mut scalar) = (SearchBatch::for_graph(&g), SearchBatch::scalar(&g));
            assert_eq!((batch.width(), scalar.width()), (BFS_BATCH_WIDTH, 1), "{name}");
            let sources: Vec<VertexId> = g.vertices().skip(1).collect();
            for ell in [1, 7, g.n()] {
                batch.run_balls(&g, sources.iter().copied(), ell).unwrap();
                for (i, &c) in sources.iter().enumerate() {
                    scalar.run_balls(&g, [c].into_iter(), ell).unwrap();
                    assert!(batch.ball(&g, i).eq(scalar.ball(&g, 0)), "{name}: B({c}, {ell})");
                }
            }
            let everyone: Vec<VertexId> = g.vertices().collect();
            let searches: Vec<(VertexId, &[VertexId])> = sources.iter().map(|&s| (s, &everyone[..])).collect();
            batch.run_targets(&g, &searches).unwrap();
            for i in 0..searches.len() {
                scalar.run_targets(&g, &searches[i..=i]).unwrap();
                for v in g.vertices() {
                    let owned = |(p, d): (&[VertexId], &[Weight])| (p.to_vec(), d.to_vec());
                    let (one, other) = (batch.path(&g, i, v).map(owned), scalar.path(&g, 0, v).map(owned));
                    assert_eq!(one, other, "{name}: {} to {v}", searches[i].0);
                }
            }
            let wide = batch.run_targets(&g, &[searches[0]; BFS_BATCH_WIDTH + 1]);
            assert_eq!(wide, Err(GraphError::BatchTooWide { sources: BFS_BATCH_WIDTH + 1, width: BFS_BATCH_WIDTH }));
            assert!(batch.path(&g, 0, VertexId(0)).is_none() && batch.ball(&g, 0).len() == 0, "{name}");
            let two = scalar.run_balls(&g, sources[..2].iter().copied(), 3);
            assert_eq!(two, Err(GraphError::BatchTooWide { sources: 2, width: 1 }));
            assert_eq!(scalar.ball(&g, 0).len(), 0, "{name}");
            let outside = scalar.run_targets(&g, &[(VertexId(65), &everyone[..])]);
            assert_eq!(outside, Err(GraphError::VertexOutOfRange { vertex: 65, n: 65 }));
            assert!(scalar.path(&g, 0, VertexId(0)).is_none(), "{name}");
        }
        assert_eq!(SearchBatch::for_graph(&random_graph(3)).width(), 1, "weighted graphs take Dijkstra");
    }

    #[test]
    fn bfs_batch_refuses_what_it_cannot_search() {
        let mut rng = StdRng::seed_from_u64(5);
        let weighted = generators::erdos_renyi(
            40,
            0.1,
            generators::WeightModel::Uniform { lo: 1, hi: 5 },
            &mut rng,
        );
        assert!(BfsBatch::for_graph(&weighted).is_none());

        let g = generators::path(70);
        let mut batch = BfsBatch::for_graph(&g).unwrap();
        let all: Vec<VertexId> = g.vertices().collect();
        batch.run(&g, &all[..2]).unwrap();
        assert_eq!(batch.dist(1, VertexId(69)), Some(68));
        // Every refusal leaves nothing reached.
        let refused = |batch: &BfsBatch| batch.reached() == 0 && batch.dist(0, VertexId(0)).is_none();
        let too_wide = GraphError::BatchTooWide { sources: 65, width: 64 };
        assert_eq!(batch.run(&g, &all[..65]), Err(too_wide.clone()));
        assert!(refused(&batch));
        batch.run(&g, &all[..2]).unwrap();
        assert_eq!(
            batch.run(&g, &[VertexId(3), VertexId(70)]),
            Err(GraphError::VertexOutOfRange { vertex: 70, n: 70 })
        );
        assert!(refused(&batch));
        assert_eq!(batch.run(&weighted, &[VertexId(0)]), Err(GraphError::NotUnitWeight));
        assert!(refused(&batch));
        batch.run_balls(&g, &all[..2], 5).unwrap();
        assert_eq!(batch.run_balls(&g, &all[..65], 5), Err(too_wide));
        assert!(refused(&batch) && batch.members(0).is_empty());
        let larger = generators::path(71);
        assert_eq!(
            batch.run(&larger, &[VertexId(0)]),
            Err(GraphError::VertexOutOfRange { vertex: 70, n: 70 })
        );
        assert_eq!(batch.path_to(&larger, 0, VertexId(70)), None);
        // An empty batch and a repeated source are fine.
        batch.run(&g, &[]).unwrap();
        assert_eq!(batch.reached(), 0);
        batch.run(&g, &[VertexId(9), VertexId(9)]).unwrap();
        let path = batch.path_to(&g, 1, VertexId(7));
        assert_eq!(path, Some(vec![VertexId(9), VertexId(8), VertexId(7)]));
        assert_eq!(batch.reached(), 140);
    }

    #[test]
    fn dist_row_marks_unreachable() {
        let g = generators::path(3);
        let mut s = SearchScratch::new(5);
        s.dijkstra_into(&g, VertexId(0));
        assert_eq!(s.dist_row(3), vec![0, 1, 2]);
        assert_eq!(s.dist_row(5), vec![0, 1, 2, INFINITY, INFINITY], "unreached vertices");
        assert!(s.is_settled(VertexId(2)));
        assert_eq!(s.n(), 5);
    }

    /// A row longer than the scratch is a scratch sized for another graph:
    /// it panics rather than report the vertices past it unreached.
    #[test]
    #[should_panic]
    fn dist_row_past_the_scratch_panics() {
        let mut s = SearchScratch::new(3);
        s.dijkstra_into(&generators::path(3), VertexId(0));
        s.dist_row(4);
    }
}
