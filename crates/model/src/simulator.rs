//! Hop-by-hop message simulator enforcing the fixed-port semantics.
//!
//! Every entry point is one call of [`DynScheme::walk`], which runs the hop
//! loop, `walk`, monomorphised for the concrete scheme: the scheme decides
//! from its table, the header and the label, and the loop checks the
//! delivery or checks the port and follows the edge. The typed label and
//! header stay on the stack. The loop is generic over what it records per
//! hop — nothing for the lean walk (the serving layer's, and
//! [`crate::route_pairs_lossy`]'s), the path for [`simulate`].
//!
//! One hop of that loop is one function, `walk_hop`, and a second loop runs
//! it too: `walk_many`, behind [`DynScheme::walk_many`], keeps up to
//! `LOCKSTEP` messages of a batch in flight and advances each one hop in
//! turn. A hop reads only the current vertex's table, the header and the
//! label, so the walks are independent pointer chases, and interleaving
//! them lets the cache misses of one overlap the work of the others.

use routing_graph::{Graph, VertexId, Weight};

use crate::erased::{DynScheme, ErasedLabel};
use crate::scheme::{Decision, HeaderSize, RoutingScheme};
use crate::RouteError;

/// Vertices [`simulate`]'s path has room for before the walk starts: every
/// walk of fewer hops records its path in this one allocation.
const PATH_RESERVE: usize = 32;

/// Walks `walk_many` keeps in flight. On the serve workloads' graph, on a
/// 2-vCPU x86-64 host, four overlapped the walks' cache misses and eight
/// did no better.
const LOCKSTEP: usize = 4;

/// The result of routing one message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteOutcome {
    /// The full vertex path the message traversed, from source to the vertex
    /// where it was delivered (inclusive).
    pub path: Vec<VertexId>,
    /// Total weight of the traversed path.
    pub weight: Weight,
    /// Number of edges traversed.
    pub hops: usize,
    /// The largest header size (in `O(log n)`-bit words) observed while the
    /// message was in flight.
    pub max_header_words: usize,
}

impl RouteOutcome {
    /// The source vertex.
    pub fn source(&self) -> VertexId {
        self.path[0]
    }

    /// The vertex where the message was delivered.
    pub fn destination(&self) -> VertexId {
        self.path[self.path.len() - 1]
    }
}

/// The result of routing one message without materializing the path — the
/// serving layer's per-query answer shape.
///
/// Produced by [`simulate_lean`], which makes exactly the decision sequence
/// of [`simulate`], at the hop budget given, without the path vector. For
/// every scheme of the default registry the lean walk touches the allocator
/// on no successful query: labels and headers are stack values that point
/// into the scheme's own tables (an error allocates its message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeanOutcome {
    /// Total weight of the traversed path.
    pub weight: Weight,
    /// Number of edges traversed.
    pub hops: usize,
    /// The largest header size (in `O(log n)`-bit words) observed while the
    /// message was in flight.
    pub max_header_words: usize,
}

/// Routes a message from `source` to `dest` using `scheme`, with a hop
/// budget of `4 * n + 16`. The path is reserved once, for 32 vertices, and
/// is the query's one allocation unless the walk outgrows it.
///
/// Takes the scheme through the object-safe [`DynScheme`] surface, so the
/// same code path serves typed schemes (every `&S where S: RoutingScheme`
/// coerces) and registry-built `Box<dyn DynScheme>` values alike.
///
/// `dest` must be a vertex the scheme was built for (`scheme.label_of` is
/// the scheme's own code); the walk itself may run on a different graph.
///
/// # Errors
///
/// Propagates scheme errors, and fails if the scheme forwards on a
/// non-existent port, loops past the hop budget, delivers at the wrong
/// vertex, or the message reaches a vertex the scheme has no table for
/// ([`RouteError::UnknownVertex`], possible when `g` is not the graph the
/// scheme was built on).
pub fn simulate(
    g: &Graph,
    scheme: &dyn DynScheme,
    source: VertexId,
    dest: VertexId,
) -> Result<RouteOutcome, RouteError> {
    let mut path = Vec::with_capacity(PATH_RESERVE);
    path.push(source);
    let LeanOutcome { weight, hops, max_header_words } =
        scheme.walk(g, source, dest, None, 4 * g.n() + 16, Some(&mut path))?;
    Ok(RouteOutcome { path, weight, hops, max_header_words })
}

/// Routes a message like [`simulate`], under an explicit hop budget, but
/// without materializing the traversed path: same decision sequence, same
/// errors. The label comes from the scheme's typed `label_of`; for every
/// scheme of the default registry a successful query allocates nothing.
///
/// Both are the same loop, and a test in this module pins weight, hops,
/// header words and errors equal. The serving layer routes a batch of such
/// walks at once through [`DynScheme::walk_many`].
///
/// # Errors
///
/// Same conditions as [`simulate`].
pub fn simulate_lean(
    g: &Graph,
    scheme: &dyn DynScheme,
    source: VertexId,
    dest: VertexId,
    max_hops: usize,
) -> Result<LeanOutcome, RouteError> {
    scheme.walk(g, source, dest, None, max_hops, None)
}

/// [`simulate_lean`] with a caller-supplied erased label, so a run of
/// queries towards the same destination erases the label once. The label
/// is checked and downcast once; the walk then allocates nothing.
///
/// `label` must be `scheme.label_of(dest)`; a label for a different vertex
/// routes to that vertex and is then reported as
/// [`RouteError::DeliveredAtWrongVertex`].
///
/// # Errors
///
/// Same conditions as [`simulate`]; a label another scheme produced is
/// [`RouteError::BadLabel`].
pub fn simulate_lean_with_label(
    g: &Graph,
    scheme: &dyn DynScheme,
    source: VertexId,
    dest: VertexId,
    label: &ErasedLabel,
    max_hops: usize,
) -> Result<LeanOutcome, RouteError> {
    scheme.walk(g, source, dest, Some(label), max_hops, None)
}

/// What a walk records per hop: the vertex it steps onto.
pub(crate) trait Trail {
    /// Starts the record of a walk from `source`: `walk_many` reuses one
    /// trail per job. (`walk`'s caller pushes the source itself.)
    fn begin(&mut self, source: VertexId);
    fn visit(&mut self, at: VertexId);
}

impl Trail for () {
    #[inline(always)]
    fn begin(&mut self, _: VertexId) {}
    #[inline(always)]
    fn visit(&mut self, _: VertexId) {}
}

impl Trail for Vec<VertexId> {
    fn begin(&mut self, source: VertexId) {
        self.clear();
        self.push(source);
    }
    #[inline]
    fn visit(&mut self, at: VertexId) {
        self.push(at);
    }
}

/// The trail of each job of a `walk_many` batch, by job index.
pub(crate) trait Trails {
    type Trail: Trail;
    fn of(&mut self, job: usize) -> &mut Self::Trail;
}

impl Trails for () {
    type Trail = ();
    #[inline(always)]
    fn of(&mut self, _: usize) -> &mut () {
        self
    }
}

impl Trails for [Vec<VertexId>] {
    type Trail = Vec<VertexId>;
    fn of(&mut self, job: usize) -> &mut Vec<VertexId> {
        &mut self[job]
    }
}

/// A message in flight: where it is, where it goes, its header, and what
/// it has cost so far.
struct Flight<H> {
    at: VertexId,
    dest: VertexId,
    header: H,
    weight: Weight,
    hops: usize,
    max_header_words: usize,
}

/// Refuses a vertex the scheme has no table for: the source, before its
/// label is made, and every vertex a hop steps onto, before the scheme is
/// asked about it. So a stale table whose port leads into a vertex it was
/// not built for is an error, not an index panic inside `decide`.
#[inline]
fn known(at: VertexId, n: usize) -> Result<(), RouteError> {
    if at.index() >= n {
        return Err(RouteError::UnknownVertex { at });
    }
    Ok(())
}

/// The flight of a message from `source` to `dest`, with its first header.
#[inline]
fn walk_start<S: RoutingScheme>(
    scheme: &S,
    source: VertexId,
    dest: VertexId,
    label: &S::Label,
) -> Result<Flight<S::Header>, RouteError> {
    let header = scheme.init_header(source, label)?;
    let max_header_words = header.words();
    Ok(Flight { at: source, dest, header, weight: 0, hops: 0, max_header_words })
}

/// One hop, for one concrete scheme: the scheme decides at the flight's
/// vertex; a delivery is checked against the destination and counted, a
/// forward is checked against the hop budget and the vertex's ports and
/// then follows the edge. `Some` when the message was delivered, `None`
/// while it is still in flight. Both loops, `walk` and `walk_many`, step
/// every message through this function and nothing else; it is inlined
/// into both, so each keeps its flight in registers rather than behind a
/// call per hop.
#[inline(always)]
fn walk_hop<S: RoutingScheme>(
    g: &Graph,
    scheme: &S,
    n: usize,
    flight: &mut Flight<S::Header>,
    label: &S::Label,
    max_hops: usize,
    trail: &mut impl Trail,
) -> Result<Option<LeanOutcome>, RouteError> {
    let at = flight.at;
    match scheme.decide(at, &mut flight.header, label)? {
        Decision::Deliver => {
            if at != flight.dest {
                return Err(RouteError::DeliveredAtWrongVertex { at, destination: flight.dest });
            }
            record_delivery(flight.hops, flight.max_header_words);
            let Flight { weight, hops, max_header_words, .. } = *flight;
            Ok(Some(LeanOutcome { weight, hops, max_header_words }))
        }
        Decision::Forward(port) => {
            if flight.hops >= max_hops {
                return Err(RouteError::HopBudgetExceeded { budget: max_hops });
            }
            if port.index() >= g.degree(at) {
                return Err(RouteError::InvalidPort { at, port: port.0 });
            }
            let edge = g.neighbor_at(at, port);
            flight.weight += edge.weight;
            flight.at = edge.to;
            known(edge.to, n)?;
            flight.hops += 1;
            trail.visit(edge.to);
            flight.max_header_words = flight.max_header_words.max(flight.header.words());
            Ok(None)
        }
    }
}

/// The hop loop for one message. A supplied erased label is checked and
/// downcast once, after the source; without one the typed label is taken
/// from `label_of`. Fails the hop after `max_hops` edges.
pub(crate) fn walk<S: RoutingScheme>(
    g: &Graph,
    scheme: &S,
    source: VertexId,
    dest: VertexId,
    label: Option<&ErasedLabel>,
    max_hops: usize,
    trail: &mut impl Trail,
) -> Result<LeanOutcome, RouteError> {
    let n = scheme.n();
    known(source, n)?;
    let owned;
    let label = match label {
        Some(erased) => erased.typed_for::<S::Label>(scheme.name())?,
        None => {
            owned = scheme.label_of(dest);
            &owned
        }
    };
    let mut flight = walk_start(scheme, source, dest, label)?;
    loop {
        if let Some(done) = walk_hop(g, scheme, n, &mut flight, label, max_hops, trail)? {
            return Ok(done);
        }
    }
}

/// A job of a `walk_many` batch in flight: its index, its flight, its label.
type InFlight<S> = (usize, Flight<<S as RoutingScheme>::Header>, <S as RoutingScheme>::Label);

/// The hop loop for a batch of `(source, destination)` jobs: up to
/// [`LOCKSTEP`] of them in flight, each advanced one `walk_hop` in turn,
/// and a finished one's place taken by the next job. Each job's result —
/// exactly what `walk` returns for it — goes to `out` with the job's index,
/// in the order the walks end. Labels come from `label_of`, and one is
/// reused while consecutive jobs share a destination, so a dest-sorted
/// batch makes one label per destination.
pub(crate) fn walk_many<S: RoutingScheme, T: Trails + ?Sized>(
    g: &Graph,
    scheme: &S,
    jobs: &[(VertexId, VertexId)],
    max_hops: usize,
    trails: &mut T,
    out: &mut dyn FnMut(usize, Result<LeanOutcome, RouteError>),
) {
    let n = scheme.n();
    let mut queued = jobs.iter().copied().enumerate();
    let mut label = None;
    let mut flights: [Option<InFlight<S>>; LOCKSTEP] = std::array::from_fn(|_| None);
    loop {
        let mut moved = false;
        for slot in &mut flights {
            if slot.is_none() {
                *slot = walk_admit(scheme, n, &mut queued, &mut label, trails, out);
            }
            let Some((job, flight, label)) = slot else { continue };
            moved = true;
            let hop = walk_hop(g, scheme, n, flight, label, max_hops, trails.of(*job));
            let Some(result) = hop.transpose() else { continue };
            out(*job, result);
            *slot = None;
        }
        if !moved {
            return;
        }
    }
}

/// Takes jobs off `queued` until one starts a flight, with the same checks
/// in the same order as `walk`: the source, then the label (the last one
/// made when the destination repeats), then the header. A job that fails
/// to start gets its error at once.
fn walk_admit<S: RoutingScheme, T: Trails + ?Sized>(
    scheme: &S,
    n: usize,
    queued: &mut impl Iterator<Item = (usize, (VertexId, VertexId))>,
    label: &mut Option<(VertexId, S::Label)>,
    trails: &mut T,
    out: &mut dyn FnMut(usize, Result<LeanOutcome, RouteError>),
) -> Option<InFlight<S>> {
    for (job, (source, dest)) in queued {
        trails.of(job).begin(source);
        let started = known(source, n).and_then(|()| {
            let label = match label {
                Some((made_for, made)) if *made_for == dest => made.clone(),
                _ => label.insert((dest, scheme.label_of(dest))).1.clone(),
            };
            Ok((job, walk_start(scheme, source, dest, &label)?, label))
        });
        match started {
            Ok(flight) => return Some(flight),
            Err(e) => out(job, Err(e)),
        }
    }
    None
}

/// Telemetry for one delivered query: one flag load when metrics are off,
/// three counter bumps when on. Every delivered walk counts, lossy ones
/// included; error paths are accounted by their callers (the churn
/// harness's failure breakdown maps onto the `churn_fail_*` counters).
#[inline]
fn record_delivery(hops: usize, max_header_words: usize) {
    if routing_obs::metrics_enabled() {
        routing_obs::counters::ROUTING_QUERIES.inc();
        routing_obs::counters::ROUTING_HOPS.add(hops as u64);
        routing_obs::counters::ROUTING_HEADER_WORDS.add(max_header_words as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toys::{graph, FullTable, BAD_PORT, EAGER, LOOP};
    use routing_graph::{generators, SearchScratch};

    #[test]
    fn lean_simulation_matches_the_full_simulator() {
        let g = generators::grid(4, 4);
        let s = FullTable::build(&g);
        let ttl = 4 * g.n() + 16;
        for u in g.vertices() {
            for v in g.vertices() {
                let full = simulate(&g, &s, u, v).unwrap();
                let lean = simulate_lean(&g, &s, u, v, ttl).unwrap();
                assert_eq!(lean.weight, full.weight);
                assert_eq!(lean.hops, full.hops);
                assert_eq!(lean.max_header_words, full.max_header_words);
            }
        }
        // Both variants fail identically at the same hop budget.
        let cyc = generators::cycle(3);
        let full = simulate(&cyc, &LOOP, VertexId(0), VertexId(2)).unwrap_err();
        let lean = simulate_lean(&cyc, &LOOP, VertexId(0), VertexId(2), 4 * cyc.n() + 16).unwrap_err();
        assert_eq!(full, lean);
    }

    #[test]
    fn simulator_follows_shortest_paths_of_full_tables() {
        let g = generators::grid(4, 4);
        let s = FullTable::build(&g);
        let mut sp = SearchScratch::for_graph(&g);
        sp.dijkstra_into(&g, VertexId(0));
        for v in g.vertices() {
            let out = simulate(&g, &s, VertexId(0), v).unwrap();
            assert_eq!(out.destination(), v);
            assert_eq!(out.source(), VertexId(0));
            assert_eq!(Some(out.weight), sp.dist(v));
            assert_eq!(out.hops, out.path.len() - 1);
            assert_eq!(out.max_header_words, 1);
        }
    }

    #[test]
    fn self_route_has_zero_weight() {
        let g = generators::path(3);
        let s = FullTable::build(&g);
        let out = simulate(&g, &s, VertexId(1), VertexId(1)).unwrap();
        assert_eq!(out.weight, 0);
        assert_eq!(out.hops, 0);
        assert_eq!(out.path, vec![VertexId(1)]);
    }

    #[test]
    fn loops_hit_the_hop_budget() {
        let g = generators::cycle(3);
        let err = simulate_lean(&g, &LOOP, VertexId(0), VertexId(2), 10).unwrap_err();
        assert_eq!(err, RouteError::HopBudgetExceeded { budget: 10 });
        // The full simulator's budget is 4n + 16.
        let err = simulate(&g, &LOOP, VertexId(0), VertexId(2)).unwrap_err();
        assert_eq!(err, RouteError::HopBudgetExceeded { budget: 28 });
    }

    #[test]
    fn wrong_delivery_is_detected() {
        let g = generators::path(3);
        let err = simulate(&g, &EAGER, VertexId(0), VertexId(2)).unwrap_err();
        assert_eq!(
            err,
            RouteError::DeliveredAtWrongVertex { at: VertexId(0), destination: VertexId(2) }
        );
    }

    #[test]
    fn invalid_ports_are_detected() {
        let g = generators::path(3);
        let err = simulate(&g, &BAD_PORT, VertexId(0), VertexId(2)).unwrap_err();
        assert_eq!(err, RouteError::InvalidPort { at: VertexId(0), port: 99 });
    }

    #[test]
    fn vertices_beyond_the_scheme_are_errors_not_panics() {
        // Tables of path(3) know vertices 0..3 only.
        let s = FullTable::build(&generators::path(3));
        let lean = |g: &Graph, u: u32, v: u32| {
            simulate_lean(g, &s, VertexId(u), VertexId(v), 4 * g.n() + 16).map(|_| ())
        };
        let full = |g: &Graph, u: u32, v: u32| simulate(g, &s, VertexId(u), VertexId(v)).map(|_| ());
        // On path(5) a walk from vertex 3 or 4 starts outside the tables.
        let p5 = generators::path(5);
        for u in [3, 4] {
            let want = Err(RouteError::UnknownVertex { at: VertexId(u) });
            assert_eq!(full(&p5, u, 0), want);
            assert_eq!(lean(&p5, u, 0), want);
        }
        assert_eq!(full(&p5, 0, 2), Ok(()), "ports 0..3 of path(5) still match path(3)'s");
        // path(5) numbered 0-1-3-4-2: vertex 1's port 1, towards 2 in the
        // tables, now leads to 3.
        let shifted = graph(5, &[(0, 1), (1, 3), (3, 4), (4, 2)]);
        let want = Err(RouteError::UnknownVertex { at: VertexId(3) });
        assert_eq!(full(&shifted, 0, 2), want);
        assert_eq!(lean(&shifted, 0, 2), want);
    }
}
