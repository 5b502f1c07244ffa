//! Hop-by-hop message simulator enforcing the fixed-port semantics.
//!
//! Every entry point is a wrapper around one private hop loop, `walk`: the
//! scheme decides from its table, the header and the label, and the loop
//! checks the delivery or checks the port and follows the edge. The loop is
//! generic over what it records per hop — nothing for the lean walk (the
//! serving layer's, and [`crate::route_pairs_lossy`]'s), the path for
//! [`simulate`].

use routing_graph::{Graph, VertexId, Weight};

use crate::erased::{DynScheme, ErasedLabel};
use crate::scheme::{Decision, HeaderSize};
use crate::RouteError;

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
        *self.path.last().expect("path is never empty")
    }
}

/// The result of routing one message without materializing the path — the
/// serving layer's per-query answer shape.
///
/// Produced by [`simulate_lean`], which makes exactly the decision sequence
/// of [`simulate_with_ttl`] but never allocates: on a query-serving hot path
/// the path vector is the only per-query allocation left, and millions of
/// queries per second pay for it.
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

/// Routes a message from `source` to `dest` using `scheme`, with a default
/// hop budget of `4 * n + 16`.
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
    simulate_with_ttl(g, scheme, source, dest, 4 * g.n() + 16)
}

/// Routes a message with an explicit hop budget. See [`simulate`].
///
/// # Errors
///
/// Same conditions as [`simulate`].
pub fn simulate_with_ttl(
    g: &Graph,
    scheme: &dyn DynScheme,
    source: VertexId,
    dest: VertexId,
    max_hops: usize,
) -> Result<RouteOutcome, RouteError> {
    simulate_with_label(g, scheme, source, dest, &scheme.label_of(dest), max_hops)
}

/// [`simulate_with_ttl`] with a caller-supplied erased label (see
/// [`simulate_lean_with_label`]): the serving layer's path-recording walk.
///
/// # Errors
///
/// Same conditions as [`simulate`].
pub fn simulate_with_label(
    g: &Graph,
    scheme: &dyn DynScheme,
    source: VertexId,
    dest: VertexId,
    label: &ErasedLabel,
    max_hops: usize,
) -> Result<RouteOutcome, RouteError> {
    let mut path = vec![source];
    let LeanOutcome { weight, hops, max_header_words } =
        walk(g, scheme, source, dest, label, max_hops, &mut path)?;
    Ok(RouteOutcome { path, weight, hops, max_header_words })
}

/// Routes a message like [`simulate_with_ttl`] but without materializing
/// the traversed path: same decision sequence, same errors, zero
/// allocations beyond what the scheme itself does for the label and header.
///
/// The serving layer (`routing-serve`) uses this on its hot path; both are
/// the same loop, and a test in this module pins weight, hops, header
/// words and errors equal.
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
    simulate_lean_with_label(g, scheme, source, dest, &scheme.label_of(dest), max_hops)
}

/// [`simulate_lean`] with a caller-supplied erased label, so a batch of
/// queries towards the same destination erases the label once (the batched
/// query API of the serving layer sorts and caches labels per batch).
///
/// `label` must be `scheme.label_of(dest)`; a label for a different vertex
/// routes to that vertex and is then reported as
/// [`RouteError::DeliveredAtWrongVertex`].
///
/// # Errors
///
/// Same conditions as [`simulate`].
pub fn simulate_lean_with_label(
    g: &Graph,
    scheme: &dyn DynScheme,
    source: VertexId,
    dest: VertexId,
    label: &ErasedLabel,
    max_hops: usize,
) -> Result<LeanOutcome, RouteError> {
    walk(g, scheme, source, dest, label, max_hops, &mut ())
}

/// What a walk records per hop: the vertex it steps onto.
trait Trail {
    fn visit(&mut self, at: VertexId);
}

impl Trail for () {
    #[inline(always)]
    fn visit(&mut self, _: VertexId) {}
}

impl Trail for Vec<VertexId> {
    #[inline]
    fn visit(&mut self, at: VertexId) {
        self.push(at);
    }
}

/// The hop loop. Every vertex the message is at is checked against
/// `scheme.n()` before the scheme is asked about it, so a stale table whose
/// port leads into a vertex it was not built for is an error, not an index
/// panic inside `decide`. Fails the hop after `max_hops` edges.
fn walk(
    g: &Graph,
    scheme: &dyn DynScheme,
    source: VertexId,
    dest: VertexId,
    label: &ErasedLabel,
    max_hops: usize,
    trail: &mut impl Trail,
) -> Result<LeanOutcome, RouteError> {
    let n = scheme.n();
    if source.index() >= n {
        return Err(RouteError::UnknownVertex { at: source });
    }
    let mut header = scheme.init_header(source, label)?;
    let mut at = source;
    let mut weight: Weight = 0;
    let mut hops = 0usize;
    let mut max_header_words = header.words();
    loop {
        match scheme.decide(at, &mut header, label)? {
            Decision::Deliver => {
                if at != dest {
                    return Err(RouteError::DeliveredAtWrongVertex { at, destination: dest });
                }
                record_delivery(hops, max_header_words);
                return Ok(LeanOutcome { weight, hops, max_header_words });
            }
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
                trail.visit(at);
                max_header_words = max_header_words.max(header.words());
            }
        }
    }
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
    use routing_graph::generators;
    use routing_graph::shortest_path::dijkstra;

    #[test]
    fn lean_simulation_matches_the_full_simulator() {
        let g = generators::grid(4, 4);
        let s = FullTable::build(&g);
        let ttl = 4 * g.n() + 16;
        for u in g.vertices() {
            for v in g.vertices() {
                let full = simulate_with_ttl(&g, &s, u, v, ttl).unwrap();
                let lean = simulate_lean(&g, &s, u, v, ttl).unwrap();
                assert_eq!(lean.weight, full.weight);
                assert_eq!(lean.hops, full.hops);
                assert_eq!(lean.max_header_words, full.max_header_words);
            }
        }
        // Both variants fail identically at the same hop budget.
        let cyc = generators::cycle(3);
        let full = simulate_with_ttl(&cyc, &LOOP, VertexId(0), VertexId(2), 10).unwrap_err();
        let lean = simulate_lean(&cyc, &LOOP, VertexId(0), VertexId(2), 10).unwrap_err();
        assert_eq!(full, lean);
    }

    #[test]
    fn simulator_follows_shortest_paths_of_full_tables() {
        let g = generators::grid(4, 4);
        let s = FullTable::build(&g);
        let sp = dijkstra(&g, VertexId(0));
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
        let err = simulate_with_ttl(&g, &LOOP, VertexId(0), VertexId(2), 10).unwrap_err();
        assert_eq!(err, RouteError::HopBudgetExceeded { budget: 10 });
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
