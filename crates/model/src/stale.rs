//! Lossy evaluation of a routing scheme on a graph it was **not** built for
//! — the measurement core of the churn workloads.
//!
//! [`crate::eval::evaluate`] treats every routing failure as a bug, which
//! is correct for a scheme routing on its own preprocessed graph. Under
//! churn the situation is different: the tables are *stale* — built on a
//! base graph while the messages travel on a mutated one — and failures are
//! the phenomenon being measured, not a bug. A stale table can
//!
//! * forward on a port that no longer exists (a neighbour was removed and
//!   the adjacency list shrank) — [`FailureKind::InvalidPort`];
//! * forward on a port that now leads to a *different* neighbour (smaller-id
//!   neighbours were removed, shifting ports) and eventually deliver at the
//!   wrong vertex or loop — [`FailureKind::WrongDelivery`] /
//!   [`FailureKind::HopBudget`];
//! * forward into a vertex that joined after the tables were built, where
//!   the walk stops before asking the scheme — [`FailureKind::UnknownVertex`];
//! * reference routing state that no longer makes sense —
//!   [`FailureKind::SchemeError`].
//!
//! [`route_pairs_lossy`] routes a set of pairs through the simulator's one
//! hop loop (the lean walk), classifies each error instead of propagating
//! it, and aggregates delivery (reachability) and stretch relative to the
//! mutated graph's true distances. Pairs that the mutated graph itself disconnects
//! are reported separately ([`ResilienceReport::disconnected_pairs`]): no
//! routing scheme could deliver those, so they are excluded from the
//! reachability denominator.

use rand::Rng;
use serde::{Deserialize, Serialize};

use routing_graph::{DistanceOracle, Graph, VertexId};

use crate::erased::DynScheme;
use crate::eval::sample_pairs_from;
use crate::simulator::simulate_lean;
use crate::stats::StretchStats;
use crate::RouteError;

/// Why a routed pair failed to be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The scheme forwarded on a port that does not exist in the (mutated)
    /// graph.
    InvalidPort,
    /// The message was delivered at a vertex other than the destination.
    WrongDelivery,
    /// The message looped until the hop budget ran out.
    HopBudget,
    /// A stale port forwarded the message into a vertex the scheme has no
    /// routing table for (one that joined after the tables were built).
    UnknownVertex,
    /// The scheme reported an internal error (missing table entry, bad
    /// label).
    SchemeError,
}

/// Per-failure-kind counts of one lossy evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureBreakdown {
    /// Forwards on ports that no longer exist.
    pub invalid_port: usize,
    /// Deliveries at the wrong vertex.
    pub wrong_delivery: usize,
    /// Messages that looped into the hop budget.
    pub hop_budget: usize,
    /// Messages forwarded into vertices unknown to the scheme.
    pub unknown_vertex: usize,
    /// Internal scheme errors.
    pub scheme_error: usize,
}

impl FailureKind {
    /// The class of a walk's error. Only the walker produces the first
    /// four; every error a scheme reports is a [`FailureKind::SchemeError`].
    fn of(e: &RouteError) -> FailureKind {
        match e {
            RouteError::InvalidPort { .. } => FailureKind::InvalidPort,
            RouteError::DeliveredAtWrongVertex { .. } => FailureKind::WrongDelivery,
            RouteError::HopBudgetExceeded { .. } => FailureKind::HopBudget,
            RouteError::UnknownVertex { .. } => FailureKind::UnknownVertex,
            _ => FailureKind::SchemeError,
        }
    }
}

impl FailureBreakdown {
    fn record(&mut self, kind: FailureKind) {
        // Mirror each failure into the process-wide telemetry counters so a
        // churn run exports its failure-class totals without re-summing the
        // per-round breakdowns (no-op unless metrics are enabled).
        use routing_obs::counters as c;
        let (count, counter) = match kind {
            FailureKind::InvalidPort => (&mut self.invalid_port, &c::CHURN_FAIL_INVALID_PORT),
            FailureKind::WrongDelivery => (&mut self.wrong_delivery, &c::CHURN_FAIL_WRONG_DELIVERY),
            FailureKind::HopBudget => (&mut self.hop_budget, &c::CHURN_FAIL_HOP_BUDGET),
            FailureKind::UnknownVertex => (&mut self.unknown_vertex, &c::CHURN_FAIL_UNKNOWN_VERTEX),
            FailureKind::SchemeError => (&mut self.scheme_error, &c::CHURN_FAIL_SCHEME_ERROR),
        };
        *count += 1;
        counter.inc();
    }

    /// Total failures across all kinds.
    pub fn total(&self) -> usize {
        self.invalid_port
            + self.wrong_delivery
            + self.hop_budget
            + self.unknown_vertex
            + self.scheme_error
    }
}

/// Aggregated outcome of routing a pair population through a (possibly
/// stale) scheme on a (possibly mutated) graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResilienceReport {
    /// Pairs attempted (both endpoints alive).
    pub pairs: usize,
    /// Pairs the graph itself disconnects (no scheme could route these).
    pub disconnected_pairs: usize,
    /// Pairs delivered at the correct destination.
    pub delivered: usize,
    /// Failure counts for undelivered connected pairs.
    pub failures: FailureBreakdown,
    /// Stretch of the delivered pairs relative to the evaluation graph's
    /// exact distances.
    pub stretch: StretchStats,
}

impl ResilienceReport {
    /// Delivered fraction over the *connected* pairs, in `[0, 1]`.
    ///
    /// Two degenerate cases are told apart deliberately: when pairs were
    /// attempted but the graph disconnected all of them, this is `1.0`
    /// (no scheme could have delivered more); when **no pair could even be
    /// sampled** (`pairs == 0` — fewer than two vertices the scheme can
    /// address survive), this is `0.0`, so that total scheme collapse reads
    /// as unreachable and reachability-threshold rebuild policies still
    /// fire instead of being masked by a vacuous 100%.
    pub fn reachability(&self) -> f64 {
        if self.pairs == 0 {
            return 0.0;
        }
        let routable = self.pairs - self.disconnected_pairs;
        if routable == 0 {
            1.0
        } else {
            self.delivered as f64 / routable as f64
        }
    }

    /// Delivered fraction over *all* attempted pairs (counting pairs the
    /// graph disconnects as undeliverable), in `[0, 1]`; `0.0` when no
    /// pair could be sampled (see [`ResilienceReport::reachability`]).
    pub fn absolute_reachability(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.delivered as f64 / self.pairs as f64
        }
    }
}

/// Routes every pair of `pairs` through `scheme` on `g`, recording failures
/// instead of propagating them.
///
/// `exact` must be a ground-truth oracle **for `g`** (the evaluation graph —
/// for stale-table experiments that is the *mutated* graph, so stretch is
/// measured against what an oracle rebuilt on the spot could achieve). The
/// churn harness passes a [`routing_graph::SampledDistances`] built from the
/// pairs' distinct sources, which keeps the per-round ground-truth cost at
/// `O(|sources|·(m + n log n))` instead of the dense matrix's `O(n^2)`.
///
/// Both endpoints of every pair must be vertices the scheme was built for
/// (`id < scheme.n()`); [`sample_alive_pairs`] over a mask restricted to
/// known vertices guarantees this. Each pair is the lean walk of
/// [`crate::simulate_lean`] with the default hop budget `4·n + 16`, its
/// error mapped onto a [`FailureKind`]; delivered walks count in the query
/// telemetry like any other.
pub fn route_pairs_lossy<O: DistanceOracle>(
    g: &Graph,
    scheme: &dyn DynScheme,
    exact: &O,
    pairs: &[(VertexId, VertexId)],
) -> ResilienceReport {
    let mut report = ResilienceReport {
        pairs: pairs.len(),
        disconnected_pairs: 0,
        delivered: 0,
        failures: FailureBreakdown::default(),
        stretch: StretchStats::new(),
    };
    let max_hops = 4 * g.n() + 16;
    for &(u, v) in pairs {
        let Some(true_dist) = exact.distance(u, v) else {
            report.disconnected_pairs += 1;
            continue;
        };
        match simulate_lean(g, scheme, u, v, max_hops) {
            Ok(out) => {
                report.delivered += 1;
                report.stretch.record(out.weight, true_dist);
            }
            Err(e) => report.failures.record(FailureKind::of(&e)),
        }
    }
    report
}

/// Samples `count` ordered pairs with both endpoints alive (and distinct),
/// uniformly at random. Returns fewer than `count` only when fewer than two
/// vertices are alive.
pub fn sample_alive_pairs<R: Rng>(
    alive: &[bool],
    count: usize,
    rng: &mut R,
) -> Vec<(VertexId, VertexId)> {
    let ids: Vec<VertexId> = alive
        .iter()
        .enumerate()
        .filter(|&(_, &a)| a)
        .map(|(i, _)| VertexId(i as u32))
        .collect();
    sample_pairs_from(&ids, &ids, count, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Decision;
    use crate::toys::{graph, FullTable, BAD_PORT, EAGER, LOOP};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_graph::apsp::DistanceMatrix;
    use routing_graph::generators;
    use routing_graph::mutate::{apply_events, ChurnEvent};
    use routing_graph::Weight;

    /// The lossy walker `route_pairs_lossy` ran before the simulator's hop
    /// loop took the stale-table guard, kept verbatim as the reference.
    fn walk_guarded(
        g: &Graph,
        scheme: &dyn DynScheme,
        source: VertexId,
        dest: VertexId,
    ) -> Result<Weight, FailureKind> {
        debug_assert!(source.index() < scheme.n() && dest.index() < scheme.n());
        let label = scheme.label_of(dest);
        let mut header = scheme.init_header(source, &label).map_err(|_| FailureKind::SchemeError)?;
        let max_hops = 4 * g.n() + 16;
        let mut at = source;
        let mut weight: Weight = 0;
        let mut hops = 0usize;
        loop {
            if at.index() >= scheme.n() {
                return Err(FailureKind::UnknownVertex);
            }
            match scheme.decide(at, &mut header, &label).map_err(|_| FailureKind::SchemeError)? {
                Decision::Deliver => {
                    return if at == dest { Ok(weight) } else { Err(FailureKind::WrongDelivery) };
                }
                Decision::Forward(port) => {
                    if hops >= max_hops {
                        return Err(FailureKind::HopBudget);
                    }
                    if port.index() >= g.degree(at) {
                        return Err(FailureKind::InvalidPort);
                    }
                    let edge = g.neighbor_at(at, port);
                    weight += edge.weight;
                    at = edge.to;
                    hops += 1;
                }
            }
        }
    }

    #[test]
    fn lossy_failure_kinds_equal_the_guarded_walk() {
        let (cycle, p3) = (generators::cycle(12), generators::path(3));
        let cut = apply_events(&cycle, None, &[ChurnEvent::RemoveVertex(VertexId(0))]).unwrap();
        let (on_cycle, on_p3) = (FullTable::build(&cycle), FullTable::build(&p3));
        // Two components at build time: a walk between them has no entry.
        let on_split = FullTable::build(&graph(4, &[(0, 1), (2, 3)]));
        let cases: [(Graph, &dyn DynScheme); 6] = [
            (cut.graph, &on_cycle),
            (generators::cycle(3), &LOOP),
            (p3.clone(), &EAGER),
            (p3, &BAD_PORT),
            // path(5) numbered 0-1-3-4-2: vertex 1's port towards 2 leads to 3.
            (graph(5, &[(0, 1), (1, 3), (3, 4), (4, 2)]), &on_p3),
            (generators::path(4), &on_split),
        ];
        let mut seen = FailureBreakdown::default();
        for (g, scheme) in &cases {
            let exact = DistanceMatrix::new(g);
            let known = scheme.n() as u32;
            for (u, v) in (0..known * known).map(|i| (VertexId(i / known), VertexId(i % known))) {
                if u == v || exact.distance(u, v).is_none() {
                    continue;
                }
                let report = route_pairs_lossy(g, *scheme, &exact, &[(u, v)]);
                let mut want = FailureBreakdown::default();
                match walk_guarded(g, *scheme, u, v) {
                    Ok(_) => assert_eq!(report.delivered, 1, "{u} -> {v}"),
                    Err(kind) => {
                        want.record(kind);
                        seen.record(kind);
                    }
                }
                assert_eq!(report.failures, want, "{} on {u} -> {v}", scheme.name());
            }
        }
        let s = seen;
        let kinds = [s.invalid_port, s.wrong_delivery, s.hop_budget, s.unknown_vertex, s.scheme_error];
        assert!(kinds.iter().all(|&k| k > 0), "every failure kind is exercised: {seen:?}");
    }

    #[test]
    fn fresh_tables_reach_everything() {
        let g = generators::grid(4, 4);
        let scheme = FullTable::build(&g);
        let exact = DistanceMatrix::new(&g);
        let mut rng = StdRng::seed_from_u64(3);
        let pairs = sample_alive_pairs(&vec![true; g.n()], 100, &mut rng);
        let report = route_pairs_lossy(&g, &scheme, &exact, &pairs);
        assert_eq!(report.delivered, 100);
        assert_eq!(report.reachability(), 1.0);
        assert_eq!(report.absolute_reachability(), 1.0);
        assert_eq!(report.failures.total(), 0);
        assert_eq!(report.stretch.max_multiplicative(), Some(1.0));
    }

    #[test]
    fn stale_tables_degrade_but_do_not_error() {
        // Build tables on a cycle, then remove one vertex: routes crossing
        // the removed vertex must fail, the rest keep working.
        let g = generators::cycle(12);
        let scheme = FullTable::build(&g);
        let m = apply_events(&g, None, &[ChurnEvent::RemoveVertex(VertexId(0))]).unwrap();
        let exact = DistanceMatrix::new(&m.graph);
        let pairs: Vec<(VertexId, VertexId)> = (1..12)
            .flat_map(|u| (1..12).filter(move |&v| v != u).map(move |v| (VertexId(u), VertexId(v))))
            .collect();
        let report = route_pairs_lossy(&m.graph, &scheme, &exact, &pairs);
        assert_eq!(report.pairs, 110);
        assert_eq!(report.disconnected_pairs, 0, "the remaining path is connected");
        assert!(report.delivered > 0, "pairs on the surviving arc still route");
        assert!(report.failures.total() > 0, "pairs across the removed vertex fail");
        assert_eq!(report.delivered + report.failures.total(), 110);
        assert!(report.reachability() < 1.0);
    }

    #[test]
    fn disconnected_pairs_are_excluded_from_reachability() {
        let g = generators::path(4);
        let scheme = FullTable::build(&g);
        // Removing vertex 1 splits {0} from {2, 3}.
        let m = apply_events(&g, None, &[ChurnEvent::RemoveVertex(VertexId(1))]).unwrap();
        let exact = DistanceMatrix::new(&m.graph);
        // (0, 2) is disconnected. (3, 2) still routes: vertex 3's only
        // neighbour is 2, so its port survives. (The reverse direction
        // (2, 3) would fail — 2's port to 3 shifts when its smaller-id
        // neighbour 1 is removed — which is exactly the degradation the
        // churn experiments measure.)
        let pairs = vec![(VertexId(0), VertexId(2)), (VertexId(3), VertexId(2))];
        let report = route_pairs_lossy(&m.graph, &scheme, &exact, &pairs);
        assert_eq!(report.disconnected_pairs, 1);
        assert_eq!(report.delivered, 1);
        assert_eq!(report.reachability(), 1.0);
        assert_eq!(report.absolute_reachability(), 0.5);
    }

    #[test]
    fn total_collapse_reads_as_unreachable() {
        // Fewer than two addressable vertices -> no pairs can be sampled ->
        // reachability must be 0.0 (not a vacuous 1.0), so threshold
        // rebuild policies still fire.
        let g = generators::path(4);
        let scheme = FullTable::build(&g);
        let exact = DistanceMatrix::new(&g);
        let report = route_pairs_lossy(&g, &scheme, &exact, &[]);
        assert_eq!(report.pairs, 0);
        assert_eq!(report.reachability(), 0.0);
        assert_eq!(report.absolute_reachability(), 0.0);
    }

    #[test]
    fn sampled_pairs_avoid_dead_vertices() {
        let mut rng = StdRng::seed_from_u64(9);
        let alive = vec![true, false, true, true, false];
        let pairs = sample_alive_pairs(&alive, 50, &mut rng);
        assert_eq!(pairs.len(), 50);
        for (u, v) in pairs {
            assert!(alive[u.index()] && alive[v.index()]);
            assert_ne!(u, v);
        }
        assert!(sample_alive_pairs(&[true, false], 5, &mut rng).is_empty());
    }
}
