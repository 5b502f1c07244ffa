//! End-to-end evaluation of a routing scheme on a graph: route many pairs,
//! compare against exact distances, and aggregate stretch/space/label/header
//! statistics. Used both by integration tests and by the experiment harness.
//!
//! Ground truth is abstracted behind [`routing_graph::DistanceOracle`], so
//! the same evaluation code runs against the dense
//! [`routing_graph::apsp::DistanceMatrix`] (exact for every pair, `O(n^2)`
//! memory — correctness tests) and against
//! [`routing_graph::SampledDistances`] (`k` exact source rows, `O(k·n)` —
//! the scalable path). For the sampled oracle, draw the pair population
//! with [`sample_pairs_from`] over the oracle's sources so every
//! ground-truth lookup is an `O(1)` exact hit.

use rand::Rng;
use serde::{Deserialize, Serialize};

use routing_graph::{DistanceOracle, Graph, VertexId};

use crate::erased::DynScheme;
use crate::simulator::simulate;
use crate::stats::{SpaceStats, StretchStats};
use crate::RouteError;

/// Which source/destination pairs to route during an evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairSelection {
    /// Every ordered pair `(u, v)` with `u != v`. Quadratic; use for small
    /// graphs and correctness tests.
    AllPairs,
    /// A fixed number of ordered pairs sampled uniformly at random.
    Sampled(usize),
}

/// Summary of one evaluation run, with everything the paper's Table 1
/// compares: stretch, per-vertex table size, label size and header size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalReport {
    /// Scheme name.
    pub scheme: String,
    /// Number of vertices of the evaluated graph.
    pub n: usize,
    /// Number of edges of the evaluated graph.
    pub m: usize,
    /// Number of routed pairs.
    pub pairs: usize,
    /// Stretch statistics over the routed pairs.
    pub stretch: StretchStats,
    /// Per-vertex routing-table sizes in `O(log n)`-bit words.
    pub table: SpaceStats,
    /// Largest label size in words.
    pub max_label_words: usize,
    /// Mean label size in words.
    pub mean_label_words: f64,
    /// Largest in-flight header observed, in words.
    pub max_header_words: usize,
}

/// Routes the selected pairs through `scheme` and aggregates statistics.
///
/// `exact` is any ground-truth backend for `g` — the dense matrix or the
/// sampled oracle; passing it in (rather than recomputing) lets callers
/// share one oracle across many schemes.
///
/// # Errors
///
/// Propagates the first routing failure — a correct scheme never fails, so
/// tests treat any error as a bug.
pub fn evaluate<O: DistanceOracle, R: Rng>(
    g: &Graph,
    scheme: &dyn DynScheme,
    exact: &O,
    selection: PairSelection,
    rng: &mut R,
) -> Result<EvalReport, RouteError> {
    let pairs = select_pairs(g, selection, rng);
    evaluate_pairs(g, scheme, exact, &pairs)
}

/// [`evaluate`] over an explicit pair population.
///
/// This is the primitive [`evaluate`] reduces to; use it directly when the
/// pair population must be shared across schemes (so every row of a
/// comparison table routes the same pairs).
///
/// # Errors
///
/// Propagates the first routing failure, and reports disconnected pairs as
/// [`RouteError::BadLabel`].
pub fn evaluate_pairs<O: DistanceOracle>(
    g: &Graph,
    scheme: &dyn DynScheme,
    exact: &O,
    pairs: &[(VertexId, VertexId)],
) -> Result<EvalReport, RouteError> {
    let mut stretch = StretchStats::new();
    let mut max_header_words = 0usize;
    for &(u, v) in pairs {
        let out = simulate(g, scheme, u, v)?;
        let d = exact
            .distance(u, v)
            .ok_or_else(|| RouteError::BadLabel { what: format!("{u} and {v} are disconnected") })?;
        stretch.record(out.weight, d);
        max_header_words = max_header_words.max(out.max_header_words);
    }
    let table = SpaceStats::from_per_vertex(g.vertices().map(|v| scheme.table_words(v)).collect());
    let label_words: Vec<usize> = g.vertices().map(|v| scheme.label_words(v)).collect();
    let max_label_words = label_words.iter().copied().max().unwrap_or(0);
    let mean_label_words = if label_words.is_empty() {
        0.0
    } else {
        label_words.iter().sum::<usize>() as f64 / label_words.len() as f64
    };
    Ok(EvalReport {
        scheme: scheme.name().to_string(),
        n: g.n(),
        m: g.m(),
        pairs: pairs.len(),
        stretch,
        table,
        max_label_words,
        mean_label_words,
        max_header_words,
    })
}

/// Picks the ordered pairs to route.
pub fn select_pairs<R: Rng>(
    g: &Graph,
    selection: PairSelection,
    rng: &mut R,
) -> Vec<(VertexId, VertexId)> {
    let n = g.n();
    match selection {
        PairSelection::AllPairs => {
            let mut pairs = Vec::with_capacity(n * n.saturating_sub(1));
            for u in g.vertices() {
                for v in g.vertices() {
                    if u != v {
                        pairs.push((u, v));
                    }
                }
            }
            pairs
        }
        PairSelection::Sampled(k) => {
            let ids: Vec<VertexId> = g.vertices().collect();
            sample_pairs_from(&ids, &ids, k, rng)
        }
    }
}

/// The anchored-pair sampler (the churn harness restricts both slices to
/// alive vertices and caps the sources, whose rows its per-round oracle
/// then holds): `count` ordered pairs with the source drawn uniformly from
/// `sources`, the destination uniformly from `destinations`, rejecting
/// `u == v`. Empty when either slice is empty or no distinct pair exists.
pub fn sample_pairs_from<R: Rng>(
    sources: &[VertexId],
    destinations: &[VertexId],
    count: usize,
    rng: &mut R,
) -> Vec<(VertexId, VertexId)> {
    if sources.is_empty() || destinations.is_empty() {
        return Vec::new();
    }
    // Guard against an unsatisfiable rejection loop: the only way every
    // draw collides is a single shared vertex on both sides.
    if sources.len() == 1 && destinations.len() == 1 && sources[0] == destinations[0] {
        return Vec::new();
    }
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let u = sources[rng.gen_range(0..sources.len())];
        let v = destinations[rng.gen_range(0..destinations.len())];
        if u != v {
            pairs.push((u, v));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toys::FullTable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_graph::apsp::DistanceMatrix;
    use routing_graph::generators;

    #[test]
    fn evaluate_full_table_has_stretch_one() {
        let g = generators::grid(4, 4);
        let exact = DistanceMatrix::new(&g);
        let scheme = FullTable::build(&g).with_header_words(2);
        let mut rng = StdRng::seed_from_u64(1);
        let report = evaluate(&g, &scheme, &exact, PairSelection::AllPairs, &mut rng).unwrap();
        assert_eq!(report.pairs, 16 * 15);
        assert_eq!(report.stretch.max_multiplicative(), Some(1.0));
        assert_eq!(report.table.max(), 16);
        assert_eq!(report.max_label_words, 1);
        assert_eq!(report.max_header_words, 2);
        assert_eq!(report.n, 16);
        assert_eq!(report.m, g.m());
        assert!(report.mean_label_words > 0.9);
    }

    #[test]
    fn sampled_pairs_have_requested_count() {
        let g = generators::cycle(20);
        let mut rng = StdRng::seed_from_u64(7);
        let pairs = select_pairs(&g, PairSelection::Sampled(37), &mut rng);
        assert_eq!(pairs.len(), 37);
        assert!(pairs.iter().all(|&(u, v)| u != v));
    }

    #[test]
    fn sampling_from_tiny_graph_is_empty() {
        let g = generators::path(1);
        let mut rng = StdRng::seed_from_u64(7);
        let pairs = select_pairs(&g, PairSelection::Sampled(5), &mut rng);
        assert!(pairs.is_empty());
    }
}
