//! The Thorup–Zwick machinery: the level hierarchy `A_0 ⊇ A_1 ⊇ ... ⊇ A_{k-1}`,
//! bunches and clusters, the `(4k−5)`-stretch compact routing scheme \[21\]
//! and the `(2k−1)`-stretch distance oracle \[22\].
//!
//! These are the baselines of the paper's Table 1 (`k=2` gives the 3-stretch
//! `Õ(√n)`-space routing scheme, `k=3` the 7-stretch `Õ(n^{1/3})`-space
//! scheme) and the substrate reused by Theorem 16.
//!
//! # Construction
//!
//! For parameter `k ≥ 2` the hierarchy samples nested levels
//! `A_0 = V ⊇ A_1 ⊇ ... ⊇ A_{k-1}`, each from the previous with probability
//! `n^{-1/k}` — except `A_1`, which is chosen with **Lemma 4 of the host
//! paper** ([`routing_vicinity::sample_centers_bounded`]) so that every
//! level-0 cluster has `O(n^{1/k})` vertices deterministically; this is the
//! very observation Roditty & Tov cite for turning the generic `4k−3`
//! routing stretch into `4k−5`. Every vertex `v` then stores
//!
//! * its **pivots** `p_i(v)` — the nearest `A_i`-vertex, with ties broken
//!   towards the higher level so `v ∈ C(p_i(v))` always holds (the "tie
//!   inheritance" rule of TZ §3), and
//! * its **bunch** `B(v) = ⋃_i {w ∈ A_i \ A_{i+1} : d(v, w) < d(v, A_{i+1})}`,
//!   of expected size `O(k·n^{1/k})`,
//!
//! and every `w` a **cluster tree** `T_{C(w)}` over
//! `C(w) = {v : d(w, v) < d(v, A_{level(w)+1})}` — the inverse of the bunch
//! relation (`v ∈ C(w) ⇔ w ∈ B(v)`) — routed with the Lemma 3 tree scheme
//! (`routing-tree`).
//!
//! # Routing and querying
//!
//! The routing scheme walks the pivot ladder: try `w = p_0(v), p_1(v), ...`
//! until the current vertex's bunch certifies `u ∈ C(w)` (TZ prove the
//! ladder stops within distance `(2i+1)·d(u, v)` at level `i`), then
//! finishes on the cluster tree `T_{C(w)}` using the tree label embedded in
//! `v`'s label. A label is a `Copy` handle: its pivots and tree labels are
//! read from the one row the hierarchy keeps per vertex (`p_i(v)` with its
//! distance and the tree label as a view into `T(p_i(v))`, for every `i`),
//! and it is charged the words of the ladder it stands for. The distance
//! oracle answers from bunches and that row with the classic ping-pong
//! scan, returning `d̂(u, v) ≤ (2k−1)·d(u, v)` in `O(k)` time.
//!
//! Clusters, cluster trees and bunches are one [`routing_core::ClusterFamily`]
//! built by the stage Theorems 10 and 11 use, and the routing scheme, the
//! oracle and Theorem 16 all read it; [`TzHierarchy::bunch`] is in id order.
//! The build is two halves: [`TzLevels::sample`] draws every random choice,
//! on the caller's thread, and [`TzHierarchy::from_levels`] draws none, so
//! the hierarchy is bit-identical for every thread count and Theorem 16 can
//! build its vicinities in between.

use rand::Rng;

use routing_core::{BuildError, ClusterFamily};
use routing_graph::{Graph, VertexId, Weight, INFINITY};
use routing_model::{Decision, HeaderSize, RouteError, RoutingScheme};
use routing_tree::{TreeLabelView, TreeView};
use routing_vicinity::{sample_centers_bounded, Landmarks};

/// One rung of a vertex `v`'s pivot ladder: `(p_i(v), d(v, A_i))` and the
/// label of `v` in `T(p_i(v))`, [`TreeLabelView::ABSENT`] if it has none.
pub type Rung = ((VertexId, Weight), TreeLabelView);

/// The Thorup–Zwick level hierarchy with pivots, bunches and cluster trees.
#[derive(Debug, Clone)]
pub struct TzHierarchy {
    k: usize,
    /// `levels[i]` = the set `A_i` (sorted); `levels[0]` is all of `V`.
    levels: Vec<Vec<VertexId>>,
    /// Row-major `n × k`: entry `v·k + i` is rung `i` of `v`'s ladder, so a
    /// query reads one contiguous row. Rung 0 is `((v, 0), label in T(v))`.
    ladder: Vec<Rung>,
    /// The highest level that contains each vertex.
    level_of: Vec<usize>,
    /// `C(w)` of every `w` with respect to `w`'s level, and every `B(v)`.
    clusters: ClusterFamily,
}

/// The sampled levels `A_1 ⊇ ... ⊇ A_{k-1}` of a [`TzHierarchy`], with their
/// nearest-member data: the one part of the hierarchy's build that draws
/// from the RNG.
#[derive(Debug, Clone)]
pub struct TzLevels {
    /// `upper[i - 1]` is `A_i`.
    upper: Vec<Landmarks>,
}

impl TzLevels {
    /// Samples the levels for parameter `k ≥ 2`: `A_1` with Lemma 4, so that
    /// the clusters of level-0 vertices have `O(n^{1/k})` vertices (this is
    /// what turns the generic `4k−3` stretch into `4k−5`); every higher level
    /// by keeping each vertex of the one below with probability `n^{-1/k}`.
    /// Every level below `k` is forced to stay non-empty. Span `levels`.
    ///
    /// # Errors
    ///
    /// As [`TzHierarchy::build`].
    pub fn sample<R: Rng>(g: &Graph, k: usize, rng: &mut R) -> Result<Self, BuildError> {
        TzHierarchy::check(g, k)?;
        let _span = routing_obs::span("levels");
        let n = g.n();
        let p = (n as f64).powf(-1.0 / k as f64);
        let s1 = ((n as f64).powf(1.0 - 1.0 / k as f64).ceil() as usize).clamp(1, n);
        let mut upper = vec![sample_centers_bounded(g, s1, rng)];
        while upper.len() < k - 1 {
            let prev = upper[upper.len() - 1].members();
            let mut next: Vec<VertexId> = prev.iter().copied().filter(|_| rng.gen::<f64>() < p).collect();
            if next.is_empty() {
                next.push(prev[0]);
            }
            upper.push(Landmarks::new(g, next));
        }
        Ok(TzLevels { upper })
    }

    /// The sorted level `A_i`, for `i` in `1..k`; empty otherwise.
    pub(crate) fn level(&self, i: usize) -> &[VertexId] {
        i.checked_sub(1).and_then(|j| self.upper.get(j)).map_or(&[], Landmarks::members)
    }
}

impl TzHierarchy {
    /// Builds the hierarchy for parameter `k ≥ 2`: [`TzLevels::sample`],
    /// then [`TzHierarchy::from_levels`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::BadParameter`] if `k < 2`,
    /// [`BuildError::TooSmall`] on an empty graph and
    /// [`BuildError::Disconnected`] on a disconnected one.
    pub fn build<R: Rng>(g: &Graph, k: usize, rng: &mut R) -> Result<Self, BuildError> {
        Self::from_levels(g, TzLevels::sample(g, k, rng)?)
    }

    /// Finishes the hierarchy over levels sampled for `g`: pivots, the
    /// cluster family and the ladder rows. Draws nothing, so a caller may
    /// run other builds between sampling the levels and finishing them.
    ///
    /// # Errors
    ///
    /// [`BuildError::TooSmall`] if a cluster tree cannot be laid out, which
    /// a well-formed search never produces.
    pub fn from_levels(g: &Graph, levels: TzLevels) -> Result<Self, BuildError> {
        let n = g.n();
        let upper = levels.upper;
        let k = upper.len() + 1;
        let mut levels = vec![g.vertices().collect::<Vec<_>>()];
        levels.extend(upper.iter().map(|a| a.members().to_vec()));
        let mut level_of = vec![0usize; n];
        for (i, level) in levels.iter().enumerate() {
            for &v in level {
                level_of[v.index()] = i;
            }
        }

        let span_pivots = routing_obs::span("pivots");
        let mut pivots = vec![g.vertices().map(|v| (v, 0)).collect::<Vec<_>>()];
        pivots.extend(upper.iter().map(|a| {
            g.vertices()
                .map(|v| (a.nearest(v).unwrap_or(v), a.dist_to_set(v).unwrap_or(INFINITY)))
                .collect()
        }));
        // Tie inheritance (Thorup–Zwick): when d(v, A_i) = d(v, A_{i+1}) use
        // the higher-level pivot, so that v is guaranteed to lie in the
        // cluster of each of its pivots.
        for i in (1..k - 1).rev() {
            for v in 0..n {
                if pivots[i][v].1 == pivots[i + 1][v].1 {
                    pivots[i][v] = pivots[i + 1][v];
                }
            }
        }
        drop(span_pivots);

        // The cluster of a level-`i` root is bounded by `d(·, A_{i+1})`; the
        // top level's is unbounded.
        let unbounded = vec![INFINITY; n];
        let (clusters, _) = ClusterFamily::build(g, |w| {
            upper.get(level_of[w.index()]).map_or(&unbounded[..], Landmarks::bound_slice)
        })?;

        // One row per vertex: its pivots beside its labels in their trees.
        let mut ladder = Vec::with_capacity(n * k);
        for v in g.vertices() {
            ladder.extend(pivots.iter().map(|level| {
                let (p, d) = level[v.index()];
                ((p, d), clusters.label_in(p, v).unwrap_or(TreeLabelView::ABSENT))
            }));
        }
        Ok(TzHierarchy { k, levels, ladder, level_of, clusters })
    }

    /// What [`TzHierarchy::build`] refuses before any work:
    /// [`BuildError::BadParameter`] if `k < 2`, [`BuildError::TooSmall`] on
    /// an empty graph and [`BuildError::Disconnected`] on a disconnected one.
    pub(crate) fn check(g: &Graph, k: usize) -> Result<(), BuildError> {
        if k < 2 {
            return Err(BuildError::BadParameter {
                what: format!("thorup-zwick hierarchy needs k >= 2, got {k}"),
            });
        }
        if g.n() == 0 {
            return Err(BuildError::TooSmall {
                what: "thorup-zwick hierarchy needs at least one vertex".into(),
            });
        }
        if !g.is_connected() {
            return Err(BuildError::Disconnected);
        }
        Ok(())
    }

    /// The parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.level_of.len()
    }

    /// The level sets `A_0, ..., A_{k-1}`.
    pub fn levels(&self) -> &[Vec<VertexId>] {
        &self.levels
    }

    /// The highest level containing `v`.
    pub fn level_of(&self, v: VertexId) -> usize {
        self.level_of[v.index()]
    }

    /// `(p_i(v), d(v, A_i))`.
    pub fn pivot(&self, i: usize, v: VertexId) -> (VertexId, Weight) {
        self.ladder[v.index() * self.k + i].0
    }

    /// The bunch `B(v)` with distances, in ascending id order.
    pub fn bunch(&self, v: VertexId) -> &[(VertexId, Weight)] {
        self.clusters.bunch(v)
    }

    /// The cluster tree `T(w)`, or `None` when `w` is not a vertex.
    pub fn cluster_tree(&self, w: VertexId) -> Option<TreeView<'_>> {
        self.clusters.tree(w)
    }

    /// The cluster family: every `T(w)` and `B(v)`, and the arms reading them.
    pub fn clusters(&self) -> &ClusterFamily {
        &self.clusters
    }

    /// The largest bunch size (a `Õ(k·n^{1/k})` quantity).
    pub fn max_bunch_size(&self) -> usize {
        (0..self.n()).map(|v| self.bunch(VertexId(v as u32)).len()).max().unwrap_or(0)
    }

    /// The pivot ladder of `v`, one contiguous row: for `i = 0..k`,
    /// `(p_i(v), d(v, A_i))` and the label of `v` in `T(p_i(v))`, as a view
    /// into that tree. Tie inheritance puts `v` in every pivot's cluster; a
    /// label that is missing anyway is [`TreeLabelView::ABSENT`]. Empty for
    /// a `v` outside `0..n`.
    pub fn ladder(&self, v: VertexId) -> &[Rung] {
        self.ladder.get(v.index() * self.k..(v.index() + 1) * self.k).unwrap_or(&[])
    }

    /// Words the routing table of `v` holds: its bunch with distances, the
    /// tree-routing information of every cluster containing it, the labels
    /// of its own cluster's members, and its `k` pivots with distances.
    pub fn table_words(&self, v: VertexId) -> usize {
        2 * self.bunch(v).len() + self.clusters.membership_words(v) + 2 * self.k
    }

    /// Bytes of heap the hierarchy holds, by capacity: the level sets, the
    /// ladder rows, the level of every vertex and the cluster family.
    pub fn heap_bytes(&self) -> usize {
        let level_ids: usize = self.levels.iter().map(Vec::capacity).sum();
        std::mem::size_of::<Vec<VertexId>>() * self.levels.capacity()
            + std::mem::size_of::<VertexId>() * level_ids
            + std::mem::size_of::<Rung>() * self.ladder.capacity()
            + std::mem::size_of::<usize>() * self.level_of.capacity()
            + self.clusters.heap_bytes()
    }
}

/// The Thorup–Zwick `(2k−1)`-stretch distance oracle \[22\].
#[derive(Debug, Clone)]
pub struct TzOracle {
    hierarchy: TzHierarchy,
}

impl TzOracle {
    /// Builds the oracle on top of an existing hierarchy.
    pub fn new(hierarchy: TzHierarchy) -> Self {
        TzOracle { hierarchy }
    }

    /// Builds the hierarchy and the oracle in one step.
    ///
    /// # Errors
    ///
    /// As [`TzHierarchy::build`].
    pub fn build<R: Rng>(g: &Graph, k: usize, rng: &mut R) -> Result<Self, BuildError> {
        Ok(Self::new(TzHierarchy::build(g, k, rng)?))
    }

    /// The underlying hierarchy.
    pub fn hierarchy(&self) -> &TzHierarchy {
        &self.hierarchy
    }

    /// Returns a `(2k−1)`-stretch estimate of `d(u, v)`.
    pub fn query(&self, u: VertexId, v: VertexId) -> Weight {
        if u == v {
            return 0;
        }
        let clusters = &self.hierarchy.clusters;
        let (mut u, mut v) = (u, v);
        let mut w = u;
        let mut i = 0usize;
        loop {
            if let Some(dwv) = clusters.bunch_dist(v, w) {
                let dwu = clusters.bunch_dist(u, w).unwrap_or_else(|| {
                    // w is p_i(u), so d(u, w) is the pivot distance.
                    self.hierarchy.pivot(i, u).1
                });
                return dwu + dwv;
            }
            i += 1;
            std::mem::swap(&mut u, &mut v);
            w = self.hierarchy.pivot(i, u).0;
        }
    }

    /// Per-vertex oracle storage in `O(log n)`-bit words (bunch entries plus
    /// pivots).
    pub fn words_at(&self, v: VertexId) -> usize {
        2 * self.hierarchy.bunch(v).len() + 2 * self.hierarchy.k()
    }
}

/// Label of a destination `v` in the `(4k−5)` routing scheme: a handle on
/// `v` that stands for `v`, its pivots `p_i(v)` and its labels in
/// `T(p_i(v))` for `i = 0..k`, which the scheme reads from the hierarchy
/// ([`TzHierarchy::ladder`]). [`RoutingScheme::label_words`] charges all
/// of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TzLabel {
    /// The destination vertex.
    pub vertex: VertexId,
}

/// Header of the `(4k−5)` routing scheme: the chosen cluster-tree root and
/// the destination's label in that tree.
#[derive(Debug, Clone, Copy)]
pub struct TzHeader {
    root: VertexId,
    label: TreeLabelView,
}

impl HeaderSize for TzHeader {
    fn words(&self) -> usize {
        1 + self.label.words()
    }
}

/// The Thorup–Zwick `(4k−5)`-stretch compact routing scheme \[21\].
#[derive(Debug, Clone)]
pub struct TzRoutingScheme {
    /// Cached scheme name: the registry key `tz<k>` (`tz2`, `tz3`, ...).
    name: String,
    hierarchy: TzHierarchy,
}

impl TzRoutingScheme {
    /// Builds the scheme on top of an existing hierarchy.
    pub fn new(hierarchy: TzHierarchy) -> Self {
        TzRoutingScheme { name: format!("tz{}", hierarchy.k()), hierarchy }
    }

    /// Builds the hierarchy and the scheme in one step.
    ///
    /// # Errors
    ///
    /// As [`TzHierarchy::build`].
    pub fn build<R: Rng>(g: &Graph, k: usize, rng: &mut R) -> Result<Self, BuildError> {
        Ok(Self::new(TzHierarchy::build(g, k, rng)?))
    }

    /// The underlying hierarchy.
    pub fn hierarchy(&self) -> &TzHierarchy {
        &self.hierarchy
    }

    /// The stretch guarantee `4k − 5`.
    pub fn stretch_bound(&self) -> usize {
        4 * self.hierarchy.k() - 5
    }
}

impl RoutingScheme for TzRoutingScheme {
    type Label = TzLabel;
    type Header = TzHeader;

    fn name(&self) -> &str {
        &self.name
    }

    fn n(&self) -> usize {
        self.hierarchy.n()
    }

    fn label_of(&self, v: VertexId) -> TzLabel {
        TzLabel { vertex: v }
    }

    fn init_header(&self, source: VertexId, dest: &TzLabel) -> Result<TzHeader, RouteError> {
        let v = dest.vertex;
        if v.index() >= self.hierarchy.n() {
            return Err(RouteError::BadLabel { what: format!("{v} is not a vertex") });
        }
        if source == v {
            routing_obs::counters::ROUTING_PHASE_DIRECT.inc();
            return Ok(TzHeader { root: v, label: TreeLabelView { tin: 0, light_len: 0 } });
        }
        // 4k-5 improvement: if v is in the source's own cluster, route on the
        // source's cluster tree with the label stored at the source.
        let clusters = self.hierarchy.clusters();
        if let Some(label) = clusters.label_in(source, v) {
            routing_obs::counters::ROUTING_PHASE_TREE.inc();
            return Ok(TzHeader { root: source, label });
        }
        for &((w, _), label) in self.hierarchy.ladder(v) {
            if w == source || clusters.bunch_dist(source, w).is_some() {
                if label == TreeLabelView::ABSENT {
                    return Err(RouteError::BadLabel {
                        what: format!("{v} has no label in the cluster tree of pivot {w}"),
                    });
                }
                routing_obs::counters::ROUTING_PHASE_TREE.inc();
                return Ok(TzHeader { root: w, label });
            }
        }
        Err(RouteError::MissingInformation {
            at: source,
            what: format!("no pivot of {v} intersects the bunch of {source}"),
        })
    }

    fn decide(
        &self,
        at: VertexId,
        header: &mut TzHeader,
        dest: &TzLabel,
    ) -> Result<Decision, RouteError> {
        if at == dest.vertex {
            return Ok(Decision::Deliver);
        }
        self.hierarchy.clusters().step(header.root, at, header.label)
    }

    fn table_words(&self, v: VertexId) -> usize {
        self.hierarchy.table_words(v)
    }

    /// `v`, its `k` pivots and its `k` tree labels.
    fn label_words(&self, v: VertexId) -> usize {
        1 + self.hierarchy.ladder(v).iter().map(|(_, label)| 1 + label.words()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_graph::apsp::DistanceMatrix;
    use routing_graph::generators::{self, WeightModel};
    use routing_model::simulate;

    fn weighted_graph(n: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::erdos_renyi(n, 0.07, WeightModel::Uniform { lo: 1, hi: 10 }, &mut rng)
    }

    #[test]
    fn hierarchy_levels_are_nested_and_nonempty() {
        let g = weighted_graph(80, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let h = TzHierarchy::build(&g, 3, &mut rng).unwrap();
        assert_eq!(h.k(), 3);
        assert_eq!(h.levels().len(), 3);
        assert_eq!(h.levels()[0].len(), 80);
        for i in 1..3 {
            assert!(!h.levels()[i].is_empty());
            let prev: HashSet<_> = h.levels()[i - 1].iter().collect();
            assert!(h.levels()[i].iter().all(|v| prev.contains(v)), "levels must be nested");
        }
        assert!(h.max_bunch_size() >= 1);
        // Pivot at level 0 is the vertex itself.
        for v in g.vertices() {
            assert_eq!(h.pivot(0, v), (v, 0));
            assert!(h.level_of(v) < 3);
        }
    }

    /// The per-level reading the ladder rows replaced: `(p_i(v), d(v, A_i))`
    /// from a landmark search over each level `A_i`, under tie inheritance,
    /// and `v`'s label looked up in `T(p_i(v))`.
    fn per_level_ladder(g: &Graph, h: &TzHierarchy, v: VertexId) -> Vec<Rung> {
        let k = h.k();
        let mut pivots = vec![(v, 0)];
        for level in &h.levels()[1..] {
            let a = Landmarks::new(g, level.clone());
            pivots.push((a.nearest(v).unwrap_or(v), a.dist_to_set(v).unwrap_or(INFINITY)));
        }
        for i in (1..k - 1).rev() {
            if pivots[i].1 == pivots[i + 1].1 {
                pivots[i] = pivots[i + 1];
            }
        }
        pivots
            .into_iter()
            .map(|(p, d)| ((p, d), h.clusters().label_in(p, v).unwrap_or(TreeLabelView::ABSENT)))
            .collect()
    }

    /// Each vertex's ladder row, and `pivot(i, v)`, equal the per-level
    /// reading: ER, geometric and grid graphs, unit and weighted, around a
    /// power of two, for `k ∈ {2, 3}`.
    #[test]
    fn ladder_rows_equal_the_per_level_reading() {
        use generators::Family;
        for n in [63, 64, 65, 130] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            for family in [Family::ErdosRenyi, Family::Geometric, Family::Grid] {
                for weights in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 9 }] {
                    let g = family.generate(n, weights, &mut rng);
                    for k in [2, 3] {
                        let h = TzHierarchy::build(&g, k, &mut rng).unwrap();
                        for v in g.vertices() {
                            let reference = per_level_ladder(&g, &h, v);
                            assert_eq!(h.ladder(v), reference, "{family:?} n = {n} k = {k}: {v}");
                            for (i, &(pivot, _)) in reference.iter().enumerate() {
                                assert_eq!(h.pivot(i, v), pivot);
                            }
                        }
                        assert!(h.ladder(VertexId(g.n() as u32)).is_empty());
                        assert_eq!(h.ladder.capacity(), g.n() * k, "no growth slack");
                        // 24 B a rung and a level's header, 4 an id, 8 a level-of entry.
                        let ids: usize = h.levels().iter().map(Vec::len).sum();
                        let fixed = 24 * h.levels.capacity() + 4 * ids + 24 * g.n() * k + 8 * g.n();
                        assert_eq!(h.heap_bytes(), fixed + h.clusters().heap_bytes());
                    }
                }
            }
        }
    }

    #[test]
    fn bunch_and_cluster_are_dual() {
        let g = weighted_graph(60, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let h = TzHierarchy::build(&g, 2, &mut rng).unwrap();
        for v in g.vertices() {
            for &(w, d) in h.bunch(v) {
                assert!(h.cluster_tree(w).unwrap().contains(v));
                let spt = routing_graph::shortest_path::dijkstra(&g, w);
                assert_eq!(spt.dist(v), Some(d));
            }
        }
    }

    #[test]
    fn oracle_respects_2k_minus_1_stretch() {
        let g = weighted_graph(70, 5);
        let exact = DistanceMatrix::new(&g);
        for k in [2usize, 3] {
            let mut rng = StdRng::seed_from_u64(6 + k as u64);
            let oracle = TzOracle::build(&g, k, &mut rng).unwrap();
            for u in g.vertices() {
                for v in g.vertices() {
                    let est = oracle.query(u, v);
                    let d = exact.dist(u, v).unwrap();
                    assert!(est >= d, "oracle must never underestimate");
                    assert!(
                        est <= (2 * k as u64 - 1) * d,
                        "oracle stretch violated for k={k}: {est} vs {d}"
                    );
                }
                assert_eq!(oracle.query(u, u), 0);
                assert!(oracle.words_at(u) > 0);
            }
        }
    }

    #[test]
    fn routing_respects_4k_minus_5_stretch() {
        let g = weighted_graph(70, 7);
        let exact = DistanceMatrix::new(&g);
        for k in [2usize, 3] {
            let mut rng = StdRng::seed_from_u64(8 + k as u64);
            let scheme = TzRoutingScheme::build(&g, k, &mut rng).unwrap();
            assert_eq!(scheme.stretch_bound(), 4 * k - 5);
            for u in g.vertices() {
                for v in g.vertices() {
                    if u == v {
                        continue;
                    }
                    let out = simulate(&g, &scheme, u, v).unwrap();
                    let d = exact.dist(u, v).unwrap();
                    assert!(
                        out.weight <= (4 * k as u64 - 5) * d,
                        "tz routing stretch violated for k={k} {u}->{v}: {} vs {d}",
                        out.weight
                    );
                }
            }
        }
    }

    #[test]
    fn routing_tables_shrink_with_larger_k() {
        let g = weighted_graph(100, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let s2 = TzRoutingScheme::build(&g, 2, &mut rng).unwrap();
        let s3 = TzRoutingScheme::build(&g, 3, &mut rng).unwrap();
        let max2: usize = g.vertices().map(|v| s2.table_words(v)).max().unwrap();
        let max3: usize = g.vertices().map(|v| s3.table_words(v)).max().unwrap();
        // k=3 trades stretch for noticeably smaller tables on average; allow
        // slack on the max because the top level always spans V.
        let mean2: f64 = g.vertices().map(|v| s2.table_words(v)).sum::<usize>() as f64 / 100.0;
        let mean3: f64 = g.vertices().map(|v| s3.table_words(v)).sum::<usize>() as f64 / 100.0;
        assert!(mean3 < mean2 * 1.5, "mean table size should not grow much: {mean3} vs {mean2}");
        assert!(max2 > 0 && max3 > 0);
        assert_eq!(s2.name(), "tz2");
        assert_eq!(s3.name(), "tz3");
        for v in g.vertices().take(5) {
            assert!(s2.label_words(v) >= 3);
        }
    }

    #[test]
    fn self_route_and_metadata() {
        let g = generators::grid(5, 5);
        let mut rng = StdRng::seed_from_u64(11);
        let scheme = TzRoutingScheme::build(&g, 2, &mut rng).unwrap();
        let out = simulate(&g, &scheme, VertexId(3), VertexId(3)).unwrap();
        assert_eq!(out.hops, 0);
        assert_eq!(RoutingScheme::n(&scheme), 25);
        assert_eq!(scheme.hierarchy().n(), 25);
    }
}
