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
//! `v`'s label. The distance oracle answers from bunches alone with the
//! classic ping-pong scan, returning `d̂(u, v) ≤ (2k−1)·d(u, v)` in `O(k)`
//! time.
//!
//! Preprocessing fans its `n` restricted cluster searches (the dominant
//! cost) out over [`routing_par::threads`] worker threads; sampling stays on
//! the caller's thread, so the built hierarchy is bit-identical for every
//! thread count.

use rand::Rng;

use routing_core::{BuildContext, BuildError, SchemeBuilder};
use routing_graph::shortest_path::multi_source_dijkstra;
use routing_graph::{Graph, SearchScratch, VertexId, Weight, INFINITY};
use routing_model::{Decision, HeaderSize, RouteError, RoutingScheme};
use routing_tree::{TreeLabel, TreeScheme};
use routing_vicinity::sample_centers_bounded;

/// The Thorup–Zwick level hierarchy with pivots, bunches and cluster trees.
#[derive(Debug, Clone)]
pub struct TzHierarchy {
    k: usize,
    n: usize,
    /// `levels[i]` = the set `A_i` (sorted); `levels[0]` is all of `V`.
    levels: Vec<Vec<VertexId>>,
    /// `pivots[i][v]` = `(p_i(v), d(v, A_i))`; `pivots[0][v] = (v, 0)`.
    pivots: Vec<Vec<(VertexId, Weight)>>,
    /// The highest level that contains each vertex.
    level_of: Vec<usize>,
    /// `bunches[v]` = `B(v)` with distances, sorted by `(distance, id)`.
    bunches: Vec<Vec<(VertexId, Weight)>>,
    /// The cluster tree `T(w)` of every vertex `w` (rooted at `w`, spanning
    /// `C(w)` with respect to `w`'s level), indexed by vertex id.
    cluster_trees: Vec<TreeScheme>,
}

impl TzHierarchy {
    /// Builds the hierarchy for parameter `k ≥ 2`.
    ///
    /// `A_1` is chosen with Lemma 4 so that the clusters of level-0 vertices
    /// have `O(n^{1/k})` vertices (this is what turns the generic `4k−3`
    /// stretch into `4k−5`); the higher levels are obtained by sampling each
    /// vertex of the previous level with probability `n^{-1/k}`. Every level
    /// below `k` is forced to stay non-empty.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::BadParameter`] if `k < 2` and
    /// [`BuildError::TooSmall`] on an empty graph.
    pub fn build<R: Rng>(g: &Graph, k: usize, rng: &mut R) -> Result<Self, BuildError> {
        if k < 2 {
            return Err(BuildError::BadParameter {
                what: format!("thorup-zwick hierarchy needs k >= 2, got {k}"),
            });
        }
        let n = g.n();
        if n == 0 {
            return Err(BuildError::TooSmall {
                what: "thorup-zwick hierarchy needs at least one vertex".into(),
            });
        }
        let p = (n as f64).powf(-1.0 / k as f64);

        // Levels.
        let span_levels = routing_obs::span("levels");
        let mut levels: Vec<Vec<VertexId>> = Vec::with_capacity(k);
        levels.push(g.vertices().collect());
        let s1 = ((n as f64).powf(1.0 - 1.0 / k as f64).ceil() as usize).clamp(1, n);
        let a1 = sample_centers_bounded(g, s1, rng).members().to_vec();
        levels.push(if a1.is_empty() { vec![VertexId(0)] } else { a1 });
        for _ in 2..k {
            let prev = levels.last().expect("levels is non-empty");
            let mut next: Vec<VertexId> = prev.iter().copied().filter(|_| rng.gen::<f64>() < p).collect();
            if next.is_empty() {
                next.push(prev[0]);
            }
            levels.push(next);
        }

        let mut level_of = vec![0usize; n];
        for (i, level) in levels.iter().enumerate() {
            for &v in level {
                level_of[v.index()] = level_of[v.index()].max(i);
            }
        }
        drop(span_levels);

        // Pivots per level.
        let span_pivots = routing_obs::span("pivots");
        let mut pivots: Vec<Vec<(VertexId, Weight)>> = Vec::with_capacity(k);
        pivots.push(g.vertices().map(|v| (v, 0)).collect());
        for level in levels.iter().skip(1) {
            let ms = multi_source_dijkstra(g, level);
            pivots.push(
                g.vertices()
                    .map(|v| (ms.nearest(v).unwrap_or(v), ms.dist(v).unwrap_or(INFINITY)))
                    .collect(),
            );
        }
        // Tie inheritance (Thorup–Zwick): when d(v, A_i) = d(v, A_{i+1}) use
        // the higher-level pivot, so that v is guaranteed to lie in the
        // cluster of each of its pivots.
        for i in (1..k.saturating_sub(1)).rev() {
            for v in 0..n {
                if pivots[i][v].1 == pivots[i + 1][v].1 {
                    pivots[i][v] = pivots[i + 1][v];
                }
            }
        }

        // Clusters (and their trees) with respect to each vertex's level, and
        // the bunches obtained by inverting them. One restricted search plus
        // one heavy-path decomposition per vertex — the dominant cost of the
        // build — fanned out in parallel; the bunch inversion below merges in
        // ascending `w` order, so the hierarchy is thread-count independent.
        drop(span_pivots);
        let _span_ct = routing_obs::span("cluster-trees");
        // `bounds[lvl][v] = d(v, A_{lvl+1})`: the cluster bound of a level-`lvl`
        // root, one row per level (the top level is unbounded).
        let bounds: Vec<Vec<Weight>> = (0..k)
            .map(|lvl| match pivots.get(lvl + 1) {
                Some(next) => next.iter().map(|&(_, d)| d).collect(),
                None => vec![INFINITY; n],
            })
            .collect();
        let per_w: Vec<(Vec<(VertexId, Weight)>, TreeScheme)> = routing_par::par_map_scratch(
            n,
            || SearchScratch::for_graph(g),
            |scratch, w| {
                let w = VertexId(w as u32);
                scratch.cluster_into(g, w, &bounds[level_of[w.index()]]);
                let tree = TreeScheme::from_scratch(g, scratch)
                    .expect("restricted tree of a connected component is valid");
                (scratch.order().to_vec(), tree)
            },
        );
        let mut cluster_trees = Vec::with_capacity(n);
        let mut bunches: Vec<Vec<(VertexId, Weight)>> = vec![Vec::new(); n];
        for (w, (members, tree)) in per_w.into_iter().enumerate() {
            let w = VertexId(w as u32);
            for (v, d) in members {
                bunches[v.index()].push((w, d));
            }
            cluster_trees.push(tree);
        }
        for bunch in &mut bunches {
            bunch.sort_unstable_by_key(|&(w, d)| (d, w));
        }

        Ok(TzHierarchy { k, n, levels, pivots, level_of, bunches, cluster_trees })
    }

    /// The parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
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
        self.pivots[i][v.index()]
    }

    /// The bunch `B(v)` with distances.
    pub fn bunch(&self, v: VertexId) -> &[(VertexId, Weight)] {
        &self.bunches[v.index()]
    }

    /// The cluster tree `T(w)`.
    pub fn cluster_tree(&self, w: VertexId) -> &TreeScheme {
        &self.cluster_trees[w.index()]
    }

    /// All bunches as raw per-vertex lists, for flattening into a
    /// [`FlatBunches`] table (shared with the Theorem 16 scheme).
    pub(crate) fn bunches_raw(&self) -> &[Vec<(VertexId, Weight)>] {
        &self.bunches
    }

    /// The largest bunch size (a `Õ(k·n^{1/k})` quantity).
    pub fn max_bunch_size(&self) -> usize {
        self.bunches.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// All bunches `B(v)` flattened into one id-sorted CSR table.
///
/// The query path of the oracle and the routing scheme is a **membership
/// probe** — "is `w ∈ B(v)`, and at what distance?" — which used to go
/// through one `HashMap`/`HashSet` per vertex. Here every bunch is a
/// contiguous id-sorted slice of `(w, d(v, w))` pairs inside two flat
/// arrays, so the probe is a binary search over adjacent memory: no hashing,
/// no per-vertex allocations, and the whole structure is two `Vec`s
/// regardless of `n`.
#[derive(Debug, Clone)]
pub(crate) struct FlatBunches {
    /// `offsets[v]..offsets[v+1]` indexes `entries` for vertex `v`.
    offsets: Vec<u32>,
    /// Bunch entries `(w, d(v, w))`, sorted by `w` within each vertex.
    entries: Vec<(VertexId, Weight)>,
}

impl FlatBunches {
    /// Flattens per-vertex bunch lists (any order) into the CSR form.
    pub(crate) fn new(bunches: &[Vec<(VertexId, Weight)>]) -> Self {
        let total = bunches.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(bunches.len() + 1);
        let mut entries = Vec::with_capacity(total);
        offsets.push(0u32);
        for bunch in bunches {
            let start = entries.len();
            entries.extend_from_slice(bunch);
            entries[start..].sort_unstable_by_key(|&(w, _)| w);
            offsets.push(entries.len() as u32);
        }
        FlatBunches { offsets, entries }
    }

    /// `d(v, w)` if `w ∈ B(v)`.
    #[inline]
    pub(crate) fn get(&self, v: VertexId, w: VertexId) -> Option<Weight> {
        let slice =
            &self.entries[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize];
        slice
            .binary_search_by_key(&w, |&(x, _)| x)
            .ok()
            .map(|i| slice[i].1)
    }

    /// True if `w ∈ B(v)`.
    #[inline]
    pub(crate) fn contains(&self, v: VertexId, w: VertexId) -> bool {
        self.get(v, w).is_some()
    }
}

/// The Thorup–Zwick `(2k−1)`-stretch distance oracle \[22\].
#[derive(Debug, Clone)]
pub struct TzOracle {
    hierarchy: TzHierarchy,
    /// Bunch distances as one flat id-sorted CSR table (see [`FlatBunches`]).
    bunch_dist: FlatBunches,
}

impl TzOracle {
    /// Builds the oracle on top of an existing hierarchy.
    pub fn new(hierarchy: TzHierarchy) -> Self {
        let bunch_dist = FlatBunches::new(&hierarchy.bunches);
        TzOracle { hierarchy, bunch_dist }
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
        let (mut u, mut v) = (u, v);
        let mut w = u;
        let mut i = 0usize;
        loop {
            if let Some(dwv) = self.bunch_dist.get(v, w) {
                let dwu = self.bunch_dist.get(u, w).unwrap_or_else(|| {
                    // w is p_i(u), so d(u, w) is the pivot distance.
                    self.hierarchy.pivots[i][u.index()].1
                });
                return dwu + dwv;
            }
            i += 1;
            std::mem::swap(&mut u, &mut v);
            w = self.hierarchy.pivots[i][u.index()].0;
        }
    }

    /// Per-vertex oracle storage in `O(log n)`-bit words (bunch entries plus
    /// pivots).
    pub fn words_at(&self, v: VertexId) -> usize {
        2 * self.hierarchy.bunch(v).len() + 2 * self.hierarchy.k()
    }
}

/// Label of a destination in the `(4k−5)` routing scheme.
#[derive(Debug, Clone)]
pub struct TzLabel {
    /// The destination vertex.
    pub vertex: VertexId,
    /// `p_i(v)` for `i = 0..k`.
    pub pivots: Vec<VertexId>,
    /// The label of `v` in `T(p_i(v))`, aligned with `pivots`.
    pub tree_labels: Vec<TreeLabel>,
}

impl TzLabel {
    /// Size in `O(log n)`-bit words.
    pub fn words(&self) -> usize {
        1 + self.pivots.len() + self.tree_labels.iter().map(TreeLabel::words).sum::<usize>()
    }
}

/// Header of the `(4k−5)` routing scheme: the chosen cluster-tree root and
/// the destination's label in that tree.
#[derive(Debug, Clone)]
pub struct TzHeader {
    root: VertexId,
    label: TreeLabel,
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
    /// Bunch membership for routing decisions at the source, as one flat
    /// id-sorted CSR table probed by binary search (see [`FlatBunches`]).
    bunch_set: FlatBunches,
}

impl TzRoutingScheme {
    /// Builds the scheme on top of an existing hierarchy.
    pub fn new(hierarchy: TzHierarchy) -> Self {
        let _span = routing_obs::span("bunches");
        let bunch_set = FlatBunches::new(&hierarchy.bunches);
        TzRoutingScheme { name: format!("tz{}", hierarchy.k()), hierarchy, bunch_set }
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
        let k = self.hierarchy.k();
        let mut pivots = Vec::with_capacity(k);
        let mut tree_labels = Vec::with_capacity(k);
        for i in 0..k {
            let (p, _) = self.hierarchy.pivot(i, v);
            pivots.push(p);
            tree_labels.push(
                self.hierarchy
                    .cluster_tree(p)
                    .label(v)
                    .unwrap_or(TreeLabel { tin: u32::MAX, light_ports: Vec::new() }),
            );
        }
        TzLabel { vertex: v, pivots, tree_labels }
    }

    fn init_header(&self, source: VertexId, dest: &TzLabel) -> Result<TzHeader, RouteError> {
        let v = dest.vertex;
        if source == v {
            routing_obs::counters::ROUTING_PHASE_DIRECT.inc();
            return Ok(TzHeader { root: v, label: TreeLabel { tin: 0, light_ports: Vec::new() } });
        }
        // 4k-5 improvement: if v is in the source's own cluster, route on the
        // source's cluster tree with the label stored at the source.
        if let Some(label) = self.hierarchy.cluster_tree(source).label(v) {
            routing_obs::counters::ROUTING_PHASE_TREE.inc();
            return Ok(TzHeader { root: source, label });
        }
        for i in 0..self.hierarchy.k() {
            let w = dest.pivots[i];
            if w == source || self.bunch_set.contains(source, w) {
                let label = dest.tree_labels[i].clone();
                if label.tin == u32::MAX {
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
        self.hierarchy.cluster_tree(header.root).step(at, &header.label)
    }

    fn table_words(&self, v: VertexId) -> usize {
        let bunch = self.hierarchy.bunch(v);
        let membership: usize = bunch
            .iter()
            .map(|&(w, _)| self.hierarchy.cluster_tree(w).table_words(v))
            .sum();
        let own_labels = self.hierarchy.cluster_tree(v).labels_words();
        2 * bunch.len() + membership + own_labels + 2 * self.hierarchy.k()
    }

    fn label_words(&self, v: VertexId) -> usize {
        self.label_of(v).words()
    }

    fn label_with_words(&self, v: VertexId) -> (Self::Label, usize) {
        let label = self.label_of(v);
        let words = label.words();
        (label, words)
    }
}

/// [`SchemeBuilder`] for the Thorup–Zwick `(4k−5)` routing scheme; its
/// registry key is `tz<k>` (the two Table 1 rows are `tz2` and `tz3`).
#[derive(Debug, Clone)]
pub struct TzBuilder {
    k: usize,
    key: String,
}

impl TzBuilder {
    /// A builder for the given level count `k ≥ 2`.
    pub fn new(k: usize) -> Self {
        TzBuilder { k, key: format!("tz{k}") }
    }
}

impl SchemeBuilder for TzBuilder {
    fn key(&self) -> &str {
        &self.key
    }

    fn build(&self, g: &Graph, ctx: &BuildContext) -> Result<Box<dyn routing_model::DynScheme>, BuildError> {
        Ok(Box::new(TzRoutingScheme::build(g, self.k, &mut ctx.rng())?))
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

    #[test]
    fn bunch_and_cluster_are_dual() {
        let g = weighted_graph(60, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let h = TzHierarchy::build(&g, 2, &mut rng).unwrap();
        for v in g.vertices() {
            for &(w, d) in h.bunch(v) {
                assert!(h.cluster_tree(w).contains(v));
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
