//! Thorup–Zwick centers (Lemma 4), landmarks, clusters and bunches.
//!
//! For a landmark set `A ⊆ V`:
//!
//! * `p_A(v)` is the landmark nearest to `v` (ties by id) and
//!   `d(v, A) = d(v, p_A(v))`;
//! * the **cluster** of `w` is `C_A(w) = { v : d(w, v) < d(v, A) }`;
//! * the **bunch** of `v` is `B_A(v) = { w : d(w, v) < d(v, A) }`, i.e.
//!   `w ∈ B_A(v) ⇔ v ∈ C_A(w)`.
//!
//! Lemma 4 (Thorup–Zwick): for any `s` one can sample `A` with expected size
//! `O(s log n)` such that every cluster has at most `4n/s` vertices.
//! [`sample_centers_bounded`] implements the iterative resampling algorithm
//! that guarantees the cluster bound deterministically (it keeps adding
//! centers until every cluster is small enough); the [`Landmarks`] it
//! returns keep its last round's nearest-landmark search.

use rand::Rng;

use routing_graph::codec::bytes_for;
use routing_graph::{Graph, PackedColumn, SearchScratch, SlotCodec, VertexId, Weight, INFINITY};

/// A landmark set `A` with what one nearest-landmark search over it finds:
/// `d(v, A)` and `[p_A(v), z]` a vertex, `z` the first vertex after
/// `p_A(v)` on the search's shortest path to `v` — Theorem 11's first
/// edge —, packed at the id width, the sentinel where there is none.
#[derive(Debug, Clone)]
pub struct Landmarks {
    members: Vec<VertexId>,
    dist: Vec<Weight>,
    nearest: PackedColumn<2>,
}

impl Landmarks {
    /// Builds the landmark structure for an explicit set `A` (duplicates are
    /// removed). Runs one multi-source Dijkstra.
    pub fn new(g: &Graph, set: Vec<VertexId>) -> Self {
        let mut members = set;
        members.sort_unstable();
        members.dedup();
        let mut search = SearchScratch::for_graph(g);
        search.multi_source_into(g, &members);
        let id = bytes_for(g.n() as u64);
        let mut nearest = PackedColumn::with_capacity(SlotCodec::new([id, id]), g.n());
        let field = |x: Option<VertexId>| x.map_or(u32::MAX, |x| x.0);
        g.vertices().for_each(|v| nearest.push([field(search.nearest(v)), field(search.first_hop(v))]));
        Landmarks { dist: search.dist_row(g.n()), members, nearest }
    }

    /// The landmark vertices, sorted by id.
    pub fn members(&self) -> &[VertexId] {
        &self.members
    }

    /// The landmark vertices, sorted by id, without the search's record.
    pub fn into_members(self) -> Vec<VertexId> {
        self.members
    }

    /// Number of landmarks.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if `A` is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// `d(v, A)`, or `None` when `A` is empty or unreachable, or `v` is no vertex.
    pub fn dist_to_set(&self, v: VertexId) -> Option<Weight> {
        self.dist.get(v.index()).copied().filter(|&d| d != INFINITY)
    }

    /// The nearest landmark `p_A(v)`, if any; none for `v` outside `0..n`.
    pub fn nearest(&self, v: VertexId) -> Option<VertexId> {
        self.field(v, 0)
    }

    /// The first vertex after `p_A(v)` on a shortest path from it to `v`;
    /// none at a landmark, an unreached vertex or `v` outside `0..n`.
    pub fn first_hop(&self, v: VertexId) -> Option<VertexId> {
        self.field(v, 1)
    }

    fn field(&self, v: VertexId, i: usize) -> Option<VertexId> {
        Some(self.nearest.get::<u32>(v.index())?[i]).filter(|&x| x != u32::MAX).map(VertexId)
    }

    /// The per-vertex bound slice `d(·, A)` a cluster search
    /// ([`SearchScratch::cluster_into`]) takes (`INFINITY` where `A` is
    /// unreachable, so clusters degenerate to full reachability when `A` is
    /// empty).
    pub fn bound_slice(&self) -> &[Weight] {
        &self.dist
    }
}

/// Samples a landmark set per Lemma 4: every cluster `C_A(w)` has at most
/// `(4n/s).ceil()` vertices, and `|A| = O(s log n)` in expectation.
///
/// The algorithm is Thorup–Zwick's `center(G, s)`: repeatedly sample each
/// still-violating vertex with probability `s / |W|`, recompute clusters, and
/// keep only the vertices whose clusters are still too large. Sampling is
/// driven by `rng`, but the returned set always satisfies the cluster bound.
pub fn sample_centers_bounded<R: Rng>(g: &Graph, s: usize, rng: &mut R) -> Landmarks {
    let _span = routing_obs::span("centers");
    let n = g.n();
    let s = s.clamp(1, n.max(1));
    let limit = (4 * n).div_ceil(s);
    let mut w: Vec<VertexId> = g.vertices().collect();
    // The latest round's landmarks. The round whose clusters all pass the
    // check is the last, so its search is returned as it stands.
    let mut last: Option<Landmarks> = None;

    while !w.is_empty() {
        let p = (s as f64 / w.len() as f64).min(1.0);
        let mut newly: Vec<VertexId> = w.iter().copied().filter(|_| rng.gen::<f64>() < p).collect();
        if newly.is_empty() {
            // Force progress: add the smallest-id violating vertex.
            newly.push(w[0]);
        }
        let mut a = last.take().map_or_else(Vec::new, Landmarks::into_members);
        a.reserve_exact(newly.len());
        a.extend(newly);
        let landmarks = last.insert(Landmarks::new(g, a));
        // The per-vertex cluster-size checks dominate the sampling loop; they
        // are independent restricted searches, so fan them out over
        // per-worker scratch workspaces (only the settled count is needed,
        // so no tree is materialized at all). Sampling itself stays on this
        // thread, keeping rng consumption (and thus the chosen set)
        // identical for every thread count.
        let too_large: Vec<bool> = routing_par::par_map_scratch(
            n,
            || SearchScratch::for_graph(g),
            |scratch, v| {
                scratch.cluster_into(g, VertexId(v as u32), landmarks.bound_slice());
                scratch.order().len() > limit
            },
        );
        w = g.vertices().filter(|v| too_large[v.index()]).collect();
        // Guard against pathological loops: |A| can never usefully exceed n.
        if landmarks.len() == n {
            break;
        }
    }
    last.unwrap_or_else(|| Landmarks::new(g, Vec::new()))
}

/// Computes the cluster `C_A(w)` of every vertex `w`, indexed by vertex id:
/// its members `(v, d(w, v))` in `(distance, id)` settle order, `w` first.
/// One restricted search per vertex, run in parallel.
///
/// The schemes build their clusters with `routing_core::ClusterFamily`;
/// this and [`bunches`] are the reference that stage is tested against and
/// a per-layer probe of the benchmark.
pub fn all_clusters(g: &Graph, landmarks: &Landmarks) -> Vec<Vec<(VertexId, Weight)>> {
    let _span = routing_obs::span("clusters");
    routing_par::par_map_scratch(
        g.n(),
        || SearchScratch::for_graph(g),
        |scratch, w| {
            scratch.cluster_into(g, VertexId(w as u32), landmarks.bound_slice());
            scratch.order().to_vec()
        },
    )
}

/// Inverts clusters into bunches: `bunches(g, clusters)[v]` lists every
/// `(w, d(w, v))` with `w ∈ B_A(v)`, sorted by distance then id, where
/// `clusters[w]` lists the members of `C_A(w)` as [`all_clusters`] does.
pub fn bunches(g: &Graph, clusters: &[Vec<(VertexId, Weight)>]) -> Vec<Vec<(VertexId, Weight)>> {
    let _span = routing_obs::span("bunches");
    let mut out: Vec<Vec<(VertexId, Weight)>> = vec![Vec::new(); g.n()];
    for (w, cluster) in clusters.iter().enumerate() {
        let w = VertexId(w as u32);
        for &(v, d) in cluster {
            // The root itself is a member of its restricted tree but
            // d(w, w) = 0 < d(w, A) only holds when w is not a landmark;
            // keep the membership test faithful to the definition.
            out[v.index()].push((w, d));
        }
    }
    for bunch in &mut out {
        bunch.sort_unstable_by_key(|&(w, d)| (d, w));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_graph::generators;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

    #[test]
    fn landmarks_nearest_and_distance() {
        let g = generators::path(10);
        let lm = Landmarks::new(&g, vec![VertexId(0), VertexId(9)]);
        assert_eq!(lm.len(), 2);
        assert!(!lm.is_empty());
        assert_eq!(lm.dist_to_set(VertexId(3)), Some(3));
        assert_eq!(lm.nearest(VertexId(3)), Some(VertexId(0)));
        assert_eq!(lm.nearest(VertexId(6)), Some(VertexId(9)));
        // Tie at vertex 4 and 5? d(4,0)=4, d(4,9)=5 -> 0; d(5,0)=5=d(5,9)=4 -> 9 is closer.
        assert_eq!(lm.nearest(VertexId(4)), Some(VertexId(0)));
    }

    #[test]
    fn empty_landmarks_have_infinite_distance() {
        let g = generators::path(4);
        let lm = Landmarks::new(&g, vec![]);
        assert!(lm.is_empty());
        assert_eq!(lm.dist_to_set(VertexId(2)), None);
        assert_eq!(lm.nearest(VertexId(2)), None);
        assert!(lm.bound_slice().iter().all(|&d| d == INFINITY));
    }

    /// The record equals the search it keeps: `p_A(v)` and `d(v, A)` those
    /// of the reference multi-source Dijkstra, and every reached
    /// non-landmark `v` a first hop `z` adjacent to `a = p_A(v)` with
    /// `w(a, z) + d(z, v) = d(a, v)`, `d(a, v)` from `dijkstra_into(a)`; a
    /// landmark or an unreached vertex has none. Unit, tie-heavy, geometric
    /// and grid graphs, two components with every landmark in the first,
    /// and the empty set; ids are packed at 1 byte a field up to 255
    /// vertices, 2 up to 65,535 and 3 on a grid of 65,600.
    #[test]
    fn the_record_equals_the_reference_search() {
        use generators::WeightModel::{Uniform, Unit};
        let mut r = rng();
        let mut halves = routing_graph::GraphBuilder::new(40);
        for i in (1..40).filter(|&i| i != 20) {
            halves.add_unit_edge(i - 1, i).unwrap();
        }
        let landmarks = |n: u32| (3..n).step_by(11).map(VertexId).collect::<Vec<_>>();
        let cases = [
            (generators::erdos_renyi(300, 0.02, Unit, &mut r), landmarks(300)),
            (generators::erdos_renyi(300, 0.02, Uniform { lo: 1, hi: 2 }, &mut r), landmarks(300)),
            (generators::random_geometric(300, 0.1, Uniform { lo: 1, hi: 8 }, &mut r), landmarks(300)),
            (generators::grid(15, 20), landmarks(300)),
            (halves.build(), landmarks(20)),
            (generators::grid(6, 6), Vec::new()),
        ];
        let mut full = SearchScratch::for_graph(&cases[0].0);
        for (g, set) in &cases {
            let lm = Landmarks::new(g, set.clone());
            let id = if g.n() <= 255 { 1 } else { 2 };
            assert_eq!(lm.nearest.codec().bytes(), [id, id], "id width at n = {}", g.n());
            let (dist, nearest) = routing_graph::reference::multi_source_alloc(g, set);
            let exact = routing_graph::apsp::DistanceMatrix::new(g);
            for v in g.vertices() {
                assert_eq!(lm.nearest(v), nearest[v.index()], "p_A({v})");
                assert_eq!(lm.dist_to_set(v), Some(dist[v.index()]).filter(|&d| d != INFINITY));
                let Some(a) = lm.nearest(v).filter(|&a| a != v) else {
                    assert_eq!(lm.first_hop(v), None, "landmark or unreached {v}");
                    continue;
                };
                let z = lm.first_hop(v).expect("a reached non-landmark has a first hop");
                let w = g.edge_weight(a, z).unwrap_or_else(|| panic!("{z} is not adjacent to {a}"));
                full.dijkstra_into(g, a);
                assert_eq!(full.dist(v), lm.dist_to_set(v), "d({a}, {v})");
                assert_eq!(exact.dist(z, v).map(|d| w + d), full.dist(v), "{a} -> {z} -> {v}");
            }
            assert_eq!(lm.first_hop(VertexId(g.n() as u32)), None, "no vertex");
        }
        let g = generators::grid(328, 200);
        let set: Vec<VertexId> = (0..g.n() as u32).step_by(97).map(VertexId).collect();
        let lm = Landmarks::new(&g, set.clone());
        assert_eq!(lm.nearest.codec().bytes(), [3, 3], "id width at n = {}", g.n());
        let (dist, nearest) = routing_graph::reference::multi_source_alloc(&g, &set);
        for v in g.vertices() {
            assert_eq!((lm.nearest(v), lm.dist_to_set(v)), (nearest[v.index()], Some(dist[v.index()])));
            assert_eq!(lm.first_hop(v).is_some(), nearest[v.index()] != Some(v), "first hop of {v}");
        }
    }

    #[test]
    fn duplicate_landmarks_are_removed() {
        let g = generators::path(4);
        let lm = Landmarks::new(&g, vec![VertexId(1), VertexId(1), VertexId(3)]);
        assert_eq!(lm.members(), &[VertexId(1), VertexId(3)]);
    }

    #[test]
    fn cluster_and_bunch_duality() {
        let mut r = rng();
        let g = generators::erdos_renyi(60, 0.08, generators::WeightModel::Unit, &mut r);
        let lm = Landmarks::new(&g, (0..8).map(|i| VertexId(7 * i + 3)).collect());
        let clusters = all_clusters(&g, &lm);
        let bunches = bunches(&g, &clusters);
        let in_cluster = |w: VertexId, v| clusters[w.index()].iter().any(|&(x, _)| x == v);
        let mut sp = SearchScratch::for_graph(&g);
        // w in B(v) iff v in C(w), and the recorded distance is d(w, v).
        for v in g.vertices() {
            for &(w, d) in &bunches[v.index()] {
                assert!(in_cluster(w, v));
                sp.dijkstra_into(&g, w);
                assert_eq!(sp.dist(v), Some(d));
            }
        }
        // Definition check: v in C(w) iff d(w,v) < d(v,A).
        for w in g.vertices() {
            sp.dijkstra_into(&g, w);
            for v in g.vertices() {
                let in_cluster = in_cluster(w, v);
                let expected = match lm.dist_to_set(v) {
                    Some(da) => sp.dist(v).map(|d| d < da).unwrap_or(false),
                    None => sp.dist(v).is_some(),
                };
                // The root is always a member of its restricted tree even
                // when the strict inequality fails for it (w == v case).
                if w == v {
                    continue;
                }
                assert_eq!(in_cluster, expected, "cluster membership of {v} in C({w})");
            }
        }
    }

    #[test]
    fn landmark_clusters_contain_only_root() {
        let g = generators::grid(5, 5);
        let lm = Landmarks::new(&g, vec![VertexId(12)]);
        let clusters = all_clusters(&g, &lm);
        // The cluster of the landmark itself contains just the root (no v has
        // d(w,v) < d(v,A) when w in A).
        assert_eq!(clusters[12].len(), 1);
    }

    #[test]
    fn sample_centers_respects_cluster_bound() {
        let mut r = rng();
        let g = generators::erdos_renyi(120, 0.05, generators::WeightModel::Unit, &mut r);
        let s = 12;
        let lm = sample_centers_bounded(&g, s, &mut r);
        let limit = (4 * g.n()).div_ceil(s);
        assert!(all_clusters(&g, &lm).iter().all(|c| c.len() <= limit));
        assert!(!lm.is_empty());
        // The set should be far from the whole vertex set.
        assert!(lm.len() < g.n() / 2, "landmark set unexpectedly large: {}", lm.len());
    }

    #[test]
    fn sample_centers_on_tiny_graph() {
        let g = generators::path(3);
        let mut r = rng();
        let lm = sample_centers_bounded(&g, 1, &mut r);
        let limit = 4 * g.n();
        assert!(all_clusters(&g, &lm).iter().all(|c| c.len() <= limit));
    }
}
