//! Theorem 10: a `(2+ε, 1)`-stretch labeled routing scheme for unweighted
//! graphs with `Õ((1/ε)·n^{2/3})`-word routing tables.
//!
//! Ingredients (all with `q = ⌈n^{1/3}⌉`):
//!
//! * vicinities `B(u, q̃)` (Lemma 2);
//! * a landmark set `A` of size `Õ(n^{2/3})` with clusters of size
//!   `O(n^{1/3})` (Lemma 4), the cluster trees `T_{C_A(w)}`, and a global
//!   shortest-path tree `T(a)` for every landmark `a ∈ A`, whose Lemma 3
//!   routing information every vertex stores;
//! * a per-vertex hash table mapping each `v` with
//!   `B(u, q̃) ∩ B_A(v) ≠ ∅` to the intersection vertex minimizing
//!   `d(u, w) + d(w, v)` (this pins down an *exact* shortest path);
//! * a Lemma 6 coloring inducing a partition `U` over which Lemma 7 routes
//!   with stretch `(1+ε)`.
//!
//! Routing from `u` to `v`: if the vicinity/bunch intersection is non-empty
//! the message travels an exact shortest path through the intersection
//! vertex and its cluster tree. Otherwise `u` compares `d(v, p_A(v))` (from
//! `v`'s label) with the distance to its stored color representative `w` of
//! color `c(v)`: the smaller of "route on the global tree `T(p_A(v))`" and
//! "walk to `w`, then Lemma 7 to `v`" gives a path of length at most
//! `(2+2ε)·d(u, v) + 1`.

use std::collections::HashMap;

use rand::Rng;

use routing_graph::{Graph, SearchScratch, VertexId, Weight};
use routing_model::{Decision, HeaderSize, RouteError, RoutingScheme};
use routing_tree::{TreeLabel, TreeScheme};
use routing_vicinity::{all_clusters, bunches, sample_centers_bounded, BallTable, Coloring, Landmarks};

use crate::scheme_3eps::build_color_reps;
use crate::technique1::{Technique1Header, Technique1Router};
use crate::{BuildError, Params};

/// Label of a destination under Theorem 10.
#[derive(Debug, Clone)]
pub struct Scheme2Label {
    /// The destination vertex `v`.
    pub vertex: VertexId,
    /// Its color `c(v)`.
    pub color: u32,
    /// Its nearest landmark `p_A(v)` (equals `v` when `v ∈ A`).
    pub p_a: VertexId,
    /// The distance `d(v, p_A(v))`.
    pub d_pa: Weight,
    /// The Lemma 3 label of `v` in the global tree `T(p_A(v))`.
    pub global_label: TreeLabel,
}

impl Scheme2Label {
    /// Size in `O(log n)`-bit words.
    pub fn words(&self) -> usize {
        4 + self.global_label.words()
    }
}

/// Routing phase carried in the header.
#[derive(Debug, Clone)]
enum Phase {
    /// Destination is inside the source's vicinity.
    Direct,
    /// Walking to the intersection vertex `w ∈ B(u, q̃) ∩ B_A(v)`.
    ToIntersection(VertexId),
    /// Routing on the cluster tree `T_{C_A(root)}` with the destination's
    /// label in that tree (fetched from `root`'s table).
    ClusterTree {
        root: VertexId,
        label: TreeLabel,
    },
    /// Routing on the global tree `T(p_A(v))` (label comes from `v`'s label).
    GlobalTree,
    /// Walking to the color representative before Lemma 7 takes over.
    ToRep(VertexId),
    /// Lemma 7 routing inside the destination's color class.
    Intra(Technique1Header),
}

/// Header of the Theorem 10 scheme.
#[derive(Debug, Clone)]
pub struct Scheme2Header {
    phase: Phase,
}

impl HeaderSize for Scheme2Header {
    fn words(&self) -> usize {
        match &self.phase {
            Phase::Direct | Phase::GlobalTree => 1,
            Phase::ToIntersection(_) | Phase::ToRep(_) => 2,
            Phase::ClusterTree { label, .. } => 2 + label.words(),
            Phase::Intra(h) => 1 + h.words(),
        }
    }
}

/// The Theorem 10 `(2+ε, 1)`-stretch routing scheme.
#[derive(Debug, Clone)]
pub struct SchemeTwoPlusEps {
    n: usize,
    epsilon: f64,
    q: u32,
    balls: BallTable,
    landmarks: Landmarks,
    /// Cluster tree of every vertex (indexed by vertex id).
    cluster_trees: Vec<TreeScheme>,
    /// Bunch of every vertex: `B_A(v)` with distances.
    bunch_of: Vec<Vec<(VertexId, Weight)>>,
    /// Global trees `T(a)`, parallel to the id-sorted `landmarks.members()`.
    global_trees: Vec<TreeScheme>,
    /// At `u`: destination `v` -> best intersection vertex `w`.
    // lint:allow(det-hash-iter): keyed lookup at query time; len() is the only whole-map read
    best_intersection: Vec<HashMap<VertexId, VertexId>>,
    color_of: Vec<u32>,
    /// At `u`, per color: `(representative, d(u, representative))`.
    color_rep: Vec<Vec<(VertexId, Weight)>>,
    router: Technique1Router,
}

impl SchemeTwoPlusEps {
    /// The stretch slack `ε` this scheme was built with.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Preprocesses the scheme for an unweighted connected graph `g`.
    ///
    /// # Errors
    ///
    /// Fails for disconnected graphs, invalid parameters, weighted graphs
    /// (the `(2+ε,1)` guarantee is for unweighted graphs), or when the
    /// Lemma 6 coloring cannot be built.
    pub fn build<R: Rng>(g: &Graph, params: &Params, rng: &mut R) -> Result<Self, BuildError> {
        params.validate().map_err(|what| BuildError::BadParameter { what })?;
        if !g.is_connected() {
            return Err(BuildError::Disconnected);
        }
        if !g.is_unweighted() {
            return Err(BuildError::BadParameter {
                what: "theorem 10 applies to unweighted graphs".into(),
            });
        }
        let n = g.n();
        let q = (n as f64).powf(1.0 / 3.0).ceil().max(1.0) as u32;
        let ell = params.scaled(q as usize, n);
        let balls = BallTable::build(g, ell);

        // Lemma 4 landmarks with clusters of size O(n^{1/3}).
        let s = ((params.landmark_scale * (n as f64).powf(2.0 / 3.0)).ceil() as usize).clamp(1, n);
        let landmarks = sample_centers_bounded(g, s, rng);
        let clusters = all_clusters(g, &landmarks);
        let bunch_of = bunches(g, &clusters);
        let span_ct = routing_obs::span("cluster-trees");
        let cluster_trees: Vec<TreeScheme> = routing_par::par_map(&clusters, |tree| {
            TreeScheme::from_restricted(g, tree)
                .map_err(|e| BuildError::TooSmall { what: e.to_string() })
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
        drop(span_ct);

        // Global trees for every landmark (one full Dijkstra each, fanned
        // out in parallel over per-worker search workspaces).
        let span_gt = routing_obs::span("global-trees");
        let global_trees: Vec<TreeScheme> = routing_par::par_map_scratch(
            landmarks.len(),
            || SearchScratch::for_graph(g),
            |scratch, i| {
                scratch.dijkstra_into(g, landmarks.members()[i]);
                TreeScheme::from_scratch(g, scratch)
                    .map_err(|e| BuildError::TooSmall { what: e.to_string() })
            },
        )
        .into_iter()
        .collect::<Result<_, _>>()?;
        drop(span_gt);

        // Best intersection vertex per (u, v) with B(u, q̃) ∩ B_A(v) != ∅.
        let span_ix = routing_obs::span("intersections");
        // lint:allow(det-hash-iter): per-destination best is keyed; ties broken by explicit comparison below, not visit order
        let mut best_intersection: Vec<HashMap<VertexId, VertexId>> = vec![HashMap::new(); n];
        // lint:allow(det-hash-iter): keyed min-tracking companion of best_intersection; never iterated
        let mut best_sum: Vec<HashMap<VertexId, Weight>> = vec![HashMap::new(); n];
        for u in g.vertices() {
            for &(w, d_uw) in balls.ball(u).members() {
                for &(v, d_wv) in clusters[w.index()].members() {
                    let sum = d_uw + d_wv;
                    let better = match best_sum[u.index()].get(&v) {
                        Some(&old) => sum < old,
                        None => true,
                    };
                    if better {
                        best_sum[u.index()].insert(v, sum);
                        best_intersection[u.index()].insert(v, w);
                    }
                }
            }
        }

        drop(span_ix);

        // Lemma 6 coloring and Lemma 7 over the induced partition.
        let span_coloring = routing_obs::span("coloring");
        let ball_sets: Vec<Vec<VertexId>> = g
            .vertices()
            .map(|u| balls.ball(u).members().iter().map(|&(v, _)| v).collect())
            .collect();
        let coloring = Coloring::build_for_sets(n, q, &ball_sets, params.coloring_retries, rng)?;
        let color_of: Vec<u32> = g.vertices().map(|v| coloring.color(v)).collect();
        drop(span_coloring);
        let span_reps = routing_obs::span("color-reps");
        let reps = build_color_reps(g, &balls, &color_of, q);
        let color_rep: Vec<Vec<(VertexId, Weight)>> = g
            .vertices()
            .map(|u| {
                reps[u.index()]
                    .iter()
                    .map(|&w| (w, balls.dist(u, w).unwrap_or(0)))
                    .collect()
            })
            .collect();
        drop(span_reps);
        let router = Technique1Router::build(g, &balls, color_of.clone(), params, rng)?;

        Ok(SchemeTwoPlusEps {
            n,
            epsilon: params.epsilon,
            q,
            balls,
            landmarks,
            cluster_trees,
            bunch_of,
            global_trees,
            best_intersection,
            color_of,
            color_rep,
            router,
        })
    }

    /// The number of colors / the parameter `q = ⌈n^{1/3}⌉`.
    pub fn q(&self) -> u32 {
        self.q
    }

    /// The landmark set `A`.
    pub fn landmarks(&self) -> &Landmarks {
        &self.landmarks
    }

    /// The global tree `T(a)` of landmark `a` — one binary search over the
    /// id-sorted landmark list, no hash table.
    fn global_tree(&self, a: VertexId) -> Option<&TreeScheme> {
        self.landmarks.members().binary_search(&a).ok().map(|i| &self.global_trees[i])
    }
}

impl RoutingScheme for SchemeTwoPlusEps {
    type Label = Scheme2Label;
    type Header = Scheme2Header;

    fn name(&self) -> &str {
        "thm10"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn label_of(&self, v: VertexId) -> Scheme2Label {
        let p_a = self.landmarks.nearest(v).unwrap_or(v);
        let d_pa = self.landmarks.dist_to_set(v).unwrap_or(0);
        let global_label = self
            .global_tree(p_a)
            .and_then(|t| t.label(v))
            .unwrap_or(TreeLabel { tin: u32::MAX, light_ports: Vec::new() });
        Scheme2Label { vertex: v, color: self.color_of[v.index()], p_a, d_pa, global_label }
    }

    fn init_header(&self, source: VertexId, dest: &Scheme2Label) -> Result<Scheme2Header, RouteError> {
        let v = dest.vertex;
        if source == v || self.balls.contains(source, v) {
            routing_obs::counters::ROUTING_PHASE_DIRECT.inc();
            return Ok(Scheme2Header { phase: Phase::Direct });
        }
        if let Some(&w) = self.best_intersection[source.index()].get(&v) {
            if w == source {
                let label = self.cluster_trees[source.index()].label(v).ok_or_else(|| {
                    RouteError::MissingInformation {
                        at: source,
                        what: format!("{v} missing from own cluster tree"),
                    }
                })?;
                routing_obs::counters::ROUTING_PHASE_TREE.inc();
                return Ok(Scheme2Header { phase: Phase::ClusterTree { root: source, label } });
            }
            routing_obs::counters::ROUTING_PHASE_TO_PIVOT.inc();
            return Ok(Scheme2Header { phase: Phase::ToIntersection(w) });
        }
        let (w, d_uw) = self.color_rep[source.index()][dest.color as usize];
        if dest.d_pa <= d_uw {
            routing_obs::counters::ROUTING_PHASE_TREE.inc();
            return Ok(Scheme2Header { phase: Phase::GlobalTree });
        }
        if w == source {
            let h = self.router.start(source, v)?;
            routing_obs::counters::ROUTING_PHASE_TREE.inc();
            return Ok(Scheme2Header { phase: Phase::Intra(h) });
        }
        routing_obs::counters::ROUTING_PHASE_TO_PIVOT.inc();
        Ok(Scheme2Header { phase: Phase::ToRep(w) })
    }

    fn decide(
        &self,
        at: VertexId,
        header: &mut Scheme2Header,
        dest: &Scheme2Label,
    ) -> Result<Decision, RouteError> {
        let v = dest.vertex;
        if at == v {
            return Ok(Decision::Deliver);
        }
        loop {
            match &mut header.phase {
                Phase::Direct => {
                    return self
                        .balls
                        .first_port(at, v)
                        .map(Decision::Forward)
                        .ok_or_else(|| RouteError::MissingInformation {
                            at,
                            what: format!("{v} left the vicinity during direct routing"),
                        })
                }
                Phase::ToIntersection(w) => {
                    if at == *w {
                        let label = self.cluster_trees[at.index()].label(v).ok_or_else(
                            || RouteError::MissingInformation {
                                at,
                                what: format!("{v} is not in the cluster of {at}"),
                            },
                        )?;
                        header.phase = Phase::ClusterTree { root: at, label };
                        continue;
                    }
                    let w = *w;
                    return self
                        .balls
                        .first_port(at, w)
                        .map(Decision::Forward)
                        .ok_or_else(|| RouteError::MissingInformation {
                            at,
                            what: format!("intersection vertex {w} left the vicinity"),
                        });
                }
                Phase::ClusterTree { root, label } => {
                    return self.cluster_trees[root.index()].step(at, label);
                }
                Phase::GlobalTree => {
                    let tree = self.global_tree(dest.p_a).ok_or_else(|| RouteError::BadLabel {
                        what: format!("{} is not a landmark", dest.p_a),
                    })?;
                    return tree.step(at, &dest.global_label);
                }
                Phase::ToRep(w) => {
                    if at == *w {
                        let h = self.router.start(at, v)?;
                        header.phase = Phase::Intra(h);
                        continue;
                    }
                    let w = *w;
                    return self
                        .balls
                        .first_port(at, w)
                        .map(Decision::Forward)
                        .ok_or_else(|| RouteError::MissingInformation {
                            at,
                            what: format!("representative {w} left the vicinity"),
                        });
                }
                Phase::Intra(h) => return self.router.step(at, h, v, &self.balls),
            }
        }
    }

    fn table_words(&self, u: VertexId) -> usize {
        let cluster_membership: usize = self.bunch_of[u.index()]
            .iter()
            .map(|&(w, _)| self.cluster_trees[w.index()].table_words(u))
            .sum();
        let own_cluster_labels = self.cluster_trees[u.index()].labels_words();
        let global: usize = self.global_trees.iter().map(|t| t.table_words(u)).sum();
        self.balls.words_at(u)
            + cluster_membership
            + own_cluster_labels
            + global
            + 2 * self.best_intersection[u.index()].len()
            + 2 * self.q as usize
            + self.router.table_words(u)
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_graph::apsp::DistanceMatrix;
    use routing_graph::generators::{self, WeightModel};
    use routing_model::simulate;

    fn check_all_pairs(g: &Graph, epsilon: f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = Params::with_epsilon(epsilon);
        let scheme = SchemeTwoPlusEps::build(g, &params, &mut rng).unwrap();
        let exact = DistanceMatrix::new(g);
        for u in g.vertices() {
            for v in g.vertices() {
                if u == v {
                    continue;
                }
                let out = simulate(g, &scheme, u, v).unwrap();
                let d = exact.dist(u, v).unwrap();
                let bound = (2.0 + 2.0 * epsilon) * d as f64 + 1.0 + 1e-9;
                assert!(
                    (out.weight as f64) <= bound,
                    "theorem 10 bound violated for {u}->{v}: routed {} vs d={d}",
                    out.weight
                );
            }
        }
    }

    #[test]
    fn thm10_bound_on_sparse_random_graph() {
        let mut rng = StdRng::seed_from_u64(41);
        let g = generators::erdos_renyi(90, 0.05, WeightModel::Unit, &mut rng);
        check_all_pairs(&g, 0.5, 1);
    }

    #[test]
    fn thm10_bound_on_grid() {
        let g = generators::grid(8, 8);
        check_all_pairs(&g, 0.5, 2);
    }

    #[test]
    fn thm10_bound_on_scale_free_graph() {
        let mut rng = StdRng::seed_from_u64(43);
        let g = generators::barabasi_albert(80, 3, WeightModel::Unit, &mut rng);
        check_all_pairs(&g, 1.0, 3);
    }

    #[test]
    fn thm10_rejects_weighted_graphs() {
        let mut rng = StdRng::seed_from_u64(44);
        let g =
            generators::erdos_renyi(30, 0.2, WeightModel::Uniform { lo: 1, hi: 5 }, &mut rng);
        let err = SchemeTwoPlusEps::build(&g, &Params::default(), &mut rng).unwrap_err();
        assert!(matches!(err, BuildError::BadParameter { .. }));
    }

    #[test]
    fn thm10_metadata_and_sizes() {
        let mut rng = StdRng::seed_from_u64(45);
        let g = generators::erdos_renyi(60, 0.08, WeightModel::Unit, &mut rng);
        let scheme = SchemeTwoPlusEps::build(&g, &Params::default(), &mut rng).unwrap();
        assert!(scheme.name().contains("thm10"));
        assert_eq!(RoutingScheme::n(&scheme), 60);
        assert!(scheme.q() >= 4);
        assert!(!scheme.landmarks().is_empty());
        for v in g.vertices() {
            assert!(scheme.table_words(v) > 0);
            assert!(scheme.label_words(v) >= 4);
        }
    }
}
