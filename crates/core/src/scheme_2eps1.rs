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
//! * a per-vertex table mapping each `v` with `B(u, q̃) ∩ B_A(v) ≠ ∅` to the
//!   intersection vertex minimizing `d(u, w) + d(w, v)` (this pins down an
//!   *exact* shortest path);
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
//!
//! Of the landmarks the scheme keeps what a label reads and the sorted set,
//! which finds `T(p_A(v))`. A route reads one label a vertex in the global
//! trees, `v`'s in `T(p_A(v))`, so the trees are built with
//! [`Labels::Drop`] — node records only — and that label is read off the
//! records ([`TreeView::label_in_graph`]) as the Thorup–Zwick ladder reads
//! its own: `v`'s entry time packed beside `[p_A(v), d(v, A)]`, and its
//! light ports one [`PackedRows`] row a vertex, which the global-tree phase
//! steps on ([`TreeView::step_ports`]).

use rand::Rng;

use routing_graph::codec::bytes_for;
use routing_graph::{Graph, PackedColumn, PackedRows, SlotCodec, VertexId, Weight};
use routing_model::{Decision, HeaderSize, RouteError, RoutingScheme};
use routing_tree::{Labels, TreeForest, TreeLabelView, TreeView};
use routing_vicinity::{BallDists, BallTable, Landmarks};

use crate::stages::{self, ClusterFamily, DistLists, Vicinities};
use crate::technique1::{Technique1Header, Technique1Router};
use crate::{BuildError, Params};

/// Label of a destination under Theorem 10: a `Copy` handle whose tree
/// label in the global tree `T(p_A(v))` is a view of the entry time and
/// light ports the scheme keeps for `v`.
#[derive(Debug, Clone, Copy)]
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
    pub global_label: TreeLabelView,
}

impl Scheme2Label {
    /// Size in `O(log n)`-bit words.
    pub fn words(&self) -> usize {
        4 + self.global_label.words()
    }
}

/// Routing phase carried in the header.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Destination is inside the source's vicinity.
    Direct,
    /// Walking to the intersection vertex `w ∈ B(u, q̃) ∩ B_A(v)`.
    ToIntersection(VertexId),
    /// Routing on the cluster tree `T_{C_A(root)}` with the destination's
    /// label in that tree (fetched from `root`'s table).
    ClusterTree {
        root: VertexId,
        label: TreeLabelView,
    },
    /// Routing on the global tree `T(p_A(v))` (label comes from `v`'s label).
    GlobalTree,
    /// Walking to the color representative before Lemma 7 takes over.
    ToRep(VertexId),
    /// Lemma 7 routing inside the destination's color class.
    Intra(Technique1Header),
}

/// Header of the Theorem 10 scheme.
#[derive(Debug, Clone, Copy)]
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
    pub(crate) vic: Vicinities,
    pub(crate) clusters: ClusterFamily,
    /// The landmark set `A`, sorted by id.
    landmarks: Vec<VertexId>,
    /// `[p_A(v), d(v, A), tin]` per vertex `v`, `tin` its entry time in
    /// `T(p_A(v))`.
    nearest: PackedColumn<3>,
    /// Row `v`: the light ports of `v`'s label in `T(p_A(v))`, root first,
    /// `[tin, port]` at the graph's width.
    global_light: PackedRows<2>,
    /// Row-major `n × q`: `d(u, w)` for `u`'s representative `w` of each
    /// color, beside the representative the vicinity stage stores, in the
    /// bytes the largest of them needs.
    rep_dist: PackedColumn<1>,
    /// Global trees `T(a)`, tree `i` that of `landmarks[i]`: node records
    /// only, their labels dropped.
    global_trees: TreeForest,
    /// Row `u` lists `[v, w]`: destination `v` -> best intersection vertex
    /// `w`, both at the id width.
    best_intersection: DistLists,
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
        stages::check(g, params)?;
        if !g.is_unweighted() {
            return Err(BuildError::BadParameter {
                what: "theorem 10 applies to unweighted graphs".into(),
            });
        }
        let n = g.n();
        let q = (n as f64).powf(1.0 / 3.0).ceil().max(1.0) as u32;
        let ell = params.scaled(q as usize, n);
        // The one build that reads the members' distances: for the
        // intersections and the representatives' distances.
        let vic = Vicinities::balls(g, ell, BallDists::Keep);
        let (landmarks, clusters, members) = stages::landmark_clusters(g, rng)?;
        let global_trees = stages::global_trees(g, landmarks.members(), |_| Labels::Drop)?;
        let (nearest, global_light) = nearest_labels(g, &landmarks, &global_trees)?;
        let landmarks = landmarks.into_members();
        let best_intersection = intersections(&vic.balls, &members)?;
        drop(members);
        // Lemma 6 coloring and Lemma 7 over the induced partition.
        let vic = vic.colour(ell, q, params, rng)?;
        let rep_dist = rep_dists(&vic)?;
        let router = Technique1Router::build(g, &vic.balls, |v| vic.color(v), params)?;

        Ok(SchemeTwoPlusEps {
            n,
            epsilon: params.epsilon,
            vic: vic.retain(),
            clusters,
            landmarks,
            nearest,
            global_light,
            rep_dist,
            global_trees,
            best_intersection,
            router,
        })
    }

    /// The number of colors / the parameter `q = ⌈n^{1/3}⌉`.
    pub fn q(&self) -> u32 {
        self.vic.q
    }

    /// Bytes of heap the vicinities hold, by capacity: the Lemma 2 ports,
    /// the colours and the colour representatives.
    pub fn vicinity_heap_bytes(&self) -> usize {
        self.vic.heap_bytes()
    }

    /// The global trees `T(a)`, one a landmark in id order: node records
    /// only, since every vertex's label in `T(p_A(v))` is kept beside its
    /// landmark record.
    pub fn global_trees(&self) -> &TreeForest {
        &self.global_trees
    }

    /// The Lemma 7 router, whose sequences every vertex stores.
    pub fn router(&self) -> &Technique1Router {
        &self.router
    }

    /// The global tree `T(a)` of landmark `a` — one binary search over the
    /// id-sorted landmark list, no hash table.
    fn global_tree(&self, a: VertexId) -> Option<TreeView<'_>> {
        self.global_trees.tree(self.landmarks.binary_search(&a).ok()?)
    }
}

/// What the label of every vertex `v` reads: `[p_A(v), d(v, A), tin]`
/// packed — the ids and the entry time at the id width, the distance in the
/// bytes the largest needs — and a row of the light ports of `v`'s label in
/// `T(p_A(v))`, its entry time and light ports read off that tree's node
/// records. `trees` holds the tree of `landmarks.members()[i]` at `i`.
///
/// # Errors
///
/// [`BuildError::Inconsistent`] if a vertex is outside the tree of its
/// nearest landmark, which a connected graph never gives, or the light
/// ports outnumber a `u32` row end.
fn nearest_labels(
    g: &Graph,
    landmarks: &Landmarks,
    trees: &TreeForest,
) -> Result<(PackedColumn<3>, PackedRows<2>), BuildError> {
    let n = g.n();
    let far = g.vertices().filter_map(|v| landmarks.dist_to_set(v)).max().unwrap_or(0);
    let id = bytes_for(n as u64);
    let mut nearest = PackedColumn::with_capacity(SlotCodec::new([id, bytes_for(far + 1), id]), n);
    let mut light = PackedRows::with_capacity(SlotCodec::for_graph(g), n, 0);
    let mut ports = Vec::new();
    for v in g.vertices() {
        let (p_a, d) = landmarks.nearest(v).zip(landmarks.dist_to_set(v)).unwrap_or((v, 0));
        let tree = landmarks.members().binary_search(&p_a).ok().and_then(|i| trees.tree(i));
        let tin = tree.and_then(|t| t.label_in_graph(g, v, &mut ports)).ok_or_else(|| {
            BuildError::Inconsistent { what: format!("{v} is outside the tree of its nearest landmark {p_a}") }
        })?;
        nearest.push([u64::from(p_a.0), d, u64::from(tin)]);
        light.push_row(ports.iter().map(|&(t, port)| [t, port.0])).map_err(|e| BuildError::Inconsistent {
            what: format!("the global labels' light ports: {e}"),
        })?;
    }
    light.shrink_to_fit();
    Ok((nearest, light))
}

/// Row-major `n × q`: `d(u, w)` for every representative `w` stored at `u`,
/// from a settle-order pass over `B(u, ℓ)` — a representative is the first
/// member of its colour there, and one that fell back to `u` itself (a
/// colour missing from the vicinity) is at distance 0 — packed in the bytes
/// the largest of them needs, which a first pass finds.
fn rep_dists(vic: &Vicinities<BallTable>) -> Result<PackedColumn<1>, BuildError> {
    let (n, q) = (vic.balls.len(), vic.q as usize);
    let each = |f: &mut dyn FnMut(usize, Weight)| -> Result<(), BuildError> {
        for u in (0..n).map(|u| VertexId(u as u32)) {
            let reps = vic.reps_at(u);
            for (v, d) in members_with_dists(&vic.balls, u)? {
                let c = vic.color(v) as usize;
                if reps.get(c) == Some([v.0]) {
                    f(u.index() * q + c, d);
                }
            }
        }
        Ok(())
    };
    let mut max = 0;
    each(&mut |_, d| max = max.max(d))?;
    let mut out = PackedColumn::zeroed(SlotCodec::new([bytes_for(max.saturating_add(1))]), n * q);
    each(&mut |i, d| out.set(i, [d]))?;
    Ok(out)
}

/// The members of `B(u, ℓ)` with their distances, read in place from the
/// table in settle order, or the error a table built without distances
/// gives.
fn members_with_dists(
    balls: &BallTable,
    u: VertexId,
) -> Result<impl Iterator<Item = (VertexId, Weight)> + '_, BuildError> {
    let ball = balls.ball(u);
    let dists = ball.dists().ok_or_else(|| BuildError::Inconsistent {
        what: "theorem 10 reads ball distances the table was built without".into(),
    })?;
    Ok(ball.ids().iter().zip(dists.iter()))
}

/// At every `u`, for every `v` with `B(u, q̃) ∩ B_A(v) ≠ ∅`, the intersection
/// vertex `w` minimizing `d(u, w) + d(w, v)`; among equal sums, the `w`
/// settled first from `u`. `clusters` lists `C(w)` with `d(w, v)` for every
/// root `w`, the members [`stages::landmark_clusters`] hands back. Row `u`
/// of the lists holds `[v, w]`, a vertex where a list keeps a distance, so
/// both at the id width.
fn intersections(balls: &BallTable, clusters: &DistLists) -> Result<DistLists, BuildError> {
    let _span = routing_obs::span("intersections");
    let n = balls.len();
    let mut lists = DistLists::empty(n, n.saturating_sub(1) as Weight)?;
    let mut triples: Vec<(VertexId, Weight, VertexId)> = Vec::new();
    for u in (0..n).map(|u| VertexId(u as u32)) {
        triples.clear();
        for (w, d_uw) in members_with_dists(balls, u)? {
            for (v, d_wv) in clusters.row(w) {
                triples.push((v, d_uw + d_wv, w));
            }
        }
        // Stable, and every `w` offers a given `v` once: among equal sums
        // the first `w` in settle order stays first, and is the one kept.
        triples.sort_by_key(|&(v, sum, _)| (v, sum));
        triples.dedup_by_key(|&mut (v, _, _)| v);
        lists.push_row(triples.iter().map(|&(v, _, w)| (v, Weight::from(w.0))))?;
    }
    lists.shrink_to_fit();
    Ok(lists)
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
        let record = self.nearest.get::<u64>(v.index()).zip(self.global_light.row(v.index()));
        let (p_a, d_pa, global_label) = match record {
            Some(([p_a, d_pa, tin], light)) => {
                let global_label = TreeLabelView { tin: tin as u32, light_len: light.len() as u32 };
                (VertexId(p_a as u32), d_pa, global_label)
            }
            None => (v, 0, TreeLabelView::ABSENT),
        };
        Scheme2Label { vertex: v, color: self.vic.color(v), p_a, d_pa, global_label }
    }

    fn init_header(&self, source: VertexId, dest: &Scheme2Label) -> Result<Scheme2Header, RouteError> {
        let v = dest.vertex;
        if source == v || self.vic.sees(source, v) {
            routing_obs::counters::ROUTING_PHASE_DIRECT.inc();
            return Ok(Scheme2Header { phase: Phase::Direct });
        }
        if let Some(w) = self.best_intersection.dist(source, v).map(|w| VertexId(w as u32)) {
            if w == source {
                let label = self.clusters.label_in_cluster(source, v)?;
                routing_obs::counters::ROUTING_PHASE_TREE.inc();
                return Ok(Scheme2Header { phase: Phase::ClusterTree { root: source, label } });
            }
            routing_obs::counters::ROUTING_PHASE_TO_PIVOT.inc();
            return Ok(Scheme2Header { phase: Phase::ToIntersection(w) });
        }
        let w = self.vic.rep(source, dest.color)?;
        let at = source.index() * self.vic.q as usize + dest.color as usize;
        if self.rep_dist.get::<u64>(at).is_some_and(|[d_w]| dest.d_pa <= d_w) {
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
                Phase::Direct => return self.vic.toward(at, v, "destination"),
                Phase::ToIntersection(w) => {
                    if at == *w {
                        let label = self.clusters.label_in_cluster(at, v)?;
                        header.phase = Phase::ClusterTree { root: at, label };
                        continue;
                    }
                    return self.vic.toward(at, *w, "intersection vertex");
                }
                Phase::ClusterTree { root, label } => return self.clusters.step(*root, at, *label),
                Phase::GlobalTree => {
                    let tree = self.global_tree(dest.p_a).ok_or_else(|| RouteError::BadLabel {
                        what: format!("{} is not a landmark", dest.p_a),
                    })?;
                    let light = self.global_light.row(v.index()).ok_or_else(|| RouteError::BadLabel {
                        what: format!("{v} is not a vertex"),
                    })?;
                    return tree.step_ports(at, dest.global_label.tin, light);
                }
                Phase::ToRep(w) => {
                    if at == *w {
                        let h = self.router.start(at, v)?;
                        header.phase = Phase::Intra(h);
                        continue;
                    }
                    return self.vic.toward(at, *w, "representative");
                }
                Phase::Intra(h) => return self.router.step(at, h, v, &self.vic.balls),
            }
        }
    }

    fn table_words(&self, u: VertexId) -> usize {
        let global: usize = self.global_trees.iter().map(|t| t.table_words(u)).sum();
        // `rep_dist` is the second `q`: a distance beside each representative.
        self.vic.words_at(u)
            + self.vic.q as usize
            + self.clusters.membership_words(u)
            + global
            + 2 * self.best_intersection.row(u).count()
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
    use routing_graph::generators::{self, WeightModel};
    use routing_tree::TreeLabel;
    use std::collections::HashMap;

    fn check_all_pairs(g: &Graph, epsilon: f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scheme = SchemeTwoPlusEps::build(g, &Params::with_epsilon(epsilon), &mut rng).unwrap();
        crate::test_support::check_all_pairs(g, &scheme, |d| (2.0 + 2.0 * epsilon) * d + 1.0);
    }

    /// `best_intersection` as the `HashMap` build filled it before the flat
    /// lists replaced it, verbatim; only the argument and return types changed.
    fn reference_intersections(
        g: &Graph,
        balls: &BallTable,
        clusters: &DistLists,
    ) -> Vec<HashMap<VertexId, VertexId>> {
        let n = g.n();
        let mut best_intersection: Vec<HashMap<VertexId, VertexId>> = vec![HashMap::new(); n];
        let mut best_sum: Vec<HashMap<VertexId, Weight>> = vec![HashMap::new(); n];
        for u in g.vertices() {
            for (w, d_uw) in balls.ball(u).members() {
                for (v, d_wv) in clusters.row(w) {
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
        best_intersection
    }

    #[test]
    fn keyed_store_equals_the_hashmap_build_it_replaced() {
        let params = Params::default();
        for (name, g) in crate::test_support::equivalence_graphs() {
            for threads in [1, 4] {
                routing_par::set_threads(threads);
                let balls = BallTable::build(&g, params.scaled(5, g.n()));
                let (_, _, clusters) =
                    stages::landmark_clusters(&g, &mut StdRng::seed_from_u64(17)).unwrap();
                let flat = intersections(&balls, &clusters).unwrap();
                let reference = reference_intersections(&g, &balls, &clusters);
                assert!(reference.iter().any(|at_u| !at_u.is_empty()));
                // A 4-byte row end a vertex, a `[v, w]` record at the id
                // width a pair, and the pad.
                let pairs: usize = reference.iter().map(HashMap::len).sum();
                let id = usize::from(bytes_for(g.n() as u64));
                assert_eq!(flat.entry_bytes(), 2 * id, "{name} x{threads}: widths");
                let bytes = 4 * g.n() + 2 * id * pairs + routing_graph::SLOT_PAD;
                assert_eq!(flat.heap_bytes(), bytes, "{name} x{threads}: bytes");
                for u in g.vertices() {
                    let at_u = &reference[u.index()];
                    assert_eq!(flat.row(u).count(), at_u.len(), "{name} x{threads}: row of {u}");
                    for v in g.vertices() {
                        let want = at_u.get(&v).copied();
                        let got = flat.dist(u, v).map(|w| VertexId(w as u32));
                        assert_eq!(got, want, "{name} x{threads}: ({u}, {v})");
                    }
                }
            }
            routing_par::set_threads(routing_par::available_threads());
        }
    }

    /// Theorem 10 is the build that reads ball distances: handed a table
    /// without them, the intersections and the representatives' distances
    /// are a `BuildError`, not a panic nor a truncated zip.
    #[test]
    fn a_table_without_distances_is_refused() {
        let params = Params::with_epsilon(0.5);
        let g = generators::Family::ErdosRenyi.generate(
            80,
            WeightModel::Unit,
            &mut StdRng::seed_from_u64(3),
        );
        let mut rng = StdRng::seed_from_u64(5);
        let ell = params.scaled(5, g.n());
        let vic = Vicinities::balls(&g, ell, BallDists::Skip);
        let (_, _, clusters) = stages::landmark_clusters(&g, &mut rng).unwrap();
        let refused = |e| matches!(e, BuildError::Inconsistent { .. });
        assert!(intersections(&vic.balls, &clusters).is_err_and(refused));
        let vic = vic.colour(ell, 5, &params, &mut rng).unwrap();
        assert!(rep_dists(&vic).is_err_and(refused));
    }

    /// The distance stored beside every representative, taken from one
    /// settle-order pass over the ball, is the exact `d(u, rep)` for every
    /// vertex and colour, on every unit-weight family around a power of two.
    #[test]
    fn rep_dist_is_the_exact_distance_to_every_representative() {
        let params = Params::with_epsilon(0.5);
        for family in generators::Family::ALL {
            for n in [63, 64, 65, 130] {
                let g = family.generate(n, WeightModel::Unit, &mut StdRng::seed_from_u64(n as u64));
                let scheme = SchemeTwoPlusEps::build(&g, &params, &mut StdRng::seed_from_u64(3));
                let scheme = scheme.unwrap();
                let exact = routing_graph::apsp::DistanceMatrix::new(&g);
                let q = scheme.q() as usize;
                assert_eq!(scheme.rep_dist.len(), g.n() * q);
                // Packed at the width of the largest, with no slack.
                let largest = (0..g.n() * q).filter_map(|i| scheme.rep_dist.get::<u64>(i)).max();
                let width = usize::from(bytes_for(largest.unwrap()[0] + 1));
                assert_eq!(scheme.rep_dist.codec().width(), width, "{} n = {n}", family.name());
                let bytes = width * g.n() * q + routing_graph::SLOT_PAD;
                assert_eq!(scheme.rep_dist.heap_bytes(), bytes, "{} n = {n}", family.name());
                for u in g.vertices() {
                    for (c, rep) in scheme.vic.reps_at(u).iter().map(VertexId).enumerate() {
                        let [stored] = scheme.rep_dist.get::<u64>(u.index() * q + c).unwrap();
                        let key = format!("{} n = {n}: colour {c} at {u}", family.name());
                        assert_eq!(Some(stored), exact.dist(u, rep), "{key}, rep {rep}");
                    }
                }
            }
        }
    }

    /// Every label's `[p_A(v), d(v, A)]` equals a fresh nearest-landmark
    /// search over the scheme's landmarks, on every equivalence graph with
    /// unit weights (Theorem 10's domain) at 1 and 2 threads; the column
    /// packs the distance in the bytes the largest needs, and the entry
    /// time beside it at the id width.
    #[test]
    fn label_records_equal_a_fresh_search_over_the_landmarks() {
        let unit = crate::test_support::equivalence_graphs().into_iter().filter(|(_, g)| g.is_unweighted());
        for (name, g) in unit {
            for threads in [1, 2] {
                routing_par::set_threads(threads);
                let scheme =
                    SchemeTwoPlusEps::build(&g, &Params::default(), &mut StdRng::seed_from_u64(7)).unwrap();
                let fresh = Landmarks::new(&g, scheme.landmarks.clone());
                for v in g.vertices() {
                    let want = (fresh.nearest(v).unwrap(), fresh.dist_to_set(v).unwrap());
                    let label = scheme.label_of(v);
                    assert_eq!((label.p_a, label.d_pa), want, "{name} x{threads}: {v}");
                }
                let far = g.vertices().filter_map(|v| fresh.dist_to_set(v)).max().unwrap();
                let id = bytes_for(g.n() as u64);
                let codec = SlotCodec::new([id, bytes_for(far + 1), id]);
                assert_eq!(scheme.nearest.codec(), codec, "{name} x{threads}: widths");
            }
        }
        routing_par::set_threads(routing_par::available_threads());
    }

    /// The global trees keep no labels, and what the scheme keeps of `v`'s
    /// label in `T(p_A(v))` — the entry time in `nearest` and the light
    /// ports of `v`'s row — is `TreeView::label(v)` of the same tree built
    /// keeping its labels, on every equivalence graph with unit weights at
    /// 1 and 2 threads; `label_of` views exactly that label.
    #[test]
    fn global_labels_equal_the_labels_a_keeping_tree_holds() {
        let unit = crate::test_support::equivalence_graphs().into_iter().filter(|(_, g)| g.is_unweighted());
        for (name, g) in unit {
            for threads in [1, 2] {
                routing_par::set_threads(threads);
                let scheme =
                    SchemeTwoPlusEps::build(&g, &Params::default(), &mut StdRng::seed_from_u64(7)).unwrap();
                let keeping = stages::global_trees(&g, &scheme.landmarks, |_| Labels::Keep).unwrap();
                assert_eq!(scheme.global_trees.len(), keeping.len(), "{name} x{threads}");
                assert!(scheme.global_trees.iter().all(|t| !t.keeps_labels()), "{name} x{threads}");
                assert_eq!(scheme.global_light.len(), g.n(), "{name} x{threads}: a row a vertex");
                for v in g.vertices() {
                    let label = scheme.label_of(v);
                    let i = scheme.landmarks.binary_search(&label.p_a).unwrap();
                    let want = keeping.tree(i).unwrap().label(v).unwrap();
                    let [.., tin] = scheme.nearest.get::<u32>(v.index()).unwrap();
                    let row = scheme.global_light.row(v.index()).unwrap();
                    let light_ports = row.records::<u32>().map(|[t, port]| (t, routing_graph::Port(port))).collect();
                    assert_eq!(TreeLabel { tin, light_ports }, want, "{name} x{threads}: {v}");
                    let view = keeping.tree(i).unwrap().label_view(v).unwrap();
                    assert_eq!(label.global_label, view, "{name} x{threads}: {v}'s view");
                }
            }
        }
        routing_par::set_threads(routing_par::available_threads());
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
        assert!(!scheme.landmarks.is_empty());
        for v in g.vertices() {
            assert!(scheme.table_words(v) > 0);
            assert!(scheme.label_words(v) >= 4);
        }
    }
}
