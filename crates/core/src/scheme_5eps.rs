//! Theorem 11: a `(5+ε)`-stretch labeled routing scheme for weighted graphs
//! with `Õ((1/ε)·n^{1/3}·log D)`-word routing tables — the paper's headline
//! result, breaking the `√n` space barrier for stretch below 7.
//!
//! Ingredients (all with `q = ⌈n^{1/3}⌉`):
//!
//! * vicinities `B(u, q̃)` (Lemma 2);
//! * a landmark set `A` of size `Õ(n^{2/3})` with clusters of size
//!   `O(n^{1/3})` (Lemma 4) and the cluster trees `T_{C_A(w)}`: every vertex
//!   `w` stores the tree labels of its own cluster members and the tree
//!   routing information of the clusters containing it;
//! * a Lemma 6 coloring inducing the source partition `U`, an arbitrary
//!   balanced partition `W` of `A`, and the Lemma 8 router between them;
//! * per color, one representative inside each vicinity.
//!
//! Routing from `u` to `v`: vicinity and cluster hits are exact. Otherwise
//! the message walks (exactly) to the representative `w` of color
//! `α(p_A(v))`, uses Lemma 8 to reach `p_A(v)` with stretch `(1+ε)`, steps
//! over the first edge `(p_A(v), z)` of a shortest path to `v` (stored in
//! `v`'s label) and finishes on the cluster tree of `z`, which contains `v`.
//! The total is at most `(5+3ε)·d(u, v)`.
//!
//! Any shortest path's first edge will do, so the build reads it off the
//! nearest-landmark search Lemma 4's sampler ran last, the one that gave
//! `p_A(v)`: `d(z, v) = d(v, A) − w(p_A(v), z) < d(v, A)` puts `v` in
//! `C_A(z)`, and the tree path from `z` is a shortest one, so the last two
//! legs weigh `d(p_A(v), v)` whichever path the search took. Of that search
//! the scheme keeps one packed record a vertex, what a label reads:
//! `[p_A(v), z, port at p_A(v)]`.

use rand::Rng;

use routing_graph::{Graph, PackedColumn, Port, SlotCodec, VertexId};
use routing_model::{Decision, HeaderSize, RouteError, RoutingScheme};
use routing_tree::TreeLabelView;
use routing_vicinity::BallDists;

use crate::stages::{self, ClusterFamily, Vicinities};
use crate::technique2::{Technique2Header, Technique2Router};
use crate::{BuildError, Params};

/// Label of a destination under Theorem 11.
#[derive(Debug, Clone, Copy)]
pub struct Scheme5Label {
    /// The destination vertex `v`.
    pub vertex: VertexId,
    /// Its nearest landmark `p_A(v)`.
    pub p_a: VertexId,
    /// The index `α(p_A(v))` of the destination set of `W` containing the
    /// landmark.
    pub alpha: u32,
    /// The second endpoint `z` of the first edge on a shortest path from
    /// `p_A(v)` to `v` — any one, as the nearest-landmark search found it —
    /// together with the port of that edge at `p_A(v)`. `None` when `v` is
    /// itself a landmark.
    pub first_edge: Option<(VertexId, Port)>,
}

impl Scheme5Label {
    /// Size in `O(log n)`-bit words.
    pub fn words(&self) -> usize {
        3 + if self.first_edge.is_some() { 2 } else { 0 }
    }
}

/// Routing phase carried in the header.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Destination inside the source's vicinity.
    Direct,
    /// Destination inside the source's cluster; route on that cluster tree.
    ClusterTree {
        root: VertexId,
        label: TreeLabelView,
    },
    /// Walking to the color representative of `α(p_A(v))`.
    ToRep(VertexId),
    /// Lemma 8 routing from the representative to `p_A(v)`.
    ToLandmark(Technique2Header),
    /// The message is at `p_A(v)` and is about to cross the stored first
    /// edge towards `z`.
    CrossFirstEdge,
}

/// Header of the Theorem 11 scheme.
#[derive(Debug, Clone, Copy)]
pub struct Scheme5Header {
    phase: Phase,
}

impl HeaderSize for Scheme5Header {
    fn words(&self) -> usize {
        match &self.phase {
            Phase::Direct | Phase::CrossFirstEdge => 1,
            Phase::ToRep(_) => 2,
            Phase::ClusterTree { label, .. } => 2 + label.words(),
            Phase::ToLandmark(h) => 1 + h.words(),
        }
    }
}

/// The Theorem 11 `(5+ε)`-stretch routing scheme.
#[derive(Debug, Clone)]
pub struct SchemeFivePlusEps {
    n: usize,
    epsilon: f64,
    pub(crate) vic: Vicinities,
    pub(crate) clusters: ClusterFamily,
    router: Technique2Router,
    /// `[p_A(v), z, port at p_A(v)]` per vertex `v`: its nearest landmark
    /// and the first edge `(p_A(v), z)` towards it, ids at the graph's id
    /// width and the port at its port width; `z` and the port are the
    /// sentinel where `v` is a landmark.
    labels: PackedColumn<3>,
}

impl SchemeFivePlusEps {
    /// The stretch slack `ε` this scheme was built with.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Preprocesses the scheme for a connected weighted graph `g`.
    ///
    /// # Errors
    ///
    /// Fails for disconnected graphs, invalid parameters, or when the Lemma 6
    /// coloring cannot be built.
    pub fn build<R: Rng>(g: &Graph, params: &Params, rng: &mut R) -> Result<Self, BuildError> {
        stages::check(g, params)?;
        let n = g.n();
        let q = (n as f64).powf(1.0 / 3.0).ceil().max(1.0) as u32;
        let ell = params.scaled(q as usize, n);
        let vic = Vicinities::balls(g, ell, BallDists::Skip);
        let (landmarks, clusters, _) = stages::landmark_clusters(g, rng)?;

        // First edge (p_A(v), z): v's first hop out of its nearest landmark
        // in the search that found the landmark (any shortest path will do;
        // see the module doc).
        let span_fe = routing_obs::span("first-edge");
        let [id, port] = SlotCodec::for_graph(g).bytes();
        let mut labels = PackedColumn::with_capacity(SlotCodec::new([id, id, port]), n);
        for v in g.vertices() {
            let a = landmarks.nearest(v).unwrap_or(v);
            let mut record = [a.0, u32::MAX, u32::MAX];
            if let Some(z) = landmarks.first_hop(v) {
                let port = g.port_to(a, z).ok_or_else(|| BuildError::Inconsistent {
                    what: format!("first hop {z} from landmark {a} is not a neighbour"),
                })?;
                record = [a.0, z.0, port.0];
            }
            labels.push(record);
        }
        drop(span_fe);

        // Arbitrary balanced partition W of the landmark set A, the last
        // reader of the landmarks.
        let mut dest_partition: Vec<Vec<VertexId>> = vec![Vec::new(); q as usize];
        for (i, a) in landmarks.into_members().into_iter().enumerate() {
            dest_partition[i % q as usize].push(a);
        }

        // Lemma 6 coloring for the source partition U. Lemma 8 reads the
        // ports and the representatives, so the member ids go here.
        let vic = vic.colour(ell, q, params, rng)?.retain();
        let router = Technique2Router::build(g, &vic, &dest_partition, params)?;
        Ok(SchemeFivePlusEps { n, epsilon: params.epsilon, vic, clusters, router, labels })
    }

    /// The parameter `q = ⌈n^{1/3}⌉`.
    pub fn q(&self) -> u32 {
        self.vic.q
    }

    /// Bytes of heap the vicinities hold, by capacity: the Lemma 2 ports,
    /// the colours and the colour representatives.
    pub fn vicinity_heap_bytes(&self) -> usize {
        self.vic.heap_bytes()
    }

    /// The Lemma 8 router, whose sequences every vertex stores.
    pub fn router(&self) -> &Technique2Router {
        &self.router
    }

    /// The color (source-partition set) of vertex `v`.
    pub fn color(&self, v: VertexId) -> u32 {
        self.vic.color(v)
    }
}

impl RoutingScheme for SchemeFivePlusEps {
    type Label = Scheme5Label;
    type Header = Scheme5Header;

    fn name(&self) -> &str {
        "thm11"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn label_of(&self, v: VertexId) -> Scheme5Label {
        let [p_a, z, port] = self.labels.get::<u32>(v.index()).unwrap_or([v.0, u32::MAX, u32::MAX]);
        let p_a = VertexId(p_a);
        let alpha = self.router.dest_set_of(p_a).unwrap_or(0);
        let first_edge = (z != u32::MAX).then_some((VertexId(z), Port(port)));
        Scheme5Label { vertex: v, p_a, alpha, first_edge }
    }

    fn init_header(&self, source: VertexId, dest: &Scheme5Label) -> Result<Scheme5Header, RouteError> {
        let v = dest.vertex;
        if source == v || self.vic.sees(source, v) {
            routing_obs::counters::ROUTING_PHASE_DIRECT.inc();
            return Ok(Scheme5Header { phase: Phase::Direct });
        }
        // v in C_A(source): the label of v in the source's cluster tree is
        // stored at the source.
        if let Some(label) = self.clusters.label_in(source, v) {
            routing_obs::counters::ROUTING_PHASE_TREE.inc();
            return Ok(Scheme5Header { phase: Phase::ClusterTree { root: source, label } });
        }
        let w = self.vic.rep(source, dest.alpha)?;
        if w == source {
            let h = self.router.start(source, dest.p_a)?;
            routing_obs::counters::ROUTING_PHASE_TO_PIVOT.inc();
            return Ok(Scheme5Header { phase: Phase::ToLandmark(h) });
        }
        routing_obs::counters::ROUTING_PHASE_TO_PIVOT.inc();
        Ok(Scheme5Header { phase: Phase::ToRep(w) })
    }

    fn decide(
        &self,
        at: VertexId,
        header: &mut Scheme5Header,
        dest: &Scheme5Label,
    ) -> Result<Decision, RouteError> {
        let v = dest.vertex;
        if at == v {
            return Ok(Decision::Deliver);
        }
        loop {
            match &mut header.phase {
                Phase::Direct => return self.vic.toward(at, v, "destination"),
                Phase::ClusterTree { root, label } => return self.clusters.step(*root, at, *label),
                Phase::ToRep(w) => {
                    if at == *w {
                        let h = self.router.start(at, dest.p_a)?;
                        header.phase = Phase::ToLandmark(h);
                        continue;
                    }
                    return self.vic.toward(at, *w, "representative");
                }
                Phase::ToLandmark(h) => {
                    if at == dest.p_a {
                        header.phase = Phase::CrossFirstEdge;
                        continue;
                    }
                    return self.router.step(at, h, dest.p_a, &self.vic.balls);
                }
                Phase::CrossFirstEdge => {
                    // We are at p_A(v) (or just arrived at z after crossing).
                    if at == dest.p_a {
                        let (_, port) = dest.first_edge.ok_or_else(|| RouteError::BadLabel {
                            what: format!("label of {v} lacks the first edge at its landmark"),
                        })?;
                        return Ok(Decision::Forward(port));
                    }
                    // At z now: v is in C_A(z); finish on z's cluster tree.
                    let label = self.clusters.label_in_cluster(at, v)?;
                    header.phase = Phase::ClusterTree { root: at, label };
                    continue;
                }
            }
        }
    }

    fn table_words(&self, u: VertexId) -> usize {
        self.vic.words_at(u) + self.clusters.membership_words(u) + self.router.table_words(u)
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

    fn check_all_pairs(g: &Graph, epsilon: f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scheme = SchemeFivePlusEps::build(g, &Params::with_epsilon(epsilon), &mut rng).unwrap();
        crate::test_support::check_all_pairs(g, &scheme, |d| (5.0 + 3.0 * epsilon) * d);
    }

    #[test]
    fn thm11_bound_on_weighted_random_graph() {
        let mut rng = StdRng::seed_from_u64(51);
        let g = generators::erdos_renyi(80, 0.06, WeightModel::Uniform { lo: 1, hi: 16 }, &mut rng);
        check_all_pairs(&g, 0.5, 1);
    }

    #[test]
    fn thm11_bound_on_unweighted_graph() {
        let mut rng = StdRng::seed_from_u64(52);
        let g = generators::erdos_renyi(80, 0.06, WeightModel::Unit, &mut rng);
        check_all_pairs(&g, 0.25, 2);
    }

    #[test]
    fn thm11_bound_on_weighted_geometric_graph() {
        let mut rng = StdRng::seed_from_u64(53);
        let g =
            generators::random_geometric(70, 0.2, WeightModel::Uniform { lo: 1, hi: 8 }, &mut rng);
        check_all_pairs(&g, 1.0, 3);
    }

    #[test]
    fn thm11_metadata_and_sizes() {
        let mut rng = StdRng::seed_from_u64(54);
        let g = generators::erdos_renyi(60, 0.08, WeightModel::Uniform { lo: 1, hi: 4 }, &mut rng);
        let scheme = SchemeFivePlusEps::build(&g, &Params::default(), &mut rng).unwrap();
        assert!(scheme.name().contains("thm11"));
        assert_eq!(RoutingScheme::n(&scheme), 60);
        assert!(scheme.q() >= 4);
        assert!(g.vertices().any(|v| scheme.label_of(v).p_a == v), "no landmark");
        for v in g.vertices() {
            assert!(scheme.table_words(v) > 0);
            assert!(scheme.label_words(v) >= 3);
        }
    }

    /// Every non-landmark `v` stores the port at `p_A(v)` of an edge to
    /// `z` with `v ∈ C_A(z)`, so `z`'s cluster tree finishes the route;
    /// every landmark stores the sentinel. Every label's `[p_A(v), z, port]`
    /// equals what a second nearest-landmark search over the same landmarks
    /// reads, the stage the build ran before it took the sampler's last
    /// search (the vicinities draw nothing, so the build's seed samples the
    /// same landmarks again). The column is the same at 1 and 2 threads.
    #[test]
    fn first_edges_lead_from_the_nearest_landmark_into_a_cluster_holding_v() {
        for (name, g) in crate::test_support::equivalence_graphs() {
            let (landmarks, _, _) = stages::landmark_clusters(&g, &mut StdRng::seed_from_u64(7)).unwrap();
            let mut search = routing_graph::SearchScratch::for_graph(&g);
            search.multi_source_into(&g, landmarks.members());
            let mut columns = Vec::new();
            for threads in [1, 2] {
                routing_par::set_threads(threads);
                let mut rng = StdRng::seed_from_u64(7);
                let scheme = SchemeFivePlusEps::build(&g, &Params::default(), &mut rng).unwrap();
                for v in g.vertices() {
                    let label = scheme.label_of(v);
                    let a = search.nearest(v).unwrap();
                    let edge = search.first_hop(v).map(|z| (z, g.port_to(a, z).unwrap()));
                    assert_eq!((label.p_a, label.first_edge), (a, edge), "{name} x{threads}: {v}");
                    let Some((z, port)) = label.first_edge else {
                        assert_eq!(label.p_a, v, "{name}: {v} is no landmark but has no first edge");
                        continue;
                    };
                    assert_ne!(label.p_a, v, "{name}: landmark {v} holds a first edge");
                    assert_eq!(g.neighbor_at(label.p_a, port).to, z, "{name}: port to {z}");
                    assert!(scheme.clusters.label_in(z, v).is_some(), "{name}: {v} not in C_A({z})");
                }
                columns.push(scheme.labels);
            }
            assert_eq!(columns[0], columns[1], "{name}: first edges at 1 and 2 threads");
        }
        routing_par::set_threads(routing_par::available_threads());
    }

    #[test]
    fn thm11_rejects_disconnected_graphs() {
        let mut b = routing_graph::GraphBuilder::new(4);
        b.add_unit_edge(0, 1).unwrap();
        b.add_unit_edge(2, 3).unwrap();
        let g = b.build();
        let mut rng = StdRng::seed_from_u64(1);
        let err = SchemeFivePlusEps::build(&g, &Params::default(), &mut rng).unwrap_err();
        assert_eq!(err, BuildError::Disconnected);
    }
}
