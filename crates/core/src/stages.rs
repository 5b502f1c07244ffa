//! The preprocessing every scheme of the paper shares, as explicit stages.
//!
//! Each theorem composes the same ingredients with Technique 1 or 2:
//! Lemma 2 vicinities with a Lemma 6 colouring and one representative per
//! colour ([`Vicinities`]), Lemma 4 landmarks with their clusters
//! ([`Clusters`], Theorems 10 and 11) and shortest-path trees spanning `V`
//! ([`global_trees`]). The scheme files call this module for those
//! ingredients and for the query-side arms that read them; nothing else in
//! the crate builds a ball table, a colouring or a cluster family. The
//! cluster family itself ([`ClusterFamily`]) is public: the Thorup–Zwick
//! hierarchy under `tz*` and `thm16k*` builds each of its levels with it.
//! Every family of trees built here — a cluster family's `T(w)`, the global
//! trees — is one [`TreeForest`], built a block of roots at a time and
//! appended in root order, so no tree is an object of its own.
//!
//! A scheme that needs both runs [`Vicinities::balls`], then
//! [`Clusters::build`], then [`Vicinities::colour`]: the landmark sample is
//! drawn before the colouring attempts, the only two RNG consumers here.
//! Each stage opens the spans it always had (`balls`; `centers`, `clusters`,
//! `cluster-trees`, `bunches`; `coloring`, `color-reps`; `global-trees`),
//! returns what a scheme keeps for routing, and drops its build-only arrays
//! on return — except the vicinities' member ids, which the colouring and
//! the technique routers still read: a builder holds `Vicinities<BallTable>`
//! until its last build-time reader has run and stores
//! [`Vicinities::retain`]'s result, the ports alone. The members'
//! distances are built only for a scheme that reads them (Theorem 10);
//! the others pass [`BallDists::Skip`]. No stage copies a ball: the
//! Lemma 6 colouring, like Technique 1's Lemma 5 hitting set, reads
//! [`BallTable::id_prefixes`], one borrowed slice a vertex.

use rand::Rng;

use routing_graph::{Graph, SearchScratch, VertexId, Weight};
use routing_model::{Decision, RouteError};
use routing_tree::{TreeForest, TreeLabelView, TreeView};
use routing_vicinity::{
    sample_centers_bounded, BallDists, BallPorts, BallTable, Coloring, Landmarks,
};

use crate::{BuildError, Params};

/// Rejects invalid parameters and disconnected graphs. Runs once per build;
/// the technique routers rely on their caller having run it.
pub(crate) fn check(g: &Graph, params: &Params) -> Result<(), BuildError> {
    params.validate().map_err(|what| BuildError::BadParameter { what })?;
    if !g.is_connected() {
        return Err(BuildError::Disconnected);
    }
    Ok(())
}

/// One tree per root index in `0..roots`: `build` runs the root's search on
/// a worker's workspace, appends its tree to the chunk it is handed and
/// returns what the caller keeps of the search besides. A task takes a
/// block of consecutive roots into one chunk (at most 64, at least eight
/// blocks a worker), and the chunks are appended to the forest in root
/// order, every offset rebased. The forest therefore does not depend on the
/// blocks nor on the thread count, and no tree is an object of its own.
/// The chunks are trimmed as they finish, so the build peaks at about twice
/// the forest. Appending them a group at a time would lower that peak, but
/// each group would regrow the forest's arrays by a copy, which costs more
/// build time than the peak is worth.
fn forest_by_blocks<T: Send>(
    g: &Graph,
    roots: usize,
    build: impl Fn(&mut SearchScratch, usize, &mut TreeForest) -> Result<T, BuildError> + Sync,
) -> Result<(TreeForest, Vec<T>), BuildError> {
    let width = roots.div_ceil(8 * routing_par::threads()).clamp(1, 64);
    let blocks = routing_par::par_map_scratch(
        roots.div_ceil(width),
        || SearchScratch::for_graph(g),
        |scratch, b| {
            let mut chunk = TreeForest::new();
            let block = b * width..roots.min((b + 1) * width);
            let kept = block.map(|i| build(scratch, i, &mut chunk)).collect::<Result<Vec<T>, _>>()?;
            chunk.shrink_to_fit();
            Ok::<_, BuildError>((chunk, kept))
        },
    );
    let (mut chunks, mut kept) = (Vec::with_capacity(blocks.len()), Vec::with_capacity(roots));
    for block in blocks {
        let (chunk, block_kept) = block?;
        chunks.push(chunk);
        kept.extend(block_kept);
    }
    let mut forest = TreeForest::new();
    forest.append(chunks).map_err(tree_error)?;
    Ok((forest, kept))
}

/// A tree the build could not lay out, which a well-formed search never
/// produces.
fn tree_error(e: routing_tree::TreeBuildError) -> BuildError {
    BuildError::TooSmall { what: e.to_string() }
}

/// A shortest-path tree spanning `V` per root, in `roots` order: one full
/// Dijkstra each, fanned out over per-worker search workspaces.
pub(crate) fn global_trees(g: &Graph, roots: &[VertexId]) -> Result<TreeForest, BuildError> {
    let _span = routing_obs::span("global-trees");
    let (forest, _) = forest_by_blocks(g, roots.len(), |scratch, i, chunk| {
        scratch.dijkstra_into(g, roots[i]);
        chunk.push_scratch(g, scratch).map_err(tree_error)
    })?;
    Ok(forest)
}

/// Lemma 2 vicinities `B(u, ℓ)`, their Lemma 6 colouring and, per vertex and
/// colour, the closest vicinity member of that colour — with the routing
/// arms that read them. `B` is the full [`BallTable`] while a scheme is
/// being built and [`BallPorts`] in the scheme.
#[derive(Debug, Clone)]
pub(crate) struct Vicinities<B = BallPorts> {
    /// The number of colours.
    pub(crate) q: u32,
    pub(crate) balls: B,
    /// The colour of every vertex, indexed by vertex id.
    pub(crate) color_of: Vec<u32>,
    /// Row-major `n × q`: entry `u·q + i` is the closest vertex of colour
    /// `i` inside `B(u, ℓ)`.
    color_rep: Vec<VertexId>,
}

impl Vicinities<BallTable> {
    /// Stage one: the vicinities of `ell` members, with no colours yet
    /// (`q = 0`), and their distances if `dists` asks for them. Draws
    /// nothing from the build's RNG, so it runs before the landmark sample.
    /// The table stays live to the end of the build, but its build is not
    /// the heap peak of a Theorem 11 build: that is the Lemma 8 merge at the
    /// end of [`Technique2Router::build`](crate::technique2::Technique2Router),
    /// where the sequence chunks and rows sit beside the store they fill.
    pub(crate) fn balls(g: &Graph, ell: usize, dists: BallDists) -> Self {
        Vicinities {
            q: 0,
            balls: BallTable::build_with_dists(g, ell, dists),
            color_of: Vec::new(),
            color_rep: Vec::new(),
        }
    }

    /// Stage two: colours the `prefix_len`-member prefixes of the vicinities
    /// with `q` colours (the multilevel schemes colour level 1 of the one
    /// stored ball; everyone else the whole ball) and picks the
    /// representatives from the whole ball. Fails when the graph is too
    /// small for a Lemma 6 colouring with `q` colours.
    pub(crate) fn colour<R: Rng>(
        self,
        prefix_len: usize,
        q: u32,
        params: &Params,
        rng: &mut R,
    ) -> Result<Self, BuildError> {
        let balls = self.balls;
        let color_of: Vec<u32> = {
            let _span = routing_obs::span("coloring");
            let sets = balls.id_prefixes(prefix_len);
            let coloring =
                Coloring::build_for_sets(balls.len(), q, &sets, params.coloring_retries, rng)?;
            (0..balls.len()).map(|v| coloring.color(VertexId(v as u32))).collect()
        };
        let _span = routing_obs::span("color-reps");
        let color_rep = build_color_reps(&balls, &color_of, q as usize);
        Ok(Vicinities { q, balls, color_of, color_rep })
    }

    /// Drops the member ids and distances: call once nothing of the build
    /// reads them any more.
    pub(crate) fn retain(self) -> Vicinities {
        let Vicinities { q, balls, color_of, color_rep } = self;
        Vicinities { q, balls: balls.into_ports(), color_of, color_rep }
    }
}

impl<B> Vicinities<B> {
    /// The representatives stored at `u`, indexed by colour.
    pub(crate) fn reps_at(&self, u: VertexId) -> &[VertexId] {
        let q = self.q as usize;
        &self.color_rep[u.index() * q..(u.index() + 1) * q]
    }
}

impl Vicinities {
    pub(crate) fn color(&self, v: VertexId) -> u32 {
        self.color_of[v.index()]
    }

    /// True when `v ∈ B(at, ℓ)`: Lemma 2 forwarding from `at` reaches it on
    /// a shortest path (Property 1 keeps it visible along the way).
    #[inline]
    pub(crate) fn sees(&self, at: VertexId, v: VertexId) -> bool {
        self.balls.contains(at, v)
    }

    /// One Lemma 2 forwarding step from `at` towards `target`; `what` names
    /// the target's role in the error a missing entry produces.
    #[inline]
    pub(crate) fn toward(
        &self,
        at: VertexId,
        target: VertexId,
        what: &str,
    ) -> Result<Decision, RouteError> {
        self.balls.first_port(at, target).map(Decision::Forward).ok_or_else(|| {
            RouteError::MissingInformation {
                at,
                what: format!("{what} {target} left the vicinity"),
            }
        })
    }

    /// The representative of `colour` stored at `u`. The colour is label
    /// data: one from another instance may name no colour of this one, which
    /// is [`RouteError::BadLabel`].
    #[inline]
    pub(crate) fn rep(&self, u: VertexId, colour: u32) -> Result<VertexId, RouteError> {
        if colour >= self.q {
            return Err(RouteError::BadLabel {
                what: format!("colour {colour} is not one of this instance's {} colours", self.q),
            });
        }
        Ok(self.color_rep[u.index() * self.q as usize + colour as usize])
    }

    /// Words `u` stores: its vicinity and one representative per colour.
    pub(crate) fn words_at(&self, u: VertexId) -> usize {
        self.balls.words_at(u) + self.q as usize
    }

    /// Bytes of heap the vicinities hold, by capacity: the ports, one
    /// colour a vertex and one representative a (vertex, colour) pair.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.balls.heap_bytes()
            + std::mem::size_of::<u32>() * self.color_of.capacity()
            + std::mem::size_of::<VertexId>() * self.color_rep.capacity()
    }
}

/// For every vertex and every colour, the closest vicinity member of that
/// colour: the settle order is by distance, so the first member of each
/// colour is the closest.
fn build_color_reps(balls: &BallTable, color_of: &[u32], q: usize) -> Vec<VertexId> {
    let mut reps = Vec::with_capacity(balls.len() * q);
    let mut found = vec![false; q];
    for u in (0..balls.len()).map(|u| VertexId(u as u32)) {
        // Colours missing from the vicinity (possible at tiny scales when
        // the colouring repair had to give up on balance) fall back to the
        // vertex itself; routing then starts the technique directly at `u`,
        // which is still correct, merely without the paper's guarantee
        // that `d(u, w) <= d(u, v)`.
        let row = reps.len();
        reps.resize(row + q, u);
        found.fill(false);
        for &v in balls.ball(u).ids() {
            let c = color_of[v.index()] as usize;
            if !found[c] {
                found[c] = true;
                reps[row + c] = v;
            }
        }
    }
    reps
}

/// Every cluster's members with their distances from the root, in settle
/// order: the build-only output of [`ClusterFamily::build`].
pub type ClusterMembers = Vec<Vec<(VertexId, Weight)>>;

/// A Lemma 4 cluster family: for every root `w` the cluster
/// `C(w) = {v : d(w, v) < bound_w(v)}` (the root always belongs) as its
/// Lemma 3 tree `T(w)`, and for every `v` the bunch `B(v) = {w : v ∈ C(w)}`
/// with distances. Theorems 10 and 11 bound every root by `d(·, A)`, the
/// Thorup–Zwick hierarchy a level-`i` root by `d(·, A_{i+1})`. The trees are
/// one [`TreeForest`], tree `w` being `T(w)`.
#[derive(Debug, Clone)]
pub struct ClusterFamily {
    /// `T(w)` of every root, indexed by vertex id.
    trees: TreeForest,
    bunches: FlatBunches,
}

impl ClusterFamily {
    /// One restricted search per root `w` under the row `bound(w)`, `T(w)`
    /// appended straight from the search workspace, and the members inverted
    /// into the bunches: spans `clusters` and `cluster-trees` (per root, on
    /// its worker) and `bunches`. The members are handed back too, for
    /// Theorem 10's intersections. Thread-count independent.
    ///
    /// # Errors
    ///
    /// [`BuildError::TooSmall`] if a search's parent relation is not a tree
    /// of `g`, which a well-formed search never produces.
    pub fn build<'b>(
        g: &Graph,
        bound: impl Fn(VertexId) -> &'b [Weight] + Sync,
    ) -> Result<(Self, ClusterMembers), BuildError> {
        let (trees, members) = forest_by_blocks(g, g.n(), |scratch, w, chunk| {
            let w = VertexId(w as u32);
            let members = {
                let _span = routing_obs::span("clusters");
                scratch.cluster_into(g, w, bound(w));
                scratch.order().to_vec()
            };
            let _span = routing_obs::span("cluster-trees");
            chunk.push_scratch(g, scratch).map_err(tree_error)?;
            Ok(members)
        })?;
        let _span = routing_obs::span("bunches");
        let bunches = FlatBunches::new(&members);
        Ok((ClusterFamily { trees, bunches }, members))
    }

    /// The cluster tree `T(w)`, or `None` when `w` is not a vertex.
    #[inline]
    pub fn tree(&self, w: VertexId) -> Option<TreeView<'_>> {
        self.trees.tree(w.index())
    }

    /// The bunch `B(v)` as `(w, d(w, v))` pairs, in ascending id order.
    pub fn bunch(&self, v: VertexId) -> &[(VertexId, Weight)] {
        self.bunches.of(v)
    }

    /// `d(v, w)` if `w ∈ B(v)`, which is when `v ∈ C(w)`.
    #[inline]
    pub fn bunch_dist(&self, v: VertexId, w: VertexId) -> Option<Weight> {
        let bunch = self.bunches.of(v);
        bunch.binary_search_by_key(&w, |&(x, _)| x).ok().map(|i| bunch[i].1)
    }

    /// The label of `v` in `T(root)`, if `v ∈ C(root)`, as a view into
    /// `T(root)`'s table: `root` stores the labels of its cluster's members,
    /// so a header that carries one copies nothing.
    #[inline]
    pub fn label_in(&self, root: VertexId, v: VertexId) -> Option<TreeLabelView> {
        self.tree(root)?.label_view(v)
    }

    /// [`ClusterFamily::label_in`] where the scheme's invariants promise
    /// `v ∈ C(root)`: a miss is [`RouteError::MissingInformation`].
    #[inline]
    pub fn label_in_cluster(
        &self,
        root: VertexId,
        v: VertexId,
    ) -> Result<TreeLabelView, RouteError> {
        self.label_in(root, v).ok_or_else(|| RouteError::MissingInformation {
            at: root,
            what: format!("{v} is not in the cluster of {root}"),
        })
    }

    /// One routing step at `at` on `T(root)` towards the holder of a view
    /// [`ClusterFamily::label_in`] returned for `root`.
    ///
    /// # Errors
    ///
    /// As [`TreeView::step`]; a `root` outside the family is
    /// [`RouteError::MissingInformation`].
    #[inline]
    pub fn step(
        &self,
        root: VertexId,
        at: VertexId,
        label: TreeLabelView,
    ) -> Result<Decision, RouteError> {
        let tree = self.tree(root).ok_or_else(|| RouteError::MissingInformation {
            at,
            what: format!("no cluster tree rooted at {root}"),
        })?;
        tree.step_view(at, label)
    }

    /// Words `u` stores: tree-routing information of every cluster
    /// containing it and the labels of its own cluster's members.
    pub fn membership_words(&self, u: VertexId) -> usize {
        let trees = |w: VertexId| self.tree(w);
        let member_of: usize =
            self.bunch(u).iter().filter_map(|&(w, _)| trees(w)).map(|t| t.table_words(u)).sum();
        member_of + trees(u).map_or(0, |t| t.labels_words())
    }

    /// Bytes of heap the trees and bunches hold, by capacity.
    pub fn heap_bytes(&self) -> usize {
        self.trees.heap_bytes() + self.bunches.heap_bytes()
    }
}

/// Every bunch in one CSR table: a probe is one binary search over
/// adjacent memory.
#[derive(Debug, Clone)]
struct FlatBunches {
    /// `offsets[v]..offsets[v + 1]` indexes `entries` for vertex `v`.
    offsets: Vec<u32>,
    /// `(w, d(w, v))`, ascending `w` within each vertex.
    entries: Vec<(VertexId, Weight)>,
}

impl FlatBunches {
    /// Inverts the clusters by a counting sort over ascending roots, so
    /// every bunch comes out id-sorted.
    fn new(clusters: &[Vec<(VertexId, Weight)>]) -> Self {
        let n = clusters.len();
        let mut offsets = vec![0u32; n + 1];
        for &(v, _) in clusters.iter().flatten() {
            offsets[v.index() + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut next = offsets.clone();
        let mut entries = vec![(VertexId(0), 0); offsets[n] as usize];
        for (w, members) in clusters.iter().enumerate() {
            for &(v, d) in members {
                entries[next[v.index()] as usize] = (VertexId(w as u32), d);
                next[v.index()] += 1;
            }
        }
        FlatBunches { offsets, entries }
    }

    fn of(&self, v: VertexId) -> &[(VertexId, Weight)] {
        &self.entries[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<u32>() * self.offsets.capacity()
            + std::mem::size_of::<(VertexId, Weight)>() * self.entries.capacity()
    }
}

/// Lemma 4 landmarks `A` with clusters of `O(n^{1/3})` vertices, bounded by
/// `d(·, A)`. Dereferences to its cluster family.
#[derive(Debug, Clone)]
pub(crate) struct Clusters {
    pub(crate) landmarks: Landmarks,
    family: ClusterFamily,
}

impl std::ops::Deref for Clusters {
    type Target = ClusterFamily;

    fn deref(&self) -> &ClusterFamily {
        &self.family
    }
}

impl Clusters {
    /// Samples `Õ(n^{2/3})` landmarks (the density Theorems 10 and 11 both
    /// prescribe) and builds the cluster family around them, handing back
    /// its build-only member lists.
    pub(crate) fn build<R: Rng>(
        g: &Graph,
        params: &Params,
        rng: &mut R,
    ) -> Result<(Self, ClusterMembers), BuildError> {
        let n = g.n();
        let s = ((params.landmark_scale * (n as f64).powf(2.0 / 3.0)).ceil() as usize).clamp(1, n);
        let landmarks = sample_centers_bounded(g, s, rng);
        let (family, members) = ClusterFamily::build(g, |_| landmarks.bound_slice())?;
        Ok((Clusters { landmarks, family }, members))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_graph::generators::{self, Family, WeightModel};
    use routing_model::{simulate_lean_with_label, RoutingScheme};
    use routing_tree::TreeScheme;

    use crate::{BuildContext, SchemeFivePlusEps, SchemeMultilevel, SchemeTwoPlusEps};

    /// `kept` is what a built scheme holds, `direct` the stages' output
    /// before [`Vicinities::retain`]: the same ports, and of the vicinities
    /// nothing but the packed `[member, port]` slots, within the budget
    /// `balls.rs` pins for them (`⌈4w/3⌉` bytes a member at `w` bytes a
    /// slot, 32 a vertex), 4 bytes of colour a vertex and 4 of
    /// representative a (vertex, colour) pair.
    fn assert_same_vicinities(key: &str, kept: &Vicinities, direct: &Vicinities<BallTable>) {
        assert_eq!(kept.q, direct.q, "{key}: q");
        assert_eq!(kept.balls, *direct.balls, "{key}: ports");
        let n = direct.balls.len();
        let members: usize = (0..n).map(|u| direct.balls.ball(VertexId(u as u32)).len()).sum();
        let ports = kept.balls.heap_bytes();
        let per_member = (4 * kept.balls.slot_bytes()).div_ceil(3);
        let bound = per_member * members + 32 * n + 64;
        assert!(ports <= bound, "{key}: {ports} B for {members} members");
        let reps = n * kept.q as usize;
        assert_eq!(kept.heap_bytes(), ports + 4 * n + 4 * reps, "{key}: vicinity bytes");
        assert_eq!(kept.color_of, direct.color_of, "{key}: colours");
        assert_eq!(kept.color_rep, direct.color_rep, "{key}: representatives");
    }

    /// The cluster stage equals the path it replaced under the same
    /// landmarks: `all_clusters` + `bunches` + `TreeScheme::from_restricted`.
    fn assert_reference_clusters(key: &str, g: &Graph, stage: &Clusters, members: &ClusterMembers) {
        let raw = routing_vicinity::all_clusters(g, &stage.landmarks);
        let bunches = routing_vicinity::bunches(g, &raw);
        let trees: Vec<TreeScheme> =
            raw.iter().map(|c| TreeScheme::from_restricted(g, c).unwrap()).collect();
        for u in g.vertices() {
            assert_eq!(members[u.index()], raw[u.index()].members(), "{key}: C({u})");
            let mut bunch = bunches[u.index()].clone();
            bunch.sort_unstable();
            assert_eq!(stage.bunch(u), bunch, "{key}: B({u})");
            let words = trees[u.index()].labels_words()
                + bunch.iter().map(|&(w, _)| trees[w.index()].table_words(u)).sum::<usize>();
            assert_eq!(stage.membership_words(u), words, "{key}: words at {u}");
            let tree = stage.tree(u).unwrap();
            for v in g.vertices() {
                let reference = &trees[u.index()];
                assert_eq!(tree.node_info(v), reference.node_info(v), "{key}: {v} in T({u})");
                assert_eq!(tree.label(v), reference.label(v), "{key}: label of {v} in T({u})");
            }
        }
        assert_eq!(stage.tree(VertexId(g.n() as u32)).map(|t| t.len()), None, "{key}: T(n)");
    }

    /// Every observable of a forest's tree equals the standalone
    /// [`TreeScheme`] built from the same search: node records, labels and
    /// label views of every vertex, the step on every pair of members in
    /// both label forms, and the word counts.
    fn assert_same_tree(key: &str, g: &Graph, tree: TreeView, reference: &TreeScheme) {
        assert_eq!(tree.len(), reference.len(), "{key}: size");
        assert_eq!(tree.root(), Some(reference.root()), "{key}: root");
        assert_eq!(tree.labels_words(), reference.labels_words(), "{key}: labels words");
        for v in g.vertices() {
            assert_eq!(tree.node_info(v), reference.node_info(v), "{key}: node of {v}");
            assert_eq!(tree.label(v), reference.label(v), "{key}: label of {v}");
            assert_eq!(tree.label_view(v), reference.label_view(v), "{key}: view of {v}");
            assert_eq!(tree.table_words(v), reference.table_words(v), "{key}: words at {v}");
            assert_eq!(tree.label_words(v), reference.label_words(v), "{key}: label words of {v}");
        }
        for dest in reference.vertices() {
            let (view, label) = (reference.label_view(dest).unwrap(), reference.label(dest).unwrap());
            for at in reference.vertices() {
                let want = reference.step(at, &label);
                assert_eq!(tree.step_view(at, view), want, "{key}: {at} towards {dest}");
                assert_eq!(tree.step(at, &label), want, "{key}: {at} towards {dest}");
            }
        }
    }

    /// Every tree of a cluster family, and of a global-tree forest, equals
    /// the standalone tree of the same search, on Erdős–Rényi, geometric and
    /// grid graphs, unit and weighted, around the 64-root block boundary.
    /// The forests are equal at one and four threads, and hold 24 bytes a
    /// node, 4 a light offset, 4 a member id of a tree that does not span
    /// the graph, 8 a light port and 8 a tree, with no growth slack.
    #[test]
    fn every_forest_tree_equals_the_standalone_tree_of_its_search() {
        let params = Params::with_epsilon(0.5);
        for family in [Family::ErdosRenyi, Family::Geometric, Family::Grid] {
            for weights in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 9 }] {
                for n in [63, 64, 65, 130] {
                    let g = family.generate(n, weights, &mut StdRng::seed_from_u64(n as u64));
                    let n = g.n();
                    let key = format!("{} {weights:?} n = {n}", family.name());
                    let mut built = Vec::new();
                    for threads in [1, 4] {
                        routing_par::set_threads(threads);
                        let rng = &mut StdRng::seed_from_u64(5);
                        let (clusters, _) = Clusters::build(&g, &params, rng).unwrap();
                        let global = global_trees(&g, clusters.landmarks.members()).unwrap();
                        built.push((clusters, global));
                    }
                    routing_par::set_threads(routing_par::available_threads());
                    let (clusters, global) = &built[0];
                    assert_eq!(clusters.family.trees, built[1].0.family.trees, "{key}: threads");
                    assert_eq!(*global, built[1].1, "{key}: threads, global trees");

                    let mut scratch = SearchScratch::for_graph(&g);
                    let bound = clusters.landmarks.bound_slice();
                    for w in g.vertices() {
                        scratch.cluster_into(&g, w, bound);
                        let reference = TreeScheme::from_scratch(&g, &scratch).unwrap();
                        let tree = clusters.tree(w).unwrap();
                        assert_same_tree(&format!("{key}: T({w})"), &g, tree, &reference);
                    }
                    let landmarks = clusters.landmarks.members();
                    assert_eq!(global.len(), landmarks.len(), "{key}: one global tree a landmark");
                    for (i, &a) in landmarks.iter().enumerate() {
                        scratch.dijkstra_into(&g, a);
                        let reference = TreeScheme::from_scratch(&g, &scratch).unwrap();
                        let tree = global.tree(i).unwrap();
                        assert_same_tree(&format!("{key}: global T({a})"), &g, tree, &reference);
                    }

                    for forest in [&clusters.family.trees, global] {
                        let trees: Vec<TreeView> = forest.iter().collect();
                        let nodes: usize = trees.iter().map(|t| t.len()).sum();
                        let ids: usize = trees.iter().filter(|t| t.len() != n).map(|t| t.len()).sum();
                        let light: usize = trees.iter().map(|t| (t.labels_words() - t.len()) / 2).sum();
                        let bytes = 8 * (trees.len() + 1) + 4 * ids + 24 * nodes + 4 * (nodes + 1) + 8 * light;
                        assert_eq!(forest.heap_bytes(), bytes, "{key}: forest bytes");
                    }
                    let bunches: usize = g.vertices().map(|v| clusters.bunch(v).len()).sum();
                    let family_bytes = clusters.family.trees.heap_bytes() + 4 * (n + 1) + 16 * bunches;
                    assert_eq!(clusters.heap_bytes(), family_bytes, "{key}: family bytes");
                }
            }
        }
    }

    /// The stages, run directly in the order and with the RNG a scheme build
    /// prescribes, produce what each of the five registry keys retains — on
    /// the instance the committed `table1` goldens are generated from. The
    /// cluster stage also equals its reference path on every family, unit
    /// (tie-heavy) and weighted, around the 64-wide batch boundary, at one
    /// and four threads.
    #[test]
    fn stages_built_directly_equal_what_every_registry_key_retains() {
        let params = Params::with_epsilon(0.5);
        let ctx = BuildContext { params, seed: 7, threads: 0 };
        let instance = |w| Family::ErdosRenyi.generate(60, w, &mut StdRng::seed_from_u64(7));
        let unit = instance(WeightModel::Unit);
        let weighted = instance(WeightModel::Uniform { lo: 1, hi: 32 });

        let b = params.scaled(8, 60);
        for (levels, key) in [(1, "warmup"), (2, "thm13"), (4, "thm15")] {
            let kept = SchemeMultilevel::build(&weighted, levels, key, &params, &mut ctx.rng());
            let ell = (b * levels).min(60);
            let vic = Vicinities::balls(&weighted, ell, BallDists::Skip);
            let direct = vic.colour(b, 8, &params, &mut ctx.rng());
            assert_same_vicinities(key, &kept.unwrap().vic, &direct.unwrap());
        }

        let ell = params.scaled(4, 60);
        let thm10 = SchemeTwoPlusEps::build(&unit, &params, &mut ctx.rng()).unwrap();
        let mut rng = ctx.rng();
        let (clusters, members) = Clusters::build(&unit, &params, &mut rng).unwrap();
        let vic = Vicinities::balls(&unit, ell, BallDists::Keep);
        let direct = vic.colour(ell, 4, &params, &mut rng).unwrap();
        assert_same_vicinities("thm10", &thm10.vic, &direct);
        assert_eq!(thm10.clusters.landmarks.members(), clusters.landmarks.members());
        assert_reference_clusters("thm10", &unit, &thm10.clusters, &members);

        let thm11 = SchemeFivePlusEps::build(&weighted, &params, &mut ctx.rng()).unwrap();
        let mut rng = ctx.rng();
        let (clusters, members) = Clusters::build(&weighted, &params, &mut rng).unwrap();
        let vic = Vicinities::balls(&weighted, ell, BallDists::Skip);
        let direct = vic.colour(ell, 4, &params, &mut rng).unwrap();
        assert_same_vicinities("thm11", &thm11.vic, &direct);
        assert_eq!(thm11.clusters.landmarks.members(), clusters.landmarks.members());
        assert_reference_clusters("thm11", &weighted, &thm11.clusters, &members);

        for family in Family::ALL {
            for weights in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 32 }] {
                for n in [2, 63, 64, 65, 130] {
                    let g = family.generate(n, weights, &mut StdRng::seed_from_u64(n as u64));
                    for threads in [1, 4] {
                        routing_par::set_threads(threads);
                        let built = Clusters::build(&g, &params, &mut ctx.rng()).unwrap();
                        let key = format!("{} {weights:?} n={n} x{threads}", family.name());
                        assert_reference_clusters(&key, &g, &built.0, &built.1);
                    }
                }
            }
        }
        routing_par::set_threads(routing_par::available_threads());
    }

    /// A label is data from outside: one taken from an instance four times
    /// the size names colours this instance does not have. Routing with it
    /// is an error — never an index panic — on every scheme.
    #[test]
    fn a_label_from_a_larger_instance_is_an_error_not_a_panic() {
        let graph = |n: usize| {
            let mut rng = StdRng::seed_from_u64(n as u64);
            generators::erdos_renyi(n, 8.0 / n as f64, WeightModel::Unit, &mut rng)
        };
        let (small_g, large_g) = (graph(60), graph(240));
        let ctx = BuildContext::with_seed(3);
        type Build =
            fn(&Graph, &BuildContext) -> Result<Box<dyn routing_model::DynScheme>, BuildError>;
        let builds: [(&str, Build); 4] = [
            ("warmup", |g, c| {
                Ok(Box::new(SchemeMultilevel::build(g, 1, "warmup", &c.params, &mut c.rng())?))
            }),
            ("thm10", |g, c| Ok(Box::new(SchemeTwoPlusEps::build(g, &c.params, &mut c.rng())?))),
            ("thm11", |g, c| Ok(Box::new(SchemeFivePlusEps::build(g, &c.params, &mut c.rng())?))),
            ("thm13", |g, c| {
                Ok(Box::new(SchemeMultilevel::build(g, 2, "thm13", &c.params, &mut c.rng())?))
            }),
        ];
        for (key, build) in builds {
            let small = build(&small_g, &ctx).unwrap();
            let large = build(&large_g, &ctx).unwrap();
            let mut foreign_colours = 0;
            for v in large_g.vertices() {
                let label = large.label_of(v);
                for u in small_g.vertices().step_by(7) {
                    match simulate_lean_with_label(&small_g, small.as_ref(), u, v, &label, 256) {
                        Err(RouteError::BadLabel { what }) if what.contains("colour") => {
                            foreign_colours += 1;
                        }
                        Ok(_) | Err(_) => {}
                    }
                }
            }
            assert!(foreign_colours > 0, "{key}: no label named a colour >= q");
        }
    }
}
