//! The preprocessing every scheme of the paper shares, as explicit stages.
//!
//! Each theorem composes the same ingredients with Technique 1 or 2:
//! Lemma 2 vicinities with a Lemma 6 colouring and one representative per
//! colour ([`Vicinities`]), Lemma 4 landmarks with their clusters
//! ([`landmark_clusters`], Theorems 10 and 11) and shortest-path trees
//! spanning `V` ([`global_trees`]). The scheme files call this module for those
//! ingredients and for the query-side arms that read them; nothing else in
//! the crate builds a ball table, a colouring or a cluster family. The
//! cluster family itself ([`ClusterFamily`]) is public: the Thorup–Zwick
//! hierarchy under `tz*` and `thm16k*` builds each of its levels with it.
//! Every family of trees built here — a cluster family's `T(w)`, the global
//! trees — is one [`TreeForest`], built a block of roots at a time and
//! appended in root order a round of blocks at a time
//! ([`routing_par::by_rounds`], the round loop the ball table and
//! Technique 1's sequence store run too), so no tree is an object of its
//! own and no build holds a second forest.
//!
//! A scheme that needs both runs [`Vicinities::balls`], then
//! [`landmark_clusters`], then [`Vicinities::colour`]: the landmark sample is
//! drawn before the colouring attempts, the only two RNG consumers here.
//! Each stage opens the spans it always had (`balls`; `centers`, `clusters`,
//! `cluster-trees`, `bunches`; `coloring`, `color-reps`; `global-trees`),
//! returns what a scheme keeps for routing, and drops its build-only arrays
//! on return — except the vicinities' member ids, which the colouring and
//! Technique 1 still read: a builder holds `Vicinities<BallTable>` until its
//! last build-time reader has run and stores [`Vicinities::retain`]'s
//! result, the ports alone. Technique 2 reads none: its handover vertex is
//! a colour representative, so Theorem 11 retains before Lemma 8. The
//! members' distances are built only for a scheme that reads them (Theorem
//! 10); the others pass [`BallDists::Skip`]. Both are packed at the
//! graph's width, like the slots. No stage copies a ball: the Lemma 6
//! colouring, like Technique 1's Lemma 5 hitting set, reads
//! [`BallTable::id_prefixes`], one view of the packed ids a vertex, and the
//! hitting set finds the vicinities a pick hits by probing the slots.

use std::ops::Range;

use rand::Rng;

use routing_graph::codec::{bytes_for, Field};
use routing_graph::{Graph, PackedColumn, PackedRows, PackedView, SearchScratch, SlotCodec, VertexId, Weight};
use routing_model::{Decision, RouteError};
use routing_tree::{Labels, TreeForest, TreeLabelView, TreeView};
use routing_vicinity::{
    sample_centers_bounded, BallDists, BallPorts, BallTable, Coloring, Landmarks,
};

use crate::{BuildError, Params};

/// Rejects invalid parameters, the empty graph and disconnected graphs.
/// Runs once per build; the technique routers rely on their caller having
/// run it.
pub(crate) fn check(g: &Graph, params: &Params) -> Result<(), BuildError> {
    params.validate().map_err(|what| BuildError::BadParameter { what })?;
    if g.n() == 0 {
        return Err(BuildError::TooSmall { what: "the scheme needs at least one vertex".into() });
    }
    if !g.is_connected() {
        return Err(BuildError::Disconnected);
    }
    Ok(())
}

/// The rounds the tree forests and Technique 1's sequences are built in.
pub(crate) const ROUNDS: usize = 8;

/// One tree per root index in `0..roots`, built a round of consecutive
/// roots at a time ([`routing_par::by_rounds`]). A round fans out as blocks
/// of consecutive roots (at most 64, at least eight blocks a worker):
/// `build` runs a block's searches on a worker's workspace, appends their
/// trees in root order to the chunk it is handed and returns what the
/// caller keeps of the block besides. The chunks are trimmed as they finish
/// and appended to the forest once their round is done, every offset
/// rebased; `take` then gets the round's kept values, in block order. The
/// forest therefore does not depend on the rounds, the blocks nor the
/// thread count, no tree is an object of its own, and the build holds an
/// eighth of the forest in chunks beside it, where appending every chunk at
/// the end held a second forest. The price is a regrowth of the forest's
/// arrays a round, and a barrier: on the `t2-geo-direct` graph (2 vCPUs),
/// tz3's hierarchy built in 118 to 131 ms (medians of seven, five
/// alternating runs) against 93 to 118 ms with every chunk appended at the
/// end; at one thread the two overlap, 139 to 208 ms against 130 to 191.
fn forest_by_blocks<T: Send>(
    g: &Graph,
    roots: usize,
    build: impl Fn(&mut SearchScratch, Range<usize>, &mut TreeForest) -> Result<T, BuildError> + Sync,
    mut take: impl FnMut(Vec<T>) -> Result<(), BuildError>,
) -> Result<TreeForest, BuildError> {
    let empty = TreeForest::new(g);
    let mut forest = empty.clone();
    let plan = routing_par::RoundPlan {
        items: roots,
        rounds: ROUNDS,
        align: 1,
        task: |round: usize| round.div_ceil(8 * routing_par::threads()).clamp(1, 64),
    };
    let run = |scratch: &mut SearchScratch, block: Range<usize>| {
        let mut chunk = empty.clone();
        let kept = build(scratch, block, &mut chunk)?;
        chunk.shrink_to_fit();
        Ok((chunk, kept))
    };
    routing_par::by_rounds(plan, || SearchScratch::for_graph(g), run, |_, blocks| {
        let (chunks, kept): (Vec<TreeForest>, Vec<T>) = blocks.into_iter().unzip();
        forest.append(chunks).map_err(tree_error)?;
        take(kept)
    })?;
    Ok(forest)
}

/// A tree the build could not lay out, which a well-formed search never
/// produces.
fn tree_error(e: routing_tree::TreeBuildError) -> BuildError {
    BuildError::TooSmall { what: e.to_string() }
}

/// A shortest-path tree spanning `V` per root, in `roots` order: one full
/// Dijkstra each, fanned out over per-worker search workspaces. The tree of
/// root `w` keeps its members' labels as `labels(w)` says: only where a
/// route reads them in the tree, not where the scheme keeps the one label a
/// vertex it reads elsewhere.
pub(crate) fn global_trees(
    g: &Graph,
    roots: &[VertexId],
    labels: impl Fn(VertexId) -> Labels + Sync,
) -> Result<TreeForest, BuildError> {
    let _span = routing_obs::span("global-trees");
    let build = |scratch: &mut SearchScratch, block: Range<usize>, chunk: &mut TreeForest| {
        for &root in &roots[block] {
            scratch.dijkstra_into(g, root);
            chunk.push_scratch_with(g, scratch, labels(root)).map_err(tree_error)?;
        }
        Ok(())
    };
    forest_by_blocks(g, roots.len(), build, |_| Ok(()))
}

/// Lemma 2 vicinities `B(u, ℓ)`, their Lemma 6 colouring and, per vertex and
/// colour, the closest vicinity member of that colour — with the routing
/// arms that read them. `B` is the full [`BallTable`] while a scheme is
/// being built and [`BallPorts`] in the scheme. Both colour arrays are
/// packed at the graph's width and read in place.
#[derive(Debug, Clone)]
pub(crate) struct Vicinities<B = BallPorts> {
    /// The number of colours.
    pub(crate) q: u32,
    pub(crate) balls: B,
    /// The colour of every vertex, indexed by vertex id, in the bytes the
    /// colours need ([`pack_colours`]): one while `q ≤ 255`.
    color_of: PackedColumn<1>,
    /// Row-major `n × q`: entry `u·q + i` is the closest vertex of colour
    /// `i` inside `B(u, ℓ)`, at the id width ([`SlotCodec::for_ids`]).
    color_rep: PackedColumn<1>,
}

impl Vicinities<BallTable> {
    /// Stage one: the vicinities of `ell` members, with no colours yet
    /// (`q = 0`), and their distances if `dists` asks for them. Draws
    /// nothing from the build's RNG, so it runs before the landmark sample.
    /// The whole table stays live until the colouring has run, so a
    /// Theorem 11 build holds it beside its Lemma 4 stage; its peak is the
    /// Lemma 8 stage after [`retain`](Self::retain), which holds the ports
    /// and one colour class of sequence chunks beside what it keeps.
    pub(crate) fn balls(g: &Graph, ell: usize, dists: BallDists) -> Self {
        let balls = BallTable::build_with_dists(g, ell, dists);
        // The empty colour columns hold their pads: made after the table,
        // they are not live during its build.
        let empty = PackedColumn::new(SlotCodec::for_ids(0));
        Vicinities { q: 0, balls, color_of: empty.clone(), color_rep: empty }
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
        let n = self.balls.len();
        let coloring = {
            let _span = routing_obs::span("coloring");
            let sets = self.balls.id_prefixes(prefix_len);
            Coloring::build_for_sets(n, q, &sets, params.coloring_retries, rng)?
        };
        Ok(self.coloured_by((0..n).map(|v| coloring.color(VertexId(v as u32))), q))
    }

    /// Stage two with the colours given: the colour of every vertex, in id
    /// order, packed ([`pack_colours`]), and the representatives of the
    /// colours `0..q` picked from the whole ball (a colour outside `0..q`
    /// has none).
    pub(crate) fn coloured_by(self, colours: impl Iterator<Item = u32> + Clone, q: u32) -> Self {
        let _span = routing_obs::span("color-reps");
        let color_of = pack_colours(q, colours);
        let color_rep = build_color_reps(&self.balls, &color_of, q as usize);
        Vicinities { q, balls: self.balls, color_of, color_rep }
    }

    /// Drops the member ids and distances: call once nothing of the build
    /// reads them any more.
    pub(crate) fn retain(self) -> Vicinities {
        let Vicinities { q, balls, color_of, color_rep } = self;
        Vicinities { q, balls: balls.into_ports(), color_of, color_rep }
    }
}

impl<B> Vicinities<B> {
    /// The representatives stored at `u`, indexed by colour, packed; none
    /// for a `u` outside `0..n`.
    pub(crate) fn reps_at(&self, u: VertexId) -> PackedView<'_, 1> {
        let q = self.q as usize;
        let row = self.color_rep.slice(u.index() * q..(u.index() + 1) * q);
        row.unwrap_or_else(|| self.color_rep.view().prefix(0))
    }

    /// The colour of `v`; `u32::MAX`, no colour, for a `v` outside `0..n`.
    #[inline]
    pub(crate) fn color(&self, v: VertexId) -> u32 {
        self.color_of.get(v.index()).map_or(u32::MAX, |[c]| c)
    }
}

impl Vicinities {
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
        let rep = self.color_rep.get(u.index() * self.q as usize + colour as usize);
        rep.map(|[w]| VertexId(w)).ok_or(RouteError::UnknownVertex { at: u })
    }

    /// Words `u` stores: its vicinity and one representative per colour.
    pub(crate) fn words_at(&self, u: VertexId) -> usize {
        self.balls.words_at(u) + self.q as usize
    }

    /// Bytes of heap the vicinities hold, by capacity: the ports, one
    /// packed colour a vertex and one packed representative a (vertex,
    /// colour) pair, and the two columns' pads.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.balls.heap_bytes() + self.color_of.heap_bytes() + self.color_rep.heap_bytes()
    }
}

/// The colours, one a vertex, in the bytes that leave the largest of them
/// and every colour of `0..q` below the sentinel: one byte while `q ≤ 255`.
fn pack_colours(q: u32, colours: impl Iterator<Item = u32> + Clone) -> PackedColumn<1> {
    let top = colours.clone().map(|c| u64::from(c) + 1).max().unwrap_or(0).max(u64::from(q));
    let mut column = PackedColumn::with_capacity(SlotCodec::new([bytes_for(top)]), colours.clone().count());
    for c in colours {
        column.push([c]);
    }
    column
}

/// For every vertex and every colour, the closest vicinity member of that
/// colour, at the id width: the settle order is by distance, so the first
/// member of each colour is the closest. It is also the vertex Lemma 8
/// hands a sequence over to, the first of its colour in the vicinity.
fn build_color_reps(balls: &BallTable, color_of: &PackedColumn<1>, q: usize) -> PackedColumn<1> {
    let n = balls.len();
    let mut reps = PackedColumn::with_capacity(SlotCodec::for_ids(n), n * q);
    let (mut row, mut found) = (vec![0u32; q], vec![false; q]);
    for u in (0..n).map(|u| VertexId(u as u32)) {
        // Colours missing from the vicinity (possible at tiny scales when
        // the colouring repair had to give up on balance) fall back to the
        // vertex itself; routing then starts the technique directly at `u`,
        // which is still correct, merely without the paper's guarantee
        // that `d(u, w) <= d(u, v)`.
        row.fill(u.0);
        found.fill(false);
        for v in balls.ball(u).ids().iter() {
            let c = color_of.get(v.index()).map_or(usize::MAX, |[c]: [u32; 1]| c as usize);
            if found.get(c) == Some(&false) {
                found[c] = true;
                row[c] = v.0;
            }
        }
        for &w in &row {
            reps.push([w]);
        }
    }
    reps
}

/// A Lemma 4 cluster family: for every root `w` the cluster
/// `C(w) = {v : d(w, v) < bound_w(v)}` (the root always belongs) as its
/// Lemma 3 tree `T(w)`, and for every `v` the bunch `B(v) = {w : v ∈ C(w)}`
/// with distances. Theorems 10 and 11 bound every root by `d(·, A)`, the
/// Thorup–Zwick hierarchy a level-`i` root by `d(·, A_{i+1})`. The trees are
/// one [`TreeForest`], tree `w` being `T(w)`. Every member of `T(w)` keeps
/// its tree-routing record; `w` keeps its members' labels where the build
/// is told to ([`Labels`]): at every root under Theorems 10 and 11, whose
/// clusters Lemma 4 bounds, and in the Thorup–Zwick hierarchy at the
/// level-0 roots only.
#[derive(Debug, Clone)]
pub struct ClusterFamily {
    /// `T(w)` of every root, indexed by vertex id.
    trees: TreeForest,
    bunches: DistLists,
}

impl ClusterFamily {
    /// One restricted search per root `w` under the row `bound(w)`, `T(w)`
    /// appended straight from the search workspace, with its members'
    /// labels or without them as `labels(w)` says, and `C(w)` packed as
    /// row `w` of the members, a [`DistLists`]: `(v, d(w, v))`, id-sorted,
    /// an id at the id width and a distance in the bytes `n − 1` heaviest
    /// edges need, since no cluster's distance is known before its search
    /// — 5 bytes a member on the weighted benchmark graphs. Trees and
    /// members are appended a round of roots at a time
    /// (`forest_by_blocks`), and the members inverted into the bunches
    /// ([`DistLists::invert`]): spans `clusters` and `cluster-trees` (per
    /// root, on its worker) and `bunches`. The members are handed back too,
    /// for Theorem 10's intersections; every other caller drops them.
    /// Thread-count independent.
    ///
    /// # Errors
    ///
    /// [`BuildError::TooSmall`] if a search's parent relation is not a tree
    /// of `g`, which a well-formed search never produces, or the members
    /// outnumber a `u32` row end.
    pub fn build<'b>(
        g: &Graph,
        bound: impl Fn(VertexId) -> &'b [Weight] + Sync,
        labels: impl Fn(VertexId) -> Labels + Sync,
    ) -> Result<(Self, DistLists), BuildError> {
        let n = g.n();
        let empty = DistLists::empty(n, g.distance_bound())?;
        let mut members = empty.clone();
        let build = |scratch: &mut SearchScratch, block: Range<usize>, chunk: &mut TreeForest| {
            let (mut rows, mut row) = (empty.clone(), Vec::new());
            for w in block.map(|w| VertexId(w as u32)) {
                {
                    let _span = routing_obs::span("clusters");
                    scratch.cluster_into(g, w, bound(w));
                    row.clear();
                    row.extend_from_slice(scratch.order());
                    row.sort_unstable_by_key(|&(v, _)| v);
                    rows.push_row(row.iter().copied())?;
                }
                let _span = routing_obs::span("cluster-trees");
                chunk.push_scratch_with(g, scratch, labels(w)).map_err(tree_error)?;
            }
            rows.shrink_to_fit();
            Ok(rows)
        };
        let trees = forest_by_blocks(g, n, build, |round| members.append(round))?;
        let _span = routing_obs::span("bunches");
        let bunches = members.invert()?;
        Ok((ClusterFamily { trees, bunches }, members))
    }

    /// The cluster tree `T(w)`, or `None` when `w` is not a vertex.
    #[inline]
    pub fn tree(&self, w: VertexId) -> Option<TreeView<'_>> {
        self.trees.tree(w.index())
    }

    /// The bunch `B(v)` as `(w, d(w, v))` pairs, decoded, in ascending id
    /// order.
    pub fn bunch(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.bunches.row(v)
    }

    /// `d(v, w)` if `w ∈ B(v)`, which is when `v ∈ C(w)`.
    #[inline]
    pub fn bunch_dist(&self, v: VertexId, w: VertexId) -> Option<Weight> {
        self.bunches.dist(v, w)
    }

    /// The label of `v` in `T(root)`, if `v ∈ C(root)` and `root` keeps its
    /// members' labels, as a view into `T(root)`'s table: such a root stores
    /// them, so a header that carries one copies nothing. A root built with
    /// [`Labels::Drop`] answers `None` for every member.
    #[inline]
    pub fn label_in(&self, root: VertexId, v: VertexId) -> Option<TreeLabelView> {
        self.tree(root)?.label_view(v)
    }

    /// [`ClusterFamily::label_in`] where the scheme's invariants promise
    /// `v ∈ C(root)` and kept labels: a miss is
    /// [`RouteError::MissingInformation`].
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
    /// containing it and the labels its own tree keeps: every member's, or
    /// none for a root built with [`Labels::Drop`], which stores none.
    pub fn membership_words(&self, u: VertexId) -> usize {
        let trees = |w: VertexId| self.tree(w);
        let member_of: usize =
            self.bunch(u).filter_map(|(w, _)| trees(w)).map(|t| t.table_words(u)).sum();
        member_of + trees(u).map_or(0, |t| t.labels_words())
    }

    /// Bytes of heap the trees and bunches hold, by capacity.
    pub fn heap_bytes(&self) -> usize {
        self.trees.heap_bytes() + self.bunches.heap_bytes()
    }
}

/// Per vertex `u`, an id-sorted list of `(w, d)` pairs, one row of a
/// [`PackedRows`] a vertex, a probe being one binary search over adjacent
/// memory: a cluster family's members (the list of root `u` is `C(u)`,
/// `d = d(u, w)`, [`ClusterFamily::build`]) and its bunches (their
/// inversion, `d = d(w, u)` for every `w ∈ B(u)`, [`DistLists::invert`]),
/// Theorem 16's landmark lists (`d = d(u, w)` for the landmarks of `u`'s
/// vicinity, [`DistLists::from_rows`]), and Theorem 10's intersections
/// (`d` is no distance there but the intersection vertex of the pair
/// `(u, w)`). An entry is a record `[w, d]`: `w` in the bytes `n` needs,
/// `d` in the bytes the table's largest value needs (the members', whose
/// largest distance is not known before they are, in the bytes of a
/// bound). That is 4 bytes on a graph of up to 65,535 vertices whose
/// distances stay below 65,535, beside a 4-byte row end a vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistLists {
    /// Row `u` lists `[w, d]`, ascending `w`.
    lists: PackedRows<2>,
}

impl DistLists {
    /// The entry codec of lists over `n` vertices whose values are at most
    /// `max`.
    fn codec(n: usize, max: Weight) -> Result<SlotCodec<2>, BuildError> {
        let max = max.checked_add(1).ok_or_else(|| BuildError::TooSmall {
            what: "an infinite distance in a list".into(),
        })?;
        Ok(SlotCodec::new([bytes_for(n as u64), bytes_for(max)]))
    }

    /// Lists of `counts[u]` zeroed entries for each of `n` vertices, whose
    /// values are at most `max`.
    fn zeroed(n: usize, counts: Vec<usize>, max: Weight) -> Result<Self, BuildError> {
        Ok(DistLists { lists: PackedRows::zeroed(Self::codec(n, max)?, counts.into_iter())? })
    }

    /// The lists of no vertex yet, for ids below `n` and values of at most
    /// `max`, to [`push_row`](Self::push_row) to.
    pub(crate) fn empty(n: usize, max: Weight) -> Result<Self, BuildError> {
        Ok(DistLists { lists: PackedRows::new(Self::codec(n, max)?) })
    }

    /// Appends the list of the next vertex: `row`, ascending `w`.
    pub(crate) fn push_row(&mut self, row: impl IntoIterator<Item = (VertexId, Weight)>) -> Result<(), BuildError> {
        Ok(self.lists.push_row(row.into_iter().map(|(w, d)| [u64::from(w.0), d]))?)
    }

    /// Appends the vertices of `parts`, lists packed by the same codec, in
    /// order ([`PackedRows::append`]).
    fn append(&mut self, parts: Vec<DistLists>) -> Result<(), BuildError> {
        Ok(self.lists.append(parts.iter().map(|p| &p.lists))?)
    }

    /// Returns the growth slack.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.lists.shrink_to_fit();
    }

    /// The inverted lists: `(u, d)` in the list of `w` for every entry
    /// `(w, d)` in the list of `u`, by a counting sort over ascending `u`,
    /// so every list comes out id-sorted. Turns a cluster family's members
    /// into its bunches, `B(v) = {(w, d(w, v)) : v ∈ C(w)}`.
    ///
    /// # Errors
    ///
    /// [`BuildError::TooSmall`] if the entries outnumber a `u32` row end.
    pub fn invert(&self) -> Result<Self, BuildError> {
        let n = self.lists.len();
        let (mut counts, mut max) = (vec![0usize; n], 0);
        for [w, d] in self.lists.column().view().records::<u64>() {
            counts[w as usize] += 1;
            max = max.max(d);
        }
        let mut lists = Self::zeroed(n, counts, max)?;
        // A `u32` a row: no row holds more than the rows' `u32` ends.
        let mut next = vec![0u32; n];
        for u in (0..n).map(|u| VertexId(u as u32)) {
            for (w, d) in self.row(u) {
                lists.lists.set(w.index(), next[w.index()] as usize, [u64::from(u.0), d]);
                next[w.index()] += 1;
            }
        }
        Ok(lists)
    }

    /// The lists of `n` vertices, `row(u)` yielding the `(w, d)` of `u` in
    /// any order and at most once each: one pass counts, one fills the
    /// exact arrays, sorting each row by `w`.
    ///
    /// # Errors
    ///
    /// What `row` returns, and [`BuildError::TooSmall`] if the entries
    /// outnumber a `u32` row end.
    pub fn from_rows<I>(
        n: usize,
        row: impl Fn(VertexId) -> Result<I, BuildError>,
    ) -> Result<Self, BuildError>
    where
        I: Iterator<Item = (VertexId, Weight)>,
    {
        let (mut counts, mut max) = (Vec::with_capacity(n), 0);
        for u in (0..n).map(|u| VertexId(u as u32)) {
            counts.push(row(u)?.inspect(|&(_, d)| max = max.max(d)).count());
        }
        let mut lists = Self::zeroed(n, counts, max)?;
        let mut sorted = Vec::new();
        for u in 0..n {
            sorted.clear();
            sorted.extend(row(VertexId(u as u32))?);
            sorted.sort_unstable_by_key(|&(w, _)| w);
            for (k, &(w, d)) in sorted.iter().enumerate() {
                lists.lists.set(u, k, [u64::from(w.0), d]);
            }
        }
        Ok(lists)
    }

    /// `(w, d)` of every entry of `u`, in ascending `w`; none for a `u`
    /// outside `0..n`.
    pub fn row(&self, u: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let entries = self.lists.row(u.index()).into_iter().flat_map(PackedView::records::<u64>);
        entries.map(|[w, d]| (VertexId(<u32 as Field>::narrow(w)), d))
    }

    /// `d` of the entry `(w, d)` of `u`, if `u` lists `w`: one binary search.
    #[inline]
    pub fn dist(&self, u: VertexId, w: VertexId) -> Option<Weight> {
        let row = self.lists.row(u.index())?;
        Some(row.get::<u64>(row.search(w.0.into())?)?[1])
    }

    /// Entries of every list.
    pub fn len(&self) -> usize {
        self.lists.column().len()
    }

    /// True if no vertex lists anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes an entry: `w` at the id width, `d` at the value width.
    pub fn entry_bytes(&self) -> usize {
        self.lists.codec().width()
    }

    /// Bytes of heap the arrays hold, by capacity: a 4-byte row end a
    /// vertex, [`entry_bytes`](Self::entry_bytes) an entry and the pad.
    pub fn heap_bytes(&self) -> usize {
        self.lists.heap_bytes()
    }
}

/// Samples `Õ(n^{2/3})` Lemma 4 landmarks `A` (the density Theorems 10 and
/// 11 both prescribe) and builds the cluster family around them, every
/// cluster bounded by `d(·, A)` and of `O(n^{1/3})` vertices. Hands back the
/// landmarks, the family and its build-only member lists.
pub(crate) fn landmark_clusters<R: Rng>(
    g: &Graph,
    rng: &mut R,
) -> Result<(Landmarks, ClusterFamily, DistLists), BuildError> {
    let n = g.n();
    let s = ((n as f64).powf(2.0 / 3.0).ceil() as usize).clamp(1, n);
    let landmarks = sample_centers_bounded(g, s, rng);
    let (family, members) = ClusterFamily::build(g, |_| landmarks.bound_slice(), |_| Labels::Keep)?;
    Ok((landmarks, family, members))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_graph::generators::{self, Family, WeightModel};
    use routing_graph::SLOT_PAD;
    use routing_model::{simulate_lean_with_label, RoutingScheme};
    use routing_tree::TreeScheme;
    use routing_vicinity::BallEncoding;

    use crate::{BuildContext, SchemeFivePlusEps, SchemeMultilevel, SchemeTwoPlusEps};

    /// `kept` is what a built scheme holds on `g`, `direct` the stages'
    /// output before [`Vicinities::retain`]: the same ports, and of the
    /// vicinities nothing but the ports, within the budget `balls.rs` pins
    /// for them (hashed, `⌈4w/3⌉` bytes a member at `w` bytes a slot and 32
    /// a vertex; a rank bitmap, its [`BallEncoding::bytes`]), a colour a
    /// vertex in the bytes `q` needs and a representative a (vertex,
    /// colour) pair at the id width, and the two colour columns' pads.
    fn assert_same_vicinities(key: &str, g: &Graph, kept: &Vicinities, direct: &Vicinities<BallTable>) {
        assert_eq!(kept.q, direct.q, "{key}: q");
        assert_eq!(kept.balls, *direct.balls, "{key}: ports");
        let n = direct.balls.len();
        let members: usize = (0..n).map(|u| direct.balls.ball(VertexId(u as u32)).len()).sum();
        let ports = kept.balls.heap_bytes();
        let bound = match kept.balls.slot_bytes() {
            Some(width) => (4 * width).div_ceil(3) * members + 32 * n + 64,
            None => BallEncoding::Bitmap.bytes(n, kept.balls.ell(), SlotCodec::for_graph(g)),
        };
        assert!(ports <= bound, "{key}: {ports} B for {members} members");
        let reps = n * kept.q as usize;
        let (colour, id) = (usize::from(bytes_for(kept.q.into())), usize::from(bytes_for(n as u64)));
        assert_eq!(kept.color_of.codec().width(), colour, "{key}: colour width");
        let bytes = ports + colour * n + id * reps + 2 * SLOT_PAD;
        assert_eq!(kept.heap_bytes(), bytes, "{key}: vicinity bytes");
        assert_eq!(kept.color_of, direct.color_of, "{key}: colours");
        assert_eq!(kept.color_rep, direct.color_rep, "{key}: representatives");
    }

    /// The cluster stage equals the path it replaced under the same
    /// landmarks: `all_clusters` + `bunches`, and one `cluster_into` +
    /// `TreeScheme::from_scratch` a root.
    fn assert_reference_clusters(
        key: &str,
        g: &Graph,
        landmarks: &Landmarks,
        stage: &ClusterFamily,
        members: &DistLists,
    ) {
        let raw = routing_vicinity::all_clusters(g, landmarks);
        let bunches = routing_vicinity::bunches(g, &raw);
        let mut scratch = SearchScratch::for_graph(g);
        let trees: Vec<TreeScheme> = g
            .vertices()
            .map(|w| {
                scratch.cluster_into(g, w, landmarks.bound_slice());
                TreeScheme::from_scratch(g, &scratch).unwrap()
            })
            .collect();
        for u in g.vertices() {
            let mut cluster = raw[u.index()].clone();
            cluster.sort_unstable();
            assert_eq!(members.row(u).collect::<Vec<_>>(), cluster, "{key}: C({u})");
            let mut bunch = bunches[u.index()].clone();
            bunch.sort_unstable();
            assert_eq!(stage.bunch(u).collect::<Vec<_>>(), bunch, "{key}: B({u})");
            let words = trees[u.index()].labels_words()
                + bunch.iter().map(|&(w, _)| trees[w.index()].table_words(u)).sum::<usize>();
            assert_eq!(stage.membership_words(u), words, "{key}: words at {u}");
            let tree = stage.tree(u).unwrap();
            for v in g.vertices() {
                let reference = &trees[u.index()];
                assert_eq!(tree.node_info(v).as_ref(), reference.node_info(v), "{key}: {v} in T({u})");
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
            assert_eq!(tree.node_info(v).as_ref(), reference.node_info(v), "{key}: node of {v}");
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
    /// The forests are equal at one and four threads, and hold, with no
    /// growth slack, 12 bytes a tree, 4 a light-port row and, packed at the
    /// graph's width, a member id of a tree that does not span the graph
    /// (1 byte below 255 vertices, 2 from 255), a node record (four times
    /// at the bytes `0..=n` need, two ports at the bytes the largest degree
    /// needs) and a light port (an entry time and a port), each array closed
    /// by an 8-byte pad. The bunches hold a 4-byte row end a vertex, and an
    /// entry at the id width plus the bytes the largest bunch distance
    /// needs.
    #[test]
    fn every_forest_tree_equals_the_standalone_tree_of_its_search() {
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
                        let (landmarks, clusters, _) = landmark_clusters(&g, rng).unwrap();
                        let global = global_trees(&g, landmarks.members(), |_| Labels::Keep).unwrap();
                        built.push((landmarks, clusters, global));
                    }
                    routing_par::set_threads(routing_par::available_threads());
                    let (landmarks, clusters, global) = &built[0];
                    assert_eq!(clusters.trees, built[1].1.trees, "{key}: threads");
                    assert_eq!(*global, built[1].2, "{key}: threads, global trees");

                    let mut scratch = SearchScratch::for_graph(&g);
                    let bound = landmarks.bound_slice();
                    for w in g.vertices() {
                        scratch.cluster_into(&g, w, bound);
                        let reference = TreeScheme::from_scratch(&g, &scratch).unwrap();
                        let tree = clusters.tree(w).unwrap();
                        assert_same_tree(&format!("{key}: T({w})"), &g, tree, &reference);
                    }
                    let landmarks = landmarks.members();
                    assert_eq!(global.len(), landmarks.len(), "{key}: one global tree a landmark");
                    for (i, &a) in landmarks.iter().enumerate() {
                        scratch.dijkstra_into(&g, a);
                        let reference = TreeScheme::from_scratch(&g, &scratch).unwrap();
                        let tree = global.tree(i).unwrap();
                        assert_same_tree(&format!("{key}: global T({a})"), &g, tree, &reference);
                    }

                    let [_, port] = SlotCodec::for_graph(&g).bytes().map(usize::from);
                    let (id, time) = (usize::from(bytes_for(n as u64)), usize::from(bytes_for(n as u64 + 1)));
                    for forest in [&clusters.trees, global] {
                        let trees: Vec<TreeView> = forest.iter().collect();
                        let nodes: usize = trees.iter().map(|t| t.len()).sum();
                        let ids: usize = trees.iter().filter(|t| t.len() != n).map(|t| t.len()).sum();
                        let light: usize = trees.iter().map(|t| (t.labels_words() - t.len()) / 2).sum();
                        let packed = id * ids + (4 * time + 2 * port) * nodes + (id + port) * light;
                        let bytes = 12 * (trees.len() + 1) + 4 * nodes + packed + 3 * SLOT_PAD;
                        assert_eq!(forest.heap_bytes(), bytes, "{key}: forest bytes");
                    }
                    let bunches: Vec<_> = g.vertices().flat_map(|v| clusters.bunch(v)).collect();
                    let far = bunches.iter().map(|&(_, d)| d).max().unwrap_or(0);
                    let entry = id + usize::from(bytes_for(far + 1));
                    assert_eq!(clusters.bunches.entry_bytes(), entry, "{key}: bunch entries");
                    let family_bytes = clusters.trees.heap_bytes()
                        + 4 * n
                        + entry * bunches.len()
                        + SLOT_PAD;
                    assert_eq!(clusters.heap_bytes(), family_bytes, "{key}: family bytes");
                }
            }
        }
    }

    /// `DistLists::invert` as it read the 16-byte `(v, d(w, v))` member
    /// lists, one per root in settle order, before the members were packed.
    fn invert_pairs(clusters: &[Vec<(VertexId, Weight)>]) -> DistLists {
        let n = clusters.len();
        let (mut counts, mut max) = (vec![0usize; n], 0);
        for &(v, d) in clusters.iter().flatten() {
            counts[v.index()] += 1;
            max = max.max(d);
        }
        let mut lists = DistLists::zeroed(n, counts, max).unwrap();
        let mut next = vec![0; n];
        for (w, members) in clusters.iter().enumerate() {
            for &(v, d) in members {
                lists.lists.set(v.index(), next[v.index()], [w as u64, d]);
                next[v.index()] += 1;
            }
        }
        lists
    }

    /// A cluster family's packed members are every cluster, id-sorted, and
    /// the bunches inverted from them equal, bytes included, the inversion
    /// of the 16-byte pairs each root's search gives — on every family, unit
    /// and weighted, around the 64-root block boundary, under a Lemma 4
    /// bound with every fifth root unbounded (clusters spanning the graph,
    /// as at the top of a Thorup–Zwick hierarchy), at one and four threads.
    #[test]
    fn bunches_from_packed_members_equal_the_inversion_of_the_pairs() {
        for family in Family::ALL {
            for weights in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 1000 }] {
                for n in [63, 64, 65, 130] {
                    let g = family.generate(n, weights, &mut StdRng::seed_from_u64(n as u64));
                    let key = format!("{} {weights:?} n = {}", family.name(), g.n());
                    let s = (g.n() as f64).powf(2.0 / 3.0).ceil() as usize;
                    let landmarks = sample_centers_bounded(&g, s, &mut StdRng::seed_from_u64(9));
                    let unbounded = vec![routing_graph::INFINITY; g.n()];
                    let bound = |w: VertexId| {
                        if w.0 % 5 == 0 { &unbounded[..] } else { landmarks.bound_slice() }
                    };
                    let mut scratch = SearchScratch::for_graph(&g);
                    let pairs: Vec<Vec<(VertexId, Weight)>> = g
                        .vertices()
                        .map(|w| {
                            scratch.cluster_into(&g, w, bound(w));
                            scratch.order().to_vec()
                        })
                        .collect();
                    let want = invert_pairs(&pairs);
                    for threads in [1, 4] {
                        routing_par::set_threads(threads);
                        let (family, members) = ClusterFamily::build(&g, bound, |_| Labels::Keep).unwrap();
                        let key = format!("{key}, {threads} threads");
                        for (w, cluster) in g.vertices().zip(&pairs) {
                            let mut cluster = cluster.clone();
                            cluster.sort_unstable();
                            assert_eq!(members.row(w).collect::<Vec<_>>(), cluster, "{key}: C({w})");
                        }
                        assert_eq!(family.bunches, want, "{key}: bunches");
                        assert_eq!(family.bunches.heap_bytes(), want.heap_bytes(), "{key}: bytes");
                    }
                    routing_par::set_threads(routing_par::available_threads());
                }
            }
        }
    }

    /// A forest built a round of roots at a time equals, `heap_bytes`
    /// included, the forest its chunks appended at once give: one chunk a
    /// root, appended in one call, as the build did before it appended by
    /// rounds. On global trees and a cluster family of 130 roots (rounds of
    /// 17, the last of 11), at one, two and four threads.
    #[test]
    fn a_forest_built_by_rounds_equals_its_chunks_appended_at_once() {
        let all_at_once = |g: &Graph, search: &dyn Fn(&mut SearchScratch, VertexId)| {
            let mut scratch = SearchScratch::for_graph(g);
            let chunks: Vec<TreeForest> = g
                .vertices()
                .map(|r| {
                    let mut chunk = TreeForest::new(g);
                    search(&mut scratch, r);
                    chunk.push_scratch(g, &scratch).unwrap();
                    chunk.shrink_to_fit();
                    chunk
                })
                .collect();
            let mut forest = TreeForest::new(g);
            forest.append(chunks).unwrap();
            forest
        };
        for weights in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 9 }] {
            let g = Family::Geometric.generate(130, weights, &mut StdRng::seed_from_u64(4));
            assert_ne!(g.n() % g.n().div_ceil(ROUNDS), 0, "the last round is short");
            let landmarks = sample_centers_bounded(&g, 25, &mut StdRng::seed_from_u64(2));
            let bound = landmarks.bound_slice();
            let global = all_at_once(&g, &|scratch, r| scratch.dijkstra_into(&g, r));
            let clusters = all_at_once(&g, &|scratch, r| scratch.cluster_into(&g, r, bound));
            let roots: Vec<VertexId> = g.vertices().collect();
            for threads in [1, 2, 4] {
                routing_par::set_threads(threads);
                let key = format!("{weights:?}, {threads} threads");
                let by_rounds = global_trees(&g, &roots, |_| Labels::Keep).unwrap();
                assert_eq!(by_rounds, global, "{key}: global trees");
                assert_eq!(by_rounds.heap_bytes(), global.heap_bytes(), "{key}: global bytes");
                let (family, _) = ClusterFamily::build(&g, |_| bound, |_| Labels::Keep).unwrap();
                assert_eq!(family.trees, clusters, "{key}: cluster trees");
                assert_eq!(family.trees.heap_bytes(), clusters.heap_bytes(), "{key}: cluster bytes");
            }
            routing_par::set_threads(routing_par::available_threads());
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
            assert_same_vicinities(key, &weighted, &kept.unwrap().vic, &direct.unwrap());
        }

        let ell = params.scaled(4, 60);
        let thm10 = SchemeTwoPlusEps::build(&unit, &params, &mut ctx.rng()).unwrap();
        let mut rng = ctx.rng();
        let (landmarks, _, members) = landmark_clusters(&unit, &mut rng).unwrap();
        let vic = Vicinities::balls(&unit, ell, BallDists::Keep);
        let direct = vic.colour(ell, 4, &params, &mut rng).unwrap();
        assert_same_vicinities("thm10", &unit, &thm10.vic, &direct);
        let own: Vec<VertexId> = unit.vertices().filter(|&v| thm10.label_of(v).p_a == v).collect();
        assert_eq!(own, landmarks.members(), "thm10: landmarks");
        assert_reference_clusters("thm10", &unit, &landmarks, &thm10.clusters, &members);

        let thm11 = SchemeFivePlusEps::build(&weighted, &params, &mut ctx.rng()).unwrap();
        let mut rng = ctx.rng();
        let (landmarks, _, members) = landmark_clusters(&weighted, &mut rng).unwrap();
        let vic = Vicinities::balls(&weighted, ell, BallDists::Skip);
        let direct = vic.colour(ell, 4, &params, &mut rng).unwrap();
        assert_same_vicinities("thm11", &weighted, &thm11.vic, &direct);
        let own: Vec<VertexId> = weighted.vertices().filter(|&v| thm11.label_of(v).p_a == v).collect();
        assert_eq!(own, landmarks.members(), "thm11: landmarks");
        assert_reference_clusters("thm11", &weighted, &landmarks, &thm11.clusters, &members);

        for family in Family::ALL {
            for weights in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 32 }] {
                for n in [2, 63, 64, 65, 130] {
                    let g = family.generate(n, weights, &mut StdRng::seed_from_u64(n as u64));
                    for threads in [1, 4] {
                        routing_par::set_threads(threads);
                        let (landmarks, clusters, members) = landmark_clusters(&g, &mut ctx.rng()).unwrap();
                        let key = format!("{} {weights:?} n={n} x{threads}", family.name());
                        assert_reference_clusters(&key, &g, &landmarks, &clusters, &members);
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

    /// The packed colours and representatives equal the `Vec` layout they
    /// replaced, rebuilt test-locally — a 4-byte colour a vertex, and a
    /// 4-byte representative a (vertex, colour) pair, the first member of
    /// the colour in settle order or the vertex itself — through every
    /// reader (`color`, `colours`, `reps_at`, `rep`), at 2-byte ids
    /// (n = 300, every family) and 3-byte ids (a 65,600-vertex grid), and
    /// at one and two bytes a colour (q = 255 and 256). A colour past
    /// `0..q` and a vertex past `0..n` answer as the vectors' bounds did.
    #[test]
    fn packed_colours_equal_the_vectors_they_replaced() {
        let mut cases: Vec<(String, Graph, u32)> = Family::ALL
            .into_iter()
            .map(|f| (f.name().to_string(), f.generate(300, WeightModel::Unit, &mut StdRng::seed_from_u64(3)), 7))
            .collect();
        cases.push(("grid q=255".into(), generators::grid(18, 18), 255));
        cases.push(("grid q=256".into(), generators::grid(18, 18), 256));
        cases.push(("grid n=65,600".into(), generators::grid(328, 200), 41));
        for (key, g, q) in cases {
            let n = g.n();
            let ell = 6;
            let color_of: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(2_654_435_761) % q).collect();
            let vic = Vicinities::balls(&g, ell, BallDists::Skip).coloured_by(color_of.iter().copied(), q);
            // The vectors, as the stage kept them.
            let mut reps = Vec::with_capacity(n * q as usize);
            for u in g.vertices() {
                let row = reps.len();
                reps.resize(row + q as usize, u);
                let mut found = vec![false; q as usize];
                for v in vic.balls.ball(u).ids().iter() {
                    let c = color_of[v.index()] as usize;
                    if !found[c] {
                        found[c] = true;
                        reps[row + c] = v;
                    }
                }
            }
            let (colour_bytes, id_bytes) = (usize::from(q > 255) + 1, usize::from(bytes_for(n as u64)));
            assert_eq!(vic.color_of.codec().width(), colour_bytes, "{key}: colour width");
            assert_eq!(vic.color_rep.codec().width(), id_bytes, "{key}: id width");
            let colours: Vec<u32> = vic.color_of.view().iter().collect();
            assert_eq!(colours, color_of, "{key}: colours");
            for u in g.vertices() {
                assert_eq!(vic.color(u), color_of[u.index()], "{key}: colour of {u}");
                let row = &reps[u.index() * q as usize..][..q as usize];
                assert_eq!(vic.reps_at(u).iter().map(VertexId).collect::<Vec<_>>(), row, "{key}: reps at {u}");
            }
            let vic = vic.retain();
            for u in g.vertices().step_by(7) {
                for c in 0..q {
                    assert_eq!(vic.rep(u, c).ok(), Some(reps[u.index() * q as usize + c as usize]), "{key}");
                }
                assert!(matches!(vic.rep(u, q), Err(RouteError::BadLabel { .. })), "{key}: colour {q}");
            }
            let outside = VertexId(n as u32);
            assert_eq!((vic.color(outside), vic.reps_at(outside).len()), (u32::MAX, 0), "{key}");
            assert!(vic.rep(outside, 0).is_err(), "{key}: rep at {outside}");
            let bytes = vic.balls.heap_bytes() + colour_bytes * n + id_bytes * reps.len() + 2 * SLOT_PAD;
            assert_eq!(vic.heap_bytes(), bytes, "{key}: bytes");
        }
    }
}
