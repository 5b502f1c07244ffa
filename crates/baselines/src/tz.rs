//! The Thorup–Zwick machinery: the level hierarchy `A_0 ⊇ A_1 ⊇ ... ⊇ A_{k-1}`,
//! bunches and clusters, the `(4k−5)`-stretch compact routing scheme \[21\]
//! and the `(2k−1)`-stretch distance oracle \[22\].
//!
//! These are the baselines of the paper's Table 1 (`k=2` gives the 3-stretch
//! `Õ(√n)`-space routing scheme, `k=3` the 7-stretch `Õ(n^{1/3})`-space
//! scheme) and the substrate reused by Theorem 16. The paper's introduction
//! frames `(2k−1)`-spanners with `O(n^{1+1/k})` edges, the `(2k−1)` oracle
//! and the `(4k−5)` routing scheme as three views of one stretch/space
//! trade-off; only the last two are built here, since a spanner still needs
//! `Θ(n)`-word next-hop tables to route on.
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
//! distance and `v`'s label in `T(p_i(v))`, for every `i`, packed at the
//! graph's width, the labels' light ports in a column of their own beside
//! the rows), and it is charged the words of the ladder it stands for. The distance oracle answers from bunches and that row
//! with the classic ping-pong scan, returning `d̂(u, v) ≤ (2k−1)·d(u, v)` in
//! `O(k)` time.
//!
//! # Storage and the `4k−5` argument
//!
//! Every member of `C(w)` stores its `O(1)` words of `T(w)` routing
//! information, but `w` stores its members' tree labels only where the
//! scheme reads them there, so the tables stay within `Õ(n^{1/k})`:
//!
//! * a **level-0** root keeps the label of every member of `C(w)`, which
//!   Lemma 4 bounds by `4n^{1/k}` — the own-cluster shortcut below reads
//!   them;
//! * any **other** root keeps none ([`Labels::Drop`]): the only labels the
//!   scheme reads in its tree are those its members' ladders point to, the
//!   labels of the `v` with `p_i(v) = w`, and those are part of `v`'s
//!   routing label — the ladder row carries them, and
//!   [`RoutingScheme::label_words`] charges them. A top-level root's
//!   cluster is all of `V`, so keeping every label there would cost `n`.
//!
//! A dropped label is gone from the tree and reads as `None`, and
//! [`TzHierarchy::table_words`] charges the kept ones only. The own-cluster
//! shortcut — `v ∈ C(u)`: route on `T(u)` exactly — is therefore taken
//! from a level-0 source only, which keeps `4k−5`. All the analysis takes
//! from the shortcut is that, when it is not taken, `d(v, A_1) ≤ d(u, v)`.
//! For a level-0 source `u ∉ A_1` that holds since `v ∉ C(u)` means
//! `d(u, v) ≥ d(v, A_1)`. For a source `u ∈ A_1` it holds with no shortcut
//! at all: `d(u, A_1) = 0`, so `d(v, A_1) ≤ d(v, u) + d(u, A_1) = d(u, v)`.
//! From there each unsuccessful rung `i` gives
//! `d(v, A_{i+1}) ≤ d(v, A_i) + 2·d(u, v)`, so `d(v, A_i) ≤ (2i−1)·d(u, v)`
//! for `i ≥ 1`, and the route through `w = p_i(v)` costs at most
//! `d(u, w) + d(w, v) ≤ d(u, v) + 2·d(v, A_i) ≤ (4i−1)·d(u, v)`, at most
//! `(4k−5)·d(u, v)` at `i = k−1`.
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
use routing_graph::codec::bytes_for;
use routing_graph::{Graph, PackedColumn, SlotCodec, VertexId, Weight, INFINITY};
use routing_model::{Decision, HeaderSize, RouteError, RoutingScheme};
use routing_tree::{Labels, TreeLabelView, TreeView};
use routing_vicinity::{sample_centers_bounded, Landmarks};

/// One rung of a vertex `v`'s pivot ladder: `(p_i(v), d(v, A_i))` and the
/// label of `v` in `T(p_i(v))`, [`ClusterLabel::ABSENT`] if it has none.
pub type Rung = ((VertexId, Weight), ClusterLabel);

/// A destination's label in a cluster tree `T(w)`, and where its light
/// ports are kept: in `T(w)` itself, which keeps every member's label when
/// `w` is of level 0, or beside the destination's ladder row. `Copy`, and
/// charged the words of the tree label it stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterLabel {
    /// The tree label's entry time and light-port count.
    pub view: TreeLabelView,
    /// The first of its light ports in the ladder's column, or [`IN_TREE`].
    light_at: u32,
}

/// [`ClusterLabel::light_at`] of a label whose light ports are `T(w)`'s.
const IN_TREE: u32 = u32::MAX;

impl ClusterLabel {
    /// The label of a vertex the tree does not contain.
    pub const ABSENT: ClusterLabel = ClusterLabel { view: TreeLabelView::ABSENT, light_at: IN_TREE };

    /// A label whose light ports the cluster tree keeps.
    pub fn in_tree(view: TreeLabelView) -> Self {
        ClusterLabel { view, light_at: IN_TREE }
    }

    /// True for the label of a vertex the tree does not contain.
    pub fn is_absent(&self) -> bool {
        self.view == TreeLabelView::ABSENT
    }

    /// Size in `O(log n)`-bit words of the tree label it stands for.
    pub fn words(&self) -> usize {
        self.view.words()
    }
}

/// The Thorup–Zwick level hierarchy with pivots, bunches and cluster trees.
#[derive(Debug, Clone)]
pub struct TzHierarchy {
    k: usize,
    /// Row-major `n × k`: record `v·k + i` is rung `i` of `v`'s ladder, so a
    /// query reads one contiguous row. Rung 0 is `((v, 0), label in T(v))`.
    /// A rung is `[p_i(v), d(v, A_i), tin, light end]` packed at the
    /// graph's width ([`ladder_codec`]), where the label's light ports are
    /// `ladder_light[end of the record before..light end]`: 9 bytes on the
    /// `t2-geo-direct` graph, where the decoded [`Rung`] is 32.
    ladder: PackedColumn<4>,
    /// The light ports of every rung's label, rung after rung, at the
    /// graph's `[vertex, port]` width (an entry time fits a vertex field).
    ladder_light: PackedColumn<2>,
    /// The highest level that contains each vertex: below `k ≤ 255`, one
    /// byte a vertex.
    level_of: Vec<u8>,
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

/// How a ladder packs its rungs on an `n`-vertex graph whose pivot
/// distances stay at or below `far` and whose labels list `light` light
/// ports in all: a pivot and an entry time in the bytes `n` needs (the
/// absent label's entry time is the sentinel), the distance in the bytes
/// `far` needs, and the end of the rung's light ports in the bytes `light`
/// needs.
fn ladder_codec(n: usize, far: Weight, light: usize) -> SlotCodec<4> {
    let id = bytes_for(n as u64);
    SlotCodec::new([id, bytes_for(far.saturating_add(1)), id, bytes_for(light as u64 + 1)])
}

/// `v`'s pivots `(p_i(v), d(v, A_i))` for `i` in `0..k`, the levels above
/// 0 being `upper`, into `out`: `(v, 0)` at level 0, the nearest landmark
/// of each level above (`(v, INFINITY)` where none is reached), and under
/// Thorup–Zwick's tie inheritance — when `d(v, A_i) = d(v, A_{i+1})` the
/// higher level's pivot, so that `v` lies in the cluster of each of its
/// pivots.
fn pivots_into(upper: &[Landmarks], v: VertexId, out: &mut Vec<(VertexId, Weight)>) {
    out.clear();
    out.push((v, 0));
    out.extend(upper.iter().map(|a| (a.nearest(v).unwrap_or(v), a.dist_to_set(v).unwrap_or(INFINITY))));
    for i in (1..out.len().saturating_sub(1)).rev() {
        if out[i].1 == out[i + 1].1 {
            out[i] = out[i + 1];
        }
    }
}

impl TzHierarchy {
    /// Builds the hierarchy for parameter `k ≥ 2`: [`TzLevels::sample`],
    /// then [`TzHierarchy::from_levels`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::BadParameter`] unless `2 ≤ k ≤ 255`,
    /// [`BuildError::TooSmall`] on an empty graph and
    /// [`BuildError::Disconnected`] on a disconnected one.
    pub fn build<R: Rng>(g: &Graph, k: usize, rng: &mut R) -> Result<Self, BuildError> {
        Self::from_levels(g, TzLevels::sample(g, k, rng)?)
    }

    /// Finishes the hierarchy over levels sampled for `g`: the cluster
    /// family and the ladder rows, whose pivots are read off the levels'
    /// landmarks a vertex at a time. Draws nothing, so a caller may run
    /// other builds between sampling the levels and finishing them.
    ///
    /// A level-0 root keeps the label of every member of its cluster, which
    /// Lemma 4 bounds by `4n^{1/k}`; any other root keeps none
    /// ([`TzHierarchy::keeps_every_label`]). The labels the ladders point
    /// to, `v`'s in `T(p_i(v))`, are read off the trees' node records
    /// ([`TreeView::label_in_graph`]) into the ladder rows.
    ///
    /// # Errors
    ///
    /// [`BuildError::TooSmall`] if a cluster tree cannot be laid out, which
    /// a well-formed search never produces, and
    /// [`BuildError::Inconsistent`] if a ladder's light ports outnumber a
    /// `u32` offset.
    pub fn from_levels(g: &Graph, levels: TzLevels) -> Result<Self, BuildError> {
        let n = g.n();
        let upper = levels.upper;
        let k = upper.len() + 1;
        let mut level_of = vec![0u8; n];
        for (i, a) in (1u8..).zip(&upper) {
            for &v in a.members() {
                level_of[v.index()] = i;
            }
        }

        // The cluster of a level-`i` root is bounded by `d(·, A_{i+1})`; the
        // top level's is unbounded. Only a level-0 root keeps its members'
        // labels.
        let unbounded = vec![INFINITY; n];
        let (clusters, _) = ClusterFamily::build(
            g,
            |w| upper.get(usize::from(level_of[w.index()])).map_or(&unbounded[..], Landmarks::bound_slice),
            |w| if level_of[w.index()] == 0 { Labels::Keep } else { Labels::Drop },
        )?;

        // One row per vertex: its pivots, read off the levels' landmarks,
        // beside its labels in their trees, whose light ports go to a
        // column of their own.
        let _span = routing_obs::span("ladder");
        let mut ladder_light = PackedColumn::new(SlotCodec::for_graph(g));
        let (mut labels, mut ports, mut rungs) = (Vec::with_capacity(n * k), Vec::new(), Vec::with_capacity(k));
        for v in g.vertices() {
            pivots_into(&upper, v, &mut rungs);
            for &(p, _) in &rungs {
                let tree = clusters.tree(p);
                let tin = match tree.and_then(|t| t.label_in_graph(g, v, &mut ports)) {
                    Some(tin) => {
                        ports.iter().for_each(|&(t, port)| ladder_light.push([t, port.0]));
                        tin
                    }
                    None => u32::MAX,
                };
                let end = u32::try_from(ladder_light.len()).map_err(|_| BuildError::Inconsistent {
                    what: "the ladders' light ports outnumber a u32 offset".into(),
                })?;
                labels.push([tin, end]);
            }
        }
        ladder_light.shrink_to_fit();
        // Tie inheritance moves pivots, never distances: the farthest pivot
        // is the farthest landmark of any level.
        let reached = g.vertices().flat_map(|v| upper.iter().filter_map(move |a| a.dist_to_set(v)));
        let far = reached.max().unwrap_or(0);
        let mut ladder = PackedColumn::with_capacity(ladder_codec(n, far, ladder_light.len()), n * k);
        let mut labels = labels.into_iter();
        for v in g.vertices() {
            pivots_into(&upper, v, &mut rungs);
            for (&(p, d), [tin, end]) in rungs.iter().zip(labels.by_ref()) {
                ladder.push([u64::from(p.0), d, tin.into(), end.into()]);
            }
        }
        Ok(TzHierarchy { k, ladder, ladder_light, level_of, clusters })
    }

    /// What [`TzHierarchy::build`] refuses before any work:
    /// [`BuildError::BadParameter`] unless `2 ≤ k ≤ 255` (a level is one
    /// byte), [`BuildError::TooSmall`] on an empty graph and
    /// [`BuildError::Disconnected`] on a disconnected one.
    pub(crate) fn check(g: &Graph, k: usize) -> Result<(), BuildError> {
        if !(2..=255).contains(&k) {
            return Err(BuildError::BadParameter {
                what: format!("thorup-zwick hierarchy needs 2 <= k <= 255, got {k}"),
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

    /// The highest level containing `v`: `v ∈ A_i ⇔ level_of(v) ≥ i`.
    pub fn level_of(&self, v: VertexId) -> usize {
        usize::from(self.level_of[v.index()])
    }

    /// True if `w`'s tree keeps every member's label: `w` is a vertex of
    /// level 0, whose cluster Lemma 4 bounds. Every other root keeps none,
    /// so the `4k−5` scheme takes the own-cluster shortcut from a level-0
    /// source only.
    #[inline]
    pub fn keeps_every_label(&self, w: VertexId) -> bool {
        self.level_of.get(w.index()) == Some(&0)
    }

    /// `(p_i(v), d(v, A_i))`; `(v, ∞)` for an `i` or `v` out of range.
    #[inline]
    pub fn pivot(&self, i: usize, v: VertexId) -> (VertexId, Weight) {
        let rung = (i < self.k).then(|| self.rung(v.index() * self.k + i)).flatten();
        rung.map_or((v, INFINITY), |(pivot, _)| pivot)
    }

    /// Record `at` of the ladder, decoded: its light ports start where the
    /// record before it ends.
    #[inline]
    fn rung(&self, at: usize) -> Option<Rung> {
        let [p, d, tin, end] = self.ladder.get::<u64>(at)?;
        let before = at.checked_sub(1).and_then(|before| self.ladder.get::<u64>(before));
        let start = before.map_or(0, |[.., end]| end);
        let tin = u32::try_from(tin).unwrap_or(u32::MAX);
        let view = TreeLabelView { tin, light_len: end.saturating_sub(start) as u32 };
        Some(((VertexId(p as u32), d), ClusterLabel { view, light_at: start as u32 }))
    }

    /// One routing step at `at` on `T(root)` towards the holder of `label`,
    /// whose light ports are read where it keeps them.
    ///
    /// # Errors
    ///
    /// As [`ClusterFamily::step`].
    #[inline]
    pub fn step(&self, root: VertexId, at: VertexId, label: ClusterLabel) -> Result<Decision, RouteError> {
        if label.light_at == IN_TREE {
            return self.clusters.step(root, at, label.view);
        }
        let tree = self.clusters.tree(root).ok_or_else(|| RouteError::MissingInformation {
            at,
            what: format!("no cluster tree rooted at {root}"),
        })?;
        let start = label.light_at as usize;
        let light = self.ladder_light.slice(start..start + label.view.light_len as usize);
        let light = light.ok_or_else(|| RouteError::MissingInformation {
            at,
            what: "the label's light ports lie past the ladders'".into(),
        })?;
        tree.step_ports(at, label.view.tin, light)
    }

    /// The bunch `B(v)` with distances, decoded, in ascending id order.
    pub fn bunch(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
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

    /// The pivot ladder of `v`, one contiguous row decoded as it is read:
    /// for `i = 0..k`, `(p_i(v), d(v, A_i))` and the label of `v` in
    /// `T(p_i(v))`, its light ports kept beside the row. Tie inheritance
    /// puts `v` in every pivot's cluster; a label that is missing anyway is
    /// [`ClusterLabel::ABSENT`]. Empty for a `v` outside `0..n`.
    #[inline]
    pub fn ladder(&self, v: VertexId) -> impl Iterator<Item = Rung> + '_ {
        let row = if v.index() < self.n() { v.index() * self.k..(v.index() + 1) * self.k } else { 0..0 };
        row.map_while(|at| self.rung(at))
    }

    /// Words the routing table of `v` holds: its bunch with distances, the
    /// tree-routing information of every cluster containing it, the labels
    /// its own tree keeps, and its `k` pivots with distances.
    pub fn table_words(&self, v: VertexId) -> usize {
        2 * self.bunch(v).count() + self.clusters.membership_words(v) + 2 * self.k
    }

    /// Bytes of heap the hierarchy holds, by capacity: the packed ladder
    /// rows and their light ports, the level of every vertex and the
    /// cluster family.
    pub fn heap_bytes(&self) -> usize {
        self.ladder.heap_bytes()
            + self.ladder_light.heap_bytes()
            + self.level_of.capacity()
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
        2 * self.hierarchy.bunch(v).count() + 2 * self.hierarchy.k()
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
    label: ClusterLabel,
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
            let label = ClusterLabel::in_tree(TreeLabelView { tin: 0, light_len: 0 });
            return Ok(TzHeader { root: v, label });
        }
        // 4k-5 improvement: if v is in a level-0 source's own cluster, route
        // on the source's cluster tree with the label stored at the source.
        // A source in A_1 needs no shortcut (see the module docs).
        let clusters = self.hierarchy.clusters();
        if self.hierarchy.keeps_every_label(source) {
            if let Some(view) = clusters.label_in(source, v) {
                routing_obs::counters::ROUTING_PHASE_TREE.inc();
                return Ok(TzHeader { root: source, label: ClusterLabel::in_tree(view) });
            }
        }
        for ((w, _), label) in self.hierarchy.ladder(v) {
            if w == source || clusters.bunch_dist(source, w).is_some() {
                if label.is_absent() {
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
        self.hierarchy.step(header.root, at, header.label)
    }

    fn table_words(&self, v: VertexId) -> usize {
        self.hierarchy.table_words(v)
    }

    /// `v`, its `k` pivots and its `k` tree labels.
    fn label_words(&self, v: VertexId) -> usize {
        1 + self.hierarchy.ladder(v).map(|(_, label)| 1 + label.words()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_graph::apsp::DistanceMatrix;
    use routing_graph::generators::{self, WeightModel};
    use routing_graph::SLOT_PAD;
    use routing_model::simulate;
    use routing_tree::TreeLabel;

    fn weighted_graph(n: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::erdos_renyi(n, 0.07, WeightModel::Uniform { lo: 1, hi: 10 }, &mut rng)
    }

    /// The level `A_i`, sorted: every vertex whose highest level is `i` or
    /// above.
    fn level(g: &Graph, h: &TzHierarchy, i: usize) -> Vec<VertexId> {
        g.vertices().filter(|&v| h.level_of(v) >= i).collect()
    }

    #[test]
    fn hierarchy_levels_are_nested_and_nonempty() {
        let g = weighted_graph(80, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let h = TzHierarchy::build(&g, 3, &mut rng).unwrap();
        assert_eq!(h.k(), 3);
        assert_eq!(level(&g, &h, 0).len(), 80);
        for i in 1..3 {
            assert!(!level(&g, &h, i).is_empty());
        }
        // Pivot at level 0 is the vertex itself; every pivot lies in its level.
        for v in g.vertices() {
            assert_eq!(h.pivot(0, v), (v, 0));
            assert!(h.level_of(v) < 3);
            assert!((1..3).all(|i| h.level_of(h.pivot(i, v).0) >= i), "p_i({v}) outside A_i");
        }
    }

    /// The per-level reading the ladder rows replaced: `(p_i(v), d(v, A_i))`
    /// from a landmark search over each level `A_i`, under tie inheritance,
    /// and `v`'s label in `T(p_i(v))` of `all`, a cluster family over the
    /// hierarchy's bounds that keeps every label.
    fn per_level_ladder(
        g: &Graph,
        h: &TzHierarchy,
        all: &ClusterFamily,
        v: VertexId,
    ) -> Vec<((VertexId, Weight), Option<TreeLabel>)> {
        let k = h.k();
        let mut pivots = vec![(v, 0)];
        for i in 1..k {
            let a = Landmarks::new(g, level(g, h, i));
            pivots.push((a.nearest(v).unwrap_or(v), a.dist_to_set(v).unwrap_or(INFINITY)));
        }
        for i in (1..k - 1).rev() {
            if pivots[i].1 == pivots[i + 1].1 {
                pivots[i] = pivots[i + 1];
            }
        }
        pivots.into_iter().map(|(p, d)| ((p, d), all.tree(p).and_then(|t| t.label(v)))).collect()
    }

    /// The hierarchy's cluster family rebuilt keeping every root's labels.
    fn keeping_every_label(g: &Graph, h: &TzHierarchy) -> ClusterFamily {
        let uppers: Vec<Landmarks> = (1..h.k()).map(|i| Landmarks::new(g, level(g, h, i))).collect();
        let unbounded = vec![INFINITY; g.n()];
        let bound = |w: VertexId| uppers.get(h.level_of(w)).map_or(&unbounded[..], Landmarks::bound_slice);
        ClusterFamily::build(g, bound, |_| Labels::Keep).unwrap().0
    }

    /// A rung's label with its light ports, read where the ladder keeps them.
    fn ladder_label(h: &TzHierarchy, label: ClusterLabel) -> Option<TreeLabel> {
        let start = label.light_at as usize;
        let ports = (start..start + label.view.light_len as usize).map(|i| h.ladder_light.get::<u32>(i).unwrap());
        let light_ports = ports.map(|[t, port]| (t, routing_graph::Port(port))).collect();
        (!label.is_absent()).then_some(TreeLabel { tin: label.view.tin, light_ports })
    }

    /// Each vertex's ladder row, and `pivot(i, v)`, equal the per-level
    /// reading, its labels those of trees that keep every label: ER,
    /// geometric and grid graphs, unit and weighted, around a power of two,
    /// for `k ∈ {2, 3}`. Only the level-0 trees keep labels themselves.
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
                        let all = keeping_every_label(&g, &h);
                        let (mut far, mut light) = (0, 0);
                        for v in g.vertices() {
                            let key = format!("{family:?} n = {n} k = {k}: {v}");
                            let reference = per_level_ladder(&g, &h, &all, v);
                            let ladder: Vec<_> = h.ladder(v).map(|(p, label)| (p, ladder_label(&h, label))).collect();
                            assert_eq!(ladder, reference, "{key}");
                            for (i, (pivot, label)) in reference.iter().enumerate() {
                                assert_eq!(h.pivot(i, v), *pivot, "{key}");
                                assert!(label.is_some(), "{key}: {v} lies in the cluster of p_{i}");
                                far = far.max(pivot.1);
                                light += label.as_ref().map_or(0, |l| l.light_ports.len());
                            }
                            assert_eq!(h.keeps_every_label(v), h.level_of(v) == 0, "{key}");
                            assert_eq!(h.clusters().tree(v).unwrap().keeps_labels(), h.level_of(v) == 0, "{key}");
                        }
                        assert_eq!(h.ladder(VertexId(g.n() as u32)).count(), 0);
                        assert_eq!(h.pivot(k, VertexId(0)), (VertexId(0), INFINITY));
                        // A rung packs a pivot and an entry time at the id
                        // width, a distance in the bytes the farthest pivot
                        // needs and the end of its light ports in the bytes
                        // all of them need; a light port is 2 bytes here.
                        let id = usize::from(bytes_for(g.n() as u64));
                        let rung = 2 * id + usize::from(bytes_for(far + 1)) + usize::from(bytes_for(light as u64 + 1));
                        assert_eq!(h.ladder.codec().width(), rung);
                        assert_eq!(h.ladder.heap_bytes(), rung * g.n() * k + SLOT_PAD, "no growth slack");
                        assert_eq!(h.ladder_light.heap_bytes(), 2 * light + SLOT_PAD, "no growth slack");
                        // The ladder, its light ports and a level-of byte a vertex.
                        let ladder = h.ladder.heap_bytes() + h.ladder_light.heap_bytes();
                        assert_eq!(h.heap_bytes(), ladder + g.n() + h.clusters().heap_bytes());
                    }
                }
            }
        }
    }

    /// Only a level-0 root keeps its members' labels: every other root's
    /// label reads `None` for every member, which still keeps its routing
    /// record. A vertex is charged exactly its bunch, its records in the
    /// trees that hold it, the labels its own tree keeps and its pivots.
    #[test]
    fn a_root_above_level_0_keeps_no_label_and_is_charged_none() {
        use generators::Family;
        for family in [Family::ErdosRenyi, Family::Geometric] {
            for k in [2, 3] {
                let g = family.generate(200, WeightModel::Uniform { lo: 1, hi: 9 }, &mut StdRng::seed_from_u64(3));
                let h = TzHierarchy::build(&g, k, &mut StdRng::seed_from_u64(k as u64)).unwrap();
                let all = keeping_every_label(&g, &h);
                let mut dropped = 0;
                for w in g.vertices() {
                    let (tree, full) = (h.cluster_tree(w).unwrap(), all.tree(w).unwrap());
                    let mut kept_words = 0;
                    for v in full.vertices() {
                        assert_eq!(tree.node_info(v), full.node_info(v), "{family:?}: {v} in T({w})");
                        let label = h.clusters().label_in(w, v);
                        if h.level_of(w) == 0 {
                            assert_eq!(label, full.label_view(v), "{family:?}: {v} in T({w})");
                        } else {
                            assert_eq!((label, tree.label(v)), (None, None), "{family:?}: {v} in T({w})");
                            dropped += 1;
                        }
                        kept_words += label.map_or(0, |l| l.words());
                    }
                    let records: usize = h.bunch(w).map(|(r, _)| h.cluster_tree(r).unwrap().table_words(w)).sum();
                    let want = 2 * h.bunch(w).count() + records + kept_words + 2 * k;
                    assert_eq!(h.table_words(w), want, "{family:?}: words at {w}");
                }
                assert!(dropped > 0, "{family:?}: no root above level 0");
            }
        }
    }

    /// The own-cluster shortcut is taken from a level-0 source only: from a
    /// source of a higher level the header is the ladder's first pivot
    /// whose cluster holds the source, also where the destination lies in
    /// the source's own cluster; and some such pair exists.
    #[test]
    fn no_source_above_level_0_takes_the_own_cluster_shortcut() {
        use generators::Family;
        let mut skipped = 0;
        for family in [Family::ErdosRenyi, Family::Geometric, Family::Grid] {
            let g = family.generate(130, WeightModel::Uniform { lo: 1, hi: 9 }, &mut StdRng::seed_from_u64(5));
            for k in [2, 3] {
                let scheme = TzRoutingScheme::build(&g, k, &mut StdRng::seed_from_u64(6)).unwrap();
                let h = scheme.hierarchy();
                for u in g.vertices().filter(|&u| h.level_of(u) > 0) {
                    for v in g.vertices().filter(|&v| v != u) {
                        let header = scheme.init_header(u, &scheme.label_of(v)).unwrap();
                        let mut ladder = h.ladder(v);
                        let want = ladder.find(|&((w, _), _)| w == u || h.clusters().bunch_dist(u, w).is_some()).unwrap();
                        assert_eq!((header.root, header.label), (want.0 .0, want.1), "{family:?} k = {k}: {u} -> {v}");
                        let in_own = h.clusters().bunch_dist(v, u).is_some();
                        skipped += usize::from(in_own && header.root != u);
                    }
                }
            }
        }
        assert!(skipped > 0, "no destination in a higher source's cluster is routed through a pivot");
    }

    /// A level is one byte a vertex, so `k` stops at 255.
    #[test]
    fn k_is_refused_past_255() {
        let g = generators::cycle(12);
        assert_eq!(TzHierarchy::check(&g, 255), Ok(()));
        for k in [0, 1, 256, usize::MAX] {
            let refused = TzHierarchy::build(&g, k, &mut StdRng::seed_from_u64(1));
            assert!(matches!(refused, Err(BuildError::BadParameter { .. })), "k = {k}");
        }
    }

    #[test]
    fn bunch_and_cluster_are_dual() {
        let g = weighted_graph(60, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let h = TzHierarchy::build(&g, 2, &mut rng).unwrap();
        let mut spt = routing_graph::SearchScratch::for_graph(&g);
        for v in g.vertices() {
            for (w, d) in h.bunch(v) {
                assert!(h.cluster_tree(w).unwrap().contains(v));
                spt.dijkstra_into(&g, w);
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
