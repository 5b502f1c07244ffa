//! Tree routing in the fixed-port model — **Lemma 3** of Roditty & Tov
//! (PODC 2015), following Thorup–Zwick (SPAA'01) and Fraigniaud–Gavoille.
//!
//! Lemma 3 (as used by the paper): *for every tree `T` there is a labeled
//! routing scheme that, given the label of a destination, routes on `T`
//! along the unique tree path, where every vertex stores `O(1)` words of
//! routing information and labels are `O(log² n / log log n)` bits.*
//!
//! Concretely: given a rooted tree `T` that is a subgraph of the host
//! graph, the scheme assigns every tree vertex a constant number of
//! `O(log n)`-bit words of *local* routing information ([`TreeNodeInfo`])
//! and an `O(log² n / log log n)`-bit *label* ([`TreeLabel`]), such that a
//! message can be routed from any tree vertex to any other along the unique
//! tree path using only the local information of the current vertex and the
//! destination's label.
//!
//! Lemma 3 is the workhorse the whole paper leans on: the Lemma 7/8
//! techniques in `routing-core` finish every route by switching into a
//! shortest-path-tree or cluster-tree segment routed with exactly this
//! scheme, and the Thorup–Zwick baseline in `routing-baselines` routes
//! inside every cluster `C(w)` the same way. They keep each family of
//! trees — a cluster family's `T(w)`, the shortest-path trees of a hitting
//! or landmark set — as one [`TreeForest`]: a handful of flat arrays for the
//! whole family and no per-tree object. Its member ids, node records and
//! light ports are packed at the graph's width — on a graph of up to 65,535
//! vertices and degree 255 a node record is 10 bytes, a light port 3 and an
//! id 2 — the light ports one [`routing_graph::PackedRows`] row a labelled
//! member, 4 bytes a row, beside 12 bytes a tree. A tree keeps its members'
//! labels or, pushed with [`Labels::Drop`], its node records only: a
//! scheme whose routes read a member's label elsewhere needs no copy in the
//! tree, and [`TreeView::label_in_graph`] reads one off the records. Three
//! families are pushed so: the Thorup–Zwick hierarchy's cluster trees above
//! level 0, whose labels sit beside each vertex's ladder row; Theorem 10's
//! landmark trees, whose one read label a vertex, in `T(p_A(v))`, sits
//! beside its landmark record; and Technique 1's hitting-set trees that no
//! stored sequence stops at, on which no route runs. Such a label's light
//! ports are packed at the graph's width like the tree's own, and
//! [`TreeView::step_ports`] steps on them. A tree is
//! looked up as a `Copy` [`TreeView`], whose bounded views of the columns
//! decode a record as it is read. Both carry
//! a [`TreeLabelView`] in their own labels and headers — the destination's
//! entry time and light-port count, a `Copy` view into the tree's own
//! light-port table — and take one hop with [`TreeView::step_view`].
//! [`TreeScheme`] is a named forest of one tree that keeps its records
//! decoded beside it; it, the owned [`TreeLabel`] and [`tree_route_step`]
//! on a [`TreeNodeInfo`] are the standalone form. Every form runs the one
//! build ([`TreeForest::push_parents`]) and the one step.
//!
//! The construction is the classic heavy-path one:
//!
//! * a DFS assigns every vertex an interval `[tin, tout)` covering its
//!   subtree;
//! * each internal vertex remembers the port and interval of its **heavy**
//!   child (the child with the largest subtree) plus the port to its parent;
//! * the label of `v` lists, for every **light** edge `(p, x)` on the path
//!   from the root to `v`, the pair `(tin(p), port at p towards x)`. Because
//!   subtree sizes at least halve across light edges there are `O(log n)`
//!   such entries.
//!
//! Routing at `u` towards `v`: deliver if `tin(v) = tin(u)`; go to the parent
//! if `v` is outside `u`'s interval; go to the heavy child if `v` is inside
//! its interval; otherwise the label contains the light port to take at `u`.
//!
//! The per-vertex structures ([`TreeNodeInfo`], [`TreeLabel`],
//! [`TreeLabelView`]) are public so the compact routing schemes of the paper
//! can account for them in their own tables and labels; [`TreeScheme`]
//! additionally implements [`RoutingScheme`] with owned labels so the tree
//! router can be tested standalone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Reverse;
use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use routing_graph::codec::{bytes_for, row_end, TooManyRecords};
use routing_graph::{Graph, PackedColumn, PackedRows, PackedView, Port, RowsView, SearchScratch, SlotCodec, VertexId};
use routing_model::{Decision, HeaderSize, RouteError, RoutingScheme};

/// Errors produced while building a tree router.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TreeBuildError {
    /// A parent edge is not present in the host graph.
    MissingEdge {
        /// The child endpoint.
        child: VertexId,
        /// The declared parent endpoint.
        parent: VertexId,
    },
    /// The parent relation does not form a single tree rooted at `root`
    /// (a cycle, a second component, or a vertex not reaching the root).
    NotATree {
        /// Description of the violation.
        what: String,
    },
}

impl fmt::Display for TreeBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeBuildError::MissingEdge { child, parent } => {
                write!(f, "tree edge ({child}, {parent}) is not an edge of the host graph")
            }
            TreeBuildError::NotATree { what } => write!(f, "parent relation is not a tree: {what}"),
        }
    }
}

impl Error for TreeBuildError {}

/// The port a [`TreeNodeInfo`] stores where there is no edge: at the root in
/// place of the parent port, at a leaf in place of the heavy child's. A
/// vertex has fewer than `u32::MAX` ports, so no real port equals it.
const NO_PORT: Port = Port(u32::MAX);

/// The constant-size local routing information a tree vertex stores, decoded:
/// six `u32`s, with a sentinel port standing for an absent parent or heavy
/// child. A [`TreeForest`] stores it packed at the graph's width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeNodeInfo {
    tin: u32,
    tout: u32,
    parent_port: Port,
    heavy_tin: u32,
    heavy_tout: u32,
    heavy_port: Port,
}

impl TreeNodeInfo {
    /// A slot the build has not entered yet: no entry time, no subtree, no
    /// edges. A heavy child's absent interval is empty.
    const UNVISITED: TreeNodeInfo = TreeNodeInfo {
        tin: u32::MAX,
        tout: 0,
        parent_port: NO_PORT,
        heavy_tin: 0,
        heavy_tout: 0,
        heavy_port: NO_PORT,
    };

    /// The record as a forest packs it: the four times, then the two ports.
    fn record(&self) -> [u32; 6] {
        let TreeNodeInfo { tin, tout, parent_port, heavy_tin, heavy_tout, heavy_port } = *self;
        [tin, tout, heavy_tin, heavy_tout, parent_port.0, heavy_port.0]
    }

    /// The record [`TreeNodeInfo::record`] packed, decoded.
    #[inline]
    fn from_record([tin, tout, heavy_tin, heavy_tout, parent, heavy]: [u32; 6]) -> Self {
        let (parent_port, heavy_port) = (Port(parent), Port(heavy));
        TreeNodeInfo { tin, tout, parent_port, heavy_tin, heavy_tout, heavy_port }
    }

    /// DFS entry time of this vertex.
    pub fn tin(&self) -> u32 {
        self.tin
    }

    /// DFS exit time: the subtree of this vertex is `[tin, tout)`.
    pub fn tout(&self) -> u32 {
        self.tout
    }

    /// Port towards the parent (`None` at the root).
    #[inline]
    pub fn parent_port(&self) -> Option<Port> {
        (self.parent_port != NO_PORT).then_some(self.parent_port)
    }

    /// `(tin, tout, port)` of the heavy child, if any.
    #[inline]
    pub fn heavy(&self) -> Option<(u32, u32, Port)> {
        (self.heavy_port != NO_PORT).then_some((self.heavy_tin, self.heavy_tout, self.heavy_port))
    }

    /// Size in `O(log n)`-bit words.
    pub fn words(&self) -> usize {
        2 + usize::from(self.parent_port().is_some()) + if self.heavy().is_some() { 3 } else { 0 }
    }

    /// True if `tin` falls inside this vertex's subtree interval.
    #[inline]
    pub fn subtree_contains(&self, tin: u32) -> bool {
        self.tin <= tin && tin < self.tout
    }
}

/// The label of a destination vertex in the tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeLabel {
    /// DFS entry time of the destination.
    pub tin: u32,
    /// For every light edge `(p, x)` on the root-to-destination path, the
    /// pair `(tin(p), port at p towards x)`, ordered from the root down.
    pub light_ports: Vec<(u32, Port)>,
}

impl TreeLabel {
    /// Size in `O(log n)`-bit words.
    pub fn words(&self) -> usize {
        1 + 2 * self.light_ports.len()
    }
}

/// A [`TreeLabel`] as a view into the light-port table of the tree that
/// labelled it: the destination's DFS entry time and the number of light
/// ports its label lists. The ports themselves stay where the label is
/// kept — in the tree, when it keeps its members' labels — so the view is
/// two words of stack and counts the words of the label it stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeLabelView {
    /// DFS entry time of the destination.
    pub tin: u32,
    /// How many `(tin, port)` light-port pairs the label lists.
    pub light_len: u32,
}

impl TreeLabelView {
    /// The view of a destination the tree does not contain; it labels a
    /// vertex only as the one-word label `tin = u32::MAX`.
    pub const ABSENT: TreeLabelView = TreeLabelView { tin: u32::MAX, light_len: 0 };

    /// Size in `O(log n)`-bit words of the label it stands for.
    pub fn words(&self) -> usize {
        1 + 2 * self.light_len as usize
    }
}

/// Makes one local routing decision on a tree, given only the current
/// vertex's [`TreeNodeInfo`] and the destination's [`TreeLabel`].
///
/// This free function is the standalone tree step; it and
/// [`TreeView::step_view`] run the same step over the label's light ports.
///
/// # Errors
///
/// Returns an error if the inputs are inconsistent (the destination appears
/// to be below the current vertex via a light edge that the label does not
/// describe) — this indicates corrupted preprocessing, not a routable
/// situation.
pub fn tree_route_step(node: &TreeNodeInfo, dest: &TreeLabel) -> Result<Decision, RouteError> {
    step_over(node, dest.tin, dest.light_ports.iter().copied())
}

/// The tree step both label forms run: the destination's entry time `tin`,
/// and its label's light ports `light`, root first.
#[inline]
fn step_over(
    node: &TreeNodeInfo,
    tin: u32,
    mut light: impl Iterator<Item = (u32, Port)>,
) -> Result<Decision, RouteError> {
    if tin == node.tin {
        return Ok(Decision::Deliver);
    }
    if !node.subtree_contains(tin) {
        let port = node.parent_port().ok_or_else(|| RouteError::MissingInformation {
            at: VertexId(u32::MAX),
            what: "destination outside the tree rooted here (no parent port)".into(),
        })?;
        return Ok(Decision::Forward(port));
    }
    if let Some((h_tin, h_tout, h_port)) = node.heavy() {
        if h_tin <= tin && tin < h_tout {
            return Ok(Decision::Forward(h_port));
        }
    }
    // The destination is in a light subtree below this vertex; the label
    // records which port to take here.
    light
        .find(|&(p_tin, _)| p_tin == node.tin)
        .map(|(_, port)| Decision::Forward(port))
        .ok_or_else(|| RouteError::MissingInformation {
            at: VertexId(u32::MAX),
            what: "destination label lacks the light port for this vertex".into(),
        })
}

/// A label's packed `[tin, port]` light ports, decoded one at a time.
#[inline]
fn decoded_ports(light: PackedView<'_, 2>) -> impl Iterator<Item = (u32, Port)> + '_ {
    light.records::<u32>().map(|[tin, port]| (tin, Port(port)))
}

/// Whether a tree pushed onto a [`TreeForest`] keeps its members' labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Labels {
    /// Every member's label, with its light ports.
    Keep,
    /// No label: node records only, no light port and no light offset. The
    /// labels read as `None`, never as empty labels.
    Drop,
}

/// The slot of `v` in a tree of `len` members: its id when the tree spans
/// the graph (`ids` empty), its rank among the id-sorted `ids` otherwise.
#[inline]
fn slot_in(ids: &[VertexId], len: usize, v: VertexId) -> Option<usize> {
    if ids.is_empty() {
        (v.index() < len).then_some(v.index())
    } else {
        ids.binary_search(&v).ok()
    }
}

/// Many rooted trees of one graph in one set of flat arrays, indexed by tree
/// number: a cluster family's `T(w)`, or the shortest-path trees of a
/// landmark or hitting set.
///
/// Every member of a tree owns a *slot* (members in ascending id order). A
/// tree that spans the graph has slot = vertex id and stores no member ids;
/// any other tree keeps its id-sorted members as one run of `ids` and finds
/// a slot by binary search. The node records of every tree are one
/// slot-indexed `nodes` array, and all labels share one light-port table, a
/// row per member of a tree that keeps its labels, indexed by the tree's
/// first row plus the member's DFS entry time; a tree pushed with
/// [`Labels::Drop`] has none. Per tree that leaves 12 bytes: where its
/// nodes, its ids and its rows start.
///
/// Ids, node records and light ports are packed at the
/// width of the graph the forest is made for ([`TreeForest::new`]): an id in
/// the bytes `n` needs, a time in the bytes `0..=n` need, a port in the bytes
/// the largest degree needs. On a graph of up to 65,535 vertices and degree
/// 255 a node record is 10 bytes, a light port 3 and an id 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeForest {
    /// `[first node, first id, first light row]` of every tree, and a
    /// closing entry.
    spans: Vec<[u32; 3]>,
    /// Member ids of every tree that does not span the graph, ascending
    /// within each tree.
    ids: PackedColumn<1>,
    /// A node record `[tin, tout, heavy tin, heavy tout, parent port, heavy
    /// port]` per slot, tree after tree; "no port" is the ports' sentinel.
    nodes: PackedColumn<6>,
    /// One row per member of a tree that keeps its labels: the light ports
    /// of the member whose DFS entry time is `t` in the tree whose rows
    /// start at `s` are row `s + t`, each `[tin of the edge's parent, port
    /// there]` at `[vertex, port]` width.
    light: PackedRows<2>,
}

/// An offset into a [`TreeForest`] array: they are `u32`.
fn offset(len: usize) -> Result<u32, TreeBuildError> {
    u32::try_from(len)
        .map_err(|_| TreeBuildError::NotATree { what: "trees exceed the u32 offset range".into() })
}

/// Light ports too many for the `u32` row ends of their table.
impl From<TooManyRecords> for TreeBuildError {
    fn from(e: TooManyRecords) -> Self {
        TreeBuildError::NotATree { what: e.to_string() }
    }
}

/// The tree the last search on `scratch` settled: its root and the
/// `(child, parent)` pair of every other settled vertex.
fn scratch_tree(
    scratch: &SearchScratch,
) -> Result<(VertexId, impl Iterator<Item = (VertexId, VertexId)> + '_), TreeBuildError> {
    let root = scratch
        .source()
        .ok_or_else(|| TreeBuildError::NotATree { what: "the search has no single source".into() })?;
    Ok((root, scratch.order().iter().filter_map(|&(v, _)| scratch.parent(v).map(|p| (v, p)))))
}

impl TreeForest {
    /// A forest of no trees, for trees of `g`.
    pub fn new(g: &Graph) -> Self {
        let light = SlotCodec::for_graph(g);
        let [_, port] = light.bytes();
        let time = bytes_for(g.n() as u64 + 1);
        TreeForest {
            spans: vec![[0, 0, 0]],
            ids: PackedColumn::new(SlotCodec::for_ids(g.n())),
            nodes: PackedColumn::new(SlotCodec::new([time, time, time, time, port, port])),
            light: PackedRows::new(light),
        }
    }

    /// Appends the tree of an explicit parent relation as the next tree,
    /// with its members' labels.
    ///
    /// `parents` yields one `(child, parent)` pair per non-root tree vertex,
    /// in any order; the root must not appear as a child. Every parent edge
    /// must exist in `g` (ports are taken from `g`), whose ids, entry times
    /// and ports must fit the widths of the graph the forest is made for.
    ///
    /// One array pass per stage, no hashing: slots, a counting-sort children
    /// CSR (children id-ascending, which fixes the DFS order), preorder
    /// entry times, subtree sizes from one reverse sweep, then labels filled
    /// top-down in preorder — a child's light ports are its parent's plus at
    /// most one entry — unless the tree drops them
    /// ([`TreeForest::push_scratch_with`]). The tree is laid out in working
    /// arrays of its own first; only once it is known to fit are its ids,
    /// node records and light ports packed onto the forest's arrays, so on
    /// an error the forest is left as it was.
    ///
    /// # Errors
    ///
    /// Returns an error if a parent edge is missing from the graph, the
    /// relation is not a tree rooted at `root`, `g`'s records do not fit
    /// the forest's widths, or the forest would outgrow its `u32` offsets.
    pub fn push_parents<I>(&mut self, g: &Graph, root: VertexId, parents: I) -> Result<(), TreeBuildError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        self.push_parents_with(g, root, parents, Labels::Keep)
    }

    /// [`TreeForest::push_parents`] with or without the members' labels.
    fn push_parents_with<I>(
        &mut self,
        g: &Graph,
        root: VertexId,
        parents: I,
        labels: Labels,
    ) -> Result<(), TreeBuildError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        const UNSET: u32 = u32::MAX;
        let not_a_tree = |what: String| TreeBuildError::NotATree { what };
        let n = g.n();
        let (ids, times) = (self.ids.codec(), self.nodes.codec());
        if !ids.fits([n.saturating_sub(1) as u32]) || !times.fits([n as u32, 0, 0, 0, 0, 0]) {
            return Err(not_a_tree(format!("a tree of {n} vertices in a forest of narrower ids or times")));
        }
        // Tree edges with the port at the child and the port at the parent.
        let mut edges: Vec<(VertexId, VertexId, Port, Port)> = Vec::new();
        for (c, p) in parents {
            if c == root {
                return Err(not_a_tree(format!("root {root} has a parent")));
            }
            let ports = (c.index() < n && p.index() < n)
                .then(|| g.port_to(c, p).zip(g.port_to(p, c)))
                .flatten();
            let (up, down) = ports.ok_or(TreeBuildError::MissingEdge { child: c, parent: p })?;
            if !self.light.codec().fits([0, up.0]) || !self.light.codec().fits([0, down.0]) {
                return Err(not_a_tree(format!("edge ({c}, {p}) has a port the forest's graph lacks")));
            }
            edges.push((c, p, up, down));
        }
        let m = edges.len() + 1;
        let mut ids = Vec::new();
        if m != n {
            ids.extend(edges.iter().map(|e| e.0));
            ids.push(root);
            ids.sort_unstable();
        }
        let slot_of = |v: VertexId| slot_in(&ids, m, v);
        let root_slot = slot_of(root)
            .ok_or_else(|| not_a_tree(format!("root {root} is not a vertex of the host graph")))?;

        // Scatter the edges into slots and count children per parent slot.
        let mut nodes = vec![TreeNodeInfo::UNVISITED; m];
        let mut parent = vec![UNSET; m];
        let mut down_port = vec![Port(0); m];
        let mut kid_off = vec![0u32; m + 1];
        for &(c, p, up, down) in &edges {
            let (Some(s), Some(ps)) = (slot_of(c), slot_of(p)) else {
                return Err(not_a_tree(format!("parent {p} of {c} is not a tree vertex")));
            };
            if parent[s] != UNSET {
                return Err(not_a_tree(format!("vertex {c} has two parents")));
            }
            parent[s] = ps as u32;
            down_port[s] = down;
            nodes[s].parent_port = up;
            kid_off[ps + 1] += 1;
        }
        for s in 0..m {
            kid_off[s + 1] += kid_off[s];
        }
        // Ascending slots are ascending ids, so every child list is sorted.
        let mut kids = vec![0u32; m - 1];
        let mut cursor = kid_off.clone();
        for s in 0..m {
            if parent[s] != UNSET {
                let at = &mut cursor[parent[s] as usize];
                kids[*at as usize] = s as u32;
                *at += 1;
            }
        }
        let kids_of = |s: usize| &kids[kid_off[s] as usize..kid_off[s + 1] as usize];

        // Preorder DFS: `tin` is the position in `pre`. Every slot has at
        // most one parent, so none is entered twice; a slot on or below a
        // cycle is never entered at all.
        let mut pre: Vec<u32> = Vec::with_capacity(m);
        let mut stack = vec![root_slot as u32];
        while let Some(s) = stack.pop() {
            nodes[s as usize].tin = pre.len() as u32;
            pre.push(s);
            stack.extend(kids_of(s as usize).iter().rev());
        }
        if pre.len() != m {
            return Err(not_a_tree("some declared vertices are not reachable from the root".into()));
        }
        // Subtree sizes accumulate in `tout` bottom-up; `tout = tin + size`.
        for &s in pre.iter().rev() {
            let size = nodes[s as usize].tout + 1;
            nodes[s as usize].tout = size;
            if parent[s as usize] != UNSET {
                nodes[parent[s as usize] as usize].tout += size;
            }
        }
        for node in nodes.iter_mut() {
            node.tout += node.tin;
        }
        // Heavy child: largest subtree, smallest id (= slot) among equals.
        for s in 0..m {
            let heavy = kids_of(s)
                .iter()
                .map(|&c| c as usize)
                .max_by_key(|&c| (nodes[c].tout - nodes[c].tin, Reverse(c)));
            if let Some(c) = heavy {
                let (tin, tout) = (nodes[c].tin, nodes[c].tout);
                (nodes[s].heavy_tin, nodes[s].heavy_tout, nodes[s].heavy_port) = (tin, tout, down_port[c]);
            }
        }
        // The edge into a slot is light unless it leads to its parent's
        // heavy child; a label lists its parent's light ports and that edge,
        // so a light edge is listed once a member of the subtree below it.
        let is_light = |s: usize| {
            let p = &nodes[parent[s] as usize];
            p.heavy().map(|(h_tin, _, _)| h_tin) != Some(nodes[s].tin)
        };
        let labelled = if labels == Labels::Keep { m } else { 0 };
        let light_edges = (0..labelled).filter(|&s| parent[s] != UNSET && is_light(s));
        let light: usize = light_edges.map(|s| (nodes[s].tout - nodes[s].tin) as usize).sum();
        let rows = self.light.len() + labelled;
        let span = [offset(self.nodes.len() + m)?, offset(self.ids.len() + ids.len())?, offset(rows)?];
        row_end(self.light.column().len() + light)?;

        // The tree fits: pack it. Labels go top-down, a row an entry time,
        // so a parent's light ports are copied from its row.
        ids.iter().for_each(|v| self.ids.push([v.0]));
        nodes.iter().for_each(|node| self.nodes.push(node.record()));
        let first_row = self.light.len();
        for &s in pre.iter().take(labelled) {
            let s = s as usize;
            if parent[s] != UNSET {
                let p = &nodes[parent[s] as usize];
                for i in self.light.range(first_row + p.tin as usize).unwrap_or(0..0) {
                    if let Some(port) = self.light.column().get::<u32>(i) {
                        self.light.push(port);
                    }
                }
                if is_light(s) {
                    self.light.push([p.tin, down_port[s].0]);
                }
            }
            self.light.close_row()?;
        }
        self.spans.push(span);
        Ok(())
    }

    /// Appends the tree of the last search run on a [`SearchScratch`]: its
    /// settled vertices, under the search's parents.
    ///
    /// # Errors
    ///
    /// As [`TreeForest::push_parents`], and [`TreeBuildError::NotATree`] if
    /// the workspace holds no single-origin search (none has run, or the
    /// last was multi-source); the forest is then unchanged.
    pub fn push_scratch(&mut self, g: &Graph, scratch: &SearchScratch) -> Result<(), TreeBuildError> {
        self.push_scratch_with(g, scratch, Labels::Keep)
    }

    /// [`TreeForest::push_scratch`] with or without the members' labels.
    ///
    /// # Errors
    ///
    /// As [`TreeForest::push_scratch`].
    pub fn push_scratch_with(
        &mut self,
        g: &Graph,
        scratch: &SearchScratch,
        labels: Labels,
    ) -> Result<(), TreeBuildError> {
        let (root, edges) = scratch_tree(scratch)?;
        self.push_parents_with(g, root, edges, labels)
    }

    /// Appends the trees of `parts`, forests packed at the same widths, in order:
    /// tree `t` of `parts` comes after this forest's trees and the earlier
    /// parts'. The packed records are copied as bytes, every offset and row
    /// end is rebased onto the arrays before it, and each array grows by
    /// exactly what the parts hold, once.
    ///
    /// # Errors
    ///
    /// [`TreeBuildError::NotATree`] if a part is packed at other widths
    /// or the forest would outgrow its `u32` offsets; the forest is then
    /// left as it was.
    pub fn append(&mut self, parts: Vec<TreeForest>) -> Result<(), TreeBuildError> {
        let codecs = |f: &TreeForest| (f.ids.codec(), f.nodes.codec(), f.light.codec());
        if parts.iter().any(|f| codecs(f) != codecs(self)) {
            return Err(TreeBuildError::NotATree { what: "a forest packed at other widths".into() });
        }
        let total = |len: fn(&TreeForest) -> usize| parts.iter().map(len).sum::<usize>();
        let (trees, ids) = (total(TreeForest::len), total(|f| f.ids.len()));
        let (nodes, rows) = (total(|f| f.nodes.len()), total(|f| f.light.len()));
        let mut base = [self.nodes.len(), self.ids.len(), self.light.len()];
        for (at, more) in base.iter().zip([nodes, ids, rows]) {
            offset(at + more)?;
        }
        self.light.append(parts.iter().map(|f| &f.light))?;
        self.spans.reserve_exact(trees);
        self.ids.reserve_exact(ids);
        self.nodes.reserve_exact(nodes);
        for part in parts {
            let rebased = |span: [u32; 3]| [0, 1, 2].map(|k| span[k] + base[k] as u32);
            self.spans.extend(part.spans[1..].iter().map(|&span| rebased(span)));
            self.ids.extend_from(part.ids.view());
            self.nodes.extend_from(part.nodes.view());
            base = [self.nodes.len(), self.ids.len(), base[2] + part.light.len()];
        }
        Ok(())
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.spans.len() - 1
    }

    /// True if the forest holds no tree.
    pub fn is_empty(&self) -> bool {
        self.spans.len() <= 1
    }

    /// Tree `t`, or `None` past the last tree.
    #[inline]
    pub fn tree(&self, t: usize) -> Option<TreeView<'_>> {
        let (&[n0, i0, l0], &[n1, i1, l1]) = (self.spans.get(t)?, self.spans.get(t + 1)?);
        Some(TreeView {
            ids: self.ids.slice(i0 as usize..i1 as usize)?,
            nodes: self.nodes.slice(n0 as usize..n1 as usize)?,
            light: self.light.rows(l0 as usize..l1 as usize)?,
        })
    }

    /// Every tree, in order.
    pub fn iter(&self) -> impl Iterator<Item = TreeView<'_>> + '_ {
        (0..self.len()).filter_map(|t| self.tree(t))
    }

    /// Bytes of heap the arrays hold, by capacity: 12 a tree, and the
    /// packed ids (of the trees that do not span the graph), node records
    /// and light ports, 4 a light-port row.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<[u32; 3]>() * self.spans.capacity()
            + self.ids.heap_bytes()
            + self.nodes.heap_bytes()
            + self.light.heap_bytes()
    }

    /// Returns the growth slack of every array.
    pub fn shrink_to_fit(&mut self) {
        self.spans.shrink_to_fit();
        self.ids.shrink_to_fit();
        self.nodes.shrink_to_fit();
        self.light.shrink_to_fit();
    }
}

/// One tree of a [`TreeForest`], as a `Copy` view into the forest's arrays:
/// what a scheme looks a tree up as, and routes on. Its records are decoded
/// as they are read.
#[derive(Debug, Clone, Copy)]
pub struct TreeView<'a> {
    /// The tree's member ids, ascending; none when it spans the graph,
    /// where a member's slot is its id.
    ids: PackedView<'a, 1>,
    /// The tree's node records by slot, one a member.
    nodes: PackedView<'a, 6>,
    /// The members' light ports, a row a DFS entry time; none where the
    /// tree keeps no labels.
    light: RowsView<'a, 2>,
}

impl<'a> TreeView<'a> {
    /// Number of vertices in the tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tree contains only its root.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// The slot of `v`: its id in a spanning tree, else its rank among the
    /// packed ids by binary search. A `v` outside the graph is no member.
    #[inline]
    fn slot(&self, v: VertexId) -> Option<usize> {
        if self.ids.len() == 0 {
            return (v.index() < self.len()).then_some(v.index());
        }
        self.ids.search(v.0.into())
    }

    /// The member in slot `s`.
    fn member(&self, s: usize) -> Option<VertexId> {
        if self.ids.len() == 0 {
            return (s < self.len()).then_some(VertexId(s as u32));
        }
        Some(VertexId(self.ids.get::<u32>(s)?[0]))
    }

    /// The node record in slot `s`, decoded.
    #[inline]
    fn node(&self, s: usize) -> Option<TreeNodeInfo> {
        Some(TreeNodeInfo::from_record(self.nodes.get(s)?))
    }

    /// The root: the member whose DFS entry time is 0.
    pub fn root(&self) -> Option<VertexId> {
        let s = (0..self.len()).find(|&s| self.node(s).is_some_and(|node| node.tin == 0))?;
        self.member(s)
    }

    /// Returns true if `v` is a tree vertex.
    pub fn contains(&self, v: VertexId) -> bool {
        self.slot(v).is_some()
    }

    /// Iterator over the tree's vertices in ascending id order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + 'a {
        let view = *self;
        (0..self.len()).filter_map(move |s| view.member(s))
    }

    /// The local routing information of tree vertex `v`, decoded.
    #[inline]
    pub fn node_info(&self, v: VertexId) -> Option<TreeNodeInfo> {
        self.node(self.slot(v)?)
    }

    /// True if the tree keeps its members' labels.
    pub fn keeps_labels(&self) -> bool {
        !self.light.is_empty()
    }

    /// The light ports of the label whose DFS entry time is `tin`, decoded
    /// one at a time, root first; none where the tree keeps no label.
    #[inline]
    fn light_ports(&self, tin: u32) -> impl Iterator<Item = (u32, Port)> + 'a {
        self.light.row(tin as usize).into_iter().flat_map(decoded_ports)
    }

    /// The tree label of tree vertex `v`; `None` outside the tree and where
    /// the tree keeps no labels.
    pub fn label(&self, v: VertexId) -> Option<TreeLabel> {
        let tin = self.node_info(v)?.tin;
        self.light.row(tin as usize)?;
        Some(TreeLabel { tin, light_ports: self.light_ports(tin).collect() })
    }

    /// The label of tree vertex `v` as a view into this tree's light-port
    /// table: what [`TreeView::step_view`] routes with. `None` outside the
    /// tree and where the tree keeps no labels.
    #[inline]
    pub fn label_view(&self, v: VertexId) -> Option<TreeLabelView> {
        let tin = self.node_info(v)?.tin;
        Some(TreeLabelView { tin, light_len: self.light.row(tin as usize)?.len() as u32 })
    }

    /// The label of tree vertex `v` read off the node records, whether the
    /// tree keeps its labels or not: from `v` up to the root, the edge into
    /// a member that is not its parent's heavy child is light, and `g` —
    /// the graph the tree was built on — gives the port at the parent.
    /// `light` is cleared and filled with the light ports, root first, as
    /// [`TreeView::label`] lists them; the return is `v`'s entry time.
    /// `None` outside the tree, or if `g` does not hold the tree's edges.
    pub fn label_in_graph(&self, g: &Graph, v: VertexId, light: &mut Vec<(u32, Port)>) -> Option<u32> {
        light.clear();
        let mut node = self.node_info(v)?;
        let (tin, mut at) = (node.tin, v);
        while let Some(up) = node.parent_port() {
            if light.len() >= self.len() || at.index() >= g.n() || up.index() >= g.degree(at) {
                return None;
            }
            let p = g.neighbor_at(at, up).to;
            let parent = self.node_info(p)?;
            if parent.heavy().map(|(h_tin, _, _)| h_tin) != Some(node.tin) {
                light.push((parent.tin, g.port_to(p, at)?));
            }
            (at, node) = (p, parent);
        }
        light.reverse();
        Some(tin)
    }

    /// Total size of the labels the tree keeps in `O(log n)`-bit words:
    /// every member's, or none.
    pub fn labels_words(&self) -> usize {
        self.light.len() + 2 * self.light.records()
    }

    /// Words of tree-routing information `v` stores: its [`TreeNodeInfo`]'s,
    /// none outside the tree.
    pub fn table_words(&self, v: VertexId) -> usize {
        self.node_info(v).map_or(0, |node| node.words())
    }

    /// Words of `v`'s label, none outside the tree or where it keeps no
    /// labels.
    pub fn label_words(&self, v: VertexId) -> usize {
        self.label_view(v).map_or(0, |label| label.words())
    }

    /// One local routing decision at tree vertex `at` towards the holder of
    /// `dest`: [`tree_route_step`] on `at`'s own [`TreeNodeInfo`].
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::MissingInformation`] attributed to `at` if `at`
    /// is not a tree vertex or `dest` is inconsistent with this tree.
    #[inline]
    pub fn step(&self, at: VertexId, dest: &TreeLabel) -> Result<Decision, RouteError> {
        self.step_at(at, dest.tin, dest.light_ports.iter().copied())
    }

    /// [`TreeView::step`] towards the holder of a label view taken from this
    /// tree: the light ports are read from the tree's own table.
    ///
    /// # Errors
    ///
    /// As [`TreeView::step`].
    #[inline]
    pub fn step_view(&self, at: VertexId, dest: TreeLabelView) -> Result<Decision, RouteError> {
        self.step_at(at, dest.tin, self.light_ports(dest.tin))
    }

    /// [`TreeView::step`] towards the member whose entry time is `tin` and
    /// whose label's light ports, root first, are the `[tin, port]` records
    /// of `light`: a label kept outside the tree, as
    /// [`TreeView::label_in_graph`] reads it, packed at the graph's width
    /// ([`SlotCodec::for_graph`]) like the tree's own.
    ///
    /// # Errors
    ///
    /// As [`TreeView::step`].
    #[inline]
    pub fn step_ports(&self, at: VertexId, tin: u32, light: PackedView<'_, 2>) -> Result<Decision, RouteError> {
        self.step_at(at, tin, decoded_ports(light))
    }

    /// The step at tree vertex `at`, with errors attributed to `at`.
    #[inline]
    fn step_at(
        &self,
        at: VertexId,
        tin: u32,
        light: impl Iterator<Item = (u32, Port)>,
    ) -> Result<Decision, RouteError> {
        let Some(node) = self.node_info(at) else {
            let root = self.root().map_or_else(|| "nothing".into(), |r| r.to_string());
            return Err(RouteError::MissingInformation {
                at,
                what: format!("vertex is not in the tree rooted at {root}"),
            });
        };
        step_over(&node, tin, light).map_err(|e| match e {
            RouteError::MissingInformation { what, .. } => RouteError::MissingInformation { at, what },
            other => other,
        })
    }
}

/// A complete tree routing scheme for one rooted tree: a named
/// [`TreeForest`] of that one tree, routed with the same step, and its node
/// records decoded beside it, which [`TreeScheme::node_info`] lends.
#[derive(Debug, Clone)]
pub struct TreeScheme {
    name: String,
    root: VertexId,
    n_graph: usize,
    forest: TreeForest,
    /// The tree's node records by slot, decoded.
    nodes: Vec<TreeNodeInfo>,
}

impl TreeScheme {
    /// Builds the tree router from an explicit parent relation: a one-tree
    /// [`TreeForest::push_parents`].
    ///
    /// `parents` yields one `(child, parent)` pair per non-root tree vertex,
    /// in any order; the root must not appear as a child. Every parent edge
    /// must exist in `g` (ports are taken from `g`).
    ///
    /// # Errors
    ///
    /// Returns an error if a parent edge is missing from the graph or the
    /// relation is not a tree rooted at `root`.
    pub fn from_parents<I>(g: &Graph, root: VertexId, parents: I) -> Result<Self, TreeBuildError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut forest = TreeForest::new(g);
        forest.push_parents(g, root, parents)?;
        forest.shrink_to_fit();
        let nodes = forest.tree(0).map_or_else(Vec::new, |t| (0..t.len()).filter_map(|s| t.node(s)).collect());
        Ok(TreeScheme { name: format!("tree-routing(root={root})"), root, n_graph: g.n(), forest, nodes })
    }

    /// Builds the router straight from the last search run on a
    /// [`SearchScratch`] — a full Dijkstra (`dijkstra_into`) or a restricted
    /// cluster search (`cluster_into`). The settled vertices become the
    /// tree, under the search's parents: the shortest-path tree of the
    /// source's component, or the cluster tree `T_{C_A(w)}`.
    ///
    /// The tree covers exactly the vertices the search settled. A
    /// target-bounded search (`dijkstra_targets_into`) therefore yields a
    /// tree over its settled prefix only — callers that need a spanning
    /// tree (e.g. Technique 1's global hitting-set trees) must run the full
    /// search.
    ///
    /// # Errors
    ///
    /// [`TreeBuildError::NotATree`] if the workspace holds no single-origin
    /// search (none has run, or the last was multi-source); otherwise
    /// propagates [`TreeBuildError`] (cannot occur for a search on `g`).
    pub fn from_scratch(g: &Graph, scratch: &SearchScratch) -> Result<Self, TreeBuildError> {
        let (root, edges) = scratch_tree(scratch)?;
        Self::from_parents(g, root, edges)
    }

    /// The root of the tree.
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// The tree as a view: the forest's one tree.
    #[inline]
    fn view(&self) -> TreeView<'_> {
        // Never taken: the one tree is pushed before the scheme is made.
        self.forest.tree(0).unwrap_or(TreeView {
            ids: self.forest.ids.view(),
            nodes: self.forest.nodes.view(),
            light: self.forest.light.view(),
        })
    }

    /// Number of vertices in the tree.
    pub fn len(&self) -> usize {
        self.view().len()
    }

    /// True if the tree contains only its root.
    pub fn is_empty(&self) -> bool {
        self.view().is_empty()
    }

    /// Returns true if `v` is a tree vertex.
    pub fn contains(&self, v: VertexId) -> bool {
        self.view().contains(v)
    }

    /// Iterator over the tree's vertices in ascending id order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.view().vertices()
    }

    /// The local routing information of tree vertex `v`, as the scheme
    /// keeps it decoded.
    #[inline]
    pub fn node_info(&self, v: VertexId) -> Option<&TreeNodeInfo> {
        self.nodes.get(self.view().slot(v)?)
    }

    /// The tree label of tree vertex `v`.
    pub fn label(&self, v: VertexId) -> Option<TreeLabel> {
        self.view().label(v)
    }

    /// The label of tree vertex `v` as a view into this tree's light-port
    /// table: what [`TreeScheme::step_view`] routes with.
    #[inline]
    pub fn label_view(&self, v: VertexId) -> Option<TreeLabelView> {
        self.view().label_view(v)
    }

    /// Total size of every member's label in `O(log n)`-bit words.
    pub fn labels_words(&self) -> usize {
        self.view().labels_words()
    }

    /// [`TreeView::step`] on this tree.
    ///
    /// # Errors
    ///
    /// As [`TreeView::step`].
    #[inline]
    pub fn step(&self, at: VertexId, dest: &TreeLabel) -> Result<Decision, RouteError> {
        self.view().step(at, dest)
    }

    /// [`TreeView::step_view`] on this tree.
    ///
    /// # Errors
    ///
    /// As [`TreeView::step`].
    #[inline]
    pub fn step_view(&self, at: VertexId, dest: TreeLabelView) -> Result<Decision, RouteError> {
        self.view().step_view(at, dest)
    }
}

/// Header used when routing purely on a tree (nothing needs to be carried).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeHeader;

impl HeaderSize for TreeHeader {
    fn words(&self) -> usize {
        0
    }
}

impl RoutingScheme for TreeScheme {
    type Label = TreeLabel;
    type Header = TreeHeader;

    fn name(&self) -> &str {
        &self.name
    }

    fn n(&self) -> usize {
        self.n_graph
    }

    fn label_of(&self, v: VertexId) -> TreeLabel {
        self.label(v).unwrap_or(TreeLabel { tin: u32::MAX, light_ports: Vec::new() })
    }

    fn init_header(&self, source: VertexId, dest: &TreeLabel) -> Result<TreeHeader, RouteError> {
        if dest.tin == u32::MAX {
            return Err(RouteError::BadLabel { what: "destination is not in the tree".into() });
        }
        if !self.contains(source) {
            return Err(RouteError::MissingInformation {
                at: source,
                what: "source is not in the tree".into(),
            });
        }
        Ok(TreeHeader)
    }

    fn decide(
        &self,
        at: VertexId,
        _header: &mut TreeHeader,
        dest: &TreeLabel,
    ) -> Result<Decision, RouteError> {
        self.step(at, dest)
    }

    fn table_words(&self, v: VertexId) -> usize {
        self.view().table_words(v)
    }

    fn label_words(&self, v: VertexId) -> usize {
        self.view().label_words(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routing_graph::{generators, reference, SLOT_PAD};
    use routing_model::simulate;

    fn spt_scheme(g: &Graph, root: VertexId) -> TreeScheme {
        let mut scratch = SearchScratch::for_graph(g);
        scratch.dijkstra_into(g, root);
        TreeScheme::from_scratch(g, &scratch).expect("valid spt")
    }

    /// The cluster tree of 0 on a 6 × 6 grid under `d(·, {35})`: the
    /// workspace's last search, and the bound.
    fn grid_cluster(g: &Graph) -> (SearchScratch, Vec<routing_graph::Weight>) {
        let mut scratch = SearchScratch::for_graph(g);
        scratch.multi_source_into(g, &[VertexId(35)]);
        let bound = scratch.dist_row(g.n());
        scratch.cluster_into(g, VertexId(0), &bound);
        (scratch, bound)
    }

    #[test]
    fn routes_on_path_graph() {
        let g = generators::path(10);
        let t = spt_scheme(&g, VertexId(0));
        for u in g.vertices() {
            for v in g.vertices() {
                let out = simulate(&g, &t, u, v).unwrap();
                assert_eq!(out.destination(), v);
                assert_eq!(out.hops, (u.0 as i64 - v.0 as i64).unsigned_abs() as usize);
            }
        }
    }

    #[test]
    fn routes_on_star_center_and_leaves() {
        let g = generators::star(8);
        let t = spt_scheme(&g, VertexId(0));
        let out = simulate(&g, &t, VertexId(3), VertexId(5)).unwrap();
        assert_eq!(out.path, vec![VertexId(3), VertexId(0), VertexId(5)]);
    }

    #[test]
    fn routes_follow_tree_paths_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::erdos_renyi(
            80,
            0.06,
            generators::WeightModel::Uniform { lo: 1, hi: 8 },
            &mut rng,
        );
        let root = VertexId(0);
        let mut spt = SearchScratch::for_graph(&g);
        spt.dijkstra_into(&g, root);
        let t = TreeScheme::from_scratch(&g, &spt).unwrap();
        // Routing to the root must follow the shortest path in the graph
        // (tree paths to the root are graph shortest paths).
        for v in g.vertices() {
            let out = simulate(&g, &t, v, root).unwrap();
            assert_eq!(Some(out.weight), spt.dist(v), "weight from {v} to root");
        }
        // Tree-path weight between arbitrary vertices is bounded by the sum
        // of their distances to the root.
        for (u, v) in [(VertexId(3), VertexId(61)), (VertexId(17), VertexId(42))] {
            let out = simulate(&g, &t, u, v).unwrap();
            assert!(out.weight <= spt.dist(u).unwrap() + spt.dist(v).unwrap());
        }
    }

    #[test]
    fn label_sizes_are_logarithmic() {
        let g = generators::binary_tree(1023);
        let t = spt_scheme(&g, VertexId(0));
        let max_label = g.vertices().map(|v| t.label_words(v)).max().unwrap();
        // Light edges at least halve subtree sizes, so at most log2(n)
        // entries of 2 words each, plus the tin word.
        assert!(max_label <= 1 + 2 * 10, "label too large: {max_label}");
        let max_table = g.vertices().map(|v| t.table_words(v)).max().unwrap();
        assert!(max_table <= 6);
    }

    #[test]
    fn caterpillar_high_degree_nodes() {
        let g = generators::caterpillar(10, 8);
        let t = spt_scheme(&g, VertexId(0));
        for v in g.vertices() {
            let out = simulate(&g, &t, VertexId(55), v).unwrap();
            assert_eq!(out.destination(), v);
        }
    }

    #[test]
    fn cluster_tree_routing() {
        let g = generators::grid(6, 6);
        let (cluster, _) = grid_cluster(&g);
        let t = TreeScheme::from_scratch(&g, &cluster).unwrap();
        assert!(t.len() > 1);
        for &(v, d) in cluster.order() {
            let out = simulate(&g, &t, VertexId(0), v).unwrap();
            assert_eq!(out.weight, d, "cluster tree routes on shortest paths from the root");
        }
    }

    #[test]
    fn from_scratch_matches_the_materializing_constructors() {
        // `from_parents` over the rows the reference searches materialize.
        let g = generators::grid(6, 6);
        let mut scratch = SearchScratch::for_graph(&g);

        scratch.dijkstra_into(&g, VertexId(7));
        let a = TreeScheme::from_scratch(&g, &scratch).unwrap();
        let (_, parent, _) = reference::dijkstra_alloc(&g, VertexId(7));
        let edges = g.vertices().filter_map(|v| parent[v.index()].map(|p| (v, p)));
        let b = TreeScheme::from_parents(&g, VertexId(7), edges).unwrap();
        for v in g.vertices() {
            assert_eq!(a.node_info(v), b.node_info(v));
            assert_eq!(a.label(v), b.label(v));
        }

        let (scratch, bound) = grid_cluster(&g);
        let a = TreeScheme::from_scratch(&g, &scratch).unwrap();
        let (members, parents) = reference::cluster_dijkstra_hashmap(&g, VertexId(0), &bound);
        let edges = members.iter().zip(parents).filter_map(|(&(v, _), p)| p.map(|p| (v, p)));
        let b = TreeScheme::from_parents(&g, VertexId(0), edges).unwrap();
        assert_eq!(a.len(), b.len());
        for v in g.vertices() {
            assert_eq!(a.node_info(v), b.node_info(v));
            assert_eq!(a.label(v), b.label(v));
        }
    }

    /// A workspace with no single-origin search — none run yet, or a
    /// multi-source one last — holds no tree: both builds refuse it, and
    /// the forest is left as it was.
    #[test]
    fn builds_from_a_sourceless_search_are_refused() {
        let g = generators::path(5);
        let mut scratch = SearchScratch::for_graph(&g);
        let mut forest = TreeForest::new(&g);
        for multi_source in [false, true] {
            if multi_source {
                scratch.multi_source_into(&g, &[VertexId(0), VertexId(4)]);
            }
            let refused = TreeScheme::from_scratch(&g, &scratch);
            assert!(matches!(refused, Err(TreeBuildError::NotATree { .. })), "multi-source: {multi_source}");
            let refused = forest.push_scratch(&g, &scratch);
            assert!(matches!(refused, Err(TreeBuildError::NotATree { .. })), "multi-source: {multi_source}");
            assert_eq!(forest, TreeForest::new(&g));
        }
        scratch.dijkstra_into(&g, VertexId(2));
        assert_eq!(TreeScheme::from_scratch(&g, &scratch).map(|t| t.len()), Ok(5));
        assert!(forest.push_scratch(&g, &scratch).is_ok() && forest.len() == 1);
    }

    #[test]
    fn non_members_are_rejected() {
        let g = generators::path(6);
        // Tree containing only vertices 0..=2.
        let parents = [(VertexId(1), VertexId(0)), (VertexId(2), VertexId(1))];
        let t = TreeScheme::from_parents(&g, VertexId(0), parents).unwrap();
        assert!(t.contains(VertexId(2)));
        assert!(!t.contains(VertexId(5)));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        let err = simulate(&g, &t, VertexId(0), VertexId(5)).unwrap_err();
        assert!(matches!(err, RouteError::BadLabel { .. }));
        let err = simulate(&g, &t, VertexId(5), VertexId(0)).unwrap_err();
        assert!(matches!(err, RouteError::MissingInformation { .. }));
    }

    #[test]
    fn build_rejects_missing_edges_and_cycles() {
        let g = generators::path(4);
        let parents = [(VertexId(3), VertexId(0))]; // not an edge
        let err = TreeScheme::from_parents(&g, VertexId(0), parents).unwrap_err();
        assert_eq!(err, TreeBuildError::MissingEdge { child: VertexId(3), parent: VertexId(0) });

        let parents = [(VertexId(0), VertexId(1))]; // root has a parent
        let err = TreeScheme::from_parents(&g, VertexId(0), parents).unwrap_err();
        assert!(matches!(err, TreeBuildError::NotATree { .. }));
        assert!(err.to_string().contains("not a tree"));

        // Disconnected declaration: vertex 3's parent chain never reaches root 0.
        let parents = [(VertexId(1), VertexId(0)), (VertexId(3), VertexId(2))];
        let err = TreeScheme::from_parents(&g, VertexId(0), parents).unwrap_err();
        assert!(matches!(err, TreeBuildError::NotATree { .. }));
    }

    #[test]
    fn node_info_and_label_accessors() {
        let g = generators::path(4);
        let t = spt_scheme(&g, VertexId(0));
        let info = t.node_info(VertexId(1)).unwrap();
        assert!(info.words() >= 3);
        assert!(info.subtree_contains(t.label(VertexId(3)).unwrap().tin));
        assert_eq!(t.root(), VertexId(0));
        assert_eq!(t.vertices().count(), 4);
        assert!(t.label(VertexId(2)).unwrap().words() >= 1);
        assert_eq!(t.name(), "tree-routing(root=v0)");
        assert_eq!(RoutingScheme::n(&t), 4);
    }

    /// A node record packs four times at the bytes `0..=n` need and two
    /// ports at the bytes the largest degree needs; the sentinel ports read
    /// back as absent at the root and at a leaf.
    #[test]
    fn node_records_pack_at_the_graphs_width_with_sentinel_ports() {
        let g = generators::path(3);
        let t = spt_scheme(&g, VertexId(0));
        assert_eq!(t.forest.nodes.codec().bytes(), [1, 1, 1, 1, 1, 1]);
        assert_eq!(t.forest.nodes.heap_bytes(), 3 * 6 + SLOT_PAD);
        let (root, leaf) = (t.node_info(VertexId(0)).unwrap(), t.node_info(VertexId(2)).unwrap());
        assert_eq!((root.parent_port(), root.heavy().map(|h| h.0)), (None, Some(1)));
        assert_eq!((leaf.parent_port(), leaf.heavy()), (Some(Port(0)), None));
        assert_eq!((root.words(), leaf.words()), (5, 3));
        let view = t.forest.tree(0).unwrap();
        assert_eq!((view.node_info(VertexId(0)).as_ref(), view.node_info(VertexId(2)).as_ref()), (Some(root), Some(leaf)));
    }

    /// Every tree of a forest equals the standalone tree of the same search
    /// where a field's width flips: ports at the hub of `star(256)` (degree
    /// 255, one byte beside the sentinel) and `star(257)` (two bytes), times
    /// on paths of 254, 255 and 256 vertices (the root's `tout` is `n`, so
    /// 255 vertices take two bytes). Nodes, labels, label views, word counts
    /// and the step in both label forms, on every pair of members.
    #[test]
    fn forest_trees_equal_standalone_trees_where_a_width_flips() {
        let cases = [
            (generators::star(256), [2, 1], vec![0, 1, 255]),
            (generators::star(257), [2, 2], vec![0, 1, 256]),
            (generators::path(254), [1, 1], vec![0, 127, 253]),
            (generators::path(255), [2, 1], vec![0, 127, 254]),
            (generators::path(256), [2, 1], vec![0, 128, 255]),
        ];
        for (g, [time, port], roots) in cases {
            let mut scratch = SearchScratch::for_graph(&g);
            let bound: Vec<_> = g.vertices().map(|v| if v.index() % 5 == 0 { 0 } else { 40 }).collect();
            let mut forest = TreeForest::new(&g);
            let mut alone = Vec::new();
            for (i, &r) in roots.iter().enumerate() {
                let search = |scratch: &mut SearchScratch| {
                    if i == 1 {
                        scratch.cluster_into(&g, VertexId(r), &bound);
                    } else {
                        scratch.dijkstra_into(&g, VertexId(r));
                    }
                };
                search(&mut scratch);
                forest.push_scratch(&g, &scratch).unwrap();
                alone.push(TreeScheme::from_scratch(&g, &scratch).unwrap());
            }
            let key = format!("n = {}", g.n());
            assert_eq!(forest.nodes.codec().bytes(), [time, time, time, time, port, port], "{key}");
            for (tree, alone) in forest.iter().zip(&alone) {
                assert_eq!(tree.root(), Some(alone.root()), "{key}");
                assert_eq!(tree.labels_words(), alone.labels_words(), "{key}");
                for v in g.vertices() {
                    assert_eq!(tree.node_info(v).as_ref(), alone.node_info(v), "{key}: node of {v}");
                    assert_eq!(tree.label(v), alone.label(v), "{key}: label of {v}");
                    assert_eq!(tree.label_view(v), alone.label_view(v), "{key}: view of {v}");
                    assert_eq!(tree.table_words(v), alone.table_words(v), "{key}: words at {v}");
                    assert_eq!(tree.label_words(v), alone.label_words(v), "{key}: label words of {v}");
                }
                for dest in alone.vertices() {
                    let (view, label) = (alone.label_view(dest).unwrap(), alone.label(dest).unwrap());
                    for at in alone.vertices() {
                        let want = tree_route_step(alone.node_info(at).unwrap(), &label);
                        assert_eq!(tree.step_view(at, view), want, "{key}: {at} towards {dest}");
                        assert_eq!(tree.step(at, &label), want, "{key}: {at} towards {dest}");
                    }
                }
            }
        }
        // The root's exit time is `n` itself, which one byte holds only up
        // to 254; the hub's last port is 255 on `star(257)`.
        let g = generators::path(255);
        let t = spt_scheme(&g, VertexId(0));
        assert_eq!(t.node_info(VertexId(0)).unwrap().tout(), 255);
        let g = generators::star(257);
        let t = spt_scheme(&g, VertexId(0));
        assert_eq!(t.label(VertexId(256)).unwrap().light_ports, vec![(0, Port(255))]);
    }

    /// A forest made for a 6-vertex graph refuses a tree of a 300-vertex
    /// one, whose ids outgrow its 1-byte records, and a forest made for that
    /// graph as a part; both leave it as it was.
    #[test]
    fn a_forest_holds_trees_of_its_own_graph_only() {
        let (small, large) = (generators::path(6), generators::path(300));
        let mut forest = TreeForest::new(&small);
        let before = forest.clone();
        let edges = [(VertexId(1), VertexId(0))];
        assert!(matches!(forest.push_parents(&large, VertexId(0), edges), Err(TreeBuildError::NotATree { .. })));
        assert!(forest.append(vec![TreeForest::new(&large)]).is_err());
        assert_eq!(forest, before);
    }

    /// A forest built in chunks and appended equals the forest built in one
    /// piece, tree for tree, and holds its packed bytes without slack; a
    /// tree that fails to build leaves the forest as it was.
    #[test]
    fn concatenated_chunks_equal_one_forest() {
        let g = generators::grid(5, 7);
        let mut scratch = SearchScratch::for_graph(&g);
        let bound: Vec<_> = g.vertices().map(|v| if v.index() % 6 == 0 { 0 } else { 3 }).collect();
        let search = |scratch: &mut SearchScratch, r: usize| {
            if r % 3 == 0 {
                scratch.dijkstra_into(&g, VertexId(r as u32));
            } else {
                scratch.cluster_into(&g, VertexId(r as u32), &bound);
            }
        };
        let mut whole = TreeForest::new(&g);
        let mut chunks = vec![TreeForest::new(&g), TreeForest::new(&g)];
        for r in 0..g.n() {
            search(&mut scratch, r);
            whole.push_scratch(&g, &scratch).unwrap();
            chunks[usize::from(r >= 10)].push_scratch(&g, &scratch).unwrap();
            let before = whole.clone();
            let cycle = [(VertexId(1), VertexId(0)), (VertexId(0), VertexId(1))];
            assert!(whole.push_parents(&g, VertexId(2), cycle).is_err());
            assert_eq!(whole, before, "a failed push rolls back");
        }
        let mut joined = TreeForest::new(&g);
        joined.append(chunks).unwrap();
        whole.shrink_to_fit();
        assert_eq!(joined, whole);
        assert_eq!(joined.len(), g.n());
        for (r, tree) in joined.iter().enumerate() {
            search(&mut scratch, r);
            let alone = TreeScheme::from_scratch(&g, &scratch).unwrap();
            assert_eq!(tree.root(), Some(alone.root()));
            for v in g.vertices() {
                assert_eq!(tree.node_info(v).as_ref(), alone.node_info(v), "{v} in tree {r}");
                assert_eq!(tree.label(v), alone.label(v), "label of {v} in tree {r}");
            }
        }
        assert!(joined.tree(g.n()).is_none());
        let nodes: usize = joined.iter().map(|t| t.len()).sum();
        let ids: usize = joined.iter().filter(|t| t.len() != g.n()).map(|t| t.len()).sum();
        let light: usize = joined.iter().map(|t| (t.labels_words() - t.len()) / 2).sum();
        // Ids, times (n = 35) and ports take a byte each, and each packed
        // array ends in its pad.
        let packed = ids + 6 * nodes + 2 * light + 3 * SLOT_PAD;
        assert_eq!(joined.heap_bytes(), 12 * (g.n() + 1) + 4 * nodes + packed);
    }

    /// A tree pushed with [`Labels::Drop`] keeps the node records of the
    /// tree that keeps its labels and nothing else: every label reads
    /// `None`, never as an empty label, it writes no light port and no
    /// light-port row, and its labels read off the records with the graph
    /// equal the kept ones and route the same. Mixed chunks appended equal
    /// the forest pushed in one piece.
    #[test]
    fn a_tree_that_drops_its_labels_keeps_its_records_only() {
        let g = generators::grid(6, 7);
        let mut scratch = SearchScratch::for_graph(&g);
        let bound: Vec<_> = g.vertices().map(|v| if v.index() % 6 == 0 { 0 } else { 4 }).collect();
        let (mut kept, mut mixed, mut chunks) = (TreeForest::new(&g), TreeForest::new(&g), Vec::new());
        for r in [0, 20, 41, 9] {
            if r == 20 {
                scratch.cluster_into(&g, VertexId(r), &bound);
            } else {
                scratch.dijkstra_into(&g, VertexId(r));
            }
            let labels = if r == 9 { Labels::Keep } else { Labels::Drop };
            kept.push_scratch(&g, &scratch).unwrap();
            mixed.push_scratch_with(&g, &scratch, labels).unwrap();
            let mut chunk = TreeForest::new(&g);
            chunk.push_scratch_with(&g, &scratch, labels).unwrap();
            chunks.push(chunk);
        }
        let mut joined = TreeForest::new(&g);
        joined.append(chunks).unwrap();
        mixed.shrink_to_fit();
        assert_eq!(joined, mixed);
        let mut light = Vec::new();
        for (t, (full, tree)) in kept.iter().zip(mixed.iter()).enumerate() {
            let dropped = t != 3;
            assert_eq!(tree.keeps_labels(), !dropped, "tree {t}");
            assert_eq!(tree.labels_words(), if dropped { 0 } else { full.labels_words() }, "tree {t}");
            for v in g.vertices() {
                assert_eq!(tree.node_info(v), full.node_info(v), "{v} in tree {t}");
                let label = full.label(v);
                if dropped {
                    assert_eq!((tree.label(v), tree.label_view(v), tree.label_words(v)), (None, None, 0), "{v}");
                } else {
                    assert_eq!((tree.label(v), tree.label_view(v)), (label.clone(), full.label_view(v)), "{v}");
                }
                let tin = tree.label_in_graph(&g, v, &mut light);
                assert_eq!(tin.map(|tin| TreeLabel { tin, light_ports: light.clone() }), label, "{v} in tree {t}");
            }
            for dest in tree.vertices() {
                let tin = tree.label_in_graph(&g, dest, &mut light).unwrap();
                let mut packed = PackedColumn::new(SlotCodec::for_graph(&g));
                light.iter().for_each(|&(t, port)| packed.push([t, port.0]));
                for at in tree.vertices() {
                    let want = full.step_view(at, full.label_view(dest).unwrap());
                    assert_eq!(tree.step_ports(at, tin, packed.view()), want, "{at} towards {dest}");
                }
            }
        }
        // The dropped trees hold no light port and no light-port row.
        let keeping = kept.tree(3).unwrap();
        assert_eq!(mixed.light.column().len(), (keeping.labels_words() - keeping.len()) / 2);
        assert_eq!(mixed.light.len(), keeping.len());
        assert_eq!(mixed.tree(4).map(|t| t.len()), None);
        assert_eq!(keeping.label_in_graph(&generators::path(3), VertexId(40), &mut light), None, "another graph");
    }

    #[test]
    fn free_function_step_matches_scheme_decide() {
        let g = generators::binary_tree(15);
        let t = spt_scheme(&g, VertexId(0));
        let dest = t.label_of(VertexId(13));
        for v in g.vertices() {
            let node = t.node_info(v).unwrap();
            let a = tree_route_step(node, &dest).unwrap();
            let b = t.decide(v, &mut TreeHeader, &dest).unwrap();
            assert_eq!(a, b);
        }
    }
}
