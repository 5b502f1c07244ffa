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
//! whole family, 24 bytes a node record, 8 a light port and 8 a tree, and no
//! per-tree object. A tree is looked up as a `Copy` [`TreeView`]. Both carry
//! a [`TreeLabelView`] in their own labels and headers — the destination's
//! entry time and light-port count, a `Copy` view into the tree's own
//! light-port table — and take one hop with [`TreeView::step_view`].
//! [`TreeScheme`] is a named forest of one tree; it, the owned [`TreeLabel`]
//! and [`tree_route_step`] on a [`TreeNodeInfo`] are the standalone form.
//! Every form runs the one build ([`TreeForest::push_parents`]) and the one
//! slice-based step.
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

use routing_graph::shortest_path::{RestrictedTree, ShortestPathTree};
use routing_graph::{Graph, Port, SearchScratch, VertexId};
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

/// The constant-size local routing information a tree vertex stores: six
/// `u32`s, 24 bytes, with a sentinel port standing for an absent parent or
/// heavy child.
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
/// ports its label lists. The ports themselves stay in the tree, which
/// already holds every member's label, so the view is two words of stack
/// and counts the words of the label it stands for.
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
    step_over(node, dest.tin, &dest.light_ports)
}

/// The tree step both label forms run: the destination's entry time `tin`,
/// and its label's light ports `light`, root first.
#[inline]
fn step_over(node: &TreeNodeInfo, tin: u32, light: &[(u32, Port)]) -> Result<Decision, RouteError> {
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
        .iter()
        .find(|&&(p_tin, _)| p_tin == node.tin)
        .map(|&(_, port)| Decision::Forward(port))
        .ok_or_else(|| RouteError::MissingInformation {
            at: VertexId(u32::MAX),
            what: "destination label lacks the light port for this vertex".into(),
        })
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
/// a slot by binary search. The [`TreeNodeInfo`]s of every tree are one
/// slot-indexed `nodes` array, and all labels share one light-port CSR whose
/// offsets are absolute, one per node and indexed by the tree's first node
/// plus the member's DFS entry time. Per tree that leaves 8 bytes: where its
/// nodes and its ids start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeForest {
    /// `[first node, first id]` of every tree, and a closing entry.
    spans: Vec<[u32; 2]>,
    /// Member ids of every tree that does not span the graph, ascending
    /// within each tree.
    ids: Vec<VertexId>,
    /// Local routing information per slot, tree after tree.
    nodes: Vec<TreeNodeInfo>,
    /// One offset per node and a closing one: the light ports of the member
    /// whose DFS entry time is `t` in the tree whose nodes start at `s` are
    /// `light[light_off[s + t]..light_off[s + t + 1]]`.
    light_off: Vec<u32>,
    light: Vec<(u32, Port)>,
}

impl Default for TreeForest {
    fn default() -> Self {
        Self::new()
    }
}

/// An offset into a [`TreeForest`] array: they are `u32`.
fn offset(len: usize) -> Result<u32, TreeBuildError> {
    u32::try_from(len)
        .map_err(|_| TreeBuildError::NotATree { what: "trees exceed the u32 offset range".into() })
}

impl TreeForest {
    /// A forest of no trees.
    pub fn new() -> Self {
        TreeForest {
            spans: vec![[0, 0]],
            ids: Vec::new(),
            nodes: Vec::new(),
            light_off: vec![0],
            light: Vec::new(),
        }
    }

    /// Appends the tree of an explicit parent relation as the next tree.
    ///
    /// `parents` yields one `(child, parent)` pair per non-root tree vertex,
    /// in any order; the root must not appear as a child. Every parent edge
    /// must exist in `g` (ports are taken from `g`).
    ///
    /// One array pass per stage, no hashing: slots, a counting-sort children
    /// CSR (children id-ascending, which fixes the DFS order), preorder
    /// entry times, subtree sizes from one reverse sweep, then labels filled
    /// top-down in preorder — a child's light ports are its parent's plus at
    /// most one entry. The nodes and light ports are written straight into
    /// the forest's arrays; on an error the forest is left as it was.
    ///
    /// # Errors
    ///
    /// Returns an error if a parent edge is missing from the graph, the
    /// relation is not a tree rooted at `root`, or the forest would outgrow
    /// its `u32` offsets.
    pub fn push_parents<I>(&mut self, g: &Graph, root: VertexId, parents: I) -> Result<(), TreeBuildError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let lens = (self.ids.len(), self.nodes.len(), self.light_off.len(), self.light.len());
        let pushed = self.push_tree(g, root, parents);
        if pushed.is_err() {
            self.ids.truncate(lens.0);
            self.nodes.truncate(lens.1);
            self.light_off.truncate(lens.2);
            self.light.truncate(lens.3);
        }
        pushed
    }

    /// Appends the tree of the last search run on a [`SearchScratch`]: its
    /// settled vertices, under the search's parents.
    ///
    /// # Errors
    ///
    /// As [`TreeForest::push_parents`].
    pub fn push_scratch(&mut self, g: &Graph, scratch: &SearchScratch) -> Result<(), TreeBuildError> {
        let edges = scratch.order().iter().filter_map(|&(v, _)| scratch.parent(v).map(|p| (v, p)));
        self.push_parents(g, scratch.source(), edges)
    }

    /// [`TreeForest::push_parents`] without the roll-back.
    fn push_tree<I>(&mut self, g: &Graph, root: VertexId, parents: I) -> Result<(), TreeBuildError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        const UNSET: u32 = u32::MAX;
        let not_a_tree = |what: String| TreeBuildError::NotATree { what };
        let n = g.n();
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
            edges.push((c, p, up, down));
        }
        let m = edges.len() + 1;
        let id_base = self.ids.len();
        if m != n {
            self.ids.extend(edges.iter().map(|e| e.0));
            self.ids.push(root);
            self.ids[id_base..].sort_unstable();
        }
        let ids = &self.ids[id_base..];
        let slot_of = |v: VertexId| slot_in(ids, m, v);
        let root_slot = slot_of(root)
            .ok_or_else(|| not_a_tree(format!("root {root} is not a vertex of the host graph")))?;

        // Scatter the edges into slots and count children per parent slot.
        let node_base = self.nodes.len();
        self.nodes.resize(node_base + m, TreeNodeInfo::UNVISITED);
        let nodes = &mut self.nodes[node_base..];
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

        // Labels, top-down: the parent's light ports, plus the edge into
        // this vertex when it is a light one. Offsets are absolute, so a
        // parent's range is read where it was written.
        offset(node_base + m)?;
        let off_base = self.light_off.len() - 1;
        for &s in &pre {
            let s = s as usize;
            if parent[s] != UNSET {
                let p = &self.nodes[node_base + parent[s] as usize];
                let t = off_base + p.tin as usize;
                let (lo, hi) = (self.light_off[t] as usize, self.light_off[t + 1] as usize);
                self.light.extend_from_within(lo..hi);
                if p.heavy().map(|(h_tin, _, _)| h_tin) != Some(self.nodes[node_base + s].tin) {
                    self.light.push((p.tin, down_port[s]));
                }
            }
            self.light_off.push(offset(self.light.len())?);
        }
        self.spans.push([offset(self.nodes.len())?, offset(self.ids.len())?]);
        Ok(())
    }

    /// Appends the trees of `parts`, forests over the same graph, in order:
    /// tree `t` of `parts` comes after this forest's trees and the earlier
    /// parts'. Every offset is rebased onto the arrays before it, and each
    /// array grows by exactly what the parts hold, once.
    ///
    /// # Errors
    ///
    /// [`TreeBuildError::NotATree`] if the forest would outgrow its `u32`
    /// offsets; the forest is then left as it was.
    pub fn append(&mut self, parts: Vec<TreeForest>) -> Result<(), TreeBuildError> {
        let total = |len: fn(&TreeForest) -> usize| parts.iter().map(len).sum::<usize>();
        let (trees, ids) = (total(TreeForest::len), total(|f| f.ids.len()));
        let (nodes, light) = (total(|f| f.nodes.len()), total(|f| f.light.len()));
        offset(self.nodes.len() + nodes)?;
        offset(self.ids.len() + ids)?;
        offset(self.light.len() + light)?;
        self.spans.reserve_exact(trees);
        self.ids.reserve_exact(ids);
        self.nodes.reserve_exact(nodes);
        self.light_off.reserve_exact(nodes);
        self.light.reserve_exact(light);
        for part in parts {
            let (node_base, id_base) = (self.nodes.len() as u32, self.ids.len() as u32);
            let light_base = self.light.len() as u32;
            self.spans.extend(part.spans[1..].iter().map(|&[s, i]| [s + node_base, i + id_base]));
            self.light_off.extend(part.light_off[1..].iter().map(|&o| o + light_base));
            self.ids.extend_from_slice(&part.ids);
            self.nodes.extend_from_slice(&part.nodes);
            self.light.extend_from_slice(&part.light);
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
        let (&[n0, i0], &[n1, i1]) = (self.spans.get(t)?, self.spans.get(t + 1)?);
        let (n0, n1) = (n0 as usize, n1 as usize);
        Some(TreeView {
            ids: self.ids.get(i0 as usize..i1 as usize)?,
            nodes: self.nodes.get(n0..n1)?,
            light_off: self.light_off.get(n0..n1 + 1)?,
            light: &self.light,
        })
    }

    /// Every tree, in order.
    pub fn iter(&self) -> impl Iterator<Item = TreeView<'_>> + '_ {
        (0..self.len()).filter_map(|t| self.tree(t))
    }

    /// Bytes of heap the arrays hold, by capacity: 8 a tree, 4 a member id
    /// of a tree that does not span the graph, 24 a node, 4 a light offset
    /// and 8 a light port.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<[u32; 2]>() * self.spans.capacity()
            + std::mem::size_of::<VertexId>() * self.ids.capacity()
            + std::mem::size_of::<TreeNodeInfo>() * self.nodes.capacity()
            + std::mem::size_of::<u32>() * self.light_off.capacity()
            + std::mem::size_of::<(u32, Port)>() * self.light.capacity()
    }

    /// Returns the growth slack of every array.
    pub fn shrink_to_fit(&mut self) {
        self.spans.shrink_to_fit();
        self.ids.shrink_to_fit();
        self.nodes.shrink_to_fit();
        self.light_off.shrink_to_fit();
        self.light.shrink_to_fit();
    }
}

/// One tree of a [`TreeForest`], as a `Copy` view into the forest's arrays:
/// what a scheme looks a tree up as, and routes on.
#[derive(Debug, Clone, Copy)]
pub struct TreeView<'a> {
    /// Member ids, ascending; empty when the tree spans the graph.
    ids: &'a [VertexId],
    nodes: &'a [TreeNodeInfo],
    /// `nodes.len() + 1` absolute offsets into `light`, by DFS entry time.
    light_off: &'a [u32],
    /// The forest's whole light-port array.
    light: &'a [(u32, Port)],
}

impl<'a> TreeView<'a> {
    /// Number of vertices in the tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tree contains only its root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    #[inline]
    fn slot(&self, v: VertexId) -> Option<usize> {
        slot_in(self.ids, self.nodes.len(), v)
    }

    /// The root: the member whose DFS entry time is 0.
    pub fn root(&self) -> Option<VertexId> {
        let s = self.nodes.iter().position(|node| node.tin == 0)?;
        Some(self.ids.get(s).copied().unwrap_or(VertexId(s as u32)))
    }

    /// Returns true if `v` is a tree vertex.
    pub fn contains(&self, v: VertexId) -> bool {
        self.slot(v).is_some()
    }

    /// Iterator over the tree's vertices in ascending id order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + 'a {
        let ids = self.ids;
        (0..self.nodes.len()).map(move |s| ids.get(s).copied().unwrap_or(VertexId(s as u32)))
    }

    /// The local routing information of tree vertex `v`.
    #[inline]
    pub fn node_info(&self, v: VertexId) -> Option<&'a TreeNodeInfo> {
        self.nodes.get(self.slot(v)?)
    }

    /// The light ports of the label whose DFS entry time is `tin`; none for
    /// an entry time past the tree's.
    #[inline]
    fn light_ports(&self, tin: u32) -> &'a [(u32, Port)] {
        let t = tin as usize;
        let range = self.light_off.get(t).zip(self.light_off.get(t + 1));
        range.and_then(|(&lo, &hi)| self.light.get(lo as usize..hi as usize)).unwrap_or(&[])
    }

    /// The tree label of tree vertex `v`.
    pub fn label(&self, v: VertexId) -> Option<TreeLabel> {
        let tin = self.node_info(v)?.tin;
        Some(TreeLabel { tin, light_ports: self.light_ports(tin).to_vec() })
    }

    /// The label of tree vertex `v` as a view into this tree's light-port
    /// table: what [`TreeView::step_view`] routes with.
    #[inline]
    pub fn label_view(&self, v: VertexId) -> Option<TreeLabelView> {
        let tin = self.node_info(v)?.tin;
        Some(TreeLabelView { tin, light_len: self.light_ports(tin).len() as u32 })
    }

    /// Total size of every member's label in `O(log n)`-bit words.
    pub fn labels_words(&self) -> usize {
        let light = match (self.light_off.first(), self.light_off.last()) {
            (Some(&lo), Some(&hi)) => (hi - lo) as usize,
            _ => 0,
        };
        self.nodes.len() + 2 * light
    }

    /// Words of tree-routing information `v` stores: its [`TreeNodeInfo`]'s,
    /// none outside the tree.
    pub fn table_words(&self, v: VertexId) -> usize {
        self.node_info(v).map_or(0, TreeNodeInfo::words)
    }

    /// Words of `v`'s label, none outside the tree.
    pub fn label_words(&self, v: VertexId) -> usize {
        self.node_info(v).map_or(0, |node| 1 + 2 * self.light_ports(node.tin).len())
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
        self.step_at(at, dest.tin, &dest.light_ports)
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

    /// The step at tree vertex `at`, with errors attributed to `at`.
    #[inline]
    fn step_at(&self, at: VertexId, tin: u32, light: &[(u32, Port)]) -> Result<Decision, RouteError> {
        let Some(node) = self.node_info(at) else {
            let root = self.root().map_or_else(|| "nothing".into(), |r| r.to_string());
            return Err(RouteError::MissingInformation {
                at,
                what: format!("vertex is not in the tree rooted at {root}"),
            });
        };
        step_over(node, tin, light).map_err(|e| match e {
            RouteError::MissingInformation { what, .. } => RouteError::MissingInformation { at, what },
            other => other,
        })
    }
}

/// A complete tree routing scheme for one rooted tree: a named
/// [`TreeForest`] of that one tree, routed with the same step.
#[derive(Debug, Clone)]
pub struct TreeScheme {
    name: String,
    root: VertexId,
    n_graph: usize,
    forest: TreeForest,
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
        let mut forest = TreeForest::new();
        forest.push_parents(g, root, parents)?;
        forest.shrink_to_fit();
        Ok(TreeScheme { name: format!("tree-routing(root={root})"), root, n_graph: g.n(), forest })
    }

    /// Builds the router from a single-source shortest-path tree, spanning
    /// every vertex reachable from its source.
    ///
    /// # Errors
    ///
    /// Propagates [`TreeBuildError`] (cannot occur for a well-formed SPT of
    /// `g`).
    pub fn from_spt(g: &Graph, spt: &ShortestPathTree) -> Result<Self, TreeBuildError> {
        let edges = spt.reachable().filter_map(|(v, _)| spt.parent(v).map(|p| (v, p)));
        Self::from_parents(g, spt.source(), edges)
    }

    /// Builds the router for a cluster tree produced by
    /// [`routing_graph::shortest_path::cluster_dijkstra`].
    ///
    /// # Errors
    ///
    /// Propagates [`TreeBuildError`] (cannot occur for a well-formed cluster
    /// tree of `g`).
    pub fn from_restricted(g: &Graph, tree: &RestrictedTree) -> Result<Self, TreeBuildError> {
        let edges = tree.members().iter().filter_map(|&(v, _)| tree.parent(v)?.map(|p| (v, p)));
        Self::from_parents(g, tree.root(), edges)
    }

    /// Builds the router straight from the last search run on a
    /// [`SearchScratch`] — a full Dijkstra (`dijkstra_into`) or a restricted
    /// cluster search (`cluster_into`) — without materializing an owned
    /// [`ShortestPathTree`]/[`RestrictedTree`] first. The settled vertices
    /// become the tree; the result is identical to going through
    /// [`TreeScheme::from_spt`]/[`TreeScheme::from_restricted`].
    ///
    /// The tree covers exactly the vertices the search settled. A
    /// target-bounded search (`dijkstra_targets_into`) therefore yields a
    /// tree over its settled prefix only — callers that need a spanning
    /// tree (e.g. Technique 1's global hitting-set trees) must run the full
    /// search.
    ///
    /// # Errors
    ///
    /// Propagates [`TreeBuildError`] (cannot occur for a well-formed search
    /// on `g`).
    pub fn from_scratch(g: &Graph, scratch: &SearchScratch) -> Result<Self, TreeBuildError> {
        let edges = scratch.order().iter().filter_map(|&(v, _)| scratch.parent(v).map(|p| (v, p)));
        Self::from_parents(g, scratch.source(), edges)
    }

    /// The root of the tree.
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// The tree as a view: the forest's one tree.
    #[inline]
    fn view(&self) -> TreeView<'_> {
        const NONE: TreeView<'static> = TreeView { ids: &[], nodes: &[], light_off: &[], light: &[] };
        self.forest.tree(0).unwrap_or(NONE)
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

    /// The local routing information of tree vertex `v`.
    #[inline]
    pub fn node_info(&self, v: VertexId) -> Option<&TreeNodeInfo> {
        self.forest.tree(0)?.node_info(v)
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
    use routing_graph::generators;
    use routing_graph::shortest_path::{cluster_dijkstra, dijkstra, multi_source_dijkstra};
    use routing_model::simulate;

    fn spt_scheme(g: &Graph, root: VertexId) -> TreeScheme {
        TreeScheme::from_spt(g, &dijkstra(g, root)).expect("valid spt")
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
        let spt = dijkstra(&g, root);
        let t = TreeScheme::from_spt(&g, &spt).unwrap();
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
        let sources = [VertexId(35)];
        let ms = multi_source_dijkstra(&g, &sources);
        let bound: Vec<_> = g.vertices().map(|v| ms.dist(v).unwrap()).collect();
        let cluster = cluster_dijkstra(&g, VertexId(0), &bound);
        let t = TreeScheme::from_restricted(&g, &cluster).unwrap();
        assert!(t.len() > 1);
        for &(v, d) in cluster.members() {
            let out = simulate(&g, &t, VertexId(0), v).unwrap();
            assert_eq!(out.weight, d, "cluster tree routes on shortest paths from the root");
        }
    }

    #[test]
    fn from_scratch_matches_the_materializing_constructors() {
        let g = generators::grid(6, 6);
        let mut scratch = SearchScratch::for_graph(&g);

        scratch.dijkstra_into(&g, VertexId(7));
        let a = TreeScheme::from_scratch(&g, &scratch).unwrap();
        let b = TreeScheme::from_spt(&g, &dijkstra(&g, VertexId(7))).unwrap();
        for v in g.vertices() {
            assert_eq!(a.node_info(v), b.node_info(v));
            assert_eq!(a.label(v), b.label(v));
        }

        let ms = multi_source_dijkstra(&g, &[VertexId(35)]);
        let bound: Vec<_> = g.vertices().map(|v| ms.dist(v).unwrap()).collect();
        scratch.cluster_into(&g, VertexId(0), &bound);
        let a = TreeScheme::from_scratch(&g, &scratch).unwrap();
        let b =
            TreeScheme::from_restricted(&g, &cluster_dijkstra(&g, VertexId(0), &bound)).unwrap();
        assert_eq!(a.len(), b.len());
        for v in g.vertices() {
            assert_eq!(a.node_info(v), b.node_info(v));
            assert_eq!(a.label(v), b.label(v));
        }
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

    /// A node record is six `u32`s; the sentinel ports read back as absent
    /// at the root and at a leaf.
    #[test]
    fn node_records_are_24_bytes_with_sentinel_ports() {
        assert_eq!(std::mem::size_of::<TreeNodeInfo>(), 24);
        let g = generators::path(3);
        let t = spt_scheme(&g, VertexId(0));
        let (root, leaf) = (t.node_info(VertexId(0)).unwrap(), t.node_info(VertexId(2)).unwrap());
        assert_eq!((root.parent_port(), root.heavy().map(|h| h.0)), (None, Some(1)));
        assert_eq!((leaf.parent_port(), leaf.heavy()), (Some(Port(0)), None));
        assert_eq!((root.words(), leaf.words()), (5, 3));
    }

    /// A forest built in chunks and appended equals the forest built in one
    /// piece, tree for tree, and holds its bytes without slack; a tree that
    /// fails to build leaves the forest as it was.
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
        let mut whole = TreeForest::new();
        let mut chunks = vec![TreeForest::new(), TreeForest::new()];
        for r in 0..g.n() {
            search(&mut scratch, r);
            whole.push_scratch(&g, &scratch).unwrap();
            chunks[usize::from(r >= 10)].push_scratch(&g, &scratch).unwrap();
            let before = whole.clone();
            let cycle = [(VertexId(1), VertexId(0)), (VertexId(0), VertexId(1))];
            assert!(whole.push_parents(&g, VertexId(2), cycle).is_err());
            assert_eq!(whole, before, "a failed push rolls back");
        }
        let mut joined = TreeForest::new();
        joined.append(chunks).unwrap();
        whole.shrink_to_fit();
        assert_eq!(joined, whole);
        assert_eq!(joined.len(), g.n());
        for (r, tree) in joined.iter().enumerate() {
            search(&mut scratch, r);
            let alone = TreeScheme::from_scratch(&g, &scratch).unwrap();
            assert_eq!(tree.root(), Some(alone.root()));
            for v in g.vertices() {
                assert_eq!(tree.node_info(v), alone.node_info(v), "{v} in tree {r}");
                assert_eq!(tree.label(v), alone.label(v), "label of {v} in tree {r}");
            }
        }
        assert!(joined.tree(g.n()).is_none());
        let nodes: usize = joined.iter().map(|t| t.len()).sum();
        let ids: usize = joined.iter().filter(|t| t.len() != g.n()).map(|t| t.len()).sum();
        let light: usize = joined.iter().map(|t| (t.labels_words() - t.len()) / 2).sum();
        let bytes = 8 * (g.n() + 1) + 4 * ids + 24 * nodes + 4 * (nodes + 1) + 8 * light;
        assert_eq!(joined.heap_bytes(), bytes);
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
