//! The first routing technique (Lemma 7): `(1+ε)`-stretch routing between
//! vertices of the same set of a partition `U = {U_1, ..., U_q}` of `V`.
//!
//! **Preprocessing.** Every vertex stores its vicinity `B(u, q̃)` (Lemma 2).
//! A hitting set `H` of size `Õ(n/q)` hits every vicinity (Lemma 5); for
//! every `w ∈ H` a shortest-path tree `T(w)` spanning `V` is built and every
//! vertex keeps the Lemma 3 tree-routing information of every `T(w)`.
//! Finally, for every pair `u, v` in the same set of `U`, `u` stores a
//! routing *sequence* of at most `2⌈2/ε⌉` temporary targets along a shortest
//! `u`–`v` path; if the sequence does not end at `v` it ends at a hitting-set
//! vertex `w ∈ B(·, q̃)` and `u` additionally needs `v`'s label in `T(w)`.
//! That label is charged to `u` as the paper counts it, but it is the same
//! bytes `T(w)`'s light-port table already holds, so it is not stored twice:
//! [`Technique1Router::start`] reads it from `T(w)` when the sequence's last
//! target is not the destination, which happens exactly when the sequence
//! stopped early. So only a tree some sequence stops at keeps its members'
//! labels; every other `T(w)` keeps its node records alone. The sequences
//! themselves are one `SeqStore` arena, packed at the graph's width — on
//! graphs of up to 65,535 vertices and degree 255, 6 bytes a pair and 3 an
//! entry — and a header carries its sequence as a cursor into that arena
//! and the tree label as a view into `T(w)`'s table.
//! A sequence reads only a shortest `u`–`v` path and the distance from `u`
//! to each vertex on it, so one search per source serves all its set's
//! members. The searches are [`SearchBatch::run_targets`] runs: on a
//! unit-weight graph — Theorems 10, 13 and 15 take those, and the warm-up
//! is run on them — one bit-parallel BFS per 64 consecutive sources, whose
//! paths are the ones Dijkstra's `(distance, id)` rule picks; on a weighted
//! graph a target-bounded Dijkstra a source that stops at its last set
//! member.
//!
//! **Routing.** The sequence travels in the message header. The message hops
//! from temporary target to temporary target (ball hops via Lemma 2, edge
//! hops via a stored port); if the last target is a hitting-set vertex `w`
//! the remaining distance is covered on the tree `T(w)` using `v`'s tree
//! label. The traversed path has weight at most `(1+ε)·d(u, v)`.

use routing_graph::{Graph, PackedView, SearchBatch, SlotCodec, VertexId, Weight};
use routing_model::{Decision, HeaderSize, RouteError, RoutingScheme};
use routing_tree::{Labels, TreeForest, TreeLabelView, TreeView};
use routing_vicinity::{hitting_set_of_vicinities, BallDists, BallPorts, BallTable};

use crate::seq::{push_hops, walk_round, SeqChunk, SeqCursor, SeqEntry, SeqStore, SeqStoreBuilder};
use crate::stages::{self, ROUNDS};
use crate::{BuildError, Params};

/// The header carried by a message routed with the first technique: the
/// stored sequence as a cursor into the router's arena, and the
/// destination's label in `T(w)` as a view into that tree. It is charged
/// the words of the sequence and label it stands for.
#[derive(Debug, Clone, Copy)]
pub struct Technique1Header {
    seq: SeqCursor,
    /// `(w, label of destination in T(w))` when the sequence ends at a
    /// hitting-set vertex.
    final_tree: Option<(VertexId, TreeLabelView)>,
    /// True once the message switched to routing on `T(w)`.
    tree_mode: bool,
}

impl HeaderSize for Technique1Header {
    fn words(&self) -> usize {
        self.seq.words() + 1 + self.final_tree.map_or(0, |(_, l)| 1 + l.words())
    }
}

/// The Lemma 7 router. It is designed to be *embedded* in the full schemes:
/// the schemes own the shared ball table — the full [`BallTable`] for
/// `Technique1Router::build`, of which they keep the [`BallPorts`] to pass
/// to [`Technique1Router::step`] — while the router owns the hitting-set
/// trees and the per-pair sequences.
#[derive(Debug, Clone)]
pub struct Technique1Router {
    /// The hitting set, id-sorted; tree `i` of `trees` is the global tree
    /// of `hitting[i]`, so one binary search resolves both membership and
    /// tree lookups.
    hitting: Vec<VertexId>,
    trees: TreeForest,
    /// At `u`, per same-set destination `v`: the stored sequence.
    seqs: SeqStore,
    b: usize,
}

impl Technique1Router {
    /// Builds the router for the partition described by `set_of` (the set
    /// index of every vertex). Sequences are stored for every ordered pair of
    /// distinct vertices sharing a set index. The partition is read in place
    /// while the sources are sorted, and the router keeps no copy of it.
    ///
    /// `balls` must have been built with the `q̃` the scheme uses; the same
    /// table's ports must later be passed to [`Technique1Router::step`]. The caller
    /// has run [`stages::check`] on `(g, params)`: the global shortest-path
    /// trees must span `V`.
    ///
    /// The stages run in this order: the Lemma 5 hitting set, the
    /// sequences, the hitting set's trees, and then the check that every
    /// stored sequence can be charged its words. The sequences come from
    /// one search per source with another member in its set, run by
    /// [`SearchBatch::run_targets`] eight rounds of whole runs at a time
    /// ([`routing_par::by_rounds`]): each round's chunks, one a run, are
    /// appended to the sequence store, then dropped, so the build holds one
    /// round of chunks beside the store, which keeps no slack. A round also
    /// marks the hitting-set vertices its sequences stop at early; the
    /// trees are built after the store, beside it, and only a marked
    /// vertex's tree keeps its members' labels ([`Labels::Keep`]), since
    /// [`Technique1Router::start`] reads a label from no other. The router
    /// does not depend on the kernel, the rounds nor the thread count.
    ///
    /// # Errors
    ///
    /// Returns an error if a global tree cannot be laid out, or a
    /// sequence cannot be built ([`BuildError::Inconsistent`] when the
    /// chunks do not hold one sequence per pair, or a sequence stops at a
    /// vertex with no global tree).
    pub(crate) fn build(
        g: &Graph,
        balls: &BallTable,
        set_of: impl Fn(VertexId) -> u32,
        params: &Params,
    ) -> Result<Self, BuildError> {
        Self::build_by(g, balls, set_of, params, SearchBatch::for_graph, ROUNDS)
    }

    /// [`Technique1Router::build`] on the searches `search` makes, in
    /// `rounds` rounds: the tests pin the batch BFS to the Dijkstra kernel
    /// of [`SearchBatch::scalar`], and the store built by rounds to the
    /// store built at once, with it.
    fn build_by(
        g: &Graph,
        balls: &BallTable,
        set_of: impl Fn(VertexId) -> u32,
        params: &Params,
        search: fn(&Graph) -> SearchBatch,
        rounds: usize,
    ) -> Result<Self, BuildError> {
        let (n, b) = (g.n(), params.b_lemma7());
        let _span = routing_obs::span("technique1");

        // Lemma 5: a hitting set for every vicinity.
        let hitting = {
            let _span = routing_obs::span("hitting-set");
            hitting_set_of_vicinities(balls)
        };

        // Sequences for every same-set ordered pair, a round of sources at
        // a time. Sources are sorted by vertex id and members by id, so the
        // rows arrive in the `(u, v)` order the store wants. A sequence
        // that stops early marks the vertex it stops at. The source lists
        // are dropped before the trees are built.
        let (seqs, stopped_at) = {
            let _span = routing_obs::span("sequences");
            let by_set = sort_by_set(n, &set_of);
            let sources = same_set_sources(&by_set, &set_of);
            let codec = SlotCodec::for_graph(g);
            let walk = SeqBuilder { g, balls, b, hitting: &hitting, codec };
            let plan = search(g).rounds(sources.len(), rounds);
            let run = |search: &mut SearchBatch, tasks| walk.chunk(search, &sources[tasks]);
            let (mut seqs, mut stopped_at) = (SeqStoreBuilder::new(codec, n), vec![false; n]);
            routing_par::by_rounds(plan, || search(g), run, |round, chunks| {
                let pairs = sources[round].iter().flat_map(|&(u, members)| {
                    members.iter().filter(move |&&v| v != u).map(move |&v| (u, v))
                });
                let built = chunks.iter().map(SeqChunk::len).sum::<usize>();
                if pairs.clone().count() != built {
                    return Err(BuildError::Inconsistent {
                        what: format!("{built} Lemma 7 sequences built for {} pairs", pairs.count()),
                    });
                }
                let rows = pairs.zip(chunks.iter().flat_map(SeqChunk::sequences)).map(|((u, v), s)| (u, v, s));
                for w in rows.clone().filter_map(|(_, v, s)| stops_early(v, s)) {
                    stopped_at[w.index()] = true;
                }
                seqs.extend(rows)
            })?;
            (seqs.finish(), stopped_at)
        };

        // Global shortest-path trees for the hitting set. These searches
        // stay *full*: every tree must span V. Only a tree some sequence
        // stops at is routed on, towards a label read from the tree; every
        // other tree keeps its node records alone.
        let trees = stages::global_trees(g, &hitting, |w| {
            if stopped_at[w.index()] {
                Labels::Keep
            } else {
                Labels::Drop
            }
        })?;
        for u in (0..n as u32).map(VertexId) {
            for (v, s) in seqs.rows_at(u) {
                stored_words(&hitting, &trees, u, v, s)?;
            }
        }
        Ok(Technique1Router { hitting, trees, seqs, b })
    }

    /// The hitting set `H` used by the router.
    pub fn hitting_set(&self) -> &[VertexId] {
        &self.hitting
    }

    /// Lemma 7's round budget `b = ⌈2/ε⌉`.
    pub fn b(&self) -> usize {
        self.b
    }

    /// True if a sequence is stored at `u` for `v` (i.e. they share a set).
    pub fn has_sequence(&self, u: VertexId, v: VertexId) -> bool {
        self.seqs.cursor(u, v).is_some()
    }

    /// Heap bytes the stored sequences hold, by capacity: 8 a vertex, a
    /// packed key and a 4-byte end a pair, and a packed `[vertex, port]`
    /// slot an entry (6 and 3 bytes on graphs of up to 65,535 vertices and
    /// degree 255), plus the closing pads.
    pub fn sequences_heap_bytes(&self) -> usize {
        self.seqs.heap_bytes()
    }

    /// How many `(source, destination)` pairs store a sequence, and how
    /// many entries those sequences hold.
    pub fn sequence_counts(&self) -> (usize, usize) {
        self.seqs.counts()
    }

    /// [`sequence_counts`](Self::sequence_counts) of the sequences stored
    /// at `u` alone; none for a `u` outside `0..n`.
    pub fn sequence_counts_at(&self, u: VertexId) -> (usize, usize) {
        self.seqs.counts_at(u)
    }

    /// The global tree of hitting-set vertex `w`, if `w ∈ H`.
    fn tree_of(&self, w: VertexId) -> Option<TreeView<'_>> {
        global_tree(&self.hitting, &self.trees, w)
    }

    /// Builds the header a message needs when it starts the Lemma 7 phase at
    /// `at` towards `dest`. `at` and `dest` must share a set of the
    /// partition. A sequence that ends at a vertex `w ≠ dest` stopped early
    /// at a hitting-set vertex; the header then carries `dest`'s label in
    /// `T(w)`, read from that tree.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::MissingInformation`] if `at` stores no sequence
    /// for `dest` (the pair is not in the same set), or a stored sequence is
    /// empty or stops at a vertex with no global tree (a preprocessing
    /// bug).
    pub fn start(&self, at: VertexId, dest: VertexId) -> Result<Technique1Header, RouteError> {
        if at == dest {
            let seq = SeqCursor::default();
            return Ok(Technique1Header { seq, final_tree: None, tree_mode: false });
        }
        let seq = self.seqs.cursor(at, dest).ok_or_else(|| RouteError::MissingInformation {
            at,
            what: format!("no Lemma 7 sequence for destination {dest} (different partition set)"),
        })?;
        let w = self.seqs.entry(at, seq.last())?.vertex;
        let final_tree = if w == dest {
            None
        } else {
            let label = self.tree_of(w).and_then(|t| t.label_view(dest)).ok_or_else(|| {
                RouteError::MissingInformation {
                    at,
                    what: format!("Lemma 7 sequence for {dest} stops at {w}, which has no tree"),
                }
            })?;
            Some((w, label))
        };
        let tree_mode = seq.len() == 1 && final_tree.is_some();
        Ok(Technique1Header { seq, final_tree, tree_mode })
    }

    /// One local routing decision of the Lemma 7 phase at vertex `at`.
    ///
    /// `balls` must be the ports of the table the router was built with.
    ///
    /// # Errors
    ///
    /// Returns an error if required local information is missing, which
    /// indicates a preprocessing bug rather than a routable situation.
    pub fn step(
        &self,
        at: VertexId,
        header: &mut Technique1Header,
        dest: VertexId,
        balls: &BallPorts,
    ) -> Result<Decision, RouteError> {
        if at == dest {
            return Ok(Decision::Deliver);
        }
        if header.tree_mode {
            return self.tree_step(at, header);
        }
        if header.seq.is_empty() {
            return Err(RouteError::MissingInformation {
                at,
                what: "empty Lemma 7 sequence for a non-trivial destination".into(),
            });
        }
        // Advance past targets we are standing on.
        let mut target = self.seqs.entry(at, header.seq)?;
        while target.vertex == at {
            if header.seq.at_last() {
                // Standing on the last target which is not the destination
                // and not a hitting-set final vertex: preprocessing bug.
                return Err(RouteError::MissingInformation {
                    at,
                    what: "reached end of Lemma 7 sequence before the destination".into(),
                });
            }
            header.seq.idx += 1;
            if header.seq.at_last() && header.final_tree.is_some() {
                // The next (= last) target is the hitting-set vertex: the
                // paper routes the rest on T(w) starting here.
                header.tree_mode = true;
                return self.tree_step(at, header);
            }
            target = self.seqs.entry(at, header.seq)?;
        }
        if header.seq.at_last() && header.final_tree.is_some() {
            header.tree_mode = true;
            return self.tree_step(at, header);
        }
        target.forward(at, balls)
    }

    fn tree_step(&self, at: VertexId, header: &Technique1Header) -> Result<Decision, RouteError> {
        let (w, label) = header.final_tree.ok_or_else(|| RouteError::MissingInformation {
            at,
            what: "tree mode without a final tree label".into(),
        })?;
        let tree = self.tree_of(w).ok_or_else(|| RouteError::MissingInformation {
            at,
            what: format!("no global tree stored for hitting-set vertex {w}"),
        })?;
        tree.step_view(at, label)
    }

    /// The words Lemma 7 charges to `v`: tree-routing information for every
    /// hitting-set tree plus the stored sequences, each with the tree label
    /// it ends in when it stops early, read from the store and the trees.
    /// (The shared ball table is accounted by the embedding scheme.)
    pub fn table_words(&self, v: VertexId) -> usize {
        let tree_words: usize = self.trees.iter().map(|t| t.table_words(v)).sum();
        let rows = self.seqs.rows_at(v);
        let seq_words = rows.map(|(w, s)| stored_words(&self.hitting, &self.trees, v, w, s).unwrap_or(0));
        tree_words + seq_words.sum::<usize>()
    }
}

/// The global tree of hitting-set vertex `w`, if `w ∈ H` — one binary search
/// over the id-sorted hitting set, no hash table; tree `i` is the tree of
/// `hitting[i]`.
fn global_tree<'a>(hitting: &[VertexId], trees: &'a TreeForest, w: VertexId) -> Option<TreeView<'a>> {
    trees.tree(hitting.binary_search(&w).ok()?)
}

/// The words the sequence `s` stored at `u` for `v` charges `u`: one for
/// the pair, the entries, and — when it stops early at a `w ≠ v` — `v`'s
/// label in `T(w)`.
///
/// # Errors
///
/// [`BuildError::Inconsistent`] when the sequence stops at a vertex with
/// no global tree.
fn stored_words(
    hitting: &[VertexId],
    trees: &TreeForest,
    u: VertexId,
    v: VertexId,
    s: PackedView<'_, 2>,
) -> Result<usize, BuildError> {
    let label_words = match stops_early(v, s) {
        Some(w) => global_tree(hitting, trees, w)
            .and_then(|t| t.label_view(v))
            .ok_or_else(|| BuildError::Inconsistent {
                what: format!("the sequence at {u} for {v} stops at {w}, which has no tree"),
            })?
            .words(),
        None => 0,
    };
    Ok(1 + SeqEntry::words() * s.len() + label_words)
}

/// The vertex `w ≠ v` the sequence `s` stored for `v` stops at, if it stops
/// early: a hitting-set vertex, whose tree the route finishes on.
fn stops_early(v: VertexId, s: PackedView<'_, 2>) -> Option<VertexId> {
    let [w, _] = s.get::<u32>(s.len().checked_sub(1)?)?;
    (w != v.0).then_some(VertexId(w))
}

/// The `n` vertices sorted by `(set, id)`: each set is one consecutive run,
/// and each run is id-sorted — which is what makes the per-source
/// destination slots of the flat store binary-searchable.
fn sort_by_set(n: usize, set_of: impl Fn(VertexId) -> u32) -> Vec<VertexId> {
    let mut by_set: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
    by_set.sort_unstable_by_key(|&v| (set_of(v), v));
    by_set
}

/// Every vertex whose set has another member, with that set's run of
/// `by_set`, sorted by vertex id: at most one entry a vertex, room for which
/// is reserved once.
fn same_set_sources(
    by_set: &[VertexId],
    set_of: impl Fn(VertexId) -> u32,
) -> Vec<(VertexId, &[VertexId])> {
    let mut sources: Vec<(VertexId, &[VertexId])> = Vec::with_capacity(by_set.len());
    sources.extend(
        by_set
            .chunk_by(|&a, &b| set_of(a) == set_of(b))
            .filter(|members| members.len() >= 2)
            .flat_map(|members| members.iter().map(move |&u| (u, members))),
    );
    sources.sort_unstable_by_key(|&(u, _)| u);
    sources
}

/// What building a Lemma 7 sequence reads besides the path: the graph, the
/// ball table, the round budget `b`, the id-sorted hitting set and the
/// codec that packs the entries.
struct SeqBuilder<'a> {
    g: &'a Graph,
    balls: &'a BallTable,
    b: usize,
    hitting: &'a [VertexId],
    codec: SlotCodec<2>,
}

impl SeqBuilder<'_> {
    /// The sequences of `sources`, in order, one per other member of each
    /// source's set, as one chunk, from one [`SearchBatch::run_targets`]
    /// run: every vertex a path to a member visits is settled before it,
    /// so a Dijkstra may stop at the member settled last.
    fn chunk(&self, search: &mut SearchBatch, sources: &[(VertexId, &[VertexId])]) -> Result<SeqChunk, BuildError> {
        let g = self.g;
        let _frontier = routing_obs::span("settled-frontier");
        let mut chunk = SeqChunk::new(self.codec);
        search.run_targets(g, sources).map_err(|e| BuildError::BadParameter { what: e.to_string() })?;
        for (i, &(u, members)) in sources.iter().enumerate() {
            for &v in members.iter().filter(|&&v| v != u) {
                // Every member is a target, so it is settled unless
                // unreachable.
                let (path, prefix) = search.path(g, i, v).ok_or(BuildError::Disconnected)?;
                self.sequence(path, prefix, &mut chunk)?;
                chunk.close()?;
            }
        }
        chunk.shrink_to_fit();
        Ok(chunk)
    }

    /// Appends the Lemma 7 sequence stored at `path[0]` for `path[last]` to
    /// `chunk`, given a shortest path between them and the distance from
    /// `path[0]` to each of its vertices (`prefix[k]` for `path[k]`).
    ///
    /// # Errors
    ///
    /// [`BuildError::Inconsistent`] when the path is not a path of the graph
    /// or a vicinity it stops early in holds no hitting-set vertex.
    fn sequence(
        &self,
        path: &[VertexId],
        prefix: &[Weight],
        chunk: &mut SeqChunk,
    ) -> Result<(), BuildError> {
        let (g, balls, hitting) = (self.g, self.balls, self.hitting);
        let Some(&d_uv) = prefix.last() else {
            return Err(BuildError::Disconnected);
        };
        let mut pos = 0usize;
        while let Some(next) = walk_round(g, balls, path, pos, chunk)? {
            let d_xi_zi = prefix[next] - prefix[pos];
            if (d_xi_zi as u128) * (self.b as u128) < d_uv as u128 {
                // Progress below the threshold s = d(u,v)/b: finish via a
                // hitting-set vertex `w` of B(xi, q̃); `start` reads the
                // destination's label in T(w) from the tree.
                let xi = path[pos];
                let w = balls.ball(xi).ids().iter().find(|m| hitting.binary_search(m).is_ok());
                let w = w.ok_or_else(|| BuildError::Inconsistent {
                    what: format!("the hitting set misses B({xi}, q̃)"),
                })?;
                chunk.push(SeqEntry::ball(w));
                return Ok(());
            }
            push_hops(g, path, pos, next, chunk)?;
            pos = next;
        }
        Ok(())
    }
}

/// The standalone Lemma 7 routing scheme: routes between any two vertices of
/// the same partition set with stretch `(1+ε)`. Destinations in a different
/// set are rejected (the full schemes of Section 4 are what extends this to
/// all pairs).
#[derive(Debug, Clone)]
pub struct Technique1Scheme {
    n: usize,
    epsilon: f64,
    /// The set index of every vertex, for labels and the same-set check.
    set_of: Vec<u32>,
    balls: BallPorts,
    router: Technique1Router,
}

impl Technique1Scheme {
    /// The stretch slack `ε` this scheme was built with.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Builds the standalone scheme for a given partition (`set_of[v]` is the
    /// set index of `v`) using balls of size `q̃ = scaled(q)` where `q` is the
    /// number of distinct sets. The table is built without distances, which
    /// the router does not read, and the scheme keeps its ports alone.
    ///
    /// # Errors
    ///
    /// [`BuildError::BadParameter`] when `set_of` does not hold one set
    /// index a vertex; otherwise propagates [`BuildError`] from the
    /// underlying router.
    pub fn build(g: &Graph, set_of: Vec<u32>, params: &Params) -> Result<Self, BuildError> {
        stages::check(g, params)?;
        if set_of.len() != g.n() {
            let what = format!("{} set indices for {} vertices", set_of.len(), g.n());
            return Err(BuildError::BadParameter { what });
        }
        let q = set_of.iter().copied().max().map(|m| m as usize + 1).unwrap_or(1);
        let ell = params.scaled(q, g.n());
        let balls = BallTable::build_with_dists(g, ell, BallDists::Skip);
        let router = Technique1Router::build(g, &balls, |v| set_of[v.index()], params)?;
        let balls = balls.into_ports();
        Ok(Technique1Scheme { n: g.n(), epsilon: params.epsilon, set_of, balls, router })
    }

    /// The underlying router (for inspection in tests and experiments).
    pub fn router(&self) -> &Technique1Router {
        &self.router
    }

    /// The set index of `v` in the partition the scheme was built with.
    fn set_of(&self, v: VertexId) -> u32 {
        self.set_of[v.index()]
    }

    /// The Lemma 2 ports of the shared ball table.
    pub fn balls(&self) -> &BallPorts {
        &self.balls
    }
}

/// Label of a destination for the standalone Lemma 7 scheme: the vertex and
/// its partition set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Technique1Label {
    /// The destination vertex.
    pub vertex: VertexId,
    /// Its set in the partition.
    pub set: u32,
}

impl RoutingScheme for Technique1Scheme {
    type Label = Technique1Label;
    type Header = Technique1Header;

    fn name(&self) -> &str {
        "lemma7"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn label_of(&self, v: VertexId) -> Technique1Label {
        Technique1Label { vertex: v, set: self.set_of(v) }
    }

    fn init_header(
        &self,
        source: VertexId,
        dest: &Technique1Label,
    ) -> Result<Technique1Header, RouteError> {
        if source != dest.vertex && self.set_of(source) != dest.set {
            return Err(RouteError::BadLabel {
                what: format!(
                    "lemma 7 routes only within a partition set ({source} is in set {}, {} in set {})",
                    self.set_of(source),
                    dest.vertex,
                    dest.set
                ),
            });
        }
        self.router.start(source, dest.vertex)
    }

    fn decide(
        &self,
        at: VertexId,
        header: &mut Technique1Header,
        dest: &Technique1Label,
    ) -> Result<Decision, RouteError> {
        self.router.step(at, header, dest.vertex, &self.balls)
    }

    fn table_words(&self, v: VertexId) -> usize {
        self.balls.words_at(v) + self.router.table_words(v)
    }

    fn label_words(&self, _v: VertexId) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BTreeSet;

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_graph::apsp::DistanceMatrix;
    use routing_graph::generators::{self, WeightModel};
    use routing_graph::scratch::BFS_BATCH_WIDTH;
    use routing_graph::{Port, SearchScratch};
    use routing_model::simulate;
    use routing_tree::TreeLabel;
    use routing_vicinity::hitting::hits_all;
    use routing_graph::SLOT_PAD;

    use crate::seq::HopKind;

    fn partition_mod(n: usize, q: u32) -> Vec<u32> {
        (0..n).map(|v| (v as u32) % q).collect()
    }

    /// The partition of [`partition_mod`], read in place as the router does.
    fn set_mod(q: u32) -> impl Fn(VertexId) -> u32 + Copy {
        move |v| v.0 % q
    }

    fn check_intra_set_stretch(g: &Graph, set_of: Vec<u32>, epsilon: f64) {
        let params = Params::with_epsilon(epsilon);
        let scheme = Technique1Scheme::build(g, set_of.clone(), &params).unwrap();
        let exact = DistanceMatrix::new(g);
        let mut checked = 0usize;
        for u in g.vertices() {
            for v in g.vertices() {
                if u == v || set_of[u.index()] != set_of[v.index()] {
                    continue;
                }
                let out = simulate(g, &scheme, u, v).unwrap();
                let d = exact.dist(u, v).unwrap();
                let bound = (1.0 + epsilon) * d as f64 + 1e-9;
                assert!(
                    (out.weight as f64) <= bound,
                    "stretch violated for {u}->{v}: routed {} vs (1+{epsilon})*{d}",
                    out.weight
                );
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn lemma7_stretch_on_unweighted_random_graph() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::erdos_renyi(90, 0.06, WeightModel::Unit, &mut rng);
        check_intra_set_stretch(&g, partition_mod(90, 6), 0.5);
    }

    #[test]
    fn lemma7_stretch_on_weighted_graph() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = generators::erdos_renyi(70, 0.07, WeightModel::Uniform { lo: 1, hi: 10 }, &mut rng);
        check_intra_set_stretch(&g, partition_mod(70, 5), 0.25);
    }

    #[test]
    fn lemma7_stretch_on_grid() {
        // Large-diameter graph: sequences actually use several rounds.
        let g = generators::grid(8, 8);
        check_intra_set_stretch(&g, partition_mod(64, 4), 1.0);
    }

    #[test]
    fn lemma7_rejects_cross_set_destinations() {
        let g = generators::cycle(20);
        let scheme = Technique1Scheme::build(&g, partition_mod(20, 4), &Params::default()).unwrap();
        let err = simulate(&g, &scheme, VertexId(0), VertexId(1)).unwrap_err();
        assert!(matches!(err, RouteError::BadLabel { .. }));
        // Same set works (0 and 4 are both in set 0).
        let out = simulate(&g, &scheme, VertexId(0), VertexId(4)).unwrap();
        assert_eq!(out.destination(), VertexId(4));
    }

    #[test]
    fn lemma7_self_route() {
        let g = generators::path(10);
        let scheme = Technique1Scheme::build(&g, partition_mod(10, 2), &Params::default()).unwrap();
        let out = simulate(&g, &scheme, VertexId(3), VertexId(3)).unwrap();
        assert_eq!(out.hops, 0);
    }

    #[test]
    fn lemma7_disconnected_graph_is_rejected() {
        let mut b = routing_graph::GraphBuilder::new(4);
        b.add_unit_edge(0, 1).unwrap();
        b.add_unit_edge(2, 3).unwrap();
        let g = b.build();
        let err = Technique1Scheme::build(&g, partition_mod(4, 2), &Params::default()).unwrap_err();
        assert_eq!(err, BuildError::Disconnected);
    }

    #[test]
    fn lemma7_bad_epsilon_is_rejected() {
        let g = generators::path(6);
        let err =
            Technique1Scheme::build(&g, partition_mod(6, 2), &Params::with_epsilon(0.0)).unwrap_err();
        assert!(matches!(err, BuildError::BadParameter { .. }));
        // A partition that misses a vertex, or names one past the graph.
        for n in [5, 7] {
            let err = Technique1Scheme::build(&g, partition_mod(n, 2), &Params::default()).unwrap_err();
            assert!(matches!(err, BuildError::BadParameter { .. }), "{n} set indices: {err}");
        }
    }

    /// Every stored row of `router`, decoded, equals `reference`'s, and
    /// every vertex is charged the same words.
    fn assert_same_sequences(key: &str, g: &Graph, router: &Technique1Router, reference: &Technique1Router) {
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(router.seqs.decoded(u, v), reference.seqs.decoded(u, v), "{key}: ({u}, {v})");
            }
            assert_eq!(router.table_words(u), reference.table_words(u), "{key}: words at {u}");
            assert_eq!(router.table_words(u), decoded_words(g, router, u), "{key}: words at {u}");
        }
    }

    /// The words `router` charges to `u`, from its trees and its rows read
    /// a destination at a time: a word a sequence, its entries' words, and
    /// the words of the destination's label in the tree a sequence stops
    /// in short of it.
    fn decoded_words(g: &Graph, router: &Technique1Router, u: VertexId) -> usize {
        let trees: usize = router.trees.iter().map(|t| t.table_words(u)).sum();
        let rows = g.vertices().filter_map(|v| Some((v, router.seqs.decoded(u, v)?)));
        let seqs = rows.map(|(v, row)| {
            let label = match row.last().map(|e| e.vertex) {
                Some(w) if w != v => router.tree_of(w).unwrap().label_view(v).unwrap().words(),
                _ => 0,
            };
            1 + SeqEntry::words() * row.len() + label
        });
        trees + seqs.sum::<usize>()
    }

    /// On a unit-weight graph the router's sequences come from the batch
    /// BFS; the per-source Dijkstra kernel, run on the same graph with the
    /// same hitting set and trees, must store the same sequence for every
    /// pair — compared decoded — and charge every vertex the same words, at
    /// 1 and 4 threads.
    #[test]
    fn batch_bfs_sequences_equal_the_dijkstra_kernel() {
        let mut rng = StdRng::seed_from_u64(17);
        let graphs = [
            ("er", generators::erdos_renyi(150, 0.04, WeightModel::Unit, &mut rng)),
            ("geometric", generators::random_geometric(130, 0.16, WeightModel::Unit, &mut rng)),
            ("scale-free", generators::barabasi_albert(140, 2, WeightModel::Unit, &mut rng)),
            ("grid", generators::grid(9, 11)),
        ];
        let params = Params::with_epsilon(0.5);
        for (name, g) in &graphs {
            // Sets of ~10 members: every source runs, and the last batch is short.
            let set_of = set_mod(10);
            let balls = BallTable::build(g, params.scaled(10, g.n()));
            for threads in [1, 4] {
                routing_par::set_threads(threads);
                let router = Technique1Router::build(g, &balls, set_of, &params).unwrap();
                assert_eq!(same_set_sources(&sort_by_set(g.n(), set_of), set_of).len(), g.n());
                let reference =
                    Technique1Router::build_by(g, &balls, set_of, &params, SearchBatch::scalar, ROUNDS).unwrap();
                assert_same_sequences(&format!("{name} x{threads}"), g, &router, &reference);
            }
            routing_par::set_threads(routing_par::available_threads());
        }
    }

    /// The store filled a round of sources at a time equals the store the
    /// chunks of every source build when appended at once: every decoded
    /// row, the words each vertex is charged, and the arrays' sizes, with
    /// no growth slack in either — through the batch BFS on a unit-weight
    /// graph and the Dijkstra kernel on a weighted one, with 700 and 300
    /// sources (neither a multiple of 64 · 8, so the last round and its
    /// last batch are short), at 1, 2 and 4 threads.
    #[test]
    fn a_store_filled_by_rounds_equals_the_store_filled_at_once() {
        let mut rng = StdRng::seed_from_u64(29);
        let unit = generators::erdos_renyi(700, 0.012, WeightModel::Unit, &mut rng);
        let weighted = generators::erdos_renyi(300, 0.03, WeightModel::Uniform { lo: 1, hi: 9 }, &mut rng);
        let params = Params::with_epsilon(0.5);
        for (name, g) in [("unit er, batch BFS", &unit), ("weighted er, Dijkstra", &weighted)] {
            assert_ne!(g.n() % (BFS_BATCH_WIDTH * ROUNDS), 0, "{name}: the last round is short");
            let set_of = set_mod(12);
            let balls = BallTable::build_with_dists(g, params.scaled(12, g.n()), BallDists::Skip);
            let at_once = Technique1Router::build_by(g, &balls, set_of, &params, SearchBatch::for_graph, 1).unwrap();
            for threads in [1, 2, 4] {
                routing_par::set_threads(threads);
                let by_rounds = Technique1Router::build(g, &balls, set_of, &params).unwrap();
                let key = format!("{name} x{threads}");
                assert_eq!(by_rounds.seqs.tight_sizes(), at_once.seqs.tight_sizes(), "{key}: sizes");
                assert_eq!(by_rounds.sequences_heap_bytes(), at_once.sequences_heap_bytes(), "{key}: bytes");
                assert_same_sequences(&key, g, &by_rounds, &at_once);
            }
            routing_par::set_threads(routing_par::available_threads());
        }
    }

    /// A stored routing sequence for one (source, destination) pair, as the
    /// router kept it before the arena.
    #[derive(Debug, Clone, PartialEq)]
    struct StoredSeq {
        entries: Vec<SeqEntry>,
        /// When the last entry is a hitting-set vertex `w` (not the
        /// destination), the destination's label in `T(w)`.
        final_tree_label: Option<TreeLabel>,
    }

    /// The sequence the router built and stored before the arena, verbatim
    /// but for the walk helpers' chunk — read back as the entries pushed
    /// into it, unpacked — and `Result`s, plus `shift`: `0` is the
    /// reference, `1` plants an off-by-one tree index.
    fn stored_sequence(
        walk: &SeqBuilder,
        trees: &TreeForest,
        path: &[VertexId],
        prefix: &[Weight],
        shift: usize,
    ) -> StoredSeq {
        let (g, balls, hitting) = (walk.g, walk.balls, walk.hitting);
        let (Some(&v), Some(&d_uv)) = (path.last(), prefix.last()) else {
            panic!("an empty path");
        };
        let mut chunk = SeqChunk::new(walk.codec);
        let mut pos = 0usize;
        while let Some(next) = walk_round(g, balls, path, pos, &mut chunk).unwrap() {
            let d_xi_zi = prefix[next] - prefix[pos];
            if (d_xi_zi as u128) * (walk.b as u128) < d_uv as u128 {
                // Progress below the threshold s = d(u,v)/b: finish via a
                // hitting-set vertex of B(xi, q̃).
                let (tree_idx, w) = balls
                    .ball(path[pos])
                    .ids()
                    .iter()
                    .find_map(|m| hitting.binary_search(&m).ok().map(|i| (i, m)))
                    .expect("hitting set hits every vicinity");
                let tree = trees.tree((tree_idx + shift) % trees.len()).unwrap();
                let label = tree.label(v).expect("global tree spans every vertex");
                chunk.push(SeqEntry::ball(w));
                return StoredSeq { entries: chunk.pushed, final_tree_label: Some(label) };
            }
            push_hops(g, path, pos, next, &mut chunk).unwrap();
            pos = next;
        }
        StoredSeq { entries: chunk.pushed, final_tree_label: None }
    }

    /// With balls of three or four vertices on a path and a grid, Lemma 7
    /// sequences stop early at a hitting-set vertex. For every pair, the
    /// header `start` builds carries the sequence and the tree label the
    /// old build stored, and an off-by-one tree index is caught; every such
    /// pair still routes within `(1+ε)`.
    #[test]
    fn early_stops_carry_the_label_the_old_build_stored() {
        let epsilon = 0.5;
        let params = Params::with_epsilon(epsilon);
        let instances = [("path", generators::path(60), 3), ("grid", generators::grid(10, 10), 4)];
        for (name, g, ell) in instances {
            let set_of = partition_mod(g.n(), 3);
            let balls = BallTable::build(&g, ell);
            let router = Technique1Router::build(&g, &balls, set_mod(3), &params).unwrap();
            assert!(router.hitting.len() >= 2, "{name}: a second tree to shift to");
            let codec = SlotCodec::for_graph(&g);
            let walk =
                SeqBuilder { g: &g, balls: &balls, b: router.b, hitting: &router.hitting, codec };
            let mut scratch = SearchScratch::for_graph(&g);
            let (mut early, mut planted_caught) = (Vec::new(), 0);
            for u in g.vertices() {
                scratch.dijkstra_into(&g, u);
                let same_set = |&v: &VertexId| v != u && set_of[v.index()] == set_of[u.index()];
                for v in g.vertices().filter(same_set) {
                    let path = scratch.path_to(v).unwrap();
                    let prefix: Vec<Weight> =
                        path.iter().map(|&x| scratch.dist(x).unwrap()).collect();
                    let old = stored_sequence(&walk, &router.trees, &path, &prefix, 0);
                    let header = router.start(u, v).unwrap();
                    assert_eq!(router.seqs.decode_row(header.seq), old.entries, "{name}: ({u}, {v})");
                    let last = old.entries.last().map(|e| e.vertex);
                    // The header's view, read back through the tree it views.
                    let derived = header.final_tree.map(|(w, view)| {
                        assert_eq!(Some(w), last, "{name}: ({u}, {v})");
                        let tree = router.tree_of(w).unwrap();
                        assert_eq!(tree.label_view(v), Some(view), "{name}: ({u}, {v})");
                        tree.label(v).unwrap()
                    });
                    assert_eq!(derived, old.final_tree_label, "{name}: ({u}, {v})");
                    if derived.is_some() {
                        early.push((u, v));
                        let planted = stored_sequence(&walk, &router.trees, &path, &prefix, 1);
                        planted_caught += usize::from(planted.final_tree_label != derived);
                    }
                }
            }
            assert!(!early.is_empty(), "{name}: some Lemma 7 sequence stops early");
            assert!(planted_caught > 0, "{name}: an off-by-one tree index goes unnoticed");
            let exact = DistanceMatrix::new(&g);
            let balls = balls.into_ports();
            let scheme = Technique1Scheme { n: g.n(), epsilon, set_of, balls, router };
            for (u, v) in early {
                let out = simulate(&g, &scheme, u, v).unwrap();
                let d = exact.dist(u, v).unwrap();
                assert!(out.weight as f64 <= (1.0 + epsilon) * d as f64 + 1e-9, "{name}: {u}->{v}");
            }
        }
    }

    /// Only a hitting-set tree that some stored sequence stops early at
    /// keeps its members' labels. On a path and a grid with balls of three
    /// or four vertices, where sequences do stop early, the trees that
    /// report `keeps_labels()` are exactly those `start` hands a final tree
    /// label from; on the grid, split into ten sets, some tree is stopped
    /// at by no sequence and drops its labels. Every same-set pair routes
    /// within `(1+ε)`.
    #[test]
    fn only_the_trees_a_sequence_stops_at_keep_their_labels() {
        let epsilon = 0.5;
        let params = Params::with_epsilon(epsilon);
        let instances = [("path", generators::path(60), 3, 3), ("grid", generators::grid(10, 10), 4, 10)];
        let mut dropped = 0;
        for (name, g, ell, q) in instances {
            let set_of = partition_mod(g.n(), q);
            let balls = BallTable::build(&g, ell);
            let router = Technique1Router::build(&g, &balls, set_mod(q), &params).unwrap();
            let pairs: Vec<(VertexId, VertexId)> = g
                .vertices()
                .flat_map(|u| g.vertices().map(move |v| (u, v)))
                .filter(|&(u, v)| u != v && set_of[u.index()] == set_of[v.index()])
                .collect();
            let mut stopped_at = BTreeSet::new();
            for &(u, v) in &pairs {
                if let Some((w, _)) = router.start(u, v).unwrap().final_tree {
                    stopped_at.insert(w);
                }
            }
            assert!(!stopped_at.is_empty(), "{name}: some Lemma 7 sequence stops early");
            assert_eq!(router.trees.len(), router.hitting.len(), "{name}: a tree a hitting-set vertex");
            for (i, &w) in router.hitting.iter().enumerate() {
                let keeps = router.trees.tree(i).unwrap().keeps_labels();
                assert_eq!(keeps, stopped_at.contains(&w), "{name}: T({w})");
                dropped += usize::from(!keeps);
            }
            let exact = DistanceMatrix::new(&g);
            let balls = balls.into_ports();
            let scheme = Technique1Scheme { n: g.n(), epsilon, set_of, balls, router };
            for (u, v) in pairs {
                let out = simulate(&g, &scheme, u, v).unwrap();
                let d = exact.dist(u, v).unwrap();
                assert!(out.weight as f64 <= (1.0 + epsilon) * d as f64 + 1e-9, "{name}: {u}->{v}");
            }
        }
        assert!(dropped > 0, "every tree keeps its labels");
    }

    /// The builder returns an error, not a panic, on a path whose
    /// consecutive vertices are not adjacent and on a hitting set that
    /// misses the vicinity a sequence stops early in.
    #[test]
    fn sequence_builder_refuses_an_inconsistent_path() {
        let g = generators::path(10);
        let balls = BallTable::build(&g, 2);
        let hitting: Vec<VertexId> = g.vertices().collect();
        let codec = SlotCodec::for_graph(&g);
        let walk = SeqBuilder { g: &g, balls: &balls, b: 4, hitting: &hitting, codec };
        let mut chunk = SeqChunk::new(codec);
        let err = walk.sequence(&[VertexId(0), VertexId(5)], &[0, 1], &mut chunk).unwrap_err();
        assert!(matches!(err, BuildError::Inconsistent { .. }), "{err}");
        let path: Vec<VertexId> = g.vertices().collect();
        let ramp: Vec<Weight> = (0..10).collect();
        let walk = SeqBuilder { hitting: &[], ..walk };
        let err = walk.sequence(&path, &ramp, &mut chunk).unwrap_err();
        assert!(matches!(err, BuildError::Inconsistent { .. }), "{err}");
    }

    /// The sequence store holds 8 bytes a vertex, a key at the id width and
    /// a 4-byte end a pair, and an entry at the codec's width — 1-byte ids
    /// and ports on these graphs, so 5 bytes a pair and 2 an entry — plus
    /// the two closing pads, and no growth slack, on Erdős–Rényi, geometric
    /// and grid instances.
    #[test]
    fn seq_store_holds_eight_bytes_a_vertex_a_pair_and_an_entry() {
        let mut rng = StdRng::seed_from_u64(41);
        let weights = WeightModel::Uniform { lo: 1, hi: 9 };
        let graphs = [
            ("er", generators::erdos_renyi(150, 0.04, WeightModel::Unit, &mut rng)),
            ("geometric", generators::random_geometric(130, 0.18, weights, &mut rng)),
            ("grid", generators::grid(9, 11)),
        ];
        let params = Params::with_epsilon(0.5);
        for (name, g) in &graphs {
            let set_of = set_mod(10);
            let balls = BallTable::build(g, params.scaled(10, g.n()));
            let router = Technique1Router::build(g, &balls, set_of, &params).unwrap();
            let (pairs, entries) = router.seqs.tight_sizes();
            assert_eq!(router.sequence_counts(), (pairs, entries), "{name}");
            let set_sizes = g.vertices().map(set_of).fold([0usize; 10], |mut s, c| {
                s[c as usize] += 1;
                s
            });
            assert_eq!(pairs, set_sizes.iter().map(|s| s * (s - 1)).sum::<usize>(), "{name}");
            let seqs = &router.seqs;
            let stored =
                g.vertices().flat_map(|u| g.vertices().filter_map(move |v| seqs.cursor(u, v)));
            assert_eq!(entries, stored.map(SeqCursor::len).sum::<usize>(), "{name}");
            for u in g.vertices() {
                let at_u: Vec<SeqCursor> = g.vertices().filter_map(|v| seqs.cursor(u, v)).collect();
                let want = (at_u.len(), at_u.iter().map(|c| c.len()).sum());
                assert_eq!(router.sequence_counts_at(u), want, "{name}: counts at {u}");
            }
            assert_eq!(router.sequence_counts_at(VertexId(g.n() as u32)), (0, 0), "{name}");
            let (key, width) = (SlotCodec::for_ids(g.n()).width(), SlotCodec::for_graph(g).width());
            assert_eq!((key, width), (1, 2), "{name}: 1-byte ids, 1-byte ports");
            let bytes = 8 * g.n() + (key + 4) * pairs + width * entries + 2 * SLOT_PAD;
            assert_eq!(router.sequences_heap_bytes(), bytes, "{name}");
        }
    }

    /// At the width boundaries — a star's hub of degree 255 (1-byte ports,
    /// port 254 beside the ball-hop sentinel) and of degree 256 (2-byte
    /// ports), Erdős–Rényi at n = 255 and 256 (1- and 2-byte ids and keys) —
    /// every stored row decodes to the entries its walk pushed, unpacked,
    /// and every other pair stores nothing.
    #[test]
    fn stored_rows_decode_to_the_unpacked_entries_at_every_width() {
        let mut rng = StdRng::seed_from_u64(43);
        let graphs = [
            ("star 256", generators::star(256), 3),
            ("star 257", generators::star(257), 4),
            ("er 255", generators::erdos_renyi(255, 0.03, WeightModel::Unit, &mut rng), 2),
            ("er 256", generators::erdos_renyi(256, 0.03, WeightModel::Unit, &mut rng), 3),
        ];
        let params = Params::with_epsilon(0.5);
        for (name, g, width) in &graphs {
            let codec = SlotCodec::for_graph(g);
            assert_eq!(codec.width(), *width, "{name}");
            let set_of = set_mod(16);
            let balls = BallTable::build(g, params.scaled(16, g.n()));
            let router = Technique1Router::build(g, &balls, set_of, &params).unwrap();
            let (b, hitting) = (router.b, &router.hitting);
            let walk = SeqBuilder { g, balls: &balls, b, hitting, codec };
            let mut scratch = SearchScratch::for_graph(g);
            let (mut rows, mut port_254) = (0, false);
            for u in g.vertices() {
                scratch.dijkstra_into(g, u);
                for v in g.vertices() {
                    let stored = router.seqs.decoded(u, v);
                    if u == v || set_of(u) != set_of(v) {
                        assert_eq!(stored, None, "{name}: ({u}, {v})");
                        continue;
                    }
                    let path = scratch.path_to(v).unwrap();
                    let prefix: Vec<Weight> =
                        path.iter().map(|&x| scratch.dist(x).unwrap()).collect();
                    let want = stored_sequence(&walk, &router.trees, &path, &prefix, 0).entries;
                    port_254 |= want.iter().any(|e| e.hop == HopKind::Edge(Port(254)));
                    assert_eq!(stored, Some(want), "{name}: ({u}, {v})");
                    rows += 1;
                }
            }
            assert_eq!(router.sequence_counts().0, rows, "{name}");
            assert!(!name.starts_with("star") || port_254, "{name}: no hop over port 254");
        }
    }

    /// The greedy rule replayed naively, in pick order: the vertex in the
    /// most unhit sets, ties by smallest id, until every set is hit.
    fn greedy_picks(n: usize, sets: &[Vec<VertexId>]) -> Vec<VertexId> {
        let mut unhit: Vec<&[VertexId]> = sets.iter().map(Vec::as_slice).collect();
        let mut picks = Vec::new();
        while !unhit.is_empty() {
            let mut gain = vec![0usize; n];
            for v in unhit.iter().copied().flatten() {
                gain[v.index()] += 1;
            }
            let best = (0..n).max_by_key(|&v| (gain[v], Reverse(v))).map(|v| VertexId(v as u32));
            let best = best.expect("a vertex");
            picks.push(best);
            unhit.retain(|s| !s.contains(&best));
        }
        picks
    }

    /// Lemma 5 on what the router keeps, on every generator family, unit and
    /// tie-heavy, around the 64-wide batch boundary: the hitting set is
    /// id-sorted without duplicates, meets every vicinity `B(u, ℓ)` it was
    /// built from, and holds at most `⌈(n/ℓ)·ln n⌉ + 1` vertices. That is the
    /// greedy averaging bound: each pick is in at least `ℓ/n` of the unhit
    /// vicinities, so `n·(1 − ℓ/n)^t < 1` after `t = ⌈(n/ℓ)·ln n⌉` picks. The
    /// set is the naive greedy replay's, and dropping the replay's last pick,
    /// which hit a vicinity no earlier pick hit, must leave one unhit.
    #[test]
    fn lemma5_hitting_set_is_sorted_hits_every_vicinity_and_meets_the_greedy_bound() {
        let params = Params::with_epsilon(0.5);
        for family in generators::Family::ALL {
            for weights in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 3 }] {
                for n in [63usize, 64, 65, 130] {
                    let g = family.generate(n, weights, &mut StdRng::seed_from_u64(n as u64));
                    let n = g.n();
                    let q = (n as f64).sqrt().ceil() as usize;
                    for ell in [q, params.scaled(q, n)] {
                        let key = format!("{} {weights:?} n = {n} ℓ = {ell}", family.name());
                        let balls = BallTable::build(&g, ell);
                        let set_of = set_mod(q as u32);
                        let router = Technique1Router::build(&g, &balls, set_of, &params).unwrap();
                        let h = router.hitting_set();
                        let sets = balls.id_prefixes(balls.ell());
                        assert!(h.windows(2).all(|w| w[0] < w[1]), "{key}: sorted, no duplicates");
                        assert!(hits_all(h, &sets), "{key}: a vicinity is unhit");
                        let bound = (n as f64 / ell as f64 * (n as f64).ln()).ceil() as usize + 1;
                        assert!(h.len() <= bound, "{key}: |H| = {} > {bound}", h.len());

                        let copies: Vec<Vec<VertexId>> = sets.iter().map(|s| s.iter().collect()).collect();
                        let picks = greedy_picks(n, &copies);
                        let mut sorted = picks.clone();
                        sorted.sort_unstable();
                        assert_eq!(h, sorted, "{key}: not the greedy set cover");
                        let last = picks.last().copied();
                        let dropped: Vec<VertexId> =
                            h.iter().copied().filter(|&v| Some(v) != last).collect();
                        assert!(!hits_all(&dropped, &sets), "{key}: dropping {last:?} went unnoticed");
                    }
                }
            }
        }
    }

    #[test]
    fn header_and_table_sizes_are_reported() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::erdos_renyi(50, 0.1, WeightModel::Unit, &mut rng);
        let params = Params::with_epsilon(0.5);
        let scheme = Technique1Scheme::build(&g, partition_mod(50, 5), &params).unwrap();
        assert_eq!(RoutingScheme::n(&scheme), 50);
        assert!(scheme.name().contains("lemma7"));
        assert_eq!(scheme.router().b(), 4);
        for v in g.vertices() {
            assert!(scheme.table_words(v) > 0);
            assert_eq!(scheme.label_words(v), 2);
        }
        // Header length is bounded by the sequence budget plus the tree label.
        let out = simulate(&g, &scheme, VertexId(0), VertexId(45)).unwrap();
        assert!(out.max_header_words <= 2 * (2 * scheme.router().b() + 2) + 64);
        assert!(scheme.router().has_sequence(VertexId(0), VertexId(5)));
        assert!(!scheme.router().has_sequence(VertexId(0), VertexId(1)));
        assert_eq!(scheme.balls().len(), 50);
    }
}
