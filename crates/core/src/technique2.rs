//! The second routing technique (Lemma 8): `(1+ε)`-stretch routing from any
//! vertex of `U_i` to any vertex of `W_i`, for partitions `U = {U_1,...,U_q}`
//! of `V` and `W = {W_1,...,W_q}` of a destination set `W ⊆ V`, under the
//! assumption that every set of `U` intersects every vicinity `B(u, q̃)`.
//!
//! **Preprocessing.** Every vertex stores `B(u, q̃)` (shared ball table).
//! For every `j` and every pair `u ∈ U_j`, `w ∈ W_j`, `u` stores a sequence
//! along a shortest `u`–`w` path: the first two path vertices followed by
//! *subsequences* built with geometrically doubling thresholds
//! `s = 2/b, 4/b, 8/b, ...` (`b = ⌈2/ε⌉+1`). A subsequence stops when it
//! reaches `w`, or when the remaining step falls below the threshold — in
//! which case it ends at a vertex `z ∈ B(·, q̃) ∩ U_j`, whose **own** stored
//! sequence continues the journey (Claim 9 shows the distance to `w` shrinks
//! every time, so the recursion terminates and the total detour is `ε·d`).
//!
//! **Routing.** The current sequence travels in the header; hops between
//! temporary targets are ball hops (Lemma 2) or single-edge hops over stored
//! ports, exactly as in Lemma 7. When the message reaches the last vertex of
//! the sequence and it is not `w`, that vertex swaps in its own sequence for
//! `w` and forwarding continues. The header carries the sequence as a cursor
//! into the router's arena, so the swap re-points the cursor.

use routing_graph::codec::bytes_for;
use routing_graph::{Graph, PackedColumn, SearchScratch, SlotCodec, VertexId, Weight};
use routing_model::{Decision, HeaderSize, RouteError, RoutingScheme};
use routing_vicinity::{BallDists, BallPorts};

use crate::seq::{push_hops, walk_round, SeqChunk, SeqCursor, SeqEntry, SeqStore, SeqStoreBuilder};
use crate::stages::{self, Vicinities};
use crate::{BuildError, Params};

/// The header carried by a message routed with the second technique: the
/// current sequence as a cursor into the router's arena, charged the words
/// of the sequence it stands for.
#[derive(Debug, Clone, Copy)]
pub struct Technique2Header {
    seq: SeqCursor,
}

impl HeaderSize for Technique2Header {
    fn words(&self) -> usize {
        self.seq.words() + 1
    }
}

/// `dest_set_of` entry of a vertex outside the destination partition `W`.
const NO_SET: u32 = u32::MAX;

/// The Lemma 8 router, designed to be embedded in the full schemes. It is
/// built from the embedding scheme's retained vicinities — the
/// [`BallPorts`] it passes to [`Technique2Router::step`], the colouring that
/// is the source partition `U`, and the colour representatives — so no
/// ball's member ids need outlive the colouring. The colouring stays the
/// scheme's: the router keeps the destination partition and the sequences.
#[derive(Debug, Clone)]
pub struct Technique2Router {
    /// Per vertex: its index `j` in the destination partition `W`, or
    /// `NO_SET` (the sentinel) outside `W`, in the bytes the number of sets
    /// needs: one while there are at most 255.
    dest_set_of: PackedColumn<1>,
    /// At `u ∈ U_j`, per destination `w ∈ W_j`: the stored sequence.
    seqs: SeqStore,
    b: usize,
}

impl Technique2Router {
    /// Builds the router.
    ///
    /// * `vic.color(v)` is the index of the set of `U` containing `v`
    ///   (every vertex of `V` has one), and `vic.reps_at(x)` holds at `j`
    ///   the first vertex of `U_j` in `B(x, q̃)`, or `x` when there is none;
    /// * `dest_partition[j]` lists the vertices of `W_j` (the destination
    ///   sets); indices must align with the `U` indices.
    ///
    /// The Lemma 8 assumption — every `U_j` intersects every `B(u, q̃)` — is
    /// what the Lemma 6 coloring provides; if it fails for some vicinity the
    /// construction degrades gracefully (the affected sequence keeps walking
    /// the shortest path instead of stopping early, so routing stays correct
    /// but the sequence may be longer than `2b·log(nD)`).
    ///
    /// The store is filled a colour class at a time: class `j`'s sources,
    /// in id order, and one target-bounded search per destination of `W_j`
    /// fanned out over per-worker workspaces, each filling a chunk with the
    /// sequences of the class's sources ([`append_class`] then appends the
    /// class's rows, each source's key-sorted, and the chunks are dropped).
    /// A source's rows all come from its own class, so the build holds one
    /// class's chunks and source list beside the store, not every class's.
    ///
    /// The caller has run [`stages::check`] on `(g, params)`: every source
    /// must reach every destination.
    ///
    /// # Errors
    ///
    /// [`BuildError::Disconnected`] when a source does not reach its
    /// destination, and [`BuildError::Inconsistent`] when a search's path is
    /// not a path of `g` or a pair's sequence is missing.
    pub(crate) fn build(
        g: &Graph,
        vic: &Vicinities,
        dest_partition: &[Vec<VertexId>],
        params: &Params,
    ) -> Result<Self, BuildError> {
        let n = g.n();
        let b = params.b_lemma8();
        let _span = routing_obs::span("technique2");

        let sets = SlotCodec::new([bytes_for(dest_partition.len() as u64)]);
        let mut dest_set_of = PackedColumn::with_capacity(sets, n);
        (0..n).for_each(|_| dest_set_of.push([NO_SET]));
        for (j, set) in dest_partition.iter().enumerate() {
            for &w in set {
                dest_set_of.set(w.index(), [j as u32]);
            }
        }

        let codec = SlotCodec::for_graph(g);
        let mut seqs = SeqStoreBuilder::new(codec, n);
        let mut sources = Vec::new();
        for (j, dests) in dest_partition.iter().enumerate() {
            let j = j as u32;
            sources.clear();
            sources.extend(g.vertices().filter(|&v| vic.color(v) == j));
            if sources.is_empty() || dests.is_empty() {
                continue;
            }
            // One Dijkstra per destination `w`, then a sequence per source
            // but `w` — independent work items, fanned out in parallel, one
            // chunk each, its sequences in source order. They are appended
            // in a fixed order, so the router is identical for every thread
            // count.
            type Scratch = (SearchScratch, Vec<VertexId>);
            let chunks = routing_par::par_map_scratch(
                dests.len(),
                || (SearchScratch::for_graph(g), Vec::new()),
                |(scratch, path): &mut Scratch, i| -> Result<SeqChunk, BuildError> {
                    let w = dests[i];
                    // The sequence for source `u` only reads dist/parent on
                    // the shortest `u`-`w` path, and every path vertex is an
                    // SPT ancestor of the target `u` — settled before `u` —
                    // so the target-bounded search is sufficient as well as
                    // bit-identical.
                    let _frontier = routing_obs::span("settled-frontier");
                    scratch.dijkstra_targets_into(g, w, &sources);
                    routing_obs::counters::BUILD_EARLY_EXIT_SEARCHES.inc();
                    let mut chunk = SeqChunk::new(codec);
                    for &u in sources.iter().filter(|&&u| u != w) {
                        if !scratch.path_into(u, path) {
                            return Err(BuildError::Disconnected);
                        }
                        path.reverse(); // now u -> w
                        build_t2_sequence(g, vic, scratch, path, w, j, b, &mut chunk)?;
                        chunk.close()?;
                    }
                    routing_obs::counters::BUILD_SETTLED_VERTICES.add(scratch.order().len() as u64);
                    chunk.shrink_to_fit();
                    Ok(chunk)
                },
            );
            let chunks = chunks.into_iter().collect::<Result<Vec<_>, _>>()?;
            append_class(&mut seqs, &sources, dests, &chunks)?;
        }

        Ok(Technique2Router { dest_set_of, seqs: seqs.finish(), b })
    }

    /// Lemma 8's round budget `b = ⌈2/ε⌉ + 1`.
    pub fn b(&self) -> usize {
        self.b
    }

    /// The `W` set index of destination `w`, if `w ∈ W`.
    pub fn dest_set_of(&self, w: VertexId) -> Option<u32> {
        self.dest_set_of.get::<u32>(w.index()).map(|[j]| j).filter(|&j| j != NO_SET)
    }

    /// True if `u` stores a sequence for destination `w`.
    pub fn has_sequence(&self, u: VertexId, w: VertexId) -> bool {
        self.seqs.cursor(u, w).is_some()
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

    /// Builds the header for a message starting its Lemma 8 phase at `at`
    /// towards destination `dest ∈ W`.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::MissingInformation`] if `at` stores no sequence
    /// for `dest` (they are not matched by the partitions).
    pub fn start(&self, at: VertexId, dest: VertexId) -> Result<Technique2Header, RouteError> {
        if at == dest {
            return Ok(Technique2Header { seq: SeqCursor::default() });
        }
        let seq = self.seqs.cursor(at, dest).ok_or_else(|| RouteError::MissingInformation {
            at,
            what: format!("no Lemma 8 sequence for destination {dest} at this vertex"),
        })?;
        Ok(Technique2Header { seq })
    }

    /// One local routing decision of the Lemma 8 phase at vertex `at`.
    ///
    /// # Errors
    ///
    /// Returns an error when local information the construction promises is
    /// missing (a preprocessing bug).
    pub fn step(
        &self,
        at: VertexId,
        header: &mut Technique2Header,
        dest: VertexId,
        balls: &BallPorts,
    ) -> Result<Decision, RouteError> {
        if at == dest {
            return Ok(Decision::Deliver);
        }
        if header.seq.is_empty() {
            // The start vertex had no sequence of its own (at == dest case is
            // handled above) — reload from this vertex.
            *header = self.start(at, dest)?;
        }
        // Advance past targets we are standing on; when standing on the final
        // target (which is not `dest`), swap in this vertex's own sequence.
        let mut guard = 0usize;
        let mut target = self.seqs.entry(at, header.seq)?;
        while target.vertex == at {
            if header.seq.at_last() {
                header.seq = self.seqs.cursor(at, dest).ok_or_else(|| {
                    RouteError::MissingInformation {
                        at,
                        what: format!(
                            "sequence ended at {at} which stores no continuation for {dest}"
                        ),
                    }
                })?;
            } else {
                header.seq.idx += 1;
            }
            guard += 1;
            if guard > header.seq.len() + 2 {
                return Err(RouteError::MissingInformation {
                    at,
                    what: "lemma 8 sequence advance did not make progress".into(),
                });
            }
            target = self.seqs.entry(at, header.seq)?;
        }
        target.forward(at, balls)
    }

    /// The words Lemma 8 charges to `v`: one a stored sequence plus its
    /// entries, read from the store (the shared ball table is accounted by
    /// the embedding scheme); none for a `v` outside `0..n`.
    pub fn table_words(&self, v: VertexId) -> usize {
        let (pairs, entries) = self.seqs.counts_at(v);
        pairs + SeqEntry::words() * entries
    }
}

/// Appends one colour class's rows to `store`: `sources` are the class's
/// vertices in id order, and chunk `k` holds the sequences for `dests[k]`
/// of every source but `dests[k]` itself, in source order. Each source's
/// rows go in destination-id order, read in place from the chunks: the
/// destinations are sorted once, and a source's sequence sits at its rank
/// in the class, less one when the chunk's destination is a source ranked
/// before it.
///
/// # Errors
///
/// [`BuildError::Inconsistent`] when a chunk misses a pair's sequence, and
/// what [`SeqStoreBuilder::extend`] returns.
fn append_class(
    store: &mut SeqStoreBuilder,
    sources: &[VertexId],
    dests: &[VertexId],
    chunks: &[SeqChunk],
) -> Result<(), BuildError> {
    // Per destination, in id order: its chunk and its rank among the
    // sources (`usize::MAX` for none).
    let mut by_id: Vec<(VertexId, usize, usize)> = dests
        .iter()
        .enumerate()
        .map(|(k, &w)| (w, k, sources.binary_search(&w).unwrap_or(usize::MAX)))
        .collect();
    by_id.sort_unstable();
    let by_id = &by_id;
    let rows = sources.iter().enumerate().flat_map(|(place, &u)| {
        by_id.iter().filter(move |&&(w, ..)| w != u).map(move |&(w, k, rank)| {
            let at = place.checked_sub(usize::from(rank < place));
            (u, w, at.and_then(|at| chunks.get(k)?.sequence(at)))
        })
    });
    if let Some((u, w, _)) = rows.clone().find(|(.., entries)| entries.is_none()) {
        return Err(BuildError::Inconsistent {
            what: format!("no Lemma 8 sequence was built at {u} for {w}"),
        });
    }
    // Every row holds its sequence: the check above read them all.
    store.extend(rows.filter_map(|(u, w, entries)| Some((u, w, entries?))))
}

/// Appends the Lemma 8 sequence stored at `path[0]` for destination
/// `w = path[last]` to `chunk`.
///
/// `spt_w` is the shortest-path tree rooted at `w`, so `spt_w.dist(x)` is
/// `d(x, w)` for every path vertex `x`.
///
/// # Errors
///
/// [`BuildError::Inconsistent`] when the path is not a path of `g` from a
/// source other than `w` to `w`, or `spt_w` misses one of its vertices.
#[allow(clippy::too_many_arguments)]
fn build_t2_sequence(
    g: &Graph,
    vic: &Vicinities,
    spt_w: &SearchScratch,
    path: &[VertexId],
    w: VertexId,
    j: u32,
    b: usize,
    chunk: &mut SeqChunk,
) -> Result<(), BuildError> {
    let inconsistent = |what: String| BuildError::Inconsistent { what };
    let dist_to_w = |x: VertexId| -> Result<Weight, BuildError> {
        spt_w.dist(x).ok_or_else(|| inconsistent(format!("path vertex {x} does not reach {w}")))
    };
    let edge = |x: VertexId, y: VertexId| -> Result<SeqEntry, BuildError> {
        let port = g.port_to(x, y).ok_or_else(|| inconsistent(format!("{x}, {y} not adjacent")))?;
        Ok(SeqEntry::edge(y, port))
    };

    // First two path vertices are explicit edge hops.
    let (Some(&u0), Some(&u1)) = (path.first(), path.get(1)) else {
        return Err(inconsistent(format!("a Lemma 8 path to {w} of {} vertices", path.len())));
    };
    chunk.push(edge(u0, u1)?);
    if u1 == w {
        return Ok(());
    }
    let Some(&u2) = path.get(2) else {
        return Err(inconsistent(format!("the Lemma 8 path from {u0} ends at {u1}, not {w}")));
    };
    chunk.push(edge(u1, u2)?);
    if u2 == w {
        return Ok(());
    }

    // Subsequences with doubling thresholds s = thr_num / b.
    let mut pos = 2usize; // position of the current subsequence's last vertex (x_i)
    let mut thr_num: u128 = 2;
    loop {
        let mut count = 0usize;
        while count < b.saturating_mul(2) {
            let Some(next) = walk_round(g, &vic.balls, path, pos, chunk)? else {
                return Ok(());
            };
            let xi = path[pos];
            let d_xi_zi = dist_to_w(xi)? - dist_to_w(path[next])?;
            if (d_xi_zi as u128) * (b as u128) < thr_num {
                // Below the threshold: hand over to the first vertex of U_j
                // inside the vicinity (guaranteed by the Lemma 8
                // assumption), the representative of colour `j` at `xi`. A
                // vicinity without colour `j` stores `xi` itself there.
                let z = vic.reps_at(xi).get(j as usize).map(|[z]| VertexId(z));
                if let Some(z) = z.filter(|&z| vic.color(z) == j) {
                    chunk.push(SeqEntry::ball(z));
                    return Ok(());
                }
                // Assumption violated at this vicinity (possible at tiny
                // scales): keep walking the path instead; routing stays
                // correct, the sequence is just longer.
            }
            count += push_hops(g, path, pos, next, chunk)?;
            pos = next;
        }
        thr_num = thr_num.saturating_mul(2);
    }
}

/// The standalone Lemma 8 routing scheme: routes from any vertex to any
/// destination in `W` whose `W`-set index matches the source's `U`-set index
/// — or, when they differ, first walks (exactly, inside the source's
/// vicinity) to a `U`-set representative, which is how the full schemes use
/// the technique. Destinations outside `W` are rejected.
#[derive(Debug, Clone)]
pub struct Technique2Scheme {
    n: usize,
    epsilon: f64,
    /// The ports, the source partition `U` and its representatives.
    vic: Vicinities,
    router: Technique2Router,
}

impl Technique2Scheme {
    /// The stretch slack `ε` this scheme was built with.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Builds the standalone scheme. `color_of` assigns every vertex its `U`
    /// set; `dest_partition` lists the `W_j`. Balls use `q̃ = scaled(q)` where
    /// `q` is the number of sets, and the representatives of the colours
    /// `0..q` are picked from them as the full schemes pick theirs.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] from the underlying router.
    pub fn build(
        g: &Graph,
        color_of: Vec<u32>,
        dest_partition: Vec<Vec<VertexId>>,
        params: &Params,
    ) -> Result<Self, BuildError> {
        stages::check(g, params)?;
        let q = dest_partition.len();
        let ell = params.scaled(q.max(1), g.n());
        let vic = Vicinities::balls(g, ell, BallDists::Skip).coloured_by(color_of.into_iter(), q as u32);
        let vic = vic.retain();
        let router = Technique2Router::build(g, &vic, &dest_partition, params)?;
        Ok(Technique2Scheme { n: g.n(), epsilon: params.epsilon, vic, router })
    }

    /// The underlying router.
    pub fn router(&self) -> &Technique2Router {
        &self.router
    }

    /// The Lemma 2 ports of the vicinities.
    pub fn balls(&self) -> &BallPorts {
        &self.vic.balls
    }
}

/// Label for the standalone Lemma 8 scheme: the destination and its `W` set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Technique2Label {
    /// The destination vertex (must be in `W`).
    pub vertex: VertexId,
    /// Its set index in the `W` partition.
    pub set: u32,
}

impl RoutingScheme for Technique2Scheme {
    type Label = Technique2Label;
    type Header = Technique2Header;

    fn name(&self) -> &str {
        "lemma8"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn label_of(&self, v: VertexId) -> Technique2Label {
        Technique2Label { vertex: v, set: self.router.dest_set_of(v).unwrap_or(u32::MAX) }
    }

    fn init_header(
        &self,
        source: VertexId,
        dest: &Technique2Label,
    ) -> Result<Technique2Header, RouteError> {
        if source == dest.vertex {
            return Ok(Technique2Header { seq: SeqCursor::default() });
        }
        if dest.set == u32::MAX {
            return Err(RouteError::BadLabel {
                what: format!("{} is not a lemma 8 destination (not in W)", dest.vertex),
            });
        }
        let set = self.vic.color(source);
        if set != dest.set {
            return Err(RouteError::BadLabel {
                what: format!("source set {set} does not match destination set {}", dest.set),
            });
        }
        self.router.start(source, dest.vertex)
    }

    fn decide(
        &self,
        at: VertexId,
        header: &mut Technique2Header,
        dest: &Technique2Label,
    ) -> Result<Decision, RouteError> {
        self.router.step(at, header, dest.vertex, &self.vic.balls)
    }

    fn table_words(&self, v: VertexId) -> usize {
        self.vic.balls.words_at(v) + self.router.table_words(v)
    }

    fn label_words(&self, _v: VertexId) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_graph::apsp::DistanceMatrix;
    use routing_graph::generators::{self, WeightModel};
    use routing_graph::Port;
    use routing_model::simulate;
    use routing_graph::SLOT_PAD;
    use routing_vicinity::{BallTable, Coloring};
    use std::collections::HashMap;

    use crate::seq::{sequence_words, HopKind};

    /// Builds a Lemma-6-style coloring of the graph's vicinities so the
    /// Lemma 8 assumption holds, and an arbitrary partition of `dests`.
    fn setup(
        g: &Graph,
        q: u32,
        dests: Vec<VertexId>,
        params: &Params,
        seed: u64,
    ) -> (Vec<u32>, Vec<Vec<VertexId>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ell = params.scaled(q as usize, g.n());
        let balls = BallTable::build(g, ell);
        let sets = balls.id_prefixes(ell);
        let coloring = Coloring::build_for_sets(g.n(), q, &sets, 8, &mut rng).unwrap();
        let color_of: Vec<u32> = g.vertices().map(|v| coloring.color(v)).collect();
        let mut dest_partition = vec![Vec::new(); q as usize];
        for (i, w) in dests.into_iter().enumerate() {
            dest_partition[i % q as usize].push(w);
        }
        (color_of, dest_partition)
    }

    fn check_stretch(g: &Graph, q: u32, epsilon: f64, seed: u64) {
        let params = Params::with_epsilon(epsilon);
        let dests: Vec<VertexId> = g.vertices().filter(|v| v.0 % 3 == 0).collect();
        let (color_of, dest_partition) = setup(g, q, dests, &params, seed);
        let scheme =
            Technique2Scheme::build(g, color_of.clone(), dest_partition.clone(), &params).unwrap();
        let exact = DistanceMatrix::new(g);
        let mut checked = 0;
        for (j, dests) in dest_partition.iter().enumerate() {
            for &w in dests {
                for u in g.vertices() {
                    if u == w || color_of[u.index()] != j as u32 {
                        continue;
                    }
                    let out = simulate(g, &scheme, u, w).unwrap();
                    let d = exact.dist(u, w).unwrap();
                    let bound = (1.0 + epsilon) * d as f64 + 1e-9;
                    assert!(
                        (out.weight as f64) <= bound,
                        "lemma 8 stretch violated for {u}->{w}: {} vs (1+{epsilon})*{d}",
                        out.weight
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
    }

    /// The Lemma 8 sequence as the builder appended it before the colour
    /// representatives replaced its handover search, verbatim but for the
    /// chunk it returns and `fallbacks`, which counts the rounds that found
    /// no vertex of `U_j` in the vicinity and kept walking: the handover
    /// vertex is the first of colour `j` in `B(x_i, q̃)`'s settle order.
    #[allow(clippy::too_many_arguments)]
    fn reference_sequence(
        g: &Graph,
        balls: &BallTable,
        spt_w: &SearchScratch,
        path: &[VertexId],
        w: VertexId,
        j: u32,
        color_of: &[u32],
        b: usize,
        fallbacks: &mut usize,
    ) -> SeqChunk {
        let mut chunk = SeqChunk::new(SlotCodec::for_graph(g));
        let dist_to_w = |x: VertexId| spt_w.dist(x).unwrap();
        let edge = |x: VertexId, y: VertexId| SeqEntry::edge(y, g.port_to(x, y).unwrap());
        let (u0, u1) = (path[0], path[1]);
        chunk.push(edge(u0, u1));
        if u1 == w {
            return chunk;
        }
        chunk.push(edge(u1, path[2]));
        if path[2] == w {
            return chunk;
        }
        let mut pos = 2usize;
        let mut thr_num: u128 = 2;
        loop {
            let mut count = 0usize;
            while count < b.saturating_mul(2) {
                let Some(next) = walk_round(g, balls, path, pos, &mut chunk).unwrap() else {
                    return chunk;
                };
                let xi = path[pos];
                let d_xi_zi = dist_to_w(xi) - dist_to_w(path[next]);
                if (d_xi_zi as u128) * (b as u128) < thr_num {
                    let z = balls.ball(xi).ids().iter().find(|&m| color_of[m.index()] == j);
                    if let Some(z) = z {
                        chunk.push(SeqEntry::ball(z));
                        return chunk;
                    }
                    *fallbacks += 1;
                }
                count += push_hops(g, path, pos, next, &mut chunk).unwrap();
                pos = next;
            }
            thr_num = thr_num.saturating_mul(2);
        }
    }

    /// The router's sequence table as the `HashMap` build filled it before
    /// the keyed store replaced it, verbatim but for the return value and
    /// the sequences, from [`reference_sequence`], read back as the entries
    /// pushed into their chunks, unpacked; with the fallbacks they counted.
    fn reference_seqs(
        g: &Graph,
        balls: &BallTable,
        color_of: &[u32],
        dest_partition: &[Vec<VertexId>],
        b: usize,
    ) -> (HashMap<(VertexId, VertexId), Vec<SeqEntry>>, usize) {
        let mut classes: HashMap<u32, Vec<VertexId>> = HashMap::new();
        for v in g.vertices() {
            classes.entry(color_of[v.index()]).or_default().push(v);
        }
        let mut work: Vec<(u32, VertexId, &[VertexId])> = Vec::new();
        for (j, dests) in dest_partition.iter().enumerate() {
            let Some(sources) = classes.get(&(j as u32)) else { continue };
            for &w in dests {
                work.push((j as u32, w, sources.as_slice()));
            }
        }
        type PerDest = (Vec<(VertexId, Vec<SeqEntry>)>, usize);
        let per_dest: Vec<PerDest> = routing_par::par_map_scratch(
            work.len(),
            || SearchScratch::for_graph(g),
            |scratch, i| {
                let (j, w, sources) = work[i];
                scratch.dijkstra_targets_into(g, w, sources);
                let mut fallbacks = 0;
                let seqs = sources
                    .iter()
                    .filter(|&&u| u != w)
                    .map(|&u| {
                        let mut path = scratch.path_to(u).expect("graph is connected");
                        path.reverse(); // now u -> w
                        let out = reference_sequence(
                            g, balls, scratch, &path, w, j, color_of, b, &mut fallbacks,
                        );
                        (u, out.pushed)
                    })
                    .collect();
                (seqs, fallbacks)
            },
        );
        let mut seqs = HashMap::new();
        let mut fallbacks = 0;
        for (&(_, w, _), (entries_list, fell_back)) in work.iter().zip(per_dest) {
            fallbacks += fell_back;
            for (u, entries) in entries_list {
                seqs.insert((u, w), entries);
            }
        }
        (seqs, fallbacks)
    }

    /// The vicinities a Lemma 8 router is built from: the ports of the
    /// balls of `ell` members, `color_of`, and the representatives of the
    /// colours `0..q`.
    fn vicinities(g: &Graph, ell: usize, color_of: &[u32], q: u32) -> Vicinities {
        Vicinities::balls(g, ell, BallDists::Skip).coloured_by(color_of.iter().copied(), q).retain()
    }

    /// Builds the router at 1 and 4 threads and holds every stored row to
    /// the entries the `HashMap` build's walk pushed, unpacked, every
    /// vertex's words to the reference's, and the store to 8 bytes a
    /// vertex, a key at the id width and a 4-byte end a pair, an entry at
    /// the codec's width and the two closing pads, with no slack. Returns
    /// the reference's sequences and the rounds it found a vicinity without
    /// the colour in.
    fn assert_router_equals_reference(
        name: &str,
        g: &Graph,
        ell: usize,
        (color_of, dest_partition): (&[u32], &[Vec<VertexId>]),
        params: &Params,
    ) -> (HashMap<(VertexId, VertexId), Vec<SeqEntry>>, usize) {
        let balls = BallTable::build(g, ell);
        let vic = vicinities(g, ell, color_of, dest_partition.len() as u32);
        let (reference, fallbacks) =
            reference_seqs(g, &balls, color_of, dest_partition, params.b_lemma8());
        assert!(!reference.is_empty(), "{name}");
        for threads in [1, 4] {
            routing_par::set_threads(threads);
            let router = Technique2Router::build(g, &vic, dest_partition, params).unwrap();
            for u in g.vertices() {
                let mut words = 0;
                for w in g.vertices() {
                    let stored = reference.get(&(u, w));
                    let decoded = router.seqs.decoded(u, w);
                    assert_eq!(decoded.as_ref(), stored, "{name} x{threads}: ({u}, {w})");
                    words += stored.map_or(0, |s| 1 + sequence_words(s));
                }
                assert_eq!(router.table_words(u), words, "{name} x{threads}: words at {u}");
            }
            let (pairs, entries) = router.seqs.tight_sizes();
            assert_eq!(pairs, reference.len(), "{name}");
            assert_eq!(entries, reference.values().map(Vec::len).sum::<usize>(), "{name}");
            let (key, width) = (SlotCodec::for_ids(g.n()).width(), SlotCodec::for_graph(g).width());
            let bytes = 8 * g.n() + (key + 4) * pairs + width * entries + 2 * SLOT_PAD;
            assert_eq!(router.seqs.heap_bytes(), bytes, "{name}");
        }
        routing_par::set_threads(routing_par::available_threads());
        (reference, fallbacks)
    }

    /// On the equivalence graphs, and at the width boundaries — a star's hub
    /// of degree 255 (1-byte ports, port 254 beside the ball-hop sentinel)
    /// and of degree 256 (2-byte ports), Erdős–Rényi at n = 255 and 256 (1-
    /// and 2-byte ids and keys) — the router, which hands a sequence over to
    /// the colour's representative and appends the chunks a colour class
    /// at a time, stores what the `HashMap` build's id scan stored (see
    /// [`assert_router_equals_reference`]).
    #[test]
    fn keyed_store_equals_the_hashmap_build_it_replaced() {
        let params = Params::with_epsilon(0.5);
        let mut rng = StdRng::seed_from_u64(62);
        let boundaries = [
            ("star 256", generators::star(256)),
            ("star 257", generators::star(257)),
            ("er 255", generators::erdos_renyi(255, 0.03, WeightModel::Unit, &mut rng)),
            ("er 256", generators::erdos_renyi(256, 0.03, WeightModel::Unit, &mut rng)),
        ];
        for (name, g) in crate::test_support::equivalence_graphs().into_iter().chain(boundaries) {
            let dests: Vec<VertexId> = g.vertices().filter(|v| v.0 % 3 == 0).collect();
            let (color_of, dest_partition) = setup(&g, 4, dests, &params, 9);
            let ell = params.scaled(4, g.n());
            let (reference, _) =
                assert_router_equals_reference(name, &g, ell, (&color_of, &dest_partition), &params);
            let hub_port = reference.values().flatten().any(|e| e.hop == HopKind::Edge(Port(254)));
            assert!(!name.starts_with("star") || hub_port, "{name}: no hop over port 254");
            let want = match name {
                "star 256" | "er 256" => (2, 3),
                "star 257" => (2, 4),
                _ => (1, 2),
            };
            let widths = (SlotCodec::for_ids(g.n()).width(), SlotCodec::for_graph(&g).width());
            assert_eq!(widths, want, "{name}: key and entry bytes");
        }
    }

    /// Where a vicinity holds no vertex of the source's colour, its
    /// representative is its centre, of another colour: the sequence does
    /// not stop there but keeps walking, as the id scan's did. On a
    /// 120-vertex path coloured in blocks of 30, with two-member balls and
    /// each class's destination two blocks away, rounds that drop below the
    /// threshold outside the source's block reach such vicinities, and the
    /// router still stores exactly the reference's sequences; sequences
    /// that stop early inside it show the handover runs too.
    #[test]
    fn a_vicinity_without_the_colour_keeps_the_walk_going() {
        let g = generators::path(120);
        let params = Params { ball_scale: 0.1, ..Params::with_epsilon(2.0) };
        let ell = params.scaled(4, g.n());
        assert_eq!(ell, 2);
        let color_of: Vec<u32> = g.vertices().map(|v| v.0 / 30).collect();
        // Each class's destination lies two blocks away.
        let dest_partition: Vec<Vec<VertexId>> =
            (0..4).map(|j| vec![VertexId(30 * ((j + 2) % 4) + 15)]).collect();
        let (reference, fallbacks) =
            assert_router_equals_reference("path", &g, ell, (&color_of, &dest_partition), &params);
        assert!(fallbacks > 0, "no round found a vicinity without its colour");
        let early = reference.iter().any(|(&(_, w), s)| s.last().map(|e| e.vertex) != Some(w));
        assert!(early, "no sequence stopped early");
    }

    /// The builder returns an error, not a panic, on a path with a
    /// non-edge, on one too short to reach `w`, and on a vertex the search
    /// from `w` never reached.
    #[test]
    fn lemma8_builder_refuses_an_inconsistent_path() {
        let g = generators::path(10);
        let mut spt = SearchScratch::for_graph(&g);
        let w = VertexId(9);
        spt.dijkstra_targets_into(&g, w, &[VertexId(0)]);
        let v = VertexId;
        let vic = vicinities(&g, 2, &[0; 10], 1);
        let build = |spt: &SearchScratch, path: &[VertexId]| {
            let mut chunk = SeqChunk::new(SlotCodec::for_graph(&g));
            build_t2_sequence(&g, &vic, spt, path, w, 0, 3, &mut chunk)
        };
        for path in [vec![v(0), v(5), w], vec![v(0), v(1)], vec![v(0)]] {
            let err = build(&spt, &path).unwrap_err();
            assert!(matches!(err, BuildError::Inconsistent { .. }), "{path:?}: {err}");
        }
        // The search from `w` stops at 8, so it never reached 2.
        spt.dijkstra_targets_into(&g, w, &[v(8)]);
        let path: Vec<VertexId> = g.vertices().collect();
        let err = build(&spt, &path).unwrap_err();
        assert!(matches!(err, BuildError::Inconsistent { .. }), "{err}");
    }

    /// The store as the build filled it before it went a class at a time:
    /// every pair's sequence built first, then the rows merged in `(u, w)`
    /// order into one store, and the words they charge.
    fn u_major_store(
        g: &Graph,
        vic: &Vicinities,
        dest_partition: &[Vec<VertexId>],
        b: usize,
    ) -> (SeqStore, Vec<usize>) {
        let codec = SlotCodec::for_graph(g);
        let (mut scratch, mut path) = (SearchScratch::for_graph(g), Vec::new());
        let mut rows: Vec<(VertexId, VertexId, SeqChunk)> = Vec::new();
        for (j, dests) in dest_partition.iter().enumerate() {
            let sources: Vec<VertexId> = g.vertices().filter(|&v| vic.color(v) == j as u32).collect();
            for &w in dests {
                scratch.dijkstra_targets_into(g, w, &sources);
                for &u in sources.iter().filter(|&&u| u != w) {
                    assert!(scratch.path_into(u, &mut path));
                    path.reverse();
                    let mut chunk = SeqChunk::new(codec);
                    build_t2_sequence(g, vic, &scratch, &path, w, j as u32, b, &mut chunk).unwrap();
                    chunk.close().unwrap();
                    rows.push((u, w, chunk));
                }
            }
        }
        rows.sort_by_key(|&(u, w, _)| (u, w));
        let mut words = vec![0; g.n()];
        for (u, _, chunk) in &rows {
            words[u.index()] += 1 + SeqEntry::words() * chunk.sequence(0).unwrap().len();
        }
        let rows = rows.iter().map(|(u, w, chunk)| (*u, *w, chunk.sequence(0).unwrap()));
        (SeqStore::from_sorted(codec, g.n(), rows).unwrap(), words)
    }

    /// The store filled a colour class at a time equals the `(u, w)`-order
    /// merge of every pair's sequence ([`u_major_store`]): every decoded
    /// row, the words (none at `n`), `(pairs, entries)` per vertex, the
    /// tight sizes and the bytes — on every family, unit and weighted, at
    /// ε = 0.1 and 1, threads 1 / 2 / 4, with the last colour given no
    /// destination.
    #[test]
    fn a_store_filled_by_classes_equals_the_store_merged_by_source() {
        for family in generators::Family::ALL {
            for weights in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 9 }] {
                let g = family.generate(130, weights, &mut StdRng::seed_from_u64(41));
                for epsilon in [0.1, 1.0] {
                    let params = Params::with_epsilon(epsilon);
                    let key = format!("{} {weights:?} ε = {epsilon}", family.name());
                    let q = 5;
                    let (color_of, _) = setup(&g, q, Vec::new(), &params, 3);
                    let mut dest_partition = vec![Vec::new(); q as usize];
                    for w in g.vertices().filter(|v| v.0 % 4 == 1) {
                        dest_partition[w.index() % (q as usize - 1)].push(w);
                    }
                    let ell = params.scaled(q as usize, g.n());
                    let vic = vicinities(&g, ell, &color_of, q);
                    assert!((0..q).all(|j| g.vertices().any(|v| vic.color(v) == j)), "{key}: a colour unused");
                    let (reference, words) = u_major_store(&g, &vic, &dest_partition, params.b_lemma8());
                    for threads in [1, 2, 4] {
                        routing_par::set_threads(threads);
                        let router = Technique2Router::build(&g, &vic, &dest_partition, &params).unwrap();
                        let key = format!("{key} x{threads}");
                        for u in g.vertices() {
                            for w in g.vertices() {
                                let got = router.seqs.decoded(u, w);
                                assert_eq!(got, reference.decoded(u, w), "{key}: ({u}, {w})");
                            }
                            assert_eq!(router.table_words(u), words[u.index()], "{key}: words at {u}");
                            assert_eq!(router.seqs.counts_at(u), reference.counts_at(u), "{key}: {u}");
                        }
                        assert_eq!(router.table_words(VertexId(g.n() as u32)), 0, "{key}: words at n");
                        assert_eq!(router.seqs.tight_sizes(), reference.tight_sizes(), "{key}");
                        assert_eq!(router.sequences_heap_bytes(), reference.heap_bytes(), "{key}");
                    }
                }
            }
        }
        routing_par::set_threads(routing_par::available_threads());
    }

    /// Appending a class returns an error, not a panic, when a chunk holds
    /// fewer sequences than its class has sources, and reads every pair of
    /// complete chunks in destination-id order a source. A second class
    /// whose sources interleave the first's by id is appended after it.
    #[test]
    fn lemma8_merge_refuses_a_missing_sequence() {
        let v = VertexId;
        let g = generators::path(6);
        let codec = SlotCodec::for_graph(&g);
        let chunk = |us: &[u32], w: u32| {
            let mut chunk = SeqChunk::new(codec);
            for &u in us {
                chunk.push(SeqEntry::ball(v(10 * u + w)));
                chunk.close().unwrap();
            }
            chunk
        };
        // Class 0 is {0, 2, 3, 5}, its destinations 5 and 2, each chunk
        // skipping its own destination; class 1 is {1, 4}, destination 0.
        let (sources, dests) = ([v(0), v(2), v(3), v(5)], [v(5), v(2)]);
        let chunks = [chunk(&[0, 2, 3], 5), chunk(&[0, 3, 5], 2)];
        let mut store = SeqStoreBuilder::new(codec, g.n());
        append_class(&mut store, &sources, &dests, &chunks).unwrap();
        append_class(&mut store, &[v(1), v(4)], &[v(0)], &[chunk(&[1, 4], 0)]).unwrap();
        let store = store.finish();
        for (u, w) in [(0, 2), (0, 5), (2, 5), (3, 2), (3, 5), (5, 2), (1, 0), (4, 0)] {
            assert_eq!(store.decoded(v(u), v(w)), Some(vec![SeqEntry::ball(v(10 * u + w))]));
        }
        assert_eq!(store.tight_sizes(), (8, 8));
        let counts: Vec<(usize, usize)> = g.vertices().map(|u| store.counts_at(u)).collect();
        assert_eq!(counts, [(2, 2), (1, 1), (1, 1), (2, 2), (1, 1), (1, 1)]);
        let short = [chunk(&[0, 2, 3], 5), chunk(&[0, 3], 2)];
        let mut store = SeqStoreBuilder::new(codec, g.n());
        let err = append_class(&mut store, &sources, &dests, &short).unwrap_err();
        assert!(matches!(err, BuildError::Inconsistent { .. }), "{err}");
    }

    #[test]
    fn lemma8_stretch_on_unweighted_random_graph() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = generators::erdos_renyi(80, 0.07, WeightModel::Unit, &mut rng);
        check_stretch(&g, 4, 0.5, 1);
    }

    #[test]
    fn lemma8_stretch_on_weighted_random_graph() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = generators::erdos_renyi(70, 0.08, WeightModel::Uniform { lo: 1, hi: 12 }, &mut rng);
        check_stretch(&g, 4, 0.25, 2);
    }

    #[test]
    fn lemma8_stretch_on_grid() {
        let g = generators::grid(9, 9);
        check_stretch(&g, 3, 1.0, 3);
    }

    /// At ε = 1e-20, `⌈2/ε⌉ + 1` overflows `usize`: the round budget
    /// saturates instead of wrapping to 0, so Lemma 8 and Theorem 11 build
    /// and route (exactly: the budget is never spent).
    #[test]
    fn lemma8_and_thm11_build_and_route_at_a_tiny_epsilon() {
        let mut rng = StdRng::seed_from_u64(60);
        let g = generators::erdos_renyi(60, 0.1, WeightModel::Unit, &mut rng);
        check_stretch(&g, 3, 1e-20, 4);
        let scheme =
            crate::SchemeFivePlusEps::build(&g, &Params::with_epsilon(1e-20), &mut rng).unwrap();
        crate::test_support::check_all_pairs(&g, &scheme, |d| 5.0 * d);
    }

    #[test]
    fn lemma8_rejects_non_destinations_and_mismatched_sets() {
        let g = generators::cycle(24);
        let params = Params::default();
        let dests = vec![VertexId(0), VertexId(6), VertexId(12), VertexId(18)];
        let (color_of, dest_partition) = setup(&g, 2, dests.clone(), &params, 5);
        let scheme = Technique2Scheme::build(&g, color_of.clone(), dest_partition, &params).unwrap();
        // A vertex that is not in W at all.
        let err = simulate(&g, &scheme, VertexId(1), VertexId(3)).unwrap_err();
        assert!(matches!(err, RouteError::BadLabel { .. }));
        // A W destination whose set does not match the source's color.
        let w = dests
            .iter()
            .copied()
            .find(|&w| scheme.router().dest_set_of(w) != Some(color_of[VertexId(1).index()]))
            .unwrap();
        let err = simulate(&g, &scheme, VertexId(1), w).unwrap_err();
        assert!(matches!(err, RouteError::BadLabel { .. }));
    }

    #[test]
    fn lemma8_self_route_and_sizes() {
        let mut rng = StdRng::seed_from_u64(30);
        let g = generators::erdos_renyi(50, 0.1, WeightModel::Unit, &mut rng);
        let params = Params::with_epsilon(0.5);
        let dests: Vec<VertexId> = (0..10).map(VertexId).collect();
        let (color_of, dest_partition) = setup(&g, 3, dests, &params, 6);
        let scheme = Technique2Scheme::build(&g, color_of, dest_partition, &params).unwrap();
        let out = simulate(&g, &scheme, VertexId(5), VertexId(5)).unwrap();
        assert_eq!(out.hops, 0);
        assert!(scheme.name().contains("lemma8"));
        assert_eq!(RoutingScheme::n(&scheme), 50);
        assert_eq!(scheme.router().b(), 5);
        assert_eq!(scheme.balls().len(), 50);
        for v in g.vertices() {
            assert!(scheme.table_words(v) > 0);
            assert_eq!(scheme.label_words(v), 2);
        }
    }

    #[test]
    fn lemma8_disconnected_is_rejected() {
        let mut b = routing_graph::GraphBuilder::new(4);
        b.add_unit_edge(0, 1).unwrap();
        b.add_unit_edge(2, 3).unwrap();
        let g = b.build();
        let err = Technique2Scheme::build(
            &g,
            vec![0, 0, 0, 0],
            vec![vec![VertexId(0)]],
            &Params::default(),
        )
        .unwrap_err();
        assert_eq!(err, BuildError::Disconnected);
    }
}
