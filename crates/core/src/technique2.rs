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

use routing_graph::{Graph, PackedView, SearchScratch, SlotCodec, VertexId, Weight};
use routing_model::{Decision, HeaderSize, RouteError, RoutingScheme};
use routing_vicinity::{BallPorts, BallTable};

use crate::seq::{push_hops, walk_round, SeqChunk, SeqCursor, SeqEntry, SeqStore};
use crate::stages;
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

/// The Lemma 8 router, designed to be embedded in the full schemes. The
/// embedding scheme owns the shared ball table: the full [`BallTable`] for
/// `Technique2Router::build`, of which it keeps the [`BallPorts`] to pass
/// to [`Technique2Router::step`].
#[derive(Debug, Clone)]
pub struct Technique2Router {
    color_of: Vec<u32>,
    /// Per vertex: its index `j` in the destination partition `W`, or
    /// `NO_SET` outside `W`.
    dest_set_of: Vec<u32>,
    /// At `u ∈ U_j`, per destination `w ∈ W_j`: the stored sequence.
    seqs: SeqStore,
    seq_words: Vec<usize>,
    b: usize,
}

impl Technique2Router {
    /// Builds the router.
    ///
    /// * `color_of[v]` is the index of the set of `U` containing `v` (every
    ///   vertex of `V` has one);
    /// * `dest_partition[j]` lists the vertices of `W_j` (the destination
    ///   sets); indices must align with the `U` indices.
    ///
    /// The Lemma 8 assumption — every `U_j` intersects every `B(u, q̃)` — is
    /// what the Lemma 6 coloring provides; if it fails for some vicinity the
    /// construction degrades gracefully (the affected sequence keeps walking
    /// the shortest path instead of stopping early, so routing stays correct
    /// but the sequence may be longer than `2b·log(nD)`).
    ///
    /// The caller has run [`stages::check`] on `(g, params)`: every source
    /// must reach every destination.
    ///
    /// # Errors
    ///
    /// [`BuildError::Disconnected`] when a source does not reach its
    /// destination, and [`BuildError::Inconsistent`] when a search's path is
    /// not a path of `g`.
    pub(crate) fn build(
        g: &Graph,
        balls: &BallTable,
        color_of: Vec<u32>,
        dest_partition: &[Vec<VertexId>],
        params: &Params,
    ) -> Result<Self, BuildError> {
        assert_eq!(color_of.len(), g.n(), "color_of must cover every vertex");
        let b = params.b_lemma8();
        let _span = routing_obs::span("technique2");

        let mut dest_set_of = vec![NO_SET; g.n()];
        for (j, set) in dest_partition.iter().enumerate() {
            for &w in set {
                dest_set_of[w.index()] = j as u32;
            }
        }

        // Group the sources by color; a color no destination set is
        // indexed by has no sequences to store.
        let mut classes: Vec<Vec<VertexId>> = vec![Vec::new(); dest_partition.len()];
        for v in g.vertices() {
            if let Some(class) = classes.get_mut(color_of[v.index()] as usize) {
                class.push(v);
            }
        }

        // One Dijkstra per destination `w`, then a sequence per matched
        // source — independent work items, fanned out in parallel. The merge
        // below runs in a fixed (j, w) order so the router is identical for
        // every thread count.
        let mut work: Vec<(u32, VertexId, &[VertexId])> = Vec::new();
        for (j, (dests, sources)) in dest_partition.iter().zip(&classes).enumerate() {
            if sources.is_empty() {
                continue;
            }
            for &w in dests {
                work.push((j as u32, w, sources.as_slice()));
            }
        }
        // One chunk per destination, its sources' sequences in source order.
        let codec = SlotCodec::for_graph(g);
        type Scratch = (SearchScratch, Vec<VertexId>);
        let per_dest = routing_par::par_map_scratch(
            work.len(),
            || (SearchScratch::for_graph(g), Vec::new()),
            |(scratch, path): &mut Scratch, i| -> Result<SeqChunk, BuildError> {
                let (j, w, sources) = work[i];
                // The sequence for source `u` only reads dist/parent on the
                // shortest `u`-`w` path, and every path vertex is an SPT
                // ancestor of the target `u` — settled before `u` — so the
                // target-bounded search is sufficient as well as bit-identical.
                let _frontier = routing_obs::span("settled-frontier");
                scratch.dijkstra_targets_into(g, w, sources);
                routing_obs::counters::BUILD_EARLY_EXIT_SEARCHES.inc();
                let mut chunk = SeqChunk::new(codec);
                for &u in sources.iter().filter(|&&u| u != w) {
                    if !scratch.path_into(u, path) {
                        return Err(BuildError::Disconnected);
                    }
                    path.reverse(); // now u -> w
                    build_t2_sequence(g, balls, scratch, path, w, j, &color_of, b, &mut chunk)?;
                    chunk.close();
                }
                routing_obs::counters::BUILD_SETTLED_VERTICES.add(scratch.order().len() as u64);
                Ok(chunk)
            },
        );
        let chunks = per_dest.into_iter().collect::<Result<Vec<_>, _>>()?;
        // The work ran destination-major; the store wants `(u, w)` order.
        let mut rows: Vec<(VertexId, VertexId, PackedView<'_, 2>)> =
            Vec::with_capacity(chunks.iter().map(SeqChunk::len).sum());
        for (&(_, w, sources), chunk) in work.iter().zip(&chunks) {
            let sources = sources.iter().filter(|&&u| u != w);
            rows.extend(sources.zip(chunk.sequences()).map(|(&u, s)| (u, w, s)));
        }
        rows.sort_unstable_by_key(|&(u, w, _)| (u, w));
        let mut seq_words = vec![0usize; g.n()];
        for (u, _, entries) in &rows {
            seq_words[u.index()] += 1 + SeqEntry::words() * entries.len();
        }
        let seqs = SeqStore::from_sorted(codec, g.n(), rows.iter().copied())?;

        Ok(Technique2Router { color_of, dest_set_of, seqs, seq_words, b })
    }

    /// Lemma 8's round budget `b = ⌈2/ε⌉ + 1`.
    pub fn b(&self) -> usize {
        self.b
    }

    /// The `U` set index of vertex `v`.
    pub fn color_of(&self, v: VertexId) -> u32 {
        self.color_of[v.index()]
    }

    /// The `W` set index of destination `w`, if `w ∈ W`.
    pub fn dest_set_of(&self, w: VertexId) -> Option<u32> {
        self.dest_set_of.get(w.index()).copied().filter(|&j| j != NO_SET)
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

    /// The words Lemma 8 charges to `v`: the stored sequences (the shared
    /// ball table is accounted by the embedding scheme).
    pub fn table_words(&self, v: VertexId) -> usize {
        self.seq_words.get(v.index()).map_or(0, |&w| w)
    }
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
    balls: &BallTable,
    spt_w: &SearchScratch,
    path: &[VertexId],
    w: VertexId,
    j: u32,
    color_of: &[u32],
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
            let Some(next) = walk_round(g, balls, path, pos, chunk)? else {
                return Ok(());
            };
            let xi = path[pos];
            let d_xi_zi = dist_to_w(xi)? - dist_to_w(path[next])?;
            if (d_xi_zi as u128) * (b as u128) < thr_num {
                // Below the threshold: hand over to a vertex of U_j inside
                // the vicinity (guaranteed by the Lemma 8 assumption).
                let z = balls.ball(xi).ids().iter().copied().find(|&m| color_of[m.index()] == j);
                if let Some(z) = z {
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
    balls: BallTable,
    router: Technique2Router,
}

impl Technique2Scheme {
    /// The stretch slack `ε` this scheme was built with.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Builds the standalone scheme. `color_of` assigns every vertex its `U`
    /// set; `dest_partition` lists the `W_j`. Balls use `q̃ = scaled(q)` where
    /// `q` is the number of sets.
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
        let q = dest_partition.len().max(1);
        let ell = params.scaled(q, g.n());
        let balls = BallTable::build(g, ell);
        let router = Technique2Router::build(g, &balls, color_of, &dest_partition, params)?;
        Ok(Technique2Scheme { n: g.n(), epsilon: params.epsilon, balls, router })
    }

    /// The underlying router.
    pub fn router(&self) -> &Technique2Router {
        &self.router
    }

    /// The shared ball table.
    pub fn balls(&self) -> &BallTable {
        &self.balls
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
        if self.router.color_of(source) != dest.set {
            return Err(RouteError::BadLabel {
                what: format!(
                    "source set {} does not match destination set {}",
                    self.router.color_of(source),
                    dest.set
                ),
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_graph::apsp::DistanceMatrix;
    use routing_graph::generators::{self, WeightModel};
    use routing_graph::Port;
    use routing_model::simulate;
    use routing_graph::SLOT_PAD;
    use routing_vicinity::Coloring;
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

    /// The router's sequence table as the `HashMap` build filled it before
    /// the keyed store replaced it, verbatim but for the return value and
    /// the builder's chunk, read back as the entries pushed into it,
    /// unpacked.
    fn reference_seqs(
        g: &Graph,
        balls: &BallTable,
        color_of: &[u32],
        dest_partition: &[Vec<VertexId>],
        b: usize,
    ) -> HashMap<(VertexId, VertexId), Vec<SeqEntry>> {
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
        let per_dest: Vec<Vec<(VertexId, Vec<SeqEntry>)>> = routing_par::par_map_scratch(
            work.len(),
            || SearchScratch::for_graph(g),
            |scratch, i| {
                let (j, w, sources) = work[i];
                scratch.dijkstra_targets_into(g, w, sources);
                sources
                    .iter()
                    .filter(|&&u| u != w)
                    .map(|&u| {
                        let mut path = scratch.path_to(u).expect("graph is connected");
                        path.reverse(); // now u -> w
                        let mut out = SeqChunk::new(SlotCodec::for_graph(g));
                        build_t2_sequence(g, balls, scratch, &path, w, j, color_of, b, &mut out)
                            .unwrap();
                        (u, out.pushed)
                    })
                    .collect()
            },
        );
        let mut seqs = HashMap::new();
        for (&(_, w, _), entries_list) in work.iter().zip(per_dest) {
            for (u, entries) in entries_list {
                seqs.insert((u, w), entries);
            }
        }
        seqs
    }

    /// On the equivalence graphs, and at the width boundaries — a star's hub
    /// of degree 255 (1-byte ports, port 254 beside the ball-hop sentinel)
    /// and of degree 256 (2-byte ports), Erdős–Rényi at n = 255 and 256 (1-
    /// and 2-byte ids and keys) — every stored row decodes to the entries
    /// the `HashMap` build's walk pushed, unpacked, every vertex is charged
    /// the same words, and the store holds 8 bytes a vertex, a key at the
    /// id width and a 4-byte end a pair, an entry at the codec's width and
    /// the two closing pads, with no slack.
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
            let balls = BallTable::build(&g, params.scaled(4, g.n()));
            for threads in [1, 4] {
                routing_par::set_threads(threads);
                let router =
                    Technique2Router::build(&g, &balls, color_of.clone(), &dest_partition, &params)
                        .unwrap();
                let reference =
                    reference_seqs(&g, &balls, &color_of, &dest_partition, params.b_lemma8());
                assert!(!reference.is_empty());
                let hub_port =
                    reference.values().flatten().any(|e| e.hop == HopKind::Edge(Port(254)));
                assert!(!name.starts_with("star") || hub_port, "{name}: no hop over port 254");
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
                let (key, width) =
                    (SlotCodec::for_ids(g.n()).width(), SlotCodec::for_graph(&g).width());
                let want = match name {
                    "star 256" | "er 256" => (2, 3),
                    "star 257" => (2, 4),
                    _ => (1, 2),
                };
                assert_eq!((key, width), want, "{name}: key and entry bytes");
                let bytes = 8 * (g.n() + 1) + (key + 4) * pairs + width * entries + 2 * SLOT_PAD;
                assert_eq!(router.seqs.heap_bytes(), bytes, "{name}");
            }
            routing_par::set_threads(routing_par::available_threads());
        }
    }

    /// The builder returns an error, not a panic, on a path with a
    /// non-edge, on one too short to reach `w`, and on a vertex the search
    /// from `w` never reached.
    #[test]
    fn lemma8_builder_refuses_an_inconsistent_path() {
        let g = generators::path(10);
        let balls = BallTable::build(&g, 2);
        let mut spt = SearchScratch::for_graph(&g);
        let w = VertexId(9);
        spt.dijkstra_targets_into(&g, w, &[VertexId(0)]);
        let v = VertexId;
        let color_of = vec![0; 10];
        let build = |spt: &SearchScratch, path: &[VertexId]| {
            let mut chunk = SeqChunk::new(SlotCodec::for_graph(&g));
            build_t2_sequence(&g, &balls, spt, path, w, 0, &color_of, 3, &mut chunk)
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
