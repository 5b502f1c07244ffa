//! The routing sequences at the heart of both techniques.
//!
//! A sequence is a list of *temporary targets* `⟨x_1, ..., x_{b'}⟩` stored at
//! a source for a particular destination. The message hops from one
//! temporary target to the next; each hop is either
//!
//! * a **ball hop** — the next target lies in the vicinity `B(·, q̃)` of the
//!   current one, so Lemma 2 forwarding reaches it on a shortest path, or
//! * an **edge hop** — the next target is an immediate neighbour of the
//!   current one, reached over a single stored port (this is the paper's
//!   footnote about storing edges instead of vertices so the fixed-port
//!   model needs no neighbour-to-port oracle).
//!
//! Both techniques build their sequences with the same per-round walk
//! (`walk_round`), forward on an entry the same way (`SeqEntry::forward`)
//! and keep what a vertex stores per destination in the same flat table,
//! `SeqStore`: a `[start, end)` run of id-sorted destination keys a vertex,
//! and one row of packed entries a key, cut by `routing_graph::PackedRows`
//! like every other table of rows. An entry is a `[vertex, port]` slot of
//! the ball table's `SlotCodec<2>`, at the graph's width: the vertex in the
//! bytes `n` needs, the port of an edge hop in the bytes the largest degree
//! needs, and the port field's all-ones sentinel for a ball hop.
//! Destination keys are packed the same way, at the id width. On a graph of
//! up to 65,535 vertices and degree 255 a vertex costs 8 bytes, a pair 6 —
//! its 2-byte key and its 4-byte row end — and an entry 3; no sequence is a
//! heap object of its own. The builders append each task's sequences,
//! packed by the same codec, to a `SeqChunk`, and a `SeqStoreBuilder`
//! appends the chunks to the store a batch at a time, each batch growing
//! its arrays by exactly what it holds and dropped before the next: Lemma 7
//! a round of sources at a time, in vertex order, Lemma 8 a colour class of
//! sources at a time. A vertex's rows are contiguous and key-sorted, the
//! vertices in any order. A header carries a sequence as a `SeqCursor` —
//! where its row starts among the entries, how long it is, and which entry
//! is the current target — and reads one entry at a time; the words it is
//! charged are the sequence's.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use routing_graph::codec::row_end;
use routing_graph::{Graph, PackedColumn, PackedRows, PackedView, Port, SlotCodec, VertexId};
use routing_model::{Decision, RouteError};
use routing_vicinity::BallPorts;

use crate::BuildError;

/// How a temporary target is reached from the previous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HopKind {
    /// The target is in the vicinity of the previous target; route with
    /// Lemma 2 (every intermediate vertex knows the first-hop port).
    Ball,
    /// The target is a neighbour of the previous target; forward over this
    /// port (valid at the previous target).
    Edge(Port),
}

/// One temporary target of a routing sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeqEntry {
    /// The temporary target vertex.
    pub vertex: VertexId,
    /// How to reach it from the previous temporary target.
    pub hop: HopKind,
}

impl SeqEntry {
    /// A ball-hop entry.
    pub fn ball(vertex: VertexId) -> Self {
        SeqEntry { vertex, hop: HopKind::Ball }
    }

    /// An edge-hop entry over `port` (the port lives at the previous target).
    pub fn edge(vertex: VertexId, port: Port) -> Self {
        SeqEntry { vertex, hop: HopKind::Edge(port) }
    }

    /// The entry as a [`SlotCodec`] packs it: the vertex, and the port of an
    /// edge hop or [`BALL_HOP`] for a ball hop.
    fn slot(self) -> [u32; 2] {
        match self.hop {
            HopKind::Ball => [self.vertex.0, BALL_HOP],
            HopKind::Edge(port) => {
                debug_assert!(port.0 != BALL_HOP, "port {} is the ball-hop marker", port.0);
                [self.vertex.0, port.0]
            }
        }
    }

    /// Size of one entry in `O(log n)`-bit words (vertex + hop descriptor).
    pub fn words() -> usize {
        2
    }

    /// The decision at `at` for a message whose current temporary target is
    /// this entry: the stored port for an edge hop, Lemma 2 forwarding for
    /// a ball hop.
    #[inline]
    pub(crate) fn forward(self, at: VertexId, balls: &BallPorts) -> Result<Decision, RouteError> {
        match self.hop {
            HopKind::Edge(port) => Ok(Decision::Forward(port)),
            HopKind::Ball => {
                balls.first_port(at, self.vertex).map(Decision::Forward).ok_or_else(|| {
                    RouteError::MissingInformation {
                        at,
                        what: format!("temporary target {} is outside B({at}, q̃)", self.vertex),
                    }
                })
            }
        }
    }
}

/// Size of a whole sequence in `O(log n)`-bit words.
pub fn sequence_words(entries: &[SeqEntry]) -> usize {
    SeqEntry::words() * entries.len()
}

/// A stored sequence as a header carries it: a view of one [`SeqStore`] row
/// (`len` entries from `start` among the entries) and the index of the current
/// temporary target. The default cursor is the empty sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SeqCursor {
    start: u32,
    len: u32,
    /// The current temporary target, `< len` on a non-empty sequence.
    pub(crate) idx: u32,
}

impl SeqCursor {
    /// Entries in the sequence.
    #[inline]
    pub(crate) fn len(self) -> usize {
        self.len as usize
    }

    /// True for the empty sequence.
    #[inline]
    pub(crate) fn is_empty(self) -> bool {
        self.len == 0
    }

    /// True when the current target is the sequence's last.
    #[inline]
    pub(crate) fn at_last(self) -> bool {
        self.idx + 1 == self.len
    }

    /// The cursor on the sequence's last entry.
    #[inline]
    pub(crate) fn last(self) -> SeqCursor {
        SeqCursor { idx: self.len.saturating_sub(1), ..self }
    }

    /// Size of the sequence in `O(log n)`-bit words.
    pub(crate) fn words(self) -> usize {
        SeqEntry::words() * self.len()
    }
}

/// The port of a packed entry that makes it a ball hop: what the codec's
/// port sentinel decodes to.
const BALL_HOP: u32 = u32::MAX;

/// The entry a decoded `[vertex, port]` slot holds.
#[inline]
fn decode_entry([vertex, port]: [u32; 2]) -> SeqEntry {
    let hop = if port == BALL_HOP { HopKind::Ball } else { HopKind::Edge(Port(port)) };
    SeqEntry { vertex: VertexId(vertex), hop }
}

/// One round of the walk Lemmas 7 and 8 share, from `xi = path[pos]` along
/// a shortest path that ends at the destination. Returns the position of
/// `zi`, the first path vertex outside `B(xi, q̃)`, for the caller to choose
/// between stopping early and [`push_hops`] — unless the destination is
/// inside `B(xi, q̃)` or is `zi` itself: then the closing entries are
/// appended and `None` is returned.
///
/// # Errors
///
/// [`BuildError::Inconsistent`] when `pos` is off the path or a round's
/// last edge is not an edge of `g`.
pub(crate) fn walk_round(
    g: &Graph,
    balls: &BallPorts,
    path: &[VertexId],
    pos: usize,
    chunk: &mut SeqChunk,
) -> Result<Option<usize>, BuildError> {
    let (Some(&xi), Some(&dest)) = (path.get(pos), path.last()) else {
        return Err(BuildError::Inconsistent {
            what: format!("round start {pos} is off a path of {} vertices", path.len()),
        });
    };
    if balls.contains(xi, dest) {
        chunk.push(SeqEntry::ball(dest));
        return Ok(None);
    }
    // `zi` exists: the destination, the last path vertex, is outside
    // B(xi, q̃).
    let last = path.len() - 1;
    let next = (pos + 1..last).find(|&k| !balls.contains(xi, path[k])).unwrap_or(last);
    if next == last {
        push_hops(g, path, pos, next, chunk)?;
        return Ok(None);
    }
    Ok(Some(next))
}

/// Appends the hops of the round from `path[pos]` to `zi = path[next]` — a
/// ball hop to `zi`'s predecessor `yi` unless the round starts there, then
/// the edge `(yi, zi)` — and returns how many entries that took.
///
/// # Errors
///
/// [`BuildError::Inconsistent`] unless `pos < next` lie on the path and
/// `(yi, zi)` is an edge of `g`.
pub(crate) fn push_hops(
    g: &Graph,
    path: &[VertexId],
    pos: usize,
    next: usize,
    chunk: &mut SeqChunk,
) -> Result<usize, BuildError> {
    let Some(round @ [.., yi, zi]) = path.get(pos..=next) else {
        return Err(BuildError::Inconsistent {
            what: format!(
                "round {pos}..={next} is not a step along a path of {} vertices",
                path.len()
            ),
        });
    };
    let port = g.port_to(*yi, *zi).ok_or_else(|| BuildError::Inconsistent {
        what: format!("consecutive path vertices {yi} and {zi} are not adjacent"),
    })?;
    let mut pushed = 1;
    if *yi != round[0] {
        chunk.push(SeqEntry::ball(*yi));
        pushed += 1;
    }
    chunk.push(SeqEntry::edge(*zi, port));
    Ok(pushed)
}

/// One build task's sequences back to back: one row of entries a sequence,
/// packed by the build's codec. A builder [`push`](Self::push)es a
/// sequence's entries, then [`close`](Self::close)s it, and
/// [`shrink_to_fit`](Self::shrink_to_fit)s the chunk once its task is done.
#[derive(Debug)]
pub(crate) struct SeqChunk {
    rows: PackedRows<2>,
    /// Every entry pushed, unpacked: the reference the tests hold the
    /// packed rows to.
    #[cfg(test)]
    pub(crate) pushed: Vec<SeqEntry>,
}

impl SeqChunk {
    /// An empty chunk whose entries `codec` packs.
    pub(crate) fn new(codec: SlotCodec<2>) -> Self {
        SeqChunk {
            rows: PackedRows::new(codec),
            #[cfg(test)]
            pushed: Vec::new(),
        }
    }

    /// Appends `entry` to the open sequence.
    pub(crate) fn push(&mut self, entry: SeqEntry) {
        self.rows.push(entry.slot());
        #[cfg(test)]
        self.pushed.push(entry);
    }

    /// Ends the sequence appended since the last close.
    ///
    /// # Errors
    ///
    /// [`BuildError::TooSmall`] when the chunk's entries outnumber what a
    /// `u32` row end addresses, as the store's would.
    pub(crate) fn close(&mut self) -> Result<(), BuildError> {
        Ok(self.rows.close_row()?)
    }

    /// Returns the arrays' growth slack: a finished chunk waits to be
    /// appended to the store at its length.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.rows.shrink_to_fit();
    }

    /// How many sequences the chunk holds.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Sequence `k`, packed, if the chunk holds that many.
    pub(crate) fn sequence(&self, k: usize) -> Option<PackedView<'_, 2>> {
        self.rows.row(k)
    }

    /// The chunk's sequences, packed, in the order they were closed.
    pub(crate) fn sequences(&self) -> impl Iterator<Item = PackedView<'_, 2>> + Clone + '_ {
        (0..self.len()).filter_map(|k| self.sequence(k))
    }
}

/// The Lemma 7 or Lemma 8 sequence every vertex stores per destination, as
/// one flat table: a run of contiguous, id-sorted destination keys per
/// vertex `u`, and one row of entries a key. A lookup is one binary search
/// over `u`'s keys, one key window a probe; the resident memory is four
/// flat arrays, no hashing anywhere. A vertex's run is a `[start, end)`
/// pair of `u32`s, 8 bytes a vertex, so the runs may be filled in any
/// vertex order: Lemma 8 fills them a colour class at a time. A pair costs
/// its packed key and its 4-byte row end, an entry one packed slot: 8, 6
/// and 3 bytes on graphs of up to 65,535 vertices and degree 255.
#[derive(Debug, Clone)]
pub(crate) struct SeqStore {
    /// `ranges[u]` is `[start, end)` of `u`'s pairs; `[0, 0]` for a vertex
    /// that stores nothing.
    ranges: Vec<[u32; 2]>,
    /// Destination keys, id-sorted within each vertex's run, at the id
    /// width of `0..n` ([`SlotCodec::for_ids`]).
    keys: PackedColumn<1>,
    /// Row `i` is the sequence of key `i`.
    seqs: PackedRows<2>,
}

/// A [`SeqStore`] being filled a batch of rows at a time, each batch's
/// arrays growing by exactly what it holds, so that a build can append
/// each round (Lemma 7) or colour class (Lemma 8) of its sequence chunks
/// and drop them before the next. Each vertex's rows arrive together and
/// sorted by key, the vertices in any order.
#[derive(Debug)]
pub(crate) struct SeqStoreBuilder {
    store: SeqStore,
    /// The last row appended.
    last: Option<(VertexId, VertexId)>,
}

impl SeqStoreBuilder {
    /// An empty store over vertices `0..n` whose entries `codec` packs.
    pub(crate) fn new(codec: SlotCodec<2>, n: usize) -> Self {
        let (keys, seqs) = (PackedColumn::new(SlotCodec::for_ids(n)), PackedRows::new(codec));
        SeqStoreBuilder { store: SeqStore { ranges: vec![[0, 0]; n], keys, seqs }, last: None }
    }

    /// Appends `(u, key, entries)` rows, each packed by the store's codec:
    /// every `u` and key in `0..n`, and each vertex's rows contiguous and
    /// strictly sorted by key across every batch — a vertex's pairs are
    /// one run. A first pass counts the rows and their entries, so every
    /// array grows once, by exactly that.
    ///
    /// # Errors
    ///
    /// [`BuildError::Inconsistent`] when a row names no vertex, repeats or
    /// undercuts its vertex's last key, or resumes a vertex whose rows
    /// ended before another's; [`BuildError::TooSmall`] when the pairs or
    /// the entries outnumber what a `u32` addresses. The rows before the
    /// refused one stay appended.
    pub(crate) fn extend<'a, I>(&mut self, rows: I) -> Result<(), BuildError>
    where
        I: IntoIterator<Item = (VertexId, VertexId, PackedView<'a, 2>)>,
        I::IntoIter: Clone,
    {
        let rows = rows.into_iter();
        let (pairs, entries) = rows.clone().fold((0, 0), |(p, e), (_, _, s)| (p + 1, e + s.len()));
        let store = &mut self.store;
        row_end(store.seqs.column().len() + entries)?;
        store.keys.reserve_exact(pairs);
        store.seqs.reserve_exact(pairs, entries);
        let n = store.ranges.len();
        for (u, key, entries) in rows {
            let inconsistent = |what: String| BuildError::Inconsistent { what };
            if u.index() >= n || key.index() >= n {
                return Err(inconsistent(format!("row ({u}, {key}) of a store over {n} vertices")));
            }
            let end = row_end(store.keys.len() + 1)?;
            let run = &mut store.ranges[u.index()];
            match self.last {
                Some((last_u, last_key)) if last_u == u => {
                    if key <= last_key {
                        return Err(inconsistent(format!("key {key} after {last_key} at {u}")));
                    }
                }
                _ if run[1] != 0 => {
                    return Err(inconsistent(format!("the rows of {u} are split by another vertex's")));
                }
                _ => run[0] = end - 1,
            }
            run[1] = end;
            self.last = Some((u, key));
            store.keys.push([key.0]);
            store.seqs.extend_from(entries);
            store.seqs.close_row()?;
        }
        Ok(())
    }

    /// The store, with no growth slack: it is kept for the scheme's
    /// lifetime.
    pub(crate) fn finish(self) -> SeqStore {
        let mut store = self.store;
        store.keys.shrink_to_fit();
        store.seqs.shrink_to_fit();
        store
    }
}

impl SeqStore {
    /// The pairs of `u`, as indexes into the keys and rows; none for a `u`
    /// outside `0..n`.
    #[inline]
    fn pairs_at(&self, u: VertexId) -> Range<usize> {
        self.ranges.get(u.index()).map_or(0..0, |&[lo, hi]| lo as usize..hi as usize)
    }

    /// The index of the pair `(u, key)`, if `u` stores something for `key`.
    /// A `u` or `key` outside `0..n` stores nothing: the range check comes
    /// before any key is masked to the packed width.
    #[inline]
    fn pair(&self, u: VertexId, key: VertexId) -> Option<usize> {
        if key.index() >= self.ranges.len() {
            return None;
        }
        let pairs = self.pairs_at(u);
        Some(pairs.start + self.keys.slice(pairs)?.search(key.0.into())?)
    }

    /// A cursor on the first entry of what `u` stores for `key`, if
    /// anything. A `u` or `key` outside `0..n` stores nothing.
    #[inline]
    pub(crate) fn cursor(&self, u: VertexId, key: VertexId) -> Option<SeqCursor> {
        let row = self.seqs.range(self.pair(u, key)?)?;
        // Row bounds are `u32` ends.
        Some(SeqCursor { start: row.start as u32, len: row.len() as u32, idx: 0 })
    }

    /// The entry at the cursor's index: the current temporary target of a
    /// header at `at`. A cursor past its row — on the empty sequence, or
    /// one this store did not make — is [`RouteError::MissingInformation`].
    #[inline]
    pub(crate) fn entry(&self, at: VertexId, c: SeqCursor) -> Result<SeqEntry, RouteError> {
        let i = c.start as usize + c.idx as usize;
        let entry = (c.idx < c.len).then(|| self.seqs.column().get(i)).flatten();
        entry.map(decode_entry).ok_or_else(|| RouteError::MissingInformation {
            at,
            what: format!("the header's sequence cursor {c:?} is off its row"),
        })
    }

    /// Every `(key, sequence)` row `u` stores, in key order; none for a `u`
    /// outside `0..n`.
    pub(crate) fn rows_at(&self, u: VertexId) -> impl Iterator<Item = (VertexId, PackedView<'_, 2>)> + '_ {
        self.pairs_at(u).filter_map(|i| Some((VertexId(self.keys.get::<u32>(i)?[0]), self.seqs.row(i)?)))
    }

    /// `(pairs, entries)` stored.
    pub(crate) fn counts(&self) -> (usize, usize) {
        (self.seqs.len(), self.seqs.column().len())
    }

    /// `(pairs, entries)` stored at `u`; none for a `u` outside `0..n`.
    pub(crate) fn counts_at(&self, u: VertexId) -> (usize, usize) {
        self.seqs.rows(self.pairs_at(u)).map_or((0, 0), |rows| (rows.len(), rows.records()))
    }

    /// Heap bytes held, by capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of::<[u32; 2]>() * self.ranges.capacity() + self.keys.heap_bytes() + self.seqs.heap_bytes()
    }
}

#[cfg(test)]
impl SeqStore {
    /// Builds the store over vertices `0..n` from `(u, key, entries)` rows,
    /// each vertex's together and sorted by key, each row packed by
    /// `codec`, in one [`SeqStoreBuilder::extend`]: every array is
    /// allocated once, at its final size.
    pub(crate) fn from_sorted<'a, I>(codec: SlotCodec<2>, n: usize, rows: I) -> Result<Self, BuildError>
    where
        I: IntoIterator<Item = (VertexId, VertexId, PackedView<'a, 2>)>,
        I::IntoIter: Clone,
    {
        let mut store = SeqStoreBuilder::new(codec, n);
        store.extend(rows)?;
        Ok(store.finish())
    }

    /// Every entry of a cursor's sequence, decoded.
    pub(crate) fn decode_row(&self, c: SeqCursor) -> Vec<SeqEntry> {
        (c.start..c.start + c.len).map(|i| decode_entry(self.seqs.column().get(i as usize).unwrap())).collect()
    }

    /// Every entry `u` stores for `key`, decoded, if it stores any.
    pub(crate) fn decoded(&self, u: VertexId, key: VertexId) -> Option<Vec<SeqEntry>> {
        self.cursor(u, key).map(|c| self.decode_row(c))
    }

    /// `(pairs, entries)` stored, after checking that every array's
    /// capacity is its length, the keys' and the entries' their records
    /// and pads.
    pub(crate) fn tight_sizes(&self) -> (usize, usize) {
        let (pairs, entries) = self.counts();
        assert_eq!(self.ranges.capacity(), self.ranges.len(), "ranges");
        assert_eq!(self.keys.len(), pairs, "a key a pair");
        let keys = self.keys.codec().width() * pairs + routing_graph::SLOT_PAD;
        assert_eq!(self.keys.heap_bytes(), keys, "keys");
        let rows = 4 * pairs + self.seqs.codec().width() * entries + routing_graph::SLOT_PAD;
        assert_eq!(self.seqs.heap_bytes(), rows, "rows");
        (pairs, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routing_graph::{generators, SLOT_PAD};
    use routing_vicinity::BallTable;

    #[test]
    fn constructors_and_words() {
        let a = SeqEntry::ball(VertexId(3));
        assert_eq!(a.hop, HopKind::Ball);
        let b = SeqEntry::edge(VertexId(4), Port(1));
        assert_eq!(b.hop, HopKind::Edge(Port(1)));
        assert_eq!(SeqEntry::words(), 2);
        assert_eq!(sequence_words(&[a, b]), 4);
        assert_eq!(sequence_words(&[]), 0);
    }

    /// A codec whose entries take 3 bytes: 2-byte ids (n = 300) and 1-byte
    /// ports, and the path it is read from.
    fn three_byte_codec() -> (Graph, SlotCodec<2>) {
        let g = generators::path(300);
        let codec = SlotCodec::for_graph(&g);
        assert_eq!(codec.width(), 3, "a 2-byte id and a 1-byte port");
        (g, codec)
    }

    /// Every entry packs into the codec's width and decodes back to itself,
    /// the largest vertex and the ports beside the ball-hop sentinel
    /// included, from a chunk row and from the store's rows alike.
    #[test]
    fn packed_entries_decode_to_what_they_encode() {
        let (_, codec) = three_byte_codec();
        let v = VertexId(299);
        let entries = [
            SeqEntry::ball(v),
            SeqEntry::edge(v, Port(0)),
            SeqEntry::edge(VertexId(0), Port(254)),
            SeqEntry::ball(VertexId(0)),
        ];
        let mut chunk = SeqChunk::new(codec);
        for e in entries {
            chunk.push(e);
        }
        chunk.close().unwrap();
        assert_eq!(chunk.rows.column().len(), entries.len());
        let rows: Vec<PackedView<'_, 2>> = chunk.sequences().collect();
        let row: Vec<SeqEntry> = (0..=rows[0].len()).map_while(|i| rows[0].get(i).map(decode_entry)).collect();
        assert_eq!(row, entries);
        let store = SeqStore::from_sorted(codec, 300, [(VertexId(1), v, rows[0])]).unwrap();
        assert_eq!(store.decoded(VertexId(1), v), Some(entries.to_vec()));
    }

    /// One chunk of one-entry sequences, a ball hop to each of `targets`
    /// in turn, at the widths of a 4-vertex path: 2-byte entries.
    fn one_entry_chunk(targets: &[u32]) -> SeqChunk {
        let mut chunk = SeqChunk::new(SlotCodec::for_graph(&generators::path(4)));
        for &x in targets {
            chunk.push(SeqEntry::ball(VertexId(x)));
            chunk.close().unwrap();
        }
        chunk
    }

    /// The target of the one-entry sequence `u` stores for `key`, if any.
    fn target(store: &SeqStore, u: u32, key: u32) -> Option<u32> {
        let row = store.decoded(VertexId(u), VertexId(key))?;
        assert_eq!(row.len(), 1, "({u}, {key})");
        Some(row[0].vertex.0)
    }

    #[test]
    fn keyed_store_finds_exactly_the_stored_pairs() {
        let v = VertexId;
        let chunk = one_entry_chunk(&[1, 2, 3]);
        let keys = [(v(0), v(2)), (v(0), v(3)), (v(2), v(0))];
        let rows = keys.into_iter().zip(chunk.sequences()).map(|((u, key), s)| (u, key, s));
        let store = SeqStore::from_sorted(chunk.rows.codec(), 4, rows).unwrap();
        assert_eq!(target(&store, 0, 2), Some(1));
        assert_eq!(target(&store, 0, 3), Some(2));
        assert_eq!(target(&store, 2, 0), Some(3));
        assert_eq!(target(&store, 0, 1), None);
        assert_eq!(target(&store, 1, 2), None, "an empty run");
        assert_eq!(target(&store, 3, 0), None, "last vertex, an empty run");
        assert_eq!(target(&store, 4, 0), None, "a vertex of another instance");
        assert_eq!([0, 1, 2, 3].map(|u| store.counts_at(v(u))), [(2, 2), (0, 0), (1, 1), (0, 0)]);
        // 8 bytes a vertex, 1-byte keys and their pad, a 4-byte row end a
        // pair, 2-byte entries and their pad.
        assert_eq!(store.heap_bytes(), 8 * 4 + (3 + SLOT_PAD) + 4 * 3 + (2 * 3 + SLOT_PAD));
    }

    /// The runs may be filled in any vertex order, each vertex's rows
    /// together and key-sorted; a vertex whose rows are split by another's,
    /// a key repeated or out of order, and a vertex or key outside `0..n`
    /// are [`BuildError::Inconsistent`], across batches too.
    #[test]
    fn keyed_store_takes_vertices_in_any_order_but_refuses_a_split_vertex() {
        let v = VertexId;
        let chunk = one_entry_chunk(&[0, 1, 2, 3]);
        let seq = |k| chunk.sequence(k).unwrap();
        let mut store = SeqStoreBuilder::new(chunk.rows.codec(), 4);
        store.extend([(v(2), v(0), seq(0)), (v(2), v(3), seq(1))]).unwrap();
        store.extend([(v(0), v(1), seq(2)), (v(3), v(2), seq(3))]).unwrap();
        let store = store.finish();
        for (u, key, value) in [(2, 0, 0), (2, 3, 1), (0, 1, 2), (3, 2, 3)] {
            assert_eq!(target(&store, u, key), Some(value), "({u}, {key})");
        }
        assert_eq!(target(&store, 2, 1), None);
        assert_eq!([0, 1, 2, 3].map(|u| store.counts_at(v(u)).0), [1, 0, 2, 1]);
        assert_eq!(store.ranges, [[2, 3], [0, 0], [0, 2], [3, 4]]);
        let refused: [&[(u32, u32)]; 6] = [
            &[(0, 1), (1, 0), (0, 2)],
            &[(2, 0), (2, 3), (0, 1), (2, 1)],
            &[(0, 2), (0, 1)],
            &[(0, 2), (0, 2)],
            &[(4, 0)],
            &[(0, 4)],
        ];
        for rows in refused {
            let mut store = SeqStoreBuilder::new(chunk.rows.codec(), 4);
            // Every row but the last in one batch, the last in another.
            let (last, first) = rows.split_last().unwrap();
            let batch = |rows: &[(u32, u32)]| rows.iter().map(|&(u, key)| (v(u), v(key), seq(0))).collect::<Vec<_>>();
            store.extend(batch(first)).unwrap();
            let err = store.extend(batch(&[*last])).unwrap_err();
            assert!(matches!(err, BuildError::Inconsistent { .. }), "{rows:?}: {err}");
        }
    }

    /// Each pair reads back exactly its own entries, from chunks cut at
    /// arbitrary places, and the arrays hold no slack: 8 bytes a vertex, a
    /// 2-byte key and a 4-byte end a pair, 3 bytes an entry, and the two
    /// pads.
    #[test]
    fn seq_store_reads_back_every_pair_from_its_chunks() {
        let v = VertexId;
        let (g, codec) = three_byte_codec();
        let (b, e) = (SeqEntry::ball, SeqEntry::edge);
        let seqs: [&[SeqEntry]; 4] = [
            &[b(v(5)), e(v(6), Port(1))],
            &[b(v(1))],
            &[e(v(3), Port(0)), b(v(4)), e(v(0), Port(1))],
            &[],
        ];
        let keys = [(v(0), v(1)), (v(0), v(6)), (v(3), v(0)), (v(3), v(2))];
        let mut chunks = [SeqChunk::new(codec), SeqChunk::new(codec)];
        for (k, s) in seqs.iter().enumerate() {
            let chunk = &mut chunks[usize::from(k > 0)];
            for &entry in *s {
                chunk.push(entry);
            }
            chunk.close().unwrap();
        }
        assert_eq!(chunks.each_ref().map(SeqChunk::len), [1, 3]);
        let stored = chunks.iter().flat_map(SeqChunk::sequences);
        let rows = keys.iter().zip(stored).map(|(&(u, key), s)| (u, key, s));
        let store = SeqStore::from_sorted(codec, g.n(), rows).unwrap();
        for (&(u, key), want) in keys.iter().zip(seqs) {
            let c = store.cursor(u, key).unwrap();
            assert_eq!(store.decode_row(c), want, "({u}, {key})");
            // Stepping the cursor reads the row entry by entry, then nothing.
            let read: Vec<SeqEntry> = (0..=c.len() as u32)
                .map_while(|idx| store.entry(u, SeqCursor { idx, ..c }).ok())
                .collect();
            assert_eq!(read, want, "({u}, {key})");
            assert_eq!(store.entry(u, c.last()).ok(), want.last().copied(), "({u}, {key})");
            assert_eq!(c.words(), sequence_words(want));
        }
        assert_eq!(store.cursor(v(0), v(2)), None);
        assert_eq!(store.cursor(v(300), v(0)), None, "a vertex of another instance");
        assert_eq!(store.tight_sizes(), (4, 6));
        assert_eq!(store.heap_bytes(), 8 * 300 + (2 + 4) * 4 + 3 * 6 + 2 * SLOT_PAD);
    }

    /// On a store of 1-byte keys, an id that masks down to a stored key
    /// (`256 + k`, or the narrow sentinel `0xFF`), a source outside `0..n`
    /// and a cursor of another store whose entry lies past this store's
    /// entries all miss, without panicking and without matching: the range
    /// checks come before any key is masked, and a cursor is checked against
    /// this store's entries, not their pad.
    #[test]
    fn hostile_keys_and_cursors_miss_instead_of_panicking_or_matching() {
        let v = VertexId;
        let g = generators::cycle(12);
        let codec = SlotCodec::for_graph(&g);
        assert_eq!((SlotCodec::for_ids(g.n()).width(), codec.width()), (1, 2));
        let mut chunk = SeqChunk::new(codec);
        let keys = [(v(0), v(3)), (v(0), v(6)), (v(5), v(11))];
        for &(_, key) in &keys {
            chunk.push(SeqEntry::ball(key));
            chunk.close().unwrap();
        }
        let rows = keys.iter().zip(chunk.sequences()).map(|(&(u, key), s)| (u, key, s));
        let store = SeqStore::from_sorted(codec, g.n(), rows).unwrap();
        // A larger store: a 40-entry row, then a row that starts past the
        // small store's entries.
        let (big_g, big_codec) = three_byte_codec();
        let mut big = SeqChunk::new(big_codec);
        for len in [40, 3] {
            for k in 0..len {
                big.push(SeqEntry::edge(v(k), Port(1)));
            }
            big.close().unwrap();
        }
        let big_keys = [(v(298), v(297)), (v(299), v(298))];
        let rows = big_keys.iter().zip(big.sequences()).map(|(&(u, key), s)| (u, key, s));
        let big = SeqStore::from_sorted(big_codec, big_g.n(), rows).unwrap();
        let (long, foreign) =
            (big.cursor(v(298), v(297)).unwrap(), big.cursor(v(299), v(298)).unwrap());
        for &(u, key) in &keys {
            let c = store.cursor(u, key).unwrap();
            assert_eq!(store.entry(u, c).ok(), Some(SeqEntry::ball(key)));
            for hostile in [v(256 + key.0), v(0xFF), v(12), v(u32::MAX)] {
                assert_eq!(store.cursor(u, hostile), None, "({u}, {hostile})");
                assert_eq!(store.pair(u, hostile), None, "({u}, {hostile})");
                assert_eq!(store.cursor(hostile, key), None, "({hostile}, {key})");
                assert_eq!(store.pair(hostile, key), None, "({hostile}, {key})");
            }
        }
        for c in [foreign, foreign.last(), SeqCursor { idx: 3, ..long }, long.last()] {
            assert!(store.entry(v(0), c).is_err(), "{c:?}");
        }
        let wild = SeqCursor { start: u32::MAX, len: u32::MAX, idx: u32::MAX - 1 };
        assert!(store.entry(v(0), wild).is_err());
        assert!(store.entry(v(0), SeqCursor::default()).is_err(), "the empty sequence");
    }

    /// A round over a path whose last step is not an edge of the graph is
    /// an error, and so is a round off the path.
    #[test]
    fn rounds_over_an_inconsistent_path_are_errors() {
        let g = generators::path(10);
        let balls = BallTable::build(&g, 2);
        let mut chunk = SeqChunk::new(SlotCodec::for_graph(&g));
        let bad = [VertexId(0), VertexId(5)];
        let err = walk_round(&g, &balls, &bad, 0, &mut chunk).unwrap_err();
        assert!(matches!(err, BuildError::Inconsistent { .. }), "{err}");
        let err = walk_round(&g, &balls, &bad, 2, &mut chunk).unwrap_err();
        assert!(matches!(err, BuildError::Inconsistent { .. }), "{err}");
        let err = push_hops(&g, &bad, 1, 1, &mut chunk).unwrap_err();
        assert!(matches!(err, BuildError::Inconsistent { .. }), "{err}");
        assert_eq!(chunk.rows.column().len(), 0, "nothing was appended");
    }
}
