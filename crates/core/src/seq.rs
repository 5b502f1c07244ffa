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
//! `SeqStore`: a `KeyedStore` CSR whose value for a pair is the end of its
//! entries in one arena of 8-byte `PackedEntry`s (the vertex, and the port
//! of an edge hop or `u32::MAX` for a ball hop). A pair costs 8 bytes — its
//! key and its end — and an entry 8 bytes; no sequence is a heap object of
//! its own. The builders append each task's sequences to a `SeqChunk` of
//! arena entries, and the store concatenates the chunks once. A header
//! carries a sequence as a `SeqCursor` — where its row starts in the arena,
//! how long it is, and which entry is the current target — and reads one
//! entry at a time; the words it is charged are the sequence's.

use serde::{Deserialize, Serialize};

use routing_graph::{Graph, Port, VertexId};
use routing_model::{Decision, RouteError};
use routing_vicinity::{BallPorts, BallTable};

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
/// (`len` entries from `start` in the arena) and the index of the current
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

/// The port field of a [`PackedEntry`] that makes it a ball hop.
const BALL_HOP: u32 = u32::MAX;

/// A temporary target as [`SeqStore`]'s arena holds it, in 8 bytes: the
/// vertex, and the port of an edge hop or [`BALL_HOP`] for a ball hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedEntry {
    vertex: u32,
    port: u32,
}

impl PackedEntry {
    /// A ball hop to `vertex`.
    pub(crate) fn ball(vertex: VertexId) -> Self {
        PackedEntry { vertex: vertex.0, port: BALL_HOP }
    }

    /// An edge hop to `vertex` over `port`.
    pub(crate) fn edge(vertex: VertexId, port: Port) -> Self {
        debug_assert!(port.0 != BALL_HOP, "port {} is the ball-hop marker", port.0);
        PackedEntry { vertex: vertex.0, port: port.0 }
    }

    /// The entry as a header carries it.
    #[inline]
    pub(crate) fn decode(self) -> SeqEntry {
        let hop =
            if self.port == BALL_HOP { HopKind::Ball } else { HopKind::Edge(Port(self.port)) };
        SeqEntry { vertex: VertexId(self.vertex), hop }
    }
}

/// A stored sequence, decoded.
#[cfg(test)]
pub(crate) fn decode(entries: &[PackedEntry]) -> Vec<SeqEntry> {
    entries.iter().map(|e| e.decode()).collect()
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
    balls: &BallTable,
    path: &[VertexId],
    pos: usize,
    entries: &mut Vec<PackedEntry>,
) -> Result<Option<usize>, BuildError> {
    let (Some(&xi), Some(&dest)) = (path.get(pos), path.last()) else {
        return Err(BuildError::Inconsistent {
            what: format!("round start {pos} is off a path of {} vertices", path.len()),
        });
    };
    if balls.contains(xi, dest) {
        entries.push(PackedEntry::ball(dest));
        return Ok(None);
    }
    // `zi` exists: the destination, the last path vertex, is outside
    // B(xi, q̃).
    let last = path.len() - 1;
    let next = (pos + 1..last).find(|&k| !balls.contains(xi, path[k])).unwrap_or(last);
    if next == last {
        push_hops(g, path, pos, next, entries)?;
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
    entries: &mut Vec<PackedEntry>,
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
    let before = entries.len();
    if *yi != round[0] {
        entries.push(PackedEntry::ball(*yi));
    }
    entries.push(PackedEntry::edge(*zi, port));
    Ok(entries.len() - before)
}

/// One build task's sequences back to back, in arena form: sequence `k` is
/// `entries[ends[k - 1]..ends[k]]` (from `0` for the first). A builder
/// appends a sequence's entries to `entries`, then [`close`](Self::close)s
/// it.
#[derive(Debug, Default)]
pub(crate) struct SeqChunk {
    pub(crate) entries: Vec<PackedEntry>,
    ends: Vec<usize>,
}

impl SeqChunk {
    /// Ends the sequence appended since the last close.
    pub(crate) fn close(&mut self) {
        self.ends.push(self.entries.len());
    }

    /// How many sequences the chunk holds.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// The chunk's sequences, in the order they were closed.
    pub(crate) fn sequences(&self) -> impl Iterator<Item = &[PackedEntry]> + Clone + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(lo, &hi)| &self.entries[lo..hi])
    }
}

/// What every vertex stores per destination, as one flat table: a CSR slot
/// per vertex `u` with id-sorted destination keys, in the
/// `BallTable`/`FlatBunches` style. A lookup is one binary search over
/// `u`'s contiguous slot; the resident memory is three flat arrays, no
/// hashing anywhere.
#[derive(Debug, Clone)]
pub(crate) struct KeyedStore<T> {
    /// `offsets[u] .. offsets[u + 1]` delimits `u`'s slot.
    offsets: Vec<usize>,
    /// Destination keys, id-sorted within each slot.
    keys: Vec<VertexId>,
    /// `values[i]` belongs to `keys[i]`.
    values: Vec<T>,
}

impl<T> KeyedStore<T> {
    /// Builds the store over vertices `0..n` from `(u, key, value)` rows
    /// that arrive sorted by `(u, key)`, every pair at most once.
    pub(crate) fn from_sorted(
        n: usize,
        rows: impl IntoIterator<Item = (VertexId, VertexId, T)>,
    ) -> Self {
        let rows = rows.into_iter();
        let pairs = rows.size_hint().0;
        Self::from_sorted_reserving(n, pairs, rows)
    }

    /// [`from_sorted`](Self::from_sorted) with room for `pairs` rows
    /// reserved up front.
    fn from_sorted_reserving(
        n: usize,
        pairs: usize,
        rows: impl Iterator<Item = (VertexId, VertexId, T)>,
    ) -> Self {
        let mut offsets = vec![0usize; n + 1];
        let mut keys = Vec::with_capacity(pairs);
        let mut values = Vec::with_capacity(pairs);
        let mut last = None;
        for (u, key, value) in rows {
            debug_assert!(last < Some((u, key)), "rows must be strictly sorted by (u, key)");
            last = Some((u, key));
            offsets[u.index() + 1] += 1;
            keys.push(key);
            values.push(value);
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        // The tables are kept for the scheme's lifetime: no growth slack.
        keys.shrink_to_fit();
        values.shrink_to_fit();
        KeyedStore { offsets, keys, values }
    }

    /// The position in the store of what `u` stores for `key`, if
    /// anything. A `u` outside `0..n` stores nothing.
    #[inline]
    fn get_index(&self, u: VertexId, key: VertexId) -> Option<usize> {
        let lo = *self.offsets.get(u.index())?;
        let hi = *self.offsets.get(u.index() + 1)?;
        self.keys.get(lo..hi)?.binary_search(&key).ok().map(|i| lo + i)
    }

    /// What `u` stores for `key`, if anything. A `u` outside `0..n` stores
    /// nothing.
    #[inline]
    pub(crate) fn get(&self, u: VertexId, key: VertexId) -> Option<&T> {
        self.values.get(self.get_index(u, key)?)
    }

    /// How many destinations `u` stores something for.
    pub(crate) fn slot_len(&self, u: VertexId) -> usize {
        self.offsets[u.index() + 1] - self.offsets[u.index()]
    }

    /// Heap bytes held, by capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of::<usize>() * self.offsets.capacity()
            + std::mem::size_of::<VertexId>() * self.keys.capacity()
            + std::mem::size_of::<T>() * self.values.capacity()
    }
}

/// The Lemma 7 or Lemma 8 sequence every vertex stores per destination, as
/// one [`KeyedStore`] over one arena: the value of a pair is the end of its
/// entries in `arena`, and they start where the previous pair's — in
/// `(u, key)` order — end. 8 bytes a vertex, 8 a pair and 8 an entry.
#[derive(Debug, Clone)]
pub(crate) struct SeqStore {
    ends: KeyedStore<u32>,
    arena: Vec<PackedEntry>,
}

impl SeqStore {
    /// Builds the store over vertices `0..n` from `(u, key, entries)` rows
    /// that arrive sorted by `(u, key)`, every pair at most once. A first
    /// pass counts the rows and their entries, so every array is allocated
    /// once, at its final size.
    ///
    /// # Errors
    ///
    /// [`BuildError::BadParameter`] when the entries outnumber what a `u32`
    /// end offset addresses.
    pub(crate) fn from_sorted<'a, I>(n: usize, rows: I) -> Result<Self, BuildError>
    where
        I: IntoIterator<Item = (VertexId, VertexId, &'a [PackedEntry])>,
        I::IntoIter: Clone,
    {
        let rows = rows.into_iter();
        let (pairs, total) = rows.clone().fold((0, 0), |(p, e), (_, _, s)| (p + 1, e + s.len()));
        if u32::try_from(total).is_err() {
            return Err(BuildError::BadParameter {
                what: format!("{total} sequence entries exceed a u32 arena offset"),
            });
        }
        let mut arena = Vec::with_capacity(total);
        let rows = rows.map(|(u, key, entries)| {
            arena.extend_from_slice(entries);
            (u, key, arena.len() as u32)
        });
        let ends = KeyedStore::from_sorted_reserving(n, pairs, rows);
        Ok(SeqStore { ends, arena })
    }

    /// The entries `u` stores for `key`, if any. A `u` outside `0..n`
    /// stores nothing.
    #[inline]
    pub(crate) fn get(&self, u: VertexId, key: VertexId) -> Option<&[PackedEntry]> {
        let c = self.cursor(u, key)?;
        self.arena.get(c.start as usize..(c.start + c.len) as usize)
    }

    /// A cursor on the first entry of what `u` stores for `key`, if
    /// anything.
    #[inline]
    pub(crate) fn cursor(&self, u: VertexId, key: VertexId) -> Option<SeqCursor> {
        let i = self.ends.get_index(u, key)?;
        let start = match i.checked_sub(1) {
            Some(prev) => *self.ends.values.get(prev)?,
            None => 0,
        };
        let end = *self.ends.values.get(i)?;
        Some(SeqCursor { start, len: end.checked_sub(start)?, idx: 0 })
    }

    /// The entry at the cursor's index: the current temporary target of a
    /// header at `at`. A cursor past its row — on the empty sequence, or
    /// one this store did not make — is [`RouteError::MissingInformation`].
    #[inline]
    pub(crate) fn entry(&self, at: VertexId, c: SeqCursor) -> Result<SeqEntry, RouteError> {
        let slot = (c.idx < c.len).then(|| self.arena.get((c.start + c.idx) as usize)).flatten();
        slot.map(|e| e.decode()).ok_or_else(|| RouteError::MissingInformation {
            at,
            what: format!("the header's sequence cursor {c:?} is off its row"),
        })
    }

    /// Heap bytes held, by capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.ends.heap_bytes() + std::mem::size_of::<PackedEntry>() * self.arena.capacity()
    }
}

#[cfg(test)]
impl SeqStore {
    /// Every entry of a cursor's sequence, decoded.
    pub(crate) fn decode_row(&self, c: SeqCursor) -> Vec<SeqEntry> {
        decode(&self.arena[c.start as usize..(c.start + c.len) as usize])
    }

    /// `(pairs, entries)` stored, after checking that every array's
    /// capacity is its length.
    pub(crate) fn tight_sizes(&self) -> (usize, usize) {
        let KeyedStore { offsets, keys, values } = &self.ends;
        assert_eq!(offsets.capacity(), offsets.len(), "offsets");
        assert_eq!(keys.capacity(), keys.len(), "keys");
        assert_eq!(values.capacity(), values.len(), "ends");
        assert_eq!(self.arena.capacity(), self.arena.len(), "arena");
        (keys.len(), self.arena.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routing_graph::generators;

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

    #[test]
    fn packed_entries_decode_to_what_they_encode() {
        assert_eq!(std::mem::size_of::<PackedEntry>(), 8);
        let v = VertexId(u32::MAX - 1);
        assert_eq!(PackedEntry::ball(v).decode(), SeqEntry::ball(v));
        for port in [0, 7, u32::MAX - 1] {
            assert_eq!(PackedEntry::edge(v, Port(port)).decode(), SeqEntry::edge(v, Port(port)));
        }
    }

    #[test]
    fn keyed_store_finds_exactly_the_stored_pairs() {
        let v = VertexId;
        let store =
            KeyedStore::from_sorted(4, [(v(0), v(2), 'a'), (v(0), v(3), 'b'), (v(2), v(0), 'c')]);
        assert_eq!(store.get(v(0), v(2)), Some(&'a'));
        assert_eq!(store.get(v(0), v(3)), Some(&'b'));
        assert_eq!(store.get(v(2), v(0)), Some(&'c'));
        assert_eq!(store.get(v(0), v(1)), None);
        assert_eq!(store.get(v(1), v(2)), None, "empty slot");
        assert_eq!(store.get(v(3), v(0)), None, "last vertex, empty slot");
        assert_eq!(store.get(v(4), v(0)), None, "a vertex of another instance");
        assert_eq!([0, 1, 2, 3].map(|u| store.slot_len(v(u))), [2, 0, 1, 0]);
        assert_eq!(store.heap_bytes(), 8 * 5 + 4 * 3 + 4 * 3);
    }

    /// Each pair reads back exactly its own entries, from chunks cut at
    /// arbitrary places, and the arrays hold no slack.
    #[test]
    fn seq_store_reads_back_every_pair_from_its_chunks() {
        let v = VertexId;
        let (b, e) = (PackedEntry::ball, PackedEntry::edge);
        let seqs: [&[PackedEntry]; 4] = [
            &[b(v(5)), e(v(6), Port(2))],
            &[b(v(1))],
            &[e(v(3), Port(0)), b(v(4)), e(v(0), Port(1))],
            &[],
        ];
        let keys = [(v(0), v(1)), (v(0), v(6)), (v(3), v(0)), (v(3), v(2))];
        let mut chunks = [SeqChunk::default(), SeqChunk::default()];
        for (k, s) in seqs.iter().enumerate() {
            let chunk = &mut chunks[usize::from(k > 0)];
            chunk.entries.extend_from_slice(s);
            chunk.close();
        }
        assert_eq!(chunks.each_ref().map(SeqChunk::len), [1, 3]);
        let stored = chunks.iter().flat_map(SeqChunk::sequences);
        let rows = keys.iter().zip(stored).map(|(&(u, key), s)| (u, key, s));
        let store = SeqStore::from_sorted(5, rows).unwrap();
        for (&(u, key), s) in keys.iter().zip(seqs) {
            assert_eq!(store.get(u, key), Some(s), "({u}, {key})");
            let c = store.cursor(u, key).unwrap();
            let want: Vec<SeqEntry> = s.iter().map(|e| e.decode()).collect();
            assert_eq!(store.decode_row(c), want, "({u}, {key})");
            // Stepping the cursor reads the row entry by entry, then nothing.
            let read: Vec<SeqEntry> = (0..=c.len() as u32)
                .map_while(|idx| store.entry(u, SeqCursor { idx, ..c }).ok())
                .collect();
            assert_eq!(read, want, "({u}, {key})");
            assert_eq!(store.entry(u, c.last()).ok(), want.last().copied(), "({u}, {key})");
            assert_eq!(c.words(), sequence_words(&want));
        }
        assert_eq!(store.get(v(0), v(2)), None);
        assert_eq!(store.get(v(5), v(0)), None, "a vertex of another instance");
        assert_eq!(store.tight_sizes(), (4, 6));
        assert_eq!(store.heap_bytes(), 8 * 6 + 8 * 4 + 8 * 6);
    }

    /// A round over a path whose last step is not an edge of the graph is
    /// an error, and so is a round off the path.
    #[test]
    fn rounds_over_an_inconsistent_path_are_errors() {
        let g = generators::path(10);
        let balls = BallTable::build(&g, 2);
        let mut entries = Vec::new();
        let bad = [VertexId(0), VertexId(5)];
        let err = walk_round(&g, &balls, &bad, 0, &mut entries).unwrap_err();
        assert!(matches!(err, BuildError::Inconsistent { .. }), "{err}");
        let err = walk_round(&g, &balls, &bad, 2, &mut entries).unwrap_err();
        assert!(matches!(err, BuildError::Inconsistent { .. }), "{err}");
        let err = push_hops(&g, &bad, 1, 1, &mut entries).unwrap_err();
        assert!(matches!(err, BuildError::Inconsistent { .. }), "{err}");
        assert!(entries.is_empty(), "nothing was appended");
    }
}
