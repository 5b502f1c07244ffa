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
//! `SeqStore`: a `KeyedStore` — a `[start, end)` slot of id-sorted keys a
//! vertex — whose value for a pair is the end of its entries in one arena
//! of packed entries. An entry is a `[vertex, port]` slot of the ball
//! table's `SlotCodec<2>`, at the graph's width: the vertex in the bytes `n`
//! needs, the port of an edge hop in the bytes the largest degree needs,
//! and the port field's all-ones sentinel for a ball hop. Destination keys
//! are packed the same way, at the id width. On a graph of up to 65,535
//! vertices and degree 255 a vertex costs 8 bytes, a pair 6 — its 2-byte
//! key and its 4-byte end — and an entry 3; no sequence is a heap object of
//! its own. The builders append each task's sequences, packed by the same
//! codec, to a `SeqChunk`, and a `SeqStoreBuilder` appends the chunks to
//! the store a batch at a time, each batch growing its arrays by exactly
//! what it holds and dropped before the next: Lemma 7 a round of sources
//! at a time, in vertex order, Lemma 8 a colour class of sources at a time.
//! A vertex's rows are contiguous and key-sorted, the vertices in any
//! order. A header carries a sequence as a `SeqCursor` — where its row
//! starts in the arena, how long it is, and which entry is the current
//! target — and reads one entry at a time; the words it is charged are the
//! sequence's.

use serde::{Deserialize, Serialize};

use routing_graph::{Graph, PackedColumn, PackedView, Port, SlotCodec, VertexId};
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

/// One build task's sequences back to back, in arena form: entries packed
/// by the build's codec, sequence `k` in `entries[ends[k - 1]..ends[k]]`
/// (from `0` for the first). A builder [`push`](Self::push)es a sequence's
/// entries, then [`close`](Self::close)s it, and
/// [`shrink_to_fit`](Self::shrink_to_fit)s the chunk once its task is done.
/// The chunk holds the packed entries and one 4-byte end a sequence.
#[derive(Debug)]
pub(crate) struct SeqChunk {
    entries: PackedColumn<2>,
    ends: Vec<u32>,
    /// Every entry pushed, unpacked: the reference the tests hold the
    /// packed rows to.
    #[cfg(test)]
    pub(crate) pushed: Vec<SeqEntry>,
}

impl SeqChunk {
    /// An empty chunk whose entries `codec` packs.
    pub(crate) fn new(codec: SlotCodec<2>) -> Self {
        SeqChunk {
            entries: PackedColumn::new(codec),
            ends: Vec::new(),
            #[cfg(test)]
            pushed: Vec::new(),
        }
    }

    /// Appends `entry` to the open sequence.
    pub(crate) fn push(&mut self, entry: SeqEntry) {
        self.entries.push(entry.slot());
        #[cfg(test)]
        self.pushed.push(entry);
    }

    /// Ends the sequence appended since the last close.
    ///
    /// # Errors
    ///
    /// [`BuildError::BadParameter`] when the chunk's entries outnumber what
    /// a `u32` end addresses, as the store's arena would.
    pub(crate) fn close(&mut self) -> Result<(), BuildError> {
        let end = self.entries.len();
        self.ends.push(u32::try_from(end).map_err(|_| BuildError::BadParameter {
            what: format!("{end} sequence entries exceed a u32 arena offset"),
        })?);
        Ok(())
    }

    /// Returns the arrays' growth slack: a finished chunk waits to be
    /// appended to the store at its length.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// How many sequences the chunk holds.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Sequence `k`, packed, if the chunk holds that many.
    pub(crate) fn sequence(&self, k: usize) -> Option<PackedView<'_, 2>> {
        let lo = match k.checked_sub(1) {
            Some(prev) => *self.ends.get(prev)?,
            None => 0,
        };
        self.entries.slice(lo as usize..*self.ends.get(k)? as usize)
    }

    /// The chunk's sequences, packed, in the order they were closed.
    pub(crate) fn sequences(&self) -> impl Iterator<Item = PackedView<'_, 2>> + Clone + '_ {
        (0..self.len()).filter_map(|k| self.sequence(k))
    }
}

/// The values a [`KeyedStore`] keeps, one a key, in key order: a vector,
/// or a [`PackedColumn`] of one field at the width its values need.
pub(crate) trait Values {
    /// What a pair stores.
    type Value: Copy;
    /// Appends the value of the next key.
    fn push(&mut self, value: Self::Value);
    /// The value of key `i`, if there is one.
    fn value(&self, i: usize) -> Option<Self::Value>;
    /// Makes room for `more` values.
    fn reserve_exact(&mut self, more: usize);
    /// Returns the growth slack.
    fn shrink_to_fit(&mut self);
    /// Heap bytes held, by capacity.
    fn heap_bytes(&self) -> usize;
}

impl<T: Copy> Values for Vec<T> {
    type Value = T;

    fn push(&mut self, value: T) {
        Vec::push(self, value);
    }

    #[inline]
    fn value(&self, i: usize) -> Option<T> {
        self.get(i).copied()
    }

    fn reserve_exact(&mut self, more: usize) {
        Vec::reserve_exact(self, more);
    }

    fn shrink_to_fit(&mut self) {
        Vec::shrink_to_fit(self);
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<T>() * self.capacity()
    }
}

impl Values for PackedColumn<1> {
    type Value = u32;

    fn push(&mut self, value: u32) {
        PackedColumn::push(self, [value]);
    }

    #[inline]
    fn value(&self, i: usize) -> Option<u32> {
        self.get::<u32>(i).map(|[v]| v)
    }

    fn reserve_exact(&mut self, more: usize) {
        PackedColumn::reserve_exact(self, more);
    }

    fn shrink_to_fit(&mut self) {
        PackedColumn::shrink_to_fit(self);
    }

    fn heap_bytes(&self) -> usize {
        PackedColumn::heap_bytes(self)
    }
}

/// What every vertex stores per destination, as one flat table: a slot of
/// contiguous, id-sorted destination keys per vertex `u`, in the
/// `BallTable`/`DistLists` style. A lookup is one binary search over `u`'s
/// slot, one key window a probe; the resident memory is three flat arrays,
/// no hashing anywhere. A slot is a `[start, end)` pair of `u32`s, 8 bytes
/// a vertex, so the slots may be filled in any vertex order: Lemma 8 fills
/// them a colour class at a time.
#[derive(Debug, Clone)]
pub(crate) struct KeyedStore<V> {
    /// `ranges[u]` is `[start, end)` of `u`'s slot; `[0, 0]` for a vertex
    /// that stores nothing.
    ranges: Vec<[u32; 2]>,
    /// Destination keys, id-sorted within each slot, at the id width of
    /// `0..n` ([`SlotCodec::for_ids`]).
    keys: PackedColumn<1>,
    /// Value `i` belongs to key `i`.
    values: V,
}

/// A [`KeyedStore`] being filled, a batch of rows at a time: each vertex's
/// rows arrive together and sorted by key, the vertices in any order.
#[derive(Debug)]
pub(crate) struct KeyedStoreBuilder<V> {
    store: KeyedStore<V>,
    /// The last row appended.
    last: Option<(VertexId, VertexId)>,
}

impl<V: Values> KeyedStoreBuilder<V> {
    /// An empty store over vertices `0..n`, its values appended to `values`.
    pub(crate) fn new(n: usize, values: V) -> Self {
        let keys = PackedColumn::new(SlotCodec::for_ids(n));
        KeyedStoreBuilder { store: KeyedStore { ranges: vec![[0, 0]; n], keys, values }, last: None }
    }

    /// Appends `rows`, `pairs` of them if the caller knows (the keys and
    /// values then grow by exactly `pairs`): every `u` and key in `0..n`,
    /// and each vertex's rows contiguous and strictly sorted by key across
    /// every batch — a vertex's slot is one run of rows.
    ///
    /// # Errors
    ///
    /// [`BuildError::Inconsistent`] when a row names no vertex, repeats or
    /// undercuts its vertex's last key, or resumes a vertex whose rows
    /// ended before another's; [`BuildError::BadParameter`] when the pairs
    /// outnumber what a `u32` slot bound addresses. The rows before the
    /// refused one stay appended.
    pub(crate) fn extend(
        &mut self,
        pairs: usize,
        rows: impl Iterator<Item = (VertexId, VertexId, V::Value)>,
    ) -> Result<(), BuildError> {
        let store = &mut self.store;
        store.keys.reserve_exact(pairs);
        store.values.reserve_exact(pairs);
        let n = store.ranges.len();
        for (u, key, value) in rows {
            let inconsistent = |what: String| BuildError::Inconsistent { what };
            if u.index() >= n || key.index() >= n {
                return Err(inconsistent(format!("row ({u}, {key}) of a store over {n} vertices")));
            }
            let end = u32::try_from(store.keys.len() + 1).map_err(|_| BuildError::BadParameter {
                what: format!("{} stored pairs exceed a u32 slot bound", store.keys.len() + 1),
            })?;
            let slot = &mut store.ranges[u.index()];
            match self.last {
                Some((last_u, last_key)) if last_u == u => {
                    if key <= last_key {
                        return Err(inconsistent(format!("key {key} after {last_key} at {u}")));
                    }
                }
                _ if slot[1] != 0 => {
                    return Err(inconsistent(format!("the rows of {u} are split by another vertex's")));
                }
                _ => slot[0] = end - 1,
            }
            slot[1] = end;
            self.last = Some((u, key));
            store.keys.push([key.0]);
            store.values.push(value);
        }
        Ok(())
    }

    /// The store, with no growth slack: it is kept for the scheme's
    /// lifetime.
    pub(crate) fn finish(self) -> KeyedStore<V> {
        let mut store = self.store;
        store.keys.shrink_to_fit();
        store.values.shrink_to_fit();
        store
    }
}

#[cfg(test)]
impl<T: Copy> KeyedStore<Vec<T>> {
    /// Builds the store over vertices `0..n` from `(u, key, value)` rows,
    /// each vertex's together and sorted by key, every key in `0..n`.
    pub(crate) fn from_sorted(n: usize, rows: impl IntoIterator<Item = (VertexId, VertexId, T)>) -> Self {
        let rows = rows.into_iter();
        let mut store = KeyedStoreBuilder::new(n, Vec::new());
        store.extend(rows.size_hint().0, rows).unwrap();
        store.finish()
    }
}

impl<V: Values> KeyedStore<V> {
    /// The position in the store of what `u` stores for `key`, if
    /// anything. A `u` or `key` outside `0..n` stores nothing: the range
    /// check comes before any key is masked to the packed width.
    #[inline]
    fn get_index(&self, u: VertexId, key: VertexId) -> Option<usize> {
        if key.index() >= self.ranges.len() {
            return None;
        }
        let [lo, hi] = self.ranges.get(u.index())?.map(|b| b as usize);
        Some(lo + self.keys.slice(lo..hi)?.search(key.0.into())?)
    }

    /// What `u` stores for `key`, if anything. A `u` outside `0..n` stores
    /// nothing.
    #[inline]
    pub(crate) fn get(&self, u: VertexId, key: VertexId) -> Option<V::Value> {
        self.values.value(self.get_index(u, key)?)
    }

    /// How many destinations `u` stores something for; none for a `u`
    /// outside `0..n`.
    pub(crate) fn slot_len(&self, u: VertexId) -> usize {
        self.ranges.get(u.index()).map_or(0, |&[lo, hi]| (hi - lo) as usize)
    }

    /// Heap bytes held, by capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of::<[u32; 2]>() * self.ranges.capacity() + self.keys.heap_bytes() + self.values.heap_bytes()
    }
}

/// The Lemma 7 or Lemma 8 sequence every vertex stores per destination, as
/// one [`KeyedStore`] over one arena: the value of a pair is the end of its
/// entries in `arena`, and they start where the previous pair appended
/// ends. 8 bytes a vertex, a packed key and 4 bytes a pair, and one packed
/// slot an entry: 8, 6 and 3 on graphs of up to 65,535 vertices and
/// degree 255.
#[derive(Debug, Clone)]
pub(crate) struct SeqStore {
    ends: KeyedStore<Vec<u32>>,
    arena: PackedColumn<2>,
}

/// A [`SeqStore`] being filled a batch of rows at a time, each batch's
/// arrays growing by exactly what it holds, so that a build can append
/// each round (Lemma 7) or colour class (Lemma 8) of its sequence chunks
/// and drop them before the next.
#[derive(Debug)]
pub(crate) struct SeqStoreBuilder {
    ends: KeyedStoreBuilder<Vec<u32>>,
    arena: PackedColumn<2>,
}

impl SeqStoreBuilder {
    /// An empty store over vertices `0..n` whose entries `codec` packs.
    pub(crate) fn new(codec: SlotCodec<2>, n: usize) -> Self {
        SeqStoreBuilder { ends: KeyedStoreBuilder::new(n, Vec::new()), arena: PackedColumn::new(codec) }
    }

    /// Appends `(u, key, entries)` rows, each packed by the store's codec,
    /// as [`KeyedStoreBuilder::extend`] takes them: each vertex's rows
    /// together and sorted by key, the vertices in any order. A first pass
    /// counts the rows and their entries, so every array grows once, by
    /// exactly that.
    ///
    /// # Errors
    ///
    /// [`BuildError::BadParameter`] when the entries outnumber what a `u32`
    /// end offset addresses, and what [`KeyedStoreBuilder::extend`]
    /// returns.
    pub(crate) fn extend<'a, I>(&mut self, rows: I) -> Result<(), BuildError>
    where
        I: IntoIterator<Item = (VertexId, VertexId, PackedView<'a, 2>)>,
        I::IntoIter: Clone,
    {
        let rows = rows.into_iter();
        let (pairs, entries) = rows.clone().fold((0, 0), |(p, e), (_, _, s)| (p + 1, e + s.len()));
        let total = self.arena.len() + entries;
        if u32::try_from(total).is_err() {
            return Err(BuildError::BadParameter {
                what: format!("{total} sequence entries exceed a u32 arena offset"),
            });
        }
        self.arena.reserve_exact(entries);
        let arena = &mut self.arena;
        let rows = rows.map(|(u, key, entries)| {
            arena.extend_from(entries);
            (u, key, arena.len() as u32)
        });
        self.ends.extend(pairs, rows)
    }

    /// The store, with no growth slack.
    pub(crate) fn finish(self) -> SeqStore {
        let mut arena = self.arena;
        arena.shrink_to_fit();
        SeqStore { ends: self.ends.finish(), arena }
    }
}

impl SeqStore {
    /// A cursor on the first entry of what `u` stores for `key`, if
    /// anything. A `u` or `key` outside `0..n` stores nothing.
    #[inline]
    pub(crate) fn cursor(&self, u: VertexId, key: VertexId) -> Option<SeqCursor> {
        let i = self.ends.get_index(u, key)?;
        let start = match i.checked_sub(1) {
            Some(prev) => self.ends.values.value(prev)?,
            None => 0,
        };
        let end = self.ends.values.value(i)?;
        Some(SeqCursor { start, len: end.checked_sub(start)?, idx: 0 })
    }

    /// The entry at the cursor's index: the current temporary target of a
    /// header at `at`. A cursor past its row — on the empty sequence, or
    /// one this store did not make — is [`RouteError::MissingInformation`].
    #[inline]
    pub(crate) fn entry(&self, at: VertexId, c: SeqCursor) -> Result<SeqEntry, RouteError> {
        let i = c.start as usize + c.idx as usize;
        let entry = (c.idx < c.len).then(|| self.arena.get(i)).flatten();
        entry.map(decode_entry).ok_or_else(|| RouteError::MissingInformation {
            at,
            what: format!("the header's sequence cursor {c:?} is off its row"),
        })
    }

    /// Every `(key, sequence)` row `u` stores, in key order; none for a `u`
    /// outside `0..n`.
    pub(crate) fn rows_at(&self, u: VertexId) -> impl Iterator<Item = (VertexId, PackedView<'_, 2>)> + '_ {
        let [lo, hi] = self.ends.ranges.get(u.index()).map_or([0, 0], |r| r.map(|b| b as usize));
        let end = |i: usize| i.checked_sub(1).and_then(|i| self.ends.values.value(i)).map_or(0, |e| e as usize);
        (lo..hi).filter_map(move |i| {
            let [key] = self.ends.keys.get::<u32>(i)?;
            Some((VertexId(key), self.arena.slice(end(i)..end(i + 1))?))
        })
    }

    /// `(pairs, entries)` stored.
    pub(crate) fn counts(&self) -> (usize, usize) {
        (self.ends.values.len(), self.arena.len())
    }

    /// `(pairs, entries)` stored at `u`; none for a `u` outside `0..n`.
    pub(crate) fn counts_at(&self, u: VertexId) -> (usize, usize) {
        let Some([lo, hi]) = self.ends.ranges.get(u.index()).map(|r| r.map(|b| b as usize)) else {
            return (0, 0);
        };
        let end = |i: usize| i.checked_sub(1).and_then(|i| self.ends.values.value(i)).map_or(0, |e| e as usize);
        (hi - lo, end(hi) - end(lo))
    }

    /// Heap bytes held, by capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.ends.heap_bytes() + self.arena.heap_bytes()
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
        (c.start..c.start + c.len).map(|i| decode_entry(self.arena.get(i as usize).unwrap())).collect()
    }

    /// Every entry `u` stores for `key`, decoded, if it stores any.
    pub(crate) fn decoded(&self, u: VertexId, key: VertexId) -> Option<Vec<SeqEntry>> {
        self.cursor(u, key).map(|c| self.decode_row(c))
    }

    /// `(pairs, entries)` stored, after checking that every array's
    /// capacity is its length, the keys' and the arena's their records and
    /// pads.
    pub(crate) fn tight_sizes(&self) -> (usize, usize) {
        let KeyedStore { ranges, keys, values } = &self.ends;
        assert_eq!(ranges.capacity(), ranges.len(), "ranges");
        assert_eq!(values.capacity(), values.len(), "ends");
        assert_eq!(keys.len(), values.len(), "a key a pair");
        for (column, width, what) in [(keys.heap_bytes(), keys.codec().width() * keys.len(), "keys"), (self.arena.heap_bytes(), self.arena.codec().width() * self.arena.len(), "arena")] {
            assert_eq!(column, width + routing_graph::SLOT_PAD, "{what}");
        }
        self.counts()
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
    /// included, from a chunk row and from the store's arena alike.
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
        assert_eq!(chunk.entries.len(), entries.len());
        let rows: Vec<PackedView<'_, 2>> = chunk.sequences().collect();
        let row: Vec<SeqEntry> = (0..=rows[0].len()).map_while(|i| rows[0].get(i).map(decode_entry)).collect();
        assert_eq!(row, entries);
        let store = SeqStore::from_sorted(codec, 300, [(VertexId(1), v, rows[0])]).unwrap();
        assert_eq!(store.decoded(VertexId(1), v), Some(entries.to_vec()));
    }

    #[test]
    fn keyed_store_finds_exactly_the_stored_pairs() {
        let v = VertexId;
        let store =
            KeyedStore::from_sorted(4, [(v(0), v(2), 'a'), (v(0), v(3), 'b'), (v(2), v(0), 'c')]);
        assert_eq!(store.get(v(0), v(2)), Some('a'));
        assert_eq!(store.get(v(0), v(3)), Some('b'));
        assert_eq!(store.get(v(2), v(0)), Some('c'));
        assert_eq!(store.get(v(0), v(1)), None);
        assert_eq!(store.get(v(1), v(2)), None, "empty slot");
        assert_eq!(store.get(v(3), v(0)), None, "last vertex, empty slot");
        assert_eq!(store.get(v(4), v(0)), None, "a vertex of another instance");
        assert_eq!([0, 1, 2, 3].map(|u| store.slot_len(v(u))), [2, 0, 1, 0]);
        // 1-byte keys and their pad, 4-byte chars.
        assert_eq!(store.heap_bytes(), 8 * 4 + (3 + SLOT_PAD) + 4 * 3);
    }

    /// The slots may be filled in any vertex order, each vertex's rows
    /// together and key-sorted; a vertex whose rows are split by another's,
    /// a key repeated or out of order, and a vertex or key outside `0..n`
    /// are [`BuildError::Inconsistent`], across batches too.
    #[test]
    fn keyed_store_takes_vertices_in_any_order_but_refuses_a_split_vertex() {
        let v = VertexId;
        let mut store = KeyedStoreBuilder::new(4, Vec::new());
        store.extend(2, [(v(2), v(0), 'a'), (v(2), v(3), 'b')].into_iter()).unwrap();
        store.extend(2, [(v(0), v(1), 'c'), (v(3), v(2), 'd')].into_iter()).unwrap();
        let store = store.finish();
        for (u, key, value) in [(2, 0, 'a'), (2, 3, 'b'), (0, 1, 'c'), (3, 2, 'd')] {
            assert_eq!(store.get(v(u), v(key)), Some(value), "({u}, {key})");
        }
        assert_eq!(store.get(v(2), v(1)), None);
        assert_eq!([0, 1, 2, 3].map(|u| store.slot_len(v(u))), [1, 0, 2, 1]);
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
            let mut store = KeyedStoreBuilder::new(4, Vec::new());
            // Every row but the last in one batch, the last in another.
            let (last, first) = rows.split_last().unwrap();
            let batch = |rows: &[(u32, u32)]| rows.iter().map(|&(u, key)| (v(u), v(key), ())).collect::<Vec<_>>();
            store.extend(0, batch(first).into_iter()).unwrap();
            let err = store.extend(0, batch(&[*last]).into_iter()).unwrap_err();
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
    /// arena all miss, without panicking and without matching: the range
    /// checks come before any key is masked, and a cursor is checked against
    /// this store's arena, not its pad.
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
        // small store's arena.
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
                assert_eq!(store.ends.get(u, hostile), None, "({u}, {hostile})");
                assert_eq!(store.cursor(hostile, key), None, "({hostile}, {key})");
                assert_eq!(store.ends.get(hostile, key), None, "({hostile}, {key})");
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
        assert_eq!(chunk.entries.len(), 0, "nothing was appended");
    }
}
