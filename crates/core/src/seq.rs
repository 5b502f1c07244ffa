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
//! and keep what a vertex stores per destination in the same flat table
//! (`KeyedStore`).

use serde::{Deserialize, Serialize};

use routing_graph::{Graph, Port, VertexId};
use routing_model::{Decision, RouteError};
use routing_vicinity::{BallPorts, BallTable};

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

/// One round of the walk Lemmas 7 and 8 share, from `xi = path[pos]` along
/// a shortest path that ends at the destination. Returns the position of
/// `zi`, the first path vertex outside `B(xi, q̃)`, for the caller to choose
/// between stopping early and [`push_hops`] — unless the destination is
/// inside `B(xi, q̃)` or is `zi` itself: then the closing entries are
/// appended and `None` is returned.
pub(crate) fn walk_round(
    g: &Graph,
    balls: &BallTable,
    path: &[VertexId],
    pos: usize,
    entries: &mut Vec<SeqEntry>,
) -> Option<usize> {
    let (xi, dest) = (path[pos], path[path.len() - 1]);
    if balls.contains(xi, dest) {
        entries.push(SeqEntry::ball(dest));
        return None;
    }
    // `zi` exists: the destination is outside B(xi, q̃).
    let mut next = pos + 1;
    while balls.contains(xi, path[next]) {
        next += 1;
    }
    if path[next] == dest {
        push_hops(g, path, pos, next, entries);
        return None;
    }
    Some(next)
}

/// Appends the hops of the round from `path[pos]` to `zi = path[next]` — a
/// ball hop to `zi`'s predecessor `yi` unless the round starts there, then
/// the edge `(yi, zi)` — and returns how many entries that took.
pub(crate) fn push_hops(
    g: &Graph,
    path: &[VertexId],
    pos: usize,
    next: usize,
    entries: &mut Vec<SeqEntry>,
) -> usize {
    let (yi, zi) = (path[next - 1], path[next]);
    let before = entries.len();
    if yi != path[pos] {
        entries.push(SeqEntry::ball(yi));
    }
    let port = g.port_to(yi, zi).expect("consecutive path vertices are adjacent");
    entries.push(SeqEntry::edge(zi, port));
    entries.len() - before
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
        let mut offsets = vec![0usize; n + 1];
        let mut keys = Vec::with_capacity(rows.size_hint().0);
        let mut values = Vec::with_capacity(rows.size_hint().0);
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

    /// What `u` stores for `key`, if anything. A `u` outside `0..n` stores
    /// nothing.
    #[inline]
    pub(crate) fn get(&self, u: VertexId, key: VertexId) -> Option<&T> {
        let lo = *self.offsets.get(u.index())?;
        let hi = *self.offsets.get(u.index() + 1)?;
        self.keys[lo..hi].binary_search(&key).ok().map(|i| &self.values[lo + i])
    }

    /// How many destinations `u` stores something for.
    pub(crate) fn slot_len(&self, u: VertexId) -> usize {
        self.offsets[u.index() + 1] - self.offsets[u.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }
}
