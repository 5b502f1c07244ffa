//! Vertex vicinities `B(u, ℓ)` and the Lemma 2 ball table.
//!
//! Every vertex stores, for each of its `ℓ` closest vertices `v`, the first
//! edge (as a port) of a shortest path towards `v`. Property 1 (if
//! `v ∈ B(u, ℓ)` and `w` lies on a shortest `u`–`v` path then `v ∈ B(w, ℓ)`)
//! guarantees that greedily following these first edges delivers the message
//! on a shortest path — this is Lemma 2 of the paper and the building block
//! of both new routing techniques.
//!
//! # Memory layout
//!
//! The table is stored **flat**: all `n` balls share a few arrays, instead
//! of one `Ball` object plus one `HashMap` per vertex, and it is split by
//! who reads it.
//!
//! * [`BallPorts`] is what Lemma 2 *forwarding* reads, and all that every
//!   built scheme retains of its vicinities, in one of two encodings of
//!   the same map from member to port ([`BallEncoding`]):
//!   - **hashed**: per vertex one static open-addressing region of
//!     `[member, port]` slots at load ≤ 3/4, its members placed in
//!     ascending hash order, so [`BallPorts::contains`] and
//!     [`BallPorts::first_port`] are one probe of about two adjacent slots,
//!     for members and non-members alike (see `docs/ARCHITECTURE.md`,
//!     "Ball slot table"). A slot is packed at the graph's width: the id in
//!     the fewest bytes that hold `n`, the port in the fewest that hold the
//!     largest degree. That is 3 bytes on graphs of up to 65,535 vertices
//!     and degree 255, about 4 bytes a member and 16 a vertex;
//!   - **rank bitmap**: per vertex `⌈n/64⌉` blocks of 64 membership bits,
//!     each with the count of members before it at the id width, and then
//!     `min(ℓ, n)` ports at the port width, the members' in id order. A
//!     lookup is one bit test, and for a member one popcount and one port
//!     read: `n/8` bytes and `⌈n/64⌉` counts a vertex, and a port a member.
//!
//!   The build takes whichever has fewer bytes, computed from `n`, `ℓ` and
//!   the widths before any search runs ([`BallEncoding::for_balls`]), and
//!   packs the ports straight into it. At 2-byte ids and 1-byte ports that
//!   is the bitmap once `ℓ` passes about `n/20`: Theorems 13 and 15 and the
//!   warmup on `t1-er-direct`, not the `t2` or serve graphs. No option
//!   chooses it.
//!   Theorem 16 keeps, beside it, the distances to the members in its first
//!   hierarchy level: [`BallPorts::build_visiting`] hands it every ball's
//!   members and distances, a round of balls at a time, while it builds the
//!   ports, so no [`BallTable`] exists.
//! * [`BallTable`] is [`BallPorts`] plus what only *preprocessing* reads:
//!   every ball's member ids in `(distance, id)` settle order
//!   ([`BallView::ids`]), a row of a [`PackedRows`] a ball, and — only when
//!   the builder asks for them — the members' distances, parallel to the ids
//!   ([`BallView::dists`]). Both are packed at the graph's width, like the
//!   slots: an id in the bytes `n` needs, a distance in the bytes that
//!   `n − 1` heaviest edges need (on a unit-weight graph of up to 65,535
//!   vertices, 2 and 2). Of the schemes, only Theorem 10's representative
//!   distances and intersections and Theorem 16's landmark lists read a
//!   distance; every other build skips them ([`BallDists::Skip`]). Readers
//!   take a ball's ids and distances in place, as [`MemberIds`] and
//!   [`MemberDists`] views that decode as they go; no reader copies a
//!   ball. There is no per-slot rank: a member's rank is its position in
//!   [`BallView::ids`], and the colouring, hitting-set and sequence
//!   builders read the id prefixes in place ([`BallTable::id_prefixes`],
//!   through [`VertexSet`]). It dereferences to its ports, and
//!   [`BallTable::into_ports`] drops the rest once the last build-time
//!   reader has run.
//!
//! Building runs on a per-worker reusable [`SearchBatch`], which picks the
//! kernel: on a unit-weight graph one budgeted bit-parallel BFS per 64
//! consecutive centres, each lane retiring once it holds `ℓ` vertices,
//! otherwise one *bounded* Dijkstra per centre, which stops after `ℓ`
//! settled vertices. Every lane's ball feeds one fill routine, which packs
//! its ports in the table's encoding, and the results are appended to the
//! final arrays a round of consecutive centres at a time
//! ([`routing_par::by_rounds`]), so the build never holds a second copy of
//! more than one round. [`BallPorts::build_visiting`] shows each round's
//! members to its caller as it is appended and keeps none of them.

use std::convert::Infallible;
use std::ops::{Deref, Range};

use routing_graph::codec::bytes_for;
use routing_graph::{Graph, PackedColumn, PackedRows, PackedView, Port, SearchBatch, SlotCodec, VertexId, Weight, SLOT_PAD};

/// Sentinel port stored for the ball's center (which has no first hop).
const NO_PORT: Port = Port(u32::MAX);

/// One slot of a vertex's open-addressing region, decoded: `[member id,
/// port]`.
type Slot = [u32; 2];

/// Key of an unoccupied slot. `find` rejects ids outside `0..n` before
/// probing, so a foreign `VertexId(u32::MAX)` cannot match it.
const EMPTY_KEY: u32 = u32::MAX;
/// An unoccupied slot.
const EMPTY: Slot = [EMPTY_KEY, EMPTY_KEY];

/// The rounds [`BallTable::build`] appends its balls in, so the search
/// results live beside the table are a sixteenth of it plus at most 63 balls.
const BUILD_ROUNDS: usize = 16;

/// The slot hash: a fixed bijection on `u32` (odd multiplier), so equal
/// hashes mean equal ids and hash order is a total order on members.
#[inline]
fn slot_hash(id: u32) -> u32 {
    id.wrapping_mul(0x9E37_79B1)
}

/// Slots a ball of `members` members is hashed onto: load ≤ 3/4.
#[inline]
fn slot_cap(members: usize) -> usize {
    (4 * members).div_ceil(3)
}

/// Home slot of hash `h` among `cap` slots: the hash scaled onto `0..cap`,
/// monotone in `h`.
#[inline]
fn home_slot(h: u32, cap: usize) -> usize {
    ((u64::from(h) * cap as u64) >> 32) as usize
}

/// What a lookup reads of a vertex before the slots themselves, in one
/// 16-byte entry: where its open-addressing region starts in the slot array
/// and how many members are hashed onto it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Region {
    /// Offset into the slot array.
    start: usize,
    /// At most `n`, so it fits the width of a vertex id.
    members: u32,
}

/// How a [`BallPorts`] stores its map from member to port. A build takes
/// the encoding of fewer bytes ([`BallEncoding::for_balls`]), decided from
/// `n`, `ℓ` and the graph's widths before any search runs; both answer
/// every query alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BallEncoding {
    /// Per vertex one open-addressing region of `[member, port]` slots at
    /// load ≤ 3/4: about `4/3` of a slot a member, and a 16-byte region
    /// entry a vertex.
    Hashed,
    /// Per vertex a rank bitmap over `0..n` — `⌈n/64⌉` blocks of 64
    /// membership bits, each with the count of members before it at the id
    /// width — and then `min(ℓ, n)` ports, the members' in id order: `n/8`
    /// bytes and `⌈n/64⌉` counts a vertex, and a port a member.
    Bitmap,
}

impl BallEncoding {
    /// Bytes a table of the balls `B(u, ℓ)` of `n` vertices takes in this
    /// encoding when every ball holds `min(ℓ, n)` members, `codec` the
    /// `[id, port]` widths of the graph ([`SlotCodec::for_graph`]). Exact
    /// for a bitmap; a lower bound for a hashed table, whose runs may spill
    /// past a region's `⌈4ℓ/3⌉` slots.
    pub fn bytes(self, n: usize, ell: usize, codec: SlotCodec<2>) -> usize {
        let stride = ell.max(1).min(n);
        let [id, port] = codec.bytes().map(usize::from);
        match self {
            BallEncoding::Hashed => {
                std::mem::size_of::<Region>() * (n + 1) + codec.width() * n * slot_cap(stride) + SLOT_PAD
            }
            BallEncoding::Bitmap => {
                let blocks = n * n.div_ceil(64);
                std::mem::size_of::<RankBitmap>() + (8 + id) * blocks + port * n * stride + 2 * SLOT_PAD
            }
        }
    }

    /// The encoding of fewer [`bytes`](Self::bytes), the hashed one on a
    /// tie: a rank bitmap once balls hold more than about a twentieth of
    /// the graph.
    pub fn for_balls(n: usize, ell: usize, codec: SlotCodec<2>) -> Self {
        let bitmap = BallEncoding::Bitmap.bytes(n, ell, codec);
        if bitmap < BallEncoding::Hashed.bytes(n, ell, codec) {
            BallEncoding::Bitmap
        } else {
            BallEncoding::Hashed
        }
    }
}

#[cfg(test)]
thread_local! {
    /// The encoding ball builds on this thread take whatever its bytes, so
    /// that tests can pin the two encodings to each other.
    static FORCED: std::cell::Cell<Option<BallEncoding>> = const { std::cell::Cell::new(None) };
}

/// The rank of member `v` among the members of a bitmap in id order, where
/// `block` holds `v`'s bit in `bits` and the count of members before it in
/// `ranks`: one bit test, one popcount. `None` if `v` is not a member.
#[inline(always)]
fn member_rank(bits: &[u64], ranks: &PackedColumn<1>, block: usize, v: u32) -> Option<usize> {
    let word = *bits.get(block)?;
    let below = (1u64 << (v % 64)) - 1;
    if word >> (v % 64) & 1 == 0 {
        return None;
    }
    let [before] = ranks.get::<u32>(block)?;
    Some(before as usize + (word & below).count_ones() as usize)
}

/// The map from member to port of a [`BallPorts`], in its encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PortMap {
    /// [`BallEncoding::Hashed`].
    Hashed {
        /// One entry per vertex, and a closing one of no members that
        /// starts where the slots end: the region of `u` is
        /// `regions[u].start..regions[u + 1].start`.
        regions: Vec<Region>,
        /// Per vertex: its members in ascending [`slot_hash`] order, each
        /// at `max(home, previous + 1)`, never wrapping; the region's last
        /// slot is always empty ([`EMPTY_KEY`]).
        slots: PackedColumn<2>,
    },
    /// [`BallEncoding::Bitmap`], boxed so that a hashed table stays the
    /// size of its two arrays.
    Bitmap(Box<RankBitmap>),
}

/// The rank-bitmap encoding of a [`BallPorts`]: the balls of a table's
/// vertices in order, one after another, each its membership bits over
/// `0..n`, their counts and its ports. A build packs each ball into one of
/// these and appends it to the table's, so a table of `n` vertices holds
/// `n` balls and a ball in the making one. Its fields are private: it is
/// public so that a build's memory can be accounted by its size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankBitmap {
    /// Balls held: `n` in a table's bitmap.
    balls: usize,
    /// `⌈n/64⌉`: the blocks of the `u`-th ball are `u·blocks..(u + 1)·blocks`.
    blocks: usize,
    /// `min(ℓ, n)`: the ports of the `u`-th ball start at `u·stride`.
    stride: usize,
    /// Per ball and block, bit `v mod 64` of block `⌊v/64⌋` is set iff `v`
    /// is a member.
    bits: Vec<u64>,
    /// Parallel to `bits`: the members in the ball's earlier blocks, at the
    /// id width.
    ranks: PackedColumn<1>,
    /// Per ball `stride` ports at the port width, its members' in id order
    /// ([`NO_PORT`] for the centre), then zeros where the ball is shorter
    /// than `ℓ`.
    ports: PackedColumn<1>,
}

impl RankBitmap {
    /// The port stored for member `v` of the `u`-th ball, for `u` below
    /// `balls` and `v` in `0..n`.
    #[inline(always)]
    fn find(&self, u: usize, v: u32) -> Option<u32> {
        let rank = member_rank(&self.bits, &self.ranks, u * self.blocks + v as usize / 64, v)?;
        self.ports.get::<u32>(u * self.stride + rank).map(|[port]| port)
    }

    /// Members of the `u`-th ball: the last block's count and bits.
    fn members(&self, u: usize) -> usize {
        let last = (u + 1) * self.blocks - 1;
        let before = self.ranks.get::<u32>(last).map_or(0, |[c]| c as usize);
        before + self.bits.get(last).map_or(0, |w| w.count_ones() as usize)
    }

    /// Appends the balls of `other`, a bitmap of the same widths.
    fn append(&mut self, other: &RankBitmap) {
        self.balls += other.balls;
        self.bits.extend_from_slice(&other.bits);
        self.ranks.extend_from(other.ranks.view());
        self.ports.extend_from(other.ports.view());
    }
}

/// What Lemma 2 forwarding reads of the balls `B(u, ℓ)`: for every vertex
/// `u` and member `v`, the port at `u` on a shortest path towards `v`. This
/// is the part of a [`BallTable`] a scheme keeps for routing, in the
/// [`BallEncoding`] of fewer bytes: hashed `[member, port]` slots, or a
/// rank bitmap and the ports in id order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BallPorts {
    ell: usize,
    map: PortMap,
}

impl BallPorts {
    /// The ball size parameter `ℓ` the table was built with.
    pub fn ell(&self) -> usize {
        self.ell
    }

    /// How the table stores its ports.
    pub fn encoding(&self) -> BallEncoding {
        match self.map {
            PortMap::Hashed { .. } => BallEncoding::Hashed,
            PortMap::Bitmap(_) => BallEncoding::Bitmap,
        }
    }

    /// The port stored for `v` in the ball of `u` (`u32::MAX` for the
    /// centre), or `None` when `v ∉ B(u, ℓ)` or either id is outside
    /// `0..n`. Inlined into both lookups: it is the probe every hop runs.
    ///
    /// Hashed, it scans forward from `v`'s home slot; the ordered placement
    /// means an empty slot or a resident with a larger hash proves absence,
    /// so a miss stops as early as a hit. As a bitmap, it is one bit test,
    /// and for a member one popcount and one port read.
    #[inline(always)]
    fn find(&self, u: VertexId, v: VertexId) -> Option<u32> {
        if u.index().max(v.index()) >= self.len() {
            return None;
        }
        match &self.map {
            PortMap::Hashed { regions, slots } => {
                let region = regions.get(u.index())?;
                let h = slot_hash(v.0);
                let mut at = region.start + home_slot(h, slot_cap(region.members as usize));
                while let Some([id, port]) = slots.get::<u32>(at) {
                    if id == v.0 {
                        return Some(port);
                    }
                    if id == EMPTY_KEY || slot_hash(id) > h {
                        return None;
                    }
                    at += 1;
                }
                None
            }
            PortMap::Bitmap(bitmap) => bitmap.find(u.index(), v.0),
        }
    }

    /// Returns true if `v ∈ B(u, ℓ)`.
    pub fn contains(&self, u: VertexId, v: VertexId) -> bool {
        self.find(u, v).is_some()
    }

    /// The port at `u` on a shortest path towards ball member `v`.
    pub fn first_port(&self, u: VertexId, v: VertexId) -> Option<Port> {
        let port = Port(self.find(u, v)?);
        (port != NO_PORT).then_some(port)
    }

    /// The open-addressing region of `u` in a hashed table, decoded:
    /// `[member id, port]` slots, `u32::MAX` for the empty key and the
    /// centre's port; empty for a bitmap. Queries go through
    /// [`BallPorts::contains`] and friends; this view exists so tests can
    /// hold the layout invariants.
    pub fn slot_region(&self, u: VertexId) -> Vec<[u32; 2]> {
        match &self.map {
            PortMap::Hashed { regions, slots } => match regions.get(u.index()..u.index() + 2) {
                Some([region, next]) => (region.start..next.start).filter_map(|i| slots.get(i)).collect(),
                _ => Vec::new(),
            },
            PortMap::Bitmap(_) => Vec::new(),
        }
    }

    /// Bytes of a hashed table's `[id, port]` slot, at the widths the
    /// table's graph needs; `None` for a bitmap, which stores no slot.
    pub fn slot_bytes(&self) -> Option<usize> {
        match &self.map {
            PortMap::Hashed { slots, .. } => Some(slots.codec().width()),
            PortMap::Bitmap(_) => None,
        }
    }

    /// Members of `B(u, ℓ)`, the centre included; 0 for a `u` outside
    /// `0..n`.
    fn members(&self, u: VertexId) -> usize {
        match &self.map {
            PortMap::Hashed { regions, .. } => regions.get(u.index()).map_or(0, |r| r.members as usize),
            PortMap::Bitmap(bitmap) if u.index() < bitmap.balls => bitmap.members(u.index()),
            PortMap::Bitmap(_) => 0,
        }
    }

    /// The space Lemma 2 charges to `u`, in `O(log n)`-bit words: one id, one
    /// distance and one port word per ball member other than `u` itself.
    pub fn words_at(&self, u: VertexId) -> usize {
        3 * self.members(u).saturating_sub(1)
    }

    /// Number of vertices covered by the table.
    pub fn len(&self) -> usize {
        match &self.map {
            PortMap::Hashed { regions, .. } => regions.len() - 1,
            PortMap::Bitmap(bitmap) => bitmap.balls,
        }
    }

    /// True if the table covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of heap the table holds, by capacity: its arrays and, for a
    /// bitmap, the box they sit in.
    pub fn heap_bytes(&self) -> usize {
        match &self.map {
            PortMap::Hashed { regions, slots } => {
                std::mem::size_of::<Region>() * regions.capacity() + slots.heap_bytes()
            }
            PortMap::Bitmap(bitmap) => {
                std::mem::size_of::<RankBitmap>()
                    + std::mem::size_of::<u64>() * bitmap.bits.capacity()
                    + bitmap.ranks.heap_bytes()
                    + bitmap.ports.heap_bytes()
            }
        }
    }
}

/// Whether a [`BallTable`] stores its members' distances, packed beside the
/// ids for as long as the table lives. A builder asks for them only when it
/// reads them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BallDists {
    /// Store them: [`BallView::dists`] answers.
    Keep,
    /// Store none: [`BallView::dists`] is `None` for every ball.
    Skip,
}

/// The balls `B(u, ℓ)` of every vertex in flat form: the routing
/// information of Lemma 2 ([`BallPorts`], which the table dereferences to)
/// beside the member ids and (if asked for) distances preprocessing reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BallTable {
    ports: BallPorts,
    /// Row `u` is `u`'s member ids in `(distance, id)` settle order (center
    /// first), at the id width of `0..n`.
    ids: PackedRows<1>,
    /// Parallel to the ids, indexed like their [`PackedRows::column`]: the
    /// distance from the ball's center, in the bytes `n − 1` heaviest edges
    /// need, or `None` for a table built with [`BallDists::Skip`].
    dists: Option<PackedColumn<1>>,
}

impl Deref for BallTable {
    type Target = BallPorts;

    fn deref(&self) -> &BallPorts {
        &self.ports
    }
}

impl BallTable {
    /// Computes `B(u, ℓ)` for every vertex `u` of `g`, together with the
    /// first-hop ports Lemma 2 stores, and every member's distance. The
    /// searches are [`SearchBatch::run_balls`] runs of consecutive centres,
    /// fanned out over [`routing_par::threads`] threads. The final arrays
    /// are reserved up front and filled sixteen rounds of centres at a time
    /// ([`routing_par::by_rounds`]), in index order: at most one round of
    /// per-vertex results is live beside them, a round that outgrows the
    /// slot reservation grows it by exactly its own slots, and the table is
    /// identical for every kernel and thread count.
    pub fn build(g: &Graph, ell: usize) -> Self {
        Self::build_with_dists(g, ell, BallDists::Keep)
    }

    /// [`BallTable::build`], storing the members' distances only when
    /// `dists` is [`BallDists::Keep`]. Everything else — ports, ids, row
    /// ends — is the same either way.
    pub fn build_with_dists(g: &Graph, ell: usize, dists: BallDists) -> Self {
        Self::build_with(g, ell, SearchBatch::for_graph, dists)
    }

    /// [`BallTable::build_with_dists`] on the searches `search` makes (the
    /// tests pin the batch-built table to the one [`SearchBatch::scalar`]
    /// builds with it).
    fn build_with(g: &Graph, ell: usize, search: fn(&Graph) -> SearchBatch, keep: BallDists) -> Self {
        let n = g.n();
        let ball_len = ell.max(1).min(n);
        let codecs = MemberCodecs::new(g, ell, keep);
        let mut ids = PackedRows::with_capacity(codecs.id, n, n * ball_len);
        let mut dists = codecs.dist.map(|codec| PackedColumn::with_capacity(codec, n * ball_len));
        let ports = build_ports(g, ell, search, codecs, |ball| {
            ids.extend_from(ball.ids.view());
            if let (Some(dists), Some(ball_dists)) = (&mut dists, &ball.dists) {
                dists.extend_from(ball_dists.view());
            }
            // The ids column holds fewer than 2³² records, so its ends fit.
            let closed = ids.close_row();
            assert!(closed.is_ok(), "{closed:?}");
        });
        // The reservations are upper estimates (a component smaller than ℓ):
        // return the slack.
        ids.shrink_to_fit();
        if let Some(dists) = &mut dists {
            dists.shrink_to_fit();
        }
        BallTable { ports, ids, dists }
    }

    /// Drops the member ids and distances: what is left is all that
    /// Lemma 2 forwarding reads.
    pub fn into_ports(self) -> BallPorts {
        self.ports
    }

    /// A borrowed view of the ball of `u`.
    pub fn ball(&self, u: VertexId) -> BallView<'_> {
        BallView { table: self, u }
    }

    /// The `len` closest member ids of every ball, viewed in the table in
    /// settle order: the sets the Lemma 5 hitting set and the Lemma 6
    /// colouring read, at 16 bytes a vertex.
    pub fn id_prefixes(&self, len: usize) -> Vec<MemberIds<'_>> {
        (0..self.len()).map(|u| self.ball(VertexId(u as u32)).ids().prefix(len)).collect()
    }

    /// The range of `u`'s members in the member arrays; empty for a `u`
    /// outside `0..n`.
    #[inline]
    fn member_range(&self, u: VertexId) -> Range<usize> {
        self.ids.range(u.index()).unwrap_or(0..0)
    }

    /// Bytes of heap the arrays hold, by capacity, the ports included.
    pub fn heap_bytes(&self) -> usize {
        self.ports.heap_bytes() + self.ids.heap_bytes() + self.dists.as_ref().map_or(0, PackedColumn::heap_bytes)
    }
}

/// How a ball build packs its members: ids at the id width of `0..n`, and
/// distances — when kept — in the bytes `n − 1` heaviest edges need, since
/// no ball's distances are known before its search; and how it stores their
/// ports, in the encoding of fewer bytes.
#[derive(Debug, Clone, Copy)]
struct MemberCodecs {
    slot: SlotCodec<2>,
    id: SlotCodec<1>,
    dist: Option<SlotCodec<1>>,
    encoding: BallEncoding,
    /// A bitmap's blocks a vertex, `⌈n/64⌉`.
    blocks: usize,
    /// A bitmap's ports a vertex, `min(ℓ, n)`.
    stride: usize,
}

impl MemberCodecs {
    fn new(g: &Graph, ell: usize, keep: BallDists) -> Self {
        let n = g.n();
        let dist = SlotCodec::new([bytes_for(g.distance_bound().saturating_add(1))]);
        let slot = SlotCodec::for_graph(g);
        let encoding = BallEncoding::for_balls(n, ell, slot);
        #[cfg(test)]
        let encoding = FORCED.get().unwrap_or(encoding);
        MemberCodecs {
            slot,
            id: SlotCodec::for_ids(n),
            dist: (keep == BallDists::Keep).then_some(dist),
            encoding,
            blocks: n.div_ceil(64),
            stride: ell.max(1).min(n),
        }
    }

    /// A bitmap's per-block member counts: at the id width.
    fn rank(self) -> SlotCodec<1> {
        SlotCodec::new([self.slot.bytes()[0]])
    }

    /// A bitmap's ports: at the port width.
    fn port(self) -> SlotCodec<1> {
        SlotCodec::new([self.slot.bytes()[1]])
    }
}

/// The ports of every ball `B(u, ℓ)` of `g`, found by the searches
/// `search` makes and packed straight into the encoding `codecs` names:
/// `take` sees each ball, its members packed by `codecs` (with their
/// distances if it has a distance codec), centre by centre in order, before
/// its round is dropped. The final arrays are reserved up front — a
/// bitmap's exactly; a round that outgrows the slot reservation of a hashed
/// table grows it by exactly its own slots. Span `balls`.
fn build_ports(
    g: &Graph,
    ell: usize,
    search: fn(&Graph) -> SearchBatch,
    codecs: MemberCodecs,
    mut take: impl FnMut(BuiltBall<()>),
) -> BallPorts {
    let _span = routing_obs::span("balls");
    let n = g.n();
    let map = match codecs.encoding {
        BallEncoding::Hashed => {
            let mut regions = Vec::with_capacity(n + 1);
            let mut slots = PackedColumn::with_capacity(codecs.slot, n * (slot_cap(codecs.stride) + 2));
            let hash = |region: &mut Vec<Slot>, members: &[Slot]| hash_region(region, members, codecs.slot);
            build_rounds(g, ell, search, codecs, hash, |round| {
                // The up-front reservation is `cap + 2` slots a ball, but a
                // run can pass a region's `cap` by more: grow by exactly
                // what this round needs rather than let `extend` double the
                // array.
                slots.reserve_exact(round.iter().flatten().map(|b| b.ports.len()).sum());
                for ball in round.into_iter().flatten() {
                    // A ball has at most `n` members, and ids are `u32`.
                    regions.push(Region { start: slots.len(), members: ball.ids.len() as u32 });
                    slots.extend_from(ball.ports.view());
                    take(ball.without_ports());
                }
            });
            regions.push(Region { start: slots.len(), members: 0 });
            // The slot reservation is an upper estimate (regions that
            // needed no overflow slot): return the slack.
            slots.shrink_to_fit();
            PortMap::Hashed { regions, slots }
        }
        BallEncoding::Bitmap => {
            let mut bitmap = RankBitmap {
                balls: 0,
                blocks: codecs.blocks,
                stride: codecs.stride,
                bits: Vec::with_capacity(n * codecs.blocks),
                ranks: PackedColumn::with_capacity(codecs.rank(), n * codecs.blocks),
                ports: PackedColumn::with_capacity(codecs.port(), n * codecs.stride),
            };
            build_rounds(g, ell, search, codecs, |_, members| rank_bitmap(members, codecs), |round| {
                for ball in round.into_iter().flatten() {
                    bitmap.append(&ball.ports);
                    take(ball.without_ports());
                }
            });
            PortMap::Bitmap(Box::new(bitmap))
        }
    };
    BallPorts { ell, map }
}

/// The searches of [`build_ports`]: `encode` packs each ball's `[member,
/// port]` slots, in settle order, into its ports (with a scratch region),
/// and `append` takes each round's balls in centre order, a list a run.
fn build_rounds<P: Send>(
    g: &Graph,
    ell: usize,
    search: fn(&Graph) -> SearchBatch,
    codecs: MemberCodecs,
    encode: impl Fn(&mut Vec<Slot>, &[Slot]) -> P + Sync,
    mut append: impl FnMut(Vec<Vec<BuiltBall<P>>>),
) {
    let plan = search(g).rounds(g.n(), BUILD_ROUNDS);
    let scratch = || (search(g), FillScratch::default());
    let run = |(search, fill): &mut (SearchBatch, FillScratch), centres: Range<usize>| {
        let lanes = centres.len();
        // The plan hands a run at most its width of centres, all in `g`.
        let run = search.run_balls(g, centres.map(|u| VertexId(u as u32)), ell);
        assert!(run.is_ok(), "a ball search refused its centres: {run:?}");
        Ok((0..lanes).map(|i| fill_ball(fill, search.ball(g, i), codecs, &encode)).collect())
    };
    let Ok(()) = routing_par::by_rounds(plan, scratch, run, |_, balls| {
        append(balls);
        Ok::<_, Infallible>(())
    });
}

impl BallPorts {
    /// The ports [`BallTable::build`] keeps, and no member-id or distance
    /// array of the whole table: `visit(ids, dists)` sees every ball's
    /// members in settle order and their distances from the centre, packed
    /// as a [`BallTable`] packs them, centre by centre in order, while the
    /// round of searches that found them is still live. Theorem 16 takes
    /// its landmark distances this way. The ports are those of
    /// [`BallTable::build`] for every thread count.
    pub fn build_visiting(g: &Graph, ell: usize, mut visit: impl FnMut(MemberIds<'_>, MemberDists<'_>)) -> Self {
        let codecs = MemberCodecs::new(g, ell, BallDists::Keep);
        build_ports(g, ell, SearchBatch::for_graph, codecs, |ball| {
            if let Some(dists) = &ball.dists {
                visit(MemberIds(ball.ids.view()), MemberDists(dists.view()));
            }
        })
    }
}

/// One ball as [`build_ports`] appends it, its members packed as the table
/// packs them, and its ports `P` in the table's encoding.
struct BuiltBall<P> {
    /// The member ids in settle order.
    ids: PackedColumn<1>,
    /// Their distances from the centre; `None` when none are kept.
    dists: Option<PackedColumn<1>>,
    ports: P,
}

impl<P> BuiltBall<P> {
    /// The ball, its ports appended to the table.
    fn without_ports(self) -> BuiltBall<()> {
        BuiltBall { ids: self.ids, dists: self.dists, ports: () }
    }
}

/// A worker's scratch: a ball's `[member, port]` slots in settle order, and
/// the region they are hashed into.
#[derive(Default)]
struct FillScratch {
    members: Vec<Slot>,
    region: Vec<Slot>,
}

/// Packs one ball, given as `(member, distance, first port)` in settle
/// order with no port for the centre: its ids, its distances if `codecs`
/// has a distance codec, and its `[member, port]` slots through `encode`.
fn fill_ball<P>(
    scratch: &mut FillScratch,
    ball: impl ExactSizeIterator<Item = (VertexId, Weight, Option<Port>)>,
    codecs: MemberCodecs,
    encode: &impl Fn(&mut Vec<Slot>, &[Slot]) -> P,
) -> BuiltBall<P> {
    let len = ball.len();
    let mut ids = PackedColumn::with_capacity(codecs.id, len);
    let mut dists = codecs.dist.map(|codec| PackedColumn::with_capacity(codec, len));
    scratch.members.clear();
    scratch.members.reserve_exact(len);
    for (v, d, port) in ball {
        ids.push([v.0]);
        if let Some(dists) = &mut dists {
            dists.push([d]);
        }
        scratch.members.push([v.0, port.unwrap_or(NO_PORT).0]);
    }
    let ports = encode(&mut scratch.region, &scratch.members);
    BuiltBall { ids, dists, ports }
}

/// Hashes the slots of `members` into their open-addressing region, using
/// `region` as scratch, and packs it by `codec`.
///
/// Ordered insertion: walk from the home slot past smaller hashes, then
/// carry every larger resident one slot right. The result is the placement
/// of the members in ascending hash order at `max(home, previous + 1)`,
/// whatever order they arrive in. `cap + len` slots hold the longest run.
fn hash_region(region: &mut Vec<Slot>, members: &[Slot], codec: SlotCodec<2>) -> PackedColumn<2> {
    let (len, cap) = (members.len(), slot_cap(members.len()));
    region.clear();
    region.resize(cap + len + 1, EMPTY);
    let mut end = 0;
    for &member in members {
        let mut slot = member;
        let mut at = home_slot(slot_hash(slot[0]), cap);
        while region[at][0] != EMPTY_KEY {
            if slot_hash(region[at][0]) > slot_hash(slot[0]) {
                std::mem::swap(&mut region[at], &mut slot);
            }
            at += 1;
        }
        region[at] = slot;
        end = end.max(at + 1);
    }
    // Keep `cap` slots, or more when the last run passes them; either way
    // the region's last slot stays empty.
    let kept = &region[..cap.max(end + 1)];
    let mut slots = PackedColumn::with_capacity(codec, kept.len());
    kept.iter().for_each(|&slot| slots.push(slot));
    slots
}

/// The rank bitmap of one ball, its `[member, port]` slots in `members`:
/// the membership bits of `0..n` in `⌈n/64⌉` blocks, the count of members
/// before each block, and `min(ℓ, n)` ports, the members' in id order.
/// Boxed, so that a build's round of balls is no larger than a hashed
/// build's.
fn rank_bitmap(members: &[Slot], codecs: MemberCodecs) -> Box<RankBitmap> {
    let mut bits = vec![0u64; codecs.blocks];
    for &[v, _] in members {
        bits[v as usize / 64] |= 1 << (v % 64);
    }
    let mut ranks = PackedColumn::with_capacity(codecs.rank(), codecs.blocks);
    let mut before = 0;
    for word in &bits {
        ranks.push([before]);
        before += word.count_ones();
    }
    let mut ports = PackedColumn::zeroed(codecs.port(), codecs.stride);
    for &[v, port] in members {
        if let Some(rank) = member_rank(&bits, &ranks, v as usize / 64, v) {
            ports.set(rank, [port]);
        }
    }
    Box::new(RankBitmap { balls: 1, blocks: codecs.blocks, stride: codecs.stride, bits, ranks, ports })
}

/// A borrowed view of one ball `B(u, ℓ)` inside a [`BallTable`].
///
/// Reads straight from the table's flat arrays; membership-style queries are
/// one slot probe each.
#[derive(Debug, Clone, Copy)]
pub struct BallView<'a> {
    table: &'a BallTable,
    u: VertexId,
}

impl<'a> BallView<'a> {
    /// The center vertex `u`.
    pub fn center(&self) -> VertexId {
        self.u
    }

    /// Number of members (including the center).
    pub fn len(&self) -> usize {
        self.table.member_range(self.u).len()
    }

    /// True if the ball contains only its center or is empty.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Member ids in `(distance, id)` order, the center first, read in
    /// place. A member's position here is its rank, and because balls are
    /// nested the first `k` ids are exactly `B(u, k)` for any `k` up to the
    /// ball's size.
    pub fn ids(&self) -> MemberIds<'a> {
        MemberIds(members_in(self.table.ids.column(), self.table.member_range(self.u)))
    }

    /// Parallel to [`BallView::ids`] and of the same length: each member's
    /// distance from the center, non-decreasing, read in place. `None` when
    /// the table was built with [`BallDists::Skip`].
    pub fn dists(&self) -> Option<MemberDists<'a>> {
        Some(MemberDists(members_in(self.table.dists.as_ref()?, self.table.member_range(self.u))))
    }

    /// Members with distances in `(distance, id)` order, as a fresh list
    /// zipped from [`BallView::ids`] and [`BallView::dists`]. For readers
    /// outside the build, on a table from [`BallTable::build`]; the builders
    /// read the two views in place.
    ///
    /// # Panics
    ///
    /// On a table built with [`BallDists::Skip`]: there is no distance to
    /// pair a member with.
    pub fn members(&self) -> Vec<(VertexId, Weight)> {
        let (ids, dists) = (self.ids(), self.dists());
        assert!(dists.is_some_and(|d| d.len() == ids.len()), "B({}) is from a table without distances", self.u);
        ids.iter().zip(dists.into_iter().flat_map(MemberDists::iter)).collect()
    }

    /// Returns true if `v` is in the ball.
    pub fn contains(&self, v: VertexId) -> bool {
        self.table.contains(self.u, v)
    }
}

/// The records of `column` in `range`, a member range of the table: none
/// if it were to run past the column.
fn members_in(column: &PackedColumn<1>, range: Range<usize>) -> PackedView<'_, 1> {
    column.slice(range).unwrap_or_else(|| column.view().prefix(0))
}

/// A ball's member ids in `(distance, id)` settle order, viewed in place in
/// the packed ids they were built into: the first `k` are `B(u, k)`.
#[derive(Debug, Clone, Copy)]
pub struct MemberIds<'a>(PackedView<'a, 1>);

impl<'a> MemberIds<'a> {
    /// Number of members.
    #[inline]
    pub fn len(self) -> usize {
        self.0.len()
    }

    /// True if the view holds no member.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0.is_empty()
    }

    /// The member of rank `i`, if the ball has that many.
    #[inline]
    pub fn get(self, i: usize) -> Option<VertexId> {
        self.0.get::<u32>(i).map(|[v]| VertexId(v))
    }

    /// The members, decoded in settle order.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = VertexId> + Clone + 'a {
        self.0.iter::<u32>().map(VertexId)
    }

    /// The `len` closest members, or all of them if the ball has fewer.
    #[inline]
    pub fn prefix(self, len: usize) -> Self {
        MemberIds(self.0.prefix(len))
    }

    /// The rank of `v`, its position in settle order, if it is a member:
    /// a scan, for readers outside the build.
    pub fn position(self, v: VertexId) -> Option<usize> {
        self.iter().position(|x| x == v)
    }
}

/// A ball's member distances from its centre, parallel to its
/// [`MemberIds`], viewed in place in the packed distances.
#[derive(Debug, Clone, Copy)]
pub struct MemberDists<'a>(PackedView<'a, 1>);

impl<'a> MemberDists<'a> {
    /// Number of members.
    #[inline]
    pub fn len(self) -> usize {
        self.0.len()
    }

    /// True if the view holds no member.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0.is_empty()
    }

    /// The distance of the member of rank `i`, if the ball has that many.
    #[inline]
    pub fn get(self, i: usize) -> Option<Weight> {
        self.0.get::<u64>(i).map(|[d]| d)
    }

    /// The distances, decoded in settle order: non-decreasing.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = Weight> + Clone + 'a {
        self.0.iter::<u64>()
    }
}

/// A set of vertices the Lemma 5 hitting set and the Lemma 6 colouring read
/// in place: an owned list, or a ball's packed [`MemberIds`].
pub trait VertexSet {
    /// The set's vertices, in its own order.
    fn vertices(&self) -> impl Iterator<Item = VertexId> + '_;
}

impl VertexSet for Vec<VertexId> {
    fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.iter().copied()
    }
}

impl VertexSet for MemberIds<'_> {
    fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_graph::{generators, reference, SearchScratch, SLOT_PAD};

    /// `build()` with every ball table built on this thread in `encoding`.
    fn forced<T>(encoding: BallEncoding, build: impl FnOnce() -> T) -> T {
        FORCED.set(Some(encoding));
        let out = build();
        FORCED.set(None);
        out
    }

    /// The regions and slots of a hashed table.
    fn hashed(t: &BallPorts) -> (&Vec<Region>, &PackedColumn<2>) {
        match &t.map {
            PortMap::Hashed { regions, slots } => (regions, slots),
            PortMap::Bitmap(_) => panic!("a bitmap table"),
        }
    }

    /// The rank of `v` in `B(u, ℓ)`: its position in the settle-order ids.
    fn position(t: &BallTable, u: VertexId, v: VertexId) -> Option<usize> {
        t.ball(u).ids().position(v)
    }

    /// `d(u, v)` for a member `v` of `B(u, ℓ)`, read at its position.
    fn dist(t: &BallTable, u: VertexId, v: VertexId) -> Option<Weight> {
        position(t, u, v).map(|i| t.ball(u).dists().unwrap().get(i).unwrap())
    }

    /// Bytes a member id and, if the table keeps them, a member distance.
    fn member_bytes(t: &BallTable) -> (usize, Option<usize>) {
        (t.ids.codec().width(), t.dists.as_ref().map(|d| d.codec().width()))
    }

    /// A ball's ids and distances, decoded.
    fn decoded(t: &BallTable, u: VertexId) -> (Vec<VertexId>, Option<Vec<Weight>>) {
        let view = t.ball(u);
        (view.ids().iter().collect(), view.dists().map(|d| d.iter().collect()))
    }

    #[test]
    fn ball_table_membership_and_first_hops() {
        let g = generators::grid(5, 5);
        let t = BallTable::build(&g, 6);
        assert_eq!(t.len(), 25);
        assert!(!t.is_empty());
        assert_eq!(t.ell(), 6);
        for u in g.vertices() {
            assert!(t.contains(u, u));
            assert_eq!(t.ball(u).len(), 6);
            // Three words (member, distance, port) per member but the centre.
            assert_eq!(t.words_at(u), 3 * 5);
            for (v, d) in t.ball(u).members() {
                assert!(t.contains(u, v));
                assert_eq!(dist(&t, u, v), Some(d));
                if v != u {
                    let port = t.first_port(u, v).unwrap();
                    let hop = g.neighbor_at(u, port).to;
                    assert_eq!(dist(&t, hop, v), Some(d - g.neighbor_at(u, port).weight));
                }
            }
        }
    }

    /// On unit weights the table comes from the budgeted batch BFS; it is
    /// `==` — members, row ends, every slot — to the table one bounded
    /// Dijkstra per vertex builds, on every family and two components
    /// around the batch width, at ℓ below, at and above `n`, at 1 and 4
    /// threads, and across block boundaries (n = 1100: nine blocks of 128).
    #[test]
    fn batch_built_table_equals_the_per_vertex_table() {
        let unit = generators::WeightModel::Unit;
        let mut graphs = Vec::new();
        for n in [63, 64, 65, 130] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            for family in generators::Family::ALL {
                graphs.push((family.generate(n, unit, &mut rng), vec![1, n - 1, n, 2 * n]));
            }
            let mut halves = routing_graph::GraphBuilder::new(n);
            for i in (1..n).filter(|&i| i != n / 3) {
                halves.add_unit_edge(i - 1, i).unwrap();
            }
            graphs.push((halves.build(), vec![n / 3, n / 2, n]));
        }
        let mut rng = StdRng::seed_from_u64(1100);
        graphs.push((generators::erdos_renyi(1100, 0.004, unit, &mut rng), vec![1, 40]));
        for (g, ells) in graphs {
            assert!(g.is_unweighted());
            for ell in ells {
                let reference = BallTable::build_with(&g, ell, SearchBatch::scalar, BallDists::Keep);
                for threads in [1, 4] {
                    routing_par::set_threads(threads);
                    let table = BallTable::build(&g, ell);
                    routing_par::set_threads(routing_par::available_threads());
                    assert!(table == reference, "n = {}, ℓ = {ell}, threads = {threads}", g.n());
                }
            }
        }
    }

    /// A table built without distances is the table with them, less the
    /// distances: the same ports and ids on every family,
    /// unit and weighted, through both kernels (the batch BFS applies on
    /// unit weights only, so the weighted graphs run the per-vertex
    /// Dijkstra either way), at 1 and 2 threads — and it reports every
    /// ball's distances missing instead of handing back a short slice.
    #[test]
    fn a_table_without_distances_is_the_table_less_its_distances() {
        use generators::{Family, WeightModel};
        for family in Family::ALL {
            for weights in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 9 }] {
                let g = family.generate(130, weights, &mut StdRng::seed_from_u64(41));
                let ell = 17;
                let kernels: [(bool, fn(&Graph) -> SearchBatch); 2] =
                    [(true, SearchBatch::for_graph), (false, SearchBatch::scalar)];
                for (batch, search) in kernels {
                    let with = BallTable::build_with(&g, ell, search, BallDists::Keep);
                    for threads in [1, 2] {
                        routing_par::set_threads(threads);
                        let without = BallTable::build_with(&g, ell, search, BallDists::Skip);
                        routing_par::set_threads(routing_par::available_threads());
                        let key = format!("{} {weights:?}", family.name());
                        let key = format!("{key}, batch {batch}, threads {threads}");
                        assert_eq!(without.ids, with.ids, "{key}: ids");
                        for u in g.vertices() {
                            assert!(without.ball(u).dists().is_none(), "{key}: B({u})");
                        }
                        assert!(without.dists.is_none(), "{key}: a distance array");
                        assert!(without.into_ports() == with.clone().into_ports(), "{key}: ports");
                    }
                }
            }
        }
    }

    /// The rank bitmap answers as the hashed slots do: `contains`,
    /// `first_port` and `words_at` agree for every `(u, v)`, ids at and past
    /// `n` included, on every family, unit and weighted, at n ∈ {1, 63, 64,
    /// 65, 130} and ℓ ∈ {1, n/20, n/4, n}, and on two components, whose
    /// balls stop short of ℓ. The build takes the encoding of fewer formula
    /// bytes and is then `==` to the table forced into it; a bitmap holds
    /// exactly its formula, a hashed table of full balls at least its own.
    #[test]
    fn both_encodings_answer_alike_and_the_smaller_is_chosen() {
        use generators::{Family, WeightModel};
        let mut graphs = Vec::new();
        for n in [1, 63, 64, 65, 130] {
            for family in Family::ALL {
                for weights in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 9 }] {
                    graphs.push(family.generate(n, weights, &mut StdRng::seed_from_u64(n as u64)));
                }
            }
            let mut halves = routing_graph::GraphBuilder::new(n);
            for i in (1..n).filter(|&i| i != n / 3) {
                halves.add_edge(i - 1, i, 1 + i as u64 % 3).unwrap();
            }
            graphs.push(halves.build());
        }
        let both = [BallEncoding::Hashed, BallEncoding::Bitmap];
        for g in &graphs {
            let n = g.n();
            let codec = SlotCodec::for_graph(g);
            for ell in [1, n / 20, n / 4, n] {
                let key = format!("n = {n}, m = {}, ℓ = {ell}", g.m());
                let [hashed, bitmap] = both.map(|encoding| forced(encoding, || BallTable::build(g, ell)));
                assert_eq!([hashed.encoding(), bitmap.encoding()], both, "{key}");
                let table = BallTable::build(g, ell);
                let chosen = BallEncoding::for_balls(n, ell, codec);
                let bytes = both.map(|encoding| encoding.bytes(n, ell, codec));
                assert_eq!(table.encoding(), chosen, "{key}");
                assert_eq!(chosen.bytes(n, ell, codec), bytes[0].min(bytes[1]), "{key}: the smaller");
                assert!(table == if chosen == both[0] { hashed.clone() } else { bitmap.clone() }, "{key}");
                assert_eq!(bitmap.ports.heap_bytes(), bytes[1], "{key}: bitmap bytes");
                let members: usize = g.vertices().map(|u| table.ball(u).len()).sum();
                if members == n * ell.clamp(1, n) {
                    assert!(hashed.ports.heap_bytes() >= bytes[0], "{key}: hashed bytes");
                }
                let ids = (0..n as u32 + 2).chain([u32::MAX - 1, u32::MAX]).map(VertexId);
                for u in ids.clone() {
                    assert_eq!(hashed.words_at(u), bitmap.words_at(u), "{key}: words_at({u})");
                    for v in ids.clone() {
                        assert_eq!(hashed.contains(u, v), bitmap.contains(u, v), "{key}: contains({u}, {v})");
                        assert_eq!(hashed.first_port(u, v), bitmap.first_port(u, v), "{key}: ({u}, {v})");
                    }
                }
            }
        }
    }

    /// The multiplier of the slot hash as `docs/ARCHITECTURE.md` gives it,
    /// pinned here so that the layout check below reads the documented
    /// format rather than [`slot_hash`].
    const SLOT_HASH_MULT: u32 = 0x9E37_79B1;

    /// Holds `t`, the table of `g` at `ell`, to the reference ball search
    /// for every `(u, v)` — ids, distances, words, membership and
    /// first port — and each ball's ports to its encoding's layout, rebuilt
    /// here from the reference ball. Hashed: the members in strictly
    /// ascending hash order, each at `max(home, previous + 1)`, then empty
    /// slots up to `⌈4m/3⌉` or one past the last member, whichever is more
    /// (load ≤ 3/4, the last slot empty, no slack), and no probe, hit or
    /// miss, longer than the ball plus the slot that ends it. As a bitmap:
    /// the members' bits, the count of members before each block, the
    /// members' ports in id order then zeros, and its formula's bytes.
    fn check_against_reference(g: &Graph, t: &BallTable, ell: usize, key: &str) {
        let hash = |id: u32| id.wrapping_mul(SLOT_HASH_MULT);
        let n = g.n();
        if t.encoding() == BallEncoding::Bitmap {
            let bytes = BallEncoding::Bitmap.bytes(n, ell, SlotCodec::for_graph(g));
            assert_eq!(t.ports.heap_bytes(), bytes, "{key}: bitmap bytes");
        }
        for u in g.vertices() {
            let key = format!("{key}, B({u})");
            let (members, first_hops) = reference::ball_hashmap(g, u, ell);
            let (ids, dists): (Vec<VertexId>, Vec<Weight>) = members.iter().copied().unzip();
            assert_eq!(decoded(t, u), (ids.clone(), Some(dists)), "{key}: members");
            assert_eq!(t.words_at(u), 3 * (ids.len() - 1), "{key}: words");
            // The ball's `[member, port]` slots by id, the centre's port the
            // sentinel.
            let port = |hop: Option<VertexId>| hop.and_then(|hop| g.port_to(u, hop)).unwrap_or(NO_PORT).0;
            let mut slots: Vec<Slot> = ids.iter().zip(first_hops).map(|(v, hop)| [v.0, port(hop)]).collect();
            slots.sort_unstable();
            for v in g.vertices() {
                let stored = slots.binary_search_by_key(&v.0, |s| s[0]).ok().map(|i| Port(slots[i][1]));
                assert_eq!(t.contains(u, v), stored.is_some(), "{key}: contains({v})");
                assert_eq!(t.first_port(u, v), stored.filter(|&p| p != NO_PORT), "{key}: port to {v}");
            }
            let m = slots.len();
            match &t.map {
                PortMap::Hashed { regions, .. } => {
                    assert_eq!(regions[u.index()].members as usize, m, "{key}: region members");
                    let cap = (4 * m).div_ceil(3);
                    let home = |h: u32| ((u64::from(h) * cap as u64) >> 32) as usize;
                    slots.sort_unstable_by_key(|s| hash(s[0]));
                    let mut want = Vec::new();
                    for slot in slots {
                        want.resize(home(hash(slot[0])).max(want.len()), EMPTY);
                        want.push(slot);
                    }
                    want.resize(cap.max(want.len() + 1), EMPTY);
                    let region = t.slot_region(u);
                    assert_eq!(region, want, "{key}: region");
                    assert!(4 * m <= 3 * region.len(), "{key}: load above 3/4");
                    for v in g.vertices() {
                        let h = hash(v.0);
                        let stop = region[home(h)..].iter().position(|s| s[0] == v.0 || s[0] == EMPTY_KEY || hash(s[0]) > h);
                        assert!(stop.is_some_and(|at| at < m + 1), "{key}: probe for {v} runs {stop:?}");
                    }
                }
                PortMap::Bitmap(bitmap) => {
                    let (blocks, stride) = (n.div_ceil(64), ell.clamp(1, n));
                    assert_eq!((bitmap.blocks, bitmap.stride), (blocks, stride), "{key}: shape");
                    let mut before = 0;
                    for b in 0..blocks {
                        let in_block = slots.iter().filter(|s| s[0] as usize / 64 == b);
                        let word = in_block.fold(0u64, |w, s| w | 1 << (s[0] % 64));
                        let at = u.index() * blocks + b;
                        assert_eq!(bitmap.bits[at], word, "{key}: block {b}");
                        assert_eq!(bitmap.ranks.get(at), Some([before]), "{key}: count before block {b}");
                        before += word.count_ones();
                    }
                    let ports: Vec<u32> =
                        (0..stride).filter_map(|i| bitmap.ports.get(u.index() * stride + i)).map(|[p]| p).collect();
                    let want: Vec<u32> = slots.iter().map(|s| s[1]).chain(std::iter::repeat(0)).take(stride).collect();
                    assert_eq!(ports, want, "{key}: ports");
                }
            }
        }
    }

    /// Graphs whose ids are hostile to the hashed layout, `n` = 240:
    /// balls that are stride-16 progressions, weighted (the per-vertex
    /// Dijkstra builds them) and on unit weights (the batch BFS does), a
    /// ball made of the ids with the smallest slot hashes, which all claim
    /// the first home slots, weighted and unit, and a two-component unit
    /// graph whose lanes never fill.
    fn hostile_graphs() -> Vec<(&'static str, Graph)> {
        use generators::WeightModel;
        let n = 240;
        let mut graphs = Vec::new();
        // Sixteen unit-weight chains i, i + 16, i + 32, …, joined at their
        // heads by heavy edges: every ball up to ℓ = 15 is a stride-16
        // progression.
        let mut strided = routing_graph::GraphBuilder::new(n);
        for i in 0..n - 16 {
            strided.add_edge(i, i + 16, 1).unwrap();
        }
        for i in 0..15 {
            strided.add_edge(i, i + 1, 1_000).unwrap();
        }
        graphs.push(("stride-16", strided.build()));
        // The same chains on unit weights and never joined: sixteen
        // components of fifteen, so no lane fills past ℓ = 15.
        let mut chains = routing_graph::GraphBuilder::new(n);
        for i in 0..n - 16 {
            chains.add_unit_edge(i, i + 16).unwrap();
        }
        graphs.push(("stride-16-unit", chains.build()));
        // A unit-weight clique on the 40 ids with the smallest slot hashes,
        // the rest hanging off it on heavy edges: the clique is every
        // member's ball at ℓ = 40 and its keys all hash to the front of the
        // region.
        let mut by_hash: Vec<usize> = (0..n).collect();
        by_hash.sort_unstable_by_key(|&i| (i as u32).wrapping_mul(SLOT_HASH_MULT));
        let (clique, rest) = by_hash.split_at(40);
        let mut clustered = routing_graph::GraphBuilder::new(n);
        let mut clustered_unit = routing_graph::GraphBuilder::new(n);
        for (k, &a) in clique.iter().enumerate() {
            for &b in &clique[k + 1..] {
                clustered.add_edge(a, b, 1).unwrap();
                clustered_unit.add_unit_edge(a, b).unwrap();
            }
        }
        for (k, &r) in rest.iter().enumerate() {
            clustered.add_edge(r, clique[k % clique.len()], 1_000).unwrap();
        }
        graphs.push(("hash-clustered", clustered.build()));
        // On unit weights the rest hangs off one clique member as a path,
        // so the clique is still the ball at ℓ = 40 of every other member.
        for (k, &r) in rest.iter().enumerate() {
            clustered_unit.add_unit_edge(r, if k == 0 { clique[0] } else { rest[k - 1] }).unwrap();
        }
        graphs.push(("hash-clustered-unit", clustered_unit.build()));
        // Two unit components, of 200 and 40: at ℓ = n no lane fills, and
        // at ℓ = 40 the small one fills exactly at its last level.
        let mut two = routing_graph::GraphBuilder::new(n);
        let big = generators::erdos_renyi(200, 6.0 / 200.0, WeightModel::Unit, &mut StdRng::seed_from_u64(61));
        for u in big.vertices() {
            for e in big.edges(u).filter(|e| u < e.to) {
                two.add_unit_edge(u.index(), e.to.index()).unwrap();
            }
        }
        for a in 201..n {
            two.add_unit_edge(a - 1, a).unwrap();
        }
        graphs.push(("two-components-unit", two.build()));
        graphs
    }

    /// Forced into either encoding, at 1 and 4 threads, the table is the
    /// same and holds to the reference search and to its encoding's layout
    /// (`check_against_reference`) on the hostile graphs at ℓ ∈ {1, 2, 16,
    /// 40, n}; on eight random weighted Erdős–Rényi graphs of 30–69
    /// vertices at ℓ ∈ {2, 5, 9, 13}; around the block count (n ∈ {1, 15,
    /// 16, 17, 33}, weight ties) and around the batch width (unit, n ∈ {63,
    /// 64, 65, 130}) at ℓ ∈ {1, n − 1, n, 2n}.
    #[test]
    fn both_encodings_keep_their_layout_on_hostile_and_random_graphs() {
        use generators::WeightModel;
        use rand::Rng;
        let mut cases: Vec<(String, Graph, Vec<usize>)> =
            hostile_graphs().into_iter().map(|(name, g)| (name.to_string(), g, vec![1, 2, 16, 40, 240])).collect();
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n, heaviest) = (rng.gen_range(30..70), rng.gen_range(1..20));
            let weights = WeightModel::Uniform { lo: 1, hi: heaviest };
            let g = generators::erdos_renyi(n, 10.0 / n as f64, weights, &mut rng);
            cases.push((format!("er seed {seed}"), g, vec![2, 5, 9, 13]));
        }
        let ties = WeightModel::Uniform { lo: 1, hi: 3 };
        for n in [1, 15, 16, 17, 33] {
            let g = generators::erdos_renyi(n, 0.25, ties, &mut StdRng::seed_from_u64(n as u64));
            cases.push((format!("er-ties {n}"), g, vec![1, n - 1, n, 2 * n]));
        }
        for n in [63, 64, 65, 130] {
            let g = generators::erdos_renyi(n, 4.0 / n as f64, WeightModel::Unit, &mut StdRng::seed_from_u64(n as u64));
            cases.push((format!("er-unit {n}"), g, vec![1, n - 1, n, 2 * n]));
        }
        for (name, g, ells) in &cases {
            for &ell in ells {
                for encoding in [BallEncoding::Hashed, BallEncoding::Bitmap] {
                    let key = format!("{name}, ℓ = {ell}, {encoding:?}");
                    let [one, four] = [1, 4].map(|threads| {
                        routing_par::set_threads(threads);
                        let t = forced(encoding, || BallTable::build(g, ell));
                        routing_par::set_threads(routing_par::available_threads());
                        t
                    });
                    assert_eq!(one.encoding(), encoding, "{key}");
                    assert!(one == four, "{key}: threads 1 and 4 built different tables");
                    check_against_reference(g, &one, ell, &key);
                }
            }
        }
    }

    /// At 3-byte ids, on a 65,600-vertex grid, unit and weighted: the rank
    /// bitmap of one ball, its member counts at 3 bytes, answers for every
    /// `v` as the hashed table does at that ball's centre. (A whole bitmap
    /// table there would hold `n²/8` bytes, which is why the build never
    /// takes one at this ℓ.)
    #[test]
    fn a_bitmap_ball_at_three_byte_ids_answers_as_the_hashed_table() {
        use generators::{Family, WeightModel};
        let ell = 40;
        for weights in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 9 }] {
            let g = Family::Grid.generate(65_600, weights, &mut StdRng::seed_from_u64(3));
            let table = BallTable::build_with_dists(&g, ell, BallDists::Skip).into_ports();
            assert_eq!(table.encoding(), BallEncoding::Hashed);
            let codecs = MemberCodecs::new(&g, ell, BallDists::Skip);
            assert_eq!(codecs.rank().bytes(), [3], "3-byte member counts");
            let (mut search, mut fill) = (SearchBatch::scalar(&g), FillScratch::default());
            let encode = |_: &mut Vec<Slot>, members: &[Slot]| rank_bitmap(members, codecs);
            for c in (0..g.n()).step_by(4099).chain([g.n() - 1]) {
                let c = VertexId(c as u32);
                search.run_balls(&g, [c].into_iter(), ell).unwrap();
                let one = fill_ball(&mut fill, search.ball(&g, 0), codecs, &encode).ports;
                assert_eq!(one.balls, 1);
                assert_eq!(one.members(0), table.members(c), "{weights:?}: B({c})");
                for v in g.vertices() {
                    assert_eq!(one.find(0, v.0), table.find(c, v), "{weights:?}: ({c}, {v})");
                }
            }
        }
    }

    /// `members` pairs each id with its distance, so on a table without
    /// distances it refuses rather than return a short list.
    #[test]
    #[should_panic(expected = "without distances")]
    fn members_of_a_table_without_distances_panics() {
        let t = BallTable::build_with_dists(&generators::cycle(12), 4, BallDists::Skip);
        t.ball(VertexId(0)).members();
    }

    #[test]
    fn flat_table_matches_standalone_balls() {
        // The flat table must agree with the reference ball search member
        // for member: same order, ranks (positions in the ids), hops.
        let mut rng = StdRng::seed_from_u64(23);
        let g = generators::erdos_renyi(
            60,
            0.08,
            generators::WeightModel::Uniform { lo: 1, hi: 7 },
            &mut rng,
        );
        let t = BallTable::build(&g, 8);
        for u in g.vertices() {
            let (members, first_hops) = reference::ball_hashmap(&g, u, 8);
            let view = t.ball(u);
            assert_eq!(view.members(), members);
            let ids: Vec<VertexId> = members.iter().map(|&(v, _)| v).collect();
            let dists: Vec<Weight> = members.iter().map(|&(_, d)| d).collect();
            assert_eq!(decoded(&t, u), (ids.clone(), Some(dists.clone())));
            assert_eq!(view.center(), members[0].0);
            assert_eq!(view.is_empty(), members.len() <= 1);
            for v in g.vertices() {
                let rank = ids.iter().position(|&x| x == v);
                assert_eq!(view.contains(v), rank.is_some());
                assert_eq!(dist(&t, u, v), rank.map(|i| dists[i]));
                assert_eq!(position(&t, u, v), rank);
                let hop = t.first_port(u, v).map(|port| g.neighbor_at(u, port).to);
                assert_eq!(hop, rank.and_then(|i| first_hops[i]));
            }
        }
    }

    /// The byte layout of a hashed table, pinned. Retained ports: at these graphs' width (ids
    /// below 300 in 2 bytes, ports below degree 256 in 1) 3-byte slots at
    /// load 3/4, 4 bytes a member; per vertex on top the region entry
    /// (16 B), up to 2 B of `⌈4m/3⌉` rounding and the overflow slots past
    /// `cap` — about one a vertex, whenever the region's last slot is taken
    /// — and 8 bytes of pad for the whole table. While building, the member
    /// ids come on top of the ports at the id width (2 bytes here), and the
    /// distances, if the builder asks for them, in the bytes `n − 1`
    /// heaviest edges need (2 here: 299 on unit weights, 2,691 at weights
    /// up to 9): 4 bytes a member with distances and 2 without, each column
    /// closed by its 8-byte pad, no per-slot rank and no padded pair, plus
    /// a 4-byte row end of the ids a vertex. So 4 B a member and 32 B a
    /// vertex bound the ports, 8 B (6 B) a member and 36 B a vertex the
    /// whole table. And no growth slack in any array,
    /// since slack here is memory held for a scheme's lifetime.
    #[test]
    fn heap_bytes_hold_the_bytes_per_member_budget() {
        let mut rng = StdRng::seed_from_u64(37);
        let weights = generators::WeightModel::Uniform { lo: 1, hi: 9 };
        let instances = [
            ("er", generators::erdos_renyi(300, 0.03, generators::WeightModel::Unit, &mut rng), 60),
            ("geometric", generators::random_geometric(300, 0.12, weights, &mut rng), 45),
            ("grid", generators::grid(15, 20), 300),
        ];
        for (name, g, ell) in instances {
            let n = g.n();
            for keep in [BallDists::Keep, BallDists::Skip] {
                let name = format!("{name} {keep:?}");
                let t = forced(BallEncoding::Hashed, || BallTable::build_with_dists(&g, ell, keep));
                let members: usize = g.vertices().map(|u| t.ball(u).len()).sum();
                let (regions, slot_column) = hashed(&t);
                let slots = slot_column.len();
                assert!(members > n, "{name}: balls are not trivial");
                assert_eq!(t.slot_bytes(), Some(3), "{name}: a 2-byte id and a 1-byte port");
                let dist_bytes = (keep == BallDists::Keep).then_some(2);
                assert_eq!(member_bytes(&t), (2, dist_bytes), "{name}: a 2-byte id, a 2-byte distance");
                assert_eq!((t.ids.len(), t.ids.column().len()), (n, members));
                assert_eq!(t.ids.heap_bytes(), 4 * n + 2 * members + SLOT_PAD, "{name}: ids");
                match &t.dists {
                    Some(dists) => {
                        assert_eq!(dists.len(), members);
                        assert_eq!(dists.heap_bytes(), 2 * members + SLOT_PAD, "{name}: dists");
                    }
                    None => assert_eq!(keep, BallDists::Skip, "{name}: no dists kept"),
                }
                assert_eq!(slot_column.heap_bytes(), 3 * slots + SLOT_PAD, "{name}: slots");
                assert_eq!(regions.capacity(), regions.len(), "{name}: regions");
                let full = t.heap_bytes();
                let dropped_per_member = 2 + dist_bytes.unwrap_or(0);
                let bound = (4 + dropped_per_member) * members + 36 * n + 64;
                assert!(full <= bound, "{name}: {full} B for {members} members");
                let kept = t.into_ports().heap_bytes();
                let ports_bound = 4 * members + 32 * n + 64;
                assert!(kept <= ports_bound, "{name}: {kept} B for {members} members");
                let pads = SLOT_PAD * (1 + usize::from(dist_bytes.is_some()));
                let drops = dropped_per_member * members + pads + 4 * n;
                assert_eq!(full - kept, drops, "{name}: what into_ports drops");
            }
        }
    }

    /// An `n`-vertex instance of `family` drawn in time linear in its
    /// edges. The Erdős–Rényi and geometric generators test every pair of
    /// vertices, too slow at n = 65,600; so here Erdős–Rényi graphs are
    /// drawn by edge count (average degree 8) and geometric ones through
    /// grid buckets of the radius (expected degree about 8). Scale-free
    /// graphs and grids come from the generator.
    fn linear_instance(family: generators::Family, n: usize, weights: generators::WeightModel) -> Graph {
        use generators::{Family, WeightModel};
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(n as u64);
        let weight = move |rng: &mut StdRng| match weights {
            WeightModel::Unit => 1,
            WeightModel::Uniform { lo, hi } => rng.gen_range(lo..=hi),
        };
        let mut b = routing_graph::GraphBuilder::new(n);
        match family {
            Family::ErdosRenyi => {
                for _ in 0..4 * n {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if u != v {
                        let w = weight(&mut rng);
                        b.add_edge(u, v, w).unwrap();
                    }
                }
            }
            Family::Geometric => {
                let r = (8.0 / (std::f64::consts::PI * n as f64)).sqrt();
                let cells = (1.0 / r).floor().max(1.0) as usize;
                let cell = |x: f64| ((x * cells as f64) as usize).min(cells - 1);
                let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
                let mut buckets = vec![Vec::new(); cells * cells];
                for (i, &(x, y)) in pts.iter().enumerate() {
                    buckets[cell(x) * cells + cell(y)].push(i);
                }
                for (u, &(x, y)) in pts.iter().enumerate() {
                    let (cx, cy) = (cell(x), cell(y));
                    for nx in cx.saturating_sub(1)..(cx + 2).min(cells) {
                        for ny in cy.saturating_sub(1)..(cy + 2).min(cells) {
                            for &v in &buckets[nx * cells + ny] {
                                let (dx, dy) = (pts[v].0 - x, pts[v].1 - y);
                                if u < v && dx * dx + dy * dy <= r * r {
                                    let w = weight(&mut rng);
                                    b.add_edge(u, v, w).unwrap();
                                }
                            }
                        }
                    }
                }
            }
            Family::ScaleFree | Family::Grid => return family.generate(n, weights, &mut rng),
        }
        b.build()
    }

    /// The packed members are the layout they replaced: per vertex, the
    /// settle-order ids (4 bytes each) and distances (8) the table held as
    /// vectors, here rebuilt test-locally from one bounded Dijkstra a
    /// centre, equal the packed ids and distances decoded, ball for ball,
    /// and `members` zips them as before — on every family, unit and
    /// weighted, at 2-byte ids (n = 300, with and without distances) and
    /// 3-byte ids (n = 65,600, with them: the table that reads every
    /// field). The packed columns hold the id width and the distance width
    /// a member, where the vectors held 4 and 8.
    #[test]
    fn packed_members_equal_the_vectors_they_replaced() {
        use generators::{Family, WeightModel};
        let both = [BallDists::Keep, BallDists::Skip];
        for (n, ell, id_bytes, shapes) in [(300, 23, 2, &both[..]), (65_600, 4, 3, &both[..1])] {
            for family in Family::ALL {
                for weights in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 9 }] {
                    let g = linear_instance(family, n, weights);
                    let key = format!("{} {weights:?} n = {}", family.name(), g.n());
                    let (n, heaviest) = (g.n() as u64, g.weight_range().map_or(0, |(_, hi)| hi));
                    let dist_bytes = usize::from(bytes_for((n - 1) * heaviest + 1));
                    // The vectors, as the table kept them.
                    let mut scratch = SearchScratch::for_graph(&g);
                    let (mut ids, mut dists, mut offsets) = (Vec::new(), Vec::new(), vec![0]);
                    for u in g.vertices() {
                        scratch.ball_into(&g, u, ell);
                        ids.extend(scratch.order().iter().map(|&(v, _)| v));
                        dists.extend(scratch.order().iter().map(|&(_, d)| d));
                        offsets.push(ids.len());
                    }
                    for &keep in shapes {
                        let t = BallTable::build_with_dists(&g, ell, keep);
                        let key = format!("{key}, {keep:?}");
                        let kept_dist = (keep == BallDists::Keep).then_some(dist_bytes);
                        assert_eq!(member_bytes(&t), (id_bytes, kept_dist), "{key}: widths");
                        let bytes = 4 * g.n() + id_bytes * ids.len() + SLOT_PAD;
                        assert_eq!(t.ids.heap_bytes(), bytes, "{key}: ids");
                        for u in g.vertices() {
                            let range = offsets[u.index()]..offsets[u.index() + 1];
                            assert_eq!(t.ids.range(u.index()), Some(range.clone()), "{key}: row of B({u})");
                            let (got_ids, got_dists) = decoded(&t, u);
                            assert_eq!(got_ids, ids[range.clone()], "{key}: ids of B({u})");
                            let want = (keep == BallDists::Keep).then(|| dists[range.clone()].to_vec());
                            assert_eq!(got_dists, want, "{key}: distances in B({u})");
                            if keep == BallDists::Keep && id_bytes == 2 {
                                let pairs: Vec<(VertexId, Weight)> =
                                    ids[range.clone()].iter().copied().zip(dists[range].iter().copied()).collect();
                                assert_eq!(t.ball(u).members(), pairs, "{key}: members of B({u})");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rank_boundaries_and_nested_ball_monotonicity() {
        // The Theorem 13/15 substrate: one stored ball answers membership
        // at every level because rank(v) < k  ⟺  v ∈ B(u, k), a member's
        // rank being its position in the settle-order ids.
        let mut rng = StdRng::seed_from_u64(29);
        let g = generators::erdos_renyi(
            50,
            0.1,
            generators::WeightModel::Uniform { lo: 1, hi: 9 },
            &mut rng,
        );
        let big = BallTable::build(&g, 16);
        for u in g.vertices() {
            let view = big.ball(u);
            // The center always has rank 0.
            assert_eq!(position(&big, u, u), Some(0));
            // Members occupy exactly the ranks 0..len, each exactly once,
            // and every id is a member of the ports.
            let mut seen = vec![false; g.n()];
            for v in view.ids().iter() {
                assert!(view.contains(v), "{v} listed in B({u}) but not in its slots");
                assert!(!seen[v.index()], "{v} listed twice in B({u})");
                seen[v.index()] = true;
            }
            // Non-members have no rank.
            for v in g.vertices() {
                if !view.contains(v) {
                    assert_eq!(position(&big, u, v), None);
                }
            }
        }
        // Nested-ball monotonicity: for every smaller size k, the k-ball is
        // exactly the rank-< k prefix of the big ball — same members, same
        // ranks, same distances.
        for k in [1usize, 4, 9, 16] {
            let small = BallTable::build(&g, k);
            for u in g.vertices() {
                let sv = small.ball(u);
                let bv = big.ball(u);
                let prefix = k.min(bv.len());
                assert!(sv.ids().iter().eq(bv.ids().iter().take(prefix)), "B({u}, {k}) is not a prefix");
                let (sd, bd) = (sv.dists().unwrap(), bv.dists().unwrap());
                assert!(sd.iter().eq(bd.iter().take(prefix)), "distances changed between sizes");
                for v in g.vertices() {
                    let in_prefix = position(&big, u, v).is_some_and(|r| r < k);
                    assert_eq!(
                        sv.contains(v),
                        in_prefix,
                        "rank-derived level-{k} membership differs for ({u}, {v})"
                    );
                }
            }
        }
    }

    /// Lemmas 5 and 6 read the table in place: over the borrowed id
    /// prefixes, the greedy hitting set and the colouring (colours, or the
    /// error) are exactly what they are over owned copies of the same
    /// prefixes — on Erdős–Rényi, geometric and grid graphs, unit and
    /// weighted, around a power of two, at prefix lengths 1, `b` and `ℓ`.
    /// At `ℓ`, the whole vicinities, the greedy that probes the table's
    /// slots for a pick picks the same set too.
    #[test]
    fn lemma5_and_lemma6_read_the_table_in_place_as_they_read_copies() {
        use crate::{hitting_set_greedy, hitting_set_of_vicinities, Coloring, ColoringError};
        use generators::{Family, WeightModel};
        fn coloured<S: VertexSet>(
            n: usize,
            q: u32,
            sets: &[S],
        ) -> Result<Vec<u32>, ColoringError> {
            let c = Coloring::build_for_sets(n, q, sets, 3, &mut StdRng::seed_from_u64(5))?;
            Ok((0..n).map(|v| c.color(VertexId(v as u32))).collect())
        }
        for family in [Family::ErdosRenyi, Family::Geometric, Family::Grid] {
            for weights in [WeightModel::Unit, WeightModel::Uniform { lo: 1, hi: 9 }] {
                for n in [63, 64, 65, 130] {
                    let g = family.generate(n, weights, &mut StdRng::seed_from_u64(n as u64));
                    let n = g.n();
                    let q = (n as f64).sqrt().ceil() as usize;
                    let b = (q * (n as f64).ln().ceil() as usize).min(n);
                    let ell = (4 * b).min(n);
                    let t = BallTable::build(&g, ell);
                    for len in [1, b, ell] {
                        let key = format!("{} {weights:?} n = {n}, prefix {len}", family.name());
                        let slices = t.id_prefixes(len);
                        let copies: Vec<Vec<VertexId>> =
                            g.vertices().map(|u| t.ball(u).ids().iter().take(len).collect()).collect();
                        let read = slices.iter().map(|s| s.iter().collect::<Vec<_>>());
                        assert!(read.eq(copies.iter().cloned()), "{key}: prefixes");
                        let hit = hitting_set_greedy(n, &slices);
                        assert_eq!(hit, hitting_set_greedy(n, &copies), "{key}: hitting set");
                        if len == ell {
                            // The whole vicinities: the slot probe picks as
                            // the scans of owned copies do.
                            assert_eq!(hitting_set_of_vicinities(&t), hit, "{key}: probed");
                        }
                        let in_place = coloured(n, q as u32, &slices);
                        assert_eq!(in_place, coloured(n, q as u32, &copies), "{key}: colouring");
                    }
                }
            }
        }
    }

    #[test]
    fn property_1_holds_with_tie_breaking() {
        // Property 1: v in B(u, l) and w on a shortest u-v path => v in B(w, l).
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::erdos_renyi(70, 0.08, generators::WeightModel::Unit, &mut rng);
        let ell = 9;
        let t = BallTable::build(&g, ell);
        let mut sp = SearchScratch::for_graph(&g);
        for u in g.vertices() {
            sp.dijkstra_into(&g, u);
            for v in t.ball(u).ids().iter() {
                if v == u {
                    continue;
                }
                for w in sp.path_to(v).unwrap() {
                    assert!(
                        t.contains(w, v),
                        "property 1 violated: {v} in B({u}) but not in B({w})"
                    );
                }
            }
        }
    }

    #[test]
    fn destinations_outside_the_ball_are_rejected() {
        let g = generators::path(30);
        let t = BallTable::build(&g, 3);
        assert!(!t.contains(VertexId(0), VertexId(29)));
        assert_eq!(t.first_port(VertexId(0), VertexId(29)), None);
        assert_eq!(t.first_port(VertexId(0), VertexId(3)), None, "one past the ball");
        assert!(t.first_port(VertexId(0), VertexId(2)).is_some());
    }

    /// Each slot field takes the fewest bytes whose all-ones value is at
    /// least `n` (ids) or the largest degree (ports): one byte up to 255,
    /// two up to 65,535, three up to 2²⁴ − 1, four beyond.
    #[test]
    fn slot_widths_switch_where_the_sentinel_stops_fitting() {
        let codec = |g: &Graph| SlotCodec::for_graph(g).bytes();
        assert_eq!(codec(&generators::path(255)), [1, 1]);
        assert_eq!(codec(&generators::path(256)), [2, 1]);
        assert_eq!(codec(&generators::path(65_536)), [3, 1]);
        assert_eq!(codec(&generators::star(256)), [2, 1], "the hub's degree is 255");
        assert_eq!(codec(&generators::star(257)), [2, 2], "the hub's degree is 256");
        for (n, bytes) in [(255, 1), (256, 2), (65_536, 3)] {
            assert_eq!(SlotCodec::for_ids(n).bytes(), [bytes]);
        }
        assert_eq!(BallTable::build(&generators::star(257), 3).slot_bytes(), Some(4));
    }

    /// Every slot packs and unpacks to itself at every width, the sentinels
    /// included, and a slot is read whole up to the last one, none past it.
    #[test]
    fn slots_round_trip_at_every_width() {
        let all_ones = |bytes: u8| (u64::MAX >> (64 - 8 * u32::from(bytes))) as u32;
        for id_bytes in 1..=4u8 {
            for port_bytes in 1..=4u8 {
                let codec = SlotCodec::new([id_bytes, port_bytes]);
                let (ids, ports) = (all_ones(id_bytes), all_ones(port_bytes));
                let slots = [EMPTY, [0, u32::MAX], [ids - 1, ports - 1], [ids / 3, 0]];
                let mut packed = PackedColumn::with_capacity(codec, slots.len());
                slots.iter().for_each(|&slot| packed.push(slot));
                assert_eq!(packed.heap_bytes(), slots.len() * codec.width() + SLOT_PAD);
                for (i, &slot) in slots.iter().enumerate() {
                    assert_eq!(packed.get(i), Some(slot), "{codec:?}, slot {i}");
                }
                assert_eq!(packed.get::<u32>(slots.len()), None, "{codec:?}: the pad");
            }
            // Bare ids: the slot is the id alone.
            let codec = SlotCodec::for_ids(all_ones(id_bytes) as usize);
            let ids = [0, all_ones(id_bytes) - 1, u32::MAX];
            let mut packed = PackedColumn::with_capacity(codec, ids.len());
            ids.iter().for_each(|&id| packed.push([id]));
            assert_eq!(packed.heap_bytes(), ids.len() * usize::from(id_bytes) + SLOT_PAD);
            for (i, &id) in ids.iter().enumerate() {
                assert_eq!(packed.get(i), Some([id]), "{codec:?}, id {i}");
            }
        }
    }

    #[test]
    fn hostile_ids_miss_instead_of_panicking_or_matching_the_sentinel() {
        // ℓ = n, so every in-range pair is a member: only the range check
        // stands between a foreign id and an answer.
        // The ids take one byte: `0xFF` is the narrow empty key, and
        // `256 + 3` masks down to member 3, so the range check must come
        // before any masking.
        // Both encodings: the bitmap's block counts take one byte too.
        let g = generators::cycle(12);
        assert_eq!(SlotCodec::for_graph(&g).bytes(), [1, 1]);
        for encoding in [BallEncoding::Hashed, BallEncoding::Bitmap] {
            let t = forced(encoding, || BallTable::build(&g, 12));
            assert_eq!(t.encoding(), encoding);
            let inside = VertexId(3);
            let narrow = [VertexId(0xFF), VertexId(256 + 3)];
            let wide = [VertexId(12), VertexId(13), VertexId(u32::MAX - 1), VertexId(u32::MAX)];
            for hostile in narrow.into_iter().chain(wide) {
                for (u, v) in [(inside, hostile), (hostile, inside), (hostile, hostile)] {
                    assert!(!t.contains(u, v), "{encoding:?}: contains({u}, {v})");
                    assert_eq!(t.first_port(u, v), None);
                }
                assert_eq!(t.words_at(hostile), 0);
                assert!(t.ball(hostile).ids().is_empty());
                assert_eq!(t.ball(hostile).dists().map(MemberDists::len), Some(0));
            }
        }
    }
}
