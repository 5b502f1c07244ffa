//! Records packed at a graph's width: [`SlotCodec`], [`PackedColumn`] and
//! [`PackedRows`].
//!
//! Every table a routing scheme keeps is an array of fixed-length records
//! of small unsigned fields — a ball slot `[member, port]`, a sequence entry
//! or destination key, a tree-node record, a light port, a member id, a
//! `(w, d)` pair of a distance list. A [`SlotCodec`] packs a record as `F`
//! little-endian fields back to back, each as many bytes (1 to 8) as its
//! column needs: an id the bytes `n` needs, a port the bytes the largest
//! degree needs, a distance the bytes its column's maximum needs.
//!
//! A field's all-ones value is its sentinel, and a column is sized so that
//! no stored value reaches it: it stands for the value type's `MAX` (the
//! empty key, "no port", a ball hop) and decodes back to it. A
//! [`PackedColumn`] owns the records and their closing [`SLOT_PAD`] zero
//! bytes, so every record is read through whole 8-byte windows with no
//! `unsafe` — one up to 8 bytes, two up to 16, one a field beyond — and its
//! reads and a [`PackedView`]'s stop at the last record, never at the pad.

use std::fmt;
use std::hint::select_unpredictable;
use std::ops::Range;

use crate::Graph;

/// Zero bytes after the last packed record of an array, so that every
/// record is read through whole 8-byte windows.
pub const SLOT_PAD: usize = 8;

/// The fewest bytes, at least one and at most eight, whose all-ones value
/// is at least `max`: a column of values below `max` leaves its all-ones
/// value free for the sentinel. Ids `0..n` take `bytes_for(n)`, ports
/// `0..deg` take `bytes_for(deg)`, values `0..=m` take `bytes_for(m + 1)`.
pub fn bytes_for(max: u64) -> u8 {
    (1..8).find(|&b| field_mask(b) >= max).unwrap_or(8)
}

/// The all-ones value of a `bytes`-byte field, `bytes` in `1..=8`.
#[inline]
fn field_mask(bytes: u8) -> u64 {
    u64::MAX >> (64 - 8 * u32::from(bytes))
}

/// `x` as a `b`-byte field holds it: the type's `MAX` as the all-ones
/// sentinel, any other value as it is (and cut to the field, were it too
/// wide for it).
#[inline]
fn stored<T: Field>(x: T, b: u8) -> u64 {
    let (mask, x) = (field_mask(b), x.widen());
    debug_assert!(x == u64::MAX || x < mask, "{x} does not fit {b} bytes below the sentinel");
    if x == u64::MAX {
        mask
    } else {
        x & mask
    }
}

/// The `b`-byte field in the low bytes of `x`, its all-ones sentinel as the
/// type's `MAX`.
#[inline]
fn field<T: Field>(x: u64, b: u8) -> T {
    let mask = field_mask(b);
    T::narrow(if x & mask == mask { u64::MAX } else { x & mask })
}

/// A value a [`SlotCodec`] field holds. The type's `MAX` is the sentinel:
/// it is stored as the field's all-ones value and decodes back to `MAX`.
pub trait Field: Copy {
    /// The value as a field holds it, `MAX` as `u64::MAX`.
    fn widen(self) -> u64;
    /// A decoded field, `u64::MAX` as `MAX`.
    fn narrow(field: u64) -> Self;
}

impl Field for u32 {
    #[inline]
    fn widen(self) -> u64 {
        if self == u32::MAX {
            u64::MAX
        } else {
            u64::from(self)
        }
    }

    /// A field of at most four bytes: every value but the sentinel fits.
    #[inline]
    fn narrow(field: u64) -> Self {
        if field == u64::MAX {
            u32::MAX
        } else {
            field as u32
        }
    }
}

impl Field for u64 {
    #[inline]
    fn widen(self) -> u64 {
        self
    }

    #[inline]
    fn narrow(field: u64) -> Self {
        field
    }
}

/// How an array packs records of `F` fields: field `j` in `bytes[j]`
/// little-endian bytes, the fields back to back, the records back to back
/// in a [`PackedColumn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotCodec<const F: usize> {
    bytes: [u8; F],
    width: u8,
}

impl<const F: usize> SlotCodec<F> {
    /// Records of `F ≤ 8` fields, field `j` taking `bytes[j]` bytes.
    ///
    /// # Panics
    ///
    /// If `F > 8` or a field is not 1 to 8 bytes wide.
    pub fn new(bytes: [u8; F]) -> Self {
        assert!(F <= 8, "a record has at most eight fields, not {F}");
        assert!(bytes.iter().all(|b| (1..=8).contains(b)), "field widths {bytes:?} outside 1..=8");
        SlotCodec { bytes, width: bytes.iter().sum() }
    }

    /// The bytes of each field.
    pub fn bytes(self) -> [u8; F] {
        self.bytes
    }

    /// Bytes a record.
    #[inline]
    pub fn width(self) -> usize {
        usize::from(self.width)
    }

    /// True if every field of `fields` is its sentinel or below it, so that
    /// it is stored as it is.
    pub fn fits<T: Field>(self, fields: [T; F]) -> bool {
        fields.iter().zip(self.bytes).all(|(&x, b)| x.widen() == u64::MAX || x.widen() < field_mask(b))
    }

    /// `fields` in the low bytes of a word, for a record of up to 16 bytes.
    #[inline]
    fn word<T: Field>(self, fields: [T; F]) -> u128 {
        let (mut word, mut at) = (0u128, 0);
        for (&x, b) in fields.iter().zip(self.bytes) {
            word |= u128::from(stored(x, b)) << (8 * at);
            at += u32::from(b);
        }
        word
    }

    /// Writes `fields` into the first [`width`](Self::width) bytes of
    /// `record`: a record of up to 16 bytes as one word, copied once.
    fn put<T: Field>(self, fields: [T; F], record: &mut [u8]) {
        let width = self.width();
        if width <= 16 {
            record[..width].copy_from_slice(&self.word(fields).to_le_bytes()[..width]);
        } else {
            let mut at = 0;
            for (&x, b) in fields.iter().zip(self.bytes.map(usize::from)) {
                record[at..at + b].copy_from_slice(&stored(x, b as u8).to_le_bytes()[..b]);
                at += b;
            }
        }
    }

    /// Record `i` of `records`, or `None` where its windows run past the
    /// end: up to 8 bytes one window, each field shifted out, masked and its
    /// sentinel widened to the type's `MAX`; a wider record out of line.
    #[inline]
    fn decode<T: Field>(self, records: &[u8], i: usize) -> Option<[T; F]> {
        let record = records.get(i * self.width()..)?;
        if self.width() > 8 {
            return self.decode_wide(record);
        }
        let word = u64::from_le_bytes(*record.first_chunk::<8>()?);
        let (mut out, mut at) = ([T::narrow(0); F], 0);
        for (x, b) in out.iter_mut().zip(self.bytes) {
            *x = field(word >> (8 * at), b);
            at += u32::from(b);
        }
        Some(out)
    }

    /// The record at the start of `record`, wider than 8 bytes: two windows
    /// up to 16 bytes (every record on a graph of fewer than 2²⁴ vertices),
    /// a window a field beyond. Cold and out of line, so that the loops
    /// that only ever meet one-window records — every ball and sequence
    /// probe — stay as small as if it were not there.
    #[cold]
    #[inline(never)]
    fn decode_wide<T: Field>(self, record: &[u8]) -> Option<[T; F]> {
        let (mut out, mut at) = ([T::narrow(0); F], 0);
        if self.width() <= 16 {
            let pair = u128::from_le_bytes(*record.first_chunk::<16>()?);
            for (x, b) in out.iter_mut().zip(self.bytes) {
                *x = field((pair >> (8 * at)) as u64, b);
                at += usize::from(b);
            }
        } else {
            for (x, b) in out.iter_mut().zip(self.bytes) {
                let window = record.get(at..)?.first_chunk::<8>()?;
                *x = field(u64::from_le_bytes(*window), b);
                at += usize::from(b);
            }
        }
        Some(out)
    }

    /// The index in `range` of the record whose first field is `key`, in
    /// `records` whose first fields ascend over `range`: a binary search
    /// that reads one window a probe. A key at or past the first field's
    /// sentinel is in no record.
    #[inline]
    fn search(self, records: &[u8], range: Range<usize>, key: u64) -> Option<usize> {
        let mask = field_mask(*self.bytes.first()?);
        let first = |i: usize| {
            let window = records.get(i * self.width()..)?.first_chunk::<8>()?;
            Some(u64::from_le_bytes(*window) & mask)
        };
        let Range { start: mut lo, end } = range;
        if key >= mask || lo >= end {
            return None;
        }
        // Halve the candidates with a select, not a branch — which way a
        // probe goes is a coin toss — until one is left.
        let mut len = end - lo;
        while len > 1 {
            let half = len / 2;
            lo = select_unpredictable(first(lo + half)? <= key, lo + half, lo);
            len -= half;
        }
        (first(lo)? == key).then_some(lo)
    }
}

impl SlotCodec<2> {
    /// `[vertex, port]` records of `g`: ids in the bytes `n` needs, ports
    /// in the bytes its largest degree needs.
    pub fn for_graph(g: &Graph) -> Self {
        let max_degree = g.vertices().map(|u| g.degree(u)).max().unwrap_or(0);
        SlotCodec::new([bytes_for(g.n() as u64), bytes_for(max_degree as u64)])
    }
}

impl SlotCodec<1> {
    /// Bare ids of `0..n`: the id field of [`SlotCodec::for_graph`] on an
    /// `n`-vertex graph.
    pub fn for_ids(n: usize) -> Self {
        SlotCodec::new([bytes_for(n as u64)])
    }
}

/// Every packed table's storage: records packed by one [`SlotCodec`], then
/// [`SLOT_PAD`] zero bytes. Fewer than 2³² of them, so that a [`PackedView`]
/// of any range is 16 bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedColumn<const F: usize> {
    codec: SlotCodec<F>,
    /// The records back to back, then the pad.
    bytes: Vec<u8>,
}

impl<const F: usize> PackedColumn<F> {
    /// An empty column of records packed by `codec`.
    pub fn new(codec: SlotCodec<F>) -> Self {
        Self::with_capacity(codec, 0)
    }

    /// An empty column with room for `records` records.
    pub fn with_capacity(codec: SlotCodec<F>, records: usize) -> Self {
        let mut bytes = Vec::with_capacity(records * codec.width() + SLOT_PAD);
        bytes.extend_from_slice(&[0; SLOT_PAD]);
        PackedColumn { codec, bytes }
    }

    /// A column of `records` all-zero records, to [`set`](Self::set).
    pub fn zeroed(codec: SlotCodec<F>, records: usize) -> Self {
        assert!(records <= u32::MAX as usize, "{records} records exceed a column");
        PackedColumn { codec, bytes: vec![0; records * codec.width() + SLOT_PAD] }
    }

    /// How the records are packed.
    #[inline]
    pub fn codec(&self) -> SlotCodec<F> {
        self.codec
    }

    /// Records stored.
    #[inline]
    pub fn len(&self) -> usize {
        (self.bytes.len() - SLOT_PAD) / self.codec.width()
    }

    /// True if at least `records` records are stored: no division.
    #[inline]
    fn holds(&self, records: usize) -> bool {
        records.saturating_mul(self.codec.width()) <= self.bytes.len() - SLOT_PAD
    }

    /// Appends `fields` as a record: zeros join the pad, and the record goes
    /// over the old pad's first bytes, as one 8-byte window if it fits.
    pub fn push<T: Field>(&mut self, fields: [T; F]) {
        assert!(!self.holds(u32::MAX as usize), "a column holds fewer than 2³² records");
        let (at, width) = (self.bytes.len() - SLOT_PAD, self.codec.width());
        if width <= 8 && self.bytes.capacity() - self.bytes.len() >= 8 {
            // Room for a whole window past the pad: grow by one fixed-size
            // window and cut back to the record, rather than copy `width`
            // zeros, so the array grows exactly as it would byte by byte.
            self.bytes.extend_from_slice(&[0; 8]);
            self.bytes.truncate(at + width + SLOT_PAD);
        } else {
            self.bytes.extend_from_slice(&[0; 64][..width]);
        }
        match self.bytes.get_mut(at..at + 8) {
            Some(window) if width <= 8 => window.copy_from_slice(&(self.codec.word(fields) as u64).to_le_bytes()),
            _ => self.codec.put(fields, &mut self.bytes[at..]),
        }
    }

    /// Writes `fields` as record `i`.
    ///
    /// # Panics
    ///
    /// If `i` is at or past the last record.
    pub fn set<T: Field>(&mut self, i: usize, fields: [T; F]) {
        assert!(self.holds(i.saturating_add(1)), "record {i} of a column of {}", self.len());
        self.codec.put(fields, &mut self.bytes[i * self.codec.width()..]);
    }

    /// Appends the records of `view`, a view of a column packed by the same
    /// codec, as they are packed.
    pub fn extend_from(&mut self, view: PackedView<'_, F>) {
        assert_eq!(view.column.codec, self.codec, "records packed by another codec");
        assert!(self.len() + view.len() <= u32::MAX as usize, "a column holds fewer than 2³² records");
        let width = self.codec.width();
        let records = &view.column.bytes[view.start as usize * width..view.end as usize * width];
        self.bytes.reserve(records.len());
        self.bytes.truncate(self.bytes.len() - SLOT_PAD);
        self.bytes.extend_from_slice(records);
        self.bytes.extend_from_slice(&[0; SLOT_PAD]);
    }

    /// Record `i`, or `None` at and past the last one.
    #[inline]
    pub fn get<T: Field>(&self, i: usize) -> Option<[T; F]> {
        self.holds(i.saturating_add(1)).then(|| self.codec.decode(&self.bytes, i)).flatten()
    }

    /// Every record.
    #[inline]
    pub fn view(&self) -> PackedView<'_, F> {
        PackedView { column: self, start: 0, end: self.len() as u32 }
    }

    /// The records in `range`, or `None` where it runs past the last one.
    #[inline]
    pub fn slice(&self, range: Range<usize>) -> Option<PackedView<'_, F>> {
        let end = u32::try_from(range.end).ok().filter(|_| self.holds(range.end))?;
        Some(PackedView { column: self, start: u32::try_from(range.start).ok().filter(|&s| s <= end)?, end })
    }

    /// Makes room for `records` more records.
    pub fn reserve_exact(&mut self, records: usize) {
        self.bytes.reserve_exact(records * self.codec.width());
    }

    /// Returns the growth slack.
    pub fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
    }

    /// Bytes of heap held, by capacity: the records and the pad.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.capacity()
    }
}

/// A borrowed range of a [`PackedColumn`]'s records, indexed from the
/// range's first; reads stay inside the range.
#[derive(Debug, Clone, Copy)]
pub struct PackedView<'a, const F: usize> {
    column: &'a PackedColumn<F>,
    start: u32,
    end: u32,
}

impl<'a, const F: usize> PackedView<'a, F> {
    /// Records in the view.
    #[inline]
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    /// True if the view holds no record.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// The view's first `len` records, or all of them if it holds fewer.
    #[inline]
    pub fn prefix(self, len: usize) -> Self {
        PackedView { end: self.start + len.min(self.len()) as u32, ..self }
    }

    /// Record `i` of the view, or `None` at and past its last one.
    #[inline]
    pub fn get<T: Field>(self, i: usize) -> Option<[T; F]> {
        let at = (i < self.len()).then_some(self.start as usize + i)?;
        self.column.codec.decode(&self.column.bytes, at)
    }

    /// The index in the view of the record whose first field is `key`, in
    /// a view whose first fields ascend: one window a probe.
    #[inline]
    pub fn search(self, key: u64) -> Option<usize> {
        let (start, end) = (self.start as usize, self.end as usize);
        Some(self.column.codec.search(&self.column.bytes, start..end, key)? - start)
    }

    /// The view's records, decoded in order.
    #[inline]
    pub fn records<T: Field + 'a>(self) -> impl Iterator<Item = [T; F]> + 'a {
        (0..self.len()).map_while(move |i| self.get(i))
    }
}

impl<'a> PackedView<'a, 1> {
    /// The view's values, decoded in order. A value is at most 8 bytes, so
    /// the values are walked as overlapping 8-byte windows — the value and
    /// the bytes after it, the next values' or the pad — each one load and
    /// one mask, the mask computed once for the view.
    #[inline]
    pub fn iter<T: Field + 'a>(self) -> impl Iterator<Item = T> + Clone + 'a {
        let width = self.column.codec.width();
        let mask = field_mask(self.column.codec.bytes[0]);
        let (bytes, start) = (&self.column.bytes[..], self.start as usize * width);
        (0..self.len()).map(move |k| {
            let at = start + k * width;
            let window = bytes.get(at..at + 8).and_then(|w| w.try_into().ok());
            let x = window.map_or(0, u64::from_le_bytes) & mask;
            T::narrow(if x == mask { u64::MAX } else { x })
        })
    }
}

/// A record count past what a `u32` row end holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyRecords(pub usize);

impl fmt::Display for TooManyRecords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} records exceed a u32 row end", self.0)
    }
}

impl std::error::Error for TooManyRecords {}

/// `records` as the end of a row of a [`PackedRows`]: the one place a
/// length becomes a `u32`.
pub fn row_end(records: usize) -> Result<u32, TooManyRecords> {
    u32::try_from(records).map_err(|_| TooManyRecords(records))
}

/// Records cut into rows: one [`PackedColumn`] and one `u32` end a row, row
/// `r` being records `ends[r − 1]..ends[r]` (from 0 for the first). Every
/// table of rows is one — a vertex's list, a pair's sequence, a member's
/// light ports — so a row costs 4 bytes and its records their packed width.
/// A build [`push`](Self::push)es a row's records and
/// [`close_row`](Self::close_row)s it, or fills [`zeroed`](Self::zeroed)
/// rows in any order with [`set`](Self::set), and [`append`](Self::append)s
/// tables built apart, every end rebased.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedRows<const F: usize> {
    ends: Vec<u32>,
    records: PackedColumn<F>,
}

impl<const F: usize> PackedRows<F> {
    /// No rows, their records packed by `codec`.
    pub fn new(codec: SlotCodec<F>) -> Self {
        Self::with_capacity(codec, 0, 0)
    }

    /// No rows, with room for `rows` rows of `records` records in all.
    pub fn with_capacity(codec: SlotCodec<F>, rows: usize, records: usize) -> Self {
        PackedRows { ends: Vec::with_capacity(rows), records: PackedColumn::with_capacity(codec, records) }
    }

    /// Rows of `lens` all-zero records each, to [`set`](Self::set): every
    /// array at its final size.
    ///
    /// # Errors
    ///
    /// [`TooManyRecords`] if the rows hold more records than a `u32` ends.
    pub fn zeroed(codec: SlotCodec<F>, lens: impl ExactSizeIterator<Item = usize>) -> Result<Self, TooManyRecords> {
        let (mut ends, mut total) = (Vec::with_capacity(lens.len()), 0);
        for len in lens {
            total += len;
            ends.push(row_end(total)?);
        }
        Ok(PackedRows { ends, records: PackedColumn::zeroed(codec, total) })
    }

    /// How the records are packed.
    #[inline]
    pub fn codec(&self) -> SlotCodec<F> {
        self.records.codec
    }

    /// Closed rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if no row is closed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Every record, row after row.
    #[inline]
    pub fn column(&self) -> &PackedColumn<F> {
        &self.records
    }

    /// Appends `fields` to the open row.
    pub fn push<T: Field>(&mut self, fields: [T; F]) {
        self.records.push(fields);
    }

    /// Appends the records of `view`, packed by the same codec, to the open
    /// row.
    pub fn extend_from(&mut self, view: PackedView<'_, F>) {
        self.records.extend_from(view);
    }

    /// Closes the open row: the records pushed since the last close.
    ///
    /// # Errors
    ///
    /// [`TooManyRecords`] if its end does not fit a `u32`.
    pub fn close_row(&mut self) -> Result<(), TooManyRecords> {
        self.ends.push(row_end(self.records.len())?);
        Ok(())
    }

    /// Appends `row` as a row.
    ///
    /// # Errors
    ///
    /// As [`close_row`](Self::close_row).
    pub fn push_row<T: Field>(&mut self, row: impl IntoIterator<Item = [T; F]>) -> Result<(), TooManyRecords> {
        row.into_iter().for_each(|fields| self.records.push(fields));
        self.close_row()
    }

    /// Appends the rows of `parts`, packed by the same codec, in order,
    /// every end rebased: each array grows by exactly what the parts hold,
    /// once. No row may be open.
    ///
    /// # Errors
    ///
    /// [`TooManyRecords`] if the records would outgrow a `u32` end; the rows
    /// are then left as they were.
    pub fn append<'p>(&mut self, parts: impl Iterator<Item = &'p Self> + Clone) -> Result<(), TooManyRecords> {
        let (rows, records) = parts.clone().fold((0, 0), |(r, k), p| (r + p.len(), k + p.records.len()));
        row_end(self.records.len() + records)?;
        self.ends.reserve_exact(rows);
        self.records.reserve_exact(records);
        for part in parts {
            let base = row_end(self.records.len())?;
            self.ends.extend(part.ends.iter().map(|&end| end + base));
            self.records.extend_from(part.records.view());
        }
        Ok(())
    }

    /// Records before row `r`, for `r` up to the rows closed.
    #[inline]
    fn start(&self, r: usize) -> usize {
        r.checked_sub(1).and_then(|last| self.ends.get(last)).map_or(0, |&end| end as usize)
    }

    /// The records of row `r`, as indexes into the
    /// [`column`](Self::column); `None` past the last row.
    #[inline]
    pub fn range(&self, r: usize) -> Option<Range<usize>> {
        Some(self.start(r)..*self.ends.get(r)? as usize)
    }

    /// Row `r`, or `None` past the last row.
    #[inline]
    pub fn row(&self, r: usize) -> Option<PackedView<'_, F>> {
        self.records.slice(self.range(r)?)
    }

    /// The rows in `range`, or `None` where it runs past the last row.
    #[inline]
    pub fn rows(&self, range: Range<usize>) -> Option<RowsView<'_, F>> {
        let Range { start, end } = range;
        (start <= end && end <= self.len()).then_some(RowsView { rows: self, start, end })
    }

    /// Every row.
    #[inline]
    pub fn view(&self) -> RowsView<'_, F> {
        RowsView { rows: self, start: 0, end: self.len() }
    }

    /// Writes `fields` as record `k` of row `r`.
    ///
    /// # Panics
    ///
    /// If row `r` holds no record `k`.
    pub fn set<T: Field>(&mut self, r: usize, k: usize, fields: [T; F]) {
        let row = self.range(r).unwrap_or(0..0);
        assert!(k < row.len(), "record {k} of row {r} of {}", self.len());
        self.records.set(row.start + k, fields);
    }

    /// Makes room for `rows` more rows of `records` more records.
    pub fn reserve_exact(&mut self, rows: usize, records: usize) {
        self.ends.reserve_exact(rows);
        self.records.reserve_exact(records);
    }

    /// Returns the growth slack.
    pub fn shrink_to_fit(&mut self) {
        self.ends.shrink_to_fit();
        self.records.shrink_to_fit();
    }

    /// Bytes of heap held, by capacity: 4 a row, and the records and the
    /// pad.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<u32>() * self.ends.capacity() + self.records.heap_bytes()
    }
}

/// A borrowed range of a [`PackedRows`]' rows, indexed from the range's
/// first; reads stay inside the range.
#[derive(Debug, Clone, Copy)]
pub struct RowsView<'a, const F: usize> {
    rows: &'a PackedRows<F>,
    start: usize,
    end: usize,
}

impl<'a, const F: usize> RowsView<'a, F> {
    /// Rows in the view.
    #[inline]
    pub fn len(self) -> usize {
        self.end - self.start
    }

    /// True if the view holds no row.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// Records in the view's rows.
    pub fn records(self) -> usize {
        self.rows.start(self.end) - self.rows.start(self.start)
    }

    /// Row `r` of the view, or `None` at and past its last one.
    #[inline]
    pub fn row(self, r: usize) -> Option<PackedView<'a, F>> {
        self.rows.row((r < self.len()).then_some(self.start + r)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    /// A column of `records` packed by `codec`, its bytes checked against
    /// the fields' little-endian bytes back to back and the closing pad.
    fn packed<T: Field, const F: usize>(codec: SlotCodec<F>, records: &[[T; F]]) -> PackedColumn<F> {
        let (mut column, mut out) = (PackedColumn::new(codec), Vec::new());
        for &r in records {
            column.push(r);
            for (x, b) in r.into_iter().zip(codec.bytes().map(usize::from)) {
                out.extend_from_slice(&stored(x, b as u8).to_le_bytes()[..b]);
            }
        }
        assert_eq!(out.len(), records.len() * codec.width());
        out.extend_from_slice(&[0; SLOT_PAD]);
        assert_eq!((column.len(), &column.bytes), (records.len(), &out));
        column
    }

    /// A field's width switches where its all-ones value stops exceeding
    /// the values below `max`, at every width from one byte to eight.
    #[test]
    fn field_widths_switch_where_the_sentinel_stops_fitting() {
        for (max, bytes) in [(0, 1), (1, 1), (255, 1), (256, 2), (65_535, 2), (65_536, 3)] {
            assert_eq!(bytes_for(max), bytes, "values below {max}");
        }
        for b in 1..8u8 {
            let all_ones = field_mask(b);
            assert_eq!(bytes_for(all_ones), b, "values below {all_ones}");
            assert_eq!(bytes_for(all_ones + 1), b + 1, "values up to {all_ones}");
        }
        assert_eq!(bytes_for((1 << 24) - 1), 3);
        assert_eq!(bytes_for(1 << 24), 4);
        assert_eq!(bytes_for(u32::MAX.into()), 4);
        assert_eq!(bytes_for(u64::from(u32::MAX) + 1), 5);
        assert_eq!(bytes_for(u64::MAX), 8);
        assert_eq!(SlotCodec::for_graph(&generators::star(256)).bytes(), [2, 1]);
        assert_eq!(SlotCodec::for_graph(&generators::star(257)).bytes(), [2, 2]);
        assert_eq!(SlotCodec::for_ids(255).bytes(), [1]);
        assert_eq!(SlotCodec::for_ids(256).bytes(), [2]);
    }

    /// Every field width from one byte to four holds the values on both
    /// sides of each byte boundary it can hold — 254, 255 and 256,
    /// 65,534 to 65,536, 2²⁴ ± 1 — and the value just below its sentinel;
    /// the type's `MAX` is stored as the all-ones value and comes back as
    /// `MAX`. Read beside a wider field and a narrower one, so that the
    /// fields cross window boundaries at every offset.
    #[test]
    fn every_width_round_trips_at_the_byte_boundaries() {
        let probes = [0, 1, 254, 255, 256, 65_534, 65_535, 65_536, (1 << 24) - 1, 1 << 24, (1 << 24) + 1];
        for b in 1..=4u8 {
            let below = field_mask(b) as u32 - 1;
            let held: Vec<u32> =
                probes.iter().copied().filter(|&x| u64::from(x) < field_mask(b)).chain([below, u32::MAX]).collect();
            for lead in 1..=8u8 {
                let codec = SlotCodec::new([lead, b, 1, b]);
                let records: Vec<[u32; 4]> = held
                    .iter()
                    .map(|&x| [(u64::from(x) % field_mask(lead)) as u32, x, 0, x])
                    .collect();
                let bytes = packed(codec, &records);
                for (i, &r) in records.iter().enumerate() {
                    assert_eq!(bytes.get::<u32>(i), Some(r), "{codec:?}, record {i}");
                }
            }
            // The sentinel is stored as the all-ones value.
            let sentinel = packed(SlotCodec::new([b]), &[[u32::MAX]]);
            assert_eq!(sentinel.bytes[..usize::from(b)], vec![0xFF; usize::from(b)]);
            let one = SlotCodec::new([b]);
            assert!(one.fits([below]) && !one.fits([u64::from(below) + 1]), "{b} bytes");
        }
    }

    /// The binary search finds every record by its first field, misses
    /// every key between and beyond them, the sentinel's included, and
    /// stays inside its range.
    #[test]
    fn search_finds_records_by_their_first_field() {
        for (id, other) in [(1, 1), (2, 1), (3, 4), (4, 8)] {
            let codec = SlotCodec::new([id, other]);
            let keys: Vec<u64> = (0..40).map(|k| 3 * k + 1).filter(|&k| k < field_mask(id)).collect();
            let records: Vec<[u64; 2]> = keys.iter().map(|&k| [k, field_mask(other) - 1]).collect();
            let bytes = packed(codec, &records);
            for (i, &k) in keys.iter().enumerate() {
                let all = bytes.slice(0..keys.len()).unwrap();
                assert_eq!(all.search(k), Some(i), "{codec:?}: {k}");
                assert_eq!(bytes.slice(0..i).unwrap().search(k), None, "{codec:?}: {k} left of its range");
                assert_eq!(all.search(k + 1), None, "{codec:?}: {}", k + 1);
            }
            for hostile in [field_mask(id), field_mask(id) + 1, u64::MAX] {
                assert_eq!(bytes.slice(0..keys.len()).unwrap().search(hostile), None, "{codec:?}: {hostile}");
            }
        }
    }

    /// A distance field wider than four bytes: values past 2³² and at
    /// `u64::MAX − 1` round-trip beside a narrow id, and `u64::MAX` is the
    /// sentinel.
    #[test]
    fn distances_past_four_bytes_round_trip() {
        let far = [u64::from(u32::MAX), 1 << 32, (1 << 40) + 7, u64::MAX - 1, u64::MAX, 0];
        for id in 1..=4u8 {
            for d in [bytes_for((1 << 40) + 8), 8] {
                let codec = SlotCodec::new([id, d]);
                let records: Vec<[u64; 2]> = far
                    .iter()
                    .filter(|&&x| x == u64::MAX || x < field_mask(d))
                    .map(|&x| [u64::from(id) * 3, x])
                    .collect();
                let bytes = packed(codec, &records);
                for (i, &r) in records.iter().enumerate() {
                    assert_eq!(bytes.get::<u64>(i), Some(r), "{codec:?}, record {i}");
                }
            }
        }
        assert_eq!(bytes_for(u64::MAX - 1), 8, "u64::MAX − 1 is below the 8-byte sentinel");
    }

    /// The widest records: six fields up to 24 bytes, every field at its
    /// largest value and at its sentinel, each record read whole.
    #[test]
    fn records_up_to_twenty_four_bytes_read_whole() {
        for (t, p) in [(1, 1), (2, 1), (3, 2), (3, 3), (4, 4)] {
            let codec = SlotCodec::new([t, t, t, t, p, p]);
            let (tm, pm) = (field_mask(t) as u32 - 1, field_mask(p) as u32 - 1);
            let records =
                [[0, tm, 1, tm / 2, pm, u32::MAX], [tm, 0, tm, 0, u32::MAX, pm], [1, 2, 3, 4, 5 % pm.max(1), 0]];
            let bytes = packed(codec, &records);
            for (i, &r) in records.iter().enumerate() {
                assert_eq!(bytes.get::<u32>(i), Some(r), "{codec:?}, record {i}");
            }
        }
    }

    /// Codecs of every record width from one byte to 24: one field up to 8
    /// bytes, three beyond.
    fn every_width() -> (Vec<SlotCodec<1>>, Vec<SlotCodec<3>>) {
        let narrow = (1..=8).map(|w| SlotCodec::new([w])).collect();
        let wide = (9..=24u8).map(|w| SlotCodec::new([w.div_ceil(3), (w - w.div_ceil(3)).div_ceil(2), w / 3])).collect();
        (narrow, wide)
    }

    /// A column's records and a view's are `None` at and past their last
    /// one, on every record width: nothing reads the pad's zero bytes as a
    /// record.
    #[test]
    fn reads_stop_at_the_last_record_on_every_width() {
        fn check<const F: usize>(codec: SlotCodec<F>) {
            for len in 0..4 {
                let column = packed(codec, &vec![[1u64; F]; len]);
                for i in [len, len + 1, len + 8, usize::MAX] {
                    assert_eq!(column.get::<u64>(i), None, "{codec:?}: record {i} of {len}");
                }
                assert_eq!(column.slice(0..len + 1).map(PackedView::len), None, "{codec:?}");
                let view = column.slice(0..len.saturating_sub(1)).unwrap();
                assert_eq!(view.get::<u64>(view.len()), None, "{codec:?}: past a view of {len}");
                if len > 0 {
                    assert_eq!(column.get::<u64>(len - 1), Some([1; F]), "{codec:?}");
                    assert_eq!(column.slice(1..len).unwrap().get::<u64>(len - 1), None, "{codec:?}");
                }
            }
        }
        let (narrow, wide) = every_width();
        narrow.into_iter().for_each(check);
        wide.into_iter().for_each(check);
    }

    /// A view's search finds only the keys inside it, and indexes them from
    /// the view's first record.
    #[test]
    fn search_stays_inside_its_view() {
        let codec = SlotCodec::new([1, 2]);
        let column = packed(codec, &(0..10u32).map(|k| [2 * k, k]).collect::<Vec<_>>());
        let view = column.slice(3..7).unwrap();
        for k in 0..10 {
            let inside = (3..7).contains(&k).then(|| k as usize - 3);
            assert_eq!(view.search(2 * u64::from(k)), inside, "key {}", 2 * k);
            assert_eq!(view.get::<u32>(k as usize), (k < 4).then(|| [2 * (k + 3), k + 3]));
        }
        assert_eq!(column.slice(5..5).unwrap().search(10), None, "an empty view");
    }

    /// A one-field view's `iter` decodes its values in order — the
    /// sentinel as the type's `MAX` — and stops at its end, and `prefix`
    /// cuts a view at its first `len` records, or keeps it whole when it
    /// holds fewer, on every value width.
    #[test]
    fn views_iterate_and_cut_their_records() {
        let (narrow, wide) = every_width();
        for codec in narrow {
            let mask = field_mask(codec.bytes()[0]);
            let values: Vec<u64> = vec![1, 0, mask - 1, u64::MAX, 7, 2];
            let column = packed(codec, &values.iter().map(|&x| [x]).collect::<Vec<_>>());
            let view = column.slice(1..5).unwrap();
            assert!(view.iter::<u64>().eq(values[1..5].iter().copied()), "{codec:?}");
            for len in 0..6 {
                let prefix = view.prefix(len);
                assert_eq!(prefix.len(), len.min(4), "{codec:?}: prefix {len}");
                assert!(prefix.iter::<u64>().eq(values[1..1 + len.min(4)].iter().copied()), "{codec:?}");
                assert_eq!(prefix.is_empty(), len == 0, "{codec:?}: prefix {len}");
            }
            assert_eq!(column.slice(3..3).unwrap().iter::<u64>().count(), 0, "{codec:?}: an empty view");
            assert!(column.view().iter::<u32>().eq(values.iter().map(|&x| <u32 as Field>::narrow(x))));
        }
        for codec in wide {
            let column = packed(codec, &[[1u64; 3], [2; 3], [3; 3]]);
            let prefix = column.view().prefix(2);
            assert_eq!((prefix.len(), prefix.get::<u64>(1), prefix.get::<u64>(2)), (2, Some([2; 3]), None));
        }
    }

    /// Views of two columns joined by `extend_from` are the same bytes as
    /// their records pushed one by one, on every record width.
    #[test]
    fn extend_from_joins_views_byte_identically() {
        fn check<const F: usize>(codec: SlotCodec<F>) {
            let rows: Vec<[u64; F]> = (0..6).map(|k| [k + 1; F]).collect();
            let (a, b) = (packed(codec, &rows[..4]), packed(codec, &rows[4..]));
            let mut joined = PackedColumn::new(codec);
            joined.extend_from(a.slice(1..3).unwrap());
            joined.extend_from(b.slice(0..2).unwrap());
            joined.extend_from(a.slice(4..4).unwrap());
            assert_eq!(joined, packed(codec, &[rows[1], rows[2], rows[4], rows[5]]), "{codec:?}");
        }
        let (narrow, wide) = every_width();
        narrow.into_iter().for_each(check);
        wide.into_iter().for_each(check);
    }

    /// A zeroed column reads all-zero records, and `set` writes each record
    /// in place without touching its neighbours or the pad.
    #[test]
    fn zeroed_records_take_what_is_set() {
        let codec = SlotCodec::new([2, 3]);
        let mut column = PackedColumn::zeroed(codec, 5);
        assert!((0..5).all(|i| column.get::<u64>(i) == Some([0, 0])));
        for i in [3, 0, 4, 1, 2] {
            column.set(i, [i as u64 + 1, u64::MAX]);
        }
        let rows: Vec<[u64; 2]> = (1..=5).map(|k| [k, u64::MAX]).collect();
        assert_eq!(column, packed(codec, &rows));
    }

    /// `set` past the last record would write into the pad: it panics.
    #[test]
    #[should_panic(expected = "record 2 of a column of 2")]
    fn set_past_the_last_record_panics() {
        PackedColumn::zeroed(SlotCodec::new([1]), 2).set(2, [7u32]);
    }

    /// Rows of the lengths `lens`, record `k` of row `r` being
    /// `[r + k, u32::MAX]` at `codec`'s widths, pushed a row at a time.
    fn rows_of(codec: SlotCodec<2>, lens: &[usize]) -> PackedRows<2> {
        let mut rows = PackedRows::new(codec);
        for (r, &len) in lens.iter().enumerate() {
            rows.push_row((0..len).map(|k| [(r + k) as u32, u32::MAX])).unwrap();
        }
        rows
    }

    /// Row lengths with empty rows first, between and last.
    const LENS: [usize; 8] = [0, 3, 1, 0, 0, 5, 2, 0];

    /// Rows read back as pushed at 1-, 2- and 3-byte ids, empty rows
    /// included: each row's records, its range in the column, a view's rows
    /// and records, and the bytes, 4 a row and the packed records.
    #[test]
    fn rows_round_trip_at_every_id_width() {
        for id in 1..=3 {
            let codec = SlotCodec::new([id, 1]);
            let mut rows = rows_of(codec, &LENS);
            assert_eq!((rows.len(), rows.column().len()), (LENS.len(), LENS.iter().sum()), "{id} bytes");
            let mut start = 0;
            for (r, &len) in LENS.iter().enumerate() {
                assert_eq!(rows.range(r), Some(start..start + len), "{id} bytes: row {r}");
                let row = rows.row(r).unwrap();
                let want: Vec<[u32; 2]> = (0..len).map(|k| [(r + k) as u32, u32::MAX]).collect();
                assert_eq!(row.records::<u32>().collect::<Vec<_>>(), want, "{id} bytes: row {r}");
                start += len;
            }
            let view = rows.rows(1..6).unwrap();
            assert_eq!((view.len(), view.records()), (5, 9), "{id} bytes");
            assert_eq!(view.row(4).map(PackedView::len), Some(5), "{id} bytes");
            assert_eq!(rows.rows(3..5).map(RowsView::records), Some(0), "{id} bytes: empty rows");
            assert!(rows.rows(4..4).unwrap().is_empty());
            rows.shrink_to_fit();
            let bytes = 4 * LENS.len() + (usize::from(id) + 1) * 11 + SLOT_PAD;
            assert_eq!(rows.heap_bytes(), bytes, "{id} bytes");
        }
        let empty = PackedRows::new(SlotCodec::new([1, 1]));
        assert_eq!((empty.len(), empty.heap_bytes(), empty.row(0).map(PackedView::len)), (0, SLOT_PAD, None));
    }

    /// Tables appended are the table filled in one piece byte for byte,
    /// every end rebased — an empty part, a part of empty rows and a part
    /// onto rows already there included — and each array grows by exactly
    /// what the parts hold.
    #[test]
    fn appended_rows_equal_the_rows_filled_at_once() {
        for id in 1..=3 {
            let codec = SlotCodec::new([id, 2]);
            let mut whole = rows_of(codec, &LENS);
            whole.shrink_to_fit();
            let part = |lens: &[usize], first: usize| {
                let mut rows = PackedRows::new(codec);
                for (r, &len) in lens.iter().enumerate() {
                    rows.push_row((0..len).map(|k| [(first + r + k) as u32, u32::MAX])).unwrap();
                }
                rows
            };
            let parts = [part(&LENS[1..3], 1), part(&[], 3), part(&LENS[3..5], 3), part(&LENS[5..], 5)];
            let mut joined = part(&LENS[..1], 0);
            joined.shrink_to_fit();
            joined.append(parts[..2].iter()).unwrap();
            joined.append(parts[2..].iter()).unwrap();
            assert_eq!(joined, whole, "{id} bytes");
            assert_eq!(joined.heap_bytes(), whole.heap_bytes(), "{id} bytes");
        }
    }

    /// A row, a range or a view past the last row reads `None`, and so does
    /// a view's row past its own last.
    #[test]
    fn rows_past_the_end_read_none() {
        let rows = rows_of(SlotCodec::new([2, 1]), &LENS);
        let n = LENS.len();
        for r in [n, n + 1, usize::MAX] {
            assert_eq!((rows.row(r).map(PackedView::len), rows.range(r)), (None, None), "row {r}");
        }
        let backwards = Range { start: 3, end: 2 };
        assert!(rows.rows(0..n + 1).is_none() && rows.rows(backwards).is_none());
        let view = rows.rows(1..3).unwrap();
        assert_eq!(view.row(2).map(PackedView::len), None, "past the view");
        assert_eq!(rows.view().row(n - 1).map(PackedView::len), Some(0));
    }

    /// A record count past `u32::MAX` is an error, not a wrapped end: the
    /// one conversion, driven with a length no test allocates.
    #[test]
    fn row_ends_past_u32_max_are_an_error() {
        let max = u32::MAX as usize;
        assert_eq!(row_end(max), Ok(u32::MAX));
        assert_eq!(row_end(max + 1), Err(TooManyRecords(max + 1)));
        assert_eq!(row_end(usize::MAX), Err(TooManyRecords(usize::MAX)));
        assert_eq!(TooManyRecords(max + 1).to_string(), "4294967296 records exceed a u32 row end");
    }

    /// Zeroed rows take what is set in any order and equal the rows pushed
    /// one by one.
    #[test]
    fn zeroed_rows_take_what_is_set() {
        let codec = SlotCodec::new([2, 1]);
        let mut rows = PackedRows::zeroed(codec, LENS.iter().copied()).unwrap();
        assert!((0..11).all(|i| rows.column().get::<u32>(i) == Some([0, 0])));
        for (r, &len) in LENS.iter().enumerate().rev() {
            for k in (0..len).rev() {
                rows.set(r, k, [(r + k) as u32, u32::MAX]);
            }
        }
        let mut pushed = rows_of(codec, &LENS);
        pushed.shrink_to_fit();
        assert_eq!((&rows, rows.heap_bytes()), (&pushed, pushed.heap_bytes()));
    }

    /// `set` past a row's last record would write into the next row: it
    /// panics.
    #[test]
    #[should_panic(expected = "record 1 of row 2 of 8")]
    fn set_past_a_rows_last_record_panics() {
        PackedRows::zeroed(SlotCodec::new([1, 1]), LENS.iter().copied()).unwrap().set(2, 1, [7u32, 7]);
    }

    /// `heap_bytes` is the capacity: the records and the pad once the slack
    /// is returned, and an exact reservation on top of that.
    #[test]
    fn heap_bytes_are_the_records_and_the_pad() {
        let codec = SlotCodec::new([3, 1]);
        assert_eq!(PackedColumn::new(codec).heap_bytes(), SLOT_PAD);
        let mut column = PackedColumn::with_capacity(codec, 100);
        assert_eq!(column.heap_bytes(), 400 + SLOT_PAD);
        (0..7u32).for_each(|k| column.push([k, k]));
        column.shrink_to_fit();
        assert_eq!(column.heap_bytes(), 7 * 4 + SLOT_PAD);
        column.reserve_exact(5);
        assert_eq!(column.heap_bytes(), 12 * 4 + SLOT_PAD);
    }
}
