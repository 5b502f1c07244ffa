//! Records packed at a graph's width: [`SlotCodec`].
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
//! empty key, "no port", a ball hop) and decodes back to it. An array of
//! records ends in [`SLOT_PAD`] zero bytes, so every record is read through
//! whole 8-byte windows, with no `unsafe`: one window for a record of up to
//! 8 bytes, two for one of up to 16 (every record on a graph of fewer than
//! 2²⁴ vertices), one a field beyond.

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
/// little-endian bytes, the fields back to back, the records back to back.
/// An array read with [`decode`](Self::decode) ends in [`SLOT_PAD`] zero
/// bytes.
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
    /// [`encode`](Self::encode) stores it as it is.
    pub fn fits<T: Field>(self, fields: [T; F]) -> bool {
        fields.iter().zip(self.bytes).all(|(&x, b)| x.widen() == u64::MAX || x.widen() < field_mask(b))
    }

    /// Writes `fields` into the first [`width`](Self::width) bytes of
    /// `record`, the type's `MAX` as the field's sentinel.
    ///
    /// # Panics
    ///
    /// If `record` is shorter than a record.
    pub fn put<T: Field>(self, fields: [T; F], record: &mut [u8]) {
        let mut at = 0;
        for (&x, b) in fields.iter().zip(self.bytes) {
            let (x, b) = (stored(x, b), usize::from(b));
            record[at..at + b].copy_from_slice(&x.to_le_bytes()[..b]);
            at += b;
        }
    }

    /// Appends `fields` to `out` in [`width`](Self::width) bytes: a record
    /// of up to 16 bytes is assembled in one word and copied once.
    pub fn encode<T: Field>(self, fields: [T; F], out: &mut Vec<u8>) {
        if self.width() <= 16 {
            let (mut record, mut at) = (0u128, 0);
            for (&x, b) in fields.iter().zip(self.bytes) {
                record |= u128::from(stored(x, b)) << (8 * at);
                at += u32::from(b);
            }
            out.extend_from_slice(&record.to_le_bytes()[..self.width()]);
        } else {
            let start = out.len();
            out.resize(start + self.width(), 0);
            self.put(fields, &mut out[start..]);
        }
    }

    /// Record `i` of `records`, or `None` where the windows it is read
    /// through run past the end: a record of up to 8 bytes is one 8-byte
    /// window, each field shifted out of it and masked, its sentinel
    /// widened to the type's `MAX`. A wider record is read out of line:
    /// two windows up to 16 bytes, a window a field beyond.
    #[inline]
    pub fn decode<T: Field>(self, records: &[u8], i: usize) -> Option<[T; F]> {
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
    pub fn search(self, records: &[u8], range: Range<usize>, key: u64) -> Option<usize> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    /// Packs `records` by `codec` with the closing pad.
    fn packed<T: Field, const F: usize>(codec: SlotCodec<F>, records: &[[T; F]]) -> Vec<u8> {
        let mut out = Vec::new();
        for &r in records {
            codec.encode(r, &mut out);
        }
        assert_eq!(out.len(), records.len() * codec.width());
        out.extend_from_slice(&[0; SLOT_PAD]);
        out
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
                    assert_eq!(codec.decode::<u32>(&bytes, i), Some(r), "{codec:?}, record {i}");
                }
            }
            // The sentinel is stored as the all-ones value.
            let mut sentinel = Vec::new();
            SlotCodec::new([b]).encode([u32::MAX], &mut sentinel);
            assert_eq!(sentinel, vec![0xFF; usize::from(b)]);
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
                assert_eq!(codec.search(&bytes, 0..keys.len(), k), Some(i), "{codec:?}: {k}");
                assert_eq!(codec.search(&bytes, 0..i, k), None, "{codec:?}: {k} left of its range");
                assert_eq!(codec.search(&bytes, 0..keys.len(), k + 1), None, "{codec:?}: {}", k + 1);
            }
            for hostile in [field_mask(id), field_mask(id) + 1, u64::MAX] {
                assert_eq!(codec.search(&bytes, 0..keys.len(), hostile), None, "{codec:?}: {hostile}");
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
                    assert_eq!(codec.decode::<u64>(&bytes, i), Some(r), "{codec:?}, record {i}");
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
                assert_eq!(codec.decode::<u32>(&bytes, i), Some(r), "{codec:?}, record {i}");
            }
        }
    }
}
