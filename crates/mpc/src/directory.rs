//! The one bucket directory behind every word-keyed probe (see [`Directory`]).

use crate::scratch::BufferPool;
use std::ops::Range;

/// Keys further apart than this start a new segment.
const SEGMENT_GAP: u64 = 1 << 16;

/// A segmented bucket directory over the keys of a key-sorted run: the probe structure
/// of the engine's table indexes (`join_lookup`, `join_lookup2`,
/// [`SortedTable`](crate::SortedTable), the fused convergence loop) and of the routing
/// runs a solve plan keeps resident. It holds offsets into the run, not the run: a
/// probe of `key` is [`bucket`](Self::bucket) — a search over the segments, a shift and
/// two offset loads — then a search of the run's entries in that range.
///
/// The keys are split into **segments** at every gap wider than 2^16, and each
/// segment's buckets split its own key range evenly, between half and twice as many
/// buckets as it has keys. Outlying keys therefore cannot stretch the buckets of the
/// dense ones: node ids below `n`, auxiliary ids from 2^44 and cluster ids from 2^62
/// each get segments of their own in one table, and a bucket holds a few entries
/// whatever the key magnitudes. Nothing is sized by key magnitude either: a segment
/// costs two words and its buckets half a word per key.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    /// The segments, in key order.
    segments: Vec<Segment>,
    /// Bucket `b` holds `entries[buckets[b]..buckets[b + 1]]`; a segment's buckets are
    /// consecutive, and the last offset is the entry count.
    buckets: Vec<u32>,
}

/// A maximal stretch of keys with no gap wider than [`SEGMENT_GAP`].
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// The segment's smallest key.
    first: u64,
    /// The segment's first bucket.
    bucket: u32,
    /// Right shift that maps `key - first` to a bucket of the segment.
    shift: u32,
}

impl Directory {
    /// The directory of `entries`, which are sorted by `key`.
    ///
    /// # Panics
    /// Panics if there are more than `u32::MAX` entries.
    pub fn over<E>(entries: &[E], key: impl Fn(&E) -> u64) -> Directory {
        let mut dir = Directory::default();
        dir.fill(entries, key);
        dir.segments.shrink_to_fit();
        dir.buckets.shrink_to_fit();
        dir
    }

    /// An empty directory whose buffers are drawn from `pool`.
    pub(crate) fn pooled(pool: &mut BufferPool) -> Directory {
        Directory {
            segments: pool.take_buf(),
            buckets: pool.take_buf(),
        }
    }

    /// Hand both buffers back to the pool.
    pub(crate) fn recycle(self, pool: &mut BufferPool) {
        pool.recycle_buf(self.segments);
        pool.recycle_buf(self.buckets);
    }

    /// Make this the directory of `entries`, which are sorted by `key`, reusing the
    /// buffers' capacity.
    pub(crate) fn fill<E>(&mut self, entries: &[E], key: impl Fn(&E) -> u64) {
        let offset = |i: usize| u32::try_from(i).expect("a directory indexes u32 offsets");
        self.segments.clear();
        self.buckets.clear();
        let mut start = 0;
        while start < entries.len() {
            let first = key(&entries[start]);
            let (mut last, mut end) = (first, start + 1);
            while let Some(next) = entries.get(end).map(&key) {
                if next - last > SEGMENT_GAP {
                    break;
                }
                (last, end) = (next, end + 1);
            }
            // The smallest shift that leaves at most `keys.next_power_of_two()` buckets.
            let cap_bits = (end - start).next_power_of_two().trailing_zeros();
            let shift = (u64::BITS - (last - first).leading_zeros()).saturating_sub(cap_bits);
            let bucket = self.buckets.len();
            self.segments.push(Segment {
                first,
                bucket: offset(bucket),
                shift,
            });
            for (i, e) in entries.iter().enumerate().take(end).skip(start) {
                let b = bucket + ((key(e) - first) >> shift) as usize;
                if self.buckets.len() <= b {
                    self.buckets.resize(b + 1, offset(i));
                }
            }
            start = end;
        }
        self.buckets.push(offset(entries.len()));
    }

    /// The entries `key` can lie among: its segment's bucket for it (empty when no
    /// segment covers `key`).
    #[inline]
    pub fn bucket(&self, key: u64) -> Range<usize> {
        let s = self.segments.partition_point(|seg| seg.first <= key);
        let Some(seg) = s.checked_sub(1).map(|s| self.segments[s]) else {
            return 0..0;
        };
        // A segment's buckets end where the next segment's begin.
        let end = self
            .segments
            .get(s)
            .map_or(self.buckets.len() - 1, |next| next.bucket as usize);
        let b = ((key - seg.first) >> seg.shift).saturating_add(u64::from(seg.bucket));
        match usize::try_from(b) {
            Ok(b) if b < end => self.buckets[b] as usize..self.buckets[b + 1] as usize,
            _ => 0..0,
        }
    }

    /// Resident size in words: two per segment, half a word per `u32` offset.
    pub fn words(&self) -> usize {
        2 * self.segments.len() + self.buckets.len().div_ceil(2)
    }

    /// `true` when no key has a segment: the directory of an empty run, or one never
    /// filled.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys dense near zero, one far above, a block at an auxiliary-like base and one
    /// near the top of the word range.
    fn spread_keys() -> Vec<u64> {
        let mut keys: Vec<u64> = (0..500).map(|k| 3 * k).collect();
        keys.push(1 << 40);
        keys.extend((0..40).map(|k| (1 << 44) + k));
        keys.push(u64::MAX - 1);
        keys
    }

    /// The first index of `key` in `keys` through `dir`, as a run's probe finds it.
    fn probe(dir: &Directory, keys: &[u64], key: u64) -> Option<usize> {
        let bucket = dir.bucket(key);
        let start = bucket.start;
        let entries = &keys[bucket];
        let at = entries.partition_point(|&k| k < key);
        (entries.get(at) == Some(&key)).then_some(start + at)
    }

    #[test]
    fn the_directory_finds_every_key_and_nothing_else() {
        let keys = spread_keys();
        let dir = Directory::over(&keys, |&k| k);
        assert_eq!(dir.segments.len(), 4, "{:?}", dir.segments);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(probe(&dir, &keys, k), Some(i), "key {k}");
            for absent in [k.wrapping_add(1), k.wrapping_sub(1)] {
                if !keys.contains(&absent) {
                    assert_eq!(probe(&dir, &keys, absent), None, "key {absent}");
                }
            }
        }
        assert_eq!(probe(&dir, &keys, u64::MAX), None);
        // Buckets stay within twice the keys: no directory is sized by key magnitude.
        assert!(dir.buckets.len() <= 2 * keys.len() + dir.segments.len());
    }
}
