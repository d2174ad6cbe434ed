//! Reusable scratch buffers for the primitive hot path.
//!
//! Every [`MpcContext`](crate::MpcContext) owns one [`Scratch`] arena. The sorting and
//! routing primitives draw all of their transient storage from it — radix key/index
//! pairs, the flat per-chunk sorted-word buffer, the k-way merge heap, per-machine
//! send/receive counters, and a type-keyed pool of record buffers that lets one call's
//! consumed input chunks become the next call's output chunks. After a short warm-up,
//! steady-state primitive calls on the radix fast path perform **zero net heap
//! growth**: every transient allocation is drawn from (and returned to) the arena.
//! The `alloc_steady_state` integration test pins this property with a counting
//! global allocator.
//!
//! The arena is invisible to the MPC model: it never changes results, rounds, or
//! communication volume — only the simulator's own wall-clock time and allocator
//! traffic.

use std::any::{Any, TypeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Upper bound on pooled buffers per record type (a backstop against pathological
/// retention when machine counts vary wildly within one context's lifetime).
const MAX_POOLED_BUFS: usize = 4096;

/// The two ping-pong buffers of the LSD radix sort (key word, original index).
#[derive(Debug, Default)]
pub(crate) struct SortBufs {
    pairs_a: Vec<(u64, u32)>,
    pairs_b: Vec<(u64, u32)>,
}

impl SortBufs {
    /// Stable sort of `items` by `word` in place, appending the sorted key words to
    /// `out_words`. Short runs use a comparison sort of the key/index pairs, long
    /// runs an LSD radix over the key bytes that skips uniform digits; the only heap
    /// use is the two reusable pair buffers.
    pub(crate) fn sort_in_place<T>(
        &mut self,
        items: &mut [T],
        word: impl Fn(&T) -> u64,
        out_words: &mut Vec<u64>,
    ) {
        let n = items.len();
        assert!(
            n <= u32::MAX as usize,
            "chunk too large for u32 radix index"
        );
        self.pairs_a.clear();
        self.pairs_a
            .extend(items.iter().enumerate().map(|(i, t)| (word(t), i as u32)));
        radix_sort_pairs(&mut self.pairs_a, &mut self.pairs_b);
        out_words.extend(self.pairs_a.iter().map(|p| p.0));
        apply_permutation(items, &mut self.pairs_a);
    }
}

/// Below this run length the comparison sort always wins (the LSD histograms alone
/// cost more than sorting the `(word, index)` pairs outright); both branches produce
/// the exact same order (the index makes every pair distinct, so an unstable
/// lexicographic sort equals the stable by-word sort), so small runs take the
/// comparison branch without even building histograms. At or above the floor the
/// choice is adaptive: [`radix_beats_comparison`] weighs the *active* digit passes
/// (uniform digits are skipped) against `n log n`.
const RADIX_MIN_LEN: usize = 1024;

/// Adaptive cutoff between the LSD radix path and the comparison sort, decided
/// after the digit histograms are known. Cost model: a comparison sort is
/// `≈ n·log2 n` pair moves with cache-friendly access; radix is one histogram read
/// pass plus `active_passes` cache-hostile scatter passes, each worth roughly
/// 1.25 comparison passes. Radix wins when
/// `1.25 · (active_passes + 1) ≤ log2 n`, kept in integer arithmetic below. With
/// all 8 passes active the crossover sits at 4096 pairs; keys whose entropy is
/// concentrated in few bytes keep the radix path right down to the
/// [`RADIX_MIN_LEN`] floor. The choice never affects the output order.
pub(crate) fn radix_beats_comparison(n: usize, active_passes: usize) -> bool {
    4 * (n.max(2).ilog2() as usize) >= 5 * (active_passes + 1)
}

/// Stable sort of `(word, index)` pairs by the word, ascending; ties keep their
/// current order (equivalently: lexicographic in `(word, index)` — indices are
/// distinct and increasing per equal word). Small runs use a comparison sort, large
/// runs an LSD radix over the word bytes that skips uniform digits; `tmp` is the
/// ping-pong buffer and both vectors keep their capacity across calls.
pub(crate) fn radix_sort_pairs(pairs: &mut Vec<(u64, u32)>, tmp: &mut Vec<(u64, u32)>) {
    let n = pairs.len();
    if n <= 1 {
        return;
    }
    if n < RADIX_MIN_LEN {
        pairs.sort_unstable();
        return;
    }
    // One read pass computes the histograms of all eight byte digits.
    let mut hist = [[0usize; 256]; 8];
    for &(w, _) in pairs.iter() {
        for (d, h) in hist.iter_mut().enumerate() {
            h[((w >> (8 * d)) & 0xff) as usize] += 1;
        }
    }
    // A digit on which every key agrees permutes nothing, so only the remaining
    // digits cost a scatter pass; with few enough of them radix wins, otherwise
    // fall back to the comparison sort (identical order either way).
    let active_passes = hist.iter().filter(|h| !h.contains(&n)).count();
    if !radix_beats_comparison(n, active_passes) {
        pairs.sort_unstable();
        return;
    }
    tmp.clear();
    tmp.resize(n, (0, 0));
    let mut src_is_pairs = true;
    for (d, h) in hist.iter().enumerate() {
        // A digit on which every key agrees permutes nothing: skip the pass.
        if h.contains(&n) {
            continue;
        }
        let mut offsets = [0usize; 256];
        let mut acc = 0usize;
        for (o, &c) in offsets.iter_mut().zip(h.iter()) {
            *o = acc;
            acc += c;
        }
        let (src, dst) = if src_is_pairs {
            (&*pairs, &mut *tmp)
        } else {
            (&*tmp, &mut *pairs)
        };
        for &p in src.iter() {
            let digit = ((p.0 >> (8 * d)) & 0xff) as usize;
            dst[offsets[digit]] = p;
            offsets[digit] += 1;
        }
        src_is_pairs = !src_is_pairs;
    }
    if !src_is_pairs {
        std::mem::swap(pairs, tmp);
    }
}

/// Reorder `items` so that `items[i]` becomes the element whose original index is
/// `pairs[i].1` (cycle-following, O(n) swaps, no allocation). The index fields of
/// `pairs` are consumed as visit marks.
pub(crate) fn apply_permutation<T>(items: &mut [T], pairs: &mut [(u64, u32)]) {
    debug_assert_eq!(items.len(), pairs.len());
    for start in 0..items.len() {
        let mut i = start;
        loop {
            let j = pairs[i].1 as usize;
            if j == i {
                break;
            }
            pairs[i].1 = i as u32;
            if j == start {
                break;
            }
            items.swap(i, j);
            i = j;
        }
    }
}

/// A stack of cleared-but-allocated `Vec<T>` buffers, keyed by record type. Consumed
/// input chunks are recycled here; output chunks are drawn from here.
#[derive(Default)]
pub(crate) struct BufferPool {
    // Looked up by key and never iterated, so hash order cannot reach a result.
    #[allow(clippy::disallowed_types)]
    stacks: std::collections::HashMap<TypeId, Box<dyn Any + Send>>,
}

impl BufferPool {
    fn stack<T: Send + 'static>(&mut self) -> &mut Vec<Vec<T>> {
        self.stacks
            .entry(TypeId::of::<Vec<T>>())
            .or_insert_with(|| Box::new(Vec::<Vec<T>>::new()) as Box<dyn Any + Send>)
            .downcast_mut::<Vec<Vec<T>>>()
            .expect("pool entry keyed by its own TypeId")
    }

    /// Take one buffer (empty, possibly with capacity) of record type `T`.
    pub(crate) fn take_buf<T: Send + 'static>(&mut self) -> Vec<T> {
        self.stack::<T>().pop().unwrap_or_default()
    }

    /// Take `n` buffers of record type `T`.
    pub(crate) fn take_bufs<T: Send + 'static>(&mut self, n: usize) -> Vec<Vec<T>> {
        let stack = self.stack::<T>();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(stack.pop().unwrap_or_default());
        }
        out
    }

    /// Return a buffer to the pool (cleared, capacity kept).
    pub(crate) fn recycle_buf<T: Send + 'static>(&mut self, mut buf: Vec<T>) {
        buf.clear();
        let stack = self.stack::<T>();
        if stack.len() < MAX_POOLED_BUFS {
            stack.push(buf);
        }
    }

    /// Return a batch of buffers to the pool.
    pub(crate) fn recycle_bufs<T: Send + 'static>(
        &mut self,
        bufs: impl IntoIterator<Item = Vec<T>>,
    ) {
        for buf in bufs {
            self.recycle_buf(buf);
        }
    }
}

/// The per-context scratch arena (see the module docs).
#[derive(Default)]
pub(crate) struct Scratch {
    /// Radix ping-pong buffers for the sequential chunk-sort path.
    pub(crate) sort: SortBufs,
    /// Flat buffer of per-chunk sorted key words (runs delimited by `bounds`).
    pub(crate) words: Vec<u64>,
    /// Run boundaries into `words`: run `i` spans `bounds[i]..bounds[i + 1]`.
    pub(crate) bounds: Vec<usize>,
    /// Per-run cursors used by the k-way merge.
    pub(crate) pos: Vec<usize>,
    /// The k-way merge heap over `(key word, source run)`.
    pub(crate) heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Per-machine send-volume counters.
    pub(crate) sends: Vec<usize>,
    /// Per-machine receive-volume counters.
    pub(crate) recvs: Vec<usize>,
    /// Type-keyed pool of record buffers.
    pub(crate) pool: BufferPool,
}

impl Scratch {
    /// Reset the per-machine counters to `machines` zeroes, reusing capacity.
    pub(crate) fn reset_counters(&mut self, send_slots: usize, recv_slots: usize) {
        self.sends.clear();
        self.sends.resize(send_slots, 0);
        self.recvs.clear();
        self.recvs.resize(recv_slots, 0);
    }
}

impl fmt::Debug for Scratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scratch")
            .field("words_capacity", &self.words.capacity())
            .field("heap_capacity", &self.heap.capacity())
            .field("pooled_types", &self.pool.stacks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_sort(mut pairs: Vec<(u64, u32)>) -> Vec<(u64, u32)> {
        pairs.sort_by_key(|p| p.0); // std stable sort == radix reference
        pairs
    }

    #[test]
    fn radix_matches_stable_comparison_sort() {
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![42],
            vec![5, 5, 5, 5],
            (0..1000).rev().collect(),
            (0..1000).collect(),
            (0..2000).map(|i| (i * 48271) % 701).collect(),
            (0..500).map(|i| (i * 2654435761u64) ^ (i << 40)).collect(),
            vec![u64::MAX, 0, u64::MAX, 1, 1 << 63],
        ];
        for case in cases {
            let mut pairs: Vec<(u64, u32)> = case
                .iter()
                .enumerate()
                .map(|(i, &w)| (w, i as u32))
                .collect();
            let expected = reference_sort(pairs.clone());
            let mut tmp = Vec::new();
            radix_sort_pairs(&mut pairs, &mut tmp);
            assert_eq!(pairs, expected);
        }
    }

    #[test]
    fn cutoff_boundary_is_invisible() {
        // Straddle both cutoffs: RADIX_MIN_LEN (below it the comparison branch runs
        // without histograms) and the adaptive full-entropy crossover at 4096
        // (below it 8 active passes lose to the comparison sort, at it they win).
        // Every length must equal the stable by-word reference on duplicate-heavy,
        // sorted, reversed, and high-entropy keys.
        for len in [
            RADIX_MIN_LEN - 1,
            RADIX_MIN_LEN,
            RADIX_MIN_LEN + 1,
            4095,
            4096,
            4097,
        ] {
            let keysets: [Vec<u64>; 4] = [
                (0..len as u64).map(|i| i % 13).collect(),
                (0..len as u64).collect(),
                (0..len as u64).rev().collect(),
                (0..len as u64)
                    .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i << 40))
                    .collect(),
            ];
            for keys in keysets {
                let mut pairs: Vec<(u64, u32)> = keys
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| (w, i as u32))
                    .collect();
                let expected = reference_sort(pairs.clone());
                let mut tmp = Vec::new();
                radix_sort_pairs(&mut pairs, &mut tmp);
                assert_eq!(pairs, expected, "len {len} diverged across the cutoff");
            }
        }
    }

    #[test]
    fn adaptive_cutoff_weighs_active_passes() {
        // Full-entropy keys (all 8 digit passes active): comparison wins until the
        // 4096 crossover. Low-entropy keys (entropy in one byte): radix wins right
        // from the RADIX_MIN_LEN floor.
        assert!(!radix_beats_comparison(1024, 8));
        assert!(!radix_beats_comparison(2048, 8));
        assert!(!radix_beats_comparison(4095, 8));
        assert!(radix_beats_comparison(4096, 8));
        assert!(radix_beats_comparison(1024, 1));
        assert!(radix_beats_comparison(1024, 3));
        assert!(radix_beats_comparison(1024, 7));
        assert!(!radix_beats_comparison(1024, 8));
        // Degenerate inputs (never reached: the floor is RADIX_MIN_LEN) must not
        // panic on the log2 of 0 or 1.
        assert!(!radix_beats_comparison(0, 0));
        assert!(!radix_beats_comparison(1, 0));
    }

    #[test]
    fn adaptive_branches_agree_with_reference() {
        // 1500 pairs sits above the floor but below the full-entropy crossover:
        // high-entropy keys take the comparison fallback, low-entropy keys the
        // radix passes. Both must equal the stable reference.
        let len = 1500u64;
        let high_entropy: Vec<u64> = (0..len)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i << 40))
            .collect();
        let low_entropy: Vec<u64> = (0..len).map(|i| i % 13).collect();
        for keys in [high_entropy, low_entropy] {
            let mut pairs: Vec<(u64, u32)> = keys
                .iter()
                .enumerate()
                .map(|(i, &w)| (w, i as u32))
                .collect();
            let expected = reference_sort(pairs.clone());
            let mut tmp = Vec::new();
            radix_sort_pairs(&mut pairs, &mut tmp);
            assert_eq!(pairs, expected);
        }
    }

    #[test]
    fn apply_permutation_realizes_sorted_order() {
        let items_orig: Vec<u64> = (0..777).map(|i| (i * 131071) % 997).collect();
        let mut pairs: Vec<(u64, u32)> = items_orig
            .iter()
            .enumerate()
            .map(|(i, &w)| (w, i as u32))
            .collect();
        let mut tmp = Vec::new();
        radix_sort_pairs(&mut pairs, &mut tmp);
        let mut items = items_orig.clone();
        apply_permutation(&mut items, &mut pairs);
        let mut expected = items_orig;
        expected.sort();
        assert_eq!(items, expected);
    }

    #[test]
    fn sort_in_place_is_stable_and_emits_words() {
        let mut bufs = SortBufs::default();
        // (key, payload) records with duplicate keys; stability over payload order.
        let mut items: Vec<(u64, u64)> = (0..300).map(|i| (i % 7, i)).collect();
        let mut words = Vec::new();
        bufs.sort_in_place(&mut items, |t| t.0, &mut words);
        assert_eq!(words.len(), items.len());
        for (w, item) in words.iter().zip(items.iter()) {
            assert_eq!(*w, item.0);
        }
        for pair in items.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
            if pair[0].0 == pair[1].0 {
                assert!(pair[0].1 < pair[1].1, "stability violated");
            }
        }
    }

    #[test]
    fn pool_recycles_capacity() {
        let mut pool = BufferPool::default();
        let mut buf: Vec<u64> = pool.take_buf();
        buf.extend(0..1000);
        let cap = buf.capacity();
        pool.recycle_buf(buf);
        let again: Vec<u64> = pool.take_buf();
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap);
        // Distinct types get distinct stacks.
        let other: Vec<(u64, u64)> = pool.take_buf();
        assert_eq!(other.capacity(), 0);
    }
}
