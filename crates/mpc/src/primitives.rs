//! Deterministic `O(1)`-round MPC primitives: sorting, indexing, joins, and group
//! gathering (Section 2 of the paper; [Goodrich '99], [Goodrich–Sitchinava–Zhang '11],
//! [Czumaj–Davies–Parter '21]).
//!
//! The simulator does not re-derive the (intricate) communication schedules of those
//! sorting networks; it performs the data movement directly and charges the number of
//! rounds the deterministic algorithms are known to need (`O(1)` for any constant `δ`).
//! The round constants live on [`MpcContext`]:
//!
//! * [`sort_rounds`](MpcContext::sort_rounds) — one deterministic sort;
//! * [`join_rounds`](MpcContext::join_rounds) — a fused sort-merge equi-join: requests
//!   and table are sorted *together* in one exchange, merged locally, and the answers
//!   routed back (`sort_rounds + 1`);
//! * [`lookup_rounds`](MpcContext::lookup_rounds) — a probe against a pre-sorted
//!   [`SortedTable`]: the table's range partition is known, so every request routes
//!   directly to its partner machine and the answer routes back (2 rounds).
//!
//! Communication volume follows the moved-words convention shared with
//! `route`/`rebalance`: only words whose source machine differs from their destination
//! machine are recorded as sent/received — records that end up where they already were
//! never touch the network. The memory of the resulting layout is accounted exactly.
//!
//! ## The radix fast path
//!
//! All primitives are keyed by [`SortKey`]. In `sort_by_key`, `sort_with_index`,
//! and `gather_groups`, keys with a monotone `u64` embedding (`K::IS_WORD` — node
//! ids, cluster ids, weights, …, i.e. every key on the paper's hot path) are sorted
//! through reusable scratch buffers ([`crate::scratch`]): each key is computed
//! exactly once per record into a `(word, index)` pair, per-chunk runs are sorted in
//! place (short runs by a comparison sort of the pairs, long runs by a linear-time
//! LSD radix over the key bytes), and the runs are combined by the same stable
//! k-way merge as the comparison path (ties broken by source chunk = global input
//! order). Output order, labels, and metrics are bit-identical to the comparison
//! path that composite keys take; the tests reach it for word keys through a key
//! newtype with the same order and `IS_WORD = false`. The flat table indexes of
//! `join_lookup`/`sort_table` instead use an allocation-free unstable lexicographic
//! sort on both key paths — measured faster than LSD-plus-permutation at realistic
//! table sizes, and identical in order. On the fast path every such index also
//! carries the segmented bucket [`Directory`] the solve plan's routing runs use, so a
//! probe searches one bucket of a few entries instead of the whole index, however
//! node, auxiliary and cluster ids mix in the table (see [`SortedIndex`]).

use crate::context::MpcContext;
use crate::deal::Deal;
use crate::directory::Directory;
use crate::distvec::DistVec;
use crate::scratch::{BufferPool, Scratch};
use crate::sortkey::SortKey;
use crate::words::Words;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Globally sort per-machine chunks by `key`, returning `(key, record, source_chunk)`
/// triples in stable sorted order (the comparison fallback of the sorting core).
///
/// Every chunk is decorated and sorted locally, then the sorted runs are combined by a
/// k-way merge whose heap orders ties by source chunk index — which is exactly the
/// order a stable sort of the concatenated input produces. Each key is computed once
/// per record.
fn global_sort<T, K, F>(chunks: Vec<Vec<T>>, key: &F) -> Vec<(K, T, usize)>
where
    K: Ord,
    F: Fn(&T) -> K,
{
    let total: usize = chunks.iter().map(Vec::len).sum();
    // K-way merge of the sorted runs, ties broken by source chunk (= global order).
    let mut iters: Vec<std::vec::IntoIter<(K, T)>> = chunks
        .into_iter()
        .map(|chunk| {
            let mut run: Vec<(K, T)> = chunk.into_iter().map(|t| (key(&t), t)).collect();
            run.sort_by(|a, b| a.0.cmp(&b.0));
            run.into_iter()
        })
        .collect();
    let mut pending: Vec<Option<T>> = iters.iter().map(|_| None).collect();
    let mut heap: BinaryHeap<Reverse<(K, usize)>> = BinaryHeap::with_capacity(iters.len());
    for (src, it) in iters.iter_mut().enumerate() {
        if let Some((k, t)) = it.next() {
            heap.push(Reverse((k, src)));
            pending[src] = Some(t);
        }
    }
    let mut out = Vec::with_capacity(total);
    while let Some(Reverse((k, src))) = heap.pop() {
        let t = pending[src].take().expect("pending record for heap head");
        out.push((k, t, src));
        if let Some((k2, t2)) = iters[src].next() {
            heap.push(Reverse((k2, src)));
            pending[src] = Some(t2);
        }
    }
    out
}

/// Drive the stable k-way merge over the word runs prepared by
/// [`MpcContext::sort_chunks_by_word`]: calls `emit(global_index, key_word, source
/// run)` for every record in globally sorted order, ties broken by source run — the
/// exact order of the comparison path's merge.
fn merge_word_runs(
    words: &[u64],
    bounds: &[usize],
    pos: &mut Vec<usize>,
    heap: &mut BinaryHeap<Reverse<(u64, u32)>>,
    mut emit: impl FnMut(usize, u64, usize),
) {
    let runs = bounds.len().saturating_sub(1);
    pos.clear();
    pos.resize(runs, 0);
    heap.clear();
    for r in 0..runs {
        if bounds[r] < bounds[r + 1] {
            heap.push(Reverse((words[bounds[r]], r as u32)));
        }
    }
    let mut i = 0usize;
    while let Some(Reverse((w, r))) = heap.pop() {
        let run = r as usize;
        emit(i, w, run);
        i += 1;
        pos[run] += 1;
        let next = bounds[run] + pos[run];
        if next < bounds[run + 1] {
            heap.push(Reverse((words[next], r)));
        }
    }
}

/// The sorted `(key, chunk, position)` index of a table: the one probe structure
/// behind `join_lookup`, `join_lookup2`, [`SortedTable`] and the fused convergence
/// loop in `context.rs` ([`MpcContext::try_converge`]). Built by
/// [`MpcContext::build_sorted_index`]; holds references into the table it was built
/// from, never cloned records.
///
/// Word keys (the radix fast path) are probed through the shared segmented
/// [`Directory`], so a probe searches one bucket; composite keys binary-search the
/// whole index. Both return the first entry with the key.
#[derive(Debug, Clone)]
pub(crate) struct SortedIndex<K> {
    /// `(key, source chunk, position within chunk)` in ascending key order; ties keep
    /// table order, so "first record with a key" is by construction the first hit.
    entries: Vec<(K, u32, u32)>,
    /// The directory over the entries' key words; empty for composite keys.
    dir: Directory,
}

impl<K: SortKey> SortedIndex<K> {
    /// The first entry (in table order) whose key equals `k`.
    #[inline]
    pub(crate) fn get(&self, k: &K) -> Option<&(K, u32, u32)> {
        let bucket = if K::IS_WORD {
            &self.entries[self.dir.bucket(k.to_word())]
        } else {
            &self.entries[..]
        };
        let first = bucket.partition_point(|e| e.0 < *k);
        bucket.get(first).filter(|e| e.0 == *k)
    }

    /// Hand the entries and the directory back to the pool they were drawn from.
    pub(crate) fn recycle(self, pool: &mut BufferPool)
    where
        K: 'static,
    {
        pool.recycle_buf(self.entries);
        self.dir.recycle(pool);
    }
}

/// A table sorted once so that any number of
/// [`join_lookup_sorted`](crate::MpcContext::join_lookup_sorted) probes can reuse the work — the repeated-lookup
/// pattern of the clustering builder, the solver's view assembly, and the incremental
/// solver. Built by [`MpcContext::sort_table`]; positional, like the index it wraps.
#[derive(Debug, Clone)]
pub struct SortedTable<K> {
    index: SortedIndex<K>,
    /// Per-chunk record counts of the table this index was built from. Probing checks
    /// the probed table against this shape — a **structural** guard (it catches
    /// resized, re-chunked, or regenerated-at-a-different-size tables, not a
    /// same-shape table with different contents; the handle is positional, so using
    /// it with any table other than the one it indexed is a caller bug).
    chunk_lens: Vec<u32>,
}

impl<K> SortedTable<K> {
    /// `true` when `table` has exactly the chunk shape this index was built from.
    fn shape_matches<V>(&self, table: &DistVec<V>) -> bool {
        self.chunk_lens.len() == table.num_chunks()
            && self
                .chunk_lens
                .iter()
                .zip(table.chunks())
                .all(|(&len, chunk)| len as usize == chunk.len())
    }

    /// Number of indexed table records.
    pub fn len(&self) -> usize {
        self.index.entries.len()
    }

    /// `true` when the indexed table was empty.
    pub fn is_empty(&self) -> bool {
        self.index.entries.is_empty()
    }
}

/// Per-request probe of a sorted index (shared by `join_lookup` and
/// `join_lookup_sorted`): returns the answer chunks in request order plus the total
/// word count of the table records that were hit. Answer chunks are drawn from the
/// buffer pool and the drained request chunks are recycled into it, so the hottest
/// probe path stays free of allocator churn like every other primitive.
#[allow(clippy::type_complexity)]
fn probe_index<T, V, K, FT>(
    requests: DistVec<T>,
    req_key: &FT,
    table: &DistVec<V>,
    index: &SortedIndex<K>,
    pool: &mut BufferPool,
) -> (Vec<Vec<(T, Option<V>)>>, usize)
where
    T: Send + 'static,
    V: Words + Clone + Send + 'static,
    K: SortKey,
    FT: Fn(&T) -> K,
{
    let mut req_chunks = requests.into_chunks();
    let mut chunks: Vec<Vec<(T, Option<V>)>> = pool.take_bufs(req_chunks.len());
    let mut hits_words = 0usize;
    for (reqs, out) in req_chunks.iter_mut().zip(&mut chunks) {
        out.reserve(reqs.len());
        for req in reqs.drain(..) {
            let k = req_key(&req);
            let found = index.get(&k).map(|e| {
                let v = table.chunks()[e.1 as usize][e.2 as usize].clone();
                hits_words += v.words();
                v
            });
            out.push((req, found));
        }
    }
    pool.recycle_bufs(req_chunks);
    (chunks, hits_words)
}

impl MpcContext {
    /// Sort every chunk in place by the `u64` image of its key, leaving each chunk's
    /// sorted key words in the scratch arena (`words` runs delimited by `bounds`).
    /// Reuses the context's scratch and allocates nothing in steady state.
    fn sort_chunks_by_word<T, W>(&mut self, chunks: &mut [Vec<T>], word: &W)
    where
        W: Fn(&T) -> u64,
    {
        let total: usize = chunks.iter().map(Vec::len).sum();
        let sc = &mut self.scratch;
        sc.words.clear();
        sc.words.reserve(total);
        sc.bounds.clear();
        sc.bounds.push(0);
        for chunk in chunks.iter_mut() {
            sc.sort
                .sort_in_place(chunk.as_mut_slice(), |t| word(t), &mut sc.words);
            sc.bounds.push(sc.words.len());
        }
    }

    /// The shared core of [`sort_by_key`](Self::sort_by_key) and
    /// [`sort_with_index`](Self::sort_with_index): globally sort, then redistribute
    /// into balanced chunks, mapping every record through `make(global_index, record)`
    /// on its way out. Radix fast path for word keys, comparison fallback otherwise;
    /// identical order, accounting, and rounds either way.
    fn sort_impl<T, K, F, O, M>(
        &mut self,
        dv: DistVec<T>,
        key: F,
        make: M,
        what: &'static str,
    ) -> DistVec<O>
    where
        T: Words + Send + 'static,
        K: SortKey,
        F: Fn(&T) -> K,
        O: Words + Send + 'static,
        M: Fn(u64, T) -> O,
    {
        let machines = self.config().num_machines();
        let srcs = dv.num_chunks();
        let total = dv.len();
        let deal = Deal::over(total, machines);
        self.scratch.reset_counters(machines.max(srcs), machines);
        let mut out: Vec<Vec<O>> = self.scratch.pool.take_bufs(machines);
        // Every destination's share is known up front; pre-sized, no push below regrows.
        for (d, buf) in out.iter_mut().enumerate() {
            buf.reserve(deal.count(d));
        }

        if K::IS_WORD {
            let mut chunks = dv.into_chunks();
            self.sort_chunks_by_word(&mut chunks, &|t: &T| key(t).to_word());
            let Scratch {
                words,
                bounds,
                pos,
                heap,
                sends,
                recvs,
                ..
            } = &mut self.scratch;
            let mut drains: Vec<_> = chunks.iter_mut().map(|c| c.drain(..)).collect();
            merge_word_runs(words, bounds, pos, heap, |i, _w, src| {
                let item = drains[src].next().expect("run length matches drain");
                let d = deal.machine(i);
                if d != src {
                    let w = item.words();
                    sends[src] += w;
                    recvs[d] += w;
                }
                out[d].push(make(i as u64, item));
            });
            drop(drains);
            self.scratch.pool.recycle_bufs(chunks);
        } else {
            let sorted = global_sort(dv.into_chunks(), &key);
            let Scratch { sends, recvs, .. } = &mut self.scratch;
            for (i, (_key, item, src)) in sorted.into_iter().enumerate() {
                let d = deal.machine(i);
                if d != src {
                    let w = item.words();
                    sends[src] += w;
                    recvs[d] += w;
                }
                out[d].push(make(i as u64, item));
            }
        }

        let sends = std::mem::take(&mut self.scratch.sends);
        let recvs = std::mem::take(&mut self.scratch.recvs);
        self.charge_rounds(self.sort_rounds());
        self.record_comm(&sends, &recvs, what);
        self.scratch.sends = sends;
        self.scratch.recvs = recvs;
        let result = DistVec::from_chunks(out);
        self.check_memory(&result, what);
        result
    }

    /// Sort records by `key` (stable, deterministic) and return them evenly partitioned
    /// in sorted order. Charges [`sort_rounds`](Self::sort_rounds) rounds. Word keys
    /// take the linear-time radix path. Communication volume counts only records whose
    /// sorted position lands on a different machine than the one they started on.
    pub fn sort_by_key<T, K, F>(&mut self, dv: DistVec<T>, key: F) -> DistVec<T>
    where
        T: Words + Send + 'static,
        K: SortKey,
        F: Fn(&T) -> K,
    {
        self.sort_impl(dv, key, |_, t| t, "sort_by_key")
    }

    /// Fused sort + global indexing: sort records by `key` and attach to every record
    /// its global (0-based) position in the sorted order — in **one** exchange.
    ///
    /// Charges [`sort_rounds`](Self::sort_rounds) rounds, versus
    /// `sort_rounds + agg_rounds` for `sort_by_key` followed by
    /// [`with_index`](Self::with_index): the sort's own routing already fixes every
    /// record's global position, so the index is attached at the destination for free
    /// (no second prefix-sum exchange). Volume counts the moved records, exactly as in
    /// `sort_by_key` — the index word is derived locally, never shipped.
    pub fn sort_with_index<T, K, F>(&mut self, dv: DistVec<T>, key: F) -> DistVec<(u64, T)>
    where
        T: Words + Send + 'static,
        K: SortKey,
        F: Fn(&T) -> K,
    {
        self.sort_impl(dv, key, |i, t| (i, t), "sort_with_index")
    }

    /// Attach the global (0-based) position to every record, preserving the current
    /// order. Costs a prefix sum over per-machine counts
    /// ([`agg_rounds`](Self::agg_rounds) rounds): every machine sends its local count
    /// up the aggregation tree and receives its global offset back, which is the one
    /// word per machine per direction recorded as communication volume. When the data
    /// is about to be sorted anyway, prefer the fused
    /// [`sort_with_index`](Self::sort_with_index).
    pub fn with_index<T>(&mut self, dv: DistVec<T>) -> DistVec<(u64, T)>
    where
        T: Words,
    {
        // A machine's base offset is the result of the simulated prefix sum; the
        // decoration is machine-local.
        let mut next = 0u64;
        let chunks: Vec<Vec<(u64, T)>> = dv
            .into_chunks()
            .into_iter()
            .map(|chunk| {
                let base = next;
                next += chunk.len() as u64;
                (base..).zip(chunk).collect()
            })
            .collect();
        let rounds = self.agg_rounds();
        self.charge_rounds(rounds);
        // One word (the machine-local count) travels up and one offset travels back
        // down per machine.
        self.record_uniform_comm(1, "with_index");
        let result = DistVec::from_chunks(chunks);
        self.check_memory(&result, "with_index");
        result
    }

    /// Build the [`SortedIndex`] of a table — the machine-local share of a table
    /// sort; charges nothing (callers account for the rounds). Its buffers come from
    /// the scratch pool; [`SortedIndex::recycle`] returns them. `pub(crate)` so
    /// the fused convergence loop ([`Self::try_converge`], `context.rs`) builds its
    /// state index with the same machinery.
    pub(crate) fn build_sorted_index<V, K, FV>(
        &mut self,
        table: &DistVec<V>,
        key: &FV,
    ) -> SortedIndex<K>
    where
        K: SortKey + 'static,
        FV: Fn(&V) -> K,
    {
        let mut entries: Vec<(K, u32, u32)> = self.scratch.pool.take_buf();
        entries.reserve(table.len());
        for (c, chunk) in table.chunks().iter().enumerate() {
            assert!(
                chunk.len() <= u32::MAX as usize,
                "table chunk too large for u32 index"
            );
            for (i, v) in chunk.iter().enumerate() {
                entries.push((key(v), c as u32, i as u32));
            }
        }
        // Lexicographic (key, chunk, position) order equals a stable by-key sort —
        // the positions are distinct and ascending per key — so the unstable sort
        // (no temporary buffer, unlike `sort_by`) is safe on both key paths.
        entries.sort_unstable();

        let mut dir = Directory::pooled(&mut self.scratch.pool);
        if K::IS_WORD {
            dir.fill(&entries, |e| e.0.to_word());
        }
        SortedIndex { entries, dir }
    }

    /// Sort a table once for any number of
    /// [`join_lookup_sorted`](Self::join_lookup_sorted) probes.
    ///
    /// Charges one sort plus the broadcast of the resulting range-partition
    /// boundaries (`sort_rounds + agg_rounds`); every machine's share of the table is
    /// recorded as moved volume. The returned handle references the table by position
    /// and is only valid for the exact table it was built from (probing with a
    /// mismatched table panics).
    pub fn sort_table<V, K, FV>(&mut self, table: &DistVec<V>, key: FV) -> SortedTable<K>
    where
        V: Words,
        K: SortKey + 'static,
        FV: Fn(&V) -> K,
    {
        let index = self.build_sorted_index(table, &key);
        let machines = self.config().num_machines();
        let per_machine = table.total_words().div_ceil(machines.max(1));
        self.charge_rounds(self.sort_rounds() + self.agg_rounds());
        self.record_uniform_comm(per_machine, "sort_table");
        SortedTable {
            index,
            chunk_lens: table.chunks().iter().map(|c| c.len() as u32).collect(),
        }
    }

    /// Look up, for every request record, the (unique) table record with the same key.
    ///
    /// Returns `(request, Some(table_record))` pairs, or `None` when no table record
    /// has that key. When several table records share a key, the first in table order
    /// wins; algorithms in this workspace only join on unique keys. Charged as a
    /// **fused** sort-merge equi-join ([`join_rounds`](Self::join_rounds) `=
    /// sort_rounds + 1`): requests and table are sorted together in one exchange,
    /// merged machine-locally, and the answers routed back.
    ///
    /// Re-joining against the same table sorts it again; when a table is probed more
    /// than once, build a [`SortedTable`] with [`sort_table`](Self::sort_table) and
    /// use [`join_lookup_sorted`](Self::join_lookup_sorted) instead.
    ///
    /// Requests are billed at the width they are passed: volume per machine is
    /// `⌈(table words + request words) / machines⌉`. The answers come back in request
    /// order, machine by machine, so send the bare key and rejoin each answer with
    /// the record it belongs to through [`DistVec::zip_local`], on the machine that
    /// already holds that record.
    #[allow(clippy::type_complexity)]
    pub fn join_lookup<T, V, K, FT, FV>(
        &mut self,
        requests: DistVec<T>,
        req_key: FT,
        table: &DistVec<V>,
        table_key: FV,
    ) -> DistVec<(T, Option<V>)>
    where
        T: Words + Send + 'static,
        V: Words + Clone + Send + 'static,
        K: SortKey + 'static,
        FT: Fn(&T) -> K,
        FV: Fn(&V) -> K,
    {
        let index = self.build_sorted_index(table, &table_key);
        let table_words = table.total_words();
        let req_words = requests.total_words();
        let machines = self.config().num_machines();
        let per_machine_moved = (table_words + req_words).div_ceil(machines.max(1));

        let (chunks, _hits) =
            probe_index(requests, &req_key, table, &index, &mut self.scratch.pool);
        index.recycle(&mut self.scratch.pool);

        self.charge_rounds(self.join_rounds());
        self.record_uniform_comm(per_machine_moved, "join_lookup");
        let result = DistVec::from_chunks(chunks);
        self.check_memory(&result, "join_lookup");
        result
    }

    /// [`join_lookup`](Self::join_lookup) against a table sorted once by
    /// [`sort_table`](Self::sort_table).
    ///
    /// Charges [`lookup_rounds`](Self::lookup_rounds) (= 2) rounds: the table's range
    /// partition is already known, so every request routes directly to the machine
    /// owning its key range and the answer routes back — no sort. Volume records the
    /// requests' round trip plus the table records they hit. Duplicate-key semantics
    /// match `join_lookup` (first record in table order wins).
    ///
    /// # Panics
    /// Panics if `sorted` was built from a table with a different chunk shape
    /// (machine count or per-machine record counts). This structural check catches
    /// resized or re-chunked tables; a *same-shape* table with different contents
    /// cannot be detected — the handle is positional and only valid for the exact
    /// table it indexed.
    #[allow(clippy::type_complexity)]
    pub fn join_lookup_sorted<T, V, K, FT>(
        &mut self,
        requests: DistVec<T>,
        req_key: FT,
        table: &DistVec<V>,
        sorted: &SortedTable<K>,
    ) -> DistVec<(T, Option<V>)>
    where
        T: Words + Send + 'static,
        V: Words + Clone + Send + 'static,
        K: SortKey,
        FT: Fn(&T) -> K,
    {
        assert!(
            sorted.shape_matches(table),
            "SortedTable was built from a different table (chunk shape mismatch)"
        );
        let req_words = requests.total_words();
        let machines = self.config().num_machines();
        let (chunks, hits_words) = probe_index(
            requests,
            &req_key,
            table,
            &sorted.index,
            &mut self.scratch.pool,
        );
        let per_machine_moved = (2 * req_words + hits_words).div_ceil(machines.max(1));
        self.charge_rounds(self.lookup_rounds());
        self.record_uniform_comm(per_machine_moved, "join_lookup_sorted");
        let result = DistVec::from_chunks(chunks);
        self.check_memory(&result, "join_lookup_sorted");
        result
    }

    /// Look up, for every request record, the (unique) table records matching **two**
    /// key columns of the request — a fused two-column sort-merge equi-join.
    ///
    /// Returns `(request, hit1, hit2)` triples where `hit1` / `hit2` answer
    /// `req_key1` / `req_key2` with the same semantics as
    /// [`join_lookup`](Self::join_lookup) (first record in table order wins on
    /// duplicate keys, `None` on a miss). Charged as **one** fused join
    /// ([`join_rounds`](Self::join_rounds)): the table and both request key columns
    /// ride the same deterministic sort — each request record is placed twice, once
    /// per probed key — the merge is machine-local, and both answers route back to
    /// the request in the single return round. Volume per side is
    /// `(table words + 2 · request words) / machines`: the table's sorted share plus
    /// one moved copy of the requests per probed column. Replaces the
    /// `sort_table` + two `join_lookup_sorted` sequence (`sort_rounds + agg_rounds +
    /// 4` rounds) with `sort_rounds + 1` whenever the table is probed exactly twice.
    /// As with `join_lookup`, a request is billed twice at its full width: send the
    /// key pair alone and rejoin the answers, which keep request order, with
    /// [`DistVec::zip_local`].
    #[allow(clippy::type_complexity)]
    pub fn join_lookup2<T, V, K, F1, F2, FV>(
        &mut self,
        requests: DistVec<T>,
        req_key1: F1,
        req_key2: F2,
        table: &DistVec<V>,
        table_key: FV,
    ) -> DistVec<(T, Option<V>, Option<V>)>
    where
        T: Words + Send + 'static,
        V: Words + Clone + Send + 'static,
        K: SortKey + 'static,
        F1: Fn(&T) -> K,
        F2: Fn(&T) -> K,
        FV: Fn(&V) -> K,
    {
        let index = self.build_sorted_index(table, &table_key);
        let table_words = table.total_words();
        let req_words = requests.total_words();
        let machines = self.config().num_machines();
        let per_machine_moved = (table_words + 2 * req_words).div_ceil(machines.max(1));

        let mut req_chunks = requests.into_chunks();
        let mut chunks: Vec<Vec<(T, Option<V>, Option<V>)>> =
            self.scratch.pool.take_bufs(req_chunks.len());
        for (reqs, out) in req_chunks.iter_mut().zip(&mut chunks) {
            out.reserve(reqs.len());
            for req in reqs.drain(..) {
                let first = index
                    .get(&req_key1(&req))
                    .map(|e| table.chunks()[e.1 as usize][e.2 as usize].clone());
                let second = index
                    .get(&req_key2(&req))
                    .map(|e| table.chunks()[e.1 as usize][e.2 as usize].clone());
                out.push((req, first, second));
            }
        }
        self.scratch.pool.recycle_bufs(req_chunks);
        index.recycle(&mut self.scratch.pool);

        self.charge_rounds(self.join_rounds());
        self.record_uniform_comm(per_machine_moved, "join_lookup2");
        let result = DistVec::from_chunks(chunks);
        self.check_memory(&result, "join_lookup2");
        result
    }

    /// Group records by key and deliver each complete group to a single machine.
    ///
    /// This is the "make every cluster reside on one machine" step of Section 5.1/5.2:
    /// after sorting by the grouping key a group spans at most two machines, and one
    /// extra routing round moves each group entirely onto one machine
    /// (`sort_rounds + 1` rounds). Requires every group to fit into local memory
    /// (checked). Communication volume counts only the member records whose source
    /// machine differs from their group's destination machine (a group's key is
    /// derived from its members, it is not shipped separately). Word keys take the
    /// radix path; grouping by equal key words equals grouping by equal keys because
    /// the [`SortKey`] embedding is injective.
    ///
    /// Whole groups are placed in key order by their first word: a group goes to the
    /// machine on which a [`Deal`] of the total words over all machines puts its first
    /// word. No machine holds more than `⌈total words ÷ machines⌉` words plus one
    /// group. This is the single-run case of
    /// [`gather_group_runs`](Self::gather_group_runs).
    pub fn gather_groups<T, K, F>(&mut self, dv: DistVec<T>, key: F) -> DistVec<(K, Vec<T>)>
    where
        T: Words + Send + 'static,
        K: SortKey + Words,
        F: Fn(&T) -> K,
    {
        self.gather_runs_impl(dv, key, |_| 0, T::words, "gather_groups")
            .0
    }

    /// [`gather_groups`](Self::gather_groups) for a table that is the union of several
    /// **runs** — contiguous key ranges, `run_of` naming the run of a record — in one
    /// sort: every run's groups are spread over **all** machines exactly as a
    /// `gather_groups` call on that run alone would place them, instead of the runs
    /// lying side by side on one machine range each. Machine `i` receives its groups
    /// run by run, in key order. This is how one exchange assembles the clusters of
    /// every layer of a clustering while each layer's evaluation still uses every
    /// machine.
    ///
    /// Placement is dealt at a width the caller states: a group counts as its key's
    /// words, one word, and `deal_width` of every record, and goes to the machine its
    /// first such word falls on in its own run's [`Deal`]. With `deal_width` the
    /// records' own [`Words`] a machine holds at most one share and one group per run,
    /// as `gather_groups` does; a caller that keeps a placement fixed while its records
    /// narrow states the old width. The sends, the receives and the memory check
    /// always count each record's own words.
    ///
    /// Charges `sort_rounds + 1 + agg_rounds`: the sort and the routing round of
    /// `gather_groups`, plus one aggregate that makes the per-run dealt totals (the
    /// balancing targets, one word per run) known to every machine.
    ///
    /// # Panics
    /// Panics unless `run_of` is constant over every group and non-decreasing along
    /// the key order.
    pub fn gather_group_runs<T, K, F, R, D>(
        &mut self,
        dv: DistVec<T>,
        key: F,
        run_of: R,
        deal_width: D,
    ) -> DistVec<(K, Vec<T>)>
    where
        T: Words + Send + 'static,
        K: SortKey + Words,
        F: Fn(&T) -> K,
        R: Fn(&T) -> u32,
        D: Fn(&T) -> usize,
    {
        let (result, runs) =
            self.gather_runs_impl(dv, key, run_of, deal_width, "gather_group_runs");
        self.charge_rounds(self.agg_rounds());
        self.record_uniform_comm(runs, "gather_group_runs");
        result
    }

    /// The one gather: sort by key, cut the sorted order into groups and the groups
    /// into runs, and place every group on the machine on which its run's [`Deal`]
    /// puts its first word — the deal of the run's words counted at `deal_width` per
    /// record, the group's key words and one word each. Charges the sort and the
    /// routing round, and bills the moved records and the receiving machines' memory
    /// at the records' own words; returns the number of runs beside the placed groups
    /// so that [`gather_group_runs`](Self::gather_group_runs) can price the aggregate
    /// of their dealt totals.
    #[allow(clippy::type_complexity)]
    fn gather_runs_impl<T, K, F, R, D>(
        &mut self,
        dv: DistVec<T>,
        key: F,
        run_of: R,
        deal_width: D,
        what: &'static str,
    ) -> (DistVec<(K, Vec<T>)>, usize)
    where
        T: Words + Send + 'static,
        K: SortKey + Words,
        F: Fn(&T) -> K,
        R: Fn(&T) -> u32,
        D: Fn(&T) -> usize,
    {
        let machines = self.config().num_machines();
        let srcs = dv.num_chunks();
        // Build groups, remembering each member's source machine for the accounting.
        let mut groups: Vec<(K, Vec<(T, usize)>)> = Vec::new();
        if K::IS_WORD {
            let mut chunks = dv.into_chunks();
            self.sort_chunks_by_word(&mut chunks, &|t: &T| key(t).to_word());
            let Scratch {
                words,
                bounds,
                pos,
                heap,
                ..
            } = &mut self.scratch;
            let mut drains: Vec<_> = chunks.iter_mut().map(|c| c.drain(..)).collect();
            let mut last_word: Option<u64> = None;
            merge_word_runs(words, bounds, pos, heap, |_i, w, src| {
                let item = drains[src].next().expect("run length matches drain");
                if last_word == Some(w) {
                    groups
                        .last_mut()
                        .expect("group open for repeated word")
                        .1
                        .push((item, src));
                } else {
                    last_word = Some(w);
                    // One extra key evaluation per *group* (not per record) recovers
                    // the typed key from its representative member.
                    groups.push((key(&item), vec![(item, src)]));
                }
            });
            drop(drains);
            self.scratch.pool.recycle_bufs(chunks);
        } else {
            let sorted = global_sort(dv.into_chunks(), &key);
            for (k, item, src) in sorted {
                match groups.last_mut() {
                    Some((gk, items)) if *gk == k => items.push((item, src)),
                    _ => groups.push((k, vec![(item, src)])),
                }
            }
        }
        // Cut the groups into runs: `(run, number of groups, dealt total)` each.
        let mut group_words: Vec<usize> = Vec::with_capacity(groups.len());
        let mut runs: Vec<(u32, usize, usize)> = Vec::new();
        for (k, items) in &groups {
            let w = k.words() + 1 + items.iter().map(|(t, _)| deal_width(t)).sum::<usize>();
            group_words.push(w);
            let run = run_of(&items[0].0);
            assert!(
                items.iter().all(|(t, _)| run_of(t) == run),
                "{what}: a group straddles two runs"
            );
            match runs.last_mut() {
                Some(open) if open.0 == run => {
                    open.1 += 1;
                    open.2 += w;
                }
                open => {
                    assert!(
                        !open.is_some_and(|open| open.0 >= run),
                        "{what}: runs must not decrease along the key order"
                    );
                    runs.push((run, 1, w));
                }
            }
        }
        // Place whole groups run by run: a group goes where its run's deal over all
        // machines puts its first word.
        self.scratch.reset_counters(machines.max(srcs), machines);
        let mut chunks: Vec<Vec<(K, Vec<T>)>> = (0..machines).map(|_| Vec::new()).collect();
        {
            let Scratch { sends, recvs, .. } = &mut self.scratch;
            let mut groups = groups.into_iter().zip(group_words);
            for &(_, len, total) in &runs {
                let deal = Deal::over(total, machines);
                let mut before = 0usize;
                for ((k, items), w) in groups.by_ref().take(len) {
                    let machine = deal.machine(before);
                    before += w;
                    let members: Vec<T> = items
                        .into_iter()
                        .map(|(item, src)| {
                            if src != machine {
                                let iw = item.words();
                                sends[src] += iw;
                                recvs[machine] += iw;
                            }
                            item
                        })
                        .collect();
                    chunks[machine].push((k, members));
                }
            }
        }
        let result = DistVec::from_chunks(chunks);
        let sends = std::mem::take(&mut self.scratch.sends);
        let recvs = std::mem::take(&mut self.scratch.recvs);
        self.charge_rounds(self.sort_rounds() + 1);
        self.record_comm(&sends, &recvs, what);
        self.scratch.sends = sends;
        self.scratch.recvs = recvs;
        self.check_memory(&result, what);
        (result, runs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpcConfig;
    use std::collections::BTreeMap;

    fn ctx(n: usize) -> MpcContext {
        MpcContext::new(MpcConfig::new(n, 0.5))
    }

    /// A key with the order of the key it wraps and `IS_WORD = false`: word keys
    /// wrapped in it take the comparison path, the reference for the radix path.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Cmp<K>(K);

    impl<K: SortKey> SortKey for Cmp<K> {}

    impl<K: Words> Words for Cmp<K> {
        fn words(&self) -> usize {
            self.0.words()
        }
    }

    #[test]
    fn sort_orders_globally() {
        let mut c = ctx(1024);
        let data: Vec<u64> = (0..500).map(|i| (i * 7919) % 1000).collect();
        let dv = c.from_vec(data.clone());
        let sorted = c.sort_by_key(dv, |x| *x).into_vec();
        let mut expected = data;
        expected.sort();
        assert_eq!(sorted, expected);
        assert!(c.metrics().rounds >= c.sort_rounds());
    }

    #[test]
    fn sort_is_stable() {
        let mut c = ctx(256);
        let data: Vec<(u64, u64)> = (0..100).map(|i| (i % 5, i)).collect();
        let dv = c.from_vec(data);
        let sorted = c.sort_by_key(dv, |x| x.0).into_vec();
        for w in sorted.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated");
            }
        }
    }

    #[test]
    fn sort_counts_only_moved_words() {
        // Already-sorted input distributed evenly: every record's sorted position is
        // its current position, so nothing moves and nothing is charged as volume.
        let mut c = ctx(1024);
        let dv = c.from_vec((0u64..512).collect());
        let _ = c.sort_by_key(dv, |x| *x);
        assert_eq!(c.metrics().total_words_sent, 0);
        assert_eq!(c.metrics().max_words_sent_per_round, 0);
        // Reversed input: now (almost) everything crosses machines.
        let mut c2 = ctx(1024);
        let dv2 = c2.from_vec((0u64..512).rev().collect());
        let _ = c2.sort_by_key(dv2, |x| *x);
        assert!(c2.metrics().total_words_sent > 0);
    }

    #[test]
    fn sort_radix_toggle_is_bit_identical() {
        // The radix fast path and the comparison fallback must agree on output,
        // rounds, and volume for word keys (`tests/integration_radix.rs` covers every
        // sorting primitive on adversarial keys; this is the smoke check).
        let data: Vec<(u64, u64)> = (0..1500).map(|i| ((i * 31) % 97, i)).collect();
        let (mut fast, mut slow) = (ctx(4096), ctx(4096));
        let dv = fast.from_vec(data.clone());
        let fast_out = fast.sort_by_key(dv, |x| x.0).into_vec();
        let dv = slow.from_vec(data);
        let slow_out = slow.sort_by_key(dv, |x| Cmp(x.0)).into_vec();
        assert_eq!(fast_out, slow_out);
        let (fast_m, slow_m) = (fast.metrics(), slow.metrics());
        assert_eq!(fast_m.rounds, slow_m.rounds);
        assert_eq!(fast_m.total_words_sent, slow_m.total_words_sent);
        assert_eq!(fast_m.peak_local_memory, slow_m.peak_local_memory);
    }

    #[test]
    fn sort_with_index_matches_sort_then_with_index_minus_one_exchange() {
        let data: Vec<u64> = (0..800).map(|i| (i * 2654435761) % 4093).collect();
        // Fused path.
        let mut c = ctx(2048);
        let dv = c.from_vec(data.clone());
        let fused = c.sort_with_index(dv, |x| *x).into_vec();
        let fused_rounds = c.metrics().rounds;
        // Separate sort + with_index.
        let mut c2 = ctx(2048);
        let dv2 = c2.from_vec(data);
        let sorted = c2.sort_by_key(dv2, |x| *x);
        let separate = c2.with_index(sorted).into_vec();
        assert_eq!(fused, separate);
        assert_eq!(fused_rounds, c.sort_rounds());
        assert_eq!(c2.metrics().rounds, c2.sort_rounds() + c2.agg_rounds());
        assert!(fused_rounds < c2.metrics().rounds);
        for (i, (idx, _)) in fused.iter().enumerate() {
            assert_eq!(*idx, i as u64);
        }
    }

    #[test]
    fn with_index_is_sequential() {
        let mut c = ctx(256);
        let dv = c.from_vec((100u64..200).collect());
        let indexed = c.with_index(dv).into_vec();
        for (i, (idx, val)) in indexed.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*val, 100 + i as u64);
        }
    }

    #[test]
    fn with_index_records_offset_exchange_volume() {
        // Regression: the prefix-sum offset exchange used to charge rounds but record
        // zero communication volume.
        let mut c = ctx(256);
        let machines = c.config().num_machines() as u64;
        let dv = c.from_vec((0u64..100).collect());
        let _ = c.with_index(dv);
        assert_eq!(c.metrics().rounds, c.agg_rounds());
        assert_eq!(c.metrics().total_words_sent, machines);
        assert_eq!(c.metrics().max_words_sent_per_round, 1);
    }

    #[test]
    fn join_lookup_finds_parents() {
        let mut c = ctx(1024);
        let table = c.from_vec((0u64..100).map(|i| (i, i * i)).collect::<Vec<_>>());
        let requests = c.from_vec(vec![3u64, 7, 99, 200]);
        let joined = c.join_lookup(requests, |r| *r, &table, |t| t.0).into_vec();
        assert_eq!(joined[0].1, Some((3, 9)));
        assert_eq!(joined[1].1, Some((7, 49)));
        assert_eq!(joined[2].1, Some((99, 99 * 99)));
        assert_eq!(joined[3].1, None);
    }

    #[test]
    fn join_lookup_charges_fused_join_rounds() {
        let mut c = ctx(1024);
        let table = c.from_vec((0u64..50).map(|i| (i, i)).collect::<Vec<_>>());
        let requests = c.from_vec(vec![1u64, 2, 3]);
        let _ = c.join_lookup(requests, |r| *r, &table, |t| t.0);
        assert_eq!(c.metrics().rounds, c.join_rounds());
        assert_eq!(c.join_rounds(), c.sort_rounds() + 1);
    }

    /// Probe a 300-row, 600-word table with `requests` through `join_lookup` (`k = 1`)
    /// or `join_lookup2` (`k = 2`, the second column one key further); returns the
    /// request words and the per-machine charge, after checking that every machine
    /// was billed alike.
    fn join_charge<T>(requests: Vec<T>, key: fn(&T) -> u64, k: usize) -> (usize, usize)
    where
        T: Words + Send + 'static,
    {
        let mut c = ctx(1024);
        let machines = c.config().num_machines();
        let table = c.from_vec((0u64..300).map(|i| (i, i)).collect::<Vec<_>>());
        let requests = c.from_vec(requests);
        let request_words = requests.total_words();
        if k == 1 {
            c.join_lookup(requests, key, &table, |t| t.0);
        } else {
            c.join_lookup2(requests, key, |r| key(r) + 1, &table, |t| t.0);
        }
        let per_machine = c.metrics().max_words_sent_per_round;
        assert_eq!(
            c.metrics().total_words_sent,
            (machines * per_machine) as u64
        );
        (request_words, per_machine)
    }

    #[test]
    fn join_lookups_bill_requests_at_the_width_they_are_passed() {
        // Every machine is billed `⌈(table + k · requests) / machines⌉` words, `k` the
        // number of probed key columns: a caller that ships whole records where a key
        // would do pays for every word of them.
        let machines = ctx(1024).config().num_machines();
        let keys: Vec<u64> = (0u64..100).map(|i| i * 3).collect();
        let records: Vec<[u64; 12]> = keys.iter().map(|&key| [key; 12]).collect();
        for k in [1, 2] {
            let charges = [
                join_charge(keys.clone(), |r| *r, k),
                join_charge(records.clone(), |r| r[0], k),
            ];
            for ((request_words, per_machine), width) in charges.into_iter().zip([1, 12]) {
                assert_eq!(request_words, width * keys.len());
                let billed = (600 + k * request_words).div_ceil(machines);
                assert_eq!(
                    per_machine, billed,
                    "{width}-word requests, {k} key columns"
                );
            }
        }
    }

    #[test]
    fn join_lookup_duplicate_keys_take_first() {
        let mut c = ctx(256);
        let table = c.from_vec(vec![(5u64, 1u64), (5, 2), (6, 3)]);
        let requests = c.from_vec(vec![5u64]);
        let joined = c.join_lookup(requests, |r| *r, &table, |t| t.0).into_vec();
        assert_eq!(joined[0].1, Some((5, 1)));
    }

    /// Index `keys` with the bucket directory (word keys) and without it (the same
    /// keys wrapped in [`Cmp`]) and check that both answer every probe like a
    /// `partition_point` search over the sorted entries.
    fn check_index<K>(keys: Vec<K>, probes: &[K])
    where
        K: SortKey + Words + Copy + std::fmt::Debug + 'static,
    {
        check_index_of(keys.clone(), probes, K::IS_WORD);
        let wrapped: Vec<Cmp<K>> = probes.iter().map(|&k| Cmp(k)).collect();
        check_index_of(keys.into_iter().map(Cmp).collect(), &wrapped, false);
    }

    fn check_index_of<K>(keys: Vec<K>, probes: &[K], directory: bool)
    where
        K: SortKey + Words + Copy + std::fmt::Debug + 'static,
    {
        let mut c = ctx(256);
        let table = c.from_vec(keys.clone());
        let index = c.build_sorted_index(&table, &|k: &K| *k);
        assert_eq!(index.dir.is_empty(), !directory || keys.is_empty());
        assert_eq!(index.entries.len(), keys.len());
        for k in probes.iter().chain(&keys) {
            let first = index.entries.partition_point(|e| e.0 < *k);
            let plain = index.entries.get(first).filter(|e| e.0 == *k);
            assert_eq!(index.get(k), plain, "probe {k:?}");
            assert_eq!(plain.is_some(), keys.contains(k));
        }
    }

    #[test]
    fn sorted_index_directory_agrees_with_plain_search() {
        // Dense keys (one bucket each) and misses below, between and above.
        check_index((10u64..200).collect(), &[0, 9, 200, 5000, u64::MAX]);
        check_index(
            (0u64..300).map(|i| i * 7 + 3).collect(),
            &[0, 4, 11, 2097, 2104],
        );
        // First key 0 and shift 0: the bucket of `u64::MAX` lies past the last one.
        check_index((0u64..64).collect(), &[64, u64::MAX]);
        // Huge gaps: every far-off key opens a segment of its own.
        check_index(
            vec![0u64, 1, u64::MAX - 1],
            &[2, 1 << 40, u64::MAX - 2, u64::MAX],
        );
        check_index(vec![u64::MAX, 5, 1 << 63, 6], &[0, 4, 7, (1 << 63) + 1]);
        // All keys equal: one bucket, first record in table order wins.
        check_index(vec![42u64; 50], &[41, 43]);
        // Empty and single-entry indexes.
        check_index(Vec::<u64>::new(), &[0, 1, u64::MAX]);
        check_index(vec![77u64], &[0, 76, 78, u64::MAX]);
        // Signed keys straddling zero, and the extremes.
        check_index(
            (-40i64..40).map(|i| i * 3).collect(),
            &[-121, -2, 1, 2, 118, 500],
        );
        check_index(
            vec![i64::MIN, -1, 0, i64::MAX],
            &[i64::MIN + 1, -2, 1, i64::MAX - 1],
        );
        // Composite keys never get a directory.
        check_index(
            vec![(1u64, 2u64), (1, 1), (0, 9)],
            &[(0, 0), (1, 0), (2, 2)],
        );
    }

    #[test]
    fn mixed_id_spaces_keep_every_bucket_small() {
        // One table holding the three id spaces of a clustering's element table: node
        // ids below 2^16, auxiliary ids from 2^44 (`AUX_BASE` in `tree-clustering`)
        // and cluster ids from 2^62 (its `CLUSTER_FLAG`, with the layer at bit 48).
        let mut keys: Vec<u64> = (0..3000).collect();
        keys.extend((0..200).map(|k| (1 << 44) + k));
        for layer in 1..=3u64 {
            keys.extend((0..1000 >> layer).map(|k| (1 << 62) | (layer << 48) | (3 * k)));
        }
        let probes: Vec<u64> = keys.iter().map(|k| k + 1).collect();
        check_index(keys.clone(), &probes);
        let mut c = ctx(1 << 14);
        let table = c.from_vec(keys.clone());
        let index = c.build_sorted_index(&table, &|k: &u64| *k);
        for k in keys.iter().chain(&probes) {
            let bucket = index.dir.bucket(*k);
            assert!(
                bucket.len() <= 4,
                "key {k:#x}: a bucket of {}",
                bucket.len()
            );
        }
    }

    #[test]
    fn sorted_index_keeps_first_hit_on_duplicate_keys() {
        let mut c = ctx(256);
        let table = c.from_vec(vec![(9u64, 'a'), (3, 'b'), (9, 'c'), (3, 'd'), (9, 'e')]);
        let index = c.build_sorted_index(&table, &|t: &(u64, char)| t.0);
        let hit = |k: u64| {
            let e = index.get(&k).expect("key is present");
            table.chunks()[e.1 as usize][e.2 as usize].1
        };
        assert_eq!((hit(3), hit(9)), ('b', 'a'));
    }

    #[test]
    fn sorted_table_probes_match_join_lookup() {
        let mut c = ctx(1024);
        let table = c.from_vec((0u64..200).map(|i| (i * 3, i)).collect::<Vec<_>>());
        let reqs: Vec<u64> = vec![0, 3, 4, 9, 300, 597, 600];
        let req_dv = c.from_vec(reqs.clone());
        let direct = c.join_lookup(req_dv, |r| *r, &table, |t| t.0).into_vec();
        let sorted = c.sort_table(&table, |t| t.0);
        let req_dv = c.from_vec(reqs.clone());
        let probed = c
            .join_lookup_sorted(req_dv, |r| *r, &table, &sorted)
            .into_vec();
        assert_eq!(direct, probed);
        // Duplicate keys: first table record wins on both paths.
        let dup = c.from_vec(vec![(7u64, 1u64), (7, 2)]);
        let dup_sorted = c.sort_table(&dup, |t| t.0);
        let seven = c.from_vec(vec![7u64]);
        let hit = c
            .join_lookup_sorted(seven, |r| *r, &dup, &dup_sorted)
            .into_vec();
        assert_eq!(hit[0].1, Some((7, 1)));
    }

    #[test]
    fn sorted_table_amortizes_rounds_over_probes() {
        // k probes against one sorted table must cost build + k * lookup_rounds,
        // strictly less than k fused joins for k >= 2 at this size.
        let mut c = ctx(4096);
        let table = c.from_vec((0u64..300).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let sorted = c.sort_table(&table, |t| t.0);
        let build = c.metrics().rounds;
        assert_eq!(build, c.sort_rounds() + c.agg_rounds());
        for _ in 0..3 {
            let reqs = c.from_vec((0u64..40).collect::<Vec<_>>());
            let _ = c.join_lookup_sorted(reqs, |r| *r, &table, &sorted);
        }
        assert_eq!(c.metrics().rounds, build + 3 * c.lookup_rounds());
        assert!(c.metrics().rounds < 3 * c.join_rounds());
    }

    #[test]
    #[should_panic(expected = "different table")]
    fn sorted_table_rejects_mismatched_table() {
        let mut c = ctx(256);
        let table = c.from_vec((0u64..10).collect::<Vec<_>>());
        let other = c.from_vec((0u64..11).collect::<Vec<_>>());
        let sorted = c.sort_table(&table, |t| *t);
        let one = c.from_vec(vec![1u64]);
        let _ = c.join_lookup_sorted(one, |r| *r, &other, &sorted);
    }

    #[test]
    fn join_lookup2_matches_two_separate_joins() {
        let mut c = ctx(1024);
        let table = c.from_vec((0u64..120).map(|i| (i, i * 10)).collect::<Vec<_>>());
        let reqs: Vec<(u64, u64)> = vec![(3, 7), (0, 119), (5, 500), (400, 401)];
        let req_dv = c.from_vec(reqs.clone());
        let fused = c
            .join_lookup2(req_dv, |r| r.0, |r| r.1, &table, |t| t.0)
            .into_vec();
        // Reference: the same two lookups, one key at a time.
        let req_dv = c.from_vec(reqs.clone());
        let first = c.join_lookup(req_dv, |r| r.0, &table, |t| t.0).into_vec();
        let req_dv = c.from_vec(reqs);
        let second = c.join_lookup(req_dv, |r| r.1, &table, |t| t.0).into_vec();
        for ((f, a), b) in fused.iter().zip(first).zip(second) {
            assert_eq!((f.0, f.1), (a.0, a.1));
            assert_eq!((f.0, f.2), (b.0, b.1));
        }
        assert_eq!(fused[2].1, Some((5, 50)));
        assert_eq!(fused[2].2, None);
        assert_eq!(fused[3].1, None);
        assert_eq!(fused[3].2, None);
    }

    #[test]
    fn join_lookup2_charges_one_fused_join() {
        let mut c = ctx(1024);
        let table = c.from_vec((0u64..50).map(|i| (i, i)).collect::<Vec<_>>());
        let requests = c.from_vec(vec![(1u64, 2u64), (3, 4)]);
        let table_words = table.total_words();
        let req_words = requests.total_words();
        let machines = c.config().num_machines();
        let _ = c.join_lookup2(requests, |r| r.0, |r| r.1, &table, |t| t.0);
        assert_eq!(c.metrics().rounds, c.join_rounds());
        // Strictly fewer rounds than the sort_table + two probes it replaces.
        assert!(c.join_rounds() < c.sort_rounds() + c.agg_rounds() + 2 * c.lookup_rounds());
        // Volume: the table's sorted share plus one request copy per probed column.
        let expected = (table_words + 2 * req_words).div_ceil(machines) * machines;
        assert_eq!(c.metrics().total_words_sent, expected as u64);
    }

    #[test]
    fn join_lookup2_duplicate_keys_take_first() {
        let mut c = ctx(256);
        let table = c.from_vec(vec![(5u64, 1u64), (5, 2), (6, 3)]);
        let requests = c.from_vec(vec![(5u64, 6u64)]);
        let joined = c
            .join_lookup2(requests, |r| r.0, |r| r.1, &table, |t| t.0)
            .into_vec();
        assert_eq!(joined[0].1, Some((5, 1)));
        assert_eq!(joined[0].2, Some((6, 3)));
    }

    #[test]
    fn gather_groups_collects_all_members() {
        let mut c = ctx(1024);
        let data: Vec<(u64, u64)> = (0..300).map(|i| (i % 10, i)).collect();
        let dv = c.from_vec(data);
        let groups = c.gather_groups(dv, |x| x.0).into_vec();
        assert_eq!(groups.len(), 10);
        for (k, items) in &groups {
            assert_eq!(items.len(), 30);
            assert!(items.iter().all(|(g, _)| g == k));
        }
        // Each group lives on exactly one machine by construction of the result type.
    }

    #[test]
    fn gather_groups_counts_only_moved_words() {
        let mut c = ctx(1024);
        let data: Vec<(u64, u64)> = (0..300).map(|i| (i % 10, i)).collect();
        let dv = c.from_vec(data.clone());
        let input_words = dv.total_words();
        let _ = c.gather_groups(dv, |x| x.0);
        let sent = c.metrics().total_words_sent as usize;
        // Strictly less than "everything moved" (the old convention charged input plus
        // output words), and symmetric between send and receive sides.
        assert!(
            sent < input_words,
            "sent {sent} of {input_words} input words"
        );
        // A layout where all records already sit on the machine every group lands on
        // moves nothing at all.
        let mut c2 = ctx(256);
        let machines = c2.config().num_machines();
        let mut chunks: Vec<Vec<(u64, u64)>> = (0..machines).map(|_| Vec::new()).collect();
        chunks[0] = (0u64..8).map(|i| (7, i)).collect();
        let dv2 = DistVec::from_chunks(chunks);
        let _ = c2.gather_groups(dv2, |x: &(u64, u64)| x.0);
        assert_eq!(c2.metrics().total_words_sent, 0);
    }

    #[test]
    fn gather_groups_radix_toggle_is_bit_identical() {
        let data: Vec<(u64, u64)> = (0..900).map(|i| ((i * 131) % 23, i)).collect();
        let (mut fast, mut slow) = (ctx(2048), ctx(2048));
        let dv = fast.from_vec(data.clone());
        let fast_out = fast.gather_groups(dv, |x| x.0).into_vec();
        let dv = slow.from_vec(data);
        let slow_out = slow.gather_groups(dv, |x| Cmp(x.0)).into_vec();
        let slow_out: Vec<_> = slow_out.into_iter().map(|(k, g)| (k.0, g)).collect();
        assert_eq!(fast_out, slow_out);
        let (fast_m, slow_m) = (fast.metrics(), slow.metrics());
        assert_eq!(fast_m.rounds, slow_m.rounds);
        assert_eq!(fast_m.total_words_sent, slow_m.total_words_sent);
    }

    #[test]
    fn gather_groups_empty_input() {
        let mut c = ctx(256);
        let dv: DistVec<(u64, u64)> = c.empty();
        let groups = c.gather_groups(dv, |x| x.0);
        assert!(groups.is_empty());
    }

    /// Records `(key, payload)` whose run is the key's hundreds digit: three runs of
    /// very different sizes, interleaved in the input.
    fn run_data() -> Vec<(u64, u64)> {
        (0..1200u64)
            .map(|i| {
                let run = [0, 2, 2, 5, 2, 5][(i % 6) as usize];
                (100 * run + (i * 31) % (7 + 9 * run), i)
            })
            .collect()
    }

    fn run_of(r: &(u64, u64)) -> u32 {
        (r.0 / 100) as u32
    }

    #[test]
    fn gather_group_runs_places_every_run_like_its_own_gather_groups() {
        let mut c = ctx(4096);
        let dv = c.from_vec(run_data());
        let machines = c.config().num_machines();
        let placed = c.gather_group_runs(dv.clone(), |r| r.0, run_of, Words::words);
        assert_eq!(
            c.metrics().rounds,
            c.sort_rounds() + 1 + c.agg_rounds(),
            "one sort, one routing round, one aggregate — whatever the run count"
        );
        let words = c.metrics().total_words_sent;

        // The reference: one gather_groups per run, chunks concatenated per machine.
        let mut r = ctx(4096);
        let mut expected = vec![Vec::new(); machines];
        for run in [0u32, 2, 5] {
            let part = dv.clone().filter_local(|rec| run_of(rec) == run);
            let gathered = r.gather_groups(part, |rec| rec.0);
            assert!(
                gathered.chunks().iter().filter(|c| !c.is_empty()).count() > 1,
                "run {run} spreads over several machines"
            );
            for (machine, chunk) in gathered.chunks().iter().enumerate() {
                expected[machine].extend(chunk.iter().cloned());
            }
        }
        assert_eq!(placed.chunks(), &expected[..]);
        // Same moved members; the aggregate adds one word per run and machine.
        assert_eq!(
            words,
            r.metrics().total_words_sent + 3 * machines as u64,
            "moved-member volume equals the per-run gathers'"
        );
        // A single run is gather_groups itself, plus the aggregate's charge.
        let mut single = ctx(4096);
        let one_run = single.gather_group_runs(dv.clone(), |r| r.0, |_| 9, Words::words);
        let mut plain = ctx(4096);
        assert_eq!(one_run.chunks(), plain.gather_groups(dv, |r| r.0).chunks());
        assert_eq!(
            single.metrics().rounds,
            plain.metrics().rounds + plain.agg_rounds()
        );
    }

    /// A record of the words it states, whatever it holds.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Billed((u64, u64), usize);

    impl Words for Billed {
        fn words(&self) -> usize {
            self.1
        }
    }

    /// Dealt at a stated width, 2-word records land where records of that width
    /// would, while the moved words and the receive peak count their own 2 words.
    #[test]
    fn gather_group_runs_deals_at_the_stated_width() {
        let mut narrow = ctx(4096);
        let dv = narrow.from_vec(run_data());
        let placed = narrow.gather_group_runs(dv, |r| r.0, run_of, |_| 12);
        let mut wide = ctx(4096);
        let dv = wide.from_vec(run_data().into_iter().map(|r| Billed(r, 12)).collect());
        let reference = wide.gather_group_runs(dv, |b| b.0 .0, |b| run_of(&b.0), Words::words);
        let rebilled: Vec<Vec<_>> = placed
            .into_chunks()
            .into_iter()
            .map(|chunk| {
                let groups = chunk.into_iter();
                let billed = |g: Vec<_>| g.into_iter().map(|r| Billed(r, 12)).collect();
                groups.map(|(k, g)| (k, billed(g))).collect()
            })
            .collect();
        assert_eq!(rebilled, reference.into_chunks(), "placement");
        // The aggregate of the three run totals bills one word per run and machine.
        let aggregate = 3 * narrow.config().num_machines() as u64;
        let (n, w) = (narrow.metrics(), wide.metrics());
        assert!(n.total_words_sent > aggregate);
        assert_eq!(
            6 * (n.total_words_sent - aggregate),
            w.total_words_sent - aggregate
        );
        assert!(n.peak_local_memory < w.peak_local_memory);
    }

    #[test]
    fn gather_group_runs_radix_toggle_changes_nothing() {
        let metrics = |c: &MpcContext| {
            let m = c.metrics();
            let peaks = (m.max_words_sent_per_round, m.peak_local_memory);
            (m.rounds, m.total_words_sent, peaks)
        };
        let (mut fast, mut slow) = (ctx(4096), ctx(4096));
        let dv = fast.from_vec(run_data());
        let placed: Vec<Vec<_>> = fast
            .gather_group_runs(dv, |r| r.0, run_of, Words::words)
            .into_chunks()
            .into_iter()
            .map(|chunk| chunk.into_iter().map(|(k, g)| (Cmp(k), g)).collect())
            .collect();
        let dv = slow.from_vec(run_data());
        let reference = slow.gather_group_runs(dv, |r| Cmp(r.0), run_of, Words::words);
        assert_eq!(placed, reference.into_chunks(), "comparison path");
        assert_eq!(metrics(&fast), metrics(&slow), "comparison path");
    }

    #[test]
    #[should_panic(expected = "runs must not decrease")]
    fn gather_group_runs_rejects_non_monotone_runs() {
        let mut c = ctx(256);
        let dv = c.from_vec(vec![(1u64, 0u64), (2, 0), (3, 0)]);
        let _ = c.gather_group_runs(dv, |r| r.0, |r| [0, 5, 4, 4][r.0 as usize], Words::words);
    }

    #[test]
    #[should_panic(expected = "straddles two runs")]
    fn gather_group_runs_rejects_a_group_in_two_runs() {
        let mut c = ctx(256);
        let dv = c.from_vec(vec![(1u64, 0u64), (1, 1)]);
        let _ = c.gather_group_runs(dv, |r| r.0, |r| r.1 as u32, Words::words);
    }

    #[test]
    fn gather_group_runs_empty_input() {
        let mut c = ctx(256);
        let dv: DistVec<(u64, u64)> = c.empty();
        let groups = c.gather_group_runs(dv, |x| x.0, run_of, Words::words);
        assert!(groups.is_empty());
        assert_eq!(groups.num_chunks(), c.config().num_machines());
        assert_eq!(c.metrics().total_words_sent, 0);
    }

    /// Equal groups whose word size does not divide the per-machine target: a machine
    /// that closed one group short of its target would push every machine's
    /// shortfall onto the last one.
    #[test]
    fn gather_groups_does_not_pile_shortfalls_on_the_last_machine() {
        let mut c = ctx(4096);
        let machines = c.config().num_machines();
        // Two `(key, payload)` members per group: 1 key word, 1 vector word, 4 member
        // words. Just under 65 / 6 groups per machine leaves the target at 65 words.
        let group = 6;
        let groups = 65 * machines / group;
        let target = (group * groups).div_ceil(machines);
        assert_ne!(
            target % group,
            0,
            "the target must not be a multiple of a group"
        );
        let data: Vec<(u64, u64)> = (0..2 * groups as u64)
            .map(|i| (i % groups as u64, i))
            .collect();
        let dv = c.from_vec(data);
        let placed = c.gather_groups(dv, |r| r.0);
        let loads = placed.chunk_words();
        assert_eq!(loads.iter().sum::<usize>(), group * groups);
        let last = loads[machines - 1];
        assert!(
            last <= target + group,
            "last machine holds {last} words against a target of {target}"
        );
        assert!(loads.iter().all(|&w| w <= target + group), "{loads:?}");
    }

    /// Random group sizes in one to three runs: every group lands on machine
    /// `⌊words before it in its run ÷ ⌈run words ÷ machines⌉⌋`, so no machine holds
    /// more than one target and one largest group per run.
    #[test]
    fn gather_group_runs_places_every_group_by_its_first_word() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |bound: u64| {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        for case in 0..48 {
            let mut c = ctx([256, 1024, 4096][case % 3]);
            let machines = c.config().num_machines();
            let runs = 1 + next(3);
            let mut data: Vec<(u64, u64)> = Vec::new();
            for run in 0..runs {
                let widest = [1, 4, 40, 400][next(4) as usize];
                for g in 0..next(6 * machines as u64) {
                    let key = run * 1_000_000 + g;
                    data.extend((0..1 + next(widest)).map(|i| (key, i)));
                }
            }
            // Shuffle the input order so that members start on many machines.
            for i in (1..data.len()).rev() {
                data.swap(i, next(i as u64 + 1) as usize);
            }
            let dv = c.from_vec(data.clone());
            let placed =
                c.gather_group_runs(dv, |r| r.0, |r| (r.0 / 1_000_000) as u32, Words::words);

            // The reference: group sizes in key order, dealt per run by prefix.
            let mut sizes: BTreeMap<u64, usize> = BTreeMap::new();
            for (key, _) in &data {
                *sizes.entry(*key).or_default() += 1;
            }
            let mut expected: Vec<Vec<u64>> = vec![Vec::new(); machines];
            let mut bound = 0;
            for run in 0..runs {
                let groups: Vec<(u64, usize)> = sizes
                    .range(run * 1_000_000..(run + 1) * 1_000_000)
                    .map(|(&key, &len)| (key, 2 + 2 * len))
                    .collect();
                let total: usize = groups.iter().map(|g| g.1).sum();
                let target = total.div_ceil(machines).max(1);
                bound += target + groups.iter().map(|g| g.1).max().unwrap_or(0);
                let mut before = 0;
                for (key, w) in groups {
                    expected[before / target].push(key);
                    before += w;
                }
            }
            let keys: Vec<Vec<u64>> = placed
                .chunks()
                .iter()
                .map(|chunk| chunk.iter().map(|g| g.0).collect())
                .collect();
            assert_eq!(keys, expected, "case {case}");
            let loads = placed.chunk_words();
            assert!(loads.iter().all(|&w| w <= bound), "case {case}: {loads:?}");
        }
    }

    #[test]
    fn composite_keys_use_the_comparison_fallback() {
        // Tuple keys have no word embedding; the primitives must still work.
        let mut c = ctx(512);
        let data: Vec<(u64, u64)> = (0..200).map(|i| (i % 4, i % 7)).collect();
        let dv = c.from_vec(data.clone());
        let sorted = c.sort_by_key(dv, |x| (x.0, x.1)).into_vec();
        let mut expected = data;
        expected.sort();
        assert_eq!(sorted, expected);
    }
}
