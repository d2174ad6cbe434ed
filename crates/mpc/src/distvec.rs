//! Distributed vectors: the unit of data the simulated machines operate on.

use crate::config::MpcConfig;
use crate::deal::Deal;
use crate::words::{slice_words, Words};

/// A vector of records partitioned across the simulated machines.
///
/// Machine `i` holds the records in `chunks[i]`. Records are kept in a contiguous
/// global order (chunk 0 first, then chunk 1, ...), matching the array-based view of
/// MPC inputs used in the paper (Section 3). Operations that require communication
/// live on [`MpcContext`](crate::MpcContext); purely machine-local operations
/// (e.g. [`DistVec::map_local`]) are free in the model and live here.
#[derive(Debug, Clone)]
pub struct DistVec<T> {
    chunks: Vec<Vec<T>>,
}

impl<T> DistVec<T> {
    /// Create a distributed vector from explicit per-machine chunks. Outside this
    /// crate the one door is [`unmetered::from_chunks`](crate::unmetered::from_chunks).
    pub(crate) fn from_chunks(chunks: Vec<Vec<T>>) -> Self {
        Self { chunks }
    }

    /// The balanced input layout of
    /// [`MpcContext::from_vec`](crate::MpcContext::from_vec): `data` dealt to the
    /// `chunks.len()` machines by [`Deal`], appended to the given (empty) buffers in
    /// order. There is at least one machine, so the runs hold all of `data`.
    pub(crate) fn fill_balanced(data: Vec<T>, chunks: &mut [Vec<T>]) {
        let deal = Deal::over(data.len(), chunks.len());
        let mut it = data.into_iter();
        for chunk in chunks.iter_mut() {
            chunk.extend(it.by_ref().take(deal.share()));
        }
    }

    /// Re-chunk in place into the balanced input layout — chunk for chunk what
    /// [`MpcContext::from_vec`](crate::MpcContext::from_vec) makes of
    /// [`to_vec`](Self::to_vec) at this chunk count — by shifting records across
    /// chunk boundaries instead of round-tripping through one host vector. Like
    /// `from_vec`, this is host-side placement of an input, not an MPC operation: it
    /// charges nothing, and a caller that uses it on live data meters the moved
    /// records itself.
    ///
    /// Every record moves `O(1)` times whatever the starting layout. A chunk that is
    /// short pulls from the chunks behind it; records a chunk has too many of wait in
    /// a queue for the chunks behind, so the only allocations are that queue (sized by
    /// the imbalance, empty for a vector that only lost records) and chunks outgrowing
    /// their capacity. A vector that is already balanced is left untouched.
    pub fn relayout_balanced(&mut self) {
        let machines = self.chunks.len();
        let deal = Deal::over(self.len(), machines);
        // Records displaced from earlier chunks, in global order: they precede the
        // current chunk's own records.
        let mut displaced: std::collections::VecDeque<T> = std::collections::VecDeque::new();
        for i in 0..machines {
            let want = deal.count(i);
            let (head, tail) = self.chunks.split_at_mut(i + 1);
            let chunk = &mut head[i];
            let from_displaced = displaced.len().min(want);
            let own = (want - from_displaced).min(chunk.len());
            displaced.extend(chunk.drain(own..));
            if from_displaced > 0 {
                chunk.splice(0..0, displaced.drain(..from_displaced));
            }
            // Still short only when nothing is displaced any more: the chunks behind
            // hold the rest.
            let mut donors = tail.iter_mut();
            while chunk.len() < want {
                let donor = donors.next().expect("the chunks behind hold the deficit");
                let take = (want - chunk.len()).min(donor.len());
                chunk.extend(donor.drain(..take));
            }
        }
    }

    /// An empty distributed vector with one (empty) chunk per machine.
    pub fn empty_cfg(cfg: &MpcConfig) -> Self {
        Self {
            chunks: (0..cfg.num_machines()).map(|_| Vec::new()).collect(),
        }
    }

    /// Number of machines (chunks).
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Total number of records across all machines.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// `true` when no machine holds any record.
    pub fn is_empty(&self) -> bool {
        self.chunks.iter().all(Vec::is_empty)
    }

    /// Immutable access to the per-machine chunks.
    pub fn chunks(&self) -> &[Vec<T>] {
        &self.chunks
    }

    /// Mutable access to the per-machine chunks (machine-local computation). Outside
    /// this crate the one door is [`unmetered::chunks_mut`](crate::unmetered::chunks_mut).
    pub(crate) fn chunks_mut(&mut self) -> &mut [Vec<T>] {
        &mut self.chunks
    }

    /// Consume the distributed vector and return the per-machine chunks.
    pub fn into_chunks(self) -> Vec<Vec<T>> {
        self.chunks
    }

    /// Collect all records into a single vector in global order.
    ///
    /// This is a *host-side* convenience (e.g. for tests and result extraction); it does
    /// not correspond to an MPC operation and charges no rounds. It clones every
    /// record — when the distributed vector is not needed afterwards, use the
    /// consuming [`into_vec`](Self::into_vec) instead, which moves the records.
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(self.len());
        for c in &self.chunks {
            out.extend(c.iter().cloned());
        }
        out
    }

    /// Consume the distributed vector and return all records in global order without
    /// cloning (host-side convenience, no rounds). The first chunk's buffer is reused
    /// as the result where possible.
    pub fn into_vec(self) -> Vec<T> {
        let total = self.len();
        let mut chunks = self.chunks.into_iter();
        let mut out = chunks.next().unwrap_or_default();
        out.reserve(total - out.len());
        for c in chunks {
            out.extend(c);
        }
        out
    }

    /// Iterate over all records in global order (host-side convenience).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Apply a machine-local transformation to every record (no communication, 0 rounds).
    pub fn map_local<U, F>(self, f: F) -> DistVec<U>
    where
        F: Fn(&T) -> U,
    {
        DistVec {
            chunks: self
                .chunks
                .iter()
                .map(|c| c.iter().map(&f).collect())
                .collect(),
        }
    }

    /// Apply a machine-local filter to every record (no communication, 0 rounds).
    pub fn filter_local<F>(self, f: F) -> DistVec<T>
    where
        F: Fn(&T) -> bool,
    {
        DistVec {
            chunks: self
                .chunks
                .into_iter()
                .map(|c| c.into_iter().filter(|t| f(t)).collect())
                .collect(),
        }
    }

    /// Apply a machine-local filter-map to every record *by reference* (no
    /// communication, 0 rounds): the way to derive a sparser table from one that
    /// stays in use, without cloning it first.
    pub fn filter_map_local<U, F>(&self, f: F) -> DistVec<U>
    where
        F: Fn(&T) -> Option<U>,
    {
        DistVec {
            chunks: self
                .chunks
                .iter()
                .map(|c| c.iter().filter_map(&f).collect())
                .collect(),
        }
    }

    /// Concatenate two distributed vectors machine-by-machine (no communication,
    /// 0 rounds): machine `i` simply appends the other vector's chunk `i` to its own.
    pub fn concat_local(mut self, other: DistVec<T>) -> DistVec<T> {
        let mut other_chunks = other.into_chunks();
        if other_chunks.len() > self.chunks.len() {
            self.chunks.resize_with(other_chunks.len(), Vec::new);
        }
        for (i, chunk) in other_chunks.drain(..).enumerate() {
            self.chunks[i].extend(chunk);
        }
        self
    }

    /// Pair this vector with `other` record by record (no communication, 0 rounds):
    /// machine `i` combines its `j`-th record of each through `f`. The way to rejoin
    /// the answers of an order-preserving primitive (a key-only
    /// [`join_lookup`](crate::MpcContext::join_lookup),
    /// [`join_lookup2`](crate::MpcContext::join_lookup2) or
    /// [`join_lookup_sorted`](crate::MpcContext::join_lookup_sorted) probe) with the
    /// records the requests were derived from.
    ///
    /// # Panics
    /// Panics unless both vectors have the same chunk shape (machine count and
    /// per-machine record counts): records are only ever paired on the machine that
    /// already holds both.
    pub fn zip_local<U, O, F>(self, other: DistVec<U>, f: F) -> DistVec<O>
    where
        F: Fn(T, U) -> O,
    {
        assert_eq!(
            self.chunks.len(),
            other.chunks.len(),
            "zip_local: machine counts differ"
        );
        DistVec {
            chunks: self
                .chunks
                .into_iter()
                .zip(other.chunks)
                .enumerate()
                .map(|(machine, (a, b))| {
                    assert_eq!(
                        a.len(),
                        b.len(),
                        "zip_local: machine {machine} holds a different number of records"
                    );
                    a.into_iter().zip(b).map(|(t, u)| f(t, u)).collect()
                })
                .collect(),
        }
    }

    /// Apply a machine-local transformation to every machine's **whole chunk** (no
    /// communication, 0 rounds): `f(machine, chunk)` sees the records one machine
    /// holds, in order, and its output stays on that machine — for passes that pair
    /// up neighbouring records, which the per-record maps cannot express.
    pub fn map_chunks_local<U, F>(self, f: F) -> DistVec<U>
    where
        F: Fn(usize, Vec<T>) -> Vec<U>,
    {
        DistVec {
            chunks: self
                .chunks
                .into_iter()
                .enumerate()
                .map(|(machine, c)| f(machine, c))
                .collect(),
        }
    }

    /// Apply a machine-local flat-map to every record (no communication, 0 rounds).
    pub fn flat_map_local<U, F, I>(self, f: F) -> DistVec<U>
    where
        F: Fn(T) -> I,
        I: IntoIterator<Item = U>,
    {
        DistVec {
            chunks: self
                .chunks
                .into_iter()
                .map(|c| c.into_iter().flat_map(&f).collect())
                .collect(),
        }
    }
}

impl<T: Words> DistVec<T> {
    /// Words held by the heaviest machine.
    pub fn max_chunk_words(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| slice_words(c))
            .max()
            .unwrap_or(0)
    }

    /// Total words across all machines.
    pub fn total_words(&self) -> usize {
        self.chunks.iter().map(|c| slice_words(c)).sum()
    }

    /// Words held by each machine.
    pub fn chunk_words(&self) -> Vec<usize> {
        self.chunks.iter().map(|c| slice_words(c)).collect()
    }
}

impl<T> Default for DistVec<T> {
    fn default() -> Self {
        Self {
            chunks: vec![Vec::new()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MpcContext;

    fn cfg() -> MpcConfig {
        MpcConfig::new(256, 0.5)
    }

    /// `data` in the balanced input layout of [`cfg`].
    fn balanced<T: Send + 'static>(data: Vec<T>) -> DistVec<T> {
        MpcContext::new(cfg()).from_vec(data)
    }

    #[test]
    fn from_vec_preserves_order_and_len() {
        let data: Vec<u64> = (0..100).collect();
        let dv = balanced(data.clone());
        assert_eq!(dv.len(), 100);
        assert_eq!(dv.to_vec(), data);
        assert_eq!(dv.num_chunks(), cfg().num_machines());
    }

    #[test]
    fn into_vec_matches_to_vec_without_cloning() {
        let data: Vec<u64> = (0..1000).map(|i| (i * 37) % 101).collect();
        let dv = balanced(data.clone());
        assert_eq!(dv.to_vec(), data);
        assert_eq!(dv.into_vec(), data);
        let empty: DistVec<u64> = DistVec::empty_cfg(&cfg());
        assert!(empty.into_vec().is_empty());
    }

    #[test]
    fn relayout_balanced_matches_from_vec_of_to_vec() {
        let machines = cfg().num_machines();
        // Skewed layouts: everything up front, everything at the back, a sawtooth, a
        // balanced layout that lost and gained a few records, and the empty vector.
        let layouts: Vec<Vec<usize>> = vec![
            (0..machines)
                .map(|i| if i == 0 { 300 } else { 0 })
                .collect(),
            (0..machines)
                .map(|i| if i + 1 == machines { 300 } else { 0 })
                .collect(),
            (0..machines).map(|i| (i * 7) % 23).collect(),
            (0..machines)
                .map(|i| match i {
                    0 => 9,
                    3 => 7,
                    5 => 12,
                    _ if i < 12 => 10,
                    _ => 0,
                })
                .collect(),
            vec![0; machines],
        ];
        for sizes in layouts {
            let mut next = 0u64;
            let chunks: Vec<Vec<u64>> = sizes
                .iter()
                .map(|&len| {
                    let chunk = (next..next + len as u64).collect();
                    next += len as u64;
                    chunk
                })
                .collect();
            let mut dv = DistVec::from_chunks(chunks);
            let expected = balanced(dv.to_vec());
            dv.relayout_balanced();
            assert_eq!(dv.chunks(), expected.chunks(), "layout {sizes:?}");
        }
    }

    #[test]
    fn empty_has_zero_len() {
        let dv: DistVec<u64> = DistVec::empty_cfg(&cfg());
        assert!(dv.is_empty());
        assert_eq!(dv.len(), 0);
    }

    #[test]
    fn map_filter_flatmap_are_local() {
        let dv = balanced((0u64..50).collect());
        let mapped = dv.map_local(|x| x * 2);
        assert_eq!(mapped.to_vec()[49], 98);
        let filtered = mapped.filter_local(|x| x % 4 == 0);
        assert!(filtered.to_vec().iter().all(|x| x % 4 == 0));
        let halves = filtered.filter_map_local(|x| (x % 8 == 0).then_some(x / 2));
        assert!(halves.to_vec().iter().all(|x| x % 4 == 0));
        assert_eq!(halves.num_chunks(), filtered.num_chunks());
        let expanded = filtered.flat_map_local(|x| vec![x, x + 1]);
        assert_eq!(expanded.len() % 2, 0);
    }

    #[test]
    fn zip_local_pairs_records_where_they_lie() {
        let left = balanced((0u64..50).collect());
        let right = left.clone().map_local(|x| x * 10);
        let shape: Vec<usize> = left.chunks().iter().map(Vec::len).collect();
        let zipped = left.zip_local(right, |a, b| (a, b));
        assert_eq!(
            zipped.chunks().iter().map(Vec::len).collect::<Vec<_>>(),
            shape
        );
        assert!(zipped
            .iter()
            .enumerate()
            .all(|(i, &(a, b))| a == i as u64 && b == 10 * a));
        let empty: DistVec<u64> = DistVec::empty_cfg(&cfg());
        assert!(empty.clone().zip_local(empty, |a, b| a + b).is_empty());
    }

    #[test]
    #[should_panic(expected = "different number of records")]
    fn zip_local_rejects_a_chunk_shape_mismatch() {
        // Same total, same machine count, one record on the wrong machine.
        let left = DistVec::from_chunks(vec![vec![1u64, 2], vec![3]]);
        let right = DistVec::from_chunks(vec![vec![1u64], vec![2, 3]]);
        let _ = left.zip_local(right, |a, b| a + b);
    }

    #[test]
    #[should_panic(expected = "machine counts differ")]
    fn zip_local_rejects_a_machine_count_mismatch() {
        let left = DistVec::from_chunks(vec![vec![1u64], vec![]]);
        let right = DistVec::from_chunks(vec![vec![1u64]]);
        let _ = left.zip_local(right, |a, b| a + b);
    }

    #[test]
    fn words_accounting() {
        let dv = balanced((0u64..64).collect());
        assert_eq!(dv.total_words(), 64);
        assert!(dv.max_chunk_words() >= 1);
        assert_eq!(dv.chunk_words().iter().sum::<usize>(), 64);
    }

    #[test]
    fn chunk_balance_is_even() {
        let dv = balanced((0u64..256).collect());
        let max = dv.chunks().iter().map(Vec::len).max().unwrap();
        let min_nonempty = dv
            .chunks()
            .iter()
            .map(Vec::len)
            .filter(|&l| l > 0)
            .min()
            .unwrap();
        assert!(max - min_nonempty <= max);
        assert!(max <= cfg().local_capacity());
    }
}
