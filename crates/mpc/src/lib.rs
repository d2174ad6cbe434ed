//! # `mpc-engine` — a simulator of the Massively Parallel Computation (MPC) model
//!
//! This crate simulates the MPC model used throughout the paper
//! *"Fast Dynamic Programming in Trees in the MPC Model"* (SPAA 2023):
//!
//! * the input consists of `n` words distributed over `Θ(n^{1-δ})` machines,
//! * every machine has `Θ(n^δ)` words of local memory for a constant `0 < δ < 1`,
//! * computation proceeds in synchronous **communication rounds**; in one round a
//!   machine may send and receive at most `Θ(n^δ)` words,
//! * the complexity measure is the number of rounds (local computation is free but
//!   kept lightweight by the algorithms).
//!
//! The simulator runs in a single process but *measures what the model measures*:
//! rounds, words sent/received per machine per round, and peak local memory in words.
//! Violations of the memory or bandwidth caps are recorded (and optionally turned into
//! hard errors in [`strict`](MpcConfig::strict) mode), so algorithm implementations can
//! be checked against the model rather than merely executed.
//!
//! ## Accounting convention: only moved words count
//!
//! Every primitive records communication volume for exactly the words whose source
//! machine differs from their destination machine. A record that a sort, a routing
//! step, or a group gathering leaves on the machine it already occupies never touches
//! the (simulated) network and contributes nothing to `total_words_sent` or the
//! per-round bandwidth peaks — matching what a real MPC deployment would pay.
//! Aggregation-tree primitives ([`all_reduce`](MpcContext::all_reduce),
//! [`scan`](MpcContext::scan) and its prefix sums,
//! the offset exchange of [`with_index`](MpcContext::with_index)) record the
//! per-machine control words they exchange through the tree.
//!
//! ## Machine-local execution
//!
//! The model treats machine-local computation as free, but the simulator still has to
//! perform it: the machine-local share of every primitive — bucket construction in
//! routing, per-chunk sorting, per-request joins, outbox construction in
//! [`communicate`](MpcContext::communicate) — runs on the calling thread, one machine
//! after the other.
//!
//! ## Main types
//!
//! * [`MpcConfig`] — the model parameters (`n`, `δ`, slack constants).
//! * [`MpcContext`] — a running MPC system: owns the metrics and exposes the
//!   communication primitives.
//! * [`DistVec`] — a vector of records partitioned contiguously across machines; the
//!   unit of data that primitives operate on.
//! * Deterministic `O(1)`-round primitives from Section 2 of the paper:
//!   [`MpcContext::sort_by_key`], [`MpcContext::scan`] / [`MpcContext::prefix_sums`],
//!   [`MpcContext::all_reduce`], [`MpcContext::join_lookup`],
//!   [`MpcContext::route`], [`MpcContext::rebalance`],
//!   [`MpcContext::gather_groups`] — plus the fused variants
//!   [`MpcContext::sort_with_index`], [`MpcContext::sort_table`] /
//!   [`MpcContext::join_lookup_sorted`] ([`SortedTable`]) for repeated lookups
//!   against one table,
//!   [`MpcContext::join_lookup2`] for probing two key columns in one fused join,
//!   and [`MpcContext::try_converge`] / [`MpcContext::converge`] — the fused
//!   jump-join loop with convergence skipping behind the clustering subroutines
//!   and the Euler-tour rooting, step-bounded and failing with a typed
//!   [`ConvergeError`], whose per-machine participation lands in
//!   [`Metrics::convergence`] as [`ConvergenceTrace`]s.
//! * [`Deal`] — the one placement rule: a layout of records, or of whole groups by
//!   their first word, dealt to the machines in shares of `⌈total ÷ machines⌉`.
//! * [`Directory`] — the segmented bucket directory over a key-sorted run that every
//!   word-keyed probe goes through.
//!
//! ## Sorting fast path and scratch reuse
//!
//! Sort keys implement [`SortKey`]; keys with a monotone `u64` embedding take a
//! linear-time LSD radix path whose output, labels, and metrics are bit-identical to
//! the comparison path composite keys take; on the same condition join and
//! `converge` probes go through a segmented bucket [`Directory`] — the one directory
//! behind every word-keyed probe, the solve plan's routing runs included.
//! Each context owns a scratch arena (radix buffers, merge heap, counters, and a
//! record-buffer pool fed by consumed inputs and [`MpcContext::from_vec`]), so warm
//! primitive calls perform zero net heap growth.
//!
//! ## Example
//!
//! ```
//! use mpc_engine::{MpcConfig, MpcContext, DistVec};
//!
//! // 1024 input words, machines with ~n^0.5 words of memory.
//! let cfg = MpcConfig::new(1024, 0.5);
//! let mut ctx = MpcContext::new(cfg);
//! let data: Vec<u64> = (0..1024).rev().collect();
//! let dv: DistVec<u64> = ctx.from_vec(data);
//! let sorted = ctx.sort_by_key(dv, |x| *x);
//! assert_eq!(sorted.to_vec()[0], 0);
//! assert!(ctx.metrics().rounds > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod context;
pub(crate) mod deal;
pub(crate) mod directory;
pub mod distvec;
pub mod error;
pub mod metrics;
pub mod prefix;
pub(crate) mod primitives;
pub(crate) mod scratch;
pub mod sortkey;
pub mod words;

pub use config::MpcConfig;
pub use context::{MpcContext, Outbox};
pub use deal::Deal;
pub use directory::Directory;
pub use distvec::DistVec;
pub use error::{ConvergeError, MpcError, MpcResult, Violation, ViolationKind};
pub use metrics::{ConvergenceTrace, Metrics, PhaseMetrics};
pub use primitives::SortedTable;
pub use sortkey::SortKey;
pub use words::Words;

/// Identifier of a simulated machine (index into the machine array).
pub type MachineId = usize;

/// Record placement chosen by the caller instead of by a charged primitive.
///
/// Inside this crate every primitive places its output records itself and meters
/// what moved. These two functions are the only way for other crates to pick a
/// placement without an [`MpcContext`]: the caller vouches that no record changes
/// machine (or meters the move itself), and the import path names every such site.
///
/// ```
/// use mpc_engine::{unmetered, DistVec};
///
/// let mut dv: DistVec<u64> = unmetered::from_chunks(vec![vec![1, 2], vec![3]]);
/// unmetered::chunks_mut(&mut dv)[0].retain(|x| *x != 2);
/// assert_eq!(dv.chunks(), [vec![1], vec![3]]);
/// ```
///
/// The `DistVec` methods behind them are crate-private:
///
/// ```compile_fail,E0624
/// let dv = mpc_engine::DistVec::from_chunks(vec![vec![1u64], vec![2]]);
/// ```
///
/// ```compile_fail,E0624
/// let mut dv = mpc_engine::unmetered::from_chunks(vec![vec![1u64], vec![2]]);
/// dv.chunks_mut()[0].clear();
/// ```
pub mod unmetered {
    use crate::DistVec;

    /// A distributed vector whose machine `i` holds `chunks[i]`.
    pub fn from_chunks<T>(chunks: Vec<Vec<T>>) -> DistVec<T> {
        DistVec::from_chunks(chunks)
    }

    /// Mutable access to `dv`'s per-machine chunks.
    pub fn chunks_mut<T>(dv: &mut DistVec<T>) -> &mut [Vec<T>] {
        dv.chunks_mut()
    }
}

/// What is left of the retired thread pool.
// Kept for `treedp-bench/src/run.rs`, which reports `par::worker_threads()`.
#[doc(hidden)]
pub mod par {
    /// Machine-local work runs on the calling thread.
    // Called by `treedp-bench/src/run.rs` (`host.worker_threads`).
    pub fn worker_threads() -> usize {
        1
    }
}
