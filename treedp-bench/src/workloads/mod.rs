//! The five workloads and what they share.
//!
//! Every workload drives only the facade's public API from one driver thread,
//! closed loop: the next operation starts when the previous one has returned.
//! An operation measures its own wall time around the calls into the library
//! and leaves input generation, mirror upkeep and output checks outside it.

pub mod cold;
pub mod probes;
pub mod serve;
pub mod stream;
pub mod warm;

use crate::span::Tracer;
use mpc_tree_dp::{MpcConfig, MpcContext};
use std::collections::BTreeMap;
use std::time::Instant;

/// Nodes per tree (per tenant in `serve-mixed`: [`TENANT_N`]).
pub const N: usize = 65536;
pub const TENANT_N: usize = 4096;
pub const DELTA: f64 = 0.5;

/// Seed of the benchmark's own choices (which node, tenant, kind of request).
/// `--seed` feeds `treegen` only — shapes and weights — so across seeds the
/// simulated counts move with the inputs, not with a different op stream.
pub const OP_STREAM_SEED: u64 = 0x5eed;

pub fn config(n: usize) -> MpcConfig {
    MpcConfig::new(2 * n, DELTA)
}

/// What the modelled MPC cluster was charged, summed over contexts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sim {
    pub rounds: u64,
    pub words: u64,
    /// Max over contexts of `peak_local_memory ÷ local_capacity`.
    pub peak_mem_ratio: f64,
    /// Θ(n^δ) breaches recorded at the default slack.
    pub violations: u64,
}

impl Sim {
    /// What was charged since `base` was read; the memory peak is a lifetime
    /// maximum and stays as it is.
    pub fn since(&self, base: &Sim) -> Sim {
        Sim {
            rounds: self.rounds - base.rounds,
            words: self.words - base.words,
            violations: self.violations - base.violations,
            peak_mem_ratio: self.peak_mem_ratio,
        }
    }

    pub fn add(&mut self, ctx: &MpcContext) {
        let m = ctx.metrics();
        self.rounds += m.rounds;
        self.words += m.total_words_sent;
        self.violations += m.violations.len() as u64;
        self.peak_mem_ratio = self
            .peak_mem_ratio
            .max(m.memory_headroom(ctx.config().local_capacity()));
    }
}

/// Result of one operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpOutcome {
    /// Wall time inside the library calls of this operation.
    pub wall_ns: u64,
    /// Answers checked (tree solves, problem instances, steps, requests).
    pub attempted: u64,
    /// Of those, how many errored, were rejected, or failed their check.
    pub failed: u64,
}

/// Named values a workload reports besides spans (counts, ratios, sizes).
pub type Gauges = BTreeMap<&'static str, f64>;

pub trait Workload {
    /// Names of the trees or tenants, indexed by the `tree` of a span.
    fn trees(&self) -> &[String];
    /// Compute the expected answers. Runs once, on the set-up that is kept,
    /// outside `setup_s`: the oracle is the benchmark's cost, not the system's.
    fn arm(&mut self) {}
    /// Tell the tracer that what the resident contexts recorded so far is
    /// history (called right before tracing is switched on).
    fn mark_phases(&self, _t: &mut Tracer) {}
    /// Run the next operation of the stream.
    fn op(&mut self, t: &mut Tracer) -> OpOutcome;
    /// Simulated cost so far, summed over every context the workload used
    /// since set-up ended.
    fn sim(&self) -> Sim;
    /// Checks that run once, after the last operation.
    fn finish(&mut self) -> OpOutcome {
        OpOutcome::default()
    }
    /// Counts and ratios collected while the operations ran.
    fn gauges(&self, g: &mut Gauges);
    /// Traced run only: standalone measurements of single layer calls on this
    /// workload's own data, outside any operation.
    fn probe(&mut self, t: &mut Tracer, g: &mut Gauges);
}

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
    /// Operations whose simulated cost is reported: every run completes at
    /// least this many, so rounds and words per operation repeat exactly for
    /// a seed however long the run lasts.
    pub sim_ops: usize,
    /// Build the state and run one warm-up operation. Returns the workload
    /// and the seconds that took.
    pub setup: fn(u64) -> (Box<dyn Workload>, f64),
}

pub const WORKLOADS: [WorkloadInfo; 5] = [
    WorkloadInfo {
        name: "cold-deep",
        why: "Cold solve of path, broom, caterpillar (n=65536, diameter ~n, rooted edge lists): clustering convergence is most of the op, so a clustering, converge or sort/join gain must show here.",
        sim_ops: 2,
        setup: cold::setup_deep,
    },
    WorkloadInfo {
        name: "cold-shallow",
        why: "Cold solve of star, balanced binary (parentheses), diameter-8 (undirected), n=65536: time goes to rooting, degree reduction and plan build, so a clustering-only gain should leave it flat.",
        sim_ops: 2,
        setup: cold::setup_shallow,
    },
    WorkloadInfo {
        name: "warm-multi",
        why: "MaxIS, MinVC, MinDS (and matching on the path) over resident plans of path and random-recursive, rotating weights: only plan evaluation and problem kernels run; prepare and plan build are set-up.",
        sim_ops: 4,
        setup: warm::setup,
    },
    WorkloadInfo {
        name: "stream-updates",
        why: "Incremental MaxIS on two resident trees: cycles of 1/256/4096-weight batches, 1- and 16-op link/cut batches and a read, so a gain for value writes, topology writes or reads that costs another shows.",
        sim_ops: 6,
        setup: stream::setup,
    },
    WorkloadInfo {
        name: "serve-mixed",
        why: "Server with 8 tenants (n=4096) and a plan budget that forces evictions: flushes of 16 skewed requests (10 queries, 5 updates, 1 link+cut); reads go through the plan cache beside writes that splice it.",
        sim_ops: 30,
        setup: serve::setup,
    },
];

/// Rounds and words charged on `ctx` so far.
pub fn cost(ctx: &MpcContext) -> (u64, u64) {
    (ctx.metrics().rounds, ctx.metrics().total_words_sent)
}

/// Run `f` on `ctx` inside a timed span that also picks up the phase records
/// the library writes meanwhile. `tree` names the tree and, to the tracer, its
/// context (probes on a context of their own pass an index past the trees).
pub fn traced<R>(
    t: &mut Tracer,
    name: &'static str,
    layer: &'static str,
    tree: usize,
    ctx: &mut MpcContext,
    f: impl FnOnce(&mut MpcContext) -> R,
) -> R {
    let (r0, w0) = cost(ctx);
    let id = t.begin(name, layer, tree);
    let out = f(ctx);
    let (r1, w1) = cost(ctx);
    t.absorb_phases(tree, ctx.metrics(), id);
    t.end(id, r1 - r0, w1 - w0);
    out
}

/// Nanoseconds `f` took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}
