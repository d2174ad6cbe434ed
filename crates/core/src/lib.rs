//! # `tree-dp-core` — dynamic programming on trees in the MPC model
//!
//! This crate is the paper's primary contribution: a framework that solves any *dynamic
//! programming problem* (Definition 1) on a tree in `O(log D)` deterministic MPC rounds,
//! by (1) normalizing the input, (2) building a hierarchical clustering once, and
//! (3) running a bottom-up / top-down pass over the `O(1)` layers of that clustering in
//! `O(1)` rounds per problem.
//!
//! * [`ClusterDp`] — the problem abstraction of Definition 1.
//! * [`StateDp`] / [`StateEngine`] — a generic finite-state optimization engine that
//!   realizes Definition 1 for most of Table 1 (independent set, matching, dominating
//!   set, vertex cover, colorings, max-SAT, ...), including the auxiliary-edge rules
//!   for high-degree inputs (Section 5.3).
//! * [`prepare`] / [`PreparedTree`] — the end-to-end three-step pipeline (Section 1.4),
//!   with clustering reuse across problems.
//! * [`SolvePlan`] — the MPC solver (Sections 5.1–5.2): the problem-independent view
//!   assembly is built once per prepared tree ([`PreparedTree::plan`]) and any number
//!   of DP problems are then evaluated over the cached skeletons, each charging only
//!   its problem-dependent payload/summary/label exchanges.
//! * [`solve_sequential`] — the sequential oracle used for differential testing.
//!
//! ## Example
//!
//! Solve unweighted maximum independent set on a 32-node path — prepare the
//! clustering once, then run the finite-state engine over it:
//!
//! ```
//! use mpc_engine::{MpcConfig, MpcContext};
//! use tree_dp_core::{prepare, StateEngine};
//! use tree_dp_problems::MaxWeightIndependentSet;
//! use tree_gen::shapes;
//! use tree_repr::{ListOfEdges, TreeInput};
//!
//! let tree = shapes::path(32);
//! let cfg = MpcConfig::new(2 * tree.len(), 0.5)
//!     .with_memory_slack(512.0)
//!     .with_bandwidth_slack(512.0);
//! let mut ctx = MpcContext::new(cfg);
//! let prepared = prepare(
//!     &mut ctx,
//!     TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
//!     None,
//! )
//! .unwrap();
//!
//! let engine = StateEngine::new(MaxWeightIndependentSet);
//! let weights = ctx.from_vec((0..tree.len()).map(|v| (v as u64, 1i64)).collect::<Vec<_>>());
//! let no_edge_inputs = ctx.from_vec(Vec::<(u64, ())>::new());
//! let sol = prepared.solve(&mut ctx, &engine, &weights, 0, &no_edge_inputs);
//!
//! // A path on 32 nodes has a maximum independent set of 16 nodes.
//! assert_eq!(sol.root_summary.best(engine.problem()), Some(16));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pipeline;
pub mod plan;
pub mod problem;
mod routing;
mod sequential;
pub mod skeleton;
pub mod snapshot;
mod state_dp;
pub mod store;

pub use pipeline::{prepare, PipelineError, PreparedTree};
pub use plan::{DpSolution, PlanMember, PlanView, SolvePlan, ViewSlot};
pub use problem::{ClusterDp, ClusterView, Payload};
pub use sequential::{solve_sequential, SequentialSolution};
pub use snapshot::{
    open, seal, snapshot_from_bytes, snapshot_to_bytes, Snapshot, SnapshotError, SnapshotReader,
    SnapshotWriter, KIND_PREPARED_TREE, KIND_STORE, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use state_dp::{Score, StateDp, StateEngine, StateSummary};
pub use store::SolverStore;
