//! # `mpc-tree-dp` — fast dynamic programming in trees in the MPC model
//!
//! Facade crate re-exporting the full framework that reproduces
//! *"Fast Dynamic Programming in Trees in the MPC Model"* (SPAA 2023):
//!
//! * [`mpc`] — the MPC simulator (machines, rounds, memory accounting, primitives),
//! * [`repr`] — tree representations and their normalization (Section 3),
//! * [`clustering`] — the `O(log D)`-round hierarchical clustering (Section 4),
//! * [`core`] — the DP framework and solver (Definition 1, Section 5),
//! * [`incremental`] — batched input *and* structural (link/cut) updates re-solved
//!   on the cached clustering,
//! * [`server`] — the multi-tenant serving layer (snapshot persistence, one plan
//!   per tenant, admission batching, per-tenant metrics),
//! * [`problems`] — the Table-1 problem library,
//! * [`gen`] — synthetic workload generators.
//!
//! See `examples/quickstart.rs` for a five-minute tour and
//! `examples/streaming_updates.rs` for the incremental-update workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mpc_engine as mpc;
pub use tree_clustering as clustering;
pub use tree_dp_core as core;
pub use tree_dp_incremental as incremental;
pub use tree_dp_problems as problems;
pub use tree_dp_server as server;
pub use tree_gen as gen;
pub use tree_repr as repr;

pub use mpc_engine::{DistVec, MpcConfig, MpcContext, SortKey, SortedTable};
pub use tree_dp_core::{
    prepare, ClusterDp, DpSolution, PreparedTree, Snapshot, SnapshotError, SolvePlan, SolverStore,
    StateDp, StateEngine,
};
pub use tree_dp_incremental::{
    IncrementalSolver, StructuralBatch, StructuralError, StructuralOp, StructuralStats, UpdateStats,
};
pub use tree_dp_server::{
    CacheStats, Request, Response, ServerConfig, ServerError, TenantMetrics, TenantSpec,
    TreeDpServer,
};
pub use tree_repr::{ListOfEdges, StringOfParentheses, Tree, TreeInput};
