//! # `tree-dp-incremental` — batched updates on a cached clustering
//!
//! The paper computes the hierarchical clustering **once** and then solves every DP
//! problem in `O(1)` extra rounds (Section 1.4 / Section 5). This crate closes the
//! remaining gap for dynamic workloads: after an initial solve, a batch of node- or
//! edge-input changes does not have to pay for a full re-solve. [`IncrementalSolver`]
//! keeps what the last solve built — the tree's one maintained
//! [`SolvePlan`](tree_dp_core::SolvePlan), the slot state filled over that plan's
//! skeletons, and the labels (the [`SolverStore`](tree_dp_core::SolverStore) of
//! `tree-dp-core`) — and re-solves a batch by
//!
//! 1. **`inc-dirty`** — routing the batched updates to the machines holding the
//!    affected cluster views and writing them into their slots (one round; the
//!    addresses come from the plan's routing),
//! 2. **`inc-up`** — re-running the bottom-up summarization only along the *dirty
//!    root-paths*: a cluster is re-summarized only if a member payload or boundary-edge
//!    input changed, and dirt propagates to the parent cluster only when the summary
//!    actually changed (one round per affected layer),
//! 3. **`inc-down`** — re-labeling only the affected top-down frontier: a cluster is
//!    re-labeled only if it was dirty or one of its boundary labels changed (one round
//!    per affected layer).
//!
//! Because the clustering has `O(1)` layers, an update batch costs `O(1)` rounds — and,
//! unlike a full [`SolvePlan::solve`](tree_dp_core::SolvePlan::solve), which forwards
//! every summary and every label once, those rounds move only the records on the
//! dirty paths, so the words moved (and the wall time) drop by orders of magnitude
//! for small batches.
//!
//! The produced labels are *identical* to a full solve on the updated inputs: the
//! incremental path re-runs the same deterministic `summarize` / `label_members` code
//! on the same views and only skips recomputations whose inputs are pointwise
//! unchanged (which is why the problem's `Summary` and `Label` types must be
//! [`PartialEq`]).
//!
//! Beyond input changes, [`IncrementalSolver::apply_structural`] accepts batched
//! **structural** updates — `link(parent, child)` adds a new leaf, `cut(child)` removes
//! a whole subtree. A batch that stays within the clustering's degree and cluster-size
//! bounds is repaired *locally*: a fourth phase, **`inc-struct`**, routes the batch,
//! splices the solver's plan — its slot state carried along — and patches the prepared
//! tree's tables in place (two routing rounds; a plan the tree cached is dropped, not
//! spliced), after which the same dirty-root-path machinery re-solves only the patched
//! clusters. Batches that would overflow a bound degrade to an honest full re-prepare
//! and re-solve (`stats.degraded` reports which path ran). The host work follows the
//! charge: the batch is planned against a persistent repair index and the plan's routing
//! indexes are patched in place, so a repaired batch costs what it touches
//! (plus three in-place passes over the prepared tree's flat tables), not `O(n)`.
//!
//! ```
//! use mpc_engine::{MpcConfig, MpcContext};
//! use tree_dp_core::{prepare, StateEngine};
//! use tree_dp_incremental::IncrementalSolver;
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
//! let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
//! let mut solver = IncrementalSolver::new(&mut ctx, &prepared, engine, &weights, 0, &no_edges);
//! assert_eq!(solver.root_summary().best(solver.problem().problem()), Some(16));
//!
//! // Raising one node's weight re-solves along a single root-path.
//! let stats = solver.update_node_inputs(&mut ctx, &[(5, 100)]);
//! assert!(stats.rounds > 0);
//! assert_eq!(solver.root_summary().best(solver.problem().problem()), Some(115));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod solver;
mod structural;

pub use solver::{IncrementalSolver, UpdateStats};
pub use structural::{StructuralBatch, StructuralError, StructuralOp, StructuralStats};
