//! # `tree-dp-problems` — the Table-1 problem library
//!
//! Implementations of the dynamic programming problems listed in Table 1 of
//! *"Fast Dynamic Programming in Trees in the MPC Model"* (SPAA 2023), on top of the
//! `tree-dp-core` framework:
//!
//! * finite-state optimization problems via the generic
//!   [`StateEngine`](tree_dp_core::StateEngine): maximum-weight independent set (also yields a
//!   maximal independent set), minimum-weight vertex cover, minimum-weight dominating
//!   set, maximum-weight matching, weighted tree max-SAT, vertex coloring (an LCL),
//!   sum coloring, and XML-structure validation — see [`optimization`];
//! * accumulation problems: subtree sum / min / max and arithmetic expression
//!   evaluation — see [`aggregate`];
//! * the tree median problem of Section 6.1 — see [`median`];
//! * brute-force oracles for differential testing — see [`brute`].
//!
//! Not implemented: the Gaussian belief-propagation application of Section 6.2 (the
//! workload generator exists in `tree-gen`, and `examples/bayesian_inference.rs` runs
//! the subtree accumulation that shares its communication pattern in its place),
//! counting matchings modulo `k`, the longest-path problem, and edge coloring (which
//! needs a child-set state not expressible in the finite-state engine).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod brute;
pub mod median;
pub mod optimization;

pub use aggregate::{AggregateOp, ExprNode, ExpressionEval, Linear, SubtreeAggregate};
pub use median::{sequential_tree_median, MedianSummary, TreeMedian};
pub use optimization::{
    MaxWeightIndependentSet, MaxWeightMatching, MinWeightDominatingSet, MinWeightVertexCover,
    SumColoring, TreeMaxSat, VertexColoring, XmlValidation,
};

#[cfg(test)]
mod tests;
