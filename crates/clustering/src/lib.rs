//! # `tree-clustering` — hierarchical clustering of rooted trees in the MPC model
//!
//! This crate implements Section 4 of *"Fast Dynamic Programming in Trees in the MPC
//! Model"* (SPAA 2023): a deterministic `O(log D)`-round construction of a
//! **hierarchical clustering** (Definition 3) of a rooted tree, the universal reusable
//! representation on which any dynamic programming problem can then be solved in `O(1)`
//! additional rounds (see the `tree-dp-core` crate).
//!
//! The clustering has `O(1)` layers; every cluster has at most `n^δ`-many member
//! elements, exactly one outgoing original edge and at most one incoming original edge.
//!
//! * [`reduce_degrees`] — the high-degree-node transformation of Section 4.4; its
//!   [`DegreeReduced`] result records the degree bound it established.
//! * [`build_clustering`] — the construction (Section 4.2) on a [`DegreeReduced`] tree,
//!   alternating indegree-0 and indegree-1 contraction steps.
//! * [`subroutines`] — re-implementations of the `CountSubtreeSizes` / `CountDistances`
//!   primitives the paper cites from Balliu et al. (SODA 2023).
//! * [`Clustering`] — the output, with a structural validator used by the test suite.
//! * [`repair`] — host-side local repair of an existing clustering under batched
//!   link/cut structural updates (degrading to a full rebuild only when a clustering
//!   bound would be violated).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod clustering;
pub mod degree;
pub mod element;
pub mod repair;
pub mod subroutines;

pub use builder::{build_clustering, ClusterError};
pub use clustering::{Clustering, ClusteringViolation};
pub use degree::{is_aux_node, reduce_degrees, DegreeReduced, AUX_BASE};
pub use element::{
    cluster_layer, defining_node, is_cluster_id, make_cluster_id, EdgeKind, Element, ElementId,
    ElementKind, CLUSTER_FLAG, UNABSORBED, VIRTUAL_NODE,
};
pub use repair::{
    plan_repair, ClusterPatch, ClusteringRepair, DegradeReason, RepairError, RepairIndex,
    RepairOutcome, TopologyOp,
};
