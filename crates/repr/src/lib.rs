//! # `tree-repr` — tree representations and their MPC normalization
//!
//! Section 3 of *"Fast Dynamic Programming in Trees in the MPC Model"* (SPAA 2023)
//! observes that tree-structured data arrives in many shapes — a list of (un)directed
//! edges, a string of nested parentheses / tags, a BFS or DFS traversal array, or an
//! array of parent pointers — and shows that all of them can be normalized into one
//! **standard representation**: a rooted tree given as a list of directed child→parent
//! edges, in `O(1)` MPC rounds (plus `O(log D)` only when the input is an *unrooted*
//! edge list that must first be rooted).
//!
//! This crate provides:
//!
//! * the host-side [`Tree`] structure used by generators, sequential baselines and tests,
//! * the representation types of Section 3.1 ([`ListOfEdges`], [`UndirectedEdges`],
//!   [`StringOfParentheses`], [`BfsTraversal`], [`DfsTraversal`], [`PointersToParents`]),
//! * lossless host-side conversions between them (reference implementations),
//! * the MPC normalization of Section 3.2 ([`normalize()`]), including the
//!   chunk-cancellation parentheses-matching algorithm of Section 3.2/3.2.1
//!   ([`parentheses`]) and Euler-tour rooting of undirected inputs ([`rooting`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ids;
pub mod normalize;
pub mod parentheses;
pub mod representations;
pub mod rooting;
pub mod tree;

pub use ids::{DirectedEdge, NodeId};
pub use normalize::{normalize, NormalizedTree, TreeInput};
pub use representations::{
    BfsTraversal, DfsTraversal, ListOfEdges, Paren, PointersToParents, StringOfParentheses,
    UndirectedEdges,
};
pub use tree::Tree;
