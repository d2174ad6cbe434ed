//! Batched structural updates: the op/batch/stats/error types of
//! [`IncrementalSolver::apply_structural`](crate::IncrementalSolver::apply_structural).
//!
//! A [`StructuralBatch`] carries `link`/`cut` operations *with their problem inputs*
//! (a new leaf needs a node input and an edge input for its new edge); the topology
//! side of each op is planned against the solver's persistent
//! [`tree_clustering::RepairIndex`], which either plans a local splice of the cached
//! clustering or asks for a degrade to a full re-prepare.

use tree_clustering::{RepairError, TopologyOp};
use tree_dp_core::ClusterDp;
use tree_repr::NodeId;

/// One structural operation together with the problem inputs it introduces.
pub enum StructuralOp<P: ClusterDp> {
    /// Attach a brand-new leaf `child` directly below the existing original node
    /// `parent`.
    Link {
        /// Existing original node the new leaf hangs below.
        parent: NodeId,
        /// Fresh node id for the leaf (must not collide with any live id and must stay
        /// below the auxiliary id range).
        child: NodeId,
        /// The new leaf's node input.
        node_input: P::NodeInput,
        /// The input of the new edge `child → parent`.
        edge_input: P::EdgeInput,
    },
    /// Remove the edge `child → parent` and the entire subtree rooted at `child`.
    Cut {
        /// Root of the subtree to remove.
        child: NodeId,
    },
}

impl<P: ClusterDp> StructuralOp<P> {
    /// The topology-only projection handed to the clustering repair planner.
    pub fn topology(&self) -> TopologyOp {
        match self {
            StructuralOp::Link { parent, child, .. } => TopologyOp::Link {
                parent: *parent,
                child: *child,
            },
            StructuralOp::Cut { child } => TopologyOp::Cut { child: *child },
        }
    }
}

/// An ordered batch of structural operations, applied atomically: either every op is
/// valid and the whole batch lands (locally repaired or via degrade), or the batch is
/// rejected and nothing changes.
pub struct StructuralBatch<P: ClusterDp> {
    ops: Vec<StructuralOp<P>>,
}

impl<P: ClusterDp> Clone for StructuralOp<P> {
    fn clone(&self) -> Self {
        match self {
            StructuralOp::Link {
                parent,
                child,
                node_input,
                edge_input,
            } => StructuralOp::Link {
                parent: *parent,
                child: *child,
                node_input: node_input.clone(),
                edge_input: edge_input.clone(),
            },
            StructuralOp::Cut { child } => StructuralOp::Cut { child: *child },
        }
    }
}

impl<P: ClusterDp> Clone for StructuralBatch<P> {
    fn clone(&self) -> Self {
        Self {
            ops: self.ops.clone(),
        }
    }
}

impl<P: ClusterDp> Default for StructuralBatch<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: ClusterDp> StructuralBatch<P> {
    /// An empty batch.
    pub fn new() -> Self {
        Self { ops: Vec::new() }
    }

    /// Append a `link(parent, child)` with the new leaf's inputs. Builder-style.
    pub fn link(
        mut self,
        parent: NodeId,
        child: NodeId,
        node_input: P::NodeInput,
        edge_input: P::EdgeInput,
    ) -> Self {
        self.ops.push(StructuralOp::Link {
            parent,
            child,
            node_input,
            edge_input,
        });
        self
    }

    /// Append a `cut(child)`. Builder-style.
    pub fn cut(mut self, child: NodeId) -> Self {
        self.ops.push(StructuralOp::Cut { child });
        self
    }

    /// Append an already-constructed op.
    pub fn push(&mut self, op: StructuralOp<P>) {
        self.ops.push(op);
    }

    /// The ops in application order.
    pub fn ops(&self) -> &[StructuralOp<P>] {
        &self.ops
    }

    /// Consume the batch, yielding its ops in application order (used by callers
    /// that fold several batches into one, e.g. the serving layer's flush).
    pub fn into_ops(self) -> Vec<StructuralOp<P>> {
        self.ops
    }

    /// Number of ops in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the batch holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Why a structural batch was rejected (nothing was applied).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StructuralError {
    /// An op in the batch is invalid against the current tree (unknown parent,
    /// duplicate child id, cut of the root, ...).
    Invalid(RepairError),
    /// The batch degraded to a full re-prepare and that re-prepare failed.
    Prepare(String),
}

impl std::fmt::Display for StructuralError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StructuralError::Invalid(e) => write!(f, "invalid structural batch: {e}"),
            StructuralError::Prepare(msg) => {
                write!(f, "structural degrade re-prepare failed: {msg}")
            }
        }
    }
}

impl std::error::Error for StructuralError {}

impl From<RepairError> for StructuralError {
    fn from(e: RepairError) -> Self {
        StructuralError::Invalid(e)
    }
}

/// What one structural batch cost and touched.
#[derive(Debug, Clone, Copy, Default)]
pub struct StructuralStats {
    /// Number of ops in the batch.
    pub batch_size: usize,
    /// Reduced-tree nodes removed by cuts (original + auxiliary).
    pub removed_nodes: usize,
    /// New leaves added by links (net of same-batch cuts).
    pub added_leaves: usize,
    /// Surviving clusters whose member list or boundary was patched.
    pub patched_clusters: usize,
    /// `true` when the batch exceeded a clustering bound and fell back to a full
    /// re-prepare instead of a local repair.
    pub degraded: bool,
    /// Clusters re-summarized in the bottom-up repair pass (local repair only).
    pub resummarized: usize,
    /// Clusters re-labeled in the top-down repair pass (local repair only).
    pub relabeled: usize,
    /// MPC rounds charged for this batch (`inc-struct` routing/splice plus the
    /// dirty re-solve — or the full re-prepare + re-solve when degraded).
    pub rounds: u64,
    /// Words sent for this batch.
    pub words_sent: u64,
}
