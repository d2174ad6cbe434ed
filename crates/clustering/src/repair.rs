//! Local repair of a hierarchical clustering under batched link/cut updates.
//!
//! A full rebuild of the clustering costs `O(log D)` rounds (the construction of
//! Section 4.2); this module computes, **host-side and without any communication**, the
//! minimal patch that turns an existing [`Clustering`] into a valid clustering of the
//! mutated tree for a batch of structural operations — against a persistent
//! [`RepairIndex`], so that planning reads only the records the batch addresses:
//!
//! * `cut(child)` — remove the edge `child → parent` together with the whole subtree
//!   rooted at `child` (including any auxiliary nodes hanging below it), and
//! * `link(parent, child)` — attach a brand-new leaf `child` directly below an existing
//!   node `parent`.
//!
//! The repair exploits two structural facts about the clustering:
//!
//! 1. The removed node set `R` of a cut is **downward-closed** in the reduced tree, so an
//!    element vanishes exactly when its span lies inside `R` — which for a cluster is
//!    equivalent to `out_edge.child ∈ R` (the span's topmost node). Inside a surviving
//!    cluster the removed members again form a downward-closed set of the member tree,
//!    so the survivors stay connected and keep their outgoing edge. A surviving
//!    indegree-1 cluster whose incoming edge came out of `R` simply becomes an
//!    indegree-0 cluster.
//! 2. A new leaf below `parent` can join the cluster that absorbed `parent` as one more
//!    member (its absorption layer is that cluster's formation layer), without touching
//!    any cut-edge property: the leaf adds no incoming edge to any cluster.
//!
//! When a link would push a node's child count past the degree bound or a cluster past
//! its `n^δ`-style member bound, the repair refuses and reports
//! [`RepairOutcome::Degrade`]; the caller then falls back to a full re-prepare. This is
//! the locality/quality trade-off of the dynamic MPC framework (Italiano–Mirrokni):
//! batches that stay within the bounds are repaired in `O(1)` rounds, the rest pay the
//! static construction cost.

use crate::clustering::Clustering;
use crate::degree::{is_aux_node, AUX_BASE};
use crate::element::{Element, ElementId, ElementKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use tree_repr::{DirectedEdge, NodeId};

/// One structural operation, topology only (problem inputs ride separately in the
/// incremental layer's generic batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyOp {
    /// Attach a brand-new leaf `child` directly below the existing node `parent`.
    Link {
        /// Existing original node the new leaf hangs below.
        parent: NodeId,
        /// Fresh node id for the leaf (must not collide with any live id).
        child: NodeId,
    },
    /// Remove the edge `child → parent` and the entire subtree rooted at `child`.
    Cut {
        /// Root of the subtree to remove.
        child: NodeId,
    },
}

/// Why a batch could not be repaired locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// A link would push `parent`'s direct child count in the reduced tree past the
    /// degree bound the clustering was built with.
    DegreeOverflow {
        /// The overloaded parent.
        parent: NodeId,
    },
    /// A link would push the absorbing cluster past the `threshold·(threshold+1)`
    /// member bound.
    ClusterOverflow {
        /// The overloaded cluster.
        cluster: ElementId,
    },
}

/// An invalid operation in the batch (the batch is rejected as a whole; nothing is
/// applied).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairError {
    /// Link below a node that does not exist (or was cut earlier in the batch). Note
    /// that auxiliary degree-reduction nodes are not addressable.
    UnknownParent(NodeId),
    /// Cut of a node that does not exist (or was already cut).
    UnknownChild(NodeId),
    /// The root cannot be cut.
    CutRoot,
    /// Link with a child id that is already a live node.
    DuplicateChild(NodeId),
    /// Link with a child id at or above [`AUX_BASE`] (reserved for auxiliary nodes).
    ReservedChildId(NodeId),
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::UnknownParent(p) => write!(f, "link below unknown node {p}"),
            RepairError::UnknownChild(c) => write!(f, "cut of unknown node {c}"),
            RepairError::CutRoot => write!(f, "the root cannot be cut"),
            RepairError::DuplicateChild(c) => write!(f, "link child {c} already exists"),
            RepairError::ReservedChildId(c) => {
                write!(f, "link child {c} collides with the auxiliary id range")
            }
        }
    }
}

impl std::error::Error for RepairError {}

/// Patch for one surviving cluster's member list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterPatch {
    /// Layer whose views hold this cluster (its formation layer).
    pub layer: u32,
    /// Member element ids to drop (a downward-closed set of the member tree).
    pub removed_members: BTreeSet<ElementId>,
    /// `true` when the cluster's incoming edge came out of the removed set: the cluster
    /// becomes indegree-0 and its `in_edge`/attach point are cleared.
    pub clear_in_edge: bool,
    /// New leaf elements appended to the member list (their member-tree parent is the
    /// member whose element id equals the leaf's `out_edge.parent`).
    pub added: Vec<Element>,
}

impl ClusterPatch {
    /// `true` when the patch changes the member list or the cluster record at all
    /// (a patch can exist solely to mark a parent view dirty for a demoted member).
    fn is_material(&self) -> bool {
        self.clear_in_edge || !self.removed_members.is_empty() || !self.added.is_empty()
    }
}

/// The complete, host-computed description of a local clustering repair. One repair
/// drives the element-list patch, the plan splice and the solver-store splice, so the
/// three views of the clustering can never drift apart.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringRepair {
    /// Element ids (nodes and clusters) that vanish entirely.
    pub removed_elements: BTreeSet<ElementId>,
    /// Reduced-tree node ids removed (`R`); also exactly the edge children whose edges
    /// and labels vanish.
    pub removed_nodes: BTreeSet<NodeId>,
    /// Surviving indegree-1 clusters demoted to indegree-0 (their incoming edge was
    /// cut). Every occurrence of these elements — their own record and their member
    /// copy in the parent view — must be rewritten.
    pub demoted: BTreeSet<ElementId>,
    /// Per-surviving-cluster patches, keyed by cluster id. Every patched cluster must
    /// be re-summarized/re-labelled (seeded dirty at `ClusterPatch::layer`).
    pub patches: BTreeMap<ElementId, ClusterPatch>,
    /// All surviving new leaf elements, in batch order. Each also appears in its
    /// absorbing cluster's [`ClusterPatch::added`].
    pub added_leaves: Vec<Element>,
    /// Node count of the reduced tree after the repair.
    pub new_num_nodes: usize,
    /// Auxiliary nodes inside the removed set (for `aux_to_original` maintenance).
    pub removed_aux: BTreeSet<NodeId>,
}

/// Outcome of planning a repair for a valid batch.
#[derive(Debug, Clone, PartialEq)]
pub enum RepairOutcome {
    /// The batch can be repaired locally.
    Repaired(Box<ClusteringRepair>),
    /// The batch violates a clustering bound; fall back to a full re-prepare.
    Degrade(DegradeReason),
}

/// Plan a local repair of `clustering` (built over the reduced-tree `edges`) for the
/// operation batch `ops`, applied in order.
///
/// Purely host-side: zero rounds, zero communication. Returns an error if any op is
/// invalid against the state produced by the preceding ops (the batch is then rejected
/// atomically), and [`RepairOutcome::Degrade`] when the batch is valid but exceeds a
/// degree or cluster-size bound.
///
/// This is the from-scratch entry point: it builds a throwaway [`RepairIndex`]
/// (`O(n log n)` host work) and plans against it. Callers that apply batch after batch
/// keep one index and patch it with [`RepairIndex::apply`] instead.
// mpc-cost: rounds(const)
pub fn plan_repair(
    clustering: &Clustering,
    edges: &[(DirectedEdge, crate::element::EdgeKind)],
    ops: &[TopologyOp],
) -> Result<RepairOutcome, RepairError> {
    RepairIndex::build(clustering, edges).plan(ops)
}

/// The persistent host-side index a repair is planned against: everything
/// [`plan`](Self::plan) has to look up about the clustering, keyed so that a batch
/// reads only the records it addresses.
///
/// Built once per prepared tree (`O(n log n)`), then kept in step with the clustering
/// by [`apply`](Self::apply) in `O((removed + added) · log n)` per batch. The index is
/// derived data: it is never serialized, and equality with a fresh
/// [`build`](Self::build) over the repaired clustering is what the test suite pins.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairIndex {
    num_nodes: usize,
    root: NodeId,
    threshold: usize,
    /// Element record by id (nodes and clusters).
    elements: BTreeMap<ElementId, Element>,
    /// Reduced-tree adjacency (auxiliary nodes included) as `(parent, child)` pairs:
    /// the children of `p` are the range `(p, 0)..=(p, MAX)`.
    child_edges: BTreeSet<(NodeId, NodeId)>,
    /// Number of member elements per cluster.
    member_count: BTreeMap<ElementId, usize>,
    /// `(in_edge.child, cluster)` for every indegree-1 cluster: the clusters a cut of
    /// that child demotes.
    in_edge_clusters: BTreeSet<(NodeId, ElementId)>,
}

/// A leaf linked by the batch being planned and not cut again so far.
struct Linked {
    /// Slot in the batch-order list (tombstoned when the leaf is cut again).
    slot: usize,
    parent: NodeId,
    /// The cluster the leaf joins.
    absorber: ElementId,
}

/// All `(key, x)` pairs of a pair-set with the given first component.
fn with_key(set: &BTreeSet<(u64, u64)>, key: u64) -> impl Iterator<Item = u64> + '_ {
    set.range((key, 0)..=(key, u64::MAX)).map(|&(_, x)| x)
}

impl RepairIndex {
    /// Index `clustering`, built over the reduced-tree `edges`.
    // mpc-cost: rounds(const)
    pub fn build<'a>(
        clustering: &Clustering,
        edges: impl IntoIterator<Item = &'a (DirectedEdge, crate::element::EdgeKind)>,
    ) -> Self {
        let elements: BTreeMap<ElementId, Element> =
            clustering.elements.iter().map(|e| (e.id, *e)).collect();
        let mut member_count: BTreeMap<ElementId, usize> = BTreeMap::new();
        let mut in_edge_clusters = BTreeSet::new();
        for e in elements.values() {
            if e.kind != ElementKind::TopCluster {
                *member_count.entry(e.absorbed_into).or_default() += 1;
            }
            if let Some(in_edge) = e.in_edge {
                in_edge_clusters.insert((in_edge.child, e.id));
            }
        }
        Self {
            num_nodes: clustering.num_nodes,
            root: clustering.root,
            threshold: clustering.threshold,
            elements,
            child_edges: edges
                .into_iter()
                .map(|(e, _)| (e.parent, e.child))
                .collect(),
            member_count,
            in_edge_clusters,
        }
    }

    /// `true` when `id` is a node of the reduced tree (original or auxiliary).
    fn is_node(&self, id: NodeId) -> bool {
        self.elements
            .get(&id)
            .is_some_and(|e| e.kind == ElementKind::Node)
    }

    /// The patch of cluster `id`, created (at the cluster's formation layer) on first
    /// touch.
    fn patch_for<'a>(
        &self,
        patches: &'a mut BTreeMap<ElementId, ClusterPatch>,
        id: ElementId,
    ) -> &'a mut ClusterPatch {
        patches.entry(id).or_insert_with(|| ClusterPatch {
            layer: self.elements.get(&id).map_or(0, |e| e.formed_at),
            ..ClusterPatch::default()
        })
    }

    /// Plan the repair for `ops`, applied in order, without changing the index (so a
    /// plan doubles as a validity dry-run). Same contract as [`plan_repair`]; reads
    /// `O((|ops| + removed span) · layers)` records.
    // mpc-cost: rounds(const)
    pub fn plan(&self, ops: &[TopologyOp]) -> Result<RepairOutcome, RepairError> {
        // Batch simulation state: the removed node set `R`, the surviving links, their
        // batch order (a slot is tombstoned when its leaf is cut again) and adjacency.
        let mut removed: BTreeSet<NodeId> = BTreeSet::new();
        let mut linked: BTreeMap<NodeId, Linked> = BTreeMap::new();
        let mut link_order: Vec<Option<NodeId>> = Vec::new();
        let mut linked_edges: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();

        for op in ops {
            match *op {
                TopologyOp::Link { parent, child } => {
                    let absorber = match linked.get(&parent) {
                        // A parent linked earlier in this batch: join the same cluster.
                        Some(p) => p.absorber,
                        None if self.is_node(parent)
                            && !is_aux_node(parent)
                            && !removed.contains(&parent) =>
                        {
                            self.elements[&parent].absorbed_into
                        }
                        None => return Err(RepairError::UnknownParent(parent)),
                    };
                    if child >= AUX_BASE {
                        return Err(RepairError::ReservedChildId(child));
                    }
                    if (self.is_node(child) && !removed.contains(&child))
                        || linked.contains_key(&child)
                    {
                        return Err(RepairError::DuplicateChild(child));
                    }
                    linked.insert(
                        child,
                        Linked {
                            slot: link_order.len(),
                            parent,
                            absorber,
                        },
                    );
                    link_order.push(Some(child));
                    linked_edges.insert((parent, child));
                }
                TopologyOp::Cut { child } => {
                    if child == self.root {
                        return Err(RepairError::CutRoot);
                    }
                    let pre_existing =
                        self.is_node(child) && !is_aux_node(child) && !removed.contains(&child);
                    if !pre_existing && !linked.contains_key(&child) {
                        return Err(RepairError::UnknownChild(child));
                    }
                    // BFS over the current subtree (reduced-tree children, including the
                    // auxiliary fan-out, plus any leaves linked earlier in this batch).
                    let mut queue = VecDeque::from([child]);
                    while let Some(x) = queue.pop_front() {
                        match linked.remove(&x) {
                            Some(leaf) => {
                                link_order[leaf.slot] = None;
                                linked_edges.remove(&(leaf.parent, x));
                            }
                            None => {
                                removed.insert(x);
                            }
                        }
                        queue.extend(
                            with_key(&self.child_edges, x).filter(|y| !removed.contains(y)),
                        );
                        queue.extend(with_key(&linked_edges, x));
                    }
                }
            }
        }

        // ----- degree bound: only links can raise a node's direct child count ------------
        let mut link_parents = linked_edges.iter().map(|&(p, _)| p).collect::<Vec<_>>();
        link_parents.dedup();
        for p in link_parents {
            let surviving_old = with_key(&self.child_edges, p)
                .filter(|c| !removed.contains(c))
                .count();
            if surviving_old + with_key(&linked_edges, p).count() > self.threshold {
                return Ok(RepairOutcome::Degrade(DegradeReason::DegreeOverflow {
                    parent: p,
                }));
            }
        }

        let mut patches: BTreeMap<ElementId, ClusterPatch> = BTreeMap::new();

        // ----- removed elements: climb `absorbed_into` from every removed node ----------
        // A cluster's span is downward-closed below its out-edge child, so the span lies
        // inside R exactly when that topmost node does; every such cluster contains a
        // removed node and all clusters between the two vanish with it, so the climb
        // from the nodes of R reaches all of them and stops at the first survivor.
        let mut removed_elements: BTreeSet<ElementId> = BTreeSet::new();
        for &x in &removed {
            let mut id = x;
            while removed_elements.insert(id) {
                let up = self.elements[&id].absorbed_into;
                match self.elements.get(&up) {
                    Some(cluster) if removed.contains(&cluster.out_edge.child) => id = up,
                    Some(_) => {
                        self.patch_for(&mut patches, up).removed_members.insert(id);
                        break;
                    }
                    None => break,
                }
            }
        }

        // ----- demotions: surviving clusters whose incoming edge left R ------------------
        let mut demoted: BTreeSet<ElementId> = BTreeSet::new();
        for &x in &removed {
            for c in with_key(&self.in_edge_clusters, x) {
                if !removed_elements.contains(&c) {
                    demoted.insert(c);
                }
            }
        }
        for &c in &demoted {
            self.patch_for(&mut patches, c).clear_in_edge = true;
            // The member copy of a demoted cluster lives in its parent's view; touch the
            // parent so the record is rewritten and the view re-solved.
            self.patch_for(&mut patches, self.elements[&c].absorbed_into);
        }

        // ----- grafted leaves, in batch order ---------------------------------------------
        let mut added_leaves = Vec::with_capacity(linked.len());
        for c in link_order.into_iter().flatten() {
            let Linked {
                parent, absorber, ..
            } = linked[&c];
            let leaf = Element {
                id: c,
                kind: ElementKind::Node,
                formed_at: 0,
                absorbed_into: absorber,
                // The validator requires absorbed_at == absorbing cluster's formed_at.
                absorbed_at: self.elements[&absorber].formed_at,
                out_edge: DirectedEdge::new(c, parent),
                in_edge: None,
            };
            self.patch_for(&mut patches, absorber).added.push(leaf);
            added_leaves.push(leaf);
        }

        // ----- cluster member bound: only additions can overflow -------------------------
        let max_members = self.threshold * (self.threshold + 1);
        for (&cluster, patch) in &patches {
            if patch.added.is_empty() {
                continue;
            }
            let count = self.member_count.get(&cluster).copied().unwrap_or(0)
                - patch.removed_members.len()
                + patch.added.len();
            if count > max_members {
                return Ok(RepairOutcome::Degrade(DegradeReason::ClusterOverflow {
                    cluster,
                }));
            }
        }

        let removed_aux: BTreeSet<NodeId> = removed
            .iter()
            .copied()
            .filter(|&x| is_aux_node(x))
            .collect();
        let new_num_nodes = self.num_nodes - removed.len() + added_leaves.len();

        Ok(RepairOutcome::Repaired(Box::new(ClusteringRepair {
            removed_elements,
            removed_nodes: removed,
            demoted,
            patches,
            added_leaves,
            new_num_nodes,
            removed_aux,
        })))
    }

    /// Bring the index in step with a clustering that `repair` (planned against this
    /// index) has been applied to. `O((removed + added) · log n)`.
    // mpc-cost: rounds(const)
    pub fn apply(&mut self, repair: &ClusteringRepair) {
        for &id in &repair.removed_elements {
            let Some(e) = self.elements.remove(&id) else {
                continue;
            };
            if e.kind == ElementKind::Node {
                self.child_edges.remove(&(e.out_edge.parent, id));
            } else {
                self.member_count.remove(&id);
            }
            if let Some(in_edge) = e.in_edge {
                self.in_edge_clusters.remove(&(in_edge.child, id));
            }
            if let Some(count) = self.member_count.get_mut(&e.absorbed_into) {
                *count -= 1;
            }
        }
        for &id in &repair.demoted {
            if let Some(e) = self.elements.get_mut(&id) {
                if let Some(in_edge) = e.in_edge {
                    self.in_edge_clusters.remove(&(in_edge.child, id));
                }
                repair.retain_element(e);
            }
        }
        for leaf in &repair.added_leaves {
            self.elements.insert(leaf.id, *leaf);
            self.child_edges.insert((leaf.out_edge.parent, leaf.id));
            *self.member_count.entry(leaf.absorbed_into).or_default() += 1;
        }
        self.num_nodes = repair.new_num_nodes;
    }
}

impl ClusteringRepair {
    /// Apply this repair to one record of the flat element list (or a member copy of
    /// it held inside a cluster view): returns `false` when the element vanishes, and
    /// rewrites a surviving indegree-1 cluster whose incoming edge was cut as the
    /// indegree-0 cluster it has become. The new leaves are appended separately
    /// ([`added_leaves`](Self::added_leaves), in batch order).
    pub fn retain_element(&self, e: &mut Element) -> bool {
        if self.removed_elements.contains(&e.id) {
            return false;
        }
        if self.demoted.contains(&e.id) {
            debug_assert_eq!(e.kind, ElementKind::ClusterIndeg1);
            e.kind = ElementKind::ClusterIndeg0;
            e.in_edge = None;
        }
        true
    }

    /// `true` when the repair is a pure no-op (possible when a batch links and then
    /// cuts the same leaves).
    pub fn is_noop(&self) -> bool {
        self.removed_elements.is_empty()
            && self.added_leaves.is_empty()
            && self.patches.values().all(|p| !p.is_material())
    }

    /// Total host words moved while splicing this repair into plan + store (used by the
    /// caller to meter the splice round).
    pub fn splice_words(&self) -> usize {
        // Each removed element / node drops a record; each added leaf writes one; each
        // patched cluster rewrites its (O(threshold^2)-bounded) view header.
        10 * (self.removed_elements.len() + self.added_leaves.len())
            + 4 * self.patches.len()
            + self.removed_nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_clustering;
    use crate::element::EdgeKind;
    use mpc_engine::{MpcConfig, MpcContext};
    use tree_gen::shapes;
    use tree_repr::Tree;

    fn clustered(
        tree: &Tree,
        threshold: usize,
    ) -> (MpcContext, Clustering, Vec<(DirectedEdge, EdgeKind)>) {
        let n = tree.len().max(16);
        let mut ctx = MpcContext::new(
            MpcConfig::new(n, 0.5)
                .with_memory_slack(512.0)
                .with_bandwidth_slack(512.0),
        );
        let dist = ctx.from_vec(tree.edges());
        let clustering = build_clustering(
            &mut ctx,
            &dist,
            tree.root() as u64,
            tree.len(),
            Some(threshold),
        )
        .expect("clustering succeeds");
        let edges: Vec<(DirectedEdge, EdgeKind)> = tree
            .edges()
            .into_iter()
            .map(|e| (e, EdgeKind::Original))
            .collect();
        (ctx, clustering, edges)
    }

    /// Apply the repair to the clustering + edge list, run the full validator, and
    /// check that an index patched with the repair equals one built from scratch over
    /// the repaired clustering.
    fn apply_and_validate(
        ctx: &mut MpcContext,
        clustering: &Clustering,
        edges: &[(DirectedEdge, EdgeKind)],
        repair: &ClusteringRepair,
    ) {
        let mut els = clustering.elements.to_vec();
        els.retain_mut(|e| repair.retain_element(e));
        els.extend(repair.added_leaves.iter().copied());
        let patched = Clustering {
            num_nodes: repair.new_num_nodes,
            root: clustering.root,
            num_layers: clustering.num_layers,
            threshold: clustering.threshold,
            elements: ctx.from_vec(els),
            top_cluster: clustering.top_cluster,
        };
        let mutated: Vec<DirectedEdge> = edges
            .iter()
            .filter(|(e, _)| !repair.removed_nodes.contains(&e.child))
            .map(|(e, _)| *e)
            .chain(repair.added_leaves.iter().map(|l| l.out_edge))
            .collect();
        let violations = patched.validate(&mutated);
        assert!(
            violations.is_empty(),
            "patched clustering violations: {:?}",
            &violations[..violations.len().min(5)]
        );
        let mut index = RepairIndex::build(clustering, edges);
        index.apply(repair);
        let mutated: Vec<(DirectedEdge, EdgeKind)> = mutated
            .into_iter()
            .map(|e| (e, EdgeKind::Original))
            .collect();
        assert_eq!(index, RepairIndex::build(&patched, &mutated));
    }

    fn repaired(
        clustering: &Clustering,
        edges: &[(DirectedEdge, EdgeKind)],
        ops: &[TopologyOp],
    ) -> ClusteringRepair {
        match plan_repair(clustering, edges, ops).expect("valid batch") {
            RepairOutcome::Repaired(r) => *r,
            RepairOutcome::Degrade(why) => panic!("unexpected degrade: {why:?}"),
        }
    }

    #[test]
    fn cut_leaf_on_path() {
        let tree = shapes::path(40);
        let (mut ctx, clustering, edges) = clustered(&tree, 4);
        // In shapes::path the deepest leaf is node 39 (each node's parent is its
        // predecessor).
        let repair = repaired(&clustering, &edges, &[TopologyOp::Cut { child: 39 }]);
        assert!(repair.removed_nodes.contains(&39));
        assert_eq!(repair.removed_nodes.len(), 1);
        assert_eq!(repair.new_num_nodes, 39);
        apply_and_validate(&mut ctx, &clustering, &edges, &repair);
    }

    #[test]
    fn cut_internal_subtree() {
        let tree = shapes::balanced_kary(40, 3);
        let (mut ctx, clustering, edges) = clustered(&tree, 4);
        let repair = repaired(&clustering, &edges, &[TopologyOp::Cut { child: 1 }]);
        // Node 1's subtree in a 3-ary heap ordering: children 4,5,6, etc.
        assert!(repair.removed_nodes.contains(&1));
        assert!(repair.removed_nodes.contains(&4));
        assert!(repair.removed_nodes.len() > 3);
        apply_and_validate(&mut ctx, &clustering, &edges, &repair);
    }

    #[test]
    fn link_leaf_and_chained_links() {
        let tree = shapes::path(30);
        let (mut ctx, clustering, edges) = clustered(&tree, 4);
        let repair = repaired(
            &clustering,
            &edges,
            &[
                TopologyOp::Link {
                    parent: 29,
                    child: 1000,
                },
                TopologyOp::Link {
                    parent: 1000,
                    child: 1001,
                },
            ],
        );
        assert_eq!(repair.added_leaves.len(), 2);
        assert_eq!(repair.new_num_nodes, 32);
        // Chained leaves join the same absorbing cluster as their pre-existing anchor.
        assert_eq!(
            repair.added_leaves[0].absorbed_into,
            repair.added_leaves[1].absorbed_into
        );
        apply_and_validate(&mut ctx, &clustering, &edges, &repair);
    }

    #[test]
    fn cut_then_relink_same_id() {
        let tree = shapes::caterpillar(20, 2);
        let (mut ctx, clustering, edges) = clustered(&tree, 4);
        let leaf = (tree.len() - 1) as u64;
        let parent = tree.parent(leaf as usize).expect("leaf has parent") as u64;
        let repair = repaired(
            &clustering,
            &edges,
            &[
                TopologyOp::Cut { child: leaf },
                TopologyOp::Link {
                    parent,
                    child: leaf,
                },
            ],
        );
        assert!(repair.removed_nodes.contains(&leaf));
        assert_eq!(repair.added_leaves.len(), 1);
        assert_eq!(repair.new_num_nodes, tree.len());
        apply_and_validate(&mut ctx, &clustering, &edges, &repair);
    }

    #[test]
    fn link_then_cut_is_noop() {
        let tree = shapes::path(20);
        let (_ctx, clustering, edges) = clustered(&tree, 4);
        let repair = repaired(
            &clustering,
            &edges,
            &[
                TopologyOp::Link {
                    parent: 10,
                    child: 500,
                },
                TopologyOp::Cut { child: 500 },
            ],
        );
        assert!(repair.is_noop());
        assert_eq!(repair.new_num_nodes, 20);
    }

    #[test]
    fn demotes_cluster_whose_in_edge_was_cut() {
        let tree = shapes::path(40);
        let (mut ctx, clustering, edges) = clustered(&tree, 4);
        // Cutting in the middle of a path severs some indegree-1 cluster's incoming
        // edge; the repair must demote it rather than leave a dangling in_edge.
        let repair = repaired(&clustering, &edges, &[TopologyOp::Cut { child: 20 }]);
        assert!(
            !repair.demoted.is_empty(),
            "a mid-path cut must demote at least one indegree-1 cluster"
        );
        apply_and_validate(&mut ctx, &clustering, &edges, &repair);
    }

    #[test]
    fn persistent_index_follows_a_sequence_of_batches() {
        let tree = shapes::balanced_kary(121, 3);
        let (mut ctx, mut clustering, mut edges) = clustered(&tree, 4);
        let mut index = RepairIndex::build(&clustering, &edges);
        let batches: [&[TopologyOp]; 4] = [
            &[
                TopologyOp::Cut { child: 17 },
                TopologyOp::Link {
                    parent: 3,
                    child: 1000,
                },
            ],
            &[
                TopologyOp::Link {
                    parent: 1000,
                    child: 1001,
                },
                TopologyOp::Cut { child: 40 },
            ],
            &[TopologyOp::Cut { child: 1000 }],
            &[
                TopologyOp::Link {
                    parent: 5,
                    child: 17,
                },
                TopologyOp::Cut { child: 9 },
            ],
        ];
        for ops in batches {
            let outcome = index.plan(ops).expect("valid batch");
            let RepairOutcome::Repaired(repair) = outcome else {
                panic!("unexpected degrade");
            };
            // The standalone entry point plans the same repair from scratch.
            let standalone = repaired(&clustering, &edges, ops);
            assert_eq!(*repair, standalone);
            apply_and_validate(&mut ctx, &clustering, &edges, &repair);

            index.apply(&repair);
            let mut els = clustering.elements.to_vec();
            els.retain_mut(|e| repair.retain_element(e));
            els.extend(repair.added_leaves.iter().copied());
            clustering.elements = ctx.from_vec(els);
            clustering.num_nodes = repair.new_num_nodes;
            edges.retain(|(e, _)| !repair.removed_nodes.contains(&e.child));
            edges.extend(
                repair
                    .added_leaves
                    .iter()
                    .map(|l| (l.out_edge, EdgeKind::Original)),
            );
            assert_eq!(index, RepairIndex::build(&clustering, &edges));
        }
    }

    #[test]
    fn leaves_cut_again_do_not_count_against_the_degree_bound() {
        // The star's centre is at the degree bound; a leaf linked below it and cut in
        // the same batch leaves the degree where it was.
        let tree = shapes::star(5);
        let (_ctx, clustering, edges) = clustered(&tree, 4);
        let repair = repaired(
            &clustering,
            &edges,
            &[
                TopologyOp::Link {
                    parent: 0,
                    child: 100,
                },
                TopologyOp::Cut { child: 100 },
            ],
        );
        assert!(repair.is_noop());
    }

    #[test]
    fn degree_overflow_degrades() {
        let tree = shapes::star(5);
        let (_ctx, clustering, edges) = clustered(&tree, 4);
        let ops: Vec<TopologyOp> = (0..3)
            .map(|i| TopologyOp::Link {
                parent: 0,
                child: 100 + i,
            })
            .collect();
        match plan_repair(&clustering, &edges, &ops).expect("valid batch") {
            RepairOutcome::Degrade(DegradeReason::DegreeOverflow { parent }) => {
                assert_eq!(parent, 0)
            }
            other => panic!("expected degree degrade, got {other:?}"),
        }
    }

    #[test]
    fn cluster_overflow_degrades() {
        // threshold 2 → member bound 6; pile links onto one small cluster.
        let tree = shapes::path(12);
        let (_ctx, clustering, edges) = clustered(&tree, 2);
        let ops: Vec<TopologyOp> = (0..8)
            .map(|i| TopologyOp::Link {
                parent: 11,
                child: 100 + 10 * i, // distinct parents chain below the previous leaf
            })
            .collect();
        // Chain them so no single node's degree overflows: each leaf hangs below the
        // previous one, but all land in the same absorbing cluster.
        let mut chained = vec![TopologyOp::Link {
            parent: 11,
            child: 100,
        }];
        for i in 1..8u64 {
            chained.push(TopologyOp::Link {
                parent: 100 + (i - 1),
                child: 100 + i,
            });
        }
        let _ = ops;
        match plan_repair(&clustering, &edges, &chained).expect("valid batch") {
            RepairOutcome::Degrade(DegradeReason::ClusterOverflow { .. }) => {}
            other => panic!("expected cluster degrade, got {other:?}"),
        }
    }

    #[test]
    fn invalid_ops_rejected() {
        let tree = shapes::path(10);
        let (_ctx, clustering, edges) = clustered(&tree, 4);
        let rejected = |ops: &[TopologyOp]| plan_repair(&clustering, &edges, ops).unwrap_err();
        assert_eq!(
            rejected(&[TopologyOp::Cut { child: 0 }]),
            RepairError::CutRoot
        );
        assert_eq!(
            rejected(&[TopologyOp::Cut { child: 77 }]),
            RepairError::UnknownChild(77)
        );
        assert_eq!(
            rejected(&[TopologyOp::Link {
                parent: 99,
                child: 100
            }]),
            RepairError::UnknownParent(99)
        );
        assert_eq!(
            rejected(&[TopologyOp::Link {
                parent: 3,
                child: 5
            }]),
            RepairError::DuplicateChild(5)
        );
        assert_eq!(
            rejected(&[TopologyOp::Link {
                parent: 3,
                child: AUX_BASE + 1
            }]),
            RepairError::ReservedChildId(AUX_BASE + 1)
        );
        // Ops are validated against the evolving state: a link below a node cut
        // earlier in the same batch is unknown.
        assert_eq!(
            rejected(&[
                TopologyOp::Cut { child: 5 },
                TopologyOp::Link {
                    parent: 7,
                    child: 100
                }
            ]),
            RepairError::UnknownParent(7)
        );
    }
}
