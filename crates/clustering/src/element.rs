//! Elements of the hierarchical clustering: original nodes and contracted clusters.

use crate::degree::is_aux_node;
use mpc_engine::Words;
use tree_repr::{DirectedEdge, NodeId};

/// Identifier of an element: either an original node id or a cluster id.
///
/// Cluster ids have the [`CLUSTER_FLAG`] bit set; original node ids must stay below that
/// bit (checked during construction).
pub type ElementId = u64;

/// Bit that distinguishes cluster ids from original node ids.
pub const CLUSTER_FLAG: u64 = 1 << 62;

/// Identifier of the virtual node outside the tree that the root's virtual outgoing edge
/// points to (Section 1.5: "we add at the root an additional virtual edge pointing
/// outside the tree").
pub const VIRTUAL_NODE: ElementId = u64::MAX;

/// `true` if `id` denotes a cluster created during the clustering construction.
pub fn is_cluster_id(id: ElementId) -> bool {
    id != VIRTUAL_NODE && (id & CLUSTER_FLAG) != 0
}

/// Sentinel value of [`Element::absorbed_at`] for the one element that is never
/// absorbed: the top cluster.
///
/// Invariant (checked by [`crate::clustering::Clustering::validate`]): `absorbed_at ==
/// UNABSORBED` if and only if `kind == ElementKind::TopCluster`. In particular `0` is
/// **not** a valid absorption layer (layers are numbered from 1) and is **not**
/// interchangeable with the sentinel;
/// structural repair relies on this to distinguish "absorbed at the first layer" from
/// "the unabsorbed top" without consulting the kind.
pub const UNABSORBED: u32 = u32::MAX;

/// Build a cluster id from the layer it is formed at and its defining element
/// (the subtree root for indegree-0 clusters, the topmost path node for indegree-1
/// clusters). Only the low 48 bits of the defining id are used; this is unambiguous
/// because at any point in the construction at most one active element carries a given
/// low-48-bit pattern (original node ids must stay below 2^48).
pub fn make_cluster_id(layer: u32, defining: ElementId) -> ElementId {
    CLUSTER_FLAG | ((layer as u64) << 48) | (defining & DEFINING_MASK)
}

/// The low 48 bits of an id: what [`make_cluster_id`] keeps of the defining element.
const DEFINING_MASK: u64 = (1 << 48) - 1;

/// The layer a cluster id was formed at (see [`make_cluster_id`]).
pub fn cluster_layer(cluster: ElementId) -> u32 {
    ((cluster & !CLUSTER_FLAG) >> 48) as u32
}

/// The original node a cluster id names: the low 48 bits of its defining element's
/// id, which for a cluster id are its own defining element's in turn. The defining
/// element is the cluster's top element, whose outgoing edge is the cluster's, so this
/// is the child endpoint of the cluster's outgoing edge.
pub fn defining_node(cluster: ElementId) -> NodeId {
    cluster & DEFINING_MASK
}

/// What an element is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementKind {
    /// An original node of the (degree-reduced) input tree.
    Node,
    /// An indegree-0 cluster (a fully contracted subtree; drawn as a *colored* node in
    /// Fig. 5 of the paper).
    ClusterIndeg0,
    /// An indegree-1 cluster (a contracted caterpillar around a degree-2 path fragment).
    ClusterIndeg1,
    /// The single topmost cluster containing everything.
    TopCluster,
}

impl ElementKind {
    /// `true` for any of the cluster kinds.
    pub fn is_cluster(&self) -> bool {
        !matches!(self, ElementKind::Node)
    }
}

/// One element of the hierarchical clustering, as recorded in the final output.
///
/// `absorbed_into` / `absorbed_at` say which cluster (and at which layer) this element
/// became a member of; the top cluster is the only element that is never absorbed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Element {
    /// This element's id.
    pub id: ElementId,
    /// What it is.
    pub kind: ElementKind,
    /// Layer at which the element came into existence (0 for original nodes).
    pub formed_at: u32,
    /// Cluster that absorbed it, or [`VIRTUAL_NODE`] for the top cluster.
    pub absorbed_into: ElementId,
    /// Layer at which it was absorbed (`u32::MAX` for the top cluster).
    pub absorbed_at: u32,
    /// The unique *original-tree* edge leaving this element (for the top cluster and the
    /// original root this is the virtual edge `(root, VIRTUAL_NODE)`).
    pub out_edge: DirectedEdge,
    /// For indegree-1 clusters: the unique original-tree edge entering the element.
    pub in_edge: Option<DirectedEdge>,
}

impl Element {
    /// `true` for every element except the top cluster: the tests' reader of the
    /// sentinel, which library code checks through `Clustering::validate`.
    ///
    /// Debug builds assert the [`UNABSORBED`] sentinel invariant: the `u32::MAX`
    /// sentinel appears exactly on the [`ElementKind::TopCluster`] element, so an
    /// `absorbed_at` of `0` (never produced — layers start at 1) can never be confused
    /// with "unabsorbed".
    #[cfg(test)]
    fn is_absorbed(&self) -> bool {
        debug_assert_eq!(
            self.absorbed_at == UNABSORBED,
            self.kind == ElementKind::TopCluster,
            "absorbed_at sentinel out of sync with kind for element {}",
            self.id
        );
        self.absorbed_at != UNABSORBED
    }
}

impl Words for Element {
    fn words(&self) -> usize {
        10
    }
}

/// Kind of an edge after degree reduction (Sections 4.4 and 5.3).
///
/// An edge's kind is decided by its child endpoint alone — it is
/// [`Auxiliary`](Self::Auxiliary) exactly when that child is an auxiliary node
/// ([`is_aux_node`]), see [`EdgeKind::leaving`]. A kind is therefore computed wherever
/// it is read and never stored: not in the degree-reduced edge list, not in a plan's
/// skeletons, not in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// An edge of the original input tree (possibly re-targeted at an auxiliary node
    /// that stands in for the original parent).
    Original,
    /// An edge between an auxiliary copy of a high-degree node and its parent (another
    /// auxiliary copy or the original node); DP rules must treat both endpoints as the
    /// same original node.
    Auxiliary,
}

impl EdgeKind {
    /// The kind of the edge leaving `child`: [`Auxiliary`](Self::Auxiliary) when
    /// `child` is an auxiliary node, [`Original`](Self::Original) otherwise (the
    /// root's virtual edge included).
    pub fn leaving(child: NodeId) -> EdgeKind {
        match is_aux_node(child) {
            true => EdgeKind::Auxiliary,
            false => EdgeKind::Original,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_ids_are_flagged_and_unique_per_layer() {
        let a = make_cluster_id(1, 42);
        let b = make_cluster_id(2, 42);
        let c = make_cluster_id(1, 43);
        assert!(is_cluster_id(a));
        assert!(!is_cluster_id(42));
        assert!(!is_cluster_id(VIRTUAL_NODE));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!((cluster_layer(b), defining_node(b)), (2, 42));
        assert_eq!(defining_node(make_cluster_id(3, b)), 42);
    }

    #[test]
    fn kinds_classify() {
        assert!(!ElementKind::Node.is_cluster());
        assert!(ElementKind::ClusterIndeg0.is_cluster());
        assert!(ElementKind::ClusterIndeg1.is_cluster());
        assert!(ElementKind::TopCluster.is_cluster());
    }

    #[test]
    fn absorbed_at_sentinel_is_unambiguous() {
        let absorbed_at_layer_1 = Element {
            id: 1,
            kind: ElementKind::Node,
            formed_at: 0,
            absorbed_into: make_cluster_id(1, 0),
            absorbed_at: 1,
            out_edge: DirectedEdge::new(1, 2),
            in_edge: None,
        };
        assert!(absorbed_at_layer_1.is_absorbed());
        let top = Element {
            id: make_cluster_id(3, 0),
            kind: ElementKind::TopCluster,
            formed_at: 3,
            absorbed_into: VIRTUAL_NODE,
            absorbed_at: UNABSORBED,
            out_edge: DirectedEdge::new(0, VIRTUAL_NODE),
            in_edge: None,
        };
        assert!(!top.is_absorbed());
    }

    #[test]
    #[should_panic(expected = "absorbed_at sentinel out of sync")]
    #[cfg(debug_assertions)]
    fn absorbed_at_sentinel_on_non_top_is_caught() {
        let bogus = Element {
            id: 7,
            kind: ElementKind::Node,
            formed_at: 0,
            absorbed_into: make_cluster_id(1, 0),
            absorbed_at: UNABSORBED,
            out_edge: DirectedEdge::new(7, 2),
            in_edge: None,
        };
        let _ = bogus.is_absorbed();
    }

    #[test]
    fn element_word_size_is_constant() {
        let e = Element {
            id: 1,
            kind: ElementKind::Node,
            formed_at: 0,
            absorbed_into: make_cluster_id(1, 0),
            absorbed_at: 1,
            out_edge: DirectedEdge::new(1, 2),
            in_edge: None,
        };
        assert_eq!(e.words(), 10);
    }
}
