//! The dynamic-programming problem abstraction (Definition 1 of the paper) and the
//! per-cluster local view handed to problem implementations.

use mpc_engine::Words;
use tree_clustering::{EdgeKind, Element, ElementId, ElementKind};
use tree_repr::DirectedEdge;

/// Per-element payload during the DP: the original input of a node, or the summary of
/// an already-contracted cluster.
#[derive(Debug, Clone)]
pub enum Payload<I, S> {
    /// The problem input attached to an original node.
    Input(I),
    /// The summary `f(C)` of a contracted cluster element.
    Summary(S),
}

impl<I: Words, S: Words> Words for Payload<I, S> {
    fn words(&self) -> usize {
        1 + match self {
            Payload::Input(i) => i.words(),
            Payload::Summary(s) => s.words(),
        }
    }
}

/// One member of a cluster, as seen by [`ClusterDp::summarize`] /
/// [`ClusterDp::label_members`]: the clustering element, its payload, its position in
/// the member tree, and the data attached to its outgoing original edge.
pub struct Member<P: ClusterDp + ?Sized> {
    /// The clustering element (original node or contracted cluster).
    pub element: Element,
    /// The member's payload (input for nodes, summary for clusters).
    pub payload: Payload<P::NodeInput, P::Summary>,
    /// Kind of the member's outgoing original edge (original vs. auxiliary).
    pub out_kind: EdgeKind,
    /// Problem-specific data attached to the member's outgoing original edge
    /// (e.g. an edge weight); keyed by the edge's child endpoint.
    pub out_input: P::EdgeInput,
    /// Index (into [`ClusterView::members`]) of this member's parent member, `None` for
    /// the top member.
    pub parent: Option<usize>,
    /// Indices of this member's child members.
    pub children: Vec<usize>,
}

/// The local view of one cluster, fully assembled inside a single machine
/// (Figs. 2 and 3 of the paper).
pub struct ClusterView<P: ClusterDp + ?Sized> {
    /// The cluster's id.
    pub cluster: ElementId,
    /// The cluster's kind (indegree-0, indegree-1, or the top cluster).
    pub kind: ElementKind,
    /// The member elements forming a small tree.
    pub members: Vec<Member<P>>,
    /// Index of the top member (whose outgoing edge is the cluster's outgoing edge).
    pub top: usize,
    /// The cluster's outgoing original edge.
    pub out_edge: DirectedEdge,
    /// The cluster's incoming original edge (only for indegree-1 clusters).
    pub in_edge: Option<DirectedEdge>,
    /// Index of the member the incoming edge points into (the *attach* member).
    pub attach: Option<usize>,
    /// Kind of the incoming edge.
    pub in_kind: EdgeKind,
    /// Problem-specific data of the incoming edge (keyed by its external child
    /// endpoint).
    pub in_input: Option<P::EdgeInput>,
}

impl<P: ClusterDp + ?Sized> Clone for Member<P> {
    fn clone(&self) -> Self {
        Self {
            element: self.element,
            payload: self.payload.clone(),
            out_kind: self.out_kind,
            out_input: self.out_input.clone(),
            parent: self.parent,
            children: self.children.clone(),
        }
    }
}

impl<P: ClusterDp + ?Sized> Clone for ClusterView<P> {
    fn clone(&self) -> Self {
        Self {
            cluster: self.cluster,
            kind: self.kind,
            members: self.members.clone(),
            top: self.top,
            out_edge: self.out_edge,
            in_edge: self.in_edge,
            attach: self.attach,
            in_kind: self.in_kind,
            in_input: self.in_input.clone(),
        }
    }
}

impl<P: ClusterDp> Words for ClusterView<P> {
    fn words(&self) -> usize {
        4 + self
            .members
            .iter()
            .map(|m| {
                m.element.words() + m.payload.words() + 2 + m.out_input.words() + m.children.len()
            })
            .sum::<usize>()
    }
}

impl<P: ClusterDp + ?Sized> ClusterView<P> {
    /// Members in an order where every member appears after all of its children
    /// (bottom-up processing order).
    pub fn bottom_up_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.members.len());
        let mut stack = vec![self.top];
        while let Some(i) = stack.pop() {
            order.push(i);
            stack.extend(self.members[i].children.iter().copied());
        }
        order.reverse();
        order
    }

    /// Members in an order where every member appears before its children
    /// (top-down processing order).
    pub fn top_down_order(&self) -> Vec<usize> {
        let mut order = self.bottom_up_order();
        order.reverse();
        order
    }
}

/// A dynamic programming problem in the sense of Definition 1 of the paper.
///
/// * the task is to compute a [`Label`](Self::Label) for every edge of the tree
///   (including the virtual edge leaving the root, which carries the root's own state),
/// * every cluster can be summarized by a [`Summary`](Self::Summary) of `O(1)` words,
/// * [`summarize`](Self::summarize) computes a cluster's summary from its members'
///   payloads using `O(|C|)` additional space (Fig. 2),
/// * [`label_root`](Self::label_root) labels the virtual edge of the top cluster,
/// * [`label_members`](Self::label_members) labels all internal edges of a cluster given
///   the labels of its boundary edges (Fig. 3).
///
/// Problems must be `'static` (own their data) and their associated types `Send`,
/// which lets the MPC primitives recycle record buffers through the scratch arena of
/// a context that may itself move between threads. Plain-data problem types satisfy
/// these bounds automatically.
pub trait ClusterDp: 'static {
    /// Input attached to every original node (e.g. a weight).
    type NodeInput: Clone + Words + Send;
    /// Input attached to every original edge, keyed by the edge's child endpoint
    /// (use `()` when edges carry no data).
    type EdgeInput: Clone + Default + Words + Send;
    /// The `O(1)`-word cluster summary `f(C)`.
    type Summary: Clone + Words + Send;
    /// The per-edge output label.
    type Label: Clone + Words + Send;

    /// Summarize a cluster from its members (bottom-up step, Fig. 2).
    fn summarize(&self, view: &ClusterView<Self>) -> Self::Summary;

    /// Label the virtual outgoing edge of the top cluster given its summary.
    fn label_root(&self, summary: &Self::Summary) -> Self::Label;

    /// Label the outgoing edge of every member of a cluster, given the labels of the
    /// cluster's outgoing edge and (for indegree-1 clusters) incoming edge. The entry
    /// returned for the top member is ignored (its edge is the cluster's outgoing edge,
    /// already labeled).
    fn label_members(
        &self,
        view: &ClusterView<Self>,
        out_label: &Self::Label,
        in_label: Option<&Self::Label>,
    ) -> Vec<Self::Label>;

    /// Human-readable problem name (used by the experiment harness).
    fn name(&self) -> &'static str {
        "unnamed-dp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tree_clustering::VIRTUAL_NODE;

    /// A trivial problem used to exercise the view plumbing: count nodes in each subtree.
    struct CountNodes;

    impl ClusterDp for CountNodes {
        type NodeInput = u64;
        type EdgeInput = ();
        type Summary = u64;
        type Label = u64;

        fn summarize(&self, view: &ClusterView<Self>) -> u64 {
            view.members
                .iter()
                .map(|m| match &m.payload {
                    Payload::Input(_) => 1,
                    Payload::Summary(s) => *s,
                })
                .sum()
        }

        fn label_root(&self, summary: &u64) -> u64 {
            *summary
        }

        fn label_members(&self, view: &ClusterView<Self>, _: &u64, _: Option<&u64>) -> Vec<u64> {
            vec![0; view.members.len()]
        }
    }

    fn leaf_member(id: u64, parent: Option<usize>) -> Member<CountNodes> {
        Member {
            element: Element {
                id,
                kind: ElementKind::Node,
                formed_at: 0,
                absorbed_into: VIRTUAL_NODE,
                absorbed_at: 1,
                out_edge: DirectedEdge::new(id, id + 100),
                in_edge: None,
            },
            payload: Payload::Input(1),
            out_kind: EdgeKind::Original,
            out_input: (),
            parent,
            children: Vec::new(),
        }
    }

    #[test]
    fn orders_respect_parenthood() {
        let mut top = leaf_member(0, None);
        top.children = vec![1, 2];
        let mut mid = leaf_member(1, Some(0));
        mid.children = vec![3];
        let view: ClusterView<CountNodes> = ClusterView {
            cluster: 99,
            kind: ElementKind::TopCluster,
            members: vec![top, mid, leaf_member(2, Some(0)), leaf_member(3, Some(1))],
            top: 0,
            out_edge: DirectedEdge::new(0, VIRTUAL_NODE),
            in_edge: None,
            attach: None,
            in_kind: EdgeKind::Original,
            in_input: None,
        };
        let up = view.bottom_up_order();
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, &m) in up.iter().enumerate() {
                p[m] = i;
            }
            p
        };
        for (i, m) in view.members.iter().enumerate() {
            for &c in &m.children {
                assert!(pos[c] < pos[i]);
            }
        }
        assert_eq!(view.top_down_order()[0], 0);
        let summary = CountNodes.summarize(&view);
        assert_eq!(summary, 4);
        assert_eq!(CountNodes.label_root(&summary), 4);
    }

    #[test]
    fn payload_words_account_for_variant() {
        let p: Payload<u64, Vec<u64>> = Payload::Input(5);
        assert_eq!(p.words(), 2);
        let s: Payload<u64, Vec<u64>> = Payload::Summary(vec![1, 2, 3]);
        assert_eq!(s.words(), 5);
    }
}
