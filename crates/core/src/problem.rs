//! The dynamic-programming problem abstraction (Definition 1 of the paper) and the
//! per-cluster local view handed to problem implementations: a [`ClusterView`] borrows
//! a skeleton of the solve plan ([`PlanView`], assembled on one machine once) and the
//! [`SlotState`] a problem's payloads and edge inputs were routed into beside it.

use crate::plan::PlanView;
use mpc_engine::Words;

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

/// The problem-dependent slots of one cluster view, aligned member for member with its
/// [`PlanView`] skeleton: the payload and the out-edge input of every member, and the
/// input of the cluster's incoming edge. A slot is `None` until a record reaches it; an
/// edge input nobody supplied reads as `Default::default()`.
pub struct SlotState<P: ClusterDp + ?Sized> {
    /// Per member: its payload (input for nodes, summary for clusters).
    pub payloads: Vec<Option<Payload<P::NodeInput, P::Summary>>>,
    /// Per member: the problem data of its outgoing original edge (e.g. an edge
    /// weight), keyed by the edge's child endpoint.
    pub out_inputs: Vec<Option<P::EdgeInput>>,
    /// The problem data of the cluster's incoming edge (keyed by its external child
    /// endpoint).
    pub in_input: Option<P::EdgeInput>,
}

impl<P: ClusterDp + ?Sized> SlotState<P> {
    /// Empty slots for every member of `skeleton`.
    pub(crate) fn for_view(skeleton: &PlanView) -> Self {
        Self {
            payloads: skeleton.members.iter().map(|_| None).collect(),
            out_inputs: skeleton.members.iter().map(|_| None).collect(),
            in_input: None,
        }
    }
}

/// The local view of one cluster, fully assembled inside a single machine
/// (Figs. 2 and 3 of the paper), as handed to [`ClusterDp::summarize`] /
/// [`ClusterDp::label_members`]: the problem-independent skeleton the solve plan
/// assembled once, paired with the slots this problem's records were routed into.
/// Nothing is copied to form a view; every pass reads the same two records.
pub struct ClusterView<'a, P: ClusterDp + ?Sized> {
    /// The cluster's kind, boundary edges and member tree (member `i` of the view is
    /// `skeleton.members[i]`).
    pub skeleton: &'a PlanView,
    /// The slots aligned with `skeleton.members`.
    pub slots: &'a SlotState<P>,
}

impl<P: ClusterDp> Words for ClusterView<'_, P> {
    fn words(&self) -> usize {
        let unset = P::EdgeInput::default().words();
        4 + self
            .skeleton
            .members
            .iter()
            .zip(&self.slots.payloads)
            .zip(&self.slots.out_inputs)
            .map(|((m, payload), out_input)| {
                m.element.words()
                    + payload.as_ref().map_or(0, Words::words)
                    + 2
                    + out_input.as_ref().map_or(unset, Words::words)
                    + m.children.len()
            })
            .sum::<usize>()
    }
}

impl<'a, P: ClusterDp + ?Sized> ClusterView<'a, P> {
    /// The payload of member `i` (input for nodes, summary for clusters).
    pub fn payload(&self, i: usize) -> &'a Payload<P::NodeInput, P::Summary> {
        self.slots.payloads[i]
            .as_ref()
            .expect("every member has a payload (input or summary)")
    }

    /// The problem data attached to member `i`'s outgoing original edge.
    pub fn out_input(&self, i: usize) -> P::EdgeInput {
        self.slots.out_inputs[i].clone().unwrap_or_default()
    }

    /// The problem data of the cluster's incoming edge; `None` for a cluster without
    /// one.
    pub fn in_input(&self) -> Option<P::EdgeInput> {
        self.skeleton
            .in_edge
            .map(|_| self.slots.in_input.clone().unwrap_or_default())
    }

    /// Members in an order where every member appears after all of its children
    /// (bottom-up processing order).
    pub fn bottom_up_order(&self) -> Vec<usize> {
        let members = &self.skeleton.members;
        let mut order = Vec::with_capacity(members.len());
        let mut stack = vec![self.skeleton.top];
        while let Some(i) = stack.pop() {
            order.push(i);
            stack.extend(members[i].children.iter().copied());
        }
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
    fn summarize(&self, view: &ClusterView<'_, Self>) -> Self::Summary;

    /// Label the virtual outgoing edge of the top cluster given its summary.
    fn label_root(&self, summary: &Self::Summary) -> Self::Label;

    /// Label the outgoing edge of every member of a cluster, given the labels of the
    /// cluster's outgoing edge and (for indegree-1 clusters) incoming edge. The entry
    /// returned for the top member is ignored (its edge is the cluster's outgoing edge,
    /// already labeled).
    fn label_members(
        &self,
        view: &ClusterView<'_, Self>,
        out_label: &Self::Label,
        in_label: Option<&Self::Label>,
    ) -> Vec<Self::Label>;

    /// Human-readable problem name (used in test and report messages).
    fn name(&self) -> &'static str {
        "unnamed-dp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanMember;
    use tree_clustering::{EdgeKind, Element, ElementKind, VIRTUAL_NODE};
    use tree_repr::DirectedEdge;

    /// A trivial problem used to exercise the view plumbing: count nodes in each subtree.
    struct CountNodes;

    impl ClusterDp for CountNodes {
        type NodeInput = u64;
        type EdgeInput = ();
        type Summary = u64;
        type Label = u64;

        fn summarize(&self, view: &ClusterView<'_, Self>) -> u64 {
            (0..view.skeleton.members.len())
                .map(|i| match view.payload(i) {
                    Payload::Input(_) => 1,
                    Payload::Summary(s) => *s,
                })
                .sum()
        }

        fn label_root(&self, summary: &u64) -> u64 {
            *summary
        }

        fn label_members(
            &self,
            view: &ClusterView<'_, Self>,
            _: &u64,
            _: Option<&u64>,
        ) -> Vec<u64> {
            vec![0; view.skeleton.members.len()]
        }
    }

    fn leaf_member(id: u64, parent: Option<usize>) -> PlanMember {
        PlanMember {
            element: Element {
                id,
                kind: ElementKind::Node,
                formed_at: 0,
                absorbed_into: VIRTUAL_NODE,
                absorbed_at: 1,
                out_edge: DirectedEdge::new(id, id + 100),
                in_edge: None,
            },
            out_kind: EdgeKind::Original,
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
        let skeleton = PlanView {
            cluster: 99,
            kind: ElementKind::TopCluster,
            members: vec![top, mid, leaf_member(2, Some(0)), leaf_member(3, Some(1))],
            top: 0,
            out_edge: DirectedEdge::new(0, VIRTUAL_NODE),
            in_edge: None,
            attach: None,
            in_kind: EdgeKind::Original,
        };
        let mut slots: SlotState<CountNodes> = SlotState::for_view(&skeleton);
        slots.payloads.fill(Some(Payload::Input(1)));
        let view = ClusterView {
            skeleton: &skeleton,
            slots: &slots,
        };
        let up = view.bottom_up_order();
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, &m) in up.iter().enumerate() {
                p[m] = i;
            }
            p
        };
        for (i, m) in skeleton.members.iter().enumerate() {
            for &c in &m.children {
                assert!(pos[c] < pos[i]);
            }
        }
        assert_eq!(up.last(), Some(&0), "the top member comes last");
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
