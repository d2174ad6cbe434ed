//! Sequential reference solver.
//!
//! Definition 1 already contains a complete sequential algorithm: treat the entire tree
//! as a single indegree-0 cluster, summarize it, label the virtual root edge, and then
//! label every internal edge. Running the *same* problem implementation through this
//! path and through the MPC solver gives a differential-testing oracle — any divergence
//! is a bug in the distributed machinery (or a genuine tie broken differently, which is
//! why tests compare solution *values*, not raw label vectors, for optimization
//! problems).

use crate::plan::{PlanMember, PlanView};
use crate::problem::{ClusterDp, ClusterView, Payload, SlotState};
use std::collections::BTreeMap;
use tree_clustering::{EdgeKind, Element, ElementKind, VIRTUAL_NODE};
use tree_repr::{DirectedEdge, NodeId};

/// Solution produced by [`solve_sequential`].
#[derive(Debug, Clone)]
pub struct SequentialSolution<P: ClusterDp> {
    /// One label per edge, keyed by the edge's child endpoint (the root's entry is the
    /// virtual edge's label).
    pub labels: BTreeMap<NodeId, P::Label>,
    /// Label of the virtual root edge.
    pub root_label: P::Label,
    /// Summary of the whole tree (e.g. the optimum value).
    pub root_summary: P::Summary,
}

/// Solve a DP problem sequentially on a host-side edge list.
///
/// `node_input(v)` supplies the input of node `v`; `edge_info(c)` supplies the kind and
/// edge input of the edge whose child endpoint is `c`.
pub fn solve_sequential<P: ClusterDp>(
    problem: &P,
    edges: &[DirectedEdge],
    root: NodeId,
    node_input: impl Fn(NodeId) -> P::NodeInput,
    edge_info: impl Fn(NodeId) -> (EdgeKind, P::EdgeInput),
) -> SequentialSolution<P> {
    // Build the whole tree as one top cluster whose members are all original nodes.
    let mut nodes: Vec<NodeId> = edges.iter().map(|e| e.child).collect();
    nodes.push(root);
    nodes.sort_unstable();
    nodes.dedup();
    let index_of: BTreeMap<NodeId, usize> =
        nodes.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let parent_of: BTreeMap<NodeId, NodeId> = edges.iter().map(|e| (e.child, e.parent)).collect();

    let mut slots: SlotState<P> = SlotState {
        payloads: Vec::with_capacity(nodes.len()),
        out_inputs: Vec::with_capacity(nodes.len()),
        in_input: None,
    };
    let mut members: Vec<PlanMember> = nodes
        .iter()
        .map(|&v| {
            let parent = parent_of.get(&v).copied();
            let (kind, input) = edge_info(v);
            slots.payloads.push(Some(Payload::Input(node_input(v))));
            slots.out_inputs.push(Some(input));
            PlanMember {
                element: Element {
                    id: v,
                    kind: ElementKind::Node,
                    formed_at: 0,
                    absorbed_into: VIRTUAL_NODE,
                    absorbed_at: 1,
                    out_edge: DirectedEdge::new(v, parent.unwrap_or(VIRTUAL_NODE)),
                    in_edge: None,
                },
                out_kind: kind,
                parent: parent.map(|p| index_of[&p]),
                children: Vec::new(),
            }
        })
        .collect();
    for i in 0..members.len() {
        if let Some(p) = members[i].parent {
            members[p].children.push(i);
        }
    }
    let skeleton = PlanView {
        cluster: VIRTUAL_NODE,
        kind: ElementKind::TopCluster,
        members,
        top: index_of[&root],
        out_edge: DirectedEdge::new(root, VIRTUAL_NODE),
        in_edge: None,
        attach: None,
        in_kind: EdgeKind::Original,
    };
    let view = ClusterView {
        skeleton: &skeleton,
        slots: &slots,
    };

    let root_summary = problem.summarize(&view);
    let root_label = problem.label_root(&root_summary);
    let member_labels = problem.label_members(&view, &root_label, None);
    let mut labels: BTreeMap<NodeId, P::Label> = BTreeMap::new();
    for (i, m) in skeleton.members.iter().enumerate() {
        if i == skeleton.top {
            labels.insert(m.element.id, root_label.clone());
        } else {
            labels.insert(m.element.id, member_labels[i].clone());
        }
    }
    SequentialSolution {
        labels,
        root_label,
        root_summary,
    }
}
