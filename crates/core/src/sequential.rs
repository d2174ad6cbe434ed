//! Sequential reference solver.
//!
//! Definition 1 already contains a complete sequential algorithm: treat the entire tree
//! as a single indegree-0 cluster, summarize it, label the virtual root edge, and then
//! label every internal edge. Running the *same* problem implementation through this
//! path and through the MPC solver gives a differential-testing oracle — any divergence
//! is a bug in the distributed machinery (or a genuine tie broken differently, which is
//! why tests compare solution *values*, not raw label vectors, for optimization
//! problems).

use crate::problem::{ClusterDp, Payload, SlotColumns};
use crate::skeleton::{Linked, PlanMember, Skeletons};
use std::collections::BTreeMap;
use tree_clustering::{EdgeKind, ElementKind, VIRTUAL_NODE};
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
///
/// # Panics
///
/// When `edge_info(c)` states another kind than `c` decides ([`EdgeKind::leaving`]):
/// the solve reads every kind off the child id, as a plan does.
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

    // The one view's slot columns: a member per node.
    let mut slots: SlotColumns<P> = SlotColumns::new(nodes.len(), 1);
    let members: Vec<PlanMember> = (nodes.iter().enumerate())
        .map(|(i, &v)| {
            let (kind, input) = edge_info(v);
            assert_eq!(kind, EdgeKind::leaving(v), "kind of the edge leaving {v}");
            slots.payloads[i] = Some(Payload::Input(node_input(v)));
            slots.out_inputs.set(i, Some(input));
            let parent = parent_of.get(&v).map(|p| index_of[p]);
            PlanMember::new(v, ElementKind::Node, parent, false)
        })
        .collect();
    let mut held = Skeletons::new(1);
    held.push(
        1,
        Linked {
            members,
            top: index_of[&root],
            kind: ElementKind::TopCluster,
            out_parent: VIRTUAL_NODE,
            in_edge: None,
        },
    );
    let skeleton = held.view(1, 0);
    let view = slots.view(skeleton);

    let root_summary = problem.summarize(&view);
    let root_label = problem.label_root(&root_summary);
    let member_labels = problem.label_members(&view, &root_label, None);
    let mut labels: BTreeMap<NodeId, P::Label> = BTreeMap::new();
    for (i, (&v, label)) in nodes.iter().zip(member_labels).enumerate() {
        if i == skeleton.top() {
            labels.insert(v, root_label.clone());
        } else {
            labels.insert(v, label);
        }
    }
    SequentialSolution {
        labels,
        root_label,
        root_summary,
    }
}
