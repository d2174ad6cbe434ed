//! The hierarchical clustering output type and its (test-oriented) validator.

use crate::element::{Element, ElementId, ElementKind, UNABSORBED, VIRTUAL_NODE};
use mpc_engine::DistVec;
use std::collections::{BTreeMap, BTreeSet};
use tree_repr::{DirectedEdge, NodeId};

/// A hierarchical clustering of a rooted tree (Definition 3 of the paper), in the
/// explicit, id-and-pointer form used algorithmically (Section 4.1).
///
/// Every original node and every cluster created during construction appears exactly
/// once in [`elements`](Self::elements); an element's `absorbed_into` / `absorbed_at`
/// fields encode the layer structure. The clustering depends only on the tree topology
/// and can be reused for any number of DP problems and input labellings (Section 1.4).
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Number of nodes of the (degree-reduced) input tree.
    pub num_nodes: usize,
    /// Root node of the input tree.
    pub root: NodeId,
    /// Highest layer index used (the top cluster lives at this layer).
    pub num_layers: u32,
    /// The cluster-size threshold `n^{δ/2}` that was used.
    pub threshold: usize,
    /// All elements: original nodes and clusters, with their absorption information.
    pub elements: DistVec<Element>,
    /// Id of the single topmost cluster.
    pub top_cluster: ElementId,
}

/// A violation found by [`Clustering::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusteringViolation(pub String);

impl Clustering {
    /// Host-side structural validator used by tests.
    ///
    /// Checks, against the original edge set, every property of Definitions 2 and 3:
    /// every node is eventually absorbed, clusters have exactly one outgoing and at most
    /// one incoming original edge, cluster element counts stay within `n^δ`-style
    /// bounds, and the layer structure is consistent.
    pub fn validate(&self, original_edges: &[DirectedEdge]) -> Vec<ClusteringViolation> {
        let mut violations = Vec::new();
        let mut err = |msg: String| violations.push(ClusteringViolation(msg));

        let elements: Vec<Element> = self.elements.to_vec();
        let by_id: BTreeMap<ElementId, &Element> = elements.iter().map(|e| (e.id, e)).collect();
        if by_id.len() != elements.len() {
            err("duplicate element ids".to_string());
        }

        // Exactly one top cluster, never absorbed.
        let tops: Vec<&Element> = elements
            .iter()
            .filter(|e| e.kind == ElementKind::TopCluster)
            .collect();
        if tops.len() != 1 {
            err(format!(
                "expected exactly one top cluster, found {}",
                tops.len()
            ));
        } else {
            let top = tops[0];
            if top.id != self.top_cluster {
                err("top_cluster id mismatch".to_string());
            }
            if top.absorbed_into != VIRTUAL_NODE {
                err("top cluster must not be absorbed".to_string());
            }
            if top.absorbed_at != UNABSORBED {
                err("top cluster must carry the UNABSORBED absorbed_at sentinel".to_string());
            }
            if top.out_edge.parent != VIRTUAL_NODE {
                err("top cluster's outgoing edge must be the virtual root edge".to_string());
            }
        }

        // Every original node appears exactly once as a Node element and is absorbed.
        let node_elements: Vec<&Element> = elements
            .iter()
            .filter(|e| e.kind == ElementKind::Node)
            .collect();
        if node_elements.len() != self.num_nodes {
            err(format!(
                "expected {} node elements, found {}",
                self.num_nodes,
                node_elements.len()
            ));
        }
        for e in &elements {
            if e.kind != ElementKind::TopCluster {
                if !by_id.contains_key(&e.absorbed_into) {
                    err(format!("element {} absorbed into unknown cluster", e.id));
                } else if !by_id[&e.absorbed_into].kind.is_cluster() {
                    err(format!("element {} absorbed into a non-cluster", e.id));
                }
                if e.absorbed_at == 0 {
                    err(format!(
                        "element {} absorbed at layer 0 (layers are numbered from 1)",
                        e.id
                    ));
                }
                if e.absorbed_at == UNABSORBED {
                    err(format!(
                        "element {} carries the UNABSORBED sentinel but is not the top cluster",
                        e.id
                    ));
                }
                if e.absorbed_at > self.num_layers {
                    err(format!("element {} absorbed above the top layer", e.id));
                }
                if e.absorbed_at <= e.formed_at {
                    err(format!(
                        "element {} absorbed at or before its formation",
                        e.id
                    ));
                }
                if let Some(parent) = by_id.get(&e.absorbed_into) {
                    if parent.formed_at != e.absorbed_at {
                        err(format!(
                            "element {} absorbed at layer {} into a cluster formed at layer {}",
                            e.id, e.absorbed_at, parent.formed_at
                        ));
                    }
                }
            }
        }

        // Per-cluster membership and cut-edge properties.
        let mut members: BTreeMap<ElementId, Vec<&Element>> = BTreeMap::new();
        for e in &elements {
            if e.kind != ElementKind::TopCluster {
                members.entry(e.absorbed_into).or_default().push(e);
            }
        }
        for e in &elements {
            if e.kind.is_cluster() && !members.contains_key(&e.id) {
                err(format!("cluster {} has no members", e.id));
            }
        }
        // The expansion below recurses along the absorption, which ends only where
        // every element is absorbed above the layer it formed at, into a cluster of
        // the table: the checks above. Any violation so far may leave it a cycle.
        if !violations.is_empty() {
            return violations;
        }
        let mut err = |msg: String| violations.push(ClusteringViolation(msg));

        // Recursively expand every cluster to its set of original nodes.
        let mut vsets: BTreeMap<ElementId, BTreeSet<NodeId>> = BTreeMap::new();
        fn vset_of(
            id: ElementId,
            by_id: &BTreeMap<ElementId, &Element>,
            members: &BTreeMap<ElementId, Vec<&Element>>,
            vsets: &mut BTreeMap<ElementId, BTreeSet<NodeId>>,
        ) -> BTreeSet<NodeId> {
            if let Some(v) = vsets.get(&id) {
                return v.clone();
            }
            let mut out = BTreeSet::new();
            match by_id.get(&id) {
                Some(e) if e.kind == ElementKind::Node => {
                    out.insert(e.id);
                }
                Some(_) => {
                    for m in members.get(&id).into_iter().flatten() {
                        out.extend(vset_of(m.id, by_id, members, vsets));
                    }
                }
                None => {}
            }
            vsets.insert(id, out.clone());
            out
        }

        // Adjacency of the original tree for cut-edge checks.
        let mut children_of: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        let mut parent_of: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        for e in original_edges {
            children_of.entry(e.parent).or_default().push(e.child);
            parent_of.insert(e.child, e.parent);
        }

        let max_members = self.threshold * (self.threshold + 1);
        for (cluster_id, mems) in &members {
            let Some(cluster) = by_id.get(cluster_id) else {
                continue;
            };
            if mems.len() > max_members {
                err(format!(
                    "cluster {} has {} members, exceeding the n^δ-style bound {}",
                    cluster_id,
                    mems.len(),
                    max_members
                ));
            }
            let vset = vset_of(*cluster_id, &by_id, &members, &mut vsets);
            // Outgoing edges of the cluster: original edges from inside to outside.
            let mut outgoing = Vec::new();
            let mut incoming = Vec::new();
            for &v in &vset {
                if let Some(&p) = parent_of.get(&v) {
                    if !vset.contains(&p) {
                        outgoing.push(DirectedEdge::new(v, p));
                    }
                } else {
                    // v is the original root: its virtual edge leaves every cluster.
                    outgoing.push(DirectedEdge::new(v, VIRTUAL_NODE));
                }
                for &c in children_of.get(&v).map(|v| v.as_slice()).unwrap_or(&[]) {
                    if !vset.contains(&c) {
                        incoming.push(DirectedEdge::new(c, v));
                    }
                }
            }
            if outgoing.len() != 1 {
                err(format!(
                    "cluster {} has {} outgoing edges (expected 1)",
                    cluster_id,
                    outgoing.len()
                ));
            } else if outgoing[0] != cluster.out_edge {
                err(format!(
                    "cluster {} records out_edge {:?} but the cut edge is {:?}",
                    cluster_id, cluster.out_edge, outgoing[0]
                ));
            }
            if incoming.len() > 1 {
                err(format!(
                    "cluster {} has {} incoming edges (expected at most 1)",
                    cluster_id,
                    incoming.len()
                ));
            }
            match (cluster.kind, incoming.len()) {
                (ElementKind::ClusterIndeg0, 0) | (ElementKind::TopCluster, 0) => {}
                (ElementKind::ClusterIndeg1, 1) => {
                    if cluster.in_edge != Some(incoming[0]) {
                        err(format!(
                            "cluster {} records in_edge {:?} but the cut edge is {:?}",
                            cluster_id, cluster.in_edge, incoming[0]
                        ));
                    }
                }
                (kind, k) => err(format!(
                    "cluster {} of kind {:?} has {} incoming edges",
                    cluster_id, kind, k
                )),
            }
        }

        // The top cluster must cover every original node.
        let all = vset_of(self.top_cluster, &by_id, &members, &mut vsets);
        if all.len() != self.num_nodes {
            err(format!(
                "top cluster covers {} of {} nodes",
                all.len(),
                self.num_nodes
            ));
        }

        violations
    }

    /// Maximum number of member elements over all clusters (host-side helper for
    /// examples and tests).
    pub fn max_cluster_size(&self) -> usize {
        let mut counts: BTreeMap<ElementId, usize> = BTreeMap::new();
        for e in self.elements.iter() {
            if e.kind != ElementKind::TopCluster {
                *counts.entry(e.absorbed_into).or_default() += 1;
            }
        }
        counts.values().copied().max().unwrap_or(0)
    }

    /// Number of clusters created.
    pub fn num_clusters(&self) -> usize {
        self.elements.iter().filter(|e| e.kind.is_cluster()).count()
    }
}
