//! Host-side indexes over the cached clustering: where every element sits as a member,
//! which cluster views read which edge inputs, and which clusters read which labels.
//!
//! These indexes are what makes dirty propagation cheap: an update batch names node
//! ids and edge child endpoints, and the topology maps them straight to the cached
//! [`ClusterView`]s that have to be patched and re-processed. They depend only on the
//! clustering (not on inputs), so they are built once per [`IncrementalSolver`]
//! (from the views retained by the initial solve), reused for every input batch, and
//! patched in place by every locally repaired structural batch
//! ([`Topology::apply_repair`]).
//!
//! [`IncrementalSolver`]: crate::IncrementalSolver
//! [`ClusterView`]: tree_dp_core::ClusterView

use std::collections::BTreeMap;
use tree_clustering::{ClusteringRepair, ElementId};
use tree_dp_core::{ClusterDp, SolverStore};
use tree_repr::NodeId;

/// Where an element sits as a member of its absorbing cluster's cached view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemberSite {
    /// Layer at which the absorbing cluster's view is processed.
    pub layer: u32,
    /// The absorbing cluster.
    pub cluster: ElementId,
    /// Index into the view's `members`.
    pub index: usize,
}

/// The boundary edges of one cached cluster view (the labels its top-down step reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ClusterSite {
    /// Child endpoint of the cluster's outgoing edge (whose label is its out-label).
    pub out_child: NodeId,
    /// Child endpoint of the cluster's incoming edge, for indegree-1 clusters.
    pub in_child: Option<NodeId>,
}

/// All dirty-propagation indexes (see the module docs). Every per-key list is kept in
/// `(layer, cluster)` order — the order [`build`](Self::build) visits the views in — so
/// a patched topology is equal to a rebuilt one.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Topology {
    /// Element id → its member site in the absorbing cluster's view.
    pub member_site: BTreeMap<ElementId, MemberSite>,
    /// Cluster id → its own processed layer and boundary edges.
    pub cluster_site: BTreeMap<ElementId, ClusterSite>,
    /// Edge child → member sites whose `out_input` carries that edge's input.
    pub out_edge_sites: BTreeMap<NodeId, Vec<MemberSite>>,
    /// Edge child → views whose `in_input` carries that edge's input.
    pub in_edge_sites: BTreeMap<NodeId, Vec<(ElementId, u32)>>,
    /// Edge child → clusters that read that edge's *label* in their top-down step.
    /// A label produced at layer `ℓ` is only ever read at layers `< ℓ` (the top-down
    /// invariant of Definition 9), which is what makes one descending pass sufficient.
    pub label_readers: BTreeMap<NodeId, Vec<(ElementId, u32)>>,
    /// Cluster id → the layer its own view is processed at. The structural splice uses
    /// this reverse index to address the cached views of removed clusters directly
    /// (views are keyed by `(layer, cluster)` in the store).
    pub cluster_layer: BTreeMap<ElementId, u32>,
}

impl Topology {
    /// Build the indexes from the views retained by the initial solve.
    // mpc-cost: rounds(const)
    pub fn build<P: ClusterDp>(store: &SolverStore<P>) -> Self {
        let mut topo = Topology {
            member_site: BTreeMap::new(),
            cluster_site: BTreeMap::new(),
            out_edge_sites: BTreeMap::new(),
            in_edge_sites: BTreeMap::new(),
            label_readers: BTreeMap::new(),
            cluster_layer: BTreeMap::new(),
        };
        for layer in 1..=store.num_layers() {
            for (&cid, view) in store.views_at(layer) {
                topo.cluster_layer.insert(cid, layer);
                topo.cluster_site.insert(
                    cid,
                    ClusterSite {
                        out_child: view.out_edge.child,
                        in_child: view.in_edge.map(|e| e.child),
                    },
                );
                topo.label_readers
                    .entry(view.out_edge.child)
                    .or_default()
                    .push((cid, layer));
                if let Some(in_edge) = view.in_edge {
                    topo.label_readers
                        .entry(in_edge.child)
                        .or_default()
                        .push((cid, layer));
                    topo.in_edge_sites
                        .entry(in_edge.child)
                        .or_default()
                        .push((cid, layer));
                }
                for (index, member) in view.members.iter().enumerate() {
                    let site = MemberSite {
                        layer,
                        cluster: cid,
                        index,
                    };
                    topo.member_site.insert(member.element.id, site);
                    topo.out_edge_sites
                        .entry(member.element.out_edge.child)
                        .or_default()
                        .push(site);
                }
            }
        }
        topo
    }

    /// Follow a structural repair that was just spliced into `store`: forget the
    /// removed elements and every key of a removed edge (all of whose entries belong to
    /// removed or demoted views), clear the in-edge of demoted clusters, and
    /// re-register the members of the patched views, whose member indexes shifted.
    /// Touches only what the repair names.
    // mpc-cost: rounds(const)
    pub fn apply_repair<P: ClusterDp>(
        &mut self,
        store: &SolverStore<P>,
        repair: &ClusteringRepair,
    ) {
        for id in &repair.removed_elements {
            self.member_site.remove(id);
            self.cluster_site.remove(id);
            self.cluster_layer.remove(id);
        }
        for child in &repair.removed_nodes {
            self.out_edge_sites.remove(child);
            self.in_edge_sites.remove(child);
            self.label_readers.remove(child);
        }
        for cluster in &repair.demoted {
            if let Some(site) = self.cluster_site.get_mut(cluster) {
                site.in_child = None;
            }
        }
        for (&cluster, patch) in &repair.patches {
            if patch.removed_members.is_empty() && patch.added.is_empty() {
                continue; // demoted or merely touched: the member list did not move
            }
            let layer = patch.layer;
            let view = store
                .view(layer, cluster)
                .expect("patched cluster has a cached view");
            for (index, member) in view.members.iter().enumerate() {
                let site = MemberSite {
                    layer,
                    cluster,
                    index,
                };
                self.member_site.insert(member.element.id, site);
                // A view holds at most one member per outgoing edge.
                let sites = self
                    .out_edge_sites
                    .entry(member.element.out_edge.child)
                    .or_default();
                let at = sites.partition_point(|s| (s.layer, s.cluster) < (layer, cluster));
                match sites.get_mut(at) {
                    Some(s) if (s.layer, s.cluster) == (layer, cluster) => s.index = index,
                    _ => sites.insert(at, site),
                }
            }
        }
    }
}
