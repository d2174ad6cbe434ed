//! The per-cluster record store: everything a solve leaves behind so that later
//! solves on the same clustering can reuse it.
//!
//! The paper's headline structural message (Section 1.4) is that the hierarchical
//! clustering is computed once and each DP problem then costs only `O(1)` extra rounds.
//! [`SolverStore`] pushes that reuse one step further: it retains, per cluster, the
//! assembled [`ClusterView`] (members, their payloads, and the boundary-edge data)
//! together with the final per-element payloads and per-edge labels of the last solve.
//! A workload that changes a few inputs can then re-run the bottom-up summarization
//! only along the dirty root-paths and re-label only the affected top-down frontier —
//! this is what `tree-dp-incremental` builds on top of this store.
//!
//! All contents are plain `(id, record)` pairs (element id → payload, cluster id →
//! view, edge child → label), i.e. exactly the distributed records the machines hold
//! at the end of a solve; the store is the host-side record-keeping of that layout and
//! can be exported/rebuilt record by record (see [`SolverStore::export_labels`]).

use crate::plan::DpSolution;
use crate::problem::{ClusterDp, ClusterView, Payload};
use mpc_engine::{DistVec, MpcContext};
use std::collections::BTreeMap;
use tree_clustering::ElementId;
use tree_repr::NodeId;

/// Per-cluster records retained by a solve: cached views per layer, final payloads,
/// and final labels (see the module docs).
pub struct SolverStore<P: ClusterDp> {
    pub(crate) num_layers: u32,
    /// Final payload of every element: `Input` for nodes, `Summary` for clusters.
    pub(crate) payloads: BTreeMap<ElementId, Payload<P::NodeInput, P::Summary>>,
    /// Cached cluster views, indexed by the layer they are processed at (`layer - 1`)
    /// and keyed by cluster id.
    pub(crate) views: Vec<BTreeMap<ElementId, ClusterView<P>>>,
    /// One label per edge, keyed by the edge's child endpoint (the virtual root edge
    /// under the root's node id).
    pub(crate) labels: BTreeMap<NodeId, P::Label>,
    pub(crate) root_label: Option<P::Label>,
    pub(crate) root_summary: Option<P::Summary>,
}

impl<P: ClusterDp> SolverStore<P> {
    /// An empty store for a clustering with `num_layers` layers.
    pub fn new(num_layers: u32) -> Self {
        Self {
            num_layers,
            payloads: BTreeMap::new(),
            views: (0..num_layers).map(|_| BTreeMap::new()).collect(),
            labels: BTreeMap::new(),
            root_label: None,
            root_summary: None,
        }
    }

    /// Number of layers of the underlying clustering.
    pub fn num_layers(&self) -> u32 {
        self.num_layers
    }

    // ----- recording (called by the solver) ----------------------------------------

    /// Retain the views processed at `layer` (1-based).
    pub fn record_views(&mut self, layer: u32, views: &DistVec<ClusterView<P>>) {
        let slot = &mut self.views[(layer - 1) as usize];
        for view in views.iter() {
            slot.insert(view.cluster, view.clone());
        }
    }

    /// Retain the root label and root summary.
    pub fn set_root(&mut self, label: P::Label, summary: P::Summary) {
        self.root_label = Some(label);
        self.root_summary = Some(summary);
    }

    // ----- accessors / mutators (used by the incremental path) ---------------------

    /// The cached view of `cluster`, if any view was retained for it.
    pub fn view(&self, layer: u32, cluster: ElementId) -> Option<&ClusterView<P>> {
        self.views.get((layer - 1) as usize)?.get(&cluster)
    }

    /// Mutable access to the cached view of `cluster` at `layer`.
    pub fn view_mut(&mut self, layer: u32, cluster: ElementId) -> Option<&mut ClusterView<P>> {
        self.views.get_mut((layer - 1) as usize)?.get_mut(&cluster)
    }

    /// All cached views processed at `layer` (1-based), keyed by cluster id.
    pub fn views_at(&self, layer: u32) -> impl Iterator<Item = (&ElementId, &ClusterView<P>)> {
        self.views[(layer - 1) as usize].iter()
    }

    /// The final payload of `element`.
    pub fn payload(&self, element: ElementId) -> Option<&Payload<P::NodeInput, P::Summary>> {
        self.payloads.get(&element)
    }

    /// Overwrite the payload of `element`.
    pub fn set_payload(&mut self, element: ElementId, payload: Payload<P::NodeInput, P::Summary>) {
        self.payloads.insert(element, payload);
    }

    /// The label of the edge whose child endpoint is `child`.
    pub fn label(&self, child: NodeId) -> Option<&P::Label> {
        self.labels.get(&child)
    }

    /// Overwrite the label of the edge whose child endpoint is `child`.
    pub fn set_label(&mut self, child: NodeId, label: P::Label) {
        self.labels.insert(child, label);
    }

    /// All labels, keyed by edge child endpoint.
    pub fn labels(&self) -> &BTreeMap<NodeId, P::Label> {
        &self.labels
    }

    /// The label of the virtual root edge (present after the initial solve).
    pub fn root_label(&self) -> &P::Label {
        self.root_label.as_ref().expect("store holds a solve")
    }

    /// Overwrite the root label.
    pub fn set_root_label(&mut self, label: P::Label) {
        self.root_label = Some(label);
    }

    /// The summary of the top cluster (present after the initial solve).
    pub fn root_summary(&self) -> &P::Summary {
        self.root_summary.as_ref().expect("store holds a solve")
    }

    /// Overwrite the root summary.
    pub fn set_root_summary(&mut self, summary: P::Summary) {
        self.root_summary = Some(summary);
    }

    // ----- structural splicing (used by batched link/cut repair) --------------------

    /// Remove the payload of `element` (e.g. when a structural cut deletes it).
    pub fn remove_payload(&mut self, element: ElementId) {
        self.payloads.remove(&element);
    }

    /// Remove the label of the edge whose child endpoint is `child`.
    pub fn remove_label(&mut self, child: NodeId) {
        self.labels.remove(&child);
    }

    /// Remove the cached view of `cluster` at `layer` (1-based), returning it.
    pub fn remove_view(&mut self, layer: u32, cluster: ElementId) -> Option<ClusterView<P>> {
        self.views.get_mut((layer - 1) as usize)?.remove(&cluster)
    }

    /// Approximate resident size of the store in machine words: payloads, cached
    /// views, and labels, each counted at its [`Words`](mpc_engine::Words) width plus
    /// one key word. Used by the serving layer's per-tenant accounting.
    pub fn resident_words(&self) -> usize {
        use mpc_engine::Words;
        let payloads: usize = self.payloads.values().map(|p| 1 + p.words()).sum();
        let views: usize = self
            .views
            .iter()
            .flat_map(|layer| layer.values())
            .map(|v| 1 + v.words())
            .sum();
        let labels: usize = self.labels.values().map(|l| 1 + l.words()).sum();
        let roots = self.root_label.as_ref().map_or(0, |l| l.words())
            + self.root_summary.as_ref().map_or(0, |s| s.words());
        1 + payloads + views + labels + roots
    }

    /// Export the label table as plain records (e.g. for snapshotting).
    pub fn export_labels(&self) -> Vec<(NodeId, P::Label)> {
        self.labels.iter().map(|(c, l)| (*c, l.clone())).collect()
    }

    /// Materialize the store's current labels/root state as a [`DpSolution`]
    /// distributed over the machines of `ctx`.
    pub fn to_solution(&self, ctx: &mut MpcContext) -> DpSolution<P> {
        DpSolution {
            labels: ctx.from_vec(self.export_labels()),
            root_label: self.root_label().clone(),
            root_summary: self.root_summary().clone(),
        }
    }
}
