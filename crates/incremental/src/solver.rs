//! The incremental solver: initial cached solve plus batched re-solves along dirty
//! root-paths (see the crate docs for the three-phase round structure).

use crate::structural::{StructuralBatch, StructuralError, StructuralOp, StructuralStats};
use crate::topology::Topology;
use mpc_engine::{DistVec, MpcContext, Words};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use tree_clustering::{
    is_aux_node, ClusteringRepair, EdgeKind, ElementId, ElementKind, RepairIndex, RepairOutcome,
    TopologyOp, VIRTUAL_NODE,
};
use tree_dp_core::{
    prepare, ClusterDp, ClusterView, DpSolution, Member, Payload, PreparedTree, SolverStore,
};
use tree_repr::{DirectedEdge, ListOfEdges, NodeId, TreeInput};

/// What one update batch cost and touched.
#[derive(Debug, Clone, Copy, Default)]
pub struct UpdateStats {
    /// Number of update records in the batch.
    pub batch_size: usize,
    /// Clusters re-summarized in the bottom-up pass (the dirty root-paths).
    pub resummarized: usize,
    /// Summaries that actually changed (dirt that kept propagating upward).
    pub summaries_changed: usize,
    /// Clusters re-labeled in the top-down pass (the affected frontier).
    pub relabeled: usize,
    /// Edge labels that actually changed.
    pub labels_changed: usize,
    /// MPC rounds charged for this batch (across `inc-dirty`, `inc-up`, `inc-down`).
    pub rounds: u64,
    /// Words sent for this batch.
    pub words_sent: u64,
}

/// An incremental DP solver over a prepared (clustered) tree.
///
/// Construction performs one full solve while caching per-cluster views, payloads, and
/// labels per layer; [`update_node_inputs`](Self::update_node_inputs) and
/// [`update_edge_inputs`](Self::update_edge_inputs) then re-solve batched input
/// changes by re-processing only the dirty clusters. The cached solution is always
/// identical to what a full [`SolvePlan::solve`](tree_dp_core::SolvePlan::solve) on
/// the current inputs would produce.
pub struct IncrementalSolver<P: ClusterDp>
where
    P::Summary: PartialEq,
    P::Label: PartialEq,
{
    problem: P,
    store: SolverStore<P>,
    topo: Topology,
    num_layers: u32,
    top_cluster: ElementId,
    root: NodeId,
    /// The input assigned to auxiliary degree-reduction nodes, retained so the
    /// degraded structural path can re-prepare and re-solve without asking the caller.
    aux_input: P::NodeInput,
    /// The index structural batches are planned against, built over the prepared
    /// tree's clustering on the first structural batch and patched by every locally
    /// repaired one. Derived data: a restored solver starts without it, and a degrade
    /// (which replaces the clustering) drops it.
    repair_index: Option<RepairIndex>,
}

impl<P: ClusterDp> IncrementalSolver<P>
where
    P::Summary: PartialEq,
    P::Label: PartialEq,
{
    /// Solve the problem once on `prepared` (same contract as
    /// [`PreparedTree::solve`]), caching all per-cluster records for later updates.
    ///
    /// The initial solve runs over the prepared tree's shared
    /// [`SolvePlan`](tree_dp_core::SolvePlan): the cached views the incremental
    /// machinery patches *are* the plan's skeleton views filled with this problem's
    /// payloads, so constructing a solver on an already-planned tree charges only the
    /// cheap evaluation pass (and building several solvers — or mixing incremental
    /// updates with [`SolvePlan::solve`](tree_dp_core::SolvePlan::solve) calls for
    /// other problems — shares one assembly).
    ///
    /// * `node_inputs` — inputs of the *original* nodes.
    /// * `aux_input` — the input of every auxiliary node introduced by degree
    ///   reduction (never touched by updates; auxiliary copies keep it).
    /// * `edge_inputs` — optional per-edge inputs keyed by the edge's child endpoint.
    // mpc-cost: rounds(layers)
    pub fn new(
        ctx: &mut MpcContext,
        prepared: &PreparedTree,
        problem: P,
        node_inputs: &DistVec<(NodeId, P::NodeInput)>,
        aux_input: P::NodeInput,
        edge_inputs: &DistVec<(NodeId, P::EdgeInput)>,
    ) -> Self {
        let (_, store) = prepared.plan(ctx).solve_with_store(
            ctx,
            &problem,
            node_inputs,
            aux_input.clone(),
            edge_inputs,
        );
        let topo = Topology::build(&store);
        Self {
            problem,
            store,
            topo,
            num_layers: prepared.num_layers(),
            top_cluster: prepared.clustering.top_cluster,
            root: prepared.clustering.root,
            aux_input,
            repair_index: None,
        }
    }

    /// Rebuild a solver from a restored [`SolverStore`] without re-solving — the
    /// snapshot-restore path of the serving layer (`tree-dp-server`).
    ///
    /// The store must hold a complete solve of `problem` on the tree whose top
    /// cluster is `top_cluster` and whose root is `root` (e.g. a store round-tripped
    /// through [`SolverStore::to_snapshot`](tree_dp_core::SolverStore)). The cluster
    /// topology is re-derived from the store's cached views, so the restored solver
    /// behaves bit-identically to the one that was snapshotted: same labels, same
    /// update deltas, same round charges. Costs zero MPC rounds — restoration is
    /// machine-local record placement, not communication.
    // mpc-cost: rounds(const)
    pub fn restore(
        problem: P,
        store: SolverStore<P>,
        top_cluster: ElementId,
        root: NodeId,
        aux_input: P::NodeInput,
    ) -> Self {
        let topo = Topology::build(&store);
        let num_layers = store.num_layers();
        Self {
            problem,
            store,
            topo,
            num_layers,
            top_cluster,
            root,
            aux_input,
            repair_index: None,
        }
    }

    /// Apply a batch of node-input changes (keyed by *original* node id; unknown ids
    /// are ignored) and re-solve incrementally.
    // mpc-cost: rounds(layers)
    pub fn update_node_inputs(
        &mut self,
        ctx: &mut MpcContext,
        updates: &[(NodeId, P::NodeInput)],
    ) -> UpdateStats {
        self.apply_batch(ctx, updates, &[])
    }

    /// Apply a batch of edge-input changes (keyed by the edge's child endpoint;
    /// unknown keys are ignored) and re-solve incrementally.
    // mpc-cost: rounds(layers)
    pub fn update_edge_inputs(
        &mut self,
        ctx: &mut MpcContext,
        updates: &[(NodeId, P::EdgeInput)],
    ) -> UpdateStats {
        self.apply_batch(ctx, &[], updates)
    }

    /// Apply one mixed batch of node- and edge-input changes.
    ///
    /// The three phases charge rounds for the deterministic MPC implementation whose
    /// data movement they simulate on the cached records: `inc-dirty` routes the batch
    /// to the machines holding the affected views (1 round — the addresses are known
    /// from the cached clustering), `inc-up` forwards changed summaries to the parent
    /// clusters' machines (1 round per layer that produced a change), and `inc-down`
    /// forwards changed boundary labels to the reading clusters' machines (1 round per
    /// layer that produced a change). Local recomputation is free in the MPC model.
    // mpc-cost: rounds(layers)
    pub fn apply_batch(
        &mut self,
        ctx: &mut MpcContext,
        node_updates: &[(NodeId, P::NodeInput)],
        edge_updates: &[(NodeId, P::EdgeInput)],
    ) -> UpdateStats {
        let rounds_before = ctx.metrics().rounds;
        let words_before = ctx.metrics().total_words_sent;
        let mut stats = UpdateStats {
            batch_size: node_updates.len() + edge_updates.len(),
            ..UpdateStats::default()
        };

        // Clusters that must be re-summarized, keyed by the layer their view is
        // processed at. Dirt from changed summaries is pushed into higher layers as
        // the bottom-up pass ascends.
        let mut pending_dirty: BTreeMap<u32, BTreeSet<ElementId>> = BTreeMap::new();

        // ---- phase 1: route the batch, patch the cached views ----------------------
        ctx.phase("inc-dirty", |ctx| {
            let mut batch_words = 0usize;
            for (node, input) in node_updates {
                batch_words += 1 + input.words();
                if self.store.payload(*node).is_none() {
                    continue;
                }
                self.store.set_payload(*node, Payload::Input(input.clone()));
                if let Some(site) = self.topo.member_site.get(node).copied() {
                    if let Some(view) = self.store.view_mut(site.layer, site.cluster) {
                        view.members[site.index].payload = Payload::Input(input.clone());
                    }
                    pending_dirty
                        .entry(site.layer)
                        .or_default()
                        .insert(site.cluster);
                }
            }
            for (child, input) in edge_updates {
                batch_words += 1 + input.words();
                let member_sites = self.topo.out_edge_sites.get(child).cloned();
                for site in member_sites.into_iter().flatten() {
                    if let Some(view) = self.store.view_mut(site.layer, site.cluster) {
                        view.members[site.index].out_input = input.clone();
                    }
                    pending_dirty
                        .entry(site.layer)
                        .or_default()
                        .insert(site.cluster);
                }
                let in_sites = self.topo.in_edge_sites.get(child).cloned();
                for (cluster, layer) in in_sites.into_iter().flatten() {
                    if let Some(view) = self.store.view_mut(layer, cluster) {
                        view.in_input = Some(input.clone());
                    }
                    pending_dirty.entry(layer).or_default().insert(cluster);
                }
            }
            if batch_words > 0 {
                charge_routing_round(ctx, batch_words, "inc-dirty/route");
            }
        });

        self.resolve_dirty(ctx, pending_dirty, &mut stats);

        stats.rounds = ctx.metrics().rounds - rounds_before;
        stats.words_sent = ctx.metrics().total_words_sent - words_before;
        stats
    }

    /// Phases 2 and 3 of a batch: re-summarize bottom-up along the dirty root-paths
    /// (`inc-up`) and re-label the affected top-down frontier (`inc-down`). Shared by
    /// input-update batches ([`apply_batch`](Self::apply_batch)) and locally repaired
    /// structural batches ([`apply_structural`](Self::apply_structural)), which differ
    /// only in how the initial dirty set is seeded.
    fn resolve_dirty(
        &mut self,
        ctx: &mut MpcContext,
        mut pending_dirty: BTreeMap<u32, BTreeSet<ElementId>>,
        stats: &mut UpdateStats,
    ) {
        // ---- phase 2: bottom-up along the dirty root-paths -------------------------
        let mut dirty_per_layer: Vec<BTreeSet<ElementId>> =
            vec![BTreeSet::new(); self.num_layers as usize + 1];
        let mut root_summary_changed = false;
        ctx.phase("inc-up", |ctx| {
            for layer in 1..=self.num_layers {
                let dirty = pending_dirty.remove(&layer).unwrap_or_default();
                if dirty.is_empty() {
                    continue;
                }
                let mut changed_words = 0usize;
                // Dirty clusters of one layer are independent: re-summarize them all
                // (reads only), then apply the changes in cluster order.
                let new_summaries: Vec<(ElementId, P::Summary)> = dirty
                    .iter()
                    .map(|&cluster| {
                        let view = self
                            .store
                            .view(layer, cluster)
                            .expect("dirty cluster has a cached view");
                        (cluster, self.problem.summarize(view))
                    })
                    .collect();
                for (cluster, new_summary) in new_summaries {
                    stats.resummarized += 1;
                    let changed = match self.store.payload(cluster) {
                        Some(Payload::Summary(old)) => *old != new_summary,
                        _ => true,
                    };
                    if !changed {
                        continue;
                    }
                    stats.summaries_changed += 1;
                    changed_words += 1 + new_summary.words();
                    self.store
                        .set_payload(cluster, Payload::Summary(new_summary.clone()));
                    if cluster == self.top_cluster {
                        self.store.set_root_summary(new_summary);
                        root_summary_changed = true;
                    } else if let Some(site) = self.topo.member_site.get(&cluster).copied() {
                        if let Some(parent_view) = self.store.view_mut(site.layer, site.cluster) {
                            parent_view.members[site.index].payload = Payload::Summary(new_summary);
                        }
                        pending_dirty
                            .entry(site.layer)
                            .or_default()
                            .insert(site.cluster);
                    }
                }
                // Changed summaries travel to the parent clusters' machines; a layer
                // whose recomputations all came out unchanged sends nothing.
                if changed_words > 0 {
                    charge_routing_round(ctx, changed_words, "inc-up/forward");
                }
                dirty_per_layer[layer as usize] = dirty;
            }
        });

        // ---- phase 3: top-down over the affected frontier --------------------------
        ctx.phase("inc-down", |ctx| {
            // Clusters whose boundary labels changed, keyed by their processed layer.
            let mut pending_relabel: BTreeMap<u32, BTreeSet<ElementId>> = BTreeMap::new();
            if root_summary_changed {
                let new_root = self.problem.label_root(self.store.root_summary());
                if *self.store.root_label() != new_root {
                    stats.labels_changed += 1;
                    self.store.set_root_label(new_root.clone());
                    self.store.set_label(self.root, new_root);
                    mark_label_readers(&self.topo, self.root, &mut pending_relabel);
                }
            }
            for layer in (1..=self.num_layers).rev() {
                let mut affected = std::mem::take(&mut dirty_per_layer[layer as usize]);
                if let Some(extra) = pending_relabel.remove(&layer) {
                    affected.extend(extra);
                }
                if affected.is_empty() {
                    continue;
                }
                let mut changed_words = 0usize;
                // Affected clusters of one layer are independent (their boundary
                // labels were produced at strictly higher layers, and the labels they
                // write are keyed by disjoint member edges), so re-label them all
                // and apply the changes in cluster order.
                let (store, problem) = (&self.store, &self.problem);
                let per_cluster: Vec<Vec<(NodeId, P::Label)>> = affected
                    .iter()
                    .map(|&cluster| {
                        let site = self.topo.cluster_site[&cluster];
                        let out_label = store
                            .label(site.out_child)
                            .expect("boundary out-label cached");
                        let in_label = site.in_child.and_then(|c| store.label(c));
                        let view = store
                            .view(layer, cluster)
                            .expect("affected cluster has a cached view");
                        let member_labels = problem.label_members(view, out_label, in_label);
                        view.members
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| *i != view.top)
                            .filter_map(|(i, member)| {
                                let child = member.element.out_edge.child;
                                if store.label(child) == Some(&member_labels[i]) {
                                    None
                                } else {
                                    Some((child, member_labels[i].clone()))
                                }
                            })
                            .collect()
                    })
                    .collect();
                stats.relabeled += affected.len();
                for changed in per_cluster {
                    for (child, label) in changed {
                        stats.labels_changed += 1;
                        changed_words += 1 + label.words();
                        self.store.set_label(child, label);
                        mark_label_readers(&self.topo, child, &mut pending_relabel);
                    }
                }
                // Changed labels travel to the reading clusters' machines; a layer
                // whose re-labelings all came out unchanged sends nothing.
                if changed_words > 0 {
                    charge_routing_round(ctx, changed_words, "inc-down/forward");
                }
            }
        });
    }

    /// The repair index over `prepared`'s clustering, built on first use.
    fn ensure_repair_index(&mut self, prepared: &PreparedTree) -> &mut RepairIndex {
        self.repair_index
            .get_or_insert_with(|| RepairIndex::build(&prepared.clustering, prepared.edges.iter()))
    }

    /// Dry-run a structural batch: `Ok` exactly when
    /// [`apply_structural`](Self::apply_structural) would accept `ops` (repairing
    /// locally or degrading), the rejecting op's error otherwise. Changes nothing
    /// beyond building the repair index on first use; costs `O(|ops| + removed span)`
    /// lookups, which lets a caller that folds several requests into one batch vet
    /// each request against the ones it already accepted.
    // mpc-cost: rounds(const)
    pub fn validate_structural(
        &mut self,
        prepared: &PreparedTree,
        ops: &[TopologyOp],
    ) -> Result<(), StructuralError> {
        self.ensure_repair_index(prepared).plan(ops)?;
        Ok(())
    }

    /// Apply an ordered batch of structural `link`/`cut` operations and re-solve.
    ///
    /// The batch is planned against the solver's persistent [`RepairIndex`] over the
    /// cached clustering (host-side, 0 rounds, reading only the records the batch
    /// addresses). When the repair stays within the clustering bounds, the `inc-struct`
    /// phase charges one routing round for the batch broadcast and one for the spliced
    /// records, the cached clustering / plan / store and every index over them are
    /// patched in place (`prepared` is updated too, so its cached [`SolvePlan`] keeps
    /// matching), and the existing dirty-root-path machinery re-solves the affected
    /// clusters — `O(1)` rounds total. When a link would overflow a degree or
    /// cluster-size bound, the batch *degrades*: the original tree is reconstructed,
    /// mutated, fully re-prepared, and re-solved (the honest `O(log D)` price), with
    /// `stats.degraded = true`.
    ///
    /// `prepared` must be the tree this solver was built on (as left by the solver's
    /// earlier structural batches). The batch is atomic: an invalid op rejects the
    /// whole batch with [`StructuralError::Invalid`] and nothing changes. After a
    /// successful return the solver's labels are identical to a fresh solve on the
    /// mutated tree.
    ///
    /// [`SolvePlan`]: tree_dp_core::SolvePlan
    // mpc-cost: rounds(prepare)
    pub fn apply_structural(
        &mut self,
        ctx: &mut MpcContext,
        prepared: &mut PreparedTree,
        batch: &StructuralBatch<P>,
    ) -> Result<StructuralStats, StructuralError> {
        let rounds_before = ctx.metrics().rounds;
        let words_before = ctx.metrics().total_words_sent;
        let mut stats = StructuralStats {
            batch_size: batch.len(),
            ..StructuralStats::default()
        };
        if batch.is_empty() {
            return Ok(stats);
        }

        let topo_ops: Vec<TopologyOp> = batch.ops().iter().map(|op| op.topology()).collect();
        let repair = match self.ensure_repair_index(prepared).plan(&topo_ops)? {
            RepairOutcome::Repaired(repair) => repair,
            RepairOutcome::Degrade(_) => {
                self.degrade_rebuild(ctx, prepared, batch, &topo_ops)?;
                stats.degraded = true;
                stats.rounds = ctx.metrics().rounds - rounds_before;
                stats.words_sent = ctx.metrics().total_words_sent - words_before;
                return Ok(stats);
            }
        };
        stats.removed_nodes = repair.removed_nodes.len();
        stats.added_leaves = repair.added_leaves.len();
        stats.patched_clusters = repair.patches.len();

        // Inputs of the surviving new leaves, for the store splice.
        let mut leaf_inputs: BTreeMap<NodeId, (P::NodeInput, P::EdgeInput)> = BTreeMap::new();
        for op in batch.ops() {
            if let StructuralOp::Link {
                child,
                node_input,
                edge_input,
                ..
            } = op
            {
                leaf_inputs.insert(*child, (node_input.clone(), edge_input.clone()));
            }
        }

        // ---- inc-struct: route the batch, splice every cached representation -------
        ctx.phase("inc-struct", |ctx| {
            // The batch travels to the machines holding the affected views (the
            // addresses are known from the cached clustering, exactly like inc-dirty).
            let batch_words: usize = batch
                .ops()
                .iter()
                .map(|op| match op {
                    StructuralOp::Link {
                        node_input,
                        edge_input,
                        ..
                    } => 3 + node_input.words() + edge_input.words(),
                    StructuralOp::Cut { .. } => 2,
                })
                .sum();
            charge_routing_round(ctx, batch_words, "inc-struct/route");

            // Host-side surgery on the pre-placed records; the spliced volume is what
            // actually moves between machines (removed records are dropped in place).
            self.splice_store(&repair, &leaf_inputs);
            prepared.apply_structural_repair(&repair);
            self.topo.apply_repair(&self.store, &repair);
            if let Some(index) = &mut self.repair_index {
                index.apply(&repair);
            }
            if !repair.is_noop() {
                charge_routing_round(ctx, repair.splice_words(), "inc-struct/splice");
            }
        });

        // ---- re-solve: every patched cluster is dirty at its own layer -------------
        let mut pending_dirty: BTreeMap<u32, BTreeSet<ElementId>> = BTreeMap::new();
        for (cid, patch) in &repair.patches {
            pending_dirty.entry(patch.layer).or_default().insert(*cid);
        }
        let mut upd = UpdateStats::default();
        self.resolve_dirty(ctx, pending_dirty, &mut upd);
        stats.resummarized = upd.resummarized;
        stats.relabeled = upd.relabeled;
        stats.rounds = ctx.metrics().rounds - rounds_before;
        stats.words_sent = ctx.metrics().total_words_sent - words_before;
        Ok(stats)
    }

    /// Splice a planned repair into the solver's cached records, mirroring
    /// [`SolvePlan::apply_repair`](tree_dp_core::SolvePlan::apply_repair) member for
    /// member so the store and the plan skeletons can never drift apart.
    fn splice_store(
        &mut self,
        repair: &ClusteringRepair,
        leaf_inputs: &BTreeMap<NodeId, (P::NodeInput, P::EdgeInput)>,
    ) {
        // Drop every record of the removed span.
        for &id in &repair.removed_elements {
            self.store.remove_payload(id);
            if let Some(&layer) = self.topo.cluster_layer.get(&id) {
                self.store.remove_view(layer, id);
            }
        }
        for &child in &repair.removed_nodes {
            self.store.remove_label(child);
        }

        // Patch the surviving views.
        let mut new_payloads: Vec<(ElementId, P::NodeInput)> = Vec::new();
        for (&cid, patch) in &repair.patches {
            let view = self
                .store
                .view_mut(patch.layer, cid)
                .expect("patched cluster has a cached view");
            if patch.clear_in_edge {
                view.kind = ElementKind::ClusterIndeg0;
                view.in_edge = None;
                view.attach = None;
                view.in_kind = EdgeKind::Original;
                view.in_input = None;
            }
            if !patch.removed_members.is_empty() {
                splice_view_member_removals(view, &patch.removed_members);
            }
            for leaf in &patch.added {
                let (node_input, edge_input) = leaf_inputs
                    .get(&leaf.id)
                    .expect("every added leaf came from a link op")
                    .clone();
                let parent_idx = view
                    .members
                    .iter()
                    .position(|m| m.element.id == leaf.out_edge.parent)
                    .expect("link parent is a member of the absorbing cluster");
                let idx = view.members.len();
                view.members.push(Member {
                    element: *leaf,
                    payload: Payload::Input(node_input.clone()),
                    out_kind: EdgeKind::Original,
                    out_input: edge_input,
                    parent: Some(parent_idx),
                    children: Vec::new(),
                });
                view.members[parent_idx].children.push(idx);
                new_payloads.push((leaf.id, node_input));
            }
        }
        for (id, input) in new_payloads {
            self.store.set_payload(id, Payload::Input(input));
        }

        // Rewrite the member copies of demoted clusters in their parents' views
        // (matched by id: the parent view's indexes may have shifted above).
        for &cid in &repair.demoted {
            let Some(site) = self.topo.member_site.get(&cid).copied() else {
                continue;
            };
            if let Some(parent_view) = self.store.view_mut(site.layer, site.cluster) {
                if let Some(m) = parent_view.members.iter_mut().find(|m| m.element.id == cid) {
                    m.element.kind = ElementKind::ClusterIndeg0;
                    m.element.in_edge = None;
                }
            }
        }
    }

    /// The degraded structural path: reconstruct the original tree, apply the batch
    /// host-side, fully re-prepare, and re-solve with the inputs recovered from the
    /// cached records. Replaces `prepared` and the solver's state wholesale; the
    /// stale cached plan is superseded by the fresh one built during the re-solve.
    fn degrade_rebuild(
        &mut self,
        ctx: &mut MpcContext,
        prepared: &mut PreparedTree,
        batch: &StructuralBatch<P>,
        topo_ops: &[TopologyOp],
    ) -> Result<(), StructuralError> {
        // 1. The mutated original tree.
        let mut edges = prepared.original_edge_list();
        apply_ops_to_original_edges(&mut edges, topo_ops);
        let live_children: BTreeSet<NodeId> = edges.iter().map(|e| e.child).collect();

        // 2. Recover the current inputs from the cached views: every original node
        //    appears exactly once as a member of its absorbing cluster's view, holding
        //    its node input and the input of its outgoing edge.
        let mut node_inputs: Vec<(NodeId, P::NodeInput)> = Vec::new();
        let mut edge_inputs: Vec<(NodeId, P::EdgeInput)> = Vec::new();
        for layer in 1..=self.num_layers {
            for (_, view) in self.store.views_at(layer) {
                for m in &view.members {
                    if m.element.kind != ElementKind::Node || is_aux_node(m.element.id) {
                        continue;
                    }
                    if let Payload::Input(input) = &m.payload {
                        node_inputs.push((m.element.id, input.clone()));
                    }
                    if m.out_kind == EdgeKind::Original && m.element.out_edge.parent != VIRTUAL_NODE
                    {
                        edge_inputs.push((m.element.out_edge.child, m.out_input.clone()));
                    }
                }
            }
        }
        // The root survives every batch (cutting it is rejected) but is no edge's
        // child, so keep it explicitly.
        let root = prepared.clustering.root;
        node_inputs.retain(|(id, _)| *id == root || live_children.contains(id));
        edge_inputs.retain(|(child, _)| live_children.contains(child));
        for op in batch.ops() {
            if let StructuralOp::Link {
                child,
                node_input,
                edge_input,
                ..
            } = op
            {
                if live_children.contains(child) {
                    node_inputs.push((*child, node_input.clone()));
                    edge_inputs.push((*child, edge_input.clone()));
                }
            }
        }

        // 3. Re-prepare with the same threshold and re-solve from scratch.
        let threshold = prepared.clustering.threshold;
        let new_prepared = prepare(
            ctx,
            TreeInput::ListOfEdges(ListOfEdges(edges)),
            Some(threshold),
        )
        .map_err(|e| StructuralError::Prepare(e.to_string()))?;
        let node_dv = ctx.from_vec(node_inputs);
        let edge_dv = ctx.from_vec(edge_inputs);
        let (_, store) = new_prepared.plan(ctx).solve_with_store(
            ctx,
            &self.problem,
            &node_dv,
            self.aux_input.clone(),
            &edge_dv,
        );
        self.store = store;
        self.topo = Topology::build(&self.store);
        self.repair_index = None;
        self.num_layers = new_prepared.num_layers();
        self.top_cluster = new_prepared.clustering.top_cluster;
        self.root = new_prepared.clustering.root;
        *prepared = new_prepared;
        Ok(())
    }

    /// Check the solver's patched-in-place indexes against from-scratch builds: the
    /// cluster topology against one derived from the cached views, and the repair
    /// index (when one has been built) against one built over `prepared`'s clustering
    /// and edge list. `Err` names the first index that drifted. `O(n log n)` host work,
    /// zero rounds — the drift alarm for long update sequences and the oracle the
    /// structural test suites call after every batch.
    // mpc-cost: rounds(const)
    pub fn audit_indexes(&self, prepared: &PreparedTree) -> Result<(), String> {
        if self.topo != Topology::build(&self.store) {
            return Err("cluster topology differs from a rebuild over the cached views".into());
        }
        match &self.repair_index {
            Some(index)
                if *index != RepairIndex::build(&prepared.clustering, prepared.edges.iter()) =>
            {
                Err("repair index differs from a rebuild over the repaired clustering".into())
            }
            _ => Ok(()),
        }
    }

    /// The persistent repair index, once a structural batch has built it (`None` on a
    /// fresh or restored solver and after a degrade).
    // mpc-cost: rounds(const)
    pub fn repair_index(&self) -> Option<&RepairIndex> {
        self.repair_index.as_ref()
    }

    /// The wrapped problem.
    // mpc-cost: rounds(const)
    pub fn problem(&self) -> &P {
        &self.problem
    }

    /// The summary of the top cluster on the current inputs (e.g. the optimum value).
    // mpc-cost: rounds(const)
    pub fn root_summary(&self) -> &P::Summary {
        self.store.root_summary()
    }

    /// The label of the virtual root edge on the current inputs.
    // mpc-cost: rounds(const)
    pub fn root_label(&self) -> &P::Label {
        self.store.root_label()
    }

    /// The label of the edge whose child endpoint is `child`.
    // mpc-cost: rounds(const)
    // mpc-lint: allow(dead-pub-api) — single-edge read API paired with labels(); batch consumers use labels() but point probes are part of the solver surface
    pub fn label(&self, child: NodeId) -> Option<&P::Label> {
        self.store.label(child)
    }

    /// All labels on the current inputs, keyed by edge child endpoint.
    // mpc-cost: rounds(const)
    pub fn labels(&self) -> &BTreeMap<NodeId, P::Label> {
        self.store.labels()
    }

    /// Materialize the current solution as a [`DpSolution`] distributed over the
    /// machines of `ctx` (host-side convenience, 0 rounds).
    // mpc-cost: rounds(const)
    // mpc-lint: allow(dead-pub-api) — materializes the incremental state as a DpSolution for parity checks against the batch solver; part of the solver surface
    pub fn solution(&self, ctx: &mut MpcContext) -> DpSolution<P> {
        self.store.to_solution(ctx)
    }

    /// The underlying per-cluster record store.
    // mpc-cost: rounds(const)
    pub fn store(&self) -> &SolverStore<P> {
        &self.store
    }
}

/// Mark every cluster that reads the label of the edge with child endpoint `child` for
/// re-labeling. Readers always sit at strictly lower layers than the producer (the
/// top-down invariant), so one descending pass picks them all up.
fn mark_label_readers(
    topo: &Topology,
    child: NodeId,
    pending_relabel: &mut BTreeMap<u32, BTreeSet<ElementId>>,
) {
    for &(cluster, layer) in topo.label_readers.get(&child).into_iter().flatten() {
        pending_relabel.entry(layer).or_default().insert(cluster);
    }
}

/// Drop a downward-closed set of members from a cached cluster view, remapping the
/// parent/children/top/attach indexes onto the compacted member list — the
/// [`ClusterView`] twin of the plan-skeleton splice. The removed set is downward-closed
/// in the member tree, so every survivor's parent survives and the top member always
/// survives.
fn splice_view_member_removals<P: ClusterDp>(
    view: &mut ClusterView<P>,
    removed: &BTreeSet<ElementId>,
) {
    let mut remap: Vec<Option<usize>> = Vec::with_capacity(view.members.len());
    let mut kept = 0usize;
    for m in &view.members {
        if removed.contains(&m.element.id) {
            remap.push(None);
        } else {
            remap.push(Some(kept));
            kept += 1;
        }
    }
    let old = std::mem::take(&mut view.members);
    view.members = old
        .into_iter()
        .enumerate()
        .filter_map(|(i, mut m)| {
            remap[i]?;
            m.parent = m.parent.map(|p| {
                remap[p]
                    .expect("parent of a surviving member survives (removal is downward-closed)")
            });
            m.children = m.children.iter().filter_map(|&c| remap[c]).collect();
            Some(m)
        })
        .collect();
    view.top = remap[view.top].expect("the top member never lies in the removed span");
    view.attach = view.attach.and_then(|a| remap[a]);
}

/// Apply a validated topology batch to an *original* (pre-degree-reduction) edge list,
/// in op order: links append a leaf edge, cuts remove the whole subtree below the cut
/// child. Host-side; used only by the degraded re-prepare path. One adjacency index is
/// built up front and maintained across the ops (`O((n + ops) log n)` for the batch):
/// cut edges are tombstoned by position and dropped in one final pass.
fn apply_ops_to_original_edges(edges: &mut Vec<DirectedEdge>, ops: &[TopologyOp]) {
    // Live edge position by child, and child-edge positions by parent (these may name
    // tombstoned positions; `live` decides).
    let mut edge_of: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut below: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
    for (at, e) in edges.iter().enumerate() {
        edge_of.insert(e.child, at);
        below.entry(e.parent).or_default().push(at);
    }
    let mut live = vec![true; edges.len()];
    for op in ops {
        match *op {
            TopologyOp::Link { parent, child } => {
                edge_of.insert(child, edges.len());
                below.entry(parent).or_default().push(edges.len());
                live.push(true);
                edges.push(DirectedEdge::new(child, parent));
            }
            TopologyOp::Cut { child } => {
                let mut queue = VecDeque::from([child]);
                while let Some(x) = queue.pop_front() {
                    if let Some(at) = edge_of.remove(&x) {
                        live[at] = false;
                    }
                    let child_edges = below.remove(&x).unwrap_or_default();
                    queue.extend(
                        child_edges
                            .into_iter()
                            .filter(|&at| live[at])
                            .map(|at| edges[at].child),
                    );
                }
            }
        }
    }
    let mut at = 0;
    edges.retain(|_| {
        at += 1;
        live[at - 1]
    });
}

/// Charge one routing round that moves `words` words in total, spread evenly over the
/// machines (the cached records are balanced across machines by the initial solve).
fn charge_routing_round(ctx: &mut MpcContext, words: usize, what: &str) {
    let machines = ctx.config().num_machines();
    let per_machine = words.div_ceil(machines.max(1));
    ctx.charge_rounds(1);
    let volumes = vec![per_machine; machines];
    ctx.record_comm(&volumes, &volumes, what);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_engine::MpcConfig;
    use tree_clustering::EdgeKind;
    use tree_dp_core::{prepare, solve_sequential, StateDp, StateEngine};
    use tree_dp_problems::{MaxWeightIndependentSet, MaxWeightMatching};
    use tree_gen::shapes;
    use tree_repr::{ListOfEdges, Tree, TreeInput};

    /// The optimum of `problem` by the sequential solver, on the tree given as a
    /// child → parent edge list.
    fn sequential_optimum<P: StateDp>(
        problem: P,
        edges: &[DirectedEdge],
        root: u64,
        node_input: impl Fn(u64) -> P::NodeInput,
        edge_input: impl Fn(u64) -> P::EdgeInput,
    ) -> Option<i64> {
        let engine = StateEngine::new(problem);
        solve_sequential(&engine, edges, root, node_input, |c| {
            (EdgeKind::Original, edge_input(c))
        })
        .root_summary
        .best(engine.problem())
    }

    fn ctx_for(n: usize) -> MpcContext {
        MpcContext::new(
            MpcConfig::new((2 * n).max(16), 0.5)
                .with_memory_slack(512.0)
                .with_bandwidth_slack(512.0),
        )
    }

    fn test_trees() -> Vec<(&'static str, Tree)> {
        vec![
            ("path", shapes::path(96)),
            ("balanced-ternary", shapes::balanced_kary(121, 3)),
            ("caterpillar", shapes::caterpillar(24, 3)),
            ("star", shapes::star(64)),
            ("random", shapes::random_recursive(100, 5)),
        ]
    }

    #[test]
    fn node_update_batches_match_full_resolve() {
        for (name, tree) in test_trees() {
            let mut ctx = ctx_for(tree.len());
            let prepared = prepare(
                &mut ctx,
                TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
                Some(4),
            )
            .unwrap();
            let mut weights: Vec<i64> = (0..tree.len() as i64).map(|v| 1 + v * 7 % 13).collect();
            let inputs = ctx.from_vec(
                weights
                    .iter()
                    .enumerate()
                    .map(|(v, &w)| (v as u64, w))
                    .collect::<Vec<_>>(),
            );
            let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
            let mut inc = IncrementalSolver::new(
                &mut ctx,
                &prepared,
                StateEngine::new(MaxWeightIndependentSet),
                &inputs,
                0,
                &no_edges,
            );
            for round in 0usize..6 {
                let batch: Vec<(u64, i64)> = (0..=round)
                    .map(|i| {
                        (
                            ((round * 31 + i * 17) % tree.len()) as u64,
                            ((round * 13 + i * 5) % 40) as i64,
                        )
                    })
                    .collect();
                for &(v, w) in &batch {
                    weights[v as usize] = w;
                }
                inc.update_node_inputs(&mut ctx, &batch);

                let fresh_inputs = ctx.from_vec(
                    weights
                        .iter()
                        .enumerate()
                        .map(|(v, &w)| (v as u64, w))
                        .collect::<Vec<_>>(),
                );
                let fresh = prepared.solve(
                    &mut ctx,
                    &StateEngine::new(MaxWeightIndependentSet),
                    &fresh_inputs,
                    0,
                    &no_edges,
                );
                let fresh_labels: BTreeMap<u64, usize> = fresh.labels.iter().cloned().collect();
                assert_eq!(inc.labels(), &fresh_labels, "{name} round {round}");
                assert_eq!(
                    inc.root_summary(),
                    &fresh.root_summary,
                    "{name} round {round}"
                );
                assert_eq!(inc.root_label(), &fresh.root_label, "{name} round {round}");
                assert_eq!(
                    inc.root_summary().best(&MaxWeightIndependentSet),
                    sequential_optimum(
                        MaxWeightIndependentSet,
                        &tree.edges(),
                        tree.root() as u64,
                        |v| weights[v as usize],
                        |_| (),
                    ),
                    "{name} round {round}: sequential oracle"
                );
            }
        }
    }

    #[test]
    fn edge_update_batches_match_full_resolve() {
        for (name, tree) in test_trees() {
            let mut ctx = ctx_for(tree.len());
            let prepared = prepare(
                &mut ctx,
                TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
                Some(4),
            )
            .unwrap();
            let unit = ctx.from_vec((0..tree.len()).map(|v| (v as u64, ())).collect::<Vec<_>>());
            let mut edge_w: Vec<i64> = (0..tree.len() as i64).map(|v| 1 + v % 7).collect();
            let edges_dv = ctx.from_vec(
                (1..tree.len())
                    .map(|v| (v as u64, edge_w[v]))
                    .collect::<Vec<_>>(),
            );
            let mut inc = IncrementalSolver::new(
                &mut ctx,
                &prepared,
                StateEngine::new(MaxWeightMatching),
                &unit,
                (),
                &edges_dv,
            );
            for round in 0usize..5 {
                let batch: Vec<(u64, i64)> = (0..=round)
                    .map(|i| {
                        (
                            (1 + (round * 29 + i * 11) % (tree.len() - 1)) as u64,
                            ((round * 7 + i * 3) % 20) as i64,
                        )
                    })
                    .collect();
                for &(v, w) in &batch {
                    edge_w[v as usize] = w;
                }
                inc.update_edge_inputs(&mut ctx, &batch);

                let fresh_edges = ctx.from_vec(
                    (1..tree.len())
                        .map(|v| (v as u64, edge_w[v]))
                        .collect::<Vec<_>>(),
                );
                let fresh = prepared.solve(
                    &mut ctx,
                    &StateEngine::new(MaxWeightMatching),
                    &unit,
                    (),
                    &fresh_edges,
                );
                let fresh_labels: BTreeMap<u64, usize> = fresh.labels.iter().cloned().collect();
                assert_eq!(inc.labels(), &fresh_labels, "{name} round {round}");
                assert_eq!(
                    inc.root_summary(),
                    &fresh.root_summary,
                    "{name} round {round}"
                );
                assert_eq!(
                    inc.root_summary().best(&MaxWeightMatching),
                    sequential_optimum(
                        MaxWeightMatching,
                        &tree.edges(),
                        tree.root() as u64,
                        |_| (),
                        |c| edge_w[c as usize],
                    ),
                    "{name} round {round}: sequential oracle"
                );
            }
        }
    }

    #[test]
    fn single_update_charges_fewer_rounds_than_full_solve() {
        let tree = shapes::random_recursive(1024, 9);
        let mut ctx = ctx_for(tree.len());
        let prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            None,
        )
        .unwrap();
        let inputs = ctx.from_vec(
            (0..tree.len())
                .map(|v| (v as u64, 1i64))
                .collect::<Vec<_>>(),
        );
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
        let mut inc = IncrementalSolver::new(
            &mut ctx,
            &prepared,
            StateEngine::new(MaxWeightIndependentSet),
            &inputs,
            0,
            &no_edges,
        );
        let stats = inc.update_node_inputs(&mut ctx, &[(17, 50)]);

        let before = ctx.metrics().rounds;
        let words_before = ctx.metrics().total_words_sent;
        let fresh_inputs = ctx.from_vec(
            (0..tree.len())
                .map(|v| (v as u64, if v == 17 { 50i64 } else { 1 }))
                .collect::<Vec<_>>(),
        );
        let fresh = prepared.solve(
            &mut ctx,
            &StateEngine::new(MaxWeightIndependentSet),
            &fresh_inputs,
            0,
            &no_edges,
        );
        let full_rounds = ctx.metrics().rounds - before;
        let full_words = ctx.metrics().total_words_sent - words_before;
        assert_eq!(inc.root_summary(), &fresh.root_summary);
        // The full evaluation pass forwards every summary and label once; the update
        // touches one root-path.
        assert!(
            stats.rounds * 2 <= full_rounds,
            "incremental {} rounds vs full {} rounds",
            stats.rounds,
            full_rounds
        );
        assert!(
            stats.words_sent * 4 <= full_words,
            "incremental {} words vs full {} words",
            stats.words_sent,
            full_words
        );
        assert!(stats.rounds > 0);
    }

    #[test]
    fn empty_batch_is_free() {
        let tree = shapes::path(32);
        let mut ctx = ctx_for(tree.len());
        let prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            Some(4),
        )
        .unwrap();
        let inputs = ctx.from_vec(
            (0..tree.len())
                .map(|v| (v as u64, 1i64))
                .collect::<Vec<_>>(),
        );
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
        let mut inc = IncrementalSolver::new(
            &mut ctx,
            &prepared,
            StateEngine::new(MaxWeightIndependentSet),
            &inputs,
            0,
            &no_edges,
        );
        let stats = inc.update_node_inputs(&mut ctx, &[]);
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.words_sent, 0);
        assert_eq!(stats.resummarized, 0);
    }

    /// Compare the incremental solver's state against a fresh prepare+solve of the
    /// mutated original tree, restricted to the original edges (the two sides may
    /// differ in auxiliary structure).
    fn assert_matches_fresh(
        ctx: &mut MpcContext,
        inc: &IncrementalSolver<StateEngine<MaxWeightIndependentSet>>,
        mutated_edges: &[DirectedEdge],
        weight_of: impl Fn(u64) -> i64,
        what: &str,
    ) {
        let fresh_prepared = prepare(
            ctx,
            TreeInput::ListOfEdges(ListOfEdges(mutated_edges.to_vec())),
            Some(4),
        )
        .unwrap();
        let children: BTreeSet<u64> = mutated_edges.iter().map(|e| e.child).collect();
        let mut ids: BTreeSet<u64> = children.clone();
        ids.extend(mutated_edges.iter().map(|e| e.parent));
        let fresh_inputs = ctx.from_vec(ids.iter().map(|&v| (v, weight_of(v))).collect::<Vec<_>>());
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
        let fresh = fresh_prepared.solve(
            ctx,
            &StateEngine::new(MaxWeightIndependentSet),
            &fresh_inputs,
            0,
            &no_edges,
        );
        let fresh_labels: BTreeMap<u64, usize> = fresh
            .labels
            .iter()
            .filter(|(c, _)| children.contains(c))
            .cloned()
            .collect();
        let inc_labels: BTreeMap<u64, usize> = inc
            .labels()
            .iter()
            .filter(|(c, _)| children.contains(c))
            .map(|(c, l)| (*c, *l))
            .collect();
        assert_eq!(inc_labels, fresh_labels, "{what}: labels");
        assert_eq!(inc.root_summary(), &fresh.root_summary, "{what}: summary");
        assert_eq!(inc.root_label(), &fresh.root_label, "{what}: root label");
        assert_eq!(
            inc.root_summary().best(&MaxWeightIndependentSet),
            sequential_optimum(
                MaxWeightIndependentSet,
                mutated_edges,
                fresh_prepared.root,
                &weight_of,
                |_| (),
            ),
            "{what}: sequential oracle"
        );
    }

    #[test]
    fn structural_batch_repairs_locally_and_matches_fresh_prepare() {
        let tree = shapes::path(60);
        let mut ctx = ctx_for(tree.len());
        let mut prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            Some(4),
        )
        .unwrap();
        let weights: Vec<i64> = (0..tree.len() as i64).map(|v| 1 + (v * 7) % 13).collect();
        let inputs = ctx.from_vec(
            weights
                .iter()
                .enumerate()
                .map(|(v, &w)| (v as u64, w))
                .collect::<Vec<_>>(),
        );
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
        let mut inc = IncrementalSolver::new(
            &mut ctx,
            &prepared,
            StateEngine::new(MaxWeightIndependentSet),
            &inputs,
            0,
            &no_edges,
        );

        // Cut the tail of the path and hang a fresh 2-leaf chain below node 5.
        let batch: StructuralBatch<StateEngine<MaxWeightIndependentSet>> = StructuralBatch::new()
            .cut(40)
            .link(5, 1000, 9, ())
            .link(1000, 1001, 4, ());
        let mut mutated = prepared.original_edge_list();
        apply_ops_to_original_edges(
            &mut mutated,
            &batch
                .ops()
                .iter()
                .map(|op| op.topology())
                .collect::<Vec<_>>(),
        );
        let stats = inc
            .apply_structural(&mut ctx, &mut prepared, &batch)
            .unwrap();
        assert!(!stats.degraded, "a tail cut plus two links repairs locally");
        assert_eq!(stats.removed_nodes, 20);
        assert_eq!(stats.added_leaves, 2);
        assert!(stats.rounds > 0);
        let weight_of = |v: u64| -> i64 {
            if v == 1000 {
                9
            } else if v == 1001 {
                4
            } else {
                weights[v as usize]
            }
        };
        assert_matches_fresh(
            &mut ctx,
            &inc,
            &mutated,
            weight_of,
            "after structural batch",
        );

        // Weight updates keep working on the spliced state — including on a new leaf.
        inc.update_node_inputs(&mut ctx, &[(7, 21), (1001, 11)]);
        let weight_of = |v: u64| -> i64 {
            match v {
                7 => 21,
                1000 => 9,
                1001 => 11,
                _ => weights[v as usize],
            }
        };
        assert_matches_fresh(
            &mut ctx,
            &inc,
            &mutated,
            weight_of,
            "after follow-up update",
        );
    }

    #[test]
    fn overflowing_batch_degrades_and_matches_fresh_prepare() {
        let tree = shapes::path(12);
        let mut ctx = ctx_for(tree.len());
        let mut prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            Some(2),
        )
        .unwrap();
        let inputs = ctx.from_vec(
            (0..tree.len())
                .map(|v| (v as u64, 1i64 + v as i64))
                .collect::<Vec<_>>(),
        );
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
        let mut inc = IncrementalSolver::new(
            &mut ctx,
            &prepared,
            StateEngine::new(MaxWeightIndependentSet),
            &inputs,
            0,
            &no_edges,
        );

        // Two extra children below node 3 exceed the degree bound (threshold 2):
        // the batch is valid but must degrade to a full re-prepare.
        let batch: StructuralBatch<StateEngine<MaxWeightIndependentSet>> = StructuralBatch::new()
            .link(3, 100, 5, ())
            .link(3, 101, 6, ());
        let mut mutated = prepared.original_edge_list();
        apply_ops_to_original_edges(
            &mut mutated,
            &batch
                .ops()
                .iter()
                .map(|op| op.topology())
                .collect::<Vec<_>>(),
        );
        let stats = inc
            .apply_structural(&mut ctx, &mut prepared, &batch)
            .unwrap();
        assert!(stats.degraded);
        let weight_of = |v: u64| -> i64 {
            match v {
                100 => 5,
                101 => 6,
                _ => 1 + v as i64,
            }
        };
        assert_matches_fresh(&mut ctx, &inc, &mutated, weight_of, "after degrade");

        // The replaced prepared tree keeps serving weight updates.
        inc.update_node_inputs(&mut ctx, &[(100, 40)]);
        let weight_of = |v: u64| -> i64 {
            match v {
                100 => 40,
                101 => 6,
                _ => 1 + v as i64,
            }
        };
        assert_matches_fresh(&mut ctx, &inc, &mutated, weight_of, "update after degrade");
    }

    #[test]
    fn invalid_structural_batch_is_rejected_atomically() {
        let tree = shapes::path(16);
        let mut ctx = ctx_for(tree.len());
        let mut prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            Some(4),
        )
        .unwrap();
        let inputs = ctx.from_vec(
            (0..tree.len())
                .map(|v| (v as u64, 1i64))
                .collect::<Vec<_>>(),
        );
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
        let mut inc = IncrementalSolver::new(
            &mut ctx,
            &prepared,
            StateEngine::new(MaxWeightIndependentSet),
            &inputs,
            0,
            &no_edges,
        );
        let before_labels = inc.labels().clone();
        let before_summary = inc.root_summary().clone();

        // A valid link followed by a cut of the root: rejected as a whole.
        let batch: StructuralBatch<StateEngine<MaxWeightIndependentSet>> =
            StructuralBatch::new().link(4, 200, 3, ()).cut(0);
        let err = inc
            .apply_structural(&mut ctx, &mut prepared, &batch)
            .unwrap_err();
        assert_eq!(
            err,
            StructuralError::Invalid(tree_clustering::RepairError::CutRoot)
        );
        assert_eq!(inc.labels(), &before_labels, "nothing was applied");
        assert_eq!(inc.root_summary(), &before_summary);
        assert!(inc.label(200).is_none());
    }

    #[test]
    fn update_restoring_old_input_stops_propagating() {
        let tree = shapes::path(64);
        let mut ctx = ctx_for(tree.len());
        let prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            Some(4),
        )
        .unwrap();
        let inputs = ctx.from_vec(
            (0..tree.len())
                .map(|v| (v as u64, 1i64))
                .collect::<Vec<_>>(),
        );
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
        let mut inc = IncrementalSolver::new(
            &mut ctx,
            &prepared,
            StateEngine::new(MaxWeightIndependentSet),
            &inputs,
            0,
            &no_edges,
        );
        // Writing the same input back dirties one cluster, whose summary does not
        // change — so nothing propagates and nothing is re-labeled.
        let stats = inc.update_node_inputs(&mut ctx, &[(30, 1)]);
        assert!(stats.resummarized >= 1);
        assert_eq!(stats.summaries_changed, 0);
        assert_eq!(stats.labels_changed, 0);
        // Only the inc-dirty routing round is charged: no summary or label changed,
        // so neither inc-up nor inc-down moves any data.
        assert_eq!(stats.rounds, 1);
    }
}
