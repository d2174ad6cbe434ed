//! The incremental solver: initial cached solve plus batched re-solves along dirty
//! root-paths (see the crate docs for the three-phase round structure).

use crate::structural::{StructuralBatch, StructuralError, StructuralOp, StructuralStats};
use mpc_engine::{DistVec, MpcContext, Words};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use tree_clustering::{is_aux_node, EdgeKind, ElementKind, RepairIndex, RepairOutcome, TopologyOp};
use tree_dp_core::{prepare, ClusterDp, DpSolution, Payload, PreparedTree, SolverStore, ViewSlot};
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

/// The views to re-process, by the layer they are processed at (`[layer]`, entry 0
/// unused).
type DirtyViews = Vec<BTreeSet<ViewSlot>>;

/// An incremental DP solver over a prepared (clustered) tree.
///
/// Construction performs one full solve and keeps what it built — the tree's one
/// maintained [`SolvePlan`](tree_dp_core::SolvePlan), the slot state filled over that
/// plan's skeletons, and the labels (a [`SolverStore`]);
/// [`update_node_inputs`](Self::update_node_inputs) and
/// [`update_edge_inputs`](Self::update_edge_inputs) then re-solve batched input
/// changes by writing them into their slots and re-processing only the dirty views.
/// The cached solution is always identical to what a full
/// [`SolvePlan::solve`](tree_dp_core::SolvePlan::solve) on the current inputs would
/// produce.
pub struct IncrementalSolver<P: ClusterDp>
where
    P::Summary: PartialEq,
    P::Label: PartialEq,
{
    problem: P,
    store: SolverStore<P>,
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
    /// [`PreparedTree::solve`]), keeping what the pass built for later updates.
    ///
    /// The initial solve runs over the prepared tree's shared
    /// [`SolvePlan`](tree_dp_core::SolvePlan), so constructing a solver on an
    /// already-planned tree charges only the cheap evaluation pass (and building
    /// several solvers — or mixing incremental updates with
    /// [`SolvePlan::solve`](tree_dp_core::SolvePlan::solve) calls for other problems —
    /// shares one assembly). The solver's store takes a clone of that plan, and it is
    /// the clone that structural batches maintain: a locally repaired batch drops the
    /// tree's cached plan, and the solver still serves updates at zero rebuild rounds.
    ///
    /// * `node_inputs` — inputs of the *original* nodes.
    /// * `aux_input` — the input of every auxiliary node introduced by degree
    ///   reduction (never touched by updates; auxiliary copies keep it).
    /// * `edge_inputs` — optional per-edge inputs keyed by the edge's child endpoint.
    pub fn new(
        ctx: &mut MpcContext,
        prepared: &PreparedTree,
        problem: P,
        node_inputs: &DistVec<(NodeId, P::NodeInput)>,
        aux_input: P::NodeInput,
        edge_inputs: &DistVec<(NodeId, P::EdgeInput)>,
    ) -> Self {
        let (_, store) = prepared.plan(ctx).clone().solve_with_store(
            ctx,
            &problem,
            node_inputs,
            aux_input.clone(),
            edge_inputs,
        );
        Self::restore(problem, store, aux_input)
    }

    /// Stand a solver up over an existing [`SolverStore`] without re-solving — a store
    /// just filled by [`SolvePlan::solve_with_store`](tree_dp_core::SolvePlan::solve_with_store),
    /// or one restored from a snapshot (the serving layer's restore path).
    ///
    /// The store must hold a complete solve of `problem`; its plan names the tree (root,
    /// top cluster, layers). Nothing is derived: the restored solver addresses the same
    /// plan and slot state the snapshotted one did, so it behaves bit-identically — same
    /// labels, same update deltas, same round charges. Costs zero MPC rounds.
    pub fn restore(problem: P, store: SolverStore<P>, aux_input: P::NodeInput) -> Self {
        Self {
            problem,
            store,
            aux_input,
            repair_index: None,
        }
    }

    /// Apply a batch of node-input changes (keyed by *original* node id; unknown ids
    /// are ignored) and re-solve incrementally.
    pub fn update_node_inputs(
        &mut self,
        ctx: &mut MpcContext,
        updates: &[(NodeId, P::NodeInput)],
    ) -> UpdateStats {
        self.apply_batch(ctx, updates, &[])
    }

    /// Apply a batch of edge-input changes (keyed by the edge's child endpoint;
    /// unknown keys are ignored) and re-solve incrementally.
    pub fn update_edge_inputs(
        &mut self,
        ctx: &mut MpcContext,
        updates: &[(NodeId, P::EdgeInput)],
    ) -> UpdateStats {
        self.apply_batch(ctx, &[], updates)
    }

    /// An empty dirty set for this solver's layers.
    fn no_dirt(&self) -> DirtyViews {
        vec![BTreeSet::new(); self.store.num_layers() as usize + 1]
    }

    /// Apply one mixed batch of node- and edge-input changes.
    ///
    /// The three phases charge rounds for the deterministic MPC implementation whose
    /// data movement they simulate on the cached records: `inc-dirty` routes the batch
    /// to the machines holding the affected views (1 round — the addresses come from
    /// the plan's routing), `inc-up` forwards changed summaries to the parent
    /// clusters' machines (1 round per layer that produced a change), and `inc-down`
    /// forwards changed boundary labels to the reading clusters' machines (1 round per
    /// layer that produced a change). Local recomputation is free in the MPC model.
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

        // Views that must be re-summarized. Dirt from changed summaries is pushed into
        // higher layers as the bottom-up pass ascends.
        let mut dirty = self.no_dirt();

        // ---- phase 1: route the batch, write it into the slots ---------------------
        ctx.phase("inc-dirty", |ctx| {
            let mut batch_words = 0usize;
            for (node, input) in node_updates {
                batch_words += 1 + input.words();
                if let Some(at) = self.store.set_node_input(*node, input.clone()) {
                    dirty[at.layer() as usize].insert(at);
                }
            }
            for (child, input) in edge_updates {
                batch_words += 1 + input.words();
                for at in self.store.set_edge_input(*child, input) {
                    dirty[at.layer() as usize].insert(at);
                }
            }
            if batch_words > 0 {
                charge_routing_round(ctx, batch_words, "inc-dirty/route");
            }
        });

        self.resolve_dirty(ctx, dirty, &mut stats);

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
        mut dirty: DirtyViews,
        stats: &mut UpdateStats,
    ) {
        let num_layers = self.store.num_layers() as usize;
        // ---- phase 2: bottom-up along the dirty root-paths -------------------------
        let mut root_summary_changed = false;
        ctx.phase("inc-up", |ctx| {
            for layer in 1..=num_layers {
                let mut changed_words = 0usize;
                // Dirty views of one layer are independent: each summary lands in a
                // view of a higher layer.
                let layer_dirty = std::mem::take(&mut dirty[layer]);
                for &at in &layer_dirty {
                    let view = self.store.view(at);
                    let cluster = view.skeleton.cluster();
                    let new_summary = self.problem.summarize(&view);
                    stats.resummarized += 1;
                    if self.store.summary(cluster) == Some(&new_summary) {
                        continue;
                    }
                    stats.summaries_changed += 1;
                    changed_words += 1 + new_summary.words();
                    match self.store.set_summary(cluster, new_summary) {
                        Some(parent) => {
                            dirty[parent.layer() as usize].insert(parent);
                        }
                        None => root_summary_changed = true,
                    }
                }
                // Changed summaries travel to the parent clusters' machines; a layer
                // whose recomputations all came out unchanged sends nothing.
                if changed_words > 0 {
                    charge_routing_round(ctx, changed_words, "inc-up/forward");
                }
                dirty[layer] = layer_dirty;
            }
        });

        // ---- phase 3: top-down over the affected frontier --------------------------
        // On top of the re-summarized views, every view one of whose boundary labels
        // changed. Readers sit at strictly lower layers than the producer (the
        // top-down invariant), so one descending pass picks them all up.
        let mut affected = dirty;
        ctx.phase("inc-down", |ctx| {
            if root_summary_changed {
                let new_root = self.problem.label_root(self.store.root_summary());
                if *self.store.root_label() != new_root {
                    stats.labels_changed += 1;
                    let root = self.store.plan().root();
                    self.store.set_root_label(new_root);
                    for reader in self.store.label_readers(root) {
                        affected[reader.layer() as usize].insert(reader);
                    }
                }
            }
            for layer in (1..=num_layers).rev() {
                let mut changed_words = 0usize;
                // Affected views of one layer are independent (their boundary labels
                // were produced at strictly higher layers, and the labels they write
                // are keyed by disjoint member edges).
                let layer_affected = std::mem::take(&mut affected[layer]);
                stats.relabeled += layer_affected.len();
                for &at in &layer_affected {
                    let store = &self.store;
                    let view = store.view(at);
                    let skeleton = view.skeleton;
                    let out_label = store
                        .label(skeleton.out_edge().child)
                        .expect("boundary out-label cached");
                    let in_label = skeleton.in_edge().and_then(|e| store.label(e.child));
                    let member_labels = self.problem.label_members(&view, out_label, in_label);
                    let top = skeleton.top();
                    let changed: Vec<(NodeId, P::Label)> = skeleton
                        .members()
                        .iter()
                        .zip(member_labels)
                        .enumerate()
                        .filter(|(i, _)| *i != top)
                        .map(|(_, (member, label))| (member.out_child(), label))
                        .filter(|(child, label)| store.label(*child) != Some(label))
                        .collect();
                    for (child, label) in changed {
                        stats.labels_changed += 1;
                        changed_words += 1 + label.words();
                        self.store.set_label(child, label);
                        for reader in self.store.label_readers(child) {
                            affected[reader.layer() as usize].insert(reader);
                        }
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
    /// records, the one repair is spliced into the solver's store — its plan is the one
    /// the batch maintains — and patched into `prepared`'s flat tables (a
    /// [`SolvePlan`] cached on `prepared` is dropped, and its next
    /// [`plan`](PreparedTree::plan) call rebuilds it), and the existing
    /// dirty-root-path machinery re-solves the affected clusters — `O(1)` rounds
    /// total. When a link would overflow a degree or cluster-size bound, the batch
    /// *degrades*: the original tree is reconstructed, mutated, fully re-prepared, and
    /// re-solved (the honest `O(log D)` price), with `stats.degraded = true`.
    ///
    /// `prepared` must be the tree this solver was built on (as left by the solver's
    /// earlier structural batches). The batch is atomic: an invalid op rejects the
    /// whole batch with [`StructuralError::Invalid`] and nothing changes. After a
    /// successful return the solver's labels are identical to a fresh solve on the
    /// mutated tree.
    ///
    /// [`SolvePlan`]: tree_dp_core::SolvePlan
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

        // Inputs of the new leaves, for the store splice.
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

        // ---- inc-struct: route the batch, splice the store, patch the tree ----------
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
            self.store.apply_repair(&repair, &leaf_inputs);
            prepared.apply_structural_repair(&repair);
            if let Some(index) = &mut self.repair_index {
                index.apply(&repair);
            }
            if !repair.is_noop() {
                charge_routing_round(ctx, repair.splice_words(), "inc-struct/splice");
            }
        });

        // ---- re-solve: every patched cluster is dirty at its own layer -------------
        let mut dirty = self.no_dirt();
        for cluster in repair.patches.keys() {
            let at = self
                .store
                .plan()
                .view_slot_of(*cluster)
                .expect("a patched cluster survives the repair");
            dirty[at.layer() as usize].insert(at);
        }
        let mut upd = UpdateStats::default();
        self.resolve_dirty(ctx, dirty, &mut upd);
        stats.resummarized = upd.resummarized;
        stats.relabeled = upd.relabeled;
        stats.rounds = ctx.metrics().rounds - rounds_before;
        stats.words_sent = ctx.metrics().total_words_sent - words_before;
        Ok(stats)
    }

    /// The degraded structural path: reconstruct the original tree, apply the batch
    /// host-side, fully re-prepare, and re-solve with the inputs recovered from the
    /// cached records. Replaces `prepared` and the solver's state wholesale: the fresh
    /// plan the re-solve runs on moves into the new store, and the re-prepared tree
    /// caches none.
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

        // 2. Recover the current inputs from the store: every original node appears
        //    exactly once as a member of its absorbing cluster's view, whose slots hold
        //    its node input and the input of its outgoing edge.
        let mut node_inputs: Vec<(NodeId, P::NodeInput)> = Vec::new();
        let mut edge_inputs: Vec<(NodeId, P::EdgeInput)> = Vec::new();
        for view in self.store.views() {
            for (i, m) in view.skeleton.members().iter().enumerate() {
                if m.kind() != ElementKind::Node || is_aux_node(m.id()) {
                    continue;
                }
                if let Payload::Input(input) = view.payload(i) {
                    node_inputs.push((m.id(), input.clone()));
                }
                if m.out_kind() == EdgeKind::Original && !view.skeleton.leaves_tree(i) {
                    edge_inputs.push((m.out_child(), view.out_input(i)));
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
        let (_, store) = new_prepared.plan_uncached(ctx).solve_with_store(
            ctx,
            &self.problem,
            &node_dv,
            self.aux_input.clone(),
            &edge_dv,
        );
        self.store = store;
        self.repair_index = None;
        *prepared = new_prepared;
        Ok(())
    }

    /// Check the solver's patched-in-place indexes against from-scratch builds: the
    /// routing runs of its plan against a re-derivation over the plan's skeleton views
    /// and `prepared`'s edge list, the plan against the link of `prepared`'s
    /// clustering under its own view counts, the slot state against the skeletons'
    /// shape ([`SolverStore::audit`]), and the repair index (when one has been built) against
    /// one built over `prepared`'s clustering and edge list. `Err` names the first
    /// index that drifted. `O(n log n)` host work, zero rounds — the drift alarm for
    /// long update sequences and the oracle the structural test suites call after
    /// every batch.
    pub fn audit_indexes(&self, prepared: &PreparedTree) -> Result<(), String> {
        self.store.audit(prepared)?;
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
    pub fn repair_index(&self) -> Option<&RepairIndex> {
        self.repair_index.as_ref()
    }

    /// The wrapped problem.
    pub fn problem(&self) -> &P {
        &self.problem
    }

    /// The input every auxiliary degree-reduction node takes.
    pub fn aux_input(&self) -> &P::NodeInput {
        &self.aux_input
    }

    /// The summary of the top cluster on the current inputs (e.g. the optimum value).
    pub fn root_summary(&self) -> &P::Summary {
        self.store.root_summary()
    }

    /// The label of the virtual root edge on the current inputs.
    pub fn root_label(&self) -> &P::Label {
        self.store.root_label()
    }

    /// The label of the edge whose child endpoint is `child`.
    pub fn label(&self, child: NodeId) -> Option<&P::Label> {
        self.store.label(child)
    }

    /// All labels on the current inputs, keyed by edge child endpoint.
    pub fn labels(&self) -> &BTreeMap<NodeId, P::Label> {
        self.store.labels()
    }

    /// Materialize the current solution as a [`DpSolution`] distributed over the
    /// machines of `ctx` (host-side convenience, 0 rounds).
    // Called by `treedp-bench/src/workloads/stream.rs` (`incremental.solution`).
    pub fn solution(&self, ctx: &mut MpcContext) -> DpSolution<P> {
        self.store.to_solution(ctx)
    }

    /// The underlying store: the solver's plan, the slot state over it, the labels.
    pub fn store(&self) -> &SolverStore<P> {
        &self.store
    }
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
    ctx.record_uniform_comm(per_machine, what);
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
                fresh_prepared.clustering.root,
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

        // The repair spliced the solver's plan and dropped the tree's: the tree's next
        // solve rebuilds a plan once (`plan_build + plan_eval`), then only evaluates,
        // and agrees with the solver.
        assert!(
            !prepared.has_plan(),
            "the repair drops the tree's cached plan"
        );
        let mut ids: BTreeSet<u64> = mutated.iter().map(|e| e.child).collect();
        ids.insert(prepared.clustering.root);
        let current = ctx.from_vec(ids.iter().map(|&v| (v, weight_of(v))).collect::<Vec<_>>());
        let engine = StateEngine::new(MaxWeightIndependentSet);
        let mut rounds = vec![ctx.metrics().rounds];
        let mut solutions = Vec::new();
        for _ in 0..2 {
            solutions.push(prepared.solve(&mut ctx, &engine, &current, 0, &no_edges));
            rounds.push(ctx.metrics().rounds);
        }
        let fresh = prepared.plan_uncached(&mut ctx);
        rounds.push(ctx.metrics().rounds);
        fresh.solve(&mut ctx, &engine, &current, 0, &no_edges);
        rounds.push(ctx.metrics().rounds);
        let charged: Vec<u64> = rounds.windows(2).map(|w| w[1] - w[0]).collect();
        let (build, eval) = (charged[2], charged[3]);
        assert_eq!(charged[..2], [build + eval, eval], "plan_build + plan_eval");
        for solution in &solutions {
            assert_eq!(&solution.root_summary, inc.root_summary());
            let labels: BTreeMap<u64, usize> = solution.labels.iter().cloned().collect();
            assert_eq!(&labels, inc.labels());
        }
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
        assert!(
            !prepared.has_plan(),
            "the re-prepared tree carries no plan: its plan moved into the solver's store"
        );
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

    /// The drift alarm rings: a cut spliced into the tree but not into the solver leaves
    /// the solver's plan routing inputs to edges the tree no longer has.
    #[test]
    fn audit_names_the_index_a_one_sided_repair_leaves_behind() {
        let tree = shapes::path(60);
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
        let inc = IncrementalSolver::new(
            &mut ctx,
            &prepared,
            StateEngine::new(MaxWeightIndependentSet),
            &inputs,
            0,
            &no_edges,
        );
        assert_eq!(inc.audit_indexes(&prepared), Ok(()));

        let edges: Vec<_> = prepared.edges.iter().copied().collect();
        let repair = match tree_clustering::plan_repair(
            &prepared.clustering,
            &edges,
            &[TopologyOp::Cut { child: 40 }],
        ) {
            Ok(RepairOutcome::Repaired(repair)) => repair,
            other => panic!("a tail cut repairs locally, got {other:?}"),
        };
        prepared.apply_structural_repair(&repair);
        let err = inc
            .audit_indexes(&prepared)
            .expect_err("the solver was left behind");
        assert!(err.contains("other nodes than the edge list"), "{err}");
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
