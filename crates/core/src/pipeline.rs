//! End-to-end pipeline: the paper's three-step approach
//! (Section 1.4) packaged behind one API.
//!
//! 1. **Normalize** the input representation into the standard rooted edge list
//!    (`O(log D)` rounds, Section 3 — only `O(1)` for already-rooted representations).
//! 2. **Degree-reduce and cluster**: replace high-degree nodes by `O(1)`-depth auxiliary
//!    trees (Section 4.4), which establishes the degree bound `n^{δ/2}` once, and build
//!    the hierarchical clustering on the reduced tree under that bound (`O(log D)`
//!    rounds, Section 4).
//! 3. **Solve** any number of DP problems on the same clustering, each in `O(1)` rounds
//!    (Section 5), through the [`SolvePlan`] built once per prepared tree. The
//!    clustering is computed once per input topology and reused — this is the headline
//!    structural message of the paper.

use crate::plan::{build_plan, DpSolution, SolvePlan};
use crate::problem::ClusterDp;
use mpc_engine::{unmetered, Deal, DistVec, MpcContext};
use std::cell::OnceCell;
use tree_clustering::{build_clustering, reduce_degrees, ClusterError, Clustering, EdgeKind};
use tree_repr::{normalize, DirectedEdge, NodeId, TreeInput};

/// Errors of the end-to-end pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The input representation was malformed (unbalanced parentheses, several roots,
    /// a cycle, ...).
    MalformedInput,
    /// The clustering construction failed.
    Clustering(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::MalformedInput => write!(f, "malformed tree input"),
            PipelineError::Clustering(msg) => write!(f, "clustering failed: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ClusterError> for PipelineError {
    fn from(e: ClusterError) -> Self {
        PipelineError::Clustering(e.0)
    }
}

/// A tree that has been normalized, degree-reduced, and hierarchically clustered —
/// ready to solve any number of DP problems in `O(1)` additional rounds each.
#[derive(Debug, Clone)]
pub struct PreparedTree {
    /// The hierarchical clustering (reusable across problems and input labellings).
    pub clustering: Clustering,
    /// Edges of the degree-reduced tree with their kinds, each the kind its child id
    /// decides ([`EdgeKind::leaving`]); a snapshot that breaks this is refused.
    pub edges: DistVec<(DirectedEdge, EdgeKind)>,
    /// Number of original nodes.
    pub original_nodes: usize,
    /// For every auxiliary node, the original node it stands in for.
    pub aux_to_original: DistVec<(NodeId, NodeId)>,
    /// The lazily built, cached [`SolvePlan`] (see [`plan`](Self::plan)): the
    /// problem-independent view assembly is charged once per topology — a structural
    /// repair drops it.
    pub(crate) plan: OnceCell<SolvePlan>,
}

/// Run steps 1 and 2 of the pipeline: normalize any representation, reduce degrees, and
/// build the hierarchical clustering. `threshold` overrides `n^{δ/2}` (useful for small
/// test inputs).
pub fn prepare(
    ctx: &mut MpcContext,
    input: TreeInput,
    threshold: Option<usize>,
) -> Result<PreparedTree, PipelineError> {
    let normalized = ctx
        .phase("normalize", |ctx| normalize(ctx, input))
        .ok_or(PipelineError::MalformedInput)?;
    let threshold = threshold
        .unwrap_or_else(|| ctx.config().n_half_delta())
        .max(2);
    let reduced = ctx
        .phase("degree-reduction", |ctx| {
            reduce_degrees(
                ctx,
                &normalized.edges,
                normalized.root,
                normalized.num_nodes,
                threshold,
            )
        })
        .ok_or(PipelineError::MalformedInput)?;
    let clustering = ctx.phase("clustering", |ctx| build_clustering(ctx, &reduced))?;
    let (edges, original_nodes, aux_to_original) = reduced.into_parts();
    Ok(PreparedTree {
        clustering,
        edges,
        original_nodes,
        aux_to_original,
        plan: OnceCell::new(),
    })
}

impl PreparedTree {
    /// Solve one DP problem on the prepared tree (`O(1)` rounds) through its cached
    /// [`SolvePlan`]: the first call builds the plan (charged under `plan-build`),
    /// every call pays the evaluation pass (`plan-solve`).
    ///
    /// * `node_inputs` — inputs of the *original* nodes.
    /// * `aux_input` — the input assigned to every auxiliary node introduced by degree
    ///   reduction (e.g. weight 0 for MaxIS).
    /// * `edge_inputs` — optional per-edge inputs keyed by the edge's child endpoint.
    pub fn solve<P: ClusterDp>(
        &self,
        ctx: &mut MpcContext,
        problem: &P,
        node_inputs: &DistVec<(NodeId, P::NodeInput)>,
        aux_input: P::NodeInput,
        edge_inputs: &DistVec<(NodeId, P::EdgeInput)>,
    ) -> DpSolution<P> {
        self.plan(ctx)
            .solve(ctx, problem, node_inputs, aux_input, edge_inputs)
    }

    /// The shared [`SolvePlan`] of this prepared tree: the problem-independent view
    /// assembly (per-layer member groupings, member-tree links, boundary edges,
    /// routing indexes), built **once** on first call (charged under `plan-build`)
    /// and cached — subsequent calls return the cached plan for free until a
    /// structural repair ([`apply_structural_repair`](Self::apply_structural_repair))
    /// drops it. Any number of DP problems can then be solved over it with
    /// [`SolvePlan::solve`], each charging only its problem-dependent
    /// payload/summary/label exchanges.
    pub fn plan(&self, ctx: &mut MpcContext) -> &SolvePlan {
        self.plan
            .get_or_init(|| build_plan(ctx, &self.clustering, &self.aux_to_original))
    }

    /// Build a fresh [`SolvePlan`] for this tree, bypassing (and not touching) the
    /// [`plan`](Self::plan) cache. Every call re-charges the full `plan-build` phase.
    /// It serves callers that keep the plan elsewhere: a plan built here and moved
    /// into a solver store ([`SolvePlan::solve_with_store`]) is the only copy.
    pub fn plan_uncached(&self, ctx: &mut MpcContext) -> SolvePlan {
        build_plan(ctx, &self.clustering, &self.aux_to_original)
    }

    /// Whether a [`SolvePlan`] is currently cached on this tree (built by a prior
    /// [`plan`](Self::plan) call or restored from a snapshot).
    pub fn has_plan(&self) -> bool {
        self.plan.get().is_some()
    }

    /// Approximate resident size of the prepared tree in machine words: clustering
    /// elements, the degree-reduced edge list, the aux-node map, and the cached plan
    /// (when built). The serving layer reports this as per-tenant resident bytes.
    pub fn resident_words(&self) -> usize {
        let plan = self.plan.get().map_or(0, SolvePlan::resident_words);
        8 + self.clustering.elements.total_words()
            + self.edges.total_words()
            + self.aux_to_original.total_words()
            + plan
    }

    /// Splice a planned structural repair (see [`tree_clustering::RepairIndex::plan`])
    /// into this tree: the clustering's element list, the degree-reduced edge list,
    /// the aux-node map and the node counts. A cached [`SolvePlan`] is dropped, not
    /// spliced — the plan a repair maintains is the solver store's
    /// ([`SolverStore::apply_repair`](crate::SolverStore::apply_repair)) — so the
    /// next [`plan`](Self::plan) call rebuilds it under `plan-build`.
    ///
    /// The three flat tables are patched where they lie, with no host-side copy: edges
    /// and aux records are dropped from their chunks and the new leaf edges land where
    /// a balanced input would put them; the element list takes one in-place pass that
    /// drops, demotes and appends, and is then shifted back into the balanced layout
    /// (a later `plan_uncached` reads all three under charged primitives, so their
    /// chunking is part of the charged model). These passes are the only work here
    /// that is linear in the tree.
    ///
    /// Host-side surgery, zero rounds (the incremental solver's `inc-struct` phase
    /// meters the moved words). The repair must have been planned against this tree's
    /// current clustering; applying a stale repair corrupts the state.
    pub fn apply_structural_repair(&mut self, repair: &tree_clustering::ClusteringRepair) {
        // Edge list: drop every edge out of the removed set (all such edges have their
        // child endpoint in it), append the new leaf edges (always Original: links
        // attach original-id leaves below original nodes) spread over the front chunks.
        let deal = Deal::over(repair.added_leaves.len(), self.edges.num_chunks());
        let mut new_edges = repair.added_leaves.chunks(deal.share());
        // Drops records where they lie and places the new leaf edges like `from_vec`
        // places an input; the caller's inc-struct/splice round meters the spliced
        // records.
        for chunk in unmetered::chunks_mut(&mut self.edges) {
            if !repair.removed_nodes.is_empty() {
                chunk.retain(|(e, _)| !repair.removed_nodes.contains(&e.child));
            }
            let leaves = new_edges.next().unwrap_or_default();
            chunk.extend(leaves.iter().map(|l| (l.out_edge, EdgeKind::Original)));
        }

        // Clustering elements: drop, demote, append, rebalance.
        // Machine-local drop/demote, then the new leaves join at the end and
        // `relayout_balanced` restores the input layout `from_vec` would give;
        // metered by the caller's inc-struct/splice round.
        let elements = unmetered::chunks_mut(&mut self.clustering.elements);
        if !repair.removed_elements.is_empty() || !repair.demoted.is_empty() {
            for chunk in elements.iter_mut() {
                chunk.retain_mut(|e| repair.retain_element(e));
            }
        }
        let last = elements.iter().rposition(|c| !c.is_empty()).unwrap_or(0);
        elements[last].extend(repair.added_leaves.iter().copied());
        self.clustering.elements.relayout_balanced();
        self.clustering.num_nodes = repair.new_num_nodes;

        // Aux map and node counts.
        if !repair.removed_aux.is_empty() {
            // Machine-local filter: records are dropped where they lie.
            for chunk in unmetered::chunks_mut(&mut self.aux_to_original) {
                chunk.retain(|(aux, _)| !repair.removed_aux.contains(aux));
            }
        }
        let removed_originals = repair.removed_nodes.len() - repair.removed_aux.len();
        self.original_nodes = self.original_nodes - removed_originals + repair.added_leaves.len();
        self.plan.take();
    }

    /// Reconstruct the *original* (pre-degree-reduction) child→parent edge list,
    /// host-side: auxiliary fan-out edges vanish and edges re-targeted at an auxiliary
    /// parent are mapped back to the original node it stands in for. The degraded
    /// structural path re-prepares from this list after applying a batch that local
    /// repair cannot absorb.
    pub fn original_edge_list(&self) -> Vec<DirectedEdge> {
        let aux_map: std::collections::BTreeMap<NodeId, NodeId> =
            self.aux_to_original.iter().copied().collect();
        self.edges
            .iter()
            .filter(|(_, kind)| *kind == EdgeKind::Original)
            .map(|(e, _)| {
                let parent = aux_map.get(&e.parent).copied().unwrap_or(e.parent);
                DirectedEdge::new(e.child, parent)
            })
            .collect()
    }

    /// Number of layers of the underlying clustering.
    pub fn num_layers(&self) -> u32 {
        self.clustering.num_layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::Count;
    use mpc_engine::MpcConfig;
    use std::collections::BTreeMap;
    use tree_clustering::{is_aux_node, ElementKind, RepairIndex, RepairOutcome, TopologyOp};
    use tree_gen::shapes;
    use tree_repr::{ListOfEdges, Tree};

    /// What `apply_structural_repair` did before it patched in place: every flat table
    /// cloned, filtered and redistributed through `from_vec`. Returns `before` with the
    /// three tables replaced.
    fn with_rebuilt_tables(
        ctx: &mut MpcContext,
        before: &PreparedTree,
        repair: &tree_clustering::ClusteringRepair,
    ) -> PreparedTree {
        let added = ctx.from_vec(
            repair
                .added_leaves
                .iter()
                .map(|l| (l.out_edge, EdgeKind::Original))
                .collect::<Vec<_>>(),
        );
        let mut elements = before.clustering.elements.to_vec();
        elements.retain_mut(|e| repair.retain_element(e));
        elements.extend(repair.added_leaves.iter().copied());
        let mut rebuilt = before.clone();
        rebuilt.edges = before
            .edges
            .clone()
            .filter_local(|(e, _)| !repair.removed_nodes.contains(&e.child))
            .concat_local(added);
        rebuilt.clustering.elements = ctx.from_vec(elements);
        rebuilt.aux_to_original = before
            .aux_to_original
            .clone()
            .filter_local(|(aux, _)| !repair.removed_aux.contains(aux));
        rebuilt
    }

    /// One small valid batch over the live original nodes `live` (root first): a few
    /// links, on odd steps the cut of a leaf linked earlier, every fifth step the cut
    /// of the subtree below one of the `cut_among` lowest-numbered non-root nodes.
    fn batch(
        live: &[NodeId],
        step: u64,
        next_id: &mut NodeId,
        cut_among: usize,
    ) -> Vec<TopologyOp> {
        let pick = |salt: u64, len: usize| {
            (step
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(salt * 7919)
                >> 17) as usize
                % len
        };
        let mut ops = Vec::new();
        for i in 0..1 + step % 3 {
            ops.push(TopologyOp::Link {
                parent: live[pick(i, live.len())],
                child: *next_id,
            });
            *next_id += 1;
        }
        if step % 2 == 1 {
            if let Some(&leaf) = live.iter().find(|&&v| v >= FIRST_LINKED) {
                ops.push(TopologyOp::Cut { child: leaf });
            }
        }
        if step % 5 == 4 {
            let victim = live[1 + pick(99, cut_among.min(live.len() - 1))];
            if !ops.contains(&TopologyOp::Cut { child: victim }) {
                ops.push(TopologyOp::Cut { child: victim });
            }
        }
        ops
    }

    /// Ids of the leaves the generated batches link.
    const FIRST_LINKED: NodeId = 10_000;

    /// Runs `steps` generated batches, each patched into the tree's tables and spliced
    /// into the plan of a solver store over the tree; returns how many (demotions,
    /// removed auxiliary nodes) the repairs covered, and how often the splice rebuilt
    /// each routing index (node and cluster payloads, out-edge lists, label readers)
    /// after its tombstones and overflow piled up.
    fn check_repairs_patch_like_a_rebuild(
        tree: &Tree,
        threshold: usize,
        steps: u64,
        cut_among: usize,
    ) -> (usize, usize, [usize; 3]) {
        let mut ctx = MpcContext::new(
            MpcConfig::new(2 * tree.len(), 0.5)
                .with_memory_slack(512.0)
                .with_bandwidth_slack(512.0),
        );
        let mut prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
            Some(threshold),
        )
        .expect("well-formed tree");
        let ones = ctx.from_vec((0..tree.len() as u64).map(|v| (v, 1)).collect::<Vec<_>>());
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
        let (_, mut store) = prepared
            .plan(&mut ctx)
            .clone()
            .solve_with_store(&mut ctx, &Count, &ones, 1, &no_edges);
        let mut index = RepairIndex::build(&prepared.clustering, prepared.edges.iter());
        let mut next_id = FIRST_LINKED;
        let (mut repaired, mut demoted, mut removed_aux) = (0, 0, 0);
        let mut rebuilds = [0; 3];
        for step in 0..steps {
            let mut live: Vec<NodeId> = prepared
                .clustering
                .elements
                .iter()
                .filter(|e| e.kind == ElementKind::Node && !is_aux_node(e.id))
                .map(|e| e.id)
                .collect();
            live.sort_unstable();
            assert_eq!(live[0], prepared.clustering.root);
            let ops = batch(&live, step, &mut next_id, cut_among);
            let repair = match index.plan(&ops).expect("generated batches are valid") {
                RepairOutcome::Repaired(repair) => repair,
                // A link below a full parent: not this test's subject.
                RepairOutcome::Degrade(_) => continue,
            };
            repaired += 1;
            demoted += repair.demoted.len();
            removed_aux += repair.removed_aux.len();

            let rebuilt = with_rebuilt_tables(&mut ctx, &prepared, &repair);
            let leaf_inputs: BTreeMap<NodeId, (u64, ())> = repair
                .added_leaves
                .iter()
                .map(|leaf| (leaf.id, (1, ())))
                .collect();
            let before = store.plan().routing.entry_addresses();
            prepared.apply_structural_repair(&repair);
            store.apply_repair(&repair, &leaf_inputs);
            let after = store.plan().routing.entry_addresses();
            for ((count, was), now) in rebuilds.iter_mut().zip(before).zip(after) {
                *count += usize::from(now != was);
            }
            index.apply(&repair);
            assert!(
                !prepared.has_plan(),
                "step {step}: the repair drops the tree's plan"
            );

            assert_eq!(
                prepared.edges.chunks(),
                rebuilt.edges.chunks(),
                "step {step}: edges"
            );
            assert_eq!(
                prepared.clustering.elements.chunks(),
                rebuilt.clustering.elements.chunks(),
                "step {step}: elements"
            );
            assert_eq!(
                prepared.aux_to_original.chunks(),
                rebuilt.aux_to_original.chunks(),
                "step {step}: aux map"
            );
            let plain: Vec<DirectedEdge> = prepared.edges.iter().map(|(e, _)| *e).collect();
            assert_eq!(
                prepared.clustering.validate(&plain),
                Vec::new(),
                "step {step}"
            );
            assert_eq!(
                index,
                RepairIndex::build(&prepared.clustering, prepared.edges.iter()),
                "step {step}: repair index"
            );

            // The splice's in-place index patches equal the derivation decode runs.
            assert_eq!(store.audit(prepared.edges.iter()), Ok(()), "step {step}");
            let plan = store.plan();
            assert_eq!(
                SolvePlan::from_snapshot(&plan.to_snapshot()).as_ref(),
                Ok(plan),
                "step {step}: indexes"
            );
            assert_eq!(
                plan.routing_by_id(),
                prepared.plan_uncached(&mut ctx).routing_by_id(),
                "step {step}: routing vs a fresh plan of the repaired tree"
            );
        }
        assert!(
            repaired * 2 > steps,
            "most generated batches repair locally"
        );
        (demoted, removed_aux, rebuilds)
    }

    #[test]
    fn structural_repairs_patch_tables_and_plan_like_a_rebuild() {
        let (demoted, _, mut rebuilds) =
            check_repairs_patch_like_a_rebuild(&shapes::path(300), 4, 40, usize::MAX);
        assert!(demoted > 0, "mid-path cuts demote indegree-1 clusters");
        for (tree, threshold) in [
            (shapes::balanced_kary(121, 3), 4),
            (shapes::random_recursive(400, 7), 3),
        ] {
            let (_, _, more) = check_repairs_patch_like_a_rebuild(&tree, threshold, 40, usize::MAX);
            rebuilds.iter_mut().zip(more).for_each(|(r, m)| *r += m);
        }
        // Every routing index — payloads, out-edge lists, label readers — went
        // through tombstones or overflow and was rebuilt from them.
        assert!(rebuilds.iter().all(|&r| r > 0), "rebuilds {rebuilds:?}");
        // Six hubs of ten leaves below the root: every node above the leaves is
        // degree-reduced, and cutting a hub removes its auxiliary fan-out.
        let hubs = Tree::from_parents(
            std::iter::once(None)
                .chain((0..6).map(|_| Some(0)))
                .chain((0..60).map(|leaf| Some(1 + leaf / 10)))
                .collect(),
        );
        let (_, removed_aux, _) = check_repairs_patch_like_a_rebuild(&hubs, 3, 40, 6);
        assert!(
            removed_aux > 0,
            "cut hubs take their auxiliary nodes with them"
        );
    }
}
