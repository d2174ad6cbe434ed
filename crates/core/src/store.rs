//! The solver store: what one evaluation pass builds, kept instead of dropped so that
//! later solves on the same clustering can reuse it.
//!
//! The paper's structural message (Section 1.4, Figs. 2–3) is that a cluster's local
//! view is assembled on one machine once and every pass reuses it. [`SolverStore`]
//! pushes that reuse one step further. It holds
//!
//! * a [`SolvePlan`] — the tree's one maintained plan: structural repairs splice it
//!   here and nowhere else, while a plan a [`PreparedTree`](crate::PreparedTree)
//!   caches is dropped by a repair and rebuilt on demand (the serving layer holds each
//!   tenant's one plan here and none on the tree),
//! * the [`SlotState`](crate::SlotState) of every view, aligned slot for slot with that
//!   plan's skeletons (`state[layer - 1][machine][view]`): the payloads and edge inputs
//!   [`SolvePlan::solve`] routes into place and then drops, and
//! * the per-edge labels and the root label/summary of the last solve.
//!
//! A view is never copied out of these ([`view`](SolverStore::view) borrows a skeleton
//! and its slots). `tree-dp-incremental` writes changed inputs into their slots through
//! the plan's routing indexes and re-processes only the dirty views; a structural repair
//! is spliced into the store's plan with the slot state carried along by the same
//! compactions ([`apply_repair`](SolverStore::apply_repair)).

use crate::plan::{slots_at, DpSolution, PlanState, SolvePlan, ViewSlot};
use crate::problem::{ClusterDp, ClusterView, Payload};
use mpc_engine::{MpcContext, Words};
use std::collections::{BTreeMap, BTreeSet};
use tree_clustering::{ClusteringRepair, EdgeKind, ElementId};
use tree_repr::{DirectedEdge, NodeId};

/// A plan, the slot state of one problem over it, and that problem's labels (see the
/// module docs). Produced by [`SolvePlan::solve_with_store`] or decoded from a
/// snapshot; the slot state always matches the plan's skeletons member for member.
pub struct SolverStore<P: ClusterDp> {
    pub(crate) plan: SolvePlan,
    pub(crate) state: PlanState<P>,
    /// One label per edge, keyed by the edge's child endpoint (the virtual root edge
    /// under the root's node id).
    pub(crate) labels: BTreeMap<NodeId, P::Label>,
    pub(crate) root_label: P::Label,
    pub(crate) root_summary: P::Summary,
}

impl<P: ClusterDp> SolverStore<P> {
    /// The plan the slot state is aligned with.
    pub fn plan(&self) -> &SolvePlan {
        &self.plan
    }

    /// Number of layers of the underlying clustering.
    pub fn num_layers(&self) -> u32 {
        self.plan.num_layers
    }

    /// The view at `at`: its skeleton paired with its slots.
    pub fn view(&self, at: ViewSlot) -> ClusterView<'_, P> {
        ClusterView {
            skeleton: self.plan.view_at(at),
            slots: &self.state[at.layer as usize - 1][at.machine as usize][at.view as usize],
        }
    }

    /// Every view, layer by layer.
    pub fn views(&self) -> impl Iterator<Item = ClusterView<'_, P>> {
        let skeletons = self.plan.views().map(|(_, skeleton)| skeleton);
        skeletons
            .zip(self.state.iter().flatten().flatten())
            .map(|(skeleton, slots)| ClusterView { skeleton, slots })
    }

    // ----- slot writes (the incremental path) ---------------------------------------

    /// Write `input` into the payload slot of `node`; the view holding the slot, or
    /// `None` when the plan routes no such element.
    pub fn set_node_input(&mut self, node: NodeId, input: P::NodeInput) -> Option<ViewSlot> {
        let slot = *self.plan.routing.payload(node)?;
        let at = slot.view_slot();
        slots_at(&mut self.state, at).payloads[slot.member as usize] = Some(Payload::Input(input));
        Some(at)
    }

    /// Write `input` into every slot carrying the input of the edge whose child
    /// endpoint is `child` (the member slot of the element leaving by it, the in-edge
    /// slot of the view it enters); the views written to.
    pub fn set_edge_input(&mut self, child: NodeId, input: &P::EdgeInput) -> Vec<ViewSlot> {
        let routing = &self.plan.routing;
        let mut touched = Vec::new();
        for slot in routing.out_edges.get(child) {
            slots_at(&mut self.state, slot.view_slot()).out_inputs[slot.member as usize] =
                Some(input.clone());
            touched.push(slot.view_slot());
        }
        for at in routing.readers_as(child, false) {
            slots_at(&mut self.state, at).in_input = Some(input.clone());
            touched.push(at);
        }
        touched
    }

    /// The current summary of `cluster`: the root summary for the top cluster, else
    /// what the cluster's member slot in the absorbing view holds.
    pub fn summary(&self, cluster: ElementId) -> Option<&P::Summary> {
        if cluster == self.plan.top_cluster {
            return Some(&self.root_summary);
        }
        let slot = self.plan.routing.payload(cluster)?;
        let at = slot.view_slot();
        match &self.state[at.layer as usize - 1][at.machine as usize][at.view as usize].payloads
            [slot.member as usize]
        {
            Some(Payload::Summary(summary)) => Some(summary),
            _ => None,
        }
    }

    /// Overwrite the summary of `cluster`: the absorbing view whose member slot took
    /// it, or `None` for the top cluster, whose summary is the root summary.
    pub fn set_summary(&mut self, cluster: ElementId, summary: P::Summary) -> Option<ViewSlot> {
        if cluster == self.plan.top_cluster {
            self.root_summary = summary;
            return None;
        }
        let slot = *self.plan.routing.payload(cluster)?;
        let at = slot.view_slot();
        slots_at(&mut self.state, at).payloads[slot.member as usize] =
            Some(Payload::Summary(summary));
        Some(at)
    }

    // ----- labels -------------------------------------------------------------------

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

    /// The views that read the label of the edge whose child endpoint is `child` as a
    /// boundary label (out-label or in-label) in their top-down step.
    pub fn label_readers(&self, child: NodeId) -> impl Iterator<Item = ViewSlot> + '_ {
        self.plan.routing.readers.get(child).iter().map(|r| r.view)
    }

    /// The label of the virtual root edge.
    pub fn root_label(&self) -> &P::Label {
        &self.root_label
    }

    /// Overwrite the root label (also filed under the root's node id).
    pub fn set_root_label(&mut self, label: P::Label) {
        self.labels.insert(self.plan.root, label.clone());
        self.root_label = label;
    }

    /// The summary of the top cluster.
    pub fn root_summary(&self) -> &P::Summary {
        &self.root_summary
    }

    // ----- structural splicing (batched link/cut repair) ----------------------------

    /// Splice a structural repair into the store: the plan's skeletons and routing
    /// indexes patched in place — the only splice of a plan there is — the slot state
    /// moved along by the same compactions, the labels of removed edges dropped.
    /// `leaf_inputs` holds the node and edge input of every leaf the repair adds. Zero
    /// rounds (the caller meters the spliced words).
    pub fn apply_repair(
        &mut self,
        repair: &ClusteringRepair,
        leaf_inputs: &BTreeMap<NodeId, (P::NodeInput, P::EdgeInput)>,
    ) {
        self.plan.splice(repair, &mut self.state);
        // What the repair clears or adds, at the addresses the spliced indexes give: a
        // demoted view reads no in-edge input, a new leaf is its view's last member.
        for cluster in &repair.demoted {
            if let Some(at) = self.plan.view_slot_of(*cluster) {
                slots_at(&mut self.state, at).in_input = None;
            }
        }
        for leaf in repair.patches.values().flat_map(|p| &p.added) {
            let (node_input, edge_input) = leaf_inputs
                .get(&leaf.id)
                .expect("every added leaf came from a link op")
                .clone();
            let slot = *self
                .plan
                .routing
                .payload(leaf.id)
                .expect("the splice filed every added leaf");
            let slots = slots_at(&mut self.state, slot.view_slot());
            debug_assert_eq!(slots.payloads.len(), slot.member as usize);
            slots.payloads.push(Some(Payload::Input(node_input)));
            slots.out_inputs.push(Some(edge_input));
        }
        for child in &repair.removed_nodes {
            self.labels.remove(child);
        }
    }

    /// Check the store against from-scratch derivations: every routing index of the
    /// plan against a re-index of its skeleton views, the edges the plan takes inputs
    /// for and their kinds against `edges` (the degree-reduced edge list the plan was
    /// built over; see [`SolvePlan::out_kind_mismatch`]), and the slot state against
    /// the skeletons' shape. `Err` names the first index, edge or view that drifted.
    /// Zero rounds, `O(n log n)` host work — the alarm for long sequences of in-place
    /// splices.
    pub fn audit<'a>(
        &self,
        edges: impl IntoIterator<Item = &'a (DirectedEdge, EdgeKind)>,
    ) -> Result<(), String> {
        let edges: Vec<&(DirectedEdge, EdgeKind)> = edges.into_iter().collect();
        let edge_children: BTreeSet<NodeId> = edges.iter().map(|(e, _)| e.child).collect();
        self.plan.audit_routing(&edge_children)?;
        if let Some(child) = self.plan.out_kind_mismatch(edges) {
            return Err(format!(
                "a member leaves by edge {child} under another kind than the edge list's"
            ));
        }
        self.state_mismatch()
            .map_or(Ok(()), |what| Err(what.into()))
    }

    /// What keeps the slot state from matching the plan's skeletons, if anything.
    pub(crate) fn state_mismatch(&self) -> Option<&'static str> {
        let plan = &self.plan;
        if self.state.len() != plan.num_layers as usize
            || self.state.iter().any(|s| s.len() != plan.num_machines)
            || (1..=plan.num_layers).zip(&self.state).any(|(layer, s)| {
                let held = |machine: usize| plan.skeletons[machine].len_at(layer);
                s.iter()
                    .enumerate()
                    .any(|(machine, s)| s.len() != held(machine))
            })
        {
            return Some("slot state layout differs from the plan's layer/machine/view layout");
        }
        for view in self.views() {
            let members = view.skeleton.members().len();
            if view.slots.payloads.len() != members || view.slots.out_inputs.len() != members {
                return Some("slot state vectors differ in length from the member list");
            }
            if view.slots.payloads.iter().any(Option::is_none) {
                return Some("slot state has a member without a payload");
            }
        }
        None
    }

    /// Approximate resident size of the store in machine words: the plan, the slot
    /// state and the labels, each record counted at its [`Words`] width plus one key
    /// word. Used by the serving layer's per-tenant accounting.
    pub fn resident_words(&self) -> usize {
        let state: usize = self
            .state
            .iter()
            .flatten()
            .flatten()
            .map(|slots| {
                let payloads: usize = slots.payloads.iter().map(Words::words).sum();
                let out_inputs: usize = slots.out_inputs.iter().map(Words::words).sum();
                payloads + out_inputs + slots.in_input.words()
            })
            .sum();
        let labels: usize = self.labels.values().map(|l| 1 + l.words()).sum();
        let roots = self.root_label.words() + self.root_summary.words();
        self.plan.resident_words() + state + labels + roots
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
            root_label: self.root_label.clone(),
            root_summary: self.root_summary.clone(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pipeline::{prepare, PreparedTree};
    use crate::skeleton::{Linked, PlanMember};
    use crate::snapshot::{
        seal, snapshot_from_bytes, snapshot_to_bytes, write_plan, Snapshot, SnapshotError,
        SnapshotWriter, KIND_PLAN, KIND_PREPARED_TREE, KIND_STORE,
    };
    use mpc_engine::MpcConfig;
    use std::cell::OnceCell;
    use tree_clustering::ElementKind;
    use tree_gen::shapes;
    use tree_repr::{ListOfEdges, TreeInput};

    /// Subtree sizes: a cluster is summarized by its node count.
    pub(crate) struct Count;

    impl ClusterDp for Count {
        type NodeInput = u64;
        type EdgeInput = ();
        type Summary = u64;
        type Label = u64;

        fn summarize(&self, view: &ClusterView<'_, Self>) -> u64 {
            (0..view.skeleton.members().len())
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
            vec![0; view.skeleton.members().len()]
        }
    }

    /// A prepared caterpillar (indegree-1 clusters, several layers) with its plan
    /// cached, and the store of one solve over it.
    fn solved() -> (PreparedTree, SolverStore<Count>) {
        let tree = shapes::caterpillar(30, 3);
        let mut ctx = MpcContext::new(
            MpcConfig::new(2 * tree.len(), 0.5)
                .with_memory_slack(512.0)
                .with_bandwidth_slack(512.0),
        );
        let prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            Some(4),
        )
        .expect("well-formed tree");
        let ones = ctx.from_vec((0..tree.len() as u64).map(|v| (v, 1)).collect::<Vec<_>>());
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
        let (solution, store) = prepared
            .plan(&mut ctx)
            .clone()
            .solve_with_store(&mut ctx, &Count, &ones, 1, &no_edges);
        assert_eq!(solution.root_summary, prepared.clustering.num_nodes as u64);
        (prepared, store)
    }

    /// The first view with an incoming edge and a member that has both a parent and a
    /// child: every skeleton field a corruption below touches is present in it.
    fn rich_view(plan: &SolvePlan) -> ViewSlot {
        let mut readers = plan.routing.readers.iter().flat_map(|(_, rs)| rs);
        readers
            .find(|r| {
                !r.as_out && {
                    let view = plan.view_at(r.view);
                    view.attach().is_some()
                        && (0..view.members().len()).any(|i| {
                            view.member(i).parent().is_some() && !view.children(i).is_empty()
                        })
                }
            })
            .expect("a caterpillar has an indegree-1 cluster with an inner member")
            .view
    }

    fn decode_resealed<T: Snapshot>(kind: u32, value: &T) -> Result<T, SnapshotError> {
        snapshot_from_bytes(kind, &snapshot_to_bytes(kind, value))
    }

    /// The plan's views as its snapshot writes them, `[layer - 1][machine][view]`.
    fn linked_views(plan: &SolvePlan) -> Vec<Vec<Vec<Linked>>> {
        (1..=plan.num_layers)
            .map(|layer| {
                (0..plan.num_machines)
                    .map(|machine| plan.views_at(layer, machine).map(|v| v.linked()).collect())
                    .collect()
            })
            .collect()
    }

    /// The payload of a plan snapshot of `plan`'s header with `views` in place of its
    /// own.
    fn plan_payload(plan: &SolvePlan, views: Vec<Vec<Vec<Linked>>>) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        write_plan(plan, views.into_iter().flatten(), &mut w);
        w.into_bytes()
    }

    /// `member` with another id and parent.
    fn remade(member: PlanMember, id: u64, parent: Option<usize>) -> PlanMember {
        let (kind, out_kind) = (member.kind(), member.out_kind());
        PlanMember::new(id, kind, out_kind, parent, member.enters_parent())
    }

    /// A checksum-valid payload with one skeleton field out of place must come back as
    /// a typed error, naming the check it fails, from every decoder that carries a
    /// plan — not as a value that panics on the next solve or update. The corruptions
    /// are made on the views as the snapshot writes them.
    #[test]
    fn resealed_payloads_with_one_index_out_of_place_decode_to_malformed() {
        let (prepared, store) = solved();
        let plan = store.plan().clone();
        assert_eq!(decode_resealed(KIND_PLAN, &plan).as_ref(), Ok(&plan));
        let good = plan_payload(&plan, linked_views(&plan));
        assert_eq!(good, plan.to_snapshot()[32..]);
        let at = rich_view(&plan);
        let inner = {
            let view = plan.view_at(at);
            (0..view.members().len())
                .position(|i| view.member(i).parent().is_some() && !view.children(i).is_empty())
                .expect("rich view")
        };

        type Views = Vec<Vec<Vec<Linked>>>;
        type Corruption = (
            &'static str,
            fn(&mut SolvePlan, &mut Views, ViewSlot, usize),
        );
        fn view(views: &mut Views, at: ViewSlot) -> &mut Linked {
            &mut views[at.layer as usize - 1][at.machine as usize][at.view as usize]
        }
        fn reparent(view: &mut Linked, i: usize, parent: usize) {
            view.members[i] = remade(view.members[i], view.members[i].id(), Some(parent));
        }
        let corruptions: [Corruption; 10] = [
            ("view top/attach index", |_, v, at, _| {
                view(v, at).top = usize::MAX
            }),
            ("view top/attach index", |_, v, at, _| {
                let view = view(v, at);
                let len = view.members.len();
                let (_, attach, _) = view.in_edge.as_mut().expect("rich view");
                *attach = Some(len);
            }),
            ("view parent index", |_, v, at, inner| {
                let view = view(v, at);
                reparent(view, inner, view.members.len() + 7);
            }),
            // Two members each other's parent: the top does not reach them.
            ("view member tree", |_, v, at, inner| {
                let view = view(v, at);
                let below = (0..view.members.len())
                    .find(|&i| view.members[i].parent() == Some(inner))
                    .expect("the inner member has a child");
                reparent(view, inner, below);
            }),
            ("view top member has a parent", |_, v, at, inner| {
                let view = view(v, at);
                reparent(view, view.top, inner);
            }),
            // One element id on members of two views: a layer-1 member below the top
            // takes another layer-1 view's member id.
            ("plan payload slot", |_, v, _, _| {
                let layer = &mut v[0];
                let views: Vec<(usize, usize)> = (0..layer.len())
                    .flat_map(|m| (0..layer[m].len()).map(move |v| (m, v)))
                    .collect();
                let (m, v) = *views
                    .iter()
                    .find(|&&(m, v)| layer[m][v].members.len() > 1)
                    .expect("a layer-1 view with two members");
                let (om, ov) = *views.iter().find(|&&o| o != (m, v)).expect("two views");
                let other = layer[om][ov].members[0].id();
                let first = &mut layer[m][v];
                let below_top = (first.top + 1) % first.members.len();
                let member = first.members[below_top];
                first.members[below_top] = remade(member, other, member.parent());
            }),
            // A cluster whose top member names no absorbed cluster: no summary slot.
            ("plan summary slot", |_, v, at, _| {
                let view = view(v, at);
                let top = view.members[view.top];
                view.members[view.top] = remade(top, top.id() ^ 1 << 40, None);
            }),
            ("plan machine index", |p, _, _, _| {
                p.top_machine = p.num_machines
            }),
            ("plan view in-edge", |_, v, at, _| {
                view(v, at).in_edge = None
            }),
            // A cluster member that claims to be a node.
            ("plan member kind", |_, v, _, _| {
                let views = v.iter_mut().flatten().flatten();
                let member = views
                    .flat_map(|view| view.members.iter_mut())
                    .find(|m| m.kind() != ElementKind::Node)
                    .expect("a cluster member");
                let (out_kind, parent) = (member.out_kind(), member.parent());
                *member = PlanMember::new(member.id(), ElementKind::Node, out_kind, parent, false);
            }),
        ];
        // The store and the tree carry the plan's bytes: the tree as its last field
        // (after a `Some` tag), the store as its first.
        let resealed = |kind: u32, payload: Vec<u8>| {
            let mut w = SnapshotWriter::new();
            w.put_bytes(&payload);
            seal(kind, w)
        };
        let tree_head = {
            let mut planless = prepared.clone();
            planless.plan = OnceCell::new();
            let bytes = planless.to_snapshot()[32..].to_vec();
            bytes[..bytes.len() - 1].to_vec()
        };
        let store_tail = store.to_snapshot()[32 + good.len()..].to_vec();
        for (check, corrupt) in corruptions {
            let (mut header, mut views) = (plan.clone(), linked_views(&plan));
            corrupt(&mut header, &mut views, at, inner);
            let refused = Err(SnapshotError::Malformed(check));
            let bad = plan_payload(&header, views);
            let decoded = SolvePlan::from_snapshot(&resealed(KIND_PLAN, bad.clone()));
            assert_eq!(decoded.map(|_| ()), refused, "plan");

            let tree = [&tree_head[..], &[1], &bad].concat();
            let decoded = PreparedTree::from_snapshot(&resealed(KIND_PREPARED_TREE, tree));
            assert_eq!(decoded.map(|_| ()), refused, "prepared tree");

            let bad_store = [&bad[..], &store_tail].concat();
            let decoded = SolverStore::<Count>::from_snapshot(&resealed(KIND_STORE, bad_store));
            assert_eq!(decoded.map(|_| ()), refused, "store");
        }

        // The store's own part: slot state that does not match the skeletons.
        let mut short = decode_resealed(KIND_STORE, &store).expect("valid store");
        slots_at(&mut short.state, at).payloads.pop();
        assert_eq!(
            decode_resealed(KIND_STORE, &short).map(|_| ()),
            Err(SnapshotError::Malformed(
                "slot state vectors differ in length from the member list"
            ))
        );
        let mut missing = decode_resealed(KIND_STORE, &store).expect("valid store");
        missing.state[at.layer as usize - 1][at.machine as usize].pop();
        assert!(matches!(
            decode_resealed(KIND_STORE, &missing).map(|_| ()),
            Err(SnapshotError::Malformed(_))
        ));
        // A tree whose cached plan belongs to another clustering.
        let mut foreign = prepared.clone();
        let mut other = plan.clone();
        other.root += 1;
        foreign.plan = OnceCell::from(other);
        assert!(matches!(
            decode_resealed(KIND_PREPARED_TREE, &foreign).map(|_| ()),
            Err(SnapshotError::Malformed(_))
        ));
    }

    /// Plan build reads an edge's kind off its child id, so a tree snapshot whose edge
    /// list states another kind for one edge — either way round — is refused rather
    /// than restored with a list the plan disagrees with.
    #[test]
    fn resealed_tree_with_one_edge_kind_flipped_is_refused() {
        let tree = shapes::star(64);
        let mut ctx = MpcContext::new(MpcConfig::new(2 * tree.len(), 0.5));
        let prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            Some(4),
        )
        .expect("well-formed tree");
        let decoded = decode_resealed(KIND_PREPARED_TREE, &prepared).map(|t| t.edges);
        assert_eq!(decoded.map(|e| e.to_vec()), Ok(prepared.edges.to_vec()));
        for flip_from in [EdgeKind::Auxiliary, EdgeKind::Original] {
            let (child, _) = prepared
                .edges
                .iter()
                .map(|(e, kind)| (e.child, *kind))
                .find(|(_, kind)| *kind == flip_from)
                .expect("the star is degree-reduced: it has edges of both kinds");
            let mut flipped = prepared.clone();
            flipped.edges = flipped.edges.clone().map_local(|&(e, kind)| match kind {
                _ if e.child != child => (e, kind),
                EdgeKind::Original => (e, EdgeKind::Auxiliary),
                EdgeKind::Auxiliary => (e, EdgeKind::Original),
            });
            assert_eq!(
                decode_resealed(KIND_PREPARED_TREE, &flipped).map(|_| ()),
                Err(SnapshotError::Malformed(
                    "edge kind other than its child id decides"
                ))
            );
        }
    }

    /// Every kind a payload was written under before its layout changed is refused by
    /// kind, before any byte is read as the new layout: tree 1 and 5, plan 2 and 6, and
    /// store 3 (the store of cloned views and a payload map), 4 (plans with routing
    /// indexes) and 7 (plans with every view spelled out).
    #[test]
    fn superseded_store_kind_is_rejected() {
        let (prepared, store) = solved();
        // The header's kind field; the checksum covers the payload only.
        let with_kind = |mut bytes: Vec<u8>, kind: u32| {
            bytes[12..16].copy_from_slice(&kind.to_le_bytes());
            bytes
        };
        let wrong = |found, expected| Err(SnapshotError::WrongKind { found, expected });
        for old in [3, 4, 7] {
            let bytes = with_kind(store.to_snapshot(), old);
            let decoded = SolverStore::<Count>::from_snapshot(&bytes).map(|_| ());
            assert_eq!(decoded, wrong(old, KIND_STORE));
        }
        for old in [2, 6] {
            let bytes = with_kind(store.plan().to_snapshot(), old);
            let decoded = SolvePlan::from_snapshot(&bytes).map(|_| ());
            assert_eq!(decoded, wrong(old, KIND_PLAN));
        }
        for old in [1, 5] {
            let bytes = with_kind(prepared.to_snapshot(), old);
            let decoded = PreparedTree::from_snapshot(&bytes).map(|_| ());
            assert_eq!(decoded, wrong(old, KIND_PREPARED_TREE));
        }
    }

    /// The audit is silent on a fresh store and names what drifted when one routing
    /// entry or one state vector is moved behind its back.
    #[test]
    fn audit_names_the_drifted_index() {
        let (prepared, store) = solved();
        assert_eq!(store.audit(prepared.edges.iter()), Ok(()));
        let reread = || decode_resealed(KIND_STORE, &store).expect("valid store");

        let mut drifted = reread();
        let routing = &mut drifted.plan.routing;
        let (first, _) = routing.payloads.iter().next().expect("non-empty");
        routing.payloads.get_mut(first).expect("live").member += 1;
        let err = drifted.audit(prepared.edges.iter()).expect_err("planted");
        assert!(err.contains("payload_slot"), "{err}");

        let mut drifted = reread();
        let routing = &mut drifted.plan.routing;
        let (first, _) = routing.readers.iter().next().expect("non-empty");
        let reader = &mut routing.readers.get_mut(first)[0];
        reader.as_out = !reader.as_out;
        let err = drifted.audit(prepared.edges.iter()).expect_err("planted");
        assert!(err.contains("label_readers"), "{err}");

        let mut drifted = reread();
        let at = rich_view(&drifted.plan);
        slots_at(&mut drifted.state, at).out_inputs.push(None);
        let err = drifted.audit(prepared.edges.iter()).expect_err("planted");
        assert!(err.contains("slot state vectors"), "{err}");

        // A tree that moved on without the store: its edge list no longer has the
        // edges the store's plan routes inputs to.
        let mut fewer = prepared.clone();
        fewer.edges = fewer.edges.clone().filter_local(|(e, _)| e.child % 5 != 0);
        let err = store.audit(fewer.edges.iter()).expect_err("planted");
        assert!(err.contains("out_edge_slots"), "{err}");

        // The same edges, one of them under the other kind: the member leaving by it
        // would merge into its parent the wrong way.
        let mut flipped = prepared.clone();
        let child = prepared.edges.iter().next().expect("an edge").0.child;
        flipped.edges = flipped.edges.clone().map_local(|&(e, kind)| match kind {
            _ if e.child != child => (e, kind),
            EdgeKind::Original => (e, EdgeKind::Auxiliary),
            EdgeKind::Auxiliary => (e, EdgeKind::Original),
        });
        let err = store.audit(flipped.edges.iter()).expect_err("planted");
        assert!(
            err.contains(&format!("edge {child} under another kind")),
            "{err}"
        );
    }
}
