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
//! * the slot columns of every `(layer, machine)` bucket of views, aligned slot for
//!   slot with that plan's skeletons (per member a payload and an out-edge input, per
//!   view an in-edge input, presence as bits): the payloads and edge inputs
//!   [`SolvePlan::solve`] routes into place and then drops, and
//! * the per-edge labels and the root label/summary of the last solve.
//!
//! A view is never copied out of these ([`view`](SolverStore::view) borrows a skeleton
//! and its column slices). `tree-dp-incremental` writes changed inputs into their
//! slots through the plan's routing and re-processes only the dirty views; a
//! structural repair is spliced into the store's plan with the columns carried along
//! by the same compactions ([`apply_repair`](SolverStore::apply_repair)).

use crate::plan::{DpSolution, PlanState, SolvePlan, ViewSlot};
use crate::problem::{ClusterDp, ClusterView, Payload};
use mpc_engine::{MpcContext, Words};
use std::collections::{BTreeMap, BTreeSet};
use tree_clustering::{ClusteringRepair, ElementId};
use tree_repr::{DirectedEdge, NodeId};

/// A plan, the slot columns of one problem over it, and that problem's labels (see the
/// module docs). Produced by [`SolvePlan::solve_with_store`] or decoded from a
/// snapshot; the columns always match the plan's skeletons member for member.
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
    /// The plan the slot columns are aligned with.
    pub fn plan(&self) -> &SolvePlan {
        &self.plan
    }

    /// Number of layers of the underlying clustering.
    pub fn num_layers(&self) -> u32 {
        self.plan.num_layers
    }

    /// The view at `at`: its skeleton paired with its slots.
    pub fn view(&self, at: ViewSlot) -> ClusterView<'_, P> {
        self.state[self.plan.bucket_of(at)].view(self.plan.view_at(at))
    }

    /// Every view, layer by layer.
    pub fn views(&self) -> impl Iterator<Item = ClusterView<'_, P>> {
        let plan = &self.plan;
        (plan.views()).map(|(at, skeleton)| self.state[plan.bucket_of(at)].view(skeleton))
    }

    // ----- slot writes (the incremental path) ---------------------------------------

    /// Write `input` into the payload slot of `node`; the view holding the slot, or
    /// `None` when the plan routes no such element.
    pub fn set_node_input(&mut self, node: NodeId, input: P::NodeInput) -> Option<ViewSlot> {
        let slot = *self.plan.routing.payload(node)?;
        let (bucket, at) = self.plan.column_of(slot);
        self.state[bucket].payloads[at] = Some(Payload::Input(input));
        Some(slot.view_slot())
    }

    /// Write `input` into every slot carrying the input of the edge whose child
    /// endpoint is `child` (the member slot of the element leaving by it, the in-edge
    /// slot of the view it enters); the views written to.
    pub fn set_edge_input(&mut self, child: NodeId, input: &P::EdgeInput) -> Vec<ViewSlot> {
        let plan = &self.plan;
        let mut touched = Vec::new();
        for slot in plan.out_slots(child) {
            let (bucket, at) = plan.column_of(slot);
            self.state[bucket].out_inputs.set(at, Some(input.clone()));
            touched.push(slot.view_slot());
        }
        for at in plan.in_readers(child) {
            let column = &mut self.state[plan.bucket_of(at)].in_inputs;
            column.set(at.view as usize, Some(input.clone()));
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
        let (bucket, at) = self.plan.column_of(*self.plan.routing.payload(cluster)?);
        match &self.state[bucket].payloads[at] {
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
        let (bucket, at) = self.plan.column_of(slot);
        self.state[bucket].payloads[at] = Some(Payload::Summary(summary));
        Some(slot.view_slot())
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
        let plan = &self.plan;
        (plan.out_readers(child, plan.top_cluster)).chain(plan.in_readers(child))
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
    /// patched in place — the only splice of a plan there is — the slot columns
    /// moved along by the same compactions, the labels of removed edges dropped.
    /// `leaf_inputs` holds the node and edge input of every leaf the repair adds. Zero
    /// rounds (the caller meters the spliced words).
    pub fn apply_repair(
        &mut self,
        repair: &ClusteringRepair,
        leaf_inputs: &BTreeMap<NodeId, (P::NodeInput, P::EdgeInput)>,
    ) {
        self.plan.splice(repair, &mut self.state);
        // What the repair clears or writes, at the addresses the spliced routing gives:
        // a demoted view reads no in-edge input, a new leaf's empty slot takes its inputs.
        for cluster in &repair.demoted {
            if let Some(at) = self.plan.view_slot_of(*cluster) {
                let bucket = self.plan.bucket_of(at);
                self.state[bucket].in_inputs.set(at.view as usize, None);
            }
        }
        for leaf in repair.patches.values().flat_map(|p| &p.added) {
            let (node_input, edge_input) = leaf_inputs
                .get(&leaf.id)
                .expect("every added leaf came from a link op")
                .clone();
            let slot = *(self.plan.routing.payload(leaf.id)).expect("the splice filed every leaf");
            let (bucket, at) = self.plan.column_of(slot);
            self.state[bucket].payloads[at] = Some(Payload::Input(node_input));
            self.state[bucket].out_inputs.set(at, Some(edge_input));
        }
        for child in &repair.removed_nodes {
            self.labels.remove(child);
        }
    }

    /// Check the store against from-scratch derivations: the plan's routing runs
    /// against a re-derivation over its skeleton views, the edges the plan takes
    /// inputs for against `edges` (the degree-reduced edge list the plan was built
    /// over), and the slot columns against the skeletons' shape. `Err` names the first
    /// run or view that drifted. Zero rounds, `O(n log n)` host work — the alarm for long
    /// sequences of in-place splices.
    pub fn audit<'a>(
        &self,
        edges: impl IntoIterator<Item = &'a DirectedEdge>,
    ) -> Result<(), String> {
        let edge_children: BTreeSet<NodeId> = edges.into_iter().map(|e| e.child).collect();
        self.plan.audit_routing(&edge_children)?;
        self.state_mismatch()
            .map_or(Ok(()), |what| Err(what.into()))
    }

    /// What keeps the slot columns from matching the plan's skeletons, if anything.
    pub(crate) fn state_mismatch(&self) -> Option<&'static str> {
        let plan = &self.plan;
        if self.state.len() != plan.num_layers as usize * plan.num_machines {
            return Some("slot state layout differs from the plan's layer/machine/view layout");
        }
        for (bucket, columns) in self.state.iter().enumerate() {
            let layer = (bucket / plan.num_machines) as u32 + 1;
            let held = &plan.skeletons[bucket % plan.num_machines];
            if columns.in_inputs.values.len() != held.len_at(layer) {
                return Some("slot state layout differs from the plan's layer/machine/view layout");
            }
            let members = held.members_at(layer);
            if columns.payloads.len() != members || columns.out_inputs.values.len() != members {
                return Some("slot state vectors differ in length from the member list");
            }
            if columns.payloads.iter().any(Option::is_none) {
                return Some("slot state has a member without a payload");
            }
        }
        None
    }

    /// The words the views hold, summed over machines: every skeleton in its compact
    /// layout and every bucket's slot columns — what the evaluation pass bills as
    /// resident (`plan/views`) once its bottom-up pass has filled every slot.
    pub fn view_words(&self) -> usize {
        let plan = &self.plan;
        let buckets = (self.state.iter().enumerate()).map(|(bucket, columns)| {
            let layer = (bucket / plan.num_machines) as u32 + 1;
            plan.bucket_words(layer, bucket % plan.num_machines, columns)
        });
        buckets.sum()
    }

    /// Approximate resident size of the store in machine words: the plan, the slot
    /// columns at their [`Words`] width, and the labels, each at its [`Words`] width
    /// plus one key word. Used by the serving layer's per-tenant accounting.
    pub fn resident_words(&self) -> usize {
        let state: usize = self.state.iter().map(Words::words).sum();
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
        let (at, _) = (plan.views())
            .find(|(_, view)| {
                view.attach().is_some()
                    && (0..view.members().len())
                        .any(|i| view.member(i).parent().is_some() && !view.children(i).is_empty())
            })
            .expect("a caterpillar has an indegree-1 cluster with an inner member");
        at
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
        PlanMember::new(id, member.kind(), parent, member.enters_parent())
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
        let corruptions: [Corruption; 11] = [
            ("view top/attach index", |_, v, at, _| {
                view(v, at).top = usize::MAX
            }),
            ("view top/attach index", |_, v, at, _| {
                let view = view(v, at);
                let len = view.members.len();
                let (_, attach) = view.in_edge.as_mut().expect("rich view");
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
            // A view entered by the edge of the first entered view, from below a
            // member that edge does not enter: no climb from that view reaches it.
            ("plan in-edge reader", |_, v, _, _| {
                let views = v.iter_mut().flatten().flatten();
                let mut in_edges = views.filter_map(|view| view.in_edge.as_mut());
                let first = in_edges.next().expect("an entered view").0.child;
                let (other, _) = (in_edges.find(|(e, _)| e.child != first))
                    .expect("a view entered by another edge");
                other.child = first;
            }),
            // A cluster member that claims to be a node.
            ("plan member kind", |_, v, _, _| {
                let views = v.iter_mut().flatten().flatten();
                let member = views
                    .flat_map(|view| view.members.iter_mut())
                    .find(|m| m.kind() != ElementKind::Node)
                    .expect("a cluster member");
                *member = PlanMember::new(member.id(), ElementKind::Node, member.parent(), false);
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

        // The store's own part: slot state that does not match the skeletons. After
        // the plan come the layer count, the machine count of layer 1, the view count
        // of machine 0 there and the payload count of its first view.
        assert!(
            plan.views_at(1, 0).next().is_some(),
            "machine 0 holds a layer-1 view"
        );
        let recounted = |field: usize, count: fn(u64) -> u64| {
            let mut bytes = store.to_snapshot()[32..].to_vec();
            let at = good.len() + 8 * field;
            let old = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
            bytes[at..at + 8].copy_from_slice(&count(old).to_le_bytes());
            SolverStore::<Count>::from_snapshot(&resealed(KIND_STORE, bytes)).map(|_| ())
        };
        assert_eq!(
            recounted(3, |members| members - 1),
            Err(SnapshotError::Malformed(
                "slot state vectors differ in length from the member list"
            ))
        );
        assert!(matches!(
            recounted(2, |views| views + 1),
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

    /// Every kind a payload was written under before its layout changed is refused by
    /// kind, before any byte is read as the new layout: tree 1, 5 and 8, plan 2, 6 and
    /// 9, and store 3 (the store of cloned views and a payload map), 4 (plans with
    /// routing indexes), 7 (plans with every view spelled out) and 10 (plans and edge
    /// lists with edge kinds).
    #[test]
    fn superseded_store_kind_is_rejected() {
        let (prepared, store) = solved();
        // The header's kind field; the checksum covers the payload only.
        let with_kind = |mut bytes: Vec<u8>, kind: u32| {
            bytes[12..16].copy_from_slice(&kind.to_le_bytes());
            bytes
        };
        let wrong = |found, expected| Err(SnapshotError::WrongKind { found, expected });
        for old in [3, 4, 7, 10] {
            let bytes = with_kind(store.to_snapshot(), old);
            let decoded = SolverStore::<Count>::from_snapshot(&bytes).map(|_| ());
            assert_eq!(decoded, wrong(old, KIND_STORE));
        }
        for old in [2, 6, 9] {
            let bytes = with_kind(store.plan().to_snapshot(), old);
            let decoded = SolvePlan::from_snapshot(&bytes).map(|_| ());
            assert_eq!(decoded, wrong(old, KIND_PLAN));
        }
        for old in [1, 5, 8] {
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
        let (first, _) = routing.in_readers.iter().next().expect("non-empty");
        routing.in_readers.get_mut(first).expect("live").view += 1;
        let err = drifted.audit(prepared.edges.iter()).expect_err("planted");
        assert!(err.contains("in_readers"), "{err}");

        let mut drifted = reread();
        let at = rich_view(&drifted.plan);
        drifted.state[drifted.plan.bucket_of(at)]
            .out_inputs
            .values
            .push(());
        let err = drifted.audit(prepared.edges.iter()).expect_err("planted");
        assert!(err.contains("slot state vectors"), "{err}");

        // A tree that moved on without the store: its edge list no longer has the
        // edges the store's plan routes inputs to.
        let mut fewer = prepared.clone();
        fewer.edges = fewer.edges.clone().filter_local(|e| e.child % 5 != 0);
        let err = store.audit(fewer.edges.iter()).expect_err("planted");
        assert!(err.contains("other nodes than the edge list"), "{err}");
    }
}
