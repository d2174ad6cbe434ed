//! The solver store: what one evaluation pass builds, kept instead of dropped so that
//! later solves on the same clustering can reuse it.
//!
//! The paper's structural message (Section 1.4, Figs. 2–3) is that a cluster's local
//! view is assembled on one machine once and every pass reuses it. [`SolverStore`]
//! pushes that reuse one step further. It holds
//!
//! * a [`SolvePlan`] — the tree's one maintained plan: structural repairs splice it
//!   here and nowhere else, while a plan a [`PreparedTree`] caches is dropped by a
//!   repair and rebuilt on demand (the serving layer holds each tenant's one plan here
//!   and none on the tree),
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

use crate::pipeline::PreparedTree;
use crate::plan::{DpSolution, PlanState, SolvePlan, ViewSlot};
use crate::problem::{ClusterDp, ClusterView, Payload};
use mpc_engine::{MpcContext, Words};
use std::collections::{BTreeMap, BTreeSet};
use tree_clustering::{ClusteringRepair, ElementId};
use tree_repr::NodeId;

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

    /// Check the store against from-scratch derivations from `tree`, the tree it
    /// serves: the plan's routing runs against a re-derivation over its skeleton
    /// views, the edges the plan takes inputs for against the tree's degree-reduced
    /// edge list, the whole plan — skeletons, routing, top machine and auxiliary
    /// nodes — against [`SolvePlan::link`] of the tree's clustering under the plan's
    /// own view counts, bit for bit, and the slot columns against the skeletons'
    /// shape. `Err` names the first run, plan or view that drifted. Zero rounds,
    /// `O(n log n)` host work — the alarm for long sequences of in-place splices.
    pub fn audit(&self, tree: &PreparedTree) -> Result<(), String> {
        let edge_children: BTreeSet<NodeId> = tree.edges.iter().map(|e| e.child).collect();
        self.plan.audit_routing(&edge_children)?;
        let counts = self.plan.view_counts();
        let linked = SolvePlan::link(&tree.clustering, &tree.aux_to_original, &counts)?;
        if linked != self.plan {
            return Err("plan differs from the link of the tree's clustering".into());
        }
        self.state_mismatch()
            .map_or(Ok(()), |what| Err(what.into()))
    }

    /// What keeps the slot columns from matching the plan's skeletons, if anything.
    fn state_mismatch(&self) -> Option<&'static str> {
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
    use crate::pipeline::prepare;
    use crate::snapshot::{
        seal, Snapshot, SnapshotError, SnapshotWriter, KIND_PREPARED_TREE, KIND_STORE,
    };
    use mpc_engine::{unmetered, MpcConfig};
    use std::cell::OnceCell;
    use tree_clustering::{cluster_layer, make_cluster_id, Element, ElementKind};
    use tree_gen::shapes;
    use tree_repr::{DirectedEdge, ListOfEdges, TreeInput};

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

    fn decode_resealed(tree: &PreparedTree) -> Result<PreparedTree, SnapshotError> {
        PreparedTree::from_snapshot(&tree.to_snapshot())
    }

    /// `tree` with `edit` applied to its element table in place.
    fn with_elements(tree: &PreparedTree, edit: impl FnOnce(&mut [Element])) -> PreparedTree {
        let mut tree = tree.clone();
        let chunks = unmetered::chunks_mut(&mut tree.clustering.elements);
        let mut elements: Vec<Element> = chunks.iter().flatten().copied().collect();
        edit(&mut elements);
        let mut rest = elements.into_iter();
        for chunk in chunks.iter_mut() {
            chunk
                .iter_mut()
                .for_each(|e| *e = rest.next().expect("same length"));
        }
        tree
    }

    /// The element with id `id`.
    fn element(elements: &mut [Element], id: ElementId) -> &mut Element {
        elements.iter_mut().find(|e| e.id == id).expect("element")
    }

    /// The indegree-1 clusters whose view is entered through an attach member that is
    /// a node (the lowest view of their in-edge), at their view's layer.
    fn lowest_entered(plan: &SolvePlan) -> Vec<(u32, ElementId, DirectedEdge)> {
        let views = plan.views().filter_map(|(at, view)| {
            let attach = view.member(view.attach()?);
            (attach.kind() == ElementKind::Node)
                .then(|| (at.layer(), view.cluster(), view.in_edge().expect("entered")))
        });
        views.collect()
    }

    /// A checksum-valid snapshot with one field of the clustering out of place must
    /// come back as a typed error, naming the check it fails, from every decoder that
    /// links a plan — a tree with its cached plan, a plan-less tree and a store decoded
    /// against the tree — not as a value that panics on the next build, solve or
    /// update. No snapshot carries a skeleton, so the corruptions are made on the
    /// element table, where every skeleton comes from, and on the view counts.
    #[test]
    fn resealed_payloads_with_one_index_out_of_place_decode_to_malformed() {
        let (prepared, store) = solved();
        let plan = store.plan();
        let restored = decode_resealed(&prepared).expect("a tree decodes");
        assert_eq!(restored.plan.get(), Some(plan));
        let bytes = store.to_snapshot();
        let back = SolverStore::<Count>::from_snapshot(&bytes, &restored).expect("decodes");
        assert_eq!(back.plan(), plan);
        assert_eq!(back.to_snapshot(), bytes);

        // A node below a node, with a node below it in turn: pointing its outgoing
        // edge at that child closes a cycle of two members.
        let (inner, child) = (plan.views())
            .find_map(|(_, view)| {
                let node = |i: usize| view.member(i).kind() == ElementKind::Node;
                (0..view.members().len()).find_map(|i| {
                    let mut below = view.children(i).iter().map(|&c| c as usize);
                    let child = below.find(|&c| node(c))?;
                    let under_node = view.member(i).parent().is_some_and(node);
                    (node(i) && under_node).then(|| (view.member(i).id(), view.member(child).id()))
                })
            })
            .expect("a caterpillar's spine runs through node members");
        let entered = lowest_entered(plan);
        let (layer, a, edge) = entered[0];
        let (_, b, _) = *(entered.iter())
            .find(|&&(l, c, e)| l == layer && c != a && e.child != edge.child)
            .expect("two indegree-1 clusters of one layer");
        // An indegree-1 cluster that is the attach member of a view its edge enters,
        // and the edge of a lowest entered view that leaves no member of that view.
        let in_edges: BTreeMap<ElementId, Option<DirectedEdge>> =
            (prepared.clustering.elements.iter())
                .map(|e| (e.id, e.in_edge))
                .collect();
        let (chained, foreign) = (plan.views())
            .find_map(|(_, view)| {
                let attach = view.member(view.attach()?).id();
                (in_edges.get(&attach) == Some(&view.in_edge())).then_some(())?;
                let own = view.in_edge()?.child;
                let leaves: Vec<NodeId> = view.members().iter().map(|m| m.out_child()).collect();
                let (_, _, foreign) = (entered.iter())
                    .find(|(_, _, e)| e.child != own && !leaves.contains(&e.child))?;
                Some((attach, *foreign))
            })
            .expect("a view entered through an indegree-1 attach member");
        let other = *plan.routing.payload(inner).expect("routed");
        let other = plan.view_at(other.view_slot()).member(0).id();

        type Corruption = (&'static str, Box<dyn Fn(&mut [Element])>);
        let corruptions: Vec<Corruption> = vec![
            (
                "view member tree",
                Box::new(move |es| element(es, inner).out_edge.parent = child),
            ),
            // One element id on two elements.
            (
                "clustering element ids",
                Box::new(move |es| element(es, inner).id = other),
            ),
            // Absorbed into a cluster the table does not hold.
            (
                "clustering absorbing cluster",
                Box::new(move |es| {
                    let e = element(es, inner);
                    e.absorbed_into = make_cluster_id(e.absorbed_at, 1 << 40);
                }),
            ),
            // Two clusters absorbed into each other, each at the other's layer.
            (
                "clustering absorption layer",
                Box::new(move |es| {
                    for (from, into) in [(a, b), (b, a)] {
                        let e = element(es, from);
                        (e.absorbed_into, e.absorbed_at) = (into, cluster_layer(into));
                    }
                }),
            ),
            // An indegree-1 cluster without its incoming edge.
            (
                "clustering element kind",
                Box::new(move |es| element(es, a).in_edge = None),
            ),
            // A cluster that claims to be a node.
            (
                "clustering element kind",
                Box::new(move |es| element(es, a).kind = ElementKind::Node),
            ),
            // A cluster entered through its own attach member by that member's edge,
            // re-entered by the edge of another edge's lowest view: two views of one
            // edge enter neither through the other.
            (
                "clustering in-edge",
                Box::new(move |es| element(es, chained).in_edge = Some(foreign)),
            ),
            // A second top cluster.
            (
                "clustering top cluster",
                Box::new(move |es| {
                    let e = element(es, a);
                    (e.kind, e.in_edge) = (ElementKind::TopCluster, None);
                }),
            ),
        ];
        for (check, corrupt) in corruptions {
            let bad = with_elements(&prepared, corrupt);
            let refused = Err(SnapshotError::Malformed(check));
            assert_eq!(decode_resealed(&bad).map(|_| ()), refused, "tree");
            let mut planless = bad.clone();
            planless.plan = OnceCell::new();
            assert_eq!(
                decode_resealed(&planless).map(|_| ()),
                refused,
                "plan-less tree"
            );
            let decoded = SolverStore::<Count>::from_snapshot(&bytes, &bad);
            assert_eq!(decoded.map(|_| ()), refused, "store");
        }

        // A clustering of another root.
        let mut foreign = prepared.clone();
        foreign.clustering.root += 1;
        let refused = Err(SnapshotError::Malformed("clustering top cluster"));
        assert_eq!(decode_resealed(&foreign).map(|_| ()), refused);

        // View counts that do not sum to a layer's clusters, or of another layout: the
        // tree's counts are its last field, the store's its first.
        let tree_head = {
            let mut planless = prepared.clone();
            planless.plan = OnceCell::new();
            let bytes = planless.to_snapshot()[32..].to_vec();
            bytes[..bytes.len() - 1].to_vec()
        };
        let counts = plan.view_counts();
        let mut more = counts.clone();
        more[0] += 1;
        let fewer = counts[1..].to_vec();
        let counts_len = 8 * (1 + counts.len());
        let refused = Err(SnapshotError::Malformed("plan view counts"));
        for bad in [more, fewer] {
            let mut w = SnapshotWriter::new();
            w.put_bytes(&tree_head);
            Some(bad.clone()).encode(&mut w);
            let decoded = PreparedTree::from_snapshot(&seal(KIND_PREPARED_TREE, w));
            assert_eq!(decoded.map(|_| ()), refused, "tree");
            let mut w = SnapshotWriter::new();
            bad.encode(&mut w);
            w.put_bytes(&bytes[32 + counts_len..]);
            let decoded = SolverStore::<Count>::from_snapshot(&seal(KIND_STORE, w), &prepared);
            assert_eq!(decoded.map(|_| ()), refused, "store");
        }
    }

    /// Every kind a payload was written under before its layout changed is refused by
    /// kind, before any byte is read as the new layout: tree 1, 5, 8 and 9 (trees with
    /// skeletons), and store 3 (the store of cloned views and a payload map), 4 (plans
    /// with routing indexes), 7 (plans with every view spelled out), 10 (plans and edge
    /// lists with edge kinds) and 11 (plans as skeletons, payloads with their tag).
    #[test]
    fn superseded_store_kind_is_rejected() {
        let (prepared, store) = solved();
        // The header's kind field; the checksum covers the payload only.
        let with_kind = |mut bytes: Vec<u8>, kind: u32| {
            bytes[12..16].copy_from_slice(&kind.to_le_bytes());
            bytes
        };
        let wrong = |found, expected| Err(SnapshotError::WrongKind { found, expected });
        for old in [3, 4, 7, 10, 11] {
            let bytes = with_kind(store.to_snapshot(), old);
            let decoded = SolverStore::<Count>::from_snapshot(&bytes, &prepared).map(|_| ());
            assert_eq!(decoded, wrong(old, KIND_STORE));
        }
        for old in [1, 5, 8, 9] {
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
        assert_eq!(store.audit(&prepared), Ok(()));
        let bytes = store.to_snapshot();
        let reread = || SolverStore::<Count>::from_snapshot(&bytes, &prepared).expect("valid");

        let mut drifted = reread();
        let routing = &mut drifted.plan.routing;
        let (first, _) = routing.payloads.iter().next().expect("non-empty");
        routing.payloads.get_mut(first).expect("live").member += 1;
        let err = drifted.audit(&prepared).expect_err("planted");
        assert!(err.contains("payload_slot"), "{err}");

        let mut drifted = reread();
        let routing = &mut drifted.plan.routing;
        let (first, _) = routing.in_readers.iter().next().expect("non-empty");
        routing.in_readers.get_mut(first).expect("live").view += 1;
        let err = drifted.audit(&prepared).expect_err("planted");
        assert!(err.contains("in_readers"), "{err}");

        // A skeleton that is no longer its cluster's link: a cluster member that
        // claims to be a node behind the clustering's back.
        let mut drifted = reread();
        let (at, member) = (drifted.plan.views())
            .find_map(|(at, view)| {
                let members = view.members().iter();
                let cluster = members
                    .enumerate()
                    .find(|(_, m)| m.kind() != ElementKind::Node);
                cluster.map(|(i, _)| (at, i))
            })
            .expect("a cluster member");
        let held = &mut drifted.plan.skeletons[at.machine as usize];
        held.set_member_kind(at.layer, at.view as usize, member, ElementKind::Node);
        let err = drifted.audit(&prepared).expect_err("planted");
        assert!(err.contains("link of the tree's clustering"), "{err}");

        let mut drifted = reread();
        let at = (drifted.plan.views()).next().expect("a view").0;
        drifted.state[drifted.plan.bucket_of(at)]
            .out_inputs
            .values
            .push(());
        let err = drifted.audit(&prepared).expect_err("planted");
        assert!(err.contains("slot state vectors"), "{err}");

        // A tree that moved on without the store: its edge list no longer has the
        // edges the store's plan routes inputs to.
        let mut fewer = prepared.clone();
        fewer.edges = fewer.edges.clone().filter_local(|e| e.child % 5 != 0);
        let err = store.audit(&fewer).expect_err("planted");
        assert!(err.contains("other nodes than the edge list"), "{err}");
    }
}
