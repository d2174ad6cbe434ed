//! The solve engine: assemble the per-layer cluster views **once**, then solve any
//! number of DP problems over them.
//!
//! The paper's three-step approach (Section 1.4) prepares one hierarchical clustering
//! and then solves "the problem of interest in `O(1)` rounds" (Sections 5.1–5.2) —
//! repeatable for any number of problems on the same clustering. Almost all of the
//! communication of such a solve is problem-independent: which elements group into
//! which cluster, the member-tree links, the boundary edges, and the edge kinds depend
//! only on the clustering — never on the problem's inputs, summaries, or labels.
//!
//! A [`SolvePlan`] factors that out. Building the plan brings the members of every
//! cluster of every layer onto one machine in **one** group gathering — two table
//! sorts, three key-only probes and the gather, a number of rounds that does not
//! depend on the layer count (charged under `plan-build`) — and retains
//!
//! * per layer and per machine, the **skeleton view** of every cluster formed there
//!   ([`PlanView`]: members in their assembled order, parent/children links, top and
//!   attach indexes, boundary edges, edge kinds), and
//! * **routing indexes** mapping every element to its member slot, every edge to the
//!   slots reading its input, and every label key to the views reading it — a pure
//!   function of the skeletons, derived by one function at plan build and at
//!   decode, so a snapshot carries only the skeletons. They are flat key-sorted runs
//!   probed through the engine's segmented bucket [`Directory`](mpc_engine::Directory),
//!   not trees.
//!
//! [`SolvePlan::solve`] then runs any [`ClusterDp`] over the cached skeletons,
//! charging only the exchanges that genuinely depend on the problem: one scatter of
//! the node/edge inputs into their slots, one summary-forwarding round per layer going
//! up (bottom-up summarization, Section 5.1), and one label-forwarding round per layer
//! coming down (top-down labeling, Section 5.2). Solving `K` problems costs one
//! assembly plus `K` cheap evaluation passes.
//!
//! The skeletons are the one representation of a cluster's local view. An evaluation
//! pass fills a [`SlotState`] beside every skeleton and hands problems a
//! [`ClusterView`] that borrows the pair — no view is ever copied out. A
//! [`SolverStore`] is that slot state kept, together with the plan it is aligned
//! with: the one plan of a tree that is maintained. A structural repair is spliced
//! into that plan and nowhere else ([`SolverStore::apply_repair`]); a prepared tree
//! that cached a plan drops it and rebuilds on its next solve. [`SolvePlan::validate`]
//! is the one place a plan read from bytes is checked.

use crate::problem::{ClusterDp, ClusterView, Payload, SlotState};
use crate::routing::Routing;
use crate::store::SolverStore;
use mpc_engine::{unmetered, DistVec, MpcContext, Words};
use std::collections::{BTreeMap, BTreeSet};
use tree_clustering::{Clustering, EdgeKind, Element, ElementId, ElementKind, AUX_BASE};
use tree_repr::{DirectedEdge, NodeId};

/// The solution of a DP problem.
#[derive(Debug, Clone)]
pub struct DpSolution<P: ClusterDp> {
    /// One label per edge, keyed by the edge's child endpoint. The virtual root edge is
    /// included under the root's node id (it carries the root's own state).
    pub labels: DistVec<(NodeId, P::Label)>,
    /// The label of the virtual root edge.
    pub root_label: P::Label,
    /// The summary of the top cluster (e.g. the optimum value / total count).
    pub root_summary: P::Summary,
}

/// The problem-independent skeleton of one cluster view: everything a
/// [`ClusterView`] shows a problem except the payloads and edge inputs, which lie in
/// the [`SlotState`] aligned with it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanView {
    /// The cluster's id.
    pub cluster: ElementId,
    /// The cluster's kind.
    pub kind: ElementKind,
    /// Member skeletons, in the order the group gathering delivered them.
    pub members: Vec<PlanMember>,
    /// Index of the top member.
    pub top: usize,
    /// The cluster's outgoing original edge.
    pub out_edge: DirectedEdge,
    /// The cluster's incoming original edge (indegree-1 clusters).
    pub in_edge: Option<DirectedEdge>,
    /// Index of the member the incoming edge attaches to.
    pub attach: Option<usize>,
    /// Kind of the incoming edge.
    pub in_kind: EdgeKind,
}

/// One member of a cluster: the clustering element, the kind of its outgoing original
/// edge, and its position in the member tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanMember {
    /// The clustering element.
    pub element: Element,
    /// Kind of the member's outgoing original edge.
    pub out_kind: EdgeKind,
    /// Index of the parent member.
    pub parent: Option<usize>,
    /// Indices of the child members.
    pub children: Vec<usize>,
}

impl Words for PlanMember {
    fn words(&self) -> usize {
        // element (10) + out_kind + parent + children vec header/entries.
        10 + 1 + 1 + 1 + self.children.len()
    }
}

impl Words for PlanView {
    fn words(&self) -> usize {
        let members: usize = self.members.iter().map(Words::words).sum();
        // The header — cluster, kind, top, out_edge (2), in_edge (1+2), attach,
        // in_kind — at its established 10-word width, which the memory checks of plan
        // build and evaluation and a tenant's resident size are pinned to, plus the
        // member list.
        10 + members
    }
}

/// Where an element's payload (input or summary) or an edge's input lives: a member
/// slot inside a skeleton view, as the routing indexes file it.
///
/// Ordered `(layer, machine, view, member)`, the order the views lie in: every
/// per-key slot list of the routing indexes is kept in it, so a plan that was spliced
/// in place is equal to one re-indexed from scratch ([`Routing::of`]). Layers count
/// from 1; a slot at layer 0 is the tombstone of a removed key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct MemberSlot {
    pub(crate) layer: u32,
    pub(crate) machine: u32,
    pub(crate) view: u32,
    pub(crate) member: u32,
}

/// One skeleton view, addressed by layer/machine/index (and ordered that way). The
/// address of a view in its plan and of its [`SlotState`] in a [`SolverStore`]; a
/// structural splice may move the views behind a deleted one, so an address is good
/// until the next [`SolverStore::apply_repair`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ViewSlot {
    pub(crate) layer: u32,
    pub(crate) machine: u32,
    pub(crate) view: u32,
}

/// What a [`SolvePlan`] routes where, by id instead of by slot: for every index entry
/// the cluster (and member element) it addresses, and for every view its header, its
/// top and attach elements and its member tree as parent ids. Independent of machine
/// placement and member order; see [`SolvePlan::routing_by_id`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRouting {
    payload: BTreeMap<ElementId, (ElementId, ElementId)>,
    out_edge: BTreeMap<NodeId, BTreeSet<(ElementId, ElementId)>>,
    /// Reading cluster and whether it reads the label as its out-label.
    label_readers: BTreeMap<NodeId, BTreeSet<(ElementId, bool)>>,
    views: BTreeMap<ElementId, ViewById>,
    aux_nodes: BTreeSet<NodeId>,
}

/// One view of a [`PlanRouting`]: the member-less header, the ids of the top and
/// attach members, and every member with its edge kind and its parent's id.
type ViewById = (
    PlanView,
    (ElementId, Option<ElementId>),
    BTreeMap<ElementId, (Element, EdgeKind, Option<ElementId>)>,
);

impl MemberSlot {
    /// The view holding this member.
    pub(crate) fn view_slot(self) -> ViewSlot {
        ViewSlot {
            layer: self.layer,
            machine: self.machine,
            view: self.view,
        }
    }
}

impl ViewSlot {
    /// The layer the view is processed at (1-based).
    pub fn layer(self) -> u32 {
        self.layer
    }

    /// The slot of member `member` of this view.
    pub(crate) fn member_slot(self, member: usize) -> MemberSlot {
        MemberSlot {
            layer: self.layer,
            machine: self.machine,
            view: self.view,
            member: member as u32,
        }
    }
}

/// The problem-independent solve plan of one prepared tree (see the module docs).
///
/// Build it once per [`PreparedTree`](crate::PreparedTree) via
/// [`PreparedTree::plan`](crate::PreparedTree::plan), then run
/// [`solve`](Self::solve) (or [`solve_many`](Self::solve_many)) for every problem.
#[derive(Debug, Clone, PartialEq)]
pub struct SolvePlan {
    pub(crate) num_layers: u32,
    pub(crate) num_machines: usize,
    pub(crate) root: NodeId,
    pub(crate) top_cluster: ElementId,
    /// Machine holding the top cluster's view (where the root label is produced).
    pub(crate) top_machine: usize,
    /// Auxiliary nodes introduced by degree reduction, with the machine holding their
    /// `aux_to_original` record (the source of their `aux_input` payload).
    pub(crate) aux_nodes: Vec<(NodeId, usize)>,
    /// `layers[layer - 1][machine]` — the skeleton views grouped onto `machine` at
    /// `layer`, in assembly order.
    pub(crate) layers: Vec<Vec<Vec<PlanView>>>,
    /// The routing indexes over `layers`: derived from them ([`Routing::of`]) at build
    /// and decode, patched in place by the splice.
    pub(crate) routing: Routing,
}

/// One member on its way into a skeleton view: the clustering element and the kind of
/// its outgoing original edge.
struct MemberRec {
    element: Element,
    out_kind: EdgeKind,
}

impl Words for MemberRec {
    fn words(&self) -> usize {
        // The element, its edge kind, and the tag word of the payload the member holds
        // during a solve: the group gathering balances groups over machines by word
        // count, so this width decides which machine every skeleton lives on.
        self.element.words() + 2
    }
}

/// Build the solve plan of a clustering: assemble the skeleton view of every cluster
/// of every layer — each fully contained in one machine — and record the skeletons
/// and routing indexes. Two table sorts, three probes and one group gathering,
/// whatever the number of layers. Charged under the `plan-build` phase.
pub(crate) fn build_plan(
    ctx: &mut MpcContext,
    clustering: &Clustering,
    edges: &DistVec<(DirectedEdge, EdgeKind)>,
    aux_to_original: &DistVec<(NodeId, NodeId)>,
) -> SolvePlan {
    ctx.phase("plan-build", |ctx| {
        let views = build_skeletons(ctx, clustering, edges);
        SolvePlan::from_views(ctx, clustering, aux_to_original, views)
    })
}

/// Assemble the linked view of every cluster, each fully contained in one machine and
/// every layer's views spread over all machines: fetch every member's edge kind,
/// gather the members by absorbing cluster — once, for all layers — attach the
/// cluster's own element record and the kind of its incoming edge, and link the member
/// tree locally. Every probe sends the bare key and rejoins the answer with the record
/// it belongs to where that record already lies. Machine `i`'s views come layer by
/// layer, in cluster-id order within a layer, each with the layer its cluster was
/// formed at.
fn build_skeletons(
    ctx: &mut MpcContext,
    clustering: &Clustering,
    edges: &DistVec<(DirectedEdge, EdgeKind)>,
) -> DistVec<(u32, PlanView)> {
    // Edge kinds keyed by the edge's child endpoint, and the element table: each is
    // sorted once and probed for all layers at a time.
    let edge_kinds: DistVec<(NodeId, EdgeKind)> =
        edges.filter_map_local(|(e, kind)| Some((e.child, *kind)));
    let edges_sorted = ctx.sort_table(&edge_kinds, |d| d.0);
    let elements_sorted = ctx.sort_table(&clustering.elements, |e| e.id);

    let members = clustering
        .elements
        .filter_map_local(|e| (e.kind != ElementKind::TopCluster).then_some(*e));
    let out_edges = members.filter_map_local(|e| Some(e.out_edge.child));
    let out_kinds = ctx.join_lookup_sorted(out_edges, |child| *child, &edge_kinds, &edges_sorted);
    let member_recs = members.zip_local(out_kinds, |element, (_, edge)| MemberRec {
        element,
        out_kind: edge.map_or(EdgeKind::Original, |(_, kind)| kind),
    });

    // A cluster id carries the layer the cluster is formed at above the defining
    // element's id, so the key order is layer-major and every layer is one run.
    let grouped = ctx.gather_group_runs(
        member_recs,
        |m| m.element.absorbed_into,
        |m| m.element.absorbed_at,
    );

    let cluster_ids = grouped.filter_map_local(|(cid, _)| Some(*cid));
    let clusters = ctx.join_lookup_sorted(
        cluster_ids,
        |cid| *cid,
        &clustering.elements,
        &elements_sorted,
    );
    let with_cluster = grouped.zip_local(clusters, |(_, members), (_, cluster)| {
        (cluster.expect("cluster element exists"), members)
    });

    // Only clusters that have an incoming edge ask for its kind; the answers come
    // back in request order, one per such cluster.
    let in_edges = with_cluster.filter_map_local(|(cluster, _)| cluster.in_edge.map(|e| e.child));
    let in_kinds = ctx.join_lookup_sorted(in_edges, |child| *child, &edge_kinds, &edges_sorted);
    let with_in_kind = with_cluster.map_chunks_local(|machine, chunk| {
        let mut answers = in_kinds.chunks()[machine].iter();
        chunk
            .into_iter()
            .map(|(cluster, members)| {
                let in_kind = cluster.in_edge.and_then(|_| {
                    let (_, edge) = answers.next().expect("one answer per incoming edge");
                    edge.map(|(_, kind)| kind)
                });
                (cluster, members, in_kind)
            })
            .collect()
    });
    with_in_kind.map_local(|(cluster, members, in_kind)| link_members(cluster, members, *in_kind))
}

/// The first member (lowest index) filed under `key` in a sorted `(key, member)` index.
fn first_under<K: Ord>(index: &[(K, usize)], key: &K) -> Option<usize> {
    let at = index.partition_point(|(k, _)| k < key);
    index.get(at).filter(|(k, _)| k == key).map(|&(_, m)| m)
}

/// Link the members of one cluster into the small member tree (machine-local: one
/// sort of the members, then a search per member). `in_kind` is the kind of the
/// cluster's incoming edge when that edge exists in the degree-reduced edge list.
/// Returns the view with the layer its cluster was formed at.
fn link_members(
    cluster: &Element,
    members: &[MemberRec],
    in_kind: Option<EdgeKind>,
) -> (u32, PlanView) {
    // Member `b` hangs below member `a` when `a` accepts `b`'s outgoing edge: original
    // nodes accept every edge pointing at them, contracted clusters accept exactly
    // their recorded incoming edge. Index the members by what they accept — nodes by
    // id, contracted clusters by incoming edge; the first acceptor in member order
    // wins, as a scan over the members would have it.
    let mut nodes: Vec<(ElementId, usize)> = Vec::with_capacity(members.len());
    let mut contracted: Vec<(DirectedEdge, usize)> = Vec::new();
    for (idx, m) in members.iter().enumerate() {
        if m.element.kind == ElementKind::Node {
            nodes.push((m.element.id, idx));
        } else if let Some(in_edge) = m.element.in_edge {
            contracted.push((in_edge, idx));
        }
    }
    nodes.sort_unstable();
    contracted.sort_unstable();
    let acceptor = |edge: &DirectedEdge| -> Option<usize> {
        match (
            first_under(&nodes, &edge.parent),
            first_under(&contracted, edge),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    };
    let mut skeletons: Vec<PlanMember> = members
        .iter()
        .map(|m| PlanMember {
            element: m.element,
            out_kind: m.out_kind,
            parent: None,
            children: Vec::new(),
        })
        .collect();
    for (b, member) in members.iter().enumerate() {
        let edge = member.element.out_edge;
        if edge == cluster.out_edge {
            continue;
        }
        if let Some(a) = acceptor(&edge).filter(|&a| a != b) {
            skeletons[b].parent = Some(a);
            skeletons[a].children.push(b);
        }
    }
    let view = PlanView {
        cluster: cluster.id,
        kind: cluster.kind,
        members: skeletons,
        top: members
            .iter()
            .position(|m| m.element.out_edge == cluster.out_edge)
            .expect("the top member carries the cluster's outgoing edge"),
        out_edge: cluster.out_edge,
        in_edge: cluster.in_edge,
        attach: cluster.in_edge.and_then(|e| acceptor(&e)),
        in_kind: in_kind.unwrap_or(EdgeKind::Original),
    };
    (cluster.formed_at, view)
}

/// Drop the items whose old index `keep` rejects, the rest staying in order: the one
/// compaction every spliced vector goes through — a member list or a `(layer, machine)`
/// view bucket, and the slot state aligned with it.
fn compact<T>(items: &mut Vec<T>, keep: &[bool]) {
    let mut old = 0;
    items.retain(|_| {
        old += 1;
        keep[old - 1]
    });
}

impl SolvePlan {
    /// Split every machine's linked views into the per-layer skeleton layout and
    /// derive the routing indexes from it.
    fn from_views(
        ctx: &mut MpcContext,
        clustering: &Clustering,
        aux_to_original: &DistVec<(NodeId, NodeId)>,
        views: DistVec<(u32, PlanView)>,
    ) -> SolvePlan {
        let machines = ctx.config().num_machines();
        let num_layers = clustering.num_layers as usize;
        let mut layers: Vec<Vec<Vec<PlanView>>> = (0..num_layers)
            .map(|_| (0..machines).map(|_| Vec::new()).collect())
            .collect();
        let mut resident = vec![0usize; machines];
        let mut top_machine = 0usize;
        // Machine i's views stay on machine i, where the gather assembled them; they
        // are only filed under their layer.
        for (machine, chunk) in views.into_chunks().into_iter().enumerate() {
            for (layer, view) in chunk {
                resident[machine] += view.words();
                if view.cluster == clustering.top_cluster {
                    top_machine = machine;
                }
                layers[layer as usize - 1][machine].push(view);
            }
        }
        // The plan is kept as built (a solver store takes it by value): no growth slack.
        layers.iter_mut().flatten().for_each(Vec::shrink_to_fit);
        ctx.check_memory_words(&resident, "plan/skeletons");
        SolvePlan {
            num_layers: clustering.num_layers,
            num_machines: machines,
            root: clustering.root,
            top_cluster: clustering.top_cluster,
            top_machine,
            aux_nodes: aux_to_original
                .chunks()
                .iter()
                .enumerate()
                .flat_map(|(m, chunk)| chunk.iter().map(move |(aux, _)| (*aux, m)))
                .collect(),
            routing: Routing::of(&layers),
            layers,
        }
    }

    /// The skeleton view at `slot`.
    pub(crate) fn view_at(&self, slot: ViewSlot) -> &PlanView {
        &self.layers[slot.layer as usize - 1][slot.machine as usize][slot.view as usize]
    }

    pub(crate) fn view_at_mut(&mut self, slot: ViewSlot) -> &mut PlanView {
        &mut self.layers[slot.layer as usize - 1][slot.machine as usize][slot.view as usize]
    }

    /// The address of `cluster`'s own view, through the routing indexes: the cluster's
    /// member copy names its outgoing edge, and the view reads that edge's label as its
    /// out-label. `None` when the plan holds no such cluster.
    pub fn view_slot_of(&self, cluster: ElementId) -> Option<ViewSlot> {
        let out_child = if cluster == self.top_cluster {
            self.root
        } else {
            let slot = self.routing.payload(cluster)?;
            let holder = self.view_at(slot.view_slot());
            holder.members[slot.member as usize].element.out_edge.child
        };
        self.routing
            .readers_as(out_child, true)
            .find(|at| self.view_at(*at).cluster == cluster)
    }

    /// Splice a structural repair into the skeletons and routing indexes: drop the
    /// views of removed clusters, drop removed members (remapping
    /// parent/child/top/attach indexes), demote clusters whose incoming edge was cut,
    /// and append the new leaf members.
    ///
    /// Every view the repair touches is addressed through the routing indexes
    /// themselves — a removed or demoted element's payload slot names the view that
    /// holds it, a cut edge's in-label readers name the views it entered — and the
    /// indexes are patched entry by entry: keys of removed elements and edges become
    /// tombstones, new leaves go to the overflow runs, and only the views behind a
    /// deleted one in its `(layer, machine)` bucket are re-addressed. An index whose
    /// patches pass an eighth of its entries is rebuilt from its live entries. The
    /// result equals a from-scratch re-index of the spliced skeletons, at a cost
    /// confined to the touched buckets (amortized over the rebuilds).
    ///
    /// The slot state `state` (aligned slot for slot with the skeletons) is compacted
    /// by the same remaps. What a repair adds or clears (a new leaf's member, a demoted
    /// view's in-edge) has no counterpart to move: the caller writes those itself, at
    /// the addresses the spliced indexes give. This is the only splice there is, and
    /// its one caller is [`SolverStore::apply_repair`]: a repair splices the plan a
    /// solver store maintains, while a prepared tree drops the plan it cached.
    ///
    /// Host-side surgery on cached state — zero rounds; the caller (the incremental
    /// solver's `inc-struct` phase) meters the moved words. Panics if the repair does
    /// not match this plan's clustering (same-generation repair objects only).
    pub(crate) fn splice<P: ClusterDp>(
        &mut self,
        repair: &tree_clustering::ClusteringRepair,
        state: &mut PlanState<P>,
    ) {
        // Demotions first, while every slot still addresses the pre-repair layout. A
        // view reading a cut edge's label as its in-label is either removed or demoted;
        // the member copy of a demoted cluster sits in its parent's view.
        for child in &repair.removed_nodes {
            for slot in self.routing.readers_as(*child, false) {
                let view = &mut self.layers[slot.layer as usize - 1][slot.machine as usize]
                    [slot.view as usize];
                if repair.demoted.contains(&view.cluster) {
                    view.kind = ElementKind::ClusterIndeg0;
                    view.in_edge = None;
                    view.attach = None;
                    view.in_kind = EdgeKind::Original;
                }
            }
        }
        for cluster in &repair.demoted {
            if let Some(slot) = self.routing.payload(*cluster) {
                let view = &mut self.layers[slot.layer as usize - 1][slot.machine as usize]
                    [slot.view as usize];
                repair.retain_element(&mut view.members[slot.member as usize].element);
            }
        }

        // Member removals inside surviving views (found through any removed member).
        for patch in repair.patches.values() {
            if let Some(slot) = patch
                .removed_members
                .first()
                .and_then(|m| self.routing.payload(*m))
                .copied()
            {
                self.remove_members(slot.view_slot(), &patch.removed_members, state);
            }
        }

        // Forget the removed span: a removed element held by a removed cluster dooms
        // that cluster's view, and every index keyed by a removed edge loses the key
        // (all of its entries belong to removed or just-demoted views).
        let mut doomed: BTreeSet<ViewSlot> = BTreeSet::new();
        for id in &repair.removed_elements {
            if let Some(slot) = self.routing.remove_payload(*id) {
                let holder = slot.view_slot();
                if repair
                    .removed_elements
                    .contains(&self.view_at(holder).cluster)
                {
                    doomed.insert(holder);
                }
            }
        }
        for child in &repair.removed_nodes {
            self.routing.remove_edge(*child);
        }
        self.remove_views(&doomed, state);

        // New leaves: appended to the absorbing cluster's view (the view holding the
        // link parent; a parent linked earlier in the batch is registered by then).
        for leaf in repair.patches.values().flat_map(|p| &p.added) {
            let parent = *self
                .routing
                .payload(leaf.out_edge.parent)
                .expect("link parent is a member of the absorbing cluster");
            let view = self.view_at_mut(parent.view_slot());
            let idx = view.members.len();
            view.members.push(PlanMember {
                element: *leaf,
                out_kind: EdgeKind::Original,
                parent: Some(parent.member as usize),
                children: Vec::new(),
            });
            view.members[parent.member as usize].children.push(idx);
            let slot = MemberSlot {
                member: idx as u32,
                ..parent
            };
            self.routing.add_leaf(leaf.id, slot);
        }
        self.routing.rebuild_due();

        if !repair.removed_aux.is_empty() {
            self.aux_nodes
                .retain(|(aux, _)| !repair.removed_aux.contains(aux));
        }
    }

    /// Drop a downward-closed set of members from the view at `at`, remapping the
    /// parent/children/top/attach indexes onto the compacted member list and moving
    /// the surviving members' slots along. The removed set is downward-closed in the
    /// member tree (a removed member's descendants are removed too), so every
    /// survivor's parent survives and the top member always survives.
    fn remove_members<P: ClusterDp>(
        &mut self,
        at: ViewSlot,
        removed: &BTreeSet<ElementId>,
        state: &mut PlanState<P>,
    ) {
        let view = &mut self.layers[at.layer as usize - 1][at.machine as usize][at.view as usize];
        let mut remap: Vec<Option<usize>> = Vec::with_capacity(view.members.len());
        let mut kept = 0usize;
        for (old, m) in view.members.iter().enumerate() {
            if removed.contains(&m.element.id) {
                remap.push(None);
                continue;
            }
            if kept != old {
                self.routing
                    .move_member(m, at.member_slot(old), at.member_slot(kept));
            }
            remap.push(Some(kept));
            kept += 1;
        }
        for (old, m) in view.members.iter_mut().enumerate() {
            if remap[old].is_none() {
                continue;
            }
            m.parent = m.parent.map(|p| {
                remap[p]
                    .expect("parent of a surviving member survives (removal is downward-closed)")
            });
            m.children.retain_mut(|c| match remap[*c] {
                Some(new) => {
                    *c = new;
                    true
                }
                None => false,
            });
        }
        let keep: Vec<bool> = remap.iter().map(Option::is_some).collect();
        compact(&mut view.members, &keep);
        view.top = remap[view.top].expect("the top member never lies in the removed span");
        view.attach = view.attach.and_then(|a| remap[a]);
        let slots = slots_at(state, at);
        compact(&mut slots.payloads, &keep);
        compact(&mut slots.out_inputs, &keep);
    }

    /// Delete the views at `doomed` (whose index entries are already gone) and
    /// re-address the views behind them in the same `(layer, machine)` bucket.
    fn remove_views<P: ClusterDp>(
        &mut self,
        doomed: &BTreeSet<ViewSlot>,
        state: &mut PlanState<P>,
    ) {
        let mut rest = doomed.iter().copied().peekable();
        let mut keep: Vec<bool> = Vec::new();
        while let Some(first) = rest.next() {
            let mut bucket =
                std::mem::take(&mut self.layers[first.layer as usize - 1][first.machine as usize]);
            keep.clear();
            keep.resize(bucket.len(), true);
            keep[first.view as usize] = false;
            while let Some(next) =
                rest.next_if(|s| (s.layer, s.machine) == (first.layer, first.machine))
            {
                keep[next.view as usize] = false;
            }
            let mut to = 0u32;
            for (old, view) in bucket.iter().enumerate() {
                if !keep[old] {
                    continue;
                }
                if to != old as u32 {
                    let from = ViewSlot {
                        view: old as u32,
                        ..first
                    };
                    self.routing.readdress_view(view, from, to);
                }
                to += 1;
            }
            compact(&mut bucket, &keep);
            self.layers[first.layer as usize - 1][first.machine as usize] = bucket;
            compact(
                &mut state[first.layer as usize - 1][first.machine as usize],
                &keep,
            );
        }
    }
}

impl SolvePlan {
    /// The plan's skeletons and routing indexes with every slot resolved to the ids it
    /// addresses (see [`PlanRouting`]). Two plans of one clustering — say a store's,
    /// spliced through [`SolverStore::apply_repair`], and one freshly built on the
    /// repaired tree — agree on it even though they place views on different machines
    /// and order members differently. `O(n log n)` host work; for tests and audits.
    pub fn routing_by_id(&self) -> PlanRouting {
        let view_of =
            |s: &ViewSlot| &self.layers[s.layer as usize - 1][s.machine as usize][s.view as usize];
        let member_of = |s: &MemberSlot| {
            let view = view_of(&s.view_slot());
            (view.cluster, view.members[s.member as usize].element.id)
        };
        let routing = &self.routing;
        PlanRouting {
            payload: routing
                .payloads
                .iter()
                .map(|(id, slot)| (id, member_of(slot)))
                .collect(),
            out_edge: routing
                .out_edges
                .iter()
                .map(|(key, slots)| (key, slots.iter().map(member_of).collect()))
                .collect(),
            label_readers: routing
                .readers
                .iter()
                .map(|(key, readers)| {
                    let by_id = readers.iter().map(|r| (view_of(&r.view).cluster, r.as_out));
                    (key, by_id.collect())
                })
                .collect(),
            views: self
                .layers
                .iter()
                .flatten()
                .flatten()
                .map(|view| {
                    let id_at = |idx: usize| view.members[idx].element.id;
                    let members = view
                        .members
                        .iter()
                        .map(|m| (m.element.id, (m.element, m.out_kind, m.parent.map(id_at))))
                        .collect();
                    let header = PlanView {
                        cluster: view.cluster,
                        kind: view.kind,
                        members: Vec::new(),
                        top: 0,
                        out_edge: view.out_edge,
                        in_edge: view.in_edge,
                        attach: None,
                        in_kind: view.in_kind,
                    };
                    let ends = (id_at(view.top), view.attach.map(id_at));
                    (view.cluster, (header, ends, members))
                })
                .collect(),
            aux_nodes: self.aux_nodes.iter().map(|&(aux, _)| aux).collect(),
        }
    }

    /// Number of layers of the underlying clustering.
    pub fn num_layers(&self) -> u32 {
        self.num_layers
    }

    /// The root node of the tree the plan was built for.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The id of the top cluster of the underlying clustering.
    pub fn top_cluster(&self) -> ElementId {
        self.top_cluster
    }

    /// Number of machines the plan was built for (its skeletons are placed on exactly
    /// this machine layout).
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }

    /// Total number of cached skeleton views across all layers.
    pub fn num_views(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|layer| layer.iter())
            .map(Vec::len)
            .sum()
    }

    /// Approximate resident size of the plan in machine words: the skeleton views,
    /// plus the routing indexes at one word per key, per slot coordinate (four for a
    /// member slot; a reading view's three and its as-out flag), per list span and
    /// per two directory offsets. This is what the serving layer counts in a tenant's
    /// resident bytes — an estimate of what keeping the plan warm costs, not an exact
    /// allocator measurement.
    pub fn resident_words(&self) -> usize {
        let skeletons: usize = self
            .layers
            .iter()
            .flat_map(|layer| layer.iter())
            .flat_map(|views| views.iter())
            .map(Words::words)
            .sum();
        let aux = self.aux_nodes.len() * 2;
        8 + skeletons + self.routing.resident_words() + aux
    }

    /// The lowest-numbered original node `node_inputs` holds no record for, if any:
    /// [`solve`](Self::solve) needs an input for each of the tree's `original_nodes`
    /// original nodes and panics on a gap, so callers passing on inputs they did not
    /// produce check here first. Ids the plan does not route are ignored, as the solve
    /// ignores them. `O(q log n)` for `q` records unless one is missing.
    pub fn missing_node_input<I>(
        &self,
        node_inputs: &[(NodeId, I)],
        original_nodes: usize,
    ) -> Option<NodeId> {
        let mut covered: Vec<NodeId> = node_inputs
            .iter()
            .map(|(node, _)| *node)
            .filter(|node| *node < AUX_BASE && self.routing.payloads.get(*node).is_some())
            .collect();
        covered.sort_unstable();
        covered.dedup();
        if covered.len() == original_nodes {
            return None;
        }
        self.routing
            .payloads
            .iter()
            .map(|(node, _)| node)
            .take_while(|node| *node < AUX_BASE)
            .find(|node| covered.binary_search(node).is_err())
    }

    /// Solve one DP problem over the cached plan (same contract as
    /// [`PreparedTree::solve`](crate::PreparedTree::solve)). Only the
    /// problem-dependent exchanges are charged — one input scatter, one
    /// summary-forwarding round per layer up, one label-forwarding round per layer
    /// down (phases `plan-inputs` / `plan-up` / `plan-down` under `plan-solve`).
    pub fn solve<P: ClusterDp>(
        &self,
        ctx: &mut MpcContext,
        problem: &P,
        node_inputs: &DistVec<(NodeId, P::NodeInput)>,
        aux_input: P::NodeInput,
        edge_inputs: &DistVec<(NodeId, P::EdgeInput)>,
    ) -> DpSolution<P> {
        self.evaluate(ctx, problem, node_inputs, aux_input, edge_inputs)
            .0
    }

    /// Like [`solve`](Self::solve), but keep what the pass built instead of dropping
    /// it: the returned [`SolverStore`] owns this plan, the slot state the pass filled
    /// over its skeletons, and the labels — what a `tree_dp_incremental`
    /// `IncrementalSolver` needs for batched re-solves. The store's plan is the one
    /// that structural repairs splice; a caller that still needs the plan elsewhere
    /// passes a clone.
    pub fn solve_with_store<P: ClusterDp>(
        self,
        ctx: &mut MpcContext,
        problem: &P,
        node_inputs: &DistVec<(NodeId, P::NodeInput)>,
        aux_input: P::NodeInput,
        edge_inputs: &DistVec<(NodeId, P::EdgeInput)>,
    ) -> (DpSolution<P>, SolverStore<P>) {
        let (solution, state) = self.evaluate(ctx, problem, node_inputs, aux_input, edge_inputs);
        let store = SolverStore {
            plan: self,
            state,
            labels: solution.labels.iter().cloned().collect(),
            root_label: solution.root_label.clone(),
            root_summary: solution.root_summary.clone(),
        };
        (solution, store)
    }

    /// Solve a batch of same-type problem instances over one plan: the assembly was
    /// paid once at plan-build time, so the batch costs exactly the sum of the cheap
    /// per-problem evaluation passes. (Problems of *different* types are batched the
    /// same way by calling [`solve`](Self::solve) repeatedly on the shared plan.)
    #[allow(clippy::type_complexity)]
    pub fn solve_many<P: ClusterDp>(
        &self,
        ctx: &mut MpcContext,
        jobs: &[(
            &P,
            &DistVec<(NodeId, P::NodeInput)>,
            P::NodeInput,
            &DistVec<(NodeId, P::EdgeInput)>,
        )],
    ) -> Vec<DpSolution<P>> {
        jobs.iter()
            .map(|(problem, node_inputs, aux_input, edge_inputs)| {
                self.solve(ctx, *problem, node_inputs, aux_input.clone(), edge_inputs)
            })
            .collect()
    }

    /// One `init(skeleton)` per view, laid out like [`layers`](Self::layers).
    fn per_view<T>(&self, init: impl Fn(&PlanView) -> T) -> Vec<Vec<Vec<T>>> {
        let per_bucket = |views: &Vec<PlanView>| views.iter().map(&init).collect();
        let per_layer = |layer: &Vec<Vec<PlanView>>| layer.iter().map(per_bucket).collect();
        self.layers.iter().map(per_layer).collect()
    }

    /// One evaluation pass: the solution, and the slot state the pass filled (every
    /// view's payloads and edge inputs, where the skeletons lie).
    fn evaluate<P: ClusterDp>(
        &self,
        ctx: &mut MpcContext,
        problem: &P,
        node_inputs: &DistVec<(NodeId, P::NodeInput)>,
        aux_input: P::NodeInput,
        edge_inputs: &DistVec<(NodeId, P::EdgeInput)>,
    ) -> (DpSolution<P>, PlanState<P>) {
        assert_eq!(
            self.num_machines,
            ctx.config().num_machines(),
            "SolvePlan was built for a different machine count"
        );
        ctx.phase("plan-solve", |ctx| {
            let machines = self.num_machines;
            // Per-view slots, aligned with the skeleton layout.
            let mut state: PlanState<P> = self.per_view(SlotState::for_view);

            // ---- input scatter (1 round): every node/edge input travels straight to
            // its recorded slot; records already on the slot's machine are free.
            ctx.phase("plan-inputs", |ctx| {
                self.scatter_inputs(ctx, node_inputs, &aux_input, edge_inputs, &mut state);
            });

            // ---- bottom-up (1 round per layer): summarize locally, forward each
            // summary to its member slot in the absorbing cluster's view. The views of
            // every processed layer stay resident until the top-down pass has read
            // them, so the memory check tracks the *cumulative* per-machine words, not
            // one layer at a time.
            let mut resident = vec![0usize; machines];
            let mut root_summary: Option<P::Summary> = None;
            for layer in 1..=self.num_layers {
                if self.layers[layer as usize - 1].iter().all(Vec::is_empty) {
                    continue;
                }
                ctx.phase("plan-up", |ctx| {
                    self.summarize_plan_layer(
                        ctx,
                        layer,
                        problem,
                        &mut state,
                        &mut resident,
                        &mut root_summary,
                    )
                });
            }
            let root_summary = root_summary.expect("top cluster summarized");

            // ---- top-down (1 round per layer): label locally, forward each produced
            // label to the lower-layer views that read it.
            let root_label = problem.label_root(&root_summary);
            let mut boundary: Vec<Vec<Vec<BoundaryLabels<P::Label>>>> =
                self.per_view(|_| (None, None));
            let mut label_chunks: Vec<Vec<(NodeId, P::Label)>> =
                (0..machines).map(|_| Vec::new()).collect();
            label_chunks[self.top_machine].push((self.root, root_label.clone()));
            ctx.phase("plan-down", |ctx| {
                self.deliver_label(
                    ctx,
                    self.root,
                    &root_label,
                    self.top_machine,
                    // The root label is conceptually produced above every layer.
                    self.num_layers + 1,
                    &mut boundary,
                );
                for layer in (1..=self.num_layers).rev() {
                    if self.layers[layer as usize - 1].iter().all(Vec::is_empty) {
                        continue;
                    }
                    self.label_plan_layer(
                        ctx,
                        layer,
                        problem,
                        &state,
                        &mut boundary,
                        &mut label_chunks,
                    );
                }
            });

            // label_chunks[i] was produced on machine i by the top-down pass.
            let labels = unmetered::from_chunks(label_chunks);
            ctx.check_memory(&labels, "plan/labels");
            let solution = DpSolution {
                labels,
                root_label,
                root_summary,
            };
            (solution, state)
        })
    }

    /// The input scatter: route node inputs, auxiliary inputs, and edge inputs to
    /// their recorded slots, charging one round with exact moved-word volumes — a
    /// moved payload record is a `(key, Payload)` pair (`2 + input` words, matching
    /// the summary-forwarding charge) and a moved edge record a
    /// `(child, kind, input)` triple (`2 + input` words). On duplicate records the
    /// first one wins the slot (join semantics).
    fn scatter_inputs<P: ClusterDp>(
        &self,
        ctx: &mut MpcContext,
        node_inputs: &DistVec<(NodeId, P::NodeInput)>,
        aux_input: &P::NodeInput,
        edge_inputs: &DistVec<(NodeId, P::EdgeInput)>,
        state: &mut PlanState<P>,
    ) {
        let machines = self.num_machines;
        let total_records = node_inputs.len() + edge_inputs.len() + self.aux_nodes.len();
        if total_records == 0 {
            return;
        }
        let mut sends = vec![0usize; machines];
        let mut recvs = vec![0usize; machines];
        let place_payload = |src: usize,
                             node: NodeId,
                             input: &P::NodeInput,
                             state: &mut PlanState<P>,
                             sends: &mut [usize],
                             recvs: &mut [usize]| {
            let Some(slot) = self.routing.payload(node) else {
                return;
            };
            let cell =
                &mut state[slot.layer as usize - 1][slot.machine as usize][slot.view as usize];
            if cell.payloads[slot.member as usize].is_some() {
                return; // duplicate record: the first one won the slot
            }
            if slot.machine as usize != src {
                let w = 2 + input.words();
                sends[src] += w;
                recvs[slot.machine as usize] += w;
            }
            cell.payloads[slot.member as usize] = Some(Payload::Input(input.clone()));
        };
        for (src, chunk) in node_inputs.chunks().iter().enumerate() {
            for (node, input) in chunk {
                place_payload(src, *node, input, state, &mut sends, &mut recvs);
            }
        }
        for &(aux, src) in &self.aux_nodes {
            place_payload(src, aux, aux_input, state, &mut sends, &mut recvs);
        }
        for (src, chunk) in edge_inputs.chunks().iter().enumerate() {
            for (child, input) in chunk {
                for slot in self.routing.out_edges.get(*child) {
                    let cell = &mut state[slot.layer as usize - 1][slot.machine as usize]
                        [slot.view as usize];
                    if cell.out_inputs[slot.member as usize].is_some() {
                        continue;
                    }
                    if slot.machine as usize != src {
                        let w = 2 + input.words();
                        sends[src] += w;
                        recvs[slot.machine as usize] += w;
                    }
                    cell.out_inputs[slot.member as usize] = Some(input.clone());
                }
                for vslot in self.routing.readers_as(*child, false) {
                    let cell = &mut state[vslot.layer as usize - 1][vslot.machine as usize]
                        [vslot.view as usize];
                    if cell.in_input.is_some() {
                        continue;
                    }
                    if vslot.machine as usize != src {
                        let w = 2 + input.words();
                        sends[src] += w;
                        recvs[vslot.machine as usize] += w;
                    }
                    cell.in_input = Some(input.clone());
                }
            }
        }
        ctx.charge_rounds(1);
        ctx.record_comm(&sends, &recvs, "plan-inputs");
    }

    /// One bottom-up step over the plan: summarize the layer's views — each its
    /// skeleton paired with its filled slots — and forward each summary to its member
    /// slot, one round whose volume is exactly the moved summary records.
    fn summarize_plan_layer<P: ClusterDp>(
        &self,
        ctx: &mut MpcContext,
        layer: u32,
        problem: &P,
        state: &mut PlanState<P>,
        resident: &mut [usize],
        root_summary: &mut Option<P::Summary>,
    ) {
        let li = (layer - 1) as usize;
        let machines = self.num_machines;
        let views_of = |machine: usize| {
            self.layers[li][machine]
                .iter()
                .zip(&state[li][machine])
                .map(|(skeleton, slots)| ClusterView { skeleton, slots })
        };
        // This layer's views join the resident set (released only after top-down).
        for (machine, words) in resident.iter_mut().enumerate() {
            *words += views_of(machine).map(|view| view.words()).sum::<usize>();
        }
        ctx.check_memory_words(resident, "plan/views");
        // Summarize machine by machine, then deliver each summary to its slot (in a
        // view of a higher layer).
        let summaries: Vec<(usize, ElementId, P::Summary)> = (0..machines)
            .flat_map(|src| {
                views_of(src)
                    .map(move |view| (src, view.skeleton.cluster, problem.summarize(&view)))
            })
            .collect();
        let mut sends = vec![0usize; machines];
        let mut recvs = vec![0usize; machines];
        let mut any_forwarded = false;
        for (src, cluster, summary) in summaries {
            if cluster == self.top_cluster {
                *root_summary = Some(summary);
                continue;
            }
            any_forwarded = true;
            let slot = self
                .routing
                .payload(cluster)
                .expect("every non-top cluster is absorbed somewhere");
            if slot.machine as usize != src {
                // The summary record `(cluster, Payload::Summary)` moves.
                let w = 2 + summary.words();
                sends[src] += w;
                recvs[slot.machine as usize] += w;
            }
            state[slot.layer as usize - 1][slot.machine as usize][slot.view as usize].payloads
                [slot.member as usize] = Some(Payload::Summary(summary));
        }
        if any_forwarded {
            ctx.charge_rounds(1);
            ctx.record_comm(&sends, &recvs, "plan-up");
        }
    }

    /// One top-down step over the plan: label the layer's views from their delivered
    /// boundary labels, then forward each produced label to its lower-layer readers —
    /// one round of exactly the moved label words.
    fn label_plan_layer<P: ClusterDp>(
        &self,
        ctx: &mut MpcContext,
        layer: u32,
        problem: &P,
        state: &PlanState<P>,
        boundary: &mut [Vec<Vec<BoundaryLabels<P::Label>>>],
        label_chunks: &mut [Vec<(NodeId, P::Label)>],
    ) {
        let li = (layer - 1) as usize;
        let machines = self.num_machines;
        let mut sends = vec![0usize; machines];
        let mut recvs = vec![0usize; machines];
        let mut any_delivered = false;
        for (src, output) in label_chunks.iter_mut().enumerate() {
            // Labels go straight into the machine's output and are forwarded from there;
            // their readers sit at lower layers, so this layer's boundary labels stay put.
            let start = output.len();
            let views = self.layers[li][src].iter().zip(&state[li][src]);
            for ((skeleton, slots), (out_label, in_label)) in views.zip(&boundary[li][src]) {
                let out_label = out_label.as_ref().expect("boundary out-label present");
                let member_labels = problem.label_members(
                    &ClusterView { skeleton, slots },
                    out_label,
                    in_label.as_ref(),
                );
                output.extend(
                    skeleton
                        .members
                        .iter()
                        .zip(member_labels)
                        .enumerate()
                        .filter(|(i, _)| *i != skeleton.top)
                        .map(|(_, (m, label))| (m.element.out_edge.child, label)),
                );
            }
            for (key, label) in &output[start..] {
                any_delivered |=
                    self.place_label(*key, label, src, layer, boundary, &mut sends, &mut recvs);
            }
        }
        if any_delivered {
            ctx.charge_rounds(1);
            ctx.record_comm(&sends, &recvs, "plan-down");
        }
    }

    /// Deliver one produced label to every reader strictly below `producer_layer`,
    /// charging one round if anything is (or could be) forwarded.
    fn deliver_label<L: Clone + Words>(
        &self,
        ctx: &mut MpcContext,
        key: NodeId,
        label: &L,
        src: usize,
        producer_layer: u32,
        boundary: &mut [Vec<Vec<BoundaryLabels<L>>>],
    ) {
        let machines = self.num_machines;
        let mut sends = vec![0usize; machines];
        let mut recvs = vec![0usize; machines];
        let delivered = self.place_label(
            key,
            label,
            src,
            producer_layer,
            boundary,
            &mut sends,
            &mut recvs,
        );
        if delivered {
            ctx.charge_rounds(1);
            ctx.record_comm(&sends, &recvs, "plan-down");
        }
    }

    /// Write `label` into every reader slot below `producer_layer`, accumulating the
    /// moved words. Returns `true` when at least one reader received it (whether or
    /// not any words crossed machines — the forwarding round still happens).
    #[allow(clippy::too_many_arguments)]
    fn place_label<L: Clone + Words>(
        &self,
        key: NodeId,
        label: &L,
        src: usize,
        producer_layer: u32,
        boundary: &mut [Vec<Vec<BoundaryLabels<L>>>],
        sends: &mut [usize],
        recvs: &mut [usize],
    ) -> bool {
        let mut delivered = false;
        for reader in self.routing.readers.get(key) {
            let vslot = reader.view;
            if vslot.layer >= producer_layer {
                // That view was labeled before this key was produced: it read `None`.
                continue;
            }
            delivered = true;
            if vslot.machine as usize != src {
                let w = 1 + label.words();
                sends[src] += w;
                recvs[vslot.machine as usize] += w;
            }
            let cell = &mut boundary[vslot.layer as usize - 1][vslot.machine as usize]
                [vslot.view as usize];
            if reader.as_out {
                cell.0 = Some(label.clone());
            } else {
                cell.1 = Some(label.clone());
            }
        }
        delivered
    }
}

/// The slot state of every view of a plan, aligned with [`SolvePlan::layers`]:
/// `state[layer - 1][machine][view]`.
pub(crate) type PlanState<P> = Vec<Vec<Vec<SlotState<P>>>>;

/// The slots of the view at `at`.
pub(crate) fn slots_at<P: ClusterDp>(state: &mut PlanState<P>, at: ViewSlot) -> &mut SlotState<P> {
    &mut state[at.layer as usize - 1][at.machine as usize][at.view as usize]
}

/// The `(out-label, in-label)` delivered to one view before its top-down step.
type BoundaryLabels<L> = (Option<L>, Option<L>);

impl SolvePlan {
    /// Name the first routing index — `payload_slot`, `out_edge_slots` or
    /// `label_readers` — whose live entries differ from a re-derivation over the
    /// skeleton views ([`Routing::of`]), or `out_edge_slots` when its keys are not
    /// exactly `edge_children` — the edge children of the degree-reduced edge list the
    /// plan takes edge inputs from: the zero-round drift alarm for a plan that has been
    /// spliced in place.
    pub(crate) fn audit_routing(&self, edge_children: &BTreeSet<NodeId>) -> Result<(), String> {
        let held = &self.routing;
        if let Some(drifted) = held.drift_from(&Routing::of(&self.layers)) {
            return Err(format!(
                "routing index {drifted} differs from a re-index of the skeleton views"
            ));
        }
        if !held
            .out_edges
            .iter()
            .map(|(key, _)| key)
            .eq(edge_children.iter().copied())
        {
            return Err(
                "routing index out_edge_slots routes other edges than the edge list".into(),
            );
        }
        Ok(())
    }

    /// Check that the plan is safe to evaluate and splice — what a decoder must know
    /// before it hands out a plan read from bytes: the layer/machine layout has the
    /// declared shape, machine indexes are in range, every view's member tree is one
    /// tree rooted at its top member (indexes in range, parent and child links mutual),
    /// every non-top cluster's summary flows to a member slot at a higher layer, the
    /// top cluster's view lies on `top_machine`, and no element has two member slots.
    /// `Err` names the first defect. `O(n log n)`.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.layers.len() != self.num_layers as usize
            || self.num_machines == 0
            || self.layers.iter().any(|l| l.len() != self.num_machines)
        {
            return Err("plan layer/machine layout");
        }
        if self.top_machine >= self.num_machines
            || self.aux_nodes.iter().any(|&(_, m)| m >= self.num_machines)
        {
            return Err("plan machine index");
        }
        let mut top_found = false;
        for (li, layer) in self.layers.iter().enumerate() {
            for (machine, views) in layer.iter().enumerate() {
                for v in views {
                    v.validate()?;
                    if v.cluster == self.top_cluster {
                        top_found |= machine == self.top_machine;
                    } else {
                        match self.routing.payload(v.cluster) {
                            Some(s) if s.layer as usize > li + 1 => {}
                            _ => return Err("plan summary slot"),
                        }
                    }
                }
            }
        }
        if !top_found {
            return Err("plan top cluster view");
        }
        // A run keeps every member's entry, so one element on two members shows as
        // a repeated key.
        if self.routing.repeats_a_payload() {
            return Err("plan payload slot");
        }
        Ok(())
    }
}

impl PlanView {
    /// Check that the member tree is one tree rooted at `top`: `top`, `attach` and
    /// every parent/child index in range, parent and child links mutual, and every
    /// member reached exactly once from the top member.
    fn validate(&self) -> Result<(), &'static str> {
        let n = self.members.len();
        if self.top >= n || self.attach.is_some_and(|a| a >= n) {
            return Err("view top/attach index");
        }
        if self.members[self.top].parent.is_some() {
            return Err("view top member has a parent");
        }
        let mut reached = vec![false; n];
        let mut stack = vec![self.top];
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut reached[i], true) {
                return Err("view member tree");
            }
            for &c in &self.members[i].children {
                if self.members.get(c).map(|m| m.parent) != Some(Some(i)) {
                    return Err("view parent/child link");
                }
                stack.push(c);
            }
        }
        if reached.contains(&false) {
            return Err("view member tree");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{prepare, PreparedTree};
    use mpc_engine::{MpcConfig, SortedTable};
    use proptest::prelude::*;
    use tree_gen::{shapes, standard_suite};
    use tree_repr::{ListOfEdges, Tree, TreeInput};

    /// The plan build this module had before it gathered all layers at once, kept as
    /// the reference: per layer three probes that ship the whole member record (then
    /// the whole gathered group) as the request, one `gather_groups`, and a member
    /// tree linked by scanning for the acceptor.
    fn build_plan_per_layer(ctx: &mut MpcContext, prepared: &PreparedTree) -> SolvePlan {
        let clustering = &prepared.clustering;
        ctx.phase("plan-build", |ctx| {
            let edge_kinds: DistVec<(NodeId, EdgeKind)> = prepared
                .edges
                .clone()
                .map_local(|(e, kind)| (e.child, *kind));
            let edges_sorted = ctx.sort_table(&edge_kinds, |d| d.0);
            let elements_sorted = ctx.sort_table(&clustering.elements, |e| e.id);
            let layers: Vec<Vec<Vec<PlanView>>> = (1..=clustering.num_layers)
                .map(|layer| {
                    skeletons_of_layer(
                        ctx,
                        clustering,
                        layer,
                        &edge_kinds,
                        &edges_sorted,
                        &elements_sorted,
                    )
                    .into_chunks()
                })
                .collect();
            let top_machine = layers
                .iter()
                .flatten()
                .position(|views| views.iter().any(|v| v.cluster == clustering.top_cluster))
                .expect("the top cluster has a view")
                % ctx.config().num_machines();
            SolvePlan {
                num_layers: clustering.num_layers,
                num_machines: ctx.config().num_machines(),
                root: clustering.root,
                top_cluster: clustering.top_cluster,
                top_machine,
                aux_nodes: prepared
                    .aux_to_original
                    .chunks()
                    .iter()
                    .enumerate()
                    .flat_map(|(m, chunk)| chunk.iter().map(move |(aux, _)| (*aux, m)))
                    .collect(),
                routing: Routing::of(&layers),
                layers,
            }
        })
    }

    fn skeletons_of_layer(
        ctx: &mut MpcContext,
        clustering: &Clustering,
        layer: u32,
        edge_kinds: &DistVec<(NodeId, EdgeKind)>,
        edges_sorted: &SortedTable<NodeId>,
        elements_sorted: &SortedTable<ElementId>,
    ) -> DistVec<PlanView> {
        let members_at_layer = clustering
            .elements
            .clone()
            .filter_local(|e| e.absorbed_at == layer && e.kind != ElementKind::TopCluster);
        if members_at_layer.is_empty() {
            return ctx.empty();
        }
        let member_recs = ctx
            .join_lookup_sorted(
                members_at_layer,
                |e| e.out_edge.child,
                edge_kinds,
                edges_sorted,
            )
            .map_local(|(element, edge)| MemberRec {
                element: *element,
                out_kind: edge.map_or(EdgeKind::Original, |(_, kind)| kind),
            });
        let grouped = ctx.gather_groups(member_recs, |m| m.element.absorbed_into);
        let with_cluster = ctx.join_lookup_sorted(
            grouped,
            |(cid, _)| *cid,
            &clustering.elements,
            elements_sorted,
        );
        let with_in_edge = ctx.join_lookup_sorted(
            with_cluster,
            |(_, cluster)| {
                cluster
                    .as_ref()
                    .and_then(|c| c.in_edge)
                    .map_or(u64::MAX, |e| e.child)
            },
            edge_kinds,
            edges_sorted,
        );
        let views = with_in_edge.map_local(|(((_, members), cluster), in_edge)| {
            let cluster = cluster.as_ref().expect("cluster element exists");
            link_members_by_scan(cluster, members, in_edge.map(|(_, kind)| kind))
        });
        ctx.check_memory(&views, "plan/skeletons");
        views
    }

    fn link_members_by_scan(
        cluster: &Element,
        members: &[MemberRec],
        in_kind: Option<EdgeKind>,
    ) -> PlanView {
        let accepts = |a: &MemberRec, edge: &DirectedEdge| -> bool {
            if a.element.kind == ElementKind::Node {
                a.element.id == edge.parent
            } else {
                a.element.in_edge == Some(*edge)
            }
        };
        let mut skeletons: Vec<PlanMember> = members
            .iter()
            .map(|m| PlanMember {
                element: m.element,
                out_kind: m.out_kind,
                parent: None,
                children: Vec::new(),
            })
            .collect();
        for (b, member) in members.iter().enumerate() {
            let edge = member.element.out_edge;
            if edge == cluster.out_edge {
                continue;
            }
            if let Some(a) = (0..members.len()).find(|&a| a != b && accepts(&members[a], &edge)) {
                skeletons[b].parent = Some(a);
                skeletons[a].children.push(b);
            }
        }
        PlanView {
            cluster: cluster.id,
            kind: cluster.kind,
            members: skeletons,
            top: members
                .iter()
                .position(|m| m.element.out_edge == cluster.out_edge)
                .expect("the top member carries the cluster's outgoing edge"),
            out_edge: cluster.out_edge,
            in_edge: cluster.in_edge,
            attach: cluster
                .in_edge
                .and_then(|e| members.iter().position(|m| accepts(m, &e))),
            in_kind: in_kind.unwrap_or(EdgeKind::Original),
        }
    }

    fn prepared(tree: &Tree, delta: f64) -> (MpcContext, PreparedTree) {
        let mut ctx = MpcContext::new(MpcConfig::new(2 * tree.len(), delta));
        let prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
            None,
        )
        .expect("well-formed tree");
        (ctx, prepared)
    }

    /// `(rounds, words)` charged by `f`.
    fn charged<R>(ctx: &mut MpcContext, f: impl FnOnce(&mut MpcContext) -> R) -> (R, u64, u64) {
        let before = (ctx.metrics().rounds, ctx.metrics().total_words_sent);
        let out = f(ctx);
        let m = ctx.metrics();
        (out, m.rounds - before.0, m.total_words_sent - before.1)
    }

    /// The whole plan — every view at its `(layer, machine, index)`, every routing
    /// index — equals the per-layer reference's, and the routing derived from the
    /// skeletons alone takes edge inputs for exactly the edges of the degree-reduced
    /// list. Returns whether degree reduction added auxiliary nodes.
    fn assert_builds_the_reference_plan(tree: &Tree, delta: f64) -> bool {
        let (mut ctx, prepared) = prepared(tree, delta);
        let reference = build_plan_per_layer(&mut ctx, &prepared);
        let plan = prepared.plan_uncached(&mut ctx);
        assert_eq!(plan.layers, reference.layers, "skeleton placement");
        assert_eq!(plan, reference);
        let edge_children: BTreeSet<NodeId> = prepared.edges.iter().map(|(e, _)| e.child).collect();
        assert_eq!(plan.audit_routing(&edge_children), Ok(()));
        let readers = plan.routing.readers.iter();
        let mut in_edges = readers.filter(|(_, rs)| rs.iter().any(|r| !r.as_out));
        assert!(in_edges.all(|(c, _)| edge_children.contains(&c)));
        !plan.aux_nodes.is_empty()
    }

    /// A random tree whose node `v` hangs below one of the `spread` nodes before it:
    /// a path at `spread = 1`, towards a random recursive tree — with hubs that degree
    /// reduction splits at these thresholds — as `spread` grows.
    fn arbitrary_tree() -> impl Strategy<Value = Tree> {
        (24usize..400).prop_flat_map(|n| {
            (1..n).prop_flat_map(move |spread| {
                (1..n)
                    .map(|v| v.saturating_sub(spread)..v)
                    .collect::<Vec<_>>()
                    .prop_map(|parents| {
                        Tree::from_parents(
                            std::iter::once(None)
                                .chain(parents.into_iter().map(Some))
                                .collect(),
                        )
                    })
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn one_gather_builds_the_per_layer_plan(tree in arbitrary_tree()) {
            for delta in [0.3, 0.5, 0.7] {
                assert_builds_the_reference_plan(&tree, delta);
            }
        }
    }

    #[test]
    fn one_gather_builds_the_per_layer_plan_on_degree_reduced_trees() {
        // Hubs far above every threshold: the plan holds auxiliary nodes and edges.
        for tree in [
            shapes::star(300),
            shapes::broom(40, 200),
            shapes::spider(90, 3),
        ] {
            for delta in [0.3, 0.5, 0.7] {
                assert!(assert_builds_the_reference_plan(&tree, delta));
            }
        }
    }

    #[test]
    fn one_gather_builds_the_per_layer_plan_on_the_standard_suite() {
        let suite = standard_suite(4096, 7);
        assert_eq!(suite.len(), 9);
        for entry in suite {
            assert_builds_the_reference_plan(&entry.tree, 0.5);
        }
    }

    #[test]
    fn plan_build_rounds_do_not_depend_on_layers() {
        let mut layer_counts = BTreeSet::new();
        for tree in [shapes::path(4096), shapes::star(4096)] {
            let (mut ctx, prepared) = prepared(&tree, 0.5);
            let (sort, agg) = (ctx.sort_rounds(), ctx.agg_rounds());
            let (plan, rounds, words) = charged(&mut ctx, |ctx| prepared.plan_uncached(ctx));
            // Layers at which a cluster forms: each cost the per-layer build a gather.
            layer_counts.insert(
                plan.layers
                    .iter()
                    .filter(|layer| layer.iter().any(|views| !views.is_empty()))
                    .count(),
            );
            // Two table sorts, the run-placed gather, three 2-round probes.
            assert_eq!(rounds, 2 * (sort + agg) + (sort + 1 + agg) + 6);
            let (_, old_rounds, old_words) =
                charged(&mut ctx, |ctx| build_plan_per_layer(ctx, &prepared));
            assert!(rounds < old_rounds);
            assert!(
                5 * words < 2 * old_words,
                "{words} words against the per-layer build's {old_words}"
            );
        }
        assert_eq!(layer_counts.len(), 2, "the two trees differ in layer count");
    }
}
