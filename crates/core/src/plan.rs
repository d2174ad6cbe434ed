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
//! cluster of every layer onto one machine in **one** group gathering and attaches
//! every cluster's header in **one** probe of bare cluster ids — a number of rounds
//! that does not depend on the layer count (charged under `plan-build`). Nothing else
//! is fetched: an edge's kind is read off its child id ([`EdgeKind::leaving`]), a
//! cluster's layer and outgoing edge's child off its id. The plan retains
//!
//! * per layer and per machine, the **skeleton view** of every cluster formed there
//!   ([`PlanView`]: members in their assembled order, parent/children links, top and
//!   attach indexes, boundary edges, edge kinds) in a compact layout of a few words
//!   per member — each member its id and one packed word, everything a view can
//!   derive left out ([`skeleton`](crate::skeleton)) — and
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
//! holds the plan-wide checks a plan read from bytes passes.

use crate::problem::{ClusterDp, ClusterView, Payload, SlotState};
use crate::routing::Routing;
use crate::store::SolverStore;
use mpc_engine::{unmetered, DistVec, MpcContext, Words};
use std::collections::{BTreeMap, BTreeSet};
use tree_clustering::{
    cluster_layer, defining_node, Clustering, EdgeKind, Element, ElementId, ElementKind, AUX_BASE,
};
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

use crate::skeleton::{Linked, Skeletons};
pub use crate::skeleton::{PlanMember, PlanView};

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

/// One view of a [`PlanRouting`]: the header (kind, outgoing and incoming edge, the
/// incoming edge's kind), the ids of the top and attach members, and every member
/// with its element, edge kind and parent's id.
type ViewById = (
    (ElementKind, DirectedEdge, Option<DirectedEdge>, EdgeKind),
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
    /// `skeletons[machine]` — the skeleton views the gather assembled on `machine`,
    /// layer by layer, in assembly order within a layer.
    pub(crate) skeletons: Vec<Skeletons>,
    /// The routing indexes over the skeletons: derived from them ([`Routing::of`]) at
    /// build and decode, patched in place by the splice.
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
/// and routing indexes. One group gathering and one probe, whatever the number of
/// layers. Charged under the `plan-build` phase.
pub(crate) fn build_plan(
    ctx: &mut MpcContext,
    clustering: &Clustering,
    aux_to_original: &DistVec<(NodeId, NodeId)>,
) -> SolvePlan {
    ctx.phase("plan-build", |ctx| {
        let views = build_skeletons(ctx, clustering);
        SolvePlan::from_views(ctx, clustering, aux_to_original, views)
    })
}

/// What a view keeps of its cluster's element beyond what the id encodes: the id
/// names the layer the cluster is formed at ([`cluster_layer`]) and the child
/// endpoint of its outgoing edge ([`defining_node`]).
#[derive(Clone, Copy)]
struct ClusterHeader {
    id: ElementId,
    kind: ElementKind,
    out_parent: NodeId,
    in_edge: Option<DirectedEdge>,
}

impl Words for ClusterHeader {
    fn words(&self) -> usize {
        // Id, kind (with a flag for the incoming edge), outgoing edge's parent, and
        // the incoming edge when there is one.
        3 + self.in_edge.map_or(0, |e| e.words())
    }
}

/// Assemble the linked view of every cluster, each fully contained in one machine and
/// every layer's views spread over all machines: gather the members by absorbing
/// cluster — once, for all layers — attach the cluster's header (probed in a table of
/// the cluster elements alone, the only ones a cluster id can name; the bare id is
/// sent and the answer rejoins its group where the group lies), and link the member
/// tree locally. Edge kinds are read off the ids ([`EdgeKind::leaving`]). Machine
/// `i`'s views come layer by layer, in cluster-id order within a layer, each with the
/// layer its cluster was formed at.
fn build_skeletons(ctx: &mut MpcContext, clustering: &Clustering) -> DistVec<(u32, Linked)> {
    let member_recs = clustering.elements.filter_map_local(|e| {
        (e.kind != ElementKind::TopCluster).then(|| MemberRec {
            element: *e,
            out_kind: EdgeKind::leaving(e.out_edge.child),
        })
    });
    // A cluster id carries the layer the cluster is formed at above the defining
    // element's id, so the key order is layer-major and every layer is one run.
    let grouped = ctx.gather_group_runs(
        member_recs,
        |m| m.element.absorbed_into,
        |m| m.element.absorbed_at,
    );

    let headers = clustering.elements.filter_map_local(|e| {
        e.kind.is_cluster().then_some(ClusterHeader {
            id: e.id,
            kind: e.kind,
            out_parent: e.out_edge.parent,
            in_edge: e.in_edge,
        })
    });
    let cluster_ids = grouped.filter_map_local(|(cid, _)| Some(*cid));
    let found = ctx.join_lookup(cluster_ids, |cid| *cid, &headers, |h| h.id);
    grouped.zip_local(found, |(_, members), (_, header)| {
        link_members(&header.expect("cluster header exists"), &members)
    })
}

/// The first member (lowest index) filed under `key` in a sorted `(key, member)` index.
fn first_under<K: Ord>(index: &[(K, usize)], key: &K) -> Option<usize> {
    let at = index.partition_point(|(k, _)| k < key);
    index.get(at).filter(|(k, _)| k == key).map(|&(_, m)| m)
}

/// Link the members of one cluster into the small member tree (machine-local: one
/// sort of the members, then a search per member). Returns the view with the layer
/// its cluster was formed at.
fn link_members(cluster: &ClusterHeader, members: &[MemberRec]) -> (u32, Linked) {
    // Member `b` hangs below member `a` when `a` accepts `b`'s outgoing edge: original
    // nodes accept every edge pointing at them, contracted clusters accept exactly
    // their recorded incoming edge. Index the members by what they accept — nodes by
    // id, contracted clusters by incoming edge; the first acceptor in member order
    // wins, as a scan over the members would have it.
    let out_edge = DirectedEdge::new(defining_node(cluster.id), cluster.out_parent);
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
    let linked = members
        .iter()
        .enumerate()
        .map(|(b, member)| {
            let edge = member.element.out_edge;
            let parent = (edge != out_edge)
                .then(|| acceptor(&edge))
                .flatten()
                .filter(|&a| a != b);
            // A contracted parent accepted this member's edge as its incoming edge.
            let enters = parent.is_some_and(|a| members[a].element.kind != ElementKind::Node);
            let e = &member.element;
            PlanMember::new(e.id, e.kind, member.out_kind, parent, enters)
        })
        .collect();
    let top = members
        .iter()
        .position(|m| m.element.out_edge == out_edge)
        .expect("the top member carries the cluster's outgoing edge");
    let view = Linked {
        members: linked,
        top,
        kind: cluster.kind,
        out_parent: cluster.out_parent,
        in_edge: cluster.in_edge.map(|e| {
            let attach = acceptor(&e);
            (e, attach, EdgeKind::leaving(e.child))
        }),
    };
    (cluster_layer(cluster.id), view)
}

/// Every view of `skeletons` (one per machine, `num_layers` layers each) with its
/// address, layer by layer, machine by machine.
pub(crate) fn all_views(
    skeletons: &[Skeletons],
    num_layers: u32,
) -> impl Iterator<Item = (ViewSlot, PlanView<'_>)> + '_ {
    (1..=num_layers).flat_map(move |layer| {
        skeletons
            .iter()
            .zip(0u32..)
            .flat_map(move |(held, machine)| {
                held.views(layer).zip(0u32..).map(move |(view, index)| {
                    let at = ViewSlot {
                        layer,
                        machine,
                        view: index,
                    };
                    (at, view)
                })
            })
    })
}

/// Drop the items whose old index `keep` rejects, the rest staying in order: the one
/// compaction the spliced slot state goes through — a view's member slots, or the
/// slots of a `(layer, machine)` bucket of views.
fn compact<T>(items: &mut Vec<T>, keep: &[bool]) {
    let mut old = 0;
    items.retain(|_| {
        old += 1;
        keep[old - 1]
    });
}

impl SolvePlan {
    /// File every machine's linked views in its skeletons, layer by layer, and derive
    /// the routing indexes from them.
    fn from_views(
        ctx: &mut MpcContext,
        clustering: &Clustering,
        aux_to_original: &DistVec<(NodeId, NodeId)>,
        views: DistVec<(u32, Linked)>,
    ) -> SolvePlan {
        let machines = ctx.config().num_machines();
        let mut top_machine = 0usize;
        // Machine i's views stay on machine i, where the gather assembled them; they
        // come layer by layer (cluster ids are layer-major) and are only packed.
        let skeletons: Vec<Skeletons> = views
            .into_chunks()
            .into_iter()
            .enumerate()
            .map(|(machine, chunk)| {
                let mut held = Skeletons::new(clustering.num_layers);
                for (layer, view) in chunk {
                    if view.kind == ElementKind::TopCluster {
                        top_machine = machine;
                    }
                    held.push(layer, view);
                }
                // The plan is kept as built (a solver store takes it by value): no
                // growth slack.
                held.shrink_to_fit();
                held
            })
            .collect();
        let resident: Vec<usize> = skeletons.iter().map(Skeletons::words).collect();
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
            routing: Routing::of(&skeletons, clustering.num_layers),
            skeletons,
        }
    }

    /// The skeleton view at `slot`.
    pub(crate) fn view_at(&self, slot: ViewSlot) -> PlanView<'_> {
        self.skeletons[slot.machine as usize].view(slot.layer, slot.view as usize)
    }

    /// The views `machine` holds at `layer`, in order.
    pub(crate) fn views_at(
        &self,
        layer: u32,
        machine: usize,
    ) -> impl Iterator<Item = PlanView<'_>> + '_ {
        self.skeletons[machine].views(layer)
    }

    /// Every view with its address, layer by layer, machine by machine.
    pub(crate) fn views(&self) -> impl Iterator<Item = (ViewSlot, PlanView<'_>)> + '_ {
        all_views(&self.skeletons, self.num_layers)
    }

    /// `true` when no machine holds a view at `layer`.
    fn layer_is_empty(&self, layer: u32) -> bool {
        self.skeletons.iter().all(|held| held.len_at(layer) == 0)
    }

    /// The address of `cluster`'s own view, through the routing indexes: the cluster's
    /// id names the child endpoint of its outgoing edge (its defining node), and the
    /// view reads that edge's label as its out-label. `None` when the plan holds no
    /// such cluster.
    pub fn view_slot_of(&self, cluster: ElementId) -> Option<ViewSlot> {
        self.routing
            .readers_as(defining_node(cluster), true)
            .find(|at| self.view_at(*at).cluster() == cluster)
    }

    /// The incoming edge `cluster`'s own view records, if the plan holds that view.
    fn cluster_in_edge(&self, cluster: ElementId) -> Option<DirectedEdge> {
        self.view_slot_of(cluster)
            .and_then(|at| self.view_at(at).in_edge())
    }

    /// The clustering element of member `i` of `view`, re-derived from the compact
    /// layout (see the [`skeleton`](crate::skeleton) module docs); `None` when the view
    /// a derivation reads is missing — only a malformed plan misses one.
    pub(crate) fn element(&self, view: &PlanView<'_>, i: usize) -> Option<Element> {
        let member = view.member(i);
        let is_cluster = member.kind() != ElementKind::Node;
        let out_parent = match view.out_parent(i) {
            Some(parent) => parent,
            None => {
                let parent = view.member(member.parent()?).id();
                self.cluster_in_edge(parent)?.parent
            }
        };
        let in_edge = match member.kind() {
            ElementKind::ClusterIndeg1 => Some(self.cluster_in_edge(member.id())?),
            _ => None,
        };
        Some(Element {
            id: member.id(),
            kind: member.kind(),
            formed_at: if is_cluster {
                cluster_layer(member.id())
            } else {
                0
            },
            absorbed_into: view.cluster(),
            absorbed_at: view.layer(),
            out_edge: DirectedEdge::new(member.out_child(), out_parent),
            in_edge,
        })
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
                let held = &mut self.skeletons[slot.machine as usize];
                let cluster = held.view(slot.layer, slot.view as usize).cluster();
                if repair.demoted.contains(&cluster) {
                    held.demote_view(slot.layer, slot.view as usize);
                }
            }
        }
        for cluster in &repair.demoted {
            if let Some(slot) = self.routing.payload(*cluster) {
                self.skeletons[slot.machine as usize].set_member_kind(
                    slot.layer,
                    slot.view as usize,
                    slot.member as usize,
                    ElementKind::ClusterIndeg0,
                );
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
                    .contains(&self.view_at(holder).cluster())
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
        // link parent, a node; a parent linked earlier in the batch is registered by
        // then).
        for leaf in repair.patches.values().flat_map(|p| &p.added) {
            let parent = *self
                .routing
                .payload(leaf.out_edge.parent)
                .expect("link parent is a member of the absorbing cluster");
            let idx = self.skeletons[parent.machine as usize].append_leaf(
                parent.layer,
                parent.view as usize,
                parent.member as usize,
                leaf.id,
            );
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
        let held = &mut self.skeletons[at.machine as usize];
        let view = held.view(at.layer, at.view as usize);
        let mut remap: Vec<Option<usize>> = Vec::with_capacity(view.members().len());
        let mut kept = 0usize;
        for (old, m) in view.members().iter().enumerate() {
            if removed.contains(&m.id()) {
                remap.push(None);
                continue;
            }
            if kept != old {
                self.routing
                    .move_member(*m, at.member_slot(old), at.member_slot(kept));
            }
            remap.push(Some(kept));
            kept += 1;
        }
        held.retain_members(at.layer, at.view as usize, &remap);
        let keep: Vec<bool> = remap.iter().map(Option::is_some).collect();
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
            let held = &mut self.skeletons[first.machine as usize];
            keep.clear();
            keep.resize(held.len_at(first.layer), true);
            keep[first.view as usize] = false;
            while let Some(next) =
                rest.next_if(|s| (s.layer, s.machine) == (first.layer, first.machine))
            {
                keep[next.view as usize] = false;
            }
            let mut to = 0u32;
            for (old, view) in held.views(first.layer).enumerate() {
                if !keep[old] {
                    continue;
                }
                if to != old as u32 {
                    let from = ViewSlot {
                        view: old as u32,
                        ..first
                    };
                    self.routing.readdress_view(&view, from, to);
                }
                to += 1;
            }
            held.retain_views(first.layer, &keep);
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
        let member_of = |s: &MemberSlot| {
            let view = self.view_at(s.view_slot());
            (view.cluster(), view.member(s.member as usize).id())
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
                    let by_id = readers
                        .iter()
                        .map(|r| (self.view_at(r.view).cluster(), r.as_out));
                    (key, by_id.collect())
                })
                .collect(),
            views: self
                .views()
                .map(|(_, view)| {
                    let id_at = |idx: usize| view.member(idx).id();
                    let members = (0..view.members().len())
                        .map(|i| {
                            let m = view.member(i);
                            let element = self
                                .element(&view, i)
                                .expect("a plan derives every element");
                            (m.id(), (element, m.out_kind(), m.parent().map(id_at)))
                        })
                        .collect();
                    let header = (view.kind(), view.out_edge(), view.in_edge(), view.in_kind());
                    let ends = (id_at(view.top()), view.attach().map(id_at));
                    (view.cluster(), (header, ends, members))
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
        self.skeletons.iter().map(Skeletons::num_views).sum()
    }

    /// Resident size of the skeleton views in machine words, over all machines: the
    /// compact layout's records at their [`Words`] widths (see the
    /// [`skeleton`](crate::skeleton) module docs) — the part of a plan that grows with
    /// the tree, without its routing indexes.
    pub fn skeleton_words(&self) -> usize {
        self.skeletons.iter().map(Skeletons::words).sum()
    }

    /// Approximate resident size of the plan in machine words: the skeleton views,
    /// plus the routing indexes at one word per key, per slot coordinate (four for a
    /// member slot; a reading view's three and its as-out flag), per list span and
    /// per two directory offsets. This is what the serving layer counts in a tenant's
    /// resident bytes — an estimate of what keeping the plan warm costs, not an exact
    /// allocator measurement.
    pub fn resident_words(&self) -> usize {
        let aux = self.aux_nodes.len() * 2;
        8 + self.skeleton_words() + self.routing.resident_words() + aux
    }

    /// The child endpoint of the first edge in `edges` that some member takes as its
    /// outgoing edge under another [`EdgeKind`] than the one recorded there, if any.
    /// A member's out-edge kind decides how its state step merges it into its parent,
    /// so it must be the kind of the degree-reduced edge list the plan was built over.
    /// One pass over `edges`, each looking up that edge's out-edge slots.
    pub fn out_kind_mismatch<'a>(
        &self,
        edges: impl IntoIterator<Item = &'a (DirectedEdge, EdgeKind)>,
    ) -> Option<NodeId> {
        edges.into_iter().find_map(|(e, kind)| {
            let slots = self.routing.out_edges.get(e.child).iter();
            let mut members = slots.map(|s| self.view_at(s.view_slot()).member(s.member as usize));
            members.any(|m| m.out_kind() != *kind).then_some(e.child)
        })
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

    /// One `init(skeleton)` per view, laid out like [`PlanState`]: by layer, machine
    /// and view.
    fn per_view<T>(&self, init: impl Fn(&PlanView<'_>) -> T) -> Vec<Vec<Vec<T>>> {
        let per_machine = |layer| {
            let init = &init;
            (0..self.num_machines)
                .map(move |machine| self.views_at(layer, machine).map(|v| init(&v)).collect())
                .collect()
        };
        (1..=self.num_layers).map(per_machine).collect()
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
                if self.layer_is_empty(layer) {
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
                    if self.layer_is_empty(layer) {
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
            self.views_at(layer, machine)
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
                    .map(move |view| (src, view.skeleton.cluster(), problem.summarize(&view)))
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
            let views = self.views_at(layer, src).zip(&state[li][src]);
            for ((skeleton, slots), (out_label, in_label)) in views.zip(&boundary[li][src]) {
                let out_label = out_label.as_ref().expect("boundary out-label present");
                let member_labels = problem.label_members(
                    &ClusterView { skeleton, slots },
                    out_label,
                    in_label.as_ref(),
                );
                let top = skeleton.top();
                output.extend(
                    skeleton
                        .members()
                        .iter()
                        .zip(member_labels)
                        .enumerate()
                        .filter(|(i, _)| *i != top)
                        .map(|(_, (m, label))| (m.out_child(), label)),
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

/// The slot state of every view of a plan, aligned with its skeletons:
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
        if let Some(drifted) = held.drift_from(&Routing::of(&self.skeletons, self.num_layers)) {
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
    /// before it hands out a plan read from bytes, on top of the member trees the
    /// compact layout is packed from: one skeleton set per machine, machine indexes
    /// in range, an incoming edge on exactly the indegree-1 views, every non-top
    /// cluster's summary flows to a member slot of its own kind at a higher layer,
    /// no other member is a cluster, the top cluster's view lies on `top_machine`, and
    /// no element has two member slots. `Err` names the first defect. `O(n log n)`.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.num_machines == 0 || self.skeletons.len() != self.num_machines {
            return Err("plan layer/machine layout");
        }
        if self.top_machine >= self.num_machines
            || self.aux_nodes.iter().any(|&(_, m)| m >= self.num_machines)
        {
            return Err("plan machine index");
        }
        let mut top_found = false;
        let mut cluster_members = 0;
        for (at, view) in self.views() {
            if view.in_edge().is_some() != (view.kind() == ElementKind::ClusterIndeg1) {
                return Err("plan view in-edge");
            }
            let members = view.members().iter();
            cluster_members += members.filter(|m| m.kind() != ElementKind::Node).count();
            let cluster = view.cluster();
            if cluster == self.top_cluster {
                top_found |= at.machine as usize == self.top_machine;
            } else {
                match self.routing.payload(cluster) {
                    Some(s) if s.layer > at.layer => {
                        let slot = self.view_at(s.view_slot()).member(s.member as usize);
                        if slot.kind() != view.kind() {
                            return Err("plan member kind");
                        }
                    }
                    _ => return Err("plan summary slot"),
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
        // Each non-top view matched one cluster member above, a distinct one: any
        // further cluster member claims a cluster no view summarizes.
        if cluster_members + 1 != self.num_views() {
            return Err("plan member kind");
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
            let machines = ctx.config().num_machines();
            let mut skeletons: Vec<Skeletons> = (0..machines)
                .map(|_| Skeletons::new(clustering.num_layers))
                .collect();
            let mut top_machine = None;
            for layer in 1..=clustering.num_layers {
                let views = skeletons_of_layer(
                    ctx,
                    clustering,
                    layer,
                    &edge_kinds,
                    &edges_sorted,
                    &elements_sorted,
                );
                for (machine, chunk) in views.into_chunks().into_iter().enumerate() {
                    for view in chunk {
                        if view.kind == ElementKind::TopCluster {
                            top_machine = Some(machine);
                        }
                        skeletons[machine].push(layer, view);
                    }
                }
            }
            SolvePlan {
                num_layers: clustering.num_layers,
                num_machines: machines,
                root: clustering.root,
                top_cluster: clustering.top_cluster,
                top_machine: top_machine.expect("the top cluster has a view"),
                aux_nodes: prepared
                    .aux_to_original
                    .chunks()
                    .iter()
                    .enumerate()
                    .flat_map(|(m, chunk)| chunk.iter().map(move |(aux, _)| (*aux, m)))
                    .collect(),
                routing: Routing::of(&skeletons, clustering.num_layers),
                skeletons,
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
    ) -> DistVec<Linked> {
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
        views
    }

    fn link_members_by_scan(
        cluster: &Element,
        members: &[MemberRec],
        in_kind: Option<EdgeKind>,
    ) -> Linked {
        let accepts = |a: &MemberRec, edge: &DirectedEdge| -> bool {
            if a.element.kind == ElementKind::Node {
                a.element.id == edge.parent
            } else {
                a.element.in_edge == Some(*edge)
            }
        };
        let linked = members
            .iter()
            .enumerate()
            .map(|(b, member)| {
                let edge = member.element.out_edge;
                let parent = (edge != cluster.out_edge)
                    .then(|| (0..members.len()).find(|&a| a != b && accepts(&members[a], &edge)))
                    .flatten();
                let enters = parent.is_some_and(|a| members[a].element.in_edge == Some(edge));
                let e = &member.element;
                PlanMember::new(e.id, e.kind, member.out_kind, parent, enters)
            })
            .collect();
        Linked {
            members: linked,
            top: members
                .iter()
                .position(|m| m.element.out_edge == cluster.out_edge)
                .expect("the top member carries the cluster's outgoing edge"),
            kind: cluster.kind,
            out_parent: cluster.out_edge.parent,
            in_edge: cluster.in_edge.map(|e| {
                let attach = members.iter().position(|m| accepts(m, &e));
                (e, attach, in_kind.unwrap_or(EdgeKind::Original))
            }),
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
        assert_eq!(plan.skeletons, reference.skeletons, "skeleton placement");
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
                (1..=plan.num_layers)
                    .filter(|&layer| !plan.layer_is_empty(layer))
                    .count(),
            );
            // The run-placed gather and one fused probe.
            assert_eq!(rounds, (sort + 1 + agg) + (sort + 1));
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

    /// Plan build's words per tree node at δ = 1/2: one gather of 12-word members and
    /// one probe of bare cluster ids against compact headers. The build that also
    /// sorted and probed the edge kinds and sorted the 10-word cluster elements read
    /// 21.9 on the path and 61.9 on the degree-reduced star; this one reads 13.2 and
    /// 30.8.
    #[test]
    fn plan_build_words_per_tree_node() {
        let shapes = [
            (shapes::path(4096), 16.0, false),
            (shapes::star(4096), 36.0, true),
        ];
        for (tree, bound, degree_reduced) in shapes {
            let (mut ctx, prepared) = prepared(&tree, 0.5);
            assert_eq!(!prepared.aux_to_original.is_empty(), degree_reduced);
            let (_, _, words) = charged(&mut ctx, |ctx| prepared.plan_uncached(ctx));
            let per_node = words as f64 / tree.len() as f64;
            assert!(
                per_node < bound,
                "{per_node:.1} plan-build words per node, bound {bound}"
            );
        }
    }
}
