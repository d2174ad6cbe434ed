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
//! that does not depend on the layer count (charged under `plan-build`). A member
//! travels as what the member tree is linked from: its absorbing cluster, its id and
//! its outgoing edge's parent, 3 words, and an indegree-1 cluster's incoming edge, 2
//! more. The gather deals the clusters over the machines at a fixed 12 words a member
//! (`MEMBER_DEAL_WORDS`), not at that width, and so fixes which machine every
//! skeleton lives on. Nothing else is fetched: an edge's kind is read off its child id
//! ([`EdgeKind::leaving`]), a member's kind and a cluster's layer and outgoing edge's
//! child off its id. The plan retains
//!
//! * per layer and per machine, the **skeleton view** of every cluster formed there
//!   ([`PlanView`]: members in their assembled order, parent/children links, top and
//!   attach indexes, boundary edges) in a compact layout of a few words per member —
//!   each member its id and one packed word, everything a view can derive left out,
//!   edge kinds included ([`skeleton`](crate::skeleton)) — and
//! * the **routing** of payloads and labels: every element's member slot, and every
//!   incoming edge's lowest entered view — a pure function of the skeletons, derived
//!   by one function at plan build and at link. Two flat key-sorted runs probed
//!   through the engine's segmented bucket
//!   [`Directory`](mpc_engine::Directory); the slots an edge's input reaches and the
//!   views reading a label are climbed from them, one layer a step (see the crate's
//!   `routing` module).
//!
//! [`SolvePlan::solve`] then runs any [`ClusterDp`] over the cached skeletons,
//! charging only the exchanges that genuinely depend on the problem: one scatter of
//! the node/edge inputs into their slots, one summary-forwarding round per layer going
//! up (bottom-up summarization, Section 5.1), and one label-forwarding round per layer
//! coming down (top-down labeling, Section 5.2). Solving `K` problems costs one
//! assembly plus `K` cheap evaluation passes.
//!
//! The skeletons are the one representation of a cluster's local view. An evaluation
//! pass fills slot columns beside them, one set per `(layer, machine)` bucket of views:
//! a payload and an out-edge-input column aligned with the bucket's members, an
//! in-edge-input column with one entry per view, and presence kept as bits (an
//! edge-input column of zero-sized records holds no bytes). The top-down pass keeps
//! each bucket's boundary labels as one more column. Problems get a
//! [`ClusterView`](crate::ClusterView) that borrows a skeleton and its column slices;
//! no view is ever copied out. A [`SolverStore`] is those columns kept, together with
//! the plan they are aligned with: the one plan of a tree that is maintained. A
//! structural repair is spliced into that plan and nowhere else
//! ([`SolverStore::apply_repair`]); a prepared tree that cached a plan drops it and
//! rebuilds on its next solve. A plan, fresh or spliced, is derived data: it equals
//! [`SolvePlan::link`] of its clustering under its own placement, the number of views
//! each machine holds at each layer ([`SolvePlan::view_counts`]) — the host-side
//! linker a snapshot decodes with.

use crate::problem::{ClusterDp, Payload, SlotColumns};
use crate::routing::Routing;
use crate::store::SolverStore;
use mpc_engine::{unmetered, DistVec, MpcContext, Words};
use std::collections::BTreeSet;
#[cfg(doc)]
use tree_clustering::EdgeKind;
use tree_clustering::{
    cluster_layer, defining_node, is_cluster_id, Clustering, Element, ElementId, ElementKind,
    AUX_BASE,
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

use crate::skeleton::{Linked, Skeletons, MAX_MEMBERS};
pub use crate::skeleton::{PlanMember, PlanView};

/// Where an element's payload (input or summary) or an edge's input lives: a member
/// slot inside a skeleton view.
///
/// Ordered `(layer, machine, view, member)`, the order the views lie in and the order
/// every routing climb runs in. Layers count from 1; a slot at layer 0 is the
/// tombstone of a removed key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct MemberSlot {
    pub(crate) layer: u32,
    pub(crate) machine: u32,
    pub(crate) view: u32,
    pub(crate) member: u32,
}

/// One skeleton view, addressed by layer/machine/index (and ordered that way). The
/// address of a view in its plan and of its slots in a [`SolverStore`]; a
/// structural splice may move the views behind a deleted one, so an address is good
/// until the next [`SolverStore::apply_repair`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ViewSlot {
    pub(crate) layer: u32,
    pub(crate) machine: u32,
    pub(crate) view: u32,
}

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
    /// The routing over the skeletons: derived from them ([`Routing::of`]) at build
    /// and decode, patched in place by the splice.
    pub(crate) routing: Routing,
}

/// One member on its way into a skeleton view: what [`link_members`] reads of its
/// element. The kind is not shipped: a member is a node unless its id is a cluster
/// id ([`is_cluster_id`]), and a cluster member is indegree-1 exactly when it has an
/// incoming edge. The outgoing edge leaves the member's id, or [`defining_node`] of a
/// cluster id, so only its parent travels.
struct MemberRec {
    /// The absorbing cluster: the gather key, whose [`cluster_layer`] is the run.
    cluster: ElementId,
    id: ElementId,
    out_parent: NodeId,
    /// The incoming edge of an indegree-1 cluster member.
    in_edge: Option<DirectedEdge>,
}

impl MemberRec {
    /// The member record of `e`; `None` for the top cluster, which is no member.
    fn of(e: &Element) -> Option<MemberRec> {
        (e.kind != ElementKind::TopCluster).then_some(MemberRec {
            cluster: e.absorbed_into,
            id: e.id,
            out_parent: e.out_edge.parent,
            in_edge: e.in_edge,
        })
    }

    fn kind(&self) -> ElementKind {
        match (is_cluster_id(self.id), self.in_edge.is_some()) {
            (false, _) => ElementKind::Node,
            (true, false) => ElementKind::ClusterIndeg0,
            (true, true) => ElementKind::ClusterIndeg1,
        }
    }

    fn out_edge(&self) -> DirectedEdge {
        let child = match is_cluster_id(self.id) {
            true => defining_node(self.id),
            false => self.id,
        };
        DirectedEdge::new(child, self.out_parent)
    }
}

impl Words for MemberRec {
    fn words(&self) -> usize {
        // Absorbing cluster, id and outgoing edge's parent, and the incoming edge when
        // there is one; its presence flag rides the id's high bit, which no member id
        // sets (only the virtual node's does).
        3 + self.in_edge.map_or(0, |e| e.words())
    }
}

/// The width plan build deals a member at when it places the gathered clusters: a
/// cluster's group counts as two words (its key and one) plus this many per member.
/// Twelve is the width of the whole-element records the gather once shipped; keeping
/// it fixes which machine every skeleton lives on, and with that every plan-solve
/// volume, whatever the record carries. Re-choosing it is the layout decision of
/// deriving the plan from the clustering (ROADMAP item 23).
const MEMBER_DEAL_WORDS: usize = 12;

/// Build the solve plan of a clustering: assemble the skeleton view of every cluster
/// of every layer — each fully contained in one machine — and record the skeletons
/// and their routing. One group gathering and one probe, whatever the number of
/// layers. Charged under the `plan-build` phase.
pub(crate) fn build_plan(
    ctx: &mut MpcContext,
    clustering: &Clustering,
    aux_to_original: &DistVec<(NodeId, NodeId)>,
) -> SolvePlan {
    ctx.phase("plan-build", |ctx| {
        // Machine i's views stay on machine i, where the gather assembled them.
        let views = build_skeletons(ctx, clustering).into_chunks();
        let plan = SolvePlan::filed(clustering, aux_to_original, views);
        let resident: Vec<usize> = plan.skeletons.iter().map(Skeletons::words).collect();
        ctx.check_memory_words(&resident, "plan/skeletons");
        plan
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

impl ClusterHeader {
    /// The header of `e`; `None` for a node.
    fn of(e: &Element) -> Option<ClusterHeader> {
        e.kind.is_cluster().then_some(ClusterHeader {
            id: e.id,
            kind: e.kind,
            out_parent: e.out_edge.parent,
            in_edge: e.in_edge,
        })
    }
}

impl Words for ClusterHeader {
    fn words(&self) -> usize {
        // Id, kind (with a flag for the incoming edge), outgoing edge's parent, and
        // the incoming edge when there is one.
        3 + self.in_edge.map_or(0, |e| e.words())
    }
}

/// Assemble the linked view of every cluster, each fully contained in one machine and
/// every layer's views spread over all machines: gather the member records by
/// absorbing cluster — once, for all layers, dealt at [`MEMBER_DEAL_WORDS`] a member —
/// attach the cluster's header (probed in a table of
/// the cluster elements alone, the only ones a cluster id can name; the bare id is
/// sent and the answer rejoins its group where the group lies), and link the member
/// tree locally. No edge kind is fetched: a view reads kinds off the ids
/// ([`EdgeKind::leaving`]). Machine `i`'s views come layer by layer, in cluster-id
/// order within a layer, each with the layer its cluster was formed at.
fn build_skeletons(ctx: &mut MpcContext, clustering: &Clustering) -> DistVec<(u32, Linked)> {
    let member_recs = clustering.elements.filter_map_local(MemberRec::of);
    // A cluster id carries the layer the cluster is formed at above the defining
    // element's id, so the key order is layer-major and every layer is one run.
    let grouped = ctx.gather_group_runs(
        member_recs,
        |m| m.cluster,
        |m| cluster_layer(m.cluster),
        |_| MEMBER_DEAL_WORDS,
    );

    let headers = clustering.elements.filter_map_local(ClusterHeader::of);
    let cluster_ids = grouped.filter_map_local(|(cid, _)| Some(*cid));
    let found = ctx.join_lookup(cluster_ids, |cid| *cid, &headers, |h| h.id);
    grouped.zip_local(found, |(_, members), (_, header)| {
        let header = header.expect("cluster header exists");
        link_members(&header, &members).expect("a built clustering links")
    })
}

/// The first member (lowest index) filed under `key` in a sorted `(key, member)` index.
fn first_under<K: Ord>(index: &[(K, usize)], key: &K) -> Option<usize> {
    let at = index.partition_point(|(k, _)| k < key);
    index.get(at).filter(|(k, _)| k == key).map(|&(_, m)| m)
}

/// Link the members of one cluster into the small member tree (machine-local: one
/// sort of the members, then a search per member). Returns the view with the layer
/// its cluster was formed at; `Err` when no member carries the cluster's outgoing
/// edge.
fn link_members(
    cluster: &ClusterHeader,
    members: &[MemberRec],
) -> Result<(u32, Linked), &'static str> {
    // Member `b` hangs below member `a` when `a` accepts `b`'s outgoing edge: original
    // nodes accept every edge pointing at them, contracted clusters accept exactly
    // their recorded incoming edge. Index the members by what they accept — nodes by
    // id, contracted clusters by incoming edge; the first acceptor in member order
    // wins, as a scan over the members would have it.
    let out_edge = DirectedEdge::new(defining_node(cluster.id), cluster.out_parent);
    let mut nodes: Vec<(ElementId, usize)> = Vec::with_capacity(members.len());
    let mut contracted: Vec<(DirectedEdge, usize)> = Vec::new();
    for (idx, m) in members.iter().enumerate() {
        if !is_cluster_id(m.id) {
            nodes.push((m.id, idx));
        } else if let Some(in_edge) = m.in_edge {
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
            let edge = member.out_edge();
            let parent = (edge != out_edge)
                .then(|| acceptor(&edge))
                .flatten()
                .filter(|&a| a != b);
            // A contracted parent accepted this member's edge as its incoming edge.
            let enters = parent.is_some_and(|a| is_cluster_id(members[a].id));
            PlanMember::new(member.id, member.kind(), parent, enters)
        })
        .collect();
    let top = members
        .iter()
        .position(|m| m.out_edge() == out_edge)
        .ok_or("clustering cluster without the member its outgoing edge leaves")?;
    let view = Linked {
        members: linked,
        top,
        kind: cluster.kind,
        out_parent: cluster.out_parent,
        in_edge: cluster.in_edge.map(|e| (e, acceptor(&e))),
    };
    Ok((cluster_layer(cluster.id), view))
}

/// Link the view of every cluster of `clustering`, in cluster-id order (layer-major),
/// each with the layer it is filed at, after checking what [`SolvePlan::link`] lists,
/// without expanding any cluster to its nodes. `Err` names the first defect.
pub(crate) fn link_views(
    clustering: &Clustering,
    aux_to_original: &DistVec<(NodeId, NodeId)>,
) -> Result<Vec<(u32, Linked)>, &'static str> {
    let (top, layers) = (clustering.top_cluster, clustering.num_layers);
    if aux_to_original.num_chunks() != clustering.elements.num_chunks() {
        return Err("tree tables of different machine counts");
    }
    if (cluster_layer(top), defining_node(top)) != (layers, clustering.root) {
        return Err("clustering top cluster");
    }
    let mut ids = Vec::with_capacity(clustering.elements.len());
    let (mut headers, mut members, mut tops) = (Vec::new(), Vec::new(), 0);
    for e in clustering.elements.iter() {
        ids.push(e.id);
        let is_cluster = e.kind.is_cluster();
        if is_cluster_id(e.id) != is_cluster
            || e.in_edge.is_some() != (e.kind == ElementKind::ClusterIndeg1)
        {
            return Err("clustering element kind");
        }
        let formed = if is_cluster { cluster_layer(e.id) } else { 0 };
        if e.formed_at != formed || (is_cluster && !(1..=layers).contains(&formed)) {
            return Err("clustering element layer");
        }
        headers.extend(ClusterHeader::of(e));
        let Some(member) = MemberRec::of(e) else {
            tops += 1;
            if e.id != top {
                return Err("clustering top cluster");
            }
            continue;
        };
        // Absorbed above its own layer: every climb from a member to the slot of its
        // view's cluster rises.
        if cluster_layer(member.cluster) != e.absorbed_at || e.absorbed_at <= formed {
            return Err("clustering absorption layer");
        }
        members.push(member);
    }
    if tops != 1 {
        return Err("clustering top cluster");
    }
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err("clustering element ids");
    }
    headers.sort_unstable_by_key(|h| h.id);
    // Stable: a cluster's members keep their element-table order.
    members.sort_by_key(|m| m.cluster);
    let (mut groups, mut rest) = (Vec::with_capacity(headers.len()), &members[..]);
    while let Some(first) = rest.first() {
        let (group, tail) = rest.split_at(rest.partition_point(|m| m.cluster == first.cluster));
        groups.push(group);
        rest = tail;
    }
    let aligned = headers
        .iter()
        .zip(&groups)
        .all(|(h, g)| g[0].cluster == h.id);
    if groups.len() != headers.len() || !aligned {
        return Err("clustering absorbing cluster");
    }
    // An edge's child once per view it enters not through an attach member it enters
    // too: the lowest view of the chain a routing climb follows.
    let mut lowest = Vec::new();
    let mut views = Vec::with_capacity(headers.len());
    for (header, group) in headers.iter().zip(groups) {
        let (layer, view) = link_members(header, group)?;
        check_member_tree(&view.members, view.top)?;
        if let Some((edge, attach)) = view.in_edge {
            if !attach.is_some_and(|a| group[a].in_edge == Some(edge)) {
                lowest.push(edge.child);
            }
        }
        views.push((layer, view));
    }
    lowest.sort_unstable();
    if lowest.windows(2).any(|w| w[0] == w[1]) {
        return Err("clustering in-edge");
    }
    Ok(views)
}

/// Check that linked `members` form one tree of fewer than [`MAX_MEMBERS`] members
/// hanging from member `top`: walking up from any member ends at the top, not at a
/// second root or in a cycle.
fn check_member_tree(members: &[PlanMember], top: usize) -> Result<(), &'static str> {
    let n = members.len();
    if n >= MAX_MEMBERS {
        return Err("view member count");
    }
    let mut hangs = vec![false; n];
    hangs[top] = true;
    let mut walk = Vec::new();
    for start in 0..n {
        let mut i = start;
        while !hangs[i] {
            // A walk through more than `n` members has gone round a cycle.
            if walk.len() == n {
                return Err("view member tree");
            }
            walk.push(i);
            i = members[i].parent().ok_or("view member tree")?;
        }
        walk.drain(..).for_each(|j| hangs[j] = true);
    }
    Ok(())
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

impl SolvePlan {
    /// The plan of `clustering` placed by `view_counts` (layer-major, as
    /// [`view_counts`](Self::view_counts) reads them off a plan) on as many machines as
    /// the element table has chunks: each layer's clusters in id order, cut into runs
    /// by the counts, each linked from its members in element-table order. Plan build
    /// deals and orders so, and a splice keeps both orders, so every plan is the link
    /// of its clustering under its own counts, bit for bit. Host-side, zero rounds.
    /// `Err` names the first defect of the counts or of what linking and evaluation
    /// rely on: one machine count for the clustering's and `aux_to_original`'s tables;
    /// unique ids; one top cluster, naming the root and the top layer; kinds that agree
    /// with the ids and incoming edges; every other element absorbed into a cluster
    /// formed at its `absorbed_at`, above its own `formed_at`; every cluster's members
    /// one tree below the one its outgoing edge leaves; and the views an edge enters
    /// chaining up from one lowest view.
    pub fn link(
        clustering: &Clustering,
        aux_to_original: &DistVec<(NodeId, NodeId)>,
        view_counts: &[usize],
    ) -> Result<SolvePlan, &'static str> {
        let machines = clustering.elements.num_chunks();
        if (clustering.num_layers as usize).checked_mul(machines) != Some(view_counts.len()) {
            return Err("plan view counts");
        }
        let mut views = link_views(clustering, aux_to_original)?
            .into_iter()
            .peekable();
        let mut chunks: Vec<Vec<(u32, Linked)>> = (0..machines).map(|_| Vec::new()).collect();
        for (bucket, &count) in view_counts.iter().enumerate() {
            let layer = (bucket / machines) as u32 + 1;
            for _ in 0..count {
                let view = views.next_if(|(at, _)| *at == layer);
                chunks[bucket % machines].push(view.ok_or("plan view counts")?);
            }
        }
        match views.next() {
            Some(_) => Err("plan view counts"),
            None => Ok(SolvePlan::filed(clustering, aux_to_original, chunks)),
        }
    }

    /// The plan of `clustering` with machine `i`'s views, layer by layer, from
    /// `chunks[i]`: packed into skeletons, with the auxiliary nodes read off
    /// `aux_to_original`'s machines and the routing derived from the skeletons.
    fn filed(
        clustering: &Clustering,
        aux_to_original: &DistVec<(NodeId, NodeId)>,
        chunks: Vec<Vec<(u32, Linked)>>,
    ) -> SolvePlan {
        let mut top_machine = 0usize;
        let skeletons: Vec<Skeletons> = (chunks.into_iter().enumerate())
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
        SolvePlan {
            num_layers: clustering.num_layers,
            num_machines: skeletons.len(),
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

    /// Index of the `(layer, machine)` bucket in a [`PlanState`]: layer-major, as the
    /// views lie.
    pub(crate) fn bucket(&self, layer: u32, machine: usize) -> usize {
        (layer as usize - 1) * self.num_machines + machine
    }

    /// The bucket holding the view at `at`.
    pub(crate) fn bucket_of(&self, at: ViewSlot) -> usize {
        self.bucket(at.layer, at.machine as usize)
    }

    /// The bucket holding the member at `slot`, and its offset in the member columns.
    pub(crate) fn column_of(&self, slot: MemberSlot) -> (usize, usize) {
        let held = &self.skeletons[slot.machine as usize];
        let first = held.slot_offset(slot.layer, slot.view as usize);
        let bucket = self.bucket_of(slot.view_slot());
        (bucket, first + slot.member as usize)
    }

    /// Empty slot columns for every bucket.
    fn empty_state<P: ClusterDp>(&self) -> PlanState<P> {
        let per_layer = |layer| self.skeletons.iter().map(move |held| (layer, held));
        (1..=self.num_layers)
            .flat_map(per_layer)
            .map(|(layer, held)| SlotColumns::new(held.members_at(layer), held.len_at(layer)))
            .collect()
    }

    /// The words the views of a bucket hold, as `plan/views` bills them: every skeleton
    /// in its compact layout, and the bucket's slot `columns`.
    pub(crate) fn bucket_words<P: ClusterDp>(
        &self,
        layer: u32,
        machine: usize,
        columns: &SlotColumns<P>,
    ) -> usize {
        let skeletons = self.views_at(layer, machine).map(|view| view.words());
        skeletons.sum::<usize>() + columns.words()
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
    pub fn views(&self) -> impl Iterator<Item = (ViewSlot, PlanView<'_>)> + '_ {
        all_views(&self.skeletons, self.num_layers)
    }

    /// `true` when no machine holds a view at `layer`.
    fn layer_is_empty(&self, layer: u32) -> bool {
        self.skeletons.iter().all(|held| held.len_at(layer) == 0)
    }

    /// The address of `cluster`'s own view, climbed through the routing: the cluster's
    /// id names the child endpoint of its outgoing edge (its defining node), and the
    /// view reads that edge's label as its out-label. `None` when the plan holds no
    /// such cluster.
    pub fn view_slot_of(&self, cluster: ElementId) -> Option<ViewSlot> {
        self.out_readers(defining_node(cluster), cluster)
            .find(|at| self.view_at(*at).cluster() == cluster)
    }

    /// Splice a structural repair into the skeletons and their routing: drop the
    /// views of removed clusters, drop removed members (remapping
    /// parent/child/top/attach indexes), demote clusters whose incoming edge was cut,
    /// and append the new leaf members.
    ///
    /// Every view the repair touches is addressed through the routing itself — a
    /// removed or demoted element's payload slot names the view that holds it, a cut
    /// edge's in-label readers name the views it entered — and the runs are patched
    /// entry by entry: keys of removed elements and edges become tombstones, new
    /// leaves go to the overflow run, and only the views behind a deleted one in its
    /// `(layer, machine)` bucket are re-addressed. A run whose patches pass an eighth
    /// of its entries is rebuilt from its live entries. The result equals a
    /// from-scratch derivation over the spliced skeletons, at a cost confined to the
    /// touched buckets (amortized over the rebuilds).
    ///
    /// The slot columns `state` (aligned slot for slot with the skeletons) are
    /// compacted by the same remaps, and a new leaf's member gets an empty slot. What a
    /// repair writes or clears (a new leaf's inputs, a demoted view's in-edge input)
    /// the caller writes itself, at the addresses the spliced routing gives. This is
    /// the only splice there is, and
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
        let entered: Vec<ViewSlot> = (repair.removed_nodes.iter())
            .flat_map(|child| self.in_readers(*child))
            .collect();
        for slot in entered {
            let held = &mut self.skeletons[slot.machine as usize];
            let cluster = held.view(slot.layer, slot.view as usize).cluster();
            if repair.demoted.contains(&cluster) {
                held.demote_view(slot.layer, slot.view as usize);
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
        // that cluster's view, and a removed edge loses its in-reader entry (every view
        // it entered is removed or just demoted).
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
            let (bucket, at) = self.column_of(slot);
            state[bucket].insert_member(at);
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
        let bucket = self.bucket_of(at);
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
                self.routing.move_member(*m, at.member_slot(kept));
            }
            remap.push(Some(kept));
            kept += 1;
        }
        let before = std::iter::repeat(true).take(view.slots().start);
        let keep = before.chain(remap.iter().map(Option::is_some));
        state[bucket].retain_members(keep);
        held.retain_members(at.layer, at.view as usize, &remap);
    }

    /// Delete the views at `doomed` (whose routing entries are already gone) and
    /// re-address the views behind them in the same `(layer, machine)` bucket.
    fn remove_views<P: ClusterDp>(
        &mut self,
        doomed: &BTreeSet<ViewSlot>,
        state: &mut PlanState<P>,
    ) {
        let mut rest = doomed.iter().copied().peekable();
        let (mut keep, mut members) = (Vec::new(), Vec::new());
        while let Some(first) = rest.next() {
            let bucket = self.bucket_of(first);
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
            members.clear();
            for (old, view) in held.views(first.layer).enumerate() {
                members.push(view.members().len());
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
            state[bucket].retain_views(&keep, &members);
            held.retain_views(first.layer, &keep);
        }
    }
}

impl SolvePlan {
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

    /// The number of views every machine holds at every layer, layer-major: the
    /// plan's placement, all that [`link`](Self::link) needs beside the clustering.
    pub fn view_counts(&self) -> Vec<usize> {
        let per_layer = |layer| self.skeletons.iter().map(move |held| held.len_at(layer));
        (1..=self.num_layers).flat_map(per_layer).collect()
    }

    /// Total number of cached skeleton views across all layers.
    pub fn num_views(&self) -> usize {
        self.skeletons.iter().map(Skeletons::num_views).sum()
    }

    /// Resident size of the skeleton views in machine words, over all machines: the
    /// compact layout's records at their [`Words`] widths (see the
    /// [`skeleton`](crate::skeleton) module docs) — the part of a plan that grows with
    /// the tree, without its routing.
    pub fn skeleton_words(&self) -> usize {
        self.skeletons.iter().map(Skeletons::words).sum()
    }

    /// Approximate resident size of the plan in machine words: the skeleton views,
    /// plus the routing runs at one word per key, per slot coordinate (four for a
    /// member slot, three for a view slot) and per two directory offsets. This is what
    /// the serving layer counts in a tenant's resident bytes — an estimate of what
    /// keeping the plan warm costs, not an exact allocator measurement.
    pub fn resident_words(&self) -> usize {
        let aux = self.aux_nodes.len() * 2;
        8 + self.skeleton_words() + self.routing.resident_words() + aux
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
            let mut state = self.empty_state();

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
            let mut boundary: Vec<Vec<BoundaryLabels<P::Label>>> = (state.iter())
                .map(|columns| columns.in_inputs.values.len())
                .map(|views| (0..views).map(|_| (None, None)).collect())
                .collect();
            // A machine labels at most one edge per member it holds.
            let mut label_chunks: Vec<Vec<(NodeId, P::Label)>> = (self.skeletons.iter())
                .map(|held| Vec::with_capacity(held.num_members()))
                .collect();
            label_chunks[self.top_machine].push((self.root, root_label.clone()));
            ctx.phase("plan-down", |ctx| {
                // The root label is conceptually produced above every layer.
                let (mut sends, mut recvs) = (vec![0; machines], vec![0; machines]);
                let delivered = self.place_label(
                    self.root,
                    &root_label,
                    Some(self.top_cluster),
                    self.top_machine,
                    self.num_layers + 1,
                    &mut boundary,
                    (&mut sends, &mut recvs),
                );
                if delivered {
                    ctx.charge_rounds(1);
                    ctx.record_comm(&sends, &recvs, "plan-down");
                }
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
    /// the summary-forwarding charge) and a moved edge record a `(child, input)` pair
    /// (`1 + input` words). On duplicate records the first one wins the slot (join
    /// semantics).
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
        let mut charge = |src: usize, dst: u32, words: usize| {
            if dst as usize != src {
                sends[src] += words;
                recvs[dst as usize] += words;
            }
        };
        let aux = self
            .aux_nodes
            .iter()
            .map(|&(aux, src)| (src, aux, aux_input));
        for (src, node, input) in held_records(node_inputs).chain(aux) {
            let Some(&slot) = self.routing.payload(node) else {
                continue;
            };
            let (bucket, at) = self.column_of(slot);
            if state[bucket].payloads[at].is_none() {
                charge(src, slot.machine, 2 + input.words());
                state[bucket].payloads[at] = Some(Payload::Input(input.clone()));
            }
        }
        for (src, child, input) in held_records(edge_inputs) {
            let outs = self.out_slots(child).map(|slot| {
                let (bucket, at) = self.column_of(slot);
                (slot.machine, bucket, at, true)
            });
            let ins = self.in_readers(child).map(|at| {
                let bucket = self.bucket_of(at);
                (at.machine, bucket, at.view as usize, false)
            });
            for (machine, bucket, at, out) in outs.chain(ins) {
                let column = match out {
                    true => &mut state[bucket].out_inputs,
                    false => &mut state[bucket].in_inputs,
                };
                if column.get(at).is_none() {
                    charge(src, machine, 1 + input.words());
                    column.set(at, Some(input.clone()));
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
        let machines = self.num_machines;
        let views_of = |machine: usize| {
            let columns = &state[self.bucket(layer, machine)];
            self.views_at(layer, machine)
                .map(|skeleton| columns.view(skeleton))
        };
        // This layer's views join the resident set (released only after top-down):
        // every skeleton and the bucket's slot columns.
        for (machine, words) in resident.iter_mut().enumerate() {
            *words += self.bucket_words(layer, machine, &state[self.bucket(layer, machine)]);
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
            let (bucket, at) = self.column_of(*slot);
            state[bucket].payloads[at] = Some(Payload::Summary(summary));
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
        boundary: &mut [Vec<BoundaryLabels<P::Label>>],
        label_chunks: &mut [Vec<(NodeId, P::Label)>],
    ) {
        let machines = self.num_machines;
        let mut sends = vec![0usize; machines];
        let mut recvs = vec![0usize; machines];
        let mut any_delivered = false;
        // Labels are forwarded to their readers, which sit at lower layers, and go
        // into the machine's output; this layer's boundary labels stay put.
        let (below, here) = boundary.split_at_mut(self.bucket(layer, 0));
        for (src, output) in label_chunks.iter_mut().enumerate() {
            let columns = &state[self.bucket(layer, src)];
            for (skeleton, (out_label, in_label)) in self.views_at(layer, src).zip(&here[src]) {
                let out_label = out_label.as_ref().expect("boundary out-label present");
                let member_labels =
                    problem.label_members(&columns.view(skeleton), out_label, in_label.as_ref());
                let members = skeleton.members().iter().zip(member_labels).enumerate();
                for (_, (m, label)) in members.filter(|(i, _)| *i != skeleton.top()) {
                    // A node member tops no view: only a cluster member's edge has
                    // out-label readers, its own view and those below on its climb.
                    let out_through = (m.kind() != ElementKind::Node).then_some(m.id());
                    any_delivered |= self.place_label(
                        m.out_child(),
                        &label,
                        out_through,
                        src,
                        layer,
                        below,
                        (&mut sends, &mut recvs),
                    );
                    output.push((m.out_child(), label));
                }
            }
        }
        if any_delivered {
            ctx.charge_rounds(1);
            ctx.record_comm(&sends, &recvs, "plan-down");
        }
    }

    /// Write `label`, produced on machine `src` at `producer_layer`, into every reader
    /// slot below that layer — the out-label readers through the view of cluster
    /// `out_through`, none when it is `None` — and add the moved words to
    /// `(sends, recvs)`. Returns `true` when at least one reader
    /// received it (whether or not any words crossed machines — the forwarding round
    /// still happens).
    #[allow(clippy::too_many_arguments)]
    fn place_label<L: Clone + Words>(
        &self,
        key: NodeId,
        label: &L,
        out_through: Option<ElementId>,
        src: usize,
        producer_layer: u32,
        boundary: &mut [Vec<BoundaryLabels<L>>],
        (sends, recvs): (&mut [usize], &mut [usize]),
    ) -> bool {
        // The out-label readers end at the producing member's own view, below it. An
        // in-label reader at or above the producer was labeled before this key was
        // produced and read `None`; the climb runs bottom up, so it stops at the first.
        let out_readers = out_through.map(|through| self.out_readers(key, through));
        let in_readers = self
            .in_readers(key)
            .take_while(|at| at.layer < producer_layer);
        let readers = (out_readers.into_iter().flatten().map(|at| (at, true)))
            .chain(in_readers.map(|at| (at, false)));
        let mut delivered = false;
        for (vslot, as_out) in readers {
            delivered = true;
            if vslot.machine as usize != src {
                let w = 1 + label.words();
                sends[src] += w;
                recvs[vslot.machine as usize] += w;
            }
            let cell = &mut boundary[self.bucket_of(vslot)][vslot.view as usize];
            if as_out {
                cell.0 = Some(label.clone());
            } else {
                cell.1 = Some(label.clone());
            }
        }
        delivered
    }
}

/// Every keyed record of `records`, with the machine holding it.
fn held_records<T>(records: &DistVec<(NodeId, T)>) -> impl Iterator<Item = (usize, NodeId, &T)> {
    let chunks = records.chunks().iter().enumerate();
    chunks.flat_map(|(src, chunk)| chunk.iter().map(move |(key, record)| (src, *key, record)))
}

/// The slot columns of every view of a plan, aligned with its skeletons: one set per
/// `(layer, machine)` bucket, at [`SolvePlan::bucket`].
pub(crate) type PlanState<P> = Vec<SlotColumns<P>>;

/// The `(out-label, in-label)` delivered to one view before its top-down step; a
/// bucket's are a column of these, one per view.
type BoundaryLabels<L> = (Option<L>, Option<L>);

impl SolvePlan {
    /// Name the first routing run — `payload_slot` or `in_readers` — whose live
    /// entries differ from a re-derivation over the skeleton views ([`Routing::of`]),
    /// or `payload_slot` when its node keys other than the root are not exactly
    /// `edge_children` — the edge children of the degree-reduced edge list the plan
    /// takes edge inputs from, each climbing to its input slots from its node's own:
    /// the zero-round drift alarm for a plan that has been spliced in place.
    pub(crate) fn audit_routing(&self, edge_children: &BTreeSet<NodeId>) -> Result<(), String> {
        let held = &self.routing;
        if let Some(drifted) = held.drift_from(&Routing::of(&self.skeletons, self.num_layers)) {
            return Err(format!(
                "routing run {drifted} differs from a re-derivation over the skeleton views"
            ));
        }
        // Keys are sorted and cluster ids flagged high: the node keys come first.
        let nodes = (held.payloads.iter().map(|(key, _)| key))
            .take_while(|key| !is_cluster_id(*key))
            .filter(|key| *key != self.root);
        if !nodes.eq(edge_children.iter().copied()) {
            return Err("routing run payload_slot holds other nodes than the edge list".into());
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
    use tree_clustering::VIRTUAL_NODE;
    use tree_gen::{shapes, standard_suite};
    use tree_repr::{ListOfEdges, Tree, TreeInput};

    /// The plan build this module had before it gathered all layers at once, kept as
    /// the reference: per layer three probes that ship the whole member record (then
    /// the whole gathered group) as the request, one `gather_groups`, and a member
    /// tree linked by scanning for the acceptor. Its two edge-list probes fetch every
    /// member's outgoing edge and every cluster's incoming edge, two-word records as
    /// that build's were, and check them against the elements.
    fn build_plan_per_layer(ctx: &mut MpcContext, prepared: &PreparedTree) -> SolvePlan {
        let clustering = &prepared.clustering;
        ctx.phase("plan-build", |ctx| {
            let edge_list: DistVec<(NodeId, NodeId)> =
                prepared.edges.clone().map_local(|e| (e.child, e.parent));
            let edges_sorted = ctx.sort_table(&edge_list, |d| d.0);
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
                    &edge_list,
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

    /// A member as the per-layer reference ships it: the whole element, billed with
    /// two words more — the 12 words plan build still deals its members at.
    struct WholeMember {
        element: Element,
    }

    impl Words for WholeMember {
        fn words(&self) -> usize {
            self.element.words() + 2
        }
    }

    fn skeletons_of_layer(
        ctx: &mut MpcContext,
        clustering: &Clustering,
        layer: u32,
        edge_list: &DistVec<(NodeId, NodeId)>,
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
        // Every edge a member leaves by or a cluster is entered by is in the edge list,
        // but the virtual edge above the root.
        let listed = |e: DirectedEdge| (e.parent != VIRTUAL_NODE).then_some((e.child, e.parent));
        let member_recs = ctx
            .join_lookup_sorted(
                members_at_layer,
                |e| e.out_edge.child,
                edge_list,
                edges_sorted,
            )
            .map_local(|(element, edge)| {
                assert_eq!(*edge, listed(element.out_edge));
                WholeMember { element: *element }
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
            edge_list,
            edges_sorted,
        );
        let views = with_in_edge.map_local(|(((_, members), cluster), in_edge)| {
            let cluster = cluster.as_ref().expect("cluster element exists");
            assert_eq!(*in_edge, cluster.in_edge.and_then(listed));
            link_members_by_scan(cluster, members)
        });
        views
    }

    fn link_members_by_scan(cluster: &Element, members: &[WholeMember]) -> Linked {
        let accepts = |a: &WholeMember, edge: &DirectedEdge| -> bool {
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
                PlanMember::new(member.element.id, member.element.kind, parent, enters)
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
            in_edge: cluster
                .in_edge
                .map(|e| (e, members.iter().position(|m| accepts(m, &e)))),
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
        let before = ctx.metrics().violations.len();
        let plan = prepared.plan_uncached(&mut ctx);
        let breaches: Vec<_> = ctx.metrics().violations[before..]
            .iter()
            .filter(|v| v.context.starts_with("plan-build/"))
            .collect();
        assert!(breaches.is_empty(), "the one gather breaches: {breaches:?}");
        assert_eq!(plan.skeletons, reference.skeletons, "skeleton placement");
        assert_eq!(plan, reference);
        let counts = plan.view_counts();
        let linked = SolvePlan::link(&prepared.clustering, &prepared.aux_to_original, &counts);
        assert_eq!(
            linked.as_ref(),
            Ok(&plan),
            "the plan is its clustering's link"
        );
        let edge_children: BTreeSet<NodeId> = prepared.edges.iter().map(|e| e.child).collect();
        assert_eq!(plan.audit_routing(&edge_children), Ok(()));
        let mut in_edges = plan.routing.in_readers.iter();
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

    /// Plan build's words per tree node at δ = 1/2: one gather of 3-word member
    /// records (5 with an incoming edge) and one probe of bare cluster ids against
    /// compact headers. The build that also sorted and probed the edge kinds and
    /// sorted the 10-word cluster elements read 21.9 on the path and 61.9 on the
    /// degree-reduced star, the one that gathered 12-word members 13.2 and 30.8; this
    /// one reads 4.1 and 11.1.
    #[test]
    fn plan_build_words_per_tree_node() {
        let shapes = [
            (shapes::path(4096), 8.0, false),
            (shapes::star(4096), 16.0, true),
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
