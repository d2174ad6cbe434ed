//! The compact layout of a solve plan's skeleton views: a few words per member.
//!
//! A member is its element id and one packed word ([`PlanMember`]); a view is a
//! two-word head, plus a three-word record when it has an incoming edge; a member's
//! children are a range of one `u32` run per view. Everything else a view shows
//! follows from these and from the layer the view is filed at, so it is not stored:
//!
//! * a cluster id carries the layer the cluster formed at and, in its low 48 bits, its
//!   defining element's — the cluster's top element, whose outgoing edge is the
//!   cluster's ([`make_cluster_id`]). A view's cluster is therefore
//!   `make_cluster_id(layer, top member)`, and a cluster member's outgoing edge leaves
//!   from [`defining_node`] of its id;
//! * a member's `absorbed_into` is its view's cluster, its `absorbed_at` the view's
//!   layer, and a cluster member's `formed_at` the layer in its id;
//! * a member's outgoing edge is the view's (top member), points at its parent (a node
//!   member), or is its parent's incoming edge (a cluster member, flagged);
//! * a cluster member's incoming edge is the one its own view records;
//! * an edge's kind is its child's ([`EdgeKind::leaving`]): a member's outgoing edge
//!   leaves [`defining_node`] of its id, a view's incoming edge leaves its recorded
//!   child.
//!
//! One machine's views lie in struct-of-arrays form, layer by layer (`Skeletons`);
//! a [`PlanView`] is a borrowed view into them.

use mpc_engine::Words;
use tree_clustering::{
    defining_node, make_cluster_id, EdgeKind, ElementId, ElementKind, VIRTUAL_NODE,
};
use tree_repr::{DirectedEdge, NodeId};

/// A view holds fewer members than this: member indexes fit the 28 bits the packed
/// words give them.
pub(crate) const MAX_MEMBERS: usize = 1 << 28;

const INDEX_MASK: u64 = (MAX_MEMBERS as u64) - 1;
/// The parent field of a member without a parent, and the attach field of an incoming
/// edge nothing accepts.
const NONE: u32 = u32::MAX;

fn kind_code(kind: ElementKind) -> u64 {
    match kind {
        ElementKind::Node => 0,
        ElementKind::ClusterIndeg0 => 1,
        ElementKind::ClusterIndeg1 => 2,
        ElementKind::TopCluster => 3,
    }
}

fn kind_of(code: u64) -> ElementKind {
    match code & 0b11 {
        0 => ElementKind::Node,
        1 => ElementKind::ClusterIndeg0,
        2 => ElementKind::ClusterIndeg1,
        _ => ElementKind::TopCluster,
    }
}

/// `bit` when `set`, else no bit.
fn flag(set: bool, bit: u64) -> u64 {
    if set {
        bit
    } else {
        0
    }
}

/// Words of one record of type `T`, as its [`Words`] impl counts it: its size.
fn words_of<T>() -> usize {
    std::mem::size_of::<T>().div_ceil(8)
}

fn offset(i: usize) -> u32 {
    u32::try_from(i).expect("a machine's skeleton arrays fit u32 offsets")
}

/// One member of a cluster view: its element id and one packed word — the element's
/// kind (bits 0–1), whether its outgoing edge is its parent's incoming edge (bit 3),
/// where its children start in the view's child run (bits 4–31) and its parent's
/// index (bits 32–63, all ones for the top member). Bit 2 is unused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanMember {
    id: ElementId,
    packed: u64,
}

impl Words for PlanMember {}

impl PlanMember {
    const ENTERS_PARENT: u64 = 1 << 3;
    const KIDS_SHIFT: u32 = 4;
    const PARENT_SHIFT: u32 = 32;

    /// A member without children yet (see [`Skeletons::push`]).
    pub(crate) fn new(
        id: ElementId,
        kind: ElementKind,
        parent: Option<usize>,
        enters_parent: bool,
    ) -> Self {
        let member = PlanMember {
            id,
            packed: kind_code(kind) | flag(enters_parent, Self::ENTERS_PARENT),
        };
        member.with_parent(parent)
    }

    /// The clustering element's id.
    pub fn id(self) -> ElementId {
        self.id
    }

    /// The clustering element's kind.
    pub fn kind(self) -> ElementKind {
        kind_of(self.packed)
    }

    /// Kind of the member's outgoing original edge: the kind of the edge leaving
    /// [`defining_node`] of the id — the node itself, or a cluster's outgoing edge's
    /// child.
    pub fn out_kind(self) -> EdgeKind {
        EdgeKind::leaving(defining_node(self.id))
    }

    /// Index of the parent member; `None` for the top member.
    pub fn parent(self) -> Option<usize> {
        let parent = (self.packed >> Self::PARENT_SHIFT) as u32;
        (parent != NONE).then_some(parent as usize)
    }

    /// `true` when the member's outgoing edge is its parent's incoming edge (the parent
    /// is a contracted cluster); otherwise it points at its parent node, or leaves the
    /// view.
    pub fn enters_parent(self) -> bool {
        self.packed & Self::ENTERS_PARENT != 0
    }

    /// The child endpoint of the member's outgoing edge — the key of the label the
    /// view produces for it: a node's own id, a cluster's defining node.
    pub fn out_child(self) -> NodeId {
        match self.kind() {
            ElementKind::Node => self.id,
            _ => defining_node(self.id),
        }
    }

    fn first_kid(self) -> usize {
        ((self.packed >> Self::KIDS_SHIFT) & INDEX_MASK) as usize
    }

    fn with_first_kid(self, kid: usize) -> Self {
        let cleared = self.packed & !(INDEX_MASK << Self::KIDS_SHIFT);
        PlanMember {
            packed: cleared | ((kid as u64) << Self::KIDS_SHIFT),
            ..self
        }
    }

    fn with_parent(self, parent: Option<usize>) -> Self {
        let parent = parent.map_or(NONE, offset);
        let cleared = self.packed & ((1 << Self::PARENT_SHIFT) - 1);
        PlanMember {
            packed: cleared | (u64::from(parent) << Self::PARENT_SHIFT),
            ..self
        }
    }

    fn with_kind(self, kind: ElementKind) -> Self {
        PlanMember {
            packed: (self.packed & !0b11) | kind_code(kind),
            ..self
        }
    }
}

/// The fixed part of a view: the parent endpoint of its outgoing edge, and one packed
/// word — the machine offset of its first member (bits 0–31), its kind (bits 32–33),
/// whether it has an incoming edge (bit 35) and its top member's index (bits 36–63).
/// Bit 34 is unused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ViewHead {
    out_parent: NodeId,
    packed: u64,
}

impl Words for ViewHead {}

impl ViewHead {
    const KIND_SHIFT: u32 = 32;
    const HAS_IN: u64 = 1 << 35;
    const TOP_SHIFT: u32 = 36;

    fn start(self) -> usize {
        (self.packed & u64::from(u32::MAX)) as usize
    }

    fn with_start(self, start: usize) -> Self {
        ViewHead {
            packed: (self.packed & !u64::from(u32::MAX)) | u64::from(offset(start)),
            ..self
        }
    }

    fn kind(self) -> ElementKind {
        kind_of(self.packed >> Self::KIND_SHIFT)
    }

    fn has_in(self) -> bool {
        self.packed & Self::HAS_IN != 0
    }

    fn top(self) -> usize {
        (self.packed >> Self::TOP_SHIFT) as usize
    }

    fn with_top(self, top: usize) -> Self {
        let cleared = self.packed & ((1 << Self::TOP_SHIFT) - 1);
        ViewHead {
            packed: cleared | ((top as u64 & INDEX_MASK) << Self::TOP_SHIFT),
            ..self
        }
    }
}

/// The incoming edge of a view that has one: the machine index of the view, the
/// member the edge attaches to, and the edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InEdge {
    view: u32,
    attach: u32,
    edge: DirectedEdge,
}

impl Words for InEdge {}

/// A view on its way into a machine's [`Skeletons`]: its members (parents set,
/// children not yet), top member, kind, the parent endpoint of its outgoing edge, and
/// its incoming edge with the attach member.
pub(crate) struct Linked {
    pub(crate) members: Vec<PlanMember>,
    pub(crate) top: usize,
    pub(crate) kind: ElementKind,
    pub(crate) out_parent: NodeId,
    pub(crate) in_edge: Option<(DirectedEdge, Option<usize>)>,
}

/// Give every member of one view its child range, children in index order (the order
/// they were linked in), and return the child run: every member but the top one,
/// ordered by parent.
fn link_children(members: &mut [PlanMember]) -> Vec<u32> {
    assert!(members.len() < MAX_MEMBERS, "a view fits 28-bit indexes");
    let mut first = vec![0u32; members.len()];
    for parent in members.iter().filter_map(|m| m.parent()) {
        first[parent] += 1;
    }
    let mut total = 0;
    for (member, slot) in members.iter_mut().zip(first.iter_mut()) {
        let count = *slot;
        *slot = total;
        *member = member.with_first_kid(total as usize);
        total += count;
    }
    assert_eq!(
        total as usize + 1,
        members.len(),
        "a view's member tree has exactly one root"
    );
    let mut kids = vec![0u32; total as usize];
    for (i, member) in members.iter().enumerate() {
        if let Some(parent) = member.parent() {
            kids[first[parent] as usize] = offset(i);
            first[parent] += 1;
        }
    }
    kids
}

/// The skeleton views one machine holds, in struct-of-arrays form: views in layer
/// order, every view's members in one array and its children in one `u32` run (view
/// `v`'s run starts at its first member's offset less `v`, as every view has one child
/// entry per member but the top one).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Skeletons {
    /// `layer_start[l]`: index of the first view of layer `l + 1`; the last entry is
    /// the number of views.
    layer_start: Vec<u32>,
    heads: Vec<ViewHead>,
    members: Vec<PlanMember>,
    kids: Vec<u32>,
    /// One per view with an incoming edge, in view order.
    in_edges: Vec<InEdge>,
}

impl Skeletons {
    /// No views, on a plan of `num_layers` layers.
    pub(crate) fn new(num_layers: u32) -> Self {
        Skeletons {
            layer_start: vec![0; num_layers as usize + 1],
            heads: Vec::new(),
            members: Vec::new(),
            kids: Vec::new(),
            in_edges: Vec::new(),
        }
    }

    /// Append `view` at `layer`, which no view already held lies above.
    pub(crate) fn push(&mut self, layer: u32, view: Linked) {
        let v = self.heads.len();
        assert_eq!(
            self.layer_start[layer as usize] as usize, v,
            "views are filed layer by layer"
        );
        let mut members = view.members;
        assert_eq!(
            members[view.top].parent(),
            None,
            "the top member is the root"
        );
        self.kids.extend(link_children(&mut members));
        let head = ViewHead {
            out_parent: view.out_parent,
            packed: kind_code(view.kind) << ViewHead::KIND_SHIFT
                | flag(view.in_edge.is_some(), ViewHead::HAS_IN),
        };
        self.heads
            .push(head.with_start(self.members.len()).with_top(view.top));
        self.members.extend(members);
        if let Some((edge, attach)) = view.in_edge {
            self.in_edges.push(InEdge {
                view: offset(v),
                attach: attach.map_or(NONE, offset),
                edge,
            });
        }
        for start in &mut self.layer_start[layer as usize..] {
            *start = offset(v + 1);
        }
    }

    /// Release the arrays' growth slack.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.heads.shrink_to_fit();
        self.members.shrink_to_fit();
        self.kids.shrink_to_fit();
        self.in_edges.shrink_to_fit();
    }

    /// Machine index of view `index` of `layer`.
    fn index(&self, layer: u32, index: usize) -> usize {
        self.layer_start[layer as usize - 1] as usize + index
    }

    /// Machine offset of the first member of the views at `layer`.
    fn layer_base(&self, layer: u32) -> usize {
        let first = self.layer_start[layer as usize - 1] as usize;
        self.heads
            .get(first)
            .map_or(self.members.len(), |h| h.start())
    }

    /// Number of members of the views at `layer`: the length of the member columns of
    /// the machine's `layer` bucket.
    pub(crate) fn members_at(&self, layer: u32) -> usize {
        self.layer_base(layer + 1) - self.layer_base(layer)
    }

    /// Offset of the first member of view `index` of `layer` in its bucket's columns.
    pub(crate) fn slot_offset(&self, layer: u32, index: usize) -> usize {
        self.heads[self.index(layer, index)].start() - self.layer_base(layer)
    }

    /// Number of views at `layer`.
    pub(crate) fn len_at(&self, layer: u32) -> usize {
        let l = layer as usize;
        (self.layer_start[l] - self.layer_start[l - 1]) as usize
    }

    /// Number of views.
    pub(crate) fn num_views(&self) -> usize {
        self.heads.len()
    }

    /// Number of members, over all views.
    pub(crate) fn num_members(&self) -> usize {
        self.members.len()
    }

    /// View `index` of `layer`.
    pub(crate) fn view(&self, layer: u32, index: usize) -> PlanView<'_> {
        self.at(layer, self.index(layer, index))
    }

    /// The top member of view `index` of `layer`, its index, and whether it leaves by
    /// the virtual edge above the root: what a routing climb reads of a view, without
    /// the view's incoming-edge lookup.
    pub(crate) fn top_of(&self, layer: u32, index: usize) -> (usize, PlanMember, bool) {
        let head = self.heads[self.index(layer, index)];
        let top = head.top();
        let leaves = head.out_parent == VIRTUAL_NODE;
        (top, self.members[head.start() + top], leaves)
    }

    /// The views of `layer`, in order.
    pub(crate) fn views(&self, layer: u32) -> impl Iterator<Item = PlanView<'_>> + '_ {
        let l = layer as usize;
        let range = self.layer_start[l - 1] as usize..self.layer_start[l] as usize;
        range.map(move |v| self.at(layer, v))
    }

    /// The member range, child-run start and in-edge record of machine view `v`.
    fn parts(&self, v: usize) -> (std::ops::Range<usize>, usize, Option<usize>) {
        let head = self.heads[v];
        let start = head.start();
        let end = self
            .heads
            .get(v + 1)
            .map_or(self.members.len(), |h| h.start());
        let in_edge = head
            .has_in()
            .then(|| self.in_edges.partition_point(|e| (e.view as usize) < v));
        (start..end, start - v, in_edge)
    }

    fn at(&self, layer: u32, v: usize) -> PlanView<'_> {
        let (members, kid0, in_edge) = self.parts(v);
        let kids = kid0..kid0 + members.len() - 1;
        PlanView {
            layer,
            first: offset(members.start - self.layer_base(layer)),
            index: offset(v - self.layer_start[layer as usize - 1] as usize),
            head: self.heads[v],
            members: &self.members[members],
            kids: &self.kids[kids],
            in_edge: in_edge.map(|i| &self.in_edges[i]),
        }
    }

    /// Resident size in words: every record at its [`Words`] width, half a word per
    /// child entry and per layer offset, and one word per array.
    pub(crate) fn words(&self) -> usize {
        self.heads.len() * words_of::<ViewHead>()
            + self.members.len() * words_of::<PlanMember>()
            + self.in_edges.len() * words_of::<InEdge>()
            + self.kids.len().div_ceil(2)
            + self.layer_start.len().div_ceil(2)
            + 5
    }

    // ----- splice edits --------------------------------------------------------------

    /// Demote view `index` of `layer` to an indegree-0 cluster: no incoming edge.
    pub(crate) fn demote_view(&mut self, layer: u32, index: usize) {
        let v = self.index(layer, index);
        let head = &mut self.heads[v];
        if head.has_in() {
            self.in_edges.retain(|e| e.view as usize != v);
        }
        head.packed &= !(0b11 << ViewHead::KIND_SHIFT | ViewHead::HAS_IN);
        head.packed |= kind_code(ElementKind::ClusterIndeg0) << ViewHead::KIND_SHIFT;
    }

    /// Set the kind of member `member` of view `index` of `layer`.
    pub(crate) fn set_member_kind(
        &mut self,
        layer: u32,
        index: usize,
        member: usize,
        kind: ElementKind,
    ) {
        let at = self.heads[self.index(layer, index)].start() + member;
        self.members[at] = self.members[at].with_kind(kind);
    }

    /// Replace the members of machine view `v` by `members` (parents set) and relink
    /// its children.
    fn replace_members(&mut self, v: usize, mut members: Vec<PlanMember>) {
        let (old, kid0, _) = self.parts(v);
        let old_len = old.len();
        let kids = link_children(&mut members);
        let new_len = members.len();
        self.kids.splice(kid0..kid0 + old_len - 1, kids);
        self.members.splice(old, members);
        for head in &mut self.heads[v + 1..] {
            *head = head.with_start(head.start() + new_len - old_len);
        }
    }

    /// Keep the members of view `index` of `layer` that `remap` maps to a new index —
    /// a downward-closed removal, so the top member and every survivor's parent
    /// survive — moving the top and attach indexes along.
    pub(crate) fn retain_members(&mut self, layer: u32, index: usize, remap: &[Option<usize>]) {
        let v = self.index(layer, index);
        let (range, _, in_edge) = self.parts(v);
        let kept: Vec<PlanMember> = self.members[range]
            .iter()
            .zip(remap)
            .filter(|(_, new)| new.is_some())
            .map(|(m, _)| {
                let parent = m.parent().map(|p| {
                    remap[p].expect(
                        "parent of a surviving member survives (removal is downward-closed)",
                    )
                });
                m.with_parent(parent)
            })
            .collect();
        self.replace_members(v, kept);
        let head = self.heads[v];
        let top = remap[head.top()].expect("the top member never lies in the removed span");
        self.heads[v] = head.with_top(top);
        if let Some(i) = in_edge {
            let attach = &mut self.in_edges[i].attach;
            if *attach != NONE {
                *attach = remap[*attach as usize].map_or(NONE, offset);
            }
        }
    }

    /// Append a leaf node below member `parent` (a node) of view `index` of `layer`;
    /// its member index.
    pub(crate) fn append_leaf(
        &mut self,
        layer: u32,
        index: usize,
        parent: usize,
        leaf: NodeId,
    ) -> usize {
        let v = self.index(layer, index);
        let (range, _, _) = self.parts(v);
        let mut members = self.members[range].to_vec();
        members.push(PlanMember::new(
            leaf,
            ElementKind::Node,
            Some(parent),
            false,
        ));
        let idx = members.len() - 1;
        self.replace_members(v, members);
        idx
    }

    /// Delete the views of `layer` that `keep` rejects (indexed by view index).
    pub(crate) fn retain_views(&mut self, layer: u32, keep: &[bool]) {
        for index in (0..keep.len()).rev().filter(|&i| !keep[i]) {
            let v = self.index(layer, index);
            let (range, kid0, _) = self.parts(v);
            let len = range.len();
            self.kids.drain(kid0..kid0 + len - 1);
            self.members.drain(range);
            self.heads.remove(v);
            for head in &mut self.heads[v..] {
                *head = head.with_start(head.start() - len);
            }
            self.in_edges.retain(|e| e.view as usize != v);
            for e in &mut self.in_edges {
                if e.view as usize > v {
                    e.view -= 1;
                }
            }
            for start in &mut self.layer_start[layer as usize..] {
                *start -= 1;
            }
        }
    }
}

/// One skeleton view, borrowed from the machine that holds it: everything a
/// [`ClusterView`](crate::ClusterView) shows a problem except the payloads and edge
/// inputs, which lie in the slot columns of its `(layer, machine)` bucket. Cheap to
/// copy; see the module docs for what it derives instead of storing.
#[derive(Debug, Clone, Copy)]
pub struct PlanView<'a> {
    layer: u32,
    /// Offset of member 0 in the bucket's member columns.
    first: u32,
    /// The view's index in its bucket.
    index: u32,
    head: ViewHead,
    members: &'a [PlanMember],
    kids: &'a [u32],
    in_edge: Option<&'a InEdge>,
}

impl Words for PlanView<'_> {
    fn words(&self) -> usize {
        words_of::<ViewHead>()
            + self.members.len() * words_of::<PlanMember>()
            + self.kids.len().div_ceil(2)
            + self.in_edge.map_or(0, |_| words_of::<InEdge>())
    }
}

impl<'a> PlanView<'a> {
    /// The layer the view is processed at (1-based): the layer its cluster formed at.
    pub fn layer(&self) -> u32 {
        self.layer
    }

    /// The cluster's id.
    pub fn cluster(&self) -> ElementId {
        make_cluster_id(self.layer, self.members[self.top()].id())
    }

    /// The cluster's kind.
    pub fn kind(&self) -> ElementKind {
        self.head.kind()
    }

    /// The view's member slots in its bucket's member columns.
    pub(crate) fn slots(&self) -> std::ops::Range<usize> {
        let first = self.first as usize;
        first..first + self.members.len()
    }

    /// The view's index in its `(layer, machine)` bucket: its slot in the view columns.
    pub(crate) fn index(&self) -> usize {
        self.index as usize
    }

    /// The members, in the order the group gathering delivered them.
    pub fn members(&self) -> &'a [PlanMember] {
        self.members
    }

    /// Member `i`.
    pub fn member(&self, i: usize) -> PlanMember {
        self.members[i]
    }

    /// Indexes of member `i`'s children, in increasing order.
    pub fn children(&self, i: usize) -> &'a [u32] {
        let end = self
            .members
            .get(i + 1)
            .map_or(self.kids.len(), |m| m.first_kid());
        &self.kids[self.members[i].first_kid()..end]
    }

    /// Index of the top member.
    pub fn top(&self) -> usize {
        self.head.top()
    }

    /// Index of the member the incoming edge attaches to.
    pub fn attach(&self) -> Option<usize> {
        self.in_edge
            .filter(|e| e.attach != NONE)
            .map(|e| e.attach as usize)
    }

    /// The cluster's outgoing original edge.
    pub fn out_edge(&self) -> DirectedEdge {
        DirectedEdge::new(self.members[self.top()].out_child(), self.head.out_parent)
    }

    /// The cluster's incoming original edge (indegree-1 clusters).
    pub fn in_edge(&self) -> Option<DirectedEdge> {
        self.in_edge.map(|e| e.edge)
    }

    /// Kind of the incoming edge: the kind of the edge leaving its child
    /// ([`EdgeKind::Original`] when the view has none).
    pub fn in_kind(&self) -> EdgeKind {
        self.in_edge
            .map_or(EdgeKind::Original, |e| EdgeKind::leaving(e.edge.child))
    }

    /// `true` when member `i` leaves by the virtual edge above the root.
    pub fn leaves_tree(&self, i: usize) -> bool {
        i == self.top() && self.head.out_parent == VIRTUAL_NODE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_as_wide_as_their_words_say() {
        let member = PlanMember::new(7, ElementKind::Node, None, false);
        let head = ViewHead {
            out_parent: 0,
            packed: 0,
        };
        let in_edge = InEdge {
            view: 0,
            attach: 0,
            edge: DirectedEdge::new(1, 2),
        };
        assert!(std::mem::size_of::<PlanMember>() <= 8 * member.words());
        assert!(std::mem::size_of::<ViewHead>() <= 8 * head.words());
        assert!(std::mem::size_of::<InEdge>() <= 8 * in_edge.words());
        assert_eq!((member.words(), head.words(), in_edge.words()), (2, 2, 3));
    }

    /// A `(layer, machine)` bucket bills its skeletons and exactly what its slot columns
    /// hold: a header word and the records of every column that holds any — a payload
    /// at its own width, the `Option` riding its tag — and a word per 64 presence bits.
    /// Checked for a problem without edge inputs (as MaxIS: the out-input column holds
    /// no bytes and bills none) and one with a word of edge input (as matching).
    #[test]
    fn buckets_bill_what_their_slot_columns_hold() {
        use crate::problem::{ClusterDp, ClusterView, Payload};
        use crate::state_dp::StateSummary;
        use crate::store::{tests::Count, SolverStore};
        use std::mem::size_of;

        /// Edge weight per cluster: an edge input of one word.
        struct Weigh;
        impl ClusterDp for Weigh {
            type NodeInput = u64;
            type EdgeInput = i64;
            type Summary = i64;
            type Label = ();
            fn summarize(&self, view: &ClusterView<'_, Self>) -> i64 {
                let members = 0..view.skeleton.members().len();
                let inner = members.map(|i| match view.payload(i) {
                    Payload::Input(_) => view.out_input(i),
                    Payload::Summary(s) => *s + view.out_input(i),
                });
                inner.sum::<i64>() + view.in_input().unwrap_or(0)
            }
            fn label_root(&self, _: &i64) {}
            fn label_members(
                &self,
                view: &ClusterView<'_, Self>,
                _: &(),
                _: Option<&()>,
            ) -> Vec<()> {
                vec![(); view.skeleton.members().len()]
            }
        }

        fn check<P: ClusterDp<NodeInput = u64>>(store: &SolverStore<P>, edge_words: usize) {
            assert!(size_of::<P::EdgeInput>() <= 8 * edge_words);
            let plan = &store.plan;
            let column = |records: usize| if records == 0 { 0 } else { 1 + records };
            let mut buckets = 0;
            for (layer, machine) in
                (1..=plan.num_layers).flat_map(|l| (0..plan.num_machines).map(move |m| (l, m)))
            {
                let columns = &store.state[plan.bucket(layer, machine)];
                let sizes: Vec<usize> = plan
                    .views_at(layer, machine)
                    .map(|v| v.members().len())
                    .collect();
                let (members, views) = (sizes.iter().sum::<usize>(), sizes.len());
                let payloads = columns.payloads.iter().map(|p| p.as_ref().expect("filled"));
                let held = column(payloads.map(Words::words).sum())
                    + column(edge_words * members)
                    + column(members.div_ceil(64))
                    + column(edge_words * views)
                    + column(views.div_ceil(64));
                let skeletons = plan.views_at(layer, machine).map(|v| v.words());
                let billed = plan.bucket_words(layer, machine, columns);
                assert_eq!(
                    billed,
                    skeletons.sum::<usize>() + held,
                    "layer {layer}, machine {machine}"
                );
                buckets += usize::from(views > 0);
            }
            assert!(buckets > 1, "the plan spreads over several buckets");
        }

        let tree = tree_gen::shapes::caterpillar(300, 3);
        let n = tree.len() as u64;
        let config = mpc_engine::MpcConfig::new(2 * tree.len(), 0.5).with_memory_slack(512.0);
        let mut ctx = mpc_engine::MpcContext::new(config);
        let input = tree_repr::TreeInput::ListOfEdges(tree_repr::ListOfEdges::from_tree(&tree));
        let prepared = crate::prepare(&mut ctx, input, Some(4)).expect("well-formed tree");
        let plan = prepared.plan(&mut ctx).clone();
        let ones = ctx.from_vec((0..n).map(|v| (v, 1)).collect::<Vec<_>>());
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
        let (_, count) = plan
            .clone()
            .solve_with_store(&mut ctx, &Count, &ones, 1, &no_edges);
        check(&count, 0);
        let weights = ctx.from_vec((0..n).map(|v| (v, v as i64)).collect::<Vec<_>>());
        let (_, weigh) = plan.solve_with_store(&mut ctx, &Weigh, &ones, 1, &weights);
        check(&weigh, 1);

        // A payload column of `Option`s costs no more than one of bare payloads, for
        // these problems and for the state engine's (MaxIS's) records.
        assert_eq!(
            size_of::<Option<Payload<u64, u64>>>(),
            size_of::<Payload<u64, u64>>()
        );
        type StatePayload = Payload<i64, StateSummary>;
        assert_eq!(size_of::<Option<StatePayload>>(), size_of::<StatePayload>());
    }

    #[test]
    fn packed_fields_read_back() {
        for kind in [
            ElementKind::Node,
            ElementKind::ClusterIndeg0,
            ElementKind::ClusterIndeg1,
            ElementKind::TopCluster,
        ] {
            for parent in [None, Some(0), Some(MAX_MEMBERS - 1)] {
                for enters in [false, true] {
                    let m =
                        PlanMember::new(3, kind, parent, enters).with_first_kid(MAX_MEMBERS - 2);
                    assert_eq!(
                        (m.kind(), m.parent(), m.enters_parent()),
                        (kind, parent, enters)
                    );
                    assert_eq!(m.first_kid(), MAX_MEMBERS - 2);
                }
            }
        }
    }

    /// A member's out-kind is read off its id: a node's own, a cluster's defining
    /// node, whatever layer the cluster formed at.
    #[test]
    fn out_kind_is_read_off_the_id() {
        use tree_clustering::AUX_BASE;
        for (node, kind) in [(3, EdgeKind::Original), (AUX_BASE + 3, EdgeKind::Auxiliary)] {
            let member = |id| PlanMember::new(id, ElementKind::ClusterIndeg0, None, false);
            assert_eq!(member(node).out_kind(), kind);
            for layer in [1, 7] {
                let cluster = make_cluster_id(layer, make_cluster_id(1, node));
                assert_eq!(member(cluster).out_kind(), kind);
            }
        }
    }
}
