//! The dynamic-programming problem abstraction (Definition 1 of the paper) and the
//! per-cluster local view handed to problem implementations: a [`ClusterView`] borrows
//! a skeleton of the solve plan ([`PlanView`], assembled on one machine once) and the
//! slices of the slot columns a problem's payloads and edge inputs were routed into
//! beside it — one set of columns per `(layer, machine)` bucket of views, aligned with
//! the bucket's skeleton members (§1.6.1's summaries as small state-indexed tables).

use crate::plan::PlanView;
use mpc_engine::Words;

/// Per-element payload during the DP: the original input of a node, or the summary of
/// an already-contracted cluster.
#[derive(Debug, Clone)]
pub enum Payload<I, S> {
    /// The problem input attached to an original node.
    Input(I),
    /// The summary `f(C)` of a contracted cluster element.
    Summary(S),
}

impl<I: Words, S: Words> Words for Payload<I, S> {
    fn words(&self) -> usize {
        1 + match self {
            Payload::Input(i) => i.words(),
            Payload::Summary(s) => s.words(),
        }
    }
}

/// A column of optional records: every value — `Default` where none was written — and
/// one presence bit each.
pub(crate) struct Present<T> {
    pub(crate) values: Vec<T>,
    bits: Vec<u64>,
}

impl<T: Default> Present<T> {
    /// `len` absent records.
    fn absent(len: usize) -> Self {
        let values = std::iter::repeat_with(T::default).take(len).collect();
        let bits = vec![0; len.div_ceil(64)];
        Present { values, bits }
    }

    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.bit(i).then(|| &self.values[i])
    }

    pub(crate) fn set(&mut self, i: usize, value: Option<T>) {
        self.put_bit(i, value.is_some());
        self.values[i] = value.unwrap_or_default();
    }

    /// Insert an absent record at `i`.
    fn insert(&mut self, i: usize) {
        self.values.insert(i, T::default());
        self.bits.resize(self.values.len().div_ceil(64), 0);
        for j in (i + 1..self.values.len()).rev() {
            self.put_bit(j, self.bit(j - 1));
        }
        self.put_bit(i, false);
    }

    /// Keep the records `keep` flags, in order; records past its end are kept.
    fn retain(&mut self, keep: impl Iterator<Item = bool> + Clone) {
        let (len, mut to) = (self.values.len(), 0);
        let flags = keep.clone().chain(std::iter::repeat(true));
        for (from, _) in flags.take(len).enumerate().filter(|&(_, kept)| kept) {
            self.put_bit(to, self.bit(from));
            to += 1;
        }
        self.bits.truncate(to.div_ceil(64));
        compact(&mut self.values, keep);
    }

    fn bit(&self, i: usize) -> bool {
        self.bits[i / 64] >> (i % 64) & 1 != 0
    }

    fn put_bit(&mut self, i: usize, on: bool) {
        let word = &mut self.bits[i / 64];
        *word = *word & !(1 << (i % 64)) | u64::from(on) << (i % 64);
    }
}

/// A header word and the records' `words` for a column that holds any, else nothing.
fn column_words(words: usize) -> usize {
    words + usize::from(words > 0)
}

impl<T: Words> Words for Present<T> {
    /// The values — records of zero size hold no bytes — and one word per 64 bits.
    fn words(&self) -> usize {
        column_words(self.values.iter().map(Words::words).sum()) + column_words(self.bits.len())
    }
}

/// Drop the items `keep` rejects, in order; items past its end are kept.
fn compact<T>(items: &mut Vec<T>, mut keep: impl Iterator<Item = bool>) {
    items.retain(|_| keep.next().unwrap_or(true));
}

/// The problem-dependent slots of the views one machine holds at one layer — a
/// `(layer, machine)` bucket — as columns: per member, in the skeletons' member order
/// (member `i` of a view at the view's [`slots`](PlanView::slots) offset plus `i`),
/// its payload and the input of its outgoing original edge (e.g. an edge weight); per
/// view the input of its incoming edge. Edge inputs are keyed by the edge's child
/// endpoint. A payload is `None` until a record reaches it (the `Option` rides
/// [`Payload`]'s tag); an edge input nobody supplied reads as `Default::default()`.
pub(crate) struct SlotColumns<P: ClusterDp + ?Sized> {
    pub(crate) payloads: Vec<Option<Payload<P::NodeInput, P::Summary>>>,
    pub(crate) out_inputs: Present<P::EdgeInput>,
    pub(crate) in_inputs: Present<P::EdgeInput>,
}

impl<P: ClusterDp + ?Sized> SlotColumns<P> {
    /// Empty slots for `members` members and `views` views.
    pub(crate) fn new(members: usize, views: usize) -> Self {
        SlotColumns {
            payloads: (0..members).map(|_| None).collect(),
            out_inputs: Present::absent(members),
            in_inputs: Present::absent(views),
        }
    }

    /// The view `skeleton` of this bucket, its slots borrowed from the columns.
    pub(crate) fn view<'a>(&'a self, skeleton: PlanView<'a>) -> ClusterView<'a, P> {
        let slots = skeleton.slots();
        ClusterView {
            payloads: &self.payloads[slots.clone()],
            out_inputs: &self.out_inputs.values[slots],
            in_input: &self.in_inputs.values[skeleton.index()],
            skeleton,
        }
    }

    /// Keep the member slots `keep` flags, in bucket order.
    pub(crate) fn retain_members(&mut self, keep: impl Iterator<Item = bool> + Clone) {
        compact(&mut self.payloads, keep.clone());
        self.out_inputs.retain(keep);
    }

    /// Keep the views `keep` flags, each with its `members` member slots.
    pub(crate) fn retain_views(&mut self, keep: &[bool], members: &[usize]) {
        let flags = keep.iter().zip(members);
        self.retain_members(flags.flat_map(|(&kept, &len)| std::iter::repeat(kept).take(len)));
        self.in_inputs.retain(keep.iter().copied());
    }

    /// Insert an empty member slot at `i`.
    pub(crate) fn insert_member(&mut self, i: usize) {
        self.payloads.insert(i, None);
        self.out_inputs.insert(i);
    }
}

impl<P: ClusterDp + ?Sized> Words for SlotColumns<P> {
    /// Every column that holds bytes: a header word and its records — a payload at its
    /// own width (`None` as its tag word) — and the presence bits.
    fn words(&self) -> usize {
        let payloads = self.payloads.iter();
        column_words(payloads.map(|p| p.as_ref().map_or(1, Words::words)).sum())
            + self.out_inputs.words()
            + self.in_inputs.words()
    }
}

/// The local view of one cluster, fully assembled inside a single machine
/// (Figs. 2 and 3 of the paper), as handed to [`ClusterDp::summarize`] /
/// [`ClusterDp::label_members`]: the problem-independent skeleton the solve plan
/// assembled once, paired with the slices of its bucket's slot columns this problem's
/// records were routed into. Nothing is copied to form a view.
pub struct ClusterView<'a, P: ClusterDp + ?Sized> {
    /// The cluster's kind, boundary edges and member tree (member `i` of the view is
    /// `skeleton.member(i)`).
    pub skeleton: PlanView<'a>,
    payloads: &'a [Option<Payload<P::NodeInput, P::Summary>>],
    out_inputs: &'a [P::EdgeInput],
    in_input: &'a P::EdgeInput,
}

impl<'a, P: ClusterDp + ?Sized> ClusterView<'a, P> {
    /// The payload of member `i` (input for nodes, summary for clusters).
    pub fn payload(&self, i: usize) -> &'a Payload<P::NodeInput, P::Summary> {
        self.payloads[i]
            .as_ref()
            .expect("every member has a payload (input or summary)")
    }

    /// The problem data attached to member `i`'s outgoing original edge.
    pub fn out_input(&self, i: usize) -> P::EdgeInput {
        self.out_inputs[i].clone()
    }

    /// The problem data of the cluster's incoming edge; `None` for a cluster without
    /// one.
    pub fn in_input(&self) -> Option<P::EdgeInput> {
        self.skeleton.in_edge().map(|_| self.in_input.clone())
    }

    /// Members in an order where every member appears after all of its children
    /// (bottom-up processing order).
    pub fn bottom_up_order(&self) -> Vec<usize> {
        let skeleton = &self.skeleton;
        let mut order = Vec::with_capacity(skeleton.members().len());
        let mut stack = vec![skeleton.top()];
        while let Some(i) = stack.pop() {
            order.push(i);
            stack.extend(skeleton.children(i).iter().map(|&c| c as usize));
        }
        order.reverse();
        order
    }
}

/// A dynamic programming problem in the sense of Definition 1 of the paper.
///
/// * the task is to compute a [`Label`](Self::Label) for every edge of the tree
///   (including the virtual edge leaving the root, which carries the root's own state),
/// * every cluster can be summarized by a [`Summary`](Self::Summary) of `O(1)` words,
/// * [`summarize`](Self::summarize) computes a cluster's summary from its members'
///   payloads using `O(|C|)` additional space (Fig. 2),
/// * [`label_root`](Self::label_root) labels the virtual edge of the top cluster,
/// * [`label_members`](Self::label_members) labels all internal edges of a cluster given
///   the labels of its boundary edges (Fig. 3).
///
/// Problems must be `'static` (own their data) and their associated types `Send`,
/// which lets the MPC primitives recycle record buffers through the scratch arena of
/// a context that may itself move between threads. Plain-data problem types satisfy
/// these bounds automatically.
pub trait ClusterDp: 'static {
    /// Input attached to every original node (e.g. a weight).
    type NodeInput: Clone + Words + Send;
    /// Input attached to every original edge, keyed by the edge's child endpoint
    /// (use `()` when edges carry no data).
    type EdgeInput: Clone + Default + Words + Send;
    /// The `O(1)`-word cluster summary `f(C)`.
    type Summary: Clone + Words + Send;
    /// The per-edge output label.
    type Label: Clone + Words + Send;

    /// Summarize a cluster from its members (bottom-up step, Fig. 2).
    fn summarize(&self, view: &ClusterView<'_, Self>) -> Self::Summary;

    /// Label the virtual outgoing edge of the top cluster given its summary.
    fn label_root(&self, summary: &Self::Summary) -> Self::Label;

    /// Label the outgoing edge of every member of a cluster, given the labels of the
    /// cluster's outgoing edge and (for indegree-1 clusters) incoming edge. The entry
    /// returned for the top member is ignored (its edge is the cluster's outgoing edge,
    /// already labeled).
    fn label_members(
        &self,
        view: &ClusterView<'_, Self>,
        out_label: &Self::Label,
        in_label: Option<&Self::Label>,
    ) -> Vec<Self::Label>;

    /// Human-readable problem name (used in test and report messages).
    fn name(&self) -> &'static str {
        "unnamed-dp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::{Linked, PlanMember, Skeletons};
    use tree_clustering::{ElementKind, VIRTUAL_NODE};

    /// A trivial problem used to exercise the view plumbing: count nodes in each subtree.
    struct CountNodes;

    impl ClusterDp for CountNodes {
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

    fn member(id: u64, parent: Option<usize>) -> PlanMember {
        PlanMember::new(id, ElementKind::Node, parent, false)
    }

    #[test]
    fn orders_respect_parenthood() {
        let mut held = Skeletons::new(1);
        held.push(
            1,
            Linked {
                members: vec![
                    member(0, None),
                    member(1, Some(0)),
                    member(2, Some(0)),
                    member(3, Some(1)),
                ],
                top: 0,
                kind: ElementKind::TopCluster,
                out_parent: VIRTUAL_NODE,
                in_edge: None,
            },
        );
        let skeleton = held.view(1, 0);
        let mut slots: SlotColumns<CountNodes> = SlotColumns::new(4, 1);
        slots.payloads.fill(Some(Payload::Input(1)));
        let view = slots.view(skeleton);
        let up = view.bottom_up_order();
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, &m) in up.iter().enumerate() {
                p[m] = i;
            }
            p
        };
        for i in 0..4 {
            for &c in skeleton.children(i) {
                assert!(pos[c as usize] < pos[i]);
            }
        }
        assert_eq!(skeleton.children(0), [1, 2]);
        assert_eq!(up.last(), Some(&0), "the top member comes last");
        let summary = CountNodes.summarize(&view);
        assert_eq!(summary, 4);
        assert_eq!(CountNodes.label_root(&summary), 4);
    }

    /// Presence bits survive an insertion and a compaction across word boundaries.
    #[test]
    fn present_inserts_and_retains_in_place() {
        let mut flags: Vec<Option<u64>> = (0..130).map(|i| (i % 3 == 0).then_some(i)).collect();
        let mut column: Present<u64> = Present::absent(flags.len());
        flags
            .iter()
            .enumerate()
            .for_each(|(i, &value)| column.set(i, value));
        column.insert(64);
        flags.insert(64, None);
        let keep = (0..flags.len()).map(|i| i % 5 != 1);
        column.retain(keep.clone());
        compact(&mut flags, keep);
        assert_eq!(column.bits.len(), flags.len().div_ceil(64));
        assert!((0..flags.len()).all(|i| column.get(i) == flags[i].as_ref()));
    }

    #[test]
    fn payload_words_account_for_variant() {
        let p: Payload<u64, Vec<u64>> = Payload::Input(5);
        assert_eq!(p.words(), 2);
        let s: Payload<u64, Vec<u64>> = Payload::Summary(vec![1, 2, 3]);
        assert_eq!(s.words(), 5);
    }
}
