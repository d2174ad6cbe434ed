//! A generic finite-state engine realizing Definition 1 for optimization problems.
//!
//! Most rows of Table 1 (maximum-weight independent set, matching, dominating set,
//! vertex cover, max-SAT, sum coloring, vertex coloring, ...) are *finite-state*
//! tree DPs: every node takes one of a constant number of states, scores are additive,
//! and the interaction between a child and its parent is a function of their two states
//! and the connecting edge. [`StateDp`] captures exactly that, and [`StateEngine`]
//! turns any such problem into a [`ClusterDp`] — i.e. it implements the cluster
//! summaries (vectors / matrices of optimal values indexed by boundary-node states, as
//! in the paper's MaxIS example of Section 1.6.1) and the top-down state backtracking,
//! including the auxiliary-edge rules of Section 5.3.
//!
//! **Promise states.** A cluster with an incoming edge exposes the state of its attach
//! node in its summary. Problems whose correctness depends on "at least one child"
//! conditions (domination, matching) declare *promise states* via
//! [`StateDp::requires_external_child`]: a promise state asserts that the subtree below
//! the cluster's incoming edge will satisfy the node's requirement, and the assertion is
//! verified by [`StateDp::absorb_child`] when that edge is merged one layer higher.
//!
//! That merge happens after the rest of the cluster has already been summarized
//! against the attach node's *exposed* state, so it may not change what was exposed:
//! the incoming edge's child is accepted only if it leaves the attach node's state as
//! it is, or turns a promise state into a fulfilled one. Anything the subtree below the
//! incoming edge contributes to the attach node — a dominator, a matching partner, a
//! lower auxiliary copy that used up the node's "matched" budget — therefore has to go
//! through a promise state, which is what the attach node's parent (in particular an
//! upper auxiliary copy of the same original node) gets to see.
//!
//! **One arena.** Definition 1 grants a cluster's local DP `O(|C|)` extra space. The
//! engine keeps it in one flat score arena, reused from view to view, where every table
//! is a range. A child merge appends its output, so the parent's table from before each
//! merge stays in place for backtracking. Labeling recomputes the local DP: keeping the
//! tables from summarizing would hold every view's tables from the bottom-up pass to the
//! top-down one, and views the incremental solver relabels without re-summarizing would
//! need a second path.

use crate::plan::PlanView;
use crate::problem::{ClusterDp, ClusterView, Payload};
use mpc_engine::Words;
use std::cell::RefCell;
use tree_clustering::{EdgeKind, ElementKind};

/// Score type of the engine (max-plus optimization; use negated costs for minimization).
pub type Score = i64;

/// A finite-state, additive-score tree DP problem. The bounds mirror [`ClusterDp`]'s.
pub trait StateDp: 'static {
    /// Per-node input (weights, colors, observations, ...).
    type NodeInput: Clone + Words + Send;
    /// Per-edge input keyed by the edge's child endpoint (`()` if unused).
    type EdgeInput: Clone + Default + Words + Send;

    /// Number of per-node states (a small constant).
    fn num_states(&self) -> usize;

    /// Score of a node in `state` before any child has been merged, or `None` if the
    /// state is not available to this node.
    fn init(&self, input: &Self::NodeInput, state: usize) -> Option<Score>;

    /// Merge a child (in its final state) into a parent currently in `state` across an
    /// edge of the given kind; returns the parent's updated state plus the score
    /// contributed by the edge (and by resolving the child's requirements), or `None`
    /// if the combination is infeasible.
    fn absorb_child(
        &self,
        state: usize,
        kind: EdgeKind,
        edge_input: &Self::EdgeInput,
        child_state: usize,
    ) -> Option<(usize, Score)>;

    /// Whether a node of the whole tree may end in this state at the root (no parent).
    fn accept_root(&self, state: usize) -> bool;

    /// States that promise that the subtree below the cluster's *incoming* edge will
    /// satisfy a requirement of this node; only the attach node of a cluster may use
    /// them, and [`absorb_child`](Self::absorb_child) must verify the promise when the
    /// incoming edge is merged.
    fn requires_external_child(&self, _state: usize) -> bool {
        false
    }

    /// Problem name for reports.
    fn name(&self) -> &'static str {
        "state-dp"
    }
}

/// Summary produced by the engine: optimal scores indexed by the state of the cluster's
/// top node and (for indegree-1 clusters) the state of its attach node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSummary {
    /// Number of per-node states.
    pub states: usize,
    /// Whether the summary has an attach-state dimension.
    pub has_attach: bool,
    /// Row-major `[top_state][attach_state]` (attach dimension 1 when `has_attach` is
    /// `false`); `None` = infeasible.
    pub values: Vec<Option<Score>>,
}

impl StateSummary {
    /// The optimal value over all root-acceptable states (only meaningful for the top
    /// cluster's summary).
    pub fn best<P: StateDp>(&self, problem: &P) -> Option<Score> {
        (0..self.states)
            .filter(|&s| problem.accept_root(s) && !problem.requires_external_child(s))
            .filter_map(|s| self.values[s * self.ext_dim()])
            .max()
    }

    fn ext_dim(&self) -> usize {
        if self.has_attach {
            self.states
        } else {
            1
        }
    }
}

impl Words for StateSummary {
    fn words(&self) -> usize {
        3 + self.values.len()
    }
}

/// Wraps a [`StateDp`] problem into a [`ClusterDp`].
pub struct StateEngine<P: StateDp> {
    problem: P,
    /// The local-DP arena, reused from view to view (see the module docs).
    scratch: RefCell<LocalDp>,
}

impl<P: StateDp> StateEngine<P> {
    /// Wrap a finite-state problem.
    pub fn new(problem: P) -> Self {
        Self {
            problem,
            scratch: RefCell::default(),
        }
    }

    /// Access the wrapped problem.
    pub fn problem(&self) -> &P {
        &self.problem
    }
}

/// A member's DP table: a range of the [`LocalDp`] arena holding `states × ext` scores
/// from `off`. Entry `[s][e]` is the best score of the member's subtree when its
/// interface node is in state `s` and the cluster's attach node (if it lies in this
/// subtree) is in state `e`; `ext` is 1 while the table carries no attach dimension.
#[derive(Debug, Clone, Copy, Default)]
struct Tab {
    off: usize,
    ext: usize,
}

impl Tab {
    /// Arena index of entry `[s][e]`.
    fn at(self, s: usize, e: usize) -> usize {
        self.off + s * self.ext + e
    }
}

/// Per-member record of one local DP.
#[derive(Debug, Clone, Copy, Default)]
struct MemberDp {
    /// Table exposed to the member's parent (equal to `pre_lift` unless lifted).
    exposed: Tab,
    /// Table after all child merges but before the attach lifting.
    pre_lift: Tab,
    /// The parent's table before this member was merged into it.
    before: Tab,
    /// `true` when the member's own attach dimension is still private (an indegree-1
    /// cluster member whose incoming edge is provided by one of its children).
    private_attach: bool,
    /// The attach index backtracking fixed for the member.
    chosen_ext: usize,
}

/// The scratch of one view's local DP.
#[derive(Debug, Default)]
struct LocalDp {
    states: usize,
    /// Every table of the view, in the order the pass created them.
    scores: Vec<Option<Score>>,
    /// Members, every one before its children (reversed: the bottom-up order).
    order: Vec<usize>,
    /// Aligned with the view's members.
    members: Vec<MemberDp>,
}

impl LocalDp {
    /// Empty the arena and lay out the members of `skeleton` for a new pass.
    fn start(&mut self, states: usize, skeleton: &PlanView<'_>) {
        self.states = states;
        self.scores.clear();
        self.members.clear();
        self.members
            .resize(skeleton.members().len(), MemberDp::default());
        self.order.clear();
        self.order.push(skeleton.top());
        let mut next = 0;
        while let Some(&m) = self.order.get(next) {
            let children = skeleton.children(m).iter().map(|&c| c as usize);
            self.order.extend(children);
            next += 1;
        }
    }

    /// Append an all-infeasible table of attach width `ext`.
    fn push_table(&mut self, ext: usize) -> Tab {
        let off = self.scores.len();
        self.scores.resize(off + self.states * ext, None);
        Tab { off, ext }
    }
}

/// Raise `slot` to `v` if `v` is strictly better.
fn improve(slot: &mut Option<Score>, v: Score) {
    if slot.map(|cur| v > cur).unwrap_or(true) {
        *slot = Some(v);
    }
}

/// The member edge a child merge crosses.
struct Edge<I> {
    kind: EdgeKind,
    input: I,
    /// Whether the edge enters the parent's private attach dimension (the child provides
    /// an indegree-1 cluster parent's incoming edge) rather than its interface node.
    into_private: bool,
}

impl<P: StateDp> StateEngine<P> {
    /// Append member `i`'s table before any child merge; `true` when its attach
    /// dimension is private.
    fn base_table(&self, view: &ClusterView<'_, Self>, i: usize, dp: &mut LocalDp) -> (Tab, bool) {
        let s = dp.states;
        let is_attach = view.skeleton.attach() == Some(i);
        let off = dp.scores.len();
        match view.payload(i) {
            Payload::Input(input) => {
                // Original node: 1-dimensional; the attach lifting (tying the external
                // dimension to the node's own final state) happens after its children
                // have been merged.
                let promise = |st| !is_attach && self.problem.requires_external_child(st);
                let init = |st| self.problem.init(input, st).filter(|_| !promise(st));
                dp.scores.extend((0..s).map(init));
                (Tab { off, ext: 1 }, false)
            }
            Payload::Summary(sum) => {
                // An indegree-1 cluster is 2-dimensional. If this member is the view's
                // attach member the dimension stays external, otherwise it is private
                // and will be consumed by the member's single child.
                let ext = if sum.has_attach { s } else { 1 };
                dp.scores.extend_from_slice(&sum.values[..s * ext]);
                (Tab { off, ext }, sum.has_attach && !is_attach)
            }
        }
    }

    /// The edge member `child` hangs from its parent by; `private_attach` is the
    /// parent's flag. The edge enters the private dimension exactly when it is the
    /// parent's incoming edge, which the member's packed flag records.
    fn edge(
        view: &ClusterView<'_, Self>,
        private_attach: bool,
        child: usize,
    ) -> Edge<P::EdgeInput> {
        let member = view.skeleton.member(child);
        Edge {
            kind: member.out_kind(),
            input: view.out_input(child),
            into_private: private_attach && member.enters_parent(),
        }
    }

    /// Merge the child below a cluster's incoming edge (in state `child_state`) into
    /// the cluster's attach node, whose state was exposed as `exposed` when the cluster
    /// was summarized: the score of the edge, or `None` when the combination is
    /// infeasible or would change what the rest of the cluster already saw (see the
    /// module docs). A promise state must be fulfilled by exactly this edge.
    fn absorb_into_attach(
        &self,
        exposed: usize,
        kind: EdgeKind,
        edge_input: &P::EdgeInput,
        child_state: usize,
    ) -> Option<Score> {
        let (new_state, score) =
            self.problem
                .absorb_child(exposed, kind, edge_input, child_state)?;
        let settled = if self.problem.requires_external_child(exposed) {
            !self.problem.requires_external_child(new_state)
        } else {
            new_state == exposed
        };
        settled.then_some(score)
    }

    /// Every feasible combination of an entry `[ps][pe]` of table `parent` and an entry
    /// `[cs][ce]` of table `child` across `edge`, in `(ps, pe, cs, ce)` order: `visit`
    /// gets the merged entry `[state][attach index]` of a table of attach width
    /// `out_ext` and its score. The first combination `visit` accepts is returned.
    fn merge_steps(
        &self,
        scores: &[Option<Score>],
        parent: Tab,
        child: Tab,
        out_ext: usize,
        edge: &Edge<P::EdgeInput>,
        mut visit: impl FnMut(usize, usize, Score) -> bool,
    ) -> Option<[usize; 4]> {
        let s = self.problem.num_states();
        for ps in 0..s {
            for pe in 0..parent.ext {
                let Some(pv) = scores[parent.at(ps, pe)] else {
                    continue;
                };
                for cs in 0..s {
                    for ce in 0..child.ext {
                        let Some(cv) = scores[child.at(cs, ce)] else {
                            continue;
                        };
                        let (out_s, out_e, score) = if edge.into_private {
                            // The private dimension is consumed; the child may carry the
                            // external dimension.
                            let Some(score) =
                                self.absorb_into_attach(pe, edge.kind, &edge.input, cs)
                            else {
                                continue;
                            };
                            (ps, ce.min(out_ext - 1), score)
                        } else {
                            // The parent's own state evolves; at most one of the two
                            // tables carries the external dimension.
                            let Some((new_state, score)) =
                                self.problem.absorb_child(ps, edge.kind, &edge.input, cs)
                            else {
                                continue;
                            };
                            let e = if child.ext > 1 { ce } else { pe };
                            (new_state, e.min(out_ext - 1), score)
                        };
                        if visit(out_s, out_e, pv + cv + score) {
                            return Some([ps, pe, cs, ce]);
                        }
                    }
                }
            }
        }
        None
    }

    /// Merge child table `child` into parent table `parent` across `edge`, appending
    /// the result to the arena.
    fn merge(&self, dp: &mut LocalDp, parent: Tab, child: Tab, edge: &Edge<P::EdgeInput>) -> Tab {
        let out = dp.push_table(if edge.into_private {
            child.ext
        } else {
            parent.ext.max(child.ext)
        });
        let (tables, fresh) = dp.scores.split_at_mut(out.off);
        self.merge_steps(tables, parent, child, out.ext, edge, |s, e, v| {
            improve(&mut fresh[s * out.ext + e], v);
            false
        });
        out
    }

    /// Bottom-up local DP over the members of a view, into `dp`.
    fn run_local(&self, view: &ClusterView<'_, Self>, dp: &mut LocalDp) {
        let s = self.problem.num_states();
        let skeleton = view.skeleton;
        dp.start(s, &skeleton);
        for k in (0..dp.order.len()).rev() {
            let idx = dp.order[k];
            let (mut current, private_attach) = self.base_table(view, idx, dp);
            for &c in skeleton.children(idx) {
                let c = c as usize;
                dp.members[c].before = current;
                let edge = Self::edge(view, private_attach, c);
                current = self.merge(dp, current, dp.members[c].exposed, &edge);
            }
            // Attach lifting for original-node attach members: tie the external
            // dimension to the node's own final state.
            let pre_lift = current;
            if skeleton.attach() == Some(idx) && matches!(view.payload(idx), Payload::Input(_)) {
                current = dp.push_table(s);
                for st in 0..s {
                    dp.scores[current.at(st, st)] = dp.scores[pre_lift.at(st, 0)];
                }
            }
            let rec = &mut dp.members[idx];
            rec.exposed = current;
            rec.pre_lift = pre_lift;
            rec.private_attach = private_attach;
        }
    }
}

impl<P: StateDp> ClusterDp for StateEngine<P> {
    type NodeInput = P::NodeInput;
    type EdgeInput = P::EdgeInput;
    type Summary = StateSummary;
    type Label = usize;

    fn summarize(&self, view: &ClusterView<'_, Self>) -> StateSummary {
        let dp = &mut *self.scratch.borrow_mut();
        self.run_local(view, dp);
        let s = dp.states;
        let skeleton = view.skeleton;
        let top = dp.members[skeleton.top()].exposed;
        let has_attach =
            skeleton.attach().is_some() && skeleton.kind() == ElementKind::ClusterIndeg1;
        let ext = if has_attach { s } else { 1 };
        let mut values = vec![None; s * ext];
        for st in 0..s {
            for e in 0..ext.min(top.ext) {
                values[st * ext + e] = dp.scores[top.at(st, e)];
            }
        }
        StateSummary {
            states: s,
            has_attach,
            values,
        }
    }

    fn label_root(&self, summary: &StateSummary) -> usize {
        let ext = summary.ext_dim();
        (0..summary.states)
            .filter(|&st| self.problem.accept_root(st) && !self.problem.requires_external_child(st))
            .filter_map(|st| summary.values[st * ext].map(|v| (st, v)))
            .max_by_key(|&(st, v)| (v, std::cmp::Reverse(st)))
            .map(|(st, _)| st)
            .expect("the problem is feasible at the root")
    }

    fn label_members(
        &self,
        view: &ClusterView<'_, Self>,
        out_label: &usize,
        in_label: Option<&usize>,
    ) -> Vec<usize> {
        let dp = &mut *self.scratch.borrow_mut();
        self.run_local(view, dp);
        let skeleton = view.skeleton;
        let mut chosen_state = vec![usize::MAX; skeleton.members().len()];

        // Fix the top member: its interface state is the label of the cluster's outgoing
        // edge; the external (attach) dimension is re-derived from the incoming edge's
        // label, reproducing the choice the parent layer's merge implied.
        let top = skeleton.top();
        chosen_state[top] = *out_label;
        let top_table = dp.members[top].exposed;
        if top_table.ext > 1 {
            let ext_child_state = in_label.copied().unwrap_or(0);
            let in_input = view.in_input().unwrap_or_default();
            // The best total; the lowest attach index among equals.
            let best = (0..top_table.ext)
                .filter_map(|e| {
                    let v = dp.scores[top_table.at(*out_label, e)]?;
                    let kind = skeleton.in_kind();
                    let score = self.absorb_into_attach(e, kind, &in_input, ext_child_state)?;
                    Some((std::cmp::Reverse(v + score), e))
                })
                .min();
            dp.members[top].chosen_ext = best.map_or(0, |(_, e)| e);
        }

        // Walk top-down, re-deriving each member's children's states by replaying the
        // child merges backwards from the member's fixed final state.
        for k in 0..dp.order.len() {
            let idx = dp.order[k];
            let rec = dp.members[idx];
            // Work on the pre-lift chain: for lifted members the external index equals
            // the own state, so dropping it loses nothing.
            let lifted = rec.exposed.ext > rec.pre_lift.ext;
            let mut target_state = chosen_state[idx];
            let mut target_ext = if lifted { 0 } else { rec.chosen_ext };
            let mut current = rec.pre_lift;
            for &c in skeleton.children(idx).iter().rev() {
                let c = c as usize;
                let before = dp.members[c].before;
                let edge = Self::edge(view, rec.private_attach, c);
                let te = target_ext.min(current.ext - 1);
                let target_value =
                    dp.scores[current.at(target_state, te)].expect("fixed state is feasible");
                let child = dp.members[c].exposed;
                let [ps, pe, cs, ce] = self
                    .merge_steps(&dp.scores, before, child, current.ext, &edge, |s, e, v| {
                        s == target_state && e == te && v == target_value
                    })
                    .expect("backtracking finds a consistent predecessor");
                chosen_state[c] = cs;
                dp.members[c].chosen_ext = ce;
                target_state = ps;
                target_ext = pe;
                current = before;
            }
        }
        chosen_state
    }

    fn name(&self) -> &'static str {
        self.problem.name()
    }
}
