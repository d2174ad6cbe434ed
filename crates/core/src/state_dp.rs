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

use crate::problem::{ClusterDp, ClusterView, Payload};
use mpc_engine::Words;
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
}

impl<P: StateDp> StateEngine<P> {
    /// Wrap a finite-state problem.
    pub fn new(problem: P) -> Self {
        Self { problem }
    }

    /// Access the wrapped problem.
    pub fn problem(&self) -> &P {
        &self.problem
    }
}

/// A member's DP table during local (in-cluster) processing: `table[s][e]` is the best
/// score of the member's subtree when its interface node is in state `s` and the
/// cluster's attach node (if it lies in this subtree) is in state `e`.
#[derive(Debug, Clone)]
struct Table {
    states: usize,
    ext: usize,
    values: Vec<Option<Score>>,
}

impl Table {
    fn new(states: usize, ext: usize) -> Self {
        Self {
            states,
            ext,
            values: vec![None; states * ext],
        }
    }

    fn get(&self, s: usize, e: usize) -> Option<Score> {
        self.values[s * self.ext + e]
    }

    fn improve(&mut self, s: usize, e: usize, v: Score) {
        let slot = &mut self.values[s * self.ext + e];
        if slot.map(|cur| v > cur).unwrap_or(true) {
            *slot = Some(v);
        }
    }
}

/// Per-member backtracking record: the base table and a snapshot of the table before
/// every child merge (in merge order).
struct MemberTables {
    /// `(child member index, table before this child was merged)`.
    steps: Vec<(usize, Table)>,
    /// Table after all child merges but before the attach lifting.
    pre_lift: Table,
    /// Table exposed to the member's parent (equal to `pre_lift` unless lifted).
    final_table: Table,
    /// `true` when the member's own attach dimension is still private (an indegree-1
    /// cluster member whose incoming edge is provided by one of its children).
    private_attach: bool,
}

impl<P: StateDp> StateEngine<P> {
    fn base_table(&self, view: &ClusterView<'_, Self>, idx: usize) -> (Table, bool) {
        let s = self.problem.num_states();
        let is_attach = view.skeleton.attach == Some(idx);
        match view.payload(idx) {
            Payload::Input(input) => {
                // Original node: 1-dimensional; the attach lifting (tying the external
                // dimension to the node's own final state) happens after its children
                // have been merged.
                let mut t = Table::new(s, 1);
                for st in 0..s {
                    if !is_attach && self.problem.requires_external_child(st) {
                        continue;
                    }
                    if let Some(score) = self.problem.init(input, st) {
                        t.improve(st, 0, score);
                    }
                }
                (t, false)
            }
            Payload::Summary(sum) => {
                if !sum.has_attach {
                    let mut t = Table::new(s, 1);
                    for st in 0..s {
                        if let Some(v) = sum.values[st] {
                            t.improve(st, 0, v);
                        }
                    }
                    (t, false)
                } else {
                    // Indegree-1 cluster: 2-dimensional. If this member is the view's
                    // attach member the dimension stays external, otherwise it is
                    // private and will be consumed by the member's single child.
                    let mut t = Table::new(s, s);
                    for st in 0..s {
                        for e in 0..s {
                            if let Some(v) = sum.values[st * s + e] {
                                t.improve(st, e, v);
                            }
                        }
                    }
                    (t, !is_attach)
                }
            }
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

    /// Merge child table `child` into parent table `parent` across the child's outgoing
    /// edge. `into_private` selects whether the edge enters the parent's own interface
    /// node (original-node parent) or the parent's private attach dimension
    /// (indegree-1 cluster parent).
    fn merge(
        &self,
        parent: &Table,
        child: &Table,
        kind: EdgeKind,
        edge_input: &P::EdgeInput,
        into_private: bool,
    ) -> Table {
        let s = parent.states;
        let out_ext = if into_private {
            child.ext
        } else {
            parent.ext.max(child.ext)
        };
        let mut out = Table::new(s, out_ext);
        for ps in 0..s {
            for pe in 0..parent.ext {
                let Some(pv) = parent.get(ps, pe) else {
                    continue;
                };
                for cs in 0..s {
                    for ce in 0..child.ext {
                        let Some(cv) = child.get(cs, ce) else {
                            continue;
                        };
                        let (out_s, out_e, score) = if into_private {
                            // The private dimension is consumed; the child may carry the
                            // external dimension.
                            let Some(score) = self.absorb_into_attach(pe, kind, edge_input, cs)
                            else {
                                continue;
                            };
                            (ps, ce.min(out.ext - 1), score)
                        } else {
                            // The parent's own state evolves; at most one of the two
                            // tables carries the external dimension.
                            let Some((new_state, score)) =
                                self.problem.absorb_child(ps, kind, edge_input, cs)
                            else {
                                continue;
                            };
                            let e = if child.ext > 1 { ce } else { pe };
                            (new_state, e.min(out.ext - 1), score)
                        };
                        out.improve(out_s, out_e, pv + cv + score);
                    }
                }
            }
        }
        out
    }

    /// Bottom-up local DP over the members of a view, keeping backtracking snapshots.
    fn run_local(&self, view: &ClusterView<'_, Self>) -> Vec<MemberTables> {
        let s = self.problem.num_states();
        let members = &view.skeleton.members;
        let n = members.len();
        let mut tables: Vec<Option<MemberTables>> = (0..n).map(|_| None).collect();
        for idx in view.bottom_up_order() {
            let (base, private_attach) = self.base_table(view, idx);
            let mut current = base;
            let mut steps = Vec::new();
            for &c in &members[idx].children {
                let child_final = tables[c].as_ref().expect("children processed first");
                let kind = members[c].out_kind;
                let input = view.out_input(c);
                let provider = is_in_edge_provider(view, idx, c);
                steps.push((c, current.clone()));
                current = self.merge(
                    &current,
                    &child_final.final_table,
                    kind,
                    &input,
                    private_attach && provider,
                );
            }
            // Attach lifting for original-node attach members: tie the external
            // dimension to the node's own final state.
            let pre_lift = current.clone();
            let is_attach_node =
                view.skeleton.attach == Some(idx) && matches!(view.payload(idx), Payload::Input(_));
            if is_attach_node {
                let mut lifted = Table::new(s, s);
                for st in 0..s {
                    if let Some(v) = current.get(st, 0) {
                        lifted.improve(st, st, v);
                    }
                }
                current = lifted;
            }
            tables[idx] = Some(MemberTables {
                steps,
                pre_lift,
                final_table: current,
                private_attach,
            });
        }
        tables
            .into_iter()
            .map(|t| t.expect("all processed"))
            .collect()
    }
}

/// `true` when member `child` provides the incoming edge of (indegree-1 cluster) member
/// `parent` within the view.
fn is_in_edge_provider<P: StateDp>(
    view: &ClusterView<'_, StateEngine<P>>,
    parent: usize,
    child: usize,
) -> bool {
    let members = &view.skeleton.members;
    members[parent].element.in_edge == Some(members[child].element.out_edge)
}

impl<P: StateDp> ClusterDp for StateEngine<P> {
    type NodeInput = P::NodeInput;
    type EdgeInput = P::EdgeInput;
    type Summary = StateSummary;
    type Label = usize;

    fn summarize(&self, view: &ClusterView<'_, Self>) -> StateSummary {
        let s = self.problem.num_states();
        let tables = self.run_local(view);
        let skeleton = view.skeleton;
        let top = &tables[skeleton.top].final_table;
        let has_attach = skeleton.attach.is_some() && skeleton.kind == ElementKind::ClusterIndeg1;
        let ext = if has_attach { s } else { 1 };
        let mut values = vec![None; s * ext];
        for st in 0..s {
            for e in 0..ext.min(top.ext) {
                values[st * ext + e] = top.get(st, e);
            }
            if top.ext == 1 && ext > 1 {
                // Degenerate case: the attach dimension never materialized (possible
                // only if the attach member ended up infeasible); leave infeasible.
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
        let s = self.problem.num_states();
        let tables = self.run_local(view);
        let skeleton = view.skeleton;
        let n = skeleton.members.len();
        let mut chosen_state = vec![usize::MAX; n];
        let mut chosen_ext = vec![0usize; n];

        // Fix the top member: its interface state is the label of the cluster's outgoing
        // edge; the external (attach) dimension is re-derived from the incoming edge's
        // label, reproducing the choice the parent layer's merge implied.
        chosen_state[skeleton.top] = *out_label;
        let top_table = &tables[skeleton.top].final_table;
        if top_table.ext > 1 {
            let ext_child_state = in_label.copied().unwrap_or(0);
            let in_input = view.in_input().unwrap_or_default();
            let mut best: Option<(Score, usize)> = None;
            for e in 0..top_table.ext {
                let Some(v) = top_table.get(*out_label, e) else {
                    continue;
                };
                let Some(score) =
                    self.absorb_into_attach(e, skeleton.in_kind, &in_input, ext_child_state)
                else {
                    continue;
                };
                let total = v + score;
                if best.map(|(bv, _)| total > bv).unwrap_or(true) {
                    best = Some((total, e));
                }
            }
            chosen_ext[skeleton.top] = best.map(|(_, e)| e).unwrap_or(0);
        }

        // Walk top-down, re-deriving each member's children's states by replaying the
        // child merges backwards from the member's fixed final state.
        for idx in view.top_down_order() {
            let mt = &tables[idx];
            let lifted = mt.final_table.ext > mt.pre_lift.ext;
            // Work on the pre-lift chain: for lifted members the external index equals
            // the own state, so dropping it loses nothing.
            let mut target_state = chosen_state[idx];
            let mut target_ext = if lifted { 0 } else { chosen_ext[idx] };
            let mut current_table = &mt.pre_lift;
            for (child_idx, before) in mt.steps.iter().rev() {
                let child_table = &tables[*child_idx].final_table;
                let kind = skeleton.members[*child_idx].out_kind;
                let input = view.out_input(*child_idx);
                let into_private = mt.private_attach && is_in_edge_provider(view, idx, *child_idx);
                let te = target_ext.min(current_table.ext - 1);
                let target_value = current_table
                    .get(target_state, te)
                    .expect("fixed state is feasible");
                let mut found = None;
                'search: for ps in 0..s {
                    for pe in 0..before.ext {
                        let Some(pv) = before.get(ps, pe) else {
                            continue;
                        };
                        for cs in 0..s {
                            for ce in 0..child_table.ext {
                                let Some(cv) = child_table.get(cs, ce) else {
                                    continue;
                                };
                                let (out_s, out_e, score) = if into_private {
                                    let Some(score) = self.absorb_into_attach(pe, kind, &input, cs)
                                    else {
                                        continue;
                                    };
                                    (ps, ce.min(current_table.ext - 1), score)
                                } else {
                                    let Some((new_state, score)) =
                                        self.problem.absorb_child(ps, kind, &input, cs)
                                    else {
                                        continue;
                                    };
                                    let e = if child_table.ext > 1 { ce } else { pe };
                                    (new_state, e.min(current_table.ext - 1), score)
                                };
                                if out_s == target_state
                                    && out_e == te
                                    && pv + cv + score == target_value
                                {
                                    found = Some((ps, pe, cs, ce));
                                    break 'search;
                                }
                            }
                        }
                    }
                }
                let (ps, pe, cs, ce) = found.expect("backtracking finds a consistent predecessor");
                chosen_state[*child_idx] = cs;
                chosen_ext[*child_idx] = ce;
                target_state = ps;
                target_ext = pe;
                current_table = before;
            }
        }
        chosen_state
    }

    fn name(&self) -> &'static str {
        self.problem.name()
    }
}
