//! Finite-state optimization problems of Table 1, expressed as [`StateDp`] problems and
//! solved through the generic [`StateEngine`](tree_dp_core::StateEngine).
//!
//! All problems use the max-plus convention (minimization problems negate their costs),
//! and all define the auxiliary-edge rules of Section 5.3 so they remain correct on
//! degree-reduced trees (auxiliary copies of a node must behave like the node itself).

use tree_clustering::EdgeKind;
use tree_dp_core::{Score, StateDp};

/// Maximum-weight independent set (the paper's running example, Section 1.6.1).
///
/// States: `0` = not in the set, `1` = in the set. Node input = weight.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxWeightIndependentSet;

impl StateDp for MaxWeightIndependentSet {
    type NodeInput = i64;
    type EdgeInput = ();

    fn num_states(&self) -> usize {
        2
    }

    fn init(&self, w: &i64, state: usize) -> Option<Score> {
        Some(if state == 1 { *w } else { 0 })
    }

    fn absorb_child(
        &self,
        state: usize,
        kind: EdgeKind,
        _: &(),
        child: usize,
    ) -> Option<(usize, Score)> {
        match kind {
            // Original edge: endpoints must not both be in the set.
            EdgeKind::Original if state == 1 && child == 1 => None,
            EdgeKind::Original => Some((state, 0)),
            // Auxiliary edge: both copies of the original node make the same choice.
            EdgeKind::Auxiliary if state == child => Some((state, 0)),
            EdgeKind::Auxiliary => None,
        }
    }

    fn accept_root(&self, _: usize) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "max-weight-independent-set"
    }
}

/// Minimum-weight vertex cover. States: `0` = out, `1` = in (cost `w`, stored negated).
#[derive(Debug, Clone, Copy, Default)]
pub struct MinWeightVertexCover;

impl StateDp for MinWeightVertexCover {
    type NodeInput = i64;
    type EdgeInput = ();

    fn num_states(&self) -> usize {
        2
    }

    fn init(&self, w: &i64, state: usize) -> Option<Score> {
        Some(if state == 1 { -*w } else { 0 })
    }

    fn absorb_child(
        &self,
        state: usize,
        kind: EdgeKind,
        _: &(),
        child: usize,
    ) -> Option<(usize, Score)> {
        match kind {
            // Original edge: at least one endpoint must be in the cover.
            EdgeKind::Original if state == 0 && child == 0 => None,
            EdgeKind::Original => Some((state, 0)),
            // Auxiliary edge: copies agree; the auxiliary edge itself needs no covering.
            EdgeKind::Auxiliary if state == child => Some((state, 0)),
            EdgeKind::Auxiliary => None,
        }
    }

    fn accept_root(&self, _: usize) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "min-weight-vertex-cover"
    }
}

/// Minimum-weight dominating set.
///
/// States: `0` = in the set, `1` = out & already dominated (by itself via a child in the
/// set), `2` = out & needs its parent to dominate it, `3` = out & *promises* that the
/// subtree below the cluster's incoming edge dominates it (Section "promise states").
#[derive(Debug, Clone, Copy, Default)]
pub struct MinWeightDominatingSet;

impl StateDp for MinWeightDominatingSet {
    type NodeInput = i64;
    type EdgeInput = ();

    fn num_states(&self) -> usize {
        4
    }

    fn init(&self, w: &i64, state: usize) -> Option<Score> {
        match state {
            0 => Some(-*w),
            2 | 3 => Some(0),
            _ => None,
        }
    }

    fn absorb_child(
        &self,
        state: usize,
        kind: EdgeKind,
        _: &(),
        child: usize,
    ) -> Option<(usize, Score)> {
        match kind {
            EdgeKind::Original => {
                // A child that needs its parent requires this node to be in the set.
                if child == 2 && state != 0 {
                    return None;
                }
                // A child in the set dominates this node (fulfilling a promise, if any).
                let new_state = if child == 0 && (state == 2 || state == 3) {
                    1
                } else {
                    state
                };
                Some((new_state, 0))
            }
            EdgeKind::Auxiliary => {
                // Copies of one original node: membership must agree; domination
                // accumulated by the lower copy transfers to the upper one. A lower
                // copy's promise counts as domination here — it is verified where that
                // copy's cluster absorbs its incoming edge — and fulfils this copy's own
                // promise when this is that edge.
                let in_set = state == 0;
                let child_in_set = child == 0;
                if in_set != child_in_set {
                    return None;
                }
                let new_state = if !in_set && (child == 1 || child == 3) {
                    1
                } else {
                    state
                };
                Some((new_state, 0))
            }
        }
    }

    fn accept_root(&self, state: usize) -> bool {
        state == 0 || state == 1
    }

    fn requires_external_child(&self, state: usize) -> bool {
        state == 3
    }

    fn name(&self) -> &'static str {
        "min-weight-dominating-set"
    }
}

/// Maximum-weight matching. Edge input = the weight of the edge to the parent.
///
/// States: `0` = unmatched, `1` = matched to one of its children, `2` = matched to its
/// parent (the weight is added when the parent absorbs it), `3` = *promises* to be
/// matched to the child below the cluster's incoming edge.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxWeightMatching;

impl StateDp for MaxWeightMatching {
    type NodeInput = ();
    type EdgeInput = i64;

    fn num_states(&self) -> usize {
        4
    }

    fn init(&self, _: &(), state: usize) -> Option<Score> {
        match state {
            0 | 2 | 3 => Some(0),
            _ => None,
        }
    }

    fn absorb_child(
        &self,
        state: usize,
        kind: EdgeKind,
        w: &i64,
        child: usize,
    ) -> Option<(usize, Score)> {
        match kind {
            EdgeKind::Original => {
                if child == 2 {
                    // The child wants to be matched across this edge: this node must be
                    // free (or have promised exactly this match); the weight is
                    // collected here.
                    match state {
                        0 | 3 => Some((1, *w)),
                        _ => None,
                    }
                } else {
                    Some((state, 0))
                }
            }
            EdgeKind::Auxiliary => {
                // Copies of one original node share a single "matched" budget and cannot
                // be matched across the auxiliary edge itself.
                if child == 2 {
                    return None;
                }
                // A lower copy's promise counts as matched (it is verified where that
                // copy's cluster absorbs its incoming edge), and a matched lower copy
                // fulfils this copy's own promise when this is that edge.
                let child_matched = child == 1 || child == 3;
                match (state, child_matched) {
                    (0, true) | (3, true) => Some((1, 0)),
                    (1, true) | (2, true) => None,
                    _ => Some((state, 0)),
                }
            }
        }
    }

    fn accept_root(&self, state: usize) -> bool {
        state == 0 || state == 1
    }

    fn requires_external_child(&self, state: usize) -> bool {
        state == 3
    }

    fn name(&self) -> &'static str {
        "max-weight-matching"
    }
}

/// Weighted tree-structured max-SAT: every node `v` is a boolean variable with unit
/// clauses (`pos`, `neg`), every edge carries an OR clause `x_child ∨ x_parent` of the
/// given weight. States: `0` = false, `1` = true.
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeMaxSat;

impl StateDp for TreeMaxSat {
    /// `(weight if true, weight if false)`.
    type NodeInput = (i64, i64);
    /// Weight of the OR clause on the edge to the parent.
    type EdgeInput = i64;

    fn num_states(&self) -> usize {
        2
    }

    fn init(&self, input: &(i64, i64), state: usize) -> Option<Score> {
        Some(if state == 1 { input.0 } else { input.1 })
    }

    fn absorb_child(
        &self,
        state: usize,
        kind: EdgeKind,
        w: &i64,
        child: usize,
    ) -> Option<(usize, Score)> {
        match kind {
            EdgeKind::Original => {
                let satisfied = state == 1 || child == 1;
                Some((state, if satisfied { *w } else { 0 }))
            }
            EdgeKind::Auxiliary if state == child => Some((state, 0)),
            EdgeKind::Auxiliary => None,
        }
    }

    fn accept_root(&self, _: usize) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "weighted-tree-max-sat"
    }
}

/// Proper vertex coloring with a fixed palette (an LCL problem): states are colors, any
/// proper coloring is accepted.
#[derive(Debug, Clone, Copy)]
pub struct VertexColoring {
    /// Number of colors (trees need only 2; more colors exercise larger state spaces).
    pub colors: usize,
}

impl Default for VertexColoring {
    fn default() -> Self {
        Self { colors: 3 }
    }
}

impl StateDp for VertexColoring {
    type NodeInput = ();
    type EdgeInput = ();

    fn num_states(&self) -> usize {
        self.colors
    }

    fn init(&self, _: &(), _: usize) -> Option<Score> {
        Some(0)
    }

    fn absorb_child(
        &self,
        state: usize,
        kind: EdgeKind,
        _: &(),
        child: usize,
    ) -> Option<(usize, Score)> {
        match kind {
            EdgeKind::Original if state == child => None,
            EdgeKind::Original => Some((state, 0)),
            EdgeKind::Auxiliary if state == child => Some((state, 0)),
            EdgeKind::Auxiliary => None,
        }
    }

    fn accept_root(&self, _: usize) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "vertex-coloring"
    }
}

/// Sum coloring: a proper coloring minimizing the sum of color indices (colors `1..=k`).
///
/// The node input is a cost multiplier: `1` for original nodes, `0` for the auxiliary
/// copies introduced by degree reduction (they must be colored consistently but do not
/// contribute to the objective).
#[derive(Debug, Clone, Copy)]
pub struct SumColoring {
    /// Palette size.
    pub colors: usize,
}

impl Default for SumColoring {
    fn default() -> Self {
        Self { colors: 3 }
    }
}

impl StateDp for SumColoring {
    type NodeInput = i64;
    type EdgeInput = ();

    fn num_states(&self) -> usize {
        self.colors
    }

    fn init(&self, multiplier: &i64, state: usize) -> Option<Score> {
        Some(-((state + 1) as i64) * *multiplier)
    }

    fn absorb_child(
        &self,
        state: usize,
        kind: EdgeKind,
        _: &(),
        child: usize,
    ) -> Option<(usize, Score)> {
        match kind {
            EdgeKind::Original if state == child => None,
            EdgeKind::Original => Some((state, 0)),
            EdgeKind::Auxiliary if state == child => Some((state, 0)),
            EdgeKind::Auxiliary => None,
        }
    }

    fn accept_root(&self, _: usize) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "sum-coloring"
    }
}

/// Structural validation of an XML-like document: every node carries a tag, and the
/// document is valid when every parent/child tag pair is allowed. A score of `0` means
/// valid; every violation costs `1` (so the optimum equals minus the number of
/// violations and never becomes infeasible).
///
/// The node input is the tag: the original node's own tag, and
/// [`ANY_TAG`](Self::ANY_TAG) for the auxiliary copies introduced by degree reduction
/// (the auxiliary edges then give each copy the tag of the node it stands in for).
#[derive(Debug, Clone)]
pub struct XmlValidation {
    /// Number of distinct tags.
    pub tags: usize,
    /// `allowed[parent_tag * tags + child_tag]`.
    pub allowed: Vec<bool>,
}

impl XmlValidation {
    /// The wildcard tag for auxiliary copies: `init` accepts every state at score 0.
    pub const ANY_TAG: u64 = u64::MAX;

    /// A schema where a child tag is allowed below a parent tag iff
    /// `child == parent || child == parent + 1 (mod tags)`.
    pub fn chain_schema(tags: usize) -> Self {
        let mut allowed = vec![false; tags * tags];
        for p in 0..tags {
            allowed[p * tags + p] = true;
            allowed[p * tags + (p + 1) % tags] = true;
        }
        Self { tags, allowed }
    }
}

impl StateDp for XmlValidation {
    /// The node's tag.
    type NodeInput = u64;
    type EdgeInput = ();

    fn num_states(&self) -> usize {
        self.tags
    }

    fn init(&self, tag: &u64, state: usize) -> Option<Score> {
        (*tag == Self::ANY_TAG || state == *tag as usize).then_some(0)
    }

    fn absorb_child(
        &self,
        state: usize,
        kind: EdgeKind,
        _: &(),
        child: usize,
    ) -> Option<(usize, Score)> {
        match kind {
            EdgeKind::Original => {
                let ok = self.allowed[state * self.tags + child];
                Some((state, if ok { 0 } else { -1 }))
            }
            EdgeKind::Auxiliary if state == child => Some((state, 0)),
            EdgeKind::Auxiliary => None,
        }
    }

    fn accept_root(&self, _: usize) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "xml-structure-validation"
    }
}
