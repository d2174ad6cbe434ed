//! The tree median problem (Section 6.1 of the paper).
//!
//! Leaves carry numbers; the label of every internal node is the (lower) median of its
//! children's labels. The problem is *not* binary adaptable (Section 1.8), which is why
//! the paper discusses it separately: an indegree-1 cluster is summarized by the pair
//! `(a, b)` of Lemma 10, so that the value of its top node is `median(x, a, b)` where
//! `x` is the value of the subtree below its incoming edge; path compression composes
//! these pairs with the rule of Lemma 11.
//!
//! This implementation covers trees whose degree is within the clustering threshold.
//! The high-degree don't-care-node extension of Section 6.1.1 is not implemented in
//! its place: callers pass a threshold of at least the tree's maximum degree (as
//! `examples/tree_median.rs` does), so that degree reduction adds no auxiliary node.

use tree_dp_core::{ClusterDp, ClusterView, Payload};

/// Node input: `Some(value)` for leaves, `None` for internal nodes.
pub type MedianInput = Option<i64>;

/// Summary of a cluster for the tree median problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MedianSummary {
    /// Indegree-0 cluster: the top node's value is fixed.
    Fixed(i64),
    /// Indegree-1 cluster: the top node's value is `median(x, a, b)` of the value `x`
    /// of the subtree below the incoming edge (Lemma 10).
    Pending {
        /// Lower clamp.
        a: i64,
        /// Upper clamp.
        b: i64,
    },
}

impl mpc_engine::Words for MedianSummary {
    fn words(&self) -> usize {
        3
    }
}

/// Lower median of a non-empty slice.
fn lower_median(values: &mut Vec<i64>) -> i64 {
    // Even child counts get a dummy -infinity child so that the lower median is taken
    // (the paper's convention).
    if values.len() % 2 == 0 {
        values.push(i64::MIN);
    }
    values.sort_unstable();
    values[values.len() / 2]
}

/// As a function of one unknown child value `x`, the median of `{x} ∪ fixed` equals
/// `median(x, a, b)`; compute `(a, b)` (Lemma 10).
fn clamp_pair(fixed: &mut Vec<i64>) -> (i64, i64) {
    if fixed.is_empty() {
        return (i64::MIN, i64::MAX);
    }
    // Total child count = fixed.len() + 1; make it odd by adding the dummy.
    if (fixed.len() + 1) % 2 == 0 {
        fixed.push(i64::MIN);
    }
    fixed.sort_unstable();
    let m = fixed.len() / 2;
    (fixed[m - 1], fixed[m])
}

/// Compose two pending pairs (Lemma 11): if `x1 = median(x2, a2, b2)` and
/// `x0 = median(x1, a1, b1)`, then `x0 = median(x2, a, b)`.
fn compose(outer: (i64, i64), inner: (i64, i64)) -> (i64, i64) {
    let (a1, b1) = outer;
    let (a2, b2) = inner;
    if b2 <= a1 {
        (a1, a1)
    } else if b1 <= a2 {
        (b1, b1)
    } else {
        (a1.max(a2), b1.min(b2))
    }
}

/// Apply a pending pair to a concrete value.
fn apply_median(x: i64, a: i64, b: i64) -> i64 {
    let mut v = [x, a, b];
    v.sort_unstable();
    v[1]
}

/// The tree median problem as a [`ClusterDp`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeMedian;

#[derive(Debug, Clone, Copy)]
enum Form {
    Fixed(i64),
    Pending(i64, i64),
}

impl TreeMedian {
    fn member_forms(view: &ClusterView<'_, Self>, hole: Option<i64>) -> Vec<Form> {
        let skeleton = &view.skeleton;
        let mut forms = vec![Form::Fixed(0); skeleton.members().len()];
        for idx in view.bottom_up_order() {
            let mut fixed: Vec<i64> = Vec::new();
            let mut pending: Option<(i64, i64)> = None;
            for &c in skeleton.children(idx) {
                match forms[c as usize] {
                    Form::Fixed(v) => fixed.push(v),
                    Form::Pending(a, b) => pending = Some((a, b)),
                }
            }
            if skeleton.attach() == Some(idx) {
                match hole {
                    Some(x) => fixed.push(x),
                    None => pending = Some((i64::MIN, i64::MAX)),
                }
            }
            forms[idx] = match view.payload(idx) {
                Payload::Input(Some(value)) => Form::Fixed(*value),
                Payload::Input(None) => match pending {
                    None => {
                        let mut vals = fixed.clone();
                        Form::Fixed(lower_median(&mut vals))
                    }
                    Some(inner) => {
                        let mut others = fixed.clone();
                        let outer = clamp_pair(&mut others);
                        let (a, b) = compose(outer, inner);
                        Form::Pending(a, b)
                    }
                },
                Payload::Summary(MedianSummary::Fixed(v)) => Form::Fixed(*v),
                Payload::Summary(MedianSummary::Pending { a, b }) => match pending {
                    // The member's own hole is filled by its single child / the view's
                    // hole; compose or apply.
                    Some(inner) => {
                        let (na, nb) = compose((*a, *b), inner);
                        Form::Pending(na, nb)
                    }
                    None => match fixed.first() {
                        Some(&x) => Form::Fixed(apply_median(x, *a, *b)),
                        None => Form::Pending(*a, *b),
                    },
                },
            };
        }
        forms
    }
}

impl ClusterDp for TreeMedian {
    type NodeInput = MedianInput;
    type EdgeInput = ();
    type Summary = MedianSummary;
    type Label = i64;

    fn summarize(&self, view: &ClusterView<'_, Self>) -> MedianSummary {
        match Self::member_forms(view, None)[view.skeleton.top()] {
            Form::Fixed(v) => MedianSummary::Fixed(v),
            Form::Pending(a, b) => MedianSummary::Pending { a, b },
        }
    }

    fn label_root(&self, summary: &MedianSummary) -> i64 {
        match summary {
            MedianSummary::Fixed(v) => *v,
            MedianSummary::Pending { a, .. } => *a,
        }
    }

    fn label_members(
        &self,
        view: &ClusterView<'_, Self>,
        _out_label: &i64,
        in_label: Option<&i64>,
    ) -> Vec<i64> {
        Self::member_forms(view, in_label.copied())
            .into_iter()
            .map(|f| match f {
                Form::Fixed(v) => v,
                Form::Pending(a, _) => a,
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "tree-median"
    }
}

/// Host-side reference implementation: label every node with the median of its
/// children's labels (used by the tests).
pub fn sequential_tree_median(tree: &tree_repr::Tree, leaf_values: &[MedianInput]) -> Vec<i64> {
    let mut label = vec![0i64; tree.len()];
    for v in tree.postorder() {
        label[v] = match leaf_values[v] {
            Some(x) => x,
            None => {
                let mut vals: Vec<i64> = tree.children(v).iter().map(|&c| label[c]).collect();
                lower_median(&mut vals)
            }
        };
    }
    label
}
