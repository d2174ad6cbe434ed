//! Accumulation-style problems (Table 1): computing the sum / minimum / maximum of the
//! input labels in every subtree, and evaluating arithmetic expression trees.
//!
//! These are implemented directly against [`ClusterDp`]: an indegree-0 cluster is
//! summarized by a single aggregate (or value), an indegree-1 cluster by a function of
//! the "hole" below its incoming edge (for `+`/`×` expressions that function is linear,
//! the classic expression-contraction trick).

use tree_dp_core::{ClusterDp, ClusterView, Payload};

/// Which aggregate to compute per subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateOp {
    /// Sum of the labels in the subtree (wrapping arithmetic).
    Sum,
    /// Minimum label in the subtree.
    Min,
    /// Maximum label in the subtree.
    Max,
}

impl AggregateOp {
    /// The neutral element of the aggregate.
    pub(crate) fn identity(&self) -> i64 {
        match self {
            AggregateOp::Sum => 0,
            AggregateOp::Min => i64::MAX,
            AggregateOp::Max => i64::MIN,
        }
    }

    /// Combine two aggregate values.
    pub fn combine(&self, a: i64, b: i64) -> i64 {
        match self {
            AggregateOp::Sum => a.wrapping_add(b),
            AggregateOp::Min => a.min(b),
            AggregateOp::Max => a.max(b),
        }
    }
}

/// Subtree accumulation: the label of the edge `(v, parent)` is the aggregate of the
/// input labels over the subtree rooted at `v` (the generalization of prefix sums to
/// rooted trees mentioned in the paper's introduction).
#[derive(Debug, Clone, Copy)]
pub struct SubtreeAggregate {
    /// The aggregate to compute.
    pub op: AggregateOp,
}

impl SubtreeAggregate {
    /// Subtree sums.
    pub fn sum() -> Self {
        Self {
            op: AggregateOp::Sum,
        }
    }
    /// Subtree minima.
    pub fn min() -> Self {
        Self {
            op: AggregateOp::Min,
        }
    }
    /// Subtree maxima.
    pub fn max() -> Self {
        Self {
            op: AggregateOp::Max,
        }
    }
}

impl ClusterDp for SubtreeAggregate {
    type NodeInput = i64;
    type EdgeInput = ();
    /// Aggregate of the labels of the nodes inside the cluster.
    type Summary = i64;
    /// Aggregate of the labels in the subtree hanging below the edge.
    type Label = i64;

    fn summarize(&self, view: &ClusterView<'_, Self>) -> i64 {
        (0..view.skeleton.members().len()).fold(self.op.identity(), |acc, idx| {
            let v = match view.payload(idx) {
                Payload::Input(x) => *x,
                Payload::Summary(s) => *s,
            };
            self.op.combine(acc, v)
        })
    }

    fn label_root(&self, summary: &i64) -> i64 {
        *summary
    }

    fn label_members(
        &self,
        view: &ClusterView<'_, Self>,
        _out_label: &i64,
        in_label: Option<&i64>,
    ) -> Vec<i64> {
        let skeleton = &view.skeleton;
        let mut sub = vec![self.op.identity(); skeleton.members().len()];
        for idx in view.bottom_up_order() {
            let own = match view.payload(idx) {
                Payload::Input(x) => *x,
                Payload::Summary(s) => *s,
            };
            let mut acc = own;
            for &c in skeleton.children(idx) {
                acc = self.op.combine(acc, sub[c as usize]);
            }
            if skeleton.attach() == Some(idx) {
                if let Some(external) = in_label {
                    acc = self.op.combine(acc, *external);
                }
            }
            sub[idx] = acc;
        }
        sub
    }

    fn name(&self) -> &'static str {
        match self.op {
            AggregateOp::Sum => "subtree-sum",
            AggregateOp::Min => "subtree-min",
            AggregateOp::Max => "subtree-max",
        }
    }
}

/// A node of an arithmetic expression tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExprNode {
    /// A leaf holding a constant.
    Const(i64),
    /// An internal node summing its children.
    Add,
    /// An internal node multiplying its children.
    Mul,
}

impl mpc_engine::Words for ExprNode {
    fn words(&self) -> usize {
        2
    }
}

/// The value of a subexpression as a linear function `a·x + b` of the single unresolved
/// hole `x` (the subtree below an indegree-1 cluster's incoming edge); `a = 0` when there
/// is no hole. All arithmetic is wrapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Linear {
    /// Coefficient of the hole value.
    pub a: i64,
    /// Constant term.
    pub b: i64,
}

impl mpc_engine::Words for Linear {
    fn words(&self) -> usize {
        2
    }
}

impl Linear {
    fn constant(b: i64) -> Self {
        Self { a: 0, b }
    }
    fn hole() -> Self {
        Self { a: 1, b: 0 }
    }
    fn eval(&self, x: i64) -> i64 {
        self.a.wrapping_mul(x).wrapping_add(self.b)
    }
}

/// Evaluation of arithmetic expression trees with `+` and `×` internal nodes (Table 1:
/// "evaluating arithmetic expressions"). The label of an edge is the value of the
/// subexpression hanging below it; the root label is the value of the whole expression.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExpressionEval;

impl ExpressionEval {
    /// Combine the linear forms of a node's children under the node's operator.
    /// At most one child carries the hole.
    fn apply(op: &ExprNode, children: &[Linear]) -> Linear {
        match op {
            ExprNode::Const(c) => Linear::constant(*c),
            ExprNode::Add => {
                let mut a = 0i64;
                let mut b = 0i64;
                for l in children {
                    a = a.wrapping_add(l.a);
                    b = b.wrapping_add(l.b);
                }
                Linear { a, b }
            }
            ExprNode::Mul => {
                // Product of constants times at most one linear term.
                let mut constant = 1i64;
                let mut linear: Option<Linear> = None;
                for l in children {
                    if l.a == 0 {
                        constant = constant.wrapping_mul(l.b);
                    } else {
                        linear = Some(*l);
                    }
                }
                match linear {
                    Some(l) => Linear {
                        a: l.a.wrapping_mul(constant),
                        b: l.b.wrapping_mul(constant),
                    },
                    None => Linear::constant(constant),
                }
            }
        }
    }

    fn member_forms(view: &ClusterView<'_, Self>, hole: Option<i64>) -> Vec<Linear> {
        let skeleton = &view.skeleton;
        let mut forms = vec![Linear::constant(0); skeleton.members().len()];
        for idx in view.bottom_up_order() {
            let mut child_forms: Vec<Linear> = skeleton
                .children(idx)
                .iter()
                .map(|&c| forms[c as usize])
                .collect();
            if skeleton.attach() == Some(idx) {
                // The external subtree below the incoming edge is one more child.
                child_forms.push(match hole {
                    Some(x) => Linear::constant(x),
                    None => Linear::hole(),
                });
            }
            forms[idx] = match view.payload(idx) {
                Payload::Input(node) => Self::apply(node, &child_forms),
                Payload::Summary(lin) => {
                    // A contracted cluster: a constant, or a linear function of the form
                    // provided by its single child (the hole provider).
                    if lin.a == 0 {
                        *lin
                    } else {
                        let inner = child_forms.first().copied().unwrap_or_else(Linear::hole);
                        Linear {
                            a: lin.a.wrapping_mul(inner.a),
                            b: lin.a.wrapping_mul(inner.b).wrapping_add(lin.b),
                        }
                    }
                }
            };
        }
        forms
    }
}

impl ClusterDp for ExpressionEval {
    type NodeInput = ExprNode;
    type EdgeInput = ();
    type Summary = Linear;
    type Label = i64;

    fn summarize(&self, view: &ClusterView<'_, Self>) -> Linear {
        Self::member_forms(view, None)[view.skeleton.top()]
    }

    fn label_root(&self, summary: &Linear) -> i64 {
        summary.b
    }

    fn label_members(
        &self,
        view: &ClusterView<'_, Self>,
        _out_label: &i64,
        in_label: Option<&i64>,
    ) -> Vec<i64> {
        let hole = in_label.copied();
        Self::member_forms(view, hole)
            .into_iter()
            .map(|l| l.eval(hole.unwrap_or(0)))
            .collect()
    }

    fn name(&self) -> &'static str {
        "expression-evaluation"
    }
}
