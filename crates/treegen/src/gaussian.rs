//! Linear-Gaussian tree models for the belief-propagation application (Section 6.2).
//!
//! The paper's Section 6.2 formulates inference in a linear Gaussian tree model with
//! per-node parameters `F_j`, `c_i`, `Q_i`, `H_i`, `d_i`, `R_i` and observations `y_i`.
//! This module instantiates the scalar case (`d_x = d_y = 1`), a substitution for the
//! paper's matrix-valued model: the message-passing algebra (leaf elimination, path
//! compression, information-form fusion) is identical, only the matrix inversions
//! degenerate to scalar divisions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tree_repr::Tree;

/// Per-node parameters of a scalar linear-Gaussian tree model.
///
/// Node `i` has state `x_i ~ N(F_i · x_parent + c_i, Q_i)` (for the root, `F` is unused
/// and the prior is `N(c_i, Q_i)`), and observation `y_i ~ N(H_i · x_i + d_i, R_i)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianNode {
    /// State transition coefficient from the parent's state.
    pub f: f64,
    /// State offset.
    pub c: f64,
    /// State noise variance (must be positive).
    pub q: f64,
    /// Observation coefficient.
    pub h: f64,
    /// Observation offset.
    pub d: f64,
    /// Observation noise variance (must be positive).
    pub r: f64,
    /// The observed value `y_i`.
    pub y: f64,
}

/// A complete scalar linear-Gaussian tree model: a tree plus per-node parameters.
#[derive(Debug, Clone)]
pub struct GaussianTreeModel {
    /// The tree topology (conditioning flows parent → child).
    pub tree: Tree,
    /// Per-node parameters, indexed by node id.
    pub nodes: Vec<GaussianNode>,
}

impl GaussianTreeModel {
    /// Generate a random, well-conditioned model on the given tree.
    ///
    /// Transition and observation coefficients are bounded away from zero and variances
    /// are bounded away from zero so that all information-form updates stay numerically
    /// benign. States and observations are sampled by ancestral simulation, so `y`
    /// really is a draw from the model.
    pub fn random(tree: Tree, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = tree.len();
        let mut nodes: Vec<GaussianNode> = (0..n)
            .map(|_| GaussianNode {
                f: rng.gen_range(0.4..1.1) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 },
                c: rng.gen_range(-1.0..1.0),
                q: rng.gen_range(0.2..1.5),
                h: rng.gen_range(0.5..1.5),
                d: rng.gen_range(-0.5..0.5),
                r: rng.gen_range(0.2..1.5),
                y: 0.0,
            })
            .collect();
        // Ancestral sampling of states, then observations.
        let mut state = vec![0.0f64; n];
        for v in tree.bfs_order() {
            let mean = match tree.parent(v) {
                Some(p) => nodes[v].f * state[p] + nodes[v].c,
                None => nodes[v].c,
            };
            state[v] = mean + rng.gen_range(-1.0..1.0) * nodes[v].q.sqrt();
            nodes[v].y =
                nodes[v].h * state[v] + nodes[v].d + rng.gen_range(-1.0..1.0) * nodes[v].r.sqrt();
        }
        Self { tree, nodes }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the model has no nodes (impossible after construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes;

    #[test]
    fn random_model_is_deterministic_and_well_formed() {
        let t = shapes::balanced_kary(63, 2);
        let a = GaussianTreeModel::random(t.clone(), 11);
        let b = GaussianTreeModel::random(t, 11);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.len(), 63);
        for node in &a.nodes {
            assert!(node.q > 0.0);
            assert!(node.r > 0.0);
            assert!(node.f.abs() >= 0.4);
            assert!(node.y.is_finite());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let t = shapes::path(20);
        let a = GaussianTreeModel::random(t.clone(), 1);
        let b = GaussianTreeModel::random(t, 2);
        assert_ne!(a.nodes, b.nodes);
    }
}
