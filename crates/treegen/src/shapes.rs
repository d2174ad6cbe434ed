//! Tree shape generators.
//!
//! Every generator returns a [`Tree`] over nodes `0..n` with node `0` as the root
//! (except where documented). Shapes are chosen to cover the regimes that the paper's
//! complexity claims distinguish: diameter (deep vs. shallow), degree (bounded vs.
//! `n^{Ω(1)}`), and balance.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tree_repr::Tree;

/// A named tree shape, usable as a benchmark parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeShape {
    /// A path of `n` nodes (diameter `n-1`).
    Path,
    /// A star: one center with `n-1` leaves (diameter 2, maximum degree `n-1`).
    Star,
    /// A balanced binary tree (diameter `≈ 2 log₂ n`).
    BalancedBinary,
    /// A caterpillar: a spine path with a constant number of legs per spine node.
    Caterpillar,
    /// A broom: a path whose last node carries a large bundle of leaves.
    Broom,
    /// A uniformly random recursive tree (each node attaches to a uniform earlier node).
    RandomRecursive,
    /// A random tree whose depth is capped at `≈ log₂ n` (shallow and wide).
    ShallowWide,
}

impl TreeShape {
    /// All shapes, for exhaustive sweeps.
    pub const ALL: [TreeShape; 7] = [
        TreeShape::Path,
        TreeShape::Star,
        TreeShape::BalancedBinary,
        TreeShape::Caterpillar,
        TreeShape::Broom,
        TreeShape::RandomRecursive,
        TreeShape::ShallowWide,
    ];

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            TreeShape::Path => "path",
            TreeShape::Star => "star",
            TreeShape::BalancedBinary => "balanced-binary",
            TreeShape::Caterpillar => "caterpillar",
            TreeShape::Broom => "broom",
            TreeShape::RandomRecursive => "random-recursive",
            TreeShape::ShallowWide => "shallow-wide",
        }
    }

    /// Generate a tree of this shape with `n` nodes.
    pub fn generate(&self, n: usize, seed: u64) -> Tree {
        match self {
            TreeShape::Path => path(n),
            TreeShape::Star => star(n),
            TreeShape::BalancedBinary => balanced_kary(n, 2),
            TreeShape::Caterpillar => caterpillar((n / 4).max(1), 3),
            TreeShape::Broom => broom(n / 2, n - n / 2),
            TreeShape::RandomRecursive => random_recursive(n, seed),
            TreeShape::ShallowWide => {
                let depth = ((n as f64).log2().ceil() as usize).max(1);
                depth_capped_random(n, depth, seed)
            }
        }
    }
}

/// A path `0 → 1 → … → n-1` rooted at node 0 (node `i`'s parent is `i-1`).
pub fn path(n: usize) -> Tree {
    assert!(n > 0);
    Tree::from_parents(
        (0..n)
            .map(|v| if v == 0 { None } else { Some(v - 1) })
            .collect(),
    )
}

/// A star with center 0 and `n-1` leaves.
pub fn star(n: usize) -> Tree {
    assert!(n > 0);
    Tree::from_parents(
        (0..n)
            .map(|v| if v == 0 { None } else { Some(0) })
            .collect(),
    )
}

/// A balanced `k`-ary tree with `n` nodes (heap layout: parent of `v` is `(v-1)/k`).
pub fn balanced_kary(n: usize, k: usize) -> Tree {
    assert!(n > 0 && k >= 1);
    Tree::from_parents(
        (0..n)
            .map(|v| if v == 0 { None } else { Some((v - 1) / k) })
            .collect(),
    )
}

/// A caterpillar: a spine of `spine` nodes, each carrying `legs` leaf children.
pub fn caterpillar(spine: usize, legs: usize) -> Tree {
    assert!(spine > 0);
    let mut parents: Vec<Option<usize>> = (0..spine)
        .map(|v| if v == 0 { None } else { Some(v - 1) })
        .collect();
    for s in 0..spine {
        for _ in 0..legs {
            parents.push(Some(s));
        }
    }
    Tree::from_parents(parents)
}

/// A broom: a handle path of `handle` nodes whose last node carries `bristles` leaves.
pub fn broom(handle: usize, bristles: usize) -> Tree {
    assert!(handle > 0);
    let mut parents: Vec<Option<usize>> = (0..handle)
        .map(|v| if v == 0 { None } else { Some(v - 1) })
        .collect();
    for _ in 0..bristles {
        parents.push(Some(handle - 1));
    }
    Tree::from_parents(parents)
}

/// A spider: `legs` paths of length `leg_len` all attached to a central root.
pub fn spider(legs: usize, leg_len: usize) -> Tree {
    let mut parents: Vec<Option<usize>> = vec![None];
    for _ in 0..legs {
        let mut prev = 0usize;
        for _ in 0..leg_len {
            parents.push(Some(prev));
            prev = parents.len() - 1;
        }
    }
    Tree::from_parents(parents)
}

/// A uniformly random recursive tree: node `v ≥ 1` attaches to a uniformly random node
/// in `0..v`. Expected height is `Θ(log n)`.
pub fn random_recursive(n: usize, seed: u64) -> Tree {
    assert!(n > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    Tree::from_parents(
        (0..n)
            .map(|v| {
                if v == 0 {
                    None
                } else {
                    Some(rng.gen_range(0..v))
                }
            })
            .collect(),
    )
}

/// A random tree whose node depths never exceed `max_depth`; new nodes attach to a
/// uniformly random node of depth `< max_depth`. Diameter is at most `2 · max_depth`.
fn depth_capped_random(n: usize, max_depth: usize, seed: u64) -> Tree {
    assert!(n > 0 && max_depth >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut parents: Vec<Option<usize>> = vec![None];
    let mut depth = vec![0usize];
    let mut eligible: Vec<usize> = vec![0];
    for _ in 1..n {
        let idx = rng.gen_range(0..eligible.len());
        let p = eligible[idx];
        let d = depth[p] + 1;
        parents.push(Some(p));
        depth.push(d);
        let v = parents.len() - 1;
        if d < max_depth {
            eligible.push(v);
        }
    }
    Tree::from_parents(parents)
}

/// A tree with `n` nodes whose diameter is close to `target_d`: a central path of
/// `target_d/2 + 1` nodes rooted at one end, with the remaining nodes attached at
/// uniformly random positions of depth `< target_d/2` so that no branch becomes deeper
/// than the central path.
pub fn with_diameter(n: usize, target_d: usize, seed: u64) -> Tree {
    assert!(n > 0);
    let radius = (target_d / 2).min(n.saturating_sub(1));
    if radius == 0 {
        return star(n);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut parents: Vec<Option<usize>> = vec![None];
    let mut depth = vec![0usize];
    // Central path.
    for i in 1..=radius {
        parents.push(Some(i - 1));
        depth.push(i);
    }
    // Remaining nodes at depth < radius so the path stays the deepest branch.
    while parents.len() < n {
        let p = rng.gen_range(0..parents.len());
        if depth[p] >= radius {
            continue;
        }
        parents.push(Some(p));
        depth.push(depth[p] + 1);
    }
    Tree::from_parents(parents)
}

/// A "high-degree caterpillar": a spine of `spine` nodes, each carrying `legs` leaves —
/// used to exercise the degree-reduction path with degrees far above `n^{δ/2}`.
pub fn heavy_caterpillar(spine: usize, legs: usize) -> Tree {
    caterpillar(spine, legs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_and_star_extremes() {
        assert_eq!(path(100).diameter(), 99);
        assert_eq!(star(100).diameter(), 2);
        assert_eq!(star(100).max_degree(), 99);
        assert_eq!(path(1).len(), 1);
    }

    #[test]
    fn balanced_binary_depth() {
        let t = balanced_kary(1023, 2);
        assert_eq!(t.height(), 9);
        assert!(t.max_degree() <= 3);
    }

    #[test]
    fn caterpillar_and_broom_shapes() {
        let c = caterpillar(10, 3);
        assert_eq!(c.len(), 40);
        assert_eq!(c.diameter(), 11);
        let b = broom(20, 50);
        assert_eq!(b.len(), 70);
        assert_eq!(b.max_degree(), 51);
    }

    #[test]
    fn spider_shape() {
        let s = spider(5, 7);
        assert_eq!(s.len(), 36);
        assert_eq!(s.diameter(), 14);
        assert_eq!(s.max_degree(), 5);
    }

    #[test]
    fn random_recursive_is_deterministic() {
        let a = random_recursive(500, 7);
        let b = random_recursive(500, 7);
        assert_eq!(a, b);
        let c = random_recursive(500, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn depth_capped_respects_cap() {
        let t = depth_capped_random(2000, 6, 1);
        assert!(t.height() <= 6);
        assert!(t.diameter() <= 12);
        assert_eq!(t.len(), 2000);
    }

    #[test]
    fn with_diameter_hits_target() {
        for &d in &[4usize, 8, 16, 32] {
            let t = with_diameter(1000, d, 3);
            assert_eq!(t.len(), 1000);
            assert!(t.diameter() >= d / 2, "diameter too small for target {d}");
            assert!(t.diameter() <= d + 1, "diameter too large for target {d}");
        }
    }

    #[test]
    fn all_named_shapes_generate() {
        for shape in TreeShape::ALL {
            let t = shape.generate(300, 42);
            assert_eq!(t.len(), 300, "{}", shape.name());
            assert!(!shape.name().is_empty());
        }
    }
}
