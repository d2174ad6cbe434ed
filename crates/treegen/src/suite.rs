//! The standard evaluation suite used by the integration tests, the rounds baseline and
//! the benchmark: a fixed, seeded collection of trees covering all structural regimes.

use crate::shapes::{self, TreeShape};
use tree_repr::Tree;

/// One entry of the standard suite.
#[derive(Debug, Clone)]
pub struct SuiteEntry {
    /// Human-readable name (shape plus size).
    pub name: String,
    /// The tree itself.
    pub tree: Tree,
}

/// The standard suite: every named shape at the requested size, plus a few
/// diameter-controlled trees. Deterministic for a fixed `n` and `seed`.
pub fn standard_suite(n: usize, seed: u64) -> Vec<SuiteEntry> {
    let mut entries: Vec<SuiteEntry> = TreeShape::ALL
        .iter()
        .map(|shape| SuiteEntry {
            name: format!("{}-{n}", shape.name()),
            tree: shape.generate(n, seed),
        })
        .collect();
    for &d in &[8usize, 64] {
        if d < n {
            entries.push(SuiteEntry {
                name: format!("diameter-{d}-{n}"),
                tree: shapes::with_diameter(n, d, seed ^ d as u64),
            });
        }
    }
    entries
}

/// A smaller suite for fast unit tests (sizes in the hundreds).
pub fn small_suite(seed: u64) -> Vec<SuiteEntry> {
    standard_suite(256, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_shapes_and_sizes() {
        let suite = standard_suite(512, 1);
        assert!(suite.len() >= 7);
        for e in &suite {
            assert_eq!(e.tree.len(), 512, "{}", e.name);
        }
        let diameters: Vec<usize> = suite.iter().map(|e| e.tree.diameter()).collect();
        let min = diameters.iter().min().unwrap();
        let max = diameters.iter().max().unwrap();
        assert!(*min <= 10, "suite lacks a low-diameter tree");
        assert!(*max >= 300, "suite lacks a high-diameter tree");
    }

    #[test]
    fn suite_is_deterministic() {
        let a = standard_suite(128, 5);
        let b = standard_suite(128, 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.tree, y.tree);
        }
    }

    #[test]
    fn small_suite_is_small() {
        for e in small_suite(0) {
            assert!(e.tree.len() <= 256);
        }
    }
}
