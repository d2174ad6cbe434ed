//! Host-side mirrors of what the benchmark sent into the library, and the
//! checks that compare the library's answers against them.
//!
//! The mirror keeps a tree's live topology and persistent weights in step with
//! every update, link and cut the benchmark issues. Two oracles read it: a
//! linear include/exclude recurrence for maximum-weight independent set, cheap
//! enough to check every response, and the repository's own
//! `core::solve_sequential`, which the recurrence is cross-checked against at
//! set-up and at the checkpoints the workloads name. All of it runs outside the
//! timed spans.

use mpc_tree_dp::clustering::EdgeKind;
use mpc_tree_dp::core::{solve_sequential, StateDp};
use mpc_tree_dp::problems::MaxWeightIndependentSet;
use mpc_tree_dp::repr::DirectedEdge;
use mpc_tree_dp::{StateEngine, Tree};

pub type MaxIs = StateEngine<MaxWeightIndependentSet>;

pub fn max_is() -> MaxIs {
    StateEngine::new(MaxWeightIndependentSet)
}

/// SplitMix64: the benchmark's own stream of choices (which node, which
/// tenant, which kind of request), a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// A weight in `1..=30`, the range every workload uses.
    pub fn weight(&mut self) -> i64 {
        1 + self.below(30) as i64
    }
}

/// Seeded weights `1..=30` for nodes `0..n`.
pub fn weights(n: usize, seed: u64) -> Vec<i64> {
    mpc_tree_dp::gen::labels::uniform_weights(n, 1, 30, seed)
        .into_iter()
        .map(|w| w as i64)
        .collect()
}

/// `(node, weight)` records for nodes `0..weights.len()`.
pub fn keyed(weights: &[i64]) -> Vec<(u64, i64)> {
    weights
        .iter()
        .enumerate()
        .map(|(v, &w)| (v as u64, w))
        .collect()
}

/// The optimum of a finite-state problem on a static rooted edge list by the
/// repository's sequential oracle.
pub fn sequential_best<P: StateDp>(
    problem: &StateEngine<P>,
    edges: &[DirectedEdge],
    root: u64,
    node_input: impl Fn(u64) -> P::NodeInput,
    edge_input: impl Fn(u64) -> P::EdgeInput,
) -> Option<i64> {
    let sol = solve_sequential(problem, edges, root, node_input, |c| {
        (EdgeKind::Original, edge_input(c))
    });
    sol.root_summary.best(problem.problem())
}

const NO_PARENT: u64 = u64::MAX;
/// A node takes links only while it has fewer children than this, far below
/// the degree bound `n^(δ/2)` at which a link degrades to a re-prepare.
const MAX_CHILDREN_AT_LINK_SITE: u32 = 4;

#[derive(Debug, Clone)]
pub struct Mirror {
    root: u64,
    /// Indexed by node id; `NO_PARENT` for the root and for dead ids.
    parent: Vec<u64>,
    alive: Vec<bool>,
    /// Persistent weights (what updates change), by node id.
    pub weight: Vec<i64>,
    children: Vec<u32>,
    /// Live ids with every parent before its children; dead ids are skipped.
    order: Vec<u64>,
    live: usize,
    /// Original nodes with at most two children: where leaves get linked.
    sites: Vec<u64>,
    originals: usize,
}

impl Mirror {
    pub fn new(tree: &Tree, weights: Vec<i64>) -> Self {
        let n = tree.len();
        assert_eq!(weights.len(), n);
        let parent: Vec<u64> = (0..n)
            .map(|v| tree.parent(v).map_or(NO_PARENT, |p| p as u64))
            .collect();
        let children: Vec<u32> = (0..n).map(|v| tree.children(v).len() as u32).collect();
        let sites = (0..n as u64)
            .filter(|&v| children[v as usize] <= 2)
            .collect();
        Mirror {
            root: tree.root() as u64,
            parent,
            alive: vec![true; n],
            weight: weights,
            children,
            order: tree.bfs_order().into_iter().map(|v| v as u64).collect(),
            live: n,
            sites,
            originals: n,
        }
    }

    /// Number of live nodes.
    #[cfg(test)]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Number of original nodes (ids `0..originals` are never cut).
    pub fn originals(&self) -> usize {
        self.originals
    }

    /// The id the next linked leaf gets: ids are never reused.
    pub fn next_id(&self) -> u64 {
        self.parent.len() as u64
    }

    /// A live original node that can take one more leaf.
    pub fn pick_site(&self, rng: &mut Rng) -> u64 {
        loop {
            let v = self.sites[rng.below(self.sites.len() as u64) as usize];
            if self.children[v as usize] < MAX_CHILDREN_AT_LINK_SITE {
                return v;
            }
        }
    }

    /// Attach a fresh leaf below `parent`; returns its id.
    pub fn link(&mut self, parent: u64, weight: i64) -> u64 {
        debug_assert!(self.alive[parent as usize]);
        let id = self.next_id();
        self.parent.push(parent);
        self.alive.push(true);
        self.weight.push(weight);
        self.children.push(0);
        self.children[parent as usize] += 1;
        self.order.push(id);
        self.live += 1;
        id
    }

    /// Remove a leaf that [`link`](Self::link) added.
    pub fn cut_leaf(&mut self, leaf: u64) {
        let i = leaf as usize;
        assert!(self.alive[i] && self.children[i] == 0 && i >= self.originals);
        self.alive[i] = false;
        self.children[self.parent[i] as usize] -= 1;
        self.parent[i] = NO_PARENT;
        self.live -= 1;
        // Keep the order list proportional to the live tree.
        if self.order.len() > 2 * self.live {
            let alive = &self.alive;
            self.order.retain(|&v| alive[v as usize]);
        }
    }

    /// Ids of the live leaves added by links, ascending.
    pub fn added_leaves(&self) -> impl Iterator<Item = u64> + '_ {
        (self.originals as u64..self.next_id()).filter(|&v| self.alive[v as usize])
    }

    /// Maximum-weight independent set of the live tree under `weight_of`,
    /// children folded into parents in reverse BFS order.
    pub fn max_is_with(&self, weight_of: impl Fn(u64) -> i64) -> i64 {
        let mut take = vec![0i64; self.parent.len()];
        let mut skip = vec![0i64; self.parent.len()];
        for &v in self.order.iter().rev() {
            let i = v as usize;
            if !self.alive[i] {
                continue;
            }
            take[i] += weight_of(v);
            let p = self.parent[i];
            if p != NO_PARENT {
                take[p as usize] += skip[i];
                skip[p as usize] += take[i].max(skip[i]);
            }
        }
        let r = self.root as usize;
        take[r].max(skip[r])
    }

    /// The optimum under the persistent weights.
    pub fn max_is(&self) -> i64 {
        self.max_is_with(|v| self.weight[v as usize])
    }

    /// The same optimum by `core::solve_sequential` on the live edge list.
    pub fn max_is_sequential(&self) -> Option<i64> {
        let edges: Vec<DirectedEdge> = self
            .order
            .iter()
            .filter(|&&v| self.alive[v as usize] && v != self.root)
            .map(|&v| DirectedEdge::new(v, self.parent[v as usize]))
            .collect();
        let problem = max_is();
        let sol = solve_sequential(
            &problem,
            &edges,
            self.root,
            |v| self.weight[v as usize],
            |_| (EdgeKind::Original, ()),
        );
        sol.root_summary.best(problem.problem())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_tree_dp::gen::shapes;
    use mpc_tree_dp::problems::brute;

    #[test]
    fn recurrence_matches_brute_force_and_the_sequential_oracle() {
        for seed in 0..6 {
            let tree = shapes::random_recursive(18, seed);
            let w = weights(18, seed);
            let m = Mirror::new(&tree, w.clone());
            assert_eq!(m.max_is(), brute::max_weight_independent_set(&tree, &w));
            assert_eq!(Some(m.max_is()), m.max_is_sequential());
        }
    }

    #[test]
    fn links_and_cuts_keep_both_oracles_in_step() {
        let tree = shapes::random_recursive(200, 3);
        let mut m = Mirror::new(&tree, weights(200, 3));
        let mut rng = Rng::new(9);
        let mut leaves = Vec::new();
        for step in 0..300 {
            if step % 3 == 2 {
                m.cut_leaf(leaves.remove(0));
            } else {
                let site = m.pick_site(&mut rng);
                leaves.push(m.link(site, rng.weight()));
            }
            if step % 50 == 0 {
                assert_eq!(Some(m.max_is()), m.max_is_sequential());
            }
        }
        assert_eq!(m.live(), 200 + leaves.len());
        assert_eq!(m.added_leaves().collect::<Vec<_>>(), leaves);
        assert_eq!(Some(m.max_is()), m.max_is_sequential());
    }

    #[test]
    fn rng_is_a_pure_function_of_its_seed() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next()
        })
        .take(8)
        .collect();
        let b: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next()
        })
        .take(8)
        .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], Rng::new(8).next());
    }
}
