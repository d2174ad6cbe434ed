//! Host-side rooted tree structure.
//!
//! [`Tree`] is the in-memory adjacency view used by workload generators, sequential
//! baselines, and tests. It is *not* an MPC data structure — MPC algorithms operate on
//! distributed edge lists — but it is the ground truth that distributed results are
//! checked against.

use crate::ids::{DirectedEdge, NodeId};
use std::collections::VecDeque;

/// A rooted tree over nodes `0..n` with parent pointers and child lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    root: usize,
}

impl Tree {
    /// Build a tree from a parent-pointer vector (`parent[v] = None` exactly for the root).
    ///
    /// # Panics
    /// Panics if the vector does not describe a tree (zero or multiple roots, a cycle,
    /// or an out-of-range parent).
    pub fn from_parents(parents: Vec<Option<usize>>) -> Self {
        let n = parents.len();
        assert!(n > 0, "a tree has at least one node");
        let mut root = None;
        let mut children = vec![Vec::new(); n];
        for (v, p) in parents.iter().enumerate() {
            match p {
                None => {
                    if let Some(first) = root {
                        panic!("multiple roots: {} and {}", first, v);
                    }
                    root = Some(v);
                }
                Some(p) => {
                    assert!(*p < n, "parent {} of node {} out of range", p, v);
                    children[*p].push(v);
                }
            }
        }
        let root = root.expect("no root found");
        let tree = Self {
            parent: parents,
            children,
            root,
        };
        // Reachability check (also catches cycles among non-root nodes).
        let mut seen = 0usize;
        let mut queue = VecDeque::from([root]);
        let mut visited = vec![false; n];
        visited[root] = true;
        while let Some(v) = queue.pop_front() {
            seen += 1;
            for &c in &tree.children[v] {
                assert!(!visited[c], "node {} reached twice", c);
                visited[c] = true;
                queue.push_back(c);
            }
        }
        assert_eq!(
            seen, n,
            "parent vector contains a cycle or disconnected part"
        );
        tree
    }

    /// Build a tree with `n` nodes from child→parent edges over ids `0..n`.
    pub fn from_edges(n: usize, edges: &[DirectedEdge]) -> Self {
        let mut parents = vec![None; n];
        let mut has_parent = vec![false; n];
        for e in edges {
            let c = e.child as usize;
            let p = e.parent as usize;
            assert!(c < n && p < n, "edge ({c},{p}) out of range for n={n}");
            assert!(!has_parent[c], "node {c} has two parents");
            has_parent[c] = true;
            parents[c] = Some(p);
        }
        Self::from_parents(parents)
    }

    /// A single-node tree.
    pub fn singleton() -> Self {
        Self::from_parents(vec![None])
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` for the (impossible after construction) empty tree; kept for API symmetry.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The root node.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Parent of `v`, or `None` for the root.
    pub fn parent(&self, v: usize) -> Option<usize> {
        self.parent[v]
    }

    /// Children of `v` in insertion order.
    pub fn children(&self, v: usize) -> &[usize] {
        &self.children[v]
    }

    /// Number of children of `v`.
    pub fn degree_down(&self, v: usize) -> usize {
        self.children[v].len()
    }

    /// Degree of `v` in the underlying undirected tree.
    fn degree(&self, v: usize) -> usize {
        self.children[v].len() + usize::from(self.parent[v].is_some())
    }

    /// Maximum undirected degree over all nodes.
    pub fn max_degree(&self) -> usize {
        (0..self.len()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// All leaves (nodes without children).
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&v| self.children[v].is_empty())
            .collect()
    }

    /// The child→parent edges of the standard representation.
    pub fn edges(&self) -> Vec<DirectedEdge> {
        (0..self.len())
            .filter_map(|v| self.parent[v].map(|p| DirectedEdge::new(v as NodeId, p as NodeId)))
            .collect()
    }

    /// Depth of every node (root has depth 0).
    pub fn depths(&self) -> Vec<usize> {
        let mut depth = vec![0usize; self.len()];
        for v in self.bfs_order() {
            if let Some(p) = self.parent[v] {
                depth[v] = depth[p] + 1;
            }
        }
        depth
    }

    /// Height of the tree: maximum depth.
    pub fn height(&self) -> usize {
        self.depths().into_iter().max().unwrap_or(0)
    }

    /// Diameter of the underlying undirected tree (number of edges on a longest path),
    /// computed with the classic double sweep.
    pub fn diameter(&self) -> usize {
        if self.len() <= 1 {
            return 0;
        }
        let far = self.farthest_from(self.root).0;
        self.farthest_from(far).1
    }

    fn farthest_from(&self, start: usize) -> (usize, usize) {
        let mut dist = vec![usize::MAX; self.len()];
        let mut queue = VecDeque::from([start]);
        dist[start] = 0;
        let mut best = (start, 0usize);
        while let Some(v) = queue.pop_front() {
            let neighbors = self.children[v].iter().copied().chain(self.parent[v]);
            for u in neighbors {
                if dist[u] == usize::MAX {
                    dist[u] = dist[v] + 1;
                    if dist[u] > best.1 {
                        best = (u, dist[u]);
                    }
                    queue.push_back(u);
                }
            }
        }
        best
    }

    /// Nodes in BFS order starting at the root.
    pub fn bfs_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.len());
        let mut queue = VecDeque::from([self.root]);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &c in &self.children[v] {
                queue.push_back(c);
            }
        }
        order
    }

    /// Nodes in DFS preorder (children visited in insertion order), iterative.
    pub fn dfs_preorder(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.len());
        let mut stack = vec![self.root];
        while let Some(v) = stack.pop() {
            order.push(v);
            for &c in self.children[v].iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    /// Nodes in postorder (every node after all of its children), iterative.
    pub fn postorder(&self) -> Vec<usize> {
        let mut order = self.dfs_preorder();
        order.reverse();
        // Reversed preorder is a valid "parents before children reversed" order only if
        // children are emitted before parents after reversal; reversing preorder yields
        // an order where every node appears after its descendants.
        order
    }

    /// Size of the subtree rooted at every node.
    pub fn subtree_sizes(&self) -> Vec<usize> {
        let mut size = vec![1usize; self.len()];
        for v in self.postorder() {
            if let Some(p) = self.parent[v] {
                size[p] += size[v];
            }
        }
        size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 5-node example tree of Fig. 4 in the paper (1-indexed there, 0-indexed here):
    /// edges (0,3), (1,2), (4,3), (3,2); root 2.
    pub(crate) fn paper_tree() -> Tree {
        Tree::from_parents(vec![Some(3), Some(2), None, Some(2), Some(3)])
    }

    #[test]
    fn paper_example_shape() {
        let t = paper_tree();
        assert_eq!(t.len(), 5);
        assert_eq!(t.root(), 2);
        assert_eq!(t.children(2), &[1, 3]);
        assert_eq!(t.children(3), &[0, 4]);
        assert_eq!(t.height(), 2);
        assert_eq!(t.diameter(), 3);
        assert_eq!(t.max_degree(), 3);
        assert_eq!(t.leaves(), vec![0, 1, 4]);
    }

    #[test]
    fn edges_roundtrip() {
        let t = paper_tree();
        let edges = t.edges();
        assert_eq!(edges.len(), 4);
        let t2 = Tree::from_edges(5, &edges);
        assert_eq!(t, t2);
    }

    #[test]
    fn depths_and_subtree_sizes() {
        let t = paper_tree();
        assert_eq!(t.depths(), vec![2, 1, 0, 1, 2]);
        let sizes = t.subtree_sizes();
        assert_eq!(sizes[2], 5);
        assert_eq!(sizes[3], 3);
        assert_eq!(sizes[0], 1);
    }

    #[test]
    fn orders_cover_all_nodes() {
        let t = paper_tree();
        for order in [t.bfs_order(), t.dfs_preorder(), t.postorder()] {
            let mut sorted = order.clone();
            sorted.sort();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        }
        // Postorder: every node after its children.
        let post = t.postorder();
        let pos: Vec<usize> = {
            let mut p = vec![0; t.len()];
            for (i, &v) in post.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        for v in 0..t.len() {
            for &c in t.children(v) {
                assert!(pos[c] < pos[v]);
            }
        }
    }

    #[test]
    fn singleton_tree() {
        let t = Tree::singleton();
        assert_eq!(t.len(), 1);
        assert_eq!(t.diameter(), 0);
        assert_eq!(t.height(), 0);
        assert!(t.edges().is_empty());
    }

    #[test]
    fn path_diameter() {
        let n = 50;
        let parents: Vec<Option<usize>> = (0..n)
            .map(|v| if v == 0 { None } else { Some(v - 1) })
            .collect();
        let t = Tree::from_parents(parents);
        assert_eq!(t.diameter(), n - 1);
        assert_eq!(t.height(), n - 1);
    }

    #[test]
    #[should_panic]
    fn rejects_two_roots() {
        Tree::from_parents(vec![None, None, Some(0)]);
    }

    #[test]
    #[should_panic]
    fn rejects_cycle() {
        Tree::from_parents(vec![None, Some(2), Some(3), Some(1)]);
    }
}
