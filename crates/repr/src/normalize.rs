//! Normalization of any supported representation into the standard form
//! (Section 3.2 of the paper): a rooted tree as a distributed list of directed
//! child→parent edges, plus the root id and node count.

use crate::ids::{DirectedEdge, NodeId};
use crate::parentheses::match_parentheses_mpc;
use crate::representations::{
    BfsTraversal, DfsTraversal, ListOfEdges, PointersToParents, StringOfParentheses,
    UndirectedEdges,
};
use crate::rooting::root_undirected;
use mpc_engine::{DistVec, MpcContext};

/// Any of the supported input representations (Section 3.1).
#[derive(Debug, Clone)]
pub enum TreeInput {
    /// Directed child→parent edges (already the standard form; only the root has to be
    /// identified).
    ListOfEdges(ListOfEdges),
    /// Undirected edges; rooted at the smallest node id during normalization.
    UndirectedEdges(UndirectedEdges),
    /// A properly nested parentheses / tag string.
    StringOfParentheses(StringOfParentheses),
    /// BFS traversal array (parent references by BFS index).
    BfsTraversal(BfsTraversal),
    /// DFS traversal array (parent references by DFS preorder index).
    DfsTraversal(DfsTraversal),
    /// Arbitrary-order parent pointer array.
    PointersToParents(PointersToParents),
}

impl TreeInput {
    /// Size of the representation in input words (what `n` means for this input).
    pub fn input_words(&self) -> usize {
        match self {
            TreeInput::ListOfEdges(e) => 2 * e.0.len(),
            TreeInput::UndirectedEdges(e) => 2 * e.0.len(),
            TreeInput::StringOfParentheses(s) => s.0.len(),
            TreeInput::BfsTraversal(t) => t.0.len(),
            TreeInput::DfsTraversal(t) => t.0.len(),
            TreeInput::PointersToParents(t) => t.0.len(),
        }
    }
}

/// The standard representation produced by [`normalize`].
#[derive(Debug, Clone)]
pub struct NormalizedTree {
    /// Directed child→parent edges, distributed across machines.
    pub edges: DistVec<DirectedEdge>,
    /// The root node id.
    pub root: NodeId,
    /// Number of nodes in the tree.
    pub num_nodes: usize,
}

/// Convert any supported representation into the standard rooted list-of-edges form.
///
/// Costs `O(1)` rounds for every rooted representation: an edge list pays one join and
/// one all-reduce to find its root, a parent array (pointers, BFS/DFS traversals) one
/// numbering and one all-reduce, a parentheses string the hierarchical matching of
/// Section 3.2.1. An undirected edge list pays `O(log n)`: two sorts, one join and
/// `2⌊log₂(2m − 1)⌋` probe rounds of pointer doubling (see [`crate::rooting`] for
/// the exact formula and the documented substitution). Returns `None` for malformed
/// inputs (unbalanced parentheses, multiple roots, cycles).
pub fn normalize(ctx: &mut MpcContext, input: TreeInput) -> Option<NormalizedTree> {
    match input {
        TreeInput::ListOfEdges(ListOfEdges(edges)) => {
            let num_nodes = edges.len() + 1;
            let dv = ctx.from_vec(edges);
            let root = find_root_of_edge_list(ctx, &dv)?;
            Some(NormalizedTree {
                edges: dv,
                root,
                num_nodes,
            })
        }
        TreeInput::UndirectedEdges(UndirectedEdges(edges)) => {
            let dv = ctx.from_vec(edges);
            let rooted = root_undirected(ctx, dv)?;
            Some(NormalizedTree {
                edges: rooted.edges,
                root: rooted.root,
                num_nodes: rooted.num_nodes,
            })
        }
        TreeInput::StringOfParentheses(StringOfParentheses(parens)) => {
            let dv = ctx.from_vec(parens);
            let matched = match_parentheses_mpc(ctx, dv)?;
            Some(NormalizedTree {
                edges: matched.edges,
                root: matched.root,
                num_nodes: matched.num_nodes,
            })
        }
        TreeInput::BfsTraversal(BfsTraversal(parents))
        | TreeInput::DfsTraversal(DfsTraversal(parents))
        | TreeInput::PointersToParents(PointersToParents(parents)) => {
            parent_array_to_edges(ctx, parents)
        }
    }
}

/// [`find_root_of_edge_list`]'s one-word tally of root candidates: no candidate yet,
/// or more than one distinct candidate; any other value is the only candidate seen.
/// These two ids are therefore not usable as node ids of an edge-list input.
const NO_ROOT: NodeId = NodeId::MAX;
const MANY_ROOTS: NodeId = NodeId::MAX - 1;

/// Identify the root of a directed child→parent edge list: the unique node that appears
/// as a parent but never as a child. One join plus one all-reduce (`O(1)` rounds); the
/// reduction carries "none, this one, or several" in a single word, so no machine ever
/// collects the candidates.
fn find_root_of_edge_list(ctx: &mut MpcContext, edges: &DistVec<DirectedEdge>) -> Option<NodeId> {
    if edges.is_empty() {
        return None;
    }
    // For every edge, ask whether its parent endpoint occurs as a child of some edge.
    let parents = edges.filter_map_local(|e| Some(e.parent));
    let joined = ctx.join_lookup(parents, |p| *p, edges, |e| e.child);
    let tally = |a: NodeId, b: NodeId| match (a, b) {
        (NO_ROOT, x) | (x, NO_ROOT) => x,
        (a, b) if a == b => a,
        _ => MANY_ROOTS,
    };
    let root = ctx.all_reduce(
        &joined,
        NO_ROOT,
        |acc, (parent, found)| {
            if found.is_none() {
                tally(acc, *parent)
            } else {
                acc
            }
        },
        tally,
    );
    (root != NO_ROOT && root != MANY_ROOTS).then_some(root)
}

/// Turn a parent-pointer array (BFS order, DFS order, or arbitrary order — they are all
/// "index → parent index" arrays) into directed edges. `O(1)` rounds: attach indices,
/// find the root and check it is the only one in a single reduction, then drop the
/// root entry.
fn parent_array_to_edges(
    ctx: &mut MpcContext,
    parents: Vec<Option<u64>>,
) -> Option<NormalizedTree> {
    if parents.is_empty() {
        return None;
    }
    let num_nodes = parents.len();
    let dv = ctx.from_vec(parents);
    let indexed = ctx.with_index(dv);
    let (root, roots) = ctx.all_reduce(
        &indexed,
        (NodeId::MAX, 0usize),
        |(least, count), (i, p)| match p {
            None => (least.min(*i), count + 1),
            Some(_) => (least, count),
        },
        |a, b| (a.0.min(b.0), a.1 + b.1),
    );
    if roots != 1 {
        return None;
    }
    let edges: DistVec<DirectedEdge> =
        indexed.flat_map_local(|(i, p)| p.map(|parent| DirectedEdge::new(i, parent)));
    Some(NormalizedTree {
        edges,
        root,
        num_nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Tree;
    use mpc_engine::MpcConfig;

    fn paper_tree() -> Tree {
        Tree::from_parents(vec![Some(3), Some(2), None, Some(2), Some(3)])
    }

    fn normalize_input(input: TreeInput) -> Option<NormalizedTree> {
        let n = input.input_words().max(8);
        let mut ctx = MpcContext::new(MpcConfig::new(n, 0.5));
        normalize(&mut ctx, input)
    }

    #[test]
    fn list_of_edges_identifies_root() {
        let t = paper_tree();
        let norm = normalize_input(TreeInput::ListOfEdges(ListOfEdges::from_tree(&t))).unwrap();
        assert_eq!(norm.root, 2);
        assert_eq!(norm.num_nodes, 5);
        assert_eq!(norm.edges.len(), 4);
    }

    #[test]
    fn pointer_array_forms() {
        let t = paper_tree();
        for input in [
            TreeInput::PointersToParents(PointersToParents::from_tree(&t)),
            TreeInput::BfsTraversal(BfsTraversal::from_tree(&t)),
            TreeInput::DfsTraversal(DfsTraversal::from_tree(&t)),
        ] {
            let kind = format!("{input:?}");
            let norm = normalize_input(input).unwrap_or_else(|| panic!("{kind} failed"));
            assert_eq!(norm.num_nodes, 5, "{kind}");
            assert_eq!(norm.edges.len(), 4, "{kind}");
            // Rebuild and compare structural invariants (ids differ per representation).
            let rebuilt = Tree::from_edges(5, &norm.edges.into_vec());
            assert_eq!(rebuilt.height(), t.height(), "{kind}");
            assert_eq!(rebuilt.diameter(), t.diameter(), "{kind}");
        }
    }

    #[test]
    fn parentheses_form() {
        let t = paper_tree();
        let s = StringOfParentheses::from_tree(&t);
        let norm = normalize_input(TreeInput::StringOfParentheses(s)).unwrap();
        assert_eq!(norm.num_nodes, 5);
        assert_eq!(norm.edges.len(), 4);
        assert_eq!(norm.root, 0);
    }

    #[test]
    fn undirected_form() {
        let t = paper_tree();
        let norm =
            normalize_input(TreeInput::UndirectedEdges(UndirectedEdges::from_tree(&t))).unwrap();
        assert_eq!(norm.num_nodes, 5);
        assert_eq!(norm.root, 0);
        let rebuilt = Tree::from_edges(5, &norm.edges.into_vec());
        assert_eq!(rebuilt.diameter(), t.diameter());
    }

    #[test]
    fn all_representations_agree_on_shape() {
        // A slightly larger tree: a caterpillar with 3 legs per spine node.
        let mut parents: Vec<Option<usize>> = vec![None];
        for i in 1..10 {
            parents.push(Some(i - 1));
        }
        let spine = parents.len();
        for s in 0..spine {
            for _ in 0..3 {
                parents.push(Some(s));
            }
        }
        let t = Tree::from_parents(parents);
        let inputs = vec![
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&t)),
            TreeInput::UndirectedEdges(UndirectedEdges::from_tree(&t)),
            TreeInput::StringOfParentheses(StringOfParentheses::from_tree(&t)),
            TreeInput::BfsTraversal(BfsTraversal::from_tree(&t)),
            TreeInput::DfsTraversal(DfsTraversal::from_tree(&t)),
            TreeInput::PointersToParents(PointersToParents::from_tree(&t)),
        ];
        for input in inputs {
            let kind = format!("{input:?}");
            let norm = normalize_input(input).unwrap_or_else(|| panic!("{kind} failed"));
            assert_eq!(norm.num_nodes, t.len(), "{kind}");
            assert_eq!(norm.edges.len(), t.len() - 1, "{kind}");
        }
    }

    #[test]
    fn malformed_inputs_rejected() {
        // Two roots in a pointer array.
        assert!(
            normalize_input(TreeInput::PointersToParents(PointersToParents(vec![
                None,
                None,
                Some(0)
            ])))
            .is_none()
        );
        // Unbalanced parentheses.
        assert!(normalize_input(TreeInput::StringOfParentheses(
            StringOfParentheses::parse("(()").unwrap()
        ))
        .is_none());
        // Empty inputs.
        assert!(normalize_input(TreeInput::ListOfEdges(ListOfEdges(vec![]))).is_none());
        assert!(normalize_input(TreeInput::PointersToParents(PointersToParents(vec![]))).is_none());
    }

    #[test]
    fn edge_list_with_cycle_rejected_or_rootless() {
        // A 3-cycle has no root.
        let edges = ListOfEdges(vec![
            DirectedEdge::new(0, 1),
            DirectedEdge::new(1, 2),
            DirectedEdge::new(2, 0),
        ]);
        assert!(normalize_input(TreeInput::ListOfEdges(edges)).is_none());
    }
}
