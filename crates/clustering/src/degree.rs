//! Degree reduction: replacing high-degree nodes with `O(1)`-depth trees
//! (Section 4.4 of the paper).
//!
//! The clustering construction assumes maximum degree `n^{δ/2}`. A pass partitions the
//! children of every node above that bound into groups of at most `n^{δ/2}`, hangs each
//! group below a fresh *auxiliary* node, and makes the auxiliary nodes the node's new
//! children. A pass turns the widest family `K` into `⌈K/n^{δ/2}⌉` chunks, so the pass
//! count (a constant) is derived from `K`, read once, not found by repeating passes
//! until a check passes. Edges from an original child to its (possibly auxiliary) parent keep
//! the kind [`EdgeKind::Original`]; edges out of auxiliary nodes are
//! [`EdgeKind::Auxiliary`], and DP rules must force both endpoints of an auxiliary edge
//! to represent the same original node (Section 5.3).

use crate::element::EdgeKind;
use mpc_engine::{DistVec, MpcContext};
use tree_repr::{DirectedEdge, NodeId};

/// Base for auxiliary node ids (far above any original node id used in this workspace,
/// but below the 2^48 limit required by cluster-id packing). Public so that structural
/// repair and the serving layer can distinguish original from auxiliary nodes and reject
/// user-supplied ids that would collide with the auxiliary range.
pub const AUX_BASE: NodeId = 1 << 44;

/// `true` if `id` denotes an auxiliary node introduced by [`reduce_degrees`].
pub fn is_aux_node(id: NodeId) -> bool {
    id >= AUX_BASE && id != tree_repr::NodeId::MAX
}

/// Result of [`reduce_degrees`]: a tree in which no node has more children than the
/// bound it records, the input [`build_clustering`](crate::build_clustering) takes.
#[derive(Debug, Clone)]
pub struct DegreeReduced {
    /// The transformed edge list, each edge tagged original/auxiliary.
    pub(crate) edges: DistVec<(DirectedEdge, EdgeKind)>,
    /// The root (unchanged).
    pub(crate) root: NodeId,
    /// Total number of nodes after the transformation (original + auxiliary).
    pub(crate) num_nodes: usize,
    /// Number of original nodes.
    pub(crate) original_nodes: usize,
    /// Mapping from every auxiliary node to the original node it stands in for.
    pub(crate) aux_to_original: DistVec<(NodeId, NodeId)>,
    /// The degree bound every node of `edges` meets.
    pub(crate) max_children: usize,
}

impl DegreeReduced {
    /// Move the reduced tree out: its edge list, root, node count (original +
    /// auxiliary), original node count, and the auxiliary-to-original map.
    #[allow(clippy::type_complexity)]
    pub fn into_parts(
        self,
    ) -> (
        DistVec<(DirectedEdge, EdgeKind)>,
        NodeId,
        usize,
        usize,
        DistVec<(NodeId, NodeId)>,
    ) {
        (
            self.edges,
            self.root,
            self.num_nodes,
            self.original_nodes,
            self.aux_to_original,
        )
    }
}

/// Replace every node with more than `max_children` children by an `O(1)`-depth tree of
/// auxiliary nodes: no node of the result has more than `max_children` children. One
/// gather and one `all_reduce` read the widest family `K`, which fixes the pass count
/// (`O(log_{max_children} K)`); every pass after the first gathers once.
///
/// Returns `None` when `max_children < 2` (the transformation cannot terminate).
pub fn reduce_degrees(
    ctx: &mut MpcContext,
    edges: &DistVec<DirectedEdge>,
    root: NodeId,
    num_nodes: usize,
    max_children: usize,
) -> Option<DegreeReduced> {
    if max_children < 2 {
        return None;
    }
    let by_parent = |(e, _): &(DirectedEdge, EdgeKind)| e.parent;
    // Every original edge starts as an Original edge.
    let mut current: DistVec<(DirectedEdge, EdgeKind)> =
        edges.clone().map_local(|e| (*e, EdgeKind::Original));
    let mut grouped = ctx.gather_groups(current.clone(), by_parent);
    let widest = ctx.all_reduce(
        &grouped,
        0usize,
        |acc, (_, family)| acc.max(family.len()),
        usize::max,
    );
    // A pass leaves the widest family with ⌈K/max_children⌉ members: every other family
    // is either untouched (within the bound) or narrower after its own split.
    let passes = std::iter::successors(Some(widest), |k| Some(k.div_ceil(max_children)))
        .take_while(|&k| k > max_children)
        .count();

    let mut aux_map: Vec<(NodeId, NodeId)> = Vec::new();
    for pass in 1..=passes {
        let mut rewritten: Vec<(DirectedEdge, EdgeKind)> = Vec::new();
        for (parent, family) in grouped.iter() {
            if family.len() <= max_children {
                rewritten.extend(family.iter().copied());
                continue;
            }
            // Auxiliary nodes are never oversized, so `parent` is an original node.
            for chunk in family.chunks(max_children) {
                let aux = AUX_BASE + aux_map.len() as NodeId;
                aux_map.push((aux, *parent));
                // The auxiliary node takes over this chunk of children...
                for (edge, kind) in chunk {
                    rewritten.push((DirectedEdge::new(edge.child, aux), *kind));
                }
                // ...and hangs below the parent through an auxiliary edge.
                rewritten.push((DirectedEdge::new(aux, *parent), EdgeKind::Auxiliary));
            }
        }
        current = ctx.from_vec(rewritten);
        current = ctx.rebalance(current);
        ctx.check_memory(&current, "degree-reduction");
        if pass < passes {
            grouped = ctx.gather_groups(current.clone(), by_parent);
        }
    }

    Some(DegreeReduced {
        edges: current,
        root,
        num_nodes: num_nodes + aux_map.len(),
        original_nodes: num_nodes,
        aux_to_original: ctx.from_vec(aux_map),
        max_children,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_engine::MpcConfig;
    use tree_gen::shapes;
    use tree_repr::Tree;

    fn reduce(tree: &Tree, max_children: usize) -> DegreeReduced {
        let mut ctx = MpcContext::new(MpcConfig::new(tree.len().max(16), 0.5));
        let edges = ctx.from_vec(tree.edges());
        reduce_degrees(
            &mut ctx,
            &edges,
            tree.root() as u64,
            tree.len(),
            max_children,
        )
        .expect("valid bound")
    }

    /// The reduction as it stood before the pass count was derived: after every pass,
    /// gather by parent and `all_reduce` the widest family, and stop once it is within
    /// the bound. [`reduce_degrees`] must produce exactly its output.
    fn reduce_degrees_reference(
        ctx: &mut MpcContext,
        edges: &DistVec<DirectedEdge>,
        root: NodeId,
        num_nodes: usize,
        max_children: usize,
    ) -> DegreeReduced {
        let mut current: DistVec<(DirectedEdge, EdgeKind)> =
            edges.clone().map_local(|e| (*e, EdgeKind::Original));
        let mut aux_map: Vec<(NodeId, NodeId)> = Vec::new();
        let mut next_aux = AUX_BASE;
        let mut total_nodes = num_nodes;
        for _ in 0..64 {
            let grouped = ctx.gather_groups(current.clone(), |(e, _)| e.parent);
            let oversized = ctx.all_reduce(
                &grouped,
                0u64,
                |acc, (_, g)| acc.max(g.len() as u64),
                |a, b| a.max(b),
            );
            if oversized <= max_children as u64 {
                break;
            }
            let mut rewritten: Vec<(DirectedEdge, EdgeKind)> = Vec::new();
            for (parent, family) in grouped.iter() {
                if family.len() <= max_children {
                    rewritten.extend(family.iter().copied());
                    continue;
                }
                let represented = aux_map
                    .iter()
                    .find(|(aux, _)| aux == parent)
                    .map(|(_, orig)| *orig)
                    .unwrap_or(*parent);
                for chunk in family.chunks(max_children) {
                    let aux = next_aux;
                    next_aux += 1;
                    total_nodes += 1;
                    aux_map.push((aux, represented));
                    for (edge, kind) in chunk {
                        rewritten.push((DirectedEdge::new(edge.child, aux), *kind));
                    }
                    rewritten.push((DirectedEdge::new(aux, *parent), EdgeKind::Auxiliary));
                }
            }
            current = ctx.from_vec(rewritten);
            current = ctx.rebalance(current);
            ctx.check_memory(&current, "degree-reduction");
        }
        let aux_to_original = ctx.from_vec(aux_map);
        DegreeReduced {
            edges: current,
            root,
            num_nodes: total_nodes,
            original_nodes: num_nodes,
            aux_to_original,
            max_children,
        }
    }

    #[test]
    fn output_matches_the_per_pass_checking_reference() {
        let mut trees: Vec<Tree> = tree_gen::standard_suite(256, 3)
            .into_iter()
            .map(|entry| entry.tree)
            .collect();
        for leaves in [3, 4, 5, 7, 9, 16, 17, 21, 64, 65, 199, 400, 1000, 5000] {
            trees.push(shapes::star(leaves + 1));
            trees.push(shapes::broom(10, leaves));
        }
        for (n, seed) in [(50, 1), (300, 2), (1000, 3), (3000, 4), (5000, 5)] {
            trees.push(shapes::random_recursive(n, seed));
        }
        for tree in &trees {
            for max_children in [2, 3, 4, 5, 8, 20] {
                let cfg = MpcConfig::new(tree.len().max(16), 0.5);
                let root = tree.root() as u64;
                let mut ctx = MpcContext::new(cfg);
                let edges = ctx.from_vec(tree.edges());
                let got = reduce_degrees(&mut ctx, &edges, root, tree.len(), max_children)
                    .expect("valid bound");
                let mut ctx = MpcContext::new(cfg);
                let edges = ctx.from_vec(tree.edges());
                let want =
                    reduce_degrees_reference(&mut ctx, &edges, root, tree.len(), max_children);
                let case = format!("{} nodes at bound {max_children}", tree.len());
                assert_eq!(got.edges.chunks(), want.edges.chunks(), "{case}");
                assert_eq!(
                    got.aux_to_original.chunks(),
                    want.aux_to_original.chunks(),
                    "{case}"
                );
                assert_eq!(got.num_nodes, want.num_nodes, "{case}");
                assert_eq!(got.original_nodes, want.original_nodes, "{case}");
            }
        }
    }

    #[test]
    fn charges_one_all_reduce_and_one_gather_per_pass() {
        let charged = |tree: &Tree, max_children: usize| {
            let mut ctx = MpcContext::new(MpcConfig::new(tree.len().max(16), 0.5));
            let edges = ctx.from_vec(tree.edges());
            let before = ctx.metrics().rounds;
            reduce_degrees(&mut ctx, &edges, 0, tree.len(), max_children).expect("valid bound");
            let gather = ctx.sort_rounds() + 1;
            let all_reduce = 2 * ctx.agg_rounds();
            let rebalance = 1 + ctx.agg_rounds();
            (ctx.metrics().rounds - before, gather, all_reduce, rebalance)
        };
        // Within the bound: the one gather that reads the widest family, and no pass.
        let (rounds, gather, all_reduce, _) = charged(&shapes::balanced_kary(127, 2), 4);
        assert_eq!(rounds, gather + all_reduce);
        // K = 199 → 50 → 13 → 4: three passes, the first reusing the first gather.
        let (rounds, gather, all_reduce, rebalance) = charged(&shapes::star(200), 4);
        assert_eq!(rounds, all_reduce + 3 * gather + 3 * rebalance);
    }

    /// Rebuild a host-side tree over remapped contiguous ids for structural checks.
    fn rebuild(reduced: &DegreeReduced) -> (Tree, Vec<u64>) {
        let edges: Vec<DirectedEdge> = reduced.edges.iter().map(|(e, _)| *e).collect();
        let mut ids: Vec<u64> = edges.iter().flat_map(|e| [e.child, e.parent]).collect();
        ids.push(reduced.root);
        ids.sort();
        ids.dedup();
        let index_of = |id: u64| ids.binary_search(&id).unwrap();
        let mut parents = vec![None; ids.len()];
        for e in &edges {
            parents[index_of(e.child)] = Some(index_of(e.parent));
        }
        (Tree::from_parents(parents), ids)
    }

    #[test]
    fn star_is_reduced_to_bounded_degree() {
        let tree = shapes::star(200);
        let reduced = reduce(&tree, 4);
        let (rebuilt, _) = rebuild(&reduced);
        assert_eq!(reduced.num_nodes, rebuilt.len());
        assert!(rebuilt.max_degree() <= 5, "degree {}", rebuilt.max_degree());
        // All original nodes survive.
        assert!(reduced.num_nodes >= 200);
        assert_eq!(reduced.original_nodes, 200);
    }

    #[test]
    fn diameter_grows_only_by_constant_factor() {
        let tree = shapes::broom(10, 500);
        let reduced = reduce(&tree, 8);
        let (rebuilt, _) = rebuild(&reduced);
        // Section 4.4: the number of nodes and the diameter grow by at most a constant
        // factor; with threshold 8 and 500 leaves the auxiliary tree has depth ≤ 3.
        assert!(rebuilt.diameter() <= tree.diameter() + 8);
        assert!(reduced.num_nodes <= 2 * tree.len());
    }

    #[test]
    fn bounded_tree_is_unchanged() {
        let tree = shapes::balanced_kary(127, 2);
        let reduced = reduce(&tree, 4);
        assert_eq!(reduced.num_nodes, 127);
        assert!(reduced.aux_to_original.is_empty());
        assert!(reduced
            .edges
            .iter()
            .all(|(_, kind)| *kind == EdgeKind::Original));
    }

    #[test]
    fn aux_edges_marked_and_mapped() {
        let tree = shapes::star(50);
        let reduced = reduce(&tree, 4);
        let aux_edges: Vec<_> = reduced
            .edges
            .iter()
            .filter(|(_, kind)| *kind == EdgeKind::Auxiliary)
            .collect();
        assert!(!aux_edges.is_empty());
        // Every auxiliary node maps back to the star's center (node 0).
        for (aux, orig) in reduced.aux_to_original.iter() {
            assert!(*aux >= AUX_BASE);
            assert_eq!(*orig, 0);
        }
        // Original edges always have an original child.
        for (e, kind) in reduced.edges.iter() {
            if *kind == EdgeKind::Original {
                assert!(e.child < AUX_BASE);
            } else {
                assert!(e.child >= AUX_BASE);
            }
        }
    }

    #[test]
    fn rejects_degenerate_bound() {
        let tree = shapes::star(10);
        let mut ctx = MpcContext::new(MpcConfig::new(16, 0.5));
        let edges = ctx.from_vec(tree.edges());
        assert!(reduce_degrees(&mut ctx, &edges, 0, 10, 1).is_none());
    }
}
