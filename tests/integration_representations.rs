//! Cross-crate integration test: every input representation of Section 3 leads to the
//! same solution value.

use mpc_tree_dp::problems::MaxWeightIndependentSet;
use mpc_tree_dp::{prepare, MpcConfig, MpcContext, StateEngine, TreeInput};
use tree_gen::shapes;
use tree_repr::parentheses::match_parentheses_mpc;
use tree_repr::rooting::root_undirected;
use tree_repr::{
    BfsTraversal, DfsTraversal, ListOfEdges, NormalizedTree, PointersToParents,
    StringOfParentheses, UndirectedEdges,
};

#[test]
fn all_representations_yield_the_same_unweighted_optimum() {
    let tree = shapes::random_recursive(400, 9);
    // Unweighted MaxIS so that node renumbering across representations is irrelevant.
    let inputs_of = |n: usize| (0..n).map(|v| (v as u64, 1i64)).collect::<Vec<_>>();
    let mut values = Vec::new();
    let reprs: Vec<(&str, TreeInput)> = vec![
        (
            "list-of-edges",
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        ),
        (
            "undirected",
            TreeInput::UndirectedEdges(UndirectedEdges::from_tree(&tree)),
        ),
        (
            "parentheses",
            TreeInput::StringOfParentheses(StringOfParentheses::from_tree(&tree)),
        ),
        (
            "bfs",
            TreeInput::BfsTraversal(BfsTraversal::from_tree(&tree)),
        ),
        (
            "dfs",
            TreeInput::DfsTraversal(DfsTraversal::from_tree(&tree)),
        ),
        (
            "parents",
            TreeInput::PointersToParents(PointersToParents::from_tree(&tree)),
        ),
    ];
    for (name, input) in reprs {
        let n_words = input.input_words().max(16);
        let mut ctx = MpcContext::new(MpcConfig::new(n_words, 0.5));
        let prepared = prepare(&mut ctx, input, None).unwrap_or_else(|e| panic!("{name}: {e}"));
        let engine = StateEngine::new(MaxWeightIndependentSet);
        // Node ids differ per representation; weight every original node 1.
        let ids: Vec<(u64, i64)> = prepared
            .clustering
            .elements
            .iter()
            .filter(|e| !e.kind.is_cluster() && e.id < (1 << 44))
            .map(|e| (e.id, 1i64))
            .collect();
        let inputs = ctx.from_vec(ids);
        let _ = inputs_of(0);
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
        let sol = prepared.solve(&mut ctx, &engine, &inputs, 0, &no_edges);
        // Conversion, clustering, plan build and evaluation all stay within the
        // model's local memory and bandwidth: the evaluation's resident views included.
        let violations = &ctx.metrics().violations;
        assert!(violations.is_empty(), "{name}: {violations:?}");
        values.push((name, sol.root_summary.best(engine.problem()).unwrap()));
    }
    let first = values[0].1;
    for (name, v) in &values {
        assert_eq!(*v, first, "{name} disagrees: {v} vs {first}");
    }
}

/// Host-side conversions round-trip, and the MPC normalization subroutines agree with
/// them on the same inputs.
#[test]
fn representations_round_trip_through_to_tree() {
    let tree = shapes::random_recursive(257, 11);
    let n = tree.len();

    // Identity-preserving representations reproduce the exact parent array.
    let parents = PointersToParents::from_tree(&tree).to_tree();
    let edges = ListOfEdges::from_tree(&tree).to_tree();
    for v in 0..n {
        assert_eq!(
            parents.parent(v),
            tree.parent(v),
            "parents roundtrip at {v}"
        );
        assert_eq!(edges.parent(v), tree.parent(v), "edges roundtrip at {v}");
    }

    // Traversal representations renumber nodes but preserve the shape: same size,
    // same multiset of child counts.
    let shape_of = |t: &tree_repr::Tree| {
        let mut degs: Vec<usize> = (0..t.len()).map(|v| t.degree_down(v)).collect();
        degs.sort_unstable();
        degs
    };
    let bfs = BfsTraversal::from_tree(&tree).to_tree();
    let dfs = DfsTraversal::from_tree(&tree).to_tree();
    assert_eq!(shape_of(&bfs), shape_of(&tree), "bfs roundtrip shape");
    assert_eq!(shape_of(&dfs), shape_of(&tree), "dfs roundtrip shape");

    // The parentheses string is well-formed, and the MPC matcher agrees on the size.
    let parens = StringOfParentheses::from_tree(&tree);
    assert!(parens.is_balanced());
    let mut ctx = MpcContext::new(MpcConfig::new((4 * n).max(64), 0.5));
    let dist = ctx.from_vec(parens.0.clone());
    let matched: NormalizedTree =
        match_parentheses_mpc(&mut ctx, dist).expect("balanced single-tree string matches");
    assert_eq!(matched.num_nodes, n);

    // Euler-tour rooting of the undirected edges finds the same node count and the
    // smallest id as root.
    let undirected = UndirectedEdges::from_tree(&tree);
    let dist = ctx.from_vec(undirected.0.clone());
    let rooted: NormalizedTree =
        root_undirected(&mut ctx, dist).expect("a tree's edge list roots cleanly");
    assert_eq!(rooted.num_nodes, n);
    assert_eq!(rooted.root, 0, "smallest node id becomes the root");
}
