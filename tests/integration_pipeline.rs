//! Cross-crate integration test: the full three-step pipeline end to end, with metrics.

use mpc_tree_dp::problems::MaxWeightIndependentSet;
use mpc_tree_dp::{prepare, ListOfEdges, MpcConfig, MpcContext, StateEngine, TreeInput};
use tree_gen::{labels, shapes};

#[test]
fn end_to_end_max_is_on_medium_trees() {
    for (i, tree) in [
        shapes::random_recursive(2000, 1),
        shapes::balanced_kary(2000, 4),
        shapes::caterpillar(500, 3),
    ]
    .into_iter()
    .enumerate()
    {
        let weights: Vec<i64> = labels::uniform_weights(tree.len(), 1, 100, i as u64)
            .into_iter()
            .map(|w| w as i64)
            .collect();
        // Sequential DP as the oracle at this scale.
        let mut dp_out = vec![0i64; tree.len()];
        let mut dp_in = weights.clone();
        for v in tree.postorder() {
            for &c in tree.children(v) {
                dp_out[v] += dp_out[c].max(dp_in[c]);
                dp_in[v] += dp_out[c];
            }
        }
        let expected = dp_out[tree.root()].max(dp_in[tree.root()]);

        let mut ctx = MpcContext::new(MpcConfig::new(2 * tree.len(), 0.5));
        let prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            None,
        )
        .expect("prepare");
        let engine = StateEngine::new(MaxWeightIndependentSet);
        let inputs = ctx.from_vec(
            weights
                .iter()
                .enumerate()
                .map(|(v, &w)| (v as u64, w))
                .collect::<Vec<_>>(),
        );
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
        let sol = prepared.solve(&mut ctx, &engine, &inputs, 0, &no_edges);
        assert_eq!(
            sol.root_summary.best(engine.problem()).unwrap(),
            expected,
            "tree {i}"
        );
        assert!(ctx.metrics().rounds > 0);
        // The clustering must be structurally valid.
        assert!(prepared
            .clustering
            .validate(&prepared.edges.to_vec())
            .is_empty());
    }
}

#[test]
fn clustering_reuse_has_constant_marginal_cost() {
    let tree = shapes::random_recursive(3000, 5);
    let mut ctx = MpcContext::new(MpcConfig::new(2 * tree.len(), 0.5));
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        None,
    )
    .expect("prepare");
    let engine = StateEngine::new(MaxWeightIndependentSet);
    let inputs = ctx.from_vec(
        (0..tree.len())
            .map(|v| (v as u64, 1i64))
            .collect::<Vec<_>>(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    // The plan is part of the per-topology set-up, like the clustering it is built on.
    prepared.plan(&mut ctx);
    let mut per_solve = Vec::new();
    for _ in 0..3 {
        let before = ctx.metrics().rounds;
        let _ = prepared.solve(&mut ctx, &engine, &inputs, 0, &no_edges);
        per_solve.push(ctx.metrics().rounds - before);
    }
    // Every solve on the same clustering costs exactly the same number of rounds.
    assert_eq!(per_solve[0], per_solve[1]);
    assert_eq!(per_solve[1], per_solve[2]);
}
