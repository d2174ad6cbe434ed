//! Property suite for the incremental re-solve subsystem: for every Table-1 problem
//! (MaxIS, MinVC, MDS, matching), applying random update batches through
//! [`IncrementalSolver`] yields labels and summaries *identical* to a full plan
//! evaluation of the updated inputs — the incremental path re-runs the same
//! deterministic per-cluster code and only skips work whose inputs are unchanged —
//! and an optimum equal to the sequential solver's on the original tree.

use mpc_tree_dp::clustering::EdgeKind;
use mpc_tree_dp::core::{solve_sequential, StateDp};
use mpc_tree_dp::problems::{
    MaxWeightIndependentSet, MaxWeightMatching, MinWeightDominatingSet, MinWeightVertexCover,
};
use mpc_tree_dp::{
    prepare, IncrementalSolver, ListOfEdges, MpcConfig, MpcContext, PreparedTree, StateEngine,
    TreeInput,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use tree_repr::Tree;

fn arbitrary_tree(max_n: usize) -> impl Strategy<Value = Tree> {
    (2..max_n).prop_flat_map(|n| {
        (2..=n)
            .map(|v| (0..v - 1).prop_map(move |p| p))
            .collect::<Vec<_>>()
            .prop_map(move |parents| {
                let mut vec = vec![None];
                vec.extend(parents.into_iter().map(Some));
                Tree::from_parents(vec)
            })
    })
}

fn ctx_for(tree: &Tree) -> (MpcContext, PreparedTree) {
    let cfg = MpcConfig::new((2 * tree.len()).max(16), 0.5)
        .with_memory_slack(512.0)
        .with_bandwidth_slack(512.0);
    let mut ctx = MpcContext::new(cfg);
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
        Some(4),
    )
    .expect("well-formed tree");
    (ctx, prepared)
}

/// Deterministic pseudo-random update batch of `size` records over `n` keys starting
/// at `lo` (node ids from 0, edge child ids from 1).
fn batch(seed: u64, step: u64, size: usize, lo: usize, n: usize) -> Vec<(u64, i64)> {
    (0..size)
        .map(|i| {
            let mix = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(step * 1442695040888963407 + i as u64 * 2654435761);
            let key = lo + (mix as usize) % (n - lo);
            let w = ((mix >> 32) % 23) as i64;
            (key as u64, w)
        })
        .collect()
}

/// The optimum of `problem` by the sequential solver on the original tree.
fn sequential_optimum<P: StateDp>(
    problem: P,
    tree: &Tree,
    node_input: impl Fn(u64) -> P::NodeInput,
    edge_input: impl Fn(u64) -> P::EdgeInput,
) -> Option<i64> {
    let engine = StateEngine::new(problem);
    solve_sequential(
        &engine,
        &tree.edges(),
        tree.root() as u64,
        node_input,
        |c| (EdgeKind::Original, edge_input(c)),
    )
    .root_summary
    .best(engine.problem())
}

/// Drive a node-weight problem through three random update batches; return an error
/// description on the first divergence between the incremental and the fresh solve.
fn check_node_problem<P>(problem: P, tree: &Tree, seed: u64) -> Result<(), String>
where
    P: StateDp<NodeInput = i64, EdgeInput = ()> + Copy,
{
    let (mut ctx, prepared) = ctx_for(tree);
    let n = tree.len();
    let mut weights: Vec<i64> = (0..n as i64)
        .map(|v| 1 + (v * 13 + seed as i64) % 29)
        .collect();
    let inputs = ctx.from_vec(
        weights
            .iter()
            .enumerate()
            .map(|(v, &w)| (v as u64, w))
            .collect::<Vec<_>>(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let mut inc = IncrementalSolver::new(
        &mut ctx,
        &prepared,
        StateEngine::new(problem),
        &inputs,
        0,
        &no_edges,
    );
    for step in 0..3u64 {
        let updates = batch(seed, step, 1 + (seed as usize + step as usize) % 4, 0, n);
        for &(v, w) in &updates {
            weights[v as usize] = w;
        }
        inc.update_node_inputs(&mut ctx, &updates);

        let fresh_inputs = ctx.from_vec(
            weights
                .iter()
                .enumerate()
                .map(|(v, &w)| (v as u64, w))
                .collect::<Vec<_>>(),
        );
        let fresh = prepared.solve(
            &mut ctx,
            &StateEngine::new(problem),
            &fresh_inputs,
            0,
            &no_edges,
        );
        let fresh_labels: BTreeMap<u64, usize> = fresh.labels.iter().cloned().collect();
        if inc.labels() != &fresh_labels {
            return Err(format!("{}: labels diverge at step {step}", problem.name()));
        }
        if inc.root_summary() != &fresh.root_summary {
            return Err(format!(
                "{}: summary diverges at step {step}",
                problem.name()
            ));
        }
        if inc.root_label() != &fresh.root_label {
            return Err(format!(
                "{}: root label diverges at step {step}",
                problem.name()
            ));
        }
        let oracle = sequential_optimum(problem, tree, |v| weights[v as usize], |_| ());
        if inc.root_summary().best(&problem) != oracle {
            return Err(format!(
                "{}: optimum differs from the sequential oracle at step {step}",
                problem.name()
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn max_is_batches_match_fresh_solve(tree in arbitrary_tree(50), seed in 0u64..1000) {
        prop_assert_eq!(check_node_problem(MaxWeightIndependentSet, &tree, seed), Ok(()));
    }

    #[test]
    fn min_vc_batches_match_fresh_solve(tree in arbitrary_tree(50), seed in 0u64..1000) {
        prop_assert_eq!(check_node_problem(MinWeightVertexCover, &tree, seed), Ok(()));
    }

    #[test]
    fn min_ds_batches_match_fresh_solve(tree in arbitrary_tree(50), seed in 0u64..1000) {
        prop_assert_eq!(check_node_problem(MinWeightDominatingSet, &tree, seed), Ok(()));
    }

    #[test]
    fn matching_edge_batches_match_fresh_solve(tree in arbitrary_tree(50), seed in 0u64..1000) {
        let (mut ctx, prepared) = ctx_for(&tree);
        let n = tree.len();
        let unit = ctx.from_vec((0..n).map(|v| (v as u64, ())).collect::<Vec<_>>());
        let mut edge_w: Vec<i64> = (0..n as i64).map(|v| 1 + (v * 7 + seed as i64) % 11).collect();
        let edges_dv = ctx.from_vec(
            (1..n).map(|v| (v as u64, edge_w[v])).collect::<Vec<_>>(),
        );
        let mut inc = IncrementalSolver::new(
            &mut ctx,
            &prepared,
            StateEngine::new(MaxWeightMatching),
            &unit,
            (),
            &edges_dv,
        );
        for step in 0..3u64 {
            let updates = batch(seed, step, 1 + (seed as usize + step as usize) % 4, 1, n);
            for &(v, w) in &updates {
                edge_w[v as usize] = w;
            }
            inc.update_edge_inputs(&mut ctx, &updates);

            let fresh_edges = ctx.from_vec(
                (1..n).map(|v| (v as u64, edge_w[v])).collect::<Vec<_>>(),
            );
            let fresh = prepared.solve(
                &mut ctx,
                &StateEngine::new(MaxWeightMatching),
                &unit,
                (),
                &fresh_edges,
            );
            let fresh_labels: BTreeMap<u64, usize> = fresh.labels.iter().cloned().collect();
            prop_assert_eq!(inc.labels(), &fresh_labels, "matching labels diverge at step {}", step);
            prop_assert_eq!(inc.root_summary(), &fresh.root_summary);
            prop_assert_eq!(
                inc.root_summary().best(&MaxWeightMatching),
                sequential_optimum(MaxWeightMatching, &tree, |_| (), |c| edge_w[c as usize])
            );
        }
    }

    #[test]
    fn mixed_node_and_edge_batches_match_fresh_solve(tree in arbitrary_tree(40), seed in 0u64..500) {
        // Matching also takes node inputs (all unit); drive both update paths at once
        // through apply_batch.
        let (mut ctx, prepared) = ctx_for(&tree);
        let n = tree.len();
        let mut node_w: Vec<i64> = vec![1; n];
        let node_dv = ctx.from_vec(
            node_w.iter().enumerate().map(|(v, &w)| (v as u64, w)).collect::<Vec<_>>(),
        );
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
        let mut inc = IncrementalSolver::new(
            &mut ctx,
            &prepared,
            StateEngine::new(MaxWeightIndependentSet),
            &node_dv,
            0,
            &no_edges,
        );
        for step in 0..2u64 {
            let updates = batch(seed, step, 2, 0, n);
            for &(v, w) in &updates {
                node_w[v as usize] = w;
            }
            let stats = inc.update_node_inputs(&mut ctx, &updates);
            prop_assert!(stats.batch_size == updates.len());

            let fresh_inputs = ctx.from_vec(
                node_w.iter().enumerate().map(|(v, &w)| (v as u64, w)).collect::<Vec<_>>(),
            );
            let fresh = prepared.solve(
                &mut ctx,
                &StateEngine::new(MaxWeightIndependentSet),
                &fresh_inputs,
                0,
                &no_edges,
            );
            let fresh_labels: BTreeMap<u64, usize> = fresh.labels.iter().cloned().collect();
            prop_assert_eq!(inc.labels(), &fresh_labels);
        }
    }
}
