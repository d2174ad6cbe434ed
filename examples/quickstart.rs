//! Quickstart: solve maximum-weight independent set on a tree in the simulated MPC model.
//!
//! Run with: `cargo run --example quickstart`

use mpc_tree_dp::gen::{labels, shapes};
use mpc_tree_dp::problems::MaxWeightIndependentSet;
use mpc_tree_dp::{prepare, ListOfEdges, MpcConfig, MpcContext, StateEngine, TreeInput};

fn main() {
    // A random tree with 4096 nodes and random node weights.
    let tree = shapes::random_recursive(4096, 42);
    let weights: Vec<i64> = labels::uniform_weights(tree.len(), 1, 100, 7)
        .into_iter()
        .map(|w| w as i64)
        .collect();

    // Step 0: an MPC system with n^0.5 words of memory per machine.
    let mut ctx = MpcContext::new(MpcConfig::new(2 * tree.len(), 0.5));

    // Steps 1+2: normalize the representation and build the hierarchical clustering.
    let input = TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree));
    let prepared = prepare(&mut ctx, input, None).expect("well-formed tree");
    println!(
        "clustering: {} layers, {} clusters, max cluster size {}",
        prepared.num_layers(),
        prepared.clustering.num_clusters(),
        prepared.clustering.max_cluster_size()
    );

    // Step 3: solve MaxIS in O(1) additional rounds.
    let engine = StateEngine::new(MaxWeightIndependentSet);
    let inputs = ctx.from_vec(
        weights
            .iter()
            .enumerate()
            .map(|(v, &w)| (v as u64, w))
            .collect::<Vec<_>>(),
    );
    let no_edge_inputs = ctx.from_vec(Vec::<(u64, ())>::new());
    let solution = prepared.solve(&mut ctx, &engine, &inputs, 0, &no_edge_inputs);
    let best = solution.root_summary.best(engine.problem()).unwrap();

    println!("maximum-weight independent set value: {best}");
    println!("tree diameter: {}", tree.diameter());
    println!("MPC metrics: {}", ctx.metrics().summary());
    for phase in ["normalize", "clustering", "plan-build", "plan-solve"] {
        println!("  rounds in {phase}: {}", ctx.metrics().phase_rounds(phase));
    }
}
