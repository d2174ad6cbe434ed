//! Tree-structured Bayesian model workload (Section 6.2 of the paper).
//!
//! The full Gaussian belief-propagation DP is not implemented in this reproduction. In
//! its place, this example generates the scalar linear-Gaussian tree model the paper
//! describes and runs the *expectation-style accumulation* that shares its communication
//! pattern (subtree aggregation of observation statistics), to show the data flow the
//! BP application would use.

use mpc_tree_dp::gen::{shapes, GaussianTreeModel};
use mpc_tree_dp::problems::SubtreeAggregate;
use mpc_tree_dp::{prepare, ListOfEdges, MpcConfig, MpcContext, TreeInput};

fn main() {
    let tree = shapes::balanced_kary(2047, 2);
    let model = GaussianTreeModel::random(tree.clone(), 99);
    println!("Gaussian tree model with {} nodes generated", model.len());

    let mut ctx = MpcContext::new(MpcConfig::new(2 * tree.len(), 0.5));
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        None,
    )
    .expect("well-formed tree");
    // Aggregate the (scaled) observations per subtree — the upward sweep's data flow.
    let inputs = ctx.from_vec(
        model
            .nodes
            .iter()
            .enumerate()
            .map(|(v, n)| (v as u64, (n.y * 1000.0) as i64))
            .collect::<Vec<_>>(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let sol = prepared.solve(&mut ctx, &SubtreeAggregate::sum(), &inputs, 0, &no_edges);
    println!(
        "sum of scaled observations over the whole tree: {} (rounds: {})",
        sol.root_label,
        ctx.metrics().rounds
    );
}
