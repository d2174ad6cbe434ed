//! Label pin: the full label vector of every finite-state problem in
//! `tree-dp-problems`, on every shape of `standard_suite(4096, 7)`, hashes to the
//! digests in `label-digests-n4096.txt`. The other suites check optima against brute
//! force and the sequential solver, and labels for feasibility; a change that breaks
//! a tie differently still passes them. This one does not.
//!
//! Labels are taken from four paths per problem and shape: `SolvePlan::solve`,
//! `solve_sequential` on the original tree, and one `IncrementalSolver` after a fixed
//! input batch and then after a fixed link/cut batch. Small weight ranges make ties
//! common. The digests were generated at 17f4637.

use mpc_tree_dp::clustering::EdgeKind;
use mpc_tree_dp::core::solve_sequential;
use mpc_tree_dp::gen::suite::standard_suite;
use mpc_tree_dp::problems::{
    MaxWeightIndependentSet, MaxWeightMatching, MinWeightDominatingSet, MinWeightVertexCover,
    SumColoring, TreeMaxSat, VertexColoring, XmlValidation,
};
use mpc_tree_dp::{
    prepare, IncrementalSolver, ListOfEdges, MpcConfig, MpcContext, PreparedTree, StateDp,
    StateEngine, StructuralBatch, TreeInput,
};
use tree_repr::{NodeId, Tree};

const DIGESTS: &str = include_str!("label-digests-n4096.txt");

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small pseudo-random value in `0..range` for node `v` under `salt`.
fn small(v: NodeId, salt: u64, range: u64) -> i64 {
    (splitmix(v ^ (salt << 40)) % range) as i64
}

/// The inputs a problem is solved with; `salt` 0 gives the initial inputs, 1 the
/// values of the input batch, 2 those of the linked leaves.
trait Case: StateDp + Clone {
    fn node(&self, tree: &Tree, v: NodeId, salt: u64) -> Self::NodeInput;
    fn edge(&self, v: NodeId, salt: u64) -> Self::EdgeInput;
    fn aux(&self) -> Self::NodeInput;
}

macro_rules! weighted_nodes {
    ($($problem:ty),*) => {$(
        impl Case for $problem {
            fn node(&self, _: &Tree, v: NodeId, salt: u64) -> i64 {
                1 + small(v, salt, 4)
            }
            fn edge(&self, _: NodeId, _: u64) {}
            fn aux(&self) -> i64 {
                0
            }
        }
    )*};
}
weighted_nodes!(
    MaxWeightIndependentSet,
    MinWeightVertexCover,
    MinWeightDominatingSet
);

impl Case for MaxWeightMatching {
    fn node(&self, _: &Tree, _: NodeId, _: u64) {}
    fn edge(&self, v: NodeId, salt: u64) -> i64 {
        1 + small(v, salt, 4)
    }
    fn aux(&self) {}
}

impl Case for TreeMaxSat {
    fn node(&self, _: &Tree, v: NodeId, salt: u64) -> (i64, i64) {
        (small(v, salt, 3), small(v, salt + 8, 3))
    }
    fn edge(&self, v: NodeId, salt: u64) -> i64 {
        small(v, salt + 16, 3)
    }
    fn aux(&self) -> (i64, i64) {
        (0, 0)
    }
}

impl Case for VertexColoring {
    fn node(&self, _: &Tree, _: NodeId, _: u64) {}
    fn edge(&self, _: NodeId, _: u64) {}
    fn aux(&self) {}
}

impl Case for SumColoring {
    fn node(&self, _: &Tree, _: NodeId, _: u64) -> i64 {
        1
    }
    fn edge(&self, _: NodeId, _: u64) {}
    fn aux(&self) -> i64 {
        0
    }
}

impl Case for XmlValidation {
    /// Auxiliary copies carry tag 0, so a node that may be degree-reduced (more than
    /// two children) carries it too; the rest get a random tag.
    fn node(&self, tree: &Tree, v: NodeId, salt: u64) -> u64 {
        let wide = (v as usize) < tree.len() && tree.children(v as usize).len() > 2;
        if wide {
            0
        } else {
            small(v, salt, self.tags as u64) as u64
        }
    }
    fn edge(&self, _: NodeId, _: u64) {}
    fn aux(&self) -> u64 {
        0
    }
}

fn fnv1a_64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of a root label and every `(edge child, label)` pair in key order.
fn digest<'a>(root: usize, labels: impl IntoIterator<Item = (&'a NodeId, &'a usize)>) -> u64 {
    let words = labels
        .into_iter()
        .flat_map(|(&v, &l)| [v, l as u64])
        .chain([root as u64]);
    fnv1a_64(words.flat_map(u64::to_le_bytes))
}

/// `plan sequential input-batch link-cut` digests of `problem` on `tree`.
fn digests<P: Case>(
    ctx: &mut MpcContext,
    prepared: &PreparedTree,
    tree: &Tree,
    problem: P,
) -> [u64; 4] {
    let n = tree.len() as NodeId;
    let nodes = ctx.from_vec(
        (0..n)
            .map(|v| (v, problem.node(tree, v, 0)))
            .collect::<Vec<_>>(),
    );
    let edges = ctx.from_vec(
        (0..n)
            .filter(|&v| tree.parent(v as usize).is_some())
            .map(|v| (v, problem.edge(v, 0)))
            .collect::<Vec<_>>(),
    );

    let engine = StateEngine::new(problem.clone());
    let planned = prepared
        .plan(ctx)
        .solve(ctx, &engine, &nodes, problem.aux(), &edges);
    let mut plan_labels: Vec<(NodeId, usize)> = planned.labels.iter().cloned().collect();
    plan_labels.sort_unstable();
    let plan = digest(planned.root_label, plan_labels.iter().map(|(v, l)| (v, l)));

    let seq = solve_sequential(
        &engine,
        &tree.edges(),
        tree.root() as NodeId,
        |v| problem.node(tree, v, 0),
        |c| (EdgeKind::Original, problem.edge(c, 0)),
    );
    let sequential = digest(seq.root_label, &seq.labels);

    let mut prepared = prepared.clone();
    let mut solver = IncrementalSolver::new(
        ctx,
        &prepared,
        StateEngine::new(problem.clone()),
        &nodes,
        problem.aux(),
        &edges,
    );
    let touched: Vec<NodeId> = (0..16).map(|i| (i * 257 + 11) % n).collect();
    let node_batch: Vec<_> = touched
        .iter()
        .map(|&v| (v, problem.node(tree, v, 1)))
        .collect();
    let edge_batch: Vec<_> = touched
        .iter()
        .filter(|&&v| tree.parent(v as usize).is_some())
        .map(|&v| (v, problem.edge(v, 1)))
        .collect();
    solver.apply_batch(ctx, &node_batch, &edge_batch);
    let batched = digest(*solver.root_label(), solver.labels());

    // Two leaves linked below nodes with at most one child, and a leaf cut elsewhere.
    let thin: Vec<NodeId> = (0..n)
        .filter(|&v| tree.parent(v as usize).is_some() && tree.children(v as usize).len() <= 1)
        .collect();
    let sites = [thin[thin.len() / 3], thin[2 * thin.len() / 3]];
    let cut = (0..n)
        .rev()
        .find(|&v| tree.children(v as usize).is_empty() && !sites.contains(&v))
        .expect("a leaf away from the link sites");
    let mut batch = StructuralBatch::new();
    for (i, site) in sites.into_iter().enumerate() {
        let leaf = n + i as NodeId;
        batch = batch.link(
            site,
            leaf,
            problem.node(tree, leaf, 2),
            problem.edge(leaf, 2),
        );
    }
    solver
        .apply_structural(ctx, &mut prepared, &batch.cut(cut))
        .expect("valid link/cut batch");
    let linked = digest(*solver.root_label(), solver.labels());

    [plan, sequential, batched, linked]
}

#[test]
fn labels_match_the_pinned_digests_on_the_standard_suite() {
    let mut lines = Vec::new();
    for entry in standard_suite(4096, 7) {
        let tree = &entry.tree;
        let mut ctx = MpcContext::new(
            MpcConfig::new(2 * tree.len(), 0.5)
                .with_memory_slack(512.0)
                .with_bandwidth_slack(512.0),
        );
        let prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
            None,
        )
        .expect("prepare");
        let mut row = |name: &str, d: [u64; 4]| {
            lines.push(format!(
                "{} {name} {:#018x} {:#018x} {:#018x} {:#018x}",
                entry.name, d[0], d[1], d[2], d[3]
            ));
        };
        let c = &mut ctx;
        let p = &prepared;
        row("max-is", digests(c, p, tree, MaxWeightIndependentSet));
        row("min-vc", digests(c, p, tree, MinWeightVertexCover));
        row("min-ds", digests(c, p, tree, MinWeightDominatingSet));
        row("matching", digests(c, p, tree, MaxWeightMatching));
        row("max-sat", digests(c, p, tree, TreeMaxSat));
        row(
            "coloring",
            digests(c, p, tree, VertexColoring { colors: 3 }),
        );
        row(
            "sum-coloring",
            digests(c, p, tree, SumColoring { colors: 3 }),
        );
        row("xml", digests(c, p, tree, XmlValidation::chain_schema(3)));
    }
    let pinned: Vec<&str> = DIGESTS
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let drifted: Vec<String> = lines
        .iter()
        .filter(|l| !pinned.contains(&l.as_str()))
        .cloned()
        .collect();
    assert!(
        drifted.is_empty() && lines.len() == pinned.len(),
        "labels moved; recomputed rows that differ from label-digests-n4096.txt \
         (columns: shape problem plan sequential input-batch link-cut):\n{}",
        drifted.join("\n")
    );
}
