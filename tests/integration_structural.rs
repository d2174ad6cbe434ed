//! Structural-update integration gate: batched `link`/`cut` operations applied
//! through [`IncrementalSolver::apply_structural`] must leave clustering, plan,
//! and labels *bit-identical* to a fresh `prepare` + solve of the mutated tree —
//! for every Table-1 problem, on locally-repaired and degraded batches alike, and
//! interleaved with ordinary weight-update batches. The serving-layer tests drive
//! the same guarantee through `submit`/`flush` (the solver splices the tenant's one
//! plan, or re-prepares on a degrade) and through snapshot → restore.

use mpc_tree_dp::clustering::{is_aux_node, plan_repair, EdgeKind, TopologyOp, AUX_BASE};
use mpc_tree_dp::core::{open, solve_sequential, StateDp};
use mpc_tree_dp::problems::{
    MaxWeightIndependentSet, MaxWeightMatching, MinWeightDominatingSet, MinWeightVertexCover,
};
use mpc_tree_dp::server::KIND_TENANT;
use mpc_tree_dp::{
    prepare, ClusterDp, IncrementalSolver, ListOfEdges, MpcConfig, MpcContext, PreparedTree,
    Request, Response, ServerConfig, Snapshot, SolverStore, StateEngine, StructuralBatch,
    StructuralStats, TenantSpec, TreeDpServer, TreeInput,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use tree_repr::{DirectedEdge, Tree};

type MaxIs = StateEngine<MaxWeightIndependentSet>;

fn cfg_for(n: usize) -> MpcConfig {
    MpcConfig::new((4 * n).max(16), 0.5)
        .with_memory_slack(512.0)
        .with_bandwidth_slack(512.0)
}

/// Host-side ground-truth model of the mutated tree: the edge list (child →
/// parent), per-node weights, and per-edge weights, kept in sync with every
/// structural op so a fresh prepare of `edges` is always the reference.
#[derive(Clone)]
struct Model {
    root: u64,
    edges: Vec<(u64, u64)>,
    weights: BTreeMap<u64, i64>,
    edge_weights: BTreeMap<u64, i64>,
}

impl Model {
    fn from_tree(tree: &Tree, seed: u64) -> Self {
        let edges: Vec<(u64, u64)> = (1..tree.len())
            .map(|v| {
                (
                    v as u64,
                    tree.parent(v).expect("non-root has a parent") as u64,
                )
            })
            .collect();
        let weights = (0..tree.len() as u64)
            .map(|v| (v, 1 + ((v * 13 + seed) % 29) as i64))
            .collect();
        let edge_weights = edges
            .iter()
            .map(|&(c, _)| (c, 1 + ((c * 7 + seed) % 11) as i64))
            .collect();
        Model {
            root: 0,
            edges,
            weights,
            edge_weights,
        }
    }

    fn live_nodes(&self) -> Vec<u64> {
        let mut live = vec![self.root];
        live.extend(self.edges.iter().map(|&(c, _)| c));
        live.sort_unstable();
        live
    }

    fn link(&mut self, parent: u64, child: u64, w: i64, ew: i64) {
        self.edges.push((child, parent));
        self.weights.insert(child, w);
        self.edge_weights.insert(child, ew);
    }

    fn children(&self) -> BTreeMap<u64, Vec<u64>> {
        let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for &(c, p) in &self.edges {
            children.entry(p).or_default().push(c);
        }
        children
    }

    /// Node count of every live node's subtree.
    fn subtree_sizes(&self) -> BTreeMap<u64, usize> {
        let children = self.children();
        // Parents before children; summed in reverse.
        let mut order = vec![self.root];
        let mut at = 0;
        while at < order.len() {
            order.extend(children.get(&order[at]).into_iter().flatten().copied());
            at += 1;
        }
        let mut sizes: BTreeMap<u64, usize> = BTreeMap::new();
        for &v in order.iter().rev() {
            let below: usize = children
                .get(&v)
                .into_iter()
                .flatten()
                .map(|c| sizes[c])
                .sum();
            sizes.insert(v, 1 + below);
        }
        sizes
    }

    fn cut(&mut self, child: u64) {
        let children = self.children();
        let mut removed: BTreeSet<u64> = BTreeSet::new();
        let mut frontier = vec![child];
        while let Some(v) = frontier.pop() {
            if removed.insert(v) {
                frontier.extend(children.get(&v).into_iter().flatten().copied());
            }
        }
        self.edges.retain(|&(c, _)| !removed.contains(&c));
        self.weights.retain(|v, _| !removed.contains(v));
        self.edge_weights.retain(|v, _| !removed.contains(v));
    }

    fn edge_list(&self) -> Vec<DirectedEdge> {
        self.edges
            .iter()
            .map(|&(c, p)| DirectedEdge::new(c, p))
            .collect()
    }
}

/// Fresh prepare + planned solve of the model for a node-weight problem; returns
/// (labels by edge child, root label, root summary's optimum).
fn fresh_node_solve<P>(
    ctx: &mut MpcContext,
    model: &Model,
    problem: P,
) -> (BTreeMap<u64, usize>, usize, Option<i64>)
where
    P: StateDp<NodeInput = i64, EdgeInput = ()> + Copy,
{
    let fresh = prepare(
        ctx,
        TreeInput::ListOfEdges(ListOfEdges(model.edge_list())),
        Some(4),
    )
    .expect("mutated tree stays well-formed");
    let engine = StateEngine::new(problem);
    let inputs = ctx.from_vec(
        model
            .weights
            .iter()
            .map(|(&v, &w)| (v, w))
            .collect::<Vec<_>>(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let sol = fresh.solve(ctx, &engine, &inputs, 0, &no_edges);
    let labels: BTreeMap<u64, usize> = sol.labels.iter().cloned().collect();
    let best = sol.root_summary.best(engine.problem());
    let sequential = solve_sequential(
        &engine,
        &model.edge_list(),
        model.root,
        |v| model.weights[&v],
        |_| (EdgeKind::Original, ()),
    );
    assert_eq!(
        best,
        sequential.root_summary.best(engine.problem()),
        "fresh prepare + solve vs the sequential oracle"
    );
    (labels, sol.root_label, best)
}

/// Assert the incremental state equals a fresh prepare + solve of `model`.
fn assert_node_equiv<P>(
    ctx: &mut MpcContext,
    inc: &IncrementalSolver<StateEngine<P>>,
    model: &Model,
    problem: P,
    what: &str,
) where
    P: StateDp<NodeInput = i64, EdgeInput = ()> + Copy,
{
    let (fresh_labels, fresh_root_label, fresh_best) = fresh_node_solve(ctx, model, problem);
    for &(child, _) in &model.edges {
        assert_eq!(
            inc.label(child),
            fresh_labels.get(&child),
            "{what}: label of {child} diverges"
        );
    }
    assert_eq!(inc.root_label(), &fresh_root_label, "{what}: root label");
    assert_eq!(
        inc.root_summary().best(&problem),
        fresh_best,
        "{what}: optimum"
    );
}

/// Apply `batch` through the solver with the "patched == rebuilt" gate around it:
/// beforehand, the persistent repair index (once built) must plan exactly what the
/// standalone from-scratch `plan_repair` plans; afterwards, every index the batch
/// patched in place — the solver's topology and repair index, its plan's routing —
/// must equal a from-scratch build over the repaired tree, and the repaired
/// clustering must validate clean.
fn apply_checked<P>(
    ctx: &mut MpcContext,
    inc: &mut IncrementalSolver<P>,
    prepared: &mut PreparedTree,
    batch: &StructuralBatch<P>,
    what: &str,
) -> StructuralStats
where
    P: ClusterDp,
    P::Summary: PartialEq,
    P::Label: PartialEq,
{
    let ops: Vec<TopologyOp> = batch.ops().iter().map(|op| op.topology()).collect();
    if let Some(index) = inc.repair_index() {
        let edges: Vec<_> = prepared.edges.iter().copied().collect();
        assert_eq!(
            index.plan(&ops),
            plan_repair(&prepared.clustering, &edges, &ops),
            "{what}: persistent index vs standalone planner"
        );
    }
    let stats = inc
        .apply_structural(ctx, prepared, batch)
        .unwrap_or_else(|e| panic!("{what}: valid batch rejected: {e}"));
    assert_patched_equals_rebuilt(inc, prepared, what);
    stats
}

/// The "patched == rebuilt" half of [`apply_checked`], also usable after weight
/// batches, restores and degrades: the audit holds the solver's spliced plan to the
/// link of the repaired clustering under its own view counts, bit for bit.
fn assert_patched_equals_rebuilt<P>(inc: &IncrementalSolver<P>, prepared: &PreparedTree, what: &str)
where
    P: ClusterDp,
    P::Summary: PartialEq,
    P::Label: PartialEq,
{
    inc.audit_indexes(prepared)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let plain = prepared.edges.to_vec();
    assert_eq!(
        prepared.clustering.validate(&plain),
        Vec::new(),
        "{what}: repaired clustering"
    );
}

/// Deterministic mixer shared by the op and weight-batch generators.
fn mix(seed: u64, step: u64, i: u64) -> u64 {
    seed.wrapping_mul(6364136223846793005)
        .wrapping_add(step.wrapping_mul(1442695040888963407))
        .wrapping_add(i.wrapping_mul(2654435761))
}

/// Generate one valid structural batch against `model` (ops applied to the model
/// as they are generated, so cut targets and link parents are always live).
fn gen_batch(model: &mut Model, seed: u64, step: u64, next_id: &mut u64) -> StructuralBatch<MaxIs> {
    let mut batch = StructuralBatch::new();
    let k = 1 + (mix(seed, step, 99) % 3) as usize;
    for i in 0..k {
        let m = mix(seed, step, i as u64);
        let live = model.live_nodes();
        let cuttable: Vec<u64> = live.iter().copied().filter(|&v| v != model.root).collect();
        if m % 3 == 0 && cuttable.len() > 4 {
            let victim = cuttable[(m / 3) as usize % cuttable.len()];
            model.cut(victim);
            batch = batch.cut(victim);
        } else {
            let parent = live[(m / 3) as usize % live.len()];
            let child = *next_id;
            *next_id += 1;
            let w = ((m >> 32) % 23) as i64;
            model.link(parent, child, w, 1);
            batch = batch.link(parent, child, w, ());
        }
    }
    batch
}

/// All three node-weight Table-1 problems: a fixed sequence of link/cut batches
/// (exercising both interior cuts and chained links) matches the fresh solve
/// after every batch.
#[test]
fn node_problem_structural_batches_match_fresh_prepare() {
    fn run<P: StateDp<NodeInput = i64, EdgeInput = ()> + Copy>(problem: P) {
        let tree = tree_gen::shapes::caterpillar(24, 3);
        let n = tree.len();
        let mut ctx = MpcContext::new(cfg_for(2 * n));
        let mut prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            Some(4),
        )
        .expect("well-formed tree");
        let mut model = Model::from_tree(&tree, 5);
        let inputs = ctx.from_vec(
            model
                .weights
                .iter()
                .map(|(&v, &w)| (v, w))
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

        // Batch 1: cut an interior node, graft a two-leaf chain elsewhere.
        let batch = StructuralBatch::new()
            .cut(10)
            .link(3, 900, 7, ())
            .link(900, 901, 2, ());
        model.cut(10);
        model.link(3, 900, 7, 1);
        model.link(900, 901, 2, 1);
        let stats = apply_checked(&mut ctx, &mut inc, &mut prepared, &batch, "batch 1");
        assert!(stats.rounds > 0);
        assert_node_equiv(&mut ctx, &inc, &model, problem, "after batch 1");

        // Batch 2: cut the freshly grafted chain and a leaf in the same batch.
        let batch = StructuralBatch::new().cut(900).link(1, 902, 11, ());
        model.cut(900);
        model.link(1, 902, 11, 1);
        apply_checked(&mut ctx, &mut inc, &mut prepared, &batch, "batch 2");
        assert_node_equiv(&mut ctx, &inc, &model, problem, "after batch 2");

        // A weight update after the repairs lands on the spliced store.
        inc.update_node_inputs(&mut ctx, &[(902, 50), (1, 0)]);
        model.weights.insert(902, 50);
        model.weights.insert(1, 0);
        assert_patched_equals_rebuilt(&inc, &prepared, "after weight update");
        assert_node_equiv(&mut ctx, &inc, &model, problem, "after weight update");
    }
    run(MaxWeightIndependentSet);
    run(MinWeightVertexCover);
    run(MinWeightDominatingSet);
}

/// Matching (the edge-weight problem): structural batches carry edge inputs for
/// new edges, and the repaired labels match a fresh solve.
#[test]
fn matching_structural_batches_match_fresh_prepare() {
    let tree = tree_gen::shapes::spider(4, 8);
    let n = tree.len();
    let mut ctx = MpcContext::new(cfg_for(2 * n));
    let mut prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        Some(4),
    )
    .expect("well-formed tree");
    let mut model = Model::from_tree(&tree, 9);
    // Powers-of-two edge weights make every matching's weight distinct, so the
    // optimal matching is unique. Label equality across clusterings is only
    // guaranteed for a unique optimum: the label backtracking breaks DP ties
    // by cluster structure, and the repaired clustering legitimately differs
    // from a fresh clustering of the mutated tree.
    for (&c, w) in model.edge_weights.iter_mut() {
        *w = 1i64 << (c - 1);
    }
    let unit = ctx.from_vec(
        model
            .live_nodes()
            .iter()
            .map(|&v| (v, ()))
            .collect::<Vec<_>>(),
    );
    let edges_dv = ctx.from_vec(
        model
            .edge_weights
            .iter()
            .map(|(&c, &w)| (c, w))
            .collect::<Vec<_>>(),
    );
    let mut inc = IncrementalSolver::new(
        &mut ctx,
        &prepared,
        StateEngine::new(MaxWeightMatching),
        &unit,
        (),
        &edges_dv,
    );

    let batch: StructuralBatch<StateEngine<MaxWeightMatching>> = StructuralBatch::new()
        .cut(7)
        .link(2, 800, (), 1i64 << 40)
        .link(800, 801, (), 1i64 << 41);
    model.cut(7);
    model.link(2, 800, 0, 1i64 << 40);
    model.link(800, 801, 0, 1i64 << 41);
    apply_checked(&mut ctx, &mut inc, &mut prepared, &batch, "matching batch");

    let fresh = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges(model.edge_list())),
        Some(4),
    )
    .expect("mutated tree stays well-formed");
    let engine = StateEngine::new(MaxWeightMatching);
    let unit = ctx.from_vec(
        model
            .live_nodes()
            .iter()
            .map(|&v| (v, ()))
            .collect::<Vec<_>>(),
    );
    let fresh_edges = ctx.from_vec(
        model
            .edge_weights
            .iter()
            .map(|(&c, &w)| (c, w))
            .collect::<Vec<_>>(),
    );
    let sol = fresh.solve(&mut ctx, &engine, &unit, (), &fresh_edges);
    let fresh_labels: BTreeMap<u64, usize> = sol.labels.iter().cloned().collect();
    // Matching labels 0/1/3 record which cluster copy of a node holds its
    // "matched" flag, so they depend on cluster boundaries and the repaired
    // clustering legitimately differs from a fresh one. State 2 ("matched
    // across this edge") is the matching itself, which is unique here thanks
    // to the powers-of-two weights — compare the matched-edge sets.
    let matched = |labels: &BTreeMap<u64, usize>| -> Vec<u64> {
        labels
            .iter()
            .filter_map(|(&c, &s)| (s == 2).then_some(c))
            .collect()
    };
    let inc_labels: BTreeMap<u64, usize> = model
        .edges
        .iter()
        .map(|&(c, _)| (c, *inc.label(c).expect("live edge has a label")))
        .collect();
    assert_eq!(matched(&inc_labels), matched(&fresh_labels));
    assert_eq!(inc.root_summary(), &sol.root_summary);
    assert_eq!(
        inc.root_summary().best(&MaxWeightMatching),
        sol.root_summary.best(&MaxWeightMatching)
    );
}

/// A batch that blows the degree bound falls back to a full re-prepare
/// (`stats.degraded`) and still matches the fresh solve — including under
/// further weight updates on the rebuilt state.
#[test]
fn degrading_batch_matches_fresh_prepare() {
    let tree = tree_gen::shapes::path(20);
    let mut ctx = MpcContext::new(cfg_for(4 * tree.len()));
    let mut prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        Some(2),
    )
    .expect("well-formed tree");
    let mut model = Model::from_tree(&tree, 1);
    let inputs = ctx.from_vec(
        model
            .weights
            .iter()
            .map(|(&v, &w)| (v, w))
            .collect::<Vec<_>>(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let mut inc = IncrementalSolver::new(
        &mut ctx,
        &prepared,
        MaxIs::new(MaxWeightIndependentSet),
        &inputs,
        0,
        &no_edges,
    );

    // Two links under one interior node overflow the threshold-2 degree bound.
    let batch: StructuralBatch<MaxIs> =
        StructuralBatch::new()
            .link(5, 700, 30, ())
            .link(5, 701, 31, ());
    model.link(5, 700, 30, 1);
    model.link(5, 701, 31, 1);
    let stats = apply_checked(&mut ctx, &mut inc, &mut prepared, &batch, "degrading batch");
    assert!(stats.degraded, "this batch must take the degrade path");
    assert!(
        inc.repair_index().is_none(),
        "a degrade replaces the clustering, so its repair index goes too"
    );
    assert_node_equiv(
        &mut ctx,
        &inc,
        &model,
        MaxWeightIndependentSet,
        "after degrade",
    );

    inc.update_node_inputs(&mut ctx, &[(700, 1), (3, 77)]);
    model.weights.insert(700, 1);
    model.weights.insert(3, 77);
    assert_node_equiv(
        &mut ctx,
        &inc,
        &model,
        MaxWeightIndependentSet,
        "after post-degrade update",
    );
}

/// A small structural batch costs a fraction of a full re-prepare: on a path of
/// 4096 nodes, 16 link/cut ops repair in at most 10% of the rounds of `prepare`.
#[test]
fn structural_batch_rounds_beat_full_reprepare() {
    let tree = tree_gen::shapes::path(4096);
    let n = tree.len();
    let mut ctx = MpcContext::new(cfg_for(2 * n));
    let r0 = ctx.metrics().rounds;
    let mut prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        None,
    )
    .expect("well-formed tree");
    let prepare_rounds = ctx.metrics().rounds - r0;
    let inputs = ctx.from_vec(
        (0..n as u64)
            .map(|v| (v, 1 + (v % 17) as i64))
            .collect::<Vec<_>>(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let mut inc = IncrementalSolver::new(
        &mut ctx,
        &prepared,
        MaxIs::new(MaxWeightIndependentSet),
        &inputs,
        0,
        &no_edges,
    );

    // On a path, cutting a node removes its whole suffix — so cut from the deep
    // end upward in steps of 10, each removing only the 10 nodes below the
    // previous cut boundary, and graft leaves high up the spine.
    let mut batch: StructuralBatch<MaxIs> = StructuralBatch::new();
    for i in 0..8u64 {
        batch = batch
            .cut(4000 - 10 * i)
            .link(50 + 100 * i, 100_000 + i, 5, ());
    }
    assert_eq!(batch.len(), 16);
    let stats = apply_checked(&mut ctx, &mut inc, &mut prepared, &batch, "16-op batch");
    assert!(
        !stats.degraded,
        "a 16-op batch on path-4096 repairs locally"
    );
    assert!(
        stats.rounds * 10 <= prepare_rounds,
        "structural repair ({}) must cost at most 10% of prepare ({})",
        stats.rounds,
        prepare_rounds
    );
}

/// Structural repair under strict MPC accounting: every round the repair charges
/// is covered by the machine/bandwidth bounds the simulator enforces.
#[test]
fn structural_repair_stays_strict_compliant() {
    let tree = tree_gen::shapes::balanced_kary(48, 3);
    let n = tree.len();
    let cfg = MpcConfig::new(4 * n, 0.5)
        .with_memory_slack(64.0)
        .with_bandwidth_slack(64.0)
        .with_strict(true);
    let mut ctx = MpcContext::new(cfg);
    let mut prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        Some(4),
    )
    .expect("well-formed tree");
    let inputs = ctx.from_vec(
        (0..n as u64)
            .map(|v| (v, 1 + (v % 13) as i64))
            .collect::<Vec<_>>(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let mut inc = IncrementalSolver::new(
        &mut ctx,
        &prepared,
        MaxIs::new(MaxWeightIndependentSet),
        &inputs,
        0,
        &no_edges,
    );
    let batch: StructuralBatch<MaxIs> =
        StructuralBatch::new()
            .cut(40)
            .link(2, 600, 9, ())
            .link(600, 601, 4, ());
    apply_checked(&mut ctx, &mut inc, &mut prepared, &batch, "strict batch");
    ctx.check_compliance()
        .unwrap_or_else(|v| panic!("structural repair strict violation: {v}"));
}

fn arbitrary_tree(max_n: usize) -> impl Strategy<Value = Tree> {
    (8..max_n).prop_flat_map(|n| {
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

/// Out-of-line proptest body: interleave weight-update batches and structural
/// batches over a random tree; after every step the incremental state is
/// bit-identical to a fresh prepare + solve of the mutated model.
fn check_interleaved(tree: &Tree, seed: u64) -> Result<(), String> {
    let n = tree.len();
    let mut ctx = MpcContext::new(cfg_for(4 * n));
    let mut prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
        Some(4),
    )
    .expect("well-formed tree");
    let mut model = Model::from_tree(tree, seed);
    let inputs = ctx.from_vec(
        model
            .weights
            .iter()
            .map(|(&v, &w)| (v, w))
            .collect::<Vec<_>>(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let mut inc = IncrementalSolver::new(
        &mut ctx,
        &prepared,
        MaxIs::new(MaxWeightIndependentSet),
        &inputs,
        0,
        &no_edges,
    );
    let mut next_id = 50_000 + seed * 100;

    for step in 0..3u64 {
        // Weight updates on live nodes.
        let live = model.live_nodes();
        let updates: Vec<(u64, i64)> = (0..2)
            .map(|i| {
                let m = mix(seed, step, 1000 + i);
                let v = live[m as usize % live.len()];
                (v, ((m >> 32) % 31) as i64)
            })
            .collect();
        for &(v, w) in &updates {
            model.weights.insert(v, w);
        }
        inc.update_node_inputs(&mut ctx, &updates);

        // Then a structural batch (local repair or degrade, whatever it triggers).
        let batch = gen_batch(&mut model, seed, step, &mut next_id);
        apply_checked(
            &mut ctx,
            &mut inc,
            &mut prepared,
            &batch,
            &format!("step {step}"),
        );

        let (fresh_labels, fresh_root_label, fresh_best) =
            fresh_node_solve(&mut ctx, &model, MaxWeightIndependentSet);
        for &(child, _) in &model.edges {
            if inc.label(child) != fresh_labels.get(&child) {
                return Err(format!("step {step}: label of {child} diverges"));
            }
        }
        if inc.root_label() != &fresh_root_label {
            return Err(format!("step {step}: root label diverges"));
        }
        if inc.root_summary().best(&MaxWeightIndependentSet) != fresh_best {
            return Err(format!("step {step}: optimum diverges"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn interleaved_weight_and_structural_batches_match_fresh(
        tree in arbitrary_tree(40),
        seed in 0u64..500,
    ) {
        prop_assert_eq!(check_interleaved(&tree, seed), Ok(()));
    }
}

/// Out-of-line body of the long-sequence proptest: `steps` batches alternating weight
/// updates and link/cut batches over one tree, with the
/// "patched == rebuilt" gate after every batch, the labels checked against a fresh
/// prepare + solve every fourth step, and two detours on the way — a snapshot →
/// restore of tree, plan and store (the restored solver starts without a repair index
/// and rebuilds it on its next structural batch) and a batch that overflows a degree
/// bound (the degrade drops the index; the next batch rebuilds it over the re-prepared
/// clustering).
fn check_long_sequence(tree: &Tree, seed: u64, steps: u64) {
    let n = tree.len();
    let mut ctx = MpcContext::new(cfg_for(4 * n));
    let mut prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
        Some(4),
    )
    .expect("well-formed tree");
    let mut model = Model::from_tree(tree, seed);
    let inputs = ctx.from_vec(
        model
            .weights
            .iter()
            .map(|(&v, &w)| (v, w))
            .collect::<Vec<_>>(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let mut inc = IncrementalSolver::new(
        &mut ctx,
        &prepared,
        MaxIs::new(MaxWeightIndependentSet),
        &inputs,
        0,
        &no_edges,
    );
    assert!(inc.repair_index().is_none(), "the index is built lazily");
    let mut next_id = 50_000 + seed * 1000;

    for step in 0..steps {
        let what = format!("seed {seed}, step {step}");
        if step % 2 == 0 {
            let live = model.live_nodes();
            let updates: Vec<(u64, i64)> = (0..1 + step % 5)
                .map(|i| {
                    let m = mix(seed, step, 1000 + i);
                    (live[m as usize % live.len()], ((m >> 32) % 31) as i64)
                })
                .collect();
            for &(v, w) in &updates {
                model.weights.insert(v, w);
            }
            inc.update_node_inputs(&mut ctx, &updates);
            assert_patched_equals_rebuilt(&inc, &prepared, &what);
        } else if step == steps / 2 + 1 {
            // Pile leaves below one node until its degree bound (threshold 4) breaks.
            let hub = model.live_nodes()[0];
            let mut batch = StructuralBatch::new();
            for _ in 0..5 {
                model.link(hub, next_id, 3, 1);
                batch = batch.link(hub, next_id, 3, ());
                next_id += 1;
            }
            let stats = apply_checked(&mut ctx, &mut inc, &mut prepared, &batch, &what);
            assert!(stats.degraded, "{what}: five leaves below one node degrade");
            assert!(
                inc.repair_index().is_none(),
                "{what}: degrade drops the index"
            );
        } else {
            let batch = gen_batch(&mut model, seed, step, &mut next_id);
            let stats = apply_checked(&mut ctx, &mut inc, &mut prepared, &batch, &what);
            assert_eq!(
                inc.repair_index().is_some(),
                !stats.degraded,
                "{what}: a repaired batch leaves the index built"
            );
        }

        if step == steps / 4 {
            // Snapshot → restore: derived indexes do not travel.
            let restored_tree = PreparedTree::from_snapshot(&prepared.to_snapshot())
                .expect("tree snapshot round-trips");
            let store = SolverStore::from_snapshot(&inc.store().to_snapshot(), &restored_tree)
                .expect("store snapshot round-trips");
            inc = IncrementalSolver::restore(MaxIs::new(MaxWeightIndependentSet), store, 0);
            prepared = restored_tree;
            assert!(
                inc.repair_index().is_none(),
                "{what}: restored without index"
            );
            assert_patched_equals_rebuilt(&inc, &prepared, &what);
        }

        if step % 4 == 3 || step + 1 == steps {
            assert_node_equiv(&mut ctx, &inc, &model, MaxWeightIndependentSet, &what);
        }
    }
}

proptest! {
    // 4 cases × 32 batches = 128 interleaved batches.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn long_interleaved_sequences_keep_patched_indexes_equal_to_rebuilt(
        tree in arbitrary_tree(512),
        seed in 0u64..500,
    ) {
        check_long_sequence(&tree, seed, 32);
    }
}

/// A solver over a fresh prepare of `tree` (cluster threshold `threshold`) with the
/// model's node weights as MaxIS inputs.
fn max_is_solver(
    ctx: &mut MpcContext,
    tree: &Tree,
    model: &Model,
    threshold: usize,
) -> (PreparedTree, IncrementalSolver<MaxIs>) {
    let prepared = prepare(
        ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
        Some(threshold),
    )
    .expect("well-formed tree");
    let inputs = ctx.from_vec(
        model
            .weights
            .iter()
            .map(|(&v, &w)| (v, w))
            .collect::<Vec<_>>(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let inc = IncrementalSolver::new(
        ctx,
        &prepared,
        MaxIs::new(MaxWeightIndependentSet),
        &inputs,
        0,
        &no_edges,
    );
    (prepared, inc)
}

/// Leaves linked with ids far above `n` — `1 << 40`, and `AUX_BASE - 1`, the highest
/// id a link may take — splice like the sequential ids every other test links: the
/// answers match a fresh prepare and the spliced routing a fresh plan's, before and
/// after a leaf is hung below one of them and the other is cut. An index sized by id
/// magnitude would not survive the first batch.
#[test]
fn far_off_leaf_ids_splice_like_sequential_ones() {
    let tree = tree_gen::shapes::path(4096);
    let mut ctx = MpcContext::new(cfg_for(2 * tree.len()));
    let mut model = Model::from_tree(&tree, 3);
    let (mut prepared, mut inc) = max_is_solver(&mut ctx, &tree, &model, 4);
    let far = [1u64 << 40, AUX_BASE - 1];

    let batch = StructuralBatch::new()
        .link(17, far[0], 25, ())
        .link(3001, far[1], 19, ());
    model.link(17, far[0], 25, 1);
    model.link(3001, far[1], 19, 1);
    apply_checked(&mut ctx, &mut inc, &mut prepared, &batch, "far-off links");
    assert_node_equiv(
        &mut ctx,
        &inc,
        &model,
        MaxWeightIndependentSet,
        "far-off links",
    );

    let batch = StructuralBatch::new()
        .link(far[0], far[0] + 1, 7, ())
        .cut(far[1]);
    model.link(far[0], far[0] + 1, 7, 1);
    model.cut(far[1]);
    apply_checked(&mut ctx, &mut inc, &mut prepared, &batch, "below and cut");
    assert_node_equiv(
        &mut ctx,
        &inc,
        &model,
        MaxWeightIndependentSet,
        "below and cut",
    );

    inc.update_node_inputs(&mut ctx, &[(far[0], 40), (far[0] + 1, 2)]);
    model.weights.insert(far[0], 40);
    model.weights.insert(far[0] + 1, 2);
    assert_node_equiv(
        &mut ctx,
        &inc,
        &model,
        MaxWeightIndependentSet,
        "far-off weights",
    );
}

/// One churn batch against `model`: one to three ops, each the cut of a random subtree
/// of at most eight nodes or a link below a random live node — mostly cuts while the
/// tree has at least `size` nodes, mostly links below that — so the tree keeps its size
/// while leaves and inner clusters come and go.
fn churn_batch(
    model: &mut Model,
    size: usize,
    step: u64,
    next_id: &mut u64,
) -> StructuralBatch<MaxIs> {
    let mut batch = StructuralBatch::new();
    for i in 0..1 + mix(29, step, 99) % 3 {
        let m = mix(29, step, i);
        let small: Vec<u64> = model
            .subtree_sizes()
            .into_iter()
            .filter(|&(v, size)| v != model.root && size <= 8)
            .map(|(v, _)| v)
            .collect();
        let cut = (m % 4 == 0) != (model.live_nodes().len() >= size);
        if cut && !small.is_empty() {
            let victim = small[(m / 2) as usize % small.len()];
            model.cut(victim);
            batch = batch.cut(victim);
        } else {
            let live = model.live_nodes();
            let parent = live[(m / 2) as usize % live.len()];
            let w = ((m >> 32) % 23) as i64;
            model.link(parent, *next_id, w, 1);
            batch = batch.link(parent, *next_id, w, ());
            *next_id += 1;
        }
    }
    batch
}

/// Long churn on one solver: 240 link/cut batches that keep the tree near its size.
/// After every batch the drift audit holds — each spliced routing run equals
/// `Routing::of` over the spliced skeletons — and the spliced routing equals a fresh
/// plan's of the repaired tree; every 40 batches the answers match a fresh prepare. On
/// the way every run goes through its tombstones and overflow and is rebuilt from
/// them many times (the splice rebuilds a run once its patches pass an eighth of
/// its entries).
#[test]
fn long_churn_keeps_spliced_routing_equal_to_a_fresh_derivation() {
    let tree = tree_gen::shapes::random_recursive(300, 11);
    let mut ctx = MpcContext::new(cfg_for(4 * tree.len()));
    let mut model = Model::from_tree(&tree, 13);
    let (mut prepared, mut inc) = max_is_solver(&mut ctx, &tree, &model, 8);
    let (steps, mut repaired) = (240u64, 0u64);
    let mut next_id = 10_000;
    for step in 0..steps {
        let what = format!("churn step {step}");
        let batch = churn_batch(&mut model, tree.len(), step, &mut next_id);
        let stats = apply_checked(&mut ctx, &mut inc, &mut prepared, &batch, &what);
        repaired += u64::from(!stats.degraded);
        if step % 40 == 39 {
            assert_node_equiv(&mut ctx, &inc, &model, MaxWeightIndependentSet, &what);
        }
    }
    assert!(
        repaired * 4 > steps * 3,
        "{repaired} of {steps} batches spliced locally"
    );
}

/// The serving layer: structural requests fold per flush, splice the solver's plan,
/// serve queries on the repaired tree in the same flush, and tenant snapshots taken
/// after a repair restore bit-identically.
#[test]
fn server_structural_requests_fold_splice_and_restore() {
    let tree = tree_gen::shapes::caterpillar(20, 2);
    let n = tree.len();
    let mut model = Model::from_tree(&tree, 4);
    let cfg = ServerConfig {
        plan_budget_words: 1 << 20,
    };
    let strict = MpcConfig::new(4 * n, 0.5)
        .with_memory_slack(64.0)
        .with_bandwidth_slack(64.0)
        .with_strict(true);
    let spec = TenantSpec {
        config: strict,
        input: TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        threshold: Some(4),
        problem: MaxIs::new(MaxWeightIndependentSet),
        node_inputs: model.weights.iter().map(|(&v, &w)| (v, w)).collect(),
        aux_input: 0,
        edge_inputs: Vec::new(),
    };
    let mut server: TreeDpServer<MaxIs> = TreeDpServer::new(cfg);
    server.admit("alpha", spec).expect("admission");

    // One flush: a weight update, two structural requests (folded into one
    // batch), and a query — served in that order on the repaired tree.
    server.submit(
        "alpha",
        Request::Update {
            node_updates: vec![(3, 90)],
            edge_updates: Vec::new(),
        },
    );
    model.weights.insert(3, 90);
    server.submit(
        "alpha",
        Request::Structural(StructuralBatch::new().cut(12).link(2, 500, 8, ())),
    );
    model.cut(12);
    model.link(2, 500, 8, 1);
    server.submit(
        "alpha",
        Request::Structural(StructuralBatch::new().link(500, 501, 6, ())),
    );
    model.link(500, 501, 6, 1);
    let query_weights: Vec<(u64, i64)> = model.weights.iter().map(|(&v, &w)| (v, w + 2)).collect();
    server.submit(
        "alpha",
        Request::Query {
            node_inputs: query_weights.clone(),
            edge_inputs: Vec::new(),
        },
    );
    let responses = server.flush();
    assert_eq!(responses.len(), 4);

    // Both structural requests share the folded batch's stats.
    let stats_of = |r: &Response<MaxIs>| -> StructuralStats {
        match r {
            Response::Structural(s) => *s,
            Response::Rejected(e) => panic!("structural request rejected: {e}"),
            _ => panic!("expected structural stats"),
        }
    };
    let s1 = stats_of(&responses[1].1);
    let s2 = stats_of(&responses[2].1);
    assert_eq!(s1.batch_size, 3, "two requests folded into one 3-op batch");
    assert_eq!(s1.batch_size, s2.batch_size);
    assert_eq!(s1.rounds, s2.rounds);

    // Persistent state matches a fresh solve of the mutated model...
    let mut mirror_ctx = MpcContext::new(cfg_for(4 * n));
    let (want_labels, _, want_best) =
        fresh_node_solve(&mut mirror_ctx, &model, MaxWeightIndependentSet);
    assert_eq!(
        server
            .root_summary("alpha")
            .expect("tenant")
            .best(&MaxWeightIndependentSet),
        want_best
    );
    assert_eq!(server.labels("alpha").expect("tenant"), &want_labels);

    // ...and the query (served over the spliced plan) matches a fresh solve of
    // the mutated tree under the query's ad-hoc weights.
    let mut query_model = model.clone();
    for &(v, w) in &query_weights {
        query_model.weights.insert(v, w);
    }
    let (q_labels, _, q_best) =
        fresh_node_solve(&mut mirror_ctx, &query_model, MaxWeightIndependentSet);
    match &responses[3].1 {
        Response::Solution(sol) => {
            let labels: BTreeMap<u64, usize> = sol.labels.iter().cloned().collect();
            assert_eq!(labels, q_labels, "query labels on the spliced plan");
            assert_eq!(sol.root_summary.best(&MaxWeightIndependentSet), q_best);
        }
        other => panic!(
            "expected a solution, got {}",
            match other {
                Response::Rejected(e) => e.to_string(),
                _ => "non-solution".into(),
            }
        ),
    }
    let m = server.tenant_metrics("alpha").expect("tenant");
    assert_eq!(m.structural, 2, "both structural requests counted");
    server
        .context("alpha")
        .expect("tenant")
        .check_compliance()
        .unwrap_or_else(|v| panic!("strict violation: {v}"));

    // An invalid batch (cut of the root) is rejected atomically and the tenant
    // keeps serving.
    server.submit("alpha", Request::Structural(StructuralBatch::new().cut(0)));
    let responses = server.flush();
    match &responses[0].1 {
        Response::Rejected(mpc_tree_dp::ServerError::Structural(_)) => {}
        _ => panic!("expected a structural rejection"),
    }
    assert_eq!(server.labels("alpha").expect("tenant"), &want_labels);

    // Snapshot after the repair → restore on a fresh server → bit-identical
    // state and continued structural service.
    let bytes = server.snapshot_tenant("alpha").expect("snapshot");
    let mut revived: TreeDpServer<MaxIs> = TreeDpServer::new(cfg);
    revived
        .restore_tenant(&bytes, MaxIs::new(MaxWeightIndependentSet))
        .expect("restore");
    assert_eq!(revived.labels("alpha"), server.labels("alpha"));
    assert_eq!(revived.root_summary("alpha"), server.root_summary("alpha"));
    assert_eq!(
        revived.tenant_metrics("alpha").expect("tenant").structural,
        2,
        "structural counter travels in the snapshot"
    );

    for srv in [&mut server, &mut revived] {
        srv.submit(
            "alpha",
            Request::Structural(StructuralBatch::new().cut(501).link(4, 502, 12, ())),
        );
    }
    model.cut(501);
    model.link(4, 502, 12, 1);
    let a = server.flush();
    let b = revived.flush();
    let (sa, sb) = (stats_of(&a[0].1), stats_of(&b[0].1));
    assert_eq!(sa.removed_nodes, sb.removed_nodes);
    assert_eq!(sa.added_leaves, sb.added_leaves);
    assert_eq!(sa.rounds, sb.rounds);
    assert_eq!(server.labels("alpha"), revived.labels("alpha"));
    let (want_labels, _, _) = fresh_node_solve(&mut mirror_ctx, &model, MaxWeightIndependentSet);
    assert_eq!(server.labels("alpha").expect("tenant"), &want_labels);
}

/// `degrading_batch_matches_fresh_prepare`'s batch, sent through the server: the
/// tenant re-prepares and re-solves, keeps exactly one plan — its store's, none on
/// the re-prepared tree — and its snapshot restores on a fresh server that answers
/// with a fresh solve's optimum and labels.
#[test]
fn server_degrading_batch_keeps_one_plan_and_restores() {
    let tree = tree_gen::shapes::path(20);
    let mut model = Model::from_tree(&tree, 1);
    let cfg = ServerConfig {
        plan_budget_words: 1 << 20,
    };
    let spec = TenantSpec {
        config: cfg_for(4 * tree.len()),
        input: TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        threshold: Some(2),
        problem: MaxIs::new(MaxWeightIndependentSet),
        node_inputs: model.weights.iter().map(|(&v, &w)| (v, w)).collect(),
        aux_input: 0,
        edge_inputs: Vec::new(),
    };
    let mut server: TreeDpServer<MaxIs> = TreeDpServer::new(cfg);
    server.admit("alpha", spec).expect("admission");

    // Two links under one interior node overflow the threshold-2 degree bound.
    server.submit(
        "alpha",
        Request::Structural(
            StructuralBatch::new()
                .link(5, 700, 30, ())
                .link(5, 701, 31, ()),
        ),
    );
    model.link(5, 700, 30, 1);
    model.link(5, 701, 31, 1);
    match &server.flush()[0].1 {
        Response::Structural(stats) => assert!(stats.degraded, "this batch must degrade"),
        Response::Rejected(e) => panic!("structural request rejected: {e}"),
        _ => panic!("expected structural stats"),
    }

    // The tenant's parts as its snapshot carries them.
    let bytes = server.snapshot_tenant("alpha").expect("snapshot");
    let mut r = open(&bytes, KIND_TENANT).expect("tenant snapshot");
    String::decode(&mut r).expect("id");
    MpcConfig::decode(&mut r).expect("config");
    let prepared = PreparedTree::decode(&mut r).expect("tree");
    let store = SolverStore::<MaxIs>::decode(&mut r, &prepared).expect("store");
    assert!(!prepared.has_plan(), "the re-prepared tree carries no plan");
    assert_eq!(
        server
            .tenant_metrics("alpha")
            .expect("tenant")
            .resident_bytes,
        8 * (prepared.resident_words() + store.resident_words())
    );

    let mut mirror_ctx = MpcContext::new(cfg_for(4 * tree.len()));
    let (want_labels, _, want_best) =
        fresh_node_solve(&mut mirror_ctx, &model, MaxWeightIndependentSet);
    // Labels of the original edges (the degree reduction's auxiliary edges aside).
    let originals = |labels: &BTreeMap<u64, usize>| -> BTreeMap<u64, usize> {
        labels
            .iter()
            .filter(|(v, _)| !is_aux_node(**v))
            .map(|(&v, &l)| (v, l))
            .collect()
    };
    let mut revived: TreeDpServer<MaxIs> = TreeDpServer::new(cfg);
    revived
        .restore_tenant(&bytes, MaxIs::new(MaxWeightIndependentSet))
        .expect("restore");
    assert_eq!(
        originals(revived.labels("alpha").expect("tenant")),
        want_labels
    );
    revived.submit(
        "alpha",
        Request::Query {
            node_inputs: model.weights.iter().map(|(&v, &w)| (v, w)).collect(),
            edge_inputs: Vec::new(),
        },
    );
    match &revived.flush()[0].1 {
        Response::Solution(sol) => {
            let labels: BTreeMap<u64, usize> = sol.labels.iter().cloned().collect();
            assert_eq!(originals(&labels), want_labels);
            assert_eq!(sol.root_summary.best(&MaxWeightIndependentSet), want_best);
        }
        Response::Rejected(e) => panic!("query rejected: {e}"),
        _ => panic!("expected a solution"),
    }
}
