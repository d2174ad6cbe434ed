//! The solve-plan engine against independent oracles: for MaxIS / MinVC / MinDS /
//! matching the plan's optimum must equal the sequential solver's on the original
//! tree and its labelling must be a feasible solution of exactly that value; an
//! evaluation pass must charge exactly its per-layer rounds and the plan build its
//! layer-independent constant; a batch of
//! four problems over one plan must cost at most 60% of four cold solves; the charged
//! rounds of the n = 4096 standard suite must equal `rounds-baseline-n4096.txt`; every
//! public entry point that can reach an `MpcContext` must charge within its measured
//! round class; and the skeleton layout is pinned byte for byte.

use mpc_tree_dp::clustering::subroutines::{count_subtree_sizes, path_distances, PathNode};
use mpc_tree_dp::clustering::{defining_node, Clustering, EdgeKind, ElementKind};
use mpc_tree_dp::core::{solve_sequential, StateDp};
use mpc_tree_dp::gen::{
    labels, shapes,
    suite::{small_suite, standard_suite},
};
use mpc_tree_dp::problems::{
    MaxWeightIndependentSet, MaxWeightMatching, MinWeightDominatingSet, MinWeightVertexCover,
};
use mpc_tree_dp::{
    prepare, DistVec, IncrementalSolver, ListOfEdges, MpcConfig, MpcContext, PreparedTree, Request,
    ServerConfig, StateEngine, StructuralBatch, TenantSpec, TreeDpServer, TreeInput,
};
use std::collections::{BTreeMap, BTreeSet};
use tree_repr::{DirectedEdge, NodeId, Tree};

fn ctx_for(n: usize) -> MpcContext {
    MpcContext::new(
        MpcConfig::new((2 * n).max(16), 0.5)
            .with_memory_slack(512.0)
            .with_bandwidth_slack(512.0),
    )
}

/// Deterministic pseudo-random stream (the vendored `rand` is a stand-in; tests use
/// their own splitmix so tree shapes are stable across toolchains).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn random_tree(n: usize, seed: u64) -> Tree {
    let mut state = seed;
    let mut parents: Vec<Option<usize>> = vec![None];
    for v in 1..n {
        parents.push(Some((splitmix(&mut state) % v as u64) as usize));
    }
    Tree::from_parents(parents)
}

/// One prepared tree under test.
struct Case<'a> {
    ctx: MpcContext,
    prepared: PreparedTree,
    tree: &'a Tree,
    what: &'a str,
}

impl Case<'_> {
    /// Solve `problem` through the prepared tree's plan; assert its optimum equals
    /// the sequential solver's on the original tree and return it with the labels of
    /// the original nodes and the evaluation rounds.
    fn check<P: StateDp>(
        &mut self,
        problem: P,
        node_inputs: &[P::NodeInput],
        aux_input: P::NodeInput,
        edge_inputs: &[P::EdgeInput],
    ) -> (i64, BTreeMap<NodeId, usize>, u64) {
        let Case {
            ctx,
            prepared,
            tree,
            what,
        } = self;
        let engine = StateEngine::new(problem);
        let what = format!("{what}/{}", engine.problem().name());
        let nodes: DistVec<(NodeId, P::NodeInput)> = ctx.from_vec(
            node_inputs
                .iter()
                .enumerate()
                .map(|(v, x)| (v as u64, x.clone()))
                .collect::<Vec<_>>(),
        );
        let edges: DistVec<(NodeId, P::EdgeInput)> = ctx.from_vec(
            (1..tree.len())
                .map(|v| (v as u64, edge_inputs[v].clone()))
                .collect::<Vec<_>>(),
        );
        let plan = prepared.plan(ctx); // cached: free after the first call per tree
        let before = ctx.metrics().rounds;
        let planned = plan.solve(ctx, &engine, &nodes, aux_input, &edges);
        let eval_rounds = ctx.metrics().rounds - before;

        let seq = solve_sequential(
            &engine,
            &tree.edges(),
            tree.root() as u64,
            |v| node_inputs[v as usize].clone(),
            |c| (EdgeKind::Original, edge_inputs[c as usize].clone()),
        );
        let optimum = seq
            .root_summary
            .best(engine.problem())
            .expect("feasible instance");
        assert_eq!(
            planned.root_summary.best(engine.problem()),
            Some(optimum),
            "{what}: optimum diverges from the sequential oracle"
        );
        let labels = planned
            .labels
            .iter()
            .filter(|(v, _)| (*v as usize) < tree.len())
            .cloned()
            .collect();
        (optimum, labels, eval_rounds)
    }
}

/// The rounds one evaluation pass over the plan of `clustering` charges: the input
/// scatter; going up, one round per layer that forwards a summary — every layer at
/// which a cluster other than the top forms; going down, the root label's round and
/// one round per layer that hands a label to a view below it. A member other than its
/// cluster's top produces the label of its outgoing edge at the layer it is absorbed
/// at; the views reading that label are those of the cluster the edge leaves and of
/// the cluster it enters, and a view receives it only when formed at a lower layer.
fn evaluation_rounds(clustering: &Clustering) -> u64 {
    let elements = || clustering.elements.iter();
    // Per label key, the lowest layer a view reading it is formed at.
    let mut lowest_reader: BTreeMap<NodeId, u32> = BTreeMap::new();
    for c in elements().filter(|e| e.kind.is_cluster()) {
        let keys = [Some(defining_node(c.id)), c.in_edge.map(|e| e.child)];
        for key in keys.into_iter().flatten() {
            let layer = lowest_reader.entry(key).or_insert(c.formed_at);
            *layer = (*layer).min(c.formed_at);
        }
    }
    let absorbed = || elements().filter(|e| e.kind != ElementKind::TopCluster);
    let up: BTreeSet<u32> = absorbed()
        .filter(|e| e.kind.is_cluster())
        .map(|e| e.formed_at)
        .collect();
    let down: BTreeSet<u32> = absorbed()
        .filter(|e| {
            let key = e.out_edge.child;
            key != defining_node(e.absorbed_into)
                && lowest_reader.get(&key).is_some_and(|&l| l < e.absorbed_at)
        })
        .map(|e| e.absorbed_at)
        .collect();
    1 + up.len() as u64 + 1 + down.len() as u64
}

/// Run all four Table-1 problems on one tree: optimum against the sequential oracle,
/// the labelling a feasible solution of that value, every plan evaluation charging
/// [`evaluation_rounds`] and the plan build one gather and one probe.
fn check_tree(tree: &Tree, threshold: Option<usize>, seed: u64, what: &str) {
    let mut ctx = ctx_for(tree.len());
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
        threshold,
    )
    .unwrap();
    let n = tree.len();
    let mut state = seed;
    let w: Vec<i64> = (0..n)
        .map(|_| 1 + (splitmix(&mut state) % 30) as i64)
        .collect();
    let edge_w: Vec<i64> = (0..n).map(|v| 1 + (v % 9) as i64).collect();
    let unit = vec![(); n];
    let parent = |v: usize| tree.parent(v).map(|p| p as u64);
    let weight_where = |labels: &BTreeMap<NodeId, usize>, chosen: usize| -> i64 {
        (0..n)
            .filter(|v| labels[&(*v as u64)] == chosen)
            .map(|v| w[v])
            .sum()
    };

    let before = ctx.metrics().rounds;
    prepared.plan(&mut ctx);
    let build_rounds = ctx.metrics().rounds - before;
    let mut case = Case {
        ctx,
        prepared,
        tree,
        what,
    };
    let mut evals = Vec::new();

    // MaxIS: state 1 = in the set; no edge has both endpoints in it.
    let (best, labels, eval) = case.check(MaxWeightIndependentSet, &w, 0, &unit);
    for v in 1..n {
        let both = labels[&(v as u64)] == 1 && labels[&parent(v).unwrap()] == 1;
        assert!(!both, "{what}/max-is: edge below {v} inside the set");
    }
    assert_eq!(weight_where(&labels, 1), best, "{what}/max-is: set weight");
    evals.push(eval);

    // MinVC: state 1 = in the cover; every edge has an endpoint in it.
    let (best, labels, eval) = case.check(MinWeightVertexCover, &w, 0, &unit);
    for v in 1..n {
        let covered = labels[&(v as u64)] == 1 || labels[&parent(v).unwrap()] == 1;
        assert!(covered, "{what}/min-vc: edge below {v} uncovered");
    }
    assert_eq!(
        -weight_where(&labels, 1),
        best,
        "{what}/min-vc: cover weight"
    );
    evals.push(eval);

    // MinDS: state 0 = in the set; every node is in it or next to a member.
    let (best, labels, eval) = case.check(MinWeightDominatingSet, &w, 0, &unit);
    for v in 0..n {
        let dominated = labels[&(v as u64)] == 0
            || parent(v).is_some_and(|p| labels[&p] == 0)
            || tree.children(v).iter().any(|&c| labels[&(c as u64)] == 0);
        assert!(dominated, "{what}/min-ds: node {v} undominated");
    }
    assert_eq!(-weight_where(&labels, 0), best, "{what}/min-ds: set weight");
    evals.push(eval);

    // Matching: state 2 = matched to its parent; matched edges share no endpoint.
    let (best, labels, eval) = case.check(MaxWeightMatching, &unit, (), &edge_w);
    let mut matched = vec![false; n];
    let mut total = 0;
    for v in (1..n).filter(|v| labels[&(*v as u64)] == 2) {
        let p = tree.parent(v).unwrap();
        assert!(
            !matched[v] && !matched[p],
            "{what}/matching: two matched edges meet at edge {v}-{p}"
        );
        matched[v] = true;
        matched[p] = true;
        total += edge_w[v];
    }
    assert_eq!(total, best, "{what}/matching: matching weight");
    evals.push(eval);

    let eval_rounds = evaluation_rounds(&case.prepared.clustering);
    for eval in evals {
        assert_eq!(eval, eval_rounds, "{what}: plan evaluation rounds");
    }
    let (sort, agg) = (case.ctx.sort_rounds(), case.ctx.agg_rounds());
    assert_eq!(
        build_rounds,
        (sort + 1 + agg) + (sort + 1),
        "{what}: plan build is one gather and one probe, whatever the layer count"
    );
}

#[test]
fn plan_solves_match_fresh_solves_on_the_standard_suite() {
    for entry in small_suite(7) {
        check_tree(
            &entry.tree,
            None,
            0xC0FFEE ^ entry.tree.len() as u64,
            &entry.name,
        );
    }
}

#[test]
fn plan_solves_match_fresh_solves_on_random_trees() {
    for i in 0..20u64 {
        let n = 24 + (i as usize) * 9;
        let tree = random_tree(n, 0xBEEF + i * 101);
        // A small threshold forces several clustering layers even on tiny trees.
        check_tree(&tree, Some(4), i * 7 + 1, &format!("random-{i}"));
    }
}

#[test]
fn matching_matches_the_sequential_optimum_on_degree_reduced_trees() {
    // Random-recursive trees wider than the default threshold, so the plan runs over
    // auxiliary nodes and edges the degree reduction added. Two edge-weight vectors
    // each, one of them heavy-tailed, against the sequential solver on the original tree.
    for (n, seed) in [(2048, 1), (4096, 3), (8192, 6), (8192, 11)] {
        let tree = shapes::random_recursive(n, seed);
        let mut ctx = ctx_for(n);
        let threshold = ctx.config().n_half_delta();
        let widest = (0..n).map(|v| tree.children(v).len()).max().unwrap();
        assert!(
            widest > threshold,
            "random-recursive({n}, {seed}): {widest} children, threshold {threshold}"
        );
        let prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            None,
        )
        .unwrap();
        let what = format!("random-recursive({n}, {seed})");
        let mut case = Case {
            ctx,
            prepared,
            tree: &tree,
            what: &what,
        };
        let mut state = seed;
        let uniform: Vec<i64> = (0..n).map(|v| 1 + (v % 9) as i64).collect();
        let skewed: Vec<i64> = (0..n)
            .map(|_| 1 + (splitmix(&mut state) % 1000).pow(2) as i64)
            .collect();
        for edge_w in [uniform, skewed] {
            case.check(MaxWeightMatching, &vec![(); n], (), &edge_w);
        }
    }
}

#[test]
fn solve_many_matches_individual_plan_solves() {
    let tree = shapes::caterpillar(24, 3);
    let mut ctx = ctx_for(tree.len());
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        Some(4),
    )
    .unwrap();
    let engine = StateEngine::new(MaxWeightIndependentSet);
    let w1 = ctx.from_vec(
        (0..tree.len())
            .map(|v| (v as u64, 1 + (v % 5) as i64))
            .collect::<Vec<_>>(),
    );
    let w2 = ctx.from_vec(
        (0..tree.len())
            .map(|v| (v as u64, 1 + (v % 3) as i64))
            .collect::<Vec<_>>(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let plan = prepared.plan(&mut ctx).clone();

    let before = ctx.metrics().rounds;
    let a = plan.solve(&mut ctx, &engine, &w1, 0, &no_edges);
    let b = plan.solve(&mut ctx, &engine, &w2, 0, &no_edges);
    let individual_rounds = ctx.metrics().rounds - before;

    let before = ctx.metrics().rounds;
    let batch = plan.solve_many(
        &mut ctx,
        &[(&engine, &w1, 0, &no_edges), (&engine, &w2, 0, &no_edges)],
    );
    let batch_rounds = ctx.metrics().rounds - before;

    assert_eq!(batch.len(), 2);
    assert_eq!(batch_rounds, individual_rounds);
    for (one, many) in [(&a, &batch[0]), (&b, &batch[1])] {
        let l1: BTreeMap<u64, _> = one.labels.iter().cloned().collect();
        let l2: BTreeMap<u64, _> = many.labels.iter().cloned().collect();
        assert_eq!(l1, l2);
        assert_eq!(one.root_summary, many.root_summary);
    }
}

#[test]
fn plan_is_built_once_and_cached() {
    let tree = shapes::path(96);
    let mut ctx = ctx_for(tree.len());
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        Some(4),
    )
    .unwrap();
    let before = ctx.metrics().rounds;
    let first_views = prepared.plan(&mut ctx).num_views();
    let build_rounds = ctx.metrics().rounds - before;
    assert!(build_rounds > 0, "plan build must charge assembly rounds");
    assert!(first_views > 0);
    let before = ctx.metrics().rounds;
    let second_views = prepared.plan(&mut ctx).num_views();
    assert_eq!(ctx.metrics().rounds, before, "cached plan must be free");
    assert_eq!(first_views, second_views);
}

/// What the shared plan buys: batched {MaxIS, MinVC, MinDS, matching} through one
/// `SolvePlan` — including the plan build itself — charges at most 60% of the summed
/// rounds of four cold solves that each build their own plan, with identical optima.
/// Runs on `path-4096`.
#[test]
fn batched_solves_charge_at_most_sixty_percent_of_independent_solves() {
    let tree = shapes::path(4096);
    let mut ctx = MpcContext::new(MpcConfig::new(2 * tree.len(), 0.5));
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        None,
    )
    .unwrap();
    let node_w = ctx.from_vec(
        (0..tree.len())
            .map(|v| (v as u64, 1 + (v % 30) as i64))
            .collect::<Vec<_>>(),
    );
    let unit = ctx.from_vec((0..tree.len()).map(|v| (v as u64, ())).collect::<Vec<_>>());
    let edge_w = ctx.from_vec(
        (1..tree.len())
            .map(|v| (v as u64, 1 + (v % 7) as i64))
            .collect::<Vec<_>>(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let is = StateEngine::new(MaxWeightIndependentSet);
    let vc = StateEngine::new(MinWeightVertexCover);
    let ds = StateEngine::new(MinWeightDominatingSet);
    let mm = StateEngine::new(MaxWeightMatching);

    // Four cold solves: a plan of its own for every problem.
    let before = ctx.metrics().rounds;
    let c_is = prepared
        .plan_uncached(&mut ctx)
        .solve(&mut ctx, &is, &node_w, 0, &no_edges);
    let c_vc = prepared
        .plan_uncached(&mut ctx)
        .solve(&mut ctx, &vc, &node_w, 0, &no_edges);
    let c_ds = prepared
        .plan_uncached(&mut ctx)
        .solve(&mut ctx, &ds, &node_w, 0, &no_edges);
    let c_mm = prepared
        .plan_uncached(&mut ctx)
        .solve(&mut ctx, &mm, &unit, (), &edge_w);
    let independent = ctx.metrics().rounds - before;

    // One plan, four cheap evaluations (the plan build is part of the batch's bill).
    let before = ctx.metrics().rounds;
    let plan = prepared.plan(&mut ctx);
    let p_is = plan.solve(&mut ctx, &is, &node_w, 0, &no_edges);
    let p_vc = plan.solve(&mut ctx, &vc, &node_w, 0, &no_edges);
    let p_ds = plan.solve(&mut ctx, &ds, &node_w, 0, &no_edges);
    let p_mm = plan.solve(&mut ctx, &mm, &unit, (), &edge_w);
    let batched = ctx.metrics().rounds - before;

    assert_eq!(c_is.root_summary, p_is.root_summary);
    assert_eq!(c_vc.root_summary, p_vc.root_summary);
    assert_eq!(c_ds.root_summary, p_ds.root_summary);
    assert_eq!(c_mm.root_summary, p_mm.root_summary);
    assert!(
        batched * 100 <= independent * 60,
        "batched plan solves charged {batched} rounds, more than 60% of the {independent} \
         rounds of four cold solves"
    );
}

/// The columns of `rounds-baseline-n4096.txt` after the tree name, in file order.
const BASELINE_COLUMNS: [&str; 8] = [
    "prepare",
    "plan_build",
    "plan_eval",
    "clustering",
    "cluster-sizes",
    "cluster-paths",
    "struct_single",
    "struct_batch",
];

/// Rounds `f` charges to `ctx`.
fn rounds_of<R>(ctx: &mut MpcContext, f: impl FnOnce(&mut MpcContext) -> R) -> u64 {
    let before = ctx.metrics().rounds;
    f(ctx);
    ctx.metrics().rounds - before
}

/// The charged rounds of one standard-suite tree, in [`BASELINE_COLUMNS`] order:
/// prepare and its clustering sub-phases, the plan build, one evaluation, and a
/// one-link then a 16-link structural batch on the live plan. It also asserts the
/// charges the baseline leaves out because they equal listed ones by construction:
/// MaxIS, MinVC, MinDS and matching each charge `plan_eval`, the four-problem batch
/// costs `plan_build + 4 × plan_eval`, and `plan_uncached` charges `plan_build`.
fn suite_rounds(name: &str, tree: &Tree, seed: u64) -> [u64; 8] {
    let n = tree.len();
    let mut ctx = MpcContext::new(MpcConfig::new(2 * n, 0.5));
    let mut prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
        None,
    )
    .unwrap();
    let prepare_rounds = ctx.metrics().rounds;
    let [clustering, sizes, paths] =
        ["clustering", "cluster-sizes", "cluster-paths"].map(|p| ctx.metrics().phase_rounds(p));

    let weights: Vec<(NodeId, i64)> = labels::uniform_weights(n, 1, 30, seed)
        .into_iter()
        .enumerate()
        .map(|(v, w)| (v as u64, w as i64))
        .collect();
    let node_w = ctx.from_vec(weights);
    let unit = ctx.from_vec((0..n).map(|v| (v as u64, ())).collect::<Vec<_>>());
    let edge_w = ctx.from_vec(
        (1..n)
            .map(|v| (v as u64, (v % 7 + 1) as i64))
            .collect::<Vec<_>>(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());

    let is = StateEngine::new(MaxWeightIndependentSet);
    let vc = StateEngine::new(MinWeightVertexCover);
    let ds = StateEngine::new(MinWeightDominatingSet);
    let mm = StateEngine::new(MaxWeightMatching);
    let solves: [&dyn Fn(&mut MpcContext); 4] = [
        &|c| drop(prepared.solve(c, &is, &node_w, 0, &no_edges)),
        &|c| drop(prepared.solve(c, &vc, &node_w, 0, &no_edges)),
        &|c| drop(prepared.solve(c, &ds, &node_w, 0, &no_edges)),
        &|c| drop(prepared.solve(c, &mm, &unit, (), &edge_w)),
    ];
    // The first solve builds the plan; the batch pays for it once.
    let batch = rounds_of(&mut ctx, |c| solves.iter().for_each(|solve| solve(c)));
    let build = ctx.metrics().phase_rounds("plan-build");
    let evals = solves.map(|solve| rounds_of(&mut ctx, solve));
    let plan_eval = evals[0];
    for (problem, rounds) in ["MaxIS", "MinVC", "MinDS", "matching"].iter().zip(evals) {
        assert_eq!(
            rounds, plan_eval,
            "{name}: {problem} evaluation is not plan_eval"
        );
    }
    assert_eq!(
        batch,
        build + 4 * plan_eval,
        "{name}: a four-problem batch is not plan_build + 4 × plan_eval"
    );
    assert_eq!(
        rounds_of(&mut ctx, |c| prepared.plan_uncached(c)),
        build,
        "{name}: plan_uncached does not charge plan_build"
    );

    let mut solver = IncrementalSolver::new(&mut ctx, &prepared, is, &node_w, 0, &no_edges);
    let nn = n as u64;
    let single = StructuralBatch::new().link(nn / 2, nn, 1, ());
    let sixteen = (0..16u64).fold(StructuralBatch::new(), |b, i| {
        b.link(i * nn / 17, nn + 1 + i, 1, ())
    });
    let [struct_single, struct_batch] = [single, sixteen].map(|b| {
        solver
            .apply_structural(&mut ctx, &mut prepared, &b)
            .expect("leaf links repair")
            .rounds
    });

    [
        prepare_rounds,
        build,
        plan_eval,
        clustering,
        sizes,
        paths,
        struct_single,
        struct_batch,
    ]
}

/// The CI guard on charged rounds: every column of `rounds-baseline-n4096.txt` equals
/// what the nine trees of `standard_suite(4096, 7)` charge at `MpcConfig::new(2n,
/// 0.5)`, and the file lists exactly those trees. A change that moves rounds either
/// way refreshes the file on purpose: the failure prints the measured table in the
/// file's format.
#[test]
fn suite_rounds_equal_the_committed_baseline() {
    const SEED: u64 = 7;
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../rounds-baseline-n4096.txt"
    );
    let text = std::fs::read_to_string(path).expect("baseline file readable");
    let mut baseline: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut errors = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let tree = fields.next().expect("non-empty line");
        if baseline.insert(tree, fields.collect()).is_some() {
            errors.push(format!("{tree}: listed twice in the baseline"));
        }
    }

    let mut table = String::new();
    for entry in standard_suite(4096, SEED) {
        let measured = suite_rounds(&entry.name, &entry.tree, SEED);
        let row: Vec<String> = measured.iter().map(u64::to_string).collect();
        table += &format!("{} {}\n", entry.name, row.join(" "));
        let Some(listed) = baseline.remove(entry.name.as_str()) else {
            errors.push(format!("{}: measured but not in the baseline", entry.name));
            continue;
        };
        if listed.len() != BASELINE_COLUMNS.len() {
            errors.push(format!(
                "{}: baseline lists {} counts, expected {}",
                entry.name,
                listed.len(),
                BASELINE_COLUMNS.len()
            ));
            continue;
        }
        for ((column, got), want) in BASELINE_COLUMNS.iter().zip(&row).zip(listed) {
            if got != want {
                errors.push(format!(
                    "{} {column}: measured {got} rounds, baseline {want}",
                    entry.name
                ));
            }
        }
    }
    errors.extend(
        baseline
            .keys()
            .map(|tree| format!("{tree}: in the baseline but not in the suite")),
    );
    assert!(
        errors.is_empty(),
        "charged rounds differ from {path}:\n  {}\nmeasured (the file's format):\n{table}",
        errors.join("\n  ")
    );
}

/// The round class of a public entry point that can reach an `MpcContext` mutably.
enum Class {
    /// The same rounds on every config.
    Const,
    /// Star rounds equal across sizes; on the path, `LOG_ROUNDS` more per doubling of D.
    Log,
    /// At most `2 · num_layers + 1`: one scatter of the inputs or the batch, then one
    /// round per layer up and one per layer down.
    Layers,
    /// At most a fresh prepare → plan → solve of the tree the call leaves, which is
    /// carried here.
    Prepare(u64),
}

/// Rounds a `log`-class entry point may add per doubling of the diameter: one probe
/// exchange (`lookup_rounds`).
const LOG_ROUNDS: u64 = 2;

/// What one config charges: its layers and `agg_rounds`, and per entry point its class
/// and the rounds of each scenario it runs (1- and 256-element batches where it takes
/// one).
struct ClassRun {
    name: String,
    layers: u64,
    agg_rounds: u64,
    rows: Vec<(&'static str, Class, Vec<u64>)>,
}

/// Rounds of a fresh prepare → plan → MaxIS solve of `tree`.
fn fresh_pipeline_rounds(tree: &Tree, threshold: Option<usize>) -> u64 {
    let mut ctx = MpcContext::new(MpcConfig::new(2 * tree.len(), 0.5));
    let input = TreeInput::ListOfEdges(ListOfEdges::from_tree(tree));
    let prepared = prepare(&mut ctx, input, threshold).unwrap();
    let weights = ctx.from_vec(
        (0..tree.len() as u64)
            .map(|v| (v, 1 + (v % 30) as i64))
            .collect(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let engine = StateEngine::new(MaxWeightIndependentSet);
    drop(prepared.solve(&mut ctx, &engine, &weights, 0, &no_edges));
    ctx.metrics().rounds
}

type MaxIsServer = TreeDpServer<StateEngine<MaxWeightIndependentSet>>;

/// Rounds each tenant's context charges during `f`, summed over the tenants left after.
fn server_rounds<R>(server: &mut MaxIsServer, f: impl FnOnce(&mut MaxIsServer) -> R) -> u64 {
    let rounds = |s: &MaxIsServer| -> BTreeMap<String, u64> {
        s.tenant_ids()
            .into_iter()
            .map(|id| {
                let r = s.context(&id).unwrap().metrics().rounds;
                (id, r)
            })
            .collect()
    };
    let before = rounds(server);
    f(server);
    rounds(server)
        .into_iter()
        .map(|(id, r)| r - before.get(&id).copied().unwrap_or(0))
        .sum()
}

/// Measure every entry point of [`cost_classes_hold_on_measured_rounds`] on `tree`.
fn class_run(name: &str, tree: &Tree, threshold: Option<usize>) -> ClassRun {
    let n = tree.len();
    let cfg = MpcConfig::new(2 * n, 0.5);
    let mut ctx = MpcContext::new(cfg);
    let input = || TreeInput::ListOfEdges(ListOfEdges::from_tree(tree));
    let mut prepared = prepare(&mut ctx, input(), threshold).unwrap();
    let degree = ctx.metrics().phase_rounds("degree-reduction");
    let plan = prepared.plan(&mut ctx).clone();
    let weights: Vec<(NodeId, i64)> = (0..n as u64).map(|v| (v, 1 + (v % 30) as i64)).collect();
    let node_w = ctx.from_vec(weights.clone());
    let unit = ctx.from_vec((0..n as u64).map(|v| (v, ())).collect());
    let edge_w = ctx.from_vec((1..n as u64).map(|v| (v, (v % 7 + 1) as i64)).collect());
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let is = || StateEngine::new(MaxWeightIndependentSet);
    let spread =
        |k: usize| -> Vec<NodeId> { (0..k).map(|i| (1 + i * (n - 1) / k) as u64).collect() };
    // Prepare, plan build and one solve so far: the reference `admit` is held to.
    let fresh =
        ctx.metrics().rounds + rounds_of(&mut ctx, |c| plan.solve(c, &is(), &node_w, 0, &no_edges));

    let keys: Vec<u64> = (0..n as u64).collect();
    let table = ctx.from_vec(keys.iter().map(|&v| (v, v)).collect());
    let reqs = ctx.from_vec(keys.clone());
    let join2 = rounds_of(&mut ctx, |c| {
        c.join_lookup2(reqs, |r| *r, |r| (*r + 1) % n as u64, &table, |t| t.0)
    });
    let grouped = ctx.from_vec(keys.iter().map(|&v| (v / 4, v)).collect());
    let runs = rounds_of(&mut ctx, |c| {
        c.gather_group_runs(grouped, |r| r.0, |r| u32::from(r.0 >= n as u64 / 8))
    });

    // Pointer jumping to the root: one doubling step per charged exchange.
    let parent = |v: usize| tree.parent(v).unwrap_or(v) as u64;
    let mut states = ctx.from_vec(
        keys.iter()
            .map(|&v| (v, parent(v as usize), v == parent(v as usize)))
            .collect(),
    );
    let converge = rounds_of(&mut ctx, |c| {
        let update = |s: &mut (u64, u64, bool), answers: &[(u64, Option<(u64, bool)>)]| {
            if let Some((_, Some(next))) = answers.first() {
                (s.1, s.2) = *next;
            }
        };
        let requests = |s: &(u64, u64, bool), out: &mut Vec<u64>| out.extend((!s.2).then_some(s.1));
        c.try_converge(
            &mut states,
            |s| s.0,
            requests,
            |s| (s.1, s.2),
            update,
            "jump",
        )
        .unwrap()
    });
    let children = |v: usize| tree.children(v).iter().map(|&c| c as u64).collect();
    let adjacency = ctx.from_vec(keys.iter().map(|&v| (v, children(v as usize))).collect());
    let sizes = rounds_of(&mut ctx, |c| count_subtree_sizes(c, adjacency, 64).unwrap());
    let is_path = |v: usize| tree.parent(v).is_some() && tree.children(v).len() == 1;
    let path_node = |v: usize| {
        let (up, down) = (tree.parent(v).unwrap(), tree.children(v)[0]);
        PathNode {
            id: v as u64,
            up: up as u64,
            down: down as u64,
            down_is_path: is_path(down),
            out_edge: DirectedEdge::new(v as u64, up as u64),
            child_edge: DirectedEdge::new(down as u64, v as u64),
        }
    };
    let path_nodes = ctx.from_vec((0..n).filter(|&v| is_path(v)).map(path_node).collect());
    let distances = rounds_of(&mut ctx, |c| path_distances(c, path_nodes).unwrap());

    let solve = rounds_of(&mut ctx, |c| plan.solve(c, &is(), &node_w, 0, &no_edges));
    let with_store = rounds_of(&mut ctx, |c| {
        plan.clone()
            .solve_with_store(c, &is(), &node_w, 0, &no_edges)
    });
    let engine = is();
    let many = rounds_of(&mut ctx, |c| {
        plan.solve_many(c, &[(&engine, &node_w, 0, &no_edges)])
    });

    let before = ctx.metrics().rounds;
    let mut solver = IncrementalSolver::new(&mut ctx, &prepared, is(), &node_w, 0, &no_edges);
    let new = ctx.metrics().rounds - before;
    let mm = StateEngine::new(MaxWeightMatching);
    let mut matching = IncrementalSolver::new(&mut ctx, &prepared, mm, &unit, (), &edge_w);
    let [node, edge, mixed] = [0, 1, 2].map(|what| {
        Vec::from([1, 256].map(|k| {
            let ids = spread(k);
            let updates: Vec<(NodeId, i64)> =
                ids.iter().map(|&v| (v, 1000 + v as i64 + what)).collect();
            let units: Vec<(NodeId, ())> = ids.iter().map(|&v| (v, ())).collect();
            rounds_of(&mut ctx, |c| match what {
                0 => solver.update_node_inputs(c, &updates),
                1 => matching.update_edge_inputs(c, &updates),
                _ => solver.apply_batch(c, &updates, &units),
            })
        }))
    });
    let solution = rounds_of(&mut ctx, |c| solver.solution(c));
    let link = StructuralBatch::new().link(n as u64 / 2, n as u64, 1, ());
    let structural = rounds_of(&mut ctx, |c| {
        solver.apply_structural(c, &mut prepared, &link).unwrap()
    });
    let linked = (0..n)
        .map(|v| tree.parent(v))
        .chain([Some(n / 2)])
        .collect();
    let linked = fresh_pipeline_rounds(&Tree::from_parents(linked), threshold);

    let mut server = TreeDpServer::new(ServerConfig {
        plan_budget_words: usize::MAX,
    });
    let spec = TenantSpec {
        config: cfg,
        input: input(),
        threshold,
        problem: is(),
        node_inputs: weights.clone(),
        aux_input: 0,
        edge_inputs: Vec::new(),
    };
    let admit = server_rounds(&mut server, |s| s.admit("t", spec).unwrap());
    let (node_inputs, edge_inputs) = (weights, Vec::new());
    let query = Request::Query {
        node_inputs,
        edge_inputs,
    };
    let submit = server_rounds(&mut server, |s| s.submit("t", query));
    let mut flush = vec![server_rounds(&mut server, TreeDpServer::flush)];
    for k in [1, 256] {
        let (node_updates, edge_updates) = (spread(k).iter().map(|&v| (v, 7)).collect(), vec![]);
        server.submit(
            "t",
            Request::Update {
                node_updates,
                edge_updates,
            },
        );
        flush.push(server_rounds(&mut server, TreeDpServer::flush));
    }
    let bytes = server.snapshot_tenant("t").unwrap();
    assert!(server.remove_tenant("t"));
    // The restored tenant's context is new, so this is everything the restore charged
    // to it.
    let restore = server_rounds(&mut server, |s| s.restore_tenant(&bytes, is()).unwrap());

    use Class::{Const, Layers, Log, Prepare};
    let rows = vec![
        ("reduce_degrees (prepare)", Log, vec![degree]),
        ("MpcContext::join_lookup2", Const, vec![join2]),
        ("MpcContext::gather_group_runs", Const, vec![runs]),
        ("MpcContext::try_converge", Log, vec![converge]),
        ("count_subtree_sizes", Log, vec![sizes]),
        ("path_distances", Log, vec![distances]),
        ("SolvePlan::solve", Layers, vec![solve]),
        ("SolvePlan::solve_with_store", Layers, vec![with_store]),
        ("SolvePlan::solve_many", Layers, vec![many]),
        ("IncrementalSolver::new", Layers, vec![new]),
        ("IncrementalSolver::update_node_inputs", Layers, node),
        ("IncrementalSolver::update_edge_inputs", Layers, edge),
        ("IncrementalSolver::apply_batch", Layers, mixed),
        ("IncrementalSolver::solution", Const, vec![solution]),
        (
            "IncrementalSolver::apply_structural",
            Prepare(linked),
            vec![structural],
        ),
        ("TreeDpServer::admit", Prepare(fresh), vec![admit]),
        ("TreeDpServer::submit", Const, vec![submit]),
        ("TreeDpServer::flush", Layers, flush),
        ("TreeDpServer::restore_tenant", Const, vec![restore]),
    ];
    ClassRun {
        name: name.to_string(),
        layers: u64::from(plan.num_layers()),
        agg_rounds: ctx.agg_rounds(),
        rows,
    }
}

/// The round class of every public entry point that can reach an `MpcContext`
/// mutably, measured rather than declared: path and star at n = 2^10 and 2^14 (both
/// with `agg_rounds` = 1; the sizes between sit on the cliff), each at the default
/// cluster threshold and at 4, so the layer counts differ at equal sizes. Incremental
/// batches and server flushes run at 1 and 256 elements, so an exchange inside a
/// data-dependent loop on any reached path breaks its row. On failure the measured
/// table is printed. `reduce_degrees` is read out of `prepare`'s `degree-reduction`
/// phase: the star's family needs more auxiliary levels at 2^14 than at 2^10, which a
/// `Log` row must not pay for. `TreeDpServer::remove_tenant` has no row: it drops the
/// tenant's context with its state, a host-side operation that no remaining context can
/// see.
#[test]
fn cost_classes_hold_on_measured_rounds() {
    let mut runs = Vec::new();
    for n in [1 << 10, 1 << 14] {
        for (shape, tree) in [("path", shapes::path(n)), ("star", shapes::star(n))] {
            for (t, threshold) in [("default", None), ("4", Some(4))] {
                runs.push(class_run(&format!("{shape}-{n}/{t}"), &tree, threshold));
            }
        }
    }
    let mut errors = Vec::new();
    let mut table = format!("{:<38}", "layers / agg_rounds");
    for run in &runs {
        table += &format!(" {:>16}", format!("{}/{}", run.layers, run.agg_rounds));
    }
    if runs.iter().any(|r| r.agg_rounds != runs[0].agg_rounds) {
        errors.push("agg_rounds differs across configs".to_string());
    }
    for (i, (name, class, first)) in runs[0].rows.iter().enumerate() {
        table += &format!("\n{name:<38}");
        for run in &runs {
            let (_, class, rounds) = &run.rows[i];
            let cell: Vec<String> = rounds.iter().map(u64::to_string).collect();
            table += &format!(" {:>16}", cell.join("/"));
            let bound = match class {
                Class::Layers => 2 * run.layers + 1,
                Class::Prepare(fresh) => *fresh,
                Class::Const | Class::Log => u64::MAX,
            };
            if rounds.iter().any(|&r| r > bound) {
                errors.push(format!("{name} on {}: {cell:?} over {bound}", run.name));
            }
            if matches!(class, Class::Const) && rounds != first {
                errors.push(format!("{name} on {}: {cell:?}, not const", run.name));
            }
        }
        if !matches!(class, Class::Log) {
            continue;
        }
        // Runs are ordered size, shape, threshold: the 2^14 run of config `j` is `j + 4`.
        for j in 0..4 {
            let (small, large) = (&runs[j].rows[i].2, &runs[j + 4].rows[i].2);
            let star = runs[j].name.starts_with("star");
            let grew = large.iter().zip(small).any(|(l, s)| {
                if star {
                    l != s
                } else {
                    *l > s + LOG_ROUNDS * 4
                }
            });
            if grew {
                errors.push(format!(
                    "{name}: {small:?} at 2^10 vs {large:?} at 2^14 on {}",
                    runs[j].name
                ));
            }
        }
    }
    assert!(
        errors.is_empty(),
        "cost classes broken:\n  {}\nmeasured rounds:\n{table}",
        errors.join("\n  ")
    );
}

fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The skeleton views a plan keeps are a few words per tree node: a member is its id
/// and one packed word, a view's head is two words (three more with an incoming edge),
/// a child link half a word. The layout of one whole element per member, a child
/// vector per member and a ten-word view header read 15–39 words per node here.
#[test]
fn plan_skeletons_take_at_most_eight_words_per_tree_node() {
    let mut trees: Vec<(String, Tree)> = standard_suite(4096, 7)
        .into_iter()
        .map(|entry| (entry.name, entry.tree))
        .collect();
    trees.push(("star-4096".to_string(), shapes::star(4096)));
    for (name, tree) in trees {
        let mut ctx = ctx_for(tree.len());
        let prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            None,
        )
        .unwrap();
        let plan = prepared.plan_uncached(&mut ctx);
        let per_node = plan.skeleton_words() as f64 / tree.len() as f64;
        assert!(
            per_node <= 8.0,
            "{name}: {per_node:.2} skeleton words per tree node"
        );
    }
}

/// Layout pin: the `KIND_PLAN` snapshot bytes — every skeleton, its machine, its
/// member order — hash to fixed digests. The skeletons are the placement the commit
/// before `build_plan` stopped assembling full cluster views (ec9efe6) produced; the
/// digests were re-taken once when plans stopped carrying their routing indexes,
/// after checking that the plans still encode to the earlier digests in the earlier
/// layout. Skeleton placement decides every `plan-solve` send/recv volume and the
/// resident-words figure tenants' resident bytes count, so a change here is a change to all
/// of those. They were re-taken once more when the gather stopped closing a machine one
/// group short of its word target and began placing each group on the machine its first
/// word falls on, which moves skeletons off the last machine of every layer, and once
/// more when plan snapshots began to carry the compact skeleton, after checking that
/// the plans still encode to the earlier digests in the earlier layout.
#[test]
fn plan_layout_is_pinned() {
    for (name, tree, digest) in [
        ("path-257", shapes::path(257), 0x7570_f991_748b_f767_u64),
        ("star-64", shapes::star(64), 0xb957_e455_8225_b859),
        (
            "random-recursive-300/7",
            shapes::random_recursive(300, 7),
            0x9c7e_5cbd_217f_3442,
        ),
    ] {
        let mut ctx = ctx_for(tree.len());
        let prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            Some(4),
        )
        .unwrap();
        let bytes = prepared.plan_uncached(&mut ctx).to_snapshot();
        assert_eq!(fnv1a_64(&bytes), digest, "{name}: plan layout moved");
    }
}
