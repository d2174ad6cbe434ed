//! Differential tests: every problem is solved (a) by exhaustive brute force,
//! (b) sequentially through Definition 1, and (c) end-to-end through the MPC pipeline
//! (normalize → degree-reduce → cluster → solve); the three answers must agree.

use crate::aggregate::{ExprNode, ExpressionEval, SubtreeAggregate};
use crate::brute;
use crate::median::{sequential_tree_median, TreeMedian};
use crate::optimization::*;
use mpc_engine::{MpcConfig, MpcContext};
use tree_clustering::EdgeKind;
use tree_dp_core::{prepare, solve_sequential, ClusterDp, DpSolution, StateEngine};
use tree_gen::{labels, shapes};
use tree_repr::{ListOfEdges, Tree, TreeInput};

/// Solve `problem` on `tree` through the full MPC pipeline.
fn solve_mpc<P: ClusterDp>(
    tree: &Tree,
    problem: &P,
    node_inputs: Vec<(u64, P::NodeInput)>,
    aux_input: P::NodeInput,
    edge_inputs: Vec<(u64, P::EdgeInput)>,
    threshold: usize,
) -> (DpSolution<P>, u64) {
    // Generous Θ-constants: the correctness tests run on deliberately tiny trees where
    // the asymptotic memory/bandwidth bounds have not kicked in yet; the benchmark
    // (`treedp-bench`) runs realistic sizes with the default constants.
    let cfg = MpcConfig::new((2 * tree.len()).max(16), 0.5)
        .with_memory_slack(512.0)
        .with_bandwidth_slack(512.0);
    let mut ctx = MpcContext::new(cfg);
    let input = TreeInput::ListOfEdges(ListOfEdges::from_tree(tree));
    let prepared = prepare(&mut ctx, input, Some(threshold)).expect("pipeline prepares");
    let inputs = ctx.from_vec(node_inputs);
    let edges = ctx.from_vec(edge_inputs);
    let sol = prepared.solve(&mut ctx, problem, &inputs, aux_input, &edges);
    assert!(
        ctx.metrics().violations.is_empty(),
        "unexpected MPC model violation: {:?}",
        ctx.metrics().violations.first()
    );
    (sol, ctx.metrics().rounds)
}

fn small_trees() -> Vec<Tree> {
    let mut trees = vec![
        shapes::path(9),
        shapes::star(8),
        shapes::balanced_kary(13, 2),
        shapes::caterpillar(4, 2),
        shapes::spider(3, 4),
        shapes::broom(5, 6),
    ];
    for seed in 0..4 {
        trees.push(shapes::random_recursive(14, seed));
    }
    trees
}

/// Total weight selected by a MaxIS labelling (and validity check).
fn is_value_and_valid(
    tree: &Tree,
    weights: &[i64],
    labels: &std::collections::BTreeMap<u64, usize>,
) -> (i64, bool) {
    let mut total = 0;
    let mut valid = true;
    for (v, &weight) in weights.iter().enumerate().take(tree.len()) {
        let in_set = labels.get(&(v as u64)).copied().unwrap_or(0) == 1;
        if in_set {
            total += weight;
            if let Some(p) = tree.parent(v) {
                if labels.get(&(p as u64)).copied().unwrap_or(0) == 1 {
                    valid = false;
                }
            }
        }
    }
    (total, valid)
}

#[test]
fn max_is_matches_brute_force_and_labels_are_valid() {
    for (i, tree) in small_trees().into_iter().enumerate() {
        let weights: Vec<i64> = labels::uniform_weights(tree.len(), 1, 20, i as u64)
            .into_iter()
            .map(|w| w as i64)
            .collect();
        let expected = brute::max_weight_independent_set(&tree, &weights);
        let engine = StateEngine::new(MaxWeightIndependentSet);
        let node_inputs: Vec<(u64, i64)> = weights
            .iter()
            .enumerate()
            .map(|(v, &w)| (v as u64, w))
            .collect();
        let (sol, _) = solve_mpc(&tree, &engine, node_inputs, 0, vec![], 4);
        let got = sol.root_summary.best(engine.problem()).unwrap();
        assert_eq!(got, expected, "MaxIS value mismatch on tree {i}");
        // The labelling itself must be a valid independent set of the same weight.
        let label_map: std::collections::BTreeMap<u64, usize> =
            sol.labels.iter().cloned().collect();
        let (value, valid) = is_value_and_valid(&tree, &weights, &label_map);
        assert!(valid, "labelled set not independent on tree {i}");
        assert_eq!(value, expected, "labelled set weight mismatch on tree {i}");
        // Sequential oracle through the same problem implementation.
        let seq = solve_sequential(
            &engine,
            &tree.edges(),
            tree.root() as u64,
            |v| weights[v as usize],
            |_| (EdgeKind::Original, ()),
        );
        assert_eq!(seq.root_summary.best(engine.problem()).unwrap(), expected);
    }
}

#[test]
fn max_is_works_on_high_degree_trees_via_degree_reduction() {
    // Stars and brooms with degree far above the threshold exercise Section 4.4/5.3.
    for (i, tree) in [shapes::star(18), shapes::broom(3, 15)]
        .into_iter()
        .enumerate()
    {
        let weights: Vec<i64> = labels::uniform_weights(tree.len(), 1, 9, 77 + i as u64)
            .into_iter()
            .map(|w| w as i64)
            .collect();
        let expected = brute::max_weight_independent_set(&tree, &weights);
        let engine = StateEngine::new(MaxWeightIndependentSet);
        let node_inputs: Vec<(u64, i64)> = weights
            .iter()
            .enumerate()
            .map(|(v, &w)| (v as u64, w))
            .collect();
        let (sol, _) = solve_mpc(&tree, &engine, node_inputs, 0, vec![], 3);
        assert_eq!(sol.root_summary.best(engine.problem()).unwrap(), expected);
    }
}

#[test]
fn vertex_cover_matches_brute_force() {
    for (i, tree) in small_trees().into_iter().enumerate() {
        let weights: Vec<i64> = labels::uniform_weights(tree.len(), 1, 20, 100 + i as u64)
            .into_iter()
            .map(|w| w as i64)
            .collect();
        let expected = brute::min_weight_vertex_cover(&tree, &weights);
        let engine = StateEngine::new(MinWeightVertexCover);
        let node_inputs: Vec<(u64, i64)> = weights
            .iter()
            .enumerate()
            .map(|(v, &w)| (v as u64, w))
            .collect();
        let (sol, _) = solve_mpc(&tree, &engine, node_inputs, 0, vec![], 4);
        let got = -sol.root_summary.best(engine.problem()).unwrap();
        assert_eq!(got, expected, "vertex cover mismatch on tree {i}");
    }
}

#[test]
fn dominating_set_matches_brute_force() {
    for (i, tree) in small_trees().into_iter().enumerate() {
        let weights: Vec<i64> = labels::uniform_weights(tree.len(), 1, 20, 200 + i as u64)
            .into_iter()
            .map(|w| w as i64)
            .collect();
        let expected = brute::min_weight_dominating_set(&tree, &weights);
        let engine = StateEngine::new(MinWeightDominatingSet);
        let node_inputs: Vec<(u64, i64)> = weights
            .iter()
            .enumerate()
            .map(|(v, &w)| (v as u64, w))
            .collect();
        let (sol, _) = solve_mpc(&tree, &engine, node_inputs, 0, vec![], 4);
        let got = -sol.root_summary.best(engine.problem()).unwrap();
        assert_eq!(got, expected, "dominating set mismatch on tree {i}");
    }
}

#[test]
fn matching_matches_brute_force() {
    for (i, tree) in small_trees().into_iter().enumerate() {
        let edge_w: Vec<i64> = labels::uniform_weights(tree.len(), 1, 20, 300 + i as u64)
            .into_iter()
            .map(|w| w as i64)
            .collect();
        let expected = brute::max_weight_matching(&tree, &edge_w);
        let engine = StateEngine::new(MaxWeightMatching);
        let node_inputs: Vec<(u64, ())> = (0..tree.len()).map(|v| (v as u64, ())).collect();
        let edge_inputs: Vec<(u64, i64)> = (0..tree.len())
            .filter(|&v| tree.parent(v).is_some())
            .map(|v| (v as u64, edge_w[v]))
            .collect();
        let (sol, _) = solve_mpc(&tree, &engine, node_inputs, (), edge_inputs, 4);
        let got = sol.root_summary.best(engine.problem()).unwrap();
        assert_eq!(got, expected, "matching mismatch on tree {i}");
    }
}

#[test]
fn max_sat_matches_brute_force() {
    for (i, tree) in small_trees().into_iter().enumerate() {
        let pos: Vec<i64> = labels::uniform_weights(tree.len(), 0, 10, 400 + i as u64)
            .into_iter()
            .map(|w| w as i64)
            .collect();
        let neg: Vec<i64> = labels::uniform_weights(tree.len(), 0, 10, 500 + i as u64)
            .into_iter()
            .map(|w| w as i64)
            .collect();
        let edge_w: Vec<i64> = labels::uniform_weights(tree.len(), 0, 10, 600 + i as u64)
            .into_iter()
            .map(|w| w as i64)
            .collect();
        let expected = brute::max_sat(&tree, &pos, &neg, &edge_w);
        let engine = StateEngine::new(TreeMaxSat);
        let node_inputs: Vec<(u64, (i64, i64))> = (0..tree.len())
            .map(|v| (v as u64, (pos[v], neg[v])))
            .collect();
        let edge_inputs: Vec<(u64, i64)> = (0..tree.len())
            .filter(|&v| tree.parent(v).is_some())
            .map(|v| (v as u64, edge_w[v]))
            .collect();
        let (sol, _) = solve_mpc(&tree, &engine, node_inputs, (0, 0), edge_inputs, 4);
        let got = sol.root_summary.best(engine.problem()).unwrap();
        assert_eq!(got, expected, "max-SAT mismatch on tree {i}");
    }
}

#[test]
fn colorings_are_proper_and_sum_coloring_is_optimal() {
    for (i, tree) in small_trees().into_iter().enumerate() {
        if tree.len() > 12 {
            continue; // keep the exhaustive sum-coloring oracle fast
        }
        let engine = StateEngine::new(SumColoring { colors: 3 });
        let sum_inputs: Vec<(u64, i64)> = (0..tree.len()).map(|v| (v as u64, 1)).collect();
        let (sol, _) = solve_mpc(&tree, &engine, sum_inputs, 0, vec![], 4);
        let expected = brute::min_sum_coloring(&tree, 3);
        let got = -sol.root_summary.best(engine.problem()).unwrap();
        assert_eq!(got, expected, "sum coloring mismatch on tree {i}");
        // Proper vertex coloring (LCL): just validity.
        let node_inputs: Vec<(u64, ())> = (0..tree.len()).map(|v| (v as u64, ())).collect();
        let engine = StateEngine::new(VertexColoring { colors: 3 });
        let (sol, _) = solve_mpc(&tree, &engine, node_inputs, (), vec![], 4);
        let label_map: std::collections::BTreeMap<u64, usize> =
            sol.labels.iter().cloned().collect();
        for v in 0..tree.len() {
            if let Some(p) = tree.parent(v) {
                assert_ne!(
                    label_map[&(v as u64)],
                    label_map[&(p as u64)],
                    "improper coloring on tree {i}"
                );
            }
        }
    }
}

#[test]
fn xml_validation_counts_violations() {
    let schema = XmlValidation::chain_schema(3);
    for (i, tree) in small_trees().into_iter().enumerate() {
        let tags = labels::random_labels(tree.len(), 3, 700 + i as u64);
        // Count violations directly.
        let mut violations = 0i64;
        for v in 0..tree.len() {
            if let Some(p) = tree.parent(v) {
                let allowed = schema.allowed[(tags[p] as usize) * 3 + tags[v] as usize];
                if !allowed {
                    violations += 1;
                }
            }
        }
        let engine = StateEngine::new(XmlValidation::chain_schema(3));
        let node_inputs: Vec<(u64, u64)> = tags
            .iter()
            .enumerate()
            .map(|(v, &t)| (v as u64, t))
            .collect();
        // Without degree reduction: `xml_validation_wildcards_auxiliary_copies` covers
        // the auxiliary copies.
        let threshold = tree.max_degree().max(4);
        let (sol, _) = solve_mpc(&tree, &engine, node_inputs, 0, vec![], threshold);
        let got = -sol.root_summary.best(engine.problem()).unwrap();
        assert_eq!(got, violations, "violation count mismatch on tree {i}");
    }
}

#[test]
fn xml_validation_wildcards_auxiliary_copies() {
    // Trees wider than the threshold, so degree reduction adds auxiliary copies; they
    // take the wildcard tag and inherit their original's tag through the auxiliary edges.
    let engine = StateEngine::new(XmlValidation::chain_schema(3));
    let trees = [
        shapes::star(40),
        shapes::broom(5, 30),
        shapes::random_recursive(200, 9),
    ];
    for (i, tree) in trees.iter().enumerate() {
        assert!(tree.max_degree() > 4);
        let tags = labels::random_labels(tree.len(), 3, 900 + i as u64);
        let node_inputs: Vec<(u64, u64)> = tags
            .iter()
            .enumerate()
            .map(|(v, &t)| (v as u64, t))
            .collect();
        let (sol, _) = solve_mpc(
            tree,
            &engine,
            node_inputs,
            XmlValidation::ANY_TAG,
            vec![],
            4,
        );
        let seq = solve_sequential(
            &engine,
            &tree.edges(),
            tree.root() as u64,
            |v| tags[v as usize],
            |_| (EdgeKind::Original, ()),
        );
        assert_eq!(
            sol.root_summary.best(engine.problem()),
            seq.root_summary.best(engine.problem()),
            "violation count mismatch on tree {i}"
        );
    }
}

#[test]
fn subtree_aggregates_match_direct_computation() {
    for (i, tree) in small_trees().into_iter().enumerate() {
        let values: Vec<i64> = labels::uniform_weights(tree.len(), 0, 50, 800 + i as u64)
            .into_iter()
            .map(|w| w as i64)
            .collect();
        let sizes = tree.subtree_sizes();
        let _ = sizes;
        for problem in [
            SubtreeAggregate::sum(),
            SubtreeAggregate::min(),
            SubtreeAggregate::max(),
        ] {
            let node_inputs: Vec<(u64, i64)> = values
                .iter()
                .enumerate()
                .map(|(v, &x)| (v as u64, x))
                .collect();
            // Identity element for auxiliary nodes keeps aggregates unchanged.
            let aux = match problem.op {
                crate::aggregate::AggregateOp::Sum => 0,
                crate::aggregate::AggregateOp::Min => i64::MAX,
                crate::aggregate::AggregateOp::Max => i64::MIN,
            };
            let (sol, _) = solve_mpc(&tree, &problem, node_inputs, aux, vec![], 4);
            let label_map: std::collections::BTreeMap<u64, i64> =
                sol.labels.iter().cloned().collect();
            // Direct computation per node.
            let mut expected = values.clone();
            for v in tree.postorder() {
                for &c in tree.children(v) {
                    expected[v] = problem.op.combine(expected[v], expected[c]);
                }
            }
            for v in 0..tree.len() {
                assert_eq!(
                    label_map[&(v as u64)],
                    expected[v],
                    "{} mismatch at node {v} on tree {i}",
                    problem.name()
                );
            }
        }
    }
}

#[test]
fn expression_evaluation_matches_direct_evaluation() {
    for (i, tree) in small_trees().into_iter().enumerate() {
        let (consts, ops) = labels::expression_inputs(&tree, 3, 900 + i as u64);
        let nodes: Vec<ExprNode> = (0..tree.len())
            .map(|v| {
                if tree.children(v).is_empty() {
                    ExprNode::Const(consts[v])
                } else if ops[v] {
                    ExprNode::Add
                } else {
                    ExprNode::Mul
                }
            })
            .collect();
        // Direct evaluation.
        let mut value = vec![0i64; tree.len()];
        for v in tree.postorder() {
            value[v] = match nodes[v] {
                ExprNode::Const(c) => c,
                ExprNode::Add => tree
                    .children(v)
                    .iter()
                    .map(|&c| value[c])
                    .fold(0, i64::wrapping_add),
                ExprNode::Mul => tree
                    .children(v)
                    .iter()
                    .map(|&c| value[c])
                    .fold(1, i64::wrapping_mul),
            };
        }
        let node_inputs: Vec<(u64, ExprNode)> = nodes
            .iter()
            .enumerate()
            .map(|(v, n)| (v as u64, *n))
            .collect();
        // Expression trees are not binary adaptable in general (an auxiliary node would
        // need to know its operator), so run them without degree reduction.
        let threshold = tree.max_degree().max(4);
        let (sol, _) = solve_mpc(
            &tree,
            &ExpressionEval,
            node_inputs,
            ExprNode::Const(0),
            vec![],
            threshold,
        );
        assert_eq!(
            sol.root_label,
            value[tree.root()],
            "expression value mismatch on tree {i}"
        );
        let label_map: std::collections::BTreeMap<u64, i64> = sol.labels.iter().cloned().collect();
        for v in 0..tree.len() {
            assert_eq!(
                label_map[&(v as u64)],
                value[v],
                "subexpression mismatch at {v} on tree {i}"
            );
        }
    }
}

#[test]
fn tree_median_matches_sequential() {
    for (i, tree) in small_trees().into_iter().enumerate() {
        let leaf_vals = labels::leaf_values(&tree, 100, 1000 + i as u64);
        let expected = sequential_tree_median(&tree, &leaf_vals);
        let node_inputs: Vec<(u64, Option<i64>)> = leaf_vals
            .iter()
            .enumerate()
            .map(|(v, x)| (v as u64, *x))
            .collect();
        let threshold = tree.max_degree().max(4);
        let (sol, _) = solve_mpc(&tree, &TreeMedian, node_inputs, None, vec![], threshold);
        let label_map: std::collections::BTreeMap<u64, i64> = sol.labels.iter().cloned().collect();
        for v in 0..tree.len() {
            assert_eq!(
                label_map[&(v as u64)],
                expected[v],
                "median mismatch at {v} on tree {i}"
            );
        }
    }
}

#[test]
fn larger_trees_round_counts_depend_on_diameter() {
    // The same MaxIS computation on a deep path and a shallow tree of equal size: the
    // shallow one must finish in fewer rounds (the headline O(log D) behaviour).
    let deep = shapes::path(600);
    let shallow = shapes::balanced_kary(600, 3);
    let mut rounds = Vec::new();
    for tree in [&shallow, &deep] {
        let weights: Vec<i64> = labels::uniform_weights(tree.len(), 1, 10, 1)
            .into_iter()
            .map(|w| w as i64)
            .collect();
        let engine = StateEngine::new(MaxWeightIndependentSet);
        let node_inputs: Vec<(u64, i64)> = weights
            .iter()
            .enumerate()
            .map(|(v, &w)| (v as u64, w))
            .collect();
        let (sol, r) = solve_mpc(tree, &engine, node_inputs, 0, vec![], 6);
        assert!(sol.root_summary.best(engine.problem()).unwrap() > 0);
        rounds.push(r);
    }
    assert!(
        rounds[0] < rounds[1],
        "shallow tree took {} rounds, deep tree {}",
        rounds[0],
        rounds[1]
    );
}

/// Optimum of `problem` on `tree` through the MPC pipeline and by the sequential
/// solver on the original (not degree-reduced) tree, for every cluster threshold in
/// 2–4, which degree-reduces anything wider than a path. They must agree, and equal
/// `expected` (max-plus convention) where brute force gave one.
fn check_on_degree_reduced<P: tree_dp_core::StateDp>(
    what: &str,
    tree: &Tree,
    problem: P,
    node_inputs: &[P::NodeInput],
    aux_input: P::NodeInput,
    edge_inputs: &[P::EdgeInput],
    expected: Option<i64>,
) {
    let engine = StateEngine::new(problem);
    let seq = solve_sequential(
        &engine,
        &tree.edges(),
        tree.root() as u64,
        |v| node_inputs[v as usize].clone(),
        |c| (EdgeKind::Original, edge_inputs[c as usize].clone()),
    )
    .root_summary
    .best(engine.problem());
    if let Some(expected) = expected {
        assert_eq!(seq, Some(expected), "{what}: sequential vs brute force");
    }
    for threshold in 2..=4 {
        let cfg = MpcConfig::new((2 * tree.len()).max(16), 0.5)
            .with_memory_slack(512.0)
            .with_bandwidth_slack(512.0);
        let mut ctx = MpcContext::new(cfg);
        let input = TreeInput::ListOfEdges(ListOfEdges::from_tree(tree));
        let prepared = prepare(&mut ctx, input, Some(threshold)).expect("pipeline prepares");
        let nodes = ctx.from_vec(
            node_inputs
                .iter()
                .enumerate()
                .map(|(v, x)| (v as u64, x.clone()))
                .collect::<Vec<_>>(),
        );
        let edges = ctx.from_vec(
            (0..tree.len())
                .filter(|&v| tree.parent(v).is_some())
                .map(|v| (v as u64, edge_inputs[v].clone()))
                .collect::<Vec<_>>(),
        );
        let planned = prepared
            .solve(&mut ctx, &engine, &nodes, aux_input.clone(), &edges)
            .root_summary
            .best(engine.problem());
        assert_eq!(
            planned, seq,
            "{what}, threshold {threshold}: MPC vs sequential"
        );
    }
}

/// Regression gate for the auxiliary-edge rules (Section 5.3): every Table-1
/// optimization problem on stars, brooms and random recursive trees whose degrees
/// exceed the threshold, so copies of one node sit in different clusters and the
/// incoming edge of a cluster is an auxiliary one.
#[test]
fn table1_optima_survive_degree_reduction() {
    let mut trees: Vec<(String, Tree)> = vec![
        ("star-8".into(), shapes::star(8)),
        ("star-12".into(), shapes::star(12)),
        ("star-30".into(), shapes::star(30)),
        ("broom-3-8".into(), shapes::broom(3, 8)),
        ("broom-6-14".into(), shapes::broom(6, 14)),
    ];
    for seed in 0..8 {
        trees.push((
            format!("random-recursive-12/{seed}"),
            shapes::random_recursive(12, seed),
        ));
        trees.push((
            format!("random-recursive-40/{seed}"),
            shapes::random_recursive(40, seed),
        ));
    }
    for (i, (name, tree)) in trees.iter().enumerate() {
        let n = tree.len();
        let small = n <= 12;
        let w: Vec<i64> = labels::uniform_weights(n, 1, 20, 40 + i as u64)
            .into_iter()
            .map(|w| w as i64)
            .collect();
        let w2: Vec<i64> = labels::uniform_weights(n, 0, 10, 90 + i as u64)
            .into_iter()
            .map(|w| w as i64)
            .collect();
        let unit = vec![(); n];
        check_on_degree_reduced(
            &format!("MaxIS on {name}"),
            tree,
            MaxWeightIndependentSet,
            &w,
            0,
            &unit,
            small.then(|| brute::max_weight_independent_set(tree, &w)),
        );
        check_on_degree_reduced(
            &format!("MinVC on {name}"),
            tree,
            MinWeightVertexCover,
            &w,
            0,
            &unit,
            small.then(|| -brute::min_weight_vertex_cover(tree, &w)),
        );
        check_on_degree_reduced(
            &format!("MinDS on {name}"),
            tree,
            MinWeightDominatingSet,
            &w,
            0,
            &unit,
            small.then(|| -brute::min_weight_dominating_set(tree, &w)),
        );
        check_on_degree_reduced(
            &format!("matching on {name}"),
            tree,
            MaxWeightMatching,
            &unit,
            (),
            &w,
            small.then(|| brute::max_weight_matching(tree, &w)),
        );
        let clauses: Vec<(i64, i64)> = w.iter().zip(&w2).map(|(&p, &q)| (p, q)).collect();
        check_on_degree_reduced(
            &format!("max-SAT on {name}"),
            tree,
            TreeMaxSat,
            &clauses,
            (0, 0),
            &w2,
            small.then(|| {
                let (pos, neg): (Vec<i64>, Vec<i64>) = clauses.iter().copied().unzip();
                brute::max_sat(tree, &pos, &neg, &w2)
            }),
        );
        check_on_degree_reduced(
            &format!("sum coloring on {name}"),
            tree,
            SumColoring { colors: 3 },
            &vec![1i64; n],
            0,
            &unit,
            small.then(|| -brute::min_sum_coloring(tree, 3)),
        );
    }
}
