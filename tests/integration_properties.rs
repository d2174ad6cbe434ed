//! Property-based tests (proptest): random trees and weights, checking the core
//! invariants of the framework against independent computations.

use mpc_tree_dp::clustering::subroutines::count_subtree_sizes;
use mpc_tree_dp::clustering::{Clustering, ElementKind};
use mpc_tree_dp::gen::{shapes, TreeShape};
use mpc_tree_dp::problems::{MaxWeightIndependentSet, SubtreeAggregate};
use mpc_tree_dp::{prepare, ListOfEdges, MpcConfig, MpcContext, StateEngine, TreeInput};
use proptest::prelude::*;
use std::collections::BTreeMap;
use tree_repr::rooting::root_undirected;
use tree_repr::{DirectedEdge, Tree, UndirectedEdges};

/// The paper's clustering invariants, checked host-side: every cluster of every layer
/// stays within the `n^δ`-style member bound `threshold · (threshold + 1)`
/// (Definition 3 / Section 4), and the layer count is `O(1)` for constant `δ` —
/// concretely at most `2 · ⌈log_threshold n⌉ + 3`, the doubling-construction bound
/// that every probed shape/seed/δ combination satisfies with slack.
fn assert_clustering_invariants(clustering: &Clustering, num_nodes: usize, what: &str) {
    let member_cap = clustering.threshold * (clustering.threshold + 1);
    // Per-layer cluster sizes: group every absorbed element by (layer, cluster).
    let mut sizes: BTreeMap<(u32, u64), usize> = BTreeMap::new();
    for e in clustering.elements.iter() {
        if e.kind != ElementKind::TopCluster {
            *sizes.entry((e.absorbed_at, e.absorbed_into)).or_default() += 1;
        }
    }
    assert!(!sizes.is_empty(), "{what}: no cluster was ever formed");
    for (&(layer, cluster), &size) in &sizes {
        assert!(
            layer >= 1 && layer <= clustering.num_layers,
            "{what}: cluster {cluster} absorbed members at invalid layer {layer}"
        );
        assert!(
            size <= member_cap,
            "{what}: cluster {cluster} at layer {layer} has {size} members, \
             above the threshold bound {member_cap}"
        );
    }
    let base = clustering.threshold.max(2) as f64;
    let layer_bound = 2 * ((num_nodes as f64).ln() / base.ln()).ceil() as u32 + 3;
    assert!(
        clustering.num_layers >= 1 && clustering.num_layers <= layer_bound,
        "{what}: {} layers exceed the O(1) bound {layer_bound} \
         (threshold {}, {num_nodes} nodes)",
        clustering.num_layers,
        clustering.threshold
    );
}

/// Clustering invariants over every `treegen` shape, multiple seeds, and multiple
/// `δ` regimes (which drive the `n^{δ/2}` threshold through the config).
#[test]
fn clustering_respects_size_threshold_and_layer_bound_on_all_shapes() {
    for shape in TreeShape::ALL {
        for seed in [1u64, 9, 23] {
            for delta in [0.3f64, 0.5, 0.7] {
                let tree = shape.generate(512, seed);
                let mut ctx = MpcContext::new(MpcConfig::new(2 * tree.len(), delta));
                let prepared = prepare(
                    &mut ctx,
                    TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
                    None,
                )
                .unwrap();
                let what = format!("{}-seed{seed}-d{delta}", shape.name());
                assert_clustering_invariants(
                    &prepared.clustering,
                    prepared.clustering.num_nodes,
                    &what,
                );
                // The full structural validator must agree.
                let edges = prepared.edges.to_vec();
                assert!(
                    prepared.clustering.validate(&edges).is_empty(),
                    "{what}: clustering validator found violations"
                );
            }
        }
    }
}

/// At the default Θ-constants (32× slack) no exchange or state of
/// `count_subtree_sizes` breaches the memory or bandwidth cap: the rim doubling
/// binds the cap before it copies, so the subroutine needs no relaxation. The band
/// doubling it replaced stayed clean up to n = 32768 and recorded 726 breaches on
/// each of the two 65536-node trees.
#[test]
fn default_config_prepare_records_no_subtree_size_violation() {
    let n = 4096;
    for (name, tree) in [
        ("path-4096", shapes::path(n)),
        ("broom-4096", shapes::broom(n / 2, n / 2)),
        ("caterpillar-4096", shapes::caterpillar(n / 3, 2)),
        ("random-recursive-4096", shapes::random_recursive(n, 7)),
        ("balanced-binary-4096", shapes::balanced_kary(n, 2)),
        ("path-65536", shapes::path(65536)),
        ("broom-65536", shapes::broom(32768, 32768)),
    ] {
        let mut ctx = MpcContext::new(MpcConfig::new(2 * tree.len(), 0.5));
        prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            None,
        )
        .unwrap();
        let offender = ctx
            .metrics()
            .violations
            .iter()
            .find(|v| v.context.contains("count_subtree_sizes"));
        assert!(offender.is_none(), "{name}: {offender:?}");
    }
}

/// A random rooted forest over `0..n` for the subtree-size property: per node a
/// parent draw (`< v` is the parent, anything else makes `v` a root, so node 0 always
/// is one) followed by per node a presence draw (0 = the node has no adjacency
/// record of its own and is a leaf to whoever lists it as a child).
fn arbitrary_forest_draws(max_n: usize) -> impl Strategy<Value = Vec<usize>> {
    (2..max_n).prop_flat_map(|n| {
        (0..n)
            .map(|v| 0..=v + 2)
            .chain((0..n).map(|_| 0..=4))
            .collect::<Vec<_>>()
    })
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn subtree_sizes_match_a_sequential_walk_on_random_forests(
        draws in arbitrary_forest_draws(80),
        cap in 1usize..=40,
    ) {
        let n = draws.len() / 2;
        let present = |v: usize| draws[n + v] != 0;
        let mut children: Vec<Vec<u64>> = vec![Vec::new(); n];
        for v in 0..n {
            if draws[v] < v {
                children[draws[v]].push(v as u64);
            }
        }
        let adjacency: Vec<(u64, Vec<u64>)> = (0..n)
            .filter(|&v| present(v))
            .map(|v| (v as u64, children[v].clone()))
            .collect();
        let mut ctx = MpcContext::new(MpcConfig::new((2 * n).max(16), 0.5));
        let dv = ctx.from_vec(adjacency.clone());
        let info = count_subtree_sizes(&mut ctx, dv, cap).unwrap().into_vec();
        prop_assert_eq!(info.len(), adjacency.len());
        for (rec, (id, _)) in info.iter().zip(&adjacency) {
            prop_assert_eq!(rec.id, *id);
            // Everything reachable through present nodes; absent ones end the walk.
            let mut expected = vec![rec.id];
            let mut next = 0;
            while let Some(&v) = expected.get(next) {
                next += 1;
                if present(v as usize) {
                    expected.extend(&children[v as usize]);
                }
            }
            expected.sort_unstable();
            prop_assert_eq!(rec.heavy, expected.len() > cap);
            if rec.heavy {
                prop_assert!(rec.descendants.is_empty());
            } else {
                prop_assert_eq!(&rec.descendants, &expected);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn subtree_sums_match_host_computation(tree in arbitrary_tree(60), seed in 0u64..100) {
        let values: Vec<i64> = (0..tree.len()).map(|v| ((v as u64 * 31 + seed) % 97) as i64).collect();
        let mut expected = values.clone();
        for v in tree.postorder() {
            for &c in tree.children(v) {
                expected[v] += expected[c];
            }
        }
        let cfg = MpcConfig::new((2 * tree.len()).max(16), 0.5)
            .with_memory_slack(512.0)
            .with_bandwidth_slack(512.0);
        let mut ctx = MpcContext::new(cfg);
        let prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            Some(4),
        ).unwrap();
        let inputs = ctx.from_vec(values.iter().enumerate().map(|(v, &x)| (v as u64, x)).collect::<Vec<_>>());
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
        let sol = prepared.solve(&mut ctx, &SubtreeAggregate::sum(), &inputs, 0, &no_edges);
        let labels: std::collections::BTreeMap<u64, i64> = sol.labels.iter().cloned().collect();
        for v in 0..tree.len() {
            prop_assert_eq!(labels[&(v as u64)], expected[v]);
        }
    }

    #[test]
    fn unweighted_max_is_at_least_half_the_leaves(tree in arbitrary_tree(60)) {
        let cfg = MpcConfig::new((2 * tree.len()).max(16), 0.5)
            .with_memory_slack(512.0)
            .with_bandwidth_slack(512.0);
        let mut ctx = MpcContext::new(cfg);
        let prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            Some(4),
        ).unwrap();
        let engine = StateEngine::new(MaxWeightIndependentSet);
        let inputs = ctx.from_vec((0..tree.len()).map(|v| (v as u64, 1i64)).collect::<Vec<_>>());
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
        let sol = prepared.solve(&mut ctx, &engine, &inputs, 0, &no_edges);
        let value = sol.root_summary.best(engine.problem()).unwrap();
        // Any tree has an independent set containing all leaves or all non-leaves.
        prop_assert!(value as usize >= tree.leaves().len().max(tree.len() - tree.leaves().len())
            || value as usize >= tree.len() / 2);
        // The clustering must validate and respect the size/layer invariants.
        let edges = prepared.edges.to_vec();
        prop_assert!(prepared.clustering.validate(&edges).is_empty());
        assert_clustering_invariants(&prepared.clustering, prepared.clustering.num_nodes, "random-tree");
    }
}

/// `tree` as an undirected edge list the way an outside producer might hand it over:
/// sparse non-contiguous node ids, edges in shuffled order, endpoints in either order.
/// Returns the id of every node beside the edges.
fn scrambled_undirected(tree: &Tree, salt: u64) -> (Vec<u64>, Vec<(u64, u64)>) {
    // An odd multiplier is a bijection modulo 2^40.
    let id =
        |v: usize| ((v as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) + salt) & ((1 << 40) - 1);
    let mut state = salt | 1;
    let mut draw = move |below: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % below
    };
    let mut edges: Vec<(u64, u64)> = tree
        .edges()
        .iter()
        .map(|e| (id(e.child as usize), id(e.parent as usize)))
        .collect();
    for i in (1..edges.len()).rev() {
        edges.swap(i, draw(i + 1));
    }
    for e in edges.iter_mut() {
        if draw(2) == 1 {
            *e = (e.1, e.0);
        }
    }
    ((0..tree.len()).map(id).collect(), edges)
}

/// Every edge turned child→parent by a sequential BFS from the smallest id, in input
/// order — the oracle for [`root_undirected`].
fn bfs_orientation(edges: &[(u64, u64)]) -> Vec<DirectedEdge> {
    let mut neighbours: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for &(u, v) in edges {
        neighbours.entry(u).or_default().push(v);
        neighbours.entry(v).or_default().push(u);
    }
    let root = *neighbours.keys().next().expect("at least one edge");
    let mut parent: BTreeMap<u64, u64> = BTreeMap::new();
    let mut queue = vec![root];
    let mut next = 0;
    while let Some(&v) = queue.get(next) {
        next += 1;
        for &w in &neighbours[&v] {
            if w != root && !parent.contains_key(&w) {
                parent.insert(w, v);
                queue.push(w);
            }
        }
    }
    edges
        .iter()
        .map(|&(u, v)| {
            if parent.get(&u) == Some(&v) {
                DirectedEdge::new(u, v)
            } else {
                DirectedEdge::new(v, u)
            }
        })
        .collect()
}

/// Root `edges` under every `δ` regime and compare with the BFS oracle. No machine
/// may hold or exchange more than its share: the rooting records no violation.
fn assert_rooting_matches_bfs(edges: &[(u64, u64)], what: &str) {
    let expected = bfs_orientation(edges);
    let root = edges.iter().map(|&(u, v)| u.min(v)).min().unwrap();
    for delta in [0.3f64, 0.5, 0.7] {
        let cfg = MpcConfig::new((2 * edges.len()).max(16), delta);
        let mut ctx = MpcContext::new(cfg);
        let dv = ctx.from_vec(edges.to_vec());
        let rooted = root_undirected(&mut ctx, dv)
            .unwrap_or_else(|| panic!("{what}: δ={delta} rejected a tree"));
        assert_eq!(rooted.root, root, "{what}");
        assert_eq!(rooted.num_nodes, edges.len() + 1, "{what}");
        assert_eq!(rooted.edges.into_vec(), expected, "{what}: δ={delta}");
        let violations = &ctx.metrics().violations;
        assert!(violations.is_empty(), "{what}: δ={delta}: {violations:?}");
    }
}

#[test]
fn rooting_matches_bfs_on_star_and_path_4096() {
    for (name, tree) in [
        ("star-4096", shapes::star(4096)),
        ("path-4096", shapes::path(4096)),
    ] {
        assert_rooting_matches_bfs(&UndirectedEdges::from_tree(&tree).0, name);
        assert_rooting_matches_bfs(&scrambled_undirected(&tree, 11).1, name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rooting_matches_bfs_and_solves_like_the_rooted_form(
        tree in arbitrary_tree(300),
        salt in 0u64..1_000_000,
    ) {
        let (ids, edges) = scrambled_undirected(&tree, salt);
        assert_rooting_matches_bfs(&edges, "random-tree");

        // MaxIS through `prepare`: the undirected form against the rooted edge list.
        let weights: Vec<(u64, i64)> = ids.iter().map(|&id| (id, (id % 23) as i64 + 1)).collect();
        let rooted_form = ListOfEdges(
            tree.edges()
                .iter()
                .map(|e| DirectedEdge::new(ids[e.child as usize], ids[e.parent as usize]))
                .collect(),
        );
        let best = |input: TreeInput| {
            let cfg = MpcConfig::new((2 * tree.len()).max(16), 0.5)
                .with_memory_slack(512.0)
                .with_bandwidth_slack(512.0);
            let mut ctx = MpcContext::new(cfg);
            let prepared = prepare(&mut ctx, input, Some(4)).unwrap();
            let engine = StateEngine::new(MaxWeightIndependentSet);
            let inputs = ctx.from_vec(weights.clone());
            let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
            let sol = prepared.solve(&mut ctx, &engine, &inputs, 0, &no_edges);
            sol.root_summary.best(engine.problem()).unwrap()
        };
        prop_assert_eq!(
            best(TreeInput::UndirectedEdges(UndirectedEdges(edges))),
            best(TreeInput::ListOfEdges(rooted_form))
        );
    }
}
