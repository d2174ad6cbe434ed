//! Experiment harness: regenerates every table/figure-equivalent listed in DESIGN.md /
//! EXPERIMENTS.md and prints them as plain-text tables.
//!
//! Run with `cargo run --release -p mpc-tree-dp-bench --bin experiments [-- <exp-id>]`.

use mpc_tree_dp::gen::{labels, shapes, suite::standard_suite};
use mpc_tree_dp::problems::*;
use mpc_tree_dp::repr::Tree;
use mpc_tree_dp::{
    prepare, IncrementalSolver, ListOfEdges, MpcConfig, MpcContext, StateEngine, StructuralBatch,
    TreeInput,
};

fn solve_is(tree: &Tree, delta: f64) -> (i64, u64, u64, u32) {
    let mut ctx = MpcContext::new(MpcConfig::new(2 * tree.len(), delta));
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
        None,
    )
    .expect("prepare");
    let prepare_rounds = ctx.metrics().rounds;
    let engine = StateEngine::new(MaxWeightIndependentSet);
    let inputs = ctx.from_vec(
        (0..tree.len())
            .map(|v| (v as u64, 1i64))
            .collect::<Vec<_>>(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let sol = prepared.solve(&mut ctx, &engine, &inputs, 0, &no_edges);
    (
        sol.root_summary.best(engine.problem()).unwrap(),
        prepare_rounds,
        ctx.metrics().rounds,
        prepared.num_layers(),
    )
}

fn exp_table1() {
    println!("\n== E1 (Table 1): problems solved on the standard suite (n = 1024) ==");
    println!(
        "{:<24} {:>14} {:>14} {:>14} {:>14}",
        "tree", "MaxIS", "MinVC", "MinDS", "MaxMatching"
    );
    for entry in standard_suite(1024, 7) {
        let tree = &entry.tree;
        let mut ctx = MpcContext::new(MpcConfig::new(2 * tree.len(), 0.5));
        let prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
            None,
        )
        .unwrap();
        let w: Vec<i64> = labels::uniform_weights(tree.len(), 1, 30, 1)
            .into_iter()
            .map(|x| x as i64)
            .collect();
        let node_w = ctx.from_vec(
            w.iter()
                .enumerate()
                .map(|(v, &x)| (v as u64, x))
                .collect::<Vec<_>>(),
        );
        let unit = ctx.from_vec((0..tree.len()).map(|v| (v as u64, ())).collect::<Vec<_>>());
        let edge_w = ctx.from_vec(
            (1..tree.len())
                .map(|v| (v as u64, (v % 7 + 1) as i64))
                .collect::<Vec<_>>(),
        );
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
        let is = StateEngine::new(MaxWeightIndependentSet);
        let vc = StateEngine::new(MinWeightVertexCover);
        let ds = StateEngine::new(MinWeightDominatingSet);
        let mm = StateEngine::new(MaxWeightMatching);
        let a = prepared
            .solve(&mut ctx, &is, &node_w, 0, &no_edges)
            .root_summary
            .best(is.problem())
            .unwrap();
        let b = -prepared
            .solve(&mut ctx, &vc, &node_w, 0, &no_edges)
            .root_summary
            .best(vc.problem())
            .unwrap();
        let c = -prepared
            .solve(&mut ctx, &ds, &node_w, 0, &no_edges)
            .root_summary
            .best(ds.problem())
            .unwrap();
        let d = prepared
            .solve(&mut ctx, &mm, &unit, (), &edge_w)
            .root_summary
            .best(mm.problem())
            .unwrap();
        println!("{:<24} {:>14} {:>14} {:>14} {:>14}", entry.name, a, b, c, d);
    }
}

fn exp_rounds_vs_diameter() {
    println!("\n== E2a: rounds vs diameter (n = 8192, delta = 0.5) ==");
    println!(
        "{:>10} {:>10} {:>16} {:>14} {:>8}",
        "target D", "actual D", "prepare rounds", "total rounds", "layers"
    );
    for d in [4usize, 8, 16, 32, 64, 128, 256, 512, 1024] {
        let tree = shapes::with_diameter(8192, d, 3);
        let (_, prep, total, layers) = solve_is(&tree, 0.5);
        println!(
            "{:>10} {:>10} {:>16} {:>14} {:>8}",
            d,
            tree.diameter(),
            prep,
            total,
            layers
        );
    }
}

fn exp_rounds_vs_n() {
    println!("\n== E2b: rounds vs n at fixed diameter 16 (delta = 0.5) ==");
    println!(
        "{:>8} {:>16} {:>14} {:>8}",
        "n", "prepare rounds", "total rounds", "layers"
    );
    for n in [1usize << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15] {
        let tree = shapes::with_diameter(n, 16, 5);
        let (_, prep, total, layers) = solve_is(&tree, 0.5);
        println!("{:>8} {:>16} {:>14} {:>8}", n, prep, total, layers);
    }
}

fn exp_layers() {
    println!("\n== E4: clustering layers vs delta and shape (n = 4096) ==");
    println!(
        "{:<20} {:>8} {:>8} {:>8}",
        "shape", "d=0.3", "d=0.5", "d=0.7"
    );
    for shape in mpc_tree_dp::gen::TreeShape::ALL {
        let tree = shape.generate(4096, 11);
        let mut row = Vec::new();
        for delta in [0.3, 0.5, 0.7] {
            let (_, _, _, layers) = solve_is(&tree, delta);
            row.push(layers);
        }
        println!(
            "{:<20} {:>8} {:>8} {:>8}",
            shape.name(),
            row[0],
            row[1],
            row[2]
        );
    }
}

fn exp_memory() {
    println!("\n== E5: model compliance (n = 16384, delta = 0.5, default Θ-constants) ==");
    let tree = shapes::random_recursive(16384, 2);
    let mut ctx = MpcContext::new(MpcConfig::new(2 * tree.len(), 0.5));
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        None,
    )
    .unwrap();
    let engine = StateEngine::new(MaxWeightIndependentSet);
    let inputs = ctx.from_vec(
        (0..tree.len())
            .map(|v| (v as u64, 1i64))
            .collect::<Vec<_>>(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let _ = prepared.solve(&mut ctx, &engine, &inputs, 0, &no_edges);
    let m = ctx.metrics();
    println!(
        "local memory cap          : {} words",
        ctx.config().local_capacity()
    );
    println!("peak local memory         : {} words", m.peak_local_memory);
    println!(
        "bandwidth cap             : {} words/round",
        ctx.config().bandwidth_capacity()
    );
    println!(
        "max sent per round        : {} words",
        m.max_words_sent_per_round
    );
    println!("violations (total)        : {}", m.violations.len());
}

fn exp_representations() {
    println!("\n== E6: normalization rounds per input representation (n = 4096 nodes) ==");
    let tree = shapes::random_recursive(4096, 4);
    use mpc_tree_dp::repr::*;
    let reprs: Vec<(&str, TreeInput)> = vec![
        (
            "pointers-to-parents",
            TreeInput::PointersToParents(PointersToParents::from_tree(&tree)),
        ),
        (
            "bfs-traversal",
            TreeInput::BfsTraversal(BfsTraversal::from_tree(&tree)),
        ),
        (
            "dfs-traversal",
            TreeInput::DfsTraversal(DfsTraversal::from_tree(&tree)),
        ),
        (
            "string-of-parentheses",
            TreeInput::StringOfParentheses(StringOfParentheses::from_tree(&tree)),
        ),
        (
            "list-of-edges",
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        ),
        (
            "undirected-edges",
            TreeInput::UndirectedEdges(UndirectedEdges::from_tree(&tree)),
        ),
    ];
    println!("{:<24} {:>18}", "representation", "normalize rounds");
    for (name, input) in reprs {
        let mut ctx = MpcContext::new(MpcConfig::new(input.input_words().max(16), 0.5));
        let _ = prepare(&mut ctx, input, None).unwrap();
        println!(
            "{:<24} {:>18}",
            name,
            ctx.metrics().phase_rounds("normalize")
        );
    }
}

fn exp_reuse() {
    println!("\n== E7: clustering reuse (n = 8192): marginal rounds per additional problem ==");
    let tree = shapes::random_recursive(8192, 6);
    let mut ctx = MpcContext::new(MpcConfig::new(2 * tree.len(), 0.5));
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        None,
    )
    .unwrap();
    println!(
        "prepare (normalize + cluster): {} rounds",
        ctx.metrics().rounds
    );
    let node_w = ctx.from_vec(
        (0..tree.len())
            .map(|v| (v as u64, 1i64))
            .collect::<Vec<_>>(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let before = ctx.metrics().rounds;
    let _ = prepared.plan(&mut ctx);
    println!(
        "plan build (once per tree)   : {} rounds",
        ctx.metrics().rounds - before
    );
    for name in ["max-is", "min-vc", "min-ds", "subtree-sum"] {
        let before = ctx.metrics().rounds;
        match name {
            "max-is" => {
                let p = StateEngine::new(MaxWeightIndependentSet);
                let _ = prepared.solve(&mut ctx, &p, &node_w, 0, &no_edges);
            }
            "min-vc" => {
                let p = StateEngine::new(MinWeightVertexCover);
                let _ = prepared.solve(&mut ctx, &p, &node_w, 0, &no_edges);
            }
            "min-ds" => {
                let p = StateEngine::new(MinWeightDominatingSet);
                let _ = prepared.solve(&mut ctx, &p, &node_w, 0, &no_edges);
            }
            _ => {
                let _ = prepared.solve(&mut ctx, &SubtreeAggregate::sum(), &node_w, 0, &no_edges);
            }
        }
        println!(
            "solve {:<12}: {} rounds",
            name,
            ctx.metrics().rounds - before
        );
    }
}

fn exp_tree_median() {
    println!("\n== E8: tree median (not binary adaptable) on spiders ==");
    println!(
        "{:>8} {:>6} {:>12} {:>14}",
        "n", "D", "rounds", "root median"
    );
    for legs in [8usize, 32, 64] {
        let tree = shapes::spider(legs, 64);
        let vals = labels::leaf_values(&tree, 1000, 3);
        let mut ctx = MpcContext::new(MpcConfig::new(2 * tree.len(), 0.5));
        let prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            Some(tree.max_degree().max(4)),
        )
        .unwrap();
        let inputs = ctx.from_vec(
            vals.iter()
                .enumerate()
                .map(|(v, x)| (v as u64, *x))
                .collect::<Vec<_>>(),
        );
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
        let sol = prepared.solve(&mut ctx, &TreeMedian, &inputs, None, &no_edges);
        let expected = sequential_tree_median(&tree, &vals);
        assert_eq!(sol.root_label, expected[tree.root()]);
        println!(
            "{:>8} {:>6} {:>12} {:>14}",
            tree.len(),
            tree.diameter(),
            ctx.metrics().rounds,
            sol.root_label
        );
    }
}

fn exp_degree_reduction() {
    println!("\n== E11: degree reduction on stars/brooms (MaxIS value preserved) ==");
    println!(
        "{:>8} {:>10} {:>12} {:>14}",
        "n", "max deg", "rounds", "MaxIS value"
    );
    for n in [512usize, 2048, 8192] {
        let tree = shapes::star(n);
        let (val, _, rounds, _) = solve_is(&tree, 0.5);
        assert_eq!(val, n as i64 - 1);
        println!(
            "{:>8} {:>10} {:>12} {:>14}",
            n,
            tree.max_degree(),
            rounds,
            val
        );
    }
}

fn exp_ablation() {
    println!("\n== E12: CountSubtreeSizes by capped doubling — O(log D) rounds ==");
    println!(
        "{:<20} {:>20} {:>18}",
        "tree", "cluster-sizes rounds", "clustering rounds"
    );
    for (name, tree) in [
        ("path-2048", shapes::path(2048)),
        ("balanced-binary-2047", shapes::balanced_kary(2047, 2)),
        ("star-2048", shapes::star(2048)),
    ] {
        let mut ctx = MpcContext::new(MpcConfig::new(2 * tree.len(), 0.5));
        let _ = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            None,
        )
        .unwrap();
        println!(
            "{:<20} {:>20} {:>18}",
            name,
            ctx.metrics().phase_rounds("cluster-sizes"),
            ctx.metrics().phase_rounds("clustering")
        );
    }
}

/// Measure one incremental-vs-full comparison point: apply `batch_size` pseudo-random
/// weight updates per requested batch size through one [`IncrementalSolver`] (the
/// batches stream cumulatively, as a dynamic workload would), then measure one full
/// re-solve on the final weights — the full path's cost is batch-independent, so it is
/// measured once per tree and reused for every batch row. Returns the per-batch
/// `(inc_rounds, inc_ms)` pairs plus `(full_rounds, full_ms)`. Panics if the two paths
/// disagree on the final optimum (a correctness backstop for the benchmark itself).
fn bench_incremental_tree(
    tree: &Tree,
    batch_sizes: &[usize],
    seed: u64,
) -> (Vec<(u64, f64)>, u64, f64) {
    let n = tree.len();
    let mut ctx = MpcContext::new(MpcConfig::new(2 * n, 0.5));
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
        None,
    )
    .expect("prepare");
    let mut weights: Vec<i64> = labels::uniform_weights(n, 1, 30, seed)
        .into_iter()
        .map(|x| x as i64)
        .collect();
    let inputs = ctx.from_vec(
        weights
            .iter()
            .enumerate()
            .map(|(v, &w)| (v as u64, w))
            .collect::<Vec<_>>(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let mut solver = IncrementalSolver::new(
        &mut ctx,
        &prepared,
        StateEngine::new(MaxWeightIndependentSet),
        &inputs,
        0,
        &no_edges,
    );

    let mut per_batch = Vec::with_capacity(batch_sizes.len());
    for (step, &batch_size) in batch_sizes.iter().enumerate() {
        let batch: Vec<(u64, i64)> = (0..batch_size)
            .map(|i| {
                let mix = (seed as usize)
                    .wrapping_mul(2654435761)
                    .wrapping_add(step * 97 + i * 40503);
                (
                    ((mix) % n) as u64,
                    ((seed as usize + i * 7) % 30 + 1) as i64,
                )
            })
            .collect();
        for &(v, w) in &batch {
            weights[v as usize] = w;
        }
        let t_inc = std::time::Instant::now();
        let stats = solver.update_node_inputs(&mut ctx, &batch);
        per_batch.push((stats.rounds, t_inc.elapsed().as_secs_f64() * 1e3));
    }

    let full_inputs = ctx.from_vec(
        weights
            .iter()
            .enumerate()
            .map(|(v, &w)| (v as u64, w))
            .collect::<Vec<_>>(),
    );
    let rounds_before = ctx.metrics().rounds;
    let t_full = std::time::Instant::now();
    let full = prepared.solve(
        &mut ctx,
        &StateEngine::new(MaxWeightIndependentSet),
        &full_inputs,
        0,
        &no_edges,
    );
    let full_ms = t_full.elapsed().as_secs_f64() * 1e3;
    let full_rounds = ctx.metrics().rounds - rounds_before;

    let p = MaxWeightIndependentSet;
    assert_eq!(
        solver.root_summary().best(&p),
        full.root_summary.best(&p),
        "incremental and full solves disagree"
    );
    (per_batch, full_rounds, full_ms)
}

/// The `server` section: a [`TreeDpServer`](mpc_tree_dp::TreeDpServer) fleet under
/// sustained query/update traffic, swept across plan-cache memory budgets. Each
/// sweep point admits the same eight tenants into a fresh server, drives the same
/// flush schedule (one query + one update per tenant per flush), and records the
/// cache hit rate, the evictions, the average plan-rebuild rounds a miss re-charged
/// (the measurable miss-cost curve: shrink the budget, watch this column bite), and
/// p50/p99 wall time per request (flush wall divided evenly over its batched
/// requests — admission batching means requests are *not* served one at a time).
fn bench_server(n: usize, seed: u64) -> String {
    use mpc_tree_dp::{Request, Response, ServerConfig, TenantSpec, TreeDpServer};
    type MaxIs = StateEngine<MaxWeightIndependentSet>;
    const TENANTS: usize = 8;
    const FLUSHES: usize = 6;
    let tenant_n = (n / 4).max(64);
    let trees: Vec<Tree> = (0..TENANTS)
        .map(|i| {
            if i % 2 == 0 {
                shapes::random_recursive(tenant_n, seed.wrapping_mul(31) ^ i as u64)
            } else {
                shapes::with_diameter(tenant_n, 64, seed.wrapping_mul(37) ^ i as u64)
            }
        })
        .collect();
    let weights = |tree_i: usize, round: u64| -> Vec<(u64, i64)> {
        labels::uniform_weights(tenant_n, 1, 100, seed ^ (tree_i as u64) << 8 ^ round << 20)
            .into_iter()
            .enumerate()
            .map(|(v, w)| (v as u64, w as i64))
            .collect()
    };
    let spec = |i: usize| TenantSpec {
        config: MpcConfig::new(2 * tenant_n, 0.5),
        input: TreeInput::ListOfEdges(ListOfEdges::from_tree(&trees[i])),
        threshold: None,
        problem: MaxIs::new(MaxWeightIndependentSet),
        node_inputs: weights(i, 0),
        aux_input: 0,
        edge_inputs: Vec::new(),
    };

    // Budgets are sized off a real plan of this tier, in "how many plans fit" terms.
    let probe_words = {
        let mut ctx = MpcContext::new(MpcConfig::new(2 * tenant_n, 0.5));
        let prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&trees[0])),
            None,
        )
        .expect("prepare");
        prepared.plan_uncached(&mut ctx).resident_words()
    };

    let percentile = |sorted: &[f64], p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    };

    let mut sweep_rows = Vec::new();
    for budget_plans in [2usize, 4, 9] {
        let budget_words = probe_words * budget_plans;
        let mut server: TreeDpServer<MaxIs> = TreeDpServer::new(ServerConfig {
            plan_budget_words: budget_words,
        });
        for i in 0..TENANTS {
            server
                .admit(format!("tenant-{i}"), spec(i))
                .expect("admission succeeds");
        }
        let admit_stats = server.cache_stats();

        let mut samples: Vec<f64> = Vec::with_capacity(FLUSHES * 2 * TENANTS);
        for round in 1..=FLUSHES as u64 {
            for i in 0..TENANTS {
                server.submit(
                    format!("tenant-{i}"),
                    Request::Query {
                        node_inputs: weights(i, round),
                        edge_inputs: Vec::new(),
                    },
                );
                server.submit(
                    format!("tenant-{i}"),
                    Request::Update {
                        node_updates: vec![
                            ((round * 97 + i as u64) % tenant_n as u64, round as i64),
                            ((round * 193 + 5 * i as u64) % tenant_n as u64, 1),
                        ],
                        edge_updates: Vec::new(),
                    },
                );
            }
            let requests = server.pending_requests();
            let t0 = std::time::Instant::now();
            let responses = server.flush();
            let per_request_ms = t0.elapsed().as_secs_f64() * 1e3 / requests.max(1) as f64;
            for (_, resp) in &responses {
                if let Response::Rejected(e) = resp {
                    panic!("server bench: unexpected rejection: {e}");
                }
                samples.push(per_request_ms);
            }
        }
        samples.sort_by(|a, b| a.total_cmp(b));

        let cs = server.cache_stats();
        let (hits, misses) = (cs.hits - admit_stats.hits, cs.misses - admit_stats.misses);
        let miss_rebuild_rounds = if misses > 0 {
            (cs.build_rounds - admit_stats.build_rounds) as f64 / misses as f64
        } else {
            0.0
        };
        sweep_rows.push(format!(
            concat!(
                "      {{\n",
                "        \"budget_plans\": {},\n",
                "        \"budget_words\": {},\n",
                "        \"hits\": {},\n",
                "        \"misses\": {},\n",
                "        \"hit_rate\": {:.4},\n",
                "        \"evictions\": {},\n",
                "        \"miss_rebuild_rounds\": {:.1},\n",
                "        \"resident_plans\": {},\n",
                "        \"p50_ms\": {:.4},\n",
                "        \"p99_ms\": {:.4}\n",
                "      }}"
            ),
            budget_plans,
            budget_words,
            hits,
            misses,
            if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                1.0
            },
            cs.evictions,
            miss_rebuild_rounds,
            cs.resident_plans,
            percentile(&samples, 50.0),
            percentile(&samples, 99.0),
        ));
    }
    format!(
        concat!(
            "  \"server\": {{\n",
            "    \"tenants\": {},\n",
            "    \"tenant_n\": {},\n",
            "    \"flushes\": {},\n",
            "    \"requests_per_flush\": {},\n",
            "    \"problem\": \"max_is\",\n",
            "    \"plan_words\": {},\n",
            "    \"sweep\": [\n{}\n    ]\n",
            "  }}"
        ),
        TENANTS,
        tenant_n,
        FLUSHES,
        2 * TENANTS,
        probe_words,
        sweep_rows.join(",\n")
    )
}

/// The `structural` section: batched link/cut repair vs. a full re-prepare on the
/// deepest suite shape (`path-n`). One [`IncrementalSolver`] absorbs a single-op
/// batch and then a 16-op batch (8 cuts peeling the deep end of the spine, 8 links
/// grafting fresh leaves high up), splicing the already-built `SolvePlan` in place;
/// a fresh context then pays the full `prepare` on the mutated tree — the cost the
/// repair path avoids. The acceptance bar this section records: the 16-op batch
/// must charge at most 10% of the full re-prepare's rounds (`meets_bar`). A fresh
/// solve on the mutated tree is the correctness backstop — the spliced solver and
/// the fresh path must agree on the optimum, or the benchmark itself panics.
fn bench_structural(n: usize, seed: u64) -> String {
    use mpc_tree_dp::repr::DirectedEdge;
    type MaxIs = StateEngine<MaxWeightIndependentSet>;
    let tree = shapes::path(n);
    let nn = n as u64;
    let mut ctx = MpcContext::new(MpcConfig::new(2 * n, 0.5));
    let mut prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        None,
    )
    .expect("prepare");
    let weights: Vec<i64> = labels::uniform_weights(n, 1, 30, seed)
        .into_iter()
        .map(|x| x as i64)
        .collect();
    let inputs = ctx.from_vec(
        weights
            .iter()
            .enumerate()
            .map(|(v, &w)| (v as u64, w))
            .collect::<Vec<_>>(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let _ = prepared.plan(&mut ctx);
    let mut solver = IncrementalSolver::new(
        &mut ctx,
        &prepared,
        MaxIs::new(MaxWeightIndependentSet),
        &inputs,
        0,
        &no_edges,
    );

    let single: StructuralBatch<MaxIs> = StructuralBatch::new().link(nn / 2, nn, 1, ());
    let t_single = std::time::Instant::now();
    let single_stats = solver
        .apply_structural(&mut ctx, &mut prepared, &single)
        .expect("single-op structural batch");
    let single_ms = t_single.elapsed().as_secs_f64() * 1e3;

    // On a path, cut(v) severs the whole suffix v..: the first cut peels 100
    // nodes, each later cut peels the next 10 above it. The links graft fresh
    // leaves onto the surviving top of the spine.
    let mut batch: StructuralBatch<MaxIs> = StructuralBatch::new();
    for i in 0..8u64 {
        batch = batch.cut(nn - 100 - 10 * i);
    }
    for i in 0..8u64 {
        batch = batch.link(50 + 100 * i, nn + 1 + i, 1, ());
    }
    let t_batch = std::time::Instant::now();
    let batch_stats = solver
        .apply_structural(&mut ctx, &mut prepared, &batch)
        .expect("16-op structural batch");
    let batch_ms = t_batch.elapsed().as_secs_f64() * 1e3;

    // The avoided cost: a full prepare of the mutated tree in a fresh context,
    // plus the fresh solve that doubles as the correctness backstop.
    let mut live_edges: Vec<DirectedEdge> = (1..=(nn - 171))
        .map(|v| DirectedEdge::new(v, v - 1))
        .collect();
    live_edges.push(DirectedEdge::new(nn, nn / 2));
    for i in 0..8u64 {
        live_edges.push(DirectedEdge::new(nn + 1 + i, 50 + 100 * i));
    }
    let mut ctx2 = MpcContext::new(MpcConfig::new(2 * n, 0.5));
    let t_full = std::time::Instant::now();
    let fresh = prepare(
        &mut ctx2,
        TreeInput::ListOfEdges(ListOfEdges(live_edges)),
        None,
    )
    .expect("mutated path stays well-formed");
    let full_ms = t_full.elapsed().as_secs_f64() * 1e3;
    let full_rounds = ctx2.metrics().rounds;
    let mut fresh_inputs: Vec<(u64, i64)> =
        (0..=(nn - 171)).map(|v| (v, weights[v as usize])).collect();
    fresh_inputs.push((nn, 1));
    fresh_inputs.extend((0..8u64).map(|i| (nn + 1 + i, 1)));
    let fresh_inputs = ctx2.from_vec(fresh_inputs);
    let fresh_no_edges = ctx2.from_vec(Vec::<(u64, ())>::new());
    let sol = fresh.solve(
        &mut ctx2,
        &MaxIs::new(MaxWeightIndependentSet),
        &fresh_inputs,
        0,
        &fresh_no_edges,
    );
    let p = MaxWeightIndependentSet;
    assert_eq!(
        solver.root_summary().best(&p),
        sol.root_summary.best(&p),
        "structural repair and fresh prepare disagree on path-{n}"
    );

    let bar_rounds = full_rounds / 10;
    format!(
        concat!(
            "  \"structural\": {{\n",
            "    \"tree\": \"path-{}\",\n",
            "    \"problem\": \"max_is\",\n",
            "    \"single\": {{ \"ops\": 1, \"rounds\": {}, \"wall_ms\": {:.3}, ",
            "\"patched_clusters\": {}, \"degraded\": {} }},\n",
            "    \"batch\": {{ \"ops\": {}, \"cuts\": 8, \"links\": 8, \"rounds\": {}, ",
            "\"wall_ms\": {:.3}, \"removed_nodes\": {}, \"added_leaves\": {}, ",
            "\"patched_clusters\": {}, \"resummarized\": {}, \"relabeled\": {}, ",
            "\"degraded\": {} }},\n",
            "    \"full_prepare\": {{ \"rounds\": {}, \"wall_ms\": {:.3} }},\n",
            "    \"batch_vs_prepare_ratio\": {:.4},\n",
            "    \"bar_rounds\": {},\n",
            "    \"meets_bar\": {},\n",
            "    \"optimum_identical\": true\n",
            "  }}"
        ),
        n,
        single_stats.rounds,
        single_ms,
        single_stats.patched_clusters,
        single_stats.degraded,
        batch_stats.batch_size,
        batch_stats.rounds,
        batch_ms,
        batch_stats.removed_nodes,
        batch_stats.added_leaves,
        batch_stats.patched_clusters,
        batch_stats.resummarized,
        batch_stats.relabeled,
        batch_stats.degraded,
        full_rounds,
        full_ms,
        batch_stats.rounds as f64 / full_rounds.max(1) as f64,
        bar_rounds,
        batch_stats.rounds <= bar_rounds,
    )
}

/// The per-tree round counts the regression guard tracks: prepare, the two fresh
/// solves, the plan engine's assembly/evaluation charges of the `multi` section,
/// the plan *rebuild* charge — what the serving layer re-pays on a cache miss
/// (the `server` section's miss-cost row; asserted equal to the serving path in
/// `integration_server.rs`) — and the prepare sub-phases the fused clustering
/// subroutines re-priced (clustering overall plus its cluster-sizes and
/// cluster-paths components), so a regression inside prepare is attributed to
/// the phase that caused it rather than reported as one opaque total. The two
/// structural columns charge the batched link/cut repair path on the live plan:
/// a single grafted leaf and a 16-leaf batch, so the local-repair cost cannot
/// silently drift toward the full re-prepare it exists to avoid.
const GUARDED_ROUNDS: [&str; 11] = [
    "prepare",
    "max_is",
    "min_vc",
    "plan_build",
    "plan_eval",
    "plan_rebuild",
    "clustering",
    "cluster-sizes",
    "cluster-paths",
    "struct_single",
    "struct_batch",
];

/// The committed per-tree rounds baseline (`rounds-baseline-n<k>.txt`): one line per
/// suite entry, `tree prepare max_is min_vc plan_build plan_eval plan_rebuild
/// clustering cluster-sizes cluster-paths struct_single struct_batch`, `#` comments.
fn parse_rounds_baseline(path: &str) -> Vec<(String, [u64; 11])> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read rounds baseline {path}: {e}"));
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut it = l.split_whitespace();
            let tree = it.next().expect("tree name").to_string();
            let nums: Vec<u64> = it.map(|x| x.parse().expect("round count")).collect();
            let nums: [u64; 11] = nums
                .try_into()
                .unwrap_or_else(|_| panic!("baseline line needs 11 round counts: {l}"));
            (tree, nums)
        })
        .collect()
}

/// Compare measured per-tree rounds against the committed baseline; any entry whose
/// charged rounds *exceed* the baseline is a regression (improvements are fine —
/// refresh the baseline file to lock them in). A mismatch in either direction —
/// a measured tree absent from the baseline, or a baseline tree no longer measured
/// (suite entry dropped or renamed) — also fails, so coverage cannot silently
/// shrink. Returns the number of regressions.
fn check_rounds_against_baseline(path: &str, measured: &[(String, [u64; 11])]) -> usize {
    let baseline = parse_rounds_baseline(path);
    let mut regressions = 0;
    for (tree, _) in &baseline {
        if !measured.iter().any(|(t, _)| t == tree) {
            eprintln!(
                "rounds-guard: baseline entry {tree} was not measured (suite entry \
                 dropped or renamed? update {path})"
            );
            regressions += 1;
        }
    }
    for (tree, got_all) in measured {
        let Some((_, bounds)) = baseline.iter().find(|(t, _)| t == tree) else {
            eprintln!("rounds-guard: {tree} missing from baseline {path} (add it)");
            regressions += 1;
            continue;
        };
        for ((what, got), bound) in GUARDED_ROUNDS.iter().zip(got_all).zip(bounds) {
            if got > bound {
                eprintln!("rounds-guard: {tree} {what} regressed: {got} rounds > baseline {bound}");
                regressions += 1;
            }
        }
    }
    regressions
}

/// Emit a machine-readable baseline: for each tree of the standard suite at
/// size `--n` (default 1024), prepare once (with a per-phase breakdown of the
/// prepare pipeline: normalize, degree-reduction, clustering, and the
/// clustering sub-phases) and solve MaxIS and MinVC, recording MPC rounds and
/// wall-clock time; run the `multi` section (batched {MaxIS, MinVC, MinDS,
/// matching} over one shared `SolvePlan` vs. four cold solves that each build
/// their own plan, asserting problem-independent evaluation rounds);
/// compare incremental vs. full re-solves for update batches of size 1/16/256
/// (aggregated over the suite; only at `n ≤ 2048` to keep large tiers
/// tractable).
/// `cargo run --release -p mpc-tree-dp-bench -- bench-json [--seed <u64>]
/// [--n <usize>] [--strict] [--check-rounds <baseline file>]`
/// prints the JSON to stdout (redirect it to `BENCH_seed.json` or its
/// successors to anchor perf trajectories across PRs; `BENCH_pr9.json` is the
/// `--n 65536` tier). `--strict` runs the suite entries with hard
/// assertions at 256× slack (violations panic at the offending call), making
/// the top-level `violations.total` zero by construction. `--check-rounds` exits
/// non-zero if any suite entry's charged rounds exceed the committed baseline
/// — the CI rounds-regression guard, covering prepare, the MaxIS and MinVC
/// solves, the plan build/eval charges, the serving layer's plan-rebuild (cache-miss)
/// charge, the clustering sub-phases (clustering / cluster-sizes /
/// cluster-paths) the fused subroutines re-priced, and the two structural
/// columns (`struct_single` / `struct_batch`: a one-leaf and a 16-leaf
/// link/cut repair on the live plan). Schema v8 additions: the
/// `cluster-sizes`/`cluster-paths` phase entries carry `active_machines`
/// trajectories (one array per fused-subroutine invocation: machines still
/// active at each charged exchange), and every suite entry carries
/// `prepare_vs_eval_ratio` — prepare cost over the batched four-problem
/// evaluation cost, rounds and wall, making the ROADMAP's ≤2× bar
/// machine-checkable. Schema v9 adds the top-level `structural` section
/// (batched link/cut repair vs. full re-prepare on `path-n`, with the ≤10%
/// acceptance bar recorded as `meets_bar`) and the two structural guard
/// columns above. Schema v10 keeps every key; each suite entry's `max_is` /
/// `min_vc` rounds are now evaluation passes over the plan (there is no other
/// solve path), and `multi.independent_rounds` is four plan builds plus four
/// evaluations. The `server` section sweeps a multi-tenant `TreeDpServer`
/// across plan-cache budgets and records hit rate, evictions, the per-miss
/// rebuild rounds, and p50/p99 wall time per request. Schema v11 drops the
/// `parallel` section and `suite_parallel`: the thread pool they timed is gone.
fn exp_bench_json(seed: u64, n: usize, strict: bool, check_rounds: Option<&str>) {
    const PREPARE_PHASES: [&str; 5] = [
        "normalize",
        "degree-reduction",
        "clustering",
        "cluster-sizes",
        "cluster-paths",
    ];
    let mut entries = Vec::new();
    let mut multi_entries = Vec::new();
    let mut measured_rounds: Vec<(String, [u64; 11])> = Vec::new();
    let mut total_violations = 0usize;
    for entry in standard_suite(n, seed) {
        let tree = &entry.tree;
        // With `--strict` the suite runs with hard assertions like the conformance
        // gate (`integration_strict.rs`): a violation panics instead of being
        // recorded, so a completed strict run is violation-free by construction.
        // The gate's small trees pass at 64× slack; the full suite at bench sizes
        // needs 256× to absorb the CountSubtreeSizes doubling constants, and sizing
        // is 4n input words rather than the default 2n — strict round counts are
        // therefore not comparable with the committed `--check-rounds` baselines.
        let base_cfg = if strict {
            MpcConfig::new(4 * tree.len(), 0.5)
                .with_memory_slack(256.0)
                .with_bandwidth_slack(256.0)
                .with_strict(true)
        } else {
            MpcConfig::new(2 * tree.len(), 0.5)
        };
        let mut ctx = MpcContext::new(base_cfg);

        let t0 = std::time::Instant::now();
        let mut prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
            None,
        )
        .expect("prepare");
        let prepare_ms = t0.elapsed().as_secs_f64() * 1e3;
        let prepare_rounds = ctx.metrics().rounds;
        // The two fused clustering subroutines record one active-machine trajectory
        // per `converge` invocation (one per δ-level that runs them): how many
        // machines still held unconverged states at each charged exchange. The
        // trajectories make the convergence-skipping payoff visible in the JSON —
        // participation collapses well before the last element converges.
        let phase_lines: Vec<String> = PREPARE_PHASES
            .iter()
            .map(|name| {
                let subroutine = match *name {
                    "cluster-sizes" => Some("count_subtree_sizes"),
                    "cluster-paths" => Some("path_distances"),
                    _ => None,
                };
                let base = format!(
                    "        \"{}\": {{ \"rounds\": {}, \"wall_ms\": {:.3}",
                    name,
                    ctx.metrics().phase_rounds(name),
                    ctx.metrics().phase_wall_ms(name)
                );
                match subroutine {
                    Some(trace_name) => {
                        let trajectories: Vec<String> = ctx
                            .metrics()
                            .convergence
                            .iter()
                            .filter(|t| t.name == trace_name)
                            .map(|t| {
                                let steps: Vec<String> =
                                    t.active_machines.iter().map(|m| m.to_string()).collect();
                                format!("[{}]", steps.join(", "))
                            })
                            .collect();
                        format!(
                            "{base}, \"active_machines\": [{}] }}",
                            trajectories.join(", ")
                        )
                    }
                    None => format!("{base} }}"),
                }
            })
            .collect();

        let w: Vec<i64> = labels::uniform_weights(tree.len(), 1, 30, seed)
            .into_iter()
            .map(|x| x as i64)
            .collect();
        let node_w = ctx.from_vec(
            w.iter()
                .enumerate()
                .map(|(v, &x)| (v as u64, x))
                .collect::<Vec<_>>(),
        );
        let unit = ctx.from_vec((0..tree.len()).map(|v| (v as u64, ())).collect::<Vec<_>>());
        let edge_w = ctx.from_vec(
            (1..tree.len())
                .map(|v| (v as u64, (v % 7 + 1) as i64))
                .collect::<Vec<_>>(),
        );
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());

        let before = ctx.metrics().rounds;
        let t_plan = std::time::Instant::now();
        let _ = prepared.plan(&mut ctx);
        let plan_ms = t_plan.elapsed().as_secs_f64() * 1e3;
        let plan_rounds = ctx.metrics().rounds - before;

        // The plan-*rebuild* charge: what the serving layer's cache re-pays when a
        // query finds its tenant's plan evicted (`plan_uncached` bypasses the
        // `OnceCell`, exactly like `TreeDpServer`'s miss path).
        let before = ctx.metrics().rounds;
        let t_rebuild = std::time::Instant::now();
        let _ = prepared.plan_uncached(&mut ctx);
        let rebuild_ms = t_rebuild.elapsed().as_secs_f64() * 1e3;
        let rebuild_rounds = ctx.metrics().rounds - before;

        // Every solve is one evaluation pass over the plan built above.
        let mut solve = |problem: &str| -> (i64, u64, f64) {
            let before = ctx.metrics().rounds;
            let t = std::time::Instant::now();
            macro_rules! run {
                ($engine:expr, $inputs:expr, $aux:expr, $edges:expr) => {{
                    let p = $engine;
                    let sol = prepared.solve(&mut ctx, &p, $inputs, $aux, $edges);
                    sol.root_summary.best(p.problem()).unwrap()
                }};
            }
            let value = match problem {
                "max_is" => run!(
                    StateEngine::new(MaxWeightIndependentSet),
                    &node_w,
                    0,
                    &no_edges
                ),
                "min_vc" => -run!(
                    StateEngine::new(MinWeightVertexCover),
                    &node_w,
                    0,
                    &no_edges
                ),
                "min_ds" => -run!(
                    StateEngine::new(MinWeightDominatingSet),
                    &node_w,
                    0,
                    &no_edges
                ),
                "matching" => run!(StateEngine::new(MaxWeightMatching), &unit, (), &edge_w),
                other => unreachable!("bench-json has no problem named {other:?}"),
            };
            (
                value,
                ctx.metrics().rounds - before,
                t.elapsed().as_secs_f64() * 1e3,
            )
        };
        // ---- the `multi` section: four cold solves (each building its own plan) vs.
        // one shared plan ------------------------------------------------------------
        let (is_value, is_rounds, is_ms) = solve("max_is");
        let (vc_value, vc_rounds, vc_ms) = solve("min_vc");
        let (ds_value, ds_rounds, ds_ms) = solve("min_ds");
        let (mm_value, mm_rounds, mm_ms) = solve("matching");
        let independent_rounds = 4 * rebuild_rounds + is_rounds + vc_rounds + ds_rounds + mm_rounds;
        // The evaluation charge is problem-independent — the batch total is exactly
        // assembly + one evaluation per problem.
        assert_eq!(
            (is_rounds, is_rounds, is_rounds),
            (vc_rounds, ds_rounds, mm_rounds),
            "plan evaluation rounds are not problem-independent on {}",
            entry.name
        );
        let batched_rounds = plan_rounds + is_rounds + vc_rounds + ds_rounds + mm_rounds;
        let batched_ms = plan_ms + is_ms + vc_ms + ds_ms + mm_ms;

        // ---- the two structural guard columns: link/cut repair on the live plan ----
        // An incremental solver seeded from the current weights absorbs a single
        // grafted leaf and then a 16-leaf batch, splicing the `SolvePlan` built
        // above in place — the serving layer's structural path in miniature. The
        // guard pins both charges so local repair cannot drift toward the full
        // re-prepare it exists to avoid.
        let (struct_single_rounds, struct_batch_rounds) = {
            let inputs = ctx.from_vec(
                w.iter()
                    .enumerate()
                    .map(|(v, &x)| (v as u64, x))
                    .collect::<Vec<_>>(),
            );
            let mut solver = IncrementalSolver::new(
                &mut ctx,
                &prepared,
                StateEngine::new(MaxWeightIndependentSet),
                &inputs,
                0,
                &no_edges,
            );
            let nn = tree.len() as u64;
            let single: StructuralBatch<StateEngine<MaxWeightIndependentSet>> =
                StructuralBatch::new().link(nn / 2, nn, 1, ());
            let s1 = solver
                .apply_structural(&mut ctx, &mut prepared, &single)
                .expect("single-op structural batch");
            let mut batch: StructuralBatch<StateEngine<MaxWeightIndependentSet>> =
                StructuralBatch::new();
            for i in 0..16u64 {
                batch = batch.link((i * nn) / 17, nn + 1 + i, 1, ());
            }
            let s16 = solver
                .apply_structural(&mut ctx, &mut prepared, &batch)
                .expect("16-op structural batch");
            (s1.rounds, s16.rounds)
        };

        measured_rounds.push((
            entry.name.clone(),
            [
                prepare_rounds,
                is_rounds,
                vc_rounds,
                plan_rounds,
                is_rounds,
                rebuild_rounds,
                ctx.metrics().phase_rounds("clustering"),
                ctx.metrics().phase_rounds("cluster-sizes"),
                ctx.metrics().phase_rounds("cluster-paths"),
                struct_single_rounds,
                struct_batch_rounds,
            ],
        ));
        multi_entries.push(format!(
            concat!(
                "    {{\n",
                "      \"tree\": \"{}\",\n",
                "      \"plan_build\": {{ \"rounds\": {}, \"wall_ms\": {:.3} }},\n",
                "      \"plan_rebuild\": {{ \"rounds\": {}, \"wall_ms\": {:.3} }},\n",
                "      \"max_is\": {{ \"value\": {}, \"rounds\": {}, \"wall_ms\": {:.3} }},\n",
                "      \"min_vc\": {{ \"value\": {}, \"rounds\": {}, \"wall_ms\": {:.3} }},\n",
                "      \"min_ds\": {{ \"value\": {}, \"rounds\": {}, \"wall_ms\": {:.3} }},\n",
                "      \"matching\": {{ \"value\": {}, \"rounds\": {}, \"wall_ms\": {:.3} }},\n",
                "      \"batched_rounds\": {},\n",
                "      \"independent_rounds\": {},\n",
                "      \"ratio\": {:.3}\n",
                "    }}"
            ),
            entry.name,
            plan_rounds,
            plan_ms,
            rebuild_rounds,
            rebuild_ms,
            is_value,
            is_rounds,
            is_ms,
            vc_value,
            vc_rounds,
            vc_ms,
            ds_value,
            ds_rounds,
            ds_ms,
            mm_value,
            mm_rounds,
            mm_ms,
            batched_rounds,
            independent_rounds,
            batched_rounds as f64 / independent_rounds.max(1) as f64,
        ));

        // The ROADMAP acceptance bar, machine-checkable per tree: prepare must cost
        // no more than 2× the batched four-problem evaluation (plan build + four
        // planned evaluation passes), on rounds and on wall clock.
        entries.push(format!(
            concat!(
                "    {{\n",
                "      \"tree\": \"{}\",\n",
                "      \"n\": {},\n",
                "      \"diameter\": {},\n",
                "      \"prepare\": {{ \"rounds\": {}, \"wall_ms\": {:.3} }},\n",
                "      \"prepare_phases\": {{\n{}\n      }},\n",
                "      \"prepare_vs_eval_ratio\": {{ \"rounds\": {:.3}, \"wall\": {:.3}, ",
                "\"eval_rounds\": {}, \"eval_wall_ms\": {:.3} }},\n",
                "      \"max_is\": {{ \"value\": {}, \"rounds\": {}, \"wall_ms\": {:.3} }},\n",
                "      \"min_vc\": {{ \"value\": {}, \"rounds\": {}, \"wall_ms\": {:.3} }},\n",
                "      \"structural\": {{ \"single_rounds\": {}, \"batch_rounds\": {} }},\n",
                "      \"violations\": {},\n",
                "      \"memory_headroom\": {{ \"peak_local_memory\": {}, ",
                "\"local_capacity\": {}, \"ratio\": {:.4} }}\n",
                "    }}"
            ),
            entry.name,
            tree.len(),
            tree.diameter(),
            prepare_rounds,
            prepare_ms,
            phase_lines.join(",\n"),
            prepare_rounds as f64 / batched_rounds.max(1) as f64,
            prepare_ms / batched_ms.max(1e-9),
            batched_rounds,
            batched_ms,
            is_value,
            is_rounds,
            is_ms,
            vc_value,
            vc_rounds,
            vc_ms,
            struct_single_rounds,
            struct_batch_rounds,
            ctx.metrics().violations.len(),
            ctx.metrics().peak_local_memory,
            ctx.config().local_capacity(),
            ctx.metrics().memory_headroom(ctx.config().local_capacity()),
        ));
        total_violations += ctx.metrics().violations.len();
    }
    // Incremental vs. full re-solve, aggregated over the whole suite per batch size.
    // The full re-solve cost is batch-independent, so it is measured once per tree
    // and repeated verbatim in every batch row. Skipped for large tiers (the section
    // exists to track the incremental path's round counts, which are size-stable).
    let incremental_section = if n <= 2048 {
        let batch_sizes = [1usize, 16, 256];
        let mut inc_totals = vec![(0u64, 0f64); batch_sizes.len()];
        let (mut full_rounds, mut full_ms) = (0u64, 0f64);
        let mut trees = 0usize;
        for entry in standard_suite(n, seed) {
            let (per_batch, fr, fm) = bench_incremental_tree(&entry.tree, &batch_sizes, seed);
            for (total, (r, m)) in inc_totals.iter_mut().zip(per_batch) {
                total.0 += r;
                total.1 += m;
            }
            full_rounds += fr;
            full_ms += fm;
            trees += 1;
        }
        let mut inc_entries = Vec::new();
        for (&batch_size, &(inc_rounds, inc_ms)) in batch_sizes.iter().zip(&inc_totals) {
            inc_entries.push(format!(
                concat!(
                    "      {{\n",
                    "        \"batch\": {},\n",
                    "        \"trees\": {},\n",
                    "        \"incremental\": {{ \"rounds\": {}, \"wall_ms\": {:.3} }},\n",
                    "        \"full\": {{ \"rounds\": {}, \"wall_ms\": {:.3} }}\n",
                    "      }}"
                ),
                batch_size, trees, inc_rounds, inc_ms, full_rounds, full_ms,
            ));
        }
        format!(
            concat!(
                "  \"incremental\": {{\n",
                "    \"problem\": \"max_is\",\n",
                "    \"batches\": [\n{}\n    ]\n",
                "  }}"
            ),
            inc_entries.join(",\n")
        )
    } else {
        "  \"incremental\": null".to_string()
    };

    let server_section = bench_server(n, seed);
    let structural_section = bench_structural(n, seed);

    // Top-level violation accounting with its semantics spelled out: a `violation`
    // is a recorded (not fatal) breach of the Θ(n^δ)-word memory or bandwidth bound
    // *after* the configured slack factor; the default configs use 32× slack and
    // record what exceeds it, while `--strict` runs the suite at 256× slack with
    // hard assertions, so a strict run that completes has zero by construction.
    let violations_section = format!(
        concat!(
            "  \"violations\": {{\n",
            "    \"total\": {},\n",
            "    \"strict\": {},\n",
            "    \"explanation\": \"Counts Θ(n^δ)-bound breaches recorded after the \
             configured slack factor (default 32x memory/bandwidth): transient \
             gather/join/view-assembly peaks whose Θ-constants exceed 32x at this n, \
             the single-group gathers of top-cluster assembly and degree reduction \
             being the known worst case. \
             Run with --strict for hard assertions at 256x slack (violations panic), \
             which completes only when this is 0. \
             See README 'Cost model and slack factors'.\"\n",
            "  }}"
        ),
        total_violations, strict,
    );
    // Batched (one shared `SolvePlan`, four evaluation passes) vs. four independent
    // fresh solves, per suite tree. `plan_build` is charged once; every problem's
    // evaluation charges the same rounds, so `batched_rounds` = build + 4 × eval.
    let multi_section = format!(
        concat!(
            "  \"multi\": {{\n",
            "    \"problems\": [\"max_is\", \"min_vc\", \"min_ds\", \"matching\"],\n",
            "    \"entries\": [\n{}\n    ]\n",
            "  }}"
        ),
        multi_entries.join(",\n")
    );

    println!(
        concat!(
            "{{\n",
            "  \"schema\": \"mpc-tree-dp-bench/v11\",\n",
            "  \"suite\": \"standard\",\n",
            "  \"n\": {},\n",
            "  \"delta\": 0.5,\n",
            "  \"seed\": {},\n",
            "  \"suite_strict\": {},\n",
            "{},\n",
            "  \"entries\": [\n{}\n  ],\n",
            "{},\n",
            "{},\n",
            "{},\n",
            "{}\n",
            "}}"
        ),
        n,
        seed,
        strict,
        violations_section,
        entries.join(",\n"),
        multi_section,
        incremental_section,
        server_section,
        structural_section,
    );

    if let Some(path) = check_rounds {
        let regressions = check_rounds_against_baseline(path, &measured_rounds);
        if regressions > 0 {
            eprintln!("rounds-guard: {regressions} regression(s) against {path}");
            std::process::exit(1);
        }
        eprintln!(
            "rounds-guard: all {} suite entries within the {path} baseline",
            measured_rounds.len()
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let filter: Option<String> = args.first().cloned();
    if filter.as_deref() == Some("bench-json") {
        // `--seed <u64>` makes the run reproducible end to end: suite trees, weights,
        // and update batches all derive from it. The default matches BENCH_pr2.json.
        // (BENCH_seed.json predates the unified seeding — it used a hard-coded weight
        // seed of 1 — so its `value` fields differ from a default run; its round
        // counts are still directly comparable.)
        // `--n <usize>` picks the suite size (default 1024; `BENCH_pr3.json` uses
        // 65536).
        let flag_value = |name: &str| {
            args.iter().position(|a| a == name).map(|i| {
                args.get(i + 1)
                    .unwrap_or_else(|| panic!("{name} requires a value"))
                    .parse::<u64>()
                    .unwrap_or_else(|_| panic!("{name} takes an unsigned integer"))
            })
        };
        let seed = flag_value("--seed").unwrap_or(7);
        let n = flag_value("--n").unwrap_or(1024) as usize;
        // `--strict`: run the suite with hard assertions at 256× slack
        // (violations panic) — a completed run reports 0 violations.
        let strict = args.iter().any(|a| a == "--strict");
        // `--check-rounds <file>`: the CI rounds-regression guard (see exp_bench_json).
        let check_rounds = args.iter().position(|a| a == "--check-rounds").map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("--check-rounds requires a file path"))
                .clone()
        });
        exp_bench_json(seed, n, strict, check_rounds.as_deref());
        return;
    }
    let run = |id: &str| filter.as_deref().map(|f| f == id).unwrap_or(true);
    if run("e1") {
        exp_table1();
    }
    if run("e2") {
        exp_rounds_vs_diameter();
        exp_rounds_vs_n();
    }
    if run("e4") {
        exp_layers();
    }
    if run("e5") {
        exp_memory();
    }
    if run("e6") {
        exp_representations();
    }
    if run("e7") {
        exp_reuse();
    }
    if run("e8") {
        exp_tree_median();
    }
    if run("e11") {
        exp_degree_reduction();
    }
    if run("e12") {
        exp_ablation();
    }
}
