//! Strict-mode conformance gate: the full pipeline — prepare → cached plan →
//! `solve_many` → store export → incremental `apply_batch` — runs under strict
//! accounting without a single recorded model violation.
//!
//! This suite is the dynamic counterpart of the `mpc-lint` static rules: what the
//! linter cannot prove about round/volume/memory accounting, these runs observe (and
//! strict mode turns any violation into an immediate panic at the offending call).

use mpc_tree_dp::clustering::EdgeKind;
use mpc_tree_dp::core::solve_sequential;
use mpc_tree_dp::mpc::MachineId;
use mpc_tree_dp::problems::brute::{count_matchings_mod, longest_path};
use mpc_tree_dp::problems::median::MedianInput;
use mpc_tree_dp::problems::{sequential_tree_median, MaxWeightIndependentSet, TreeMedian};
use mpc_tree_dp::{
    prepare, IncrementalSolver, ListOfEdges, MpcConfig, MpcContext, StateEngine, TreeInput,
};
use tree_gen::labels::{random_bools, uniform_values};
use tree_gen::shapes::{heavy_caterpillar, path, spider, star};

/// Slack over the Θ(n^δ) bounds covering the implementation's constant factors (the
/// asymptotics are the engine's; the constants are ours). Kept far below the 512×
/// used by the non-strict suites: a regression that starts moving or holding
/// Ω(n^δ)-factor more data trips the strict panic here.
const SLACK: f64 = 64.0;

fn strict_cfg(input_words: usize) -> MpcConfig {
    MpcConfig::new(input_words, 0.5)
        .with_memory_slack(SLACK)
        .with_bandwidth_slack(SLACK)
        .with_strict(true)
}

/// The raw engine primitives stay compliant under `MpcConfig::strict`: balanced
/// construction, a named phase, routing, one hand-rolled communication round,
/// and a prefix scan — zero violations recorded.
#[test]
fn strict_engine_primitives_stay_compliant() {
    let cfg = MpcConfig::strict(512, 0.5).with_bandwidth_slack(8.0);
    let machines = cfg.num_machines();
    let mut ctx = MpcContext::new(cfg);
    ctx.phase("gate-primitives", |ctx| {
        let data: Vec<u64> = (0..512u64)
            .map(|i| i.wrapping_mul(2654435761) % 997)
            .collect();
        let dv = ctx.from_vec(data.clone());
        let words = dv.chunk_words();
        let total: usize = words.iter().sum();
        assert_eq!(words.len(), machines);
        assert!(dv.max_chunk_words() <= cfg.balanced_chunk(total));

        // Route by residue; every chunk then holds exactly its own residue class.
        let routed = ctx.route(dv, |&x| (x % machines as u64) as MachineId);
        for (m, chunk) in routed.chunks().iter().enumerate() {
            assert!(chunk.iter().all(|&x| x as usize % machines == m));
        }

        // One explicit communication round: every machine reports its local sum to 0.
        let mut sums: Vec<u64> = routed.chunks().iter().map(|c| c.iter().sum()).collect();
        let inboxes = ctx.communicate(&mut sums, |_, sum, out| out.send(0, *sum));
        let grand: u64 = inboxes[0].iter().sum();
        assert_eq!(grand, data.iter().sum::<u64>());

        // The prefix maximum is monotone and ends at the global maximum.
        let pm = ctx.prefix_max(routed, |&x| x);
        let mut prev = 0u64;
        for &(running, _) in pm.iter() {
            assert!(running >= prev, "prefix max must be monotone");
            prev = running;
        }
        assert_eq!(prev, data.iter().copied().max().unwrap());
    });
    ctx.check_compliance()
        .expect("strict engine primitives stay compliant");
    assert!(ctx.metrics().violations.is_empty());
}

/// The gate proper: one full pipeline run under strict accounting, every answer
/// checked against the sequential oracle.
#[test]
fn strict_pipeline_is_violation_free() {
    // A high-degree caterpillar forces the degree-reduction path.
    let tree = heavy_caterpillar(24, 12);
    let n = tree.len();
    let vals = uniform_values(n, 1.0, 100.0, 42);
    let boost = random_bools(n, 0.25, 7);
    let mut weights: Vec<i64> = vals
        .iter()
        .zip(&boost)
        .map(|(v, &b)| *v as i64 + if b { 50 } else { 0 })
        .collect();

    let mut ctx = MpcContext::new(strict_cfg(4 * n));
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        Some(4),
    )
    .expect("well-formed tree");

    let weight_table = |ctx: &mut MpcContext, ws: &[i64]| {
        ctx.from_vec(
            ws.iter()
                .enumerate()
                .map(|(v, &w)| (v as u64, w))
                .collect::<Vec<_>>(),
        )
    };
    let inputs = weight_table(&mut ctx, &weights);
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());

    // Two problem instances batched over the shared plan, checked against the
    // sequential oracle on the original (not degree-reduced) tree.
    let engine = StateEngine::new(MaxWeightIndependentSet);
    let optimum = |ws: &[i64]| {
        solve_sequential(
            &engine,
            &tree.edges(),
            tree.root() as u64,
            |v| ws[v as usize],
            |_| (EdgeKind::Original, ()),
        )
        .root_summary
        .best(engine.problem())
    };
    let halved: Vec<i64> = weights.iter().map(|w| w / 2).collect();
    let inputs_halved = weight_table(&mut ctx, &halved);
    let sols = {
        let plan = prepared.plan(&mut ctx);
        plan.solve_many(
            &mut ctx,
            &[
                (&engine, &inputs, 0, &no_edges),
                (&engine, &inputs_halved, 0, &no_edges),
            ],
        )
    };
    assert_eq!(
        sols[0].root_summary.best(engine.problem()),
        optimum(&weights)
    );
    assert_eq!(
        sols[1].root_summary.best(engine.problem()),
        optimum(&halved)
    );

    // The solver store snapshot equals the distributed label table.
    let (sol_store, store) = prepared
        .plan(&mut ctx)
        .solve_with_store(&mut ctx, &engine, &inputs, 0, &no_edges);
    let mut exported = store.export_labels();
    exported.sort_unstable();
    let mut direct_labels: Vec<(u64, usize)> = sol_store.labels.iter().cloned().collect();
    direct_labels.sort_unstable();
    assert_eq!(exported, direct_labels);

    // Incremental updates through apply_batch stay strict-clean and match a full
    // evaluation of the updated weights (and the oracle).
    let mut inc = IncrementalSolver::new(
        &mut ctx,
        &prepared,
        StateEngine::new(MaxWeightIndependentSet),
        &inputs,
        0,
        &no_edges,
    );
    let updates: Vec<(u64, i64)> = vec![(1, 999), (n as u64 / 2, 1), (n as u64 - 1, 777)];
    let stats = inc.apply_batch(&mut ctx, &updates, &[]);
    assert_eq!(stats.batch_size, updates.len());
    for &(v, w) in &updates {
        weights[v as usize] = w;
    }
    let fresh_inputs = weight_table(&mut ctx, &weights);
    let fresh = prepared.solve(&mut ctx, &engine, &fresh_inputs, 0, &no_edges);
    assert_eq!(inc.root_summary(), &fresh.root_summary);
    assert_eq!(fresh.root_summary.best(engine.problem()), optimum(&weights));

    ctx.check_compliance()
        .expect("strict pipeline records no violations");
    assert!(ctx.metrics().violations.is_empty());
}

/// A non-binary-adaptable problem (tree median) through the same strict gate.
#[test]
fn strict_median_matches_sequential_reference() {
    let tree = spider(6, 20);
    let n = tree.len();
    let vals = uniform_values(n, -50.0, 50.0, 3);
    let leaf_vals: Vec<MedianInput> = (0..n)
        .map(|v| {
            if tree.children(v).is_empty() {
                Some(vals[v] as i64)
            } else {
                None
            }
        })
        .collect();

    let mut ctx = MpcContext::new(strict_cfg(4 * n));
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        Some(tree.max_degree().max(4)),
    )
    .expect("well-formed tree");
    let inputs = ctx.from_vec(
        leaf_vals
            .iter()
            .enumerate()
            .map(|(v, x)| (v as u64, *x))
            .collect::<Vec<_>>(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let sol = prepared.solve(&mut ctx, &TreeMedian, &inputs, None, &no_edges);

    let expected = sequential_tree_median(&tree, &leaf_vals);
    assert_eq!(sol.root_label, expected[tree.root()]);
    ctx.check_compliance()
        .expect("strict median solve records no violations");
}

/// The exhaustive oracles agree with closed forms on shapes where the answer is
/// known exactly (a path with `m` edges has `F(m+2)` matchings; a star has one
/// matching per edge plus the empty one).
#[test]
fn brute_oracles_agree_with_closed_forms() {
    const M: u64 = 1_000_000_007;
    assert_eq!(count_matchings_mod(&path(4), M), 5);
    assert_eq!(count_matchings_mod(&path(6), M), 13);
    assert_eq!(count_matchings_mod(&star(6), M), 6);
    assert_eq!(longest_path(&path(9)), 8);
    assert_eq!(longest_path(&star(6)), 2);
    assert_eq!(longest_path(&heavy_caterpillar(5, 3)), 6);
}
