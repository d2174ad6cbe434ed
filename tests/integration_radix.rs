//! Radix-vs-comparison equivalence suite.
//!
//! The sorting primitives take a linear-time LSD radix fast path whenever the sort
//! key has a monotone `u64` embedding (`SortKey::IS_WORD`). That path must be
//! indistinguishable from the comparison fallback in everything the MPC model can
//! observe: output order, DP labels, rounds, communication volume, per-round peaks,
//! and peak memory. `MpcConfig::with_radix(false)` forces the fallback, which is how
//! the two paths are compared — primitive by primitive on adversarial key
//! distributions, and end to end across the standard suite.

use mpc_tree_dp::gen::labels;
use mpc_tree_dp::gen::suite::standard_suite;
use mpc_tree_dp::problems::MaxWeightIndependentSet;
use mpc_tree_dp::repr::rooting::root_undirected;
use mpc_tree_dp::repr::UndirectedEdges;
use mpc_tree_dp::{prepare, DistVec, ListOfEdges, MpcConfig, MpcContext, StateEngine, TreeInput};
use std::collections::BTreeMap;

/// Everything the MPC model measures, as one comparable value.
#[derive(Debug, Clone, PartialEq)]
struct MetricsSnapshot {
    rounds: u64,
    total_words_sent: u64,
    max_words_sent_per_round: usize,
    max_words_received_per_round: usize,
    peak_local_memory: usize,
    violations: usize,
}

fn snapshot(ctx: &MpcContext) -> MetricsSnapshot {
    let m = ctx.metrics();
    MetricsSnapshot {
        rounds: m.rounds,
        total_words_sent: m.total_words_sent,
        max_words_sent_per_round: m.max_words_sent_per_round,
        max_words_received_per_round: m.max_words_received_per_round,
        peak_local_memory: m.peak_local_memory,
        violations: m.violations.len(),
    }
}

fn ctx_with(radix: bool, n: usize) -> MpcContext {
    MpcContext::new(MpcConfig::new(n, 0.5).with_radix(radix))
}

/// Deterministic pseudo-random u64 stream (splitmix64).
fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// Key distributions that stress different radix behaviors: duplicate-heavy keys,
/// already-sorted and reversed inputs, all-equal keys, full-width random words, keys
/// that differ only in high bytes (most digit passes skipped), tiny inputs, and
/// lengths straddling the internal comparison-vs-radix cutoff (1024): 1023 takes
/// the comparison branch, 1024 and 1025 the LSD radix branch, and the model must
/// not be able to tell them apart.
fn key_cases() -> Vec<(&'static str, Vec<u64>)> {
    let mut rng = splitmix(42);
    vec![
        ("empty", Vec::new()),
        ("single", vec![7]),
        ("all-equal", vec![13; 513]),
        ("already-sorted", (0..1000).collect()),
        ("reversed", (0..1000).rev().collect()),
        ("duplicate-heavy", (0..2000).map(|i| i % 17).collect()),
        ("random-full-width", (0..1500).map(|_| rng()).collect()),
        (
            "high-bytes-only",
            (0..800).map(|i| (i as u64 % 251) << 48).collect(),
        ),
        (
            "near-sorted",
            (0..1200).map(|i| i as u64 ^ ((i as u64) % 3)).collect(),
        ),
        ("cutoff-minus-one", (0..1023).map(|i| i % 11).collect()),
        ("cutoff-exact", (0..1024).map(|i| i % 11).collect()),
        ("cutoff-plus-one", (0..1025).map(|i| i % 11).collect()),
    ]
}

#[test]
fn sort_by_key_radix_matches_comparison_on_all_cases() {
    for (name, keys) in key_cases() {
        let n = keys.len().max(64);
        // Records are (key, payload): stability is observable through the payload.
        let data: Vec<(u64, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u64))
            .collect();
        let run = |radix: bool| {
            let mut c = ctx_with(radix, n);
            let dv = c.from_vec(data.clone());
            let out = c.sort_by_key(dv, |r| r.0).into_vec();
            (out, snapshot(&c))
        };
        let (fast, fast_m) = run(true);
        let (slow, slow_m) = run(false);
        assert_eq!(fast, slow, "output diverged on {name}");
        assert_eq!(fast_m, slow_m, "metrics diverged on {name}");
        // And both equal a stable reference sort.
        let mut expected = data;
        expected.sort_by_key(|r| r.0);
        assert_eq!(fast, expected, "sort incorrect on {name}");
    }
}

#[test]
fn sort_with_index_radix_matches_comparison_on_all_cases() {
    for (name, keys) in key_cases() {
        let n = keys.len().max(64);
        let run = |radix: bool| {
            let mut c = ctx_with(radix, n);
            let dv = c.from_vec(keys.clone());
            let out = c.sort_with_index(dv, |k| *k).into_vec();
            (out, snapshot(&c))
        };
        let (fast, fast_m) = run(true);
        let (slow, slow_m) = run(false);
        assert_eq!(fast, slow, "output diverged on {name}");
        assert_eq!(fast_m, slow_m, "metrics diverged on {name}");
        for (i, (idx, _)) in fast.iter().enumerate() {
            assert_eq!(*idx, i as u64, "global index wrong on {name}");
        }
    }
}

#[test]
fn gather_groups_radix_matches_comparison_on_all_cases() {
    for (name, keys) in key_cases() {
        let n = keys.len().max(64);
        let data: Vec<(u64, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u64))
            .collect();
        let run = |radix: bool| {
            let mut c = ctx_with(radix, n);
            let dv = c.from_vec(data.clone());
            let out = c.gather_groups(dv, |r| r.0).into_vec();
            (out, snapshot(&c))
        };
        let (fast, fast_m) = run(true);
        let (slow, slow_m) = run(false);
        assert_eq!(fast, slow, "groups diverged on {name}");
        assert_eq!(fast_m, slow_m, "metrics diverged on {name}");
    }
}

#[test]
fn join_lookup_radix_matches_comparison_on_all_cases() {
    let mut rng = splitmix(7);
    for (name, keys) in key_cases() {
        let n = keys.len().max(64);
        let table: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k ^ 0xabcd)).collect();
        // Requests: half present keys, half random probes.
        let requests: Vec<u64> = keys
            .iter()
            .map(|&k| if rng() % 2 == 0 { k } else { rng() % 64 })
            .collect();
        let run = |radix: bool| {
            let mut c = ctx_with(radix, n);
            let table_dv = c.from_vec(table.clone());
            let reqs = c.from_vec(requests.clone());
            let direct = c.join_lookup(reqs, |r| *r, &table_dv, |t| t.0).into_vec();
            let sorted = c.sort_table(&table_dv, |t| t.0);
            let reqs2 = c.from_vec(requests.clone());
            let probed = c
                .join_lookup_sorted(reqs2, |r| *r, &table_dv, &sorted)
                .into_vec();
            assert_eq!(direct, probed, "sorted-table probe diverged on {name}");
            (direct, snapshot(&c))
        };
        let (fast, fast_m) = run(true);
        let (slow, slow_m) = run(false);
        assert_eq!(fast, slow, "answers diverged on {name}");
        assert_eq!(fast_m, slow_m, "metrics diverged on {name}");
    }
}

/// One full pipeline run (prepare + MaxIS solve) in the given radix mode.
fn run_pipeline(
    tree: &mpc_tree_dp::Tree,
    seed: u64,
    radix: bool,
) -> (BTreeMap<u64, usize>, usize, i64, MetricsSnapshot) {
    let n = tree.len();
    let mut ctx = MpcContext::new(MpcConfig::new(2 * n, 0.5).with_radix(radix));
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
        None,
    )
    .expect("prepare");
    let weights: Vec<i64> = labels::uniform_weights(n, 1, 30, seed)
        .into_iter()
        .map(|x| x as i64)
        .collect();
    let node_w = ctx.from_vec(
        weights
            .iter()
            .enumerate()
            .map(|(v, &w)| (v as u64, w))
            .collect::<Vec<_>>(),
    );
    let no_edges: DistVec<(u64, ())> = ctx.from_vec(Vec::new());
    let engine = StateEngine::new(MaxWeightIndependentSet);
    let sol = prepared.solve(&mut ctx, &engine, &node_w, 0, &no_edges);
    let value = sol.root_summary.best(engine.problem()).unwrap();
    (
        sol.labels.iter().cloned().collect(),
        sol.root_label,
        value,
        snapshot(&ctx),
    )
}

#[test]
fn pipeline_radix_toggle_is_invisible_across_the_standard_suite() {
    // Labels AND metrics must agree tree by tree — the radix path may only change
    // wall-clock time, never anything the model observes.
    for entry in standard_suite(256, 9) {
        let fast = run_pipeline(&entry.tree, 9, true);
        let slow = run_pipeline(&entry.tree, 9, false);
        assert_eq!(fast, slow, "radix modes diverged on {}", entry.name);
    }
}

#[test]
fn rooting_radix_toggle_is_invisible_across_the_standard_suite() {
    // The Euler-tour ranking probes its dense arc ids through the bucket directory,
    // which exists on the radix path only: orientation and metrics must not notice.
    for entry in standard_suite(256, 9) {
        let run = |radix: bool| {
            let mut c = ctx_with(radix, 2 * entry.tree.len());
            let dv = c.from_vec(UndirectedEdges::from_tree(&entry.tree).0);
            let rooted = root_undirected(&mut c, dv).expect("a tree roots cleanly");
            (rooted.root, rooted.edges.into_vec(), snapshot(&c))
        };
        assert_eq!(
            run(true),
            run(false),
            "radix modes diverged on {}",
            entry.name
        );
    }
}
