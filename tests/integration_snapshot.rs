//! Snapshot-codec integration suite: prepared trees, solve plans, and solver stores
//! round-trip through the hand-rolled binary codec bit-identically, and every class
//! of corrupted input (bad magic, truncation, wrong version, wrong kind, checksum
//! mismatch, malformed payload) surfaces as a typed error — never a panic.

// The proptest block below expands past the default macro recursion limit.
#![recursion_limit = "512"]

use mpc_tree_dp::core::{
    KIND_PLAN, KIND_PREPARED_TREE, KIND_STORE, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use mpc_tree_dp::problems::MaxWeightIndependentSet;
use mpc_tree_dp::{
    prepare, IncrementalSolver, ListOfEdges, MpcConfig, MpcContext, PreparedTree, SnapshotError,
    SolvePlan, SolverStore, StateEngine, TreeInput,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use tree_gen::labels::uniform_values;
use tree_gen::shapes::{balanced_kary, heavy_caterpillar, spider};
use tree_repr::Tree;

type MaxIs = StateEngine<MaxWeightIndependentSet>;

fn cfg_for(n: usize) -> MpcConfig {
    MpcConfig::new((4 * n).max(16), 0.5)
        .with_memory_slack(512.0)
        .with_bandwidth_slack(512.0)
}

fn weight_table(ctx: &mut MpcContext, ws: &[i64]) -> mpc_tree_dp::DistVec<(u64, i64)> {
    ctx.from_vec(
        ws.iter()
            .enumerate()
            .map(|(v, &w)| (v as u64, w))
            .collect::<Vec<_>>(),
    )
}

/// Prepare `tree`, cache its plan, and solve MaxIS once; returns everything later
/// assertions compare against.
fn prepared_with_plan(tree: &Tree, weights: &[i64]) -> (MpcContext, PreparedTree, i64) {
    let mut ctx = MpcContext::new(cfg_for(tree.len()));
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
        Some(4),
    )
    .expect("well-formed tree");
    let engine = MaxIs::new(MaxWeightIndependentSet);
    let inputs = weight_table(&mut ctx, weights);
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let sol = prepared.solve(&mut ctx, &engine, &inputs, 0, &no_edges);
    let best = sol.root_summary.best(engine.problem()).expect("optimum");
    (ctx, prepared, best)
}

/// A prepared tree (with its cached plan) round-trips bit-identically: same
/// clustering, same plan rounds on eval, same labels and optimum.
#[test]
fn prepared_tree_round_trips_with_cached_plan() {
    let tree = heavy_caterpillar(18, 9);
    let n = tree.len();
    let weights: Vec<i64> = uniform_values(n, 1.0, 50.0, 11)
        .iter()
        .map(|v| *v as i64)
        .collect();
    let (_, prepared, best) = prepared_with_plan(&tree, &weights);
    assert!(prepared.has_plan(), "solve caches the plan");

    let bytes = prepared.to_snapshot();
    let restored = PreparedTree::from_snapshot(&bytes).expect("round trip");
    assert!(restored.has_plan(), "cached plan travels with the tree");
    assert_eq!(restored.root, prepared.root);
    assert_eq!(restored.num_nodes, prepared.num_nodes);
    assert_eq!(restored.original_nodes, prepared.original_nodes);
    assert_eq!(
        restored.clustering.top_cluster,
        prepared.clustering.top_cluster
    );
    assert_eq!(restored.resident_words(), prepared.resident_words());

    // Solving on the restored tree (fresh context, same config) is bit-identical —
    // labels, optimum, and rounds.
    let run = |p: &PreparedTree| {
        let mut ctx = MpcContext::new(cfg_for(n));
        let engine = MaxIs::new(MaxWeightIndependentSet);
        let inputs = weight_table(&mut ctx, &weights);
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
        let sol = p.solve(&mut ctx, &engine, &inputs, 0, &no_edges);
        let mut labels: Vec<(u64, usize)> = sol.labels.iter().cloned().collect();
        labels.sort_unstable();
        let best = sol.root_summary.best(engine.problem()).expect("optimum");
        (best, labels, ctx.metrics().rounds)
    };
    let (best_orig, labels_orig, rounds_orig) = run(&prepared);
    let (best_rest, labels_rest, rounds_rest) = run(&restored);
    assert_eq!(best_orig, best);
    assert_eq!(best_rest, best);
    assert_eq!(labels_orig, labels_rest, "labels must be bit-identical");
    assert_eq!(
        rounds_orig, rounds_rest,
        "restored plan must not re-charge assembly"
    );
}

/// A bare plan snapshot restores to an equivalent evaluator.
#[test]
fn solve_plan_round_trips() {
    let tree = spider(5, 12);
    let n = tree.len();
    let weights: Vec<i64> = (0..n).map(|v| (v % 7) as i64 + 1).collect();
    let mut ctx = MpcContext::new(cfg_for(n));
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        Some(4),
    )
    .expect("well-formed tree");
    let plan = prepared.plan_uncached(&mut ctx);
    let bytes = plan.to_snapshot();
    let restored = SolvePlan::from_snapshot(&bytes).expect("round trip");
    assert_eq!(restored.num_layers(), plan.num_layers());
    assert_eq!(restored.num_machines(), plan.num_machines());
    assert_eq!(restored.num_views(), plan.num_views());
    assert_eq!(restored.resident_words(), plan.resident_words());

    let engine = MaxIs::new(MaxWeightIndependentSet);
    let inputs = weight_table(&mut ctx, &weights);
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let a = plan.solve(&mut ctx, &engine, &inputs, 0, &no_edges);
    let b = restored.solve(&mut ctx, &engine, &inputs, 0, &no_edges);
    assert_eq!(a.root_summary, b.root_summary);
    assert_eq!(a.root_label, b.root_label);
    let mut la: Vec<_> = a.labels.iter().cloned().collect();
    let mut lb: Vec<_> = b.labels.iter().cloned().collect();
    la.sort_unstable();
    lb.sort_unstable();
    assert_eq!(la, lb);
}

/// A solver store round-trips and rebuilds an incremental solver that behaves
/// bit-identically to the snapshotted one under further update batches.
#[test]
fn solver_store_round_trips_into_incremental_solver() {
    let tree = balanced_kary(40, 3);
    let n = tree.len();
    let weights: Vec<i64> = (0..n).map(|v| ((v * 13) % 23) as i64).collect();
    let mut ctx = MpcContext::new(cfg_for(n));
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        Some(4),
    )
    .expect("well-formed tree");
    let inputs = weight_table(&mut ctx, &weights);
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let mut solver = IncrementalSolver::new(
        &mut ctx,
        &prepared,
        MaxIs::new(MaxWeightIndependentSet),
        &inputs,
        0,
        &no_edges,
    );
    solver.apply_batch(&mut ctx, &[(3, 500), (n as u64 - 1, 2)], &[]);

    let bytes = solver.store().to_snapshot();
    let store: SolverStore<MaxIs> = SolverStore::from_snapshot(&bytes).expect("round trip");
    assert_eq!(store.num_layers(), solver.store().num_layers());
    assert_eq!(store.resident_words(), solver.store().resident_words());
    let mut restored = IncrementalSolver::restore(MaxIs::new(MaxWeightIndependentSet), store, 0);
    assert_eq!(restored.root_summary(), solver.root_summary());
    assert_eq!(restored.labels(), solver.labels());

    // Divergence test: the same further batch on both solvers (separate contexts)
    // produces identical summaries, labels, and charges.
    let mut ctx2 = MpcContext::new(cfg_for(n));
    let batch: Vec<(u64, i64)> = vec![(0, 999), (7, 0), (n as u64 / 2, 123)];
    let s1 = solver.apply_batch(&mut ctx, &batch, &[]);
    let s2 = restored.apply_batch(&mut ctx2, &batch, &[]);
    assert_eq!(s1.resummarized, s2.resummarized);
    assert_eq!(s1.summaries_changed, s2.summaries_changed);
    assert_eq!(s1.relabeled, s2.relabeled);
    assert_eq!(s1.labels_changed, s2.labels_changed);
    assert_eq!(s1.rounds, s2.rounds);
    assert_eq!(s1.words_sent, s2.words_sent);
    assert_eq!(solver.root_summary(), restored.root_summary());
    assert_eq!(solver.labels(), restored.labels());
}

/// Every corruption class returns its typed error — no panics (the dynamic
/// counterpart of the workspace's `clippy::unwrap_used` deny).
#[test]
fn corrupted_snapshots_return_errors() {
    let tree = spider(4, 6);
    let weights: Vec<i64> = (0..tree.len()).map(|_| 1).collect();
    let (_, prepared, _) = prepared_with_plan(&tree, &weights);
    let good = prepared.to_snapshot();
    assert!(PreparedTree::from_snapshot(&good).is_ok());

    // Corrupted header: magic bytes flipped.
    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0x55;
    assert_eq!(
        PreparedTree::from_snapshot(&bad_magic).unwrap_err(),
        SnapshotError::BadMagic
    );

    // Truncated payload (and a fully truncated header).
    let cut = &good[..good.len() - 7];
    assert_eq!(
        PreparedTree::from_snapshot(cut).unwrap_err(),
        SnapshotError::Truncated
    );
    assert_eq!(
        PreparedTree::from_snapshot(&good[..9]).unwrap_err(),
        SnapshotError::Truncated
    );
    assert_eq!(
        PreparedTree::from_snapshot(&[]).unwrap_err(),
        SnapshotError::Truncated
    );

    // Wrong (future) version.
    let mut vers = good.clone();
    vers[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 7).to_le_bytes());
    assert_eq!(
        PreparedTree::from_snapshot(&vers).unwrap_err(),
        SnapshotError::UnsupportedVersion {
            found: SNAPSHOT_VERSION + 7
        }
    );

    // Wrong kind: a prepared-tree snapshot opened as a plan (and vice versa).
    assert_eq!(
        SolvePlan::from_snapshot(&good).unwrap_err(),
        SnapshotError::WrongKind {
            found: KIND_PREPARED_TREE,
            expected: KIND_PLAN
        }
    );
    assert_eq!(
        SolverStore::<MaxIs>::from_snapshot(&good).err(),
        Some(SnapshotError::WrongKind {
            found: KIND_PREPARED_TREE,
            expected: KIND_STORE
        })
    );

    // Checksum mismatch: one payload byte flipped.
    let mut flip = good.clone();
    let payload_byte = 32 + (good.len() - 32) / 2;
    flip[payload_byte] ^= 1;
    assert_eq!(
        PreparedTree::from_snapshot(&flip).unwrap_err(),
        SnapshotError::ChecksumMismatch
    );

    // Malformed payload: a well-framed snapshot whose payload is garbage decodes to
    // an error (Truncated or Malformed depending on where the bytes run out).
    let mut w = mpc_tree_dp::core::SnapshotWriter::new();
    w.put_u64(u64::MAX);
    w.put_u8(9);
    let framed = mpc_tree_dp::core::seal(KIND_PREPARED_TREE, w);
    assert!(PreparedTree::from_snapshot(&framed).is_err());

    // Sanity: the magic constant is what the header starts with.
    assert_eq!(&good[..8], SNAPSHOT_MAGIC.as_slice());
}

/// The full primitive put/take surface of the codec round-trips, and every reader
/// failure mode (exhaustion, bad bool tag) is a typed error — never a panic.
#[test]
fn codec_primitive_surface_round_trips() {
    use mpc_tree_dp::core::{SnapshotReader, SnapshotWriter};

    let mut w = SnapshotWriter::new();
    w.put_u32(0xdead_beef);
    w.put_i64(-42);
    w.put_bool(true);
    w.put_bool(false);
    w.put_f64(-0.5);
    w.put_f64(f64::NAN); // IEEE bit pattern, so even NaN round-trips bit-exactly
    w.put_bytes(b"raw");
    let bytes = w.into_bytes();

    let mut r = SnapshotReader::new(&bytes);
    assert_eq!(r.take_u32().expect("u32"), 0xdead_beef);
    assert_eq!(r.take_i64().expect("i64"), -42);
    assert!(r.take_bool().expect("bool"));
    assert!(!r.take_bool().expect("bool"));
    assert_eq!(r.take_f64().expect("f64"), -0.5);
    assert!(r.take_f64().expect("f64").is_nan());
    assert_eq!(r.take_bytes(3).expect("bytes"), b"raw");
    r.finish().expect("fully consumed");

    // Reading past the end is Truncated, not a panic — from either entry point.
    let mut r = SnapshotReader::new(&bytes);
    assert_eq!(
        r.take_bytes(bytes.len() + 1).err(),
        Some(SnapshotError::Truncated)
    );
    let mut r = SnapshotReader::new(&[7]);
    assert_eq!(r.take_u8().expect("u8"), 7);
    assert_eq!(r.take_u8().err(), Some(SnapshotError::Truncated));

    // A bool byte other than 0/1 is malformed, and unconsumed trailing bytes fail
    // `finish` — both as typed errors.
    let mut r = SnapshotReader::new(&[2]);
    assert!(matches!(r.take_bool(), Err(SnapshotError::Malformed(_))));
    let r = SnapshotReader::new(&[0, 0]);
    assert!(matches!(r.finish(), Err(SnapshotError::Malformed(_))));
}

/// Length prefixes are validated against the remaining payload *before* any
/// allocation happens: a snapshot claiming a near-`usize::MAX` element count is a
/// typed [`SnapshotError::Malformed`] — never an OOM abort or capacity panic.
#[test]
fn oversized_length_prefixes_are_malformed_not_oom() {
    use mpc_tree_dp::core::{seal, SnapshotReader, SnapshotWriter, KIND_STORE};
    use mpc_tree_dp::Snapshot;

    // Eight bytes of payload claiming ~usize::MAX/2 elements: every collection
    // decoder must reject the prefix up front.
    let mut w = SnapshotWriter::new();
    w.put_usize(usize::MAX / 2);
    w.put_u64(1);
    let bytes = w.into_bytes();
    let oversized = SnapshotError::Malformed("length prefix exceeds buffer");
    let mut r = SnapshotReader::new(&bytes);
    assert_eq!(
        <Vec<u64> as Snapshot>::decode(&mut r).unwrap_err(),
        oversized
    );
    let mut r = SnapshotReader::new(&bytes);
    assert_eq!(String::decode(&mut r).unwrap_err(), oversized);
    let mut r = SnapshotReader::new(&bytes);
    assert_eq!(
        <BTreeMap<u64, u64> as Snapshot>::decode(&mut r).unwrap_err(),
        oversized
    );
    let mut r = SnapshotReader::new(&bytes);
    assert_eq!(
        <mpc_tree_dp::DistVec<u64> as Snapshot>::decode(&mut r).unwrap_err(),
        oversized
    );

    // End to end: a well-framed container whose payload leads with the hostile
    // prefix still decodes to a typed error at the top-level entry points.
    let mut w = SnapshotWriter::new();
    w.put_usize(usize::MAX / 2);
    w.put_u64(1);
    let framed = seal(KIND_STORE, w);
    assert!(SolverStore::<MaxIs>::from_snapshot(&framed).is_err());
}

/// Byte-for-byte determinism: encoding the same value twice gives identical bytes.
#[test]
fn encoding_is_deterministic() {
    let tree = heavy_caterpillar(10, 5);
    let weights: Vec<i64> = (0..tree.len()).map(|v| v as i64).collect();
    let (_, prepared, _) = prepared_with_plan(&tree, &weights);
    assert_eq!(prepared.to_snapshot(), prepared.to_snapshot());
    let restored = PreparedTree::from_snapshot(&prepared.to_snapshot()).expect("round trip");
    assert_eq!(
        restored.to_snapshot(),
        prepared.to_snapshot(),
        "re-encoding a restored tree reproduces the original bytes"
    );
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

/// Body of the property test, out-of-line so the `proptest!` expansion stays small.
/// Random tree: snapshot → restore → solve is bit-identical to solving the original
/// (labels and optimum), including the store round trip.
fn check_random_tree_round_trip(tree: &Tree, seed: u64) {
    let n = tree.len();
    let weights: Vec<i64> = (0..n)
        .map(|v| ((v as u64 * 37 + seed) % 91) as i64)
        .collect();
    let mut ctx = MpcContext::new(cfg_for(n));
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
        Some(4),
    )
    .expect("well-formed tree");
    let engine = MaxIs::new(MaxWeightIndependentSet);
    let inputs = weight_table(&mut ctx, &weights);
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let (sol, store) = prepared
        .plan(&mut ctx)
        .solve_with_store(&mut ctx, &engine, &inputs, 0, &no_edges);

    // Tree round trip, then solve on a fresh context.
    let restored = PreparedTree::from_snapshot(&prepared.to_snapshot()).expect("tree round trip");
    let mut ctx2 = MpcContext::new(cfg_for(n));
    let inputs2 = weight_table(&mut ctx2, &weights);
    let no_edges2 = ctx2.from_vec(Vec::<(u64, ())>::new());
    let sol2 = restored.solve(&mut ctx2, &engine, &inputs2, 0, &no_edges2);

    prop_assert_eq!(&sol.root_summary, &sol2.root_summary);
    prop_assert_eq!(&sol.root_label, &sol2.root_label);
    let mut l1: Vec<(u64, usize)> = sol.labels.iter().cloned().collect();
    let mut l2: Vec<(u64, usize)> = sol2.labels.iter().cloned().collect();
    l1.sort_unstable();
    l2.sort_unstable();
    prop_assert_eq!(l1, l2);

    // Store round trip preserves the label table exactly.
    let store2: SolverStore<MaxIs> =
        SolverStore::from_snapshot(&store.to_snapshot()).expect("store round trip");
    let m1: BTreeMap<u64, usize> = store.labels().clone();
    let m2: BTreeMap<u64, usize> = store2.labels().clone();
    prop_assert_eq!(m1, m2);
    prop_assert_eq!(store.root_summary(), store2.root_summary());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_trees_round_trip_through_snapshots(tree in arbitrary_tree(48), seed in 0u64..50) {
        check_random_tree_round_trip(&tree, seed);
    }
}
