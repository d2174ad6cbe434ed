//! Snapshot-codec integration suite: prepared trees (with their plans) and solver
//! stores round-trip through the hand-rolled binary codec bit-identically, and every
//! class of corrupted input (bad magic, truncation, wrong version, wrong kind,
//! checksum mismatch, malformed payload, a clustering that cannot be linked)
//! surfaces as a typed error — never a panic. Committed golden snapshots
//! (`tests/snapshots/`) keep every kind's bytes readable.

// The proptest block below expands past the default macro recursion limit.
#![recursion_limit = "512"]

use mpc_tree_dp::clustering::{cluster_layer, make_cluster_id, EdgeKind, Element, ElementKind};
use mpc_tree_dp::core::{
    open, seal, solve_sequential, Payload, Snapshot, SnapshotWriter, KIND_PREPARED_TREE,
    KIND_STORE, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use mpc_tree_dp::problems::MaxWeightIndependentSet;
use mpc_tree_dp::server::KIND_TENANT;
use mpc_tree_dp::{
    prepare, IncrementalSolver, ListOfEdges, MpcConfig, MpcContext, PreparedTree, Request,
    Response, ServerConfig, SnapshotError, SolvePlan, SolverStore, StateEngine, TenantSpec,
    TreeDpServer, TreeInput,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use tree_gen::labels::uniform_values;
use tree_gen::shapes::{self, balanced_kary, heavy_caterpillar, spider};
use tree_gen::standard_suite;
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
    assert_eq!(restored.clustering.root, prepared.clustering.root);
    assert_eq!(restored.clustering.num_nodes, prepared.clustering.num_nodes);
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

/// A plan travels as its view counts: linked from its tree's clustering under them,
/// it is the plan again, bit for bit, and solves like it.
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
    let counts = plan.view_counts();
    let restored = SolvePlan::link(&prepared.clustering, &prepared.aux_to_original, &counts)
        .expect("round trip");
    assert_eq!(restored, plan);
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
    let store: SolverStore<MaxIs> =
        SolverStore::from_snapshot(&bytes, &prepared).expect("round trip");
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

    // Wrong kind: a prepared-tree snapshot opened as a store.
    assert_eq!(
        SolverStore::<MaxIs>::from_snapshot(&good, &prepared).err(),
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
    let mut w = SnapshotWriter::new();
    w.put_u64(u64::MAX);
    w.put_u8(9);
    let framed = seal(KIND_PREPARED_TREE, w);
    assert!(PreparedTree::from_snapshot(&framed).is_err());

    // Sanity: the magic constant is what the header starts with.
    assert_eq!(&good[..8], SNAPSHOT_MAGIC.as_slice());
}

/// A plan's view counts claiming more buckets than the payload holds are refused as
/// malformed before anything is allocated by them: a store whose count table's
/// length prefix runs past the payload, and a tree claiming `u32::MAX` layers, whose
/// counts cannot cover `u32::MAX` layers of machines, before a machine's skeletons
/// are allocated.
#[test]
fn plan_payload_claiming_a_huge_layout_is_malformed_before_allocating() {
    let tree = spider(4, 6);
    let weights: Vec<i64> = (0..tree.len()).map(|_| 1).collect();
    let (_, prepared, _) = prepared_with_plan(&tree, &weights);

    let mut w = SnapshotWriter::new();
    w.put_usize(1 << 40); // view counts, then nothing
    assert_eq!(
        SolverStore::<MaxIs>::from_snapshot(&seal(KIND_STORE, w), &prepared).map(|_| ()),
        Err(SnapshotError::Malformed("length prefix exceeds buffer"))
    );

    let mut huge = prepared.clone();
    huge.clustering.num_layers = u32::MAX;
    assert_eq!(
        PreparedTree::from_snapshot(&huge.to_snapshot()).map(|_| ()),
        Err(SnapshotError::Malformed("plan view counts"))
    );
}

/// A tree snapshot writes its cached plan as its placement alone, one view count per
/// layer and machine: the plan's share of the tree's bytes per tree node stays below
/// the bounds on the shapes with the most layers and machines per node and on a path.
#[test]
fn plan_snapshots_stay_compact() {
    let n = 4096;
    for (name, tree, bound) in [
        ("star", shapes::star(n), 2.0),
        ("path", shapes::path(n), 2.0),
        ("caterpillar", shapes::caterpillar(n / 4, 3), 2.0),
    ] {
        let mut ctx = MpcContext::new(MpcConfig::new(2 * n, 0.5));
        let prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            None,
        )
        .expect("well-formed tree");
        let planless = prepared.to_snapshot().len();
        prepared.plan(&mut ctx);
        let share = prepared.to_snapshot().len() - planless;
        let per_node = share as f64 / tree.len() as f64;
        println!("{name}: {per_node:.2} plan snapshot bytes per tree node");
        assert!(
            per_node <= bound,
            "{name}: {per_node:.2} plan snapshot bytes per tree node, over {bound}"
        );
    }
}

/// A plan-less tree snapshot is checked too: a tree whose element table names an
/// absorbing cluster it does not hold, or two clusters absorbed into each other, is
/// refused as malformed, not decoded into a tree whose next plan build panics.
#[test]
fn planless_trees_with_a_broken_absorption_are_malformed() {
    let tree = heavy_caterpillar(12, 4);
    let mut ctx = MpcContext::new(cfg_for(tree.len()));
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        Some(4),
    )
    .expect("well-formed tree");
    assert!(!prepared.has_plan());
    assert!(PreparedTree::from_snapshot(&prepared.to_snapshot()).is_ok());
    let decode_with = |edit: &dyn Fn(&mut Element)| {
        let mut bad = prepared.clone();
        bad.clustering.elements = bad.clustering.elements.clone().map_local(|e| {
            let mut e = *e;
            edit(&mut e);
            e
        });
        PreparedTree::from_snapshot(&bad.to_snapshot()).map(|_| ())
    };

    // A leaf absorbed into a cluster that does not exist.
    let leaf = tree.len() as u64 - 1;
    let absent = |e: &mut Element| {
        if e.id == leaf {
            e.absorbed_into = make_cluster_id(e.absorbed_at, 1 << 40);
        }
    };
    assert_eq!(
        decode_with(&absent),
        Err(SnapshotError::Malformed("clustering absorbing cluster"))
    );

    // Two clusters absorbed into each other, each at the other's layer.
    let clusters: Vec<u64> = (prepared.clustering.elements.iter())
        .filter(|e| {
            matches!(
                e.kind,
                ElementKind::ClusterIndeg0 | ElementKind::ClusterIndeg1
            )
        })
        .map(|e| e.id)
        .take(2)
        .collect();
    let (a, b) = (clusters[0], clusters[1]);
    let cycle = |e: &mut Element| {
        let into = if e.id == a {
            b
        } else if e.id == b {
            a
        } else {
            return;
        };
        (e.absorbed_into, e.absorbed_at) = (into, cluster_layer(into));
    };
    assert_eq!(
        decode_with(&cycle),
        Err(SnapshotError::Malformed("clustering absorption layer"))
    );
}

/// Every auxiliary node takes its input from its `aux_to_original` record: a tree
/// snapshot whose table lost one record, or holds one for a node the clustering does
/// not, is refused as malformed, not decoded into a tree whose next solve panics on a
/// member without a payload.
#[test]
fn trees_whose_auxiliary_nodes_lack_their_records_are_malformed() {
    let tree = shapes::star(200);
    let mut ctx = MpcContext::new(cfg_for(tree.len()));
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        Some(4),
    )
    .expect("well-formed tree");
    let (first, _) = *prepared.aux_to_original.iter().next().expect("reduced");
    let malformed = Err(SnapshotError::Malformed("aux_to_original records"));
    let mut fewer = prepared.clone();
    fewer.aux_to_original = (fewer.aux_to_original.clone()).filter_local(|(aux, _)| *aux != first);
    assert_eq!(
        PreparedTree::from_snapshot(&fewer.to_snapshot()).map(|_| ()),
        malformed
    );
    let mut more = prepared.clone();
    more.aux_to_original = (more.aux_to_original.clone()).flat_map_local(|(aux, to)| {
        let extra = (aux == first).then_some((aux + (1 << 20), to));
        std::iter::once((aux, to)).chain(extra)
    });
    assert_eq!(
        PreparedTree::from_snapshot(&more.to_snapshot()).map(|_| ()),
        malformed
    );
}

/// No snapshot writes an edge kind, yet every kind a plan shows after a round trip is
/// the one the clustering's element table gives: each member's out-kind the kind of
/// the edge its own element leaves by, each indegree-1 view's in-kind that of its
/// cluster element's incoming edge. Checked on plan, store and tenant round trips over
/// the n = 4096 standard suite and a degree-reduced star and broom; a tree shows
/// auxiliary members exactly when degree reduction added auxiliary nodes.
#[test]
fn derived_edge_kinds_match_the_element_table_after_round_trips() {
    let n = 4096;
    let mut trees: Vec<(String, Tree, bool)> = standard_suite(n, 7)
        .into_iter()
        .map(|entry| (entry.name, entry.tree, false))
        .collect();
    trees.push(("star".to_string(), shapes::star(n), true));
    trees.push(("broom".to_string(), shapes::broom(n / 2, n / 2), true));
    let engine = MaxIs::new(MaxWeightIndependentSet);
    for (name, tree, degree_reduced) in trees {
        let config = cfg_for(tree.len());
        let input = || TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree));
        let weights: Vec<(u64, i64)> = (0..tree.len() as u64).map(|v| (v, 1)).collect();
        let mut ctx = MpcContext::new(config);
        let prepared = prepare(&mut ctx, input(), None).expect("well-formed tree");
        let has_aux = !prepared.aux_to_original.is_empty();
        assert!(has_aux || !degree_reduced, "{name}: nothing reduced");
        let inputs = ctx.from_vec(weights.clone());
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());

        // Plan round trip through its view counts, then a store over the linked plan.
        let counts = prepared.plan_uncached(&mut ctx).view_counts();
        let plan = SolvePlan::link(&prepared.clustering, &prepared.aux_to_original, &counts)
            .expect("plan links");
        let (_, store) = plan.solve_with_store(&mut ctx, &engine, &inputs, 0, &no_edges);
        let aux_members = kinds_against_elements(&prepared, &store, &format!("{name} plan"));
        assert_eq!(aux_members > 0, has_aux, "{name}");

        // Store round trip.
        let store =
            SolverStore::<MaxIs>::from_snapshot(&store.to_snapshot(), &prepared).expect("store");
        kinds_against_elements(&prepared, &store, &format!("{name} store"));

        // Tenant round trip: restored on a fresh server, snapshotted again, and read
        // back with the tree that travelled with it.
        let mut server = golden_server();
        let spec = TenantSpec {
            config,
            input: input(),
            threshold: None,
            problem: MaxIs::new(MaxWeightIndependentSet),
            node_inputs: weights,
            aux_input: 0,
            edge_inputs: Vec::new(),
        };
        server.admit("t", spec).expect("admission");
        let bytes = server.snapshot_tenant("t").expect("snapshot");
        let mut restored = golden_server();
        let id = restored
            .restore_tenant(&bytes, MaxIs::new(MaxWeightIndependentSet))
            .expect("restore");
        let bytes = restored.snapshot_tenant(&id).expect("snapshot");
        let mut r = open(&bytes, KIND_TENANT).expect("tenant snapshot");
        String::decode(&mut r).expect("id");
        MpcConfig::decode(&mut r).expect("config");
        let tenant_tree = PreparedTree::decode(&mut r).expect("tree");
        let store = SolverStore::<MaxIs>::decode(&mut r, &tenant_tree).expect("store");
        kinds_against_elements(&tenant_tree, &store, &format!("{name} tenant"));
    }
}

/// Check the kinds `store`'s plan shows against `prepared`'s element table (see
/// [`derived_edge_kinds_match_the_element_table_after_round_trips`]); the number of
/// members that leave by an auxiliary edge.
fn kinds_against_elements(
    prepared: &PreparedTree,
    store: &SolverStore<MaxIs>,
    case: &str,
) -> usize {
    let elements: BTreeMap<u64, Element> = prepared
        .clustering
        .elements
        .iter()
        .map(|e| (e.id, *e))
        .collect();
    let mut auxiliary = 0;
    for view in store.views() {
        let view = view.skeleton;
        for member in view.members() {
            let element = elements[&member.id()];
            let kind = EdgeKind::leaving(element.out_edge.child);
            assert_eq!(member.out_kind(), kind, "{case}: member {}", member.id());
            auxiliary += usize::from(kind == EdgeKind::Auxiliary);
        }
        if view.kind() == ElementKind::ClusterIndeg1 {
            let in_edge = elements[&view.cluster()]
                .in_edge
                .expect("indegree-1 cluster");
            let kind = EdgeKind::leaving(in_edge.child);
            assert_eq!(view.in_kind(), kind, "{case}: view {}", view.cluster());
        }
    }
    auxiliary
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
    use mpc_tree_dp::core::SnapshotReader;

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
    let tree = spider(3, 3);
    let (_, prepared, _) = prepared_with_plan(&tree, &vec![1; tree.len()]);
    assert!(SolverStore::<MaxIs>::from_snapshot(&framed, &prepared).is_err());
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
        .clone()
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
        SolverStore::from_snapshot(&store.to_snapshot(), &restored).expect("store round trip");
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

// ----- golden snapshots --------------------------------------------------------------

/// The FNV-1a-64 digest of every committed golden in `tests/snapshots/`, beside the
/// `(SNAPSHOT_VERSION, kind)` it was written under. Snapshots written under a kind hold
/// exactly these bytes, so a golden is never rewritten in place: a codec change that
/// breaks one bumps the kind and commits a new golden and pin.
const GOLDEN_PINS: [(u32, u32, u64); 3] = [
    (1, 10, 0x8d5cf84566bf3c11),
    (1, 12, 0x2321d1f8b32d4b9f),
    (1, 108, 0x027cd3d6f376dd47),
];

/// The golden fixture: the smallest tree whose snapshots carry every tag value —
/// each `ElementKind`, both `Payload` variants, `None` and `Some` — and members that
/// leave by edges of both `EdgeKind`s (an auxiliary node among them).
fn golden_tree() -> Tree {
    spider(3, 3)
}

fn golden_weight(v: u64) -> i64 {
    (v as i64 * 5) % 7 + 1
}

/// One golden kind: file stem, kind constant and its name, and the fixture's bytes
/// as the code encodes them today (what a missing golden is written from).
struct Golden {
    name: &'static str,
    kind: u32,
    kind_name: &'static str,
    fresh: Vec<u8>,
}

impl Golden {
    fn file(&self) -> String {
        format!("{}-v{SNAPSHOT_VERSION}-k{}.hex", self.name, self.kind)
    }

    fn pin_line(&self, bytes: &[u8]) -> String {
        format!(
            "    ({SNAPSHOT_VERSION}, {}, 0x{:016x}),\n",
            self.kind,
            fnv1a_64(bytes)
        )
    }

    /// Why a golden that no longer reads back fails the test, and what to do.
    fn broken(&self, what: impl std::fmt::Display) -> String {
        format!(
            "the {} golden ({} {}) {what}: {} snapshots on disk would no longer restore. \
             Revert the codec change, or bump {} and commit a golden under the new kind",
            self.name, self.kind_name, self.kind, self.name, self.kind_name
        )
    }

    /// Decode `bytes`, re-encode the value, and demand the same bytes back.
    fn round_trip<T, E: std::fmt::Display>(
        &self,
        bytes: &[u8],
        decode: impl FnOnce(&[u8]) -> Result<T, E>,
        encode: impl FnOnce(&T) -> Vec<u8>,
    ) -> T {
        let value = decode(bytes)
            .unwrap_or_else(|e| panic!("{}", self.broken(format!("no longer decodes ({e})"))));
        assert!(
            encode(&value) == bytes,
            "{}",
            self.broken("re-encodes to other bytes")
        );
        value
    }
}

/// The fixture's three snapshots: its prepared tree with the cached plan, a MaxIS
/// store, and a tenant that served two queries and one update.
fn golden_fixture() -> [Golden; 3] {
    let tree = golden_tree();
    let n = tree.len();
    let config = cfg_for(n);
    let input = || TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree));
    let weights: Vec<(u64, i64)> = (0..n as u64).map(|v| (v, golden_weight(v))).collect();
    let engine = MaxIs::new(MaxWeightIndependentSet);

    let mut ctx = MpcContext::new(config);
    let prepared = prepare(&mut ctx, input(), Some(2)).expect("well-formed tree");
    let inputs = ctx.from_vec(weights.clone());
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let (_, store) = (prepared.plan(&mut ctx).clone())
        .solve_with_store(&mut ctx, &engine, &inputs, 0, &no_edges);

    let mut server = golden_server();
    let spec = TenantSpec {
        config,
        input: input(),
        threshold: Some(2),
        problem: MaxIs::new(MaxWeightIndependentSet),
        node_inputs: weights.clone(),
        aux_input: 0,
        edge_inputs: Vec::new(),
    };
    server.admit("golden", spec).expect("admission");
    server.submit(
        "golden",
        Request::Update {
            node_updates: vec![(1, 9)],
            edge_updates: Vec::new(),
        },
    );
    for _ in 0..2 {
        server.submit(
            "golden",
            Request::Query {
                node_inputs: weights.clone(),
                edge_inputs: Vec::new(),
            },
        );
    }
    server.flush();
    let tenant = server.snapshot_tenant("golden").expect("snapshot");

    let golden = |name, kind, kind_name, fresh| Golden {
        name,
        kind,
        kind_name,
        fresh,
    };
    [
        golden(
            "tree",
            KIND_PREPARED_TREE,
            "KIND_PREPARED_TREE",
            prepared.to_snapshot(),
        ),
        golden("store", KIND_STORE, "KIND_STORE", store.to_snapshot()),
        golden("tenant", KIND_TENANT, "KIND_TENANT", tenant),
    ]
}

fn golden_server() -> TreeDpServer<MaxIs> {
    TreeDpServer::new(ServerConfig {
        plan_budget_words: 1 << 20,
    })
}

fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 32 bytes per line, so a golden diffs line by line.
fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::new();
    for line in bytes.chunks(32) {
        for b in line {
            out.push_str(&format!("{b:02x}"));
        }
        out.push('\n');
    }
    out
}

fn from_hex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| {
            let pair = std::str::from_utf8(pair).expect("ASCII hex");
            u8::from_str_radix(pair, 16).expect("hex digit pair")
        })
        .collect()
}

/// Bytes written yesterday still read today: every current kind's golden decodes and
/// re-encodes byte for byte, and the tenant golden, restored on a fresh server,
/// answers a query with the fixture's sequential optimum (which no clustering change
/// can move). A golden whose bytes no longer match its pin was rewritten under an
/// unchanged kind; a kind without a golden prints the golden and pin to commit.
#[test]
fn golden_snapshots_decode_and_re_encode_byte_for_byte() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/snapshots");
    let fixture = golden_fixture();

    // Only the current kinds have goldens and pins; a superseded kind's go with it.
    let current: Vec<String> = fixture.iter().map(Golden::file).collect();
    for entry in std::fs::read_dir(&dir).into_iter().flatten() {
        let file = entry.expect("readable entry").file_name();
        let file = file.to_string_lossy();
        assert!(
            current.iter().any(|c| *c == file),
            "tests/snapshots/{file} is no current kind's golden: delete it and its pin"
        );
    }
    for &(version, kind, _) in &GOLDEN_PINS {
        assert!(
            version == SNAPSHOT_VERSION && fixture.iter().any(|g| g.kind == kind),
            "GOLDEN_PINS names version {version}, kind {kind}, which no current kind is"
        );
    }

    // Every current kind needs a golden and its pin; list all that lack one at once.
    let mut goldens = Vec::new();
    let mut missing = String::new();
    for g in &fixture {
        let file = g.file();
        let Ok(text) = std::fs::read_to_string(dir.join(&file)) else {
            missing += &format!(
                "no golden for {} {}: commit tests/snapshots/{file}\n{}and pin it in \
                 GOLDEN_PINS with\n{}",
                g.kind_name,
                g.kind,
                to_hex(&g.fresh),
                g.pin_line(&g.fresh)
            );
            continue;
        };
        let bytes = from_hex(&text);
        match GOLDEN_PINS
            .iter()
            .find(|&&(v, k, _)| (v, k) == (SNAPSHOT_VERSION, g.kind))
        {
            None => {
                missing += &format!(
                    "no pin for tests/snapshots/{file}: add\n{}",
                    g.pin_line(&bytes)
                )
            }
            Some(&(_, _, digest)) => assert_eq!(
                fnv1a_64(&bytes),
                digest,
                "tests/snapshots/{file} was rewritten under an unchanged kind: {} snapshots \
                 already on disk hold the pinned bytes. Restore the file; if the codec must \
                 change, bump {} ({}) and commit a golden under the new kind",
                g.name,
                g.kind_name,
                g.kind
            ),
        }
        goldens.push(bytes);
    }
    assert!(missing.is_empty(), "{missing}");

    let [tree_g, store_g, tenant_g] = &fixture;
    let [tree_b, store_b, tenant_b] = &goldens[..] else {
        unreachable!("one golden per kind")
    };
    let tree = tree_g.round_trip(
        tree_b,
        PreparedTree::from_snapshot,
        PreparedTree::to_snapshot,
    );
    // The store golden was written for the tree golden's tree.
    let store = store_g.round_trip(
        store_b,
        |bytes| SolverStore::<MaxIs>::from_snapshot(bytes, &tree),
        SolverStore::to_snapshot,
    );
    let (mut server, id) = tenant_g.round_trip(
        tenant_b,
        |bytes| {
            let mut server = golden_server();
            let id = server.restore_tenant(bytes, MaxIs::new(MaxWeightIndependentSet))?;
            Ok::<_, mpc_tree_dp::ServerError>((server, id))
        },
        |(server, id)| server.snapshot_tenant(id).unwrap_or_default(),
    );
    let metrics = server.tenant_metrics(&id).expect("restored tenant");
    assert!(
        (metrics.queries, metrics.updates, metrics.structural) == (2, 1, 0),
        "{}",
        tenant_g.broken(format!("restores other counters ({metrics:?})"))
    );

    // The restored tenant answers with the fixture's sequential optimum.
    let fixture_tree = golden_tree();
    let engine = MaxIs::new(MaxWeightIndependentSet);
    let expected = solve_sequential(
        &engine,
        &fixture_tree.edges(),
        fixture_tree.root() as u64,
        golden_weight,
        |_| (EdgeKind::Original, ()),
    )
    .root_summary
    .best(engine.problem())
    .expect("optimum");
    server.submit(
        id.as_str(),
        Request::Query {
            node_inputs: (0..fixture_tree.len() as u64)
                .map(|v| (v, golden_weight(v)))
                .collect(),
            edge_inputs: Vec::new(),
        },
    );
    let answer = match server.flush().pop() {
        Some((_, Response::Solution(sol))) => sol.root_summary.best(engine.problem()),
        _ => None,
    };
    assert!(
        answer == Some(expected),
        "{}",
        tenant_g.broken(format!(
            "answers {answer:?} where the optimum is {expected}"
        ))
    );

    // Coverage: the goldens carry every tag value the codec writes, and edges of both
    // kinds.
    assert!(tree.has_plan(), "the tree golden carries its plan (Some)");
    let mut seen = std::collections::BTreeSet::new();
    for view in store.views() {
        seen.insert(format!("{:?}", view.skeleton.kind()));
        seen.insert(format!("attach {}", view.skeleton.attach().is_some()));
        for (i, member) in view.skeleton.members().iter().enumerate() {
            seen.insert(format!("{:?}", member.kind()));
            seen.insert(format!("{:?}", member.out_kind()));
            seen.insert(format!("parent {}", member.parent().is_some()));
            // A member has an incoming edge exactly when it is an indegree-1 cluster.
            let in_edge = member.kind() == ElementKind::ClusterIndeg1;
            seen.insert(format!("in_edge {in_edge}"));
            seen.insert(
                match view.payload(i) {
                    Payload::Input(_) => "Input",
                    Payload::Summary(_) => "Summary",
                }
                .to_string(),
            );
        }
    }
    for tag in [
        "Node",
        "ClusterIndeg0",
        "ClusterIndeg1",
        "TopCluster",
        "Original",
        "Auxiliary",
        "Input",
        "Summary",
        "attach false",
        "attach true",
        "parent false",
        "parent true",
        "in_edge false",
        "in_edge true",
    ] {
        assert!(
            seen.contains(tag),
            "the golden fixture no longer carries `{tag}` (saw {seen:?}): pick a fixture \
             that does"
        );
    }
}
