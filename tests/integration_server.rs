//! Serving-layer integration gate, run entirely under `MpcConfig` strict accounting:
//! eight-plus tenants, each answering from the one plan its solver holds, with the
//! three acceptance properties asserted end to end —
//!
//! 1. a query charges exactly the plan-evaluation rounds (equal to a bare
//!    `SolvePlan::solve` on a fresh plan, asserted round-for-round),
//! 2. no flush after admission charges a `plan-build` round unless its structural
//!    batch degrades,
//! 3. snapshot → kill → restore → serve is bit-identical to a server that never
//!    stopped, and the restored tenant's first query charges no more than it would
//!    have on the unbroken server.

use mpc_tree_dp::problems::MaxWeightIndependentSet;
use mpc_tree_dp::server::KIND_TENANT;
use mpc_tree_dp::{
    prepare, ListOfEdges, MpcConfig, MpcContext, PreparedTree, Request, Response, ServerConfig,
    ServerError, Snapshot, SnapshotError, SolverStore, StateEngine, TenantSpec, TreeDpServer,
    TreeInput,
};
use std::collections::BTreeMap;
use tree_gen::shapes::{balanced_kary, heavy_caterpillar, spider, star};
use tree_repr::Tree;

type MaxIs = StateEngine<MaxWeightIndependentSet>;
type Server = TreeDpServer<MaxIs>;

/// Same slack as the strict conformance gate: covers the implementation's constant
/// factors while still tripping on any Ω(n^δ)-factor regression.
const SLACK: f64 = 64.0;

fn strict_cfg(input_words: usize) -> MpcConfig {
    MpcConfig::new(input_words, 0.5)
        .with_memory_slack(SLACK)
        .with_bandwidth_slack(SLACK)
        .with_strict(true)
}

/// A varied fleet of small tenant trees (different shapes stress different plan and
/// clustering layouts).
fn tenant_tree(i: usize) -> Tree {
    match i % 4 {
        0 => heavy_caterpillar(10 + i, 5 + i / 2),
        1 => spider(4 + i / 3, 8 + i),
        2 => balanced_kary(40 + 7 * i, 2 + i % 3),
        _ => star(30 + 5 * i),
    }
}

fn weights_for(n: usize, seed: u64) -> Vec<(u64, i64)> {
    (0..n)
        .map(|v| (v as u64, ((v as u64 * 31 + seed * 17) % 97) as i64))
        .collect()
}

fn spec_for(i: usize) -> TenantSpec<MaxIs> {
    let tree = tenant_tree(i);
    let n = tree.len();
    TenantSpec {
        config: strict_cfg(4 * n),
        input: TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        threshold: Some(4),
        problem: MaxIs::new(MaxWeightIndependentSet),
        node_inputs: weights_for(n, i as u64),
        aux_input: 0,
        edge_inputs: Vec::new(),
    }
}

/// Ground truth for one ad-hoc query: prepare + planned solve on a fresh strict
/// context, far away from any server.
fn mirror_solve(tree: &Tree, weights: &[(u64, i64)]) -> (i64, BTreeMap<u64, usize>) {
    let mut ctx = MpcContext::new(strict_cfg(4 * tree.len()));
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
        Some(4),
    )
    .expect("well-formed tenant tree");
    let engine = MaxIs::new(MaxWeightIndependentSet);
    let inputs = ctx.from_vec(weights.to_vec());
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let sol = prepared.solve(&mut ctx, &engine, &inputs, 0, &no_edges);
    ctx.check_compliance()
        .expect("mirror solve stays compliant");
    let best = sol.root_summary.best(engine.problem()).expect("optimum");
    (best, sol.labels.iter().cloned().collect())
}

fn expect_solution(resp: &Response<MaxIs>) -> (i64, BTreeMap<u64, usize>) {
    match resp {
        Response::Solution(sol) => {
            let best = sol
                .root_summary
                .best(&MaxWeightIndependentSet)
                .expect("optimum");
            (best, sol.labels.iter().cloned().collect())
        }
        Response::Update(_) => panic!("expected a solution, got update stats"),
        Response::Structural(_) => panic!("expected a solution, got structural stats"),
        Response::Rejected(e) => panic!("expected a solution, got rejection: {e}"),
    }
}

/// The tenant's tree and solver store, as its snapshot carries them.
fn tenant_parts(server: &Server, id: &str) -> (PreparedTree, SolverStore<MaxIs>) {
    let bytes = server.snapshot_tenant(id).expect("snapshot");
    let mut r = mpc_tree_dp::core::open(&bytes, KIND_TENANT).expect("tenant snapshot");
    String::decode(&mut r).expect("id");
    MpcConfig::decode(&mut r).expect("config");
    let tree = PreparedTree::decode(&mut r).expect("tree");
    let store = SolverStore::decode(&mut r).expect("store");
    (tree, store)
}

fn expect_update(resp: &Response<MaxIs>) -> mpc_tree_dp::UpdateStats {
    match resp {
        Response::Update(stats) => *stats,
        Response::Solution(_) => panic!("expected update stats, got a solution"),
        Response::Structural(_) => panic!("expected update stats, got structural stats"),
        Response::Rejected(e) => panic!("expected update stats, got rejection: {e}"),
    }
}

/// Acceptance property: ≥8 tenants, mixed query/update traffic batched per flush,
/// every answer bit-identical to an isolated mirror solve, every tenant context
/// strict-compliant at the end, and every tenant resident with exactly one plan.
#[test]
fn eight_tenants_serve_under_strict_accounting() {
    const TENANTS: usize = 8;
    let mut server = Server::new(ServerConfig {
        plan_budget_words: 4 << 20,
    });

    for i in 0..TENANTS {
        let report = server
            .admit(format!("tenant-{i}"), spec_for(i))
            .expect("admission succeeds");
        assert!(report.prepare_rounds > 0, "prepare charges rounds");
        assert!(report.plan_build_rounds > 0, "plan build charges rounds");
        assert!(report.solve_rounds > 0, "initial solve charges rounds");
    }
    assert_eq!(server.num_tenants(), TENANTS);
    assert_eq!(server.tenant_ids().len(), TENANTS);
    assert_eq!(
        server.admit("tenant-0", spec_for(0)).err(),
        Some(ServerError::DuplicateTenant("tenant-0".into()))
    );

    // One ad-hoc query (fresh weights) and one persistent update per tenant,
    // all in a single flush.
    for i in 0..TENANTS {
        let n = tenant_tree(i).len();
        server.submit(
            format!("tenant-{i}"),
            Request::Query {
                node_inputs: weights_for(n, 1000 + i as u64),
                edge_inputs: Vec::new(),
            },
        );
        server.submit(
            format!("tenant-{i}"),
            Request::Update {
                node_updates: vec![(0, 500 + i as i64), (n as u64 - 1, 0)],
                edge_updates: Vec::new(),
            },
        );
    }
    assert_eq!(server.pending_requests(), 2 * TENANTS);
    let responses = server.flush();
    assert_eq!(server.pending_requests(), 0);
    assert_eq!(responses.len(), 2 * TENANTS);

    for i in 0..TENANTS {
        let id = format!("tenant-{i}");
        let tree = tenant_tree(i);
        let n = tree.len();

        // The query answer matches an isolated solve of the same instance.
        let (got_best, got_labels) = expect_solution(&responses[2 * i].1);
        let (want_best, want_labels) = mirror_solve(&tree, &weights_for(n, 1000 + i as u64));
        assert_eq!(got_best, want_best, "{id}: query optimum");
        assert_eq!(got_labels, want_labels, "{id}: query labels");

        // The update folded into the persistent state: the tenant's incremental
        // root summary now matches a from-scratch solve of the updated weights.
        let stats = expect_update(&responses[2 * i + 1].1);
        assert_eq!(stats.batch_size, 2);
        let mut updated = weights_for(n, i as u64);
        updated[0].1 = 500 + i as i64;
        updated[n - 1].1 = 0;
        let (want_best, want_labels) = mirror_solve(&tree, &updated);
        let summary = server.root_summary(&id).expect("tenant exists");
        assert_eq!(
            summary.best(&MaxWeightIndependentSet),
            Some(want_best),
            "{id}: incremental optimum after update"
        );
        assert_eq!(
            server.labels(&id).expect("tenant exists"),
            &want_labels,
            "{id}: incremental labels after update"
        );

        // Strict compliance per tenant, and serving counters in place.
        server
            .context(&id)
            .expect("tenant exists")
            .check_compliance()
            .unwrap_or_else(|v| panic!("{id}: strict violation: {v}"));
        let m = server.tenant_metrics(&id).expect("tenant exists");
        assert_eq!(m.queries, 1);
        assert_eq!(m.updates, 1);
        assert!(m.rounds_charged > 0);
        assert!(m.words_sent > 0);

        // Resident: the tree, without a cached plan, and the store with the plan.
        let (tree, store) = tenant_parts(&server, &id);
        assert!(!tree.has_plan(), "{id}: the tree holds no second plan");
        assert!(store.plan().resident_words() > 0);
        assert_eq!(
            m.resident_bytes,
            8 * (tree.resident_words() + store.resident_words()),
            "{id}: resident bytes count one plan"
        );
    }

    // Server-wide view: one plan per tenant, every query answered from it.
    let cs = server.cache_stats();
    assert_eq!(cs.resident_plans, TENANTS);
    assert_eq!(cs.hits, TENANTS as u64);
    assert_eq!((cs.misses, cs.evictions, cs.build_rounds), (0, 0, 0));
    assert_eq!(cs.budget_words, 4 << 20);
}

/// Acceptance property (a): serving a query charges exactly the rounds of a bare
/// `SolvePlan::solve` over an already-built plan — the assembly paid at admission
/// is never re-charged.
#[test]
fn warm_hit_charges_exactly_plan_eval_rounds() {
    let tree = heavy_caterpillar(16, 8);
    let n = tree.len();

    // Bare-metal reference: fresh plan on its own strict context, one solve.
    let mut ctx = MpcContext::new(strict_cfg(4 * n));
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        Some(4),
    )
    .expect("well-formed tree");
    let plan = prepared.plan_uncached(&mut ctx);
    let engine = MaxIs::new(MaxWeightIndependentSet);
    let inputs = ctx.from_vec(weights_for(n, 42));
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let before = ctx.metrics().rounds;
    let _ = plan.solve(&mut ctx, &engine, &inputs, 0, &no_edges);
    let bare_eval_rounds = ctx.metrics().rounds - before;

    // Server path: admit (builds the plan), then flush one identical query.
    let mut server = Server::new(ServerConfig {
        plan_budget_words: 1 << 20,
    });
    let mut spec = spec_for(0);
    spec.config = strict_cfg(4 * n);
    spec.input = TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree));
    spec.node_inputs = weights_for(n, 0);
    server.admit("hot", spec).expect("admission succeeds");
    let before = server.context("hot").expect("tenant").metrics().rounds;
    server.submit(
        "hot",
        Request::Query {
            node_inputs: weights_for(n, 42),
            edge_inputs: Vec::new(),
        },
    );
    let responses = server.flush();
    let served_rounds = server.context("hot").expect("tenant").metrics().rounds - before;

    assert_eq!(responses.len(), 1);
    let (best, _) = expect_solution(&responses[0].1);
    assert_eq!(best, mirror_solve(&tree, &weights_for(n, 42)).0);
    assert_eq!(
        served_rounds, bare_eval_rounds,
        "a query must cost exactly the bare plan-eval rounds"
    );
    assert_eq!(server.tenant_metrics("hot").expect("tenant").queries, 1);
}

/// Acceptance property (c): snapshot → kill → restore → serve produces bit-identical
/// responses to a server that never stopped, and the restored tenant's first flush
/// charges exactly what the unbroken server's does: plan evaluation and the update,
/// no plan build.
#[test]
fn snapshot_kill_restore_serves_bit_identically() {
    let tree = spider(5, 9);
    let n = tree.len();
    let make_spec = || TenantSpec {
        config: strict_cfg(4 * n),
        input: TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        threshold: Some(4),
        problem: MaxIs::new(MaxWeightIndependentSet),
        node_inputs: weights_for(n, 3),
        aux_input: 0,
        edge_inputs: Vec::new(),
    };
    let cfg = ServerConfig {
        plan_budget_words: 1 << 20,
    };

    // `steady` never stops; `doomed` gets snapshotted and killed mid-life.
    let mut steady = Server::new(cfg);
    let mut doomed = Server::new(cfg);
    steady.admit("alpha", make_spec()).expect("admission");
    doomed.admit("alpha", make_spec()).expect("admission");
    for server in [&mut steady, &mut doomed] {
        server.submit(
            "alpha",
            Request::Update {
                node_updates: vec![(1, 400), (5, 0), (n as u64 - 2, 63)],
                edge_updates: Vec::new(),
            },
        );
        server.flush();
    }

    let bytes = doomed.snapshot_tenant("alpha").expect("snapshot");
    assert_eq!(
        doomed.snapshot_tenant("ghost").err(),
        Some(ServerError::UnknownTenant("ghost".into()))
    );
    drop(doomed); // the kill

    // Restore onto a brand-new server.
    let mut revived = Server::new(cfg);
    let id = revived
        .restore_tenant(&bytes, MaxIs::new(MaxWeightIndependentSet))
        .expect("restore");
    assert_eq!(id, "alpha");
    assert_eq!(revived.num_tenants(), 1);
    assert_eq!(
        revived
            .restore_tenant(&bytes, MaxIs::new(MaxWeightIndependentSet))
            .err(),
        Some(ServerError::DuplicateTenant("alpha".into()))
    );

    // The restored incremental state is bit-identical to the unbroken server's.
    assert_eq!(revived.root_summary("alpha"), steady.root_summary("alpha"));
    assert_eq!(revived.labels("alpha"), steady.labels("alpha"));

    // Identical traffic into both servers: responses must match bit for bit.
    for server in [&mut steady, &mut revived] {
        server.submit(
            "alpha",
            Request::Query {
                node_inputs: weights_for(n, 9000),
                edge_inputs: Vec::new(),
            },
        );
        server.submit(
            "alpha",
            Request::Update {
                node_updates: vec![(0, 1), (2, 999)],
                edge_updates: Vec::new(),
            },
        );
    }
    let rounds = |server: &Server| server.context("alpha").expect("tenant").metrics().rounds;
    let steady_before = rounds(&steady);
    let steady_resp = steady.flush();
    let steady_rounds = rounds(&steady) - steady_before;
    let revived_resp = revived.flush();
    let revived_rounds = rounds(&revived);
    assert_eq!(
        expect_solution(&steady_resp[0].1),
        expect_solution(&revived_resp[0].1)
    );
    let (su, ru) = (
        expect_update(&steady_resp[1].1),
        expect_update(&revived_resp[1].1),
    );
    assert_eq!(su.batch_size, ru.batch_size);
    assert_eq!(su.resummarized, ru.resummarized);
    assert_eq!(su.summaries_changed, ru.summaries_changed);
    assert_eq!(su.relabeled, ru.relabeled);
    assert_eq!(su.labels_changed, ru.labels_changed);
    assert_eq!(su.rounds, ru.rounds);
    assert_eq!(su.words_sent, ru.words_sent);
    assert_eq!(steady.root_summary("alpha"), revived.root_summary("alpha"));
    assert_eq!(steady.labels("alpha"), revived.labels("alpha"));

    // The restored tenant came back with its plan: its context is new, so these are
    // all the rounds it has charged.
    assert_eq!(revived_rounds, steady_rounds);
    let revived_ctx = revived.context("alpha").expect("tenant");
    assert_eq!(revived_ctx.metrics().phase_rounds("plan-build"), 0);
    revived
        .context("alpha")
        .expect("tenant")
        .check_compliance()
        .expect("restored tenant stays strict-compliant");

    // Tenant snapshots ride the same hardened codec: corruption is an error, and
    // the payload kind is the serving layer's own.
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 1;
    assert_eq!(
        Server::new(cfg)
            .restore_tenant(&corrupt, MaxIs::new(MaxWeightIndependentSet))
            .err(),
        Some(ServerError::Snapshot(SnapshotError::ChecksumMismatch))
    );
    assert!(mpc_tree_dp::core::open(&bytes, KIND_TENANT).is_ok());
}

/// Request-routing edges: unknown tenants are rejected per request, and removing a
/// tenant drops its queued traffic along with its plan.
#[test]
fn unknown_and_removed_tenants_are_rejected_cleanly() {
    let mut server = Server::new(ServerConfig {
        plan_budget_words: 1 << 20,
    });
    server.admit("real", spec_for(1)).expect("admission");

    server.submit(
        "phantom",
        Request::Query {
            node_inputs: Vec::new(),
            edge_inputs: Vec::new(),
        },
    );
    server.submit(
        "real",
        Request::Update {
            node_updates: vec![(0, 7)],
            edge_updates: Vec::new(),
        },
    );
    let responses = server.flush();
    assert_eq!(responses.len(), 2);
    match &responses[0].1 {
        Response::Rejected(ServerError::UnknownTenant(id)) => assert_eq!(id, "phantom"),
        _ => panic!("expected an unknown-tenant rejection"),
    }
    let stats = expect_update(&responses[1].1);
    assert_eq!(stats.batch_size, 1);

    // Removal drops the tenant, its plan, and its queued requests.
    server.submit(
        "real",
        Request::Query {
            node_inputs: Vec::new(),
            edge_inputs: Vec::new(),
        },
    );
    assert_eq!(server.pending_requests(), 1);
    assert!(server.remove_tenant("real"));
    assert!(!server.remove_tenant("real"));
    assert_eq!(server.pending_requests(), 0);
    assert_eq!(server.num_tenants(), 0);
    assert_eq!(server.cache_stats().resident_plans, 0);
    assert!(server.tenant_metrics("real").is_none());
    assert!(server.root_summary("real").is_none());
    assert!(server.labels("real").is_none());
    assert!(server.context("real").is_none());
}

/// One invalid structural request must not take the flush's other structural requests
/// down with it: each request is judged against the tree as the requests accepted
/// before it leave it, the offender alone is rejected, and the tenant ends where a
/// fresh solve of the tree with only the accepted batches applied ends.
#[test]
fn invalid_structural_request_is_rejected_alone() {
    use mpc_tree_dp::clustering::RepairError;
    use mpc_tree_dp::{StructuralBatch, StructuralError};
    use tree_repr::DirectedEdge;

    let tree = balanced_kary(40, 3);
    let n = tree.len();
    let weights = weights_for(n, 3);
    let mut server = Server::new(ServerConfig {
        plan_budget_words: 1 << 20,
    });
    server
        .admit(
            "t",
            TenantSpec {
                config: strict_cfg(4 * n),
                input: TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
                threshold: Some(4),
                problem: MaxIs::new(MaxWeightIndependentSet),
                node_inputs: weights.clone(),
                aux_input: 0,
                edge_inputs: Vec::new(),
            },
        )
        .expect("admission");

    // valid · invalid (its first op alone would be fine) · valid, building on the
    // first · invalid only because the second was rejected.
    server.submit(
        "t",
        Request::Structural(StructuralBatch::new().link(5, 1000, 7, ())),
    );
    server.submit(
        "t",
        Request::Structural(StructuralBatch::new().link(1000, 1001, 4, ()).cut(0)),
    );
    server.submit(
        "t",
        Request::Structural(StructuralBatch::new().link(1000, 1002, 9, ()).cut(12)),
    );
    server.submit(
        "t",
        Request::Structural(StructuralBatch::new().link(1001, 1003, 2, ())),
    );
    let responses = server.flush();
    assert_eq!(responses.len(), 4);
    let stats = |i: usize| match &responses[i].1 {
        Response::Structural(s) => *s,
        Response::Rejected(e) => panic!("request {i} rejected: {e}"),
        _ => panic!("request {i}: expected structural stats"),
    };
    let rejection = |i: usize| match &responses[i].1 {
        Response::Rejected(ServerError::Structural(StructuralError::Invalid(e))) => *e,
        _ => panic!("request {i}: expected a structural rejection"),
    };
    // The two accepted requests folded into one three-op batch and share its stats.
    assert_eq!(stats(0).batch_size, 3);
    assert_eq!(stats(2).batch_size, 3);
    assert_eq!(stats(0).rounds, stats(2).rounds);
    assert!(!stats(0).degraded);
    assert_eq!(rejection(1), RepairError::CutRoot);
    assert_eq!(rejection(3), RepairError::UnknownParent(1001));
    assert_eq!(server.tenant_metrics("t").expect("tenant").structural, 2);

    // Ground truth: the original tree with only the two accepted batches applied.
    let cut: std::collections::BTreeSet<u64> = {
        let mut gone = std::collections::BTreeSet::from([12u64]);
        for v in 13..n {
            if gone.contains(&(tree.parent(v).expect("non-root") as u64)) {
                gone.insert(v as u64);
            }
        }
        gone
    };
    let mut edges: Vec<DirectedEdge> = (1..n)
        .filter(|v| !cut.contains(&(*v as u64)))
        .map(|v| DirectedEdge::new(v as u64, tree.parent(v).expect("non-root") as u64))
        .collect();
    edges.push(DirectedEdge::new(1000, 5));
    edges.push(DirectedEdge::new(1002, 1000));
    let mut inputs: Vec<(u64, i64)> = weights
        .into_iter()
        .filter(|(v, _)| !cut.contains(v))
        .collect();
    inputs.extend([(1000, 7), (1002, 9)]);

    let mut ctx = MpcContext::new(strict_cfg(4 * n));
    let fresh = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges(edges)),
        Some(4),
    )
    .expect("mutated tree stays well-formed");
    let engine = MaxIs::new(MaxWeightIndependentSet);
    let inputs = ctx.from_vec(inputs);
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let sol = fresh.solve(&mut ctx, &engine, &inputs, 0, &no_edges);
    let want_labels: BTreeMap<u64, usize> = sol.labels.iter().cloned().collect();
    assert_eq!(server.labels("t").expect("tenant"), &want_labels);
    assert_eq!(server.root_summary("t").expect("tenant"), &sol.root_summary);
    server
        .context("t")
        .expect("tenant")
        .check_compliance()
        .unwrap_or_else(|v| panic!("strict violation: {v}"));
}

/// A query that leaves one original node without an input used to panic the
/// evaluation pass and lose every response of the flush. It is rejected alone: its
/// neighbours — the same tenant's and another tenant's — are answered exactly as in
/// a flush without it, and the tenant's counters record no query for it.
#[test]
fn incomplete_query_is_rejected_alone() {
    let query = |weights: Vec<(u64, i64)>| Request::Query {
        node_inputs: weights,
        edge_inputs: Vec::new(),
    };
    // Answers and tenant counters of one flush over two fresh tenants, with or
    // without the offending query between the valid ones.
    let run = |with_offender: bool| {
        let mut server = Server::new(ServerConfig {
            plan_budget_words: 4 << 20,
        });
        for i in 0..2 {
            server
                .admit(format!("tenant-{i}"), spec_for(i))
                .expect("admission succeeds");
        }
        let n0 = tenant_tree(0).len();
        let n1 = tenant_tree(1).len();
        server.submit("tenant-0", query(weights_for(n0, 5)));
        if with_offender {
            let mut short = weights_for(n0, 6);
            short.pop();
            // An id the tree does not hold does not stand in for the missing node.
            short.push((n0 as u64 + 1000, 3));
            server.submit("tenant-0", query(short));
        }
        server.submit("tenant-1", query(weights_for(n1, 7)));
        server.submit("tenant-0", query(weights_for(n0, 8)));
        let responses = server.flush();
        let metrics: Vec<_> = (0..2)
            .map(|i| {
                let m = server
                    .tenant_metrics(&format!("tenant-{i}"))
                    .expect("tenant");
                (m.queries, m.rounds_charged)
            })
            .collect();
        (responses, metrics, n0)
    };

    let (clean, clean_metrics, _) = run(false);
    let (mut mixed, mixed_metrics, n0) = run(true);
    assert_eq!(mixed.len(), clean.len() + 1);
    let (id, offender) = mixed.remove(1);
    assert_eq!(id, "tenant-0");
    match offender {
        Response::Rejected(ServerError::InvalidQuery { missing }) => {
            assert_eq!(missing, n0 as u64 - 1)
        }
        Response::Rejected(e) => panic!("wrong rejection: {e}"),
        _ => panic!("the incomplete query must be rejected"),
    }
    for ((id_a, a), (id_b, b)) in clean.iter().zip(&mixed) {
        assert_eq!(id_a, id_b);
        assert_eq!(expect_solution(a), expect_solution(b), "{id_a}");
    }
    assert_eq!(clean_metrics, mixed_metrics);
}

/// The plan a tenant admitted with `tree` (threshold 4, `strict_cfg(4n)`) gets.
fn fresh_plan(tree: &Tree) -> mpc_tree_dp::SolvePlan {
    let mut ctx = MpcContext::new(strict_cfg(4 * tree.len()));
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
        Some(4),
    )
    .expect("well-formed tree");
    prepared.plan_uncached(&mut ctx)
}

/// A tenant snapshot whose checksum is valid says nothing about the indexes inside it:
/// one index out of place, a store that belongs to another tree or machine count, or
/// the superseded payload kind must each come back from `restore_tenant` as a typed
/// `ServerError::Snapshot` — not as a tenant that panics on its next update.
#[test]
fn resealed_tenant_snapshots_with_one_field_out_of_place_are_refused() {
    use mpc_tree_dp::core::{seal, SnapshotWriter};

    let tree = spider(5, 9);
    let n = tree.len();
    let cfg = ServerConfig {
        plan_budget_words: 1 << 20,
    };
    let mut server = Server::new(cfg);
    server
        .admit(
            "alpha",
            TenantSpec {
                config: strict_cfg(4 * n),
                input: TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
                threshold: Some(4),
                problem: MaxIs::new(MaxWeightIndependentSet),
                node_inputs: weights_for(n, 3),
                aux_input: 0,
                edge_inputs: Vec::new(),
            },
        )
        .expect("admission");
    let good = server.snapshot_tenant("alpha").expect("snapshot");
    let restore = |bytes: &[u8]| {
        Server::new(cfg)
            .restore_tenant(bytes, MaxIs::new(MaxWeightIndependentSet))
            .err()
    };
    assert_eq!(restore(&good), None);

    // Re-seal the payload (header is 32 bytes) under `kind` after `edit`.
    let reseal = |kind: u32, edit: &dyn Fn(&mut Vec<u8>)| {
        let mut payload = good[32..].to_vec();
        edit(&mut payload);
        let mut w = SnapshotWriter::new();
        w.put_bytes(&payload);
        seal(kind, w)
    };
    let malformed = |bytes: &[u8]| {
        matches!(
            restore(bytes),
            Some(ServerError::Snapshot(SnapshotError::Malformed(_)))
        )
    };

    // The store's plan opens with `num_layers: u32`, `num_machines`, `root`,
    // `top_cluster`, `top_machine` (u64 each); the tenant's tree travels without a
    // cached plan, so the first such run of bytes is the store's.
    let header = fresh_plan(&tree).to_snapshot()[32..60].to_vec();
    let plan_at = good[32..]
        .windows(header.len())
        .position(|w| w == header)
        .expect("the store's plan is in the payload");
    let bump = |payload: &mut Vec<u8>, at: usize, by: u64| {
        let mut field = [0u8; 8];
        field.copy_from_slice(&payload[at..at + 8]);
        let value = u64::from_le_bytes(field).wrapping_add(by);
        payload[at..at + 8].copy_from_slice(&value.to_le_bytes());
    };

    // One index of the plan: `top_machine` past the last machine.
    assert!(malformed(&reseal(KIND_TENANT, &|p| bump(
        p,
        plan_at + 28,
        1 << 40
    ))));
    // A store that is sound but is not this tree's: another root.
    assert!(malformed(&reseal(KIND_TENANT, &|p| bump(
        p,
        plan_at + 12,
        1
    ))));
    // A config for another machine count: `n` is the config's first field, right
    // behind the id string (length prefix + "alpha").
    assert!(malformed(&reseal(KIND_TENANT, &|p| bump(
        p,
        8 + "alpha".len(),
        1 << 20
    ))));
    // The payload kinds tenants were written under before the store changed shape
    // (101), before plans stopped carrying their routing indexes (102), before the
    // config lost its radix switch (103), and before the metrics lost their
    // plan-cache counters (104).
    for old in [101, 102, 103, 104] {
        assert_eq!(
            restore(&reseal(old, &|_| ())),
            Some(ServerError::Snapshot(SnapshotError::WrongKind {
                found: old,
                expected: KIND_TENANT
            }))
        );
    }
}

/// The server writes a tenant's tree without a cached plan: the tenant's one plan is
/// its solver store's. A snapshot whose tree does carry one — here built for another
/// machine count — is refused, not restored as a tenant holding a second plan.
#[test]
fn tenant_snapshot_whose_tree_carries_a_plan_is_refused() {
    use mpc_tree_dp::core::{seal, SnapshotWriter};

    let tree = spider(5, 9);
    let n = tree.len();
    let cfg = ServerConfig {
        plan_budget_words: 1 << 20,
    };
    let mut server = Server::new(cfg);
    server
        .admit(
            "alpha",
            TenantSpec {
                config: strict_cfg(4 * n),
                input: TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
                threshold: Some(4),
                problem: MaxIs::new(MaxWeightIndependentSet),
                node_inputs: weights_for(n, 3),
                aux_input: 0,
                edge_inputs: Vec::new(),
            },
        )
        .expect("admission");
    let good = server.snapshot_tenant("alpha").expect("snapshot");

    // The tenant's tree as admission prepared it, then with a plan of its own.
    let mut ctx = MpcContext::new(strict_cfg(4 * n));
    let prepared = prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        Some(4),
    )
    .expect("well-formed tree");
    let plan_less = prepared.to_snapshot()[32..].to_vec();
    let mut wide = MpcContext::new(strict_cfg(64 * n));
    assert_ne!(wide.config().num_machines(), ctx.config().num_machines());
    prepared.plan(&mut wide);
    let mut payload = good[32..].to_vec();
    let at = payload
        .windows(plan_less.len())
        .position(|w| w == plan_less)
        .expect("the tenant's tree is in the payload");
    payload.splice(
        at..at + plan_less.len(),
        prepared.to_snapshot()[32..].to_vec(),
    );
    let mut w = SnapshotWriter::new();
    w.put_bytes(&payload);
    assert_eq!(
        Server::new(cfg)
            .restore_tenant(&seal(KIND_TENANT, w), MaxIs::new(MaxWeightIndependentSet))
            .err(),
        Some(ServerError::Snapshot(SnapshotError::Malformed(
            "tenant tree with a cached plan"
        )))
    );
}

/// A tenant's tree is laid out on the tenant's own machines: local structural repairs
/// splice its tables in place there. A snapshot whose plan-less tree was prepared for
/// another machine count — its auxiliary nodes name chunks past the tenant's last
/// machine — is refused, not restored. (Non-strict configs: under strict accounting
/// admitting `star(200)` on 29 machines already trips the memory cap.)
#[test]
fn tenant_snapshot_whose_tree_spans_another_machine_count_is_refused() {
    use mpc_tree_dp::core::{seal, SnapshotWriter};

    let tree = star(200);
    let own_cfg = MpcConfig::new(800, 0.5);
    let cfg = ServerConfig {
        plan_budget_words: 1 << 20,
    };
    let mut server = Server::new(cfg);
    server
        .admit(
            "alpha",
            TenantSpec {
                config: own_cfg,
                input: TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
                threshold: Some(4),
                problem: MaxIs::new(MaxWeightIndependentSet),
                node_inputs: weights_for(tree.len(), 3),
                aux_input: 0,
                edge_inputs: Vec::new(),
            },
        )
        .expect("admission");
    let good = server.snapshot_tenant("alpha").expect("snapshot");

    // The tenant's tree as admission prepared it, and the same tree prepared on
    // another machine count.
    let tree_of = |config: MpcConfig| {
        let mut ctx = MpcContext::new(config);
        prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            Some(4),
        )
        .expect("well-formed tree")
        .to_snapshot()[32..]
            .to_vec()
    };
    let wide_cfg = MpcConfig::new(12800, 0.5);
    assert_ne!(wide_cfg.num_machines(), own_cfg.num_machines());
    let own = tree_of(own_cfg);
    let mut payload = good[32..].to_vec();
    let at = payload
        .windows(own.len())
        .position(|w| w == own)
        .expect("the tenant's tree is in the payload");
    payload.splice(at..at + own.len(), tree_of(wide_cfg));
    let mut w = SnapshotWriter::new();
    w.put_bytes(&payload);
    assert_eq!(
        Server::new(cfg)
            .restore_tenant(&seal(KIND_TENANT, w), MaxIs::new(MaxWeightIndependentSet))
            .err(),
        Some(ServerError::Snapshot(SnapshotError::Malformed(
            "tenant tree of another machine count"
        )))
    );
}

/// The solver's store holds the tenant's plan: after admission, no flush of queries,
/// weight updates or locally repaired structural batches charges a `plan-build`
/// round. Only a batch that degrades does — its re-prepare builds the plan of the new
/// tree — and the flushes after it are back to none.
#[test]
fn no_flush_after_admission_rebuilds_the_plan_unless_it_degrades() {
    use mpc_tree_dp::StructuralBatch;

    let tree = heavy_caterpillar(14, 7);
    let n = tree.len();
    let mut server = Server::new(ServerConfig {
        plan_budget_words: 0,
    });
    server
        .admit(
            "t",
            TenantSpec {
                config: strict_cfg(4 * n),
                input: TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
                threshold: Some(4),
                problem: MaxIs::new(MaxWeightIndependentSet),
                node_inputs: weights_for(n, 5),
                aux_input: 0,
                edge_inputs: Vec::new(),
            },
        )
        .expect("admission");
    let build_rounds = |server: &Server| {
        let metrics = server.context("t").expect("tenant").metrics();
        metrics.phase_rounds("plan-build")
    };
    let admitted = build_rounds(&server);
    assert!(admitted > 0, "admission builds the plan");

    // One flush: updates, a locally repaired structural batch, and a query on it.
    let query = || Request::Query {
        node_inputs: (0..n as u64)
            .map(|v| (v, 1 + v as i64 % 9))
            .chain([(10_000, 4), (10_001, 2)])
            .collect(),
        edge_inputs: Vec::new(),
    };
    server.submit(
        "t",
        Request::Update {
            node_updates: vec![(1, 400), (5, 0), (n as u64 - 2, 63)],
            edge_updates: Vec::new(),
        },
    );
    server.submit(
        "t",
        Request::Structural(
            StructuralBatch::new()
                .cut(n as u64 - 1)
                .link(3, 10_000, 21, ())
                .link(10_000, 10_001, 8, ()),
        ),
    );
    server.submit("t", query());
    let responses = server.flush();
    match &responses[1].1 {
        Response::Structural(stats) => assert!(!stats.degraded, "a local repair"),
        _ => panic!("expected structural stats"),
    }
    expect_solution(&responses[2].1);
    assert_eq!(build_rounds(&server), admitted, "no plan-build round");

    // Five leaves under one leaf overflow the threshold-4 degree bound.
    let mut batch = StructuralBatch::new();
    for leaf in 20_000..20_005 {
        batch = batch.link(10_001, leaf, 1, ());
    }
    server.submit("t", Request::Structural(batch));
    let degraded = match &server.flush()[0].1 {
        Response::Structural(stats) => stats.degraded,
        _ => panic!("expected structural stats"),
    };
    assert!(degraded, "this batch must take the degrade path");
    let rebuilt = build_rounds(&server);
    assert!(
        rebuilt > admitted,
        "the re-prepare builds the new tree's plan"
    );

    server.submit(
        "t",
        Request::Update {
            node_updates: vec![(20_000, 9)],
            edge_updates: Vec::new(),
        },
    );
    let mut query = query();
    if let Request::Query { node_inputs, .. } = &mut query {
        node_inputs.extend((20_000..20_005).map(|leaf| (leaf, 3)));
    }
    server.submit("t", query);
    let responses = server.flush();
    expect_update(&responses[0].1);
    expect_solution(&responses[1].1);
    assert_eq!(
        build_rounds(&server),
        rebuilt,
        "no plan-build round after it"
    );
    server
        .context("t")
        .expect("tenant")
        .check_compliance()
        .unwrap_or_else(|v| panic!("strict violation: {v}"));
}
