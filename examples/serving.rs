//! Tree-DP-as-a-service: a multi-tenant server under a mixed query/update workload.
//!
//! Several tenants — each with its own tree, weights, MPC context and solve plan —
//! share one server. Queries batch into a single `solve_many` per tenant and flush,
//! updates fold into one incremental `apply_batch`; every tenant answers from the
//! plan its solver holds, so no flush rebuilds one. At the end, one tenant is
//! snapshotted, "killed", and restored onto a fresh server to show that serving
//! resumes bit-identically, its first query at exactly the plan-evaluation rounds.
//!
//! Run with: `cargo run --release --example serving`

use mpc_tree_dp::gen::shapes;
use mpc_tree_dp::problems::MaxWeightIndependentSet;
use mpc_tree_dp::{ListOfEdges, UpdateStats};
use mpc_tree_dp::{
    MpcConfig, Request, Response, ServerConfig, StateEngine, TenantSpec, TreeDpServer, TreeInput,
};
use std::time::Instant;

type MaxIs = StateEngine<MaxWeightIndependentSet>;

fn weights(n: usize, seed: u64) -> Vec<(u64, i64)> {
    (0..n)
        .map(|v| (v as u64, ((v as u64 * 131 + seed * 7919) % 1000) as i64))
        .collect()
}

fn spec(tree: &tree_repr::Tree, seed: u64) -> TenantSpec<MaxIs> {
    let n = tree.len();
    TenantSpec {
        config: MpcConfig::new(2 * n, 0.5),
        input: TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
        threshold: None,
        problem: MaxIs::new(MaxWeightIndependentSet),
        node_inputs: weights(n, seed),
        aux_input: 0,
        edge_inputs: Vec::new(),
    }
}

/// Rounds charged on `id`'s context by one flush of a single query.
fn query_rounds(server: &mut TreeDpServer<MaxIs>, id: &str, n: usize) -> (u64, i64) {
    let before = server.context(id).expect("tenant exists").metrics().rounds;
    server.submit(
        id,
        Request::Query {
            node_inputs: weights(n, 9999),
            edge_inputs: Vec::new(),
        },
    );
    let optimum = match &server.flush()[0].1 {
        Response::Solution(sol) => sol
            .root_summary
            .best(&MaxWeightIndependentSet)
            .expect("optimum"),
        _ => panic!("expected a solution"),
    };
    let rounds = server.context(id).expect("tenant exists").metrics().rounds - before;
    (rounds, optimum)
}

fn main() {
    let trees: Vec<(String, tree_repr::Tree)> = (0..6)
        .map(|i| {
            let tree = match i % 3 {
                0 => shapes::random_recursive(1024 + 256 * i, 11 + i as u64),
                1 => shapes::heavy_caterpillar(40 + 8 * i, 20 + 4 * i),
                _ => shapes::spider(10 + i, 90 + 10 * i),
            };
            (format!("tenant-{i}"), tree)
        })
        .collect();

    let config = ServerConfig {
        plan_budget_words: 0,
    };
    let mut server: TreeDpServer<MaxIs> = TreeDpServer::new(config);

    println!("admitting {} tenants:", trees.len());
    for (i, (id, tree)) in trees.iter().enumerate() {
        let t0 = Instant::now();
        let report = server
            .admit(id.clone(), spec(tree, i as u64))
            .expect("admission succeeds");
        println!(
            "  {id}: n={:<5} prepare {:>4} rounds, plan {:>3} rounds, solve {:>3} rounds ({:.0} ms)",
            tree.len(),
            report.prepare_rounds,
            report.plan_build_rounds,
            report.solve_rounds,
            t0.elapsed().as_secs_f64() * 1e3,
        );
    }

    // Skewed workload: two hot tenants are hit every flush, the cold tail rotates
    // through; every tenant serves from its own plan at plan-eval cost.
    println!("\nskewed workload, 8 flushes of 2 hot + 1 rotating cold tenant:");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10}",
        "flush", "queries", "updates", "rounds", "wall ms"
    );
    let rounds_of = |server: &TreeDpServer<MaxIs>| -> u64 {
        trees
            .iter()
            .filter_map(|(id, _)| server.tenant_metrics(id))
            .map(|m| m.rounds_charged)
            .sum()
    };
    for round in 0..8u64 {
        let active = [0usize, 1, 2 + (round as usize % (trees.len() - 2))];
        for &i in &active {
            let (id, tree) = &trees[i];
            let n = tree.len();
            server.submit(
                id.clone(),
                Request::Query {
                    node_inputs: weights(n, 100 * round + i as u64),
                    edge_inputs: Vec::new(),
                },
            );
            server.submit(
                id.clone(),
                Request::Update {
                    node_updates: vec![
                        ((round * 37 + i as u64) % n as u64, 1 + round as i64),
                        ((round * 101 + 3 * i as u64) % n as u64, 0),
                    ],
                    edge_updates: Vec::new(),
                },
            );
        }
        let before = rounds_of(&server);
        let t0 = Instant::now();
        let responses = server.flush();
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        let (mut queries, mut updates) = (0u64, 0u64);
        for (_, resp) in &responses {
            match resp {
                Response::Solution(_) => queries += 1,
                Response::Update(UpdateStats { .. }) => updates += 1,
                Response::Structural(_) => updates += 1,
                Response::Rejected(e) => panic!("unexpected rejection: {e}"),
            }
        }
        println!(
            "{:>8} {:>10} {:>10} {:>10} {:>10.1}",
            round,
            queries,
            updates,
            rounds_of(&server) - before,
            wall,
        );
    }

    println!("\nper-tenant serving metrics:");
    println!(
        "{:>10} {:>8} {:>8} {:>10} {:>12}",
        "tenant", "queries", "updates", "rounds", "resident KiB"
    );
    for (id, _) in &trees {
        let m = server.tenant_metrics(id).expect("tenant exists");
        println!(
            "{:>10} {:>8} {:>8} {:>10} {:>12.1}",
            id,
            m.queries,
            m.updates,
            m.rounds_charged,
            m.resident_bytes as f64 / 1024.0,
        );
    }

    // Snapshot → kill → restore: tenant-0 moves to a brand-new server and keeps
    // serving with bit-identical state.
    let (victim, tree) = &trees[0];
    let (eval_rounds, optimum) = query_rounds(&mut server, victim, tree.len());
    let summary_before = server
        .root_summary(victim)
        .expect("tenant exists")
        .best(&MaxWeightIndependentSet);
    let bytes = server.snapshot_tenant(victim).expect("snapshot");
    drop(server); // the "kill"

    let mut revived: TreeDpServer<MaxIs> = TreeDpServer::new(config);
    let id = revived
        .restore_tenant(&bytes, MaxIs::new(MaxWeightIndependentSet))
        .expect("restore");
    let summary_after = revived
        .root_summary(&id)
        .expect("tenant exists")
        .best(&MaxWeightIndependentSet);
    assert_eq!(summary_before, summary_after);
    println!(
        "\nsnapshot/restore: {} -> {} bytes, optimum {:?} preserved on a fresh server",
        victim,
        bytes.len(),
        summary_after.expect("optimum"),
    );

    let (rounds, answer) = query_rounds(&mut revived, &id, tree.len());
    println!("first post-restore query: optimum {answer} in {rounds} rounds");
    assert_eq!(answer, optimum);
    assert_eq!(rounds, eval_rounds, "exactly the plan-evaluation rounds");
}
