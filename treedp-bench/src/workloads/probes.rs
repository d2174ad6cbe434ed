//! Standalone measurements of single layer calls, taken in the traced run after
//! the operations: the `MpcContext` primitives on the workload's own edge
//! table, the second solve engine, snapshot encode/decode, and the parallel
//! speed-up of a cold solve. Probe spans carry operation id 0.

use super::{config, cost, timed, traced, Gauges};
use crate::mirror::max_is;
use crate::span::Tracer;
use mpc_tree_dp::{DistVec, MpcContext, PreparedTree, Tree, TreeInput};

/// Repeats of each primitive; the metric is their median.
const PRIMITIVE_REPS: usize = 3;

pub fn clustering_gauges(ctx: &MpcContext, prepared: &PreparedTree, g: &mut Gauges) {
    g.insert("clustering.layers", f64::from(prepared.num_layers()));
    let machines = ctx.config().num_machines() as f64;
    let steps: Vec<usize> = ctx
        .metrics()
        .convergence
        .iter()
        .flat_map(|trace| trace.active_machines.iter().copied())
        .collect();
    if !steps.is_empty() {
        let mean = steps.iter().sum::<usize>() as f64 / steps.len() as f64;
        g.insert("clustering.converge_active_ratio", mean / machines);
    }
}

/// `PreparedTree::solve`: the fresh-assembly engine, on an already prepared tree.
pub fn fresh_solve(
    t: &mut Tracer,
    key: usize,
    ctx: &mut MpcContext,
    prepared: &PreparedTree,
    weights: &[(u64, i64)],
) {
    let problem = max_is();
    let w = ctx.from_vec(weights.to_vec());
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    // Skip what the context recorded before the probe.
    t.skip_phases(key, ctx.metrics());
    traced(t, "core.fresh_solve", "core", key, ctx, |ctx| {
        prepared.solve(ctx, &problem, &w, 0, &no_edges)
    });
}

pub fn snapshot_round_trip(t: &mut Tracer, prepared: &PreparedTree, g: &mut Gauges) {
    let id = t.begin("core.snapshot_encode", "core", 0);
    let bytes = prepared.to_snapshot();
    t.end(id, 0, 0);
    g.insert("core.snapshot_bytes", bytes.len() as f64);
    let id = t.begin("core.snapshot_decode", "core", 0);
    let back = PreparedTree::from_snapshot(&bytes);
    t.end(id, 0, 0);
    assert!(back.is_ok(), "a snapshot the library wrote decodes");
}

/// Time every primitive on the `(child, parent)` table of `tree`, keyed by
/// parent: presorted on a path, scattered on a random tree, so both sides of
/// the radix/comparison cutoff get measured across workloads.
pub fn primitives(t: &mut Tracer, key: usize, tree: &Tree, g: &mut Gauges) {
    let mut ctx = MpcContext::new(config(tree.len()));
    let root = tree.root() as u64;
    let edges: Vec<(u64, u64)> = tree.edges().iter().map(|e| (e.child, e.parent)).collect();
    let machines = ctx.config().num_machines();
    let ctx = &mut ctx;
    t.reset_cursor(key);

    for _ in 0..PRIMITIVE_REPS {
        let host = edges.clone();
        let dv: DistVec<(u64, u64)> = traced(t, "probe.from_vec", "mpc", key, ctx, |ctx| {
            ctx.from_vec(host)
        });

        let input = dv.clone();
        traced(t, "probe.sort_by_key", "mpc", key, ctx, |ctx| {
            ctx.sort_by_key(input, |e| e.1)
        });
        let input = dv.clone();
        traced(t, "probe.sort_with_index", "mpc", key, ctx, |ctx| {
            ctx.sort_with_index(input, |e| e.1)
        });
        let sorted = traced(t, "probe.sort_table", "mpc", key, ctx, |ctx| {
            ctx.sort_table(&dv, |e| e.0)
        });
        // Each node asks for its parent's record: one pointer-jumping step.
        let input = dv.clone();
        traced(t, "probe.join_lookup", "mpc", key, ctx, |ctx| {
            ctx.join_lookup(input, |e| e.1, &dv, |e| e.0)
        });
        let input = dv.clone();
        traced(t, "probe.join_lookup_sorted", "mpc", key, ctx, |ctx| {
            ctx.join_lookup_sorted(input, |e| e.1, &dv, &sorted)
        });
        let input = dv.clone();
        traced(t, "probe.join_lookup2", "mpc", key, ctx, |ctx| {
            ctx.join_lookup2(input, |e| e.0, |e| e.1, &dv, |e| e.0)
        });
        // Children of 64 consecutive parents per group: bounded even on a star.
        let input = dv.clone();
        traced(t, "probe.gather_groups", "mpc", key, ctx, |ctx| {
            ctx.gather_groups(input, |e| (e.1 / 64, e.0 / 64))
        });
        let input = dv.clone();
        let skewed = traced(t, "probe.route", "mpc", key, ctx, |ctx| {
            ctx.route(input, |e| (e.1 as usize * 7) % machines)
        });
        traced(t, "probe.rebalance", "mpc", key, ctx, |ctx| {
            ctx.rebalance(skewed)
        });
        let input = dv.clone();
        traced(t, "probe.prefix_sums", "mpc", key, ctx, |ctx| {
            ctx.prefix_sums(input, |_| 1)
        });
        traced(t, "probe.all_reduce", "mpc", key, ctx, |ctx| {
            ctx.all_reduce(&dv, 0u64, |a, e| a + e.0, |a, b| a + b)
        });

        // Pointer jumping to the root: ⌈log₂ depth⌉ charged steps.
        let mut states = dv.clone().concat_local(ctx.from_vec(vec![(root, root)]));
        let (r0, w0) = cost(ctx);
        let id = t.begin("probe.converge", "mpc", 0);
        let steps = ctx.converge(
            &mut states,
            |s| s.0,
            |s, out| {
                if s.1 != root {
                    out.push(s.1);
                }
            },
            |target| target.1,
            |s, answers| {
                if let Some((_, Some(next))) = answers.first() {
                    s.1 = *next;
                }
            },
            "probe-pointer-jumping",
        );
        let (r1, w1) = cost(ctx);
        t.end(id, r1 - r0, w1 - w0);
        g.insert("mpc.converge.steps", steps as f64);
    }
}

/// A cold solve with machine-local work on one thread over the same solve
/// with the default worker pool. With one core the ratio says nothing.
pub fn par_speedup(n: usize, input: &TreeInput, weights: &[(u64, i64)], g: &mut Gauges) {
    let mut best = [u64::MAX; 2];
    for _ in 0..2 {
        for (slot, parallel) in [(0, false), (1, true)] {
            // The default stays the default, so `MPC_NO_PARALLEL` still applies.
            let cfg = if parallel {
                config(n)
            } else {
                config(n).with_parallel(false)
            };
            let ctx = MpcContext::new(cfg);
            let (input, w) = (input.clone(), weights.to_vec());
            let (solved, ns) =
                timed(|| super::cold::cold_solve(&mut Tracer::new(false), 0, ctx, input, w));
            drop(solved);
            best[slot] = best[slot].min(ns);
        }
    }
    g.insert("mpc.par_speedup", best[0] as f64 / best[1] as f64);
}
