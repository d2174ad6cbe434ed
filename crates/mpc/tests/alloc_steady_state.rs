//! Steady-state allocation accounting for the primitive hot path.
//!
//! The scratch arena on `MpcContext` (radix pair buffers, merge heap, per-machine
//! counters, and the type-keyed record-buffer pool) exists so that repeated primitive
//! calls stop allocating once warm: consumed input chunks become the next call's
//! output chunks, and every transient buffer is reused. This test pins the property
//! with a counting global allocator: after a short warm-up, each further call of the
//! primitives below — and each warm solve-plan evaluation (`SolvePlan::solve` over a
//! pre-built plan) — leaves **zero net heap growth**: every byte allocated during the
//! call is freed or returned to the arena by the time it finishes.
//!
//! It also counts allocation *calls*, since a buffer allocated and freed on every trip
//! of a per-record or per-chunk loop nets to zero bytes but not to zero calls. One
//! warm call of each hot primitive, at 1 500 and 24 000 records on
//! `MpcConfig::new(2 · records, 0.5)` and net of building its input, makes:
//! - at most 8 for `sort_by_key`, `sort_with_index`, `rebalance`, `join_lookup` and
//!   `join_lookup_sorted`, whose output chunks are pooled or pre-sized;
//! - at most `machines + 8` for `with_index` and `prefix_sums`, which build one fresh
//!   chunk per machine;
//! - at most `3 · groups + 8` for `gather_groups` and `gather_group_runs` over
//!   4-record groups: one vector per group, grown once, plus the machines' chunks;
//! - at most `6 · groups + 8` for `gather_groups` over 32-record groups: one more per
//!   doubling of the group's vector past 4 records;
//! - at most `4 · machines + 16` for `try_converge` pointer jumping up a path (11 and
//!   15 steps), which sizes its three per-machine buffers once per call.
//!
//! Each of five measured warm calls per primitive must leave the heap where it found
//! it — except that `try_converge` appends one convergence trace to the metrics per
//! call, so it may grow the heap by at most 256 bytes — and the bound holds for the
//! most calls any of them makes.
//!
//! A warm MaxIS solve over a path's plan makes at most `8 · num_views` calls — a few
//! per view (slot state, summary, label vector), none per member or per child merge,
//! since the state engine runs every view's local DP in one reused arena.
//!
//! The same allocator also counts *gross* allocated bytes, which pins the structural
//! update path without a clock: a warm one-op `link` and a one-op leaf `cut` on a path
//! allocate the same (within 2×) at `n = 4096` and `n = 65536`, and a 16-op batch no
//! more than twice what 16 one-op batches do — i.e. nothing on that path builds a host
//! structure proportional to the tree.
//!
//! The whole check lives in one `#[test]` so no concurrent test pollutes the global
//! counters; the contexts are `MpcConfig::new`'s default, so the pin holds for what
//! every caller runs.

use mpc_engine::{unmetered, DistVec, MpcConfig, MpcContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

struct CountingAllocator;

/// Net outstanding heap bytes (allocations minus deallocations).
static NET_BYTES: AtomicIsize = AtomicIsize::new(0);

/// Gross bytes ever requested (allocations plus the growth of reallocations).
static GROSS_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Allocation calls ever made (`alloc` and `realloc`).
static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        NET_BYTES.fetch_add(layout.size() as isize, Ordering::SeqCst);
        GROSS_BYTES.fetch_add(layout.size(), Ordering::SeqCst);
        ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        NET_BYTES.fetch_sub(layout.size() as isize, Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        NET_BYTES.fetch_add(new_size as isize - layout.size() as isize, Ordering::SeqCst);
        GROSS_BYTES.fetch_add(new_size.saturating_sub(layout.size()), Ordering::SeqCst);
        ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn net() -> isize {
    NET_BYTES.load(Ordering::SeqCst)
}

/// Gross bytes `f` requests from the allocator.
fn gross_bytes_of(f: impl FnOnce()) -> usize {
    let before = GROSS_BYTES.load(Ordering::SeqCst);
    f();
    GROSS_BYTES.load(Ordering::SeqCst) - before
}

/// Allocation calls `f` makes.
fn alloc_calls_of(f: impl FnOnce()) -> usize {
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    f();
    ALLOC_CALLS.load(Ordering::SeqCst) - before
}

/// Gross allocation of warm structural batches on a path of `n` nodes (same cluster
/// threshold at every `n`, so only the tree size varies).
struct StructuralBytes {
    /// One batch linking one leaf.
    link: usize,
    /// One batch cutting that leaf again.
    cut: usize,
    /// Sixteen one-op batches: eight links, eight cuts of older leaves.
    sixteen_singles: usize,
    /// The same eight links and eight cuts as one batch.
    sixteen_batched: usize,
    /// Allocation calls of a warm MaxIS solve over the path's plan.
    solve_calls: usize,
    /// Views of that plan.
    views: usize,
}

fn structural_bytes(n: usize) -> StructuralBytes {
    use tree_dp_core::StateEngine;
    use tree_dp_incremental::{IncrementalSolver, StructuralBatch};
    use tree_dp_problems::MaxWeightIndependentSet;
    use tree_repr::{ListOfEdges, TreeInput};
    type MaxIs = StateEngine<MaxWeightIndependentSet>;

    let tree = tree_gen::shapes::path(n);
    let cfg = MpcConfig::new(n, 0.5)
        .with_memory_slack(512.0)
        .with_bandwidth_slack(512.0);
    let mut ctx = MpcContext::new(cfg);
    let mut prepared = tree_dp_core::prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        Some(16),
    )
    .expect("prepare");
    prepared.plan(&mut ctx);
    let inputs = ctx.from_vec(
        (0..n)
            .map(|v| (v as u64, 1 + (v % 13) as i64))
            .collect::<Vec<_>>(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let mut solver = IncrementalSolver::new(
        &mut ctx,
        &prepared,
        MaxIs::new(MaxWeightIndependentSet),
        &inputs,
        0,
        &no_edges,
    );

    let (solve_calls, views) = {
        let plan = prepared.plan(&mut ctx);
        let engine = MaxIs::new(MaxWeightIndependentSet);
        let mut solve = || {
            drop(plan.solve(&mut ctx, &engine, &inputs, 0, &no_edges));
            ctx.reset_metrics();
        };
        solve();
        solve();
        (alloc_calls_of(solve), plan.num_views())
    };

    // Link sites spread over the path; fresh leaf ids from a counter.
    let site = |i: usize| ((2 * i + 1) * n / 18) as u64;
    let mut next_leaf = 1_000_000u64;
    let mut fresh = || {
        next_leaf += 1;
        next_leaf
    };
    let mut apply = |batch: StructuralBatch<MaxIs>| {
        let ctx = &mut ctx;
        let bytes = gross_bytes_of(|| {
            let stats = solver
                .apply_structural(ctx, &mut prepared, &batch)
                .expect("valid batch");
            assert!(!stats.degraded);
        });
        // The phase breakdown the simulator records is bookkeeping, not the update.
        ctx.reset_metrics();
        bytes
    };

    // Warm-up: builds the repair index, grows the chunk and map capacities the
    // measured batches reuse, and leaves eight leaves to cut.
    let mut old: Vec<u64> = (0..8).map(|_| fresh()).collect();
    for (i, &leaf) in old.iter().enumerate() {
        apply(StructuralBatch::new().link(site(i), leaf, 5, ()));
    }
    for _ in 0..2 {
        let leaf = fresh();
        apply(StructuralBatch::new().link(site(8), leaf, 5, ()));
        apply(StructuralBatch::new().cut(leaf));
    }

    let leaf = fresh();
    let link = apply(StructuralBatch::new().link(site(8), leaf, 5, ()));
    let cut = apply(StructuralBatch::new().cut(leaf));

    let mut sixteen_singles = 0;
    let mut newer = Vec::new();
    for (i, &gone) in old.iter().enumerate() {
        let leaf = fresh();
        newer.push(leaf);
        sixteen_singles += apply(StructuralBatch::new().link(site(i), leaf, 5, ()));
        sixteen_singles += apply(StructuralBatch::new().cut(gone));
    }
    old = newer;
    let mut batch = StructuralBatch::new();
    for i in 0..8 {
        batch = batch.link(site(i), fresh(), 5, ());
    }
    for &gone in &old {
        batch = batch.cut(gone);
    }
    let sixteen_batched = apply(batch);

    StructuralBytes {
        link,
        cut,
        sixteen_singles,
        sixteen_batched,
        solve_calls,
        views,
    }
}

/// Allocation calls of one warm call of `step`, the most over five measured calls
/// (`i` = 3..8, after three warm-up calls), each of which must leave the heap where
/// it found it. A one-time lazy allocation elsewhere in the process (runtime
/// machinery, a pool-map rehash) can land inside one measurement window, so a call
/// that grows the heap is retried at the same `i`, up to three times, and the calls of
/// its zero-growth attempt count — a *per-call* leak grows the heap on every attempt
/// and still fails.
fn warm_alloc_calls(what: &str, step: impl FnMut(usize)) -> usize {
    warm_alloc_calls_growing(what, 0, step)
}

/// [`warm_alloc_calls`] for a `step` that may keep up to `max_growth` bytes per call
/// by design.
fn warm_alloc_calls_growing(what: &str, max_growth: isize, mut step: impl FnMut(usize)) -> usize {
    for i in 0..3 {
        step(i);
    }
    (3..8)
        .map(|i| {
            let mut attempts = Vec::new();
            for _ in 0..3 {
                let before = net();
                let calls = alloc_calls_of(|| step(i));
                let growth = net() - before;
                if (0..=max_growth).contains(&growth) {
                    return calls;
                }
                attempts.push((calls, growth));
            }
            panic!("{what}: call {i} grew the heap on every attempt (calls, bytes): {attempts:?}")
        })
        .max()
        .expect("five measured calls")
}

/// Allocation calls of a warm `step` on a fresh `from_vec(data)` per call, net of the
/// calls of such a `from_vec` whose result is dropped. That one builds a fresh chunk
/// per machine every time; a primitive that consumes its input hands those chunks
/// back for the next `from_vec` to take.
fn calls_on_fresh_input<T: Clone + Send + 'static>(
    what: &str,
    ctx: &mut MpcContext,
    data: &[T],
    mut step: impl FnMut(&mut MpcContext, DistVec<T>, usize),
) -> usize {
    let mut empty_pool = MpcContext::new(*ctx.config());
    let input = warm_alloc_calls("from_vec", |_| drop(empty_pool.from_vec(data.to_vec())));
    let calls = warm_alloc_calls(what, |i| {
        let dv = ctx.from_vec(data.to_vec());
        step(ctx, dv, i)
    });
    calls.saturating_sub(input)
}

/// `(primitive, allocation calls per warm call, bound)` at `records` records on
/// `MpcConfig::new(2 · records, 0.5)`. `sort_by_key` and `rebalance` chain their output
/// into the next call; the others run on a fresh input each ([`calls_on_fresh_input`]).
fn primitive_alloc_calls(records: usize) -> Vec<(&'static str, usize, usize)> {
    let cfg = MpcConfig::new(2 * records, 0.5);
    let groups = records / 4;
    let data: Vec<u64> = (0..records as u64)
        .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15))
        .collect();
    let grouped: Vec<(u64, u64)> = (0..records as u64)
        .map(|i| (i % groups as u64, i))
        .collect();
    // Duplicate-heavy keys: 32-record groups, each vector grown through four doublings.
    let wide_groups = records / 32;
    let wide: Vec<(u64, u64)> = (0..records as u64)
        .map(|i| (i % wide_groups as u64, i))
        .collect();
    let requests: Vec<u64> = (0..records as u64)
        .map(|i| 7 * i % (3 * records as u64))
        .collect();
    // Alternating the key direction forces real movement every call.
    let flip = |i: usize| if i % 2 == 0 { 0 } else { u64::MAX };
    let (pooled, per_machine, per_group) = (8, cfg.num_machines() + 8, 3 * groups + 8);
    let per_wide_group = 6 * wide_groups + 8;
    let per_converge = 4 * cfg.num_machines() + 16;
    assert!(cfg.num_machines() > 16, "multi-machine layout expected");
    let mut ctx = MpcContext::new(cfg);

    let mut chained = Some(ctx.from_vec(data.clone()));
    let sort_by_key = warm_alloc_calls("sort_by_key", |i| {
        let dv = chained.take().expect("chained input");
        chained = Some(ctx.sort_by_key(dv, |x| *x ^ flip(i)));
    });
    let rebalance = warm_alloc_calls("rebalance", |_| {
        let dv = chained.take().expect("chained input");
        chained = Some(ctx.rebalance(dv));
    });
    let ctx = &mut ctx;
    let sort_with_index = calls_on_fresh_input("sort_with_index", ctx, &data, |c, dv, i| {
        drop(c.sort_with_index(dv, |x| *x ^ flip(i)))
    });
    let with_index =
        calls_on_fresh_input("with_index", ctx, &data, |c, dv, _| drop(c.with_index(dv)));
    let prefix_sums = calls_on_fresh_input("prefix_sums", ctx, &data, |c, dv, _| {
        drop(c.prefix_sums(dv, |x| *x & 0xff))
    });
    let table = ctx.from_vec((0..records as u64).map(|i| (3 * i, i)).collect());
    let sorted = ctx.sort_table(&table, |t| t.0);
    let join_lookup = calls_on_fresh_input("join_lookup", ctx, &requests, |c, dv, _| {
        drop(c.join_lookup(dv, |r| *r, &table, |t| t.0))
    });
    let join_lookup_sorted =
        calls_on_fresh_input("join_lookup_sorted", ctx, &requests, |c, dv, _| {
            drop(c.join_lookup_sorted(dv, |r| *r, &table, &sorted))
        });
    let gather_groups = calls_on_fresh_input("gather_groups", ctx, &grouped, |c, dv, _| {
        drop(c.gather_groups(dv, |r| r.0))
    });
    let gather_wide = calls_on_fresh_input("gather_groups/32", ctx, &wide, |c, dv, _| {
        drop(c.gather_groups(dv, |r| r.0))
    });
    let half = groups as u64 / 2;
    let gather_group_runs = calls_on_fresh_input("gather_group_runs", ctx, &grouped, |c, dv, _| {
        drop(c.gather_group_runs(dv, |r| r.0, |r| u32::from(r.0 >= half)))
    });
    // Pointer jumping up a path, one doubling per step; the states are reset in
    // place, so the call builds no input.
    let link = |v: u64| (v, v.saturating_sub(1), v == 0);
    let mut states = ctx.from_vec((0..records as u64).map(link).collect());
    let try_converge = warm_alloc_calls_growing("try_converge", 256, |_| {
        for chunk in unmetered::chunks_mut(&mut states) {
            for s in chunk.iter_mut() {
                *s = link(s.0);
            }
        }
        let update = |s: &mut (u64, u64, bool), answers: &[(u64, Option<(u64, bool)>)]| {
            if let Some((_, Some(next))) = answers.first() {
                (s.1, s.2) = *next;
            }
        };
        let requests = |s: &(u64, u64, bool), out: &mut Vec<u64>| out.extend((!s.2).then_some(s.1));
        let steps = ctx.try_converge(
            &mut states,
            |s| s.0,
            requests,
            |s| (s.1, s.2),
            update,
            "jump",
        );
        assert_eq!(steps, Ok(u64::from(records.next_power_of_two().ilog2())));
    });
    // The primitives above really ran: rounds and volume accumulated.
    assert!(ctx.metrics().rounds > 0);
    assert!(ctx.metrics().total_words_sent > 0);
    vec![
        ("sort_by_key", sort_by_key, pooled),
        ("rebalance", rebalance, pooled),
        ("sort_with_index", sort_with_index, pooled),
        ("with_index", with_index, per_machine),
        ("prefix_sums", prefix_sums, per_machine),
        ("join_lookup", join_lookup, pooled),
        ("join_lookup_sorted", join_lookup_sorted, pooled),
        ("gather_groups", gather_groups, per_group),
        ("gather_groups/32", gather_wide, per_wide_group),
        ("gather_group_runs", gather_group_runs, per_group),
        ("try_converge", try_converge, per_converge),
    ]
}

#[test]
fn warm_primitive_calls_have_zero_net_heap_growth() {
    // --- allocation calls per warm primitive call, at two sizes.
    let mut table = String::new();
    let mut over = Vec::new();
    for records in [1500, 24000] {
        for (what, calls, bound) in primitive_alloc_calls(records) {
            table += &format!("{records:>6} {what:<18} {calls:>5} (bound {bound})\n");
            if calls > bound {
                over.push(format!("{what} at {records} records"));
            }
        }
    }
    assert!(
        over.is_empty(),
        "allocation calls over bound: {}\nmeasured:\n{table}",
        over.join(", ")
    );

    // --- solve-plan evaluation: with the plan (problem-independent view assembly)
    // built once, every warm `plan.solve` call must also leave the heap where it
    // found it — its slot state, boundary labels, and label chunks are all
    // freed when the returned solution drops. Metrics are reset inside the window:
    // the per-phase breakdown strings a solve records are bookkeeping of the
    // *simulator*, not of the evaluation pass, and would otherwise accumulate.
    use tree_dp_core::StateEngine;
    use tree_dp_problems::MaxWeightIndependentSet;
    use tree_gen::shapes;
    use tree_repr::{ListOfEdges, TreeInput};

    let tree = shapes::random_recursive(512, 3);
    let cfg = MpcConfig::new(2 * tree.len(), 0.5)
        .with_memory_slack(512.0)
        .with_bandwidth_slack(512.0);
    let mut ctx = MpcContext::new(cfg);
    let prepared = tree_dp_core::prepare(
        &mut ctx,
        TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
        None,
    )
    .expect("prepare");
    let plan = prepared.plan(&mut ctx).clone();
    let engine = StateEngine::new(MaxWeightIndependentSet);
    let inputs = ctx.from_vec(
        (0..tree.len())
            .map(|v| (v as u64, 1 + (v % 13) as i64))
            .collect::<Vec<_>>(),
    );
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let mut optimum = None;
    warm_alloc_calls("plan.solve", |_| {
        let sol = plan.solve(&mut ctx, &engine, &inputs, 0, &no_edges);
        let best = sol.root_summary.best(engine.problem());
        assert!(
            optimum.is_none() || optimum == Some(best),
            "optimum drifted"
        );
        optimum = Some(best);
        drop(sol);
        ctx.reset_metrics();
    });

    // --- structural batches: allocation follows what the batch touches, not `n`.
    let small = structural_bytes(4096);
    let large = structural_bytes(65536);
    for (what, at_small, at_large) in [
        ("1-op link", small.link, large.link),
        ("1-op leaf cut", small.cut, large.cut),
    ] {
        assert!(
            at_large <= 2 * at_small && at_small <= 2 * at_large,
            "{what}: {at_small} bytes at n = 4096 vs {at_large} bytes at n = 65536"
        );
    }
    for (n, bytes) in [(4096, &small), (65536, &large)] {
        assert!(
            bytes.sixteen_batched <= 2 * bytes.sixteen_singles,
            "n = {n}: a 16-op batch allocated {} bytes, sixteen 1-op batches {}",
            bytes.sixteen_batched,
            bytes.sixteen_singles
        );
        assert!(
            bytes.solve_calls <= 8 * bytes.views,
            "n = {n}: a warm solve made {} allocation calls over {} views",
            bytes.solve_calls,
            bytes.views
        );
    }
}
