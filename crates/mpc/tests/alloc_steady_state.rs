//! Steady-state allocation accounting for the primitive hot path.
//!
//! The scratch arena on `MpcContext` (radix pair buffers, merge heap, per-machine
//! counters, and the type-keyed record-buffer pool) exists so that repeated primitive
//! calls stop allocating once warm: consumed input chunks become the next call's
//! output chunks, and every transient buffer is reused. This test pins the property
//! with a counting global allocator: after a short warm-up, each further
//! `sort_by_key` / `sort_with_index` / `rebalance` / `gather_groups` /
//! `join_lookup` / `join_lookup_sorted` cycle — and each warm
//! solve-plan evaluation (`SolvePlan::solve` over a pre-built plan) — leaves
//! **zero net heap growth**: every byte allocated during the call is freed or
//! returned to the arena by the time it finishes.
//!
//! The same allocator also counts *gross* allocated bytes, which pins the structural
//! update path without a clock: a warm one-op `link` and a one-op leaf `cut` on a path
//! allocate the same (within 2×) at `n = 4096` and `n = 65536`, and a 16-op batch no
//! more than twice what 16 one-op batches do — i.e. nothing on that path builds a host
//! structure proportional to the tree.
//!
//! It also counts allocation *calls*: a warm MaxIS solve over the same path's plan
//! makes at most `8 · num_views` of them — a few per view (slot state, summary, label
//! vector), none per member or per child merge, since the state engine runs every
//! view's local DP in one reused arena.
//!
//! The whole check lives in one `#[test]` so no concurrent test pollutes the global
//! counters; the contexts are `MpcConfig::new`'s default, so the pin holds for what
//! every caller runs.

use mpc_engine::{DistVec, MpcConfig, MpcContext};
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

/// Assert that calls of `step` after a warm-up leave the heap where they found it.
/// The closure is called with the iteration number; anything it allocates must be
/// freed or pooled by the time it returns. A one-time lazy allocation elsewhere in
/// the process (runtime machinery, a pool-map rehash) can land inside one
/// measurement window, so a nonzero reading is retried — a *per-call* leak grows
/// the heap on every attempt and still fails.
fn assert_steady_state(what: &str, warmup: usize, measured: usize, mut step: impl FnMut(usize)) {
    for i in 0..warmup {
        step(i);
    }
    for i in warmup..warmup + measured {
        let mut growth = 0;
        let zero_attempt = (0..3).any(|_| {
            let before = net();
            step(i);
            growth = net() - before;
            growth == 0
        });
        assert!(
            zero_attempt,
            "{what}: call {i} repeatedly grew the heap ({growth} bytes) in steady state"
        );
    }
}

#[test]
fn warm_primitive_calls_have_zero_net_heap_growth() {
    let cfg = MpcConfig::new(2048, 0.5);
    let mut ctx = MpcContext::new(cfg);
    let data: Vec<u64> = (0..1500u64)
        .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15))
        .collect();

    // --- sort_by_key: the output of one call is the input of the next, so consumed
    // input buffers cycle through the pool back into use. Alternating the key
    // direction forces real movement every call.
    let mut dv: Option<DistVec<u64>> = Some(ctx.from_vec(data.clone()));
    assert_steady_state("sort_by_key", 3, 5, |i| {
        let input = dv.take().expect("chained sort input");
        let flip = if i % 2 == 0 { 0 } else { u64::MAX };
        dv = Some(ctx.sort_by_key(input, |x| *x ^ flip));
    });

    // --- rebalance: the output of one call is the input of the next; whole runs
    // move through pooled buckets (the run-moving skeleton every monotone
    // placement shares).
    let machines = ctx.config().num_machines();
    assert!(machines > 16, "multi-machine layout expected");
    let mut dv: Option<DistVec<u64>> = Some(ctx.from_vec((0..1500u64).collect()));
    assert_steady_state("rebalance", 3, 5, |_| {
        let input = dv.take().expect("chained rebalance input");
        dv = Some(ctx.rebalance(input));
    });

    // --- sort_with_index: output type differs from the input's, so the result is
    // dropped each call; its buffers return to the pool through the drop + the
    // consumed input cycle.
    assert_steady_state("sort_with_index", 3, 5, |i| {
        let input = ctx.from_vec(data.clone());
        let flip = if i % 2 == 0 { 0 } else { u64::MAX };
        let indexed = ctx.sort_with_index(input, |x| *x ^ flip);
        drop(indexed);
    });

    // --- gather_groups: duplicate-heavy keys, fresh arena-backed input per call
    // (the source clone is freed within the call, the consumed chunks recycle).
    let grouped_src: Vec<(u64, u64)> = (0..1200).map(|i| (i % 37, i)).collect();
    assert_steady_state("gather_groups", 3, 5, |_| {
        let input = ctx.from_vec(grouped_src.clone());
        let groups = ctx.gather_groups(input, |r| r.0);
        drop(groups);
    });

    // --- join_lookup (fused) and join_lookup_sorted (pre-sorted table): the fused
    // join's table index is pooled; the sorted table is built once outside the loop.
    let table: Vec<(u64, u64)> = (0..800).map(|i| (i * 3, i)).collect();
    let table_dv = ctx.from_vec(table);
    let sorted = ctx.sort_table(&table_dv, |t| t.0);
    let requests: Vec<u64> = (0..1000u64).map(|i| (i * 7) % 2600).collect();
    assert_steady_state("join_lookup", 3, 5, |_| {
        let reqs = ctx.from_vec(requests.clone());
        let joined = ctx.join_lookup(reqs, |r| *r, &table_dv, |t| t.0);
        drop(joined);
    });
    assert_steady_state("join_lookup_sorted", 3, 5, |_| {
        let reqs = ctx.from_vec(requests.clone());
        let joined = ctx.join_lookup_sorted(reqs, |r| *r, &table_dv, &sorted);
        drop(joined);
    });

    // The primitives above really ran: rounds and volume accumulated.
    assert!(ctx.metrics().rounds > 0);
    assert!(ctx.metrics().total_words_sent > 0);

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
    assert_steady_state("plan.solve", 3, 5, |_| {
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
