//@ path: crates/repr/src/fixture_ok.rs
// R2 compliant shapes: a bounded `for` loop may exchange (its trip count is an
// explicit expression, not data-dependent convergence), and a `while` loop whose
// geometry genuinely bounds the iteration count documents that with an allow.

fn layered_route(ctx: &mut MpcContext, mut work: DistVec<u64>, layers: usize) -> DistVec<u64> {
    for _ in 0..layers {
        work = ctx.rebalance(work);
    }
    work
}

fn halving(ctx: &mut MpcContext, mut work: DistVec<u64>) -> DistVec<u64> {
    while work.len() > 1 {
        // mpc-lint: allow(round-blowup) — the chunk count halves every iteration, so this loop runs ⌈log₂ n⌉ times and the total charge stays O(log n)
        work = ctx.rebalance(work);
    }
    work
}
