//@ path: crates/repr/src/fixture.rs
// R2: exchanges inside unbounded loops, both directly charged and transitively
// through a helper the resolution pass links to a charged primitive.

fn shuffle_once(ctx: &mut MpcContext, work: DistVec<u64>) -> DistVec<u64> {
    ctx.rebalance(work)
}

fn drain_direct(ctx: &mut MpcContext, mut work: DistVec<u64>) -> DistVec<u64> {
    while work.len() > 1 {
        work = ctx.route(work, 0); //~ round-blowup
    }
    work
}

fn drain_transitive(ctx: &mut MpcContext, mut work: DistVec<u64>) -> DistVec<u64> {
    loop {
        if work.len() <= 1 {
            return work;
        }
        work = shuffle_once(ctx, work); //~ round-blowup
    }
}
