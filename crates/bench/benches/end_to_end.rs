//! Criterion benchmark B4: the full pipeline (normalize → cluster → solve) on a
//! low-diameter tree.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpc_tree_dp::gen::shapes;
use mpc_tree_dp::problems::MaxWeightIndependentSet;
use mpc_tree_dp::{prepare, ListOfEdges, MpcConfig, MpcContext, StateEngine, TreeInput};

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end-to-end");
    group.sample_size(10);
    {
        let n = 1usize << 12;
        let tree = shapes::with_diameter(n, 16, 2);
        group.bench_with_input(BenchmarkId::new("framework-max-is", n), &tree, |b, tree| {
            b.iter(|| {
                let mut ctx = MpcContext::new(MpcConfig::new(2 * tree.len(), 0.5));
                let prepared = prepare(
                    &mut ctx,
                    TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
                    None,
                )
                .unwrap();
                let engine = StateEngine::new(MaxWeightIndependentSet);
                let inputs = ctx.from_vec(
                    (0..tree.len())
                        .map(|v| (v as u64, 1i64))
                        .collect::<Vec<_>>(),
                );
                let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
                prepared.solve(&mut ctx, &engine, &inputs, 0, &no_edges)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
