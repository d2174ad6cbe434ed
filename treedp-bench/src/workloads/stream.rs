//! `stream-updates`: one `IncrementalSolver` (MaxIS) on a path and one on a
//! random-recursive tree. An operation is one cycle per tree of
//! `update-1`, `update-256`, `update-4096` (weight batches), `struct-1` (one
//! link, or on odd cycles the cut of that leaf), `struct-16` (8 links of fresh
//! leaves + 8 cuts of the leaves linked two cycles earlier) and `read`
//! (`solution`). Node count and diameter stay stationary, so a run can be any
//! length.

use super::probes;
use super::{config, cost, timed, traced, Gauges, OpOutcome, Sim, Workload, N, OP_STREAM_SEED};
use crate::mirror::{keyed, max_is, weights, MaxIs, Mirror, Rng};
use crate::span::Tracer;
use mpc_tree_dp::clustering::{plan_repair, TopologyOp};
use mpc_tree_dp::gen::shapes;
use mpc_tree_dp::{
    prepare, IncrementalSolver, ListOfEdges, MpcContext, PreparedTree, StructuralBatch,
    StructuralStats, Tree, TreeInput,
};
use std::collections::VecDeque;

const UPDATE_SIZES: [(usize, &str); 3] = [
    (1, "incremental.apply_batch_1"),
    (256, "incremental.apply_batch_256"),
    (4096, "incremental.apply_batch_4096"),
];
/// Links (and, from the third cycle on, cuts) in a `struct-16` batch.
const LINKS_PER_BATCH: usize = 8;
/// Steps of one cycle on one tree.
const STEPS: u64 = 6;
/// Standalone `plan_repair` calls timed per traced run.
const PLAN_REPAIR_PROBES: usize = 6;

/// The structural side of a stream: which leaves to link and cut in cycle `c`.
/// Kept apart from the solver so its stationarity can be tested alone.
pub struct StructStream {
    pub mirror: Mirror,
    rng: Rng,
    cycle: u64,
    /// The `struct-1` leaf linked on the last even cycle.
    single: Option<u64>,
    /// Leaves linked by the last two `struct-16` batches, oldest first.
    batches: VecDeque<Vec<u64>>,
}

/// One structural step: the ops in application order (`(parent, child, weight)`
/// links and cuts of leaves).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StructStep {
    pub links: Vec<(u64, u64, i64)>,
    pub cuts: Vec<u64>,
}

impl StructStep {
    fn batch(&self) -> StructuralBatch<MaxIs> {
        let mut batch = StructuralBatch::new();
        for &(parent, child, w) in &self.links {
            batch = batch.link(parent, child, w, ());
        }
        for &leaf in &self.cuts {
            batch = batch.cut(leaf);
        }
        batch
    }

    fn topology(&self) -> Vec<TopologyOp> {
        let links = self
            .links
            .iter()
            .map(|&(parent, child, _)| TopologyOp::Link { parent, child });
        let cuts = self.cuts.iter().map(|&child| TopologyOp::Cut { child });
        links.chain(cuts).collect()
    }
}

impl StructStream {
    pub fn new(tree: &Tree, weights: Vec<i64>, seed: u64) -> Self {
        StructStream {
            mirror: Mirror::new(tree, weights),
            rng: Rng::new(seed),
            cycle: 0,
            single: None,
            batches: VecDeque::new(),
        }
    }

    fn link(&mut self, step: &mut StructStep) -> u64 {
        let site = self.mirror.pick_site(&mut self.rng);
        let w = self.rng.weight();
        let leaf = self.mirror.link(site, w);
        step.links.push((site, leaf, w));
        leaf
    }

    /// `struct-1`: link a leaf on even cycles, cut it again on odd ones.
    pub fn single(&mut self) -> StructStep {
        let mut step = StructStep::default();
        match self.single.take() {
            Some(leaf) => {
                self.mirror.cut_leaf(leaf);
                step.cuts.push(leaf);
            }
            None => self.single = Some(self.link(&mut step)),
        }
        step
    }

    /// `struct-16`: 8 fresh leaves in, the 8 leaves of two cycles ago out.
    pub fn sixteen(&mut self) -> StructStep {
        let mut step = StructStep::default();
        let fresh = (0..LINKS_PER_BATCH).map(|_| self.link(&mut step)).collect();
        self.batches.push_back(fresh);
        if self.batches.len() > 2 {
            for leaf in self.batches.pop_front().unwrap_or_default() {
                self.mirror.cut_leaf(leaf);
                step.cuts.push(leaf);
            }
        }
        step
    }

    /// A batch of `size` weight updates on original nodes (later writes to the
    /// same node win, as in the library).
    pub fn updates(&mut self, size: usize) -> Vec<(u64, i64)> {
        let n = self.mirror.originals() as u64;
        let batch: Vec<(u64, i64)> = (0..size)
            .map(|_| (self.rng.below(n), self.rng.weight()))
            .collect();
        for &(v, w) in &batch {
            self.mirror.weight[v as usize] = w;
        }
        batch
    }

    pub fn end_cycle(&mut self) -> u64 {
        self.cycle += 1;
        self.cycle
    }
}

struct StreamTree {
    ctx: MpcContext,
    prepared: PreparedTree,
    solver: IncrementalSolver<MaxIs>,
    stream: StructStream,
    tree: Tree,
}

#[derive(Default)]
struct Counters {
    update_batches: u64,
    resummarized: u64,
    struct_batches: u64,
    patched_clusters: u64,
    degraded: u64,
    plan_repair_probes: usize,
}

pub struct Stream {
    names: Vec<String>,
    trees: Vec<StreamTree>,
    base: Sim,
    counters: Counters,
    generate_ms: f64,
    new_ms: f64,
    new_rounds: u64,
}

impl StreamTree {
    fn new(tree: Tree, seed: u64) -> (Self, f64, u64) {
        let n = tree.len();
        let w = weights(n, seed);
        let mut ctx = MpcContext::new(config(n));
        let prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            None,
        )
        .expect("generated trees are well-formed");
        let _ = prepared.plan(&mut ctx);
        let inputs = ctx.from_vec(keyed(&w));
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
        let (r0, _) = cost(&ctx);
        let (solver, ns) =
            timed(|| IncrementalSolver::new(&mut ctx, &prepared, max_is(), &inputs, 0, &no_edges));
        let new_rounds = cost(&ctx).0 - r0;
        let stream = StructStream::new(&tree, w, OP_STREAM_SEED);
        (
            StreamTree {
                ctx,
                prepared,
                solver,
                stream,
                tree,
            },
            ns as f64 / 1e6,
            new_rounds,
        )
    }

    fn best(&self) -> Option<i64> {
        self.solver
            .root_summary()
            .best(self.solver.problem().problem())
    }

    fn structural(
        &mut self,
        t: &mut Tracer,
        idx: usize,
        span: &'static str,
        step: &StructStep,
        probe_planner: bool,
        counters: &mut Counters,
    ) -> (Option<StructuralStats>, u64) {
        let batch = step.batch();
        if probe_planner && t.enabled() && counters.plan_repair_probes < PLAN_REPAIR_PROBES {
            // The same batch through the planner alone, outside the step's clock.
            counters.plan_repair_probes += 1;
            let edges: Vec<_> = self.prepared.edges.iter().copied().collect();
            let id = t.begin("clustering.plan_repair", "clustering", idx);
            let planned = plan_repair(&self.prepared.clustering, &edges, &step.topology());
            t.end(id, 0, 0);
            drop(planned);
        }
        let StreamTree {
            ctx,
            prepared,
            solver,
            ..
        } = self;
        let (stats, ns) = timed(|| {
            traced(t, span, "incremental", idx, ctx, |ctx| {
                solver.apply_structural(ctx, prepared, &batch).ok()
            })
        });
        if let Some(s) = &stats {
            counters.struct_batches += 1;
            counters.patched_clusters += s.patched_clusters as u64;
            counters.degraded += u64::from(s.degraded);
        }
        (stats, ns)
    }

    /// One cycle on this tree: returns the timed wall and whether every step
    /// succeeded and the read agreed with the mirror.
    fn cycle(&mut self, t: &mut Tracer, idx: usize, counters: &mut Counters) -> (u64, bool) {
        let mut wall = 0u64;
        let mut ok = true;
        for (size, span) in UPDATE_SIZES {
            let batch = self.stream.updates(size);
            let StreamTree { ctx, solver, .. } = self;
            let (stats, ns) = timed(|| {
                traced(t, span, "incremental", idx, ctx, |ctx| {
                    solver.apply_batch(ctx, &batch, &[])
                })
            });
            wall += ns;
            counters.update_batches += 1;
            counters.resummarized += stats.resummarized as u64;
        }
        let step = self.stream.single();
        let (stats, ns) = self.structural(
            t,
            idx,
            "incremental.apply_structural_1",
            &step,
            false,
            counters,
        );
        wall += ns;
        ok &= stats.is_some();
        let step = self.stream.sixteen();
        let (stats, ns) = self.structural(
            t,
            idx,
            "incremental.apply_structural_16",
            &step,
            true,
            counters,
        );
        wall += ns;
        ok &= stats.is_some();

        let StreamTree { ctx, solver, .. } = self;
        let (sol, ns) = timed(|| {
            traced(t, "incremental.solution", "incremental", idx, ctx, |ctx| {
                solver.solution(ctx)
            })
        });
        wall += ns;
        let read = sol.root_summary.best(self.solver.problem().problem());
        drop(sol);

        let cycle = self.stream.end_cycle();
        let expected = self.stream.mirror.max_is();
        ok &= read == Some(expected);
        // The recurrence itself against the repository's oracle.
        if cycle == 1 || cycle % 10 == 0 {
            ok &= self.stream.mirror.max_is_sequential() == Some(expected);
        }
        (wall, ok)
    }
}

pub fn setup(seed: u64) -> (Box<dyn Workload>, f64) {
    let started = std::time::Instant::now();
    let (shapes, ns) = timed(|| {
        vec![
            ("path", shapes::path(N)),
            ("random-recursive", shapes::random_recursive(N, seed)),
        ]
    });
    let names = shapes.iter().map(|(name, _)| name.to_string()).collect();
    let mut new_ms = 0.0;
    let mut new_rounds = 0;
    let trees = shapes
        .into_iter()
        .enumerate()
        .map(|(i, (_, tree))| {
            let (st, ms, rounds) = StreamTree::new(tree, seed.wrapping_add(i as u64));
            new_ms += ms;
            new_rounds += rounds;
            st
        })
        .collect();
    let mut s = Stream {
        names,
        trees,
        base: Sim::default(),
        counters: Counters::default(),
        generate_ms: ns as f64 / 1e6,
        new_ms,
        new_rounds,
    };
    s.op(&mut Tracer::new(false));
    let seconds = started.elapsed().as_secs_f64();
    s.base = s.totals();
    s.counters = Counters::default();
    (Box::new(s), seconds)
}

impl Stream {
    fn totals(&self) -> Sim {
        let mut sim = Sim::default();
        for tree in &self.trees {
            sim.add(&tree.ctx);
        }
        sim
    }
}

impl Workload for Stream {
    fn trees(&self) -> &[String] {
        &self.names
    }

    fn mark_phases(&self, t: &mut Tracer) {
        for (i, tree) in self.trees.iter().enumerate() {
            t.skip_phases(i, tree.ctx.metrics());
        }
    }

    fn op(&mut self, t: &mut Tracer) -> OpOutcome {
        let mut out = OpOutcome::default();
        let root = t.begin_op("stream-cycle");
        for (i, tree) in self.trees.iter_mut().enumerate() {
            let (wall, ok) = tree.cycle(t, i, &mut self.counters);
            out.wall_ns += wall;
            out.attempted += STEPS;
            // A cycle that reads a wrong optimum cannot say which step broke it.
            out.failed += if ok { 0 } else { STEPS };
        }
        t.end(root, 0, 0);
        out
    }

    fn sim(&self) -> Sim {
        self.totals().since(&self.base)
    }

    fn finish(&mut self) -> OpOutcome {
        let mut out = OpOutcome::default();
        for tree in &self.trees {
            out.attempted += 1;
            if tree.best().is_none() || tree.best() != tree.stream.mirror.max_is_sequential() {
                out.failed += 1;
            }
        }
        out
    }

    fn gauges(&self, g: &mut Gauges) {
        let c = &self.counters;
        let per = |total: u64, batches: u64| total as f64 / batches.max(1) as f64;
        g.insert("treegen.generate.ms", self.generate_ms);
        g.insert("incremental.new.ms", self.new_ms);
        g.insert("incremental.new.rounds", self.new_rounds as f64);
        g.insert(
            "incremental.resummarized_per_batch",
            per(c.resummarized, c.update_batches),
        );
        g.insert(
            "incremental.patched_clusters_per_batch",
            per(c.patched_clusters, c.struct_batches),
        );
        g.insert(
            "incremental.degraded_ratio",
            per(c.degraded, c.struct_batches),
        );
    }

    fn probe(&mut self, t: &mut Tracer, g: &mut Gauges) {
        let keys = self.trees.len();
        let last = self.trees.last().expect("two trees");
        probes::clustering_gauges(&last.ctx, &last.prepared, g);
        probes::snapshot_round_trip(t, &last.prepared, g);
        probes::primitives(t, keys, &last.tree, g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64, cycles: usize) -> (Vec<StructStep>, Vec<usize>) {
        let tree = shapes::random_recursive(500, seed);
        let mut s = StructStream::new(&tree, weights(500, seed), seed);
        let mut steps = Vec::new();
        let mut live = Vec::new();
        for _ in 0..cycles {
            s.updates(16);
            steps.push(s.single());
            steps.push(s.sixteen());
            s.end_cycle();
            live.push(s.mirror.live());
        }
        (steps, live)
    }

    #[test]
    fn node_count_is_stationary_after_the_second_cycle() {
        let (_, live) = run(7, 40);
        // Even cycles end with the `struct-1` leaf attached, odd ones without.
        for (c, &count) in live.iter().enumerate().skip(2) {
            let expected = 500 + 2 * LINKS_PER_BATCH + usize::from(c % 2 == 0);
            assert_eq!(count, expected, "after cycle {c}");
        }
    }

    #[test]
    fn struct_16_links_eight_and_cuts_the_leaves_of_two_cycles_ago() {
        let (steps, _) = run(3, 6);
        let sixteens: Vec<&StructStep> = steps.iter().skip(1).step_by(2).collect();
        for (c, step) in sixteens.iter().enumerate() {
            assert_eq!(step.links.len(), LINKS_PER_BATCH);
            if c < 2 {
                assert!(step.cuts.is_empty());
            } else {
                let linked: Vec<u64> = sixteens[c - 2].links.iter().map(|l| l.1).collect();
                assert_eq!(step.cuts, linked);
            }
        }
    }

    #[test]
    fn op_stream_is_a_function_of_the_seed() {
        assert_eq!(run(11, 12), run(11, 12));
        assert_ne!(run(11, 12).0, run(12, 12).0);
    }
}
