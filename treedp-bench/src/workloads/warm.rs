//! `warm-multi`: path and random-recursive are prepared and planned during
//! set-up; an operation evaluates MaxIS, MinVC, MinDS and maximum matching over
//! the resident plans on the next pre-generated weight vector, one
//! `solve_many` per problem and tree. Only `core` plan evaluation and the
//! `problems` kernels run in the timed section.
//!
//! Matching runs on the path only. On a tree that needed degree reduction the
//! plan engine's matching optimum exceeds `solve_sequential`'s (random-recursive
//! n = 65536, seed 6, maximum degree 23 over the threshold 19: 494646 against
//! 494640, which an independent recurrence confirms), and a workload must not
//! contain an operation that fails.

use super::probes;
use super::{config, timed, traced, Gauges, OpOutcome, Sim, Workload, N};
use crate::mirror::{keyed, sequential_best, weights};
use crate::span::Tracer;
use mpc_tree_dp::core::StateDp;
use mpc_tree_dp::gen::shapes;
use mpc_tree_dp::problems::{
    MaxWeightIndependentSet, MaxWeightMatching, MinWeightDominatingSet, MinWeightVertexCover,
};
use mpc_tree_dp::{
    prepare, DistVec, ListOfEdges, MpcContext, PreparedTree, SolvePlan, StateEngine, Tree,
    TreeInput,
};

/// Weight vectors an operation rotates through.
const VECTORS: usize = 2;
const PROBLEMS: usize = 4;

struct Vector {
    node_w: DistVec<(u64, i64)>,
    edge_w: DistVec<(u64, i64)>,
    host_node_w: Vec<i64>,
    host_edge_w: Vec<i64>,
    /// Optima by the sequential oracle, in the order the problems are solved.
    expected: [Option<i64>; PROBLEMS],
}

struct WarmTree {
    tree: Tree,
    ctx: MpcContext,
    prepared: PreparedTree,
    vectors: Vec<Vector>,
    unit: DistVec<(u64, ())>,
    no_edges: DistVec<(u64, ())>,
    /// Whether matching is evaluated on this tree (see the module comment).
    matching: bool,
}

pub struct Warm {
    names: Vec<String>,
    trees: Vec<WarmTree>,
    next: usize,
    /// Simulated cost of set-up, subtracted from the contexts' totals.
    base: Sim,
    generate_ms: f64,
}

#[allow(clippy::too_many_arguments)]
fn solve_one<P: StateDp>(
    t: &mut Tracer,
    span: &'static str,
    tree: usize,
    ctx: &mut MpcContext,
    plan: &SolvePlan,
    problem: &StateEngine<P>,
    nodes: &DistVec<(u64, P::NodeInput)>,
    aux: P::NodeInput,
    edges: &DistVec<(u64, P::EdgeInput)>,
) -> Option<i64> {
    let sols = traced(t, span, "problems", tree, ctx, |ctx| {
        plan.solve_many(ctx, &[(problem, nodes, aux, edges)])
    });
    sols.first()
        .and_then(|s| s.root_summary.best(problem.problem()))
}

impl WarmTree {
    fn new(tree: Tree, seed: u64, matching: bool) -> Self {
        let n = tree.len();
        let mut ctx = MpcContext::new(config(n));
        let prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            None,
        )
        .expect("generated trees are well-formed");
        let _ = prepared.plan(&mut ctx);
        let vectors = (0..VECTORS as u64)
            .map(|k| {
                let host_node_w = weights(n, seed.wrapping_mul(31).wrapping_add(k));
                let host_edge_w = weights(n, seed.wrapping_mul(37).wrapping_add(k));
                Vector {
                    node_w: ctx.from_vec(keyed(&host_node_w)),
                    // Keyed by the edge's child endpoint; the root's entry is unused.
                    edge_w: ctx.from_vec(keyed(&host_edge_w)),
                    host_node_w,
                    host_edge_w,
                    expected: [None; PROBLEMS],
                }
            })
            .collect();
        let unit = ctx.from_vec((0..n as u64).map(|v| (v, ())).collect::<Vec<_>>());
        let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
        WarmTree {
            tree,
            ctx,
            prepared,
            vectors,
            unit,
            no_edges,
            matching,
        }
    }

    /// The evaluations on vector `k`, in the order of `Vector::expected`.
    fn solve_all(&mut self, t: &mut Tracer, idx: usize, k: usize) -> Vec<Option<i64>> {
        let WarmTree {
            ctx,
            prepared,
            vectors,
            unit,
            no_edges,
            matching,
            ..
        } = self;
        let v = &vectors[k];
        let id = t.begin("core.solve_many", "core", idx);
        let (r0, w0) = super::cost(ctx);
        let plan = prepared.plan(ctx);
        let mut out = vec![
            solve_one(
                t,
                "problems.max_is",
                idx,
                ctx,
                plan,
                &StateEngine::new(MaxWeightIndependentSet),
                &v.node_w,
                0,
                no_edges,
            ),
            solve_one(
                t,
                "problems.min_vc",
                idx,
                ctx,
                plan,
                &StateEngine::new(MinWeightVertexCover),
                &v.node_w,
                0,
                no_edges,
            ),
            solve_one(
                t,
                "problems.min_ds",
                idx,
                ctx,
                plan,
                &StateEngine::new(MinWeightDominatingSet),
                &v.node_w,
                0,
                no_edges,
            ),
        ];
        if *matching {
            out.push(solve_one(
                t,
                "problems.matching",
                idx,
                ctx,
                plan,
                &StateEngine::new(MaxWeightMatching),
                unit,
                (),
                &v.edge_w,
            ));
        }
        let (r1, w1) = super::cost(ctx);
        t.end(id, r1 - r0, w1 - w0);
        out
    }

    fn fill_oracle(&mut self) {
        let edges = self.tree.edges();
        let (edges, root) = (edges.as_slice(), self.tree.root() as u64);
        let matching = self.matching;
        for v in &mut self.vectors {
            let (nw, ew) = (&v.host_node_w, &v.host_edge_w);
            let node = |x: u64| nw[x as usize];
            v.expected = [
                sequential_best(
                    &StateEngine::new(MaxWeightIndependentSet),
                    edges,
                    root,
                    node,
                    |_| (),
                ),
                sequential_best(
                    &StateEngine::new(MinWeightVertexCover),
                    edges,
                    root,
                    node,
                    |_| (),
                ),
                sequential_best(
                    &StateEngine::new(MinWeightDominatingSet),
                    edges,
                    root,
                    node,
                    |_| (),
                ),
                matching
                    .then(|| {
                        sequential_best(
                            &StateEngine::new(MaxWeightMatching),
                            edges,
                            root,
                            |_| (),
                            |c| ew[c as usize],
                        )
                    })
                    .flatten(),
            ];
        }
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
    let trees = shapes
        .into_iter()
        .enumerate()
        .map(|(i, (name, tree))| WarmTree::new(tree, seed.wrapping_add(i as u64), name == "path"))
        .collect();
    let mut w = Warm {
        names,
        trees,
        next: 0,
        base: Sim::default(),
        generate_ms: ns as f64 / 1e6,
    };
    w.op(&mut Tracer::new(false));
    let seconds = started.elapsed().as_secs_f64();
    w.next = 0;
    w.base = w.totals();
    (Box::new(w), seconds)
}

impl Warm {
    fn totals(&self) -> Sim {
        let mut sim = Sim::default();
        for tree in &self.trees {
            sim.add(&tree.ctx);
        }
        sim
    }
}

impl Workload for Warm {
    fn trees(&self) -> &[String] {
        &self.names
    }

    fn arm(&mut self) {
        for tree in &mut self.trees {
            tree.fill_oracle();
        }
    }

    fn mark_phases(&self, t: &mut Tracer) {
        for (i, tree) in self.trees.iter().enumerate() {
            t.skip_phases(i, tree.ctx.metrics());
        }
    }

    fn op(&mut self, t: &mut Tracer) -> OpOutcome {
        let k = self.next % VECTORS;
        self.next += 1;
        let mut out = OpOutcome::default();
        let root = t.begin_op("solve-many");
        for (i, tree) in self.trees.iter_mut().enumerate() {
            let (got, ns) = timed(|| tree.solve_all(t, i, k));
            out.wall_ns += ns;
            let expected = tree.vectors[k].expected;
            // `got` is one short where matching is not evaluated.
            for (p, (g, e)) in got.iter().zip(expected).enumerate() {
                out.attempted += 1;
                // Before the oracle is filled (the warm-up), only a missing answer fails.
                if g.is_none() || (e.is_some() && *g != e) {
                    out.failed += 1;
                    eprintln!(
                        "warm-multi: {} problem {p} vector {k}: got {g:?}, oracle {e:?}",
                        self.names[i]
                    );
                }
            }
        }
        t.end(root, 0, 0);
        out
    }

    fn sim(&self) -> Sim {
        self.totals().since(&self.base)
    }

    fn gauges(&self, g: &mut Gauges) {
        g.insert("treegen.generate.ms", self.generate_ms);
    }

    fn probe(&mut self, t: &mut Tracer, g: &mut Gauges) {
        let keys = self.trees.len();
        let last = self.trees.last_mut().expect("two trees");
        probes::clustering_gauges(&last.ctx, &last.prepared, g);
        let plan_words = last.prepared.plan(&mut last.ctx).resident_words();
        g.insert("core.plan_resident_words", plan_words as f64);
        let w = keyed(&last.vectors[0].host_node_w);
        probes::fresh_solve(t, keys - 1, &mut last.ctx, &last.prepared, &w);
        probes::snapshot_round_trip(t, &last.prepared, g);
        probes::primitives(t, keys, &last.tree, g);
    }
}
