//! `cold-deep` and `cold-shallow`: a cold solve is `prepare` → `plan_uncached`
//! → `SolvePlan::solve` (MaxIS) on a fresh context, once per tree of the
//! workload. What differs is where the time goes: diameter Θ(n) makes the
//! clustering's convergence loops dominate, diameter ≤ 31 with unrooted or
//! nested input makes rooting, degree reduction and plan build dominate.

use super::probes;
use super::{config, timed, traced, Gauges, OpOutcome, Sim, Workload, N};
use crate::mirror::{max_is, sequential_best, weights};
use crate::span::Tracer;
use mpc_tree_dp::gen::shapes;
use mpc_tree_dp::repr::{DirectedEdge, UndirectedEdges};
use mpc_tree_dp::{
    prepare, ListOfEdges, MpcContext, PreparedTree, SolvePlan, StringOfParentheses, Tree, TreeInput,
};
use std::collections::BTreeMap;

/// A tree in the representation it is solved from. Node ids are the
/// representation's own: a parentheses string names a node by the position of
/// its opening parenthesis, the edge lists by the generator's index.
struct Represented {
    input: TreeInput,
    edges: Vec<DirectedEdge>,
    root: u64,
}

struct ColdTree {
    tree: Tree,
    input: TreeInput,
    edges: Vec<DirectedEdge>,
    root: u64,
    /// One weight per node id of the representation.
    weights: Vec<(u64, i64)>,
    /// MaxIS optimum by the sequential oracle.
    expected: Option<i64>,
}

pub struct Cold {
    names: Vec<String>,
    trees: Vec<ColdTree>,
    sim: Sim,
    generate_ms: f64,
    /// Tree whose edge table the primitive probes run on.
    primitives_on: usize,
}

/// Everything a cold solve leaves behind; dropped after the clock stops.
pub struct Solved {
    pub ctx: MpcContext,
    pub prepared: PreparedTree,
    pub plan: SolvePlan,
    pub best: Option<i64>,
}

/// One cold solve of tree `tree` on the fresh context `ctx`.
pub fn cold_solve(
    t: &mut Tracer,
    tree: usize,
    mut ctx: MpcContext,
    input: TreeInput,
    weights: Vec<(u64, i64)>,
) -> Solved {
    t.reset_cursor(tree);
    let problem = max_is();
    let prepared = traced(t, "core.prepare", "core", tree, &mut ctx, |ctx| {
        prepare(ctx, input, None).expect("generated trees are well-formed")
    });
    let (w, no_edges) = traced(t, "mpc.from_vec", "mpc", tree, &mut ctx, |ctx| {
        (ctx.from_vec(weights), ctx.from_vec(Vec::<(u64, ())>::new()))
    });
    let plan = traced(t, "core.plan_uncached", "core", tree, &mut ctx, |ctx| {
        prepared.plan_uncached(ctx)
    });
    let sol = traced(t, "problems.max_is", "problems", tree, &mut ctx, |ctx| {
        plan.solve(ctx, &problem, &w, 0, &no_edges)
    });
    let best = sol.root_summary.best(problem.problem());
    Solved {
        ctx,
        prepared,
        plan,
        best,
    }
}

/// A named tree and the representation it is solved from.
type Shape = (&'static str, Tree, fn(&Tree) -> Represented);

impl Cold {
    fn new(shapes: Vec<Shape>, seed: u64, generate_ms: f64, primitives_on: usize) -> Self {
        let names = shapes.iter().map(|(name, ..)| name.to_string()).collect();
        let trees = shapes
            .into_iter()
            .enumerate()
            .map(|(i, (_, tree, represent))| {
                let w = weights(tree.len(), seed.wrapping_add(i as u64));
                let Represented { input, edges, root } = represent(&tree);
                let mut ids: Vec<u64> = edges.iter().map(|e| e.child).collect();
                ids.push(root);
                ids.sort_unstable();
                ColdTree {
                    input,
                    edges,
                    root,
                    weights: ids.into_iter().zip(w).collect(),
                    expected: None,
                    tree,
                }
            })
            .collect();
        Cold {
            names,
            trees,
            sim: Sim::default(),
            generate_ms,
            primitives_on,
        }
    }

    fn finish_setup(mut self, started: std::time::Instant) -> (Box<dyn Workload>, f64) {
        self.op(&mut Tracer::new(false));
        let seconds = started.elapsed().as_secs_f64();
        self.sim = Sim::default();
        (Box::new(self), seconds)
    }
}

fn list_of_edges(tree: &Tree) -> Represented {
    Represented {
        input: TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
        edges: tree.edges(),
        root: tree.root() as u64,
    }
}

fn parentheses(tree: &Tree) -> Represented {
    let string = StringOfParentheses::from_tree(tree);
    let (edges, root) = string
        .to_edges_sequential()
        .expect("a string written from a tree is balanced");
    Represented {
        input: TreeInput::StringOfParentheses(string),
        edges,
        root,
    }
}

/// Rooted at the smallest node id during normalization: the generator's root.
fn undirected(tree: &Tree) -> Represented {
    Represented {
        input: TreeInput::UndirectedEdges(UndirectedEdges::from_tree(tree)),
        edges: tree.edges(),
        root: tree.root() as u64,
    }
}

pub fn setup_deep(seed: u64) -> (Box<dyn Workload>, f64) {
    let started = std::time::Instant::now();
    let (shapes, ns) = timed(|| {
        vec![
            (
                "path",
                shapes::path(N),
                list_of_edges as fn(&Tree) -> Represented,
            ),
            ("broom", shapes::broom(N / 2, N / 2), list_of_edges),
            ("caterpillar", shapes::caterpillar(N / 4, 3), list_of_edges),
        ]
    });
    Cold::new(shapes, seed, ns as f64 / 1e6, 0).finish_setup(started)
}

pub fn setup_shallow(seed: u64) -> (Box<dyn Workload>, f64) {
    let started = std::time::Instant::now();
    let (shapes, ns) = timed(|| {
        vec![
            (
                "star",
                shapes::star(N),
                list_of_edges as fn(&Tree) -> Represented,
            ),
            ("balanced-binary", shapes::balanced_kary(N, 2), parentheses),
            ("diameter-8", shapes::with_diameter(N, 8, seed), undirected),
        ]
    });
    Cold::new(shapes, seed, ns as f64 / 1e6, 2).finish_setup(started)
}

impl Workload for Cold {
    fn trees(&self) -> &[String] {
        &self.names
    }

    fn arm(&mut self) {
        let problem = max_is();
        for ct in &mut self.trees {
            let by_id: BTreeMap<u64, i64> = ct.weights.iter().copied().collect();
            ct.expected = sequential_best(&problem, &ct.edges, ct.root, |v| by_id[&v], |_| ());
        }
    }

    fn op(&mut self, t: &mut Tracer) -> OpOutcome {
        let mut out = OpOutcome::default();
        let root = t.begin_op("cold-solve");
        for (i, ct) in self.trees.iter().enumerate() {
            let (input, w) = (ct.input.clone(), ct.weights.clone());
            let (solved, ns) =
                timed(|| cold_solve(t, i, MpcContext::new(config(ct.tree.len())), input, w));
            out.wall_ns += ns;
            out.attempted += 1;
            // Before the oracle is filled (the warm-up), only a missing answer fails.
            if solved.best.is_none() || (ct.expected.is_some() && solved.best != ct.expected) {
                out.failed += 1;
            }
            self.sim.add(&solved.ctx);
        }
        t.end(root, 0, 0);
        out
    }

    fn sim(&self) -> Sim {
        self.sim
    }

    fn gauges(&self, g: &mut Gauges) {
        g.insert("treegen.generate.ms", self.generate_ms);
    }

    fn probe(&mut self, t: &mut Tracer, g: &mut Gauges) {
        // The deepest (or widest) tree first: the one the workload is named for.
        let ct = &self.trees[0];
        // The probes' contexts are their own: indices past the trees'.
        let key = self.trees.len();
        let mut solved = cold_solve(
            &mut Tracer::new(false),
            0,
            MpcContext::new(config(ct.tree.len())),
            ct.input.clone(),
            ct.weights.clone(),
        );
        probes::clustering_gauges(&solved.ctx, &solved.prepared, g);
        g.insert(
            "core.plan_resident_words",
            solved.plan.resident_words() as f64,
        );
        probes::fresh_solve(t, key, &mut solved.ctx, &solved.prepared, &ct.weights);
        probes::snapshot_round_trip(t, &solved.prepared, g);
        drop(solved);
        // Presorted keys on the path, scattered keys on diameter-8.
        probes::primitives(t, key + 1, &self.trees[self.primitives_on].tree, g);
        probes::par_speedup(ct.tree.len(), &ct.input, &ct.weights, g);
    }
}
