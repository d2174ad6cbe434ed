//! Peak local memory of a cold solve, shape by shape: which primitive, in which phase,
//! puts the most words on one machine.
//!
//! Every shape is solved as the cold benchmark workloads solve it: n = 2^16 nodes,
//! `MpcConfig::new(2n, δ)` (32× memory slack), prepare → plan → MaxIS, each tree in
//! the representation the workload feeds it. For each shape the example prints the
//! degree reduction's rounds and moved words, the words the clustering's path
//! subroutine (`cluster-paths`) moves per tree node, the words the clustering builder
//! moves itself per tree node (`build w/n`: the `clustering` phase less its
//! `cluster-sizes` and `cluster-paths` subroutines), the words the plan build moves per
//! tree node (`pbuild w/n`: the `plan-build` phase), the plan's skeleton words per tree
//! node, the words the evaluation's resident views hold per tree node once bottom-up
//! has filled them — every skeleton and every `(layer, machine)` bucket's slot columns,
//! summed over machines (`views w/n`, a report) — the plan's resident words beyond its
//! skeletons — its routing — per tree node (`route w/n`, a report), the plan's share
//! of the tree's snapshot per tree node — the tree's snapshot bytes with its plan
//! cached less those without (`snap B/n`, a report) — the peak local
//! memory against the `Θ(n^δ)` capacity, and the phases whose local-memory breaches
//! are largest.
//!
//! Three sections: δ = 1/2, the cold workloads' setting, is a gate — the example fails
//! unless every shape stays within capacity with no local-memory breach and its plan
//! skeletons take at most 8 words per tree node; δ = 1/2 at 8× slack and δ = 1/4 are
//! reported only, save that at δ = 1/2 `cluster-paths` may move at most 128, the
//! builder at most 48 and the plan build at most 16 words per tree node in either
//! section. In every section and on every row, a violation of any kind recorded in the
//! plan build (a `plan-build/` context) fails the run — every recorded violation is
//! checked, not just the three a row prints.
//!
//! Four more rows feed the star and the broom through the unrooted conversions, as
//! undirected edges and as parentheses, and print the violations of any kind recorded
//! in `normalize` (`norm`). At δ = 1/2 and 32× slack any such violation fails the run;
//! every other figure of these rows but the plan build's violations, and all of them
//! in the other two sections, is reported only.
//!
//! Run with: `cargo run --release --example memory_peaks`

use mpc_tree_dp::gen::shapes;
use mpc_tree_dp::mpc::ViolationKind;
use mpc_tree_dp::problems::MaxWeightIndependentSet;
use mpc_tree_dp::repr::{DirectedEdge, UndirectedEdges};
use mpc_tree_dp::{
    prepare, ListOfEdges, MpcConfig, MpcContext, StateEngine, StringOfParentheses, Tree, TreeInput,
};
use std::collections::BTreeMap;

const N: usize = 1 << 16;
const SEED: u64 = 7;
/// The most words the plan build may move per tree node at δ = 1/2. It read 19.9–58.9
/// (star) while it also sorted and probed the edge kinds and sorted whole cluster
/// elements, 12.6–29.4 (star) as one gather of whole elements and one probe, and
/// reads 3.5–10.5 (star) now that the gather ships 3-word member records.
const PBUILD_MAX: f64 = 16.0;

/// The representation a cold workload feeds a shape in.
#[derive(Clone, Copy)]
enum Given {
    RootedEdges,
    Parentheses,
    Undirected,
}

/// The input a shape is solved from and its node ids.
fn represent(tree: &Tree, given: Given) -> (TreeInput, Vec<u64>) {
    let ids = |edges: Vec<DirectedEdge>, root: u64| {
        let mut ids: Vec<u64> = edges.iter().map(|e| e.child).collect();
        ids.push(root);
        ids.sort_unstable();
        ids
    };
    let root = tree.root() as u64;
    match given {
        Given::Parentheses => {
            let string = StringOfParentheses::from_tree(tree);
            let (edges, root) = string.to_edges_sequential().expect("balanced");
            (TreeInput::StringOfParentheses(string), ids(edges, root))
        }
        Given::Undirected => (
            TreeInput::UndirectedEdges(UndirectedEdges::from_tree(tree)),
            ids(tree.edges(), root),
        ),
        Given::RootedEdges => (
            TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
            ids(tree.edges(), root),
        ),
    }
}

/// One shape's record at one δ.
struct Peaks {
    /// The degree reduction's rounds and moved words.
    degree: (u64, u64),
    /// The words the `cluster-paths` phases move, per tree node.
    paths_per_node: f64,
    /// The words the clustering builder moves outside its two subroutines, per tree
    /// node.
    build_per_node: f64,
    /// The words the plan build moves, per tree node.
    pbuild_per_node: f64,
    /// The plan's skeleton words per tree node.
    skeleton_per_node: f64,
    /// The views' resident words at the end of bottom-up per tree node: skeletons and
    /// slot columns, summed over machines.
    views_per_node: f64,
    /// The plan's resident words beyond its skeletons per tree node.
    route_per_node: f64,
    /// The plan's share of the tree's snapshot bytes per tree node.
    snapshot_per_node: f64,
    /// The violations of any kind recorded inside the `normalize` phase.
    normalize_violations: usize,
    /// The violations of any kind recorded inside the `plan-build` phase.
    pbuild_violations: usize,
    peak: usize,
    capacity: usize,
    /// The largest local-memory breach per context, largest first.
    breaches: Vec<(String, usize)>,
}

fn measure(tree: &Tree, given: Given, delta: f64, slack: f64) -> Peaks {
    let (input, ids) = represent(tree, given);
    let config = MpcConfig::new(2 * tree.len(), delta).with_memory_slack(slack);
    let mut ctx = MpcContext::new(config);
    let prepared = prepare(&mut ctx, input, None).expect("generated trees are well-formed");
    let degree = ctx
        .metrics()
        .phases
        .iter()
        .find(|p| p.name == "degree-reduction")
        .map_or((0, 0), |p| (p.rounds, p.words_sent));
    let per_node = |ctx: &MpcContext, name: &str| -> f64 {
        let phases = ctx.metrics().phases.iter().filter(|p| p.name == name);
        phases.map(|p| p.words_sent).sum::<u64>() as f64 / tree.len() as f64
    };
    let paths_per_node = per_node(&ctx, "cluster-paths");
    let build_per_node =
        per_node(&ctx, "clustering") - per_node(&ctx, "cluster-sizes") - paths_per_node;
    let weights = ctx.from_vec(ids.iter().map(|&v| (v, 1 + (v % 30) as i64)).collect());
    let no_edges = ctx.from_vec(Vec::<(u64, ())>::new());
    let plan = prepared.plan_uncached(&mut ctx);
    let pbuild_per_node = per_node(&ctx, "plan-build");
    let skeleton_per_node = plan.skeleton_words() as f64 / tree.len() as f64;
    let route_per_node = (plan.resident_words() - plan.skeleton_words()) as f64 / tree.len() as f64;
    // The same plan cached on a copy of the tree, built where it charges no figure.
    let cached = prepared.clone();
    cached.plan(&mut MpcContext::new(config));
    let share = cached.to_snapshot().len() - prepared.to_snapshot().len();
    let snapshot_per_node = share as f64 / tree.len() as f64;
    let engine = StateEngine::new(MaxWeightIndependentSet);
    let (solution, store) = plan.solve_with_store(&mut ctx, &engine, &weights, 0, &no_edges);
    assert!(solution.root_summary.best(engine.problem()).is_some());
    let views_per_node = store.view_words() as f64 / tree.len() as f64;

    let metrics = ctx.metrics();
    let violations_in = |phase: &str| {
        let prefix = format!("{phase}/");
        let violations = metrics.violations.iter();
        violations
            .filter(|v| v.context.starts_with(&prefix))
            .count()
    };
    let mut worst: BTreeMap<&str, usize> = BTreeMap::new();
    for v in &metrics.violations {
        if v.kind == ViolationKind::LocalMemory {
            let peak = worst.entry(v.context.as_str()).or_default();
            *peak = (*peak).max(v.observed);
        }
    }
    let mut breaches: Vec<(String, usize)> = worst
        .into_iter()
        .map(|(context, words)| (context.to_string(), words))
        .collect();
    breaches.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    Peaks {
        degree,
        paths_per_node,
        build_per_node,
        pbuild_per_node,
        skeleton_per_node,
        views_per_node,
        route_per_node,
        snapshot_per_node,
        normalize_violations: violations_in("normalize"),
        pbuild_violations: violations_in("plan-build"),
        peak: metrics.peak_local_memory,
        capacity: ctx.config().local_capacity(),
        breaches,
    }
}

fn main() {
    use Given::{Parentheses, RootedEdges, Undirected};
    let trees: [(&str, Tree, Given); 7] = [
        ("path", shapes::path(N), RootedEdges),
        ("broom", shapes::broom(N / 2, N / 2), RootedEdges),
        ("caterpillar", shapes::caterpillar(N / 4, 3), RootedEdges),
        ("star", shapes::star(N), RootedEdges),
        ("balanced-binary", shapes::balanced_kary(N, 2), Parentheses),
        ("diameter-8", shapes::with_diameter(N, 8, SEED), Undirected),
        (
            "random-recursive",
            shapes::random_recursive(N, SEED),
            RootedEdges,
        ),
    ];
    let conversions: [(&str, Tree, Given); 4] = [
        ("star/undirected", shapes::star(N), Undirected),
        ("star/parens", shapes::star(N), Parentheses),
        ("broom/undirected", shapes::broom(N / 2, N / 2), Undirected),
        ("broom/parens", shapes::broom(N / 2, N / 2), Parentheses),
    ];
    let mut over: Vec<String> = Vec::new();
    let sections = [
        (0.5, 32.0, "δ = 1/2, 32× slack (gated)"),
        (0.5, 8.0, "δ = 1/2, 8× slack (report)"),
        (0.25, 32.0, "δ = 1/4, 32× slack (report)"),
    ];
    for (delta, slack, section) in sections {
        let gated = delta == 0.5 && slack == 32.0;
        println!("{section}");
        println!(
            "{:<17} {:>15} {:>9} {:>9} {:>10} {:>9} {:>10} {:>10} {:>9} {:>5} {:>10} {:>9} {:>7}  worst breaches (phase/primitive: words)",
            "shape", "degree rnd/words", "paths w/n", "build w/n", "pbuild w/n", "plan w/n", "views w/n", "route w/n", "snap B/n", "norm", "peak", "capacity", "ratio"
        );
        let rows = trees.iter().map(|row| (row, true));
        for ((name, tree, given), cold) in rows.chain(conversions.iter().map(|row| (row, false))) {
            let peaks = measure(tree, *given, delta, slack);
            let worst: Vec<String> = peaks
                .breaches
                .iter()
                .take(3)
                .map(|(context, words)| format!("{context}: {words}"))
                .collect();
            println!(
                "{name:<17} {:>15} {:>9.2} {:>9.2} {:>10.2} {:>9.2} {:>10.2} {:>10.2} {:>9.1} {:>5} {:>10} {:>9} {:>7.2}  {}",
                format!("{}/{}", peaks.degree.0, peaks.degree.1),
                peaks.paths_per_node,
                peaks.build_per_node,
                peaks.pbuild_per_node,
                peaks.skeleton_per_node,
                peaks.views_per_node,
                peaks.route_per_node,
                peaks.snapshot_per_node,
                peaks.normalize_violations,
                peaks.peak,
                peaks.capacity,
                peaks.peak as f64 / peaks.capacity as f64,
                match worst.is_empty() {
                    true => "none".to_string(),
                    false => worst.join(", "),
                }
            );
            if gated && peaks.normalize_violations > 0 {
                over.push(format!(
                    "{name}: {} violations in normalize",
                    peaks.normalize_violations
                ));
            }
            if peaks.pbuild_violations > 0 {
                over.push(format!(
                    "{name} at δ = {delta}, {slack}× slack: {} violations in plan-build",
                    peaks.pbuild_violations
                ));
            }
            if !cold {
                continue;
            }
            if gated && (peaks.peak > peaks.capacity || !peaks.breaches.is_empty()) {
                over.push(format!("{name}: peak {} of {}", peaks.peak, peaks.capacity));
            }
            if gated && peaks.skeleton_per_node > 8.0 {
                over.push(format!(
                    "{name}: {:.2} skeleton words per tree node",
                    peaks.skeleton_per_node
                ));
            }
            if delta == 0.5 && peaks.paths_per_node > 128.0 {
                over.push(format!(
                    "{name} at {slack}× slack: cluster-paths moves {:.2} words per tree node",
                    peaks.paths_per_node
                ));
            }
            if delta == 0.5 && peaks.build_per_node > 48.0 {
                over.push(format!(
                    "{name} at {slack}× slack: the clustering builder moves {:.2} words per tree node",
                    peaks.build_per_node
                ));
            }
            if delta == 0.5 && peaks.pbuild_per_node > PBUILD_MAX {
                over.push(format!(
                    "{name} at {slack}× slack: the plan build moves {:.2} words per tree node",
                    peaks.pbuild_per_node
                ));
            }
        }
    }
    assert!(over.is_empty(), "gate failed: {}", over.join("; "));
}
