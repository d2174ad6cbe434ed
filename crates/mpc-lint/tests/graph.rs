//! Integration tests for the resolution pass: a golden `--dump-graph` render
//! over a two-crate mini-workspace, and the self-hosting check — mpc-lint run
//! over the real workspace it lives in must come back clean.

use mpc_lint::{find_workspace_root, lint_workspace, CallGraph, FileModel, LintConfig};
use std::path::Path;

const ALPHA: &str = "\
pub struct Engine;

impl Engine {
    pub fn run(&self, ctx: &mut MpcContext, work: DistVec<u64>) -> DistVec<u64> {
        let staged = stage(work);
        ctx.rebalance(staged)
    }
}

fn stage(work: DistVec<u64>) -> DistVec<u64> {
    work
}
";

const BETA: &str = "\
pub fn drive(engine: &Engine, ctx: &mut MpcContext, work: DistVec<u64>) -> DistVec<u64> {
    engine.run(ctx, work)
}
";

fn mini_workspace() -> CallGraph {
    let models = vec![
        FileModel::build("crates/alpha/src/lib.rs", ALPHA),
        FileModel::build("crates/beta/src/pipeline.rs", BETA),
    ];
    CallGraph::build(&models)
}

/// The golden `--dump-graph` output: the header counts every resolved edge and
/// charged site, the edge list is sorted, exchange-performing callers are
/// marked, and charged primitives show up as `<charged:...>` pseudo-callees.
#[test]
fn dump_graph_render_is_golden() {
    let graph = mini_workspace();
    let expected = "\
# call graph: 3 fn(s), 2 edge(s), 1 charged site(s), 2 exchange-performing
alpha::Engine::run [exchanges] -> <charged:rebalance>
alpha::Engine::run [exchanges] -> alpha::stage
beta::pipeline::drive [exchanges] -> alpha::Engine::run
";
    assert_eq!(graph.render(), expected);
}

/// The exchange closure behind the golden render: `run` charges directly,
/// `drive` reaches the charge through the resolved method call, `stage` is
/// machine-local.
#[test]
fn exchange_closure_crosses_crates() {
    let graph = mini_workspace();
    let by_display: Vec<(String, bool)> = graph
        .symbols
        .iter()
        .enumerate()
        .map(|(sid, s)| (s.display(), graph.exchanges[sid]))
        .collect();
    assert!(by_display.contains(&("alpha::Engine::run".into(), true)));
    assert!(by_display.contains(&("beta::pipeline::drive".into(), true)));
    assert!(by_display.contains(&("alpha::stage".into(), false)));
}

/// Self-hosting: the workspace this crate ships in — mpc-lint's own sources
/// included — lints clean under all four rules with the committed
/// `snapshot-abi.lock`.
#[test]
fn self_hosting_workspace_lints_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("mpc-lint lives inside the workspace");
    let (findings, scanned) =
        lint_workspace(&root, &LintConfig::default()).expect("workspace sources are readable");
    assert!(
        scanned > 50,
        "workspace walk looks wrong: only {scanned} files scanned"
    );
    assert!(
        findings.is_empty(),
        "workspace must lint clean, got {} finding(s):\n{:#?}",
        findings.len(),
        findings
    );
}
