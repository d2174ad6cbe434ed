//! CLI for the MPC model-discipline linter.
//!
//! ```text
//! cargo run -p mpc-lint [-- --root <dir>] [--rule <id>]
//!                       [--dump-graph] [--write-abi-lock <path>]
//! ```
//!
//! Exits non-zero when any finding survives the inline allow directives, so CI can
//! gate on it directly. `--dump-graph` prints the resolved call graph instead of
//! linting; `--write-abi-lock` regenerates the snapshot-ABI lockfile (CI writes it
//! to a temp path and diffs against the committed one).

use mpc_lint::{
    abi, find_workspace_root, lint_workspace, load_workspace_models, render_text, CallGraph,
    LintConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dump_graph = args.iter().any(|a| a == "--dump-graph");
    let flag = |name: &str| {
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("mpc-lint: {name} requires a value");
                std::process::exit(2);
            })
        })
    };
    let root = match flag("--root") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|e| {
                eprintln!("mpc-lint: cannot determine working directory: {e}");
                std::process::exit(2);
            });
            find_workspace_root(&cwd).unwrap_or_else(|| {
                eprintln!(
                    "mpc-lint: no workspace root (Cargo.toml + crates/) above {}",
                    cwd.display()
                );
                std::process::exit(2);
            })
        }
    };
    let rule_filter = flag("--rule");
    let abi_lock_out = flag("--write-abi-lock");

    let models_of = |root: &std::path::Path| {
        load_workspace_models(root).unwrap_or_else(|e| {
            eprintln!("mpc-lint: cannot scan {}: {e}", root.display());
            std::process::exit(2);
        })
    };

    if let Some(out_path) = abi_lock_out {
        // Regenerate the snapshot-ABI lockfile and exit: this mode never lints.
        let (models, _) = models_of(&root);
        let surface = abi::extract(&models);
        let text = abi::render_lock(&surface);
        if let Err(e) = std::fs::write(&out_path, &text) {
            eprintln!("mpc-lint: cannot write {out_path}: {e}");
            std::process::exit(2);
        }
        eprintln!(
            "mpc-lint: wrote {out_path} ({} impl(s), {} kind(s))",
            surface.impls.len(),
            surface.kinds.len()
        );
        return;
    }

    if dump_graph {
        let (models, _) = models_of(&root);
        let graph = CallGraph::build(&models);
        print!("{}", graph.render());
        return;
    }

    let cfg = LintConfig::default();
    let (mut findings, files_scanned) = lint_workspace(&root, &cfg).unwrap_or_else(|e| {
        eprintln!("mpc-lint: cannot scan {}: {e}", root.display());
        std::process::exit(2);
    });
    if let Some(rule) = &rule_filter {
        findings.retain(|f| f.rule == rule.as_str());
    }

    print!("{}", render_text(&findings));
    eprintln!(
        "mpc-lint: {} finding(s) across {} file(s)",
        findings.len(),
        files_scanned
    );
    if !findings.is_empty() {
        std::process::exit(1);
    }
}
