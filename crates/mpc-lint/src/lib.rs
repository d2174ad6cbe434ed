//! `mpc-lint`: workspace static analysis enforcing MPC model discipline.
//!
//! The repo's headline guarantees — a zero-realloc primitive hot path, round counts
//! that follow the paper's bounds, and snapshots that stay readable — are runtime
//! properties the test suite can only probe on specific inputs. This crate checks
//! the *code shapes* that put them at risk, before anything runs: hot-loop
//! allocation, exchanges inside unbounded loops, undeclared or inconsistent round
//! budgets, and snapshot codec drift. What the compiler can check it checks
//! instead (see [`rules`]).
//!
//! Pure `std`, no `syn`, offline: a scrubbing lexer ([`lexer`]) plus a line-oriented
//! context model ([`model`]) feed a small rule engine ([`rules`]). A resolution pass
//! ([`graph`]) links every call site to its candidate callees across the whole
//! workspace; the `round-blowup` and `cost-annotation` rules ([`cost`]) walk that
//! graph, and `snapshot-abi` ([`abi`]) fingerprints the snapshot codec against the
//! committed `snapshot-abi.lock`. Findings print rustc-style ([`report`]); inline
//! `// mpc-lint: allow(<rule>) — <reason>` comments suppress individual findings.
//!
//! Run it with `cargo run -p mpc-lint` from anywhere inside the workspace.

pub mod abi;
pub mod cost;
pub mod graph;
pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;

pub use abi::{AbiSurface, Lock};
pub use cost::{CostClass, NoteProblem};
pub use graph::{module_path, CallGraph, Site, Symbol, CHARGED_PRIMITIVES};
pub use model::{type_head, CallSite, FileModel, FnSpan, ImplSpan};
pub use report::{render_text, Finding};
pub use rules::{
    lint, LintConfig, ALLOC_HYGIENE, ALLOW_DIRECTIVE, ALL_RULES, COST_ANNOTATION, ROUND_BLOWUP,
    SNAPSHOT_ABI,
};

use std::path::{Path, PathBuf};

/// Lint in-memory sources given as `(workspace-relative path, source)` pairs — the
/// entry point fixture tests use. The call graph and the snapshot ABI surface see
/// exactly the files passed in.
pub fn lint_sources(sources: &[(&str, &str)], cfg: &LintConfig) -> Vec<Finding> {
    let models: Vec<FileModel> = sources
        .iter()
        .map(|(path, src)| FileModel::build(path, src))
        .collect();
    lint(&models, cfg)
}

/// Find the workspace root: the nearest ancestor of `start` containing both a
/// `Cargo.toml` and a `crates/` directory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Collect every workspace `.rs` file to lint, as `(relative path, absolute path)`
/// pairs in deterministic order. Skips `vendor/` (external stand-ins), `target/`,
/// and fixture trees (intentionally non-conforming sources).
fn collect_files(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name == "fixtures" {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Load every workspace source into a [`FileModel`]; unreadable files become
/// findings rather than aborting the run.
pub fn load_workspace_models(root: &Path) -> std::io::Result<(Vec<FileModel>, Vec<Finding>)> {
    let files = collect_files(root)?;
    let mut models = Vec::with_capacity(files.len());
    let mut io_findings = Vec::new();
    for (rel, abs) in &files {
        match std::fs::read_to_string(abs) {
            Ok(src) => models.push(FileModel::build(rel, &src)),
            Err(e) => io_findings.push(Finding {
                rule: rules::ALLOW_DIRECTIVE,
                file: rel.clone(),
                line: 1,
                message: format!("cannot read file: {e}"),
            }),
        }
    }
    Ok((models, io_findings))
}

/// Fill in the workspace-level inputs the rules need from disk: currently the
/// committed `snapshot-abi.lock`, when present.
fn load_workspace_config(root: &Path, cfg: &mut LintConfig) {
    let lock_path = root.join("snapshot-abi.lock");
    if let Ok(text) = std::fs::read_to_string(lock_path) {
        cfg.abi_lock = Some(text);
    }
}

/// Lint the workspace rooted at `root`; returns findings and the number of files
/// scanned. Reads `snapshot-abi.lock` from the root unless the config already
/// carries one. IO errors on individual files become findings rather than aborting
/// the whole run.
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> std::io::Result<(Vec<Finding>, usize)> {
    let mut cfg = cfg.clone();
    if cfg.abi_lock.is_none() {
        load_workspace_config(root, &mut cfg);
    }
    let (models, io_findings) = load_workspace_models(root)?;
    let mut findings = lint(&models, &cfg);
    findings.extend(io_findings);
    Ok((findings, models.len()))
}
