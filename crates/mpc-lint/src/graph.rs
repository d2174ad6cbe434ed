//! Workspace symbol table and call graph.
//!
//! Pass 1 collects every function span from the per-file models into a symbol
//! table keyed by name, module path, and (for associated fns) the impl self type.
//! Pass 2 resolves every call site against that table: qualified calls by path
//! segment / self-type match, method calls by name within plausible crates, bare
//! calls by proximity (same file, then same crate, then anywhere). Pass 3 marks
//! every function that *transitively* reaches a charged `MpcContext` primitive as
//! exchange-performing — the property the `round-blowup` and `cost-annotation`
//! rules condition on.
//!
//! The resolver is deliberately an over-approximation (a method call can resolve
//! to several same-named candidates); rules that could false-positive on that
//! take the *minimum* cost over candidates instead of the maximum.

use crate::model::{FileKind, FileModel};
use std::collections::{BTreeMap, BTreeSet};

/// `MpcContext` methods that charge rounds/volume. A call to one of these (on a
/// receiver that is plausibly a context) is a *direct* exchange.
pub const CHARGED_PRIMITIVES: [&str; 15] = [
    "route",
    "rebalance",
    "all_reduce",
    "communicate",
    "sort_by_key",
    "sort_with_index",
    "with_index",
    "sort_table",
    "join_lookup",
    "join_lookup_sorted",
    "gather_groups",
    "prefix_sums",
    "charge_rounds",
    "record_comm",
    "record_uniform_comm",
];

/// One function in the workspace.
#[derive(Debug, Clone)]
pub struct Symbol {
    /// Index into the `files` slice the graph was built from.
    pub file: usize,
    /// Index into that file's `fns`.
    pub fn_idx: usize,
    pub name: String,
    /// Module path derived from the file path (`crates/core/src/plan.rs` →
    /// `core::plan`).
    pub module: String,
    /// Head identifier of the enclosing impl's self type, if any.
    pub impl_type: Option<String>,
    pub crate_name: String,
    pub is_pub: bool,
    pub is_test: bool,
    /// 1-based declaration line.
    pub line: usize,
    /// 1-based closing-brace line (inclusive).
    pub end: usize,
}

impl Symbol {
    /// Stable display name: `module::Type::fn` / `module::fn`.
    pub fn display(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{}::{}::{}", self.module, t, self.name),
            None => format!("{}::{}", self.module, self.name),
        }
    }
}

/// One call site inside a function, with its resolved candidate callees.
#[derive(Debug, Clone)]
pub struct Site {
    /// 1-based line in the caller's file.
    pub line: usize,
    /// Called identifier.
    pub name: String,
    /// Candidate callee symbol ids (empty when the call resolves outside the
    /// workspace — std, vendored stand-ins).
    pub callees: Vec<usize>,
    /// The call is itself a charged `MpcContext` primitive.
    pub charged: bool,
}

/// The resolved workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    pub symbols: Vec<Symbol>,
    /// Per symbol: its call sites, in line order.
    pub sites: Vec<Vec<Site>>,
    /// Per symbol: transitively reaches a charged primitive.
    pub exchanges: Vec<bool>,
}

impl CallGraph {
    pub fn build(files: &[FileModel]) -> CallGraph {
        // ---- pass 1: symbol table -----------------------------------------------
        let mut symbols = Vec::new();
        for (fi, fm) in files.iter().enumerate() {
            let module = module_path(&fm.path);
            for (idx, f) in fm.fns.iter().enumerate() {
                symbols.push(Symbol {
                    file: fi,
                    fn_idx: idx,
                    name: f.name.clone(),
                    module: module.clone(),
                    impl_type: f.impl_type.clone(),
                    crate_name: fm.crate_name.clone(),
                    is_pub: f.is_pub,
                    is_test: f.is_test || fm.kind == FileKind::Test,
                    line: f.start,
                    end: f.end,
                });
            }
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (sid, s) in symbols.iter().enumerate() {
            by_name.entry(s.name.clone()).or_default().push(sid);
        }
        // Identifier vocabulary per file, used to judge whether a method call's
        // self type is even in scope there.
        let vocab: Vec<BTreeSet<String>> = files.iter().map(file_vocab).collect();

        // ---- pass 2: site resolution --------------------------------------------
        // Map (file, line) → innermost enclosing symbol, via span containment.
        let mut sites: Vec<Vec<Site>> = vec![Vec::new(); symbols.len()];
        for (fi, fm) in files.iter().enumerate() {
            for call in &fm.calls {
                let Some(owner) = enclosing_symbol(&symbols, fi, call.line) else {
                    continue; // top-level const initializers etc.
                };
                let charged = call.method
                    && is_charged_name(&call.name)
                    && ctx_receiver(call.recv.as_deref(), &call.name);
                let candidates = by_name.get(&call.name).map(Vec::as_slice).unwrap_or(&[]);
                let mut callees: Vec<usize> = Vec::new();
                if let Some(q) = call.quals.last() {
                    if q.chars().next().is_some_and(char::is_uppercase) {
                        // `Type::fn(..)` — match the impl self type.
                        callees.extend(
                            candidates.iter().copied().filter(|&sid| {
                                symbols[sid].impl_type.as_deref() == Some(q.as_str())
                            }),
                        );
                    } else {
                        // `path::fn(..)` — match a module segment or the crate name
                        // (package names are underscored: `tree_dp_core` → `core`).
                        callees.extend(candidates.iter().copied().filter(|&sid| {
                            let s = &symbols[sid];
                            s.impl_type.is_none()
                                && (s.module.split("::").any(|seg| seg_matches(q, seg))
                                    || crate_matches(q, &s.crate_name))
                        }));
                    }
                } else if call.method {
                    // `.fn(..)` — any associated fn of that name whose self type is
                    // plausibly in scope: same crate, or the caller's file mentions
                    // the type.
                    callees.extend(candidates.iter().copied().filter(|&sid| {
                        let s = &symbols[sid];
                        let Some(t) = &s.impl_type else { return false };
                        s.crate_name == files[fi].crate_name || vocab[fi].contains(t)
                    }));
                } else {
                    // Bare call — nearest scope wins.
                    let free: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&sid| symbols[sid].impl_type.is_none())
                        .collect();
                    let same_file: Vec<usize> = free
                        .iter()
                        .copied()
                        .filter(|&sid| symbols[sid].file == fi)
                        .collect();
                    let same_crate: Vec<usize> = free
                        .iter()
                        .copied()
                        .filter(|&sid| symbols[sid].crate_name == files[fi].crate_name)
                        .collect();
                    callees.extend(if !same_file.is_empty() {
                        same_file
                    } else if !same_crate.is_empty() {
                        same_crate
                    } else {
                        free
                    });
                }
                callees.retain(|&sid| sid != owner); // self-recursion adds nothing
                sites[owner].push(Site {
                    line: call.line,
                    name: call.name.clone(),
                    callees,
                    charged,
                });
            }
        }

        // ---- pass 3: exchange closure (reverse BFS from charged sites) ----------
        let mut exchanges = vec![false; symbols.len()];
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); symbols.len()];
        let mut work: Vec<usize> = Vec::new();
        for (sid, ss) in sites.iter().enumerate() {
            for site in ss {
                for &c in &site.callees {
                    rev[c].push(sid);
                }
                if site.charged && !exchanges[sid] {
                    exchanges[sid] = true;
                    work.push(sid);
                }
            }
        }
        while let Some(sid) = work.pop() {
            for &caller in &rev[sid] {
                if !exchanges[caller] {
                    exchanges[caller] = true;
                    work.push(caller);
                }
            }
        }

        CallGraph {
            symbols,
            sites,
            exchanges,
        }
    }

    /// Deterministic edge list for `--dump-graph`: one `caller -> callee` line per
    /// resolved edge (deduplicated, sorted), exchange-performing callers marked,
    /// under a header counting functions, edges, charged sites and
    /// exchange-performing functions.
    pub fn render(&self) -> String {
        let sites = || self.sites.iter().flatten();
        let mut out = format!(
            "# call graph: {} fn(s), {} edge(s), {} charged site(s), {} exchange-performing\n",
            self.symbols.len(),
            sites().map(|s| s.callees.len()).sum::<usize>(),
            sites().filter(|s| s.charged).count(),
            self.exchanges.iter().filter(|&&e| e).count()
        );
        let mut lines: BTreeSet<String> = BTreeSet::new();
        for (sid, ss) in self.sites.iter().enumerate() {
            let caller = self.symbols[sid].display();
            let mark = if self.exchanges[sid] {
                " [exchanges]"
            } else {
                ""
            };
            for site in ss {
                if site.charged {
                    lines.insert(format!("{caller}{mark} -> <charged:{}>", site.name));
                }
                for &c in &site.callees {
                    lines.insert(format!("{caller}{mark} -> {}", self.symbols[c].display()));
                }
            }
        }
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
        out
    }
}

fn is_charged_name(name: &str) -> bool {
    CHARGED_PRIMITIVES.contains(&name)
}

/// A charged-primitive method call counts only when the receiver looks like an
/// `MpcContext` (`ctx`, `self.ctx`, `mpc_ctx`, …) or is `self` (inside the engine
/// itself). This keeps `v.sort_by_key(..)` on a plain `Vec` out of the picture.
fn ctx_receiver(recv: Option<&str>, _name: &str) -> bool {
    match recv {
        Some(r) => r.contains("ctx") || r == "self",
        None => false,
    }
}

/// `seg_matches("plan", "plan")`, tolerating dash/underscore differences.
fn seg_matches(q: &str, seg: &str) -> bool {
    q == seg || q.replace('_', "-") == seg || seg.replace('-', "_") == q
}

/// Whether path qualifier `q` (an underscored package name like `tree_dp_core` or
/// `mpc_engine`) plausibly names the crate directory `crate_name` (`core`, `mpc`).
fn crate_matches(q: &str, crate_name: &str) -> bool {
    if crate_name.is_empty() {
        return false;
    }
    let qd = q.replace('_', "-");
    qd == crate_name
        || qd.ends_with(&format!("-{crate_name}"))
        || qd.starts_with(&format!("{crate_name}-"))
}

/// Innermost (narrowest) function span containing `line` in file `fi`.
fn enclosing_symbol(symbols: &[Symbol], fi: usize, line: usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None; // (span width, sid)
    for (sid, s) in symbols.iter().enumerate() {
        if s.file == fi && s.line <= line && line <= s.end {
            let width = s.end - s.line;
            if best.map_or(true, |(w, _)| width < w) {
                best = Some((width, sid));
            }
        }
    }
    best.map(|(_, sid)| sid)
}

/// Identifier vocabulary of a file (whole tokens of the scrubbed lines).
fn file_vocab(fm: &FileModel) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in &fm.lines {
        let mut ident = String::new();
        for c in line.chars().chain(std::iter::once(' ')) {
            if c.is_alphanumeric() || c == '_' {
                ident.push(c);
            } else if !ident.is_empty() {
                out.insert(std::mem::take(&mut ident));
            }
        }
    }
    out
}

/// `crates/core/src/plan.rs` → `core::plan`; `crates/core/src/lib.rs` → `core`;
/// `tests/foo.rs` → `tests::foo`; `examples/foo.rs` → `examples::foo`.
pub fn module_path(path: &str) -> String {
    let stem = |s: &str| s.trim_end_matches(".rs").to_string();
    if let Some(rest) = path.strip_prefix("crates/") {
        let mut parts: Vec<String> = rest.split('/').map(str::to_string).collect();
        if parts.len() >= 2 && parts[1] == "src" {
            parts.remove(1);
        }
        if let Some(last) = parts.last_mut() {
            *last = stem(last);
        }
        if parts
            .last()
            .is_some_and(|l| l == "lib" || l == "mod" || l == "main")
        {
            parts.pop();
        }
        parts.join("::")
    } else {
        stem(path).replace('/', "::")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_paths() {
        assert_eq!(module_path("crates/core/src/plan.rs"), "core::plan");
        assert_eq!(module_path("crates/core/src/lib.rs"), "core");
        assert_eq!(
            module_path("crates/mpc/src/primitives.rs"),
            "mpc::primitives"
        );
        assert_eq!(module_path("tests/integration.rs"), "tests::integration");
        assert_eq!(
            module_path("examples/quickstart.rs"),
            "examples::quickstart"
        );
    }

    #[test]
    fn crate_name_fuzzing() {
        assert!(crate_matches("tree_dp_core", "core"));
        assert!(crate_matches("mpc_engine", "mpc"));
        assert!(crate_matches("incremental", "incremental"));
        assert!(!crate_matches("tree_dp_core", "mpc"));
    }
}
