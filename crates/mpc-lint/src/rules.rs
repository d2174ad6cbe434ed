//! The rule engine: four repo-specific rules that statically enforce the MPC model
//! discipline the runtime `Violation` machinery (see `crates/mpc/src/context.rs`)
//! can only observe dynamically. `alloc-hygiene` is a per-file token rule; two ride
//! the resolved call graph ([`crate::graph`]); `snapshot-abi` compares the codec
//! against the committed lockfile.
//!
//! | rule              | enforces                                                   |
//! |-------------------|------------------------------------------------------------|
//! | `alloc-hygiene`   | no fresh allocation inside hot-path loops (use `Scratch`)  |
//! | `round-blowup`    | no (transitive) exchange inside an unbounded loop          |
//! | `cost-annotation` | `// mpc-cost: rounds(<class>)` present and call-consistent |
//! | `snapshot-abi`    | `Snapshot` impl bodies match the committed ABI lockfile    |
//!
//! What each catches that no compiler lint, clippy lint or test does (its
//! `*_bad.rs` fixture plants one):
//! - `alloc-hygiene`: a buffer allocated and freed on every loop trip, which
//!   leaves `alloc_steady_state`'s net heap growth at zero.
//! - `round-blowup`: an exchange inside a `while` on a path no tree of the
//!   rounds-baseline test reaches.
//! - `cost-annotation`: a `const`-declared fn calling a `layers` one; no test
//!   reads the declared classes.
//! - `snapshot-abi`: a codec body changed without a version bump; encode and
//!   decode change together, so every round-trip test still passes.
//!
//! The checks that used to live here moved to the compiler: cross-machine chunk
//! access is `pub(crate)` in `mpc-engine` (the `mpc_engine::unmetered` door names
//! every use), `HashMap`/`HashSet` and the wall clocks are `clippy.toml`'s
//! `disallowed-types`/`disallowed-methods`, library `unwrap` is the workspace's
//! `clippy::unwrap_used = "deny"`, and crate-private dead code is rustc's
//! `dead_code`.

use crate::abi;
use crate::cost;
use crate::graph::CallGraph;
use crate::model::{FileKind, FileModel};
use crate::report::Finding;
use std::collections::{BTreeMap, BTreeSet};

pub const ALLOC_HYGIENE: &str = "alloc-hygiene";
pub const ROUND_BLOWUP: &str = "round-blowup";
pub const COST_ANNOTATION: &str = "cost-annotation";
pub const SNAPSHOT_ABI: &str = "snapshot-abi";
/// Meta-rule: malformed `mpc-lint: allow` directives (no reason, unknown rule).
/// Not itself suppressible.
pub const ALLOW_DIRECTIVE: &str = "allow-directive";

/// Every suppressible rule identifier.
pub const ALL_RULES: [&str; 4] = [ALLOC_HYGIENE, ROUND_BLOWUP, COST_ANNOTATION, SNAPSHOT_ABI];

/// Tunable knobs of the engine.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Files whose loop bodies must not allocate (`alloc-hygiene` scope): the
    /// communication primitives and the solver/plan evaluation layer.
    pub hot_paths: Vec<String>,
    /// Path prefixes where exchanges inside unbounded loops are the algorithm
    /// (the layered contraction loop itself) — `round-blowup` skips them.
    pub round_whitelist: Vec<String>,
    /// Path prefixes whose plain-`pub` fns must carry an `mpc-cost` annotation.
    pub cost_required: Vec<String>,
    /// Contents of the committed `snapshot-abi.lock`, when present.
    pub abi_lock: Option<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            hot_paths: [
                "crates/mpc/src/primitives.rs",
                "crates/mpc/src/prefix.rs",
                "crates/mpc/src/context.rs",
                "crates/core/src/plan.rs",
            ]
            .map(str::to_string)
            .to_vec(),
            round_whitelist: ["crates/mpc/src/", "crates/clustering/src/"]
                .map(str::to_string)
                .to_vec(),
            cost_required: [
                "crates/core/src/plan.rs",
                "crates/incremental/src/",
                "crates/tree-dp-server/src/",
            ]
            .map(str::to_string)
            .to_vec(),
            abi_lock: None,
        }
    }
}

/// Run every rule over `files` (one workspace), apply `allow` directives, and return
/// the surviving findings sorted by file/line.
pub fn lint(files: &[FileModel], cfg: &LintConfig) -> Vec<Finding> {
    let graph = CallGraph::build(files);
    let mut findings = Vec::new();
    for fm in files {
        alloc_hygiene(fm, cfg, &mut findings);
    }
    round_blowup(files, &graph, cfg, &mut findings);
    cost_annotation(files, &graph, cfg, &mut findings);
    snapshot_abi(files, cfg, &mut findings);
    let mut findings = apply_allows(files, findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

// ----- R1: allocation hygiene ----------------------------------------------------

/// The zero-realloc hot path (PR 4) dies by a thousand `collect()`s: inside the
/// configured hot files, loop bodies must draw buffers from the `Scratch` arena
/// instead of allocating fresh ones per iteration.
fn alloc_hygiene(fm: &FileModel, cfg: &LintConfig, out: &mut Vec<Finding>) {
    if !cfg.hot_paths.iter().any(|p| p == &fm.path) {
        return;
    }
    const PATTERNS: [&str; 3] = ["Vec::new(", "vec![", ".collect()"];
    for (idx, line) in fm.lines.iter().enumerate() {
        if fm.line_is_test(idx + 1) || !fm.in_loop[idx] {
            continue;
        }
        for pat in PATTERNS {
            if line.contains(pat) {
                out.push(Finding {
                    rule: ALLOC_HYGIENE,
                    file: fm.path.clone(),
                    line: idx + 1,
                    message: format!(
                        "`{}` inside a hot-path loop: allocate once outside the loop or \
                         draw the buffer from the `Scratch` arena \
                         (crates/mpc/src/scratch.rs)",
                        pat.trim_end_matches('(')
                    ),
                });
            }
        }
    }
}

// ----- R2: round blowup (call graph) ---------------------------------------------

/// The paper's O(log n) round bound dies the moment an exchange-performing call
/// sits inside a loop whose trip count is data-dependent (`while`/`loop`). The
/// layered contraction loop itself is whitelisted by path — everything else must
/// restructure (batch the exchange, or hoist it out of the loop).
fn round_blowup(files: &[FileModel], graph: &CallGraph, cfg: &LintConfig, out: &mut Vec<Finding>) {
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (sid, sites) in graph.sites.iter().enumerate() {
        let sym = &graph.symbols[sid];
        let fm = &files[sym.file];
        if fm.kind != FileKind::LibSrc
            || sym.is_test
            || cfg.round_whitelist.iter().any(|p| fm.path.starts_with(p))
        {
            continue;
        }
        for site in sites {
            if !fm
                .in_unbounded_loop
                .get(site.line - 1)
                .copied()
                .unwrap_or(false)
                || fm.line_is_test(site.line)
            {
                continue;
            }
            let exchanging = site.charged || site.callees.iter().any(|&c| graph.exchanges[c]);
            if !exchanging || !seen.insert((sym.file, site.line)) {
                continue;
            }
            let how = if site.charged {
                "is a charged primitive".to_string()
            } else {
                let culprit = site
                    .callees
                    .iter()
                    .copied()
                    .find(|&c| graph.exchanges[c])
                    .map(|c| graph.symbols[c].display())
                    .unwrap_or_default();
                format!("transitively reaches a charged primitive (via `{culprit}`)")
            };
            out.push(Finding {
                rule: ROUND_BLOWUP,
                file: fm.path.clone(),
                line: site.line,
                message: format!(
                    "`{}` {how} inside an unbounded `while`/`loop` in fn `{}`: \
                     round cost is no longer statically bounded; batch the \
                     exchange, hoist it out, or bound the loop",
                    site.name, sym.name
                ),
            });
        }
    }
}

// ----- R3: cost annotation (call graph) ------------------------------------------

/// The `// mpc-cost: rounds(<class>)` contract: required on the pub surface of the
/// plan/incremental/server layers, and checked along call edges — a function may
/// not call into a strictly higher class than it declares.
fn cost_annotation(
    files: &[FileModel],
    graph: &CallGraph,
    cfg: &LintConfig,
    out: &mut Vec<Finding>,
) {
    let (declared, problems) = cost::bind_notes(files, graph);
    for (fi, line, message) in problems {
        out.push(Finding {
            rule: COST_ANNOTATION,
            file: files[fi].path.clone(),
            line,
            message,
        });
    }
    // Coverage: every plain-pub fn in the required layers carries a class.
    for (sid, sym) in graph.symbols.iter().enumerate() {
        let fm = &files[sym.file];
        if fm.kind != FileKind::LibSrc
            || sym.is_test
            || !sym.is_pub
            || declared[sid].is_some()
            || !cfg.cost_required.iter().any(|p| fm.path.starts_with(p))
        {
            continue;
        }
        out.push(Finding {
            rule: COST_ANNOTATION,
            file: fm.path.clone(),
            line: sym.line,
            message: format!(
                "pub fn `{}` has no `// mpc-cost: rounds(<class>)` annotation; \
                 this layer's round budget is part of its API \
                 (classes: const, log, layers, prepare)",
                sym.name
            ),
        });
    }
    // Consistency: no call site may cost more than its function declares.
    let eff = cost::effective(graph, &declared);
    for (sid, sites) in graph.sites.iter().enumerate() {
        let Some(budget) = declared[sid] else {
            continue;
        };
        let sym = &graph.symbols[sid];
        let fm = &files[sym.file];
        for site in sites {
            let c = cost::site_cost(site, &eff);
            if c > Some(budget) {
                let c = c.expect("> Some(_) implies Some");
                out.push(Finding {
                    rule: COST_ANNOTATION,
                    file: fm.path.clone(),
                    line: site.line,
                    message: format!(
                        "fn `{}` declares rounds({}) but `{}` costs rounds({}): \
                         raise the annotation or push the expensive call out",
                        sym.name,
                        budget.name(),
                        site.name,
                        c.name()
                    ),
                });
            }
        }
    }
}

// ----- R4: snapshot ABI (workspace) ----------------------------------------------

/// Compare the extracted `Snapshot` codec surface against the committed
/// `snapshot-abi.lock`. A body change without a `SNAPSHOT_VERSION`/kind bump is
/// exactly the silent-drift bug this rule exists to catch; an *intentional* change
/// bumps the version (or kind) and regenerates the lock in the same commit.
fn snapshot_abi(files: &[FileModel], cfg: &LintConfig, out: &mut Vec<Finding>) {
    let surface = abi::extract(files);
    if surface.impls.is_empty() && surface.version.is_none() {
        return; // workspace has no snapshot codec at all
    }
    // Anchor for findings that have no natural source line.
    let anchor = surface
        .version
        .map(|(fi, line, _)| (files[fi].path.clone(), line))
        .or_else(|| {
            surface
                .impls
                .values()
                .next()
                .map(|&(_, fi, line)| (files[fi].path.clone(), line))
        })
        .expect("non-empty surface has an anchor");
    let Some(lock_text) = &cfg.abi_lock else {
        out.push(Finding {
            rule: SNAPSHOT_ABI,
            file: anchor.0,
            line: anchor.1,
            message: format!(
                "workspace defines {} Snapshot impl(s) but no snapshot-abi.lock is \
                 committed; generate one with `cargo run -p mpc-lint -- \
                 --write-abi-lock snapshot-abi.lock`",
                surface.impls.len()
            ),
        });
        return;
    };
    let lock = abi::parse_lock(lock_text);
    let cur_version = surface.version.map(|(_, _, v)| v);
    if lock.version != cur_version {
        out.push(Finding {
            rule: SNAPSHOT_ABI,
            file: anchor.0,
            line: anchor.1,
            message: format!(
                "SNAPSHOT_VERSION is {} but snapshot-abi.lock records {}: regenerate \
                 the lock (`--write-abi-lock snapshot-abi.lock`) in the same commit \
                 as the version bump",
                cur_version.map_or("absent".to_string(), |v| v.to_string()),
                lock.version.map_or("absent".to_string(), |v| v.to_string()),
            ),
        });
        return; // everything below would be noise until the lock is regenerated
    }
    for (name, &(value, fi, line)) in &surface.kinds {
        match lock.kinds.get(name) {
            None => out.push(Finding {
                rule: SNAPSHOT_ABI,
                file: files[fi].path.clone(),
                line,
                message: format!(
                    "snapshot kind `{name}` is not recorded in snapshot-abi.lock; \
                     regenerate the lock"
                ),
            }),
            Some(&lv) if lv != value => out.push(Finding {
                rule: SNAPSHOT_ABI,
                file: files[fi].path.clone(),
                line,
                message: format!(
                    "snapshot kind `{name}` changed from {lv} to {value} without \
                     regenerating snapshot-abi.lock"
                ),
            }),
            _ => {}
        }
    }
    for name in lock.kinds.keys() {
        if !surface.kinds.contains_key(name) {
            out.push(Finding {
                rule: SNAPSHOT_ABI,
                file: anchor.0.clone(),
                line: anchor.1,
                message: format!(
                    "snapshot kind `{name}` was removed but snapshot-abi.lock still \
                     records it; removing a kind orphans persisted snapshots — \
                     regenerate the lock if this is intentional"
                ),
            });
        }
    }
    for (key, &(fp, fi, line)) in &surface.impls {
        match lock.impls.get(key) {
            None => out.push(Finding {
                rule: SNAPSHOT_ABI,
                file: files[fi].path.clone(),
                line,
                message: format!(
                    "new `impl Snapshot for {key}` is not recorded in \
                     snapshot-abi.lock; regenerate the lock"
                ),
            }),
            Some(&lfp) if lfp != fp => out.push(Finding {
                rule: SNAPSHOT_ABI,
                file: files[fi].path.clone(),
                line,
                message: format!(
                    "encode/decode body of `impl Snapshot for {key}` changed without \
                     a SNAPSHOT_VERSION or kind bump: persisted snapshots may no \
                     longer round-trip; bump the version (and regenerate the lock) \
                     or revert the body change"
                ),
            }),
            _ => {}
        }
    }
    for key in lock.impls.keys() {
        if !surface.impls.contains_key(key) {
            out.push(Finding {
                rule: SNAPSHOT_ABI,
                file: anchor.0.clone(),
                line: anchor.1,
                message: format!(
                    "`impl Snapshot for {key}` was removed but snapshot-abi.lock \
                     still records it; regenerate the lock if this is intentional"
                ),
            });
        }
    }
}

// ----- allow application ---------------------------------------------------------

/// Suppress findings covered by a reasoned `allow` on the same or the preceding
/// line; report malformed directives (missing reason, unknown rule) as findings of
/// their own.
fn apply_allows(files: &[FileModel], findings: Vec<Finding>) -> Vec<Finding> {
    let mut allowed: BTreeMap<(String, usize), BTreeSet<&str>> = BTreeMap::new();
    let mut meta = Vec::new();
    for fm in files {
        for a in &fm.allows {
            for rule in &a.rules {
                let Some(&known) = ALL_RULES.iter().find(|r| *r == rule) else {
                    meta.push(Finding {
                        rule: ALLOW_DIRECTIVE,
                        file: fm.path.clone(),
                        line: a.line,
                        message: format!(
                            "allow names unknown rule `{rule}` (known: {})",
                            ALL_RULES.join(", ")
                        ),
                    });
                    continue;
                };
                if !a.has_reason {
                    meta.push(Finding {
                        rule: ALLOW_DIRECTIVE,
                        file: fm.path.clone(),
                        line: a.line,
                        message: format!(
                            "allow({rule}) has no reason; write `// mpc-lint: \
                             allow({rule}) — <why this is sound>`"
                        ),
                    });
                    continue;
                }
                allowed
                    .entry((fm.path.clone(), a.line))
                    .or_default()
                    .insert(known);
            }
        }
    }
    let mut kept: Vec<Finding> = findings
        .into_iter()
        .filter(|f| {
            let here = allowed
                .get(&(f.file.clone(), f.line))
                .is_some_and(|rules| rules.contains(f.rule));
            let above = f.line > 1
                && allowed
                    .get(&(f.file.clone(), f.line - 1))
                    .is_some_and(|rules| rules.contains(f.rule));
            !(here || above)
        })
        .collect();
    kept.extend(meta);
    kept
}
