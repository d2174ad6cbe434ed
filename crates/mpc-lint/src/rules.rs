//! The rule engine: eight repo-specific rules that statically enforce the MPC model
//! discipline the runtime `Violation` machinery (see `crates/mpc/src/context.rs`)
//! can only observe dynamically. Five are per-file/per-workspace token rules; three
//! ride the resolved call graph ([`crate::graph`]).
//!
//! | rule                | enforces                                                   |
//! |---------------------|------------------------------------------------------------|
//! | `metered-exchange`  | cross-machine data movement only through charged primitives|
//! | `determinism`       | no hash-order iteration / wall clocks / unseeded RNG       |
//! | `alloc-hygiene`     | no fresh allocation inside hot-path loops (use `Scratch`)  |
//! | `panic-policy`      | no `unwrap()` in library crates; `expect` carries a message|
//! | `dead-pub-api`      | every `pub` item is referenced somewhere in the workspace  |
//! | `round-blowup`      | no (transitive) exchange inside an unbounded loop          |
//! | `cost-annotation`   | `// mpc-cost: rounds(<class>)` present and call-consistent |
//! | `snapshot-abi`      | `Snapshot` impl bodies match the committed ABI lockfile    |

use crate::abi;
use crate::cost;
use crate::graph::CallGraph;
use crate::model::{FileKind, FileModel};
use crate::report::Finding;
use std::collections::{BTreeMap, BTreeSet};

pub const METERED_EXCHANGE: &str = "metered-exchange";
pub const DETERMINISM: &str = "determinism";
pub const ALLOC_HYGIENE: &str = "alloc-hygiene";
pub const PANIC_POLICY: &str = "panic-policy";
pub const DEAD_PUB_API: &str = "dead-pub-api";
pub const ROUND_BLOWUP: &str = "round-blowup";
pub const COST_ANNOTATION: &str = "cost-annotation";
pub const SNAPSHOT_ABI: &str = "snapshot-abi";
/// Meta-rule: malformed `mpc-lint: allow` directives (no reason, unknown rule).
/// Not itself suppressible.
pub const ALLOW_DIRECTIVE: &str = "allow-directive";

/// Every suppressible rule identifier.
pub const ALL_RULES: [&str; 8] = [
    METERED_EXCHANGE,
    DETERMINISM,
    ALLOC_HYGIENE,
    PANIC_POLICY,
    DEAD_PUB_API,
    ROUND_BLOWUP,
    COST_ANNOTATION,
    SNAPSHOT_ABI,
];

/// `(rule, scope, one-line summary)` for every rule including the meta-rule —
/// the `--json` report embeds this so downstream tooling is self-describing.
pub const RULE_INFO: [(&str, &str, &str); 9] = [
    (
        METERED_EXCHANGE,
        "per-file",
        "cross-machine data movement only through charged primitives",
    ),
    (
        DETERMINISM,
        "per-file",
        "no hash-order iteration, wall clocks, or unseeded RNG in solver code",
    ),
    (
        ALLOC_HYGIENE,
        "per-file",
        "no fresh allocation inside hot-path loops",
    ),
    (
        PANIC_POLICY,
        "per-file",
        "no unwrap() in library crates; expect() carries a message",
    ),
    (
        DEAD_PUB_API,
        "workspace",
        "every pub item is referenced somewhere in the workspace",
    ),
    (
        ROUND_BLOWUP,
        "call-graph",
        "no transitive exchange inside an unbounded loop outside the solver whitelist",
    ),
    (
        COST_ANNOTATION,
        "call-graph",
        "mpc-cost annotations present on required pub fns and consistent along edges",
    ),
    (
        SNAPSHOT_ABI,
        "workspace",
        "Snapshot impl bodies match the committed snapshot-abi.lock",
    ),
    (
        ALLOW_DIRECTIVE,
        "meta",
        "allow directives are well-formed (known rule, written reason)",
    ),
];

/// Crates whose solver-visible state must iterate deterministically: identical runs
/// must produce identical metrics, digests and snapshots.
const DETERMINISM_CRATES: [&str; 6] = [
    "core",
    "clustering",
    "incremental",
    "problems",
    "repr",
    "tree-dp-server",
];

/// Pub items whose names are conventional API surface. Now that associated fns
/// resolve through the symbol table (`Type::name` pairs and `.name(..)` method
/// calls), only binary entry points stay exempt.
const DEAD_API_STOPLIST: [&str; 1] = ["main"];

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
    lint_with_graph(files, cfg).0
}

/// Like [`lint`], but also hands back the resolved call graph so callers
/// (`--dump-graph`, `--json` stats) don't build it twice.
pub fn lint_with_graph(files: &[FileModel], cfg: &LintConfig) -> (Vec<Finding>, CallGraph) {
    let graph = CallGraph::build(files);
    let mut findings = Vec::new();
    for fm in files {
        metered_exchange(fm, &mut findings);
        determinism(fm, &mut findings);
        alloc_hygiene(fm, cfg, &mut findings);
        panic_policy(fm, &mut findings);
    }
    dead_pub_api(files, &graph, &mut findings);
    round_blowup(files, &graph, cfg, &mut findings);
    cost_annotation(files, &graph, cfg, &mut findings);
    snapshot_abi(files, cfg, &mut findings);
    let mut findings = apply_allows(files, findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    (findings, graph)
}

// ----- R1: metered exchange ------------------------------------------------------

/// Outside `crates/mpc`, `DistVec` chunk storage is opaque: building a `DistVec`
/// from raw chunks or mutating chunks in place can move words between machines
/// without charging rounds/volume. Call sites that only transform data machine-
/// locally carry an `allow` with that argument spelled out.
fn metered_exchange(fm: &FileModel, out: &mut Vec<Finding>) {
    if fm.kind != FileKind::LibSrc || fm.crate_name == "mpc" || fm.crate_name == "mpc-lint" {
        return;
    }
    const PATTERNS: [(&str, &str); 4] = [
        ("from_chunks", "constructs a DistVec from raw chunks"),
        ("into_chunks", "takes DistVec chunk storage apart"),
        ("chunks_mut", "mutates DistVec chunks in place"),
        (
            "from_vec_cfg",
            "builds a DistVec without a context to meter it",
        ),
    ];
    for (idx, line) in fm.lines.iter().enumerate() {
        if fm.line_is_test(idx + 1) {
            continue;
        }
        for (pat, what) in PATTERNS {
            if has_call(line, pat) {
                out.push(Finding {
                    rule: METERED_EXCHANGE,
                    file: fm.path.clone(),
                    line: idx + 1,
                    message: format!(
                        "`{pat}` {what} outside `crates/mpc`; route cross-machine \
                         movement through charged primitives (route/rebalance/\
                         communicate), or document machine-locality with an allow"
                    ),
                });
            }
        }
    }
}

// ----- R2: determinism -----------------------------------------------------------

/// Hash-order iteration, wall clocks, and unseeded randomness all make two runs of
/// the same input differ in metrics, plan digests, or snapshot bytes.
fn determinism(fm: &FileModel, out: &mut Vec<Finding>) {
    if fm.kind != FileKind::LibSrc {
        return;
    }
    let hash_scoped = DETERMINISM_CRATES.contains(&fm.crate_name.as_str());
    let timing_scoped = !fm.path.ends_with("metrics.rs");
    let rng_scoped = fm.crate_name != "treegen";
    for (idx, line) in fm.lines.iter().enumerate() {
        if fm.line_is_test(idx + 1) {
            continue;
        }
        if hash_scoped {
            for ty in ["HashMap", "HashSet"] {
                if has_token(line, ty) {
                    out.push(Finding {
                        rule: DETERMINISM,
                        file: fm.path.clone(),
                        line: idx + 1,
                        message: format!(
                            "`{ty}` in a determinism-critical crate: iteration order \
                             varies per process, so identical runs stop producing \
                             identical metrics, digests and snapshots; use \
                             `BTreeMap`/`BTreeSet` or sort before iterating"
                        ),
                    });
                }
            }
        }
        if timing_scoped {
            for clock in ["Instant::now", "SystemTime::now"] {
                if line.contains(clock) {
                    out.push(Finding {
                        rule: DETERMINISM,
                        file: fm.path.clone(),
                        line: idx + 1,
                        message: format!(
                            "`{clock}` outside `metrics`: wall clocks must not \
                             influence algorithm behavior; attribute timing through \
                             `Metrics` instead"
                        ),
                    });
                }
            }
        }
        if rng_scoped {
            for rng in ["thread_rng", "from_entropy", "rand::random"] {
                let hit = if rng.contains(':') {
                    line.contains(rng)
                } else {
                    has_token(line, rng)
                };
                if hit {
                    out.push(Finding {
                        rule: DETERMINISM,
                        file: fm.path.clone(),
                        line: idx + 1,
                        message: format!(
                            "`{rng}` outside `treegen`: unseeded randomness in \
                             solver code makes runs unreproducible; take a seed"
                        ),
                    });
                }
            }
        }
    }
}

// ----- R3: allocation hygiene ----------------------------------------------------

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

// ----- R5: panic policy ----------------------------------------------------------

/// Library crates return `Result` or explain themselves: `.unwrap()` is banned and
/// `.expect("")` is an unwrap with extra steps.
fn panic_policy(fm: &FileModel, out: &mut Vec<Finding>) {
    if fm.kind != FileKind::LibSrc {
        return;
    }
    for (idx, line) in fm.lines.iter().enumerate() {
        if fm.line_is_test(idx + 1) {
            continue;
        }
        if line.contains(".unwrap()") {
            out.push(Finding {
                rule: PANIC_POLICY,
                file: fm.path.clone(),
                line: idx + 1,
                message: "`.unwrap()` in a library crate: return a `Result` or use \
                          `.expect(\"why this cannot fail\")`"
                    .to_string(),
            });
        }
        // Literal contents are blanked but delimiters survive, so an empty message
        // is exactly `.expect("")`.
        let mut rest = line.as_str();
        while let Some(p) = rest.find(".expect(") {
            let tail = rest[p + ".expect(".len()..].trim_start();
            if tail.starts_with("\"\"") {
                out.push(Finding {
                    rule: PANIC_POLICY,
                    file: fm.path.clone(),
                    line: idx + 1,
                    message: "`.expect(\"\")` carries no message; say why the value \
                              must exist"
                        .to_string(),
                });
            }
            rest = &rest[p + ".expect(".len()..];
        }
    }
}

// ----- R6: dead public API -------------------------------------------------------

/// A `pub` item nobody in the workspace names is either missing its caller (a wiring
/// bug) or API surface that should be dropped before it rots.
///
/// Associated fns resolve through the symbol table instead of bare-token matching:
/// `Type::name` qualified pairs and `.name(..)` method calls in *other* files count
/// as uses; the type's name appearing near an unrelated `name` token does not.
fn dead_pub_api(files: &[FileModel], _graph: &CallGraph, out: &mut Vec<Finding>) {
    // Pass 1a: every identifier's set of containing files (for non-fn items and
    // free fns, where by-name is the best a lexer can do).
    let mut used_in: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    for (fi, fm) in files.iter().enumerate() {
        for line in &fm.lines {
            let mut ident = String::new();
            for c in line.chars().chain(std::iter::once(' ')) {
                if c.is_alphanumeric() || c == '_' {
                    ident.push(c);
                } else if !ident.is_empty() {
                    used_in
                        .entry(std::mem::take(&mut ident))
                        .or_default()
                        .insert(fi);
                }
            }
        }
    }
    // Pass 1b: resolved use sites for associated fns — `Type::name(..)` pairs and
    // `.name(..)` method calls, each with the files they occur in.
    let mut pair_in: BTreeMap<(String, String), BTreeSet<usize>> = BTreeMap::new();
    let mut method_in: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    for (fi, fm) in files.iter().enumerate() {
        for call in &fm.calls {
            if call.method {
                method_in.entry(call.name.clone()).or_default().insert(fi);
            } else if let Some(q) = call.quals.last() {
                if q.chars().next().is_some_and(char::is_uppercase) {
                    pair_in
                        .entry((q.clone(), call.name.clone()))
                        .or_default()
                        .insert(fi);
                }
            }
        }
    }
    // Pass 2: plain-`pub` declarations in library sources.
    const ITEM_KEYWORDS: [&str; 8] = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
    ];
    for (fi, fm) in files.iter().enumerate() {
        if fm.kind != FileKind::LibSrc {
            continue;
        }
        for (idx, line) in fm.lines.iter().enumerate() {
            if fm.line_is_test(idx + 1) {
                continue;
            }
            let trimmed = line.trim_start();
            let Some(mut rest) = trimmed.strip_prefix("pub ") else {
                continue;
            };
            rest = rest.trim_start();
            // `pub(crate)` etc. already failed the `"pub "` prefix; qualifiers like
            // `pub unsafe fn` / `pub async fn` are stripped here.
            for qual in ["unsafe ", "async ", "extern "] {
                rest = rest.strip_prefix(qual).unwrap_or(rest).trim_start();
            }
            let Some(kw) = ITEM_KEYWORDS.iter().find(|kw| {
                rest.strip_prefix(**kw)
                    .is_some_and(|r| r.starts_with([' ', '\t']))
            }) else {
                continue;
            };
            let name: String = rest[kw.len()..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if name.is_empty() || DEAD_API_STOPLIST.contains(&name.as_str()) {
                continue;
            }
            // An associated fn (the symbol table knows its impl self type) is used
            // iff some *other* file calls `Type::name(..)` or `.name(..)`.
            let impl_type = fm
                .fns
                .iter()
                .find(|f| f.start == idx + 1 && f.name == name)
                .and_then(|f| f.impl_type.clone());
            let elsewhere = if *kw == "fn" && impl_type.is_some() {
                let t = impl_type.as_deref().expect("checked is_some");
                let by_pair = pair_in
                    .get(&(t.to_string(), name.clone()))
                    .is_some_and(|fs| fs.iter().any(|&f| f != fi));
                let by_method = method_in
                    .get(&name)
                    .is_some_and(|fs| fs.iter().any(|&f| f != fi));
                by_pair || by_method
            } else {
                used_in
                    .get(&name)
                    .is_some_and(|fs| fs.iter().any(|&f| f != fi))
            };
            if !elsewhere {
                let what = if *kw == "fn" && impl_type.is_some() {
                    format!(
                        "pub fn `{}::{name}` is never called (no `{}::{name}(..)` or \
                         `.{name}(..)` outside its file)",
                        impl_type.as_deref().expect("checked is_some"),
                        impl_type.as_deref().expect("checked is_some"),
                    )
                } else {
                    format!("pub {kw} `{name}` is not referenced anywhere else in the workspace")
                };
                out.push(Finding {
                    rule: DEAD_PUB_API,
                    file: fm.path.clone(),
                    line: idx + 1,
                    message: format!(
                        "{what}: wire it up, demote it from `pub`, or allow it \
                         with the reason it must stay public"
                    ),
                });
            }
        }
    }
}

// ----- R7: round blowup (call graph) ---------------------------------------------

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

// ----- R8: cost annotation (call graph) ------------------------------------------

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

// ----- R9: snapshot ABI (workspace) ----------------------------------------------

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

// ----- token helpers -------------------------------------------------------------

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `name` appears as a whole identifier token in `line`.
fn has_token(line: &str, name: &str) -> bool {
    find_token(line, name, 0).is_some()
}

/// `name` appears as a whole token immediately followed by `(` (a call or tuple-ctor
/// position).
fn has_call(line: &str, name: &str) -> bool {
    count_calls(line, name) > 0
}

fn count_calls(line: &str, name: &str) -> usize {
    let mut n = 0;
    let mut from = 0;
    while let Some(pos) = find_token(line, name, from) {
        if line[pos + name.len()..].trim_start().starts_with('(') {
            n += 1;
        }
        from = pos + name.len();
    }
    n
}

fn find_token(line: &str, name: &str, from: usize) -> Option<usize> {
    let mut start = from;
    while let Some(rel) = line[start..].find(name) {
        let pos = start + rel;
        let before_ok = pos == 0 || !line[..pos].chars().next_back().is_some_and(is_ident);
        let after_ok = !line[pos + name.len()..]
            .chars()
            .next()
            .is_some_and(is_ident);
        if before_ok && after_ok {
            return Some(pos);
        }
        start = pos + name.len();
    }
    None
}
