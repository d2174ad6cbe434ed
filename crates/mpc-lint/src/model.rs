//! Per-file context model built on top of the scrubbed source: which lines are test
//! code, which lines sit inside a loop body (and whether that loop is statically
//! bounded), the span of every function and the self type of its `impl` block, and
//! every call site with its `::`-qualifier chain — the structural facts the rules
//! and the workspace call graph condition on.

use crate::lexer::{scrub, Allow, CostNote, Scrubbed};

/// Where a file sits in the workspace, which decides which rules apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library/binary source under `crates/<name>/src/`.
    LibSrc,
    /// Test code: `crates/*/tests/`, the workspace `tests/` directory, or a
    /// `tests.rs` module file (the repo's convention for out-of-line test modules).
    Test,
    /// `examples/` programs.
    Example,
}

/// One function's extent in the file.
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub start: usize,
    /// 1-based line of the closing brace (inclusive).
    pub end: usize,
    /// Declared under `#[test]` or inside a `#[cfg(test)]` region.
    pub is_test: bool,
    /// Declared plain-`pub` (restricted visibilities like `pub(crate)` don't count):
    /// the surface `cost-annotation` requires a round class on.
    pub is_pub: bool,
    /// Head identifier of the enclosing `impl` block's self type (`SlotState<P>` →
    /// `SlotState`), when the function is an associated fn/method.
    pub impl_type: Option<String>,
}

/// One call site: an identifier immediately followed by `(` (after an optional
/// turbofish), with the context the resolver needs.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// 1-based line.
    pub line: usize,
    /// The called identifier.
    pub name: String,
    /// Preceding `::`-path segments, outermost first (`tree_dp_core::plan::solve`
    /// → `["tree_dp_core", "plan"]`). Empty for bare and method calls.
    pub quals: Vec<String>,
    /// For method calls, the identifier immediately before the `.` when there is
    /// one (`ctx.route(..)` → `Some("ctx")`; `f().route(..)` → `None`).
    pub recv: Option<String>,
    /// Whether the call is a `.name(..)` method call.
    pub method: bool,
}

/// The analyzed form of one source file.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    pub kind: FileKind,
    /// Crate name for `crates/<name>/…` paths, empty otherwise.
    pub crate_name: String,
    /// Scrubbed source lines (comments and literal contents blanked).
    pub lines: Vec<String>,
    /// Per line (0-based index): inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: Vec<bool>,
    /// Per line: inside a `for` / `while` / `loop` body.
    pub in_loop: Vec<bool>,
    /// Per line: inside a `while`/`loop` body — a loop whose trip count is not
    /// bounded by an iterator, so round charges inside it are data-dependent.
    pub in_unbounded_loop: Vec<bool>,
    pub fns: Vec<FnSpan>,
    pub calls: Vec<CallSite>,
    pub allows: Vec<Allow>,
    pub costs: Vec<CostNote>,
}

#[derive(Debug, Clone, PartialEq)]
enum RegionKind {
    Test,
    Loop { unbounded: bool },
    Fn(usize),            // index into fns
    Impl(Option<String>), // head of the impl's self type
}

impl FileModel {
    /// Analyze `source` as the file at workspace-relative `path`.
    pub fn build(path: &str, source: &str) -> FileModel {
        let path = path.replace('\\', "/");
        let Scrubbed {
            lines,
            allows,
            costs,
        } = scrub(source);
        let crate_name = path
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("")
            .to_string();
        let kind = classify(&path);

        let mut model = FileModel {
            path,
            kind,
            crate_name,
            in_test: vec![false; lines.len()],
            in_loop: vec![false; lines.len()],
            in_unbounded_loop: vec![false; lines.len()],
            fns: Vec::new(),
            calls: Vec::new(),
            allows,
            costs,
            lines,
        };
        model.scan_regions();
        model.scan_calls();
        model
    }

    /// Single pass over the scrubbed lines tracking brace depth and open regions.
    fn scan_regions(&mut self) {
        let mut depth = 0usize;
        // Open regions, each tagged with the depth its `{` created.
        let mut regions: Vec<(RegionKind, usize)> = Vec::new();
        // Markers seen since the last `{` / `;` that will bind to the next brace.
        let mut pending_test = false;
        let mut pending_loop: Option<bool> = None; // Some(unbounded)
                                                   // (name, decl line, is_pub) — visibility is read off the decl line here,
                                                   // because by the time the body's `{` arrives the current line may be the
                                                   // tail of a multi-line signature.
        let mut pending_fn: Option<(String, usize, bool)> = None;
        // `impl Display for Foo {` — that `for` is not a loop. While pending, the
        // header text (everything after the `impl` keyword) accumulates so the
        // self type can be parsed at the opening brace.
        let mut pending_impl: Option<String> = None;
        // `;` only terminates an item at bracket/paren depth 0 (`[u8; 4]` does not).
        let mut inner = 0usize;

        for idx in 0..self.lines.len() {
            let line = self.lines[idx].clone();
            let lineno = idx + 1;
            // Attributes are line-atomic in practice; detect them textually.
            let trimmed = line.trim_start();
            if trimmed.contains("#[cfg(test)") || trimmed.contains("#[test]") {
                pending_test = true;
            }
            let mut test_seen = pending_test || regions.iter().any(|(k, _)| *k == RegionKind::Test);
            let mut loop_seen = regions
                .iter()
                .any(|(k, _)| matches!(k, RegionKind::Loop { .. }));

            let mut ident = String::new();
            let mut chars = line.chars().peekable();
            while let Some(c) = chars.next() {
                if c.is_alphanumeric() || c == '_' {
                    ident.push(c);
                    if let Some(h) = pending_impl.as_mut() {
                        h.push(c);
                    }
                    if chars.peek().is_some() {
                        continue;
                    }
                }
                // Identifier just ended (or end of line): classify it.
                match ident.as_str() {
                    "fn" => {
                        // The next identifier is the function name.
                        let mut name = String::new();
                        while let Some(&n) = chars.peek() {
                            if n.is_alphanumeric() || n == '_' {
                                name.push(n);
                                chars.next();
                            } else if name.is_empty() && n == ' ' {
                                chars.next();
                            } else {
                                break;
                            }
                        }
                        let is_pub = decl_is_pub(&line, &name);
                        pending_fn = Some((name, lineno, is_pub));
                    }
                    "for" if pending_impl.is_none() => pending_loop = Some(false),
                    "while" | "loop" => pending_loop = Some(true),
                    "impl" => {
                        // Start capturing the header. The keyword itself was pushed
                        // into any outer pending header char-by-char; harmless.
                        pending_impl = Some(String::new());
                    }
                    _ => {}
                }
                ident.clear();
                match c {
                    '(' | '[' => inner += 1,
                    ')' | ']' => inner = inner.saturating_sub(1),
                    _ => {}
                }
                match c {
                    '{' => {
                        depth += 1;
                        if let Some((name, start, is_pub)) = pending_fn.take() {
                            let is_test =
                                pending_test || regions.iter().any(|(k, _)| *k == RegionKind::Test);
                            let impl_type = regions.iter().rev().find_map(|(k, _)| match k {
                                RegionKind::Impl(head) => head.clone(),
                                _ => None,
                            });
                            self.fns.push(FnSpan {
                                name,
                                start,
                                end: start,
                                is_test,
                                is_pub,
                                impl_type,
                            });
                            regions.push((RegionKind::Fn(self.fns.len() - 1), depth));
                        } else if let Some(header) = pending_impl.take() {
                            regions.push((RegionKind::Impl(impl_self_head(&header)), depth));
                        }
                        if pending_test {
                            regions.push((RegionKind::Test, depth));
                            pending_test = false;
                        }
                        if let Some(unbounded) = pending_loop.take() {
                            regions.push((RegionKind::Loop { unbounded }, depth));
                            loop_seen = true;
                        }
                        pending_impl = None;
                        test_seen =
                            test_seen || regions.iter().any(|(k, _)| *k == RegionKind::Test);
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        while regions.last().is_some_and(|&(_, d)| d > depth) {
                            let (kind, _) = regions.pop().expect("regions non-empty");
                            if let RegionKind::Fn(fi) = kind {
                                self.fns[fi].end = lineno;
                            }
                        }
                    }
                    // A terminated item between attribute and brace (e.g.
                    // `#[cfg(test)] mod tests;`, trait method decls) consumes
                    // the pending markers so they cannot leak onto the next
                    // unrelated block.
                    ';' if inner == 0 && regions.last().map(|&(_, d)| d).unwrap_or(0) == depth => {
                        pending_fn = None;
                        pending_test = false;
                        pending_loop = None;
                        pending_impl = None;
                    }
                    _ => {
                        if let Some(h) = pending_impl.as_mut() {
                            if !(c.is_alphanumeric() || c == '_') {
                                h.push(c);
                            }
                        }
                    }
                }
            }
            if let Some(h) = pending_impl.as_mut() {
                h.push('\n');
            }
            self.in_test[idx] = test_seen;
            self.in_loop[idx] = loop_seen
                || regions
                    .iter()
                    .any(|(k, _)| matches!(k, RegionKind::Loop { .. }));
            self.in_unbounded_loop[idx] = pending_loop == Some(true)
                || regions
                    .iter()
                    .any(|(k, _)| matches!(k, RegionKind::Loop { unbounded: true }));
        }
        // Close any region left open by truncated input.
        let last = self.lines.len();
        for (kind, _) in regions {
            if let RegionKind::Fn(fi) = kind {
                self.fns[fi].end = last;
            }
        }
    }

    /// Extract every call site (`name(` / `path::name(` / `.name(`, with optional
    /// turbofish) from the scrubbed lines. Macros (`name!(`) and declarations
    /// (`fn name(`) are not calls.
    fn scan_calls(&mut self) {
        for idx in 0..self.lines.len() {
            let chars: Vec<char> = self.lines[idx].chars().collect();
            let mut i = 0usize;
            let mut prev_token = String::new();
            while i < chars.len() {
                let c = chars[i];
                if !(c.is_alphabetic() || c == '_') {
                    if !c.is_whitespace() {
                        prev_token.clear();
                        prev_token.push(c);
                    }
                    i += 1;
                    continue;
                }
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let name: String = chars[start..i].iter().collect();
                let was_fn_decl = prev_token == "fn";
                prev_token = name.clone();
                // Skip whitespace, then an optional turbofish `::<...>`.
                let mut j = i;
                while j < chars.len() && chars[j].is_whitespace() {
                    j += 1;
                }
                if j + 2 < chars.len()
                    && chars[j] == ':'
                    && chars[j + 1] == ':'
                    && chars[j + 2] == '<'
                {
                    let mut angle = 1usize;
                    j += 3;
                    while j < chars.len() && angle > 0 {
                        match chars[j] {
                            '<' => angle += 1,
                            '>' => angle -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                }
                if j >= chars.len() || chars[j] != '(' || was_fn_decl || is_keyword(&name) {
                    continue;
                }
                let (quals, recv, method) = call_context(&chars, start);
                self.calls.push(CallSite {
                    line: idx + 1,
                    name,
                    quals,
                    recv,
                    method,
                });
            }
        }
    }

    /// Whether the 1-based `line` is test code (either by region or because the
    /// whole file is test code).
    pub fn line_is_test(&self, line: usize) -> bool {
        self.kind == FileKind::Test || self.in_test.get(line - 1).copied().unwrap_or(false)
    }
}

/// Keywords that can textually precede `(` without being calls.
fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "fn"
            | "as"
            | "in"
            | "move"
            | "mut"
            | "ref"
            | "use"
            | "where"
            | "impl"
            | "dyn"
            | "let"
            | "else"
            | "pub"
    )
}

/// Walk backwards from the call name at `chars[start]` to collect the qualifier
/// chain, receiver hint, and method-ness.
fn call_context(chars: &[char], start: usize) -> (Vec<String>, Option<String>, bool) {
    let mut quals: Vec<String> = Vec::new();
    let mut pos = start;
    loop {
        // A `::` (possibly preceded by a `<...>` generic argument block) extends
        // the qualifier chain: `tree_dp_core::plan::solve(`, `Vec::<u8>::new(`.
        if pos >= 2 && chars[pos - 2] == ':' && chars[pos - 1] == ':' {
            pos -= 2;
            if pos > 0 && chars[pos - 1] == '>' {
                let mut angle = 1usize;
                pos -= 1;
                while pos > 0 && angle > 0 {
                    pos -= 1;
                    match chars[pos] {
                        '>' => angle += 1,
                        '<' => angle -= 1,
                        _ => {}
                    }
                }
                // The turbofish's own `::` may precede the `<`.
                if pos >= 2 && chars[pos - 2] == ':' && chars[pos - 1] == ':' {
                    pos -= 2;
                }
            }
            let end = pos;
            while pos > 0 && (chars[pos - 1].is_alphanumeric() || chars[pos - 1] == '_') {
                pos -= 1;
            }
            if pos == end {
                break; // `<T as Trait>::f(` and friends: stop cleanly
            }
            quals.insert(0, chars[pos..end].iter().collect());
            continue;
        }
        break;
    }
    if quals.is_empty() && pos > 0 && chars[pos - 1] == '.' {
        // Method call; the receiver hint is the identifier right before the dot.
        let mut r = pos - 1;
        let end = r;
        while r > 0 && (chars[r - 1].is_alphanumeric() || chars[r - 1] == '_') {
            r -= 1;
        }
        let recv = if r < end {
            Some(chars[r..end].iter().collect())
        } else {
            None
        };
        return (quals, recv, true);
    }
    (quals, None, false)
}

/// Whether the declaration line of fn `name` carries plain-`pub` visibility.
fn decl_is_pub(line: &str, name: &str) -> bool {
    let probe = format!("fn {name}");
    let before = match line.find(&probe) {
        Some(p) => &line[..p],
        None => match line.find("fn") {
            Some(p) => &line[..p],
            None => return false,
        },
    };
    before.split_whitespace().any(|t| t == "pub")
}

/// Head identifier of an impl block's self type, parsed from the header (the text
/// between the `impl` keyword and the opening brace): `<P> Snapshot for SlotState<P>
/// where ..` → `SlotState`. `None` for tuples, references and other headless types.
fn impl_self_head(header: &str) -> Option<String> {
    // Collapse whitespace so multi-line headers normalize.
    let chars: Vec<char> = header
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
        .chars()
        .collect();
    // Skip the leading generic parameter list.
    let mut from = 0usize;
    if chars.first() == Some(&'<') {
        let mut angle = 0usize;
        while from < chars.len() {
            match chars[from] {
                '<' => angle += 1,
                '>' => angle -= 1,
                _ => {}
            }
            from += 1;
            if angle == 0 {
                break;
            }
        }
    }
    // A ` for ` outside any bracket ends the trait: the self type follows it.
    let mut depth = 0i32;
    let mut start = from;
    for k in from..chars.len() {
        match chars[k] {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            _ => {}
        }
        if depth == 0 && chars[k..].starts_with(&[' ', 'f', 'o', 'r', ' ']) {
            start = k + 5;
            break;
        }
    }
    let head: String = chars[start..]
        .iter()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_alphanumeric() || **c == '_')
        .collect();
    (!head.is_empty()).then_some(head)
}

fn classify(path: &str) -> FileKind {
    let in_crates = path.starts_with("crates/");
    if path.starts_with("tests/") || (in_crates && path.contains("/tests/")) {
        return FileKind::Test;
    }
    if path.ends_with("/tests.rs") {
        // Out-of-line `#[cfg(test)] mod tests;` module files.
        return FileKind::Test;
    }
    if path.starts_with("examples/") || (in_crates && path.contains("/examples/")) {
        return FileKind::Example;
    }
    FileKind::LibSrc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functions_and_test_regions_are_tracked() {
        let src = "\
fn alpha() {
    let x = 1;
}

#[cfg(test)]
mod tests {
    #[test]
    fn beta() {
        assert!(true);
    }
}
";
        let m = FileModel::build("crates/demo/src/lib.rs", src);
        assert_eq!(m.fns.len(), 2);
        assert_eq!(m.fns[0].name, "alpha");
        assert!(!m.fns[0].is_test);
        assert!(!m.fns[0].is_pub);
        assert_eq!((m.fns[0].start, m.fns[0].end), (1, 3));
        assert_eq!(m.fns[1].name, "beta");
        assert!(m.fns[1].is_test);
        assert!(!m.line_is_test(2));
        assert!(m.line_is_test(9));
    }

    #[test]
    fn loop_bodies_are_tracked() {
        let src = "\
fn f() {
    let a = vec![1];
    for x in 0..3 {
        let b = Vec::new();
    }
    while cond() {
        let c = vec![2];
    }
}
";
        let m = FileModel::build("crates/demo/src/lib.rs", src);
        assert!(!m.in_loop[1]);
        assert!(m.in_loop[2]); // the `for` header line opens the region
        assert!(m.in_loop[3]);
        assert!(!m.in_loop[8]); // closing fn brace is outside any loop
        assert!(m.in_loop[6]);
        // Boundedness: the `for` body is bounded, the `while` body is not.
        assert!(!m.in_unbounded_loop[3]);
        assert!(m.in_unbounded_loop[6]);
        assert!(m.in_unbounded_loop[5]); // the `while` header line itself
    }

    #[test]
    fn cfg_test_mod_semicolon_does_not_leak() {
        let src = "\
#[cfg(test)]
mod tests;

fn real() {
    work();
}
";
        let m = FileModel::build("crates/demo/src/lib.rs", src);
        assert_eq!(m.fns.len(), 1);
        assert!(!m.fns[0].is_test, "pending #[cfg(test)] must not leak");
        assert!(!m.line_is_test(5));
    }

    #[test]
    fn impl_blocks_and_member_fns_are_tracked() {
        let src = "\
impl<P: ClusterDp> Snapshot for SlotState<P>
where
    P::Summary: Snapshot,
{
    fn encode(&self, w: &mut SnapshotWriter) {
        self.payloads.encode(w);
    }
}

impl Plan {
    pub fn solve(&self) -> u64 {
        7
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn encode(&self, w: &mut SnapshotWriter) {}
}
";
        let m = FileModel::build("crates/core/src/snapshot.rs", src);
        assert_eq!(m.fns.len(), 3);
        assert_eq!(m.fns[0].impl_type.as_deref(), Some("SlotState"));
        assert!(!m.fns[0].is_pub);
        assert_eq!(m.fns[1].impl_type.as_deref(), Some("Plan"));
        assert!(m.fns[1].is_pub);
        assert_eq!(m.fns[2].impl_type, None, "a tuple self type has no head");
    }

    #[test]
    fn call_sites_carry_quals_and_receivers() {
        let src = "\
fn f(ctx: &mut MpcContext) {
    ctx.route(data, dest);
    tree_dp_core::plan::build(x);
    Option::<u64>::decode(r);
    helper();
    emit!(not_a_call);
    fn inner(a: usize) {}
}
";
        let m = FileModel::build("crates/demo/src/lib.rs", src);
        let by_name: Vec<(&str, &[String], Option<&str>, bool)> = m
            .calls
            .iter()
            .map(|c| (c.name.as_str(), &c.quals[..], c.recv.as_deref(), c.method))
            .collect();
        assert!(by_name.contains(&("route", &[][..], Some("ctx"), true)));
        let build = m.calls.iter().find(|c| c.name == "build").unwrap();
        assert_eq!(build.quals, vec!["tree_dp_core", "plan"]);
        let decode = m.calls.iter().find(|c| c.name == "decode").unwrap();
        assert_eq!(decode.quals, vec!["Option"]);
        assert!(by_name.contains(&("helper", &[][..], None, false)));
        assert!(!m.calls.iter().any(|c| c.name == "emit"));
        assert!(!m.calls.iter().any(|c| c.name == "inner"));
    }

    #[test]
    fn file_kinds() {
        assert_eq!(
            FileModel::build("tests/integration_x.rs", "").kind,
            FileKind::Test
        );
        assert_eq!(
            FileModel::build("crates/a/tests/t.rs", "").kind,
            FileKind::Test
        );
        assert_eq!(
            FileModel::build("crates/problems/src/tests.rs", "").kind,
            FileKind::Test
        );
        assert_eq!(
            FileModel::build("examples/quickstart.rs", "").kind,
            FileKind::Example
        );
        assert_eq!(
            FileModel::build("crates/mpc/src/lib.rs", "").kind,
            FileKind::LibSrc
        );
    }
}
