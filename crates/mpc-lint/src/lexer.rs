//! A lightweight Rust source scrubber: replaces comment text and the contents of
//! string/char literals with spaces while preserving the line structure, so that the
//! rule engine can pattern-match code without being fooled by prose, and extracts
//! `mpc-lint: allow(...)` directives from line comments along the way.
//!
//! This is intentionally *not* a parser. It recognizes exactly the token classes that
//! can hide code-looking text — `//` and nested `/* */` comments, `"…"` strings,
//! `r#"…"#` raw strings, byte/raw-byte strings, and character literals (with the
//! lifetime `'a` ambiguity resolved the same way rustc's lexer does: a quote followed
//! by an identifier that is not closed by another quote is a lifetime) — and leaves
//! every other character in place.

/// An inline suppression directive parsed from a line comment:
/// `// mpc-lint: allow(alloc-hygiene, round-blowup) — reason text`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// 1-based source line the directive appears on.
    pub line: usize,
    /// Rule identifiers named inside `allow(...)`.
    pub rules: Vec<String>,
    /// Whether a non-empty reason follows the closing parenthesis. Directives
    /// without a reason do not suppress anything and are themselves reported.
    pub has_reason: bool,
}

/// A round-cost contract parsed from a line comment:
/// `// mpc-cost: rounds(layers)`. The class is kept raw here; the cost rule
/// validates it against the known grammar (`const` | `log` | `layers` | `prepare`)
/// and binds the note to the function it annotates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostNote {
    /// 1-based source line the directive appears on.
    pub line: usize,
    /// The raw class text inside `rounds(...)`.
    pub class: String,
}

/// The result of scrubbing one source file.
#[derive(Debug)]
pub struct Scrubbed {
    /// Source lines with comments and literal contents blanked. String/char
    /// delimiters are kept, so `.expect("")` remains textually detectable while
    /// `.expect("reason")` becomes `.expect("      ")`.
    pub lines: Vec<String>,
    /// Every `mpc-lint: allow` directive found in a line comment.
    pub allows: Vec<Allow>,
    /// Every `mpc-cost: rounds(...)` annotation found in a line comment.
    pub costs: Vec<CostNote>,
}

/// Scrub `src`, blanking comments and literal contents (see module docs).
pub fn scrub(src: &str) -> Scrubbed {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut allows = Vec::new();
    let mut costs = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    // True when the previous emitted character can end an identifier, which rules out
    // the `r`/`b` of `r"…"` / `b'…'` prefixes appearing mid-identifier (e.g. `var"`
    // never lexes, but `r` in `ptr` must not start a raw string).
    let mut prev_ident = false;

    while i < b.len() {
        let c = b[i];
        match c {
            '/' if b.get(i + 1) == Some(&'/') => {
                let start = i;
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                if let Some(a) = parse_allow(&text, line) {
                    allows.push(a);
                }
                // Doc comments (`///`, `//!`) are prose *about* the contract, not
                // the contract: only plain `//` comments carry cost notes.
                let is_doc = matches!(b.get(start + 2), Some(&'/') | Some(&'!'));
                if !is_doc {
                    if let Some(c) = parse_cost(&text, line) {
                        costs.push(c);
                    }
                }
                push_blank(&mut out, i - start);
                prev_ident = false;
            }
            '/' if b.get(i + 1) == Some(&'*') => {
                let mut depth = 1usize;
                i += 2;
                out.push_str("  ");
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                        out.push_str("  ");
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                        out.push_str("  ");
                    } else {
                        if b[i] == '\n' {
                            out.push('\n');
                            line += 1;
                        } else {
                            out.push(' ');
                        }
                        i += 1;
                    }
                }
                prev_ident = false;
            }
            '"' => {
                i = blank_string(&b, i, &mut out, &mut line);
                prev_ident = false;
            }
            'r' | 'b' if !prev_ident => {
                if let Some(ni) = try_raw_or_byte(&b, i, &mut out, &mut line) {
                    i = ni;
                    prev_ident = false;
                } else {
                    out.push(c);
                    i += 1;
                    prev_ident = true;
                }
            }
            '\'' => {
                // Lifetime/label (`'a`, `'static`, `'outer:`) vs char literal
                // (`'x'`, `'\n'`, `'\u{1F600}'`).
                let next = b.get(i + 1).copied();
                let is_char_lit = match next {
                    Some('\\') => true,
                    Some('\'') => false, // `''` never lexes; leave it
                    Some(n) => {
                        // `'a'` is a char literal; `'a ` / `'a,` / `'a>` is a lifetime.
                        let ident_like = n.is_alphanumeric() || n == '_';
                        if ident_like {
                            // Scan the identifier; a closing quote right after makes
                            // it a char literal.
                            let mut j = i + 1;
                            while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                                j += 1;
                            }
                            b.get(j) == Some(&'\'')
                        } else {
                            true // e.g. `'('` or `'-'`
                        }
                    }
                    None => false,
                };
                if is_char_lit {
                    out.push('\'');
                    i += 1;
                    while i < b.len() {
                        if b[i] == '\\' {
                            out.push(' ');
                            i += 1;
                            if i < b.len() {
                                push_masked(&mut out, b[i], &mut line);
                                i += 1;
                            }
                            continue;
                        }
                        if b[i] == '\'' {
                            out.push('\'');
                            i += 1;
                            break;
                        }
                        push_masked(&mut out, b[i], &mut line);
                        i += 1;
                    }
                } else {
                    out.push('\'');
                    i += 1;
                }
                prev_ident = false;
            }
            '\n' => {
                out.push('\n');
                line += 1;
                i += 1;
                prev_ident = false;
            }
            _ => {
                out.push(c);
                i += 1;
                prev_ident = c.is_alphanumeric() || c == '_';
            }
        }
    }

    Scrubbed {
        lines: out.lines().map(str::to_string).collect(),
        allows,
        costs,
    }
}

/// Emit `n` spaces.
fn push_blank(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push(' ');
    }
}

/// Emit the blanked form of a literal-interior character: newlines survive (they keep
/// the line structure intact), everything else becomes a space.
fn push_masked(out: &mut String, c: char, line: &mut usize) {
    if c == '\n' {
        out.push('\n');
        *line += 1;
    } else {
        out.push(' ');
    }
}

/// Blank a `"…"` string starting at the opening quote `b[i]`; returns the index just
/// past the closing quote.
fn blank_string(b: &[char], mut i: usize, out: &mut String, line: &mut usize) -> usize {
    out.push('"');
    i += 1;
    while i < b.len() {
        if b[i] == '\\' {
            out.push(' ');
            i += 1;
            if i < b.len() {
                push_masked(out, b[i], line);
                i += 1;
            }
            continue;
        }
        if b[i] == '"' {
            out.push('"');
            i += 1;
            break;
        }
        push_masked(out, b[i], line);
        i += 1;
    }
    i
}

/// If position `i` starts a raw string (`r"…"`, `r#"…"#`), byte string (`b"…"`),
/// raw byte string (`br#"…"#`), or byte char (`b'…'`), blank it and return the index
/// past its end; otherwise return `None`.
fn try_raw_or_byte(b: &[char], i: usize, out: &mut String, line: &mut usize) -> Option<usize> {
    let mut j = i;
    let mut prefix = String::new();
    if b[j] == 'b' {
        prefix.push('b');
        j += 1;
    }
    if j < b.len() && b[j] == 'r' {
        prefix.push('r');
        j += 1;
    }
    if prefix.is_empty() {
        return None;
    }
    if prefix.contains('r') {
        let mut hashes = 0usize;
        while j < b.len() && b[j] == '#' {
            hashes += 1;
            j += 1;
        }
        if b.get(j) != Some(&'"') {
            return None;
        }
        out.push_str(&prefix);
        push_blank(out, hashes);
        out.push('"');
        j += 1;
        // Find `"` followed by `hashes` hash marks.
        while j < b.len() {
            if b[j] == '"'
                && b[j + 1..]
                    .iter()
                    .take(hashes)
                    .filter(|&&c| c == '#')
                    .count()
                    == hashes
            {
                out.push('"');
                push_blank(out, hashes);
                return Some(j + 1 + hashes);
            }
            push_masked(out, b[j], line);
            j += 1;
        }
        Some(j)
    } else if b.get(j) == Some(&'"') {
        out.push_str(&prefix);
        Some(blank_string(b, j, out, line))
    } else if b.get(j) == Some(&'\'') {
        // Byte char `b'x'` / `b'\n'`.
        out.push_str(&prefix);
        out.push('\'');
        j += 1;
        while j < b.len() {
            if b[j] == '\\' {
                out.push(' ');
                j += 1;
                if j < b.len() {
                    push_masked(out, b[j], line);
                    j += 1;
                }
                continue;
            }
            if b[j] == '\'' {
                out.push('\'');
                j += 1;
                break;
            }
            push_masked(out, b[j], line);
            j += 1;
        }
        Some(j)
    } else {
        None
    }
}

/// Parse one line comment for an `mpc-lint: allow(<rule>, …) — <reason>` directive.
///
/// Rule names must be lowercase kebab-case identifiers; anything else (prose like
/// `allow(<rule>)` in documentation) is not a directive. A directive that fails to
/// parse never suppresses anything, so the underlying finding still surfaces.
fn parse_allow(comment: &str, line: usize) -> Option<Allow> {
    let idx = comment.find("mpc-lint:")?;
    let rest = comment[idx + "mpc-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let kebab = |r: &String| {
        r.chars().next().is_some_and(|c| c.is_ascii_lowercase())
            && r.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
    };
    if rules.is_empty() || !rules.iter().all(kebab) {
        return None;
    }
    // The reason follows the closing parenthesis, after an optional dash separator.
    let reason = rest[close + 1..]
        .trim_start()
        .trim_start_matches(['—', '–', '-', ':', ' '])
        .trim();
    Some(Allow {
        line,
        rules,
        has_reason: reason.chars().filter(|c| c.is_alphanumeric()).count() >= 3,
    })
}

/// Parse one line comment for an `mpc-cost: rounds(<class>)` annotation.
///
/// The class text is captured verbatim (anything up to the closing parenthesis);
/// validating it against the known classes — and rejecting junk like
/// `rounds(n^2)` — is the cost rule's job, so a typo surfaces as a finding
/// instead of silently annotating nothing.
fn parse_cost(comment: &str, line: usize) -> Option<CostNote> {
    let idx = comment.find("mpc-cost:")?;
    let rest = comment[idx + "mpc-cost:".len()..].trim_start();
    let rest = rest.strip_prefix("rounds")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    Some(CostNote {
        line,
        class: rest[..close].trim().to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let s = scrub("let x = \"HashMap\"; // HashMap here\nlet y = 1;\n");
        assert_eq!(s.lines.len(), 2);
        assert!(!s.lines[0].contains("HashMap"));
        assert!(s.lines[0].contains("let x = \""));
        assert_eq!(s.lines[1], "let y = 1;");
    }

    #[test]
    fn nested_block_comments_and_raw_strings() {
        let s = scrub("/* a /* b */ c */ let z = r#\"un\"wrap()\"#;\n'x'; 'a: loop {}");
        assert!(!s.lines[0].contains('a'));
        assert!(s.lines[0].contains("let z = r \""));
        assert!(!s.lines[0].contains("wrap"));
        // The label survives as code; the char literal is blanked but keeps quotes.
        assert!(s.lines[1].contains("'a: loop"));
        assert!(s.lines[1].starts_with("' '"));
    }

    #[test]
    fn multiline_string_preserves_line_numbers() {
        let s = scrub("let a = \"one\ntwo\nthree\";\nfn f() {}\n");
        assert_eq!(s.lines.len(), 4);
        assert_eq!(s.lines[3], "fn f() {}");
    }

    #[test]
    fn allow_directive_is_parsed() {
        let s = scrub("x(); // mpc-lint: allow(alloc-hygiene, round-blowup) — test shim\ny();");
        assert_eq!(s.allows.len(), 1);
        let a = &s.allows[0];
        assert_eq!(a.line, 1);
        assert_eq!(a.rules, vec!["alloc-hygiene", "round-blowup"]);
        assert!(a.has_reason);
    }

    #[test]
    fn allow_without_reason_is_marked() {
        let s = scrub("// mpc-lint: allow(round-blowup)\n// mpc-lint: allow(round-blowup) - x\n");
        assert_eq!(s.allows.len(), 2);
        assert!(!s.allows[0].has_reason);
        assert!(!s.allows[1].has_reason); // a bare "x" is not a reason
    }

    #[test]
    fn cost_notes_are_parsed() {
        let s = scrub(
            "// mpc-cost: rounds(layers)\nfn f() {}\n// mpc-cost: rounds( const )\n// mpc-cost: rounds\n",
        );
        assert_eq!(s.costs.len(), 2);
        assert_eq!(
            s.costs[0],
            CostNote {
                line: 1,
                class: "layers".into()
            }
        );
        assert_eq!(
            s.costs[1],
            CostNote {
                line: 3,
                class: "const".into()
            }
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let s = scrub("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert_eq!(s.lines[0], "fn f<'a>(x: &'a str) -> &'a str { x }");
    }
}
