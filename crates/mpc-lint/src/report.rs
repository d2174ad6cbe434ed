//! Finding representation and its rustc-style text rendering.

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`alloc-hygiene`, `round-blowup`, …).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
}

/// Render findings rustc-style, one `error[...]` block per finding.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "error[mpc-lint::{}]: {}\n  --> {}:{}\n",
            f.rule, f.message, f.file, f.line
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_format_is_rustc_style() {
        let t = render_text(&[Finding {
            rule: "round-blowup",
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            message: "`route` is a charged primitive inside an unbounded loop".into(),
        }]);
        assert!(t.contains("error[mpc-lint::round-blowup]"));
        assert!(t.contains("--> crates/x/src/lib.rs:7"));
    }
}
