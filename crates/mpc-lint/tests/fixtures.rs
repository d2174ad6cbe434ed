//! UI-style fixture tests for the lint rules.
//!
//! Every file in `tests/fixtures/` is linted as its own one-file workspace. The
//! first line `//@ path: <workspace-relative path>` sets the path the rules see
//! (which decides crate scoping and hot-path membership). Snapshot-ABI fixtures
//! carry their lockfile in `//@ lock:` lines — verbatim lock text, or the single
//! word `fresh` to have the driver regenerate the lock from the fixture source
//! (what `--write-abi-lock` does). In `*_bad.rs` fixtures, each offending line
//! carries a `//~ <rule>` marker and the findings must match the markers exactly;
//! `*_allowed.rs` fixtures show the same shapes with reasoned allow directives
//! and must come back clean.

use mpc_lint::model::FnSpan;
use mpc_lint::{abi, lint_sources, FileModel, LintConfig, ALL_RULES};
use std::path::{Path, PathBuf};

/// A parsed fixture: file name, pretend workspace path, raw source, and the
/// `//@ lock:` directive lines (if any).
struct Fixture {
    name: String,
    path: String,
    source: String,
    lock_lines: Vec<String>,
}

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn load_fixtures() -> Vec<Fixture> {
    let dir = fixtures_dir();
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("tests/fixtures directory exists") {
        let path = entry.expect("readable fixture dir entry").path();
        if path.extension() != Some("rs".as_ref()) {
            continue;
        }
        let name = path
            .file_name()
            .expect("a read_dir entry has a file name")
            .to_string_lossy()
            .into_owned();
        let source = std::fs::read_to_string(&path).expect("readable fixture file");
        let pretend = source
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("//@ path:"))
            .unwrap_or_else(|| panic!("{name}: first line must be `//@ path: <path>`"))
            .trim()
            .to_string();
        let lock_lines = source
            .lines()
            .filter_map(|l| l.strip_prefix("//@ lock:"))
            .map(|l| l.trim().to_string())
            .collect();
        out.push(Fixture {
            name,
            path: pretend,
            source,
            lock_lines,
        });
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    assert!(!out.is_empty(), "no fixtures found in {}", dir.display());
    out
}

/// Collect `//~ <rule>` markers as (line, rule) pairs, sorted like findings are.
fn markers(source: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        let mut rest = line;
        while let Some(p) = rest.find("//~") {
            let tail = rest[p + 3..].trim_start();
            let rule: String = tail
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '-')
                .collect();
            assert!(
                ALL_RULES.contains(&rule.as_str()),
                "marker names unknown rule `{rule}` on line {}",
                idx + 1
            );
            out.push((idx + 1, rule));
            rest = &rest[p + 3..];
        }
    }
    out.sort();
    out
}

/// Build the per-fixture config: `//@ lock:` lines become the committed
/// `snapshot-abi.lock` the `snapshot-abi` rule compares against. The single word
/// `fresh` regenerates the lock from the fixture source itself.
fn fixture_config(fx: &Fixture) -> LintConfig {
    let mut cfg = LintConfig::default();
    if !fx.lock_lines.is_empty() {
        cfg.abi_lock = Some(if fx.lock_lines == ["fresh"] {
            let fm = FileModel::build(&fx.path, &fx.source);
            abi::render_lock(&abi::extract(std::slice::from_ref(&fm)))
        } else {
            fx.lock_lines.join("\n")
        });
    }
    cfg
}

#[test]
fn bad_fixtures_fire_exactly_the_marked_findings() {
    let mut checked = 0;
    for fx in load_fixtures() {
        if !fx.name.ends_with("_bad.rs") {
            continue;
        }
        let cfg = fixture_config(&fx);
        let expected = markers(&fx.source);
        assert!(
            !expected.is_empty(),
            "{}: bad fixture has no //~ markers",
            fx.name
        );
        let findings = lint_sources(&[(fx.path.as_str(), fx.source.as_str())], &cfg);
        let got: Vec<(usize, String)> = findings
            .iter()
            .map(|f| (f.line, f.rule.to_string()))
            .collect();
        assert_eq!(
            got, expected,
            "{}: findings diverge from //~ markers\nfindings: {findings:#?}",
            fx.name
        );
        checked += 1;
    }
    assert_eq!(checked, 4, "expected one bad fixture per rule");
}

#[test]
fn allowed_fixtures_come_back_clean() {
    let mut checked = 0;
    for fx in load_fixtures() {
        if !fx.name.ends_with("_allowed.rs") {
            continue;
        }
        let cfg = fixture_config(&fx);
        let findings = lint_sources(&[(fx.path.as_str(), fx.source.as_str())], &cfg);
        assert!(
            findings.is_empty(),
            "{}: allowed fixture still fires: {findings:#?}",
            fx.name
        );
        checked += 1;
    }
    assert_eq!(checked, 4, "expected one allowed fixture per rule");
}

#[test]
fn fixture_fn_spans_cover_the_marked_functions() {
    let fx = load_fixtures()
        .into_iter()
        .find(|f| f.name == "round_blowup_bad.rs")
        .expect("round-blowup fixture present");
    let model = FileModel::build(&fx.path, &fx.source);
    let spans: Vec<&FnSpan> = model.fns.iter().collect();
    let names: Vec<&str> = spans.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["shuffle_once", "drain_direct", "drain_transitive"]);
    for f in &spans {
        assert!(f.start < f.end, "fn `{}` span is non-empty", f.name);
        assert!(!f.is_test, "fixture fns are not test code");
    }
}
