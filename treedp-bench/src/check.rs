//! `manifest` prints `BENCHMARK.json` (and the longer `catalogue.json`) from
//! the catalogue in `metrics.rs`; `check` fails when a committed file and the
//! program disagree in either direction.

use crate::json::{self, Json};
use crate::metrics::{valid_name, Kind, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use std::collections::BTreeSet;

/// Seconds one run measures; `--seconds` from the driver carries the same.
const RUN_SECONDS: i64 = 10;
/// The benchmark's directory, relative to the repository root.
const PATH: &str = "treedp-bench";
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "treedp-bench/Cargo.toml",
    "--",
];

fn kind(k: Kind) -> Json {
    Json::str(match k {
        Kind::Host => "host",
        Kind::Simulated => "simulated",
    })
}

/// `BENCHMARK.json`, with exactly the keys the driver's contract names.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str(PATH)])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// What `BENCHMARK.json` has no keys for: who pays for each metric, how it is
/// defined, which end-to-end metric a layer metric should move on which
/// workload, and each workload's frozen `sim_ops`.
pub fn catalogue() -> Json {
    Json::obj([
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::str(w.name)),
                            ("sim_ops", Json::Int(w.sim_ops as i64)),
                            ("why", Json::str(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("kind", kind(m.kind)),
                            ("definition", Json::str(m.what)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("kind", kind(m.kind)),
                            ("moves", Json::str(m.moves)),
                            ("on", Json::str(m.on)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Names under `section` of a manifest-shaped document.
fn names(doc: &Json, section: &str) -> BTreeSet<String> {
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|entry| entry.get("name").and_then(Json::as_str))
        .map(str::to_string)
        .collect()
}

/// Every way `committed` differs from what the program emits.
pub fn differences(committed: &Json, emitted: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    for section in ["workloads", "end_to_end", "per_layer"] {
        let (file, program) = (names(committed, section), names(emitted, section));
        for name in file.difference(&program) {
            problems.push(format!(
                "{section}: {name} is in the file but never emitted"
            ));
        }
        for name in program.difference(&file) {
            problems.push(format!("{section}: {name} is emitted but not in the file"));
        }
        for name in file.iter().filter(|n| !valid_name(n)) {
            problems.push(format!(
                "{section}: {name:?} is not made of letters, digits, '_', '.', '-'"
            ));
        }
    }
    // Same names: then units, directions, bounds, command and the rest must
    // match to the letter.
    if problems.is_empty() && committed != emitted {
        for (key, value) in emitted.as_obj().unwrap_or(&[]) {
            if committed.get(key) != Some(value) {
                problems.push(format!("{key}: the file and the program differ"));
            }
        }
        let keys = |doc: &Json| -> Vec<String> {
            doc.as_obj()
                .unwrap_or(&[])
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        if keys(committed) != keys(emitted) {
            problems.push("top-level keys differ".to_string());
        }
    }
    problems
}

/// Check `BENCHMARK.json` at `path` and, when it sits beside the benchmark's
/// directory, `catalogue.json` in it.
pub fn check(path: &str) -> Result<(), String> {
    let mut problems = differences(&json::load(path)?, &manifest());
    let catalogue_path = std::path::Path::new(path)
        .with_file_name(PATH)
        .join("catalogue.json");
    if catalogue_path.exists() {
        let shown = catalogue_path.display().to_string();
        problems.extend(
            differences(&json::load(&shown)?, &catalogue())
                .into_iter()
                .map(|p| format!("{shown}: {p}")),
        );
    }
    if problems.is_empty() {
        println!(
            "{path}: {} workloads, {} end-to-end and {} per-layer metrics agree with the program",
            WORKLOADS.len(),
            END_TO_END.len(),
            PER_LAYER.len()
        );
        Ok(())
    } else {
        Err(format!(
            "{path} disagrees with the program:\n  {}",
            problems.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_agrees_with_itself_and_survives_a_round_trip() {
        let m = manifest();
        assert!(differences(&m, &m).is_empty());
        let back = json::parse(&m.pretty()).expect("own output parses");
        assert!(differences(&back, &m).is_empty());
        let c = catalogue();
        assert!(differences(&json::parse(&c.pretty()).unwrap(), &c).is_empty());
    }

    #[test]
    fn disagreement_is_reported_in_both_directions() {
        let text = manifest()
            .pretty()
            .replace("\"op_ms_p50\"", "\"op_ms_p51\"")
            .replace("\"warm-multi\"", "\"warm multi\"");
        let edited = json::parse(&text).unwrap();
        let problems = differences(&edited, &manifest()).join("\n");
        assert!(problems.contains("op_ms_p51 is in the file but never emitted"));
        assert!(problems.contains("op_ms_p50 is emitted but not in the file"));
        assert!(problems.contains("\"warm multi\" is not made of"));
    }

    #[test]
    fn a_changed_bound_or_unit_is_a_difference() {
        let text = manifest().pretty().replace("\"MB\"", "\"MiB\"");
        let problems = differences(&json::parse(&text).unwrap(), &manifest());
        assert_eq!(
            problems,
            vec!["end_to_end: the file and the program differ"]
        );
    }

    #[test]
    fn manifest_is_inside_the_contract_limits() {
        let m = manifest();
        assert!(m.pretty().len() <= 64 * 1024);
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(w.why.chars().count() <= 200, "{}", w.name);
            assert!(!w.why.contains('\n'));
        }
        assert!(COMMAND.len() <= 32);
        // 4 + 22 runs per workload, with set-up, inside the driver's 3420 s.
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
