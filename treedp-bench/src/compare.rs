//! `compare A B`: one row per (workload, end-to-end metric) of two result
//! files written by `all --out`, A being the base. With repeats in a file the
//! row carries medians and quartiles; the verdict follows the bound
//! `BENCHMARK.json` fixes for the metric.

use crate::json::{self, Json};
use crate::metrics::{Kind, END_TO_END};
use crate::stats::{median, quartiles, spread};
use crate::workloads::WORKLOADS;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The run-to-run spread is wider than the bound, so the medians cannot
    /// tell a regression from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How B stands against base A on one metric. `lower` says which direction is
/// better; `exact` metrics (simulated counts) compare with `==`.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, lower: bool, exact: bool) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Positive when B is worse, as a share of the base.
    let worse_by = if lower { mb - ma } else { ma - mb } / ma.abs().max(f64::MIN_POSITIVE);
    if exact {
        return if a.iter().chain(b).all(|v| *v == a[0]) {
            Verdict::Same
        } else if worse_by > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Better
        };
    }
    let beyond = if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    let noisy = [a, b].iter().filter_map(|v| spread(v)).any(|s| s > bound);
    if !noisy {
        return beyond;
    }
    // Still decided when every run of B reads better than every run of A.
    let ((a_lo, a_hi), (b_lo, b_hi)) = (min_max(a), min_max(b));
    let b_all_better = if lower { b_hi < a_lo } else { b_lo > a_hi };
    if b_all_better {
        beyond
    } else {
        Verdict::Unresolved
    }
}

fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)))
}

/// Values of `metric` on `workload` over the untraced runs of a result file.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace") == Some(&Json::Bool(false))
        })
        .filter_map(|run| {
            run.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn describe(v: &[f64]) -> String {
    match quartiles(v) {
        Some((q1, q3)) => format!("{:.6} [{:.6}, {:.6}] n={}", median(v), q1, q3, v.len()),
        None => format!("{:.6} n={}", median(v), v.len()),
    }
}

pub fn compare(a_path: &str, b_path: &str, bounds_path: &str) -> Result<ExitCode, String> {
    let (a, b, bounds) = (
        json::load(a_path)?,
        json::load(b_path)?,
        json::load(bounds_path)?,
    );
    let declared = bounds
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{bounds_path}: no end_to_end section"))?;
    println!("base A = {a_path}, B = {b_path}, bounds from {bounds_path}");
    println!(
        "{:<15} {:<15} {:<44} {:<44} {:>12} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B÷A", "bound"
    );
    let mut worse = 0;
    for w in &WORKLOADS {
        for m in declared {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = m.get("better").and_then(Json::as_str) != Some("higher");
            let exact = END_TO_END
                .iter()
                .any(|e| e.name == name && e.kind == Kind::Simulated);
            let (va, vb) = (values(&a, w.name, name), values(&b, w.name, name));
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{:<15} {:<15} missing in {}",
                    w.name,
                    name,
                    if va.is_empty() { "A" } else { "B" }
                );
                continue;
            }
            let v = verdict(&va, &vb, bound, lower, exact);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{:<15} {:<15} {:<44} {:<44} {:>12.6} {:>6}  {}{}",
                w.name,
                name,
                describe(&va),
                describe(&vb),
                median(&vb) / median(&va),
                bound,
                v.label(),
                if exact { " (exact)" } else { "" },
            );
        }
    }
    println!("ratios are B÷A: A is the base of every row");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_the_bound_is_same_beyond_it_is_worse_or_better() {
        let a = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            verdict(&a, &[104.0, 105.0, 103.0, 104.5], 0.1, true, false),
            Verdict::Same
        );
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0, 120.5], 0.1, true, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0, 80.5], 0.1, true, false),
            Verdict::Better
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0, 120.5], 0.1, false, false),
            Verdict::Better
        );
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0, 80.5], 0.1, false, false),
            Verdict::Worse
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_disjoint() {
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            verdict(&noisy, &[90.0, 110.0, 130.0, 150.0], 0.1, true, false),
            Verdict::Unresolved
        );
        // Every run of B beats every run of A.
        assert_eq!(
            verdict(&noisy, &[40.0, 50.0, 60.0, 70.0], 0.1, true, false),
            Verdict::Better
        );
    }

    #[test]
    fn exact_metrics_compare_with_equality() {
        assert_eq!(
            verdict(&[272.0, 272.0], &[272.0, 272.0], 0.02, true, true),
            Verdict::Same
        );
        assert_eq!(
            verdict(&[272.0, 272.0], &[300.0, 300.0], 0.02, true, true),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&[272.0], &[271.0], 0.02, true, true),
            Verdict::Better
        );
        assert_eq!(
            verdict(&[272.0], &[273.0], 0.02, true, true),
            Verdict::Worse
        );
    }
}
