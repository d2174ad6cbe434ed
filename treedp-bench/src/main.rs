//! `treedp-bench`: host wall, simulated cost and per-layer spans of the
//! mpc-tree-dp workspace across five workloads. See `README.md` beside this
//! package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! treedp-bench --workload W --seed N --seconds S --trace 0|1   one measured run
//! treedp-bench trace --workload W [...]                        the same with --trace 1
//! treedp-bench all [--seed N] [--seconds S] [--repeats K] [--out FILE]
//! treedp-bench compare A B [--bounds BENCHMARK.json]
//! treedp-bench check [BENCHMARK.json]
//! treedp-bench manifest [catalogue]
//! ```

mod check;
mod compare;
mod json;
mod metrics;
mod mirror;
mod run;
mod span;
mod stats;
mod workloads;

use json::Json;
use run::RunArgs;
use std::process::ExitCode;

/// What the driver's contract passes when nothing else is said.
const DEFAULT_SEED: u64 = 7;
const DEFAULT_SECONDS: f64 = 10.0;
/// Trace files land here, relative to the working directory.
const OUT_DIR: &str = "treedp-bench/out";

struct Flags {
    positional: Vec<String>,
    named: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            positional: Vec::new(),
            named: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.named.push((name.to_string(), value.clone()));
                }
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.named
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?} as a number")),
        }
    }

    fn run_args(&self, trace: bool) -> Result<RunArgs, String> {
        let seconds: f64 = self.number("seconds", DEFAULT_SECONDS)?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} is outside (0, 600]"));
        }
        Ok(RunArgs {
            workload: self
                .get("workload")
                .ok_or("--workload is required")?
                .to_string(),
            seed: self.number("seed", DEFAULT_SEED)?,
            seconds,
            trace,
            out_dir: self.get("out-dir").unwrap_or(OUT_DIR).to_string(),
        })
    }
}

/// One measured run: print the result line last on stdout.
fn cmd_run(flags: &Flags, force_trace: bool) -> Result<ExitCode, String> {
    let trace = force_trace
        || match flags.get("trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        };
    let result = run::run(&flags.run_args(trace)?)?;
    if let Some(metrics) = result.line.get("metrics").and_then(Json::as_obj) {
        for (name, m) in metrics {
            eprintln!(
                "  {name:<40} {:>16} {}",
                m.get("value").map_or(String::new(), Json::compact),
                m.get("unit").and_then(Json::as_str).unwrap_or("")
            );
        }
    }
    println!("{}", result.line.compact());
    // A failed check is reported after every metric has been printed.
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, untraced then traced, each run in a child process so peak
/// RSS and allocator state belong to that run alone.
fn cmd_all(flags: &Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags.number("seed", DEFAULT_SEED)?;
    let seconds: f64 = flags.number("seconds", DEFAULT_SECONDS)?;
    let repeats: usize = flags.number("repeats", 1)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for w in &workloads::WORKLOADS {
        for (trace, repeat) in (0..repeats).map(|r| (false, r)).chain([(true, 0)]) {
            eprintln!("== {} (trace {}, repeat {repeat})", w.name, u8::from(trace));
            let output = std::process::Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .args(["--out-dir", flags.get("out-dir").unwrap_or(OUT_DIR)])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout
                .lines()
                .last()
                .ok_or_else(|| format!("{}: no result line", w.name))?;
            let result = json::parse(line).map_err(|e| format!("{}: {e}", w.name))?;
            all_correct &=
                output.status.success() && result.get("correct") == Some(&Json::Bool(true));
            runs.push(Json::obj([
                ("workload", Json::str(w.name)),
                ("seed", Json::Int(seed as i64)),
                ("trace", Json::Bool(trace)),
                ("result", result),
            ]));
        }
    }
    let doc = Json::obj([("runs", Json::Arr(runs))]);
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, doc.pretty()).map_err(|e| format!("cannot write {path}: {e}"))?
        }
        None => print!("{}", doc.pretty()),
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    let ok = |r: Result<(), String>| r.map(|()| ExitCode::SUCCESS);
    match flags.positional.first().map(String::as_str) {
        None => cmd_run(&flags, false),
        Some("trace") => cmd_run(&flags, true),
        Some("all") => cmd_all(&flags),
        Some("manifest") => {
            let doc = match flags.positional.get(1).map(String::as_str) {
                None => check::manifest(),
                Some("catalogue") => check::catalogue(),
                Some(other) => {
                    return Err(format!(
                        "manifest takes nothing or `catalogue`, not {other:?}"
                    ))
                }
            };
            print!("{}", doc.pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("check") => ok(check::check(
            flags
                .positional
                .get(1)
                .map_or("BENCHMARK.json", String::as_str),
        )),
        Some("compare") => match (flags.positional.get(1), flags.positional.get(2)) {
            (Some(a), Some(b)) => {
                compare::compare(a, b, flags.get("bounds").unwrap_or("BENCHMARK.json"))
            }
            _ => Err("compare needs two result files (written by `all --out`)".to_string()),
        },
        Some(other) => Err(format!(
            "unknown command {other:?}; one of trace, all, compare, check, manifest"
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("treedp-bench: {message}");
            ExitCode::from(2)
        }
    }
}
