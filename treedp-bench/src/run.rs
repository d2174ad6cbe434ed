//! One measured run of one workload: set-up, the time-boxed closed loop, the
//! end-of-run checks, and the result line.

use crate::json::Json;
use crate::metrics::{Source, END_TO_END, PER_LAYER};
use crate::span::{Span, Tracer};
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::workloads::{Gauges, OpOutcome, Sim, Workload, WorkloadInfo, WORKLOADS};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of a traced run spent untraced first, for `trace.overhead`.
const UNTRACED_SHARE: f64 = 1.0 / 3.0;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where `trace-<workload>.json` goes (traced runs only).
    pub out_dir: String,
}

pub struct RunResult {
    pub line: Json,
    pub correct: bool,
}

/// `sort_unstable` of 2^20 seeded words when the process starts: the same
/// work on every commit, so a shift here is the host, not the library.
fn calibration_sort_ms() -> f64 {
    let mut rng = crate::mirror::Rng::new(0xca11b);
    let mut v: Vec<u64> = (0..1 << 20).map(|_| rng.next()).collect();
    let start = Instant::now();
    v.sort_unstable();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(v);
    ms
}

/// CPU time of this process so far (user + system, every thread, finished
/// threads included), in ms, at the kernel's tick granularity.
fn cpu_ms() -> f64 {
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and stime are
            // the 12th and 13th of them.
            let rest = stat.rsplit_once(')')?.1;
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some(utime + stime)
        });
    // USER_HZ is 100 on every Linux ABI.
    ticks.map_or(0.0, |t| t * 10.0)
}

/// `VmHWM` of this process in MB (`0.0` where `/proc` does not say).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Loop {
    /// Wall inside each operation, ms.
    samples: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Simulated cost after the first `min_ops` operations.
    sim: Option<Sim>,
    /// `VmHWM` at the same point, so it does not grow with the run's length.
    rss_mb: f64,
    /// CPU time the loop used, every thread, checks included.
    cpu_ms: f64,
}

/// Run operations until `seconds` have passed and at least `min_ops` are done.
fn run_loop(w: &mut dyn Workload, t: &mut Tracer, seconds: f64, min_ops: usize) -> Loop {
    let mut out = Loop {
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        sim: None,
        rss_mb: 0.0,
        cpu_ms: 0.0,
    };
    let started = Instant::now();
    let cpu0 = cpu_ms();
    while out.samples.len() < min_ops || started.elapsed().as_secs_f64() < seconds {
        let OpOutcome {
            wall_ns,
            attempted,
            failed,
        } = w.op(t);
        out.samples.push(wall_ns as f64 / 1e6);
        out.attempted += attempted;
        out.failed += failed;
        if out.samples.len() == min_ops {
            out.sim = Some(w.sim());
            out.rss_mb = peak_rss_mb();
        }
    }
    out.cpu_ms = cpu_ms() - cpu0;
    out
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn find_workload(name: &str) -> Option<&'static WorkloadInfo> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let info = find_workload(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {:?}; one of {}",
            args.workload,
            names.join(", ")
        )
    })?;
    let calib_ms = calibration_sort_ms();

    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..setups {
        // One resident copy at a time, or peak RSS would count two.
        drop(workload.take());
        let (w, seconds) = (info.setup)(args.seed);
        setup_s.push(seconds);
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up ran");
    w.arm();

    let mut tracer = Tracer::new(false);
    let (metrics, attempted, failed) = if args.trace {
        let plain = run_loop(w.as_mut(), &mut tracer, args.seconds * UNTRACED_SHARE, 1);
        w.mark_phases(&mut tracer);
        tracer.set_enabled(true);
        let traced = run_loop(
            w.as_mut(),
            &mut tracer,
            args.seconds * (1.0 - UNTRACED_SHARE),
            1,
        );
        let done = w.finish();
        let mut gauges = Gauges::new();
        w.gauges(&mut gauges);
        tracer.enter_probes();
        w.probe(&mut tracer, &mut gauges);

        let ops = (plain.samples.len() + traced.samples.len()) as f64;
        let sim = w.sim();
        gauges.insert("mpc.violations_per_op", sim.violations as f64 / ops);
        gauges.insert("host.calib_sort_ms", calib_ms);
        gauges.insert(
            "host.worker_threads",
            mpc_tree_dp::mpc::par::worker_threads() as f64,
        );
        let walls = sorted(&traced.samples);
        gauges.insert("op.ms_p50", median(&traced.samples));
        gauges.insert("op.cpu_ms", traced.cpu_ms / traced.samples.len() as f64);
        gauges.insert("op.samples", walls.len() as f64);
        if let Some(p) = tail_percentile(walls.len()) {
            gauges.insert("op.tail_percentile", f64::from(p));
            gauges.insert("op.tail_ms", percentile(&walls, p));
        }
        let untraced_p50 = median(&plain.samples);
        if untraced_p50 > 0.0 {
            gauges.insert(
                "trace.overhead",
                median(&traced.samples) / untraced_p50 - 1.0,
            );
        }
        gauges.insert("trace.unattributed_share", unattributed_share(&tracer));

        let values = layer_values(&tracer, &gauges);
        let metrics = Json::Obj(
            PER_LAYER
                .iter()
                .zip(values)
                .map(|(m, v)| (m.name.to_string(), metric(v, m.unit)))
                .collect(),
        );
        (
            metrics,
            plain.attempted + traced.attempted + done.attempted,
            plain.failed + traced.failed + done.failed,
        )
    } else {
        let measured = run_loop(w.as_mut(), &mut tracer, args.seconds, info.sim_ops);
        let done = w.finish();
        let sim = measured
            .sim
            .expect("the loop ran at least sim_ops operations");
        let ops = measured.samples.len() as f64;
        let wall_ms: f64 = measured.samples.iter().sum();
        let sim_ops = info.sim_ops as f64;
        let value_of = |name: &str| match name {
            "setup_s" => median(&setup_s),
            "op_ms_p50" => median(&measured.samples),
            "ops_per_s" => ops / (wall_ms / 1e3),
            "rounds_per_op" => sim.rounds as f64 / sim_ops,
            "words_per_op" => sim.words as f64 / sim_ops,
            "peak_mem_ratio" => sim.peak_mem_ratio,
            "peak_rss_mb" => measured.rss_mb,
            other => unreachable!("no value for end-to-end metric {other}"),
        };
        let metrics = Json::Obj(
            END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), metric(value_of(m.name), m.unit)))
                .collect(),
        );
        eprintln!(
            "{}: {} operations in {:.1} s of operation wall, {} set-ups, calibration sort {:.1} ms",
            info.name,
            ops,
            wall_ms / 1e3,
            setups,
            calib_ms
        );
        (
            metrics,
            measured.attempted + done.attempted,
            measured.failed + done.failed,
        )
    };

    if args.trace {
        write_trace(args, info, w.trees(), &tracer)?;
    }
    let correct = failed == 0;
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted.max(1) as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", metrics),
    ]);
    Ok(RunResult { line, correct })
}

/// Operation time no layer span covers, as a share of operation time.
fn unattributed_share(t: &Tracer) -> f64 {
    let selfs = t.self_ns();
    let (mut own, mut total) = (0u64, 0u64);
    for (s, self_ns) in t.spans.iter().zip(selfs) {
        if s.layer == "op" {
            own += self_ns;
            total += s.dur_ns;
        }
    }
    own as f64 / total.max(1) as f64
}

/// The value of every per-layer metric, in catalogue order. Spans are summed
/// per operation and the median taken over the operations they occur in; each
/// probe span (operation 0) counts as its own operation. A metric whose span
/// never occurred on this workload reads 0: the layer is off its path.
fn layer_values(t: &Tracer, gauges: &Gauges) -> Vec<f64> {
    let selfs = t.self_ns();
    let mut by_name: BTreeMap<&str, Vec<(&Span, u64)>> = BTreeMap::new();
    for (s, self_ns) in t.spans.iter().zip(selfs) {
        by_name.entry(s.name).or_default().push((s, self_ns));
    }
    let per_op = |names: &[&str], field: &dyn Fn(&Span, u64) -> f64| -> f64 {
        let mut sums: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        for (i, (s, self_ns)) in names
            .iter()
            .filter_map(|n| by_name.get(n))
            .flatten()
            .enumerate()
        {
            let group = if s.op == 0 { (0, i) } else { (s.op, 0) };
            *sums.entry(group).or_default() += field(s, *self_ns);
        }
        median(&sums.into_values().collect::<Vec<_>>())
    };
    PER_LAYER
        .iter()
        .map(|m| match m.source {
            Source::Ms(names) => per_op(names, &|s, _| s.dur_ns as f64 / 1e6),
            Source::SelfMs(names) => per_op(names, &|_, own| own as f64 / 1e6),
            Source::Us(names) => per_op(names, &|s, _| s.dur_ns as f64 / 1e3),
            Source::Rounds(names) => per_op(names, &|s, _| s.rounds as f64),
            Source::Words(names) => per_op(names, &|s, _| s.words as f64),
            Source::Gauge => gauges.get(m.name).copied().unwrap_or(0.0),
        })
        .collect()
}

fn write_trace(
    args: &RunArgs,
    info: &WorkloadInfo,
    trees: &[String],
    t: &Tracer,
) -> Result<(), String> {
    let doc = Json::obj([
        ("workload", Json::str(info.name)),
        ("seed", Json::Int(args.seed as i64)),
        (
            "note",
            Json::str(
                "timed spans carry start_us/end_us from the benchmark's stopwatch; derived spans \
                 (start_us null) are Metrics::phases records the library wrote inside their parent's call; \
                 op 0 holds the standalone probes",
            ),
        ),
        ("spans", t.to_json(trees)),
    ]);
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir))?;
    let path = format!("{}/trace-{}.json", args.out_dir, info.name);
    std::fs::write(&path, doc.compact()).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("{}: {} spans written to {path}", info.name, t.spans.len());
    Ok(())
}
