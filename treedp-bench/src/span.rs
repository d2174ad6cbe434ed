//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Two kinds share one table. A *timed* span is the benchmark's own stopwatch
//! around a public function of a layer. A *derived* span is a `Metrics::phases`
//! record the library wrote during that call (`cluster-sizes`, `plan-up`,
//! `inc-struct`, …): it has a duration, rounds and words but no start time, and
//! hangs below the timed span whose call produced it. Spans stay in memory and
//! are written out once, when the run ends.

use crate::json::Json;
use mpc_tree_dp::mpc::Metrics;
use std::time::Instant;

/// Index into [`Tracer::spans`].
pub type SpanId = usize;

/// Returned by [`Tracer::begin`] when tracing is off.
const DISABLED: SpanId = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// Operation this span belongs to (spans of one op share it).
    pub op: usize,
    /// Tree or tenant the call worked on (index into the workload's names).
    pub tree: usize,
    pub parent: Option<SpanId>,
    /// Nanoseconds since the tracer's epoch; `None` for derived spans.
    pub start_ns: Option<u64>,
    pub dur_ns: u64,
    pub rounds: u64,
    pub words: u64,
}

/// Library phase → (span name, layer, enclosing library phase).
const PHASES: [(&str, &str, &str, Option<&str>); 14] = [
    ("normalize", "repr.normalize", "repr", None),
    (
        "degree-reduction",
        "clustering.reduce_degrees",
        "clustering",
        None,
    ),
    ("clustering", "clustering.build", "clustering", None),
    (
        "cluster-sizes",
        "clustering.cluster_sizes",
        "clustering",
        Some("clustering"),
    ),
    (
        "cluster-paths",
        "clustering.cluster_paths",
        "clustering",
        Some("clustering"),
    ),
    ("plan-build", "core.plan_build", "core", None),
    ("plan-solve", "core.plan_solve", "core", None),
    (
        "plan-inputs",
        "core.plan_inputs",
        "core",
        Some("plan-solve"),
    ),
    ("plan-up", "core.plan_up", "core", Some("plan-solve")),
    ("plan-down", "core.plan_down", "core", Some("plan-solve")),
    ("inc-dirty", "incremental.inc_dirty", "incremental", None),
    ("inc-up", "incremental.inc_up", "incremental", None),
    ("inc-down", "incremental.inc_down", "incremental", None),
    ("inc-struct", "incremental.inc_struct", "incremental", None),
];

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<SpanId>,
    op: usize,
    /// Per tree (one context each): how many of its `Metrics::phases` are
    /// already absorbed.
    cursors: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            cursors: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a timed span below the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: &'static str, tree: usize) -> SpanId {
        if !self.enabled {
            return DISABLED;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            op: self.op,
            tree,
            parent: self.stack.last().copied(),
            start_ns: Some(self.epoch.elapsed().as_nanos() as u64),
            dur_ns: 0,
            rounds: 0,
            words: 0,
        });
        self.stack.push(id);
        id
    }

    /// Close `id` (the innermost open span) with the simulated cost of its call.
    pub fn end(&mut self, id: SpanId, rounds: u64, words: u64) {
        if id == DISABLED {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.dur_ns = now - span.start_ns.unwrap_or(now);
        span.rounds = rounds;
        span.words = words;
    }

    /// Open the root span of the next operation.
    pub fn begin_op(&mut self, name: &'static str) -> SpanId {
        self.op += 1;
        self.begin(name, "op", 0)
    }

    /// Forget what was absorbed from `tree`'s context (a fresh one replaces it).
    pub fn reset_cursor(&mut self, tree: usize) {
        if let Some(c) = self.cursors.get_mut(tree) {
            *c = 0;
        }
    }

    /// Mark everything `tree`'s context has recorded so far as seen.
    pub fn skip_phases(&mut self, tree: usize, metrics: &Metrics) {
        self.absorb_phases(tree, metrics, DISABLED);
    }

    /// Spans recorded from here on are probes: they belong to no operation.
    pub fn enter_probes(&mut self) {
        self.op = 0;
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if let Some(span) = self.spans.get_mut(id) {
            span.name = name;
        }
    }

    /// Turn the phase records `tree`'s context wrote since the last call into
    /// derived spans below `parent`. Records arrive children-first (a phase is
    /// pushed when it ends), so a record adopts the pending records that name
    /// it as their enclosing phase.
    pub fn absorb_phases(&mut self, tree: usize, metrics: &Metrics, parent: SpanId) {
        if self.cursors.len() <= tree {
            self.cursors.resize(tree + 1, 0);
        }
        // A restored tenant starts from an empty context.
        let from = if metrics.phases.len() < self.cursors[tree] {
            0
        } else {
            self.cursors[tree]
        };
        self.cursors[tree] = metrics.phases.len();
        if parent == DISABLED {
            return;
        }
        let mut pending: Vec<(SpanId, &str)> = Vec::new();
        for rec in &metrics.phases[from..] {
            let Some(&(phase, name, layer, _)) = PHASES.iter().find(|p| p.0 == rec.name) else {
                continue;
            };
            let id = self.spans.len();
            self.spans.push(Span {
                name,
                layer,
                op: self.op,
                tree,
                parent: Some(parent),
                start_ns: None,
                dur_ns: (rec.wall_ms * 1e6) as u64,
                rounds: rec.rounds,
                words: rec.words_sent,
            });
            pending.retain(|&(child, child_phase)| {
                let encloser = PHASES.iter().find(|p| p.0 == child_phase).and_then(|p| p.3);
                if encloser == Some(phase) {
                    self.spans[child].parent = Some(id);
                    false
                } else {
                    true
                }
            });
            pending.push((id, phase));
        }
    }

    /// Self time of every span: its duration minus the part its child spans
    /// cover. Children of one span never overlap (one driver thread, and the
    /// library's phases of one call run one after another), so the covered part
    /// is the sum of their durations.
    pub fn self_ns(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    pub fn to_json(&self, trees: &[String]) -> Json {
        let selfs = self.self_ns();
        Json::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .enumerate()
                .map(|(id, (s, self_ns))| {
                    Json::obj([
                        ("id", Json::Int(id as i64)),
                        ("name", Json::str(s.name)),
                        ("layer", Json::str(s.layer)),
                        ("op", Json::Int(s.op as i64)),
                        (
                            "tree",
                            trees
                                .get(s.tree)
                                .map_or(Json::Null, |t| Json::str(t.as_str())),
                        ),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        ),
                        (
                            "start_us",
                            s.start_ns.map_or(Json::Null, |t| Json::Num(t as f64 / 1e3)),
                        ),
                        (
                            "end_us",
                            s.start_ns
                                .map_or(Json::Null, |t| Json::Num((t + s.dur_ns) as f64 / 1e3)),
                        ),
                        ("dur_us", Json::Num(s.dur_ns as f64 / 1e3)),
                        ("self_us", Json::Num(self_ns as f64 / 1e3)),
                        ("rounds", Json::Int(s.rounds as i64)),
                        ("words", Json::Int(s.words as i64)),
                    ])
                })
                .collect(),
        )
    }
}

fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns.saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_tree_dp::mpc::metrics::PhaseMetrics;

    fn span(parent: Option<SpanId>, dur_ns: u64) -> Span {
        Span {
            name: "s",
            layer: "l",
            op: 1,
            tree: 0,
            parent,
            start_ns: None,
            dur_ns,
            rounds: 0,
            words: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // 0 ── 1 ── 3
        //   └─ 2
        let spans = vec![
            span(None, 100),
            span(Some(0), 40),
            span(Some(0), 25),
            span(Some(1), 15),
        ];
        assert_eq!(self_times(&spans), vec![35, 25, 25, 15]);
    }

    #[test]
    fn self_time_never_goes_negative() {
        // Clock granularity can make children sum past their parent.
        let spans = vec![span(None, 10), span(Some(0), 7), span(Some(0), 6)];
        assert_eq!(self_times(&spans)[0], 0);
    }

    fn phase(name: &str, wall_ms: f64) -> PhaseMetrics {
        PhaseMetrics {
            name: name.into(),
            rounds: 1,
            words_sent: 2,
            wall_ms,
        }
    }

    #[test]
    fn phase_records_nest_below_their_enclosing_phase() {
        let mut m = Metrics::default();
        for (name, ms) in [
            ("normalize", 1.0),
            ("cluster-sizes", 2.0),
            ("cluster-paths", 3.0),
            ("cluster-sizes", 2.0),
            ("clustering", 10.0),
            ("unknown-phase", 9.0),
        ] {
            m.phases.push(phase(name, ms));
        }
        let mut t = Tracer::new(true);
        let op = t.begin_op("op");
        let call = t.begin("core.prepare", "core", 0);
        t.absorb_phases(0, &m, call);
        t.end(call, 0, 0);
        t.end(op, 0, 0);

        let by_name =
            |name: &str| -> Vec<&Span> { t.spans.iter().filter(|s| s.name == name).collect() };
        let build = t
            .spans
            .iter()
            .position(|s| s.name == "clustering.build")
            .unwrap();
        assert_eq!(t.spans[build].parent, Some(call));
        assert_eq!(by_name("repr.normalize")[0].parent, Some(call));
        assert_eq!(by_name("clustering.cluster_sizes").len(), 2);
        for s in by_name("clustering.cluster_sizes")
            .into_iter()
            .chain(by_name("clustering.cluster_paths"))
        {
            assert_eq!(s.parent, Some(build));
        }
        assert_eq!(t.self_ns()[build], 3_000_000);

        // Nothing new: nothing absorbed twice.
        let before = t.spans.len();
        let again = t.begin("core.prepare", "core", 0);
        t.absorb_phases(0, &m, again);
        t.end(again, 0, 0);
        assert_eq!(t.spans.len(), before + 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let op = t.begin_op("op");
        let id = t.begin("x", "y", 0);
        t.end(id, 1, 1);
        t.end(op, 0, 0);
        assert!(t.spans.is_empty());
    }
}
