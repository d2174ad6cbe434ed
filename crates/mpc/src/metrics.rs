//! Round, communication, and memory metrics collected by the simulator.

use crate::error::Violation;

/// Aggregate metrics of one MPC execution.
///
/// These are the quantities the paper's complexity statements are about: the number of
/// communication rounds, the per-round bandwidth used, and the peak local memory of any
/// machine.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Number of communication rounds executed so far.
    pub rounds: u64,
    /// Total number of words sent across all machines and rounds.
    pub total_words_sent: u64,
    /// Maximum number of words any machine sent in a single round.
    pub max_words_sent_per_round: usize,
    /// Maximum number of words any machine received in a single round.
    pub max_words_received_per_round: usize,
    /// Peak local memory (in words) observed on any machine.
    pub peak_local_memory: usize,
    /// Recorded violations of the model constraints (empty in a compliant run).
    pub violations: Vec<Violation>,
    /// Per-phase breakdown, in the order phases were started.
    pub phases: Vec<PhaseMetrics>,
    /// One trace per [`converge`](crate::MpcContext::converge) invocation, in
    /// execution order: how many machines still held active (unconverged) work at
    /// each charged step. The bench harness turns these into the per-subroutine
    /// `active_machines` trajectories of the report.
    pub convergence: Vec<ConvergenceTrace>,
}

/// Active-machine trajectory of one fused convergence loop
/// (see [`MpcContext::converge`](crate::MpcContext::converge)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvergenceTrace {
    /// The `what` label the caller passed to `converge`.
    pub name: String,
    /// `active_machines[s]` = number of machines that emitted at least one
    /// request in charged step `s`. The length is the number of charged
    /// exchanges (a loop that converges immediately has an empty trajectory).
    pub active_machines: Vec<usize>,
}

/// Metrics attributed to one named phase of an algorithm
/// (e.g. "normalize", "clustering", "dp-bottom-up").
#[derive(Debug, Clone)]
pub struct PhaseMetrics {
    /// Phase name given to [`MpcContext::phase`](crate::MpcContext::phase).
    pub name: String,
    /// Rounds consumed by this phase.
    pub rounds: u64,
    /// Words sent during this phase (all machines).
    pub words_sent: u64,
    /// Simulator wall-clock time spent inside this phase, in milliseconds. Not part
    /// of the MPC model (and excluded from metric-identity comparisons): it only
    /// feeds the benchmark's per-phase breakdowns.
    pub wall_ms: f64,
}

/// A started phase: the metric values at `begin_phase` time plus the wall clock.
///
/// Wall-clock measurement lives here — with the rest of the metrics plumbing — and
/// not in algorithm code: timing is simulator bookkeeping that must never influence
/// algorithm behavior (the `determinism` lint bans `Instant::now` elsewhere).
#[derive(Debug)]
pub struct PhaseTimer {
    pub(crate) name: String,
    pub(crate) rounds0: u64,
    pub(crate) sent0: u64,
    start: std::time::Instant,
}

impl PhaseTimer {
    /// Snapshot the metric counters and the wall clock at phase entry.
    pub(crate) fn start(name: &str, metrics: &Metrics) -> Self {
        PhaseTimer {
            name: name.to_string(),
            rounds0: metrics.rounds,
            sent0: metrics.total_words_sent,
            start: std::time::Instant::now(),
        }
    }

    /// Milliseconds elapsed since [`start`](Self::start).
    pub(crate) fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }
}

impl Metrics {
    /// `true` when no model constraint was violated.
    pub fn compliant(&self) -> bool {
        self.violations.is_empty()
    }

    /// Ratio of [`peak_local_memory`](Self::peak_local_memory) to the given
    /// capacity — the model-headroom number the benchmark reports as `peak_mem_ratio`
    /// (1.0 means a machine touched its entire `Θ(n^δ)` budget; above 1.0 is a
    /// violation).
    // mpc-lint: allow(dead-pub-api) — read by `treedp-bench/src/workloads/mod.rs:63` (and `serve.rs`) for `peak_mem_ratio`; the linter does not scan `treedp-bench/`
    pub fn memory_headroom(&self, local_capacity: usize) -> f64 {
        self.peak_local_memory as f64 / local_capacity.max(1) as f64
    }

    /// Rounds consumed by the phase with the given name (summed over repeats),
    /// or 0 if the phase never ran.
    pub fn phase_rounds(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.rounds)
            .sum()
    }

    /// Human-readable one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "rounds={} sent={}w max_send/round={}w max_recv/round={}w peak_mem={}w violations={}",
            self.rounds,
            self.total_words_sent,
            self.max_words_sent_per_round,
            self.max_words_received_per_round,
            self.peak_local_memory,
            self.violations.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ViolationKind;

    #[test]
    fn default_is_compliant() {
        let m = Metrics::default();
        assert!(m.compliant());
        assert_eq!(m.rounds, 0);
    }

    #[test]
    fn violation_breaks_compliance() {
        let mut m = Metrics::default();
        m.violations.push(Violation {
            kind: ViolationKind::LocalMemory,
            machine: 0,
            round: 1,
            observed: 10,
            limit: 5,
            context: "test".into(),
        });
        assert!(!m.compliant());
    }

    #[test]
    fn phase_rounds_sum_over_repeats() {
        let mut m = Metrics::default();
        m.phases.push(PhaseMetrics {
            name: "sort".into(),
            rounds: 3,
            words_sent: 10,
            wall_ms: 0.0,
        });
        m.phases.push(PhaseMetrics {
            name: "sort".into(),
            rounds: 2,
            words_sent: 5,
            wall_ms: 0.0,
        });
        m.phases.push(PhaseMetrics {
            name: "other".into(),
            rounds: 7,
            words_sent: 1,
            wall_ms: 0.0,
        });
        assert_eq!(m.phase_rounds("sort"), 5);
        assert_eq!(m.phase_rounds("other"), 7);
        assert_eq!(m.phase_rounds("missing"), 0);
    }

    #[test]
    fn summary_mentions_rounds() {
        let m = Metrics {
            rounds: 42,
            ..Default::default()
        };
        assert!(m.summary().contains("rounds=42"));
    }
}
