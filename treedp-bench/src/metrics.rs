//! The catalogue: every metric the benchmark emits, with its unit, direction,
//! bound, whether the host or the simulated cluster pays it, and — for layer
//! metrics — which end-to-end metric it should move on which workload.
//! `BENCHMARK.json` is printed from this table (`treedp-bench manifest`) and
//! checked against it (`treedp-bench check`).

/// Who pays for what a metric counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// What the simulator costs to run on this machine.
    Host,
    /// What the modelled MPC cluster is charged. Identical run to run for a
    /// seed, and under `MPC_NO_PARALLEL=1`.
    Simulated,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub kind: Kind,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        kind: Kind::Host,
        what: "generation + everything done before the timed loop (prepare, plan, solver, admission) + one warm-up operation; median of three set-ups",
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        kind: Kind::Host,
        what: "median wall of one operation: cold solve of the workload's trees; four-problem evaluation on both trees; one update/link/cut/read cycle on both trees; 16 submits + flush",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        kind: Kind::Host,
        what: "operations completed ÷ wall inside operations (the mean, so stalls and tails count)",
    },
    EndToEnd {
        name: "rounds_per_op",
        unit: "rounds",
        better: "lower",
        bound: 0.15,
        kind: Kind::Simulated,
        what: "charged rounds over the first sim_ops operations ÷ sim_ops, summed over contexts",
    },
    EndToEnd {
        name: "words_per_op",
        unit: "words",
        better: "lower",
        bound: 0.15,
        kind: Kind::Simulated,
        what: "words sent over the first sim_ops operations ÷ sim_ops",
    },
    EndToEnd {
        name: "peak_mem_ratio",
        unit: "ratio",
        better: "lower",
        bound: 0.25,
        kind: Kind::Simulated,
        what: "max over contexts of peak_local_memory ÷ local_capacity after the first sim_ops operations (resident workloads include their set-up)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
        kind: Kind::Host,
        what: "VmHWM of the workload's process after the three set-ups and the first sim_ops operations",
    },
];

/// Where a layer metric's value comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Median over operations of the summed duration of these spans, in ms.
    Ms(&'static [&'static str]),
    /// The same, of their self time.
    SelfMs(&'static [&'static str]),
    /// The same as `Ms`, in µs.
    Us(&'static [&'static str]),
    /// Median over operations of the summed rounds of these spans.
    Rounds(&'static [&'static str]),
    /// Median over operations of the summed words of these spans.
    Words(&'static [&'static str]),
    /// A value the workload or the runner reports under the metric's name.
    Gauge,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub kind: Kind,
    pub source: Source,
    /// End-to-end metric this one should move, and on which workload.
    pub moves: &'static str,
    pub on: &'static str,
}

const fn host(
    name: &'static str,
    unit: &'static str,
    source: Source,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
        kind: Kind::Host,
        source,
        moves,
        on,
    }
}

const fn sim(
    name: &'static str,
    unit: &'static str,
    source: Source,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
        kind: Kind::Simulated,
        source,
        moves,
        on,
    }
}

const fn higher(mut m: PerLayer) -> PerLayer {
    m.better = "higher";
    m
}

use Source::{Gauge, Ms, Rounds, SelfMs, Us, Words};

const FLUSH: &[&str] = &["server.flush_hit", "server.flush_miss"];
const COLD: &str = "cold-deep, cold-shallow";

// One row per metric reads better than rustfmt's seven lines per call.
#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    // repr
    host("repr.normalize.ms", "ms", Ms(&["repr.normalize"]), "op_ms_p50", "cold-shallow"),
    sim("repr.normalize.rounds", "rounds", Rounds(&["repr.normalize"]), "rounds_per_op", "cold-shallow"),
    sim("repr.normalize.words", "words", Words(&["repr.normalize"]), "words_per_op", "cold-shallow"),
    // clustering
    host("clustering.reduce_degrees.ms", "ms", Ms(&["clustering.reduce_degrees"]), "op_ms_p50", "cold-shallow"),
    sim("clustering.reduce_degrees.rounds", "rounds", Rounds(&["clustering.reduce_degrees"]), "rounds_per_op", "cold-shallow"),
    sim("clustering.reduce_degrees.words", "words", Words(&["clustering.reduce_degrees"]), "words_per_op", "cold-shallow"),
    host("clustering.build.ms", "ms", Ms(&["clustering.build"]), "op_ms_p50", "cold-deep"),
    host("clustering.build.self_ms", "ms", SelfMs(&["clustering.build"]), "op_ms_p50", "cold-deep"),
    sim("clustering.build.rounds", "rounds", Rounds(&["clustering.build"]), "rounds_per_op", "cold-deep"),
    sim("clustering.build.words", "words", Words(&["clustering.build"]), "words_per_op", "cold-deep"),
    host("clustering.cluster_sizes.ms", "ms", Ms(&["clustering.cluster_sizes"]), "op_ms_p50", "cold-deep"),
    sim("clustering.cluster_sizes.rounds", "rounds", Rounds(&["clustering.cluster_sizes"]), "rounds_per_op", "cold-deep"),
    host("clustering.cluster_paths.ms", "ms", Ms(&["clustering.cluster_paths"]), "op_ms_p50", "cold-deep"),
    sim("clustering.cluster_paths.rounds", "rounds", Rounds(&["clustering.cluster_paths"]), "rounds_per_op", "cold-deep"),
    sim("clustering.converge_active_ratio", "ratio", Gauge, "op_ms_p50", "cold-deep"),
    sim("clustering.layers", "count", Gauge, "rounds_per_op", COLD),
    host("clustering.plan_repair.ms", "ms", Ms(&["clustering.plan_repair"]), "op_ms_p50", "stream-updates"),
    // core
    host("core.prepare.ms", "ms", Ms(&["core.prepare"]), "op_ms_p50", COLD),
    host("core.plan_build.ms", "ms", Ms(&["core.plan_build"]), "op_ms_p50", "cold-shallow, serve-mixed"),
    sim("core.plan_build.rounds", "rounds", Rounds(&["core.plan_build"]), "rounds_per_op", "cold-shallow, serve-mixed"),
    sim("core.plan_build.words", "words", Words(&["core.plan_build"]), "words_per_op", "cold-shallow, serve-mixed"),
    sim("core.plan_resident_words", "words", Gauge, "peak_rss_mb", "serve-mixed"),
    host("core.plan_solve.ms", "ms", Ms(&["core.plan_solve"]), "op_ms_p50", "warm-multi"),
    sim("core.plan_solve.rounds", "rounds", Rounds(&["core.plan_solve"]), "rounds_per_op", "warm-multi"),
    sim("core.plan_solve.words", "words", Words(&["core.plan_solve"]), "words_per_op", "warm-multi"),
    host("core.plan_inputs.ms", "ms", Ms(&["core.plan_inputs"]), "op_ms_p50", "warm-multi"),
    host("core.plan_up.ms", "ms", Ms(&["core.plan_up"]), "op_ms_p50", "warm-multi"),
    host("core.plan_down.ms", "ms", Ms(&["core.plan_down"]), "op_ms_p50", "warm-multi"),
    host("core.solve_many.ms", "ms", Ms(&["core.solve_many"]), "op_ms_p50", "warm-multi"),
    host("core.fresh_solve.ms", "ms", Ms(&["core.fresh_solve"]), "op_ms_p50", "none: the second engine, off every workload's path"),
    sim("core.fresh_solve.rounds", "rounds", Rounds(&["core.fresh_solve"]), "rounds_per_op", "none: the second engine, off every workload's path"),
    host("core.snapshot_encode.ms", "ms", Ms(&["core.snapshot_encode"]), "op_ms_p50", "none: serve-mixed keeps snapshots out of the flush latency"),
    host("core.snapshot_decode.ms", "ms", Ms(&["core.snapshot_decode"]), "op_ms_p50", "none: serve-mixed keeps snapshots out of the flush latency"),
    host("core.snapshot_bytes", "bytes", Gauge, "peak_rss_mb", "serve-mixed"),
    // problems
    host("problems.max_is.ms", "ms", Ms(&["problems.max_is"]), "op_ms_p50", "warm-multi"),
    host("problems.min_vc.ms", "ms", Ms(&["problems.min_vc"]), "op_ms_p50", "warm-multi"),
    host("problems.min_ds.ms", "ms", Ms(&["problems.min_ds"]), "op_ms_p50", "warm-multi"),
    host("problems.matching.ms", "ms", Ms(&["problems.matching"]), "op_ms_p50", "warm-multi"),
    // incremental
    host("incremental.new.ms", "ms", Gauge, "setup_s", "stream-updates"),
    sim("incremental.new.rounds", "rounds", Gauge, "setup_s", "stream-updates"),
    host("incremental.apply_batch_1.ms", "ms", Ms(&["incremental.apply_batch_1"]), "op_ms_p50", "stream-updates"),
    host("incremental.apply_batch_256.ms", "ms", Ms(&["incremental.apply_batch_256"]), "op_ms_p50", "stream-updates"),
    sim("incremental.apply_batch_256.rounds", "rounds", Rounds(&["incremental.apply_batch_256"]), "rounds_per_op", "stream-updates"),
    sim("incremental.apply_batch_256.words", "words", Words(&["incremental.apply_batch_256"]), "words_per_op", "stream-updates"),
    host("incremental.apply_batch_4096.ms", "ms", Ms(&["incremental.apply_batch_4096"]), "op_ms_p50", "stream-updates"),
    host("incremental.inc_dirty.ms", "ms", Ms(&["incremental.inc_dirty"]), "op_ms_p50", "stream-updates, serve-mixed"),
    host("incremental.inc_up.ms", "ms", Ms(&["incremental.inc_up"]), "op_ms_p50", "stream-updates, serve-mixed"),
    host("incremental.inc_down.ms", "ms", Ms(&["incremental.inc_down"]), "op_ms_p50", "stream-updates, serve-mixed"),
    sim("incremental.resummarized_per_batch", "count", Gauge, "op_ms_p50", "stream-updates"),
    host("incremental.apply_structural_1.ms", "ms", Ms(&["incremental.apply_structural_1"]), "op_ms_p50", "stream-updates"),
    sim("incremental.apply_structural_1.rounds", "rounds", Rounds(&["incremental.apply_structural_1"]), "rounds_per_op", "stream-updates"),
    host("incremental.apply_structural_16.ms", "ms", Ms(&["incremental.apply_structural_16"]), "op_ms_p50", "stream-updates"),
    sim("incremental.apply_structural_16.rounds", "rounds", Rounds(&["incremental.apply_structural_16"]), "rounds_per_op", "stream-updates"),
    host("incremental.inc_struct.ms", "ms", Ms(&["incremental.inc_struct"]), "op_ms_p50", "stream-updates, serve-mixed"),
    sim("incremental.patched_clusters_per_batch", "count", Gauge, "op_ms_p50", "stream-updates"),
    sim("incremental.degraded_ratio", "ratio", Gauge, "op_ms_p50", "stream-updates, serve-mixed"),
    host("incremental.solution.ms", "ms", Ms(&["incremental.solution"]), "op_ms_p50", "stream-updates"),
    // tree-dp-server
    host("server.admit.ms", "ms", Gauge, "setup_s", "serve-mixed"),
    sim("server.admit.rounds", "rounds", Gauge, "setup_s", "serve-mixed"),
    host("server.submit.us", "us", Us(&["server.submit"]), "op_ms_p50", "serve-mixed"),
    host("server.flush_hit.ms", "ms", Ms(&["server.flush_hit"]), "op_ms_p50", "serve-mixed"),
    host("server.flush_miss.ms", "ms", Ms(&["server.flush_miss"]), "ops_per_s", "serve-mixed"),
    sim("server.flush.rounds", "rounds", Rounds(FLUSH), "rounds_per_op", "serve-mixed"),
    higher(sim("server.cache_hit_ratio", "ratio", Gauge, "op_ms_p50", "serve-mixed")),
    sim("server.evictions", "count", Gauge, "ops_per_s", "serve-mixed"),
    sim("server.miss_rebuild_rounds", "rounds", Gauge, "rounds_per_op", "serve-mixed"),
    higher(sim("server.resident_plans", "count", Gauge, "op_ms_p50", "serve-mixed")),
    host("server.snapshot_tenant.ms", "ms", Ms(&["server.snapshot_tenant"]), "op_ms_p50", "none: kept out of the flush latency"),
    host("server.restore_tenant.ms", "ms", Ms(&["server.restore_tenant"]), "op_ms_p50", "none: kept out of the flush latency"),
    sim("server.snapshot_bytes", "bytes", Gauge, "peak_rss_mb", "serve-mixed"),
    sim("server.rejected", "count", Gauge, "ops_per_s", "serve-mixed"),
    // mpc
    host("mpc.from_vec.ms", "ms", Ms(&["probe.from_vec"]), "op_ms_p50", COLD),
    host("mpc.sort_by_key.ms", "ms", Ms(&["probe.sort_by_key"]), "op_ms_p50", COLD),
    sim("mpc.sort_by_key.rounds", "rounds", Rounds(&["probe.sort_by_key"]), "rounds_per_op", COLD),
    sim("mpc.sort_by_key.words", "words", Words(&["probe.sort_by_key"]), "words_per_op", COLD),
    host("mpc.sort_with_index.ms", "ms", Ms(&["probe.sort_with_index"]), "op_ms_p50", COLD),
    host("mpc.sort_table.ms", "ms", Ms(&["probe.sort_table"]), "op_ms_p50", COLD),
    host("mpc.join_lookup.ms", "ms", Ms(&["probe.join_lookup"]), "op_ms_p50", COLD),
    host("mpc.join_lookup_sorted.ms", "ms", Ms(&["probe.join_lookup_sorted"]), "op_ms_p50", COLD),
    host("mpc.join_lookup2.ms", "ms", Ms(&["probe.join_lookup2"]), "op_ms_p50", COLD),
    host("mpc.gather_groups.ms", "ms", Ms(&["probe.gather_groups"]), "op_ms_p50", "cold-shallow"),
    host("mpc.route.ms", "ms", Ms(&["probe.route"]), "op_ms_p50", "cold-shallow"),
    host("mpc.rebalance.ms", "ms", Ms(&["probe.rebalance"]), "op_ms_p50", COLD),
    host("mpc.prefix_sums.ms", "ms", Ms(&["probe.prefix_sums"]), "op_ms_p50", COLD),
    host("mpc.all_reduce.us", "us", Us(&["probe.all_reduce"]), "op_ms_p50", COLD),
    host("mpc.converge.ms", "ms", Ms(&["probe.converge"]), "op_ms_p50", "cold-deep"),
    sim("mpc.converge.steps", "count", Gauge, "rounds_per_op", "cold-deep"),
    higher(host("mpc.par_speedup", "ratio", Gauge, "op_ms_p50", COLD)),
    sim("mpc.violations_per_op", "count", Gauge, "peak_mem_ratio", "all"),
    // host and the run itself
    host("treegen.generate.ms", "ms", Gauge, "setup_s", "all"),
    host("host.calib_sort_ms", "ms", Gauge, "none: tells host noise from regression", "all"),
    host("host.worker_threads", "count", Gauge, "none: the pool the host timings ran on", "all"),
    host("op.ms_p50", "ms", Gauge, "op_ms_p50", "all"),
    host("op.cpu_ms", "ms", Gauge, "ops_per_s", "all"),
    host("op.samples", "count", Gauge, "none: sample count behind the traced timings", "all"),
    host("op.tail_percentile", "count", Gauge, "none: highest percentile with ten samples beyond it", "all"),
    host("op.tail_ms", "ms", Gauge, "ops_per_s", "serve-mixed, stream-updates"),
    host("trace.overhead", "ratio", Gauge, "none: traced ÷ untraced median operation wall − 1", "all"),
    host("trace.unattributed_share", "ratio", Gauge, "none: operation time outside every layer span", "all"),
];

/// Letters, digits, `_`, `.` and `-`, starting with a letter or digit, at most
/// 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(crate::workloads::WORKLOADS.iter().map(|w| w.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(!valid_name("a b") && !valid_name("") && !valid_name(".x") && !valid_name("é"));
    }

    #[test]
    fn catalogue_fits_the_contract() {
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for m in PER_LAYER {
            assert!(m.unit.len() <= 16, "{}", m.name);
            if !m.moves.starts_with("none") {
                assert!(
                    END_TO_END.iter().any(|e| e.name == m.moves),
                    "{} moves an unknown metric",
                    m.name
                );
            }
        }
    }
}
