//! MPC model parameters.

/// Parameters of the simulated MPC system.
///
/// The model is parameterized by the input size `n` (in words) and the memory exponent
/// `δ`: every machine has `S = ceil(memory_slack · n^δ)` words of local memory and the
/// system has `ceil(n / S) + 1` machines (so that the total distributed memory is
/// `Θ(n)` words, as in the paper). Per round, a machine may send and receive at most
/// `ceil(bandwidth_slack · n^δ)` words.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpcConfig {
    /// Input size in words. Determines machine memory `n^δ` and machine count.
    pub n: usize,
    /// Memory exponent `0 < δ < 1`.
    pub delta: f64,
    /// Constant factor hidden in `Θ(n^δ)` local memory.
    pub memory_slack: f64,
    /// Constant factor hidden in the per-round `Θ(n^δ)` send/receive budget.
    pub bandwidth_slack: f64,
    /// If `true`, memory / bandwidth violations abort the computation with an error;
    /// otherwise they are recorded in [`Metrics`](crate::Metrics) and execution continues.
    pub strict: bool,
}

impl MpcConfig {
    /// Create a configuration with default slack constants (`memory_slack = 32`,
    /// `bandwidth_slack = 32` — the Θ(·) constants absorb the fact that records span
    /// several words) and non-strict accounting.
    ///
    /// # Panics
    /// Panics if `delta` is not in `(0, 1)` or `n == 0`.
    pub fn new(n: usize, delta: f64) -> Self {
        assert!(n > 0, "MPC input size must be positive");
        assert!(
            delta > 0.0 && delta < 1.0,
            "delta must lie strictly between 0 and 1, got {delta}"
        );
        Self {
            n,
            delta,
            memory_slack: 32.0,
            bandwidth_slack: 32.0,
            strict: false,
        }
    }

    /// Same as [`new`](Self::new) but with strict enforcement of the memory and
    /// bandwidth caps (violations become errors / panics in the primitives).
    pub fn strict(n: usize, delta: f64) -> Self {
        Self {
            strict: true,
            ..Self::new(n, delta)
        }
    }

    /// Builder-style setter for the memory slack constant.
    pub fn with_memory_slack(mut self, slack: f64) -> Self {
        assert!(slack > 0.0);
        self.memory_slack = slack;
        self
    }

    /// Builder-style setter for the bandwidth slack constant.
    pub fn with_bandwidth_slack(mut self, slack: f64) -> Self {
        assert!(slack > 0.0);
        self.bandwidth_slack = slack;
        self
    }

    /// Builder-style setter for strict mode.
    pub fn with_strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Does nothing: machine-local work runs on the calling thread.
    #[doc(hidden)]
    // Called by `treedp-bench/src/workloads/probes.rs` (`par_speedup`).
    pub fn with_parallel(self, _: bool) -> Self {
        self
    }

    /// `n^δ`, the base local-memory term, rounded up and at least 2.
    pub fn n_delta(&self) -> usize {
        ((self.n as f64).powf(self.delta).ceil() as usize).max(2)
    }

    /// `n^{δ/2}`, the degree / cluster-size threshold used by the clustering algorithm
    /// (Section 4 of the paper), rounded up and at least 2.
    pub fn n_half_delta(&self) -> usize {
        ((self.n as f64).powf(self.delta / 2.0).ceil() as usize).max(2)
    }

    /// Local memory capacity of one machine in words: `ceil(memory_slack · n^δ)`.
    pub fn local_capacity(&self) -> usize {
        ((self.memory_slack * (self.n as f64).powf(self.delta)).ceil() as usize).max(4)
    }

    /// Per-round send/receive budget of one machine in words.
    pub fn bandwidth_capacity(&self) -> usize {
        ((self.bandwidth_slack * (self.n as f64).powf(self.delta)).ceil() as usize).max(4)
    }

    /// Number of simulated machines: enough to hold `n` words plus one spare, so that
    /// the total distributed memory is `Θ(n)`.
    pub fn num_machines(&self) -> usize {
        let per = self.n_delta();
        self.n.div_ceil(per) + 1
    }

    /// Number of words a machine ideally holds when a [`DistVec`](crate::DistVec) of
    /// `total` words is balanced across machines.
    pub fn balanced_chunk(&self, total: usize) -> usize {
        let m = self.num_machines();
        (total + m - 1) / m.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_grow_with_n() {
        let a = MpcConfig::new(1 << 10, 0.5);
        let b = MpcConfig::new(1 << 16, 0.5);
        assert!(b.local_capacity() > a.local_capacity());
        assert!(b.num_machines() > a.num_machines());
    }

    #[test]
    fn n_delta_matches_power() {
        let cfg = MpcConfig::new(10_000, 0.5);
        assert_eq!(cfg.n_delta(), 100);
        assert_eq!(cfg.n_half_delta(), 10);
    }

    #[test]
    fn machine_count_covers_input() {
        for &n in &[1usize, 7, 100, 4096, 1 << 15] {
            for &d in &[0.3, 0.5, 0.75] {
                let cfg = MpcConfig::new(n, d);
                assert!(cfg.num_machines() * cfg.n_delta() >= n);
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_delta_one() {
        MpcConfig::new(100, 1.0);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_n() {
        MpcConfig::new(0, 0.5);
    }

    #[test]
    fn builders_apply() {
        let cfg = MpcConfig::new(100, 0.5)
            .with_memory_slack(2.0)
            .with_bandwidth_slack(8.0)
            .with_strict(true);
        assert_eq!(cfg.memory_slack, 2.0);
        assert_eq!(cfg.bandwidth_slack, 8.0);
        assert!(cfg.strict);
    }
}
