//! Prefix sums in the MPC model (Section 2 of the paper; [Ladner–Fischer '80] lifted to
//! MPC as in [Goodrich–Sitchinava–Zhang '11]).

use crate::context::MpcContext;
use crate::distvec::DistVec;
use crate::words::Words;

impl MpcContext {
    /// Exclusive prefix sums: every record is annotated with the sum of `value(r)` over
    /// all records strictly before it in the current global order.
    ///
    /// Cost: every machine computes its local sum, the per-machine sums are combined in
    /// a fan-in tree and the offsets broadcast back (`2 · agg_rounds` rounds).
    // Called by `treedp-bench/src/workloads/probes.rs` (`probe.prefix_sums`).
    pub fn prefix_sums<T, F>(&mut self, dv: DistVec<T>, value: F) -> DistVec<(u64, T)>
    where
        T: Words,
        F: Fn(&T) -> u64,
    {
        let mut chunks_out: Vec<Vec<(u64, T)>> = Vec::with_capacity(dv.num_chunks());
        let mut running = 0u64;
        for chunk in dv.into_chunks() {
            let mut local = Vec::with_capacity(chunk.len());
            for item in chunk {
                let v = value(&item);
                local.push((running, item));
                running += v;
            }
            chunks_out.push(local);
        }
        let rounds = 2 * self.agg_rounds();
        self.charge_rounds(rounds);
        // One word (the machine-local sum) travels up and one offset travels back down
        // per machine.
        self.record_uniform_comm(1, "prefix_sums");
        let result = DistVec::from_chunks(chunks_out);
        self.check_memory(&result, "prefix_sums");
        result
    }

    /// Inclusive prefix maximum: every record is annotated with the maximum of
    /// `value(r)` over all records up to and including it.
    pub fn prefix_max<T, F>(&mut self, dv: DistVec<T>, value: F) -> DistVec<(u64, T)>
    where
        T: Words,
        F: Fn(&T) -> u64,
    {
        let mut chunks_out: Vec<Vec<(u64, T)>> = Vec::with_capacity(dv.num_chunks());
        let mut running = 0u64;
        for chunk in dv.into_chunks() {
            let mut local = Vec::with_capacity(chunk.len());
            for item in chunk {
                let v = value(&item);
                running = running.max(v);
                local.push((running, item));
            }
            chunks_out.push(local);
        }
        let rounds = 2 * self.agg_rounds();
        self.charge_rounds(rounds);
        self.record_uniform_comm(1, "prefix_max");
        let result = DistVec::from_chunks(chunks_out);
        self.check_memory(&result, "prefix_max");
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpcConfig;

    #[test]
    fn exclusive_prefix_sums_match_sequential() {
        let mut c = MpcContext::new(MpcConfig::new(1024, 0.5));
        let data: Vec<u64> = (1..=200).collect();
        let dv = c.from_vec(data.clone());
        let pf = c.prefix_sums(dv, |x| *x).into_vec();
        let mut acc = 0u64;
        for (i, (p, v)) in pf.iter().enumerate() {
            assert_eq!(*p, acc, "prefix mismatch at {i}");
            assert_eq!(*v, data[i]);
            acc += v;
        }
        assert!(c.metrics().rounds >= 2);
    }

    #[test]
    fn prefix_max_is_monotone_and_correct() {
        let mut c = MpcContext::new(MpcConfig::new(512, 0.5));
        let data: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        let dv = c.from_vec(data.clone());
        let pm = c.prefix_max(dv, |x| *x).into_vec();
        let mut run = 0u64;
        for (i, (m, v)) in pm.iter().enumerate() {
            run = run.max(data[i]);
            assert_eq!(*m, run);
            assert_eq!(*v, data[i]);
        }
    }

    #[test]
    fn prefix_on_empty_is_empty() {
        let mut c = MpcContext::new(MpcConfig::new(64, 0.5));
        let dv: DistVec<u64> = c.empty();
        assert!(c.prefix_sums(dv, |x| *x).is_empty());
    }
}
