//! Scans in the MPC model (Section 2 of the paper; [Ladner–Fischer '80] lifted to MPC
//! as in [Goodrich–Sitchinava–Zhang '11]): [`MpcContext::scan`] and its sum
//! specialisation [`MpcContext::prefix_sums`].

use crate::context::MpcContext;
use crate::distvec::DistVec;
use crate::words::Words;

impl MpcContext {
    /// Tell every machine what lies before it and what lies after it.
    ///
    /// Every machine folds its records, in order, from `empty` into one summary; the
    /// summaries are combined in machine order with the associative `combine`
    /// (`empty` its identity). Entry `i` of the result is what machine `i` receives:
    /// the combined summary of machines `0..i` and that of machines `i + 1..`. A
    /// machine that also combines its own summary in between knows the summary of
    /// the whole vector, so no extra aggregate is needed for a global total.
    ///
    /// Cost: the summaries travel up a fan-in `n^δ` tree and the two combinations
    /// travel back down (`2 · agg_rounds` rounds); every machine exchanges the words
    /// of one summary, counted at the size of the total.
    pub fn scan<T, S, F, G>(
        &mut self,
        dv: &DistVec<T>,
        empty: S,
        fold: F,
        combine: G,
    ) -> Vec<(S, S)>
    where
        S: Words + Clone,
        F: Fn(S, &T) -> S,
        G: Fn(S, S) -> S,
    {
        let own: Vec<S> = dv
            .chunks()
            .iter()
            .map(|chunk| chunk.iter().fold(empty.clone(), &fold))
            .collect();
        let mut around: Vec<(S, S)> = Vec::with_capacity(own.len());
        let mut before = empty.clone();
        for summary in &own {
            around.push((before.clone(), empty.clone()));
            before = combine(before, summary.clone());
        }
        let mut after = empty;
        for (slot, summary) in around.iter_mut().zip(own).rev() {
            slot.1 = after.clone();
            after = combine(summary, after);
        }
        self.charge_rounds(2 * self.agg_rounds());
        self.record_uniform_comm(after.words(), "scan");
        around
    }

    /// Exclusive prefix sums: every record is annotated with the sum of `value(r)` over
    /// all records strictly before it in the current global order — a
    /// [`scan`](Self::scan) of the per-machine sums (`2 · agg_rounds` rounds, one word
    /// per machine each way), decorated machine-locally.
    // Called by `treedp-bench/src/workloads/probes.rs` (`probe.prefix_sums`).
    pub fn prefix_sums<T, F>(&mut self, dv: DistVec<T>, value: F) -> DistVec<(u64, T)>
    where
        T: Words,
        F: Fn(&T) -> u64,
    {
        let offsets = self.scan(&dv, 0u64, |sum, item| sum + value(item), |a, b| a + b);
        let chunks_out: Vec<Vec<(u64, T)>> = dv
            .into_chunks()
            .into_iter()
            .zip(offsets)
            .map(|(chunk, (mut running, _))| {
                let mut local = Vec::with_capacity(chunk.len());
                for item in chunk {
                    let v = value(&item);
                    local.push((running, item));
                    running += v;
                }
                local
            })
            .collect();
        let result = DistVec::from_chunks(chunks_out);
        self.check_memory(&result, "prefix_sums");
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
    fn prefix_on_empty_is_empty() {
        let mut c = MpcContext::new(MpcConfig::new(64, 0.5));
        let dv: DistVec<u64> = c.empty();
        assert!(c.prefix_sums(dv, |x| *x).is_empty());
    }

    #[test]
    fn scan_hands_every_machine_the_combination_before_and_after_it() {
        let mut c = MpcContext::new(MpcConfig::new(256, 0.5));
        let data: Vec<u64> = (0..100).map(|i| (i * 37) % 101).collect();
        let dv = c.from_vec(data);
        // Concatenation is associative but not commutative: the result pins the order.
        let concat = |mut a: Vec<u64>, b: Vec<u64>| {
            a.extend(b);
            a
        };
        let around = c.scan(
            &dv,
            Vec::new(),
            |mut s, x| {
                s.push(*x);
                s
            },
            concat,
        );
        assert_eq!(around.len(), dv.num_chunks());
        let chunks = dv.chunks();
        for (i, (before, after)) in around.iter().enumerate() {
            assert_eq!(*before, chunks[..i].concat(), "before machine {i}");
            assert_eq!(*after, chunks[i + 1..].concat(), "after machine {i}");
        }
        assert_eq!(c.metrics().rounds, 2 * c.agg_rounds());
    }
}
