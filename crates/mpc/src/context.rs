//! The MPC execution context: round counting, memory/bandwidth accounting, and the
//! basic communication primitives (routing, all-reduce, rebalancing).

use crate::config::MpcConfig;
use crate::distvec::DistVec;
use crate::error::{ConvergeError, MpcError, MpcResult, Violation, ViolationKind};
use crate::metrics::{ConvergenceTrace, Metrics, PhaseMetrics, PhaseTimer};
use crate::scratch::Scratch;
use crate::sortkey::SortKey;
use crate::words::{slice_words, Words};
use crate::MachineId;

/// A per-machine outbox used by custom communication rounds
/// (see [`MpcContext::communicate`]).
#[derive(Debug)]
pub struct Outbox<M> {
    msgs: Vec<(MachineId, M)>,
}

impl<M> Outbox<M> {
    /// Create an empty outbox.
    fn new() -> Self {
        Self { msgs: Vec::new() }
    }

    /// Queue `msg` for delivery to machine `to` at the end of the round.
    pub fn send(&mut self, to: MachineId, msg: M) {
        self.msgs.push((to, msg));
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// `true` when no message has been queued.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-machine transient buffers of one [`MpcContext::converge`] step. They persist
/// across steps (cleared, capacity kept), so the convergence loop performs no net
/// heap growth once warm — the same discipline as the scratch arena.
#[derive(Debug)]
struct ConvergeBuf<K, A> {
    /// Keys this machine's states emitted in the current step, per state contiguous
    /// (a machine whose states all converged emits nothing and drops out of the
    /// exchange).
    emitted: Vec<K>,
    /// Number of keys emitted per state, aligned with the chunk's state order.
    counts: Vec<u32>,
    /// `(key, answer)` per emitted key, in emission order.
    answers: Vec<(K, Option<A>)>,
    /// Words of emitted request keys (this machine's send share).
    req_words: usize,
    /// Words of hit answers (this machine's receive share).
    hit_words: usize,
}

impl<K, A> ConvergeBuf<K, A> {
    /// Buffers for a machine holding `states` states.
    fn with_capacity(states: usize) -> Self {
        Self {
            emitted: Vec::with_capacity(states),
            counts: Vec::with_capacity(states),
            answers: Vec::with_capacity(states),
            req_words: 0,
            hit_words: 0,
        }
    }
}

/// A running MPC system: owns the configuration and all metrics, and exposes the
/// communication primitives that algorithms are built from.
///
/// Every primitive charges the number of communication rounds a deterministic MPC
/// implementation of that primitive needs (constants follow the references in Section 2
/// of the paper), records the communication volume actually moved, and checks the
/// resulting data layout against the `Θ(n^δ)` local-memory cap.
#[derive(Debug)]
pub struct MpcContext {
    cfg: MpcConfig,
    metrics: Metrics,
    phase_stack: Vec<PhaseTimer>,
    /// Reusable scratch buffers for the primitive hot path (radix pairs, merge heap,
    /// counters, record-buffer pool) — see [`crate::scratch`]. Invisible to the MPC
    /// model: affects only the simulator's wall-clock time and allocator traffic.
    pub(crate) scratch: Scratch,
}

impl MpcContext {
    /// Create a context for the given configuration.
    pub fn new(cfg: MpcConfig) -> Self {
        Self {
            cfg,
            metrics: Metrics::default(),
            phase_stack: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// The configuration this context runs under.
    pub fn config(&self) -> &MpcConfig {
        &self.cfg
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Reset all metrics (round counts, communication, violations, phases).
    pub fn reset_metrics(&mut self) {
        self.metrics = Metrics::default();
        self.phase_stack.clear();
    }

    /// Returns an error if any model violation has been recorded.
    pub fn check_compliance(&self) -> MpcResult<()> {
        match self.metrics.violations.first() {
            Some(v) => Err(MpcError::Violation(v.clone())),
            None => Ok(()),
        }
    }

    /// Run `f` as a named phase; rounds, communication, and wall-clock time consumed
    /// inside are attributed to `name` in [`Metrics::phases`]. The closure form
    /// cannot be left unbalanced.
    pub fn phase<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.begin_phase(name);
        let out = f(self);
        self.end_phase();
        out
    }

    /// Open a named phase; [`phase`](Self::phase) pairs it with
    /// [`end_phase`](Self::end_phase).
    fn begin_phase(&mut self, name: &str) {
        self.phase_stack
            .push(PhaseTimer::start(name, &self.metrics));
    }

    /// Close the innermost open phase and attribute the rounds, communication, and
    /// wall-clock time consumed since its [`begin_phase`](Self::begin_phase) to it
    /// in [`Metrics::phases`].
    ///
    /// # Panics
    /// Panics if no phase is open — an unbalanced `end_phase` is a phase-accounting
    /// bug.
    fn end_phase(&mut self) {
        let timer = self
            .phase_stack
            .pop()
            .expect("end_phase without a matching begin_phase");
        let wall_ms = timer.elapsed_ms();
        self.metrics.phases.push(PhaseMetrics {
            rounds: self.metrics.rounds - timer.rounds0,
            words_sent: self.metrics.total_words_sent - timer.sent0,
            name: timer.name,
            wall_ms,
        });
    }

    // ----- internal accounting ---------------------------------------------------

    /// Name of the innermost running phase (for violation messages).
    fn current_context(&self, fallback: &str) -> String {
        self.phase_stack
            .last()
            .map(|t| format!("{}/{fallback}", t.name))
            .unwrap_or_else(|| fallback.to_string())
    }

    /// Charge `k` communication rounds. Exposed so that algorithm crates can account
    /// for steps whose data movement is simulated at a higher level (each caller
    /// documents the deterministic MPC implementation whose cost is charged).
    pub fn charge_rounds(&mut self, k: u64) {
        self.metrics.rounds += k;
    }

    /// Record per-machine send/receive volumes for one round and check them against the
    /// bandwidth budget.
    pub fn record_comm(&mut self, sends: &[usize], recvs: &[usize], what: &str) {
        self.record_volumes(sends.iter().copied(), recvs.iter().copied(), what);
    }

    /// [`record_comm`](Self::record_comm) for a round in which every machine sends and
    /// receives `words`: the same metrics and violations, without materialising the
    /// per-machine volumes.
    pub fn record_uniform_comm(&mut self, words: usize, what: &str) {
        let machines = self.cfg.num_machines();
        let uniform = || (0..machines).map(|_| words);
        self.record_volumes(uniform(), uniform(), what);
    }

    fn record_volumes(
        &mut self,
        sends: impl Iterator<Item = usize>,
        recvs: impl Iterator<Item = usize>,
        what: &str,
    ) {
        let mut sent = 0;
        self.check_loads(
            ViolationKind::SendBandwidth,
            sends.inspect(|s| sent += s),
            what,
        );
        self.metrics.total_words_sent += sent as u64;
        self.check_loads(ViolationKind::ReceiveBandwidth, recvs, what);
    }

    /// Check the memory footprint of a distributed vector against the local-memory cap.
    pub fn check_memory<T: Words>(&mut self, dv: &DistVec<T>, what: &str) {
        let loads = dv.chunks().iter().map(|chunk| slice_words(chunk));
        self.check_loads(ViolationKind::LocalMemory, loads, what);
    }

    /// Check explicit per-machine word counts against the local-memory cap.
    ///
    /// [`check_memory`](Self::check_memory) covers the common case of one
    /// distributed vector; algorithms that *retain* state across steps (e.g. the
    /// solve-plan evaluation, which keeps every processed layer's views resident
    /// until its top-down pass finishes) account their cumulative per-machine
    /// residency themselves and check the totals here.
    pub fn check_memory_words(&mut self, words: &[usize], what: &str) {
        self.check_loads(ViolationKind::LocalMemory, words.iter().copied(), what);
    }

    /// The one check behind the memory and bandwidth accounting: record a `kind`
    /// violation for every machine whose load (in machine order) exceeds the cap of
    /// `kind`, and raise the peak the metrics keep for `kind` to the largest load.
    fn check_loads(&mut self, kind: ViolationKind, loads: impl Iterator<Item = usize>, what: &str) {
        let limit = match kind {
            ViolationKind::LocalMemory => self.cfg.local_capacity(),
            ViolationKind::SendBandwidth | ViolationKind::ReceiveBandwidth => {
                self.cfg.bandwidth_capacity()
            }
        };
        let round = self.metrics.rounds;
        let mut largest = 0;
        for (machine, observed) in loads.enumerate() {
            largest = largest.max(observed);
            if observed > limit {
                self.push_violation(Violation {
                    kind,
                    machine,
                    round,
                    observed,
                    limit,
                    context: self.current_context(what),
                });
            }
        }
        let m = &mut self.metrics;
        let peak = match kind {
            ViolationKind::LocalMemory => &mut m.peak_local_memory,
            ViolationKind::SendBandwidth => &mut m.max_words_sent_per_round,
            ViolationKind::ReceiveBandwidth => &mut m.max_words_received_per_round,
        };
        *peak = (*peak).max(largest);
    }

    fn push_violation(&mut self, v: Violation) {
        if self.cfg.strict {
            panic!("MPC model violation (strict mode): {v}");
        }
        self.metrics.violations.push(v);
    }

    /// Number of rounds needed to aggregate (or broadcast) one word per machine through
    /// a fan-in `Θ(n^δ)` tree: `ceil(log_{n^δ} #machines)`, at least 1.
    pub fn agg_rounds(&self) -> u64 {
        let m = self.cfg.num_machines() as f64;
        let base = (self.cfg.n_delta() as f64).max(2.0);
        (m.ln() / base.ln()).ceil().max(1.0) as u64
    }

    /// Rounds charged for one deterministic MPC sort (Goodrich-style, `O(1/δ)` rounds).
    pub fn sort_rounds(&self) -> u64 {
        2 * self.agg_rounds() + 2
    }

    /// Rounds charged for one fused sort-merge equi-join
    /// ([`join_lookup`](Self::join_lookup)): requests and table are sorted *together*
    /// in a single deterministic sort, merged machine-locally, and the answers routed
    /// back in one round.
    pub fn join_rounds(&self) -> u64 {
        self.sort_rounds() + 1
    }

    /// Rounds charged for one probe against a pre-sorted table
    /// ([`join_lookup_sorted`](Self::join_lookup_sorted)): the table's range
    /// partition is known from [`sort_table`](Self::sort_table), so every request
    /// routes directly to its partner machine (1 round) and the answer routes back
    /// (1 round).
    pub fn lookup_rounds(&self) -> u64 {
        2
    }

    // ----- data creation ---------------------------------------------------------

    /// Distribute `data` evenly over the machines (this is the input layout; no
    /// rounds). Chunk buffers are drawn from the scratch arena, so data vectors
    /// created and consumed in a loop recycle their storage instead of growing the
    /// heap (see the `scratch` module).
    pub fn from_vec<T: Send + 'static>(&mut self, data: Vec<T>) -> DistVec<T> {
        let machines = self.cfg.num_machines();
        let mut chunks: Vec<Vec<T>> = self.scratch.pool.take_bufs(machines);
        DistVec::fill_balanced(data, &mut chunks);
        DistVec::from_chunks(chunks)
    }

    /// An empty distributed vector shaped for this context's machine count.
    pub fn empty<T>(&self) -> DistVec<T> {
        DistVec::empty_cfg(&self.cfg)
    }

    // ----- communication primitives ------------------------------------------------

    /// Send every record to the machine chosen by `dest` (1 round).
    ///
    /// Records whose destination equals their current machine do not consume bandwidth:
    /// only words whose destination differs from their source machine are recorded.
    /// Destinations are clamped to the machine range; every machine receives its
    /// records in global input order.
    pub fn route<T, F>(&mut self, dv: DistVec<T>, dest: F) -> DistVec<T>
    where
        T: Words,
        F: Fn(&T) -> MachineId,
    {
        let machines = self.cfg.num_machines();
        let chunks = dv.into_chunks();
        let mut buckets: Vec<Vec<T>> = (0..machines).map(|_| Vec::new()).collect();
        let mut sends = vec![0usize; chunks.len()];
        let mut recvs = vec![0usize; machines];
        for (src, chunk) in chunks.into_iter().enumerate() {
            for item in chunk {
                let d = dest(&item).min(machines - 1);
                if d != src {
                    let w = item.words();
                    sends[src] += w;
                    recvs[d] += w;
                }
                buckets[d].push(item);
            }
        }
        self.charge_rounds(1);
        self.record_comm(&sends, &recvs, "route");
        let result = DistVec::from_chunks(buckets);
        self.check_memory(&result, "route");
        result
    }

    /// The run-moving skeleton of [`rebalance`](Self::rebalance), for destination
    /// assignments that are non-decreasing along the global record order.
    /// `split(global_index, rest)` names the destination of the first record of
    /// `rest` and the length of the contiguous run headed there. Whole runs move at once (no per-record destination
    /// decisions), buckets fill in global order — exactly the layout `route`
    /// produces for a monotone destination function — and the consumed input buffers
    /// are recycled through the scratch arena. Only moved words count as volume.
    fn route_monotone<T, S>(
        &mut self,
        dv: DistVec<T>,
        rounds: u64,
        what: &str,
        split: S,
    ) -> DistVec<T>
    where
        T: Words + Send + 'static,
        S: Fn(usize, &[T]) -> (MachineId, usize),
    {
        let machines = self.cfg.num_machines();
        let srcs = dv.num_chunks();
        self.scratch.reset_counters(machines.max(srcs), machines);
        let mut out: Vec<Vec<T>> = self.scratch.pool.take_bufs(machines);
        let mut chunks = dv.into_chunks();
        let mut runs: Vec<(usize, usize)> = self.scratch.pool.take_buf();
        {
            let crate::scratch::Scratch { sends, recvs, .. } = &mut self.scratch;
            let mut base = 0usize;
            for (src, chunk) in chunks.iter_mut().enumerate() {
                runs.clear();
                let mut start = 0usize;
                while start < chunk.len() {
                    let (d, run) = split(base + start, &chunk[start..]);
                    let d = d.min(machines - 1);
                    let run = run.clamp(1, chunk.len() - start);
                    runs.push((d, run));
                    start += run;
                }
                base += chunk.len();
                let mut it = chunk.drain(..);
                for &(d, run) in runs.iter() {
                    for _ in 0..run {
                        let item = it.next().expect("run lengths cover the chunk");
                        if d != src {
                            let w = item.words();
                            sends[src] += w;
                            recvs[d] += w;
                        }
                        out[d].push(item);
                    }
                }
            }
        }
        self.scratch.pool.recycle_buf(runs);
        self.scratch.pool.recycle_bufs(chunks);
        let sends = std::mem::take(&mut self.scratch.sends);
        let recvs = std::mem::take(&mut self.scratch.recvs);
        self.charge_rounds(rounds);
        self.record_comm(&sends, &recvs, what);
        self.scratch.sends = sends;
        self.scratch.recvs = recvs;
        let result = DistVec::from_chunks(out);
        self.check_memory(&result, what);
        result
    }

    /// Rebalance records into evenly sized contiguous chunks, preserving global order
    /// (1 round plus the prefix-sum style offset exchange). The destination of a
    /// record depends only on its global index, which is monotone — so whole runs
    /// move at once through the `route_monotone` skeleton.
    pub fn rebalance<T>(&mut self, dv: DistVec<T>) -> DistVec<T>
    where
        T: Words + Send + 'static,
    {
        let machines = self.cfg.num_machines();
        let per = dv.len().div_ceil(machines).max(1);
        let rounds = 1 + self.agg_rounds();
        self.route_monotone(dv, rounds, "rebalance", |idx, _rest| {
            (idx / per, per - idx % per)
        })
    }

    /// Fold all records into a single value known to every machine
    /// (an all-reduce; `2 · agg_rounds` rounds). Every machine folds its records
    /// from `init`; the cross-machine combine is applied in machine order, so the
    /// result is deterministic even for non-commutative `combine` functions.
    pub fn all_reduce<T, A, F, G>(&mut self, dv: &DistVec<T>, init: A, fold: F, combine: G) -> A
    where
        T: Words,
        A: Words + Clone,
        F: Fn(A, &T) -> A,
        G: Fn(A, A) -> A,
    {
        let result = dv
            .chunks()
            .iter()
            .map(|c| c.iter().fold(init.clone(), &fold))
            .reduce(combine)
            .unwrap_or(init);
        self.charge_rounds(2 * self.agg_rounds());
        self.record_uniform_comm(result.words(), "all_reduce");
        result
    }

    /// Count the records of `dv` (all-reduce specialisation).
    pub fn count<T: Words>(&mut self, dv: &DistVec<T>) -> usize {
        self.all_reduce(dv, 0usize, |a, _| a + 1, |a, b| a + b)
    }

    /// A custom communication round: every machine inspects its local state, queues
    /// messages for other machines, and receives the messages addressed to it.
    ///
    /// Charges exactly one round and enforces the send/receive budget against the
    /// *configured* machine count — passing a `states` slice shorter than
    /// [`MpcConfig::num_machines`] simulates a round in which only a prefix of the
    /// machines participates, but destinations, inboxes, and the bandwidth check still
    /// cover the whole machine set. Delivery order is machine-index order. An empty
    /// `states` slice is a no-op: it returns one empty inbox per configured machine
    /// and charges nothing.
    ///
    /// The returned vector has one inbox per machine,
    /// `max(num_machines, states.len())` in total.
    pub fn communicate<S, M, F>(&mut self, states: &mut [S], f: F) -> Vec<Vec<M>>
    where
        M: Words,
        F: Fn(MachineId, &mut S, &mut Outbox<M>),
    {
        let machines = self.cfg.num_machines().max(states.len());
        if states.is_empty() {
            return (0..machines).map(|_| Vec::new()).collect();
        }
        let mut sends = vec![0usize; machines];
        let mut recvs = vec![0usize; machines];
        let mut inboxes: Vec<Vec<M>> = (0..machines).map(|_| Vec::new()).collect();
        for (src, s) in states.iter_mut().enumerate() {
            let mut ob = Outbox::new();
            f(src, s, &mut ob);
            for (dst, msg) in ob.msgs {
                let dst = dst.min(machines - 1);
                let w = msg.words();
                if dst != src {
                    sends[src] += w;
                    recvs[dst] += w;
                }
                inboxes[dst].push(msg);
            }
        }
        self.charge_rounds(1);
        self.record_comm(&sends, &recvs, "communicate");
        inboxes
    }

    /// Run an iterative fixpoint over `states` as a sequence of **fused jump-join
    /// exchanges with convergence skipping** — the shared engine of the clustering
    /// subroutines (pointer doubling per Lemma 6.17, capped descendant-set doubling
    /// per Lemma 6.13 of the paper).
    ///
    /// Each step: every state emits the keys it still needs through `requests`
    /// (a converged state emits nothing); each requested key is answered with
    /// `answer(target_state)` for the first state whose `state_key` matches (or
    /// `None`); then `update(state, answers)` folds the answers back in, where
    /// `answers` lists this state's emitted keys in emission order. All answers are
    /// extracted **before** any state mutates, so a step observes the previous
    /// step's snapshot — exactly the semantics of a jump exchange followed by a
    /// consuming join, fused. The loop ends at the first step in which no machine
    /// emits a request; that step charges nothing (the one-bit "any machine still
    /// active?" flag rides the preceding exchange's aggregation tree, like the
    /// plan engine's fused termination checks).
    ///
    /// **Pricing** (the `join_lookup` fused re-pricing applied to a loop): the
    /// first charged step is a fused sort-merge equi-join —
    /// [`join_rounds`](Self::join_rounds) rounds, `(state + request words) /
    /// machines` per side — whose sort leaves every machine holding its range
    /// share of the state index. Subsequent steps reuse that range partition and
    /// are priced as probes: [`lookup_rounds`](Self::lookup_rounds) rounds,
    /// `(2 · request + hit words) / machines` per side — and only *live* requests
    /// are charged, so volume collapses as elements converge. Per-machine
    /// participation is recorded in [`Metrics::convergence`] as one
    /// [`ConvergenceTrace`] per call.
    ///
    /// **Contract**: `state_key` must stay stable across `update` calls (the
    /// retained index addresses states positionally by key) and requested keys
    /// must resolve to states whose answers make progress. Both are checked on
    /// every step, in every build profile: a re-keyed state ends the loop with
    /// [`ConvergeError::KeyMutated`], and a loop that still emits requests after
    /// `2⌈log₂ states⌉ + 8` charged steps — twice the doubling depth the round
    /// bound assumes — ends with [`ConvergeError::StepBound`]. On an error the
    /// states hold whatever the last completed step left; rounds charged so far
    /// stay charged. Transient request/answer buffers are exchange traffic, not
    /// state residency: memory is checked against `states` after every step.
    ///
    /// Returns the number of charged exchanges.
    pub fn try_converge<T, K, A, FK, FQ, FA, FU>(
        &mut self,
        states: &mut DistVec<T>,
        state_key: FK,
        requests: FQ,
        answer: FA,
        update: FU,
        what: &'static str,
    ) -> Result<u64, ConvergeError>
    where
        T: Words,
        K: SortKey + Words + Clone + 'static,
        A: Words,
        FK: Fn(&T) -> K,
        FQ: Fn(&T, &mut Vec<K>),
        FA: Fn(&T) -> A,
        FU: Fn(&mut T, &[(K, Option<A>)]),
    {
        let machines = self.cfg.num_machines();
        // The state index is built once: updates mutate states in place and never
        // move or re-key them, so `(key, chunk, position)` stays valid for every
        // step. Its build is the machine-local share of the first step's fused
        // sort; the first charge below prices it.
        let index = self.build_sorted_index(&*states, &|t: &T| state_key(t));
        let state_words = states.total_words();
        // Sized for one request per state up front, so no machine regrows them.
        let mut bufs: Vec<ConvergeBuf<K, A>> = states
            .chunks()
            .iter()
            .map(|chunk| ConvergeBuf::with_capacity(chunk.len()))
            .collect();
        let mut active_machines: Vec<usize> = Vec::new();
        let step_bound = 2 * u64::from(states.len().max(2).next_power_of_two().ilog2()) + 8;
        let mut steps = 0u64;
        let outcome = loop {
            // Emit + probe: read-only over the previous step's states. Probing
            // happens before any mutation, so every answer is a snapshot of the
            // pre-step states.
            for (m, buf) in bufs.iter_mut().enumerate() {
                buf.emitted.clear();
                buf.counts.clear();
                buf.answers.clear();
                buf.req_words = 0;
                buf.hit_words = 0;
                for s in states.chunks()[m].iter() {
                    let start = buf.emitted.len();
                    requests(s, &mut buf.emitted);
                    buf.counts.push((buf.emitted.len() - start) as u32);
                    for j in start..buf.emitted.len() {
                        let k = buf.emitted[j].clone();
                        buf.req_words += k.words();
                        let hit = index
                            .get(&k)
                            .map(|e| answer(&states.chunks()[e.1 as usize][e.2 as usize]));
                        if let Some(a) = &hit {
                            buf.hit_words += a.words();
                        }
                        buf.answers.push((k, hit));
                    }
                }
            }
            let total_requests: usize = bufs.iter().map(|b| b.emitted.len()).sum();
            if total_requests == 0 {
                break Ok(steps);
            }
            if steps == step_bound {
                break Err(ConvergeError::StepBound {
                    what,
                    bound: step_bound,
                });
            }
            active_machines.push(bufs.iter().filter(|b| !b.emitted.is_empty()).count());
            let req_words: usize = bufs.iter().map(|b| b.req_words).sum();
            let hit_words: usize = bufs.iter().map(|b| b.hit_words).sum();
            let (rounds, per_machine_moved) = if steps == 0 {
                (
                    self.join_rounds(),
                    (state_words + req_words).div_ceil(machines.max(1)),
                )
            } else {
                (
                    self.lookup_rounds(),
                    (2 * req_words + hit_words).div_ceil(machines.max(1)),
                )
            };
            self.charge_rounds(rounds);
            self.record_uniform_comm(per_machine_moved, what);
            // Fold the answers back in. Keys must survive the update untouched —
            // the retained index addresses states by them.
            let mut rekeyed = false;
            for (chunk, buf) in states.chunks_mut().iter_mut().zip(&bufs) {
                let mut cursor = 0usize;
                for (s, &count) in chunk.iter_mut().zip(buf.counts.iter()) {
                    let slice = &buf.answers[cursor..cursor + count as usize];
                    cursor += count as usize;
                    let key_before = state_key(s);
                    update(s, slice);
                    rekeyed |= state_key(s) != key_before;
                }
            }
            self.check_memory(states, what);
            if rekeyed {
                break Err(ConvergeError::KeyMutated { what, step: steps });
            }
            steps += 1;
        };
        index.recycle(&mut self.scratch.pool);
        self.metrics.convergence.push(ConvergenceTrace {
            name: what.to_string(),
            active_machines,
        });
        outcome
    }

    /// [`try_converge`](Self::try_converge) for callers whose closures keep the
    /// contract by construction.
    ///
    /// # Panics
    ///
    /// With the [`ConvergeError`] as message when the loop had to be stopped.
    pub fn converge<T, K, A, FK, FQ, FA, FU>(
        &mut self,
        states: &mut DistVec<T>,
        state_key: FK,
        requests: FQ,
        answer: FA,
        update: FU,
        what: &'static str,
    ) -> u64
    where
        T: Words,
        K: SortKey + Words + Clone + 'static,
        A: Words,
        FK: Fn(&T) -> K,
        FQ: Fn(&T, &mut Vec<K>),
        FA: Fn(&T) -> A,
        FU: Fn(&mut T, &[(K, Option<A>)]),
    {
        self.try_converge(states, state_key, requests, answer, update, what)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(n: usize) -> MpcContext {
        MpcContext::new(MpcConfig::new(n, 0.5))
    }

    #[test]
    fn route_moves_data_and_charges_one_round() {
        let mut c = ctx(256);
        let dv = c.from_vec((0u64..100).collect());
        let routed = c.route(dv, |x| (*x % 4) as usize);
        assert_eq!(routed.len(), 100);
        assert_eq!(c.metrics().rounds, 1);
        assert!(routed.chunks()[0].iter().all(|x| x % 4 == 0));
    }

    #[test]
    fn rebalance_restores_even_chunks() {
        let mut c = ctx(256);
        let dv = c.from_vec((0u64..100).collect());
        let skew = c.route(dv, |_| 0usize);
        assert_eq!(skew.chunks()[0].len(), 100);
        let even = c.rebalance(skew);
        assert_eq!(even.to_vec(), (0u64..100).collect::<Vec<_>>());
        let max = even.chunks().iter().map(Vec::len).max().unwrap();
        assert!(max <= 100 / 2);
    }

    #[test]
    fn all_reduce_charges_rounds() {
        let mut c = ctx(1024);
        let dv = c.from_vec((1u64..=100).collect());
        let sum = c.all_reduce(&dv, 0u64, |a, x| a + x, |a, b| a + b);
        assert_eq!(sum, 5050);
        assert_eq!(c.metrics().rounds, 2 * c.agg_rounds());
        assert_eq!(c.count(&dv), 100);
    }

    #[test]
    fn phases_attribute_rounds() {
        let mut c = ctx(256);
        let dv = c.from_vec((0u64..64).collect());
        let dv = c.phase("shuffle", |c| c.route(dv, |x| (*x % 3) as usize));
        let _ = c.phase("balance", |c| c.rebalance(dv));
        assert_eq!(c.metrics().phase_rounds("shuffle"), 1);
        assert!(c.metrics().phase_rounds("balance") >= 1);
    }

    #[test]
    fn explicit_begin_end_phase_matches_closure_form() {
        let mut a = ctx(256);
        let dv = a.from_vec((0u64..64).collect());
        a.begin_phase("shuffle");
        let _ = a.route(dv, |x| (*x % 3) as usize);
        a.end_phase();
        let mut b = ctx(256);
        let dv = b.from_vec((0u64..64).collect());
        let _ = b.phase("shuffle", |c| c.route(dv, |x| (*x % 3) as usize));
        assert_eq!(
            a.metrics().phase_rounds("shuffle"),
            b.metrics().phase_rounds("shuffle")
        );
        assert_eq!(a.metrics().total_words_sent, b.metrics().total_words_sent);
    }

    #[test]
    #[should_panic(expected = "end_phase without a matching begin_phase")]
    fn unbalanced_end_phase_panics() {
        let mut c = ctx(256);
        c.end_phase();
    }

    #[test]
    fn bandwidth_violation_is_recorded() {
        // Tiny machines: routing everything to machine 0 must blow the receive budget.
        let cfg = MpcConfig::new(4096, 0.3).with_bandwidth_slack(0.05);
        let mut c = MpcContext::new(cfg);
        let dv = c.from_vec((0u64..4096).collect());
        let _ = c.route(dv, |_| 0usize);
        assert!(!c.metrics().compliant());
        assert!(c.check_compliance().is_err());
    }

    #[test]
    #[should_panic]
    fn strict_mode_panics_on_violation() {
        let cfg = MpcConfig::strict(4096, 0.3).with_memory_slack(0.01);
        let mut c = MpcContext::new(cfg);
        let dv = c.from_vec((0u64..4096).collect());
        let _ = c.route(dv, |_| 0usize);
    }

    #[test]
    fn communicate_delivers_messages() {
        let mut c = ctx(256);
        let mut states: Vec<u64> = (0..c.config().num_machines() as u64).collect();
        let inboxes = c.communicate(&mut states, |i, s, ob| {
            ob.send((i + 1) % 4, *s);
        });
        let delivered: usize = inboxes.iter().map(Vec::len).sum();
        assert_eq!(delivered, states.len());
        assert_eq!(c.metrics().rounds, 1);
    }

    #[test]
    fn communicate_empty_states_is_a_noop() {
        // Regression: this used to panic with an index-out-of-bounds because the
        // destination clamp targeted an inbox vector sized off the empty state slice.
        let mut c = ctx(256);
        let mut states: Vec<u64> = Vec::new();
        let inboxes = c.communicate(&mut states, |_, _, ob: &mut Outbox<u64>| {
            ob.send(0, 1);
        });
        assert_eq!(inboxes.len(), c.config().num_machines());
        assert!(inboxes.iter().all(Vec::is_empty));
        assert_eq!(c.metrics().rounds, 0);
        assert_eq!(c.metrics().total_words_sent, 0);
    }

    #[test]
    fn communicate_short_state_slice_checks_configured_machines() {
        // Regression: the bandwidth check used to be sized off `states.len()`, so a
        // short state slice blasting one machine was checked against the wrong
        // machine set (and destinations beyond the slice would panic).
        let cfg = MpcConfig::new(4096, 0.3).with_bandwidth_slack(0.05);
        let machines = cfg.num_machines();
        let mut c = MpcContext::new(cfg);
        // Two participating machines address a machine outside the state slice.
        let mut states = vec![0u64; 2];
        let target = machines - 1;
        let inboxes = c.communicate(&mut states, |i, _, ob| {
            for k in 0..200u64 {
                ob.send(target, i as u64 * 1000 + k);
            }
        });
        assert_eq!(inboxes.len(), machines);
        assert_eq!(inboxes[target].len(), 400);
        // The receive volume (400 words at one machine) must be judged against the
        // configured per-machine budget, producing a violation.
        assert!(!c.metrics().compliant());
    }

    #[test]
    fn communicate_does_not_charge_local_messages() {
        let mut c = ctx(256);
        let mut states: Vec<u64> = (0..c.config().num_machines() as u64).collect();
        let inboxes = c.communicate(&mut states, |i, s, ob| {
            ob.send(i, *s); // message to self: delivered but never on the network
        });
        assert_eq!(
            inboxes.iter().map(Vec::len).sum::<usize>(),
            c.config().num_machines()
        );
        assert_eq!(c.metrics().total_words_sent, 0);
        assert_eq!(c.metrics().rounds, 1);
    }

    /// Toy pointer-doubling states for the converge tests: `(id, ptr, dist)` on a
    /// path — each state chases `ptr` and accumulates `dist` until it reaches the
    /// end, exactly the Lemma 6.17 access pattern.
    type Hop = (u64, Option<u64>, u64);
    /// One answered request of the hop loop: the key plus the target's `(ptr, dist)`.
    type HopAnswer = (u64, Option<(Option<u64>, u64)>);

    fn hop_path(len: u64) -> Vec<Hop> {
        (0..len)
            .map(|i| {
                if i + 1 < len {
                    (i, Some(i + 1), 1)
                } else {
                    (i, None, 0)
                }
            })
            .collect()
    }

    fn run_hops(mut c: MpcContext, len: u64) -> (Vec<Hop>, u64, MpcContext) {
        let mut states = c.from_vec(hop_path(len));
        let steps = c.converge(
            &mut states,
            |s: &Hop| s.0,
            |s, out| {
                if let Some(p) = s.1 {
                    out.push(p);
                }
            },
            |s| (s.1, s.2),
            |s, answers: &[HopAnswer]| {
                if let Some((_, Some((ptr, dist)))) = answers.first() {
                    s.1 = *ptr;
                    s.2 += *dist;
                }
            },
            "hops",
        );
        (states.into_vec(), steps, c)
    }

    #[test]
    fn converge_doubles_to_fixpoint_with_fused_pricing() {
        let (hops, steps, c) = run_hops(ctx(1024), 200);
        for (i, (id, ptr, dist)) in hops.iter().enumerate() {
            assert_eq!(*id, i as u64);
            assert_eq!(*ptr, None, "state {i} did not converge");
            assert_eq!(*dist, 199 - i as u64);
        }
        // First exchange is a fused join, every later one a probe of the retained
        // range partition; the empty final step charges nothing.
        assert!(steps > 1);
        assert_eq!(
            c.metrics().rounds,
            c.join_rounds() + (steps - 1) * c.lookup_rounds()
        );
        let trace = &c.metrics().convergence;
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].name, "hops");
        assert_eq!(trace[0].active_machines.len(), steps as usize);
        // Doubling halves the live set: machines drain monotonically here.
        for w in trace[0].active_machines.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(*trace[0].active_machines.last().unwrap() >= 1);
    }

    #[test]
    fn converge_on_converged_input_charges_nothing() {
        let mut c = ctx(256);
        let mut states = c.from_vec((0u64..50).map(|i| (i, None, 0u64)).collect::<Vec<Hop>>());
        let steps = c.converge(
            &mut states,
            |s: &Hop| s.0,
            |_s, _out| {},
            |s| s.2,
            |_s, _answers: &[(u64, Option<u64>)]| {},
            "noop",
        );
        assert_eq!(steps, 0);
        assert_eq!(c.metrics().rounds, 0);
        assert_eq!(c.metrics().total_words_sent, 0);
        assert_eq!(c.metrics().convergence.len(), 1);
        assert!(c.metrics().convergence[0].active_machines.is_empty());
    }

    #[test]
    fn try_converge_reports_key_mutation_after_one_step() {
        let mut c = ctx(256);
        let mut states = c.from_vec(hop_path(10));
        let outcome = c.try_converge(
            &mut states,
            |s: &Hop| s.0,
            |s, out| {
                if let Some(p) = s.1 {
                    out.push(p);
                }
            },
            |s| s.2,
            |s, _answers: &[(u64, Option<u64>)]| s.0 += 1,
            "bad",
        );
        assert_eq!(
            outcome,
            Err(ConvergeError::KeyMutated {
                what: "bad",
                step: 0
            })
        );
        assert_eq!(c.metrics().rounds, c.join_rounds());
        assert_eq!(c.metrics().convergence[0].active_machines.len(), 1);
    }

    #[test]
    #[should_panic(expected = "keep their key stable")]
    fn converge_rejects_key_mutation() {
        // The infallible wrapper turns the typed error into a panic — in every
        // build profile, so the release-mode suite terminates here too.
        let mut c = ctx(256);
        let mut states = c.from_vec(hop_path(10));
        let _ = c.converge(
            &mut states,
            |s: &Hop| s.0,
            |s, out| {
                if let Some(p) = s.1 {
                    out.push(p);
                }
            },
            |s| s.2,
            |s, _answers: &[(u64, Option<u64>)]| s.0 += 1,
            "bad",
        );
    }

    #[test]
    fn try_converge_stops_at_the_step_bound_when_requests_never_drain() {
        // Every state keeps asking for its successor and never learns anything.
        let mut c = ctx(256);
        let mut states = c.from_vec(hop_path(100));
        let before = states.to_vec();
        let err = c
            .try_converge(
                &mut states,
                |s: &Hop| s.0,
                |s, out| out.push(s.0 + 1),
                |s| s.2,
                |_s, _answers: &[(u64, Option<u64>)]| {},
                "stuck",
            )
            .unwrap_err();
        // 2⌈log₂ 100⌉ + 8.
        let bound = 22;
        assert_eq!(
            err,
            ConvergeError::StepBound {
                what: "stuck",
                bound
            }
        );
        assert_eq!(states.to_vec(), before);
        assert_eq!(
            c.metrics().rounds,
            c.join_rounds() + (bound - 1) * c.lookup_rounds()
        );
        assert_eq!(
            c.metrics().convergence[0].active_machines.len(),
            bound as usize
        );
    }

    #[test]
    fn reset_metrics_clears_everything() {
        let mut c = ctx(256);
        let dv = c.from_vec((0u64..64).collect());
        let _ = c.route(dv, |_| 0);
        assert!(c.metrics().rounds > 0);
        c.reset_metrics();
        assert_eq!(c.metrics().rounds, 0);
        assert!(c.metrics().violations.is_empty());
    }
}
