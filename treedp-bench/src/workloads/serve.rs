//! `serve-mixed`: a `TreeDpServer<MaxIS>` with eight tenants (the first eight
//! shapes of `standard_suite(16384, seed)`) under a plan budget that cannot
//! hold every plan. An operation submits 16 seeded requests — two hot tenants
//! take half; 10 queries with full fresh weights, 5 updates of 16 weights and
//! 1 structural request (one link + the cut of that tenant's previous leaf),
//! in seeded order — and flushes. The mix is fixed per flush so that flush
//! latency varies with cache hits and misses, not with how many queries a
//! flush happened to draw. Every `SNAPSHOT_EVERY` operations a hot tenant is snapshotted,
//! removed and restored; that is timed as spans and kept out of the flush
//! latency.

use super::probes;
use super::{config, timed, Gauges, OpOutcome, Sim, Workload, OP_STREAM_SEED, TENANT_N};
use crate::mirror::{keyed, max_is, weights, MaxIs, Mirror, Rng};
use crate::span::Tracer;
use mpc_tree_dp::gen::suite::standard_suite;
use mpc_tree_dp::server::CacheStats;
use mpc_tree_dp::{
    prepare, ListOfEdges, MpcContext, Request, Response, ServerConfig, StructuralBatch, TenantSpec,
    Tree, TreeDpServer, TreeInput,
};

const TENANTS: usize = 8;
/// Tenants 0 and 1 take half of the requests.
const HOT: u64 = 2;
/// Requests per flush, by kind: 16 in all.
const MIX: [(Kind, usize); 3] = [(Kind::Query, 10), (Kind::Update, 5), (Kind::Structural, 1)];
const UPDATE_SIZE: usize = 16;
/// Query weight vectors per tenant.
const POOL: usize = 4;
/// The plan cache holds this many times the largest tenant plan: enough for
/// the hot tenants to stay resident, too little for all eight.
const BUDGET_PLANS: usize = 4;
const SNAPSHOT_EVERY: usize = 30;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Query,
    Update,
    Structural,
}

struct Tenant {
    id: String,
    tree: Tree,
    mirror: Mirror,
    /// Query weights for the original nodes.
    pool: Vec<Vec<(u64, i64)>>,
    /// The leaf this tenant's last structural request linked.
    last_leaf: Option<u64>,
}

#[derive(Default)]
struct Counters {
    rejected: u64,
    snapshot_bytes: u64,
    degraded: u64,
    struct_batches: u64,
}

pub struct Serve {
    names: Vec<String>,
    server: TreeDpServer<MaxIs>,
    tenants: Vec<Tenant>,
    rng: Rng,
    ops: usize,
    /// Cache counters when set-up ended.
    cache_base: CacheStats,
    base: Sim,
    /// Memory ratio and breaches of contexts that a restore has since replaced.
    retired: Sim,
    counters: Counters,
    generate_ms: f64,
    admit_ms: f64,
    admit_rounds: u64,
}

fn spec(tree: &Tree, node_inputs: Vec<(u64, i64)>) -> TenantSpec<MaxIs> {
    TenantSpec {
        config: config(tree.len()),
        input: TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
        threshold: None,
        problem: max_is(),
        node_inputs,
        aux_input: 0,
        edge_inputs: Vec::new(),
    }
}

pub fn setup(seed: u64) -> (Box<dyn Workload>, f64) {
    let started = std::time::Instant::now();
    let (suite, ns) = timed(|| {
        let mut suite = standard_suite(TENANT_N, seed);
        suite.truncate(TENANTS);
        suite
    });
    let names: Vec<String> = suite.iter().map(|e| e.name.clone()).collect();

    // Size the cache off the largest plan of this fleet.
    let largest_plan = suite
        .iter()
        .map(|e| {
            let mut ctx = MpcContext::new(config(e.tree.len()));
            let input = TreeInput::ListOfEdges(ListOfEdges::from_tree(&e.tree));
            let prepared = prepare(&mut ctx, input, None).expect("suite trees are well-formed");
            prepared.plan_uncached(&mut ctx).resident_words()
        })
        .max()
        .unwrap_or(1);
    let mut server = TreeDpServer::new(ServerConfig {
        plan_budget_words: BUDGET_PLANS * largest_plan,
    });

    let mut admit_ns = 0;
    let mut admit_rounds = 0;
    let tenants: Vec<Tenant> = suite
        .into_iter()
        .enumerate()
        .map(|(i, e)| {
            let tenant_seed = seed.wrapping_mul(131).wrapping_add(i as u64);
            let w = weights(e.tree.len(), tenant_seed);
            let (report, ns) = timed(|| {
                server
                    .admit(e.name.clone(), spec(&e.tree, keyed(&w)))
                    .expect("admission of a fresh tenant succeeds")
            });
            admit_ns += ns;
            admit_rounds += report.prepare_rounds + report.plan_build_rounds + report.solve_rounds;
            let pool = (1..=POOL as u64)
                .map(|k| keyed(&weights(e.tree.len(), tenant_seed.wrapping_add(k << 32))))
                .collect();
            Tenant {
                id: e.name,
                mirror: Mirror::new(&e.tree, w),
                tree: e.tree,
                pool,
                last_leaf: None,
            }
        })
        .collect();

    let mut s = Serve {
        names,
        server,
        tenants,
        rng: Rng::new(OP_STREAM_SEED),
        ops: 0,
        cache_base: CacheStats::default(),
        base: Sim::default(),
        retired: Sim::default(),
        counters: Counters::default(),
        generate_ms: ns as f64 / 1e6,
        admit_ms: admit_ns as f64 / 1e6,
        admit_rounds,
    };
    s.op(&mut Tracer::new(false));
    let seconds = started.elapsed().as_secs_f64();
    s.ops = 0;
    s.cache_base = s.server.cache_stats();
    s.base = s.totals();
    s.counters = Counters::default();
    (Box::new(s), seconds)
}

/// Who the requests of the next flush are for and what they ask, in
/// submission order.
fn picks(rng: &mut Rng) -> Vec<(usize, Kind)> {
    let mut kinds: Vec<Kind> = MIX
        .iter()
        .flat_map(|&(kind, count)| std::iter::repeat(kind).take(count))
        .collect();
    // Fisher–Yates.
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i as u64 + 1) as usize);
    }
    kinds
        .into_iter()
        .map(|kind| {
            let tenant = if rng.below(2) == 0 {
                rng.below(HOT)
            } else {
                HOT + rng.below(TENANTS as u64 - HOT)
            };
            (tenant as usize, kind)
        })
        .collect()
}

impl Serve {
    /// Rounds and words as the server accounts them per tenant (they survive a
    /// restore); memory and violations from the tenants' live contexts.
    fn totals(&self) -> Sim {
        let mut sim = Sim {
            rounds: 0,
            words: 0,
            ..self.retired
        };
        for tenant in &self.tenants {
            if let Some(m) = self.server.tenant_metrics(&tenant.id) {
                sim.rounds += m.rounds_charged;
                sim.words += m.words_sent;
            }
            if let Some(ctx) = self.server.context(&tenant.id) {
                let m = ctx.metrics();
                sim.violations += m.violations.len() as u64;
                sim.peak_mem_ratio = sim
                    .peak_mem_ratio
                    .max(m.memory_headroom(ctx.config().local_capacity()));
            }
        }
        sim
    }

    /// The next flush's requests in submission order, each query with the
    /// optimum the mirror expects. Writes go into the mirrors first: within a
    /// flush the server applies a tenant's updates and structural batch before
    /// it evaluates that tenant's queries, so a query sees the post-flush tree.
    fn next_requests(&mut self) -> Vec<(usize, Request<MaxIs>, Option<i64>)> {
        let picks = picks(&mut self.rng);
        let mut requests: Vec<Option<Request<MaxIs>>> = Vec::with_capacity(picks.len());
        for &(ti, kind) in &picks {
            let tenant = &mut self.tenants[ti];
            requests.push(match kind {
                Kind::Query => None,
                Kind::Update => {
                    let n = tenant.mirror.originals() as u64;
                    let node_updates: Vec<(u64, i64)> = (0..UPDATE_SIZE)
                        .map(|_| (self.rng.below(n), self.rng.weight()))
                        .collect();
                    for &(v, w) in &node_updates {
                        tenant.mirror.weight[v as usize] = w;
                    }
                    Some(Request::Update {
                        node_updates,
                        edge_updates: Vec::new(),
                    })
                }
                Kind::Structural => {
                    let site = tenant.mirror.pick_site(&mut self.rng);
                    let w = self.rng.weight();
                    let leaf = tenant.mirror.link(site, w);
                    let mut batch = StructuralBatch::new().link(site, leaf, w, ());
                    if let Some(old) = tenant.last_leaf.replace(leaf) {
                        tenant.mirror.cut_leaf(old);
                        batch = batch.cut(old);
                    }
                    Some(Request::Structural(batch))
                }
            });
        }
        picks
            .into_iter()
            .zip(requests)
            .map(|((ti, _), request)| match request {
                Some(request) => (ti, request, None),
                None => {
                    let tenant = &self.tenants[ti];
                    let k = self.rng.below(POOL as u64) as usize;
                    let mut node_inputs = tenant.pool[k].clone();
                    let originals = tenant.mirror.originals();
                    // Linked leaves answer with their persistent weight.
                    node_inputs.extend(
                        tenant
                            .mirror
                            .added_leaves()
                            .map(|v| (v, tenant.mirror.weight[v as usize])),
                    );
                    let pool = &tenant.pool[k];
                    let expected = tenant.mirror.max_is_with(|v| {
                        if (v as usize) < originals {
                            pool[v as usize].1
                        } else {
                            tenant.mirror.weight[v as usize]
                        }
                    });
                    let request = Request::Query {
                        node_inputs,
                        edge_inputs: Vec::new(),
                    };
                    (ti, request, Some(expected))
                }
            })
            .collect()
    }

    /// Snapshot a hot tenant, drop it, and bring it back from the bytes.
    fn recycle_tenant(&mut self, t: &mut Tracer) -> bool {
        let ti = (self.ops / SNAPSHOT_EVERY) % HOT as usize;
        let id = self.tenants[ti].id.clone();
        if let Some(ctx) = self.server.context(&id) {
            self.retired.add(ctx);
        }
        let span = t.begin("server.snapshot_tenant", "tree-dp-server", ti);
        let bytes = self.server.snapshot_tenant(&id);
        t.end(span, 0, 0);
        let Ok(bytes) = bytes else { return false };
        self.counters.snapshot_bytes = bytes.len() as u64;
        if !self.server.remove_tenant(&id) {
            return false;
        }
        let span = t.begin("server.restore_tenant", "tree-dp-server", ti);
        let restored = self.server.restore_tenant(&bytes, max_is());
        t.end(span, 0, 0);
        restored.is_ok()
    }
}

impl Workload for Serve {
    fn trees(&self) -> &[String] {
        &self.names
    }

    fn mark_phases(&self, t: &mut Tracer) {
        for (ti, tenant) in self.tenants.iter().enumerate() {
            if let Some(ctx) = self.server.context(&tenant.id) {
                t.skip_phases(ti, ctx.metrics());
            }
        }
    }

    fn op(&mut self, t: &mut Tracer) -> OpOutcome {
        let requests = self.next_requests();
        let touched: Vec<usize> = {
            let mut v: Vec<usize> = requests.iter().map(|r| r.0).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let written: Vec<usize> = touched
            .iter()
            .copied()
            .filter(|&ti| requests.iter().any(|r| r.0 == ti && r.2.is_none()))
            .collect();
        let expected: Vec<Option<i64>> = requests.iter().map(|r| r.2).collect();
        let order: Vec<usize> = requests.iter().map(|r| r.0).collect();
        let rounds_of = |server: &TreeDpServer<MaxIs>, tenants: &[Tenant]| -> (u64, u64) {
            touched
                .iter()
                .filter_map(|&ti| server.context(&tenants[ti].id))
                .fold((0, 0), |(r, w), ctx| {
                    (r + ctx.metrics().rounds, w + ctx.metrics().total_words_sent)
                })
        };

        let misses_before = self.server.cache_stats().misses;
        let root = t.begin_op("flush");
        let started = std::time::Instant::now();
        let span = t.begin("server.submit", "tree-dp-server", 0);
        for (ti, request, _) in requests {
            self.server.submit(self.tenants[ti].id.as_str(), request);
        }
        t.end(span, 0, 0);
        let (r0, w0) = if t.enabled() {
            rounds_of(&self.server, &self.tenants)
        } else {
            (0, 0)
        };
        let span = t.begin("server.flush", "tree-dp-server", 0);
        let responses = self.server.flush();
        if t.enabled() {
            let (r1, w1) = rounds_of(&self.server, &self.tenants);
            for &ti in &touched {
                if let Some(ctx) = self.server.context(&self.tenants[ti].id) {
                    t.absorb_phases(ti, ctx.metrics(), span);
                }
            }
            // A recycled tenant restarts its context, and so its counters.
            t.end(span, r1.saturating_sub(r0), w1.saturating_sub(w0));
            if self.server.cache_stats().misses > misses_before {
                t.rename(span, "server.flush_miss");
            } else {
                t.rename(span, "server.flush_hit");
            }
        }
        let wall_ns = started.elapsed().as_nanos() as u64;
        t.end(root, 0, 0);

        let mut out = OpOutcome {
            wall_ns,
            attempted: order.len() as u64,
            failed: 0,
        };
        // A tenant whose state disagrees with its mirror after the flush fails
        // every write it was sent in this flush.
        let stale: Vec<usize> = written
            .into_iter()
            .filter(|&ti| {
                let tenant = &self.tenants[ti];
                let got = self
                    .server
                    .root_summary(&tenant.id)
                    .and_then(|s| s.best(max_is().problem()));
                got != Some(tenant.mirror.max_is())
            })
            .collect();
        let problem = max_is();
        for ((ti, want), (_, response)) in order.iter().zip(expected).zip(&responses) {
            let ok = match response {
                Response::Solution(sol) => {
                    want.is_some() && sol.root_summary.best(problem.problem()) == want
                }
                Response::Update(_) => !stale.contains(ti),
                Response::Structural(stats) => {
                    self.counters.struct_batches += 1;
                    self.counters.degraded += u64::from(stats.degraded);
                    !stale.contains(ti)
                }
                Response::Rejected(_) => {
                    self.counters.rejected += 1;
                    false
                }
            };
            out.failed += u64::from(!ok);
        }
        drop(responses);
        self.ops += 1;
        if self.ops % SNAPSHOT_EVERY == 0 {
            out.attempted += 1;
            out.failed += u64::from(!self.recycle_tenant(t));
        }
        out
    }

    fn sim(&self) -> Sim {
        self.totals().since(&self.base)
    }

    fn finish(&mut self) -> OpOutcome {
        let mut out = OpOutcome::default();
        for tenant in &self.tenants {
            out.attempted += 1;
            let got = self
                .server
                .root_summary(&tenant.id)
                .and_then(|s| s.best(max_is().problem()));
            if got.is_none() || got != tenant.mirror.max_is_sequential() {
                out.failed += 1;
            }
        }
        out
    }

    fn gauges(&self, g: &mut Gauges) {
        let cs = self.server.cache_stats();
        let hits = cs.hits - self.cache_base.hits;
        let misses = cs.misses - self.cache_base.misses;
        g.insert("treegen.generate.ms", self.generate_ms);
        g.insert("server.admit.ms", self.admit_ms);
        g.insert("server.admit.rounds", self.admit_rounds as f64);
        g.insert(
            "server.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        g.insert(
            "server.evictions",
            (cs.evictions - self.cache_base.evictions) as f64,
        );
        g.insert(
            "server.miss_rebuild_rounds",
            (cs.build_rounds - self.cache_base.build_rounds) as f64 / misses.max(1) as f64,
        );
        g.insert("server.resident_plans", cs.resident_plans as f64);
        g.insert("server.snapshot_bytes", self.counters.snapshot_bytes as f64);
        g.insert("server.rejected", self.counters.rejected as f64);
        g.insert(
            "incremental.degraded_ratio",
            self.counters.degraded as f64 / self.counters.struct_batches.max(1) as f64,
        );
    }

    fn probe(&mut self, t: &mut Tracer, g: &mut Gauges) {
        // diameter-8: scattered keys.
        let last = self.tenants.last().expect("eight tenants");
        probes::primitives(t, TENANTS, &last.tree, g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_flush_carries_the_stated_mix_and_skew() {
        let mut rng = Rng::new(7);
        let flushes: Vec<Vec<(usize, Kind)>> = (0..400).map(|_| picks(&mut rng)).collect();
        for flush in &flushes {
            for (kind, count) in MIX {
                assert_eq!(flush.iter().filter(|r| r.1 == kind).count(), count);
            }
        }
        let all: Vec<&(usize, Kind)> = flushes.iter().flatten().collect();
        let hot = all.iter().filter(|r| r.0 < HOT as usize).count() as f64 / all.len() as f64;
        assert!((hot - 0.5).abs() < 0.03, "{hot}");
        assert!(all.iter().all(|r| r.0 < TENANTS));
        // The order inside a flush is seeded, not fixed.
        assert!(flushes.iter().any(|f| f[0].1 != flushes[0][0].1));
    }

    #[test]
    fn request_stream_is_a_function_of_the_seed() {
        let stream = |seed| {
            let mut rng = Rng::new(seed);
            (0..20).map(|_| picks(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }
}
