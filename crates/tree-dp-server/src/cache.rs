//! The memory-budgeted plan cache: resident [`SolvePlan`]s under a word budget,
//! with cost-aware LRU eviction.
//!
//! A [`SolvePlan`] is the expensive problem-independent half of a solve (hundreds of
//! rounds to build on large trees, versus single-digit rounds per cached eval), so
//! the cache is where the serving layer's memory/latency trade lives: plans resident
//! in the cache answer queries at plan-eval cost, evicted plans are transparently
//! rebuilt — re-charging their full `plan-build` rounds, which
//! [`CacheStats::build_rounds`] accumulates into a measurable miss-cost curve.
//!
//! Eviction is cost-aware LRU: among the least-recently-used entries (a window of
//! [`LRU_WINDOW`]), the victim is the one with the highest words-per-build-round
//! ratio — prefer dropping plans that are large but cheap to rebuild over small
//! plans that were expensive to build. The entry being inserted is never its own
//! victim, and a single plan larger than the whole budget stays resident alone
//! (evicting it immediately would make every query a miss for nothing).
//!
//! ## Tiny-budget semantics
//!
//! A budget smaller than every individual plan (including budget 0) degenerates
//! gracefully: the most recently inserted plan stays resident — over budget, alone —
//! and every other entry is evicted. At most **one** over-budget plan is ever
//! resident; inserting for another tenant evicts it. This is deliberate: a cache that
//! held nothing would turn every query into a rebuild without saving the memory the
//! resident plan already spent at build time. Accounting cannot drift on this path:
//! there is no stored byte counter to underflow or double-count —
//! [`resident_words`](PlanCache::resident_words) recomputes the sum over the live
//! entries on every call.

use crate::metrics::CacheStats;
use crate::TenantId;
use std::collections::BTreeMap;
use tree_dp_core::SolvePlan;

/// How many least-recently-used entries compete for eviction; the victim is the
/// highest words-per-build-round among them.
pub const LRU_WINDOW: usize = 4;

struct CacheEntry {
    plan: SolvePlan,
    words: usize,
    build_rounds: u64,
    last_used: u64,
}

/// A memory-budgeted cache of [`SolvePlan`]s keyed by tenant id (see module docs).
pub struct PlanCache {
    budget_words: usize,
    clock: u64,
    entries: BTreeMap<TenantId, CacheEntry>,
    hits: u64,
    misses: u64,
    evictions: u64,
    build_rounds: u64,
}

impl PlanCache {
    /// An empty cache holding at most `budget_words` words of resident plans.
    pub fn new(budget_words: usize) -> Self {
        Self {
            budget_words,
            clock: 0,
            entries: BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            build_rounds: 0,
        }
    }

    /// Words currently held by resident plans.
    pub fn resident_words(&self) -> usize {
        self.entries.values().map(|e| e.words).sum()
    }

    /// Number of resident plans.
    fn resident_plans(&self) -> usize {
        self.entries.len()
    }

    /// Record one lookup for `id`: `true` (and an LRU touch + hit) when the plan is
    /// resident, `false` (and a miss) when the caller must rebuild and
    /// [`insert`](Self::insert) it.
    pub fn lookup(&mut self, id: &str) -> bool {
        self.clock += 1;
        match self.entries.get_mut(id) {
            Some(entry) => {
                entry.last_used = self.clock;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// The resident plan of `id`, without touching LRU state or counters.
    pub fn plan(&self, id: &str) -> Option<&SolvePlan> {
        self.entries.get(id).map(|e| &e.plan)
    }

    /// Insert a freshly built plan that cost `build_rounds` rounds, evicting
    /// lower-value entries until the budget holds (see module docs for the policy).
    /// Returns the evicted tenant ids so the server can bump their counters.
    pub fn insert(&mut self, id: TenantId, plan: SolvePlan, build_rounds: u64) -> Vec<TenantId> {
        self.clock += 1;
        self.build_rounds += build_rounds;
        let entry = CacheEntry {
            words: plan.resident_words(),
            plan,
            build_rounds,
            last_used: self.clock,
        };
        self.entries.insert(id.clone(), entry);
        self.evict_to_budget(&id)
    }

    /// Evict until the budget holds, never victimizing `protect` (see module docs —
    /// including the tiny-budget semantics: `protect` may stay resident over budget
    /// when it is the only entry left).
    fn evict_to_budget(&mut self, protect: &str) -> Vec<TenantId> {
        let mut evicted = Vec::new();
        while self.resident_words() > self.budget_words && self.entries.len() > 1 {
            match self.pick_victim(protect) {
                Some(victim) => {
                    self.entries.remove(&victim);
                    self.evictions += 1;
                    evicted.push(victim);
                }
                None => break,
            }
        }
        evicted
    }

    /// Drop the resident plan of `id`, if any (tenant removal).
    pub fn remove(&mut self, id: &str) {
        self.entries.remove(id);
    }

    /// Take `id`'s resident plan *out* of the cache for in-place surgery, returning
    /// it with the build-rounds it was inserted with. Not an eviction and not a miss:
    /// no counter moves. The caller is expected to hand the plan back through
    /// [`put_entry`](Self::put_entry) (structural-repair handshake) — or drop it, if
    /// the repair degraded and the plan is stale.
    pub fn take_entry(&mut self, id: &str) -> Option<(SolvePlan, u64)> {
        self.entries.remove(id).map(|e| (e.plan, e.build_rounds))
    }

    /// Re-admit a plan taken with [`take_entry`](Self::take_entry) (possibly spliced
    /// in the meantime, so its word size is re-measured). Enforces the budget exactly
    /// like [`insert`](Self::insert) but does **not** add `build_rounds` to the
    /// cumulative miss cost — those rounds were charged when the plan was first
    /// built, and a splice is not a rebuild.
    pub fn put_entry(&mut self, id: TenantId, plan: SolvePlan, build_rounds: u64) -> Vec<TenantId> {
        self.clock += 1;
        let entry = CacheEntry {
            words: plan.resident_words(),
            plan,
            build_rounds,
            last_used: self.clock,
        };
        self.entries.insert(id.clone(), entry);
        self.evict_to_budget(&id)
    }

    /// Among the [`LRU_WINDOW`] least-recently-used entries other than `protect`,
    /// the one with the highest words-per-build-round ratio.
    fn pick_victim(&self, protect: &str) -> Option<TenantId> {
        let mut candidates: Vec<(&TenantId, &CacheEntry)> = self
            .entries
            .iter()
            .filter(|(id, _)| id.as_str() != protect)
            .collect();
        candidates.sort_by_key(|(_, e)| e.last_used);
        candidates.truncate(LRU_WINDOW);
        // words / max(build_rounds, 1) compared by cross-multiplication (exact, no
        // floats); strict `>` keeps the least-recently-used entry on ties.
        let mut best: Option<(&TenantId, u128, u128)> = None;
        for (id, e) in candidates {
            let w = e.words as u128;
            let r = e.build_rounds.max(1) as u128;
            match best {
                Some((_, bw, br)) if w * br <= bw * r => {}
                _ => best = Some((id, w, r)),
            }
        }
        best.map(|(id, _, _)| id.clone())
    }

    /// A point-in-time snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            build_rounds: self.build_rounds,
            resident_words: self.resident_words(),
            resident_plans: self.resident_plans(),
            budget_words: self.budget_words,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_engine::{MpcConfig, MpcContext};
    use tree_dp_core::prepare;
    use tree_gen::shapes;
    use tree_repr::{ListOfEdges, TreeInput};

    fn small_plan() -> SolvePlan {
        let tree = shapes::path(24);
        let mut ctx = MpcContext::new(
            MpcConfig::new(64, 0.5)
                .with_memory_slack(512.0)
                .with_bandwidth_slack(512.0),
        );
        let prepared = prepare(
            &mut ctx,
            TreeInput::ListOfEdges(ListOfEdges::from_tree(&tree)),
            Some(4),
        )
        .unwrap();
        prepared.plan_uncached(&mut ctx)
    }

    #[test]
    fn budget_zero_keeps_exactly_the_latest_plan_resident() {
        let plan = small_plan();
        let words = plan.resident_words();
        assert!(words > 0);
        let mut cache = PlanCache::new(0);

        // A single over-budget plan stays resident alone.
        let evicted = cache.insert("a".to_string(), plan.clone(), 10);
        assert!(evicted.is_empty());
        assert_eq!(cache.resident_plans(), 1);
        assert_eq!(cache.resident_words(), words);
        assert!(cache.lookup("a"));

        // Inserting for another tenant evicts it: never two over-budget residents.
        let evicted = cache.insert("b".to_string(), plan.clone(), 10);
        assert_eq!(evicted, vec!["a".to_string()]);
        assert_eq!(cache.resident_plans(), 1);
        assert!(!cache.lookup("a"));
        assert!(cache.lookup("b"));
    }

    #[test]
    fn budget_below_smallest_plan_never_drifts_accounting() {
        let plan = small_plan();
        let words = plan.resident_words();
        let mut cache = PlanCache::new(words.saturating_sub(1));

        // insert → evict → insert cycles: the recomputed word count always equals the
        // sum over live entries (no stored counter to underflow or double-count).
        for round in 0..4 {
            let id = if round % 2 == 0 { "a" } else { "b" };
            cache.insert(id.to_string(), plan.clone(), 5);
            assert_eq!(cache.resident_plans(), 1, "round {round}");
            assert_eq!(cache.resident_words(), words, "round {round}");
        }
        assert_eq!(cache.stats().evictions, 3);

        // Re-inserting under the same id replaces the entry without double-counting.
        cache.insert("b".to_string(), plan.clone(), 5);
        assert_eq!(cache.resident_plans(), 1);
        assert_eq!(cache.resident_words(), words);
    }

    #[test]
    fn take_and_put_entry_round_trip_without_counter_movement() {
        let plan = small_plan();
        let mut cache = PlanCache::new(usize::MAX);
        cache.insert("a".to_string(), plan, 7);
        let (hits, misses) = (cache.stats().hits, cache.stats().misses);
        let build_rounds_before = cache.stats().build_rounds;

        let (taken, rounds) = cache.take_entry("a").expect("resident");
        assert_eq!(rounds, 7);
        assert_eq!(cache.resident_plans(), 0);
        let evicted = cache.put_entry("a".to_string(), taken, rounds);
        assert!(evicted.is_empty());
        assert!(cache.plan("a").is_some());

        let stats = cache.stats();
        assert_eq!(stats.hits, hits);
        assert_eq!(stats.misses, misses);
        assert_eq!(stats.evictions, 0);
        // A splice re-admission is not a rebuild: miss cost does not grow.
        assert_eq!(stats.build_rounds, build_rounds_before);
        assert!(cache.take_entry("missing").is_none());
    }
}
