//! Per-tenant and cache-wide serving metrics.
//!
//! Everything here is counted in MPC-model terms (rounds, words) or plain event
//! counts — the serving layer itself never reads a clock, so a server run is
//! deterministic and its metrics are reproducible bit for bit. Wall-clock
//! percentiles live in the bench harness, which times requests from the outside.

use tree_dp_core::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// Serving counters of one tenant. Returned by
/// [`TreeDpServer::tenant_metrics`](crate::TreeDpServer::tenant_metrics) with
/// [`resident_bytes`](Self::resident_bytes) computed at read time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantMetrics {
    /// Queries answered for this tenant (each one `DpSolution`).
    pub queries: u64,
    /// Update requests folded through the incremental solver.
    pub updates: u64,
    /// Structural requests (link/cut batches) folded through the incremental
    /// solver.
    pub structural: u64,
    /// MPC rounds charged on this tenant's context by serving traffic
    /// (admission, plan rebuilds, query evals, and incremental updates).
    pub rounds_charged: u64,
    /// Words sent on this tenant's context by serving traffic.
    pub words_sent: u64,
    /// Flushes that found this tenant's plan resident in the cache.
    pub plan_hits: u64,
    /// Flushes that had to rebuild this tenant's plan (admission excluded).
    pub plan_misses: u64,
    /// Times this tenant's plan was evicted to make room for another tenant.
    pub evictions: u64,
    /// Approximate resident footprint of the tenant in bytes: prepared tree +
    /// solver store + cached plan (when resident), at 8 bytes per machine word.
    pub resident_bytes: usize,
}

impl Snapshot for TenantMetrics {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.queries);
        w.put_u64(self.updates);
        w.put_u64(self.structural);
        w.put_u64(self.rounds_charged);
        w.put_u64(self.words_sent);
        w.put_u64(self.plan_hits);
        w.put_u64(self.plan_misses);
        w.put_u64(self.evictions);
        w.put_usize(self.resident_bytes);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(TenantMetrics {
            queries: r.take_u64()?,
            updates: r.take_u64()?,
            structural: r.take_u64()?,
            rounds_charged: r.take_u64()?,
            words_sent: r.take_u64()?,
            plan_hits: r.take_u64()?,
            plan_misses: r.take_u64()?,
            evictions: r.take_u64()?,
            resident_bytes: r.take_usize()?,
        })
    }
}

/// Aggregate counters of the plan cache. Returned by
/// [`TreeDpServer::cache_stats`](crate::TreeDpServer::cache_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Query flushes that found the tenant's plan resident.
    pub hits: u64,
    /// Query flushes that had to rebuild an evicted (or never-admitted) plan.
    pub misses: u64,
    /// Plans evicted to fit the memory budget.
    pub evictions: u64,
    /// Total MPC rounds spent building plans through the cache — the measurable
    /// cache-miss cost: shrink the budget and this grows with the miss count.
    pub build_rounds: u64,
    /// Words currently held by resident plans.
    pub resident_words: usize,
    /// Number of plans currently resident.
    pub resident_plans: usize,
    /// The configured budget in words.
    pub budget_words: usize,
}

impl CacheStats {
    /// Hit rate over the query traffic seen so far (`1.0` when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}
