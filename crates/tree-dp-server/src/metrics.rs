//! Per-tenant and server-wide serving metrics.
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
    /// (admission, query evals, and incremental updates).
    pub rounds_charged: u64,
    /// Words sent on this tenant's context by serving traffic.
    pub words_sent: u64,
    /// Approximate resident footprint of the tenant in bytes: prepared tree +
    /// solver store (which holds the plan), at 8 bytes per machine word.
    pub resident_bytes: usize,
}

impl Snapshot for TenantMetrics {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.queries);
        w.put_u64(self.updates);
        w.put_u64(self.structural);
        w.put_u64(self.rounds_charged);
        w.put_u64(self.words_sent);
        w.put_usize(self.resident_bytes);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(TenantMetrics {
            queries: r.take_u64()?,
            updates: r.take_u64()?,
            structural: r.take_u64()?,
            rounds_charged: r.take_u64()?,
            words_sent: r.take_u64()?,
            resident_bytes: r.take_usize()?,
        })
    }
}

/// Plan counters of the whole server, kept for the callers that read them (the
/// `serve-mixed` workload of `treedp-bench`). Returned by
/// [`TreeDpServer::cache_stats`](crate::TreeDpServer::cache_stats), which derives
/// them from the tenants: every tenant holds its plan, so nothing misses, is evicted
/// or is rebuilt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered, over the tenants held now.
    pub hits: u64,
    /// Always 0: no query finds its tenant's plan missing.
    pub misses: u64,
    /// Always 0: no plan is evicted.
    pub evictions: u64,
    /// Always 0: no plan is rebuilt after admission.
    pub build_rounds: u64,
    /// Words of the tenants' plans.
    pub resident_words: usize,
    /// Number of plans held: one per tenant.
    pub resident_plans: usize,
    /// [`ServerConfig::plan_budget_words`](crate::ServerConfig::plan_budget_words),
    /// which nothing else reads.
    pub budget_words: usize,
}
