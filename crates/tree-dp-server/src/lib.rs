//! # `tree-dp-server` — Tree-DP-as-a-service
//!
//! A long-lived, multi-tenant serving layer over the tree-DP pipeline: the expensive
//! prepare/plan work is paid once per tenant and amortized across heavy query/update
//! traffic, which is exactly the shape the cost split invites — on `path-65536` the
//! prepare charges ~900 rounds while four batched problem evals cost ~170.
//!
//! * [`TreeDpServer`] — the engine: tenant registry, request queue, flush loop. Each
//!   tenant's incremental solver holds the tenant's one
//!   [`SolvePlan`](tree_dp_core::SolvePlan), built at admission and spliced in place
//!   by structural batches; queries evaluate it, and no request rebuilds it.
//! * [`Request`]/[`Response`] — admission batching: per flush and tenant, all weight
//!   updates fold into one incremental `apply_batch`, all structural link/cut
//!   requests into one `apply_structural`, all queries into one `solve_many` over the
//!   solver's plan.
//! * [`TreeDpServer::snapshot_tenant`] / [`TreeDpServer::restore_tenant`] — tenant
//!   persistence on the hand-rolled binary codec of
//!   [`tree_dp_core::snapshot`]: kill a server, restore the bytes elsewhere, and
//!   serving resumes with bit-identical labels and optima.
//! * [`TenantMetrics`] — per-tenant counters in MPC-model terms (rounds, words,
//!   requests, resident bytes); [`CacheStats`] — server-wide plan counters derived
//!   from the tenants.
//!
//! The serving layer never reads a clock and keeps all state in ordered maps, so a
//! server run is fully deterministic; wall-clock percentiles are measured from the
//! outside by the bench harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod server;

pub use metrics::{CacheStats, TenantMetrics};
pub use server::{
    AdmitReport, Request, Response, ServerConfig, ServerError, TenantId, TenantSpec, TreeDpServer,
    KIND_TENANT,
};
