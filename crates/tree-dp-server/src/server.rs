//! The multi-tenant serving engine: tenant registry, admission batching, and
//! snapshot persistence.
//!
//! ## Tenant lifecycle
//!
//! 1. **Admit** ([`TreeDpServer::admit`]): prepare the tenant's tree on its own
//!    [`MpcContext`], build its [`SolvePlan`] once, run the initial solve, and stand up
//!    an [`IncrementalSolver`] over the solve's store — the plan with the problem's
//!    slot state over it. That store holds the tenant's one plan: queries, weight
//!    updates and structural batches all run on it, so no request ever rebuilds it.
//! 2. **Serve** ([`TreeDpServer::submit`] + [`TreeDpServer::flush`]): queued
//!    requests are coalesced per tenant — all weight updates of a flush fold into
//!    *one* `apply_batch` call, all structural (link/cut) requests into *one*
//!    [`IncrementalSolver::apply_structural`] call, and all queries into *one*
//!    [`SolvePlan::solve_many`] call over the solver's plan. Each structural request is
//!    first dry-run against the tree as the requests accepted before it leave it
//!    ([`IncrementalSolver::validate_structural`]); one with an invalid op is rejected
//!    on its own and the rest of the flush proceeds. The folded batch splices the
//!    solver's plan in place; a batch that degrades re-prepares the tree and moves
//!    the plan it re-solves on into a fresh store. Either way the tree caches no plan,
//!    so the tenant still holds one.
//! 3. **Persist** ([`TreeDpServer::snapshot_tenant`] /
//!    [`TreeDpServer::restore_tenant`]): a tenant serializes to a self-contained
//!    [`KIND_TENANT`] snapshot (config, prepared tree, solver store, aux input,
//!    metrics) and restores on any server — including a freshly started one —
//!    with bit-identical labels and optima. The store's plan travels as its view
//!    counts and is linked from the tree written before it, so store and tree
//!    cannot disagree; restoring checks the tree's clustering, that tree and config
//!    belong together (the tree's tables span the config's machines), and that the
//!    tree travels without a cached plan, as the server writes it; anything else is
//!    a typed [`ServerError::Snapshot`].
//!    A restored tenant's first query charges exactly the plan-evaluation rounds.
//!
//! Within one flush, a tenant's weight updates apply first, then its structural
//! batch, then its queries (the queries see the updated *and* repaired state);
//! across tenants, groups are processed in first-submission order. Responses
//! always come back in submission order.
//!
//! [`SolvePlan`]: tree_dp_core::SolvePlan
//! [`SolvePlan::solve_many`]: tree_dp_core::SolvePlan::solve_many

use crate::metrics::{CacheStats, TenantMetrics};
use mpc_engine::{DistVec, MpcConfig, MpcContext};
use std::collections::BTreeMap;
use tree_clustering::TopologyOp;
use tree_dp_core::{
    open, prepare, seal, ClusterDp, DpSolution, PipelineError, PreparedTree, Snapshot,
    SnapshotError, SolverStore,
};
use tree_dp_incremental::{
    IncrementalSolver, StructuralBatch, StructuralError, StructuralStats, UpdateStats,
};
use tree_repr::{NodeId, TreeInput};

/// Tenants are addressed by plain string ids.
pub type TenantId = String;

/// Snapshot payload kind of a serialized tenant (layered on the core codec's
/// header; see [`tree_dp_core::seal`]). Bumped 100 → 101 when
/// [`TenantMetrics`] grew its `structural` counter, 101 → 102 when the solver
/// store inside it became a plan plus slot state, 102 → 103 when plans stopped
/// carrying their routing indexes and the config lost its reserved byte, 103 → 104
/// when the config lost its radix switch, 104 → 105 when [`TenantMetrics`] lost its
/// plan-cache counters (`plan_hits`, `plan_misses`, `evictions`), 105 → 106 when
/// plans began to travel as their compact skeletons and the tree lost its second
/// root and node count, 106 → 107 when the tree's edge list and the store's plan
/// stopped carrying edge kinds, 107 → 108 when the store's plan began to travel as
/// its view counts and payloads lost their tag.
pub const KIND_TENANT: u32 = 108;

/// Why a serving-layer operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// The request names a tenant this server does not hold.
    UnknownTenant(TenantId),
    /// An admit/restore would overwrite an existing tenant.
    DuplicateTenant(TenantId),
    /// The tenant's tree failed to prepare.
    Admission(String),
    /// A tenant snapshot failed to decode.
    Snapshot(SnapshotError),
    /// A structural batch was rejected (invalid op or failed degrade re-prepare).
    Structural(StructuralError),
    /// A query's `node_inputs` leave an original node of the tenant's tree without
    /// an input.
    InvalidQuery {
        /// The lowest-numbered node without an input.
        missing: NodeId,
    },
    /// An internal invariant did not hold (never expected; returned instead of
    /// panicking, per the repo's panic policy).
    Internal(&'static str),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::UnknownTenant(id) => write!(f, "unknown tenant {id:?}"),
            ServerError::DuplicateTenant(id) => write!(f, "tenant {id:?} already admitted"),
            ServerError::Admission(msg) => write!(f, "admission failed: {msg}"),
            ServerError::Snapshot(e) => write!(f, "tenant snapshot: {e}"),
            ServerError::Structural(e) => write!(f, "{e}"),
            ServerError::InvalidQuery { missing } => {
                write!(f, "query gives node {missing} no input")
            }
            ServerError::Internal(what) => write!(f, "internal serving error: {what}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<SnapshotError> for ServerError {
    fn from(e: SnapshotError) -> Self {
        ServerError::Snapshot(e)
    }
}

impl From<PipelineError> for ServerError {
    fn from(e: PipelineError) -> Self {
        ServerError::Admission(e.to_string())
    }
}

/// Server-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Read by nothing: every tenant holds its one plan in its solver's store, so no
    /// plan budget applies. [`CacheStats::budget_words`] reports the value back.
    pub plan_budget_words: usize,
}

/// Everything needed to admit one tenant (see [`TreeDpServer::admit`]).
pub struct TenantSpec<P: ClusterDp> {
    /// MPC configuration for the tenant's own context (sized to its tree).
    pub config: MpcConfig,
    /// The tenant's tree, in any supported representation.
    pub input: TreeInput,
    /// Cluster-size threshold override (`None` for the config's `n^{δ/2}`).
    pub threshold: Option<usize>,
    /// The DP problem this tenant serves.
    pub problem: P,
    /// Initial inputs of the original nodes.
    pub node_inputs: Vec<(NodeId, P::NodeInput)>,
    /// Input assigned to auxiliary nodes introduced by degree reduction.
    pub aux_input: P::NodeInput,
    /// Initial per-edge inputs (keyed by the edge's child endpoint).
    pub edge_inputs: Vec<(NodeId, P::EdgeInput)>,
}

/// Round costs of one admission, by pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmitReport {
    /// Rounds charged by normalize + degree-reduction + clustering.
    pub prepare_rounds: u64,
    /// Rounds charged by the initial plan build.
    pub plan_build_rounds: u64,
    /// Rounds charged by the initial solve (store-filling plan eval).
    pub solve_rounds: u64,
}

/// One queued request against a tenant.
pub enum Request<P: ClusterDp> {
    /// Solve one ad-hoc problem instance over the tenant's plan. Queries in
    /// the same flush batch into a single
    /// [`SolvePlan::solve_many`](tree_dp_core::SolvePlan::solve_many) call. A query
    /// that leaves an original
    /// node without an input is rejected alone ([`ServerError::InvalidQuery`]); ids
    /// the tree does not hold are ignored.
    Query {
        /// Inputs of the original nodes for this instance (one per node).
        node_inputs: Vec<(NodeId, P::NodeInput)>,
        /// Per-edge inputs for this instance.
        edge_inputs: Vec<(NodeId, P::EdgeInput)>,
    },
    /// Change some of the tenant's persistent inputs. Updates in the same flush
    /// fold into a single incremental `apply_batch` (within one flush, later
    /// writes to the same key win).
    Update {
        /// Node-input changes, keyed by original node id.
        node_updates: Vec<(NodeId, P::NodeInput)>,
        /// Edge-input changes, keyed by the edge's child endpoint.
        edge_updates: Vec<(NodeId, P::EdgeInput)>,
    },
    /// Change the tenant's tree itself: batched `link`/`cut` operations. The valid
    /// structural requests of one flush fold into a single
    /// [`IncrementalSolver::apply_structural`] call, applied after the flush's
    /// weight updates and before its queries (ops concatenate in submission order).
    /// A request is atomic — one invalid op rejects it whole — and is judged against
    /// the tree as the requests accepted before it leave it, so a rejected request
    /// costs its neighbours nothing.
    Structural(StructuralBatch<P>),
}

/// The answer to one [`Request`], in submission order.
pub enum Response<P: ClusterDp> {
    /// A query's solution.
    Solution(DpSolution<P>),
    /// The folded statistics of the update batch this request was part of (shared
    /// by every update of the same tenant in the same flush).
    Update(UpdateStats),
    /// The folded statistics of the structural batch this request was part of
    /// (shared by every structural request of the same tenant in the same flush).
    Structural(StructuralStats),
    /// The request could not be served.
    Rejected(ServerError),
}

/// A request with its position in the submission queue.
type IndexedRequests<P> = Vec<(usize, Request<P>)>;
/// A pending query: queue position plus its instance inputs.
type QueryItem<P> = (
    usize,
    Vec<(NodeId, <P as ClusterDp>::NodeInput)>,
    Vec<(NodeId, <P as ClusterDp>::EdgeInput)>,
);
/// One query's distributed input tables.
type InputTables<P> = (
    DistVec<(NodeId, <P as ClusterDp>::NodeInput)>,
    DistVec<(NodeId, <P as ClusterDp>::EdgeInput)>,
);

struct Tenant<P: ClusterDp>
where
    P::Summary: PartialEq,
    P::Label: PartialEq,
{
    ctx: MpcContext,
    prepared: PreparedTree,
    solver: IncrementalSolver<P>,
    metrics: TenantMetrics,
}

impl<P: ClusterDp> Tenant<P>
where
    P::Summary: PartialEq,
    P::Label: PartialEq,
{
    /// Serve this tenant's share of a flush: fold updates, apply the folded
    /// structural batch, batch-evaluate queries on the solver's plan, account metrics.
    fn serve(&mut self, items: IndexedRequests<P>, responses: &mut [Option<Response<P>>]) {
        let mut node_updates: BTreeMap<NodeId, P::NodeInput> = BTreeMap::new();
        let mut edge_updates: BTreeMap<NodeId, P::EdgeInput> = BTreeMap::new();
        let mut update_positions: Vec<usize> = Vec::new();
        let mut structural_requests: Vec<(usize, StructuralBatch<P>)> = Vec::new();
        let mut queries: Vec<QueryItem<P>> = Vec::new();
        for (pos, req) in items {
            match req {
                Request::Update {
                    node_updates: nu,
                    edge_updates: eu,
                } => {
                    node_updates.extend(nu);
                    edge_updates.extend(eu);
                    update_positions.push(pos);
                }
                Request::Structural(batch) => structural_requests.push((pos, batch)),
                Request::Query {
                    node_inputs,
                    edge_inputs,
                } => queries.push((pos, node_inputs, edge_inputs)),
            }
        }
        let rounds_before = self.ctx.metrics().rounds;
        let words_before = self.ctx.metrics().total_words_sent;

        // Stage 1: one folded update batch through the incremental solver.
        if !update_positions.is_empty() {
            let nu: Vec<(NodeId, P::NodeInput)> = node_updates.into_iter().collect();
            let eu: Vec<(NodeId, P::EdgeInput)> = edge_updates.into_iter().collect();
            let stats = self.solver.apply_batch(&mut self.ctx, &nu, &eu);
            self.metrics.updates += update_positions.len() as u64;
            for pos in update_positions {
                responses[pos] = Some(Response::Update(stats));
            }
        }

        // Stage 2: one folded structural batch of the requests that pass a dry run
        // against the tree as the ones accepted before them leave it (planning costs
        // only the records the ops address, so re-planning the accepted prefix per
        // request is cheap).
        let mut structural: StructuralBatch<P> = StructuralBatch::new();
        let mut structural_positions: Vec<usize> = Vec::new();
        let mut accepted: Vec<TopologyOp> = Vec::new();
        for (pos, batch) in structural_requests {
            let prefix = accepted.len();
            accepted.extend(batch.ops().iter().map(|op| op.topology()));
            match self.solver.validate_structural(&self.prepared, &accepted) {
                Ok(()) => {
                    for op in batch.into_ops() {
                        structural.push(op);
                    }
                    structural_positions.push(pos);
                }
                Err(e) => {
                    accepted.truncate(prefix);
                    responses[pos] = Some(Response::Rejected(ServerError::Structural(e)));
                }
            }
        }
        if !structural_positions.is_empty() {
            match self
                .solver
                .apply_structural(&mut self.ctx, &mut self.prepared, &structural)
            {
                Ok(stats) => {
                    self.metrics.structural += structural_positions.len() as u64;
                    for pos in structural_positions {
                        responses[pos] = Some(Response::Structural(stats));
                    }
                }
                Err(e) => {
                    for pos in structural_positions {
                        responses[pos] =
                            Some(Response::Rejected(ServerError::Structural(e.clone())));
                    }
                }
            }
        }

        // Stage 3: the queries, batched over the solver's plan.
        if !queries.is_empty() {
            let plan = self.solver.store().plan();
            // An incomplete query would panic the evaluation pass and take the whole
            // flush with it: reject it alone.
            let original_nodes = self.prepared.original_nodes;
            queries.retain(
                |(pos, ni, _)| match plan.missing_node_input(ni, original_nodes) {
                    Some(missing) => {
                        responses[*pos] =
                            Some(Response::Rejected(ServerError::InvalidQuery { missing }));
                        false
                    }
                    None => true,
                },
            );
            let mut tables: Vec<InputTables<P>> = Vec::with_capacity(queries.len());
            for (_, ni, ei) in &queries {
                let n = self.ctx.from_vec(ni.clone());
                let e = self.ctx.from_vec(ei.clone());
                tables.push((n, e));
            }
            let jobs: Vec<_> = tables
                .iter()
                .map(|(n, e)| (self.solver.problem(), n, self.solver.aux_input().clone(), e))
                .collect();
            let sols = plan.solve_many(&mut self.ctx, &jobs);
            self.metrics.queries += queries.len() as u64;
            for ((pos, _, _), sol) in queries.into_iter().zip(sols) {
                responses[pos] = Some(Response::Solution(sol));
            }
        }

        self.metrics.rounds_charged += self.ctx.metrics().rounds - rounds_before;
        self.metrics.words_sent += self.ctx.metrics().total_words_sent - words_before;
    }
}

/// A long-lived, multi-tenant tree-DP serving engine (see module docs).
///
/// One server instance serves one problem type `P`; each tenant owns its tree, its
/// [`MpcContext`], and its incremental solver, whose store holds the tenant's plan.
pub struct TreeDpServer<P: ClusterDp>
where
    P::Summary: PartialEq,
    P::Label: PartialEq,
{
    config: ServerConfig,
    tenants: BTreeMap<TenantId, Tenant<P>>,
    queue: Vec<(TenantId, Request<P>)>,
}

impl<P: ClusterDp> TreeDpServer<P>
where
    P::Summary: PartialEq,
    P::Label: PartialEq,
{
    /// An empty server.
    pub fn new(config: ServerConfig) -> Self {
        Self {
            config,
            tenants: BTreeMap::new(),
            queue: Vec::new(),
        }
    }

    /// Admit a new tenant: prepare its tree, build its plan, run the initial solve,
    /// and stand up its incremental solver over the solve's store (see module docs).
    pub fn admit(
        &mut self,
        id: impl Into<TenantId>,
        spec: TenantSpec<P>,
    ) -> Result<AdmitReport, ServerError> {
        let id = id.into();
        if self.tenants.contains_key(&id) {
            return Err(ServerError::DuplicateTenant(id));
        }
        let mut ctx = MpcContext::new(spec.config);
        let r0 = ctx.metrics().rounds;
        let prepared = prepare(&mut ctx, spec.input, spec.threshold)?;
        let r1 = ctx.metrics().rounds;
        // Built beside the tree, not cached on it, and moved into the store the solve
        // fills: the tenant's only copy.
        let plan = prepared.plan_uncached(&mut ctx);
        let r2 = ctx.metrics().rounds;

        let node_inputs = ctx.from_vec(spec.node_inputs);
        let edge_inputs = ctx.from_vec(spec.edge_inputs);
        let (_, store) = plan.solve_with_store(
            &mut ctx,
            &spec.problem,
            &node_inputs,
            spec.aux_input.clone(),
            &edge_inputs,
        );
        let r3 = ctx.metrics().rounds;
        let solver = IncrementalSolver::restore(spec.problem, store, spec.aux_input);

        let metrics = TenantMetrics {
            rounds_charged: r3 - r0,
            words_sent: ctx.metrics().total_words_sent,
            ..TenantMetrics::default()
        };
        self.tenants.insert(
            id,
            Tenant {
                ctx,
                prepared,
                solver,
                metrics,
            },
        );
        Ok(AdmitReport {
            prepare_rounds: r1 - r0,
            plan_build_rounds: r2 - r1,
            solve_rounds: r3 - r2,
        })
    }

    /// Queue one request against `id`; it runs at the next [`flush`](Self::flush).
    pub fn submit(&mut self, id: impl Into<TenantId>, request: Request<P>) {
        self.queue.push((id.into(), request));
    }

    /// Number of requests waiting for the next flush.
    pub fn pending_requests(&self) -> usize {
        self.queue.len()
    }

    /// Serve every queued request and return the responses in submission order
    /// (admission batching: per tenant, one folded update batch then one
    /// `solve_many` over all queries — see module docs).
    pub fn flush(&mut self) -> Vec<(TenantId, Response<P>)> {
        let queue = std::mem::take(&mut self.queue);

        // Group requests by tenant, keeping first-submission order of the groups.
        let mut group_index: BTreeMap<TenantId, usize> = BTreeMap::new();
        let mut groups: Vec<(TenantId, IndexedRequests<P>)> = Vec::new();
        let mut ids: Vec<TenantId> = Vec::with_capacity(queue.len());
        for (pos, (id, req)) in queue.into_iter().enumerate() {
            ids.push(id.clone());
            let gi = *group_index.entry(id.clone()).or_insert_with(|| {
                groups.push((id, Vec::new()));
                groups.len() - 1
            });
            groups[gi].1.push((pos, req));
        }

        let mut responses: Vec<Option<Response<P>>> = ids.iter().map(|_| None).collect();
        for (id, items) in groups {
            match self.tenants.get_mut(&id) {
                Some(tenant) => tenant.serve(items, &mut responses),
                None => {
                    for (pos, _) in items {
                        responses[pos] =
                            Some(Response::Rejected(ServerError::UnknownTenant(id.clone())));
                    }
                }
            }
        }

        ids.into_iter()
            .zip(responses)
            .map(|(id, resp)| {
                let resp =
                    resp.unwrap_or_else(|| Response::Rejected(ServerError::Internal("unserved")));
                (id, resp)
            })
            .collect()
    }

    /// Number of admitted tenants.
    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// The ids of all admitted tenants, in order.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.tenants.keys().cloned().collect()
    }

    /// This tenant's serving counters, with `resident_bytes` computed now (prepared
    /// tree + solver store, plan included, at 8 bytes per word).
    pub fn tenant_metrics(&self, id: &str) -> Option<TenantMetrics> {
        let tenant = self.tenants.get(id)?;
        let words = tenant.prepared.resident_words() + tenant.solver.store().resident_words();
        let mut m = tenant.metrics;
        m.resident_bytes = words * 8;
        Some(m)
    }

    /// The plan counters of the server, derived from its tenants: each holds its
    /// plan, so every query is answered from a resident plan and none is evicted or
    /// rebuilt (see [`CacheStats`]).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.tenants.values().map(|t| t.metrics.queries).sum(),
            misses: 0,
            evictions: 0,
            build_rounds: 0,
            resident_words: self
                .tenants
                .values()
                .map(|t| t.solver.store().plan().resident_words())
                .sum(),
            resident_plans: self.tenants.len(),
            budget_words: self.config.plan_budget_words,
        }
    }

    /// The tenant's MPC context (e.g. to assert strict-mode compliance in tests).
    pub fn context(&self, id: &str) -> Option<&MpcContext> {
        self.tenants.get(id).map(|t| &t.ctx)
    }

    /// The tenant's current root summary (of the incremental state).
    pub fn root_summary(&self, id: &str) -> Option<&P::Summary> {
        self.tenants.get(id).map(|t| t.solver.root_summary())
    }

    /// The tenant's current incremental labels, keyed by edge child endpoint.
    pub fn labels(&self, id: &str) -> Option<&BTreeMap<NodeId, P::Label>> {
        self.tenants.get(id).map(|t| t.solver.labels())
    }

    /// Drop a tenant and any of its queued requests. Returns `true` when the tenant
    /// existed.
    pub fn remove_tenant(&mut self, id: &str) -> bool {
        self.queue.retain(|(qid, _)| qid != id);
        self.tenants.remove(id).is_some()
    }
}

impl<P: ClusterDp> TreeDpServer<P>
where
    P::Summary: PartialEq,
    P::Label: PartialEq,
    P::NodeInput: Snapshot,
    P::EdgeInput: Snapshot,
    P::Summary: Snapshot,
    P::Label: Snapshot,
{
    /// Serialize `id` as a self-contained [`KIND_TENANT`] snapshot: config,
    /// prepared tree (without a cached plan), solver store (the tenant's plan and
    /// slot state), aux input, and metrics.
    pub fn snapshot_tenant(&self, id: &str) -> Result<Vec<u8>, ServerError> {
        let tenant = self
            .tenants
            .get(id)
            .ok_or_else(|| ServerError::UnknownTenant(id.to_string()))?;
        let mut w = tree_dp_core::SnapshotWriter::new();
        id.to_string().encode(&mut w);
        tenant.ctx.config().encode(&mut w);
        tenant.prepared.encode(&mut w);
        tenant.solver.store().encode(&mut w);
        tenant.solver.aux_input().encode(&mut w);
        tenant.metrics.encode(&mut w);
        Ok(seal(KIND_TENANT, w))
    }

    /// Restore a tenant from [`snapshot_tenant`](Self::snapshot_tenant) bytes onto
    /// this server (typically a freshly started one), re-creating its context from
    /// the persisted config and its incremental solver from the persisted store, whose
    /// plan is linked from the tree that travels before it. Returns the restored
    /// tenant's id.
    pub fn restore_tenant(&mut self, bytes: &[u8], problem: P) -> Result<TenantId, ServerError> {
        let mut r = open(bytes, KIND_TENANT)?;
        let id = TenantId::decode(&mut r)?;
        let config = MpcConfig::decode(&mut r)?;
        let prepared = PreparedTree::decode(&mut r)?;
        // A tenant's tree travels plan-less: its one plan is the store's, and a tree
        // carrying another is not what the server writes.
        if prepared.has_plan() {
            return Err(SnapshotError::Malformed("tenant tree with a cached plan").into());
        }
        // Local structural repairs splice the tree's tables in place on this tenant's
        // machines, and the store's plan is linked onto them, so they must be exactly
        // the config's.
        let chunks = [
            prepared.clustering.elements.num_chunks(),
            prepared.edges.num_chunks(),
            prepared.aux_to_original.num_chunks(),
        ];
        if chunks.iter().any(|&c| c != config.num_machines()) {
            return Err(SnapshotError::Malformed("tenant tree of another machine count").into());
        }
        let store = SolverStore::<P>::decode(&mut r, &prepared)?;
        let aux_input = P::NodeInput::decode(&mut r)?;
        let metrics = TenantMetrics::decode(&mut r)?;
        r.finish().map_err(ServerError::from)?;
        if self.tenants.contains_key(&id) {
            return Err(ServerError::DuplicateTenant(id));
        }
        let ctx = MpcContext::new(config);
        let solver = IncrementalSolver::restore(problem, store, aux_input);
        self.tenants.insert(
            id.clone(),
            Tenant {
                ctx,
                prepared,
                solver,
                metrics,
            },
        );
        Ok(id)
    }
}
