//! COAX — the paper's contribution: correlation-aware indexing with soft
//! functional dependencies.
//!
//! The pipeline, bottom to top:
//!
//! 1. [`regression`] — ordinary and Bayesian (conjugate, incrementally
//!    updatable) linear regression over streamed observations.
//! 2. [`learn`] — Algorithm 1: sample the data, overlay a 2-D bucket grid,
//!    keep dense cells, fit a line to the weighted cell centres, derive the
//!    tolerance margins, and split rows into primary/outlier partitions.
//! 3. [`discovery`] — §5: scan attribute pairs for soft FDs, merge
//!    correlated pairs into groups (union–find), elect one predictor per
//!    group.
//! 4. [`model`] / [`spline`] — the learned dependency ψ̂ with margins
//!    (ε_LB, ε_UB): a single line (§4) or a bounded-error linear spline
//!    (§7.2 extension).
//! 5. [`translate`] — Eq. 2: rewrite constraints on dependent attributes
//!    into constraints on their predictors, intersected with the direct
//!    constraints.
//! 6. [`exec`] — the shared query-execution layer: a query becomes a
//!    [`exec::QueryPlan`] (planned once: a point that pins every model
//!    probes only the partition it lives in, anything else is
//!    translated), executed uniformly for single and batched queries
//!    over a frozen epoch: probe primary → probe outliers. Every
//!    surface's batches go through one batch
//!    engine, which deduplicates value-equal queries, answers each
//!    distinct query once through the surface's single-query path
//!    (translating it once), and runs chunks on the exec layer's one
//!    worker pool sized by [`exec::ExecConfig`] — the pool every
//!    parallel query path in the crate shares — with per-query results
//!    and stats identical to the sequential loop. Batches also stream:
//!    the plan cursor yields results chunk by chunk, and
//!    `batch_query_streaming` delivers per-query results before the
//!    whole batch finishes — scoped on a bare index, or off a detached
//!    [`exec::BatchStream`] (the one stream type of every snapshot).
//! 7. [`index`] — [`CoaxIndex`]: a primary index (default: the paper's
//!    reduced-dimensionality grid file) plus an outlier index, **both**
//!    pluggable boxed backends ([`PrimaryBackend`]/[`OutlierBackend`]),
//!    with exact merged results — an immutable epoch with no write
//!    path. Implements
//!    [`coax_index::MultidimIndex`], so COAX composes like any other
//!    backend — including COAX-over-COAX nesting.
//! 8. [`spec`] — [`IndexSpec`]: the workspace-level factory building any
//!    index (substrates or COAX) as a `Box<dyn MultidimIndex>`.
//! 9. [`maint`] — the lifecycle layer of one shard:
//!    [`maint::IndexHandle`] buffers the shard's inserts in its overlay,
//!    [`maint::DriftMonitor`] watches its insert stream for correlation
//!    drift, [`maint::MaintenancePolicy`] decides between a cheap fold
//!    ([`maint::IndexHandle::fold`]: the overlay merged into the frozen
//!    directories in one pass) and a full refit
//!    ([`maint::IndexHandle::refit`]: models and directories
//!    re-derived), the handle epoch-swaps the successor index under
//!    concurrent readers, and [`maint::ReadSnapshot`] freezes one
//!    consistent version of the shard for a read session.
//! 10. [`theory`] — §7 + appendices: effectiveness (Eq. 5), the
//!     Centre-Sequence Model, and Monte-Carlo validation of Theorems
//!     7.1–7.4.
//! 11. [`obs`] — runtime observability over all of the above: the
//!     process-wide metrics registry (counters / gauges / log-bucketed
//!     latency histograms), per-phase [`obs::QuerySpan`]s through the
//!     exec pipeline, and the bounded [`obs::EventJournal`] of
//!     structural events (epoch publishes, fold-vs-refit decisions,
//!     overlay copy-on-write). Configured by [`obs::ObsConfig`] in
//!     [`CoaxConfig`]; zero-overhead when off and never perturbs
//!     results.
//! 12. [`shard`] — the index service and its one write path:
//!     [`shard::ShardedHandle`] partitions rows across N ≥ 1 independent
//!     [`maint::IndexHandle`] shards (one by default) on a
//!     correlation-aware shard key ([`shard::ShardSpec`] in
//!     [`CoaxConfig`]), validates, routes and numbers every insert,
//!     reads single / batch / streaming queries from the shards that can
//!     hold a match, and merges results and [`coax_index::ScanStats`] in
//!     shard order.
//!     Every shard stores its rows under their global ids, so no layer
//!     translates an id between insert and result. Each shard keeps its
//!     own epoch and maintenance loop — a refit on one shard never stalls
//!     the other N−1 — and [`shard::ShardedSnapshot`], the one read
//!     session, reads every shard without a global lock, cut at the
//!     publish watermark so every read is a dense prefix of the ids.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod discovery;
pub mod epsilon;
pub mod exec;
pub mod index;
pub mod learn;
pub mod maint;
pub mod model;
pub mod obs;
pub mod regression;
pub mod shard;
pub mod spec;
pub mod spline;
pub mod theory;
pub mod translate;

pub use discovery::{CorrelationGroup, Discovery, DiscoveryConfig};
pub use epsilon::EpsilonPolicy;
pub use exec::{BatchStream, ExecConfig, QueryPlan};
pub use index::{
    CoaxConfig, CoaxIndex, CoaxQueryStats, InsertError, OutlierBackend, PrimaryBackend,
};
pub use learn::{LearnConfig, PairFit};
pub use maint::{
    DriftMonitor, DriftReport, IndexHandle, Maintainer, MaintenanceAction, MaintenancePolicy,
    ReadSnapshot,
};
pub use model::{FdModel, SoftFdModel};
pub use obs::{MetricsRegistry, MetricsSnapshot, ObsConfig};
pub use regression::{ols, BayesianLinReg, LinParams};
pub use shard::{ShardKey, ShardSpec, ShardedHandle, ShardedSnapshot};
pub use spec::IndexSpec;
pub use spline::SplineFdModel;
