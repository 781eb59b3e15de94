//! The COAX index (§3, Fig. 1): a reduced-dimensionality primary index
//! over the rows that obey the learned soft FDs, plus a full-dimensional
//! outlier index for the rest, with query translation in front.
//!
//! Layout decisions follow §6: by default the primary index is a quantile
//! grid file over the *indexed* attributes only (predictors +
//! uncorrelated), with one of them sorted inside cells instead of gridded
//! — so `n` dims with `m` predicted attributes need an `n − m − 1`-
//! dimensional directory. Dependent attributes are *stored* in the pages
//! (queries still filter on them exactly) but never navigated. Both
//! partitions are pluggable: [`PrimaryBackend`] and [`OutlierBackend`]
//! resolve to factory-built `Box<dyn MultidimIndex>` values, making the
//! paper's "works with any multidimensional index structure" claim
//! structural for the primary too.
//!
//! A `CoaxIndex` is a frozen epoch: built once, queried, never written.
//! Updates (§5, §9) go through the index service
//! ([`crate::ShardedHandle`]), which routes each insert to one shard
//! ([`crate::maint::IndexHandle`]) whose overlay is that shard's insert
//! buffer: each insert is margin-checked and buffered there, and each
//! insert inside the margins advances the per-model Bayesian posteriors
//! the index was built with. The shard's drift monitor and policy then
//! decide between a cheap fold (the overlay absorbed into each partition
//! in one merge pass, models and directories frozen) and a full refit
//! (every model refreshed, every row re-split, both partitions rebuilt);
//! either builds a successor epoch from this one.

use crate::discovery::{discover, CorrelationGroup, Discovery, DiscoveryConfig};
use crate::epsilon::EpsilonPolicy;
use crate::exec::{self, ExecConfig, QueryPlan};
use crate::learn::split_rows;
use crate::maint::MaintenancePolicy;
use crate::model::{FdModel, SoftFdModel};
use crate::obs::{Obs, ObsConfig, QuerySpan};
use crate::regression::BayesianLinReg;
use crate::shard::ShardSpec;
use crate::translate::translate;
use coax_data::{Dataset, RangeQuery, RowId, Value};
use coax_index::{
    BackendSpec, DistinctQueries, GridFile, GridFileConfig, MultidimIndex, QueryResult,
    ScanStats,
};

/// Which conventional structure holds the outlier partition.
///
/// The paper describes the outlier index as "a typical multidimensional
/// index structure" and stresses that COAX "works with any
/// multidimensional index structure" — this spec is that pluggability.
/// The two named variants are tuned conveniences (the grid file adapts
/// its resolution to the partition size and inherits the primary's
/// sorted attribute); [`OutlierBackend::Custom`] accepts *any*
/// [`BackendSpec`], built through the backend factory into the
/// `Box<dyn MultidimIndex>` the outlier store actually holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OutlierBackend {
    /// Quantile grid file over all dimensions (with the sorted-attribute
    /// trick). The default: cheapest directory for small partitions.
    #[default]
    GridFile,
    /// STR-packed R-tree with the given node capacity. Pays more directory
    /// memory for better pruning on very selective queries.
    RTree {
        /// Leaf and internal node capacity.
        capacity: usize,
    },
    /// Any substrate, exactly as specified (no adaptive tuning).
    Custom(BackendSpec),
}

impl OutlierBackend {
    /// Resolves the convenience variants into a concrete [`BackendSpec`]
    /// for an outlier partition of `rows` rows over `dims` attributes.
    ///
    /// The grid-file default adapts its resolution to the partition size
    /// (targeting ~32 rows per cell, capped at `max_cells_per_dim`) and
    /// reuses the primary index's sorted attribute — a small outlier
    /// partition never pays for a large directory, which matters because
    /// Fig. 8 counts the outlier directory against COAX's footprint.
    pub fn to_spec(
        self,
        rows: usize,
        dims: usize,
        sort_dim: Option<usize>,
        max_cells_per_dim: usize,
    ) -> BackendSpec {
        match self {
            OutlierBackend::GridFile => {
                let grid_dims = dims - usize::from(sort_dim.is_some());
                let cells_per_dim = adaptive_cells_per_dim(rows, grid_dims, max_cells_per_dim);
                BackendSpec::GridFile { cells_per_dim, sort_dim }
            }
            OutlierBackend::RTree { capacity } => BackendSpec::RTree { capacity },
            OutlierBackend::Custom(spec) => spec,
        }
    }
}

/// Which structure holds the *primary* (in-margin) partition.
///
/// Symmetric with [`OutlierBackend`]: the paper claims COAX "can be used
/// with any multidimensional index" for **both** partitions, and this
/// spec is that pluggability for the primary. The default is the paper's
/// layout — the reduced-dimensionality quantile grid file over the
/// *indexed* attributes only (predictors + uncorrelated), one of them
/// sorted inside cells. The other variants index the primary partition
/// over **all** dimensions; query translation still pays off because the
/// navigation rectangle reaching them is the tightened one (and the
/// trait-level filtered probe intersects it with the original filter, so
/// substrates that index the dependent attributes prune on them too).
#[derive(Clone, Debug, Default)]
pub enum PrimaryBackend {
    /// The paper's reduced-dimensionality quantile grid file: grid lines
    /// on the indexed attributes minus the sorted one, dependent
    /// attributes stored but never navigated. Keeps the fused
    /// navigate-and-filter fast path.
    #[default]
    GridFile,
    /// STR-packed R-tree with the given node capacity, over all dims.
    RTree {
        /// Leaf and internal node capacity.
        capacity: usize,
    },
    /// Any substrate, exactly as specified, built through the backend
    /// factory over the primary partition (all dims).
    Custom(BackendSpec),
    /// Another COAX index over the primary partition — correlation
    /// nesting: the inner index runs its own discovery on the in-margin
    /// rows and splits them again. Finite by construction (the config
    /// tree is finite).
    Coax(Box<CoaxConfig>),
}

impl PrimaryBackend {
    /// Builds the primary index over the primary partition `primary_ds`
    /// (a full-dimensionality dataset of the in-margin rows, row `i`
    /// stored under id `ids[i]`), boxed behind the trait.
    ///
    /// `grid_dims`/`sort_dim`/`cells_per_dim` describe the paper's
    /// reduced-dimensionality layout and are only consumed by the
    /// [`PrimaryBackend::GridFile`] variant; the other variants index
    /// every dimension of the partition.
    pub fn build(
        &self,
        primary_ds: &Dataset,
        ids: &[RowId],
        grid_dims: Vec<usize>,
        sort_dim: Option<usize>,
        cells_per_dim: usize,
    ) -> Box<dyn MultidimIndex> {
        match self {
            PrimaryBackend::GridFile => Box::new(GridFile::build_with_ids(
                primary_ds,
                ids,
                &GridFileConfig::subset(grid_dims, sort_dim, cells_per_dim),
            )),
            PrimaryBackend::RTree { capacity } => {
                BackendSpec::RTree { capacity: *capacity }.build_with_ids(primary_ds, ids)
            }
            PrimaryBackend::Custom(spec) => spec.build_with_ids(primary_ds, ids),
            PrimaryBackend::Coax(config) => {
                let discovery = discover(primary_ds, &config.discovery, config.seed);
                Box::new(CoaxIndex::build_with_ids(primary_ds, ids, discovery, config))
            }
        }
    }

    /// Short label for sweep tables ("grid-file", "r-tree", …).
    pub fn label(&self) -> &'static str {
        match self {
            PrimaryBackend::GridFile => "grid-file",
            PrimaryBackend::RTree { .. } => "r-tree",
            PrimaryBackend::Custom(spec) => spec.name(),
            PrimaryBackend::Coax(_) => "coax",
        }
    }
}

/// Build-time configuration of [`CoaxIndex`].
#[derive(Clone, Debug)]
pub struct CoaxConfig {
    /// Soft-FD discovery gates and Algorithm 1 knobs.
    pub discovery: DiscoveryConfig,
    /// Cells per gridded attribute of the primary index.
    pub cells_per_dim: usize,
    /// Upper bound on cells per gridded attribute of the outlier index.
    /// The actual resolution adapts to the outlier count (targeting a few
    /// dozen rows per cell) so a small outlier partition never pays for a
    /// large directory — the paper counts the outlier directory against
    /// COAX's memory footprint (Fig. 8), so over-provisioning it would
    /// squander the primary index's savings. Ignored by the R-tree
    /// backend.
    pub outlier_cells_per_dim: usize,
    /// Structure used for the primary (in-margin) partition.
    pub primary_backend: PrimaryBackend,
    /// Structure used for the outlier partition.
    pub outlier_backend: OutlierBackend,
    /// Sorted attribute of the primary index. `None` picks the first
    /// group's predictor (translation tightens exactly that attribute, so
    /// the in-cell binary search cuts deepest there), falling back to the
    /// first indexed attribute.
    pub sort_dim: Option<usize>,
    /// Thresholds the [`crate::maint`] layer uses to decide between
    /// folding a shard's insert overlay and refitting its models. Carried
    /// in the build config so the factory ([`crate::IndexSpec`]) can hand
    /// out the maintained service ([`crate::ShardedHandle`]) without a
    /// second configuration channel; a bare [`CoaxIndex`] ignores it.
    pub maintenance: MaintenancePolicy,
    /// Batch-execution policy: worker count and chunking for
    /// `batch_query` (see [`ExecConfig`]). Defaults to the calling
    /// thread; [`ExecConfig::parallel`] fans batches out over every
    /// core. Like `maintenance`, carried in the build config so the
    /// factory and the [`crate::ShardedHandle`] pick it up with no second
    /// channel; override per call with [`CoaxIndex::batch_query_with`].
    pub exec: ExecConfig,
    /// Runtime observability: metric/span/journal recording (see
    /// [`crate::obs`]). Default **on**; [`ObsConfig::disabled`] turns
    /// every record site into a single `None` check. Never affects
    /// results — the equivalence suite pins obs-on output bit-identical
    /// to obs-off.
    pub obs: ObsConfig,
    /// Row partitioning across the service's independent
    /// [`crate::maint::IndexHandle`] shards (see
    /// [`crate::shard::ShardedHandle`]). Consumed by the factory
    /// ([`crate::IndexSpec`]) and by [`crate::shard::ShardedHandle::build`];
    /// a bare [`CoaxIndex`] ignores it. Default is one shard.
    pub shard: ShardSpec,
    /// Seed for the sampling inside discovery.
    pub seed: u64,
}

impl Default for CoaxConfig {
    fn default() -> Self {
        Self {
            discovery: DiscoveryConfig::default(),
            cells_per_dim: 16,
            outlier_cells_per_dim: 8,
            primary_backend: PrimaryBackend::default(),
            outlier_backend: OutlierBackend::default(),
            sort_dim: None,
            maintenance: MaintenancePolicy::default(),
            exec: ExecConfig::default(),
            obs: ObsConfig::default(),
            shard: ShardSpec::default(),
            seed: 0xC0A0,
        }
    }
}

/// Per-part scan counters of one COAX query (Figs. 6–8 report the primary
/// and outlier costs separately).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoaxQueryStats {
    /// Work done inside the primary (soft-FD) index.
    pub primary: ScanStats,
    /// Work done inside the outlier index.
    pub outliers: ScanStats,
}

impl CoaxQueryStats {
    /// Flattens into a single [`ScanStats`] (trait-level reporting).
    pub fn flatten(&self) -> ScanStats {
        self.primary.merge(self.outliers)
    }
}

/// A row inserted after the build, not yet folded into the partitions:
/// an entry of a [`crate::maint::IndexHandle`]'s overlay.
#[derive(Clone, Debug)]
pub(crate) struct PendingRow {
    pub(crate) id: RowId,
    pub(crate) values: Vec<Value>,
    /// Whether the row was inside every model's margins at insert time.
    /// Folding trusts this flag: models are frozen between refits, so the
    /// insert-time verdict stays valid until the models move. The handle
    /// re-computes it at publish when a refit moves the models.
    pub(crate) in_margins: bool,
}

/// Error returned by [`crate::ShardedHandle::insert`] (and
/// [`crate::ShardedHandle::route`]) when a row cannot be inserted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertError {
    /// Row length differs from the index dimensionality.
    WrongArity {
        /// Index dimensionality.
        expected: usize,
        /// Length of the offending row.
        got: usize,
    },
    /// The row contains NaN or an infinity.
    NonFinite,
    /// Every [`RowId`] has been handed out: the next id would not fit.
    IdsExhausted,
}

impl std::fmt::Display for InsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InsertError::WrongArity { expected, got } => {
                write!(f, "row has {got} values, index has {expected} dimensions")
            }
            InsertError::NonFinite => write!(f, "row contains a non-finite value"),
            InsertError::IdsExhausted => write!(f, "every row id has been handed out"),
        }
    }
}

impl std::error::Error for InsertError {}

/// The checks an insert runs before it is routed or allocated an id: the
/// row has `dims` values, all finite.
pub(crate) fn check_row(dims: usize, row: &[Value]) -> Result<(), InsertError> {
    if row.len() != dims {
        return Err(InsertError::WrongArity { expected: dims, got: row.len() });
    }
    if row.iter().any(|v| !v.is_finite()) {
        return Err(InsertError::NonFinite);
    }
    Ok(())
}

/// The correlation-aware index: learned soft-FD primary + outlier index.
///
/// **Both** partitions are held as factory-built `Box<dyn MultidimIndex>`
/// values — any substrate (or even another `CoaxIndex`) can serve either
/// side, which is the paper's "works with any multidimensional index
/// structure" claim made structural. `CoaxIndex` itself implements
/// [`MultidimIndex`], so the whole composition is uniform: translation +
/// primary/outlier merge is just another backend, and COAX-over-COAX
/// nesting falls out of the seam.
#[derive(Debug)]
pub struct CoaxIndex {
    dims: usize,
    pub(crate) config: CoaxConfig,
    pub(crate) discovery: Discovery,
    /// The primary (in-margin) partition behind its configured backend —
    /// by default the paper's reduced-dimensionality grid file. Like the
    /// outlier partition, it stores and emits the rows' own ids.
    pub(crate) primary: Box<dyn MultidimIndex>,
    /// The outlier partition behind its configured backend.
    pub(crate) outliers: Box<dyn MultidimIndex>,
    /// Sorted attribute of the primary index.
    sort_dim: Option<usize>,
    /// One posterior accumulator per *linear* model (in discovery model
    /// order), seeded from the primary rows at build; a shard advances
    /// its own copy with every in-margin insert. Spline models carry
    /// `None`: their shape is frozen between full rebuilds.
    pub(crate) posteriors: Vec<Option<BayesianLinReg>>,
    /// One past the largest id this index holds: bounds
    /// [`crate::maint::ReadSnapshot`]'s cut counts.
    pub(crate) next_id: u64,
    /// Observability recorder (no-op when `config.obs` is disabled).
    /// Rebuilt with the index; the underlying metric cells are
    /// process-wide, so counters survive fold/refit cycles.
    pub(crate) obs: Obs,
}

impl CoaxIndex {
    /// Builds COAX over `dataset`: discovers soft FDs, splits the rows,
    /// and constructs both indexes.
    pub fn build(dataset: &Dataset, config: &CoaxConfig) -> Self {
        let discovery = discover(dataset, &config.discovery, config.seed);
        Self::build_with_discovery(dataset, discovery, config)
    }

    /// Builds COAX from an externally supplied discovery result (ablation
    /// studies, hand-specified dependencies, rebuilds).
    pub fn build_with_discovery(
        dataset: &Dataset,
        discovery: Discovery,
        config: &CoaxConfig,
    ) -> Self {
        Self::build_with_ids(dataset, &dataset.row_ids().collect::<Vec<_>>(), discovery, config)
    }

    /// [`CoaxIndex::build_with_discovery`] over rows that carry ids: row
    /// `i` of `dataset` is `ids[i]`, the id both partitions store and
    /// every query emits. Shards are built over their members' global
    /// ids this way, and refits over the ids they gathered.
    pub(crate) fn build_with_ids(
        dataset: &Dataset,
        ids: &[RowId],
        discovery: Discovery,
        config: &CoaxConfig,
    ) -> Self {
        let dims = dataset.dims();
        assert_eq!(discovery.dims, dims, "discovery dimensionality mismatch");
        let models: Vec<FdModel> = discovery.all_models().cloned().collect();
        let (primary_rows, outlier_rows) = split_rows(dataset, &models);

        // Seed one Bayesian posterior per linear model from the primary
        // rows so later inserts refine rather than restart the fit.
        let prior = config.discovery.learn.prior_precision;
        let posteriors = models
            .iter()
            .map(|m| {
                m.as_linear().map(|lin| {
                    let mut reg = BayesianLinReg::new(prior);
                    for &r in &primary_rows {
                        reg.observe(
                            dataset.value(r, lin.predictor),
                            dataset.value(r, lin.dependent),
                        );
                    }
                    reg
                })
            })
            .collect();

        let sort_dim = resolve_sort_dim(config.sort_dim, &discovery, &discovery.indexed_dims());
        let part_ids =
            |rows: &[RowId]| -> Vec<RowId> { rows.iter().map(|&r| ids[r as usize]).collect() };
        let primary = build_primary(
            config,
            &discovery,
            sort_dim,
            &dataset.take_rows(&primary_rows),
            &part_ids(&primary_rows),
        );
        let outliers = outlier_spec(config, outlier_rows.len(), dims, sort_dim)
            .build_with_ids(&dataset.take_rows(&outlier_rows), &part_ids(&outlier_rows));
        Self {
            dims,
            config: config.clone(),
            discovery,
            primary,
            outliers,
            sort_dim,
            posteriors,
            next_id: ids.iter().max().map_or(0, |&id| u64::from(id) + 1),
            obs: Obs::new(&config.obs),
        }
    }

    /// The discovered dependency structure.
    pub fn discovery(&self) -> &Discovery {
        &self.discovery
    }

    /// The correlation groups in use.
    pub fn groups(&self) -> &[CorrelationGroup] {
        &self.discovery.groups
    }

    /// Attributes the primary index actually indexes (grid + sorted).
    pub fn indexed_dims(&self) -> Vec<usize> {
        self.discovery.indexed_dims()
    }

    /// The primary index's sorted attribute.
    pub fn sort_dim(&self) -> Option<usize> {
        self.sort_dim
    }

    /// Rows in the primary partition.
    pub fn primary_len(&self) -> usize {
        self.primary.len()
    }

    /// Rows in the outlier partition.
    pub fn outlier_len(&self) -> usize {
        self.outliers.len()
    }

    /// Fraction of rows in the primary partition (Table 1's "Primary
    /// Index Ratio").
    pub fn primary_ratio(&self) -> f64 {
        let built = self.primary_len() + self.outlier_len();
        if built == 0 {
            return 1.0;
        }
        self.primary_len() as f64 / built as f64
    }

    /// Directory overhead of the primary index alone (Fig. 8's
    /// "COAX (primary)" series), through the trait — whatever backend
    /// holds the partition.
    pub fn primary_overhead(&self) -> usize {
        self.primary.memory_overhead()
    }

    /// The primary partition's index, as the trait object it is held as
    /// (reports and tests inspect the configured substrate's name).
    pub fn primary_index(&self) -> &dyn MultidimIndex {
        self.primary.as_ref()
    }

    /// The outlier partition's index, as the trait object it is held as.
    pub fn outlier_index(&self) -> &dyn MultidimIndex {
        self.outliers.as_ref()
    }

    /// Directory overhead of the outlier index alone (Fig. 8's
    /// "COAX (outliers)" series).
    pub fn outlier_overhead(&self) -> usize {
        self.outliers.memory_overhead()
    }

    /// The translated navigation query for `query` (exposed for the
    /// effectiveness experiments).
    pub fn translate_query(&self, query: &RangeQuery) -> RangeQuery {
        translate(query, &self.discovery.groups)
    }

    /// Translates `query` once into an executable [`QueryPlan`] (step 1
    /// of the [`crate::exec`] sequence), borrowing it as the filter.
    /// Plans can be executed repeatedly and are what the batch path
    /// builds up front. A plan that runs the translation records its
    /// time as one `coax.query.translate_us` sample; a point plan, which
    /// translates nothing, reads no clock. Single queries translate
    /// inside their query span instead.
    pub fn plan<'q>(&self, query: &'q RangeQuery) -> QueryPlan<'q> {
        QueryPlan::recorded(query, &self.discovery.groups, &self.obs)
    }

    /// Executes a prepared plan: primary probe + outlier probe, with
    /// per-part counters. [`CoaxIndex::query_detailed`]
    /// answers exactly as `execute_plan(&plan(query))`.
    pub fn execute_plan(&self, plan: &QueryPlan<'_>, out: &mut Vec<RowId>) -> CoaxQueryStats {
        let mut span = self.obs.query_span();
        let stats = exec::execute(self, plan, out, &mut span);
        span.finish(&stats.flatten());
        stats
    }

    /// Answers a batch under an explicit [`ExecConfig`], overriding the
    /// built-in [`CoaxConfig::exec`] policy for this call only — the
    /// thread-ladder sweeps use this to time one built index at many
    /// worker counts. Per-query results and stats are identical to
    /// sequential [`CoaxIndex::range_query_stats`] calls whatever the
    /// configuration.
    pub fn batch_query_with(
        &self,
        queries: &[RangeQuery],
        config: &ExecConfig,
    ) -> Vec<QueryResult> {
        exec::collect_batch(queries, config, &self.obs, |query, ids| {
            exec::answer_batched(self, query, ids)
        })
    }

    /// Streaming execution of a prepared plan: the returned cursor chains
    /// the primary probe (per navigation rectangle) and the outlier
    /// probe, yielding chunks as each part produces them — collecting it
    /// reproduces [`CoaxIndex::execute_plan`] bit for bit (ids in the
    /// same order, [`ScanStats`] equal), but the first chunk leaves after
    /// the primary's first populated cell instead of after the whole
    /// sequence.
    pub fn execute_plan_cursor<'a>(&'a self, plan: QueryPlan<'a>) -> coax_index::RowCursor<'a> {
        exec::plan_cursor(self, plan)
    }

    /// Streaming batch execution under the built-in [`CoaxConfig::exec`]
    /// policy: `sink` receives `(query_index, QueryResult)` pairs as
    /// chunks of the batch complete — before the whole batch has finished
    /// — each result identical to [`MultidimIndex::batch_query`]'s at
    /// that index. Runs on the calling thread's scope: on one thread the
    /// pairs arrive in order of first appearance (a query's duplicates
    /// right after its first copy); across the pool, chunk by chunk in
    /// completion order, with backpressure from the bounded channel.
    pub fn batch_query_streaming(
        &self,
        queries: &[RangeQuery],
        sink: impl FnMut(usize, QueryResult),
    ) {
        self.batch_query_streaming_with(queries, &self.config.exec, sink);
    }

    /// [`CoaxIndex::batch_query_streaming`] under an explicit
    /// [`ExecConfig`], overriding the built-in policy for this call only.
    pub fn batch_query_streaming_with(
        &self,
        queries: &[RangeQuery],
        config: &ExecConfig,
        mut sink: impl FnMut(usize, QueryResult),
    ) {
        let distinct = DistinctQueries::new(queries);
        let answer =
            |query: &RangeQuery, ids: &mut Vec<RowId>| exec::answer_batched(self, query, ids);
        exec::stream_batch(queries, &distinct, config, &self.obs, answer, |qi, result| {
            sink(qi, result);
            true
        });
    }

    /// Queries only the primary (soft-FD) index. Results are exact w.r.t.
    /// the primary partition; outliers are *not* consulted — pair with
    /// [`CoaxIndex::query_outliers`] for full results. Fig. 6/7 time the
    /// two parts separately.
    ///
    /// Navigation uses multi-interval translation
    /// ([`crate::translate::translate_all`]): non-monotone spline models
    /// split the scan into disjoint predictor bands instead of covering
    /// their hull.
    pub fn query_primary(&self, query: &RangeQuery, out: &mut Vec<RowId>) -> ScanStats {
        exec::probe_primary(self, &self.plan(query), out, &mut QuerySpan::disabled())
    }

    /// Ablation hook: queries the primary index with the *original* query
    /// as navigation (no translation). Results are identical to
    /// [`CoaxIndex::query_primary`]; only the scanned volume differs —
    /// the ablation benches measure exactly that gap.
    pub fn query_primary_untranslated(
        &self,
        query: &RangeQuery,
        out: &mut Vec<RowId>,
    ) -> ScanStats {
        self.primary.range_query_filtered(query, query, out)
    }

    /// Queries only the outlier index (original, untranslated query — the
    /// margins mean nothing to outliers).
    pub fn query_outliers(&self, query: &RangeQuery, out: &mut Vec<RowId>) -> ScanStats {
        self.outliers.range_query_stats(query, out)
    }

    /// Full query: primary + outliers, with per-part counters.
    /// Translation and execution share one query span.
    pub fn query_detailed(&self, query: &RangeQuery, out: &mut Vec<RowId>) -> CoaxQueryStats {
        let mut span = self.obs.query_span();
        let stats = exec::execute_query(self, query, out, &mut span);
        span.finish(&stats.flatten());
        stats
    }

    /// The build configuration this index was constructed with.
    pub fn config(&self) -> &CoaxConfig {
        &self.config
    }

    /// The refit behind [`crate::maint::IndexHandle::refit`] — the
    /// expensive half of the fold/refit split: every model refreshed
    /// from `posteriors` (new line) and the residuals of all rows (new
    /// margins; this index's plus `overlay`'s, gathered once in entry
    /// order with their ids), then a fresh build over those rows under
    /// the same ids — every row re-split, both partitions and their
    /// directories built anew. Group structure is kept; build again to
    /// re-discover from scratch.
    pub(crate) fn refit(
        &self,
        overlay: &[PendingRow],
        posteriors: &[Option<BayesianLinReg>],
    ) -> CoaxIndex {
        let (dataset, ids) = gather(self, overlay.iter());
        let epsilon = self.config.discovery.learn.epsilon;
        let groups = self
            .discovery
            .groups
            .iter()
            .map(|g| refresh_group(g, &self.discovery, posteriors, &dataset, epsilon))
            .collect();
        let discovery = Discovery { groups, dims: self.dims };
        CoaxIndex::build_with_ids(&dataset, &ids, discovery, &self.config)
    }

    /// The fold behind [`crate::maint::IndexHandle::fold`] — the cheap
    /// half of the fold/refit split: the `overlay` rows (ids ascending)
    /// folded into the partitions **without refitting any model**.
    ///
    /// Models, margins, and group structure are carried over verbatim, so
    /// no residual is recomputed and no row is re-checked against the
    /// margins: built rows keep their partition, and each overlay row
    /// goes where its insert-time margin verdict already routed it (valid
    /// because models only move on refit). The directories are frozen
    /// the same way: each partition absorbs its rows under their own ids
    /// in one merge pass ([`MultidimIndex::absorbed`]) instead of being
    /// re-packed. A partition is rebuilt only when its backend cannot
    /// absorb, or when the adaptive outlier grid would pick another
    /// resolution at the new size. The successor carries `posteriors` —
    /// every observation accumulated so far — so a later refit still
    /// refits from the full evidence (and re-derives the directories).
    ///
    /// Query results are identical to never folding (same rows, same
    /// models); only the overlay's linear scan disappears.
    pub(crate) fn fold(
        &self,
        overlay: &[PendingRow],
        posteriors: Vec<Option<BayesianLinReg>>,
    ) -> CoaxIndex {
        let (primary_rows, outlier_rows): (Vec<&PendingRow>, Vec<&PendingRow>) =
            overlay.iter().partition(|r| r.in_margins);
        let primary =
            absorb_or_rebuild(self.primary.as_ref(), &primary_rows, false, |ds, ids| {
                build_primary(&self.config, &self.discovery, self.sort_dim, ds, ids)
            });
        let old_len = self.outliers.len();
        let spec =
            outlier_spec(&self.config, old_len + outlier_rows.len(), self.dims, self.sort_dim);
        let stepped = spec != outlier_spec(&self.config, old_len, self.dims, self.sort_dim);
        let outliers =
            absorb_or_rebuild(self.outliers.as_ref(), &outlier_rows, stepped, |ds, ids| {
                spec.build_with_ids(ds, ids)
            });
        CoaxIndex {
            dims: self.dims,
            config: self.config.clone(),
            discovery: self.discovery.clone(),
            primary,
            outliers,
            sort_dim: self.sort_dim,
            posteriors,
            next_id: overlay
                .last()
                .map_or(self.next_id, |r| self.next_id.max(u64::from(r.id) + 1)),
            obs: self.obs.clone(),
        }
    }
}

impl MultidimIndex for CoaxIndex {
    fn name(&self) -> &str {
        "coax"
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn len(&self) -> usize {
        self.primary.len() + self.outliers.len()
    }

    fn range_query_stats(&self, query: &RangeQuery, out: &mut Vec<RowId>) -> ScanStats {
        self.query_detailed(query, out).flatten()
    }

    /// Streaming override — the [`crate::exec`] plan cursor: the query is
    /// translated once ([`CoaxIndex::plan`]) and executed incrementally
    /// (primary cell by cell, then outliers), with collected results and
    /// stats identical to
    /// [`MultidimIndex::range_query_stats`].
    fn range_query_cursor(&self, query: &RangeQuery) -> coax_index::RowCursor<'_> {
        self.execute_plan_cursor(self.plan(query).into_owned())
    }

    /// Batch override — the [`crate::exec`] batch engine: value-equal
    /// queries are deduplicated, each distinct query is translated into a
    /// [`QueryPlan`] exactly once and run through the single-query
    /// executor, and chunks of the batch fan out over the worker pool
    /// configured in [`CoaxConfig::exec`]. Per-query results and stats
    /// are identical to sequential `range_query_stats` calls.
    fn batch_query(&self, queries: &[RangeQuery]) -> Vec<QueryResult> {
        self.batch_query_with(queries, &self.config.exec)
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(RowId, &[Value])) {
        self.primary.for_each_entry(f);
        self.outliers.for_each_entry(f);
    }

    fn memory_overhead(&self) -> usize {
        let model_bytes: usize = self.discovery.all_models().map(FdModel::model_bytes).sum();
        self.primary.memory_overhead() + self.outliers.memory_overhead() + model_bytes
    }
}

/// Builds the primary partition over `ds`, row `i` under id `ids[i]`,
/// through the configured backend — by default the paper's
/// reduced-dimensionality grid file (gridding only the indexed
/// attributes, one sorted in-cell); any other backend indexes the
/// partition over all dims.
fn build_primary(
    config: &CoaxConfig,
    discovery: &Discovery,
    sort_dim: Option<usize>,
    ds: &Dataset,
    ids: &[RowId],
) -> Box<dyn MultidimIndex> {
    let grid_dims =
        discovery.indexed_dims().into_iter().filter(|&d| Some(d) != sort_dim).collect();
    config.primary_backend.build(ds, ids, grid_dims, sort_dim, config.cells_per_dim)
}

/// The spec an outlier partition of `rows` rows is built with: a
/// conventional structure over *all* dims behind the configured backend.
/// The default grid backend still benefits from the sorted-attribute
/// trick and adapts its resolution to the partition size (≈32 rows per
/// cell).
fn outlier_spec(
    config: &CoaxConfig,
    rows: usize,
    dims: usize,
    sort_dim: Option<usize>,
) -> BackendSpec {
    config.outlier_backend.to_spec(rows, dims, sort_dim, config.outlier_cells_per_dim)
}

/// `part` plus the buffered `rows`, each under its own id: absorbed in
/// one pass when the backend can and `rebuild` is false, else rebuilt by
/// `build` over the partition's entries plus `rows`, gathered with their
/// ids.
fn absorb_or_rebuild(
    part: &dyn MultidimIndex,
    rows: &[&PendingRow],
    rebuild: bool,
    build: impl FnOnce(&Dataset, &[RowId]) -> Box<dyn MultidimIndex>,
) -> Box<dyn MultidimIndex> {
    if !rebuild {
        let columns =
            (0..part.dims()).map(|d| rows.iter().map(|r| r.values[d]).collect()).collect();
        let ids: Vec<RowId> = rows.iter().map(|r| r.id).collect();
        if let Some(absorbed) = part.absorbed(&Dataset::new(columns), &ids) {
            return absorbed;
        }
    }
    let (dataset, ids) = gather(part, rows.iter().copied());
    build(&dataset, &ids)
}

/// Every entry of `index`, then every `extra` row, gathered once in that
/// order, beside their ids: the rows each rebuild from stored rows starts
/// from (the refit, and a partition the fold cannot absorb into).
fn gather<'a>(
    index: &dyn MultidimIndex,
    extra: impl ExactSizeIterator<Item = &'a PendingRow>,
) -> (Dataset, Vec<RowId>) {
    let n = index.len() + extra.len();
    let mut columns: Vec<Vec<Value>> =
        (0..index.dims()).map(|_| Vec::with_capacity(n)).collect();
    let mut ids = Vec::with_capacity(n);
    let mut push = |id: RowId, row: &[Value]| {
        ids.push(id);
        for (col, &v) in columns.iter_mut().zip(row) {
            col.push(v);
        }
    };
    index.for_each_entry(&mut push);
    extra.for_each(|r| push(r.id, &r.values));
    (Dataset::new(columns), ids)
}

/// Grid resolution that puts roughly `32` rows in each cell of a
/// `grid_dims`-dimensional directory, clamped to `[1, max]`.
fn adaptive_cells_per_dim(rows: usize, grid_dims: usize, max: usize) -> usize {
    if grid_dims == 0 {
        return 1;
    }
    let target_cells = (rows as f64 / 32.0).max(1.0);
    let k = target_cells.powf(1.0 / grid_dims as f64).round() as usize;
    k.clamp(1, max.max(1))
}

/// Picks the primary index's sorted attribute: explicit override, else the
/// first group's predictor, else the first indexed attribute, else none.
fn resolve_sort_dim(
    requested: Option<usize>,
    discovery: &Discovery,
    indexed: &[usize],
) -> Option<usize> {
    if let Some(sd) = requested {
        assert!(
            indexed.contains(&sd),
            "sort_dim {sd} is not an indexed attribute (indexed: {indexed:?})"
        );
        return Some(sd);
    }
    discovery.groups.first().map(|g| g.predictor).or_else(|| indexed.first().copied())
}

/// Rebuild-time model refresh: linear models take their line from the
/// posterior and their margins from the full current residuals; spline
/// models keep their shape (re-discover to re-fit them).
fn refresh_group(
    group: &CorrelationGroup,
    discovery: &Discovery,
    posteriors: &[Option<BayesianLinReg>],
    dataset: &Dataset,
    epsilon: EpsilonPolicy,
) -> CorrelationGroup {
    // Posteriors are stored in discovery's model iteration order.
    let order: Vec<&FdModel> = discovery.all_models().collect();
    let models = group
        .models
        .iter()
        .map(|m| {
            let Some(lin) = m.as_linear() else {
                return m.clone();
            };
            let idx = order
                .iter()
                .position(|o| o.predictor() == lin.predictor && o.dependent() == lin.dependent)
                // coax-analyze: allow(panic-free-library, refresh_group is called with the same discovery order the models were built from — a missing entry is a construction bug, not a runtime input)
                .expect("model present in discovery");
            let params =
                posteriors[idx].as_ref().and_then(BayesianLinReg::params).unwrap_or(lin.params);
            let residuals: Vec<Value> = dataset
                .column(lin.predictor)
                .iter()
                .zip(dataset.column(lin.dependent))
                .map(|(&x, &y)| y - params.predict(x))
                .collect();
            let (lb, ub) = epsilon.compute(&residuals);
            SoftFdModel::new(lin.predictor, lin.dependent, params, lb, ub).into()
        })
        .collect();
    CorrelationGroup { predictor: group.predictor, models }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardedHandle, ShardedSnapshot};
    use coax_data::synth::{
        Generator, PlantedConfig, PlantedDependent, PlantedGroup, UniformConfig,
    };
    use coax_data::workload::{knn_rectangle_queries, point_queries};
    use coax_index::FullScan;

    fn planted_dataset(rows: usize, seed: u64) -> Dataset {
        PlantedConfig {
            rows,
            groups: vec![PlantedGroup {
                x_range: (0.0, 1000.0),
                dependents: vec![PlantedDependent {
                    slope: 2.0,
                    intercept: 25.0,
                    noise_sigma: 4.0,
                }],
                outlier_fraction: 0.08,
                outlier_offset_sigmas: 25.0,
            }],
            independent: vec![(0.0, 100.0)],
            seed,
        }
        .generate()
    }

    fn assert_exact(index: &CoaxIndex, ds: &Dataset, queries: &[RangeQuery]) {
        assert_exact_over(index, &FullScan::build(ds), queries);
    }

    /// `index` answers every query exactly like `fs`, which holds the
    /// same rows under the same ids.
    fn assert_exact_over(index: &CoaxIndex, fs: &FullScan, queries: &[RangeQuery]) {
        for q in queries {
            let mut expected = fs.range_query(q);
            let mut got = index.range_query(q);
            expected.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expected, "query {q:?}");
        }
    }

    #[test]
    fn exact_results_on_planted_data() {
        let ds = planted_dataset(8000, 1);
        let index = CoaxIndex::build(&ds, &CoaxConfig::default());
        assert!(!index.groups().is_empty(), "dependency must be discovered");
        let mut queries = knn_rectangle_queries(&ds, 15, 50, 2);
        queries.extend(point_queries(&ds, 15, 3));
        assert_exact(&index, &ds, &queries);
    }

    #[test]
    fn dependent_dimension_is_not_indexed() {
        let ds = planted_dataset(8000, 4);
        let index = CoaxIndex::build(&ds, &CoaxConfig::default());
        let dependents = index.discovery().dependent_dims();
        assert_eq!(dependents, vec![1]);
        assert_eq!(index.indexed_dims(), vec![0, 2]);
        // n − m − 1 directory dims: 3 attrs, 1 predicted, 1 sorted → 1.
        assert_eq!(index.sort_dim(), Some(0));
    }

    #[test]
    fn primary_ratio_tracks_planted_outliers() {
        let ds = planted_dataset(20_000, 5);
        let index = CoaxIndex::build(&ds, &CoaxConfig::default());
        let ratio = index.primary_ratio();
        assert!(
            (ratio - 0.92).abs() < 0.03,
            "8 % planted outliers → ~0.92 primary ratio, got {ratio}"
        );
        assert_eq!(index.primary_len() + index.outlier_len(), ds.len());
    }

    #[test]
    fn queries_on_dependent_attribute_use_translation() {
        let ds = planted_dataset(20_000, 6);
        let index = CoaxIndex::build(&ds, &CoaxConfig::default());
        // Constrain only the dependent attribute.
        let mut q = RangeQuery::unbounded(3);
        q.constrain(1, 500.0, 600.0);
        let nav = index.translate_query(&q);
        assert!(nav.lo(0) > f64::NEG_INFINITY, "translation must bound the predictor");
        assert!(nav.hi(0) < f64::INFINITY);
        // And the results are still exact.
        assert_exact(&index, &ds, &[q]);
    }

    #[test]
    fn translation_reduces_scanned_rows() {
        let ds = planted_dataset(20_000, 7);
        let index = CoaxIndex::build(&ds, &CoaxConfig::default());
        let mut q = RangeQuery::unbounded(3);
        q.constrain(1, 500.0, 540.0);
        let mut out = Vec::new();
        let stats = index.query_detailed(&q, &mut out);
        // Without translation the primary index would have to scan every
        // row (no indexed dim is constrained). With it, only the band.
        assert!(
            stats.primary.rows_examined < index.primary_len() / 4,
            "examined {} of {}",
            stats.primary.rows_examined,
            index.primary_len()
        );
        assert_eq!(stats.flatten().matches, out.len());
    }

    #[test]
    fn no_correlation_degrades_gracefully() {
        let ds = UniformConfig::cube(3, 5000, 8).generate();
        let index = CoaxIndex::build(&ds, &CoaxConfig::default());
        assert!(index.groups().is_empty());
        assert_eq!(index.outlier_len(), 0, "no models → nothing is an outlier");
        assert_eq!(index.primary_ratio(), 1.0);
        let queries = knn_rectangle_queries(&ds, 10, 40, 9);
        assert_exact(&index, &ds, &queries);
    }

    #[test]
    fn one_hundred_percent_outliers_still_exact() {
        // Hand a discovery whose margins contain nothing.
        let ds = UniformConfig::cube(2, 2000, 10).generate();
        let model = SoftFdModel::new(
            0,
            1,
            crate::regression::LinParams { slope: 1.0, intercept: 100.0 },
            0.0,
            0.0,
        );
        let discovery = Discovery {
            groups: vec![CorrelationGroup { predictor: 0, models: vec![model.into()] }],
            dims: 2,
        };
        let index = CoaxIndex::build_with_discovery(&ds, discovery, &CoaxConfig::default());
        assert_eq!(index.primary_len(), 0);
        assert_eq!(index.outlier_len(), 2000);
        let queries = knn_rectangle_queries(&ds, 8, 30, 11);
        assert_exact(&index, &ds, &queries);
    }

    /// A one-shard service over `ds` under `config`, with `row` inserted
    /// and refit into the next epoch: a snapshot of the successor, which
    /// must hold `expected_len` rows and serve `row` under the first
    /// inserted id.
    fn insert_and_refit(
        ds: &Dataset,
        config: &CoaxConfig,
        row: &[Value],
        expected_len: usize,
    ) -> ShardedSnapshot {
        let first_new = ds.len();
        let service = ShardedHandle::build(ds, config);
        assert_eq!(service.insert(row), Ok(first_new as RowId));
        service.shard_handle(0).refit();
        let rebuilt = service.snapshot();
        assert_eq!(rebuilt.shard(0).pending_len(), 0);
        assert_eq!(rebuilt.shard(0).frozen().len(), expected_len);
        assert!(rebuilt
            .shard(0)
            .frozen()
            .range_query(&RangeQuery::point(row))
            .iter()
            .any(|&id| id as usize == first_new));
        rebuilt
    }

    #[test]
    fn insert_routes_and_queries_see_pending() {
        let ds = planted_dataset(5000, 12);
        let service = ShardedHandle::build(&ds, &CoaxConfig::default());
        let model = service.snapshot().shard(0).frozen().groups()[0].models[0].clone();
        // An in-band row and a gross outlier.
        let x = 500.0;
        let in_band = vec![x, model.predict(x), 50.0];
        let off_band = vec![x, model.predict(x) + 100.0 * model.margin_width(), 50.0];
        let id1 = service.insert(&in_band).unwrap();
        let id2 = service.insert(&off_band).unwrap();
        assert_eq!(id1 as usize, ds.len());
        assert_eq!(service.pending_len(), 2);
        let hits = service.range_query(&RangeQuery::point(&in_band));
        assert!(hits.contains(&id1));
        let hits = service.range_query(&RangeQuery::point(&off_band));
        assert!(hits.contains(&id2));
    }

    #[test]
    fn insert_validation() {
        let ds = planted_dataset(1000, 13);
        let service = ShardedHandle::build(&ds, &CoaxConfig::default());
        assert_eq!(
            service.insert(&[1.0]),
            Err(InsertError::WrongArity { expected: 3, got: 1 })
        );
        assert_eq!(service.insert(&[1.0, f64::NAN, 2.0]), Err(InsertError::NonFinite));
    }

    #[test]
    fn rebuild_folds_pending_and_stays_exact() {
        let ds = planted_dataset(5000, 14);
        let service = ShardedHandle::build(&ds, &CoaxConfig::default());
        let model = service.snapshot().shard(0).frozen().groups()[0].models[0].clone();
        // Insert 200 new in-band rows and 20 outliers.
        for i in 0..220 {
            let x = (i as f64 * 4.3) % 1000.0;
            let y = if i % 11 == 0 {
                model.predict(x) + 50.0 * model.margin_width()
            } else {
                model.predict(x)
            };
            service.insert(&[x, y, 42.0]).unwrap();
        }
        service.shard_handle(0).refit();
        let snapshot = service.snapshot();
        let rebuilt = snapshot.shard(0).frozen();
        assert_eq!(snapshot.shard(0).pending_len(), 0);
        assert_eq!(rebuilt.len(), ds.len() + 220);
        // The rebuilt index answers exactly like a linear scan over the
        // reconstructed data.
        let (all, ids) = gather(rebuilt, std::iter::empty());
        let queries = knn_rectangle_queries(&all, 10, 40, 15);
        let fs = FullScan::build_with_ids(&all, &ids);
        for q in &queries {
            let mut expected = fs.range_query(q);
            let mut got = rebuilt.range_query(q);
            expected.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn rebuild_preserves_row_ids() {
        let ds = planted_dataset(3000, 16);
        let service = ShardedHandle::build(&ds, &CoaxConfig::default());
        let q = RangeQuery::point(&ds.row(77));
        let before = service.snapshot().shard(0).frozen().range_query(&q);
        service.insert(&[1.0, 1.0, 1.0]).unwrap();
        service.shard_handle(0).refit();
        let after = service.snapshot().shard(0).frozen().range_query(&q);
        assert_eq!(before, after, "row ids must survive a rebuild");
    }

    #[test]
    fn curved_dependency_uses_spline_and_stays_exact() {
        // y = (x − 500)²/250 + N(0, 3): no single line passes the gates,
        // so discovery must fall back to the spline family (§7.2/§9).
        use coax_data::stats::sample_normal;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let n = 20_000;
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        let mut zs = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..1000.0);
            xs.push(x);
            ys.push((x - 500.0f64).powi(2) / 250.0 + sample_normal(&mut rng, 0.0, 3.0));
            zs.push(rng.gen_range(0.0..100.0));
        }
        let ds = Dataset::new(vec![xs, ys, zs]);
        let index = CoaxIndex::build(&ds, &CoaxConfig::default());

        assert_eq!(index.groups().len(), 1, "groups: {:?}", index.groups());
        let model = &index.groups()[0].models[0];
        assert!(model.as_spline().is_some(), "curved FD needs a spline: {model:?}");
        assert_eq!(index.discovery().dependent_dims(), vec![1]);

        // Exactness on mixed workloads.
        let mut queries = knn_rectangle_queries(&ds, 10, 50, 100);
        let mut dep_only = RangeQuery::unbounded(3);
        dep_only.constrain(1, 100.0, 160.0); // two disconnected x bands
        queries.push(dep_only.clone());
        assert_exact(&index, &ds, &queries);

        // Translation bounds the predictor even through the curve.
        let nav = index.translate_query(&dep_only);
        assert!(nav.lo(0) > f64::NEG_INFINITY && nav.hi(0) < f64::INFINITY);
        let mut out = Vec::new();
        let stats = index.query_primary(&dep_only, &mut out);
        assert!(
            stats.rows_examined < index.primary_len(),
            "spline translation must prune: {} of {}",
            stats.rows_examined,
            index.primary_len()
        );

        // Inserts still route through the spline's contains(): the fold
        // sends each row where its insert-time verdict put it.
        let (primary_len, outlier_len) = (index.primary_len(), index.outlier_len());
        let service = ShardedHandle::build(&ds, &CoaxConfig::default());
        let on_curve = vec![300.0, (300.0f64 - 500.0).powi(2) / 250.0, 5.0];
        let off_curve = vec![300.0, 1000.0, 5.0];
        service.insert(&on_curve).unwrap();
        service.insert(&off_curve).unwrap();
        service.shard_handle(0).fold();
        let folded = service.snapshot();
        assert_eq!(folded.shard(0).frozen().primary_len(), primary_len + 1);
        assert_eq!(folded.shard(0).frozen().outlier_len(), outlier_len + 1);
        // Rebuild keeps the frozen spline and stays exact.
        service.shard_handle(0).refit();
        let snapshot = service.snapshot();
        let rebuilt = snapshot.shard(0).frozen();
        assert!(rebuilt.groups()[0].models[0].as_spline().is_some());
        assert!(rebuilt
            .range_query(&RangeQuery::point(&on_curve))
            .iter()
            .any(|&id| id as usize >= n));
    }

    #[test]
    fn memory_overhead_sums_parts() {
        let ds = planted_dataset(4000, 17);
        let index = CoaxIndex::build(&ds, &CoaxConfig::default());
        assert!(index.memory_overhead() >= index.primary_overhead() + index.outlier_overhead());
        assert!(index.primary_overhead() > 0);
    }

    #[test]
    fn rtree_outlier_backend_is_exact_and_pluggable() {
        let ds = planted_dataset(10_000, 30);
        let grid_cfg = CoaxConfig::default();
        let rtree_cfg = CoaxConfig {
            outlier_backend: OutlierBackend::RTree { capacity: 10 },
            ..Default::default()
        };
        let with_grid = CoaxIndex::build(&ds, &grid_cfg);
        let with_rtree = CoaxIndex::build(&ds, &rtree_cfg);
        assert_eq!(with_grid.outlier_len(), with_rtree.outlier_len());

        let mut queries = knn_rectangle_queries(&ds, 10, 60, 31);
        queries.extend(point_queries(&ds, 10, 32));
        for q in &queries {
            let mut a = with_grid.range_query(q);
            let mut b = with_rtree.range_query(q);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "backends must agree on {q:?}");
        }
        assert_exact(&with_rtree, &ds, &queries);

        // Rebuild works through the R-tree backend too (entry iteration).
        insert_and_refit(&ds, &rtree_cfg, &[1.0, 27.0, 3.0], ds.len() + 1);
    }

    #[test]
    fn custom_outlier_backends_are_exact_and_rebuildable() {
        use coax_index::BackendSpec;
        let ds = planted_dataset(6000, 33);
        let queries = {
            let mut qs = knn_rectangle_queries(&ds, 8, 40, 34);
            qs.extend(point_queries(&ds, 8, 35));
            qs
        };
        // Any substrate can hold the outlier partition via the factory —
        // including ones the convenience variants never pick.
        for spec in [
            BackendSpec::FullScan,
            BackendSpec::UniformGrid { cells_per_dim: 4 },
            BackendSpec::ColumnFiles { cells_per_dim: 3, sort_dim: None },
        ] {
            let cfg = CoaxConfig {
                outlier_backend: OutlierBackend::Custom(spec),
                ..Default::default()
            };
            let index = CoaxIndex::build(&ds, &cfg);
            assert!(index.outlier_len() > 0, "planted outliers expected");
            assert_exact(&index, &ds, &queries);
            // Rebuild must work through the trait's entry iteration for
            // whatever structure backs the outliers.
            insert_and_refit(&ds, &cfg, &[2.0, 29.0, 4.0], ds.len() + 1);
        }
    }

    #[test]
    fn primary_backends_are_pluggable_and_exact() {
        use coax_index::BackendSpec;
        let ds = planted_dataset(8000, 40);
        let queries = {
            let mut qs = knn_rectangle_queries(&ds, 8, 40, 41);
            qs.extend(point_queries(&ds, 8, 42));
            qs
        };
        for (primary, name) in [
            (PrimaryBackend::RTree { capacity: 10 }, "r-tree"),
            (
                PrimaryBackend::Custom(BackendSpec::UniformGrid { cells_per_dim: 4 }),
                "full-grid",
            ),
            (PrimaryBackend::Custom(BackendSpec::FullScan), "full-scan"),
            (
                PrimaryBackend::Custom(BackendSpec::ColumnFiles {
                    cells_per_dim: 4,
                    sort_dim: None,
                }),
                "column-files",
            ),
        ] {
            let cfg = CoaxConfig { primary_backend: primary, ..Default::default() };
            let index = CoaxIndex::build(&ds, &cfg);
            assert_eq!(index.primary_index().name(), name);
            assert!(index.primary_len() > 0);
            assert_exact(&index, &ds, &queries);
            // Insert + rebuild must work through the trait's entry
            // iteration for whatever structure backs the primary.
            insert_and_refit(&ds, &cfg, &[3.0, 31.0, 5.0], ds.len() + 1);
        }
    }

    #[test]
    fn translation_still_prunes_with_custom_primary() {
        use coax_index::BackendSpec;
        // A non-grid primary has no fused nav/filter path; the trait
        // default probes with nav ∩ filter, so a dependent-only query
        // must still be pruned down to the translated predictor band.
        let cfg = CoaxConfig {
            primary_backend: PrimaryBackend::Custom(BackendSpec::UniformGrid {
                cells_per_dim: 8,
            }),
            ..Default::default()
        };
        let ds = planted_dataset(20_000, 43);
        let index = CoaxIndex::build(&ds, &cfg);
        let mut q = RangeQuery::unbounded(3);
        q.constrain(1, 500.0, 540.0);
        let mut out = Vec::new();
        let stats = index.query_detailed(&q, &mut out);
        assert!(
            stats.primary.rows_examined < index.primary_len() / 4,
            "examined {} of {}",
            stats.primary.rows_examined,
            index.primary_len()
        );
        assert_eq!(stats.flatten().matches, out.len());
    }

    #[test]
    fn coax_over_coax_primary_composes() {
        let ds = planted_dataset(9000, 44);
        let cfg = CoaxConfig {
            primary_backend: PrimaryBackend::Coax(Box::default()),
            ..Default::default()
        };
        let index = CoaxIndex::build(&ds, &cfg);
        assert_eq!(index.primary_index().name(), "coax");
        let mut queries = knn_rectangle_queries(&ds, 10, 50, 45);
        queries.extend(point_queries(&ds, 10, 46));
        assert_exact(&index, &ds, &queries);
        // The composition survives inserts + rebuild.
        let snapshot = insert_and_refit(&ds, &cfg, &[4.0, 33.0, 6.0], ds.len() + 1);
        let rebuilt = snapshot.shard(0).frozen();
        assert_eq!(rebuilt.primary_index().name(), "coax");
        let (all, ids) = gather(rebuilt, std::iter::empty());
        assert_exact_over(rebuilt, &FullScan::build_with_ids(&all, &ids), &queries);
    }

    #[test]
    fn point_query_routes_through_the_plan() {
        // Regression (exec invariant): point queries must run the same
        // translate → probe → merge sequence as the equivalent degenerate
        // rectangle — identical results *and* identical ScanStats.
        let ds = planted_dataset(10_000, 47);
        let check = |index: &dyn MultidimIndex| {
            for r in [0u32, 123, 4567, 9999] {
                let row = ds.row(r);
                let mut point_out = Vec::new();
                let point_stats = index.point_query_stats(&row, &mut point_out);
                let mut rect_out = Vec::new();
                let rect_stats =
                    index.range_query_stats(&RangeQuery::point(&row), &mut rect_out);
                assert_eq!(point_stats, rect_stats, "stats diverged on row {r}");
                point_out.sort_unstable();
                rect_out.sort_unstable();
                assert_eq!(point_out, rect_out);
                assert!(point_out.contains(&r));
            }
        };
        let index = CoaxIndex::build(&ds, &CoaxConfig::default());
        check(&index);
        // Overlay rows count too.
        let service = ShardedHandle::build(&ds, &CoaxConfig::default());
        service.insert(&[5.0, 35.0, 7.0]).unwrap();
        check(&service);
    }

    #[test]
    fn empty_dataset_builds() {
        let ds = Dataset::new(vec![vec![], vec![]]);
        let index = CoaxIndex::build(&ds, &CoaxConfig::default());
        assert!(index.is_empty());
        assert!(index.range_query(&RangeQuery::unbounded(2)).is_empty());
    }

    #[test]
    #[should_panic(expected = "not an indexed attribute")]
    fn sort_dim_must_be_indexed() {
        let ds = planted_dataset(5000, 18);
        // Discover first so we know dim 1 is dependent.
        let cfg = CoaxConfig { sort_dim: Some(1), ..Default::default() };
        CoaxIndex::build(&ds, &cfg);
    }
}
