//! Runtime observability: metrics registry, query-lifecycle spans and
//! the maintenance event journal.
//!
//! The layer has three export shapes and one recording surface:
//!
//! * [`MetricsRegistry`] — process-wide named counters / gauges /
//!   log-bucketed latency histograms ([`LatencyHistogram`]), registered
//!   once, recorded into through cheap cloned handles (at most one
//!   atomic add per counter record, two per histogram record).
//! * [`QuerySpan`] — per-phase timing of one shard query (overlay scan →
//!   translate → primary probe → outlier probe), opened where the query
//!   enters and recorded once when it finishes. It reads the clock once
//!   at its start and once per phase that ran, at most five times; a
//!   phase that did no work records no sample. A point query, which
//!   translates nothing and probes one partition, reads the clock twice
//!   with an empty overlay and typically makes six atomic adds; any
//!   shard query makes at most fifteen.
//! * [`EventJournal`] — a bounded ring of structural events: epoch
//!   publishes, fold-vs-refit decisions with their
//!   [`crate::maint::DriftReport`] scores, overlay copy-on-write
//!   promotions, batch-pool completions.
//!
//! Recording goes through an [`Obs`] recorder carried by `CoaxIndex`,
//! each `IndexHandle` shard and the `ShardedHandle` service (configured
//! via [`ObsConfig`] in
//! [`crate::CoaxConfig`]). A disabled recorder is a `None` — every
//! record call is one branch, no clock reads, no atomics — and
//! instrumentation never touches query results: the equivalence suite
//! pins obs-on output bit-identical to obs-off.
//!
//! Export: [`snapshot`] gathers every metric plus the journal into a
//! [`MetricsSnapshot`], which serializes through the bench harness's
//! `JsonReport` (`--metrics <path>` on the `maint`/`batch` bins) and
//! renders Prometheus text exposition via
//! [`MetricsSnapshot::render_prometheus`].

mod histogram;
mod journal;
mod registry;
mod span;

pub use histogram::{bucket_of, HistogramSnapshot, HistogramSummary, LatencyHistogram};
pub use journal::{clock_us, Event, EventJournal, JOURNAL_CAPACITY};
pub use registry::{
    is_valid_metric_name, Counter, Gauge, MetricKind, MetricSample, MetricsRegistry,
    MetricsSnapshot,
};
pub use span::{QueryPhase, QuerySpan};

use std::sync::Arc;
use std::time::Instant;

/// Observability switch carried in [`crate::CoaxConfig`]. Default is
/// **on** (a query on one shard reads the clock once plus once per phase
/// that ran, at most five times, and makes at most fifteen atomic adds;
/// a point query with an empty overlay reads it twice); construct with
/// [`ObsConfig::disabled`] to compile every record call down to a single
/// `None` check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// `true` to record metrics, spans and journal events.
    pub enabled: bool,
    /// Shard label for every metric, span and journal event this
    /// recorder emits. `None` (the default) records into the unlabelled
    /// process-wide series. [`crate::shard::ShardedHandle`] labels shard
    /// `s`'s recorder `shard.unwrap_or(0) + s` (saturating), so
    /// per-shard latency and epoch series stay separable in the export:
    /// an unlabelled service's shards record under 0 to N−1, and a
    /// labelled one-shard service under its own label.
    pub shard: Option<u32>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { enabled: true, shard: None }
    }
}

impl ObsConfig {
    /// A no-op recorder configuration: nothing is timed, counted or
    /// journaled, and [`Obs::timer`] never reads the clock.
    pub fn disabled() -> Self {
        ObsConfig { enabled: false, shard: None }
    }

    /// The same configuration with the shard label set.
    pub fn for_shard(self, shard: u32) -> Self {
        ObsConfig { shard: Some(shard), ..self }
    }
}

/// Every pre-registered handle the recorder touches on hot paths.
/// Built once per [`Obs::new`]; all instances share the process-wide
/// cells because registration is idempotent by name.
#[derive(Debug)]
pub(crate) struct ObsHandles {
    // Per-query counters (fed by `QuerySpan::finish`).
    pub(crate) query_count: Counter,
    pub(crate) query_rows_examined: Counter,
    pub(crate) query_cells_visited: Counter,
    pub(crate) query_scanned_pending: Counter,
    pub(crate) query_matches: Counter,
    // Batch engine.
    batch_chunks: Counter,
    batch_queries: Counter,
    // Handle write path.
    insert_count: Counter,
    insert_out_of_margin: Counter,
    overlay_cow_copies: Counter,
    // Maintenance loop.
    maint_ticks: Counter,
    maint_folds: Counter,
    maint_refits: Counter,
    epoch_publishes: Counter,
    // Gauges.
    epoch_current: Gauge,
    overlay_rows: Gauge,
    stream_queue_depth: Gauge,
    // Histograms.
    pub(crate) query_latency_us: Arc<LatencyHistogram>,
    translate_us: Arc<LatencyHistogram>,
    primary_probe_us: Arc<LatencyHistogram>,
    outlier_probe_us: Arc<LatencyHistogram>,
    pending_scan_us: Arc<LatencyHistogram>,
    batch_chunk_us: Arc<LatencyHistogram>,
    batch_ttfr_us: Arc<LatencyHistogram>,
    insert_latency_us: Arc<LatencyHistogram>,
    maint_fold_us: Arc<LatencyHistogram>,
    maint_refit_us: Arc<LatencyHistogram>,
}

impl ObsHandles {
    fn new(reg: &MetricsRegistry, shard: Option<u32>) -> Self {
        ObsHandles {
            query_count: reg.counter_shard("coax.query.count", shard),
            query_rows_examined: reg.counter_shard("coax.query.rows_examined", shard),
            query_cells_visited: reg.counter_shard("coax.query.cells_visited", shard),
            query_scanned_pending: reg.counter_shard("coax.query.scanned_pending", shard),
            query_matches: reg.counter_shard("coax.query.matches", shard),
            batch_chunks: reg.counter_shard("coax.batch.chunks", shard),
            batch_queries: reg.counter_shard("coax.batch.queries", shard),
            insert_count: reg.counter_shard("coax.insert.count", shard),
            insert_out_of_margin: reg.counter_shard("coax.insert.out_of_margin", shard),
            overlay_cow_copies: reg.counter_shard("coax.overlay.cow_copies", shard),
            maint_ticks: reg.counter_shard("coax.maint.ticks", shard),
            maint_folds: reg.counter_shard("coax.maint.folds", shard),
            maint_refits: reg.counter_shard("coax.maint.refits", shard),
            epoch_publishes: reg.counter_shard("coax.epoch.publishes", shard),
            epoch_current: reg.gauge_shard("coax.epoch.current", shard),
            overlay_rows: reg.gauge_shard("coax.overlay.rows", shard),
            stream_queue_depth: reg.gauge_shard("coax.stream.queue_depth", shard),
            query_latency_us: reg.histogram_shard("coax.query.latency_us", shard),
            translate_us: reg.histogram_shard("coax.query.translate_us", shard),
            primary_probe_us: reg.histogram_shard("coax.query.primary_probe_us", shard),
            outlier_probe_us: reg.histogram_shard("coax.query.outlier_probe_us", shard),
            pending_scan_us: reg.histogram_shard("coax.query.pending_scan_us", shard),
            batch_chunk_us: reg.histogram_shard("coax.batch.chunk_us", shard),
            batch_ttfr_us: reg.histogram_shard("coax.batch.ttfr_us", shard),
            insert_latency_us: reg.histogram_shard("coax.insert.latency_us", shard),
            maint_fold_us: reg.histogram_shard("coax.maint.fold_us", shard),
            maint_refit_us: reg.histogram_shard("coax.maint.refit_us", shard),
        }
    }

    pub(crate) fn phase_histogram(&self, phase: QueryPhase) -> &LatencyHistogram {
        match phase {
            QueryPhase::Translate => &self.translate_us,
            QueryPhase::PrimaryProbe => &self.primary_probe_us,
            QueryPhase::OutlierProbe => &self.outlier_probe_us,
            QueryPhase::PendingScan => &self.pending_scan_us,
        }
    }
}

/// The recorder carried by `CoaxIndex`, `IndexHandle` and the service: a
/// cheap-clone handle bundle when enabled, a `None` when off. Every
/// method below is a no-op on a disabled recorder.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    inner: Option<Arc<ObsHandles>>,
    shard: Option<u32>,
}

impl Obs {
    /// Builds a recorder for `config`, registering (or re-opening) the
    /// full metric set in the process-wide registry when enabled. When
    /// [`ObsConfig::shard`] is set, every cell is the shard-labelled
    /// series and every journal detail is prefixed `shard=<k>`.
    pub fn new(config: &ObsConfig) -> Self {
        if !config.enabled {
            return Obs { inner: None, shard: None };
        }
        Obs {
            inner: Some(Arc::new(ObsHandles::new(MetricsRegistry::global(), config.shard))),
            shard: config.shard,
        }
    }

    /// `true` when this recorder actually records.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The shard label this recorder tags everything with (`None` for
    /// the unlabelled process-wide recorder).
    pub fn shard(&self) -> Option<u32> {
        self.shard
    }

    /// `detail` with the `shard=<k>` attribution prefix when this is a
    /// shard's recorder, so every journal entry is attributable.
    fn tag(&self, detail: String) -> String {
        match self.shard {
            Some(k) => format!("shard={k} {detail}"),
            None => detail,
        }
    }

    /// Reads the clock — only when enabled, so disabled recorders pay
    /// no syscall. Pass the result back into the `record_*` methods.
    pub fn timer(&self) -> Option<Instant> {
        self.inner.as_ref().map(|_| Instant::now())
    }

    /// Starts a query-lifecycle span tagged with the current epoch and
    /// this recorder's shard label, borrowing the recorder's handles.
    pub fn query_span(&self) -> QuerySpan<'_> {
        match &self.inner {
            Some(h) => QuerySpan::started(h, h.epoch_current.get(), self.shard),
            None => QuerySpan::disabled(),
        }
    }

    /// Records a phase slice outside a span: the translation of a plan
    /// built on its own ([`crate::CoaxIndex::plan`], used by the batch
    /// and cursor paths), timed around `translate_all` alone.
    pub fn record_phase(&self, phase: QueryPhase, started: Option<Instant>) {
        if let (Some(h), Some(t)) = (&self.inner, started) {
            h.phase_histogram(phase).record_duration(t.elapsed());
        }
    }

    /// Records one insert: latency plus the in-margin / out-of-margin
    /// routing decision.
    pub fn record_insert(&self, started: Option<Instant>, in_margins: bool) {
        if let Some(h) = &self.inner {
            if let Some(t) = started {
                h.insert_latency_us.record_duration(t.elapsed());
            }
            h.insert_count.inc();
            if !in_margins {
                h.insert_out_of_margin.inc();
            }
        }
    }

    /// Journals an overlay copy-on-write promotion (a snapshot held the
    /// overlay while a writer appended, forcing a clone of `rows` rows).
    pub fn record_overlay_cow(&self, rows: usize) {
        if let Some(h) = &self.inner {
            h.overlay_cow_copies.inc();
            EventJournal::global()
                .push("overlay_cow", self.tag(format!("cloned {rows} overlay rows")));
        }
    }

    /// Updates the overlay-size gauge.
    pub fn set_overlay_rows(&self, rows: usize) {
        if let Some(h) = &self.inner {
            h.overlay_rows.set(rows as u64);
        }
    }

    /// Records an epoch publish: bumps the epoch gauge and publish /
    /// fold / refit counters, records the rebuild latency, journals the
    /// event with the lazily-built `detail` line.
    pub fn record_epoch_publish(
        &self,
        epoch: u64,
        refit: bool,
        started: Option<Instant>,
        detail: impl FnOnce() -> String,
    ) {
        if let Some(h) = &self.inner {
            h.epoch_current.set(epoch);
            h.epoch_publishes.inc();
            let hist = if refit { &h.maint_refit_us } else { &h.maint_fold_us };
            if refit {
                h.maint_refits.inc();
            } else {
                h.maint_folds.inc();
            }
            if let Some(t) = started {
                hist.record_duration(t.elapsed());
            }
            EventJournal::global().push("epoch_publish", self.tag(detail()));
        }
    }

    /// Records one maintainer poll/decide cycle and journals the
    /// decision with its triggering drift scores.
    pub fn record_maint_tick(&self, detail: impl FnOnce() -> String) {
        if let Some(h) = &self.inner {
            h.maint_ticks.inc();
            EventJournal::global().push("maint_decision", self.tag(detail()));
        }
    }

    /// Records one executed batch chunk answering `queries` queries.
    pub fn record_chunk(&self, started: Option<Instant>, queries: usize) {
        if let Some(h) = &self.inner {
            if let Some(t) = started {
                h.batch_chunk_us.record_duration(t.elapsed());
            }
            h.batch_chunks.inc();
            h.batch_queries.add(queries as u64);
        }
    }

    /// Records time-to-first-result for a streaming batch.
    pub fn record_ttfr(&self, started: Option<Instant>) {
        if let (Some(h), Some(t)) = (&self.inner, started) {
            h.batch_ttfr_us.record_duration(t.elapsed());
        }
    }

    /// Journals a batch-pool completion (chunk/query/thread counts).
    pub fn record_batch_pool(&self, detail: impl FnOnce() -> String) {
        if self.inner.is_some() {
            EventJournal::global().push("batch_pool", self.tag(detail()));
        }
    }

    /// Bumps the streaming queue-depth gauge (a chunk entered the
    /// channel).
    pub fn stream_depth_add(&self, n: usize) {
        if let Some(h) = &self.inner {
            h.stream_queue_depth.add(n as u64);
        }
    }

    /// Drops the streaming queue-depth gauge (a chunk left the channel).
    pub fn stream_depth_sub(&self, n: usize) {
        if let Some(h) = &self.inner {
            h.stream_queue_depth.sub(n as u64);
        }
    }
}

/// Gathers every registered metric and the event journal into one
/// export unit.
pub fn snapshot() -> MetricsSnapshot {
    let mut samples = MetricsRegistry::global().snapshot();
    samples.sort_by(|a, b| (&a.name, a.shard).cmp(&(&b.name, b.shard)));
    MetricsSnapshot { samples, events: EventJournal::global().events() }
}
