//! The shared query-execution layer.
//!
//! Every COAX query — single, batched, via the trait, or via the
//! part-level reporting methods — runs the same three-step sequence over
//! a frozen epoch:
//!
//! 1. **plan** the user query into a [`QueryPlan`]: disjoint navigation
//!    rectangles for the primary index (Eq. 2, multi-interval for
//!    non-monotone splines) plus the original query as the exact filter,
//!    and the partitions a match can live in. A query that pins every
//!    model's pair to one point (§8.2.1's point query) is decided from
//!    the point alone: its matches sit in the primary iff every model
//!    contains the point, so it probes exactly one partition and needs no
//!    translation;
//! 2. **probe the primary** index with each navigation rectangle,
//!    filtering rows against the original query;
//! 3. **probe the outlier** index with the original query (margins mean
//!    nothing to outliers), unless the plan ruled the outliers out. Both
//!    partitions store and emit the rows' own ids, so results
//!    concatenate with no id translation.
//!
//! The materialized executor, the plan cursor and the batch engine all
//! read the one plan, so they skip the same probes and report the same
//! [`ScanStats`]. A query's span marks only the phases that ran: a
//! translation, a probe of at least one non-empty navigation rectangle,
//! an outlier probe the plan kept. A skipped step reads no clock and
//! records no sample, so its time (none, or the pin check) counts toward
//! the next phase that runs.
//!
//! The plan borrows the caller's query, and a point's plan navigates
//! the primary with that query itself, so a point query allocates
//! nothing on its way through the executor.
//!
//! Rows inserted since the epoch was built live in the overlay of its
//! shard ([`crate::maint::IndexHandle`]), which the shard's live read and
//! its snapshot view scan before this sequence runs.
//!
//! Keeping this sequence in one place is what lets
//! [`CoaxIndex`] be *just another backend* behind
//! [`MultidimIndex`]: the trait methods, the batch path, and the
//! figure-generating part-level timings all execute identical code, so
//! their results are identical by construction (asserted by the
//! `exec_batch` integration tests).
//!
//! # The batch engine
//!
//! A batch runs the same executor as a single query; it saves only the
//! work a per-query loop would repeat. One engine (`run_batch`) serves
//! every surface — a bare index, a snapshot, a sharded snapshot —
//! materialized through `collect_batch` or streamed through
//! `stream_batch`:
//!
//! 1. the batch is **deduplicated** — value-equal queries (bounds
//!    compared bitwise) collapse onto their first copy;
//! 2. each distinct query is answered once by the surface's own
//!    single-query path without a per-query span (on an epoch: planned,
//!    so translated exactly once, then executed), and its result is
//!    handed to every copy of the query;
//! 3. distinct queries are grouped into contiguous **chunks** that run
//!    on the exec pool sized by [`ExecConfig`].
//!
//! # The pool
//!
//! One worker pool (`run_pool`) carries every parallel query path in the
//! crate: the batch engine, scoped or on the one thread a detached
//! [`BatchStream`] spawns, and the single-query shard fan-out of
//! [`crate::shard`]:
//!
//! ```text
//!   calling thread                          workers (std::thread::scope)
//!   ──────────────                          ────────────────────────────
//!   run_pool(threads, tasks, task, sink)    loop {
//!     threads ≤ 1: for i { sink(i, task(i)) }   i = next.fetch_add(1)
//!     else: spawn workers ───────────────▶      tx.send((i, task(i)))
//!           for (i, r) in rx ◀── bounded ──   }   // stops when rx drops
//!               sink(i, r)  // false = cancel
//! ```
//!
//! No extra dependency, and probing itself is lock-free (every
//! [`MultidimIndex`] is `Send + Sync`): workers claim tasks off an atomic
//! counter and each finished task crosses back through a bounded channel,
//! so a slow consumer applies backpressure and a dropped consumer cancels
//! the rest. At one thread — the default [`ExecConfig`] — the pool is a
//! plain loop with no channel and no allocation.
//!
//! None of this changes a single answer: per-query ids (in order) and
//! [`ScanStats`] are **identical** to the sequential loop by
//! construction — each distinct query runs the loop's own executor, a
//! duplicate receives a copy of a deterministic result, and chunking or
//! threading only reorders *which* query executes when
//! (`crates/core/tests/exec_batch.rs` sweeps thread counts, chunk sizes
//! and duplicate-heavy batches against the sequential loop).
//!
//! [`MultidimIndex`]: coax_index::MultidimIndex

use crate::discovery::CorrelationGroup;
use crate::index::{CoaxIndex, CoaxQueryStats};
use crate::obs::{Obs, QueryPhase, QuerySpan};
use crate::translate::translate_all;
use coax_data::{RangeQuery, RowId};
use coax_index::{CursorSource, DistinctQueries, QueryResult, RowCursor, ScanStats};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;

/// Upper bound on how many disjoint navigation rectangles one query may
/// fan out into (non-monotone spline inversions); beyond it, translation
/// falls back to the bounding interval (sound, just less tight).
pub const NAV_FAN_OUT_CAP: usize = 8;

/// A translated, ready-to-execute COAX query.
///
/// Produced once per query by [`CoaxIndex::plan`]; executing it any
/// number of times performs no further translation work — the batch path
/// plans every query up front and then executes the plans. The plan
/// borrows the caller's query as its filter; [`QueryPlan::into_owned`]
/// gives a plan that outlives it (the plan cursor keeps one).
///
/// The plan also decides which partitions a match can live in, so every
/// executor — materialized, cursor, batch — probes
/// the same ones. A query **pins** a model when it sets `lo == hi` on
/// both the model's predictor and its dependent. A row is primary iff
/// every model contains its `(x, y)` pair (the build's split, an
/// insert's margin verdict, kept by a fold and re-taken by a refit), and
/// a query that pins every model matches only rows with exactly its
/// pairs, so all its matches sit in one partition:
///
/// * every model contains its pair: the primary alone, navigated with
///   the query itself — no translation, no outlier probe;
/// * some model rejects its pair: the outliers alone — no primary probe;
/// * any model left unpinned: both, through [`translate_all`].
///
/// With no models every query pins them all vacuously: nothing is ever
/// split off, the outlier partition stays empty and is never probed.
#[derive(Clone, Debug)]
pub struct QueryPlan<'q> {
    /// Navigation rectangles for the primary index: `None` navigates
    /// with the filter itself (a point every model contains), `Some`
    /// holds what translation left — empty when no in-margin row can
    /// match.
    navs: Option<Vec<RangeQuery>>,
    /// The original query: the exact filter for every partition.
    filter: Cow<'q, RangeQuery>,
    /// Whether the outlier partition can hold a match (`false` only for
    /// a query whose pinned pairs every model contains).
    outliers: bool,
    /// Whether planning ran [`translate_all`]. Not the same as `navs`
    /// being `Some`: a point some model rejects holds an empty `Some`
    /// without translating.
    translated: bool,
}

impl<'q> QueryPlan<'q> {
    /// Plans `query` against the discovered correlation groups: decides
    /// the partitions a match can live in, and translates the query when
    /// that takes more than its pinned pairs.
    pub fn new(query: &'q RangeQuery, groups: &[CorrelationGroup]) -> Self {
        Self::recorded(query, groups, &Obs::default())
    }

    /// [`QueryPlan::new`], recording the time of a translation it runs
    /// on `obs` as one [`QueryPhase::Translate`] sample: a plan that
    /// does not translate reads no clock and records nothing.
    pub(crate) fn recorded(
        query: &'q RangeQuery,
        groups: &[CorrelationGroup],
        obs: &Obs,
    ) -> Self {
        let models = || groups.iter().flat_map(|g| &g.models);
        let pinned = |d: usize| query.lo(d) == query.hi(d);
        let translated = !models().all(|m| pinned(m.predictor()) && pinned(m.dependent()));
        let (navs, outliers) = if translated {
            let started = obs.timer();
            let navs = translate_all(query, groups, NAV_FAN_OUT_CAP);
            obs.record_phase(QueryPhase::Translate, started);
            (Some(navs), true)
        } else if models().all(|m| m.contains(query.lo(m.predictor()), query.lo(m.dependent())))
        {
            (None, false)
        } else {
            (Some(Vec::new()), true)
        };
        Self { navs, filter: Cow::Borrowed(query), outliers, translated }
    }

    /// This plan holding its own copy of the query, free of the borrow.
    pub fn into_owned(self) -> QueryPlan<'static> {
        QueryPlan { filter: Cow::Owned(self.filter.into_owned()), ..self }
    }

    /// The navigation rectangles the primary probe will use.
    pub fn navs(&self) -> &[RangeQuery] {
        self.navs.as_deref().unwrap_or(std::slice::from_ref(self.filter()))
    }

    /// The original query (exact filter for all partitions).
    pub fn filter(&self) -> &RangeQuery {
        &self.filter
    }

    /// `true` if the plan proved the primary partition holds no match
    /// (the primary probe will be skipped entirely).
    pub fn primary_pruned(&self) -> bool {
        self.navs().iter().all(RangeQuery::is_empty)
    }

    /// `true` if the plan proved the outlier partition holds no match
    /// (the outlier probe will be skipped entirely).
    pub fn outliers_pruned(&self) -> bool {
        !self.outliers
    }
}

/// Step 2: probes the primary backend with every non-empty navigation
/// rectangle (trait-level filtered probe: navigate with `nav`, accept
/// against the original filter), marking [`QueryPhase::PrimaryProbe`] on
/// `span` if it probed any.
pub(crate) fn probe_primary(
    index: &CoaxIndex,
    plan: &QueryPlan<'_>,
    out: &mut Vec<RowId>,
    span: &mut QuerySpan<'_>,
) -> ScanStats {
    let mut stats = ScanStats::default();
    let mut probed = false;
    for nav in plan.navs().iter().filter(|nav| !nav.is_empty()) {
        stats = stats.merge(index.primary.range_query_filtered(nav, plan.filter(), out));
        probed = true;
    }
    if probed {
        span.phase(QueryPhase::PrimaryProbe);
    }
    stats
}

/// Runs a full plan: primary probe, then outlier probe where the plan
/// says a match can live, with per-part counters. Marks each phase that
/// ran on the caller's `span`, which the caller finishes.
pub(crate) fn execute(
    index: &CoaxIndex,
    plan: &QueryPlan<'_>,
    out: &mut Vec<RowId>,
    span: &mut QuerySpan<'_>,
) -> CoaxQueryStats {
    let primary = probe_primary(index, plan, out, span);
    let outliers = if plan.outliers {
        let stats = index.outliers.range_query_stats(plan.filter(), out);
        span.phase(QueryPhase::OutlierProbe);
        stats
    } else {
        ScanStats::default()
    };
    CoaxQueryStats { primary, outliers }
}

/// Steps 1–3 for one query: plans `query` (a translation marked on
/// `span` as [`QueryPhase::Translate`]) and runs the plan through
/// [`execute`]. The one-query path of every entry point that opens a
/// span.
pub(crate) fn execute_query(
    index: &CoaxIndex,
    query: &RangeQuery,
    out: &mut Vec<RowId>,
    span: &mut QuerySpan<'_>,
) -> CoaxQueryStats {
    let plan = QueryPlan::new(query, &index.discovery.groups);
    if plan.translated {
        span.phase(QueryPhase::Translate);
    }
    execute(index, &plan, out, span)
}

/// Answers one query of a batch with no per-query span: planned (a
/// translation recorded once) and executed — the ids, order and stats a
/// single query returns, appended to `out`.
pub(crate) fn answer_batched(
    index: &CoaxIndex,
    query: &RangeQuery,
    out: &mut Vec<RowId>,
) -> ScanStats {
    execute(index, &index.plan(query), out, &mut QuerySpan::disabled()).flatten()
}

/// Streaming counterpart of [`execute`]: a [`RowCursor`] that chains the
/// primary probe (one sub-cursor per navigation rectangle) and the
/// outlier probe when the plan keeps it — in exactly the order
/// [`execute`] appends them, with the same counters, so collecting the
/// cursor reproduces the materialized call bit for bit. First results
/// leave as soon as the primary backend's own cursor produces its first
/// populated chunk.
pub(crate) fn plan_cursor<'a>(index: &'a CoaxIndex, plan: QueryPlan<'a>) -> RowCursor<'a> {
    RowCursor::new(Box::new(PlanCursor {
        index,
        plan,
        stage: PlanStage::Primary { nav_idx: 0, cursor: None },
    }))
}

/// Where a [`PlanCursor`] currently is in the exec sequence.
enum PlanStage<'a> {
    /// Probing the primary with navigation rectangle `nav_idx` (the
    /// sub-cursor is created lazily so translation-pruned navs cost
    /// nothing).
    Primary { nav_idx: usize, cursor: Option<RowCursor<'a>> },
    /// Probing the outlier index with the original filter.
    Outliers { cursor: Option<RowCursor<'a>> },
    /// Every part exhausted.
    Done,
}

/// The incremental exec sequence behind [`plan_cursor`].
struct PlanCursor<'a> {
    index: &'a CoaxIndex,
    plan: QueryPlan<'a>,
    stage: PlanStage<'a>,
}

/// Pulls one chunk from `cursor` into `out` and merges the chunk's
/// counter delta. `false` when the sub-cursor is exhausted.
pub(crate) fn forward_chunk(
    cursor: &mut RowCursor<'_>,
    out: &mut Vec<RowId>,
    stats: &mut ScanStats,
) -> bool {
    let before = cursor.stats();
    let produced = match cursor.next_chunk() {
        Some(chunk) => {
            out.extend_from_slice(chunk);
            true
        }
        // Exhaustion may still have folded trailing empty-chunk counters
        // (visited cells with no match) into the cursor.
        None => false,
    };
    *stats = stats.merge(cursor.stats().since(before));
    produced
}

impl CursorSource for PlanCursor<'_> {
    fn next_chunk(&mut self, out: &mut Vec<RowId>, stats: &mut ScanStats) -> bool {
        loop {
            match &mut self.stage {
                PlanStage::Primary { nav_idx, cursor } => {
                    if let Some(cur) = cursor {
                        if forward_chunk(cur, out, stats) {
                            return true;
                        }
                        *cursor = None;
                        *nav_idx += 1;
                    }
                    // Find the next non-empty navigation rectangle, as
                    // `probe_primary` does.
                    match self.plan.navs()[*nav_idx..].iter().position(|n| !n.is_empty()) {
                        Some(skip) => {
                            *nav_idx += skip;
                            let nav = &self.plan.navs()[*nav_idx];
                            *cursor = Some(
                                self.index
                                    .primary
                                    .range_query_filtered_cursor(nav, self.plan.filter()),
                            );
                        }
                        None if self.plan.outliers => {
                            self.stage = PlanStage::Outliers { cursor: None };
                        }
                        None => self.stage = PlanStage::Done,
                    }
                }
                PlanStage::Outliers { cursor } => {
                    let cur = cursor.get_or_insert_with(|| {
                        self.index.outliers.range_query_cursor(self.plan.filter())
                    });
                    if forward_chunk(cur, out, stats) {
                        return true;
                    }
                    self.stage = PlanStage::Done;
                }
                PlanStage::Done => return false,
            }
        }
    }
}

/// Batch-execution knobs: how many workers the pool may run and how a
/// batch is chunked.
///
/// Carried in [`CoaxConfig::exec`](crate::CoaxConfig) — and therefore in
/// every [`IndexSpec`](crate::IndexSpec) describing a COAX index — so the
/// trait-level `batch_query` picks the policy up with no extra plumbing;
/// [`CoaxIndex::batch_query_with`] overrides it per call (the bench
/// ladders sweep thread counts over one built index that way). A
/// [`ShardedHandle`](crate::ShardedHandle) sizes its single-query shard
/// fan-out by the same `batch_threads`.
///
/// Whatever the knobs, per-query results and [`ScanStats`] are identical
/// to the sequential loop; the configuration only decides how many cores
/// a query or batch runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads of the exec pool, for batches and the shard
    /// fan-out. `0` means one per available core
    /// ([`std::thread::available_parallelism`]); `1` (the default) keeps
    /// the work on the calling thread.
    pub batch_threads: usize,
    /// Batches with fewer distinct queries than this stay on the calling
    /// thread even when `batch_threads` allows more — thread spawn costs
    /// more than a handful of queries. Default 32.
    pub min_parallel_batch: usize,
    /// Distinct queries per worker chunk; `0` (the default) sizes chunks
    /// automatically (whole batch when single-threaded, else ~4 chunks
    /// per worker for load balance).
    pub chunk_size: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self { batch_threads: 1, min_parallel_batch: 32, chunk_size: 0 }
    }
}

impl ExecConfig {
    /// The parallel preset: one worker per available core, automatic
    /// chunking.
    pub fn parallel() -> Self {
        Self { batch_threads: 0, ..Self::default() }
    }

    /// This configuration with an explicit worker count (`0` = one per
    /// core).
    pub fn with_threads(self, batch_threads: usize) -> Self {
        Self { batch_threads, ..self }
    }

    /// Workers a batch of `batch_len` distinct queries will actually use.
    pub fn resolve_threads(&self, batch_len: usize) -> usize {
        if batch_len < self.min_parallel_batch.max(2) {
            return 1;
        }
        self.pool_threads(batch_len)
    }

    /// Workers for `tasks` tasks that are each worth a thread, with no
    /// `min_parallel_batch` floor — the shard fan-out, where a single
    /// query still spreads across shards: `batch_threads` (`0` = one per
    /// core), at most one per task.
    pub(crate) fn pool_threads(&self, tasks: usize) -> usize {
        let requested = match self.batch_threads {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            n => n,
        };
        requested.clamp(1, tasks.max(1))
    }

    /// Distinct queries per chunk for a batch of `batch_len` distinct
    /// queries on `threads` workers. An explicit [`ExecConfig::chunk_size`]
    /// wins; otherwise ≈4 chunks per worker with a floor of 8 queries. A
    /// materialized batch on one thread is one chunk; a stream never is,
    /// because its first chunk's completion is its time-to-first-result.
    fn resolve_chunk(&self, batch_len: usize, threads: usize, streaming: bool) -> usize {
        if self.chunk_size > 0 {
            return self.chunk_size;
        }
        if threads <= 1 && !streaming {
            return batch_len.max(1);
        }
        batch_len.div_ceil(threads.max(1) * 4).max(8)
    }
}

/// The worker pool every parallel query path runs on: task `i` in
/// `0..tasks` runs as `task(i)`, and `sink` receives each `(i, result)`
/// on the calling thread, returning `false` to cancel the rest. On one
/// thread (or for one task) it is a plain loop in task order, with no
/// channel and no allocation. Otherwise scoped workers claim tasks off
/// an atomic counter and hand results back through a bounded channel as
/// they complete; a cancelling sink drops the receiver, so each worker
/// stops at its next send, and a worker panic reaches the caller when
/// the scope joins.
pub(crate) fn run_pool<R: Send>(
    threads: usize,
    tasks: usize,
    task: impl Fn(usize) -> R + Sync,
    mut sink: impl FnMut(usize, R) -> bool,
) {
    if threads <= 1 || tasks <= 1 {
        for i in 0..tasks {
            if !sink(i, task(i)) {
                return;
            }
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::sync_channel(threads);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(tasks) {
            let (tx, next, task) = (tx.clone(), &next, &task);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tasks || tx.send((i, task(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, result) in rx {
            if !sink(i, result) {
                break;
            }
        }
    });
}

/// Runs a deduplicated batch on the pool: each task answers one chunk
/// of consecutive distinct queries — `answer(query, ids)` appends a
/// distinct query's ids — and records it on `obs`; each result reaches
/// every copy of its query through `sink` on the calling thread (in
/// order of first appearance on one thread). Chunks are sized for a
/// `streaming` or a collecting `sink`, which returns `false` to cancel.
/// Journals one `batch_pool` event.
fn run_batch(
    queries: &[RangeQuery],
    distinct: &DistinctQueries,
    config: &ExecConfig,
    streaming: bool,
    obs: &Obs,
    answer: impl Fn(&RangeQuery, &mut Vec<RowId>) -> ScanStats + Sync,
    mut sink: impl FnMut(usize, QueryResult) -> bool,
) {
    let started = obs.timer();
    let n = distinct.len();
    let threads = config.resolve_threads(n);
    let chunk = config.resolve_chunk(n, threads, streaming);
    let chunks = n.div_ceil(chunk);
    let range = |i: usize| i * chunk..((i + 1) * chunk).min(n);
    let task = |i: usize| {
        let timer = obs.timer();
        let results: Vec<QueryResult> = range(i)
            .map(|d| {
                let mut ids = Vec::new();
                let stats = answer(&queries[distinct.first(d)], &mut ids);
                QueryResult { ids, stats }
            })
            .collect();
        obs.record_chunk(timer, distinct.answered(range(i)));
        results
    };
    run_pool(threads, chunks, task, |i, results| {
        for (d, result) in range(i).zip(results) {
            for (qi, copy) in distinct.hand_out(d, result) {
                if !sink(qi, copy) {
                    return false;
                }
            }
        }
        true
    });
    obs.record_batch_pool(|| {
        let us =
            started.map_or(0, |t| t.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        let queries = distinct.batch_len();
        format!("chunks={chunks} queries={queries} threads={threads} wall_us={us}")
    });
}

/// A materialized batch: deduplicated once, each distinct query answered
/// by `answer(query, ids)` in chunks on the pool sized by `config`, one
/// result per query in query order.
pub(crate) fn collect_batch(
    queries: &[RangeQuery],
    config: &ExecConfig,
    obs: &Obs,
    answer: impl Fn(&RangeQuery, &mut Vec<RowId>) -> ScanStats + Sync,
) -> Vec<QueryResult> {
    let mut results = vec![QueryResult::default(); queries.len()];
    let distinct = DistinctQueries::new(queries);
    run_batch(queries, &distinct, config, false, obs, answer, |qi, result| {
        results[qi] = result;
        true
    });
    results
}

/// A streamed batch, deduplicated as `distinct`: per-query results flow
/// to `sink` as their chunk completes, instead of arriving all at once
/// when the slowest chunk finishes, and the first delivery records
/// time-to-first-result on `obs`.
///
/// `sink` receives `(query_index, QueryResult)` pairs: in order of first
/// appearance when the batch stays on the calling thread (a query's
/// duplicates arrive right after its first copy), chunk by chunk in
/// completion order when chunks fan out over the pool, whose bounded
/// channel lets a slow consumer apply backpressure; it returns `false`
/// to cancel. Every query is delivered exactly once, each result
/// identical to [`collect_batch`]'s at that index. Chunks are sized for
/// latency (never the whole batch unless [`ExecConfig::chunk_size`] says
/// so): time-to-first-result is one chunk's work.
pub(crate) fn stream_batch(
    queries: &[RangeQuery],
    distinct: &DistinctQueries,
    config: &ExecConfig,
    obs: &Obs,
    answer: impl Fn(&RangeQuery, &mut Vec<RowId>) -> ScanStats + Sync,
    mut sink: impl FnMut(usize, QueryResult) -> bool,
) {
    let mut ttfr = obs.timer();
    run_batch(queries, distinct, config, true, obs, answer, |qi, result| {
        obs.record_ttfr(ttfr.take());
        sink(qi, result)
    });
}

/// A live stream of batch results: an iterator over
/// `(query_index, QueryResult)` pairs arriving in completion order,
/// through a bounded channel, as the exec pool finishes chunks.
///
/// The stream type of the service's read session
/// ([`crate::ShardedSnapshot`]): one spawned thread runs the batch
/// engine's streaming run over the snapshot's `Arc`-owned state. Every
/// query of the batch is delivered exactly once, each result identical
/// to the materialized `batch_query` at that index; dropping the stream
/// early cancels the remaining work.
///
/// # Panics
///
/// [`Iterator::next`] panics if the pool died before delivering every
/// query — results are missing, and truncating the stream quietly would
/// break the exactly-once contract. This mirrors the scoped
/// [`CoaxIndex::batch_query_streaming`] surface, where a worker panic
/// propagates to the caller.
#[derive(Debug)]
pub struct BatchStream {
    rx: Receiver<(usize, QueryResult)>,
    remaining: usize,
    /// Recorder of the spawning surface; tracks channel depth.
    obs: Obs,
}

impl BatchStream {
    /// [`stream_batch`] on a spawned thread: the batch is deduplicated
    /// here, then the thread runs it on the pool — translation happens
    /// inside the tasks, so first results do not wait for the whole batch
    /// — and sends each copy's result through a channel bounded at a
    /// couple of chunks per worker, counting it on `obs`'s depth gauge.
    pub(crate) fn spawn(
        queries: &[RangeQuery],
        config: ExecConfig,
        obs: Obs,
        answer: impl Fn(&RangeQuery, &mut Vec<RowId>) -> ScanStats + Send + Sync + 'static,
    ) -> BatchStream {
        let distinct = DistinctQueries::new(queries);
        let threads = config.resolve_threads(distinct.len());
        let chunk = config.resolve_chunk(distinct.len(), threads, true);
        let (tx, rx) = std::sync::mpsc::sync_channel((2 * chunk * threads).clamp(16, 4096));
        if !distinct.is_empty() {
            let (queries, obs) = (queries.to_vec(), obs.clone());
            std::thread::spawn(move || {
                stream_batch(&queries, &distinct, &config, &obs, answer, |qi, result| {
                    obs.stream_depth_add(1);
                    // A dropped BatchStream cancels the remaining work.
                    let sent = tx.send((qi, result)).is_ok();
                    if !sent {
                        obs.stream_depth_sub(1);
                    }
                    sent
                });
            });
        }
        BatchStream { rx, remaining: queries.len(), obs }
    }

    /// Results not yet yielded.
    pub fn remaining(&self) -> usize {
        self.remaining
    }
}

impl Iterator for BatchStream {
    type Item = (usize, QueryResult);

    fn next(&mut self) -> Option<(usize, QueryResult)> {
        if self.remaining == 0 {
            return None;
        }
        match self.rx.recv() {
            Ok(item) => {
                self.remaining -= 1;
                self.obs.stream_depth_sub(1);
                Some(item)
            }
            // The sender is gone with results still owed: the pool died
            // mid-batch. Surface the loss instead of truncating.
            // coax-analyze: allow(panic-free-library, a dead pool means owed results are gone for good — ending the iterator here would silently truncate the batch)
            Err(_) => panic!(
                "batch stream lost {} result(s): a worker thread panicked mid-batch",
                self.remaining
            ),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.remaining))
    }
}
