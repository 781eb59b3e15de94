//! The shared query-execution layer.
//!
//! Every COAX query — single, batched, via the trait, or via the
//! part-level reporting methods — runs the same four-step sequence:
//!
//! 1. **translate** the user query into a [`QueryPlan`]: disjoint
//!    navigation rectangles for the primary index (Eq. 2, multi-interval
//!    for non-monotone splines) plus the original query as the exact
//!    filter;
//! 2. **probe the primary** index with each navigation rectangle,
//!    filtering rows against the original query;
//! 3. **probe the outlier** index with the original query (margins mean
//!    nothing to outliers);
//! 4. **merge**: map local row ids back to dataset ids, linearly scan the
//!    pending-insert buffer, and sum the per-part counters.
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
//! work a per-query loop would repeat:
//!
//! 1. [`BatchPlan::new`] **deduplicates** the batch — value-equal
//!    queries (bounds compared bitwise) collapse onto their first copy —
//!    and translates each distinct query exactly once;
//! 2. each distinct plan runs the single-query sequence above (primary
//!    → outlier → pending, the code [`CoaxIndex::execute_plan`] runs,
//!    without a per-query span), and its result is handed to every copy
//!    of the query;
//! 3. distinct plans are grouped into contiguous **chunks** that execute
//!    on a [`std::thread::scope`] worker pool sized by [`ExecConfig`] —
//!    no extra dependency, and probing itself is lock-free (every
//!    [`MultidimIndex`] is `Send + Sync`, workers claim chunks off an
//!    atomic counter, and a mutex is taken only to hand a finished
//!    chunk's results back).
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};

/// Upper bound on how many disjoint navigation rectangles one query may
/// fan out into (non-monotone spline inversions); beyond it, translation
/// falls back to the bounding interval (sound, just less tight).
pub const NAV_FAN_OUT_CAP: usize = 8;

/// A translated, ready-to-execute COAX query.
///
/// Produced once per query by [`CoaxIndex::plan`]; executing it any
/// number of times performs no further translation work — the batch path
/// plans every query up front and then executes the plans.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// Disjoint navigation rectangles for the primary index. Empty means
    /// translation proved no in-margin row can match.
    navs: Vec<RangeQuery>,
    /// The original query: the exact filter for every partition.
    filter: RangeQuery,
}

impl QueryPlan {
    /// Translates `query` against the discovered correlation groups.
    pub fn new(query: &RangeQuery, groups: &[CorrelationGroup]) -> Self {
        Self { navs: translate_all(query, groups, NAV_FAN_OUT_CAP), filter: query.clone() }
    }

    /// The navigation rectangles the primary probe will use.
    pub fn navs(&self) -> &[RangeQuery] {
        &self.navs
    }

    /// The original query (exact filter for all partitions).
    pub fn filter(&self) -> &RangeQuery {
        &self.filter
    }

    /// `true` if translation proved the primary partition holds no match
    /// (the primary probe will be skipped entirely).
    pub fn primary_pruned(&self) -> bool {
        self.navs.iter().all(RangeQuery::is_empty)
    }
}

/// Remaps backend-local row ids (the trait contract: ids in
/// `0..index.len()`) to dataset row ids through `table`.
///
/// The debug assertion pins the [`MultidimIndex`] id contract at the one
/// place a violation would otherwise corrupt results silently: a custom
/// backend emitting anything but local ids either trips this assert
/// (debug builds) or panics on the table lookup (release) — it can never
/// alias another partition's rows.
///
/// [`MultidimIndex`]: coax_index::MultidimIndex
pub(crate) fn remap_local_ids(ids: &mut [RowId], table: &[RowId], backend: &str) {
    for id in ids {
        debug_assert!(
            (*id as usize) < table.len(),
            "backend '{backend}' emitted out-of-range local row id {id} (partition holds {} \
             rows) — MultidimIndex implementations must emit local ids in 0..len()",
            table.len(),
        );
        *id = table[*id as usize];
    }
}

/// Step 2: probes the primary backend with every navigation rectangle
/// (trait-level filtered probe: navigate with `nav`, accept against the
/// original filter) and maps local ids back to dataset row ids.
pub(crate) fn probe_primary(
    index: &CoaxIndex,
    plan: &QueryPlan,
    out: &mut Vec<RowId>,
) -> ScanStats {
    let from = out.len();
    let mut stats = ScanStats::default();
    for nav in &plan.navs {
        if nav.is_empty() {
            continue;
        }
        stats = stats.merge(index.primary.range_query_filtered(nav, &plan.filter, out));
    }
    remap_local_ids(&mut out[from..], &index.primary_ids, index.primary.name());
    stats
}

/// Step 3: probes the outlier backend with the original query and maps
/// local ids back to dataset row ids.
pub(crate) fn probe_outliers(
    index: &CoaxIndex,
    filter: &RangeQuery,
    out: &mut Vec<RowId>,
) -> ScanStats {
    let from = out.len();
    let stats = index.outliers.range_query_stats(filter, out);
    remap_local_ids(&mut out[from..], &index.outlier_ids, index.outliers.name());
    stats
}

/// Step 4 (pending part): linearly scans the buffered inserts.
/// Returns `(examined, matched)`.
pub(crate) fn scan_pending(
    index: &CoaxIndex,
    filter: &RangeQuery,
    out: &mut Vec<RowId>,
) -> (usize, usize) {
    let mut examined = 0;
    let mut matched = 0;
    for p in &index.pending {
        examined += 1;
        if filter.matches(&p.values) {
            out.push(p.id);
            matched += 1;
        }
    }
    (examined, matched)
}

/// Runs a full plan: primary probe, outlier probe, pending scan, merged
/// per-part counters. Marks each phase on the caller's `span`, which the
/// caller finishes.
pub(crate) fn execute(
    index: &CoaxIndex,
    plan: &QueryPlan,
    out: &mut Vec<RowId>,
    span: &mut QuerySpan<'_>,
) -> CoaxQueryStats {
    let mut stats =
        CoaxQueryStats { primary: probe_primary(index, plan, out), ..Default::default() };
    span.phase(QueryPhase::PrimaryProbe);
    stats.outliers = probe_outliers(index, plan.filter(), out);
    span.phase(QueryPhase::OutlierProbe);
    let (examined, matched) = scan_pending(index, plan.filter(), out);
    span.phase(QueryPhase::PendingScan);
    stats.pending_examined = examined;
    stats.pending_matches = matched;
    stats
}

/// Steps 1–4 for one query: translates `query` (marked on `span` as
/// [`QueryPhase::Translate`]) and runs the plan through [`execute`].
/// The one-query path of every entry point that opens a span.
pub(crate) fn execute_query(
    index: &CoaxIndex,
    query: &RangeQuery,
    out: &mut Vec<RowId>,
    span: &mut QuerySpan<'_>,
) -> CoaxQueryStats {
    let plan = QueryPlan::new(query, &index.discovery.groups);
    span.phase(QueryPhase::Translate);
    execute(index, &plan, out, span)
}

/// Streaming counterpart of [`execute`]: a [`RowCursor`] that chains the
/// primary probe (one sub-cursor per navigation rectangle, local ids
/// remapped chunk by chunk), the outlier probe, and the pending-buffer
/// scan — in exactly the order [`execute`] appends them, with the same
/// counters, so collecting the cursor reproduces the materialized call
/// bit for bit. First results leave as soon as the primary backend's own
/// cursor produces its first populated chunk.
pub(crate) fn plan_cursor(index: &CoaxIndex, plan: QueryPlan) -> RowCursor<'_> {
    RowCursor::new(Box::new(PlanCursor {
        index,
        plan,
        stage: PlanStage::Primary { nav_idx: 0, cursor: None },
    }))
}

/// Where a [`PlanCursor`] currently is in the four-step exec sequence.
enum PlanStage<'a> {
    /// Probing the primary with navigation rectangle `nav_idx` (the
    /// sub-cursor is created lazily so translation-pruned navs cost
    /// nothing).
    Primary { nav_idx: usize, cursor: Option<RowCursor<'a>> },
    /// Probing the outlier index with the original filter.
    Outliers { cursor: Option<RowCursor<'a>> },
    /// Scanning the pending-insert buffer (one final chunk).
    Pending,
    /// Every part exhausted.
    Done,
}

/// The incremental exec sequence behind [`plan_cursor`].
struct PlanCursor<'a> {
    index: &'a CoaxIndex,
    plan: QueryPlan,
    stage: PlanStage<'a>,
}

impl PlanCursor<'_> {
    /// Pulls one chunk from `cursor`, remaps its local ids through
    /// `table`, and merges the chunk's counter delta. `false` when the
    /// sub-cursor is exhausted.
    fn forward_chunk(
        cursor: &mut RowCursor<'_>,
        table: &[RowId],
        backend: &str,
        out: &mut Vec<RowId>,
        stats: &mut ScanStats,
    ) -> bool {
        let before = cursor.stats();
        let from = out.len();
        let Some(chunk) = cursor.next_chunk() else {
            // Exhaustion may still have folded trailing empty-chunk
            // counters (visited cells with no match) into the cursor.
            *stats = stats.merge(cursor.stats().since(before));
            return false;
        };
        out.extend_from_slice(chunk);
        remap_local_ids(&mut out[from..], table, backend);
        *stats = stats.merge(cursor.stats().since(before));
        true
    }
}

impl CursorSource for PlanCursor<'_> {
    fn next_chunk(&mut self, out: &mut Vec<RowId>, stats: &mut ScanStats) -> bool {
        loop {
            match &mut self.stage {
                PlanStage::Primary { nav_idx, cursor } => {
                    if let Some(cur) = cursor {
                        if PlanCursor::forward_chunk(
                            cur,
                            &self.index.primary_ids,
                            self.index.primary.name(),
                            out,
                            stats,
                        ) {
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
                        None => {
                            self.stage = PlanStage::Outliers { cursor: None };
                        }
                    }
                }
                PlanStage::Outliers { cursor } => {
                    let cur = cursor.get_or_insert_with(|| {
                        self.index.outliers.range_query_cursor(self.plan.filter())
                    });
                    if PlanCursor::forward_chunk(
                        cur,
                        &self.index.outlier_ids,
                        self.index.outliers.name(),
                        out,
                        stats,
                    ) {
                        return true;
                    }
                    self.stage = PlanStage::Pending;
                }
                PlanStage::Pending => {
                    let (examined, matched) = scan_pending(self.index, self.plan.filter(), out);
                    stats.scanned_pending += examined;
                    stats.matches += matched;
                    self.stage = PlanStage::Done;
                    return true;
                }
                PlanStage::Done => return false,
            }
        }
    }
}

/// Batch-execution knobs: how many workers a batch may fan out over and
/// how it is chunked.
///
/// Carried in [`CoaxConfig::exec`](crate::CoaxConfig) — and therefore in
/// every [`IndexSpec`](crate::IndexSpec) describing a COAX index — so the
/// trait-level `batch_query` picks the policy up with no extra plumbing;
/// [`CoaxIndex::batch_query_with`] overrides it per call (the bench
/// ladders sweep thread counts over one built index that way).
///
/// Whatever the knobs, per-query results and [`ScanStats`] are identical
/// to the sequential loop; the configuration only decides how many cores
/// the batch runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads for batch execution. `0` means one per available
    /// core ([`std::thread::available_parallelism`]); `1` (the default)
    /// keeps the batch on the calling thread.
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
        let requested = match self.batch_threads {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            n => n,
        };
        requested.clamp(1, batch_len)
    }

    /// Distinct queries per chunk for a batch of `batch_len` distinct
    /// queries on `threads` workers.
    fn resolve_chunk(&self, batch_len: usize, threads: usize) -> usize {
        if self.chunk_size > 0 {
            return self.chunk_size;
        }
        if threads <= 1 {
            return batch_len.max(1);
        }
        // ~4 chunks per worker: enough slack for uneven queries.
        (batch_len.div_ceil(threads * 4)).max(8)
    }
}

/// Splits `0..len` into consecutive ranges of `chunk` (≥ 1) items.
fn chunk_ranges(len: usize, chunk: usize) -> Vec<std::ops::Range<usize>> {
    let chunk = chunk.max(1);
    (0..len).step_by(chunk).map(|s| s..(s + chunk).min(len)).collect()
}

/// Runs each plan through [`execute`] — the single-query sequence, with
/// no per-query span — and records the chunk (`answered` counts the
/// batch queries the plans answer, duplicates included).
fn execute_chunk(index: &CoaxIndex, plans: &[QueryPlan], answered: usize) -> Vec<QueryResult> {
    let chunk_timer = index.obs.timer();
    let results = plans
        .iter()
        .map(|plan| {
            let mut ids = Vec::new();
            let stats = execute(index, plan, &mut ids, &mut QuerySpan::disabled()).flatten();
            QueryResult { ids, stats }
        })
        .collect();
    index.obs.record_chunk(chunk_timer, answered);
    results
}

/// A whole query batch, deduplicated and translated once, ready to
/// execute any number of times.
///
/// Construction performs **all** per-query planning: value-equal queries
/// (bounds compared bitwise) collapse onto their first copy, and each
/// distinct query is translated once. Execution runs every distinct plan
/// through the single-query executor ([`CoaxIndex::execute_plan`]'s
/// primary → outlier → pending sequence) in chunks over the configured
/// worker pool and hands each result to the query's copies. Results are
/// in query order and identical to the sequential loop by construction.
#[derive(Clone, Debug)]
pub struct BatchPlan {
    /// One plan per distinct query, in order of first appearance.
    plans: Vec<QueryPlan>,
    /// The batch positions each distinct plan answers.
    distinct: DistinctQueries,
}

impl BatchPlan {
    /// Deduplicates the batch and translates each distinct query against
    /// `index`'s discovered correlation groups, in one pass.
    pub fn new(index: &CoaxIndex, queries: &[RangeQuery]) -> Self {
        let distinct = DistinctQueries::new(queries);
        let plans =
            (0..distinct.len()).map(|d| index.plan(&queries[distinct.first(d)])).collect();
        Self { plans, distinct }
    }

    /// Number of queries in the batch, duplicates included.
    pub fn len(&self) -> usize {
        self.distinct.batch_len()
    }

    /// `true` if the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The distinct queries' plans, in order of first appearance.
    pub fn plans(&self) -> &[QueryPlan] {
        &self.plans
    }

    /// Executes the distinct plans in `range` (one chunk).
    fn execute_range(
        &self,
        index: &CoaxIndex,
        range: std::ops::Range<usize>,
    ) -> Vec<QueryResult> {
        execute_chunk(index, &self.plans[range.clone()], self.distinct.answered(range))
    }

    /// Executes the batch against `index` under `config`, returning one
    /// [`QueryResult`] per query in query order.
    ///
    /// `index` must be the index the batch was planned against (plans
    /// embed its translation; executing them elsewhere answers the wrong
    /// question).
    pub fn execute(&self, index: &CoaxIndex, config: &ExecConfig) -> Vec<QueryResult> {
        let n = self.plans.len();
        let threads = config.resolve_threads(n);
        let ranges = chunk_ranges(n, config.resolve_chunk(n, threads));
        let pool_timer = index.obs.timer();
        let mut results = vec![QueryResult::default(); self.len()];
        let mut scatter = |start: usize, chunk: Vec<QueryResult>| {
            for (offset, result) in chunk.into_iter().enumerate() {
                for (qi, copy) in self.distinct.hand_out(start + offset, result) {
                    results[qi] = copy;
                }
            }
        };
        if threads <= 1 {
            for r in &ranges {
                scatter(r.start, self.execute_range(index, r.clone()));
            }
            journal_batch_pool(&index.obs, pool_timer, ranges.len(), self.len(), 1);
            return results;
        }

        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<Option<Vec<QueryResult>>>> = Mutex::new(vec![None; ranges.len()]);
        std::thread::scope(|scope| {
            for _ in 0..threads.min(ranges.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= ranges.len() {
                        break;
                    }
                    let chunk = self.execute_range(index, ranges[i].clone());
                    // coax-analyze: allow(panic-free-library, poisoned chunk-result lock: a sibling worker panicked, so the batch result set is already lost — propagate rather than return a truncated batch)
                    done.lock().expect("chunk result lock poisoned")[i] = Some(chunk);
                });
            }
        });
        // coax-analyze: allow(panic-free-library, poisoned chunk-result lock: a worker panicked mid-batch, so returning would silently drop its chunk — propagate instead)
        let done = done.into_inner().expect("chunk result lock poisoned");
        for (r, chunk) in ranges.iter().zip(done) {
            // coax-analyze: allow(panic-free-library, scope() joins every worker before this line, so each chunk slot is filled — a None means a worker died and its results are unrecoverable)
            scatter(r.start, chunk.expect("every chunk executed"));
        }
        journal_batch_pool(&index.obs, pool_timer, ranges.len(), self.len(), threads);
        results
    }

    /// Streaming execution: per-query results flow to `sink` as their
    /// chunk completes, instead of arriving all at once when the slowest
    /// chunk finishes — the ROADMAP's "results flow before the whole
    /// batch finishes" item.
    ///
    /// `sink` receives `(query_index, QueryResult)` pairs: in order of
    /// first appearance when the batch stays on the calling thread (a
    /// query's duplicates arrive right after its first copy, so a batch
    /// without duplicates streams in query order), in completion order
    /// (each pair tagged with its index) when chunks fan out over the
    /// worker pool, where finished chunks cross back through a **bounded
    /// channel** so a slow consumer applies backpressure instead of
    /// buffering the whole batch. Every query is delivered exactly once,
    /// and each [`QueryResult`] is identical to the one
    /// [`BatchPlan::execute`] returns at that index.
    ///
    /// Chunks are sized for latency here (≈4 per worker, never the whole
    /// batch — an explicit [`ExecConfig::chunk_size`] still wins):
    /// time-to-first-result is one chunk's work.
    pub fn execute_streaming(
        &self,
        index: &CoaxIndex,
        config: &ExecConfig,
        sink: &mut dyn FnMut(usize, QueryResult),
    ) {
        let n = self.plans.len();
        if n == 0 {
            return;
        }
        let threads = config.resolve_threads(n);
        let chunk = streaming_chunk(config, n, threads);
        let ranges = chunk_ranges(n, chunk);
        let pool_timer = index.obs.timer();
        let mut ttfr = index.obs.timer();
        if threads <= 1 {
            for r in &ranges {
                for (offset, result) in
                    self.execute_range(index, r.clone()).into_iter().enumerate()
                {
                    for (qi, copy) in self.distinct.hand_out(r.start + offset, result) {
                        index.obs.record_ttfr(ttfr.take());
                        sink(qi, copy);
                    }
                }
            }
            journal_batch_pool(&index.obs, pool_timer, ranges.len(), self.len(), 1);
            return;
        }

        let next = AtomicUsize::new(0);
        let (tx, rx) = std::sync::mpsc::sync_channel(stream_capacity(chunk, threads));
        std::thread::scope(|scope| {
            for _ in 0..threads.min(ranges.len()) {
                let tx = tx.clone();
                let (next, ranges) = (&next, &ranges);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= ranges.len() {
                        break;
                    }
                    let start = ranges[i].start;
                    let results = self.execute_range(index, ranges[i].clone());
                    for (offset, result) in results.into_iter().enumerate() {
                        for item in self.distinct.hand_out(start + offset, result) {
                            // A dropped receiver (consumer gone) cancels
                            // the remaining work.
                            if !send_counted(&index.obs, &tx, item) {
                                return;
                            }
                        }
                    }
                });
            }
            drop(tx);
            for (qi, result) in rx {
                index.obs.stream_depth_sub(1);
                index.obs.record_ttfr(ttfr.take());
                sink(qi, result);
            }
        });
        journal_batch_pool(&index.obs, pool_timer, ranges.len(), self.len(), threads);
    }
}

/// Sends one streamed result, counting its channel slot first so the
/// depth gauge covers time spent blocked on a full channel. `false` when
/// the consumer is gone.
fn send_counted(
    obs: &Obs,
    tx: &std::sync::mpsc::SyncSender<(usize, QueryResult)>,
    item: (usize, QueryResult),
) -> bool {
    obs.stream_depth_add(1);
    if tx.send(item).is_err() {
        obs.stream_depth_sub(1);
        return false;
    }
    true
}

/// Journals one batch-pool completion (chunk/query/thread counts and
/// wall time) — the `batch_pool` event both batch surfaces emit.
fn journal_batch_pool(
    obs: &Obs,
    started: Option<std::time::Instant>,
    chunks: usize,
    queries: usize,
    threads: usize,
) {
    obs.record_batch_pool(|| {
        let us =
            started.map_or(0, |t| t.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        format!("chunks={chunks} queries={queries} threads={threads} wall_us={us}")
    });
}

/// Chunk size for streaming execution: an explicit
/// [`ExecConfig::chunk_size`] wins, else ≈4 chunks per worker with a
/// floor of 8 distinct queries — and never the whole batch, because the
/// first chunk's completion time is the stream's time-to-first-result.
fn streaming_chunk(config: &ExecConfig, batch_len: usize, threads: usize) -> usize {
    if config.chunk_size > 0 {
        return config.chunk_size;
    }
    batch_len.div_ceil(threads.max(1) * 4).max(8).min(batch_len.max(1))
}

/// Bounded capacity of a streaming result channel: a couple of chunks of
/// per-query slots — enough that workers never stall on a keeping-up
/// consumer, small enough that a stalled consumer stalls the pool instead
/// of buffering the whole batch.
fn stream_capacity(chunk: usize, threads: usize) -> usize {
    (2 * chunk * threads.max(1)).clamp(16, 4096)
}

/// A live stream of batch results: an iterator over
/// `(query_index, QueryResult)` pairs arriving in completion order as
/// the worker pool finishes chunks, fed through a bounded channel.
///
/// Produced by the snapshot surface
/// ([`crate::maint::ReadSnapshot::batch_query_streaming`] and
/// [`crate::maint::IndexHandle::batch_query_streaming`]), whose
/// `Arc`-owned state lets the pool run detached from the caller's stack.
/// Every query of the batch is delivered exactly once, each result
/// identical to the materialized `batch_query` at that index; dropping
/// the stream early cancels the remaining work (workers observe the
/// closed channel and stop).
///
/// # Panics
///
/// [`Iterator::next`] panics if a worker thread died before delivering
/// its queries — results are missing, and truncating the stream quietly
/// would break the exactly-once contract. This mirrors the scoped
/// [`BatchPlan::execute_streaming`] surface, where a worker panic
/// propagates to the caller.
#[derive(Debug)]
pub struct BatchStream {
    rx: Receiver<(usize, QueryResult)>,
    remaining: usize,
    /// Shard label of the spawning index, so a worker-death panic names
    /// the shard that lost results (`None` for unsharded indexes).
    shard: Option<u32>,
    /// Recorder of the spawning index; times first delivery and tracks
    /// channel depth.
    obs: Obs,
    /// Set until the first result is yielded, then taken to record
    /// time-to-first-result (`None` when observability is off).
    started: Option<std::time::Instant>,
}

impl BatchStream {
    /// Results not yet yielded.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// The shard label of the index this stream was spawned from
    /// (`None` for unsharded indexes).
    pub fn shard(&self) -> Option<u32> {
        self.shard
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
                self.obs.record_ttfr(self.started.take());
                Some(item)
            }
            // Every sender is gone with results still owed: a worker
            // died mid-batch. Surface the loss instead of truncating,
            // naming the shard when the spawning index had one.
            // coax-analyze: allow(panic-free-library, a dead worker means owed results are gone for good — ending the iterator here would silently truncate the batch)
            Err(_) => panic!(
                "batch stream lost {} result(s): a worker thread panicked mid-batch{}",
                self.remaining,
                match self.shard {
                    Some(k) => format!(" (shard {k})"),
                    None => String::new(),
                }
            ),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.remaining))
    }
}

/// Shared post-processing hook a [`BatchStream`]'s workers run on each
/// distinct query's [`QueryResult`] before handing it to the query's
/// copies (the snapshot layer's overlay merge).
pub(crate) type StreamFinishFn = Arc<dyn Fn(usize, &mut QueryResult) + Send + Sync>;

/// Spawns the detached worker pool behind a [`BatchStream`]: the batch
/// is deduplicated on the calling thread, then workers claim contiguous
/// chunks of distinct queries off an atomic counter, translate and
/// execute them against the `Arc`-shared frozen index, run each result
/// through `finish` (the snapshot layer's overlay merge), and push it to
/// every copy through the bounded channel. Translation happens inside
/// the workers, so the first results do not wait for the whole batch to
/// be planned.
pub(crate) fn spawn_batch_stream(
    index: Arc<CoaxIndex>,
    queries: Arc<Vec<RangeQuery>>,
    config: ExecConfig,
    finish: Option<StreamFinishFn>,
) -> BatchStream {
    let distinct = Arc::new(DistinctQueries::new(&queries));
    let n = distinct.len();
    // At least one worker always spawns (the caller thread is the
    // consumer, so "stay on the calling thread" cannot stream).
    let threads = config.resolve_threads(n).max(1);
    let chunk = streaming_chunk(&config, n.max(1), threads);
    let (tx, rx) = std::sync::mpsc::sync_channel(stream_capacity(chunk, threads));
    let ranges = Arc::new(chunk_ranges(n, chunk));
    let next = Arc::new(AtomicUsize::new(0));
    for _ in 0..threads.min(ranges.len()) {
        let (index, queries, distinct, ranges) = (
            Arc::clone(&index),
            Arc::clone(&queries),
            Arc::clone(&distinct),
            Arc::clone(&ranges),
        );
        let (next, tx, finish) = (Arc::clone(&next), tx.clone(), finish.clone());
        std::thread::spawn(move || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= ranges.len() {
                break;
            }
            let range = ranges[i].clone();
            let plans: Vec<QueryPlan> =
                range.clone().map(|d| index.plan(&queries[distinct.first(d)])).collect();
            let results = execute_chunk(&index, &plans, distinct.answered(range.clone()));
            for (d, mut result) in range.zip(results) {
                if let Some(finish) = &finish {
                    finish(distinct.first(d), &mut result);
                }
                for item in distinct.hand_out(d, result) {
                    // A dropped BatchStream cancels the remaining work.
                    if !send_counted(&index.obs, &tx, item) {
                        return;
                    }
                }
            }
        });
    }
    let (obs, started) = (index.obs.clone(), index.obs.timer());
    BatchStream { rx, remaining: queries.len(), shard: obs.shard(), obs, started }
}

/// Batch execution behind [`CoaxIndex::batch_query_with`] and the trait's
/// `batch_query`: plan the whole batch once ([`BatchPlan`]), then execute
/// under `config`. Per-query results and counters are identical to
/// one-at-a-time [`CoaxIndex::range_query_stats`] calls because every
/// distinct query runs the same single-query executor.
pub(crate) fn execute_batch(
    index: &CoaxIndex,
    queries: &[RangeQuery],
    config: &ExecConfig,
) -> Vec<QueryResult> {
    BatchPlan::new(index, queries).execute(index, config)
}

/// Streaming batch execution behind [`CoaxIndex::batch_query_streaming`]:
/// plan once, then [`BatchPlan::execute_streaming`].
pub(crate) fn execute_batch_streaming(
    index: &CoaxIndex,
    queries: &[RangeQuery],
    config: &ExecConfig,
    sink: &mut dyn FnMut(usize, QueryResult),
) {
    BatchPlan::new(index, queries).execute_streaming(index, config, sink);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::CoaxConfig;
    use coax_data::synth::{Generator, PlantedConfig, PlantedDependent, PlantedGroup};
    use coax_data::Value;
    use coax_index::MultidimIndex;

    /// A backend that violates the `MultidimIndex` id contract by
    /// emitting a row id far beyond `0..len()`.
    #[derive(Debug)]
    struct RogueBackend {
        dims: usize,
    }

    impl MultidimIndex for RogueBackend {
        fn name(&self) -> &str {
            "rogue"
        }
        fn dims(&self) -> usize {
            self.dims
        }
        fn len(&self) -> usize {
            1
        }
        fn range_query_stats(&self, _query: &RangeQuery, out: &mut Vec<RowId>) -> ScanStats {
            // Out of contract: not a local id of this one-row "index".
            out.push(1_000_000);
            ScanStats { cells_visited: 1, rows_examined: 1, matches: 1, ..Default::default() }
        }
        fn for_each_entry(&self, _f: &mut dyn FnMut(RowId, &[Value])) {}
        fn memory_overhead(&self) -> usize {
            0
        }
    }

    // Debug builds only: the contract message comes from a debug_assert;
    // in release the same violation still panics, but on the id-table
    // bound check with the stock out-of-bounds message.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out-of-range local row id")]
    fn out_of_contract_backend_ids_are_caught() {
        let ds = PlantedConfig {
            rows: 2000,
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
            seed: 77,
        }
        .generate();
        let mut index = CoaxIndex::build(&ds, &CoaxConfig::default());
        // Swap in a backend that breaks the local-id contract; the exec
        // layer must refuse to remap its garbage into another partition's
        // row ids.
        index.outliers = Box::new(RogueBackend { dims: ds.dims() });
        index.range_query(&RangeQuery::unbounded(ds.dims()));
    }
}
