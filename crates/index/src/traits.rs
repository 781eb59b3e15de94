//! The common index interface and scan accounting.

use coax_data::{Dataset, RangeQuery, RowId, Value};

/// Counters describing the work one query performed.
///
/// `rows_examined / matches` is the empirical inverse of the paper's
/// *effectiveness* measure (Eq. 5): a perfectly effective index examines
/// exactly the result set. See [`ScanStats::effectiveness`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Directory units inspected: grid cells for grid-family indexes,
    /// nodes for the R-tree, 1 for a full scan.
    pub cells_visited: usize,
    /// Rows whose values were compared against the predicate through the
    /// index structure proper.
    pub rows_examined: usize,
    /// Rows checked linearly in an insert buffer (the COAX handle's
    /// overlay), *outside* any index structure. Counted separately from
    /// [`ScanStats::rows_examined`] so reports can see a bloated buffer,
    /// but included in [`ScanStats::effectiveness`] — a pending row
    /// compared against the predicate is work wasted exactly like an
    /// in-structure false positive, so hiding it would overstate Eq. 5.
    pub scanned_pending: usize,
    /// Rows that satisfied the predicate.
    pub matches: usize,
}

impl ScanStats {
    /// Component-wise sum (merging primary + outlier statistics).
    pub fn merge(self, other: ScanStats) -> ScanStats {
        ScanStats {
            cells_visited: self.cells_visited + other.cells_visited,
            rows_examined: self.rows_examined + other.rows_examined,
            scanned_pending: self.scanned_pending + other.scanned_pending,
            matches: self.matches + other.matches,
        }
    }

    /// Component-wise `self − earlier`, for two observations of the same
    /// monotonically-growing counters: the work added since `earlier`
    /// was captured. Composing cursors meter a sub-cursor's per-chunk
    /// increments this way (watch [`RowCursor::stats`] grow, forward the
    /// difference).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any counter of `earlier` exceeds
    /// `self`'s — the pair did not come from one growing sequence — or
    /// if matches outnumber the total work examined in the delta (a
    /// `scanned_pending` / `rows_examined` accounting mismatch: every
    /// match was found by examining *some* row, indexed or pending).
    pub fn since(self, earlier: ScanStats) -> ScanStats {
        debug_assert!(
            self.cells_visited >= earlier.cells_visited
                && self.rows_examined >= earlier.rows_examined
                && self.scanned_pending >= earlier.scanned_pending
                && self.matches >= earlier.matches,
            "ScanStats::since: earlier {earlier:?} is not a prefix of {self:?}"
        );
        debug_assert!(
            self.matches - earlier.matches <= self.total_examined() - earlier.total_examined(),
            "ScanStats::since: delta matches exceed delta examined rows"
        );
        ScanStats {
            cells_visited: self.cells_visited - earlier.cells_visited,
            rows_examined: self.rows_examined - earlier.rows_examined,
            scanned_pending: self.scanned_pending - earlier.scanned_pending,
            matches: self.matches - earlier.matches,
        }
    }

    /// Every row the query compared against the predicate: index rows
    /// plus pending-buffer rows. The denominator of Eq. 5.
    pub fn total_examined(&self) -> usize {
        self.rows_examined + self.scanned_pending
    }

    /// Fraction of examined rows — index rows *and* pending-buffer rows —
    /// that matched (1.0 when nothing was examined: an empty scan wastes
    /// no work).
    pub fn precision(&self) -> f64 {
        let examined = self.total_examined();
        if examined == 0 {
            1.0
        } else {
            self.matches as f64 / examined as f64
        }
    }

    /// The paper's *effectiveness* measure (Eq. 5): results per examined
    /// row, in `[0, 1]` — 1.0 means the scan touched exactly the result
    /// set, lower means wasted work. The denominator is
    /// [`ScanStats::total_examined`], so linear scans of a pending-insert
    /// buffer count as wasted work too — a bloated buffer degrades
    /// reported effectiveness instead of hiding.
    ///
    /// Identical to [`ScanStats::precision`] on non-empty scans; the two
    /// exist because "precision" is this crate's accounting name while
    /// "effectiveness" is the paper's term, and bench reports quote the
    /// paper.
    ///
    /// # Empty-scan convention
    ///
    /// A scan that examined zero rows wasted no work and is defined as
    /// perfectly effective — this returns 1.0, never NaN (pinned by a
    /// unit test below). Fully-pruned queries are COAX's best case
    /// (translation proved no row can match before touching the
    /// structure), so the convention rewards pruning instead of
    /// poisoning every downstream average with NaN.
    ///
    /// # Aggregating over a workload
    ///
    /// The convention has a consequence: averaging *per-query*
    /// effectiveness over a workload lets fully-pruned queries
    /// (0 examined → 1.0) inflate the mean. Workload reports must
    /// therefore **micro-average**: [`ScanStats::merge`] the per-query
    /// counters first and take the effectiveness of the total, i.e.
    /// Σmatches / Σrows_examined. The bench harness's
    /// `workload_effectiveness` does exactly that; per-query averaging
    /// is the documented anti-pattern.
    pub fn effectiveness(&self) -> f64 {
        self.precision()
    }
}

/// One query's result ids plus its scan counters, as returned by
/// [`MultidimIndex::batch_query`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryResult {
    /// Ids of the matching rows (order unspecified).
    pub ids: Vec<RowId>,
    /// Work the query performed.
    pub stats: ScanStats,
}

/// Incremental producer behind a [`RowCursor`]: one call yields one
/// *chunk* of matching row ids (for a grid-family index, one directory
/// cell's worth) plus that chunk's scan counters.
///
/// `Send` is a supertrait so cursors can cross threads (a streaming
/// consumer draining on a worker, say) whatever source backs them.
pub trait CursorSource: Send {
    /// Appends the next chunk's matching ids to `out` (without clearing
    /// it) and merges that chunk's counters into `stats`. Returns `false`
    /// — touching neither argument — once the scan is exhausted.
    ///
    /// A chunk may legitimately append nothing while still counting work
    /// (a visited cell with no matching row); exhaustion is signalled by
    /// the return value alone.
    fn next_chunk(&mut self, out: &mut Vec<RowId>, stats: &mut ScanStats) -> bool;
}

/// A streaming range-query result: row ids flow chunk by chunk as the
/// scan proceeds, instead of arriving in one fully-materialized `Vec`.
///
/// Returned by [`MultidimIndex::range_query_cursor`] and
/// [`MultidimIndex::range_query_filtered_cursor`]. The cursor is a plain
/// [`Iterator`] over [`RowId`]s and is `Send`; chunk-granular consumers
/// use [`RowCursor::next_chunk`] instead of the per-id iterator.
///
/// # Exactness contract
///
/// Concatenating every chunk yields **exactly** the ids the materialized
/// call ([`MultidimIndex::range_query_stats`] /
/// [`MultidimIndex::range_query_filtered`]) would have appended, in the
/// same order, and once the cursor is exhausted [`RowCursor::stats`]
/// equals the materialized call's [`ScanStats`] bit for bit — streaming
/// changes *when* results arrive, never *what* they are (pinned by the
/// `coax` crate's streaming equivalence suite). Before exhaustion,
/// `stats()` reports the work performed so far.
pub struct RowCursor<'a> {
    source: Box<dyn CursorSource + 'a>,
    buf: Vec<RowId>,
    /// Ids in `buf[..pos]` were already handed out via the iterator.
    pos: usize,
    stats: ScanStats,
    exhausted: bool,
}

impl std::fmt::Debug for RowCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowCursor")
            .field("stats", &self.stats)
            .field("exhausted", &self.exhausted)
            .finish_non_exhaustive()
    }
}

impl<'a> RowCursor<'a> {
    /// Wraps an incremental source.
    pub fn new(source: Box<dyn CursorSource + 'a>) -> Self {
        Self { source, buf: Vec::new(), pos: 0, stats: ScanStats::default(), exhausted: false }
    }

    /// A cursor over an already-materialized result: one chunk carrying
    /// every id and the full counters. This is the default adapter
    /// backends without an incremental scan path fall back to.
    ///
    /// The counters are attributed when the chunk is produced — not
    /// preloaded — so composing cursors (COAX chains its primary's
    /// cursor into the exec sequence) can meter progress by watching
    /// [`RowCursor::stats`] grow, whichever kind of source backs it.
    pub fn materialized(ids: Vec<RowId>, stats: ScanStats) -> RowCursor<'static> {
        struct OneShot {
            ids: Option<Vec<RowId>>,
            stats: ScanStats,
        }
        impl CursorSource for OneShot {
            fn next_chunk(&mut self, out: &mut Vec<RowId>, stats: &mut ScanStats) -> bool {
                match self.ids.take() {
                    Some(mut ids) => {
                        out.append(&mut ids);
                        *stats = stats.merge(self.stats);
                        true
                    }
                    None => false,
                }
            }
        }
        RowCursor::new(Box::new(OneShot { ids: Some(ids), stats }))
    }

    /// Advances to the next non-empty chunk of matching ids and returns
    /// it, or `None` once the scan is exhausted. Chunks that matched
    /// nothing are folded into [`RowCursor::stats`] and skipped, so a
    /// returned slice is never empty.
    ///
    /// Ids not yet consumed through the [`Iterator`] side are returned
    /// first — the two access styles can be mixed without loss.
    pub fn next_chunk(&mut self) -> Option<&[RowId]> {
        loop {
            if self.pos < self.buf.len() {
                let start = self.pos;
                self.pos = self.buf.len();
                return Some(&self.buf[start..]);
            }
            if self.exhausted {
                return None;
            }
            self.buf.clear();
            self.pos = 0;
            if !self.source.next_chunk(&mut self.buf, &mut self.stats) {
                self.exhausted = true;
            }
        }
    }

    /// Scan counters accumulated so far; the full, materialized-identical
    /// [`ScanStats`] once the cursor is exhausted.
    pub fn stats(&self) -> ScanStats {
        self.stats
    }

    /// `true` once every chunk has been produced *and* consumed.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted && self.pos >= self.buf.len()
    }

    /// Drains the remaining chunks into a `Vec`, returning the ids and
    /// the final counters — the bridge back to the materialized calls
    /// (and what the equivalence tests compare bit for bit).
    pub fn collect_with_stats(mut self) -> (Vec<RowId>, ScanStats) {
        let mut ids = self.buf.split_off(self.pos);
        // `split_off` keeps the consumed prefix in `buf`; drop it and
        // stream the rest straight into `ids`.
        self.buf.clear();
        while !self.exhausted {
            if !self.source.next_chunk(&mut ids, &mut self.stats) {
                self.exhausted = true;
            }
        }
        (ids, self.stats)
    }
}

impl Iterator for RowCursor<'_> {
    type Item = RowId;

    fn next(&mut self) -> Option<RowId> {
        loop {
            if self.pos < self.buf.len() {
                let id = self.buf[self.pos];
                self.pos += 1;
                return Some(id);
            }
            if self.exhausted {
                return None;
            }
            self.buf.clear();
            self.pos = 0;
            if !self.source.next_chunk(&mut self.buf, &mut self.stats) {
                self.exhausted = true;
            }
        }
    }
}

/// Bitwise total order over a query's bound vectors (bounds are never
/// NaN, and `total_cmp` makes value-identical queries adjacent when
/// sorted — the property [`DistinctQueries`] relies on). Dimensionality
/// is compared first: queries of different arity are never equal, so a
/// wrong-dims query can't be "deduplicated" onto another query's result
/// — it reaches the backend and trips its dims assert exactly as the
/// sequential path would.
fn cmp_query_bounds(a: &RangeQuery, b: &RangeQuery) -> std::cmp::Ordering {
    a.dims().cmp(&b.dims()).then_with(|| {
        a.lows()
            .iter()
            .zip(b.lows())
            .chain(a.highs().iter().zip(b.highs()))
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    })
}

/// The dedup map of a query batch: its distinct queries (bounds compared
/// bitwise) in order of first appearance, and the batch positions each
/// one answers.
///
/// Every batch path answers each distinct query once and hands the
/// result to its copies ([`DistinctQueries::hand_out`]) — execution is
/// deterministic, so a copy is indistinguishable from a re-run. Sorting
/// finds the duplicates, so duplicate-heavy batches cost `O(n log n)`
/// comparisons.
#[derive(Clone, Debug, Default)]
pub struct DistinctQueries {
    /// Batch positions grouped by distinct query: groups in order of
    /// first appearance, positions ascending within a group.
    positions: Vec<u32>,
    /// Distinct query `d` answers `positions[starts[d]..starts[d + 1]]`.
    starts: Vec<u32>,
}

impl DistinctQueries {
    /// Groups `queries` by bitwise-equal bounds.
    pub fn new(queries: &[RangeQuery]) -> Self {
        let mut order: Vec<u32> = (0..queries.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            cmp_query_bounds(&queries[a as usize], &queries[b as usize]).then(a.cmp(&b))
        });
        // Equal queries now form runs, each ascending by position, so a
        // run's head is its query's first copy.
        let mut runs: Vec<std::ops::Range<usize>> = Vec::new();
        let mut start = 0;
        for i in 1..=order.len() {
            let ends = i == order.len()
                || !cmp_query_bounds(
                    &queries[order[i - 1] as usize],
                    &queries[order[i] as usize],
                )
                .is_eq();
            if ends {
                runs.push(start..i);
                start = i;
            }
        }
        runs.sort_unstable_by_key(|r| order[r.start]);
        let mut positions = Vec::with_capacity(order.len());
        let mut starts = vec![0u32];
        for run in runs {
            positions.extend_from_slice(&order[run]);
            starts.push(positions.len() as u32);
        }
        Self { positions, starts }
    }

    /// Number of distinct queries.
    pub fn len(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// `true` if the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of queries in the batch, copies included.
    pub fn batch_len(&self) -> usize {
        self.positions.len()
    }

    /// Batch positions answered by distinct query `d`, ascending; the
    /// first is the query's first copy.
    pub fn positions(&self, d: usize) -> &[u32] {
        &self.positions[self.starts[d] as usize..self.starts[d + 1] as usize]
    }

    /// Batch position of distinct query `d`'s first copy.
    pub fn first(&self, d: usize) -> usize {
        self.positions[self.starts[d] as usize] as usize
    }

    /// Queries answered by the distinct queries in `range`, copies
    /// included.
    pub fn answered(&self, range: std::ops::Range<usize>) -> usize {
        (self.starts[range.end] - self.starts[range.start]) as usize
    }

    /// Hands distinct query `d`'s `result` to each of its copies as
    /// `(batch_position, result)`, in position order: a clone for every
    /// copy but the last, which receives `result` itself.
    pub fn hand_out(
        &self,
        d: usize,
        result: QueryResult,
    ) -> impl Iterator<Item = (usize, QueryResult)> + '_ {
        let positions = self.positions(d);
        let mut result = Some(result);
        positions.iter().enumerate().map(move |(k, &qi)| {
            let copy = if k + 1 == positions.len() { result.take() } else { result.clone() };
            (qi as usize, copy.unwrap_or_default())
        })
    }
}

/// An exact multidimensional range/point index over a fixed dataset.
///
/// Implementations own every byte they need (candidate pages, directory);
/// they never hold references into the source dataset, so they can outlive
/// it and be composed freely — COAX owns one primary and one boxed outlier
/// index, both driven through this trait.
///
/// The trait is **object safe**: the whole bench harness, the COAX outlier
/// store, and the backend factory ([`crate::BackendSpec`]) work in terms
/// of `Box<dyn MultidimIndex>`. It also requires `Debug + Send + Sync` so
/// boxed indexes can be logged and shared across reader threads.
pub trait MultidimIndex: std::fmt::Debug + Send + Sync {
    /// Short human-readable name for reports ("full-grid", "r-tree", …).
    fn name(&self) -> &str;

    /// Dimensionality of the indexed rows.
    fn dims(&self) -> usize;

    /// Number of rows indexed.
    fn len(&self) -> usize;

    /// `true` if the index holds no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the row ids matching `query` to `out` (without clearing it)
    /// and reports scan counters.
    ///
    /// Results are exact: every id appended satisfies the predicate and no
    /// matching id is missed. Order is unspecified.
    ///
    /// # Id contract
    ///
    /// Every appended id is the id its row was built or absorbed with:
    /// `ids[i]` for row `i` of an ids-taking build
    /// ([`crate::BackendSpec::build_with_ids`]) or of
    /// [`MultidimIndex::absorbed`], so `0..self.len()` for a plain build.
    /// Ids pass through unchanged, so composing callers need no
    /// translation table: COAX builds both partitions over the rows'
    /// own ids, and a sharded service each shard over its members'
    /// global ids (`crates/index/tests/equivalence.rs` pins the contract
    /// for every backend over sparse, shuffled ids).
    ///
    /// The contract applies to every query method of this trait — the
    /// filtered, point, batched and cursor variants, and
    /// [`MultidimIndex::for_each_entry`], all emit the same ids.
    fn range_query_stats(&self, query: &RangeQuery, out: &mut Vec<RowId>) -> ScanStats;

    /// Range query with separate *navigation* and *filter* predicates:
    /// directory pruning may use `nav`, but every appended row satisfies
    /// `filter`.
    ///
    /// The caller guarantees that `nav` does not exclude any
    /// `filter`-matching row stored in this index (COAX guarantees it for
    /// its primary partition through the soft-FD margin invariant; Eq. 2's
    /// translated rectangle always covers the in-margin matches). Under
    /// that precondition the result set is exactly the `filter`-matching
    /// rows, whatever the backend.
    ///
    /// The default implementation probes with the **intersection**
    /// `nav ∩ filter` — a single rectangle, sound and exact under the
    /// precondition for any backend, and it lets substrates that index
    /// the filtered attributes (an R-tree over all dims, say) prune on
    /// them directly. Backends with a cheaper fused path override it:
    /// [`crate::GridFile`] navigates its directory and in-cell binary
    /// search with `nav` while accepting rows against `filter`, which is
    /// the COAX primary's hot path.
    fn range_query_filtered(
        &self,
        nav: &RangeQuery,
        filter: &RangeQuery,
        out: &mut Vec<RowId>,
    ) -> ScanStats {
        let mut probe = nav.clone();
        probe.intersect(filter);
        if probe.is_empty() {
            return ScanStats::default();
        }
        self.range_query_stats(&probe, out)
    }

    /// Convenience wrapper returning a fresh result vector.
    fn range_query(&self, query: &RangeQuery) -> Vec<RowId> {
        let mut out = Vec::new();
        self.range_query_stats(query, &mut out);
        out
    }

    /// Streaming range query: returns a [`RowCursor`] whose chunks flow
    /// as the scan proceeds, instead of one materialized `Vec`.
    ///
    /// # Contract
    ///
    /// The concatenated chunks and the exhausted cursor's
    /// [`RowCursor::stats`] must be **identical** — same ids, same order,
    /// same counters — to one [`MultidimIndex::range_query_stats`] call;
    /// streaming is a latency improvement, never a semantic change.
    ///
    /// The default adapter materializes eagerly and streams the finished
    /// result in one chunk — correct for every backend, incremental for
    /// none. Backends with a natural scan order override it:
    /// [`crate::GridFile`] yields one chunk per directory cell as its
    /// ascending odometer pass visits it, and the COAX index chains
    /// primary and outlier cursors so first results arrive before the
    /// outlier probe has even started.
    ///
    /// The cursor borrows `self` (not `query`), is `Send`, and may be
    /// dropped early at no cost beyond the work already performed.
    fn range_query_cursor(&self, query: &RangeQuery) -> RowCursor<'_> {
        let mut ids = Vec::new();
        let stats = self.range_query_stats(query, &mut ids);
        RowCursor::materialized(ids, stats)
    }

    /// Streaming variant of [`MultidimIndex::range_query_filtered`]: the
    /// same navigation/filter split and caller precondition, results
    /// flowing through a [`RowCursor`] under the same exactness contract
    /// as [`MultidimIndex::range_query_cursor`]. The default adapter
    /// materializes eagerly; [`crate::GridFile`] streams cell by cell.
    fn range_query_filtered_cursor(
        &self,
        nav: &RangeQuery,
        filter: &RangeQuery,
    ) -> RowCursor<'_> {
        let mut ids = Vec::new();
        let stats = self.range_query_filtered(nav, filter, &mut ids);
        RowCursor::materialized(ids, stats)
    }

    /// Point lookup: appends the ids of rows equal to `point` (paper
    /// §8.2.1: "a range query where the lower bound and upper bound …
    /// are equal"). Backends with a cheaper exact-match path may
    /// override; the default degenerates to a rectangle query.
    fn point_query_stats(&self, point: &[Value], out: &mut Vec<RowId>) -> ScanStats {
        self.range_query_stats(&RangeQuery::point(point), out)
    }

    /// Convenience wrapper for [`MultidimIndex::point_query_stats`].
    fn point_query(&self, point: &[Value]) -> Vec<RowId> {
        let mut out = Vec::new();
        self.point_query_stats(point, &mut out);
        out
    }

    /// Answers a batch of queries, returning per-query results and
    /// counters, in query order.
    ///
    /// # Contract
    ///
    /// Per-query results and stats must be identical to one-at-a-time
    /// [`MultidimIndex::range_query_stats`] calls, whatever the backend
    /// does internally — batching changes *how fast* answers arrive,
    /// never *what* they are (`crates/core/tests/exec_batch.rs` asserts
    /// this across backends, duplicate-heavy batches, and thread counts).
    ///
    /// # Why override
    ///
    /// The default answers each **distinct** query through
    /// [`MultidimIndex::range_query_stats`] and copies the result to its
    /// value-equal duplicates ([`DistinctQueries`]). Backends with
    /// per-query setup cost override it: COAX translates each distinct
    /// query exactly once into a `QueryPlan`, runs every plan through
    /// its single-query executor, and can fan the batch out over a
    /// scoped worker pool (`coax_core::exec`, knobs in `ExecConfig`).
    fn batch_query(&self, queries: &[RangeQuery]) -> Vec<QueryResult> {
        let distinct = DistinctQueries::new(queries);
        let mut results: Vec<QueryResult> = vec![QueryResult::default(); queries.len()];
        for d in 0..distinct.len() {
            let mut ids = Vec::new();
            let stats = self.range_query_stats(&queries[distinct.first(d)], &mut ids);
            for (qi, copy) in distinct.hand_out(d, QueryResult { ids, stats }) {
                results[qi] = copy;
            }
        }
        results
    }

    /// Invokes `f` with every stored `(id, row_values)` pair, each id
    /// exactly once, in an unspecified order.
    ///
    /// This opens the store for composition: COAX gathers its rows, with
    /// their ids, from its primary and outlier backends through this
    /// method when rebuilding, whichever structures back them.
    fn for_each_entry(&self, f: &mut dyn FnMut(RowId, &[Value]));

    /// This index plus `rows`, as a new index: row `i` of `rows` takes id
    /// `ids[i]`, and every stored row keeps its own.
    ///
    /// `None`, the default, means the backend has no path cheaper than a
    /// rebuild; the caller then rebuilds over
    /// [`MultidimIndex::for_each_entry`] plus `rows`. [`crate::GridFile`]
    /// merges the rows into its frozen directory in one pass. COAX's fold
    /// calls this for each partition so that folding buffered inserts
    /// does not re-pack the stored rows.
    fn absorbed(&self, _rows: &Dataset, _ids: &[RowId]) -> Option<Box<dyn MultidimIndex>> {
        None
    }

    /// Bytes of *directory* overhead: everything the structure adds on top
    /// of the stored rows (boundary tables, cell offsets, tree nodes).
    /// This is the quantity Fig. 8 plots on its x-axis. Row payloads and
    /// row-id arrays are data, not overhead.
    fn memory_overhead(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cells: usize, examined: usize, pending: usize, matches: usize) -> ScanStats {
        ScanStats {
            cells_visited: cells,
            rows_examined: examined,
            scanned_pending: pending,
            matches,
        }
    }

    #[test]
    fn merge_adds_componentwise() {
        let a = stats(1, 10, 4, 3);
        let b = stats(2, 5, 1, 2);
        assert_eq!(a.merge(b), stats(3, 15, 5, 5));
    }

    #[test]
    fn precision_handles_empty_scan() {
        assert_eq!(ScanStats::default().precision(), 1.0);
        let s = stats(1, 8, 0, 2);
        assert!((s.precision() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn effectiveness_matches_eq5() {
        // Eq. 5 on a real scan: matches per examined row.
        let s = stats(3, 50, 0, 10);
        assert!((s.effectiveness() - 0.2).abs() < 1e-12);
        // Zero-examined edge case: an empty scan wastes no work and is
        // defined as perfectly effective, *not* NaN or a division panic.
        let empty = stats(2, 0, 0, 0);
        assert_eq!(empty.effectiveness(), 1.0);
        assert_eq!(ScanStats::default().effectiveness(), 1.0);
    }

    #[test]
    fn pending_scans_count_against_effectiveness() {
        // 10 matches over 50 index rows is 0.2 effective; scanning a
        // 150-row pending buffer on top drags Eq. 5 down to 10/200 = 0.05
        // instead of hiding the buffer's linear cost.
        let s = stats(3, 50, 150, 10);
        assert_eq!(s.total_examined(), 200);
        assert!((s.effectiveness() - 0.05).abs() < 1e-12);
        // A buffer-only scan (no index work at all) is still accounted.
        let buffer_only = stats(0, 0, 40, 8);
        assert!((buffer_only.effectiveness() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn micro_average_is_not_inflated_by_pruned_queries() {
        // One real scan at 0.25 effectiveness plus three fully-pruned
        // queries. Macro-averaging the per-query ratios would report
        // (0.25 + 1 + 1 + 1) / 4 ≈ 0.81; merging first keeps 0.25.
        let real = stats(4, 100, 0, 25);
        let pruned = ScanStats::default();
        let total = real.merge(pruned).merge(pruned).merge(pruned);
        assert!((total.effectiveness() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn default_filtered_probe_intersects_nav_and_filter() {
        use crate::FullScan;
        use coax_data::Dataset;
        let ds = Dataset::new(vec![(0..100).map(f64::from).collect()]);
        let fs = FullScan::build(&ds);
        // nav covers [10, 60], filter covers [40, 90]; every filter match
        // stored in [40, 60] also matches nav, so the precondition holds
        // and the default must return exactly the filter ∩ nav rows.
        let mut nav = RangeQuery::unbounded(1);
        nav.constrain(0, 10.0, 60.0);
        let mut filter = RangeQuery::unbounded(1);
        filter.constrain(0, 40.0, 60.0);
        let mut out = Vec::new();
        let stats = fs.range_query_filtered(&nav, &filter, &mut out);
        out.sort_unstable();
        assert_eq!(out, (40..=60).collect::<Vec<_>>());
        assert_eq!(stats.matches, 21);
        // Disjoint nav/filter → empty intersection, no scan at all.
        let mut disjoint = RangeQuery::unbounded(1);
        disjoint.constrain(0, 90.0, 95.0);
        let mut out = Vec::new();
        let stats = fs.range_query_filtered(&nav, &disjoint, &mut out);
        assert!(out.is_empty());
        assert_eq!(stats, ScanStats::default());
    }

    #[test]
    fn default_batched_probe_matches_per_probe_calls() {
        use crate::FullScan;
        use coax_data::Dataset;
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Counts the probes the trait-default batch runs.
        #[derive(Debug)]
        struct Counting(FullScan, AtomicUsize);
        impl MultidimIndex for Counting {
            fn name(&self) -> &str {
                "counting"
            }
            fn dims(&self) -> usize {
                self.0.dims()
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn range_query_stats(&self, query: &RangeQuery, out: &mut Vec<RowId>) -> ScanStats {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.range_query_stats(query, out)
            }
            fn for_each_entry(&self, f: &mut dyn FnMut(RowId, &[Value])) {
                self.0.for_each_entry(f)
            }
            fn memory_overhead(&self) -> usize {
                0
            }
        }

        let ds = Dataset::new(vec![(0..50).map(f64::from).collect()]);
        let index = Counting(FullScan::build(&ds), AtomicUsize::new(0));
        let mut narrow = RangeQuery::unbounded(1);
        narrow.constrain(0, 10.0, 20.0);
        let wide = RangeQuery::unbounded(1);
        // `-0.0` and `0.0` differ bitwise, so they stay distinct queries.
        let (mut neg_zero, mut pos_zero) = (RangeQuery::unbounded(1), RangeQuery::unbounded(1));
        neg_zero.constrain(0, -0.0, 5.0);
        pos_zero.constrain(0, 0.0, 5.0);
        let queries =
            [narrow.clone(), wide.clone(), narrow.clone(), neg_zero, narrow, pos_zero, wide];
        let batched = index.batch_query(&queries);
        assert_eq!(index.1.load(Ordering::Relaxed), 4, "each distinct query runs once");
        assert_eq!(batched.len(), queries.len());
        for (q, r) in queries.iter().zip(&batched) {
            let mut ids = Vec::new();
            let stats = index.0.range_query_stats(q, &mut ids);
            assert_eq!(r.stats, stats);
            assert_eq!(r.ids, ids);
        }
    }

    #[test]
    fn distinct_queries_group_copies_by_first_appearance() {
        let (mut a, mut b) = (RangeQuery::unbounded(2), RangeQuery::unbounded(2));
        a.constrain(0, 1.0, 2.0);
        b.constrain(1, 1.0, 2.0);
        // Same bounds, different arity: never the same query.
        let c = RangeQuery::unbounded(3);
        let queries = [b.clone(), a.clone(), b.clone(), c, a.clone(), b];
        let distinct = DistinctQueries::new(&queries);
        assert_eq!((distinct.len(), distinct.batch_len()), (3, 6));
        assert_eq!(distinct.positions(0), &[0, 2, 5]);
        assert_eq!(distinct.positions(1), &[1, 4]);
        assert_eq!(distinct.positions(2), &[3]);
        assert_eq!((distinct.first(1), distinct.first(2)), (1, 3));
        assert_eq!(distinct.answered(0..2), 5);
        assert_eq!(distinct.answered(2..3), 1);

        // The last copy receives the result itself, earlier ones clones.
        let result = QueryResult { ids: vec![7, 3], stats: stats(1, 2, 0, 2) };
        let handed: Vec<(usize, QueryResult)> = distinct.hand_out(0, result.clone()).collect();
        assert_eq!(handed.iter().map(|h| h.0).collect::<Vec<_>>(), vec![0, 2, 5]);
        assert!(handed.iter().all(|h| h.1 == result));

        assert!(DistinctQueries::new(&[]).is_empty());
        assert_eq!(DistinctQueries::new(&[]).batch_len(), 0);
    }

    #[test]
    fn trait_is_object_safe() {
        // Compile-time check: `dyn MultidimIndex` must be a valid type,
        // including the default-implemented batch/point/cursor surface.
        fn _takes_dyn(index: &dyn MultidimIndex) -> usize {
            index.len()
        }
        fn _takes_boxed(index: Box<dyn MultidimIndex>) -> usize {
            index.dims()
        }
        fn _cursor_through_dyn<'a>(
            index: &'a dyn MultidimIndex,
            q: &RangeQuery,
        ) -> RowCursor<'a> {
            index.range_query_cursor(q)
        }
    }

    #[test]
    fn row_cursor_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<RowCursor<'static>>();
    }

    #[test]
    fn default_cursor_matches_materialized_call() {
        use crate::FullScan;
        use coax_data::Dataset;
        let ds = Dataset::new(vec![(0..200).map(f64::from).collect()]);
        let fs = FullScan::build(&ds);
        let mut q = RangeQuery::unbounded(1);
        q.constrain(0, 50.0, 99.0);
        let mut expected = Vec::new();
        let expected_stats = fs.range_query_stats(&q, &mut expected);
        let (ids, stats) = fs.range_query_cursor(&q).collect_with_stats();
        assert_eq!(ids, expected);
        assert_eq!(stats, expected_stats);
        // The iterator side sees the same stream.
        let iterated: Vec<RowId> = fs.range_query_cursor(&q).collect();
        assert_eq!(iterated, expected);
    }

    /// Source yielding chunks [0,1], [] (counted work, no match), [2].
    struct Scripted {
        step: usize,
    }
    impl CursorSource for Scripted {
        fn next_chunk(&mut self, out: &mut Vec<RowId>, stats: &mut ScanStats) -> bool {
            self.step += 1;
            match self.step {
                1 => {
                    out.extend([0, 1]);
                    *stats = stats.merge(stats_of(1, 2, 0, 2));
                    true
                }
                2 => {
                    *stats = stats.merge(stats_of(1, 3, 0, 0));
                    true
                }
                3 => {
                    out.push(2);
                    *stats = stats.merge(stats_of(1, 1, 0, 1));
                    true
                }
                _ => false,
            }
        }
    }

    fn stats_of(cells: usize, examined: usize, pending: usize, matches: usize) -> ScanStats {
        stats(cells, examined, pending, matches)
    }

    #[test]
    fn cursor_skips_empty_chunks_but_keeps_their_stats() {
        let mut cursor = RowCursor::new(Box::new(Scripted { step: 0 }));
        assert_eq!(cursor.next_chunk(), Some(&[0, 1][..]));
        // The empty middle chunk is folded into the next fetch.
        assert_eq!(cursor.next_chunk(), Some(&[2][..]));
        assert_eq!(cursor.next_chunk(), None);
        assert!(cursor.is_exhausted());
        assert_eq!(cursor.stats(), stats_of(3, 6, 0, 3));
    }

    #[test]
    fn cursor_mixing_iterator_and_chunks_loses_nothing() {
        let mut cursor = RowCursor::new(Box::new(Scripted { step: 0 }));
        assert_eq!(cursor.next(), Some(0));
        // The unconsumed remainder of the buffered chunk comes first.
        assert_eq!(cursor.next_chunk(), Some(&[1][..]));
        let (rest, total) = cursor.collect_with_stats();
        assert_eq!(rest, vec![2]);
        assert_eq!(total, stats_of(3, 6, 0, 3));
    }
}
