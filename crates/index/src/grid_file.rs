//! The paper's modified grid file (§6).
//!
//! Differences from the classic grid file of Nievergelt et al. that the
//! paper calls out, all implemented here:
//!
//! * cell boundaries are chosen **by quantiles** along each dimension
//!   (equi-depth, driven by the data's CDF) instead of by splitting;
//! * the **same number of grid lines** is used for every gridded attribute;
//! * cell addresses are laid out in **row-major order of the original
//!   attribute ordering**;
//! * each cell stores its rows in a **contiguous row-store block**;
//! * optionally, rows inside every cell are **sorted by one attribute**
//!   that then needs no grid lines — lookups on it use two bounding binary
//!   searches (the Flood trick). A dataset with `n` dims and `m` predicted
//!   attributes therefore needs only an `n − m − 1`-dimensional directory.
//!
//! The same type serves as the COAX primary index (gridding only the
//! indexed attributes), the COAX outlier index (gridding everything), and
//! — through [`crate::ColumnFiles`] — the strongest baseline.

use crate::pages::{PageStore, MAX_CELLS};
use crate::traits::{CursorSource, MultidimIndex, RowCursor, ScanStats};
use coax_data::stats::equi_depth_boundaries;
use coax_data::{Dataset, RangeQuery, RowId, Value};

/// Build-time configuration of a [`GridFile`].
#[derive(Clone, Debug)]
pub struct GridFileConfig {
    /// Attributes that receive grid lines, in original order.
    pub grid_dims: Vec<usize>,
    /// Attribute sorted inside each cell (must not be in `grid_dims`).
    pub sort_dim: Option<usize>,
    /// Number of cells per gridded attribute (the paper uses the same
    /// count for every attribute).
    pub cells_per_dim: usize,
}

impl GridFileConfig {
    /// Grid lines on every attribute, no sorted dimension — the layout the
    /// outlier index uses by default.
    pub fn all_dims(dims: usize, cells_per_dim: usize) -> Self {
        Self { grid_dims: (0..dims).collect(), sort_dim: None, cells_per_dim }
    }

    /// Grid lines on every attribute except `sort_dim`, which is sorted
    /// inside cells — the column-files / COAX-primary layout.
    pub fn with_sort(dims: usize, sort_dim: usize, cells_per_dim: usize) -> Self {
        assert!(sort_dim < dims, "sort dimension out of range");
        Self {
            grid_dims: (0..dims).filter(|&d| d != sort_dim).collect(),
            sort_dim: Some(sort_dim),
            cells_per_dim,
        }
    }

    /// Grid lines on a chosen subset, sorted dimension optional — the COAX
    /// primary layout (grid only the indexed attributes).
    pub fn subset(
        grid_dims: Vec<usize>,
        sort_dim: Option<usize>,
        cells_per_dim: usize,
    ) -> Self {
        Self { grid_dims, sort_dim, cells_per_dim }
    }
}

/// A quantile-boundary grid file with contiguous row-store cells.
#[derive(Clone, Debug, PartialEq)]
pub struct GridFile {
    dims: usize,
    grid_dims: Vec<usize>,
    /// Per gridded attribute: `cells_per_dim + 1` ascending boundaries.
    boundaries: Vec<Vec<Value>>,
    /// Per gridded attribute: row-major stride inside the directory.
    strides: Vec<usize>,
    cells_per_dim: usize,
    pages: PageStore,
}

impl GridFile {
    /// Builds the grid file over `dataset`; row `i` keeps id `i`.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration: out-of-range dims, duplicate or
    /// unsorted `grid_dims`, `sort_dim` also gridded, zero cells, or a
    /// directory larger than the 2²⁸-cell safety cap.
    pub fn build(dataset: &Dataset, config: &GridFileConfig) -> Self {
        Self::build_with_ids(dataset, &dataset.row_ids().collect::<Vec<_>>(), config)
    }

    /// [`GridFile::build`] with row `i` stored under id `ids[i]`.
    pub fn build_with_ids(dataset: &Dataset, ids: &[RowId], config: &GridFileConfig) -> Self {
        let dims = dataset.dims();
        let k = config.cells_per_dim;
        assert!(k > 0, "cells_per_dim must be positive");
        assert!(
            config.grid_dims.windows(2).all(|w| w[0] < w[1]),
            "grid_dims must be strictly ascending (original attribute order)"
        );
        assert!(config.grid_dims.iter().all(|&d| d < dims), "grid dimension out of range");
        if let Some(sd) = config.sort_dim {
            assert!(sd < dims, "sort dimension out of range");
            assert!(!config.grid_dims.contains(&sd), "sort dimension must not also be gridded");
        }
        let n_cells = k
            .checked_pow(config.grid_dims.len() as u32)
            .filter(|&c| c <= MAX_CELLS)
            // coax-analyze: allow(panic-free-library, documented build-time capacity check on a caller-chosen config — build() has no error channel and a silently truncated directory would be worse)
            .expect("grid directory too large; reduce cells_per_dim or grid_dims");

        let boundaries: Vec<Vec<Value>> = config
            .grid_dims
            .iter()
            .map(|&d| equi_depth_boundaries(dataset.column(d), k))
            .collect();

        // Row-major strides in original attribute order: the last gridded
        // attribute varies fastest.
        let g = config.grid_dims.len();
        let mut strides = vec![1usize; g];
        for i in (0..g.saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * k;
        }

        let cell_of = cell_of(&config.grid_dims, &boundaries, &strides, dataset);
        let pages = PageStore::build(dataset, ids, n_cells, config.sort_dim, cell_of);

        Self {
            dims,
            grid_dims: config.grid_dims.clone(),
            boundaries,
            strides,
            cells_per_dim: k,
            pages,
        }
    }

    /// This grid plus `rows`, row `i` under id `ids[i]`, with the
    /// directory frozen: interior quantile boundaries, strides and
    /// `cells_per_dim` stay as built, so every stored row keeps its cell.
    ///
    /// Each gridded attribute's outer boundaries widen to cover the new
    /// rows. A row beyond the build range is clamped into an edge cell,
    /// and without the wider edges the data-range early-out in the
    /// directory probe would skip it. The pages merge in one pass
    /// ([`PageStore::absorbed`]).
    ///
    /// # Panics
    ///
    /// Panics if `rows` has another dimensionality or not one id per row.
    pub fn absorbed(&self, rows: &Dataset, ids: &[RowId]) -> Self {
        let mut boundaries = self.boundaries.clone();
        for (b, &d) in boundaries.iter_mut().zip(&self.grid_dims) {
            if let Some((lo, hi)) = rows.min_max(d) {
                let k = b.len() - 1;
                b[0] = b[0].min(lo);
                b[k] = b[k].max(hi);
            }
        }
        let pages = self.pages.absorbed(
            rows,
            ids,
            cell_of(&self.grid_dims, &boundaries, &self.strides, rows),
        );
        Self {
            dims: self.dims,
            grid_dims: self.grid_dims.clone(),
            boundaries,
            strides: self.strides.clone(),
            cells_per_dim: self.cells_per_dim,
            pages,
        }
    }

    /// Attributes carrying grid lines.
    pub fn grid_dims(&self) -> &[usize] {
        &self.grid_dims
    }

    /// The in-cell sorted attribute, if configured.
    pub fn sort_dim(&self) -> Option<usize> {
        self.pages.sort_dim()
    }

    /// Total number of directory cells.
    pub fn n_cells(&self) -> usize {
        self.pages.n_cells()
    }

    /// Row count of every cell — Fig. 4a plots this distribution.
    pub fn cell_lengths(&self) -> Vec<usize> {
        self.pages.cell_lengths()
    }

    /// Range query with separate *navigation* and *filter* predicates.
    ///
    /// Directory ranges and the in-cell binary search use `nav`; row
    /// acceptance uses `filter`. COAX navigates with its translated query
    /// while filtering with the user's original one. `nav` must not
    /// exclude any `filter`-matching row stored in this index — COAX
    /// guarantees that through the soft-FD margin invariant.
    ///
    /// A `nav` pinned (`lo == hi`) on every gridded attribute names one
    /// cell, found by arithmetic with no allocation; any other `nav`
    /// walks the directory cell ranges it intersects in ascending
    /// odometer order. Both apply the same per-attribute rule, so a
    /// pinned `nav` visits the one cell the walk would.
    pub fn range_query_filtered(
        &self,
        nav: &RangeQuery,
        filter: &RangeQuery,
        out: &mut Vec<RowId>,
    ) -> ScanStats {
        assert_eq!(filter.dims(), self.dims, "filter query dimensionality mismatch");
        assert_eq!(nav.dims(), self.dims, "nav query dimensionality mismatch");
        let mut stats = ScanStats::default();
        let mut scan = |addr| {
            stats.cells_visited += 1;
            let (examined, matched) = self.pages.scan_cell_narrowed(addr, nav, filter, out);
            stats.rows_examined += examined;
            stats.matches += matched;
        };
        if self.grid_dims.iter().all(|&d| nav.lo(d) == nav.hi(d)) {
            if let Some(addr) = self.point_cell(nav) {
                scan(addr);
            }
        } else if let Some(ranges) = self.cell_ranges(nav) {
            for_each_address(&ranges, &self.strides, scan);
        }
        stats
    }

    /// Whether `nav` can visit any cell at all: `false` for an empty
    /// store or an empty rectangle.
    fn navigable(&self, nav: &RangeQuery) -> bool {
        assert_eq!(nav.dims(), self.dims, "nav query dimensionality mismatch");
        !self.pages.is_empty() && !nav.is_empty()
    }

    /// The one navigation rule: the inclusive cell range of gridded
    /// attribute `i` that `nav` intersects, or `None` when `nav` misses
    /// the attribute's data range. Each finite bound goes to its
    /// [`cell_index`], and an infinite one to the edge cell on its side.
    fn attribute_cells(&self, i: usize, nav: &RangeQuery) -> Option<(usize, usize)> {
        let b = &self.boundaries[i];
        let (lo, hi) = (nav.lo(self.grid_dims[i]), nav.hi(self.grid_dims[i]));
        if hi < b[0] || lo > b[b.len() - 1] {
            return None;
        }
        let c_lo = if lo == f64::NEG_INFINITY { 0 } else { cell_index(b, lo) };
        let c_hi = if hi == f64::INFINITY { self.cells_per_dim - 1 } else { cell_index(b, hi) };
        Some((c_lo, c_hi))
    }

    /// Per gridded attribute, the inclusive directory-cell range
    /// intersecting `nav` ([`GridFile::attribute_cells`]) — `None` when
    /// no cell is visited at all (empty store, empty rectangle, or a
    /// probe that provably misses the data range on some attribute). The
    /// odometer walks these ranges for a ranged materialized scan and
    /// for every streaming cursor.
    fn cell_ranges(&self, nav: &RangeQuery) -> Option<Vec<(usize, usize)>> {
        if !self.navigable(nav) {
            return None;
        }
        (0..self.grid_dims.len()).map(|i| self.attribute_cells(i, nav)).collect()
    }

    /// The address of the one cell a `nav` pinned on every gridded
    /// attribute visits — each attribute's cell from
    /// [`GridFile::attribute_cells`] times its stride, the one address
    /// the odometer over [`GridFile::cell_ranges`] would yield — or
    /// `None` when it visits no cell.
    fn point_cell(&self, nav: &RangeQuery) -> Option<usize> {
        if !self.navigable(nav) {
            return None;
        }
        self.strides.iter().enumerate().try_fold(0, |addr, (i, stride)| {
            Some(addr + self.attribute_cells(i, nav)?.0 * stride)
        })
    }

    /// Streaming navigate-and-filter scan: a [`RowCursor`] yielding one
    /// chunk per directory cell, in the same ascending odometer order —
    /// and with the same per-cell binary searches and filter checks — as
    /// [`GridFile::range_query_filtered`], so the concatenated chunks and
    /// the final [`crate::ScanStats`] are identical to the materialized
    /// call. First results leave after the first populated cell instead
    /// of after the whole directory pass.
    pub fn filtered_cursor(&self, nav: &RangeQuery, filter: &RangeQuery) -> RowCursor<'_> {
        assert_eq!(filter.dims(), self.dims, "filter query dimensionality mismatch");
        let odometer = match self.cell_ranges(nav) {
            Some(ranges) => Odometer::new(ranges, self.strides.clone()),
            None => Odometer::empty(),
        };
        RowCursor::new(Box::new(CellCursor {
            grid: self,
            nav: nav.clone(),
            filter: filter.clone(),
            odometer,
        }))
    }
}

/// The incremental scan behind [`GridFile::filtered_cursor`]: each
/// `next_chunk` call visits the next odometer address and scans that one
/// cell, exactly as the materialized pass would.
struct CellCursor<'a> {
    grid: &'a GridFile,
    nav: RangeQuery,
    filter: RangeQuery,
    /// `'static`: the cursor owns its range/stride copies — it outlives
    /// the call that computed them.
    odometer: Odometer<'static>,
}

impl CursorSource for CellCursor<'_> {
    fn next_chunk(&mut self, out: &mut Vec<RowId>, stats: &mut ScanStats) -> bool {
        let Some(addr) = self.odometer.next() else {
            return false;
        };
        stats.cells_visited += 1;
        let (examined, matched) =
            self.grid.pages.scan_cell_narrowed(addr, &self.nav, &self.filter, out);
        stats.rows_examined += examined;
        stats.matches += matched;
        true
    }
}

impl MultidimIndex for GridFile {
    fn name(&self) -> &str {
        "grid-file"
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn len(&self) -> usize {
        self.pages.len()
    }

    fn range_query_stats(&self, query: &RangeQuery, out: &mut Vec<RowId>) -> ScanStats {
        GridFile::range_query_filtered(self, query, query, out)
    }

    /// Fused override of the trait's probe-then-filter default: the
    /// directory ranges and the in-cell binary search are narrowed by
    /// `nav` while rows are accepted against `filter`, in one pass — the
    /// COAX primary's hot path loses nothing to the trait seam.
    fn range_query_filtered(
        &self,
        nav: &RangeQuery,
        filter: &RangeQuery,
        out: &mut Vec<RowId>,
    ) -> ScanStats {
        GridFile::range_query_filtered(self, nav, filter, out)
    }

    /// Streaming override: one chunk per directory cell, ascending
    /// odometer order (see [`GridFile::filtered_cursor`]).
    fn range_query_cursor(&self, query: &RangeQuery) -> RowCursor<'_> {
        self.filtered_cursor(query, query)
    }

    /// Streaming navigate-and-filter override (see
    /// [`GridFile::filtered_cursor`]).
    fn range_query_filtered_cursor(
        &self,
        nav: &RangeQuery,
        filter: &RangeQuery,
    ) -> RowCursor<'_> {
        self.filtered_cursor(nav, filter)
    }

    /// Cell order, packed order within each cell — rows gathered back
    /// from the column slabs (used by COAX's rebuild path to reconstruct
    /// its dataset).
    fn for_each_entry(&self, f: &mut dyn FnMut(RowId, &[Value])) {
        self.pages.for_each_entry(f)
    }

    /// One merge pass into a frozen directory (see
    /// [`GridFile::absorbed`]): COAX's fold path.
    fn absorbed(&self, rows: &Dataset, ids: &[RowId]) -> Option<Box<dyn MultidimIndex>> {
        Some(Box::new(GridFile::absorbed(self, rows, ids)))
    }

    fn memory_overhead(&self) -> usize {
        let boundary_bytes: usize =
            self.boundaries.iter().map(|b| b.len() * std::mem::size_of::<Value>()).sum();
        boundary_bytes + self.pages.offsets_bytes()
    }
}

/// The directory address of each row of `dataset`: one [`cell_index`]
/// per gridded attribute, weighted by its row-major stride.
fn cell_of<'a>(
    grid_dims: &'a [usize],
    boundaries: &'a [Vec<Value>],
    strides: &'a [usize],
    dataset: &'a Dataset,
) -> impl Fn(RowId) -> usize + 'a {
    move |r| {
        grid_dims
            .iter()
            .zip(boundaries)
            .zip(strides)
            .map(|((&d, b), s)| cell_index(b, dataset.value(r, d)) * s)
            .sum()
    }
}

/// Cell index of value `v` given ascending boundaries `b` of length `k+1`:
/// cell `i` covers `[b[i], b[i+1])`, the last cell is closed, and
/// out-of-range values clamp into the edge cells (needed for queries whose
/// bounds exceed the data range and for future inserts).
fn cell_index(b: &[Value], v: Value) -> usize {
    let k = b.len() - 1;
    if k <= 1 {
        return 0;
    }
    // Interior boundaries are b[1..k]; count how many are <= v.
    let interior = &b[1..k];
    interior.partition_point(|&x| x <= v)
}

/// Ascending odometer over the Cartesian product of inclusive `ranges`,
/// yielding each cell's linear directory address. With no gridded
/// dimensions there is exactly one cell: address 0. This is the **only**
/// directory-traversal order in the crate — the materialized scan and
/// the streaming cursor both draw addresses from it, so their cell order
/// cannot diverge.
///
/// Ranges and strides are `Cow` so the materialized hot path borrows
/// them allocation-free while the streaming cursor (which outlives the
/// call that computed its ranges) owns its copies.
struct Odometer<'a> {
    ranges: std::borrow::Cow<'a, [(usize, usize)]>,
    strides: std::borrow::Cow<'a, [usize]>,
    idx: Vec<usize>,
    done: bool,
}

impl<'a> Odometer<'a> {
    fn new(
        ranges: impl Into<std::borrow::Cow<'a, [(usize, usize)]>>,
        strides: impl Into<std::borrow::Cow<'a, [usize]>>,
    ) -> Self {
        let (ranges, strides) = (ranges.into(), strides.into());
        debug_assert_eq!(ranges.len(), strides.len());
        let idx = ranges.iter().map(|r| r.0).collect();
        Self { ranges, strides, idx, done: false }
    }

    /// An odometer that yields no address at all (the navigation
    /// rectangle provably misses every cell).
    fn empty() -> Odometer<'static> {
        Odometer {
            ranges: Vec::new().into(),
            strides: Vec::new().into(),
            idx: Vec::new(),
            done: true,
        }
    }
}

impl Iterator for Odometer<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.done {
            return None;
        }
        let addr = self.idx.iter().zip(self.strides.iter()).map(|(i, s)| i * s).sum();
        if self.ranges.is_empty() {
            self.done = true;
            return Some(addr);
        }
        let mut d = self.ranges.len() - 1;
        loop {
            self.idx[d] += 1;
            if self.idx[d] <= self.ranges[d].1 {
                break;
            }
            self.idx[d] = self.ranges[d].0;
            if d == 0 {
                self.done = true;
                break;
            }
            d -= 1;
        }
        Some(addr)
    }
}

/// Invokes `f` with every address of the odometer pass (the callback
/// shape the materialized scans use; the odometer borrows both slices).
fn for_each_address(ranges: &[(usize, usize)], strides: &[usize], f: impl FnMut(usize)) {
    Odometer::new(ranges, strides).for_each(f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full_scan::FullScan;
    use coax_data::synth::{Generator, UniformConfig};

    fn grid_matches_fullscan(ds: &Dataset, config: &GridFileConfig, queries: &[RangeQuery]) {
        let grid = GridFile::build(ds, config);
        let fs = FullScan::build(ds);
        for q in queries {
            let mut expected = fs.range_query(q);
            let mut got = grid.range_query(q);
            expected.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expected, "query {q:?}");
        }
    }

    #[test]
    fn cell_index_basics() {
        let b = vec![0.0, 10.0, 20.0, 30.0];
        assert_eq!(cell_index(&b, -5.0), 0);
        assert_eq!(cell_index(&b, 0.0), 0);
        assert_eq!(cell_index(&b, 9.99), 0);
        assert_eq!(cell_index(&b, 10.0), 1);
        assert_eq!(cell_index(&b, 29.9), 2);
        assert_eq!(cell_index(&b, 30.0), 2);
        assert_eq!(cell_index(&b, 99.0), 2);
    }

    #[test]
    fn cell_index_with_duplicate_boundaries() {
        // Heavy repetition collapses boundaries: [1,1,1,9].
        let b = vec![1.0, 1.0, 1.0, 9.0];
        assert_eq!(cell_index(&b, 0.5), 0);
        assert_eq!(cell_index(&b, 1.0), 2); // lands after both duplicate interior bounds
        assert_eq!(cell_index(&b, 5.0), 2);
    }

    #[test]
    fn for_each_address_covers_product() {
        let mut seen = Vec::new();
        for_each_address(&[(0, 1), (1, 2)], &[3, 1], |a| seen.push(a));
        assert_eq!(seen, vec![1, 2, 4, 5]);
        // No gridded dims → single cell 0.
        let mut single = Vec::new();
        for_each_address(&[], &[], |a| single.push(a));
        assert_eq!(single, vec![0]);
    }

    #[test]
    fn equivalence_with_fullscan_uniform_data() {
        let ds = UniformConfig::cube(3, 1500, 21).generate();
        let queries: Vec<RangeQuery> =
            coax_data::workload::knn_rectangle_queries(&ds, 12, 30, 1);
        grid_matches_fullscan(&ds, &GridFileConfig::all_dims(3, 4), &queries);
        grid_matches_fullscan(&ds, &GridFileConfig::with_sort(3, 1, 5), &queries);
        grid_matches_fullscan(&ds, &GridFileConfig::subset(vec![0], Some(2), 6), &queries);
    }

    #[test]
    fn point_queries_hit() {
        let ds = UniformConfig::cube(2, 400, 3).generate();
        let grid = GridFile::build(&ds, &GridFileConfig::with_sort(2, 1, 8));
        for r in [0u32, 17, 399] {
            let q = RangeQuery::point(&ds.row(r));
            let hits = grid.range_query(&q);
            assert!(hits.contains(&r), "point query must find its own row");
        }
    }

    /// Answers `q` on `grid` by both traversals: the materialized probe
    /// (the point path when `q` pins every gridded attribute) must equal
    /// the cursor, which walks the odometer over `cell_ranges`, in ids
    /// and `ScanStats`, and its ids must be `FullScan`'s. Returns the
    /// probe's stats.
    fn assert_navigation_agrees(grid: &GridFile, fs: &FullScan, q: &RangeQuery) -> ScanStats {
        let mut ids = Vec::new();
        let stats = grid.range_query_filtered(q, q, &mut ids);
        let cursor = grid.filtered_cursor(q, q).collect_with_stats();
        assert_eq!(cursor, (ids.clone(), stats), "cursor diverged on {q:?}");
        let mut want = fs.range_query(q);
        ids.sort_unstable();
        want.sort_unstable();
        assert_eq!(ids, want, "ids diverged from FullScan on {q:?}");
        stats
    }

    #[test]
    fn point_navigation_matches_the_cell_ranges_walk() {
        // Lattice columns in [-1, 1]: boundaries fall on values many rows
        // share, and 0.0 is a data value; row 0 holds -0.0 on attribute 0.
        let lattice = |step: usize, m: usize| -> Vec<Value> {
            let half = (m / 2) as Value;
            (0..600).map(|i| ((i * step) % m) as Value / half - 1.0).collect()
        };
        let mut cols = vec![lattice(37, 100), lattice(53, 66), lattice(11, 88)];
        cols[0][0] = -0.0;
        let ds = Dataset::new(cols);
        let fs = FullScan::build(&ds);
        for config in [
            GridFileConfig::with_sort(3, 2, 4),
            GridFileConfig::all_dims(3, 5),
            GridFileConfig::subset(vec![1], None, 6),
            GridFileConfig::subset(vec![], Some(2), 4),
            GridFileConfig::subset(vec![], None, 4),
        ] {
            let grid = GridFile::build(&ds, &config);
            let point = |r: usize| RangeQuery::point(&ds.row(r as RowId));
            let mut queries: Vec<RangeQuery> = (0..ds.len()).step_by(29).map(point).collect();
            for (i, &d) in grid.grid_dims.iter().enumerate() {
                let b = &grid.boundaries[i];
                let (first, last) = (b[0], b[b.len() - 1]);
                // Every boundary, the first and the last included, then
                // just outside the data range, then both signed zeros.
                let values = b.iter().copied().chain([first - 1e-9, last + 1e-9, 0.0, -0.0]);
                for v in values {
                    // A row holding `v` on `d` (if any), and row 1 with
                    // `v` put in: a hit and, most likely, a miss.
                    let holder = (0..ds.len()).find(|&r| ds.value(r as RowId, d) == v);
                    for r in holder.into_iter().chain([1]) {
                        let mut q = point(r);
                        q.constrain(d, v, v);
                        queries.push(q);
                    }
                }
            }
            // Pinned on every gridded attribute, ranged on the rest.
            for r in [0, 5, 300] {
                for (lo, hi) in [(-0.5, 0.5), (Value::NEG_INFINITY, Value::INFINITY)] {
                    let mut q = point(r);
                    for d in (0..3).filter(|d| !grid.grid_dims.contains(d)) {
                        q.constrain(d, lo, hi);
                    }
                    queries.push(q);
                }
            }
            let mut hits = 0;
            for q in &queries {
                let stats = assert_navigation_agrees(&grid, &fs, q);
                assert!(stats.cells_visited <= 1, "{config:?}: a pinned nav visited >1 cell");
                hits += usize::from(stats.matches > 0);
                let outside = grid.grid_dims.iter().enumerate().any(|(i, &d)| {
                    let b = &grid.boundaries[i];
                    q.lo(d) < b[0] || q.lo(d) > b[b.len() - 1]
                });
                if outside {
                    assert_eq!(stats.cells_visited, 0, "{config:?}: {q:?} outside the data");
                }
            }
            assert!(
                hits * 2 > queries.len(),
                "{config:?}: {hits} of {} queries hit",
                queries.len()
            );
        }
    }

    #[test]
    fn miss_outside_data_range_visits_no_cells() {
        let ds = UniformConfig::cube(2, 100, 4).generate();
        let grid = GridFile::build(&ds, &GridFileConfig::all_dims(2, 4));
        let mut q = RangeQuery::unbounded(2);
        q.constrain(0, 5.0, 6.0); // data is in [0, 1]
        let mut out = Vec::new();
        let stats = grid.range_query_stats(&q, &mut out);
        assert_eq!(stats.cells_visited, 0);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_rectangle_returns_nothing() {
        let ds = UniformConfig::cube(2, 100, 5).generate();
        let grid = GridFile::build(&ds, &GridFileConfig::all_dims(2, 3));
        let mut q = RangeQuery::unbounded(2);
        q.constrain(1, 0.9, 0.1);
        assert!(grid.range_query(&q).is_empty());
    }

    #[test]
    fn quantile_boundaries_balance_cells_on_skewed_data() {
        // Exponential-ish skew on dim 0.
        let xs: Vec<f64> = (0..2000).map(|i| (i as f64 / 100.0).exp()).collect();
        let ys: Vec<f64> = (0..2000).map(|i| i as f64).collect();
        let ds = Dataset::new(vec![xs, ys]);
        let grid = GridFile::build(&ds, &GridFileConfig::subset(vec![0], None, 10));
        let lengths = grid.cell_lengths();
        let (min, max) = (*lengths.iter().min().unwrap(), *lengths.iter().max().unwrap());
        assert!(max <= min + 2, "equi-depth cells should be balanced, got min={min} max={max}");
    }

    #[test]
    fn sorted_dim_reduces_rows_examined() {
        let ds = UniformConfig::cube(2, 5000, 6).generate();
        // One big cell on dim 0, sort on dim 1.
        let sorted = GridFile::build(&ds, &GridFileConfig::subset(vec![0], Some(1), 1));
        let flat = GridFile::build(&ds, &GridFileConfig::subset(vec![0], None, 1));
        let mut q = RangeQuery::unbounded(2);
        q.constrain(1, 0.4, 0.41);
        let mut out = Vec::new();
        let s_sorted = sorted.range_query_stats(&q, &mut out);
        out.clear();
        let s_flat = flat.range_query_stats(&q, &mut out);
        assert_eq!(s_sorted.matches, s_flat.matches);
        assert!(
            s_sorted.rows_examined * 10 < s_flat.rows_examined,
            "binary search should skip most rows: {} vs {}",
            s_sorted.rows_examined,
            s_flat.rows_examined
        );
    }

    #[test]
    fn nav_filter_split_navigates_with_tighter_bounds() {
        let ds = UniformConfig::cube(2, 2000, 7).generate();
        let grid = GridFile::build(&ds, &GridFileConfig::with_sort(2, 1, 8));
        let filter = RangeQuery::unbounded(2);
        let mut nav = RangeQuery::unbounded(2);
        nav.constrain(0, 0.0, 0.25);
        let mut out = Vec::new();
        let stats = grid.range_query_filtered(&nav, &filter, &mut out);
        // Navigation restricted to ~1/4 of the directory; the unbounded
        // filter accepts every row scanned there.
        assert!(stats.cells_visited <= grid.n_cells() / 2);
        assert_eq!(stats.matches, out.len());
        assert!(out.len() < ds.len());
    }

    #[test]
    fn identical_probes_are_fully_deduplicated() {
        let ds = UniformConfig::cube(2, 1000, 24).generate();
        let grid = GridFile::build(&ds, &GridFileConfig::all_dims(2, 4));
        let mut q = RangeQuery::unbounded(2);
        q.constrain(0, 0.2, 0.8);
        let results = grid.batch_query(&vec![q.clone(); 5]);
        // Five identical queries share one distinct answer, and every
        // copy reports the full sequential counters.
        assert_eq!(crate::DistinctQueries::new(&vec![q.clone(); 5]).len(), 1);
        let mut ids = Vec::new();
        let stats = grid.range_query_stats(&q, &mut ids);
        for r in &results {
            assert_eq!(r.stats, stats);
            assert_eq!(r.ids, ids);
        }
    }

    #[test]
    fn batched_probe_equivalence_randomized() {
        use coax_data::workload::knn_rectangle_queries;
        for seed in 0..4u64 {
            let ds = UniformConfig::cube(3, 2000, 60 + seed).generate();
            let grid = GridFile::build(&ds, &GridFileConfig::with_sort(3, 2, 5));
            let mut queries = knn_rectangle_queries(&ds, 20, 30, seed);
            // An empty rectangle, a miss, and repeats of earlier queries.
            let mut empty = RangeQuery::unbounded(3);
            empty.constrain(1, 2.0, 1.0);
            queries.push(empty);
            let mut miss = RangeQuery::unbounded(3);
            miss.constrain(0, 50.0, 60.0); // data lives in [0, 1]
            queries.push(miss);
            queries.extend(queries.clone().into_iter().step_by(3));
            let batched = grid.batch_query(&queries);
            for (q, r) in queries.iter().zip(&batched) {
                let mut ids = Vec::new();
                let stats = grid.range_query_stats(q, &mut ids);
                assert_eq!(r.stats, stats, "stats diverged (seed {seed})");
                assert_eq!(r.ids, ids, "ids diverged (seed {seed})");
            }
        }
    }

    #[test]
    fn cursor_streams_cell_by_cell_and_matches_materialized() {
        use coax_data::workload::knn_rectangle_queries;
        let ds = UniformConfig::cube(3, 2500, 71).generate();
        let grid = GridFile::build(&ds, &GridFileConfig::with_sort(3, 2, 5));
        let mut queries = knn_rectangle_queries(&ds, 15, 30, 72);
        let mut empty = RangeQuery::unbounded(3);
        empty.constrain(0, 2.0, 1.0);
        queries.push(empty);
        let mut miss = RangeQuery::unbounded(3);
        miss.constrain(1, 50.0, 60.0); // data lives in [0, 1]
        queries.push(miss);
        for q in &queries {
            let mut expected = Vec::new();
            let expected_stats = grid.range_query_stats(q, &mut expected);
            // Chunked consumption: every chunk comes from one cell, and
            // the cursor never visits more cells than the materialized
            // scan did.
            let mut cursor = grid.range_query_cursor(q);
            let mut ids = Vec::new();
            while let Some(chunk) = cursor.next_chunk() {
                assert!(!chunk.is_empty());
                ids.extend_from_slice(chunk);
            }
            assert_eq!(ids, expected, "ids diverged on {q:?}");
            assert_eq!(cursor.stats(), expected_stats, "stats diverged on {q:?}");
        }
    }

    #[test]
    fn cursor_first_chunk_costs_one_populated_cell() {
        let ds = UniformConfig::cube(2, 4000, 73).generate();
        let grid = GridFile::build(&ds, &GridFileConfig::all_dims(2, 8));
        let q = RangeQuery::unbounded(2);
        let full = grid.range_query_stats(&q, &mut Vec::new());
        let mut cursor = grid.range_query_cursor(&q);
        let first = cursor.next_chunk().expect("unbounded query has matches");
        assert!(!first.is_empty());
        // The streaming win: the first chunk arrives having examined at
        // most one cell's rows, not the whole structure.
        assert_eq!(cursor.stats().cells_visited, 1);
        assert!(cursor.stats().rows_examined < full.rows_examined);
        let (_, stats) = cursor.collect_with_stats();
        assert_eq!(stats, full);
    }

    #[test]
    fn memory_overhead_counts_directory_only() {
        let ds = UniformConfig::cube(2, 500, 8).generate();
        let grid = GridFile::build(&ds, &GridFileConfig::all_dims(2, 4));
        // 2 dims × 5 boundaries × 8 bytes + (16+1) offsets × 4 bytes.
        assert_eq!(grid.memory_overhead(), 2 * 5 * 8 + 17 * 4);
    }

    #[test]
    fn empty_dataset_builds_and_queries() {
        let ds = Dataset::new(vec![vec![], vec![]]);
        let grid = GridFile::build(&ds, &GridFileConfig::all_dims(2, 3));
        assert!(grid.is_empty());
        assert!(grid.range_query(&RangeQuery::unbounded(2)).is_empty());
    }

    /// `base` rows, then `extra` rows from a cube shifted by `offset` on
    /// every attribute — beyond the build range when `offset` ≥ 1.
    fn union_with_shifted(base: &Dataset, extra: usize, offset: f64, seed: u64) -> Dataset {
        let shifted = UniformConfig::cube(base.dims(), extra, seed).generate();
        Dataset::new(
            (0..base.dims())
                .map(|d| {
                    let mut col = base.column(d).to_vec();
                    col.extend(shifted.column(d).iter().map(|v| v + offset));
                    col
                })
                .collect(),
        )
    }

    fn split(ds: &Dataset, at: usize) -> (Dataset, Dataset) {
        let rows = |r: std::ops::Range<usize>| r.map(|r| r as RowId).collect::<Vec<_>>();
        (ds.take_rows(&rows(0..at)), ds.take_rows(&rows(at..ds.len())))
    }

    #[test]
    fn absorbed_grid_matches_fullscan_over_the_union() {
        use coax_data::workload::knn_rectangle_queries;
        let base = UniformConfig::cube(3, 400, 81).generate();
        for offset in [0.0, 0.5] {
            let ds = union_with_shifted(&base, 150, offset, 82);
            let (prefix, suffix) = split(&ds, base.len());
            let suffix_ids: Vec<RowId> = (base.len() as RowId..ds.len() as RowId).collect();
            let fs = FullScan::build(&ds);
            let mut queries = knn_rectangle_queries(&ds, 12, 30, 83);
            queries.push(RangeQuery::unbounded(3));
            for config in [
                GridFileConfig::all_dims(3, 4),
                GridFileConfig::with_sort(3, 1, 5),
                GridFileConfig::subset(vec![0], Some(2), 6),
            ] {
                let grid = GridFile::build(&prefix, &config).absorbed(&suffix, &suffix_ids);
                assert_eq!(grid.len(), ds.len());
                for q in &queries {
                    let (mut got, mut want) = (grid.range_query(q), fs.range_query(q));
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "{config:?}, offset {offset}, {q:?}");
                }
            }
        }
    }

    #[test]
    fn absorbed_row_beyond_the_build_range_is_found() {
        let ds = UniformConfig::cube(2, 200, 84).generate();
        let grid = GridFile::build(&ds, &GridFileConfig::all_dims(2, 4));
        let far = Dataset::new(vec![vec![5.0], vec![0.5]]);
        let grown = grid.absorbed(&far, &[200]);
        // Attribute 0's outer edge widened to the new row; the interior
        // boundaries and the directory size did not move.
        assert_eq!(grown.boundaries[0][4], 5.0);
        assert_eq!(grown.boundaries[0][1..4], grid.boundaries[0][1..4]);
        assert_eq!(grown.memory_overhead(), grid.memory_overhead());
        let mut q = RangeQuery::unbounded(2);
        q.constrain(0, 4.0, 6.0);
        assert_eq!(grown.range_query(&q), vec![200]);
        assert_eq!(grown.range_query(&RangeQuery::point(&[5.0, 0.5])), vec![200]);
    }

    #[test]
    fn absorbing_nothing_reproduces_the_grid() {
        let ds = UniformConfig::cube(3, 300, 85).generate();
        let none = Dataset::new(vec![vec![]; 3]);
        for config in [GridFileConfig::all_dims(3, 4), GridFileConfig::with_sort(3, 0, 3)] {
            let grid = GridFile::build(&ds, &config);
            assert_eq!(grid.absorbed(&none, &[]), grid);
        }
    }

    #[test]
    fn empty_grid_absorbs() {
        let ds = UniformConfig::cube(2, 300, 86).generate();
        let empty = Dataset::new(vec![vec![], vec![]]);
        let fs = FullScan::build(&ds);
        for config in [GridFileConfig::all_dims(2, 3), GridFileConfig::with_sort(2, 1, 4)] {
            let ids: Vec<RowId> = ds.row_ids().collect();
            let grid = GridFile::build(&empty, &config).absorbed(&ds, &ids);
            for q in coax_data::workload::knn_rectangle_queries(&ds, 8, 20, 87) {
                let (mut got, mut want) = (grid.range_query(&q), fs.range_query(&q));
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{config:?}, {q:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must not also be gridded")]
    fn sort_dim_cannot_be_gridded() {
        let ds = UniformConfig::cube(2, 10, 9).generate();
        GridFile::build(&ds, &GridFileConfig::subset(vec![0, 1], Some(1), 2));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn grid_dims_must_be_sorted() {
        let ds = UniformConfig::cube(3, 10, 9).generate();
        GridFile::build(&ds, &GridFileConfig::subset(vec![2, 0], None, 2));
    }
}
