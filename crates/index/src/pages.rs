//! Contiguous columnar cell pages shared by the grid-family indexes.
//!
//! Paper §6: *"each cell stores records in a contiguous block of virtual
//! memory"*, and rows inside a page may be *"sorted based on a given
//! function similar to the approach proposed in Flood"*, which lets one
//! grid dimension be replaced by binary search.
//!
//! A [`PageStore`] is a CSR-style layout with **columnar-within-cell**
//! pages: one `offsets` table with one entry per cell boundary, one flat
//! `ids` array holding each packed row's id (the id the row was built or
//! absorbed with), and —
//! instead of row-major packed rows — one flat slab *per dimension*, all
//! sharing the same packed order. `cols[d][offsets[c]..offsets[c + 1]]`
//! is cell `c`'s dimension-`d` values as one contiguous `&[f64]` run, so
//! the scan kernel ([`crate::kernel`]) can evaluate a rectangle one
//! dimension at a time over dense slices, and the sort-dimension binary
//! search is a plain `partition_point` on the sort column's slab.
//!
//! Scans run the vectorized kernel by default and the scalar reference
//! path when [`crate::kernel::force_scalar`] is engaged; the two are
//! bit-identical (ids, order, counters) by contract.

use crate::kernel;
use coax_data::{Dataset, RangeQuery, RowId, Value};

/// Hard cap on any grid-family directory, shared by every builder and by
/// [`crate::BackendSpec::fits`] so the skip-check and the panic-check can
/// never drift apart: 2²⁸ cells ≈ 1 GiB of offsets.
pub(crate) const MAX_CELLS: usize = 1 << 28;

/// Packed rows grouped into `n_cells` contiguous pages, stored as
/// per-dimension column slabs in a shared packed order.
#[derive(Clone, Debug, PartialEq)]
pub struct PageStore {
    dims: usize,
    /// `offsets[c]..offsets[c+1]` is the packed-row range of cell `c`.
    offsets: Vec<u32>,
    /// The id of each packed row, as given at build or absorb.
    ids: Vec<RowId>,
    /// One value slab per dimension: `cols[d][i]` is dimension `d` of
    /// packed row `i`. Every slab shares the packed order, so a cell's
    /// values for one dimension are a contiguous run.
    cols: Vec<Vec<Value>>,
    /// Attribute by which rows inside every cell are sorted, if any.
    sort_dim: Option<usize>,
}

impl PageStore {
    /// Builds a page store by distributing every row of `dataset` into the
    /// cell `cell_of` returns for its position, optionally sorting rows
    /// inside each cell by attribute `sort_dim`. Row `i` is stored under
    /// id `ids[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `ids` does not hold one id per row, `cell_of` returns an
    /// out-of-range cell, or `sort_dim` is out of range.
    pub fn build(
        dataset: &Dataset,
        ids: &[RowId],
        n_cells: usize,
        sort_dim: Option<usize>,
        mut cell_of: impl FnMut(RowId) -> usize,
    ) -> Self {
        let dims = dataset.dims();
        if let Some(sd) = sort_dim {
            assert!(sd < dims, "sort dimension out of range");
        }
        let n = dataset.len();
        assert_eq!(ids.len(), n, "one id per row");

        // Counting sort of rows by cell.
        let mut counts = vec![0u32; n_cells + 1];
        let mut cell_ids = Vec::with_capacity(n);
        for r in dataset.row_ids() {
            let c = cell_of(r);
            assert!(c < n_cells, "cell_of returned {c} >= {n_cells}");
            counts[c + 1] += 1;
            cell_ids.push(c as u32);
        }
        for i in 0..n_cells {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();

        // The packed order, as dataset positions.
        let mut packed = vec![0 as RowId; n];
        let mut cursor = counts;
        for r in dataset.row_ids() {
            let c = cell_ids[r as usize] as usize;
            packed[cursor[c] as usize] = r;
            cursor[c] += 1;
        }

        // Sort inside each cell by the sort dimension, if requested.
        if let Some(sd) = sort_dim {
            let col = dataset.column(sd);
            for c in 0..n_cells {
                let (s, e) = (offsets[c] as usize, offsets[c + 1] as usize);
                packed[s..e]
                    .sort_unstable_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
            }
        }

        // Gather each dimension's slab in the final packed order, then map
        // the positions through the given ids once.
        let cols = (0..dims)
            .map(|d| {
                let src = dataset.column(d);
                packed.iter().map(|&r| src[r as usize]).collect()
            })
            .collect();
        for r in &mut packed {
            *r = ids[*r as usize];
        }

        Self { dims, offsets, ids: packed, cols, sort_dim }
    }

    /// This store plus `rows`, in one merge pass: row `i` of `rows` takes
    /// id `ids[i]` and lands in cell `cell_of(i)`.
    ///
    /// The new rows are counting-sorted by cell and sorted inside each
    /// cell on the sort attribute. Every old cell run is then copied with
    /// `extend_from_slice`, and each new row is slotted in at its
    /// `partition_point` on the sort column, after equal old keys (at the
    /// end of its cell when there is no sort attribute). Each cell's
    /// offset shifts by the count of new rows in the cells before it.
    ///
    /// # Panics
    ///
    /// Panics if `rows` has another dimensionality or not one id per
    /// row, the merged store would outgrow its `u32` cell offsets, or
    /// `cell_of` returns an out-of-range cell.
    pub fn absorbed(
        &self,
        rows: &Dataset,
        ids: &[RowId],
        mut cell_of: impl FnMut(RowId) -> usize,
    ) -> Self {
        assert_eq!(rows.dims(), self.dims, "absorbed rows dimensionality mismatch");
        assert_eq!(ids.len(), rows.len(), "one id per absorbed row");
        assert!(
            self.len() + rows.len() <= u32::MAX as usize,
            "absorbed store outgrows its cell offsets"
        );
        let n_cells = self.n_cells();

        // Counting sort of the new rows by cell: afterwards `shift[c]` is
        // the number of new rows in cells before `c`.
        let mut shift = vec![0u32; n_cells + 1];
        let cells: Vec<u32> = rows
            .row_ids()
            .map(|r| {
                let c = cell_of(r);
                assert!(c < n_cells, "cell_of returned {c} >= {n_cells}");
                shift[c + 1] += 1;
                c as u32
            })
            .collect();
        for i in 0..n_cells {
            shift[i + 1] += shift[i];
        }
        let mut order = vec![0 as RowId; rows.len()];
        let mut cursor = shift.clone();
        for (r, &c) in cells.iter().enumerate() {
            order[cursor[c as usize] as usize] = r as RowId;
            cursor[c as usize] += 1;
        }

        // For each new row in output order, the old packed slot it goes
        // in front of.
        let mut slots = Vec::with_capacity(rows.len());
        for c in 0..n_cells {
            let new = &mut order[shift[c] as usize..shift[c + 1] as usize];
            let (s, e) = self.cell_run(c);
            match self.sort_dim {
                Some(sd) => {
                    let keys = rows.column(sd);
                    // Stable: new rows with equal keys keep insert order.
                    new.sort_by(|&a, &b| keys[a as usize].total_cmp(&keys[b as usize]));
                    let run = &self.cols[sd][..e];
                    let mut at = s;
                    for &r in new.iter() {
                        let key = keys[r as usize];
                        at += run[at..].partition_point(|v| v.total_cmp(&key).is_le());
                        slots.push(at);
                    }
                }
                None => slots.extend(std::iter::repeat_n(e, new.len())),
            }
        }

        let offsets = self.offsets.iter().zip(&shift).map(|(&o, &s)| o + s).collect();
        let ids = merge_slots(&self.ids, &slots, &order, |r| ids[r as usize]);
        let cols = self
            .cols
            .iter()
            .enumerate()
            .map(|(d, old)| {
                let new = rows.column(d);
                merge_slots(old, &slots, &order, |r| new[r as usize])
            })
            .collect();
        Self { dims: self.dims, offsets, ids, cols, sort_dim: self.sort_dim }
    }

    /// Number of cells.
    #[inline]
    pub fn n_cells(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total rows stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if no rows are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Row dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The attribute rows are sorted by inside each cell, if any.
    #[inline]
    pub fn sort_dim(&self) -> Option<usize> {
        self.sort_dim
    }

    /// Number of rows in cell `c`.
    #[inline]
    pub fn cell_len(&self, c: usize) -> usize {
        (self.offsets[c + 1] - self.offsets[c]) as usize
    }

    /// The packed-row bounds `[start, end)` of cell `c`.
    #[inline]
    pub fn cell_run(&self, c: usize) -> (usize, usize) {
        (self.offsets[c] as usize, self.offsets[c + 1] as usize)
    }

    /// Lengths of every cell (Fig. 4a plots this distribution).
    pub fn cell_lengths(&self) -> Vec<usize> {
        (0..self.n_cells()).map(|c| self.cell_len(c)).collect()
    }

    /// The per-dimension column slabs (shared packed order).
    #[inline]
    pub fn columns(&self) -> &[Vec<Value>] {
        &self.cols
    }

    /// The packed-order id map (`packed slot → stored id`).
    #[inline]
    pub fn packed_ids(&self) -> &[RowId] {
        &self.ids
    }

    /// Scans cell `c`, appending ids of rows matching `filter` to `out`.
    /// Returns `(rows_examined, matches)`.
    ///
    /// When the store has a sort dimension and `filter` constrains it, the
    /// scan narrows to the `[lo, hi]` run found by two binary searches
    /// (paper §6: "a scan between two bounding binary searches").
    pub fn scan_cell(
        &self,
        c: usize,
        filter: &RangeQuery,
        out: &mut Vec<RowId>,
    ) -> (usize, usize) {
        self.scan_cell_narrowed(c, filter, filter, out)
    }

    /// Like [`PageStore::scan_cell`] but with separate *navigation* and
    /// *filter* predicates: the binary-search narrowing on the sort
    /// dimension uses `nav` while row acceptance uses `filter`.
    ///
    /// COAX passes its translated (tighter) query as `nav` and the user's
    /// original query as `filter`; plain indexes pass the same query twice.
    /// `nav` must be a sub-rectangle of `filter` on the sort dimension or
    /// results may be silently dropped — callers uphold this.
    ///
    /// Runs the vectorized columnar kernel unless the scalar reference
    /// path is forced ([`crate::kernel::force_scalar`]); both emit
    /// identical ids in identical (ascending packed) order with identical
    /// counters.
    pub fn scan_cell_narrowed(
        &self,
        c: usize,
        nav: &RangeQuery,
        filter: &RangeQuery,
        out: &mut Vec<RowId>,
    ) -> (usize, usize) {
        let (s, e) = self.narrowed_run(c, nav);
        let matched = if kernel::scalar_forced() {
            self.scan_run_scalar(s, e, filter, out)
        } else {
            kernel::scan_columnar(&self.cols, &self.ids, s, e, filter, out)
        };
        (e - s, matched)
    }

    /// The scalar reference scan: identical contract and results as
    /// [`PageStore::scan_cell_narrowed`], but testing rows one at a time
    /// against the whole rectangle. Kept callable directly so the
    /// differential suite and `bench --bin scan` can A/B the paths without
    /// touching the process-wide flag.
    pub fn scan_cell_narrowed_scalar(
        &self,
        c: usize,
        nav: &RangeQuery,
        filter: &RangeQuery,
        out: &mut Vec<RowId>,
    ) -> (usize, usize) {
        let (s, e) = self.narrowed_run(c, nav);
        (e - s, self.scan_run_scalar(s, e, filter, out))
    }

    /// Row-at-a-time scan of packed rows `[s, e)`: the reference the
    /// kernel must stay bit-identical to.
    fn scan_run_scalar(
        &self,
        s: usize,
        e: usize,
        filter: &RangeQuery,
        out: &mut Vec<RowId>,
    ) -> usize {
        let mut matched = 0;
        for i in s..e {
            let ok = filter
                .lows()
                .iter()
                .zip(filter.highs())
                .zip(&self.cols)
                .all(|((l, h), col)| *l <= col[i] && col[i] <= *h);
            if ok {
                out.push(self.ids[i]);
                matched += 1;
            }
        }
        matched
    }

    /// The packed-row range `[s, e)` a [`PageStore::scan_cell_narrowed`]
    /// call with this `nav` would examine in cell `c`, without scanning
    /// it: the cell's bounds, tightened by the two bounding binary
    /// searches when the store has a sort dimension `nav` constrains.
    ///
    /// A probe's `rows_examined` counter is `e − s` by construction.
    pub fn narrowed_run(&self, c: usize, nav: &RangeQuery) -> (usize, usize) {
        let (mut s, mut e) = (self.offsets[c] as usize, self.offsets[c + 1] as usize);
        if s == e {
            return (s, s);
        }
        if let Some(sd) = self.sort_dim {
            // The sort column's slab is sorted within the cell, so both
            // bounding searches are plain `partition_point`s on it.
            let col = &self.cols[sd];
            let lo = nav.lo(sd);
            let hi = nav.hi(sd);
            if lo > f64::NEG_INFINITY {
                s += col[s..e].partition_point(|&v| v < lo);
            }
            if hi < f64::INFINITY {
                e = s + col[s..e].partition_point(|&v| v <= hi);
            }
        }
        (s, e)
    }

    /// The id stored in packed slot `i` (a global packed-row position as
    /// returned in a [`PageStore::narrowed_run`] range, *not* an id).
    #[inline]
    pub fn packed_id(&self, i: usize) -> RowId {
        self.ids[i]
    }

    /// Directory overhead contributed by the offsets table, in bytes.
    pub fn offsets_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
    }

    /// Bytes of stored row payloads + id map (data, not directory).
    pub fn data_bytes(&self) -> usize {
        self.cols.iter().map(|c| c.len() * std::mem::size_of::<Value>()).sum::<usize>()
            + self.ids.len() * std::mem::size_of::<RowId>()
    }

    /// Invokes `f` with every `(id, row_values)` pair of cell
    /// `c` in packed order, gathering each row from the column slabs into
    /// `scratch` (resized to `dims`; the slice passed to `f` is only valid
    /// for that call).
    pub fn for_each_cell_entry(
        &self,
        c: usize,
        scratch: &mut Vec<Value>,
        f: &mut dyn FnMut(RowId, &[Value]),
    ) {
        scratch.resize(self.dims, 0.0);
        let (s, e) = self.cell_run(c);
        for i in s..e {
            for (d, col) in self.cols.iter().enumerate() {
                scratch[d] = col[i];
            }
            f(self.ids[i], scratch);
        }
    }

    /// Invokes `f` with every stored `(id, row_values)` pair,
    /// cells in order and packed order within each cell — the rebuild /
    /// fold traversal of the grid-family indexes.
    pub fn for_each_entry(&self, f: &mut dyn FnMut(RowId, &[Value])) {
        let mut scratch = Vec::with_capacity(self.dims);
        for c in 0..self.n_cells() {
            self.for_each_cell_entry(c, &mut scratch, f);
        }
    }
}

/// `old` with `new(order[i])` slotted in front of old slot `slots[i]`
/// for every `i` (`slots` ascending): the copy behind
/// [`PageStore::absorbed`], applied to the id map and each column slab.
fn merge_slots<T: Copy>(
    old: &[T],
    slots: &[usize],
    order: &[RowId],
    new: impl Fn(RowId) -> T,
) -> Vec<T> {
    let mut out = Vec::with_capacity(old.len() + slots.len());
    let mut from = 0;
    for (&at, &r) in slots.iter().zip(order) {
        out.extend_from_slice(&old[from..at]);
        out.push(new(r));
        from = at;
    }
    out.extend_from_slice(&old[from..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense ids: row `i` stored as id `i`.
    fn dense(ds: &Dataset) -> Vec<RowId> {
        ds.row_ids().collect()
    }

    fn dataset() -> Dataset {
        // 6 rows, 2 dims; cell = floor(x) so cells 0,1,2.
        Dataset::new(vec![
            vec![0.5, 1.5, 0.1, 2.9, 1.1, 0.9],
            vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
        ])
    }

    fn by_floor(ds: &Dataset) -> PageStore {
        PageStore::build(ds, &dense(ds), 3, None, |r| ds.value(r, 0) as usize)
    }

    fn cell_entries(ps: &PageStore, c: usize) -> Vec<(RowId, Vec<Value>)> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        ps.for_each_cell_entry(c, &mut scratch, &mut |id, row| out.push((id, row.to_vec())));
        out
    }

    #[test]
    fn build_distributes_rows() {
        let ds = dataset();
        let ps = by_floor(&ds);
        assert_eq!(ps.n_cells(), 3);
        assert_eq!(ps.len(), 6);
        assert_eq!(ps.cell_len(0), 3); // rows 0, 2, 5
        assert_eq!(ps.cell_len(1), 2); // rows 1, 4
        assert_eq!(ps.cell_len(2), 1); // row 3
        assert_eq!(ps.cell_lengths(), vec![3, 2, 1]);
    }

    #[test]
    fn columns_are_per_cell_contiguous_slabs() {
        let ds = dataset();
        let ps = by_floor(&ds);
        assert_eq!(ps.columns().len(), 2);
        let (s, e) = ps.cell_run(1);
        // Cell 1 holds rows 1 and 4 in packed order; dimension 1's slab
        // for the cell is exactly their y values, contiguous.
        assert_eq!(&ps.columns()[1][s..e], &[20.0, 50.0]);
    }

    #[test]
    fn cell_entries_round_trip() {
        let ds = dataset();
        let ps = by_floor(&ds);
        let mut ids: Vec<RowId> = cell_entries(&ps, 0).into_iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 2, 5]);
        for (id, row) in cell_entries(&ps, 1) {
            assert_eq!(row, ds.row(id));
        }
    }

    #[test]
    fn for_each_entry_visits_every_row_once() {
        let ds = dataset();
        let ps = by_floor(&ds);
        let mut seen = Vec::new();
        ps.for_each_entry(&mut |id, row| {
            assert_eq!(row, ds.row(id).as_slice());
            seen.push(id);
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn scan_cell_filters_exactly() {
        let ds = dataset();
        let ps = by_floor(&ds);
        let mut q = RangeQuery::unbounded(2);
        q.constrain(1, 25.0, 65.0);
        let mut out = Vec::new();
        let (examined, matched) = ps.scan_cell(0, &q, &mut out);
        assert_eq!(examined, 3);
        assert_eq!(matched, 2); // rows 2 (y=30) and 5 (y=60)
        out.sort_unstable();
        assert_eq!(out, vec![2, 5]);
    }

    #[test]
    fn sorted_cells_narrow_the_scan() {
        let ds = dataset();
        let ps = PageStore::build(&ds, &dense(&ds), 1, Some(1), |_| 0);
        // All six rows in one cell, sorted by y = 10..60.
        let mut q = RangeQuery::unbounded(2);
        q.constrain(1, 25.0, 45.0);
        let mut out = Vec::new();
        let (examined, matched) = ps.scan_cell(0, &q, &mut out);
        assert_eq!(examined, 2, "binary search should narrow scan to [30, 40]");
        assert_eq!(matched, 2);
        out.sort_unstable();
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn sorted_scan_handles_open_bounds() {
        let ds = dataset();
        let ps = PageStore::build(&ds, &dense(&ds), 1, Some(1), |_| 0);
        let mut q = RangeQuery::unbounded(2);
        q.constrain(1, f64::NEG_INFINITY, 15.0);
        let mut out = Vec::new();
        let (examined, matched) = ps.scan_cell(0, &q, &mut out);
        assert_eq!((examined, matched), (1, 1));
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn sorted_scan_empty_range() {
        let ds = dataset();
        let ps = PageStore::build(&ds, &dense(&ds), 1, Some(1), |_| 0);
        let mut q = RangeQuery::unbounded(2);
        // (40, 50) exclusive of both stored neighbours: nothing qualifies
        // and the two binary searches collapse the scan to zero rows.
        q.constrain(1, 41.0, 49.0);
        let mut out = Vec::new();
        let (examined, matched) = ps.scan_cell(0, &q, &mut out);
        assert_eq!((examined, matched), (0, 0));
        assert!(out.is_empty());
    }

    #[test]
    fn empty_store() {
        let ds = Dataset::new(vec![vec![], vec![]]);
        let ps = PageStore::build(&ds, &dense(&ds), 4, Some(0), |_| 0);
        assert!(ps.is_empty());
        assert_eq!(ps.n_cells(), 4);
        let mut out = Vec::new();
        assert_eq!(ps.scan_cell(2, &RangeQuery::unbounded(2), &mut out), (0, 0));
    }

    #[test]
    fn duplicate_sort_keys_are_all_found() {
        let ds = Dataset::new(vec![vec![1.0; 5], vec![7.0, 7.0, 7.0, 1.0, 9.0]]);
        let ps = PageStore::build(&ds, &dense(&ds), 1, Some(1), |_| 0);
        let mut q = RangeQuery::unbounded(2);
        q.constrain(1, 7.0, 7.0);
        let mut out = Vec::new();
        let (_, matched) = ps.scan_cell(0, &q, &mut out);
        assert_eq!(matched, 3);
    }

    #[test]
    fn scalar_reference_is_bit_identical_here() {
        let ds = dataset();
        let ps = PageStore::build(&ds, &dense(&ds), 1, Some(1), |_| 0);
        let mut q = RangeQuery::unbounded(2);
        q.constrain(0, 0.2, 1.6);
        q.constrain(1, 15.0, 55.0);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let sa = ps.scan_cell_narrowed(0, &q, &q, &mut a);
        let sb = ps.scan_cell_narrowed_scalar(0, &q, &q, &mut b);
        assert_eq!(sa, sb);
        assert_eq!(a, b);
    }

    /// 40 rows, 2 dims: x in [0, 3) picks one of 3 cells, y takes only
    /// the keys 0..6, so every cell holds runs of equal sort keys.
    fn keyed() -> Dataset {
        Dataset::new(vec![
            (0..40).map(|i| (i * 7 % 30) as f64 / 10.0).collect(),
            (0..40).map(|i| (i * 5 % 6) as f64).collect(),
        ])
    }

    fn range(ds: &Dataset, rows: std::ops::Range<usize>) -> Dataset {
        ds.take_rows(&rows.map(|r| r as RowId).collect::<Vec<_>>())
    }

    /// Builds over rows `..split`, then absorbs the rest, cells by floor(x).
    fn absorb_suffix(ds: &Dataset, split: usize, sort_dim: Option<usize>) -> PageStore {
        let (prefix, suffix) = (range(ds, 0..split), range(ds, split..ds.len()));
        let suffix_ids: Vec<RowId> = (split as RowId..ds.len() as RowId).collect();
        PageStore::build(&prefix, &dense(&prefix), 3, sort_dim, |r| prefix.value(r, 0) as usize)
            .absorbed(&suffix, &suffix_ids, |r| suffix.value(r, 0) as usize)
    }

    fn cell_ids(ps: &PageStore, c: usize) -> Vec<RowId> {
        let (s, e) = ps.cell_run(c);
        ps.packed_ids()[s..e].to_vec()
    }

    #[test]
    fn absorbed_runs_stay_sorted_with_old_rows_first() {
        let ds = keyed();
        let split = 24;
        let merged = absorb_suffix(&ds, split, Some(1));
        let fresh = PageStore::build(&ds, &dense(&ds), 3, Some(1), |r| ds.value(r, 0) as usize);
        assert_eq!(merged.len(), ds.len());
        assert_eq!(merged.cell_lengths(), fresh.cell_lengths());
        for c in 0..3 {
            let ids = cell_ids(&merged, c);
            let mut want = cell_ids(&fresh, c);
            let mut got = ids.clone();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "cell {c} holds the union's rows");
            for (id, row) in cell_entries(&merged, c) {
                assert_eq!(row, ds.row(id), "row {id} carried its values");
            }
            // Sorted on y; among equal keys, old rows first, then new
            // rows in insert order.
            for w in ids.windows(2) {
                let (a, b) = (ds.value(w[0], 1), ds.value(w[1], 1));
                assert!(a <= b, "cell {c} run unsorted: {a} before {b}");
                if a == b && w[1] < split as RowId {
                    assert!(w[0] < split as RowId, "new row {} before old row {}", w[0], w[1]);
                }
                if a == b && w[0] >= split as RowId {
                    assert!(w[0] < w[1], "new rows {} and {} out of insert order", w[0], w[1]);
                }
            }
        }
    }

    #[test]
    fn absorbed_rows_append_to_unsorted_cells() {
        let ds = keyed();
        let split = 24;
        let merged = absorb_suffix(&ds, split, None);
        let base = range(&ds, 0..split);
        let built =
            PageStore::build(&base, &dense(&base), 3, None, |r| base.value(r, 0) as usize);
        for c in 0..3 {
            let ids = cell_ids(&merged, c);
            let old = cell_ids(&built, c);
            assert_eq!(&ids[..old.len()], &old[..], "cell {c} keeps its old run first");
            let new = &ids[old.len()..];
            assert!(new.iter().all(|&id| id >= split as RowId));
            assert!(new.windows(2).all(|w| w[0] < w[1]), "cell {c}: insert order");
        }
    }

    #[test]
    fn absorbed_scans_find_every_match() {
        let ds = keyed();
        let merged = absorb_suffix(&ds, 17, Some(1));
        let mut q = RangeQuery::unbounded(2);
        q.constrain(1, 2.0, 3.0);
        let mut got = Vec::new();
        for c in 0..3 {
            merged.scan_cell(c, &q, &mut got);
        }
        got.sort_unstable();
        let want: Vec<RowId> = ds.row_ids().filter(|&r| q.matches(&ds.row(r))).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn absorbing_nothing_reproduces_the_store() {
        let ds = keyed();
        let none = Dataset::new(vec![vec![], vec![]]);
        for sort_dim in [None, Some(1)] {
            let ps =
                PageStore::build(&ds, &dense(&ds), 3, sort_dim, |r| ds.value(r, 0) as usize);
            assert_eq!(ps.absorbed(&none, &[], |_| unreachable!()), ps);
        }
    }

    #[test]
    fn empty_store_absorbs() {
        let ds = keyed();
        let merged = absorb_suffix(&ds, 0, Some(1));
        let fresh = PageStore::build(&ds, &dense(&ds), 3, Some(1), |r| ds.value(r, 0) as usize);
        assert_eq!(merged.cell_lengths(), fresh.cell_lengths());
        for c in 0..3 {
            let (mut got, mut want) = (cell_ids(&merged, c), cell_ids(&fresh, c));
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "cell {c}");
        }
        // Both sorted on y: the sort column is identical cell for cell.
        assert_eq!(merged.columns()[1], fresh.columns()[1]);
    }

    #[test]
    fn memory_accounting() {
        let ds = dataset();
        let ps = by_floor(&ds);
        assert_eq!(ps.offsets_bytes(), 4 * 4);
        assert_eq!(ps.data_bytes(), 6 * 2 * 8 + 6 * 4);
    }
}
