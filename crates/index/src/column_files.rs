//! The paper's "column files" baseline (§8.1.3).
//!
//! *"Essentially a non-uniform grid, uses the CDF of the data to
//! align/arrange its cell boundaries and sorts data within each cell based
//! on one of the attributes in the data, thus reducing the dimensionality
//! of the index by one."* It is Flood without workload-awareness: the grid
//! layout comes from the data distribution alone.
//!
//! Implementation-wise this is exactly a [`GridFile`] with quantile
//! boundaries over all attributes but one, and the remaining attribute
//! sorted inside each cell — so the type is a thin, self-documenting
//! wrapper that also knows how to pick a good sort dimension.

use crate::grid_file::{GridFile, GridFileConfig};
use crate::traits::{MultidimIndex, RowCursor, ScanStats};
use coax_data::{Dataset, RangeQuery, RowId, Value};

/// CDF-aligned grid over `d − 1` attributes with the last attribute sorted
/// inside each cell.
#[derive(Clone, Debug)]
pub struct ColumnFiles {
    inner: GridFile,
}

impl ColumnFiles {
    /// Builds with an explicit sort dimension (the paper tunes "chunk size
    /// and sort dimension" per workload, §8.2.1); row `i` keeps id `i`.
    pub fn build(dataset: &Dataset, sort_dim: usize, cells_per_dim: usize) -> Self {
        let ids: Vec<RowId> = dataset.row_ids().collect();
        Self::build_with_ids(dataset, &ids, Some(sort_dim), cells_per_dim)
    }

    /// Builds choosing the sort dimension automatically: the attribute with
    /// the most distinct values in a bounded prefix sample. Sorting pays
    /// off most on near-unique attributes (binary search cuts deepest) and
    /// least on low-cardinality ones, where whole runs share one key.
    pub fn build_auto(dataset: &Dataset, cells_per_dim: usize) -> Self {
        let ids: Vec<RowId> = dataset.row_ids().collect();
        Self::build_with_ids(dataset, &ids, None, cells_per_dim)
    }

    /// [`ColumnFiles::build`] (or, for `sort_dim: None`,
    /// [`ColumnFiles::build_auto`]) with row `i` stored under id `ids[i]`.
    pub fn build_with_ids(
        dataset: &Dataset,
        ids: &[RowId],
        sort_dim: Option<usize>,
        cells_per_dim: usize,
    ) -> Self {
        let sort_dim = sort_dim.unwrap_or_else(|| pick_sort_dim(dataset));
        let config = GridFileConfig::with_sort(dataset.dims(), sort_dim, cells_per_dim);
        Self { inner: GridFile::build_with_ids(dataset, ids, &config) }
    }

    /// The sorted attribute.
    pub fn sort_dim(&self) -> usize {
        // coax-analyze: allow(panic-free-library, construction invariant: both constructors pass Some(sort_dim) to the inner grid, so the None arm is unreachable)
        self.inner.sort_dim().expect("column files always sort one attribute")
    }

    /// Total directory cells.
    pub fn n_cells(&self) -> usize {
        self.inner.n_cells()
    }

    /// Access to the underlying grid file (diagnostics).
    pub fn grid(&self) -> &GridFile {
        &self.inner
    }
}

/// Attribute with the highest distinct-value count over a bounded sample.
fn pick_sort_dim(dataset: &Dataset) -> usize {
    const SAMPLE: usize = 4096;
    let n = dataset.len().min(SAMPLE);
    let mut best = (0usize, 0usize);
    for d in 0..dataset.dims() {
        let mut vals: Vec<u64> = dataset.column(d)[..n].iter().map(|v| v.to_bits()).collect();
        vals.sort_unstable();
        vals.dedup();
        if vals.len() > best.1 {
            best = (d, vals.len());
        }
    }
    best.0
}

impl MultidimIndex for ColumnFiles {
    fn name(&self) -> &str {
        "column-files"
    }

    fn dims(&self) -> usize {
        self.inner.dims()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn range_query_stats(&self, query: &RangeQuery, out: &mut Vec<RowId>) -> ScanStats {
        self.inner.range_query_stats(query, out)
    }

    /// Forwarded to [`GridFile`]'s fused navigate-and-filter pass.
    fn range_query_filtered(
        &self,
        nav: &RangeQuery,
        filter: &RangeQuery,
        out: &mut Vec<RowId>,
    ) -> ScanStats {
        self.inner.range_query_filtered(nav, filter, out)
    }

    /// Forwarded to [`GridFile`]'s cell-by-cell streaming cursor.
    fn range_query_cursor(&self, query: &RangeQuery) -> RowCursor<'_> {
        self.inner.filtered_cursor(query, query)
    }

    /// Forwarded to [`GridFile`]'s cell-by-cell streaming cursor.
    fn range_query_filtered_cursor(
        &self,
        nav: &RangeQuery,
        filter: &RangeQuery,
    ) -> RowCursor<'_> {
        self.inner.filtered_cursor(nav, filter)
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(RowId, &[Value])) {
        self.inner.for_each_entry(f)
    }

    fn memory_overhead(&self) -> usize {
        self.inner.memory_overhead()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full_scan::FullScan;
    use coax_data::synth::{Generator, UniformConfig};
    use coax_data::workload::knn_rectangle_queries;

    #[test]
    fn equivalence_with_fullscan() {
        let ds = UniformConfig::cube(3, 1000, 41).generate();
        let cf = ColumnFiles::build(&ds, 2, 6);
        let fs = FullScan::build(&ds);
        for q in knn_rectangle_queries(&ds, 12, 25, 3) {
            let mut a = cf.range_query(&q);
            let mut b = fs.range_query(&q);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn directory_is_one_dimension_smaller() {
        let ds = UniformConfig::cube(3, 500, 42).generate();
        let cf = ColumnFiles::build(&ds, 0, 4);
        assert_eq!(cf.sort_dim(), 0);
        assert_eq!(cf.grid().grid_dims(), &[1, 2]);
        assert_eq!(cf.n_cells(), 16); // 4², not 4³
    }

    #[test]
    fn auto_picks_high_cardinality_attribute() {
        // dim 0: 3 distinct values; dim 1: all distinct.
        let ds = Dataset::new(vec![
            (0..300).map(|i| (i % 3) as f64).collect(),
            (0..300).map(|i| i as f64).collect(),
        ]);
        let cf = ColumnFiles::build_auto(&ds, 4);
        assert_eq!(cf.sort_dim(), 1);
    }

    #[test]
    fn name_and_overhead_delegate() {
        let ds = UniformConfig::cube(2, 100, 43).generate();
        let cf = ColumnFiles::build(&ds, 1, 4);
        assert_eq!(cf.name(), "column-files");
        assert!(cf.memory_overhead() > 0);
        assert_eq!(cf.len(), 100);
    }
}
