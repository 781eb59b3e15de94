//! The full-scan baseline (§8.1.3: "every item in the dataset is checked
//! against queries").

use crate::pages::PageStore;
use crate::traits::{MultidimIndex, ScanStats};
use coax_data::{Dataset, RangeQuery, RowId, Value};

/// Checks every row against the predicate. Zero directory overhead, O(n)
/// per query — the floor every real index must beat.
#[derive(Clone, Debug)]
pub struct FullScan {
    /// The "heap file": one page holding every row in dataset order, so
    /// a query is one cell scan on the shared kernel.
    heap: PageStore,
}

impl FullScan {
    /// Copies the dataset into an unindexed heap; row `i` keeps id `i`.
    pub fn build(dataset: &Dataset) -> Self {
        Self::build_with_ids(dataset, &dataset.row_ids().collect::<Vec<_>>())
    }

    /// [`FullScan::build`] with row `i` stored under id `ids[i]`.
    pub fn build_with_ids(dataset: &Dataset, ids: &[RowId]) -> Self {
        Self { heap: PageStore::build(dataset, ids, 1, None, |_| 0) }
    }
}

impl MultidimIndex for FullScan {
    fn name(&self) -> &str {
        "full-scan"
    }

    fn dims(&self) -> usize {
        self.heap.dims()
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(RowId, &[Value])) {
        self.heap.for_each_entry(f)
    }

    /// One scan of the heap page on the shared kernel (or the scalar
    /// reference, through the same process-wide flag as the cell scans):
    /// rows emerge in dataset order.
    fn range_query_stats(&self, query: &RangeQuery, out: &mut Vec<RowId>) -> ScanStats {
        assert_eq!(query.dims(), self.dims(), "query dimensionality mismatch");
        let (rows_examined, matches) = self.heap.scan_cell(0, query, out);
        ScanStats { cells_visited: 1, rows_examined, matches, ..Default::default() }
    }

    fn memory_overhead(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        Dataset::new(vec![vec![1.0, 2.0, 3.0, 4.0], vec![10.0, 20.0, 30.0, 40.0]])
    }

    #[test]
    fn finds_exact_matches() {
        let ds = dataset();
        let fs = FullScan::build(&ds);
        let mut q = RangeQuery::unbounded(2);
        q.constrain(0, 2.0, 3.0);
        q.constrain(1, 0.0, 35.0);
        let mut hits = fs.range_query(&q);
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 2]);
    }

    #[test]
    fn stats_report_full_examination() {
        let ds = dataset();
        let fs = FullScan::build(&ds);
        let mut out = Vec::new();
        let stats = fs.range_query_stats(&RangeQuery::unbounded(2), &mut out);
        assert_eq!(stats.rows_examined, 4);
        assert_eq!(stats.matches, 4);
        assert_eq!(stats.cells_visited, 1);
        assert_eq!(fs.memory_overhead(), 0);
    }

    #[test]
    fn point_query() {
        let ds = dataset();
        let fs = FullScan::build(&ds);
        assert_eq!(fs.range_query(&RangeQuery::point(&[3.0, 30.0])), vec![2]);
        assert!(fs.range_query(&RangeQuery::point(&[3.0, 31.0])).is_empty());
    }

    #[test]
    fn empty_query_rectangle() {
        let ds = dataset();
        let fs = FullScan::build(&ds);
        let mut q = RangeQuery::unbounded(2);
        q.constrain(0, 5.0, 1.0);
        assert!(fs.range_query(&q).is_empty());
    }

    #[test]
    fn appends_without_clearing() {
        let ds = dataset();
        let fs = FullScan::build(&ds);
        let mut out = vec![99];
        fs.range_query_stats(&RangeQuery::point(&[1.0, 10.0]), &mut out);
        assert_eq!(out, vec![99, 0]);
    }
}
