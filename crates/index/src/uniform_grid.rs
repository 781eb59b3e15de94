//! The paper's "full grid" baseline (§8.1.3).
//!
//! *"A hash structure that breaks down each attribute into uniformly sized
//! grid cells between their minimum and maximum values. The address for
//! each cell is stored independently … addresses for all cells are sorted
//! using the original ordering of attributes … each cell stores points in
//! a contiguous block of virtual memory in a row store format."*
//!
//! Cell lookup is pure arithmetic (no binary search), which is why the
//! paper calls it a hash structure; the price is that skewed data leaves
//! most cells empty or tiny (Fig. 4) while dense regions overflow.

use crate::pages::{PageStore, MAX_CELLS};
use crate::traits::{MultidimIndex, ScanStats};
use coax_data::{Dataset, RangeQuery, RowId, Value};

/// Equal-width grid over every attribute.
#[derive(Clone, Debug)]
pub struct UniformGrid {
    dims: usize,
    cells_per_dim: usize,
    mins: Vec<Value>,
    /// Reciprocal cell width per dim; 0.0 for constant attributes (all rows
    /// land in cell 0 of that dim).
    inv_widths: Vec<Value>,
    maxs: Vec<Value>,
    strides: Vec<usize>,
    pages: PageStore,
}

impl UniformGrid {
    /// Builds a uniform grid with `cells_per_dim` cells on every attribute;
    /// row `i` keeps id `i`.
    ///
    /// # Panics
    ///
    /// Panics if `cells_per_dim == 0` or the directory would exceed the
    /// safety cap.
    pub fn build(dataset: &Dataset, cells_per_dim: usize) -> Self {
        Self::build_with_ids(dataset, &dataset.row_ids().collect::<Vec<_>>(), cells_per_dim)
    }

    /// [`UniformGrid::build`] with row `i` stored under id `ids[i]`.
    pub fn build_with_ids(dataset: &Dataset, ids: &[RowId], cells_per_dim: usize) -> Self {
        assert!(cells_per_dim > 0, "cells_per_dim must be positive");
        let dims = dataset.dims();
        let n_cells = cells_per_dim
            .checked_pow(dims as u32)
            .filter(|&c| c <= MAX_CELLS)
            // coax-analyze: allow(panic-free-library, documented build-time capacity check on a caller-chosen config — build() has no error channel and a silently truncated directory would be worse)
            .expect("uniform grid directory too large; reduce cells_per_dim");

        let mut mins = Vec::with_capacity(dims);
        let mut maxs = Vec::with_capacity(dims);
        let mut inv_widths = Vec::with_capacity(dims);
        for d in 0..dims {
            let (lo, hi) = dataset.min_max(d).unwrap_or((0.0, 0.0));
            mins.push(lo);
            maxs.push(hi);
            inv_widths.push(if hi > lo { cells_per_dim as Value / (hi - lo) } else { 0.0 });
        }

        let mut strides = vec![1usize; dims];
        for i in (0..dims.saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * cells_per_dim;
        }

        let coord = |v: Value, d: usize| -> usize {
            (((v - mins[d]) * inv_widths[d]) as usize).min(cells_per_dim - 1)
        };
        let cell_of = |r: RowId| -> usize {
            (0..dims).map(|d| coord(dataset.value(r, d), d) * strides[d]).sum()
        };
        let pages = PageStore::build(dataset, ids, n_cells, None, cell_of);

        Self { dims, cells_per_dim, mins, inv_widths, maxs, strides, pages }
    }

    /// Total directory cells.
    pub fn n_cells(&self) -> usize {
        self.pages.n_cells()
    }

    /// Row count per cell (the Fig. 4a distribution for uniform layouts).
    pub fn cell_lengths(&self) -> Vec<usize> {
        self.pages.cell_lengths()
    }

    fn coord_clamped(&self, v: Value, d: usize) -> usize {
        let raw = (v - self.mins[d]) * self.inv_widths[d];
        if raw <= 0.0 {
            0
        } else {
            (raw as usize).min(self.cells_per_dim - 1)
        }
    }
}

impl MultidimIndex for UniformGrid {
    fn name(&self) -> &str {
        "full-grid"
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn len(&self) -> usize {
        self.pages.len()
    }

    fn range_query_stats(&self, query: &RangeQuery, out: &mut Vec<RowId>) -> ScanStats {
        assert_eq!(query.dims(), self.dims, "query dimensionality mismatch");
        let mut stats = ScanStats::default();
        if self.pages.is_empty() || query.is_empty() {
            return stats;
        }
        let mut ranges = Vec::with_capacity(self.dims);
        for d in 0..self.dims {
            let (lo, hi) = (query.lo(d), query.hi(d));
            if hi < self.mins[d] || lo > self.maxs[d] {
                return stats; // query misses the data range entirely
            }
            let c_lo = if lo == f64::NEG_INFINITY { 0 } else { self.coord_clamped(lo, d) };
            let c_hi = if hi == f64::INFINITY {
                self.cells_per_dim - 1
            } else {
                self.coord_clamped(hi, d)
            };
            ranges.push((c_lo, c_hi));
        }

        // Odometer over the cell ranges (empty cells still cost a lookup —
        // the paper stresses exactly this drawback).
        let mut idx: Vec<usize> = ranges.iter().map(|r| r.0).collect();
        'outer: loop {
            let addr: usize = idx.iter().zip(&self.strides).map(|(i, s)| i * s).sum();
            stats.cells_visited += 1;
            let (examined, matched) = self.pages.scan_cell(addr, query, out);
            stats.rows_examined += examined;
            stats.matches += matched;
            let mut d = self.dims - 1;
            loop {
                idx[d] += 1;
                if idx[d] <= ranges[d].1 {
                    continue 'outer;
                }
                idx[d] = ranges[d].0;
                if d == 0 {
                    break 'outer;
                }
                d -= 1;
            }
        }
        stats
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(RowId, &[Value])) {
        self.pages.for_each_entry(f)
    }

    fn memory_overhead(&self) -> usize {
        // min + inv_width + max per dimension, plus the offsets table.
        3 * self.dims * std::mem::size_of::<Value>() + self.pages.offsets_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full_scan::FullScan;
    use coax_data::synth::{GaussianClustersConfig, Generator, UniformConfig};
    use coax_data::workload::knn_rectangle_queries;

    #[test]
    fn equivalence_with_fullscan() {
        let ds = UniformConfig::cube(3, 1200, 31).generate();
        let grid = UniformGrid::build(&ds, 5);
        let fs = FullScan::build(&ds);
        for q in knn_rectangle_queries(&ds, 15, 20, 2) {
            let mut a = grid.range_query(&q);
            let mut b = fs.range_query(&q);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn point_query_single_cell() {
        let ds = UniformConfig::cube(2, 800, 32).generate();
        let grid = UniformGrid::build(&ds, 10);
        let q = RangeQuery::point(&ds.row(5));
        let mut out = Vec::new();
        let stats = grid.range_query_stats(&q, &mut out);
        assert_eq!(stats.cells_visited, 1, "a point lands in exactly one cell");
        assert!(out.contains(&5));
    }

    #[test]
    fn skewed_data_concentrates_in_few_cells() {
        let ds = GaussianClustersConfig::map(5000, 33).generate();
        let grid = UniformGrid::build(&ds, 16);
        let mut lengths = grid.cell_lengths();
        lengths.sort_unstable_by(|a, b| b.cmp(a));
        // Fig. 4's pathology: the top 10 % of uniform cells hold most rows.
        let top_decile: usize = lengths[..lengths.len() / 10].iter().sum();
        assert!(
            top_decile > ds.len() / 2,
            "clustered data should concentrate: top decile holds {top_decile}/{}",
            ds.len()
        );
    }

    #[test]
    fn miss_outside_range_is_free() {
        let ds = UniformConfig::cube(2, 100, 34).generate();
        let grid = UniformGrid::build(&ds, 4);
        let mut q = RangeQuery::unbounded(2);
        q.constrain(0, 10.0, 20.0);
        let mut out = Vec::new();
        let stats = grid.range_query_stats(&q, &mut out);
        assert_eq!(stats, ScanStats::default());
    }

    #[test]
    fn constant_column_collapses_to_one_slice() {
        let ds = Dataset::new(vec![(0..50).map(|i| i as f64).collect(), vec![3.0; 50]]);
        let grid = UniformGrid::build(&ds, 4);
        let q = RangeQuery::point(&[7.0, 3.0]);
        assert_eq!(grid.range_query(&q), vec![7]);
    }

    #[test]
    fn max_value_maps_into_last_cell() {
        let ds = Dataset::new(vec![vec![0.0, 1.0, 2.0, 3.0]]);
        let grid = UniformGrid::build(&ds, 3);
        let q = RangeQuery::point(&[3.0]);
        assert_eq!(grid.range_query(&q), vec![3]);
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::new(vec![vec![], vec![]]);
        let grid = UniformGrid::build(&ds, 4);
        assert!(grid.is_empty());
        assert!(grid.range_query(&RangeQuery::unbounded(2)).is_empty());
    }

    #[test]
    fn overhead_is_offsets_plus_constants() {
        let ds = UniformConfig::cube(2, 100, 35).generate();
        let grid = UniformGrid::build(&ds, 4);
        assert_eq!(grid.memory_overhead(), 3 * 2 * 8 + (16 + 1) * 4);
    }
}
