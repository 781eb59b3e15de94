//! The backend factory: build any substrate index from a config value.
//!
//! [`BackendSpec`] is the composition seam the paper's "works with any
//! multidimensional index structure" claim needs in code: everything that
//! consumes an index — the COAX outlier store, the bench harness, the
//! equivalence tests — constructs it from a spec and drives it through
//! `Box<dyn MultidimIndex>`, never through a concrete type. Adding a new
//! substrate means adding one variant (and one `build` arm) here; every
//! caller picks it up for free.

use crate::column_files::ColumnFiles;
use crate::full_scan::FullScan;
use crate::grid_file::{GridFile, GridFileConfig};
use crate::pages::MAX_CELLS;
use crate::rtree::{RTree, RTreeConfig};
use crate::traits::MultidimIndex;
use crate::uniform_grid::UniformGrid;
use coax_data::{Dataset, RowId};

/// A buildable description of one substrate index.
///
/// `Copy` on purpose: specs are cheap values that travel through configs
/// (e.g. [`OutlierBackend::Custom`]), sweep ladders, and reports.
///
/// [`OutlierBackend::Custom`]: https://docs.rs/coax-core
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendSpec {
    /// The check-every-row baseline.
    FullScan,
    /// Equal-width ("full") grid over every attribute.
    UniformGrid {
        /// Cells per attribute.
        cells_per_dim: usize,
    },
    /// Quantile grid file over every attribute, optionally replacing one
    /// attribute's grid lines with an in-cell sort.
    GridFile {
        /// Cells per gridded attribute.
        cells_per_dim: usize,
        /// Attribute sorted inside cells instead of gridded, if any.
        sort_dim: Option<usize>,
    },
    /// Column files: grid file over all attributes but one, the remaining
    /// attribute sorted inside each cell.
    ColumnFiles {
        /// Cells per gridded attribute.
        cells_per_dim: usize,
        /// The sorted attribute; `None` picks it automatically (highest
        /// distinct-value count in a sample).
        sort_dim: Option<usize>,
    },
    /// STR bulk-loaded R-tree with uniform node capacity.
    RTree {
        /// Leaf and internal node capacity.
        capacity: usize,
    },
}

impl BackendSpec {
    /// Builds the described index over `dataset`, boxed behind the
    /// common trait; row `i` keeps id `i`.
    pub fn build(&self, dataset: &Dataset) -> Box<dyn MultidimIndex> {
        self.build_with_ids(dataset, &dataset.row_ids().collect::<Vec<_>>())
    }

    /// [`BackendSpec::build`] with row `i` stored, and emitted by every
    /// query, under id `ids[i]`. This is the only place in the workspace
    /// that maps spec variants to concrete substrate types.
    pub fn build_with_ids(&self, dataset: &Dataset, ids: &[RowId]) -> Box<dyn MultidimIndex> {
        match *self {
            BackendSpec::FullScan => Box::new(FullScan::build_with_ids(dataset, ids)),
            BackendSpec::UniformGrid { cells_per_dim } => {
                Box::new(UniformGrid::build_with_ids(dataset, ids, cells_per_dim))
            }
            BackendSpec::GridFile { cells_per_dim, sort_dim } => {
                let dims = dataset.dims();
                let config = match sort_dim {
                    Some(sd) => GridFileConfig::with_sort(dims, sd, cells_per_dim),
                    None => GridFileConfig::all_dims(dims, cells_per_dim),
                };
                Box::new(GridFile::build_with_ids(dataset, ids, &config))
            }
            BackendSpec::ColumnFiles { cells_per_dim, sort_dim } => {
                Box::new(ColumnFiles::build_with_ids(dataset, ids, sort_dim, cells_per_dim))
            }
            BackendSpec::RTree { capacity } => {
                Box::new(RTree::build_with_ids(dataset, ids, RTreeConfig::uniform(capacity)))
            }
        }
    }

    /// The [`MultidimIndex::name`] the built index will report.
    pub fn name(&self) -> &'static str {
        match self {
            BackendSpec::FullScan => "full-scan",
            BackendSpec::UniformGrid { .. } => "full-grid",
            BackendSpec::GridFile { .. } => "grid-file",
            BackendSpec::ColumnFiles { .. } => "column-files",
            BackendSpec::RTree { .. } => "r-tree",
        }
    }

    /// Short configuration label for sweep tables ("k=8", "cap=12", …).
    pub fn label(&self) -> String {
        match self {
            BackendSpec::FullScan => "scan".to_string(),
            BackendSpec::UniformGrid { cells_per_dim }
            | BackendSpec::GridFile { cells_per_dim, .. }
            | BackendSpec::ColumnFiles { cells_per_dim, .. } => format!("k={cells_per_dim}"),
            BackendSpec::RTree { capacity } => format!("cap={capacity}"),
        }
    }

    /// Whether building over a `dims`-dimensional dataset stays inside
    /// every builder precondition (positive resolution, node capacity
    /// ≥ 2, directory under the 2²⁸-cell cap). Sweeps call this up front
    /// to skip configurations instead of panicking.
    pub fn fits(&self, dims: usize) -> bool {
        let cells_ok = |k: usize, grid_dims: usize| {
            k > 0 && k.checked_pow(grid_dims as u32).is_some_and(|c| c <= MAX_CELLS)
        };
        match *self {
            BackendSpec::FullScan => true,
            BackendSpec::UniformGrid { cells_per_dim } => cells_ok(cells_per_dim, dims),
            BackendSpec::GridFile { cells_per_dim, sort_dim } => {
                sort_dim.is_none_or(|sd| sd < dims)
                    && cells_ok(cells_per_dim, dims - usize::from(sort_dim.is_some()))
            }
            BackendSpec::ColumnFiles { cells_per_dim, sort_dim } => {
                dims > 0
                    && sort_dim.is_none_or(|sd| sd < dims)
                    && cells_ok(cells_per_dim, dims.saturating_sub(1))
            }
            BackendSpec::RTree { capacity } => capacity >= 2,
        }
    }

    /// One spec of every substrate kind at a modest default resolution —
    /// the "all backends" list the equivalence tests and examples iterate.
    pub fn all_kinds(cells_per_dim: usize, capacity: usize) -> Vec<BackendSpec> {
        vec![
            BackendSpec::FullScan,
            BackendSpec::UniformGrid { cells_per_dim },
            BackendSpec::GridFile { cells_per_dim, sort_dim: None },
            BackendSpec::ColumnFiles { cells_per_dim, sort_dim: None },
            BackendSpec::RTree { capacity },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coax_data::RangeQuery;

    fn dataset() -> Dataset {
        Dataset::new(vec![
            (0..200).map(|i| (i % 37) as f64).collect(),
            (0..200).map(|i| i as f64 / 3.0).collect(),
        ])
    }

    #[test]
    fn factory_builds_every_kind() {
        let ds = dataset();
        for spec in BackendSpec::all_kinds(4, 8) {
            let index = spec.build(&ds);
            assert_eq!(index.name(), spec.name(), "{spec:?}");
            assert_eq!(index.len(), 200);
            assert_eq!(index.dims(), 2);
            let hits = index.range_query(&RangeQuery::unbounded(2));
            assert_eq!(hits.len(), 200, "{spec:?} must return every row");
        }
    }

    #[test]
    fn explicit_sort_dims_are_honoured() {
        let ds = dataset();
        let gf = BackendSpec::GridFile { cells_per_dim: 3, sort_dim: Some(1) }.build(&ds);
        let cf = BackendSpec::ColumnFiles { cells_per_dim: 3, sort_dim: Some(0) }.build(&ds);
        let q = RangeQuery::point(&[5.0, 5.0 / 3.0 + 37.0 / 3.0]);
        assert_eq!(gf.range_query(&q), cf.range_query(&q));
    }

    #[test]
    fn fits_rejects_oversized_and_invalid_configs() {
        assert!(BackendSpec::UniformGrid { cells_per_dim: 4 }.fits(8));
        assert!(!BackendSpec::UniformGrid { cells_per_dim: 128 }.fits(8));
        assert!(!BackendSpec::UniformGrid { cells_per_dim: 0 }.fits(2));
        assert!(BackendSpec::GridFile { cells_per_dim: 128, sort_dim: Some(0) }.fits(4));
        assert!(!BackendSpec::GridFile { cells_per_dim: 128, sort_dim: Some(9) }.fits(4));
        assert!(BackendSpec::ColumnFiles { cells_per_dim: 128, sort_dim: None }.fits(4));
        assert!(!BackendSpec::RTree { capacity: 1 }.fits(2));
        assert!(BackendSpec::RTree { capacity: 2 }.fits(2));
        assert!(BackendSpec::FullScan.fits(1));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(BackendSpec::UniformGrid { cells_per_dim: 8 }.label(), "k=8");
        assert_eq!(BackendSpec::RTree { capacity: 12 }.label(), "cap=12");
        assert_eq!(BackendSpec::FullScan.label(), "scan");
    }
}
