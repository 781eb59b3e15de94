//! Multidimensional index substrates for the COAX reproduction.
//!
//! Every structure the paper builds on or compares against (§6, §8.1.3) is
//! implemented here behind one trait, [`MultidimIndex`]:
//!
//! * [`FullScan`] — the "check every row" baseline.
//! * [`UniformGrid`] — the paper's *full grid*: equal-width cells between
//!   each attribute's min and max, directory in row-major attribute order.
//! * [`GridFile`] — the paper's modified grid file (§6): quantile-aligned
//!   cell boundaries, the same number of grid lines per attribute,
//!   contiguous row-store cells, and an optional *sorted dimension* that
//!   replaces one level of grid lines with binary search (as in Flood).
//!   This is the substrate under both the COAX primary and outlier indexes.
//! * [`ColumnFiles`] — the paper's strongest grid baseline: a [`GridFile`]
//!   over all attributes but one, with the remaining attribute sorted
//!   inside each cell.
//! * [`RTree`] — a Sort-Tile-Recursive bulk-loaded R-tree with tunable
//!   node capacities (the paper tunes 2–32 and finds 8–12 best).
//!
//! All indexes answer *exact* rectangle queries: candidates fetched from
//! the directory are re-checked against the full predicate. The
//! grid-family cell scans and [`FullScan`]'s heap pass all run on one
//! vectorized columnar kernel ([`kernel`]): per-cell column slabs,
//! 64-row tiles with `u64` selection masks, dimension-at-a-time
//! evaluation — bit-identical to the scalar reference path kept behind
//! [`kernel::force_scalar`] (`COAX_SCAN_KERNEL=scalar`).
//!
//! Callers normally do not name these types at all: [`BackendSpec`]
//! describes any of them as a plain config value and
//! [`BackendSpec::build`] returns the built structure as a
//! `Box<dyn MultidimIndex>` — the factory seam the COAX outlier store,
//! the bench harness, and the equivalence tests are written against.
//!
//! Every structure stores the ids it was built or absorbed with and
//! emits them unchanged ([`BackendSpec::build_with_ids`],
//! [`MultidimIndex::absorbed`]); a plain build numbers rows `0..len`.
//! COAX hands its partitions the rows' global ids this way, so no layer
//! above translates an id again.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod column_files;
pub mod full_scan;
pub mod grid_file;
pub mod kernel;
pub mod pages;
pub mod rtree;
pub mod traits;
pub mod uniform_grid;

pub use backend::BackendSpec;
pub use column_files::ColumnFiles;
pub use full_scan::FullScan;
pub use grid_file::{GridFile, GridFileConfig};
pub use rtree::{RTree, RTreeConfig};
pub use traits::{
    CursorSource, DistinctQueries, MultidimIndex, QueryResult, RowCursor, ScanStats,
};
pub use uniform_grid::UniformGrid;
