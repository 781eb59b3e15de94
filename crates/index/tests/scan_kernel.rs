//! Differential suite for the vectorized columnar scan kernel: every
//! path that dispatches between the kernel and the scalar reference must
//! be **bit-identical** across them — same ids, same emission order, same
//! `rows_examined`/`matches`, same [`ScanStats`] bit for bit — across
//! sort_dim on/off, open and one-sided bounds, duplicate sort keys,
//! empty cells, and sizes straddling the 64-row tile boundary.

use coax_data::{Dataset, RangeQuery, RowId};
use coax_index::pages::PageStore;
use coax_index::{kernel, FullScan, GridFile, GridFileConfig, MultidimIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROUNDS: u64 = 64;

/// A random dataset with duplicate-heavy values (integers scaled down),
/// so duplicate sort keys and shared cell boundaries occur constantly.
fn random_dataset(rng: &mut StdRng, min_rows: usize, max_rows: usize) -> Dataset {
    let dims = rng.gen_range(1usize..=4);
    let rows = rng.gen_range(min_rows..=max_rows);
    let columns = (0..dims)
        .map(|_| (0..rows).map(|_| rng.gen_range(-40i32..40) as f64 / 4.0).collect())
        .collect();
    Dataset::new(columns)
}

/// Dense ids: row `i` stored as id `i`.
fn dense(ds: &Dataset) -> Vec<RowId> {
    ds.row_ids().collect()
}

/// Random rectangles mixing bounded, one-sided, unconstrained, inverted
/// (empty) and point constraints per dimension.
fn random_query(rng: &mut StdRng, dims: usize) -> RangeQuery {
    let mut q = RangeQuery::unbounded(dims);
    for d in 0..dims {
        let a = rng.gen_range(-48i32..48) as f64 / 4.0;
        let b = rng.gen_range(-48i32..48) as f64 / 4.0;
        match rng.gen_range(0u8..6) {
            0 => {
                q.constrain(d, a.min(b), a.max(b));
            }
            1 => {
                q.constrain(d, a, b); // possibly inverted → empty
            }
            2 => {
                q.constrain(d, f64::NEG_INFINITY, b);
            }
            3 => {
                q.constrain(d, a, f64::INFINITY);
            }
            4 => {
                q.constrain(d, a, a); // point constraint
            }
            _ => {} // unconstrained
        }
    }
    q
}

/// Asserts cell-by-cell that the kernel path and the scalar reference of
/// `ps` agree bit for bit on `(rows_examined, matches)` and on the ids
/// *in order* for every `(nav, filter)` probe.
fn assert_cells_identical(ps: &PageStore, nav: &RangeQuery, filter: &RangeQuery, ctx: &str) {
    for c in 0..ps.n_cells() {
        let (mut vec_out, mut sca_out) = (Vec::new(), Vec::new());
        let (s, e) = ps.narrowed_run(c, nav);
        let vec_matched =
            kernel::scan_columnar(ps.columns(), ps.packed_ids(), s, e, filter, &mut vec_out);
        let sca_stats = ps.scan_cell_narrowed_scalar(c, nav, filter, &mut sca_out);
        assert_eq!((e - s, vec_matched), sca_stats, "{ctx}: counters diverged in cell {c}");
        assert_eq!(vec_out, sca_out, "{ctx}: ids or order diverged in cell {c}");
    }
}

#[test]
fn kernel_matches_scalar_randomized() {
    let mut rng = StdRng::seed_from_u64(0x5ca01);
    for round in 0..ROUNDS {
        let ds = random_dataset(&mut rng, 0, 300);
        let dims = ds.dims();
        let n_cells = rng.gen_range(1usize..8);
        // Hash rows into cells arbitrarily; with up to 8 cells over up to
        // 300 rows, small datasets leave some cells empty.
        let sort_dim = if rng.gen_bool(0.5) { Some(rng.gen_range(0..dims)) } else { None };
        // Sparse ids, so the gather must read the stored id map.
        let ids: Vec<RowId> = ds.row_ids().map(|r| 7 * r + 3).collect();
        let ps =
            PageStore::build(&ds, &ids, n_cells, sort_dim, |r| (r as usize * 7 + 3) % n_cells);
        for _ in 0..4 {
            let filter = random_query(&mut rng, dims);
            // nav == filter (the plain-index shape) and a loosened nav
            // (the COAX navigate/filter split).
            assert_cells_identical(&ps, &filter, &filter, &format!("round {round}"));
            let mut nav = filter.clone();
            for d in 0..dims {
                let slack = rng.gen_range(0i32..8) as f64 / 4.0;
                nav.constrain(d, filter.lo(d) - slack, filter.hi(d) + slack);
            }
            assert_cells_identical(&ps, &nav, &filter, &format!("round {round} (loosened)"));
        }
    }
}

#[test]
fn tile_boundary_sizes_are_exact() {
    let mut rng = StdRng::seed_from_u64(0x5ca02);
    // Sizes straddling the 64-row tile width, as single sorted cells and
    // as unsorted cells.
    for rows in [0usize, 1, 63, 64, 65, 127, 128, 129, 200] {
        let columns: Vec<Vec<f64>> = (0..2)
            .map(|_| (0..rows).map(|_| rng.gen_range(-32i32..32) as f64 / 4.0).collect())
            .collect();
        let ds = Dataset::new(columns);
        for sort_dim in [None, Some(1)] {
            let ps = PageStore::build(&ds, &dense(&ds), 1, sort_dim, |_| 0);
            for _ in 0..16 {
                let q = random_query(&mut rng, 2);
                assert_cells_identical(&ps, &q, &q, &format!("rows={rows} sort={sort_dim:?}"));
            }
        }
    }
}

#[test]
fn duplicate_sort_keys_and_open_bounds() {
    // 130 rows of only 3 distinct sort keys: every narrowed run has long
    // duplicate stretches crossing the tile boundary.
    let n = 130;
    let ds = Dataset::new(vec![
        (0..n).map(|i| (i % 5) as f64).collect(),
        (0..n).map(|i| (i % 3) as f64).collect(),
    ]);
    let ps = PageStore::build(&ds, &dense(&ds), 1, Some(1), |_| 0);
    let cases = [
        (1.0, 1.0),               // duplicate run, both searches active
        (f64::NEG_INFINITY, 1.0), // lower bound open
        (1.0, f64::INFINITY),     // upper bound open
        (0.5, 0.75),              // empty gap between duplicate runs
        (2.0, 1.0),               // inverted → empty
    ];
    for (lo, hi) in cases {
        let mut q = RangeQuery::unbounded(2);
        q.constrain(1, lo, hi);
        q.constrain(0, 1.0, 3.0);
        assert_cells_identical(&ps, &q, &q, &format!("bounds [{lo}, {hi}]"));
    }
}

/// The process-wide flag switch: every consumer of the dispatch —
/// GridFile's materialized scan, its shared batch, its streaming cursor,
/// and FullScan's heap pass — returns bit-identical `QueryResult`s
/// (ids in order, `ScanStats` bit for bit) under both settings.
#[test]
fn force_scalar_flag_switches_every_consumer_identically() {
    let mut rng = StdRng::seed_from_u64(0x5ca03);
    for round in 0..8u64 {
        let ds = random_dataset(&mut rng, 50, 400);
        let dims = ds.dims();
        let sort_dim = if dims > 1 { Some(dims - 1) } else { None };
        let config = GridFileConfig::subset(
            (0..dims).filter(|&d| Some(d) != sort_dim).collect(),
            sort_dim,
            rng.gen_range(1usize..5),
        );
        let grid = GridFile::build(&ds, &config);
        let fs = FullScan::build(&ds);
        let queries: Vec<RangeQuery> = (0..6).map(|_| random_query(&mut rng, dims)).collect();

        let run = |grid: &GridFile, fs: &FullScan| {
            let mut results = Vec::new();
            for q in &queries {
                let mut ids: Vec<RowId> = Vec::new();
                let stats = grid.range_query_filtered(q, q, &mut ids);
                let (cursor_ids, cursor_stats) =
                    grid.range_query_cursor(q).collect_with_stats();
                let mut fs_ids: Vec<RowId> = Vec::new();
                let fs_stats = fs.range_query_stats(q, &mut fs_ids);
                results.push((ids, stats, cursor_ids, cursor_stats, fs_ids, fs_stats));
            }
            let batched = grid.batch_query(&queries);
            (results, batched)
        };

        kernel::force_scalar(true);
        let scalar = run(&grid, &fs);
        kernel::force_scalar(false);
        let vectorized = run(&grid, &fs);
        assert_eq!(scalar, vectorized, "round {round}: flag paths diverged");
    }
}
