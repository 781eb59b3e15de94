//! Randomized property tests: every index structure returns exactly the
//! full-scan result set on randomized datasets and queries.
//!
//! This is the repository's core invariant (DESIGN.md §6): directories
//! may prune differently, but results are always exact. The workspace
//! builds offline, so instead of `proptest` these run seeded randomized
//! rounds over the same input space the original strategies covered —
//! every backend is constructed through [`BackendSpec`] and driven as a
//! `Box<dyn MultidimIndex>`, exercising the factory seam directly.
//!
//! The id contract is pinned here too: built (and, for the grid file,
//! absorbed) over sparse, shuffled ids, every backend emits exactly the
//! ids its rows were given, from every query surface and from
//! `for_each_entry`. `BackendSpec` is a closed enum, so this covers every
//! structure a COAX partition can hold.

use coax_data::{Dataset, RangeQuery, RowId, Value};
use coax_index::{BackendSpec, FullScan, GridFile, GridFileConfig, MultidimIndex, ScanStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Number of randomized rounds per property (the proptest versions ran
/// 64 cases; these are cheaper, so run the same order of magnitude).
const ROUNDS: u64 = 64;

/// A random dataset: 1–4 dims, 0–300 rows, values in a modest range with
/// duplicates likely (integers scaled down).
fn random_dataset(rng: &mut StdRng) -> Dataset {
    let dims = rng.gen_range(1usize..=4);
    let rows = rng.gen_range(0usize..=300);
    let columns = (0..dims)
        .map(|_| (0..rows).map(|_| rng.gen_range(-50i32..50) as f64 / 2.0).collect())
        .collect();
    Dataset::new(columns)
}

/// A random query over `dims` dimensions mixing bounded, half-open,
/// unconstrained, inverted (empty) and point-like constraints.
fn random_query(rng: &mut StdRng, dims: usize) -> RangeQuery {
    let mut lo = Vec::with_capacity(dims);
    let mut hi = Vec::with_capacity(dims);
    for _ in 0..dims {
        let a = rng.gen_range(-60i32..60) as f64 / 2.0;
        let b = rng.gen_range(-60i32..60) as f64 / 2.0;
        match rng.gen_range(0u8..5) {
            0 => {
                // normalised bounded range
                lo.push(a.min(b));
                hi.push(a.max(b));
            }
            1 => {
                // as-given (possibly inverted → empty query)
                lo.push(a);
                hi.push(b);
            }
            2 => {
                lo.push(f64::NEG_INFINITY);
                hi.push(b);
            }
            3 => {
                lo.push(a);
                hi.push(f64::INFINITY);
            }
            _ => {
                lo.push(a);
                hi.push(a); // point constraint
            }
        }
    }
    RangeQuery::new(lo, hi)
}

/// Every substrate spec applicable to a `dims`-dimensional dataset, at
/// randomized resolutions.
fn random_specs(rng: &mut StdRng, dims: usize) -> Vec<BackendSpec> {
    let cells = rng.gen_range(1usize..6);
    let capacity = rng.gen_range(2usize..16);
    let mut specs = vec![
        BackendSpec::FullScan,
        BackendSpec::UniformGrid { cells_per_dim: cells },
        BackendSpec::GridFile { cells_per_dim: cells, sort_dim: None },
        BackendSpec::RTree { capacity },
    ];
    if dims > 1 {
        specs.push(BackendSpec::GridFile { cells_per_dim: cells, sort_dim: Some(0) });
        specs.push(BackendSpec::ColumnFiles { cells_per_dim: cells, sort_dim: Some(dims - 1) });
        specs.push(BackendSpec::ColumnFiles { cells_per_dim: cells, sort_dim: None });
    }
    specs
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

#[test]
fn all_backends_match_full_scan_via_boxed_factory() {
    let mut rng = StdRng::seed_from_u64(0xE0_01);
    for round in 0..ROUNDS {
        let ds = random_dataset(&mut rng);
        let q = random_query(&mut rng, ds.dims());
        let expected = sorted(FullScan::build(&ds).range_query(&q));
        for spec in random_specs(&mut rng, ds.dims()) {
            let index: Box<dyn MultidimIndex> = spec.build(&ds);
            let got = sorted(index.range_query(&q));
            assert_eq!(
                got,
                expected,
                "round {round}: {} ({spec:?}) diverged on {q:?}",
                index.name()
            );
        }
    }
}

#[test]
fn scan_stats_are_consistent() {
    let mut rng = StdRng::seed_from_u64(0xE0_02);
    for _ in 0..ROUNDS {
        let ds = random_dataset(&mut rng);
        let q = random_query(&mut rng, ds.dims());
        let cells = rng.gen_range(1usize..6);
        let grid = BackendSpec::GridFile { cells_per_dim: cells, sort_dim: None }.build(&ds);
        let mut out = Vec::new();
        let stats = grid.range_query_stats(&q, &mut out);
        // matches == appended results, and you can't match more than you
        // examine.
        assert_eq!(stats.matches, out.len());
        assert!(stats.matches <= stats.rows_examined);
        assert!(stats.rows_examined <= ds.len());
    }
}

#[test]
fn point_queries_on_existing_rows_always_hit() {
    let mut rng = StdRng::seed_from_u64(0xE0_03);
    for _ in 0..ROUNDS {
        let ds = random_dataset(&mut rng);
        if ds.is_empty() {
            continue;
        }
        let r = rng.gen_range(0usize..ds.len()) as u32;
        let row = ds.row(r);
        let capacity = rng.gen_range(2usize..16);
        for spec in
            [BackendSpec::RTree { capacity }, BackendSpec::UniformGrid { cells_per_dim: 4 }]
        {
            let index = spec.build(&ds);
            // The trait's point-query surface must agree with the
            // rectangle path.
            assert!(index.point_query(&row).contains(&r), "{spec:?}");
            assert_eq!(
                sorted(index.point_query(&row)),
                sorted(index.range_query(&RangeQuery::point(&row))),
                "{spec:?}"
            );
        }
    }
}

#[test]
fn batch_query_default_matches_sequential() {
    let mut rng = StdRng::seed_from_u64(0xE0_04);
    for _ in 0..16 {
        let ds = random_dataset(&mut rng);
        let queries: Vec<RangeQuery> =
            (0..8).map(|_| random_query(&mut rng, ds.dims())).collect();
        for spec in random_specs(&mut rng, ds.dims()) {
            let index = spec.build(&ds);
            let batched = index.batch_query(&queries);
            assert_eq!(batched.len(), queries.len());
            for (q, result) in queries.iter().zip(&batched) {
                let mut ids = Vec::new();
                let stats = index.range_query_stats(q, &mut ids);
                assert_eq!(result.stats, stats, "{spec:?} on {q:?}");
                assert_eq!(sorted(result.ids.clone()), sorted(ids), "{spec:?} on {q:?}");
            }
        }
    }
}

/// Delegates everything to the wrapped index *except*
/// `range_query_filtered`, which falls back to the trait default — so the
/// same structure can be probed through both the fused override and the
/// default probe-then-filter path.
#[derive(Debug)]
struct DefaultFilteredProbe<T: MultidimIndex>(T);

impl<T: MultidimIndex> MultidimIndex for DefaultFilteredProbe<T> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn dims(&self) -> usize {
        self.0.dims()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn range_query_stats(&self, query: &RangeQuery, out: &mut Vec<RowId>) -> ScanStats {
        self.0.range_query_stats(query, out)
    }
    fn for_each_entry(&self, f: &mut dyn FnMut(RowId, &[Value])) {
        self.0.for_each_entry(f)
    }
    fn memory_overhead(&self) -> usize {
        self.0.memory_overhead()
    }
}

/// The trait-default filtered probe (nav ∩ filter) and GridFile's fused
/// override (navigate with nav, accept against filter) must return the
/// same result set whenever the caller upholds the precondition that nav
/// covers every stored filter-matching row — here trivially, by making
/// nav enclose filter.
#[test]
fn default_filtered_probe_matches_fused_override() {
    let mut rng = StdRng::seed_from_u64(0xE0_06);
    for round in 0..ROUNDS {
        let ds = random_dataset(&mut rng);
        let dims = ds.dims();
        let grid =
            GridFile::build(&ds, &GridFileConfig::with_sort(dims, 0, rng.gen_range(1usize..5)));
        let unfused = DefaultFilteredProbe(grid.clone());

        let filter = random_query(&mut rng, dims);
        // Loosen every bound by a non-negative slack: nav ⊇ filter.
        let mut nav = filter.clone();
        for d in 0..dims {
            let slack = rng.gen_range(0i32..20) as f64 / 2.0;
            nav.constrain(d, filter.lo(d) - slack, filter.hi(d) + slack);
        }

        let mut fused_out = Vec::new();
        let fused_stats =
            MultidimIndex::range_query_filtered(&grid, &nav, &filter, &mut fused_out);
        let mut default_out = Vec::new();
        let default_stats = unfused.range_query_filtered(&nav, &filter, &mut default_out);

        assert_eq!(
            sorted(fused_out),
            sorted(default_out),
            "round {round}: fused and default probes diverged (nav {nav:?}, filter {filter:?})"
        );
        assert_eq!(fused_stats.matches, default_stats.matches, "round {round}");
    }
}

#[test]
fn for_each_entry_round_trips_every_row() {
    let mut rng = StdRng::seed_from_u64(0xE0_05);
    for _ in 0..16 {
        let ds = random_dataset(&mut rng);
        for spec in random_specs(&mut rng, ds.dims()) {
            let index = spec.build(&ds);
            let mut seen = vec![false; ds.len()];
            let mut count = 0usize;
            index.for_each_entry(&mut |id, row| {
                assert_eq!(row, ds.row(id).as_slice(), "{spec:?} entry {id}");
                assert!(!seen[id as usize], "{spec:?} repeated entry {id}");
                seen[id as usize] = true;
                count += 1;
            });
            assert_eq!(count, ds.len(), "{spec:?} must yield every row");
        }
    }
}

/// A random dataset followed by up to 120 rows drawn from a range three
/// times as wide, so an absorbed suffix often lies beyond the build
/// range; also returns the length of the random part.
fn grown_dataset(rng: &mut StdRng) -> (Dataset, usize) {
    let base = random_dataset(rng);
    let extra = rng.gen_range(0usize..=120);
    let columns = (0..base.dims())
        .map(|d| {
            let mut col = base.column(d).to_vec();
            col.extend((0..extra).map(|_| rng.gen_range(-75i32..75) as f64 / 2.0));
            col
        })
        .collect();
    (Dataset::new(columns), base.len())
}

/// A grid built over a prefix and handed the rest through
/// `MultidimIndex::absorbed` — in one piece or two — answers every query
/// exactly like `FullScan` over the union, and yields every row once at
/// its union id, with and without a sorted attribute.
#[test]
fn absorbed_grids_match_full_scan() {
    let mut rng = StdRng::seed_from_u64(0xE0_07);
    for round in 0..ROUNDS {
        let (ds, built) = grown_dataset(&mut rng);
        let dims = ds.dims();
        let mid = rng.gen_range(built..=ds.len());
        let rows = |r: std::ops::Range<usize>| {
            ds.take_rows(&r.map(|i| i as RowId).collect::<Vec<_>>())
        };
        let (prefix, first, second) = (rows(0..built), rows(built..mid), rows(mid..ds.len()));
        let fs = FullScan::build(&ds);
        let queries: Vec<RangeQuery> = (0..6).map(|_| random_query(&mut rng, dims)).collect();
        let cells = rng.gen_range(1usize..6);
        let mut specs = vec![BackendSpec::GridFile { cells_per_dim: cells, sort_dim: None }];
        if dims > 1 {
            specs
                .push(BackendSpec::GridFile { cells_per_dim: cells, sort_dim: Some(dims - 1) });
        }
        let ids = |r: std::ops::Range<usize>| r.map(|i| i as RowId).collect::<Vec<_>>();
        for spec in specs {
            let grid = spec.build(&prefix);
            let once = grid
                .absorbed(&rows(built..ds.len()), &ids(built..ds.len()))
                .expect("a grid file absorbs");
            let twice = grid
                .absorbed(&first, &ids(built..mid))
                .and_then(|g| g.absorbed(&second, &ids(mid..ds.len())))
                .expect("a grid file absorbs");
            for (label, index) in [("once", &once), ("twice", &twice)] {
                assert_eq!(index.len(), ds.len(), "round {round}: {spec:?} {label}");
                for q in &queries {
                    assert_eq!(
                        sorted(index.range_query(q)),
                        sorted(fs.range_query(q)),
                        "round {round}: {spec:?} absorbed {label} diverged on {q:?}"
                    );
                }
                let mut seen = vec![false; ds.len()];
                index.for_each_entry(&mut |id, row| {
                    assert_eq!(row, ds.row(id).as_slice(), "round {round}: entry {id}");
                    assert!(
                        !std::mem::replace(&mut seen[id as usize], true),
                        "entry {id} twice"
                    );
                });
                assert!(seen.iter().all(|&s| s), "round {round}: {spec:?} {label} lost a row");
            }
        }
    }
}

/// `7·i + 3` for every row `i`, in a seeded shuffled order: ids that are
/// neither dense, nor ascending, nor the rows' positions.
fn sparse_ids(rng: &mut StdRng, n: usize) -> Vec<RowId> {
    let mut ids: Vec<RowId> = (0..n as RowId).map(|i| 7 * i + 3).collect();
    for i in (1..n).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    ids
}

/// `index` holds row `i` of `ds` under id `ids[i]`: every query surface
/// answers `FullScan`'s dense answer mapped through `ids`, and
/// `for_each_entry` yields each id exactly once, with its row.
fn assert_emits_ids(
    index: &dyn MultidimIndex,
    ds: &Dataset,
    ids: &[RowId],
    queries: &[RangeQuery],
    ctx: &str,
) {
    let dense = FullScan::build(ds);
    assert_eq!(index.len(), ds.len(), "{ctx}");
    for q in queries {
        let want = sorted(dense.range_query(q).iter().map(|&r| ids[r as usize]).collect());
        assert_eq!(sorted(index.range_query(q)), want, "{ctx}: range query {q:?}");
        let cursor: Vec<RowId> = index.range_query_cursor(q).collect();
        assert_eq!(sorted(cursor), want, "{ctx}: cursor {q:?}");
        let batched = index.batch_query(std::slice::from_ref(q)).remove(0).ids;
        assert_eq!(sorted(batched), want, "{ctx}: batch {q:?}");
    }
    let position: HashMap<RowId, usize> =
        ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut seen = vec![false; ds.len()];
    index.for_each_entry(&mut |id, row| {
        let i = *position.get(&id).unwrap_or_else(|| panic!("{ctx}: unknown id {id}"));
        assert_eq!(row, ds.row(i as RowId).as_slice(), "{ctx}: entry {id}");
        assert!(!std::mem::replace(&mut seen[i], true), "{ctx}: entry {id} twice");
    });
    assert!(seen.iter().all(|&s| s), "{ctx}: an entry is missing");
}

#[test]
fn every_backend_emits_the_ids_it_was_built_with() {
    let mut rng = StdRng::seed_from_u64(0xE0_08);
    for round in 0..ROUNDS {
        let ds = random_dataset(&mut rng);
        let ids = sparse_ids(&mut rng, ds.len());
        let queries: Vec<RangeQuery> =
            (0..4).map(|_| random_query(&mut rng, ds.dims())).collect();
        for spec in random_specs(&mut rng, ds.dims()) {
            let index = spec.build_with_ids(&ds, &ids);
            assert_emits_ids(
                index.as_ref(),
                &ds,
                &ids,
                &queries,
                &format!("round {round}: {spec:?}"),
            );
        }
    }
}

#[test]
fn absorbed_grids_keep_old_ids_and_take_new_ones() {
    let mut rng = StdRng::seed_from_u64(0xE0_09);
    for round in 0..ROUNDS {
        let (ds, built) = grown_dataset(&mut rng);
        let dims = ds.dims();
        let ids = sparse_ids(&mut rng, ds.len());
        let rows = |r: std::ops::Range<usize>| {
            ds.take_rows(&r.map(|i| i as RowId).collect::<Vec<_>>())
        };
        let queries: Vec<RangeQuery> = (0..4).map(|_| random_query(&mut rng, dims)).collect();
        let cells = rng.gen_range(1usize..6);
        let mut configs = vec![GridFileConfig::all_dims(dims, cells)];
        if dims > 1 {
            configs.push(GridFileConfig::with_sort(dims, dims - 1, cells));
        }
        for config in configs {
            let grid = GridFile::build_with_ids(&rows(0..built), &ids[..built], &config);
            let grown = MultidimIndex::absorbed(&grid, &rows(built..ds.len()), &ids[built..])
                .expect("a grid file absorbs");
            assert_emits_ids(
                grown.as_ref(),
                &ds,
                &ids,
                &queries,
                &format!("round {round}: {config:?}"),
            );
        }
    }
}
