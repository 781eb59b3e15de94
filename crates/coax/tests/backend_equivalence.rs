//! Workspace-level equivalence: a random workload runs through **every**
//! index — the five conventional substrates *and* `CoaxIndex` — built
//! solely through the backend factory and driven solely as
//! `Box<dyn MultidimIndex>`, and each one returns exactly the full-scan
//! result set.
//!
//! This is the tentpole invariant of the unified-index refactor: COAX is
//! just another backend, distinguishable from the substrates only by its
//! name string.

use coax::core::{CoaxConfig, IndexSpec, ObsConfig, OutlierBackend, PrimaryBackend};
use coax::data::synth::{AirlineConfig, Generator, OsmConfig};
use coax::data::workload::{knn_rectangle_queries, partial_queries, point_queries};
use coax::data::{Dataset, RangeQuery};
use coax::index::{BackendSpec, FullScan, MultidimIndex};

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

fn random_workload(ds: &Dataset, seed: u64) -> Vec<RangeQuery> {
    let mut queries = knn_rectangle_queries(ds, 8, 50, seed);
    queries.extend(point_queries(ds, 6, seed + 1));
    queries.extend(partial_queries(ds, 6, 30, 2, seed + 2));
    queries.push(RangeQuery::unbounded(ds.dims()));
    let mut empty = RangeQuery::unbounded(ds.dims());
    empty.constrain(0, 1.0, 0.0);
    queries.push(empty);
    queries
}

/// Every backend the factory can produce, including COAX configured with
/// each primary- and outlier-backend flavour — and COAX-over-COAX.
fn all_specs() -> Vec<IndexSpec> {
    let mut specs = IndexSpec::all_kinds(4, 10);
    specs.push(IndexSpec::coax(CoaxConfig {
        outlier_backend: OutlierBackend::RTree { capacity: 8 },
        ..Default::default()
    }));
    specs.push(IndexSpec::coax(CoaxConfig {
        outlier_backend: OutlierBackend::Custom(BackendSpec::FullScan),
        ..Default::default()
    }));
    specs.push(IndexSpec::coax(CoaxConfig {
        primary_backend: PrimaryBackend::RTree { capacity: 8 },
        ..Default::default()
    }));
    specs.push(IndexSpec::coax(CoaxConfig {
        primary_backend: PrimaryBackend::Custom(BackendSpec::UniformGrid { cells_per_dim: 3 }),
        ..Default::default()
    }));
    // Correlation nesting: a COAX primary inside a COAX index, with a
    // non-default outlier store on the outside for good measure.
    specs.push(IndexSpec::coax(CoaxConfig {
        primary_backend: PrimaryBackend::Coax(Box::default()),
        outlier_backend: OutlierBackend::RTree { capacity: 10 },
        ..Default::default()
    }));
    specs
}

#[test]
fn every_boxed_backend_matches_full_scan() {
    for (name, dataset) in [
        ("airline", AirlineConfig::small(6_000, 17).generate()),
        ("osm", OsmConfig::small(6_000, 18).generate()),
    ] {
        let queries = random_workload(&dataset, 0xB0);
        let fs = FullScan::build(&dataset);
        let backends: Vec<Box<dyn MultidimIndex>> =
            all_specs().iter().map(|spec| spec.build(&dataset)).collect();
        assert!(
            backends.iter().any(|b| b.name() == "coax"),
            "CoaxIndex must be among the factory-built backends"
        );

        for q in &queries {
            let expected = sorted(fs.range_query(q));
            for backend in &backends {
                assert_eq!(
                    sorted(backend.range_query(q)),
                    expected,
                    "{name}: {} diverged on {q:?}",
                    backend.name()
                );
            }
        }
    }
}

#[test]
fn boxed_batch_and_point_surfaces_agree() {
    let dataset = OsmConfig::small(4_000, 19).generate();
    let queries = random_workload(&dataset, 0xB1);
    for spec in all_specs() {
        let backend = spec.build(&dataset);
        // Batch path == sequential path, through the box.
        for (q, result) in queries.iter().zip(backend.batch_query(&queries)) {
            let mut ids = Vec::new();
            let stats = backend.range_query_stats(q, &mut ids);
            assert_eq!(result.stats, stats, "{}: stats diverged", backend.name());
            assert_eq!(sorted(result.ids), sorted(ids), "{}", backend.name());
        }
        // Point path == point-rectangle path, through the box.
        let row = dataset.row(123);
        assert_eq!(
            sorted(backend.point_query(&row)),
            sorted(backend.range_query(&RangeQuery::point(&row))),
            "{}",
            backend.name()
        );
        assert!(backend.point_query(&row).contains(&123), "{}", backend.name());
    }
}

/// The acceptance bar of the symmetric-seam refactor: COAX answers
/// exactly with every primary × outlier substrate combination, all built
/// through the factory. The GridFile primary exercises the fused
/// navigate-and-filter override; every other primary exercises the
/// trait-default probe — both must produce identical result sets.
#[test]
fn primary_x_outlier_combinations_match_full_scan() {
    let dataset = AirlineConfig::small(5_000, 21).generate();
    let queries = random_workload(&dataset, 0xB2);
    let fs = FullScan::build(&dataset);
    let expected: Vec<Vec<u32>> = queries.iter().map(|q| sorted(fs.range_query(q))).collect();

    let primaries = [
        ("grid-file", PrimaryBackend::GridFile),
        ("r-tree", PrimaryBackend::RTree { capacity: 8 }),
        ("full-grid", PrimaryBackend::Custom(BackendSpec::UniformGrid { cells_per_dim: 4 })),
    ];
    let outliers = [
        ("grid-file", OutlierBackend::GridFile),
        ("r-tree", OutlierBackend::RTree { capacity: 8 }),
        ("full-scan", OutlierBackend::Custom(BackendSpec::FullScan)),
    ];
    for (p_name, primary) in &primaries {
        for (o_name, outlier) in &outliers {
            let spec = IndexSpec::coax(CoaxConfig {
                primary_backend: primary.clone(),
                outlier_backend: *outlier,
                ..Default::default()
            });
            assert!(spec.fits(&dataset), "primary={p_name} outliers={o_name}");
            let index = spec.build(&dataset);
            for (q, expected) in queries.iter().zip(&expected) {
                assert_eq!(
                    &sorted(index.range_query(q)),
                    expected,
                    "primary={p_name} outliers={o_name} diverged on {q:?}"
                );
            }
        }
    }
}

/// End-to-end differential check of the vectorized scan kernel: every
/// primary × outlier COAX combination answers the workload **bit
/// identically** (ids in order, `ScanStats` bit for bit) with the scalar
/// reference path forced and with the columnar kernel active.
#[test]
fn primary_x_outlier_combinations_are_scalar_kernel_identical() {
    let dataset = OsmConfig::small(4_000, 22).generate();
    let queries = random_workload(&dataset, 0xB3);

    let primaries = [
        PrimaryBackend::GridFile,
        PrimaryBackend::RTree { capacity: 8 },
        PrimaryBackend::Custom(BackendSpec::UniformGrid { cells_per_dim: 4 }),
    ];
    let outliers = [
        OutlierBackend::GridFile,
        OutlierBackend::RTree { capacity: 8 },
        OutlierBackend::Custom(BackendSpec::FullScan),
    ];
    for primary in &primaries {
        for outlier in &outliers {
            let index = IndexSpec::coax(CoaxConfig {
                primary_backend: primary.clone(),
                outlier_backend: *outlier,
                ..Default::default()
            })
            .build(&dataset);

            let run = || {
                queries
                    .iter()
                    .map(|q| {
                        let mut ids = Vec::new();
                        let stats = index.range_query_stats(q, &mut ids);
                        (ids, stats)
                    })
                    .collect::<Vec<_>>()
            };
            coax::index::kernel::force_scalar(true);
            let scalar = run();
            coax::index::kernel::force_scalar(false);
            let vectorized = run();
            assert_eq!(
                scalar, vectorized,
                "kernel paths diverged (primary {primary:?}, outliers {outlier:?})"
            );
        }
    }
}

/// The observability layer's acceptance invariant: recording must never
/// perturb an answer. Every primary × outlier COAX combination runs the
/// workload twice — recorder enabled (the default) and
/// [`ObsConfig::disabled`] — and the per-query `(ids, ScanStats)` pairs
/// must be bit-identical.
#[test]
fn obs_on_and_off_are_bit_identical() {
    let dataset = AirlineConfig::small(4_000, 23).generate();
    let queries = random_workload(&dataset, 0xB4);

    let primaries = [
        PrimaryBackend::GridFile,
        PrimaryBackend::RTree { capacity: 8 },
        PrimaryBackend::Custom(BackendSpec::UniformGrid { cells_per_dim: 4 }),
    ];
    let outliers = [
        OutlierBackend::GridFile,
        OutlierBackend::RTree { capacity: 8 },
        OutlierBackend::Custom(BackendSpec::FullScan),
    ];
    for primary in &primaries {
        for outlier in &outliers {
            let run = |obs: ObsConfig| {
                let index = IndexSpec::coax(CoaxConfig {
                    primary_backend: primary.clone(),
                    outlier_backend: *outlier,
                    obs,
                    ..Default::default()
                })
                .build(&dataset);
                queries
                    .iter()
                    .map(|q| {
                        let mut ids = Vec::new();
                        let stats = index.range_query_stats(q, &mut ids);
                        (ids, stats)
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                run(ObsConfig::default()),
                run(ObsConfig::disabled()),
                "observability perturbed results (primary {primary:?}, outliers {outlier:?})"
            );
        }
    }
}

/// The service's read session is a backend too: a directly built
/// [`CoaxIndex`] and a [`ShardedSnapshot`] of the one-shard service the
/// factory builds over the same dataset answer the workload
/// bit-identically to the factory-built boxed backend on every
/// overridden trait surface — batch and cursor. This is the equivalence
/// pin `trait-contract` demands for both `MultidimIndex` impls.
#[test]
fn coax_index_and_read_snapshot_match_boxed_surfaces() {
    use coax::core::{CoaxIndex, ShardedSnapshot};
    let dataset = OsmConfig::small(3_000, 24).generate();
    let queries = random_workload(&dataset, 0xB5);
    let config = CoaxConfig::default();
    let index: CoaxIndex = CoaxIndex::build(&dataset, &config);
    let spec = IndexSpec::coax(config);
    let service = spec.build_service(&dataset).expect("coax spec yields a service");
    let snapshot: ShardedSnapshot = service.snapshot();
    let boxed = spec.build(&dataset);

    let expected = boxed.batch_query(&queries);
    assert_eq!(index.batch_query(&queries), expected, "CoaxIndex batch diverged");
    assert_eq!(snapshot.batch_query(&queries), expected, "ShardedSnapshot batch diverged");
    for (q, expect) in queries.iter().zip(&expected) {
        let (ids, stats) = index.range_query_cursor(q).collect_with_stats();
        assert_eq!((ids, stats), (expect.ids.clone(), expect.stats), "CoaxIndex cursor {q:?}");
        let (ids, stats) = snapshot.range_query_cursor(q).collect_with_stats();
        assert_eq!(
            (ids, stats),
            (expect.ids.clone(), expect.stats),
            "ShardedSnapshot cursor {q:?}"
        );
    }
}

#[test]
fn boxed_entry_iteration_covers_every_backend() {
    let dataset = AirlineConfig::small(2_000, 20).generate();
    for spec in all_specs() {
        let backend = spec.build(&dataset);
        let mut seen = vec![false; dataset.len()];
        backend.for_each_entry(&mut |id, row| {
            assert_eq!(row, dataset.row(id).as_slice(), "{} entry {id}", backend.name());
            assert!(!seen[id as usize], "{} repeated {id}", backend.name());
            seen[id as usize] = true;
        });
        assert!(seen.iter().all(|&s| s), "{} must yield every row", backend.name());
    }
}
