//! Integration tests for the update path (§5's Bayesian update story +
//! §9 future work), which runs through the index service (a one-shard
//! `ShardedHandle`): insert → overlay queries → fold/refit → model
//! refresh, plus the maintenance-equivalence property behind the
//! fold/refit split: a shard's `fold()` and `refit()` must answer every
//! query exactly like a never-folded service holding the same rows.

use coax::core::{
    CoaxConfig, CoaxIndex, OutlierBackend, PrimaryBackend, ShardedHandle, ShardedSnapshot,
};
use coax::data::synth::{
    Generator, LinearPairConfig, PlantedConfig, PlantedDependent, PlantedGroup,
};
use coax::data::workload::knn_rectangle_queries;
use coax::data::{Dataset, RangeQuery};
use coax::index::{BackendSpec, FullScan, MultidimIndex};

fn planted(rows: usize, seed: u64) -> coax::data::Dataset {
    LinearPairConfig {
        rows,
        slope: 2.0,
        intercept: 10.0,
        noise_sigma: 4.0,
        outlier_fraction: 0.05,
        seed,
        ..Default::default()
    }
    .generate()
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

/// The frozen epoch of a one-shard service's snapshot.
fn frozen(snap: &ShardedSnapshot) -> &CoaxIndex {
    snap.shard(0).frozen()
}

#[test]
fn inserted_rows_are_visible_before_and_after_rebuild() {
    let ds = planted(10_000, 1);
    let service = ShardedHandle::build(&ds, &CoaxConfig::default());
    let built = service.snapshot();
    assert!(!frozen(&built).groups().is_empty());

    let rows: Vec<Vec<f64>> = (0..50)
        .map(|i| {
            let x = 13.0 * i as f64 % 1000.0;
            vec![x, 2.0 * x + 10.0]
        })
        .collect();
    let mut ids = Vec::new();
    for row in &rows {
        ids.push(service.insert(row).unwrap());
    }
    assert_eq!(service.pending_len(), 50);
    for (row, id) in rows.iter().zip(&ids) {
        assert!(service.range_query(&RangeQuery::point(row)).contains(id));
    }

    // The fold routes each row by its insert-time verdict: on-line rows
    // route to the primary.
    service.shard_handle(0).fold();
    let folded = service.snapshot();
    assert_eq!(folded.shard(0).pending_len(), 0);
    assert_eq!(
        frozen(&folded).primary_len(),
        frozen(&built).primary_len() + 50,
        "on-line rows route to primary"
    );
    assert_eq!(frozen(&folded).outlier_len(), frozen(&built).outlier_len());

    service.shard_handle(0).refit();
    let rebuilt = service.snapshot();
    assert_eq!(rebuilt.shard(0).pending_len(), 0);
    for (row, id) in rows.iter().zip(&ids) {
        assert!(frozen(&folded).range_query(&RangeQuery::point(row)).contains(id));
        assert!(frozen(&rebuilt).range_query(&RangeQuery::point(row)).contains(id));
    }
    assert_eq!(frozen(&rebuilt).primary_len() + frozen(&rebuilt).outlier_len(), ds.len() + 50);
}

#[test]
fn outlier_inserts_route_to_outlier_partition() {
    let ds = planted(10_000, 2);
    let service = ShardedHandle::build(&ds, &CoaxConfig::default());
    let built = service.snapshot();
    let before_outliers = frozen(&built).outlier_len();
    for i in 0..20 {
        let x = 50.0 * i as f64 % 1000.0;
        service.insert(&[x, 2.0 * x + 10.0 + 5000.0]).unwrap(); // far off the band
    }
    // No row passed the margin check: the fold sends all 20 to the
    // outlier partition.
    service.shard_handle(0).fold();
    let folded = service.snapshot();
    assert_eq!(frozen(&folded).outlier_len(), before_outliers + 20);
    assert_eq!(frozen(&folded).primary_len(), frozen(&built).primary_len());
    service.shard_handle(0).refit();
    assert!(
        frozen(&service.snapshot()).outlier_len() >= before_outliers + 20,
        "gross outliers must land in the outlier index"
    );
}

#[test]
fn posterior_update_tracks_a_drifting_stream() {
    // Build on data with slope 2, then stream in many rows with slope
    // 2.2; after rebuild the refreshed model should sit between the two,
    // pulled towards the new evidence.
    let ds = planted(5_000, 3);
    let service = ShardedHandle::build(&ds, &CoaxConfig::default());
    let model = frozen(&service.snapshot()).groups()[0].models[0].clone();
    let slope_before = model.as_linear().expect("linear model").params.slope.abs();
    for i in 0..5_000 {
        let x = (i as f64 * 7.7) % 1000.0;
        // Keep drifted rows inside the current margins so the posterior
        // actually sees them.
        let drift = (0.2 * x).min(model.margin_width() * 0.45);
        let y = model.predict(x) + drift;
        let _ = service.insert(&[x, y]).unwrap();
    }
    service.shard_handle(0).refit();
    let snapshot = service.snapshot();
    let rebuilt = frozen(&snapshot);
    let slope_after =
        rebuilt.groups()[0].models[0].as_linear().expect("linear model").params.slope.abs();
    assert!(slope_after != slope_before, "posterior refresh must move the model");
    // And the rebuilt index still answers exactly.
    let fs_rows = rebuilt.len();
    let all = rebuilt.range_query(&RangeQuery::unbounded(2));
    assert_eq!(all.len(), fs_rows);
}

/// Property-style seeded sweep: across primary×outlier backend
/// combinations and seeds, a mixed insert stream followed by (a) nothing,
/// (b) a shard `fold()` — models frozen — or (c) a shard `refit()` must
/// answer every query identically, and identically to a full scan over
/// the logical table. Two one-shard services over the same build take
/// the same ids: one is never folded (its snapshot is (a), and its refit
/// is (c)), the other folds, with one snapshot held before the fold and
/// one after each action.
///
/// The stream reaches beyond the build range and carries enough
/// off-band rows to step the adaptive outlier grid's resolution, so the
/// first fold rebuilds that partition; a second, smaller stream is then
/// folded into the frozen directories with no step. Every combo thus
/// runs a partition rebuild, and every grid-file partition also absorbs.
#[test]
fn fold_refit_and_no_rebuild_agree_across_backend_combos() {
    let combos: Vec<(PrimaryBackend, OutlierBackend)> = vec![
        (PrimaryBackend::GridFile, OutlierBackend::GridFile),
        (PrimaryBackend::RTree { capacity: 10 }, OutlierBackend::GridFile),
        (PrimaryBackend::GridFile, OutlierBackend::RTree { capacity: 8 }),
        (
            PrimaryBackend::Custom(BackendSpec::UniformGrid { cells_per_dim: 6 }),
            OutlierBackend::Custom(BackendSpec::FullScan),
        ),
    ];
    for (combo_i, (primary, outlier)) in combos.into_iter().enumerate() {
        for seed in [21u64, 22] {
            let ds = planted(4000, seed);
            let cfg = CoaxConfig {
                primary_backend: primary.clone(),
                outlier_backend: outlier,
                ..Default::default()
            };
            let never = ShardedHandle::build(&ds, &cfg);
            let service = ShardedHandle::build(&ds, &cfg);
            let before = service.snapshot();
            let base = frozen(&before);
            // A seeded mixed stream: in-band, gross-outlier, and
            // near-margin rows.
            let mut logical: Vec<Vec<f64>> = (0..ds.len() as u32).map(|r| ds.row(r)).collect();
            let model = base.groups()[0].models[0].clone();
            let width = model.margin_width();
            let mut rows: Vec<[f64; 2]> = (0..150)
                .map(|i| {
                    let x = ((seed as f64 + i as f64) * 37.3) % 1000.0;
                    let y = match i % 4 {
                        0 => model.predict(x),
                        1 => model.predict(x) + 30.0 * width,
                        2 => model.predict(x) - 0.45 * width,
                        _ => model.predict(x) + 0.45 * width,
                    };
                    [x, y]
                })
                .collect();
            // Beyond the build range on both attributes, in-band and far
            // off-band, plus a run of off-band rows large enough to step
            // the outlier grid's resolution.
            for i in 0..80 {
                let x = if i % 2 == 0 { 1000.0 + 3.7 * i as f64 } else { -2.9 * i as f64 };
                let y = match i % 4 {
                    0 | 1 => model.predict(x),
                    2 => model.predict(x) + 40.0 * width,
                    _ => model.predict(x) - 40.0 * width,
                };
                rows.push([x, y]);
            }
            rows.extend((0..120).map(|i| {
                let x = ((seed as f64 + i as f64) * 53.9) % 1000.0;
                [x, model.predict(x) + (10.0 + (i % 7) as f64) * width]
            }));
            for row in &rows {
                assert_eq!(never.insert(row).unwrap(), service.insert(row).unwrap());
                logical.push(row.to_vec());
            }
            let outlier_spec = |rows: usize, sort_dim| {
                outlier.to_spec(rows, 2, sort_dim, cfg.outlier_cells_per_dim)
            };

            service.shard_handle(0).fold();
            let folded = service.snapshot();
            assert_eq!(folded.shard(0).pending_len(), 0);
            assert_eq!(folded.len(), never.len());
            // The fold sends exactly the off-band rows to the outliers.
            let off_band = frozen(&folded).outlier_len() - base.outlier_len();
            if outlier == OutlierBackend::GridFile {
                assert_ne!(
                    outlier_spec(base.outlier_len(), base.sort_dim()),
                    outlier_spec(base.outlier_len() + off_band, base.sort_dim()),
                    "the stream must step the outlier grid (combo {combo_i}, seed {seed})"
                );
            }
            // The fold must not have touched a model.
            assert_eq!(
                frozen(&folded).groups()[0].models[0],
                base.groups()[0].models[0],
                "fold froze no model (combo {combo_i}, seed {seed})"
            );
            if outlier == OutlierBackend::GridFile {
                assert_ne!(
                    frozen(&folded).outlier_overhead(),
                    base.outlier_overhead(),
                    "a stepping fold rebuilds the outlier grid (combo {combo_i}, seed {seed})"
                );
            }

            // A second, smaller stream folds with no resolution step:
            // in-band rows, some beyond the build range, and a few far
            // off-band rows beyond every `y` stored so far.
            let mut more: Vec<[f64; 2]> = (0..20)
                .map(|i| {
                    let x =
                        if i % 3 == 0 { 1300.0 + i as f64 } else { (i as f64 * 41.1) % 1000.0 };
                    [x, model.predict(x)]
                })
                .collect();
            more.extend(
                [(1300.0, 80.0), (1350.0, 80.0), (-300.0, -80.0), (-350.0, -80.0)]
                    .map(|(x, k)| [x, model.predict(x) + k * width]),
            );
            for row in &more {
                assert_eq!(never.insert(row).unwrap(), service.insert(row).unwrap());
                logical.push(row.to_vec());
            }
            // The first fold's epoch, with the second stream in its overlay.
            let folded = service.snapshot();
            service.shard_handle(0).fold();
            let refolded = service.snapshot();
            assert_eq!(refolded.shard(0).pending_len(), 0);
            assert_eq!(refolded.len(), never.len());
            let (once, twice) = (frozen(&folded), frozen(&refolded));
            let off_band = twice.outlier_len() - once.outlier_len();
            assert_eq!(
                outlier_spec(once.outlier_len(), once.sort_dim()),
                outlier_spec(once.outlier_len() + off_band, once.sort_dim()),
                "the second stream must not step the outlier grid (combo {combo_i}, seed {seed})"
            );
            assert_eq!(twice.groups()[0].models[0], base.groups()[0].models[0]);
            if outlier == OutlierBackend::GridFile {
                assert_eq!(
                    twice.outlier_overhead(),
                    once.outlier_overhead(),
                    "an absorbing fold keeps the outlier directory (combo {combo_i}, seed {seed})"
                );
            }
            let unfolded = never.snapshot();
            never.shard_handle(0).refit();
            let refitted = never.snapshot();

            let columns: Vec<Vec<f64>> =
                (0..2).map(|d| logical.iter().map(|r| r[d]).collect()).collect();
            let fs = FullScan::build(&Dataset::new(columns));
            let mut queries: Vec<RangeQuery> = (0..8)
                .map(|i| {
                    let x0 = (seed as f64 * 11.0 + i as f64 * 113.0) % 900.0;
                    let mut q = RangeQuery::unbounded(2);
                    q.constrain(0, x0, x0 + 80.0);
                    q.constrain(1, 2.0 * x0 - 100.0, 2.0 * x0 + 400.0);
                    q
                })
                .collect();
            // Dependent-only queries exercise translation through all
            // three lifecycles (and the refitted margins).
            let mut dep_only = RangeQuery::unbounded(2);
            dep_only.constrain(1, 300.0, 420.0);
            queries.push(dep_only);
            // Probes beyond the build range, where only inserted rows live.
            for (d, lo, hi) in
                [(0, 1000.5, 1400.0), (0, -400.0, -0.5), (1, 2300.0, f64::INFINITY)]
            {
                let mut q = RangeQuery::unbounded(2);
                q.constrain(d, lo, hi);
                queries.push(q);
            }
            // Only the second stream's far rows lie past these `y`
            // bounds: an absorbing fold must have widened the outlier
            // grid's outer edges to reach them.
            for (lo, hi) in [
                (f64::NEG_INFINITY, -100.0),
                (f64::NEG_INFINITY, model.predict(-300.0) - 60.0 * width),
                (model.predict(1300.0) + 60.0 * width, f64::INFINITY),
            ] {
                let mut q = RangeQuery::unbounded(2);
                q.constrain(1, lo, hi);
                queries.push(q);
            }
            for q in &queries {
                let expected = sorted(fs.range_query(q));
                assert_eq!(
                    sorted(unfolded.range_query(q)),
                    expected,
                    "never-rebuilt diverged (combo {combo_i}, seed {seed}, {q:?})"
                );
                assert_eq!(
                    sorted(folded.range_query(q)),
                    expected,
                    "fold diverged (combo {combo_i}, seed {seed}, {q:?})"
                );
                assert_eq!(
                    sorted(refolded.range_query(q)),
                    expected,
                    "second fold diverged (combo {combo_i}, seed {seed}, {q:?})"
                );
                assert_eq!(
                    sorted(refitted.range_query(q)),
                    expected,
                    "refit diverged (combo {combo_i}, seed {seed}, {q:?})"
                );
            }
        }
    }
}

/// A shard fold with no resolution step absorbs into the frozen
/// directories: both partitions' overheads stay the previous epoch's,
/// and every answer stays exact — rows beyond the build range on the
/// primary grid's gridded attribute included.
#[test]
fn handle_fold_keeps_the_directories_and_stays_exact() {
    let ds = PlantedConfig {
        rows: 6_000,
        groups: vec![PlantedGroup {
            x_range: (0.0, 1000.0),
            dependents: vec![PlantedDependent {
                slope: 2.0,
                intercept: 25.0,
                noise_sigma: 4.0,
            }],
            outlier_fraction: 0.08,
            outlier_offset_sigmas: 25.0,
        }],
        independent: vec![(0.0, 100.0)],
        seed: 51,
    }
    .generate();
    let cfg = CoaxConfig::default();
    let service = ShardedHandle::build(&ds, &cfg);
    let before = service.snapshot();
    let built = frozen(&before);
    // x → y is learned; the primary grids the independent z and sorts x.
    assert_eq!(built.indexed_dims(), vec![0, 2]);
    let model = built.groups()[0].models[0].clone();

    let mut logical: Vec<Vec<f64>> = (0..ds.len() as u32).map(|r| ds.row(r)).collect();
    let mut off_band = 0;
    for i in 0..400 {
        let x = (i as f64 * 17.3) % 1000.0;
        // z beyond the build range [0, 100) on either side.
        let z = if i % 2 == 0 { 100.0 + i as f64 } else { -(i as f64) };
        let y = if i % 50 == 0 {
            off_band += 1;
            model.predict(x) + 40.0 * model.margin_width()
        } else {
            model.predict(x)
        };
        service.insert(&[x, y, z]).unwrap();
        logical.push(vec![x, y, z]);
    }
    let spec = |rows| {
        cfg.outlier_backend.to_spec(rows, 3, built.sort_dim(), cfg.outlier_cells_per_dim)
    };
    assert_eq!(
        spec(built.outlier_len()),
        spec(built.outlier_len() + off_band),
        "the stream must not step the outlier grid"
    );

    service.shard_handle(0).fold();
    let after = service.snapshot();
    assert_eq!(after.shard(0).epoch(), before.shard(0).epoch() + 1);
    assert_eq!(after.shard(0).pending_len(), 0);
    assert_eq!(frozen(&after).outlier_len(), built.outlier_len() + off_band);
    assert_eq!(frozen(&after).primary_overhead(), built.primary_overhead());
    assert_eq!(frozen(&after).outlier_overhead(), built.outlier_overhead());

    let columns: Vec<Vec<f64>> =
        (0..3).map(|d| logical.iter().map(|r| r[d]).collect()).collect();
    let all = Dataset::new(columns);
    let fs = FullScan::build(&all);
    let mut queries = knn_rectangle_queries(&all, 20, 40, 52);
    for (lo, hi) in [(150.0, f64::INFINITY), (f64::NEG_INFINITY, -50.0), (90.0, 120.0)] {
        let mut q = RangeQuery::unbounded(3);
        q.constrain(2, lo, hi);
        queries.push(q);
    }
    for q in &queries {
        assert_eq!(sorted(service.range_query(q)), sorted(fs.range_query(q)), "{q:?}");
    }
}

/// The fold carries the Bayesian posteriors over, so evidence collected
/// before a fold still shapes a later refit.
#[test]
fn fold_preserves_posterior_evidence_for_a_later_refit() {
    let ds = planted(5_000, 31);
    let service = ShardedHandle::build(&ds, &CoaxConfig::default());
    let model = frozen(&service.snapshot()).groups()[0].models[0].clone();
    let line = |snap: &ShardedSnapshot| {
        frozen(snap).groups()[0].models[0].as_linear().expect("linear model").params
    };
    let before = line(&service.snapshot());
    // Stream biased-but-in-margin rows, fold (models must stay frozen),
    // then refit: the refreshed line must reflect the pre-fold stream.
    for i in 0..4_000 {
        let x = (i as f64 * 7.7) % 1000.0;
        let y = model.predict(x) + model.margin_width() * 0.45;
        service.insert(&[x, y]).unwrap();
    }
    service.shard_handle(0).fold();
    let slope_folded = line(&service.snapshot()).slope;
    assert_eq!(slope_folded, before.slope, "fold must not move the line");
    service.shard_handle(0).refit();
    let intercept_before = before.intercept;
    let intercept_after = line(&service.snapshot()).intercept;
    assert!(
        intercept_after != intercept_before,
        "refit after fold must see the folded stream's evidence"
    );
}

#[test]
fn rebuild_after_mixed_inserts_is_exact() {
    let ds = planted(8_000, 4);
    let service = ShardedHandle::build(&ds, &CoaxConfig::default());
    // A mix of in-band, off-band, and boundary rows.
    let mut all_rows: Vec<Vec<f64>> = Vec::new();
    for r in 0..ds.len() as u32 {
        all_rows.push(ds.row(r));
    }
    for i in 0..200 {
        let x = (i as f64 * 31.0) % 1000.0;
        let y = match i % 3 {
            0 => 2.0 * x + 10.0,
            1 => 2.0 * x + 10.0 + 1000.0,
            _ => 2.0 * x + 10.0 - 300.0,
        };
        service.insert(&[x, y]).unwrap();
        all_rows.push(vec![x, y]);
    }
    service.shard_handle(0).refit();
    let snapshot = service.snapshot();
    let rebuilt = frozen(&snapshot);

    // Compare against a full scan over the same logical table.
    let columns =
        (0..2).map(|d| all_rows.iter().map(|r| r[d]).collect::<Vec<f64>>()).collect::<Vec<_>>();
    let logical = coax::data::Dataset::new(columns);
    let fs = FullScan::build(&logical);
    for i in 0..12 {
        let x0 = i as f64 * 80.0;
        let mut q = RangeQuery::unbounded(2);
        q.constrain(0, x0, x0 + 60.0);
        q.constrain(1, 2.0 * x0 - 200.0, 2.0 * x0 + 400.0);
        assert_eq!(sorted(rebuilt.range_query(&q)), sorted(fs.range_query(&q)));
    }
}
