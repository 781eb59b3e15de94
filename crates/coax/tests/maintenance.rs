//! End-to-end test of the live-maintenance subsystem: a seeded
//! correlation-drift scenario driven through the full loop —
//! `DriftMonitor` detects, `MaintenancePolicy`/`Maintainer` choose refit,
//! readers of the live service stay exact throughout, and post-refit
//! effectiveness recovers to a fresh build's level.

use coax::core::maint::MaintenanceAction;
use coax::core::{CoaxConfig, CoaxIndex, MaintenancePolicy, ShardedHandle};
use coax::data::synth::{DriftingLinearConfig, Generator};
use coax::data::{Dataset, RangeQuery, RowId};
use coax::index::{FullScan, MultidimIndex, ScanStats};

fn sorted(mut v: Vec<RowId>) -> Vec<RowId> {
    v.sort_unstable();
    v
}

/// Micro-averaged Eq. 5 over a workload (Σmatches / Σexamined, pending
/// scans included).
fn effectiveness(index: &dyn MultidimIndex, queries: &[RangeQuery]) -> f64 {
    let mut total = ScanStats::default();
    let mut out = Vec::new();
    for q in queries {
        out.clear();
        total = total.merge(index.range_query_stats(q, &mut out));
    }
    total.effectiveness()
}

/// Band queries on the *dependent* attribute — the queries translation
/// exists for, and the first casualties of a drifted model.
fn dependent_band_queries(ds: &Dataset, count: usize, width: f64) -> Vec<RangeQuery> {
    let (lo, hi) = ds.min_max(1).expect("non-empty");
    (0..count)
        .map(|i| {
            let y0 = lo + (hi - lo - width) * i as f64 / count as f64;
            let mut q = RangeQuery::unbounded(ds.dims());
            q.constrain(1, y0, y0 + width);
            q
        })
        .collect()
}

/// The ISSUE's acceptance scenario, seeded and asserted end to end.
#[test]
fn drift_scenario_detect_refit_recover() {
    // A stream whose dependency holds for the first half, then the
    // intercept drifts upward by about two margin half-widths — enough
    // to break the frozen margins, gentle enough that the dependency
    // itself survives (a fresh discovery still accepts the pair, which
    // is what makes the fresh-build comparison below meaningful).
    let stream = DriftingLinearConfig {
        rows: 24_000,
        drift_after: 12_000,
        x_range: (0.0, 1000.0),
        start: (2.0, 25.0),
        end: (2.0, 55.0),
        noise_sigma: 4.0,
        outlier_fraction: 0.01,
        outlier_offset_sigmas: 25.0,
        independent: vec![(0.0, 100.0)],
        seed: 0xD41F,
    };
    let full = stream.generate();
    let build_rows: Vec<RowId> = (0..stream.drift_after as RowId).collect();
    let build_ds = full.take_rows(&build_rows);

    let config = CoaxConfig {
        maintenance: MaintenancePolicy {
            // Let the whole drifting suffix accumulate so this test makes
            // exactly one maintenance decision at the end; the policy
            // must still rank refit (drifted models) above fold (long
            // buffer).
            max_pending: usize::MAX,
            ..Default::default()
        },
        ..Default::default()
    };
    let service = ShardedHandle::build(&build_ds, &config);
    assert!(
        !service.snapshot().shard(0).frozen().groups().is_empty(),
        "dependency must be discovered"
    );

    // --- stream the drifting suffix, asserting reader exactness at
    // --- checkpoints against a full scan of everything inserted so far.
    let mut checkpoints_checked = 0;
    for i in stream.drift_after..stream.rows {
        let id = service.insert(&full.row(i as RowId)).expect("insert");
        assert_eq!(id as usize, i, "service ids follow stream order");
        if (i + 1) % 4000 == 0 {
            let seen: Vec<RowId> = (0..=i as RowId).collect();
            let fs = FullScan::build(&full.take_rows(&seen));
            for q in dependent_band_queries(&full, 6, 40.0) {
                assert_eq!(
                    sorted(service.range_query(&q)),
                    sorted(fs.range_query(&q)),
                    "reader diverged at row {i} on {q:?}"
                );
            }
            checkpoints_checked += 1;
        }
    }
    assert_eq!(checkpoints_checked, 3);

    // --- the monitor saw the drift.
    let report = service.shard_handle(0).drift_report();
    assert!(
        report.max_drift_score() >= config.maintenance.drift_threshold,
        "drift score {} must cross the threshold {}",
        report.max_drift_score(),
        config.maintenance.drift_threshold
    );
    assert_eq!(report.pending, 12_000);

    // --- effectiveness during drift (stale margins + bloated buffer).
    let queries = dependent_band_queries(&full, 15, 40.0);
    let eff_during = effectiveness(&service, &queries);

    // --- the maintainer chooses refit and publishes a new epoch.
    let outcome = service.maintainers()[0].tick();
    assert_eq!(outcome.action, MaintenanceAction::Refit, "drift demands a refit, not a fold");
    assert_eq!(outcome.epoch, 1);
    assert_eq!(service.pending_len(), 0);

    // --- readers are still exact against the full logical table.
    let fs = FullScan::build(&full);
    for q in &queries {
        assert_eq!(sorted(service.range_query(q)), sorted(fs.range_query(q)));
    }

    // --- and effectiveness recovered to a fresh build's level.
    let fresh = CoaxIndex::build(&full, &config);
    let eff_fresh = effectiveness(&fresh, &queries);
    let eff_after = effectiveness(&service, &queries);
    assert!(
        eff_after > eff_during,
        "refit must improve effectiveness: during={eff_during:.4} after={eff_after:.4}"
    );
    assert!(
        eff_after >= 0.9 * eff_fresh,
        "post-refit effectiveness {eff_after:.4} must be within 10% of a fresh \
         build's {eff_fresh:.4}"
    );
}

/// A stationary stream must never trigger a refit — the policy folds on
/// buffer length alone, keeping the models untouched.
#[test]
fn stationary_stream_folds_but_never_refits() {
    let stream = DriftingLinearConfig {
        rows: 12_000,
        drift_after: 12_000, // never drifts
        start: (2.0, 25.0),
        end: (2.0, 25.0),
        outlier_fraction: 0.02,
        seed: 0xBEEF,
        ..Default::default()
    };
    let full = stream.generate();
    let build_rows: Vec<RowId> = (0..8_000).collect();
    let config = CoaxConfig {
        maintenance: MaintenancePolicy { max_pending: 1500, ..Default::default() },
        ..Default::default()
    };
    let service = ShardedHandle::build(&full.take_rows(&build_rows), &config);
    let model_before = service.snapshot().shard(0).frozen().groups()[0].models[0].clone();
    let maintainers = service.maintainers();
    let mut folds = 0;
    for i in 8_000..12_000 {
        service.insert(&full.row(i)).expect("insert");
        let outcome = maintainers[0].tick();
        match outcome.action {
            MaintenanceAction::None => {}
            MaintenanceAction::Fold => folds += 1,
            MaintenanceAction::Refit => {
                panic!("stationary stream refitted: {:?}", outcome.report)
            }
        }
    }
    assert!(folds >= 2, "the fold trigger must have fired, got {folds}");
    assert_eq!(
        service.snapshot().shard(0).frozen().groups()[0].models[0],
        model_before,
        "folds froze every model"
    );
    // Everything inserted is still there, exactly once.
    let all = sorted(service.range_query(&RangeQuery::unbounded(full.dims())));
    assert_eq!(all, (0..12_000).collect::<Vec<RowId>>());
}
