//! Thread-safety: every index is `Send + Sync` and answers queries
//! correctly from concurrent readers.
//!
//! The paper benchmarks single-threaded (§8.1.1), but a production index
//! must at minimum support shared read access; the frozen structures are
//! immutable after build, so for them this is a compile-time guarantee
//! plus a smoke test. The index service (`ShardedHandle`) goes further —
//! readers concurrent with inserts *and* epoch swaps — so it gets a
//! dedicated torn-epoch hunt below.

use coax::core::maint::IndexHandle;
use coax::core::{CoaxConfig, CoaxIndex, MaintenancePolicy, ShardedHandle};
use coax::data::synth::{AirlineConfig, Generator, LinearPairConfig};
use coax::data::workload::knn_rectangle_queries;
use coax::data::{RangeQuery, RowId};
use coax::index::{ColumnFiles, FullScan, GridFile, MultidimIndex, RTree, UniformGrid};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn all_indexes_are_send_and_sync() {
    assert_send_sync::<CoaxIndex>();
    assert_send_sync::<GridFile>();
    assert_send_sync::<UniformGrid>();
    assert_send_sync::<ColumnFiles>();
    assert_send_sync::<RTree>();
    assert_send_sync::<FullScan>();
    assert_send_sync::<IndexHandle>();
    assert_send_sync::<ShardedHandle>();
    assert_send_sync::<coax::data::Dataset>();
}

#[test]
fn concurrent_readers_agree_with_serial_execution() {
    let dataset = AirlineConfig::small(20_000, 55).generate();
    let index = Arc::new(CoaxIndex::build(&dataset, &CoaxConfig::default()));
    let queries = Arc::new(knn_rectangle_queries(&dataset, 32, 50, 56));

    // Serial reference results.
    let expected: Vec<Vec<u32>> = queries
        .iter()
        .map(|q| {
            let mut v = index.range_query(q);
            v.sort_unstable();
            v
        })
        .collect();

    let mut handles = Vec::new();
    for t in 0..4 {
        let index = Arc::clone(&index);
        let queries = Arc::clone(&queries);
        handles.push(std::thread::spawn(move || {
            // Each thread walks the workload from a different offset.
            (0..queries.len())
                .map(|i| {
                    let q = &queries[(i + t * 7) % queries.len()];
                    let mut v = index.range_query(q);
                    v.sort_unstable();
                    ((i + t * 7) % queries.len(), v)
                })
                .collect::<Vec<_>>()
        }));
    }
    for handle in handles {
        for (qi, got) in handle.join().expect("no reader panics") {
            assert_eq!(got, expected[qi], "thread diverged on query {qi}");
        }
    }
}

/// Torn-epoch hunt: readers hammer a one-shard service while one thread
/// streams inserts (drifting mid-stream, so refits fire) and the shard's
/// `Maintainer` thread folds/refits concurrently. Because the service
/// allocates ids sequentially and publishes each insert before returning,
/// every reader snapshot must be a *contiguous prefix* of the insert
/// history: an unbounded query returning ids `{0..k}` exactly, with `k`
/// non-decreasing per reader. A duplicate (row in old overlay *and* new
/// epoch), a gap (row folded out of the overlay before the new epoch
/// published), or a backwards step would each be a torn epoch.
#[test]
fn index_handle_readers_never_observe_a_torn_epoch() {
    const BUILD: usize = 4_000;
    const STREAM: usize = 4_000;
    let dataset = LinearPairConfig {
        rows: BUILD,
        slope: 2.0,
        intercept: 10.0,
        noise_sigma: 4.0,
        outlier_fraction: 0.03,
        seed: 77,
        ..Default::default()
    }
    .generate();
    let config = CoaxConfig {
        maintenance: MaintenancePolicy {
            // Aggressive thresholds so several folds and at least one
            // refit land *during* the reader barrage.
            max_pending: 500,
            min_inserts: 200,
            ewma_alpha: 1.0 / 64.0,
            ..Default::default()
        },
        ..Default::default()
    };
    let service = ShardedHandle::build(&dataset, &config);
    let stop = Arc::new(AtomicBool::new(false));

    // Writer: stationary for the first half, drifted afterwards (the
    // drift makes the maintainer's decide() escalate fold → refit).
    let writer = {
        let service = service.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for i in 0..STREAM {
                let x = (i as f64 * 7.31) % 1000.0;
                let drift = if i < STREAM / 2 { 0.0 } else { 60.0 };
                let id = service.insert(&[x, 2.0 * x + 10.0 + drift]).expect("insert");
                assert_eq!(id as usize, BUILD + i, "sequential id allocation");
                // Stretch the write window so readers and maintainer get
                // real overlap with the insert stream.
                if i % 128 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            stop.store(true, Ordering::Relaxed);
        })
    };
    let maintainers: Vec<_> = service
        .maintainers()
        .into_iter()
        .map(|maintainer| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                maintainer.run(&stop, std::time::Duration::from_millis(1))
            })
        })
        .collect();
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let service = service.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let everything = RangeQuery::unbounded(2);
                let mut last_len = BUILD;
                let mut snapshots = 0usize;
                loop {
                    let done = stop.load(Ordering::Relaxed);
                    let mut ids = service.range_query(&everything);
                    ids.sort_unstable();
                    assert!(ids.len() >= last_len, "result set shrank: torn epoch");
                    assert_eq!(
                        ids,
                        (0..ids.len() as RowId).collect::<Vec<_>>(),
                        "non-contiguous ids: torn epoch (duplicate or lost row)"
                    );
                    last_len = ids.len();
                    snapshots += 1;
                    if done {
                        break;
                    }
                }
                snapshots
            })
        })
        .collect();

    writer.join().expect("writer panicked");
    let actions: usize =
        maintainers.into_iter().map(|m| m.join().expect("maintainer panicked")).sum();
    for r in readers {
        let snapshots = r.join().expect("reader observed a torn epoch");
        assert!(snapshots > 0, "reader must have observed at least one snapshot");
    }
    assert!(actions >= 2, "maintenance must have run during the barrage, got {actions}");

    // Final state: everything inserted exactly once, and the epoch moved.
    let mut ids = service.range_query(&RangeQuery::unbounded(2));
    ids.sort_unstable();
    assert_eq!(ids, (0..(BUILD + STREAM) as RowId).collect::<Vec<_>>());
    let epoch = service.shard_handle(0).epoch();
    assert!(epoch >= 2, "expected several epoch swaps, got {epoch}");
}
