//! The batch engine through the live service: a one-shard
//! `ShardedHandle` executes a whole batch against **one** snapshot, in
//! parallel, with per-query results and `ScanStats` identical to
//! sequential live queries — even while a writer keeps inserting and a
//! maintainer keeps swapping epochs underneath.

use coax::core::{CoaxConfig, ExecConfig, ShardedHandle};
use coax::data::synth::{Generator, LinearPairConfig};
use coax::data::{Dataset, RangeQuery};
use coax::index::MultidimIndex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn planted(rows: usize, seed: u64) -> Dataset {
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

fn parallel_config() -> CoaxConfig {
    CoaxConfig {
        exec: ExecConfig { min_parallel_batch: 2, ..ExecConfig::parallel() },
        ..Default::default()
    }
}

fn band_queries(count: usize) -> Vec<RangeQuery> {
    (0..count)
        .map(|i| {
            let x0 = (i as f64 * 37.0) % 900.0;
            let mut q = RangeQuery::unbounded(2);
            q.constrain(0, x0, x0 + 80.0);
            q
        })
        .collect()
}

/// Deterministic replay: two services over the same data, one sequential
/// and one parallel, absorb the same inserts — their batches must agree
/// query for query, stats included, at every stage of the lifecycle.
#[test]
fn handle_parallel_batch_matches_sequential_handle() {
    let ds = planted(8_000, 21);
    let sequential = ShardedHandle::build(&ds, &CoaxConfig::default());
    let parallel = ShardedHandle::build(&ds, &parallel_config());
    let queries = band_queries(64);

    let assert_agree = |stage: &str| {
        let a = sequential.batch_query(&queries);
        let b = parallel.batch_query(&queries);
        assert_eq!(a, b, "services diverged ({stage})");
        // And both agree with their own one-at-a-time path.
        for (q, r) in queries.iter().zip(&b) {
            let mut ids = Vec::new();
            let stats = parallel.range_query_stats(q, &mut ids);
            assert_eq!(r.stats, stats, "{stage}: batch vs single stats on {q:?}");
            assert_eq!(r.ids, ids, "{stage}: batch vs single ids on {q:?}");
        }
    };

    assert_agree("fresh");
    for i in 0..300 {
        let x = (i as f64 * 13.7) % 1000.0;
        let y = if i % 9 == 0 { 2.0 * x + 900.0 } else { 2.0 * x + 10.0 };
        sequential.insert(&[x, y]).unwrap();
        parallel.insert(&[x, y]).unwrap();
    }
    assert_agree("with overlay");
    sequential.shard_handle(0).fold();
    parallel.shard_handle(0).fold();
    assert_agree("after fold");
    sequential.shard_handle(0).refit();
    parallel.shard_handle(0).refit();
    assert_agree("after refit");
}

/// Snapshot isolation under fire: while a writer inserts and a
/// maintainer folds, every parallel batch must still see one consistent
/// epoch + overlay prefix — all queries in a batch agree on the row
/// count, and the count never moves backwards across batches.
#[test]
fn parallel_batch_sees_one_snapshot_under_concurrent_writes() {
    let ds = planted(6_000, 22);
    let service = ShardedHandle::build(&ds, &parallel_config());
    let stop = Arc::new(AtomicBool::new(false));
    let total_inserts = 2_000usize;

    std::thread::scope(|scope| {
        // Writer: steady in-band inserts, folding now and then.
        {
            let service = service.clone();
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                for i in 0..total_inserts {
                    let x = (i as f64 * 7.3) % 1000.0;
                    service.insert(&[x, 2.0 * x + 10.0]).unwrap();
                    if i % 512 == 511 {
                        service.shard_handle(0).fold();
                    }
                }
                stop.store(true, Ordering::Release);
            });
        }
        // Reader: whole-table batches; every query in a batch must see
        // the same insert-history prefix.
        let everything = vec![RangeQuery::unbounded(2); 16];
        let mut last_len = ds.len();
        while !stop.load(Ordering::Acquire) {
            let results = service.batch_query(&everything);
            let len = results[0].ids.len();
            for r in &results {
                assert_eq!(r.ids.len(), len, "torn snapshot inside one batch");
                assert_eq!(r.stats.matches, r.ids.len());
            }
            assert!(len >= last_len, "insert history went backwards: {len} < {last_len}");
            assert!(len <= ds.len() + total_inserts);
            last_len = len;
        }
    });
    let final_len = service.batch_query(&[RangeQuery::unbounded(2)])[0].ids.len();
    assert_eq!(final_len, ds.len() + total_inserts);
}
