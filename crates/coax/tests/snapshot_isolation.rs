//! Snapshot isolation: a [`ShardedSnapshot`] is one consistent version.
//!
//! The acceptance bar of the read-session redesign: a session taken
//! from the live service ([`ShardedHandle`]) answers every query —
//! point, range, batch, cursor, streaming — from exactly the version
//! that was current when [`ShardedHandle::snapshot`] ran, while a writer
//! keeps inserting and a maintainer keeps folding/refitting underneath
//! it. A repeated query returns identical results before and after a
//! refit publishes; only a *new* snapshot sees the new version.

use coax::core::maint::MaintenanceOutcome;
use coax::core::{CoaxConfig, MaintenancePolicy, ShardSpec, ShardedHandle, ShardedSnapshot};
use coax::data::synth::{Generator, LinearPairConfig};
use coax::data::workload::knn_rectangle_queries;
use coax::data::{Dataset, Query, RangeQuery};
use coax::index::MultidimIndex;
use std::sync::atomic::{AtomicBool, Ordering};

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

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

/// Every read surface of one session answers from the same frozen
/// per-shard versions.
fn assert_surfaces_agree(session: &ShardedSnapshot, queries: &[RangeQuery]) {
    let batch = session.batch_query(queries);
    for (q, batch_result) in queries.iter().zip(&batch) {
        let mut ids = Vec::new();
        let stats = session.range_query_stats(q, &mut ids);
        assert_eq!(batch_result.stats, stats, "batch vs single diverged on {q:?}");
        assert_eq!(batch_result.ids, ids, "batch vs single ids diverged on {q:?}");
        let (cursor_ids, cursor_stats) = session.range_query_cursor(q).collect_with_stats();
        assert_eq!(cursor_ids, ids, "cursor diverged on {q:?}");
        assert_eq!(cursor_stats, stats, "cursor stats diverged on {q:?}");
    }
    let mut streamed = vec![None; queries.len()];
    for (qi, result) in session.batch_query_streaming(queries) {
        streamed[qi] = Some(result);
    }
    for (qi, slot) in streamed.into_iter().enumerate() {
        assert_eq!(slot.expect("delivered"), batch[qi], "stream diverged on query {qi}");
    }
}

/// The headline acceptance criterion: a snapshot concurrent with
/// inserts and a refit returns identical results for a repeated query
/// before and after the refit publishes.
#[test]
fn snapshot_is_stable_across_insert_fold_and_refit() {
    let ds = planted(6_000, 51);
    let service = ShardedHandle::build(&ds, &CoaxConfig::default());
    let shard = service.shard_handle(0);
    service.insert(&[500.0, 1010.0]).unwrap(); // one overlay row up front

    let queries: Vec<RangeQuery> = (0..8)
        .map(|i| {
            let x0 = i as f64 * 110.0;
            Query::select(2).range(0, x0..=x0 + 90.0).build().unwrap()
        })
        .collect();

    let session = service.snapshot();
    let epoch_at_open = session.shard(0).epoch();
    let before: Vec<Vec<u32>> = queries.iter().map(|q| session.range_query(q)).collect();
    assert_surfaces_agree(&session, &queries);

    // Writer activity after the session opened: new rows, a fold, more
    // rows, a refit — three version publishes in total.
    for i in 0..200 {
        let x = (i as f64 * 7.7) % 1000.0;
        service.insert(&[x, 2.0 * x + 10.0]).unwrap();
    }
    shard.fold();
    for i in 0..100 {
        let x = (i as f64 * 3.3) % 1000.0;
        service.insert(&[x, 2.0 * x + 250.0]).unwrap(); // drifted rows
    }
    shard.refit();
    assert!(shard.epoch() >= epoch_at_open + 2, "both publishes must have landed");

    // The session still answers from its version: identical ids, and the
    // live service now disagrees (it sees 300 more rows).
    for (q, before_ids) in queries.iter().zip(&before) {
        assert_eq!(&session.range_query(q), before_ids, "snapshot drifted on {q:?}");
    }
    assert_surfaces_agree(&session, &queries);
    assert_eq!(session.len() + 300, service.len());
    assert_eq!(session.shard(0).epoch(), epoch_at_open);

    // A fresh session sees the new version.
    let fresh = service.snapshot();
    assert!(fresh.shard(0).epoch() > epoch_at_open);
    assert_eq!(fresh.len(), service.len());
    let unbounded = RangeQuery::unbounded(2);
    assert_eq!(fresh.range_query(&unbounded).len(), service.len());
    assert_eq!(session.range_query(&unbounded).len(), service.len() - 300);
}

/// N queries through one session, interleaved with a live writer thread
/// and a live maintainer thread, see one consistent version throughout —
/// the multi-query read transaction the ROADMAP asked for.
#[test]
fn read_session_is_isolated_from_concurrent_writer_and_maintainer() {
    let ds = planted(8_000, 52);
    let config = CoaxConfig {
        maintenance: MaintenancePolicy { max_pending: 64, ..Default::default() },
        ..Default::default()
    };
    let service = ShardedHandle::build(&ds, &config);
    let queries = {
        let mut qs = knn_rectangle_queries(&ds, 12, 60, 53);
        qs.push(RangeQuery::unbounded(2));
        qs
    };

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Writer: a steady insert stream.
        let writer_service = service.clone();
        let writer = scope.spawn({
            let stop = &stop;
            move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let x = (i as f64 * 13.1) % 1000.0;
                    writer_service.insert(&[x, 2.0 * x + 10.0]).unwrap();
                    i += 1;
                    if i % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
                i
            }
        });
        // Maintainer: folds (and refits if drift warrants) as the buffer
        // fills.
        let maintainers = service.maintainers();
        let maintainer = scope.spawn({
            let stop = &stop;
            move || {
                let mut outcomes: Vec<MaintenanceOutcome> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    outcomes.extend(maintainers.iter().map(|m| m.tick()));
                    std::thread::yield_now();
                }
                outcomes
            }
        });

        // Reader: open a session, record its answers, then re-ask the
        // same N queries many times while the other threads churn.
        let session = service.snapshot();
        let baseline: Vec<Vec<u32>> =
            queries.iter().map(|q| sorted(session.range_query(q))).collect();
        for round in 0..25 {
            for (q, expect) in queries.iter().zip(&baseline) {
                assert_eq!(
                    &sorted(session.range_query(q)),
                    expect,
                    "round {round}: session saw another version on {q:?}"
                );
            }
        }
        // A batch and a cursor pass through the same session agree too.
        assert_surfaces_agree(&session, &queries);

        stop.store(true, Ordering::Relaxed);
        let inserted = writer.join().expect("writer");
        let outcomes = maintainer.join().expect("maintainer");
        assert!(inserted > 0, "writer must have inserted");
        // No row was lost: the live service holds the seed rows plus
        // every writer insert, and the session froze some prefix of it.
        assert_eq!(service.len() as u64, ds.len() as u64 + inserted);
        assert!(session.len() <= service.len());
        drop(outcomes);
    });
}

/// The cross-shard extension of the headline criterion: a
/// [`ShardedSnapshot`] taken mid-stream — one pass over the shards, no
/// global lock — returns identical results across repeated queries on
/// every surface while inserts land on all shards and one shard folds
/// *and another refits* underneath it. Only a fresh session sees the
/// new per-shard versions.
#[test]
fn sharded_snapshot_is_stable_across_inserts_and_a_one_shard_refit() {
    let ds = planted(5_000, 55);
    let sharded = ShardedHandle::build(
        &ds,
        &CoaxConfig { shard: ShardSpec::range(3, 0), ..Default::default() },
    );
    for i in 0..60 {
        let x = (i as f64 * 11.3) % 1000.0;
        sharded.insert(&[x, 2.0 * x + 10.0]).unwrap(); // overlay rows up front
    }

    let queries: Vec<RangeQuery> = (0..8)
        .map(|i| {
            let x0 = i as f64 * 110.0;
            Query::select(2).range(0, x0..=x0 + 90.0).build().unwrap()
        })
        .collect();

    let session = sharded.snapshot();
    let epochs_at_open = session.epochs();
    assert_eq!(epochs_at_open, vec![0, 0, 0]);
    let before: Vec<Vec<u32>> = queries.iter().map(|q| session.range_query(q)).collect();
    assert_surfaces_agree(&session, &queries);

    // Writer activity after the session opened: rows onto every shard,
    // then shard 0 folds and shard 2 refits — two shards publish new
    // epochs, the session must notice neither.
    for i in 0..240 {
        let x = (i as f64 * 7.7) % 1000.0;
        sharded.insert(&[x, 2.0 * x + 10.0]).unwrap();
    }
    sharded.shard_handle(0).fold();
    sharded.shard_handle(2).refit();
    assert_eq!(sharded.epochs(), vec![1, 0, 1]);

    for (q, before_ids) in queries.iter().zip(&before) {
        assert_eq!(&session.range_query(q), before_ids, "sharded session drifted on {q:?}");
    }
    assert_surfaces_agree(&session, &queries);
    assert_eq!(session.epochs(), epochs_at_open, "session epochs moved");
    assert_eq!(session.len() + 240, sharded.len());

    // A fresh session sees the new versions — and exactly every row.
    let fresh = sharded.snapshot();
    assert_eq!(fresh.epochs(), vec![1, 0, 1]);
    assert_eq!(fresh.len(), sharded.len());
    let unbounded = RangeQuery::unbounded(2);
    assert_eq!(
        sorted(fresh.range_query(&unbounded)),
        (0..sharded.len() as u32).collect::<Vec<_>>()
    );
    assert_eq!(session.range_query(&unbounded).len(), sharded.len() - 240);
}

/// Open sessions survive epoch publishes *and* keep their overlay view:
/// rows buffered at snapshot time stay visible in the session even after
/// a fold moves them into structures of a newer epoch.
#[test]
fn session_overlay_view_is_frozen() {
    let ds = planted(3_000, 54);
    let service = ShardedHandle::build(&ds, &CoaxConfig::default());
    let marker = vec![1234.5, 999.0];
    let marker_id = service.insert(&marker).unwrap();
    let probe = RangeQuery::point(&marker);

    let session = service.snapshot();
    let mut out = Vec::new();
    let stats = session.range_query_stats(&probe, &mut out);
    assert!(out.contains(&marker_id));
    assert_eq!(stats.scanned_pending, 1, "the marker sits in the session's overlay");

    service.shard_handle(0).fold(); // marker moves into the new epoch's structures
    let mut out = Vec::new();
    let stats = session.range_query_stats(&probe, &mut out);
    assert!(out.contains(&marker_id), "frozen overlay still serves the marker");
    assert_eq!(stats.scanned_pending, 1, "the session still reads its frozen overlay");

    let fresh = service.snapshot();
    let mut out = Vec::new();
    let stats = fresh.range_query_stats(&probe, &mut out);
    assert!(out.contains(&marker_id));
    assert_eq!(stats.scanned_pending, 0, "the new session reads it from the structures");
}
