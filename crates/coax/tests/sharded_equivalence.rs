//! Cross-shard equivalence: the sharded service answers exactly like a
//! one-shard service over the same rows.
//!
//! The acceptance bar of the sharded index service: for every
//! combination of shard count {1, 2, 7} × primary backend × outlier
//! backend × hash/range shard key, and on every query surface (point,
//! range, batch, streaming, cursor), [`ShardedHandle`] returns the same
//! row set as a one-shard [`ShardedHandle`] fed the same inserts.
//!
//! The stats contract (documented on `coax::core::shard`): `matches`
//! always equals the one-shard service's — the same rows match — and
//! `scanned_pending` counts exactly the buffered rows of the shards
//! `shards_for` names for the query, each scanned once. At one shard,
//! before any insert, the **entire** result is
//! bit-identical to a bare [`CoaxIndex`] built with the same config —
//! ids, id order, and the full [`ScanStats`] — because a one-shard
//! service is that index over the same ids. And across the sharded
//! service's own surfaces (live vs snapshot vs batch vs stream vs
//! cursor, sequential or parallel fan-out) everything is bit-identical:
//! ids, order, stats.
//!
//! All assertions run before any timing anywhere in the workspace cares;
//! every dataset and workload is seeded.

use coax::core::{
    CoaxConfig, CoaxIndex, ExecConfig, OutlierBackend, PrimaryBackend, ShardKey, ShardSpec,
    ShardedHandle,
};
use coax::data::synth::{Generator, LinearPairConfig};
use coax::data::workload::knn_rectangle_queries;
use coax::data::{Dataset, Query, RangeQuery};
use coax::index::{MultidimIndex, QueryResult};

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

/// The query workload every combination is swept over: selective
/// rectangles, a dependent-only constraint, point probes, and the
/// unbounded query.
fn workload(ds: &Dataset, seed: u64) -> Vec<RangeQuery> {
    let mut queries = knn_rectangle_queries(ds, 6, 40, seed);
    queries.push(Query::select(2).range(0, 100.0..=300.0).build().unwrap());
    queries.push(Query::select(2).range(1, 500.0..=900.0).build().unwrap());
    queries.push(RangeQuery::point(&ds.row(7)));
    queries.push(RangeQuery::point(&[0.12345, 0.678])); // no hit
    queries.push(RangeQuery::unbounded(2));
    queries
}

/// The sweep grid from the issue: shard counts × backends × shard keys.
fn sweep_configs() -> Vec<(usize, CoaxConfig)> {
    let primaries = [PrimaryBackend::GridFile, PrimaryBackend::RTree { capacity: 16 }];
    let outliers = [OutlierBackend::GridFile, OutlierBackend::RTree { capacity: 8 }];
    let keys = [ShardKey::Hash { dim: 0 }, ShardKey::Range { dim: 0 }];
    let mut out = Vec::new();
    for &shards in &[1usize, 2, 7] {
        for primary in &primaries {
            for outlier in &outliers {
                for &key in &keys {
                    out.push((
                        shards,
                        CoaxConfig {
                            primary_backend: primary.clone(),
                            outlier_backend: *outlier,
                            shard: ShardSpec { shards, key },
                            ..Default::default()
                        },
                    ));
                }
            }
        }
    }
    out
}

/// Asserts the sharded service agrees with the one-shard `single`
/// service on every surface, under the module-level stats contract.
fn assert_sharded_matches_single(
    sharded: &ShardedHandle,
    single: &ShardedHandle,
    queries: &[RangeQuery],
    label: &str,
) {
    assert_eq!(sharded.len(), single.len(), "{label}: row count");
    let one_shard = sharded.shard_count() == 1;

    // Reference answers through the sharded handle's own fan-out path.
    let mut reference: Vec<QueryResult> = Vec::new();
    for q in queries {
        let mut ids = Vec::new();
        let stats = sharded.range_query_stats(q, &mut ids);
        let mut expect_ids = Vec::new();
        let expect = single.range_query_stats(q, &mut expect_ids);
        assert_eq!(
            sorted(ids.clone()),
            sorted(expect_ids.clone()),
            "{label}: sharded vs single ids on {q:?}"
        );
        assert_eq!(stats.matches, expect.matches, "{label}: matches on {q:?}");
        let pending: usize =
            sharded.shards_for(q).map(|s| sharded.shard_handle(s).pending_len()).sum();
        assert_eq!(stats.scanned_pending, pending, "{label}: scanned_pending on {q:?}");
        if one_shard {
            // Two one-shard services fed the same inserts hold the same
            // layout over the same ids: everything is bit-identical.
            assert_eq!(ids, expect_ids, "{label}: one-shard id order on {q:?}");
            assert_eq!(stats, expect, "{label}: one-shard stats on {q:?}");
        }
        reference.push(QueryResult { ids, stats });
    }

    // Every other sharded surface is bit-identical to the reference:
    // batch through the handle…
    let batch = sharded.batch_query(queries);
    assert_eq!(batch, reference, "{label}: handle batch diverged");
    // …the cross-shard snapshot's single, batch, and cursor paths…
    let session = sharded.snapshot();
    assert_eq!(session.len(), sharded.len(), "{label}: snapshot row count");
    for (q, expect) in queries.iter().zip(&reference) {
        let mut ids = Vec::new();
        let stats = session.range_query_stats(q, &mut ids);
        assert_eq!((ids, stats), (expect.ids.clone(), expect.stats), "{label}: snapshot {q:?}");
        let (cursor_ids, cursor_stats) = session.range_query_cursor(q).collect_with_stats();
        assert_eq!(cursor_ids, expect.ids, "{label}: cursor ids on {q:?}");
        assert_eq!(cursor_stats, expect.stats, "{label}: cursor stats on {q:?}");
    }
    assert_eq!(session.batch_query(queries), reference, "{label}: snapshot batch diverged");
    // …and the merged stream: every query exactly once, results
    // bit-identical, whatever the completion order.
    let mut streamed: Vec<Option<QueryResult>> = vec![None; queries.len()];
    for (qi, result) in sharded.snapshot().batch_query_streaming(queries) {
        assert!(streamed[qi].is_none(), "{label}: query {qi} delivered twice");
        streamed[qi] = Some(result);
    }
    for (qi, slot) in streamed.into_iter().enumerate() {
        let got = slot.unwrap_or_else(|| panic!("{label}: query {qi} never delivered"));
        assert_eq!(got, reference[qi], "{label}: stream diverged on query {qi}");
    }
}

/// The headline sweep: {1, 2, 7} shards × primary × outlier × hash/range
/// keys, static build, every surface.
#[test]
fn sharded_equals_single_across_the_sweep() {
    let ds = planted(2_000, 91);
    let queries = workload(&ds, 92);
    for (shards, config) in sweep_configs() {
        let label = format!(
            "shards={shards} primary={:?} outlier={:?} key={:?}",
            config.primary_backend, config.outlier_backend, config.shard.key
        );
        let mut single_config = config.clone();
        single_config.shard = ShardSpec::default();
        let single = ShardedHandle::build(&ds, &single_config);
        let sharded = ShardedHandle::build(&ds, &config);
        assert_eq!(sharded.shard_count(), shards.max(1), "{label}");
        assert_sharded_matches_single(&sharded, &single, &queries, &label);
        if shards == 1 {
            // The N = 1 anchor: before any insert, a one-shard service is
            // the bare index over the same ids — ids, order and stats.
            let bare = CoaxIndex::build(&ds, &single_config);
            for q in &queries {
                let mut ids = Vec::new();
                let stats = sharded.range_query_stats(q, &mut ids);
                let mut expect_ids = Vec::new();
                let expect = bare.range_query_stats(q, &mut expect_ids);
                assert_eq!(ids, expect_ids, "{label}: one-shard vs bare id order on {q:?}");
                assert_eq!(stats, expect, "{label}: one-shard vs bare stats on {q:?}");
            }
        }
    }
}

/// Fan-out parallelism never changes answers: sequential (one thread)
/// and saturated (all cores) fan-out produce bit-identical results on
/// the same service.
#[test]
fn parallel_fan_out_is_bit_identical_to_sequential() {
    let ds = planted(3_000, 93);
    let queries = workload(&ds, 94);
    let sequential = ShardedHandle::build(
        &ds,
        &CoaxConfig {
            shard: ShardSpec::hash(7, 0),
            exec: ExecConfig { batch_threads: 1, ..Default::default() },
            ..Default::default()
        },
    );
    let parallel = ShardedHandle::build(
        &ds,
        &CoaxConfig {
            shard: ShardSpec::hash(7, 0),
            exec: ExecConfig { batch_threads: 0, ..Default::default() },
            ..Default::default()
        },
    );
    let a = sequential.batch_query(&queries);
    let b = parallel.batch_query(&queries);
    assert_eq!(a, b, "fan-out parallelism changed a result");
    for (q, expect) in queries.iter().zip(&a) {
        let mut ids = Vec::new();
        let stats = parallel.range_query_stats(q, &mut ids);
        assert_eq!((ids, stats), (expect.ids.clone(), expect.stats), "single-query {q:?}");
    }
}

/// Equivalence survives the write path: inserts routed through the
/// sharded service and the same inserts applied to a one-shard service,
/// then folds and refits on both sides, stay in agreement.
#[test]
fn sharded_equals_single_after_inserts_and_maintenance() {
    let ds = planted(2_500, 95);
    let queries = workload(&ds, 96);
    for key in [ShardKey::Hash { dim: 0 }, ShardKey::Range { dim: 0 }] {
        let label = format!("key={key:?}");
        let config = CoaxConfig { shard: ShardSpec { shards: 3, key }, ..Default::default() };
        let mut single_config = config.clone();
        single_config.shard = ShardSpec::default();
        let single = ShardedHandle::build(&ds, &single_config);
        let sharded = ShardedHandle::build(&ds, &config);

        // Identical insert stream on both sides: global ids must match
        // one for one (the service allocates densely in call order,
        // whatever its shard count).
        for i in 0..300u32 {
            let x = (f64::from(i) * 7.3) % 1000.0;
            let row = [x, 2.0 * x + 10.0 + f64::from(i % 13)];
            let sid = sharded.insert(&row).unwrap();
            let uid = single.insert(&row).unwrap();
            assert_eq!(sid, uid, "{label}: global id diverged at insert {i}");
        }
        assert_sharded_matches_single(&sharded, &single, &queries, &format!("{label} +rows"));

        // Fold everywhere, then refit everywhere; answers must not move.
        single.shard_handle(0).fold();
        for s in 0..sharded.shard_count() {
            sharded.shard_handle(s).fold();
        }
        assert_sharded_matches_single(&sharded, &single, &queries, &format!("{label} +fold"));
        single.shard_handle(0).refit();
        for s in 0..sharded.shard_count() {
            sharded.shard_handle(s).refit();
        }
        assert_sharded_matches_single(&sharded, &single, &queries, &format!("{label} +refit"));
    }
}

/// Snapshot isolation on the sharded service: a [`ShardedSnapshot`]
/// pinned before a batch of inserts keeps answering bit-identically from
/// the frozen epoch set — and agrees with a snapshot of the pre-insert
/// one-shard service under the module-level stats contract — while the
/// live services see the new rows. This is the equivalence pin
/// `trait-contract` demands for the `ShardedSnapshot` impl.
#[test]
fn sharded_snapshot_is_frozen_and_equivalent() {
    use coax::core::ShardedSnapshot;
    let ds = planted(1_800, 99);
    let queries = workload(&ds, 100);
    let config = CoaxConfig { shard: ShardSpec::hash(3, 0), ..Default::default() };
    let mut single_config = config.clone();
    single_config.shard = ShardSpec::default();
    let single = ShardedHandle::build(&ds, &single_config);
    let sharded = ShardedHandle::build(&ds, &config);

    let frozen: ShardedSnapshot = sharded.snapshot();
    let single_frozen = single.snapshot();
    let before = frozen.batch_query(&queries);

    for i in 0..120u32 {
        let x = (f64::from(i) * 3.7) % 1000.0;
        let row = [x, 2.0 * x + 10.0];
        let sid = sharded.insert(&row).unwrap();
        let uid = single.insert(&row).unwrap();
        assert_eq!(sid, uid, "global id diverged at insert {i}");
    }

    // The pinned snapshot still answers from the frozen epochs…
    assert_eq!(frozen.batch_query(&queries), before, "ShardedSnapshot moved after inserts");
    for q in &queries {
        let mut ids = Vec::new();
        let stats = frozen.range_query_stats(q, &mut ids);
        let mut expect_ids = Vec::new();
        let expect = single_frozen.range_query_stats(q, &mut expect_ids);
        assert_eq!(sorted(ids), sorted(expect_ids), "frozen ids on {q:?}");
        assert_eq!(stats.matches, expect.matches, "frozen matches on {q:?}");
        let pending: usize = sharded.shards_for(q).map(|s| frozen.shard(s).pending_len()).sum();
        assert_eq!(stats.scanned_pending, pending, "frozen pending on {q:?}");
    }
    // …while the live service sees the new rows on every surface.
    assert_sharded_matches_single(&sharded, &single, &queries, "post-insert live");
}

/// The factory path builds the same service: a sharded [`IndexSpec`]
/// answers exactly like a directly built [`ShardedHandle`], through the
/// boxed trait surface.
#[test]
fn factory_built_sharded_service_is_equivalent() {
    use coax::core::IndexSpec;
    let ds = planted(1_500, 97);
    let queries = workload(&ds, 98);
    let config = CoaxConfig { shard: ShardSpec::auto(4), ..Default::default() };
    let spec = IndexSpec::coax(config.clone());
    assert_eq!(spec.name(), "coax-sharded");
    let boxed = spec.build(&ds);
    assert_eq!(boxed.name(), "coax-sharded");
    let direct = ShardedHandle::build(&ds, &config);
    for q in &queries {
        let mut boxed_ids = Vec::new();
        let boxed_stats = boxed.range_query_stats(q, &mut boxed_ids);
        let mut direct_ids = Vec::new();
        let direct_stats = direct.range_query_stats(q, &mut direct_ids);
        assert_eq!(boxed_ids, direct_ids, "factory ids diverged on {q:?}");
        assert_eq!(boxed_stats, direct_stats, "factory stats diverged on {q:?}");
    }
}

/// Collects `(query_index, result)` deliveries, asserting each query
/// arrives exactly once and equals `expected` (ids in order, stats).
fn assert_delivered_once(
    label: &str,
    expected: &[QueryResult],
    deliveries: impl IntoIterator<Item = (usize, QueryResult)>,
) {
    let mut received: Vec<Option<QueryResult>> = vec![None; expected.len()];
    for (qi, result) in deliveries {
        assert!(received[qi].replace(result).is_none(), "{label}: query {qi} delivered twice");
    }
    for (qi, slot) in received.iter().enumerate() {
        let got =
            slot.as_ref().unwrap_or_else(|| panic!("{label}: query {qi} never delivered"));
        assert_eq!(got, &expected[qi], "{label}: query {qi} diverged from the loop");
    }
}

/// Service-level dedup: a duplicate-heavy batch whose copies straddle
/// chunk boundaries (`chunk_size` 3) on 1, 2 and 4 workers, at 1 and 3
/// shards, with an empty and a non-empty overlay. The sharded batch and
/// stream deduplicate once for the whole service, yet every query is
/// delivered exactly once with ids (in order) and stats equal to the
/// sharded one-at-a-time loop.
#[test]
fn sharded_dedup_across_chunks_matches_the_loop() {
    let ds = planted(3_000, 101);
    let base = workload(&ds, 102);
    let queries: Vec<RangeQuery> =
        (0..4 * base.len()).map(|i| base[(i * 7) % base.len()].clone()).collect();
    for shards in [1usize, 3] {
        for threads in [1usize, 2, 4] {
            let exec =
                ExecConfig { batch_threads: threads, min_parallel_batch: 2, chunk_size: 3 };
            let config =
                CoaxConfig { shard: ShardSpec::hash(shards, 0), exec, ..Default::default() };
            let sharded = ShardedHandle::build(&ds, &config);
            let empty_overlay = sharded.snapshot();
            for i in 0..30u32 {
                let x = (f64::from(i) * 31.9) % 1000.0;
                let y = if i % 5 == 0 { 2.0 * x + 700.0 } else { 2.0 * x + 10.0 };
                sharded.insert(&[x, y]).unwrap();
            }
            let with_overlay = sharded.snapshot();
            for (overlay, session) in [("empty", &empty_overlay), ("30 rows", &with_overlay)] {
                let label = format!("shards={shards} threads={threads} overlay={overlay}");
                let expected: Vec<QueryResult> = queries
                    .iter()
                    .map(|q| {
                        let mut ids = Vec::new();
                        let stats = session.range_query_stats(q, &mut ids);
                        QueryResult { ids, stats }
                    })
                    .collect();
                assert_delivered_once(
                    &format!("batch {label}"),
                    &expected,
                    session.batch_query(&queries).into_iter().enumerate(),
                );
                assert_delivered_once(
                    &format!("stream {label}"),
                    &expected,
                    session.batch_query_streaming(&queries),
                );
            }
        }
    }
}

/// Dropping a sharded stream after its first result cancels cleanly: no
/// hang, no panic, and the snapshot keeps answering.
#[test]
fn sharded_stream_early_drop_cancels() {
    let ds = planted(3_000, 103);
    let queries = knn_rectangle_queries(&ds, 64, 40, 104);
    let config = CoaxConfig {
        shard: ShardSpec::hash(3, 0),
        exec: ExecConfig { batch_threads: 2, min_parallel_batch: 2, chunk_size: 4 },
        ..Default::default()
    };
    let sharded = ShardedHandle::build(&ds, &config);
    let session = sharded.snapshot();
    let mut stream = session.batch_query_streaming(&queries);
    let (first, _) = stream.next().expect("at least one result");
    assert!(first < queries.len());
    drop(stream);
    let again = session.batch_query(&queries[..4]);
    let mut ids = Vec::new();
    session.range_query_stats(&queries[0], &mut ids);
    assert_eq!(again[0].ids, ids, "the session still answers after a cancelled stream");
}
