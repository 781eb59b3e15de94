//! The streaming contract, workspace-wide: cursors and result streams
//! change *when* answers arrive, never *what* they are.
//!
//! Sweeps assert that for **every** factory-built backend — the five
//! substrates, COAX under each primary × outlier combination, nested
//! COAX, and the live service/snapshot surface — collecting a
//! [`MultidimIndex::range_query_cursor`] reproduces the materialized
//! call bit for bit (ids in the same order, `ScanStats` equal), and that
//! the streaming batch surfaces deliver every query exactly once with
//! results identical to the materialized batch. This is the acceptance
//! bar of the Query API v2 redesign.

use coax::core::{
    CoaxConfig, ExecConfig, IndexSpec, OutlierBackend, PrimaryBackend, ShardedHandle,
};
use coax::data::synth::{AirlineConfig, Generator, OsmConfig};
use coax::data::workload::{knn_rectangle_queries, partial_queries, point_queries};
use coax::data::{Dataset, Query, RangeQuery};
use coax::index::{BackendSpec, MultidimIndex, QueryResult};

fn random_workload(ds: &Dataset, seed: u64) -> Vec<RangeQuery> {
    let mut queries = knn_rectangle_queries(ds, 8, 50, seed);
    queries.extend(point_queries(ds, 5, seed + 1));
    queries.extend(partial_queries(ds, 5, 30, 2, seed + 2));
    // Builder-made queries join the sweep: unbounded, half-open, and an
    // inverted (empty) interval all lower to rectangles the cursors must
    // stream exactly.
    queries.push(RangeQuery::unbounded(ds.dims()));
    queries.push(Query::select(ds.dims()).range(0, 100.0..400.0).build().unwrap());
    queries.push(Query::select(ds.dims()).range(0, 1.0..=0.0).build().unwrap());
    queries
}

/// COAX under every primary × outlier backend flavour, plus the five
/// bare substrates (whose cursors exercise the default adapter and the
/// grid-family incremental override).
fn all_specs() -> Vec<IndexSpec> {
    let mut specs = IndexSpec::all_kinds(4, 10);
    for primary in [
        PrimaryBackend::RTree { capacity: 8 },
        PrimaryBackend::Custom(BackendSpec::UniformGrid { cells_per_dim: 3 }),
        PrimaryBackend::Custom(BackendSpec::FullScan),
        PrimaryBackend::Coax(Box::default()),
    ] {
        specs.push(IndexSpec::coax(CoaxConfig {
            primary_backend: primary,
            ..Default::default()
        }));
    }
    for outliers in [
        OutlierBackend::RTree { capacity: 8 },
        OutlierBackend::Custom(BackendSpec::FullScan),
        OutlierBackend::Custom(BackendSpec::ColumnFiles { cells_per_dim: 3, sort_dim: None }),
    ] {
        specs.push(IndexSpec::coax(CoaxConfig {
            outlier_backend: outliers,
            ..Default::default()
        }));
    }
    specs
}

/// Property: collecting the cursor == the materialized call, bit for
/// bit, for every backend and every query shape — including chunked
/// consumption (no chunk is empty, concatenation is exact).
#[test]
fn cursor_collection_is_bit_identical_across_backends() {
    for (name, dataset) in [
        ("airline", AirlineConfig::small(5_000, 27).generate()),
        ("osm", OsmConfig::small(5_000, 28).generate()),
    ] {
        let queries = random_workload(&dataset, 0xC0);
        for spec in all_specs() {
            let backend = spec.build(&dataset);
            for q in &queries {
                let mut ids = Vec::new();
                let stats = backend.range_query_stats(q, &mut ids);

                let (collected, collected_stats) =
                    backend.range_query_cursor(q).collect_with_stats();
                assert_eq!(
                    collected,
                    ids,
                    "{name}/{}: cursor ids diverged on {q:?}",
                    backend.name()
                );
                assert_eq!(
                    collected_stats,
                    stats,
                    "{name}/{}: cursor stats diverged on {q:?}",
                    backend.name()
                );

                // Chunked consumption sees the same stream.
                let mut cursor = backend.range_query_cursor(q);
                let mut chunked = Vec::new();
                while let Some(chunk) = cursor.next_chunk() {
                    assert!(!chunk.is_empty(), "{name}/{}: empty chunk", backend.name());
                    chunked.extend_from_slice(chunk);
                }
                assert_eq!(chunked, ids, "{name}/{}", backend.name());
                assert_eq!(cursor.stats(), stats, "{name}/{}", backend.name());
            }
        }
    }
}

/// The per-id iterator side of the cursor agrees with the chunk side,
/// and early drop is harmless.
#[test]
fn cursor_iterator_side_and_early_drop() {
    let dataset = AirlineConfig::small(4_000, 29).generate();
    let index = IndexSpec::coax(CoaxConfig::default()).build(&dataset);
    let q = Query::select(dataset.dims()).range(0, 200.0..=600.0).build().unwrap();
    let materialized = index.range_query(&q);
    let iterated: Vec<u32> = index.range_query_cursor(&q).collect();
    assert_eq!(iterated, materialized);
    // Taking three ids and dropping the cursor must not disturb anything.
    let mut cursor = index.range_query_cursor(&q);
    let head: Vec<u32> = cursor.by_ref().take(3).collect();
    assert_eq!(head, materialized[..3.min(materialized.len())]);
    drop(cursor);
    assert_eq!(index.range_query(&q), materialized);
}

/// The live service and its snapshot stream the same answers the
/// materialized live path gives — overlay rows included.
#[test]
fn handle_and_snapshot_cursors_cover_the_overlay() {
    let dataset = AirlineConfig::small(5_000, 30).generate();
    let service = ShardedHandle::build(&dataset, &CoaxConfig::default());
    for i in 0..60 {
        let mut row = dataset.row(i * 7);
        row[0] += 0.25;
        service.insert(&row).unwrap();
    }
    let queries = random_workload(&dataset, 0xC1);
    let snapshot = service.snapshot();
    for q in &queries {
        let mut ids = Vec::new();
        let stats = service.range_query_stats(q, &mut ids);

        // The live cursor is one materialized query (default adapter).
        let (h_ids, h_stats) = service.range_query_cursor(q).collect_with_stats();
        assert_eq!(h_ids, ids, "service cursor diverged on {q:?}");
        assert_eq!(h_stats, stats, "service cursor stats diverged on {q:?}");

        // The snapshot's cursor streams: the shard's overlay chunk
        // first, then its epoch plan cursor.
        let (s_ids, s_stats) = snapshot.range_query_cursor(q).collect_with_stats();
        assert_eq!(s_ids, ids, "snapshot cursor diverged on {q:?}");
        assert_eq!(s_stats, stats, "snapshot cursor stats diverged on {q:?}");
    }
}

/// The snapshot's `BatchStream` delivers every query exactly once, each
/// result identical to the materialized snapshot batch — across worker
/// configurations (one service per configuration, fed the same rows).
#[test]
fn batch_stream_matches_materialized_batch() {
    let dataset = OsmConfig::small(5_000, 31).generate();
    let service = |exec: ExecConfig| {
        let service =
            ShardedHandle::build(&dataset, &CoaxConfig { exec, ..Default::default() });
        for i in 0..30 {
            service.insert(&dataset.row(i * 11)).unwrap();
        }
        service
    };
    let live = service(ExecConfig::default());
    let mut queries = random_workload(&dataset, 0xC2);
    queries.extend(knn_rectangle_queries(&dataset, 40, 40, 0xC3));
    let snapshot = live.snapshot();
    let expected = snapshot.batch_query(&queries);

    for threads in [1usize, 2, 4] {
        let config =
            ExecConfig { batch_threads: threads, min_parallel_batch: 2, chunk_size: 0 };
        let mut received: Vec<Option<QueryResult>> = vec![None; queries.len()];
        let stream = service(config).snapshot().batch_query_streaming(&queries);
        assert_eq!(stream.remaining(), queries.len());
        for (qi, result) in stream {
            assert!(
                received[qi].replace(result).is_none(),
                "query {qi} delivered twice (threads={threads})"
            );
        }
        for (qi, slot) in received.iter().enumerate() {
            assert_eq!(
                slot.as_ref().expect("every query delivered"),
                &expected[qi],
                "stream diverged (threads={threads}, query {qi})"
            );
        }
    }

    // A fresh snapshot of the service (equal, nothing inserted since)
    // streams the same results.
    let mut from_handle: Vec<Option<QueryResult>> = vec![None; queries.len()];
    for (qi, result) in live.snapshot().batch_query_streaming(&queries) {
        from_handle[qi] = Some(result);
    }
    for (qi, slot) in from_handle.iter().enumerate() {
        assert_eq!(slot.as_ref().expect("delivered"), &expected[qi], "handle stream {qi}");
    }
}

/// Dropping a `BatchStream` early cancels cleanly: no hang, no panic,
/// and the snapshot keeps answering.
#[test]
fn batch_stream_early_drop_cancels() {
    let dataset = AirlineConfig::small(4_000, 32).generate();
    let exec = ExecConfig { batch_threads: 2, min_parallel_batch: 2, ..Default::default() };
    let service = ShardedHandle::build(&dataset, &CoaxConfig { exec, ..Default::default() });
    let queries = knn_rectangle_queries(&dataset, 64, 40, 0xC4);
    let snapshot = service.snapshot();
    let mut stream = snapshot.batch_query_streaming(&queries);
    let first = stream.next().expect("at least one result");
    assert!(first.0 < queries.len());
    drop(stream);
    // The session is unaffected by the cancelled pool.
    let again = snapshot.batch_query(&queries[..4]);
    assert_eq!(again.len(), 4);
}
