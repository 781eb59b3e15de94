//! The batch-execution contract: `CoaxIndex::batch_query` answers each
//! distinct query of a batch once, translating it exactly once and
//! running the single-query executor, and may fan chunks out over a
//! worker pool — and whatever the `ExecConfig`, returns per-query results
//! and `ScanStats` identical to sequential `range_query_stats` calls. That equivalence, swept over thread
//! counts, chunk sizes, duplicate-heavy batches, and backend
//! combinations, is the acceptance bar for the batch engine.
//!
//! The plan every path shares is pinned here too: a point query that
//! pins every model's pair probes only the partition its point lives in,
//! on margins, at `±0.0`, over splines and nested COAX primaries, and
//! across a fold and a refit, while a query leaving any model unpinned
//! keeps the translated two-probe plan.

use coax_core::obs::MetricsRegistry;
use coax_core::{
    CoaxConfig, CoaxIndex, ExecConfig, ObsConfig, OutlierBackend, PrimaryBackend, ShardedHandle,
};
use coax_data::synth::{Generator, PlantedConfig, PlantedDependent, PlantedGroup};
use coax_data::workload::{knn_rectangle_queries, point_queries};
use coax_data::{Dataset, RangeQuery};
use coax_index::BackendSpec;
use coax_index::MultidimIndex;

fn planted(rows: usize, seed: u64) -> Dataset {
    PlantedConfig {
        rows,
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
        seed,
    }
    .generate()
}

fn mixed_workload(ds: &Dataset) -> Vec<RangeQuery> {
    let mut queries = knn_rectangle_queries(ds, 12, 40, 901);
    queries.extend(point_queries(ds, 8, 902));
    // Dependent-only constraint: translation is the only navigation.
    let mut dep_only = RangeQuery::unbounded(ds.dims());
    dep_only.constrain(1, 400.0, 520.0);
    queries.push(dep_only);
    // Contradictory query: translation prunes the primary entirely.
    let mut contradiction = RangeQuery::unbounded(ds.dims());
    contradiction.constrain(0, 800.0, 900.0);
    contradiction.constrain(1, 0.0, 10.0);
    queries.push(contradiction);
    // Empty rectangle.
    let mut empty = RangeQuery::unbounded(ds.dims());
    empty.constrain(2, 9.0, 1.0);
    queries.push(empty);
    queries
}

/// A duplicate-heavy batch: four copies of every mixed-workload query,
/// laid out so consecutive copies of one query sit a whole workload
/// apart — with `chunk_size` 3, a query's copies never share a chunk
/// with its first.
fn duplicate_heavy(ds: &Dataset) -> Vec<RangeQuery> {
    let base = mixed_workload(ds);
    (0..4 * base.len()).map(|i| base[(i * 7) % base.len()].clone()).collect()
}

/// The one-at-a-time loop every batch surface must reproduce.
fn loop_results(
    index: &dyn MultidimIndex,
    queries: &[RangeQuery],
) -> Vec<coax_index::QueryResult> {
    queries
        .iter()
        .map(|q| {
            let mut ids = Vec::new();
            let stats = index.range_query_stats(q, &mut ids);
            coax_index::QueryResult { ids, stats }
        })
        .collect()
}

/// Collects `(query_index, result)` deliveries, asserting each query
/// arrives exactly once and equals `expected` (ids in order, stats).
fn assert_delivered_once(
    label: &str,
    expected: &[coax_index::QueryResult],
    deliveries: impl IntoIterator<Item = (usize, coax_index::QueryResult)>,
) {
    let mut received: Vec<Option<coax_index::QueryResult>> = vec![None; expected.len()];
    for (qi, result) in deliveries {
        assert!(received[qi].replace(result).is_none(), "{label}: query {qi} delivered twice");
    }
    for (qi, slot) in received.iter().enumerate() {
        let got =
            slot.as_ref().unwrap_or_else(|| panic!("{label}: query {qi} never delivered"));
        assert_eq!(got, &expected[qi], "{label}: query {qi} diverged from the loop");
    }
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

#[test]
fn coax_batch_matches_sequential_exactly() {
    let ds = planted(12_000, 91);
    let index = CoaxIndex::build(&ds, &CoaxConfig::default());
    let queries = mixed_workload(&ds);

    let batched = index.batch_query(&queries);
    assert_eq!(batched.len(), queries.len());
    for (q, result) in queries.iter().zip(&batched) {
        let mut ids = Vec::new();
        let stats = index.range_query_stats(q, &mut ids);
        assert_eq!(result.stats, stats, "stats diverged on {q:?}");
        assert_eq!(sorted(result.ids.clone()), sorted(ids), "results diverged on {q:?}");
    }
}

#[test]
fn coax_batch_through_boxed_trait_object() {
    // The override must be reachable through dynamic dispatch — the
    // harness only ever sees `Box<dyn MultidimIndex>`.
    let ds = planted(6_000, 92);
    let boxed: Box<dyn MultidimIndex> = Box::new(CoaxIndex::build(&ds, &CoaxConfig::default()));
    let queries = mixed_workload(&ds);
    let batched = boxed.batch_query(&queries);
    for (q, result) in queries.iter().zip(&batched) {
        let mut ids = Vec::new();
        let stats = boxed.range_query_stats(q, &mut ids);
        assert_eq!(result.stats, stats, "stats diverged on {q:?}");
        assert_eq!(sorted(result.ids.clone()), sorted(ids));
        assert_eq!(result.stats.matches, result.ids.len());
    }
}

/// A custom outlier backend under the batch engine. Inserted rows live
/// in a shard's overlay, not in the index: batch == loop over an
/// overlay is pinned on the snapshot surfaces of
/// `duplicate_copies_across_chunks_match_the_loop_on_every_surface`.
#[test]
fn batch_covers_pending_inserts_and_custom_outliers() {
    let ds = planted(5_000, 93);
    let config = CoaxConfig {
        outlier_backend: OutlierBackend::RTree { capacity: 8 },
        ..Default::default()
    };
    let index = CoaxIndex::build(&ds, &config);

    let queries = mixed_workload(&ds);
    let batched = index.batch_query(&queries);
    for (q, result) in queries.iter().zip(&batched) {
        let mut ids = Vec::new();
        let stats = index.range_query_stats(q, &mut ids);
        assert_eq!(result.stats, stats, "stats diverged on {q:?}");
        assert_eq!(sorted(result.ids.clone()), sorted(ids));
    }
}

/// The batch == sequential contract must hold for every primary ×
/// outlier backend combination: the exec layer drives both partitions
/// purely through the trait, so swapping substrates (GridFile's fused
/// navigate-and-filter probe vs the trait-default filtered probe
/// included) must not perturb results or stats.
#[test]
fn batch_contract_holds_across_primary_and_outlier_backends() {
    let ds = planted(6_000, 95);
    let queries = mixed_workload(&ds);
    let combos = [
        (PrimaryBackend::GridFile, OutlierBackend::RTree { capacity: 8 }),
        (PrimaryBackend::RTree { capacity: 8 }, OutlierBackend::GridFile),
        (
            PrimaryBackend::Custom(BackendSpec::UniformGrid { cells_per_dim: 4 }),
            OutlierBackend::Custom(BackendSpec::FullScan),
        ),
        (PrimaryBackend::Coax(Box::default()), OutlierBackend::GridFile),
    ];
    let mut result_sets: Vec<Vec<Vec<u32>>> = Vec::new();
    for (primary, outlier) in combos {
        let config = CoaxConfig {
            primary_backend: primary,
            outlier_backend: outlier,
            ..Default::default()
        };
        let index = CoaxIndex::build(&ds, &config);
        let batched = index.batch_query(&queries);
        for (q, result) in queries.iter().zip(&batched) {
            let mut ids = Vec::new();
            let stats = index.range_query_stats(q, &mut ids);
            assert_eq!(result.stats, stats, "stats diverged on {q:?}");
            assert_eq!(sorted(result.ids.clone()), sorted(ids), "results diverged on {q:?}");
        }
        result_sets.push(batched.into_iter().map(|r| sorted(r.ids)).collect());
    }
    // All combinations agree with each other query-by-query — the fused
    // GridFile probe and the trait-default probe return the same rows.
    for later in &result_sets[1..] {
        assert_eq!(later, &result_sets[0], "backend combinations disagree");
    }
}

/// The tentpole guarantee: per-query results and `ScanStats` are
/// **bit-identical** across every execution strategy — the sequential
/// loop and every thread count, on batches with and without duplicates
/// — because each distinct query runs the single-query executor and
/// threading only reorders which query executes when.
#[test]
fn batch_results_identical_across_thread_counts_and_duplicates() {
    let ds = planted(12_000, 96);
    let index = CoaxIndex::build(&ds, &CoaxConfig::default());
    // A workload big enough to clear `min_parallel_batch`, plus the
    // adversarial queries, then the same with every query repeated.
    let mut queries = mixed_workload(&ds);
    queries.extend(knn_rectangle_queries(&ds, 80, 60, 903));
    let mut repeated = duplicate_heavy(&ds);
    repeated.extend(queries.iter().rev().cloned());

    for batch in [&queries, &repeated] {
        // Ground truth: the one-at-a-time sequential loop.
        let sequential = loop_results(&index, batch);
        for threads in [1usize, 2, 4, 8] {
            let config =
                ExecConfig { batch_threads: threads, min_parallel_batch: 2, chunk_size: 0 };
            let batched = index.batch_query_with(batch, &config);
            assert_eq!(batched.len(), batch.len());
            for (i, (result, expected)) in batched.iter().zip(&sequential).enumerate() {
                assert_eq!(
                    result.stats, expected.stats,
                    "stats diverged (threads={threads}, query {i})"
                );
                assert_eq!(
                    result.ids, expected.ids,
                    "ids diverged (threads={threads}, query {i})"
                );
            }
        }
    }
}

/// Duplicate-heavy batches whose copies straddle chunk boundaries
/// (`chunk_size` 3) on 1, 2 and 4 workers: the materialized batch, the
/// scoped stream and a snapshot's batch and detached stream (one service
/// per configuration) each deliver every query exactly once, with ids
/// (in order) and stats equal to the one-at-a-time loop — overlay rows
/// included, and with an empty overlay too.
#[test]
fn duplicate_copies_across_chunks_match_the_loop_on_every_surface() {
    let ds = planted(8_000, 194);
    let queries = duplicate_heavy(&ds);
    // A service under `exec`, snapshotted before and after 30 inserts.
    let sessions = |exec: ExecConfig| {
        let service = ShardedHandle::build(&ds, &CoaxConfig { exec, ..Default::default() });
        let empty_overlay = service.snapshot();
        for i in 0..30 {
            let x = (i as f64 * 31.9) % 1000.0;
            let y = if i % 5 == 0 { 2.0 * x + 700.0 } else { 2.0 * x + 25.0 };
            service.insert(&[x, y, 40.0]).expect("finite row of the right arity");
        }
        [empty_overlay, service.snapshot()]
    };
    let [empty_overlay, with_overlay] = sessions(ExecConfig::default());
    assert!(with_overlay.shard(0).pending_len() > empty_overlay.shard(0).pending_len());
    let index = with_overlay.shard(0).frozen();
    let index_loop = loop_results(index, &queries);

    for threads in [1usize, 2, 4] {
        let config =
            ExecConfig { batch_threads: threads, min_parallel_batch: 2, chunk_size: 3 };
        let label = format!("threads={threads}");
        assert_delivered_once(
            &format!("batch_query {label}"),
            &index_loop,
            index.batch_query_with(&queries, &config).into_iter().enumerate(),
        );
        let mut streamed = Vec::new();
        index.batch_query_streaming_with(&queries, &config, |qi, r| streamed.push((qi, r)));
        assert_delivered_once(
            &format!("batch_query_streaming_with {label}"),
            &index_loop,
            streamed,
        );
        for snapshot in &sessions(config) {
            let snapshot_loop = loop_results(snapshot, &queries);
            let label = format!("{label}, overlay={}", snapshot.shard(0).pending_len());
            assert_delivered_once(
                &format!("snapshot stream {label}"),
                &snapshot_loop,
                snapshot.batch_query_streaming(&queries),
            );
            assert_delivered_once(
                &format!("snapshot batch {label}"),
                &snapshot_loop,
                snapshot.batch_query(&queries).into_iter().enumerate(),
            );
        }
    }
}

/// Shard label of the one-shard service below (its shard 0 records under
/// the configured label itself): no other test in this binary records
/// into it, so its cells count this test's batches only.
const COPIES_SHARD: u32 = 7_013;

/// A batch of 8 copies of one query is one distinct query: each batch
/// surface translates it once (one `coax.query.translate_us` sample),
/// opens no per-query span (`coax.query.count` stays put), and still
/// answers all 8 queries (`coax.batch.queries`).
#[test]
fn a_batch_of_copies_translates_once() {
    let ds = planted(5_000, 195);
    let config =
        CoaxConfig { obs: ObsConfig::default().for_shard(COPIES_SHARD), ..Default::default() };
    let service = ShardedHandle::build(&ds, &config);
    let snapshot = service.snapshot();
    let mut q = RangeQuery::unbounded(3);
    q.constrain(1, 400.0, 520.0);
    let copies = vec![q.clone(); 8];
    let expected = loop_results(&snapshot, &copies);

    let registry = MetricsRegistry::global();
    let translate = registry.histogram_shard("coax.query.translate_us", Some(COPIES_SHARD));
    let count = registry.counter_shard("coax.query.count", Some(COPIES_SHARD));
    let answered = registry.counter_shard("coax.batch.queries", Some(COPIES_SHARD));
    let surfaces: [(&str, &dyn Fn() -> Vec<coax_index::QueryResult>); 3] = [
        ("frozen batch_query", &|| snapshot.shard(0).frozen().batch_query(&copies)),
        ("snapshot batch_query", &|| snapshot.batch_query(&copies)),
        ("snapshot stream", &|| {
            let mut results = vec![coax_index::QueryResult::default(); copies.len()];
            for (qi, r) in snapshot.batch_query_streaming(&copies) {
                results[qi] = r;
            }
            results
        }),
    ];
    for (label, run) in surfaces {
        let (translated, counted, batched) =
            (translate.snapshot(), count.get(), answered.get());
        assert_eq!(run(), expected, "{label}");
        assert_eq!(translate.snapshot().since(&translated).count(), 1, "{label}: translations");
        assert_eq!(count.get(), counted, "{label}: a batch opened a per-query span");
        assert_eq!(answered.get() - batched, 8, "{label}: coax.batch.queries");
    }
}

/// Odd chunk sizes (including chunks bigger than the batch and size 1)
/// must not perturb anything either.
#[test]
fn batch_results_survive_adversarial_chunking() {
    let ds = planted(6_000, 97);
    let index = CoaxIndex::build(&ds, &CoaxConfig::default());
    let queries = mixed_workload(&ds);
    let baseline = index.batch_query(&queries);
    for chunk_size in [1usize, 3, 7, 1000] {
        for threads in [1usize, 3] {
            let config =
                ExecConfig { batch_threads: threads, min_parallel_batch: 2, chunk_size };
            let batched = index.batch_query_with(&queries, &config);
            assert_eq!(batched, baseline, "chunk={chunk_size} threads={threads}");
        }
    }
}

/// The parallel contract must hold for every primary × outlier backend
/// combination — fused grid probes, trait-default probes, and nested
/// COAX all run under the same worker pool.
#[test]
fn parallel_batch_contract_holds_across_backends() {
    let ds = planted(6_000, 98);
    let queries = mixed_workload(&ds);
    let parallel = ExecConfig { min_parallel_batch: 2, ..ExecConfig::parallel() };
    let combos = [
        (PrimaryBackend::GridFile, OutlierBackend::RTree { capacity: 8 }),
        (PrimaryBackend::RTree { capacity: 8 }, OutlierBackend::GridFile),
        (
            PrimaryBackend::Custom(BackendSpec::ColumnFiles {
                cells_per_dim: 4,
                sort_dim: None,
            }),
            OutlierBackend::Custom(BackendSpec::FullScan),
        ),
        (PrimaryBackend::Coax(Box::default()), OutlierBackend::GridFile),
    ];
    for (primary, outlier) in combos {
        let config = CoaxConfig {
            primary_backend: primary,
            outlier_backend: outlier,
            ..Default::default()
        };
        let index = CoaxIndex::build(&ds, &config);
        let batched = index.batch_query_with(&queries, &parallel);
        for (q, result) in queries.iter().zip(&batched) {
            let mut ids = Vec::new();
            let stats = index.range_query_stats(q, &mut ids);
            assert_eq!(result.stats, stats, "stats diverged on {q:?}");
            assert_eq!(result.ids, ids, "ids diverged on {q:?}");
        }
    }
}

/// The config carried in `CoaxConfig::exec` (and set through
/// `IndexSpec::with_exec`) is what the trait-level `batch_query` uses —
/// a parallel-configured index answers exactly like a sequential one.
#[test]
fn exec_config_rides_the_factory_spec() {
    use coax_core::IndexSpec;
    let ds = planted(5_000, 100);
    let queries = mixed_workload(&ds);
    let sequential = IndexSpec::coax(CoaxConfig::default()).build(&ds);
    let parallel = IndexSpec::coax(CoaxConfig::default())
        .with_exec(ExecConfig { min_parallel_batch: 2, ..ExecConfig::parallel() })
        .build(&ds);
    assert_eq!(parallel.batch_query(&queries), sequential.batch_query(&queries));
}

#[test]
fn plans_are_reusable_and_report_pruning() {
    let ds = planted(8_000, 94);
    let index = CoaxIndex::build(&ds, &CoaxConfig::default());

    // A dependent-only query: the plan's navigation must bound the
    // predictor even though the query does not.
    let mut q = RangeQuery::unbounded(3);
    q.constrain(1, 500.0, 560.0);
    let plan = index.plan(&q);
    assert!(!plan.primary_pruned());
    assert!(plan.navs().iter().all(|nav| nav.lo(0) > f64::NEG_INFINITY));
    assert_eq!(plan.filter(), &q);

    // Executing the same plan twice yields identical answers.
    let mut a = Vec::new();
    let mut b = Vec::new();
    let sa = index.execute_plan(&plan, &mut a);
    let sb = index.execute_plan(&plan, &mut b);
    assert_eq!(sa, sb);
    assert_eq!(a, b);
    assert_eq!(sa.flatten().matches, a.len());

    // A contradictory query prunes the primary probe entirely.
    let mut contradiction = RangeQuery::unbounded(3);
    contradiction.constrain(0, 800.0, 900.0);
    contradiction.constrain(1, 0.0, 10.0);
    let pruned = index.plan(&contradiction);
    assert!(pruned.primary_pruned());
    let mut out = Vec::new();
    let stats = index.execute_plan(&pruned, &mut out);
    assert_eq!(stats.primary.rows_examined, 0, "pruned plan must skip the primary");
}

/// The streaming sink must deliver every query exactly once, each result
/// identical to the materialized batch at that index — whatever thread
/// count or chunking drives the pool.
#[test]
fn streaming_batch_delivers_every_query_identically() {
    let ds = planted(8_000, 191);
    let index = CoaxIndex::build(&ds, &CoaxConfig::default());
    let mut queries = mixed_workload(&ds);
    queries.extend(knn_rectangle_queries(&ds, 60, 50, 905));
    let expected = index.batch_query(&queries);

    for (threads, chunk_size) in [(1usize, 0usize), (1, 3), (2, 0), (4, 7), (8, 0)] {
        let config = ExecConfig { batch_threads: threads, min_parallel_batch: 2, chunk_size };
        let mut received: Vec<Option<coax_index::QueryResult>> = vec![None; queries.len()];
        index.batch_query_streaming_with(&queries, &config, |qi, result| {
            assert!(
                received[qi].replace(result).is_none(),
                "query {qi} delivered twice (threads={threads}, chunk={chunk_size})"
            );
        });
        for (qi, slot) in received.iter().enumerate() {
            let got = slot.as_ref().unwrap_or_else(|| {
                panic!("query {qi} never delivered (threads={threads}, chunk={chunk_size})")
            });
            assert_eq!(
                got, &expected[qi],
                "streamed result diverged (threads={threads}, chunk={chunk_size}, query {qi})"
            );
        }
    }
}

/// Single-threaded streaming yields in query order, chunk by chunk — the
/// sink sees a strictly increasing index sequence.
#[test]
fn single_threaded_streaming_preserves_query_order() {
    let ds = planted(4_000, 192);
    let index = CoaxIndex::build(&ds, &CoaxConfig::default());
    let queries = mixed_workload(&ds);
    let mut seen = Vec::new();
    index.batch_query_streaming(&queries, |qi, _| seen.push(qi));
    assert_eq!(seen, (0..queries.len()).collect::<Vec<_>>());
}

/// The plan cursor is the streaming twin of `execute_plan`: collecting
/// it reproduces the materialized ids (same order) and `ScanStats` bit
/// for bit, for every query shape including pruned and empty ones.
#[test]
fn plan_cursor_collects_identically_to_execute_plan() {
    let ds = planted(8_000, 193);
    let index = CoaxIndex::build(&ds, &CoaxConfig::default());
    for q in mixed_workload(&ds) {
        let mut ids = Vec::new();
        let stats = index.range_query_stats(&q, &mut ids);
        let (cursor_ids, cursor_stats) = index.range_query_cursor(&q).collect_with_stats();
        assert_eq!(cursor_ids, ids, "cursor ids diverged on {q:?}");
        assert_eq!(cursor_stats, stats, "cursor stats diverged on {q:?}");
    }
}

/// Checks `queries` on the one shard of `service` against `FullScan`
/// over `rows` (row `i` holds id `i`): the snapshot and its frozen epoch
/// answer every query with `FullScan`'s ids, their materialized, cursor
/// and batch paths agree on ids and `ScanStats`, and the epoch's plan
/// probes only the partition a point can live in — which the partitions
/// themselves confirm — while a query leaving any model unpinned keeps
/// the translated two-probe plan. Returns how many plans skipped the
/// outlier probe, skipped the primary probe, and were translated.
fn assert_point_plans(
    service: &ShardedHandle,
    rows: &[Vec<f64>],
    queries: &[RangeQuery],
    label: &str,
) -> [usize; 3] {
    use coax_core::exec::NAV_FAN_OUT_CAP;
    use coax_core::translate::translate_all;
    let columns = (0..rows[0].len()).map(|d| rows.iter().map(|r| r[d]).collect()).collect();
    let reference = BackendSpec::FullScan.build(&Dataset::new(columns));
    let session = service.snapshot();
    let epoch = session.shard(0).frozen();
    // Every fold here drains the whole overlay, so the epoch holds a
    // prefix of the ids.
    let held = epoch.len() as u32;
    for (surface, name) in [(epoch as &dyn MultidimIndex, "epoch"), (&session, "snapshot")] {
        let batch = surface.batch_query(queries);
        for (q, batched) in queries.iter().zip(&batch) {
            let mut ids = Vec::new();
            let stats = surface.range_query_stats(q, &mut ids);
            let mut expect = sorted(reference.range_query(q));
            if name == "epoch" {
                expect.retain(|&id| id < held);
            }
            assert_eq!(sorted(ids.clone()), expect, "{label}: {name} ids on {q:?}");
            let cursor = surface.range_query_cursor(q).collect_with_stats();
            assert_eq!(cursor, (ids.clone(), stats), "{label}: {name} cursor on {q:?}");
            assert_eq!((&batched.ids, batched.stats), (&ids, stats), "{label}: {name} batch");
        }
    }
    let pinned = |q: &RangeQuery, d: usize| q.lo(d) == q.hi(d);
    let mut kinds = [0; 3];
    for q in queries {
        let plan = epoch.plan(q);
        let mut models = epoch.discovery().all_models();
        if models.all(|m| pinned(q, m.predictor()) && pinned(q, m.dependent())) {
            let inside = epoch
                .discovery()
                .all_models()
                .all(|m| m.contains(q.lo(m.predictor()), q.lo(m.dependent())));
            assert_eq!(plan.outliers_pruned(), inside, "{label}: outlier probe on {q:?}");
            assert_eq!(plan.primary_pruned(), !inside, "{label}: primary probe on {q:?}");
            let (mut primary, mut outliers) = (Vec::new(), Vec::new());
            epoch.query_primary_untranslated(q, &mut primary);
            epoch.query_outliers(q, &mut outliers);
            let skipped = if inside { outliers } else { primary };
            assert!(skipped.is_empty(), "{label}: the skipped partition matches {q:?}");
            kinds[usize::from(!inside)] += 1;
        } else {
            assert!(!plan.outliers_pruned(), "{label}: unpinned {q:?} skips the outliers");
            let translated = translate_all(q, epoch.groups(), NAV_FAN_OUT_CAP);
            assert_eq!(plan.navs(), &translated[..], "{label}: unpinned {q:?} translates");
            kinds[2] += 1;
        }
    }
    kinds
}

/// Inserts `extra` into `service` (their ids follow `rows`'), then
/// checks the point plans after the inserts, after a fold and after a
/// refit — each time with plans of all three kinds among `queries`.
fn check_through_maintenance(
    service: &ShardedHandle,
    mut rows: Vec<Vec<f64>>,
    extra: Vec<Vec<f64>>,
    queries: &[RangeQuery],
    label: &str,
) {
    for row in extra {
        assert_eq!(service.insert(&row), Ok(rows.len() as u32), "{label}: dense ids");
        rows.push(row);
    }
    for stage in ["+rows", "+fold", "+refit"] {
        match stage {
            "+fold" => service.shard_handle(0).fold(),
            "+refit" => service.shard_handle(0).refit(),
            _ => {}
        }
        let kinds = assert_point_plans(service, &rows, queries, &format!("{label} {stage}"));
        assert!(kinds.iter().all(|&k| k > 0), "{label} {stage}: plan kinds {kinds:?}");
    }
}

/// Point plans on a hand-set line `y = 2x + 10` with margins ±5 (exact
/// arithmetic on the half-integer lattice): rows exactly on either
/// margin are primary and their points skip the outlier probe, a row
/// one ulp past the margin is an outlier and its point skips the
/// primary, and `±0.0` coordinates plan alike under either sign.
#[test]
fn point_plans_probe_the_one_partition_a_point_lives_in() {
    use coax_core::{CorrelationGroup, Discovery, LinParams, SoftFdModel};
    let model = SoftFdModel::new(0, 1, LinParams { slope: 2.0, intercept: 10.0 }, 5.0, 5.0);
    let discovery = Discovery {
        groups: vec![CorrelationGroup { predictor: 0, models: vec![model.into()] }],
        dims: 3,
    };
    // On the band with integer noise; every 16th row 100 above it; rows
    // 0 and 1 at x = −0.0 and +0.0.
    let rows: Vec<Vec<f64>> = (0..2_000u32)
        .map(|i| {
            let x = [-0.0, 0.0].get(i as usize).copied().unwrap_or(f64::from(i) * 0.5);
            let off = if i % 16 == 5 { 100.0 } else { 0.0 };
            vec![x, 2.0 * x + 10.0 + f64::from(i % 9) - 4.0 + off, f64::from(i * 37 % 100)]
        })
        .collect();
    let mut extra = Vec::new();
    for x in [3.0, 250.5, 777.0] {
        let (upper, lower) = (2.0 * x + 10.0 + 5.0, 2.0 * x + 10.0 - 5.0);
        assert!(model.contains(x, upper) && model.contains(x, lower), "on the margins");
        assert!(!model.contains(x, upper.next_up()), "one ulp past the margin");
        extra.extend([vec![x, upper, 1.0], vec![x, lower, 2.0], vec![x, upper.next_up(), 3.0]]);
    }
    extra.extend([vec![-0.0, 10.0, -0.0], vec![0.0, 12.0, 0.0], vec![-0.0, 300.0, 5.0]]);

    let flip_zeros =
        |r: &[f64]| -> Vec<f64> { r.iter().map(|&v| if v == 0.0 { -v } else { v }).collect() };
    let mut queries = Vec::new();
    for r in rows.iter().step_by(97).chain(&rows[..2]).chain(&extra) {
        queries.push(RangeQuery::point(r));
        queries.push(RangeQuery::point(&flip_zeros(r)));
        // Every model pinned, the independent dimension left open.
        let mut pair = RangeQuery::unbounded(3);
        queries.push(pair.constrain(0, r[0], r[0]).constrain(1, r[1], r[1]).clone());
    }
    queries.push(RangeQuery::point(&[0.0, 10.0, 55.5])); // no hit
    let mut predictor_only = RangeQuery::unbounded(3);
    queries.push(predictor_only.constrain(0, 3.0, 3.0).clone());

    let base = Dataset::new((0..3).map(|d| rows.iter().map(|r| r[d]).collect()).collect());
    let service = ShardedHandle::build_with_discovery(&base, discovery, &CoaxConfig::default());
    check_through_maintenance(&service, rows, extra, &queries, "line");
}

/// A point plan needs every model pinned: with a spline `x → y1` and a
/// line `x → y2` off one predictor, a query pinning one pair but not the
/// other keeps the translated two-probe plan, while full points probe
/// one partition — over the grid primary and a nested COAX primary.
#[test]
fn point_plans_need_every_model_pinned_over_splines_and_nested_primaries() {
    use coax_core::{
        CorrelationGroup, Discovery, LinParams, PrimaryBackend, SoftFdModel, SplineFdModel,
    };
    let curve = |x: f64| (x - 500.0) * (x - 500.0) / 250.0;
    let xs: Vec<f64> = (0..=200).map(|i| f64::from(i) * 5.0).collect();
    let ys: Vec<f64> = xs.iter().map(|&x| curve(x)).collect();
    let spline = SplineFdModel::fit(0, 1, &xs, &ys, 6.0).expect("a parabola fits");
    let line = SoftFdModel::new(0, 2, LinParams { slope: 3.0, intercept: -40.0 }, 8.0, 8.0);
    let discovery = Discovery {
        groups: vec![CorrelationGroup {
            predictor: 0,
            models: vec![spline.into(), line.into()],
        }],
        dims: 3,
    };
    // Near both curves, every 11th row off the spline and every 13th off
    // the line.
    let row = |i: u32| {
        let x = f64::from(i % 1000) + f64::from(i / 1000) * 0.25;
        let y1 = curve(x) + f64::from(i % 7) - 3.0 + if i % 11 == 3 { 80.0 } else { 0.0 };
        let y2 = 3.0 * x - 40.0 + f64::from(i % 5) - 2.0 - if i % 13 == 4 { 90.0 } else { 0.0 };
        vec![x, y1, y2]
    };
    let rows: Vec<Vec<f64>> = (0..3_000).map(row).collect();
    let extra: Vec<Vec<f64>> = (3_000..3_040).map(row).collect();
    let mut queries = Vec::new();
    for r in rows.iter().step_by(61).chain(&extra) {
        queries.push(RangeQuery::point(r));
        let mut q = RangeQuery::point(r);
        queries.push(q.constrain(2, r[2] - 30.0, r[2] + 30.0).clone());
        let mut q = RangeQuery::point(r);
        queries.push(q.constrain(1, r[1] - 30.0, r[1] + 30.0).clone());
        let mut q = RangeQuery::point(r);
        queries.push(q.constrain(0, r[0] - 2.0, r[0] + 2.0).clone());
    }

    let base = Dataset::new((0..3).map(|d| rows.iter().map(|r| r[d]).collect()).collect());
    for (label, primary) in
        [("grid", PrimaryBackend::GridFile), ("nested", PrimaryBackend::Coax(Box::default()))]
    {
        let config = CoaxConfig { primary_backend: primary, ..Default::default() };
        let service = ShardedHandle::build_with_discovery(&base, discovery.clone(), &config);
        check_through_maintenance(&service, rows.clone(), extra.clone(), &queries, label);
    }
}
