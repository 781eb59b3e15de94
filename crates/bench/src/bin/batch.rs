//! Batch-execution benchmark: what the `coax_core::exec` batch engine
//! buys over the per-query loop, laddered over **batch size × worker
//! count × backend**.
//!
//! For every cell of the ladder the same workload runs three ways:
//!
//! * **sequential loop** — one `range_query_stats` call per query, the
//!   pre-batch-engine baseline;
//! * **batch t=N** — the full engine: duplicate queries answered once,
//!   each distinct query translated once and run through the
//!   single-query executor, chunks fanned out over `N` scoped workers;
//! * **stream t=N** — `batch_query_streaming` over the same pool:
//!   results flow to the sink as chunks complete.
//!
//! Every row reports **time-to-first-result** (`ttfr`) next to the
//! whole-batch time: for the materialized rows the first result exists
//! only when the batch returns (ttfr = batch time); the sequential loop's
//! first result is its first query; the streaming rows' comes from the
//! exec layer's own span recorder (the `coax.batch.ttfr_us` histogram,
//! stamped before the first sink call) — the latency the
//! cursor/streaming redesign exists to cut, now visible in the perf
//! trajectory via `--json`/`--csv`.
//!
//! Before timing, every configuration's per-query results and
//! `ScanStats` are checked **bit-identical** to the sequential loop —
//! the speedup is never bought with a changed answer (the `exec_batch`,
//! `batch_parallel`, and `streaming` suites assert the same, harder).
//!
//! A final **sharded** section runs the same workload through the
//! sharded index service (`ShardedHandle`), laddered over
//! `COAX_BENCH_SHARDS` (comma list, default `1,4`): every shard count's
//! batch answers are verified against a one-shard service *and* against
//! each other (at one shard, bit for bit against the bare index), and its
//! merged stream against its batch (each query exactly once), before
//! timing, so fan-out throughput is never bought with a changed answer.
//!
//! Scaled by `COAX_BENCH_ROWS` / `COAX_BENCH_REPEATS`; ladders by
//! `COAX_BENCH_BATCH_SIZES` / `COAX_BENCH_BATCH_THREADS` (comma lists).
//! Pass `--json` for machine-readable output, `--csv <path>` for a flat
//! CSV, `--metrics <path>` for the observability snapshot (JSON +
//! `<path>.prom` Prometheus text).

use coax_bench::datasets;
use coax_bench::harness::{
    fmt_ms, json_mode, maybe_write_csv, maybe_write_metrics, print_table, JsonReport,
    JsonValue, ReportRow,
};
use coax_core::{
    CoaxConfig, CoaxIndex, ExecConfig, IndexSpec, MetricsRegistry, PrimaryBackend, ShardSpec,
    ShardedHandle,
};
use coax_data::RangeQuery;
use coax_index::{MultidimIndex, QueryResult};
use std::time::Instant;

/// Mean wall-clock milliseconds per whole-batch execution of `f`, with
/// one untimed warm-up pass.
fn time_batch_ms(repeats: usize, mut f: impl FnMut()) -> f64 {
    let repeats = repeats.max(1);
    f();
    let start = Instant::now();
    for _ in 0..repeats {
        f();
    }
    start.elapsed().as_secs_f64() * 1e3 / repeats as f64
}

/// The sequential ground truth: one `range_query_stats` call per query.
fn sequential_loop(index: &CoaxIndex, queries: &[RangeQuery]) -> Vec<QueryResult> {
    queries
        .iter()
        .map(|q| {
            let mut ids = Vec::new();
            let stats = index.range_query_stats(q, &mut ids);
            QueryResult { ids, stats }
        })
        .collect()
}

/// Mean wall-clock milliseconds until the first result of `f` exists,
/// with one untimed warm-up pass. `f` runs the workload and returns the
/// elapsed time at which its first result materialized.
fn time_first_ms(repeats: usize, mut f: impl FnMut() -> f64) -> f64 {
    let repeats = repeats.max(1);
    f();
    let mut total = 0.0;
    for _ in 0..repeats {
        total += f();
    }
    total * 1e3 / repeats as f64
}

/// Mean streaming time-to-first-result in milliseconds over `repeats`
/// runs of `f`, read from the exec layer's own span recorder: the
/// `coax.batch.ttfr_us` histogram delta across the timed passes
/// (the batch engine stamps first-result latency before the first sink
/// call, so this measures the engine, not the bench's callback).
fn stream_ttfr_ms(repeats: usize, mut f: impl FnMut()) -> f64 {
    let hist = MetricsRegistry::global().histogram("coax.batch.ttfr_us");
    let repeats = repeats.max(1);
    f(); // untimed warm-up, outside the bracket
    let before = hist.snapshot();
    for _ in 0..repeats {
        f();
    }
    let delta = hist.snapshot().since(&before);
    assert_eq!(
        delta.count(),
        repeats as u64,
        "one ttfr record per streaming run (is obs disabled?)"
    );
    delta.sum_us() as f64 / delta.count() as f64 / 1e3
}

struct Row {
    label: String,
    batch_ms: f64,
    ttfr_ms: f64,
    speedup: f64,
    threads: usize,
}

fn main() {
    let json = json_mode();
    let rows = datasets::bench_rows();
    let repeats = datasets::bench_repeats();
    let sizes = datasets::bench_batch_sizes();
    let threads_ladder = datasets::bench_batch_threads();
    let max_batch = sizes.iter().copied().max().unwrap_or(0);

    if !json {
        println!(
            "Batch-execution benchmark — airline analogue, {rows} rows; \
             ladders: batch sizes {sizes:?} × workers {threads_ladder:?} \
             ({} cores available)",
            std::thread::available_parallelism().map_or(1, usize::from)
        );
    }

    let dataset = datasets::airline(rows);
    // KNN rectangles at two selectivities. Half of each batch re-asks a
    // 16-query hot set — high-throughput serving batches repeat hot
    // queries (the Coconut/Hermit motivation), and the engine's query
    // dedup answers each distinct query once per batch where the
    // sequential loop executes every copy.
    let mut pool = datasets::range_workload(&dataset, max_batch.div_ceil(4), 50);
    pool.extend(datasets::range_workload(&dataset, max_batch.div_ceil(4), 400));
    let hot: Vec<RangeQuery> = pool.iter().rev().take(16).cloned().collect();
    let mut unique = pool.into_iter();
    let mut workload: Vec<RangeQuery> = Vec::with_capacity(max_batch);
    for i in 0..max_batch {
        match if i % 2 == 0 { unique.next() } else { None } {
            Some(q) => workload.push(q),
            None => workload.push(hot[i % hot.len()].clone()),
        }
    }

    let backends = [
        ("coax", IndexSpec::coax(CoaxConfig::default())),
        (
            "coax primary=r-tree",
            IndexSpec::coax(CoaxConfig {
                primary_backend: PrimaryBackend::RTree { capacity: 10 },
                ..Default::default()
            }),
        ),
    ];

    let mut report = JsonReport::new("batch");
    for (backend, spec) in &backends {
        let index = spec.build_coax(&dataset).expect("coax spec");
        for &size in &sizes {
            let queries = &workload[..size.min(workload.len())];
            let section = format!("{backend} batch={}", queries.len());

            let baseline = sequential_loop(&index, queries);
            let seq_ms = time_batch_ms(repeats, || {
                std::hint::black_box(sequential_loop(&index, queries));
            });
            // The loop's first result is its first query's answer.
            let seq_ttfr_ms = time_first_ms(repeats, || {
                let start = Instant::now();
                let mut ids = Vec::new();
                index.range_query_stats(&queries[0], &mut ids);
                let elapsed = start.elapsed().as_secs_f64();
                std::hint::black_box(ids);
                elapsed
            });

            let mut table: Vec<Row> = vec![Row {
                label: "sequential loop".into(),
                batch_ms: seq_ms,
                ttfr_ms: seq_ttfr_ms,
                speedup: 1.0,
                threads: 1,
            }];

            for &t in &threads_ladder {
                let label = format!("batch t={t}");
                let config =
                    ExecConfig { batch_threads: t, min_parallel_batch: 2, chunk_size: 0 };
                // The contract check: identical answers, then the clock.
                let results = index.batch_query_with(queries, &config);
                assert_eq!(
                    results, baseline,
                    "{section} / {label}: batch diverged from the sequential loop"
                );
                let batch_ms = time_batch_ms(repeats, || {
                    std::hint::black_box(index.batch_query_with(queries, &config));
                });
                table.push(Row {
                    label: label.clone(),
                    batch_ms,
                    // A materialized batch's first result exists when the
                    // whole batch returns.
                    ttfr_ms: batch_ms,
                    speedup: seq_ms / batch_ms,
                    threads: config.batch_threads,
                });

                // The same pool, streaming: results flow to the sink as
                // chunks complete. Contract check first, then the clock —
                // total drain time and time-to-first-result.
                let mut streamed: Vec<Option<QueryResult>> = vec![None; queries.len()];
                index.batch_query_streaming_with(queries, &config, |qi, r| {
                    streamed[qi] = Some(r);
                });
                let streamed: Vec<QueryResult> =
                    streamed.into_iter().map(|r| r.expect("every query streamed")).collect();
                assert_eq!(
                    streamed, baseline,
                    "{section} / {label}: stream diverged from the sequential loop"
                );
                let stream_ms = time_batch_ms(repeats, || {
                    index.batch_query_streaming_with(queries, &config, |_, r| {
                        std::hint::black_box(r);
                    });
                });
                let stream_ttfr = stream_ttfr_ms(repeats, || {
                    index.batch_query_streaming_with(queries, &config, |_, r| {
                        std::hint::black_box(r);
                    });
                });
                table.push(Row {
                    label: table[table.len() - 1].label.replace("batch", "stream"),
                    batch_ms: stream_ms,
                    ttfr_ms: stream_ttfr,
                    speedup: seq_ms / stream_ms,
                    threads: config.batch_threads,
                });
            }

            for row in &table {
                let per_query_us = row.batch_ms * 1e3 / queries.len() as f64;
                report.add_row(
                    &section,
                    &row.label,
                    vec![
                        ("threads", JsonValue::Int(row.threads as u64)),
                        ("batch_ms", JsonValue::Num(row.batch_ms)),
                        ("ttfr_ms", JsonValue::Num(row.ttfr_ms)),
                        ("per_query_us", JsonValue::Num(per_query_us)),
                        ("qps", JsonValue::Num(1e3 * queries.len() as f64 / row.batch_ms)),
                        ("speedup_vs_sequential", JsonValue::Num(row.speedup)),
                    ],
                );
            }
            if !json {
                let printable: Vec<ReportRow> = table
                    .iter()
                    .map(|row| ReportRow {
                        label: row.label.clone(),
                        values: vec![
                            ("batch time".into(), fmt_ms(row.batch_ms)),
                            ("ttfr".into(), fmt_ms(row.ttfr_ms)),
                            ("per query".into(), fmt_ms(row.batch_ms / queries.len() as f64)),
                            (
                                "qps".into(),
                                format!("{:.0}", 1e3 * queries.len() as f64 / row.batch_ms),
                            ),
                            ("speedup".into(), format!("{:.2}x", row.speedup)),
                        ],
                    })
                    .collect();
                print_table(&section, &printable);
            }
        }
    }

    // --- sharded section: the same workload through the sharded index
    // --- service, laddered over `COAX_BENCH_SHARDS`. Before any timing,
    // --- every shard count's answers are checked against a one-shard
    // --- service (same row set per query, same matches, and
    // --- scanned_pending equal to the pending rows of the shards the
    // --- query names) and across shard counts — bit-identity is never
    // --- traded for fan-out throughput. At one shard the full results,
    // --- id order and ScanStats included, must be bit-identical to the
    // --- bare index built with the same config.
    let shard_ladder = datasets::bench_shards();
    let shard_queries =
        &workload[..sizes.iter().copied().max().unwrap_or(0).min(workload.len())];
    let spec = IndexSpec::coax(CoaxConfig::default());
    let single = spec.build_service(&dataset).expect("coax spec yields a service");
    let bare = spec.build_coax(&dataset).expect("coax spec yields an index");
    let baseline = {
        let mut results = Vec::with_capacity(shard_queries.len());
        for q in shard_queries {
            let mut ids = Vec::new();
            let stats = single.range_query_stats(q, &mut ids);
            ids.sort_unstable();
            results.push((ids, stats));
        }
        results
    };
    let seq_ms = time_batch_ms(repeats, || {
        for q in shard_queries {
            let mut ids = Vec::new();
            single.range_query_stats(q, &mut ids);
            std::hint::black_box(ids);
        }
    });
    let mut previous: Option<Vec<Vec<u32>>> = None;
    for &shards in &shard_ladder {
        let section = format!("sharded batch={}", shard_queries.len());
        let label = format!("shards={shards}");
        let sharded = ShardedHandle::build(
            &dataset,
            &CoaxConfig {
                shard: ShardSpec::auto(shards),
                exec: ExecConfig { batch_threads: 0, ..Default::default() },
                ..Default::default()
            },
        );
        // The contract check, before the clock.
        let results = sharded.batch_query(shard_queries);
        let sorted_ids: Vec<Vec<u32>> = results
            .iter()
            .map(|r| {
                let mut ids = r.ids.clone();
                ids.sort_unstable();
                ids
            })
            .collect();
        for (qi, ((expect_ids, expect_stats), result)) in
            baseline.iter().zip(&results).enumerate()
        {
            assert_eq!(
                &sorted_ids[qi], expect_ids,
                "{label}: sharded rows diverged from the one-shard service on query {qi}"
            );
            assert_eq!(result.stats.matches, expect_stats.matches, "{label}: query {qi}");
            let q = &shard_queries[qi];
            let pending: usize =
                sharded.shards_for(q).map(|s| sharded.shard_handle(s).pending_len()).sum();
            assert_eq!(result.stats.scanned_pending, pending, "{label}: query {qi}");
            if sharded.shard_count() == 1 {
                let mut bare_ids = Vec::new();
                let bare_stats = bare.range_query_stats(q, &mut bare_ids);
                assert_eq!(result.ids, bare_ids, "one shard must be bit-identical");
                assert_eq!(result.stats, bare_stats, "one shard must be bit-identical");
            }
        }
        if let Some(prev) = &previous {
            assert_eq!(&sorted_ids, prev, "{label}: answers changed across shard counts");
        }
        previous = Some(sorted_ids);
        // The merged stream delivers every query exactly once, each
        // result equal to the materialized batch's.
        let mut streamed: Vec<Option<QueryResult>> = vec![None; shard_queries.len()];
        for (qi, r) in sharded.snapshot().batch_query_streaming(shard_queries) {
            assert!(streamed[qi].replace(r).is_none(), "{label}: query {qi} streamed twice");
        }
        for (qi, (slot, expect)) in streamed.iter().zip(&results).enumerate() {
            let got =
                slot.as_ref().unwrap_or_else(|| panic!("{label}: query {qi} not streamed"));
            assert_eq!(got, expect, "{label}: stream diverged from the batch on query {qi}");
        }

        let batch_ms = time_batch_ms(repeats, || {
            std::hint::black_box(sharded.batch_query(shard_queries));
        });
        let stream_ms = time_batch_ms(repeats, || {
            for (_, r) in sharded.snapshot().batch_query_streaming(shard_queries) {
                std::hint::black_box(r);
            }
        });
        report.add_row(
            &section,
            &label,
            vec![
                ("shards", JsonValue::Int(shards.max(1) as u64)),
                ("key_dim", JsonValue::Int(sharded.key_dim() as u64)),
                ("batch_ms", JsonValue::Num(batch_ms)),
                ("stream_ms", JsonValue::Num(stream_ms)),
                ("qps", JsonValue::Num(1e3 * shard_queries.len() as f64 / batch_ms)),
                ("speedup_vs_sequential", JsonValue::Num(seq_ms / batch_ms)),
            ],
        );
        if !json {
            let row = ReportRow {
                label: label.clone(),
                values: vec![
                    ("batch time".into(), fmt_ms(batch_ms)),
                    ("stream time".into(), fmt_ms(stream_ms)),
                    (
                        "qps".into(),
                        format!("{:.0}", 1e3 * shard_queries.len() as f64 / batch_ms),
                    ),
                    ("speedup".into(), format!("{:.2}x", seq_ms / batch_ms)),
                ],
            };
            print_table(&section, &[row]);
        }
    }

    if json {
        report.print();
    } else {
        println!(
            "\nReading: 'sequential loop' is the pre-engine baseline; 'batch t=N' answers \
             each distinct query once, translated once, on N workers; 'stream t=N' is the \
             same pool delivering results as chunks complete. 'ttfr' is \
             time-to-first-result: a materialized batch's equals its batch time, a stream's \
             is its first sink callback. Every row's answers were verified bit-identical to \
             the loop before timing."
        );
    }
    maybe_write_csv(&report);
    maybe_write_metrics();
}
