//! Live-maintenance benchmark: what correlation drift costs, and what
//! the `maint` subsystem buys back.
//!
//! The scenario is the ROADMAP's serving story in miniature. Build a
//! COAX index on a stationary stream prefix behind the live index
//! service (a one-shard `ShardedHandle`), then keep inserting while the
//! planted dependency's
//! intercept drifts away from the frozen models. Four phases are
//! measured with the same dependent-attribute workload:
//!
//! * **before** — fresh epoch, empty buffer: the baseline.
//! * **during** — the whole drifting suffix buffered, models stale:
//!   queries pay the linear overlay scan (`scanned_pending`) *and* the
//!   out-of-margin routing, and the drift score has crossed the policy
//!   threshold.
//! * **after** — one `Maintainer::tick` (which must choose **refit**):
//!   models refreshed from the accumulated evidence, buffer folded,
//!   epoch swapped.
//! * **fresh** — a from-scratch build over the full data: the upper
//!   bound the refit is judged against.
//!
//! Scaled by `COAX_BENCH_ROWS` / `COAX_BENCH_QUERIES` /
//! `COAX_BENCH_REPEATS`; pass `--json` for machine-readable output,
//! `--csv <path>` for a flat CSV, `--metrics <path>` for the
//! observability snapshot (JSON + `<path>.prom` Prometheus text).

use coax_bench::datasets;
use coax_bench::harness::{
    fmt_ms, json_mode, maybe_write_csv, maybe_write_metrics, percentile_fields, print_table,
    time_per_query_ms, JsonReport, JsonValue, ReportRow,
};
use coax_core::obs::HistogramSummary;
use coax_core::{
    CoaxConfig, CoaxIndex, MaintenancePolicy, MetricsRegistry, ShardSpec, ShardedHandle,
};
use coax_data::synth::{DriftingLinearConfig, Generator};
use coax_data::{Dataset, RangeQuery, RowId};
use coax_index::{FullScan, MultidimIndex, ScanStats};
use std::time::Instant;

/// Band queries on the dependent attribute — the queries translation
/// exists for, and the first casualties of a drifted model.
fn dependent_band_queries(dataset: &Dataset, count: usize, width: f64) -> Vec<RangeQuery> {
    let (lo, hi) = dataset.min_max(1).expect("non-empty dataset");
    (0..count)
        .map(|i| {
            let y0 = lo + (hi - lo - width) * i as f64 / count.max(1) as f64;
            let mut q = RangeQuery::unbounded(dataset.dims());
            q.constrain(1, y0, y0 + width);
            q
        })
        .collect()
}

/// Workload totals for one phase: merged scan counters + mean latency.
fn measure(
    index: &dyn MultidimIndex,
    queries: &[RangeQuery],
    repeats: usize,
) -> (f64, ScanStats) {
    let ms = time_per_query_ms(queries, repeats, |q, out| {
        index.range_query_stats(q, out);
    });
    let mut total = ScanStats::default();
    let mut out = Vec::new();
    for q in queries {
        out.clear();
        total = total.merge(index.range_query_stats(q, &mut out));
    }
    (ms, total)
}

struct Phase {
    label: &'static str,
    ms: f64,
    stats: ScanStats,
    pending: usize,
    drift_score: f64,
    epoch: u64,
    /// Per-query latency distribution over this phase alone — the
    /// delta of the `coax.query.latency_us` histogram the phase's index
    /// records into (shard 0's for the service, the unlabelled one for
    /// the fresh build) across the phase's measurement passes. Each
    /// value covers the whole shard query: overlay scan, translation and
    /// the epoch probe.
    latency: HistogramSummary,
}

/// Runs `measure` bracketed by snapshots of the query-latency histogram
/// labelled `shard`, so each phase reports its own percentile
/// distribution.
fn measure_with_latency(
    index: &dyn MultidimIndex,
    queries: &[RangeQuery],
    repeats: usize,
    shard: Option<u32>,
) -> (f64, ScanStats, HistogramSummary) {
    let hist = MetricsRegistry::global().histogram_shard("coax.query.latency_us", shard);
    let before = hist.snapshot();
    let (ms, stats) = measure(index, queries, repeats);
    let latency = hist.snapshot().since(&before).summary();
    (ms, stats, latency)
}

fn phase(
    label: &'static str,
    service: &ShardedHandle,
    queries: &[RangeQuery],
    repeats: usize,
) -> Phase {
    let (ms, stats, latency) = measure_with_latency(service, queries, repeats, Some(0));
    let shard = service.shard_handle(0);
    let report = shard.drift_report();
    Phase {
        label,
        ms,
        stats,
        pending: report.pending,
        drift_score: report.max_drift_score(),
        epoch: shard.epoch(),
        latency,
    }
}

fn main() {
    let json = json_mode();
    let rows = datasets::bench_rows();
    let n_queries = datasets::bench_queries().min(60);
    let repeats = datasets::bench_repeats();
    let build_rows = rows / 2;

    let stream = DriftingLinearConfig {
        rows,
        drift_after: build_rows,
        x_range: (0.0, 1000.0),
        start: (2.0, 25.0),
        end: (2.0, 55.0),
        noise_sigma: 4.0,
        outlier_fraction: 0.01,
        outlier_offset_sigmas: 25.0,
        independent: vec![(0.0, 100.0)],
        seed: 0x3A1D,
    };
    if !json {
        println!(
            "Live-maintenance benchmark — {build_rows} build rows + {} drifting inserts, \
             {n_queries} dependent-band queries per phase",
            rows - build_rows
        );
    }
    let full = stream.generate();
    let queries = dependent_band_queries(&full, n_queries, 40.0);

    let config = CoaxConfig {
        maintenance: MaintenancePolicy { max_pending: usize::MAX, ..Default::default() },
        ..Default::default()
    };
    let prefix: Vec<RowId> = (0..build_rows as RowId).collect();
    let service = ShardedHandle::build(&full.take_rows(&prefix), &config);

    let mut phases = Vec::new();
    phases.push(phase("before", &service, &queries, repeats));

    for i in build_rows..rows {
        service.insert(&full.row(i as RowId)).expect("insert");
    }
    phases.push(phase("during", &service, &queries, repeats));

    let maintainers = service.maintainers();
    let start = Instant::now();
    let outcome = maintainers[0].tick();
    let maint_ms = start.elapsed().as_secs_f64() * 1e3;
    phases.push(phase("after", &service, &queries, repeats));

    let fresh = CoaxIndex::build(&full, &config);
    let (fresh_ms, fresh_stats, fresh_latency) =
        measure_with_latency(&fresh, &queries, repeats, None);
    phases.push(Phase {
        label: "fresh",
        ms: fresh_ms,
        stats: fresh_stats,
        pending: 0,
        drift_score: 0.0,
        epoch: 0,
        latency: fresh_latency,
    });

    // --- sharded isolation: drive the same drift onto ONE shard of a
    // --- 3-shard service and refit it in the background while the
    // --- workload keeps fanning out to every shard. Per-shard query
    // --- latency comes from the shard-labelled `coax.query.latency_us`
    // --- histograms — a quiet bracket and a during-refit bracket per
    // --- shard, so a latency cliff on the untouched shards would be
    // --- visible as a p99 delta between the two. Parity is asserted
    // --- before any timed bracket, and afterwards only the drifted
    // --- shard's epoch may have moved.
    const SHARDS: usize = 3;
    const TARGET: usize = 1;
    let shard_config = CoaxConfig {
        shard: ShardSpec::range(SHARDS, 0),
        maintenance: MaintenancePolicy { max_pending: usize::MAX, ..Default::default() },
        ..Default::default()
    };
    let prefix_ds = full.take_rows(&prefix);
    let sharded = ShardedHandle::build(&prefix_ds, &shard_config);
    // Parity before timing: the sharded service returns exactly the
    // ground-truth row set for every workload query.
    let ground_truth = FullScan::build(&prefix_ds);
    for q in &queries {
        let mut got = sharded.range_query(q);
        got.sort_unstable();
        let mut expect = ground_truth.range_query(q);
        expect.sort_unstable();
        assert_eq!(got, expect, "sharded parity failed on {q:?}");
    }
    // The drifting suffix, filtered to rows the router sends to the
    // target shard: only that shard's monitor sees drift.
    let mut target_inserts = 0usize;
    for i in build_rows..rows {
        let row = full.row(i as RowId);
        if sharded.route(&row).expect("valid row") == TARGET {
            sharded.insert(&row).expect("insert");
            target_inserts += 1;
        }
    }
    let epochs_before = sharded.epochs();

    let shard_hists: Vec<_> = (0..SHARDS)
        .map(|s| {
            MetricsRegistry::global().histogram_shard("coax.query.latency_us", Some(s as u32))
        })
        .collect();
    let run_workload = |passes: usize| {
        for _ in 0..passes.max(1) {
            for q in &queries {
                let mut out = Vec::new();
                sharded.range_query_stats(q, &mut out);
                std::hint::black_box(&out);
            }
        }
    };
    // Quiet bracket: no maintenance in flight.
    let quiet_marks: Vec<_> = shard_hists.iter().map(|h| h.snapshot()).collect();
    run_workload(repeats);
    let quiet: Vec<HistogramSummary> = shard_hists
        .iter()
        .zip(&quiet_marks)
        .map(|(h, m)| h.snapshot().since(m).summary())
        .collect();
    // During-refit bracket: the drifted shard rebuilds in the background
    // while the same workload keeps fanning out across all shards.
    let refit_marks: Vec<_> = shard_hists.iter().map(|h| h.snapshot()).collect();
    // coax-analyze: allow(thread-discipline, the benchmark must overlap one shard's refit with foreground queries; the scope joins before any result is read)
    let refit_ms = std::thread::scope(|scope| {
        let refitter = scope.spawn(|| {
            let t = Instant::now();
            sharded.shard_handle(TARGET).refit();
            t.elapsed().as_secs_f64() * 1e3
        });
        run_workload(repeats);
        refitter.join().expect("refit thread")
    });
    let during: Vec<HistogramSummary> = shard_hists
        .iter()
        .zip(&refit_marks)
        .map(|(h, m)| h.snapshot().since(m).summary())
        .collect();
    let epochs_after = sharded.epochs();
    assert!(epochs_after[TARGET] > epochs_before[TARGET], "target shard must have refitted");
    for s in 0..SHARDS {
        if s != TARGET {
            assert_eq!(
                epochs_after[s], epochs_before[s],
                "shard {s} published an epoch during shard {TARGET}'s refit"
            );
        }
    }

    let mut report = JsonReport::new("maint");
    for p in &phases {
        let mut fields = vec![
            ("runtime_ms", JsonValue::Num(p.ms)),
            ("effectiveness", JsonValue::Num(p.stats.effectiveness())),
            ("rows_examined", JsonValue::Int(p.stats.rows_examined as u64)),
            ("scanned_pending", JsonValue::Int(p.stats.scanned_pending as u64)),
            ("pending_rows", JsonValue::Int(p.pending as u64)),
            ("drift_score", JsonValue::Num(p.drift_score)),
            ("epoch", JsonValue::Int(p.epoch)),
        ];
        fields.extend(percentile_fields(&p.latency));
        report.add_row("phases", p.label, fields);
    }
    report.add_row(
        "maintenance",
        "tick",
        vec![
            ("action", format!("{:?}", outcome.action).to_lowercase().as_str().into()),
            ("duration_ms", JsonValue::Num(maint_ms)),
            ("drift_score_at_decision", JsonValue::Num(outcome.report.max_drift_score())),
            ("outlier_rate", JsonValue::Num(outcome.report.outlier_rate)),
            ("pending_at_decision", JsonValue::Int(outcome.report.pending as u64)),
            ("drift_summary", outcome.report.summary().as_str().into()),
        ],
    );
    for s in 0..SHARDS {
        report.add_row(
            "sharded",
            &format!("shard={s}"),
            vec![
                ("is_refit_target", JsonValue::Str((s == TARGET).to_string())),
                ("epoch_before", JsonValue::Int(epochs_before[s])),
                ("epoch_after", JsonValue::Int(epochs_after[s])),
                ("quiet_queries", JsonValue::Int(quiet[s].count)),
                ("quiet_p50_us", JsonValue::Int(quiet[s].p50_us)),
                ("quiet_p99_us", JsonValue::Int(quiet[s].p99_us)),
                ("during_refit_queries", JsonValue::Int(during[s].count)),
                ("during_refit_p50_us", JsonValue::Int(during[s].p50_us)),
                ("during_refit_p99_us", JsonValue::Int(during[s].p99_us)),
            ],
        );
    }
    report.add_row(
        "sharded",
        "refit",
        vec![
            ("target_shard", JsonValue::Int(TARGET as u64)),
            ("target_pending_before", JsonValue::Int(target_inserts as u64)),
            ("refit_ms", JsonValue::Num(refit_ms)),
        ],
    );

    if json {
        report.print();
    } else {
        let rows: Vec<ReportRow> = phases
            .iter()
            .map(|p| ReportRow {
                label: p.label.to_string(),
                values: vec![
                    ("runtime".into(), fmt_ms(p.ms)),
                    ("effectiveness".into(), format!("{:.3}", p.stats.effectiveness())),
                    ("pending scans".into(), p.stats.scanned_pending.to_string()),
                    ("drift score".into(), format!("{:.2}", p.drift_score)),
                    ("epoch".into(), p.epoch.to_string()),
                    ("p50".into(), fmt_ms(p.latency.p50_us as f64 / 1e3)),
                    ("p99".into(), fmt_ms(p.latency.p99_us as f64 / 1e3)),
                ],
            })
            .collect();
        print_table("Query cost before/during/after maintenance", &rows);
        println!(
            "maintenance: {:?} in {} ({})",
            outcome.action,
            fmt_ms(maint_ms),
            outcome.report.summary(),
        );
        let during = &phases[1];
        let after = &phases[2];
        let fresh = &phases[3];
        println!(
            "effectiveness: {:.3} during drift -> {:.3} after refit (fresh build: {:.3})",
            during.stats.effectiveness(),
            after.stats.effectiveness(),
            fresh.stats.effectiveness(),
        );
    }
    if !json {
        let rows: Vec<ReportRow> = (0..SHARDS)
            .map(|s| ReportRow {
                label: format!("shard={s}{}", if s == TARGET { " (refit target)" } else { "" }),
                values: vec![
                    ("epoch".into(), format!("{} -> {}", epochs_before[s], epochs_after[s])),
                    ("quiet p99".into(), fmt_ms(quiet[s].p99_us as f64 / 1e3)),
                    ("during-refit p99".into(), fmt_ms(during[s].p99_us as f64 / 1e3)),
                ],
            })
            .collect();
        print_table(
            &format!("Per-shard exec p99 around shard {TARGET}'s background refit"),
            &rows,
        );
        println!(
            "sharded: shard {TARGET} refitted {target_inserts} drifted inserts in {} while \
             the other shards' epochs never moved",
            fmt_ms(refit_ms)
        );
    }
    maybe_write_csv(&report);
    maybe_write_metrics();
}
