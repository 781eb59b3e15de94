//! Scan-kernel benchmark: the vectorized columnar cell scan vs the
//! scalar reference, laddered over **dimensionality × selectivity**.
//!
//! Two sections per dimensionality:
//!
//! * **cell-scan** — one `PageStore` cell holding the whole uniform
//!   dataset, scanned end-to-end at each selectivity: the pure kernel
//!   microbenchmark (`Mrows/s` side by side, and the speedup the
//!   acceptance bar cares about). The rectangle constrains two
//!   attributes (one in 1-D), so higher dimensionalities also show the
//!   kernel skipping unconstrained columns the scalar row walk must
//!   still touch;
//! * **grid query** — a `GridFile` with a sorted dimension answering a
//!   KNN-rectangle workload through `range_query_stats`, timed with the
//!   process-wide kernel flag on and off: the end-to-end view with
//!   directory walks and binary-search narrowing diluting the kernel.
//!
//! Before every timed pair the two paths are asserted **bit-identical**
//! (ids in order, `rows_examined`/`matches`/`ScanStats` bit for bit) —
//! the speedup is never bought with a changed answer. The randomized
//! differential suite (`crates/index/tests/scan_kernel.rs`) pins the
//! same contract harder.
//!
//! Scaled by `COAX_BENCH_ROWS` / `COAX_BENCH_REPEATS`; ladders by
//! `COAX_BENCH_SCAN_DIMS` / `COAX_BENCH_SCAN_SELS_PERMILLE` (comma
//! lists). Pass `--json` for machine-readable output, `--csv <path>`
//! for a flat CSV.

use coax_bench::datasets;
use coax_bench::harness::{
    fmt_ms, json_mode, maybe_write_csv, print_table, JsonReport, JsonValue, ReportRow,
};
use coax_data::synth::{Generator, UniformConfig};
use coax_data::{RangeQuery, RowId};
use coax_index::pages::PageStore;
use coax_index::{kernel, GridFile, GridFileConfig, MultidimIndex};
use std::time::Instant;

/// Mean wall-clock milliseconds per execution of `f`, with one untimed
/// warm-up pass.
fn time_ms(passes: usize, mut f: impl FnMut()) -> f64 {
    let passes = passes.max(1);
    f();
    let start = Instant::now();
    for _ in 0..passes {
        f();
    }
    start.elapsed().as_secs_f64() * 1e3 / passes as f64
}

/// The selectivity rectangle: `constrained` leading attributes, each cut
/// to the centered band whose width makes the *joint* selectivity
/// `permille / 1000` on uniform `[0, 1]` data.
fn selectivity_query(dims: usize, constrained: usize, permille: usize) -> RangeQuery {
    let width = (permille as f64 / 1000.0).powf(1.0 / constrained as f64);
    let mut q = RangeQuery::unbounded(dims);
    for d in 0..constrained {
        q.constrain(d, 0.5 - width / 2.0, 0.5 + width / 2.0);
    }
    q
}

fn main() {
    let json = json_mode();
    let rows = datasets::bench_rows();
    let repeats = datasets::bench_repeats();
    let dims_ladder = datasets::bench_scan_dims();
    let sels = datasets::bench_scan_sels_permille();
    // Neutralize COAX_SCAN_KERNEL for the process: each side of every
    // pair below picks its path explicitly.
    kernel::force_scalar(false);

    if !json {
        println!(
            "Scan-kernel benchmark — uniform cube, {rows} rows; \
             ladders: dims {dims_ladder:?} × selectivity {sels:?} ‰"
        );
    }

    let mut report = JsonReport::new("scan");
    let mut best_speedup = 0.0f64;
    for &dims in &dims_ladder {
        let dataset = UniformConfig::cube(dims, rows, 0x5ca0 + dims as u64).generate();

        // ---- Section 1: the pure kernel over one whole-dataset cell.
        let ids: Vec<RowId> = dataset.row_ids().collect();
        let ps = PageStore::build(&dataset, &ids, 1, None, |_| 0);
        let section = format!("cell-scan dims={dims}");
        let constrained = dims.min(2);
        let mut table = Vec::new();
        for &permille in &sels {
            let q = selectivity_query(dims, constrained, permille);

            // The contract check: identical ids (in order) and counters.
            let (mut vec_out, mut sca_out) = (Vec::new(), Vec::new());
            let vec_stats = ps.scan_cell(0, &q, &mut vec_out);
            let sca_stats = ps.scan_cell_narrowed_scalar(0, &q, &q, &mut sca_out);
            assert_eq!(vec_stats, sca_stats, "{section}: counters diverged at {permille}‰");
            assert_eq!(vec_out, sca_out, "{section}: ids diverged at {permille}‰");
            let matched = vec_stats.1;

            // Then the clock. Scans re-fill a reused buffer; many passes
            // per measurement because one cell scan is sub-millisecond.
            let passes = repeats.max(1) * 20;
            let mut out = Vec::new();
            let sca_ms = time_ms(passes, || {
                out.clear();
                std::hint::black_box(ps.scan_cell_narrowed_scalar(0, &q, &q, &mut out));
            });
            let vec_ms = time_ms(passes, || {
                out.clear();
                std::hint::black_box(ps.scan_cell(0, &q, &mut out));
            });
            let mrows = |ms: f64| rows as f64 / (ms * 1e3);
            let speedup = sca_ms / vec_ms;
            best_speedup = best_speedup.max(speedup);

            let label = format!("sel={permille}‰ ({constrained} constrained dims)");
            report.add_row(
                &section,
                &label,
                vec![
                    ("rows", JsonValue::Int(rows as u64)),
                    ("matched", JsonValue::Int(matched as u64)),
                    ("scalar_ms", JsonValue::Num(sca_ms)),
                    ("columnar_ms", JsonValue::Num(vec_ms)),
                    ("scalar_mrows_s", JsonValue::Num(mrows(sca_ms))),
                    ("columnar_mrows_s", JsonValue::Num(mrows(vec_ms))),
                    ("speedup", JsonValue::Num(speedup)),
                ],
            );
            table.push(ReportRow {
                label,
                values: vec![
                    ("scalar".into(), fmt_ms(sca_ms)),
                    ("columnar".into(), fmt_ms(vec_ms)),
                    ("scalar Mrows/s".into(), format!("{:.0}", mrows(sca_ms))),
                    ("columnar Mrows/s".into(), format!("{:.0}", mrows(vec_ms))),
                    ("speedup".into(), format!("{speedup:.2}x")),
                    ("matched".into(), format!("{matched}")),
                ],
            });
        }
        if !json {
            print_table(&section, &table);
        }

        // ---- Section 2: end-to-end grid queries, flag on vs off.
        let config = if dims > 1 {
            GridFileConfig::subset((0..dims).filter(|&d| d != 1).collect(), Some(1), 4)
        } else {
            GridFileConfig::all_dims(1, 64)
        };
        let grid = GridFile::build(&dataset, &config);
        let queries = datasets::range_workload(&dataset, 64, (rows / 100).max(1));
        let run = |grid: &GridFile| {
            queries
                .iter()
                .map(|q| {
                    let mut ids = Vec::new();
                    let stats = grid.range_query_stats(q, &mut ids);
                    (ids, stats)
                })
                .collect::<Vec<_>>()
        };

        kernel::force_scalar(true);
        let scalar_results = run(&grid);
        let sca_ms = time_ms(repeats, || {
            std::hint::black_box(run(&grid));
        });
        kernel::force_scalar(false);
        let vectorized_results = run(&grid);
        let vec_ms = time_ms(repeats, || {
            std::hint::black_box(run(&grid));
        });
        assert_eq!(
            scalar_results, vectorized_results,
            "grid dims={dims}: kernel paths diverged"
        );

        let section = format!("grid query dims={dims}");
        let speedup = sca_ms / vec_ms;
        report.add_row(
            &section,
            "64-query workload",
            vec![
                ("queries", JsonValue::Int(queries.len() as u64)),
                ("scalar_ms", JsonValue::Num(sca_ms)),
                ("columnar_ms", JsonValue::Num(vec_ms)),
                ("per_query_us", JsonValue::Num(vec_ms * 1e3 / queries.len() as f64)),
                ("speedup", JsonValue::Num(speedup)),
            ],
        );
        if !json {
            print_table(
                &section,
                &[ReportRow {
                    label: "64-query workload".into(),
                    values: vec![
                        ("scalar".into(), fmt_ms(sca_ms)),
                        ("columnar".into(), fmt_ms(vec_ms)),
                        ("per query".into(), fmt_ms(vec_ms / queries.len() as f64)),
                        ("speedup".into(), format!("{speedup:.2}x")),
                    ],
                }],
            );
        }
    }

    if json {
        report.print();
    } else {
        println!(
            "\nReading: 'cell-scan' times one PageStore cell holding the whole dataset — the \
             pure kernel vs the scalar row walk, both re-checked bit-identical before timing \
             (best cell-scan speedup this run: {best_speedup:.2}x). 'grid query' is the \
             end-to-end view: a sorted-dimension GridFile answering a KNN-rectangle workload \
             with the process-wide scalar flag on vs off — directory walks and binary-search \
             narrowing dilute the kernel's share of the runtime."
        );
    }
    maybe_write_csv(&report);
}
