//! Every index in the workspace — the five conventional substrates *and*
//! COAX itself — built from plain config values through the backend
//! factory and driven through one uniform `Box<dyn MultidimIndex>` loop.
//!
//! There is no per-type code below: adding a backend to this comparison
//! means pushing one more [`IndexSpec`] into the list. This is the
//! composition seam behind the paper's "works with any multidimensional
//! index structure" claim — COAX shows up as just another row of the
//! table, and *both its partitions* are picked through the same factory:
//! the outlier store on an R-tree, the primary on any substrate, even on
//! another COAX (correlation nesting).
//!
//! The comparison loop drives the **Query API v2** surface end to end:
//! queries come from the typed predicate builder, every backend also
//! streams one query through its `range_query_cursor`, and the live
//! service finishes with a `ShardedSnapshot` batch stream.
//!
//! Run with: `cargo run --release --example backend_zoo`
//! (`COAX_ZOO_ROWS` scales the dataset; CI runs a small N.)

use coax::core::{CoaxConfig, IndexSpec, OutlierBackend, PrimaryBackend};
use coax::data::synth::{AirlineConfig, Generator};
use coax::data::workload::knn_rectangle_queries;
use coax::data::Query;
use coax::index::{BackendSpec, MultidimIndex, ScanStats};
use std::time::Instant;

fn main() {
    let rows = std::env::var("COAX_ZOO_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000usize)
        .max(2_000);
    let dataset = AirlineConfig::small(rows, 42).generate();
    let queries = knn_rectangle_queries(&dataset, 60, rows / 2000, 7);
    println!(
        "backend zoo — {} rows x {} dims, {} range queries\n",
        dataset.len(),
        dataset.dims(),
        queries.len()
    );

    // The whole contender list is data, not code.
    let mut specs: Vec<IndexSpec> = vec![
        BackendSpec::FullScan.into(),
        BackendSpec::UniformGrid { cells_per_dim: 4 }.into(),
        BackendSpec::GridFile { cells_per_dim: 8, sort_dim: None }.into(),
        BackendSpec::ColumnFiles { cells_per_dim: 8, sort_dim: None }.into(),
        BackendSpec::RTree { capacity: 10 }.into(),
        IndexSpec::coax(CoaxConfig::default()),
        // COAX with its outlier partition on an R-tree, through the same
        // factory that builds the standalone contenders.
        IndexSpec::coax(CoaxConfig {
            outlier_backend: OutlierBackend::Custom(BackendSpec::RTree { capacity: 10 }),
            ..Default::default()
        }),
        // The primary partition goes through the factory too: here held
        // by an R-tree instead of the reduced-dimensionality grid file.
        IndexSpec::coax(CoaxConfig {
            primary_backend: PrimaryBackend::RTree { capacity: 10 },
            ..Default::default()
        }),
        // Correlation nesting: a COAX primary inside a COAX index.
        IndexSpec::coax(CoaxConfig {
            primary_backend: PrimaryBackend::Coax(Box::default()),
            ..Default::default()
        }),
    ];

    // One builder-made probe every backend will also *stream*: a
    // half-open band on dim 0, everything else unconstrained.
    let probe =
        Query::select(dataset.dims()).range(0, 200.0..600.0).build().expect("valid predicate");

    println!(
        "{:<14} {:>10} {:>12} {:>14} {:>14} {:>8}  config",
        "index", "build", "mem", "per query", "rows/query", "eff"
    );
    for spec in specs.drain(..) {
        let label = spec.label();
        let start = Instant::now();
        let index: Box<dyn MultidimIndex> = spec.build(&dataset);
        let build = start.elapsed();

        let start = Instant::now();
        let mut out = Vec::new();
        let mut total = ScanStats::default();
        for q in &queries {
            out.clear();
            total = total.merge(index.range_query_stats(q, &mut out));
        }
        let per_query = start.elapsed().as_secs_f64() * 1e6 / queries.len() as f64;

        // Every backend streams through the same box: collected cursor
        // results are bit-identical to the materialized call.
        let (streamed, stream_stats) = index.range_query_cursor(&probe).collect_with_stats();
        assert_eq!(streamed.len(), index.range_query(&probe).len());
        assert_eq!(stream_stats.matches, streamed.len());

        println!(
            "{:<14} {:>8.1}ms {:>10}B {:>11.1}us {:>14} {:>8.3}  {label}",
            index.name(),
            build.as_secs_f64() * 1e3,
            index.memory_overhead(),
            per_query,
            total.rows_examined / queries.len(),
            total.effectiveness(),
        );
    }

    // The batch surface works through the same box: translate-once plans
    // for COAX, plain loops for everything else — identical results.
    let coax = IndexSpec::coax(CoaxConfig::default()).build(&dataset);
    let batched = coax.batch_query(&queries[..10.min(queries.len())]);
    let total_hits: usize = batched.iter().map(|r| r.ids.len()).sum();
    println!("\nbatch of {} queries through the boxed trait: {total_hits} hits", batched.len());

    // And the live surface: build COAX as the index service, open one
    // read session, and stream a batch off it while an insert lands on
    // the service — the session's answers don't move.
    let service = IndexSpec::coax(CoaxConfig::default())
        .build_service(&dataset)
        .expect("coax spec yields a service");
    let session = service.snapshot();
    let before = session.range_query(&probe).len();
    service.insert(&dataset.row(0)).expect("well-formed row");
    let mut streamed_hits = 0;
    for (_, result) in session.batch_query_streaming(&queries[..8.min(queries.len())]) {
        streamed_hits += result.ids.len();
    }
    assert_eq!(session.range_query(&probe).len(), before, "session is isolated");
    println!(
        "snapshot session (epochs {:?}): {streamed_hits} hits streamed while the live \
         service absorbed an insert ({} vs {} rows)",
        session.epochs(),
        session.len(),
        service.len()
    );
}
