//! Quickstart: build a COAX index on correlated data, watch it discover
//! the soft functional dependencies, query it through the typed
//! predicate builder, stream results through a cursor, and update it.
//! Updates go through the index service, `ShardedHandle`.
//!
//! Run with: `cargo run --release --example quickstart`

use coax::core::{CoaxConfig, CoaxIndex, ShardedHandle};
use coax::data::synth::{AirlineConfig, Generator};
use coax::data::{Query, RangeQuery};
use coax::index::MultidimIndex;

fn main() {
    // 1. A dataset with hidden structure: flight records where air time
    //    follows distance, and arrival follows departure.
    let dataset = AirlineConfig::small(100_000, 7).generate();
    println!(
        "dataset: {} rows x {} attributes ({})",
        dataset.len(),
        dataset.dims(),
        dataset.names().join(", ")
    );

    // 2. Build COAX. Soft-FD discovery is automatic.
    let index = CoaxIndex::build(&dataset, &CoaxConfig::default());
    println!("\ndiscovered correlation groups:");
    for group in index.groups() {
        println!("  predictor: {}", dataset.name(group.predictor));
        for model in &group.models {
            match model.as_linear() {
                Some(lin) => println!(
                    "    -> {}: y = {:.3}x + {:.1}  (margins -{:.1}/+{:.1})",
                    dataset.name(lin.dependent),
                    lin.params.slope,
                    lin.params.intercept,
                    lin.eps_lb,
                    lin.eps_ub
                ),
                None => {
                    let sp = model.as_spline().expect("linear or spline");
                    println!(
                        "    -> {}: spline with {} segments (margin ±{:.1})",
                        dataset.name(model.dependent()),
                        sp.n_segments(),
                        sp.eps
                    )
                }
            }
        }
    }
    println!(
        "indexed dims: {:?} of {} | primary ratio: {:.1}% | directory: {} B",
        index.indexed_dims(),
        dataset.dims(),
        100.0 * index.primary_ratio(),
        index.memory_overhead()
    );

    // 3. Query on a *dependent* attribute — COAX never indexed it, yet
    //    the translated query runs against its predictor. The builder
    //    names only the attribute we constrain; it lowers to the closed
    //    rectangle the engine executes.
    let model = index.groups()[0].models[0].clone();
    let (dep, pred) = (model.dependent(), model.predictor());
    let centre = model.predict(dataset.column(pred)[0]);
    let (q_lo, q_hi) = (centre - 40.0, centre + 40.0);
    let query =
        Query::select(dataset.dims()).range(dep, q_lo..=q_hi).build().expect("valid predicate");
    let nav = index.translate_query(&query);
    println!(
        "\nquery {} in [{q_lo:.0}, {q_hi:.0}] -> translated {} in [{:.0}, {:.0}]",
        dataset.name(dep),
        dataset.name(pred),
        nav.lo(pred),
        nav.hi(pred)
    );
    let mut out = Vec::new();
    let stats = index.query_detailed(&query, &mut out);
    println!(
        "matches: {} | rows examined: primary {} + outliers {} (of {} total rows)",
        out.len(),
        stats.primary.rows_examined,
        stats.outliers.rows_examined,
        dataset.len()
    );

    // 4. The same query, streamed: a cursor yields matches cell by cell,
    //    so the first results are in hand long before the scan finishes.
    let mut cursor = index.range_query_cursor(&query);
    let first_chunk = cursor.next_chunk().map(<[u32]>::len).unwrap_or(0);
    let examined_at_first = cursor.stats().rows_examined;
    let (rest, stats) = cursor.collect_with_stats();
    println!(
        "streaming: first chunk of {first_chunk} ids after examining {examined_at_first} \
         rows; full cursor matched {} (examined {})",
        first_chunk + rest.len(),
        stats.rows_examined
    );

    // 5. The built index is a frozen epoch; updates go through the index
    //    service, built from the dataset (one shard by default). An
    //    insert is checked, numbered, routed by the margin check and
    //    buffered in its shard's overlay, visible to queries at once; a
    //    fold merges the overlay into the shard's epoch with the models
    //    frozen, and a refit refreshes the models from the insert
    //    evidence. Each publishes a new epoch. (For concurrent inserts,
    //    reads and per-shard maintainers, see the streaming_maintenance
    //    example.)
    let service = ShardedHandle::build(&dataset, &CoaxConfig::default());
    let row = [800.0, 135.0, 107.0, 600.0, 755.0, 750.0, 3.0, 2.0];
    let id = service.insert(&row).expect("well-formed row");
    let visible = service.range_query(&RangeQuery::point(&row)).contains(&id);
    println!(
        "\ninserted row id {id}; pending = {}, visible = {visible}",
        service.pending_len()
    );
    let report = |action: &str| {
        let session = service.snapshot();
        let shard = session.shard(0);
        println!(
            "after {action}: epoch {}, {} rows indexed, pending = {}",
            shard.epoch(),
            shard.frozen().len(),
            shard.pending_len()
        );
    };
    service.shard_handle(0).fold();
    report("fold");
    service.shard_handle(0).refit();
    report("refit");
}
