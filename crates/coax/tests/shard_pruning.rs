//! Router soundness: a read of the index service visits only the shards
//! `ShardedHandle::shards_for` names, and loses no row by it.
//!
//! For hash and range shard keys at 2 and 7 shards, after inserts, then
//! after a fold, then after a refit on every shard:
//!
//! * every row matching a query routes (by `ShardedHandle::route`, the
//!   insert path's own routing) into `shards_for(query)`;
//! * every point query names exactly one shard;
//! * every read surface — live single, snapshot single, cursor, batch
//!   and stream — returns exactly `FullScan`'s ids over the same rows.
//!
//! The build puts a run of `±0.0` keys across the middle ranks, so range
//! cut points land on zero, and the inserts add keys beyond the build
//! range, keys exactly on every cut point, and more `±0.0` keys.

use coax::core::{CoaxConfig, ShardKey, ShardSpec, ShardedHandle};
use coax::data::synth::{Generator, LinearPairConfig};
use coax::data::workload::knn_rectangle_queries;
use coax::data::{Dataset, RangeQuery, Value};
use coax::index::{BackendSpec, MultidimIndex};

/// The planted pair over `x ∈ (−500, 500)`, with every key within 150
/// of zero replaced by a zero of alternating sign: about 30% of the rows
/// share the key `±0.0`, straddling the median.
fn zero_heavy(rows: usize, seed: u64) -> Dataset {
    let ds = LinearPairConfig {
        rows,
        x_range: (-500.0, 500.0),
        slope: 2.0,
        intercept: 10.0,
        noise_sigma: 4.0,
        outlier_fraction: 0.05,
        seed,
        ..Default::default()
    }
    .generate();
    let keys = ds
        .column(0)
        .iter()
        .enumerate()
        .map(|(i, &x)| if x.abs() < 150.0 { [0.0, -0.0][i % 2] } else { x })
        .collect();
    Dataset::new(vec![keys, ds.column(1).to_vec()])
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

/// The keys at which routing steps up: for a range key, exactly the cut
/// points that build keys sit on (a cut point is a build key, and a row
/// on it routes above it).
fn routing_steps(service: &ShardedHandle, rows: &[Vec<Value>]) -> Vec<Value> {
    let route = |x: Value| service.route(&[x, 0.0]).expect("finite row");
    let mut keys: Vec<Value> = rows.iter().map(|r| r[0] + 0.0).collect();
    keys.sort_unstable_by(|a, b| a.total_cmp(b));
    keys.dedup();
    keys.windows(2).filter(|w| route(w[1]) > route(w[0])).map(|w| w[1]).collect()
}

/// The rows an insert stream adds: keys beyond the build range on both
/// sides, keys exactly on every routing step (and the step with a
/// dependent off the band), and `±0.0` keys.
fn inserts(steps: &[Value]) -> Vec<Vec<Value>> {
    let mut rows = vec![
        vec![-900.0, -1790.0],
        vec![1500.0, 3010.0],
        vec![2500.0, 0.0],
        vec![-0.0, 10.0],
        vec![0.0, 10.0],
        vec![-0.0, 400.0],
    ];
    for &b in steps {
        rows.push(vec![b, 2.0 * b + 10.0]);
        rows.push(vec![b, 2.0 * b + 90.0]);
    }
    rows
}

/// Rectangles, points at inserted rows and at built rows with a zero
/// key (the zero under both signs), ranges that end exactly on every
/// routing step, and queries that leave the key open or invert it.
fn workload(base: &Dataset, rows: &[Vec<Value>], steps: &[Value]) -> Vec<RangeQuery> {
    let mut queries = knn_rectangle_queries(base, 8, 60, 2707);
    let built_zeros = rows[..base.len()].iter().filter(|r| r[0] == 0.0).take(4);
    for row in rows[base.len()..].iter().chain(built_zeros) {
        queries.push(RangeQuery::point(row));
        if row[0] == 0.0 {
            queries.push(RangeQuery::point(&[-row[0], row[1]]));
        }
    }
    queries.push(RangeQuery::point(&[0.0, 10.0]));
    queries.push(RangeQuery::point(&[-0.0, 10.0]));
    queries.push(RangeQuery::point(&[123.456, 7.0])); // no hit
    for &b in steps {
        let mut q = RangeQuery::unbounded(2);
        queries.push(q.constrain(0, b, b).clone());
        queries.push(q.constrain(0, b - 40.0, b).clone());
        queries.push(q.constrain(0, b, b + 40.0).clone());
        queries.push(q.constrain(0, -0.0, b.max(0.0)).clone());
    }
    let mut dependent_only = RangeQuery::unbounded(2);
    queries.push(dependent_only.constrain(1, 0.0, 300.0).clone());
    let mut inverted = RangeQuery::unbounded(2);
    queries.push(inverted.constrain(0, 10.0, -10.0).clone());
    queries.push(RangeQuery::unbounded(2));
    queries
}

/// The router soundness checks, against `FullScan` over `rows` (row `i`
/// holds id `i`).
fn assert_pruning_sound(
    service: &ShardedHandle,
    rows: &[Vec<Value>],
    queries: &[RangeQuery],
    label: &str,
) {
    let columns = (0..2).map(|d| rows.iter().map(|r| r[d]).collect()).collect();
    let reference = BackendSpec::FullScan.build(&Dataset::new(columns));
    let session = service.snapshot();
    let batch = session.batch_query(queries);
    let handle_batch = service.batch_query(queries);
    let mut streamed = vec![None; queries.len()];
    for (qi, result) in session.batch_query_streaming(queries) {
        streamed[qi] = Some(result);
    }
    for (qi, q) in queries.iter().enumerate() {
        let named = service.shards_for(q);
        assert!(named.end <= service.shard_count() && !named.is_empty(), "{label}: {q:?}");
        if q.is_point() {
            assert_eq!(named.len(), 1, "{label}: point {q:?} names {named:?}");
        }
        let expect = sorted(reference.range_query(q));
        for &id in &expect {
            let shard = service.route(&rows[id as usize]).expect("finite row");
            assert!(named.contains(&shard), "{label}: row {id} in shard {shard}, {q:?}");
        }
        let surfaces = [
            ("live", service.range_query(q)),
            ("snapshot", session.range_query(q)),
            ("cursor", session.range_query_cursor(q).collect()),
            ("batch", batch[qi].ids.clone()),
            ("handle batch", handle_batch[qi].ids.clone()),
            ("stream", streamed[qi].clone().expect("delivered").ids),
        ];
        for (surface, ids) in surfaces {
            assert_eq!(sorted(ids), expect, "{label}: {surface} on {q:?}");
        }
    }
}

#[test]
fn reads_visit_only_shards_that_can_hold_a_match() {
    let base = zero_heavy(3_000, 2701);
    let base_rows: Vec<Vec<Value>> = (0..base.len() as u32).map(|r| base.row(r)).collect();
    for key in [ShardKey::Hash { dim: 0 }, ShardKey::Range { dim: 0 }] {
        for shards in [2, 7] {
            let label = format!("{key:?} × {shards}");
            let config = CoaxConfig { shard: ShardSpec { shards, key }, ..Default::default() };
            let service = ShardedHandle::build(&base, &config);
            // A range key steps exactly at its cut points; a hash key
            // steps all over, so a few of its steps stand in.
            let mut steps = routing_steps(&service, &base_rows);
            if let ShardKey::Range { .. } = key {
                assert!(steps.contains(&0.0), "{label}: a cut point sits on zero");
            } else {
                steps.truncate(6);
            }
            let mut rows = base_rows.clone();
            for row in inserts(&steps) {
                let id = service.insert(&row).expect("valid row");
                assert_eq!(id as usize, rows.len(), "{label}: dense ids");
                rows.push(row);
            }
            let queries = workload(&base, &rows, &steps);
            assert_pruning_sound(&service, &rows, &queries, &format!("{label} +rows"));
            for s in 0..service.shard_count() {
                service.shard_handle(s).fold();
            }
            assert_eq!(service.pending_len(), 0, "{label}: folded");
            assert_pruning_sound(&service, &rows, &queries, &format!("{label} +fold"));
            for s in 0..service.shard_count() {
                service.shard_handle(s).refit();
            }
            assert_pruning_sound(&service, &rows, &queries, &format!("{label} +refit"));
        }
    }
}

/// A skipped shard adds nothing: a point query reports exactly the
/// overlay of the one shard it names, and a key range on a range key
/// exactly the overlays of the shards it spans.
#[test]
fn skipped_shards_scan_no_overlay() {
    let base = zero_heavy(2_000, 2702);
    for key in [ShardKey::Hash { dim: 0 }, ShardKey::Range { dim: 0 }] {
        let config = CoaxConfig { shard: ShardSpec { shards: 7, key }, ..Default::default() };
        let service = ShardedHandle::build(&base, &config);
        for i in 0..70 {
            let x = f64::from(i * 13 % 1000) - 500.0;
            service.insert(&[x, 2.0 * x + 10.0]).expect("valid row");
        }
        let mut queries = vec![RangeQuery::point(&base.row(5))];
        if let ShardKey::Range { .. } = key {
            let mut range = RangeQuery::unbounded(2);
            queries.push(range.constrain(0, -480.0, -300.0).clone());
        }
        for q in queries {
            let named = service.shards_for(&q);
            let pending: usize =
                named.clone().map(|s| service.shard_handle(s).pending_len()).sum();
            let mut ids = Vec::new();
            let stats = service.range_query_stats(&q, &mut ids);
            assert_eq!(stats.scanned_pending, pending, "{key:?}: {q:?} names {named:?}");
            assert!(pending < service.pending_len(), "{key:?}: {q:?} skips some overlay");
        }
    }
}
