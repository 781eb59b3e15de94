//! Independent per-shard maintenance: a refit on one shard never stalls
//! — or even touches — the other N−1.
//!
//! The scenario: a 3-shard range-partitioned service, correlation drift
//! driven **onto exactly one shard** (rows pre-filtered through
//! [`ShardedHandle::route`]), per-shard [`Maintainer`]s ticking on their
//! own threads, a writer streaming rows, and readers hammering every
//! shard throughout. Asserted:
//!
//! * the drifted shard detects, refits, and publishes a new epoch while
//!   the other two shards' epoch counters never move;
//! * concurrent readers stay exact the whole time (dense global id
//!   space, snapshot stability) and a post-hoc [`FullScan`] over
//!   everything inserted confirms bit-exact results;
//! * the refit decision and the epoch publish land in the global
//!   [`EventJournal`] tagged with the drifted shard's id.
//!
//! Everything is seeded; all assertions run before any timing.

use coax::core::obs::EventJournal;
use coax::core::{CoaxConfig, MaintenancePolicy, ShardSpec, ShardedHandle};
use coax::data::synth::{Generator, LinearPairConfig};
use coax::data::{Dataset, Query, RangeQuery, RowId};
use coax::index::{FullScan, MultidimIndex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const TARGET: usize = 1;

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

fn sorted(mut v: Vec<RowId>) -> Vec<RowId> {
    v.sort_unstable();
    v
}

/// Rows that all route to `shard` of `sharded`: the planted dependency
/// with the intercept displaced far outside the learned margins, so the
/// shard's drift monitor sees sustained model error.
fn drifted_rows_for_shard(
    sharded: &ShardedHandle,
    shard: usize,
    count: usize,
) -> Vec<Vec<f64>> {
    let mut rows = Vec::with_capacity(count);
    let mut k = 0u64;
    while rows.len() < count {
        let x = (k as f64 * 0.37) % 1000.0;
        k += 1;
        let row = vec![x, 2.0 * x + 10.0 + 420.0];
        if sharded.route(&row).expect("valid row") == shard {
            rows.push(row);
        }
    }
    rows
}

/// On-line rows that route anywhere *but* `shard`.
fn online_rows_avoiding_shard(
    sharded: &ShardedHandle,
    shard: usize,
    count: usize,
) -> Vec<Vec<f64>> {
    let mut rows = Vec::with_capacity(count);
    let mut k = 0u64;
    while rows.len() < count {
        let x = (k as f64 * 1.91) % 1000.0;
        k += 1;
        let row = vec![x, 2.0 * x + 10.0];
        if sharded.route(&row).expect("valid row") != shard {
            rows.push(row);
        }
    }
    rows
}

#[test]
fn refit_on_one_shard_leaves_the_other_shards_epochs_untouched() {
    let ds = planted(6_000, 71);
    let config = CoaxConfig {
        shard: ShardSpec::range(3, 0),
        maintenance: MaintenancePolicy {
            // No length-triggered folds: the only possible publish is a
            // drift-triggered refit, which this test aims at one shard.
            max_pending: usize::MAX,
            // Converge the drift EWMA fast enough for a test-sized stream.
            ewma_alpha: 1.0 / 64.0,
            ..Default::default()
        },
        ..Default::default()
    };
    let sharded = ShardedHandle::build(&ds, &config);
    assert_eq!(sharded.epochs(), vec![0, 0, 0]);

    // The insert stream, interleaved writer-side: heavy drift onto the
    // target shard, a trickle of on-line rows onto the others (their
    // monitors must stay calm).
    let drifted = drifted_rows_for_shard(&sharded, TARGET, 3_000);
    let online = online_rows_avoiding_shard(&sharded, TARGET, 300);
    let mut stream: Vec<Vec<f64>> = Vec::new();
    let (mut di, mut oi) = (0, 0);
    while di < drifted.len() || oi < online.len() {
        for _ in 0..10 {
            if di < drifted.len() {
                stream.push(drifted[di].clone());
                di += 1;
            }
        }
        if oi < online.len() {
            stream.push(online[oi].clone());
            oi += 1;
        }
    }

    let queries: Vec<RangeQuery> = vec![
        Query::select(2).range(0, 100.0..=250.0).build().unwrap(),
        Query::select(2).range(0, 400.0..=600.0).build().unwrap(),
        Query::select(2).range(1, 300.0..=800.0).build().unwrap(),
        RangeQuery::unbounded(2),
    ];

    // A read session opened before any drift: must stay bit-stable
    // through the refit.
    let session = sharded.snapshot();
    let baseline: Vec<Vec<RowId>> = queries.iter().map(|q| session.range_query(q)).collect();

    let journal_floor = EventJournal::global().events().last().map_or(0, |e| e.seq);
    let stop = AtomicBool::new(false);
    let inserted = AtomicUsize::new(0);
    let seed_len = ds.len();

    // One maintainer per shard, each driving only its own shard.
    let maintainers = sharded.maintainers();
    std::thread::scope(|scope| {
        for m in &maintainers {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    m.tick();
                    // Throttled: each tick journals its decision, and an
                    // unthrottled spin would evict the refit events from
                    // the bounded ring before the test reads them.
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        // Writer: the interleaved stream, bumping the published count
        // after each insert returns.
        scope.spawn(|| {
            for row in &stream {
                sharded.insert(row).expect("valid row");
                inserted.fetch_add(1, Ordering::Release);
            }
        });
        // Readers on every shard throughout: the pre-drift session never
        // moves, and the live handle's global id space stays dense (no
        // row lost, none duplicated) at every instant.
        for _ in 0..2 {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    for (q, expect) in queries.iter().zip(&baseline) {
                        assert_eq!(
                            &session.range_query(q),
                            expect,
                            "pre-drift session drifted on {q:?}"
                        );
                    }
                    // The counter is bumped only after an insert fully
                    // publishes, so rows counted *before* the query ran
                    // are all visible to it — a floor, never a ceiling.
                    let low_water = seed_len + inserted.load(Ordering::Acquire);
                    let all = sorted(sharded.range_query(&RangeQuery::unbounded(2)));
                    assert_eq!(
                        all,
                        (0..all.len() as RowId).collect::<Vec<_>>(),
                        "live id space must stay dense"
                    );
                    assert!(all.len() >= low_water, "live reader lost published rows");
                }
            });
        }

        // Wait for the drifted shard's refit to publish, then stop.
        let deadline = Instant::now() + Duration::from_secs(60);
        while sharded.shard_handle(TARGET).epoch() == 0 {
            assert!(
                Instant::now() < deadline,
                "drifted shard never refitted: drift={:?} pending={}",
                sharded.shard_handle(TARGET).drift_report().max_drift_score(),
                sharded.shard_handle(TARGET).pending_len(),
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
    });

    // The drifted shard published; the other two never did.
    let epochs = sharded.epochs();
    assert!(epochs[TARGET] >= 1, "target shard must have refitted: {epochs:?}");
    assert_eq!(epochs[0], 0, "shard 0 must not publish during shard 1's refit");
    assert_eq!(epochs[2], 0, "shard 2 must not publish during shard 1's refit");

    // The decision and the publish are journaled with the shard id.
    let events = EventJournal::global().events();
    let window = events.iter().filter(|e| e.seq > journal_floor);
    let tag = format!("shard={TARGET} ");
    assert!(
        window.clone().any(|e| e.kind == "maint_decision"
            && e.detail.starts_with(&tag)
            && e.detail.contains("action=Refit")),
        "no shard-tagged refit decision in the journal"
    );
    assert!(
        window.clone().any(|e| e.kind == "epoch_publish"
            && e.detail.starts_with(&tag)
            && e.detail.contains("action=refit")),
        "no shard-tagged epoch publish in the journal"
    );

    // Post-hoc ground truth: everything inserted, bit-exact vs FullScan.
    // The writer inserted in stream order, so global ids line up with
    // the reference dataset's row ids.
    let mut columns: Vec<Vec<f64>> = (0..ds.dims()).map(|d| ds.column(d).to_vec()).collect();
    for row in &stream {
        for (c, v) in columns.iter_mut().zip(row) {
            c.push(*v);
        }
    }
    let combined = Dataset::new(columns);
    let reference = FullScan::build(&combined);
    for q in &queries {
        assert_eq!(
            sorted(sharded.range_query(q)),
            sorted(reference.range_query(q)),
            "sharded diverged from FullScan on {q:?}"
        );
    }
    assert_eq!(sharded.len(), combined.len());
}
