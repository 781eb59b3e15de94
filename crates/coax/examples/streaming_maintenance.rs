//! Streaming maintenance: readers, a writer, and per-shard maintainers
//! sharing one live COAX index service (`ShardedHandle`, one shard by
//! default) whose shards swap epochs under the readers.
//!
//! Threads run concurrently against the same service:
//!
//! * a **writer** streams rows whose planted dependency drifts mid-way,
//! * one **maintainer** per shard polls that shard's drift monitor and
//!   folds/refits when the policy says so (publishing each rebuilt index
//!   as the shard's next epoch), and
//! * a **reader** keeps querying throughout — each query sees a consistent
//!   cut, whatever the other threads are doing.
//!
//! Run with: `cargo run --release --example streaming_maintenance`

use coax::core::{CoaxConfig, MaintenanceAction, MaintenancePolicy, ShardedHandle};
use coax::data::synth::{DriftingLinearConfig, Generator};
use coax::data::{RangeQuery, RowId};
use coax::index::MultidimIndex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // A stream that behaves for its first half, then drifts: the
    // dependent attribute's intercept climbs ~2 margin widths.
    let stream = DriftingLinearConfig {
        rows: 60_000,
        drift_after: 30_000,
        start: (2.0, 25.0),
        end: (2.0, 55.0),
        outlier_fraction: 0.01,
        seed: 0x5EED,
        ..Default::default()
    };
    let full = stream.generate();
    let build_rows: Vec<RowId> = (0..stream.drift_after as RowId).collect();

    // Build on the stationary prefix; thresholds tuned so both actions
    // fire during the demo: folds while the stream behaves, a refit once
    // it drifts.
    let config = CoaxConfig {
        maintenance: MaintenancePolicy { max_pending: 4_000, ..Default::default() },
        ..Default::default()
    };
    let service = ShardedHandle::build(&full.take_rows(&build_rows), &config);
    println!(
        "built epoch 0 over {} rows in {} shard(s) ({} correlation group(s))",
        service.len(),
        service.shard_count(),
        service.snapshot().shard(0).frozen().groups().len()
    );

    let stop = Arc::new(AtomicBool::new(false));

    // --- writer: stream the remaining rows through the service. -------
    let writer = {
        let service = service.clone();
        let full = full.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for i in stream.drift_after..stream.rows {
                service.insert(&full.row(i as RowId)).expect("insert");
                if i % 512 == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            stop.store(true, Ordering::Relaxed);
        })
    };

    // --- maintainers: per shard, poll, decide, fold/refit, publish. ---
    let maintainer_threads: Vec<_> = service
        .maintainers()
        .into_iter()
        .enumerate()
        .map(|(shard, maintainer)| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut log = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let outcome = maintainer.tick();
                    if outcome.action != MaintenanceAction::None {
                        log.push((shard, outcome.action, outcome.epoch, outcome.report));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                log
            })
        })
        .collect();

    // --- reader: query continuously, verifying snapshot consistency. --
    let reader = {
        let service = service.clone();
        let stop = Arc::clone(&stop);
        let dims = full.dims();
        std::thread::spawn(move || {
            let everything = RangeQuery::unbounded(dims);
            let mut snapshots = 0usize;
            let mut last = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let n = service.range_query(&everything).len();
                assert!(n >= last, "a snapshot can never lose rows");
                last = n;
                snapshots += 1;
            }
            snapshots
        })
    };

    writer.join().expect("writer");
    let actions: Vec<_> =
        maintainer_threads.into_iter().flat_map(|t| t.join().expect("maintainer")).collect();
    let snapshots = reader.join().expect("reader");

    println!("\nmaintenance log:");
    for (shard, action, epoch, report) in &actions {
        println!(
            "  shard {shard} epoch {epoch}: {action:?} (drift score {:.2}, outlier rate \
             {:.3}, {} rows pending)",
            report.max_drift_score(),
            report.outlier_rate,
            report.pending
        );
    }
    println!(
        "\nreader took {snapshots} consistent snapshots while {} maintenance action(s) ran",
        actions.len()
    );

    // Settle the tail of the stream, then show the refreshed models.
    service.maintain_all();
    let final_view = service.snapshot();
    println!(
        "final epochs {:?} hold {} rows ({} pending)",
        service.epochs(),
        service.len(),
        service.pending_len()
    );
    for shard in 0..service.shard_count() {
        if let Some(lin) = final_view.shard(shard).frozen().groups()[0].models[0].as_linear() {
            println!(
                "shard {shard} refreshed model: y = {:.3}x + {:.1} (margins -{:.1}/+{:.1})",
                lin.params.slope, lin.params.intercept, lin.eps_lb, lin.eps_ub
            );
        }
    }
    assert_eq!(service.len(), stream.rows);
}
