//! The end-to-end pass: what a user of the service sees, timed with the
//! benchmark's own clock around each public call.

use crate::inputs::{ingest_window, Inputs, Sizes, Workload};
use crate::util::{concat, digest, median, quantile, same_ids, sorted, Oracle, Tally};
use crate::writer::{open_loop, write_rows, Maint, WriteLog};
use crate::{service_config, Options};
use coax_core::{ObsConfig, ShardedHandle};
use coax_data::{RangeQuery, RowId};
use coax_index::{MultidimIndex, ScanStats};
use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

type Digest = (usize, u64, u64);

/// Builds the service `reps` times from the in-memory rows; returns the
/// last build and the median build time in seconds.
pub fn setup(inputs: &Inputs, reps: usize) -> (ShardedHandle, f64) {
    let config = service_config(ObsConfig::default());
    let mut times = Vec::with_capacity(reps);
    let mut service = None;
    for _ in 0..reps.max(1) {
        drop(service.take());
        let t = Instant::now();
        let built = ShardedHandle::build(&inputs.base, &config);
        times.push(t.elapsed().as_secs_f64());
        service = Some(built);
    }
    (service.expect("at least one build"), median(&times))
}

/// Checks every pool query against the oracle (sorted ids equal) and
/// returns the expected answers' digests. `corrupt` drops one id from
/// the first answer before the comparison (self-test hook).
pub fn gate(
    service: &dyn MultidimIndex,
    oracle: &Oracle,
    pool: &[RangeQuery],
    corrupt: bool,
    tally: &mut Tally,
) -> Vec<Digest> {
    pool.iter()
        .enumerate()
        .map(|(i, q)| {
            let expected = oracle.answer(q);
            let mut got = Vec::new();
            service.range_query_stats(q, &mut got);
            if corrupt && i == 0 {
                got.pop();
            }
            tally.record(same_ids(got, &expected));
            digest(&expected)
        })
        .collect()
}

/// One client, closed loop over the pool for `budget`: per-query
/// latencies (µs) and the merged scan counters. Each answer's digest is
/// checked after its clock stops.
pub fn closed_loop(
    service: &dyn MultidimIndex,
    pool: &[RangeQuery],
    digests: &[Digest],
    budget: Duration,
    tally: &mut Tally,
) -> (Vec<f64>, ScanStats) {
    let mut lat = Vec::new();
    let mut total = ScanStats::default();
    let mut out: Vec<RowId> = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < budget {
        let k = i % pool.len();
        out.clear();
        let t = Instant::now();
        let stats = service.range_query_stats(black_box(&pool[k]), &mut out);
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        tally.record(digest(black_box(&out)) == digests[k]);
        total = total.merge(stats);
        i += 1;
    }
    (lat, total)
}

/// Fixed-size batches through `snapshot().batch_query` for `budget`,
/// cycling through the pool from batch `*next`; returns the queries
/// answered and the seconds spent inside the calls.
pub fn batch_loop(
    service: &ShardedHandle,
    pool: &[RangeQuery],
    digests: &[Digest],
    batch: usize,
    budget: Duration,
    next: &mut usize,
    tally: &mut Tally,
) -> (usize, f64) {
    let chunks = pool.len().div_ceil(batch);
    let (mut queries, mut secs) = (0usize, 0.0f64);
    let start = Instant::now();
    while start.elapsed() < budget {
        let from = (*next % chunks) * batch;
        let chunk = &pool[from..(from + batch).min(pool.len())];
        let t = Instant::now();
        let results = service.snapshot().batch_query(black_box(chunk));
        secs += t.elapsed().as_secs_f64();
        queries += chunk.len();
        for (k, r) in results.iter().enumerate() {
            tally.record(digest(&r.ids) == digests[from + k]);
        }
        *next += 1;
    }
    (queries, secs)
}

/// Checks the final service against a full scan of every row it holds:
/// each pool query's ids equal the oracle's, each id once.
pub fn final_check(
    service: &ShardedHandle,
    inputs: &Inputs,
    inserted: usize,
    tally: &mut Tally,
) -> Vec<Digest> {
    let rows = concat(&inputs.base, &inputs.extra[..inserted]);
    let oracle = Oracle::new(&rows, &inputs.pool, tally);
    gate(service, &oracle, &inputs.pool, false, tally)
}

/// Query-side figures of one measurement window.
#[derive(Clone, Copy, Debug, Default)]
struct Window {
    p50_us: f64,
    p95_us: f64,
    qps: f64,
    batch_qps: f64,
}

impl Window {
    /// Latency quantiles and queries per second of time inside the calls.
    fn from_latencies(lat_us: &[f64], service_us: f64) -> Window {
        let lat = sorted(lat_us.to_vec());
        Window {
            p50_us: quantile(&lat, 0.5),
            p95_us: quantile(&lat, 0.95),
            qps: lat.len() as f64 / (service_us / 1e6),
            batch_qps: 0.0,
        }
    }
}

/// One figure over all windows of a run: the decile on the better side
/// (lower for a latency, upper for a rate). Interference from outside the
/// benchmark only ever slows a window, so that decile tracks the
/// undisturbed speed, and a change that slows every window still moves
/// it. Open-loop windows differ by design (the service grows and
/// maintenance runs through it), but in the same way on every run, so the
/// decile picks comparable windows there too.
pub fn best_decile(values: &[f64], lower_is_better: bool) -> f64 {
    quantile(&sorted(values.to_vec()), if lower_is_better { 0.1 } else { 0.9 })
}

fn across(windows: &[Window], lower_is_better: bool, f: impl Fn(&Window) -> f64) -> f64 {
    best_decile(&windows.iter().map(f).collect::<Vec<_>>(), lower_is_better)
}

/// Measurement windows per closed-loop run.
const WINDOWS: usize = 32;

/// Open-loop queries per measurement window: one second at 5,000
/// queries/s, which spans five maintenance rounds at 50,000 inserts/s, so
/// every window averages over whole fold cycles (overlay full to empty).
const OPEN_WINDOW: usize = 5000;

fn effectiveness(stats: &ScanStats) -> f64 {
    stats.matches as f64 / stats.total_examined().max(1) as f64
}

pub fn run(
    opts: &Options,
    sizes: &Sizes,
    inputs: &Inputs,
    tally: &mut Tally,
) -> Vec<(&'static str, f64)> {
    let seconds = opts.seconds;
    let pool = &inputs.pool;
    let closed = opts.workload != Workload::IngestDrift;
    // A closed-loop run rebuilds the service once per round below; the
    // open loop measures one build.
    let reps = if closed { 1 } else { sizes.setup_reps };
    let (mut service, first_build_s) = setup(inputs, reps);
    let mut setup_s = vec![first_build_s];
    let oracle = Oracle::new(&inputs.base, pool, tally);
    let digests = gate(&service, &oracle, pool, opts.corrupt, tally);
    drop(oracle);

    let mut windows = Vec::with_capacity(WINDOWS);
    let mut samples = 0;
    let mut next_batch = 0;
    let (stats, insert_rows_per_s) = match opts.workload {
        Workload::RangeAirline | Workload::PointOsm => {
            // Each round builds the service afresh (one set-up sample), runs
            // its share of the windows on that build (each window: single
            // queries, then batches), then inserts the held-back rows with
            // one maintenance call. No single build's memory placement
            // decides the result, and every insert round does the same work.
            let rounds = sizes.setup_reps.max(1);
            let per_round = WINDOWS.div_ceil(rounds);
            let slot = seconds * 0.7 / (rounds * per_round) as f64;
            let mut stats = ScanStats::default();
            let mut writes = WriteLog::default();
            for round in 0..rounds {
                if round > 0 {
                    drop(service);
                    let (built, secs) = setup(inputs, 1);
                    service = built;
                    setup_s.push(secs);
                }
                for _ in 0..per_round {
                    let single = Duration::from_secs_f64(slot * 0.6);
                    let (lat, s) = closed_loop(&service, pool, &digests, single, tally);
                    stats = stats.merge(s);
                    samples += lat.len();
                    let mut w = Window::from_latencies(&lat, lat.iter().sum());
                    let batch = Duration::from_secs_f64(slot * 0.4);
                    let (n, secs) = batch_loop(
                        &service,
                        pool,
                        &digests,
                        sizes.batch,
                        batch,
                        &mut next_batch,
                        tally,
                    );
                    w.batch_qps = n as f64 / secs;
                    windows.push(w);
                }
                let log = write_rows(
                    &service,
                    &inputs.extra,
                    inputs.base.len(),
                    sizes.maintain_every,
                    Maint::All,
                    None,
                    &AtomicBool::new(false),
                    &mut |_| {},
                );
                tally.add(log.tally);
                writes.rounds.extend(log.rounds);
            }
            final_check(&service, inputs, inputs.extra.len(), tally);
            (stats, writes.rows_per_s())
        }
        Workload::IngestDrift => {
            let window = Duration::from_secs_f64(ingest_window(seconds));
            let run = open_loop(
                &service,
                &inputs.base,
                &inputs.extra,
                pool,
                sizes.query_rate,
                sizes.insert_rate,
                sizes.maintain_every,
                Maint::All,
                window,
                tally,
            );
            eprintln!(
                "ingest-drift: {} queries, {:.4} sent late (>{} us behind schedule), {} rows inserted, {} folds, {} refits",
                run.lat_us.len(),
                run.late as f64 / run.lat_us.len().max(1) as f64,
                crate::writer::LATE_US,
                run.write.inserted,
                run.write.fold_ms.len(),
                run.write.refit_ms.len(),
            );
            // Windows by scheduled send time: query i is due at i / rate.
            let per = OPEN_WINDOW.min(run.lat_us.len()).max(1);
            for (lat, svc) in run.lat_us.chunks(per).zip(run.service_us.chunks(per)) {
                windows.push(Window::from_latencies(lat, svc.iter().sum()));
            }
            samples = run.lat_us.len();
            let digests = final_check(&service, inputs, run.write.inserted, tally);
            // Batches against the final service, in windows of their own.
            let slot = Duration::from_secs_f64(seconds * 0.15 / windows.len() as f64);
            for w in windows.iter_mut() {
                let (n, secs) = batch_loop(
                    &service,
                    pool,
                    &digests,
                    sizes.batch,
                    slot,
                    &mut next_batch,
                    tally,
                );
                w.batch_qps = n as f64 / secs;
            }
            (run.stats, run.write.rows_per_s())
        }
    };
    eprintln!(
        "{}: {samples} timed single queries in {} windows",
        opts.workload.name(),
        windows.len()
    );
    vec![
        ("setup_s", median(&setup_s)),
        ("query_p50_us", across(&windows, true, |w| w.p50_us)),
        ("query_p95_us", across(&windows, true, |w| w.p95_us)),
        ("query_qps", across(&windows, false, |w| w.qps)),
        ("batch_qps", across(&windows, false, |w| w.batch_qps)),
        ("insert_rows_per_s", insert_rows_per_s),
        ("index_bytes", service.memory_overhead() as f64),
        ("effectiveness", effectiveness(&stats)),
    ]
}
