//! The write path both passes drive: inserts with maintenance every
//! fixed number of rows, optionally paced to a target rate, and the
//! open-loop ingest run that puts a paced query stream beside them.

use crate::util::Tally;
use coax_core::{MaintenanceAction, ShardedHandle};
use coax_data::{Dataset, RangeQuery, RowId, Value};
use coax_index::{MultidimIndex, ScanStats};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How maintenance is invoked every `maintain_every` inserts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Maint {
    /// `ShardedHandle::maintain_all`, timed as one call (end-to-end).
    All,
    /// Each shard's `IndexHandle::maintain`, timed per shard and filed
    /// under the action it returned (traced pass).
    PerShard,
}

/// What a writer did.
#[derive(Clone, Debug, Default)]
pub struct WriteLog {
    pub inserted: usize,
    /// Seconds spent inside `insert` and maintenance calls.
    pub busy_s: f64,
    pub insert_us: Vec<f64>,
    pub fold_ms: Vec<f64>,
    pub refit_ms: Vec<f64>,
    /// `(rows, busy seconds)` of each completed round: the inserts since
    /// the previous maintenance call plus the call itself.
    pub rounds: Vec<(usize, f64)>,
    pub tally: Tally,
}

impl WriteLog {
    fn file(&mut self, action: MaintenanceAction, ms: f64) {
        match action {
            MaintenanceAction::Fold => self.fold_ms.push(ms),
            MaintenanceAction::Refit => self.refit_ms.push(ms),
            MaintenanceAction::None => {}
        }
    }

    /// Rows per busy second, per completed round, summarised like the
    /// query windows ([`crate::e2e::best_decile`]).
    pub fn rows_per_s(&self) -> f64 {
        let rates: Vec<f64> = self.rounds.iter().map(|&(n, s)| n as f64 / s).collect();
        crate::e2e::best_decile(&rates, false)
    }
}

/// Spins until `due`. The open-loop reader busy-waits instead of
/// sleeping, so an idle gap never lets its core drop its caches and the
/// next send leaves on time.
pub fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Inserts `rows` (global ids continue from `base_len`), running
/// maintenance after every `maintain_every` inserts. With `pace`, row `j`
/// is not sent before `start + j / rate`. Stops early once `stop` is set.
/// `after_insert(j)` runs after each insert, outside the timed calls.
#[allow(clippy::too_many_arguments)]
pub fn write_rows(
    service: &ShardedHandle,
    rows: &[Vec<Value>],
    base_len: usize,
    maintain_every: usize,
    maint: Maint,
    pace: Option<(Instant, f64)>,
    stop: &AtomicBool,
    after_insert: &mut dyn FnMut(usize),
) -> WriteLog {
    let mut log = WriteLog { insert_us: Vec::with_capacity(rows.len()), ..Default::default() };
    let mut round_from = (0usize, 0.0f64);
    for (j, row) in rows.iter().enumerate() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        if let Some((start, rate)) = pace {
            // Rows due by now go out back to back; otherwise sleep until
            // the next one is due. The writer never spins, so its idle
            // time leaves the other core to the reader.
            let due = start + Duration::from_secs_f64(j as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let t = Instant::now();
        let id = service.insert(row);
        let d = t.elapsed();
        log.busy_s += d.as_secs_f64();
        log.insert_us.push(d.as_secs_f64() * 1e6);
        log.tally.record(id == Ok((base_len + j) as RowId));
        log.inserted += 1;
        after_insert(j);
        if (j + 1) % maintain_every == 0 {
            match maint {
                Maint::All => {
                    let t = Instant::now();
                    let actions = service.maintain_all();
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    log.busy_s += ms / 1e3;
                    // One call maintains every shard; split its time evenly
                    // over the actions it took.
                    let acted =
                        actions.iter().filter(|a| **a != MaintenanceAction::None).count();
                    for a in actions {
                        log.file(a, ms / acted.max(1) as f64);
                    }
                }
                Maint::PerShard => {
                    for s in 0..service.shard_count() {
                        let t = Instant::now();
                        let action = service.shard_handle(s).maintain();
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        log.busy_s += ms / 1e3;
                        log.file(action, ms);
                    }
                }
            }
            log.rounds.push((log.inserted - round_from.0, log.busy_s - round_from.1));
            round_from = (log.inserted, log.busy_s);
        }
    }
    log
}

/// `true` when every id in `ids` is distinct and names a row (build row
/// or inserted row) that satisfies `query`. Live reads during ingest are
/// not a consistent cut across shards, so rows may be missing; they may
/// never be wrong or repeated.
pub fn live_answer_ok(
    ids: &[RowId],
    query: &RangeQuery,
    base: &Dataset,
    extra: &[Vec<Value>],
) -> bool {
    let mut seen = ids.to_vec();
    seen.sort_unstable();
    if seen.windows(2).any(|w| w[0] == w[1]) {
        return false;
    }
    ids.iter().all(|&id| {
        let id = id as usize;
        if id < base.len() {
            query.matches_row(base, id as RowId)
        } else {
            extra.get(id - base.len()).is_some_and(|row| query.matches(row))
        }
    })
}

/// The result of an open-loop ingest run.
#[derive(Clone, Debug, Default)]
pub struct OpenLoop {
    /// Per-query latency from its scheduled send to its answer.
    pub lat_us: Vec<f64>,
    /// Sends issued more than [`LATE_US`] after their scheduled time.
    pub late: usize,
    /// Per-query time from the actual send to the answer (µs).
    pub service_us: Vec<f64>,
    /// Merged scan counters of every query.
    pub stats: ScanStats,
    /// Pending (overlay) rows each query scanned.
    pub pending: Vec<usize>,
    pub write: WriteLog,
}

/// A send this far behind its schedule counts as late.
pub const LATE_US: f64 = 100.0;

/// Open loop on two threads for `window`: this thread sends pool queries
/// to the live handle at `query_rate`, timing each from its scheduled
/// send; a writer thread inserts `extra` at `insert_rate` with
/// maintenance every `maintain_every` rows. Live answers are checked for
/// wrong or repeated ids once the window has closed.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    service: &ShardedHandle,
    base: &Dataset,
    extra: &[Vec<Value>],
    pool: &[RangeQuery],
    query_rate: f64,
    insert_rate: f64,
    maintain_every: usize,
    maint: Maint,
    window: Duration,
    tally: &mut Tally,
) -> OpenLoop {
    let stop = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(2);
    let end = start + window;
    let mut run = OpenLoop::default();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            write_rows(
                service,
                extra,
                base.len(),
                maintain_every,
                maint,
                Some((start, insert_rate)),
                &stop,
                &mut |_| {},
            )
        });
        let mut answers: Vec<Vec<RowId>> = Vec::new();
        for i in 0u64.. {
            let due = start + Duration::from_secs_f64(i as f64 / query_rate);
            if due >= end {
                break;
            }
            wait_until(due);
            if due.elapsed().as_secs_f64() * 1e6 > LATE_US {
                run.late += 1;
            }
            let query = &pool[i as usize % pool.len()];
            let sent = Instant::now();
            let mut out = Vec::new();
            let stats = service.range_query_stats(query, &mut out);
            run.lat_us.push(due.elapsed().as_secs_f64() * 1e6);
            run.service_us.push(sent.elapsed().as_secs_f64() * 1e6);
            run.stats = run.stats.merge(stats);
            run.pending.push(stats.scanned_pending);
            answers.push(out);
        }
        stop.store(true, Ordering::Relaxed);
        run.write = writer.join().expect("writer thread panicked");
        // Checked after the window, so the checks never delay a send.
        for (i, ids) in answers.iter().enumerate() {
            tally.record(live_answer_ok(ids, &pool[i % pool.len()], base, extra));
        }
    });
    tally.add(run.write.tally);
    run
}
