//! Query-lifecycle spans: per-phase timing of one shard query (overlay
//! scan → translate → primary probe → outlier probe).
//!
//! A [`QuerySpan`] is handed out by [`crate::obs::Obs::query_span`] at
//! the entry point that first sees the query (the handle, a snapshot, or
//! a bare `CoaxIndex`) and passed `&mut` down through translation and
//! `exec::execute`. The span reads the clock once at its start and once
//! at the end of each phase that ran: [`QuerySpan::phase`] adds the slice
//! since the previous mark to that phase's running total. A phase that
//! did no work — an empty overlay, a point plan that needs no
//! translation, a probe the plan skipped — is never marked, so it reads
//! no clock and records no sample, and its time (if any) counts toward
//! the next phase that runs. Nothing is recorded until
//! [`QuerySpan::finish`], which records each marked phase's histogram
//! once, the end-to-end latency (start to the last mark; finishing reads
//! the clock only when no phase ran) and the query's [`ScanStats`] into
//! the per-query counters.
//!
//! A query therefore reads the clock at most five times: once plus once
//! per phase that ran. A point query, which probes one partition and
//! translates nothing, reads it twice when its shard's overlay is empty,
//! and three times when it is not. A phase histogram holds one sample
//! per query that ran that phase; `coax.query.count`, the counters and
//! the latency histogram take one record per span. When observability
//! is off the span holds `None` — no clock reads, no atomics, nothing.

use std::time::{Duration, Instant};

use coax_index::ScanStats;

use super::ObsHandles;

/// The phases of one query. The clock marks those that ran in the order
/// pending scan (the overlay), translate, primary probe, outlier probe;
/// a frozen `CoaxIndex` has no overlay and marks no pending scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryPhase {
    /// Soft-FD query translation (Eq. 2): building the `QueryPlan`.
    Translate,
    /// Probing the primary (in-margin) partition.
    PrimaryProbe,
    /// Probing the outlier partition.
    OutlierProbe,
    /// Linear scan of the handle or snapshot overlay.
    PendingScan,
}

impl QueryPhase {
    /// Every phase, indexed by its discriminant.
    const ALL: [QueryPhase; 4] = [
        QueryPhase::Translate,
        QueryPhase::PrimaryProbe,
        QueryPhase::OutlierProbe,
        QueryPhase::PendingScan,
    ];

    /// Stable lowercase tag, matching the metric name suffix.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryPhase::Translate => "translate",
            QueryPhase::PrimaryProbe => "primary_probe",
            QueryPhase::OutlierProbe => "outlier_probe",
            QueryPhase::PendingScan => "pending_scan",
        }
    }
}

/// An in-flight query measurement. Obtained from
/// [`crate::obs::Obs::query_span`], borrowing the recorder's handles; a
/// disabled recorder returns an inert span whose methods compile to a
/// `None` check.
#[derive(Debug)]
pub struct QuerySpan<'a> {
    inner: Option<SpanInner<'a>>,
}

#[derive(Debug)]
struct SpanInner<'a> {
    handles: &'a ObsHandles,
    epoch: u64,
    shard: Option<u32>,
    start: Instant,
    last: Instant,
    /// Accumulated time per phase (indexed like [`QueryPhase::ALL`]);
    /// `None` for a phase never marked, whose histogram is not recorded.
    phases: [Option<Duration>; 4],
}

impl<'a> QuerySpan<'a> {
    /// An inert span (observability off).
    pub(crate) fn disabled() -> Self {
        QuerySpan { inner: None }
    }

    /// A live span starting now, tagged with the publishing `epoch` and
    /// the recorder's `shard` label.
    pub(super) fn started(handles: &'a ObsHandles, epoch: u64, shard: Option<u32>) -> Self {
        let now = Instant::now();
        QuerySpan {
            inner: Some(SpanInner {
                handles,
                epoch,
                shard,
                start: now,
                last: now,
                phases: [None; 4],
            }),
        }
    }

    /// The epoch this query is tagged with (0 when the span is inert or
    /// the index is not behind an epoch-swapped handle).
    pub fn epoch(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.epoch)
    }

    /// The shard this query ran on (`None` when the span is inert or
    /// the index is not a shard of a sharded handle).
    pub fn shard(&self) -> Option<u32> {
        self.inner.as_ref().and_then(|s| s.shard)
    }

    /// Marks the end of `phase`, which did work: one clock read, adding
    /// the slice since the previous mark (or span start) to the phase's
    /// total. Callers do not mark a phase that did no work, so its
    /// slice counts toward the next mark.
    pub fn phase(&mut self, phase: QueryPhase) {
        if let Some(s) = self.inner.as_mut() {
            let now = Instant::now();
            let slot = &mut s.phases[phase as usize];
            *slot = Some(slot.unwrap_or_default() + (now - s.last));
            s.last = now;
        }
    }

    /// Finishes the span: records every marked phase's total, the
    /// end-to-end latency (span start to the last mark, or to now when
    /// no phase was marked) and `stats` — the [`ScanStats`] the entry
    /// point hands its caller — into the per-query counters.
    pub fn finish(self, stats: &ScanStats) {
        if let Some(s) = self.inner {
            let h = s.handles;
            for (phase, total) in QueryPhase::ALL.into_iter().zip(s.phases) {
                if let Some(d) = total {
                    h.phase_histogram(phase).record_duration(d);
                }
            }
            let ran = s.phases.iter().any(Option::is_some);
            let end = if ran { s.last } else { Instant::now() };
            h.query_latency_us.record_duration(end - s.start);
            h.query_count.inc();
            h.query_cells_visited.add(stats.cells_visited as u64);
            h.query_rows_examined.add(stats.rows_examined as u64);
            h.query_scanned_pending.add(stats.scanned_pending as u64);
            h.query_matches.add(stats.matches as u64);
        }
    }
}
