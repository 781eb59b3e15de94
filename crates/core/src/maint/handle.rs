//! The epoch-swapped shard: reads concurrent with writes.
//!
//! A [`CoaxIndex`] is a frozen epoch: it has no write path, so it can be
//! shared freely but never absorbs a row. [`IndexHandle`] is one shard of
//! the index service ([`crate::ShardedHandle`]), and gives its epoch a
//! write path with an epoch scheme:
//!
//! ```text
//!             readers                         writer thread
//!        ┌──────────────┐                  ┌───────────────────┐
//!        │ read-lock,   │   RwLock<Epoch>  │ snapshot epoch +  │
//!        │ scan overlay,│ ───────────────▶ │ overlay prefix,   │
//!        │ clone Arc,   │   epoch: u64     │ fold/refit OUTSIDE│
//!        │ unlock, then │   index: Arc<…>  │ any lock, then    │
//!        │ probe epoch  │   overlay: Vec<…>│ write-lock & swap │
//!        └──────────────┘                  └───────────────────┘
//! ```
//!
//! * The **epoch** is a frozen `Arc<CoaxIndex>`. Readers take the read
//!   lock just long enough to scan the overlay and clone the `Arc`; the
//!   actual index probe runs with no lock held at all.
//! * The **overlay** buffers rows inserted since the epoch was built —
//!   the one insert buffer (each row margin-checked against the epoch's
//!   models on the way in, so folding needs no second pass). One read
//!   guard covers both the overlay scan and the `Arc` clone, so every
//!   query sees a consistent prefix of the insert history — never a torn
//!   epoch.
//! * **Maintenance** (fold or refit) snapshots the epoch and the overlay
//!   prefix, builds the successor index with **no lock held**, then takes
//!   the write lock only for the pointer swap and overlay drain. Rows
//!   inserted while the build ran simply stay in the overlay, re-routed
//!   against the new epoch's models at publish.
//!
//! The service builds every handle, validates and routes each insert to
//! one, and draws the row's id. Deciding *when* a shard folds or refits
//! is [`super::MaintenancePolicy`]'s job, fed by the
//! [`super::DriftMonitor`] the handle advances on every insert;
//! [`super::Maintainer`] runs that loop against one shard.

use super::drift::{DriftMonitor, DriftReport};
use super::policy::{MaintenanceAction, MaintenancePolicy};
use crate::index::{CoaxConfig, CoaxIndex, InsertError, PendingRow};
use crate::obs::{Obs, QueryPhase, QuerySpan};
use crate::regression::BayesianLinReg;
use coax_data::{RangeQuery, RowId, Value};
use coax_index::{MultidimIndex, ScanStats};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Acquires a read guard, propagating a poisoned-lock panic.
///
/// A poisoned lock means a writer panicked while mutating epoch state;
/// continuing would let readers observe a torn epoch/overlay pair, so
/// propagating the panic is the only sound option. Centralised here so
/// the panic-free audit has exactly three named exemptions.
fn read_guard<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    // coax-analyze: allow(panic-free-library, poisoned state lock: a writer panicked mid-update, serving torn epoch state would be worse)
    lock.read().expect("state lock poisoned")
}

/// Acquires a write guard; same poisoning rationale as [`read_guard`].
fn write_guard<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    // coax-analyze: allow(panic-free-library, poisoned state lock: a writer panicked mid-update, serving torn epoch state would be worse)
    lock.write().expect("state lock poisoned")
}

/// Acquires a mutex guard; same poisoning rationale as [`read_guard`].
fn lock_guard<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    // coax-analyze: allow(panic-free-library, poisoned insert/maint lock: the holder panicked mid-update, continuing would corrupt bookkeeping)
    lock.lock().expect("lock poisoned")
}

/// The reader-visible state: epoch pointer + insert overlay (the rows
/// buffered since the epoch was published), guarded together so the
/// pair can never tear.
///
/// The overlay is held behind an `Arc` so a [`ReadSnapshot`] freezes it
/// by cloning the pointer, not the rows; the insert path mutates it
/// through [`Arc::make_mut`], which is in-place while no snapshot is
/// live and copies-on-write (preserving every open snapshot's view)
/// while one is.
#[derive(Debug)]
struct EpochState {
    epoch: u64,
    index: Arc<CoaxIndex>,
    overlay: Arc<Vec<PendingRow>>,
}

/// Write-side bookkeeping, touched briefly per insert: the Bayesian
/// posteriors and the drift monitor, both tracking the models of the
/// *current* epoch (`models` is swapped at publish under this same lock,
/// so an insert can never check against a stale epoch).
#[derive(Debug)]
struct InsertState {
    models: Arc<CoaxIndex>,
    posteriors: Vec<Option<BayesianLinReg>>,
    monitor: DriftMonitor,
}

impl InsertState {
    /// Routes `row` against the current models: the drift monitor's
    /// margin verdict, and — inside the margins — one observation per
    /// linear model's posterior. Returns the verdict.
    fn observe(&mut self, row: &[Value]) -> bool {
        let in_margins = self.monitor.observe(row);
        if in_margins {
            for (m, reg) in self.models.discovery.all_models().zip(&mut self.posteriors) {
                if let Some(reg) = reg {
                    reg.observe(row[m.predictor()], row[m.dependent()]);
                }
            }
        }
        in_margins
    }
}

/// One shard of the index service ([`crate::ShardedHandle`]): a
/// live-maintained COAX epoch with concurrent readers, buffered inserts,
/// and fold/refit that swaps epochs under readers' feet without ever
/// tearing a result.
///
/// Only the service builds handles and inserts into them; reach one
/// through [`crate::ShardedHandle::shard_handle`] to maintain or inspect
/// that shard.
#[derive(Debug)]
pub struct IndexHandle {
    config: CoaxConfig,
    state: RwLock<EpochState>,
    insert: Mutex<InsertState>,
    /// Serialises epoch builds (fold/refit); never held by readers or
    /// inserters.
    maint: Mutex<()>,
    /// Recorder for the handle's write path and epoch lifecycle; the
    /// epoch indexes carry their own clone for the query path.
    pub(crate) obs: Obs,
}

impl IndexHandle {
    /// Wraps an already-built index. The maintenance policy is taken from
    /// the index's own [`CoaxConfig::maintenance`].
    pub(crate) fn new(index: CoaxIndex) -> Self {
        let config = index.config().clone();
        let monitor = DriftMonitor::new(&index, config.maintenance.ewma_alpha);
        let posteriors = index.posteriors.clone();
        let index = Arc::new(index);
        let obs = Obs::new(&config.obs);
        obs.set_overlay_rows(0);
        Self {
            config,
            state: RwLock::new(EpochState {
                epoch: 0,
                index: Arc::clone(&index),
                overlay: Arc::new(Vec::new()),
            }),
            insert: Mutex::new(InsertState { models: index, posteriors, monitor }),
            maint: Mutex::new(()),
            obs,
        }
    }

    /// The maintenance policy in force (from the build config).
    pub fn policy(&self) -> &MaintenancePolicy {
        &self.config.maintenance
    }

    /// The current epoch counter (bumped by every fold/refit publish).
    pub fn epoch(&self) -> u64 {
        read_guard(&self.state).epoch
    }

    /// Captures this shard for a read session: one consistent
    /// [`ReadSnapshot`] taken under a single read guard — the epoch `Arc`
    /// and the frozen overlay view are cloned together, so they can never
    /// tear, and stay put however many inserts, folds, or refits publish
    /// concurrently.
    pub(crate) fn snapshot(&self) -> ReadSnapshot {
        let st = read_guard(&self.state);
        ReadSnapshot {
            epoch: st.epoch,
            index: Arc::clone(&st.index),
            overlay: Arc::clone(&st.overlay),
        }
    }

    /// Rows buffered in the overlay, not yet folded into the epoch. This
    /// is the count the policy's fold trigger watches.
    pub fn pending_len(&self) -> usize {
        read_guard(&self.state).overlay.len()
    }

    /// Inserts a row the service validated, under the id `alloc` draws:
    /// margin-checked against the current epoch's models, observed by the
    /// drift monitor and the Bayesian posteriors, and buffered in the
    /// overlay — visible to every query that starts after this call
    /// returns. `alloc` runs under the insert lock and the overlay is
    /// pushed under the same lock, so the overlay's ids ascend in
    /// allocation order. A refused allocation leaves the handle
    /// untouched.
    pub(crate) fn insert_with(
        &self,
        row: &[Value],
        alloc: impl FnOnce() -> Result<RowId, InsertError>,
    ) -> Result<RowId, InsertError> {
        let timer = self.obs.timer();
        let mut guard = lock_guard(&self.insert);
        let id = alloc()?;
        let in_margins = guard.observe(row);
        // Publish to readers while still holding the insert lock: ids
        // enter the overlay in allocation order, so a reader's snapshot
        // is always a contiguous prefix of the insert history. The
        // copy-on-write `make_mut` leaves every open ReadSnapshot's
        // frozen overlay untouched.
        let mut st = write_guard(&self.state);
        let cow_len = (Arc::strong_count(&st.overlay) > 1).then(|| st.overlay.len());
        Arc::make_mut(&mut st.overlay).push(PendingRow {
            id,
            values: row.to_vec(),
            in_margins,
        });
        let overlay_rows = st.overlay.len();
        drop(st);
        drop(guard);
        // Record only after both guards drop: lock hold time must not
        // grow with the observability layer (enforced by `guard-scope`).
        if let Some(len) = cow_len {
            // A live ReadSnapshot pinned the overlay: that push cloned it.
            self.obs.record_overlay_cow(len);
        }
        self.obs.set_overlay_rows(overlay_rows);
        self.obs.record_insert(timer, in_margins);
        Ok(id)
    }

    /// The drift monitor's current view of the insert stream.
    pub fn drift_report(&self) -> DriftReport {
        let ins = lock_guard(&self.insert);
        ins.monitor.report(self.pending_len())
    }

    /// Decides via the policy and executes: the ad-hoc equivalent of one
    /// [`super::Maintainer::tick`]. Returns the action performed.
    pub fn maintain(&self) -> MaintenanceAction {
        let action = self.policy().decide(&self.drift_report());
        match action {
            MaintenanceAction::None => {}
            MaintenanceAction::Fold => self.fold(),
            MaintenanceAction::Refit => self.refit(),
        }
        action
    }

    /// Folds the overlay rows into the partition structures with the
    /// models and the directories frozen, and publishes the result as the
    /// next epoch: each partition absorbs its rows in one merge pass, and
    /// is rebuilt only when its backend cannot absorb or the adaptive
    /// outlier grid steps its resolution.
    pub fn fold(&self) {
        self.run_maintenance(false);
    }

    /// Refreshes every model from its posterior (new line) and the full
    /// residuals of epoch + overlay (new margins), re-splits every row,
    /// rebuilds both partitions, and publishes the result as the next
    /// epoch.
    pub fn refit(&self) {
        self.run_maintenance(true);
    }

    /// The epoch-swap sequence: snapshot under brief locks, build with no
    /// lock held, publish under the write lock, re-route the overlay rows
    /// that arrived mid-build.
    fn run_maintenance(&self, refit: bool) {
        let _serialise = lock_guard(&self.maint);

        // --- 1. snapshot ------------------------------------------------
        let (base, overlay_snapshot, posteriors) = {
            let ins = lock_guard(&self.insert);
            let st = read_guard(&self.state);
            (Arc::clone(&st.index), st.overlay.clone(), ins.posteriors.clone())
        };
        let folded = overlay_snapshot.len();
        let timer = self.obs.timer();

        // --- 2. build the successor from the overlay rows, no lock held --
        let successor = Arc::new(if refit {
            base.refit(&overlay_snapshot, &posteriors)
        } else {
            base.fold(&overlay_snapshot, posteriors)
        });

        // --- 3. publish -------------------------------------------------
        let mut ins = lock_guard(&self.insert);
        let mut st = write_guard(&self.state);
        st.index = Arc::clone(&successor);
        st.epoch += 1;
        Arc::make_mut(&mut st.overlay).drain(..folded);
        ins.models = Arc::clone(&successor);
        if refit {
            // The refit moved the models: the surviving overlay rows'
            // margin verdicts and the posteriors' extra observations were
            // made against the *old* models, so rebuild the write-side
            // state from the successor and replay the survivors. The
            // monitor resets too — drift was just corrected, and the new
            // models set a new baseline.
            ins.posteriors = successor.posteriors.clone();
            ins.monitor = DriftMonitor::new(&successor, self.config.maintenance.ewma_alpha);
            for row in Arc::make_mut(&mut st.overlay).iter_mut() {
                row.in_margins = ins.observe(&row.values);
            }
        }
        // After a fold the models are identical, so everything write-side
        // stays valid as it stands: the surviving overlay verdicts, the
        // posteriors (which kept accumulating through the build), and —
        // critically — the drift monitor. Resetting the monitor on fold
        // would discard the very evidence the refit trigger needs (a
        // `max_pending` below `min_inserts` could then fold forever while
        // the models drift unchecked) and would bake routed drift rows
        // into the outlier-rate baseline.
        let (new_epoch, survivors) = (st.epoch, st.overlay.len());
        drop(st);
        drop(ins);
        // The publish is complete and visible; recording happens outside
        // every guard, including the maintenance serialisation lock (the
        // epoch number in the journal line keeps attribution exact even
        // if a concurrent tick starts before the write lands).
        drop(_serialise);
        self.obs.set_overlay_rows(survivors);
        self.obs.record_epoch_publish(new_epoch, refit, timer, || {
            let action = if refit { "refit" } else { "fold" };
            format!(
                "epoch={new_epoch} action={action} folded={folded} overlay_after={survivors}"
            )
        });
    }

    /// Rows the shard serves: the epoch's plus the overlay's.
    pub fn len(&self) -> usize {
        let st = read_guard(&self.state);
        st.index.len() + st.overlay.len()
    }

    /// Whether the shard serves no row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shard's live one-query read: the overlay is scanned under the
    /// read guard (the overlay `Arc` is never retained, so concurrent
    /// inserts keep their in-place `make_mut` fast path) and the epoch
    /// `Arc` is cloned for the lock-free probe — exactly what a
    /// [`ReadSnapshot`] would answer, without making every query trigger
    /// copy-on-write for the writer. Overlay rows are charged to
    /// [`ScanStats::scanned_pending`].
    pub fn range_query_stats(&self, query: &RangeQuery, out: &mut Vec<RowId>) -> ScanStats {
        let span = self.obs.query_span();
        let (index, overlay) = {
            let st = read_guard(&self.state);
            (Arc::clone(&st.index), scan_overlay(&st.overlay, query, out))
        };
        query_epoch(&index, span, overlay, query, out)
    }
}

/// One shard's frozen view inside a [`crate::ShardedSnapshot`]: the
/// epoch index plus the overlay view that was current when the session
/// captured the shard, both cloned under a single read guard.
///
/// The epoch `Arc` pins the structures and the overlay `Arc` pins the
/// buffered rows (inserts copy-on-write around open snapshots), so the
/// view stays put while inserts keep landing and fold/refit keep
/// publishing new epochs on the live shard. The cost is paid by the
/// holder and the writer: the epoch's memory stays alive for the
/// session's lifetime, and while a session is open each concurrent
/// insert's `make_mut` copies the overlay (bounded by the maintenance
/// policy's pending cap) instead of pushing in place — sessions are
/// meant to be opened, used, and dropped, not parked. A shard's live
/// read scans the overlay under the read guard without retaining it, so
/// plain reads never trigger that copy.
#[derive(Clone, Debug)]
pub struct ReadSnapshot {
    epoch: u64,
    index: Arc<CoaxIndex>,
    overlay: Arc<Vec<PendingRow>>,
}

/// Appends the overlay rows matching `query` to `out` — the one overlay
/// scan every read path runs before the epoch's, so their results agree
/// id for id. Every overlay row is charged to
/// [`ScanStats::scanned_pending`].
fn scan_overlay(overlay: &[PendingRow], query: &RangeQuery, out: &mut Vec<RowId>) -> ScanStats {
    let start = out.len();
    out.extend(overlay.iter().filter(|r| query.matches(&r.values)).map(|r| r.id));
    ScanStats {
        scanned_pending: overlay.len(),
        matches: out.len() - start,
        ..ScanStats::default()
    }
}

/// The epoch half of a one-query read whose `overlay` was just scanned
/// under `span`: marks the overlay scan if the overlay held rows,
/// translates and executes against `index`, adds the overlay's stats,
/// and finishes the span with the stats the caller receives.
fn query_epoch(
    index: &CoaxIndex,
    mut span: QuerySpan<'_>,
    overlay: ScanStats,
    query: &RangeQuery,
    out: &mut Vec<RowId>,
) -> ScanStats {
    if overlay.scanned_pending > 0 {
        span.phase(QueryPhase::PendingScan);
    }
    let stats =
        overlay.merge(crate::exec::execute_query(index, query, out, &mut span).flatten());
    span.finish(&stats);
    stats
}

impl ReadSnapshot {
    /// The epoch this view reads (as [`IndexHandle::epoch`] reported
    /// when the shard was captured).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen epoch index, for model/structure inspection
    /// (`groups()`, `primary_ratio()`, …). Rows in the view's overlay are
    /// **not** in it — query through the [`crate::ShardedSnapshot`] for
    /// full results.
    pub fn frozen(&self) -> &CoaxIndex {
        &self.index
    }

    /// Rows in the view's frozen overlay, i.e. everything its queries
    /// charge to [`ScanStats::scanned_pending`].
    pub fn pending_len(&self) -> usize {
        self.overlay.len()
    }

    /// Rows of this view whose ids lie below `cut`. The overlay's ids
    /// ascend, so its share is one binary search; the epoch counts whole
    /// unless it may hold an id at or above the cut (a fold published a
    /// row whose insert had not yet passed the cut), and is then counted
    /// entry by entry.
    pub(crate) fn len_below(&self, cut: u64) -> usize {
        let below = |id: RowId| u64::from(id) < cut;
        let epoch = if self.index.next_id <= cut {
            self.index.len()
        } else {
            let mut n = 0;
            self.index.for_each_entry(&mut |id, _| n += usize::from(below(id)));
            n
        };
        epoch + self.overlay.partition_point(|r| below(r.id))
    }

    /// One query against this view under its own span: the overlay scan,
    /// then the frozen epoch's exec sequence — lock-free, since the view
    /// owns both `Arc`s.
    pub(crate) fn range_query_stats(
        &self,
        query: &RangeQuery,
        out: &mut Vec<RowId>,
    ) -> ScanStats {
        let span = self.index.obs.query_span();
        let overlay = scan_overlay(&self.overlay, query, out);
        query_epoch(&self.index, span, overlay, query, out)
    }

    /// The overlay rows matching `query`, appended to `out`: the chunk a
    /// cursor yields for this view before the epoch's plan cursor.
    pub(crate) fn overlay_chunk(&self, query: &RangeQuery, out: &mut Vec<RowId>) -> ScanStats {
        scan_overlay(&self.overlay, query, out)
    }

    /// Answers one query of a batch with no per-query span: the overlay
    /// matches, then the epoch's plan — the ids, order and stats
    /// [`ReadSnapshot::range_query_stats`] returns, appended to `out`.
    pub(crate) fn answer_batched(&self, query: &RangeQuery, out: &mut Vec<RowId>) -> ScanStats {
        let overlay = scan_overlay(&self.overlay, query, out);
        overlay.merge(crate::exec::answer_batched(&self.index, query, out))
    }

    /// Every row of this view: the epoch's entries, then the overlay's.
    pub(crate) fn for_each_entry(&self, f: &mut dyn FnMut(RowId, &[Value])) {
        self.index.for_each_entry(f);
        for r in self.overlay.iter() {
            f(r.id, &r.values);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedHandle;
    use coax_data::synth::{Generator, LinearPairConfig};
    use coax_data::Dataset;
    use coax_index::FullScan;

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

    /// The shard's live read of `query`.
    fn live(handle: &IndexHandle, query: &RangeQuery) -> Vec<RowId> {
        let mut out = Vec::new();
        handle.range_query_stats(query, &mut out);
        out
    }

    #[test]
    fn handle_queries_match_bare_index() {
        let ds = planted(6000, 1);
        let service = ShardedHandle::build(&ds, &CoaxConfig::default());
        let handle = service.shard_handle(0);
        let bare = CoaxIndex::build(&ds, &CoaxConfig::default());
        let mut q = RangeQuery::unbounded(2);
        q.constrain(1, 500.0, 700.0);
        assert_eq!(sorted(live(handle, &q)), sorted(bare.range_query(&q)));
        assert_eq!(handle.len(), bare.len());
        assert_eq!(handle.epoch(), 0);
    }

    #[test]
    fn inserts_are_visible_immediately_and_after_each_maintenance() {
        let ds = planted(5000, 2);
        let service = ShardedHandle::build(&ds, &CoaxConfig::default());
        let handle = service.shard_handle(0);
        let row = vec![123.0, 2.0 * 123.0 + 10.0];
        let id = service.insert(&row).unwrap();
        assert_eq!(id as usize, ds.len());
        let probe = RangeQuery::point(&row);
        assert!(live(handle, &probe).contains(&id), "visible pre-maintenance");

        handle.fold();
        assert_eq!(handle.epoch(), 1);
        assert_eq!(handle.pending_len(), 0);
        assert!(live(handle, &probe).contains(&id), "visible post-fold");

        handle.refit();
        assert_eq!(handle.epoch(), 2);
        assert!(live(handle, &probe).contains(&id), "visible post-refit");
        assert_eq!(handle.len(), ds.len() + 1);
    }

    #[test]
    fn fold_and_refit_agree_with_full_scan() {
        let ds = planted(4000, 3);
        let service = ShardedHandle::build(&ds, &CoaxConfig::default());
        let handle = service.shard_handle(0);
        let mut rows: Vec<Vec<f64>> = (0..ds.len() as RowId).map(|r| ds.row(r)).collect();
        for i in 0..300 {
            let x = (i as f64 * 13.7) % 1000.0;
            let y = if i % 9 == 0 { 2.0 * x + 900.0 } else { 2.0 * x + 10.0 };
            service.insert(&[x, y]).unwrap();
            rows.push(vec![x, y]);
        }
        let logical = Dataset::new(
            (0..2).map(|d| rows.iter().map(|r| r[d]).collect()).collect::<Vec<_>>(),
        );
        let fs = FullScan::build(&logical);
        let queries: Vec<RangeQuery> = (0..10)
            .map(|i| {
                let x0 = i as f64 * 90.0;
                let mut q = RangeQuery::unbounded(2);
                q.constrain(0, x0, x0 + 70.0);
                q
            })
            .collect();
        for (label, action) in
            [("fold", IndexHandle::fold as fn(&IndexHandle)), ("refit", IndexHandle::refit)]
        {
            action(handle);
            for q in &queries {
                assert_eq!(
                    sorted(live(handle, q)),
                    sorted(fs.range_query(q)),
                    "{label} diverged on {q:?}"
                );
            }
        }
    }

    #[test]
    fn overlay_scan_is_charged_to_scanned_pending() {
        let ds = planted(3000, 4);
        let service = ShardedHandle::build(&ds, &CoaxConfig::default());
        let handle = service.shard_handle(0);
        for i in 0..50 {
            let x = i as f64 * 2.0;
            service.insert(&[x, 2.0 * x + 10.0]).unwrap();
        }
        let mut out = Vec::new();
        let stats = handle.range_query_stats(&RangeQuery::unbounded(2), &mut out);
        assert_eq!(stats.scanned_pending, 50);
        assert_eq!(stats.matches, out.len());
        // Folding clears the charge.
        handle.fold();
        let mut out = Vec::new();
        let stats = handle.range_query_stats(&RangeQuery::unbounded(2), &mut out);
        assert_eq!(stats.scanned_pending, 0);
        assert_eq!(out.len(), 3050);
    }

    #[test]
    fn maintain_follows_the_policy_fold_trigger() {
        let ds = planted(3000, 5);
        let config = CoaxConfig {
            maintenance: MaintenancePolicy { max_pending: 32, ..Default::default() },
            ..Default::default()
        };
        let service = ShardedHandle::build(&ds, &config);
        let handle = service.shard_handle(0);
        for i in 0..31 {
            let x = i as f64;
            service.insert(&[x, 2.0 * x + 10.0]).unwrap();
        }
        assert_eq!(handle.maintain(), MaintenanceAction::None);
        service.insert(&[31.0, 72.0]).unwrap();
        assert_eq!(handle.maintain(), MaintenanceAction::Fold);
        assert_eq!(handle.epoch(), 1);
        assert_eq!(handle.pending_len(), 0);
    }

    #[test]
    fn folds_do_not_discard_drift_evidence() {
        // Regression: a fold leaves the models untouched, so it must also
        // leave the drift monitor's evidence intact. With max_pending <
        // min_inserts, a monitor reset on every fold would keep
        // `report.inserts` below the warm-up forever and the refit
        // trigger could never fire, however hard the stream drifts.
        let ds = planted(4000, 8);
        let config = CoaxConfig {
            maintenance: MaintenancePolicy {
                max_pending: 64,
                min_inserts: 256,
                drift_threshold: 0.5,
                ewma_alpha: 1.0 / 64.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let service = ShardedHandle::build(&ds, &config);
        let handle = service.shard_handle(0);
        let model = service.snapshot().shard(0).frozen().groups()[0].models[0].clone();
        let mut folds = 0;
        let mut refit_at = None;
        for i in 0..600 {
            let x = (i as f64 * 7.3) % 1000.0;
            // Persistently biased but in-margin: pure drift, no outliers.
            let y = model.predict(x) + 0.8 * model.margin_width() / 2.0;
            service.insert(&[x, y]).unwrap();
            match handle.maintain() {
                MaintenanceAction::None => {}
                MaintenanceAction::Fold => folds += 1,
                MaintenanceAction::Refit => {
                    refit_at = Some(i);
                    break;
                }
            }
        }
        assert!(folds >= 2, "the small fold trigger must have fired, got {folds}");
        let refit_at = refit_at.expect("drift must eventually out-rank the folds");
        // Insert index 255 is the 256th insert — the earliest the warm-up
        // admits (the drift score crossed 0.5 long before).
        assert!(
            (255..400).contains(&refit_at),
            "refit should fire once warm-up and score are both met, fired at {refit_at}"
        );
    }

    #[test]
    fn batch_query_sees_one_snapshot() {
        let ds = planted(2000, 7);
        let service = ShardedHandle::build(&ds, &CoaxConfig::default());
        service.insert(&[500.0, 1010.0]).unwrap();
        let queries = vec![RangeQuery::unbounded(2); 3];
        let results = service.batch_query(&queries);
        for r in &results {
            assert_eq!(r.ids.len(), 2001);
            assert_eq!(r.stats.scanned_pending, 1);
        }
    }
}
