//! Maintenance decisions: *when* to act and *how much* to pay.
//!
//! Two actions exist, with very different costs. **Fold**
//! ([`IndexHandle::fold`]) merges the overlay's buffered inserts into the
//! partition structures in one pass, touching neither a model nor a
//! directory — cheap, and the right answer when the buffer is merely
//! long. **Refit** ([`IndexHandle::refit`]) refreshes every model from
//! its posterior and the full residuals, then re-splits
//! every row and rebuilds both partitions — expensive, and the only
//! answer when the dependency itself has moved.
//! [`MaintenancePolicy`] maps a [`DriftReport`] to one of them;
//! [`Maintainer`] runs the loop against one shard ([`IndexHandle`]) of
//! the index service.

use super::drift::DriftReport;
use super::handle::IndexHandle;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the maintainer should do right now, cheapest sufficient action
/// wins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MaintenanceAction {
    /// Nothing to do — buffer short, models true.
    #[default]
    None,
    /// Fold the buffer into the structures; keep every model frozen.
    Fold,
    /// Refresh the models from the accumulated evidence, then rebuild.
    Refit,
}

/// Thresholds turning a [`DriftReport`] into a [`MaintenanceAction`].
///
/// Carried inside [`crate::CoaxConfig`] (`maintenance`) so the factory
/// hands out maintained indexes without a second configuration channel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MaintenancePolicy {
    /// Fold once this many rows sit in the handle's overlay: each one is
    /// a linear scan per query ([`ScanStats::scanned_pending`]).
    ///
    /// [`ScanStats::scanned_pending`]: coax_index::ScanStats
    pub max_pending: usize,
    /// Refit once any group's drift score reaches this. The score is the
    /// EWMA of the margin-normalised signed residual: 1.0 means recent
    /// inserts sit a full margin half-width off the line on average.
    pub drift_threshold: f64,
    /// Refit once the recent outlier-routing rate exceeds the build-time
    /// baseline by this much (absolute excess): the margins are in the
    /// wrong place even if no single model shows directional bias.
    pub max_outlier_excess: f64,
    /// Ignore the drift and outlier triggers until this many inserts have
    /// been observed this epoch — EWMAs are meaningless on a handful of
    /// rows.
    pub min_inserts: u64,
    /// EWMA decay per insert for the [`super::DriftMonitor`]
    /// (`1/512` ≈ average over the last ~512 inserts).
    pub ewma_alpha: f64,
}

impl Default for MaintenancePolicy {
    fn default() -> Self {
        Self {
            max_pending: 4096,
            drift_threshold: 0.5,
            max_outlier_excess: 0.2,
            min_inserts: 256,
            ewma_alpha: 1.0 / 512.0,
        }
    }
}

impl MaintenancePolicy {
    /// The cheapest action the report justifies: refit on drifted models
    /// or an outlier-rate blow-up, fold on a long buffer, else nothing.
    pub fn decide(&self, report: &DriftReport) -> MaintenanceAction {
        if report.inserts >= self.min_inserts
            && (report.max_drift_score() >= self.drift_threshold
                || report.outlier_excess() >= self.max_outlier_excess)
        {
            return MaintenanceAction::Refit;
        }
        if report.pending >= self.max_pending {
            return MaintenanceAction::Fold;
        }
        MaintenanceAction::None
    }
}

/// What one [`Maintainer::tick`] saw and did.
#[derive(Clone, Debug)]
pub struct MaintenanceOutcome {
    /// The drift report the decision was based on.
    pub report: DriftReport,
    /// The action taken (never speculative: `Fold`/`Refit` here means the
    /// new epoch is already published).
    pub action: MaintenanceAction,
    /// The epoch counter *after* the tick.
    pub epoch: u64,
}

/// The maintenance loop of one shard: poll the shard's drift monitor,
/// let the policy decide, execute, publish.
///
/// The maintainer owns no state of its own — everything lives in the
/// shard's [`IndexHandle`], so any number of maintainers (or ad-hoc
/// [`IndexHandle::maintain`] calls) can coexist; epoch builds are
/// serialised inside the handle. Take one per shard from
/// [`crate::ShardedHandle::maintainers`] and run each on a dedicated
/// writer thread:
///
/// ```no_run
/// use coax_core::{CoaxConfig, ShardedHandle};
/// use std::sync::atomic::AtomicBool;
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// # let dataset = coax_data::Dataset::new(vec![vec![], vec![]]);
/// let service = ShardedHandle::build(&dataset, &CoaxConfig::default());
/// let stop = Arc::new(AtomicBool::new(false));
/// let workers: Vec<_> = service
///     .maintainers()
///     .into_iter()
///     .map(|maintainer| {
///         let stop = Arc::clone(&stop);
///         std::thread::spawn(move || maintainer.run(&stop, Duration::from_millis(10)))
///     })
///     .collect();
/// // ... readers query `service`, writers insert through it ...
/// stop.store(true, std::sync::atomic::Ordering::Relaxed);
/// for worker in workers {
///     worker.join().unwrap();
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Maintainer {
    handle: Arc<IndexHandle>,
}

impl Maintainer {
    /// A maintainer driving the shard `handle` under its own policy.
    pub fn new(handle: Arc<IndexHandle>) -> Self {
        Self { handle }
    }

    /// One decide-and-execute cycle. Fold/refit block until the new epoch
    /// is published; readers and inserters keep going meanwhile.
    pub fn tick(&self) -> MaintenanceOutcome {
        let report = self.handle.drift_report();
        let action = self.handle.policy().decide(&report);
        self.handle.obs.record_maint_tick(|| format!("action={action:?} {}", report.summary()));
        match action {
            MaintenanceAction::None => {}
            MaintenanceAction::Fold => self.handle.fold(),
            MaintenanceAction::Refit => self.handle.refit(),
        }
        MaintenanceOutcome { report, action, epoch: self.handle.epoch() }
    }

    /// Ticks every `poll` until `stop` is set; returns how many fold and
    /// refit actions were executed.
    pub fn run(&self, stop: &AtomicBool, poll: Duration) -> usize {
        let mut actions = 0;
        while !stop.load(Ordering::Relaxed) {
            if self.tick().action != MaintenanceAction::None {
                actions += 1;
            }
            std::thread::sleep(poll);
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maint::drift::{DriftReport, GroupDrift, ModelDrift};

    fn report(
        inserts: u64,
        pending: usize,
        outlier_rate: f64,
        baseline: f64,
        score: f64,
    ) -> DriftReport {
        DriftReport {
            inserts,
            pending,
            outlier_rate,
            baseline_outlier_rate: baseline,
            groups: vec![GroupDrift {
                predictor: 0,
                models: vec![ModelDrift {
                    predictor: 0,
                    dependent: 1,
                    score,
                    bias: score,
                    magnitude: score,
                }],
            }],
        }
    }

    #[test]
    fn quiet_stream_needs_nothing() {
        let policy = MaintenancePolicy::default();
        assert_eq!(policy.decide(&report(1000, 10, 0.05, 0.05, 0.02)), MaintenanceAction::None);
    }

    #[test]
    fn long_buffer_folds() {
        let policy = MaintenancePolicy { max_pending: 100, ..Default::default() };
        assert_eq!(
            policy.decide(&report(1000, 100, 0.05, 0.05, 0.02)),
            MaintenanceAction::Fold
        );
    }

    #[test]
    fn drift_refits_and_outranks_fold() {
        let policy = MaintenancePolicy { max_pending: 100, ..Default::default() };
        assert_eq!(
            policy.decide(&report(1000, 500, 0.05, 0.05, 0.9)),
            MaintenanceAction::Refit,
            "a drifted model needs a refit even when a fold is also due"
        );
    }

    #[test]
    fn outlier_excess_refits_but_baseline_rate_does_not() {
        let policy = MaintenancePolicy::default();
        // 30 % routing over a 27 % baseline is fine (OSM-style data)…
        assert_eq!(policy.decide(&report(1000, 0, 0.30, 0.27, 0.0)), MaintenanceAction::None);
        // …the same 30 % over a 2 % baseline is a margin failure.
        assert_eq!(policy.decide(&report(1000, 0, 0.30, 0.02, 0.0)), MaintenanceAction::Refit);
    }

    #[test]
    fn warmup_suppresses_model_triggers_not_fold() {
        let policy =
            MaintenancePolicy { max_pending: 50, min_inserts: 256, ..Default::default() };
        // Huge score on 10 inserts: noise, not drift.
        assert_eq!(policy.decide(&report(10, 10, 0.9, 0.0, 5.0)), MaintenanceAction::None);
        // The fold trigger is about buffer length, not statistics.
        assert_eq!(policy.decide(&report(10, 50, 0.9, 0.0, 5.0)), MaintenanceAction::Fold);
    }
}
