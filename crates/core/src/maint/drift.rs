//! Correlation-drift detection over the insert stream.
//!
//! COAX's effectiveness (Eq. 5) rests on the soft-FD models staying true:
//! a dependency whose slope or intercept drifts after the build pushes new
//! rows out of the frozen margins, inflating the outlier partition and —
//! if the margins are ever widened to chase it — destroying translation's
//! pruning power. Nothing in the query path reports this; it has to be
//! *watched*. [`DriftMonitor`] does the watching: per-model EWMAs of the
//! margin-normalised insert residuals plus an EWMA of the outlier-routing
//! rate, summarised on demand as a [`DriftReport`] that
//! [`super::MaintenancePolicy`] turns into a fold/refit decision. Every
//! shard of the index service ([`crate::ShardedHandle`]) runs its own
//! monitor over the inserts routed to it.

use crate::index::CoaxIndex;
use crate::model::FdModel;
use coax_data::Value;

/// Residuals are normalised by the model's margin half-width before they
/// enter the EWMAs, then clamped to this many half-widths: gross outliers
/// (symmetric, huge) must not dominate the bias estimate, while genuine
/// drift still saturates the score quickly once rows leave the margins.
const NORMALISED_RESIDUAL_CLAMP: Value = 8.0;

/// Tracks one model's insert residuals.
#[derive(Clone, Debug)]
struct ModelTracker {
    /// Frozen copy of the epoch's model — displacement and margin width
    /// must be measured against the models queries actually use.
    model: FdModel,
    /// EWMA of the *signed* margin-normalised residual. Stationary
    /// in-margin noise is symmetric, so this hovers near 0; a drifting
    /// line accumulates bias towards ±[`NORMALISED_RESIDUAL_CLAMP`].
    bias_ewma: Value,
    /// EWMA of the *absolute* margin-normalised residual (observability:
    /// a variance explosion shows here before it biases anything).
    magnitude_ewma: Value,
}

/// Watches the insert stream of one index epoch for correlation drift.
///
/// Create it from the index whose models the inserts are checked against,
/// feed every insert through [`DriftMonitor::observe`], and read the
/// state back as a [`DriftReport`]. A shard ([`super::IndexHandle`]) does
/// all three on every insert routed to it.
#[derive(Clone, Debug)]
pub struct DriftMonitor {
    /// EWMA decay per observation.
    alpha: Value,
    inserts: u64,
    /// EWMA of the out-of-margins indicator over inserts.
    outlier_ewma: Value,
    /// Outlier fraction of the build the models came from.
    baseline_outlier_rate: Value,
    /// Trackers grouped exactly like `discovery.groups`.
    groups: Vec<(usize, Vec<ModelTracker>)>,
}

impl DriftMonitor {
    /// A monitor over `index`'s models with EWMA decay `alpha` per insert
    /// (e.g. `1.0 / 512.0` averages over roughly the last 512 inserts).
    pub fn new(index: &CoaxIndex, alpha: Value) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "EWMA alpha must be in (0, 1]");
        let built = index.primary_len() + index.outlier_len();
        let baseline =
            if built == 0 { 0.0 } else { index.outlier_len() as Value / built as Value };
        let groups = index
            .groups()
            .iter()
            .map(|g| {
                let trackers = g
                    .models
                    .iter()
                    .map(|m| ModelTracker {
                        model: m.clone(),
                        bias_ewma: 0.0,
                        magnitude_ewma: 0.0,
                    })
                    .collect();
                (g.predictor, trackers)
            })
            .collect();
        Self { alpha, inserts: 0, outlier_ewma: 0.0, baseline_outlier_rate: baseline, groups }
    }

    /// Feeds one inserted row through every tracker and returns whether
    /// the row sits inside **all** models' margins — the verdict the
    /// handle routes the row by, so an insert checks margins exactly
    /// once.
    pub fn observe(&mut self, row: &[Value]) -> bool {
        let mut in_margins = true;
        for (_, trackers) in &mut self.groups {
            for t in &mut trackers.iter_mut() {
                let x = row[t.model.predictor()];
                let y = row[t.model.dependent()];
                let half_width = (t.model.margin_width() / 2.0).max(Value::MIN_POSITIVE);
                let z = ((y - t.model.predict(x)) / half_width)
                    .clamp(-NORMALISED_RESIDUAL_CLAMP, NORMALISED_RESIDUAL_CLAMP);
                t.bias_ewma += self.alpha * (z - t.bias_ewma);
                t.magnitude_ewma += self.alpha * (z.abs() - t.magnitude_ewma);
                in_margins &= t.model.contains(x, y);
            }
        }
        let outlier = if in_margins { 0.0 } else { 1.0 };
        self.outlier_ewma += self.alpha * (outlier - self.outlier_ewma);
        self.inserts += 1;
        in_margins
    }

    /// Inserts observed since this monitor (epoch) started.
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Snapshot of the drift state. `pending` is the caller's count of
    /// not-yet-folded rows (the handle passes its overlay length).
    pub fn report(&self, pending: usize) -> DriftReport {
        let groups = self
            .groups
            .iter()
            .map(|(predictor, trackers)| GroupDrift {
                predictor: *predictor,
                models: trackers
                    .iter()
                    .map(|t| ModelDrift {
                        predictor: t.model.predictor(),
                        dependent: t.model.dependent(),
                        score: t.bias_ewma.abs(),
                        bias: t.bias_ewma,
                        magnitude: t.magnitude_ewma,
                    })
                    .collect(),
            })
            .collect();
        DriftReport {
            inserts: self.inserts,
            pending,
            outlier_rate: self.outlier_ewma,
            baseline_outlier_rate: self.baseline_outlier_rate,
            groups,
        }
    }
}

/// Drift state of one model: `score` is the absolute EWMA of the
/// margin-normalised signed residual — ≈0 while the dependency holds,
/// ≈1 once inserts sit a full margin half-width off the line, saturating
/// at the clamp when they leave the margins entirely.
#[derive(Clone, Copy, Debug)]
pub struct ModelDrift {
    /// Predictor attribute of the model.
    pub predictor: usize,
    /// Dependent attribute of the model.
    pub dependent: usize,
    /// `|bias|` — the number the policy thresholds.
    pub score: Value,
    /// Signed normalised-residual EWMA (direction of the drift).
    pub bias: Value,
    /// Absolute normalised-residual EWMA (spread, for observability).
    pub magnitude: Value,
}

/// Drift state of one correlation group.
#[derive(Clone, Debug)]
pub struct GroupDrift {
    /// The group's predictor attribute.
    pub predictor: usize,
    /// Per-model drift, in group model order.
    pub models: Vec<ModelDrift>,
}

impl GroupDrift {
    /// The group's drift score: its worst model.
    pub fn score(&self) -> Value {
        self.models.iter().map(|m| m.score).fold(0.0, Value::max)
    }
}

/// A point-in-time summary of the insert stream's health, produced by
/// [`DriftMonitor::report`] and consumed by
/// [`super::MaintenancePolicy::decide`].
#[derive(Clone, Debug)]
pub struct DriftReport {
    /// Inserts observed this epoch.
    pub inserts: u64,
    /// Rows buffered but not yet folded into the structures.
    pub pending: usize,
    /// EWMA of the out-of-margins routing rate over recent inserts.
    pub outlier_rate: Value,
    /// Outlier fraction of the build the current models came from.
    pub baseline_outlier_rate: Value,
    /// Per-group drift, in discovery group order.
    pub groups: Vec<GroupDrift>,
}

impl DriftReport {
    /// The worst drift score across every group (0.0 when no group
    /// exists — an uncorrelated index cannot drift).
    pub fn max_drift_score(&self) -> Value {
        self.groups.iter().map(GroupDrift::score).fold(0.0, Value::max)
    }

    /// How far the recent outlier-routing rate exceeds the build-time
    /// baseline (clamped at 0 — routing *fewer* outliers is not drift).
    pub fn outlier_excess(&self) -> Value {
        (self.outlier_rate - self.baseline_outlier_rate).max(0.0)
    }

    /// A stable one-line rendering of the report, shared by the event
    /// journal and the `maint` bench's tick log so the two stay
    /// grep-compatible: `inserts=.. pending=.. max_drift=..
    /// outlier_rate=.. baseline=.. excess=..`.
    pub fn summary(&self) -> String {
        format!(
            "inserts={} pending={} max_drift={:.4} outlier_rate={:.4} baseline={:.4} excess={:.4}",
            self.inserts,
            self.pending,
            self.max_drift_score(),
            self.outlier_rate,
            self.baseline_outlier_rate,
            self.outlier_excess(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::CoaxConfig;
    use coax_data::synth::{Generator, LinearPairConfig};

    fn built_index(seed: u64) -> CoaxIndex {
        let ds = LinearPairConfig {
            rows: 8000,
            slope: 2.0,
            intercept: 10.0,
            noise_sigma: 4.0,
            outlier_fraction: 0.05,
            seed,
            ..Default::default()
        }
        .generate();
        CoaxIndex::build(&ds, &CoaxConfig::default())
    }

    #[test]
    fn stationary_stream_scores_near_zero() {
        let index = built_index(1);
        let model = index.groups()[0].models[0].clone();
        let mut mon = DriftMonitor::new(&index, 1.0 / 128.0);
        for i in 0..2000 {
            let x = (i as f64 * 7.3) % 1000.0;
            // Alternate symmetric in-margin noise around the line.
            let y = model.predict(x)
                + if i % 2 == 0 { 0.3 } else { -0.3 } * model.margin_width() / 2.0;
            assert!(mon.observe(&[x, y]));
        }
        let report = mon.report(2000);
        assert_eq!(report.inserts, 2000);
        assert!(report.max_drift_score() < 0.1, "score {}", report.max_drift_score());
        assert!(report.outlier_rate < 1e-6);
        assert!(report.baseline_outlier_rate > 0.0, "planted outliers set a baseline");
    }

    #[test]
    fn sustained_bias_raises_the_score() {
        let index = built_index(2);
        let model = index.groups()[0].models[0].clone();
        let mut mon = DriftMonitor::new(&index, 1.0 / 128.0);
        // Every insert sits 0.8 half-widths above the line — still inside
        // the margins, but clearly biased.
        for i in 0..2000 {
            let x = (i as f64 * 7.3) % 1000.0;
            let y = model.predict(x) + 0.8 * model.margin_width() / 2.0;
            mon.observe(&[x, y]);
        }
        let score = mon.report(0).max_drift_score();
        assert!((score - 0.8).abs() < 0.05, "score {score}");
    }

    #[test]
    fn out_of_margin_drift_saturates_and_raises_outlier_rate() {
        let index = built_index(3);
        let model = index.groups()[0].models[0].clone();
        let mut mon = DriftMonitor::new(&index, 1.0 / 64.0);
        for i in 0..1000 {
            let x = (i as f64 * 3.1) % 1000.0;
            let y = model.predict(x) + 20.0 * model.margin_width();
            assert!(!mon.observe(&[x, y]));
        }
        let report = mon.report(1000);
        assert!(report.max_drift_score() > 6.0, "clamped score {}", report.max_drift_score());
        assert!(report.outlier_rate > 0.9);
        assert!(report.outlier_excess() > 0.8);
    }

    #[test]
    fn symmetric_gross_outliers_do_not_bias_the_score() {
        let index = built_index(4);
        let model = index.groups()[0].models[0].clone();
        let mut mon = DriftMonitor::new(&index, 1.0 / 128.0);
        for i in 0..2000 {
            let x = (i as f64 * 5.7) % 1000.0;
            let side = if i % 2 == 0 { 1.0 } else { -1.0 };
            let y = model.predict(x) + side * 50.0 * model.margin_width();
            mon.observe(&[x, y]);
        }
        let report = mon.report(0);
        // The *rate* alarm fires, but the clamp keeps the symmetric
        // garbage from reading as directional drift.
        assert!(report.outlier_rate > 0.9);
        assert!(report.max_drift_score() < 1.0, "score {}", report.max_drift_score());
    }

    #[test]
    fn uncorrelated_index_reports_zero_drift() {
        use coax_data::synth::UniformConfig;
        let ds = UniformConfig::cube(2, 2000, 5).generate();
        let index = CoaxIndex::build(&ds, &CoaxConfig::default());
        assert!(index.groups().is_empty());
        let mut mon = DriftMonitor::new(&index, 0.01);
        assert!(mon.observe(&[0.5, 0.5]), "no models → everything is in-margin");
        let report = mon.report(1);
        assert_eq!(report.max_drift_score(), 0.0);
        assert_eq!(report.baseline_outlier_rate, 0.0);
    }
}
