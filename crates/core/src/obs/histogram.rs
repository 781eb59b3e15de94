//! Log-bucketed latency histogram: lock-free recording, mergeable
//! snapshots, quantile extraction.
//!
//! The bucket layout is base-2 sub-bucketed (HdrHistogram-style, but
//! dependency-free): values below 64 µs get one exact bucket each, and
//! every power-of-two octave above that is split into 64 linear
//! sub-buckets, so the relative bucket width is 1/64 ≈ 1.6% across the
//! whole 1 µs – 100 s range. Quantiles are therefore exact to within one
//! bucket (≲ 2% relative error), which is the contract the test suite
//! pins against a sorted reference.
//!
//! Recording is at most two `Relaxed` `fetch_add`s, one on the value's
//! bucket and one on the running sum (skipped for a zero value); the
//! count is not a cell of its own but the bucket total, summed at
//! snapshot time. Min and max are updated
//! with `fetch_min`/`fetch_max` only when a relaxed load shows the value
//! would move them — both cells move one way only, so a value the load
//! rules out can never be the extreme, and count, sum, min and max all
//! stay exact. Histograms are monotone accumulators, so no ordering
//! between cells is required and a reader taking a [`HistogramSnapshot`]
//! mid-write sees some valid prefix of the recorded values (never a torn
//! bucket).

use std::sync::atomic::{AtomicU64, Ordering};

/// Values below this many microseconds land in exact one-µs buckets.
const LINEAR_MAX: u64 = 64;
/// log2 of [`LINEAR_MAX`]: the first sub-bucketed octave.
const LINEAR_BITS: u32 = 6;
/// Sub-buckets per octave above the linear range (relative width 1/64).
const SUBBUCKETS: u64 = 64;
/// Highest octave tracked: 2^27 µs ≈ 134 s covers the 1 µs – 100 s spec.
const MAX_EXP: u32 = 27;
/// Total bucket count; the last bucket absorbs any overflow.
const BUCKETS: usize = ((MAX_EXP - LINEAR_BITS + 1) as u64 * SUBBUCKETS) as usize + 1;

/// Maps a microsecond value to its bucket index.
fn bucket_index(us: u64) -> usize {
    if us < LINEAR_MAX {
        return us as usize;
    }
    let exp = 63 - us.leading_zeros();
    if exp > MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = (us >> (exp - LINEAR_BITS)) & (SUBBUCKETS - 1);
    (((exp - LINEAR_BITS) as u64 + 1) * SUBBUCKETS + sub).min(BUCKETS as u64 - 1) as usize
}

/// Lower bound (in µs) of the value range covered by bucket `idx` —
/// the representative reported for quantiles, so a reported quantile is
/// never above the true one and is within one bucket of it.
fn bucket_floor(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUBBUCKETS {
        return idx;
    }
    let exp = (idx / SUBBUCKETS - 1) as u32 + LINEAR_BITS;
    let sub = idx % SUBBUCKETS;
    (SUBBUCKETS + sub) << (exp - LINEAR_BITS)
}

/// A concurrent log-bucketed latency histogram (microsecond domain).
///
/// Cheap to record into from any thread; read via
/// [`LatencyHistogram::snapshot`], which yields a plain-value
/// [`HistogramSnapshot`] supporting merge, delta (`since`) and quantile
/// extraction.
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .field("sum_us", &self.sum.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            buckets: buckets.into_boxed_slice(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation of `us` microseconds.
    pub fn record(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        if us > 0 {
            self.sum.fetch_add(us, Ordering::Relaxed);
        }
        if us < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(us, Ordering::Relaxed);
        }
        if us > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(us, Ordering::Relaxed);
        }
    }

    /// Records a [`std::time::Duration`] (saturating to µs).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Total observations recorded so far (the bucket total).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Copies the current state into a plain-value snapshot; its count
    /// is the sum of the copied buckets, so the two always agree.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> =
            self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned, immutable copy of a histogram's buckets: the unit of
/// merging, delta-taking and quantile extraction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (identity element for [`HistogramSnapshot::merge`]).
    pub fn empty() -> Self {
        Self { buckets: vec![0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Observations in this snapshot.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values, in µs.
    pub fn sum_us(&self) -> u64 {
        self.sum
    }

    /// Mean recorded value in µs (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Adds `other`'s counts into `self` (bucketwise sum).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Bucketwise delta `self − earlier`: the observations recorded
    /// between the two snapshots of one histogram.
    ///
    /// Panics in debug builds if `earlier` is not a prefix of `self`
    /// (counts must be monotone for snapshots of the same histogram).
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        debug_assert!(
            self.count >= earlier.count && self.sum >= earlier.sum,
            "HistogramSnapshot::since: earlier snapshot is not a prefix"
        );
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(&earlier.buckets)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let count = self.count.saturating_sub(earlier.count);
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.saturating_sub(earlier.sum),
            // min/max are not invertible across a delta; keep the
            // conservative envelope of the later snapshot.
            min: if count == 0 { u64::MAX } else { self.min },
            max: if count == 0 { 0 } else { self.max },
        }
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) in µs: the floor of the bucket
    /// holding the `ceil(q · count)`-th observation. Returns 0 when
    /// empty. Within one bucket (≲ 2% relative) of the exact
    /// sorted-reference quantile by construction.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_floor(idx);
            }
        }
        self.max
    }

    /// Condenses the snapshot to the fixed percentile set the export
    /// surfaces (JSON report, Prometheus) publish.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum_us: self.sum,
            min_us: if self.count == 0 { 0 } else { self.min },
            max_us: self.max,
            p50_us: self.quantile(0.50),
            p90_us: self.quantile(0.90),
            p95_us: self.quantile(0.95),
            p99_us: self.quantile(0.99),
            p999_us: self.quantile(0.999),
        }
    }
}

/// Fixed-percentile digest of a histogram, the shape exported to the
/// JSON report and the Prometheus rendering.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Sum of recorded values in µs.
    pub sum_us: u64,
    /// Smallest recorded value in µs (0 when empty).
    pub min_us: u64,
    /// Largest recorded value in µs.
    pub max_us: u64,
    /// Median in µs.
    pub p50_us: u64,
    /// 90th percentile in µs.
    pub p90_us: u64,
    /// 95th percentile in µs.
    pub p95_us: u64,
    /// 99th percentile in µs.
    pub p99_us: u64,
    /// 99.9th percentile in µs.
    pub p999_us: u64,
}

/// Bucket index of `us` — exposed so tests can assert the "within one
/// bucket of exact" quantile contract without duplicating the layout.
pub fn bucket_of(us: u64) -> usize {
    bucket_index(us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_self_consistent() {
        let mut last = 0usize;
        for us in 0..100_000u64 {
            let idx = bucket_index(us);
            assert!(idx >= last, "bucket index regressed at {us}");
            last = idx;
            assert!(bucket_floor(idx) <= us, "floor above value at {us}");
        }
        // Floor of each bucket maps back to that bucket.
        for idx in 0..BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_floor(idx)), idx, "floor/index mismatch at {idx}");
        }
        // Overflow clamps to the last bucket.
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_bucket_width_is_within_two_percent() {
        for idx in SUBBUCKETS as usize..BUCKETS - 1 {
            let lo = bucket_floor(idx);
            let hi = bucket_floor(idx + 1);
            let width = (hi - lo) as f64 / lo as f64;
            assert!(width <= 0.02, "bucket {idx} width {width:.4} over 2% ({lo}..{hi})");
        }
    }

    #[test]
    fn merge_and_since_round_trip() {
        let h = LatencyHistogram::new();
        for us in [1u64, 10, 100, 1_000, 10_000] {
            h.record(us);
        }
        let first = h.snapshot();
        for us in [5u64, 50, 500_000] {
            h.record(us);
        }
        let second = h.snapshot();
        let delta = second.since(&first);
        assert_eq!(delta.count(), 3);
        assert_eq!(delta.sum_us(), 5 + 50 + 500_000);
        let mut merged = first.clone();
        merged.merge(&delta);
        assert_eq!(merged.count(), second.count());
        assert_eq!(merged.sum_us(), second.sum_us());
    }
}
