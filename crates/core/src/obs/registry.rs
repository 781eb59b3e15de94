//! The process-wide metrics registry: named counters, gauges and
//! latency histograms.
//!
//! Registration happens once per name (re-registering returns a handle
//! to the existing cell, so every shard / `CoaxIndex` built in the
//! process shares one set of cells); the returned handles are
//! cheap `Arc` clones carried into hot paths, where a counter record is
//! at most one atomic add and a histogram record two. Metric names
//! follow the grammar enforced by the `obs-naming` static-analysis
//! rule: lowercase `snake_case` segments joined by dots, at least two
//! segments (`coax.query.latency_us`).
//!
//! Every metric may additionally carry one optional `shard` label
//! ([`MetricsRegistry::counter_shard`] and friends): the index service
//! registers one cell per `(name, shard)` pair so per-shard latency and
//! epoch series stay separable in the export, while the unlabelled
//! series (`shard == None`) is what a bare `CoaxIndex` and an unlabelled
//! service's own batch recorder write.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use super::histogram::{HistogramSummary, LatencyHistogram};
use super::journal::Event;

/// `true` when `name` is a valid metric name: dot-separated
/// `snake_case` namespaces, each segment `[a-z][a-z0-9_]*`, at least
/// two segments.
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut segments = 0;
    for seg in name.split('.') {
        segments += 1;
        let mut chars = seg.chars();
        match chars.next() {
            Some(c) if c.is_ascii_lowercase() => {}
            _ => return false,
        }
        if !chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_') {
            return false;
        }
    }
    segments >= 2
}

/// A monotone counter handle; clone freely, record with
/// [`Counter::add`].
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter (adding zero touches nothing).
    ///
    /// `Release` pairs with the `Acquire` loads of
    /// [`MetricsRegistry::snapshot`]: a snapshot that sees this add also
    /// sees every add the same thread made earlier, to any counter.
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.0.fetch_add(n, Ordering::Release);
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can move both ways (overlay size,
/// current epoch, stream queue depth).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrements by `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        // fetch_update never fails with a `Some`-returning closure; the
        // loop retries on contention only.
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(n)));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// What a registered metric is — drives both export renderings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Point-in-time gauge.
    Gauge,
    /// Log-bucketed latency histogram.
    Histogram,
}

impl MetricKind {
    /// Stable lowercase tag (`counter` / `gauge` / `histogram`).
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug)]
enum MetricCell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<LatencyHistogram>),
}

#[derive(Debug)]
struct MetricEntry {
    name: String,
    shard: Option<u32>,
    cell: MetricCell,
}

/// The registry of named metrics. One process-wide instance lives
/// behind [`MetricsRegistry::global`]; tests may build private ones.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<MetricEntry>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry every [`crate::obs::Obs`] records into.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<MetricEntry>> {
        // Registry state is append-only plain data; recover on poison.
        self.entries.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Registers (or re-opens) the counter `name` and returns a handle.
    pub fn counter(&self, name: &str) -> Counter {
        // coax-analyze: allow(obs-naming, in-registry delegation: the caller's literal name was already checked at its own call site)
        self.counter_shard(name, None)
    }

    /// Registers (or re-opens) the counter `name` labelled with `shard`
    /// (`None` is the unlabelled process-wide series, the same cell
    /// [`MetricsRegistry::counter`] returns).
    pub fn counter_shard(&self, name: &str, shard: Option<u32>) -> Counter {
        debug_assert!(is_valid_metric_name(name), "invalid metric name: {name}");
        let mut entries = self.lock();
        for e in entries.iter() {
            if e.name == name && e.shard == shard {
                if let MetricCell::Counter(c) = &e.cell {
                    return Counter(Arc::clone(c));
                }
                debug_assert!(false, "metric {name} re-registered with a different kind");
                return Counter(Arc::new(AtomicU64::new(0)));
            }
        }
        let cell = Arc::new(AtomicU64::new(0));
        entries.push(MetricEntry {
            name: name.to_string(),
            shard,
            cell: MetricCell::Counter(Arc::clone(&cell)),
        });
        Counter(cell)
    }

    /// Registers (or re-opens) the gauge `name` and returns a handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        // coax-analyze: allow(obs-naming, in-registry delegation: the caller's literal name was already checked at its own call site)
        self.gauge_shard(name, None)
    }

    /// Registers (or re-opens) the gauge `name` labelled with `shard`
    /// (`None` is the unlabelled process-wide series, the same cell
    /// [`MetricsRegistry::gauge`] returns).
    pub fn gauge_shard(&self, name: &str, shard: Option<u32>) -> Gauge {
        debug_assert!(is_valid_metric_name(name), "invalid metric name: {name}");
        let mut entries = self.lock();
        for e in entries.iter() {
            if e.name == name && e.shard == shard {
                if let MetricCell::Gauge(c) = &e.cell {
                    return Gauge(Arc::clone(c));
                }
                debug_assert!(false, "metric {name} re-registered with a different kind");
                return Gauge(Arc::new(AtomicU64::new(0)));
            }
        }
        let cell = Arc::new(AtomicU64::new(0));
        entries.push(MetricEntry {
            name: name.to_string(),
            shard,
            cell: MetricCell::Gauge(Arc::clone(&cell)),
        });
        Gauge(cell)
    }

    /// Registers (or re-opens) the histogram `name` and returns a handle.
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        // coax-analyze: allow(obs-naming, in-registry delegation: the caller's literal name was already checked at its own call site)
        self.histogram_shard(name, None)
    }

    /// Registers (or re-opens) the histogram `name` labelled with
    /// `shard` (`None` is the unlabelled process-wide series, the same
    /// cell [`MetricsRegistry::histogram`] returns).
    pub fn histogram_shard(&self, name: &str, shard: Option<u32>) -> Arc<LatencyHistogram> {
        debug_assert!(is_valid_metric_name(name), "invalid metric name: {name}");
        let mut entries = self.lock();
        for e in entries.iter() {
            if e.name == name && e.shard == shard {
                if let MetricCell::Histogram(h) = &e.cell {
                    return Arc::clone(h);
                }
                debug_assert!(false, "metric {name} re-registered with a different kind");
                return Arc::new(LatencyHistogram::new());
            }
        }
        let cell = Arc::new(LatencyHistogram::new());
        entries.push(MetricEntry {
            name: name.to_string(),
            shard,
            cell: MetricCell::Histogram(Arc::clone(&cell)),
        });
        cell
    }

    /// Reads every registered metric into a snapshot, returned in
    /// registration order.
    ///
    /// Each metric is read atomically on its own (counters and gauges
    /// are single loads; histograms copy their buckets), not the whole
    /// set at one instant. What is promised across counters: the cells
    /// are read in **reverse registration order** with `Acquire` loads
    /// pairing with [`Counter::add`]'s `Release`, so if writers always
    /// bump counter A before counter B and A was registered before B, no
    /// snapshot shows B ahead of A. Counter values are also monotone
    /// across successive snapshots (handles only ever `fetch_add`). The
    /// concurrency suite pins both.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let entries = self.lock();
        let mut samples: Vec<MetricSample> = entries
            .iter()
            .rev()
            .map(|e| match &e.cell {
                MetricCell::Counter(c) => MetricSample {
                    name: e.name.clone(),
                    shard: e.shard,
                    kind: MetricKind::Counter,
                    value: c.load(Ordering::Acquire),
                    histogram: None,
                },
                MetricCell::Gauge(c) => MetricSample {
                    name: e.name.clone(),
                    shard: e.shard,
                    kind: MetricKind::Gauge,
                    value: c.load(Ordering::Relaxed),
                    histogram: None,
                },
                MetricCell::Histogram(h) => {
                    let summary = h.snapshot().summary();
                    MetricSample {
                        name: e.name.clone(),
                        shard: e.shard,
                        kind: MetricKind::Histogram,
                        value: summary.count,
                        histogram: Some(summary),
                    }
                }
            })
            .collect();
        samples.reverse();
        samples
    }
}

/// One metric's value at snapshot time.
#[derive(Clone, Debug)]
pub struct MetricSample {
    /// Registered metric name (`coax.query.latency_us`).
    pub name: String,
    /// Shard label when the cell belongs to one shard of a
    /// [`crate::shard::ShardedHandle`]; `None` for the process-wide
    /// unlabelled series.
    pub shard: Option<u32>,
    /// Counter, gauge or histogram.
    pub kind: MetricKind,
    /// Counter/gauge value; for histograms, the observation count.
    pub value: u64,
    /// Percentile digest, present for histograms only.
    pub histogram: Option<HistogramSummary>,
}

/// A full export unit: every registered metric plus the buffered event
/// journal, taken at one point in time.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// All registered metrics.
    pub samples: Vec<MetricSample>,
    /// Journal contents, oldest first.
    pub events: Vec<Event>,
}

impl MetricsSnapshot {
    /// Looks up the unlabelled (process-wide) sample by metric name.
    pub fn get(&self, name: &str) -> Option<&MetricSample> {
        self.samples.iter().find(|s| s.name == name && s.shard.is_none())
    }

    /// Looks up a shard-labelled sample by metric name and shard id.
    pub fn get_shard(&self, name: &str, shard: u32) -> Option<&MetricSample> {
        self.samples.iter().find(|s| s.name == name && s.shard == Some(shard))
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// one `# TYPE` header per metric family (dots mapped to
    /// underscores), shard-labelled cells as `{shard="N"}` series of the
    /// same family, histograms as `summary` series with `quantile`
    /// labels plus `_sum`/`_count`, journal omitted (it is not a
    /// metric).
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut headered: Vec<String> = Vec::new();
        for s in &self.samples {
            let name: String = s.name.chars().map(|c| if c == '.' { '_' } else { c }).collect();
            let shard_label = s.shard.map(|k| format!("shard=\"{k}\""));
            match (&s.kind, &s.histogram) {
                (MetricKind::Histogram, Some(h)) => {
                    if !headered.contains(&name) {
                        let _ = writeln!(out, "# TYPE {name} summary");
                        headered.push(name.clone());
                    }
                    for (q, v) in [
                        ("0.5", h.p50_us),
                        ("0.9", h.p90_us),
                        ("0.95", h.p95_us),
                        ("0.99", h.p99_us),
                        ("0.999", h.p999_us),
                    ] {
                        match &shard_label {
                            Some(l) => {
                                let _ = writeln!(out, "{name}{{{l},quantile=\"{q}\"}} {v}");
                            }
                            None => {
                                let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
                            }
                        }
                    }
                    match &shard_label {
                        Some(l) => {
                            let _ = writeln!(out, "{name}_sum{{{l}}} {}", h.sum_us);
                            let _ = writeln!(out, "{name}_count{{{l}}} {}", h.count);
                        }
                        None => {
                            let _ = writeln!(out, "{name}_sum {}", h.sum_us);
                            let _ = writeln!(out, "{name}_count {}", h.count);
                        }
                    }
                }
                _ => {
                    if !headered.contains(&name) {
                        let _ = writeln!(out, "# TYPE {name} {}", s.kind.as_str());
                        headered.push(name.clone());
                    }
                    match &shard_label {
                        Some(l) => {
                            let _ = writeln!(out, "{name}{{{l}}} {}", s.value);
                        }
                        None => {
                            let _ = writeln!(out, "{name} {}", s.value);
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_grammar() {
        for good in ["coax.query.latency_us", "a.b", "coax.maint.refits", "x2.y_3"] {
            assert!(is_valid_metric_name(good), "{good} should be valid");
        }
        for bad in
            ["coax", "Coax.query", "coax.Query", "coax..q", "coax.2q", "coax.q-x", "", "coax."]
        {
            assert!(!is_valid_metric_name(bad), "{bad} should be invalid");
        }
    }

    #[test]
    fn registration_is_idempotent_and_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("test.shared_counter");
        let b = reg.counter("test.shared_counter");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
        assert_eq!(reg.snapshot().len(), 1);
    }

    #[test]
    fn shard_labelled_cells_are_distinct_series_of_one_family() {
        let reg = MetricsRegistry::new();
        let base = reg.counter("test.sharded_count");
        let s0 = reg.counter_shard("test.sharded_count", Some(0));
        let s1 = reg.counter_shard("test.sharded_count", Some(1));
        base.add(1);
        s0.add(10);
        s1.add(100);
        // Unlabelled and labelled cells are independent…
        assert_eq!(reg.counter_shard("test.sharded_count", None).get(), 1);
        assert_eq!(reg.counter_shard("test.sharded_count", Some(0)).get(), 10);
        assert_eq!(reg.counter_shard("test.sharded_count", Some(1)).get(), 100);
        // …snapshots expose all three, addressable by label…
        let snap = MetricsSnapshot { samples: reg.snapshot(), events: Vec::new() };
        assert_eq!(snap.get("test.sharded_count").map(|s| s.value), Some(1));
        assert_eq!(snap.get_shard("test.sharded_count", 0).map(|s| s.value), Some(10));
        assert_eq!(snap.get_shard("test.sharded_count", 1).map(|s| s.value), Some(100));
        // …and the Prometheus exposition emits one TYPE header for the
        // family with shard-labelled series under it.
        let text = snap.render_prometheus();
        assert_eq!(text.matches("# TYPE test_sharded_count counter").count(), 1);
        assert!(text.contains("test_sharded_count{shard=\"0\"} 10"));
        assert!(text.contains("test_sharded_count{shard=\"1\"} 100"));
        assert!(text.contains("test_sharded_count 1"));
    }

    #[test]
    fn prometheus_rendering_has_type_headers() {
        let reg = MetricsRegistry::new();
        reg.counter("test.render_count").add(5);
        reg.gauge("test.render_depth").set(2);
        reg.histogram("test.render_us").record(1000);
        let snap = MetricsSnapshot { samples: reg.snapshot(), events: Vec::new() };
        let text = snap.render_prometheus();
        assert!(text.contains("# TYPE test_render_count counter"));
        assert!(text.contains("# TYPE test_render_depth gauge"));
        assert!(text.contains("# TYPE test_render_us summary"));
        assert!(text.contains("test_render_us{quantile=\"0.99\"}"));
        assert!(text.contains("test_render_count 5"));
    }
}
