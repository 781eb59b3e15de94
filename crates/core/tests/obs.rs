//! Observability-layer contracts: histogram quantile accuracy against a
//! sorted reference, registry consistency under concurrent hammering,
//! and what one query records through each serving surface — one span
//! per query, a sample only for each phase that ran.
//!
//! The histogram promises quantiles "within one bucket of exact": the
//! value [`LatencyHistogram`]'s `quantile(q)` returns must land in the
//! same bucket as the rank-`ceil(q·n)` element of the sorted sample
//! (buckets are ≈1.6% wide above 64µs and exact below, so this bounds
//! the relative error). The tests sweep seeded distributions chosen to
//! stress the layout: degenerate single-value, bimodal two-point,
//! heavy-tail, and uniform.

use coax_core::obs::{bucket_of, HistogramSnapshot, LatencyHistogram, MetricsRegistry};
use coax_core::{CoaxConfig, ObsConfig, ShardedHandle};
use coax_data::synth::{Generator, LinearPairConfig};
use coax_data::workload::point_queries;
use coax_data::RangeQuery;
use coax_index::MultidimIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

const QS: [f64; 5] = [0.5, 0.9, 0.95, 0.99, 0.999];

/// The histogram's own rank rule, applied to the exact sorted sample.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// Records `values` and asserts every swept quantile lands in the same
/// bucket as the sorted-reference answer.
fn assert_quantiles_within_one_bucket(label: &str, mut values: Vec<u64>) {
    let hist = LatencyHistogram::new();
    for &v in &values {
        hist.record(v);
    }
    values.sort_unstable();
    let snap = hist.snapshot();
    for q in QS {
        let exact = exact_quantile(&values, q);
        let approx = snap.quantile(q);
        assert_eq!(
            bucket_of(approx),
            bucket_of(exact),
            "{label}: q={q} exact={exact} approx={approx} landed in a different bucket"
        );
    }
    assert_eq!(snap.count(), values.len() as u64);
    assert_eq!(snap.sum_us(), values.iter().sum::<u64>());
}

#[test]
fn quantiles_single_value_distribution() {
    assert_quantiles_within_one_bucket("single-value", vec![777; 500]);
}

#[test]
fn quantiles_two_point_distribution() {
    let mut rng = StdRng::seed_from_u64(0xB501);
    let values: Vec<u64> =
        (0..2_000).map(|_| if rng.gen_range(0..10) < 3 { 3 } else { 50_000 }).collect();
    assert_quantiles_within_one_bucket("two-point", values);
}

#[test]
fn quantiles_heavy_tail_distribution() {
    let mut rng = StdRng::seed_from_u64(0xB502);
    // x⁴ over a 10-second span: most mass near zero, a long sparse tail.
    let values: Vec<u64> = (0..5_000)
        .map(|_| {
            let x: f64 = rng.gen_range(0.0..1.0);
            (x.powi(4) * 1e7) as u64
        })
        .collect();
    assert_quantiles_within_one_bucket("heavy-tail", values);
}

#[test]
fn quantiles_uniform_distribution() {
    let mut rng = StdRng::seed_from_u64(0xB503);
    let values: Vec<u64> = (0..5_000).map(|_| rng.gen_range(0..200_000)).collect();
    assert_quantiles_within_one_bucket("uniform", values);
}

#[test]
fn merge_equals_bulk_record() {
    let mut rng = StdRng::seed_from_u64(0xB504);
    let values: Vec<u64> = (0..3_000).map(|_| rng.gen_range(0..1_000_000)).collect();
    let (left, right) = (LatencyHistogram::new(), LatencyHistogram::new());
    let whole = LatencyHistogram::new();
    for (i, &v) in values.iter().enumerate() {
        if i % 2 == 0 {
            left.record(v)
        } else {
            right.record(v)
        }
        whole.record(v);
    }
    let mut merged = left.snapshot();
    merged.merge(&right.snapshot());
    let expected = whole.snapshot();
    for q in QS {
        assert_eq!(merged.quantile(q), expected.quantile(q));
    }
    assert_eq!(merged.count(), expected.count());
    assert_eq!(merged.sum_us(), expected.sum_us());
}

/// Hammers one registry from writer threads while a reader snapshots:
/// counters must be monotone across snapshots and never tear against
/// each other (each writer bumps `first` before `second`, and `first`
/// is registered first, so any snapshot must observe `first >= second`),
/// and the histogram's count, sum, min and max must come out exact.
#[test]
fn registry_hammering_yields_monotone_untorn_snapshots() {
    let reg = Arc::new(MetricsRegistry::new());
    let stop = Arc::new(AtomicBool::new(false));
    const WRITERS: usize = 4;
    const OPS: u64 = 20_000;

    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    let first = reg.counter("test.hammer.first");
                    let second = reg.counter("test.hammer.second");
                    let hist = reg.histogram("test.hammer.latency_us");
                    for i in 0..OPS {
                        first.inc();
                        second.inc();
                        hist.record((w as u64 + 1) * (i % 97));
                    }
                })
            })
            .collect();
        let reader = {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let (mut last_first, mut last_second, mut reads) = (0u64, 0u64, 0u64);
                loop {
                    // Read the flag before snapshotting, so the pass that
                    // sees it set still takes one last snapshot.
                    let stopping = stop.load(Ordering::Acquire);
                    let samples = reg.snapshot();
                    let get = |name: &str| {
                        samples.iter().find(|s| s.name == name).map_or(0, |s| s.value)
                    };
                    let first = get("test.hammer.first");
                    let second = get("test.hammer.second");
                    assert!(first >= last_first, "counter went backwards");
                    assert!(second >= last_second, "counter went backwards");
                    // `first` is always bumped before `second`: a torn
                    // snapshot could otherwise show second > first.
                    assert!(first >= second, "torn snapshot: first={first} second={second}");
                    last_first = first;
                    last_second = second;
                    reads += 1;
                    if stopping {
                        break;
                    }
                }
                (reads, last_first)
            })
        };
        // The reader races the writers for their whole run; only after
        // every writer drained is it released, and its last snapshot is
        // taken after that, so it observes the final totals.
        for h in writers {
            h.join().expect("writer");
        }
        stop.store(true, Ordering::Release);
        let (reads, final_first) = reader.join().expect("reader");
        assert!(reads > 0, "reader never snapshotted");
        assert_eq!(final_first, WRITERS as u64 * OPS, "last snapshot missed the final total");
    });

    let samples = reg.snapshot();
    let total = WRITERS as u64 * OPS;
    let get = |name: &str| samples.iter().find(|s| s.name == name).expect(name).clone();
    assert_eq!(get("test.hammer.first").value, total);
    assert_eq!(get("test.hammer.second").value, total);
    let hist = get("test.hammer.latency_us").histogram.expect("histogram summary");
    assert_eq!(hist.count, total, "histogram lost records under contention");
    let recorded = (0..WRITERS as u64).flat_map(|w| (0..OPS).map(move |i| (w + 1) * (i % 97)));
    let (sum, min, max) =
        recorded.fold((0, u64::MAX, 0), |(s, lo, hi), v| (s + v, lo.min(v), hi.max(v)));
    assert_eq!(hist.sum_us, sum, "histogram sum lost records under contention");
    assert_eq!(hist.min_us, min, "histogram lost its minimum under contention");
    assert_eq!(hist.max_us, max, "histogram lost its maximum under contention");
}

/// Shard label of the one-shard service below (its shard 0 records under
/// the configured label itself): no other test in this binary records
/// into these cells.
const SURFACE_SHARD: u32 = 7_001;

/// Held by every test of this binary that records into the global
/// registry: `each_surface_records_one_span_per_query` ends by checking
/// that a disabled build moves no global metric at all, which a test
/// recording alongside it would break.
static GLOBAL_RECORDING: Mutex<()> = Mutex::new(());

/// Snapshots every per-query histogram of `shard`: the four phases,
/// then `coax.query.latency_us` last.
fn query_histograms(shard: u32) -> Vec<HistogramSnapshot> {
    [
        "coax.query.translate_us",
        "coax.query.primary_probe_us",
        "coax.query.outlier_probe_us",
        "coax.query.pending_scan_us",
        "coax.query.latency_us",
    ]
    .iter()
    .map(|name| MetricsRegistry::global().histogram_shard(name, Some(shard)).snapshot())
    .collect()
}

/// One query through the live service, its `ShardedSnapshot` or the
/// frozen `CoaxIndex` is one span: every phase histogram it marks, the latency
/// histogram and `coax.query.count` grow by exactly one (the frozen
/// epoch has no overlay and marks no pending scan), the latency covers
/// the phases, and the counters carry the stats the caller got (overlay
/// included). A disabled build records nothing at all.
#[test]
fn each_surface_records_one_span_per_query() {
    let _recording = GLOBAL_RECORDING.lock().unwrap_or_else(PoisonError::into_inner);
    const N: u64 = 40;
    let ds = LinearPairConfig { rows: 4_000, seed: 11, ..Default::default() }.generate();
    let queries: Vec<RangeQuery> = (0..N)
        .map(|i| {
            let mut q = RangeQuery::unbounded(2);
            let x0 = (i * 23 % 900) as f64;
            q.constrain(0, x0, x0 + 60.0);
            q
        })
        .collect();
    let build = |obs: ObsConfig| {
        let service = ShardedHandle::build(&ds, &CoaxConfig { obs, ..Default::default() });
        for i in 0..25 {
            let x = i as f64 * 37.0;
            service.insert(&[x, 2.0 * x + 50.0]).expect("finite row of the right arity");
        }
        service
    };

    let service = build(ObsConfig::default().for_shard(SURFACE_SHARD));
    let snapshot = service.snapshot();
    let surfaces: [(&str, &dyn MultidimIndex); 3] =
        [("live", &service), ("snapshot", &snapshot), ("frozen", snapshot.shard(0).frozen())];
    let registry = MetricsRegistry::global();
    let count = registry.counter_shard("coax.query.count", Some(SURFACE_SHARD));
    let matches = registry.counter_shard("coax.query.matches", Some(SURFACE_SHARD));
    let pending = registry.counter_shard("coax.query.scanned_pending", Some(SURFACE_SHARD));
    for (label, index) in surfaces {
        let before = query_histograms(SURFACE_SHARD);
        let counted = (count.get(), matches.get(), pending.get());
        let (mut matched, mut scanned) = (0u64, 0u64);
        for q in &queries {
            let stats = index.range_query_stats(q, &mut Vec::new());
            matched += stats.matches as u64;
            scanned += stats.scanned_pending as u64;
        }
        let grown: Vec<HistogramSnapshot> = query_histograms(SURFACE_SHARD)
            .iter()
            .zip(&before)
            .map(|(after, before)| after.since(before))
            .collect();
        // A frozen epoch has no overlay, so it marks no pending scan.
        let pending_samples = if label == "frozen" { 0 } else { N };
        for (i, h) in grown.iter().enumerate() {
            let expected = if i == 3 { pending_samples } else { N };
            assert_eq!(h.count(), expected, "{label}: histogram {i} grew {} times", h.count());
        }
        assert_eq!(count.get() - counted.0, N, "{label}: coax.query.count");
        assert_eq!(matches.get() - counted.1, matched, "{label}: coax.query.matches");
        assert_eq!(pending.get() - counted.2, scanned, "{label}: coax.query.scanned_pending");
        let (phases, latency) = grown.split_at(4);
        let phase_sum: u64 = phases.iter().map(HistogramSnapshot::sum_us).sum();
        assert!(
            latency[0].sum_us() >= phase_sum,
            "{label}: latency sum {} below the phase sum {phase_sum}",
            latency[0].sum_us()
        );
    }
    for gone in ["coax.query.merge_us", "coax.handle.query_us"] {
        assert!(
            registry.snapshot().iter().all(|s| s.name != gone),
            "{gone} is still registered"
        );
    }

    let before = registry.snapshot();
    let service = build(ObsConfig::disabled());
    let snapshot = service.snapshot();
    for q in &queries {
        service.range_query_stats(q, &mut Vec::new());
        snapshot.range_query_stats(q, &mut Vec::new());
        snapshot.shard(0).frozen().range_query_stats(q, &mut Vec::new());
    }
    let after = registry.snapshot();
    assert_eq!(after.len(), before.len(), "a disabled build registered metrics");
    for (a, b) in after.iter().zip(&before) {
        assert_eq!((&a.name, a.shard, a.value), (&b.name, b.shard, b.value));
        assert_eq!(a.histogram, b.histogram, "a disabled build recorded into {}", a.name);
    }
}

/// Shard label of the one-shard service of the phase test below.
const PHASE_SHARD: u32 = 7_002;

/// A span samples only the phases that ran. Point queries plan without
/// translating and probe the one partition their row can live in, so
/// over N points on the live service, its snapshot and the frozen
/// epoch: `translate_us` gains no sample, `primary_probe_us` and
/// `outlier_probe_us` one per point whose plan kept that probe (both
/// kinds occur), `pending_scan_us` one per point while the overlay holds
/// rows and none while it is empty (or on the frozen epoch), and
/// `latency_us` and `coax.query.count` exactly N, the latency sum
/// covering the phase sums. A batch of the same distinct points records
/// no translation either.
#[test]
fn a_span_records_only_the_phases_that_ran() {
    let _recording = GLOBAL_RECORDING.lock().unwrap_or_else(PoisonError::into_inner);
    const N: u64 = 200;
    let ds =
        LinearPairConfig { rows: 4_000, seed: 12, outlier_fraction: 0.2, ..Default::default() }
            .generate();
    let points = point_queries(&ds, N as usize, 13);
    let config =
        CoaxConfig { obs: ObsConfig::default().for_shard(PHASE_SHARD), ..Default::default() };
    let service = ShardedHandle::build(&ds, &config);
    let snapshot = service.snapshot();
    let plans: Vec<_> = points.iter().map(|q| snapshot.shard(0).frozen().plan(q)).collect();
    let primary = plans.iter().filter(|p| !p.primary_pruned()).count() as u64;
    let outliers = plans.iter().filter(|p| !p.outliers_pruned()).count() as u64;
    assert!(primary > 0 && outliers > 0, "points in both partitions: {primary} + {outliers}");
    assert_eq!(primary + outliers, N, "every point plan probes exactly one partition");

    let count = MetricsRegistry::global().counter_shard("coax.query.count", Some(PHASE_SHARD));
    let check = |label: &str, index: &dyn MultidimIndex, pending: u64| {
        let (before, counted) = (query_histograms(PHASE_SHARD), count.get());
        for q in &points {
            index.range_query_stats(q, &mut Vec::new());
        }
        let grown: Vec<HistogramSnapshot> = query_histograms(PHASE_SHARD)
            .iter()
            .zip(&before)
            .map(|(after, before)| after.since(before))
            .collect();
        let samples: Vec<u64> = grown.iter().map(HistogramSnapshot::count).collect();
        assert_eq!(
            samples,
            [0, primary, outliers, pending, N],
            "{label}: samples per histogram"
        );
        assert_eq!(count.get() - counted, N, "{label}: coax.query.count");
        let phase_sum: u64 = grown[..4].iter().map(HistogramSnapshot::sum_us).sum();
        assert!(grown[4].sum_us() >= phase_sum, "{label}: latency below the phase sum");
    };
    let surfaces = |pending: u64| {
        let snapshot = service.snapshot();
        check("live", &service, pending);
        check("snapshot", &snapshot, pending);
        check("frozen", snapshot.shard(0).frozen(), 0);
    };
    surfaces(0);
    for i in 0..25 {
        let x = i as f64 * 37.0;
        service.insert(&[x, 2.0 * x + 50.0]).expect("finite row of the right arity");
    }
    surfaces(N);

    let registry = MetricsRegistry::global();
    let translate = registry.histogram_shard("coax.query.translate_us", Some(PHASE_SHARD));
    let answered = registry.counter_shard("coax.batch.queries", Some(PHASE_SHARD));
    let (translated, batched) = (translate.snapshot(), answered.get());
    snapshot.batch_query(&points);
    snapshot.shard(0).frozen().batch_query(&points);
    assert_eq!(answered.get() - batched, 2 * N, "both batches answered every point");
    assert_eq!(translate.snapshot().since(&translated).count(), 0, "a point batch translated");
}
