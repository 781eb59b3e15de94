//! Small helpers shared by both passes: order statistics, the
//! `FullScan` oracle, and the correctness tally.

use coax_data::{Dataset, RangeQuery, RowId, Value};
use coax_index::{FullScan, MultidimIndex};

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Sorts `v` in place and returns it (ascending, `total_cmp`).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Order-independent digest of an id set: count, sum and a mixed sum.
/// Equal digests on the same query are what the timed loops check, so
/// no sort runs between timed calls.
pub fn digest(ids: &[RowId]) -> (usize, u64, u64) {
    let mut sum = 0u64;
    let mut mixed = 0u64;
    for &id in ids {
        sum = sum.wrapping_add(u64::from(id));
        mixed = mixed.wrapping_add(splitmix64(u64::from(id)));
    }
    (ids.len(), sum, mixed)
}

/// SplitMix64 finaliser: the benchmark's only source of randomness
/// besides the data generators' own seeded streams.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The reference answers, from the benchmark's own copy of the rows: a
/// grid of equal-count buckets on the two columns that narrow the pool's
/// queries most, each bucket's rows stored contiguously. A query scans
/// every row of every bucket its box overlaps and keeps the rows that
/// satisfy the whole predicate — a linear scan over buckets that
/// provably hold every match, which makes checking every pool query
/// affordable on two million rows without relying on the index under
/// test. [`Oracle::new`] checks it against the repository's `FullScan`
/// on the first pool queries.
pub struct Oracle {
    dims: usize,
    /// The two bucketed columns, and the ascending cut points of each.
    axes: [(usize, Vec<Value>); 2],
    /// Start of each bucket in `ids` (row-major over the two axes), plus
    /// the end.
    starts: Vec<usize>,
    /// Row ids in bucket order, and their values row-major in that order.
    ids: Vec<RowId>,
    rows: Vec<Value>,
}

/// Pool queries the oracle is cross-checked against `FullScan` on.
pub const FULLSCAN_CHECKS: usize = 8;

/// Rows sampled to place the bucket cuts and pick the axes.
const SAMPLE: usize = 4096;

impl Oracle {
    /// Builds the oracle over `data` and records in `tally` whether it
    /// agrees with `FullScan` on the first [`FULLSCAN_CHECKS`] queries.
    pub fn new(data: &Dataset, pool: &[RangeQuery], tally: &mut Tally) -> Self {
        let (n, dims) = (data.len(), data.dims());
        let step = (n / SAMPLE).max(1);
        let samples: Vec<Vec<Value>> = (0..dims)
            .map(|d| sorted(data.column(d).iter().step_by(step).copied().collect()))
            .collect();
        // Share of the rows each query's range keeps, per column.
        let share = |d: usize, q: &RangeQuery| {
            let c = &samples[d];
            let from = c.partition_point(|v| *v < q.lo(d));
            let to = c.partition_point(|v| *v <= q.hi(d));
            to.saturating_sub(from) as f64 / c.len().max(1) as f64
        };
        let mut best = (f64::INFINITY, 0, dims.min(2) - 1);
        for a in 0..dims {
            for b in a + 1..dims {
                let cost: f64 = pool.iter().map(|q| share(a, q) * share(b, q)).sum();
                if cost < best.0 {
                    best = (cost, a, b);
                }
            }
        }
        let side = ((n / 256) as f64).sqrt().ceil().max(1.0) as usize;
        let cuts = |d: usize| -> Vec<Value> {
            let c = &samples[d];
            (1..side).map(|k| c[(k * c.len() / side).min(c.len() - 1)]).collect()
        };
        let axes = [(best.1, cuts(best.1)), (best.2, cuts(best.2))];
        let bucket = |r: usize| {
            let [(a, ca), (b, cb)] = &axes;
            let i = ca.partition_point(|c| *c <= data.value(r as RowId, *a));
            let j = cb.partition_point(|c| *c <= data.value(r as RowId, *b));
            i * side + j
        };
        let mut keyed: Vec<(usize, RowId)> = (0..n).map(|r| (bucket(r), r as RowId)).collect();
        keyed.sort_unstable();
        let mut starts = vec![0; side * side + 1];
        for &(k, _) in &keyed {
            starts[k + 1] += 1;
        }
        for k in 0..side * side {
            starts[k + 1] += starts[k];
        }
        let ids: Vec<RowId> = keyed.into_iter().map(|(_, r)| r).collect();
        let mut rows = Vec::with_capacity(n * dims);
        for &r in &ids {
            rows.extend((0..dims).map(|d| data.value(r, d)));
        }
        let oracle = Oracle { dims, axes, starts, ids, rows };
        let scan = FullScan::build(data);
        for q in pool.iter().take(FULLSCAN_CHECKS) {
            let mut ids = Vec::new();
            scan.range_query_stats(q, &mut ids);
            tally.record(same_ids(ids, &oracle.answer(q)));
        }
        oracle
    }

    /// Sorted ids matching `query`.
    pub fn answer(&self, query: &RangeQuery) -> Vec<RowId> {
        let side = self.axes[0].1.len() + 1;
        let span = |(d, cuts): &(usize, Vec<Value>)| {
            cuts.partition_point(|c| *c <= query.lo(*d))
                ..=cuts.partition_point(|c| *c <= query.hi(*d))
        };
        let mut ids = Vec::new();
        for i in span(&self.axes[0]) {
            for j in span(&self.axes[1]) {
                let k = i * side + j;
                for at in self.starts[k]..self.starts[k + 1] {
                    if query.matches(&self.rows[at * self.dims..(at + 1) * self.dims]) {
                        ids.push(self.ids[at]);
                    }
                }
            }
        }
        ids.sort_unstable();
        ids
    }
}

/// Counts checked operations and the ones that failed or answered wrong.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// `true` when `got` holds exactly the ids of `expected` (sorted), each once.
pub fn same_ids(mut got: Vec<RowId>, expected: &[RowId]) -> bool {
    got.sort_unstable();
    got == expected
}

/// `dataset` followed by `extra` rows, as one dataset (ids continue in
/// order, matching the global ids the service hands out to inserts).
pub fn concat(dataset: &Dataset, extra: &[Vec<Value>]) -> Dataset {
    let columns = (0..dataset.dims())
        .map(|d| {
            let mut col = dataset.column(d).to_vec();
            col.extend(extra.iter().map(|row| row[d]));
            col
        })
        .collect();
    Dataset::new(columns)
}
