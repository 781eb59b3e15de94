//! Workload definitions and their seeded inputs. Everything here runs
//! before the clock starts; the service only ever sees the rows and
//! queries produced by [`Inputs::generate`].

use crate::util::splitmix64;
use coax_data::synth::{AirlineConfig, DriftingLinearConfig, Generator, OsmConfig};
use coax_data::workload::{knn_rectangle_queries, point_queries};
use coax_data::{Dataset, RangeQuery, RowId, Value};

/// The three named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, KNN-rectangle range queries on the airline analogue
    /// (8 dims, 2 correlated groups), 4x the last-level cache.
    RangeAirline,
    /// Closed loop, point queries on the OSM analogue (4 dims, 1 group),
    /// fits in the last-level cache.
    PointOsm,
    /// Open loop: band queries at a fixed rate beside a writer inserting
    /// a drifting stream at a fixed rate, with periodic maintenance.
    IngestDrift,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::RangeAirline, Workload::PointOsm, Workload::IngestDrift];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RangeAirline => "range-airline",
            Workload::PointOsm => "point-osm",
            Workload::IngestDrift => "ingest-drift",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Inserts between maintenance calls: above twice the default policy's
/// fold threshold (4096 pending rows per shard), so each call finds enough
/// pending rows on both shards to act.
const MAINTAIN_EVERY: usize = 10_000;

/// Size and rate knobs of one workload. [`Sizes::full`] is the benchmark;
/// [`Sizes::tiny`] keeps the same shape for the self-test.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Rows the service is built on.
    pub rows: usize,
    /// Rows inserted after the build (held back from the same stream): one
    /// maintenance round per closed-loop build, the whole stream suffix
    /// for the open loop.
    pub extra: usize,
    /// Distinct queries in the pool the loops cycle through.
    pub pool: usize,
    /// Queries per `batch_query` call.
    pub batch: usize,
    /// Target result size of a range query (KNN-rectangle `k`).
    pub knn_k: usize,
    /// Builds timed per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// `maintain_all` runs after every this many inserts.
    pub maintain_every: usize,
    /// Open-loop query rate (queries/s), ingest-drift only.
    pub query_rate: f64,
    /// Open-loop insert rate (rows/s), ingest-drift only.
    pub insert_rate: f64,
}

impl Sizes {
    pub fn full(w: Workload, seconds: f64) -> Sizes {
        match w {
            Workload::RangeAirline => Sizes {
                rows: 2_000_000,
                extra: MAINTAIN_EVERY,
                pool: 2048,
                batch: 32,
                knn_k: 1000,
                setup_reps: 5,
                maintain_every: MAINTAIN_EVERY,
                query_rate: 0.0,
                insert_rate: 0.0,
            },
            Workload::PointOsm => Sizes {
                rows: 50_000,
                extra: MAINTAIN_EVERY,
                pool: 4096,
                batch: 256,
                knn_k: 1,
                setup_reps: 9,
                maintain_every: MAINTAIN_EVERY,
                query_rate: 0.0,
                insert_rate: 0.0,
            },
            Workload::IngestDrift => {
                let insert_rate = 50_000.0;
                Sizes {
                    rows: 500_000,
                    // The stream ends half a maintenance round before the
                    // open-loop window closes, so every run finishes with the
                    // same number of rounds and the same overlay left over.
                    extra: ((insert_rate * ingest_window(seconds)) as usize)
                        .saturating_sub(MAINTAIN_EVERY / 2)
                        .max(1),
                    pool: 2048,
                    batch: 64,
                    knn_k: 0,
                    setup_reps: 9,
                    maintain_every: MAINTAIN_EVERY,
                    query_rate: 5_000.0,
                    insert_rate,
                }
            }
        }
    }

    pub fn tiny(w: Workload) -> Sizes {
        let full = Sizes::full(w, 1.0);
        Sizes {
            rows: 20_000,
            extra: 2_000,
            pool: 48,
            batch: 8,
            knn_k: full.knn_k.min(50),
            setup_reps: 2,
            maintain_every: 700,
            query_rate: full.query_rate.min(2_000.0),
            insert_rate: full.insert_rate.min(20_000.0),
        }
    }
}

/// Seconds of the open-loop ingest window out of a run's `seconds`.
pub fn ingest_window(seconds: f64) -> f64 {
    seconds * 0.8
}

/// The generated inputs of one run.
pub struct Inputs {
    /// Rows the service is built from.
    pub base: Dataset,
    /// Rows inserted later, in stream order (global ids continue from
    /// `base.len()`).
    pub extra: Vec<Vec<Value>>,
    /// The query pool.
    pub pool: Vec<RangeQuery>,
}

impl Inputs {
    pub fn generate(w: Workload, sizes: &Sizes, seed: u64) -> Inputs {
        let total = sizes.rows + sizes.extra;
        let stream = match w {
            Workload::RangeAirline => AirlineConfig::small(total, seed).generate(),
            Workload::PointOsm => OsmConfig::small(total, seed).generate(),
            Workload::IngestDrift => DriftingLinearConfig {
                rows: total,
                drift_after: sizes.rows,
                end: (2.02, 27.0),
                seed,
                ..Default::default()
            }
            .generate(),
        };
        let prefix: Vec<RowId> = (0..sizes.rows as RowId).collect();
        let base = stream.take_rows(&prefix);
        let extra: Vec<Vec<Value>> =
            (sizes.rows..total).map(|r| stream.row(r as RowId)).collect();
        drop(stream);
        let query_seed = splitmix64(seed ^ 0x51_u64);
        let pool = match w {
            Workload::RangeAirline => range_pool(&base, sizes, query_seed),
            Workload::PointOsm => point_queries(&base, sizes.pool, query_seed),
            Workload::IngestDrift => band_pool(&base, &extra, sizes.pool, query_seed),
        };
        Inputs { base, extra, pool }
    }
}

/// KNN-rectangle queries with about `knn_k` results. The rectangles come
/// from a 1-in-`STEP` row sample with `knn_k / STEP` neighbours, which
/// bounds about the same region as `knn_k` neighbours in the full data
/// at a `STEP`th of the generation cost.
fn range_pool(base: &Dataset, sizes: &Sizes, seed: u64) -> Vec<RangeQuery> {
    const STEP: usize = 20;
    let sample: Vec<RowId> = (0..base.len() as RowId).step_by(STEP).collect();
    let sample = base.take_rows(&sample);
    let k = (sizes.knn_k / STEP).max(2);
    knn_rectangle_queries(&sample, sizes.pool, k, seed)
}

/// Band queries on the dependent attribute (column 1) only: each band is
/// centred on the `y` of a random stream row (build prefix or drifting
/// suffix) and is 0.05% of the build prefix's `y` range wide.
fn band_pool(base: &Dataset, extra: &[Vec<Value>], count: usize, seed: u64) -> Vec<RangeQuery> {
    let (lo, hi) = base.min_max(1).unwrap_or((0.0, 1.0));
    let width = (hi - lo) * 0.0005;
    let n = base.len() + extra.len();
    (0..count as u64)
        .map(|i| {
            let r = (splitmix64(seed.wrapping_add(i)) % n as u64) as usize;
            let y = if r < base.len() {
                base.value(r as RowId, 1)
            } else {
                extra[r - base.len()][1]
            };
            let mut q = RangeQuery::unbounded(base.dims());
            q.constrain(1, y - width / 2.0, y + width / 2.0);
            q
        })
        .collect()
}
