//! Scaled benchmark datasets and workloads, with env-var overrides.

use coax_data::synth::{AirlineConfig, Generator, OsmConfig};
use coax_data::workload::{knn_rectangle_queries, point_queries};
use coax_data::{Dataset, RangeQuery};

/// Reads a `usize` env knob with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Rows per benchmark dataset (`COAX_BENCH_ROWS`, default 200 000).
pub fn bench_rows() -> usize {
    env_usize("COAX_BENCH_ROWS", 200_000)
}

/// Queries per workload (`COAX_BENCH_QUERIES`, default 100).
pub fn bench_queries() -> usize {
    env_usize("COAX_BENCH_QUERIES", 100)
}

/// Timed passes over each workload (`COAX_BENCH_REPEATS`, default 3).
pub fn bench_repeats() -> usize {
    env_usize("COAX_BENCH_REPEATS", 3)
}

/// Reads a comma-separated `usize`-list env knob with a default
/// (malformed entries are dropped; a fully malformed value falls back).
pub fn env_usize_list(name: &str, default: &[usize]) -> Vec<usize> {
    let parsed: Vec<usize> = std::env::var(name)
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .unwrap_or_default();
    if parsed.is_empty() {
        default.to_vec()
    } else {
        parsed
    }
}

/// Batch sizes the `batch` bench ladders over
/// (`COAX_BENCH_BATCH_SIZES`, default `256,1024,4096`).
pub fn bench_batch_sizes() -> Vec<usize> {
    env_usize_list("COAX_BENCH_BATCH_SIZES", &[256, 1024, 4096])
}

/// Worker counts the `batch` bench ladders over
/// (`COAX_BENCH_BATCH_THREADS`, default `1,2,4,8`).
pub fn bench_batch_threads() -> Vec<usize> {
    env_usize_list("COAX_BENCH_BATCH_THREADS", &[1, 2, 4, 8])
}

/// Shard counts the `batch` bench's sharded section ladders over
/// (`COAX_BENCH_SHARDS`, default `1,4`). Every count is verified
/// against the one-shard baseline before timing.
pub fn bench_shards() -> Vec<usize> {
    env_usize_list("COAX_BENCH_SHARDS", &[1, 4])
}

/// Dimensionalities the `scan` bench ladders over
/// (`COAX_BENCH_SCAN_DIMS`, default `2,4,8`).
pub fn bench_scan_dims() -> Vec<usize> {
    env_usize_list("COAX_BENCH_SCAN_DIMS", &[2, 4, 8])
}

/// Per-mille selectivities of the `scan` bench's rectangle ladder
/// (`COAX_BENCH_SCAN_SELS_PERMILLE`, default `1,10,100,500` — i.e.
/// 0.1 % to 50 % of the cell's rows matching).
pub fn bench_scan_sels_permille() -> Vec<usize> {
    env_usize_list("COAX_BENCH_SCAN_SELS_PERMILLE", &[1, 10, 100, 500])
}

/// The airline analogue at benchmark scale (paper: 80 M rows; Table 1).
pub fn airline(rows: usize) -> Dataset {
    AirlineConfig::small(rows, 0x0a1e).generate()
}

/// The airline-2008 subset used by Figs. 7/8 (paper: 7 M rows).
pub fn airline_2008(rows: usize) -> Dataset {
    AirlineConfig::year2008(rows, 0x2008).generate()
}

/// The OSM analogue at benchmark scale (paper: 105 M rows; 9 M in Fig. 8).
pub fn osm(rows: usize) -> Dataset {
    OsmConfig::small(rows, 0x05a0).generate()
}

/// A range-query workload: KNN rectangles with selectivity target `k`
/// (§8.1.2), deterministic per dataset.
pub fn range_workload(dataset: &Dataset, count: usize, k: usize) -> Vec<RangeQuery> {
    knn_rectangle_queries(dataset, count, k, 0xbe9c)
}

/// A point-query workload at existing records (§8.2.1).
pub fn point_workload(dataset: &Dataset, count: usize) -> Vec<RangeQuery> {
    point_queries(dataset, count, 0xbe9d)
}

/// The paper's Fig. 7 selectivity ladder, expressed as fractions of the
/// 7 M-row dataset (35 K, 150 K, 750 K, 1.5 M points) and scaled to `rows`.
pub fn fig7_selectivities(rows: usize) -> Vec<(String, usize)> {
    [(0.005, "35K@7M"), (0.0214, "150K@7M"), (0.107, "750K@7M"), (0.214, "1.5M@7M")]
        .iter()
        .map(|&(frac, label)| {
            let k = ((rows as f64 * frac) as usize).max(1);
            (format!("{label} (~{k} pts here)"), k)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_override_parses() {
        std::env::set_var("COAX_TEST_KNOB_X", "42");
        assert_eq!(env_usize("COAX_TEST_KNOB_X", 7), 42);
        assert_eq!(env_usize("COAX_TEST_KNOB_MISSING", 7), 7);
        std::env::set_var("COAX_TEST_KNOB_X", "junk");
        assert_eq!(env_usize("COAX_TEST_KNOB_X", 7), 7);
    }

    #[test]
    fn env_list_parses_and_falls_back() {
        std::env::set_var("COAX_TEST_LIST_X", "1, 4,16");
        assert_eq!(env_usize_list("COAX_TEST_LIST_X", &[2]), vec![1, 4, 16]);
        assert_eq!(env_usize_list("COAX_TEST_LIST_MISSING", &[2, 3]), vec![2, 3]);
        std::env::set_var("COAX_TEST_LIST_X", "junk");
        assert_eq!(env_usize_list("COAX_TEST_LIST_X", &[5]), vec![5]);
        std::env::set_var("COAX_TEST_LIST_X", "8,junk,2");
        assert_eq!(env_usize_list("COAX_TEST_LIST_X", &[5]), vec![8, 2]);
    }

    #[test]
    fn datasets_have_expected_shape() {
        assert_eq!(airline(500).dims(), 8);
        assert_eq!(airline_2008(500).dims(), 8);
        assert_eq!(osm(500).dims(), 4);
    }

    #[test]
    fn fig7_ladder_scales() {
        let ladder = fig7_selectivities(100_000);
        assert_eq!(ladder.len(), 4);
        assert_eq!(ladder[0].1, 500);
        assert_eq!(ladder[3].1, 21_400);
    }

    #[test]
    fn workloads_nonempty() {
        let ds = osm(2000);
        assert_eq!(range_workload(&ds, 5, 20).len(), 5);
        assert_eq!(point_workload(&ds, 5).len(), 5);
    }
}
