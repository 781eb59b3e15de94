//! End-to-end and per-layer benchmark of the sharded COAX service.
//!
//! One run = one workload, one seed, one pass:
//!
//! * the **end-to-end pass** (`--trace 0`) times every call with the
//!   benchmark's own clock through the public surface a user has —
//!   [`ShardedHandle`] and its snapshots — and reports
//!   [`END_TO_END`];
//! * the **traced pass** (`--trace 1`) times calls into each layer's
//!   public functions from outside, keeps one span per call in memory,
//!   writes the spans out at exit, and reports [`PER_LAYER`].
//!
//! Both passes check the answers they time against a reference scan of
//! the same rows (itself checked against `FullScan`) and count mismatches
//! as failures instead of panicking.

pub mod e2e;
pub mod inputs;
pub mod traced;
pub mod util;
pub mod writer;

use coax_core::{CoaxConfig, ObsConfig, ShardSpec};
use inputs::{Inputs, Sizes, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;
use util::Tally;

/// End-to-end metrics, `(name, unit)`, reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("query_p95_us", "us"),
    ("query_qps", "1/s"),
    ("batch_qps", "1/s"),
    ("insert_rows_per_s", "rows/s"),
    ("index_bytes", "bytes"),
    ("effectiveness", "ratio"),
];

/// Per-layer metrics, `(name, unit)`, reported by every workload's
/// traced pass. Names are `<module>.<quantity>`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("discovery.build_s", "s"),
    ("learn.split_s", "s"),
    ("index.build_s", "s"),
    ("index.primary_ratio", "ratio"),
    ("index.primary_bytes", "bytes"),
    ("index.outlier_bytes", "bytes"),
    ("shard.build_s", "s"),
    ("shard.fanout_us", "us"),
    ("shard.imbalance", "ratio"),
    ("translate.us", "us"),
    ("translate.pruning_ratio", "ratio"),
    ("exec.primary_us", "us"),
    ("exec.outlier_us", "us"),
    ("exec.rest_us", "us"),
    ("exec.primary_rows_per_query", "rows"),
    ("exec.primary_cells_per_query", "cells"),
    ("exec.outlier_rows_per_query", "rows"),
    ("exec.batch_speedup", "ratio"),
    ("kernel.fullscan_mrows_s", "Mrows/s"),
    ("kernel.primary_ns_per_row", "ns"),
    ("maint.insert_us", "us"),
    ("maint.insert_p99_us", "us"),
    ("maint.fold_ms", "ms"),
    ("maint.refit_ms", "ms"),
    ("maint.folds", "count"),
    ("maint.refits", "count"),
    ("maint.pending_rows_per_query", "rows"),
    ("obs.overhead_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Shards in the benchmarked service.
pub const SHARDS: usize = 2;

/// The benchmarked service configuration: two shards on the
/// correlation-aware key, default execution policy (the fan-out stays on
/// the calling thread), and the given observability switch.
pub fn service_config(obs: ObsConfig) -> CoaxConfig {
    CoaxConfig { shard: ShardSpec::auto(SHARDS), obs, ..Default::default() }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measured seconds; each phase gets a fixed share.
    pub seconds: f64,
    /// Run the traced pass instead of the end-to-end pass.
    pub trace: bool,
    /// Self-test scale instead of the benchmark's sizes.
    pub tiny: bool,
    /// Self-test hook: drop one id from the first checked answer, which
    /// the correctness gate must count as a failure.
    pub corrupt: bool,
    /// Where the traced pass writes its spans (`None`: not written).
    pub span_dir: Option<PathBuf>,
}

impl Options {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?)
                }
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("seconds out of range: {s}"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            tiny: false,
            corrupt: false,
            span_dir: Some(PathBuf::from(".bench_build").join("perfbench")),
        })
    }
}

/// A finished run: the correctness tally and one value per metric.
#[derive(Clone, Debug)]
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

/// Runs one pass and checks that it produced exactly the declared
/// metrics, each a finite number.
pub fn run(opts: &Options) -> Result<Report, String> {
    let sizes = if opts.tiny {
        Sizes::tiny(opts.workload)
    } else {
        Sizes::full(opts.workload, opts.seconds)
    };
    let inputs = Inputs::generate(opts.workload, &sizes, opts.seed);
    let mut tally = Tally::default();
    let (declared, values) = if opts.trace {
        (PER_LAYER, traced::run(opts, &sizes, &inputs, &mut tally)?)
    } else {
        (END_TO_END, e2e::run(opts, &sizes, &inputs, &mut tally))
    };
    let mut metrics = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push((name, unit, value));
    }
    if values.len() != declared.len() {
        return Err(format!("{} values for {} declared metrics", values.len(), declared.len()));
    }
    Ok(Report { tally, metrics })
}
