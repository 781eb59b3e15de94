//! The traced pass: per-layer numbers from calls into each layer's public
//! functions, timed from outside.
//!
//! Every timed call becomes a [`Span`] (name, start, end, parent, query
//! id) kept in memory. Each decomposed query gets a synthetic `query`
//! parent span whose children are the layer calls; the layer metrics are
//! computed from those spans, and the spans are written out as JSON lines
//! when the pass ends.

use crate::e2e::{final_check, gate};
use crate::inputs::{ingest_window, Inputs, Sizes, Workload};
use crate::util::{median, quantile, sorted, Oracle, Tally};
use crate::writer::{open_loop, write_rows, Maint, WriteLog};
use crate::{service_config, Options};
use coax_core::discovery::discover;
use coax_core::learn::split_rows;
use coax_core::{CoaxConfig, CoaxIndex, FdModel, ObsConfig, ShardedHandle, ShardedSnapshot};
use coax_data::{RangeQuery, RowId};
use coax_index::{FullScan, MultidimIndex, ScanStats};
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query: u64,
    /// Rows the call examined (probe spans only).
    pub rows: u64,
    /// Directory cells the call visited (probe spans only).
    pub cells: u64,
}

impl Span {
    pub fn ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, query: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            query,
            rows: 0,
            cells: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        query: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, query);
        let r = black_box(f());
        self.close(id);
        r
    }

    /// Attaches scan counters to the most recent span.
    pub fn count_last(&mut self, stats: ScanStats) {
        if let Some(s) = self.spans.last_mut() {
            s.rows = stats.rows_examined as u64;
            s.cells = stats.cells_visited as u64;
        }
    }

    /// Each span's self time (ns): its duration minus the part its
    /// children cover. Children of one parent run one after another, so
    /// the covered part is the sum of their durations.
    pub fn self_ns(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ns();
            }
        }
        own
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_ns();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"parent\": {parent}, \"query\": {}, \"rows\": {}, \"cells\": {}}}",
                s.name, s.start_ns, s.end_ns, own[i], s.query, s.rows, s.cells
            )?;
        }
        w.flush()
    }
}

/// Times `f` `reps` times inside spans named `name`; returns the last
/// result and the median seconds.
fn build_median<R>(
    tr: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> (R, f64) {
    let mut secs = Vec::new();
    let mut last = None;
    for rep in 0..reps.max(1) {
        drop(last.take());
        let id = tr.open(name, None, rep as u64);
        last = Some(black_box(f()));
        tr.close(id);
        secs.push(tr.spans[id].ns() / 1e9);
    }
    (last.expect("at least one rep"), median(&secs))
}

/// Per-query layer times (ns) and row counts, summed over shards.
#[derive(Clone, Copy, Debug, Default)]
struct Decomposed {
    sharded: f64,
    parts: f64,
    translate: f64,
    primary: f64,
    outlier: f64,
    detailed: f64,
    primary_rows: usize,
    primary_cells: usize,
    outlier_rows: usize,
    untranslated_rows: usize,
}

/// The layer calls the decomposition times, and whether each runs once
/// per shard (on that shard's handle or frozen index) or once per query.
const LAYERS: [(&str, bool); 7] = [
    ("shard.query", false),
    ("shard.part", true),
    ("translate.plan", true),
    ("exec.primary", true),
    ("exec.outliers", true),
    ("exec.detailed", true),
    ("exec.primary_untranslated", true),
];

/// One call into a layer's public function.
fn call(
    layer: &str,
    service: &ShardedHandle,
    snap: &ShardedSnapshot,
    s: usize,
    q: &RangeQuery,
    out: &mut Vec<RowId>,
) -> ScanStats {
    let idx: &CoaxIndex = snap.shard(s).frozen();
    match layer {
        "shard.query" => service.range_query_stats(q, out),
        "shard.part" => service.shard_handle(s).range_query_stats(q, out),
        "translate.plan" => {
            black_box(idx.plan(q));
            ScanStats::default()
        }
        "exec.primary" => idx.query_primary(q, out),
        "exec.outliers" => idx.query_outliers(q, out),
        "exec.detailed" => idx.query_detailed(q, out).flatten(),
        "exec.primary_untranslated" => idx.query_primary_untranslated(q, out),
        _ => unreachable!("unknown layer {layer}"),
    }
}

/// Times every layer on every pool query, one pass over the pool per
/// layer: within a pass consecutive calls touch different queries' data,
/// so each call meets the cache the way the end-to-end loop's calls do
/// (a query-major order would hand every call after the first a warm
/// cache). Each pass is a parent span; its calls carry the query id
/// `round * pool.len() + i`, which joins one query's calls across passes.
fn decompose(tr: &mut Tracer, service: &ShardedHandle, pool: &[RangeQuery], round: usize) {
    let snap = service.snapshot();
    let mut out: Vec<RowId> = Vec::new();
    for (layer, per_shard) in LAYERS {
        let pass = tr.open("pass", None, round as u64);
        let shards = if per_shard { service.shard_count() } else { 1 };
        for (i, q) in pool.iter().enumerate() {
            let qid = (round * pool.len() + i) as u64;
            for s in 0..shards {
                out.clear();
                let stats = tr.time(layer, Some(pass), qid, || {
                    call(layer, service, &snap, s, q, &mut out)
                });
                tr.count_last(stats);
            }
        }
        tr.close(pass);
    }
}

/// Folds the decomposition spans back into one record per query id.
fn per_query(tr: &Tracer, queries: usize) -> Vec<Decomposed> {
    let mut out = vec![Decomposed::default(); queries];
    for s in &tr.spans {
        let Some(d) = out.get_mut(s.query as usize) else { continue };
        if s.parent.is_none_or(|p| tr.spans[p].name != "pass") {
            continue;
        }
        let ns = s.ns();
        match s.name {
            "shard.query" => d.sharded += ns,
            "shard.part" => d.parts += ns,
            "translate.plan" => d.translate += ns,
            "exec.primary" => {
                d.primary += ns;
                d.primary_rows += s.rows as usize;
                d.primary_cells += s.cells as usize;
            }
            "exec.outliers" => {
                d.outlier += ns;
                d.outlier_rows += s.rows as usize;
            }
            "exec.detailed" => d.detailed += ns,
            "exec.primary_untranslated" => d.untranslated_rows += s.rows as usize,
            _ => {}
        }
    }
    out
}

fn median_of(records: &[Decomposed], f: impl Fn(&Decomposed) -> f64) -> f64 {
    median(&records.iter().map(f).collect::<Vec<_>>())
}

/// Alternating passes over the pool on two services; returns each one's
/// median latency (µs). `trace_b` wraps every call on `b` in a `query`
/// span with one child, as the traced pass does.
fn alternate(
    tr: &mut Tracer,
    a: &ShardedHandle,
    b: &ShardedHandle,
    trace_b: bool,
    pool: &[RangeQuery],
    rounds: usize,
) -> (f64, f64) {
    let (mut la, mut lb) = (Vec::new(), Vec::new());
    let mut out: Vec<RowId> = Vec::new();
    for _ in 0..rounds {
        for q in pool {
            out.clear();
            let t = Instant::now();
            a.range_query_stats(black_box(q), &mut out);
            la.push(t.elapsed().as_secs_f64() * 1e6);
        }
        for (i, q) in pool.iter().enumerate() {
            out.clear();
            if trace_b {
                let root = tr.open("traced.query", None, i as u64);
                tr.time("traced.call", Some(root), i as u64, || {
                    b.range_query_stats(q, &mut out)
                });
                tr.close(root);
                lb.push(tr.spans[root].ns() / 1e3);
            } else {
                let t = Instant::now();
                b.range_query_stats(black_box(q), &mut out);
                lb.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    (median(&la), median(&lb))
}

pub fn run(
    opts: &Options,
    sizes: &Sizes,
    inputs: &Inputs,
    tally: &mut Tally,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut tr = Tracer::default();
    let base = &inputs.base;
    let pool = &inputs.pool;
    let config = service_config(ObsConfig::default());
    let reps = 3;

    // --- build layers ----------------------------------------------------
    let (discovery, discovery_s) = build_median(&mut tr, "discovery.discover", reps, || {
        discover(base, &config.discovery, config.seed)
    });
    let models: Vec<FdModel> = discovery.all_models().cloned().collect();
    let (_, split_s) =
        build_median(&mut tr, "learn.split_rows", reps, || split_rows(base, &models));
    let unsharded = CoaxConfig { shard: Default::default(), ..config.clone() };
    let (index, index_s) = build_median(&mut tr, "index.build", reps, || {
        CoaxIndex::build_with_discovery(base, discovery.clone(), &unsharded)
    });
    let (primary_ratio, primary_bytes, outlier_bytes) =
        (index.primary_ratio(), index.primary_overhead(), index.outlier_overhead());
    drop(index);
    let (service, shard_s) = build_median(&mut tr, "shard.build", reps, || {
        ShardedHandle::build_with_discovery(base, discovery.clone(), &config)
    });
    let lens: Vec<f64> =
        (0..service.shard_count()).map(|s| service.shard_handle(s).len() as f64).collect();
    let imbalance = lens.iter().cloned().fold(0.0, f64::max) * lens.len() as f64
        / lens.iter().sum::<f64>().max(1.0);

    // --- correctness gate and the scan kernel ------------------------------
    let oracle = Oracle::new(base, pool, tally);
    let digests = gate(&service, &oracle, pool, opts.corrupt, tally);
    drop(oracle);
    let scan = FullScan::build(base);
    let scanned = pool.len().min(16);
    let t = Instant::now();
    for q in &pool[..scanned] {
        let mut out: Vec<RowId> = Vec::new();
        tr.time("kernel.fullscan", None, 0, || scan.range_query_stats(q, &mut out));
    }
    let fullscan_mrows_s = (scanned * base.len()) as f64 / t.elapsed().as_secs_f64() / 1e6;
    drop(scan);

    // --- query layers: one pass over the pool per layer call ---------------
    let rounds = if opts.tiny { 1 } else { 2 };
    for round in 0..rounds {
        decompose(&mut tr, &service, pool, round);
    }
    let records = per_query(&tr, rounds * pool.len());
    let us = |ns: f64| ns / 1e3;
    let primary_self = |d: &Decomposed| d.primary - d.translate;
    let total_rows: usize = records.iter().map(|d| d.primary_rows).sum();
    let nq = records.len().max(1) as f64;

    // --- tracing and observability overheads --------------------------------
    let rounds = if opts.tiny { 1 } else { 4 };
    let (untraced_us, traced_us) = alternate(&mut tr, &service, &service, true, pool, rounds);
    let quiet = ShardedHandle::build_with_discovery(
        base,
        discovery.clone(),
        &service_config(ObsConfig::disabled()),
    );
    let (obs_on_us, obs_off_us) = alternate(&mut tr, &service, &quiet, false, pool, rounds);
    drop(quiet);

    // --- batch engine versus the sequential loop on one snapshot ----------
    let snap = service.snapshot();
    let (mut seq_s, mut batch_s) = (0.0, 0.0);
    for (c, chunk) in pool.chunks(sizes.batch).enumerate() {
        let t = Instant::now();
        for q in chunk {
            let mut out: Vec<RowId> = Vec::new();
            tr.time("exec.sequential", None, c as u64, || snap.range_query_stats(q, &mut out));
        }
        seq_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let results = tr.time("exec.batch", None, c as u64, || snap.batch_query(chunk));
        batch_s += t.elapsed().as_secs_f64();
        for (k, r) in results.iter().enumerate() {
            tally.record(crate::util::digest(&r.ids) == digests[c * sizes.batch + k]);
        }
    }
    drop(snap);

    // --- write path and maintenance ----------------------------------------
    let (mut log, pending): (WriteLog, Vec<usize>) = match opts.workload {
        Workload::RangeAirline | Workload::PointOsm => {
            let mut pending = Vec::new();
            let mut out: Vec<RowId> = Vec::new();
            let log = write_rows(
                &service,
                &inputs.extra,
                base.len(),
                sizes.maintain_every,
                Maint::PerShard,
                None,
                &AtomicBool::new(false),
                &mut |j| {
                    if j % 64 == 63 {
                        out.clear();
                        let stats = service.range_query_stats(&pool[j % pool.len()], &mut out);
                        pending.push(stats.scanned_pending);
                    }
                },
            );
            tally.add(log.tally);
            (log, pending)
        }
        Workload::IngestDrift => {
            let window = Duration::from_secs_f64(ingest_window(opts.seconds) * 0.5);
            let run = open_loop(
                &service,
                base,
                &inputs.extra,
                pool,
                sizes.query_rate,
                sizes.insert_rate,
                sizes.maintain_every,
                Maint::PerShard,
                window,
                tally,
            );
            (run.write, run.pending)
        }
    };
    let inserted = log.inserted;
    // One forced fold and one forced refit per shard, so both actions are
    // timed on every workload whatever the policy chose above.
    for s in 0..service.shard_count() {
        let h = service.shard_handle(s);
        let id = tr.open("maint.fold", None, s as u64);
        h.fold();
        tr.close(id);
        log.fold_ms.push(tr.spans[id].ns() / 1e6);
        let id = tr.open("maint.refit", None, s as u64);
        h.refit();
        tr.close(id);
        log.refit_ms.push(tr.spans[id].ns() / 1e6);
    }
    final_check(&service, inputs, inserted, tally);
    let insert_us = sorted(log.insert_us.clone());

    if let Some(dir) = &opts.span_dir {
        let path = dir.join(format!("spans-{}-seed{}.jsonl", opts.workload.name(), opts.seed));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("warning: could not write spans to {}: {e}", path.display());
        }
    }
    Ok(vec![
        ("discovery.build_s", discovery_s),
        ("learn.split_s", split_s),
        ("index.build_s", index_s),
        ("index.primary_ratio", primary_ratio),
        ("index.primary_bytes", primary_bytes as f64),
        ("index.outlier_bytes", outlier_bytes as f64),
        ("shard.build_s", shard_s),
        ("shard.fanout_us", us(median_of(&records, |d| d.sharded - d.parts))),
        ("shard.imbalance", imbalance),
        ("translate.us", us(median_of(&records, |d| d.translate))),
        (
            "translate.pruning_ratio",
            records.iter().map(|d| d.untranslated_rows).sum::<usize>() as f64
                / total_rows.max(1) as f64,
        ),
        ("exec.primary_us", us(median_of(&records, primary_self))),
        ("exec.outlier_us", us(median_of(&records, |d| d.outlier))),
        ("exec.rest_us", us(median_of(&records, |d| d.detailed - d.primary - d.outlier))),
        ("exec.primary_rows_per_query", total_rows as f64 / nq),
        (
            "exec.primary_cells_per_query",
            records.iter().map(|d| d.primary_cells).sum::<usize>() as f64 / nq,
        ),
        (
            "exec.outlier_rows_per_query",
            records.iter().map(|d| d.outlier_rows).sum::<usize>() as f64 / nq,
        ),
        ("exec.batch_speedup", seq_s / batch_s),
        ("kernel.fullscan_mrows_s", fullscan_mrows_s),
        (
            "kernel.primary_ns_per_row",
            records.iter().map(primary_self).sum::<f64>() / total_rows.max(1) as f64,
        ),
        ("maint.insert_us", quantile(&insert_us, 0.5)),
        ("maint.insert_p99_us", quantile(&insert_us, 0.99)),
        ("maint.fold_ms", median(&log.fold_ms)),
        ("maint.refit_ms", median(&log.refit_ms)),
        ("maint.folds", log.fold_ms.len() as f64),
        ("maint.refits", log.refit_ms.len() as f64),
        (
            "maint.pending_rows_per_query",
            pending.iter().sum::<usize>() as f64 / pending.len().max(1) as f64,
        ),
        ("obs.overhead_frac", obs_on_us / obs_off_us - 1.0),
        ("trace.overhead_frac", traced_us / untraced_us - 1.0),
    ])
}
