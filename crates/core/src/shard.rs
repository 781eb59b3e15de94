//! The index service: rows partitioned across N ≥ 1 independent
//! [`IndexHandle`] shards, queries routed to the shards that can hold a
//! match and merged.
//!
//! [`ShardedHandle`] is the one live service and [`ShardedSnapshot`] its
//! one read session, whatever the shard count; the default
//! [`ShardSpec`] is one shard. One [`IndexHandle`] serialises every
//! insert behind one overlay lock and every fold/refit behind one
//! publish point. More shards remove that ceiling by partitioning rows on
//! one **shard key** attribute:
//!
//! ```text
//!                    ShardedHandle
//!       route(row[key_dim]) ── hash or range router
//!       next global id ─────── allocated under the shard's insert lock
//!      ┌──────────────┬──────────────┬──────────────┐
//!      │  shard 0     │  shard 1     │  shard N−1   │
//!      │ IndexHandle  │ IndexHandle  │ IndexHandle  │   per-shard epochs,
//!      │ epoch e₀     │ epoch e₁     │ epoch e₂     │   overlays, drift
//!      │ (global ids) │ (global ids) │ (global ids) │   monitors
//!      └──────┬───────┴──────┬───────┴──────┬───────┘
//!             └── shards_for(query) ── the shards a match can live in;
//!                 read those, cut at the publish watermark,
//!                 concatenate in shard order, merge ScanStats
//!                 componentwise ──▶ one result
//! ```
//!
//! * **Shard-key selection** is correlation-aware: by default
//!   ([`ShardKey::Auto`]) the key is the predictor of the discovered
//!   correlation group with the most dependent models (soft FDs keep
//!   per-group models independent, so partitioning on a predictor
//!   composes with per-shard refits), falling back to dimension 0 when
//!   nothing correlates. [`ShardKey::Hash`]/[`ShardKey::Range`] override
//!   the routing and the dimension explicitly.
//! * **Per-shard epochs**: each shard runs its own drift monitor and
//!   [`Maintainer`] — a refit on one shard builds and publishes entirely
//!   inside that shard's handle, so the other N−1 shards' readers never
//!   block on it and their epoch counters do not move (pinned by the
//!   independent-maintenance test).
//! * **One discovery**: soft-FD discovery runs once over the full build
//!   dataset and every shard is built from that shared result, so all
//!   shards translate queries identically at epoch 0.
//! * **Global ids**: a row's id is assigned once and never translated.
//!   Each shard is built over its members' global ids, and an insert
//!   allocates the next global id under the owning shard's insert lock
//!   and hands it to the shard, so every shard stores, and every query
//!   emits, the caller's ids directly. Each shard's ids ascend in insert
//!   order.
//! * **Reads are a consistent cut**: inserts advance a global publish
//!   watermark in id order once their row is visible. A live read loads
//!   it before fanning out, and [`ShardedHandle::snapshot`] loads it
//!   before capturing the shards; both drop every id at or above it.
//!   Shards are read (or captured) at different instants, but the result
//!   holds exactly the matching rows inserted before the watermark — for
//!   the whole id space, a dense prefix. A snapshot skips the filter when
//!   no id at or above the watermark had been allocated by the end of its
//!   capture, so reads without concurrent inserts pay nothing.
//!
//! # Routing reads
//!
//! A row's shard is a function of its key alone, so the router also
//! names, from the query alone, the shards a match can live in
//! ([`ShardedHandle::shards_for`]), and every read surface visits only
//! those:
//!
//! * a **hash** key names one shard when the query pins the key to one
//!   value (`lo == hi`, a point query), and every shard otherwise;
//! * a **range** key names the shards from `route(lo)` to `route(hi)`
//!   when `lo <= hi`, and every shard otherwise.
//!
//! Keys are routed as `key + 0.0`, in `route`, in `shards_for` and in the
//! range cut points, so `−0.0` and `+0.0` — equal to
//! [`RangeQuery::matches`] — share a shard. Inserts route by the same
//! function and folds and refits never move a row between shards, so
//! every row matching a query routes into the shards it names, whatever
//! was inserted or maintained since the build (pinned by the router
//! soundness suite). A skipped shard runs nothing: no span, no overlay
//! scan, no epoch probe.
//!
//! # Merge policy and stats contract
//!
//! Results concatenate in **shard order** (shard 0's ids first), with
//! each shard's internal order preserved; aggregated [`ScanStats`] are
//! the componentwise [`ScanStats::merge`] of the per-shard stats of the
//! shards `shards_for` names, in the same order. So:
//!
//! * `matches` equals a one-shard service's (the same rows match);
//! * `scanned_pending` counts exactly the overlays of the shards
//!   `shards_for` names, each buffered row of them scanned once;
//! * `cells_visited` / `rows_examined` may differ at N > 1 (smaller
//!   directories are probed instead of one big one, and fewer of them).
//!
//! At one shard, before any insert, ids, order and stats are
//! bit-identical to a bare [`CoaxIndex`] built with the same config.
//! Every query surface of the service — single, batch, streaming,
//! cursor, live or snapshot — visits the same shards and reports
//! **identical** ids and stats for the same version of the data,
//! whatever the thread count (pinned by the cross-shard equivalence
//! suite).
//!
//! # Execution
//!
//! Every parallel path runs on the exec layer's one worker pool
//! ([`crate::exec`]), sized by the service's [`ExecConfig`]. A single
//! query that names one shard runs on the calling thread, straight into
//! the caller's buffer; one that names several is one pool task per
//! shard. A batch is deduplicated once for the whole service; each pool
//! task answers one chunk of distinct queries, each on the shards it
//! names, merged in shard order, and a [`BatchStream`] is the same run
//! driven from one detached thread.

use crate::discovery::{discover, Discovery};
use crate::exec::{self, BatchStream, ExecConfig};
use crate::index::{check_row, CoaxConfig, CoaxIndex, InsertError};
use crate::maint::{IndexHandle, Maintainer, MaintenanceAction, ReadSnapshot};
use crate::obs::Obs;
use coax_data::{Dataset, RangeQuery, RowId, Value};
use coax_index::{CursorSource, MultidimIndex, QueryResult, RowCursor, ScanStats};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How rows are routed to shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardKey {
    /// Correlation-aware default: hash-route on the predictor of the
    /// discovered group with the most models (ties break to the lowest
    /// predictor), or dimension 0 when nothing correlates.
    #[default]
    Auto,
    /// Hash-route on an explicit dimension: uniform occupancy whatever
    /// the key distribution, no locality.
    Hash {
        /// The routing attribute.
        dim: usize,
    },
    /// Range-route on an explicit dimension: shard boundaries are the
    /// build dataset's quantile cut points, so shards hold contiguous
    /// key ranges (range queries on the key touch few shards).
    Range {
        /// The routing attribute.
        dim: usize,
    },
}

/// Row-partitioning policy carried in [`CoaxConfig::shard`]: how many
/// shards [`ShardedHandle`] builds and how rows route to them. The
/// boxed factory path ([`crate::IndexSpec::build`]) builds the service
/// when `shards > 1` and a frozen [`CoaxIndex`] otherwise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of shards; `0` and `1` both mean one shard (the default),
    /// which before any insert answers bit-identically to a bare
    /// [`CoaxIndex`] — the equivalence suite's anchor case.
    pub shards: usize,
    /// Shard-key selection and routing policy.
    pub key: ShardKey,
}

impl ShardSpec {
    /// `shards` shards with correlation-aware key selection.
    pub fn auto(shards: usize) -> Self {
        ShardSpec { shards, key: ShardKey::Auto }
    }

    /// `shards` shards hash-routed on `dim`.
    pub fn hash(shards: usize, dim: usize) -> Self {
        ShardSpec { shards, key: ShardKey::Hash { dim } }
    }

    /// `shards` shards range-routed on `dim`.
    pub fn range(shards: usize, dim: usize) -> Self {
        ShardSpec { shards, key: ShardKey::Range { dim } }
    }

    /// The effective shard count (`max(shards, 1)`).
    pub fn count(&self) -> usize {
        self.shards.max(1)
    }
}

/// The resolved routing function over shard-key values: which shard a
/// row belongs to, and which shards a query can match in. The key's
/// dimension lives in [`ShardState::key_dim`].
///
/// Keys are routed as `key + 0.0`, which folds `−0.0` into `+0.0`:
/// [`RangeQuery::matches`] treats the two as equal, so they must share a
/// shard for a read that visits one shard to find both.
#[derive(Clone, Debug)]
enum Router {
    /// `splitmix64(key.to_bits()) % shards`.
    Hash { shards: usize },
    /// `bounds` are ascending cut points (len `shards − 1`, no `−0.0`); a
    /// row goes to the first bucket whose cut point exceeds its key.
    Range { bounds: Vec<Value> },
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash for routing.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Router {
    /// The shard a row whose key is `key` lives in. Keys are finite: a
    /// [`Dataset`] and an insert both refuse non-finite values.
    fn route(&self, key: Value) -> usize {
        let key = key + 0.0;
        match self {
            Router::Hash { shards } => (splitmix64(key.to_bits()) % *shards as u64) as usize,
            Router::Range { bounds } => bounds.partition_point(|b| b.total_cmp(&key).is_le()),
        }
    }

    /// The shards a row whose key lies in `[lo, hi]` can live in,
    /// ascending: the one shard of a hash key pinned to one value, the
    /// shards a range key's interval spans, and otherwise every shard.
    fn shards_for(&self, lo: Value, hi: Value) -> Range<usize> {
        match self {
            Router::Hash { .. } if lo == hi => {
                let s = self.route(lo);
                s..s + 1
            }
            Router::Hash { shards } => 0..*shards,
            // Routing is monotone in the key, so every key in `[lo, hi]`
            // routes between the bounds' shards.
            Router::Range { .. } if lo <= hi => self.route(lo)..self.route(hi) + 1,
            Router::Range { bounds } => 0..bounds.len() + 1,
        }
    }
}

/// Picks the shard-key dimension for [`ShardKey::Auto`]: the predictor
/// of the group with the most models, ties to the lowest predictor,
/// dimension 0 when nothing correlates.
fn auto_key_dim(discovery: &Discovery) -> usize {
    discovery
        .groups
        .iter()
        .max_by(|a, b| {
            (a.models.len(), std::cmp::Reverse(a.predictor))
                .cmp(&(b.models.len(), std::cmp::Reverse(b.predictor)))
        })
        .map_or(0, |g| g.predictor)
}

/// `shards − 1` ascending quantile cut points of `column`, for
/// [`Router::Range`], canonicalised like a routed key. Equal-occupancy
/// by construction on the build data.
fn quantile_bounds(column: &[Value], shards: usize) -> Vec<Value> {
    let mut sorted: Vec<Value> = column.to_vec();
    sorted.sort_unstable_by(|a, b| a.total_cmp(b));
    (1..shards)
        .map(|k| {
            if sorted.is_empty() {
                k as Value
            } else {
                sorted[(k * sorted.len() / shards).min(sorted.len() - 1)] + 0.0
            }
        })
        .collect()
}

/// The publish-watermark cut every cross-shard read applies: drops the
/// ids at or above `cut` from `ids[from..]`, keeping the order of the
/// rest, and takes them out of `stats.matches`.
fn drop_unpublished(cut: u64, ids: &mut Vec<RowId>, from: usize, stats: &mut ScanStats) {
    let (found, mut pos) = (ids.len(), 0);
    ids.retain(|&gid| {
        pos += 1;
        pos <= from || u64::from(gid) < cut
    });
    stats.matches -= found - ids.len();
}

/// Everything the shards share, behind one `Arc` so snapshots and
/// detached streams can outlive the caller's borrow.
#[derive(Debug)]
struct ShardState {
    dims: usize,
    key_dim: usize,
    router: Router,
    /// One live-maintained handle per shard, storing global ids; `Arc` so
    /// callers can hang per-shard [`Maintainer`]s off them.
    handles: Vec<Arc<IndexHandle>>,
    /// Next global row id; also the logical row count. Refused inserts
    /// past the id space advance it too (see [`ShardedHandle::insert`]).
    next_global: AtomicU64,
    /// Publish watermark: every global id below it belongs to an insert
    /// that has returned. Inserts advance it in id order (see
    /// [`PublishTicket`]); a live read loads it once before fanning out,
    /// a snapshot before capturing the shards, and both drop every id at
    /// or above it.
    published: AtomicU64,
    /// Pool size of the shard fan-out and the sharded batch engine.
    exec: ExecConfig,
    /// The service's recorder (the build config's, unlabelled by
    /// default): sharded batches record their chunks, `batch_pool` event,
    /// stream depth and time-to-first-result here.
    obs: Obs,
}

impl ShardState {
    /// The shards a row matching `query` can live in: the router's
    /// answer for the query's interval on the key dimension.
    fn shards_for(&self, query: &RangeQuery) -> Range<usize> {
        self.router.shards_for(query.lo(self.key_dim), query.hi(self.key_dim))
    }

    /// Answers `query` on the shards it can match in
    /// ([`ShardState::shards_for`]) — `answer(s, ids)` appends shard `s`'s
    /// ids — and concatenates the results into `out` in shard order, cut
    /// at `cut`. Stats merge componentwise in the same order. One shard
    /// answers on the calling thread straight into `out`, skipping the
    /// pool path's per-shard parts and copy (6% of a `point-osm` point
    /// query's p50, 0.70 → 0.66 µs on a 2-vCPU VM); several fan out over
    /// the exec pool.
    fn query_shards(
        &self,
        query: &RangeQuery,
        cut: Option<u64>,
        out: &mut Vec<RowId>,
        answer: impl Fn(usize, &mut Vec<RowId>) -> ScanStats + Sync,
    ) -> ScanStats {
        let shards = self.shards_for(query);
        if shards.len() == 1 {
            let start = out.len();
            let mut stats = answer(shards.start, out);
            if let Some(cut) = cut {
                drop_unpublished(cut, out, start, &mut stats);
            }
            return stats;
        }
        let mut parts = vec![(Vec::new(), ScanStats::default()); shards.len()];
        exec::run_pool(
            self.exec.pool_threads(shards.len()),
            shards.len(),
            |i| {
                let mut ids = Vec::new();
                let mut stats = answer(shards.start + i, &mut ids);
                if let Some(cut) = cut {
                    drop_unpublished(cut, &mut ids, 0, &mut stats);
                }
                (ids, stats)
            },
            |i, part| {
                parts[i] = part;
                true
            },
        );
        let mut stats = ScanStats::default();
        for (ids, part) in parts {
            out.extend_from_slice(&ids);
            stats = stats.merge(part);
        }
        stats
    }
}

/// Advances the publish watermark past `gid` when dropped, once every
/// lower id has been admitted. It drops on every exit from an insert —
/// return, error or unwind — so a failed insert never stalls the
/// writers behind it (its id stays a hole in the id space).
struct PublishTicket<'a> {
    watermark: &'a AtomicU64,
    gid: u64,
}

impl Drop for PublishTicket<'_> {
    fn drop(&mut self) {
        // Every lower id is already allocated to an insert that needs no
        // lock this writer holds, so the wait lasts at most as long as
        // the concurrent inserts in flight. `Acquire`/`Release` chain
        // the admissions, so a reader that loads the watermark sees
        // every admitted insert's row.
        while self.watermark.load(Ordering::Acquire) != self.gid {
            std::thread::yield_now();
        }
        self.watermark.store(self.gid + 1, Ordering::Release);
    }
}

/// The live-maintained COAX index service: rows partitioned across
/// N ≥ 1 independent [`IndexHandle`] shards, single/batch/streaming
/// queries read from the shards that can hold a match and merged back
/// under the module-level stats contract, inserts validated, routed by
/// the shard key and given their ids, and maintenance running per shard
/// so a refit never stalls the other N−1.
///
/// Implements [`MultidimIndex`], so it slots behind the factory and
/// every spec-driven comparison path like any frozen index — queries
/// just also see the shards' insert overlays, charged to
/// [`ScanStats::scanned_pending`]. Cheap to clone (one `Arc`).
#[derive(Clone, Debug)]
pub struct ShardedHandle {
    core: Arc<ShardState>,
}

impl ShardedHandle {
    /// Builds the sharded service over `dataset` under `config`:
    /// discovery runs **once** on the full dataset, the shard key is
    /// resolved from `config.shard` (and, for [`ShardKey::Auto`] /
    /// [`ShardKey::Range`], from the discovery result and the key
    /// column), rows are routed, and one [`IndexHandle`] is built per
    /// shard over its member rows with the shared discovery.
    pub fn build(dataset: &Dataset, config: &CoaxConfig) -> Self {
        let discovery = discover(dataset, &config.discovery, config.seed);
        Self::build_with_discovery(dataset, discovery, config)
    }

    /// [`ShardedHandle::build`] from an externally supplied discovery
    /// result (shared-discovery sweeps, the factory's
    /// [`crate::IndexSpec::Coax`] path).
    pub fn build_with_discovery(
        dataset: &Dataset,
        discovery: Discovery,
        config: &CoaxConfig,
    ) -> Self {
        let dims = dataset.dims();
        assert_eq!(discovery.dims, dims, "discovery dimensionality mismatch");
        let shards = config.shard.count();
        let key_dim = match config.shard.key {
            ShardKey::Auto => auto_key_dim(&discovery),
            ShardKey::Hash { dim } | ShardKey::Range { dim } => dim,
        };
        assert!(key_dim < dims.max(1), "shard key dimension {key_dim} out of range");
        let router = match config.shard.key {
            ShardKey::Range { .. } => {
                Router::Range { bounds: quantile_bounds(dataset.column(key_dim), shards) }
            }
            _ => Router::Hash { shards },
        };

        // Route every build row by its key; shard s is built over its
        // members under their global ids.
        let mut members: Vec<Vec<RowId>> = vec![Vec::new(); shards];
        for (id, &key) in dataset.row_ids().zip(dataset.column(key_dim)) {
            members[router.route(key)].push(id);
        }

        let handles = members
            .iter()
            .enumerate()
            .map(|(s, rows)| {
                let mut shard_config = config.clone();
                // The shard is a leaf: no nested sharding, shard-labelled
                // observability (labels count up from the config's own,
                // 0 when unlabelled), and the inner batch engine stays on
                // its calling thread — the service's pool fans out instead.
                shard_config.shard = ShardSpec::default();
                let label = config.obs.shard.unwrap_or(0).saturating_add(s as u32);
                shard_config.obs = config.obs.for_shard(label);
                shard_config.exec.batch_threads = 1;
                Arc::new(IndexHandle::new(CoaxIndex::build_with_ids(
                    &dataset.take_rows(rows),
                    rows,
                    discovery.clone(),
                    &shard_config,
                )))
            })
            .collect();
        ShardedHandle {
            core: Arc::new(ShardState {
                dims,
                key_dim,
                router,
                handles,
                next_global: AtomicU64::new(dataset.len() as u64),
                published: AtomicU64::new(dataset.len() as u64),
                exec: config.exec,
                obs: Obs::new(&config.obs),
            }),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.core.handles.len()
    }

    /// The resolved shard-key dimension rows are routed on.
    pub fn key_dim(&self) -> usize {
        self.core.key_dim
    }

    /// The shard `row` routes to, after the checks an insert runs: a row
    /// that is not `dims` finite values is refused with the
    /// [`InsertError`] [`ShardedHandle::insert`] returns for it.
    pub fn route(&self, row: &[Value]) -> Result<usize, InsertError> {
        check_row(self.core.dims, row)?;
        Ok(self.core.router.route(row[self.core.key_dim]))
    }

    /// The shards a row matching `query` can live in, ascending — the
    /// only shards every read of `query` visits. A query that pins a hash
    /// key to one value names that value's shard; a range key names the
    /// shards its interval spans; any other query names every shard.
    /// Every row matching `query` routes into this range, whatever was
    /// inserted, folded or refit since the build.
    pub fn shards_for(&self, query: &RangeQuery) -> Range<usize> {
        self.core.shards_for(query)
    }

    /// Shard `s`'s live handle — hang a per-shard [`Maintainer`] off it,
    /// or inspect its epoch/drift directly.
    pub fn shard_handle(&self, s: usize) -> &Arc<IndexHandle> {
        &self.core.handles[s]
    }

    /// One [`Maintainer`] per shard, each driving only its own shard —
    /// run them on independent writer threads so a refit on one shard
    /// never stalls the others.
    pub fn maintainers(&self) -> Vec<Maintainer> {
        self.core.handles.iter().map(|h| Maintainer::new(Arc::clone(h))).collect()
    }

    /// Every shard's current epoch counter, in shard order.
    pub fn epochs(&self) -> Vec<u64> {
        self.core.handles.iter().map(|h| h.epoch()).collect()
    }

    /// Runs one policy-driven maintenance decision on every shard (the
    /// ad-hoc equivalent of one tick of each maintainer), in shard
    /// order.
    pub fn maintain_all(&self) -> Vec<MaintenanceAction> {
        self.core.handles.iter().map(|h| h.maintain()).collect()
    }

    /// Rows buffered across all shards (the sum of per-shard
    /// [`IndexHandle::pending_len`]).
    pub fn pending_len(&self) -> usize {
        self.core.handles.iter().map(|h| h.pending_len()).sum()
    }

    /// Inserts a row: validated, routed by the shard key, and handed to
    /// the owning shard, which draws the next global id under its insert
    /// lock (so each shard's ids ascend in insert order) and publishes
    /// the row under that id. Before returning, the insert advances the
    /// publish watermark past its id, after every lower id — also when
    /// the id no longer fits a [`RowId`] and the insert is refused with
    /// [`InsertError::IdsExhausted`].
    pub fn insert(&self, row: &[Value]) -> Result<RowId, InsertError> {
        let core = &*self.core;
        let shard = self.route(row)?;
        let mut ticket = None;
        let result = core.handles[shard].insert_with(row, || {
            let gid = core.next_global.fetch_add(1, Ordering::Relaxed);
            ticket = Some(PublishTicket { watermark: &core.published, gid });
            RowId::try_from(gid).map_err(|_| InsertError::IdsExhausted)
        });
        // The shard's locks are released: admit the id.
        drop(ticket);
        result
    }

    /// Opens a cross-shard read session: one [`ReadSnapshot`] per shard,
    /// taken in a single pass with **no global lock** — each shard's
    /// epoch/overlay pair is internally consistent (cloned under that
    /// shard's own read guard), and holds its rows under their global
    /// ids.
    ///
    /// The publish watermark is loaded before the capture, and every
    /// surface of the session drops ids at or above it, so the session
    /// holds a dense prefix of the id space even while inserts land on
    /// several shards. When no id at or above the watermark had been
    /// allocated by the end of the capture, no shard can hold one and the
    /// session carries no cut at all.
    pub fn snapshot(&self) -> ShardedSnapshot {
        let core = &self.core;
        let published = core.published.load(Ordering::Acquire);
        let shards = core.handles.iter().map(|h| h.snapshot()).collect();
        // An insert allocates its id before publishing the row under the
        // shard's state lock, which the capture then acquired: every
        // captured id's allocation happens before this load, so the load
        // sees it.
        let cut = (core.next_global.load(Ordering::Relaxed) > published).then_some(published);
        ShardedSnapshot { core: Arc::clone(core), shards, cut }
    }
}

impl MultidimIndex for ShardedHandle {
    fn name(&self) -> &str {
        "coax-sharded"
    }

    fn dims(&self) -> usize {
        self.core.dims
    }

    /// Ids allocated so far, refused ones past the id space excluded.
    fn len(&self) -> usize {
        let next = self.core.next_global.load(Ordering::Relaxed);
        next.min(u64::from(RowId::MAX) + 1) as usize
    }

    /// Fans the query out across the shards it can match in (each shard
    /// answering through its handle's inline one-query session) and
    /// merges per the module-level policy.
    ///
    /// The shards are read one after another, so inserts can land
    /// between two shard reads. The read therefore loads the publish
    /// watermark first and drops every id at or above it (and its
    /// `matches`): every id below it was published before any shard was
    /// read, so the result holds exactly the matching rows inserted
    /// before the watermark — a consistent cut, which for the whole id
    /// space is a dense prefix.
    fn range_query_stats(&self, query: &RangeQuery, out: &mut Vec<RowId>) -> ScanStats {
        let core = &self.core;
        let cut = core.published.load(Ordering::Acquire);
        core.query_shards(query, Some(cut), out, |s, ids| {
            core.handles[s].range_query_stats(query, ids)
        })
    }

    /// One cross-shard snapshot for the whole batch (see
    /// [`ShardedSnapshot::batch_query`]).
    fn batch_query(&self, queries: &[RangeQuery]) -> Vec<QueryResult> {
        self.snapshot().batch_query(queries)
    }

    /// Every row of a snapshot taken now: a dense prefix of the id space.
    fn for_each_entry(&self, f: &mut dyn FnMut(RowId, &[Value])) {
        self.snapshot().for_each_entry(f)
    }

    /// Per-shard directory and model overhead of the current epochs.
    fn memory_overhead(&self) -> usize {
        self.snapshot().memory_overhead()
    }
}

/// The service's one read session: a vector of per-shard
/// [`ReadSnapshot`]s taken in one pass, cut at the publish watermark
/// loaded before the capture. Every query through it — point, range,
/// batch, cursor, streaming — sees exactly the captured per-shard
/// versions below the cut, a dense prefix of the id space, while inserts
/// and per-shard refits keep landing on the live [`ShardedHandle`]
/// (pinned by the sharded snapshot-isolation test). Cheap to clone;
/// `Send + Sync`, so one session can fan out across reader threads.
#[derive(Clone, Debug)]
pub struct ShardedSnapshot {
    core: Arc<ShardState>,
    shards: Vec<ReadSnapshot>,
    /// The publish watermark every surface cuts at; `None` when no
    /// captured shard can hold an id at or above it.
    cut: Option<u64>,
}

impl ShardedSnapshot {
    /// The per-shard epochs this session reads, in shard order.
    pub fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.epoch()).collect()
    }

    /// Shard `s`'s frozen snapshot.
    pub fn shard(&self, s: usize) -> &ReadSnapshot {
        &self.shards[s]
    }

    /// Streaming batch execution against this session: the batch is
    /// deduplicated once and each distinct query answered on the shards
    /// it can match in, on the exec pool driven by one detached thread —
    /// `(query_index, QueryResult)` pairs in completion order, each
    /// bit-identical to [`ShardedSnapshot::batch_query`] at that index.
    /// Dropping the stream cancels the remaining work.
    pub fn batch_query_streaming(&self, queries: &[RangeQuery]) -> BatchStream {
        let session = self.clone();
        BatchStream::spawn(queries, self.core.exec, self.core.obs.clone(), move |query, ids| {
            session.answer_batched(query, ids)
        })
    }

    /// Answers one query of a batch on the shards it can match in, in
    /// shard order — each shard's part in its single-query order
    /// (overlay, then epoch) — and cuts the result at the watermark.
    fn answer_batched(&self, query: &RangeQuery, out: &mut Vec<RowId>) -> ScanStats {
        let (start, mut stats) = (out.len(), ScanStats::default());
        for shard in &self.shards[self.core.shards_for(query)] {
            stats = stats.merge(shard.answer_batched(query, out));
        }
        if let Some(cut) = self.cut {
            drop_unpublished(cut, out, start, &mut stats);
        }
        stats
    }
}

impl MultidimIndex for ShardedSnapshot {
    fn name(&self) -> &str {
        "coax-sharded-snapshot"
    }

    fn dims(&self) -> usize {
        self.core.dims
    }

    /// Rows below the cut: each shard's captured rows whose ids lie
    /// below it (every captured row when the session carries no cut).
    fn len(&self) -> usize {
        let cut = self.cut.unwrap_or(u64::MAX);
        self.shards.iter().map(|s| s.len_below(cut)).sum()
    }

    /// Fan-out over the frozen snapshots of the shards the query can
    /// match in, merge, cut — same policy as the live handle, against
    /// this session's versions.
    fn range_query_stats(&self, query: &RangeQuery, out: &mut Vec<RowId>) -> ScanStats {
        self.core.query_shards(query, self.cut, out, |s, ids| {
            self.shards[s].range_query_stats(query, ids)
        })
    }

    /// Streaming override: one merged cursor chaining the overlay chunk
    /// and epoch plan cursor of each shard the query can match in, in
    /// shard order, each chunk cut as it flows.
    /// Collected ids, order, and stats are identical to
    /// [`ShardedSnapshot::range_query_stats`].
    fn range_query_cursor(&self, query: &RangeQuery) -> RowCursor<'_> {
        RowCursor::new(Box::new(ShardedCursor {
            session: self,
            query: query.clone(),
            shards: self.core.shards_for(query),
            epoch: None,
        }))
    }

    /// Whole batch against this session, deduplicated once for the
    /// service: chunks of distinct queries run on the exec pool, each
    /// query answered on the shards it can match in and merged in shard
    /// order. Per-query results and stats are identical to one-at-a-time
    /// [`ShardedSnapshot::range_query_stats`] calls.
    fn batch_query(&self, queries: &[RangeQuery]) -> Vec<QueryResult> {
        exec::collect_batch(queries, &self.core.exec, &self.core.obs, |query, ids| {
            self.answer_batched(query, ids)
        })
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(RowId, &[Value])) {
        for snap in &self.shards {
            snap.for_each_entry(&mut |id, values| {
                if self.cut.is_none_or(|cut| u64::from(id) < cut) {
                    f(id, values);
                }
            });
        }
    }

    fn memory_overhead(&self) -> usize {
        self.shards.iter().map(|s| s.frozen().memory_overhead()).sum()
    }
}

/// The incremental scan behind [`ShardedSnapshot::range_query_cursor`]:
/// per shard the query can match in, in shard order, the overlay chunk
/// and then the epoch's plan cursor chunk by chunk, each chunk cut at the
/// session's watermark.
struct ShardedCursor<'a> {
    session: &'a ShardedSnapshot,
    query: RangeQuery,
    /// The shards still to read; the first is the current one.
    shards: Range<usize>,
    /// The current shard's epoch cursor, opened with its overlay chunk.
    epoch: Option<RowCursor<'a>>,
}

impl CursorSource for ShardedCursor<'_> {
    fn next_chunk(&mut self, out: &mut Vec<RowId>, stats: &mut ScanStats) -> bool {
        let session = self.session;
        while let Some(snap) = session.shards[self.shards.clone()].first() {
            let start = out.len();
            match &mut self.epoch {
                None => {
                    *stats = stats.merge(snap.overlay_chunk(&self.query, out));
                    self.epoch = Some(snap.frozen().range_query_cursor(&self.query));
                }
                Some(cur) => {
                    if !exec::forward_chunk(cur, out, stats) {
                        self.epoch = None;
                        self.shards.start += 1;
                        continue;
                    }
                }
            }
            if let Some(cut) = session.cut {
                drop_unpublished(cut, out, start, stats);
            }
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coax_data::synth::{Generator, LinearPairConfig};

    fn planted(rows: usize, seed: u64) -> Dataset {
        LinearPairConfig {
            rows,
            slope: 2.0,
            intercept: 10.0,
            noise_sigma: 4.0,
            outlier_fraction: 0.05,
            seed,
            ..Default::default()
        }
        .generate()
    }

    fn sorted(mut v: Vec<RowId>) -> Vec<RowId> {
        v.sort_unstable();
        v
    }

    #[test]
    fn sharded_handle_is_send_sync_and_clone() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<ShardedHandle>();
        assert_send_sync::<ShardedSnapshot>();
    }

    #[test]
    fn auto_key_prefers_the_biggest_group() {
        let ds = planted(3000, 11);
        let sharded = ShardedHandle::build(
            &ds,
            &CoaxConfig { shard: ShardSpec::auto(3), ..Default::default() },
        );
        // The planted pair correlates 0 → 1, so the predictor (dim 0) is
        // the shard key.
        assert_eq!(sharded.key_dim(), 0);
        assert_eq!(sharded.shard_count(), 3);
    }

    #[test]
    fn range_router_partitions_at_quantiles() {
        let bounds = quantile_bounds(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 4);
        assert_eq!(bounds.len(), 3);
        let router = Router::Range { bounds };
        // Ascending keys route to ascending shards…
        let shards: Vec<usize> = (0..8).map(|k| router.route(k as f64)).collect();
        assert!(shards.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(shards.first(), Some(&0));
        assert_eq!(shards.last(), Some(&3));
        // …and a NaN key, which no dataset or insert admits, still routes
        // without panicking.
        assert_eq!(router.route(f64::NAN), 3);
    }

    #[test]
    fn signed_zero_keys_share_a_shard() {
        let hash = Router::Hash { shards: 7 };
        let range = Router::Range { bounds: quantile_bounds(&[-1.0, -0.0, 0.0, 1.0], 3) };
        for router in [hash, range] {
            assert_eq!(router.route(-0.0), router.route(0.0), "{router:?}");
            let point = |z: Value| router.shards_for(z, z);
            assert_eq!(point(-0.0), point(0.0), "{router:?}");
            assert_eq!(point(0.0).len(), 1, "{router:?}");
        }
    }

    #[test]
    fn every_row_lands_in_exactly_one_shard() {
        let ds = planted(2000, 12);
        for spec in [ShardSpec::hash(3, 0), ShardSpec::range(3, 1), ShardSpec::auto(5)] {
            let sharded =
                ShardedHandle::build(&ds, &CoaxConfig { shard: spec, ..Default::default() });
            assert_eq!(sharded.len(), ds.len());
            let all = sorted(sharded.range_query(&RangeQuery::unbounded(2)));
            assert_eq!(all, (0..ds.len() as RowId).collect::<Vec<_>>(), "{spec:?}");
        }
    }

    #[test]
    fn inserts_route_and_get_global_ids() {
        let ds = planted(1500, 13);
        let sharded = ShardedHandle::build(
            &ds,
            &CoaxConfig { shard: ShardSpec::hash(3, 0), ..Default::default() },
        );
        let row = vec![123.0, 2.0 * 123.0 + 10.0];
        let id = sharded.insert(&row).expect("valid row");
        assert_eq!(id as usize, ds.len());
        assert!(sharded.point_query(&row).contains(&id));
        // Validation runs before routing and id allocation.
        assert_eq!(
            sharded.insert(&[1.0]),
            Err(InsertError::WrongArity { expected: 2, got: 1 })
        );
        assert_eq!(sharded.insert(&[1.0, f64::NAN]), Err(InsertError::NonFinite));
        assert_eq!(sharded.len(), ds.len() + 1);
    }

    #[test]
    fn insert_refuses_once_the_id_space_is_spent() {
        let ds = planted(1000, 17);
        let sharded = ShardedHandle::build(
            &ds,
            &CoaxConfig { shard: ShardSpec::hash(3, 0), ..Default::default() },
        );
        // Every lower id is spoken for and admitted.
        let max = u64::from(RowId::MAX);
        sharded.core.next_global.store(max, Ordering::Relaxed);
        sharded.core.published.store(max, Ordering::Release);
        let row = [5.0, 20.0];
        assert_eq!(sharded.insert(&row), Ok(RowId::MAX));
        assert_eq!(sharded.insert(&row), Err(InsertError::IdsExhausted));
        // The refused insert still admitted the value it consumed, so the
        // writers behind it are not stalled.
        assert_eq!(sharded.core.published.load(Ordering::Acquire), max + 2);
        assert_eq!(sharded.len(), max as usize + 1);
        assert_eq!(sharded.pending_len(), 1, "a refused insert buffers nothing");
        assert!(sharded.point_query(&row).contains(&RowId::MAX));
    }

    #[test]
    fn route_refuses_bad_rows_and_names_the_shard_an_insert_grows() {
        let ds = planted(1500, 19);
        let sharded = ShardedHandle::build(
            &ds,
            &CoaxConfig { shard: ShardSpec::hash(3, 0), ..Default::default() },
        );
        assert_eq!(sharded.route(&[1.0]), Err(InsertError::WrongArity { expected: 2, got: 1 }));
        assert_eq!(
            sharded.route(&[1.0, 2.0, 3.0]),
            Err(InsertError::WrongArity { expected: 2, got: 3 })
        );
        assert_eq!(sharded.route(&[f64::NAN, 12.0]), Err(InsertError::NonFinite));
        assert_eq!(sharded.route(&[1.0, f64::INFINITY]), Err(InsertError::NonFinite));
        for i in 0..12 {
            let x = (i * 83 % 1000) as f64;
            let row = [x, 2.0 * x + 10.0];
            let shard = sharded.route(&row).expect("valid row");
            let lens = |s: &ShardedHandle| -> Vec<usize> {
                (0..3).map(|t| s.shard_handle(t).len()).collect()
            };
            let mut expected = lens(&sharded);
            expected[shard] += 1;
            sharded.insert(&row).expect("valid row");
            assert_eq!(lens(&sharded), expected, "row {i} routed to shard {shard}");
        }
    }

    #[test]
    fn shard_labels_count_up_from_the_configured_label() {
        use crate::obs::{MetricsRegistry, ObsConfig};
        const N: u64 = 9;
        let ds = planted(1000, 20);
        let sharded = ShardedHandle::build(
            &ds,
            &CoaxConfig {
                shard: ShardSpec::hash(2, 0),
                obs: ObsConfig::default().for_shard(9_000),
                ..Default::default()
            },
        );
        let registry = MetricsRegistry::global();
        let count = |label| registry.counter_shard("coax.query.count", Some(label)).get();
        let before = (count(9_000), count(9_001));
        for _ in 0..N {
            sharded.range_query(&RangeQuery::unbounded(2));
        }
        // An unbounded query visits both shards: N spans under each label.
        let after = (count(9_000), count(9_001));
        assert_eq!(after, (before.0 + N, before.1 + N));
        for r in 0..N as RowId {
            sharded.point_query(&ds.row(r));
        }
        // A point query pins the hash key, so it visits the one shard its
        // key routes to: N spans across the two labels.
        let (a, b) = (count(9_000) - after.0, count(9_001) - after.1);
        assert_eq!(a + b, N);
    }

    #[test]
    fn a_cut_below_folded_rows_holds_in_every_surface() {
        let ds = planted(1500, 18);
        let sharded = ShardedHandle::build(
            &ds,
            &CoaxConfig { shard: ShardSpec::hash(3, 0), ..Default::default() },
        );
        for i in 0..60 {
            let x = (i * 13 % 1000) as f64;
            sharded.insert(&[x, 2.0 * x + 10.0]).expect("valid row");
        }
        for s in 0..3 {
            sharded.shard_handle(s).fold();
        }
        assert_eq!(sharded.pending_len(), 0, "the new rows sit in the epochs");
        // An insert still in flight below the last 40 rows would leave the
        // watermark here.
        let cut = ds.len() as u64 + 20;
        let published = sharded.core.published.swap(cut, Ordering::AcqRel);
        let snap = sharded.snapshot();
        let below: Vec<RowId> = (0..cut as RowId).collect();
        let unbounded = [RangeQuery::unbounded(2)];
        assert_eq!(snap.len(), below.len(), "len");
        assert_eq!(sorted(snap.range_query(&unbounded[0])), below, "single");
        assert_eq!(sorted(snap.batch_query(&unbounded).remove(0).ids), below, "batch");
        let streamed: Vec<_> = snap.batch_query_streaming(&unbounded).collect();
        assert_eq!(sorted(streamed[0].1.ids.clone()), below, "stream");
        assert_eq!(sorted(snap.range_query_cursor(&unbounded[0]).collect()), below, "cursor");
        let mut entries = Vec::new();
        snap.for_each_entry(&mut |id, _| entries.push(id));
        assert_eq!(sorted(entries), below, "for_each_entry");
        sharded.core.published.store(published, Ordering::Release);
    }

    #[test]
    fn maintenance_on_one_shard_leaves_other_epochs_alone() {
        let ds = planted(2000, 14);
        let sharded = ShardedHandle::build(
            &ds,
            &CoaxConfig { shard: ShardSpec::range(3, 0), ..Default::default() },
        );
        assert_eq!(sharded.epochs(), vec![0, 0, 0]);
        sharded.shard_handle(1).fold();
        assert_eq!(sharded.epochs(), vec![0, 1, 0]);
        // Queries still see every row, bit-identically.
        let all = sorted(sharded.range_query(&RangeQuery::unbounded(2)));
        assert_eq!(all, (0..ds.len() as RowId).collect::<Vec<_>>());
    }

    #[test]
    fn live_reads_are_dense_prefixes_under_concurrent_writers() {
        const WRITERS: usize = 3;
        const ROWS: usize = 300;
        let ds = planted(1000, 15);
        let sharded = ShardedHandle::build(
            &ds,
            &CoaxConfig { shard: ShardSpec::hash(3, 0), ..Default::default() },
        );
        let done = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (sharded, done) = (&sharded, &done);
                scope.spawn(move || {
                    for i in 0..ROWS {
                        let x = ((w * ROWS + i) * 7 % 1000) as f64;
                        sharded.insert(&[x, 2.0 * x + 10.0]).expect("valid row");
                    }
                    done.fetch_add(1, Ordering::Release);
                });
            }
            // Writers on different shards finish out of id order; every
            // live read must still be a dense prefix of the id space.
            loop {
                let finished = done.load(Ordering::Acquire) == WRITERS;
                let all = sorted(sharded.range_query(&RangeQuery::unbounded(2)));
                assert_eq!(all, (0..all.len() as RowId).collect::<Vec<_>>(), "torn live read");
                if finished {
                    assert_eq!(all.len(), ds.len() + WRITERS * ROWS);
                    break;
                }
            }
        });
    }

    #[test]
    fn snapshots_are_dense_prefixes_under_concurrent_writers() {
        const WRITERS: usize = 3;
        const ROWS: usize = 300;
        let ds = planted(1000, 16);
        let sharded = ShardedHandle::build(
            &ds,
            &CoaxConfig { shard: ShardSpec::hash(3, 0), ..Default::default() },
        );
        let done = std::sync::atomic::AtomicUsize::new(0);
        // Snapshots taken back to back while writers on different shards
        // finish out of id order. Each shard is captured at its own
        // instant; snapshots capturing the same rows per shard and
        // holding as many of them answer alike, so one of each is kept.
        let mut taken: Vec<((Vec<usize>, usize), ShardedSnapshot)> = Vec::new();
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (sharded, done) = (&sharded, &done);
                scope.spawn(move || {
                    for i in 0..ROWS {
                        let x = ((w * ROWS + i) * 7 % 1000) as f64;
                        sharded.insert(&[x, 2.0 * x + 10.0]).expect("valid row");
                    }
                    done.fetch_add(1, Ordering::Release);
                });
            }
            loop {
                let finished = done.load(Ordering::Acquire) == WRITERS;
                let snap = sharded.snapshot();
                let captured =
                    |s: usize| snap.shard(s).frozen().len() + snap.shard(s).pending_len();
                let key = ((0..3).map(captured).collect(), snap.len());
                if taken.last().is_none_or(|(last, _)| *last != key) {
                    taken.push((key, snap));
                }
                if finished {
                    break;
                }
            }
        });
        // Every surface of every snapshot answers a dense prefix.
        let unbounded = [RangeQuery::unbounded(2)];
        for (_, snap) in &taken {
            let dense: Vec<RowId> = (0..snap.len() as RowId).collect();
            assert_eq!(sorted(snap.range_query(&unbounded[0])), dense, "torn single");
            let batch = snap.batch_query(&unbounded).remove(0);
            assert_eq!(sorted(batch.ids), dense, "torn batch");
            let streamed: Vec<_> = snap.batch_query_streaming(&unbounded).collect();
            assert_eq!(streamed.len(), 1, "one streamed result");
            assert_eq!(sorted(streamed[0].1.ids.clone()), dense, "torn stream");
            let cursor: Vec<RowId> = snap.range_query_cursor(&unbounded[0]).collect();
            assert_eq!(sorted(cursor), dense, "torn cursor");
            let mut entries = Vec::new();
            snap.for_each_entry(&mut |id, _| entries.push(id));
            assert_eq!(sorted(entries), dense, "torn for_each_entry");
        }
        let last = &taken.last().expect("at least one snapshot").1;
        assert_eq!(last.len(), ds.len() + WRITERS * ROWS);
    }
}
