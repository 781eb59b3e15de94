//! A point query allocates nothing. Its plan borrows the query, the
//! primary is navigated with the query itself, and a grid finds the one
//! cell of a pinned probe by arithmetic, so once a warm-up query has
//! sized the caller's output buffer, a point query makes no heap
//! allocation on any single-query surface: the live service at one and
//! at two shards, a `ShardedSnapshot`, and the frozen `CoaxIndex`, with
//! observability on and off, for points in the primary and in the
//! outliers.
//!
//! This binary installs a counting global allocator that delegates to
//! `System` and counts per thread, so tests running on other threads do
//! not disturb the count.

use coax_core::{CoaxConfig, ObsConfig, ShardSpec, ShardedHandle};
use coax_data::synth::{Generator, PlantedConfig, PlantedDependent, PlantedGroup};
use coax_data::workload::point_queries;
use coax_data::{Dataset, RangeQuery, RowId};
use coax_index::MultidimIndex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations (including reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting every allocation on the allocating thread.
struct Counting;

impl Counting {
    fn count() {
        // A `const` thread-local without drop glue is never torn down,
        // so this neither allocates nor fails.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations this thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn planted(rows: usize, seed: u64) -> Dataset {
    PlantedConfig {
        rows,
        groups: vec![PlantedGroup {
            x_range: (0.0, 1000.0),
            dependents: vec![PlantedDependent {
                slope: 2.0,
                intercept: 25.0,
                noise_sigma: 4.0,
            }],
            outlier_fraction: 0.2,
            outlier_offset_sigmas: 25.0,
        }],
        independent: vec![(0.0, 100.0)],
        seed,
    }
    .generate()
}

/// Runs every point on `index` once to warm up (lazy statics, the
/// output buffer's capacity), then asserts each point query allocates
/// nothing and still answers.
fn assert_allocation_free(label: &str, index: &dyn MultidimIndex, points: &[RangeQuery]) {
    let mut out: Vec<RowId> = Vec::with_capacity(256);
    for q in points {
        out.clear();
        index.range_query_stats(q, &mut out);
    }
    let mut matched = 0;
    for q in points {
        out.clear();
        let made = allocations(|| matched += index.range_query_stats(q, &mut out).matches);
        assert_eq!(made, 0, "{label}: {made} allocation(s) answering {q:?}");
    }
    assert!(matched >= points.len(), "{label}: every point is an existing row");
}

#[test]
fn a_point_query_allocates_nothing() {
    let ds = planted(8_000, 281);
    let points = point_queries(&ds, 64, 282);
    for shards in [1, 2] {
        for obs in [ObsConfig::default(), ObsConfig::disabled()] {
            let config =
                CoaxConfig { obs, shard: ShardSpec::auto(shards), ..Default::default() };
            let service = ShardedHandle::build(&ds, &config);
            let snapshot = service.snapshot();
            let label = format!("{shards} shard(s), obs {}", obs.enabled);
            // Each point on the frozen epoch of the one shard it routes to,
            // with both partitions represented.
            let (mut in_primary, mut in_outliers) = (0, 0);
            for q in &points {
                let shard = service.shards_for(q);
                assert_eq!(shard.len(), 1, "{label}: a point reads one shard");
                let epoch = snapshot.shard(shard.start).frozen();
                let plan = epoch.plan(q);
                in_primary += usize::from(!plan.primary_pruned());
                in_outliers += usize::from(!plan.outliers_pruned());
                assert_allocation_free(
                    &format!("{label}, frozen"),
                    epoch,
                    std::slice::from_ref(q),
                );
            }
            assert!(in_primary > 0 && in_outliers > 0, "{label}: {in_primary} + {in_outliers}");
            assert_allocation_free(&format!("{label}, live"), &service, &points);
            assert_allocation_free(&format!("{label}, snapshot"), &snapshot, &points);
        }
    }
}
