//! Vectorized columnar cell-scan kernel: dimension-at-a-time predicate
//! evaluation over contiguous column slabs.
//!
//! The scalar scan tests each packed row against the whole rectangle —
//! `dims` interleaved values per row, a data-dependent branch per
//! dimension — which defeats autovectorization and drags every
//! dimension's bytes through the cache whether the predicate constrains
//! it or not. This module is the columnar alternative every page store
//! ([`crate::pages::PageStore`]) scans with — the grid cells and
//! [`crate::FullScan`]'s one heap page alike:
//!
//! 1. rows are processed in fixed-width **tiles** of [`TILE`] = 64 rows,
//!    one selection bit per row in a `u64` mask;
//! 2. the rectangle is evaluated **one dimension at a time**: for each
//!    *constrained* dimension (unbounded dimensions are skipped
//!    entirely, and one-sided bounds pay one comparison, not two), a
//!    branch-free pass over the dimension's contiguous `&[f64]` slab
//!    builds a per-dimension mask that the autovectorizer lowers to
//!    SIMD compares + a movemask;
//! 3. per-dimension masks are `AND`-combined, short-circuiting the
//!    remaining dimensions once a tile's mask reaches zero;
//! 4. surviving bits are gathered into row ids via `trailing_zeros`, in
//!    ascending packed order — the exact order the scalar scan emits.
//!
//! Everything here is **bit-identical** to the scalar reference path
//! (`PageStore::scan_cell_narrowed_scalar`): same ids, same order, same
//! counters. The randomized differential suite
//! (`crates/index/tests/scan_kernel.rs`) pins that equivalence, and
//! [`force_scalar`] lets callers flip the whole crate back onto the
//! scalar path at runtime for A/B measurement (`COAX_SCAN_KERNEL=scalar`
//! sets the initial value; `bench --bin scan` times both sides).

// The whole workspace is `#![forbid(unsafe_code)]` (crate root). Today the
// kernel needs none: the masks/gather code autovectorizes from safe slices.
// If explicit-SIMD round 2 (std::simd or intrinsics) lands here, this module
// is the one planned carve-out — the crate root would move to
// `#![deny(unsafe_code)]` with a narrowly scoped `#[allow]` on the intrinsic
// wrappers, keeping the rest of the crate forbid-clean.

use coax_data::{RangeQuery, RowId, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Rows per selection tile: one `u64` selection-bitmask lane per row.
pub const TILE: usize = 64;

/// The process-wide scalar-path switch, initialized once from the
/// `COAX_SCAN_KERNEL` environment variable (`scalar` forces the scalar
/// reference path everywhere).
fn scalar_flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| {
        AtomicBool::new(std::env::var("COAX_SCAN_KERNEL").is_ok_and(|v| v == "scalar"))
    })
}

/// `true` when the scalar reference path is forced (differential testing
/// and A/B benchmarking; see [`force_scalar`]).
#[inline]
pub fn scalar_forced() -> bool {
    scalar_flag().load(Ordering::Relaxed)
}

/// Forces (or releases) the scalar reference scan path process-wide.
///
/// Both paths are bit-identical by contract, so flipping this mid-flight
/// is always *correct* — it only changes which implementation runs. The
/// initial value comes from `COAX_SCAN_KERNEL=scalar`; benches and the
/// differential tests toggle it explicitly.
pub fn force_scalar(on: bool) {
    scalar_flag().store(on, Ordering::Relaxed);
}

/// Bitmask with the low `len` lanes set (`len ≤ 64`).
#[inline]
pub fn lanes(len: usize) -> u64 {
    debug_assert!(len <= TILE);
    if len == TILE {
        !0
    } else {
        (1u64 << len) - 1
    }
}

/// Per-dimension tile mask: bit `j` is set iff `vals[j] ∈ [lo, hi]`
/// (`vals.len() ≤ 64`). One-sided bounds (`lo == −∞` or `hi == +∞`) pay
/// a single comparison per lane; the full-tile case runs over a
/// fixed-length `[Value; 64]` so the trip count is a compile-time
/// constant the autovectorizer unrolls into SIMD compares.
#[inline]
pub fn tile_mask(vals: &[Value], lo: Value, hi: Value) -> u64 {
    if lo == f64::NEG_INFINITY {
        tile_mask_by(vals, |v| v <= hi)
    } else if hi == f64::INFINITY {
        tile_mask_by(vals, |v| v >= lo)
    } else {
        tile_mask_by(vals, |v| (v >= lo) & (v <= hi))
    }
}

/// Branch-free movemask over a tile: predicate results become selection
/// bits. The `(pred as u64) << j` form carries no data-dependent branch,
/// so the compare vectorizes even when it doesn't fold into a literal
/// movemask instruction.
#[inline]
fn tile_mask_by(vals: &[Value], pred: impl Fn(Value) -> bool) -> u64 {
    if let Ok(full) = <&[Value; TILE]>::try_from(vals) {
        let mut m = 0u64;
        for (j, &v) in full.iter().enumerate() {
            m |= (pred(v) as u64) << j;
        }
        m
    } else {
        debug_assert!(vals.len() < TILE);
        let mut m = 0u64;
        for (j, &v) in vals.iter().enumerate() {
            m |= (pred(v) as u64) << j;
        }
        m
    }
}

/// Combined selection mask of packed rows `[t, t + len)` against every
/// *constrained* dimension of `filter` (`len ≤ 64`): per-dimension tile
/// masks `AND`ed with an early exit once nothing survives. Unconstrained
/// dimensions are never read.
#[inline]
pub fn select_tile(cols: &[Vec<Value>], filter: &RangeQuery, t: usize, len: usize) -> u64 {
    debug_assert_eq!(cols.len(), filter.dims());
    let mut mask = lanes(len);
    for (d, lo, hi) in filter.constrained_bounds() {
        mask &= tile_mask(&cols[d][t..t + len], lo, hi);
        if mask == 0 {
            break;
        }
    }
    mask
}

/// Gathers the ids of the mask's surviving rows, ascending, returning
/// how many bits were set.
#[inline]
fn gather_ids(mut mask: u64, base: usize, ids: &[RowId], out: &mut Vec<RowId>) -> usize {
    let n = mask.count_ones() as usize;
    out.reserve(n);
    while mask != 0 {
        let j = mask.trailing_zeros() as usize;
        out.push(ids[base + j]);
        mask &= mask - 1;
    }
    n
}

/// Runs shorter than this skip the tile machinery for the scalar
/// reference's own row-at-a-time loop: mask setup doesn't amortize over
/// a handful of rows (fine-grained directories leave cells this small),
/// and the row loop emits the identical ids in the identical order.
const SHORT_RUN: usize = 16;

/// Scans packed rows `[s, e)` of the column slabs against `filter`,
/// appending the `ids` of matching rows to `out` in ascending packed
/// order. Returns the match count; the caller's `rows_examined` is
/// `e − s` by construction, exactly as in the scalar path.
pub fn scan_columnar(
    cols: &[Vec<Value>],
    ids: &[RowId],
    s: usize,
    e: usize,
    filter: &RangeQuery,
    out: &mut Vec<RowId>,
) -> usize {
    let mut matched = 0;
    if e - s < SHORT_RUN {
        for i in s..e {
            let ok = filter
                .lows()
                .iter()
                .zip(filter.highs())
                .zip(cols)
                .all(|((l, h), col)| *l <= col[i] && col[i] <= *h);
            if ok {
                out.push(ids[i]);
                matched += 1;
            }
        }
        return matched;
    }
    let mut t = s;
    while t < e {
        let len = TILE.min(e - t);
        let mask = select_tile(cols, filter, t, len);
        if mask != 0 {
            matched += gather_ids(mask, t, ids, out);
        }
        t += len;
    }
    matched
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols_of(data: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        data
    }

    #[test]
    fn lanes_edges() {
        assert_eq!(lanes(0), 0);
        assert_eq!(lanes(1), 1);
        assert_eq!(lanes(63), (1u64 << 63) - 1);
        assert_eq!(lanes(64), !0);
    }

    #[test]
    fn tile_mask_closed_and_one_sided() {
        let vals: Vec<Value> = (0..10).map(f64::from).collect();
        assert_eq!(tile_mask(&vals, 3.0, 5.0), 0b0011_1000);
        assert_eq!(tile_mask(&vals, f64::NEG_INFINITY, 2.0), 0b0000_0111);
        assert_eq!(tile_mask(&vals, 8.0, f64::INFINITY), 0b11_0000_0000);
        // Inverted bounds select nothing.
        assert_eq!(tile_mask(&vals, 5.0, 3.0), 0);
    }

    #[test]
    fn full_tile_matches_partial_tile_logic() {
        let vals: Vec<Value> = (0..TILE).map(|i| i as f64).collect();
        let full = tile_mask(&vals, 10.0, 20.0);
        let mut expect = 0u64;
        for (j, &v) in vals.iter().enumerate() {
            expect |= (((10.0..=20.0).contains(&v)) as u64) << j;
        }
        assert_eq!(full, expect);
    }

    #[test]
    fn scan_emits_ascending_packed_order() {
        let n = 150;
        let cols = cols_of(vec![
            (0..n).map(|i| i as f64).collect(),
            (0..n).map(|i| (i % 7) as f64).collect(),
        ]);
        let ids: Vec<RowId> = (0..n as RowId).rev().collect(); // ids ≠ slots
        let mut q = RangeQuery::unbounded(2);
        q.constrain(1, 2.0, 3.0);
        let mut out = Vec::new();
        let matched = scan_columnar(&cols, &ids, 0, n, &q, &mut out);
        let expect: Vec<RowId> =
            (0..n).filter(|i| (2..=3).contains(&(i % 7))).map(|i| ids[i]).collect();
        assert_eq!(out, expect);
        assert_eq!(matched, expect.len());
    }

    #[test]
    fn force_scalar_round_trips() {
        let was = scalar_forced();
        force_scalar(true);
        assert!(scalar_forced());
        force_scalar(false);
        assert!(!scalar_forced());
        force_scalar(was);
    }
}
