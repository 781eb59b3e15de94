//! A point R-tree bulk-loaded with Sort-Tile-Recursive (STR) packing.
//!
//! The paper uses the R-tree as "arguably the most broadly used index for
//! multidimensional data" (§8.1.3) and tunes node capacity between 2 and
//! 32, finding 8–12 best (§8.2.1). This implementation:
//!
//! * stores point entries (the datasets are points, not extents);
//! * bulk-loads with STR — sort by the first attribute, slice into slabs,
//!   recurse on the next attribute inside each slab — which yields packed,
//!   low-overlap leaves, the strongest fair baseline for static data;
//! * builds upper levels by applying STR to the child MBR centres until a
//!   single root remains;
//! * answers rectangle queries by depth-first MBR pruning with an exact
//!   re-check on leaf entries.

use crate::traits::{MultidimIndex, ScanStats};
use coax_data::{Dataset, RangeQuery, RowId, Value};

/// Node capacities. The paper sweeps both between 2 and 32.
#[derive(Clone, Copy, Debug)]
pub struct RTreeConfig {
    /// Max entries per leaf.
    pub leaf_capacity: usize,
    /// Max children per internal node.
    pub internal_fanout: usize,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        // §8.2.1: "The best node size for R-Tree is between 8 and 12."
        Self { leaf_capacity: 10, internal_fanout: 10 }
    }
}

impl RTreeConfig {
    /// Uniform capacity for both node kinds.
    pub fn uniform(capacity: usize) -> Self {
        Self { leaf_capacity: capacity, internal_fanout: capacity }
    }
}

#[derive(Clone, Debug)]
enum NodeKind {
    /// Entry range `[start, end)` into the flat `ids`/`coords` arrays.
    Leaf {
        start: u32,
        end: u32,
    },
    Internal {
        children: Vec<u32>,
    },
}

#[derive(Clone, Debug)]
struct Node {
    mbr_lo: Box<[Value]>,
    mbr_hi: Box<[Value]>,
    kind: NodeKind,
}

/// STR bulk-loaded point R-tree.
#[derive(Clone, Debug)]
pub struct RTree {
    dims: usize,
    config: RTreeConfig,
    /// Flat entry coordinates, `dims` per entry, grouped by leaf.
    coords: Vec<Value>,
    /// Id of each entry, as given at build.
    ids: Vec<RowId>,
    nodes: Vec<Node>,
    root: Option<u32>,
}

impl RTree {
    /// Bulk-loads the tree from `dataset`; row `i` keeps id `i`.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is < 2 (a fanout of 1 cannot terminate).
    pub fn build(dataset: &Dataset, config: RTreeConfig) -> Self {
        Self::build_with_ids(dataset, &dataset.row_ids().collect::<Vec<_>>(), config)
    }

    /// [`RTree::build`] with row `i` stored under id `ids[i]`.
    pub fn build_with_ids(dataset: &Dataset, ids: &[RowId], config: RTreeConfig) -> Self {
        assert!(config.leaf_capacity >= 2, "leaf capacity must be >= 2");
        assert!(config.internal_fanout >= 2, "internal fanout must be >= 2");
        let dims = dataset.dims();
        let n = dataset.len();
        assert_eq!(ids.len(), n, "one id per row");
        let mut tree = Self {
            dims,
            config,
            coords: Vec::with_capacity(n * dims),
            ids: Vec::with_capacity(n),
            nodes: Vec::new(),
            root: None,
        };
        if n == 0 {
            return tree;
        }

        // --- Leaf level: STR over the raw points. ---------------------
        let rows: Vec<u32> = (0..n as u32).collect();
        let groups = str_group(rows, dims, config.leaf_capacity, &|r, d| dataset.value(r, d));
        let mut level: Vec<u32> = Vec::with_capacity(groups.len());
        for group in groups {
            let start = tree.ids.len() as u32;
            let mut lo = vec![f64::INFINITY; dims].into_boxed_slice();
            let mut hi = vec![f64::NEG_INFINITY; dims].into_boxed_slice();
            for &r in &group {
                tree.ids.push(ids[r as usize]);
                for d in 0..dims {
                    let v = dataset.value(r, d);
                    tree.coords.push(v);
                    if v < lo[d] {
                        lo[d] = v;
                    }
                    if v > hi[d] {
                        hi[d] = v;
                    }
                }
            }
            let end = tree.ids.len() as u32;
            tree.nodes.push(Node {
                mbr_lo: lo,
                mbr_hi: hi,
                kind: NodeKind::Leaf { start, end },
            });
            level.push(tree.nodes.len() as u32 - 1);
        }

        // --- Upper levels: STR over child MBR centres. ----------------
        while level.len() > 1 {
            let nodes_ref = &tree.nodes;
            let groups = str_group(level, dims, config.internal_fanout, &|nid, d| {
                let node = &nodes_ref[nid as usize];
                0.5 * (node.mbr_lo[d] + node.mbr_hi[d])
            });
            let mut next = Vec::with_capacity(groups.len());
            for children in groups {
                let mut lo = vec![f64::INFINITY; dims].into_boxed_slice();
                let mut hi = vec![f64::NEG_INFINITY; dims].into_boxed_slice();
                for &c in &children {
                    let child = &tree.nodes[c as usize];
                    for d in 0..dims {
                        if child.mbr_lo[d] < lo[d] {
                            lo[d] = child.mbr_lo[d];
                        }
                        if child.mbr_hi[d] > hi[d] {
                            hi[d] = child.mbr_hi[d];
                        }
                    }
                }
                tree.nodes.push(Node {
                    mbr_lo: lo,
                    mbr_hi: hi,
                    kind: NodeKind::Internal { children },
                });
                next.push(tree.nodes.len() as u32 - 1);
            }
            level = next;
        }
        tree.root = Some(level[0]);
        tree
    }

    /// The capacities this tree was built with.
    pub fn config(&self) -> RTreeConfig {
        self.config
    }

    /// Number of nodes (all levels).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates every stored `(row_id, point)` pair in leaf-packing order
    /// (used by compositions that need to reconstruct their input).
    pub fn entries(&self) -> impl Iterator<Item = (RowId, &[Value])> + '_ {
        self.ids
            .iter()
            .enumerate()
            .map(move |(i, &id)| (id, &self.coords[i * self.dims..(i + 1) * self.dims]))
    }

    /// Tree height (1 for a single leaf; 0 for an empty tree).
    pub fn height(&self) -> usize {
        let Some(mut cur) = self.root else { return 0 };
        let mut h = 1;
        loop {
            match &self.nodes[cur as usize].kind {
                NodeKind::Leaf { .. } => return h,
                NodeKind::Internal { children } => {
                    cur = children[0];
                    h += 1;
                }
            }
        }
    }

    fn mbr_overlaps(&self, node: &Node, query: &RangeQuery) -> bool {
        (0..self.dims).all(|d| node.mbr_lo[d] <= query.hi(d) && node.mbr_hi[d] >= query.lo(d))
    }
}

impl MultidimIndex for RTree {
    fn name(&self) -> &str {
        "r-tree"
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn range_query_stats(&self, query: &RangeQuery, out: &mut Vec<RowId>) -> ScanStats {
        assert_eq!(query.dims(), self.dims, "query dimensionality mismatch");
        let mut stats = ScanStats::default();
        let Some(root) = self.root else { return stats };
        if query.is_empty() {
            return stats;
        }
        let mut stack = vec![root];
        while let Some(nid) = stack.pop() {
            let node = &self.nodes[nid as usize];
            stats.cells_visited += 1;
            if !self.mbr_overlaps(node, query) {
                continue; // only the root can reach here unpruned
            }
            match &node.kind {
                NodeKind::Leaf { start, end } => {
                    for i in *start as usize..*end as usize {
                        stats.rows_examined += 1;
                        let row = &self.coords[i * self.dims..(i + 1) * self.dims];
                        if query.matches(row) {
                            out.push(self.ids[i]);
                            stats.matches += 1;
                        }
                    }
                }
                NodeKind::Internal { children } => {
                    for &c in children {
                        if self.mbr_overlaps(&self.nodes[c as usize], query) {
                            stack.push(c);
                        }
                    }
                }
            }
        }
        stats
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(RowId, &[Value])) {
        for (id, row) in self.entries() {
            f(id, row);
        }
    }

    fn memory_overhead(&self) -> usize {
        // MBRs + child pointer tables + leaf entry ranges. Entry payloads
        // (coords, ids) are the stored data, not directory overhead.
        let mbr = std::mem::size_of::<Value>() * 2 * self.dims;
        self.nodes
            .iter()
            .map(|n| {
                mbr + match &n.kind {
                    NodeKind::Leaf { .. } => 2 * std::mem::size_of::<u32>(),
                    NodeKind::Internal { children } => {
                        children.len() * std::mem::size_of::<u32>()
                    }
                }
            })
            .sum()
    }
}

/// Sort-Tile-Recursive grouping: partitions `items` into groups of at most
/// `capacity`, tiling one dimension per recursion level via `key`.
fn str_group(
    mut items: Vec<u32>,
    dims: usize,
    capacity: usize,
    key: &impl Fn(u32, usize) -> Value,
) -> Vec<Vec<u32>> {
    let mut out = Vec::with_capacity(items.len().div_ceil(capacity));
    str_rec(&mut items, 0, dims, capacity, key, &mut out);
    out
}

fn str_rec(
    items: &mut [u32],
    dim: usize,
    dims: usize,
    capacity: usize,
    key: &impl Fn(u32, usize) -> Value,
    out: &mut Vec<Vec<u32>>,
) {
    if items.len() <= capacity {
        out.push(items.to_vec());
        return;
    }
    items.sort_unstable_by(|&a, &b| key(a, dim).total_cmp(&key(b, dim)));
    let remaining_dims = dims - dim;
    if remaining_dims <= 1 {
        for chunk in items.chunks(capacity) {
            out.push(chunk.to_vec());
        }
        return;
    }
    // Number of groups still needed, tiled as S slabs along this dimension.
    let p = items.len().div_ceil(capacity);
    let s = (p as f64).powf(1.0 / remaining_dims as f64).ceil() as usize;
    let slab = items.len().div_ceil(s.max(1));
    for chunk in items.chunks_mut(slab.max(capacity)) {
        str_rec(chunk, dim + 1, dims, capacity, key, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full_scan::FullScan;
    use coax_data::synth::{GaussianClustersConfig, Generator, UniformConfig};
    use coax_data::workload::{knn_rectangle_queries, point_queries};

    #[test]
    fn str_groups_respect_capacity_and_cover_all() {
        let items: Vec<u32> = (0..103).collect();
        let groups = str_group(items, 2, 8, &|i, d| ((i as f64) * (d as f64 + 1.3)) % 17.0);
        let mut all: Vec<u32> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
        assert!(groups.iter().all(|g| g.len() <= 8 && !g.is_empty()));
    }

    #[test]
    fn equivalence_with_fullscan_on_clustered_data() {
        let ds = GaussianClustersConfig::map(2000, 51).generate();
        let rt = RTree::build(&ds, RTreeConfig::default());
        let fs = FullScan::build(&ds);
        let mut queries = knn_rectangle_queries(&ds, 12, 40, 4);
        queries.extend(point_queries(&ds, 12, 5));
        for q in &queries {
            let mut a = rt.range_query(q);
            let mut b = fs.range_query(q);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn tree_shape_matches_capacity() {
        let ds = UniformConfig::cube(2, 1000, 52).generate();
        let rt = RTree::build(&ds, RTreeConfig::uniform(10));
        assert_eq!(rt.len(), 1000);
        // 1000 points / 10 per leaf = 100 leaves; + internal levels.
        assert!(rt.n_nodes() >= 100, "n_nodes = {}", rt.n_nodes());
        assert!(rt.height() >= 3, "height = {}", rt.height());
        let rt_fat = RTree::build(&ds, RTreeConfig::uniform(32));
        assert!(rt_fat.n_nodes() < rt.n_nodes());
        assert!(rt_fat.memory_overhead() < rt.memory_overhead());
    }

    #[test]
    fn pruning_visits_few_nodes_for_tiny_queries() {
        let ds = UniformConfig::cube(2, 5000, 53).generate();
        let rt = RTree::build(&ds, RTreeConfig::default());
        let q = RangeQuery::point(&ds.row(123));
        let mut out = Vec::new();
        let stats = rt.range_query_stats(&q, &mut out);
        assert!(out.contains(&123));
        assert!(
            stats.cells_visited < rt.n_nodes() / 10,
            "point query should prune: visited {} of {}",
            stats.cells_visited,
            rt.n_nodes()
        );
    }

    #[test]
    fn duplicate_points_all_found() {
        let ds = Dataset::new(vec![vec![1.0; 40], vec![2.0; 40]]);
        let rt = RTree::build(&ds, RTreeConfig::uniform(4));
        let hits = rt.range_query(&RangeQuery::point(&[1.0, 2.0]));
        assert_eq!(hits.len(), 40);
    }

    #[test]
    fn empty_tree() {
        let ds = Dataset::new(vec![vec![], vec![]]);
        let rt = RTree::build(&ds, RTreeConfig::default());
        assert!(rt.is_empty());
        assert_eq!(rt.height(), 0);
        assert_eq!(rt.memory_overhead(), 0);
        assert!(rt.range_query(&RangeQuery::unbounded(2)).is_empty());
    }

    #[test]
    fn single_point_tree() {
        let ds = Dataset::new(vec![vec![5.0], vec![7.0]]);
        let rt = RTree::build(&ds, RTreeConfig::default());
        assert_eq!(rt.height(), 1);
        assert_eq!(rt.range_query(&RangeQuery::point(&[5.0, 7.0])), vec![0]);
        assert!(rt.range_query(&RangeQuery::point(&[5.0, 7.1])).is_empty());
    }

    #[test]
    fn empty_query_rectangle() {
        let ds = UniformConfig::cube(2, 100, 54).generate();
        let rt = RTree::build(&ds, RTreeConfig::default());
        let mut q = RangeQuery::unbounded(2);
        q.constrain(0, 1.0, 0.0);
        assert!(rt.range_query(&q).is_empty());
    }

    #[test]
    #[should_panic(expected = "leaf capacity")]
    fn capacity_one_rejected() {
        let ds = Dataset::new(vec![vec![1.0]]);
        RTree::build(&ds, RTreeConfig::uniform(1));
    }
}
