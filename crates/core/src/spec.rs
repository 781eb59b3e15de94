//! The workspace-level index factory: one config value that can build
//! *any* index — the five conventional substrates **or** COAX itself —
//! as a `Box<dyn MultidimIndex>`.
//!
//! [`coax_index::BackendSpec`] covers the substrates; [`IndexSpec`] adds
//! the [`CoaxIndex`] on top, optionally carrying a pre-computed
//! [`Discovery`] so configuration sweeps share one soft-FD discovery run
//! across many builds (the directory resolution does not change what
//! correlates). The bench harness, the equivalence tests, and the
//! examples construct every contender through this type and drive them
//! uniformly through the trait — adding a backend never touches them.

use crate::discovery::{discover, Discovery};
use crate::index::{CoaxConfig, CoaxIndex, PrimaryBackend};
use crate::shard::ShardedHandle;
use coax_data::Dataset;
use coax_index::{BackendSpec, MultidimIndex};

/// A buildable description of any index in the workspace.
#[derive(Clone, Debug)]
pub enum IndexSpec {
    /// One of the conventional substrates (built via [`BackendSpec`]).
    Backend(BackendSpec),
    /// The COAX index. Boxed: a full build configuration dwarfs the
    /// substrate variants, and specs travel by value through sweeps.
    Coax {
        /// Build configuration.
        config: Box<CoaxConfig>,
        /// Optional pre-computed discovery; `None` runs discovery at
        /// build time. Sweeps pass `Some` to share one run.
        discovery: Option<Discovery>,
    },
}

impl From<BackendSpec> for IndexSpec {
    fn from(spec: BackendSpec) -> Self {
        IndexSpec::Backend(spec)
    }
}

impl IndexSpec {
    /// A COAX spec that discovers soft FDs at build time.
    pub fn coax(config: CoaxConfig) -> Self {
        IndexSpec::Coax { config: Box::new(config), discovery: None }
    }

    /// A COAX spec reusing an existing discovery result.
    pub fn coax_with_discovery(config: CoaxConfig, discovery: Discovery) -> Self {
        IndexSpec::Coax { config: Box::new(config), discovery: Some(discovery) }
    }

    /// This spec with the given batch-execution policy
    /// ([`CoaxConfig::exec`]) — the factory-level parallelism knob: the
    /// built index's `batch_query` fans out accordingly, and so does a
    /// live service from [`IndexSpec::build_service`]. Substrate specs
    /// have no batch engine and are returned unchanged.
    pub fn with_exec(mut self, exec: crate::ExecConfig) -> Self {
        if let IndexSpec::Coax { config, .. } = &mut self {
            config.exec = exec;
        }
        self
    }

    /// Builds the described index over `dataset`, boxed behind the trait.
    ///
    /// A COAX config whose [`CoaxConfig::shard`] asks for more than one
    /// shard builds the sharded service ([`ShardedHandle`]) instead of a
    /// bare [`CoaxIndex`] — same trait surface, rows partitioned across
    /// independently maintained shards.
    pub fn build(&self, dataset: &Dataset) -> Box<dyn MultidimIndex> {
        match self {
            IndexSpec::Backend(spec) => spec.build(dataset),
            IndexSpec::Coax { config, discovery } if config.shard.count() > 1 => {
                match discovery {
                    Some(d) => Box::new(ShardedHandle::build_with_discovery(
                        dataset,
                        d.clone(),
                        config,
                    )),
                    None => Box::new(ShardedHandle::build(dataset, config)),
                }
            }
            IndexSpec::Coax { config, discovery } => match discovery {
                Some(d) => {
                    Box::new(CoaxIndex::build_with_discovery(dataset, d.clone(), config))
                }
                None => Box::new(CoaxIndex::build(dataset, config)),
            },
        }
    }

    /// Builds the live-maintained index service if this spec describes a
    /// COAX index, with as many shards as its [`CoaxConfig::shard`] asks
    /// for (one by default) and the [`CoaxConfig::maintenance`] policy it
    /// carries — the factory's entry to inserts, per-shard maintainers,
    /// read sessions and routing. Substrate specs have no insert path and
    /// return `None`.
    pub fn build_service(&self, dataset: &Dataset) -> Option<ShardedHandle> {
        match self {
            IndexSpec::Backend(_) => None,
            IndexSpec::Coax { config, discovery } => Some(match discovery {
                Some(d) => ShardedHandle::build_with_discovery(dataset, d.clone(), config),
                None => ShardedHandle::build(dataset, config),
            }),
        }
    }

    /// Builds a *concrete* [`CoaxIndex`] if this spec describes one.
    ///
    /// The figure binaries need the concrete type for the paper's
    /// primary/outlier split reporting (`query_primary`,
    /// `primary_overhead`, …) after tuning the contender through the
    /// boxed path; everything else should use [`IndexSpec::build`].
    pub fn build_coax(&self, dataset: &Dataset) -> Option<CoaxIndex> {
        match self {
            IndexSpec::Backend(_) => None,
            IndexSpec::Coax { config, discovery } => Some(match discovery {
                Some(d) => CoaxIndex::build_with_discovery(dataset, d.clone(), config),
                None => CoaxIndex::build(dataset, config),
            }),
        }
    }

    /// Whether building over `dataset` stays inside every builder
    /// precondition (directory caps, node capacities). Sweeps call this
    /// up front to skip configurations instead of panicking.
    pub fn fits(&self, dataset: &Dataset) -> bool {
        match self {
            IndexSpec::Backend(spec) => spec.fits(dataset.dims()),
            IndexSpec::Coax { config, discovery } => {
                coax_fits(config, dataset, discovery.as_ref())
            }
        }
    }

    /// The [`MultidimIndex::name`] the built index will report.
    pub fn name(&self) -> &'static str {
        match self {
            IndexSpec::Backend(spec) => spec.name(),
            IndexSpec::Coax { config, .. } if config.shard.count() > 1 => "coax-sharded",
            IndexSpec::Coax { .. } => "coax",
        }
    }

    /// Short configuration label for sweep tables ("k=8", "cap=12",
    /// "k=16 primary=r-tree", …).
    pub fn label(&self) -> String {
        match self {
            IndexSpec::Backend(spec) => spec.label(),
            IndexSpec::Coax { config, .. } => match &config.primary_backend {
                PrimaryBackend::GridFile => format!("k={}", config.cells_per_dim),
                pb => format!("k={} primary={}", config.cells_per_dim, pb.label()),
            },
        }
    }

    /// One spec of every index kind in the workspace — the five
    /// substrates plus COAX — at modest default resolutions. The list the
    /// equivalence tests and the `backend_zoo` example iterate.
    pub fn all_kinds(cells_per_dim: usize, capacity: usize) -> Vec<IndexSpec> {
        let mut specs: Vec<IndexSpec> = BackendSpec::all_kinds(cells_per_dim, capacity)
            .into_iter()
            .map(IndexSpec::from)
            .collect();
        specs.push(IndexSpec::coax(CoaxConfig::default()));
        specs
    }

    /// Runs soft-FD discovery for `dataset` under `config` — the result
    /// plugs into [`IndexSpec::coax_with_discovery`] for shared-discovery
    /// sweeps.
    pub fn discover_for(config: &CoaxConfig, dataset: &Dataset) -> Discovery {
        discover(dataset, &config.discovery, config.seed)
    }
}

/// Builder-precondition check for one COAX configuration, covering both
/// partitions' backends. Recursive because [`PrimaryBackend::Coax`] nests
/// a whole configuration; the nested check conservatively assumes the
/// inner index sees the full dataset (partitions can only shrink it).
fn coax_fits(config: &CoaxConfig, dataset: &Dataset, discovery: Option<&Discovery>) -> bool {
    let primary_ok = match &config.primary_backend {
        PrimaryBackend::GridFile => {
            // The primary directory grids the indexed attributes minus
            // the sorted one; without a discovery in hand, bound it by
            // the dataset dimensionality.
            let grid_dims = match discovery {
                Some(d) => d.indexed_dims().len().saturating_sub(1),
                None => dataset.dims().saturating_sub(1),
            };
            BackendSpec::GridFile { cells_per_dim: config.cells_per_dim, sort_dim: None }
                .fits(grid_dims)
        }
        // Non-default primaries index the partition over all dims.
        PrimaryBackend::RTree { capacity } => {
            BackendSpec::RTree { capacity: *capacity }.fits(dataset.dims())
        }
        PrimaryBackend::Custom(spec) => spec.fits(dataset.dims()),
        PrimaryBackend::Coax(nested) => coax_fits(nested, dataset, None),
    };
    // The outlier backend builds over all dims; resolve it as if every
    // row were an outlier (worst case) so its builder preconditions are
    // covered too.
    let outlier_ok = config
        .outlier_backend
        .to_spec(dataset.len(), dataset.dims(), None, config.outlier_cells_per_dim)
        .fits(dataset.dims());
    primary_ok && outlier_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use coax_data::synth::{Generator, UniformConfig};
    use coax_data::RangeQuery;

    #[test]
    fn factory_builds_every_kind_including_coax() {
        let ds = UniformConfig::cube(3, 400, 77).generate();
        let specs = IndexSpec::all_kinds(4, 8);
        assert_eq!(specs.len(), 6, "five substrates + coax");
        for spec in &specs {
            assert!(spec.fits(&ds), "{spec:?}");
            let index = spec.build(&ds);
            assert_eq!(index.name(), spec.name());
            assert_eq!(index.len(), 400);
            let hits = index.range_query(&RangeQuery::unbounded(3));
            assert_eq!(hits.len(), 400, "{spec:?} must return every row");
        }
    }

    #[test]
    fn factory_routes_sharded_configs_to_the_sharded_service() {
        use crate::shard::ShardSpec;
        let ds = UniformConfig::cube(2, 400, 82).generate();
        let spec =
            IndexSpec::coax(CoaxConfig { shard: ShardSpec::hash(3, 0), ..Default::default() });
        assert_eq!(spec.name(), "coax-sharded");
        let boxed = spec.build(&ds);
        assert_eq!(boxed.name(), spec.name());
        assert_eq!(boxed.len(), 400);
        assert_eq!(boxed.range_query(&RangeQuery::unbounded(2)).len(), 400);
        let sharded = spec.build_service(&ds).expect("sharded spec");
        assert_eq!(sharded.shard_count(), 3);
        // Unsharded specs keep the plain boxed path; their service has
        // one shard.
        let plain = IndexSpec::coax(CoaxConfig::default());
        assert_eq!(plain.name(), "coax");
        assert_eq!(plain.build(&ds).name(), "coax");
        assert_eq!(plain.build_service(&ds).expect("coax spec").shard_count(), 1);
    }

    #[test]
    fn factory_builds_maintained_handles_for_coax_only() {
        let ds = UniformConfig::cube(2, 300, 81).generate();
        let service = IndexSpec::coax(CoaxConfig::default())
            .build_service(&ds)
            .expect("coax spec yields a service");
        assert_eq!(service.len(), 300);
        service.insert(&[0.5, 0.5]).expect("service accepts inserts");
        assert_eq!(service.len(), 301);
        assert!(IndexSpec::from(BackendSpec::FullScan).build_service(&ds).is_none());
    }

    #[test]
    fn coax_spec_shares_discovery() {
        let ds = UniformConfig::cube(2, 500, 78).generate();
        let config = CoaxConfig::default();
        let discovery = IndexSpec::discover_for(&config, &ds);
        let spec = IndexSpec::coax_with_discovery(config, discovery);
        let boxed = spec.build(&ds);
        let concrete = spec.build_coax(&ds).expect("coax spec");
        assert_eq!(boxed.len(), concrete.len());
        assert!(IndexSpec::from(BackendSpec::FullScan).build_coax(&ds).is_none());
    }

    #[test]
    fn fits_guards_coax_directory() {
        let ds = UniformConfig::cube(6, 100, 79).generate();
        let big = IndexSpec::coax(CoaxConfig { cells_per_dim: 4096, ..Default::default() });
        assert!(!big.fits(&ds), "4096^5 cells must be rejected");
        assert!(IndexSpec::coax(CoaxConfig::default()).fits(&ds));
    }

    #[test]
    fn fits_guards_coax_outlier_backend() {
        use crate::OutlierBackend;
        let ds = UniformConfig::cube(6, 100, 80).generate();
        // A custom outlier spec whose directory (64^6 cells) blows the cap
        // must be rejected up front, not panic inside the builder.
        let bad_outliers = IndexSpec::coax(CoaxConfig {
            outlier_backend: OutlierBackend::Custom(BackendSpec::UniformGrid {
                cells_per_dim: 64,
            }),
            ..Default::default()
        });
        assert!(!bad_outliers.fits(&ds));
        // Same for an unbuildable R-tree capacity.
        let bad_rtree = IndexSpec::coax(CoaxConfig {
            outlier_backend: OutlierBackend::RTree { capacity: 1 },
            ..Default::default()
        });
        assert!(!bad_rtree.fits(&ds));
        // Sane custom backends still pass.
        let ok = IndexSpec::coax(CoaxConfig {
            outlier_backend: OutlierBackend::Custom(BackendSpec::RTree { capacity: 8 }),
            ..Default::default()
        });
        assert!(ok.fits(&ds));
    }
}
