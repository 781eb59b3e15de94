//! # COAX — Correlation-Aware Indexing
//!
//! A from-scratch Rust reproduction of *COAX: Correlation-Aware Indexing on
//! Multidimensional Data with Soft Functional Dependencies* (Hadian,
//! Ghaffari, Wang, Heinis).
//!
//! COAX builds a multidimensional **primary index** over only the attributes
//! that cannot be predicted from others, plus a small **outlier index** for
//! the rows that violate the learned soft functional dependencies. Query
//! constraints on a dependent attribute are *translated* through the learned
//! model into constraints on its predictor, so the dropped dimensions never
//! need to be indexed at all.
//!
//! ## Architecture
//!
//! Three library layers, stacked strictly bottom-up (see `ARCHITECTURE.md`
//! for the full tour):
//!
//! * [`data`] ([`coax_data`]) — dataset storage, synthetic dataset
//!   generators (airline/OSM analogues), query workloads, and statistics.
//!   Knows nothing about indexing.
//! * [`index`] ([`coax_index`]) — the substrate layer: grid file, uniform
//!   grid, column files, R-tree, and full scan, all behind **one
//!   object-safe trait**, [`index::MultidimIndex`] (range, point, and
//!   batch queries, entry iteration, memory accounting), plus the
//!   **backend factory** [`index::BackendSpec`] that builds any substrate
//!   from a config value as a `Box<dyn MultidimIndex>`.
//! * [`core`] ([`coax_core`]) — the paper's contribution: soft-FD
//!   discovery, query translation, the shared execution layer
//!   ([`core::exec`]: translate once into a [`core::QueryPlan`], then
//!   probe primary → probe outliers → merge, materialized or streamed
//!   through a cursor), and [`core::CoaxIndex`] itself — which
//!   **implements `MultidimIndex` too**, holds its outlier
//!   partition as a factory-built `Box<dyn MultidimIndex>`, and therefore
//!   composes like any other backend. [`core::IndexSpec`] extends the
//!   factory to cover COAX, so callers build *every* index in the
//!   workspace the same way. The index service, [`core::ShardedHandle`]
//!   (one shard by default), keeps a built index true under a live write
//!   stream: it takes every insert, each of its shards runs the
//!   [`core::maint`] lifecycle (a drift monitor, a fold/refit policy,
//!   and the epoch-swapped [`core::maint::IndexHandle`] for reads
//!   concurrent with writes), and [`core::ShardedSnapshot`] sessions
//!   serve multi-query reads that see one consistent version (see the
//!   `streaming_maintenance` example).
//!
//! The bench harness (`coax-bench`), the integration tests, and the
//! examples never name concrete index types in their comparison paths:
//! they hold `Vec<Box<dyn MultidimIndex>>` built from specs. Adding a
//! backend is one new [`index::BackendSpec`] variant.
//!
//! ## Quickstart
//!
//! ```
//! use coax::core::{CoaxConfig, CoaxIndex};
//! use coax::data::synth::{AirlineConfig, Generator};
//! use coax::data::Query;
//! use coax::index::MultidimIndex;
//!
//! // A miniature airline-like dataset with two correlated attribute groups.
//! let dataset = AirlineConfig::small(20_000, 42).generate();
//!
//! // Build COAX: soft FDs are discovered automatically.
//! let index = CoaxIndex::build(&dataset, &CoaxConfig::default());
//!
//! // The typed predicate builder: name only the attributes you
//! // constrain (half-open and one-sided intervals welcome); it lowers
//! // to the closed rectangle the engine executes.
//! let query = Query::select(dataset.dims()).range(0, 200.0..=600.0).build().unwrap();
//! let hits = index.range_query(&query);
//! assert!(!hits.is_empty());
//!
//! // The same query, streamed: chunks flow as the scan proceeds, and
//! // the collected stream is bit-identical to the materialized call.
//! let (streamed, _stats) = index.range_query_cursor(&query).collect_with_stats();
//! assert_eq!(streamed.len(), hits.len());
//! ```
//!
//! Or, treating COAX as just one backend among many via the factory:
//!
//! ```
//! use coax::core::{CoaxConfig, IndexSpec};
//! use coax::data::synth::{AirlineConfig, Generator};
//! use coax::data::RangeQuery;
//! use coax::index::{BackendSpec, MultidimIndex};
//!
//! let dataset = AirlineConfig::small(5_000, 42).generate();
//! let mut query = RangeQuery::unbounded(dataset.dims());
//! query.constrain(0, 200.0, 600.0);
//!
//! let backends: Vec<Box<dyn MultidimIndex>> = vec![
//!     BackendSpec::RTree { capacity: 10 }.into(),
//!     IndexSpec::coax(CoaxConfig::default()),
//! ]
//! .iter()
//! .map(|spec: &IndexSpec| spec.build(&dataset))
//! .collect();
//!
//! let reference = backends[0].range_query(&query).len();
//! assert!(backends.iter().all(|b| b.range_query(&query).len() == reference));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use coax_core as core;
pub use coax_data as data;
pub use coax_index as index;

/// Crate version of the facade, matching the workspace version.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
