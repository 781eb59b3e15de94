//! Live maintenance: keep a COAX index true under a write stream.
//!
//! The paper's update story (§5, §9) is margin-checked buffered inserts
//! plus a blocking full rebuild the caller must remember to run. That is
//! fine for a reproduction and fatal for serving: nothing watches for
//! correlation drift (the silent killer of Eq. 5 effectiveness), the
//! rebuild refits every model even when only the buffer grew, and the
//! rebuild's owner cannot answer queries while it runs. This module is
//! the missing lifecycle layer, in three cooperating pieces:
//!
//! * [`DriftMonitor`] — watches the insert stream: per-model EWMAs of the
//!   margin-normalised residuals plus an EWMA of the outlier-routing
//!   rate, summarised as a [`DriftReport`] with a drift score per
//!   correlation group.
//! * [`MaintenancePolicy`] + [`Maintainer`] — turn a report into the
//!   cheapest sufficient [`MaintenanceAction`]: **fold** the buffer into
//!   the existing structures with every model and directory frozen
//!   ([`IndexHandle::fold`]: one merge pass per partition) when the
//!   buffer is merely long, or **refit** the models from the accumulated
//!   evidence and rebuild both partitions ([`IndexHandle::refit`]) when
//!   the dependency has drifted. The policy travels in
//!   [`crate::CoaxConfig::maintenance`].
//! * [`IndexHandle`] — one shard of the index service
//!   ([`crate::ShardedHandle`]) and its epoch swap: the service routes
//!   each insert to one shard, where it buffers in the overlay and is
//!   visible immediately, and readers query lock-free while a writer
//!   thread builds the successor epoch and publishes it with a pointer
//!   swap.
//! * [`ReadSnapshot`] — one shard's frozen view inside the service's
//!   read session ([`crate::ShardedSnapshot`]): the epoch `Arc` and a
//!   frozen overlay view cloned under one read guard, so any number of
//!   point/range/batch/cursor/streaming queries see a single consistent
//!   version while inserts and fold/refit proceed concurrently (snapshot
//!   isolation for multi-query read transactions).
//!
//! ```no_run
//! use coax_core::{CoaxConfig, ShardedHandle};
//!
//! # let dataset = coax_data::Dataset::new(vec![vec![], vec![]]);
//! let service = ShardedHandle::build(&dataset, &CoaxConfig::default()); // one shard
//! service.insert(&[1.0, 2.0]).unwrap();     // buffered, immediately visible
//! let shard = service.shard_handle(0);
//! let report = shard.drift_report();        // what the stream looks like
//! let action = shard.maintain();            // fold/refit if the policy says so
//! # let _ = (report, action);
//! ```

mod drift;
mod handle;
mod policy;

pub use drift::{DriftMonitor, DriftReport, GroupDrift, ModelDrift};
pub use handle::{IndexHandle, ReadSnapshot};
pub use policy::{Maintainer, MaintenanceAction, MaintenanceOutcome, MaintenancePolicy};
