//! Streaming ingestion and incremental computation — closing the
//! train → serve → refresh loop.
//!
//! The offline pipeline (train on the PS, snapshot to the DFS, load a
//! [`psgraph_serve::ServeCluster`]) leaves the serving tier frozen at
//! snapshot time. This crate keeps it fresh while the graph keeps
//! changing:
//!
//! 1. **Events** ([`events`]) — timestamped edge add/remove events, from
//!    a drift-parameterized RMAT source ([`events::DriftRmat`]) or
//!    replayed bit-exactly from a DFS event log ([`events::EventLog`]).
//! 2. **Ingest** ([`ingest`]) — a bounded-mailbox micro-batch ingestor
//!    applies events to mutable PS state (a neighbor table whose adds
//!    append and whose removes delete in place, + a degree vector) and tracks an event-time watermark for
//!    freshness accounting. For write throughput, [`shard`] routes the
//!    stream across N such ingestors keyed by edge owner (source-range
//!    tiling) and merges freshness as the min across shard watermarks.
//! 3. **Maintain** — each batch's effects feed the incremental
//!    maintainers in `psgraph_core::algos::incremental`: PageRank by
//!    residual re-push, connected components by union-on-add and one
//!    bounded recompute per component a batch's removes hit.
//! 4. **Refresh** ([`refresh`]) — every few batches a
//!    [`psgraph_ps::snapshot::DeltaWriter`] delta of the dirtied
//!    partitions is hot-swapped into the live serve replicas, so queries
//!    observe updates within a bounded number of micro-batches.

pub mod error;
pub mod events;
pub mod ingest;
pub mod recovery;
pub mod refresh;
pub mod shard;

pub use error::{Result, StreamError};
pub use events::{DriftRmat, DriftRmatSource, EdgeEvent, EdgeOp, EventLog};
pub use ingest::{BatchEffect, IngestConfig, IngestStats, Ingestor};
pub use recovery::{replay_from_log, StreamCheckpoint};
pub use refresh::{RefreshConfig, RefreshDriver, SwapRecord};
pub use shard::ShardedIngestor;
