//! Columnar table storage with simulated cluster placement.
//!
//! This crate is the "HDFS + warehouse table" substrate of the
//! reproduction:
//!
//! * [`table`] — the in-memory columnar [`table::Table`] every other crate
//!   operates on, including the **logical scale factor** machinery that
//!   lets a few million physical rows stand in for the paper's 17 TB
//!   (physical rows carry `logical_rows_per_row` and `row_bytes`, so byte
//!   accounting matches paper scale while estimators run on real data).
//! * [`partition`] — stratum-aligned row partitions of a sample
//!   ([`partition::PartitionedTable`]): each of the K partitions holds a
//!   proportional share of every stratum, one contiguous block of its
//!   shuffle order, so a query can fan out one partial-aggregate task
//!   per partition and merge (§4.2, §5).
//! * [`segment`] — the arrival-time segment cover of the fact table
//!   ([`segment::SegmentLog`]): ingest seals small immutable segments,
//!   generational compaction merges them as pure metadata, and the
//!   persist layer checkpoints only segments sealed since the last
//!   manifest.
//! * [`tier`] — memory vs. disk placement of a table or sample, which the
//!   cluster simulator prices differently.

#![warn(missing_docs)]

pub mod partition;
pub mod segment;
pub mod table;
pub mod tier;

pub use partition::{Partition, PartitionedTable};
pub use segment::{CompactionPlan, SegmentLog, SegmentMeta};
pub use table::{RowChunk, RowSet, Table, TableRef};
pub use tier::{Residency, StorageTier};
