//! On-disk persistence for the BlinkDB reproduction.
//!
//! The paper's storage budget, tiered caching, and Error–Latency cost
//! model (§4–§5) all assume samples that physically live on disk and are
//! selectively cached in RAM. This crate provides the durability
//! substrate that makes that real:
//!
//! * [`blk`] — the versioned, checksummed `.blk` columnar segment
//!   format: one chunk per column per row group with a footer index and
//!   per-chunk CRC-32, plus bit-exact [`blinkdb_storage::Table`]
//!   (de)serialization — one slice codec, which whole tables and
//!   incrementally-checkpointed fact segments both go through.
//! * [`wal`] — the ingest write-ahead log: framed, checksummed records
//!   appended *before* a batch is applied; replay stops cleanly at a
//!   torn tail, so recovery always lands on a consistent prefix.
//! * [`manifest`] — atomic rename-based manifest commits, so a crash
//!   mid-save never leaves a readable-but-torn snapshot.
//! * [`codec`] / [`crc`] — the little-endian encoding primitives and
//!   CRC-32 everything above is built from.
//!
//! The *contents* of a snapshot (families, reservoir state, plan,
//! profiles) are composed by `blinkdb-core` on top of these primitives;
//! the service tier's WAL hooks live in `blinkdb-service`.

#![warn(missing_docs)]

pub mod blk;
pub mod codec;
pub mod crc;
pub mod manifest;
pub mod wal;

pub use blk::{
    read_table, write_table, write_table_meta, write_table_slice, Segment, SegmentWriter,
    TableAssembler,
};
pub use wal::{decode_batch, encode_batch, fsync_default, replay as replay_wal, Wal, WalReplay};
