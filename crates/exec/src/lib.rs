//! Physical query execution.
//!
//! This crate evaluates a bound query over a [`blinkdb_storage::TableRef`]
//! — the full table, a uniform sample, or one resolution of a stratified
//! sample family — and produces estimates with closed-form error bars.
//!
//! The pipeline (one pass over the fact rows):
//!
//! 1. [`join`] — hash indexes over the (small, unsampled) dimension
//!    tables; fact rows are expanded to joined rows (§2.1's fact ⋈
//!    dimension pattern).
//! 2. [`predicate`] — the compiled WHERE predicate filters joined rows.
//! 3. [`aggregate`] — matching rows feed per-group accumulators that
//!    apply the Horvitz–Thompson per-row rate correction of §4.3 and the
//!    closed-form variances of Table 2.
//!
//! The output [`answer::QueryAnswer`] carries, per group and aggregate,
//! the estimate, variance, and confidence interval, plus the scan
//! statistics (`rows_scanned`, `rows_matched`) the runtime's
//! Error–Latency Profile needs to estimate selectivity (§4.2).
//!
//! Execution comes in two shapes: the serial [`engine::execute`]
//! convenience (compile + one scan + finish) and the partitioned path in
//! [`partial`], where a `Sync` [`partial::QueryPlan`] scans disjoint
//! partitions from concurrent tasks and the mergeable
//! [`partial::PartialAggregates`] reduce to the same answer.
//!
//! Join-free scans take the vectorized [`kernel`] by default: predicates
//! evaluate batch-at-a-time over column chunks into selection bitmaps
//! and selected rows accumulate in run-length order — pinned
//! bit-identical to the row-at-a-time scan, which remains the testing
//! oracle.

#![warn(missing_docs)]

pub mod aggregate;
pub mod answer;
pub mod engine;
mod groups;
pub mod join;
pub mod kernel;
pub mod partial;
pub mod predicate;

pub use answer::{AggResult, AnswerRow, ErrorMethod, QueryAnswer};
pub use engine::{execute, ExecOptions, RateSpec};
pub use partial::{PartialAggregates, QueryPlan};
