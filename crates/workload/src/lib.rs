//! Workload generators for the evaluation (§6.1 of the paper).
//!
//! The paper evaluates on (a) a 17 TB Conviva trace — a single
//! denormalized fact table of media-session logs with 104 columns and a
//! 2-year query log collapsing to 42 templates — and (b) TPC-H at scale
//! factor 1000 with 22 queries mapping to 6 templates. Both datasets are
//! proprietary or external; this crate generates synthetic equivalents
//! that preserve what the experiments exercise:
//!
//! * heavy-tailed joint column distributions (so stratified samples beat
//!   uniform ones and Δ(φ) drives the optimizer),
//! * a stable template mix with weights (so the optimizer has a
//!   workload),
//! * paper-scale byte volumes via the logical scale factor (so the
//!   cluster simulator prices scans like 17 TB / 1 TB tables).
//!
//! Modules:
//!
//! * [`gen`] — column-generator toolkit (zipfian categoricals, bucketed
//!   numerics, heavy-tailed measures).
//! * [`conviva`] — the Conviva-like `sessions` fact table + 42-template
//!   workload (the Fig. 6(a) winners are the heavy-weight templates).
//! * [`tpch`] — the TPC-H-like `lineitem` fact table (+ `orders`
//!   dimension) and the 6-template workload of Fig. 6(b).
//! * [`queries`] — instantiating templates into concrete SQL, including
//!   the *selective* and *bulk* suites of Fig. 8(c).
//! * [`stream`] — streaming append batches in the Conviva schema, with
//!   an optional zipf-rank rotation that shifts which strata are hot
//!   (drives the live-ingestion scenario: folds under small drift, full
//!   refreshes past the threshold).

pub mod conviva;
pub mod gen;
pub mod queries;
pub mod stream;
pub mod tpch;

pub use conviva::{conviva_dataset, ConvivaDataset};
pub use queries::{instantiate, BoundSpec, QuerySpec};
pub use stream::{conviva_append_batch, conviva_stream, StreamSpec};
pub use tpch::{tpch_dataset, TpchDataset};
