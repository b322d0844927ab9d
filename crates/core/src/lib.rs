//! BlinkDB core: the paper's primary contribution.
//!
//! Three subsystems, mirroring the paper's structure:
//!
//! * [`sampling`] (§3.1) — multi-dimensional, multi-resolution sample
//!   families: uniform samples `R(p)` and stratified samples `S(φ, K)`
//!   with exponentially decreasing caps `Kᵢ = ⌊K₁/cⁱ⌋`, stored nested so
//!   a family costs only its largest member (Fig. 3/4), with per-row
//!   effective sampling rates for unbiased answers (§4.3).
//! * [`optimizer`] (§3.2) — the sample-selection optimization problem:
//!   maximize `Σ wᵢ·yᵢ·Δ(φᵀᵢ)` subject to the storage budget (eq. 2–4)
//!   and the churn constraint for re-solves (eq. 5), solved exactly by a
//!   specialized branch-and-bound and cross-checked against the generic
//!   `blinkdb-milp` solver.
//! * [`runtime`] (§4) — run-time sample selection: family selection for
//!   conjunctive and disjunctive queries (§4.1), the Error–Latency
//!   Profile that picks a resolution satisfying an error or time bound
//!   (§4.2), and answer assembly with confidence intervals.
//! * [`maintenance`] (§4.5 / §3.2.3) — drift detection, periodic sample
//!   replacement under the administrator's churn budget `r`, the
//!   online fold-or-refresh pass over freshly-sealed segments
//!   ([`maintenance::Maintainer::fold_or_refresh`] +
//!   [`sampling::delta`]), and the background
//!   [`maintenance::Compactor`] that merges segment generations and
//!   manages family residency without ever advancing the epoch.
//! * [`epoch`] — the live-ingestion backbone: a monotonic [`DataEpoch`]
//!   every mutation advances, plus the [`SnapshotSwap`] readers pin
//!   per-query so ingest/maintenance never blocks them.
//! * [`persist`] — cold-start durability: [`BlinkDb::save`] writes the
//!   whole instance (tables, families with reservoir state, plan, ELP
//!   hints) as checksummed segments behind an atomically committed
//!   manifest, [`BlinkDb::save_incremental`] rewrites only fact
//!   slices for segments sealed since the last checkpoint
//!   ([`CheckpointState`]), and [`BlinkDb::open`] reconstructs it all
//!   bit-identically, with loaded families priced at their actual
//!   on-disk residency.
//!
//! The [`BlinkDb`] facade ties them together: load a fact table, declare
//! a workload, call [`BlinkDb::create_samples`], then issue SQL with
//! `ERROR WITHIN …` / `WITHIN … SECONDS` bounds via [`BlinkDb::query`].
//!
//! Final executions are data-parallel: the chosen resolution is split
//! into stratum-aligned partitions
//! ([`SampleFamily::partitioned`]), scanned on a scoped thread pool, and
//! merged ([`blinkdb_exec::partial`]); `ERROR`-bounded queries may
//! terminate early once the running confidence interval meets the bound
//! (see [`ExecPolicy`]).

#![warn(missing_docs)]

pub mod advisor;
pub mod blinkdb;
pub mod epoch;
pub mod maintenance;
pub mod optimizer;
pub mod persist;
pub mod query;
pub mod runtime;
pub mod sampling;

pub use advisor::{
    advise, render_workload_report, FamilyUtility, FamilyView, Recommendation, WorkloadAdvice,
};
pub use blinkdb::{ApproxAnswer, BlinkDb, BlinkDbConfig, EstimatorPolicy, ExecPolicy};
pub use epoch::{DataEpoch, SnapshotSwap};
pub use maintenance::{
    CompactionReport, Compactor, CompactorConfig, IngestMaintenance, Maintainer,
};
pub use optimizer::{OptimizerConfig, SamplePlan};
pub use persist::{CheckpointState, SaveReport};
pub use query::{bootstrap_cost_multiplier, PlanProfile};
pub use sampling::{FamilyConfig, SampleFamily};
