//! `blinkdb-service` — a concurrent, deadline-aware query service over a
//! shared [`blinkdb_core::BlinkDb`].
//!
//! The paper's promise is *bounded response times under interactive,
//! multi-user workloads* (§5–6: hundreds of analysts hitting the same
//! sampled tables). The core crate answers one query at a time; this
//! crate adds the serving tier:
//!
//! * **Submission** — [`QueryService::submit`] parses, canonicalizes,
//!   and admits a query, returning a [`QueryHandle`] that resolves
//!   exactly once.
//! * **Admission control** — the runtime's Error–Latency Profile
//!   predicts whether the query's `WITHIN`/`ERROR` bound is satisfiable.
//!   Hopeless time bounds are rejected up front ([`SubmitError::Unsatisfiable`]);
//!   error bounds whose required resolution would blow the latency SLO
//!   are *degraded* to the largest satisfiable ε instead of queueing.
//!   A bounded admission queue exerts backpressure
//!   ([`SubmitError::QueueFull`]) rather than buffering without limit.
//! * **Scheduling** — earliest-deadline-first across N worker threads.
//! * **ELP cache** — one [`blinkdb_core::PlanProfile`] per canonical
//!   query *template*, so repeated dashboard templates skip the §4.1
//!   family probing and §4.2 ELP probing entirely.
//! * **Result cache** — a bounded LRU keyed by *(canonical query, data
//!   epoch)*, serving hot queries without touching the samples — and
//!   never serving an answer computed against data that has since
//!   changed.
//! * **Live ingestion** — [`QueryService::with_ingest`] adds the
//!   §3.2.3/§4.5 write path: appended fact rows are folded into the
//!   samples (or trigger a full refresh past the drift threshold) by a
//!   background thread that publishes epoch-versioned snapshots; query
//!   workers pin a snapshot per query and never block on the writer.
//! * **Durability** — [`QueryService::with_ingest_durable`] puts a
//!   write-ahead log in front of the ingest path (batches are framed,
//!   checksummed, and optionally fsynced *before* they are applied),
//!   checkpoints the whole instance — samples, reservoir state, ELP
//!   hints — into an atomically committed snapshot on a configurable
//!   cadence, and truncates the WAL after each snapshot.
//!   [`QueryService::recover`] replays the WAL tail over the latest
//!   snapshot and resumes serving at the epoch of the last durable
//!   batch.
//! * **Metrics** — [`ServiceMetrics`] snapshots admission counts,
//!   deadline misses, cache hit rates, ingestion/epoch counters,
//!   durability counters (WAL appends/bytes, snapshots, replays), and
//!   latency percentiles.
//! * **Accuracy auditing** — [`ServiceConfig::audit`] enables a
//!   background [`blinkdb_telemetry::Auditor`]: sampled completions are
//!   re-executed *exactly* against their pinned epoch snapshot on a
//!   strictly-lower-priority thread (load-shed, never blocking the hot
//!   path), and the realized 2σ CI coverage per canonical template is
//!   tracked online, with misses logged and an `EXPLAIN ACCURACY`
//!   report via [`QueryService::accuracy_report`].
//! * **Alerting** — a declarative [`blinkdb_telemetry::AlertEngine`]
//!   with hysteresis evaluates coverage, tail latency, WAL fsync,
//!   compaction backlog, family staleness, and ELP calibration rules
//!   on every export; [`QueryService::alerts`] surfaces
//!   firing/resolved transitions.
//! * **Workload profiling & plan advice** — [`ServiceConfig::profile`]
//!   (on by default) feeds every completion's query column set,
//!   serving family, outcome, and predicted-vs-actual scan time into a
//!   [`blinkdb_telemetry::WorkloadProfiler`]; drifted templates have
//!   their cached plan profiles invalidated, and the
//!   [`blinkdb_core::advisor`] scores the current families against the
//!   observed workload — [`QueryService::workload_report`] renders the
//!   `EXPLAIN WORKLOAD` table, [`QueryService::workload_advice`]
//!   returns it structured. Profiling only copies values the pipeline
//!   already computed, so answers are bit-identical with it on or off.
//!
//! # Module map
//!
//! One file per responsibility; no module takes a lock by hand — each
//! shared structure owns its mutex, condvars and shutdown handshake.
//!
//! | File | Responsibility | Synchronises through |
//! |---|---|---|
//! | `config.rs` | `ServiceConfig`, `AuditPolicy`, `IngestConfig`, `DurabilityConfig`; the three error enums | nothing (plain data) |
//! | `admission.rs` | ticket / handle / answer, `submit`, `admit`, `degraded_epsilon`, the EDF `JobQueue` | `JobQueue` (push), locked cache, `HandleState` |
//! | `worker.rs` | `worker_loop`, `run_job`, `service_trace`, rejection and slow-log accounting | `JobQueue` (pop), locked cache, `HandleState`, audit `Backlog` (sampling hook) |
//! | `ingest.rs` | `with_ingest*`, `recover`, `append_rows` / `flush_ingest`, `Durable`, WAL payload codec, `checkpoint`, `apply_batch`, `ingest_loop` | ingest `Backlog`, locked cache |
//! | `audit.rs` | `maybe_enqueue_audit`, `audit_loop`, `run_audit`, `flush_audits` | audit `Backlog` (reads the ingest `Backlog`'s `pending`) |
//! | `service.rs` | the `QueryService` facade: `new` / `build`, metrics / export / report accessors, `Drop` | shuts down `JobQueue` and both `Backlog`s; `HandleState` for abandoned jobs |
//!
//! `Backlog<T>` (`backlog.rs`) is the one FIFO-plus-flush-counters type
//! behind both background lanes; `LockedCache` (`cache.rs`) is the
//! [`LruCache`] behind its own mutex; `JobQueue` and `HandleState` live
//! in `admission.rs`. `metrics.rs` is lock-free counters and histograms.

mod admission;
mod audit;
mod backlog;
pub mod cache;
mod config;
mod ingest;
pub mod metrics;
pub mod service;
mod worker;

#[cfg(test)]
mod fixtures;

pub use admission::{QueryHandle, QueryTicket, ServiceAnswer};
pub use cache::LruCache;
pub use config::{
    AuditPolicy, DurabilityConfig, IngestConfig, IngestError, ServiceConfig, ServiceError,
    SubmitError,
};
pub use metrics::ServiceMetrics;
pub use service::QueryService;
