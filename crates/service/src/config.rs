//! Service configuration ([`ServiceConfig`], [`AuditPolicy`],
//! [`IngestConfig`], [`DurabilityConfig`]) and the three error enums
//! the public API returns. Plain data: nothing here synchronises.
//!
//! Only values a caller actually varies are fields. The rest are fixed:
//! the ELP cache holds 128 templates, the slow-query log keeps 64
//! records, admission always degrades an error bound that would blow
//! the latency SLO, and the ingest thread compacts with
//! `CompactorConfig::default()`. Tracing is a property of the execution
//! policy ([`ExecPolicy::trace`]), not of the service.

use blinkdb_common::error::BlinkError;
use blinkdb_core::ExecPolicy;
use std::fmt;
use std::path::PathBuf;

// In scope for the doc links below only.
#[cfg(doc)]
use crate::{QueryService, ServiceAnswer};
#[cfg(doc)]
use blinkdb_telemetry::{QueryTrace, WorkloadProfiler};

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Bounded admission-queue depth; submissions beyond it are rejected
    /// with [`SubmitError::QueueFull`] (backpressure, not buffering).
    pub queue_capacity: usize,
    /// Entries in the canonical-query result cache.
    pub result_cache_capacity: usize,
    /// Simulated-seconds deadline assumed for queries without a `WITHIN`
    /// clause (error-bounded and unbounded queries); also the latency
    /// SLO that triggers error-bound degradation.
    pub default_deadline_s: f64,
    /// Per-query execution override ([`ExecPolicy`]: partition
    /// fan-out, local scan parallelism, early termination, tracing).
    /// `None` (default) uses the shared instance's `config.exec`.
    /// Admission's latency floor is predicted under the same effective
    /// policy the workers execute with. With [`ExecPolicy::trace`] on,
    /// every completed answer carries an EXPLAIN ANALYZE-style
    /// [`QueryTrace`] on [`ServiceAnswer::trace`], and slow-query
    /// records (rejections included) capture the offender's trace. Off
    /// (the default) the production path pays nothing and answers are
    /// bit-identical to an untraced run.
    pub exec: Option<ExecPolicy>,
    /// Fraction of a query's deadline (its `WITHIN` bound, else
    /// `default_deadline_s`) beyond which a completed query is recorded
    /// in the slow-query log.
    pub slow_threshold_frac: f64,
    /// Online accuracy auditing ([`AuditPolicy`]). `None` (the default)
    /// disables auditing entirely — no audit thread is spawned and the
    /// query path pays nothing.
    pub audit: Option<AuditPolicy>,
    /// Online workload/QCS profiling and ELP calibration tracking
    /// ([`WorkloadProfiler`], whose decay, caps and drift threshold
    /// are fixed). On by default: the profiler only copies values the
    /// pipeline already computed, so answers are bit-identical with
    /// profiling on or off. `false` disables it; the `EXPLAIN
    /// WORKLOAD` report then degrades to a fixed header.
    pub profile: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 256,
            result_cache_capacity: 512,
            default_deadline_s: 30.0,
            exec: None,
            slow_threshold_frac: 0.9,
            audit: None,
            profile: true,
        }
    }
}

/// Tuning for the online accuracy auditor ([`ServiceConfig::audit`]).
///
/// Auditing samples completed queries per canonical template,
/// re-executes them *exactly* against the answer's pinned epoch
/// snapshot on a dedicated background thread, and records whether the
/// reported 2σ confidence interval contained the truth. The thread
/// runs at strictly lower priority than ingest (it defers while
/// batches are pending), and audits are *shed* — skipped and counted —
/// under load, so the query hot path never pays for them. The auditor
/// tracks 128 templates (later ones share an `overflow` stream) and
/// keeps the last 64 CI misses.
#[derive(Debug, Clone, Copy)]
pub struct AuditPolicy {
    /// Audit every Nth completion of each canonical template (1 =
    /// every completion; the first completion of a template is always
    /// audited).
    pub sample_every: u64,
    /// Admission-queue depth at or above which an audit candidate is
    /// shed (`blinkdb_audit_shed_total{reason="queue_depth"}`).
    pub shed_queue_depth: usize,
    /// Pending-audit backlog at or above which a candidate is shed
    /// (`reason="audit_backlog"`).
    pub max_backlog: usize,
}

impl Default for AuditPolicy {
    fn default() -> Self {
        AuditPolicy {
            sample_every: 4,
            shed_queue_depth: 64,
            max_backlog: 256,
        }
    }
}

/// Tuning for the live-ingestion/maintenance thread
/// ([`QueryService::with_ingest`]). After each applied batch the
/// thread also runs one background compaction tick with
/// `CompactorConfig::default()`: pure metadata that never advances the
/// epoch or blocks a reader.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Total-variation drift beyond which a family is fully resampled
    /// on ingest instead of incrementally folded (the maintainer's §4.5
    /// threshold).
    pub drift_threshold: f64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            drift_threshold: 0.05,
        }
    }
}

/// Durability knobs for a WAL-backed ingesting service
/// ([`QueryService::with_ingest_durable`] / [`QueryService::recover`]).
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Snapshot directory: segments, `MANIFEST`, and `wal.log` live here.
    pub dir: PathBuf,
    /// Whether WAL appends and snapshot writes fsync. Defaults from the
    /// `BLINKDB_FSYNC` environment variable (`0` disables — the fast
    /// mode CI uses so tests stay quick).
    pub fsync: bool,
    /// Write a checkpoint (and truncate the WAL) once the WAL has
    /// accumulated this many bytes since the last one; `0` disables the
    /// byte trigger. Checkpoints are incremental (only segments sealed
    /// since the last manifest are written), so keying the cadence to
    /// accumulated WAL bytes bounds replay work without making
    /// checkpoint cost grow with total data.
    pub snapshot_wal_bytes: u64,
    /// Write a checkpoint once this many segments have been sealed
    /// (batches applied) since the last one; `0` disables the segment
    /// trigger. With both triggers `0` the WAL grows until shutdown or
    /// recovery.
    pub snapshot_sealed_segments: u64,
    /// Whether a final snapshot is written on clean shutdown, making the
    /// next start a pure cold-start `open` with no WAL tail. Crash
    /// stress tests disable this to simulate killing the ingest thread.
    pub snapshot_on_shutdown: bool,
}

impl DurabilityConfig {
    /// Durability under `dir` with the default cadence (checkpoint at
    /// 4 MiB of WAL or 16 sealed segments, whichever trips first) and
    /// fsync per `BLINKDB_FSYNC`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: blinkdb_persist::fsync_default(),
            snapshot_wal_bytes: 4 << 20,
            snapshot_sealed_segments: 16,
            snapshot_on_shutdown: true,
        }
    }

    pub(crate) fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }
}

/// Why an append was not accepted (or did not apply).
#[derive(Debug, Clone)]
pub enum IngestError {
    /// The service was built without an ingest thread
    /// ([`QueryService::new`] serves a static snapshot).
    NotIngesting,
    /// The service is shutting down.
    Shutdown,
    /// A background apply failed (schema mismatch, rebuild error); no
    /// new epoch was published and the previous one kept serving.
    Failed(String),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::NotIngesting => f.write_str("service has no ingest thread"),
            IngestError::Shutdown => f.write_str("service shut down"),
            IngestError::Failed(e) => write!(f, "ingest failed: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Why a submission was not admitted.
#[derive(Debug)]
pub enum SubmitError {
    /// The SQL failed to parse or bind.
    Invalid(BlinkError),
    /// The bounded admission queue is full — back off and retry.
    QueueFull,
    /// No plan can satisfy the query's `WITHIN` bound: even the cheapest
    /// execution is predicted to take `required_s` > `requested_s`.
    Unsatisfiable {
        /// Predicted floor (simulated seconds).
        required_s: f64,
        /// The query's requested bound (simulated seconds).
        requested_s: f64,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Invalid(e) => write!(f, "invalid query: {e}"),
            SubmitError::QueueFull => f.write_str("admission queue full"),
            SubmitError::Unsatisfiable {
                required_s,
                requested_s,
            } => write!(
                f,
                "unsatisfiable bound: needs ≥{required_s:.2}s, requested {requested_s:.2}s"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a previously-admitted query did not produce an answer.
#[derive(Debug, Clone)]
pub enum ServiceError {
    /// Execution failed.
    Exec(String),
    /// The service shut down before the query ran.
    Shutdown,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Exec(e) => write!(f, "execution failed: {e}"),
            ServiceError::Shutdown => f.write_str("service shut down"),
        }
    }
}

impl std::error::Error for ServiceError {}
