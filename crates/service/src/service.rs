//! The query service: submission, admission control, EDF scheduling,
//! worker pool, caching, and live ingestion.
//!
//! # Epochs and snapshots
//!
//! The service does not serve from a fixed `Arc<BlinkDb>`: it serves
//! from a [`SnapshotSwap`] slot. Every query pins the current snapshot
//! for its whole execution, so its answer — estimates, error bars,
//! latency — is internally consistent *for the epoch it was computed
//! at*. When ingestion is enabled ([`QueryService::with_ingest`]), a
//! background thread owns the mutable master instance: it drains
//! appended batches, runs the fold-or-refresh maintenance pass
//! (§3.2.3/§4.5), and publishes the next epoch atomically. Readers never
//! block on it.
//!
//! Both caches are epoch-aware, because both would otherwise serve stale
//! state forever once data can change:
//!
//! * the **result cache** is keyed by `(canonical query, epoch)` and
//!   purged of superseded epochs at publish time, so a refreshed or
//!   grown table can never re-serve an answer computed against old data;
//! * the **ELP cache** holds [`PlanProfile`]s stamped with the epoch
//!   they were fitted at; a mismatch falls back to the full probe
//!   pipeline (mirroring the fan-out-width staleness rule).

use crate::cache::LruCache;
use crate::metrics::{MetricsRegistry, ServiceMetrics};
use blinkdb_common::error::BlinkError;
use blinkdb_common::Value;
use blinkdb_core::{
    advise, render_workload_report, AdvisorConfig, ApproxAnswer, BlinkDb, CheckpointState,
    Compactor, CompactorConfig, DataEpoch, ExecPolicy, FamilyView, IngestMaintenance, Maintainer,
    PlanProfile, SnapshotSwap, WorkloadAdvice,
};
use blinkdb_persist::{decode_batch, encode_batch, Wal};
use blinkdb_sql::ast::{Bound, Query};
use blinkdb_sql::canonical::{result_key, template_key, CanonicalKey};
use blinkdb_telemetry::{
    canonical_template, default_blinkdb_rules, AlertEngine, AlertStatus, AuditAggCheck,
    AuditConfig, AuditOutcome, Auditor, ProfileConfig, QuerySample, QueryTrace, Registry,
    ServeOutcome, SlowOutcome, SlowQueryLog, SlowQueryRecord, SpanKind, TraceSpan,
    WorkloadProfiler, WorkloadSnapshot,
};
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Bounded admission-queue depth; submissions beyond it are rejected
    /// with [`SubmitError::QueueFull`] (backpressure, not buffering).
    pub queue_capacity: usize,
    /// Entries in the per-template Error–Latency-Profile cache.
    pub elp_cache_capacity: usize,
    /// Entries in the canonical-query result cache.
    pub result_cache_capacity: usize,
    /// Simulated-seconds deadline assumed for queries without a `WITHIN`
    /// clause (error-bounded and unbounded queries); also the latency
    /// SLO that triggers error-bound degradation.
    pub default_deadline_s: f64,
    /// Whether admission may *degrade* a relative-error bound (enlarge
    /// ε) when satisfying the requested ε is predicted to blow the
    /// latency SLO. With `false` such queries are admitted unchanged.
    pub degrade: bool,
    /// Wall-clock seconds a worker stays occupied per *simulated* second
    /// of the query it ran — the serving-tier analogue of the cluster
    /// round trip the paper's driver blocks on. `0` (default) disposes
    /// of queries as fast as the local CPU allows; a positive dilation
    /// makes worker-pool sizing observable: in-flight "cluster jobs"
    /// overlap across workers exactly as concurrent Shark jobs would.
    pub sim_dilation: f64,
    /// Per-query partitioned-execution override ([`ExecPolicy`]:
    /// partition fan-out, local scan parallelism, early termination).
    /// `None` (default) uses the shared instance's `config.exec`.
    /// Admission's latency floor is predicted under the same effective
    /// policy the workers execute with.
    pub exec: Option<ExecPolicy>,
    /// Whether workers execute with span tracing on
    /// ([`ExecPolicy::trace`]): every completed answer then carries an
    /// EXPLAIN ANALYZE-style [`QueryTrace`] on
    /// [`ServiceAnswer::trace`], and slow-query records capture the
    /// offender's trace. Off (the default) the production path pays
    /// nothing and answers are bit-identical to an untraced run.
    pub trace: bool,
    /// Capacity of the bounded slow-query ring buffer
    /// ([`QueryService::slow_queries`]).
    pub slow_log_capacity: usize,
    /// Fraction of a query's deadline (its `WITHIN` bound, else
    /// `default_deadline_s`) beyond which a completed query is recorded
    /// in the slow-query log.
    pub slow_threshold_frac: f64,
    /// Online accuracy auditing ([`AuditPolicy`]). `None` (the default)
    /// disables auditing entirely — no audit thread is spawned and the
    /// query path pays nothing.
    pub audit: Option<AuditPolicy>,
    /// Online workload/QCS profiling and ELP calibration tracking
    /// ([`ProfilePolicy`]). On by default: the profiler only copies
    /// values the pipeline already computed, so answers are
    /// bit-identical with profiling on or off. `None` disables it; the
    /// `EXPLAIN WORKLOAD` report then degrades to a fixed header.
    pub profile: Option<ProfilePolicy>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 256,
            elp_cache_capacity: 128,
            result_cache_capacity: 512,
            default_deadline_s: 30.0,
            degrade: true,
            sim_dilation: 0.0,
            exec: None,
            trace: false,
            slow_log_capacity: 64,
            slow_threshold_frac: 0.9,
            audit: None,
            profile: Some(ProfilePolicy::default()),
        }
    }
}

/// Tuning for the online workload profiler
/// ([`ServiceConfig::profile`]). Mirrors
/// [`blinkdb_telemetry::ProfileConfig`] field-for-field, kept separate
/// so `ServiceConfig` stays `Copy` and plain-data.
#[derive(Debug, Clone, Copy)]
pub struct ProfilePolicy {
    /// Multiplicative decay applied to accumulated QCS mass per
    /// recorded query (recency weighting; 1.0 never forgets).
    pub decay: f64,
    /// Distinct query column sets tracked before folding into
    /// `overflow`.
    pub max_qcs: usize,
    /// Distinct templates tracked for ELP calibration before folding.
    pub max_templates: usize,
    /// EWMA weight on the newest `log2(actual/predicted)` observation.
    pub calibration_alpha: f64,
    /// Calibration samples a template needs before a drift verdict (and
    /// before its cached plan profile may be invalidated).
    pub calibration_min_samples: u64,
    /// Geometric calibration ratio past which a template counts as
    /// drifted and its cached [`PlanProfile`] is invalidated.
    pub drift_ratio: f64,
}

impl Default for ProfilePolicy {
    fn default() -> Self {
        let d = ProfileConfig::default();
        ProfilePolicy {
            decay: d.decay,
            max_qcs: d.max_qcs,
            max_templates: d.max_templates,
            calibration_alpha: d.calibration_alpha,
            calibration_min_samples: d.calibration_min_samples,
            drift_ratio: d.drift_ratio,
        }
    }
}

impl ProfilePolicy {
    fn to_config(self) -> ProfileConfig {
        ProfileConfig {
            decay: self.decay,
            max_qcs: self.max_qcs,
            max_templates: self.max_templates,
            calibration_alpha: self.calibration_alpha,
            calibration_min_samples: self.calibration_min_samples,
            drift_ratio: self.drift_ratio,
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
/// under load, so the query hot path never pays for them.
#[derive(Debug, Clone, Copy)]
pub struct AuditPolicy {
    /// Audit every Nth completion of each canonical template (1 =
    /// every completion; the first completion of a template is always
    /// audited).
    pub sample_every: u64,
    /// Distinct templates tracked before new ones fold into the
    /// shared `overflow` audit stream.
    pub max_templates: usize,
    /// Capacity of the bounded CI-miss accuracy log.
    pub miss_log_capacity: usize,
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
            max_templates: 128,
            miss_log_capacity: 64,
            shed_queue_depth: 64,
            max_backlog: 256,
        }
    }
}

/// Tuning for the live-ingestion/maintenance thread
/// ([`QueryService::with_ingest`]).
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Total-variation drift beyond which a family is fully resampled
    /// on ingest instead of incrementally folded (the maintainer's §4.5
    /// threshold).
    pub drift_threshold: f64,
    /// Background compaction knobs: the ingest thread runs one
    /// [`Compactor`] tick after each applied batch, merging runs of
    /// small sealed segments into larger generations (and, when
    /// enabled there, managing family residency from the ELP cache's
    /// hot set). Pure metadata — never advances the epoch, never
    /// blocks a reader.
    pub compaction: CompactorConfig,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            drift_threshold: 0.05,
            compaction: CompactorConfig::default(),
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

    fn wal_path(&self) -> PathBuf {
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

/// The admission record of one accepted query.
#[derive(Debug, Clone)]
pub struct QueryTicket {
    id: u64,
    submitted: Instant,
    deadline: Instant,
    bound_s: Option<f64>,
    degraded_epsilon: Option<f64>,
}

impl QueryTicket {
    /// Monotonic admission id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// When the query was submitted.
    pub fn submitted(&self) -> Instant {
        self.submitted
    }

    /// The absolute wall-clock deadline EDF schedules against.
    pub fn deadline(&self) -> Instant {
        self.deadline
    }

    /// The query's simulated `WITHIN` budget, if it had one.
    pub fn bound_seconds(&self) -> Option<f64> {
        self.bound_s
    }

    /// The relaxed ε admission substituted, when degradation fired.
    pub fn degraded_epsilon(&self) -> Option<f64> {
        self.degraded_epsilon
    }

    /// Wall-clock budget left before the deadline. Saturates at zero —
    /// a ticket never reports a negative remaining budget.
    pub fn remaining_budget(&self) -> Duration {
        self.deadline.saturating_duration_since(Instant::now())
    }

    /// [`QueryTicket::remaining_budget`] in seconds (always ≥ 0).
    pub fn remaining_budget_s(&self) -> f64 {
        self.remaining_budget().as_secs_f64()
    }
}

/// A completed query's payload.
#[derive(Debug, Clone)]
pub struct ServiceAnswer {
    /// The BlinkDB answer (shared with the result cache).
    pub answer: Arc<ApproxAnswer>,
    /// Whether the answer came from the result cache.
    pub from_cache: bool,
    /// The data epoch the answer was computed at (and, for cache hits,
    /// the epoch it was served for — the cache never crosses epochs).
    /// Estimates and error bars are honest with respect to the fact
    /// table as of this epoch.
    pub epoch: DataEpoch,
    /// Wall-clock time spent queued before a worker picked the query up.
    pub queue_wait: Duration,
    /// The relaxed ε, when admission degraded the query's error bound.
    pub degraded_epsilon: Option<f64>,
    /// The end-to-end span trace (admission → plan → partition scans →
    /// merge → finalize), present when the service runs with
    /// [`ServiceConfig::trace`]. Cache hits carry the trace of the
    /// execution that produced the cached answer, prefixed with this
    /// submission's own admission span.
    pub trace: Option<Arc<QueryTrace>>,
}

impl ServiceAnswer {
    /// How the answer's error bars were estimated (closed form vs
    /// bootstrap, with the replicate count `B` used) — surfaced from
    /// [`ApproxAnswer::method`] so dashboards can label error bars
    /// without digging through the answer.
    pub fn method(&self) -> blinkdb_exec::ErrorMethod {
        self.answer.method
    }
}

/// One-shot completion slot shared between worker and handle.
#[derive(Debug)]
struct HandleState {
    slot: Mutex<Option<Result<ServiceAnswer, ServiceError>>>,
    cv: Condvar,
}

impl HandleState {
    fn new() -> Arc<Self> {
        Arc::new(HandleState {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn resolve(&self, result: Result<ServiceAnswer, ServiceError>) {
        let mut slot = self.slot.lock().unwrap();
        debug_assert!(slot.is_none(), "a handle must resolve exactly once");
        *slot = Some(result);
        self.cv.notify_all();
    }
}

/// The caller's side of an admitted query. Consumed by [`QueryHandle::wait`],
/// so an answer can be claimed exactly once.
#[derive(Debug)]
pub struct QueryHandle {
    ticket: QueryTicket,
    state: Arc<HandleState>,
}

impl QueryHandle {
    /// The admission record.
    pub fn ticket(&self) -> &QueryTicket {
        &self.ticket
    }

    /// Blocks until the query completes; returns the answer and the
    /// ticket. Consumes the handle — each admitted query resolves
    /// exactly once.
    pub fn wait(self) -> (QueryTicket, Result<ServiceAnswer, ServiceError>) {
        let mut slot = self.state.slot.lock().unwrap();
        while slot.is_none() {
            slot = self.state.cv.wait(slot).unwrap();
        }
        (self.ticket, slot.take().expect("checked above"))
    }

    /// Non-blocking completion check.
    pub fn is_done(&self) -> bool {
        self.state.slot.lock().unwrap().is_some()
    }
}

/// One queued query.
struct Job {
    query: Query,
    /// The raw text as submitted (slow-query log attribution).
    sql: String,
    template: CanonicalKey,
    result: CanonicalKey,
    handle: Arc<HandleState>,
    submitted: Instant,
    bound_s: Option<f64>,
    degraded_epsilon: Option<f64>,
}

/// Heap entry: earliest deadline first, FIFO within a deadline.
struct QueueItem {
    deadline: Instant,
    seq: u64,
    job: Job,
}

impl PartialEq for QueueItem {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}

impl Eq for QueueItem {}

impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // BinaryHeap is a max-heap; invert so the earliest deadline (and
        // the lowest sequence number among ties) pops first.
        other
            .deadline
            .cmp(&self.deadline)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Shared state of the ingest path: a bounded-by-caller batch queue and
/// the enqueued/applied counters [`QueryService::flush_ingest`] waits
/// on.
struct IngestShared {
    batches: VecDeque<Vec<Vec<Value>>>,
    enqueued: u64,
    applied: u64,
    failed: Option<String>,
}

struct IngestState {
    shared: Mutex<IngestShared>,
    /// Wakes the ingest thread when a batch arrives (or on shutdown).
    work_cv: Condvar,
    /// Wakes `flush_ingest` waiters when a batch finishes applying.
    applied_cv: Condvar,
}

/// The durable side of the ingest thread: the open WAL plus checkpoint
/// bookkeeping. Lives on the ingest thread; never touched by workers.
struct Durable {
    wal: Wal,
    cfg: DurabilityConfig,
    /// Framed WAL bytes accumulated since the last checkpoint (trigger
    /// for `snapshot_wal_bytes`).
    wal_bytes_since_snapshot: u64,
    /// Segments sealed (batches applied) since the last checkpoint
    /// (trigger for `snapshot_sealed_segments`, and the shutdown
    /// snapshot's dirtiness test).
    segments_sealed_since_snapshot: u64,
    /// Which fact slices the committed manifest already holds — what
    /// makes each checkpoint incremental.
    checkpoint_state: CheckpointState,
}

impl Durable {
    /// Durable state right after a checkpoint: nothing logged or sealed
    /// since `checkpoint_state`'s manifest.
    fn new(wal: Wal, cfg: DurabilityConfig, checkpoint_state: CheckpointState) -> Self {
        Durable {
            wal,
            cfg,
            wal_bytes_since_snapshot: 0,
            segments_sealed_since_snapshot: 0,
            checkpoint_state,
        }
    }
}

/// Everything handed to the ingest thread at spawn.
struct MasterState {
    db: BlinkDb,
    cfg: IngestConfig,
    durable: Option<Durable>,
}

/// One sampled query awaiting its audit re-execution. Pins the exact
/// snapshot the served answer was computed against, so ground truth is
/// evaluated at the same epoch however far ingestion has advanced by
/// the time the audit thread gets to it.
struct AuditTask {
    sql: String,
    template: String,
    epoch: u64,
    db: Arc<BlinkDb>,
    answer: Arc<ApproxAnswer>,
    trace: Option<Arc<QueryTrace>>,
}

/// The audit thread's bounded work queue plus the enqueued/done
/// counters [`QueryService::flush_audits`] waits on.
struct AuditShared {
    tasks: VecDeque<AuditTask>,
    enqueued: u64,
    done: u64,
}

struct AuditState {
    auditor: Auditor,
    policy: AuditPolicy,
    shared: Mutex<AuditShared>,
    /// Wakes the audit thread when a task arrives (or on shutdown).
    work_cv: Condvar,
    /// Wakes `flush_audits` waiters when a task finishes.
    done_cv: Condvar,
}

struct Inner {
    /// The serving snapshot. Static deployments publish exactly once (at
    /// construction); ingesting deployments re-publish per applied
    /// batch. Workers pin one snapshot per query via `load`.
    db: SnapshotSwap<BlinkDb>,
    cfg: ServiceConfig,
    queue: Mutex<BinaryHeap<QueueItem>>,
    queue_cv: Condvar,
    elp: Mutex<LruCache<CanonicalKey, PlanProfile>>,
    /// Keyed by (canonical query, epoch): an entry can only ever serve
    /// the epoch its answer was computed at.
    results: Mutex<LruCache<(CanonicalKey, DataEpoch), Arc<ApproxAnswer>>>,
    ingest: Option<IngestState>,
    audit: Option<AuditState>,
    /// The online workload/QCS profiler, when enabled. Fed from
    /// `run_job` with values the pipeline already computed.
    profiler: Option<WorkloadProfiler>,
    alerts: AlertEngine,
    metrics: MetricsRegistry,
    slow_log: SlowQueryLog,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    next_seq: AtomicU64,
}

/// A multi-threaded, deadline-aware BlinkDB query service.
///
/// Wraps a shared [`BlinkDb`] with:
///
/// * a bounded admission queue with backpressure,
/// * ELP-based admission control (reject unsatisfiable `WITHIN` bounds,
///   optionally degrade too-expensive error bounds),
/// * earliest-deadline-first scheduling across N worker threads,
/// * a per-template Error–Latency-Profile cache (repeat templates skip
///   the §4.1/§4.2 probe phase), and
/// * a bounded LRU result cache keyed by canonical query.
///
/// # Examples
///
/// ```
/// use blinkdb_common::schema::{Field, Schema};
/// use blinkdb_common::value::{DataType, Value};
/// use blinkdb_core::{BlinkDb, BlinkDbConfig};
/// use blinkdb_service::{QueryService, ServiceConfig};
/// use blinkdb_storage::Table;
/// use std::sync::Arc;
///
/// let schema = Schema::new(vec![
///     Field::new("city", DataType::Str),
///     Field::new("t", DataType::Float),
/// ]);
/// let mut table = Table::new("sessions", schema);
/// for i in 0..4000 {
///     table
///         .push_row(&[Value::str("x"), Value::Float(i as f64)])
///         .unwrap();
/// }
/// let mut cfg = BlinkDbConfig::default();
/// cfg.cluster.jitter = 0.0;
/// let db = Arc::new(BlinkDb::new(table, cfg));
/// let service = QueryService::new(db, ServiceConfig::default());
/// let handle = service
///     .submit("SELECT COUNT(*) FROM sessions WHERE city = 'x' WITHIN 5 SECONDS")
///     .unwrap();
/// let (_ticket, result) = handle.wait();
/// assert!(result.unwrap().answer.answer.rows[0].aggs[0].estimate > 0.0);
/// ```
pub struct QueryService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    ingest_worker: Option<JoinHandle<()>>,
    audit_worker: Option<JoinHandle<()>>,
}

impl QueryService {
    /// Starts the worker pool over a shared, static instance. No ingest
    /// thread: the snapshot published at construction serves forever.
    pub fn new(db: Arc<BlinkDb>, cfg: ServiceConfig) -> Self {
        Self::build(db, None, cfg, Registry::new())
    }

    /// Starts the worker pool over a *live* instance: `db` becomes the
    /// ingest thread's private master copy, and an initial snapshot of
    /// it is published for the workers. [`QueryService::append_rows`]
    /// enqueues new fact rows; the background thread appends them, runs
    /// the fold-or-refresh maintenance pass under
    /// `ingest.drift_threshold`, publishes the next epoch, and purges
    /// cache entries stamped with superseded epochs.
    pub fn with_ingest(db: BlinkDb, cfg: ServiceConfig, ingest: IngestConfig) -> Self {
        let snapshot = Arc::new(db.clone());
        Self::build(
            snapshot,
            Some(MasterState {
                db,
                cfg: ingest,
                durable: None,
            }),
            cfg,
            Registry::new(),
        )
    }

    /// [`QueryService::with_ingest`] with a write-ahead log in front of
    /// the ingest path. An initial snapshot of `db` is committed to
    /// `durability.dir` immediately, so recovery always has a base; from
    /// then on every accepted batch is appended (framed + checksummed,
    /// optionally fsynced) to the WAL *before* it is applied, and an
    /// *incremental* checkpoint — only segments sealed since the last
    /// manifest, plus the current ELP profile cache — is written once
    /// the WAL accumulates `snapshot_wal_bytes` or
    /// `snapshot_sealed_segments` seals, whichever trips first. The
    /// WAL is truncated after each checkpoint commits.
    ///
    /// After a crash, [`QueryService::recover`] rebuilds the exact state
    /// of the last durable batch from `durability.dir`.
    pub fn with_ingest_durable(
        db: BlinkDb,
        cfg: ServiceConfig,
        ingest: IngestConfig,
        durability: DurabilityConfig,
    ) -> Result<Self, BlinkError> {
        // Reset the WAL *before* committing the new snapshot: any tail
        // left by a previous incarnation in this directory belongs to
        // the previous lineage (abandoned by the caller's choice), and
        // its epoch stamps must never be replayed over the new
        // snapshot. A crash between the two steps leaves either the old
        // snapshot with an empty WAL (the old lineage, consistent) or
        // the new snapshot with an empty WAL — never a cross-lineage
        // mix.
        std::fs::create_dir_all(&durability.dir).map_err(|e| {
            BlinkError::internal(format!("create {}: {e}", durability.dir.display()))
        })?;
        let registry = Registry::new();
        let mut wal = Wal::open(durability.wal_path(), durability.fsync)?;
        wal.set_telemetry(registry.clone());
        wal.reset()?;
        let mut checkpoint_state = CheckpointState::default();
        registry.histogram("blinkdb_snapshot_seconds").time(|| {
            db.save_incremental(
                &durability.dir,
                &[],
                durability.fsync,
                &mut checkpoint_state,
            )
        })?;
        let snapshot = Arc::new(db.clone());
        let svc = Self::build(
            snapshot,
            Some(MasterState {
                db,
                cfg: ingest,
                durable: Some(Durable::new(wal, durability, checkpoint_state)),
            }),
            cfg,
            registry,
        );
        svc.inner.metrics.snapshots_written.inc();
        Ok(svc)
    }

    /// Rebuilds a durable service from `durability.dir` after a crash or
    /// shutdown: opens the latest committed snapshot, replays the intact
    /// WAL tail over it batch by batch (the same `apply_batch` the live
    /// ingest thread runs), re-checkpoints, and
    /// resumes serving at the epoch of the last durable batch. Persisted
    /// ELP profile hints that are still fresh for the recovered epoch
    /// seed the ELP cache.
    ///
    /// A torn record at the WAL tail (crash mid-append) is discarded
    /// cleanly: recovery lands on the consistent prefix, and no
    /// half-applied batch is ever visible to queries. An intact record
    /// whose *apply* fails (it never applied live either — the ingest
    /// thread drops such batches) is skipped and retired by the
    /// post-replay checkpoint, with the error surfaced on the first
    /// [`QueryService::flush_ingest`] — a bad record can degrade one
    /// batch, never brick the store.
    pub fn recover(
        cfg: ServiceConfig,
        ingest: IngestConfig,
        durability: DurabilityConfig,
    ) -> Result<Self, BlinkError> {
        let registry = Registry::new();
        let (mut master, profiles, mut checkpoint_state) =
            BlinkDb::open_with_state(&durability.dir)?;
        // The serving tier materializes its samples in RAM before
        // serving (the paper's deployment: samples cached). This also
        // keeps the persisted ELP hints accurate — they were fitted at
        // memory pricing before the crash.
        master.page_in_all();
        let replay_timer = Instant::now();
        let replay = blinkdb_persist::replay_wal(durability.wal_path())?;
        let mut maintainer = Maintainer::new(ingest.drift_threshold);
        let mut replayed = 0u64;
        let mut skipped = 0u64;
        let mut skip_error: Option<String> = None;
        for record in &replay.records {
            // A CRC-valid frame whose payload does not decode (written
            // by an older or foreign incarnation) gets the same
            // skip-not-fatal treatment as a failed apply below — a `?`
            // here would turn one bad record into a deterministic
            // permanent crash loop.
            let (pre_epoch, batch) = match decode_wal_payload(&record.payload) {
                Ok(decoded) => decoded,
                Err(e) => {
                    skipped += 1;
                    skip_error = Some(e.to_string());
                    continue;
                }
            };
            // Idempotent replay: a record stamped below the snapshot's
            // epoch was already applied before that snapshot committed
            // (a crash in the window between manifest commit and WAL
            // truncation leaves exactly this overlap) — skip it instead
            // of double-applying the batch.
            if pre_epoch < master.epoch() {
                continue;
            }
            if pre_epoch > master.epoch() {
                return Err(BlinkError::internal(format!(
                    "wal record stamped epoch {pre_epoch} but the snapshot is at {}: \
                     the log is missing intermediate batches",
                    master.epoch()
                )));
            }
            // Like the live path (the same `apply_batch`), a batch whose
            // apply fails is *dropped* (no epoch published) with the
            // error surfaced, not fatal. Replaying must converge on the
            // same state, and a deterministic apply error must not wedge
            // recovery in a permanent crash loop — validation keeps such
            // batches out of the WAL in the first place, but a record
            // written by an older incarnation must still not brick the
            // store.
            match apply_batch(&mut master, &mut maintainer, &batch) {
                Ok(_) => replayed += 1,
                Err(e) => {
                    skipped += 1;
                    skip_error = Some(e.to_string());
                }
            }
        }
        registry
            .histogram("blinkdb_recovery_replay_seconds")
            .observe(replay_timer.elapsed().as_secs_f64());
        let mut wal = Wal::open_with_replay(durability.wal_path(), durability.fsync, &replay)?;
        wal.set_telemetry(registry.clone());
        let mut snapshots = 0u64;
        if replayed > 0 || skipped > 0 {
            // Fold the replayed tail into a fresh checkpoint so the WAL
            // can be truncated and a crash loop never replays twice —
            // and so a skipped (unappliable) record is retired for
            // good. Incremental: the slices the crashed incarnation
            // committed are reused; only replay-sealed segments are
            // written.
            registry.histogram("blinkdb_snapshot_seconds").time(|| {
                master.save_incremental(
                    &durability.dir,
                    &profiles,
                    durability.fsync,
                    &mut checkpoint_state,
                )
            })?;
            wal.reset()?;
            snapshots += 1;
        }
        let snapshot = Arc::new(master.clone());
        let svc = Self::build(
            snapshot,
            Some(MasterState {
                db: master,
                cfg: ingest,
                durable: Some(Durable::new(wal, durability, checkpoint_state)),
            }),
            cfg,
            registry,
        );
        let m = &svc.inner.metrics;
        m.wal_batches_replayed.add(replayed);
        m.snapshots_written.add(snapshots);
        // A skipped record is surfaced the same way a live drop is: on
        // the next flush, not as a recovery failure.
        if let (Some(e), Some(state)) = (skip_error, svc.inner.ingest.as_ref()) {
            state.shared.lock().unwrap().failed = Some(format!(
                "{skipped} wal record(s) skipped during replay: {e}"
            ));
        }
        // Seed the ELP cache with persisted hints still fresh for the
        // recovered epoch (a replayed WAL tail advances the epoch, so
        // hints from before the tail drop out naturally).
        {
            let db = svc.inner.db.load();
            let mut elp = svc.inner.elp.lock().unwrap();
            for (key, profile) in profiles {
                if profile.fresh_for(&db) {
                    elp.put(CanonicalKey::from_canonical(key), profile);
                }
            }
        }
        Ok(svc)
    }

    fn build(
        snapshot: Arc<BlinkDb>,
        master: Option<MasterState>,
        cfg: ServiceConfig,
        registry: Registry,
    ) -> Self {
        let cfg = ServiceConfig {
            workers: cfg.workers.max(1),
            queue_capacity: cfg.queue_capacity.max(1),
            ..cfg
        };
        let inner = Arc::new(Inner {
            db: SnapshotSwap::new(snapshot),
            cfg,
            queue: Mutex::new(BinaryHeap::new()),
            queue_cv: Condvar::new(),
            elp: Mutex::new(LruCache::new(cfg.elp_cache_capacity)),
            results: Mutex::new(LruCache::new(cfg.result_cache_capacity)),
            ingest: master.as_ref().map(|_| IngestState {
                shared: Mutex::new(IngestShared {
                    batches: VecDeque::new(),
                    enqueued: 0,
                    applied: 0,
                    failed: None,
                }),
                work_cv: Condvar::new(),
                applied_cv: Condvar::new(),
            }),
            audit: cfg.audit.map(|policy| AuditState {
                auditor: Auditor::new(
                    registry.clone(),
                    AuditConfig {
                        sample_every: policy.sample_every,
                        max_templates: policy.max_templates,
                        miss_log_capacity: policy.miss_log_capacity,
                    },
                ),
                policy,
                shared: Mutex::new(AuditShared {
                    tasks: VecDeque::new(),
                    enqueued: 0,
                    done: 0,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            }),
            profiler: cfg
                .profile
                .map(|policy| WorkloadProfiler::new(registry.clone(), policy.to_config())),
            alerts: AlertEngine::new(
                registry.clone(),
                default_blinkdb_rules(cfg.default_deadline_s),
            ),
            metrics: MetricsRegistry::new(registry),
            slow_log: SlowQueryLog::new(cfg.slow_log_capacity),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("blinkdb-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        let ingest_worker = master.map(|state| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("blinkdb-ingest".into())
                .spawn(move || ingest_loop(&inner, state))
                .expect("spawn ingest thread")
        });
        let audit_worker = inner.audit.is_some().then(|| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("blinkdb-audit".into())
                .spawn(move || audit_loop(&inner))
                .expect("spawn audit thread")
        });
        QueryService {
            inner,
            workers,
            ingest_worker,
            audit_worker,
        }
    }

    /// The current serving snapshot (pinned: later epoch publishes do
    /// not mutate it).
    pub fn db(&self) -> Arc<BlinkDb> {
        self.inner.db.load()
    }

    /// The epoch of the current serving snapshot.
    pub fn current_epoch(&self) -> DataEpoch {
        self.inner.db.load().epoch()
    }

    /// Enqueues a batch of fact rows for the ingest thread. Returns as
    /// soon as the batch is queued; queries keep being answered from the
    /// current epoch until the next snapshot is published. Fails with
    /// [`IngestError::NotIngesting`] on a static service.
    pub fn append_rows(&self, rows: Vec<Vec<Value>>) -> Result<(), IngestError> {
        let state = self
            .inner
            .ingest
            .as_ref()
            .ok_or(IngestError::NotIngesting)?;
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(IngestError::Shutdown);
        }
        let mut shared = state.shared.lock().unwrap();
        shared.enqueued += 1;
        shared.batches.push_back(rows);
        state.work_cv.notify_one();
        Ok(())
    }

    /// Blocks until every batch enqueued so far has been applied and its
    /// epoch published; returns the serving epoch afterwards. Surfaces
    /// any background apply failure recorded since the last flush.
    pub fn flush_ingest(&self) -> Result<DataEpoch, IngestError> {
        let state = self
            .inner
            .ingest
            .as_ref()
            .ok_or(IngestError::NotIngesting)?;
        {
            let mut shared = state.shared.lock().unwrap();
            let target = shared.enqueued;
            while shared.applied < target {
                if self.inner.shutdown.load(Ordering::SeqCst) {
                    return Err(IngestError::Shutdown);
                }
                shared = state.applied_cv.wait(shared).unwrap();
            }
            if let Some(e) = shared.failed.take() {
                return Err(IngestError::Failed(e));
            }
        }
        Ok(self.inner.db.load().epoch())
    }

    /// Point-in-time metrics.
    pub fn metrics(&self) -> ServiceMetrics {
        self.inner.metrics.snapshot()
    }

    /// The shared telemetry registry backing [`QueryService::metrics`]
    /// and both renderers — the maintainer, the WAL, and checkpoint
    /// timing all feed it. Handles are cheap clones; callers may
    /// register their own instruments alongside the service's.
    pub fn telemetry(&self) -> Registry {
        self.inner.metrics.registry.clone()
    }

    /// Renders every registered metric — counters, gauges, and
    /// histograms with `_bucket`/`_sum`/`_count` plus `p50/p95/p99`
    /// companions — in Prometheus text exposition format. Derived
    /// gauges (hit rates, overheads, queue depth) are refreshed first,
    /// so a scrape is self-consistent.
    pub fn render_prometheus(&self) -> String {
        self.refresh_derived();
        blinkdb_telemetry::render_prometheus(&self.inner.metrics.registry)
    }

    /// Renders the registry as a JSON snapshot (`counters`, `gauges`,
    /// `histograms` with count/sum/min/max/mean and quantiles).
    pub fn render_json(&self) -> String {
        self.refresh_derived();
        blinkdb_telemetry::render_json(&self.inner.metrics.registry)
    }

    fn refresh_derived(&self) {
        let _ = self.inner.metrics.snapshot();
        self.inner
            .metrics
            .registry
            .set_gauge("blinkdb_queue_depth", self.queue_depth() as f64);
        // Advisor series (family utilities, unserved share, pending
        // recommendation counts) are derived views over the profiler
        // snapshot — refresh them so a scrape carries current values.
        let _ = self.workload_state();
        // Alert evaluation is part of every export so a scrape carries
        // current `blinkdb_alert_firing` states.
        let _ = self.inner.alerts.evaluate();
    }

    /// Evaluates the declarative alert rules against the current
    /// registry state and returns one status per rule (firing state
    /// with hysteresis, the evaluated value, fire/resolve totals). The
    /// evaluation is also mirrored into the registry as
    /// `blinkdb_alert_firing{rule="..."}` gauges, so Prometheus/JSON
    /// exports carry the same states a caller sees here.
    pub fn alerts(&self) -> Vec<AlertStatus> {
        let _ = self.inner.metrics.snapshot();
        self.inner
            .metrics
            .registry
            .set_gauge("blinkdb_queue_depth", self.queue_depth() as f64);
        self.inner.alerts.evaluate()
    }

    /// The alert engine's deterministic text rendering (one line per
    /// rule), evaluated fresh.
    pub fn render_alerts(&self) -> String {
        let _ = self.alerts();
        self.inner.alerts.render()
    }

    /// The `EXPLAIN ACCURACY` report: per-template audit coverage and
    /// realized error. A fixed header line when auditing is disabled.
    pub fn accuracy_report(&self) -> String {
        match &self.inner.audit {
            Some(a) => a.auditor.report(),
            None => "EXPLAIN ACCURACY\nauditing disabled\n".to_string(),
        }
    }

    /// A handle to the online accuracy auditor, when
    /// [`ServiceConfig::audit`] enabled one. Shares state with the
    /// service (cheap clone) — tests and the alert-transition smoke use
    /// it to read coverage and inject `set_sigma_scale`.
    pub fn auditor(&self) -> Option<Auditor> {
        self.inner.audit.as_ref().map(|a| a.auditor.clone())
    }

    /// A handle to the online workload profiler, when
    /// [`ServiceConfig::profile`] enabled one (the default). Shares
    /// state with the service (cheap clone) — tests and the drift
    /// smoke use it to read snapshots and inject `set_predicted_scale`.
    pub fn profiler(&self) -> Option<WorkloadProfiler> {
        self.inner.profiler.clone()
    }

    /// The `EXPLAIN WORKLOAD` report: per-QCS observed mass, serving
    /// family, hit rate, and ELP calibration ratio; per-family plan
    /// utilities; and the advisor's ranked build / re-stratify / drop
    /// recommendations. A fixed header line when profiling is disabled.
    ///
    /// Recommendations are advisory only — rendering the report never
    /// advances an epoch or mutates the plan, and it is deterministic
    /// for a fixed profiler state and serving snapshot.
    pub fn workload_report(&self) -> String {
        match self.workload_state() {
            Some((snapshot, advice)) => render_workload_report(&snapshot, &advice),
            None => "EXPLAIN WORKLOAD\nprofiling disabled\n".to_string(),
        }
    }

    /// The sample-plan advisor's structured output over the current
    /// profiler snapshot and serving snapshot ([`WorkloadAdvice`]:
    /// per-family utilities, unserved QCS mass share, ranked
    /// recommendations). `None` when profiling is disabled.
    pub fn workload_advice(&self) -> Option<WorkloadAdvice> {
        self.workload_state().map(|(_, advice)| advice)
    }

    /// Snapshot the profiler, score the serving snapshot's families
    /// against it, and mirror the advisor's outputs into the registry
    /// as `blinkdb_advisor_*` series. The shared read path behind
    /// [`QueryService::workload_report`], [`QueryService::workload_advice`],
    /// and every export.
    fn workload_state(&self) -> Option<(WorkloadSnapshot, WorkloadAdvice)> {
        let profiler = self.inner.profiler.as_ref()?;
        let snapshot = profiler.snapshot();
        let db = self.inner.db.load();
        let registry = &self.inner.metrics.registry;
        let families: Vec<FamilyView> = db
            .families()
            .iter()
            .map(|f| {
                // PR 9's sample-health gauge; 0 (fresh) until the
                // maintainer publishes one for this family.
                let stale = registry
                    .gauge_labeled("blinkdb_family_epochs_stale", &[("family", &f.label())])
                    .get();
                FamilyView::from_family(f, stale)
            })
            .collect();
        let advice = advise(&snapshot, &families, db.plan(), &AdvisorConfig::default());
        registry.set_gauge("blinkdb_advisor_unserved_share", advice.unserved_share);
        for f in &advice.families {
            registry
                .gauge_labeled("blinkdb_advisor_family_utility", &[("family", &f.label)])
                .set(f.utility);
        }
        for action in ["build", "restratify", "drop"] {
            let pending = advice
                .recommendations
                .iter()
                .filter(|r| r.action() == action)
                .count();
            registry
                .gauge_labeled("blinkdb_advisor_recommendations", &[("action", action)])
                .set(pending as f64);
        }
        Some((snapshot, advice))
    }

    /// Blocks until every audit enqueued so far has been re-executed
    /// and recorded (or the service shuts down). No-op without
    /// auditing. Deterministic tests and benches call this before
    /// reading coverage; production code never needs to.
    pub fn flush_audits(&self) {
        let Some(audit) = self.inner.audit.as_ref() else {
            return;
        };
        let mut shared = audit.shared.lock().unwrap();
        let target = shared.enqueued;
        while shared.done < target {
            if self.inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let (guard, _) = audit
                .done_cv
                .wait_timeout(shared, Duration::from_millis(20))
                .unwrap();
            shared = guard;
        }
    }

    /// The bounded slow-query log, oldest first: completed queries past
    /// the slow threshold, deadline misses, degraded admissions, and
    /// rejected/failed submissions, each with its trace when tracing was
    /// on.
    pub fn slow_queries(&self) -> Vec<SlowQueryRecord> {
        self.inner.slow_log.records()
    }

    /// Queries currently waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.lock().unwrap().len()
    }

    /// Submits a query. On admission returns a [`QueryHandle`]; the
    /// query runs on a worker thread ordered by earliest deadline.
    ///
    /// Admission may:
    ///
    /// * reject immediately ([`SubmitError::Unsatisfiable`]) when the
    ///   ELP predicts no plan meets the query's `WITHIN` bound;
    /// * reject with backpressure ([`SubmitError::QueueFull`]);
    /// * *degrade* a relative-error bound (enlarge ε, recorded on the
    ///   ticket) when meeting it would blow the latency SLO;
    /// * answer instantly from the result cache.
    pub fn submit(&self, sql: &str) -> Result<QueryHandle, SubmitError> {
        let inner = &self.inner;
        inner.metrics.submitted.inc();
        let mut query = match blinkdb_sql::parse(sql) {
            Ok(q) => q,
            Err(e) => {
                inner.metrics.rejected_invalid.inc();
                // Unparseable SQL has no parsed template key; fall back
                // to the lexical template of the raw text.
                let template = canonical_template(sql);
                let epoch = inner.db.load().epoch().get();
                record_rejection(inner, sql, &template, "invalid", None, epoch);
                return Err(SubmitError::Invalid(e));
            }
        };
        let template = template_key(&query);
        // Pin the snapshot this submission is admitted (and possibly
        // cache-answered) against.
        let db = inner.db.load();

        // ---- Admission control ----
        let degraded_epsilon = match self.admit(&db, &mut query, &template) {
            Ok(eps) => eps,
            Err(e) => {
                // The reason counter was bumped by `admit`.
                let bound_s = match &query.bound {
                    Some(Bound::Time { seconds }) => Some(*seconds),
                    _ => None,
                };
                let epoch = db.epoch().get();
                record_rejection(
                    inner,
                    sql,
                    template.as_str(),
                    "unsatisfiable",
                    bound_s,
                    epoch,
                );
                return Err(e);
            }
        };
        if degraded_epsilon.is_some() {
            inner.metrics.degraded.inc();
        }
        let result = result_key(&query);
        let bound_s = match &query.bound {
            Some(Bound::Time { seconds }) => Some(*seconds),
            _ => None,
        };
        let submitted = Instant::now();
        // An absurd (or non-finite) WITHIN value must not panic the
        // submitting thread; anything Duration can't represent is
        // effectively "no deadline pressure" — clamp to a year.
        let budget_s = bound_s.unwrap_or(inner.cfg.default_deadline_s);
        let deadline = submitted
            + Duration::try_from_secs_f64(budget_s).unwrap_or(Duration::from_secs(365 * 24 * 3600));
        let ticket = QueryTicket {
            id: inner.next_id.fetch_add(1, Ordering::Relaxed),
            submitted,
            deadline,
            bound_s,
            degraded_epsilon,
        };

        // ---- Result cache (keyed by the pinned snapshot's epoch: a
        // hit can only ever serve an answer computed against the data
        // this submission would itself run on) ----
        let epoch = db.epoch();
        if let Some(hit) = inner
            .results
            .lock()
            .unwrap()
            .get(&(result.clone(), epoch))
            .cloned()
        {
            inner.metrics.result_cache_hits.inc();
            inner.metrics.admitted.inc();
            inner.metrics.completed.inc();
            // A hit re-serves the trace of the execution that computed
            // the answer, under this submission's own admission span.
            let trace = hit
                .trace
                .as_deref()
                .map(|t| service_trace(t, 0.0, "hit", "skipped", degraded_epsilon));
            let state = HandleState::new();
            state.resolve(Ok(ServiceAnswer {
                answer: hit,
                from_cache: true,
                epoch,
                queue_wait: Duration::ZERO,
                degraded_epsilon,
                trace,
            }));
            return Ok(QueryHandle { ticket, state });
        }

        // ---- Bounded queue (backpressure) ----
        let state = HandleState::new();
        {
            let mut queue = inner.queue.lock().unwrap();
            if queue.len() >= inner.cfg.queue_capacity {
                inner.metrics.rejected_queue_full.inc();
                let epoch = epoch.get();
                record_rejection(inner, sql, template.as_str(), "queue_full", bound_s, epoch);
                return Err(SubmitError::QueueFull);
            }
            // Count the cache miss only for queries that actually enter
            // the system, so the hit rate reflects admitted traffic and
            // is not deflated by backpressure rejections.
            inner.metrics.result_cache_misses.inc();
            queue.push(QueueItem {
                deadline,
                seq: inner.next_seq.fetch_add(1, Ordering::Relaxed),
                job: Job {
                    query,
                    sql: sql.to_string(),
                    template,
                    result,
                    handle: Arc::clone(&state),
                    submitted,
                    bound_s,
                    degraded_epsilon,
                },
            });
        }
        inner.metrics.admitted.inc();
        inner.queue_cv.notify_one();
        Ok(QueryHandle { ticket, state })
    }

    /// The ELP-based admission decision against the pinned snapshot
    /// `db`. May rewrite `query`'s error bound (degradation); returns
    /// the substituted ε if it did.
    fn admit(
        &self,
        db: &BlinkDb,
        query: &mut Query,
        template: &CanonicalKey,
    ) -> Result<Option<f64>, SubmitError> {
        let inner = &self.inner;
        let profile = inner.elp.lock().unwrap().get(template).cloned();
        // Epoch *and* shape staleness both disqualify a profile — a
        // refresh or ingest leaves profiles whose latency model and
        // error curve were fitted on data that no longer exists.
        let profile = profile.filter(|p| p.fresh_for(db));
        let policy = inner.cfg.exec.unwrap_or(db.config().exec);
        let boot_mult = blinkdb_core::bootstrap_cost_multiplier(policy.query_replicates(query));
        match &mut query.bound {
            Some(Bound::Time { seconds }) => {
                // The hard floor on response time is the cheapest plan of
                // all: the uniform family's smallest resolution. A cached
                // profile can only propose *costlier* plans (core falls
                // back to uniform when the bound is tight), so the floor
                // is what admission checks — predicted under the same
                // exec policy the worker will run the query with, and
                // scaled by the bootstrap replicate multiplier when this
                // query's aggregates will be error-bounded by bootstrap
                // (a B-replicate scan cannot be cheaper than B prices it).
                let floor = db.min_feasible_seconds_with(policy) * boot_mult;
                if floor > *seconds {
                    inner.metrics.rejected_unsatisfiable.inc();
                    return Err(SubmitError::Unsatisfiable {
                        required_s: floor,
                        requested_s: *seconds,
                    });
                }
                Ok(None)
            }
            Some(Bound::Error {
                epsilon,
                relative: true,
                ..
            }) if inner.cfg.degrade => {
                let Some(p) = profile else { return Ok(None) };
                let Some(relaxed) =
                    degraded_epsilon(&p, db.families(), *epsilon, inner.cfg.default_deadline_s)
                else {
                    return Ok(None);
                };
                *epsilon = relaxed;
                Ok(Some(relaxed))
            }
            _ => Ok(None),
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        // Set the flag under the queue lock so a worker between its
        // shutdown check and `wait()` cannot miss the wakeup. The ingest
        // thread takes the same flag under its own lock; it drains
        // already-enqueued batches before exiting, so accepted appends
        // are never silently lost.
        {
            let _queue = self.inner.queue.lock().unwrap();
            self.inner.shutdown.store(true, Ordering::SeqCst);
        }
        self.inner.queue_cv.notify_all();
        if let Some(state) = &self.inner.ingest {
            let _shared = state.shared.lock().unwrap();
            state.work_cv.notify_all();
            state.applied_cv.notify_all();
        }
        if let Some(state) = &self.inner.audit {
            let _shared = state.shared.lock().unwrap();
            state.work_cv.notify_all();
            state.done_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(w) = self.ingest_worker.take() {
            let _ = w.join();
        }
        if let Some(w) = self.audit_worker.take() {
            let _ = w.join();
        }
        // Workers abandon the backlog on shutdown; resolve it so no
        // handle waits forever.
        let mut queue = self.inner.queue.lock().unwrap();
        while let Some(item) = queue.pop() {
            item.job.handle.resolve(Err(ServiceError::Shutdown));
        }
    }
}

/// When satisfying `requested_eps` is predicted to exceed the latency
/// SLO, the largest ε achievable *within* the SLO — `None` when the
/// request is fine as-is or no degradation helps.
///
/// Error extrapolation follows §4.2's `ε ∝ 1/√n`: scaling the resolution
/// from the probed size `n₀` to `n` scales the achievable error by
/// `√(n₀/n)`.
fn degraded_epsilon(
    profile: &PlanProfile,
    families: &[blinkdb_core::SampleFamily],
    requested_eps: f64,
    deadline_s: f64,
) -> Option<f64> {
    let family = &families[profile.family_idx];
    let probe_len = family.resolution(profile.probe_resolution).len() as f64;
    if probe_len == 0.0 || profile.matched_rows == 0 {
        return None;
    }
    let required_idx =
        profile.resolution_for_error(family, profile.max_rel_error, requested_eps)?;
    if profile.predict_seconds(family, required_idx) <= deadline_s {
        return None; // satisfiable as requested
    }
    // Largest resolution that stays inside the SLO.
    let affordable_idx = (0..family.num_resolutions())
        .rev()
        .find(|&i| profile.predict_seconds(family, i) <= deadline_s)?;
    let affordable_len = family.resolution(affordable_idx).len() as f64;
    if affordable_len <= 0.0 {
        return None;
    }
    // ε achievable at the affordable size, from the probe's observation.
    let achievable = profile.max_rel_error * (probe_len / affordable_len).sqrt();
    if achievable <= requested_eps {
        return None; // prediction noise; nothing to relax
    }
    Some(achievable)
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut queue = inner.queue.lock().unwrap();
            loop {
                // Shutdown wins over queued work: in-flight queries
                // finish, but the backlog is abandoned for Drop to
                // resolve as `ServiceError::Shutdown`.
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(item) = queue.pop() {
                    break item.job;
                }
                queue = inner.queue_cv.wait(queue).unwrap();
            }
        };
        run_job(inner, job);
    }
}

fn run_job(inner: &Inner, job: Job) {
    let queue_wait = job.submitted.elapsed();
    // Pin the snapshot for this query's entire execution: answer,
    // error bars, and cache epoch all refer to one consistent table.
    let db = inner.db.load();
    let hint = inner.elp.lock().unwrap().get(&job.template).cloned();
    let hint = hint.filter(|p| p.fresh_for(&db));
    let had_hint = hint.is_some();
    // Tracing rides on the effective exec policy. When off, the policy
    // passes through untouched and the core path is bit-identical to an
    // untraced service.
    let exec = if inner.cfg.trace {
        let mut policy = inner.cfg.exec.unwrap_or(db.config().exec);
        policy.trace = true;
        Some(policy)
    } else {
        inner.cfg.exec
    };
    match db.query_parsed_with(&job.query, hint.as_ref(), exec) {
        Ok((answer, fresh_profile)) => {
            let elp_outcome = if had_hint && fresh_profile.is_none() {
                inner.metrics.elp_cache_hits.inc();
                "hit"
            } else {
                inner.metrics.elp_cache_misses.inc();
                "miss"
            };
            if let Some(p) = fresh_profile {
                inner.elp.lock().unwrap().put(job.template.clone(), p);
            }
            if inner.cfg.sim_dilation > 0.0 {
                // Hold the worker for the (dilated) simulated response
                // time — the cluster is executing; this slot is busy.
                std::thread::sleep(Duration::from_secs_f64(
                    answer.elapsed_s * inner.cfg.sim_dilation,
                ));
            }
            let missed = job.bound_s.is_some_and(|bound| answer.elapsed_s > bound);
            if missed {
                inner.metrics.deadline_misses.inc();
            }
            let queue_wait_s = queue_wait.as_secs_f64();
            inner.metrics.record_latency(
                answer.elapsed_s,
                queue_wait_s,
                answer.method.is_bootstrap(),
            );
            if answer.elapsed_s > 0.0 {
                inner
                    .metrics
                    .scan_rows_per_s
                    .observe(answer.rows_read as f64 / answer.elapsed_s);
            }
            let trace = answer
                .trace
                .as_deref()
                .map(|t| service_trace(t, queue_wait_s, "miss", elp_outcome, job.degraded_epsilon));
            // Slow-query log: threshold is a fraction of the deadline
            // (the query's own bound, else the service SLO). Degraded
            // admissions are always logged — they are SLO pressure by
            // definition.
            let deadline_s = job.bound_s.unwrap_or(inner.cfg.default_deadline_s);
            let deadline_fraction = if deadline_s > 0.0 {
                answer.elapsed_s / deadline_s
            } else {
                0.0
            };
            if deadline_fraction >= inner.cfg.slow_threshold_frac
                || missed
                || job.degraded_epsilon.is_some()
            {
                let outcome = if missed {
                    SlowOutcome::DeadlineMiss
                } else if let Some(epsilon) = job.degraded_epsilon {
                    SlowOutcome::Degraded { epsilon }
                } else {
                    SlowOutcome::Completed
                };
                inner.slow_log.push(SlowQueryRecord {
                    sql: job.sql.clone(),
                    template: job.template.as_str().to_string(),
                    qcs: answer.qcs.to_string(),
                    epoch: db.epoch().get(),
                    sim_elapsed_s: answer.elapsed_s,
                    bound_s: job.bound_s,
                    deadline_fraction,
                    queue_wait_s,
                    outcome,
                    reported_rel_error: Some(answer.answer.max_relative_error()),
                    realized_rel_error: None,
                    trace: trace.clone(),
                });
            }
            // Workload profiling: fold this completion's QCS, serving
            // family, outcome, and predicted-vs-actual scan time into
            // the profiler. Every value here was already computed by
            // the pipeline — recording draws nothing from the
            // simulator's seed stream, so answers stay bit-identical
            // with profiling on or off.
            if let Some(profiler) = inner.profiler.as_ref() {
                let outcome = if missed {
                    ServeOutcome::Miss
                } else if db
                    .families()
                    .iter()
                    .find(|f| f.label() == answer.family)
                    .map(|f| !f.is_uniform() && answer.qcs.is_subset(f.columns()))
                    .unwrap_or(false)
                {
                    // Served by a stratified family that covers the
                    // query column set — the §3.2 plan's intended path.
                    ServeOutcome::Hit
                } else {
                    // Uniform family, full scan, or a stratified family
                    // that does not cover the QCS: the plan served the
                    // query, but without per-group coverage guarantees.
                    ServeOutcome::Fallback
                };
                let error_bound = match &job.query.bound {
                    Some(Bound::Error { epsilon, .. }) => Some(*epsilon),
                    _ => None,
                };
                let update = profiler.record(&QuerySample {
                    template: job.template.as_str().to_string(),
                    qcs: answer.qcs.iter().map(|c| c.to_string()).collect(),
                    family: answer.family.clone(),
                    bound_s: job.bound_s,
                    error_bound,
                    outcome,
                    predicted_s: answer.predicted_s,
                    actual_s: answer.elapsed_s,
                    reported_rel_error: answer.answer.max_relative_error(),
                });
                // A drifted template's cached plan profile predicts
                // latencies the ELP can no longer back: drop it so the
                // next instantiation refits from a fresh probe. While
                // the calibration EWMA stays outside the threshold the
                // entry is re-invalidated every completion — that is
                // the point: the predictions cannot be trusted yet.
                if update.drifted {
                    let removed = inner
                        .elp
                        .lock()
                        .unwrap()
                        .retain(|k, _| k.as_str() != update.template);
                    if removed > 0 {
                        inner.metrics.elp_invalidations.add(removed as u64);
                    }
                }
            }
            let shared = Arc::new(answer);
            // Accuracy auditing: sample this completion per canonical
            // template and, unless load-shed, hand the pinned snapshot
            // plus the served answer to the background audit thread.
            maybe_enqueue_audit(inner, &db, &job, &shared, trace.clone(), missed);
            // Cache under the epoch the answer was computed at. If a
            // newer epoch was published mid-query, this entry is keyed
            // to the old epoch: no future lookup (always at the current
            // epoch) can hit it, and LRU churn reclaims it.
            inner
                .results
                .lock()
                .unwrap()
                .put((job.result.clone(), db.epoch()), Arc::clone(&shared));
            inner.metrics.completed.inc();
            job.handle.resolve(Ok(ServiceAnswer {
                answer: shared,
                from_cache: false,
                epoch: db.epoch(),
                queue_wait,
                degraded_epsilon: job.degraded_epsilon,
                trace,
            }));
        }
        Err(e) => {
            inner.metrics.failed.inc();
            inner.metrics.queue_waits.observe(queue_wait.as_secs_f64());
            inner.slow_log.push(SlowQueryRecord {
                sql: job.sql.clone(),
                template: job.template.as_str().to_string(),
                qcs: String::new(),
                epoch: db.epoch().get(),
                sim_elapsed_s: 0.0,
                bound_s: job.bound_s,
                deadline_fraction: 0.0,
                queue_wait_s: queue_wait.as_secs_f64(),
                outcome: SlowOutcome::Failed,
                reported_rel_error: None,
                realized_rel_error: None,
                trace: None,
            });
            job.handle.resolve(Err(ServiceError::Exec(e.to_string())));
        }
    }
}

/// Wraps a core-produced trace in the service's view of the same query:
/// the core root's children gain a zero-cost admission span (queue
/// wait, cache provenance, degradation) at the front, so stage costs
/// still sum to the root's simulated response time.
fn service_trace(
    core: &QueryTrace,
    queue_wait_s: f64,
    result_cache: &'static str,
    elp_cache: &'static str,
    degraded_epsilon: Option<f64>,
) -> Arc<QueryTrace> {
    let mut root = core.root.clone();
    let mut admission = TraceSpan::new(SpanKind::Admission, "admission")
        .attr("queue_wait_s", queue_wait_s)
        .attr("degraded", degraded_epsilon.is_some());
    if let Some(epsilon) = degraded_epsilon {
        admission = admission.attr("epsilon", epsilon);
    }
    admission
        .push(TraceSpan::new(SpanKind::CacheLookup, "result cache").attr("outcome", result_cache));
    admission.push(TraceSpan::new(SpanKind::CacheLookup, "elp cache").attr("outcome", elp_cache));
    root.children.insert(0, admission);
    Arc::new(QueryTrace::new(root))
}

/// Terminal accounting for a rejected submission: the zero queue wait
/// (it never queued) and a slow-log record — with a minimal
/// admission-only trace when tracing is on — so rejections are as
/// observable as completions. The reason counter is bumped by the
/// caller.
fn record_rejection(
    inner: &Inner,
    sql: &str,
    template: &str,
    reason: &'static str,
    bound_s: Option<f64>,
    epoch: u64,
) {
    inner.metrics.queue_waits.observe(0.0);
    let trace = inner.cfg.trace.then(|| {
        let mut root = TraceSpan::new(SpanKind::Query, "query");
        root.push(
            TraceSpan::new(SpanKind::Admission, "admission")
                .attr("decision", "rejected")
                .attr("reason", reason)
                .attr("queue_wait_s", 0.0),
        );
        Arc::new(QueryTrace::new(root))
    });
    inner.slow_log.push(SlowQueryRecord {
        sql: sql.to_string(),
        template: template.to_string(),
        qcs: String::new(),
        epoch,
        sim_elapsed_s: 0.0,
        bound_s,
        deadline_fraction: 0.0,
        queue_wait_s: 0.0,
        outcome: SlowOutcome::Rejected { reason },
        reported_rel_error: None,
        realized_rel_error: None,
        trace,
    });
}

/// The audit sampling hook at the end of a completed query. Counts the
/// completion against its canonical template, and — when the template's
/// deterministic interval sampler picks it — enqueues an [`AuditTask`]
/// for the background audit thread, unless load pressure sheds it
/// first. Shedding (not blocking) is the contract: the hot path's only
/// cost here is a template hash and two short lock acquisitions.
fn maybe_enqueue_audit(
    inner: &Inner,
    db: &Arc<BlinkDb>,
    job: &Job,
    answer: &Arc<ApproxAnswer>,
    trace: Option<Arc<QueryTrace>>,
    missed_deadline: bool,
) {
    let Some(audit) = inner.audit.as_ref() else {
        return;
    };
    let template = job.template.as_str();
    if !audit.auditor.should_audit(template) {
        return;
    }
    // Load shedding, in order of cheapness: a query that already blew
    // its deadline signals the service is past its latency budget; a
    // deep admission queue signals backlog ahead of us; a deep audit
    // backlog signals the audit thread itself cannot keep up.
    if missed_deadline {
        audit.auditor.record_shed("deadline_pressure");
        return;
    }
    if inner.queue.lock().unwrap().len() >= audit.policy.shed_queue_depth {
        audit.auditor.record_shed("queue_depth");
        return;
    }
    {
        let mut shared = audit.shared.lock().unwrap();
        if shared.tasks.len() >= audit.policy.max_backlog {
            drop(shared);
            audit.auditor.record_shed("audit_backlog");
            return;
        }
        shared.enqueued += 1;
        shared.tasks.push_back(AuditTask {
            sql: job.sql.clone(),
            template: template.to_string(),
            epoch: db.epoch().get(),
            db: Arc::clone(db),
            answer: Arc::clone(answer),
            trace,
        });
    }
    audit.work_cv.notify_one();
}

/// The background audit thread: strictly lower priority than everything
/// else. It waits for sampled tasks, defers while the ingest thread has
/// batches pending (ingest/compaction always win), re-executes each
/// task's query *exactly* against the pinned snapshot it was answered
/// from, and folds the CI-coverage comparison into the [`Auditor`].
/// Shutdown wins over queued audits — the backlog is dropped and
/// counted as shed, never executed during teardown.
fn audit_loop(inner: &Inner) {
    let Some(audit) = inner.audit.as_ref() else {
        return;
    };
    loop {
        let task = {
            let mut shared = audit.shared.lock().unwrap();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    while shared.tasks.pop_front().is_some() {
                        audit.auditor.record_shed("shutdown");
                        shared.done += 1;
                    }
                    audit.done_cv.notify_all();
                    return;
                }
                if let Some(t) = shared.tasks.pop_front() {
                    break t;
                }
                shared = audit.work_cv.wait(shared).unwrap();
            }
        };
        // Priority inversion guard: while the ingest thread has work,
        // audits wait. An audit never competes with an epoch publish
        // for CPU, and readers never notice it at all.
        while let Some(ingest) = inner.ingest.as_ref() {
            if inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let pending = {
                let shared = ingest.shared.lock().unwrap();
                shared.applied < shared.enqueued
            };
            if !pending {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        run_audit(inner, audit, task);
        let mut shared = audit.shared.lock().unwrap();
        shared.done += 1;
        audit.done_cv.notify_all();
    }
}

/// Executes one audit: ground truth via the seed-free exact path
/// ([`BlinkDb::query_exact_audit`] — same epoch, no epoch advance, no
/// draw from the jitter seed stream, so served answers are
/// bit-identical with auditing on or off), then one CI check per
/// served row × aggregate, recorded into the auditor and back-filled
/// onto any matching slow-log record.
fn run_audit(inner: &Inner, audit: &AuditState, task: AuditTask) {
    let truth = match task.db.query_exact_audit(&task.sql) {
        Ok(t) => t,
        Err(_) => {
            // An unexecutable audit (e.g. the SQL exercised a path the
            // exact executor rejects) is shed, not fatal.
            audit.auditor.record_shed("exec_error");
            return;
        }
    };
    let served = &task.answer.answer;
    let mut checks = Vec::with_capacity(served.rows.len() * served.agg_labels.len());
    for row in &served.rows {
        let truth_row = truth.row_for(&row.group);
        for (i, agg) in row.aggs.iter().enumerate() {
            let label = served
                .agg_labels
                .get(i)
                .map(String::as_str)
                .unwrap_or("agg");
            let agg_name = if row.group.is_empty() {
                label.to_string()
            } else {
                let key: Vec<String> = row.group.iter().map(|v| v.to_string()).collect();
                format!("{}/{label}", key.join(","))
            };
            // A group present in the sampled answer exists in the full
            // data by construction (samples are subsets); the fallback
            // 0.0 is defensive only.
            let truth_est = truth_row
                .and_then(|r| r.aggs.get(i))
                .map(|a| a.estimate)
                .unwrap_or(0.0);
            // Unavailable error bars are honest by being infinite —
            // the check must treat "no claim" as trivially covered,
            // never as a zero-width interval.
            let sigma = if agg.exact {
                0.0
            } else if agg.method == blinkdb_exec::ErrorMethod::Unavailable {
                f64::INFINITY
            } else {
                agg.stddev()
            };
            checks.push(AuditAggCheck {
                agg: agg_name,
                estimate: agg.estimate,
                truth: truth_est,
                sigma,
                exact: agg.exact,
            });
        }
    }
    let summary = audit.auditor.record_audit(AuditOutcome {
        template: task.template,
        sql: task.sql.clone(),
        epoch: task.epoch,
        checks,
        trace: task.trace,
    });
    if summary.checks > 0 {
        inner.slow_log.annotate_realized_error(
            &task.sql,
            task.epoch,
            summary.max_realized_rel_error,
        );
    }
}

/// Frames one ingest batch for the WAL: the master's epoch *before* the
/// batch applies, then the rows. The epoch stamp is what makes replay
/// idempotent across the checkpoint window: a snapshot committed after
/// batch N has epoch = batch N+1's pre-apply epoch, so recovery skips
/// every record stamped below the snapshot epoch — a crash between the
/// manifest commit and the WAL truncation can never double-apply.
fn encode_wal_payload(pre_epoch: DataEpoch, batch: &[Vec<Value>]) -> Vec<u8> {
    let mut out = pre_epoch.get().to_le_bytes().to_vec();
    out.extend(encode_batch(batch));
    out
}

/// Decodes a WAL payload written by [`encode_wal_payload`].
fn decode_wal_payload(payload: &[u8]) -> Result<(DataEpoch, Vec<Vec<Value>>), BlinkError> {
    if payload.len() < 8 {
        return Err(BlinkError::internal("wal record too short for epoch stamp"));
    }
    let epoch = u64::from_le_bytes(payload[..8].try_into().expect("checked length"));
    Ok((DataEpoch::new(epoch), decode_batch(&payload[8..])?))
}

/// Writes a durable checkpoint: the master instance (with the current
/// ELP profile cache) into the snapshot directory, then truncates the
/// WAL — every logged batch is now durable in the snapshot instead.
/// Incremental: fact slices for segments the previous checkpoint
/// committed are reused byte-for-byte; only segments sealed (or
/// compacted) since the last manifest are written, so checkpoint cost
/// tracks new data, not total data. The WAL truncation happens only
/// after the manifest covering every sealed segment commits.
fn checkpoint(inner: &Inner, master: &BlinkDb, durable: &mut Durable) -> Result<(), BlinkError> {
    let profiles: Vec<(String, blinkdb_core::PlanProfile)> = inner
        .elp
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.as_str().to_string(), v.clone()))
        .collect();
    let report = inner
        .metrics
        .registry
        .histogram("blinkdb_snapshot_seconds")
        .time(|| {
            master.save_incremental(
                &durable.cfg.dir,
                &profiles,
                durable.cfg.fsync,
                &mut durable.checkpoint_state,
            )
        })?;
    durable.wal.reset()?;
    durable.wal_bytes_since_snapshot = 0;
    durable.segments_sealed_since_snapshot = 0;
    let m = &inner.metrics;
    m.snapshots_written.inc();
    m.registry
        .counter("blinkdb_checkpoint_segments_reused")
        .add(report.segments_reused as u64);
    m.registry
        .counter("blinkdb_checkpoint_bytes_written")
        .add(report.bytes_written);
    Ok(())
}

/// Applies one ingest batch to the master: append (which seals the batch
/// as one segment and advances the epoch), then the fold-or-refresh
/// maintenance pass over exactly that row range. The live ingest loop
/// and WAL replay both apply through here, so replay walks the same
/// epochs — and with them the same fold/refresh seeds — as the live run.
fn apply_batch(
    master: &mut BlinkDb,
    maintainer: &mut Maintainer,
    batch: &[Vec<Value>],
) -> Result<IngestMaintenance, BlinkError> {
    let range = master.append_rows(batch)?;
    maintainer.fold_or_refresh(master, range)
}

/// The ingest/maintenance thread: the only writer. Owns the mutable
/// master instance; drains batches, validates each against the fact
/// schema (an unappliable batch is rejected before it can reach the
/// WAL), logs it to the WAL *before* applying it (durable services),
/// applies append + fold-or-refresh,
/// publishes the next epoch, purges cache entries whose epoch was
/// superseded, and checkpoints on the configured cadence. Queries keep
/// reading their pinned snapshots throughout — this thread never takes
/// the queue lock or blocks a worker.
fn ingest_loop(inner: &Inner, state: MasterState) {
    let MasterState {
        db: mut master,
        cfg,
        mut durable,
    } = state;
    let ingest = inner.ingest.as_ref().expect("ingest state exists");
    let mut maintainer =
        Maintainer::new(cfg.drift_threshold).with_telemetry(inner.metrics.registry.clone());
    let compactor = Compactor::new(cfg.compaction).with_telemetry(inner.metrics.registry.clone());
    loop {
        let batch = {
            let mut shared = ingest.shared.lock().unwrap();
            loop {
                if let Some(b) = shared.batches.pop_front() {
                    break Some(b);
                }
                // Accepted batches are drained before shutdown exits.
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                shared = ingest.work_cv.wait(shared).unwrap();
            }
            // The guard drops here: the shutdown checkpoint below must
            // not hold the shared lock through a (potentially large,
            // fsynced) snapshot write — `append_rows`/`flush_ingest`
            // callers racing shutdown should fail fast, not block.
        };
        let Some(batch) = batch else {
            // A clean shutdown leaves a snapshot with no WAL tail, so
            // the next start is a pure cold-start open.
            if let Some(d) = &mut durable {
                if d.cfg.snapshot_on_shutdown && d.segments_sealed_since_snapshot > 0 {
                    let _ = checkpoint(inner, &master, d);
                }
            }
            return;
        };
        let rows = batch.len() as u64;
        // Schema validation first (durable services only — the apply
        // path already rejects all-or-nothing, so without a WAL the
        // extra pass buys nothing): a batch that could never apply
        // (arity/type mismatch — a deterministic error) must be rejected
        // *before* it reaches the WAL. Logged-but-unappliable records
        // would fail again on every replay and wedge recovery.
        if durable.is_some() {
            if let Err(e) = master.fact().validate_rows(&batch) {
                let mut shared = ingest.shared.lock().unwrap();
                shared.failed = Some(e.to_string());
                shared.applied += 1;
                ingest.applied_cv.notify_all();
                continue;
            }
        }
        // Then durability: the batch reaches the WAL before any
        // in-memory state changes. A failed append rejects the batch
        // (surfaced on the next flush) rather than applying it
        // non-durably — an accepted-and-applied batch must never be
        // losable to a crash.
        if let Some(d) = &mut durable {
            match d.wal.append(&encode_wal_payload(master.epoch(), &batch)) {
                Ok(framed) => {
                    d.wal_bytes_since_snapshot += framed;
                    let m = &inner.metrics;
                    m.wal_appends.inc();
                    m.wal_bytes.add(framed);
                }
                Err(e) => {
                    let mut shared = ingest.shared.lock().unwrap();
                    shared.failed = Some(format!("wal append failed: {e}"));
                    shared.applied += 1;
                    ingest.applied_cv.notify_all();
                    continue;
                }
            }
        }
        match apply_batch(&mut master, &mut maintainer, &batch) {
            Ok(report) => {
                let epoch = master.epoch();
                // Copy-on-publish: the snapshot is immutable from birth;
                // the master stays private to this thread.
                inner.db.publish(Arc::new(master.clone()));
                let purged = inner
                    .results
                    .lock()
                    .unwrap()
                    .retain(|(_, e), _| *e == epoch);
                inner.elp.lock().unwrap().retain(|_, p| p.epoch == epoch);
                let m = &inner.metrics;
                m.rows_ingested.add(rows);
                m.epochs_published.inc();
                m.families_folded.add(report.folded.len() as u64);
                m.families_refreshed.add(report.refreshed.len() as u64);
                m.stale_results_purged.add(purged as u64);
                // Background compaction between batches: merge runs of
                // small sealed segments (and manage residency for the
                // ELP cache's hot families when demotion is enabled).
                // Pure metadata — the epoch is untouched, readers keep
                // their pinned snapshots, and the next checkpoint
                // simply persists the merged cover.
                let hot: Vec<usize> = {
                    let elp = inner.elp.lock().unwrap();
                    let mut hot: Vec<usize> = elp.iter().map(|(_, p)| p.family_idx).collect();
                    hot.sort_unstable();
                    hot.dedup();
                    hot
                };
                compactor.tick(&mut master, &hot);
                // Sample-health gauges (drift, weight skew, staleness,
                // residency, fill, stratum coverage) for every family,
                // refreshed once per applied batch.
                let _ = maintainer.publish_health(&master);
                if let Some(d) = &mut durable {
                    d.segments_sealed_since_snapshot += 1;
                    let wal_trip = d.cfg.snapshot_wal_bytes > 0
                        && d.wal_bytes_since_snapshot >= d.cfg.snapshot_wal_bytes;
                    let seal_trip = d.cfg.snapshot_sealed_segments > 0
                        && d.segments_sealed_since_snapshot >= d.cfg.snapshot_sealed_segments;
                    if wal_trip || seal_trip {
                        if let Err(e) = checkpoint(inner, &master, d) {
                            // The WAL still covers the batches; only the
                            // checkpoint cadence slipped. Surface it.
                            ingest.shared.lock().unwrap().failed =
                                Some(format!("checkpoint failed: {e}"));
                        }
                    }
                }
            }
            Err(e) => {
                // Nothing is published: readers keep the previous epoch.
                // A failed append dropped the batch with the master
                // untouched; a failed maintenance pass can only mean a
                // failed full *refresh* (fold errors fall back to
                // refresh inside `fold_or_refresh`), which does not
                // happen for families whose columns exist — and the
                // snapshot the readers hold remains self-consistent
                // regardless. The error surfaces on the next flush.
                ingest.shared.lock().unwrap().failed = Some(e.to_string());
            }
        }
        let mut shared = ingest.shared.lock().unwrap();
        shared.applied += 1;
        ingest.applied_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blinkdb_common::schema::{Field, Schema};
    use blinkdb_common::value::{DataType, Value};
    use blinkdb_core::BlinkDbConfig;
    use blinkdb_sql::template::{ColumnSet, WeightedTemplate};
    use blinkdb_storage::Table;

    fn fixture_db(rows: usize) -> Arc<BlinkDb> {
        let schema = Schema::new(vec![
            Field::new("city", DataType::Str),
            Field::new("os", DataType::Str),
            Field::new("t", DataType::Float),
        ]);
        let mut table = Table::new("sessions", schema);
        for i in 0..rows {
            table
                .push_row(&[
                    Value::str(format!("city{}", i % 31)),
                    Value::str(["win", "mac", "linux"][i % 3]),
                    Value::Float((i % 127) as f64),
                ])
                .unwrap();
        }
        // Pretend the table is TB-scale so scan times are macroscopic
        // and resolution choices actually trade latency for error.
        table.set_logical_scale(20_000.0, 1_000);
        let mut cfg = BlinkDbConfig::default();
        cfg.cluster.jitter = 0.0;
        cfg.stratified.cap = 120.0;
        cfg.stratified.resolutions = 3;
        cfg.uniform.resolutions = 4;
        cfg.optimizer.cap = 120.0;
        let mut db = BlinkDb::new(table, cfg);
        db.create_samples(
            &[WeightedTemplate {
                columns: ColumnSet::from_names(["city"]),
                weight: 1.0,
            }],
            0.5,
        )
        .unwrap();
        Arc::new(db)
    }

    fn service(rows: usize, cfg: ServiceConfig) -> QueryService {
        QueryService::new(fixture_db(rows), cfg)
    }

    #[test]
    fn submit_and_wait_roundtrip() {
        let svc = service(10_000, ServiceConfig::default());
        let h = svc
            .submit("SELECT COUNT(*) FROM sessions WHERE city = 'city3' WITHIN 5 SECONDS")
            .unwrap();
        let (ticket, result) = h.wait();
        let ans = result.unwrap();
        assert!(!ans.from_cache);
        assert!(ans.answer.answer.rows[0].aggs[0].estimate > 0.0);
        assert_eq!(ticket.bound_seconds(), Some(5.0));
        let m = svc.metrics();
        assert_eq!(m.submitted, 1);
        assert_eq!(m.admitted, 1);
        assert_eq!(m.completed, 1);
    }

    #[test]
    fn invalid_sql_is_rejected_at_submit() {
        let svc = service(5_000, ServiceConfig::default());
        match svc.submit("SELEC nonsense") {
            Err(SubmitError::Invalid(_)) => {}
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn repeated_query_hits_result_cache() {
        let svc = service(10_000, ServiceConfig::default());
        let sql = "SELECT COUNT(*) FROM sessions WHERE city = 'city5' WITHIN 5 SECONDS";
        let (_, first) = svc.submit(sql).unwrap().wait();
        assert!(!first.unwrap().from_cache);
        // Same canonical query, different whitespace/case.
        let (_, second) = svc
            .submit("select   count(*) from SESSIONS where city = 'city5' within 5 seconds")
            .unwrap()
            .wait();
        let second = second.unwrap();
        assert!(second.from_cache);
        let m = svc.metrics();
        assert_eq!(m.result_cache_hits, 1);
        assert!(m.result_cache_hit_rate > 0.0);
    }

    #[test]
    fn repeated_template_hits_elp_cache() {
        let svc = service(10_000, ServiceConfig::default());
        // Same template (city = ?), different constants → distinct
        // results but one shared plan profile.
        for i in 0..6 {
            let sql =
                format!("SELECT COUNT(*) FROM sessions WHERE city = 'city{i}' WITHIN 5 SECONDS");
            let (_, r) = svc.submit(&sql).unwrap().wait();
            r.unwrap();
        }
        let m = svc.metrics();
        assert!(
            m.elp_cache_hits >= 4,
            "templates after the first should reuse the profile: {m:?}"
        );
        assert!(m.elp_cache_hit_rate > 0.5);
    }

    #[test]
    fn hopeless_time_bound_is_rejected() {
        let svc = service(20_000, ServiceConfig::default());
        match svc.submit("SELECT COUNT(*) FROM sessions WITHIN 0.000001 SECONDS") {
            Err(SubmitError::Unsatisfiable {
                required_s,
                requested_s,
            }) => {
                assert!(required_s > requested_s);
            }
            other => panic!("expected Unsatisfiable, got {other:?}"),
        }
        let m = svc.metrics();
        assert_eq!(m.rejected_unsatisfiable, 1);
        assert_eq!(m.admitted, 0);
    }

    #[test]
    fn queue_backpressure_rejects_when_full() {
        let svc = service(
            20_000,
            ServiceConfig {
                workers: 1,
                queue_capacity: 1,
                // Result caching off and a dilated "cluster round trip"
                // per query, so the single worker is provably occupied
                // while the flood below arrives.
                result_cache_capacity: 0,
                sim_dilation: 0.01,
                ..ServiceConfig::default()
            },
        );
        // Flood with enough work that the single-slot queue overflows.
        let mut handles = Vec::new();
        let mut saw_queue_full = false;
        for i in 0..32 {
            let sql = format!(
                "SELECT COUNT(*), AVG(t) FROM sessions WHERE city = 'city{}' WITHIN 30 SECONDS",
                i % 31
            );
            match svc.submit(&sql) {
                Ok(h) => handles.push(h),
                Err(SubmitError::QueueFull) => saw_queue_full = true,
                Err(e) => panic!("unexpected rejection: {e}"),
            }
        }
        assert!(saw_queue_full, "a 1-deep queue must exert backpressure");
        for h in handles {
            let (_, r) = h.wait();
            r.unwrap();
        }
        let m = svc.metrics();
        assert!(m.rejected_queue_full > 0);
        assert_eq!(
            m.completed, m.admitted,
            "every admitted query completed: {m:?}"
        );
    }

    #[test]
    fn edf_runs_earliest_deadline_first() {
        // One worker, and a long-deadline job submitted before a
        // short-deadline one while the worker is busy: the short
        // deadline must be picked up first.
        let svc = service(
            20_000,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        // Occupy the worker.
        let warm = svc
            .submit("SELECT COUNT(*) FROM sessions WITHIN 20 SECONDS")
            .unwrap();
        let loose = svc
            .submit("SELECT COUNT(*) FROM sessions WHERE os = 'win' WITHIN 25 SECONDS")
            .unwrap();
        let tight = svc
            .submit("SELECT COUNT(*) FROM sessions WHERE os = 'mac' WITHIN 3 SECONDS")
            .unwrap();
        let (_, w) = warm.wait();
        w.unwrap();
        let (_, t) = tight.wait();
        let (_, l) = loose.wait();
        t.unwrap();
        l.unwrap();
        // The queue ordering is observable through completion order of
        // the metrics reservoir: the 3s-bound query's simulated latency
        // lands before the 25s one. (Both completed; EDF kept the tight
        // deadline from starving behind the loose one.)
        let m = svc.metrics();
        assert_eq!(m.completed, 3);
        assert_eq!(m.deadline_misses, 0, "all bounds were satisfiable");
    }

    #[test]
    fn degradation_relaxes_unaffordable_error_bounds() {
        // A tiny latency SLO forces any tight-ε plan over budget, so
        // admission must substitute a larger achievable ε.
        let db = fixture_db(60_000);
        let floor = db.min_feasible_seconds_with(db.config().exec);
        let svc = QueryService::new(
            db,
            ServiceConfig {
                workers: 2,
                // SLO barely above the cheapest possible execution: the
                // resolution needed for ε=0.1% will not fit.
                default_deadline_s: floor * 1.5,
                ..ServiceConfig::default()
            },
        );
        // Warm the ELP cache (degradation needs a profile).
        let (_, warm) = svc
            .submit("SELECT COUNT(*) FROM sessions WHERE city = 'city1' ERROR WITHIN 20% AT CONFIDENCE 95%")
            .unwrap()
            .wait();
        warm.unwrap();
        let h = svc
            .submit("SELECT COUNT(*) FROM sessions WHERE city = 'city2' ERROR WITHIN 0.1% AT CONFIDENCE 95%")
            .unwrap();
        let degraded = h.ticket().degraded_epsilon();
        let (ticket, r) = h.wait();
        r.unwrap();
        assert!(
            degraded.is_some(),
            "0.1% under a ~{floor:.3}s SLO must degrade; metrics: {:?}",
            svc.metrics()
        );
        assert!(ticket.degraded_epsilon().unwrap() > 0.001);
        assert_eq!(svc.metrics().degraded, 1);
    }

    #[test]
    fn bootstrap_method_surfaces_through_answers_and_metrics() {
        let svc = service(10_000, ServiceConfig::default());
        // A closed-form query and a bootstrap one (STDDEV has no closed
        // form; the default Auto policy routes it through the estimator).
        let (_, closed) = svc
            .submit("SELECT COUNT(*) FROM sessions WHERE city = 'city1' WITHIN 10 SECONDS")
            .unwrap()
            .wait();
        let closed = closed.unwrap();
        assert_eq!(closed.method(), blinkdb_exec::ErrorMethod::ClosedForm);

        let (_, boot) = svc
            .submit("SELECT STDDEV(t) FROM sessions WHERE city = 'city1' WITHIN 20 SECONDS")
            .unwrap()
            .wait();
        let boot = boot.unwrap();
        assert!(boot.method().is_bootstrap(), "method {:?}", boot.method());
        let row = &boot.answer.answer.rows[0].aggs[0];
        assert!(row.estimate > 0.0, "stddev of t is positive");
        assert!(
            row.variance > 0.0 && row.variance.is_finite(),
            "bootstrap must produce a finite error bar: {row:?}"
        );

        let m = svc.metrics();
        assert_eq!(m.bootstrap_queries, 1);
        assert_eq!(m.closed_form_queries, 1);
        assert!(m.p95_bootstrap_sim_latency_s > 0.0);
        assert!(m.bootstrap_p95_overhead_x > 0.0);
    }

    #[test]
    fn bootstrap_cost_raises_the_admission_floor() {
        let db = fixture_db(20_000);
        let floor = db.min_feasible_seconds_with(db.config().exec);
        let svc = QueryService::new(db, ServiceConfig::default());
        // A WITHIN bound that a closed-form scan could meet but a
        // 100-replicate bootstrap scan cannot: admission must reject the
        // STDDEV query and keep accepting the COUNT one.
        let budget = floor * 1.2;
        let count = format!("SELECT COUNT(*) FROM sessions WITHIN {budget} SECONDS");
        assert!(svc.submit(&count).is_ok(), "closed-form fits {budget}s");
        let sd = format!("SELECT STDDEV(t) FROM sessions WITHIN {budget} SECONDS");
        match svc.submit(&sd) {
            Err(SubmitError::Unsatisfiable { required_s, .. }) => {
                assert!(required_s > budget, "floor must price the replicates");
            }
            other => panic!("expected Unsatisfiable for bootstrap under {budget}s, got {other:?}"),
        }
    }

    #[test]
    fn tickets_never_report_negative_budget() {
        let svc = service(10_000, ServiceConfig::default());
        let h = svc
            .submit("SELECT COUNT(*) FROM sessions WITHIN 5 SECONDS")
            .unwrap();
        let (ticket, r) = h.wait();
        r.unwrap();
        assert!(ticket.remaining_budget_s() >= 0.0);
        // Even once the deadline is long past, the budget saturates.
        std::thread::sleep(Duration::from_millis(5));
        assert!(ticket.remaining_budget_s() >= 0.0);
    }

    /// Builds an *owned* fixture instance (for `with_ingest`).
    fn fixture_db_owned(rows: usize) -> BlinkDb {
        Arc::try_unwrap(fixture_db(rows)).unwrap_or_else(|arc| (*arc).clone())
    }

    fn city_rows(city: &str, n: usize) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| {
                vec![
                    Value::str(city),
                    Value::str(["win", "mac", "linux"][i % 3]),
                    Value::Float((i % 127) as f64),
                ]
            })
            .collect()
    }

    #[test]
    fn static_service_rejects_appends() {
        let svc = service(5_000, ServiceConfig::default());
        match svc.append_rows(city_rows("city1", 10)) {
            Err(IngestError::NotIngesting) => {}
            other => panic!("expected NotIngesting, got {other:?}"),
        }
        assert!(matches!(svc.flush_ingest(), Err(IngestError::NotIngesting)));
    }

    #[test]
    fn append_advances_epoch_and_ingests_rows() {
        let svc = QueryService::with_ingest(
            fixture_db_owned(10_000),
            ServiceConfig::default(),
            IngestConfig::default(),
        );
        let e0 = svc.current_epoch();
        svc.append_rows(city_rows("city3", 500)).unwrap();
        let e1 = svc.flush_ingest().unwrap();
        assert!(e1 > e0, "publish must advance the epoch: {e0} -> {e1}");
        assert_eq!(svc.current_epoch(), e1);
        let m = svc.metrics();
        assert_eq!(m.rows_ingested, 500);
        assert_eq!(m.epochs_published, 1);
        assert_eq!(
            m.families_folded + m.families_refreshed,
            svc.db().families().len() as u64,
            "every family gets a maintenance decision per batch"
        );
        // The published snapshot actually contains the appended rows.
        assert_eq!(svc.db().fact().num_rows(), 10_500);
    }

    /// The stale-result-cache bugfix: a cached answer must never survive
    /// an epoch change. Before the epoch key, the second lookup would
    /// have returned the pre-append answer from cache forever.
    #[test]
    fn result_cache_never_serves_across_epochs() {
        let svc = QueryService::with_ingest(
            fixture_db_owned(10_000),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
            IngestConfig::default(),
        );
        let sql = "SELECT COUNT(*) FROM sessions WHERE city = 'city5' WITHIN 10 SECONDS";
        let (_, first) = svc.submit(sql).unwrap().wait();
        let first = first.unwrap();
        assert!(!first.from_cache);
        // Warm hit at the same epoch.
        let (_, warm) = svc.submit(sql).unwrap().wait();
        let warm = warm.unwrap();
        assert!(warm.from_cache);
        assert_eq!(warm.epoch, first.epoch);

        // Grow city5 by a lot and publish a new epoch.
        svc.append_rows(city_rows("city5", 4_000)).unwrap();
        let e1 = svc.flush_ingest().unwrap();
        let (_, fresh) = svc.submit(sql).unwrap().wait();
        let fresh = fresh.unwrap();
        assert!(
            !fresh.from_cache,
            "post-ingest repeat must recompute, not re-serve the stale answer"
        );
        assert_eq!(fresh.epoch, e1);
        let old = first.answer.answer.rows[0].aggs[0].estimate;
        let new = fresh.answer.answer.rows[0].aggs[0].estimate;
        assert!(
            new > old * 2.0,
            "estimate must move toward the new truth: {old} -> {new}"
        );
        assert!(svc.metrics().stale_results_purged > 0);
    }

    /// The stale-ELP-profile bugfix: a profile fitted before an ingest
    /// fails the epoch check even though the family layout is unchanged,
    /// so the worker re-runs the full probe pipeline and re-fits.
    #[test]
    fn elp_profiles_invalidate_on_epoch_change() {
        let svc = QueryService::with_ingest(
            fixture_db_owned(10_000),
            ServiceConfig::default(),
            IngestConfig::default(),
        );
        // Two same-template queries: the second hits the ELP cache.
        for i in [1, 2] {
            let sql =
                format!("SELECT COUNT(*) FROM sessions WHERE city = 'city{i}' WITHIN 10 SECONDS");
            svc.submit(&sql).unwrap().wait().1.unwrap();
        }
        let hits_before = svc.metrics().elp_cache_hits;
        assert!(hits_before > 0, "same template must hit the ELP cache");

        svc.append_rows(city_rows("city9", 2_000)).unwrap();
        svc.flush_ingest().unwrap();
        let misses_before = svc.metrics().elp_cache_misses;
        svc.submit("SELECT COUNT(*) FROM sessions WHERE city = 'city3' WITHIN 10 SECONDS")
            .unwrap()
            .wait()
            .1
            .unwrap();
        let m = svc.metrics();
        assert_eq!(
            m.elp_cache_hits, hits_before,
            "stale-epoch profile must not count as a hit"
        );
        assert_eq!(
            m.elp_cache_misses,
            misses_before + 1,
            "the full pipeline must re-run after the epoch change"
        );
    }

    #[test]
    fn bad_append_surfaces_on_flush_and_keeps_serving() {
        let svc = QueryService::with_ingest(
            fixture_db_owned(5_000),
            ServiceConfig::default(),
            IngestConfig::default(),
        );
        let e0 = svc.current_epoch();
        svc.append_rows(vec![vec![Value::Float(3.0)]]).unwrap();
        match svc.flush_ingest() {
            Err(IngestError::Failed(_)) => {}
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(svc.current_epoch(), e0, "no epoch published on failure");
        // The service still answers queries afterwards.
        svc.submit("SELECT COUNT(*) FROM sessions WITHIN 10 SECONDS")
            .unwrap()
            .wait()
            .1
            .unwrap();
        // And a subsequent good batch applies cleanly.
        svc.append_rows(city_rows("city2", 50)).unwrap();
        assert!(svc.flush_ingest().unwrap() > e0);
    }

    fn durability(name: &str, snapshot_every: u64, snapshot_on_shutdown: bool) -> DurabilityConfig {
        let dir =
            std::env::temp_dir().join(format!("blinkdb-svc-durable-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DurabilityConfig {
            dir,
            fsync: false,
            // Tests key the cadence purely off sealed segments (one
            // per applied batch); the byte trigger stays out of the
            // way.
            snapshot_wal_bytes: 0,
            snapshot_sealed_segments: snapshot_every,
            snapshot_on_shutdown,
        }
    }

    #[test]
    fn durable_ingest_logs_checkpoints_and_recovers() {
        let dur = durability("roundtrip", 2, true);
        let svc = QueryService::with_ingest_durable(
            fixture_db_owned(10_000),
            ServiceConfig::default(),
            IngestConfig::default(),
            dur.clone(),
        )
        .unwrap();
        for b in 0..3 {
            svc.append_rows(city_rows("city7", 200 + b)).unwrap();
        }
        let epoch = svc.flush_ingest().unwrap();
        let rows = svc.db().fact().num_rows();
        let m = svc.metrics();
        assert_eq!(m.wal_appends, 3);
        assert!(m.wal_bytes > 0);
        assert!(
            m.snapshots_written >= 2,
            "initial + cadence checkpoint: {m:?}"
        );
        drop(svc); // clean shutdown: final checkpoint, empty WAL

        let back = QueryService::recover(
            ServiceConfig::default(),
            IngestConfig::default(),
            dur.clone(),
        )
        .unwrap();
        assert_eq!(
            back.metrics().wal_batches_replayed,
            0,
            "clean shutdown has no tail"
        );
        assert_eq!(back.current_epoch(), epoch);
        assert_eq!(back.db().fact().num_rows(), rows);
        // The recovered service keeps serving and ingesting.
        let (_, r) = back
            .submit("SELECT COUNT(*) FROM sessions WHERE city = 'city7' WITHIN 10 SECONDS")
            .unwrap()
            .wait();
        r.unwrap();
        back.append_rows(city_rows("city2", 50)).unwrap();
        assert!(back.flush_ingest().unwrap() > epoch);
    }

    #[test]
    fn recovery_replays_the_wal_tail_after_a_simulated_kill() {
        // No periodic checkpoint and no shutdown snapshot: everything
        // after the initial save lives only in the WAL — a killed
        // process in miniature.
        let dur = durability("kill", 0, false);
        let svc = QueryService::with_ingest_durable(
            fixture_db_owned(10_000),
            ServiceConfig::default(),
            IngestConfig::default(),
            dur.clone(),
        )
        .unwrap();
        svc.append_rows(city_rows("city3", 2_000)).unwrap();
        svc.append_rows(city_rows("city3", 1_000)).unwrap();
        let epoch = svc.flush_ingest().unwrap();
        let rows = svc.db().fact().num_rows();
        drop(svc);

        let back =
            QueryService::recover(ServiceConfig::default(), IngestConfig::default(), dur).unwrap();
        let m = back.metrics();
        assert_eq!(m.wal_batches_replayed, 2);
        assert_eq!(
            back.current_epoch(),
            epoch,
            "recovery resumes at the epoch of the last durable batch"
        );
        assert_eq!(back.db().fact().num_rows(), rows);
        let (_, r) = back
            .submit("SELECT COUNT(*) FROM sessions WHERE city = 'city3' WITHIN 10 SECONDS")
            .unwrap()
            .wait();
        let est = r.unwrap().answer.answer.rows[0].aggs[0].estimate;
        // city3 truth after the appends: ~10000/31 + 3000.
        let truth = 10_000.0 / 31.0 + 3_000.0;
        assert!(
            (est - truth).abs() / truth < 0.25,
            "recovered estimate {est} vs truth {truth}"
        );
    }

    #[test]
    fn invalid_batch_never_reaches_the_wal_and_cannot_poison_recovery() {
        // No checkpoints after the initial save: every applied batch
        // lives only in the WAL, so recovery must replay all of them.
        let dur = durability("poison", 0, false);
        let svc = QueryService::with_ingest_durable(
            fixture_db_owned(10_000),
            ServiceConfig::default(),
            IngestConfig::default(),
            dur.clone(),
        )
        .unwrap();
        svc.append_rows(city_rows("city4", 500)).unwrap();
        // Wrong arity: this batch can never apply. It must be rejected
        // *before* the WAL append — a logged-but-unappliable record
        // would fail again on every replay and leave the store
        // permanently unrecoverable after a crash.
        svc.append_rows(vec![vec![Value::Float(1.0)]]).unwrap();
        match svc.flush_ingest() {
            Err(IngestError::Failed(e)) => assert!(e.contains("arity"), "{e}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        // A good batch after the bad one still applies and logs.
        svc.append_rows(city_rows("city4", 250)).unwrap();
        let epoch = svc.flush_ingest().unwrap();
        let rows = svc.db().fact().num_rows();
        assert_eq!(
            svc.metrics().wal_appends,
            2,
            "the invalid batch was never logged"
        );
        assert_eq!(
            blinkdb_persist::replay_wal(dur.wal_path())
                .unwrap()
                .records
                .len(),
            2
        );
        drop(svc);

        // Recovery replays exactly the two good batches and resumes at
        // their epoch — the rejected batch left no trace.
        let back =
            QueryService::recover(ServiceConfig::default(), IngestConfig::default(), dur).unwrap();
        assert_eq!(back.metrics().wal_batches_replayed, 2);
        assert_eq!(back.current_epoch(), epoch);
        assert_eq!(back.db().fact().num_rows(), rows);
        assert!(back.flush_ingest().is_ok(), "nothing was skipped");
    }

    #[test]
    fn a_poisoned_wal_record_is_skipped_not_fatal() {
        let dur = durability("legacy-poison", 0, false);
        let svc = QueryService::with_ingest_durable(
            fixture_db_owned(10_000),
            ServiceConfig::default(),
            IngestConfig::default(),
            dur.clone(),
        )
        .unwrap();
        svc.append_rows(city_rows("city5", 300)).unwrap();
        let epoch = svc.flush_ingest().unwrap();
        drop(svc);
        // Defense in depth: validation keeps unappliable batches out of
        // the WAL, but a record an older/foreign writer managed to log
        // must still not brick the store. Hand-append one stamped at
        // the current epoch whose apply can only fail.
        {
            let mut wal = Wal::open(dur.wal_path(), false).unwrap();
            wal.append(&encode_wal_payload(epoch, &[vec![Value::Float(1.0)]]))
                .unwrap();
            // And a CRC-valid frame whose payload does not even decode
            // (too short for the epoch stamp): same skip treatment.
            wal.append(&[0xFF; 5]).unwrap();
        }
        let back = QueryService::recover(
            ServiceConfig::default(),
            IngestConfig::default(),
            dur.clone(),
        )
        .unwrap();
        assert_eq!(back.metrics().wal_batches_replayed, 1, "the good batch");
        assert_eq!(back.current_epoch(), epoch);
        match back.flush_ingest() {
            Err(IngestError::Failed(e)) => assert!(e.contains("2 wal record(s) skipped"), "{e}"),
            other => panic!("the skip must surface on flush, got {other:?}"),
        }
        drop(back);
        // The post-replay checkpoint retired the poison: a second
        // recovery is clean — no crash loop.
        let again =
            QueryService::recover(ServiceConfig::default(), IngestConfig::default(), dur).unwrap();
        assert_eq!(again.current_epoch(), epoch);
        assert_eq!(again.metrics().wal_batches_replayed, 0);
        assert!(again.flush_ingest().is_ok());
    }

    #[test]
    fn drop_resolves_pending_handles_with_shutdown() {
        let svc = service(
            60_000,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let handles: Vec<QueryHandle> = (0..16)
            .filter_map(|i| {
                svc.submit(&format!(
                    "SELECT COUNT(*), AVG(t) FROM sessions WHERE city = 'city{i}' WITHIN 30 SECONDS"
                ))
                .ok()
            })
            .collect();
        drop(svc);
        // Every handle resolves — either with an answer (the worker got
        // to it) or with Shutdown (it was still queued).
        for h in handles {
            let (_, r) = h.wait();
            match r {
                Ok(_) | Err(ServiceError::Shutdown) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }
}
