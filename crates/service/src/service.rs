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

use crate::admission::JobQueue;
use crate::audit::{audit_loop, AuditLane};
use crate::cache::LockedCache;
use crate::config::{ServiceConfig, ServiceError};
use crate::ingest::{ingest_loop, IngestLane, MasterState};
use crate::metrics::{MetricsRegistry, ServiceMetrics};
use crate::worker::worker_loop;
use blinkdb_core::{
    advise, render_workload_report, ApproxAnswer, BlinkDb, DataEpoch, ExecPolicy, FamilyView,
    PlanProfile, SnapshotSwap, WorkloadAdvice,
};
use blinkdb_sql::canonical::CanonicalKey;
use blinkdb_telemetry::{
    default_blinkdb_rules, AlertEngine, AlertStatus, Auditor, Registry, SlowQueryLog,
    SlowQueryRecord, WorkloadProfiler, WorkloadSnapshot,
};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Templates in the Error–Latency-Profile cache.
const ELP_CACHE_CAPACITY: usize = 128;
/// Records in the bounded slow-query log.
const SLOW_LOG_CAPACITY: usize = 64;

/// The state every service thread shares. Nothing here is locked by
/// hand: each field that needs synchronisation owns it (`JobQueue`,
/// `LockedCache`, the lanes' `Backlog`s, `SnapshotSwap`, the telemetry
/// handles).
pub(crate) struct Inner {
    /// The serving snapshot. Static deployments publish exactly once (at
    /// construction); ingesting deployments re-publish per applied
    /// batch. Workers pin one snapshot per query via `load`.
    pub(crate) db: SnapshotSwap<BlinkDb>,
    pub(crate) cfg: ServiceConfig,
    pub(crate) queue: JobQueue,
    pub(crate) elp: LockedCache<CanonicalKey, PlanProfile>,
    /// Keyed by (canonical query, epoch): an entry can only ever serve
    /// the epoch its answer was computed at.
    pub(crate) results: LockedCache<(CanonicalKey, DataEpoch), Arc<ApproxAnswer>>,
    pub(crate) ingest: Option<IngestLane>,
    pub(crate) audit: Option<AuditLane>,
    /// The online workload/QCS profiler, when enabled. Fed from
    /// `run_job` with values the pipeline already computed.
    pub(crate) profiler: Option<WorkloadProfiler>,
    alerts: AlertEngine,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) slow_log: SlowQueryLog,
    pub(crate) next_id: AtomicU64,
}

impl Inner {
    /// The policy workers execute with, admission prices against and
    /// rejections trace under: the service override, else the pinned
    /// instance's `config.exec`.
    pub(crate) fn exec_policy(&self, db: &BlinkDb) -> ExecPolicy {
        self.cfg.exec.unwrap_or(db.config().exec)
    }
}

/// A multi-threaded, deadline-aware BlinkDB query service.
///
/// Wraps a shared [`BlinkDb`] with:
///
/// * a bounded admission queue with backpressure,
/// * ELP-based admission control (reject unsatisfiable `WITHIN` bounds,
///   degrade too-expensive error bounds),
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
    pub(crate) inner: Arc<Inner>,
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

    pub(crate) fn build(
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
            queue: JobQueue::new(cfg.queue_capacity),
            elp: LockedCache::new(ELP_CACHE_CAPACITY),
            results: LockedCache::new(cfg.result_cache_capacity),
            ingest: master.as_ref().map(|_| IngestLane::new()),
            audit: cfg
                .audit
                .map(|policy| AuditLane::new(registry.clone(), policy)),
            profiler: cfg.profile.then(|| WorkloadProfiler::new(registry.clone())),
            alerts: AlertEngine::new(
                registry.clone(),
                default_blinkdb_rules(cfg.default_deadline_s),
            ),
            metrics: MetricsRegistry::new(registry),
            slow_log: SlowQueryLog::new(SLOW_LOG_CAPACITY),
            next_id: AtomicU64::new(0),
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
        self.refresh_gauges();
        // Advisor series (family utilities, unserved share, pending
        // recommendation counts) are derived views over the profiler
        // snapshot — refresh them so a scrape carries current values.
        let _ = self.workload_state();
        // Alert evaluation is part of every export so a scrape carries
        // current `blinkdb_alert_firing` states.
        let _ = self.inner.alerts.evaluate();
    }

    /// The shared prefix of every export and alert evaluation: the
    /// derived metric gauges plus the current queue depth.
    fn refresh_gauges(&self) {
        let _ = self.inner.metrics.snapshot();
        self.inner
            .metrics
            .registry
            .set_gauge("blinkdb_queue_depth", self.queue_depth() as f64);
    }

    /// Evaluates the declarative alert rules against the current
    /// registry state and returns one status per rule (firing state
    /// with hysteresis, the evaluated value, fire/resolve totals). The
    /// evaluation is also mirrored into the registry as
    /// `blinkdb_alert_firing{rule="..."}` gauges, so Prometheus/JSON
    /// exports carry the same states a caller sees here.
    pub fn alerts(&self) -> Vec<AlertStatus> {
        self.refresh_gauges();
        self.inner.alerts.evaluate()
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
        let advice = advise(&snapshot, &families, db.plan());
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

    /// The bounded slow-query log, oldest first: completed queries past
    /// the slow threshold, deadline misses, degraded admissions, and
    /// rejected/failed submissions, each with its trace when tracing was
    /// on.
    pub fn slow_queries(&self) -> Vec<SlowQueryRecord> {
        self.inner.slow_log.records()
    }

    /// Queries currently waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.len()
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        // Every thread's wait loop checks its own shutdown flag under its
        // own lock, so none can miss the wakeup. Workers abandon their
        // backlog; the ingest thread drains already-accepted batches
        // before exiting, so accepted appends are never silently lost;
        // the audit thread sheds what is queued.
        self.inner.queue.shut_down();
        if let Some(lane) = &self.inner.ingest {
            lane.backlog.shut_down();
        }
        if let Some(lane) = &self.inner.audit {
            lane.backlog.shut_down();
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
        for job in self.inner.queue.drain() {
            job.handle.resolve(Err(ServiceError::Shutdown));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::service;
    use crate::QueryHandle;

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
