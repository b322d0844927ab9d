//! Admission: everything between `submit(sql)` and a worker picking the
//! query up — the ticket/handle pair a caller holds, the ELP-based
//! admission decision (reject hopeless `WITHIN` bounds, degrade
//! unaffordable error bounds), the result-cache short-circuit, and the
//! bounded earliest-deadline-first [`JobQueue`].
//!
//! Synchronises through [`JobQueue`] (its own mutex + condvar +
//! shutdown flag), `HandleState` (the one-shot completion slot) and the
//! two locked caches; no lock is taken by hand here.

use crate::config::{ServiceError, SubmitError};
use crate::service::QueryService;
use crate::worker::{record_rejection, service_trace};
use blinkdb_core::{ApproxAnswer, BlinkDb, DataEpoch, PlanProfile};
use blinkdb_sql::ast::{Bound, Query};
use blinkdb_sql::canonical::{result_key, template_key, CanonicalKey};
use blinkdb_telemetry::{canonical_template, QueryTrace};
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

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
    /// merge → finalize), present when the service's effective
    /// execution policy traces ([`ServiceConfig::exec`](crate::ServiceConfig::exec)
    /// with `trace` on, else the instance's `config.exec`). Cache hits
    /// carry the trace of the execution that produced the cached
    /// answer, prefixed with this submission's own admission span.
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
pub(crate) struct HandleState {
    slot: Mutex<Option<Result<ServiceAnswer, ServiceError>>>,
    cv: Condvar,
}

const HANDLE_POISONED: &str = "handle lock poisoned: a thread panicked while holding it";

impl HandleState {
    fn new() -> Arc<Self> {
        Arc::new(HandleState {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    /// The one lock site: the slot only ever goes `None` → `Some` →
    /// taken, each a single assignment.
    fn lock(&self) -> MutexGuard<'_, Option<Result<ServiceAnswer, ServiceError>>> {
        self.slot.lock().expect(HANDLE_POISONED)
    }

    pub(crate) fn resolve(&self, result: Result<ServiceAnswer, ServiceError>) {
        let mut slot = self.lock();
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
        let mut slot = self.state.lock();
        while slot.is_none() {
            slot = self.state.cv.wait(slot).expect(HANDLE_POISONED);
        }
        (self.ticket, slot.take().expect("checked above"))
    }
}

/// One queued query.
pub(crate) struct Job {
    pub(crate) query: Query,
    /// The raw text as submitted (slow-query log attribution).
    pub(crate) sql: String,
    pub(crate) template: CanonicalKey,
    pub(crate) result: CanonicalKey,
    pub(crate) handle: Arc<HandleState>,
    pub(crate) submitted: Instant,
    pub(crate) bound_s: Option<f64>,
    pub(crate) degraded_epsilon: Option<f64>,
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

struct QueueState {
    heap: BinaryHeap<QueueItem>,
    next_seq: u64,
    shutdown: bool,
}

/// The bounded admission queue: a deadline-ordered heap that owns its
/// mutex, its condvar and its shutdown handshake. Unlike a `Backlog`,
/// shutdown wins over queued work — [`JobQueue::pop`] stops handing out
/// jobs at once and [`JobQueue::drain`] returns the abandoned backlog
/// for `Drop` to resolve.
pub(crate) struct JobQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    capacity: usize,
}

const QUEUE_POISONED: &str = "job queue lock poisoned: a thread panicked while holding it";

impl JobQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                heap: BinaryHeap::new(),
                next_seq: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            capacity,
        }
    }

    /// The one lock site. Heap pushes/pops and two scalar updates: the
    /// state is consistent whenever the lock is free.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().expect(QUEUE_POISONED)
    }

    /// Enqueues `job` under `deadline` and wakes one worker — or, when
    /// `capacity` jobs are already waiting, hands the job back
    /// (backpressure, not buffering).
    fn push(&self, deadline: Instant, job: Job) -> Option<Job> {
        let mut state = self.lock();
        if state.heap.len() >= self.capacity {
            return Some(job);
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        state.heap.push(QueueItem { deadline, seq, job });
        self.cv.notify_one();
        None
    }

    /// Blocks for the earliest-deadline job. `None` once shut down:
    /// shutdown wins over queued work — in-flight queries finish, but the
    /// backlog is abandoned for `Drop` to resolve as
    /// [`ServiceError::Shutdown`].
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut state = self.lock();
        loop {
            if state.shutdown {
                return None;
            }
            if let Some(item) = state.heap.pop() {
                return Some(item.job);
            }
            state = self.cv.wait(state).expect(QUEUE_POISONED);
        }
    }

    /// Queries currently waiting for a worker.
    pub(crate) fn len(&self) -> usize {
        self.lock().heap.len()
    }

    /// Stops the workers. The flag is set under the queue lock so a
    /// worker between its shutdown check and `wait()` cannot miss the
    /// wakeup.
    pub(crate) fn shut_down(&self) {
        self.lock().shutdown = true;
        self.cv.notify_all();
    }

    /// Takes every job still queued, in no particular order.
    pub(crate) fn drain(&self) -> Vec<Job> {
        self.lock().heap.drain().map(|item| item.job).collect()
    }
}

/// The simulated `WITHIN` budget of a time-bounded query.
fn time_bound_s(query: &Query) -> Option<f64> {
    match &query.bound {
        Some(Bound::Time { seconds }) => Some(*seconds),
        _ => None,
    }
}

impl QueryService {
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
                record_rejection(inner, &inner.db.load(), sql, &template, "invalid", None);
                return Err(SubmitError::Invalid(e));
            }
        };
        let template = template_key(&query);
        // Admission may rewrite an error bound, never a time bound.
        let bound_s = time_bound_s(&query);
        // Pin the snapshot this submission is admitted (and possibly
        // cache-answered) against.
        let db = inner.db.load();
        let epoch = db.epoch();

        // ---- Admission control ----
        let degraded_epsilon = match self.admit(&db, &mut query, &template) {
            Ok(eps) => eps,
            Err(e) => {
                // The reason counter was bumped by `admit`.
                record_rejection(inner, &db, sql, template.as_str(), "unsatisfiable", bound_s);
                return Err(e);
            }
        };
        if degraded_epsilon.is_some() {
            inner.metrics.degraded.inc();
        }
        let result = result_key(&query);
        let submitted = Instant::now();
        // An absurd (or non-finite) WITHIN value must not panic the
        // submitting thread; anything Duration or Instant can't
        // represent is effectively "no deadline pressure" — clamp to a
        // year.
        let budget_s = bound_s.unwrap_or(inner.cfg.default_deadline_s);
        let deadline = Duration::try_from_secs_f64(budget_s)
            .ok()
            .and_then(|budget| submitted.checked_add(budget))
            .unwrap_or(submitted + Duration::from_secs(365 * 24 * 3600));
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
        if let Some(hit) = inner.results.get(&(result.clone(), epoch)) {
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
        let job = Job {
            query,
            sql: sql.to_string(),
            template,
            result,
            handle: Arc::clone(&state),
            submitted,
            bound_s,
            degraded_epsilon,
        };
        if let Some(job) = inner.queue.push(deadline, job) {
            inner.metrics.rejected_queue_full.inc();
            record_rejection(
                inner,
                &db,
                sql,
                job.template.as_str(),
                "queue_full",
                bound_s,
            );
            return Err(SubmitError::QueueFull);
        }
        // Count the cache miss only for queries that actually enter
        // the system, so the hit rate reflects admitted traffic and
        // is not deflated by backpressure rejections.
        inner.metrics.result_cache_misses.inc();
        inner.metrics.admitted.inc();
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
        // Epoch *and* shape staleness both disqualify a profile — a
        // refresh or ingest leaves profiles whose latency model and
        // error curve were fitted on data that no longer exists.
        let profile = inner.elp.get(template).filter(|p| p.fresh_for(db));
        let policy = inner.exec_policy(db);
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
            }) => {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{fixture_db, service};
    use crate::ServiceConfig;

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

    fn job(sql: &str) -> Job {
        let query = blinkdb_sql::parse(sql).expect("test SQL parses");
        Job {
            template: template_key(&query),
            result: result_key(&query),
            query,
            sql: sql.to_string(),
            handle: HandleState::new(),
            submitted: Instant::now(),
            bound_s: None,
            degraded_epsilon: None,
        }
    }

    #[test]
    fn queue_backpressure_rejects_when_full() {
        let queue = JobQueue::new(1);
        let deadline = Instant::now();
        assert!(queue
            .push(deadline, job("SELECT COUNT(*) FROM sessions"))
            .is_none());
        let back = queue
            .push(deadline, job("SELECT AVG(t) FROM sessions"))
            .expect("a full queue hands the job back");
        assert_eq!(back.sql, "SELECT AVG(t) FROM sessions");
        assert_eq!(queue.len(), 1);

        let first = queue.pop().expect("the queued job");
        assert_eq!(first.sql, "SELECT COUNT(*) FROM sessions");
        assert!(queue.push(deadline, back).is_none(), "a pop frees the slot");

        queue.shut_down();
        assert!(queue.pop().is_none(), "shutdown wins over queued work");
        assert_eq!(queue.drain().len(), 1, "the backlog is left for Drop");
    }

    #[test]
    fn service_flood_is_rejected_queue_full() {
        let svc = service(
            20_000,
            ServiceConfig {
                workers: 1,
                queue_capacity: 1,
                result_cache_capacity: 0,
                ..ServiceConfig::default()
            },
        );
        // Flood with enough work that the single-slot queue overflows:
        // one worker scanning 20k rows falls behind a loop of submits.
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
}
