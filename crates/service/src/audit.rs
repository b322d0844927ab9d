//! Online accuracy auditing: the sampling hook at the end of a
//! completed query, the audit lane's [`Backlog`], and the background
//! thread that re-executes sampled queries exactly and records whether
//! the served confidence interval held.
//!
//! Synchronises through the lane's [`Backlog`] only (plus a read of the
//! ingest lane's `pending()` for the priority guard).

use crate::admission::Job;
use crate::backlog::{Backlog, PushError};
use crate::config::AuditPolicy;
use crate::service::{Inner, QueryService};
use blinkdb_core::{ApproxAnswer, BlinkDb};
use blinkdb_telemetry::{AuditAggCheck, AuditOutcome, Auditor, QueryTrace, Registry};
use std::sync::Arc;
use std::time::Duration;

/// One sampled query awaiting its audit re-execution. Pins the exact
/// snapshot the served answer was computed against, so ground truth is
/// evaluated at the same epoch however far ingestion has advanced by
/// the time the audit thread gets to it.
pub(crate) struct AuditTask {
    sql: String,
    template: String,
    epoch: u64,
    db: Arc<BlinkDb>,
    answer: Arc<ApproxAnswer>,
    trace: Option<Arc<QueryTrace>>,
}

/// The audit lane: the auditor, its load-shedding policy, and the
/// bounded work queue [`QueryService::flush_audits`] waits on.
pub(crate) struct AuditLane {
    pub(crate) auditor: Auditor,
    policy: AuditPolicy,
    pub(crate) backlog: Backlog<AuditTask>,
}

impl AuditLane {
    pub(crate) fn new(registry: Registry, policy: AuditPolicy) -> Self {
        AuditLane {
            auditor: Auditor::new(registry, policy.sample_every),
            policy,
            backlog: Backlog::new(),
        }
    }
}

impl QueryService {
    /// Blocks until every audit enqueued so far has been re-executed
    /// and recorded (or the service shuts down). No-op without
    /// auditing. Deterministic tests and benches call this before
    /// reading coverage; production code never needs to.
    pub fn flush_audits(&self) {
        if let Some(audit) = self.inner.audit.as_ref() {
            audit.backlog.wait_drained();
        }
    }
}

/// The audit sampling hook at the end of a completed query. Counts the
/// completion against its canonical template, and — when the template's
/// deterministic interval sampler picks it — enqueues an [`AuditTask`]
/// for the background audit thread, unless load pressure sheds it
/// first. Shedding (not blocking) is the contract: the hot path's only
/// cost here is a template hash and two short lock acquisitions.
pub(crate) fn maybe_enqueue_audit(
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
    if inner.queue.len() >= audit.policy.shed_queue_depth {
        audit.auditor.record_shed("queue_depth");
        return;
    }
    let task = AuditTask {
        sql: job.sql.clone(),
        template: template.to_string(),
        epoch: db.epoch().get(),
        db: Arc::clone(db),
        answer: Arc::clone(answer),
        trace,
    };
    match audit.backlog.push(task, audit.policy.max_backlog) {
        Ok(()) => {}
        Err(PushError::Full) => audit.auditor.record_shed("audit_backlog"),
        // A query still in flight when the service shut down: the audit
        // thread may already be gone, so count the audit as shed rather
        // than queue it behind nobody.
        Err(PushError::ShutDown) => audit.auditor.record_shed("shutdown"),
    }
}

/// The background audit thread: strictly lower priority than everything
/// else. It waits for sampled tasks, defers while the ingest thread has
/// batches pending (ingest/compaction always win), re-executes each
/// task's query *exactly* against the pinned snapshot it was answered
/// from, and folds the CI-coverage comparison into the [`Auditor`].
/// Shutdown wins over queued audits — the backlog is drained and
/// counted as shed, never executed during teardown.
pub(crate) fn audit_loop(inner: &Inner) {
    let Some(audit) = inner.audit.as_ref() else {
        return;
    };
    while let Some(task) = audit.backlog.next() {
        // Priority inversion guard: while the ingest thread has work,
        // audits wait. An audit never competes with an epoch publish
        // for CPU, and readers never notice it at all.
        while !audit.backlog.is_shut_down()
            && inner
                .ingest
                .as_ref()
                .is_some_and(|i| i.backlog.pending() > 0)
        {
            std::thread::sleep(Duration::from_micros(200));
        }
        if audit.backlog.is_shut_down() {
            audit.auditor.record_shed("shutdown");
        } else {
            run_audit(inner, audit, task);
        }
        audit.backlog.mark_done();
    }
}

/// Executes one audit: ground truth via the seed-free exact path
/// ([`BlinkDb::query_exact_audit`] — same epoch, no epoch advance, no
/// draw from the jitter seed stream, so served answers are
/// bit-identical with auditing on or off), then one CI check per
/// served row × aggregate, recorded into the auditor and back-filled
/// onto any matching slow-log record.
fn run_audit(inner: &Inner, audit: &AuditLane, task: AuditTask) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fixture_db;
    use crate::ServiceConfig;

    fn audited_service(rows: usize) -> QueryService {
        QueryService::new(
            fixture_db(rows),
            ServiceConfig {
                workers: 1,
                audit: Some(AuditPolicy {
                    sample_every: 1,
                    ..AuditPolicy::default()
                }),
                ..ServiceConfig::default()
            },
        )
    }

    fn shed_on_shutdown(registry: &Registry) -> u64 {
        registry
            .counter_labeled("blinkdb_audit_shed_total", &[("reason", "shutdown")])
            .get()
    }

    /// Dropping a service whose audit lane still holds work sheds every
    /// queued audit as `reason="shutdown"` (none runs during teardown,
    /// none is lost), joins the audit thread, and releases a flush that
    /// is waiting on the lane.
    #[test]
    fn drop_sheds_the_audit_backlog_and_releases_flush_waiters() {
        const QUEUED: u64 = 48;
        let svc = audited_service(60_000);
        let sql = "SELECT COUNT(*), AVG(t) FROM sessions GROUP BY city, os WITHIN 30 SECONDS";
        let served = svc.submit(sql).unwrap().wait().1.unwrap();
        svc.flush_audits();
        let registry = svc.telemetry();
        let auditor = svc.auditor().unwrap();
        assert_eq!(auditor.audits(), 1, "the served query itself was audited");

        // Queue far more exact re-executions than the audit thread can
        // get through before the drop below.
        let inner = Arc::clone(&svc.inner);
        let lane = inner.audit.as_ref().unwrap();
        for _ in 0..QUEUED {
            let task = AuditTask {
                sql: sql.to_string(),
                template: "t".to_string(),
                epoch: served.epoch.get(),
                db: svc.db(),
                answer: Arc::clone(&served.answer),
                trace: None,
            };
            lane.backlog.push(task, usize::MAX).unwrap();
        }
        let (waiting_tx, waiting_rx) = std::sync::mpsc::channel();
        let flusher = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                waiting_tx.send(()).unwrap();
                inner.audit.as_ref().unwrap().backlog.wait_drained()
            })
        };
        waiting_rx.recv().unwrap();
        drop(svc); // joins the audit thread

        // Released either by the shutdown or by the last shed item.
        let _ = flusher.join().unwrap();
        let shed = shed_on_shutdown(&registry);
        let ran = auditor.audits() - 1;
        assert_eq!(ran + shed, QUEUED, "every queued audit ran or was shed");
        assert!(shed > 0, "the backlog was not empty at the drop");
        assert_eq!(lane.backlog.pending(), 0);
    }

    /// A query still in flight when the audit lane shuts down must not
    /// queue its audit behind a thread that may have exited: the
    /// sampled completion is counted as shed, and nothing stays pending.
    #[test]
    fn audits_sampled_after_shutdown_are_shed_not_queued() {
        let svc = audited_service(10_000);
        let registry = svc.telemetry();
        let lane = svc.inner.audit.as_ref().unwrap();
        lane.backlog.shut_down();
        svc.submit("SELECT COUNT(*) FROM sessions WHERE city = 'city3' WITHIN 5 SECONDS")
            .unwrap()
            .wait()
            .1
            .unwrap();
        assert_eq!(shed_on_shutdown(&registry), 1);
        assert_eq!(lane.backlog.pending(), 0);
        assert_eq!(svc.auditor().unwrap().audits(), 0);
    }
}
