//! Workers: the pool threads that pop the earliest-deadline job, run it
//! against a pinned snapshot, and account for the outcome — latency
//! histograms, the slow-query log, the workload profiler, the audit
//! sampling hook and both caches. Rejection accounting lives here too,
//! so every terminal state of a submission is recorded by one module.
//!
//! Synchronises through `JobQueue::pop`, the two locked caches, the
//! audit `Backlog` (via `maybe_enqueue_audit`) and `HandleState`.

use crate::admission::{Job, ServiceAnswer};
use crate::audit::maybe_enqueue_audit;
use crate::config::ServiceError;
use crate::service::Inner;
use blinkdb_core::BlinkDb;
use blinkdb_sql::ast::Bound;
use blinkdb_telemetry::{
    QuerySample, QueryTrace, ServeOutcome, SlowOutcome, SlowQueryRecord, SpanKind, TraceSpan,
};
use std::sync::Arc;

pub(crate) fn worker_loop(inner: &Inner) {
    while let Some(job) = inner.queue.pop() {
        run_job(inner, job);
    }
}

fn run_job(inner: &Inner, job: Job) {
    let queue_wait = job.submitted.elapsed();
    // Pin the snapshot for this query's entire execution: answer,
    // error bars, and cache epoch all refer to one consistent table.
    let db = inner.db.load();
    let epoch = db.epoch();
    let template = job.template.as_str();
    let hint = inner.elp.get(&job.template).filter(|p| p.fresh_for(&db));
    let had_hint = hint.is_some();
    let queue_wait_s = queue_wait.as_secs_f64();
    match db.query_parsed_with(&job.query, hint.as_ref(), Some(inner.exec_policy(&db))) {
        Ok((answer, fresh_profile)) => {
            let elp_outcome = if had_hint && fresh_profile.is_none() {
                inner.metrics.elp_cache_hits.inc();
                "hit"
            } else {
                inner.metrics.elp_cache_misses.inc();
                "miss"
            };
            if let Some(p) = fresh_profile {
                inner.elp.put(job.template.clone(), p);
            }
            let missed = job.bound_s.is_some_and(|bound| answer.elapsed_s > bound);
            if missed {
                inner.metrics.deadline_misses.inc();
            }
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
                let mut record = slow_record(
                    &job.sql,
                    template,
                    epoch.get(),
                    job.bound_s,
                    queue_wait_s,
                    outcome,
                    trace.clone(),
                );
                record.qcs = answer.qcs.to_string();
                record.sim_elapsed_s = answer.elapsed_s;
                record.deadline_fraction = deadline_fraction;
                record.reported_rel_error = Some(answer.answer.max_relative_error());
                inner.slow_log.push(record);
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
                    template: template.to_string(),
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
                    let removed = inner.elp.retain(|k, _| k.as_str() != update.template);
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
                .put((job.result.clone(), epoch), Arc::clone(&shared));
            inner.metrics.completed.inc();
            job.handle.resolve(Ok(ServiceAnswer {
                answer: shared,
                from_cache: false,
                epoch,
                queue_wait,
                degraded_epsilon: job.degraded_epsilon,
                trace,
            }));
        }
        Err(e) => {
            inner.metrics.failed.inc();
            inner.metrics.queue_waits.observe(queue_wait_s);
            inner.slow_log.push(slow_record(
                &job.sql,
                template,
                epoch.get(),
                job.bound_s,
                queue_wait_s,
                SlowOutcome::Failed,
                None,
            ));
            job.handle.resolve(Err(ServiceError::Exec(e.to_string())));
        }
    }
}

/// The slow-log record of a submission that never produced an answer
/// (rejected or failed): no query column set, no simulated time, no
/// reported error. A completion starts from the same record and fills
/// in what its answer knows.
fn slow_record(
    sql: &str,
    template: &str,
    epoch: u64,
    bound_s: Option<f64>,
    queue_wait_s: f64,
    outcome: SlowOutcome,
    trace: Option<Arc<QueryTrace>>,
) -> SlowQueryRecord {
    SlowQueryRecord {
        sql: sql.to_string(),
        template: template.to_string(),
        qcs: String::new(),
        epoch,
        sim_elapsed_s: 0.0,
        bound_s,
        deadline_fraction: 0.0,
        queue_wait_s,
        outcome,
        reported_rel_error: None,
        realized_rel_error: None,
        trace,
    }
}

/// Wraps a core-produced trace in the service's view of the same query:
/// the core root's children gain a zero-cost admission span (queue
/// wait, cache provenance, degradation) at the front, so stage costs
/// still sum to the root's simulated response time.
pub(crate) fn service_trace(
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

/// Terminal accounting for a rejected submission against the pinned
/// snapshot `db`: the zero queue wait (it never queued) and a slow-log
/// record — with a minimal admission-only trace when the effective
/// execution policy traces — so rejections are as observable as
/// completions. The reason counter is bumped by the caller.
pub(crate) fn record_rejection(
    inner: &Inner,
    db: &BlinkDb,
    sql: &str,
    template: &str,
    reason: &'static str,
    bound_s: Option<f64>,
) {
    inner.metrics.queue_waits.observe(0.0);
    let trace = inner.exec_policy(db).trace.then(|| {
        let mut root = TraceSpan::new(SpanKind::Query, "query");
        root.push(
            TraceSpan::new(SpanKind::Admission, "admission")
                .attr("decision", "rejected")
                .attr("reason", reason)
                .attr("queue_wait_s", 0.0),
        );
        Arc::new(QueryTrace::new(root))
    });
    inner.slow_log.push(slow_record(
        sql,
        template,
        db.epoch().get(),
        bound_s,
        0.0,
        SlowOutcome::Rejected { reason },
        trace,
    ));
}

#[cfg(test)]
mod tests {
    use crate::fixtures::service;
    use crate::ServiceConfig;

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
}
