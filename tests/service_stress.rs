//! Concurrency stress test for `blinkdb-service`: ≥256 Conviva-mix
//! queries from 8 client threads against one shared service.
//!
//! Asserts the acceptance contract of the serving tier:
//!
//! * every admitted handle resolves, exactly once (enforced by
//!   construction — `QueryHandle::wait` consumes the handle — and
//!   checked by counting);
//! * no ticket ever reports a negative remaining budget;
//! * ≥90% of admitted time-bounded queries respect their `WITHIN`
//!   bound under the simulated cluster clock;
//! * the ELP cache and the result cache both see hits.

use blinkdb_core::{BlinkDb, BlinkDbConfig};
use blinkdb_service::{QueryService, ServiceConfig, SubmitError};
use blinkdb_workload::conviva::conviva_dataset;
use blinkdb_workload::queries::{query_mix, BoundSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 32; // 8 × 32 = 256 queries
const BOUND_S: f64 = 8.0;

fn shared_service() -> (QueryService, blinkdb_workload::ConvivaDataset) {
    let dataset = conviva_dataset(40_000, 123);
    let mut cfg = BlinkDbConfig::default();
    cfg.cluster.jitter = 0.0;
    cfg.stratified.cap = 150.0;
    cfg.optimizer.cap = 150.0;
    cfg.uniform.resolutions = 8;
    let mut db = BlinkDb::new(dataset.table.clone(), cfg);
    db.create_samples(&dataset.templates, 0.5).expect("samples");
    let service = QueryService::new(
        Arc::new(db),
        ServiceConfig {
            workers: CLIENTS,
            queue_capacity: 512,
            ..ServiceConfig::default()
        },
    );
    (service, dataset)
}

#[test]
fn stress_256_queries_from_8_threads() {
    let (service, dataset) = shared_service();

    let resolved = AtomicU64::new(0);
    let bounded_ok = AtomicU64::new(0);
    let bounded_total = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            // Half the clients share a query stream with a sibling, so
            // identical canonical queries recur and the result cache
            // has something to absorb; the rest still share *templates*
            // (42 templates across 256 queries), feeding the ELP cache.
            let stream = (client % 4) as u64;
            let queries = query_mix(
                &dataset.table,
                &dataset.templates,
                "sessiontimems",
                QUERIES_PER_CLIENT,
                BoundSpec::Time { seconds: BOUND_S },
                1000 + stream,
            );
            let service = &service;
            let resolved = &resolved;
            let bounded_ok = &bounded_ok;
            let bounded_total = &bounded_total;
            let rejected = &rejected;
            scope.spawn(move || {
                for q in &queries {
                    let handle = match service.submit(&q.sql) {
                        Ok(h) => h,
                        Err(SubmitError::QueueFull) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        Err(e) => panic!("unexpected rejection of {}: {e}", q.sql),
                    };
                    assert!(
                        handle.ticket().remaining_budget_s() >= 0.0,
                        "fresh ticket must have non-negative budget"
                    );
                    let (ticket, result) = handle.wait();
                    let answer = result.unwrap_or_else(|e| panic!("{} failed: {e}", q.sql));
                    resolved.fetch_add(1, Ordering::Relaxed);
                    assert!(
                        ticket.remaining_budget_s() >= 0.0,
                        "a ticket never reports a negative remaining budget"
                    );
                    if let Some(bound) = ticket.bound_seconds() {
                        bounded_total.fetch_add(1, Ordering::Relaxed);
                        if answer.answer.elapsed_s <= bound {
                            bounded_ok.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    let resolved = resolved.into_inner();
    let bounded_ok = bounded_ok.into_inner();
    let bounded_total = bounded_total.into_inner();
    let submitted_total = (CLIENTS * QUERIES_PER_CLIENT) as u64;

    // Every admitted handle resolved exactly once.
    assert_eq!(
        resolved + rejected.into_inner(),
        submitted_total,
        "every submission either resolved or was rejected by backpressure"
    );
    assert!(
        resolved >= submitted_total * 9 / 10,
        "backpressure should be rare here"
    );

    // ≥90% of admitted time-bounded queries met their simulated bound.
    assert!(bounded_total > 0);
    let hit_rate = bounded_ok as f64 / bounded_total as f64;
    assert!(
        hit_rate >= 0.90,
        "only {bounded_ok}/{bounded_total} queries met their {BOUND_S}s bound"
    );

    let m = service.metrics();
    assert_eq!(m.failed, 0, "no execution failures: {m:?}");
    assert_eq!(
        m.admitted, m.completed,
        "admitted queries all completed (cache hits complete instantly): {m:?}"
    );
    assert!(
        m.elp_cache_hits > 0 && m.elp_cache_hit_rate > 0.0,
        "repeated templates must hit the ELP cache: {m:?}"
    );
    assert!(
        m.result_cache_hits > 0 && m.result_cache_hit_rate > 0.0,
        "repeated canonical queries must hit the result cache: {m:?}"
    );
    assert!(m.p50_sim_latency_s > 0.0 && m.p50_sim_latency_s <= m.p99_sim_latency_s);
    // The service counts a deadline miss once per *execution*, while the
    // client-side tally also sees result-cache re-serves of an answer
    // that originally missed; the service counter is therefore a lower
    // bound on the client-observed misses, not an exact match.
    assert!(m.deadline_misses <= bounded_total - bounded_ok);
}

/// The same shared service survives interleaved submissions of bounded,
/// error-bounded, and unbounded queries without wedging or double
/// resolution.
#[test]
fn mixed_bound_types_under_concurrency() {
    let (service, dataset) = shared_service();
    let bounds = [
        BoundSpec::Time { seconds: 6.0 },
        BoundSpec::Error {
            pct: 10.0,
            conf: 95.0,
        },
        BoundSpec::None,
    ];
    let resolved = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for client in 0..4 {
            let queries = query_mix(
                &dataset.table,
                &dataset.templates,
                "sessiontimems",
                12,
                bounds[client % bounds.len()],
                77 + client as u64,
            );
            let service = &service;
            let resolved = &resolved;
            let table = dataset.table.name();
            scope.spawn(move || {
                for q in &queries {
                    if let Ok(h) = service.submit(&q.sql) {
                        let (ticket, r) = h.wait();
                        r.unwrap();
                        assert!(ticket.remaining_budget_s() >= 0.0);
                        resolved.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // An absurd WITHIN clamps the deadline instead of
                // panicking the submitter: 1e19 s fits a `Duration` but
                // overflows `Instant + Duration`; 1e300 s fits neither.
                for within in ["1e19", "1e300"] {
                    let sql = format!("SELECT COUNT(*) FROM {table} WITHIN {within} SECONDS");
                    let (ticket, r) = service.submit(&sql).unwrap().wait();
                    r.unwrap();
                    assert!(ticket.remaining_budget_s() >= 0.0);
                }
            });
        }
    });
    assert_eq!(resolved.into_inner(), 48);
    let m = service.metrics();
    assert_eq!(m.failed, 0);
    assert_eq!(m.admitted, m.completed);
}
