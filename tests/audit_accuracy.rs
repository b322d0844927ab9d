//! Audit determinism and coverage acceptance (accuracy observability):
//!
//! * the audit ground-truth path is bit-identical to the exact
//!   full-scan execution at the same epoch;
//! * online coverage counters match a hand-computed 2σ tally over a
//!   seeded Conviva mix;
//! * audits never advance the data epoch and never perturb the
//!   simulated jitter seed stream — served answers are bit-identical
//!   with auditing on or off;
//! * an injected variance underestimate drives the windowed coverage
//!   alert through a full fire → resolve transition.

use blinkdb_cluster::EngineProfile;
use blinkdb_core::{BlinkDb, BlinkDbConfig};
use blinkdb_exec::ErrorMethod;
use blinkdb_service::{AuditPolicy, QueryService, ServiceAnswer, ServiceConfig};
use blinkdb_storage::StorageTier;
use blinkdb_telemetry::AlertState;
use blinkdb_workload::conviva::conviva_dataset;
use blinkdb_workload::queries::{query_mix, BoundSpec};
use std::sync::Arc;

const ROWS: usize = 20_000;
const SEED: u64 = 2013;

/// Deterministic Conviva fixture: zero cluster jitter and a fresh run
/// counter, so two instances replay identical simulated-latency streams.
fn fixture_db() -> (blinkdb_workload::ConvivaDataset, BlinkDb) {
    let dataset = conviva_dataset(ROWS, SEED);
    let mut cfg = BlinkDbConfig::default();
    cfg.cluster.jitter = 0.0;
    cfg.stratified.cap = 150.0;
    cfg.stratified.resolutions = 4;
    cfg.uniform.cap = 0.2;
    cfg.uniform.resolutions = 6;
    cfg.optimizer.cap = 150.0;
    cfg.seed = SEED;
    let mut db = BlinkDb::new(dataset.table.clone(), cfg);
    db.create_samples(&dataset.templates, 0.5).expect("samples");
    (dataset, db)
}

fn conviva_mix(dataset: &blinkdb_workload::ConvivaDataset, n: usize, seed: u64) -> Vec<String> {
    query_mix(
        &dataset.table,
        &dataset.templates,
        "sessiontimems",
        n,
        BoundSpec::None,
        seed,
    )
    .into_iter()
    .map(|q| q.sql)
    .collect()
}

/// An all-audits, never-shedding policy for deterministic tests.
fn audit_every_query() -> AuditPolicy {
    AuditPolicy {
        sample_every: 1,
        shed_queue_depth: usize::MAX,
        max_backlog: usize::MAX,
    }
}

// ---------------------------------------------------------------------
// Ground truth determinism
// ---------------------------------------------------------------------

#[test]
fn audit_ground_truth_is_bit_identical_to_exact_execution() {
    let (dataset, db) = fixture_db();
    for sql in conviva_mix(&dataset, 12, 7) {
        let audit = db.query_exact_audit(&sql).expect("audit exec");
        let full = db
            .query_full_scan(&sql, &EngineProfile::shark_cached(), StorageTier::Memory)
            .expect("full scan");
        assert_eq!(audit.rows.len(), full.answer.rows.len(), "{sql}");
        for (a, f) in audit.rows.iter().zip(full.answer.rows.iter()) {
            assert_eq!(a.group, f.group, "{sql}");
            for (aa, fa) in a.aggs.iter().zip(f.aggs.iter()) {
                assert_eq!(
                    aa.estimate.to_bits(),
                    fa.estimate.to_bits(),
                    "{sql}: audit truth must be bit-identical to the exact scan"
                );
                assert!(aa.exact, "{sql}: full-resolution answers are exact");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Coverage counters vs a hand-computed tally
// ---------------------------------------------------------------------

#[test]
fn coverage_counters_match_a_hand_computed_tally() {
    let (dataset, db) = fixture_db();
    let db = Arc::new(db);
    let service = QueryService::new(
        Arc::clone(&db),
        ServiceConfig {
            workers: 2,
            audit: Some(audit_every_query()),
            ..ServiceConfig::default()
        },
    );
    let epoch_before = service.current_epoch();

    let mut served: Vec<(String, ServiceAnswer)> = Vec::new();
    for sql in conviva_mix(&dataset, 40, 11) {
        let (_t, result) = service.submit(&sql).expect("admitted").wait();
        served.push((sql, result.expect("completed")));
    }
    service.flush_audits();

    // Independent tally: re-derive ground truth through the same
    // seed-free exact path and apply the 2σ rule by hand.
    let mut checks = 0u64;
    let mut hits = 0u64;
    let mut audited = 0u64;
    for (sql, ans) in &served {
        if ans.from_cache {
            continue; // cache hits never reach a worker, so never audit
        }
        audited += 1;
        let truth = db.query_exact_audit(sql).expect("audit exec");
        for row in &ans.answer.answer.rows {
            let truth_row = truth.row_for(&row.group);
            for (i, agg) in row.aggs.iter().enumerate() {
                let t = truth_row
                    .and_then(|r| r.aggs.get(i))
                    .map(|a| a.estimate)
                    .unwrap_or(0.0);
                let sigma = if agg.exact {
                    0.0
                } else if agg.method == ErrorMethod::Unavailable {
                    f64::INFINITY
                } else {
                    agg.stddev()
                };
                let hit =
                    agg.exact || sigma.is_infinite() || (agg.estimate - t).abs() <= 2.0 * sigma;
                checks += 1;
                hits += u64::from(hit);
            }
        }
    }
    assert!(checks > 0, "the mix must produce checks");

    let auditor = service.auditor().expect("auditing enabled");
    assert_eq!(auditor.audits(), audited, "every completion audited");
    let registry = service.telemetry();
    assert_eq!(registry.counter("blinkdb_audit_checks_total").get(), checks);
    assert_eq!(registry.counter("blinkdb_audit_hits_total").get(), hits);
    let coverage = auditor.coverage().expect("checks recorded");
    assert!(
        (coverage - hits as f64 / checks as f64).abs() < 1e-12,
        "coverage gauge matches the tally"
    );

    // The audit path never advances the epoch: every re-execution ran
    // against the pinned snapshot.
    assert_eq!(service.current_epoch(), epoch_before);

    // The audit series ride the standard exports.
    let prom = service.render_prometheus();
    for name in [
        "blinkdb_audits_total",
        "blinkdb_audit_checks_total",
        "blinkdb_audit_hits_total",
        "blinkdb_audit_coverage",
        "blinkdb_alert_firing",
    ] {
        assert!(prom.contains(name), "prometheus export missing {name}");
    }
    let report = service.accuracy_report();
    assert!(report.starts_with("EXPLAIN ACCURACY"), "{report}");
    assert!(report.contains("overall:"), "{report}");
}

// ---------------------------------------------------------------------
// Zero perturbation: auditing on/off is bit-identical
// ---------------------------------------------------------------------

#[test]
fn answers_are_bit_identical_with_auditing_on_and_off() {
    let run = |audit: Option<AuditPolicy>| {
        let (dataset, db) = fixture_db();
        let service = QueryService::new(
            Arc::new(db),
            ServiceConfig {
                workers: 1,
                audit,
                ..ServiceConfig::default()
            },
        );
        let answers: Vec<ServiceAnswer> = conviva_mix(&dataset, 24, 5)
            .into_iter()
            .map(|sql| {
                let (_t, result) = service.submit(&sql).expect("admitted").wait();
                let ans = result.expect("completed");
                // Force maximal interleaving: the audit re-execution of
                // this very query completes before the next submission.
                service.flush_audits();
                ans
            })
            .collect();
        answers
    };
    let with_audit = run(Some(audit_every_query()));
    let without = run(None);
    assert_eq!(with_audit.len(), without.len());
    for (a, b) in with_audit.iter().zip(without.iter()) {
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(a.answer.elapsed_s.to_bits(), b.answer.elapsed_s.to_bits());
        assert_eq!(a.answer.rows_read, b.answer.rows_read);
        assert_eq!(a.answer.answer.rows.len(), b.answer.answer.rows.len());
        for (ra, rb) in a.answer.answer.rows.iter().zip(b.answer.answer.rows.iter()) {
            assert_eq!(ra.group, rb.group);
            for (aa, ab) in ra.aggs.iter().zip(rb.aggs.iter()) {
                assert_eq!(aa.estimate.to_bits(), ab.estimate.to_bits());
                assert_eq!(aa.variance.to_bits(), ab.variance.to_bits());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Alert transition: injected variance underestimate fires, recovery
// resolves
// ---------------------------------------------------------------------

#[test]
fn injected_variance_underestimate_fires_and_resolves_the_coverage_alert() {
    let (dataset, db) = fixture_db();
    let service = QueryService::new(
        Arc::new(db),
        ServiceConfig {
            workers: 2,
            audit: Some(audit_every_query()),
            ..ServiceConfig::default()
        },
    );
    let auditor = service.auditor().expect("auditing enabled");
    let coverage_state = |service: &QueryService| {
        service
            .alerts()
            .into_iter()
            .find(|s| s.rule == "audit_coverage_low")
            .expect("rule present")
    };

    // Phase 1: honest sigma. The first window establishes a healthy
    // baseline and the rule stays quiet.
    for sql in conviva_mix(&dataset, 30, 21) {
        let (_t, r) = service.submit(&sql).expect("admitted").wait();
        r.expect("completed");
    }
    service.flush_audits();
    let s = coverage_state(&service);
    assert_ne!(
        s.state,
        AlertState::Firing,
        "honest sigma must not fire (window coverage {:.3})",
        s.value
    );

    // Phase 2: crush the reported sigma — the CI the service *claims*
    // shrinks to nothing, so audited truth falls outside it and the
    // windowed coverage collapses.
    auditor.set_sigma_scale(1e-9);
    for sql in conviva_mix(&dataset, 30, 22) {
        let (_t, r) = service.submit(&sql).expect("admitted").wait();
        r.expect("completed");
    }
    service.flush_audits();
    let s = coverage_state(&service);
    assert_eq!(s.state, AlertState::Firing, "coverage {:.3}", s.value);
    assert_eq!(s.fired, 1);

    // Phase 3: honesty restored. The next window's coverage recovers
    // past the hysteresis threshold and the alert resolves.
    auditor.set_sigma_scale(1.0);
    for sql in conviva_mix(&dataset, 30, 23) {
        let (_t, r) = service.submit(&sql).expect("admitted").wait();
        r.expect("completed");
    }
    service.flush_audits();
    let s = coverage_state(&service);
    assert_eq!(s.state, AlertState::Ok, "coverage {:.3}", s.value);
    assert_eq!(s.resolved, 1);

    // Both transitions are visible in the exported registry.
    let registry = service.telemetry();
    assert_eq!(
        registry
            .counter_labeled(
                "blinkdb_alerts_fired_total",
                &[("rule", "audit_coverage_low")]
            )
            .get(),
        1
    );
    assert_eq!(
        registry
            .counter_labeled(
                "blinkdb_alerts_resolved_total",
                &[("rule", "audit_coverage_low")]
            )
            .get(),
        1
    );
}
