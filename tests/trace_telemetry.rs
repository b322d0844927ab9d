//! End-to-end tracing + telemetry acceptance (ISSUE 6):
//!
//! * a traced query returns a complete span tree — plan (probes +
//!   compile), execute with exactly `K` partition scans at fan-out `K`,
//!   merge, finalize, bootstrap when `B > 0` — whose per-stage sim-costs
//!   sum to the reported response time within 1e-9;
//! * traces are deterministic: identical span trees and bit-identical
//!   cost totals across runs at a fixed seed/epoch;
//! * tracing is pay-for-what-you-use: with the flag off, answers are
//!   bit-identical to a traced run and carry no trace;
//! * the service stamps an admission span onto every traced answer,
//!   populates the slow-query log (including rejected submissions, with
//!   labeled rejection counters), and its Prometheus/JSON exports parse
//!   and carry every `ServiceMetrics` series.

use blinkdb_core::{BlinkDb, BlinkDbConfig, EstimatorPolicy, ExecPolicy};
use blinkdb_service::{QueryService, ServiceConfig};
use blinkdb_telemetry::{
    validate_json, validate_prometheus, AttrValue, SlowOutcome, SpanKind, TraceSpan,
};
use blinkdb_workload::conviva::conviva_dataset;
use std::sync::Arc;

const ROWS: usize = 20_000;
const SEED: u64 = 2013;

/// Fresh, fully deterministic instance: zero cluster jitter and a fresh
/// run counter, so two `fixture_db()` instances replay identical
/// simulated-latency streams.
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

fn traced_policy(db: &BlinkDb, partitions: usize) -> ExecPolicy {
    let mut policy = db.config().exec;
    policy.partitions = partitions;
    policy.trace = true;
    policy
}

fn run_traced(
    db: &BlinkDb,
    sql: &str,
    policy: ExecPolicy,
) -> (blinkdb_core::ApproxAnswer, blinkdb_telemetry::QueryTrace) {
    let query = blinkdb_sql::parse(sql).expect("parse");
    let (answer, _) = db
        .query_parsed_with(&query, None, Some(policy))
        .expect("query");
    let trace = *answer.trace.clone().expect("trace attached when enabled");
    (answer, trace)
}

fn u64_attr(span: &TraceSpan, key: &str) -> u64 {
    match span.get_attr(key) {
        Some(AttrValue::U64(v)) => *v,
        other => panic!("attr {key} missing or not u64: {other:?}"),
    }
}

const MIX: &[&str] = &[
    "SELECT AVG(sessiontimems) FROM sessions WHERE dt <= 15",
    "SELECT COUNT(*) FROM sessions WHERE city = 'city1'",
    "SELECT city, SUM(sessiontimems) FROM sessions WHERE dt <= 7 GROUP BY city WITHIN 30 SECONDS",
    "SELECT AVG(sessiontimems) FROM sessions WHERE country = 'ctry1' WITHIN 30 SECONDS",
];

// ---------------------------------------------------------------------
// Completeness: span tree shape at every fan-out
// ---------------------------------------------------------------------

#[test]
fn traced_query_has_exactly_k_partition_spans_and_complete_stages() {
    let (_dataset, db) = fixture_db();
    for &k in &[1usize, 4, 8] {
        for sql in MIX {
            let (answer, trace) = run_traced(&db, sql, traced_policy(&db, k));
            let partitions = trace.spans(SpanKind::Partition);
            assert_eq!(
                partitions.len(),
                k,
                "{sql}: fan-out {k} must yield exactly {k} partition spans"
            );
            assert_eq!(answer.partitions_total as usize, k, "{sql}");

            // Rows scanned across partition spans account for every row
            // the final run read.
            let span_rows: u64 = partitions.iter().map(|p| u64_attr(p, "rows_scanned")).sum();
            assert_eq!(
                span_rows, answer.rows_read,
                "{sql}: partition rows_scanned must sum to rows_read"
            );

            // The stage pipeline is complete: plan (with a compile
            // decision), execute, merge, finalize.
            assert_eq!(trace.spans(SpanKind::Plan).len(), 1, "{sql}");
            assert!(!trace.spans(SpanKind::Compile).is_empty(), "{sql}");
            assert_eq!(trace.spans(SpanKind::Execute).len(), 1, "{sql}");
            assert_eq!(trace.spans(SpanKind::Merge).len(), 1, "{sql}");
            assert_eq!(trace.spans(SpanKind::Finalize).len(), 1, "{sql}");

            // The render is a non-empty report mentioning the stages.
            let report = trace.render();
            assert!(report.starts_with("QUERY"), "{report}");
            assert!(report.contains("partition"), "{report}");
        }
    }
}

#[test]
fn stage_costs_sum_to_reported_response_time() {
    let (_dataset, db) = fixture_db();
    for &k in &[1usize, 4, 8] {
        for sql in MIX {
            let (answer, trace) = run_traced(&db, sql, traced_policy(&db, k));
            let reported = answer.probe_s + answer.elapsed_s;
            assert!(
                (trace.total_cost_s() - reported).abs() < 1e-9,
                "{sql}: root cost {} != probe_s + elapsed_s {}",
                trace.total_cost_s(),
                reported
            );
            assert!(
                (trace.stage_cost_sum_s() - trace.total_cost_s()).abs() < 1e-9,
                "{sql}: stage sum {} != total {}",
                trace.stage_cost_sum_s(),
                trace.total_cost_s()
            );
        }
    }
}

#[test]
fn bootstrap_span_present_when_replicates_positive() {
    let (_dataset, db) = fixture_db();
    let mut policy = traced_policy(&db, 4);
    policy.estimator = EstimatorPolicy::BootstrapAlways;
    policy.bootstrap_replicates = 37;
    let (_answer, trace) = run_traced(
        &db,
        "SELECT STDDEV(sessiontimems) FROM sessions WHERE dt <= 15",
        policy,
    );
    let boots = trace.spans(SpanKind::Bootstrap);
    assert_eq!(boots.len(), 1, "B > 0 must produce a bootstrap span");
    assert_eq!(u64_attr(boots[0], "replicates"), 37);

    // Closed-form-only execution of the same query has no bootstrap span.
    let mut cf = traced_policy(&db, 4);
    cf.estimator = EstimatorPolicy::ClosedFormOnly;
    let (_answer, trace) = run_traced(
        &db,
        "SELECT STDDEV(sessiontimems) FROM sessions WHERE dt <= 15",
        cf,
    );
    assert!(trace.spans(SpanKind::Bootstrap).is_empty());
}

// ---------------------------------------------------------------------
// Determinism and zero overhead
// ---------------------------------------------------------------------

/// Family selection (§4.1.1) of a bootstrapped query that no family
/// covers: one `probe` span per family, in family order, each carrying
/// the row counts and the price of running the query — replicates and
/// all — on that family's smallest resolution, although the selection
/// scans themselves carry no replicates. The winner's probe is then the
/// ELP probe, so the profile's error is the *bootstrap* error of that
/// resolution.
#[test]
fn selection_probes_of_a_bootstrapped_query_are_booked_per_family_at_full_price() {
    use blinkdb_cluster::{simulate_job, SimJob};
    use blinkdb_exec::{execute, ExecOptions, QueryAnswer};

    let (_dataset, db) = fixture_db();
    let sql = "SELECT STDDEV(sessiontimems), COUNT(*) FROM sessions WHERE os = 'os2' \
               ERROR WITHIN 10%";
    let k = 8;
    let policy = traced_policy(&db, k);
    let query = blinkdb_sql::parse(sql).expect("parse");
    let (answer, profile) = db
        .query_parsed_with(&query, None, Some(policy))
        .expect("query");
    let profile = profile.expect("the full pipeline ran");
    let trace = answer.trace.as_ref().expect("traced");
    let probes = trace.spans(SpanKind::Probe);
    let families = db.families();
    assert!(families.len() > 2, "the fixture builds stratified families");
    assert!(probes.len() >= families.len(), "every family is probed");

    // The reference: every family's smallest resolution executed with
    // the query's own (bootstrap) options and priced on the simulator.
    let replicates = policy.query_replicates(&query);
    assert!(replicates > 0, "STDDEV bootstraps");
    let opts = ExecOptions {
        confidence: db.config().default_confidence,
        bootstrap: Some(blinkdb_estimator::BootstrapSpec {
            replicates,
            seed: blinkdb_common::rng::derive_seed(
                db.config().seed,
                0xB007_5EED ^ db.epoch().get(),
            ),
            force: false,
        }),
        vectorized: true,
    };
    let bound = blinkdb_sql::bind::bind(&query, &db.catalog()).expect("bind");
    let dims = std::collections::HashMap::new();
    let cfg = db.config();
    let mut reference: Vec<(f64, QueryAnswer)> = Vec::new();
    for (fam, span) in families.iter().zip(&probes) {
        let (view, rates) = fam.view(fam.smallest());
        let direct = execute(&bound, view, rates, &dims, opts).expect("execute");
        assert_eq!(span.label, fam.label());
        assert_eq!(u64_attr(span, "resolution"), fam.smallest() as u64);
        assert_eq!(u64_attr(span, "rows_scanned"), direct.rows_scanned);
        assert_eq!(u64_attr(span, "rows_matched"), direct.rows_matched);
        // `os` is in no family's column set, so nothing is pruned; the
        // fixture has no jitter, so the price does not depend on the seed.
        let bytes = fam.resolution_bytes(fam.smallest());
        let job = SimJob::fanout(bytes / 1e6, k, &cfg.cluster, fam.tier())
            .with_shuffle(direct.rows.len() as f64 * 128.0 / 1e6);
        let cost = blinkdb_core::bootstrap_cost_multiplier(replicates)
            * simulate_job(&cfg.cluster, &cfg.engine, &job, 0).total_s();
        assert_eq!(span.sim_cost_s.to_bits(), cost.to_bits(), "{}", fam.label());
        reference.push((bytes, direct));
    }
    let booked: f64 = probes.iter().map(|p| p.sim_cost_s).sum();
    assert_eq!(answer.probe_s.to_bits(), booked.to_bits());

    // §4.1.1 on the reference answers picks the family the pipeline
    // picked, and the profile carries the winner's bootstrap error.
    let best = reference
        .iter()
        .map(|(_, a)| a.selectivity())
        .fold(0.0, f64::max);
    let (winner, (_, elp_probe)) = reference
        .iter()
        .enumerate()
        .filter(|(_, (_, a))| a.selectivity() >= best - 0.05)
        .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0))
        .expect("families exist");
    assert_eq!(profile.family_idx, winner);
    assert_eq!(answer.family, families[winner].label());
    assert!(elp_probe.rows_matched > 0, "no escalation in this fixture");
    assert_eq!(probes.len(), families.len(), "no probe beyond selection");
    assert_eq!(profile.probe_resolution, families[winner].smallest());
    assert!(elp_probe.max_relative_error().is_finite());
    assert_eq!(
        profile.max_rel_error.to_bits(),
        elp_probe.max_relative_error().to_bits(),
        "the ELP probe is the bootstrapped scan, not the selection scan"
    );
    assert!(matches!(
        answer.method,
        blinkdb_exec::ErrorMethod::Bootstrap { .. }
    ));
}

#[test]
fn traces_are_deterministic_across_runs_at_fixed_seed_and_epoch() {
    let collect = || {
        let (_dataset, db) = fixture_db();
        MIX.iter()
            .map(|sql| {
                let (answer, trace) = run_traced(&db, sql, traced_policy(&db, 4));
                (
                    trace.render(),
                    trace.total_cost_s().to_bits(),
                    answer.elapsed_s.to_bits(),
                )
            })
            .collect::<Vec<_>>()
    };
    let a = collect();
    let b = collect();
    assert_eq!(a, b, "same seed + epoch must reproduce identical traces");
}

#[test]
fn tracing_off_is_bit_identical_and_free() {
    let run = |trace: bool| {
        let (_dataset, db) = fixture_db();
        MIX.iter()
            .map(|sql| {
                let mut policy = traced_policy(&db, 4);
                policy.trace = trace;
                let query = blinkdb_sql::parse(sql).expect("parse");
                let (answer, _) = db
                    .query_parsed_with(&query, None, Some(policy))
                    .expect("query");
                answer
            })
            .collect::<Vec<_>>()
    };
    let on = run(true);
    let off = run(false);
    for (sql, (t, u)) in MIX.iter().zip(on.iter().zip(off.iter())) {
        assert!(t.trace.is_some(), "{sql}: traced run carries a trace");
        assert!(u.trace.is_none(), "{sql}: untraced run carries none");
        // Bit-identical simulated timings: tracing never draws from the
        // jitter seed stream.
        assert_eq!(t.elapsed_s.to_bits(), u.elapsed_s.to_bits(), "{sql}");
        assert_eq!(t.probe_s.to_bits(), u.probe_s.to_bits(), "{sql}");
        assert_eq!(t.rows_read, u.rows_read, "{sql}");
        assert_eq!(t.family, u.family, "{sql}");
        // Bit-identical answers, group by group.
        assert_eq!(t.answer.rows.len(), u.answer.rows.len(), "{sql}");
        for (rt, ru) in t.answer.rows.iter().zip(u.answer.rows.iter()) {
            assert_eq!(rt.group, ru.group, "{sql}");
            assert_eq!(rt.aggs.len(), ru.aggs.len(), "{sql}");
            for (at, au) in rt.aggs.iter().zip(ru.aggs.iter()) {
                assert_eq!(at.estimate.to_bits(), au.estimate.to_bits(), "{sql}");
                assert_eq!(at.variance.to_bits(), au.variance.to_bits(), "{sql}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Service: admission spans, slow-query log, exports
// ---------------------------------------------------------------------

fn traced_service() -> (QueryService, blinkdb_workload::ConvivaDataset) {
    let (dataset, db) = fixture_db();
    let exec = Some(ExecPolicy {
        trace: true,
        ..db.config().exec
    });
    let service = QueryService::new(
        Arc::new(db),
        ServiceConfig {
            workers: 2,
            exec,
            // Everything qualifies as "slow": the log fills from the
            // first completion.
            slow_threshold_frac: 0.0,
            ..ServiceConfig::default()
        },
    );
    (service, dataset)
}

#[test]
fn service_answers_carry_admission_prefixed_traces() {
    let (service, _dataset) = traced_service();
    for sql in MIX {
        let (_ticket, result) = service.submit(sql).expect("admitted").wait();
        let answer = result.expect("completed");
        let trace = answer.trace.expect("traced service attaches traces");
        let first = trace.root.children.first().expect("root has stages");
        assert_eq!(first.kind, SpanKind::Admission, "{sql}");
        assert!(
            first.get_attr("queue_wait_s").is_some(),
            "{sql}: admission records queue wait"
        );
        // The admission prefix is free: stage costs still sum to the
        // root's total.
        assert!(
            (trace.stage_cost_sum_s() - trace.total_cost_s()).abs() < 1e-9,
            "{sql}"
        );
    }
}

#[test]
fn slow_log_and_labeled_rejections_populate() {
    let (service, _dataset) = traced_service();
    for sql in MIX {
        let (_t, result) = service.submit(sql).expect("admitted").wait();
        result.expect("completed");
    }
    // An unparsable submission is rejected up front but still leaves an
    // observability record.
    assert!(service.submit("SELECT FROM WHERE").is_err());
    // So does an unsatisfiably tight time bound.
    assert!(service
        .submit("SELECT AVG(sessiontimems) FROM sessions WITHIN 0.0001 SECONDS")
        .is_err());

    let records = service.slow_queries();
    assert!(
        records.len() >= MIX.len(),
        "threshold 0.0 logs every completion (got {})",
        records.len()
    );
    assert!(records
        .iter()
        .any(|r| matches!(r.outcome, SlowOutcome::Completed) && r.trace.is_some()));
    assert!(records
        .iter()
        .any(|r| matches!(r.outcome, SlowOutcome::Rejected { reason: "invalid" })));
    assert!(records.iter().any(|r| matches!(
        r.outcome,
        SlowOutcome::Rejected {
            reason: "unsatisfiable"
        }
    )));

    let prom = service.render_prometheus();
    assert!(
        prom.contains("blinkdb_queries_rejected_total{reason=\"invalid\"} 1"),
        "labeled rejection counter missing:\n{prom}"
    );
}

#[test]
fn exports_parse_and_cover_every_service_metric() {
    let (service, _dataset) = traced_service();
    for sql in MIX {
        let (_t, result) = service.submit(sql).expect("admitted").wait();
        result.expect("completed");
    }

    let prom = service.render_prometheus();
    validate_prometheus(&prom).expect("prometheus text parses");
    let json = service.render_json();
    validate_json(&json).expect("json export parses");

    // Every pre-existing `ServiceMetrics` field has a series behind it.
    for name in [
        "blinkdb_queries_submitted_total",
        "blinkdb_queries_admitted_total",
        "blinkdb_queries_rejected_total",
        "blinkdb_queries_degraded_total",
        "blinkdb_queries_completed_total",
        "blinkdb_queries_failed_total",
        "blinkdb_deadline_misses_total",
        "blinkdb_result_cache_hits_total",
        "blinkdb_result_cache_misses_total",
        "blinkdb_result_cache_hit_rate",
        "blinkdb_elp_cache_hits_total",
        "blinkdb_elp_cache_misses_total",
        "blinkdb_elp_cache_hit_rate",
        "blinkdb_rows_ingested_total",
        "blinkdb_epochs_published_total",
        "blinkdb_families_folded_total",
        "blinkdb_families_refreshed_total",
        "blinkdb_stale_results_purged_total",
        "blinkdb_wal_appends_total",
        "blinkdb_wal_bytes_total",
        "blinkdb_snapshots_written_total",
        "blinkdb_wal_batches_replayed_total",
        "blinkdb_closed_form_queries_total",
        "blinkdb_bootstrap_queries_total",
        "blinkdb_sim_latency_seconds",
        "blinkdb_queue_wait_seconds",
        "blinkdb_queue_depth",
    ] {
        assert!(prom.contains(name), "prometheus export missing {name}");
        assert!(json.contains(name), "json export missing {name}");
    }
    // Histogram quantiles are exported as `_p50`/`_p95`/`_p99` gauges.
    for q in ["p50", "p95", "p99"] {
        assert!(
            prom.contains(&format!("blinkdb_sim_latency_seconds_{q} ")),
            "missing sim-latency quantile {q}:\n{prom}"
        );
    }

    // The snapshot agrees with the counters the exports carry.
    let m = service.metrics();
    assert_eq!(m.completed, MIX.len() as u64);
    assert!(prom.contains(&format!("blinkdb_queries_completed_total {}", m.completed)));
}
