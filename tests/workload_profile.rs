//! Workload profiler + sample-plan advisor acceptance (ISSUE 10):
//!
//! * served answers are bit-identical with workload profiling on or
//!   off — recording only copies values the pipeline already computed;
//! * `EXPLAIN WORKLOAD` lists per-QCS observed mass, serving family,
//!   hit rate, and ELP calibration ratio, and renders deterministically
//!   at a fixed seed/epoch (two identically-driven services agree
//!   byte-for-byte);
//! * the advisor flags unserved QCS mass and emits a ranked `BUILD`
//!   recommendation for it — advisory only, never advancing an epoch —
//!   and re-solving with the recommended columns raises the stratified
//!   hit rate on the same queries and shrinks the unserved share;
//! * ELP calibration under ingest drift: skewed appended batches plus
//!   an injected prediction miscalibration move the per-template
//!   calibration ratio, fire `elp_miscalibrated`, invalidate the
//!   template's cached plan profile, and resolve on recovery;
//! * slow-query records carry the canonical template key and QCS.

use blinkdb_core::{BlinkDb, BlinkDbConfig, Recommendation};
use blinkdb_service::{QueryService, ServiceConfig};
use blinkdb_sql::template::WeightedTemplate;
use blinkdb_telemetry::{validate_prometheus, AlertState, SlowOutcome};
use blinkdb_workload::conviva::conviva_dataset;
use blinkdb_workload::stream::{conviva_append_batch, StreamSpec};
use std::sync::Arc;

const ROWS: usize = 20_000;
const SEED: u64 = 2013;

/// Deterministic Conviva fixture: zero cluster jitter and a fresh run
/// counter, so two instances replay identical simulated-latency streams.
fn fixture_db() -> (blinkdb_workload::ConvivaDataset, BlinkDb) {
    let dataset = conviva_dataset(ROWS, SEED);
    let db = solve(&dataset, &dataset.templates);
    (dataset, db)
}

/// The fixture's instance with samples solved for `templates` at the
/// fixture's budget.
fn solve(dataset: &blinkdb_workload::ConvivaDataset, templates: &[WeightedTemplate]) -> BlinkDb {
    let mut cfg = BlinkDbConfig::default();
    cfg.cluster.jitter = 0.0;
    cfg.stratified.cap = 150.0;
    cfg.stratified.resolutions = 4;
    cfg.uniform.cap = 0.2;
    cfg.uniform.resolutions = 6;
    cfg.optimizer.cap = 150.0;
    cfg.seed = SEED;
    let mut db = BlinkDb::new(dataset.table.clone(), cfg);
    db.create_samples(templates, 0.5).expect("samples");
    db
}

/// Distinct query column sets: {dt}, {city, dt}, {country}, {} — every
/// literal differs per call index so repeats share a template without
/// hitting the result cache.
fn mix(i: usize) -> Vec<String> {
    vec![
        format!(
            "SELECT AVG(sessiontimems) FROM sessions WHERE dt <= {}",
            5 + (i % 20)
        ),
        format!(
            "SELECT city, SUM(sessiontimems) FROM sessions WHERE dt <= {} GROUP BY city",
            3 + (i % 25)
        ),
        format!(
            "SELECT COUNT(*) FROM sessions WHERE country = 'ctry{}'",
            1 + (i % 3)
        ),
        "SELECT AVG(sessiontimems) FROM sessions".to_string(),
    ]
}

fn run(service: &QueryService, sql: &str) -> blinkdb_service::ServiceAnswer {
    let (_t, result) = service.submit(sql).expect("admitted").wait();
    result.expect("completed")
}

// ---------------------------------------------------------------------
// Bit-identical answers with profiling on or off
// ---------------------------------------------------------------------

#[test]
fn profiling_on_is_bit_identical_to_off() {
    let collect = |profile: bool| {
        let (_dataset, db) = fixture_db();
        let service = QueryService::new(
            Arc::new(db),
            ServiceConfig {
                workers: 1,
                profile,
                ..ServiceConfig::default()
            },
        );
        (0..6)
            .flat_map(mix)
            .map(|sql| run(&service, &sql))
            .collect::<Vec<_>>()
    };
    let on = collect(true);
    let off = collect(false);
    assert_eq!(on.len(), off.len());
    for (a, b) in on.iter().zip(off.iter()) {
        // Bit-identical simulated timings: profiling never draws from
        // the simulator's seed stream.
        assert_eq!(a.answer.elapsed_s.to_bits(), b.answer.elapsed_s.to_bits());
        assert_eq!(a.answer.rows_read, b.answer.rows_read);
        assert_eq!(a.answer.family, b.answer.family);
        assert_eq!(a.answer.answer.rows.len(), b.answer.answer.rows.len());
        for (ra, rb) in a.answer.answer.rows.iter().zip(b.answer.answer.rows.iter()) {
            assert_eq!(ra.group, rb.group);
            for (ga, gb) in ra.aggs.iter().zip(rb.aggs.iter()) {
                assert_eq!(ga.estimate.to_bits(), gb.estimate.to_bits());
                assert_eq!(ga.variance.to_bits(), gb.variance.to_bits());
            }
        }
    }
}

// ---------------------------------------------------------------------
// EXPLAIN WORKLOAD content and determinism
// ---------------------------------------------------------------------

#[test]
fn explain_workload_lists_qcs_mass_family_hit_rate_and_calibration() {
    let build = || {
        let (_dataset, db) = fixture_db();
        QueryService::new(
            Arc::new(db),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        )
    };
    let drive = |service: &QueryService| {
        for i in 0..10 {
            for sql in mix(i) {
                run(service, &sql);
            }
        }
        service.workload_report()
    };
    let service = build();
    let report = drive(&service);

    assert!(report.starts_with("EXPLAIN WORKLOAD\n"), "{report}");
    // The per-QCS table's required columns.
    for needle in [
        "qcs", "mass", "share", "queries", "hit_rate", "family", "calib",
    ] {
        assert!(
            report.contains(needle),
            "missing column {needle:?}:\n{report}"
        );
    }
    // The observed query column sets appear as rendered sets, the
    // unfiltered aggregate as the empty bucket.
    for needle in ["{dt}", "{city, dt}", "{country}", "(none)"] {
        assert!(report.contains(needle), "missing QCS {needle:?}:\n{report}");
    }
    // Family utilities and the footer. Only cache-missing executions
    // reach the profiler: per sweep of 10, the dt and city templates
    // vary their literal every time (10 + 10), the country template
    // cycles three literals (3), and the unfiltered aggregate is one
    // cached entry (1) — 24 profiled queries.
    assert!(report.contains("families"), "{report}");
    assert!(report.contains("recommendations"), "{report}");
    assert!(report.contains("overall: queries=24"), "{report}");

    // Calibration ratios appear once templates accumulate samples: at
    // least one QCS row renders a numeric ratio (not the "-" filler).
    let profiler = service.profiler().expect("profiling on by default");
    let snap = profiler.snapshot();
    assert!(snap.qcs.iter().any(|q| q.calibration_ratio.is_some()));
    assert!(!snap.templates.is_empty(), "templates tracked");
    // Healthy fixture: predictions come from the same fitted model the
    // planner used, so no template counts as drifted.
    assert!(snap.templates.iter().all(|t| !t.drifted), "{snap:?}");

    // The report is a pure view: rendering twice changes nothing.
    assert_eq!(service.workload_report(), service.workload_report());
    // And it is deterministic across identically-driven services.
    assert_eq!(drive(&build()), report);

    // The advisor's series ride the Prometheus export, which parses
    // under the tightened HELP/TYPE validator.
    let prom = service.render_prometheus();
    validate_prometheus(&prom).expect("prometheus parses");
    for needle in [
        "blinkdb_advisor_unserved_share",
        "blinkdb_advisor_family_utility",
        "blinkdb_advisor_recommendations{action=\"build\"}",
        "blinkdb_workload_queries_total 24",
        "blinkdb_workload_serve_total",
        "blinkdb_elp_calibration_ratio",
    ] {
        assert!(prom.contains(needle), "export missing {needle}:\n{prom}");
    }
}

/// Serves `sqls` through a fresh one-worker service over `db`.
fn serve(db: BlinkDb, sqls: &[String]) -> QueryService {
    let service = QueryService::new(
        Arc::new(db),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    for sql in sqls {
        run(&service, sql);
    }
    service
}

/// Stratified-family hit rate over every profiled completion.
fn hit_rate(service: &QueryService) -> f64 {
    let snap = service.profiler().expect("profiling on").snapshot();
    let (hits, queries) = snap
        .qcs
        .iter()
        .fold((0, 0), |(h, n), q| (h + q.hits, n + q.queries));
    hits as f64 / queries.max(1) as f64
}

#[test]
fn advisor_flags_unserved_mass_and_recommends_build() {
    let (dataset, db) = fixture_db();
    // Fixture sanity: no stratified family covers {genre} (the paper
    // notes genre is frequently queried but not worth stratifying, and
    // the optimizer agrees at this budget).
    assert!(
        !db.families()
            .iter()
            .any(|f| !f.is_uniform() && f.columns().contains("genre")),
        "fixture families unexpectedly cover genre"
    );
    let genre: Vec<String> = (0..8)
        .map(|i| {
            format!(
                "SELECT genre, AVG(sessiontimems) FROM sessions WHERE dt <= {} GROUP BY genre",
                3 + i
            )
        })
        .collect();
    let service = serve(db.clone(), &genre);
    let epoch_before = service.current_epoch();
    let advice = service.workload_advice().expect("profiling on");
    assert!(
        advice.unserved_share > 0.5,
        "a genre-only workload is unserved mass: {advice:?}"
    );
    let build = advice
        .recommendations
        .iter()
        .find(|r| r.action() == "build")
        .expect("advisor recommends building the unserved QCS");
    assert!(build.target().contains("genre"), "{build:?}");
    // Advisory only: reading the advice never advances the epoch.
    assert_eq!(service.current_epoch(), epoch_before);
    let report = service.workload_report();
    assert!(report.contains("BUILD"), "{report}");

    // Acting on the advice works. The optimizer still declines to
    // stratify genre once asked, so this half runs an ASN-heavy mix the
    // fixture does not cover either (two ASN dashboards per city one).
    // Its top BUILD, added as a template weighted by the unserved share
    // and re-solved at the same budget, must serve the same queries from
    // a stratified family more often and leave less mass unserved.
    let shifted: Vec<String> = (0..24)
        .map(|i| {
            let col = if i % 3 == 2 { "city" } else { "asn" };
            format!(
                "SELECT {col}, AVG(sessiontimems) FROM sessions WHERE {col} != 'zz{i}' GROUP BY {col}"
            )
        })
        .collect();
    let before = serve(db, &shifted);
    let advice = before.workload_advice().expect("profiling on");
    let (columns, share) = advice
        .recommendations
        .iter()
        .find_map(|r| match r {
            Recommendation::Build { columns, share } => Some((columns.clone(), *share)),
            _ => None,
        })
        .expect("the ASN-heavy mix draws a BUILD recommendation");
    let mut templates = dataset.templates.clone();
    templates.push(WeightedTemplate {
        columns,
        weight: share.clamp(0.05, 1.0),
    });
    let after = serve(solve(&dataset, &templates), &shifted);
    let (hit_before, hit_after) = (hit_rate(&before), hit_rate(&after));
    let unserved_after = after
        .workload_advice()
        .expect("profiling on")
        .unserved_share;
    assert!(
        hit_after > hit_before,
        "the BUILD must raise the stratified hit rate: {hit_before:.3} -> {hit_after:.3}"
    );
    assert!(
        unserved_after < advice.unserved_share,
        "the BUILD must shrink the unserved share: {:.3} -> {unserved_after:.3}",
        advice.unserved_share
    );
}

// ---------------------------------------------------------------------
// Satellite: ELP calibration under ingest drift
// ---------------------------------------------------------------------

#[test]
fn elp_calibration_drift_fires_resolves_and_invalidates_profiles() {
    let (_dataset, db) = fixture_db();
    let service = QueryService::with_ingest(
        db,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        Default::default(),
    );
    let profiler = service.profiler().expect("profiling enabled");
    let drift_state = |service: &QueryService| {
        service
            .alerts()
            .into_iter()
            .find(|s| s.rule == "elp_miscalibrated")
            .expect("rule present")
    };
    let template_ratio = |p: &blinkdb_telemetry::WorkloadProfiler| {
        let snap = p.snapshot();
        snap.templates
            .iter()
            .map(|t| t.ratio)
            .next()
            .expect("template tracked")
    };
    let q = |i: usize| {
        format!(
            "SELECT AVG(sessiontimems) FROM sessions WHERE dt <= {}",
            2 + i
        )
    };

    // Phase 1: healthy baseline. Predictions come from the same fitted
    // latency model the planner used, so calibration sits near 1 and
    // the rule stays quiet. Ten queries clear the profiler's 8-sample
    // minimum, so the not-firing verdict below is a live one.
    for i in 0..10 {
        run(&service, &q(i));
    }
    let baseline = template_ratio(&profiler);
    let samples = profiler.snapshot().templates[0].samples;
    assert!(
        samples >= 8,
        "drift verdict needs 8 samples, have {samples}"
    );
    let s = drift_state(&service);
    assert_ne!(s.state, AlertState::Firing, "baseline ratio {baseline}");
    assert_eq!(service.metrics().elp_invalidations, 0);

    // Phase 2: the workload under the model drifts — skewed appended
    // batches rotate the hot strata — and the injected prediction scale
    // (the profiler's test hook, mirroring the auditor's sigma_scale)
    // makes the fitted model's predictions read 4x low.
    let spec = StreamSpec {
        rows_per_batch: 2_000,
        batches: 3,
        seed: SEED,
        skew_shift: 700,
    };
    for b in 0..spec.batches {
        service
            .append_rows(conviva_append_batch(&spec, b))
            .expect("ingesting");
    }
    service.flush_ingest().expect("batches applied");
    profiler.set_predicted_scale(0.25);
    for i in 0..8 {
        run(&service, &q(10 + i));
    }
    let drifted = template_ratio(&profiler);
    assert!(
        drifted > 2.0 && drifted > baseline,
        "calibration ratio must move under drift: baseline {baseline}, drifted {drifted}"
    );
    let s = drift_state(&service);
    assert_eq!(s.state, AlertState::Firing, "drift gauge {}", s.value);
    assert_eq!(s.fired, 1);
    // The drifted template's cached plan profile was invalidated, so
    // subsequent instantiations refit from a fresh probe.
    assert!(
        service.metrics().elp_invalidations > 0,
        "stale PlanProfile hints must be dropped"
    );

    // Phase 3: predictions trusted again. The EWMA recovers under the
    // clear threshold and the alert resolves.
    profiler.set_predicted_scale(1.0);
    for i in 0..10 {
        run(&service, &q(30 + i));
    }
    let recovered = template_ratio(&profiler);
    assert!(recovered < drifted, "ratio recovers: {recovered}");
    let s = drift_state(&service);
    assert_eq!(s.state, AlertState::Ok, "drift gauge {}", s.value);
    assert_eq!(s.resolved, 1);
}

// ---------------------------------------------------------------------
// Satellite: slow-query records group by template and carry the QCS
// ---------------------------------------------------------------------

#[test]
fn slow_query_records_carry_template_and_qcs() {
    let (_dataset, db) = fixture_db();
    let service = QueryService::new(
        Arc::new(db),
        ServiceConfig {
            workers: 1,
            slow_threshold_frac: 0.0, // everything qualifies as slow
            ..ServiceConfig::default()
        },
    );
    for i in 0..3 {
        run(
            &service,
            &format!(
                "SELECT city, SUM(sessiontimems) FROM sessions WHERE dt <= {} GROUP BY city",
                5 + i
            ),
        );
    }
    assert!(service.submit("SELECT FROM WHERE").is_err());

    let records = service.slow_queries();
    let completed: Vec<_> = records
        .iter()
        .filter(|r| matches!(r.outcome, SlowOutcome::Completed))
        .collect();
    assert_eq!(completed.len(), 3);
    // Distinct literals, one canonical template; the bound QCS rides
    // along rendered as a set.
    assert!(
        completed.windows(2).all(|w| w[0].template == w[1].template),
        "{completed:?}"
    );
    assert!(!completed[0].template.is_empty());
    assert!(
        completed[0].qcs.contains("city") && completed[0].qcs.contains("dt"),
        "{:?}",
        completed[0].qcs
    );
    // Rejections never bound: template still recorded (from raw text),
    // QCS empty.
    let rejected = records
        .iter()
        .find(|r| matches!(r.outcome, SlowOutcome::Rejected { .. }))
        .expect("rejection logged");
    assert!(!rejected.template.is_empty());
    assert!(rejected.qcs.is_empty());
}
