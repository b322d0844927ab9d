//! Observability, end to end: EXPLAIN ANALYZE-style query traces, the
//! slow-query log, accuracy auditing with EXPLAIN ACCURACY, the alert
//! engine's fire/resolve cycle, and a Prometheus scrape off one live
//! service.
//!
//! Run with: `cargo run --release --example trace_demo`

use blinkdb_core::blinkdb::{BlinkDb, BlinkDbConfig};
use blinkdb_core::ExecPolicy;
use blinkdb_service::{AuditPolicy, QueryService, ServiceConfig};
use blinkdb_telemetry::SlowOutcome;
use blinkdb_workload::conviva::conviva_dataset;
use std::sync::Arc;

fn main() {
    println!("generating the sessions table ...");
    let dataset = conviva_dataset(60_000, 7);
    let mut config = BlinkDbConfig::default();
    config.stratified.cap = 150.0;
    config.optimizer.cap = 150.0;
    config.uniform.resolutions = 8;
    // A compact fan-out so the rendered trace trees fit on screen (the
    // default is one partition per simulated cluster node — 100 spans).
    config.exec.partitions = 8;
    let mut db = BlinkDb::new(dataset.table.clone(), config);
    println!("creating samples (50% storage budget) ...");
    db.create_samples(&dataset.templates, 0.5).expect("samples");

    // A traced service: every answer carries a span tree, and every
    // completion lands in the slow-query log (threshold 0.0 so the demo
    // has something to show — production uses ~0.9).
    let exec = Some(ExecPolicy {
        trace: true,
        ..db.config().exec
    });
    let service = QueryService::new(
        Arc::new(db),
        ServiceConfig {
            exec,
            slow_threshold_frac: 0.0,
            // Audit every completion so the demo's accuracy report fills
            // quickly — production samples (default: 1 in 4 per template).
            audit: Some(AuditPolicy {
                sample_every: 1,
                ..AuditPolicy::default()
            }),
            ..ServiceConfig::default()
        },
    );

    println!("\n-- EXPLAIN ANALYZE: where did the simulated time go? --");
    for sql in [
        "SELECT COUNT(*), AVG(sessiontimems) FROM sessions \
         WHERE city = 'city1' WITHIN 20 SECONDS",
        "SELECT STDDEV(sessiontimems) FROM sessions \
         WHERE dt <= 15 WITHIN 20 SECONDS",
    ] {
        let (_, result) = service.submit(sql).expect("admitted").wait();
        let answer = result.expect("answered");
        println!("\n{sql}");
        println!(
            "  => {:.2} simulated seconds on family {}",
            answer.answer.elapsed_s, answer.answer.family
        );
        let trace = answer.trace.expect("traced service attaches traces");
        for line in trace.render().lines() {
            println!("  {line}");
        }
    }

    // Repeat a query: the second run is a result-cache hit, and its
    // trace says so in the admission span.
    println!("\n-- cache provenance --");
    let sql = "SELECT COUNT(*) FROM sessions WHERE country = 'ctry1'";
    for run in ["cold", "warm"] {
        let (_, result) = service.submit(sql).expect("admitted").wait();
        let answer = result.expect("answered");
        let trace = answer.trace.expect("trace");
        let admission = &trace.root.children[0];
        let outcomes: Vec<String> = admission
            .children
            .iter()
            .map(|c| format!("{}: {}", c.label, c.get_attr("outcome").unwrap()))
            .collect();
        println!("  {run} run  [{}]", outcomes.join(", "));
    }

    println!("\n-- slow-query log --");
    for r in service.slow_queries().iter().take(4) {
        let outcome = match &r.outcome {
            SlowOutcome::Completed => "completed".to_string(),
            SlowOutcome::DeadlineMiss => "deadline miss".to_string(),
            SlowOutcome::Degraded { epsilon } => format!("degraded to ε={epsilon:.3}"),
            SlowOutcome::Rejected { reason } => format!("rejected ({reason})"),
            SlowOutcome::Failed => "failed".to_string(),
        };
        println!(
            "  {:.2}s / bound {:?}  {}  {}",
            r.sim_elapsed_s,
            r.bound_s,
            outcome,
            &r.sql[..r.sql.len().min(60)]
        );
    }

    // The background auditor has been re-executing sampled completions
    // exactly against their pinned snapshots; drain it and ask how the
    // reported error bars held up against ground truth.
    println!("\n-- EXPLAIN ACCURACY: do the error bars tell the truth? --");
    service.flush_audits();
    for line in service.accuracy_report().lines() {
        println!("  {line}");
    }

    // The alert engine watches the audited coverage (among other
    // series). Crushing the reported sigma simulates a system whose
    // error bars lie: the truth falls outside the claimed CIs, the
    // windowed coverage collapses, and audit_coverage_low fires.
    // Honest sigma restores it on the next window.
    println!("\n-- alert engine: inject a variance underestimate --");
    let auditor = service.auditor().expect("auditing on");
    let mut burst_seed = 40u64;
    let mut run_burst = |label: &str| {
        burst_seed += 1;
        // A fresh slice of the template mix per burst: distinct literals,
        // so nothing is served from the result cache (cache hits skip
        // the workers entirely and are never audited).
        for q in blinkdb_workload::queries::query_mix(
            &dataset.table,
            &dataset.templates,
            "sessiontimems",
            20,
            blinkdb_workload::BoundSpec::None,
            burst_seed,
        ) {
            let (_, r) = service.submit(&q.sql).expect("admitted").wait();
            r.expect("answered");
        }
        service.flush_audits();
        for s in service.alerts() {
            if s.rule == "audit_coverage_low" {
                println!(
                    "  {label:>9}: {} (window coverage {:.2})",
                    s.state.as_str(),
                    s.value
                );
            }
        }
    };
    auditor.set_sigma_scale(1e-9);
    run_burst("injected");
    auditor.set_sigma_scale(1.0);
    run_burst("recovered");

    // Everything that ran above also fed the workload profiler: per-QCS
    // observed mass, serving family and hit rate, ELP calibration
    // ratios, and the advisor's verdict on whether the sample plan
    // still matches what is actually being asked.
    println!("\n-- EXPLAIN WORKLOAD --");
    for line in service.workload_report().lines() {
        println!("  {line}");
    }

    println!("\n-- Prometheus scrape (excerpt) --");
    let scrape = service.render_prometheus();
    for line in scrape.lines().filter(|l| {
        l.starts_with("blinkdb_queries_")
            || l.starts_with("blinkdb_sim_latency_seconds_p")
            || l.starts_with("blinkdb_queue_wait_seconds_p")
            || l.starts_with("blinkdb_audit_coverage")
            || l.starts_with("blinkdb_alerts_")
    }) {
        println!("  {line}");
    }
    println!(
        "\nfull scrape: {} lines; JSON export: {} bytes",
        scrape.lines().count(),
        service.render_json().len()
    );
}
