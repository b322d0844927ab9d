//! The traced run: per-layer metrics of one workload's deployment.
//!
//! Every number here is measured from outside, around calls into a
//! layer's public functions, on the workload's own table, sample
//! configuration, query list and batches. The same probes run for every
//! workload, so each of the 62 metrics has the same definition on all
//! four; what differs is the data they run on.

use crate::inputs::{self, Contract, Sizes, Workload, Q};
use crate::json::{obj, Json};
use crate::report::{Report, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::{median, Samples};
use crate::workloads::{
    dashboard_config, dashboard_loop, direct_loop, durability, ingest_config, ingest_loop, Limit,
    LoopStats, RunArgs, Scratch, DASHBOARD_CLIENTS,
};
use blinkdb_cluster::{simulate_job, SimJob};
use blinkdb_common::rng::derive_seed;
use blinkdb_common::Value;
use blinkdb_core::{BlinkDb, CheckpointState, Compactor, CompactorConfig, ExecPolicy, Maintainer};
use blinkdb_estimator::{fill_multipliers, AvgAgg, BootstrapSpec, Replicates};
use blinkdb_exec::{ExecOptions, PartialAggregates, QueryPlan, RateSpec};
use blinkdb_service::{IngestConfig, QueryService};
use blinkdb_sql::bind::bind;
use blinkdb_storage::{RowSet, StorageTier, Table};
use blinkdb_telemetry::{AttrValue, Histogram, SpanKind};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One `benches/scan_throughput.rs` aggregate mix and the metrics it
/// feeds: rows/s at B = 0, and (where the mix has one) the B = 100 /
/// B = 0 scan-time ratio.
struct ScanMix {
    sql: &'static str,
    mrows_metric: &'static str,
    b100_metric: Option<&'static str>,
}

/// Predicate-heavy to quantile-heavy. `exec.scan_gb_s.filter_count`
/// comes from the first.
const SCAN_MIXES: [ScanMix; 4] = [
    ScanMix {
        sql: "SELECT COUNT(*) FROM sessions WHERE sessiontimems < 60000 AND endedflag = true",
        mrows_metric: "exec.scan_mrows_s.filter_count",
        b100_metric: None,
    },
    ScanMix {
        sql: "SELECT dma, COUNT(*), AVG(sessiontimems) FROM sessions \
              WHERE bitratekbps >= 1500 GROUP BY dma",
        mrows_metric: "exec.scan_mrows_s.grouped_avg",
        b100_metric: Some("estimator.b100_overhead_x.grouped_avg"),
    },
    ScanMix {
        sql: "SELECT SUM(bufferingms), STDDEV(sessiontimems) FROM sessions \
              WHERE dt BETWEEN 5 AND 20 AND genre != 'genre3'",
        mrows_metric: "exec.scan_mrows_s.compound_sum",
        b100_metric: Some("estimator.b100_overhead_x.compound_sum"),
    },
    ScanMix {
        sql: "SELECT MEDIAN(sessiontimems), RATIO(bufferingms, sessiontimems) \
              FROM sessions WHERE country = 'ctry1'",
        mrows_metric: "exec.scan_mrows_s.quantile_ratio",
        b100_metric: None,
    },
];

/// Runs `f` in a span and returns its result with the elapsed µs.
fn timed<R>(
    rec: &mut Recorder,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let t0 = Instant::now();
    let out = rec.span(name, request, |_| f());
    (out, t0.elapsed().as_secs_f64() * 1e6)
}

fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Share `frac` of the run's seconds, or a fixed small count at smoke
/// shape.
fn phase(args: &RunArgs, frac: f64, smoke_ops: usize) -> Limit {
    Limit::window(args.seconds * frac, args.smoke.then_some(smoke_ops))
}

/// Per-query timings of the decomposed pipeline, µs.
#[derive(Default)]
struct Decomposed {
    parse: Vec<f64>,
    bind: Vec<f64>,
    canonical: Vec<f64>,
    full: Vec<f64>,
    hinted: Vec<f64>,
    plan: Vec<f64>,
    fanout: Vec<f64>,
    traced: Vec<f64>,
    compile: Vec<f64>,
    partition: Vec<f64>,
    scan: Vec<f64>,
    merge: Vec<f64>,
    finish: Vec<f64>,
    /// Wall time of the query each `scan` entry belongs to.
    scan_wall: Vec<f64>,
    probes: Vec<f64>,
    probe_rows: Vec<f64>,
    rows_read: Vec<f64>,
    sim_s: Vec<f64>,
    failed: u64,
}

/// Runs the first queries of `list` through the pipeline piece by piece:
/// parse → bind → canonical keys → full query → hinted query → hinted at
/// one partition → the same under `ExecPolicy::trace` → and, for the
/// family and resolution the answer names, compile → partition → scan
/// of every partition → merge → finish.
fn decompose(db: &BlinkDb, list: &[Q], limit: Limit, rec: &mut Recorder) -> Decomposed {
    let mut d = Decomposed::default();
    let policy = db.config().exec;
    let serial = ExecPolicy {
        partitions: 1,
        ..policy
    };
    let tracing = ExecPolicy {
        trace: true,
        ..policy
    };
    let dims: HashMap<String, &Table> = HashMap::new();
    let mut i = 0usize;
    while limit.open(i) && i < list.len() {
        let q = &list[i];
        let id = i as u64;
        i += 1;
        let (parsed, parse_us) = timed(rec, "sql.parse", id, || blinkdb_sql::parse(&q.sql));
        let Ok(parsed) = parsed else {
            d.failed += 1;
            continue;
        };
        let (bound, bind_us) = timed(rec, "sql.bind", id, || bind(&parsed, &db.catalog()));
        let Ok(bound) = bound else {
            d.failed += 1;
            continue;
        };
        let (_, canonical_us) = timed(rec, "sql.canonical", id, || {
            black_box((
                blinkdb_sql::template_key(&parsed),
                blinkdb_sql::result_key(&parsed),
            ))
        });
        let (full, full_us) = timed(rec, "core.query_full", id, || {
            db.query_parsed_with(&parsed, None, None)
        });
        let Ok((answer, profile)) = full else {
            d.failed += 1;
            continue;
        };
        d.parse.push(parse_us);
        d.bind.push(bind_us);
        d.canonical.push(canonical_us);
        d.full.push(full_us);
        d.sim_s.push(answer.elapsed_s);

        // Hinted runs need the profile a full run observed (disjunctive
        // queries have none); the one-partition variant needs a profile
        // fitted at that width.
        if let Some(profile) = profile {
            let (hinted, hinted_us) = timed(rec, "core.query_hinted", id, || {
                db.query_parsed_with(&parsed, Some(&profile), None)
            });
            if hinted.is_ok() {
                d.hinted.push(hinted_us);
                d.plan.push(full_us - hinted_us);
                if let Ok((_, Some(p1))) = db.query_parsed_with(&parsed, None, Some(serial)) {
                    let (one, one_us) = timed(rec, "core.query_hinted_p1", id, || {
                        db.query_parsed_with(&parsed, Some(&p1), Some(serial))
                    });
                    if one.is_ok() {
                        d.fanout.push(hinted_us - one_us);
                    }
                }
            }
        }

        let (traced, traced_us) = timed(rec, "core.query_traced", id, || {
            db.query_parsed_with(&parsed, None, Some(tracing))
        });
        if let Ok((traced, _)) = traced {
            d.traced.push(traced_us);
            d.rows_read.push(traced.rows_read as f64);
            if let Some(trace) = &traced.trace {
                let probes = trace.spans(SpanKind::Probe);
                d.probes.push(probes.len() as f64);
                d.probe_rows.push(
                    probes
                        .iter()
                        .map(|p| match p.get_attr("rows_scanned") {
                            Some(AttrValue::U64(n)) => *n as f64,
                            _ => 0.0,
                        })
                        .sum(),
                );
            }
        }

        // The final execution, rebuilt from the layers' own functions.
        let Some(family) = db.families().iter().find(|f| f.label() == answer.family) else {
            continue;
        };
        let Some(resolution) = (0..family.num_resolutions())
            .find(|&r| family.resolution(r).cap == answer.resolution_cap)
        else {
            continue;
        };
        let replicates = policy.query_replicates(&parsed);
        let opts = ExecOptions {
            confidence: db.config().default_confidence,
            bootstrap: (replicates > 0).then_some(BootstrapSpec {
                replicates,
                seed: derive_seed(db.config().seed, db.epoch().get()),
                force: false,
            }),
            vectorized: true,
        };
        let (_, rates) = family.view(resolution);
        let k = policy.effective_partitions(db.config().cluster.num_nodes);
        rec.span("exec.final", id, |rec| {
            let (plan, compile_us) = timed(rec, "exec.compile", id, || {
                QueryPlan::compile(&bound, family.table(), &dims, opts)
            });
            let Ok(plan) = plan else {
                return;
            };
            let (parts, partition_us) = timed(rec, "storage.partition", id, || {
                family.partitioned(resolution, k)
            });
            // Partitions are scanned one after another on this thread:
            // the span is kernel time alone. What `core` adds by fanning
            // the same scans out over scoped threads is `core.fanout_us`.
            let (partials, scan_us) = timed(rec, "exec.scan", id, || {
                parts
                    .partitions()
                    .iter()
                    .map(|p| plan.scan_set(RowSet::Rows(p.rows()), rates))
                    .collect::<Vec<_>>()
            });
            let (acc, merge_us) = timed(rec, "exec.merge", id, || {
                let mut acc = PartialAggregates::default();
                for p in partials {
                    acc.merge(p);
                }
                acc
            });
            let (finished, finish_us) = timed(rec, "exec.finish", id, || {
                plan.finish(acc, matches!(rates, RateSpec::Exact))
            });
            black_box(finished);
            d.compile.push(compile_us);
            d.partition.push(partition_us);
            d.scan.push(scan_us);
            d.merge.push(merge_us);
            d.finish.push(finish_us);
            d.scan_wall.push(parse_us + full_us);
        });
    }
    d
}

/// `sql`, `core` (query side), `exec` per-query, `storage.partition_us`,
/// `cluster`, `telemetry.trace_overhead_frac`, `bench.unattributed_frac`.
/// Returns `core.hinted_us`, which `service.overhead_us` is taken against.
fn query_layers(
    db: &BlinkDb,
    list: &[Q],
    args: &RunArgs,
    rec: &mut Recorder,
    report: &mut Report,
) -> f64 {
    let d = decompose(db, list, phase(args, 0.30, 12), rec);
    report.attempted += d.full.len() as u64 + d.failed;
    report.failed += d.failed;
    let n = d.full.len();
    report.put_n("sql.parse_us", median(&d.parse), n);
    report.put_n("sql.bind_us", median(&d.bind), n);
    report.put_n("sql.canonical_us", median(&d.canonical), n);
    report.put_n("core.plan_us", median(&d.plan), d.plan.len());
    report.put_n("core.hinted_us", median(&d.hinted), d.hinted.len());
    report.put_n("core.fanout_us", median(&d.fanout), d.fanout.len());
    report.put("core.probes_per_query", median(&d.probes));
    report.put("core.probe_rows_per_query", median(&d.probe_rows));
    report.put("core.rows_read_per_query", median(&d.rows_read));
    let (read, probed): (f64, f64) = (d.rows_read.iter().sum(), d.probe_rows.iter().sum());
    report.put("core.useful_row_frac", read / (read + probed).max(1.0));
    report.put("core.sim_elapsed_s_p50", median(&d.sim_s));
    report.put_n(
        "storage.partition_us",
        median(&d.partition),
        d.partition.len(),
    );
    report.put_n("exec.compile_us", median(&d.compile), d.compile.len());
    report.put_n("exec.merge_us", median(&d.merge), d.merge.len());
    report.put_n("exec.finish_us", median(&d.finish), d.finish.len());
    // Kernel time over query time, time-weighted. A query's scan counts
    // for at most its own wall time: where `core` answered from the ELP
    // probe and never ran the final fan-out, the scan re-enacted here
    // can outlast the real query.
    let scan_share = d
        .scan
        .iter()
        .zip(&d.scan_wall)
        .map(|(scan, wall)| scan.min(*wall))
        .sum::<f64>()
        / d.scan_wall.iter().sum::<f64>().max(1e-9);
    report.put_n("exec.scan_share", scan_share, d.scan.len());

    // One simulated job of the shape every final scan prices.
    let cfg = db.config();
    let job = SimJob::fanout(
        1_000.0,
        cfg.cluster.num_nodes,
        &cfg.cluster,
        StorageTier::Memory,
    )
    .with_shuffle(0.01);
    let calls = 2_000u64;
    let t0 = Instant::now();
    for seed in 0..calls {
        black_box(simulate_job(&cfg.cluster, &cfg.engine, &job, seed));
    }
    let simulate_us = us_since(t0) / calls as f64;
    report.put_n("cluster.simulate_job_us", simulate_us, calls as usize);
    report.put(
        "cluster.sim_to_wall_x",
        d.sim_s.iter().sum::<f64>() / (d.full.iter().sum::<f64>() / 1e6).max(1e-9),
    );
    report.put(
        "telemetry.trace_overhead_frac",
        median(&d.traced) / median(&d.full) - 1.0,
    );

    // Query wall = parse + plan + hinted; the hinted part is what the
    // leaf spans above re-enact, with the scan split over the threads the
    // policy would use. What they do not cover — thread fan-out above
    // all — is unattributed.
    let width = {
        let policy = db.config().exec;
        let k = policy.effective_partitions(db.config().cluster.num_nodes);
        policy.effective_parallelism(k) as f64
    };
    let wall: Vec<f64> = d.parse.iter().zip(&d.full).map(|(p, f)| p + f).collect();
    let explained = median(&d.parse)
        + median(&d.bind)
        + median(&d.plan)
        + median(&d.compile)
        + median(&d.partition)
        + median(&d.scan) / width
        + median(&d.merge)
        + median(&d.finish)
        + simulate_us;
    report.put("bench.unattributed_frac", 1.0 - explained / median(&wall));
    if args.workload == Workload::HeavyScan && !args.smoke {
        report.check(scan_share >= 0.6, || {
            format!("heavy_scan exec.scan_share {scan_share:.3} below 0.6")
        });
    }
    median(&d.hinted)
}

/// Best-of-`reps` seconds of one full-table `scan_set`.
fn best_scan_s(plan: &QueryPlan<'_>, rows: usize, reps: usize) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let partial = plan.scan_set(RowSet::Range(0..rows), RateSpec::Uniform(0.5));
            black_box(partial.rows_scanned);
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// `exec.scan_*` and `estimator.*`: kernels on the workload's table.
fn kernel_layers(table: &Table, report: &mut Report) {
    let rows = table.num_rows();
    let catalog = HashMap::from([(table.name().to_ascii_lowercase(), table.schema().clone())]);
    let dims: HashMap<String, &Table> = HashMap::new();
    let row_bytes = inputs::columnar_row_bytes(table) as f64;
    for (i, mix) in SCAN_MIXES.iter().enumerate() {
        let parsed = blinkdb_sql::parse(mix.sql).expect("scan mix parses");
        let bound = bind(&parsed, &catalog).expect("scan mix binds");
        let compile = |replicates: u32| {
            let bootstrap = (replicates > 0).then_some(BootstrapSpec {
                replicates,
                seed: 2013,
                force: true,
            });
            QueryPlan::compile(
                &bound,
                table,
                &dims,
                ExecOptions {
                    confidence: 0.95,
                    bootstrap,
                    vectorized: true,
                },
            )
            .expect("scan mix compiles")
        };
        let plain_s = best_scan_s(&compile(0), rows, 3);
        report.put(mix.mrows_metric, rows as f64 / plain_s / 1e6);
        if i == 0 {
            report.put(
                "exec.scan_gb_s.filter_count",
                rows as f64 * row_bytes / 1e9 / plain_s,
            );
        }
        if let Some(metric) = mix.b100_metric {
            report.put(metric, best_scan_s(&compile(100), rows, 3) / plain_s);
        }
    }

    let n = 200_000u64;
    let mut mults = [0.0f64; 100];
    let t0 = Instant::now();
    for row in 0..n {
        fill_multipliers(2013, row, 0.7, &mut mults);
        black_box(&mults);
    }
    report.put_n(
        "estimator.fill_multipliers_ns_per_row",
        us_since(t0) * 1e3 / n as f64,
        n as usize,
    );
    let mut replicates = Replicates::new(
        Arc::new(AvgAgg),
        BootstrapSpec {
            replicates: 100,
            seed: 2013,
            force: true,
        },
    );
    let t0 = Instant::now();
    for row in 0..n {
        replicates.observe(black_box(row as f64), 1.0, 2.0, &mults);
    }
    black_box(replicates.variance());
    report.put_n(
        "estimator.observe_ns_per_row",
        us_since(t0) * 1e3 / n as f64,
        n as usize,
    );
}

/// `core` maintenance, `storage` and the `persist` codec, on a private
/// clone of the instance and the workload's own batches.
fn maintenance_layers(
    db: &BlinkDb,
    pool: &[Vec<Vec<Value>>],
    scratch: &Scratch,
    report: &mut Report,
) {
    let mut clone_ms = Vec::new();
    let mut work = None;
    for _ in 0..3 {
        drop(work.take());
        let t0 = Instant::now();
        work = Some(db.clone());
        clone_ms.push(us_since(t0) / 1e3);
    }
    let mut work = work.expect("cloned");
    report.put_n("core.clone_ms", median(&clone_ms), clone_ms.len());

    // Checkpoint cost is defined against a committed baseline: what one
    // more batch adds to it.
    let dir = scratch.dir("checkpoint");
    let mut state = CheckpointState::default();
    work.save_incremental(&dir, &[], true, &mut state)
        .expect("baseline checkpoint in scratch");
    let mut maintainer = Maintainer::new(IngestConfig::default().drift_threshold);
    let (mut append_us_per_row, mut fold_ms) = (Vec::new(), Vec::new());
    let batches = pool.len().min(4);
    for (i, batch) in pool.iter().take(batches).enumerate() {
        let t0 = Instant::now();
        let range = work.append_rows(batch).expect("generated batch appends");
        append_us_per_row.push(us_since(t0) / batch.len() as f64);
        let t0 = Instant::now();
        maintainer
            .fold_or_refresh(&mut work, range)
            .expect("fold or refresh");
        fold_ms.push(us_since(t0) / 1e3);
        if i == 0 {
            let t0 = Instant::now();
            let saved = work
                .save_incremental(&dir, &[], true, &mut state)
                .expect("incremental checkpoint");
            report.put("core.checkpoint_ms", us_since(t0) / 1e3);
            report.put("core.checkpoint_bytes", saved.bytes_written as f64);
        }
    }
    report.put_n(
        "core.append_rows_us_per_row",
        median(&append_us_per_row),
        batches,
    );
    report.put_n("core.fold_ms_per_batch", median(&fold_ms), batches);
    // With `batches` sealed segments behind it, the tick has a run to
    // look at (and merges it when the run reaches the default minimum).
    let compactor = Compactor::new(CompactorConfig::default());
    let t0 = Instant::now();
    black_box(compactor.tick(&mut work, &[]));
    report.put("core.compaction_tick_us", us_since(t0));
    let t0 = Instant::now();
    let opened = BlinkDb::open(&dir).expect("open the checkpoint just written");
    report.put("core.open_ms", us_since(t0) / 1e3);
    drop(opened);
    drop(work);

    let batch = &pool[0];
    let mut table = Table::new("pushed", db.fact().schema().clone());
    let t0 = Instant::now();
    for row in batch {
        table.push_row(row).expect("generated row matches schema");
    }
    report.put_n(
        "storage.push_rows_per_s",
        batch.len() as f64 / t0.elapsed().as_secs_f64(),
        batch.len(),
    );
    let sample_bytes: f64 = db.families().iter().map(|f| f.storage_bytes()).sum();
    report.put(
        "storage.sample_bytes_per_fact_byte",
        sample_bytes / db.fact().logical_bytes(),
    );

    let encode_us: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(blinkdb_persist::encode_batch(batch));
            us_since(t0) / batch.len() as f64
        })
        .collect();
    report.put_n("persist.encode_batch_us_per_row", median(&encode_us), 5);
    let wal_path = scratch.dir("replay.wal");
    let mut wal = blinkdb_persist::Wal::open(&wal_path, false).expect("wal in scratch");
    let payload = blinkdb_persist::encode_batch(batch);
    for _ in 0..8 {
        wal.append(&payload).expect("wal append");
    }
    drop(wal);
    let t0 = Instant::now();
    let replay = blinkdb_persist::replay_wal(&wal_path).expect("replay the wal just written");
    report.put_n(
        "persist.replay_ms",
        us_since(t0) / 1e3,
        replay.records.len(),
    );
}

/// `service.*` admission, cache and queue metrics: the dashboard's
/// closed loop over (up to) the first 1 024 queries of the list.
fn service_layers(
    db: &Arc<BlinkDb>,
    list: &[Q],
    hinted_us: f64,
    args: &RunArgs,
    rec: &mut Recorder,
    report: &mut Report,
) {
    let population = &list[..list.len().min(1_024)];
    let svc = QueryService::new(Arc::clone(db), dashboard_config());
    let stats = dashboard_loop(
        &svc,
        population,
        DASHBOARD_CLIENTS,
        derive_seed(args.seed, 3),
        phase(args, 0.15, 120),
        rec,
    );
    count_into(report, &stats);
    let of = |pick: &dyn Fn(&crate::workloads::Served) -> Option<f64>| {
        Samples::new(stats.served.iter().filter_map(pick).collect())
    };
    let submit = of(&|s| Some(s.submit_us));
    let hit = of(&|s| s.from_cache.then_some(s.latency_ms * 1e3));
    let miss = of(&|s| (!s.from_cache).then_some(s.latency_ms * 1e3));
    let wait = of(&|s| (!s.from_cache).then_some(s.queue_wait_us));
    report.put_n("service.submit_us", submit.median(), submit.n());
    report.put_n("service.hit_us", hit.median(), hit.n());
    report.put_n("service.miss_us", miss.median(), miss.n());
    report.put("service.overhead_us", miss.median() - hinted_us);
    report.put_n("service.queue_wait_us_p50", wait.median(), wait.n());
    let tail = wait.tail(0.99);
    report.put_n("service.queue_wait_us_p99", tail.value, tail.n);
    if tail.used != tail.wanted {
        report.notes.push(format!(
            "service.queue_wait_us_p99 reports p{:.0} (n={})",
            tail.used * 100.0,
            tail.n
        ));
    }
    let m = svc.metrics();
    report.put("service.result_cache_hit_rate", m.result_cache_hit_rate);
    report.put("service.elp_cache_hit_rate", m.elp_cache_hit_rate);
    report.put(
        "service.rejected",
        (m.rejected_unsatisfiable + m.rejected_queue_full) as f64,
    );
    report.put("service.degraded", m.degraded as f64);
    report.put("service.deadline_misses", m.deadline_misses as f64);
}

/// `service.flush_*`, `stall`, `recover` and the in-situ `persist.wal_*`
/// numbers: a short durable-ingest window beside one reader.
fn ingest_layers(
    db: &BlinkDb,
    list: &[Q],
    pool: &[Vec<Vec<Value>>],
    args: &RunArgs,
    scratch: &Scratch,
    rec: &mut Recorder,
    report: &mut Report,
) {
    // The cheapest plan's response time grows with the table, so tight
    // time bounds turn unsatisfiable mid-ingest; the reader skips them.
    let readable: Vec<Q> = list
        .iter()
        .filter(|q| !matches!(q.contract, Contract::Seconds(t) if t < 5.0))
        .cloned()
        .collect();
    let dir = scratch.dir("durable");
    let loaded_user_bytes = inputs::table_user_bytes(db.fact());
    let svc = QueryService::with_ingest_durable(
        db.clone(),
        ingest_config(),
        IngestConfig::default(),
        durability(&dir),
    )
    .expect("durable service starts in the scratch directory");
    let (w, reader) = ingest_loop(
        &svc,
        &dir,
        &readable,
        pool,
        loaded_user_bytes,
        phase(args, 0.25, 3),
        rec,
    );
    count_into(report, &reader);
    report.attempted += w.batches;
    report.failed += w.errors;
    let flush = Samples::new(w.flush_ms.clone());
    report.put_n("service.flush_ms_p50", flush.median(), flush.n());
    report.put_n("service.flush_ms_max", flush.max(), flush.n());
    let reads = Samples::new(reader.latency_ms.clone());
    report.put_n("service.stall_ms_max", reads.max(), reads.n());
    let m = svc.metrics();
    let registry = svc.telemetry();
    let append_s = registry.histogram("blinkdb_wal_append_seconds").mean();
    let fsync_s = registry.histogram("blinkdb_wal_fsync_seconds").mean();
    report.put_n(
        "persist.wal_append_us",
        (append_s - fsync_s) * 1e6,
        m.wal_appends as usize,
    );
    report.put_n(
        "persist.wal_fsync_us",
        fsync_s * 1e6,
        m.wal_appends as usize,
    );
    report.put(
        "persist.wal_bytes_per_user_byte",
        m.wal_bytes as f64 / w.acked_user_bytes.max(1) as f64,
    );
    report.put(
        "persist.flushes",
        (m.wal_appends + m.snapshots_written) as f64,
    );
    drop(svc);
    let t0 = Instant::now();
    let recovered =
        QueryService::recover(ingest_config(), IngestConfig::default(), durability(&dir));
    report.put("service.recover_ms", us_since(t0) / 1e3);
    report.check(recovered.is_ok(), || {
        "recovery of the ingest probe failed".into()
    });
}

fn count_into(report: &mut Report, stats: &LoopStats) {
    report.attempted += stats.attempted;
    report.failed += stats.failed;
    for e in &stats.errors {
        report.notes.push(format!("failed: {e}"));
    }
}

/// Runs one workload traced: every per-layer metric, plus the span
/// document for `trace_<workload>.json`.
pub fn run(args: &RunArgs) -> (Report, Json) {
    let sizes = Sizes::of(args.workload, args.smoke);
    let scratch = Scratch::new(&args.out);
    let mut report = Report::default();
    let mut rec = Recorder::new(true, Instant::now());

    let (db, create_samples_s) = inputs::build_db(args.workload, &sizes, args.seed);
    report.put("core.create_samples_s", create_samples_s);
    let list = inputs::queries(args.workload, &db, &sizes, args.seed);
    let pool = inputs::batches(&sizes, args.seed);

    // Span overhead: alternating blocks of the direct loop with spans off
    // and on, over the same stretch of the list. Blocks alternate because
    // wake-up cost in this VM drifts over seconds; two long passes one
    // after the other measure the drift, not the spans.
    let mut off = Recorder::disabled();
    // (The dashboard's own warm-up count is sized for cache hits.)
    direct_loop(&db, &list, 0, Limit::ops(sizes.warmup.min(50)), &mut off);
    let (mut plain_ms, mut spanned_ms) = (Vec::new(), Vec::new());
    let window = phase(args, 0.20, 40);
    let block = 10;
    let mut done = 0;
    while window.open(done) {
        let plain = direct_loop(&db, &list, done, Limit::ops(block), &mut off);
        let spanned = direct_loop(&db, &list, done, Limit::ops(block), &mut rec);
        count_into(&mut report, &plain);
        count_into(&mut report, &spanned);
        plain_ms.extend(plain.latency_ms);
        spanned_ms.extend(spanned.latency_ms);
        done += 2 * block;
    }
    report.put_n(
        "telemetry.bench_span_overhead_frac",
        median(&spanned_ms) / median(&plain_ms) - 1.0,
        plain_ms.len(),
    );
    let histogram = Histogram::new();
    let n = 1_000_000u64;
    let t0 = Instant::now();
    for i in 0..n {
        histogram.observe(black_box(i as f64 * 1e-6));
    }
    report.put_n(
        "telemetry.observe_ns",
        us_since(t0) * 1e3 / n as f64,
        n as usize,
    );

    let hinted_us = query_layers(&db, &list, args, &mut rec, &mut report);
    kernel_layers(db.fact(), &mut report);
    maintenance_layers(&db, &pool, &scratch, &mut report);
    ingest_layers(&db, &list, &pool, args, &scratch, &mut rec, &mut report);
    let db = Arc::new(db);
    service_layers(&db, &list, hinted_us, args, &mut rec, &mut report);

    report.check_against(&PER_LAYER);
    let trace = obj([
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::Num(args.seed as f64)),
        ("trace", rec.to_json()),
    ]);
    (report, trace)
}
