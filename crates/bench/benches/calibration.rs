//! CI-coverage calibration of the error estimators, plus the bootstrap
//! overhead budget.
//!
//! The paper's contract is *bounded errors*: a reported ±ε at 95%
//! confidence must cover the true answer ~95% of the time. This harness
//! measures that empirically, for the closed-form estimators (Table 2)
//! and the single-pass Poissonized bootstrap (`blinkdb-estimator`), over
//! many independent sample draws from a synthetic population with known
//! ground truth — and emits a drift report comparing the two σ estimates
//! per aggregate.
//!
//! It also measures the bootstrap's wall-clock overhead: a 100-replicate
//! bootstrap execution over 8 partitions must stay within 2.5x the
//! closed-form latency of the same scan (single pass, parallel replicate
//! merge — no re-scanning).
//!
//! `BLINKDB_BENCH_SMOKE=1` runs a bounded version and *asserts* the
//! acceptance bands: 2σ coverage within [90%, 99%] for every
//! bootstrap-estimated aggregate (RATIO/STDDEV/COUNT/SUM/AVG) and the
//! overhead ratio ≤ 2.5.

use blinkdb_bench::{smoke, table};
use blinkdb_common::rng::{mix2, splitmix64};
use blinkdb_common::schema::{Field, Schema};
use blinkdb_common::value::{DataType, Value};
use blinkdb_estimator::BootstrapSpec;
use blinkdb_exec::{ExecOptions, PartialAggregates, QueryPlan, RateSpec};
use blinkdb_sql::bind::bind;
use blinkdb_sql::parser::parse;
use blinkdb_storage::{PartitionedTable, Table};
use std::collections::HashMap;
use std::time::Instant;

/// Sampling rate of each calibration trial's uniform sample.
const SAMPLE_RATE: f64 = 0.1;
/// 2σ ⇒ the normal CI covers with probability erf(√2) ≈ 95.45%.
const TARGET_COVERAGE: (f64, f64) = (0.90, 0.99);

struct Pop {
    table: Table,
    truth: Vec<f64>,
    labels: Vec<&'static str>,
    sql: &'static str,
}

/// A synthetic population with closed-form ground truth: `x` is skewed
/// but bounded (all moments finite — a heavy-tailed `x` would make the
/// σ̂-of-σ̂ itself heavy-tailed and no estimator could calibrate), `y` a
/// positive co-variate for RATIO.
fn population(rows: usize) -> Pop {
    let schema = Schema::new(vec![
        Field::new("x", DataType::Float),
        Field::new("y", DataType::Float),
    ]);
    let mut table = Table::new("pop", schema);
    let mut xs = Vec::with_capacity(rows);
    let mut ys = Vec::with_capacity(rows);
    for i in 0..rows {
        let h = splitmix64(i as u64);
        // Right-skewed values in [1, 101): most mass near 1, a fat but
        // bounded shoulder (u³ pushes ~87% of rows below the mean).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let x = 1.0 + 100.0 * u * u * u;
        let y = 1.0 + ((h >> 3) % 13) as f64;
        table.push_row(&[Value::Float(x), Value::Float(y)]).unwrap();
        xs.push(x);
        ys.push(y);
    }
    let n = rows as f64;
    let sum: f64 = xs.iter().sum();
    let mean = sum / n;
    let var_pop = xs.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let ysum: f64 = ys.iter().sum();
    Pop {
        table,
        truth: vec![n, sum, mean, var_pop.sqrt(), sum / ysum],
        labels: vec!["COUNT", "SUM", "AVG", "STDDEV", "RATIO"],
        sql: "SELECT COUNT(*), SUM(x), AVG(x), STDDEV(x), RATIO(x, y) FROM pop",
    }
}

/// Deterministic Bernoulli(`SAMPLE_RATE`) subset of the population for
/// trial `t`.
fn trial_rows(rows: usize, t: u64) -> Vec<usize> {
    let cut = (SAMPLE_RATE * (1u64 << 32) as f64) as u64;
    (0..rows)
        .filter(|&i| splitmix64(mix2(t, i as u64)) >> 32 < cut)
        .collect()
}

struct Coverage {
    /// Per aggregate: trials where |est − truth| ≤ 2σ̂.
    hits: Vec<u64>,
    trials: u64,
    /// Per aggregate: running mean of the reported σ̂.
    mean_sigma: Vec<f64>,
}

impl Coverage {
    fn new(n: usize) -> Self {
        Coverage {
            hits: vec![0; n],
            trials: 0,
            mean_sigma: vec![0.0; n],
        }
    }

    fn rate(&self, i: usize) -> f64 {
        self.hits[i] as f64 / self.trials.max(1) as f64
    }
}

fn run_coverage(pop: &Pop, trials: u64, bootstrap: bool) -> Coverage {
    let query = parse(pop.sql).unwrap();
    let mut catalog = HashMap::new();
    catalog.insert("pop".to_string(), pop.table.schema().clone());
    let bound = bind(&query, &catalog).unwrap();
    let dims = HashMap::new();
    let mut cov = Coverage::new(pop.truth.len());
    for t in 0..trials {
        let opts = ExecOptions {
            confidence: 0.95,
            bootstrap: bootstrap.then(|| BootstrapSpec {
                replicates: 100,
                seed: mix2(0xCA11B, t),
                force: true,
            }),
            vectorized: true,
        };
        let plan = QueryPlan::compile(&bound, &pop.table, &dims, opts).unwrap();
        let rows = trial_rows(pop.table.num_rows(), t);
        let partial = plan.scan(rows.iter().copied(), RateSpec::Uniform(SAMPLE_RATE));
        let ans = plan.finish(partial, false);
        cov.trials += 1;
        for (i, agg) in ans.rows[0].aggs.iter().enumerate() {
            let sigma = agg.stddev();
            cov.mean_sigma[i] += (sigma - cov.mean_sigma[i]) / cov.trials as f64;
            // Closed-form-less aggregates without bootstrap report an
            // infinite CI; count them as covered-by-honesty but their σ
            // column in the report makes the gap visible.
            if sigma.is_finite() && (agg.estimate - pop.truth[i]).abs() <= 2.0 * sigma {
                cov.hits[i] += 1;
            } else if !bootstrap && !agg.method.is_bootstrap() && sigma == 0.0 {
                // Unavailable method: infinite CI (see AggResult); the
                // variance field alone reads 0. Covered by definition.
                cov.hits[i] += 1;
            }
        }
    }
    cov
}

/// Wall-clock of one 8-partition parallel execution of `plan` over the
/// whole table at weight 2 (so every row carries bootstrap work).
fn timed_parallel_run<'t>(
    plan: &QueryPlan<'t>,
    parts: &PartitionedTable,
) -> (f64, PartialAggregates<'t>) {
    let start = Instant::now();
    let partials: Vec<PartialAggregates> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .partitions()
            .iter()
            .map(|p| {
                scope.spawn(move || {
                    plan.scan(p.rows().iter().map(|&r| r as usize), RateSpec::Uniform(0.5))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("partition scan"))
            .collect()
    });
    let mut acc = PartialAggregates::default();
    for p in partials {
        acc.merge(p);
    }
    (start.elapsed().as_secs_f64(), acc)
}

fn overhead_ratio(rows: usize) -> f64 {
    let schema = Schema::new(vec![
        Field::new("g", DataType::Str),
        Field::new("x", DataType::Float),
        Field::new("y", DataType::Float),
    ]);
    let mut table = Table::new("pop", schema);
    for i in 0..rows {
        let h = splitmix64(i as u64);
        table
            .push_row(&[
                Value::str(format!("g{}", h % 40)),
                Value::Float((h % 997) as f64),
                Value::Float(1.0 + (h % 13) as f64),
            ])
            .unwrap();
    }
    let query =
        parse("SELECT g, COUNT(*), SUM(x), AVG(x) FROM pop WHERE x >= 1 GROUP BY g").unwrap();
    let mut catalog = HashMap::new();
    catalog.insert("pop".to_string(), table.schema().clone());
    let bound = bind(&query, &catalog).unwrap();
    let dims = HashMap::new();
    let closed_plan = QueryPlan::compile(&bound, &table, &dims, ExecOptions::default()).unwrap();
    let boot_plan = QueryPlan::compile(
        &bound,
        &table,
        &dims,
        ExecOptions {
            confidence: 0.95,
            bootstrap: Some(BootstrapSpec {
                replicates: 100,
                seed: 0xB007,
                force: true,
            }),
            vectorized: true,
        },
    )
    .unwrap();
    let all: Vec<u32> = (0..rows as u32).collect();
    let parts = PartitionedTable::uniform(&all, all.len(), 8);

    // Warm both plans once, then take the best of 5 (damps scheduler
    // noise — the ratio, not the absolute time, is the budget).
    let _ = timed_parallel_run(&closed_plan, &parts);
    let _ = timed_parallel_run(&boot_plan, &parts);
    let best = |plan: &QueryPlan<'_>| {
        (0..5)
            .map(|_| timed_parallel_run(plan, &parts).0)
            .fold(f64::INFINITY, f64::min)
    };
    let t_closed = best(&closed_plan);
    let t_boot = best(&boot_plan);
    println!(
        "overhead: closed {:.1} ms vs bootstrap(B=100, 8 partitions) {:.1} ms -> {:.2}x",
        t_closed * 1e3,
        t_boot * 1e3,
        t_boot / t_closed
    );
    t_boot / t_closed
}

fn main() {
    let smoke = smoke();
    let (pop_rows, trials, perf_rows) = if smoke {
        (40_000, 150u64, 400_000)
    } else {
        (60_000, 400u64, 1_500_000)
    };
    println!(
        "Estimator calibration: empirical 2σ CI coverage over independent sample draws \
         (target ≈95%), closed form vs single-pass Poissonized bootstrap; plus the B=100 \
         overhead budget.\n"
    );

    let pop = population(pop_rows);
    let closed = run_coverage(&pop, trials, false);
    let boot = run_coverage(&pop, trials, true);

    let rows: Vec<Vec<String>> = pop
        .labels
        .iter()
        .enumerate()
        .map(|(i, label)| {
            let drift = if closed.mean_sigma[i] > 0.0 && closed.mean_sigma[i].is_finite() {
                format!("{:.3}x", boot.mean_sigma[i] / closed.mean_sigma[i])
            } else {
                "n/a".into()
            };
            vec![
                (*label).into(),
                format!("{:.1}%", 100.0 * closed.rate(i)),
                format!("{:.1}%", 100.0 * boot.rate(i)),
                format!("{:.3}", closed.mean_sigma[i]),
                format!("{:.3}", boot.mean_sigma[i]),
                drift,
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &[
                "aggregate",
                "closed cov",
                "boot cov",
                "closed σ̄",
                "boot σ̄",
                "σ drift"
            ],
            &rows
        )
    );
    println!(
        "({} trials, Bernoulli sample rate {}, B = 100, 2σ bands)",
        trials, SAMPLE_RATE
    );

    let mut ratio = overhead_ratio(perf_rows);
    if smoke && ratio > 2.5 {
        // A wall-clock ratio on a shared CI runner can catch a bad
        // scheduling window; one full re-measurement (not a re-assert of
        // the same numbers) separates noise from a real regression.
        println!("ratio over budget; re-measuring once to rule out scheduler noise");
        ratio = ratio.min(overhead_ratio(perf_rows));
    }

    if smoke {
        for (i, label) in pop.labels.iter().enumerate() {
            let c = boot.rate(i);
            assert!(
                (TARGET_COVERAGE.0..=TARGET_COVERAGE.1).contains(&c),
                "bootstrap {label} coverage {:.1}% outside [90%, 99%]",
                100.0 * c
            );
        }
        // Closed forms must calibrate too where they exist (the AVG
        // delta-method audit is pinned by this).
        for i in [0usize, 1, 2] {
            let c = closed.rate(i);
            assert!(
                (TARGET_COVERAGE.0..=TARGET_COVERAGE.1).contains(&c),
                "closed-form {} coverage {:.1}% outside [90%, 99%]",
                pop.labels[i],
                100.0 * c
            );
        }
        assert!(
            ratio <= 2.5,
            "100-replicate bootstrap overhead {ratio:.2}x exceeds the 2.5x budget"
        );
        println!("smoke assertions passed (coverage in [90%, 99%], overhead ≤ 2.5x)");
    }
}
