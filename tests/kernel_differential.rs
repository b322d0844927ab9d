//! Differential harness pinning the vectorized columnar scan kernel
//! bit-identical to the row-at-a-time scalar oracle.
//!
//! Three layers of comparison, each on exact bits (`f64::to_bits` of
//! estimates, variances, and confidence half-widths; `Value` equality
//! of group keys; exact row counters):
//!
//! * `execute()` end to end on proptest-generated Conviva-shaped tables
//!   (NULLs in every column type, dictionary strings with skewed
//!   strata) across an aggregate mix — COUNT/SUM/AVG/STDDEV/RATIO/
//!   QUANTILE, GROUP BY on and off — with bootstrap off and at B=100.
//! * partitioned fan-out: the table split into K contiguous `RowSet`
//!   slices, each scanned and merged, kernel vs scalar.
//! * the full `BlinkDb` pipeline (stratified samples, partitioned
//!   `execute_final` with early termination armed) with the scan path
//!   toggled by [`ExecPolicy::scalar_scan`], K ∈ {1, 2, 4, 8}.

use blinkdb_common::schema::{Field, Schema};
use blinkdb_common::value::{DataType, Value};
use blinkdb_core::{BlinkDb, BlinkDbConfig, ExecPolicy};
use blinkdb_estimator::BootstrapSpec;
use blinkdb_exec::{execute, ExecOptions, PartialAggregates, QueryAnswer, QueryPlan, RateSpec};
use blinkdb_sql::bind::{bind, BoundQuery};
use blinkdb_storage::{RowSet, Table, TableRef};
use blinkdb_workload::conviva::conviva_dataset;
use blinkdb_workload::queries::{query_mix, BoundSpec};
use proptest::prelude::*;
use std::collections::HashMap;

/// The aggregate/predicate mix the differential properties cycle
/// through. Every kernel leaf shape appears: bool columns, numeric
/// compares on int and float columns (both NULL-bearing), BETWEEN, IN
/// with and without NULL literals, dictionary-string equality under
/// NOT, compound AND/OR, plus GROUP BY off, on a dictionary column, a
/// NULL-bearing bool column and a narrow int column (dense paths), on an
/// int column with NULLs, negatives and outliers that outgrow the dense
/// window mid-scan, and on a (Str, Bool) pair (hash path).
const QUERIES: [&str; 12] = [
    "SELECT COUNT(*) FROM t",
    "SELECT COUNT(*), SUM(x), AVG(x) FROM t WHERE n < 25",
    "SELECT city, COUNT(*), AVG(x) FROM t WHERE ended = true GROUP BY city",
    "SELECT city, SUM(n), STDDEV(x) FROM t WHERE x > -10 OR n IN (1, 2, 3) GROUP BY city",
    "SELECT MEDIAN(x), RATIO(x, n) FROM t WHERE NOT city = 'SF'",
    "SELECT city, ended, COUNT(*), MEDIAN(x) FROM t WHERE n BETWEEN 5 AND 40 GROUP BY city, ended",
    "SELECT QUANTILE(x, 0.9), STDDEV(n) FROM t WHERE n NOT IN (7, NULL) OR ended = false",
    "SELECT city, RATIO(x, n) FROM t WHERE x != NULL OR n >= 30 GROUP BY city",
    "SELECT ended, COUNT(*), STDDEV(x) FROM t WHERE n > 3 GROUP BY ended",
    "SELECT n, COUNT(*), MEDIAN(x) FROM t WHERE city != 'city5' GROUP BY n",
    "SELECT m, COUNT(*), AVG(x) FROM t GROUP BY m",
    "SELECT m, SUM(n), RATIO(x, n) FROM t WHERE m < 1000 OR ended = true GROUP BY m",
];

/// Builds a Conviva-shaped table from proptest-drawn row tuples:
/// a skewed dictionary column with NULLs, a NULL-bearing float, a
/// dense int, a NULL-bearing bool, and a second int `m` — NULLs,
/// negatives, and a few values far outside any dense window.
fn build_table(rows: &[(u8, i64, u32, u8)]) -> Table {
    let schema = Schema::new(vec![
        Field::new("city", DataType::Str),
        Field::new("n", DataType::Int),
        Field::new("x", DataType::Float),
        Field::new("ended", DataType::Bool),
        Field::new("m", DataType::Int),
    ]);
    let mut t = Table::new("t", schema);
    for &(c, n, v, flag) in rows {
        // Codes 0..=3 collapse onto "SF" for a heavy stratum; 7 is NULL.
        let city = match c {
            7 => Value::Null,
            0..=3 => Value::str("SF"),
            other => Value::str(format!("city{other}")),
        };
        let x = if v % 13 == 0 {
            Value::Null
        } else {
            Value::Float(v as f64 * 0.25 - 31.0)
        };
        let ended = match flag {
            3 => Value::Null,
            f => Value::Bool(f % 2 == 0),
        };
        let m = match v % 17 {
            0 => Value::Null,
            1 => Value::Int(100_000 + n),
            _ => Value::Int(n - 25),
        };
        t.push_row(&[city, Value::Int(n), x, ended, m]).unwrap();
    }
    t
}

fn bind_query(sql: &str, t: &Table) -> BoundQuery {
    let q = blinkdb_sql::parse(sql).unwrap();
    let mut catalog = HashMap::new();
    catalog.insert("t".to_string(), t.schema().clone());
    bind(&q, &catalog).unwrap()
}

/// Renders every bit that must match between the two scan paths: row
/// counters, group keys, and per-aggregate estimate/variance/CI bits.
fn fingerprint(ans: &QueryAnswer) -> Vec<String> {
    let mut out = vec![format!(
        "scanned={} matched={}",
        ans.rows_scanned, ans.rows_matched
    )];
    for row in &ans.rows {
        let aggs: Vec<String> = row
            .aggs
            .iter()
            .map(|a| {
                format!(
                    "e={:016x} v={:016x} ci={:016x} n={} exact={}",
                    a.estimate.to_bits(),
                    a.variance.to_bits(),
                    a.ci_half_width(ans.confidence).to_bits(),
                    a.rows_used,
                    a.exact
                )
            })
            .collect();
        out.push(format!("{:?} | {}", row.group, aggs.join(" ; ")));
    }
    out
}

fn opts(vectorized: bool, bootstrap: Option<BootstrapSpec>) -> ExecOptions {
    ExecOptions {
        confidence: 0.95,
        bootstrap,
        vectorized,
    }
}

fn bootstrap_for(b: u32, seed: u64) -> Option<BootstrapSpec> {
    (b > 0).then_some(BootstrapSpec {
        replicates: b,
        seed,
        force: true,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `execute()` end to end: kernel == scalar on every bit, for every
    /// query in the mix, at B=0 and B=100, on exact and uniform rates.
    #[test]
    fn kernel_matches_scalar_end_to_end(
        rows in prop::collection::vec((0u8..8, 0i64..50, 0u32..1000, 0u8..4), 40..300),
        qi in 0usize..QUERIES.len(),
        b in 0u8..2,
        tenths in 1u64..10,
        seed in 0u64..1_000_000,
    ) {
        let t = build_table(&rows);
        let bq = bind_query(QUERIES[qi], &t);
        let dims = HashMap::new();
        let boot = bootstrap_for(if b == 1 { 100 } else { 0 }, seed);
        for rates in [RateSpec::Exact, RateSpec::Uniform(tenths as f64 / 10.0)] {
            let kernel = execute(&bq, TableRef::full(&t), rates, &dims,
                opts(true, boot)).unwrap();
            let scalar = execute(&bq, TableRef::full(&t), rates, &dims,
                opts(false, boot)).unwrap();
            prop_assert_eq!(fingerprint(&kernel), fingerprint(&scalar),
                "query {:?} rates {:?} B={:?}", QUERIES[qi], rates, boot);
        }
    }

    /// Partitioned fan-out: splitting the scan into K `RowSet::Rows`
    /// slices and merging the partials is bit-identical kernel vs
    /// scalar — the merge sees identical per-partition bits — and so is
    /// any mix of the two in one merge (the kernel's dense partials
    /// meeting the oracle's hashed ones of the same plan).
    #[test]
    fn partitioned_kernel_matches_partitioned_scalar(
        rows in prop::collection::vec((0u8..8, 0i64..50, 0u32..1000, 0u8..4), 40..300),
        qi in 0usize..QUERIES.len(),
        k in 1usize..9,
        b in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let t = build_table(&rows);
        let bq = bind_query(QUERIES[qi], &t);
        let dims = HashMap::new();
        let boot = bootstrap_for(if b == 1 { 100 } else { 0 }, seed);
        let rates = RateSpec::Uniform(0.5);

        let plan_v = QueryPlan::compile(&bq, &t, &dims, opts(true, boot)).unwrap();
        let plan_s = QueryPlan::compile(&bq, &t, &dims, opts(false, boot)).unwrap();
        prop_assert!(plan_v.uses_kernel());
        prop_assert!(!plan_s.uses_kernel());

        let ids: Vec<u32> = (0..t.num_rows() as u32).collect();
        let run = |plan: &QueryPlan, oracle_every: usize| {
            let mut acc = PartialAggregates::default();
            for (i, part) in ids.chunks(t.num_rows().div_ceil(k)).enumerate() {
                acc.merge(if i % oracle_every == oracle_every - 1 {
                    plan.scan(part.iter().map(|&r| r as usize), rates)
                } else {
                    plan.scan_set(RowSet::Rows(part), rates)
                });
            }
            plan.finish(acc, false)
        };
        let scalar = fingerprint(&run(&plan_s, usize::MAX));
        prop_assert_eq!(&fingerprint(&run(&plan_v, usize::MAX)), &scalar,
            "query {:?} K={} B={:?}", QUERIES[qi], k, boot);
        for oracle_every in [1, 2, 3] {
            prop_assert_eq!(&fingerprint(&run(&plan_v, oracle_every)), &scalar,
                "query {:?} K={} B={:?} oracle every {}", QUERIES[qi], k, boot, oracle_every);
        }
    }
}

/// The full pipeline leg: stratified samples, partitioned
/// `execute_final` with early termination armed, K ∈ {1, 2, 4, 8}. The
/// kernel must reproduce the scalar path's bits exactly — including
/// the early-termination decisions, which depend on per-wave error
/// bounds and so would diverge on any numeric drift.
#[test]
fn execute_final_early_termination_matches_scalar_across_fanout() {
    let dataset = conviva_dataset(20_000, 2013);
    let mut cfg = BlinkDbConfig::default();
    cfg.cluster.jitter = 0.0;
    cfg.stratified.cap = 150.0;
    cfg.stratified.resolutions = 3;
    cfg.uniform.cap = 0.2;
    cfg.uniform.resolutions = 3;
    cfg.optimizer.cap = 150.0;
    cfg.seed = 2013;
    let mut db = BlinkDb::new(dataset.table.clone(), cfg);
    db.create_samples(&dataset.templates, 0.5)
        .expect("sample creation");

    let specs = query_mix(
        &dataset.table,
        &dataset.templates,
        "sessiontimems",
        6,
        BoundSpec::Error {
            pct: 10.0,
            conf: 95.0,
        },
        7,
    );
    let policy = |k: usize, scalar_scan: bool| ExecPolicy {
        partitions: k,
        parallelism: 4,
        early_termination: true,
        scalar_scan,
        ..ExecPolicy::default()
    };
    let mut compared = 0usize;
    for spec in &specs {
        let q = blinkdb_sql::parse(&spec.sql).expect("generated SQL parses");
        for k in [1usize, 2, 4, 8] {
            let (kernel, _) = db
                .query_parsed_with(&q, None, Some(policy(k, false)))
                .unwrap();
            let (scalar, _) = db
                .query_parsed_with(&q, None, Some(policy(k, true)))
                .unwrap();
            assert_eq!(
                fingerprint(&kernel.answer),
                fingerprint(&scalar.answer),
                "{} at K={k}",
                spec.sql
            );
            assert_eq!(
                kernel.partitions_scanned, scalar.partitions_scanned,
                "{} at K={k}: early termination must stop at the same wave",
                spec.sql
            );
            compared += 1;
        }
    }
    assert!(compared >= 24, "the mix must exercise real comparisons");
}
