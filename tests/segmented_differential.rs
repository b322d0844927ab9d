//! Differential harness pinning the segmented storage lifecycle
//! answer-invariant: a store whose segments are sealed, compacted into
//! higher generations, and whose sample families are demoted/paged-in
//! by a background [`Compactor`] must answer **bit-identically** to a
//! store with the same ingest history and none of the lifecycle churn.
//!
//! Two legs, both comparing on exact bits (`f64::to_bits` of estimates,
//! variances, and confidence half-widths; `Value` equality of group
//! keys; exact row and partition counters) at fan-out K ∈ {1, 4, 8}:
//!
//! * a proptest over generated tables, ingest batch schedules, and
//!   lifecycle schedules (merge, budget-capped merge, demote-all,
//!   demote-cold-with-hot-set, page-in-all) interleaved between folds —
//!   compared at **every epoch**, not just the last;
//! * a deterministic Conviva-shaped leg driving the ERROR-bound query
//!   mix against a quiesced twin while the live store compacts and
//!   demotes mid-stream (the ISSUE 8 acceptance shape).
//!
//! `WITHIN t SECONDS` bounds are deliberately absent: demoting a family
//! changes its simulated scan pricing, which may *legitimately* move a
//! time-bounded resolution choice. Unbounded and `ERROR WITHIN` queries
//! select resolutions from the error law alone, so any divergence is a
//! real lifecycle bug.

use blinkdb_common::schema::{Field, Schema};
use blinkdb_common::value::{DataType, Value};
use blinkdb_core::{
    ApproxAnswer, BlinkDb, BlinkDbConfig, Compactor, CompactorConfig, ExecPolicy, Maintainer,
};
use blinkdb_sql::template::{ColumnSet, WeightedTemplate};
use blinkdb_storage::Table;
use blinkdb_workload::conviva::conviva_dataset;
use blinkdb_workload::queries::{query_mix, BoundSpec};
use proptest::prelude::*;

/// Unbounded and ERROR-bound only — see the module docs for why
/// `WITHIN` is excluded.
const QUERIES: [&str; 6] = [
    "SELECT COUNT(*) FROM t",
    "SELECT COUNT(*), SUM(x), AVG(x) FROM t WHERE n < 25",
    "SELECT city, COUNT(*), AVG(x) FROM t GROUP BY city",
    "SELECT SUM(x), STDDEV(x) FROM t WHERE city = 'SF' ERROR WITHIN 10% AT CONFIDENCE 95%",
    "SELECT city, SUM(n) FROM t WHERE x > -10 GROUP BY city ERROR WITHIN 15% AT CONFIDENCE 95%",
    "SELECT MEDIAN(x), RATIO(x, n) FROM t WHERE NOT city = 'SF'",
];

fn build_table(rows: &[(u8, i64, u32)]) -> Table {
    let schema = Schema::new(vec![
        Field::new("city", DataType::Str),
        Field::new("n", DataType::Int),
        Field::new("x", DataType::Float),
    ]);
    let mut t = Table::new("t", schema);
    for &(c, n, v) in rows {
        t.push_row(&row(c, n, v)).unwrap();
    }
    t
}

/// One Conviva-shaped row: skewed dictionary city (codes 0..=3 collapse
/// onto "SF", 7 is NULL), dense int, NULL-bearing float.
fn row(c: u8, n: i64, v: u32) -> Vec<Value> {
    let city = match c {
        7 => Value::Null,
        0..=3 => Value::str("SF"),
        other => Value::str(format!("city{other}")),
    };
    let x = if v.is_multiple_of(13) {
        Value::Null
    } else {
        Value::Float(v as f64 * 0.25 - 31.0)
    };
    vec![city, Value::Int(n), x]
}

fn mk_db(t: Table) -> BlinkDb {
    let mut cfg = BlinkDbConfig::default();
    cfg.cluster.jitter = 0.0;
    cfg.stratified.cap = 60.0;
    cfg.stratified.resolutions = 2;
    cfg.uniform.cap = 0.4;
    cfg.uniform.resolutions = 2;
    cfg.optimizer.cap = 60.0;
    cfg.seed = 2013;
    let mut db = BlinkDb::new(t, cfg);
    db.create_samples(
        &[WeightedTemplate {
            columns: ColumnSet::from_names(["city"]),
            weight: 1.0,
        }],
        0.8,
    )
    .expect("sample creation");
    db
}

/// Every bit that must match between the quiesced and lifecycle-churned
/// stores: group keys, estimate/variance/CI bits, row counters, the
/// family and resolution chosen, and the early-termination fan-out.
fn fingerprint(ans: &ApproxAnswer) -> Vec<String> {
    let mut out = vec![format!(
        "family={} cap={:016x} read={} scanned={}/{} rows={}+{}",
        ans.family,
        ans.resolution_cap.to_bits(),
        ans.rows_read,
        ans.partitions_scanned,
        ans.partitions_total,
        ans.answer.rows_scanned,
        ans.answer.rows_matched,
    )];
    for r in &ans.answer.rows {
        let aggs: Vec<String> = r
            .aggs
            .iter()
            .map(|a| {
                format!(
                    "e={:016x} v={:016x} ci={:016x} n={}",
                    a.estimate.to_bits(),
                    a.variance.to_bits(),
                    a.ci_half_width(ans.answer.confidence).to_bits(),
                    a.rows_used,
                )
            })
            .collect();
        out.push(format!("{:?} | {}", r.group, aggs.join(" ; ")));
    }
    out
}

fn policy(k: usize) -> ExecPolicy {
    ExecPolicy {
        partitions: k,
        parallelism: 2,
        early_termination: true,
        ..ExecPolicy::default()
    }
}

/// Applies one drawn lifecycle op to the churned store. Ops never touch
/// the quiesced twin: they must all be answer-invariant.
fn lifecycle_op(db: &mut BlinkDb, op: u8) {
    let nfams = db.families().len();
    match op {
        0 => {}
        // Plain tiering merge, everything hot.
        1 => {
            let hot: Vec<usize> = (0..nfams).collect();
            Compactor::new(CompactorConfig {
                min_run: 2,
                ..CompactorConfig::default()
            })
            .tick(db, &hot);
        }
        // Budget-capped merge: small max_segment_rows exercises the
        // minimum-viable-pair truncation.
        2 => {
            let hot: Vec<usize> = (0..nfams).collect();
            Compactor::new(CompactorConfig {
                min_run: 2,
                max_segment_rows: 64,
                ..CompactorConfig::default()
            })
            .tick(db, &hot);
        }
        // Demote everything (empty hot set).
        3 => {
            Compactor::new(CompactorConfig {
                min_run: 2,
                demote_cold: true,
                ..CompactorConfig::default()
            })
            .tick(db, &[]);
        }
        // Demote cold, keep family 0 hot (pages it back in if a prior
        // op demoted it).
        4 => {
            Compactor::new(CompactorConfig {
                min_run: 2,
                demote_cold: true,
                ..CompactorConfig::default()
            })
            .tick(db, &[0]);
        }
        _ => db.page_in_all(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Segmented lifecycle == quiesced twin, bit for bit, at every
    /// epoch of a generated ingest/seal/compact/demote schedule.
    #[test]
    fn lifecycle_churn_never_perturbs_answers(
        initial in prop::collection::vec((0u8..8, 0i64..50, 0u32..1000), 100..250),
        batches in prop::collection::vec(
            prop::collection::vec((0u8..8, 0i64..50, 0u32..1000), 1..15), 1..5),
        ops in prop::collection::vec(0u8..6, 5),
        qi in 0usize..QUERIES.len(),
    ) {
        let table = build_table(&initial);
        let mut quiesced = mk_db(table.clone());
        let mut churned = mk_db(table);
        let mut mq = Maintainer::new(0.05);
        let mut mc = Maintainer::new(0.05);
        let q = blinkdb_sql::parse(QUERIES[qi]).unwrap();

        for (i, batch) in batches.iter().enumerate() {
            let rows: Vec<Vec<Value>> =
                batch.iter().map(|&(c, n, v)| row(c, n, v)).collect();
            let ra = quiesced.append_rows(&rows).unwrap();
            mq.fold_or_refresh(&mut quiesced, ra.clone()).unwrap();
            let rb = churned.append_rows(&rows).unwrap();
            prop_assert_eq!(&ra, &rb, "same ingest history, same row ranges");
            let sealed = churned.segments().segments().last().cloned().unwrap();
            mc.fold_or_refresh(&mut churned, sealed.rows).unwrap();

            lifecycle_op(&mut churned, ops[i]);
            prop_assert_eq!(quiesced.epoch(), churned.epoch(),
                "lifecycle ops must not advance the epoch");

            for k in [1usize, 4, 8] {
                let (a, _) = quiesced
                    .query_parsed_with(&q, None, Some(policy(k))).unwrap();
                let (b, _) = churned
                    .query_parsed_with(&q, None, Some(policy(k))).unwrap();
                prop_assert_eq!(fingerprint(&a), fingerprint(&b),
                    "{} at K={} after batch {} (op {})",
                    QUERIES[qi], k, i, ops[i]);
            }
        }
        // The schedule must have been able to change the segment cover:
        // the churned store's cover differs from the quiesced one's
        // whenever a merge ran, yet every answer above matched.
        prop_assert_eq!(
            quiesced.segments().sealed_rows(),
            churned.segments().sealed_rows()
        );
    }
}

/// The acceptance shape: answers during live compaction/demotion are
/// bit-identical to a quiesced store at the same epoch, on the
/// Conviva-shaped ERROR-bound query mix, K ∈ {1, 4, 8}.
#[test]
fn live_compaction_matches_quiesced_store_on_the_error_bound_mix() {
    // Draw 8 240 Conviva rows; the first 8 000 are the initial fact,
    // the rest arrive as six streamed batches of 40.
    let dataset = conviva_dataset(8_240, 2013);
    let ncols = dataset.table.schema().len();
    let pull = |r: usize| -> Vec<Value> { (0..ncols).map(|c| dataset.table.value(r, c)).collect() };
    let mut initial = Table::new(dataset.table.name(), dataset.table.schema().clone());
    initial.set_logical_scale(
        dataset.table.logical_rows_per_row(),
        dataset.table.row_bytes(),
    );
    for r in 0..8_000 {
        initial.push_row(&pull(r)).unwrap();
    }
    let mut cfg = BlinkDbConfig::default();
    cfg.cluster.jitter = 0.0;
    cfg.stratified.cap = 150.0;
    cfg.stratified.resolutions = 3;
    cfg.uniform.cap = 0.2;
    cfg.uniform.resolutions = 3;
    cfg.optimizer.cap = 150.0;
    cfg.seed = 2013;
    let mut quiesced = BlinkDb::new(initial.clone(), cfg);
    quiesced
        .create_samples(&dataset.templates, 0.5)
        .expect("sample creation");
    let mut live = BlinkDb::new(initial, cfg);
    live.create_samples(&dataset.templates, 0.5)
        .expect("sample creation");

    // Stream six batches into both; the live store compacts with a
    // demote-cold policy between batches, the quiesced one never does.
    let mut mq = Maintainer::new(0.05);
    let mut ml = Maintainer::new(0.05);
    let compactor = Compactor::new(CompactorConfig {
        min_run: 2,
        demote_cold: true,
        ..CompactorConfig::default()
    });
    let mut merges = 0usize;
    for b in 0..6usize {
        let rows: Vec<Vec<Value>> = (0..40).map(|i| pull(8_000 + b * 40 + i)).collect();
        let r = quiesced.append_rows(&rows).unwrap();
        mq.fold_or_refresh(&mut quiesced, r).unwrap();
        let r = live.append_rows(&rows).unwrap();
        ml.fold_or_refresh(&mut live, r).unwrap();
        let report = compactor.tick(&mut live, &[b % 2]);
        if report.merged.is_some() {
            merges += 1;
        }
    }
    assert!(merges > 0, "the live store must actually compact");
    assert!(
        live.segments().segments().len() < quiesced.segments().segments().len(),
        "compaction must have shrunk the live store's segment cover"
    );
    assert_eq!(quiesced.epoch(), live.epoch());

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
    let mut compared = 0usize;
    for spec in &specs {
        let q = blinkdb_sql::parse(&spec.sql).expect("generated SQL parses");
        for k in [1usize, 4, 8] {
            let (a, _) = quiesced
                .query_parsed_with(&q, None, Some(policy(k)))
                .unwrap();
            let (b, _) = live.query_parsed_with(&q, None, Some(policy(k))).unwrap();
            assert_eq!(fingerprint(&a), fingerprint(&b), "{} at K={k}", spec.sql);
            compared += 1;
        }
    }
    assert!(compared >= 18, "the mix must exercise real comparisons");
}
