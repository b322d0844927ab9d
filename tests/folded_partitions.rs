//! Rows folded into the uniform family after its build are dealt across
//! partitions in arrival order, round-robin — not in blocks.
//!
//! The uniform family's build region is one shuffle, so a contiguous
//! block of it is a uniform random subset and partitions take blocks of
//! it. `fold_uniform` appends rows in arrival order, where a block would
//! be a time slice: under drift, a partition prefix — what an
//! early-terminated query scans — would hold only the oldest batches and
//! extrapolate them to the whole table. This test folds drifted batches
//! into a uniform family and checks that every partition holds its
//! proportional share of the appended rows and that early-terminated
//! `ERROR WITHIN` answers meet their bound against the truth.

use blinkdb_common::schema::{Field, Schema};
use blinkdb_common::value::{DataType, Value};
use blinkdb_core::{BlinkDb, BlinkDbConfig, ExecPolicy};
use blinkdb_storage::Table;

const BASE_ROWS: usize = 20_000;
const BATCHES: usize = 8;
const BATCH_ROWS: usize = 5_000;
const K: usize = 100;

/// `x` of row `i` in batch `b` (batch 0 is the base table): the level
/// shifts by 10 per batch, with a little spread within each batch.
fn x(b: usize, i: usize) -> f64 {
    (10 * b) as f64 + (i % 7) as f64
}

/// A uniform-only database whose family has folded `BATCHES` drifted
/// batches, plus every `x` in the fact table.
fn folded_db() -> (BlinkDb, Vec<f64>) {
    let schema = Schema::new(vec![Field::new("x", DataType::Float)]);
    let mut t = Table::new("s", schema);
    let mut all = Vec::new();
    for i in 0..BASE_ROWS {
        t.push_row(&[Value::Float(x(0, i))]).unwrap();
        all.push(x(0, i));
    }
    let mut cfg = BlinkDbConfig::default();
    cfg.cluster.jitter = 0.0;
    cfg.uniform.cap = 0.1;
    cfg.uniform.resolutions = 2;
    cfg.uniform.shrink = 10.0;
    cfg.seed = 35;
    let mut db = BlinkDb::new(t, cfg);
    for b in 1..=BATCHES {
        let batch: Vec<Vec<Value>> = (0..BATCH_ROWS)
            .map(|i| vec![Value::Float(x(b, i))])
            .collect();
        all.extend((0..BATCH_ROWS).map(|i| x(b, i)));
        let range = db.append_rows(&batch).unwrap();
        db.fold_family(0, range, 100 + b as u64).unwrap();
    }
    (db, all)
}

#[test]
fn every_partition_holds_its_share_of_the_appended_rows() {
    let (db, _) = folded_db();
    let family = &db.families()[0];
    assert!(family.is_uniform());
    let idx = family.largest();
    let parts = family.partitioned(idx, K);
    assert_eq!(parts.num_partitions(), K);
    let appended = |row: u32| family.source_row(row as usize) as usize >= BASE_ROWS;
    let per_partition: Vec<usize> = parts
        .partitions()
        .iter()
        .map(|p| p.rows().iter().filter(|&&r| appended(r)).count())
        .collect();
    let total: usize = per_partition.iter().sum();
    assert!(
        total > BATCHES * BATCH_ROWS / 20,
        "the folds must append a real tail, got {total} rows"
    );
    for (p, &n) in per_partition.iter().enumerate() {
        assert!(
            (total / K..=total.div_ceil(K)).contains(&n),
            "partition {p} holds {n} of {total} appended rows"
        );
    }
}

#[test]
fn early_terminated_answers_meet_their_bound_under_drift() {
    let (db, all) = folded_db();
    let truth_sum: f64 = all.iter().sum();
    let truth_count = all.iter().filter(|&&v| v >= 45.0).count() as f64;
    let policy = ExecPolicy {
        partitions: K,
        parallelism: 1,
        early_termination: true,
        ..ExecPolicy::default()
    };
    for (sql, truth) in [
        ("SELECT SUM(x) FROM s", truth_sum),
        ("SELECT COUNT(*) FROM s WHERE x >= 45", truth_count),
    ] {
        let mut fired = 0;
        for eps_pct in [3.0f64, 4.0, 5.0, 6.0, 8.0, 10.0] {
            let sql = format!("{sql} ERROR WITHIN {eps_pct}% AT CONFIDENCE 95%");
            let q = blinkdb_sql::parse(&sql).unwrap();
            let (ans, _) = db.query_parsed_with(&q, None, Some(policy)).unwrap();
            if ans.partitions_scanned == ans.partitions_total {
                continue;
            }
            fired += 1;
            let est = ans.answer.rows[0].aggs[0].estimate;
            let err = (est - truth).abs() / truth;
            assert!(
                err <= eps_pct / 100.0,
                "{sql}: estimate {est} is {:.1}% from the truth {truth} after {} of {} partitions",
                err * 100.0,
                ans.partitions_scanned,
                ans.partitions_total
            );
        }
        assert!(fired > 0, "{sql}: no bound in the sweep terminated early");
    }
}
