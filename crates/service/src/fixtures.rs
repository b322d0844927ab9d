//! Fixtures shared by the inline tests of the service modules.

use crate::{QueryService, ServiceConfig};
use blinkdb_common::schema::{Field, Schema};
use blinkdb_common::value::{DataType, Value};
use blinkdb_core::{BlinkDb, BlinkDbConfig};
use blinkdb_sql::template::{ColumnSet, WeightedTemplate};
use blinkdb_storage::Table;
use std::sync::Arc;

pub(crate) fn fixture_db(rows: usize) -> Arc<BlinkDb> {
    let schema = Schema::new(vec![
        Field::new("city", DataType::Str),
        Field::new("os", DataType::Str),
        Field::new("t", DataType::Float),
    ]);
    let mut table = Table::new("sessions", schema);
    for i in 0..rows {
        table
            .push_row(&[
                Value::str(format!("city{}", i % 31)),
                Value::str(["win", "mac", "linux"][i % 3]),
                Value::Float((i % 127) as f64),
            ])
            .unwrap();
    }
    // Pretend the table is TB-scale so scan times are macroscopic
    // and resolution choices actually trade latency for error.
    table.set_logical_scale(20_000.0, 1_000);
    let mut cfg = BlinkDbConfig::default();
    cfg.cluster.jitter = 0.0;
    cfg.stratified.cap = 120.0;
    cfg.stratified.resolutions = 3;
    cfg.uniform.resolutions = 4;
    cfg.optimizer.cap = 120.0;
    let mut db = BlinkDb::new(table, cfg);
    db.create_samples(
        &[WeightedTemplate {
            columns: ColumnSet::from_names(["city"]),
            weight: 1.0,
        }],
        0.5,
    )
    .unwrap();
    Arc::new(db)
}

pub(crate) fn service(rows: usize, cfg: ServiceConfig) -> QueryService {
    QueryService::new(fixture_db(rows), cfg)
}

/// Builds an *owned* fixture instance (for `with_ingest`).
pub(crate) fn fixture_db_owned(rows: usize) -> BlinkDb {
    Arc::try_unwrap(fixture_db(rows)).unwrap_or_else(|arc| (*arc).clone())
}

pub(crate) fn city_rows(city: &str, n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| {
            vec![
                Value::str(city),
                Value::str(["win", "mac", "linux"][i % 3]),
                Value::Float((i % 127) as f64),
            ]
        })
        .collect()
}
