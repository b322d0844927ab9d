//! Instantiating query templates into concrete SQL.
//!
//! §2.1: templates fix the WHERE/GROUP BY *columns*; the constants vary
//! per query. We instantiate constants by sampling actual rows of the
//! generated table, so predicates always select something and their
//! selectivity follows the data's skew (frequent values give bulk
//! queries, rare values give selective ones — the two Fig. 8(c) suites).

use blinkdb_common::rng::seeded;
use blinkdb_common::value::Value;
use blinkdb_sql::template::{ColumnSet, WeightedTemplate};
use blinkdb_storage::Table;
use rand::rngs::StdRng;
use rand::Rng;

/// The bound to attach to generated queries.
#[derive(Debug, Clone, Copy)]
pub enum BoundSpec {
    /// No bound clause.
    None,
    /// `ERROR WITHIN pct% AT CONFIDENCE conf%`.
    Error {
        /// Relative error bound in percent.
        pct: f64,
        /// Confidence in percent.
        conf: f64,
    },
    /// `WITHIN seconds SECONDS`.
    Time {
        /// Time bound in seconds.
        seconds: f64,
    },
}

impl BoundSpec {
    fn render(&self) -> String {
        match self {
            BoundSpec::None => String::new(),
            BoundSpec::Error { pct, conf } => {
                format!(" ERROR WITHIN {pct}% AT CONFIDENCE {conf}%")
            }
            BoundSpec::Time { seconds } => format!(" WITHIN {seconds} SECONDS"),
        }
    }
}

/// A generated query with its provenance.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// The SQL text.
    pub sql: String,
    /// The template it instantiates.
    pub template: ColumnSet,
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        other => other.to_string(),
    }
}

/// Instantiates one template against `table`.
///
/// The template's columns become equality predicates with constants
/// drawn from a random row (so the predicate is always satisfiable);
/// when the template has more than one column, the last (sorted) column
/// becomes a GROUP BY instead. The aggregate is `AVG(agg_col)` plus
/// `COUNT(*)`.
pub fn instantiate(
    table: &Table,
    template: &ColumnSet,
    agg_col: &str,
    bound: BoundSpec,
    rng: &mut StdRng,
) -> QuerySpec {
    let cols: Vec<&str> = template.iter().collect();
    let row = rng.random_range(0..table.num_rows().max(1));
    // Multi-column templates put their lowest-cardinality column in
    // GROUP BY (dashboards group by coarse dimensions — day, country,
    // OS — and filter on fine ones); very fine columns (>64 groups)
    // stay as predicates.
    let group_by: Option<&str> = if cols.len() > 1 {
        cols.iter()
            .map(|&c| {
                let idx = table.schema().index_of(c).expect("template column exists");
                (table.column(idx).distinct_count(), c)
            })
            .filter(|&(d, _)| d <= 64)
            .min_by_key(|&(d, _)| d)
            .map(|(_, c)| c)
    } else {
        None
    };
    let mut predicates: Vec<String> = Vec::new();
    for &c in &cols {
        if Some(c) == group_by {
            continue;
        }
        let idx = table.schema().index_of(c).expect("template column exists");
        let v = table.value(row, idx);
        predicates.push(format!("{c} = {}", render_value(&v)));
    }
    let mut sql = format!("SELECT COUNT(*), AVG({agg_col}) FROM {}", table.name());
    if !predicates.is_empty() {
        sql.push_str(&format!(" WHERE {}", predicates.join(" AND ")));
    }
    if let Some(g) = group_by {
        sql.push_str(&format!(" GROUP BY {g}"));
    }
    sql.push_str(&bound.render());
    QuerySpec {
        sql,
        template: template.clone(),
    }
}

/// Draws `n` queries from the weighted template mix (the ad-hoc workload
/// of §6.3/§6.4).
pub fn query_mix(
    table: &Table,
    templates: &[WeightedTemplate],
    agg_col: &str,
    n: usize,
    bound: BoundSpec,
    seed: u64,
) -> Vec<QuerySpec> {
    let mut rng = seeded(seed);
    let total: f64 = templates.iter().map(|t| t.weight).sum();
    (0..n)
        .map(|_| {
            let mut pick = rng.random::<f64>() * total;
            let mut chosen = &templates[0];
            for t in templates {
                pick -= t.weight;
                if pick <= 0.0 {
                    chosen = t;
                    break;
                }
            }
            instantiate(table, &chosen.columns, agg_col, bound, &mut rng)
        })
        .collect()
}

/// The *selective* suite of Fig. 8(c): equality on **rare** values of a
/// skewed column, touching a small fraction of the data.
pub fn selective_suite(
    table: &Table,
    skewed_col: &str,
    agg_col: &str,
    n: usize,
    bound: BoundSpec,
    seed: u64,
) -> Vec<QuerySpec> {
    let mut rng = seeded(seed);
    let idx = table.schema().index_of(skewed_col).expect("column exists");
    let freqs = table.group_frequencies(&[idx]);
    let mut by_freq: Vec<(&Vec<Value>, &u64)> = freqs.iter().collect();
    // Ties in frequency break by value: the map's iteration order differs
    // from run to run, and the suite must not.
    by_freq.sort_by(|(ka, fa), (kb, fb)| {
        fa.cmp(fb)
            .then_with(|| ka[0].sql_cmp(&kb[0]).unwrap_or(std::cmp::Ordering::Equal))
    });
    // Rare half, excluding singletons (which would be trivially exact).
    let rare: Vec<&Vec<Value>> = by_freq
        .iter()
        .filter(|(_, &f)| f >= 2)
        .take((by_freq.len() / 2).max(1))
        .map(|(k, _)| *k)
        .collect();
    (0..n)
        .map(|_| {
            let key = rare[rng.random_range(0..rare.len())];
            let sql = format!(
                "SELECT COUNT(*), AVG({agg_col}) FROM {} WHERE {skewed_col} = {}{}",
                table.name(),
                render_value(&key[0]),
                bound.render()
            );
            QuerySpec {
                sql,
                template: ColumnSet::from_names([skewed_col]),
            }
        })
        .collect()
}

/// A suite of generalized-aggregate queries (`STDDEV`, `RATIO`) whose
/// error bars only the bootstrap estimator can bound — the
/// scenario-diversity workload the calibration and serving tiers
/// exercise. Predicates come from actual row values of `skewed_col`, so
/// selectivity follows the data's skew like the Fig. 8(c) suites.
pub fn bootstrap_suite(
    table: &Table,
    skewed_col: &str,
    num_col: &str,
    den_col: &str,
    n: usize,
    bound: BoundSpec,
    seed: u64,
) -> Vec<QuerySpec> {
    let mut rng = seeded(seed);
    let idx = table.schema().index_of(skewed_col).expect("column exists");
    (0..n)
        .map(|i| {
            let row = rng.random_range(0..table.num_rows().max(1));
            let v = render_value(&table.value(row, idx));
            let agg = if i % 2 == 0 {
                format!("STDDEV({num_col})")
            } else {
                format!("RATIO({num_col}, {den_col})")
            };
            QuerySpec {
                sql: format!(
                    "SELECT {agg} FROM {} WHERE {skewed_col} = {v}{}",
                    table.name(),
                    bound.render()
                ),
                template: ColumnSet::from_names([skewed_col]),
            }
        })
        .collect()
}

/// The *bulk* suite of Fig. 8(c): range predicates selecting most rows.
pub fn bulk_suite(
    table: &Table,
    numeric_col: &str,
    agg_col: &str,
    n: usize,
    bound: BoundSpec,
    seed: u64,
) -> Vec<QuerySpec> {
    let mut rng = seeded(seed);
    (0..n)
        .map(|_| {
            // A low threshold keeps most rows.
            let threshold = rng.random_range(1..=3);
            let sql = format!(
                "SELECT COUNT(*), AVG({agg_col}) FROM {} WHERE {numeric_col} >= {threshold}{}",
                table.name(),
                bound.render()
            );
            QuerySpec {
                sql,
                template: ColumnSet::from_names([numeric_col]),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conviva::conviva_dataset;

    #[test]
    fn instantiated_queries_parse_and_bind() {
        let d = conviva_dataset(2_000, 1);
        let mut catalog = std::collections::HashMap::new();
        catalog.insert("sessions".to_string(), d.table.schema().clone());
        let qs = query_mix(
            &d.table,
            &d.templates,
            "sessiontimems",
            25,
            BoundSpec::Error {
                pct: 10.0,
                conf: 95.0,
            },
            9,
        );
        assert_eq!(qs.len(), 25);
        for q in &qs {
            let parsed = blinkdb_sql::parse(&q.sql).unwrap_or_else(|e| {
                panic!("query failed to parse: {} — {e}", q.sql);
            });
            blinkdb_sql::bind::bind(&parsed, &catalog)
                .unwrap_or_else(|e| panic!("bind failed: {} — {e}", q.sql));
        }
    }

    #[test]
    fn bootstrap_suite_parses_and_mixes_aggregates() {
        let d = conviva_dataset(2_000, 4);
        let mut catalog = std::collections::HashMap::new();
        catalog.insert("sessions".to_string(), d.table.schema().clone());
        let qs = bootstrap_suite(
            &d.table,
            "city",
            "sessiontimems",
            "bufferingms",
            10,
            BoundSpec::Time { seconds: 10.0 },
            7,
        );
        assert_eq!(qs.len(), 10);
        assert!(qs.iter().any(|q| q.sql.contains("STDDEV(")));
        assert!(qs.iter().any(|q| q.sql.contains("RATIO(")));
        for q in &qs {
            let parsed = blinkdb_sql::parse(&q.sql)
                .unwrap_or_else(|e| panic!("parse failed: {} — {e}", q.sql));
            blinkdb_sql::bind::bind(&parsed, &catalog)
                .unwrap_or_else(|e| panic!("bind failed: {} — {e}", q.sql));
        }
    }

    #[test]
    fn multi_column_templates_group_by_last() {
        let d = conviva_dataset(2_000, 2);
        let mut rng = seeded(0);
        let t = ColumnSet::from_names(["dt", "country"]);
        let q = instantiate(&d.table, &t, "sessiontimems", BoundSpec::None, &mut rng);
        assert!(q.sql.contains("WHERE country = "));
        assert!(q.sql.contains("GROUP BY dt"));
    }

    #[test]
    fn bounds_render() {
        let d = conviva_dataset(500, 3);
        let mut rng = seeded(0);
        let t = ColumnSet::from_names(["os"]);
        let q = instantiate(
            &d.table,
            &t,
            "sessiontimems",
            BoundSpec::Time { seconds: 5.0 },
            &mut rng,
        );
        assert!(q.sql.ends_with("WITHIN 5 SECONDS"));
        let q = instantiate(
            &d.table,
            &t,
            "sessiontimems",
            BoundSpec::Error {
                pct: 2.0,
                conf: 99.0,
            },
            &mut rng,
        );
        assert!(q.sql.contains("ERROR WITHIN 2% AT CONFIDENCE 99%"));
    }

    #[test]
    fn selective_suite_is_the_same_for_the_same_seed() {
        let d = conviva_dataset(20_000, 4);
        let suite = || -> Vec<String> {
            selective_suite(&d.table, "city", "sessiontimems", 16, BoundSpec::None, 1)
                .into_iter()
                .map(|q| q.sql)
                .collect()
        };
        let first = suite();
        for _ in 0..8 {
            assert_eq!(suite(), first);
        }
    }

    #[test]
    fn selective_suite_is_selective_and_bulk_is_not() {
        let d = conviva_dataset(20_000, 4);
        let sel = selective_suite(&d.table, "city", "sessiontimems", 5, BoundSpec::None, 1);
        let blk = bulk_suite(&d.table, "dt", "sessiontimems", 5, BoundSpec::None, 1);
        let selectivity = |sql: &str| {
            let q = blinkdb_sql::parse(sql).unwrap();
            let mut catalog = std::collections::HashMap::new();
            catalog.insert("sessions".to_string(), d.table.schema().clone());
            let b = blinkdb_sql::bind::bind(&q, &catalog).unwrap();
            let ans = blinkdb_exec::execute(
                &b,
                blinkdb_storage::TableRef::full(&d.table),
                blinkdb_exec::RateSpec::Exact,
                &std::collections::HashMap::new(),
                blinkdb_exec::ExecOptions::default(),
            )
            .unwrap();
            ans.selectivity()
        };
        for q in &sel {
            assert!(
                selectivity(&q.sql) < 0.05,
                "selective query too broad: {}",
                q.sql
            );
        }
        for q in &blk {
            assert!(
                selectivity(&q.sql) > 0.5,
                "bulk query too narrow: {}",
                q.sql
            );
        }
    }
}
