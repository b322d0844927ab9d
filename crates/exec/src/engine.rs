//! The execution engine: scan → join → filter → group → estimate.

use crate::answer::QueryAnswer;
use crate::partial::QueryPlan;
use blinkdb_common::error::Result;
use blinkdb_sql::bind::BoundQuery;
use blinkdb_storage::{Table, TableRef};
use std::collections::HashMap;

/// How fact rows were sampled, i.e. which effective sampling rate applies
/// to each physical row (§4.3 "BlinkDB keeps track of the effective
/// sampling rate applied to each row").
#[derive(Debug, Clone, Copy)]
pub enum RateSpec<'a> {
    /// Full data: every row has rate 1 (exact execution).
    Exact,
    /// A uniform sample with rate `p` for all rows.
    Uniform(f64),
    /// Per-physical-row rates (stratified samples); indexed by the fact
    /// table's physical row id.
    PerRow(&'a [f64]),
    /// Stratified sample with cap `cap`: the rate of a row whose stratum
    /// had frequency `F` in the original table is `min(1, cap/F)`.
    /// `freqs[row]` stores `F` per physical row, shared by every
    /// resolution of a family (only `cap` changes between resolutions).
    StratifiedCap {
        /// Original-table stratum frequency per physical row.
        freqs: &'a [f64],
        /// The resolution's cap `K`.
        cap: f64,
    },
}

impl RateSpec<'_> {
    /// HT weight (`1/rate`) of a physical row.
    pub fn weight(&self, physical_row: usize) -> f64 {
        match self {
            RateSpec::Exact => 1.0,
            RateSpec::Uniform(p) => 1.0 / p.max(f64::MIN_POSITIVE),
            RateSpec::PerRow(rates) => 1.0 / rates[physical_row].max(f64::MIN_POSITIVE),
            RateSpec::StratifiedCap { freqs, cap } => {
                let f = freqs[physical_row];
                (f / cap).max(1.0)
            }
        }
    }
}

/// Execution options.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Confidence for rendered intervals (also the default when the query
    /// specifies none).
    pub confidence: f64,
    /// Bootstrap error-estimation parameters. `None` = closed-form only
    /// (aggregates without a closed form then report
    /// [`crate::answer::ErrorMethod::Unavailable`]); `Some` attaches
    /// replicate accumulators to the closed-form-less aggregates, or to
    /// every aggregate when the spec forces it.
    pub bootstrap: Option<blinkdb_estimator::BootstrapSpec>,
    /// Whether scans may take the vectorized columnar kernel path
    /// (chunked predicate bitmaps + run-length aggregation). On by
    /// default; the kernel is pinned bit-identical to the scalar path,
    /// so this flag only trades speed. `false` forces the row-at-a-time
    /// oracle. Joined queries always use the scalar path.
    pub vectorized: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            confidence: 0.95,
            bootstrap: None,
            vectorized: true,
        }
    }
}

/// Executes a bound query over a fact-table view.
///
/// * `fact` — full table, uniform sample, or one stratified resolution.
/// * `rates` — the per-row sampling rates matching `fact`'s *physical*
///   rows.
/// * `dims` — dimension tables by lowercased name; every JOIN target must
///   be present.
///
/// The query's confidence (from the bound clause or `RELATIVE ERROR`
/// item) overrides `opts.confidence` when present.
///
/// This is the serial path: one [`QueryPlan`] compile, one scan over the
/// whole view, one finish. Partitioned callers drive the three phases
/// themselves (see [`crate::partial`]).
pub fn execute(
    bound: &BoundQuery,
    fact: TableRef<'_>,
    rates: RateSpec<'_>,
    dims: &HashMap<String, &Table>,
    opts: ExecOptions,
) -> Result<QueryAnswer> {
    let plan = QueryPlan::compile(bound, fact.table(), dims, opts)?;
    let partial = plan.scan_set(fact.row_set(), rates);
    Ok(plan.finish(partial, matches!(rates, RateSpec::Exact)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blinkdb_common::schema::{Field, Schema};
    use blinkdb_common::value::{DataType, Value};
    use blinkdb_sql::bind::bind;
    use blinkdb_sql::parser::parse;

    /// Table 3 of the paper.
    fn sessions() -> Table {
        let schema = Schema::new(vec![
            Field::new("url", DataType::Str),
            Field::new("city", DataType::Str),
            Field::new("browser", DataType::Str),
            Field::new("session_time", DataType::Float),
        ]);
        let mut t = Table::new("sessions", schema);
        for (u, c, b, s) in [
            ("cnn.com", "New York", "Firefox", 15.0),
            ("yahoo.com", "New York", "Firefox", 20.0),
            ("google.com", "Berkeley", "Firefox", 85.0),
            ("google.com", "New York", "Safari", 82.0),
            ("bing.com", "Cambridge", "IE", 22.0),
        ] {
            t.push_row(&[Value::str(u), Value::str(c), Value::str(b), Value::Float(s)])
                .unwrap();
        }
        t
    }

    fn catalog(t: &Table) -> HashMap<String, Schema> {
        let mut m = HashMap::new();
        m.insert(t.name().to_ascii_lowercase(), t.schema().clone());
        m
    }

    fn run(sql: &str, t: &Table, rates: RateSpec<'_>) -> QueryAnswer {
        let q = parse(sql).unwrap();
        let b = bind(&q, &catalog(t)).unwrap();
        execute(
            &b,
            TableRef::full(t),
            rates,
            &HashMap::new(),
            ExecOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn exact_group_by_sum_matches_paper_table() {
        let t = sessions();
        let ans = run(
            "SELECT city, SUM(session_time) FROM sessions GROUP BY city",
            &t,
            RateSpec::Exact,
        );
        assert_eq!(ans.rows.len(), 3);
        let ny = ans.row_for(&[Value::str("New York")]).unwrap();
        assert_eq!(ny.aggs[0].estimate, 117.0);
        assert!(ny.aggs[0].exact);
        let berkeley = ans.row_for(&[Value::str("Berkeley")]).unwrap();
        assert_eq!(berkeley.aggs[0].estimate, 85.0);
    }

    #[test]
    fn paper_stratified_worked_example() {
        // Table 4: stratified on browser, K=1; kept rows are yahoo (rate
        // 1/3), google/Safari (rate 1), bing/IE (rate 1).
        let t = sessions();
        let kept = [1u32, 3u32, 4u32];
        let rates = vec![1.0, 1.0 / 3.0, 1.0, 1.0, 1.0];
        let q = parse("SELECT city, SUM(session_time) FROM sessions GROUP BY city").unwrap();
        let b = bind(&q, &catalog(&t)).unwrap();
        let ans = execute(
            &b,
            TableRef::subset(&t, &kept),
            RateSpec::PerRow(&rates),
            &HashMap::new(),
            ExecOptions::default(),
        )
        .unwrap();
        // Paper: NY = 1/0.33·20 + 1/1·82 ≈ 142, Cambridge = 22, and no
        // Berkeley row (missing subgroup).
        let ny = ans.row_for(&[Value::str("New York")]).unwrap();
        assert!((ny.aggs[0].estimate - (3.0 * 20.0 + 82.0)).abs() < 1e-9);
        let cambridge = ans.row_for(&[Value::str("Cambridge")]).unwrap();
        assert_eq!(cambridge.aggs[0].estimate, 22.0);
        assert!(cambridge.aggs[0].exact);
        assert!(ans.row_for(&[Value::str("Berkeley")]).is_none());
    }

    #[test]
    fn uniform_sample_scales_count() {
        let t = sessions();
        let kept = [0u32, 2u32];
        let q = parse("SELECT COUNT(*) FROM sessions").unwrap();
        let b = bind(&q, &catalog(&t)).unwrap();
        let ans = execute(
            &b,
            TableRef::subset(&t, &kept),
            RateSpec::Uniform(0.4),
            &HashMap::new(),
            ExecOptions::default(),
        )
        .unwrap();
        assert!((ans.rows[0].aggs[0].estimate - 5.0).abs() < 1e-9);
        assert_eq!(ans.rows_scanned, 2);
    }

    #[test]
    fn where_filter_and_selectivity() {
        let t = sessions();
        let ans = run(
            "SELECT COUNT(*) FROM sessions WHERE city = 'New York'",
            &t,
            RateSpec::Exact,
        );
        assert_eq!(ans.rows[0].aggs[0].estimate, 3.0);
        assert_eq!(ans.rows_matched, 3);
        assert_eq!(ans.rows_scanned, 5);
        assert!((ans.selectivity() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn global_aggregate_with_no_matches_yields_zero_row() {
        let t = sessions();
        let ans = run(
            "SELECT COUNT(*) FROM sessions WHERE city = 'Nowhere'",
            &t,
            RateSpec::Exact,
        );
        assert_eq!(ans.rows.len(), 1);
        assert_eq!(ans.rows[0].aggs[0].estimate, 0.0);
    }

    #[test]
    fn multiple_aggregates_in_one_pass() {
        let t = sessions();
        let ans = run(
            "SELECT COUNT(*), SUM(session_time), AVG(session_time), MEDIAN(session_time) \
             FROM sessions",
            &t,
            RateSpec::Exact,
        );
        let aggs = &ans.rows[0].aggs;
        assert_eq!(aggs[0].estimate, 5.0);
        assert_eq!(aggs[1].estimate, 224.0);
        assert!((aggs[2].estimate - 44.8).abs() < 1e-9);
        assert!(aggs[3].estimate >= 20.0 && aggs[3].estimate <= 82.0);
    }

    #[test]
    fn join_with_dimension_table() {
        let t = sessions();
        let dim_schema = Schema::new(vec![
            Field::new("name", DataType::Str),
            Field::new("coast", DataType::Str),
        ]);
        let mut cities = Table::new("cities", dim_schema);
        for (n, c) in [
            ("New York", "east"),
            ("Berkeley", "west"),
            ("Cambridge", "east"),
        ] {
            cities.push_row(&[Value::str(n), Value::str(c)]).unwrap();
        }
        let mut cat = catalog(&t);
        cat.insert("cities".into(), cities.schema().clone());
        let q = parse(
            "SELECT coast, SUM(session_time) FROM sessions \
             JOIN cities ON sessions.city = cities.name \
             GROUP BY coast",
        )
        .unwrap();
        let b = bind(&q, &cat).unwrap();
        let mut dims: HashMap<String, &Table> = HashMap::new();
        dims.insert("cities".into(), &cities);
        let ans = execute(
            &b,
            TableRef::full(&t),
            RateSpec::Exact,
            &dims,
            ExecOptions::default(),
        )
        .unwrap();
        let east = ans.row_for(&[Value::str("east")]).unwrap();
        assert_eq!(east.aggs[0].estimate, 117.0 + 22.0);
        let west = ans.row_for(&[Value::str("west")]).unwrap();
        assert_eq!(west.aggs[0].estimate, 85.0);
    }

    #[test]
    fn join_filters_on_dimension_column() {
        let t = sessions();
        let dim_schema = Schema::new(vec![
            Field::new("name", DataType::Str),
            Field::new("coast", DataType::Str),
        ]);
        let mut cities = Table::new("cities", dim_schema);
        for (n, c) in [("New York", "east"), ("Berkeley", "west")] {
            cities.push_row(&[Value::str(n), Value::str(c)]).unwrap();
        }
        let mut cat = catalog(&t);
        cat.insert("cities".into(), cities.schema().clone());
        let q = parse(
            "SELECT COUNT(*) FROM sessions \
             JOIN cities ON sessions.city = cities.name \
             WHERE cities.coast = 'west'",
        )
        .unwrap();
        let b = bind(&q, &cat).unwrap();
        let mut dims: HashMap<String, &Table> = HashMap::new();
        dims.insert("cities".into(), &cities);
        let ans = execute(
            &b,
            TableRef::full(&t),
            RateSpec::Exact,
            &dims,
            ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(ans.rows[0].aggs[0].estimate, 1.0);
        // Cambridge row drops out entirely (no dim match).
        assert_eq!(ans.rows_matched, 1);
    }

    #[test]
    fn missing_dimension_table_is_an_error() {
        let t = sessions();
        let mut cat = catalog(&t);
        cat.insert(
            "cities".into(),
            Schema::new(vec![Field::new("name", DataType::Str)]),
        );
        let q = parse("SELECT COUNT(*) FROM sessions JOIN cities ON city = cities.name").unwrap();
        let b = bind(&q, &cat).unwrap();
        let err = execute(
            &b,
            TableRef::full(&t),
            RateSpec::Exact,
            &HashMap::new(),
            ExecOptions::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("cities"));
    }

    #[test]
    fn null_aggregate_inputs_are_skipped() {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str),
            Field::new("x", DataType::Float),
        ]);
        let mut t = Table::new("t", schema);
        t.push_row(&[Value::str("a"), Value::Float(10.0)]).unwrap();
        t.push_row(&[Value::str("a"), Value::Null]).unwrap();
        let q = parse("SELECT g, AVG(x), COUNT(*) FROM t GROUP BY g").unwrap();
        let b = bind(&q, &catalog(&t)).unwrap();
        let ans = execute(
            &b,
            TableRef::full(&t),
            RateSpec::Exact,
            &HashMap::new(),
            ExecOptions::default(),
        )
        .unwrap();
        let row = &ans.rows[0];
        assert_eq!(row.aggs[0].estimate, 10.0, "AVG skips the NULL");
        assert_eq!(row.aggs[1].estimate, 2.0, "COUNT(*) counts the row");
    }

    #[test]
    fn error_bound_confidence_propagates() {
        let t = sessions();
        let ans = run(
            "SELECT COUNT(*) FROM sessions ERROR WITHIN 10% AT CONFIDENCE 99%",
            &t,
            RateSpec::Uniform(0.5),
        );
        assert_eq!(ans.confidence, 0.99);
    }

    #[test]
    fn group_rows_are_sorted() {
        let t = sessions();
        let ans = run(
            "SELECT city, COUNT(*) FROM sessions GROUP BY city",
            &t,
            RateSpec::Exact,
        );
        let keys: Vec<String> = ans.rows.iter().map(|r| r.group[0].to_string()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
