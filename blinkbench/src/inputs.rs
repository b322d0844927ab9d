//! Everything the program under test receives is made here, from the
//! seed alone: tables, sample configurations, query lists, append
//! batches. The same seed gives the same inputs.

use blinkdb_common::column::ColumnData;
use blinkdb_common::rng::{derive_seed, seeded};
use blinkdb_common::value::Value;
use blinkdb_core::{BlinkDb, BlinkDbConfig};
use blinkdb_storage::Table;
use blinkdb_workload::{conviva_append_batch, conviva_dataset, StreamSpec};
use rand::Rng;
use std::time::Instant;

/// The measure every generated aggregate is taken over.
const AGG_COL: &str = "sessiontimems";

/// The four workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AdhocDirect,
    DashboardService,
    HeavyScan,
    IngestDurable,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AdhocDirect,
        Workload::DashboardService,
        Workload::HeavyScan,
        Workload::IngestDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AdhocDirect => "adhoc_direct",
            Workload::DashboardService => "dashboard_service",
            Workload::HeavyScan => "heavy_scan",
            Workload::IngestDurable => "ingest_durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Every value the workload sets away from the library defaults.
    pub fn stated_config(self) -> &'static [&'static str] {
        const MIX: &str = "BlinkDbConfig = crates/bench bench_config(), seed = --seed; budget 0.5";
        match self {
            Workload::AdhocDirect => &[MIX],
            Workload::DashboardService => &[MIX, "ServiceConfig.workers = 2", "clients = 2"],
            Workload::HeavyScan => &[
                MIX,
                "stratified.cap = optimizer.cap = 20000",
                "uniform.cap = 0.5",
            ],
            Workload::IngestDurable => &[
                MIX,
                "ServiceConfig.workers = 1",
                "DurabilityConfig.fsync = true",
                "DurabilityConfig.snapshot_sealed_segments = 4",
                "DurabilityConfig.snapshot_on_shutdown = false",
                "StreamSpec.skew_shift = 200",
            ],
        }
    }
}

/// Input sizes of one workload at full or `--smoke` shape.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Physical fact rows loaded at set-up.
    pub rows: usize,
    /// Queries in the generated list (the dashboard's population).
    pub queries: usize,
    /// Untimed operations before the measured window.
    pub warmup: usize,
    /// Queries audited against exact execution, spread evenly over the
    /// list (every 10th where the list is long enough).
    pub audited: usize,
    /// Rows per append batch, and distinct batches generated (the writer
    /// cycles through them).
    pub batch_rows: usize,
    pub batch_pool: usize,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setups: usize,
    /// Operation cap of the measured window (`--smoke` only: fixed
    /// counts make every count metric repeat exactly).
    pub max_ops: Option<usize>,
}

impl Sizes {
    pub fn of(workload: Workload, smoke: bool) -> Sizes {
        if smoke {
            return Sizes {
                rows: 8_000,
                queries: if workload == Workload::DashboardService {
                    96
                } else {
                    200
                },
                warmup: 5,
                audited: 20,
                batch_rows: 400,
                batch_pool: 4,
                setups: 1,
                max_ops: Some(if workload == Workload::IngestDurable {
                    12
                } else {
                    200
                }),
            };
        }
        let base = Sizes {
            rows: 200_000,
            queries: 5_000,
            warmup: 50,
            audited: 400,
            batch_rows: 5_000,
            batch_pool: 8,
            setups: 3,
            max_ops: None,
        };
        match workload {
            Workload::AdhocDirect | Workload::IngestDurable => base,
            // A population twice the 512-entry result cache; its ~40
            // templates fit the 128-entry ELP cache.
            Workload::DashboardService => Sizes {
                queries: 1_024,
                warmup: 3_000,
                ..base
            },
            Workload::HeavyScan => Sizes {
                rows: 500_000,
                queries: 1_000,
                audited: 100,
                ..base
            },
        }
    }
}

/// The bound a query carries, as the benchmark will check it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Contract {
    None,
    /// `WITHIN t SECONDS`: the reported (simulated) response time must
    /// not exceed `t`.
    Seconds(f64),
    /// `ERROR WITHIN ε`: the reported relative half-width must not
    /// exceed `ε` (a fraction).
    RelError(f64),
}

/// One generated query.
#[derive(Debug, Clone)]
pub struct Q {
    pub sql: String,
    pub contract: Contract,
}

/// The paper-like sample configuration of `crates/bench`
/// (`bench_config()`), seeded from the run.
pub fn mix_config(seed: u64) -> BlinkDbConfig {
    let mut cfg = blinkdb_bench::bench_config();
    cfg.seed = seed;
    cfg
}

/// `heavy_scan`'s high-accuracy deployment: caps raised so the largest
/// resolutions hold a large share of the table, resolution counts kept
/// (the smallest stays small, so ELP probes stay cheap) — the final
/// scan, not planning, is where a query's time goes.
pub fn heavy_config(seed: u64) -> BlinkDbConfig {
    let mut cfg = mix_config(seed);
    cfg.stratified.cap = 20_000.0;
    cfg.optimizer.cap = 20_000.0;
    cfg.uniform.cap = 0.5;
    cfg
}

/// Generator seed of the fact table. The table is the one input that
/// does not follow `--seed`: which sample families the optimizer builds
/// is a step function of the table's statistics, and letting those move
/// with the seed makes whole workloads bimodal across seeds (one seed
/// gets five families and 34 ingest batches per window, the next gets
/// six and 26) — a property of the draw, not of the code under test.
/// Sample draws, query constants, popularity streams and append
/// batches all follow `--seed`.
pub const TABLE_SEED: u64 = 2013;

/// Generates the workload's table and builds its samples at budget 0.5.
/// Also returns the seconds `BlinkDb::new` + `create_samples` took.
pub fn build_db(workload: Workload, sizes: &Sizes, seed: u64) -> (BlinkDb, f64) {
    let dataset = conviva_dataset(sizes.rows, TABLE_SEED);
    let cfg = match workload {
        Workload::HeavyScan => heavy_config(seed),
        _ => mix_config(seed),
    };
    let t0 = Instant::now();
    let mut db = BlinkDb::new(dataset.table, cfg);
    db.create_samples(&dataset.templates, 0.5)
        .expect("sample creation on generated data");
    let create_samples_s = t0.elapsed().as_secs_f64();
    (db, create_samples_s)
}

/// The workload's query list.
pub fn queries(workload: Workload, db: &BlinkDb, sizes: &Sizes, seed: u64) -> Vec<Q> {
    match workload {
        Workload::AdhocDirect => adhoc_queries(db, sizes.queries, 2.0, seed),
        // The cheapest plan's response time grows with the table; 2 s
        // turns unsatisfiable (refused at admission) a few batches in.
        Workload::IngestDurable => adhoc_queries(db, sizes.queries, 5.0, seed),
        Workload::DashboardService => dashboard_population(db, sizes.queries, seed),
        Workload::HeavyScan => heavy_queries(sizes.queries, seed),
    }
}

/// Instantiates templates the way `blinkdb_workload::queries::instantiate`
/// does — equality predicates with constants from a random row, the
/// lowest-cardinality column (≤ 64 values) of a multi-column template as
/// GROUP BY, `COUNT(*), AVG(measure)` — with the per-column distinct
/// counts computed once. The workload crate recounts them per query,
/// which costs 11 s for a 5 000-query list on 200k rows.
struct Instantiator<'a> {
    table: &'a Table,
    templates: Vec<blinkdb_sql::template::WeightedTemplate>,
    total_weight: f64,
    /// Smooth weighted round-robin credit per template.
    credit: Vec<f64>,
    distinct: Vec<usize>,
}

impl<'a> Instantiator<'a> {
    fn new(table: &'a Table) -> Self {
        let templates = blinkdb_workload::conviva::conviva_templates();
        Instantiator {
            table,
            total_weight: templates.iter().map(|t| t.weight).sum(),
            credit: vec![0.0; templates.len()],
            templates,
            distinct: (0..table.schema().len())
                .map(|c| table.column(c).distinct_count())
                .collect(),
        }
    }

    /// The next query of the mix, ending in `bound_clause`.
    ///
    /// Templates come in smooth weighted round-robin order, so every
    /// prefix of the list holds each template in proportion to its
    /// weight whatever the seed; the seed picks the constants. Drawing
    /// templates at random instead moved `adhoc_direct`'s median by
    /// ±7 % across seeds (the latency distribution is bimodal: templates
    /// a family covers, and templates that probe every family).
    fn draw(&mut self, bound_clause: &str, rng: &mut impl Rng) -> String {
        for (credit, t) in self.credit.iter_mut().zip(&self.templates) {
            *credit += t.weight;
        }
        let next = (0..self.credit.len())
            .max_by(|&a, &b| self.credit[a].total_cmp(&self.credit[b]))
            .expect("the workload has templates");
        self.credit[next] -= self.total_weight;
        let chosen = &self.templates[next];
        let cols: Vec<(&str, usize)> = chosen
            .columns
            .iter()
            .map(|c| {
                let idx = self.table.schema().index_of(c);
                (c, idx.expect("template column exists"))
            })
            .collect();
        let group_by = (cols.len() > 1)
            .then(|| {
                cols.iter()
                    .filter(|&&(_, idx)| self.distinct[idx] <= 64)
                    .min_by_key(|&&(_, idx)| self.distinct[idx])
                    .map(|&(c, _)| c)
            })
            .flatten();
        let row = rng.random_range(0..self.table.num_rows().max(1));
        let predicates: Vec<String> = cols
            .iter()
            .filter(|&&(c, _)| Some(c) != group_by)
            .map(|&(c, idx)| match self.table.value(row, idx) {
                Value::Str(v) => format!("{c} = '{}'", v.replace('\'', "''")),
                other => format!("{c} = {other}"),
            })
            .collect();
        let mut sql = format!("SELECT COUNT(*), AVG({AGG_COL}) FROM {}", self.table.name());
        if !predicates.is_empty() {
            sql.push_str(&format!(" WHERE {}", predicates.join(" AND ")));
        }
        if let Some(g) = group_by {
            sql.push_str(&format!(" GROUP BY {g}"));
        }
        sql.push_str(bound_clause);
        sql
    }
}

/// The ad-hoc analyst: draws from the 42-template mix, bounds rotating
/// over `tight_s` seconds, 8 s, 5 %, 1 % and none.
fn adhoc_queries(db: &BlinkDb, n: usize, tight_s: f64, seed: u64) -> Vec<Q> {
    let bounds = [
        (
            format!(" WITHIN {tight_s} SECONDS"),
            Contract::Seconds(tight_s),
        ),
        (" WITHIN 8 SECONDS".to_string(), Contract::Seconds(8.0)),
        (" ERROR WITHIN 5%".to_string(), Contract::RelError(0.05)),
        (" ERROR WITHIN 1%".to_string(), Contract::RelError(0.01)),
        (String::new(), Contract::None),
    ];
    let mut mix = Instantiator::new(db.fact());
    let mut rng = seeded(derive_seed(seed, 0xAD0C));
    (0..n)
        .map(|i| {
            let (clause, contract) = &bounds[i % bounds.len()];
            Q {
                sql: mix.draw(clause, &mut rng),
                contract: *contract,
            }
        })
        .collect()
}

/// The dashboard's population: `n` distinct `WITHIN 8 SECONDS` queries.
fn dashboard_population(db: &BlinkDb, n: usize, seed: u64) -> Vec<Q> {
    let mut mix = Instantiator::new(db.fact());
    let mut rng = seeded(derive_seed(seed, 0xDA5B));
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    // Popular constants repeat; keep drawing until `n` are distinct.
    for _ in 0..64 * n {
        let sql = mix.draw(" WITHIN 8 SECONDS", &mut rng);
        if seen.insert(sql.clone()) {
            out.push(Q {
                sql,
                contract: Contract::Seconds(8.0),
            });
            if out.len() == n {
                break;
            }
        }
    }
    out
}

/// Six aggregate shapes over most of the table: the four
/// `scan_throughput` mixes plus `GROUP BY os` and a grouped `STDDEV`.
/// Half carry `STDDEV`/`RATIO` (bootstrap at B=100); bounds alternate
/// between none and `ERROR WITHIN 0.5%`, so the largest resolution runs.
fn heavy_queries(n: usize, seed: u64) -> Vec<Q> {
    let mut rng = seeded(derive_seed(seed, 0x4EA7_5CA9));
    (0..n)
        .map(|i| {
            let body = match i % 6 {
                0 => format!(
                    "SELECT COUNT(*) FROM sessions WHERE sessiontimems < {} AND endedflag = true",
                    rng.random_range(20..=120) * 1_000
                ),
                // A wide day range: at the largest resolution this shape
                // meets 0.5 % with room to spare and every other shape
                // misses it, so `bound_met_frac` is a property of the
                // code, not of which constants a seed happened to draw.
                1 => format!(
                    "SELECT SUM(bufferingms), STDDEV(sessiontimems) FROM sessions \
                     WHERE dt BETWEEN {} AND {} AND genre != 'genre{}'",
                    rng.random_range(1..=3),
                    rng.random_range(27..=30),
                    rng.random_range(1..=20)
                ),
                2 => format!(
                    "SELECT dma, COUNT(*), AVG(sessiontimems) FROM sessions \
                     WHERE bitratekbps >= {} GROUP BY dma",
                    150 * rng.random_range(2..=20)
                ),
                3 => format!(
                    "SELECT MEDIAN(sessiontimems), RATIO(bufferingms, sessiontimems) \
                     FROM sessions WHERE country = 'ctry{}'",
                    rng.random_range(1..=6)
                ),
                4 => format!(
                    "SELECT os, COUNT(*), AVG(bufferingms) FROM sessions \
                     WHERE dt >= {} GROUP BY os",
                    rng.random_range(1..=12)
                ),
                _ => format!(
                    "SELECT dt, STDDEV(sessiontimems) FROM sessions \
                     WHERE bitratekbps <= {} GROUP BY dt",
                    150 * rng.random_range(20..=40)
                ),
            };
            // Shapes come in (closed-form, bootstrap) pairs; flip the
            // bound every pair so each shape sees both.
            if (i / 2) % 2 == 0 {
                Q {
                    sql: body,
                    contract: Contract::None,
                }
            } else {
                Q {
                    sql: format!("{body} ERROR WITHIN 0.5%"),
                    contract: Contract::RelError(0.005),
                }
            }
        })
        .collect()
}

/// The append stream: `pool` distinct skew-shifted batches.
pub fn batches(sizes: &Sizes, seed: u64) -> Vec<Vec<Vec<Value>>> {
    let spec = StreamSpec {
        rows_per_batch: sizes.batch_rows,
        batches: sizes.batch_pool,
        seed: derive_seed(seed, 99),
        skew_shift: 200,
    };
    (0..sizes.batch_pool)
        .map(|b| conviva_append_batch(&spec, b))
        .collect()
}

/// Payload bytes of a table's values as a user handed them in: 8 per
/// number, 1 per flag, the string's length per string. The denominator
/// of every bytes-per-user-byte metric.
pub fn table_user_bytes(table: &Table) -> u64 {
    (0..table.schema().len())
        .map(|c| match table.column(c).data() {
            ColumnData::Int(v) => 8 * v.len() as u64,
            ColumnData::Float(v) => 8 * v.len() as u64,
            ColumnData::Bool(v) => v.len() as u64,
            ColumnData::Str(s) => {
                let lens: Vec<u64> = (0..s.dict_len() as u32)
                    .map(|code| s.decode(code).map_or(0, |v| v.len() as u64))
                    .collect();
                s.codes().iter().map(|&code| lens[code as usize]).sum()
            }
        })
        .sum()
}

/// [`table_user_bytes`] for rows not yet in a table.
pub fn rows_user_bytes(rows: &[Vec<Value>]) -> u64 {
    rows.iter()
        .flatten()
        .map(|v| match v {
            Value::Str(s) => s.len() as u64,
            Value::Bool(_) => 1,
            Value::Null => 0,
            _ => 8,
        })
        .sum()
}

/// In-memory bytes per row from the columnar widths (8 B numerics, 4 B
/// dictionary codes, 1 B flags) — the `GB/s` denominator, as in
/// `benches/scan_throughput.rs`.
pub fn columnar_row_bytes(table: &Table) -> usize {
    use blinkdb_common::DataType;
    table
        .schema()
        .fields()
        .iter()
        .map(|f| match f.dtype {
            DataType::Int | DataType::Float => 8,
            DataType::Str => 4,
            DataType::Bool => 1,
        })
        .sum()
}
