//! The Conviva-like workload.
//!
//! Conviva's production table logs video-streaming sessions: who watched
//! what, from where, over which network, with what quality. The paper's
//! trace is 17 TB / 5.5 billion rows / 104 columns; its query log
//! collapses to 42 templates over WHERE/GROUP BY columns, and the Fig.
//! 6(a) optimizer output names the winning sample families:
//! `[dt jointimems]`, `[objectid jointimems]`, `[dt dma]`,
//! `[country endedflag]`, `[dt country]`.
//!
//! We generate the 15 columns those templates (and our queries) touch,
//! with skews chosen so the paper's winners have high Δ × weight:
//! `objectid`/`city`/`asn`/`customer` are heavy-tailed (zipf), `genre`
//! and `os` near-uniform (the paper explicitly notes genre is frequently
//! queried but *not* worth stratifying). The remaining 89 columns exist
//! only as bytes: the logical row width is set to 17 TB / 5.5 B rows ≈
//! 3.1 KB so the cluster simulator prices full scans at paper scale.

use crate::gen;
use blinkdb_common::column::Column;
use blinkdb_common::rng::{derive_seed, seeded};
use blinkdb_common::schema::{Field, Schema};
use blinkdb_common::value::DataType;
use blinkdb_sql::template::{ColumnSet, WeightedTemplate};
use blinkdb_storage::Table;

/// Paper-scale constants.
pub const CONVIVA_LOGICAL_ROWS: f64 = 5.5e9;
/// 17 TB / 5.5 B rows ≈ 3.1 KB per row (104 columns).
pub const CONVIVA_ROW_BYTES: u64 = 3_100;

/// The generated dataset.
pub struct ConvivaDataset {
    /// The `sessions` fact table.
    pub table: Table,
    /// The 42-template workload with weights summing to 1.
    pub templates: Vec<WeightedTemplate>,
}

/// Generates the Conviva-like dataset with `rows` physical rows.
///
/// The logical scale factor maps physical rows to the paper's 5.5 B rows
/// / 17 TB.
pub fn conviva_dataset(rows: usize, seed: u64) -> ConvivaDataset {
    let r = |i: u64| seeded(derive_seed(seed, i));

    let schema = Schema::new(vec![
        Field::new("dt", DataType::Int),
        Field::new("customer", DataType::Str),
        Field::new("city", DataType::Str),
        Field::new("country", DataType::Str),
        Field::new("dma", DataType::Str),
        Field::new("asn", DataType::Str),
        Field::new("os", DataType::Str),
        Field::new("browser", DataType::Str),
        Field::new("genre", DataType::Str),
        Field::new("objectid", DataType::Str),
        Field::new("jointimems", DataType::Int),
        Field::new("sessiontimems", DataType::Float),
        Field::new("bufferingms", DataType::Float),
        Field::new("bitratekbps", DataType::Int),
        Field::new("endedflag", DataType::Bool),
    ]);

    let zipf = |distinct, s, prefix, stream| {
        Column::from_strs(gen::zipf_strings(rows, distinct, s, prefix, &mut r(stream)))
    };
    let uniform = |distinct, prefix, stream| {
        Column::from_strs(gen::uniform_strings(rows, distinct, prefix, &mut r(stream)))
    };
    let scaled = |v: Vec<i64>, by: i64| Column::from_ints(v.into_iter().map(|x| x * by).collect());
    // In schema order. Every column draws from its own seed stream and
    // is encoded as soon as it is generated, so at most one column of
    // heap strings is alive at a time (all nine at once were 4x the
    // finished table).
    let columns = vec![
        Column::from_ints(gen::uniform_ints(rows, 1, 30, &mut r(1))), // 30 days of logs
        zipf(2_000, 1.4, "cust", 2),
        zipf(1_500, 1.2, "city", 3),
        zipf(60, 1.3, "ctry", 4),
        zipf(220, 1.4, "dma", 5),
        zipf(2_500, 1.5, "asn", 6),
        uniform(6, "os", 7),
        uniform(8, "br", 8),
        uniform(20, "genre", 9),
        zipf(5_000, 1.6, "obj", 10),
        // Join time bucketed to 100 ms steps; zipfian (most sessions join
        // fast, a long tail of slow joins) so [dt jointimems] is skewed.
        scaled(gen::zipf_ints(rows, 150, 1.2, &mut r(11)), 100),
        Column::from_floats(gen::heavy_tailed(rows, 180_000.0, 1.2, &mut r(12))),
        Column::from_floats(gen::heavy_tailed(rows, 800.0, 1.5, &mut r(13))),
        // Bitrate ladder: players switch between ~40 discrete encodings.
        scaled(gen::uniform_ints(rows, 1, 40, &mut r(14)), 150),
        Column::from_bools(gen::flags(rows, 0.85, &mut r(15))),
    ];
    let mut table =
        Table::from_columns("sessions", schema, columns).expect("schema matches columns");
    table.set_logical_scale(
        (CONVIVA_LOGICAL_ROWS / rows as f64).max(1.0),
        CONVIVA_ROW_BYTES,
    );

    ConvivaDataset {
        table,
        templates: conviva_templates(),
    }
}

/// The 42-template workload.
///
/// The five templates that dominate the trace (and win in Fig. 6(a))
/// carry the weights the paper's Fig. 2 sketches; the long tail of 37
/// templates shares the remainder.
pub fn conviva_templates() -> Vec<WeightedTemplate> {
    let mut templates: Vec<(Vec<&str>, f64)> = vec![
        // Fig. 6(a) sample families — high weight, high skew.
        (vec!["dt", "jointimems"], 0.12),
        (vec!["objectid", "jointimems"], 0.10),
        (vec!["dt", "dma"], 0.09),
        (vec!["country", "endedflag"], 0.08),
        (vec!["dt", "country"], 0.07),
        // Frequently queried but uniform — the paper's "Genre" example:
        // queried often, never stratified.
        (vec!["genre"], 0.06),
        (vec!["os"], 0.04),
        (vec!["genre", "os"], 0.03),
    ];
    // The remaining 34 templates share the leftover weight.
    let tail: Vec<Vec<&str>> = vec![
        vec!["city"],
        vec!["customer"],
        vec!["asn"],
        vec!["dma"],
        vec!["country"],
        vec!["dt"],
        vec!["objectid"],
        vec!["browser"],
        vec!["endedflag"],
        vec!["jointimems"],
        vec!["dt", "city"],
        vec!["dt", "customer"],
        vec!["dt", "asn"],
        vec!["dt", "os"],
        vec!["dt", "genre"],
        vec!["dt", "objectid"],
        vec!["city", "asn"],
        vec!["city", "os"],
        vec!["customer", "objectid"],
        vec!["customer", "city"],
        vec!["country", "os"],
        vec!["country", "dma"],
        vec!["asn", "jointimems"],
        vec!["asn", "endedflag"],
        vec!["dma", "objectid"],
        vec!["browser", "os"],
        vec!["genre", "objectid"],
        vec!["bitratekbps"],
        vec!["dt", "bitratekbps"],
        vec!["dt", "city", "asn"],
        vec!["dt", "country", "endedflag"],
        vec!["customer", "dt", "jointimems"],
        vec!["objectid", "dt", "jointimems"],
        vec!["city", "os", "browser"],
    ];
    let head_weight: f64 = templates.iter().map(|(_, w)| *w).sum();
    let tail_weight = (1.0 - head_weight) / tail.len() as f64;
    for t in tail {
        templates.push((t, tail_weight));
    }
    templates
        .into_iter()
        .map(|(cols, weight)| WeightedTemplate {
            columns: ColumnSet::from_names(cols),
            weight,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_shape() {
        let d = conviva_dataset(5_000, 1);
        assert_eq!(d.table.num_rows(), 5_000);
        assert_eq!(d.table.schema().len(), 15);
        assert_eq!(d.templates.len(), 42, "the paper's 42 templates");
        // Paper scale: logical bytes ≈ 17 TB.
        let tb = d.table.logical_bytes() / 1e12;
        assert!((16.0..19.0).contains(&tb), "logical size {tb} TB");
    }

    #[test]
    fn template_weights_sum_to_one() {
        let total: f64 = conviva_templates().iter().map(|t| t.weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum {total}");
    }

    #[test]
    fn skewed_columns_are_skewed_and_uniform_are_not() {
        let d = conviva_dataset(30_000, 2);
        let city = d.table.column_by_name("city").unwrap();
        let genre = d.table.column_by_name("genre").unwrap();
        // Top-city frequency should dwarf the mean city frequency.
        let city_cols = d.table.resolve_columns(&["city"]).unwrap();
        let freqs = d.table.group_frequencies(&city_cols);
        let max = freqs.values().copied().max().unwrap() as f64;
        let mean = 30_000.0 / freqs.len() as f64;
        assert!(max > mean * 10.0, "city max {max} vs mean {mean}");
        // Genre spread is flat within 2x.
        let genre_cols = d.table.resolve_columns(&["genre"]).unwrap();
        let gfreqs = d.table.group_frequencies(&genre_cols);
        let gmax = *gfreqs.values().max().unwrap() as f64;
        let gmin = *gfreqs.values().min().unwrap() as f64;
        assert!(gmax < gmin * 2.0, "genre should be near-uniform");
        assert!(city.distinct_count() > genre.distinct_count());
    }

    #[test]
    fn all_template_columns_exist() {
        let d = conviva_dataset(1_000, 3);
        for t in &d.templates {
            for c in t.columns.iter() {
                assert!(
                    d.table.schema().index_of(c).is_some(),
                    "template column `{c}` missing from schema"
                );
            }
        }
    }

    /// Encoding each column as soon as it is generated builds the same
    /// table as generating all fifteen first: every cell, and every
    /// string column's dictionary codes.
    #[test]
    fn table_equals_one_built_from_columns_generated_up_front() {
        const ROWS: usize = 20_000;
        for seed in [2013, 7] {
            let r = |i: u64| seeded(derive_seed(seed, i));
            let dt = gen::uniform_ints(ROWS, 1, 30, &mut r(1));
            let strs = [
                gen::zipf_strings(ROWS, 2_000, 1.4, "cust", &mut r(2)),
                gen::zipf_strings(ROWS, 1_500, 1.2, "city", &mut r(3)),
                gen::zipf_strings(ROWS, 60, 1.3, "ctry", &mut r(4)),
                gen::zipf_strings(ROWS, 220, 1.4, "dma", &mut r(5)),
                gen::zipf_strings(ROWS, 2_500, 1.5, "asn", &mut r(6)),
                gen::uniform_strings(ROWS, 6, "os", &mut r(7)),
                gen::uniform_strings(ROWS, 8, "br", &mut r(8)),
                gen::uniform_strings(ROWS, 20, "genre", &mut r(9)),
                gen::zipf_strings(ROWS, 5_000, 1.6, "obj", &mut r(10)),
            ];
            let jointimems: Vec<i64> = gen::zipf_ints(ROWS, 150, 1.2, &mut r(11))
                .into_iter()
                .map(|v| v * 100)
                .collect();
            let sessiontimems = gen::heavy_tailed(ROWS, 180_000.0, 1.2, &mut r(12));
            let bufferingms = gen::heavy_tailed(ROWS, 800.0, 1.5, &mut r(13));
            let bitratekbps: Vec<i64> = gen::uniform_ints(ROWS, 1, 40, &mut r(14))
                .into_iter()
                .map(|v| 150 * v)
                .collect();
            let endedflag = gen::flags(ROWS, 0.85, &mut r(15));
            let mut reference = vec![Column::from_ints(dt)];
            reference.extend(strs.into_iter().map(Column::from_strs));
            reference.extend([
                Column::from_ints(jointimems),
                Column::from_floats(sessiontimems),
                Column::from_floats(bufferingms),
                Column::from_ints(bitratekbps),
                Column::from_bools(endedflag),
            ]);

            let table = conviva_dataset(ROWS, seed).table;
            assert_eq!(table.schema().len(), reference.len());
            for (c, want) in reference.iter().enumerate() {
                let got = table.column(c);
                assert_eq!(
                    got.strs().map(|s| s.codes()),
                    want.strs().map(|s| s.codes()),
                    "seed {seed} column {c}: dictionary codes"
                );
                for row in 0..ROWS {
                    assert_eq!(got.value(row), want.value(row), "seed {seed} column {c}");
                }
            }
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let a = conviva_dataset(500, 7);
        let b = conviva_dataset(500, 7);
        for col in 0..a.table.schema().len() {
            for row in (0..500).step_by(97) {
                assert_eq!(a.table.value(row, col), b.table.value(row, col));
            }
        }
    }
}
