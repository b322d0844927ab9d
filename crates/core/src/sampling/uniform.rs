//! Uniform sample-family construction.
//!
//! The uniform family handles queries over near-uniform column groups
//! (§2.2.1). It is built exactly like a stratified family with a single
//! all-rows stratum: one shuffle of the table, nested prefixes as
//! resolutions, rate `pᵢ = p₁/cⁱ` per resolution.

use super::family::{FamilyConfig, Resolution, SampleFamily};
use blinkdb_common::error::{BlinkError, Result};
use blinkdb_common::rng::seeded;
use blinkdb_sql::template::ColumnSet;
use blinkdb_storage::Table;
use rand::seq::SliceRandom;

/// Builds the uniform family `R(p)` over `table`.
///
/// `config.cap` is interpreted as the largest sampling *fraction*
/// `p₁ ∈ (0, 1]`.
///
/// # Examples
///
/// ```
/// use blinkdb_core::sampling::{build_uniform, FamilyConfig};
/// use blinkdb_common::schema::{Field, Schema};
/// use blinkdb_common::value::{DataType, Value};
/// use blinkdb_storage::Table;
///
/// let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
/// let mut t = Table::new("t", schema);
/// for i in 0..1000 {
///     t.push_row(&[Value::Int(i)]).unwrap();
/// }
/// let fam = build_uniform(
///     &t,
///     FamilyConfig { cap: 0.1, resolutions: 2, ..Default::default() },
/// )
/// .unwrap();
/// assert_eq!(fam.resolution(fam.largest()).len(), 100); // 10% of 1000
/// assert!(fam.is_uniform());
/// ```
pub fn build_uniform(table: &Table, config: FamilyConfig) -> Result<SampleFamily> {
    config.validate()?;
    if config.cap > 1.0 {
        return Err(BlinkError::plan(format!(
            "uniform family cap is a fraction in (0,1], got {}",
            config.cap
        )));
    }
    let n = table.num_rows();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = seeded(config.seed);
    order.shuffle(&mut rng);

    // Rates largest-first, clamped so the smallest resolution has >= 1 row.
    let mut rates: Vec<f64> = Vec::with_capacity(config.resolutions);
    for i in 0..config.resolutions {
        let p = config.cap / config.shrink.powi(i as i32);
        if (n as f64 * p).round() < 1.0 {
            break;
        }
        rates.push(p);
    }
    if rates.is_empty() {
        rates.push(config.cap);
    }

    let largest_rows = ((n as f64) * rates[0]).round() as usize;
    let family_rows = &order[..largest_rows.min(n)];
    let family_table = table.gather(family_rows);
    let freqs = vec![1.0; family_table.num_rows()];

    // Smallest-first resolutions: prefixes of the shuffled order.
    let mut resolutions: Vec<Resolution> = Vec::with_capacity(rates.len());
    for &p in rates.iter().rev() {
        let size = ((n as f64) * p).round() as usize;
        let rows: Vec<u32> = (0..size.min(family_table.num_rows()) as u32).collect();
        resolutions.push(Resolution {
            cap: size as f64,
            rate: p,
            rows,
        });
    }

    let family = SampleFamily {
        columns: ColumnSet::empty(),
        table: family_table,
        freqs,
        stratum_ids: Vec::new(),
        source_rows: family_rows.iter().map(|&r| r as u32).collect(),
        shuffle_pos: Vec::new(),
        resolutions,
        residency: blinkdb_storage::Residency::Resident,
        tier_override: (config.tier != blinkdb_storage::StorageTier::Memory).then_some(config.tier),
        uniform: true,
    };
    debug_assert!(family.check_nested());
    Ok(family)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blinkdb_common::schema::{Field, Schema};
    use blinkdb_common::value::{DataType, Value};

    fn table(n: usize) -> Table {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for i in 0..n {
            t.push_row(&[Value::Int(i as i64)]).unwrap();
        }
        t
    }

    fn cfg(p: f64, m: usize) -> FamilyConfig {
        FamilyConfig {
            cap: p,
            shrink: 2.0,
            resolutions: m,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn sizes_and_rates_shrink_by_c() {
        let t = table(10_000);
        let fam = build_uniform(&t, cfg(0.2, 3)).unwrap();
        assert_eq!(fam.num_resolutions(), 3);
        let sizes: Vec<usize> = (0..3).map(|i| fam.resolution(i).len()).collect();
        assert_eq!(sizes, vec![500, 1000, 2000]);
        let rates: Vec<f64> = (0..3).map(|i| fam.resolution(i).rate).collect();
        assert_eq!(rates, vec![0.05, 0.1, 0.2]);
        assert!(fam.check_nested());
    }

    #[test]
    fn count_estimate_is_unbiased() {
        let t = table(5_000);
        let fam = build_uniform(&t, cfg(0.1, 2)).unwrap();
        for i in 0..fam.num_resolutions() {
            let (view, rates) = fam.view(i);
            let est: f64 = view.iter_physical().map(|r| rates.weight(r)).sum();
            assert!(
                (est - 5_000.0).abs() < 1e-6,
                "resolution {i}: {est} vs 5000"
            );
        }
    }

    #[test]
    fn sample_is_roughly_representative() {
        // Mean of x over the sample ≈ mean over the table (4999.5 ± a few %).
        let t = table(10_000);
        let fam = build_uniform(&t, cfg(0.1, 1)).unwrap();
        let xs = fam.table().column_by_name("x").unwrap();
        let mean: f64 = (0..fam.table().num_rows())
            .map(|r| xs.value(r).as_f64().unwrap())
            .sum::<f64>()
            / fam.table().num_rows() as f64;
        assert!(
            (mean - 4999.5).abs() < 300.0,
            "sample mean {mean} too far from population mean"
        );
    }

    #[test]
    fn fraction_above_one_rejected() {
        let t = table(10);
        assert!(build_uniform(&t, cfg(1.5, 1)).is_err());
    }

    #[test]
    fn tiny_tables_clamp_resolution_count() {
        let t = table(10);
        // p=0.5 → 5 rows; /2 → 2.5 ≈ 3 rows; /4 → 1.25 ≈ 1 row; /8 → 0.6 <1 → stop.
        let fam = build_uniform(&t, cfg(0.5, 8)).unwrap();
        assert!(fam.num_resolutions() <= 4);
        assert!(!fam.resolution(0).is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let t = table(1000);
        let a = build_uniform(&t, cfg(0.1, 1)).unwrap();
        let b = build_uniform(&t, cfg(0.1, 1)).unwrap();
        let va: Vec<String> = (0..5).map(|r| a.table().value(r, 0).to_string()).collect();
        let vb: Vec<String> = (0..5).map(|r| b.table().value(r, 0).to_string()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn label_and_columns() {
        let t = table(100);
        let fam = build_uniform(&t, cfg(0.1, 1)).unwrap();
        assert_eq!(fam.label(), "uniform");
        assert!(fam.columns().is_empty());
        assert!(fam.is_uniform());
    }

    #[test]
    fn tail_free_resolution_partitions_borrow_its_rows() {
        // A smaller resolution is a prefix of the build shuffle, clear of
        // the few rows at its end that ascend by chance: every partition
        // is a contiguous block of the resolution's own row list.
        let t = table(10_000);
        let fam = build_uniform(&t, cfg(0.2, 3)).unwrap();
        let res = &fam.resolution(0).rows;
        let parts = fam.partitioned(0, 7);
        assert_eq!(parts.num_partitions(), 7);
        let mut next = res.as_ptr_range().start;
        for p in parts.partitions() {
            let rows = p.rows().as_ptr_range();
            assert_eq!(
                rows.start, next,
                "partitions are consecutive blocks of res.rows"
            );
            next = rows.end;
        }
        assert_eq!(next, res.as_ptr_range().end);
    }
}
