//! Streaming append generator: batches of new fact rows arriving while
//! the service keeps answering queries (§3.2.3's "data variation" made
//! live).
//!
//! The generator produces Conviva-schema rows whose *stratum
//! distribution can be shifted* relative to load time: zipf ranks are
//! rotated by `skew_shift`, so values that were rare in the loaded table
//! become hot in the appended traffic (yesterday's long-tail city is
//! today's flash crowd). A shift of 0 reproduces the load-time shape —
//! pure growth, which incremental folds absorb; a large shift forces
//! drift past the maintainer's threshold and exercises the full-refresh
//! fallback.

use crate::gen;
use blinkdb_common::rng::{derive_seed, seeded};
use blinkdb_common::value::Value;

/// Shape of a streaming append run.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// Rows per appended batch.
    pub rows_per_batch: usize,
    /// Number of batches the stream yields.
    pub batches: usize,
    /// Base seed; batch `i` draws from an independent derived stream.
    pub seed: u64,
    /// Zipf-rank rotation applied to every skewed categorical column
    /// (`city`, `country`, `objectid`, …): rank `r` in the appended data
    /// maps to the loaded table's rank `((r + skew_shift - 1) % distinct) + 1`.
    /// `0` keeps the load-time distribution (pure growth).
    pub skew_shift: usize,
}

impl Default for StreamSpec {
    fn default() -> Self {
        StreamSpec {
            rows_per_batch: 5_000,
            batches: 4,
            seed: 2013,
            skew_shift: 0,
        }
    }
}

/// Rotates a zipf rank within `1..=distinct`.
fn rotate(rank: usize, shift: usize, distinct: usize) -> usize {
    ((rank - 1 + shift) % distinct) + 1
}

/// Generates one batch of Conviva-schema rows (the 15 columns of
/// [`crate::conviva::conviva_dataset`], in schema order) with the
/// spec's rank rotation applied to the skewed categoricals.
pub fn conviva_append_batch(spec: &StreamSpec, batch: usize) -> Vec<Vec<Value>> {
    let n = spec.rows_per_batch;
    let r = |i: u64| {
        seeded(derive_seed(
            spec.seed,
            0x5EED_0000 ^ (batch as u64 * 31) ^ i,
        ))
    };
    let shifted_zipf = |distinct: usize, s: f64, prefix: &'static str, stream: u64| {
        gen::zipf_ints(n, distinct, s, &mut r(stream))
            .into_iter()
            .map(move |rank| {
                Value::str(format!(
                    "{prefix}{}",
                    rotate(rank as usize, spec.skew_shift, distinct)
                ))
            })
    };
    let uniform = |distinct: usize, prefix: &str, stream: u64| {
        gen::uniform_strings(n, distinct, prefix, &mut r(stream))
            .into_iter()
            .map(Value::str)
    };
    let ints = |v: Vec<i64>, scale: i64| v.into_iter().map(move |x| Value::Int(x * scale));
    let floats = |v: Vec<f64>| v.into_iter().map(Value::Float);

    // Rows fill column by column, in schema order, so each generated
    // column is dropped as soon as it is copied in.
    let mut rows: Vec<Vec<Value>> = (0..n).map(|_| Vec::with_capacity(15)).collect();
    push_column(&mut rows, ints(gen::uniform_ints(n, 1, 30, &mut r(1)), 1));
    push_column(&mut rows, shifted_zipf(2_000, 1.4, "cust", 2));
    push_column(&mut rows, shifted_zipf(1_500, 1.2, "city", 3));
    push_column(&mut rows, shifted_zipf(60, 1.3, "ctry", 4));
    push_column(&mut rows, shifted_zipf(220, 1.4, "dma", 5));
    push_column(&mut rows, shifted_zipf(2_500, 1.5, "asn", 6));
    push_column(&mut rows, uniform(6, "os", 7));
    push_column(&mut rows, uniform(8, "br", 8));
    push_column(&mut rows, uniform(20, "genre", 9));
    push_column(&mut rows, shifted_zipf(5_000, 1.6, "obj", 10));
    push_column(
        &mut rows,
        ints(gen::zipf_ints(n, 150, 1.2, &mut r(11)), 100),
    );
    push_column(
        &mut rows,
        floats(gen::heavy_tailed(n, 180_000.0, 1.2, &mut r(12))),
    );
    push_column(
        &mut rows,
        floats(gen::heavy_tailed(n, 800.0, 1.5, &mut r(13))),
    );
    push_column(
        &mut rows,
        ints(gen::uniform_ints(n, 1, 40, &mut r(14)), 150),
    );
    let flags = gen::flags(n, 0.85, &mut r(15));
    push_column(&mut rows, flags.into_iter().map(Value::Bool));
    rows
}

/// Appends one generated column to every row.
fn push_column(rows: &mut [Vec<Value>], column: impl Iterator<Item = Value>) {
    for (row, v) in rows.iter_mut().zip(column) {
        row.push(v);
    }
}

/// The full stream: `spec.batches` batches, lazily generated.
pub fn conviva_stream(spec: StreamSpec) -> impl Iterator<Item = Vec<Vec<Value>>> {
    (0..spec.batches).map(move |b| conviva_append_batch(&spec, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conviva::conviva_dataset;

    #[test]
    fn batches_match_the_conviva_schema() {
        let mut d = conviva_dataset(1_000, 1);
        let spec = StreamSpec {
            rows_per_batch: 200,
            batches: 2,
            seed: 9,
            skew_shift: 0,
        };
        for batch in conviva_stream(spec) {
            assert_eq!(batch.len(), 200);
            let range = d.table.append_rows(&batch).expect("schema-compatible");
            assert_eq!(range.len(), 200);
        }
        assert_eq!(d.table.num_rows(), 1_400);
    }

    #[test]
    fn skew_shift_moves_the_hot_strata() {
        let spec_same = StreamSpec {
            rows_per_batch: 5_000,
            batches: 1,
            seed: 4,
            skew_shift: 0,
        };
        let spec_shift = StreamSpec {
            skew_shift: 700,
            ..spec_same
        };
        let count = |batch: &[Vec<Value>], city: &str| {
            batch
                .iter()
                .filter(|row| row[2] == Value::str(city))
                .count()
        };
        let same = conviva_append_batch(&spec_same, 0);
        let shifted = conviva_append_batch(&spec_shift, 0);
        // Unshifted: rank-1 city dominates. Shifted by 700: the mass
        // moves onto city701, which is long-tail in the loaded data.
        assert!(count(&same, "city1") > 200);
        assert!(count(&shifted, "city1") < 50);
        assert!(count(&shifted, "city701") > 200);
    }

    /// Filling rows column by column yields the batches the generator
    /// made when it held all fifteen columns before building any row.
    #[test]
    fn batches_equal_rows_built_from_columns_generated_up_front() {
        let spec = StreamSpec {
            rows_per_batch: 300,
            batches: 3,
            seed: 2013,
            skew_shift: 200,
        };
        let n = spec.rows_per_batch;
        for batch in 0..spec.batches {
            let r = |i: u64| {
                seeded(derive_seed(
                    spec.seed,
                    0x5EED_0000 ^ (batch as u64 * 31) ^ i,
                ))
            };
            let zipf = |distinct: usize, s: f64, prefix: &str, stream: u64| -> Vec<String> {
                gen::zipf_ints(n, distinct, s, &mut r(stream))
                    .into_iter()
                    .map(|rank| {
                        let rotated = rotate(rank as usize, spec.skew_shift, distinct);
                        format!("{prefix}{rotated}")
                    })
                    .collect()
            };
            let dt = gen::uniform_ints(n, 1, 30, &mut r(1));
            let strs = [
                zipf(2_000, 1.4, "cust", 2),
                zipf(1_500, 1.2, "city", 3),
                zipf(60, 1.3, "ctry", 4),
                zipf(220, 1.4, "dma", 5),
                zipf(2_500, 1.5, "asn", 6),
                gen::uniform_strings(n, 6, "os", &mut r(7)),
                gen::uniform_strings(n, 8, "br", &mut r(8)),
                gen::uniform_strings(n, 20, "genre", &mut r(9)),
                zipf(5_000, 1.6, "obj", 10),
            ];
            let jointimems = gen::zipf_ints(n, 150, 1.2, &mut r(11));
            let sessiontimems = gen::heavy_tailed(n, 180_000.0, 1.2, &mut r(12));
            let bufferingms = gen::heavy_tailed(n, 800.0, 1.5, &mut r(13));
            let bitratekbps = gen::uniform_ints(n, 1, 40, &mut r(14));
            let endedflag = gen::flags(n, 0.85, &mut r(15));
            let reference: Vec<Vec<Value>> = (0..n)
                .map(|i| {
                    let mut row = vec![Value::Int(dt[i])];
                    row.extend(strs.iter().map(|col| Value::str(&col[i])));
                    row.extend([
                        Value::Int(jointimems[i] * 100),
                        Value::Float(sessiontimems[i]),
                        Value::Float(bufferingms[i]),
                        Value::Int(150 * bitratekbps[i]),
                        Value::Bool(endedflag[i]),
                    ]);
                    row
                })
                .collect();
            assert_eq!(
                conviva_append_batch(&spec, batch),
                reference,
                "batch {batch}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed_and_batch() {
        let spec = StreamSpec {
            rows_per_batch: 100,
            batches: 2,
            seed: 77,
            skew_shift: 3,
        };
        let a: Vec<_> = conviva_stream(spec).collect();
        let b: Vec<_> = conviva_stream(spec).collect();
        assert_eq!(a, b);
        assert_ne!(a[0], a[1], "batches draw independent streams");
    }
}
