//! Partitioned sample storage.
//!
//! §4.2/§5 of the paper: a sample is physically partitioned across the
//! cluster, a query fans out one task per partition, and the partial
//! aggregates are merged. This module carries the *row-level* partition
//! layout; the cluster simulator prices the fan-out and
//! `blinkdb-exec`'s partial-aggregate path consumes one [`Partition`]
//! per task.
//!
//! The load-bearing invariant is *stratum alignment*: a stratified
//! sample's rows are dealt round-robin **within each stratum**, so every
//! partition holds `~1/K` of every stratum. Each partition is therefore
//! a valid mini-sample of the whole table — the per-stratum scale
//! factors (effective sampling rates) of the parent sample remain
//! correct for every partition, and any *prefix* of partitions is an
//! (approximately `m/K`-thinned) stratified sample in its own right.
//! That prefix property is what makes incremental execution with early
//! termination statistically sound.

use crate::table::Table;

/// One partition: an ordered subset of a parent table's physical rows.
///
/// Row indices are kept in the parent's physical order, so a partition
/// of a φ-sorted stratified sample scans its strata contiguously (the
/// §3.1 clustered-layout property survives partitioning).
#[derive(Debug, Clone, Default)]
pub struct Partition {
    rows: Vec<u32>,
}

impl Partition {
    /// The physical row indices of this partition.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Rows in the partition.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the partition holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Simulated logical bytes of this partition of `table`.
    ///
    /// Uses the parent table's logical scale (`logical_rows_per_row`,
    /// `row_bytes`), which [`Table::gather`] propagates from the original
    /// fact table, so partitioned sub-tables report paper-scale sizes.
    pub fn logical_bytes(&self, table: &Table) -> f64 {
        self.rows.len() as f64 * table.logical_rows_per_row() * table.row_bytes() as f64
    }
}

/// A disjoint cover of a row set by `K` partitions.
#[derive(Debug, Clone)]
pub struct PartitionedTable {
    partitions: Vec<Partition>,
    total_rows: usize,
}

impl PartitionedTable {
    /// Stratum-aligned partitioning of `rows` into at most `k` parts.
    ///
    /// `stratum_ids[i]` identifies the stratum of `rows[i]`. Rows of one
    /// stratum must be **consecutive** (the φ-sorted layout of §3.1
    /// guarantees this for sample families); ids label the runs and need
    /// not be contiguous. Position `j` within stratum `s` goes to
    /// partition `(j + s) % k`, so every partition receives `⌊n_s/K⌋` or
    /// `⌈n_s/K⌉` rows of every stratum — proportional allocation,
    /// preserving each stratum's scale factor in every partition.
    ///
    /// The per-stratum rotation by `s` matters for strata *smaller* than
    /// `K`: without it every sub-K stratum (singletons especially) would
    /// clump into the first partitions, and a partition *prefix* — the
    /// unit early termination scans — would over-represent rare strata
    /// and bias the extrapolated estimate. Rotating by stratum id
    /// spreads sub-K strata evenly, keeping any prefix an approximately
    /// proportional mini-sample.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `stratum_ids.len() != rows.len()`.
    pub fn stratum_aligned(rows: &[u32], stratum_ids: &[u32], k: usize) -> Self {
        assert!(k > 0, "partition count must be positive");
        assert_eq!(
            rows.len(),
            stratum_ids.len(),
            "one stratum id per row required"
        );
        #[cfg(debug_assertions)]
        {
            let mut seen = std::collections::HashSet::new();
            for run in stratum_ids.chunk_by(|a, b| a == b) {
                assert!(
                    seen.insert(run[0]),
                    "stratum ids must arrive as consecutive runs"
                );
            }
        }
        let mut partitions = empty_partitions(rows.len(), k);
        let k = partitions.len();
        // Ids arrive as consecutive runs, so a position counter per run
        // replaces a per-row hash lookup on this per-query path.
        let mut at = 0;
        for run in stratum_ids.chunk_by(|a, b| a == b) {
            let sid = run[0] as usize;
            for (pos, &row) in rows[at..at + run.len()].iter().enumerate() {
                partitions[(pos + sid) % k].rows.push(row);
            }
            at += run.len();
        }
        PartitionedTable {
            partitions,
            total_rows: rows.len(),
        }
    }

    /// Round-robin partitioning of `rows` into at most `k` parts — the
    /// single-stratum special case, used for uniform samples (any
    /// proportional split of a uniform sample is again uniform).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn round_robin(rows: &[u32], k: usize) -> Self {
        assert!(k > 0, "partition count must be positive");
        let mut partitions = empty_partitions(rows.len(), k);
        let k = partitions.len();
        for (pos, &row) in rows.iter().enumerate() {
            partitions[pos % k].rows.push(row);
        }
        PartitionedTable {
            partitions,
            total_rows: rows.len(),
        }
    }

    /// Number of partitions (≥ 1; at most the row count).
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The partition at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn partition(&self, idx: usize) -> &Partition {
        &self.partitions[idx]
    }

    /// All partitions in order.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Total rows across all partitions (= the partitioned row set).
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Rows covered by the first `m` partitions.
    pub fn prefix_rows(&self, m: usize) -> usize {
        self.partitions
            .iter()
            .take(m)
            .map(|p| p.len())
            .sum::<usize>()
    }

    /// Checks the disjoint-cover invariant against the source row set:
    /// every source row appears in exactly one partition. Used by tests
    /// and debug assertions.
    pub fn is_disjoint_cover(&self, rows: &[u32]) -> bool {
        let mut seen: Vec<u32> = self
            .partitions
            .iter()
            .flat_map(|p| p.rows.iter().copied())
            .collect();
        seen.sort_unstable();
        let mut expect: Vec<u32> = rows.to_vec();
        expect.sort_unstable();
        seen == expect
    }
}

/// `min(k, n)` (at least one) empty partitions, each with room for its
/// proportional share `⌈n/k⌉` of `n` rows.
fn empty_partitions(n: usize, k: usize) -> Vec<Partition> {
    let k = k.min(n).max(1);
    (0..k)
        .map(|_| Partition {
            rows: Vec::with_capacity(n.div_ceil(k)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blinkdb_common::schema::{Field, Schema};
    use blinkdb_common::value::{DataType, Value};

    /// rows 0..=9 in three strata: a=4 rows, b=5 rows, c=1 row.
    fn fixture() -> (Vec<u32>, Vec<u32>) {
        let rows: Vec<u32> = (0..10).collect();
        let ids = vec![0, 0, 0, 0, 1, 1, 1, 1, 1, 2];
        (rows, ids)
    }

    #[test]
    fn stratum_aligned_is_proportional_per_stratum() {
        let (rows, ids) = fixture();
        let pt = PartitionedTable::stratum_aligned(&rows, &ids, 2);
        assert_eq!(pt.num_partitions(), 2);
        assert!(pt.is_disjoint_cover(&rows));
        // Per partition, stratum a contributes 2 rows, b 2 or 3, c 0 or 1.
        for p in pt.partitions() {
            let a = p.rows().iter().filter(|&&r| ids[r as usize] == 0).count();
            let b = p.rows().iter().filter(|&&r| ids[r as usize] == 1).count();
            assert_eq!(a, 2, "stratum a splits 2+2");
            assert!((2..=3).contains(&b), "stratum b splits 3+2");
        }
    }

    #[test]
    fn partitions_preserve_physical_order() {
        let (rows, ids) = fixture();
        let pt = PartitionedTable::stratum_aligned(&rows, &ids, 3);
        for p in pt.partitions() {
            let mut sorted = p.rows().to_vec();
            sorted.sort_unstable();
            assert_eq!(p.rows(), sorted.as_slice());
        }
        assert!(pt.is_disjoint_cover(&rows));
    }

    #[test]
    fn k_clamped_to_row_count_and_one() {
        let rows = [7u32, 9u32];
        let pt = PartitionedTable::round_robin(&rows, 8);
        assert_eq!(pt.num_partitions(), 2);
        let pt = PartitionedTable::round_robin(&[], 4);
        assert_eq!(pt.num_partitions(), 1);
        assert_eq!(pt.total_rows(), 0);
    }

    #[test]
    fn round_robin_deals_like_one_stratum() {
        // The uniform deal is the stratum-aligned deal of a single
        // stratum: same partitions, same row order within each.
        for (n, k) in [(10u32, 3usize), (2, 8), (0, 4), (1_000, 7)] {
            let rows: Vec<u32> = (0..n).map(|r| r * 3 + 1).collect();
            let direct = PartitionedTable::round_robin(&rows, k);
            let one_stratum = PartitionedTable::stratum_aligned(&rows, &vec![0; rows.len()], k);
            assert_eq!(direct.total_rows(), one_stratum.total_rows());
            let parts = |pt: &PartitionedTable| -> Vec<Vec<u32>> {
                pt.partitions().iter().map(|p| p.rows().to_vec()).collect()
            };
            assert_eq!(parts(&direct), parts(&one_stratum), "n={n} k={k}");
        }
    }

    #[test]
    fn singleton_strata_spread_across_partitions() {
        // 64 singleton strata over 4 partitions: without the stratum-id
        // rotation they would all land in partition 0 and a partition
        // prefix would be wildly unrepresentative.
        let rows: Vec<u32> = (0..64).collect();
        let ids: Vec<u32> = (0..64).collect();
        let pt = PartitionedTable::stratum_aligned(&rows, &ids, 4);
        for p in pt.partitions() {
            assert_eq!(p.len(), 16, "even spread of singleton strata");
        }
        assert!(pt.is_disjoint_cover(&rows));
    }

    #[test]
    fn prefix_rows_accumulate() {
        let (rows, ids) = fixture();
        let pt = PartitionedTable::stratum_aligned(&rows, &ids, 4);
        let mut acc = 0;
        for m in 0..=pt.num_partitions() {
            assert!(pt.prefix_rows(m) >= acc);
            acc = pt.prefix_rows(m);
        }
        assert_eq!(pt.prefix_rows(pt.num_partitions()), 10);
    }

    #[test]
    fn partition_bytes_use_parent_logical_scale() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for i in 0..10 {
            t.push_row(&[Value::Int(i)]).unwrap();
        }
        t.set_logical_scale(100.0, 40);
        // A sub-table built by gather keeps the scale; partitions of it
        // report paper-scale bytes.
        let sub = t.gather(&[0, 1, 2, 3]);
        let rows: Vec<u32> = (0..4).collect();
        let pt = PartitionedTable::round_robin(&rows, 2);
        assert_eq!(pt.partition(0).logical_bytes(&sub), 2.0 * 100.0 * 40.0);
    }
}
