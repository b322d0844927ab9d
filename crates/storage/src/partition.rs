//! Partitioned sample storage.
//!
//! §4.2/§5 of the paper: a sample is physically partitioned across the
//! cluster, a query fans out one task per partition, and the partial
//! aggregates are merged. This module carries the *row-level* partition
//! layout; the cluster simulator prices the fan-out and
//! `blinkdb-exec`'s partial-aggregate path consumes one [`Partition`]
//! per task.
//!
//! Rows are dealt per **run**: a stratum of a stratified sample, or the
//! shuffled build region of the uniform sample. List position `j` of a
//! run with `n` rows and run index `s` goes to partition
//! `(⌊j·K/n⌋ + s) mod K`, so a run of `n ≥ K` rows lands as K
//! **contiguous blocks**, one per partition, and a partition scan reads
//! whole blocks instead of every K-th row. The deal is sound because
//! every such run is already in *shuffle order* — a uniform random
//! permutation of its rows (the uniform build is one shuffle with nested
//! prefixes; a stratum's rows sit sorted by their shuffle position) — so
//! a contiguous block is a uniform random subset of its run.
//!
//! The load-bearing invariant is *stratum alignment*: every partition
//! holds `⌊n/K⌋..⌈n/K⌉` rows of every run. Each partition is therefore
//! a valid mini-sample of the whole table — the per-stratum scale
//! factors (effective sampling rates) of the parent sample remain
//! correct for every partition, and any *prefix* of partitions is an
//! (approximately `m/K`-thinned) stratified sample in its own right.
//! That prefix property is what makes incremental execution with early
//! termination statistically sound.
//!
//! Rows that arrived after the build (the uniform family's fold tail)
//! are in *arrival* order, where a block would be a time slice; they are
//! dealt round-robin as a run of their own (see
//! [`PartitionedTable::uniform`]).

use std::borrow::Cow;
use std::ops::Range;

/// One partition: an ordered subset of a parent table's physical rows.
///
/// Row indices are kept in the parent's physical order, so a partition
/// of a φ-sorted stratified sample scans its strata contiguously (the
/// §3.1 clustered-layout property survives partitioning). A partition
/// that is one contiguous block of its source list borrows it.
#[derive(Debug, Clone, Default)]
pub struct Partition<'a> {
    rows: Cow<'a, [u32]>,
}

impl Partition<'_> {
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
}

/// A disjoint cover of a row set by `K` partitions.
#[derive(Debug, Clone)]
pub struct PartitionedTable<'a> {
    partitions: Vec<Partition<'a>>,
    total_rows: usize,
}

impl<'a> PartitionedTable<'a> {
    /// Stratum-aligned partitioning of `rows` into at most `k` parts.
    ///
    /// `stratum_ids[i]` identifies the stratum of `rows[i]`. Rows of one
    /// stratum must be **consecutive** (the φ-sorted layout of §3.1
    /// guarantees this for sample families) and in shuffle order; ids
    /// label the runs and need not be contiguous. Position `j` of an
    /// `n`-row stratum with id `s` goes to partition
    /// `(⌊j·K/n⌋ + s) mod K`, so every partition receives `⌊n/K⌋` or
    /// `⌈n/K⌉` rows of every stratum — one contiguous block of it when
    /// `n ≥ K` — which is proportional allocation, preserving each
    /// stratum's scale factor in every partition.
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
        let k = clamped(k, rows.len());
        let mut parts: Vec<Vec<u32>> = (0..k)
            .map(|_| Vec::with_capacity(rows.len().div_ceil(k)))
            .collect();
        // Ids arrive as consecutive runs, so one pass over the runs
        // replaces a per-row hash lookup on this per-query path.
        let mut at = 0;
        for run in stratum_ids.chunk_by(|a, b| a == b) {
            deal_blocks(&mut parts, &rows[at..at + run.len()], run[0] as usize);
            at += run.len();
        }
        PartitionedTable {
            partitions: parts
                .into_iter()
                .map(|rows| Partition {
                    rows: Cow::Owned(rows),
                })
                .collect(),
            total_rows: rows.len(),
        }
    }

    /// Partitioning of a uniform sample's `rows` into at most `k` parts.
    ///
    /// `rows[..shuffled]` is one shuffle-ordered run — the single-stratum
    /// case of [`PartitionedTable::stratum_aligned`] (any proportional
    /// split of a uniform sample is again uniform). Its blocks are
    /// borrowed from `rows`, so a resolution without arrival-order rows
    /// partitions without copying a row.
    ///
    /// `rows[shuffled..]` are in arrival order, where a contiguous block
    /// would be a time slice and a partition prefix would over-represent
    /// the oldest arrivals. They form a second run (index 1) dealt
    /// round-robin: position `j` goes to partition `(j + 1) mod K`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `shuffled > rows.len()`.
    pub fn uniform(rows: &'a [u32], shuffled: usize, k: usize) -> Self {
        let k = clamped(k, rows.len());
        let (head, tail) = rows.split_at(shuffled);
        let partitions = (0..k)
            .map(|b| {
                let block = &head[block(b, head.len(), k)];
                // Tail positions `j` with `(j + 1) mod k == b`.
                let first = (b + k - 1) % k;
                let rows = if first < tail.len() {
                    let mut owned =
                        Vec::with_capacity(block.len() + (tail.len() - first).div_ceil(k));
                    owned.extend_from_slice(block);
                    owned.extend(tail[first..].iter().step_by(k));
                    Cow::Owned(owned)
                } else {
                    Cow::Borrowed(block)
                };
                Partition { rows }
            })
            .collect();
        PartitionedTable {
            partitions,
            total_rows: rows.len(),
        }
    }

    /// Number of partitions (≥ 1; at most the row count).
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// All partitions in order.
    pub fn partitions(&self) -> &[Partition<'a>] {
        &self.partitions
    }

    /// Total rows across all partitions (= the partitioned row set).
    pub fn total_rows(&self) -> usize {
        self.total_rows
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

/// The partition count for `n` rows: `min(k, n)`, at least one.
///
/// # Panics
///
/// Panics if `k == 0`.
fn clamped(k: usize, n: usize) -> usize {
    assert!(k > 0, "partition count must be positive");
    k.min(n).max(1)
}

/// List positions `j` of an `n`-row run with `⌊j·k/n⌋ = b`: block `b`
/// of the run's `k` contiguous blocks.
fn block(b: usize, n: usize, k: usize) -> Range<usize> {
    (b * n).div_ceil(k)..((b + 1) * n).div_ceil(k)
}

/// Deals one shuffle-ordered run with rotation `s`: position `j` of its
/// `n` rows goes to `parts[(⌊j·K/n⌋ + s) mod K]`.
fn deal_blocks(parts: &mut [Vec<u32>], run: &[u32], s: usize) {
    let (n, k) = (run.len(), parts.len());
    if n < k {
        // A sub-K run puts one row in each of n partitions, about K/n
        // apart. Walking its n rows beats walking K mostly empty blocks
        // when a family has many small strata.
        for (j, &row) in run.iter().enumerate() {
            parts[(j * k / n + s) % k].push(row);
        }
        return;
    }
    for b in 0..k {
        parts[(b + s) % k].extend_from_slice(&run[block(b, n, k)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let pt = PartitionedTable::uniform(&rows, 2, 8);
        assert_eq!(pt.num_partitions(), 2);
        let pt = PartitionedTable::uniform(&[], 0, 4);
        assert_eq!(pt.num_partitions(), 1);
        assert_eq!(pt.total_rows(), 0);
    }

    fn parts(pt: &PartitionedTable) -> Vec<Vec<u32>> {
        pt.partitions().iter().map(|p| p.rows().to_vec()).collect()
    }

    #[test]
    fn uniform_deals_its_shuffled_rows_like_one_stratum() {
        // The uniform deal of a tail-free row list is the stratum-aligned
        // deal of a single stratum: same partitions, same row order.
        for (n, k) in [(10u32, 3usize), (2, 8), (0, 4), (1_000, 7)] {
            let rows: Vec<u32> = (0..n).map(|r| r * 3 + 1).collect();
            let direct = PartitionedTable::uniform(&rows, rows.len(), k);
            let one_stratum = PartitionedTable::stratum_aligned(&rows, &vec![0; rows.len()], k);
            assert_eq!(direct.total_rows(), one_stratum.total_rows());
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
        // Stratum s lands in partition s mod 4.
        for (b, p) in pt.partitions().iter().enumerate() {
            assert!(p.rows().iter().all(|&r| r as usize % 4 == b));
        }
    }

    #[test]
    fn tail_free_uniform_partitions_borrow_their_blocks() {
        let rows: Vec<u32> = (0..1_000).map(|r| r * 2).collect();
        let pt = PartitionedTable::uniform(&rows, rows.len(), 7);
        for p in pt.partitions() {
            assert!(matches!(p.rows, Cow::Borrowed(_)), "no copy without a tail");
        }
        // Three arrival-order rows land in partitions 1, 2 and 3; only
        // those copy.
        let pt = PartitionedTable::uniform(&rows, rows.len() - 3, 7);
        for (b, p) in pt.partitions().iter().enumerate() {
            let owned = matches!(p.rows, Cow::Owned(_));
            assert_eq!(owned, (1..=3).contains(&b), "partition {b}");
        }
    }

    /// One run of a deal under test: its rows in list order, and whether
    /// it is shuffle-ordered (dealt in blocks) or arrival-ordered.
    struct Run<'r> {
        rows: &'r [u32],
        shuffled: bool,
    }

    /// The deal's invariants for one partitioning of `runs`.
    fn check(pt: &PartitionedTable, asked: usize, runs: &[Run], all: &[u32], what: &str) {
        let k = pt.num_partitions();
        assert_eq!(k, asked.min(all.len()).max(1), "{what}: partition count");
        assert_eq!(pt.total_rows(), all.len(), "{what}");
        assert!(pt.is_disjoint_cover(all), "{what}: disjoint cover");
        for p in pt.partitions() {
            assert!(p.rows().is_sorted_by(|a, b| a < b), "{what}: ascending");
        }
        for (r, run) in runs.iter().enumerate() {
            let n = run.rows.len();
            for (b, p) in pt.partitions().iter().enumerate() {
                // Positions in the run of this partition's rows of it.
                let at: Vec<usize> = p
                    .rows()
                    .iter()
                    .filter_map(|row| run.rows.binary_search(row).ok())
                    .collect();
                assert!(
                    (n / k..=n.div_ceil(k)).contains(&at.len()),
                    "{what}: run {r} gives partition {b} {} of {n} rows",
                    at.len()
                );
                if run.shuffled && n >= k {
                    assert!(
                        at.windows(2).all(|w| w[1] == w[0] + 1),
                        "{what}: run {r} is one contiguous block in partition {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn deal_invariants_hold_for_every_shape() {
        for k in [1usize, 7, 100] {
            for n in 0..=5 * k {
                // Odd row ids, ascending: never just list positions.
                let all: Vec<u32> = (0..n as u32).map(|r| 2 * r + 1).collect();
                let one = Run {
                    rows: &all,
                    shuffled: true,
                };
                let what = format!("uniform k={k} n={n}");
                check(
                    &PartitionedTable::uniform(&all, n, k),
                    k,
                    &[one],
                    &all,
                    &what,
                );

                let shuffled = n - n / 3;
                let (head, tail) = all.split_at(shuffled);
                let runs = [
                    Run {
                        rows: head,
                        shuffled: true,
                    },
                    Run {
                        rows: tail,
                        shuffled: false,
                    },
                ];
                let what = format!("uniform+tail k={k} n={n}");
                check(
                    &PartitionedTable::uniform(&all, shuffled, k),
                    k,
                    &runs,
                    &all,
                    &what,
                );

                // Strata: half the rows in one, the rest in runs of
                // 1, 2, k-1 and k+1 rows (the last one cut short).
                let mut ids = Vec::with_capacity(n);
                let mut sizes = [1, 2, k.saturating_sub(1).max(1), k + 1]
                    .into_iter()
                    .cycle();
                let mut size = n / 2;
                let mut id = 0u32;
                while ids.len() < n {
                    let take = size.min(n - ids.len()).max(1);
                    ids.extend(std::iter::repeat_n(id * 3 + 5, take));
                    id += 1;
                    size = sizes.next().unwrap();
                }
                let runs: Vec<Run> = ids
                    .chunk_by(|a, b| a == b)
                    .scan(0, |at, run| {
                        let rows = &all[*at..*at + run.len()];
                        *at += run.len();
                        Some(Run {
                            rows,
                            shuffled: true,
                        })
                    })
                    .collect();
                let what = format!("strata k={k} n={n}");
                check(
                    &PartitionedTable::stratum_aligned(&all, &ids, k),
                    k,
                    &runs,
                    &all,
                    &what,
                );
            }
        }
    }
}
