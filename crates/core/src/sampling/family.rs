//! The sample family type shared by uniform and stratified sampling.

use blinkdb_common::error::{BlinkError, Result};
use blinkdb_exec::RateSpec;
use blinkdb_sql::template::ColumnSet;
use blinkdb_storage::{PartitionedTable, Residency, StorageTier, Table, TableRef};

/// Parameters for building a family.
#[derive(Debug, Clone, Copy)]
pub struct FamilyConfig {
    /// Largest cap `K₁` (stratified, in physical rows) or largest
    /// sampling fraction `p₁ ∈ (0,1]` (uniform).
    pub cap: f64,
    /// Shrink factor `c > 1` between successive resolutions
    /// (`Kᵢ = ⌊K₁/cⁱ⌋`).
    pub shrink: f64,
    /// Number of resolutions `m ≥ 1` (clamped so the smallest cap stays
    /// ≥ 1 row / the smallest uniform size stays ≥ 1 row).
    pub resolutions: usize,
    /// Storage-tier *override* for the family. [`StorageTier::Memory`]
    /// (the default) means "no override": the priced tier derives from
    /// the family's actual [`Residency`] — in-RAM for families built
    /// from a live table, the backing tier for families loaded from
    /// persisted segments. A non-memory value pins the tier explicitly
    /// (the Fig. 8(c) cached-vs-disk knob).
    pub tier: StorageTier,
    /// RNG seed for row selection.
    pub seed: u64,
}

impl Default for FamilyConfig {
    fn default() -> Self {
        FamilyConfig {
            cap: 100_000.0,
            shrink: 2.0,
            resolutions: 4,
            tier: StorageTier::Memory,
            seed: 0,
        }
    }
}

impl FamilyConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.cap <= 0.0 {
            return Err(BlinkError::plan("family cap must be positive"));
        }
        if self.shrink <= 1.0 {
            return Err(BlinkError::plan("shrink factor c must be > 1"));
        }
        if self.resolutions == 0 {
            return Err(BlinkError::plan("a family needs at least one resolution"));
        }
        Ok(())
    }
}

/// One resolution of a family: a nested subset of the family table.
#[derive(Debug, Clone)]
pub struct Resolution {
    /// Cap `Kᵢ` (stratified) or target row count (uniform).
    pub cap: f64,
    /// Uniform sampling rate `pᵢ` (1.0 and unused for stratified).
    pub rate: f64,
    /// Physical rows of the family table in this resolution.
    pub(crate) rows: Vec<u32>,
}

impl Resolution {
    /// Rows in this resolution.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the resolution is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// `SFam(φ)` — a multi-resolution sample family (§3.1, eq. 1).
///
/// Resolutions are stored smallest-first; `smallest()` is the probe
/// target of §4.1 and `largest()` determines the family's storage cost
/// (nested layout, Fig. 3).
#[derive(Debug, Clone)]
pub struct SampleFamily {
    pub(crate) columns: ColumnSet,
    pub(crate) table: Table,
    /// Original-table stratum frequency per family-table row (all 1.0 for
    /// uniform families, where rates live on the resolutions instead).
    pub(crate) freqs: Vec<f64>,
    /// Stratum run id per family-table row (empty for uniform families):
    /// rows sharing a φ-value combination share an id. Precomputed at
    /// build time so per-query partitioning never re-derives φ keys.
    pub(crate) stratum_ids: Vec<u32>,
    /// Fact-table physical row behind each family-table row. Appends
    /// never disturb existing fact rows, so these indices stay valid
    /// across ingestion — they are what lets delta maintenance
    /// ([`crate::sampling::delta`]) rebuild the family table with one
    /// `gather` instead of a full resample.
    pub(crate) source_rows: Vec<u32>,
    /// Per-row position within its stratum's build-time shuffle
    /// (stratified families only; empty for uniform). Rows with position
    /// `< Kᵢ` form resolution `i`; positions are a uniform random
    /// permutation per stratum, maintained by the reservoir fold.
    pub(crate) shuffle_pos: Vec<u32>,
    /// Smallest-first.
    pub(crate) resolutions: Vec<Resolution>,
    /// Where the family's backing rows physically are: in-RAM for
    /// families built (or folded/refreshed) from a live table, the
    /// backing tier for families reconstructed from persisted segments
    /// that have not been paged in yet. The priced tier derives from
    /// this unless `tier_override` pins it.
    pub(crate) residency: Residency,
    /// Explicit tier override (the old `set_tier` knob); `None` derives
    /// the tier from `residency`.
    pub(crate) tier_override: Option<StorageTier>,
    pub(crate) uniform: bool,
}

impl SampleFamily {
    /// The column set φ this family is stratified on (empty for uniform).
    pub fn columns(&self) -> &ColumnSet {
        &self.columns
    }

    /// Whether this is the uniform family.
    pub fn is_uniform(&self) -> bool {
        self.uniform
    }

    /// Human-readable label, e.g. `uniform` or `[dt country]`.
    pub fn label(&self) -> String {
        if self.uniform {
            "uniform".to_string()
        } else {
            let names: Vec<&str> = self.columns.iter().collect();
            format!("[{}]", names.join(" "))
        }
    }

    /// The shared physical table (largest resolution's rows, sorted by φ).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Number of resolutions.
    pub fn num_resolutions(&self) -> usize {
        self.resolutions.len()
    }

    /// Index of the smallest resolution (the §4.1 probe target).
    pub fn smallest(&self) -> usize {
        0
    }

    /// Index of the largest resolution.
    pub fn largest(&self) -> usize {
        self.resolutions.len() - 1
    }

    /// The resolution at `idx` (smallest-first order).
    pub fn resolution(&self, idx: usize) -> &Resolution {
        &self.resolutions[idx]
    }

    /// The storage tier scans of this family are priced at: the explicit
    /// override when one was set ([`SampleFamily::set_tier`]), otherwise
    /// derived from the actual [`Residency`] of the backing rows —
    /// memory bandwidth for resident families, the backing tier for
    /// families loaded from persisted segments and not yet paged in.
    pub fn tier(&self) -> StorageTier {
        self.tier_override.unwrap_or_else(|| self.residency.tier())
    }

    /// Re-homes the family (memory ↔ disk) — an *explicit override* of
    /// the residency-derived tier, kept for the Fig. 8(c) cached/no-cache
    /// comparison and simulated mixed-tier clusters.
    pub fn set_tier(&mut self, tier: StorageTier) {
        self.tier_override = Some(tier);
    }

    /// Where the family's backing rows physically are.
    pub fn residency(&self) -> Residency {
        self.residency
    }

    /// Marks the family's segments as materialized in RAM: scans price
    /// at memory bandwidth from now on (unless an explicit override
    /// pins another tier). Folds and refreshes do this implicitly — they
    /// regather the family table from the in-memory fact table.
    pub fn page_in(&mut self) {
        self.residency = Residency::Resident;
    }

    /// Marks the family's backing rows as demoted to disk: scans price
    /// at the disk tier until [`SampleFamily::page_in`] promotes them
    /// again. The inverse of page-in, used by background compaction to
    /// shed RAM for cold generations. Pure pricing — no rows move and
    /// no seed stream rotates, so answers stay bit-identical.
    pub fn demote(&mut self) {
        self.residency = Residency::Loaded(StorageTier::Disk);
    }

    /// Execution view of a resolution: the row subset plus the matching
    /// rate specification for Horvitz–Thompson correction.
    pub fn view(&self, idx: usize) -> (TableRef<'_>, RateSpec<'_>) {
        let res = &self.resolutions[idx];
        let rates = if self.uniform {
            RateSpec::Uniform(res.rate)
        } else {
            RateSpec::StratifiedCap {
                freqs: &self.freqs,
                cap: res.cap,
            }
        };
        (TableRef::subset(&self.table, &res.rows), rates)
    }

    /// Splits resolution `idx` into at most `k` stratum-aligned
    /// partitions for data-parallel execution (§4.2/§5).
    ///
    /// Every run of rows in shuffle order is dealt into `k` contiguous
    /// blocks, one per partition ([`PartitionedTable`]): each φ-stratum
    /// of a stratified family (a contiguous run of the φ-sorted table,
    /// sorted by shuffle position within), or the uniform family's
    /// shuffled build region (one shuffle whose prefixes are the
    /// resolutions). A block of a shuffled run is a uniform random subset
    /// of it, so every partition holds a proportional share of every run
    /// and remains a valid mini-sample under the family's per-row rates,
    /// and a partition scan reads whole blocks.
    ///
    /// Rows [`crate::sampling::fold_uniform`] appended after the build
    /// are in arrival order, so they are dealt round-robin instead; they
    /// are the longest strictly ascending suffix of the family's source
    /// rows (a few build rows that happen to ascend at its end join
    /// them, which costs nothing but a copy). Without them every
    /// partition of a uniform resolution borrows its block of the
    /// resolution's rows.
    pub fn partitioned(&self, idx: usize, k: usize) -> PartitionedTable<'_> {
        let res = &self.resolutions[idx];
        if self.uniform {
            let arrivals = arrival_order_start(&self.source_rows) as u32;
            let shuffled = res.rows.partition_point(|&r| r < arrivals);
            return PartitionedTable::uniform(&res.rows, shuffled, k);
        }
        // Stratum run ids were precomputed at build time; project them
        // onto the resolution's rows.
        let ids: Vec<u32> = res
            .rows
            .iter()
            .map(|&r| self.stratum_ids[r as usize])
            .collect();
        PartitionedTable::stratum_aligned(&res.rows, &ids, k)
    }

    /// Simulated bytes of a resolution.
    pub fn resolution_bytes(&self, idx: usize) -> f64 {
        self.resolutions[idx].len() as f64
            * self.table.logical_rows_per_row()
            * self.table.row_bytes() as f64
    }

    /// Storage cost of the whole family — the largest resolution only,
    /// thanks to the nested layout (§3.1 "we only need storage for the
    /// sample corresponding to K₁").
    pub fn storage_bytes(&self) -> f64 {
        self.resolution_bytes(self.largest())
    }

    /// The stratum frequency recorded at build time for a family-table
    /// row (`F(φ, T, x)` of Table 1; 1.0 for uniform families). Used by
    /// maintenance drift detection.
    pub fn recorded_freq(&self, row: usize) -> f64 {
        self.freqs[row]
    }

    /// The fact-table physical row behind family-table row `row`.
    pub fn source_row(&self, row: usize) -> u32 {
        self.source_rows[row]
    }

    /// Horvitz–Thompson weight skew: ratio of the largest to the
    /// smallest recorded stratum frequency across the family table
    /// (1.0 for uniform families, whose per-row weights are equal). A
    /// growing skew means a few strata dominate the reweighting and
    /// the family's variance estimates are increasingly fragile.
    pub fn weight_skew(&self) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for &f in &self.freqs {
            if f > 0.0 {
                min = min.min(f);
                max = max.max(f);
            }
        }
        if min.is_finite() && min > 0.0 {
            max / min
        } else {
            1.0
        }
    }

    /// Reservoir fill fraction of the largest resolution: rows actually
    /// held over the capacity its caps allow (per-stratum cap × strata
    /// for stratified families, the target row count for uniform).
    /// Strata smaller than the cap keep this below 1 legitimately; a
    /// sudden drop signals a starved reservoir.
    pub fn fill_fraction(&self) -> f64 {
        let res = &self.resolutions[self.largest()];
        let capacity = if self.uniform {
            res.cap
        } else {
            let strata = self
                .stratum_ids
                .iter()
                .copied()
                .max()
                .map_or(0, |m| m as usize + 1);
            res.cap * strata as f64
        };
        if capacity <= 0.0 {
            0.0
        } else {
            (res.len() as f64 / capacity).min(1.0)
        }
    }

    /// Checks the nesting invariant: every resolution's rows are a subset
    /// of the next larger one's. Used by tests and debug assertions.
    pub fn check_nested(&self) -> bool {
        for w in self.resolutions.windows(2) {
            let small: std::collections::HashSet<u32> = w[0].rows.iter().copied().collect();
            let large: std::collections::HashSet<u32> = w[1].rows.iter().copied().collect();
            if !small.is_subset(&large) {
                return false;
            }
        }
        true
    }
}

/// Start of the longest strictly ascending suffix of `source_rows`: the
/// first row of the uniform family's arrival-order tail. A fold appends
/// fact rows in arrival order, and fact rows only grow, so the tail
/// ascends; the shuffled build region ends in a descent but for the
/// few rows that ascend by chance.
fn arrival_order_start(source_rows: &[u32]) -> usize {
    let mut start = source_rows.len().saturating_sub(1);
    while start > 0 && source_rows[start - 1] < source_rows[start] {
        start -= 1;
    }
    start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(FamilyConfig::default().validate().is_ok());
        assert!(FamilyConfig {
            cap: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(FamilyConfig {
            shrink: 1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(FamilyConfig {
            resolutions: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }
}
