//! Shared plumbing for the figure/table benchmark harnesses.
//!
//! Every `benches/figNN.rs` target regenerates one table or figure of
//! the paper's evaluation (§6): it builds the corresponding workload,
//! runs the systems under comparison, and prints the same rows/series
//! the paper plots. CHANGES.md records the paper-vs-measured values each
//! PR observed; wall-clock numbers live in `blinkbench/README.md`.

use blinkdb_core::blinkdb::{BlinkDb, BlinkDbConfig};
use blinkdb_storage::StorageTier;
use blinkdb_workload::conviva::{conviva_dataset, ConvivaDataset};
use blinkdb_workload::tpch::{tpch_dataset, TpchDataset};

/// Default physical rows for optimizer-heavy experiments (statistics are
/// computed over every candidate column set, so this is the knob that
/// bounds setup time).
pub const OPT_ROWS: usize = 120_000;

/// Default physical rows for error/latency experiments.
pub const RUN_ROWS: usize = 200_000;

/// A BlinkDB configuration tuned for the harnesses: deterministic,
/// paper-like caps scaled to the generated data.
pub fn bench_config() -> BlinkDbConfig {
    let mut cfg = BlinkDbConfig::default();
    // The paper sets K = 100 000 on 5.5 B logical rows: head strata
    // (popular cities, days, ASNs) are far above the cap and get
    // sampled; tail strata stay whole and count toward Δ. Preserving
    // that head/tail split on ~10⁵ physical rows needs a cap well below
    // the head-stratum frequencies (~10⁴ rows) and above typical tail
    // frequencies: K = 150.
    cfg.stratified.cap = 150.0;
    cfg.stratified.shrink = 2.0;
    cfg.stratified.resolutions = 6;
    cfg.uniform.cap = 0.2;
    // Deep uniform ladder: smallest resolution 0.2/2⁷ ≈ 0.0016 of the
    // table, so 1–2 s budgets are satisfiable at 17 TB logical scale.
    cfg.uniform.resolutions = 8;
    cfg.optimizer.cap = 150.0;
    cfg.seed = 2013;
    cfg
}

/// Builds the Conviva workload + BlinkDB instance with samples created at
/// `budget_fraction`.
pub fn conviva_db(rows: usize, budget_fraction: f64) -> (ConvivaDataset, BlinkDb) {
    let dataset = conviva_dataset(rows, 2013);
    let mut db = BlinkDb::new(dataset.table.clone(), bench_config());
    db.create_samples(&dataset.templates, budget_fraction)
        .expect("sample creation");
    (dataset, db)
}

/// Builds the TPC-H workload + BlinkDB instance.
pub fn tpch_db(rows: usize, budget_fraction: f64) -> (TpchDataset, BlinkDb) {
    let dataset = tpch_dataset(rows, 2013);
    let mut db = BlinkDb::new(dataset.lineitem.clone(), bench_config());
    db.add_dimension(dataset.orders.clone());
    db.create_samples(&dataset.templates, budget_fraction)
        .expect("sample creation");
    (dataset, db)
}

/// Moves every sample family of `db` to `tier` (Fig. 8(c)'s cached vs.
/// disk split).
pub fn set_all_tiers(db: &mut BlinkDb, tier: StorageTier) {
    for i in 0..db.families().len() {
        db.set_family_tier(i, tier);
    }
}

/// Prints a header box for a harness.
pub fn banner(title: &str, caption: &str) {
    println!("\n=== {title} ===");
    println!("{caption}");
    println!("{}", "-".repeat(72));
}

/// Prints one aligned row of up to 8 columns.
pub fn row(cells: &[String]) {
    let mut line = String::new();
    for c in cells {
        line.push_str(&format!("{c:>16}"));
    }
    println!("{line}");
}

/// Convenience: a `String` cell from a float with given precision.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_setup_builds_samples() {
        let (dataset, db) = conviva_db(8_000, 0.5);
        assert_eq!(dataset.templates.len(), 42);
        assert!(db.families().len() >= 2);
    }
}
