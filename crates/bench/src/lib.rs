//! Shared plumbing for the paper-reproduction bench.
//!
//! `benches/repro.rs` regenerates the paper's evaluation (§6): each
//! figure, table and ablation builds its workload, runs the systems under
//! comparison and returns [`Claim`] rows — the paper's result beside the
//! measured one, with a verdict. [`claims_table`] renders them; the
//! full-size run writes the table to `EXPERIMENTS.md`. `benches/calibration.rs`
//! checks the error-bar contract. Wall-clock numbers come from
//! `blinkbench`, not from here.

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

/// Whether `BLINKDB_BENCH_SMOKE` asks for the CI-sized run.
pub fn smoke() -> bool {
    std::env::var_os("BLINKDB_BENCH_SMOKE").is_some()
}

/// One checked paper claim: a row of the reproduction table.
#[derive(Debug)]
pub struct Claim {
    /// The figure, table or ablation the claim belongs to.
    pub figure: &'static str,
    /// The claim, in the paper's words where it states one.
    pub claim: &'static str,
    /// The paper's value or shape.
    pub paper: &'static str,
    /// What this run measured.
    pub measured: String,
    /// Whether the measurement bears the claim out.
    pub holds: bool,
    /// An asserted claim fails the run when it does not hold.
    pub asserted: bool,
}

impl Claim {
    /// `holds` or `differs`, marked when the claim is asserted.
    pub fn verdict(&self) -> &'static str {
        match (self.holds, self.asserted) {
            (true, false) => "holds",
            (false, false) => "differs",
            (true, true) => "holds (asserted)",
            (false, true) => "FAILS (asserted)",
        }
    }
}

/// Renders `rows` under `header` as a Markdown table.
pub fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let line = |cells: Vec<&str>| format!("| {} |\n", cells.join(" | "));
    let mut out = line(header.to_vec());
    out += &line(vec!["---"; header.len()]);
    for r in rows {
        out += &line(r.iter().map(String::as_str).collect());
    }
    out
}

/// Renders claims as the reproduction table.
pub fn claims_table(claims: &[Claim]) -> String {
    let rows: Vec<Vec<String>> = claims
        .iter()
        .map(|c| {
            vec![
                c.figure.to_string(),
                c.claim.to_string(),
                c.paper.to_string(),
                c.measured.clone(),
                c.verdict().to_string(),
            ]
        })
        .collect();
    table(&["figure", "claim", "paper", "measured", "verdict"], &rows)
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

    #[test]
    fn claims_render_one_row_each_with_a_verdict() {
        let claim = |holds, asserted| Claim {
            figure: "Fig. 0",
            claim: "c",
            paper: "p",
            measured: "m".into(),
            holds,
            asserted,
        };
        let out = claims_table(&[claim(true, false), claim(false, true)]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "| figure | claim | paper | measured | verdict |");
        assert_eq!(lines[2], "| Fig. 0 | c | p | m | holds |");
        assert_eq!(lines[3], "| Fig. 0 | c | p | m | FAILS (asserted) |");
    }
}
