//! Sample maintenance (§4.5) and data/workload variation handling
//! (§3.2.3).
//!
//! Offline samples can become unrepresentative as data arrives. BlinkDB
//! periodically (the paper: daily) recomputes data statistics, decides
//! whether the current families are still effective, and replaces samples
//! with a low-priority background task. We model the decision logic:
//!
//! * [`family_drift`] — how far a family's recorded stratum distribution
//!   has drifted from the current table (total-variation distance);
//! * [`Maintainer`] — tracks drift per family and recommends actions:
//!   refresh (resample same φ) past a drift threshold, or re-solve the
//!   optimizer (with the eq. 5 churn constraint) when the workload's
//!   templates changed;
//! * [`Compactor`] — the background segment-lifecycle task: merges runs
//!   of small same-generation segments into larger generations (pure
//!   metadata, readers never block) and manages family residency —
//!   demoting families the workload has gone cold on to disk pricing
//!   and predictively paging hot ones back in. Neither side advances
//!   the data epoch, so compaction can never perturb bootstrap seed
//!   streams or published answers.

use crate::blinkdb::BlinkDb;
use blinkdb_common::error::Result;
use blinkdb_common::rng::derive_seed;
use blinkdb_sql::template::WeightedTemplate;
use blinkdb_storage::{Residency, SegmentMeta};
use std::collections::HashMap;

/// Total-variation distance between a family's recorded stratum
/// frequencies and the current table's (0 = identical distributions,
/// 1 = disjoint).
///
/// The family stores `F(φ, T₀, x)` per row from build time; the current
/// table provides `F(φ, T₁, x)`. Both are normalized to probability
/// distributions over strata before comparison, so pure table growth
/// with an unchanged *shape* registers as zero drift.
pub fn family_drift(db: &BlinkDb, family_idx: usize) -> Result<f64> {
    let family = &db.families()[family_idx];
    if family.is_uniform() {
        // The uniform family has no strata; size change is handled by
        // refresh scheduling, not drift.
        return Ok(0.0);
    }
    let names: Vec<String> = family.columns().iter().map(|s| s.to_string()).collect();
    let cols = db.fact().resolve_columns(&names)?;
    let current = db.fact().group_frequencies(&cols);

    // Recorded distribution: stratum key -> recorded frequency. The
    // family table stores one freq per row; strata repeat, so dedupe.
    let fam_table = family.table();
    let fam_cols = fam_table.resolve_columns(&names)?;
    let mut recorded: HashMap<Vec<blinkdb_common::Value>, f64> = HashMap::new();
    for row in 0..fam_table.num_rows() {
        let key = fam_table.row_key(row, &fam_cols);
        let freq = family.recorded_freq(row);
        recorded.entry(key).or_insert(freq);
    }

    let total_cur: f64 = current.values().map(|&v| v as f64).sum();
    let total_rec: f64 = recorded.values().sum();
    if total_cur == 0.0 || total_rec == 0.0 {
        return Ok(1.0);
    }
    let mut tv = 0.0;
    let mut seen = std::collections::HashSet::new();
    for (k, &c) in &current {
        let r = recorded.get(k).copied().unwrap_or(0.0);
        tv += (c as f64 / total_cur - r / total_rec).abs();
        seen.insert(k.clone());
    }
    for (k, &r) in &recorded {
        if !seen.contains(k) {
            tv += r / total_rec;
        }
    }
    Ok(tv / 2.0)
}

/// Fraction of the current table's strata (distinct φ-value
/// combinations over the family's columns) that are represented by at
/// least one row of the family sample (1.0 for the uniform family,
/// which has no strata). Strata can legitimately sit just under 1.0
/// between a skewed append and the next maintenance pass; a persistent
/// gap means the sample is blind to part of the table.
pub fn family_stratum_coverage(db: &BlinkDb, family_idx: usize) -> Result<f64> {
    let family = &db.families()[family_idx];
    if family.is_uniform() {
        return Ok(1.0);
    }
    let names: Vec<String> = family.columns().iter().map(|s| s.to_string()).collect();
    let cols = db.fact().resolve_columns(&names)?;
    let current = db.fact().group_frequencies(&cols);
    if current.is_empty() {
        return Ok(1.0);
    }
    let fam_table = family.table();
    let fam_cols = fam_table.resolve_columns(&names)?;
    let mut covered: std::collections::HashSet<Vec<blinkdb_common::Value>> =
        std::collections::HashSet::new();
    for row in 0..fam_table.num_rows() {
        covered.insert(fam_table.row_key(row, &fam_cols));
    }
    let hit = current.keys().filter(|k| covered.contains(*k)).count();
    Ok(hit as f64 / current.len() as f64)
}

/// A maintenance recommendation for one tick.
#[derive(Debug, Clone, PartialEq)]
pub enum MaintenanceAction {
    /// All families healthy; nothing to do.
    Healthy,
    /// These family indices drifted past the threshold and should be
    /// resampled in the background.
    Refresh(Vec<usize>),
}

/// What one online maintenance pass did, per family (see
/// [`Maintainer::fold_or_refresh`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestMaintenance {
    /// Families whose recorded distribution was close enough to the
    /// grown table that the appended rows were folded in incrementally.
    pub folded: Vec<usize>,
    /// Families whose drift crossed the threshold and were fully
    /// resampled instead.
    pub refreshed: Vec<usize>,
}

/// The RNG seed for folding or refreshing family `idx` at `db`'s current
/// epoch. Stateless on purpose: WAL replay walks the same epochs as the
/// live ingest did, so a recovered store draws the same reservoirs —
/// a counter held in the [`Maintainer`] would restart on recovery.
fn maintenance_seed(db: &BlinkDb, idx: usize) -> u64 {
    let epoch_stream = derive_seed(db.config().seed, 0x5EED_F01D ^ db.epoch().get());
    derive_seed(epoch_stream, idx as u64)
}

/// Tracks drift and schedules refreshes.
#[derive(Debug, Clone)]
pub struct Maintainer {
    /// Drift (total variation) beyond which a family is refreshed.
    pub drift_threshold: f64,
    /// Data epoch at each family's last fold/refresh, for the
    /// epochs-stale health gauge (absent = never touched since build).
    last_touched: HashMap<usize, u64>,
    /// Optional telemetry sink: fold/refresh wall durations land in
    /// `blinkdb_maintenance_fold_seconds` /
    /// `blinkdb_maintenance_refresh_seconds` histograms, and
    /// [`Maintainer::publish_health`] registers the per-family
    /// sample-health gauges.
    telemetry: Option<blinkdb_telemetry::Registry>,
}

impl Default for Maintainer {
    fn default() -> Self {
        Maintainer {
            drift_threshold: 0.05,
            last_touched: HashMap::new(),
            telemetry: None,
        }
    }
}

impl Maintainer {
    /// Creates a maintainer with a custom threshold.
    pub fn new(drift_threshold: f64) -> Self {
        Maintainer {
            drift_threshold,
            ..Maintainer::default()
        }
    }

    /// Registers maintenance durations into `registry` from now on.
    pub fn with_telemetry(mut self, registry: blinkdb_telemetry::Registry) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// Inspects every family and reports which need refreshing.
    pub fn inspect(&self, db: &BlinkDb) -> Result<MaintenanceAction> {
        let mut stale = Vec::new();
        for idx in 0..db.families().len() {
            if family_drift(db, idx)? > self.drift_threshold {
                stale.push(idx);
            }
        }
        Ok(if stale.is_empty() {
            MaintenanceAction::Healthy
        } else {
            MaintenanceAction::Refresh(stale)
        })
    }

    /// Runs one maintenance tick: refreshes drifted families in place
    /// (the low-priority background task of §4.5, executed synchronously
    /// here) and returns what was done.
    pub fn tick(&mut self, db: &mut BlinkDb) -> Result<MaintenanceAction> {
        let action = self.inspect(db)?;
        if let MaintenanceAction::Refresh(stale) = &action {
            for &idx in stale {
                let start = std::time::Instant::now();
                db.refresh_family(idx, maintenance_seed(db, idx))?;
                if let Some(t) = &self.telemetry {
                    t.histogram("blinkdb_maintenance_refresh_seconds")
                        .observe(start.elapsed().as_secs_f64());
                }
            }
            let epoch = db.epoch().get();
            for &idx in stale {
                self.last_touched.insert(idx, epoch);
            }
        }
        Ok(action)
    }

    /// One online maintenance pass over freshly-appended fact rows
    /// (`appended`, as returned by [`BlinkDb::append_rows`]): for every
    /// family, measures [`family_drift`] against the grown table and
    /// either *folds* the delta in incrementally (drift under the
    /// threshold — the cheap `O(batch + sample)` path of
    /// [`crate::sampling::delta`]) or falls back to a full
    /// [`BlinkDb::refresh_family`] resample (the appended data shifted
    /// the stratum distribution too hard for the existing sample's shape
    /// to be salvageable). The §4.5 background task, online.
    pub fn fold_or_refresh(
        &mut self,
        db: &mut BlinkDb,
        appended: std::ops::Range<usize>,
    ) -> Result<IngestMaintenance> {
        let mut report = IngestMaintenance::default();
        for idx in 0..db.families().len() {
            let seed = maintenance_seed(db, idx);
            let start = std::time::Instant::now();
            let fold = family_drift(db, idx)? <= self.drift_threshold
                && db.fold_family(idx, appended.clone(), seed).is_ok();
            if fold {
                if let Some(t) = &self.telemetry {
                    t.histogram("blinkdb_maintenance_fold_seconds")
                        .observe(start.elapsed().as_secs_f64());
                }
                report.folded.push(idx);
            } else {
                // Past the threshold — or the fold itself failed. A
                // refresh rebuilds from the complete current fact table,
                // so no appended row can ever be silently left out of a
                // family: every family exits this loop consistent with
                // the table as of `appended.end`.
                let start = std::time::Instant::now();
                db.refresh_family(idx, seed)?;
                if let Some(t) = &self.telemetry {
                    t.histogram("blinkdb_maintenance_refresh_seconds")
                        .observe(start.elapsed().as_secs_f64());
                }
                report.refreshed.push(idx);
            }
        }
        // Every family exits the pass consistent with the table as of
        // the pass's final epoch (folds themselves advance it), so the
        // staleness anchor is the final epoch for all of them.
        let epoch = db.epoch().get();
        for idx in 0..db.families().len() {
            self.last_touched.insert(idx, epoch);
        }
        Ok(report)
    }

    /// Publishes the per-family sample-health gauges into the telemetry
    /// registry (no-op without one): distribution drift since the last
    /// fold/refresh, Horvitz–Thompson weight skew, epochs since last
    /// maintenance, residency (1 = RAM-resident), reservoir fill
    /// fraction, and per-stratum row coverage — each labeled
    /// `{family="..."}` — plus the fleet-wide
    /// `blinkdb_family_max_epochs_stale` the staleness alert watches.
    pub fn publish_health(&mut self, db: &BlinkDb) -> Result<()> {
        let Some(t) = self.telemetry.clone() else {
            return Ok(());
        };
        let epoch = db.epoch().get();
        let mut max_stale = 0.0f64;
        for idx in 0..db.families().len() {
            let family = &db.families()[idx];
            let label = family.label();
            let labels: &[(&str, &str)] = &[("family", &label)];
            // A family never folded/refreshed under this maintainer is
            // anchored at first observation; staleness counts epochs
            // since then.
            let anchor = *self.last_touched.entry(idx).or_insert(epoch);
            let stale = epoch.saturating_sub(anchor);
            max_stale = max_stale.max(stale as f64);
            t.gauge_labeled("blinkdb_family_drift", labels)
                .set(family_drift(db, idx)?);
            t.gauge_labeled("blinkdb_family_weight_skew", labels)
                .set(family.weight_skew());
            t.gauge_labeled("blinkdb_family_epochs_stale", labels)
                .set(stale as f64);
            t.gauge_labeled("blinkdb_family_resident", labels)
                .set(f64::from(family.residency().is_resident()));
            t.gauge_labeled("blinkdb_family_fill_fraction", labels)
                .set(family.fill_fraction());
            t.gauge_labeled("blinkdb_family_stratum_coverage", labels)
                .set(family_stratum_coverage(db, idx)?);
        }
        t.set_gauge("blinkdb_family_max_epochs_stale", max_stale);
        Ok(())
    }

    /// Workload changed: re-solve the optimizer under the churn budget
    /// `r` (§3.2.3) and rebuild families per the new plan. The churn is
    /// passed through explicitly
    /// ([`BlinkDb::create_samples_with_churn`]); the shared
    /// configuration is never touched, so concurrent readers can never
    /// observe a torn config mid-re-solve.
    pub fn resolve_workload_change(
        &mut self,
        db: &mut BlinkDb,
        templates: &[WeightedTemplate],
        budget_fraction: f64,
        churn: f64,
    ) -> Result<crate::optimizer::SamplePlan> {
        db.create_samples_with_churn(templates, budget_fraction, churn)
    }
}

/// Configuration for the background [`Compactor`].
#[derive(Debug, Clone, Copy)]
pub struct CompactorConfig {
    /// Minimum run of adjacent same-generation segments worth merging
    /// (≥ 2; the classic tiering fan-in).
    pub min_run: usize,
    /// Row budget for a merged segment: a run is truncated so the
    /// output stays within this many rows (a minimum viable pair still
    /// merges).
    pub max_segment_rows: usize,
    /// When `true`, families *not* in the caller's hot set are demoted
    /// to disk pricing each tick. Off by default: demotion changes the
    /// simulated cost surface, which can legitimately move `WITHIN`
    /// resolution choices, so deployments opt in explicitly.
    pub demote_cold: bool,
}

impl Default for CompactorConfig {
    fn default() -> Self {
        CompactorConfig {
            min_run: 4,
            max_segment_rows: 1 << 20,
            demote_cold: false,
        }
    }
}

/// What one [`Compactor::tick`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// The merged segment, when a qualifying run was found.
    pub merged: Option<SegmentMeta>,
    /// Families demoted to disk residency this tick.
    pub demoted: Vec<usize>,
    /// Demoted families predictively paged back in this tick.
    pub paged_in: Vec<usize>,
}

/// The background segment-lifecycle task (the storage half of §4.5's
/// low-priority maintenance): generational compaction of the fact
/// table's segment cover plus residency management of sample families.
///
/// Everything a tick does is invisible to query results: compaction is
/// pure metadata over immutable arrival-order row ranges, and
/// residency moves (demote / page-in) change only simulated scan
/// pricing. No data epoch advances — asserted on every tick — so
/// bootstrap seed streams, cached answers, and `WITHIN` resolution
/// choices derived from an unchanged epoch stay bit-identical. Run it
/// between ingest batches on the writer thread and publish the
/// (same-epoch) snapshot; readers on the previous snapshot never
/// block.
#[derive(Debug, Clone, Default)]
pub struct Compactor {
    /// Tiering and residency policy.
    pub config: CompactorConfig,
    telemetry: Option<blinkdb_telemetry::Registry>,
}

impl Compactor {
    /// Creates a compactor with the given policy.
    pub fn new(config: CompactorConfig) -> Self {
        Compactor {
            config,
            telemetry: None,
        }
    }

    /// Registers tick outcomes into `registry` from now on
    /// (`blinkdb_compaction_merges`, `blinkdb_compaction_demotions`,
    /// `blinkdb_compaction_page_ins` counters).
    pub fn with_telemetry(mut self, registry: blinkdb_telemetry::Registry) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// Runs one compaction tick: merges the oldest qualifying
    /// same-generation run (if any) and reconciles family residency
    /// against `hot_families` — the caller's prediction of which
    /// families the workload is actively scanning (the service derives
    /// it from its Error–Latency-Profile cache). Hot families that were
    /// demoted are paged back in *before* the next query pays the
    /// disk-priced scan; cold resident families are demoted only when
    /// [`CompactorConfig::demote_cold`] opted in.
    pub fn tick(&self, db: &mut BlinkDb, hot_families: &[usize]) -> CompactionReport {
        let epoch_before = db.epoch();
        let mut report = CompactionReport {
            merged: db.compact_segments(self.config.min_run, self.config.max_segment_rows),
            ..CompactionReport::default()
        };
        for idx in 0..db.families().len() {
            let hot = hot_families.contains(&idx);
            let resident = db.families()[idx].residency() == Residency::Resident;
            if hot && !resident {
                db.page_in_family(idx).expect("family index in range");
                report.paged_in.push(idx);
            } else if self.config.demote_cold && !hot && resident {
                db.demote_family(idx).expect("family index in range");
                report.demoted.push(idx);
            }
        }
        assert_eq!(
            db.epoch(),
            epoch_before,
            "a compaction tick must never advance the data epoch"
        );
        if let Some(t) = &self.telemetry {
            if report.merged.is_some() {
                t.counter("blinkdb_compaction_merges").inc();
            }
            t.counter("blinkdb_compaction_demotions")
                .add(report.demoted.len() as u64);
            t.counter("blinkdb_compaction_page_ins")
                .add(report.paged_in.len() as u64);
            // Backlog after this tick: segments still in the cover. A
            // high value means sealing is outpacing merging — the
            // compaction-backlog alert watches this gauge.
            t.set_gauge(
                "blinkdb_compaction_backlog_segments",
                db.segments().segments().len() as f64,
            );
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blinkdb::BlinkDbConfig;
    use blinkdb_common::schema::{Field, Schema};
    use blinkdb_common::value::{DataType, Value};
    use blinkdb_sql::template::ColumnSet;
    use blinkdb_storage::Table;

    fn table(heavy: usize, rare: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("city", DataType::Str),
            Field::new("x", DataType::Float),
        ]);
        let mut t = Table::new("sessions", schema);
        for i in 0..heavy {
            t.push_row(&[Value::str("NY"), Value::Float(i as f64)])
                .unwrap();
        }
        for i in 0..rare {
            t.push_row(&[Value::str("Boise"), Value::Float(i as f64)])
                .unwrap();
        }
        t
    }

    fn db(heavy: usize, rare: usize) -> BlinkDb {
        let mut cfg = BlinkDbConfig::default();
        cfg.cluster.jitter = 0.0;
        cfg.stratified.cap = 50.0;
        cfg.stratified.resolutions = 2;
        cfg.optimizer.cap = 50.0;
        let mut db = BlinkDb::new(table(heavy, rare), cfg);
        db.create_samples(
            &[WeightedTemplate {
                columns: ColumnSet::from_names(["city"]),
                weight: 1.0,
            }],
            0.8,
        )
        .unwrap();
        db
    }

    #[test]
    fn fresh_families_have_no_drift() {
        let db = db(1000, 10);
        for idx in 0..db.families().len() {
            let d = family_drift(&db, idx).unwrap();
            assert!(d < 1e-9, "family {idx} drift {d}");
        }
        let m = Maintainer::default();
        assert_eq!(m.inspect(&db).unwrap(), MaintenanceAction::Healthy);
    }

    #[test]
    fn data_shape_change_registers_drift() {
        let mut db = db(1000, 10);
        // Simulate arrival of a lot of Boise data: swap the fact table.
        let new_fact = table(1000, 800);
        db.replace_fact_for_test(new_fact);
        let strat_idx = db.families().iter().position(|f| !f.is_uniform()).unwrap();
        let d = family_drift(&db, strat_idx).unwrap();
        assert!(d > 0.2, "expected large drift, got {d}");
    }

    #[test]
    fn tick_refreshes_drifted_families() {
        let mut db = db(1000, 10);
        db.replace_fact_for_test(table(1000, 800));
        let mut m = Maintainer::new(0.05);
        let action = m.tick(&mut db).unwrap();
        match action {
            MaintenanceAction::Refresh(idxs) => assert!(!idxs.is_empty()),
            other => panic!("expected refresh, got {other:?}"),
        }
        // After refresh, drift is gone.
        assert_eq!(m.inspect(&db).unwrap(), MaintenanceAction::Healthy);
    }

    #[test]
    fn proportional_growth_is_not_drift() {
        // rare=30 is under the cap (50) so Δ > 0 and {city} is selected.
        let mut db = db(1000, 30);
        // Double everything: same shape.
        db.replace_fact_for_test(table(2000, 60));
        let strat_idx = db.families().iter().position(|f| !f.is_uniform()).unwrap();
        let d = family_drift(&db, strat_idx).unwrap();
        assert!(d < 0.01, "proportional growth should not drift: {d}");
    }

    fn rows(city: &str, n: usize) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| vec![Value::str(city), Value::Float(i as f64)])
            .collect()
    }

    #[test]
    fn small_append_folds_without_refresh() {
        let mut db = db(1000, 30);
        let epoch0 = db.epoch();
        let mut m = Maintainer::new(0.05);
        // +3% proportionally-shaped data: drift stays tiny, so every
        // family takes the incremental path.
        let mut batch = rows("NY", 30);
        batch.extend(rows("Boise", 1));
        let range = db.append_rows(&batch).unwrap();
        let report = m.fold_or_refresh(&mut db, range).unwrap();
        assert_eq!(
            report.refreshed,
            Vec::<usize>::new(),
            "no family should need a full resample"
        );
        assert_eq!(report.folded.len(), db.families().len());
        assert!(db.epoch() > epoch0, "ingest advances the epoch");
        // The fold updated recorded frequencies: drift is gone.
        assert_eq!(m.inspect(&db).unwrap(), MaintenanceAction::Healthy);
    }

    #[test]
    fn skewed_append_triggers_refresh_fallback() {
        let mut db = db(1000, 10);
        let mut m = Maintainer::new(0.05);
        // The appended batch is 80% Boise — the stratum distribution
        // shifts massively, past any fold's usefulness.
        let range = db.append_rows(&rows("Boise", 800)).unwrap();
        let report = m.fold_or_refresh(&mut db, range).unwrap();
        let strat_idx = db.families().iter().position(|f| !f.is_uniform()).unwrap();
        assert!(
            report.refreshed.contains(&strat_idx),
            "the city family must be refreshed, not folded: {report:?}"
        );
        // Either way, every family is representative again afterwards.
        assert_eq!(m.inspect(&db).unwrap(), MaintenanceAction::Healthy);
        // And a fresh query sees the new data: Boise COUNT ≈ 810.
        let ans = db
            .query("SELECT COUNT(*) FROM sessions WHERE city = 'Boise'")
            .unwrap();
        let est = ans.answer.rows[0].aggs[0].estimate;
        assert!(
            (est - 810.0).abs() / 810.0 < 0.2,
            "post-refresh estimate {est} vs truth 810"
        );
    }

    #[test]
    fn workload_change_does_not_touch_shared_config() {
        let mut db = db(1000, 10);
        let before = db.config().optimizer.churn;
        let mut m = Maintainer::default();
        m.resolve_workload_change(
            &mut db,
            &[WeightedTemplate {
                columns: ColumnSet::from_names(["city"]),
                weight: 1.0,
            }],
            0.8,
            0.3,
        )
        .unwrap();
        assert_eq!(
            db.config().optimizer.churn,
            before,
            "churn is passed explicitly; the config is never swapped"
        );
    }

    #[test]
    fn workload_change_resolves_under_churn() {
        let mut db = db(1000, 10);
        let mut m = Maintainer::default();
        // New workload adds an x-based template; churn 1.0 = free change.
        let plan = m
            .resolve_workload_change(
                &mut db,
                &[
                    WeightedTemplate {
                        columns: ColumnSet::from_names(["city"]),
                        weight: 0.5,
                    },
                    WeightedTemplate {
                        columns: ColumnSet::from_names(["x"]),
                        weight: 0.5,
                    },
                ],
                0.8,
                1.0,
            )
            .unwrap();
        assert!(!plan.selected.is_empty());
    }

    #[test]
    fn publish_health_registers_sample_health_gauges() {
        let registry = blinkdb_telemetry::Registry::new();
        let mut db = db(1000, 30);
        let mut m = Maintainer::new(0.05).with_telemetry(registry.clone());
        m.publish_health(&db).unwrap();
        let gauges: std::collections::BTreeMap<String, f64> =
            registry.gauges().into_iter().collect();
        let strat = db.families().iter().position(|f| !f.is_uniform()).unwrap();
        let label = db.families()[strat].label();
        assert!(gauges[&format!("blinkdb_family_drift{{family=\"{label}\"}}")] < 1e-9);
        assert!(gauges[&format!("blinkdb_family_weight_skew{{family=\"{label}\"}}")] >= 1.0);
        assert_eq!(
            gauges[&format!("blinkdb_family_resident{{family=\"{label}\"}}")],
            1.0
        );
        assert_eq!(
            gauges[&format!("blinkdb_family_stratum_coverage{{family=\"{label}\"}}")],
            1.0,
            "fresh family covers every stratum"
        );
        let fill = gauges[&format!("blinkdb_family_fill_fraction{{family=\"{label}\"}}")];
        assert!(fill > 0.0 && fill <= 1.0, "fill {fill}");
        assert_eq!(gauges["blinkdb_family_max_epochs_stale"], 0.0);

        // Ingest without maintenance: staleness counts epochs since the
        // family was last folded/refreshed.
        db.append_rows(&rows("NY", 10)).unwrap();
        m.publish_health(&db).unwrap();
        assert!(registry.gauge("blinkdb_family_max_epochs_stale").get() >= 1.0);
        // A fold/refresh pass resets it.
        let range = db.append_rows(&rows("NY", 10)).unwrap();
        m.fold_or_refresh(&mut db, range).unwrap();
        m.publish_health(&db).unwrap();
        assert_eq!(registry.gauge("blinkdb_family_max_epochs_stale").get(), 0.0);

        // Weight skew reflects stratum frequency spread: NY≈1020 vs
        // Boise=30 recorded frequencies.
        let skew = registry
            .gauge_labeled("blinkdb_family_weight_skew", &[("family", &label)])
            .get();
        assert!(skew > 10.0, "heavy/rare stratum skew, got {skew}");
    }

    #[test]
    fn compactor_publishes_backlog_gauge() {
        let registry = blinkdb_telemetry::Registry::new();
        let mut db = db(1000, 30);
        let mut m = Maintainer::new(0.05);
        for _ in 0..3 {
            let range = db.append_rows(&rows("NY", 10)).unwrap();
            m.fold_or_refresh(&mut db, range).unwrap();
        }
        let compactor = Compactor::new(CompactorConfig {
            min_run: 2,
            ..CompactorConfig::default()
        })
        .with_telemetry(registry.clone());
        compactor.tick(&mut db, &[]);
        let backlog = registry.gauge("blinkdb_compaction_backlog_segments").get();
        assert_eq!(backlog, db.segments().segments().len() as f64);
        assert!(backlog >= 1.0);
    }

    #[test]
    fn compactor_merges_seals_without_advancing_the_epoch() {
        let mut db = db(1000, 30);
        let mut m = Maintainer::new(0.05);
        for _ in 0..4 {
            let range = db.append_rows(&rows("NY", 10)).unwrap();
            m.fold_or_refresh(&mut db, range).unwrap();
        }
        let sql = "SELECT COUNT(*) FROM sessions WHERE city = 'NY'";
        let before = db.query(sql).unwrap().answer.rows[0].aggs[0].estimate;
        let epoch = db.epoch();
        let segs_before = db.segments().segments().len();

        let compactor = Compactor::new(CompactorConfig {
            min_run: 2,
            ..CompactorConfig::default()
        });
        let report = compactor.tick(&mut db, &[]);
        assert!(report.merged.is_some(), "five gen-0 seals form a run");
        assert!(db.segments().segments().len() < segs_before);
        assert_eq!(db.epoch(), epoch, "compaction is pure metadata");
        assert!(report.demoted.is_empty(), "demotion is opt-in");
        let after = db.query(sql).unwrap().answer.rows[0].aggs[0].estimate;
        assert_eq!(before.to_bits(), after.to_bits(), "answers unperturbed");
    }

    #[test]
    fn compactor_demotes_cold_families_and_pages_in_hot_ones() {
        let mut db = db(1000, 30);
        assert!(db.families().iter().all(|f| f.residency().is_resident()));
        let sql = "SELECT COUNT(*) FROM sessions WHERE city = 'NY'";
        let before = db.query(sql).unwrap().answer.rows[0].aggs[0].estimate;
        let epoch = db.epoch();

        let compactor = Compactor::new(CompactorConfig {
            demote_cold: true,
            ..CompactorConfig::default()
        });
        // Family 0 is hot; everything else goes cold to disk pricing.
        let report = compactor.tick(&mut db, &[0]);
        assert_eq!(report.demoted, vec![1]);
        assert!(!db.families()[1].residency().is_resident());
        assert!(db.families()[0].residency().is_resident());
        assert_eq!(db.epoch(), epoch, "residency is pricing, not data");

        // The next tick pages family 1 back in when it turns hot.
        let report = compactor.tick(&mut db, &[1]);
        assert_eq!(report.paged_in, vec![1]);
        assert!(db.families()[1].residency().is_resident());
        let after = db.query(sql).unwrap().answer.rows[0].aggs[0].estimate;
        assert_eq!(before.to_bits(), after.to_bits(), "answers unperturbed");
    }
}
