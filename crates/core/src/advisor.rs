//! The sample-plan advisor: `EXPLAIN WORKLOAD`.
//!
//! BlinkDB picks its stratified families offline from a workload model
//! (§3.2); the advisor closes the loop online. It is a *pure function*
//! over the workload profiler's snapshot (decayed per-QCS mass, serve
//! outcomes, ELP calibration) and the current plan state: it scores
//! each family's utility as
//!
//! ```text
//! utility = covered QCS mass share × stratified hit rate × freshness
//! ```
//!
//! where freshness decays with the family's `epochs_stale` gauge (PR
//! 9's sample-health telemetry), flags observed QCS mass no stratified
//! family covers, and emits ranked build / re-stratify / drop
//! recommendations. Recommendations are **advisory only**: nothing
//! here executes them, no epoch advances, and the serving path is
//! untouched — the same contract as the rest of the observability
//! stack. The service surfaces the result as
//! `QueryService::workload_report()` and as `blinkdb_advisor_*` series
//! in the exports.

use crate::optimizer::SamplePlan;
use crate::sampling::SampleFamily;
use blinkdb_sql::template::ColumnSet;
use blinkdb_telemetry::{WorkloadSnapshot, QCS_NONE};
use std::fmt::Write as _;

/// Minimum share of total observed mass an unserved QCS needs before a
/// `Build` recommendation is emitted for it.
const UNSERVED_MASS_FLOOR: f64 = 0.05;
/// Utility below which a stratified family draws a `Drop`
/// recommendation (it stores bytes nothing in the workload uses).
const DROP_UTILITY_FLOOR: f64 = 0.01;
/// `epochs_stale` at which a covering family draws a `Restratify`
/// recommendation; also the knee of the freshness decay.
const STALE_EPOCHS: f64 = 64.0;
/// Cap on emitted recommendations (ranked; the tail is cut).
const MAX_RECOMMENDATIONS: usize = 8;

/// The advisor's view of one family: label, stratification columns,
/// and the staleness gauge — decoupled from [`SampleFamily`] so the
/// advisor stays a pure function and tests need no storage.
#[derive(Debug, Clone)]
pub struct FamilyView {
    /// Family label (`uniform` or the joined stratification columns).
    pub label: String,
    /// Stratification columns (empty for the uniform family).
    pub columns: ColumnSet,
    /// Whether this is the uniform fallback family.
    pub is_uniform: bool,
    /// Epochs since the family was last rebuilt from scratch
    /// (`blinkdb_family_epochs_stale`).
    pub epochs_stale: f64,
}

impl FamilyView {
    /// View of a live family plus its staleness gauge.
    pub fn from_family(family: &SampleFamily, epochs_stale: f64) -> Self {
        FamilyView {
            label: family.label(),
            columns: family.columns().clone(),
            is_uniform: family.is_uniform(),
            epochs_stale,
        }
    }
}

/// One family's scored utility against the observed workload.
#[derive(Debug, Clone)]
pub struct FamilyUtility {
    /// Family label.
    pub label: String,
    /// Stratification columns.
    pub columns: ColumnSet,
    /// Whether this is the uniform family.
    pub is_uniform: bool,
    /// Share of total observed QCS mass this family covers (for the
    /// uniform family: the share it actually served as fallback).
    pub covered_share: f64,
    /// Stratified hit rate over the covered QCS (the uniform family
    /// reports 1.0 — it never misses a query it serves).
    pub hit_rate: f64,
    /// `epochs_stale` the score was computed with.
    pub epochs_stale: f64,
    /// Freshness factor `1 / (1 + epochs_stale / 64)`.
    pub freshness: f64,
    /// `covered_share × hit_rate × freshness`.
    pub utility: f64,
}

/// One ranked, advisory recommendation.
#[derive(Debug, Clone, PartialEq)]
pub enum Recommendation {
    /// Build a stratified family on `columns`: the workload carries
    /// `share` of its mass on this QCS and nothing covers it.
    Build {
        /// The unserved query column set.
        columns: ColumnSet,
        /// Share of total observed mass it represents.
        share: f64,
    },
    /// Re-stratify `family`: it covers real mass but its sample is
    /// `epochs_stale` epochs old.
    Restratify {
        /// Family label.
        family: String,
        /// Its staleness gauge.
        epochs_stale: f64,
        /// The mass share it covers (why it is worth refreshing).
        covered_share: f64,
    },
    /// Drop `family`: its utility against the observed workload is
    /// below the floor.
    Drop {
        /// Family label.
        family: String,
        /// The (near-zero) utility it scored.
        utility: f64,
    },
}

impl Recommendation {
    /// Stable action label (`build` / `restratify` / `drop`).
    pub fn action(&self) -> &'static str {
        match self {
            Recommendation::Build { .. } => "build",
            Recommendation::Restratify { .. } => "restratify",
            Recommendation::Drop { .. } => "drop",
        }
    }

    /// The column set or family the action targets.
    pub fn target(&self) -> String {
        match self {
            Recommendation::Build { columns, .. } => columns.to_string(),
            Recommendation::Restratify { family, .. } | Recommendation::Drop { family, .. } => {
                family.clone()
            }
        }
    }
}

/// The advisor's full output.
#[derive(Debug, Clone)]
pub struct WorkloadAdvice {
    /// Per-family utilities, highest first (label ascending on ties).
    pub families: Vec<FamilyUtility>,
    /// Share of observed mass (non-empty QCS) no stratified family
    /// covers.
    pub unserved_share: f64,
    /// Ranked recommendations: builds by unserved mass, then
    /// re-stratifications by staleness, then drops by (low) utility.
    pub recommendations: Vec<Recommendation>,
}

/// Columns of one observed QCS as a [`ColumnSet`] (None for the empty
/// and overflow buckets, which no stratified family can target).
fn qcs_columns(columns: &[String]) -> Option<ColumnSet> {
    if columns.is_empty() {
        return None;
    }
    Some(ColumnSet::from_names(columns.iter().map(String::as_str)))
}

/// Scores every family against the observed workload and emits ranked,
/// advisory recommendations. Pure and deterministic: same snapshot,
/// same families, same advice.
pub fn advise(
    snapshot: &WorkloadSnapshot,
    families: &[FamilyView],
    plan: Option<&SamplePlan>,
) -> WorkloadAdvice {
    let mut scored: Vec<FamilyUtility> = families
        .iter()
        .map(|f| {
            let freshness = 1.0 / (1.0 + f.epochs_stale / STALE_EPOCHS);
            let (mut covered_share, mut covered_queries, mut covered_hits) = (0.0, 0u64, 0u64);
            for q in &snapshot.qcs {
                let share = snapshot.share(q);
                if f.is_uniform {
                    // The uniform family serves whatever falls back.
                    if q.queries > 0 {
                        covered_share += share * q.fallbacks as f64 / q.queries as f64;
                    }
                    continue;
                }
                let Some(cols) = qcs_columns(&q.columns) else {
                    continue;
                };
                if cols.is_subset(&f.columns) {
                    covered_share += share;
                    covered_queries += q.queries;
                    covered_hits += q.hits;
                }
            }
            let hit_rate = if f.is_uniform {
                1.0
            } else if covered_queries > 0 {
                covered_hits as f64 / covered_queries as f64
            } else {
                0.0
            };
            FamilyUtility {
                label: f.label.clone(),
                columns: f.columns.clone(),
                is_uniform: f.is_uniform,
                covered_share,
                hit_rate,
                epochs_stale: f.epochs_stale,
                freshness,
                utility: covered_share * hit_rate * freshness,
            }
        })
        .collect();
    scored.sort_by(|a, b| {
        b.utility
            .total_cmp(&a.utility)
            .then_with(|| a.label.cmp(&b.label))
    });

    // ---- Unserved mass: observed QCS no stratified family (nor an
    // already-selected plan entry) covers ----
    let planned: Vec<&ColumnSet> = plan
        .map(|p| p.selected.iter().collect())
        .unwrap_or_default();
    let mut unserved: Vec<(ColumnSet, f64)> = Vec::new();
    let mut unserved_share = 0.0;
    for q in &snapshot.qcs {
        let Some(cols) = qcs_columns(&q.columns) else {
            continue;
        };
        let covered = families
            .iter()
            .any(|f| !f.is_uniform && cols.is_subset(&f.columns))
            || planned.iter().any(|p| cols.is_subset(p));
        if covered {
            continue;
        }
        let share = snapshot.share(q);
        unserved_share += share;
        unserved.push((cols, share));
    }
    // Fold subset candidates into their heaviest superset: building the
    // superset family covers both (nested coverage, §3.2).
    unserved.sort_by(|a, b| {
        b.1.total_cmp(&a.1)
            .then_with(|| a.0.to_string().cmp(&b.0.to_string()))
    });
    let mut builds: Vec<(ColumnSet, f64)> = Vec::new();
    for (cols, share) in unserved {
        if let Some(sup) = builds.iter_mut().find(|(c, _)| cols.is_subset(c)) {
            sup.1 += share;
        } else {
            builds.push((cols, share));
        }
    }
    builds.retain(|(_, share)| *share >= UNSERVED_MASS_FLOOR);
    builds.sort_by(|a, b| {
        b.1.total_cmp(&a.1)
            .then_with(|| a.0.to_string().cmp(&b.0.to_string()))
    });

    let mut recommendations: Vec<Recommendation> = builds
        .into_iter()
        .map(|(columns, share)| Recommendation::Build { columns, share })
        .collect();
    let mut restratify: Vec<&FamilyUtility> = scored
        .iter()
        .filter(|f| !f.is_uniform && f.covered_share > 0.0 && f.epochs_stale >= STALE_EPOCHS)
        .collect();
    restratify.sort_by(|a, b| {
        b.epochs_stale
            .total_cmp(&a.epochs_stale)
            .then_with(|| a.label.cmp(&b.label))
    });
    recommendations.extend(restratify.into_iter().map(|f| Recommendation::Restratify {
        family: f.label.clone(),
        epochs_stale: f.epochs_stale,
        covered_share: f.covered_share,
    }));
    if snapshot.queries > 0 {
        let mut drops: Vec<&FamilyUtility> = scored
            .iter()
            .filter(|f| !f.is_uniform && f.utility < DROP_UTILITY_FLOOR)
            .collect();
        drops.sort_by(|a, b| {
            a.utility
                .total_cmp(&b.utility)
                .then_with(|| a.label.cmp(&b.label))
        });
        recommendations.extend(drops.into_iter().map(|f| Recommendation::Drop {
            family: f.label.clone(),
            utility: f.utility,
        }));
    }
    recommendations.truncate(MAX_RECOMMENDATIONS);

    WorkloadAdvice {
        families: scored,
        unserved_share,
        recommendations,
    }
}

/// Renders a QCS key for the report: member sets get braces, the
/// `(none)`/`overflow` buckets print as-is.
fn qcs_display(key: &str) -> String {
    if key == QCS_NONE || key == "overflow" {
        key.to_string()
    } else {
        format!("{{{key}}}")
    }
}

/// The `EXPLAIN WORKLOAD` report: per-QCS observed mass, serving
/// family, hit rate, and ELP calibration ratio; per-family utilities;
/// ranked recommendations. Deterministic for a fixed snapshot/advice.
pub fn render_workload_report(snapshot: &WorkloadSnapshot, advice: &WorkloadAdvice) -> String {
    let mut out = String::from("EXPLAIN WORKLOAD\n");
    let _ = writeln!(
        out,
        "{:<36} {:>9} {:>7} {:>8} {:>9} {:<20} {:>7}",
        "qcs", "mass", "share", "queries", "hit_rate", "family", "calib"
    );
    for q in &snapshot.qcs {
        let mut label = qcs_display(&q.key);
        if label.len() > 36 {
            label.truncate(33);
            label.push_str("...");
        }
        let calib = q
            .calibration_ratio
            .map(|r| format!("{r:.2}"))
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "{:<36} {:>9.2} {:>7.3} {:>8} {:>9.3} {:<20} {:>7}",
            label,
            q.mass,
            snapshot.share(q),
            q.queries,
            q.hit_rate(),
            q.top_family,
            calib
        );
    }
    out.push_str("families\n");
    let _ = writeln!(
        out,
        "{:<20} {:<24} {:>8} {:>9} {:>7} {:>8}",
        "family", "columns", "covered", "hit_rate", "stale", "utility"
    );
    for f in &advice.families {
        let _ = writeln!(
            out,
            "{:<20} {:<24} {:>8.3} {:>9.3} {:>7.0} {:>8.4}",
            f.label,
            f.columns.to_string(),
            f.covered_share,
            f.hit_rate,
            f.epochs_stale,
            f.utility
        );
    }
    out.push_str("recommendations\n");
    if advice.recommendations.is_empty() {
        out.push_str("  (none: the plan matches the observed workload)\n");
    }
    for (i, rec) in advice.recommendations.iter().enumerate() {
        let line = match rec {
            Recommendation::Build { columns, share } => {
                format!("BUILD {columns}  unserved share {share:.3}")
            }
            Recommendation::Restratify {
                family,
                epochs_stale,
                covered_share,
            } => format!(
                "RESTRATIFY {family}  {epochs_stale:.0} epochs stale, covers {covered_share:.3}"
            ),
            Recommendation::Drop { family, utility } => {
                format!("DROP {family}  utility {utility:.4}")
            }
        };
        let _ = writeln!(out, "{:>3} {line}", i + 1);
    }
    let _ = writeln!(
        out,
        "overall: queries={} distinct_qcs={} unserved_share={:.3} max_drift={:.3}",
        snapshot.queries,
        snapshot.qcs.len(),
        advice.unserved_share,
        snapshot.max_abs_log2_drift
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use blinkdb_telemetry::QcsProfile;

    fn qcs(cols: &[&str], mass: f64, queries: u64, hits: u64, fallbacks: u64) -> QcsProfile {
        QcsProfile {
            key: if cols.is_empty() {
                QCS_NONE.to_string()
            } else {
                cols.join(", ")
            },
            columns: cols.iter().map(|s| s.to_string()).collect(),
            mass,
            queries,
            hits,
            fallbacks,
            misses: queries - hits - fallbacks,
            top_family: "city".to_string(),
            calibration_ratio: Some(1.0),
        }
    }

    fn snapshot(qcs: Vec<QcsProfile>) -> WorkloadSnapshot {
        let total_mass = qcs.iter().map(|q| q.mass).sum();
        WorkloadSnapshot {
            queries: qcs.iter().map(|q| q.queries).sum(),
            total_mass,
            qcs,
            templates: Vec::new(),
            max_abs_log2_drift: 0.0,
        }
    }

    fn fam(label: &str, cols: &[&str], stale: f64) -> FamilyView {
        FamilyView {
            label: label.to_string(),
            columns: ColumnSet::from_names(cols.iter().copied()),
            is_uniform: cols.is_empty() && label == "uniform",
            epochs_stale: stale,
        }
    }

    #[test]
    fn utility_is_coverage_times_hit_rate_times_freshness() {
        let snap = snapshot(vec![
            qcs(&["city"], 60.0, 60, 60, 0),
            qcs(&["os"], 40.0, 40, 0, 40),
        ]);
        let families = vec![fam("uniform", &[], 0.0), fam("city", &["city"], 0.0)];
        let advice = advise(&snap, &families, None);
        let city = advice.families.iter().find(|f| f.label == "city").unwrap();
        assert!((city.covered_share - 0.6).abs() < 1e-12);
        assert_eq!(city.hit_rate, 1.0);
        assert!((city.utility - 0.6).abs() < 1e-12);
        let uniform = advice.families.iter().find(|f| f.is_uniform).unwrap();
        assert!(
            (uniform.covered_share - 0.4).abs() < 1e-12,
            "uniform covers the fallback mass: {uniform:?}"
        );
        // The os mass is unserved → a Build rec leads the ranking.
        assert!((advice.unserved_share - 0.4).abs() < 1e-12);
        assert_eq!(
            advice.recommendations[0],
            Recommendation::Build {
                columns: ColumnSet::from_names(["os"]),
                share: 0.4
            }
        );
        assert_eq!(advice.recommendations[0].action(), "build");
    }

    #[test]
    fn staleness_discounts_utility_and_triggers_restratify() {
        let snap = snapshot(vec![qcs(&["city"], 100.0, 100, 100, 0)]);
        let fresh = advise(&snap, &[fam("city", &["city"], 0.0)], None);
        let stale = advise(&snap, &[fam("city", &["city"], STALE_EPOCHS)], None);
        assert!((fresh.families[0].utility - 1.0).abs() < 1e-12);
        assert!((stale.families[0].utility - 0.5).abs() < 1e-12, "half-life");
        assert!(matches!(
            stale.recommendations[0],
            Recommendation::Restratify { .. }
        ));
        assert!(fresh.recommendations.is_empty(), "{fresh:?}");
    }

    #[test]
    fn unused_family_draws_drop_and_subsets_fold_into_builds() {
        let snap = snapshot(vec![
            qcs(&["genre", "os"], 50.0, 50, 0, 50),
            qcs(&["os"], 30.0, 30, 0, 30),
            qcs(&[], 20.0, 20, 0, 20),
        ]);
        let families = vec![fam("uniform", &[], 0.0), fam("city", &["city"], 0.0)];
        let advice = advise(&snap, &families, None);
        // {os} ⊆ {genre, os}: one Build rec with the combined share.
        let builds: Vec<&Recommendation> = advice
            .recommendations
            .iter()
            .filter(|r| r.action() == "build")
            .collect();
        assert_eq!(builds.len(), 1, "{builds:?}");
        match builds[0] {
            Recommendation::Build { columns, share } => {
                assert_eq!(columns, &ColumnSet::from_names(["genre", "os"]));
                assert!((share - 0.8).abs() < 1e-12);
            }
            other => panic!("{other:?}"),
        }
        // The city family covers nothing observed → Drop.
        assert!(advice
            .recommendations
            .iter()
            .any(|r| matches!(r, Recommendation::Drop { family, .. } if family == "city")));
        // Empty QCS never counts as unserved (uniform is its right home).
        assert!((advice.unserved_share - 0.8).abs() < 1e-12);
    }

    #[test]
    fn planned_column_sets_suppress_build_recommendations() {
        let snap = snapshot(vec![qcs(&["os"], 100.0, 100, 0, 100)]);
        let plan = SamplePlan {
            selected: vec![ColumnSet::from_names(["os"])],
            objective: 1.0,
            storage_bytes: 0.0,
            proven_optimal: true,
        };
        let advice = advise(&snap, &[fam("uniform", &[], 0.0)], Some(&plan));
        assert!(
            !advice.recommendations.iter().any(|r| r.action() == "build"),
            "{:?}",
            advice.recommendations
        );
        assert_eq!(advice.unserved_share, 0.0);
    }

    #[test]
    fn recommendations_are_capped_and_ranked() {
        // Kinds rank builds, then re-stratifications, then drops.
        let snap = snapshot(vec![
            qcs(&["city"], 50.0, 50, 50, 0),
            qcs(&["os"], 30.0, 30, 0, 30),
            qcs(&["genre"], 20.0, 20, 0, 20),
        ]);
        let families = vec![
            fam("city", &["city"], STALE_EPOCHS),
            fam("asn", &["asn"], 0.0),
        ];
        let actions: Vec<&str> = advise(&snap, &families, None)
            .recommendations
            .iter()
            .map(Recommendation::action)
            .collect();
        assert_eq!(actions, ["build", "build", "restratify", "drop"]);

        // Twelve unserved QCS, each over the floor: only the eight
        // heaviest survive, heaviest first.
        let snap = snapshot(
            (0..12u64)
                .map(|i| {
                    let col = format!("c{i:02}");
                    qcs(&[&col], (20 - i) as f64, 1, 0, 1)
                })
                .collect(),
        );
        let advice = advise(&snap, &[fam("uniform", &[], 0.0)], None);
        assert_eq!(advice.recommendations.len(), MAX_RECOMMENDATIONS);
        let targets: Vec<String> = advice
            .recommendations
            .iter()
            .map(Recommendation::target)
            .collect();
        let heaviest: Vec<String> = (0..MAX_RECOMMENDATIONS)
            .map(|i| format!("{{c{i:02}}}"))
            .collect();
        assert_eq!(targets, heaviest);
    }

    #[test]
    fn unserved_mass_under_the_floor_draws_no_build() {
        let floor_mass = UNSERVED_MASS_FLOOR * 100.0;
        let snap = snapshot(vec![
            qcs(&["city"], 100.0 - 2.0 * floor_mass, 90, 90, 0),
            qcs(&["os"], floor_mass - 0.5, 4, 0, 4),
            qcs(&["genre"], floor_mass + 0.5, 6, 0, 6),
        ]);
        let advice = advise(&snap, &[fam("city", &["city"], 0.0)], None);
        let builds: Vec<String> = advice
            .recommendations
            .iter()
            .filter(|r| r.action() == "build")
            .map(Recommendation::target)
            .collect();
        assert_eq!(builds, ["{genre}"], "{:?}", advice.recommendations);
        // The light QCS still counts toward the unserved share.
        assert!((advice.unserved_share - 2.0 * UNSERVED_MASS_FLOOR).abs() < 1e-12);
    }

    #[test]
    fn family_under_the_utility_floor_draws_drop() {
        let floor_mass = DROP_UTILITY_FLOOR * 100.0;
        let snap = snapshot(vec![
            qcs(&["city"], 100.0 - 2.0 * floor_mass, 90, 90, 0),
            qcs(&["os"], floor_mass * 0.9, 5, 5, 0),
            qcs(&["genre"], floor_mass * 1.1, 5, 5, 0),
        ]);
        let families = vec![
            fam("city", &["city"], 0.0),
            fam("os", &["os"], 0.0),
            fam("genre", &["genre"], 0.0),
        ];
        let advice = advise(&snap, &families, None);
        let drops: Vec<&Recommendation> = advice
            .recommendations
            .iter()
            .filter(|r| r.action() == "drop")
            .collect();
        assert_eq!(drops.len(), 1, "{drops:?}");
        match drops[0] {
            Recommendation::Drop { family, utility } => {
                assert_eq!(family, "os");
                assert!(*utility < DROP_UTILITY_FLOOR, "{utility}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn report_renders_deterministically_with_required_columns() {
        let snap = snapshot(vec![
            qcs(&["city"], 60.0, 60, 60, 0),
            qcs(&["os"], 40.0, 40, 0, 40),
        ]);
        let families = vec![fam("uniform", &[], 0.0), fam("city", &["city"], 0.0)];
        let advice = advise(&snap, &families, None);
        let report = render_workload_report(&snap, &advice);
        assert!(report.starts_with("EXPLAIN WORKLOAD\n"), "{report}");
        for needle in [
            "mass",
            "hit_rate",
            "calib",
            "{city}",
            "{os}",
            "BUILD {os}",
            "unserved_share=0.400",
        ] {
            assert!(report.contains(needle), "missing {needle:?}:\n{report}");
        }
        assert_eq!(report, render_workload_report(&snap, &advice));
    }
}
