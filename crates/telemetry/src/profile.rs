//! Online workload profiling and ELP calibration tracking.
//!
//! BlinkDB's sample plan is chosen from a *workload model* (§3.1: which
//! query column sets appear, how often), and its admission decisions
//! lean on the ELP's latency predictions (§4.2). Neither input is
//! observable in the running system without this module: the
//! [`WorkloadProfiler`] folds every completed query into
//!
//! * **decayed per-QCS frequency counters** — each query contributes
//!   one unit of mass to its query column set (GROUP BY + predicate
//!   columns, §2.1) and all previously-observed mass decays
//!   multiplicatively, so the profile tracks the *recent* mix the way
//!   the paper's offline workload model tracks the historical one;
//! * **per-family serve counters** — `hit` (a stratified family served
//!   the query), `fallback` (the uniform family or a full scan did),
//!   `miss` (the query blew its deadline), per serving family;
//! * **per-template ELP calibration** — an EWMA of
//!   `log2(actual / predicted)` scan seconds per canonical template,
//!   plus calibration-ratio histograms in the shared [`Registry`]. When
//!   a template's geometric-mean ratio drifts past a threshold the
//!   [`CalibrationUpdate`] returned from [`WorkloadProfiler::record`]
//!   flags it, so the service can invalidate the template's cached
//!   `PlanProfile` (its predictions can no longer be trusted) and the
//!   `elp_miscalibrated` alert rule can fire off the mirrored
//!   `blinkdb_elp_calibration_drift` gauge.
//!
//! Profiling only copies values the query pipeline already computed —
//! it never draws from the simulator's seed streams — so answers are
//! bit-identical with profiling on or off. All per-QCS and per-template
//! state is cardinality-bounded: past the caps, new keys fold into a
//! shared `overflow` stream exactly like the audit module's.

use crate::registry::{Counter, Gauge, Registry};
use crate::{bounded_key, MAX_TEMPLATES};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Multiplicative decay applied to all previously-observed QCS mass per
/// recorded query.
const DECAY: f64 = 0.998;
/// Distinct query column sets tracked before new ones fold into the
/// `overflow` stream.
const MAX_QCS: usize = 64;
/// EWMA weight on the newest `log2(actual/predicted)` observation.
const CALIBRATION_ALPHA: f64 = 0.25;
/// Calibration samples a template needs before a drift verdict.
const CALIBRATION_MIN_SAMPLES: u64 = 8;
/// Geometric calibration ratio at which a template counts as drifted:
/// `ratio > DRIFT_RATIO` or `ratio < 1/DRIFT_RATIO`.
const DRIFT_RATIO: f64 = 2.0;

/// How a completed query was served, from the profiler's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// A stratified family covering the query's QCS served it in bound.
    Hit,
    /// The uniform family or a full scan served it (no covering
    /// stratified family, or the bound forced the cheap path).
    Fallback,
    /// The query completed but blew its deadline.
    Miss,
}

impl ServeOutcome {
    /// Stable label used in the serve counters.
    pub fn as_str(self) -> &'static str {
        match self {
            ServeOutcome::Hit => "hit",
            ServeOutcome::Fallback => "fallback",
            ServeOutcome::Miss => "miss",
        }
    }
}

/// Everything one completed query contributes to the profile. All
/// fields are values the pipeline already computed.
#[derive(Debug, Clone)]
pub struct QuerySample {
    /// Canonical template of the query.
    pub template: String,
    /// The query column set: canonical column names, sorted (empty for
    /// unfiltered, ungrouped aggregates).
    pub qcs: Vec<String>,
    /// Label of the family that served the query.
    pub family: String,
    /// The query's deadline in simulated seconds, if it had one.
    pub bound_s: Option<f64>,
    /// The query's requested relative-error bound, if it had one.
    pub error_bound: Option<f64>,
    /// Serve outcome.
    pub outcome: ServeOutcome,
    /// The ELP's predicted scan seconds for the chosen plan (0 when no
    /// prediction backed the plan, e.g. full scans — skips calibration).
    pub predicted_s: f64,
    /// Actual simulated scan seconds.
    pub actual_s: f64,
    /// The answer's reported max relative error.
    pub reported_rel_error: f64,
}

/// What [`WorkloadProfiler::record`] concluded about the sample's
/// template calibration, for caller-side `PlanProfile` invalidation.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationUpdate {
    /// Bounded template key the sample was folded into.
    pub template: String,
    /// Calibration samples this template has accumulated.
    pub samples: u64,
    /// Geometric-mean EWMA of `actual/predicted` (1.0 = perfectly
    /// calibrated; `NaN` before any calibrated sample).
    pub ratio: f64,
    /// True when the template's ratio has drifted past 2× either way
    /// with at least 8 samples — the caller should stop trusting
    /// (invalidate) the template's cached plan profile.
    pub drifted: bool,
}

#[derive(Debug, Default, Clone)]
struct QcsState {
    columns: Vec<String>,
    mass: f64,
    queries: u64,
    hits: u64,
    fallbacks: u64,
    misses: u64,
    /// Serve counts per family label (bounded by `MAX_QCS` keys overall,
    /// families are few).
    families: BTreeMap<String, u64>,
    /// EWMA of log2(actual/predicted) restricted to this QCS.
    cal_log2: f64,
    cal_samples: u64,
}

#[derive(Debug, Default, Clone)]
struct TemplateState {
    samples: u64,
    ewma_log2: f64,
}

impl TemplateState {
    /// Enough samples for a verdict, and the ratio is past
    /// [`DRIFT_RATIO`] either way.
    fn drifted(&self) -> bool {
        self.samples >= CALIBRATION_MIN_SAMPLES && self.ewma_log2.abs() > DRIFT_RATIO.log2()
    }
}

#[derive(Debug)]
struct ProfilerInner {
    predicted_scale: f64,
    total_mass: f64,
    qcs: BTreeMap<String, QcsState>,
    templates: BTreeMap<String, TemplateState>,
}

impl ProfilerInner {
    /// Largest `|log2(ratio)|` across templates with enough samples.
    fn max_abs_log2_drift(&self) -> f64 {
        self.templates
            .values()
            .filter(|t| t.samples >= CALIBRATION_MIN_SAMPLES)
            .map(|t| t.ewma_log2.abs())
            .fold(0.0, f64::max)
    }
}

/// Per-QCS view in a [`WorkloadSnapshot`].
#[derive(Debug, Clone)]
pub struct QcsProfile {
    /// Bounded QCS key (`"city, os"`, `"(none)"`, or `"overflow"`).
    pub key: String,
    /// The member columns (empty for `(none)`/`overflow`).
    pub columns: Vec<String>,
    /// Decayed observed mass.
    pub mass: f64,
    /// Raw query count (undecayed).
    pub queries: u64,
    /// Queries served by a covering stratified family.
    pub hits: u64,
    /// Queries served by the uniform family / full scan.
    pub fallbacks: u64,
    /// Queries that blew their deadline.
    pub misses: u64,
    /// The family that served this QCS most often.
    pub top_family: String,
    /// Geometric-mean EWMA of actual/predicted scan seconds for
    /// queries of this QCS (None before any calibrated sample).
    pub calibration_ratio: Option<f64>,
}

impl QcsProfile {
    /// Stratified-hit rate over all completions of this QCS.
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.hits as f64 / self.queries as f64
        }
    }
}

/// Per-template calibration view in a [`WorkloadSnapshot`].
#[derive(Debug, Clone)]
pub struct TemplateCalibration {
    /// Bounded template key.
    pub template: String,
    /// Calibrated samples accumulated.
    pub samples: u64,
    /// Geometric-mean EWMA of actual/predicted.
    pub ratio: f64,
    /// Whether the template currently counts as drifted.
    pub drifted: bool,
}

/// Point-in-time copy of the profiler state, consumed by the sample-plan
/// advisor and the `EXPLAIN WORKLOAD` report.
#[derive(Debug, Clone)]
pub struct WorkloadSnapshot {
    /// Total queries recorded.
    pub queries: u64,
    /// Total decayed mass (the denominator for per-QCS shares).
    pub total_mass: f64,
    /// Per-QCS profiles, heaviest mass first (key ascending on ties).
    pub qcs: Vec<QcsProfile>,
    /// Per-template calibration, sorted by template.
    pub templates: Vec<TemplateCalibration>,
    /// Largest `|log2(ratio)|` across templates with enough samples —
    /// the value mirrored into `blinkdb_elp_calibration_drift`.
    pub max_abs_log2_drift: f64,
}

impl WorkloadSnapshot {
    /// `mass / total_mass` for one QCS (0 when nothing was recorded).
    pub fn share(&self, q: &QcsProfile) -> f64 {
        if self.total_mass > 0.0 {
            q.mass / self.total_mass
        } else {
            0.0
        }
    }
}

/// Online workload/QCS profiler with ELP calibration tracking. Cloning
/// shares all state; handles are cheap.
#[derive(Debug, Clone)]
pub struct WorkloadProfiler {
    registry: Registry,
    inner: Arc<Mutex<ProfilerInner>>,
    queries_total: Counter,
    distinct_qcs: Gauge,
    drift: Gauge,
}

/// The QCS key for an empty column set.
pub const QCS_NONE: &str = "(none)";

/// Canonical QCS key: sorted members joined by `", "`, or
/// [`QCS_NONE`] when empty.
pub fn qcs_key(columns: &[String]) -> String {
    if columns.is_empty() {
        QCS_NONE.to_string()
    } else {
        columns.join(", ")
    }
}

impl WorkloadProfiler {
    /// New profiler registering its series into `registry`.
    pub fn new(registry: Registry) -> Self {
        WorkloadProfiler {
            queries_total: registry.counter("blinkdb_workload_queries_total"),
            distinct_qcs: registry.gauge("blinkdb_workload_distinct_qcs"),
            drift: registry.gauge("blinkdb_elp_calibration_drift"),
            registry,
            inner: Arc::new(Mutex::new(ProfilerInner {
                predicted_scale: 1.0,
                total_mass: 0.0,
                qcs: BTreeMap::new(),
                templates: BTreeMap::new(),
            })),
        }
    }

    /// Rescales every subsequently-recorded predicted scan time (1.0 =
    /// honest). Tests inject miscalibration with this instead of
    /// touching the pipeline, so answers stay bit-identical.
    pub fn set_predicted_scale(&self, scale: f64) {
        self.inner.lock().unwrap().predicted_scale = scale;
    }

    /// Current predicted-seconds scale.
    pub fn predicted_scale(&self) -> f64 {
        self.inner.lock().unwrap().predicted_scale
    }

    /// Folds one completed query into the profile and returns the
    /// calibration verdict for its template.
    pub fn record(&self, sample: &QuerySample) -> CalibrationUpdate {
        let mut g = self.inner.lock().unwrap();
        let scale = g.predicted_scale;

        // ---- Decayed QCS mass ----
        g.total_mass *= DECAY;
        for st in g.qcs.values_mut() {
            st.mass *= DECAY;
        }
        let raw_key = qcs_key(&sample.qcs);
        let key = bounded_key(&g.qcs, MAX_QCS, &raw_key);
        let folded = key != raw_key;
        g.total_mass += 1.0;
        let distinct = g.qcs.len() as f64;
        let st = g.qcs.entry(key.clone()).or_default();
        if st.queries == 0 && !folded {
            st.columns = sample.qcs.clone();
        }
        st.mass += 1.0;
        st.queries += 1;
        match sample.outcome {
            ServeOutcome::Hit => st.hits += 1,
            ServeOutcome::Fallback => st.fallbacks += 1,
            ServeOutcome::Miss => st.misses += 1,
        }
        *st.families.entry(sample.family.clone()).or_insert(0) += 1;
        let mass_now = st.mass;

        // ---- ELP calibration ----
        let predicted = sample.predicted_s * scale;
        let calibrated = predicted > 0.0 && sample.actual_s > 0.0;
        let mut update = CalibrationUpdate {
            template: bounded_key(&g.templates, MAX_TEMPLATES, &sample.template),
            samples: 0,
            ratio: f64::NAN,
            drifted: false,
        };
        if calibrated {
            let ratio = sample.actual_s / predicted;
            let log2 = ratio.log2();
            let st = g.qcs.entry(key.clone()).or_default();
            st.cal_samples += 1;
            st.cal_log2 = ewma(st.cal_log2, log2, st.cal_samples);
            let t = g.templates.entry(update.template.clone()).or_default();
            t.samples += 1;
            t.ewma_log2 = ewma(t.ewma_log2, log2, t.samples);
            update.samples = t.samples;
            update.ratio = t.ewma_log2.exp2();
            update.drifted = t.drifted();
            self.registry
                .histogram("blinkdb_elp_calibration_ratio")
                .observe(ratio);
            self.registry
                .histogram_labeled(
                    "blinkdb_elp_calibration_ratio",
                    &[("template", &update.template)],
                )
                .observe(ratio);
        } else if let Some(t) = g.templates.get(&update.template) {
            update.samples = t.samples;
            update.ratio = t.ewma_log2.exp2();
            update.drifted = t.drifted();
        }
        // Error-bound headroom: how much of the requested ε the answer
        // actually reported (ratio < 1 = inside the bound).
        if let Some(eps) = sample.error_bound {
            if eps > 0.0 {
                self.registry
                    .histogram("blinkdb_error_bound_utilization")
                    .observe(sample.reported_rel_error / eps);
            }
        }
        let max_drift = g.max_abs_log2_drift();
        drop(g);

        // ---- Registry mirrors (outside the lock) ----
        self.queries_total.inc();
        self.registry
            .counter_labeled(
                "blinkdb_workload_serve_total",
                &[
                    ("family", &sample.family),
                    ("outcome", sample.outcome.as_str()),
                ],
            )
            .inc();
        self.registry
            .gauge_labeled("blinkdb_workload_qcs_mass", &[("qcs", &key)])
            .set(mass_now);
        self.distinct_qcs.set(distinct.max(1.0));
        self.drift.set(max_drift);
        update
    }

    /// Total queries recorded.
    pub fn queries(&self) -> u64 {
        self.queries_total.get()
    }

    /// Point-in-time copy of the full profile, heaviest QCS first.
    pub fn snapshot(&self) -> WorkloadSnapshot {
        let g = self.inner.lock().unwrap();
        let mut qcs: Vec<QcsProfile> = g
            .qcs
            .iter()
            .map(|(key, st)| QcsProfile {
                key: key.clone(),
                columns: st.columns.clone(),
                mass: st.mass,
                queries: st.queries,
                hits: st.hits,
                fallbacks: st.fallbacks,
                misses: st.misses,
                top_family: st
                    .families
                    .iter()
                    .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
                    .map(|(f, _)| f.clone())
                    .unwrap_or_default(),
                calibration_ratio: (st.cal_samples > 0).then(|| st.cal_log2.exp2()),
            })
            .collect();
        qcs.sort_by(|a, b| b.mass.total_cmp(&a.mass).then_with(|| a.key.cmp(&b.key)));
        let templates: Vec<TemplateCalibration> = g
            .templates
            .iter()
            .map(|(template, t)| TemplateCalibration {
                template: template.clone(),
                samples: t.samples,
                ratio: t.ewma_log2.exp2(),
                drifted: t.drifted(),
            })
            .collect();
        WorkloadSnapshot {
            queries: self.queries_total.get(),
            total_mass: g.total_mass,
            qcs,
            templates,
            max_abs_log2_drift: g.max_abs_log2_drift(),
        }
    }
}

/// Sample-count-aware EWMA: the first observation seeds the average
/// directly; later ones blend with weight [`CALIBRATION_ALPHA`].
fn ewma(prev: f64, obs: f64, samples_now: u64) -> f64 {
    if samples_now <= 1 {
        obs
    } else {
        prev * (1.0 - CALIBRATION_ALPHA) + obs * CALIBRATION_ALPHA
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(qcs: &[&str], family: &str, outcome: ServeOutcome) -> QuerySample {
        QuerySample {
            template: format!("SELECT ... GROUP BY {}", qcs.join(",")),
            qcs: qcs.iter().map(|s| s.to_string()).collect(),
            family: family.to_string(),
            bound_s: Some(8.0),
            error_bound: None,
            outcome,
            predicted_s: 2.0,
            actual_s: 2.0,
            reported_rel_error: 0.01,
        }
    }

    #[test]
    fn qcs_mass_decays_and_counters_accumulate() {
        let r = Registry::new();
        let p = WorkloadProfiler::new(r.clone());
        p.record(&sample(&["city"], "city", ServeOutcome::Hit));
        p.record(&sample(&["os"], "uniform", ServeOutcome::Fallback));
        p.record(&sample(&["os"], "uniform", ServeOutcome::Miss));
        let snap = p.snapshot();
        assert_eq!(snap.queries, 3);
        // city mass decayed twice: 1 * DECAY * DECAY; os: 1 * DECAY + 1.
        let city = snap.qcs.iter().find(|q| q.key == "city").unwrap();
        let os = snap.qcs.iter().find(|q| q.key == "os").unwrap();
        assert!((city.mass - DECAY * DECAY).abs() < 1e-12);
        assert!((os.mass - (DECAY + 1.0)).abs() < 1e-12);
        assert_eq!(snap.qcs[0].key, "os", "heaviest first");
        assert_eq!((os.fallbacks, os.misses), (1, 1));
        assert_eq!(os.top_family, "uniform");
        assert_eq!(city.hit_rate(), 1.0);
        assert!((snap.total_mass - (DECAY * DECAY + DECAY + 1.0)).abs() < 1e-12);
        assert_eq!(r.counter("blinkdb_workload_queries_total").get(), 3);
        assert_eq!(
            r.counter_labeled(
                "blinkdb_workload_serve_total",
                &[("family", "uniform"), ("outcome", "fallback")]
            )
            .get(),
            1
        );
        assert_eq!(r.gauge("blinkdb_workload_distinct_qcs").get(), 2.0);
    }

    #[test]
    fn empty_qcs_and_overflow_fold_into_bounded_keys() {
        let p = WorkloadProfiler::new(Registry::new());
        p.record(&sample(&[], "uniform", ServeOutcome::Fallback));
        // The empty QCS takes one of the MAX_QCS slots; the last three
        // columns arrive after the cap.
        for i in 0..MAX_QCS + 2 {
            let c = format!("c{i}");
            p.record(&sample(&[&c], "uniform", ServeOutcome::Fallback));
        }
        let snap = p.snapshot();
        let keys: Vec<&str> = snap.qcs.iter().map(|q| q.key.as_str()).collect();
        assert!(keys.contains(&QCS_NONE), "{keys:?}");
        assert!(keys.contains(&"overflow"), "{keys:?}");
        assert_eq!(
            snap.qcs.len(),
            MAX_QCS + 1,
            "MAX_QCS admitted + overflow: {keys:?}"
        );
        let overflow = snap.qcs.iter().find(|q| q.key == "overflow").unwrap();
        assert_eq!(overflow.queries, 3, "the last three columns folded");
        assert!(overflow.columns.is_empty(), "folded keys carry no columns");
    }

    #[test]
    fn calibration_drift_fires_after_min_samples_and_recovers() {
        let r = Registry::new();
        let p = WorkloadProfiler::new(r.clone());
        let mut s = sample(&["city"], "city", ServeOutcome::Hit);
        // Honest: actual == predicted → ratio 1, no drift.
        for _ in 0..CALIBRATION_MIN_SAMPLES {
            let u = p.record(&s);
            assert!(!u.drifted, "{u:?}");
            assert!((u.ratio - 1.0).abs() < 1e-12);
        }
        // Inject 4× miscalibration via the test hook (predictions now
        // appear 4× too small).
        p.set_predicted_scale(0.25);
        let mut last = p.record(&s);
        for _ in 0..6 {
            last = p.record(&s);
        }
        assert!(last.drifted, "EWMA pulled past 2×: {last:?}");
        assert!(last.ratio > DRIFT_RATIO);
        assert!(r.gauge("blinkdb_elp_calibration_drift").get() > 1.0);
        // Restore honesty: the EWMA recovers and the verdict clears.
        p.set_predicted_scale(1.0);
        for _ in 0..10 {
            last = p.record(&s);
        }
        assert!(!last.drifted, "recovered: {last:?}");
        assert!(r.gauge("blinkdb_elp_calibration_drift").get() < 1.0);
        let snap = p.snapshot();
        assert_eq!(snap.templates.len(), 1);
        assert!(!snap.templates[0].drifted);
        // Full scans (predicted 0) never contribute to calibration.
        s.predicted_s = 0.0;
        let u = p.record(&s);
        assert_eq!(u.samples, snap.templates[0].samples, "uncalibrated skip");
    }

    #[test]
    fn snapshot_is_deterministic_and_keys_render() {
        assert_eq!(qcs_key(&[]), "(none)");
        assert_eq!(qcs_key(&["city".to_string(), "os".to_string()]), "city, os");
        let p = WorkloadProfiler::new(Registry::new());
        p.record(&sample(&["city", "os"], "city_os", ServeOutcome::Hit));
        let a = p.snapshot();
        let b = p.snapshot();
        assert_eq!(a.qcs[0].key, b.qcs[0].key);
        assert_eq!(a.qcs[0].columns, vec!["city", "os"]);
        assert_eq!(a.total_mass, b.total_mass);
    }
}
