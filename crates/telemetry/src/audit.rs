//! Online accuracy auditing: does the reported CI actually contain the
//! truth?
//!
//! BlinkDB's contract is *bounded errors*; nothing on the serving path
//! ever checks that a reported 2σ confidence interval covered the true
//! answer. The [`Auditor`] closes that loop online: the service samples
//! completed queries per canonical template (deterministic interval
//! sampling — every `sample_every`-th completion of a template),
//! re-executes them exactly against the answer's pinned epoch snapshot,
//! and feeds the comparison back here. The auditor maintains, in the
//! shared [`Registry`]:
//!
//! * `blinkdb_audits_total` / `blinkdb_audit_checks_total` /
//!   `blinkdb_audit_hits_total` — audits run, per-aggregate CI checks,
//!   and checks where `|truth − estimate| ≤ 2σ` ("truth ∈ 2σ CI");
//! * the same check/hit counters per template
//!   (`...{template="..."}`, cardinality-bounded by the registry cap);
//! * `blinkdb_audit_realized_error{agg=...,template=...}` — histograms
//!   of realized relative error per template/aggregate;
//! * `blinkdb_audit_coverage` — the running overall hit rate;
//! * `blinkdb_audit_shed_total{reason=...}` — audits skipped under
//!   load (the hot path never pays for auditing);
//! * `blinkdb_audit_miss_log_size` — depth of the bounded miss log.
//!
//! CI misses land in a bounded accuracy log ([`AuditMissRecord`])
//! carrying the offending query's trace, and an `EXPLAIN ACCURACY`-style
//! per-template report is rendered by [`Auditor::report`].
//!
//! This crate is dependency-free, so the auditor never executes
//! anything itself — the service owns re-execution (it has the pinned
//! snapshot) and calls [`Auditor::record_audit`] with both answers.

use crate::registry::{Counter, Gauge, Registry};
use crate::trace::QueryTrace;
use crate::{bounded_key, MAX_TEMPLATES};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Capacity of the bounded accuracy-miss log.
const MISS_LOG_CAPACITY: usize = 64;

/// One per-aggregate comparison between the served estimate and the
/// audited ground truth.
#[derive(Debug, Clone)]
pub struct AuditAggCheck {
    /// Aggregate label (`COUNT(*)`, `AVG(x)`, ...), optionally prefixed
    /// by a group key.
    pub agg: String,
    /// The estimate the service returned.
    pub estimate: f64,
    /// Exact value from the full-resolution re-execution.
    pub truth: f64,
    /// The answer's reported standard error. `INFINITY` means the
    /// estimator declared its error unavailable (trivially a hit — no
    /// claim was made); 0 with `exact` means the answer was exact.
    pub sigma: f64,
    /// Whether the served aggregate was already exact.
    pub exact: bool,
}

impl AuditAggCheck {
    /// Realized relative error against truth (absolute error when the
    /// truth is zero).
    pub fn realized_rel_error(&self) -> f64 {
        let abs = (self.estimate - self.truth).abs();
        if self.truth.abs() > 0.0 {
            abs / self.truth.abs()
        } else {
            abs
        }
    }

    /// The 2σ CI-coverage check: did the reported interval contain the
    /// truth? `sigma_scale` rescales the reported σ (the
    /// variance-underestimate injection hook used by tests and the
    /// alert-transition smoke; 1.0 in production).
    pub fn hit(&self, sigma_scale: f64) -> bool {
        self.exact
            || self.sigma.is_infinite()
            || (self.estimate - self.truth).abs() <= 2.0 * self.sigma * sigma_scale
    }
}

/// Everything the service learned from one audit re-execution.
#[derive(Debug, Clone)]
pub struct AuditOutcome {
    /// Canonical template of the audited query.
    pub template: String,
    /// The query text as submitted.
    pub sql: String,
    /// Data epoch both answers were computed at.
    pub epoch: u64,
    /// Per-aggregate comparisons (one per answer row × aggregate).
    pub checks: Vec<AuditAggCheck>,
    /// The offending query's trace, when tracing was on.
    pub trace: Option<Arc<QueryTrace>>,
}

/// What [`Auditor::record_audit`] concluded, for caller-side
/// annotation (slow log, tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditSummary {
    /// CI checks performed.
    pub checks: usize,
    /// Checks where the truth fell inside the 2σ interval.
    pub hits: usize,
    /// Largest realized relative error across the checks (0 when none).
    pub max_realized_rel_error: f64,
}

/// One CI miss: the reported interval did not contain the truth.
#[derive(Debug, Clone)]
pub struct AuditMissRecord {
    /// Canonical template.
    pub template: String,
    /// Query text.
    pub sql: String,
    /// Data epoch.
    pub epoch: u64,
    /// Offending aggregate label.
    pub agg: String,
    /// Served estimate.
    pub estimate: f64,
    /// Audited truth.
    pub truth: f64,
    /// Reported standard error (after scaling).
    pub sigma: f64,
    /// Realized relative error.
    pub rel_error: f64,
    /// The query's trace, when tracing was on.
    pub trace: Option<Arc<QueryTrace>>,
}

#[derive(Debug, Default, Clone)]
struct TemplateStats {
    completions: u64,
    audits: u64,
    checks: u64,
    hits: u64,
    rel_sum: f64,
    rel_max: f64,
}

#[derive(Debug)]
struct AuditorInner {
    sigma_scale: f64,
    stats: BTreeMap<String, TemplateStats>,
    misses: VecDeque<AuditMissRecord>,
}

/// Online accuracy auditor. Cloning shares all state; handles are cheap.
#[derive(Debug, Clone)]
pub struct Auditor {
    sample_every: u64,
    registry: Registry,
    inner: Arc<Mutex<AuditorInner>>,
    audits_total: Counter,
    checks_total: Counter,
    hits_total: Counter,
    coverage: Gauge,
    miss_log_size: Gauge,
}

impl Auditor {
    /// New auditor registering its series into `registry`, auditing
    /// every `sample_every`-th completion of each template (1 = every
    /// completion; the first completion of a template is always
    /// audited). Min 1.
    pub fn new(registry: Registry, sample_every: u64) -> Self {
        Auditor {
            audits_total: registry.counter("blinkdb_audits_total"),
            checks_total: registry.counter("blinkdb_audit_checks_total"),
            hits_total: registry.counter("blinkdb_audit_hits_total"),
            coverage: registry.gauge("blinkdb_audit_coverage"),
            miss_log_size: registry.gauge("blinkdb_audit_miss_log_size"),
            registry,
            sample_every: sample_every.max(1),
            inner: Arc::new(Mutex::new(AuditorInner {
                sigma_scale: 1.0,
                stats: BTreeMap::new(),
                misses: VecDeque::new(),
            })),
        }
    }

    /// Counts one completion of `template` and decides whether it
    /// should be audited: deterministic interval sampling — the 1st,
    /// (N+1)th, (2N+1)th, ... completion of each template, N =
    /// `sample_every`. Templates beyond the first 128 share the
    /// `overflow` stream.
    pub fn should_audit(&self, template: &str) -> bool {
        let mut g = self.inner.lock().unwrap();
        let key = bounded_key(&g.stats, MAX_TEMPLATES, template);
        let st = g.stats.entry(key).or_default();
        st.completions += 1;
        (st.completions - 1).is_multiple_of(self.sample_every)
    }

    /// Counts an audit skipped under load (`reason` ∈ `queue_depth`,
    /// `deadline_pressure`, `audit_backlog`, ...).
    pub fn record_shed(&self, reason: &'static str) {
        self.registry
            .counter_labeled("blinkdb_audit_shed_total", &[("reason", reason)])
            .inc();
    }

    /// Rescales every subsequently-checked reported σ (1.0 = honest;
    /// < 1 injects a variance underestimate for alert-transition tests).
    pub fn set_sigma_scale(&self, scale: f64) {
        self.inner.lock().unwrap().sigma_scale = scale;
    }

    /// Current σ scale.
    pub fn sigma_scale(&self) -> f64 {
        self.inner.lock().unwrap().sigma_scale
    }

    /// Folds one completed audit into the online state: per-template
    /// and overall check/hit counters, realized-error histograms, the
    /// coverage gauge, and the bounded miss log.
    pub fn record_audit(&self, outcome: AuditOutcome) -> AuditSummary {
        let mut g = self.inner.lock().unwrap();
        let sigma_scale = g.sigma_scale;
        let key = bounded_key(&g.stats, MAX_TEMPLATES, &outcome.template);
        let mut summary = AuditSummary {
            checks: 0,
            hits: 0,
            max_realized_rel_error: 0.0,
        };
        for check in &outcome.checks {
            let rel = check.realized_rel_error();
            let hit = check.hit(sigma_scale);
            summary.checks += 1;
            summary.hits += usize::from(hit);
            summary.max_realized_rel_error = summary.max_realized_rel_error.max(rel);
            let st = g.stats.entry(key.clone()).or_default();
            st.checks += 1;
            st.hits += u64::from(hit);
            st.rel_sum += rel;
            st.rel_max = st.rel_max.max(rel);
            self.registry
                .histogram_labeled(
                    "blinkdb_audit_realized_error",
                    &[("agg", agg_kind(&check.agg)), ("template", &key)],
                )
                .observe(rel);
            if !hit {
                if g.misses.len() == MISS_LOG_CAPACITY {
                    g.misses.pop_front();
                }
                let record = AuditMissRecord {
                    template: key.clone(),
                    sql: outcome.sql.clone(),
                    epoch: outcome.epoch,
                    agg: check.agg.clone(),
                    estimate: check.estimate,
                    truth: check.truth,
                    sigma: check.sigma * sigma_scale,
                    rel_error: rel,
                    trace: outcome.trace.clone(),
                };
                g.misses.push_back(record);
            }
        }
        let st = g.stats.entry(key.clone()).or_default();
        st.audits += 1;
        let miss_depth = g.misses.len();
        drop(g);

        self.audits_total.inc();
        self.checks_total.add(summary.checks as u64);
        self.hits_total.add(summary.hits as u64);
        self.registry
            .counter_labeled("blinkdb_audit_checks_total", &[("template", &key)])
            .add(summary.checks as u64);
        self.registry
            .counter_labeled("blinkdb_audit_hits_total", &[("template", &key)])
            .add(summary.hits as u64);
        let checks = self.checks_total.get();
        if checks > 0 {
            self.coverage
                .set(self.hits_total.get() as f64 / checks as f64);
        }
        self.miss_log_size.set(miss_depth as f64);
        summary
    }

    /// Running overall CI-coverage hit rate (None before any check).
    pub fn coverage(&self) -> Option<f64> {
        let checks = self.checks_total.get();
        (checks > 0).then(|| self.hits_total.get() as f64 / checks as f64)
    }

    /// Audits recorded so far.
    pub fn audits(&self) -> u64 {
        self.audits_total.get()
    }

    /// Current contents of the bounded miss log, oldest first.
    pub fn misses(&self) -> Vec<AuditMissRecord> {
        self.inner.lock().unwrap().misses.iter().cloned().collect()
    }

    /// `EXPLAIN ACCURACY`: a deterministic per-template report of the
    /// online audit state — audits, checks, 2σ coverage, realized
    /// error — sorted by template.
    pub fn report(&self) -> String {
        let g = self.inner.lock().unwrap();
        let mut out = String::from("EXPLAIN ACCURACY\n");
        let _ = writeln!(
            out,
            "{:<44} {:>8} {:>7} {:>7} {:>9} {:>10} {:>10}",
            "template", "queries", "audits", "checks", "coverage", "mean_err", "max_err"
        );
        for (template, st) in &g.stats {
            let coverage = if st.checks == 0 {
                "-".to_string()
            } else {
                format!("{:.3}", st.hits as f64 / st.checks as f64)
            };
            let mean = if st.checks == 0 {
                "-".to_string()
            } else {
                format!("{:.4}", st.rel_sum / st.checks as f64)
            };
            let max = if st.checks == 0 {
                "-".to_string()
            } else {
                format!("{:.4}", st.rel_max)
            };
            let mut label = template.clone();
            if label.len() > 44 {
                label.truncate(41);
                label.push_str("...");
            }
            let _ = writeln!(
                out,
                "{:<44} {:>8} {:>7} {:>7} {:>9} {:>10} {:>10}",
                label, st.completions, st.audits, st.checks, coverage, mean, max
            );
        }
        let checks = self.checks_total.get();
        let overall = if checks == 0 {
            "-".to_string()
        } else {
            format!("{:.3}", self.hits_total.get() as f64 / checks as f64)
        };
        let _ = writeln!(
            out,
            "overall: audits={} checks={} coverage={} misses_logged={}/{}",
            self.audits_total.get(),
            checks,
            overall,
            g.misses.len(),
            MISS_LOG_CAPACITY
        );
        out
    }
}

/// Coarse aggregate-kind label for the realized-error histograms
/// (strips group-key prefixes and argument lists: `g=NY/AVG(x)` →
/// `AVG`).
fn agg_kind(agg: &str) -> &str {
    let tail = agg.rsplit('/').next().unwrap_or(agg);
    tail.split('(').next().unwrap_or(tail).trim()
}

/// Canonical template of a SQL text: string and numeric literals are
/// replaced by `?`, whitespace is collapsed, so every instantiation of
/// one logical query shape shares an audit stream. Deterministic and
/// purely lexical.
pub fn canonical_template(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut chars = sql.chars().peekable();
    let mut pending_space = false;
    while let Some(c) = chars.next() {
        if c.is_whitespace() {
            pending_space = !out.is_empty();
            continue;
        }
        if pending_space {
            out.push(' ');
            pending_space = false;
        }
        if c == '\'' {
            // String literal: consume through the closing quote
            // (doubled quotes escape).
            loop {
                match chars.next() {
                    Some('\'') => {
                        if chars.peek() == Some(&'\'') {
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    Some(_) => {}
                    None => break,
                }
            }
            out.push('?');
        } else if c.is_ascii_digit()
            && !out
                .chars()
                .last()
                .is_some_and(|p| p.is_ascii_alphanumeric() || p == '_')
        {
            // Numeric literal (not part of an identifier).
            while chars
                .peek()
                .is_some_and(|&n| n.is_ascii_digit() || n == '.' || n == 'e' || n == 'E')
            {
                chars.next();
            }
            out.push('?');
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanKind, TraceSpan};

    fn check(estimate: f64, truth: f64, sigma: f64) -> AuditAggCheck {
        AuditAggCheck {
            agg: "AVG(x)".to_string(),
            estimate,
            truth,
            sigma,
            exact: false,
        }
    }

    fn outcome(template: &str, checks: Vec<AuditAggCheck>) -> AuditOutcome {
        AuditOutcome {
            template: template.to_string(),
            sql: format!("{template} instantiated"),
            epoch: 3,
            checks,
            trace: None,
        }
    }

    #[test]
    fn canonical_template_strips_literals() {
        assert_eq!(
            canonical_template("SELECT COUNT(*) FROM t\n WHERE city = 'New   York' AND x > 12.5"),
            "SELECT COUNT(*) FROM t WHERE city = ? AND x > ?"
        );
        assert_eq!(
            canonical_template("SELECT AVG(col2) FROM t WHERE a = 'it''s'"),
            "SELECT AVG(col2) FROM t WHERE a = ?",
            "identifiers with digits survive; escaped quotes consume"
        );
        // Same shape, different constants → same template.
        assert_eq!(
            canonical_template("SELECT COUNT(*) FROM t WHERE a = 'x' AND b = 1"),
            canonical_template("SELECT  COUNT(*)  FROM t WHERE a = 'longer' AND b = 999")
        );
    }

    #[test]
    fn interval_sampling_is_deterministic_per_template() {
        let a = Auditor::new(Registry::new(), 3);
        let picks: Vec<bool> = (0..7).map(|_| a.should_audit("T1")).collect();
        assert_eq!(picks, [true, false, false, true, false, false, true]);
        assert!(a.should_audit("T2"), "each template has its own stream");
    }

    #[test]
    fn coverage_counters_and_miss_log_update() {
        let r = Registry::new();
        let a = Auditor::new(r.clone(), 4);
        // 3 hits (inside 2σ, exact, unavailable), 1 miss.
        let s = a.record_audit(outcome(
            "T",
            vec![
                check(10.0, 10.5, 0.3),
                AuditAggCheck {
                    exact: true,
                    ..check(7.0, 7.0, 0.0)
                },
                check(5.0, 9.0, f64::INFINITY),
                check(10.0, 12.0, 0.4),
            ],
        ));
        assert_eq!((s.checks, s.hits), (4, 3));
        assert!((s.max_realized_rel_error - 4.0 / 9.0).abs() < 1e-12);
        assert_eq!(r.counter("blinkdb_audit_checks_total").get(), 4);
        assert_eq!(r.counter("blinkdb_audit_hits_total").get(), 3);
        assert_eq!(r.gauge("blinkdb_audit_coverage").get(), 0.75);
        assert_eq!(a.coverage(), Some(0.75));
        let misses = a.misses();
        assert_eq!(misses.len(), 1);
        assert_eq!(misses[0].agg, "AVG(x)");
        assert!((misses[0].rel_error - 2.0 / 12.0).abs() < 1e-12);
        assert_eq!(r.gauge("blinkdb_audit_miss_log_size").get(), 1.0);
        let report = a.report();
        assert!(report.starts_with("EXPLAIN ACCURACY"), "{report}");
        assert!(report.contains("0.750"), "{report}");
    }

    #[test]
    fn sigma_scale_injects_variance_underestimates() {
        let a = Auditor::new(Registry::new(), 4);
        let c = check(10.0, 10.5, 0.3); // hit at 2σ = 0.6
        assert!(c.hit(1.0));
        a.set_sigma_scale(0.1);
        let s = a.record_audit(outcome("T", vec![c]));
        assert_eq!(s.hits, 0, "shrunken CI no longer covers the truth");
    }

    #[test]
    fn miss_log_is_bounded_and_templates_overflow() {
        let a = Auditor::new(Registry::new(), 1);
        // MAX_TEMPLATES distinct templates fill the table; the last
        // MISS_LOG_CAPACITY arrive after the cap and fold into overflow.
        for i in 0..MAX_TEMPLATES + MISS_LOG_CAPACITY {
            let t = TraceSpan::new(SpanKind::Query, format!("q{i}"));
            let mut o = outcome(&format!("T{i}"), vec![check(1.0, 100.0, 0.001)]);
            o.trace = Some(Arc::new(QueryTrace::new(t)));
            a.record_audit(o);
        }
        let misses = a.misses();
        assert_eq!(misses.len(), MISS_LOG_CAPACITY, "ring evicts oldest");
        assert_eq!(misses[0].template, "overflow");
        assert!(misses[2].trace.is_some(), "miss carries the trace");
        let report = a.report();
        assert!(report.contains("overflow"), "{report}");
        assert!(report.contains("misses_logged=64/64"), "{report}");
    }
}
