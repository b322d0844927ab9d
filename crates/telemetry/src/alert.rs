//! Declarative threshold alerting over registry series.
//!
//! An [`AlertEngine`] evaluates a fixed set of [`AlertRule`]s against
//! the live [`Registry`] whenever [`AlertEngine::evaluate`] is called
//! (the service runs it on every derived-metrics refresh). Rules are
//! classic monitoring thresholds with two safeguards against flapping:
//!
//! * **hysteresis** — a rule fires at `fire_threshold` but only
//!   resolves once the value is back past the (stricter)
//!   `clear_threshold`;
//! * **consecutive breaches** — a rule must breach on
//!   `for_evaluations` successive evaluations before it fires
//!   (`Pending` in between).
//!
//! Every evaluation mirrors the state into the registry, so the
//! existing Prometheus/JSON exports carry alerts with no extra
//! machinery: `blinkdb_alert_firing{rule="..."}` (0/1 gauges) plus
//! `blinkdb_alerts_fired_total` / `blinkdb_alerts_resolved_total`
//! transition counters.
//!
//! [`Signal::Ratio`] is *windowed*: each evaluation compares the
//! counter deltas since the previous evaluation, guarded by
//! `min_count` observations of the denominator — "audited coverage
//! < 90% over a window" means the coverage of audits since the last
//! look, not the all-time average, so a burst of bad CIs fires even
//! after a long healthy history (and recovery resolves it).

use crate::registry::Registry;
use std::sync::{Arc, Mutex};

/// What a rule watches.
#[derive(Debug, Clone, PartialEq)]
pub enum Signal {
    /// A counter's current value.
    Counter(String),
    /// A gauge's current value.
    Gauge(String),
    /// Windowed ratio of two counters (delta numerator / delta
    /// denominator between evaluations).
    Ratio {
        /// Numerator counter name.
        num: String,
        /// Denominator counter name.
        den: String,
    },
    /// A histogram quantile (snapshots expose p50/p95/p99; `q` snaps
    /// to the nearest of those).
    HistogramQuantile {
        /// Histogram name.
        name: String,
        /// Requested quantile in `[0, 1]`.
        q: f64,
    },
}

/// Which side of the threshold is unhealthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Fire when the value rises above `fire_threshold`.
    Above,
    /// Fire when the value falls below `fire_threshold`.
    Below,
}

/// One declarative threshold rule.
#[derive(Debug, Clone)]
pub struct AlertRule {
    /// Stable rule name (becomes the `rule` label in exports).
    pub name: String,
    /// Series the rule watches.
    pub signal: Signal,
    /// Unhealthy direction.
    pub direction: Direction,
    /// Breaching this value (in `direction`) starts the alert.
    pub fire_threshold: f64,
    /// The value must come back past this (stricter) threshold before
    /// a firing alert resolves — the hysteresis band.
    pub clear_threshold: f64,
    /// Consecutive breaching evaluations required to fire (min 1).
    pub for_evaluations: u32,
    /// For [`Signal::Ratio`]: minimum denominator growth before an
    /// evaluation counts (smaller windows are carried forward).
    pub min_count: u64,
}

/// Lifecycle state of one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Healthy.
    Ok,
    /// Breaching, but not yet for `for_evaluations` evaluations.
    Pending,
    /// Fired and not yet resolved.
    Firing,
}

impl AlertState {
    /// Stable lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }
}

/// Point-in-time status of one rule after an evaluation.
#[derive(Debug, Clone)]
pub struct AlertStatus {
    /// Rule name.
    pub rule: String,
    /// Current lifecycle state.
    pub state: AlertState,
    /// The value the last effective evaluation saw (NaN before any).
    pub value: f64,
    /// Times this rule has transitioned to firing.
    pub fired: u64,
    /// Times this rule has resolved.
    pub resolved: u64,
}

#[derive(Debug, Clone)]
struct RuleRuntime {
    state: AlertState,
    streak: u32,
    value: f64,
    fired: u64,
    resolved: u64,
    /// Ratio window anchors: counter values at the last effective
    /// evaluation.
    prev_num: u64,
    prev_den: u64,
}

impl RuleRuntime {
    fn new() -> Self {
        RuleRuntime {
            state: AlertState::Ok,
            streak: 0,
            value: f64::NAN,
            fired: 0,
            resolved: 0,
            prev_num: 0,
            prev_den: 0,
        }
    }
}

/// Evaluates a rule set against a registry. Cloning shares state.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    registry: Registry,
    rules: Arc<Vec<AlertRule>>,
    runtime: Arc<Mutex<Vec<RuleRuntime>>>,
}

impl AlertEngine {
    /// New engine over `registry` with a fixed rule set.
    pub fn new(registry: Registry, rules: Vec<AlertRule>) -> Self {
        let runtime = rules.iter().map(|_| RuleRuntime::new()).collect();
        AlertEngine {
            registry,
            rules: Arc::new(rules),
            runtime: Arc::new(Mutex::new(runtime)),
        }
    }

    /// The rules under evaluation.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Runs one evaluation pass over every rule, updates firing state,
    /// mirrors it into the registry, and returns the statuses.
    pub fn evaluate(&self) -> Vec<AlertStatus> {
        let counters = self.registry.counters();
        let gauges = self.registry.gauges();
        let histograms = self.registry.histograms();
        let counter = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        };
        let mut runtime = self.runtime.lock().unwrap();
        let mut out = Vec::with_capacity(self.rules.len());
        for (rule, rt) in self.rules.iter().zip(runtime.iter_mut()) {
            let value = match &rule.signal {
                Signal::Counter(name) => Some(counter(name) as f64),
                Signal::Gauge(name) => gauges
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|&(_, v)| v)
                    .or(Some(0.0)),
                Signal::Ratio { num, den } => {
                    let (n, d) = (counter(num), counter(den));
                    let grown = d.saturating_sub(rt.prev_den);
                    if grown >= rule.min_count.max(1) {
                        let v = n.saturating_sub(rt.prev_num) as f64 / grown as f64;
                        rt.prev_num = n;
                        rt.prev_den = d;
                        Some(v)
                    } else {
                        None // window too small: carry it forward
                    }
                }
                Signal::HistogramQuantile { name, q } => histograms
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, s)| {
                        if *q >= 0.97 {
                            s.p99
                        } else if *q >= 0.75 {
                            s.p95
                        } else {
                            s.p50
                        }
                    })
                    .or(Some(0.0)),
            };
            if let Some(v) = value {
                rt.value = v;
                let breach = match rule.direction {
                    Direction::Above => v > rule.fire_threshold,
                    Direction::Below => v < rule.fire_threshold,
                };
                let cleared = match rule.direction {
                    Direction::Above => v <= rule.clear_threshold,
                    Direction::Below => v >= rule.clear_threshold,
                };
                match rt.state {
                    AlertState::Firing => {
                        if cleared {
                            rt.state = AlertState::Ok;
                            rt.streak = 0;
                            rt.resolved += 1;
                            self.registry
                                .counter_labeled(
                                    "blinkdb_alerts_resolved_total",
                                    &[("rule", &rule.name)],
                                )
                                .inc();
                        }
                    }
                    AlertState::Ok | AlertState::Pending => {
                        if breach {
                            rt.streak += 1;
                            if rt.streak >= rule.for_evaluations.max(1) {
                                rt.state = AlertState::Firing;
                                rt.fired += 1;
                                self.registry
                                    .counter_labeled(
                                        "blinkdb_alerts_fired_total",
                                        &[("rule", &rule.name)],
                                    )
                                    .inc();
                            } else {
                                rt.state = AlertState::Pending;
                            }
                        } else {
                            rt.state = AlertState::Ok;
                            rt.streak = 0;
                        }
                    }
                }
            }
            self.registry
                .gauge_labeled("blinkdb_alert_firing", &[("rule", &rule.name)])
                .set(f64::from(rt.state == AlertState::Firing));
            out.push(AlertStatus {
                rule: rule.name.clone(),
                state: rt.state,
                value: rt.value,
                fired: rt.fired,
                resolved: rt.resolved,
            });
        }
        out
    }
}

/// The default BlinkDB rule set: audited CI coverage under 90% over a
/// window (≥ 20 checks), p99 simulated latency above the deadline
/// budget, WAL fsync p95, compaction backlog, sample-family staleness,
/// and ELP calibration drift.
pub fn default_blinkdb_rules(deadline_budget_s: f64) -> Vec<AlertRule> {
    vec![
        AlertRule {
            name: "audit_coverage_low".to_string(),
            signal: Signal::Ratio {
                num: "blinkdb_audit_hits_total".to_string(),
                den: "blinkdb_audit_checks_total".to_string(),
            },
            direction: Direction::Below,
            fire_threshold: 0.90,
            clear_threshold: 0.92,
            for_evaluations: 1,
            min_count: 20,
        },
        AlertRule {
            name: "p99_over_deadline_budget".to_string(),
            signal: Signal::HistogramQuantile {
                name: "blinkdb_sim_latency_seconds".to_string(),
                q: 0.99,
            },
            direction: Direction::Above,
            fire_threshold: deadline_budget_s,
            clear_threshold: deadline_budget_s * 0.9,
            for_evaluations: 2,
            min_count: 0,
        },
        AlertRule {
            name: "wal_fsync_p95_slow".to_string(),
            signal: Signal::HistogramQuantile {
                name: "blinkdb_wal_fsync_seconds".to_string(),
                q: 0.95,
            },
            direction: Direction::Above,
            fire_threshold: 0.050,
            clear_threshold: 0.025,
            for_evaluations: 2,
            min_count: 0,
        },
        AlertRule {
            name: "compaction_backlog_high".to_string(),
            signal: Signal::Gauge("blinkdb_compaction_backlog_segments".to_string()),
            direction: Direction::Above,
            fire_threshold: 64.0,
            clear_threshold: 32.0,
            for_evaluations: 2,
            min_count: 0,
        },
        AlertRule {
            name: "family_staleness_high".to_string(),
            signal: Signal::Gauge("blinkdb_family_max_epochs_stale".to_string()),
            direction: Direction::Above,
            fire_threshold: 256.0,
            clear_threshold: 64.0,
            for_evaluations: 2,
            min_count: 0,
        },
        // The workload profiler mirrors its worst per-template ELP
        // calibration drift as |log2(actual/predicted)| — 1.0 means
        // some template's scan-time predictions are 2× off in either
        // direction, past the profiler's own invalidation threshold.
        AlertRule {
            name: "elp_miscalibrated".to_string(),
            signal: Signal::Gauge("blinkdb_elp_calibration_drift".to_string()),
            direction: Direction::Above,
            fire_threshold: 1.0,
            clear_threshold: 0.5,
            for_evaluations: 1,
            min_count: 0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gauge_rule(fire: f64, clear: f64, for_evals: u32) -> AlertRule {
        AlertRule {
            name: "g_high".to_string(),
            signal: Signal::Gauge("g".to_string()),
            direction: Direction::Above,
            fire_threshold: fire,
            clear_threshold: clear,
            for_evaluations: for_evals,
            min_count: 0,
        }
    }

    #[test]
    fn fires_after_consecutive_breaches_and_resolves_with_hysteresis() {
        let r = Registry::new();
        let e = AlertEngine::new(r.clone(), vec![gauge_rule(10.0, 5.0, 2)]);
        r.set_gauge("g", 12.0);
        assert_eq!(e.evaluate()[0].state, AlertState::Pending, "1st breach");
        r.set_gauge("g", 3.0);
        assert_eq!(e.evaluate()[0].state, AlertState::Ok, "streak resets");
        r.set_gauge("g", 12.0);
        e.evaluate();
        let s = &e.evaluate()[0];
        assert_eq!(s.state, AlertState::Firing, "2 consecutive breaches");
        assert_eq!(s.fired, 1);
        // Inside the hysteresis band (5..10]: stays firing.
        r.set_gauge("g", 7.0);
        assert_eq!(e.evaluate()[0].state, AlertState::Firing);
        r.set_gauge("g", 4.0);
        let s = &e.evaluate()[0];
        assert_eq!(s.state, AlertState::Ok, "cleared below 5");
        assert_eq!(s.resolved, 1);
        // State is mirrored into the registry for the exporters.
        assert_eq!(
            r.counter_labeled("blinkdb_alerts_fired_total", &[("rule", "g_high")])
                .get(),
            1
        );
        assert_eq!(
            r.counter_labeled("blinkdb_alerts_resolved_total", &[("rule", "g_high")])
                .get(),
            1
        );
        assert_eq!(
            r.gauge_labeled("blinkdb_alert_firing", &[("rule", "g_high")])
                .get(),
            0.0
        );
    }

    #[test]
    fn windowed_ratio_waits_for_min_count_then_uses_deltas() {
        let r = Registry::new();
        let rule = AlertRule {
            name: "cov".to_string(),
            signal: Signal::Ratio {
                num: "hits".to_string(),
                den: "checks".to_string(),
            },
            direction: Direction::Below,
            fire_threshold: 0.9,
            clear_threshold: 0.95,
            for_evaluations: 1,
            min_count: 10,
        };
        let e = AlertEngine::new(r.clone(), vec![rule]);
        let (hits, checks) = (r.counter("hits"), r.counter("checks"));
        hits.add(5);
        checks.add(5);
        let s = &e.evaluate()[0];
        assert_eq!(s.state, AlertState::Ok, "window too small: carried");
        assert!(s.value.is_nan());
        hits.add(5);
        checks.add(5);
        assert_eq!(e.evaluate()[0].value, 1.0, "10/10 over the full window");
        // Next window: 0/20 → fires even though the all-time ratio is 1/3.
        checks.add(20);
        let s = &e.evaluate()[0];
        assert_eq!(s.value, 0.0);
        assert_eq!(s.state, AlertState::Firing);
        // Recovery window: 30/30 → resolves.
        hits.add(30);
        checks.add(30);
        assert_eq!(e.evaluate()[0].state, AlertState::Ok);
    }

    #[test]
    fn default_rules_cover_the_contracted_series() {
        let rules = default_blinkdb_rules(8.0);
        let names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "audit_coverage_low",
                "p99_over_deadline_budget",
                "wal_fsync_p95_slow",
                "compaction_backlog_high",
                "family_staleness_high",
                "elp_miscalibrated"
            ]
        );
        for r in &rules {
            let tighter = match r.direction {
                Direction::Above => r.clear_threshold <= r.fire_threshold,
                Direction::Below => r.clear_threshold >= r.fire_threshold,
            };
            assert!(tighter, "{}: clear must be stricter than fire", r.name);
        }
        // Missing series don't fire on an empty registry.
        let e = AlertEngine::new(Registry::new(), rules);
        for s in e.evaluate() {
            assert_ne!(s.state, AlertState::Firing, "{}", s.rule);
        }
    }
}
