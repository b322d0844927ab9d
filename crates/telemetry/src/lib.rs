//! Unified observability substrate for the BlinkDB reproduction.
//!
//! BlinkDB's contract is *bounded errors and bounded response times*
//! (§1); this crate makes both budgets visible. It has three parts,
//! deliberately free of any dependency on the rest of the workspace so
//! every layer (service, core maintenance, executor, durability) can
//! register into the same surfaces:
//!
//! 1. [`registry`] — a process-wide, thread-safe [`Registry`] of named
//!    [`Counter`]s, [`Gauge`]s, and log-bucketed [`Histogram`]s. Handles
//!    are cheap `Arc` clones; the hot path touches only atomics.
//! 2. [`trace`] — a span tree ([`QueryTrace`]) recording where one
//!    query's simulated time went: admission, ELP probes, plan compile,
//!    cache provenance, per-partition scans, bootstrap replicate work,
//!    early-termination wave checks, merge, finalize. Rendered as an
//!    `EXPLAIN ANALYZE`-style report by [`QueryTrace::render`].
//! 3. [`export`] + [`slowlog`] — Prometheus text / JSON snapshot
//!    renderers over a registry, and a bounded ring buffer of
//!    slow-query records each carrying the offender's trace.
//!
//! Tracing is opt-in per query and records only values the pipeline
//! already computed — it never draws from the simulator's seed stream,
//! so answers are bit-identical with tracing on or off.
//!
//! On top of the substrate sit two feedback loops:
//!
//! 4. [`audit`] — online accuracy auditing: the [`Auditor`] tracks,
//!    per canonical query template, whether reported 2σ confidence
//!    intervals actually contained the audited ground truth, with
//!    realized-error histograms, a bounded miss log, and an
//!    `EXPLAIN ACCURACY` report.
//! 5. [`alert`] — a declarative [`AlertEngine`]: threshold rules with
//!    hysteresis and firing/resolved transitions over registry series,
//!    mirrored back into the exports as `blinkdb_alert_*`.
//! 6. [`profile`] — online workload profiling: the
//!    [`WorkloadProfiler`] folds every completed query's query column
//!    set, serving family, and outcome into decayed per-QCS frequency
//!    counters, and tracks ELP calibration (predicted vs actual scan
//!    seconds per template) for the `elp_miscalibrated` alert and
//!    plan-profile invalidation. Its [`WorkloadSnapshot`] feeds the
//!    sample-plan advisor's `EXPLAIN WORKLOAD` report in `core`.

#![warn(missing_docs)]

pub mod alert;
pub mod audit;
pub mod export;
pub mod profile;
pub mod registry;
pub mod slowlog;
pub mod trace;

pub use alert::{
    default_blinkdb_rules, AlertEngine, AlertRule, AlertState, AlertStatus, Direction, Signal,
};
pub use audit::{
    canonical_template, AuditAggCheck, AuditMissRecord, AuditOutcome, AuditSummary, Auditor,
};
pub use export::{render_json, render_prometheus, validate_json, validate_prometheus};
pub use profile::{
    qcs_key, CalibrationUpdate, QcsProfile, QuerySample, ServeOutcome, TemplateCalibration,
    WorkloadProfiler, WorkloadSnapshot, QCS_NONE,
};
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, DEFAULT_LABEL_CAP};
pub use slowlog::{SlowOutcome, SlowQueryLog, SlowQueryRecord};
pub use trace::{AttrValue, QueryTrace, SpanKind, TraceSpan};

/// Distinct templates the auditor and the profiler each track before
/// new ones fold into a shared `overflow` stream.
const MAX_TEMPLATES: usize = 128;

/// Bounded key: an already-tracked key resolves to itself; a new one is
/// admitted while `map` holds fewer than `cap` keys, else folds into
/// `overflow`.
fn bounded_key<V>(map: &std::collections::BTreeMap<String, V>, cap: usize, key: &str) -> String {
    if map.contains_key(key) || map.len() < cap {
        key.to_string()
    } else {
        "overflow".to_string()
    }
}
