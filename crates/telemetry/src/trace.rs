//! Span-based query traces and the `EXPLAIN ANALYZE`-style renderer.
//!
//! A [`QueryTrace`] is a tree of [`TraceSpan`]s recording where one
//! query's *simulated* time went. Spans never measure anything
//! themselves — the pipeline hands them costs it already computed — so
//! attaching a trace cannot perturb the simulation's seed stream or the
//! answer. Interior spans carry the sum of their children's costs
//! ([`TraceSpan::roll_up_cost`]), so at every level the invariant
//! `parent.sim_cost_s == Σ child.sim_cost_s` holds exactly in `f64`
//! (producers use an exact-remainder split when attributing a stage
//! total across children).
//!
//! Span taxonomy (see docs/ARCHITECTURE.md "Span taxonomy"):
//!
//! ```text
//! query
//! ├─ admission          service: decision, floor, queue wait, caches
//! ├─ plan               ELP probes + resolution choice (cost = probe_s)
//! │  ├─ probe ×F        one per candidate family probed
//! │  └─ compile         chosen family/resolution, pruned fraction
//! └─ execute            final run (cost = elapsed_s)
//!    ├─ partition ×K    per-partition scan share, rows, selectivity
//!    ├─ wave_check ×W   early-termination bound checks (cost 0)
//!    ├─ bootstrap       replicate surcharge when B > 0
//!    ├─ merge           partial-aggregate reduction (cost 0)
//!    └─ finalize        finish + error bars (cost 0)
//! ```

use std::fmt;

/// What a span describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Root: one submitted query.
    Query,
    /// Service admission decision (accept / degrade / reject).
    Admission,
    /// Cache lookup with hit/miss provenance.
    CacheLookup,
    /// Planning stage: ELP probing + resolution choice.
    Plan,
    /// One ELP probe of a candidate sample family.
    Probe,
    /// Plan compilation / resolution choice.
    Compile,
    /// Execution stage: the final run.
    Execute,
    /// One partition scan of the final run.
    Partition,
    /// Early-termination error-bound check between waves.
    WaveCheck,
    /// Bootstrap replicate work (present when B > 0).
    Bootstrap,
    /// Merge of partial aggregates.
    Merge,
    /// Answer finalization (error bars, confidence intervals).
    Finalize,
    /// Anything else (terminal events for rejected queries, etc).
    Event,
}

impl SpanKind {
    /// Stable lower-case name used by the renderer and tests.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::Admission => "admission",
            SpanKind::CacheLookup => "cache_lookup",
            SpanKind::Plan => "plan",
            SpanKind::Probe => "probe",
            SpanKind::Compile => "compile",
            SpanKind::Execute => "execute",
            SpanKind::Partition => "partition",
            SpanKind::WaveCheck => "wave_check",
            SpanKind::Bootstrap => "bootstrap",
            SpanKind::Merge => "merge",
            SpanKind::Finalize => "finalize",
            SpanKind::Event => "event",
        }
    }
}

/// Typed attribute value on a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Short string (family label, cache provenance, ...).
    Str(String),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v:.6}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
            AttrValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// One node of a query trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// What this span describes.
    pub kind: SpanKind,
    /// Human label (family name, `partition 3`, ...). May be empty.
    pub label: String,
    /// Simulated seconds attributed to this span (inclusive of
    /// children for interior spans; see module docs).
    pub sim_cost_s: f64,
    /// Typed key/value annotations.
    pub attrs: Vec<(&'static str, AttrValue)>,
    /// Child spans in pipeline order.
    pub children: Vec<TraceSpan>,
}

impl TraceSpan {
    /// New zero-cost span.
    pub fn new(kind: SpanKind, label: impl Into<String>) -> Self {
        TraceSpan {
            kind,
            label: label.into(),
            sim_cost_s: 0.0,
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder: sets the span's cost.
    pub fn with_cost(mut self, sim_cost_s: f64) -> Self {
        self.sim_cost_s = sim_cost_s;
        self
    }

    /// Builder: appends an attribute.
    pub fn attr(mut self, key: &'static str, value: impl Into<AttrValue>) -> Self {
        self.attrs.push((key, value.into()));
        self
    }

    /// Appends a child span.
    pub fn push(&mut self, child: TraceSpan) {
        self.children.push(child);
    }

    /// Sets this span's cost to the exact `f64` sum of its children's
    /// costs (left-to-right) and returns it.
    pub fn roll_up_cost(&mut self) -> f64 {
        let mut total = 0.0;
        for c in &self.children {
            total += c.sim_cost_s;
        }
        self.sim_cost_s = total;
        total
    }

    /// First attribute with this key, if any.
    pub fn get_attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Depth-first collection of all descendant spans (including self)
    /// of the given kind.
    pub fn find_all(&self, kind: SpanKind) -> Vec<&TraceSpan> {
        let mut out = Vec::new();
        self.visit(&mut |s| {
            if s.kind == kind {
                out.push(s);
            }
        });
        out
    }

    fn visit<'a>(&'a self, f: &mut impl FnMut(&'a TraceSpan)) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
    }

    /// Number of spans in this subtree (including self).
    pub fn len(&self) -> usize {
        1 + self.children.iter().map(TraceSpan::len).sum::<usize>()
    }

    /// True when the subtree is a single childless span.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }
}

/// A complete trace of one query, rooted at a [`SpanKind::Query`] span.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// Root span; its cost is the query's total simulated response
    /// time (planning probes + final execution).
    pub root: TraceSpan,
}

impl QueryTrace {
    /// Wraps a root span.
    pub fn new(root: TraceSpan) -> Self {
        QueryTrace { root }
    }

    /// All spans of a kind, in depth-first pipeline order.
    pub fn spans(&self, kind: SpanKind) -> Vec<&TraceSpan> {
        self.root.find_all(kind)
    }

    /// Total simulated cost of the query (the root span's cost).
    pub fn total_cost_s(&self) -> f64 {
        self.root.sim_cost_s
    }

    /// Exact `f64` sum of the root's direct children — the "per-stage
    /// sim-costs" of the acceptance criteria. Equals
    /// [`QueryTrace::total_cost_s`] whenever producers rolled costs up.
    pub fn stage_cost_sum_s(&self) -> f64 {
        self.root.children.iter().map(|c| c.sim_cost_s).sum()
    }

    /// Renders the trace as an `EXPLAIN ANALYZE`-style tree report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_span(&self.root, "", true, true, &mut out);
        out
    }

    /// Renders the trace as a JSON document mirroring [`QueryTrace::render`]:
    /// one object per span with `kind`/`label`/`sim_cost_s`, attrs as an
    /// ordered `[key, value]` pair array (order and duplicates preserved,
    /// exactly as the tree report prints them), and `children` nested.
    /// The output always satisfies [`crate::validate_json`].
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        json_span(&self.root, &mut out);
        out.push('\n');
        out
    }
}

fn json_span(span: &TraceSpan, out: &mut String) {
    use crate::export::{json_escape, json_f64};
    use fmt::Write as _;
    let _ = write!(
        out,
        "{{\"kind\":\"{}\",\"label\":\"{}\",\"sim_cost_s\":{},\"attrs\":[",
        span.kind.as_str(),
        json_escape(&span.label),
        json_f64(span.sim_cost_s)
    );
    for (i, (k, v)) in span.attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[\"{}\",", json_escape(k));
        match v {
            AttrValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::F64(v) => out.push_str(&json_f64(*v)),
            AttrValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::Str(v) => {
                let _ = write!(out, "\"{}\"", json_escape(v));
            }
        }
        out.push(']');
    }
    out.push_str("],\"children\":[");
    for (i, c) in span.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_span(c, out);
    }
    out.push_str("]}");
}

fn render_span(span: &TraceSpan, prefix: &str, is_last: bool, is_root: bool, out: &mut String) {
    use fmt::Write as _;
    if is_root {
        let _ = write!(out, "{}", span.kind.as_str().to_uppercase());
    } else {
        let branch = if is_last { "└─ " } else { "├─ " };
        let _ = write!(out, "{prefix}{branch}{}", span.kind.as_str());
    }
    if !span.label.is_empty() {
        let _ = write!(out, " [{}]", span.label);
    }
    if span.sim_cost_s != 0.0 {
        let _ = write!(out, "  cost={:.6}s", span.sim_cost_s);
    }
    for (k, v) in &span.attrs {
        let _ = write!(out, " {k}={v}");
    }
    out.push('\n');
    let child_prefix = if is_root {
        String::new()
    } else {
        format!("{prefix}{}", if is_last { "   " } else { "│  " })
    };
    for (i, c) in span.children.iter().enumerate() {
        render_span(c, &child_prefix, i + 1 == span.children.len(), false, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_trace() -> QueryTrace {
        let mut plan = TraceSpan::new(SpanKind::Plan, "");
        plan.push(
            TraceSpan::new(SpanKind::Probe, "stratified(dt)")
                .with_cost(0.125)
                .attr("rows", 1024u64),
        );
        plan.push(
            TraceSpan::new(SpanKind::Probe, "uniform")
                .with_cost(0.0625)
                .attr("rows", 512u64),
        );
        plan.push(TraceSpan::new(SpanKind::Compile, "").attr("resolution", 3u64));
        plan.roll_up_cost();
        let mut exec = TraceSpan::new(SpanKind::Execute, "");
        for i in 0..4u64 {
            exec.push(
                TraceSpan::new(SpanKind::Partition, format!("partition {i}"))
                    .with_cost(0.25)
                    .attr("rows_scanned", 100 + i),
            );
        }
        exec.push(TraceSpan::new(SpanKind::Merge, "").attr("partials", 4u64));
        exec.push(TraceSpan::new(SpanKind::Finalize, "").attr("groups", 7u64));
        exec.roll_up_cost();
        let mut root = TraceSpan::new(SpanKind::Query, "q1");
        root.push(TraceSpan::new(SpanKind::Admission, "").attr("decision", "admitted"));
        root.push(plan);
        root.push(exec);
        root.roll_up_cost();
        QueryTrace::new(root)
    }

    #[test]
    fn roll_up_makes_stage_costs_sum_exactly() {
        let t = demo_trace();
        assert_eq!(t.total_cost_s(), t.stage_cost_sum_s());
        assert_eq!(t.total_cost_s(), 0.125 + 0.0625 + 4.0 * 0.25);
        assert_eq!(t.spans(SpanKind::Partition).len(), 4);
        assert_eq!(t.spans(SpanKind::Probe).len(), 2);
        assert_eq!(t.root.len(), 13);
    }

    #[test]
    fn attrs_are_queryable() {
        let t = demo_trace();
        let parts = t.spans(SpanKind::Partition);
        let rows: u64 = parts
            .iter()
            .map(|s| match s.get_attr("rows_scanned") {
                Some(AttrValue::U64(v)) => *v,
                _ => panic!("missing rows_scanned"),
            })
            .sum();
        assert_eq!(rows, 406);
        assert_eq!(
            t.spans(SpanKind::Admission)[0].get_attr("decision"),
            Some(&AttrValue::Str("admitted".to_string()))
        );
    }

    #[test]
    fn render_shows_tree_structure() {
        let r = demo_trace().render();
        assert!(r.starts_with("QUERY [q1]"), "root line: {r}");
        assert!(r.contains("├─ plan"));
        assert!(r.contains("│  ├─ probe [stratified(dt)]"));
        assert!(r.contains("└─ finalize"));
        assert!(r.contains("cost=0.250000s"));
        assert_eq!(r.lines().count(), 13, "one line per span:\n{r}");
    }

    #[test]
    fn json_export_mirrors_the_rendered_tree() {
        let t = demo_trace();
        let json = t.to_json();
        let scalars = crate::validate_json(&json).expect("trace json parses");
        assert!(scalars > 0);
        // One JSON span object per rendered line — same tree, span for span.
        assert_eq!(
            json.matches("{\"kind\":").count(),
            t.render().lines().count()
        );
        assert_eq!(json.matches("{\"kind\":").count(), t.root.len());
        // Every attr the renderer prints is in the JSON, typed.
        assert!(json.contains("[\"rows\",1024]"));
        assert!(json.contains("[\"decision\",\"admitted\"]"));
        assert!(json.contains("\"sim_cost_s\":0.25"));
        // Root cost survives with full precision.
        assert!(json.contains(&format!("\"sim_cost_s\":{}", t.total_cost_s())));
    }

    #[test]
    fn json_export_escapes_hostile_labels() {
        let t = QueryTrace::new(
            TraceSpan::new(SpanKind::Query, "he said \"hi\"\n\\end")
                .attr("nan", f64::NAN)
                .attr("flag", true),
        );
        let json = t.to_json();
        crate::validate_json(&json).expect("escaped json parses");
        assert!(json.contains("he said \\\"hi\\\"\\n\\\\end"));
        assert!(json.contains("[\"nan\",null]"), "NaN maps to null: {json}");
    }

    #[test]
    fn empty_and_single_span_traces_render() {
        let t = QueryTrace::new(TraceSpan::new(SpanKind::Query, ""));
        assert_eq!(t.total_cost_s(), 0.0);
        assert_eq!(t.render(), "QUERY\n");
        assert!(t.root.is_empty());
    }
}
