//! Outside-in spans: the benchmark wraps its own calls into each
//! layer's public functions. Spans stay in memory and are written out
//! once, when the traced run ends.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call: `[start_ns, end_ns)` relative to the recorder's
/// origin, the span that caused it, and the request both belong to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request_id: u64,
}

/// A single-threaded span recorder (one per generator thread; merge
/// with [`Recorder::absorb`]). A disabled recorder runs the wrapped
/// call and records nothing, so measured loops share one code path.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Recorder {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn disabled() -> Self {
        Recorder::new(false, Instant::now())
    }

    /// An empty recorder on the same origin, for another thread; merge it
    /// back with [`Recorder::absorb`].
    pub fn sibling(&self) -> Self {
        Recorder::new(self.enabled, self.origin)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request_id: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            request_id,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Appends another recorder's spans (taken on the same origin),
    /// re-basing their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total self ns)`, where a span's self time
    /// is its duration minus its direct children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(children);
        }
        out
    }

    /// The trace document: every span, plus the self-time roll-up.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                obj([
                    ("name", Json::Str(s.name.into())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("request_id", Json::Num(s.request_id as f64)),
                ])
            })
            .collect();
        let self_times = self
            .self_times()
            .into_iter()
            .map(|(name, (count, ns))| {
                (
                    name,
                    obj([
                        ("count", Json::Num(count as f64)),
                        ("self_ns", Json::Num(ns as f64)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        obj([("self_times", obj(self_times)), ("spans", Json::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut rec = Recorder::new(true, Instant::now());
        rec.span("query", 7, |rec| {
            rec.span("parse", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.span("scan", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].request_id, 7);
        let st = rec.self_times();
        let total = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(st["query"].1 + st["parse"].1 + st["scan"].1, total);
        assert!(
            st["query"].1 < st["parse"].1,
            "the root only pays span bookkeeping"
        );
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::disabled();
        assert_eq!(rec.span("x", 0, |_| 5), 5);
        assert!(rec.spans().is_empty());
    }
}
