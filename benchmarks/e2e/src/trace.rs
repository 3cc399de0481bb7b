//! Spans recorded from outside the crates: one per call into a public API,
//! kept in memory and written out when the run ends.  With tracing off a
//! span costs one branch and no clock read.

use crate::json::{JsonValue, Obj};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 = no parent.  Spans of one request share its top-level span as
    /// ancestor.
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span; returns its id (0 when tracing is off).
    pub fn begin(&mut self, name: &str, parent: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
        });
        id
    }

    pub fn end(&mut self, id: u64) {
        if id != 0 {
            let now = self.ns(Instant::now());
            self.spans[id as usize - 1].end_ns = now;
        }
    }

    /// Records a span whose ends were timed elsewhere (the load generator
    /// keeps per-query instants anyway).
    pub fn record(&mut self, name: &str, parent: u64, start: Instant, end: Instant) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

pub fn span_to_json(s: &Span, workload: &str, child: usize) -> JsonValue {
    Obj::new()
        .num("id", s.id as f64)
        .num("parent", s.parent as f64)
        .num("child", child as f64)
        .str("workload", workload)
        .str("name", &s.name)
        .num("start_ns", s.start_ns as f64)
        .num("end_ns", s.end_ns as f64)
        .build()
}

/// Per span name: `(count, total_ns, self_ns)` over `(child, span)` pairs,
/// where a span's self time is its duration minus the part of it its direct
/// children cover.  Children of one parent recorded here never overlap each
/// other, so the covered part is the sum of their durations clipped to the
/// parent.  Span ids are per child process.
pub fn self_times(spans: &[(usize, Span)]) -> BTreeMap<String, (u64, u64, u64)> {
    let by_id: BTreeMap<(usize, u64), &Span> =
        spans.iter().map(|(child, s)| ((*child, s.id), s)).collect();
    let mut covered: BTreeMap<(usize, u64), u64> = BTreeMap::new();
    for (child, s) in spans {
        if let Some(p) = by_id.get(&(*child, s.parent)) {
            let start = s.start_ns.max(p.start_ns);
            let end = s.end_ns.min(p.end_ns);
            *covered.entry((*child, p.id)).or_default() += end.saturating_sub(start);
        }
    }
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (child, s) in spans {
        let total = s.end_ns - s.start_ns;
        let own = total.saturating_sub(covered.get(&(*child, s.id)).copied().unwrap_or(0));
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("core.build", 0);
        t.end(id);
        assert_eq!(id, 0);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let span = |child, id, parent, name: &str, start_ns, end_ns| {
            let span = Span {
                id,
                parent,
                name: name.into(),
                start_ns,
                end_ns,
            };
            (child, span)
        };
        let spans = vec![
            span(0, 1, 0, "query", 0, 100),
            span(0, 2, 1, "submit_ack", 0, 30),
            span(0, 3, 1, "complete_wait", 30, 90),
            span(0, 4, 0, "query", 200, 250),
            // Another child reuses the ids; its span 1 is nobody's parent here.
            span(1, 1, 0, "core.build", 0, 10),
        ];
        let t = self_times(&spans);
        assert_eq!(t["query"], (2, 150, 60));
        assert_eq!(t["submit_ack"], (1, 30, 30));
        assert_eq!(t["core.build"], (1, 10, 10));
    }
}
