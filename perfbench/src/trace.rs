//! In-memory spans for the traced run.
//!
//! Each span records its name, start, end, parent, workload and
//! repetition. Spans stay in memory while the benchmark runs and are
//! written out once at the end ([`Tracer::to_json`]). A disabled tracer
//! (the untraced run) records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Handle of an open (or recorded) span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub workload: &'static str,
    pub rep: u32,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    workload: &'static str,
    rep: u32,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            workload: "",
            rep: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.enabled
    }

    /// Tags the spans that follow with `workload` and repetition `rep`.
    pub fn set_context(&mut self, workload: &'static str, rep: u32) {
        self.workload = workload;
        self.rep = rep;
    }

    /// Opens a span, child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let now = self.since_origin(Instant::now());
        let id = self.push(name, now, f64::NAN, self.open.last().copied());
        self.open.push(id.0);
        id
    }

    /// Closes `id` (and any span left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.since_origin(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id.0 {
                break;
            }
        }
    }

    /// Records an already-finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
    ) {
        if self.enabled {
            let (start, end) = (self.since_origin(start), self.since_origin(end));
            self.push(name, start, end, parent.map(|p| p.0));
        }
    }

    fn push(&mut self, name: &'static str, start: f64, end: f64, parent: Option<usize>) -> SpanId {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            workload: self.workload,
            rep: self.rep,
        });
        SpanId(self.spans.len() - 1)
    }

    fn since_origin(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Self time of every span: its duration minus the part of it its
    /// children cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| self_time(s, kids))
            .collect()
    }

    /// Self time of the most recent span named `name`.
    pub fn last_self_time(&self, name: &str) -> Option<f64> {
        let i = self.spans.iter().rposition(|s| s.name == name)?;
        let kids = self.spans[i + 1..]
            .iter()
            .filter(|c| c.parent == Some(i))
            .map(|c| (c.start, c.end))
            .collect();
        Some(self_time(&self.spans[i], kids))
    }

    /// Total and self seconds per (workload, span name).
    pub fn summary(&self) -> BTreeMap<(&'static str, &'static str), (f64, f64, u64)> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry((s.workload, s.name)).or_insert((0.0, 0.0, 0));
            e.0 += s.end - s.start;
            e.1 += own;
            e.2 += 1;
        }
        out
    }

    /// Every span as a JSON array, self time included.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"workload\": \"{}\", \"rep\": {}, \"parent\": {parent}, \"start_s\": {}, \"end_s\": {}, \"self_s\": {}}}",
                s.name, s.workload, s.rep, s.start, s.end, own
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// `span`'s duration minus the union of its children's intervals,
/// clipped to the span.
fn self_time(span: &Span, mut kids: Vec<(f64, f64)>) -> f64 {
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut covered, mut reach) = (0.0, span.start);
    for (start, end) in kids {
        let (start, end) = (start.max(reach), end.min(span.end));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.end - span.start - covered
}
