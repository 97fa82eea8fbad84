//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! the simulator's public functions; nothing inside the program is
//! instrumented. A disabled tracer only calls the closure, so untraced
//! runs pay one branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

use bow_util::json::Json;

/// One timed call: name, start and end (ns since the tracer started),
/// the enclosing span and the operation (cell or request) it served.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per-name totals over a set of spans.
#[derive(Default, Clone, Copy)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            f64::NAN
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for operation `op`. Spans
    /// opened inside `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Number of spans recorded so far (a mark for [`aggregate`]).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals and self times per span name over the spans recorded since
    /// `from`. Self time is a span's duration minus its children's.
    pub fn aggregate(&self, from: usize) -> BTreeMap<&'static str, Agg> {
        let spans = &self.spans[from..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                child_ns[p - from] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, c) in spans.iter().zip(child_ns) {
            let a = out.entry(s.name).or_default();
            a.calls += 1;
            a.total_ns += s.dur_ns();
            a.self_ns += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Every span as JSON, written out once at exit.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::from(s.name)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                        ),
                        ("op", Json::from(s.op)),
                    ])
                })
                .collect(),
        )
    }
}
