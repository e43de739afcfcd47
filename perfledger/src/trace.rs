//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end, the span that caused it and
//! the id of the op it belongs to. Spans stay in memory while the run
//! measures and are written out once, when it ends. A disabled tracer
//! records nothing and costs one branch per call site.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers, e.g. `types.infer`.
    pub name: &'static str,
    /// The op the span belongs to.
    pub op: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Inclusive and self time of the spans of one name within one op.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Times {
    /// Sum of the spans' durations, in milliseconds.
    pub incl_ms: f64,
    /// Durations minus the time their child spans cover.
    pub self_ms: f64,
}

/// Per op, per span name.
pub type OpTimes = BTreeMap<u32, BTreeMap<&'static str, Times>>;

/// Records spans when enabled.
pub struct Tracer {
    on: bool,
    t0: Instant,
    op: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the op id later spans are tagged with.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `enter` returned.
    pub fn exit(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let end = self.now_ns();
            self.spans[id as usize].end_ns = end;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Inclusive and self times of every span name, per op.
    pub fn times(&self) -> OpTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = OpTimes::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.op).or_default().entry(s.name).or_default();
            t.incl_ms += dur as f64 / 1e6;
            t.self_ms += dur.saturating_sub(kids) as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let outer = t.enter("op");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        let times = t.times();
        let op = &times[&7];
        let (outer, inner) = (op["op"], op["inner"]);
        assert!(inner.incl_ms >= 2.0);
        assert_eq!(inner.incl_ms, inner.self_ms);
        assert!((outer.self_ms - (outer.incl_ms - inner.incl_ms)).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("op");
        assert_eq!(id, None);
        t.exit(id);
        assert_eq!(t.span("x", || 3), 3);
        assert!(t.times().is_empty());
    }
}
