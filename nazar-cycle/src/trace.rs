//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public API — the program itself is not instrumented. Each span has a
//! name, start and end (ns since the recorder was created), an optional
//! parent, and a trace id shared by every span of one window (`w0`, `w1`,
//! …) or of the set-up (`setup`). The spans stay in memory and are written
//! out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub trace: String,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    trace: String,
}

/// A span opened with [`Recorder::open`]; close it with [`Recorder::close`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open {
    id: usize,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            trace: String::from("setup"),
        }
    }

    /// Sets the trace id given to spans opened from now on.
    pub fn set_trace(&mut self, trace: impl Into<String>) {
        self.trace = trace.into();
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    pub fn ns_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&mut self, name: &'static str, parent: Option<Open>) -> Open {
        let start = self.now_ns();
        self.push(name, parent, start, start)
    }

    pub fn close(&mut self, open: Open) {
        let end = self.now_ns();
        self.spans[open.id].end_ns = end;
    }

    /// Records a span that has already ended (e.g. measured on a worker
    /// thread).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<Open>,
        start_ns: u64,
        end_ns: u64,
    ) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: parent.map(|p| p.id),
            trace: self.trace.clone(),
            name,
            start_ns,
            end_ns,
        });
        Open { id }
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<Open>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent);
        let out = f();
        self.close(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span with this name.
    pub fn total(&self, name: &str) -> Duration {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        Duration::from_nanos(ns)
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"trace\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.id, parent, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}
