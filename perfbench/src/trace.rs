//! In-memory span recorder for the traced run.
//!
//! A span is `(op, name, parent, start, end)`: every call the benchmark
//! makes into a layer's public functions is wrapped in one, and all spans
//! of one operation share the operation's id. Spans stay in memory and are
//! written as JSON lines when the run ends. With tracing off, [`Tracer::span`]
//! costs one branch and records nothing.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: Cell<bool>,
    epoch: Instant,
    op: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    /// Counter samples read from the program's own reports, keyed by the
    /// per-layer metric they feed.
    samples: RefCell<BTreeMap<&'static str, Vec<f64>>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: Cell::new(on),
            epoch: Instant::now(),
            op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            samples: RefCell::new(BTreeMap::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on.get()
    }

    /// Switch recording on or off for the following operations (the
    /// traced run alternates, to measure its own overhead).
    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    /// Start a new operation; later spans carry its id.
    pub fn begin_op(&self) -> u64 {
        let id = self.op.get() + 1;
        self.op.set(id);
        id
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span of this tracer.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(Span {
                op: self.op.get(),
                name,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// Record one sample of a counter the program reported.
    pub fn sample(&self, name: &'static str, v: f64) {
        if self.on.get() {
            self.samples.borrow_mut().entry(name).or_default().push(v);
        }
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self times (ns) of every span named `name`: its duration minus the
    /// time its direct children cover.
    pub fn self_durations(&self, name: &str) -> Vec<f64> {
        let child = self.child_ns();
        self.spans
            .borrow()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.dur_ns().saturating_sub(child[i]) as f64)
            .collect()
    }

    fn child_ns(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        child_ns
    }

    /// Per-operation totals (ns) of the spans named `name`, for the
    /// operations that have at least one.
    pub fn per_op_totals(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.borrow().iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += s.dur_ns() as f64;
        }
        by_op.into_values().collect()
    }

    /// Total time (ns) of the spans named `name` in operation `op`.
    pub fn op_total(&self, name: &str, op: u64) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.op == op && s.name == name)
            .map(|s| s.dur_ns() as f64)
            .sum()
    }

    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.samples.borrow().get(name).cloned().unwrap_or_default()
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Write every span as one JSON line, with its self time (duration
    /// minus the time its direct children cover).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let child_ns = self.child_ns();
        let spans = self.spans.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.op,
                s.name,
                s.start_ns,
                s.end_ns,
                s.dur_ns().saturating_sub(child_ns[i])
            )?;
        }
        out.flush()
    }
}
