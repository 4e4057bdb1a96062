//! Span recording for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer
//! of the runtime: its name, start, end, the span that encloses it, how
//! many operations it covers, and any counts read at that boundary.
//! Spans stay in memory and are written out once, when the run ends.
//! Every per-layer metric is derived from the recorded spans.
//!
//! With tracing off, [`Tracer::span`] only runs the closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Operations the span covers (per-call times divide by this).
    pub ops: u64,
    /// Counts and values read at the span's boundary.
    pub fields: Vec<(&'static str, f64)>,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggle tracing between spans only");
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index (or `usize::MAX` when off).
    pub fn enter(&mut self, name: impl Into<String>) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            ops: 1,
            fields: Vec::new(),
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, recording `ops` operations.
    pub fn exit(&mut self, idx: usize, ops: u64) {
        if !self.on {
            return;
        }
        let top = self.open.pop().expect("span stack underflow");
        assert_eq!(top, idx, "spans must nest");
        self.spans[idx].end_ns = self.now();
        self.spans[idx].ops = ops.max(1);
    }

    /// Runs `f` inside a span named `name` covering one operation.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.enter(name);
        let out = f(self);
        self.exit(idx, 1);
        out
    }

    /// Runs `f` inside a span covering `ops` operations.
    pub fn span_n<T>(
        &mut self,
        name: impl Into<String>,
        ops: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let idx = self.enter(name);
        let out = f(self);
        self.exit(idx, ops);
        out
    }

    /// Attaches a count or value to the innermost open span.
    pub fn field(&mut self, key: &'static str, value: f64) {
        if let Some(&idx) = self.open.last() {
            self.spans[idx].fields.push((key, value));
        }
    }

    /// Per-name totals: (spans, ops, total ns, self ns), where a span's
    /// self time is its duration minus the time its child spans cover.
    pub fn totals(&self) -> BTreeMap<String, (u64, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, (u64, u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.ops;
            e.2 += dur;
            e.3 += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Total ns per operation over every span called `name` (0 if none).
    pub fn ns_per_op(&self, name: &str) -> f64 {
        let (mut ns, mut ops) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.name == name) {
            ns += s.end_ns - s.start_ns;
            ops += s.ops;
        }
        if ops == 0 {
            0.0
        } else {
            ns as f64 / ops as f64
        }
    }

    /// Every duration (ns per op) of spans called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / s.ops as f64)
            .collect()
    }

    /// Every value of field `key` on spans called `name`.
    pub fn field_values(&self, name: &str, key: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.fields.iter().filter(|(k, _)| *k == key).map(|(_, v)| *v))
            .collect()
    }

    /// The spans as JSON lines, then one line per name with its totals
    /// and self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"ops\":{}",
                s.name, s.start_ns, s.end_ns, s.ops
            );
            for (k, v) in &s.fields {
                let _ = write!(out, ",\"{k}\":{}", crate::stats::json_num(*v));
            }
            out.push_str("}\n");
        }
        for (name, (n, ops, total, own)) in self.totals() {
            let _ = writeln!(
                out,
                "{{\"summary\":\"{name}\",\"spans\":{n},\"ops\":{ops},\"total_ns\":{total},\"self_ns\":{own}}}"
            );
        }
        out
    }
}
