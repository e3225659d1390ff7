//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public API in a
//! span: name, start, end, parent span and job id. Spans stay in memory
//! until the run ends; per-layer self time (a span's duration minus the
//! part its child spans cover) and counts are derived from them then.
//! A disabled tracer runs the wrapped closure and records nothing.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

/// Per-name totals over all recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub calls: u64,
    pub wall_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
            counts: BTreeMap::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tags every span opened from now on with `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Runs `f` inside a span named `name` (a child of the innermost
    /// open span).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Closes every span left open by a job that panicked inside it.
    pub fn close_open(&mut self) {
        let now = self.now();
        for id in self.open.drain(..) {
            self.spans[id].end_ns = now;
        }
    }

    /// Duration of the most recently closed span named `name`.
    pub fn last_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0, |s| s.end_ns - s.start_ns)
    }

    /// Adds `v` to the counter `name` (only while tracing).
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += v;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Calls, wall and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.wall_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"job\": {}}}",
                s.name, s.start_ns, s.end_ns, s.job
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let totals = tr.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(outer.wall_ns, outer.self_ns + inner.wall_ns);
        assert!(inner.self_ns >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 7), 7);
        tr.count("c", 1.0);
        assert!(tr.totals().is_empty());
        assert_eq!(tr.counter("c"), 0.0);
    }
}
