//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each crate's public functions: name, start, end, parent span and
//! request id. They stay in memory during the run and are written out as
//! JSON lines when it ends. Where a layer's inner calls cannot be reached
//! from outside (the pipeline ladder, the engine), the benchmark replays
//! those calls on the same input right after the real one and records the
//! replays as children, so a layer's self time is its span minus the
//! durations of its children, replayed or nested.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Mean duration (µs) of the spans called `name`, with their count.
    pub fn mean_us(&self, name: &str) -> (f64, usize) {
        let durs: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect();
        (crate::stats::mean(&durs), durs.len())
    }

    /// Total duration (µs) of the spans called `name`; 0 when there are
    /// none.
    pub fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .fold(0.0, |a, b| a + b)
    }

    /// Self times (µs) of the spans called `name`: each span's duration
    /// minus the durations of its child spans.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let mut child_us: BTreeMap<usize, f64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_us.entry(p).or_default() += s.dur_us();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.dur_us() - child_us.get(&i).copied().unwrap_or(0.0))
            .collect()
    }

    /// Mean self time (µs) of the spans called `name`.
    pub fn mean_self_us(&self, name: &str) -> f64 {
        crate::stats::mean(&self.self_us(name))
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
