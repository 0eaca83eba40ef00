//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files only: around calls
//! into each layer's public boundary (see `wrap`) and around the
//! workload's top-level calls. Everything is single-threaded, so a span
//! stack gives each span its parent, and no span ever waits on another.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded interval, in nanoseconds since the tracer was built.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for a top-level span.
    pub parent: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans while `recording` is on; set-up work runs with it off.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    recording: bool,
}

/// The tracer shared by every wrapper of one run.
pub type TraceHandle = Rc<RefCell<Tracer>>;

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            recording: false,
        }
    }
}

impl Tracer {
    pub fn handle() -> TraceHandle {
        Rc::new(RefCell::new(Tracer::default()))
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index, or `None` when not recording.
    pub fn enter(&mut self, name: &'static str) -> Option<u32> {
        if !self.recording {
            return None;
        }
        let index = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.stack.push(index);
        Some(index)
    }

    pub fn exit(&mut self, index: Option<u32>) {
        if let Some(index) = index {
            let end_ns = self.now_ns();
            self.spans[index as usize].end_ns = end_ns;
            self.stack.pop();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span. The file starts with one line of
    /// space-separated span names; then each span is 24 little-endian
    /// bytes: name index (u32), parent span index (u32, `u32::MAX` for
    /// none), start and end in ns since the tracer was built (u64 each).
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut names: Vec<&'static str> = Vec::new();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut records = Vec::with_capacity(self.spans.len() * 24);
        for span in &self.spans {
            let index = match names.iter().position(|&n| n == span.name) {
                Some(index) => index,
                None => {
                    names.push(span.name);
                    names.len() - 1
                }
            };
            records.extend_from_slice(&(index as u32).to_le_bytes());
            records.extend_from_slice(&span.parent.to_le_bytes());
            records.extend_from_slice(&span.start_ns.to_le_bytes());
            records.extend_from_slice(&span.end_ns.to_le_bytes());
        }
        writeln!(out, "{}", names.join(" "))?;
        out.write_all(&records)?;
        out.flush()
    }

    /// Per-name totals: calls, every duration, and self time (duration
    /// minus the part covered by child spans).
    pub fn summarize(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let stats = out.entry(span.name).or_default();
            let duration = span.duration_ns();
            stats.durations_ns.push(duration);
            stats.total_ns += duration;
            stats.self_ns += duration.saturating_sub(children);
            if span.parent == NO_PARENT {
                stats.top_level_ns += duration;
            }
        }
        out
    }
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    pub durations_ns: Vec<u64>,
    pub total_ns: u64,
    pub self_ns: u64,
    pub top_level_ns: u64,
}

impl SpanStats {
    pub fn calls(&self) -> u64 {
        self.durations_ns.len() as u64
    }

    /// The sample at quantile `q` (nearest rank), in nanoseconds.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let mut sorted = self.durations_ns.clone();
        sorted.sort_unstable();
        nearest_rank(&sorted, q)
    }
}

/// Nearest-rank quantile of an ascending slice; 0 for an empty one.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail quantile a sample count supports: 0.99 from 1,000 samples
/// up, otherwise the highest quantile with at least ten samples beyond
/// it (0 when there are ten or fewer).
pub fn supported_tail(samples: u64) -> f64 {
    if samples >= 1000 {
        0.99
    } else if samples > 10 {
        1.0 - 10.0 / samples as f64
    } else {
        0.0
    }
}

/// Runs `f` inside a span when a tracer is given, bare otherwise.
pub fn timed<R>(tracer: Option<&TraceHandle>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        None => f(),
        Some(tracer) => {
            let index = tracer.borrow_mut().enter(name);
            let result = f();
            tracer.borrow_mut().exit(index);
            result
        }
    }
}

/// Nanoseconds one enter/exit pair costs on this host, measured on a
/// scratch tracer; multiplied by the span count it estimates how much
/// of a traced run the tracing itself took.
pub fn span_cost_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let scratch = Tracer::handle();
    scratch.borrow_mut().set_recording(true);
    let started = Instant::now();
    for pair in 0..PAIRS {
        std::hint::black_box(timed(Some(&scratch), "calibrate", || pair));
    }
    started.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}
