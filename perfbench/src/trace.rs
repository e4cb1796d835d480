//! Benchmark-side spans.
//!
//! The benchmark wraps its own spans around calls into each layer's
//! public functions, so the program under test is not changed. A span
//! records its name, a tag (the backend/store/expression cell it
//! belongs to), start, end, parent span and request id. Spans are kept
//! in memory and written out once the run ends; per-layer metrics are
//! derived from them afterwards.
//!
//! A disabled tracer records nothing and adds no clock reads, which is
//! what the untraced (end-to-end) runs use.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span.
pub type SpanId = u64;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span id (unique within the run).
    pub id: SpanId,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Request the span belongs to; spans of one request share it.
    pub request: u64,
    /// Layer boundary, e.g. `core.rewrite` or `sqlengine.query`.
    pub name: &'static str,
    /// Cell the span belongs to, e.g. `postgresql.e3` or `doc`.
    pub tag: String,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder shared by every client thread of a run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    /// A tracer that records when `enabled`, else does nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span. `f` receives this span's id so it can
    /// parent child spans on it (`None` when tracing is off).
    pub fn span<T>(
        &self,
        name: &'static str,
        tag: &str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let out = f(Some(id));
        let end = self.epoch.elapsed();
        self.spans.lock().expect("span list lock").push(SpanRecord {
            id,
            parent,
            request,
            name,
            tag: tag.to_string(),
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        out
    }

    /// Every recorded span, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Durations (ms) of the spans named `name`, grouped by tag.
    pub fn durations_by_tag(&self, name: &str) -> BTreeMap<String, Vec<f64>> {
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for s in self.spans.lock().expect("span list lock").iter() {
            if s.name == name {
                out.entry(s.tag.clone()).or_default().push(s.ms());
            }
        }
        out
    }

    /// Tag and duration (ms) of the spans named `name`, keyed by
    /// request id (one such span per request).
    pub fn by_request(&self, name: &str) -> BTreeMap<u64, (String, f64)> {
        self.spans
            .lock()
            .expect("span list lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.request, (s.tag.clone(), s.ms())))
            .collect()
    }

    /// Self time (ms) summed per span name: each span's duration minus
    /// the time its direct children cover.
    pub fn self_time_ms(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span list lock");
        let mut child_ns: BTreeMap<SpanId, u64> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in spans.iter() {
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *out.entry(s.name).or_default() += own as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.tag, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
