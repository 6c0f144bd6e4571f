//! The benchmark's own tracing: spans recorded around calls into the
//! program's public functions, and snapshots of the program's
//! telemetry counters taken around the same calls.
//!
//! Spans stay in memory and are written out once, when the run ends.
//! An untraced run records nothing: a disabled [`Tracer`] hands out
//! inert guards.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use telemetry::{HistogramSnapshot, MetricSnapshot};

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    /// Id of the enclosing span, 0 at the root.
    pub parent: u64,
    pub name: &'static str,
    /// Request id the span belongs to, 0 when it is not a request.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    active: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// Open span; records itself when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    request: u64,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// This span's id (0 when tracing is off), for use as a parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            request: self.request,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(record);
        }
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            active: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns span recording and the program's telemetry on or off
    /// together, so traced and untraced stretches of one run can
    /// alternate.
    pub fn set_active(&self, on: bool) {
        self.active.store(on, Ordering::SeqCst);
        telemetry::set_enabled(on);
    }

    pub fn active(&self) -> bool {
        self.active.load(Ordering::SeqCst)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (0 for none) for `request` (0 for
    /// none).
    pub fn span(&self, name: &'static str, parent: u64, request: u64) -> SpanGuard<'_> {
        let id = if self.active() {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            request,
            start_ns: self.now_ns(),
        }
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking thread")
            .len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking thread");
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Point-in-time copy of the program's telemetry counters and
/// histograms.
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    pub fn take() -> Snapshot {
        let mut counters = BTreeMap::new();
        let mut histograms = BTreeMap::new();
        for m in telemetry::snapshot() {
            match m {
                MetricSnapshot::Counter { name, value } => {
                    counters.insert(name, value);
                }
                MetricSnapshot::Histogram(h) => {
                    histograms.insert(h.name.clone(), h);
                }
                _ => {}
            }
        }
        Snapshot {
            counters,
            histograms,
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// How much counter `name` grew from `before` to `self`.
    pub fn counter_since(&self, before: &Snapshot, name: &str) -> u64 {
        self.counter(name).saturating_sub(before.counter(name))
    }

    /// Adds the bucket counts histogram `name` gained since `before`
    /// into `acc`, creating it on first use.
    pub fn add_histogram_since(
        &self,
        before: &Snapshot,
        name: &str,
        acc: &mut Option<HistogramSnapshot>,
    ) {
        let Some(after) = self.histograms.get(name) else {
            return;
        };
        let acc = acc.get_or_insert_with(|| HistogramSnapshot {
            name: name.to_string(),
            bounds: after.bounds.clone(),
            buckets: vec![0; after.buckets.len()],
            count: 0,
            sum: 0.0,
            min: f64::NAN,
            max: f64::NAN,
        });
        let earlier = before.histograms.get(name);
        for (i, &n) in after.buckets.iter().enumerate() {
            let was = earlier.map_or(0, |h| h.buckets[i]);
            acc.buckets[i] += n.saturating_sub(was);
        }
        acc.count = acc.buckets.iter().sum();
        acc.sum += after.sum - earlier.map_or(0.0, |h| h.sum);
        acc.max = after.max;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_tracer_records_nothing() {
        let tracer = Tracer::new();
        {
            let span = tracer.span("quiet", 0, 0);
            assert_eq!(span.id(), 0);
        }
        assert_eq!(tracer.len(), 0);
    }

    #[test]
    fn spans_nest_and_carry_request_ids() {
        let tracer = Tracer::new();
        tracer.active.store(true, Ordering::SeqCst);
        {
            let outer = tracer.span("outer", 0, 0);
            let _inner = tracer.span("inner", outer.id(), 7);
        }
        let spans = tracer.spans.lock().unwrap().clone();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.request, 7);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
