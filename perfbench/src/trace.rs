//! In-memory tracing for the traced run: spans for rare events (deploy, the
//! run itself, every traversal, every store `put`) and aggregated
//! count/total/histogram records for per-tuple calls, so the trace stays
//! bounded however many tuples flow. Everything is written out once, when
//! the run ends.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of power-of-two latency buckets: bucket `i` counts calls of
/// `[2^i, 2^(i+1))` nanoseconds, the last one everything longer.
const BUCKETS: usize = 40;

/// Aggregated record of one per-tuple call site. Aligned to a cache line so
/// call sites hit from different operator threads do not share one.
#[repr(align(64))]
pub struct CallStat {
    calls: AtomicU64,
    ns: AtomicU64,
    /// A per-call quantity summed over calls (window tuples, bytes, ...).
    units: AtomicU64,
    histogram: [AtomicU64; BUCKETS],
}

impl Default for CallStat {
    fn default() -> Self {
        CallStat {
            calls: AtomicU64::new(0),
            ns: AtomicU64::new(0),
            units: AtomicU64::new(0),
            histogram: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl CallStat {
    /// Records one call that started at `start`, carrying `units`.
    pub fn record(&self, start: Instant, units: u64) {
        let ns = start.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.units.fetch_add(units, Ordering::Relaxed);
        let bucket = (63 - ns.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.histogram[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total time spent in the calls, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Sum of the recorded units.
    pub fn units(&self) -> u64 {
        self.units.load(Ordering::Relaxed)
    }

    /// Mean time per call in nanoseconds (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        ratio(self.total_ns() as f64, self.calls() as f64)
    }

    fn to_json(&self, name: &str) -> String {
        let buckets: Vec<String> = self
            .histogram
            .iter()
            .map(|b| b.load(Ordering::Relaxed).to_string())
            .collect();
        format!(
            "{{\"name\":\"{name}\",\"calls\":{},\"total_ns\":{},\"units\":{},\"log2_ns_histogram\":[{}]}}",
            self.calls(),
            self.total_ns(),
            self.units(),
            buckets.join(",")
        )
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One recorded span.
struct Span {
    name: &'static str,
    /// Name of the span that caused this one (`None` for roots).
    parent: Option<&'static str>,
    start_ns: u64,
    dur_ns: u64,
    /// A span-specific quantity: sources found, bytes stored, ...
    detail: u64,
}

/// Spans kept in memory until the run ends.
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log whose timestamps count from now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records a span that started at `start` and ends now.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        detail: u64,
    ) {
        let span = Span {
            name,
            parent,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: start.elapsed().as_nanos() as u64,
            detail,
        };
        self.spans
            .lock()
            .expect("no thread panics while holding the span log")
            .push(span);
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span log")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .collect()
    }

    /// Renders the spans and the aggregated call records as one JSON document.
    pub fn to_json(&self, calls: &[(&str, &CallStat)]) -> String {
        let spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span log");
        let mut out = String::from("{\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"dur_ns\":{},\"detail\":{}}}",
                s.name, s.start_ns, s.dur_ns, s.detail
            );
        }
        out.push_str("],\"calls\":[");
        let records: Vec<String> = calls.iter().map(|(n, c)| c.to_json(n)).collect();
        out.push_str(&records.join(","));
        out.push_str("]}");
        out
    }
}

/// The `q`-quantile (nearest rank) of `values`, or 0 when empty.
pub fn quantile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}
