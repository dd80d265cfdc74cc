//! Outside-in spans.
//!
//! The harness records a span at each boundary it can see from outside the
//! crates: around a call into a layer's public function, around a backend
//! operation (through [`crate::timed::TimedBackend`]), around a client
//! round trip or a subprocess. Spans stay in memory and are written to
//! `trace-<workload>.jsonl` when the run ends. A span's *self time* is its
//! duration minus the part of that interval its children cover.

use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span id; `0` means "no parent".
pub type SpanId = u32;

/// The backup stream a span worked for; all spans of one stream share it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Request {
    /// Machine index.
    pub machine: u16,
    /// Day index.
    pub day: u16,
}

impl Request {
    /// The request of one corpus stream.
    pub fn of(snapshot: &mhd_workload::Snapshot) -> Request {
        Request { machine: snapshot.machine as u16, day: snapshot.day as u16 }
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}-d{}", self.machine, self.day)
    }
}

/// One recorded span. `name` is `<layer>.<what>[.<kind>]`; the layer is the
/// crate the time was spent in.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the trace (from 1).
    pub id: SpanId,
    /// Enclosing span, `0` at the root.
    pub parent: SpanId,
    /// Backup stream this span served, if any.
    pub request: Option<Request>,
    /// `<layer>.<what>[.<kind>]`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Payload bytes moved by the operation (0 when not applicable).
    pub bytes: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), next_id: AtomicU32::new(1), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    /// Reserves an id for a span that is about to start, so its children
    /// can name it as their parent before it is recorded.
    pub fn open(&self) -> (SpanId, Instant) {
        // Relaxed: the id only has to be unique; it publishes no data.
        (self.next_id.fetch_add(1, Ordering::Relaxed), Instant::now())
    }

    /// Records the span opened as `(id, start)`, ending now.
    pub fn close(
        &self,
        (id, start): (SpanId, Instant),
        name: &'static str,
        parent: SpanId,
        request: Option<Request>,
        bytes: u64,
    ) {
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            bytes,
        };
        self.spans.lock().expect("a tracer user panicked").push(span);
    }

    /// Times `f` as one span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        request: Option<Request>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let open = self.open();
        let out = f(open.0);
        self.close(open, name, parent, request, 0);
        out
    }

    /// A mark for [`spans_since`](Self::spans_since): the id the next span
    /// will get.
    pub fn mark(&self) -> SpanId {
        self.next_id.load(Ordering::Relaxed)
    }

    /// The spans opened since `mark` was taken, ordered by start time
    /// (`spans_since(0)` is every span).
    pub fn spans_since(&self, mark: SpanId) -> Vec<Span> {
        let spans = self.spans.lock().expect("a tracer user panicked");
        let mut spans: Vec<Span> = spans.iter().filter(|s| s.id >= mark).cloned().collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Times `f` under `tracer` when tracing is on; just runs it otherwise.
/// `f` receives the id to hand to child spans (`0` when tracing is off).
pub fn traced<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: SpanId,
    request: Option<Request>,
    f: impl FnOnce(SpanId) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, request, f),
        None => f(0),
    }
}

/// Self time of every span, in nanoseconds, in the order of `spans`: the
/// span's duration minus the union of its children's intervals (clipped
/// to the span, so concurrent or overlapping children are not subtracted
/// twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<SpanId, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(cursor);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Aggregates over a span list, addressed by name prefix.
pub struct SpanTable<'a> {
    spans: &'a [Span],
    self_ns: Vec<u64>,
}

impl<'a> SpanTable<'a> {
    /// Indexes `spans`.
    pub fn new(spans: &'a [Span]) -> Self {
        SpanTable { spans, self_ns: self_times(spans) }
    }

    fn matching(&self, prefix: &'a str) -> impl Iterator<Item = (usize, &'a Span)> + '_ {
        self.spans.iter().enumerate().filter(move |(_, s)| {
            s.name == prefix
                || (s.name.starts_with(prefix)
                    && s.name.as_bytes().get(prefix.len()) == Some(&b'.'))
        })
    }

    /// Summed duration, in seconds, of the spans named `prefix` or
    /// `prefix.<more>`.
    pub fn seconds(&self, prefix: &'a str) -> f64 {
        self.matching(prefix).map(|(_, s)| s.duration_ns()).sum::<u64>() as f64 / 1e9
    }

    /// Summed self time, in seconds, of those spans.
    pub fn self_seconds(&self, prefix: &'a str) -> f64 {
        self.matching(prefix).map(|(i, _)| self.self_ns[i]).sum::<u64>() as f64 / 1e9
    }

    /// Number of those spans.
    pub fn count(&self, prefix: &'a str) -> u64 {
        self.matching(prefix).count() as u64
    }

    /// Summed payload bytes of those spans.
    pub fn bytes(&self, prefix: &'a str) -> u64 {
        self.matching(prefix).map(|(_, s)| s.bytes).sum()
    }

    /// Each matching span's duration in milliseconds, with its request.
    pub fn durations_ms(&self, prefix: &'a str) -> Vec<(Option<Request>, f64)> {
        self.matching(prefix).map(|(_, s)| (s.request, s.duration_ns() as f64 / 1e6)).collect()
    }
}

/// Writes one JSON object per span: `id`, `parent`, `request`, `name`,
/// `layer`, `start_ns`, `end_ns`, `self_ns`, `bytes`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let self_ns = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(self_ns) {
        let request = s.request.map_or("null".to_string(), |r| format!("\"{r}\""));
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{request},\"name\":\"{}\",\"layer\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"bytes\":{}}}",
            s.id,
            s.parent,
            s.name,
            s.layer(),
            s.start_ns,
            s.end_ns,
            s.bytes
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, request: None, name, start_ns: start, end_ns: end, bytes: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(1, 0, "core.process_snapshot", 0, 100),
            span(2, 1, "store.put.chunk", 10, 30), // sibling A
            span(3, 1, "store.get.manifest", 40, 60), // sibling B
            span(4, 3, "store.other", 45, 50),     // nested in B
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 15, 5]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two concurrent children (client threads) overlap on [20, 30);
        // one child sticks out past the parent and is clipped.
        let spans = vec![
            span(1, 0, "daemon.run", 0, 100),
            span(2, 1, "daemon.commit", 10, 30),
            span(3, 1, "daemon.commit", 20, 50),
            span(4, 1, "daemon.commit", 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 40 - 10);
    }

    #[test]
    fn table_sums_by_name_prefix_not_by_substring() {
        let spans = vec![
            span(1, 0, "store.put.chunk", 0, 10),
            span(2, 0, "store.put.hook", 10, 15),
            span(3, 0, "store.puts", 15, 100), // must not match "store.put"
        ];
        let t = SpanTable::new(&spans);
        assert_eq!(t.count("store.put"), 2);
        assert_eq!(t.seconds("store.put"), 15e-9);
        assert_eq!(t.count("store.put.hook"), 1);
        assert_eq!(t.count("store"), 3);
    }

    #[test]
    fn tracer_links_children_to_parents() {
        let tracer = Tracer::default();
        let req = Some(Request { machine: 2, day: 5 });
        tracer.span("core.process_snapshot", 0, req, |parent| {
            tracer.span("store.put.chunk", parent, req, |_| ());
        });
        let spans = tracer.spans_since(0);
        assert_eq!(spans.len(), 2);
        assert!(tracer.spans_since(tracer.mark()).is_empty());
        let (outer, inner) = (&spans[0], &spans[1]);
        assert_eq!(outer.name, "core.process_snapshot");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.request.unwrap().to_string(), "m2-d5");
        assert_eq!(inner.layer(), "store");
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
