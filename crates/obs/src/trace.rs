//! Structured trace events: the "when and where" companion to the
//! aggregate metrics.
//!
//! Counters say a run had 10 000 Hook hits; a trace says *when* they
//! fired relative to stage boundaries and on which thread. Events are
//! typed ([`TraceEvent`]), timestamped against a process-wide monotonic
//! epoch, and collected into bounded per-thread ring buffers — recording
//! never blocks on another thread's buffer, and an overfull buffer drops
//! its oldest events (tallied in the `trace.dropped` counter) rather than
//! growing without bound.
//!
//! Tracing is off (one relaxed load per would-be event) until
//! [`trace_start`] arms it; [`trace_drain`] collects the merged,
//! time-sorted record list. Two export formats:
//!
//! * [`trace_to_jsonl`] / [`trace_from_jsonl`] — one JSON object per
//!   line, the lossless round-trip format;
//! * [`trace_to_chrome`] — Chrome `trace_event` JSON (the
//!   `{"traceEvents": [...]}` envelope), loadable in `about:tracing` or
//!   [Perfetto](https://ui.perfetto.dev): stages become `B`/`E` duration
//!   pairs, point events become thread-scoped instants. Perfetto is the
//!   trace reader: per-thread stage spans, their overlap and the gaps
//!   between them are what its timeline shows.
//!
//! With the `obs` feature off, recording compiles to nothing; the data
//! model and exporters stay available so tooling that *reads* traces
//! builds in every configuration.

use serde::{Content, Deserialize, Serialize};

/// Direction of a match extension ([`TraceEvent::BmeExtend`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExtendDir {
    /// Backward match extension (BME) — extending a manifest match toward
    /// earlier chunks.
    Backward,
    /// Forward match extension (FME) — extending toward later chunks.
    Forward,
}

/// One typed trace event. Variants mirror the MHD-specific mechanisms
/// (Hooks, BME/FME, HHR) plus the generic pipeline machinery; see
/// DESIGN.md for the event glossary.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The chunker emitted one content-defined chunk of `bytes` bytes.
    ChunkEmitted {
        /// Chunk length in bytes.
        bytes: u64,
    },
    /// A sampled hash matched a Hook (Bloom filter or sparse index hit).
    HookHit,
    /// A manifest match was extended by `chunks` chunks in direction
    /// `dir` (BME backward, FME forward).
    BmeExtend {
        /// Extension direction.
        dir: ExtendDir,
        /// Number of chunks the match grew by.
        chunks: u64,
    },
    /// Hysteresis re-chunking split one chunk into `parts` parts.
    HhrSplit {
        /// Number of pieces the chunk was split into.
        parts: u64,
    },
    /// The manifest cache evicted an entry (`dirty` = it needed
    /// write-back).
    CacheEvict {
        /// Whether the evicted entry was dirty.
        dirty: bool,
    },
    /// A named processing stage began (paired with [`TraceEvent::StageEnd`]
    /// by stage name; emitted by [`stage`] guards).
    StageBegin {
        /// Stage name, e.g. `"engine=mhd"` or `"backup"`.
        stage: String,
    },
    /// A named processing stage ended.
    StageEnd {
        /// Stage name matching the earlier `StageBegin`.
        stage: String,
    },
}

impl TraceEvent {
    /// The variant name — the `"type"` field in serialized form and the
    /// instant name in Chrome exports.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::ChunkEmitted { .. } => "ChunkEmitted",
            TraceEvent::HookHit => "HookHit",
            TraceEvent::BmeExtend { .. } => "BmeExtend",
            TraceEvent::HhrSplit { .. } => "HhrSplit",
            TraceEvent::CacheEvict { .. } => "CacheEvict",
            TraceEvent::StageBegin { .. } => "StageBegin",
            TraceEvent::StageEnd { .. } => "StageEnd",
        }
    }
}

// Serialized as a flat map tagged by a "type" field:
// {"type":"BmeExtend","dir":"Backward","chunks":3}. Hand-written because
// the serde facade's derive covers only unit enums.
impl Serialize for TraceEvent {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map: Vec<(String, Content)> = Vec::with_capacity(3);
        map.push(("type".to_string(), Content::Str(self.kind().to_string())));
        match self {
            TraceEvent::ChunkEmitted { bytes } => {
                map.push(("bytes".to_string(), Content::U64(*bytes)));
            }
            TraceEvent::HookHit => {}
            TraceEvent::BmeExtend { dir, chunks } => {
                let dir = match dir {
                    ExtendDir::Backward => "Backward",
                    ExtendDir::Forward => "Forward",
                };
                map.push(("dir".to_string(), Content::Str(dir.to_string())));
                map.push(("chunks".to_string(), Content::U64(*chunks)));
            }
            TraceEvent::HhrSplit { parts } => {
                map.push(("parts".to_string(), Content::U64(*parts)));
            }
            TraceEvent::CacheEvict { dirty } => {
                map.push(("dirty".to_string(), Content::Bool(*dirty)));
            }
            TraceEvent::StageBegin { stage } | TraceEvent::StageEnd { stage } => {
                map.push(("stage".to_string(), Content::Str(stage.clone())));
            }
        }
        serializer.serialize_content(Content::Map(map))
    }
}

impl<'de> Deserialize<'de> for TraceEvent {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut map = match deserializer.deserialize_content()? {
            Content::Map(m) => m,
            _ => return Err(serde::de::Error::custom("expected map for TraceEvent")),
        };
        let mut take =
            |key: &str| map.iter().position(|(k, _)| k == key).map(|i| map.swap_remove(i).1);
        let field = |content: Option<Content>, name: &str| {
            content.ok_or_else(|| {
                serde::de::Error::custom(format!("missing field `{name}` in TraceEvent"))
            })
        };
        let kind = match field(take("type"), "type")? {
            Content::Str(s) => s,
            _ => return Err(serde::de::Error::custom("TraceEvent `type` must be a string")),
        };
        fn de<'a, T: Deserialize<'a>, E: serde::de::Error>(content: Content) -> Result<T, E> {
            Deserialize::deserialize(content).map_err(serde::de::lift_err)
        }
        match kind.as_str() {
            "ChunkEmitted" => {
                Ok(TraceEvent::ChunkEmitted { bytes: de(field(take("bytes"), "bytes")?)? })
            }
            "HookHit" => Ok(TraceEvent::HookHit),
            "BmeExtend" => Ok(TraceEvent::BmeExtend {
                dir: de(field(take("dir"), "dir")?)?,
                chunks: de(field(take("chunks"), "chunks")?)?,
            }),
            "HhrSplit" => Ok(TraceEvent::HhrSplit { parts: de(field(take("parts"), "parts")?)? }),
            "CacheEvict" => {
                Ok(TraceEvent::CacheEvict { dirty: de(field(take("dirty"), "dirty")?)? })
            }
            "StageBegin" => {
                Ok(TraceEvent::StageBegin { stage: de(field(take("stage"), "stage")?)? })
            }
            "StageEnd" => Ok(TraceEvent::StageEnd { stage: de(field(take("stage"), "stage")?)? }),
            other => Err(serde::de::Error::custom(format!("unknown TraceEvent type {other:?}"))),
        }
    }
}

/// One recorded event: what happened, when (nanoseconds since the trace
/// epoch established by [`trace_start`]) and on which recording thread
/// (small dense ids, first-trace order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Monotonic nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Dense id of the recording thread.
    pub tid: u32,
    /// The event.
    pub event: TraceEvent,
}

#[cfg(feature = "obs")]
mod rt {
    use std::cell::OnceCell;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::Instant;

    use super::{TraceEvent, TraceRecord};
    use crate::enabled::lock_ignore_poison;

    /// Default per-thread ring capacity for [`trace_start`] callers that
    /// don't need tuning (≈ a few MB per busy thread, worst case).
    pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

    static TRACING: AtomicBool = AtomicBool::new(false);
    static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_TRACE_CAPACITY);
    static NEXT_TID: AtomicU32 = AtomicU32::new(0);

    fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }

    /// One thread's bounded ring. The mutex is uncontended in steady
    /// state (only the owning thread pushes; drains are rare), so
    /// recording is effectively lock-free.
    struct ThreadBuf {
        tid: u32,
        events: Mutex<VecDeque<TraceRecord>>,
    }

    fn bufs() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
        static BUFS: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
        BUFS.get_or_init(|| Mutex::new(Vec::new()))
    }

    thread_local! {
        static LOCAL: OnceCell<Arc<ThreadBuf>> = const { OnceCell::new() };
    }

    /// Drops registry entries whose owning thread has exited: the
    /// thread-local holds the second `Arc` reference, so a strong count
    /// of 1 means the thread's TLS was torn down and nothing can record
    /// into the ring again. Without this, churning worker threads (shard
    /// fleets, per-connection daemon threads) leak one ring buffer each for the
    /// process lifetime. Callers hold the registry lock's critical
    /// section briefly; a live thread always counts ≥ 2 and is kept.
    ///
    /// A dead ring is only pruned once it is also *empty*. Recording
    /// takes the ring mutex but not the registry lock, so a thread can
    /// push a final event after [`trace_drain`] drained its ring and
    /// exit before the same drain's prune step — pruning on liveness
    /// alone would silently drop that event
    /// (`dead_nonempty_rings_survive_pruning_until_drained` drives that
    /// window). A dead-but-nonempty ring survives until the next drain
    /// empties it.
    fn prune_dead_threads(registry: &mut Vec<Arc<ThreadBuf>>) {
        registry.retain(|buf| {
            Arc::strong_count(buf) > 1 || !lock_ignore_poison(&buf.events).is_empty()
        });
    }

    /// Arms tracing with the given per-thread ring capacity (clamped to
    /// ≥ 1; pass [`DEFAULT_TRACE_CAPACITY`] when in doubt), clearing any
    /// events left from an earlier tracing window and reclaiming ring
    /// buffers of threads that have since exited.
    pub fn trace_start(capacity: usize) {
        let _ = epoch(); // pin the epoch before the first event
        CAPACITY.store(capacity.max(1), Ordering::Relaxed);
        let mut registry = lock_ignore_poison(bufs());
        // Clear before pruning: a fresh window discards leftover events,
        // which makes every dead ring empty and therefore prunable.
        for buf in registry.iter() {
            lock_ignore_poison(&buf.events).clear();
        }
        prune_dead_threads(&mut registry);
        drop(registry);
        TRACING.store(true, Ordering::Release);
    }

    /// Disarms tracing; already-recorded events stay drainable.
    pub fn trace_stop() {
        TRACING.store(false, Ordering::Release);
    }

    /// Whether tracing is armed — guard for callers that must do work
    /// (formatting, counting) before [`trace`].
    #[inline]
    pub fn tracing() -> bool {
        TRACING.load(Ordering::Relaxed)
    }

    /// Records one event on the current thread's ring (a no-op unless
    /// [`trace_start`] armed tracing). When the ring is full the oldest
    /// event is dropped and `trace.dropped` incremented.
    pub fn trace(event: TraceEvent) {
        if !tracing() {
            return;
        }
        let ts_ns = epoch().elapsed().as_nanos() as u64;
        // try_with: never panic during TLS teardown at thread exit.
        let _ = LOCAL.try_with(|cell| {
            let buf = cell.get_or_init(|| {
                let buf = Arc::new(ThreadBuf {
                    tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                    events: Mutex::new(VecDeque::new()),
                });
                lock_ignore_poison(bufs()).push(Arc::clone(&buf));
                buf
            });
            let mut ring = lock_ignore_poison(&buf.events);
            if ring.len() >= CAPACITY.load(Ordering::Relaxed) {
                ring.pop_front();
                crate::counter!("trace.dropped").inc();
            }
            ring.push_back(TraceRecord { ts_ns, tid: buf.tid, event });
        });
    }

    /// Drains every thread's ring into one list sorted by timestamp
    /// (ties broken by thread id). Draining does not disarm tracing.
    /// Rings of threads that have exited are drained one last time and
    /// then pruned from the registry.
    pub fn trace_drain() -> Vec<TraceRecord> {
        let mut out = Vec::new();
        let mut registry = lock_ignore_poison(bufs());
        for buf in registry.iter() {
            out.extend(lock_ignore_poison(&buf.events).drain(..));
        }
        prune_dead_threads(&mut registry);
        drop(registry);
        out.sort_by_key(|r| (r.ts_ns, r.tid));
        out
    }

    /// Number of per-thread ring buffers currently registered (live
    /// threads that have traced, plus exited threads not yet pruned by
    /// [`trace_start`]/[`trace_drain`]). Observability for the pruning
    /// itself; mostly useful in tests.
    pub fn trace_buffer_count() -> usize {
        lock_ignore_poison(bufs()).len()
    }

    /// RAII guard emitting a [`TraceEvent::StageBegin`] /
    /// [`TraceEvent::StageEnd`] pair around a scope (built by [`stage`]).
    #[must_use = "a TraceStage emits StageEnd on drop; binding it to `_` drops immediately"]
    #[derive(Debug)]
    pub struct TraceStage {
        stage: Option<String>,
    }

    /// Opens a named stage: emits `StageBegin` now and `StageEnd` when
    /// the returned guard drops. When tracing is disarmed the name is
    /// never materialized and nothing is recorded.
    pub fn stage(name: impl Into<String>) -> TraceStage {
        if !tracing() {
            return TraceStage { stage: None };
        }
        let name = name.into();
        trace(TraceEvent::StageBegin { stage: name.clone() });
        TraceStage { stage: Some(name) }
    }

    impl Drop for TraceStage {
        fn drop(&mut self) {
            if let Some(stage) = self.stage.take() {
                trace(TraceEvent::StageEnd { stage });
            }
        }
    }

    #[cfg(test)]
    mod prune_tests {
        use std::collections::VecDeque;

        use super::*;

        #[test]
        fn dead_nonempty_rings_survive_pruning_until_drained() {
            // A ring whose owner exited (strong count 1) but that still
            // holds an event models the record-after-drain /
            // exit-before-prune race: recording takes only the ring
            // mutex, so the final event of a dying thread can land after
            // trace_drain's drain step. Pruning must keep the ring until
            // a drain empties it, or the event is silently lost.
            let buf = Arc::new(ThreadBuf { tid: u32::MAX, events: Mutex::new(VecDeque::new()) });
            lock_ignore_poison(&buf.events).push_back(TraceRecord {
                ts_ns: 0,
                tid: u32::MAX,
                event: TraceEvent::HookHit,
            });
            let mut registry = vec![buf];
            prune_dead_threads(&mut registry);
            assert_eq!(registry.len(), 1, "dead-but-nonempty ring must not be pruned");
            lock_ignore_poison(&registry[0].events).clear();
            prune_dead_threads(&mut registry);
            assert!(registry.is_empty(), "dead-and-empty ring is reclaimed");
        }
    }
}

#[cfg(not(feature = "obs"))]
mod rt {
    use super::{TraceEvent, TraceRecord};

    /// Default per-thread ring capacity (unused with the `obs` feature
    /// off).
    pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

    /// Does nothing with the `obs` feature off.
    #[inline]
    pub fn trace_start(_capacity: usize) {}

    /// Does nothing with the `obs` feature off.
    #[inline]
    pub fn trace_stop() {}

    /// Always `false` with the `obs` feature off.
    #[inline]
    pub fn tracing() -> bool {
        false
    }

    /// Does nothing with the `obs` feature off.
    #[inline]
    pub fn trace(_event: TraceEvent) {}

    /// Always empty with the `obs` feature off.
    #[inline]
    pub fn trace_drain() -> Vec<TraceRecord> {
        Vec::new()
    }

    /// Always 0 with the `obs` feature off.
    #[inline]
    pub fn trace_buffer_count() -> usize {
        0
    }

    /// No-op stand-in for the enabled `TraceStage`: zero-sized.
    #[must_use = "a TraceStage emits StageEnd on drop; binding it to `_` drops immediately"]
    #[derive(Debug)]
    pub struct TraceStage;

    /// Returns the zero-sized guard; `name` is never evaluated into a
    /// `String`.
    #[inline]
    pub fn stage(name: impl Into<String>) -> TraceStage {
        let _ = name;
        TraceStage
    }
}

pub use rt::*;

/// Serializes records as JSON Lines — one compact object per line, the
/// lossless round-trip format ([`trace_from_jsonl`] is the inverse).
pub fn trace_to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for record in records {
        out.push_str(
            &serde_json::to_string(record).expect("trace record serialization cannot fail"),
        );
        out.push('\n');
    }
    out
}

/// Parses JSON Lines produced by [`trace_to_jsonl`] (blank lines are
/// skipped). The error names the first line that does not parse
/// (`"line 2: …"`, counting from 1).
pub fn trace_from_jsonl(input: &str) -> Result<Vec<TraceRecord>, String> {
    input
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// One closed stage interval on one thread: what [`trace_to_chrome`]
/// exports as a `B`/`E` pair.
#[derive(Debug, PartialEq)]
struct StageInterval {
    stage: String,
    tid: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Pairs `StageBegin`/`StageEnd` events into closed intervals, sorted by
/// `(start_ns, tid)`, tolerating a truncated trace.
///
/// The recording rings are bounded, so a busy run drops its oldest
/// events, and a stage guard alive when `trace_stop()` disarmed tracing
/// never records its end. Per thread, begins push onto a stack and an end
/// closes the nearest open frame with the same name; frames stacked above
/// it lost their own ends and are closed at the same timestamp (RAII
/// guards cannot mis-nest, so only partial traces do this). An end with
/// no open frame of its name lost its begin to a ring drop and yields no
/// interval: its extent could cross surviving stages on the same thread,
/// which would corrupt Perfetto's per-thread `B`/`E` nesting. Frames
/// still open after the last record are closed at the window's last
/// timestamp, over every record, point events included.
fn balance_stages(records: &[TraceRecord]) -> Vec<StageInterval> {
    let Some(window_end) = records.iter().map(|r| r.ts_ns).max() else { return Vec::new() };
    let mut order: Vec<&TraceRecord> = records.iter().collect();
    order.sort_by_key(|r| (r.ts_ns, r.tid));

    // Per-tid stacks of open frames: (stage name, begin timestamp).
    let mut open: Vec<(u32, Vec<(String, u64)>)> = Vec::new();
    let mut out = Vec::new();
    for record in order {
        let (TraceEvent::StageBegin { stage } | TraceEvent::StageEnd { stage }) = &record.event
        else {
            continue;
        };
        let i = match open.iter().position(|(t, _)| *t == record.tid) {
            Some(i) => i,
            None => {
                open.push((record.tid, Vec::new()));
                open.len() - 1
            }
        };
        let stack = &mut open[i].1;
        if matches!(record.event, TraceEvent::StageBegin { .. }) {
            stack.push((stage.clone(), record.ts_ns));
        } else if let Some(pos) = stack.iter().rposition(|(name, _)| name == stage) {
            // Close the match and every frame above it, inner-first.
            for (stage, start_ns) in stack.drain(pos..).rev() {
                out.push(StageInterval { stage, tid: record.tid, start_ns, end_ns: record.ts_ns });
            }
        }
    }
    for (tid, stack) in open {
        // Close leftovers inner-first so same-timestamp ends nest.
        for (stage, start_ns) in stack.into_iter().rev() {
            out.push(StageInterval { stage, tid, start_ns, end_ns: window_end });
        }
    }
    out.sort_by_key(|a| (a.start_ns, a.tid));
    out
}

/// Serializes records as Chrome `trace_event` JSON — the
/// `{"traceEvents": [...]}` envelope `about:tracing` and Perfetto load.
/// Stage pairs become `B`/`E` duration events named by the stage string;
/// point events become thread-scoped instants (`ph: "i"`, `s: "t"`)
/// named by [`TraceEvent::kind`] with their fields under `args`.
/// Timestamps are microseconds (fractional — the format allows it).
///
/// Stage events are balanced before export: a `StageBegin` whose end was
/// lost (guard dropped after `trace_stop`) gets a synthesized `E` at the
/// window's last timestamp, and an orphan `StageEnd` whose begin fell off
/// the recording ring is skipped. Every emitted `B` therefore has exactly
/// one matching `E` in stack order.
pub fn trace_to_chrome(records: &[TraceRecord]) -> String {
    use serde_json::{Number, Value};
    // Sort rank at equal timestamps: ends close before new begins open,
    // instants land inside the enclosing stage. Secondary keys keep
    // same-thread nesting valid: at a shared timestamp the innermost
    // interval (latest start) ends first and the outermost (latest end)
    // begins first.
    let mut events: Vec<(u64, u8, u64, Value)> = Vec::with_capacity(records.len());
    for interval in &balance_stages(records) {
        events.push((
            interval.start_ns,
            1,
            u64::MAX - interval.end_ns,
            chrome_stage(&interval.stage, "B", interval.start_ns, interval.tid),
        ));
        // A zero-length interval shares its rank with its own B so the
        // stable sort keeps the pair in push order (B first).
        let end_rank = if interval.end_ns == interval.start_ns { 1 } else { 0 };
        events.push((
            interval.end_ns,
            end_rank,
            u64::MAX - interval.start_ns,
            chrome_stage(&interval.stage, "E", interval.end_ns, interval.tid),
        ));
    }
    for record in records {
        let args: Vec<(String, Value)> = match &record.event {
            TraceEvent::StageBegin { .. } | TraceEvent::StageEnd { .. } => continue,
            TraceEvent::ChunkEmitted { bytes } => {
                vec![("bytes".to_string(), Value::Number(Number::U64(*bytes)))]
            }
            TraceEvent::BmeExtend { dir, chunks } => vec![
                (
                    "dir".to_string(),
                    Value::String(
                        match dir {
                            ExtendDir::Backward => "Backward",
                            ExtendDir::Forward => "Forward",
                        }
                        .to_string(),
                    ),
                ),
                ("chunks".to_string(), Value::Number(Number::U64(*chunks))),
            ],
            TraceEvent::HhrSplit { parts } => {
                vec![("parts".to_string(), Value::Number(Number::U64(*parts)))]
            }
            TraceEvent::CacheEvict { dirty } => {
                vec![("dirty".to_string(), Value::Bool(*dirty))]
            }
            TraceEvent::HookHit => Vec::new(),
        };
        let mut fields = chrome_common(record.event.kind(), "i", record.ts_ns, record.tid);
        fields.push(("s".to_string(), Value::String("t".to_string())));
        fields.push(("args".to_string(), Value::Object(args)));
        events.push((record.ts_ns, 2, 0, Value::Object(fields)));
    }
    events.sort_by_key(|a| (a.0, a.1, a.2));
    let events: Vec<Value> = events.into_iter().map(|(_, _, _, v)| v).collect();
    serde_json::to_string(&serde_json::json!({ "traceEvents": events }))
        .expect("chrome trace serialization cannot fail")
}

fn chrome_common(name: &str, ph: &str, ts_ns: u64, tid: u32) -> Vec<(String, serde_json::Value)> {
    use serde_json::{Number, Value};
    vec![
        ("name".to_string(), Value::String(name.to_string())),
        ("ph".to_string(), Value::String(ph.to_string())),
        ("ts".to_string(), Value::Number(Number::F64(ts_ns as f64 / 1000.0))),
        ("pid".to_string(), Value::Number(Number::U64(1))),
        ("tid".to_string(), Value::Number(Number::U64(tid as u64))),
    ]
}

fn chrome_stage(stage: &str, ph: &str, ts_ns: u64, tid: u32) -> serde_json::Value {
    serde_json::Value::Object(chrome_common(stage, ph, ts_ns, tid))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                ts_ns: 10,
                tid: 0,
                event: TraceEvent::StageBegin { stage: "engine=mhd".to_string() },
            },
            TraceRecord { ts_ns: 20, tid: 0, event: TraceEvent::ChunkEmitted { bytes: 4096 } },
            TraceRecord { ts_ns: 30, tid: 1, event: TraceEvent::HookHit },
            TraceRecord {
                ts_ns: 40,
                tid: 1,
                event: TraceEvent::BmeExtend { dir: ExtendDir::Backward, chunks: 3 },
            },
            TraceRecord { ts_ns: 50, tid: 0, event: TraceEvent::HhrSplit { parts: 2 } },
            TraceRecord { ts_ns: 60, tid: 1, event: TraceEvent::CacheEvict { dirty: true } },
            TraceRecord {
                ts_ns: 70,
                tid: 0,
                event: TraceEvent::StageEnd { stage: "engine=mhd".to_string() },
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        let records = sample_records();
        let jsonl = trace_to_jsonl(&records);
        assert_eq!(jsonl.lines().count(), records.len());
        let back = trace_from_jsonl(&jsonl).unwrap();
        assert_eq!(back, records);
        // Blank lines are tolerated.
        let padded = format!("\n{jsonl}\n\n");
        assert_eq!(trace_from_jsonl(&padded).unwrap(), records);
    }

    #[test]
    fn jsonl_rejects_garbage() {
        assert!(trace_from_jsonl("{\"not\":\"a record\"}").is_err());
        assert!(trace_from_jsonl("nonsense").is_err());
        let unknown = r#"{"ts_ns":1,"tid":0,"event":{"type":"Mystery"}}"#;
        assert!(trace_from_jsonl(unknown).is_err());
        // The error names the bad line, blank lines counted.
        let jsonl = trace_to_jsonl(&sample_records());
        let bad = format!("\n{}\ngarbage\n", jsonl.lines().next().unwrap_or_default());
        assert!(trace_from_jsonl(&bad).unwrap_err().starts_with("line 3: "));
    }

    #[test]
    fn chrome_export_is_well_formed() {
        let records = sample_records();
        let chrome = trace_to_chrome(&records);
        let doc: serde_json::Value = serde_json::from_str(&chrome).unwrap();
        let serde_json::Value::Object(fields) = &doc else { panic!("not an object") };
        let events = fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents key");
        let serde_json::Value::Array(events) = events else { panic!("not an array") };
        assert_eq!(events.len(), records.len());
        let mut begins = 0;
        let mut ends = 0;
        for event in events {
            let serde_json::Value::Object(e) = event else { panic!("event not an object") };
            let get = |k: &str| e.iter().find(|(key, _)| key == k).map(|(_, v)| v);
            for required in ["name", "ph", "ts", "pid", "tid"] {
                assert!(get(required).is_some(), "missing {required}");
            }
            match get("ph").unwrap() {
                serde_json::Value::String(ph) => match ph.as_str() {
                    "B" => begins += 1,
                    "E" => ends += 1,
                    "i" => assert!(get("args").is_some(), "instants carry args"),
                    other => panic!("unexpected phase {other}"),
                },
                _ => panic!("ph not a string"),
            }
        }
        // Every stage opens and closes.
        assert_eq!(begins, 1);
        assert_eq!(begins, ends);
    }

    fn rec(ts_ns: u64, tid: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord { ts_ns, tid, event }
    }

    fn begin(ts: u64, tid: u32, name: &str) -> TraceRecord {
        rec(ts, tid, TraceEvent::StageBegin { stage: name.to_string() })
    }

    fn end(ts: u64, tid: u32, name: &str) -> TraceRecord {
        rec(ts, tid, TraceEvent::StageEnd { stage: name.to_string() })
    }

    fn interval(stage: &str, tid: u32, start_ns: u64, end_ns: u64) -> StageInterval {
        StageInterval { stage: stage.to_string(), tid, start_ns, end_ns }
    }

    #[test]
    fn balances_nested_and_sequential_stages() {
        let records = vec![
            begin(0, 0, "outer"),
            begin(10, 0, "inner"),
            end(40, 0, "inner"),
            end(100, 0, "outer"),
            begin(120, 0, "next"),
            end(150, 0, "next"),
        ];
        assert_eq!(
            balance_stages(&records),
            vec![
                interval("outer", 0, 0, 100),
                interval("inner", 0, 10, 40),
                interval("next", 0, 120, 150)
            ]
        );
    }

    #[test]
    fn orphan_end_is_dropped() {
        // The begin fell off the ring; the first surviving record is an
        // instant at t=5. The orphan end yields no interval, so the
        // Chrome export carries no `E` without its `B`.
        let records = vec![rec(5, 0, TraceEvent::HookHit), end(50, 0, "lost-begin")];
        assert!(balance_stages(&records).is_empty());
        assert!(!trace_to_chrome(&records).contains("lost-begin"));
    }

    #[test]
    fn unclosed_begin_clamps_to_window_end() {
        let records =
            vec![begin(10, 0, "never-ends"), rec(80, 0, TraceEvent::ChunkEmitted { bytes: 1 })];
        assert_eq!(balance_stages(&records), vec![interval("never-ends", 0, 10, 80)]);
        // A frame above the closed one lost its end too: both close at
        // the outer end's timestamp.
        let records = vec![begin(0, 1, "outer"), begin(5, 1, "lost-end"), end(30, 1, "outer")];
        assert_eq!(
            balance_stages(&records),
            vec![interval("outer", 1, 0, 30), interval("lost-end", 1, 5, 30)]
        );
    }

    #[cfg(feature = "obs")]
    #[test]
    fn runtime_records_drains_and_bounds() {
        // One test fn for all runtime behaviour: the ring state is
        // process-global and tests run concurrently.
        assert!(!tracing());
        trace(TraceEvent::HookHit); // disarmed: ignored
        trace_start(4);
        assert!(tracing());
        {
            let _stage = stage("unit-test");
            for i in 0..3 {
                trace(TraceEvent::ChunkEmitted { bytes: i });
            }
        }
        // 5 events on a capacity-4 ring: the oldest fell off.
        let records = trace_drain();
        assert_eq!(records.len(), 4);
        assert!(records.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns), "sorted by time");
        assert!(matches!(records.last().unwrap().event, TraceEvent::StageEnd { .. }));
        assert!(crate::counter("trace.dropped").value() >= 1);
        // Drained: nothing left.
        assert!(trace_drain().is_empty());
        // Disarmed stage guards record nothing.
        trace_stop();
        {
            let _stage = stage("disarmed");
        }
        assert!(trace_drain().is_empty());
    }
}
