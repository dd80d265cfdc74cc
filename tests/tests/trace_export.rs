//! The Chrome trace export end to end: pair balancing of truncated
//! traces, plus the runtime behaviours that need the real ring buffers —
//! a capacity-2 ring dropping a `StageBegin` inside an open stage (the
//! Chrome-export regression), and pruning of ring buffers owned by exited
//! threads.
//!
//! Everything touching the process-global trace rings stays in the single
//! `trace_runtime_behaviour` test (same pattern as `observability.rs`).

use mhd_obs::{TraceEvent, TraceRecord};

fn rec(ts_ns: u64, tid: u32, event: TraceEvent) -> TraceRecord {
    TraceRecord { ts_ns, tid, event }
}

fn begin(ts_ns: u64, tid: u32, stage: &str) -> TraceRecord {
    rec(ts_ns, tid, TraceEvent::StageBegin { stage: stage.to_string() })
}

fn end(ts_ns: u64, tid: u32, stage: &str) -> TraceRecord {
    rec(ts_ns, tid, TraceEvent::StageEnd { stage: stage.to_string() })
}

/// Counts Chrome `trace_event` phases in a `trace_to_chrome` export.
fn chrome_phases(chrome: &str) -> (u64, u64) {
    let doc: serde_json::Value = serde_json::from_str(chrome).expect("chrome export parses");
    let serde_json::Value::Object(top) = &doc else { panic!("chrome export must be an object") };
    let (_, events) = top.iter().find(|(k, _)| k == "traceEvents").expect("traceEvents key");
    let serde_json::Value::Array(events) = events else { panic!("traceEvents must be an array") };
    let mut begins = 0u64;
    let mut ends = 0u64;
    for event in events {
        let serde_json::Value::Object(fields) = event else { panic!("event must be an object") };
        let ph = fields.iter().find(|(k, _)| k == "ph").map(|(_, v)| v).expect("ph field");
        let serde_json::Value::String(ph) = ph else { panic!("ph not a string") };
        match ph.as_str() {
            "B" => begins += 1,
            "E" => ends += 1,
            _ => {}
        }
    }
    (begins, ends)
}

#[test]
fn truncated_traces_balance_instead_of_panicking() {
    // An orphan StageEnd (its begin fell off the ring) and an unclosed
    // StageBegin (guard alive past trace_stop) in one trace.
    let records = vec![
        end(50, 0, "lost-begin"),
        begin(100, 1, "never-ends"),
        rec(150, 1, TraceEvent::HookHit),
    ];
    // The Chrome export must stay balanced despite both defects.
    let (begins, ends) = chrome_phases(&mhd_obs::trace_to_chrome(&records));
    assert_eq!(begins, ends, "chrome export must pair every B with an E");
    assert_eq!(begins, 1, "the orphan end is skipped, the unclosed begin synthesized");
}

/// Runtime phases share the process-global trace rings, so they run in
/// one test, in order.
#[test]
fn trace_runtime_behaviour() {
    // ---- Phase 1: a capacity-2 ring drops the StageBegin of an open
    // stage; the drained trace must still export balanced Chrome JSON
    // (this corrupted Perfetto renders before pair balancing). ----
    mhd_obs::trace_start(2);
    {
        let _stage = mhd_obs::stage("squeezed");
        for _ in 0..3 {
            mhd_obs::trace(TraceEvent::HookHit);
        }
        // Ring now holds two HookHits; the StageBegin has been dropped.
    }
    mhd_obs::trace_stop();
    let records = mhd_obs::trace_drain();
    assert!(
        records.iter().any(|r| matches!(r.event, TraceEvent::StageEnd { .. })),
        "the StageEnd survives the ring"
    );
    assert!(
        !records.iter().any(|r| matches!(r.event, TraceEvent::StageBegin { .. })),
        "the StageBegin must have been evicted for this regression test to bite"
    );
    let (begins, ends) = chrome_phases(&mhd_obs::trace_to_chrome(&records));
    assert_eq!(begins, ends, "orphan StageEnd must not unbalance the Chrome export");

    // ---- Phase 2: ring buffers of exited threads are pruned. ----
    mhd_obs::trace_start(mhd_obs::DEFAULT_TRACE_CAPACITY);
    mhd_obs::trace(TraceEvent::HookHit); // ensure this thread owns a ring
    let before = mhd_obs::trace_buffer_count();
    std::thread::spawn(|| {
        mhd_obs::trace(TraceEvent::ChunkEmitted { bytes: 1 });
    })
    .join()
    .unwrap();
    assert_eq!(
        mhd_obs::trace_buffer_count(),
        before + 1,
        "the dead thread's ring lingers until the next drain or trace_start"
    );
    let records = mhd_obs::trace_drain();
    assert!(
        records.iter().any(|r| matches!(r.event, TraceEvent::ChunkEmitted { bytes: 1 })),
        "the dead thread's events are drained before its ring is pruned"
    );
    assert_eq!(
        mhd_obs::trace_buffer_count(),
        before,
        "draining prunes rings whose owning thread has exited"
    );
    mhd_obs::trace_stop();
}
