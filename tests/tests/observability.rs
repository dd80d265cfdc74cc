//! The `mhd-obs` layer observed end to end: a BF-MHD run must light up
//! the counters and stage timers wired through every crate; two
//! concurrent scoped runs must partition cleanly (per-scope sums equal
//! the global delta); a multi-engine exhibit must yield per-engine
//! sub-snapshots; and the recorded trace must round-trip through JSONL
//! and export well-formed Chrome `trace_event` JSON.
//!
//! The obs registry, scope table and trace rings are process-global, so
//! this file keeps all assertions in one `#[test]` running the phases in
//! a fixed order (the other integration-test binaries each get their own
//! process and registry).

use mhd_bench::{run_engine, scaled_config, EngineKind};
use mhd_core::{Deduplicator, EngineConfig, MhdEngine};
use mhd_store::MemBackend;
use mhd_workload::{Corpus, CorpusSpec};

/// Counters recorded on the engine-driving threads and on the front-end
/// workers that inherit their scopes — the set whose per-scope values
/// must sum to the global delta when every run is scoped.
const PARTITIONED_COUNTERS: [&str; 5] = [
    "chunking.chunks",
    "hashing.chunks",
    "mhd.hook_hits",
    "store.disk_chunk_writes",
    "cache.manifest_inserts",
];

fn file_count(corpus: &Corpus) -> u64 {
    corpus.snapshots.iter().map(|s| s.files.len() as u64).sum()
}

#[test]
fn mhd_run_populates_internal_metrics() {
    mhd_obs::trace_start(mhd_obs::DEFAULT_TRACE_CAPACITY);

    // ---- Phase 1: unscoped run lights up every crate. ----
    let corpus = Corpus::generate(CorpusSpec::tiny(1234));
    // A manifest cache far smaller than the corpus's manifest population:
    // duplicate detection must go through the Bloom filter and the on-disk
    // Hook store, not just the RAM cache.
    let config = EngineConfig { cache_manifests: 2, ..EngineConfig::new(512, 8) };
    let mut engine = MhdEngine::new(MemBackend::new(), config).unwrap();
    for snapshot in &corpus.snapshots {
        engine.process_snapshot(snapshot).unwrap();
    }
    let report = engine.finish().unwrap();
    assert!(report.hhr_count > 0, "the corpus must exercise HHR");

    let snap = mhd_obs::snapshot();
    assert!(!snap.is_empty());

    // Chunking: every input byte went through the boundary finder.
    let chunks = snap.counter("chunking.chunks");
    assert!(chunks > 0);
    let sizes = snap.histogram("chunking.chunk_bytes").expect("chunk-size histogram");
    assert_eq!(sizes.count, chunks);
    assert_eq!(sizes.sum, corpus.total_bytes(), "chunk sizes must cover the input");
    let cuts = snap.histogram("chunking.find_cuts_ns").expect("boundary-scan timer");
    assert!(cuts.count > 0 && cuts.sum > 0);

    // Hashing stage: same chunk population, non-zero occupancy.
    assert_eq!(snap.counter("hashing.chunks"), chunks);
    let hashing = snap.histogram("stage.hashing_ns").expect("hashing-stage timer");
    assert!(hashing.count > 0 && hashing.sum > 0);

    // Dedup stage ran once per file.
    let dedup = snap.histogram("stage.dedup_ns").expect("dedup-stage timer");
    assert_eq!(dedup.count, file_count(&corpus));
    assert!(dedup.sum > 0);

    // MHD events: hook hits feed BME/HHR; HHR fired per the report.
    assert!(snap.counter("mhd.hook_hits") > 0);
    assert_eq!(snap.counter("mhd.hhr_splits"), report.hhr_count);
    assert!(snap.histogram("mhd.hhr_dup_bytes").is_some_and(|h| h.count == report.hhr_count));

    // Bloom filter fronted the hook lookups.
    assert!(snap.counter("bloom.inserts") > 0);
    assert_eq!(
        snap.counter("bloom.probes"),
        snap.counter("bloom.maybe_hits") + snap.counter("bloom.negatives")
    );

    // Manifest cache observed both hits and misses on this corpus.
    assert!(snap.counter("cache.manifest_hits") > 0);
    assert!(snap.counter("cache.manifest_misses") > 0);

    // Store backend wrote chunks and manifests.
    assert!(snap.counter("store.disk_chunk_writes") > 0);
    assert!(snap.counter("store.manifest_writes") > 0);

    // Front end: the consumer can only have helped with shipped jobs
    // (none are shipped on a one-core machine).
    assert!(snap.counter("frontend.helped") <= snap.counter("frontend.jobs"));

    // No scope was entered yet: the snapshot has no scope section.
    assert!(snap.scopes.is_empty(), "unscoped run must not invent scopes");

    // The whole snapshot survives a JSON round trip bit-exactly.
    let json = serde_json::to_string_pretty(&snap).unwrap();
    let back: mhd_obs::Snapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(back, snap);

    // ---- Phase 2: two concurrent scoped runs partition. ----
    let baseline = snap;
    let corpora =
        [Corpus::generate(CorpusSpec::tiny(4321)), Corpus::generate(CorpusSpec::tiny(5432))];
    std::thread::scope(|ts| {
        for (i, corpus) in corpora.iter().enumerate() {
            ts.spawn(move || {
                let _scope = mhd_obs::scope!("run={i}");
                let config = EngineConfig { cache_manifests: 2, ..EngineConfig::new(512, 8) };
                let mut engine = MhdEngine::new(MemBackend::new(), config).unwrap();
                for snapshot in &corpus.snapshots {
                    engine.process_snapshot(snapshot).unwrap();
                }
                engine.finish().unwrap();
            });
        }
    });
    let after = mhd_obs::snapshot();
    let delta = after.diff(&baseline);
    let run0 = after.scope("run=0").expect("run=0 sub-snapshot");
    let run1 = after.scope("run=1").expect("run=1 sub-snapshot");
    for name in PARTITIONED_COUNTERS {
        assert!(run0.counter(name) > 0, "{name} must fire in run=0");
        assert!(run1.counter(name) > 0, "{name} must fire in run=1");
        assert_eq!(
            run0.counter(name) + run1.counter(name),
            delta.counter(name),
            "{name}: per-scope values must sum to the global delta"
        );
    }
    // Histograms attribute too — including the hashing stage, which
    // runs on whichever thread took the file: each run's sample count is
    // its own file count, and the two sum to the global delta.
    for name in ["stage.dedup_ns", "stage.hashing_ns"] {
        let h0 = run0.histogram(name).expect("scoped stage occupancy");
        let h1 = run1.histogram(name).expect("scoped stage occupancy");
        assert_eq!(h0.count, file_count(&corpora[0]), "{name}");
        assert_eq!(h1.count, file_count(&corpora[1]), "{name}");
        assert_eq!(h0.count + h1.count, delta.histogram(name).expect("global delta").count);
    }

    // ---- Phase 3: a multi-engine exhibit yields per-engine scopes. ----
    let baseline = after;
    let bench_corpus = Corpus::generate(CorpusSpec::tiny(7654));
    let engines = [EngineKind::Mhd, EngineKind::Cdc];
    for kind in engines {
        run_engine(kind, &bench_corpus, scaled_config(512, 8, bench_corpus.total_bytes()));
    }
    let after = mhd_obs::snapshot();
    let delta = after.diff(&baseline);
    let mut engine_chunks = 0u64;
    for kind in engines {
        let scope = after
            .scope(&format!("engine={}", kind.label()))
            .unwrap_or_else(|| panic!("engine={} sub-snapshot", kind.label()));
        let chunks = scope.counter("chunking.chunks");
        assert!(chunks > 0, "engine={} must chunk", kind.label());
        engine_chunks += chunks;
    }
    assert_eq!(
        engine_chunks,
        delta.counter("chunking.chunks"),
        "per-engine chunk counts must sum to the global delta"
    );

    // ---- Phase 4: the trace round-trips and exports valid Chrome JSON. ----
    mhd_obs::trace_stop();
    let records = mhd_obs::trace_drain();
    assert!(!records.is_empty(), "the phases above must have produced trace events");
    assert!(records.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns), "drain sorts by time");
    let kinds: Vec<&str> = records.iter().map(|r| r.event.kind()).collect();
    for expected in ["ChunkEmitted", "HookHit", "StageBegin", "StageEnd"] {
        assert!(kinds.contains(&expected), "trace must contain {expected}");
    }

    // JSONL round trip is lossless.
    let jsonl = mhd_obs::trace_to_jsonl(&records);
    let back = mhd_obs::trace_from_jsonl(&jsonl).unwrap();
    assert_eq!(back, records);

    // Chrome export: one well-formed trace_event object per record.
    let chrome = mhd_obs::trace_to_chrome(&records);
    let doc: serde_json::Value = serde_json::from_str(&chrome).expect("chrome export parses");
    let serde_json::Value::Object(top) = &doc else { panic!("chrome export must be an object") };
    let (_, events) =
        top.iter().find(|(k, _)| k == "traceEvents").expect("traceEvents envelope key");
    let serde_json::Value::Array(events) = events else { panic!("traceEvents must be an array") };
    assert_eq!(events.len(), records.len());
    let mut begins = 0u64;
    let mut ends = 0u64;
    for event in events {
        let serde_json::Value::Object(fields) = event else { panic!("event must be an object") };
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        for required in ["name", "ph", "ts", "pid", "tid"] {
            assert!(get(required).is_some(), "chrome event missing {required}");
        }
        let serde_json::Value::String(ph) = get("ph").unwrap() else { panic!("ph not a string") };
        match ph.as_str() {
            "B" => begins += 1,
            "E" => ends += 1,
            "i" => assert!(get("args").is_some(), "instants must carry args"),
            other => panic!("unexpected chrome phase {other:?}"),
        }
    }
    assert!(begins > 0, "stage events must appear");
    assert_eq!(begins, ends, "every stage must open and close");
}
