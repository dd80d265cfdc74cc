//! Per-layer probes for `--trace` runs. Nothing here edits a crate: each
//! probe calls one layer's public entry point over the same corpus, or
//! runs the engine in-process over a [`TimedBackend`], and reads its
//! numbers off the spans.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mhd_bloom::BloomFilter;
use mhd_chunking::{Chunker, ChunkerKind};
use mhd_core::{DedupReport, MhdEngine};
use mhd_daemon::SharedStore;
use mhd_hash::{sha1, ChunkHash};
use mhd_store::{Backend, Substrate};
use mhd_workload::{Corpus, FileEntry, Snapshot};

use crate::harness::Result;
use crate::stats::{median, tail_percentile};
use crate::timed::TimedBackend;
use crate::trace::{Request, Span, SpanId, SpanTable, Tracer};
use crate::workloads::{
    engine_backup, engine_config, engine_restore, label, leaf, newest_first, tenant, Tally, ECS,
    MIB,
};

/// Per-layer metric values by name. A metric a workload does not produce
/// is simply absent here (and reported as 0 on the contract line: the
/// layer did no work).
pub type Layers = BTreeMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Threads `chunk_and_hash` fans SHA-1 out over.
pub fn hash_threads() -> f64 {
    crate::procfs::nproc() as f64
}

/// Replays the chunking and hash layers over every file of the corpus on
/// one thread, and the Bloom filter over the resulting hashes.
pub fn replay_front_end(corpus: &Corpus, tracer: &Tracer, hooks: u64, layers: &mut Layers) {
    let chunker = ChunkerKind::Rabin.build(ECS).expect("ECS is a power of two");
    let input = corpus.total_bytes() as f64;
    let mark = tracer.mark();
    let mut hashes: Vec<ChunkHash> = Vec::new();
    for snapshot in &corpus.snapshots {
        let request = Some(Request::of(snapshot));
        for file in &snapshot.files {
            let spans = tracer.span("chunking.scan", 0, request, |_| chunker.spans(&file.data));
            tracer.span("hash.sha1", 0, request, |_| {
                hashes.extend(spans.iter().map(|s| sha1(&file.data[s.offset..s.end()])));
            });
        }
    }
    // The engine sizes its filter like this and inserts one key per hook.
    let config = engine_config();
    let mut bloom = BloomFilter::with_bytes(config.bloom_bytes, (config.bloom_bytes * 2) as u64);
    let stride = (hashes.len() as u64 / hooks.max(1)).max(1) as usize;
    for hash in hashes.iter().step_by(stride) {
        bloom.insert(hash);
    }
    tracer.span("bloom.probe", 0, None, |_| {
        for hash in &hashes {
            black_box(bloom.contains(black_box(hash)));
        }
    });

    let spans = tracer.spans_since(mark);
    let table = SpanTable::new(&spans);
    let chunks = hashes.len() as f64;
    layers.insert("chunking.scan_s", table.seconds("chunking.scan"));
    layers.insert("chunking.mib_s", ratio(input / MIB, table.seconds("chunking.scan")));
    layers.insert("chunking.chunks", chunks);
    layers.insert("chunking.mean_chunk_bytes", ratio(input, chunks));
    layers.insert("hash.sha1_s", table.seconds("hash.sha1"));
    layers.insert("hash.mib_s", ratio(input / MIB, table.seconds("hash.sha1")));
    layers.insert("bloom.probe_ns_per_op", ratio(table.seconds("bloom.probe") * 1e9, chunks));
}

/// Counts the engine keeps itself: Bloom filter, manifest cache, dedup.
fn report_counts(report: &DedupReport, layers: &mut Layers) {
    let io = &report.stats;
    let (suppressed, probes) = (io.bloom_suppressed as f64, io.hook_input as f64);
    layers.insert("bloom.suppressed", suppressed);
    layers.insert("bloom.hook_disk_probes", probes);
    layers.insert("bloom.suppress_ratio", ratio(suppressed, suppressed + probes));
    let (hits, loads) = (io.cache_hits as f64, io.manifest_input as f64);
    layers.insert("cache.hits", hits);
    layers.insert("cache.manifest_loads", loads);
    layers.insert("cache.hit_ratio", ratio(hits, hits + loads));
    layers.insert("core.dup_fraction", report.dup_fraction());
    layers.insert("core.dup_slices", report.dup_slices as f64);
    layers.insert("core.hhr_count", report.hhr_count as f64);
    layers.insert("core.chunks_stored", report.chunks_stored as f64);
}

/// Store-layer busy seconds, call counts and bytes of one span set.
fn store_metrics(table: &SpanTable, layers: &mut Layers) {
    for (metric, prefix) in [
        ("store.put_s", "store.put"),
        ("store.update_s", "store.update"),
        ("store.get_s", "store.get"),
        ("store.get_range_s", "store.get_range"),
        ("store.exists_s", "store.exists"),
        ("store.flush_s", "store.flush"),
        ("store.chunk_put_s", "store.put.chunk"),
        ("store.hook_put_s", "store.put.hook"),
        ("store.manifest_put_s", "store.put.manifest"),
    ] {
        layers.insert(metric, table.seconds(prefix));
    }
    for (metric, prefix) in [
        ("store.puts", "store.put"),
        ("store.updates", "store.update"),
        ("store.gets", "store.get"),
        ("store.exists_calls", "store.exists"),
        ("store.flushes", "store.flush"),
    ] {
        layers.insert(metric, table.count(prefix) as f64);
    }
    layers
        .insert("store.put_bytes", (table.bytes("store.put") + table.bytes("store.update")) as f64);
    layers.insert(
        "store.get_bytes",
        (table.bytes("store.get") + table.bytes("store.get_range")) as f64,
    );
}

/// Restores the whole corpus in-process — the newest day, the oldest day,
/// then the days in between — and reads the core read-side numbers off
/// the spans, which it returns.
fn restore_probe<B: Backend>(
    substrate: &mut Substrate<TimedBackend<B>>,
    corpus: &Corpus,
    recipe: impl Fn(usize, &Snapshot, &FileEntry) -> String,
    tracer: &Tracer,
    tally: &mut Tally,
    layers: &mut Layers,
) -> Vec<Span> {
    let enter = &mut |b: &mut TimedBackend<B>, id: SpanId, req| b.enter(id, req);
    let mark = tracer.mark();
    let last_day = corpus.spec().snapshots - 1;
    let (mut newest, mut oldest, mut between) = (Vec::new(), Vec::new(), Vec::new());
    for stream in newest_first(corpus) {
        match stream.1.day {
            day if day == last_day => newest.push(stream),
            0 => oldest.push(stream),
            _ => between.push(stream),
        }
    }
    let mut restored = 0u64;
    for (metric, streams) in [
        (Some("core.restore_latest_mib_s"), newest),
        (Some("core.restore_oldest_mib_s"), oldest),
        (None, between),
    ] {
        let (bytes, seconds) =
            engine_restore(substrate, &streams, &recipe, Some(tracer), enter, tally);
        if let Some(metric) = metric {
            layers.insert(metric, ratio(bytes as f64 / MIB, seconds));
        }
        restored += bytes;
    }

    let spans = tracer.spans_since(mark);
    let table = SpanTable::new(&spans);
    layers.insert("core.restore_self_s", table.self_seconds("core.restore_file"));
    let read = table.bytes("store.get") + table.bytes("store.get_range");
    layers.insert("store.read_amplification", ratio(read as f64, restored as f64));
    spans
}

/// What the write-side engine probe measured, for the breakdown table.
pub struct EngineProbe {
    /// Wall seconds of the whole backup loop.
    pub wall_s: f64,
    /// Seconds inside `process_snapshot` and `finish`.
    pub core_s: f64,
    /// Seconds inside backend operations during that.
    pub store_s: f64,
    /// The engine's own report.
    pub report: DedupReport,
}

/// Runs the engine in-process over `TimedBackend<B>`: the write side
/// (store busy time and counts, the engine's counters), then the read
/// side over the store it just filled. `core.self_s` is left to the
/// caller, who knows the front-end replay times.
pub fn engine_probe<B: Backend>(
    backend: B,
    corpus: &Corpus,
    tracer: &Arc<Tracer>,
    tally: &mut Tally,
    layers: &mut Layers,
) -> Result<EngineProbe> {
    let mut engine = MhdEngine::new(TimedBackend::new(backend, tracer.clone()), engine_config())?;
    let enter = &mut |b: &mut TimedBackend<B>, id: SpanId, req| b.enter(id, req);
    let mark = tracer.mark();
    let (report, wall_s) = engine_backup(&mut engine, corpus, Some(tracer), enter)?;
    let spans = tracer.spans_since(mark);
    let table = SpanTable::new(&spans);
    store_metrics(&table, layers);
    report_counts(&report, layers);
    layers.insert("core.process_snapshot_s", table.seconds("core.process_snapshot"));
    layers.insert("core.finish_s", table.seconds("core.finish"));
    let (core_s, store_s) = (table.seconds("core"), table.seconds("store"));
    restore_probe(engine.substrate_mut(), corpus, |_, _, f| f.path.clone(), tracer, tally, layers);
    Ok(EngineProbe { wall_s, core_s, store_s, report })
}

/// The daemon's write path without the socket: the same sessions driven
/// in-process through `SharedStore`, `clients` at a time. Returns wall
/// seconds.
pub fn shared_backup(store: &SharedStore, corpus: &Corpus, clients: usize) -> Result<f64> {
    let start = Instant::now();
    let results: Vec<Result<()>> = std::thread::scope(|scope| {
        let drivers: Vec<_> = (0..clients)
            .map(|me| {
                scope.spawn(move || -> Result<()> {
                    for snapshot in corpus.snapshots.iter().filter(|s| s.machine % clients == me) {
                        let mut session = store.begin_session(&tenant(me), &label(snapshot))?;
                        for file in &snapshot.files {
                            session.stage(leaf(file), &file.data)?;
                        }
                        store.commit(session)?;
                    }
                    Ok(())
                })
            })
            .collect();
        drivers.into_iter().map(|d| d.join().expect("session thread panicked")).collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    results.into_iter().collect::<Result<Vec<()>>>()?;
    Ok(seconds)
}

/// The daemon's read path without the socket: the files of `streams`
/// through `SharedStore::restore`, byte-compared. Returns wall seconds.
pub fn shared_restore(
    store: &SharedStore,
    streams: &[(usize, &Snapshot)],
    clients: usize,
    tally: &mut Tally,
) -> f64 {
    let start = Instant::now();
    for &(_, snapshot) in streams {
        let tenant = tenant(snapshot.machine % clients);
        for file in &snapshot.files {
            let name = format!("{}/{}", label(snapshot), leaf(file));
            let ok = store.restore(&tenant, &name).is_ok_and(|d| d.as_slice() == &file.data[..]);
            tally.check(ok, || format!("in-process restore of {name} is not byte-exact"));
        }
    }
    start.elapsed().as_secs_f64()
}

/// `cli.invoke_*`: the pooled subprocess walls of the traced passes.
pub fn cli_invoke_metrics(spans: &[Span], layers: &mut Layers) {
    let table = SpanTable::new(spans);
    let walls: Vec<f64> = table.durations_ms("cli.invoke").into_iter().map(|(_, ms)| ms).collect();
    layers.insert("cli.invoke_p50_ms", median(&walls));
    layers.insert("cli.invoke_p95_ms", percentile_or_note("cli.invoke_p95_ms", &walls));
}

fn percentile_or_note(metric: &str, samples: &[f64]) -> f64 {
    tail_percentile(samples, 95.0).unwrap_or_else(|| {
        eprintln!(
            "note: {metric} needs 200 samples for ten beyond p95, has {}; reported as 0",
            samples.len()
        );
        0.0
    })
}

/// `daemon.*` client-side numbers of `passes` traced passes over `spans`.
pub fn daemon_client_metrics(spans: &[Span], passes: usize, corpus: &Corpus, layers: &mut Layers) {
    let table = SpanTable::new(spans);
    let per_pass = passes.max(1) as f64;
    layers.insert("daemon.begin_s", table.seconds("daemon.begin") / per_pass);
    layers.insert("daemon.send_s", table.seconds("daemon.send") / per_pass);
    layers.insert("daemon.commit_s", table.seconds("daemon.commit") / per_pass);
    let commits = table.durations_ms("daemon.commit");
    let walls: Vec<f64> = commits.iter().map(|&(_, ms)| ms).collect();
    layers.insert("daemon.commit_p50_ms", median(&walls));
    layers.insert("daemon.commit_p95_ms", percentile_or_note("daemon.commit_p95_ms", &walls));
    // Commit ms per MiB on the last day over the same on day 1: how much
    // a commit's cost grew with the store. Day 0 is all new data; day 1 is
    // the first day whose commits do the steady-state amount of dedup work.
    let ms_per_mib = |day: usize| -> f64 {
        let of_day = commits.iter().filter_map(|&(request, ms)| {
            let stream = corpus.snapshots.iter().find(|s| Some(Request::of(s)) == request)?;
            (stream.day == day).then(|| ms / (stream.total_bytes() as f64 / MIB))
        });
        median(&of_day.collect::<Vec<_>>())
    };
    let last_day = corpus.spec().snapshots - 1;
    layers.insert("daemon.commit_growth_ratio", ratio(ms_per_mib(last_day), ms_per_mib(1)));
}
