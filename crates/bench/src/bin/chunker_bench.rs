//! The dedup-quality yardstick (extension experiment, not in the paper):
//! how far every engine × chunker pair lands from the corpus's known
//! ideal. Counts only — how fast each scanner runs is the repo
//! benchmark's `chunking.mib_s` row (`benchmark/README.md`).
//!
//! The generator knows which bytes are fresh, so the corpus carries its
//! ideal DER (input ÷ fresh bytes). A run's `gap` is that ideal over its
//! real DER — (stored + metadata bytes) ÷ (input ÷ ideal DER) — and its
//! `data_gap` the same over its data-only DER; 1.0 is a perfect
//! deduplicator with free metadata. This is the distance "An
//! Information-Theoretic Analysis of Deduplication" judges quality by.
//!
//! At each ECS, per chunker: the chunks it cuts from the corpus read as
//! one backup stream, then one run of every engine with that chunker.
//! After every run the first day of machine 0 is restored and compared
//! byte-for-byte, so no pair can "win" by corrupting restores.

use std::io::Read;

use mhd_bench::{print_table, scaled_config, Cli, EngineKind};
use mhd_chunking::{AnyChunker, ChunkerKind, StreamChunker};
use mhd_core::metrics::{self, DiskModel, Metrics};
use mhd_core::{restore, EngineConfig};
use mhd_store::MemBackend;
use mhd_workload::Corpus;
use serde_json::json;

/// The expected chunk sizes compared: the paper's default and the small
/// end of its sweep, where metadata weighs most.
const ECS_SET: [usize; 2] = [1024, 4096];

/// The corpus as the paper's backup stream: every file of every snapshot
/// end to end, so a chunk may span a file boundary.
struct BackupStream<'a, I> {
    files: I,
    rest: &'a [u8],
}

impl<'a, I: Iterator<Item = &'a [u8]>> Read for BackupStream<'a, I> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        while self.rest.is_empty() {
            match self.files.next() {
                Some(file) => self.rest = file,
                None => return Ok(0),
            }
        }
        self.rest.read(buf)
    }
}

/// Chunks `chunker` cuts from the whole corpus read as one stream.
fn stream_chunks(corpus: &Corpus, chunker: AnyChunker) -> u64 {
    let files = corpus.snapshots.iter().flat_map(|s| &s.files).map(|f| &f.data[..]);
    let mut stream = StreamChunker::new(BackupStream { files, rest: &[] }, chunker);
    std::iter::from_fn(|| stream.next_chunk().expect("reading memory cannot fail")).count() as u64
}

/// One corpus run of `kind`; returns (chunks stored, metrics) after
/// asserting the machine-0/day-0 restore probe.
fn run(kind: EngineKind, corpus: &Corpus, config: EngineConfig) -> (u64, Metrics) {
    let _scope = mhd_obs::scope!("engine={}", kind.label());
    let mut engine = kind.build(MemBackend::new(), config).expect("config");
    for snapshot in &corpus.snapshots {
        engine.process_snapshot(snapshot).expect("in-memory dedup cannot fail");
    }
    let report = engine.finish().expect("finish");

    // Whatever boundaries the pair cut, restores must be byte-exact.
    let probe = corpus
        .snapshots
        .iter()
        .find(|s| s.machine == 0 && s.day == 0)
        .expect("corpus has machine 0 day 0");
    for file in &probe.files {
        let restored =
            restore::restore_file(engine.substrate_mut(), &file.path).expect("restore probe");
        assert_eq!(
            restored,
            file.data,
            "{} / {}: restore of {} diverged",
            kind.label(),
            config.chunker,
            file.path
        );
    }
    (report.chunks_stored, metrics::compute(&report, &DiskModel::default()))
}

fn main() {
    let cli = Cli::parse();
    let corpus = cli.corpus();
    let ideal = corpus.stats.ideal_der();

    let (mut stream_rows, mut streams) = (Vec::new(), Vec::new());
    let (mut run_rows, mut runs) = (Vec::new(), Vec::new());
    for ecs in ECS_SET {
        for chunker in ChunkerKind::ALL {
            eprintln!("chunker_bench: {chunker} at ECS {ecs}");
            let _scope = mhd_obs::scope!("chunker={chunker}");
            let chunks = stream_chunks(&corpus, chunker.build(ecs).expect("ECS is buildable"));
            let mean_chunk = corpus.total_bytes() as f64 / chunks.max(1) as f64;
            stream_rows.push(vec![
                ecs.to_string(),
                chunker.to_string(),
                chunks.to_string(),
                format!("{mean_chunk:.0}"),
            ]);
            streams.push(json!({
                "ecs": ecs,
                "chunker": chunker.to_string(),
                "chunks": chunks,
                "mean_chunk_bytes": mean_chunk,
            }));

            let config = scaled_config(ecs, cli.sd, corpus.total_bytes()).with_chunker(chunker);
            for engine in EngineKind::ALL {
                let (chunks_stored, m) = run(engine, &corpus, config);
                let (gap, data_gap) = (ideal / m.real_der, ideal / m.data_only_der);
                run_rows.push(vec![
                    ecs.to_string(),
                    chunker.to_string(),
                    engine.label().to_string(),
                    chunks_stored.to_string(),
                    format!("{:.3}", m.real_der),
                    format!("{gap:.4}"),
                    format!("{data_gap:.4}"),
                ]);
                runs.push(json!({
                    "ecs": ecs,
                    "chunker": chunker.to_string(),
                    "engine": engine.label(),
                    "chunks_stored": chunks_stored,
                    "real_der": m.real_der,
                    "gap": gap,
                    "data_gap": data_gap,
                }));
            }
        }
    }

    print_table(
        "The corpus as one backup stream, per chunker",
        &["ECS", "chunker", "chunks", "mean chunk"],
        &stream_rows,
    );
    print_table(
        &format!("Distance to the ideal DER {ideal:.3} (SD {}; 1.0 is ideal)", cli.sd),
        &["ECS", "chunker", "engine", "chunks stored", "real DER", "gap", "data gap"],
        &run_rows,
    );
    println!("\ngap = ideal DER / real DER; data gap = ideal DER / data-only DER");

    cli.finish(
        "chunker_bench",
        &json!({ "ideal_der": ideal, "sd": cli.sd, "streams": streams, "runs": runs }),
    );
}
