//! Chunker shootout (extension experiment, not in the paper): dedup
//! quality for every engine-selectable chunker (`--chunker` on
//! `mhd backup`/`mhd serve`). Counts only — how fast each scanner runs is
//! the repo benchmark's `chunking.mib_s` row (`benchmark/README.md`).
//!
//! Per chunker: the chunks it cuts from the corpus read as one backup
//! stream, then the Fig 7/8-style BF-MHD run — duplicate-elimination
//! ratio, chunks stored, metadata ratio. After every run the first day of
//! machine 0 is restored and compared byte-for-byte, so a chunker can
//! never "win" by corrupting restores.

use std::io::Read;

use mhd_bench::{print_table, scaled_config, Cli};
use mhd_chunking::{AnyChunker, ChunkerKind, StreamChunker};
use mhd_core::{restore, Deduplicator, MhdEngine};
use mhd_store::MemBackend;
use mhd_workload::Corpus;
use serde_json::json;

/// Expected chunk size (the paper's default ECS).
const ECS: usize = 4096;

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

/// One BF-MHD corpus run with the given chunker; returns
/// (dup_fraction, chunks_stored, metadata_ratio) after asserting the
/// machine-0/day-0 restore probe.
fn dedup_quality(corpus: &Corpus, kind: ChunkerKind, sd: usize) -> (f64, u64, f64) {
    let _scope = mhd_obs::scope!("chunker={}", kind);
    let config = scaled_config(ECS, sd, corpus.total_bytes()).with_chunker(kind);
    let mut engine = MhdEngine::new(MemBackend::new(), config).expect("config");
    for snapshot in &corpus.snapshots {
        engine.process_snapshot(snapshot).expect("in-memory dedup cannot fail");
    }
    let report = engine.finish().expect("finish");

    // Whatever boundaries the chunker cut, restores must be byte-exact.
    let probe = corpus
        .snapshots
        .iter()
        .find(|s| s.machine == 0 && s.day == 0)
        .expect("corpus has machine 0 day 0");
    for file in &probe.files {
        let restored =
            restore::restore_file(engine.substrate_mut(), &file.path).expect("restore probe");
        assert_eq!(restored, file.data, "{kind}: restore of {} diverged", file.path);
    }

    let metrics = mhd_core::metrics::compute(&report, &mhd_core::metrics::DiskModel::default());
    (report.dup_fraction(), report.chunks_stored, metrics.metadata_ratio)
}

fn main() {
    let cli = Cli::parse();
    let corpus = cli.corpus();

    let mut rows = Vec::new();
    let mut js = Vec::new();
    for kind in ChunkerKind::ALL {
        eprintln!("chunker_bench: {kind} at ECS {ECS}");
        let chunker = kind.build(ECS).expect("default ECS is buildable");
        let chunks = stream_chunks(&corpus, chunker);
        let mean_chunk = corpus.total_bytes() as f64 / chunks.max(1) as f64;
        let (dup_fraction, chunks_stored, metadata_ratio) = dedup_quality(&corpus, kind, cli.sd);

        rows.push(vec![
            kind.to_string(),
            format!("{mean_chunk:.0}"),
            format!("{:.1}%", dup_fraction * 100.0),
            chunks_stored.to_string(),
            format!("{metadata_ratio:.3e}"),
        ]);
        js.push(json!({
            "chunker": kind.to_string(),
            "chunks": chunks,
            "mean_chunk_bytes": mean_chunk,
            "dup_fraction": dup_fraction,
            "chunks_stored": chunks_stored,
            "metadata_ratio": metadata_ratio,
            "restore_ok": true,
        }));
    }

    print_table(
        "Chunker shootout: BF-MHD dedup quality per chunker (extension experiment)",
        &["chunker", "mean chunk", "dup", "chunks stored", "meta ratio"],
        &rows,
    );
    println!("\nevery dedup row replays the identical corpus; only the chunker varies");

    cli.finish("chunker_bench", &js);
}
