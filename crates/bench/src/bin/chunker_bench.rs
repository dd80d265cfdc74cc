//! Chunker shootout (extension experiment, not in the paper): raw
//! cut-point throughput and end-to-end dedup quality for every
//! engine-selectable chunker (`--chunker` on `mhd backup`/`mhd serve`).
//!
//! Two panels:
//!
//! * **scanner throughput** — MiB/s of `cut_points` over the concatenated
//!   corpus bytes, best-of-N;
//! * **dedup quality** — the Fig 7/8-style BF-MHD run repeated per
//!   chunker: duplicate-elimination ratio, chunks stored, metadata ratio.
//!   After every run the first day of machine 0 is restored and compared
//!   byte-for-byte, so a chunker can never "win" by corrupting restores.
//!
//! Asserted gates:
//!
//! * restore identity per chunker — unconditional;
//! * FastCDC throughput ≥ Rabin — opt-in via
//!   `CHUNKER_BENCH_REQUIRE_FASTCDC=1` (set by CI's smoke stage; debug
//!   builds invert the constant folding the release gate relies on).

use std::time::Instant;

use mhd_bench::{print_table, scaled_config, Cli};
use mhd_chunking::{AnyChunker, Chunker, ChunkerKind};
use mhd_core::{restore, Deduplicator, MhdEngine};
use mhd_store::MemBackend;
use serde_json::json;

/// Replays per throughput measurement; the fastest is reported.
const REPEATS: usize = 3;

/// Expected chunk size for both panels (the paper's default ECS).
const ECS: usize = 4096;

/// Best-of-N MiB/s of one cut-point scanner over `data`, plus the cuts it
/// found (returned so callers can sanity-check identity across scanners).
fn measure(data: &[u8], scan: &dyn Fn(&[u8]) -> Vec<usize>) -> (f64, Vec<usize>) {
    let mib = data.len() as f64 / (1 << 20) as f64;
    let mut best = f64::INFINITY;
    let mut cuts = Vec::new();
    for _ in 0..REPEATS {
        let start = Instant::now();
        cuts = scan(data);
        best = best.min(start.elapsed().as_secs_f64());
    }
    (mib / best, cuts)
}

/// One BF-MHD corpus run with the given chunker; returns
/// (dup_fraction, chunks_stored, metadata_ratio) after asserting the
/// machine-0/day-0 restore probe.
fn dedup_quality(corpus: &mhd_workload::Corpus, kind: ChunkerKind, sd: usize) -> (f64, u64, f64) {
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

    // Scanner input: the corpus bytes themselves (mixed structured /
    // mutated / duplicate content), concatenated like the paper's backup
    // stream, capped so debug runs stay quick.
    const SCAN_CAP: usize = 256 << 20;
    let mut data = Vec::new();
    'fill: for snapshot in &corpus.snapshots {
        for file in &snapshot.files {
            if data.len() + file.data.len() > SCAN_CAP {
                break 'fill;
            }
            data.extend_from_slice(&file.data);
        }
    }
    let input_mib = data.len() as f64 / (1 << 20) as f64;
    eprintln!("chunker_bench: scanning {input_mib:.0} MiB of corpus bytes, ECS {ECS}");

    let mut rows = Vec::new();
    let mut js = Vec::new();
    let mut rabin_mib_s = 0.0f64;
    let mut fastcdc_mib_s = 0.0f64;
    for kind in ChunkerKind::ALL {
        let chunker: AnyChunker = kind.build(ECS).expect("default ECS is buildable");
        let (mib_s, cuts) = measure(&data, &|d| chunker.cut_points(d));
        let mean_chunk = data.len() as f64 / cuts.len().max(1) as f64;
        match kind {
            ChunkerKind::Rabin => rabin_mib_s = mib_s,
            ChunkerKind::FastCdc => fastcdc_mib_s = mib_s,
            _ => {}
        }

        eprintln!("chunker_bench: {kind} dedup-quality run");
        let (dup_fraction, chunks_stored, metadata_ratio) = dedup_quality(&corpus, kind, cli.sd);

        rows.push(vec![
            kind.to_string(),
            format!("{mib_s:.0}"),
            format!("{mean_chunk:.0}"),
            format!("{:.1}%", dup_fraction * 100.0),
            chunks_stored.to_string(),
            format!("{metadata_ratio:.3e}"),
        ]);
        js.push(json!({
            "chunker": kind.to_string(),
            "mib_s": mib_s,
            "chunks": cuts.len(),
            "mean_chunk_bytes": mean_chunk,
            "dup_fraction": dup_fraction,
            "chunks_stored": chunks_stored,
            "metadata_ratio": metadata_ratio,
            "restore_ok": true,
        }));
    }

    if std::env::var_os("CHUNKER_BENCH_REQUIRE_FASTCDC").is_some() {
        assert!(
            fastcdc_mib_s >= rabin_mib_s,
            "FastCDC {fastcdc_mib_s:.0} MiB/s fell below Rabin {rabin_mib_s:.0} MiB/s — \
             the gear scanner has regressed"
        );
    }

    print_table(
        "Chunker shootout: scanner MiB/s + BF-MHD dedup quality (extension experiment)",
        &["chunker", "MiB/s", "mean chunk", "dup", "chunks stored", "meta ratio"],
        &rows,
    );
    println!("\nevery dedup row replays the identical corpus; only the chunker varies");

    cli.write_json("chunker_bench.json", &js);
    cli.write_internals("chunker_bench_internals.json");
    cli.write_trace();
}
