//! §V-D "Characteristics of the test dataset", measured *independently of
//! any engine*: exact chunk-level duplication (a global hash set over the
//! whole corpus — the upper bound any chunk-based deduplicator can reach
//! at each ECS), duplicate-slice statistics (runs of consecutive duplicate
//! chunks → the DAD), and boundary-shift sensitivity (CDC vs FSP at the
//! same granularity, the LBFS argument for content-defined chunking).

use mhd_bench::{print_table, Cli, ECS_SWEEP};
use mhd_chunking::{Chunker, FixedChunker, RabinChunker, Span};
use mhd_hash::{sha1, ChunkHash, FxHashSet};
use serde_json::json;

struct Characteristics {
    ecs: usize,
    max_der: f64,
    dup_slices: u64,
    dad_bytes: f64,
    fsp_der: f64,
}

fn analyse(corpus: &mhd_workload::Corpus, ecs: usize) -> Characteristics {
    let cdc = RabinChunker::with_avg(ecs).expect("power-of-two ECS");
    let fsp = FixedChunker::new(ecs);

    let mut seen: FxHashSet<ChunkHash> = FxHashSet::default();
    let mut seen_fsp: FxHashSet<ChunkHash> = FxHashSet::default();
    let mut total = 0u64;
    let mut dup_bytes = 0u64;
    let mut dup_bytes_fsp = 0u64;
    let mut dup_slices = 0u64;

    for snapshot in &corpus.snapshots {
        for file in &snapshot.files {
            let hashed = |s: Span| (s.len, sha1(&file.data[s.offset..s.end()]));
            let mut in_slice = false;
            for (len, h) in cdc.spans(&file.data).into_iter().map(hashed) {
                total += len as u64;
                if !seen.insert(h) {
                    dup_bytes += len as u64;
                    if !in_slice {
                        in_slice = true;
                        dup_slices += 1;
                    }
                } else {
                    in_slice = false;
                }
            }
            for (len, h) in fsp.spans(&file.data).into_iter().map(hashed) {
                if !seen_fsp.insert(h) {
                    dup_bytes_fsp += len as u64;
                }
            }
        }
    }
    Characteristics {
        ecs,
        max_der: total as f64 / (total - dup_bytes).max(1) as f64,
        dup_slices,
        dad_bytes: dup_bytes as f64 / dup_slices.max(1) as f64,
        fsp_der: total as f64 / (total - dup_bytes_fsp).max(1) as f64,
    }
}

fn main() {
    let cli = Cli::parse();
    let corpus = cli.corpus();

    let mut rows = Vec::new();
    let mut js = Vec::new();
    for ecs in ECS_SWEEP {
        eprintln!("dataset: ECS {ecs}");
        let c = analyse(&corpus, ecs);
        rows.push(vec![
            c.ecs.to_string(),
            format!("{:.3}", c.max_der),
            format!("{:.3}", c.fsp_der),
            c.dup_slices.to_string(),
            format!("{:.1}", c.dad_bytes / 1024.0),
        ]);
        js.push(json!({
            "ecs": c.ecs, "max_chunk_der": c.max_der, "fsp_der": c.fsp_der,
            "dup_slices": c.dup_slices, "dad_bytes": c.dad_bytes,
        }));
    }
    print_table(
        "Dataset characteristics (engine-independent ground truth)",
        &["ECS (B)", "max chunk DER (CDC)", "FSP DER", "dup slices", "DAD (KiB)"],
        &rows,
    );
    println!(
        "\npaper §V-D: maximal data-only DER ≈ 4.15; DAD 90–220 KB shrinking with ECS;\nFSP trails CDC because insert/delete mutations shift fixed boundaries."
    );
    println!(
        "generator ground truth: ideal DER {:.2}, expected DAD {:.0} KiB",
        corpus.stats.ideal_der(),
        corpus.stats.expected_dad() / 1024.0
    );

    cli.finish("dataset", &js);
}
