//! Table I — "Metadata Size Comparison": the §IV closed-form model
//! evaluated with the measured workload symbols, side by side with the
//! measured ledger of each engine.

use mhd_bench::{print_table, run_engine, scaled_config, Cli, EngineKind};
use mhd_core::analysis::{self, Algorithm, Symbols};
use serde_json::json;

fn main() {
    let cli = Cli::parse();
    let corpus = cli.corpus();
    let ecs = 4096;
    let config = scaled_config(ecs, cli.sd, corpus.total_bytes());

    // Workload symbols: N and D at the shared ECS granularity come from
    // the CDC reference run ("regardless of how chunks are generated",
    // §IV); L and F are per-engine.
    let runs: Vec<_> =
        EngineKind::TABLE_SET.iter().map(|&k| (k, run_engine(k, &corpus, config))).collect();
    let cdc = &runs.iter().find(|(k, _)| *k == EngineKind::Cdc).expect("cdc ran").1;
    let (n, d) = (cdc.report.chunks_stored, cdc.report.chunks_dup);

    let mut rows = Vec::new();
    let mut js = Vec::new();
    for (kind, run) in &runs {
        let algo = match kind {
            EngineKind::Mhd => Algorithm::Mhd,
            EngineKind::SubChunk => Algorithm::SubChunk,
            EngineKind::Bimodal => Algorithm::Bimodal,
            EngineKind::Cdc => Algorithm::Cdc,
            EngineKind::SparseIndexing => unreachable!("not in TABLE_SET"),
        };
        let sym =
            Symbols { n, d, l: run.report.dup_slices, f: run.report.files, sd: cli.sd as u64 };
        let model = analysis::metadata_model(algo, sym);
        let ledger = &run.report.ledger;
        rows.push(vec![
            algo.label().to_string(),
            model.inodes_disk_chunks.to_string(),
            ledger.inodes_disk_chunks.to_string(),
            model.inodes_hooks.to_string(),
            ledger.inodes_hooks.to_string(),
            model.manifest_bytes.to_string(),
            ledger.manifest_bytes.to_string(),
            model.total_bytes().to_string(),
            (ledger.total_metadata_bytes()
                - ledger.inodes_file_manifests * 256
                - ledger.file_manifest_bytes)
                .to_string(),
        ]);
        js.push(json!({
            "algorithm": algo.label(),
            "input_bytes": corpus.total_bytes(),
            "symbols": sym,
            "model": model,
            "measured_ledger": ledger,
        }));
    }
    println!(
        "\nsymbols: N={n} D={d} SD={} (L, F per engine); FileManifests excluded as in the paper's Table I",
        cli.sd
    );
    print_table(
        "Table I: metadata size — model vs measured",
        &[
            "algorithm",
            "chunk inodes (model)",
            "(measured)",
            "hook inodes (model)",
            "(measured)",
            "manifest B (model)",
            "(measured)",
            "total B (model)",
            "(measured)",
        ],
        &rows,
    );

    cli.finish("table1", &js);
}
