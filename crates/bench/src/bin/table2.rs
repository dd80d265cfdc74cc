//! Table II — "Disk Accessing Times Comparison": the §IV closed-form
//! model (worst case) next to the measured access counters. The measured
//! values sit at or below the model (e.g. MHD chunk reloads ≤ 2L, cache
//! hits replace repeated manifest loads).

use mhd_bench::{print_table, run_engine, scaled_config, Cli, EngineKind};
use mhd_core::analysis::{self, Algorithm, Symbols};
use serde_json::json;

fn main() {
    let cli = Cli::parse();
    let corpus = cli.corpus();
    let config = scaled_config(4096, cli.sd, corpus.total_bytes());

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
        let model = analysis::io_model(algo, sym);
        let (sup_small, sup_big) = analysis::bloom_suppressed(algo, sym);
        let stats = &run.report.stats;
        rows.push(vec![
            algo.label().to_string(),
            format!("{}/{}", model.chunk_output, stats.chunk_output),
            format!("{}/{}", model.chunk_input, stats.chunk_input),
            format!("{}/{}", model.hook_output, stats.hook_output),
            format!("{}/{}", model.hook_input, stats.hook_input),
            format!("{}/{}", model.manifest_output, stats.manifest_output),
            format!("{}/{}", model.manifest_input, stats.manifest_input),
            format!("{}/{}", model.big_chunk_query, stats.big_chunk_query),
            format!("{}/{}", model.total_with_bloom(sup_small, sup_big), stats.total_with_bloom()),
        ]);
        js.push(json!({
            "algorithm": algo.label(),
            "input_bytes": corpus.total_bytes(),
            "symbols": sym,
            "model": model,
            "model_total_with_bloom": model.total_with_bloom(sup_small, sup_big),
            "measured": stats,
            "measured_total_with_bloom": stats.total_with_bloom(),
        }));
    }
    println!("\nsymbols: N={n} D={d} SD={}; each cell is model/measured", cli.sd);
    print_table(
        "Table II: disk accesses — model vs measured (model/measured)",
        &[
            "algorithm",
            "chunk out",
            "chunk in",
            "hook out",
            "hook in",
            "manifest out",
            "manifest in",
            "big query",
            "total (bloom)",
        ],
        &rows,
    );

    cli.finish("table2", &js);
}
