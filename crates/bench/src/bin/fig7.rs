//! Fig. 7 — "Metadata comparison" (SD fixed, ECS ∈ {512..8192}):
//! (a) inodes per MiB, (b) Manifest+Hook MetaDataRatio, (c) FileManifest
//! MetaDataRatio, (d) total MetaDataRatio, for BF-MHD, Bimodal, SubChunk,
//! and SparseIndexing.

use mhd_bench::{print_table, run_engine, scaled_config, Cli, EngineKind, RunResult, ECS_SWEEP};

fn main() {
    let cli = Cli::parse();
    let corpus = cli.corpus();

    let mut results: Vec<RunResult> = Vec::new();
    for ecs in ECS_SWEEP {
        for kind in EngineKind::FIGURE_SET {
            eprintln!("fig7: {} @ ECS {ecs}", kind.label());
            results.push(run_engine(
                kind,
                &corpus,
                scaled_config(ecs, cli.sd, corpus.total_bytes()),
            ));
        }
    }

    let panel = |title: &str, f: &dyn Fn(&RunResult) -> String| {
        let header: Vec<String> = std::iter::once("ECS (B)".to_string())
            .chain(EngineKind::FIGURE_SET.iter().map(|k| k.label().to_string()))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<String>> = ECS_SWEEP
            .iter()
            .map(|&ecs| {
                std::iter::once(ecs.to_string())
                    .chain(EngineKind::FIGURE_SET.iter().map(|k| {
                        let r = results
                            .iter()
                            .find(|r| r.ecs == ecs && r.engine == k.label())
                            .expect("all combinations ran");
                        f(r)
                    }))
                    .collect()
            })
            .collect();
        print_table(title, &header_refs, &rows);
    };

    panel("Fig 7(a): Number of inodes per MiB vs ECS", &|r| {
        format!("{:.2}", r.metrics.inodes_per_mib)
    });
    panel("Fig 7(b): Manifest+Hook MetaDataRatio vs ECS", &|r| {
        format!("{:.3e}", r.metrics.manifest_metadata_ratio)
    });
    panel("Fig 7(c): FileManifest MetaDataRatio vs ECS", &|r| {
        format!("{:.3e}", r.metrics.file_manifest_metadata_ratio)
    });
    panel("Fig 7(d): Total MetaDataRatio vs ECS", &|r| format!("{:.3e}", r.metrics.metadata_ratio));

    cli.finish("fig7", &results);
}
