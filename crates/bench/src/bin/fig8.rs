//! Fig. 8 — trade-off between deduplication efficiency and overhead:
//! (a) data-only DER vs MetaDataRatio, (b) real DER vs MetaDataRatio,
//! (c) data-only DER vs ThroughputRatio, (d) real DER vs ThroughputRatio.
//! Each algorithm traces one curve; the points along it are the ECS sweep.

use mhd_bench::{print_table, run_engine, scaled_config, Cli, EngineKind, RunResult, ECS_SWEEP};

fn main() {
    let cli = Cli::parse();
    let corpus = cli.corpus();

    let mut results: Vec<RunResult> = Vec::new();
    for kind in EngineKind::FIGURE_SET {
        for ecs in ECS_SWEEP {
            eprintln!("fig8: {} @ ECS {ecs}", kind.label());
            results.push(run_engine(
                kind,
                &corpus,
                scaled_config(ecs, cli.sd, corpus.total_bytes()),
            ));
        }
    }

    let curves = |title: &str,
                  x: &dyn Fn(&RunResult) -> String,
                  y: &dyn Fn(&RunResult) -> String| {
        let rows: Vec<Vec<String>> =
            results.iter().map(|r| vec![r.engine.clone(), r.ecs.to_string(), x(r), y(r)]).collect();
        print_table(title, &["algorithm", "ECS (B)", "x", "y"], &rows);
    };

    curves(
        "Fig 8(a): Data-only DER vs MetaDataRatio (%)",
        &|r| format!("{:.4}", r.metrics.metadata_ratio * 100.0),
        &|r| format!("{:.3}", r.metrics.data_only_der),
    );
    curves(
        "Fig 8(b): Real DER vs MetaDataRatio (%)",
        &|r| format!("{:.4}", r.metrics.metadata_ratio * 100.0),
        &|r| format!("{:.3}", r.metrics.real_der),
    );
    curves(
        "Fig 8(c): Data-only DER vs ThroughputRatio",
        &|r| format!("{:.4}", r.metrics.throughput_ratio),
        &|r| format!("{:.3}", r.metrics.data_only_der),
    );
    curves(
        "Fig 8(d): Real DER vs ThroughputRatio",
        &|r| format!("{:.4}", r.metrics.throughput_ratio),
        &|r| format!("{:.3}", r.metrics.real_der),
    );

    // Headline check (paper §V-A/Fig 8a): peak MetaDataRatio ordering
    // SparseIndexing > SubChunk > Bimodal > BF-MHD.
    let peak = |label: &str| {
        results
            .iter()
            .filter(|r| r.engine == label)
            .map(|r| r.metrics.metadata_ratio)
            .fold(0.0f64, f64::max)
    };
    println!(
        "\npeak MetaDataRatio: SparseIndexing {:.4}% | SubChunk {:.4}% | Bimodal {:.4}% | BF-MHD {:.4}%",
        peak("SparseIndexing") * 100.0,
        peak("SubChunk") * 100.0,
        peak("Bimodal") * 100.0,
        peak("BF-MHD") * 100.0,
    );

    cli.finish("fig8", &results);
}
