//! Fig. 9 — BF-MHD at different SD values: (a) real DER vs MetaDataRatio,
//! (b) real DER vs ThroughputRatio. The paper's SD ∈ {1000, 500, 250}
//! scale here to `--sd`, `--sd/2`, `--sd/4` (default 64/32/16; see
//! EXPERIMENTS.md for the scaling argument).

use mhd_bench::{print_table, run_engine, scaled_config, Cli, EngineKind, RunResult, ECS_SWEEP};

fn main() {
    let cli = Cli::parse();
    let corpus = cli.corpus();
    let sds = [cli.sd, (cli.sd / 2).max(2), (cli.sd / 4).max(2)];

    let mut results: Vec<RunResult> = Vec::new();
    for &sd in &sds {
        for ecs in ECS_SWEEP {
            eprintln!("fig9: BF-MHD @ SD {sd} ECS {ecs}");
            results.push(run_engine(
                EngineKind::Mhd,
                &corpus,
                scaled_config(ecs, sd, corpus.total_bytes()),
            ));
        }
    }

    let rows_a: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                format!("BF-MHD-SD-{}", r.sd),
                r.ecs.to_string(),
                format!("{:.4}", r.metrics.metadata_ratio * 100.0),
                format!("{:.3}", r.metrics.real_der),
            ]
        })
        .collect();
    print_table(
        "Fig 9(a): Real DER vs MetaDataRatio (%) at different SD",
        &["series", "ECS (B)", "MetaDataRatio %", "real DER"],
        &rows_a,
    );

    let rows_b: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                format!("BF-MHD-SD-{}", r.sd),
                r.ecs.to_string(),
                format!("{:.4}", r.metrics.throughput_ratio),
                format!("{:.3}", r.metrics.real_der),
            ]
        })
        .collect();
    print_table(
        "Fig 9(b): Real DER vs ThroughputRatio at different SD",
        &["series", "ECS (B)", "ThroughputRatio", "real DER"],
        &rows_b,
    );

    cli.finish("fig9", &results);
}
