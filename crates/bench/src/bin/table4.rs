//! Table IV — "Byte size for all the Hooks and Manifests in BF-MHD"
//! across the SD × ECS grid (whether they would fit in RAM, §V-C).

use mhd_bench::{print_table, run_engine, scaled_config, Cli, EngineKind};
use serde_json::json;

fn main() {
    let cli = Cli::parse();
    let corpus = cli.corpus();
    let sds = [cli.sd, (cli.sd / 2).max(2), (cli.sd / 4).max(2)];
    let ecs_values = [1024usize, 2048, 4096, 8192];

    let mut rows = Vec::new();
    let mut js = Vec::new();
    for &sd in &sds {
        for ecs in ecs_values {
            eprintln!("table4: BF-MHD @ SD {sd} ECS {ecs}");
            let r =
                run_engine(EngineKind::Mhd, &corpus, scaled_config(ecs, sd, corpus.total_bytes()));
            let bytes = r.report.ledger.manifest_and_hook_bytes();
            let pct = bytes as f64 / r.report.input_bytes as f64 * 100.0;
            rows.push(vec![
                sd.to_string(),
                ecs.to_string(),
                (bytes / 1024).to_string(),
                format!("{pct:.4}%"),
            ]);
            js.push(json!({"sd": sd, "ecs": ecs, "input_bytes": r.report.input_bytes,
                           "hook_and_manifest_bytes": bytes,
                           "fraction_of_input": pct / 100.0}));
        }
    }
    print_table(
        "Table IV: Hook + Manifest bytes in BF-MHD",
        &["SD", "ECS (B)", "size (KiB)", "% of input"],
        &rows,
    );
    println!("\npaper: 0.007%-0.02% of input; grows as SD shrinks and as ECS shrinks");

    cli.finish("table4", &js);
}
