//! Table III — "RAM used for sparse index in SparseIndexing" vs ECS.

use mhd_bench::{print_table, run_engine, scaled_config, Cli, EngineKind};
use serde_json::json;

fn main() {
    let cli = Cli::parse();
    let corpus = cli.corpus();

    let ecs_values = [1024usize, 2048, 4096, 8192];
    let mut rows = Vec::new();
    let mut js = Vec::new();
    for ecs in ecs_values {
        eprintln!("table3: SparseIndexing @ ECS {ecs}");
        let r = run_engine(
            EngineKind::SparseIndexing,
            &corpus,
            scaled_config(ecs, cli.sd, corpus.total_bytes()),
        );
        let ram_kb = r.report.ram_index_bytes / 1024;
        let pct = r.report.ram_index_bytes as f64 / r.report.input_bytes as f64 * 100.0;
        rows.push(vec![ecs.to_string(), ram_kb.to_string(), format!("{pct:.4}%")]);
        js.push(json!({"ecs": ecs, "input_bytes": r.report.input_bytes,
                       "sparse_index_ram_bytes": r.report.ram_index_bytes,
                       "fraction_of_input": pct / 100.0}));
    }
    print_table(
        "Table III: RAM used for sparse index in SparseIndexing",
        &["ECS (B)", "RAM (KiB)", "% of input"],
        &rows,
    );
    println!("\npaper: ~0.01% of the input size; smaller ECS -> more chunks -> more hooks");

    cli.finish("table3", &js);
}
