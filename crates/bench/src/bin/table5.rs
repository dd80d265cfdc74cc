//! Table V — "Disk accessing times for Manifests loading in BF-MHD"
//! across the SD × ECS grid.

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
            eprintln!("table5: BF-MHD @ SD {sd} ECS {ecs}");
            let r =
                run_engine(EngineKind::Mhd, &corpus, scaled_config(ecs, sd, corpus.total_bytes()));
            rows.push(vec![
                sd.to_string(),
                ecs.to_string(),
                r.report.stats.manifest_loads().to_string(),
                r.report.stats.cache_hits.to_string(),
            ]);
            js.push(json!({"sd": sd, "ecs": ecs, "input_bytes": r.report.input_bytes,
                           "manifest_loads": r.report.stats.manifest_loads(),
                           "cache_hits": r.report.stats.cache_hits}));
        }
    }
    print_table(
        "Table V: Manifest-load disk accesses in BF-MHD",
        &["SD", "ECS (B)", "manifest loads", "cache hits"],
        &rows,
    );
    println!("\npaper: loads shrink as ECS grows; smaller SD loads slightly more");

    cli.finish("table5", &js);
}
