//! Ablations of MHD's design choices (DESIGN.md §5): EdgeHash on/off,
//! bi-directional vs one-directional extension, and the HHR duplicate-
//! region granularity. Each variant runs over the same corpus; the table
//! shows what each mechanism buys.

use mhd_bench::{print_table, run_engine, scaled_config, Cli, EngineKind};
use mhd_core::{HhrDupGranularity, HookIndex, MhdOptions};
use serde_json::json;

fn main() {
    let cli = Cli::parse();
    let corpus = cli.corpus();
    let ecs = 2048;

    let variants: [(&str, MhdOptions); 7] = [
        ("paper default", MhdOptions::default()),
        ("no EdgeHash", MhdOptions { edge_hash: false, ..Default::default() }),
        ("forward-only", MhdOptions { backward_extension: false, ..Default::default() }),
        ("backward-only", MhdOptions { forward_extension: false, ..Default::default() }),
        (
            "no extension",
            MhdOptions {
                backward_extension: false,
                forward_extension: false,
                ..Default::default()
            },
        ),
        (
            "per-chunk HHR dup",
            MhdOptions { hhr_dup: HhrDupGranularity::PerChunk, ..Default::default() },
        ),
        (
            "SI-MHD (sparse hook index)",
            MhdOptions { hook_index: HookIndex::SparseIndex, ..Default::default() },
        ),
    ];

    let mut rows = Vec::new();
    let mut js = Vec::new();
    for (name, opts) in variants {
        eprintln!("ablation: {name}");
        let mut config = scaled_config(ecs, cli.sd, corpus.total_bytes());
        config.mhd = opts;
        let r = run_engine(EngineKind::Mhd, &corpus, config);
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", r.metrics.data_only_der),
            format!("{:.3}", r.metrics.real_der),
            format!("{:.3e}", r.metrics.metadata_ratio),
            r.report.hhr_count.to_string(),
            r.report.stats.hhr_reloads().to_string(),
            r.report.dup_slices.to_string(),
        ]);
        js.push(json!({"variant": name, "options": opts, "metrics": r.metrics,
                       "hhr_count": r.report.hhr_count,
                       "hhr_reloads": r.report.stats.hhr_reloads(),
                       "dup_slices": r.report.dup_slices}));
    }
    print_table(
        "MHD ablations (ECS 2048)",
        &["variant", "data DER", "real DER", "MetaDataRatio", "HHR ops", "reloads", "L"],
        &rows,
    );

    cli.finish("ablation", &js);
}
