//! Fig. 10 — dataset characteristics and HHR cost:
//! (a) DAD detected by BF-MHD vs ECS, (b) the extra disk accesses caused
//! by HHR vs the number of detected duplicate slices.
//!
//! The paper's sweep includes ECS = 768; the Rabin cut-point mask requires
//! a power of two, so that point is omitted (noted in EXPERIMENTS.md).

use mhd_bench::{print_table, run_engine, scaled_config, Cli, EngineKind, RunResult, ECS_SWEEP};

fn main() {
    let cli = Cli::parse();
    let corpus = cli.corpus();

    let mut results: Vec<RunResult> = Vec::new();
    for ecs in ECS_SWEEP {
        eprintln!("fig10: BF-MHD @ ECS {ecs}");
        results.push(run_engine(
            EngineKind::Mhd,
            &corpus,
            scaled_config(ecs, cli.sd, corpus.total_bytes()),
        ));
    }

    let rows_a: Vec<Vec<String>> = results
        .iter()
        .map(|r| vec![r.ecs.to_string(), format!("{:.1}", r.metrics.dad / 1024.0)])
        .collect();
    print_table(
        "Fig 10(a): DAD (KiB) detected by BF-MHD vs ECS",
        &["ECS (B)", "DAD (KiB)"],
        &rows_a,
    );

    let rows_b: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.ecs.to_string(),
                r.report.stats.hhr_reloads().to_string(),
                r.report.dup_slices.to_string(),
                format!(
                    "{:.3}",
                    r.report.stats.hhr_reloads() as f64 / r.report.dup_slices.max(1) as f64
                ),
            ]
        })
        .collect();
    print_table(
        "Fig 10(b): HHR extra disk accesses vs number of duplicate slices",
        &["ECS (B)", "HHR cost (reloads)", "dup slices L", "cost/L"],
        &rows_b,
    );

    // Paper's observation: actual HHR cost is far below the 3L worst case
    // (and reloads specifically below 2L).
    for r in &results {
        assert!(
            r.report.stats.hhr_reloads() <= 2 * r.report.dup_slices,
            "HHR reloads exceeded the paper's 2L bound at ECS {}",
            r.ecs
        );
    }
    println!("\nall points satisfy the paper's bound: HHR reloads <= 2L");

    cli.finish("fig10", &results);
}
