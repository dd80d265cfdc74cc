//! Restore-side cost (extension experiment, not in the paper): the paper
//! measures write throughput only ("the deduplication throughput refers
//! to the write throughput", §V), but deduplication fragments files across
//! containers and the read path pays for it. This binary restores the
//! final day's backups under each algorithm and reports fragmentation —
//! recipe extents per file, distinct containers touched, and the disk
//! accesses the restore performed.

use mhd_bench::{print_table, scaled_config, Cli, EngineKind};
use mhd_core::restore;
use mhd_store::{MemBackend, Substrate};
use serde_json::json;

/// Restores every file of the last day and returns
/// (extents, containers, accesses, files).
fn restore_last_day(
    substrate: &mut Substrate<MemBackend>,
    corpus: &mhd_workload::Corpus,
) -> (u64, u64, u64, u64) {
    let machines = corpus.spec().machines;
    let last_day = &corpus.snapshots[corpus.snapshots.len() - machines..];
    let before = *substrate.stats();
    let mut extents = 0u64;
    let mut files = 0u64;
    let mut containers = std::collections::BTreeSet::new();
    for snapshot in last_day {
        for file in &snapshot.files {
            let fm = substrate.load_file_manifest(&file.path).expect("recipe");
            extents += fm.entry_count() as u64;
            for e in fm.extents() {
                containers.insert(e.container);
            }
            let restored = restore::restore_file(substrate, &file.path).expect("restore");
            assert_eq!(restored, file.data, "{}", file.path);
            files += 1;
        }
    }
    let accesses = substrate.stats().chunk_input - before.chunk_input;
    (extents, containers.len() as u64, accesses, files)
}

fn main() {
    let cli = Cli::parse();
    let corpus = cli.corpus();
    let config = scaled_config(4096, cli.sd, corpus.total_bytes());

    let mut rows = Vec::new();
    let mut js = Vec::new();
    for kind in EngineKind::ALL {
        eprintln!("restore_cost: {}", kind.label());
        let mut engine = kind.build(MemBackend::new(), config).expect("config");
        for s in &corpus.snapshots {
            engine.process_snapshot(s).expect("dedup");
        }
        engine.finish().expect("finish");
        let (extents, containers, accesses, files) =
            restore_last_day(engine.substrate_mut(), &corpus);
        rows.push(vec![
            kind.label().to_string(),
            format!("{:.2}", extents as f64 / files as f64),
            containers.to_string(),
            format!("{:.2}", accesses as f64 / files as f64),
        ]);
        js.push(json!({"engine": kind.label(), "files": files,
                       "extents_per_file": extents as f64 / files as f64,
                       "containers_touched": containers,
                       "accesses_per_file": accesses as f64 / files as f64}));
    }

    print_table(
        "Restore cost for the final day's backups (extension experiment)",
        &["algorithm", "extents/file", "containers touched", "reads/file"],
        &rows,
    );
    println!("\nlower is better everywhere; restore reads are one access per recipe extent");

    cli.finish("restore_cost", &js);
}
