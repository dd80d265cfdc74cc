//! All engines over one corpus, side by side — a miniature of the
//! paper's §V comparison.

use mhd_core::metrics::{compute, DiskModel};
use mhd_core::{DedupReport, EngineConfig, EngineKind};
use mhd_examples::human_bytes;
use mhd_store::MemBackend;
use mhd_workload::{Corpus, CorpusSpec};

fn main() {
    let corpus = Corpus::generate(CorpusSpec { seed: 5, ..CorpusSpec::paper_like(32 << 20) });
    println!("corpus: {} streams, {}\n", corpus.snapshots.len(), human_bytes(corpus.total_bytes()));

    let mut config = EngineConfig::new(2048, 16);
    config.cache_manifests = 8;
    let disk = DiskModel::default();

    println!(
        "{:>16}  {:>9} {:>9} {:>11} {:>11} {:>8}",
        "algorithm", "data DER", "real DER", "metadata", "throughput", "accesses"
    );
    let reports: Vec<DedupReport> = EngineKind::ALL
        .iter()
        .map(|kind| {
            let mut engine = kind.build(MemBackend::new(), config).expect("config");
            for s in &corpus.snapshots {
                engine.process_snapshot(s).expect("dedup");
            }
            engine.finish().expect("finish")
        })
        .collect();

    for report in &reports {
        let m = compute(report, &disk);
        println!(
            "{:>16}  {:>9.3} {:>9.3} {:>10.4}% {:>11.4} {:>8}",
            report.algorithm,
            m.data_only_der,
            m.real_der,
            m.metadata_ratio * 100.0,
            m.throughput_ratio,
            report.stats.total_with_bloom(),
        );
    }

    let mhd = &reports[0];
    println!(
        "\nBF-MHD detected {} of duplicates in {} slices with only {} HHR byte reloads (bound 2L = {})",
        human_bytes(mhd.dup_bytes),
        mhd.dup_slices,
        mhd.stats.hhr_reloads(),
        2 * mhd.dup_slices,
    );
}
