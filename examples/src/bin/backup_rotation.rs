//! A backup service processing a two-week daily rotation, printing the
//! cumulative savings after every day — the way an operator would watch
//! a dedup appliance fill up.

use mhd_core::{Deduplicator, EngineConfig, MhdEngine};
use mhd_examples::human_bytes;
use mhd_store::MemBackend;
use mhd_workload::{Corpus, CorpusSpec};

fn main() {
    let spec = CorpusSpec { seed: 11, ..CorpusSpec::paper_like(32 << 20) };
    let days = spec.snapshots;
    let machines = spec.machines;
    let corpus = Corpus::generate(spec);
    println!("rotation: {machines} machines x {days} days, {}", human_bytes(corpus.total_bytes()));

    let mut engine =
        MhdEngine::new(MemBackend::new(), EngineConfig::new(2048, 16)).expect("valid config");

    println!("\n{:>4}  {:>12}  {:>12}  {:>9}  {:>7}", "day", "ingested", "stored", "saved", "HHR");
    for day in 0..days {
        for stream in &corpus.snapshots[day * machines..(day + 1) * machines] {
            engine.process_snapshot(stream).expect("dedup");
        }

        let ledger = engine.substrate().ledger();
        let ingested: u64 =
            corpus.snapshots[..(day + 1) * machines].iter().map(|s| s.total_bytes()).sum();
        let stored = ledger.total_output_bytes();
        println!(
            "{:>4}  {:>12}  {:>12}  {:>8.1}%  {:>7}",
            day,
            human_bytes(ingested),
            human_bytes(stored),
            (1.0 - stored as f64 / ingested as f64) * 100.0,
            "-",
        );
    }

    let report = engine.finish().expect("finish");
    println!(
        "\nfinal: real DER {:.2}, {} duplicate slices, {} HHR re-chunks, {} byte reloads",
        report.input_bytes as f64 / report.ledger.total_output_bytes() as f64,
        report.dup_slices,
        report.hhr_count,
        report.stats.hhr_reloads(),
    );
}
