//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§V).
//!
//! One binary per exhibit (see DESIGN.md §4):
//!
//! | binary | paper exhibit |
//! |---|---|
//! | `table1` | Table I — metadata size: closed-form model vs measured |
//! | `table2` | Table II — disk accesses: closed-form model vs measured |
//! | `fig7` | Fig. 7(a–d) — metadata vs ECS for the four algorithms |
//! | `fig8` | Fig. 8(a–d) — DER vs MetaDataRatio / ThroughputRatio |
//! | `fig9` | Fig. 9(a–b) — BF-MHD at different SD values |
//! | `fig10` | Fig. 10(a–b) — DAD and HHR cost statistics |
//! | `table3` | Table III — RAM for the sparse index |
//! | `table4` | Table IV — Hook+Manifest bytes in BF-MHD |
//! | `table5` | Table V — Manifest-load disk accesses in BF-MHD |
//! | `ablation` | DESIGN.md §5 — MHD design-choice ablations |
//! | `dataset` | §V-D — engine-independent dataset characteristics |
//! | `restore_cost` | extension — restore-side fragmentation per algorithm |
//! | `chunker_bench` | extension — dedup quality per `--chunker` |
//!
//! Exhibits report counts and ratios. No binary here reads a clock: a
//! speed is a row of the repo benchmark (`benchmark/run.sh`).
//!
//! Every binary accepts `--bytes N` (corpus size, default 256 MiB),
//! `--seed N`, `--sd N` (the scaled sample distance, default 16) and
//! `--out DIR` (JSON results, default `results/`). The paper runs SD ∈
//! {250, 500, 1000} against 1.0 TB; this harness defaults to SD ∈
//! {4, 8, 16} against hundreds of MiB so that the derived structures keep
//! the paper's proportions — `ECS × SD × 5` segments stay well below one
//! backup stream, and SHM still merges up to SD−1 hashes — see
//! EXPERIMENTS.md for the scaling argument.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use mhd_core::metrics::{self, DiskModel, Metrics};
pub use mhd_core::EngineKind;
use mhd_core::{DedupReport, EngineConfig, MhdOptions};
use mhd_store::MemBackend;
use mhd_workload::{Corpus, CorpusSpec};
use serde::Serialize;

/// Common command-line options for the experiment binaries.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Corpus size in bytes.
    pub bytes: u64,
    /// Corpus seed.
    pub seed: u64,
    /// Scaled sample distance.
    pub sd: usize,
    /// Output directory for JSON results.
    pub out: PathBuf,
    /// Also dump the `mhd-obs` internal-metrics snapshot (`--internals`).
    pub internals: bool,
    /// Record a structured trace and write it here as Chrome
    /// `trace_event` JSON, plus raw JSONL next to it (`--trace PATH`).
    pub trace: Option<PathBuf>,
}

impl Cli {
    /// Parses `--bytes`, `--seed`, `--sd`, `--out` from `std::env::args`.
    /// Unknown flags abort with usage help.
    pub fn parse() -> Cli {
        let mut cli = Cli {
            bytes: 256 << 20,
            seed: 42,
            sd: 16,
            out: PathBuf::from("results"),
            internals: false,
            trace: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next().unwrap_or_else(|| {
                    eprintln!("missing value for {flag}");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--bytes" => cli.bytes = parse_size(&value()),
                "--seed" => cli.seed = value().parse().expect("--seed takes an integer"),
                "--sd" => cli.sd = value().parse().expect("--sd takes an integer"),
                "--out" => cli.out = PathBuf::from(value()),
                "--internals" => cli.internals = true,
                "--trace" => cli.trace = Some(PathBuf::from(value())),
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--bytes N[M|G]] [--seed N] [--sd N] [--out DIR] [--internals] [--trace PATH]"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}; see --help");
                    std::process::exit(2);
                }
            }
        }
        if cli.trace.is_some() {
            mhd_obs::trace_start(mhd_obs::DEFAULT_TRACE_CAPACITY);
        }
        cli
    }

    /// Generates the corpus for these options.
    pub fn corpus(&self) -> Corpus {
        let spec = CorpusSpec { seed: self.seed, ..CorpusSpec::paper_like(self.bytes) };
        eprintln!(
            "generating corpus: {} machines x {} days, ~{} MiB ...",
            spec.machines,
            spec.snapshots,
            spec.expected_total_bytes() >> 20
        );
        let corpus = Corpus::generate(spec);
        eprintln!(
            "corpus ready: {} streams, {} bytes, ground-truth ideal DER {:.2}, expected DAD {:.0} KiB",
            corpus.snapshots.len(),
            corpus.total_bytes(),
            corpus.stats.ideal_der(),
            corpus.stats.expected_dad() / 1024.0
        );
        corpus
    }

    /// Writes a serialisable result as JSON under the output directory.
    /// I/O failures (full disk, bad permissions) report the path involved
    /// and exit non-zero instead of panicking.
    fn write_json<T: Serialize>(&self, name: &str, value: &T) {
        if let Err(e) = std::fs::create_dir_all(&self.out) {
            eprintln!("error: create results dir {}: {e}", self.out.display());
            std::process::exit(1);
        }
        let path = self.out.join(name);
        let json = serde_json::to_string_pretty(value).expect("results are serialisable");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error: write results to {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }

    /// Ends an exhibit: writes its results as `<exhibit>.json`; with
    /// `--internals`, the process-wide `mhd-obs` snapshot — per-stage
    /// timers, cache hit/miss counters, Bloom probe stats, MHD
    /// hook-hit/BME/HHR event counts — as `<exhibit>_internals.json`
    /// beside it; and the trace, if one was recorded.
    pub fn finish<T: Serialize>(&self, exhibit: &str, results: &T) {
        self.write_json(&format!("{exhibit}.json"), results);
        if self.internals {
            self.write_json(&format!("{exhibit}_internals.json"), &mhd_obs::snapshot());
        }
        self.write_trace();
    }

    /// With `--trace PATH`, drains the recorded trace and writes it as
    /// Chrome `trace_event` JSON at `PATH` plus raw JSONL at
    /// `PATH.jsonl`. A no-op without the flag.
    fn write_trace(&self) {
        let Some(path) = &self.trace else { return };
        let records = mhd_obs::trace_drain();
        let fail = |what: &str, at: &Path, e: std::io::Error| -> ! {
            eprintln!("error: {what} {}: {e}", at.display());
            std::process::exit(1);
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .unwrap_or_else(|e| fail("create trace dir", parent, e));
            }
        }
        std::fs::write(path, mhd_obs::trace_to_chrome(&records))
            .unwrap_or_else(|e| fail("write chrome trace to", path, e));
        let jsonl = path.with_extension("jsonl");
        std::fs::write(&jsonl, mhd_obs::trace_to_jsonl(&records))
            .unwrap_or_else(|e| fail("write jsonl trace to", &jsonl, e));
        eprintln!(
            "wrote {} trace events to {} (+ {})",
            records.len(),
            path.display(),
            jsonl.display()
        );
    }
}

/// `"64M"`, `"1G"`, `"1048576"` → bytes.
fn parse_size(s: &str) -> u64 {
    let (num, mult) = match s.as_bytes().last() {
        Some(b'K' | b'k') => (&s[..s.len() - 1], 1u64 << 10),
        Some(b'M' | b'm') => (&s[..s.len() - 1], 1u64 << 20),
        Some(b'G' | b'g') => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().expect("--bytes takes e.g. 64M") * mult
}

/// Engine configuration scaled to the corpus, mirroring the paper's setup:
/// the Bloom filter scales with the input (100 MB : 1 TB in the paper) and
/// the Manifest cache stays small relative to the number of manifests.
pub fn scaled_config(ecs: usize, sd: usize, corpus_bytes: u64) -> EngineConfig {
    EngineConfig {
        ecs,
        sd,
        bloom_bytes: ((corpus_bytes / 1024) as usize).max(64 << 10),
        // Small relative to the number of manifests (the paper's 1 TB run
        // cannot keep a day's manifests resident; neither may we).
        cache_manifests: 8,
        chunker: mhd_chunking::ChunkerKind::Rabin,
        mhd: MhdOptions::default(),
    }
}

/// One experiment run: report + derived metrics.
#[derive(Debug, Clone, Serialize)]
pub struct RunResult {
    /// Engine label.
    pub engine: String,
    /// Expected chunk size used.
    pub ecs: usize,
    /// Sample distance used.
    pub sd: usize,
    /// The raw run report.
    pub report: DedupReport,
    /// Derived §V metrics.
    pub metrics: Metrics,
}

/// Runs one engine over the corpus and computes the §V metrics.
///
/// The whole run executes under an `engine=<label>` attribution scope and
/// trace stage, so multi-engine exhibits yield per-engine sub-snapshots
/// (see `Snapshot::scopes`) and per-engine trace lanes.
pub fn run_engine(kind: EngineKind, corpus: &Corpus, config: EngineConfig) -> RunResult {
    let _scope = mhd_obs::scope!("engine={}", kind.label());
    let _stage = mhd_obs::stage(format!("engine={}", kind.label()));
    let mut engine = kind.build(MemBackend::new(), config).expect("config");
    for snapshot in &corpus.snapshots {
        engine.process_snapshot(snapshot).expect("in-memory dedup cannot fail");
    }
    let report = engine.finish().expect("finish");
    let metrics = metrics::compute(&report, &DiskModel::default());
    RunResult { engine: kind.label().to_string(), ecs: config.ecs, sd: config.sd, report, metrics }
}

/// The ECS sweep of the paper's figures.
pub const ECS_SWEEP: [usize; 5] = [512, 1024, 2048, 4096, 8192];

/// Prints a fixed-width table: header row then formatted rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title}");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(header.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_sizes() {
        assert_eq!(parse_size("1024"), 1024);
        assert_eq!(parse_size("64M"), 64 << 20);
        assert_eq!(parse_size("2G"), 2 << 30);
        assert_eq!(parse_size("16k"), 16 << 10);
    }

    #[test]
    fn scaled_config_is_valid() {
        for ecs in ECS_SWEEP {
            scaled_config(ecs, 64, 64 << 20).validate().unwrap();
        }
    }

    #[test]
    fn run_engine_smoke() {
        let corpus = Corpus::generate(CorpusSpec::tiny(99));
        for kind in EngineKind::TABLE_SET {
            let r = run_engine(kind, &corpus, scaled_config(512, 8, corpus.total_bytes()));
            assert_eq!(r.report.input_bytes, corpus.total_bytes(), "{kind:?}");
            assert!(r.metrics.data_only_der >= 1.0, "{kind:?}");
        }
    }
}
