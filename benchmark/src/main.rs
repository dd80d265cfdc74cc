//! `mhd-benchmark` — the repo benchmark. `benchmark/run.sh` builds this and
//! the shipped `mhd` binary, then runs it from the checkout root:
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! run.sh [--seed N] [--runs R] [--seconds S] [--bytes B] [--trace] [--smoke]
//!                                                        every workload, R seeds each -> out/results.json
//! run.sh --compare A.json B.json                         two result files against the bounds
//! ```
//!
//! See `benchmark/README.md` for what the workloads and metrics mean.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod harness;
mod layers;
mod procfs;
mod report;
mod run;
mod spec;
mod stats;
mod timed;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Env, Result, WorkDir};
use spec::{BenchSpec, MetricSpec};
use workloads::Workload;

/// Command-line options.
pub struct Args {
    mhd: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    runs: usize,
    bytes: u64,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

impl Args {
    /// Seconds one run measures for: `--seconds`, else 1 for `--smoke`,
    /// else what `BENCHMARK.json` says.
    fn run_seconds(&self, spec: &BenchSpec) -> f64 {
        self.seconds.unwrap_or(if self.smoke { 1.0 } else { spec.run_seconds as f64 })
    }
}

/// Parses `768M`, `2G`, `4096`.
fn parse_bytes(text: &str) -> Option<u64> {
    let (digits, shift) = match text.as_bytes().last()? {
        b'K' | b'k' => (&text[..text.len() - 1], 10),
        b'M' | b'm' => (&text[..text.len() - 1], 20),
        b'G' | b'g' => (&text[..text.len() - 1], 30),
        _ => (text, 0),
    };
    digits.parse::<u64>().ok()?.checked_shl(shift)
}

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args> {
    let mut args = Args {
        mhd: PathBuf::from("target/release/mhd"),
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        runs: 10,
        bytes: run::DEFAULT_BYTES,
        smoke: false,
        compare: None,
    };
    let mut raw = raw.peekable();
    while let Some(flag) = raw.next() {
        let mut value = || raw.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--mhd" => args.mhd = PathBuf::from(value()?),
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse()?,
            "--seconds" => args.seconds = Some(value()?.parse()?),
            "--runs" => args.runs = value()?.parse()?,
            "--bytes" => {
                let text = value()?;
                args.bytes = parse_bytes(&text).ok_or(format!("bad --bytes {text:?}"))?;
            }
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            // `--trace 0|1` for the driver, bare `--trace` by hand.
            "--trace" => {
                args.trace = raw.next_if(|v| v == "0" || v == "1").is_none_or(|v| v == "1");
            }
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    if args.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    Ok(args)
}

/// One run of one workload; prints the metrics and, last, the result line.
fn single_run(args: &Args, spec: &BenchSpec, workload: Workload) -> Result<bool> {
    let seconds = args.run_seconds(spec);
    let corpus = run::corpus_spec(args.bytes, args.smoke);
    let env = Env { mhd: args.mhd.clone(), work: WorkDir::create()? };
    let (listed, outcome) = if args.trace {
        (&spec.per_layer, run::per_layer(&env, workload, corpus, args.seed, seconds)?)
    } else {
        (&spec.end_to_end, run::end_to_end(&env, workload, corpus, args.seed, seconds)?)
    };
    drop(env);

    if let Some(stray) = outcome.metrics.keys().find(|k| !listed.iter().any(|m| &m.name == *k)) {
        return Err(
            format!("harness produced {stray:?}, which BENCHMARK.json does not list").into()
        );
    }
    let mut values: Vec<(&MetricSpec, f64)> = Vec::new();
    for metric in listed {
        let value = match outcome.metrics.get(&metric.name) {
            Some(m) => {
                let s = &m.samples;
                println!(
                    "{:<34}{:>16.6} {:<6} (min {:.6}, max {:.6}, n={})",
                    metric.name, m.value, metric.unit, s.min, s.max, s.n
                );
                m.value
            }
            // A per-layer metric this workload does not exercise: the
            // layer did no work.
            None if args.trace => 0.0,
            None => return Err(format!("no value for end-to-end metric {}", metric.name).into()),
        };
        if !value.is_finite() || (!args.trace && value == 0.0) {
            return Err(format!("{} = {value} is not a usable measurement", metric.name).into());
        }
        values.push((metric, value));
    }
    let tally = outcome.tally;
    println!(
        "{:<34}{:>16.6}        ({} of {} operations failed)",
        "failed_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    println!("{}", report::result_line(&values, tally));
    Ok(tally.failed == 0)
}

fn real_main() -> Result<bool> {
    let args = parse_args(std::env::args().skip(1))?;
    let spec = BenchSpec::load()?;
    if let Some((a, b)) = &args.compare {
        return report::compare(&spec, a, b);
    }
    match args.workload {
        Some(workload) => single_run(&args, &spec, workload),
        None => report::suite(&spec, &args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mhd-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args> {
        parse_args(line.split_ascii_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse("--workload cli-backup --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload, Some(Workload::CliBackup));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), false));
        assert!(parse("--workload mem-dedup --trace 1").unwrap().trace);
        assert!(parse("--trace --smoke").unwrap().trace);
        assert!(parse("--trace").unwrap().trace);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate").is_err());
    }

    #[test]
    fn parses_byte_sizes() {
        assert_eq!(parse_bytes("768M"), Some(768 << 20));
        assert_eq!(parse_bytes("2G"), Some(2 << 30));
        assert_eq!(parse_bytes("4096"), Some(4096));
        assert_eq!(parse_bytes("M"), None);
        assert_eq!(parse_bytes(""), None);
    }
}
