//! Command-line entry point of the model checker.
//!
//! ```text
//! mhd-lint [--model NAME] [--max-states N]
//!          [--mutant flush-order|ring-prune|gc-protect|splice-order|
//!                    publish-epoch|intent-retire|compact-sweep]
//! ```
//!
//! Exit codes: `0` clean, `1` any finding (a model-checker violation or a
//! truncated exploration), `2` usage error.
//!
//! It checks the shipped-model suite (flush-order, ring-prune,
//! gc-protect, publish, intent, compact-gc) one model after another.
//! `--model NAME` restricts the suite to one model.
//!
//! `--mutant` inverts the contract: it seeds a historical bug into the
//! named model and exits `0` only if the checker *catches* it — CI runs
//! every mutant so the checker can never silently degrade into a rubber
//! stamp.

#![forbid(unsafe_code)]

use std::io::Write;
use std::process::ExitCode;

use mhd_lint::mck::{check, CheckResult};
use mhd_lint::models::{
    CompactGcModel, FlushModel, GcProtectModel, IntentModel, PublishModel, RingModel,
};

struct Options {
    model: Option<String>,
    max_states: usize,
    mutant: Option<String>,
}

/// `println!` that survives a closed stdout (`mhd-lint | head` must not
/// panic on EPIPE — the exit code is the contract, the text is advisory).
macro_rules! out {
    ($($arg:tt)*) => {
        let _ = writeln!(std::io::stdout(), $($arg)*);
    };
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: mhd-lint [--model NAME] [--max-states N] \
         [--mutant flush-order|ring-prune|gc-protect|splice-order|publish-epoch|\
         intent-retire|compact-sweep]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut opts = Options { model: None, max_states: 5_000_000, mutant: None };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().ok_or_else(|| {
                eprintln!("mhd-lint: {name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--model" => opts.model = Some(value("--model")?),
            "--max-states" => {
                opts.max_states = value("--max-states")?.parse().map_err(|_| {
                    eprintln!("mhd-lint: --max-states needs an integer");
                    usage()
                })?
            }
            "--mutant" => opts.mutant = Some(value("--mutant")?),
            _ => {
                eprintln!("mhd-lint: unknown flag {arg}");
                return Err(usage());
            }
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };

    if let Some(mutant) = &opts.mutant {
        return run_mutant(mutant, opts.max_states);
    }

    let mck_results = match shipped_suite(opts.model.as_deref(), opts.max_states) {
        Ok(results) => results,
        Err(code) => return code,
    };
    let mut findings = Vec::new();
    for (name, result) in &mck_results {
        let message = if let Some(v) = &result.violation {
            format!("{} [schedule {:?}]", v.message, v.schedule)
        } else if result.truncated {
            // An incomplete exploration proves nothing: it fails the run.
            format!(
                "exploration truncated at {} states with {} frontier state(s) \
                 unexplored (deepest path: {} steps {:?}); raise --max-states",
                result.states,
                result.frontier,
                result.deepest_path.len(),
                result.deepest_path
            )
        } else {
            continue;
        };
        findings.push(format!("model:{name}: {message}"));
    }

    for finding in &findings {
        out!("{finding}");
    }
    for (name, result) in &mck_results {
        out!(
            "model {name}: {} states explored{}",
            result.states,
            if result.passed() {
                ", no violations".to_string()
            } else if result.truncated {
                format!(", TRUNCATED ({} frontier state(s) abandoned)", result.frontier)
            } else {
                String::new()
            }
        );
    }
    out!("mhd-lint: {} finding(s)", findings.len());
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Checks each shipped model in turn; `only` restricts the suite to one
/// model by name.
fn shipped_suite(
    only: Option<&str>,
    max_states: usize,
) -> Result<Vec<(&'static str, CheckResult)>, ExitCode> {
    type Runner = fn(usize) -> CheckResult;
    let models: [(&'static str, Runner); 6] = [
        ("flush-order", |n| check(&FlushModel::shipped(), n)),
        ("ring-prune", |n| check(&RingModel::shipped(), n)),
        ("gc-protect", |n| check(&GcProtectModel::shipped(), n)),
        ("publish", |n| check(&PublishModel::shipped(), n)),
        ("intent", |n| check(&IntentModel::shipped(), n)),
        ("compact-gc", |n| check(&CompactGcModel::shipped(), n)),
    ];
    if let Some(name) = only {
        if !models.iter().any(|(n, _)| *n == name) {
            let known: Vec<&str> = models.iter().map(|(n, _)| *n).collect();
            eprintln!("mhd-lint: unknown model {name:?} (known: {})", known.join(", "));
            return Err(ExitCode::from(2));
        }
    }
    Ok(models
        .into_iter()
        .filter(|(n, _)| only.is_none_or(|o| o == *n))
        .map(|(name, run)| (name, run(max_states)))
        .collect())
}

/// Runs a seeded-bug model and succeeds only when the checker catches it.
fn run_mutant(name: &str, max_states: usize) -> ExitCode {
    let result = match name {
        "flush-order" => check(&FlushModel::mutant_flush_order(), max_states),
        "ring-prune" => check(&RingModel::mutant_ring_prune(), max_states),
        "gc-protect" => check(&GcProtectModel::mutant_gc_protect(), max_states),
        "splice-order" => check(&GcProtectModel::mutant_splice_order(), max_states),
        "publish-epoch" => check(&PublishModel::mutant_publish_epoch(), max_states),
        "intent-retire" => check(&IntentModel::mutant_intent_retire(), max_states),
        "compact-sweep" => check(&CompactGcModel::mutant_compact_sweep(), max_states),
        _ => {
            eprintln!(
                "mhd-lint: unknown mutant {name:?} (flush-order, ring-prune, gc-protect, \
                 splice-order, publish-epoch, intent-retire, compact-sweep)"
            );
            return ExitCode::from(2);
        }
    };
    match result.violation {
        Some(v) => {
            out!(
                "mutant {name}: caught as intended after {} states\n  {}\n  schedule: {:?}",
                result.states,
                v.message,
                v.schedule
            );
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "mutant {name}: NOT caught ({} states, truncated: {}) — \
                 the model checker has lost its teeth",
                result.states, result.truncated
            );
            ExitCode::from(1)
        }
    }
}
