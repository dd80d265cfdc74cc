//! Result files: the contract's result line for one run, `results.json`
//! for a whole suite of runs, and `--compare` between two such files.

use std::path::Path;
use std::process::{Command, Stdio};

use serde_json::{json, Value};

use crate::harness::{Result, OUT_DIR};
use crate::spec::{field, number, BenchSpec, MetricSpec};
use crate::stats::Summary;
use crate::workloads::{concurrent_clients, Tally, Workload, ECS, SD};
use crate::{procfs, Args};

/// The last line a run prints: `correct`, `attempted`, `failed`, `metrics`.
/// Values are written with every digit `f64` holds.
pub fn result_line(values: &[(&MetricSpec, f64)], tally: Tally) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(m, v)| format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    )
}

/// What one child run reported.
struct RunResult {
    attempted: u64,
    failed: u64,
    /// `(name, value)` in the order of the result line.
    metrics: Vec<(String, f64)>,
}

fn parse_result_line(line: &str) -> Result<RunResult> {
    let root: Value = serde_json::from_str(line)?;
    let count = |key| field(&root, key).and_then(number).ok_or(format!("result line lacks {key}"));
    let Some(Value::Object(metrics)) = field(&root, "metrics") else {
        return Err("result line lacks metrics".into());
    };
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            let value = field(m, "value").and_then(number).ok_or(format!("{name} has no value"))?;
            Ok((name.clone(), value))
        })
        .collect::<Result<_>>()?;
    Ok(RunResult {
        attempted: count("attempted")? as u64,
        failed: count("failed")? as u64,
        metrics,
    })
}

/// Runs this program again for one `(workload, seed, trace)` run — a fresh
/// process per run, as the acceptance procedure does it, so that peak RSS
/// is that run's own.
fn child_run(args: &Args, workload: Workload, seed: u64, trace: bool) -> Result<RunResult> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.arg("--mhd").arg(&args.mhd);
    cmd.args(["--workload", workload.name(), "--seed", &seed.to_string()]);
    cmd.args(["--bytes", &args.bytes.to_string(), "--trace", if trace { "1" } else { "0" }]);
    if let Some(seconds) = args.seconds {
        cmd.args(["--seconds", &seconds.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    // Exit code 1 means "ran, but operations failed": the line is there.
    if !matches!(out.status.code(), Some(0 | 1)) {
        return Err(
            format!("{} seed {seed}: run exited with {}", workload.name(), out.status).into()
        );
    }
    parse_result_line(last)
}

fn summary_json(unit: &str, values: &[f64]) -> Value {
    let s = Summary::of(values);
    json!({
        "unit": unit, "n": s.n, "median": s.median, "q1": s.q1, "q3": s.q3,
        "min": s.min, "max": s.max, "spread": s.spread(), "values": values.to_vec()
    })
}

fn rustc_version() -> String {
    Command::new("rustc").arg("-V").output().map_or_else(
        |_| "unknown".into(),
        |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
    )
}

/// Runs every workload `args.runs` times, each time with another seed
/// (and once traced under `--trace`), prints one row per metric and
/// writes `benchmark/out/results.json`. Returns whether nothing failed.
pub fn suite(spec: &BenchSpec, args: &Args) -> Result<bool> {
    // --smoke: everything once, traced too, as fast as it goes.
    let runs = if args.smoke { 1 } else { args.runs };
    let with_trace = args.trace || args.smoke;
    std::fs::create_dir_all(OUT_DIR)?;
    let mut workloads: Vec<(String, Value)> = Vec::new();
    let mut clean = true;
    for workload in Workload::ALL {
        let mut results = Vec::new();
        for i in 0..runs {
            let seed = args.seed + i as u64;
            eprintln!("== {} seed {seed} ({}/{runs})", workload.name(), i + 1);
            results.push(child_run(args, workload, seed, false)?);
        }
        let (attempted, failed) =
            results.iter().fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
        clean &= failed == 0;
        println!("{} — {runs} runs, {failed} of {attempted} operations failed", workload.name());
        let mut end_to_end: Vec<(String, Value)> = Vec::new();
        for metric in &spec.end_to_end {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _)| n == &metric.name).map(|(_, v)| *v))
                .collect();
            let s = Summary::of(&values);
            println!(
                "  {:<32}{:>14.6} {:<6} min {:<12.6} max {:<12.6} spread {:>5.2} % (bound {:.1} %) n={}",
                metric.name,
                s.median,
                metric.unit,
                s.min,
                s.max,
                s.spread() * 100.0,
                metric.bound * 100.0,
                s.n
            );
            end_to_end.push((metric.name.clone(), summary_json(&metric.unit, &values)));
        }
        let mut entry = vec![
            ("end_to_end".to_string(), Value::Object(end_to_end)),
            ("attempted".to_string(), json!(attempted)),
            ("failed".to_string(), json!(failed)),
            ("failed_share".to_string(), json!(failed as f64 / attempted.max(1) as f64)),
        ];
        if with_trace {
            eprintln!("== {} seed {} traced", workload.name(), args.seed);
            let traced = child_run(args, workload, args.seed, true)?;
            clean &= traced.failed == 0;
            let per_layer = spec.per_layer.iter().filter_map(|m| {
                let (_, v) = traced.metrics.iter().find(|(n, _)| n == &m.name)?;
                println!("  {:<32}{v:>14.6} {}", m.name, m.unit);
                Some((m.name.clone(), json!({ "value": *v, "unit": m.unit.clone() })))
            });
            entry.push(("per_layer".to_string(), Value::Object(per_layer.collect())));
        }
        workloads.push((workload.name().to_string(), Value::Object(entry)));
    }

    let document = json!({
        "claim": Value::Null,
        "config": json!({
            "seed": args.seed, "runs": runs, "smoke": args.smoke, "bytes": args.bytes,
            "seconds": args.run_seconds(spec),
            "ecs": ECS, "sd": SD, "chunker": "rabin", "durability": "rename", "io_config": "default",
            "nproc": procfs::nproc(),
            "concurrent_clients": concurrent_clients(),
            "fs_type": procfs::fs_type(Path::new(OUT_DIR)),
            "kernel": procfs::kernel_release(),
            "rustc": rustc_version()
        }),
        "workloads": Value::Object(workloads)
    });
    let path = Path::new(OUT_DIR).join("results.json");
    std::fs::write(&path, serde_json::to_string_pretty(&document)? + "\n")?;
    println!("wrote {}", path.display());
    Ok(clean)
}

/// One side of a comparison row.
struct Side {
    median: f64,
    spread: f64,
}

fn side(results: &Value, workload: &str, metric: &str) -> Option<Side> {
    let m = field(field(field(field(results, "workloads")?, workload)?, "end_to_end")?, metric)?;
    Some(Side { median: number(field(m, "median")?)?, spread: number(field(m, "spread")?)? })
}

/// The verdict on one `(workload, metric)` pair: `unresolved` when either
/// side's run-to-run spread is wider than the bound (the runs cannot tell
/// a change of that size from noise), `regressed` when B's median is worse
/// than A's by more than the bound, `ok` otherwise. `setup_s` is judged by
/// its medians alone, as the acceptance procedure judges it: a set-up is a
/// sixth of a second of page faults, and its spread says nothing else.
fn verdict(metric: &MetricSpec, a: &Side, b: &Side) -> &'static str {
    let worse_by = if metric.higher_is_better {
        (a.median - b.median) / a.median
    } else {
        (b.median - a.median) / a.median
    };
    if a.spread.max(b.spread) > metric.bound && metric.name != "setup_s" {
        "unresolved"
    } else if worse_by > metric.bound {
        "regressed"
    } else {
        "ok"
    }
}

/// `--compare A.json B.json`: one row per (workload, end-to-end metric)
/// with both medians, both spreads and the verdict. Returns whether every
/// row is `ok`.
pub fn compare(spec: &BenchSpec, a: &Path, b: &Path) -> Result<bool> {
    let load = |path: &Path| -> Result<Value> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Ok(serde_json::from_str(&text)?)
    };
    let (a, b) = (load(a)?, load(b)?);
    println!(
        "{:<18} {:<30} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "spread A", "spread B", "bound"
    );
    let mut all_ok = true;
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let (Some(sa), Some(sb)) =
                (side(&a, workload, &metric.name), side(&b, workload, &metric.name))
            else {
                return Err(
                    format!("{workload}/{} is missing from a result file", metric.name).into()
                );
            };
            let verdict = verdict(metric, &sa, &sb);
            all_ok &= verdict == "ok";
            println!(
                "{workload:<18} {:<30} {:>14.6} {:>14.6} {:>8.2}% {:>8.2}% {:>6.1}%  {verdict}",
                metric.name,
                sa.median,
                sb.median,
                sa.spread * 100.0,
                sb.spread * 100.0,
                metric.bound * 100.0
            );
        }
        let failed =
            |r: &Value| field(field(field(r, "workloads")?, workload)?, "failed").and_then(number);
        if failed(&a) != Some(0.0) || failed(&b) != Some(0.0) {
            println!(
                "{workload:<18} failed operations: A {:?}, B {:?}  regressed",
                failed(&a),
                failed(&b)
            );
            all_ok = false;
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> MetricSpec {
        MetricSpec { name: "m".into(), unit: "u".into(), higher_is_better: higher, bound }
    }

    #[test]
    fn result_line_round_trips_every_digit() {
        let m = metric(true, 0.1);
        let line = result_line(&[(&m, 1.0 / 3.0)], Tally { attempted: 5, failed: 1 });
        let parsed = parse_result_line(&line).unwrap();
        assert_eq!((parsed.attempted, parsed.failed), (5, 1));
        assert_eq!(parsed.metrics, vec![("m".to_string(), 1.0 / 3.0)]);
        assert!(line.starts_with("{\"correct\": false,"));
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let quiet = |median| Side { median, spread: 0.01 };
        // Higher is better: 100 -> 85 is a 15 % loss against a 10 % bound.
        assert_eq!(verdict(&metric(true, 0.10), &quiet(100.0), &quiet(85.0)), "regressed");
        assert_eq!(verdict(&metric(true, 0.10), &quiet(100.0), &quiet(95.0)), "ok");
        assert_eq!(verdict(&metric(true, 0.10), &quiet(100.0), &quiet(130.0)), "ok");
        // Lower is better: growth is the regression.
        assert_eq!(verdict(&metric(false, 0.10), &quiet(100.0), &quiet(115.0)), "regressed");
        assert_eq!(verdict(&metric(false, 0.10), &quiet(100.0), &quiet(70.0)), "ok");
        // Spread wider than the bound on either side: cannot tell.
        let noisy = Side { median: 100.0, spread: 0.2 };
        assert_eq!(verdict(&metric(true, 0.10), &noisy, &quiet(100.0)), "unresolved");
        assert_eq!(verdict(&metric(true, 0.10), &quiet(100.0), &noisy), "unresolved");
        // ... except for set-up time, which only its medians decide.
        let setup = MetricSpec { name: "setup_s".into(), ..metric(false, 0.10) };
        assert_eq!(verdict(&setup, &noisy, &quiet(100.0)), "ok");
        assert_eq!(verdict(&setup, &noisy, &quiet(115.0)), "regressed");
    }
}
