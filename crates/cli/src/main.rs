//! `mhd` — deduplicate real directories with Metadata Harnessing
//! Deduplication into a durable on-disk store.
//!
//! `mhd help` prints every verb and flag (the text lives in `usage()`).
//!
//! Each `backup` run is one backup stream (like one of the paper's daily
//! disk images); repeated runs of the same directory deduplicate against
//! everything stored before — the session state (Bloom filter, counters,
//! manifest sizes) persists next to the store and is reloaded on every
//! invocation.
//!
//! `serve` keeps one store open for many concurrent clients: each
//! `client backup` is an isolated tenant session against the shared
//! deduplicated store (see the `mhd-daemon` crate and OPERATIONS.md).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod daemon_cmd;
mod session;

use session::Session;

fn usage() -> ! {
    eprintln!(
        "usage:\n  mhd backup  <dir>  --store <store> [--label NAME] [--ecs N] [--sd N]\n                     [--chunker rabin|fixed|fastcdc]\n                     [--io-threads N] [--durability none|rename|fsync] [--trace]\n  mhd restore <name> --store <store> -o <path>\n  mhd ls             --store <store>\n  mhd stats          --store <store> [--internals [--pretty]]\n  mhd trace          --store <store> [--format chrome|jsonl] [-o <path>]\n  mhd fsck           --store <store> [--deep]   (crash recovery + integrity walk; alias: verify)\n  mhd rm <prefix>    --store <store>   (delete recipes, then gc)\n  mhd gc             --store <store>\n  mhd compact        --store <store> [--threshold 0.7]\n  mhd serve          --store <store> --socket <path> [--ecs N] [--sd N]\n                     [--chunker rabin|fixed|fastcdc]\n                     [--io-threads N] [--durability none|rename|fsync]\n  mhd client backup <dir>   --socket <path> --tenant T [--label NAME]\n  mhd client restore <name> --socket <path> --tenant T -o <path>\n  mhd client ls             --socket <path> --tenant T\n  mhd client gc|fsck|stats|ping|shutdown   --socket <path>"
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    let result = match command.as_str() {
        "backup" => cmd_backup(&args[1..]),
        "restore" => cmd_restore(&args[1..]),
        "ls" => cmd_ls(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "fsck" | "verify" => cmd_fsck(&args[1..]),
        "rm" => cmd_rm(&args[1..]),
        "gc" => cmd_gc(&args[1..]),
        "compact" => cmd_compact(&args[1..]),
        "serve" => daemon_cmd::cmd_serve(&args[1..]),
        "client" => daemon_cmd::cmd_client(&args[1..]),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown command {other:?}");
            usage()
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mhd: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn store_path(args: &[String]) -> Result<PathBuf, Box<dyn std::error::Error>> {
    flag_value(args, "--store").map(PathBuf::from).ok_or_else(|| "--store is required".into())
}

/// Builds the batched-backend tuning from `--io-threads` / `--durability`.
fn io_config(args: &[String]) -> Result<mhd_store::IoConfig, Box<dyn std::error::Error>> {
    let mut io = mhd_store::IoConfig::default();
    if let Some(threads) = flag_value(args, "--io-threads") {
        io.threads = threads.parse()?;
    }
    if let Some(level) = flag_value(args, "--durability") {
        io.durability = mhd_store::Durability::parse(&level)
            .ok_or_else(|| format!("unknown durability level {level:?} (none|rename|fsync)"))?;
    }
    Ok(io)
}

fn cmd_backup(args: &[String]) -> CliResult {
    let Some(dir) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err("backup needs a source directory".into());
    };
    let store = store_path(args)?;
    let ecs = flag_value(args, "--ecs").map(|v| v.parse()).transpose()?.unwrap_or(4096);
    let sd = flag_value(args, "--sd").map(|v| v.parse()).transpose()?.unwrap_or(16);
    let chunker = flag_value(args, "--chunker")
        .map(|v| v.parse::<mhd_chunking::ChunkerKind>())
        .transpose()
        .map_err(|e| e.to_string())?
        .unwrap_or_default();
    let label = flag_value(args, "--label").unwrap_or_else(|| {
        // Default label: one per invocation, numbered from existing state.
        String::from("snapshot")
    });

    if args.iter().any(|a| a == "--trace") {
        mhd_obs::trace_start(mhd_obs::DEFAULT_TRACE_CAPACITY);
    }

    let mut session = Session::open_with(&store, ecs, sd, chunker, io_config(args)?)?;
    let stream = format!("{label}-{}", session.next_stream_index());
    let snapshot = session::snapshot_from_dir(Path::new(dir), &stream)?;
    let files = snapshot.files.len();
    let bytes: u64 = snapshot.files.iter().map(|f| f.data.len() as u64).sum();

    let before = session.ledger_output_bytes();
    {
        let _scope = mhd_obs::scope!("cmd=backup");
        let _stage = mhd_obs::stage("backup");
        session.backup(&stream, &snapshot)?;
    }
    let after = session.ledger_output_bytes();
    session.close()?;

    println!(
        "backed up {files} files ({bytes} B) as {stream}: store grew by {} B ({:.1}% of input)",
        after - before,
        (after - before) as f64 / bytes.max(1) as f64 * 100.0
    );
    Ok(())
}

fn cmd_restore(args: &[String]) -> CliResult {
    let Some(name) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err("restore needs a file-manifest name (see `mhd ls`)".into());
    };
    let store = store_path(args)?;
    let out = flag_value(args, "-o").or_else(|| flag_value(args, "--output"));
    let Some(out) = out else { return Err("-o <path> is required".into()) };

    let data = session::restore(&store, name)?;
    if let Some(parent) = Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&out, &data)?;
    println!("restored {name} -> {out} ({} B)", data.len());
    Ok(())
}

fn cmd_ls(args: &[String]) -> CliResult {
    let store = store_path(args)?;
    for name in session::list_files(&store)? {
        println!("{name}");
    }
    Ok(())
}

/// `mhd fsck` (alias `verify`): crash recovery plus the integrity walk.
/// Opening the session recovers the store exactly as the next `mhd backup`
/// or `mhd serve` would (torn tmp files, write-ahead intents, and every
/// object a killed writer left above the commit watermark); this command
/// reports what that found and undid, then verifies every structural
/// invariant.
fn cmd_fsck(args: &[String]) -> CliResult {
    let store = store_path(args)?;
    let deep = args.iter().any(|a| a == "--deep");
    let mut session = Session::open_existing(&store)?;
    if session.recovery().is_clean() {
        println!("recovery: store was clean (no interrupted writes)");
    } else {
        println!("recovery: {}", session.recovery());
    }
    let mut report = mhd_core::fsck::check_store(session.substrate());
    println!(
        "checked {} manifests ({} entries), {} hooks, {} file recipes",
        report.manifests, report.entries, report.hooks, report.file_manifests
    );
    if deep {
        let scrub = mhd_core::fsck::scrub(session.substrate());
        println!(
            "re-hashed {} manifest entries over {} containers ({} bytes)",
            scrub.entries, scrub.containers, scrub.bytes
        );
        report.problems.extend(scrub.problems);
    }
    if report.is_healthy() {
        println!("store is consistent");
        Ok(())
    } else {
        for p in &report.problems {
            eprintln!("PROBLEM: {p}");
        }
        Err(format!("{} integrity problems found", report.problems.len()).into())
    }
}

fn cmd_rm(args: &[String]) -> CliResult {
    let Some(prefix) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err("rm needs a recipe-name prefix (see `mhd ls`)".into());
    };
    let store = store_path(args)?;
    let mut session = Session::open_existing(&store)?;
    let report = mhd_core::gc::delete_stream(session.substrate(), prefix)?;
    session.close()?;
    println!(
        "deleted {} recipes; reclaimed {} containers ({} B), {} manifests, {} hooks; {} containers live",
        report.recipes_deleted,
        report.containers_deleted,
        report.data_bytes_freed,
        report.manifests_deleted,
        report.hooks_deleted,
        report.containers_live,
    );
    Ok(())
}

fn cmd_gc(args: &[String]) -> CliResult {
    let store = store_path(args)?;
    let mut session = Session::open_existing(&store)?;
    let report = mhd_core::gc::collect(session.substrate())?;
    session.close()?;
    println!(
        "reclaimed {} containers ({} B), {} manifests, {} hooks; {} containers live",
        report.containers_deleted,
        report.data_bytes_freed,
        report.manifests_deleted,
        report.hooks_deleted,
        report.containers_live,
    );
    Ok(())
}

fn cmd_compact(args: &[String]) -> CliResult {
    let store = store_path(args)?;
    let threshold: f64 =
        flag_value(args, "--threshold").map(|v| v.parse()).transpose()?.unwrap_or(0.7);
    let mut session = Session::open_existing(&store)?;
    let report = session.compact(threshold)?;
    session.close()?;
    println!(
        "compacted {} containers, reclaimed {} B, re-targeted {} extents ({} skipped)",
        report.containers_compacted,
        report.bytes_reclaimed,
        report.extents_rewritten,
        report.containers_skipped,
    );
    Ok(())
}

/// `mhd stats --internals`: dump the `mhd-obs` metrics snapshot persisted
/// by the last mutating command (backup/rm/gc/compact) as JSON, or as
/// aligned human-readable tables with `--pretty`. Metrics are
/// process-local, so a read-only `stats` invocation has none of its own —
/// the persisted snapshot is the interesting one.
fn print_internals(store: &Path, pretty: bool) -> CliResult {
    let Some(snapshot) = session::load_internals(store)? else {
        return Err(
            "no internals snapshot in this store yet; run a mutating command (e.g. `mhd backup`) first"
                .into(),
        );
    };
    if pretty {
        print_snapshot_tables(&snapshot, "");
        for (label, sub) in &snapshot.scopes {
            println!("\nscope {label}");
            print_snapshot_tables(sub, "  ");
        }
    } else {
        println!("{}", serde_json::to_string_pretty(&snapshot)?);
    }
    Ok(())
}

/// Prints one snapshot section (counters, then histograms with
/// bucket-estimated percentiles) as aligned tables.
fn print_snapshot_tables(snap: &mhd_obs::Snapshot, indent: &str) {
    if !snap.counters.is_empty() {
        let width = snap.counters.iter().map(|c| c.name.len()).max().unwrap_or(0);
        println!("{indent}counters:");
        for c in &snap.counters {
            println!("{indent}  {:<width$}  {:>14}", c.name, c.value);
        }
    }
    if !snap.histograms.is_empty() {
        let width =
            snap.histograms.iter().map(|h| h.name.len()).max().unwrap_or(0).max("name".len());
        println!("{indent}histograms:");
        println!(
            "{indent}  {:<width$}  {:>10} {:>14} {:>12} {:>12} {:>12} {:>12} {:>14}",
            "name", "count", "mean", "p50", "p90", "p99", "min", "max"
        );
        for h in &snap.histograms {
            println!(
                "{indent}  {:<width$}  {:>10} {:>14.1} {:>12.1} {:>12.1} {:>12.1} {:>12} {:>14}",
                h.name,
                h.count,
                h.mean(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.min,
                h.max
            );
        }
    }
    if snap.counters.is_empty() && snap.histograms.is_empty() {
        println!("{indent}(no metrics)");
    }
}

/// `mhd trace`: export the trace persisted by the last `backup --trace`
/// run, as Chrome `trace_event` JSON (default; loadable in
/// `about:tracing`/Perfetto) or as the raw JSONL.
fn cmd_trace(args: &[String]) -> CliResult {
    // Every argument is a flag and its value: anything else is refused
    // rather than ignored.
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--store" | "--format" | "-o" | "--output" => {
                rest.next();
            }
            other => return Err(format!("trace: unexpected argument {other:?}").into()),
        }
    }
    let store = store_path(args)?;
    let format = flag_value(args, "--format").unwrap_or_else(|| "chrome".to_string());
    let out = flag_value(args, "-o").or_else(|| flag_value(args, "--output"));
    session::require_store(&store)?;
    let Some(records) = session::load_trace(&store)? else {
        return Err("no trace in this store yet; run `mhd backup <dir> --trace` first".into());
    };
    let rendered = match format.as_str() {
        "chrome" => mhd_obs::trace_to_chrome(&records),
        "jsonl" => mhd_obs::trace_to_jsonl(&records),
        other => return Err(format!("unknown trace format {other:?} (chrome|jsonl)").into()),
    };
    match out {
        Some(path) => {
            std::fs::write(&path, &rendered)?;
            println!("wrote {} trace events ({format}) to {path}", records.len());
        }
        None => {
            print!("{rendered}");
            if !rendered.ends_with('\n') {
                println!();
            }
        }
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> CliResult {
    let store = store_path(args)?;
    session::require_store(&store)?;
    if args.iter().any(|a| a == "--internals") {
        return print_internals(&store, args.iter().any(|a| a == "--pretty"));
    }
    // The counters as last persisted: the slim `state.json` is all this
    // needs (no sidecars, no engine, no recovery).
    let state = mhd_core::statefile::load_slim_state(&store)?.unwrap_or_default();
    let ledger = &state.substrate.ledger;
    println!("input bytes:      {}", state.input_bytes);
    println!("stored data:      {}", ledger.stored_data_bytes);
    println!("duplicate bytes:  {} in {} slices", state.dup_bytes, state.dup_slices);
    println!("metadata bytes:   {}", ledger.total_metadata_bytes());
    println!("  hooks:          {} ({} inodes)", ledger.hook_bytes, ledger.inodes_hooks);
    println!("  manifests:      {} ({} inodes)", ledger.manifest_bytes, ledger.inodes_manifests);
    println!(
        "  file recipes:   {} ({} inodes)",
        ledger.file_manifest_bytes, ledger.inodes_file_manifests
    );
    println!("HHR re-chunks:    {}", state.hhr_count);
    if state.input_bytes > 0 {
        println!(
            "data-only DER:    {:.3}",
            state.input_bytes as f64 / ledger.stored_data_bytes.max(1) as f64
        );
        println!(
            "real DER:         {:.3}",
            state.input_bytes as f64 / ledger.total_output_bytes().max(1) as f64
        );
    }
    // A property of this host, not of the store: which SHA-1 block
    // implementation `mhd` hashes with here (OPERATIONS.md).
    println!("sha-1 kernel:     {}", mhd_hash::kernel());
    Ok(())
}
