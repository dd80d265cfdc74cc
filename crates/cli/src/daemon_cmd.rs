//! The `mhd serve` and `mhd client` subcommands: a thin driver over
//! [`mhd_daemon`].
//!
//! `serve` runs the multi-tenant daemon in the foreground until a client
//! sends `SHUTDOWN` (see OPERATIONS.md for the operator runbook).
//! `client` speaks the line protocol over the daemon's Unix socket
//! (`mhd help` lists the verbs and flags of both).

use std::path::{Path, PathBuf};

use mhd_daemon::{Client, Daemon, DaemonConfig};

use crate::{flag_value, io_config, store_path, CliResult};

fn socket_path(args: &[String]) -> Result<PathBuf, Box<dyn std::error::Error>> {
    flag_value(args, "--socket").map(PathBuf::from).ok_or_else(|| "--socket is required".into())
}

/// `mhd serve`: open the shared store and serve it on a Unix socket
/// until a client sends `SHUTDOWN`.
pub fn cmd_serve(args: &[String]) -> CliResult {
    let store = store_path(args)?;
    let socket = socket_path(args)?;
    let mut config = DaemonConfig { io: io_config(args)?, ..DaemonConfig::default() };
    if let Some(ecs) = flag_value(args, "--ecs") {
        config.ecs = ecs.parse()?;
    }
    if let Some(sd) = flag_value(args, "--sd") {
        config.sd = sd.parse()?;
    }
    if let Some(chunker) = flag_value(args, "--chunker") {
        config.chunker = chunker.parse::<mhd_chunking::ChunkerKind>().map_err(|e| e.to_string())?;
    }

    let daemon = Daemon::open(&store, config)?;
    let recovery = daemon.store().recovery();
    if recovery.is_clean() {
        eprintln!("serve: store {} is clean", store.display());
    } else {
        eprintln!("serve: recovered store {}: {recovery}", store.display());
    }
    eprintln!("serve: listening on {}", socket.display());
    daemon.serve(&socket)?;
    eprintln!("serve: shut down cleanly");
    Ok(())
}

fn tenant_arg(args: &[String]) -> Result<String, Box<dyn std::error::Error>> {
    flag_value(args, "--tenant").ok_or_else(|| "--tenant is required".into())
}

/// `mhd client <verb>`: one protocol interaction per invocation.
pub fn cmd_client(args: &[String]) -> CliResult {
    let Some(verb) = args.first() else {
        return Err("client needs a verb: backup|restore|ls|gc|fsck|stats|ping|shutdown".into());
    };
    let rest = &args[1..];
    let mut client = Client::connect(&socket_path(rest)?)?;
    match verb.as_str() {
        "backup" => {
            let Some(dir) = rest.first().filter(|a| !a.starts_with("--")) else {
                return Err("client backup needs a source directory".into());
            };
            client.open(&tenant_arg(rest)?)?;
            let label = flag_value(rest, "--label").unwrap_or_else(|| "snapshot".to_string());
            let summary = client.backup_dir(Path::new(dir), &label)?;
            outln!(
                "committed {} files ({} B) as {label}: store grew by {} B ({:.1}% of input)",
                summary.files,
                summary.input_bytes,
                summary.grown_bytes,
                summary.grown_bytes as f64 / summary.input_bytes.max(1) as f64 * 100.0
            )?;
        }
        "restore" => {
            let Some(name) = rest.first().filter(|a| !a.starts_with("--")) else {
                return Err("client restore needs a recipe name (see `mhd client ls`)".into());
            };
            let out = flag_value(rest, "-o")
                .or_else(|| flag_value(rest, "--output"))
                .ok_or("-o <path> is required")?;
            client.open(&tenant_arg(rest)?)?;
            let data = client.restore(name)?;
            if let Some(parent) = Path::new(&out).parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            std::fs::write(&out, &data)?;
            outln!("restored {name} -> {out} ({} B)", data.len())?;
        }
        "ls" => {
            client.open(&tenant_arg(rest)?)?;
            for name in client.ls()? {
                outln!("{name}")?;
            }
        }
        "gc" => {
            let reply = client.gc()?;
            outln!("gc: {reply} (deleted / protected / bytes freed)")?;
        }
        "fsck" => {
            let reply = client.fsck()?;
            outln!("fsck: {reply}")?;
        }
        "stats" => outln!("{}", client.stats()?)?,
        "ping" => {
            client.ping()?;
            outln!("pong")?;
        }
        "shutdown" => {
            client.shutdown()?;
            outln!("daemon is shutting down")?;
        }
        other => return Err(format!("unknown client verb {other:?}").into()),
    }
    Ok(())
}
