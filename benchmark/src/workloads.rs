//! The four workloads. Each pass backs the whole corpus up into a fresh
//! store through one surface of the system, checks the result (byte-exact
//! restores, clean `fsck`, input accounting) and measures the store it
//! leaves behind. All load is closed loop: a driver thread sends its next
//! request only after the previous one was answered.
//!
//! The systems under test run at shipped defaults: ECS 4096, SD 16, the
//! Rabin chunker, `--durability rename`, default `IoConfig`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mhd_core::{restore::restore_file, DedupReport, Deduplicator, EngineConfig, MhdEngine};
use mhd_daemon::Client;
use mhd_store::{Backend, FileKind, MemBackend, Substrate, INODE_BYTES};
use mhd_workload::{Corpus, FileEntry, Snapshot};

use crate::harness::{quiesce, DaemonProc, Env, OneCpu, ProcUsage, Result};
use crate::procfs::{self, RssSampler};
use crate::trace::{traced, Request, SpanId, Tracer};

/// Expected chunk size the shipped binaries default to.
pub const ECS: usize = 4096;
/// Sample distance the shipped binaries default to.
pub const SD: usize = 16;

/// The engine configuration `mhd backup` and `mhd serve` use by default.
pub fn engine_config() -> EngineConfig {
    EngineConfig::new(ECS, SD)
}

/// A benchmark workload. Names are final: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process `MhdEngine<MemBackend>`; the store does nothing.
    MemDedup,
    /// One `mhd backup` subprocess per stream.
    CliBackup,
    /// `mhd serve`, one client connection.
    DaemonSerial,
    /// `mhd serve`, `min(nproc, 4)` client connections.
    DaemonConcurrent,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::MemDedup,
        Workload::CliBackup,
        Workload::DaemonSerial,
        Workload::DaemonConcurrent,
    ];

    /// The name used on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MemDedup => "mem-dedup",
            Workload::CliBackup => "cli-backup",
            Workload::DaemonSerial => "daemon-serial",
            Workload::DaemonConcurrent => "daemon-concurrent",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Bytes in a MiB, as the divisor of every `MiB` and `MiB/s` reported.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Client connections `daemon-concurrent` drives: one per core, at most 4.
pub fn concurrent_clients() -> usize {
    procfs::nproc().min(4)
}

/// Operations attempted and failed; a failure is reported, never fatal, so
/// one run counts them all.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced a wrong result.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// Adds another tally.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What a pass left in the store, in bytes.
#[derive(Debug, Default, Clone, Copy)]
pub struct Space {
    /// Logical input.
    pub input_bytes: u64,
    /// Stored data plus all metadata, 256-byte inodes included.
    pub stored_bytes: u64,
    /// Metadata alone (the paper's MetaDataRatio numerator).
    pub metadata_bytes: u64,
    /// What the file system charges: Σ `st_blocks × 512`.
    pub disk_bytes: u64,
    /// Inodes in the store directory.
    pub inodes: u64,
}

/// The daemon's side of a pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct DaemonSide {
    /// RSS and CPU of the daemon that took the backup, read just before
    /// its `SHUTDOWN`.
    pub usage: ProcUsage,
    /// Spawn to first answered `PING` of the daemon restarted on the
    /// populated store.
    pub reopen_s: f64,
    /// Entries in the shared hook index.
    pub index_entries: u64,
}

/// One pass of a workload.
#[derive(Debug, Default, Clone)]
pub struct Sample {
    /// Wall seconds of the backup, first byte offered to last commit
    /// acknowledged.
    pub backup_s: f64,
    /// Wall seconds of the restores.
    pub restore_s: f64,
    /// Bytes restored and verified in `restore_s`.
    pub restored_bytes: u64,
    /// What the store holds afterwards.
    pub space: Space,
    /// Where the pass left its store (disk workloads).
    pub store: PathBuf,
    /// Peak RSS of the process under test, MiB.
    pub peak_rss_mib: f64,
    /// Chunks the engine stored.
    pub chunks_stored: u64,
    /// CPU seconds of the `mhd backup` children (`cli-backup` only).
    pub cpu_user_s: f64,
    /// System CPU seconds of the `mhd backup` children (`cli-backup` only).
    pub cpu_sys_s: f64,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Daemon workloads only.
    pub daemon: Option<DaemonSide>,
}

/// The streams `cli-backup` restores and byte-compares after its backup, one
/// `mhd restore` subprocess per file: each machine's first and last day.
pub fn probe_streams(corpus: &Corpus) -> Vec<(usize, &Snapshot)> {
    let last_day = corpus.spec().snapshots - 1;
    corpus.snapshots.iter().enumerate().filter(|(_, s)| s.day == 0 || s.day == last_day).collect()
}

/// All streams, newest day first — the order an operator restores in.
pub fn newest_first(corpus: &Corpus) -> Vec<(usize, &Snapshot)> {
    let mut streams: Vec<_> = corpus.snapshots.iter().enumerate().collect();
    streams.sort_by_key(|(_, s)| (std::cmp::Reverse(s.day), s.machine));
    streams
}

/// A corpus file's name within its stream (`f<index>`).
pub fn leaf(file: &FileEntry) -> &str {
    file.path.rsplit('/').next().unwrap_or(&file.path)
}

/// The label a corpus stream is backed up under: `m<M>-d<D>`.
pub fn label(snapshot: &Snapshot) -> String {
    format!("m{}-d{}", snapshot.machine, snapshot.day)
}

// ---------------------------------------------------------------- engine

/// Backs the corpus up through `engine` in-process. `enter` is told which
/// span the backend operations that follow belong to (a no-op unless the
/// backend is a `TimedBackend`).
pub fn engine_backup<B: Backend>(
    engine: &mut MhdEngine<B>,
    corpus: &Corpus,
    tracer: Option<&Tracer>,
    enter: &mut impl FnMut(&mut B, SpanId, Option<Request>),
) -> Result<(DedupReport, f64)> {
    let start = Instant::now();
    for snapshot in &corpus.snapshots {
        let request = Some(Request::of(snapshot));
        traced(tracer, "core.process_snapshot", 0, request, |id| {
            enter(engine.substrate_mut().backend_mut(), id, request);
            engine.process_snapshot(snapshot)
        })?;
    }
    let report = traced(tracer, "core.finish", 0, None, |id| {
        enter(engine.substrate_mut().backend_mut(), id, None);
        engine.finish()
    })?;
    Ok((report, start.elapsed().as_secs_f64()))
}

/// Restores the files of `streams` from `substrate` in-process and
/// byte-compares them; `recipe` maps a stream and file to the stored
/// recipe name. Returns verified bytes and wall seconds.
pub fn engine_restore<B: Backend>(
    substrate: &mut Substrate<B>,
    streams: &[(usize, &Snapshot)],
    recipe: impl Fn(usize, &Snapshot, &FileEntry) -> String,
    tracer: Option<&Tracer>,
    enter: &mut impl FnMut(&mut B, SpanId, Option<Request>),
    tally: &mut Tally,
) -> (u64, f64) {
    let start = Instant::now();
    let mut bytes = 0u64;
    for &(index, snapshot) in streams {
        let request = Some(Request::of(snapshot));
        for file in &snapshot.files {
            let name = recipe(index, snapshot, file);
            let restored = traced(tracer, "core.restore_file", 0, request, |id| {
                enter(substrate.backend_mut(), id, request);
                restore_file(substrate, &name)
            });
            let ok = restored.as_ref().is_ok_and(|data| data.as_slice() == &file.data[..]);
            tally.check(ok, || format!("restore of {name} is not byte-exact"));
            if ok {
                bytes += file.data.len() as u64;
            }
        }
    }
    (bytes, start.elapsed().as_secs_f64())
}

/// `mem-dedup`: the whole corpus through `MhdEngine<MemBackend>`, then
/// every file restored from memory.
pub fn mem_dedup(corpus: &Corpus) -> Result<Sample> {
    let mut engine = MhdEngine::new(MemBackend::new(), engine_config())?;
    let no_enter = &mut |_: &mut MemBackend, _, _| ();
    let (report, backup_s) = engine_backup(&mut engine, corpus, None, no_enter)?;

    let mut tally = Tally { attempted: corpus.snapshots.len() as u64, failed: 0 };
    tally.check(report.input_bytes == corpus.total_bytes(), || {
        format!("engine saw {} of {} input bytes", report.input_bytes, corpus.total_bytes())
    });
    let streams: Vec<_> = corpus.snapshots.iter().enumerate().collect();
    let (restored_bytes, restore_s) = engine_restore(
        engine.substrate_mut(),
        &streams,
        |_, _, file| file.path.clone(),
        None,
        no_enter,
        &mut tally,
    );
    let healthy = mhd_core::fsck::check_store(engine.substrate_mut()).is_healthy();
    tally.check(healthy, || "fsck found problems in the in-memory store".into());

    Ok(Sample {
        backup_s,
        restore_s,
        restored_bytes,
        space: mem_space(&report, engine.substrate_mut().backend_mut()),
        peak_rss_mib: procfs::own_peak_rss_mib(),
        chunks_stored: report.chunks_stored,
        tally,
        ..Sample::default()
    })
}

/// Space of an in-memory store. There is no file system to charge, so
/// "disk" is what the backend itself holds — every object's payload plus
/// one 256-byte inode each — counted from the backend, not the ledger.
pub fn mem_space(report: &DedupReport, backend: &mut MemBackend) -> Space {
    let objects: u64 = FileKind::ALL.iter().map(|&k| backend.count(k)).sum();
    let payload: u64 = FileKind::ALL.iter().map(|&k| backend.bytes_of_kind(k)).sum();
    Space {
        input_bytes: report.input_bytes,
        stored_bytes: report.ledger.total_output_bytes(),
        metadata_bytes: report.ledger.total_metadata_bytes(),
        disk_bytes: payload + objects * INODE_BYTES,
        inodes: objects,
    }
}

// ------------------------------------------------------------------- cli

/// Parses `mhd stats` output: `(input, stored data, metadata)` bytes.
fn parse_cli_stats(stdout: &str) -> Option<(u64, u64, u64)> {
    let field = |prefix: &str| -> Option<u64> {
        let line = stdout.lines().find(|l| l.starts_with(prefix))?;
        line[prefix.len()..].split_ascii_whitespace().next()?.parse().ok()
    };
    Some((field("input bytes:")?, field("stored data:")?, field("metadata bytes:")?))
}

/// Measures a stopped on-disk store: the ledger through `mhd stats`, the
/// file system through `st_blocks`, integrity through `mhd fsck`.
pub fn disk_store_space(env: &Env, store: &Path, tally: &mut Tally) -> Result<Space> {
    let store_arg = store.to_string_lossy();
    let stats = env.mhd_output(&["stats", "--store", &store_arg])?;
    let (input_bytes, data, metadata_bytes) =
        parse_cli_stats(&String::from_utf8_lossy(&stats.stdout))
            .ok_or("unparseable `mhd stats` output")?;
    let fsck = env.mhd_output(&["fsck", "--store", &store_arg])?;
    tally.check(fsck.status.success(), || {
        format!("mhd fsck: {}", String::from_utf8_lossy(&fsck.stderr).trim())
    });
    let usage = procfs::disk_usage(store)?;
    Ok(Space {
        input_bytes,
        stored_bytes: data + metadata_bytes,
        metadata_bytes,
        disk_bytes: usage.bytes,
        inodes: usage.inodes,
    })
}

/// The recipe name `mhd backup --label m<M>-d<D>` gives a file of the
/// `index`-th stream backed up into a store.
fn cli_recipe(index: usize, snapshot: &Snapshot, file: &FileEntry) -> String {
    format!("{}-{index}/{}", label(snapshot), leaf(file))
}

/// `cli-backup`: one `mhd backup <dir>` subprocess per stream, day-major
/// (the nightly window), then `mhd restore` of the probe streams. With
/// `sample_rss` the children's peak RSS is sampled, which slows them: such a
/// pass is for `peak_rss_mib` only.
pub fn cli_backup(
    env: &Env,
    corpus: &Corpus,
    export: &Path,
    tracer: Option<&Tracer>,
    sample_rss: bool,
) -> Result<Sample> {
    let store = env.work.unused("store");
    let store_arg = store.to_string_lossy().into_owned();
    quiesce();
    let sampler = sample_rss.then(RssSampler::start);
    let mut tally = Tally::default();

    let cpu_before = procfs::waited_children_cpu_seconds();
    let start = Instant::now();
    for snapshot in &corpus.snapshots {
        let dir = export.join(format!("m{}/d{}", snapshot.machine, snapshot.day));
        let args =
            ["backup", &dir.to_string_lossy(), "--store", &store_arg, "--label", &label(snapshot)];
        let status = traced(tracer, "cli.invoke", 0, Some(Request::of(snapshot)), |_| {
            let mut child = env.mhd_command(&args)?.spawn()?;
            sampler.iter().for_each(|s| s.watch(child.id()));
            let status = child.wait();
            sampler.iter().for_each(|s| s.watch(0));
            Result::Ok(status?)
        })?;
        tally.check(status.success(), || format!("mhd backup of {}: {status}", label(snapshot)));
    }
    let backup_s = start.elapsed().as_secs_f64();
    let cpu_after = procfs::waited_children_cpu_seconds();
    let peak_rss_mib = sampler.map_or(0.0, RssSampler::finish);

    let space = disk_store_space(env, &store, &mut tally)?;
    tally.check(space.input_bytes == corpus.total_bytes(), || {
        format!("store saw {} of {} input bytes", space.input_bytes, corpus.total_bytes())
    });

    let out = env.work.join("restored");
    let out_arg = out.to_string_lossy().into_owned();
    let start = Instant::now();
    let mut restored_bytes = 0u64;
    for (index, snapshot) in probe_streams(corpus) {
        for file in &snapshot.files {
            let name = cli_recipe(index, snapshot, file);
            let args = ["restore", &name, "--store", &store_arg, "-o", &out_arg];
            let status = env.mhd_command(&args)?.status()?;
            let ok = status.success() && std::fs::read(&out)? == file.data[..];
            tally.check(ok, || format!("mhd restore of {name} is not byte-exact"));
            if ok {
                restored_bytes += file.data.len() as u64;
            }
        }
    }
    let restore_s = start.elapsed().as_secs_f64();

    Ok(Sample {
        backup_s,
        restore_s,
        restored_bytes,
        space,
        store,
        peak_rss_mib,
        cpu_user_s: cpu_after.0 - cpu_before.0,
        cpu_sys_s: cpu_after.1 - cpu_before.1,
        tally,
        ..Sample::default()
    })
}

// ---------------------------------------------------------------- daemon

/// The tenant client `client` of a daemon workload opens.
pub fn tenant(client: usize) -> String {
    format!("c{client}")
}

/// Pulls an unsigned field out of the daemon's one-line `STATS` JSON.
fn stats_field(stats: &serde_json::Value, key: &str) -> Option<u64> {
    match crate::spec::field(stats, key)? {
        serde_json::Value::Number(serde_json::Number::U64(v)) => Some(*v),
        _ => None,
    }
}

/// Sends the streams of `corpus` whose machine falls to client `me` of
/// `clients`, one `BEGIN / FILE… / COMMIT` session each.
fn drive_sessions(
    daemon: &DaemonProc,
    corpus: &Corpus,
    me: usize,
    clients: usize,
    tracer: Option<&Tracer>,
) -> Result<Tally> {
    let mut client = daemon.client()?;
    client.open(&tenant(me))?;
    let mut tally = Tally::default();
    for snapshot in corpus.snapshots.iter().filter(|s| s.machine % clients == me) {
        let request = Some(Request::of(snapshot));
        let sent = traced(tracer, "daemon.session", 0, request, |session| {
            traced(tracer, "daemon.begin", session, request, |_| client.begin(&label(snapshot)))?;
            for file in &snapshot.files {
                traced(tracer, "daemon.send", session, request, |_| {
                    client.send_file(leaf(file), &file.data)
                })?;
            }
            traced(tracer, "daemon.commit", session, request, |_| client.commit())
        });
        let ok = sent.as_ref().is_ok_and(|c| c.input_bytes == snapshot.total_bytes());
        if sent.is_err() {
            let _ = client.abort();
        }
        tally.check(ok, || format!("session {}: {sent:?}", label(snapshot)));
    }
    Ok(tally)
}

/// Backs the corpus up through `daemon` over `clients` connections
/// (machine `m` goes to client `m % clients`, one tenant per client).
/// Returns wall seconds from the first connect to the last commit reply.
pub fn daemon_ingest(
    daemon: &DaemonProc,
    corpus: &Corpus,
    clients: usize,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> Result<f64> {
    let start = Instant::now();
    let tallies: Vec<Result<Tally>> = std::thread::scope(|scope| {
        let drivers: Vec<_> = (0..clients)
            .map(|me| scope.spawn(move || drive_sessions(daemon, corpus, me, clients, tracer)))
            .collect();
        drivers.into_iter().map(|d| d.join().expect("client thread panicked")).collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    for t in tallies {
        tally.absorb(t?);
    }
    Ok(seconds)
}

/// `RESTORE`s the files of `streams` over one connection and byte-compares
/// them. Returns verified bytes and wall seconds.
pub fn daemon_restore(
    client: &mut Client,
    streams: &[(usize, &Snapshot)],
    clients: usize,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> Result<(u64, f64)> {
    let start = Instant::now();
    let mut bytes = 0u64;
    let mut attached = usize::MAX;
    for &(_, snapshot) in streams {
        let owner = snapshot.machine % clients;
        if owner != attached {
            client.open(&tenant(owner))?;
            attached = owner;
        }
        let request = Some(Request::of(snapshot));
        for file in &snapshot.files {
            let name = format!("{}/{}", label(snapshot), leaf(file));
            let restored = traced(tracer, "daemon.restore", 0, request, |_| client.restore(&name));
            let ok = restored.as_ref().is_ok_and(|data| data.as_slice() == &file.data[..]);
            tally.check(ok, || format!("RESTORE of {name} is not byte-exact"));
            if ok {
                bytes += file.data.len() as u64;
            }
        }
    }
    Ok((bytes, start.elapsed().as_secs_f64()))
}

/// Asks a live daemon for `STATS` and `FSCK`; returns
/// `(stored_bytes, chunks_stored, index_entries)`.
fn daemon_checks(
    client: &mut Client,
    corpus: &Corpus,
    tally: &mut Tally,
) -> Result<(u64, u64, u64)> {
    let stats: serde_json::Value = serde_json::from_str(&client.stats()?)?;
    let field = |key| stats_field(&stats, key).ok_or(format!("STATS has no {key}"));
    let input = field("input_bytes")?;
    tally.check(input == corpus.total_bytes(), || {
        format!("daemon saw {input} of {} input bytes", corpus.total_bytes())
    });
    let fsck = client.fsck();
    tally.check(fsck.is_ok(), || format!("FSCK: {fsck:?}"));
    Ok((field("stored_bytes")?, field("chunks_stored")?, field("index_entries")?))
}

/// Times a daemon backup pass restores every stream over the socket: one
/// round takes 75 ms, and single rounds spread from 45 to 500 ms.
pub const RESTORE_ROUNDS: usize = 3;

/// `daemon-serial` (`clients == 1`) and `daemon-concurrent`: a fresh
/// `mhd serve`, the corpus through `clients` connections, a clean shutdown
/// and a look at the store on disk; then `mhd serve` again on the populated
/// store, and every file of every stream `RESTORE`d over one connection,
/// newest day first, `RESTORE_ROUNDS` times — the read use of store and
/// core, from a daemon that did not write the data.
pub fn daemon_backup(
    env: &Env,
    corpus: &Corpus,
    clients: usize,
    tracer: Option<&Tracer>,
) -> Result<Sample> {
    let store = env.work.unused("store");
    quiesce();
    let daemon = DaemonProc::spawn(env, &store)?;
    let mut tally = Tally::default();
    let backup_s = daemon_ingest(&daemon, corpus, clients, tracer, &mut tally)?;

    let mut admin = daemon.client()?;
    let (stored_live, chunks_stored, index_entries) =
        daemon_checks(&mut admin, corpus, &mut tally)?;
    drop(admin);
    let usage = daemon.stop()?;

    let space = disk_store_space(env, &store, &mut tally)?;
    tally.check(space.stored_bytes == stored_live, || {
        format!("STATS said {stored_live} stored bytes, mhd stats says {}", space.stored_bytes)
    });

    let daemon = DaemonProc::spawn(env, &store)?;
    let reopen_s = daemon.open_s;
    let mut reader = daemon.client()?;
    let (mut restored_bytes, mut restore_s) = (0, 0.0);
    let one_cpu = OneCpu::pin(&daemon);
    for _ in 0..RESTORE_ROUNDS {
        let (bytes, seconds) =
            daemon_restore(&mut reader, &newest_first(corpus), clients, tracer, &mut tally)?;
        restored_bytes += bytes;
        restore_s += seconds;
    }
    drop(one_cpu);
    drop(reader);
    daemon.stop()?;
    Ok(Sample {
        backup_s,
        restore_s,
        restored_bytes,
        space,
        store,
        peak_rss_mib: usage.peak_rss_mib,
        chunks_stored,
        tally,
        daemon: Some(DaemonSide { usage, reopen_s, index_entries }),
        ..Sample::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mhd_stats_output() {
        let out =
            "input bytes:      1000\nstored data:      400\nduplicate bytes:  600 in 3 slices\n\
                   metadata bytes:   50\n  hooks:          20 (1 inodes)\n";
        assert_eq!(parse_cli_stats(out), Some((1000, 400, 50)));
        assert_eq!(parse_cli_stats("input bytes: x"), None);
    }

    #[test]
    fn reads_stats_json_fields() {
        let stats: serde_json::Value =
            serde_json::from_str(r#"{"input_bytes":7,"active_streams":["a"]}"#).unwrap();
        assert_eq!(stats_field(&stats, "input_bytes"), Some(7));
        assert_eq!(stats_field(&stats, "active_streams"), None);
        assert_eq!(stats_field(&stats, "missing"), None);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
