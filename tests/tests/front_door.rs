//! One store front door: a store either front end tore is recovered by
//! whichever front end opens it next, a clean open reads no object, and
//! the read view mutates nothing.
//!
//! "The CLI path" here is what `mhd backup` runs: `statefile::open_write`,
//! then [`OpenedStore::begin_stream`] → process → [`OpenedStore::commit`]
//! with the `label-N` stream name — `cli::Session` adds only messages and
//! the obs files to it. The daemon path is the real [`SharedStore`]. Streams are named `t/d-N` under both — the
//! CLI's label `t/d` with stream index `N`, the daemon's tenant `t` with
//! label `d-N` — so each front end can retake the stream the other tore.
//!
//! A torn store is built the way a kill before persist leaves one: the
//! four namespaces after the stream, the `session/` files from before it,
//! and the stream's wip record (re-created through the call both front
//! ends use).

use std::path::{Path, PathBuf};

use bytes::Bytes;
use mhd_chunking::ChunkerKind;
use mhd_core::statefile::{self, OpenedStore, StoreMeta};
use mhd_core::{compact, fsck::check_store, gc, restore::restore_file, Deduplicator};
use mhd_daemon::{DaemonConfig, SharedStore};
use mhd_integration::{hhr_pair_bytes, xorshift_bytes};
use mhd_store::{
    Backend, BatchedDirBackend, Durability, FaultBackend, FaultOp, FaultPoint, FileKind, IoConfig,
};
use mhd_workload::{FileEntry, Snapshot};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mhd-frontdoor-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum FrontEnd {
    Cli,
    Daemon,
}

fn stream(n: u64) -> String {
    format!("t/d-{n}")
}

fn cli_open(root: &Path) -> OpenedStore<BatchedDirBackend> {
    let new_store = StoreMeta { ecs: 512, sd: 8, streams: 0, chunker: ChunkerKind::Rabin };
    statefile::open_write(root, new_store, IoConfig::default(), |b| b).expect("cli open")
}

fn daemon_open(root: &Path) -> SharedStore {
    SharedStore::open(root, DaemonConfig { ecs: 512, sd: 8, ..DaemonConfig::default() })
        .expect("daemon open")
}

/// Backs `data` up as file `f0` of the store's next stream through
/// `front`; returns how many bytes the store grew by.
fn backup(front: FrontEnd, root: &Path, data: &[u8]) -> u64 {
    match front {
        FrontEnd::Cli => {
            let mut store = cli_open(root);
            let name = stream(store.meta.streams);
            let before = store.engine.substrate().ledger().total_output_bytes();
            let files =
                vec![FileEntry { path: format!("{name}/f0"), data: Bytes::copy_from_slice(data) }];
            store.begin_stream(&name).unwrap();
            store.engine.process_snapshot(&Snapshot { machine: 0, day: 0, files }).unwrap();
            store.meta.streams += 1;
            store.commit().unwrap();
            store.engine.substrate().ledger().total_output_bytes() - before
        }
        FrontEnd::Daemon => {
            let store = daemon_open(root);
            let label = format!("d-{}", store.stats().streams);
            let mut session = store.begin_session("t", &label).unwrap();
            session.stage("f0", data).unwrap();
            store.commit(session).unwrap().grown_bytes
        }
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Stream 0 = `first`, then stream 1 = `second` written by `writer` and
/// torn: `session/` put back to its pre-stream-1 content, the wip record
/// left in place unless `wip` is false (a store torn by a binary that
/// took none).
fn torn_store(tag: &str, writer: FrontEnd, first: &[u8], second: &[u8], wip: bool) -> PathBuf {
    let root = temp_root(tag);
    backup(writer, &root, first);
    let saved = root.join("session.saved");
    copy_dir(&root.join("session"), &saved);
    backup(writer, &root, second);
    std::fs::remove_dir_all(root.join("session")).unwrap();
    std::fs::rename(&saved, root.join("session")).unwrap();
    if wip {
        statefile::wip_begin(&root, Durability::Rename, &stream(1)).unwrap();
    }
    root
}

fn recipes(root: &Path) -> Vec<String> {
    statefile::read_view(root).unwrap().list_file_manifests()
}

/// The four assertions of the issue, after `reader` opens the torn store:
/// the torn stream is gone, fsck is healthy, stream 0 restores
/// byte-exactly, and stream 1 can be taken again and deduplicates.
fn assert_recovered_by(reader: FrontEnd, root: &Path, first: &[u8], what: &str) {
    let (recovery, healthy) = match reader {
        FrontEnd::Cli => {
            let mut opened = cli_open(root);
            let report = check_store(opened.engine.substrate_mut());
            (opened.recovery, report.problems)
        }
        FrontEnd::Daemon => {
            let store = daemon_open(root);
            (store.recovery().clone(), store.fsck().problems)
        }
    };
    assert!(recovery.recipes_rolled_back >= 1, "{what}: torn recipe must go: {recovery}");
    assert_eq!(recipes(root), vec!["t_d-0_f0".to_string()], "{what}: ls after {reader:?} open");
    assert!(healthy.is_empty(), "{what}: fsck after {reader:?} open: {healthy:?}");
    let restored = restore_file(&mut statefile::read_view(root).unwrap(), "t/d-0/f0").unwrap();
    assert_eq!(restored, first, "{what}: stream 0 after {reader:?} open");
    assert!(std::fs::read_dir(statefile::wip_dir(root)).unwrap().next().is_none(), "{what}");

    let grown = backup(reader, root, first);
    assert!(
        grown < first.len() as u64 / 5,
        "{what}: retaken stream 1 must dedup against stream 0 (grew {grown})"
    );
    assert_eq!(recipes(root), vec!["t_d-0_f0".to_string(), "t_d-1_f0".to_string()], "{what}");
    let restored = restore_file(&mut statefile::read_view(root).unwrap(), "t/d-1/f0").unwrap();
    assert_eq!(restored, first, "{what}: retaken stream 1");
}

/// (first stream, torn second stream) per kind of second stream.
fn stream_pairs() -> Vec<(&'static str, Vec<u8>, Vec<u8>)> {
    let unique = (xorshift_bytes(60_000, 11), xorshift_bytes(60_000, 12));
    let (original, edited) = hhr_pair_bytes();
    vec![
        ("unique", unique.0.clone(), unique.1),
        ("all-duplicate", unique.0.clone(), unique.0),
        ("hhr", original, edited),
    ]
}

#[test]
fn store_torn_by_the_cli_is_recovered_by_either_front_end() {
    for reader in [FrontEnd::Cli, FrontEnd::Daemon] {
        for (kind, first, second) in stream_pairs() {
            let what = format!("cli-torn {kind}");
            let root =
                torn_store(&format!("cli-{kind}-{reader:?}"), FrontEnd::Cli, &first, &second, true);
            assert_recovered_by(reader, &root, &first, &what);
            std::fs::remove_dir_all(&root).unwrap();
        }
        // Torn by a binary that took no wip record: the id floors alone
        // must find the stream, recipes included.
        let (_, first, second) = stream_pairs().swap_remove(0);
        let root =
            torn_store(&format!("cli-nowip-{reader:?}"), FrontEnd::Cli, &first, &second, false);
        assert_recovered_by(reader, &root, &first, "cli-torn unique, no wip record");
        std::fs::remove_dir_all(&root).unwrap();
    }
}

#[test]
fn daemon_commit_torn_after_splice_is_recovered_by_the_cli() {
    for (kind, first, second) in stream_pairs() {
        let root = torn_store(&format!("daemon-{kind}"), FrontEnd::Daemon, &first, &second, true);
        assert_recovered_by(FrontEnd::Cli, &root, &first, &format!("daemon-torn {kind}"));
        std::fs::remove_dir_all(&root).unwrap();
    }
}

/// Where a `mhd compact` run dies.
#[derive(Debug, Clone, Copy)]
enum CompactKill {
    /// Fresh containers flushed, watermark not yet persisted: the store
    /// holds the pre-compact `session/`.
    AfterStage,
    /// Watermark persisted, Manifests re-targeted, no recipe yet.
    AtFirstRecipeRewrite,
    /// Everything re-targeted and flushed, no old container deleted yet.
    AtFirstContainerDelete,
    /// Compaction complete, the closing commit never ran.
    BeforeCommit,
}

/// A store with a sparse container — stream 0 retired, stream 1 still
/// holding its first half — on which `mhd compact` was killed at `kill`.
/// Returns the root and what stream 1 must restore to.
fn torn_compact(tag: &str, kill: CompactKill) -> (PathBuf, Vec<u8>) {
    let root = temp_root(tag);
    let first = xorshift_bytes(60_000, 31);
    let second = [&first[..30_000], &xorshift_bytes(30_000, 32)[..]].concat();
    backup(FrontEnd::Cli, &root, &first);
    backup(FrontEnd::Cli, &root, &second);
    let mut store = cli_open(&root);
    gc::delete_stream(store.engine.substrate_mut(), "t_d-0").unwrap();
    store.commit().unwrap();
    drop(store);

    let new_store = StoreMeta { ecs: 512, sd: 8, streams: 0, chunker: ChunkerKind::Rabin };
    let mut store = statefile::open_write(&root, new_store, IoConfig::default(), |b| {
        FaultBackend::with_point(b, FaultPoint::never())
    })
    .unwrap();
    let fault = |store: &mut OpenedStore<FaultBackend<BatchedDirBackend>>, op, kind| {
        store.engine.substrate_mut().backend_mut().arm(FaultPoint {
            op,
            kind: Some(kind),
            fail_at: 0,
        });
    };
    match kill {
        CompactKill::AfterStage => {
            let staged = compact::stage(store.engine.substrate_mut(), 0.95).unwrap();
            drop(staged);
        }
        CompactKill::AtFirstRecipeRewrite => {
            fault(&mut store, FaultOp::Write, FileKind::FileManifest);
            assert!(store.compact(0.95).is_err(), "{kill:?}: the fault must hit");
        }
        CompactKill::AtFirstContainerDelete => {
            fault(&mut store, FaultOp::Delete, FileKind::DiskChunk);
            assert!(store.compact(0.95).is_err(), "{kill:?}: the fault must hit");
        }
        CompactKill::BeforeCommit => {
            let report = store.compact(0.95).unwrap();
            assert!(report.containers_compacted > 0, "the store must have a sparse container");
        }
    }
    // The kill: whatever reached the backend stays, nothing else happens.
    drop(store);
    (root, second)
}

#[test]
fn compact_torn_anywhere_loses_no_committed_stream() {
    use CompactKill::*;
    for reader in [FrontEnd::Cli, FrontEnd::Daemon] {
        for kill in [AfterStage, AtFirstRecipeRewrite, AtFirstContainerDelete, BeforeCommit] {
            let what = format!("compact killed {kill:?}, opened by {reader:?}");
            let (root, second) = torn_compact(&format!("compact-{kill:?}-{reader:?}"), kill);
            let (recovery, problems) = match reader {
                FrontEnd::Cli => {
                    let mut opened = cli_open(&root);
                    let report = check_store(opened.engine.substrate_mut());
                    (opened.recovery, report.problems)
                }
                FrontEnd::Daemon => {
                    let store = daemon_open(&root);
                    (store.recovery().clone(), store.fsck().problems)
                }
            };
            // Only a container no recipe points into yet may be rolled back.
            assert_eq!(recovery.recipes_rolled_back, 0, "{what}: {recovery}");
            assert_eq!(
                recovery.chunks_rolled_back,
                u64::from(matches!(kill, AfterStage)),
                "{what}: {recovery}"
            );
            assert!(problems.is_empty(), "{what}: fsck: {problems:?}");
            assert_eq!(recipes(&root), vec!["t_d-1_f0".to_string()], "{what}");
            let restored =
                restore_file(&mut statefile::read_view(&root).unwrap(), "t/d-1/f0").unwrap();
            assert_eq!(restored, second, "{what}: stream 1 must survive");

            // The store is not wedged: it takes a stream, compacts to the
            // end and stays sound.
            let grown = backup(reader, &root, &second);
            assert!(grown < second.len() as u64 / 5, "{what}: must still dedup (grew {grown})");
            let mut store = cli_open(&root);
            store.compact(0.95).unwrap();
            store.commit().unwrap();
            let report = check_store(store.engine.substrate_mut());
            assert!(report.is_healthy(), "{what}: fsck after re-compact: {:?}", report.problems);
            for name in ["t/d-1/f0", "t/d-2/f0"] {
                let restored = restore_file(store.engine.substrate_mut(), name).unwrap();
                assert_eq!(restored, second, "{what}: {name} after re-compact");
            }
            drop(store);
            std::fs::remove_dir_all(&root).unwrap();
        }
    }
}

#[test]
fn stores_interchange_with_identical_totals() {
    let (first, second) = (xorshift_bytes(60_000, 21), xorshift_bytes(60_000, 22));
    let mut totals = Vec::new();
    for order in [[FrontEnd::Cli, FrontEnd::Daemon], [FrontEnd::Daemon, FrontEnd::Cli]] {
        let root = temp_root(&format!("interchange-{:?}", order[0]));
        backup(order[0], &root, &first);
        backup(order[1], &root, &second);
        let state = statefile::load_state(&root).unwrap().unwrap();
        let stats = daemon_open(&root).stats();
        assert_eq!(stats.input_bytes, state.input_bytes);
        assert_eq!(stats.stored_bytes, state.substrate.ledger.total_output_bytes());
        assert_eq!(stats.streams, 2);
        totals.push((state.input_bytes, state.chunks_stored, stats.stored_bytes));
        std::fs::remove_dir_all(&root).unwrap();
    }
    assert_eq!(totals[0], totals[1], "either order of front ends stores the same");
}

/// Opens through the shared write-open with a counting layer under the
/// engine; returns how many Hook objects the open itself read.
fn hook_reads_at_open(root: &Path) -> u64 {
    let new_store = StoreMeta { ecs: 512, sd: 8, streams: 0, chunker: ChunkerKind::Rabin };
    let mut opened = statefile::open_write(root, new_store, IoConfig::default(), |b| {
        FaultBackend::with_point(b, FaultPoint::read(Some(FileKind::Hook), u64::MAX))
    })
    .unwrap();
    opened.engine.substrate_mut().backend_mut().matching_ops()
}

#[test]
fn clean_reopen_reads_no_hook() {
    let (_, first, second) = stream_pairs().swap_remove(0);
    let root = temp_root("cleanopen");
    backup(FrontEnd::Cli, &root, &first);
    backup(FrontEnd::Daemon, &root, &second);
    let hooks = statefile::read_view(&root).unwrap().backend_mut().list(FileKind::Hook);
    assert!(!hooks.is_empty(), "the store must have hooks to not read");
    assert_eq!(hook_reads_at_open(&root), 0, "a clean open must not walk the hooks");
    std::fs::remove_dir_all(&root).unwrap();

    // The counter is live: a torn store does read them.
    let root = torn_store("tornopen", FrontEnd::Cli, &first, &second, true);
    assert!(hook_reads_at_open(&root) > 0);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn read_view_leaves_wip_records_and_tmp_files_alone() {
    let (_, first, _) = stream_pairs().swap_remove(0);
    let root = temp_root("readview");
    backup(FrontEnd::Cli, &root, &first);
    statefile::wip_begin(&root, Durability::Rename, "t/live").unwrap();
    let debris = [root.join("chunks/.00000000000000ff.tmp"), root.join("session/.state.json.tmp")];
    for path in &debris {
        std::fs::write(path, b"half a write").unwrap();
    }

    // What `mhd ls` / `mhd restore` (and the daemon's LS / RESTORE) run.
    assert_eq!(recipes(&root), vec!["t_d-0_f0".to_string()]);
    let restored = restore_file(&mut statefile::read_view(&root).unwrap(), "t/d-0/f0").unwrap();
    assert_eq!(restored, first);
    assert!(statefile::load_state(&root).unwrap().is_some());

    assert!(statefile::wip_dir(&root).join("t_live").exists(), "wip record must survive a read");
    for path in &debris {
        assert!(path.exists(), "{} must survive a read", path.display());
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// Nor does a read create anything: over a store missing its Hook log, a
/// listing and a restore leave it absent, and make no `intent/` either.
#[test]
fn read_view_creates_no_directory() {
    let (_, first, _) = stream_pairs().swap_remove(0);
    let root = temp_root("readview-nodirs");
    backup(FrontEnd::Cli, &root, &first);
    let gone = [root.join("intent"), root.join(FileKind::Hook.dir_name())];
    assert!(!gone[0].exists(), "a write-open makes no intent/");
    std::fs::remove_file(&gone[1]).unwrap();

    assert_eq!(recipes(&root), vec!["t_d-0_f0".to_string()]);
    let restored = restore_file(&mut statefile::read_view(&root).unwrap(), "t/d-0/f0").unwrap();
    assert_eq!(restored, first);
    for dir in &gone {
        assert!(!dir.exists(), "{} must not be created by a read", dir.display());
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// A store as an older build left it — one file per Hook under `hooks/`,
/// no writer lock — opens under either front end: its Hooks move into the
/// log once, one more backup deduplicates against the old data, the deep
/// scrub is clean and every stream restores byte-exactly.
#[test]
fn an_older_stores_hook_files_move_into_the_log_once() {
    let (first, second) = (xorshift_bytes(60_000, 41), xorshift_bytes(60_000, 42));
    for reader in [FrontEnd::Cli, FrontEnd::Daemon] {
        let root = temp_root(&format!("upgrade-{reader:?}"));
        backup(FrontEnd::Cli, &root, &first);
        backup(FrontEnd::Daemon, &root, &second);
        let mut view = statefile::read_view(&root).unwrap();
        let hooks: Vec<(String, Vec<u8>)> = view
            .backend_mut()
            .list(FileKind::Hook)
            .into_iter()
            .map(|name| {
                let payload = view.backend_mut().get(FileKind::Hook, &name).unwrap().to_vec();
                (name, payload)
            })
            .collect();
        assert!(hooks.len() > 2, "the store must have Hooks to move");
        let log = root.join(FileKind::Hook.dir_name());
        std::fs::remove_file(&log).unwrap();
        std::fs::remove_file(root.join("session/lock")).unwrap();
        std::fs::create_dir(&log).unwrap();
        for (name, payload) in &hooks {
            std::fs::write(log.join(name), payload).unwrap();
        }

        // The retaken third stream repeats the first: it must dedup
        // against Hooks only the old files held.
        let grown = backup(reader, &root, &first);
        assert!(grown < first.len() as u64 / 5, "{reader:?}: grew {grown} against the old Hooks");
        assert!(log.is_file() && !root.join(".hooks.old").exists(), "{reader:?}");
        let mut opened = cli_open(&root);
        let moved: Vec<String> = hooks.iter().map(|(name, _)| name.clone()).collect();
        let backend = opened.engine.substrate_mut().backend_mut();
        assert!(moved.iter().all(|name| backend.exists(FileKind::Hook, name)), "{reader:?}");
        let mut report = check_store(opened.engine.substrate_mut());
        report.problems.extend(mhd_core::fsck::scrub(opened.engine.substrate_mut()).problems);
        assert!(report.is_healthy(), "{reader:?}: {:?}", report.problems);
        drop(opened);
        for (n, data) in [(0, &first), (1, &second), (2, &first)] {
            let name = format!("{}/f0", stream(n));
            let restored = restore_file(&mut statefile::read_view(&root).unwrap(), &name).unwrap();
            assert_eq!(&restored, data, "{reader:?}: {name}");
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}

/// A store an older build left with an `intent/` directory, holding an
/// overwrite record of a Manifest rewrite, opens under either front end:
/// reads leave the directory alone, the first write-open removes it
/// without counting anything as recovered, the deep scrub is clean and
/// every stream restores byte-exactly.
#[test]
fn an_older_stores_intent_directory_is_removed_at_write_open() {
    let (first, second) = (xorshift_bytes(60_000, 51), xorshift_bytes(60_000, 52));
    for reader in [FrontEnd::Cli, FrontEnd::Daemon] {
        let root = temp_root(&format!("intent-{reader:?}"));
        backup(FrontEnd::Cli, &root, &first);
        let intents = root.join("intent");
        assert!(!intents.exists(), "{reader:?}: a new store has no intent/");
        let manifest = statefile::read_view(&root).unwrap().backend_mut().list(FileKind::Manifest);
        let record = format!("manifests__{}", manifest[0]);
        std::fs::create_dir(&intents).unwrap();
        std::fs::write(intents.join(record), manifest[0].as_bytes()).unwrap();
        assert_eq!(recipes(&root), vec!["t_d-0_f0".to_string()]);
        assert!(intents.exists(), "{reader:?}: a read leaves intent/ alone");

        let recovery = match reader {
            FrontEnd::Cli => cli_open(&root).recovery,
            FrontEnd::Daemon => daemon_open(&root).recovery().clone(),
        };
        assert!(recovery.is_clean(), "{reader:?}: {recovery}");
        assert!(!intents.exists(), "{reader:?}: the write-open removes intent/");
        backup(reader, &root, &second);
        assert!(!intents.exists(), "{reader:?}");

        let mut opened = cli_open(&root);
        let mut report = check_store(opened.engine.substrate_mut());
        report.problems.extend(mhd_core::fsck::scrub(opened.engine.substrate_mut()).problems);
        assert!(report.is_healthy(), "{reader:?}: {:?}", report.problems);
        drop(opened);
        for (n, data) in [(0, &first), (1, &second)] {
            let name = format!("{}/f0", stream(n));
            let restored = restore_file(&mut statefile::read_view(&root).unwrap(), &name).unwrap();
            assert_eq!(&restored, data, "{reader:?}: {name}");
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}

/// A write-open drops a torn last Hook record — the append a kill cut
/// short — and the store checks clean; a flipped byte inside a committed
/// record fails the open (and so `mhd fsck`) naming the log and the
/// record, and no Hook is dropped.
#[test]
fn a_torn_hook_record_is_dropped_and_a_damaged_one_is_reported() {
    let (_, first, second) = stream_pairs().swap_remove(0);
    let root = temp_root("hook-records");
    backup(FrontEnd::Cli, &root, &first);
    backup(FrontEnd::Cli, &root, &second);
    let log = root.join(FileKind::Hook.dir_name());
    let whole = std::fs::read(&log).unwrap();
    let hooks = statefile::read_view(&root).unwrap().backend_mut().count(FileKind::Hook);

    // A torn append: the first 30 bytes of a record.
    let record = whole[8..8 + 72].to_vec();
    std::fs::write(&log, [&whole[..], &record[..30]].concat()).unwrap();
    let mut opened = cli_open(&root);
    assert_eq!(opened.recovery.tmp_files_removed, 1, "{}", opened.recovery);
    assert!(check_store(opened.engine.substrate_mut()).is_healthy());
    assert_eq!(opened.engine.substrate_mut().backend_mut().count(FileKind::Hook), hooks);
    drop(opened);
    // Rewritten in name order, without the torn record.
    let rewritten = std::fs::read(&log).unwrap();
    assert_eq!(rewritten.len(), whole.len(), "the torn record is gone from the log");
    let whole = rewritten;

    // Damage inside the second record.
    let mut damaged = whole.clone();
    damaged[8 + 72 + 30] ^= 0x01;
    std::fs::write(&log, &damaged).unwrap();
    let new_store = StoreMeta { ecs: 512, sd: 8, streams: 0, chunker: ChunkerKind::Rabin };
    let err = statefile::open_write(&root, new_store, IoConfig::default(), |b| b).err().unwrap();
    let want = format!("{}: record 1 at byte 80: checksum mismatch", log.display());
    assert!(err.to_string().contains(&want), "{err}");
    assert!(std::fs::read(&log).unwrap() == damaged, "a damaged log is left as it is");
    std::fs::remove_dir_all(&root).unwrap();
}

/// Rewrites the store at `root` in the layout an older build left: one
/// file per object under `hooks/`, `manifests/` and `file_manifests/`,
/// and no writer lock.
fn to_older_layout(root: &Path) {
    let mut view = statefile::read_view(root).unwrap();
    for kind in [FileKind::Hook, FileKind::Manifest, FileKind::FileManifest] {
        let objects: Vec<(String, Vec<u8>)> = view
            .backend_mut()
            .list(kind)
            .into_iter()
            .map(|name| {
                let data = view.backend_mut().get(kind, &name).unwrap().to_vec();
                (name, data)
            })
            .collect();
        assert!(!objects.is_empty(), "the store must have {kind:?}s to move");
        let dir = root.join(kind.dir_name());
        std::fs::remove_file(&dir).unwrap();
        std::fs::create_dir(&dir).unwrap();
        for (name, data) in &objects {
            std::fs::write(dir.join(name), data).unwrap();
        }
    }
    std::fs::remove_file(root.join("session/lock")).unwrap();
}

/// Every stream of `streams` lists and restores byte-exactly through the
/// read view (what `mhd ls` and `mhd restore` run).
fn assert_streams(root: &Path, streams: &[(String, &Vec<u8>)], what: &str) {
    let mut want: Vec<String> = streams.iter().map(|(name, _)| name.replace('/', "_")).collect();
    want.sort();
    assert_eq!(recipes(root), want, "{what}: ls");
    for (name, data) in streams {
        let restored = restore_file(&mut statefile::read_view(root).unwrap(), name)
            .unwrap_or_else(|e| panic!("{what}: {name}: {e}"));
        assert_eq!(&restored, *data, "{what}: {name}");
    }
}

/// A store as an older build left it — one file per Hook, Manifest and
/// recipe — lists and restores every stream byte-exactly before anything
/// opens it for writes, and again after: the first write-open, by either
/// front end, moves all three directories into their logs, and one more
/// backup deduplicates against the old data with a clean deep scrub.
#[test]
fn an_older_stores_object_files_move_into_their_logs_once() {
    let (first, second) = (xorshift_bytes(60_000, 71), xorshift_bytes(60_000, 72));
    for writer in [FrontEnd::Cli, FrontEnd::Daemon] {
        let what = format!("older store opened by {writer:?}");
        let root = temp_root(&format!("upgrade-all-{writer:?}"));
        backup(FrontEnd::Cli, &root, &first);
        backup(FrontEnd::Daemon, &root, &second);
        to_older_layout(&root);
        let older = [(format!("{}/f0", stream(0)), &first), (format!("{}/f0", stream(1)), &second)];
        assert_streams(&root, &older, &format!("{what}, before"));
        for kind in [FileKind::Hook, FileKind::Manifest, FileKind::FileManifest] {
            assert!(root.join(kind.dir_name()).is_dir(), "{what}: a read moved {kind:?}");
        }

        let grown = backup(writer, &root, &first);
        assert!(grown < first.len() as u64 / 5, "{what}: grew {grown} against the old objects");
        for kind in [FileKind::Hook, FileKind::Manifest, FileKind::FileManifest] {
            let (log, parked) =
                (root.join(kind.dir_name()), root.join(format!(".{}.old", kind.dir_name())));
            assert!(log.is_file() && !parked.exists(), "{what}: {kind:?}");
        }
        let mut opened = cli_open(&root);
        let mut report = check_store(opened.engine.substrate_mut());
        report.problems.extend(mhd_core::fsck::scrub(opened.engine.substrate_mut()).problems);
        assert!(report.is_healthy(), "{what}: {:?}", report.problems);
        drop(opened);
        let after = [older[0].clone(), older[1].clone(), (format!("{}/f0", stream(2)), &first)];
        assert_streams(&root, &after, &format!("{what}, after"));
        std::fs::remove_dir_all(&root).unwrap();
    }
}

/// What the crash matrix kills half-way.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Killed {
    /// A backup whose stream re-chunks an older one (HHR).
    Backup,
    /// `mhd compact` of a store with a sparse container.
    Compact,
    /// A GC of a store whose first stream's recipes are gone.
    Gc,
}

/// A store ready for `op`, the streams acknowledged on it, and what the
/// op backs up (for [`Killed::Backup`]).
fn matrix_store(root: &Path, op: Killed) -> (Vec<(String, Vec<u8>)>, Vec<u8>) {
    let name = |n: u64| format!("{}/f0", stream(n));
    match op {
        Killed::Backup => {
            let (original, edited) = hhr_pair_bytes();
            backup(FrontEnd::Cli, root, &original);
            (vec![(name(0), original)], edited)
        }
        Killed::Compact | Killed::Gc => {
            // For a compaction, stream 1 keeps half of stream 0's
            // container alive; for a GC, nothing of it.
            let first = xorshift_bytes(60_000, 81);
            let second = match op {
                Killed::Compact => [&first[..30_000], &xorshift_bytes(30_000, 82)[..]].concat(),
                _ => xorshift_bytes(60_000, 83),
            };
            backup(FrontEnd::Cli, root, &first);
            backup(FrontEnd::Cli, root, &second);
            let mut store = cli_open(root);
            let substrate = store.engine.substrate_mut();
            match op {
                Killed::Compact => drop(gc::delete_stream(substrate, "t_d-0").unwrap()),
                // The recipes only: the GC under test finds the garbage.
                _ => substrate.delete_file_manifest("t_d-0_f0").unwrap(),
            }
            store.commit().unwrap();
            (vec![(name(1), second)], Vec::new())
        }
    }
}

/// Runs `op` through `front` with the `nth` physical write from now torn
/// half-way, copies the store to `image` as the op left it, then drops
/// the front end, whose drop flushes what it still holds. `image` is the
/// store a kill at that write leaves; `root` is the one an error that
/// the process survived leaves. Returns whether the op completed, and
/// the stream it acknowledged if it backed one up.
fn run_torn(
    front: FrontEnd,
    op: Killed,
    root: &Path,
    image: &Path,
    nth: u64,
    data: &[u8],
) -> (bool, Vec<String>) {
    match front {
        FrontEnd::Cli => {
            let mut store = cli_open(root);
            store.engine.substrate_mut().backend_mut().fault_short_write_at(nth);
            let name = stream(store.meta.streams);
            let done = match op {
                Killed::Backup => {
                    let path = format!("{name}/f0");
                    let files = vec![FileEntry { path, data: Bytes::copy_from_slice(data) }];
                    store.begin_stream(&name).is_ok()
                        && store
                            .engine
                            .process_snapshot(&Snapshot { machine: 0, day: 0, files })
                            .is_ok()
                        && {
                            store.meta.streams += 1;
                            store.commit().is_ok()
                        }
                }
                Killed::Compact => store.compact(0.95).is_ok() && store.commit().is_ok(),
                Killed::Gc => {
                    gc::collect(store.engine.substrate_mut()).is_ok() && store.commit().is_ok()
                }
            };
            let acknowledged = match (done, op) {
                (true, Killed::Backup) => vec![format!("{name}/f0")],
                _ => Vec::new(),
            };
            copy_tree(root, image);
            (done, acknowledged)
        }
        FrontEnd::Daemon => {
            let store = daemon_open(root);
            store.tear_write_at(nth);
            let label = format!("d-{}", store.stats().streams);
            let ran = match op {
                Killed::Backup => {
                    let mut session = store.begin_session("t", &label).unwrap();
                    session.stage("f0", data).unwrap();
                    match store.commit(session) {
                        Ok(_) => (true, vec![format!("t/{label}/f0")]),
                        Err(_) => (false, Vec::new()),
                    }
                }
                Killed::Gc => (store.gc().is_ok(), Vec::new()),
                Killed::Compact => unreachable!("the daemon has no compact verb"),
            };
            copy_tree(root, image);
            ran
        }
    }
}

/// The crash matrix over the logs: a write torn half-way at every
/// physical write of a backup with HHR, a compaction and a GC, each
/// through every front door that runs it. Both the store the kill left
/// and the one the surviving process left after its error are recovered
/// by whichever front end opens them next (alternating): fsck is clean
/// and every acknowledged stream restores byte-exactly. A completed run
/// ends the matrix, so each one covers every write the op makes.
#[test]
fn a_write_torn_anywhere_in_a_backup_compact_or_gc_loses_no_acknowledged_stream() {
    let runs = [
        (FrontEnd::Cli, Killed::Backup),
        (FrontEnd::Daemon, Killed::Backup),
        (FrontEnd::Cli, Killed::Compact),
        (FrontEnd::Cli, Killed::Gc),
        (FrontEnd::Daemon, Killed::Gc),
    ];
    for (front, op) in runs {
        let base = temp_root(&format!("matrix-{front:?}-{op:?}"));
        let (acknowledged, data) = matrix_store(&base, op);
        let mut crashes = 0u64;
        loop {
            let root = temp_root(&format!("matrix-{front:?}-{op:?}-run"));
            let image = temp_root(&format!("matrix-{front:?}-{op:?}-image"));
            copy_tree(&base, &root);
            let (done, newly) = run_torn(front, op, &root, &image, crashes, &data);
            let mut streams: Vec<(String, &Vec<u8>)> =
                acknowledged.iter().map(|(name, data)| (name.clone(), data)).collect();
            streams.extend(newly.into_iter().map(|name| (name, &data)));
            // Each store is opened first by the front end the other is
            // not, alternating across the matrix.
            let doors = [FrontEnd::Cli, FrontEnd::Daemon];
            for (store, left) in [(&image, "killed"), (&root, "survived")] {
                let what = format!("{op:?} through {front:?}, write {crashes} torn, {left}");
                let opener = doors[(crashes as usize + usize::from(store == &root)) % 2];
                let problems = match opener {
                    FrontEnd::Cli => check_store(cli_open(store).engine.substrate_mut()).problems,
                    FrontEnd::Daemon => daemon_open(store).fsck().problems,
                };
                assert!(problems.is_empty(), "{what}, opened by {opener:?}: {problems:?}");
                for (name, bytes) in &streams {
                    let restored = restore_file(&mut statefile::read_view(store).unwrap(), name)
                        .unwrap_or_else(|e| panic!("{what}: {name}: {e}"));
                    assert_eq!(&restored, *bytes, "{what}: {name}");
                }
                std::fs::remove_dir_all(store).unwrap();
            }
            if done {
                break;
            }
            crashes += 1;
        }
        assert!(crashes >= 2, "{op:?} through {front:?} made {crashes} writes: proves nothing");
        std::fs::remove_dir_all(&base).unwrap();
    }
}

/// Copies a store, directories included.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}
