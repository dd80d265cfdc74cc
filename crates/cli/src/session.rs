//! A durable, resumable MHD session over a directory store.
//!
//! The store layout is the paper's four hash-addressable namespaces (via
//! [`BatchedDirBackend`]) plus the `session/` state files and `daemon/wip/`
//! intent records that [`mhd_core::statefile`] owns — the same module
//! `mhd serve` opens, recovers and persists through, so a stopped daemon
//! store opens as a plain CLI session and vice versa; the order of a
//! stream's steps (wip record, write, persist, retire) is
//! [`OpenedStore`]'s. What is the CLI's own here: the note about kept
//! parameters, the `label-N` stream naming, and the `mhd-obs` files
//! (`session/internals.json`, `session/trace.jsonl`)
//! a mutating command leaves for `mhd stats --internals` / `mhd trace`.
//!
//! The read-only verbs (`restore`, `ls`, `stats`, `trace`) do not open a
//! session at all: they read through [`statefile::read_view`] and
//! [`statefile::load_state`], which mutate nothing.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use mhd_chunking::ChunkerKind;
use mhd_core::statefile::{self, OpenedStore, RecoverySummary, StoreMeta};
use mhd_core::Deduplicator;
use mhd_store::{safe_name, BatchedDirBackend, Durability, FileKind, IoConfig, Substrate};
use mhd_workload::{FileEntry, Snapshot};

type BoxResult<T> = Result<T, Box<dyn std::error::Error>>;

/// A store opened for writes: engine + persisted configuration.
pub struct Session {
    store: OpenedStore<BatchedDirBackend>,
    root: PathBuf,
    durability: Durability,
}

/// Fails unless `root` holds a store some front end has persisted.
pub fn require_store(root: &Path) -> BoxResult<StoreMeta> {
    statefile::load_meta(root)?
        .ok_or_else(|| format!("{} is not an mhd store", root.display()).into())
}

impl Session {
    /// Opens (or initialises) the store at `root` for writes.
    ///
    /// `ecs`/`sd`/`chunker` apply only when the store is new; an existing
    /// store keeps its original parameters (changing the chunking of a live
    /// store would silently break deduplication against old data). `io`
    /// tunes the batched backend (worker threads, batch sizes, durability)
    /// and applies per invocation.
    ///
    /// Opening always recovers first ([`statefile::open_write`]): writes
    /// that were in flight when a previous process died, and every object
    /// above the commit watermark, are rolled back before the engine reads
    /// a byte.
    pub fn open_with(
        root: &Path,
        ecs: usize,
        sd: usize,
        chunker: ChunkerKind,
        io: IoConfig,
    ) -> BoxResult<Self> {
        let asked = StoreMeta { ecs, sd, streams: 0, chunker };
        let store = statefile::open_write(root, asked, io, |backend| backend)?;
        let meta = store.meta;
        if (meta.ecs, meta.sd, meta.chunker) != (ecs, sd, chunker) {
            eprintln!(
                "note: store was created with --ecs {} --sd {} --chunker {}; keeping those",
                meta.ecs, meta.sd, meta.chunker
            );
        }
        if !store.recovery.is_clean() {
            eprintln!("note: recovered store: {}", store.recovery);
        }
        Ok(Session { store, root: root.to_path_buf(), durability: io.durability })
    }

    /// Opens an existing store for maintenance (`fsck`, `rm`, `gc`, …)
    /// under its own parameters.
    pub fn open_existing(root: &Path) -> BoxResult<Self> {
        let meta = require_store(root)?;
        Self::open_with(root, meta.ecs, meta.sd, meta.chunker, IoConfig::default())
    }

    /// What recovery found and undid when this session opened.
    pub fn recovery(&self) -> &RecoverySummary {
        &self.store.recovery
    }

    /// Index for the next backup stream (for default labels).
    pub fn next_stream_index(&self) -> u64 {
        self.store.meta.streams
    }

    /// Current total output (data + metadata) bytes.
    pub fn ledger_output_bytes(&self) -> u64 {
        self.store.engine.substrate().ledger().total_output_bytes()
    }

    /// Deduplicates one snapshot into the store as `stream` (the prefix,
    /// without trailing `/`, every recipe name of `snapshot` starts with),
    /// under a wip record that [`Session::close`] retires.
    pub fn backup(&mut self, stream: &str, snapshot: &Snapshot) -> BoxResult<()> {
        self.store.begin_stream(stream)?;
        self.store.engine.process_snapshot(snapshot)?;
        self.store.meta.streams += 1;
        Ok(())
    }

    /// Flushes dirty state and persists the session.
    pub fn close(mut self) -> BoxResult<()> {
        self.store.commit()?;
        let aside = |file: &str, data: &[u8]| {
            mhd_store::write_atomic(&self.root.join(file), data, self.durability)
        };
        // Persist this process's internal metrics so `mhd stats
        // --internals` can show what the last mutating run did.
        let snap = mhd_obs::snapshot();
        if !snap.is_empty() {
            aside(INTERNALS_FILE, serde_json::to_string_pretty(&snap)?.as_bytes())?;
        }
        // Likewise the trace (when `--trace` armed it), for `mhd trace`.
        let records = mhd_obs::trace_drain();
        if !records.is_empty() {
            aside(TRACE_FILE, mhd_obs::trace_to_jsonl(&records).as_bytes())?;
        }
        Ok(())
    }

    /// The store's substrate, for the maintenance passes (`fsck`, `gc`, …)
    /// that need nothing else of a session.
    pub fn substrate(&mut self) -> &mut Substrate<BatchedDirBackend> {
        self.store.engine.substrate_mut()
    }

    /// Rewrites containers whose live fraction is below `threshold`.
    pub fn compact(&mut self, threshold: f64) -> BoxResult<mhd_core::compact::CompactReport> {
        Ok(self.store.compact(threshold)?)
    }
}

const INTERNALS_FILE: &str = "session/internals.json";
const TRACE_FILE: &str = "session/trace.jsonl";

/// Reads `root/file`: `None` when it does not exist; any other failure
/// is an error naming the file.
fn read_session_file(root: &Path, file: &str) -> BoxResult<Option<String>> {
    match std::fs::read_to_string(root.join(file)) {
        Ok(data) => Ok(Some(data)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("read {file}: {e}").into()),
    }
}

/// The `mhd-obs` snapshot persisted by the last mutating command
/// (`None` when no such command has run against this store; an error
/// when the file is there but cannot be read or parsed).
pub fn load_internals(root: &Path) -> BoxResult<Option<mhd_obs::Snapshot>> {
    let Some(data) = read_session_file(root, INTERNALS_FILE)? else { return Ok(None) };
    serde_json::from_str(&data).map(Some).map_err(|e| format!("parse {INTERNALS_FILE}: {e}").into())
}

/// The trace persisted by the last `backup --trace` run (`None` when no
/// traced command has run against this store; an error naming the line
/// when a line of the file does not parse).
pub fn load_trace(root: &Path) -> BoxResult<Option<Vec<mhd_obs::TraceRecord>>> {
    let Some(data) = read_session_file(root, TRACE_FILE)? else { return Ok(None) };
    mhd_obs::trace_from_jsonl(&data).map(Some).map_err(|e| format!("parse {TRACE_FILE} {e}").into())
}

/// Restores one file by recipe name, through the read view.
pub fn restore(root: &Path, name: &str) -> BoxResult<Vec<u8>> {
    require_store(root)?;
    Ok(mhd_core::restore::restore_file(&mut statefile::read_view(root)?, name)?)
}

/// Lists stored file recipes, through the read view.
pub fn list_files(root: &Path) -> BoxResult<Vec<String>> {
    require_store(root)?;
    let mut view = statefile::read_view(root)?;
    view.backend_mut().load(FileKind::FileManifest)?;
    Ok(view.list_file_manifests())
}

/// Builds a backup stream from a real directory: files are read in sorted
/// order, paths become recipe names under `label/`. A recipe is stored
/// under [`safe_name`] of its path, so two paths that sanitise to one
/// name (`sub/b.bin` and `sub_b.bin`) cannot both be backed up: that is
/// an error naming both, raised here, before the store is touched.
pub fn snapshot_from_dir(dir: &Path, label: &str) -> Result<Snapshot, Box<dyn std::error::Error>> {
    let mut files = Vec::new();
    let mut stored_as = BTreeMap::new();
    for (path, rel) in mhd_workload::trace::walk_dir(dir)? {
        if let Some(other) = stored_as.insert(safe_name(&rel), rel.clone()) {
            return Err(format!(
                "{other} and {rel} would both be stored as recipe {}; rename one of them",
                safe_name(&format!("{label}/{rel}"))
            )
            .into());
        }
        files.push(FileEntry {
            path: format!("{label}/{rel}"),
            data: Bytes::from(std::fs::read(&path)?),
        });
    }
    if files.is_empty() {
        return Err(format!("{} contains no files", dir.display()).into());
    }
    Ok(Snapshot { machine: 0, day: 0, files })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhd_workload::Rng;

    fn temp_root(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("mhd-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn write_tree(root: &Path, seed: u64) {
        let mut rng = Rng::new(seed);
        std::fs::create_dir_all(root.join("sub")).unwrap();
        for (name, len) in [("a.bin", 40_000usize), ("sub/b.bin", 25_000), ("c.txt", 100)] {
            std::fs::write(root.join(name), rng.bytes(len)).unwrap();
        }
    }

    /// Opens `root` as `mhd backup --ecs 512 --sd 8` would.
    fn open(root: &Path) -> Session {
        Session::open_with(root, 512, 8, ChunkerKind::Rabin, IoConfig::default()).unwrap()
    }

    /// One `mhd backup`: open, back up `src` as `label`, close. Returns
    /// (store growth, input bytes).
    fn backup_once(mut s: Session, src: &Path, label: &str) -> (u64, u64) {
        let before = s.ledger_output_bytes();
        let snap = snapshot_from_dir(src, label).unwrap();
        let input: u64 = snap.files.iter().map(|f| f.data.len() as u64).sum();
        s.backup(label, &snap).unwrap();
        let growth = s.ledger_output_bytes() - before;
        s.close().unwrap();
        (growth, input)
    }

    #[test]
    fn backup_restore_round_trip_with_resume() {
        let src = temp_root("src");
        let store = temp_root("store");
        write_tree(&src, 1);

        backup_once(open(&store), &src, "day0");
        // Second session (fresh process simulation): same content again —
        // the store must grow only marginally.
        let (growth, input) = backup_once(open(&store), &src, "day1");
        assert!(
            growth < input / 5,
            "resumed session must dedup against persisted state (grew {growth} of {input})"
        );
        assert!(std::fs::read_dir(statefile::wip_dir(&store)).unwrap().next().is_none());

        // Restore both days byte-exactly.
        for label in ["day0", "day1"] {
            let restored = restore(&store, &format!("{label}/a.bin")).unwrap();
            assert_eq!(restored, std::fs::read(src.join("a.bin")).unwrap());
        }
        let names = list_files(&store).unwrap();
        assert!(names.iter().any(|n| n.contains("day0") && n.contains("c.txt")));

        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(&store).unwrap();
    }

    #[test]
    fn report_reflects_persisted_state() {
        let src = temp_root("src2");
        let store = temp_root("store2");
        write_tree(&src, 2);
        backup_once(open(&store), &src, "d");

        let state = statefile::load_state(&store).unwrap().unwrap();
        assert!(state.input_bytes > 60_000);
        assert!(state.substrate.ledger.stored_data_bytes > 0);
        assert!(require_store(&src).is_err(), "a plain directory is not a store");

        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(&store).unwrap();
    }

    #[test]
    fn chunker_choice_persists_across_sessions() {
        let src = temp_root("src4");
        let store = temp_root("store4");
        write_tree(&src, 4);

        // Create the store with FastCDC.
        let s =
            Session::open_with(&store, 512, 8, ChunkerKind::FastCdc, IoConfig::default()).unwrap();
        backup_once(s, &src, "day0");

        // Reopen with the Rabin default: the store must keep FastCDC and
        // still dedup the identical content.
        let s = open(&store);
        assert_eq!(s.store.meta.chunker, ChunkerKind::FastCdc);
        let (growth, input) = backup_once(s, &src, "day1");
        assert!(growth < input / 5, "re-backup must dedup (grew {growth} of {input})");

        assert_eq!(require_store(&store).unwrap().chunker, ChunkerKind::FastCdc);
        let restored = restore(&store, "day1/a.bin").unwrap();
        assert_eq!(restored, std::fs::read(src.join("a.bin")).unwrap());

        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(&store).unwrap();
    }

    #[test]
    fn a_stream_name_is_taken_for_good() {
        let src = temp_root("src6");
        let store = temp_root("store6");
        write_tree(&src, 6);
        backup_once(open(&store), &src, "day0");

        let mut s = open(&store);
        let snap = snapshot_from_dir(&src, "day0").unwrap();
        assert!(s.backup("day0", &snap).is_err(), "the rollback prefix must stay unambiguous");
        assert!(std::fs::read_dir(statefile::wip_dir(&store)).unwrap().next().is_none());

        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(&store).unwrap();
    }

    #[test]
    fn snapshot_from_dir_requires_files() {
        let empty = temp_root("empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(snapshot_from_dir(&empty, "x").is_err());
        std::fs::remove_dir_all(&empty).unwrap();
    }
}
