//! Object storage backends.
//!
//! A [`Backend`] is a flat object store with four namespaces, one per
//! metadata [`FileKind`]. [`MemBackend`] keeps everything in RAM (the
//! default for experiments — the paper's numbers are counts and ratios, not
//! device latencies), while [`DirBackend`] lays the same objects out as
//! real files in a directory tree, mirroring the paper's "user space of the
//! Ext3 file system" prototypes. [`FaultBackend`] wraps another backend and
//! fails a chosen operation, for failure-injection tests.
//!
//! # Durability
//!
//! MHD's defining invariant is that only Manifest files are ever rewritten
//! (HHR) while DiskChunks and Hooks stay immutable, so the manifest rewrite
//! is the one place a crash or short write can corrupt a store.
//! [`DirBackend`] therefore never writes an object in place: a DiskChunk
//! lands in a hidden `.*.tmp` sibling and is atomically renamed over the
//! target, and Manifests, Hooks and recipes, which live in one log per
//! kind, are appended to it as checksummed records — a rewrite is a newer
//! record, and a torn append is dropped at the next open (see
//! `hook_log.rs`). A crash therefore leaves every object holding either
//! its old or its new bytes, and at most a tmp file or a torn log tail,
//! which [`DirBackend::recover`] removes: that is the rollback of a write
//! that never committed. The [`Durability`] level controls what happens
//! around that rename or append:
//!
//! * [`Durability::Rename`] — tmp + rename only: crash-consistent against
//!   process death.
//! * [`Durability::Fsync`] — additionally fsyncs the tmp file before the
//!   rename and the parent directory after it, and a log after each
//!   append, so a committed object survives power loss, not just process
//!   death.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use bytes::Bytes;

use crate::hook_log::{Log, Logs, Space, Unsynced};
use crate::{StoreError, StoreResult};

/// The four metadata file categories of the paper's system (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FileKind {
    /// Container of non-duplicate data bytes.
    DiskChunk,
    /// DiskChunkManifest: hash sequence describing one DiskChunk.
    Manifest,
    /// Sampled hash value pointing at one Manifest.
    Hook,
    /// Per-input-file reconstruction recipe.
    FileManifest,
}

impl FileKind {
    /// Directory name used by [`DirBackend`] for DiskChunks; for every
    /// other kind, the name of its log file.
    pub fn dir_name(&self) -> &'static str {
        match self {
            FileKind::DiskChunk => "chunks",
            FileKind::Manifest => "manifests",
            FileKind::Hook => "hooks",
            FileKind::FileManifest => "file_manifests",
        }
    }

    /// The kinds an object of this kind names, each of which must reach
    /// disk before it does: a Manifest and a FileManifest point into
    /// DiskChunks, a Hook at a Manifest. Exhaustive, so a new kind does
    /// not compile until its place in [`FLUSH_ORDER`](Self::FLUSH_ORDER)
    /// is stated here.
    pub const fn references(self) -> &'static [FileKind] {
        match self {
            FileKind::DiskChunk => &[],
            FileKind::Manifest => &[FileKind::DiskChunk],
            FileKind::Hook => &[FileKind::Manifest],
            FileKind::FileManifest => &[FileKind::DiskChunk],
        }
    }

    /// All categories, for iteration in reports.
    pub const ALL: [FileKind; 4] =
        [FileKind::DiskChunk, FileKind::Manifest, FileKind::Hook, FileKind::FileManifest];

    /// The order in which pending writes must reach disk so that a crash
    /// between any two operations leaves no dangling reference: every
    /// kind comes after the kinds it [`references`](Self::references).
    /// Flushing in this order means every object on disk only ever points
    /// at objects that are also on disk.
    pub const FLUSH_ORDER: [FileKind; 4] =
        [FileKind::DiskChunk, FileKind::Manifest, FileKind::Hook, FileKind::FileManifest];
}

/// How hard [`DirBackend`] tries to make each mutation durable. See the
/// module docs for what each level guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// tmp + atomic rename, nothing else.
    #[default]
    Rename,
    /// Like `Rename`, plus fsync of the object before the rename and of
    /// the parent directory after it (and after deletes).
    Fsync,
}

impl Durability {
    /// Parses a CLI-style level name (`rename`, `fsync`).
    pub fn parse(s: &str) -> Option<Durability> {
        match s {
            "rename" => Some(Durability::Rename),
            "fsync" => Some(Durability::Fsync),
            _ => None,
        }
    }

    /// The CLI-style level name.
    pub fn name(&self) -> &'static str {
        match self {
            Durability::Rename => "rename",
            Durability::Fsync => "fsync",
        }
    }
}

/// Outcome of a [`Backend::recover`] pass.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Torn writes undone: orphaned `.*.tmp` files removed (writes that
    /// never committed; the target object still holds its previous
    /// content), and torn tails dropped from the logs (appends that never
    /// completed; the records before them are intact).
    pub tmp_files_removed: usize,
}

impl RecoveryReport {
    /// True when the store was already clean (nothing was in flight).
    pub fn is_clean(&self) -> bool {
        self.tmp_files_removed == 0
    }
}

/// A flat object store. `put` creates (a new inode), `update` rewrites an
/// existing object in place, `get`/`get_range` read.
///
/// DiskChunks and Hooks are never updated by the engines — that invariant
/// lives in the typed stores layered on top, not here.
pub trait Backend {
    /// Creates a new object. Fails with [`StoreError::AlreadyExists`] if the
    /// name is taken.
    fn put(&mut self, kind: FileKind, name: &str, data: &[u8]) -> StoreResult<()>;

    /// Rewrites an existing object. Fails with [`StoreError::NotFound`] if
    /// absent.
    fn update(&mut self, kind: FileKind, name: &str, data: &[u8]) -> StoreResult<()>;

    /// Reads a whole object.
    fn get(&mut self, kind: FileKind, name: &str) -> StoreResult<Bytes>;

    /// Reads `len` bytes at `offset`.
    fn get_range(
        &mut self,
        kind: FileKind,
        name: &str,
        offset: u64,
        len: u64,
    ) -> StoreResult<Bytes>;

    /// Appends `len` bytes at `offset` to `out`: the read path of a restore,
    /// which builds one buffer from many ranges. Fails like
    /// [`get_range`](Backend::get_range) and leaves `out` as it was on any
    /// error. The default is `get_range` plus a copy; a backend that can
    /// read straight into `out`'s spare capacity overrides it.
    fn append_range(
        &mut self,
        kind: FileKind,
        name: &str,
        offset: u64,
        len: u64,
        out: &mut Vec<u8>,
    ) -> StoreResult<()> {
        out.extend_from_slice(&self.get_range(kind, name, offset, len)?);
        Ok(())
    }

    /// Object size in bytes, or `NotFound`.
    fn size_of(&mut self, kind: FileKind, name: &str) -> StoreResult<u64>;

    /// Existence check without error plumbing.
    fn exists(&mut self, kind: FileKind, name: &str) -> bool;

    /// Number of objects of `kind` (== inode count for that category).
    fn count(&mut self, kind: FileKind) -> u64;

    /// Names of all objects of `kind`, sorted (deterministic iteration for
    /// reports and restore).
    fn list(&mut self, kind: FileKind) -> Vec<String>;

    /// Deletes an object (garbage collection). Fails with
    /// [`StoreError::NotFound`] if absent.
    fn delete(&mut self, kind: FileKind, name: &str) -> StoreResult<()>;

    /// Makes every buffered mutation visible and durable (to the backend's
    /// configured [`Durability`]). A no-op for write-through backends.
    fn flush(&mut self) -> StoreResult<()> {
        Ok(())
    }

    /// Detects and rolls back mutations that were in flight when the store
    /// was last open (torn tmp files, torn log tails). A no-op for
    /// backends without crash state.
    fn recover(&mut self) -> StoreResult<RecoveryReport> {
        Ok(RecoveryReport::default())
    }
}

/// In-memory backend: a `BTreeMap` per [`FileKind`].
#[derive(Default)]
pub struct MemBackend {
    maps: [BTreeMap<String, Bytes>; 4],
}

impl MemBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    fn map(&self, kind: FileKind) -> &BTreeMap<String, Bytes> {
        &self.maps[kind as usize]
    }

    fn map_mut(&mut self, kind: FileKind) -> &mut BTreeMap<String, Bytes> {
        &mut self.maps[kind as usize]
    }

    /// Total bytes stored in a category (used by ledger cross-checks).
    pub fn bytes_of_kind(&self, kind: FileKind) -> u64 {
        self.map(kind).values().map(|v| v.len() as u64).sum()
    }
}

impl Backend for MemBackend {
    fn put(&mut self, kind: FileKind, name: &str, data: &[u8]) -> StoreResult<()> {
        let map = self.map_mut(kind);
        if map.contains_key(name) {
            return Err(StoreError::AlreadyExists { kind, name: name.to_string() });
        }
        map.insert(name.to_string(), Bytes::copy_from_slice(data));
        Ok(())
    }

    fn update(&mut self, kind: FileKind, name: &str, data: &[u8]) -> StoreResult<()> {
        let map = self.map_mut(kind);
        match map.get_mut(name) {
            Some(slot) => {
                *slot = Bytes::copy_from_slice(data);
                Ok(())
            }
            None => Err(StoreError::NotFound { kind, name: name.to_string() }),
        }
    }

    fn get(&mut self, kind: FileKind, name: &str) -> StoreResult<Bytes> {
        self.map(kind)
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::NotFound { kind, name: name.to_string() })
    }

    fn get_range(
        &mut self,
        kind: FileKind,
        name: &str,
        offset: u64,
        len: u64,
    ) -> StoreResult<Bytes> {
        let obj = self
            .map(kind)
            .get(name)
            .ok_or_else(|| StoreError::NotFound { kind, name: name.to_string() })?;
        let end = offset.checked_add(len).filter(|&e| e <= obj.len() as u64).ok_or(
            StoreError::OutOfRange { name: name.to_string(), offset, len, size: obj.len() as u64 },
        )?;
        Ok(obj.slice(offset as usize..end as usize))
    }

    fn size_of(&mut self, kind: FileKind, name: &str) -> StoreResult<u64> {
        self.map(kind)
            .get(name)
            .map(|v| v.len() as u64)
            .ok_or_else(|| StoreError::NotFound { kind, name: name.to_string() })
    }

    fn exists(&mut self, kind: FileKind, name: &str) -> bool {
        self.map(kind).contains_key(name)
    }

    fn count(&mut self, kind: FileKind) -> u64 {
        self.map(kind).len() as u64
    }

    fn list(&mut self, kind: FileKind) -> Vec<String> {
        self.map(kind).keys().cloned().collect()
    }

    fn delete(&mut self, kind: FileKind, name: &str) -> StoreResult<()> {
        self.map_mut(kind)
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StoreError::NotFound { kind, name: name.to_string() })
    }
}

/// Replaces path separators so object names map to single file names.
///
/// This is the canonical mapping from logical object names (which may
/// contain `/`, e.g. FileManifest recipe names like `m0/d0/file`) to the
/// flat per-kind directory namespace the directory backends store them
/// in. [`Backend::list`] returns names in *sanitised* form; `get`/`put`
/// sanitise again, so either form addresses the same object. Exported so
/// multi-tenant layers (the daemon) can compute tenant prefixes in the
/// same namespace the listings use.
pub fn safe_name(name: &str) -> String {
    name.chars().map(|c| if c == '/' || c == '\\' { '_' } else { c }).collect()
}

pub(crate) fn io_at(op: &'static str, path: &Path, source: std::io::Error) -> StoreError {
    StoreError::IoAt { op, path: path.display().to_string(), source }
}

thread_local! {
    /// Paths this thread fsynced since [`record_fsyncs`] armed it.
    static FSYNCED: RefCell<Option<Vec<PathBuf>>> = const { RefCell::new(None) };
}

/// Test hook, like [`DirBackend::fault_short_write_at`]: runs `f` and
/// returns every path it fsynced on this thread, in order, so the
/// `--durability fsync` call path can be asserted in any crate.
pub fn record_fsyncs(f: impl FnOnce()) -> Vec<PathBuf> {
    FSYNCED.set(Some(Vec::new()));
    f();
    FSYNCED.take().unwrap_or_default()
}

/// `sync_all` on an open file or directory handle — the only one in the
/// tree, so [`record_fsyncs`] sees every fsync.
pub fn fsync_file(file: &std::fs::File, path: &Path) -> StoreResult<()> {
    FSYNCED.with_borrow_mut(|armed| armed.iter_mut().for_each(|log| log.push(path.into())));
    file.sync_all().map_err(|e| io_at("fsync", path, e))
}

/// Opens the directory `dir` and fsyncs it.
pub fn fsync_dir(dir: &Path) -> StoreResult<()> {
    let handle = std::fs::File::open(dir).map_err(|e| io_at("open dir", dir, e))?;
    fsync_file(&handle, dir)
}

/// `path`'s directory and the hidden `.<name>.tmp` sibling a write lands
/// in before it is renamed over `path`.
pub(crate) fn tmp_sibling(path: &Path) -> StoreResult<(&Path, PathBuf)> {
    match (path.parent(), path.file_name().and_then(|n| n.to_str())) {
        (Some(dir), Some(name)) => Ok((dir, dir.join(format!(".{name}.tmp")))),
        _ => Err(StoreError::Corrupt(format!("{}: not a file path", path.display()))),
    }
}

/// Writes `data` to `path` through a hidden tmp sibling + atomic rename,
/// so the file can never be observed half-written; errors name the path.
/// Under [`Durability::Fsync`] the tmp file is synced before the rename
/// and the parent directory after it. Every object the directory
/// backends commit and every state file `mhd_core::statefile` persists
/// goes through here.
#[expect(clippy::disallowed_methods, reason = "the tmp + rename every commit goes through")]
pub fn write_atomic(path: &Path, data: &[u8], durability: Durability) -> StoreResult<()> {
    let (dir, tmp) = tmp_sibling(path)?;
    let mut file = std::fs::File::create(&tmp).map_err(|e| io_at("create", &tmp, e))?;
    file.write_all(data).map_err(|e| io_at("write", &tmp, e))?;
    if durability == Durability::Fsync {
        fsync_file(&file, &tmp)?;
    }
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| io_at("rename", path, e))?;
    if durability == Durability::Fsync {
        fsync_dir(dir)?;
    }
    Ok(())
}

/// The injected fault: half of `data` reaches `target`'s tmp sibling, the
/// rename never happens — a crash mid-write.
#[expect(clippy::disallowed_methods, reason = "the injected torn write leaves a half tmp file")]
pub(crate) fn torn_write(target: &Path, data: &[u8]) -> StoreError {
    if let Ok((_, tmp)) = tmp_sibling(target) {
        let _ = std::fs::write(&tmp, &data[..data.len() / 2]);
    }
    StoreError::Io(std::io::Error::other(format!("injected short write at {}", target.display())))
}

/// Directory-tree backend: `root/chunks/`, one file per DiskChunk, and
/// one append-only log per other kind — `root/manifests`, `root/hooks`
/// and `root/file_manifests` (`hook_log.rs`: every object one record of
/// its kind's log).
///
/// Object names become file and record names (names used by the
/// substrate are always hex strings or sanitised paths, so no escaping is
/// needed beyond `/` replacement). Temporary files are hidden (`.*.tmp`)
/// and never reported by [`Backend::list`]/[`Backend::count`].
///
/// The logged kinds are answered from their logs' in-memory indexes: a
/// put or an update appends one record, a `get` reads one record (a Hook
/// from RAM). A delete leaves the index at once and reaches the log with
/// the other deletes since, in one replacement of each log with deletes,
/// before the next log write, the next DiskChunk delete, a
/// [`flush`](Backend::flush) or a [`recover`](Backend::recover).
///
/// A clone is another handle on the same directory, sharing the fault
/// hook and the logs: the batched backend's pool workers each commit
/// DiskChunks through one, so there is one file-commit routine
/// (`DirBackend::commit`) however a write reaches the disk, and the
/// daemon's staging views read Manifests and recipes through one.
#[derive(Clone)]
pub struct DirBackend {
    root: PathBuf,
    durability: Durability,
    /// Test-only fault hook: physical writes left until one is torn
    /// half-way and fails (0 = disarmed).
    tear_in: Arc<AtomicU64>,
    /// The logs: loaded by [`create_with`](DirBackend::create_with), or at
    /// a reader's first access of each kind.
    logs: Arc<Mutex<Logs>>,
}

/// Where a handle finds one kind's objects.
enum Place {
    /// One file each, in this directory.
    Files(PathBuf),
    /// Records of the kind's log.
    Log,
}

impl DirBackend {
    /// Creates the directory layout under `root` with the default
    /// [`Durability::Rename`] level.
    pub fn create(root: impl Into<PathBuf>) -> StoreResult<Self> {
        Self::create_with(root, Durability::default())
    }

    /// Creates the directory layout under `root` with an explicit
    /// durability level, and loads the logs (moving an older store's
    /// per-object files into them first). A log damaged before its tail
    /// is an error naming it and the record.
    #[expect(clippy::disallowed_methods, reason = "creates the store layout")]
    pub fn create_with(root: impl Into<PathBuf>, durability: Durability) -> StoreResult<Self> {
        let backend = Self::with(root.into(), durability);
        let dir = backend.root.join(FileKind::DiskChunk.dir_name());
        std::fs::create_dir_all(&dir).map_err(|e| io_at("create dir", &dir, e))?;
        backend.logs().create()?;
        Ok(backend)
    }

    /// A handle on the layout under `root` that creates nothing, for
    /// readers: a missing chunk directory or log reads as empty, and reads
    /// of its objects fail with `NotFound`; an older store's directory of
    /// a logged kind is read file by file. Its durability is the default;
    /// writers come in through [`create_with`](DirBackend::create_with).
    pub fn open(root: impl Into<PathBuf>) -> Self {
        Self::with(root.into(), Durability::default())
    }

    fn with(root: PathBuf, durability: Durability) -> Self {
        let tear_in = Arc::<AtomicU64>::default();
        let logs = Logs::new(&root, durability, tear_in.clone());
        DirBackend { root, durability, tear_in, logs: Arc::new(Mutex::new(logs)) }
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A read-only handle on this directory that shares this handle's
    /// logs.
    pub fn reader(&self) -> DirReader {
        DirReader(self.clone())
    }

    /// Fault injection for crash tests: the `nth` physical file write
    /// from now (0-based, counted across DiskChunk files and log appends
    /// and replacements, on every clone) writes only half its bytes and
    /// then fails, simulating a crash mid-write. One-shot.
    pub fn fault_short_write_at(&mut self, nth: u64) {
        self.tear_in.store(nth + 1, Ordering::SeqCst);
    }

    /// Loads and indexes `kind`'s log now, checking every record, if this
    /// handle has not: a damaged log is an error here, where a listing or
    /// a count would read it as empty.
    pub fn load(&self, kind: FileKind) -> StoreResult<()> {
        match self.place(kind)? {
            Place::Log => self.with_log(kind, Log::check),
            Place::Files(_) => Ok(()),
        }
    }

    fn logs(&self) -> MutexGuard<'_, Logs> {
        self.logs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn place(&self, kind: FileKind) -> StoreResult<Place> {
        if kind == FileKind::DiskChunk {
            return Ok(Place::Files(self.root.join(kind.dir_name())));
        }
        Ok(match self.logs().space(kind)? {
            Space::Files(dir) => Place::Files(dir.clone()),
            Space::Log(_) => Place::Log,
        })
    }

    /// Runs `f` on `kind`'s log.
    fn with_log<R>(
        &self,
        kind: FileKind,
        f: impl FnOnce(&mut Log) -> StoreResult<R>,
    ) -> StoreResult<R> {
        f(self.logs().log(kind)?)
    }

    /// A batch of puts and updates of a logged kind, named by
    /// [`safe_name`], in one append to its log (or one replacement of
    /// it): how the batched backend flushes its pending Manifests, Hooks
    /// and recipes.
    pub(crate) fn commit_log(&self, kind: FileKind, writes: &[(String, Bytes)]) -> StoreResult<()> {
        let unsynced = self.logs().commit(kind, writes)?;
        unsynced.map_or(Ok(()), Unsynced::sync)
    }

    /// The atomic commit path of every DiskChunk `put` and `update`,
    /// pooled or not: [`write_atomic`]. The caller has checked existence.
    pub(crate) fn commit(&self, kind: FileKind, name: &str, data: &[u8]) -> StoreResult<()> {
        self.commit_file(&self.root.join(kind.dir_name()).join(safe_name(name)), data)
    }

    fn commit_file(&self, target: &Path, data: &[u8]) -> StoreResult<()> {
        let countdown =
            self.tear_in.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
        if countdown == Ok(1) {
            return Err(torn_write(target, data));
        }
        write_atomic(target, data, self.durability)
    }
}

/// A read-only handle on a [`DirBackend`]'s directory that shares its
/// logs (see [`DirBackend::reader`]): it answers the reads of
/// [`Backend`] and has no way to write, so what reads a writer's store
/// through it can never bypass the writer.
#[derive(Clone)]
pub struct DirReader(DirBackend);

impl DirReader {
    /// [`Backend::get`].
    pub fn get(&mut self, kind: FileKind, name: &str) -> StoreResult<Bytes> {
        self.0.get(kind, name)
    }

    /// [`Backend::get_range`].
    pub fn get_range(
        &mut self,
        kind: FileKind,
        name: &str,
        offset: u64,
        len: u64,
    ) -> StoreResult<Bytes> {
        self.0.get_range(kind, name, offset, len)
    }

    /// [`Backend::append_range`].
    pub fn append_range(
        &mut self,
        kind: FileKind,
        name: &str,
        offset: u64,
        len: u64,
        out: &mut Vec<u8>,
    ) -> StoreResult<()> {
        self.0.append_range(kind, name, offset, len, out)
    }

    /// [`Backend::size_of`].
    pub fn size_of(&mut self, kind: FileKind, name: &str) -> StoreResult<u64> {
        self.0.size_of(kind, name)
    }

    /// [`Backend::exists`].
    pub fn exists(&mut self, kind: FileKind, name: &str) -> bool {
        self.0.exists(kind, name)
    }

    /// [`Backend::count`].
    pub fn count(&mut self, kind: FileKind) -> u64 {
        self.0.count(kind)
    }

    /// [`Backend::list`].
    pub fn list(&mut self, kind: FileKind) -> Vec<String> {
        self.0.list(kind)
    }
}

/// Reads the file at `path`; `NotFound` names the object.
fn read_object(path: &Path, kind: FileKind, name: &str) -> StoreResult<Bytes> {
    match std::fs::read(path) {
        Ok(data) => Ok(Bytes::from(data)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            Err(StoreError::NotFound { kind, name: name.to_string() })
        }
        Err(e) => Err(io_at("read", path, e)),
    }
}

/// Appends `len` bytes at `offset` of the file at `path` to `out`, reading
/// into `out`'s spare capacity (`read_to_end` neither zero-fills it nor,
/// under `take`, reads past the range) without asking for the file's
/// size: a range past the end shows up as a short read.
fn append_file_range(
    path: &Path,
    kind: FileKind,
    name: &str,
    offset: u64,
    len: u64,
    out: &mut Vec<u8>,
) -> StoreResult<()> {
    let mut file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(StoreError::NotFound { kind, name: name.to_string() })
        }
        Err(e) => return Err(io_at("open", path, e)),
    };
    let start = out.len();
    // `seek` refuses offsets past `i64::MAX`, where no file has bytes.
    if offset.checked_add(len).is_some_and(|end| end <= i64::MAX as u64) {
        if let Ok(n) = usize::try_from(len) {
            // Too large to reserve is left to the short read.
            let _ = out.try_reserve_exact(n);
        }
        file.seek(SeekFrom::Start(offset)).map_err(|e| io_at("seek", path, e))?;
        let read = (&mut file).take(len).read_to_end(out).map_err(|e| {
            out.truncate(start);
            io_at("read", path, e)
        })?;
        if read as u64 == len && len > 0 {
            return Ok(());
        }
    }
    // A short read, an empty range or one out of reach: only now is the
    // size asked for.
    out.truncate(start);
    let size = file.metadata().map_err(|e| io_at("stat", path, e))?.len();
    if len == 0 && offset <= size {
        return Ok(());
    }
    Err(StoreError::OutOfRange { name: name.to_string(), offset, len, size })
}

/// The names of the visible files in `dir`, sorted; none if it is missing.
fn list_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|d| {
            d.filter_map(|e| e.ok().and_then(|e| e.file_name().into_string().ok()))
                .filter(|n| !n.starts_with('.'))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

impl Backend for DirBackend {
    fn put(&mut self, kind: FileKind, name: &str, data: &[u8]) -> StoreResult<()> {
        let name = &safe_name(name);
        match self.place(kind)? {
            Place::Log => {
                let unsynced = self.logs().put(kind, name, data)?;
                unsynced.map_or(Ok(()), Unsynced::sync)
            }
            Place::Files(dir) => {
                let path = dir.join(name);
                if path.exists() {
                    return Err(StoreError::AlreadyExists { kind, name: name.to_string() });
                }
                self.commit_file(&path, data)
            }
        }
    }

    fn update(&mut self, kind: FileKind, name: &str, data: &[u8]) -> StoreResult<()> {
        let name = &safe_name(name);
        match self.place(kind)? {
            Place::Log => {
                let unsynced = self.logs().update(kind, name, data)?;
                unsynced.map_or(Ok(()), Unsynced::sync)
            }
            Place::Files(dir) => {
                let path = dir.join(name);
                if !path.exists() {
                    return Err(StoreError::NotFound { kind, name: name.to_string() });
                }
                self.commit_file(&path, data)
            }
        }
    }

    fn get(&mut self, kind: FileKind, name: &str) -> StoreResult<Bytes> {
        let safe = &safe_name(name);
        match self.place(kind)? {
            // The lock is released before the record is read.
            Place::Log => self
                .with_log(kind, |log| log.locate(safe))?
                .ok_or_else(|| StoreError::NotFound { kind, name: name.to_string() })?
                .read(safe),
            Place::Files(dir) => read_object(&dir.join(safe), kind, name),
        }
    }

    fn get_range(
        &mut self,
        kind: FileKind,
        name: &str,
        offset: u64,
        len: u64,
    ) -> StoreResult<Bytes> {
        let mut buf = Vec::new();
        self.append_range(kind, name, offset, len, &mut buf)?;
        Ok(Bytes::from(buf))
    }

    fn append_range(
        &mut self,
        kind: FileKind,
        name: &str,
        offset: u64,
        len: u64,
        out: &mut Vec<u8>,
    ) -> StoreResult<()> {
        let dir = match self.place(kind)? {
            Place::Files(dir) => dir,
            Place::Log => {
                let object = self.get(kind, name)?;
                let size = object.len() as u64;
                let end = offset.checked_add(len).filter(|&end| end <= size);
                let Some(end) = end else {
                    return Err(StoreError::OutOfRange {
                        name: name.to_string(),
                        offset,
                        len,
                        size,
                    });
                };
                out.extend_from_slice(&object[offset as usize..end as usize]);
                return Ok(());
            }
        };
        append_file_range(&dir.join(safe_name(name)), kind, name, offset, len, out)
    }

    fn size_of(&mut self, kind: FileKind, name: &str) -> StoreResult<u64> {
        let safe = &safe_name(name);
        let not_found = || StoreError::NotFound { kind, name: name.to_string() };
        match self.place(kind)? {
            Place::Log => self.with_log(kind, |log| log.size_of(safe))?.ok_or_else(not_found),
            Place::Files(dir) => {
                let path = dir.join(safe);
                match std::fs::metadata(&path) {
                    Ok(m) => Ok(m.len()),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(not_found()),
                    Err(e) => Err(io_at("stat", &path, e)),
                }
            }
        }
    }

    fn exists(&mut self, kind: FileKind, name: &str) -> bool {
        let name = &safe_name(name);
        match self.place(kind) {
            Ok(Place::Log) => self.with_log(kind, |log| log.contains(name)).unwrap_or(false),
            Ok(Place::Files(dir)) => dir.join(name).exists(),
            Err(_) => false,
        }
    }

    fn count(&mut self, kind: FileKind) -> u64 {
        match self.place(kind) {
            Ok(Place::Log) => self.with_log(kind, |log| log.len()).unwrap_or(0),
            Ok(Place::Files(dir)) => list_files(&dir).len() as u64,
            Err(_) => 0,
        }
    }

    fn list(&mut self, kind: FileKind) -> Vec<String> {
        match self.place(kind) {
            Ok(Place::Log) => self.with_log(kind, |log| log.names()).unwrap_or_default(),
            Ok(Place::Files(dir)) => list_files(&dir),
            Err(_) => Vec::new(),
        }
    }

    #[expect(clippy::disallowed_methods, reason = "the one object file deletion")]
    fn delete(&mut self, kind: FileKind, name: &str) -> StoreResult<()> {
        let name = &safe_name(name);
        let dir = match self.place(kind)? {
            Place::Log => return self.with_log(kind, |log| log.delete(kind, name)),
            Place::Files(dir) => dir,
        };
        // A record this handle deleted may name the object: no log may
        // hold it past the object.
        self.logs().sync()?;
        let path = dir.join(name);
        match std::fs::remove_file(&path) {
            Ok(()) => {
                if self.durability == Durability::Fsync {
                    fsync_dir(&dir)?;
                }
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StoreError::NotFound { kind, name: name.to_string() })
            }
            Err(e) => Err(io_at("remove", &path, e)),
        }
    }

    fn flush(&mut self) -> StoreResult<()> {
        self.logs().flush(false)
    }

    #[expect(clippy::disallowed_methods, reason = "removes torn tmp files")]
    fn recover(&mut self) -> StoreResult<RecoveryReport> {
        let mut report = RecoveryReport::default();
        // Torn or orphaned DiskChunk tmp files: the rename never happened,
        // so the target still holds the pre-write content — removing the
        // tmp is the rollback.
        let dir = self.root.join(FileKind::DiskChunk.dir_name());
        let entries = match std::fs::read_dir(&dir) {
            Ok(entries) => Some(entries),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_at("read dir", &dir, e)),
        };
        for entry in entries.into_iter().flatten().filter_map(|e| e.ok()) {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with('.') && name.ends_with(".tmp") {
                let path = entry.path();
                std::fs::remove_file(&path).map_err(|e| io_at("remove tmp", &path, e))?;
                report.tmp_files_removed += 1;
            }
        }
        // Each log's torn replacement or torn tail.
        report.tmp_files_removed += self.logs().recover()?;
        if !report.is_clean() {
            mhd_obs::counter!("store.recoveries").inc();
        }
        Ok(report)
    }
}

/// Which backend operations a [`FaultPoint`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultOp {
    /// Every counted operation (reads, writes and deletes) — the legacy
    /// behaviour of [`FaultBackend::new`].
    #[default]
    Any,
    /// `get` / `get_range` only.
    Read,
    /// `put` / `update` only.
    Write,
    /// `delete` only.
    Delete,
}

/// Selects which operation of a [`FaultBackend`] fails: the `fail_at`-th
/// (0-based) operation matching `op` and (optionally) `kind`.
#[derive(Debug, Clone, Copy)]
pub struct FaultPoint {
    /// Operation class filter.
    pub op: FaultOp,
    /// Restrict to one object category (`None` = all).
    pub kind: Option<FileKind>,
    /// Index among matching operations that fails.
    pub fail_at: u64,
}

impl FaultPoint {
    /// A fault at the `fail_at`-th operation of any class (legacy
    /// semantics).
    pub fn any(fail_at: u64) -> Self {
        FaultPoint { op: FaultOp::Any, kind: None, fail_at }
    }

    /// A fault at the `fail_at`-th write (`put`/`update`), optionally
    /// restricted to one [`FileKind`] — e.g. the n-th Manifest rewrite.
    pub fn write(kind: Option<FileKind>, fail_at: u64) -> Self {
        FaultPoint { op: FaultOp::Write, kind, fail_at }
    }

    /// A fault at the `fail_at`-th read, optionally restricted to one
    /// [`FileKind`].
    pub fn read(kind: Option<FileKind>, fail_at: u64) -> Self {
        FaultPoint { op: FaultOp::Read, kind, fail_at }
    }

    /// A fault point that never fires: the matching-operation counter
    /// cannot reach `u64::MAX`. Lets a fault layer sit permanently in a
    /// backend stack (e.g. a daemon's) and be armed only by tests.
    pub fn never() -> Self {
        FaultPoint::any(u64::MAX)
    }

    fn matches(&self, op: FaultOp, kind: FileKind) -> bool {
        (self.op == FaultOp::Any || self.op == op)
            && (self.kind.is_none() || self.kind == Some(kind))
    }
}

/// Failure-injection wrapper: the operation selected by a [`FaultPoint`]
/// returns an injected I/O error; everything else passes through. Faults
/// fire *before* the inner operation runs, modelling a crash at an
/// operation boundary (the inner backend is never half-mutated).
pub struct FaultBackend<B> {
    inner: B,
    ops: u64,
    matching: u64,
    point: FaultPoint,
}

impl<B: Backend> FaultBackend<B> {
    /// Wraps `inner`; the operation with index `fail_at` (counted over
    /// reads, writes and deletes alike) fails.
    pub fn new(inner: B, fail_at: u64) -> Self {
        Self::with_point(inner, FaultPoint::any(fail_at))
    }

    /// Wraps `inner` with an explicit fault point.
    pub fn with_point(inner: B, point: FaultPoint) -> Self {
        FaultBackend { inner, ops: 0, matching: 0, point }
    }

    /// Operations performed so far (reads + writes + deletes).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Operations so far that matched the fault point's filters.
    pub fn matching_ops(&self) -> u64 {
        self.matching
    }

    /// Unwraps the inner backend.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// Read access to the inner backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Mutable access to the inner backend.
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// Re-arms the wrapper with a new fault point and resets the
    /// matching-operation counter, so a long-lived stack can schedule a
    /// fault well after construction (and disarm it again with
    /// [`FaultPoint::never`]).
    pub fn arm(&mut self, point: FaultPoint) {
        self.matching = 0;
        self.point = point;
    }

    fn tick(&mut self, op: FaultOp, kind: FileKind) -> StoreResult<()> {
        self.ops += 1;
        if !self.point.matches(op, kind) {
            return Ok(());
        }
        let n = self.matching;
        self.matching += 1;
        if n == self.point.fail_at {
            Err(StoreError::Io(std::io::Error::other("injected fault")))
        } else {
            Ok(())
        }
    }
}

impl<B: Backend> Backend for FaultBackend<B> {
    fn put(&mut self, kind: FileKind, name: &str, data: &[u8]) -> StoreResult<()> {
        self.tick(FaultOp::Write, kind)?;
        self.inner.put(kind, name, data)
    }
    fn update(&mut self, kind: FileKind, name: &str, data: &[u8]) -> StoreResult<()> {
        self.tick(FaultOp::Write, kind)?;
        self.inner.update(kind, name, data)
    }
    fn get(&mut self, kind: FileKind, name: &str) -> StoreResult<Bytes> {
        self.tick(FaultOp::Read, kind)?;
        self.inner.get(kind, name)
    }
    fn get_range(
        &mut self,
        kind: FileKind,
        name: &str,
        offset: u64,
        len: u64,
    ) -> StoreResult<Bytes> {
        self.tick(FaultOp::Read, kind)?;
        self.inner.get_range(kind, name, offset, len)
    }
    fn size_of(&mut self, kind: FileKind, name: &str) -> StoreResult<u64> {
        self.inner.size_of(kind, name)
    }
    fn exists(&mut self, kind: FileKind, name: &str) -> bool {
        self.inner.exists(kind, name)
    }
    fn count(&mut self, kind: FileKind) -> u64 {
        self.inner.count(kind)
    }
    fn list(&mut self, kind: FileKind) -> Vec<String> {
        self.inner.list(kind)
    }
    fn delete(&mut self, kind: FileKind, name: &str) -> StoreResult<()> {
        self.tick(FaultOp::Delete, kind)?;
        self.inner.delete(kind, name)
    }
    fn flush(&mut self) -> StoreResult<()> {
        self.inner.flush()
    }
    fn recover(&mut self) -> StoreResult<RecoveryReport> {
        self.inner.recover()
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests remove their scratch directories")]
pub(crate) mod tests {
    use super::*;
    use crate::BatchedDirBackend;

    /// The contract every backend keeps, for the kind a directory store
    /// keeps in files, for the Hooks it keeps in a log held in RAM and for
    /// the recipes it reads from a log on disk.
    pub(crate) fn exercise(backend: &mut dyn Backend) {
        for kind in [FileKind::DiskChunk, FileKind::Hook, FileKind::FileManifest] {
            exercise_kind(backend, kind);
        }
    }

    fn exercise_kind(backend: &mut dyn Backend, kind: FileKind) {
        backend.put(kind, "a", b"hello world").unwrap();
        assert!(matches!(backend.put(kind, "a", b"x"), Err(StoreError::AlreadyExists { .. })));
        assert_eq!(&backend.get(kind, "a").unwrap()[..], b"hello world");
        assert_eq!(&backend.get_range(kind, "a", 6, 5).unwrap()[..], b"world");
        assert!(matches!(backend.get_range(kind, "a", 6, 6), Err(StoreError::OutOfRange { .. })));
        // `append_range` appends after what the buffer holds, and leaves it
        // as it was when the range or the object is not there.
        let mut out = b"> ".to_vec();
        backend.append_range(kind, "a", 6, 5, &mut out).unwrap();
        backend.append_range(kind, "a", 0, 0, &mut out).unwrap();
        backend.append_range(kind, "a", 0, 5, &mut out).unwrap();
        assert_eq!(out, b"> worldhello");
        for (offset, len) in [(6, 6), (11, 1), (12, 0), (u64::MAX, 2), (0, u64::MAX)] {
            assert!(
                matches!(
                    backend.append_range(kind, "a", offset, len, &mut out),
                    Err(StoreError::OutOfRange { .. })
                ),
                "{offset}+{len}"
            );
        }
        assert!(matches!(
            backend.append_range(kind, "missing", 0, 1, &mut out),
            Err(StoreError::NotFound { .. })
        ));
        assert_eq!(out, b"> worldhello");
        assert_eq!(backend.size_of(kind, "a").unwrap(), 11);
        assert!(backend.exists(kind, "a"));
        assert!(!backend.exists(FileKind::Manifest, "a"));
        assert_eq!(backend.count(kind), 1);
        assert_eq!(backend.count(FileKind::Manifest), 0);

        backend.update(kind, "a", b"rewritten").unwrap();
        assert_eq!(&backend.get(kind, "a").unwrap()[..], b"rewritten");
        assert!(matches!(backend.update(kind, "missing", b"x"), Err(StoreError::NotFound { .. })));
        assert!(matches!(backend.get(kind, "missing"), Err(StoreError::NotFound { .. })));

        backend.put(kind, "b", b"second").unwrap();
        assert_eq!(backend.list(kind), vec!["a".to_string(), "b".to_string()]);

        backend.delete(kind, "a").unwrap();
        assert!(!backend.exists(kind, "a"));
        assert!(matches!(backend.delete(kind, "a"), Err(StoreError::NotFound { .. })));
        assert_eq!(backend.count(kind), 1);
        backend.flush().unwrap();
        assert!(backend.recover().unwrap().is_clean());
    }

    /// The part of the contract only a directory-backed store has: it
    /// keeps an object under [`safe_name`] of its name, so two names that
    /// sanitise alike are one object — pending, flushed, read or deleted
    /// under either spelling — and the second `put` fails instead of
    /// replacing the first.
    pub(crate) fn exercise_colliding_names(backend: &mut dyn Backend) {
        for kind in [FileKind::FileManifest, FileKind::Hook] {
            exercise_colliding_names_of(backend, kind);
        }
    }

    fn exercise_colliding_names_of(backend: &mut dyn Backend, kind: FileKind) {
        let others = backend.list(kind);
        let mut with = [&others[..], &["t_sub_b.bin".to_string()]].concat();
        with.sort();
        backend.put(kind, "t/sub/b.bin", b"first").unwrap();
        for flushed in [false, true] {
            if flushed {
                backend.flush().unwrap();
            }
            assert!(
                matches!(
                    backend.put(kind, "t/sub_b.bin", b"second"),
                    Err(StoreError::AlreadyExists { .. })
                ),
                "colliding put accepted (flushed: {flushed})"
            );
            for alias in ["t/sub/b.bin", "t/sub_b.bin", "t_sub_b.bin"] {
                assert!(backend.exists(kind, alias));
                assert_eq!(&backend.get(kind, alias).unwrap()[..], b"first");
                assert_eq!(&backend.get_range(kind, alias, 1, 3).unwrap()[..], b"irs");
                assert_eq!(backend.size_of(kind, alias).unwrap(), 5);
            }
            assert_eq!(backend.count(kind), with.len() as u64);
            assert_eq!(backend.list(kind), with);
        }
        backend.update(kind, "t/sub_b.bin", b"rewritten").unwrap();
        assert_eq!(&backend.get(kind, "t/sub/b.bin").unwrap()[..], b"rewritten");
        backend.delete(kind, "t_sub/b.bin").unwrap();
        assert!(!backend.exists(kind, "t/sub/b.bin"));
        backend.flush().unwrap();
        assert_eq!(backend.list(kind), others);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mhd-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn mem_backend_contract() {
        exercise(&mut MemBackend::new());
    }

    #[test]
    fn dir_backend_contract() {
        for durability in [Durability::Rename, Durability::Fsync] {
            let dir = temp_dir(&format!("contract-{}", durability.name()));
            let mut backend = DirBackend::create_with(&dir, durability).unwrap();
            exercise(&mut backend);
            exercise_colliding_names(&mut backend);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn mem_bytes_of_kind() {
        let mut b = MemBackend::new();
        b.put(FileKind::Hook, "h1", &[0u8; 20]).unwrap();
        b.put(FileKind::Hook, "h2", &[0u8; 20]).unwrap();
        assert_eq!(b.bytes_of_kind(FileKind::Hook), 40);
        assert_eq!(b.bytes_of_kind(FileKind::Manifest), 0);
    }

    #[test]
    fn fault_backend_fails_exactly_once() {
        let mut b = FaultBackend::new(MemBackend::new(), 1);
        b.put(FileKind::Hook, "a", b"x").unwrap(); // op 0: ok
        assert!(matches!(b.put(FileKind::Hook, "b", b"x"), Err(StoreError::Io(_)))); // op 1
        b.put(FileKind::Hook, "c", b"x").unwrap(); // op 2: ok again
        assert_eq!(b.ops(), 3);
        // The failed op must not have mutated state.
        assert!(!b.exists(FileKind::Hook, "b"));
    }

    #[test]
    fn fault_point_targets_writes_of_one_kind() {
        let point = FaultPoint::write(Some(FileKind::Manifest), 1);
        let mut b = FaultBackend::with_point(MemBackend::new(), point);
        // Reads and other kinds never trip the fault.
        b.put(FileKind::Hook, "h", b"x").unwrap();
        let _ = b.get(FileKind::Hook, "h").unwrap();
        b.put(FileKind::Manifest, "0", b"m0").unwrap(); // manifest write 0: ok
        let _ = b.get(FileKind::Manifest, "0").unwrap();
        assert!(matches!(
            b.update(FileKind::Manifest, "0", b"m0-v2"), // manifest write 1: fault
            Err(StoreError::Io(_))
        ));
        assert_eq!(&b.get(FileKind::Manifest, "0").unwrap()[..], b"m0", "old content intact");
        assert_eq!(b.matching_ops(), 2);
    }

    #[test]
    fn fault_point_targets_reads() {
        let mut b = FaultBackend::with_point(MemBackend::new(), FaultPoint::read(None, 0));
        b.put(FileKind::DiskChunk, "c", b"data").unwrap();
        assert!(matches!(b.get(FileKind::DiskChunk, "c"), Err(StoreError::Io(_))));
        assert_eq!(&b.get(FileKind::DiskChunk, "c").unwrap()[..], b"data");
    }

    /// `flush` after each mutation makes the write-through and the
    /// batched backend (whose `update`/`put` only enqueue) fail at the same
    /// statement; `tear` is the backend's own `fault_short_write_at`.
    fn torn_update<B: Backend>(mut b: B, tear: fn(&mut B, u64)) {
        b.put(FileKind::Manifest, "0", b"manifest v1, intact").unwrap();
        b.flush().unwrap();
        // Kill the next physical write half-way: the rewrite must not
        // reach the target file.
        tear(&mut b, 0);
        let err = b
            .update(FileKind::Manifest, "0", b"manifest v2, much longer payload")
            .and_then(|()| b.flush());
        assert!(matches!(err, Err(StoreError::Io(_))));
        assert_eq!(
            &b.get(FileKind::Manifest, "0").unwrap()[..],
            b"manifest v1, intact",
            "in-place content untouched by torn rewrite"
        );
        // The torn tmp is visible to recovery, which removes it…
        assert_eq!(b.recover().unwrap().tmp_files_removed, 1);
        // …and a second pass is clean.
        assert!(b.recover().unwrap().is_clean());
        assert_eq!(b.list(FileKind::Manifest), vec!["0".to_string()]);
    }

    fn torn_put<B: Backend>(mut b: B, tear: fn(&mut B, u64)) {
        tear(&mut b, 0);
        assert!(b.put(FileKind::DiskChunk, "c0", &[7u8; 4096]).and_then(|()| b.flush()).is_err());
        assert!(!b.exists(FileKind::DiskChunk, "c0"));
        assert_eq!(b.count(FileKind::DiskChunk), 0, "tmp files are not objects");
        assert_eq!(b.recover().unwrap().tmp_files_removed, 1);
        // The name is reusable after recovery.
        b.put(FileKind::DiskChunk, "c0", &[7u8; 4096]).unwrap();
        b.flush().unwrap();
        assert_eq!(b.size_of(FileKind::DiskChunk, "c0").unwrap(), 4096);
    }

    /// Both torn-write cases over the write-through backend and over the
    /// batched one at its default `IoConfig` — pool threads, the writer
    /// `mhd backup`/`mhd serve` ship with.
    #[test]
    fn torn_update_preserves_old_content_and_recovers() {
        let dir = temp_dir("torn");
        torn_update(
            DirBackend::create_with(&dir, Durability::Rename).unwrap(),
            DirBackend::fault_short_write_at,
        );
        std::fs::remove_dir_all(&dir).unwrap();
        torn_update(
            BatchedDirBackend::create(&dir).unwrap(),
            BatchedDirBackend::fault_short_write_at,
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_put_leaves_no_object() {
        let dir = temp_dir("torn-put");
        torn_put(
            DirBackend::create_with(&dir, Durability::Fsync).unwrap(),
            DirBackend::fault_short_write_at,
        );
        std::fs::remove_dir_all(&dir).unwrap();
        torn_put(BatchedDirBackend::create(&dir).unwrap(), BatchedDirBackend::fault_short_write_at);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_durability_syncs_tmp_then_parent_and_rename_syncs_nothing() {
        let dir = temp_dir("fsync-path");
        let chunks = dir.join("chunks");

        let mut b = DirBackend::create_with(&dir, Durability::Rename).unwrap();
        let synced = record_fsyncs(|| {
            b.put(FileKind::DiskChunk, "0", b"v1").unwrap();
            b.update(FileKind::DiskChunk, "0", b"v2").unwrap();
            // Enough live Manifests that the rewrites below append.
            for name in ["0", "1", "2", "3"] {
                b.put(FileKind::Manifest, name, b"v1").unwrap();
            }
            b.update(FileKind::Manifest, "0", b"v2").unwrap();
            write_atomic(&dir.join("state"), b"s", Durability::Rename).unwrap();
        });
        assert_eq!(synced, Vec::<PathBuf>::new());

        // Every file write: its tmp before the rename, its directory
        // after; every log append: the log.
        let mut b = DirBackend::create_with(&dir, Durability::Fsync).unwrap();
        let synced = record_fsyncs(|| {
            b.update(FileKind::DiskChunk, "0", b"v3").unwrap();
            b.update(FileKind::Manifest, "0", b"v3").unwrap();
            write_atomic(&dir.join("state"), b"s", Durability::Fsync).unwrap();
            b.delete(FileKind::DiskChunk, "0").unwrap();
        });
        let want = vec![
            chunks.join(".0.tmp"),
            chunks.clone(),
            dir.join("manifests"),
            dir.join(".state.tmp"),
            dir.clone(),
            chunks,
        ];
        assert_eq!(synced, want);
        // Disarmed again: nothing accumulates outside `record_fsyncs`.
        fsync_dir(&dir).unwrap();
        assert_eq!(record_fsyncs(|| ()), Vec::<PathBuf>::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_order_is_a_permutation_that_writes_referees_first() {
        // `ALL` holds each kind once, in declaration order.
        for (i, kind) in FileKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?}");
        }
        let mut sorted = FileKind::FLUSH_ORDER;
        sorted.sort();
        assert_eq!(sorted, FileKind::ALL, "FLUSH_ORDER is not a permutation of ALL");
        let position = |kind: FileKind| FileKind::FLUSH_ORDER.iter().position(|&k| k == kind);
        for referrer in FileKind::ALL {
            for &referee in referrer.references() {
                assert!(
                    position(referee) < position(referrer),
                    "FLUSH_ORDER writes {referrer:?} before {referee:?}, which it references"
                );
            }
        }
    }

    #[test]
    fn durability_parse_round_trips() {
        for d in [Durability::Rename, Durability::Fsync] {
            assert_eq!(Durability::parse(d.name()), Some(d));
        }
        assert_eq!(Durability::parse("none"), None);
        assert_eq!(Durability::parse("paranoid"), None);
    }
}
