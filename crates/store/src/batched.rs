//! Batched, crash-safe directory backend.
//!
//! [`BatchedDirBackend`] wraps the same on-disk layout as
//! [`DirBackend`](crate::DirBackend) but decouples the dedup hot loop from
//! storage latency: `put`/`update` land in an in-memory pending overlay and
//! are committed in bounded batches by a small worker pool. Reads always
//! see the overlay first (read-your-writes), so the engines observe exactly
//! the semantics of a write-through backend — the substrate-level
//! [`IoStats`](crate::IoStats) counters and therefore every dedup ratio are
//! unchanged by construction.
//!
//! # Crash ordering
//!
//! A batch flush drains the overlay one [`FileKind`] at a time in
//! [`FileKind::FLUSH_ORDER`] (DiskChunk → Manifest → Hook → FileManifest)
//! with a barrier between kinds. Within the engines' per-file write order
//! this means a crash at any flush boundary leaves no dangling reference:
//! every Manifest on disk points at DiskChunks on disk, every Hook at a
//! Manifest on disk. Each individual object write goes through the same
//! tmp + rename (+ intent, + fsync, per [`Durability`]) path as the plain
//! directory backend, so a crash *inside* a flush is also recoverable.
//!
//! # Read-ahead
//!
//! HHR's backward/forward extension reloads stored chunk bytes through
//! `get_range` in small pieces. With `readahead > 0` the backend pulls the
//! whole DiskChunk on first touch into a small FIFO cache and serves
//! subsequent ranges from memory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Instant;

use bytes::Bytes;

use crate::{
    safe_name, Backend, DirBackend, Durability, FileKind, RecoveryReport, StoreError, StoreResult,
};

/// Tuning knobs for [`BatchedDirBackend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoConfig {
    /// Worker threads servicing write batches (`0` = write inline on the
    /// caller thread; batching and crash ordering still apply).
    pub threads: usize,
    /// Flush automatically once this many mutations are pending.
    pub batch_ops: usize,
    /// Flush automatically once this many payload bytes are pending.
    pub batch_bytes: usize,
    /// DiskChunk read-ahead cache capacity in objects (`0` = off).
    pub readahead: usize,
    /// Durability level for every committed write.
    pub durability: Durability,
}

impl Default for IoConfig {
    fn default() -> Self {
        IoConfig {
            threads: 4,
            batch_ops: 128,
            batch_bytes: 4 << 20,
            readahead: 8,
            durability: Durability::default(),
        }
    }
}

/// A mutation waiting in the overlay. `update: false` is a pending `put`
/// (the target does not exist on disk yet); `update: true` overwrites an
/// object that does.
struct Pending {
    data: Bytes,
    update: bool,
}

/// One write job handed to the worker pool: a contiguous slice of a
/// batch, grouped so channel traffic is per worker, not per object.
struct Job {
    kind: FileKind,
    writes: Vec<(String, Pending)>,
    done: mpsc::Sender<StoreResult<()>>,
}

/// Workers fed by one bounded queue: `send` blocks while it is full, and
/// dropping the sender ends them. `std`'s receiver has one owner, so the
/// workers share it behind a mutex each holds only while it waits for a
/// job, never while it writes.
struct WorkerPool {
    jobs: mpsc::SyncSender<Job>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn spawn(threads: usize, writer: DirBackend) -> StoreResult<Self> {
        let (tx, rx) = mpsc::sync_channel::<Job>(threads * 4);
        let rx = Arc::new(Mutex::new(rx));
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let rx = Arc::clone(&rx);
            let writer = writer.clone();
            let handle = std::thread::Builder::new()
                .name(format!("mhd-io-{i}"))
                .spawn(move || {
                    loop {
                        // The receiver lock is held for this statement
                        // alone, never across a write (`sync.rs`).
                        let job = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                        let Ok(job) = job else { break };
                        let mut result = Ok(());
                        for (name, p) in &job.writes {
                            result = writer.commit(job.kind, name, &p.data, p.update);
                            if result.is_err() {
                                break;
                            }
                        }
                        // The flush side may have bailed on an earlier
                        // error; a closed result channel is not a
                        // failure here.
                        let _ = job.done.send(result);
                    }
                })
                .map_err(|e| StoreError::IoAt {
                    op: "spawn I/O worker",
                    path: format!("mhd-io-{i}"),
                    source: e,
                })?;
            handles.push(handle);
        }
        Ok(WorkerPool { jobs: tx, handles })
    }
}

/// A simple FIFO cache of whole DiskChunk payloads for the HHR reload
/// path. (Deliberately not the LRU from `mhd-cache`: that crate depends on
/// this one.)
struct ReadaheadCache {
    capacity: usize,
    entries: Vec<(String, Bytes)>,
}

impl ReadaheadCache {
    fn new(capacity: usize) -> Self {
        ReadaheadCache { capacity, entries: Vec::new() }
    }

    fn get(&self, name: &str) -> Option<&Bytes> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, b)| b)
    }

    fn insert(&mut self, name: String, data: Bytes) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.capacity {
            self.entries.remove(0);
        }
        self.entries.push((name, data));
    }

    fn invalidate(&mut self, name: &str) {
        self.entries.retain(|(n, _)| n != name);
    }
}

/// Batched, crash-safe directory backend. See the module docs.
///
/// The overlay and the read-ahead cache are keyed by [`safe_name`], the
/// name the object has on disk: two names that sanitise to one object
/// are one object here too, so a colliding `put` fails with
/// `AlreadyExists` exactly as on a write-through [`DirBackend`].
///
/// Dropping the backend flushes pending writes best-effort; call
/// [`Backend::flush`] explicitly (the engines do, in `finish()`) to observe
/// errors.
pub struct BatchedDirBackend {
    inner: DirBackend,
    config: IoConfig,
    pending: [BTreeMap<String, Pending>; 4],
    pending_bytes: usize,
    pool: Option<WorkerPool>,
    readahead: ReadaheadCache,
}

impl BatchedDirBackend {
    /// Creates the store layout under `root` with default [`IoConfig`].
    pub fn create(root: impl Into<PathBuf>) -> StoreResult<Self> {
        Self::create_with(root, IoConfig::default())
    }

    /// Creates the store layout under `root` with explicit tuning.
    pub fn create_with(root: impl Into<PathBuf>, config: IoConfig) -> StoreResult<Self> {
        let inner = DirBackend::create_with(root, config.durability)?;
        let pool = if config.threads > 0 {
            Some(WorkerPool::spawn(config.threads, inner.clone())?)
        } else {
            None
        };
        Ok(BatchedDirBackend {
            inner,
            config,
            pending: Default::default(),
            pending_bytes: 0,
            pool,
            readahead: ReadaheadCache::new(config.readahead),
        })
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        self.inner.root()
    }

    /// [`DirBackend::fault_short_write_at`] for the writes a flush makes,
    /// on whichever thread makes them (pool threads race inside one
    /// kind's batch: which object is the `nth` is fixed only for a batch
    /// of one).
    pub fn fault_short_write_at(&mut self, nth: u64) {
        self.inner.fault_short_write_at(nth);
    }

    /// Mutations currently queued in the overlay.
    pub fn pending_ops(&self) -> usize {
        self.pending.iter().map(|m| m.len()).sum()
    }

    /// Payload bytes currently queued in the overlay (the quantity the
    /// `batch_bytes` auto-flush threshold is compared against).
    pub fn pending_payload_bytes(&self) -> usize {
        self.pending_bytes
    }

    fn pending_of(&self, kind: FileKind) -> &BTreeMap<String, Pending> {
        &self.pending[kind as usize]
    }

    fn pending_mut(&mut self, kind: FileKind) -> &mut BTreeMap<String, Pending> {
        &mut self.pending[kind as usize]
    }

    fn enqueue(
        &mut self,
        kind: FileKind,
        name: &str,
        data: &[u8],
        update: bool,
    ) -> StoreResult<()> {
        self.pending_bytes += data.len();
        if kind == FileKind::DiskChunk {
            self.readahead.invalidate(name);
        }
        if let Some(replaced) = self
            .pending_mut(kind)
            .insert(name.to_string(), Pending { data: Bytes::copy_from_slice(data), update })
        {
            self.pending_bytes -= replaced.data.len();
        }
        mhd_obs::histogram!("store.io_queue_depth").record(self.pending_ops() as u64);
        if self.pending_ops() >= self.config.batch_ops
            || self.pending_bytes >= self.config.batch_bytes
        {
            self.flush()?;
        }
        Ok(())
    }

    /// Commits one kind's pending mutations, in parallel when a pool
    /// exists. Acts as a barrier: every write of this kind is on disk (to
    /// the configured durability) before this returns.
    fn flush_kind(&mut self, kind: FileKind) -> StoreResult<()> {
        let drained = std::mem::take(self.pending_mut(kind));
        if drained.is_empty() {
            return Ok(());
        }
        // Account the drained bytes here, not in flush(): if an earlier
        // kind's flush fails, later kinds stay in the overlay and
        // pending_bytes must keep matching what the overlay still holds.
        let drained_bytes: usize = drained.values().map(|p| p.data.len()).sum();
        self.pending_bytes -= drained_bytes;
        match &self.pool {
            Some(pool) => {
                // Split the batch into one contiguous group per worker so
                // channel round-trips scale with the pool, not the batch.
                let items: Vec<(String, Pending)> = drained.into_iter().collect();
                let groups = pool.handles.len().min(items.len()).max(1);
                let per_group = items.len().div_ceil(groups);
                let mut items = items;
                let (done_tx, done_rx) = mpsc::channel();
                let mut sent = 0usize;
                while !items.is_empty() {
                    let rest = items.split_off(items.len().min(per_group));
                    let job = Job { kind, writes: items, done: done_tx.clone() };
                    items = rest;
                    pool.jobs.send(job).map_err(|_| {
                        StoreError::Io(std::io::Error::other("I/O worker pool shut down"))
                    })?;
                    sent += 1;
                }
                drop(done_tx);
                let mut first_err = None;
                for _ in 0..sent {
                    match done_rx.recv() {
                        Ok(Ok(())) => {}
                        Ok(Err(e)) => first_err = first_err.or(Some(e)),
                        Err(_) => {
                            first_err = first_err.or_else(|| {
                                Some(StoreError::Io(std::io::Error::other(
                                    "I/O worker died mid-batch",
                                )))
                            })
                        }
                    }
                }
                match first_err {
                    Some(e) => Err(e),
                    None => Ok(()),
                }
            }
            None => drained
                .iter()
                .try_for_each(|(name, p)| self.inner.commit(kind, name, &p.data, p.update)),
        }
    }
}

impl Backend for BatchedDirBackend {
    fn put(&mut self, kind: FileKind, name: &str, data: &[u8]) -> StoreResult<()> {
        let name = &safe_name(name);
        if self.pending_of(kind).contains_key(name) || self.inner.exists(kind, name) {
            return Err(StoreError::AlreadyExists { kind, name: name.to_string() });
        }
        self.enqueue(kind, name, data, false)
    }

    fn update(&mut self, kind: FileKind, name: &str, data: &[u8]) -> StoreResult<()> {
        let name = &safe_name(name);
        // An update over a pending put coalesces into a single put — the
        // object never existed on disk, so there is nothing to overwrite.
        let still_put = match self.pending_of(kind).get(name) {
            Some(p) => !p.update,
            None => {
                if !self.inner.exists(kind, name) {
                    return Err(StoreError::NotFound { kind, name: name.to_string() });
                }
                false
            }
        };
        self.enqueue(kind, name, data, !still_put)
    }

    fn get(&mut self, kind: FileKind, name: &str) -> StoreResult<Bytes> {
        let name = &safe_name(name);
        if let Some(p) = self.pending_of(kind).get(name) {
            return Ok(p.data.clone());
        }
        if let Some(cached) = self.readahead.get(name) {
            if kind == FileKind::DiskChunk {
                mhd_obs::counter!("store.readahead_hits").inc();
                return Ok(cached.clone());
            }
        }
        self.inner.get(kind, name)
    }

    fn get_range(
        &mut self,
        kind: FileKind,
        name: &str,
        offset: u64,
        len: u64,
    ) -> StoreResult<Bytes> {
        let name = &safe_name(name);
        let slice = |obj: &Bytes| -> StoreResult<Bytes> {
            let end = offset.checked_add(len).filter(|&e| e <= obj.len() as u64).ok_or(
                StoreError::OutOfRange {
                    name: name.to_string(),
                    offset,
                    len,
                    size: obj.len() as u64,
                },
            )?;
            Ok(obj.slice(offset as usize..end as usize))
        };
        if let Some(p) = self.pending_of(kind).get(name) {
            let data = p.data.clone();
            return slice(&data);
        }
        if kind == FileKind::DiskChunk && self.config.readahead > 0 {
            if let Some(cached) = self.readahead.get(name) {
                mhd_obs::counter!("store.readahead_hits").inc();
                let cached = cached.clone();
                return slice(&cached);
            }
            // Prefetch the whole chunk: HHR's backward/forward extension
            // walks ranges of the same object.
            let whole = self.inner.get(kind, name)?;
            mhd_obs::counter!("store.readahead_fills").inc();
            self.readahead.insert(name.to_string(), whole.clone());
            return slice(&whole);
        }
        self.inner.get_range(kind, name, offset, len)
    }

    fn size_of(&mut self, kind: FileKind, name: &str) -> StoreResult<u64> {
        let name = &safe_name(name);
        if let Some(p) = self.pending_of(kind).get(name) {
            return Ok(p.data.len() as u64);
        }
        self.inner.size_of(kind, name)
    }

    fn exists(&mut self, kind: FileKind, name: &str) -> bool {
        let name = &safe_name(name);
        self.pending_of(kind).contains_key(name) || self.inner.exists(kind, name)
    }

    fn count(&mut self, kind: FileKind) -> u64 {
        let pending_puts = self.pending_of(kind).values().filter(|p| !p.update).count() as u64;
        self.inner.count(kind) + pending_puts
    }

    fn list(&mut self, kind: FileKind) -> Vec<String> {
        let mut names = self.inner.list(kind);
        for (name, p) in self.pending_of(kind) {
            if !p.update {
                names.push(name.clone());
            }
        }
        names.sort();
        names.dedup();
        names
    }

    fn delete(&mut self, kind: FileKind, name: &str) -> StoreResult<()> {
        let name = &safe_name(name);
        if kind == FileKind::DiskChunk {
            self.readahead.invalidate(name);
        }
        let removed = self.pending_mut(kind).remove(name);
        if let Some(p) = &removed {
            // The dropped mutation no longer counts toward the batch
            // threshold (it previously leaked until the next flush reset).
            self.pending_bytes -= p.data.len();
        }
        match removed {
            // A pending put never reached disk: dropping it *is* the delete.
            Some(p) if !p.update => Ok(()),
            // A pending update targets an on-disk object; drop the rewrite
            // and delete the object itself.
            _ => self.inner.delete(kind, name),
        }
    }

    fn flush(&mut self) -> StoreResult<()> {
        let ops = self.pending_ops();
        if ops == 0 {
            return Ok(());
        }
        let bytes = self.pending_bytes;
        let start = Instant::now();
        for kind in FileKind::FLUSH_ORDER {
            self.flush_kind(kind)?;
        }
        mhd_obs::histogram!("store.io_batch_ops").record(ops as u64);
        mhd_obs::histogram!("store.io_batch_bytes").record(bytes as u64);
        mhd_obs::histogram!("store.io_flush_ns").record(start.elapsed().as_nanos() as u64);
        Ok(())
    }

    fn recover(&mut self) -> StoreResult<RecoveryReport> {
        self.inner.recover()
    }
}

impl Drop for BatchedDirBackend {
    fn drop(&mut self) {
        let _ = self.flush();
        if let Some(pool) = self.pool.take() {
            drop(pool.jobs);
            for handle in pool.handles {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests remove their scratch directories")]
mod tests {
    use super::*;
    use crate::backend::tests::{exercise, exercise_colliding_names};
    use crate::record_fsyncs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mhd-batched-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn configs() -> Vec<(&'static str, IoConfig)> {
        vec![
            ("inline", IoConfig { threads: 0, ..IoConfig::default() }),
            ("pooled", IoConfig { threads: 2, ..IoConfig::default() }),
            (
                "tiny-batches",
                IoConfig { threads: 2, batch_ops: 1, batch_bytes: 1, ..IoConfig::default() },
            ),
            (
                "fsync",
                IoConfig { threads: 2, durability: Durability::Fsync, ..IoConfig::default() },
            ),
            ("no-readahead", IoConfig { readahead: 0, ..IoConfig::default() }),
        ]
    }

    #[test]
    fn batched_backend_contract() {
        for (tag, config) in configs() {
            let dir = temp_dir(&format!("contract-{tag}"));
            let mut backend = BatchedDirBackend::create_with(&dir, config).unwrap();
            exercise(&mut backend);
            exercise_colliding_names(&mut backend);
            drop(backend);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn dropping_the_backend_ends_its_workers() {
        let config = IoConfig { threads: 3, ..IoConfig::default() };
        let busy = |dir: &Path| {
            let mut b = BatchedDirBackend::create_with(dir, config).unwrap();
            for i in 0..40 {
                b.put(FileKind::DiskChunk, &format!("c{i}"), &[i as u8; 64]).unwrap();
            }
            b.flush().unwrap();
            b
        };

        // What `Drop` does, a step at a time: the workers idle in `recv`
        // until the pool's only sender goes, then every one of them ends.
        let dir = temp_dir("drop-workers-steps");
        let mut b = busy(&dir);
        let pool = b.pool.take().unwrap();
        let names: Vec<_> =
            pool.handles.iter().map(|h| h.thread().name().unwrap().to_string()).collect();
        assert_eq!(names, ["mhd-io-0", "mhd-io-1", "mhd-io-2"]);
        assert!(pool.handles.iter().all(|h| !h.is_finished()), "idle workers wait for jobs");
        drop(pool.jobs);
        for handle in pool.handles {
            handle.join().unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();

        // And `Drop` itself, which joins them: it returns.
        let dir = temp_dir("drop-workers");
        let b = busy(&dir);
        let (dropped, wait) = mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(b);
            dropped.send(()).unwrap();
        });
        wait.recv_timeout(std::time::Duration::from_secs(30))
            .expect("drop is still joining its workers");
        dropper.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overlay_reads_see_pending_writes() {
        let dir = temp_dir("overlay");
        let config = IoConfig { threads: 2, batch_ops: 1000, ..IoConfig::default() };
        let mut b = BatchedDirBackend::create_with(&dir, config).unwrap();
        b.put(FileKind::DiskChunk, "c0", b"pending bytes").unwrap();
        // Nothing flushed yet, but every read path must see the write.
        assert_eq!(&b.get(FileKind::DiskChunk, "c0").unwrap()[..], b"pending bytes");
        assert_eq!(&b.get_range(FileKind::DiskChunk, "c0", 8, 5).unwrap()[..], b"bytes");
        assert_eq!(b.size_of(FileKind::DiskChunk, "c0").unwrap(), 13);
        assert!(b.exists(FileKind::DiskChunk, "c0"));
        assert_eq!(b.count(FileKind::DiskChunk), 1);
        assert_eq!(b.list(FileKind::DiskChunk), vec!["c0".to_string()]);
        // Double-put against the overlay is caught.
        assert!(matches!(
            b.put(FileKind::DiskChunk, "c0", b"x"),
            Err(StoreError::AlreadyExists { .. })
        ));
        b.flush().unwrap();
        assert_eq!(b.pending_ops(), 0);
        assert_eq!(&b.get(FileKind::DiskChunk, "c0").unwrap()[..], b"pending bytes");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn update_over_pending_put_coalesces() {
        let dir = temp_dir("coalesce");
        let config = IoConfig { threads: 0, batch_ops: 1000, ..IoConfig::default() };
        let mut b = BatchedDirBackend::create_with(&dir, config).unwrap();
        b.put(FileKind::Manifest, "m", b"v1").unwrap();
        b.update(FileKind::Manifest, "m", b"v2").unwrap();
        b.update(FileKind::Manifest, "m", b"v3").unwrap();
        assert_eq!(b.pending_ops(), 1, "three mutations, one queued write");
        b.flush().unwrap();
        assert_eq!(&b.get(FileKind::Manifest, "m").unwrap()[..], b"v3");
        // No intent was needed: the coalesced write was a fresh put.
        assert!(b.recover().unwrap().is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn update_of_missing_object_fails_before_enqueue() {
        let dir = temp_dir("missing-update");
        let mut b = BatchedDirBackend::create_with(&dir, IoConfig::default()).unwrap();
        assert!(matches!(
            b.update(FileKind::Manifest, "ghost", b"x"),
            Err(StoreError::NotFound { .. })
        ));
        assert_eq!(b.pending_ops(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delete_of_pending_put_never_touches_disk() {
        let dir = temp_dir("delete-pending");
        let config = IoConfig { threads: 0, batch_ops: 1000, ..IoConfig::default() };
        let mut b = BatchedDirBackend::create_with(&dir, config).unwrap();
        b.put(FileKind::Hook, "h", b"x").unwrap();
        b.delete(FileKind::Hook, "h").unwrap();
        assert!(!b.exists(FileKind::Hook, "h"));
        b.flush().unwrap();
        assert_eq!(b.count(FileKind::Hook), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_flush_on_batch_threshold() {
        let dir = temp_dir("auto-flush");
        let config = IoConfig { threads: 2, batch_ops: 4, ..IoConfig::default() };
        let mut b = BatchedDirBackend::create_with(&dir, config).unwrap();
        for i in 0..4 {
            b.put(FileKind::DiskChunk, &format!("c{i}"), &[i as u8; 64]).unwrap();
        }
        assert_eq!(b.pending_ops(), 0, "threshold crossed, batch committed");
        // The objects are really on disk, not just in the overlay.
        let mut plain = DirBackend::create(b.root()).unwrap();
        assert_eq!(plain.count(FileKind::DiskChunk), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn readahead_serves_ranges_from_one_fill() {
        let dir = temp_dir("readahead");
        let config = IoConfig { threads: 0, readahead: 4, ..IoConfig::default() };
        let mut b = BatchedDirBackend::create_with(&dir, config).unwrap();
        let payload: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        b.put(FileKind::DiskChunk, "c", &payload).unwrap();
        b.flush().unwrap();
        for offset in [0u64, 100, 2048, 4000] {
            let got = b.get_range(FileKind::DiskChunk, "c", offset, 96).unwrap();
            assert_eq!(&got[..], &payload[offset as usize..offset as usize + 96]);
        }
        assert!(matches!(
            b.get_range(FileKind::DiskChunk, "c", 4090, 100),
            Err(StoreError::OutOfRange { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn update_of_pending_manifest_never_serves_stale_bytes() {
        // Regression guard for the suspected read-ahead stale-read window:
        // a manifest that is updated while an earlier version is still
        // pending in the overlay must be read back as the newest bytes on
        // every read path, before and after the flush, with the
        // read-ahead cache enabled. (Manifests are never inserted into
        // the read-ahead cache — only DiskChunks are — so the window does
        // not exist; this test pins that down.)
        let dir = temp_dir("stale-manifest");
        let config = IoConfig { threads: 2, batch_ops: 1000, readahead: 4, ..IoConfig::default() };
        let mut b = BatchedDirBackend::create_with(&dir, config).unwrap();
        b.put(FileKind::Manifest, "m", b"manifest v1").unwrap();
        b.flush().unwrap();
        // Warm every cache path with the on-disk v1.
        assert_eq!(&b.get(FileKind::Manifest, "m").unwrap()[..], b"manifest v1");
        assert_eq!(&b.get_range(FileKind::Manifest, "m", 9, 2).unwrap()[..], b"v1");
        // Overwrite while nothing is pending, then again while the first
        // rewrite is still pending in the overlay.
        b.update(FileKind::Manifest, "m", b"manifest v2").unwrap();
        assert_eq!(&b.get(FileKind::Manifest, "m").unwrap()[..], b"manifest v2");
        b.update(FileKind::Manifest, "m", b"manifest v3").unwrap();
        assert_eq!(&b.get(FileKind::Manifest, "m").unwrap()[..], b"manifest v3");
        assert_eq!(&b.get_range(FileKind::Manifest, "m", 9, 2).unwrap()[..], b"v3");
        assert_eq!(b.size_of(FileKind::Manifest, "m").unwrap(), 11);
        b.flush().unwrap();
        assert_eq!(&b.get(FileKind::Manifest, "m").unwrap()[..], b"manifest v3");
        assert_eq!(&b.get_range(FileKind::Manifest, "m", 9, 2).unwrap()[..], b"v3");
        // The same dance on a DiskChunk, which *is* read-ahead cached:
        // the update must invalidate the cached payload.
        b.put(FileKind::DiskChunk, "c", b"chunk v1").unwrap();
        b.flush().unwrap();
        assert_eq!(&b.get_range(FileKind::DiskChunk, "c", 6, 2).unwrap()[..], b"v1"); // fill
        b.update(FileKind::DiskChunk, "c", b"chunk v2").unwrap();
        assert_eq!(&b.get_range(FileKind::DiskChunk, "c", 6, 2).unwrap()[..], b"v2");
        b.flush().unwrap();
        assert_eq!(&b.get_range(FileKind::DiskChunk, "c", 6, 2).unwrap()[..], b"v2");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pending_bytes_accounting_tracks_overlay() {
        // delete() of a pending mutation must release its bytes (they
        // previously leaked until the next flush), and a flush must leave
        // the account at zero.
        let dir = temp_dir("pending-bytes");
        let config = IoConfig { threads: 0, batch_ops: 1000, ..IoConfig::default() };
        let mut b = BatchedDirBackend::create_with(&dir, config).unwrap();
        assert_eq!(b.pending_payload_bytes(), 0);
        b.put(FileKind::DiskChunk, "c0", &[0u8; 100]).unwrap();
        b.put(FileKind::DiskChunk, "c1", &[0u8; 50]).unwrap();
        assert_eq!(b.pending_payload_bytes(), 150);
        b.delete(FileKind::DiskChunk, "c0").unwrap();
        assert_eq!(b.pending_payload_bytes(), 50, "dropped pending put releases its bytes");
        // Replacing a pending mutation accounts the delta, not the sum.
        b.update(FileKind::DiskChunk, "c1", &[0u8; 80]).unwrap();
        assert_eq!(b.pending_payload_bytes(), 80);
        b.flush().unwrap();
        assert_eq!(b.pending_payload_bytes(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_order_is_chunks_before_manifests_before_hooks() {
        // One batch holding every kind, queued referrers first, reaches
        // disk in FLUSH_ORDER: the directories fsynced after each rename
        // name the kinds in the order they were written. Inline workers,
        // so the fsyncs happen on this thread.
        let dir = temp_dir("flush-order");
        let config = IoConfig { threads: 0, durability: Durability::Fsync, ..IoConfig::default() };
        let mut b = BatchedDirBackend::create_with(&dir, config).unwrap();
        let synced = record_fsyncs(|| {
            for kind in FileKind::FLUSH_ORDER.into_iter().rev() {
                b.put(kind, "a", b"x").unwrap();
                b.put(kind, "b", b"y").unwrap();
            }
            b.flush().unwrap();
        });
        let mut written: Vec<FileKind> = synced
            .iter()
            .filter_map(|path| FileKind::ALL.into_iter().find(|k| *path == dir.join(k.dir_name())))
            .collect();
        written.dedup();
        assert_eq!(written, FileKind::FLUSH_ORDER);
        drop(b);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn matches_plain_dir_backend_state() {
        // The same operation sequence through both backends must produce
        // identical on-disk object sets.
        let dir_a = temp_dir("equiv-plain");
        let dir_b = temp_dir("equiv-batched");
        let mut plain = DirBackend::create(&dir_a).unwrap();
        let mut batched = BatchedDirBackend::create_with(
            &dir_b,
            IoConfig { threads: 3, batch_ops: 5, ..IoConfig::default() },
        )
        .unwrap();
        let ops: &mut [&mut dyn Backend] = &mut [&mut plain, &mut batched];
        for b in ops.iter_mut() {
            for i in 0..17 {
                b.put(FileKind::DiskChunk, &format!("c{i}"), &vec![i as u8; 100 + i]).unwrap();
                b.put(FileKind::Manifest, &format!("m{i}"), &[0xAA; 36]).unwrap();
            }
            for i in 0..17 {
                b.update(FileKind::Manifest, &format!("m{i}"), &[0xBB; 72]).unwrap();
            }
            b.delete(FileKind::DiskChunk, "c3").unwrap();
            b.flush().unwrap();
        }
        for kind in FileKind::ALL {
            assert_eq!(plain.list(kind), batched.list(kind), "{kind:?} object sets differ");
            for name in plain.list(kind) {
                assert_eq!(
                    &plain.get(kind, &name).unwrap()[..],
                    &batched.get(kind, &name).unwrap()[..],
                    "{kind:?}/{name} content differs"
                );
            }
        }
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }
}
