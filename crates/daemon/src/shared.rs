//! The shared datastore: one store, many tenants, crash-safe sessions,
//! two-phase parallel commits.
//!
//! [`SharedStore`] owns the durable `MhdEngine` plus the pieces that make
//! concurrent use safe:
//!
//! * a [`SessionRegistry`] so GC never sweeps what an open session might
//!   still reference (watermark protection),
//! * the [`SharedHookIndex`] (kept coherent by [`IndexingBackend`] on the
//!   backend write path),
//! * per-session **intent records** (`statefile::wip_begin` at `BEGIN`,
//!   `wip_end` only after the commit is fully persisted), so the next
//!   open knows exactly which streams were torn.
//!
//! # Two-phase commits
//!
//! `COMMIT` does not serialise the dedup pipeline on the engine lock.
//! **Phase 1** (`SharedStore::pipeline`, stage `commit.pipeline`, no
//! lock) runs the full BF-MHD pipeline on a throwaway engine over a
//! [`StagingBackend`]: reads fall through to the shared store's
//! directory tree, hook probes go to the lock-free [`SharedHookIndex`]
//! (the engine's presence oracle), and all writes land in an in-memory
//! overlay under a private id range ([`LOCAL_ID_BASE`] and up). Any
//! number of sessions run phase 1 concurrently. **Phase 2**
//! (`SharedStore::publish`, stage `commit.publish`, engine lock held) is
//! O(metadata): it validates the pipeline's view against hooks other
//! sessions published meanwhile and against GCs that deleted anything
//! (retrying phase 1 on a conflict, so shared content is stored once and
//! nothing swept is referenced), reserves real id ranges, splices the
//! staged objects in `FLUSH_ORDER`, absorbs the session's counters,
//! flushes, and persists the watermark. `RESTORE`/`LS` use a read-only
//! directory view and take no lock at all.
//!
//! # On-disk layout and crash recovery
//!
//! A daemon store *is* a CLI store: the four namespaces plus the
//! `session/` state files and `daemon/wip/` intent records, all owned by
//! [`mhd_core::statefile`], which both front ends open, recover and
//! persist through. [`SharedStore::open`] is `statefile::open_write` plus
//! what is the daemon's own (hook index, registry, locks); a store either
//! front end tore is rolled back by whichever opens it next. DESIGN.md §8
//! states the recovery rule.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use mhd_chunking::ChunkerKind;
use mhd_core::gc::GcReport;
use mhd_core::statefile::{self, RecoverySummary, StoreMeta, WriterLock};
use mhd_core::sync::{Mutex, Rank};
use mhd_core::{Deduplicator, EngineConfig, MhdEngine, SessionDelta};
use mhd_hash::{ChunkHash, FxHashMap, FxHashSet};
use mhd_store::{
    plain_hook_hash, safe_name, BatchedDirBackend, DirReader, DiskChunkId, Durability,
    FaultBackend, FaultPoint, FileKind, FileManifest, IoConfig, Manifest, ManifestId,
};
use mhd_workload::{FileEntry, Snapshot};
use serde::Serialize;

use crate::error::{DaemonError, DaemonResult};
use crate::index::{IndexingBackend, SharedHookIndex};
use crate::protocol::{valid_path, valid_tenant, MAX_FILE_BYTES};
use crate::registry::SessionRegistry;
use crate::staging::StagingBackend;

/// The backend stack every daemon store runs on. The fault layer is
/// disarmed by default ([`FaultPoint::never`]) and exists so tests can
/// fail the publish step of a live commit ([`SharedStore::arm_fault`]).
type DaemonBackend = IndexingBackend<FaultBackend<BatchedDirBackend>>;

/// Id floor for staging engines: phase-1 objects are allocated at or
/// above this base, far beyond any real store id, so a staged id can
/// never collide with a read-through shared id and the publish remap is
/// a simple subtraction.
///
/// That the splice remaps every staged id is checked where the ids are
/// written: in debug builds `Substrate` refuses any id at or above its
/// own watermarks, and the shared store's lie far below this floor.
const LOCAL_ID_BASE: u64 = 1 << 48;

/// A conflicted commit re-runs phase 1 at most this many times before
/// publishing anyway — still correct, just storing some duplicate chunks
/// (which the within-tolerance dedup-equivalence bound accounts for). A
/// retry costs one staged pipeline run (milliseconds), so the budget is
/// generous: exhausting it needs a fresh racing publish on every attempt,
/// which heavy day-0 hook sharing can produce under oversubscription. A
/// pipeline a sweeping GC raced is the exception: it is never published,
/// so past this budget its commit fails.
const MAX_COMMIT_RETRIES: u32 = 8;

/// How many recent publishes keep their hook-hash sets for conflict
/// detection. A pipeline that started more than this many publishes ago
/// is conservatively treated as conflicted.
const PUBLISH_LOG: usize = 64;

/// Tuning for [`SharedStore::open`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Expected chunk size in bytes (new stores only; an existing store
    /// keeps its original chunking).
    pub ecs: usize,
    /// Slices per DiskChunk / Manifest (`SD`; new stores only).
    pub sd: usize,
    /// Chunking algorithm (new stores only; an existing store keeps the
    /// chunker its chunks were cut with).
    pub chunker: ChunkerKind,
    /// Batched-backend I/O tuning (threads, batch sizes, durability).
    pub io: IoConfig,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig { ecs: 4096, sd: 16, chunker: ChunkerKind::Rabin, io: IoConfig::default() }
    }
}

/// Result of a committed write session.
#[derive(Debug, Clone, Serialize)]
pub struct CommitReport {
    /// Files in the committed snapshot.
    pub files: u64,
    /// Raw input bytes deduplicated.
    pub input_bytes: u64,
    /// Bytes the store actually grew by (data + metadata).
    pub grown_bytes: u64,
}

/// One-line statistics snapshot (`STATS`).
#[derive(Debug, Clone, Serialize)]
pub struct DaemonStats {
    /// Cumulative input bytes over the store's life.
    pub input_bytes: u64,
    /// Bytes eliminated as duplicates.
    pub dup_bytes: u64,
    /// Files deduplicated.
    pub files: u64,
    /// Chunks stored.
    pub chunks_stored: u64,
    /// Total output (data + metadata) bytes on disk.
    pub stored_bytes: u64,
    /// Streams committed.
    pub streams: u64,
    /// Write sessions currently open.
    pub active_sessions: usize,
    /// `tenant/label` of each open session, sorted.
    pub active_streams: Vec<String>,
    /// Hook-index entries.
    pub index_entries: usize,
    /// Hook-index entries per shard.
    pub index_occupancy: Vec<usize>,
}

/// What phase 1 of a commit hands phase 2: the staging engine holding the
/// session's objects under private ids, the publish epoch the pipeline
/// started at, and the hashes its hook probes missed.
struct Staged {
    engine: MhdEngine<StagingBackend>,
    epoch0: u64,
    missed: FxHashSet<ChunkHash>,
}

/// How phase 2 of a commit ended.
enum Published {
    /// The stream is committed and durable.
    Committed(CommitReport),
    /// A publish or a sweeping GC raced the pipeline: re-run phase 1.
    Conflict,
}

/// An in-progress write session: files staged in memory, nothing in the
/// store until [`SharedStore::commit`].
pub struct WriteSession {
    sid: u64,
    tenant: String,
    label: String,
    files: Vec<FileEntry>,
    staged_bytes: u64,
    /// Staged paths by the name their recipe is stored under.
    seen: FxHashMap<String, String>,
}

impl WriteSession {
    /// Session id (unique within this daemon process).
    pub fn id(&self) -> u64 {
        self.sid
    }

    /// Owning tenant.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Stream label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The `tenant/label` stream this session commits under: its recipes
    /// are `tenant/label/<path>`, its wip record is keyed by it.
    pub fn prefix(&self) -> String {
        format!("{}/{}", self.tenant, self.label)
    }

    /// Files staged so far.
    pub fn staged_files(&self) -> usize {
        self.files.len()
    }

    /// Bytes staged so far.
    pub fn staged_bytes(&self) -> u64 {
        self.staged_bytes
    }

    /// Stages one file for commit: a copy of `data`, through
    /// [`stage_owned`](WriteSession::stage_owned).
    pub fn stage(&mut self, path: &str, data: &[u8]) -> DaemonResult<()> {
        self.stage_owned(path, data.to_vec())
    }

    /// Stages one file for commit, keeping `data`'s buffer (the `FILE`
    /// payload as read off the socket) without copying it. Validates the
    /// path, rejects duplicates — a repeated path, or two paths whose
    /// recipes would be stored under one [`safe_name`] — and enforces the
    /// per-file size cap; the store is not touched.
    pub fn stage_owned(&mut self, path: &str, data: Vec<u8>) -> DaemonResult<()> {
        if !valid_path(path) {
            return Err(DaemonError::Protocol(format!("invalid file path {path:?}")));
        }
        if data.len() as u64 > MAX_FILE_BYTES {
            return Err(DaemonError::Protocol(format!(
                "file {path:?} exceeds {MAX_FILE_BYTES} bytes"
            )));
        }
        let stored_as = safe_name(path);
        if let Some(other) = self.seen.get(&stored_as) {
            return Err(DaemonError::Protocol(if other == path {
                format!("duplicate file path {path:?}")
            } else {
                format!("file paths {other:?} and {path:?} would both be stored as {stored_as:?}")
            }));
        }
        self.seen.insert(stored_as, path.to_string());
        self.staged_bytes += data.len() as u64;
        self.files.push(FileEntry {
            path: format!("{}/{}/{path}", self.tenant, self.label),
            data: Bytes::from(data),
        });
        Ok(())
    }
}

struct StoreInner {
    engine: MhdEngine<DaemonBackend>,
    /// The store's parameters and stream count, as last persisted or
    /// about to be.
    meta: StoreMeta,
    /// Monotonic publish sequence: bumped once per committed session and
    /// once per GC that deleted anything.
    epoch: u64,
    /// The epoch of the last GC that deleted anything. A pipeline that
    /// started before it may have deduplicated against what it deleted.
    swept: u64,
    /// Hook hashes of the last [`PUBLISH_LOG`] publishes, tagged by the
    /// epoch that produced them, for phase-2 conflict detection.
    publish_log: VecDeque<(u64, FxHashSet<ChunkHash>)>,
}

/// The one store all sessions share. Commit pipelines, `HAVE`, `RESTORE`
/// and `LS` run without the engine lock; only the publish phase of a
/// commit, `BEGIN`, `GC`, `FSCK` and `STATS` serialise on it (see the
/// module docs for the two-phase commit protocol).
pub struct SharedStore {
    inner: Mutex<StoreInner>,
    index: Arc<SharedHookIndex>,
    registry: SessionRegistry,
    root: PathBuf,
    next_session: AtomicU64,
    /// Lock-free mirror of `StoreInner::epoch`, read at phase-1 start.
    epoch: AtomicU64,
    recovery: RecoverySummary,
    /// A read-only handle on the engine's directory backend, sharing its
    /// logs: what staging pipelines, `RESTORE` and `LS` read through, so
    /// none of them loads a log.
    reader: DirReader,
    /// The store's own chunking shape, for the lock-free staging engines.
    engine_config: EngineConfig,
    durability: Durability,
    /// The store's writer lock, released when the store is dropped.
    _lock: WriterLock,
}

impl SharedStore {
    /// Opens (or initialises) the shared store at `root` through
    /// [`statefile::open_write`] — the writer lock, backend recovery and
    /// the rollback of everything above the commit watermark run before
    /// anything reads a byte — then preloads the hook index with every
    /// Hook's hash → Manifest pair from the Hook log's index. The lock is
    /// held until the store is dropped.
    pub fn open(root: &Path, config: DaemonConfig) -> DaemonResult<SharedStore> {
        let index = Arc::new(SharedHookIndex::default());
        let new_store =
            StoreMeta { ecs: config.ecs, sd: config.sd, streams: 0, chunker: config.chunker };
        let mut reader = None;
        let opened = statefile::open_write(root, new_store, config.io, |backend| {
            reader = Some(backend.reader());
            let backend = FaultBackend::with_point(backend, FaultPoint::never());
            IndexingBackend::new(backend, index.clone())
        })?;
        let reader =
            reader.ok_or_else(|| DaemonError::State("the store opened no backend".into()))?;
        let mut engine = opened.engine;
        let loaded = engine.substrate_mut().backend_mut().populate_index()?;
        mhd_obs::counter!("daemon.index_preloaded").add(loaded as u64);

        let store = SharedStore {
            inner: Mutex::new(
                Rank::Engine,
                StoreInner {
                    engine,
                    meta: opened.meta,
                    epoch: 0,
                    swept: 0,
                    publish_log: VecDeque::new(),
                },
            ),
            _lock: opened.lock,
            index,
            registry: SessionRegistry::new(),
            root: root.to_path_buf(),
            next_session: AtomicU64::new(1),
            epoch: AtomicU64::new(0),
            recovery: opened.recovery,
            reader,
            engine_config: EngineConfig::new(opened.meta.ecs, opened.meta.sd)
                .with_chunker(opened.meta.chunker),
            durability: config.io.durability,
        };
        // Persist immediately: a brand-new store gets its watermark files,
        // a recovered one gets a clean baseline.
        store.persist()?;
        Ok(store)
    }

    /// What the open-time recovery pass found and did.
    pub fn recovery(&self) -> &RecoverySummary {
        &self.recovery
    }

    /// The shared hook index (lock-free `HAVE` probes).
    pub fn index(&self) -> &Arc<SharedHookIndex> {
        &self.index
    }

    /// The active-session registry.
    pub fn registry(&self) -> &SessionRegistry {
        &self.registry
    }

    /// Store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Flushes engine state and rewrites the watermark files atomically.
    pub fn persist(&self) -> DaemonResult<()> {
        let mut inner = self.inner.lock();
        let _ = inner.engine.finish()?;
        self.persist_locked(&inner)
    }

    fn persist_locked(&self, inner: &StoreInner) -> DaemonResult<()> {
        let state = inner.engine.export_state();
        Ok(statefile::persist(&self.root, self.durability, state, &inner.meta)?)
    }

    /// Opens a write session for `tenant`/`label`: captures the GC
    /// watermark, takes the stream lease and writes the `wip` intent
    /// record. Fails if the stream already exists or is being written by
    /// another session.
    pub fn begin_session(&self, tenant: &str, label: &str) -> DaemonResult<WriteSession> {
        if !valid_tenant(tenant) {
            return Err(DaemonError::Protocol(format!("invalid tenant name {tenant:?}")));
        }
        if !valid_tenant(label) {
            return Err(DaemonError::Protocol(format!("invalid label {label:?}")));
        }
        let prefix = format!("{tenant}/{label}");
        let recipe_prefix = safe_name(&format!("{prefix}/"));

        // The existence check, watermark capture and registration happen
        // under the engine lock so no commit can slide between them.
        let mut inner = self.inner.lock();
        if inner
            .engine
            .substrate_mut()
            .list_file_manifests()
            .iter()
            .any(|n| n.starts_with(&recipe_prefix))
        {
            return Err(DaemonError::Protocol(format!("stream {prefix:?} already exists")));
        }
        let watermark = inner.engine.substrate().chunk_id_watermark();
        let sid = self.next_session.fetch_add(1, Ordering::Relaxed);
        self.registry.register(sid, watermark, &prefix).map_err(DaemonError::Protocol)?;
        drop(inner);

        if let Err(e) = statefile::wip_begin(&self.root, self.durability, &prefix) {
            self.registry.deregister(sid);
            return Err(e.into());
        }

        mhd_obs::counter!("daemon.sessions_opened").inc();
        Ok(WriteSession {
            sid,
            tenant: tenant.to_string(),
            label: label.to_string(),
            files: Vec::new(),
            staged_bytes: 0,
            seen: FxHashMap::default(),
        })
    }

    /// Commits a staged session with the two-phase protocol (module
    /// docs): phase 1 (`pipeline`) runs the dedup pipeline outside the
    /// engine lock, phase 2 (`publish`) takes the lock only to validate,
    /// splice the staged objects in `FLUSH_ORDER`, and persist the
    /// watermark; a conflict re-runs the pipeline. The intent record is
    /// retired and the stream lease released on **every** exit path —
    /// success, pipeline error, or publish/persist failure — so a failed
    /// commit never leaves the stream un-writable or GC pinned.
    pub fn commit(&self, session: WriteSession) -> DaemonResult<CommitReport> {
        if session.files.is_empty() {
            self.abort(session);
            return Err(DaemonError::Protocol("session has no staged files".into()));
        }
        let _scope = mhd_obs::scope!("tenant={}", session.tenant);
        let mut attempt = 0u32;
        loop {
            let staged = self.pipeline(&session)?;
            match self.publish(&session, staged, attempt)? {
                Published::Committed(report) => return Ok(report),
                Published::Conflict => {
                    attempt += 1;
                    mhd_obs::counter!("daemon.commit_retries").inc();
                }
            }
        }
    }

    /// Phase 1 of [`commit`](Self::commit): the full dedup pipeline
    /// against a staging engine, concurrent with other sessions'
    /// pipelines and publishes. On failure the lease and intent record
    /// are released: nothing touched the shared store, staging writes are
    /// in memory.
    fn pipeline(&self, session: &WriteSession) -> DaemonResult<Staged> {
        let epoch0 = self.epoch.load(Ordering::Acquire);
        // `Bytes` clones are refcounted: retries re-read, not re-copy.
        let snapshot = Snapshot { machine: 0, day: 0, files: session.files.clone() };
        let ran = {
            let _pipeline = mhd_obs::stage("commit.pipeline");
            let _pipeline_timer = mhd_obs::span!("daemon.commit_pipeline_ns");
            self.build_staging_engine().and_then(|mut engine| {
                engine.process_snapshot(&snapshot)?;
                engine.finish()?;
                Ok(engine)
            })
        };
        match ran {
            Ok(mut engine) => {
                let missed = engine.take_missed_hashes();
                Ok(Staged { engine, epoch0, missed })
            }
            Err(e) => {
                self.cleanup_session(session);
                Err(e)
            }
        }
    }

    /// Phase 2 of [`commit`](Self::commit): validate, reserve, splice,
    /// persist — O(metadata), under the lock. `attempt` counts the
    /// conflicts this session has already retried: past
    /// [`MAX_COMMIT_RETRIES`] a publish race no longer sends the pipeline
    /// back (its staged objects are stored as they are), but a sweeping
    /// GC still does not let it through — the commit fails instead. On
    /// any failure the lease and intent record are released.
    fn publish(
        &self,
        session: &WriteSession,
        staged: Staged,
        attempt: u32,
    ) -> DaemonResult<Published> {
        let _publish = mhd_obs::stage("commit.publish");
        let _publish_timer = mhd_obs::span!("daemon.commit_publish_ns");
        let mut inner = self.inner.lock();
        // A GC that deleted objects after the pipeline began may have
        // deleted what it deduplicated against: such a pipeline is never
        // spliced.
        let swept = inner.swept > staged.epoch0;
        if attempt < MAX_COMMIT_RETRIES
            && (swept || Self::conflicts(&inner, staged.epoch0, &staged.missed))
        {
            return Ok(Published::Conflict);
        }
        if swept {
            drop(inner);
            self.cleanup_session(session);
            return Err(DaemonError::State(format!(
                "stream {:?}: gave up after {} commit attempts, the last of which a \
                 garbage collection raced",
                session.prefix(),
                MAX_COMMIT_RETRIES + 1
            )));
        }

        let before = inner.engine.substrate().ledger().total_output_bytes();
        let result = {
            let _t = mhd_obs::span!("daemon.commit_splice_ns");
            Self::splice_locked(&mut inner, staged.engine)
        }
        .and_then(|hook_hashes| {
            inner.meta.streams += 1;
            let _t = mhd_obs::span!("daemon.commit_persist_ns");
            match self.persist_locked(&inner) {
                Ok(()) => Ok(hook_hashes),
                Err(e) => {
                    inner.meta.streams -= 1;
                    Err(e)
                }
            }
        });
        match result {
            Ok(hook_hashes) => {
                inner.epoch += 1;
                let epoch = inner.epoch;
                inner.publish_log.push_back((epoch, hook_hashes));
                while inner.publish_log.len() > PUBLISH_LOG {
                    inner.publish_log.pop_front();
                }
                self.epoch.store(epoch, Ordering::Release);
                let grown_bytes =
                    inner.engine.substrate().ledger().total_output_bytes().saturating_sub(before);
                drop(inner);
                // Commit is durable; only now retire the intent record. A
                // crash between persist and this point re-deletes nothing
                // at recovery (everything is below the new watermark)
                // except the recipes — exactly the unacknowledged-commit
                // semantics we want.
                self.cleanup_session(session);
                mhd_obs::counter!("daemon.commits").inc();
                Ok(Published::Committed(CommitReport {
                    files: session.files.len() as u64,
                    input_bytes: session.staged_bytes,
                    grown_bytes,
                }))
            }
            Err(e) => {
                // Splice or persist failed. Roll the visible parts back
                // and release the lease and intent record before
                // surfacing the error, so the stream stays writable and
                // GC unpinned.
                let recipe_prefix = safe_name(&format!("{}/", session.prefix()));
                Self::undo_failed_publish(&mut inner, &recipe_prefix);
                let _ = self.persist_locked(&inner);
                drop(inner);
                self.cleanup_session(session);
                Err(e)
            }
        }
    }

    /// Builds the phase-1 engine: a staging backend over the store root,
    /// ids floored at [`LOCAL_ID_BASE`], the shared hook index installed
    /// as the presence oracle.
    fn build_staging_engine(&self) -> DaemonResult<MhdEngine<StagingBackend>> {
        let backend = StagingBackend::over(self.reader.clone(), self.index.clone());
        let mut engine = MhdEngine::new(backend, self.engine_config)?;
        engine.substrate_mut().ensure_id_floor(LOCAL_ID_BASE, LOCAL_ID_BASE);
        engine.set_hook_presence(self.index.clone());
        Ok(engine)
    }

    /// Whether a pipeline that started at `epoch0` deduplicated against a
    /// stale view: true when any hash it *missed* was published as a hook
    /// by a session that committed after `epoch0` (the pipeline would
    /// have found it, so its staged objects duplicate stored content), or
    /// when the publish log no longer reaches back that far.
    fn conflicts(inner: &StoreInner, epoch0: u64, missed: &FxHashSet<ChunkHash>) -> bool {
        if inner.epoch == epoch0 || missed.is_empty() {
            // No publishes raced the pipeline, or the pipeline found
            // everything it looked for — either way its view was exact.
            return false;
        }
        match inner.publish_log.front() {
            // The log was truncated past the pipeline's start: be
            // conservative and retry against the fresher view.
            Some(&(oldest, _)) if oldest > epoch0 + 1 => true,
            None => true,
            _ => inner
                .publish_log
                .iter()
                .any(|(epoch, hashes)| *epoch > epoch0 && !hashes.is_disjoint(missed)),
        }
    }

    /// Splices one staged session into the shared store, in
    /// `FLUSH_ORDER`: reserves real id ranges, remaps the session's
    /// private ids onto them, writes chunks → manifests → hooks →
    /// recipes through the shared substrate (so ledger accounting and the
    /// write-through hook index stay exact), absorbs the session's
    /// counters, and flushes. Returns the hook hashes published.
    fn splice_locked(
        inner: &mut StoreInner,
        mut staging: MhdEngine<StagingBackend>,
    ) -> DaemonResult<FxHashSet<ChunkHash>> {
        let delta: SessionDelta = staging.export_delta();
        let chunk_span = staging.substrate().chunk_id_watermark() - LOCAL_ID_BASE;
        let manifest_span = staging.substrate().manifest_id_watermark() - LOCAL_ID_BASE;
        let overlay = staging.substrate_mut().backend_mut().take_staged();

        let parse_id = |name: &str| -> DaemonResult<u64> {
            u64::from_str_radix(name, 16)
                .map_err(|_| DaemonError::State(format!("staged object with odd name {name:?}")))
        };

        let sub = inner.engine.substrate_mut();
        let chunk_base = sub.reserve_chunk_ids(chunk_span);
        let manifest_base = sub.reserve_manifest_ids(manifest_span);
        let map_chunk = move |id: DiskChunkId| {
            if id.0 >= LOCAL_ID_BASE {
                DiskChunkId(id.0 - LOCAL_ID_BASE + chunk_base)
            } else {
                id
            }
        };
        let map_manifest = move |id: ManifestId| {
            if id.0 >= LOCAL_ID_BASE {
                ManifestId(id.0 - LOCAL_ID_BASE + manifest_base)
            } else {
                id
            }
        };

        // 1. DiskChunks.
        for (name, data) in overlay.fresh_of(FileKind::DiskChunk) {
            let local = DiskChunkId(parse_id(name)?);
            sub.splice_disk_chunk(map_chunk(local), data)?;
        }

        // 2. Manifests: the session's own (remap id and containers)…
        for (name, data) in overlay.fresh_of(FileKind::Manifest) {
            let local = ManifestId(parse_id(name)?);
            let mut manifest = Manifest::decode(local, data)?;
            manifest.id = map_manifest(local);
            for entry in &mut manifest.entries {
                entry.container = map_chunk(entry.container);
            }
            sub.write_manifest(&manifest)?;
        }
        //    …then copy-on-write rewrites of *shared* manifests (HHR
        //    write-backs against pre-existing streams). The original may
        //    have been GC'd or concurrently rewritten since phase 1
        //    copied it; skipping a vanished one is safe — manifests are
        //    dedup metadata, restores go through FileManifests, and a
        //    lost concurrent rewrite leaves a still-valid older tiling.
        for (name, data) in overlay.updated_of(FileKind::Manifest) {
            let id = ManifestId(parse_id(name)?);
            if !sub.manifest_exists(id) {
                continue;
            }
            let mut manifest = Manifest::decode(id, data)?;
            for entry in &mut manifest.entries {
                entry.container = map_chunk(entry.container);
            }
            sub.update_manifest(&manifest)?;
        }

        // 3. Hooks: name is the chunk hash, payload's first 8 LE bytes
        //    the target manifest id. write_hook's exists-guard keeps the
        //    store-wide first-mapping-wins rule under concurrency.
        let mut hook_hashes = FxHashSet::default();
        for (name, payload) in overlay.fresh_of(FileKind::Hook) {
            let hash = plain_hook_hash(name)
                .ok_or_else(|| DaemonError::State(format!("staged hook with odd name {name:?}")))?;
            let raw: [u8; 8] =
                payload.get(..8).and_then(|b| b.try_into().ok()).ok_or_else(|| {
                    DaemonError::State(format!("staged hook {name} payload truncated"))
                })?;
            let target = map_manifest(ManifestId(u64::from_le_bytes(raw)));
            sub.write_hook(hash, target)?;
            hook_hashes.insert(hash);
        }

        // 4. FileManifests (recipes) — last, per FLUSH_ORDER.
        for (name, data) in overlay.fresh_of(FileKind::FileManifest) {
            let staged = FileManifest::decode(data)?;
            let mut recipe = FileManifest::new();
            for extent in staged.extents() {
                recipe
                    .push(mhd_store::Extent { container: map_chunk(extent.container), ..*extent });
            }
            sub.write_file_manifest(name, &recipe)?;
        }

        sub.flush()?;
        inner.engine.absorb_delta(&delta);
        Ok(hook_hashes)
    }

    /// Best-effort rollback after a failed splice or persist: deletes the
    /// session's recipes (so the stream name is reusable and no recipe
    /// can outlive the objects a later open-time rollback may delete) and
    /// flushes the deletions — they must be durable *before* the wip
    /// record is removed, because only the wip record identifies recipes
    /// whose extents all point below the watermark. Orphaned chunks/manifests/hooks
    /// stay as unreferenced garbage above the persisted watermark: a
    /// later protected GC or the next open-time rollback reclaims them.
    fn undo_failed_publish(inner: &mut StoreInner, recipe_prefix: &str) {
        let sub = inner.engine.substrate_mut();
        for name in sub.list_file_manifests() {
            if name.starts_with(recipe_prefix) {
                let _ = sub.delete_file_manifest(&name);
            }
        }
        let _ = sub.flush();
    }

    /// Arms (or, with [`FaultPoint::never`], disarms) the fault-injection
    /// layer in the daemon's backend stack. Test instrumentation for the
    /// commit failure paths; the layer never fires unless armed.
    pub fn arm_fault(&self, point: FaultPoint) {
        let mut inner = self.inner.lock();
        inner.engine.substrate_mut().backend_mut().inner_mut().arm(point);
    }

    /// Tears the `nth` physical write from now half-way, on whichever
    /// thread makes it ([`mhd_store::DirBackend::fault_short_write_at`]): a crash
    /// mid-write. Test instrumentation, like
    /// [`arm_fault`](SharedStore::arm_fault).
    pub fn tear_write_at(&self, nth: u64) {
        let mut inner = self.inner.lock();
        inner
            .engine
            .substrate_mut()
            .backend_mut()
            .inner_mut()
            .inner_mut()
            .fault_short_write_at(nth);
    }

    /// Discards a staged session. Nothing reached the store, so this only
    /// retires the intent record and releases the lease.
    pub fn abort(&self, session: WriteSession) {
        self.cleanup_session(&session);
        mhd_obs::counter!("daemon.aborts").inc();
    }

    fn cleanup_session(&self, session: &WriteSession) {
        // Removal failure is not actionable here: a leftover record only
        // causes a benign re-rollback of an already-clean stream.
        let _ = statefile::wip_end(&self.root, self.durability, &session.prefix());
        self.registry.deregister(session.sid);
    }

    /// Restores one file. `name` is tenant-relative (`label/path`, as
    /// listed by [`list`](SharedStore::list)). Runs on a read-only view —
    /// a large restore never blocks commits.
    pub fn restore(&self, tenant: &str, name: &str) -> DaemonResult<Vec<u8>> {
        if !valid_tenant(tenant) {
            return Err(DaemonError::Protocol(format!("invalid tenant name {tenant:?}")));
        }
        let full = format!("{tenant}/{name}");
        let mut reader = self.reader.clone();
        let fm = FileManifest::decode(&reader.get(FileKind::FileManifest, &full)?)?;
        Ok(mhd_core::restore::assemble(&fm, |id, offset, len, out| {
            reader.append_range(FileKind::DiskChunk, &id.name(), offset, len, out)
        })?)
    }

    /// Lists `tenant`'s recipes, tenant prefix stripped. Lock-free, like
    /// [`restore`](SharedStore::restore).
    pub fn list(&self, tenant: &str) -> DaemonResult<Vec<String>> {
        if !valid_tenant(tenant) {
            return Err(DaemonError::Protocol(format!("invalid tenant name {tenant:?}")));
        }
        let prefix = safe_name(&format!("{tenant}/"));
        Ok(self
            .reader
            .clone()
            .list(FileKind::FileManifest)
            .into_iter()
            .filter_map(|n| n.strip_prefix(&prefix).map(str::to_string))
            .collect())
    }

    /// Which of `hashes` (hex) the store has hooks for — answered from
    /// the shared index, without the engine lock.
    pub fn have(&self, hashes: &[String]) -> Vec<bool> {
        hashes
            .iter()
            .map(|hex| {
                mhd_hash::ChunkHash::from_hex(hex).map(|h| self.index.contains(&h)).unwrap_or(false)
            })
            .collect()
    }

    /// Protected mark-sweep garbage collection: sweeps only below
    /// `min(current watermark, every active session's watermark)`, so an
    /// in-progress session can never lose objects written after it began.
    /// A sweep that deleted anything sends every pipeline already running
    /// back to phase 1, since one may have deduplicated against a deleted
    /// object written before its session began. Safe to call with
    /// sessions open.
    pub fn gc(&self) -> DaemonResult<GcReport> {
        let mut inner = self.inner.lock();
        // Drain the manifest cache first: GC must not race a dirty
        // write-back, and a cold cache can't resurrect a swept manifest.
        let _ = inner.engine.finish()?;
        let watermark = inner.engine.substrate().chunk_id_watermark();
        let cutoff = self.registry.min_watermark().map_or(watermark, |w| w.min(watermark));
        let report = mhd_core::gc::collect_protected(inner.engine.substrate_mut(), cutoff)?;
        if report.containers_deleted + report.manifests_deleted + report.hooks_deleted > 0 {
            // Every pipeline running now started before this sweep and
            // may have deduplicated against what it deleted: each one's
            // publish sees the bump and re-runs it.
            inner.epoch += 1;
            inner.swept = inner.epoch;
            self.epoch.store(inner.epoch, Ordering::Release);
        }
        self.persist_locked(&inner)?;
        mhd_obs::counter!("daemon.gc_runs").inc();
        Ok(report)
    }

    /// Runs the structural integrity checker over the whole store.
    pub fn fsck(&self) -> mhd_core::fsck::IntegrityReport {
        let mut inner = self.inner.lock();
        mhd_core::fsck::check_store(inner.engine.substrate_mut())
    }

    /// A statistics snapshot (store totals + daemon live state).
    pub fn stats(&self) -> DaemonStats {
        let inner = self.inner.lock();
        let state = inner.engine.export_state();
        DaemonStats {
            input_bytes: state.input_bytes,
            dup_bytes: state.dup_bytes,
            files: state.files,
            chunks_stored: state.chunks_stored,
            stored_bytes: inner.engine.substrate().ledger().total_output_bytes(),
            streams: inner.meta.streams,
            active_sessions: self.registry.active(),
            active_streams: self.registry.active_prefixes(),
            index_entries: self.index.len(),
            index_occupancy: self.index.occupancy(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhd_workload::Rng;

    fn temp_root(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("mhd-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        Rng::new(seed).bytes(len)
    }

    fn small_config() -> DaemonConfig {
        DaemonConfig { ecs: 512, sd: 8, ..DaemonConfig::default() }
    }

    #[test]
    fn commit_restore_round_trip_per_tenant() {
        let root = temp_root("roundtrip");
        let store = SharedStore::open(&root, small_config()).unwrap();

        let data_a = random_bytes(1, 60_000);
        let data_b = random_bytes(2, 40_000);
        let mut sa = store.begin_session("alice", "day0").unwrap();
        sa.stage("disk.img", &data_a).unwrap();
        let mut sb = store.begin_session("bob", "day0").unwrap();
        sb.stage("disk.img", &data_b).unwrap();

        let ra = store.commit(sa).unwrap();
        assert_eq!(ra.files, 1);
        assert_eq!(ra.input_bytes, 60_000);
        store.commit(sb).unwrap();

        assert_eq!(store.restore("alice", "day0/disk.img").unwrap(), data_a);
        assert_eq!(store.restore("bob", "day0/disk.img").unwrap(), data_b);
        // Listings are tenant-scoped.
        assert_eq!(store.list("alice").unwrap(), vec!["day0_disk.img".to_string()]);
        assert_eq!(store.list("bob").unwrap(), vec!["day0_disk.img".to_string()]);
        assert!(store.restore("alice", "day0/nope.img").is_err());
        assert_eq!(store.registry().active(), 0);
        assert!(store.fsck().is_healthy());

        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn identical_corpora_across_tenants_share_chunks() {
        let root = temp_root("xdedup");
        let store = SharedStore::open(&root, small_config()).unwrap();
        let data = random_bytes(3, 80_000);

        let mut s = store.begin_session("alice", "d").unwrap();
        s.stage("img", &data).unwrap();
        let first = store.commit(s).unwrap();

        let mut s = store.begin_session("bob", "d").unwrap();
        s.stage("img", &data).unwrap();
        let second = store.commit(s).unwrap();

        assert!(
            second.grown_bytes < first.grown_bytes / 5,
            "identical data from another tenant must dedup (first grew {}, second grew {})",
            first.grown_bytes,
            second.grown_bytes
        );
        assert_eq!(store.restore("bob", "d/img").unwrap(), data);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stream_names_are_exclusive_and_released_on_abort() {
        let root = temp_root("lease");
        let store = SharedStore::open(&root, small_config()).unwrap();

        let s1 = store.begin_session("t", "day0").unwrap();
        // Active lease blocks a second session on the same stream…
        assert!(store.begin_session("t", "day0").is_err());
        // …but not a different stream.
        let s2 = store.begin_session("t", "day1").unwrap();
        store.abort(s2);
        store.abort(s1);

        // After abort the stream name is reusable.
        let mut s = store.begin_session("t", "day0").unwrap();
        s.stage("f", &random_bytes(4, 10_000)).unwrap();
        store.commit(s).unwrap();
        // A committed stream's name is taken for good.
        assert!(store.begin_session("t", "day0").is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn gc_protects_active_sessions() {
        let root = temp_root("gcprotect");
        let store = SharedStore::open(&root, small_config()).unwrap();

        let mut s = store.begin_session("t", "base").unwrap();
        s.stage("f", &random_bytes(5, 50_000)).unwrap();
        store.commit(s).unwrap();

        // An idle session pins the watermark: even though nothing above it
        // exists yet, a GC run must report a cutoff that spares future
        // writes. Commit afterwards and verify the data survived GC.
        let mut s = store.begin_session("t", "next").unwrap();
        let data = random_bytes(6, 50_000);
        s.stage("f", &data).unwrap();
        let _ = store.gc().unwrap();
        store.commit(s).unwrap();
        assert_eq!(store.restore("t", "next/f").unwrap(), data);
        assert!(store.fsck().is_healthy());
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Begins `tenant`/`d` with `data` staged as `f` and fails its
    /// publish at the first recipe write: its objects stay behind as
    /// orphans.
    fn fail_publish(store: &SharedStore, tenant: &str, data: &[u8]) {
        let mut s = store.begin_session(tenant, "d").unwrap();
        s.stage("f", data).unwrap();
        let staged = store.pipeline(&s).unwrap();
        store.arm_fault(FaultPoint::write(Some(FileKind::FileManifest), 0));
        assert!(store.publish(&s, staged, 0).is_err(), "injected fault must surface");
        store.arm_fault(FaultPoint::never());
    }

    #[test]
    fn gc_between_pipeline_and_publish_sends_the_pipeline_back() {
        // X's failed publish leaves orphans below A's watermark; A's
        // pipeline dedups against them, a GC sweeps them, and A's publish
        // must not splice a recipe naming the swept chunks.
        let root = temp_root("gcrace");
        let store = SharedStore::open(&root, small_config()).unwrap();
        let data = random_bytes(14, 40_000);
        fail_publish(&store, "x", &data);

        let mut a = store.begin_session("a", "d").unwrap();
        a.stage("f", &data).unwrap();
        let staged = store.pipeline(&a).unwrap();
        let report = store.gc().unwrap();
        assert!(report.containers_deleted >= 1, "X's orphans must be swept: {report:?}");
        assert!(matches!(store.publish(&a, staged, 0).unwrap(), Published::Conflict));
        let staged = store.pipeline(&a).unwrap();
        assert!(matches!(store.publish(&a, staged, 1).unwrap(), Published::Committed(_)));
        assert_eq!(store.restore("a", "d/f").unwrap(), data);
        assert!(store.fsck().is_healthy());

        // Past the retry budget the commit fails and lets go of its
        // stream, rather than publishing what the sweep may have deleted.
        fail_publish(&store, "y", &random_bytes(15, 20_000));
        let mut b = store.begin_session("b", "d").unwrap();
        b.stage("f", &data).unwrap();
        let staged = store.pipeline(&b).unwrap();
        assert!(store.gc().unwrap().containers_deleted >= 1);
        assert!(store.publish(&b, staged, MAX_COMMIT_RETRIES).is_err());
        assert_eq!(store.registry().active(), 0);
        assert_eq!(std::fs::read_dir(statefile::wip_dir(&root)).unwrap().count(), 0);
        assert!(store.fsck().is_healthy());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_session_rolls_back_at_open() {
        let root = temp_root("torn");
        let committed = random_bytes(7, 30_000);
        {
            let store = SharedStore::open(&root, small_config()).unwrap();
            let mut s = store.begin_session("t", "good").unwrap();
            s.stage("f", &committed).unwrap();
            store.commit(s).unwrap();
            // Simulate a crash mid-session: begin (which writes the wip
            // intent record) and drop the store without commit/abort.
            let mut s = store.begin_session("t", "torn").unwrap();
            s.stage("f", &random_bytes(8, 30_000)).unwrap();
            std::mem::forget(s);
        }
        // The wip record survived the "crash".
        let wip = std::fs::read_dir(statefile::wip_dir(&root)).unwrap().count();
        assert_eq!(wip, 1);

        let store = SharedStore::open(&root, small_config()).unwrap();
        let recovery = store.recovery().clone();
        assert_eq!(recovery.sessions_rolled_back, 1);
        // The torn stream is gone, the committed one intact, and the
        // store is structurally healthy.
        assert_eq!(store.list("t").unwrap(), vec!["good_f".to_string()]);
        assert_eq!(store.restore("t", "good/f").unwrap(), committed);
        assert!(store.fsck().is_healthy());
        // The lease is free again.
        let s = store.begin_session("t", "torn").unwrap();
        store.abort(s);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn have_answers_from_the_shared_index() {
        let root = temp_root("have");
        let store = SharedStore::open(&root, small_config()).unwrap();
        let mut s = store.begin_session("t", "d").unwrap();
        s.stage("f", &random_bytes(9, 20_000)).unwrap();
        store.commit(s).unwrap();

        assert!(!store.index().is_empty(), "commit must publish hooks");
        let hooks: Vec<String> = {
            // Ask for a real hook plus a bogus one.
            let stats = store.stats();
            assert!(stats.index_entries > 0);
            vec!["0000000000000000000000000000000000000000".to_string()]
        };
        assert_eq!(store.have(&hooks), vec![false]);
        assert_eq!(store.have(&["nothex".to_string()]), vec![false]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopen_resumes_dedup_against_persisted_state() {
        let root = temp_root("resume");
        let data = random_bytes(10, 70_000);
        {
            let store = SharedStore::open(&root, small_config()).unwrap();
            let mut s = store.begin_session("t", "day0").unwrap();
            s.stage("img", &data).unwrap();
            store.commit(s).unwrap();
        }
        let store = SharedStore::open(&root, small_config()).unwrap();
        assert!(store.recovery().is_clean());
        let mut s = store.begin_session("t", "day1").unwrap();
        s.stage("img", &data).unwrap();
        let report = store.commit(s).unwrap();
        assert!(
            report.grown_bytes < report.input_bytes / 5,
            "reopened store must dedup against day0 (grew {} of {})",
            report.grown_bytes,
            report.input_bytes
        );
        assert_eq!(store.restore("t", "day1/img").unwrap(), data);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn publish_failure_releases_lease_and_gc_recovers() {
        // Day 1 shares half its bytes with day 0. Fail its publish at each
        // of its writes in turn.
        let root = temp_root("faultpub");
        let day0 = random_bytes(11, 48_000);
        let mut day1 = day0[..24_000].to_vec();
        day1.extend_from_slice(&random_bytes(12, 24_000));
        let commit = |store: &SharedStore, label: &str, data: &[u8]| {
            let mut s = store.begin_session("t", label).unwrap();
            s.stage("f", data).unwrap();
            store.commit(s)
        };

        let mut writes = None;
        let mut n = 0;
        while writes.is_none_or(|w| n < w) {
            let _ = std::fs::remove_dir_all(&root);
            let store = SharedStore::open(&root, small_config()).unwrap();
            commit(&store, "d0", &day0).unwrap();
            if writes.is_none() {
                store.arm_fault(FaultPoint::write(None, u64::MAX));
                commit(&store, "d1", &day1).unwrap();
                let mut inner = store.inner.lock();
                writes =
                    Some(inner.engine.substrate_mut().backend_mut().inner_mut().matching_ops());
                continue;
            }
            store.arm_fault(FaultPoint::write(None, n));
            assert!(commit(&store, "d1", &day1).is_err(), "write {n}: the fault must surface");
            store.arm_fault(FaultPoint::never());

            // The lease and the intent record are released — the stream
            // is not stuck and GC is not pinned at a dead session's
            // watermark.
            assert_eq!(store.registry().active(), 0, "write {n}");
            assert_eq!(std::fs::read_dir(statefile::wip_dir(&root)).unwrap().count(), 0);

            // A crash now leaves a store that reopens healthy, day 0 whole.
            let crash = root.with_extension("crash");
            let _ = std::fs::remove_dir_all(&crash);
            super::schedules::copy_tree(&root, &crash);
            let reopened = SharedStore::open(&crash, small_config()).unwrap();
            assert!(reopened.fsck().is_healthy(), "write {n}: {:?}", reopened.fsck().problems);
            assert_eq!(reopened.restore("t", "d0/f").unwrap(), day0, "write {n}");
            drop(reopened);
            std::fs::remove_dir_all(&crash).unwrap();

            // The GC cutoff recovered: a run reclaims the DiskChunks the
            // failed splice wrote (it writes them first), and a retry of
            // the very same label succeeds.
            let report = store.gc().unwrap();
            assert_eq!(report.containers_deleted > 0, n > 0, "write {n}: {report:?}");
            commit(&store, "d1", &day1).unwrap();
            assert_eq!(store.restore("t", "d1/f").unwrap(), day1, "write {n}");
            assert_eq!(store.restore("t", "d0/f").unwrap(), day0, "write {n}");
            assert!(store.fsck().is_healthy(), "write {n}");
            n += 1;
        }
        assert!(n >= 4, "day 1's publish made {n} writes, fewer than the four kinds");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn persist_failure_releases_lease_and_retry_succeeds() {
        let root = temp_root("faultpersist");
        let store = SharedStore::open(&root, small_config()).unwrap();
        let data0 = random_bytes(12, 40_000);
        let mut s = store.begin_session("t", "d0").unwrap();
        s.stage("f", &data0).unwrap();
        store.commit(s).unwrap();

        // Make `state.json` unwritable: rename cannot replace a directory.
        let state = root.join("session/state.json");
        std::fs::remove_file(&state).unwrap();
        std::fs::create_dir(&state).unwrap();

        let data1 = random_bytes(13, 40_000);
        let mut s = store.begin_session("t", "d1").unwrap();
        s.stage("f", &data1).unwrap();
        assert!(store.commit(s).is_err(), "persist failure must surface");

        // The historical bug: this path leaked the registry lease and the
        // wip intent record, wedging the stream until restart.
        assert_eq!(store.registry().active(), 0);
        assert_eq!(std::fs::read_dir(statefile::wip_dir(&root)).unwrap().count(), 0);

        // Repair the state path; the same stream commits cleanly.
        std::fs::remove_dir(&state).unwrap();
        let mut s = store.begin_session("t", "d1").unwrap();
        s.stage("f", &data1).unwrap();
        store.commit(s).unwrap();
        assert_eq!(store.restore("t", "d1/f").unwrap(), data1);
        assert_eq!(store.restore("t", "d0/f").unwrap(), data0);
        let _ = store.gc().unwrap();
        assert!(store.fsck().is_healthy());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn parallel_commits_match_serial_dedup_within_tolerance() {
        // Four machines share a 60 KiB OS base plus a unique tail — the
        // pathological day-0 race where every session misses the base
        // hooks at once. Optimistic publish-time validation must make the
        // parallel run store the base once, like the serial run does.
        let base = random_bytes(20, 60_000);
        let datas: Vec<Vec<u8>> = (0..4u64)
            .map(|i| {
                let mut d = base.clone();
                d.extend_from_slice(&random_bytes(21 + i, 20_000));
                d
            })
            .collect();

        let serial_root = temp_root("eqserial");
        let serial = SharedStore::open(&serial_root, small_config()).unwrap();
        for (i, data) in datas.iter().enumerate() {
            let mut s = serial.begin_session("t", &format!("m{i}")).unwrap();
            s.stage("disk.img", data).unwrap();
            serial.commit(s).unwrap();
        }
        let serial_chunks = serial.stats().chunks_stored;

        let par_root = temp_root("eqpar");
        let par = Arc::new(SharedStore::open(&par_root, small_config()).unwrap());
        std::thread::scope(|scope| {
            for (i, data) in datas.iter().enumerate() {
                let par = Arc::clone(&par);
                scope.spawn(move || {
                    let mut s = par.begin_session("t", &format!("m{i}")).unwrap();
                    s.stage("disk.img", data).unwrap();
                    par.commit(s).unwrap();
                });
            }
        });

        let par_chunks = par.stats().chunks_stored;
        assert!(
            par_chunks.abs_diff(serial_chunks) <= 2,
            "parallel dedup must match serial within the hysteresis \
             tolerance: serial {serial_chunks}, parallel {par_chunks}"
        );
        for (i, data) in datas.iter().enumerate() {
            assert_eq!(&par.restore("t", &format!("m{i}/disk.img")).unwrap(), data);
        }
        assert_eq!(par.registry().active(), 0);
        assert!(par.fsck().is_healthy());
        std::fs::remove_dir_all(&serial_root).unwrap();
        std::fs::remove_dir_all(&par_root).unwrap();
    }

    #[test]
    fn staging_validates_paths_and_duplicates() {
        let root = temp_root("staging");
        let store = SharedStore::open(&root, small_config()).unwrap();
        let mut s = store.begin_session("t", "d").unwrap();
        assert!(s.stage("../escape", b"x").is_err());
        assert!(s.stage("/abs", b"x").is_err());
        s.stage("ok.bin", b"x").unwrap();
        assert!(s.stage("ok.bin", b"y").is_err(), "duplicate path");
        // Two paths whose recipes would be one object: refused by name.
        s.stage("sub/b.bin", b"x").unwrap();
        let err = s.stage("sub_b.bin", b"y").unwrap_err().to_string();
        assert!(err.contains("\"sub/b.bin\"") && err.contains("\"sub_b.bin\""), "{err}");
        assert_eq!(s.staged_files(), 2);
        store.abort(s);
        // Committing an empty session is an error, not a no-op.
        let s = store.begin_session("t", "d2").unwrap();
        assert!(store.commit(s).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn splice_remaps_staged_chunks_in_rewritten_shared_manifests() {
        // HHR re-tiles a manifest within its own container, so no engine
        // run points a rewritten shared manifest at a staged chunk. The
        // splice remaps such a reference all the same (here: the manifest
        // moved to a staged container); a pipeline that produced one
        // would otherwise publish a staging id.
        let root = temp_root("splice-updated");
        let store = SharedStore::open(&root, small_config()).unwrap();
        let mut s = store.begin_session("t", "base").unwrap();
        s.stage("f", &random_bytes(11, 20_000)).unwrap();
        store.commit(s).unwrap();

        let mut staging = store.build_staging_engine().unwrap();
        let sub = staging.substrate_mut();
        let mut manifest = sub.load_manifest(ManifestId(0)).unwrap();
        let staged = sub.write_disk_chunk_bytes(b"staged bytes").unwrap();
        assert!(staged.0 >= LOCAL_ID_BASE);
        manifest.entries = vec![mhd_store::ManifestEntry {
            hash: mhd_hash::sha1(b"staged bytes"),
            container: staged,
            offset: 0,
            size: 12,
            is_hook: true,
        }];
        sub.update_manifest(&manifest).unwrap();

        let mut inner = store.inner.lock();
        SharedStore::splice_locked(&mut inner, staging).unwrap();
        let sub = inner.engine.substrate_mut();
        let entry = sub.load_manifest(ManifestId(0)).unwrap().entries[0];
        assert!(entry.container.0 < LOCAL_ID_BASE, "{entry:?}");
        assert_eq!(&sub.read_chunk_range(entry.container, 0, 12).unwrap()[..], b"staged bytes");
        drop(inner);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn publish_writes_referees_before_referrers() {
        // An overlay that flushes at every write puts the splice's own
        // order on disk, as a large session's auto-flushes do: a
        // lock-free RESTORE or LS must never find a recipe whose chunks
        // are not there yet. The chunk directory fsynced after each
        // rename and the logs fsynced after each append name the order
        // the objects landed in.
        let root = temp_root("splice-order");
        let io = IoConfig {
            threads: 0,
            batch_ops: 1,
            durability: Durability::Fsync,
            ..IoConfig::default()
        };
        let store = SharedStore::open(&root, DaemonConfig { io, ..small_config() }).unwrap();
        let mut s = store.begin_session("t", "d").unwrap();
        s.stage("f", &random_bytes(16, 20_000)).unwrap();
        let synced = mhd_store::record_fsyncs(|| {
            store.commit(s).unwrap();
        });
        let mut written: Vec<FileKind> = synced
            .iter()
            .filter_map(|path| FileKind::ALL.into_iter().find(|k| *path == root.join(k.dir_name())))
            .collect();
        written.dedup();
        assert_eq!(written, FileKind::FLUSH_ORDER, "a publish wrote kinds out of order");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn commits_write_each_disk_chunk_and_hook_once() {
        use mhd_store::Backend;
        use mhd_store::FaultOp::{Delete, Write};

        // The paper's invariant on the publish path: DiskChunks and Hooks
        // are written once and never deleted; only Manifests are
        // rewritten. Each run replays the same sessions on a fresh store
        // whose fault layer counts one kind of operation.
        let corpus = mhd_workload::Corpus::generate(mhd_workload::CorpusSpec::tiny(7));
        let root = temp_root("write-once");
        let run = |op, kind| {
            let _ = std::fs::remove_dir_all(&root);
            let store = SharedStore::open(&root, small_config()).unwrap();
            store.arm_fault(FaultPoint { op, kind: Some(kind), fail_at: u64::MAX });
            for (i, snapshot) in corpus.snapshots.iter().enumerate() {
                let mut session = store.begin_session("t", &format!("d{i}")).unwrap();
                for file in &snapshot.files {
                    session.stage(&file.path, &file.data).unwrap();
                }
                store.commit(session).unwrap();
            }
            let mut inner = store.inner.lock();
            let backend = inner.engine.substrate_mut().backend_mut();
            (backend.inner_mut().matching_ops(), backend.count(kind))
        };
        for kind in [FileKind::DiskChunk, FileKind::Hook] {
            assert_eq!(run(Delete, kind).0, 0, "a commit deleted a {kind:?}");
            let (writes, objects) = run(Write, kind);
            assert!(objects > 0, "no {kind:?} stored: the check proves nothing");
            assert_eq!(writes, objects, "{kind:?}s written {writes} times for {objects} objects");
        }
        let (writes, manifests) = run(Write, FileKind::Manifest);
        assert!(writes > manifests, "the corpus gave HHR nothing to rewrite");
        std::fs::remove_dir_all(&root).unwrap();
    }
}

#[cfg(test)]
mod schedules {
    //! Every interleaving of whole commit steps, run on a real on-disk
    //! [`SharedStore`]: the daemon's concurrency protocols checked on the
    //! shipped code rather than on a copy of it.
    //!
    //! A writer's steps are `begin_session`, [`SharedStore::pipeline`] and
    //! [`SharedStore::publish`]; a conflict sends it back to `pipeline`, as
    //! [`SharedStore::commit`]'s loop does. The collector's one step is
    //! [`SharedStore::gc`]. Everything that takes the engine lock (`begin`,
    //! `publish`, `gc`) runs as one step, so for those the step granularity
    //! is exact. Races inside a lock-free pipeline (its degrade-to-miss paths)
    //! are left to `parallel_commits_match_serial_dedup_within_tolerance`.
    //!
    //! A state's first successor continues on its store; every other one
    //! replays its schedule on a fresh store. Each state is checked once,
    //! and so is a copy of the root reopened with [`SharedStore::open`],
    //! which is a crash at that step boundary.

    use std::collections::BTreeMap;
    use std::path::{Path, PathBuf};

    use mhd_store::{FaultPoint, FileKind, IoConfig};
    use mhd_workload::Rng;

    use super::{DaemonConfig, Published, SharedStore, Staged, WriteSession};

    const LABEL: &str = "d";

    /// One writer: its tenant, its files, and whether its every publish fails
    /// at its first recipe write.
    struct Writer {
        tenant: &'static str,
        files: Vec<(&'static str, Vec<u8>)>,
        fails: bool,
    }

    enum Phase {
        Idle,
        Begun(WriteSession),
        Piped(WriteSession, Box<Staged>),
        Committed,
        Failed,
    }

    /// One replay: the store, each writer's phase, and the steps taken, by
    /// actor and by name.
    struct World<'w> {
        writers: &'w [Writer],
        root: PathBuf,
        store: SharedStore,
        phases: Vec<Phase>,
        attempts: Vec<u32>,
        gc_done: bool,
        schedule: Vec<usize>,
        trace: Vec<String>,
        /// The tree last reopened as a crash on this path: a step that wrote
        /// nothing leaves the same crash state, already checked.
        crashed: Vec<(PathBuf, u64, u64, i64)>,
    }

    /// Small chunks, so a few KiB make several DiskChunks; inline I/O,
    /// since a step boundary sees every write flushed however many workers
    /// made them (the pooled flush has its own crash matrix).
    fn config() -> DaemonConfig {
        let io = IoConfig { threads: 0, ..IoConfig::default() };
        DaemonConfig { ecs: 512, sd: 8, io, ..DaemonConfig::default() }
    }

    /// DiskChunk id → length, read from the directory itself.
    fn disk_chunks(root: &Path) -> BTreeMap<u64, u64> {
        std::fs::read_dir(root.join(FileKind::DiskChunk.dir_name()))
            .unwrap()
            .map(|e| e.unwrap())
            .filter_map(|e| {
                let id = u64::from_str_radix(e.file_name().to_str()?, 16).ok()?;
                Some((id, e.metadata().unwrap().len()))
            })
            .collect()
    }

    fn wip_records(root: &Path) -> usize {
        std::fs::read_dir(mhd_core::statefile::wip_dir(root)).map_or(0, |d| d.count())
    }

    /// Every file under `dir`: path, inode, length and mtime, sorted.
    fn tree(dir: &Path) -> Vec<(PathBuf, u64, u64, i64)> {
        use std::os::unix::fs::MetadataExt;
        let mut files = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let (path, meta) = entry.map(|e| (e.path(), e.metadata().unwrap())).unwrap();
            if meta.is_dir() {
                files.extend(tree(&path));
            } else {
                files.push((path, meta.ino(), meta.len(), meta.mtime_nsec()));
            }
        }
        files.sort();
        files
    }

    /// A snapshot of the tree at `from`: copies, not hard links, since
    /// the logs grow in place and the writer lock is a lock on its
    /// file's inode.
    pub(crate) fn copy_tree(from: &Path, to: &Path) {
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

    impl<'w> World<'w> {
        /// A fresh store at `root` with `schedule` replayed on it.
        fn replay(writers: &'w [Writer], root: &Path, schedule: &[usize]) -> World<'w> {
            let _ = std::fs::remove_dir_all(root);
            let mut world = World {
                writers,
                root: root.to_path_buf(),
                store: SharedStore::open(root, config()).unwrap(),
                phases: writers.iter().map(|_| Phase::Idle).collect(),
                attempts: vec![0; writers.len()],
                gc_done: false,
                schedule: Vec::new(),
                trace: Vec::new(),
                crashed: Vec::new(),
            };
            for &actor in schedule {
                world.step(actor);
            }
            world
        }

        /// The actors with a step left: writers by index, then the collector.
        fn enabled(&self) -> Vec<usize> {
            let writers = self.phases.iter().enumerate().filter_map(|(i, phase)| {
                (!matches!(phase, Phase::Committed | Phase::Failed)).then_some(i)
            });
            writers.chain((!self.gc_done).then_some(self.writers.len())).collect()
        }

        fn fail(&self, what: std::fmt::Arguments) -> ! {
            panic!("{what}\n  schedule: {}", self.trace.join(", "))
        }

        fn step(&mut self, actor: usize) {
            self.schedule.push(actor);
            let Some(writer) = self.writers.get(actor) else {
                self.trace.push("GC".into());
                self.gc();
                self.gc_done = true;
                return;
            };
            let phase = std::mem::replace(&mut self.phases[actor], Phase::Idle);
            let (name, next) = match phase {
                Phase::Idle => {
                    let mut s = self.store.begin_session(writer.tenant, LABEL).unwrap();
                    for (path, data) in &writer.files {
                        s.stage(path, data).unwrap();
                    }
                    ("begin", Phase::Begun(s))
                }
                Phase::Begun(s) => {
                    let staged = self.store.pipeline(&s).unwrap();
                    ("pipeline", Phase::Piped(s, Box::new(staged)))
                }
                Phase::Piped(s, staged) => {
                    if writer.fails {
                        self.store.arm_fault(FaultPoint::write(Some(FileKind::FileManifest), 0));
                    }
                    let published = self.store.publish(&s, *staged, self.attempts[actor]);
                    self.store.arm_fault(FaultPoint::never());
                    match published {
                        Ok(Published::Committed(_)) => ("publish", Phase::Committed),
                        Ok(Published::Conflict) => {
                            self.attempts[actor] += 1;
                            ("publish (conflict)", Phase::Begun(s))
                        }
                        Err(_) if writer.fails => ("publish (fails)", Phase::Failed),
                        Err(e) => {
                            self.fail(format_args!("{}'s publish failed: {e}", writer.tenant))
                        }
                    }
                }
                Phase::Committed | Phase::Failed => unreachable!("a finished writer has no step"),
            };
            self.phases[actor] = next;
            self.trace.push(format!("{}.{name}", writer.tenant));
        }

        /// One collection, held to the registry's promise: nothing at or
        /// above an open session's BEGIN watermark is swept.
        fn gc(&mut self) {
            let protected = self.store.registry().min_watermark().unwrap_or(u64::MAX);
            let before = disk_chunks(&self.root);
            self.store.gc().unwrap();
            let after = disk_chunks(&self.root);
            if let Some(id) = before.keys().find(|id| **id >= protected && !after.contains_key(id))
            {
                self.fail(format_args!(
                    "GC swept chunk {id:x}, at or above an open session's watermark {protected:x}"
                ));
            }
        }

        fn open_sessions(&self) -> usize {
            self.phases.iter().filter(|p| matches!(p, Phase::Begun(_) | Phase::Piped(..))).count()
        }

        /// What must hold after every step, here and after a crash there.
        fn check(&mut self) {
            let open = self.open_sessions();
            if self.store.registry().active() != open || wip_records(&self.root) != open {
                self.fail(format_args!(
                    "{open} sessions open, {} registered, {} wip records",
                    self.store.registry().active(),
                    wip_records(&self.root)
                ));
            }
            self.check_store(&self.store, "live store");

            let tree = tree(&self.root);
            if tree == self.crashed {
                return;
            }
            self.crashed = tree;
            let crash = self.root.with_extension("crash");
            let _ = std::fs::remove_dir_all(&crash);
            copy_tree(&self.root, &crash);
            let reopened = SharedStore::open(&crash, config()).unwrap();
            self.check_store(&reopened, "after a crash");
            if wip_records(&crash) != 0 {
                self.fail(format_args!(
                    "a reopened store kept {} wip records",
                    wip_records(&crash)
                ));
            }
            drop(reopened);
            std::fs::remove_dir_all(&crash).unwrap();
        }

        /// `store` is healthy and restores every acknowledged stream.
        fn check_store(&self, store: &SharedStore, which: &str) {
            let fsck = store.fsck();
            if !fsck.is_healthy() {
                self.fail(format_args!("{which}: fsck: {:?}", fsck.problems));
            }
            for (writer, phase) in self.writers.iter().zip(&self.phases) {
                if !matches!(phase, Phase::Committed) {
                    continue;
                }
                for (path, data) in &writer.files {
                    match store.restore(writer.tenant, &format!("{LABEL}/{path}")) {
                        Ok(back) if back == *data => {}
                        Ok(_) => {
                            self.fail(format_args!("{which}: {}/{path} differs", writer.tenant))
                        }
                        Err(e) => self.fail(format_args!("{which}: {}/{path}: {e}", writer.tenant)),
                    }
                }
            }
        }

        /// At quiescence: every writer that does not fail committed; then a
        /// final GC. Returns the DiskChunk data bytes left on disk.
        fn quiesce(mut self) -> u64 {
            for (writer, phase) in self.writers.iter().zip(&self.phases) {
                if !writer.fails && !matches!(phase, Phase::Committed) {
                    self.fail(format_args!("{} did not commit", writer.tenant));
                }
            }
            self.trace.push("final GC".into());
            self.gc();
            self.check();
            disk_chunks(&self.root).values().sum()
        }
    }

    /// Explores every schedule that extends `world`'s, checking each state
    /// once; `leaf` gets each quiescent world's DiskChunk data bytes and
    /// trace. The first successor continues on `world` itself, every other
    /// one is a replay under `base`, in a directory named by its depth, so no
    /// two live worlds share a root. Returns the number of complete
    /// schedules.
    fn explore(mut world: World, base: &Path, leaf: &mut dyn FnMut(u64, &[String])) -> usize {
        let next = world.enabled();
        let Some((&first, rest)) = next.split_first() else {
            let trace = world.trace.clone();
            leaf(world.quiesce(), &trace);
            return 1;
        };
        let mut schedules = 0;
        for &actor in rest {
            let mut schedule = world.schedule.clone();
            schedule.push(actor);
            let root = base.join(schedule.len().to_string());
            let mut sibling = World::replay(world.writers, &root, &schedule);
            sibling.check();
            schedules += explore(sibling, base, leaf);
        }
        world.step(first);
        world.check();
        schedules + explore(world, base, leaf)
    }

    fn base(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mhd-schedules-{tag}-{}", std::process::id()))
    }

    fn bytes(seed: u64) -> Vec<u8> {
        Rng::new(seed).bytes(12_000)
    }

    #[test]
    fn failed_publish_orphans_survive_or_send_the_racing_pipeline_back() {
        // X's publish fails at its first recipe write, after its chunks,
        // manifests and hooks are down; A stages X's bytes and dedups
        // against those orphans whenever it runs after them.
        let writers = [
            Writer { tenant: "x", files: vec![("img", bytes(1))], fails: true },
            Writer { tenant: "a", files: vec![("img", bytes(1))], fails: false },
        ];
        let base = base("orphans");
        let start = World::replay(&writers, &base.join("0"), &[]);
        let schedules = explore(start, &base, &mut |_, _| {});
        println!("failed publish + writer + GC: {schedules} schedules");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn racing_writers_dedup_as_if_serial() {
        // A and B share one file and own one each: whichever publishes
        // second must dedup the shared file against the first, in every
        // schedule, with a GC anywhere among the steps.
        let writers = [
            Writer {
                tenant: "a",
                files: vec![("shared", bytes(2)), ("own", bytes(3))],
                fails: false,
            },
            Writer {
                tenant: "b",
                files: vec![("shared", bytes(2)), ("own", bytes(4))],
                fails: false,
            },
        ];
        let base = base("dedup");
        let serial =
            World::replay(&writers, &base.join("serial"), &[0, 0, 0, 1, 1, 1, 2]).quiesce();
        let start = World::replay(&writers, &base.join("0"), &[]);
        let schedules = explore(start, &base, &mut |data_bytes, trace| {
            assert_eq!(
                data_bytes,
                serial,
                "DiskChunk bytes differ from the serial schedule's\n  schedule: {}",
                trace.join(", ")
            );
        });
        println!("two racing writers + GC: {schedules} schedules");
        std::fs::remove_dir_all(&base).unwrap();
    }
}
