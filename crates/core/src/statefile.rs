//! The one front door to a store's `session/` and `daemon/wip/` files.
//!
//! Both front ends — the CLI (`mhd backup` and friends) and the daemon
//! (`mhd serve`) — keep engine state next to the four object namespaces,
//! and each must open what the other wrote. This module owns every byte
//! of that state so the two cannot drift:
//!
//! * `session/meta.json` — [`StoreMeta`]: the chunking parameters a store
//!   keeps for life, and its stream count.
//! * `session/state.json` — the [`MhdState`] counters, ledger and id
//!   allocators, minus the two O(store) payloads below. Its id allocators
//!   are the **commit watermark** (DESIGN.md §8).
//! * `session/bloom.bin` — the raw Bloom filter bits ([`MhdState::bloom`]).
//! * `session/idmaps.bin` — the substrate's per-manifest encoded sizes in
//!   a fixed-width binary record format.
//! * `daemon/wip/<stream>` — one empty intent record per stream being
//!   written ([`wip_begin`] / [`wip_end`]); its *name* is the recipe
//!   prefix to delete if the writer dies before [`persist`].
//!
//! The sidecars exist because serde_json renders a megabyte Bloom filter
//! as roughly one JSON node per byte and the id maps as one node per
//! entry; as raw bytes both serialize by memcpy. [`persist`] writes them
//! *before* `state.json`: a crash between the writes pairs newer sidecars
//! with older counters, which is benign — a superset Bloom filter only
//! costs false "maybe" probes, and map entries above the persisted
//! watermark describe objects [`open_write`] deletes (their entries are
//! overwritten when the ids are re-allocated).
//!
//! Every file with content is written through [`mhd_store::write_atomic`].
//! Readers that only look ([`read_view`], [`load_slim_state`]) never
//! create, remove or recover anything. Writers come in through
//! [`open_write`]; the [`OpenedStore`] it returns carries the order of a
//! single writer's steps ([`OpenedStore::begin_stream`] → write →
//! [`OpenedStore::commit`], and [`OpenedStore::compact`], which persists
//! mid-pass).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::{Path, PathBuf};

use mhd_chunking::ChunkerKind;
use mhd_store::{
    fsync_dir, fsync_file, safe_name, write_atomic, Backend, BatchedDirBackend, DirBackend,
    Durability, FileKind, FileManifest, IoConfig, StoreError, StoreResult, Substrate,
};
use serde::{Deserialize, Serialize};

use crate::compact::{self, CompactReport};
use crate::{Deduplicator, EngineConfig, EngineResult, MhdEngine, MhdState};

/// Magic + version tag for the `session/idmaps.bin` sidecar.
const IDMAPS_MAGIC: &[u8; 8] = b"MHDIDMP1";

const STATE: &str = "session/state.json";
const META: &str = "session/meta.json";
const BLOOM: &str = "session/bloom.bin";
const IDMAPS: &str = "session/idmaps.bin";

/// Directory holding the per-stream intent records.
pub fn wip_dir(root: &Path) -> PathBuf {
    root.join("daemon/wip")
}

fn io_at(op: &'static str, path: &Path, source: std::io::Error) -> StoreError {
    StoreError::IoAt { op, path: path.display().to_string(), source }
}

fn corrupt(path: &Path, what: impl std::fmt::Display) -> StoreError {
    StoreError::Corrupt(format!("{}: {what}", path.display()))
}

/// Reads a whole file; `None` when it does not exist.
fn read_file(path: &Path) -> StoreResult<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Ok(data) => Ok(Some(data)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_at("read", path, e)),
    }
}

// ----- meta.json ----------------------------------------------------------

/// The parameters a store keeps for life, plus its stream count.
///
/// `ecs`/`sd`/`chunker` are fixed when the store is created: re-chunking
/// a live store differently would cut boundaries the existing chunks can
/// never match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreMeta {
    /// Expected chunk size in bytes.
    pub ecs: usize,
    /// Slices per DiskChunk / Manifest (`SD`).
    pub sd: usize,
    /// Streams committed so far (the `N` of the CLI's `label-N/` names).
    pub streams: u64,
    /// Chunking algorithm the store's chunks were cut with.
    pub chunker: ChunkerKind,
}

/// `meta.json` as encoded: the chunker in its CLI spelling (`rabin`, …).
#[derive(Serialize, Deserialize)]
struct MetaFile {
    ecs: usize,
    sd: usize,
    streams: u64,
    chunker: String,
}

/// Reads `session/meta.json`; `None` when the store has none yet. A file
/// that does not parse — including one without a `chunker` — is an error
/// naming it.
pub fn load_meta(root: &Path) -> StoreResult<Option<StoreMeta>> {
    let path = root.join(META);
    let Some(data) = read_file(&path)? else { return Ok(None) };
    let file: MetaFile = serde_json::from_slice(&data).map_err(|e| corrupt(&path, e))?;
    let chunker = file.chunker.parse::<ChunkerKind>().map_err(|e| corrupt(&path, e))?;
    Ok(Some(StoreMeta { ecs: file.ecs, sd: file.sd, streams: file.streams, chunker }))
}

// ----- state.json + sidecars ------------------------------------------------

/// Width of one chunk entry of the sidecar (`id:u64` + 40 hex digits of
/// a container content hash). Stores no longer record those hashes; the
/// entries are still read, and dropped, from a store that has them.
const IDMAPS_CHUNK_ENTRY: usize = 48;

/// Encodes the substrate's manifest sizes as the compact binary sidecar
/// format: magic, two LE counts, then fixed-width `id:u64, size:u64`
/// entries. The second count is of chunk entries, always 0 here.
fn encode_idmaps(manifest_sizes: &[(u64, u64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + manifest_sizes.len() * 16);
    out.extend_from_slice(IDMAPS_MAGIC);
    out.extend_from_slice(&(manifest_sizes.len() as u64).to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    for (id, size) in manifest_sizes {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&size.to_le_bytes());
    }
    out
}

/// Decodes [`encode_idmaps`] output, or a sidecar an older store wrote
/// with chunk entries (each checked for shape, then ignored). Errors
/// describe the corruption rather than panicking, since the sidecar is
/// read at store open.
fn decode_idmaps(raw: &[u8]) -> Result<Vec<(u64, u64)>, String> {
    fn take<'a>(rest: &mut &'a [u8], n: usize) -> Result<&'a [u8], String> {
        let (head, tail) = rest.split_at_checked(n).ok_or("truncated sidecar")?;
        *rest = tail;
        Ok(head)
    }
    fn u64_of(rest: &mut &[u8]) -> Result<u64, String> {
        let bytes = <[u8; 8]>::try_from(take(rest, 8)?).map_err(|e| e.to_string())?;
        Ok(u64::from_le_bytes(bytes))
    }
    let mut rest = raw;
    if take(&mut rest, 8)? != IDMAPS_MAGIC {
        return Err("bad idmaps magic".into());
    }
    let manifests = u64_of(&mut rest)? as usize;
    let chunks = u64_of(&mut rest)? as usize;
    let need = manifests
        .checked_mul(16)
        .and_then(|m| chunks.checked_mul(IDMAPS_CHUNK_ENTRY).and_then(|c| m.checked_add(c)))
        .ok_or("idmaps counts overflow")?;
    if rest.len() != need {
        return Err(format!("idmaps length {} != expected {need}", rest.len()));
    }
    let mut manifest_sizes = Vec::with_capacity(manifests);
    for _ in 0..manifests {
        manifest_sizes.push((u64_of(&mut rest)?, u64_of(&mut rest)?));
    }
    for _ in 0..chunks {
        let id = u64_of(&mut rest)?;
        if !take(&mut rest, 40)?.iter().all(u8::is_ascii_hexdigit) {
            return Err(format!("chunk {id}: malformed hash"));
        }
    }
    Ok(manifest_sizes)
}

/// Reads `session/state.json` alone: counters, ledger and id allocators,
/// with the Bloom filter and id maps left empty. `None` when the store has
/// never persisted. Enough for `mhd stats`; opening for writes goes
/// through [`open_write`], which also loads the sidecars.
pub fn load_slim_state(root: &Path) -> StoreResult<Option<MhdState>> {
    let path = root.join(STATE);
    let Some(data) = read_file(&path)? else { return Ok(None) };
    serde_json::from_slice(&data).map(Some).map_err(|e| corrupt(&path, e))
}

/// `state.json` plus both sidecars. A missing sidecar is an error naming
/// it: an empty Bloom filter would silently stop deduplicating against
/// everything already stored.
fn load_state(root: &Path) -> StoreResult<Option<MhdState>> {
    let Some(mut state) = load_slim_state(root)? else { return Ok(None) };
    let sidecar = |path: PathBuf| {
        read_file(&path)?.ok_or_else(|| {
            corrupt(&path, "missing beside session/state.json (sidecars are written with it)")
        })
    };
    state.bloom = sidecar(root.join(BLOOM))?;
    let idmaps = root.join(IDMAPS);
    state.substrate.manifest_sizes =
        decode_idmaps(&sidecar(idmaps.clone())?).map_err(|e| corrupt(&idmaps, e))?;
    Ok(Some(state))
}

/// Persists an exported engine state and the store metadata: sidecars,
/// then `state.json` (the commit watermark), then `meta.json` — see the
/// module docs for the crash-ordering argument. Call after
/// [`Deduplicator::finish`], so every object
/// the state describes is on disk first.
pub fn persist(
    root: &Path,
    durability: Durability,
    mut state: MhdState,
    meta: &StoreMeta,
) -> StoreResult<()> {
    write_atomic(&root.join(BLOOM), &std::mem::take(&mut state.bloom), durability)?;
    let encoded = encode_idmaps(&std::mem::take(&mut state.substrate.manifest_sizes));
    write_atomic(&root.join(IDMAPS), &encoded, durability)?;

    let state_path = root.join(STATE);
    let state_json = serde_json::to_vec(&state).map_err(|e| corrupt(&state_path, e))?;
    write_atomic(&state_path, &state_json, durability)?;

    let meta_path = root.join(META);
    let file = MetaFile {
        ecs: meta.ecs,
        sd: meta.sd,
        streams: meta.streams,
        chunker: meta.chunker.as_str().to_string(),
    };
    let meta_json = serde_json::to_vec(&file).map_err(|e| corrupt(&meta_path, e))?;
    write_atomic(&meta_path, &meta_json, durability)
}

// ----- wip records ----------------------------------------------------------

/// A stream's record is named like its recipes: `safe_name(stream)`, of
/// which every recipe name of the stream is an extension by `_`.
fn wip_path(root: &Path, stream: &str) -> PathBuf {
    wip_dir(root).join(safe_name(stream))
}

/// Records that `stream` (a recipe-name prefix without the trailing `/`:
/// the daemon's `tenant/label`, the CLI's `label-N`) is about to be
/// written. Must return before the stream's first object is written; the
/// next [`open_write`] deletes every recipe under `stream/` unless
/// [`wip_end`] ran first. The record is an empty file — creating it is
/// atomic, and a name cannot be torn the way content can.
pub fn wip_begin(root: &Path, durability: Durability, stream: &str) -> StoreResult<()> {
    let path = wip_path(root, stream);
    let file = std::fs::File::create(&path).map_err(|e| io_at("create", &path, e))?;
    if durability == Durability::Fsync {
        fsync_file(&file, &path)?;
        fsync_dir(&wip_dir(root))?;
    }
    Ok(())
}

/// Retires `stream`'s intent record. Call only after [`persist`] made the
/// stream part of the watermark, or after nothing of it reached the store.
pub fn wip_end(root: &Path, durability: Durability, stream: &str) -> StoreResult<()> {
    let path = wip_path(root, stream);
    std::fs::remove_file(&path).map_err(|e| io_at("remove", &path, e))?;
    if durability == Durability::Fsync {
        fsync_dir(&wip_dir(root))?;
    }
    Ok(())
}

// ----- open, recover, roll back ----------------------------------------------

/// What opening a store for writes undid: the backend's own pass over tmp
/// files and write intents, then the rollback above the commit watermark.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize)]
pub struct RecoverySummary {
    /// Torn tmp files removed by the backend's own recovery.
    pub tmp_files_removed: u64,
    /// Write intents resolved by the backend's own recovery.
    pub intents_resolved: u64,
    /// Torn streams rolled back from `daemon/wip` intent records.
    pub sessions_rolled_back: u64,
    /// Recipes (FileManifests) of torn streams deleted.
    pub recipes_rolled_back: u64,
    /// Above-watermark DiskChunks deleted.
    pub chunks_rolled_back: u64,
    /// Above-watermark Manifests deleted.
    pub manifests_rolled_back: u64,
    /// Hooks pointing above the manifest watermark deleted.
    pub hooks_rolled_back: u64,
}

impl RecoverySummary {
    /// Whether nothing was in flight and nothing sat above the watermark.
    pub fn is_clean(&self) -> bool {
        *self == RecoverySummary::default()
    }
}

impl std::fmt::Display for RecoverySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "removed {} torn tmp file(s), resolved {} write intent(s); rolled back {} torn \
             session(s) ({} recipes, {} chunks, {} manifests, {} hooks)",
            self.tmp_files_removed,
            self.intents_resolved,
            self.sessions_rolled_back,
            self.recipes_rolled_back,
            self.chunks_rolled_back,
            self.manifests_rolled_back,
            self.hooks_rolled_back,
        )
    }
}

/// A store opened for writes by [`open_write`], and the one place the
/// order of a single writer's steps — wip record, write, flush, persist,
/// retire the record — is spelled out. (The daemon interleaves writers
/// under its own lock: it moves `engine` out and sequences [`wip_begin`]
/// / [`persist`] / [`wip_end`] itself.)
pub struct OpenedStore<B: Backend> {
    /// The engine, resumed from the persisted state.
    pub engine: MhdEngine<B>,
    /// The store's own parameters (which win over the caller's).
    pub meta: StoreMeta,
    /// What recovery did on the way in.
    pub recovery: RecoverySummary,
    root: PathBuf,
    durability: Durability,
    /// The stream [`OpenedStore::begin_stream`] took a wip record for,
    /// until [`OpenedStore::commit`] retires it.
    wip: Option<String>,
}

impl<B: Backend> OpenedStore<B> {
    /// Takes `stream`'s wip record; call before the stream's first write.
    /// Until [`OpenedStore::commit`], a crash makes the next open — by
    /// either front end — delete every recipe under `stream/`, even an
    /// all-duplicate stream's, which no id floor identifies. That delete
    /// is by prefix, so a stream that already has recipes is refused; the
    /// check is one listing of the recipe names (no recipe is read).
    pub fn begin_stream(&mut self, stream: &str) -> StoreResult<()> {
        let prefix = safe_name(&format!("{stream}/"));
        if self.engine.substrate_mut().list_file_manifests().iter().any(|n| n.starts_with(&prefix))
        {
            return Err(StoreError::AlreadyExists {
                kind: FileKind::FileManifest,
                name: format!("{stream}/"),
            });
        }
        wip_begin(&self.root, self.durability, stream)?;
        self.wip = Some(stream.to_string());
        Ok(())
    }

    /// Flushes the engine, persists the watermark and — only now that the
    /// stream is part of it — retires the wip record.
    pub fn commit(&mut self) -> EngineResult<()> {
        self.checkpoint()?;
        if let Some(stream) = self.wip.take() {
            wip_end(&self.root, self.durability, &stream)?;
        }
        Ok(())
    }

    /// Compacts sparse containers ([`crate::compact`]), persisting the
    /// watermark between the two phases: the fresh containers are below
    /// the chunk floor before any committed recipe points into one, so no
    /// crash point costs a stream (module docs there). Finish with
    /// [`OpenedStore::commit`].
    pub fn compact(&mut self, threshold: f64) -> EngineResult<CompactReport> {
        let staged = compact::stage(self.engine.substrate_mut(), threshold)?;
        self.checkpoint()?;
        Ok(staged.apply(self.engine.substrate_mut())?)
    }

    fn checkpoint(&mut self) -> EngineResult<()> {
        // finish() writes back dirty manifests; its report is not needed.
        let _ = self.engine.finish()?;
        Ok(persist(&self.root, self.durability, self.engine.export_state(), &self.meta)?)
    }
}

/// Opens (or initialises) the store at `root` for writes: `meta.json` or
/// `new_store` → [`BatchedDirBackend`] (wrapped by `wrap`, so a front end
/// can layer its index or fault injection underneath the engine) →
/// [`Backend::recover`] → `state.json` + sidecars → rollback of everything
/// above the commit watermark → engine with the state imported.
///
/// The caller must be the store's only writer.
pub fn open_write<B: Backend>(
    root: &Path,
    new_store: StoreMeta,
    io: IoConfig,
    wrap: impl FnOnce(BatchedDirBackend) -> B,
) -> EngineResult<OpenedStore<B>> {
    for dir in [root.join("session"), wip_dir(root)] {
        std::fs::create_dir_all(&dir).map_err(|e| io_at("create dir", &dir, e))?;
    }
    let meta = load_meta(root)?.unwrap_or(new_store);
    let mut backend = wrap(BatchedDirBackend::create_with(root, io)?);
    let backend_recovery = backend.recover()?;
    let state = load_state(root)?;

    // A store with no `state.json` has never committed: the floors are
    // zero and the rollback is total — correct by the same rule.
    let (chunk_floor, manifest_floor) = state
        .as_ref()
        .map_or((0, 0), |s| (s.substrate.next_chunk_id, s.substrate.next_manifest_id));
    let mut recovery = RecoverySummary {
        tmp_files_removed: backend_recovery.tmp_files_removed as u64,
        intents_resolved: backend_recovery.intents_resolved as u64,
        ..RecoverySummary::default()
    };
    rollback_above_watermark(
        root,
        io.durability,
        &mut backend,
        chunk_floor,
        manifest_floor,
        &mut recovery,
    )?;

    let config = EngineConfig::new(meta.ecs, meta.sd).with_chunker(meta.chunker);
    let mut engine = MhdEngine::new(backend, config)?;
    if let Some(state) = state {
        engine.import_state(state)?;
    }
    Ok(OpenedStore {
        engine,
        meta,
        recovery,
        root: root.to_path_buf(),
        durability: io.durability,
        wip: None,
    })
}

/// Names of `kind` whose id is at or above `floor` (ids are the object
/// names, zero-padded hex; anything else is not ours and goes too).
fn names_above<B: Backend>(backend: &mut B, kind: FileKind, floor: u64) -> Vec<String> {
    let mut names = backend.list(kind);
    names.retain(|name| u64::from_str_radix(name, 16).ok().is_none_or(|id| id >= floor));
    names
}

/// Deletes every object a torn writer left above the commit watermark
/// (DESIGN.md §8): recipes named by a wip record or holding an extent in
/// a container at or above the chunk floor, then hooks pointing at or
/// above the manifest floor, then those manifests, then those chunks —
/// reverse `FLUSH_ORDER`, so no reference ever outlives its target — and
/// retires the wip records last.
///
/// Deletes are **raw** backend operations: the persisted ledger never
/// accounted for these objects, so substrate-level deletes would corrupt
/// its counters.
///
/// Every write-open, clean or not, pays for the trigger: a listing each
/// of the Manifest and DiskChunk names and a `read_dir` of `daemon/wip`
/// ([`Backend::recover`] just walked those directories, but reports
/// counts, not names). No object is read unless a wip record exists or a
/// name is at or above its floor (hooks and recipes flush after both
/// kinds, so a torn one never exists without them or a wip record).
fn rollback_above_watermark<B: Backend>(
    root: &Path,
    durability: Durability,
    backend: &mut B,
    chunk_floor: u64,
    manifest_floor: u64,
    recovery: &mut RecoverySummary,
) -> StoreResult<()> {
    let wip_dir = wip_dir(root);
    let mut wip_files: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(&wip_dir).map_err(|e| io_at("read dir", &wip_dir, e))? {
        wip_files.push(entry.map_err(|e| io_at("read dir", &wip_dir, e))?.path());
    }
    let torn_manifests = names_above(backend, FileKind::Manifest, manifest_floor);
    let torn_chunks = names_above(backend, FileKind::DiskChunk, chunk_floor);
    if wip_files.is_empty() && torn_manifests.is_empty() && torn_chunks.is_empty() {
        return Ok(());
    }

    // 1. Recipes. An all-duplicate stream writes nothing but recipes, so
    //    only its wip record can identify those; a torn stream whose wip
    //    record is gone (or never existed) gives itself away by pointing
    //    above the chunk floor.
    let torn_prefixes: Vec<String> = wip_files
        .iter()
        .filter_map(|wip| Some(format!("{}_", wip.file_name()?.to_str()?)))
        .collect();
    for name in backend.list(FileKind::FileManifest) {
        // A recipe that does not decode is fsck's to report, not ours to
        // judge torn.
        let torn = torn_prefixes.iter().any(|p| name.starts_with(p))
            || FileManifest::decode(&backend.get(FileKind::FileManifest, &name)?)
                .is_ok_and(|recipe| recipe.extents().iter().any(|e| e.container.0 >= chunk_floor));
        if torn {
            backend.delete(FileKind::FileManifest, &name)?;
            recovery.recipes_rolled_back += 1;
        }
    }
    recovery.sessions_rolled_back = wip_files.len() as u64;

    // 2. Hooks pointing at rolled-back manifests (payload first 8 bytes,
    //    little endian, is the target ManifestId).
    for name in backend.list(FileKind::Hook) {
        let payload = backend.get(FileKind::Hook, &name)?;
        let target = payload.get(..8).and_then(|raw| <[u8; 8]>::try_from(raw).ok());
        if target.is_none_or(|raw| u64::from_le_bytes(raw) >= manifest_floor) {
            backend.delete(FileKind::Hook, &name)?;
            recovery.hooks_rolled_back += 1;
        }
    }

    // 3. Above-watermark Manifests, then DiskChunks.
    for (kind, names, count) in [
        (FileKind::Manifest, torn_manifests, &mut recovery.manifests_rolled_back),
        (FileKind::DiskChunk, torn_chunks, &mut recovery.chunks_rolled_back),
    ] {
        for name in names {
            backend.delete(kind, &name)?;
            *count += 1;
        }
    }
    backend.flush()?;

    // 4. Only now that the rollback is durable, retire the intent records.
    for wip in &wip_files {
        std::fs::remove_file(wip).map_err(|e| io_at("remove", wip, e))?;
    }
    if durability == Durability::Fsync {
        fsync_dir(&wip_dir)?;
    }
    Ok(())
}

/// A throwaway, non-mutating substrate over the store's directory tree:
/// what `RESTORE`/`LS` and `mhd restore|ls` read through. It runs no
/// recovery, creates no directory, touches no state file and is safe
/// beside a live writer: writers flush in `FLUSH_ORDER` before they
/// acknowledge, so every listed recipe of an acknowledged stream is
/// complete on disk, and GC marks recipes live before sweeping.
pub fn read_view(root: &Path) -> StoreResult<Substrate<DirBackend>> {
    Ok(Substrate::new(DirBackend::open(root)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhd_store::record_fsyncs;

    fn temp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("mhd-statefile-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("session")).unwrap();
        std::fs::create_dir_all(wip_dir(&root)).unwrap();
        root
    }

    fn meta() -> StoreMeta {
        StoreMeta { ecs: 512, sd: 8, streams: 3, chunker: ChunkerKind::FastCdc }
    }

    fn sample_sizes() -> Vec<(u64, u64)> {
        vec![(1, 512), (7, 40_960)]
    }

    fn sample_state() -> MhdState {
        let mut state = MhdState { bloom: vec![0xAB; 4096], input_bytes: 77, ..Default::default() };
        state.substrate.manifest_sizes = sample_sizes();
        state
    }

    /// An `idmaps.bin` in the layout stores carried before container
    /// hashes were dropped: the manifest sizes, then one 48-byte chunk
    /// entry per container (`id:u64` + 40 hex digits).
    fn older_idmaps(sizes: &[(u64, u64)], chunks: &[(u64, &str)]) -> Vec<u8> {
        let mut out = IDMAPS_MAGIC.to_vec();
        out.extend_from_slice(&(sizes.len() as u64).to_le_bytes());
        out.extend_from_slice(&(chunks.len() as u64).to_le_bytes());
        for (id, size) in sizes {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&size.to_le_bytes());
        }
        for (id, hex) in chunks {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(hex.as_bytes());
        }
        out
    }

    const OLDER_CHUNKS: [(u64, &str); 2] = [
        (3, "0123456789abcdef0123456789abcdef01234567"),
        (9, "ffffffffffffffffffffffffffffffffffffffff"),
    ];

    #[test]
    fn idmaps_round_trip() {
        let raw = encode_idmaps(&sample_sizes());
        assert_eq!(raw.len(), 24 + 16 * sample_sizes().len());
        assert_eq!(raw[16..24], [0u8; 8], "no chunk entries are written");
        assert_eq!(decode_idmaps(&raw).unwrap(), sample_sizes());
    }

    #[test]
    fn idmaps_reads_the_older_layout_and_ignores_its_chunk_entries() {
        let raw = older_idmaps(&sample_sizes(), &OLDER_CHUNKS);
        assert_eq!(raw.len(), 24 + 16 * 2 + 48 * 2);
        assert_eq!(decode_idmaps(&raw).unwrap(), sample_sizes());

        // A length that disagrees with the counts is still refused.
        let mut long = raw.clone();
        long.push(0);
        assert!(decode_idmaps(&long).unwrap_err().contains("length"));
        let mut miscounted = raw.clone();
        miscounted[16] = 3; // claims three chunk entries, carries two
        assert!(decode_idmaps(&miscounted).unwrap_err().contains("length"));

        // The whole open path: an older `state.json` still names the
        // (emptied) `chunk_hashes` list beside the older sidecar.
        let root = temp_root("older");
        persist(&root, Durability::Rename, sample_state(), &meta()).unwrap();
        let state_json = std::fs::read_to_string(root.join(STATE)).unwrap();
        let older_json = state_json.replacen('{', r#"{"chunk_hashes":[],"#, 1);
        std::fs::write(root.join(STATE), older_json).unwrap();
        std::fs::write(root.join(IDMAPS), &raw).unwrap();
        let state = load_state(&root).unwrap().unwrap();
        assert_eq!(state.substrate.manifest_sizes, sample_sizes());
        assert_eq!(state.input_bytes, 77);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn idmaps_rejects_malformed_hash() {
        let raw = older_idmaps(&[], &[(1, "not-hex-not-hex-not-hex-not-hex-not-hex!")]);
        let err = decode_idmaps(&raw).unwrap_err();
        assert!(err.contains("malformed hash"), "{err}");
    }

    #[test]
    fn idmaps_rejects_truncation_and_bad_magic() {
        for raw in [encode_idmaps(&sample_sizes()), older_idmaps(&sample_sizes(), &OLDER_CHUNKS)] {
            assert!(decode_idmaps(&raw[..raw.len() - 1]).is_err());
            let mut bad = raw.clone();
            bad[0] ^= 0xff;
            assert!(decode_idmaps(&bad).is_err());
        }
    }

    #[test]
    fn persist_then_load_restores_state_and_meta() {
        let root = temp_root("roundtrip");
        let full = sample_state();
        persist(&root, Durability::Rename, full.clone(), &meta()).unwrap();

        assert_eq!(load_meta(&root).unwrap(), Some(meta()));
        let slim = load_slim_state(&root).unwrap().unwrap();
        assert_eq!(slim.input_bytes, 77);
        assert!(slim.bloom.is_empty() && slim.substrate.manifest_sizes.is_empty());
        let state = load_state(&root).unwrap().unwrap();
        assert_eq!(state.bloom, full.bloom);
        assert_eq!(state.substrate.manifest_sizes, full.substrate.manifest_sizes);

        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn meta_without_chunker_is_rejected_by_name() {
        let root = temp_root("nochunker");
        std::fs::write(root.join(META), r#"{"ecs":512,"sd":8,"streams":1}"#).unwrap();
        let err = load_meta(&root).unwrap_err().to_string();
        assert!(err.contains("meta.json"), "{err}");
        let opened = open_write(&root, meta(), IoConfig::default(), |b| b);
        assert!(opened.is_err_and(|e| e.to_string().contains("meta.json")));
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A store written with a chunker this build no longer has (`ae` and
    /// `tttd` were deleted) must not open for writes under another one:
    /// every re-backup would cut different boundaries. (`mhd restore|ls`
    /// read recipes, not `meta.json`, and keep working on such a store.)
    #[test]
    fn meta_naming_an_unknown_chunker_is_rejected_by_name() {
        for name in ["ae", "tttd"] {
            let root = temp_root(&format!("{name}chunker"));
            let json = format!(r#"{{"ecs":512,"sd":8,"streams":1,"chunker":"{name}"}}"#);
            std::fs::write(root.join(META), json).unwrap();
            let unknown = format!("unknown chunker `{name}`");
            let err = load_meta(&root).unwrap_err().to_string();
            assert!(err.contains("meta.json") && err.contains(&unknown), "{err}");
            let opened = open_write(&root, meta(), IoConfig::default(), |b| b);
            assert!(opened.is_err_and(|e| e.to_string().contains(&unknown)));
            std::fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn state_without_a_sidecar_is_rejected_by_name() {
        for (tag, victim) in [("nobloom", "bloom.bin"), ("noidmaps", "idmaps.bin")] {
            let root = temp_root(tag);
            persist(&root, Durability::Rename, sample_state(), &meta()).unwrap();
            std::fs::remove_file(root.join("session").join(victim)).unwrap();
            let err = load_state(&root).err().expect("missing sidecar must fail").to_string();
            assert!(err.contains(victim), "{err}");
            let opened = open_write(&root, meta(), IoConfig::default(), |b| b);
            assert!(opened.is_err_and(|e| e.to_string().contains(victim)));
            std::fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn fsync_durability_syncs_tmp_then_parent_and_rename_syncs_nothing() {
        let root = temp_root("fsync");
        let session = root.join("session");

        let synced = record_fsyncs(|| {
            persist(&root, Durability::Rename, sample_state(), &meta()).unwrap();
            wip_begin(&root, Durability::Rename, "t/day0").unwrap();
            wip_end(&root, Durability::Rename, "t/day0").unwrap();
        });
        assert_eq!(synced, Vec::<PathBuf>::new());

        // Every state file: its tmp before the rename, its directory after;
        // the sidecars before `state.json` (the watermark), `meta.json` last.
        let synced = record_fsyncs(|| {
            persist(&root, Durability::Fsync, sample_state(), &meta()).unwrap();
        });
        let want: Vec<PathBuf> = ["bloom.bin", "idmaps.bin", "state.json", "meta.json"]
            .iter()
            .flat_map(|f| [session.join(format!(".{f}.tmp")), session.clone()])
            .collect();
        assert_eq!(synced, want);

        let synced = record_fsyncs(|| {
            wip_begin(&root, Durability::Fsync, "t/day0").unwrap();
            wip_end(&root, Durability::Fsync, "t/day0").unwrap();
        });
        let wip = wip_dir(&root);
        assert_eq!(synced, vec![wip.join("t_day0"), wip.clone(), wip]);

        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_backup_writes_each_disk_chunk_and_hook_once() {
        use crate::engine_tests::{assert_write_once, rewrites_manifests};
        use mhd_store::{FaultBackend, FaultPoint};
        use mhd_workload::{Corpus, CorpusSpec, FileEntry, Snapshot};

        // What `mhd backup` does per invocation, one invocation per
        // stream: open (recover, resume), take the wip record, ingest,
        // commit.
        let corpus = Corpus::generate(CorpusSpec::tiny(5));
        let root = temp_root("write-once");
        let run = |point: FaultPoint| {
            let _ = std::fs::remove_dir_all(&root);
            let (mut matching, mut objects) = (0, 0);
            for (i, snapshot) in corpus.snapshots.iter().enumerate() {
                let stream = format!("s-{i}");
                let files = snapshot
                    .files
                    .iter()
                    .map(|f| FileEntry {
                        path: format!("{stream}/{}", f.path),
                        data: f.data.clone(),
                    })
                    .collect();
                let mut opened = open_write(&root, meta(), IoConfig::default(), |b| {
                    FaultBackend::with_point(b, point)
                })
                .unwrap();
                opened.begin_stream(&stream).unwrap();
                opened.engine.process_snapshot(&Snapshot { files, ..*snapshot }).unwrap();
                opened.meta.streams += 1;
                opened.commit().unwrap();
                let backend = opened.engine.substrate_mut().backend_mut();
                matching += backend.matching_ops();
                objects = backend.count(point.kind.unwrap_or(FileKind::DiskChunk));
            }
            (matching, objects)
        };
        assert_write_once("mhd backup", run);
        assert!(rewrites_manifests(run), "the corpus gave HHR nothing to rewrite");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
