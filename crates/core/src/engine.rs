//! The common engine interface, the scaffold every engine is built on,
//! and the registry of engines.
//!
//! An engine is a [`Scaffold`] — the substrate, the Bloom filter over
//! its Hooks, the Manifest cache, the run counters, and the operations
//! on them that are the same whatever the algorithm — plus a *policy*:
//! which chunks to look up, when to re-chunk, which hashes get Hooks,
//! which Manifest format. The policies live in the per-engine modules;
//! [`EngineKind`] names them and builds any of them.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::time::Instant;

use bytes::Bytes;
use mhd_bloom::BloomFilter;
use mhd_cache::ManifestCache;
use mhd_chunking::{AnyChunker, Chunker};
use mhd_hash::{sha1, ChunkHash};
use mhd_store::{
    plain_hook_hash, Backend, DiskChunkBuilder, Extent, FileKind, FileManifest, IoStats, Manifest,
    ManifestEntry, ManifestFormat, ManifestId, MetadataLedger, StoreError, Substrate,
};
use mhd_workload::{FileEntry, Snapshot};
use serde::{Deserialize, Serialize};

use crate::config::EngineConfig;
use crate::{frontend, BimodalEngine, CdcEngine, MhdEngine, SparseIndexEngine, SubChunkEngine};

/// Result alias for engine operations.
pub type EngineResult<T> = Result<T, EngineError>;

/// Errors surfaced by the deduplication engines.
#[derive(Debug)]
pub enum EngineError {
    /// Storage substrate failure. Engines propagate these without
    /// committing partial per-file state.
    Store(StoreError),
    /// Invalid configuration.
    Config(String),
    /// A chunk+hash job of the front end panicked; the message names the
    /// file and carries the panic payload. Nothing of that file was
    /// stored.
    Frontend(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Store(e) => write!(f, "storage error: {e}"),
            EngineError::Config(msg) => write!(f, "configuration error: {msg}"),
            EngineError::Frontend(msg) => write!(f, "front-end error: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Store(e) => Some(e),
            EngineError::Config(_) | EngineError::Frontend(_) => None,
        }
    }
}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        EngineError::Store(e)
    }
}

/// A chunk of one input file, already hashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashedChunk {
    /// Byte offset within the file.
    pub offset: u64,
    /// Chunk length in bytes.
    pub len: u32,
    /// SHA-1 of the chunk content.
    pub hash: ChunkHash,
}

impl HashedChunk {
    /// Exclusive end offset within the file.
    pub fn end(&self) -> u64 {
        self.offset + self.len as u64
    }

    /// The chunk's bytes within its file.
    pub fn slice<'a>(&self, file: &'a [u8]) -> &'a [u8] {
        &file[self.offset as usize..self.end() as usize]
    }
}

/// Chunks `data` and hashes every chunk, on the calling thread.
///
/// Takes the chunker as a trait object: every engine routes through here
/// (whole files by way of the front end's jobs, sub-ranges directly), so
/// any [`Chunker`] — Rabin, fixed, FastCDC — plugs into every
/// engine unchanged.
pub fn chunk_and_hash(chunker: &dyn Chunker, data: &Bytes) -> Vec<HashedChunk> {
    let spans = chunker.spans(data);
    let _timer = mhd_obs::span!("stage.hashing_ns");
    mhd_obs::counter!("hashing.chunks").add(spans.len() as u64);
    if mhd_obs::tracing() {
        for s in &spans {
            mhd_obs::trace(mhd_obs::TraceEvent::ChunkEmitted { bytes: s.len as u64 });
        }
    }
    spans
        .iter()
        .map(|s| HashedChunk {
            offset: s.offset as u64,
            len: s.len as u32,
            hash: sha1(&data[s.offset..s.end()]),
        })
        .collect()
}

/// Final accounting of one deduplication run, the measured counterpart of
/// the paper's symbols: `N` (stored chunks), `D` (duplicate chunks), `L`
/// (duplicate slices), `F` (files producing manifests).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DedupReport {
    /// Engine name ("bf-mhd", "si-mhd", "cdc", "bimodal", "subchunk",
    /// "sparse-indexing").
    pub algorithm: String,
    /// Total input bytes processed.
    pub input_bytes: u64,
    /// Bytes eliminated as duplicates.
    pub dup_bytes: u64,
    /// Number of detected duplicate data slices (`L`).
    pub dup_slices: u64,
    /// Files that produced a Manifest (`F`; fully-duplicate files do not).
    pub files: u64,
    /// Stored (non-duplicate) chunks before any merging (`N`).
    pub chunks_stored: u64,
    /// Duplicate chunks eliminated (`D`).
    pub chunks_dup: u64,
    /// HHR operations performed (MHD only; zero elsewhere).
    pub hhr_count: u64,
    /// Disk-access counters (Table II measured).
    pub stats: IoStats,
    /// Metadata bytes/inodes (Table I measured).
    pub ledger: MetadataLedger,
    /// RAM held by in-memory index structures: the Bloom filter, or the
    /// sparse index for SparseIndexing (Table III measured).
    pub ram_index_bytes: u64,
    /// Wall-clock seconds spent inside `process_snapshot` calls.
    pub dedup_seconds: f64,
}

impl DedupReport {
    /// Fraction of input bytes identified as duplicate.
    pub fn dup_fraction(&self) -> f64 {
        self.dup_bytes as f64 / self.input_bytes.max(1) as f64
    }
}

/// An external oracle answering "does the store already have a Hook for
/// this hash?" without touching the engine's own Bloom filter. The
/// daemon's shared hook index implements this so concurrent staging
/// engines can probe the whole store's hook population lock-free while
/// their Bloom filters cover only session-local hooks.
pub trait HookPresence: Send + Sync {
    /// Whether a hook for `hash` is (claimed to be) present. May run
    /// ahead of durable state — callers must tolerate a subsequent
    /// on-disk lookup missing.
    fn contains(&self, hash: &ChunkHash) -> bool;
}

/// A deduplication engine processing backup streams in order.
///
/// Call [`Deduplicator::process_snapshot`] for each stream (the engines
/// time themselves), then [`Deduplicator::finish`] to flush dirty state
/// (cached Manifests written back) and collect the cumulative report.
/// `finish` is also a safe maintenance point: garbage collection and
/// compaction require a flushed store, and processing may resume
/// afterwards (the caches simply start cold).
pub trait Deduplicator {
    /// The storage backend the engine runs over.
    type Backend: Backend;

    /// Engine name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Deduplicates one backup stream (all of its files, in order).
    fn process_snapshot(&mut self, snapshot: &Snapshot) -> EngineResult<()>;

    /// Flushes dirty manifests and returns the cumulative report. May be
    /// called between batches; see the trait docs.
    fn finish(&mut self) -> EngineResult<DedupReport>;

    /// The storage substrate (counters, ledger, restore access).
    fn substrate_mut(&mut self) -> &mut Substrate<Self::Backend>;
}

/// Which of Table II's query columns a full-index lookup is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Query {
    /// CDC: the table has no query column for it.
    Uncharged,
    /// A big-chunk query.
    Big,
    /// A small-chunk query.
    Small,
    /// SubChunk: a small-chunk query, charged only when it reaches the
    /// on-disk Hooks (its Bloom filter answers for the index itself).
    SmallOnDisk,
}

/// A DiskChunk under construction and the Manifest entries describing
/// what is in it.
pub(crate) struct Pending {
    pub(crate) builder: DiskChunkBuilder,
    pub(crate) entries: Vec<ManifestEntry>,
}

/// What every engine owns, and what every engine does with it. `Bloom`
/// is [`BloomFilter`] for the engines that gate on-disk Hooks with one
/// and `()` for SparseIndexing, whose hooks live in RAM: no engine is
/// handed an index it never probes.
pub(crate) struct Scaffold<B: Backend, Bloom = BloomFilter> {
    pub(crate) config: EngineConfig,
    /// The chunker the front end cuts whole files with.
    pub(crate) chunker: AnyChunker,
    pub(crate) substrate: Substrate<B>,
    pub(crate) bloom: Bloom,
    pub(crate) cache: ManifestCache,
    pub(crate) slice: SliceTracker,
    pub(crate) input_bytes: u64,
    pub(crate) files: u64,
    pub(crate) chunks_stored: u64,
    pub(crate) hhr_count: u64,
    pub(crate) dedup_seconds: f64,
}

impl<B: Backend> Scaffold<B> {
    /// Scaffold over `backend` whose front end cuts at `ingest_size`.
    pub(crate) fn new(backend: B, config: EngineConfig, ingest_size: usize) -> EngineResult<Self> {
        Self::build(backend, config, ingest_size, new_bloom)
    }

    /// Replaces the Bloom filter with one holding every plain Hook on the
    /// backend. The filter summarises the Hook set, so a store resumes it
    /// by this rebuild rather than persisting it.
    pub(crate) fn rebuild_bloom(&mut self) {
        self.bloom = new_bloom(&self.config);
        for name in self.substrate.backend_mut().list(FileKind::Hook) {
            if let Some(hash) = plain_hook_hash(&name) {
                self.bloom.insert(&hash);
            }
        }
    }

    /// Full-index lookup: Manifest cache, then Bloom filter, then the
    /// on-disk Hook and the Manifest it points to (which becomes
    /// resident, so the rest of a duplicate slice resolves in RAM).
    pub(crate) fn lookup(&mut self, hash: ChunkHash, query: Query) -> EngineResult<Option<Extent>> {
        match query {
            Query::Big => self.substrate.stats_mut().big_chunk_query += 1,
            Query::Small => self.substrate.stats_mut().small_chunk_query += 1,
            Query::Uncharged | Query::SmallOnDisk => {}
        }
        let found = if let Some((mid, idx)) = self.cache.find_hash(&hash) {
            self.substrate.stats_mut().cache_hits += 1;
            self.cache.peek(mid).and_then(|c| c.manifest().entries.get(idx as usize).copied())
        } else if !self.bloom.contains(&hash) {
            self.substrate.stats_mut().bloom_suppressed += 1;
            None
        } else {
            if query == Query::SmallOnDisk {
                self.substrate.stats_mut().small_chunk_query += 1;
            }
            match self.substrate.lookup_hook(hash)? {
                Some(mid) => {
                    let manifest = self.substrate.load_manifest(mid)?;
                    let e = manifest.entries.iter().find(|e| e.hash == hash).copied();
                    debug_assert!(e.is_some(), "hook points at manifest lacking its hash");
                    self.cache_insert(manifest)?;
                    e
                }
                // A Bloom false positive — or, where Hooks are sparser
                // than the filter (SubChunk), a duplicate no Hook reaches.
                None => None,
            }
        };
        Ok(found.map(|e| e.extent()))
    }

    /// Dedups one chunk of `file` against the full index: a duplicate
    /// goes into the recipe at the extent found, anything else is stored.
    /// Returns where the chunk's bytes live.
    pub(crate) fn dedup_chunk(
        &mut self,
        query: Query,
        out: &mut Pending,
        fm: &mut FileManifest,
        chunk: &HashedChunk,
        file: &[u8],
    ) -> EngineResult<Extent> {
        Ok(match self.lookup(chunk.hash, query)? {
            Some(extent) => {
                debug_assert_eq!(extent.len, chunk.len as u64);
                self.dup(fm, extent);
                extent
            }
            None => self.store(out, fm, chunk.hash, chunk.slice(file)),
        })
    }

    /// Writes the Hook `hash → manifest` and enters it in the Bloom filter.
    pub(crate) fn write_hook(&mut self, hash: ChunkHash, manifest: ManifestId) -> EngineResult<()> {
        self.substrate.write_hook(hash, manifest)?;
        self.bloom.insert(&hash);
        Ok(())
    }

    /// The full index: a Hook per Manifest entry.
    pub(crate) fn hook_every_entry(&mut self, manifest: &Manifest) -> EngineResult<()> {
        manifest.entries.iter().try_for_each(|e| self.write_hook(e.hash, manifest.id))
    }
}

impl<B: Backend> Scaffold<B, ()> {
    /// Scaffold with no Bloom filter.
    pub(crate) fn without_bloom(
        backend: B,
        config: EngineConfig,
        ingest_size: usize,
    ) -> EngineResult<Self> {
        Self::build(backend, config, ingest_size, |_| ())
    }
}

impl<B: Backend, Bloom> Scaffold<B, Bloom> {
    fn build(
        backend: B,
        config: EngineConfig,
        ingest_size: usize,
        bloom: impl FnOnce(&EngineConfig) -> Bloom,
    ) -> EngineResult<Self> {
        config.validate().map_err(EngineError::Config)?;
        Ok(Scaffold {
            chunker: chunker_at(&config, ingest_size)?,
            substrate: Substrate::new(backend),
            bloom: bloom(&config),
            cache: ManifestCache::new(config.cache_manifests),
            slice: SliceTracker::default(),
            input_bytes: 0,
            files: 0,
            chunks_stored: 0,
            hhr_count: 0,
            dedup_seconds: 0.0,
            config,
        })
    }

    /// Starts a DiskChunk (its id is taken now).
    pub(crate) fn begin(&mut self) -> Pending {
        Pending { builder: self.substrate.new_disk_chunk(), entries: Vec::new() }
    }

    /// Makes `manifest` resident. "A Manifest that has been set dirty is
    /// written back to the disk before it is freed": a dirty evictee goes
    /// back to the store here.
    pub(crate) fn cache_insert(&mut self, manifest: Manifest) -> EngineResult<()> {
        if let Some((evicted, dirty)) = self.cache.insert(manifest, false) {
            if dirty {
                self.substrate.update_manifest(&evicted)?;
            }
        }
        Ok(())
    }

    /// A chunk is a duplicate of the bytes at `extent`.
    pub(crate) fn dup(&mut self, fm: &mut FileManifest, extent: Extent) {
        self.slice.on_dup(extent.len, 1);
        fm.push(extent);
    }

    /// Stores a non-duplicate chunk: container append, Manifest entry,
    /// recipe extent, counter.
    pub(crate) fn store(
        &mut self,
        out: &mut Pending,
        fm: &mut FileManifest,
        hash: ChunkHash,
        bytes: &[u8],
    ) -> Extent {
        self.slice.on_nondup();
        let (container, offset) = (out.builder.id(), out.builder.append(bytes));
        let entry =
            ManifestEntry { hash, container, offset, size: bytes.len() as u64, is_hook: false };
        out.entries.push(entry);
        fm.push(entry.extent());
        self.chunks_stored += 1;
        entry.extent()
    }

    /// Commits a Manifest over `entries` (none: nothing was stored, no
    /// Manifest): the Manifest, then whatever `index` writes to make it
    /// findable — Hooks point at Manifests, so they follow it — then the
    /// cache.
    pub(crate) fn commit_manifest(
        &mut self,
        entries: Vec<ManifestEntry>,
        format: ManifestFormat,
        index: impl FnOnce(&mut Self, &Manifest) -> EngineResult<()>,
    ) -> EngineResult<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let manifest = Manifest { id: self.substrate.new_manifest_id(), format, entries };
        self.substrate.write_manifest(&manifest)?;
        index(self, &manifest)?;
        self.cache_insert(manifest)?;
        self.files += 1;
        Ok(())
    }

    /// Writes the recipe of `file`, which also ends any open duplicate
    /// slice. Last in a commit: everything a recipe names is written.
    pub(crate) fn write_recipe(&mut self, file: &FileEntry, fm: &FileManifest) -> EngineResult<()> {
        self.slice.reset_run();
        debug_assert_eq!(fm.total_len(), file.data.len() as u64, "recipe must cover the file");
        Ok(self.substrate.write_file_manifest(&file.path, fm)?)
    }

    /// The commit tail of one file, in the order that leaves no dangling
    /// reference at any crash point: DiskChunk, Manifest, Hooks (and
    /// Bloom), cache, recipe.
    pub(crate) fn commit_file(
        &mut self,
        file: &FileEntry,
        fm: &FileManifest,
        out: Pending,
        format: ManifestFormat,
        index: impl FnOnce(&mut Self, &Manifest) -> EngineResult<()>,
    ) -> EngineResult<()> {
        self.substrate.write_disk_chunk(out.builder)?;
        self.commit_manifest(out.entries, format, index)?;
        self.write_recipe(file, fm)
    }

    /// Writes dirty cached Manifests back, flushes the store, and reports
    /// the run so far. The time it takes counts as dedup time.
    pub(crate) fn finish(
        &mut self,
        algorithm: &str,
        ram_index_bytes: u64,
    ) -> EngineResult<DedupReport> {
        let start = Instant::now();
        for (manifest, dirty) in self.cache.drain() {
            if dirty {
                self.substrate.update_manifest(&manifest)?;
            }
        }
        self.substrate.flush()?;
        self.dedup_seconds += start.elapsed().as_secs_f64();
        Ok(DedupReport {
            algorithm: algorithm.to_string(),
            input_bytes: self.input_bytes,
            dup_bytes: self.slice.dup_bytes,
            dup_slices: self.slice.slices,
            files: self.files,
            chunks_stored: self.chunks_stored,
            chunks_dup: self.slice.dup_chunks,
            hhr_count: self.hhr_count,
            stats: *self.substrate.stats(),
            ledger: *self.substrate.ledger(),
            ram_index_bytes,
            dedup_seconds: self.dedup_seconds,
        })
    }
}

/// The Bloom filter an engine starts with: `bloom_bytes`, sized for two
/// keys per byte.
fn new_bloom(config: &EngineConfig) -> BloomFilter {
    BloomFilter::with_bytes(config.bloom_bytes, (config.bloom_bytes * 2) as u64)
}

/// The configured chunking algorithm at expected chunk size `size`.
pub(crate) fn chunker_at(config: &EngineConfig, size: usize) -> EngineResult<AnyChunker> {
    config.chunker.build(size).map_err(|e| EngineError::Config(e.to_string()))
}

/// `process_snapshot` for an engine that dedups file by file (all but
/// SparseIndexing, whose segments span files): the front end chunks and
/// hashes ahead with the scaffold's chunker, `per_file` sees the files
/// in order, and the whole call is timed.
pub(crate) fn ingest_files<E, B: Backend>(
    engine: &mut E,
    snapshot: &Snapshot,
    scaffold: impl Fn(&mut E) -> &mut Scaffold<B>,
    per_file: impl Fn(&mut E, &FileEntry, Vec<HashedChunk>) -> EngineResult<()>,
) -> EngineResult<()> {
    let start = Instant::now();
    for ingested in frontend::ingest(&scaffold(engine).chunker, &snapshot.files) {
        let (file, chunks) = ingested?;
        scaffold(engine).input_bytes += file.data.len() as u64;
        per_file(engine, file, chunks)?;
    }
    scaffold(engine).dedup_seconds += start.elapsed().as_secs_f64();
    Ok(())
}

/// The five engines, in the paper's plotting order: the registry every
/// "all engines" loop iterates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// BF-MHD (this paper).
    Mhd,
    /// Bimodal.
    Bimodal,
    /// SubChunk.
    SubChunk,
    /// SparseIndexing.
    SparseIndexing,
    /// Flat CDC (Tables I–II only; not plotted in Figs. 7–8).
    Cdc,
}

impl EngineKind {
    /// Every engine.
    pub const ALL: [EngineKind; 5] = [
        EngineKind::Mhd,
        EngineKind::Bimodal,
        EngineKind::SubChunk,
        EngineKind::SparseIndexing,
        EngineKind::Cdc,
    ];

    /// The four algorithms plotted in Figs. 7–8.
    pub const FIGURE_SET: [EngineKind; 4] =
        [EngineKind::Mhd, EngineKind::Bimodal, EngineKind::SubChunk, EngineKind::SparseIndexing];

    /// The four algorithms of Tables I–II.
    pub const TABLE_SET: [EngineKind; 4] =
        [EngineKind::Mhd, EngineKind::SubChunk, EngineKind::Bimodal, EngineKind::Cdc];

    /// Label as used in the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::Mhd => "BF-MHD",
            EngineKind::Bimodal => "Bimodal",
            EngineKind::SubChunk => "SubChunk",
            EngineKind::SparseIndexing => "SparseIndexing",
            EngineKind::Cdc => "CDC",
        }
    }

    /// Builds this engine over `backend`.
    pub fn build<B: Backend + 'static>(
        self,
        backend: B,
        config: EngineConfig,
    ) -> EngineResult<Box<dyn Deduplicator<Backend = B>>> {
        Ok(match self {
            EngineKind::Mhd => Box::new(MhdEngine::new(backend, config)?),
            EngineKind::Bimodal => Box::new(BimodalEngine::new(backend, config)?),
            EngineKind::SubChunk => Box::new(SubChunkEngine::new(backend, config)?),
            EngineKind::SparseIndexing => Box::new(SparseIndexEngine::new(backend, config)?),
            EngineKind::Cdc => Box::new(CdcEngine::new(backend, config)?),
        })
    }
}

/// Tracks duplicate-slice runs: a slice is a maximal run of consecutive
/// duplicate chunks in the input stream (the paper's `L`).
#[derive(Debug, Default, Clone, Copy)]
pub struct SliceTracker {
    in_slice: bool,
    /// Completed plus open slices.
    pub slices: u64,
    /// Total duplicate bytes.
    pub dup_bytes: u64,
    /// Total duplicate chunks (`D`).
    pub dup_chunks: u64,
}

impl SliceTracker {
    /// Records `len` duplicate bytes continuing or starting a slice.
    pub fn on_dup(&mut self, len: u64, chunks: u64) {
        if !self.in_slice {
            self.in_slice = true;
            self.slices += 1;
        }
        self.dup_bytes += len;
        self.dup_chunks += chunks;
    }

    /// Records a non-duplicate position, terminating any open slice.
    pub fn on_nondup(&mut self) {
        self.in_slice = false;
    }

    /// Terminates any open slice (file/stream boundary).
    pub fn reset_run(&mut self) {
        self.in_slice = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhd_chunking::RabinChunker;

    #[test]
    fn chunk_and_hash_matches_sequential() {
        let chunker = RabinChunker::with_avg(256).unwrap();
        let data = Bytes::from((0..20_000u32).flat_map(|i| i.to_le_bytes()).collect::<Vec<u8>>());
        let chunks = chunk_and_hash(&chunker, &data);
        assert!(!chunks.is_empty());
        let mut cursor = 0u64;
        for c in &chunks {
            assert_eq!(c.offset, cursor);
            assert_eq!(c.hash, sha1(c.slice(&data)));
            cursor = c.end();
        }
        assert_eq!(cursor, data.len() as u64);
    }

    #[test]
    fn slice_tracker_counts_runs() {
        let mut t = SliceTracker::default();
        t.on_dup(100, 1);
        t.on_dup(50, 1); // same slice
        t.on_nondup();
        t.on_dup(10, 1); // new slice
        t.reset_run();
        t.on_dup(10, 1); // new slice after boundary
        assert_eq!(t.slices, 3);
        assert_eq!(t.dup_bytes, 170);
        assert_eq!(t.dup_chunks, 4);
    }
}
