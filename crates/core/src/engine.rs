//! The common engine interface and shared helpers.

use bytes::Bytes;
use mhd_chunking::Chunker;
use mhd_hash::{sha1, ChunkHash};
use mhd_store::{IoStats, MetadataLedger, StoreError};
use mhd_workload::Snapshot;
use serde::{Deserialize, Serialize};

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
/// any [`Chunker`] — Rabin, TTTD, fixed, FastCDC, AE — plugs into every
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
    /// Engine name ("bf-mhd", "cdc", "bimodal", "subchunk",
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
    /// Engine name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Deduplicates one backup stream (all of its files, in order).
    fn process_snapshot(&mut self, snapshot: &Snapshot) -> EngineResult<()>;

    /// Flushes dirty manifests and returns the cumulative report. May be
    /// called between batches; see the trait docs.
    fn finish(&mut self) -> EngineResult<DedupReport>;
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
